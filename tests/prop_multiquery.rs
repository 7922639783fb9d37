//! Batched multi-query execution, property-tested differentially.
//!
//! [`Service::eval_multi`] is an execution strategy, never a different
//! answer: for any corpus, any batch composition (duplicates, syntax
//! errors, walker-fallback members, statically-empty members) and any
//! shard count, every member's rows must be byte-identical to a solo
//! [`Service::eval`] of the same query on a *fresh* service — an
//! independent execution, so the check can never compare a cache entry
//! against itself. Alongside the differential core: a batch of one
//! degrades to exactly the solo path, and in-batch duplicates collapse
//! to one shared execution.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is the acceptance floor of 256.

use std::sync::Arc;

use proptest::prelude::*;

use lpath::prelude::*;

/// A random subtree of bounded depth/width in bracketed form.
fn arb_subtree(depth: u32) -> BoxedStrategy<String> {
    let tag = prop_oneof![
        Just("A".to_string()),
        Just("B".to_string()),
        Just("C".to_string()),
    ];
    let word = prop_oneof![
        Just("u".to_string()),
        Just("v".to_string()),
        Just("w".to_string()),
    ];
    if depth == 0 {
        (tag, word).prop_map(|(t, w)| format!("({t} {w})")).boxed()
    } else {
        let leaf = (
            prop_oneof![
                Just("A".to_string()),
                Just("B".to_string()),
                Just("C".to_string()),
            ],
            word,
        )
            .prop_map(|(t, w)| format!("({t} {w})"));
        let inner = (tag, prop::collection::vec(arb_subtree(depth - 1), 1..3))
            .prop_map(|(t, kids)| format!("({t} {})", kids.join(" ")));
        prop_oneof![2 => leaf, 2 => inner].boxed()
    }
}

/// Bracketed text for one to five random trees.
fn arb_treebank() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_subtree(2), 1..6)
        .prop_map(|trees| trees.iter().map(|t| format!("( (S {t}) )")).collect())
}

/// Batch member pool: shareable anchors (several `//A[...]` variants
/// keep the same outer anchor), a walker-strategy member, attribute
/// and alignment filters, a statically-empty member (`//ZZZ` is not in
/// any generated vocabulary), an alternate spelling that normalizes to
/// a pool sibling, and one syntax error.
const POOL: [&str; 12] = [
    "//A",
    "//A[not(//B)]",
    "//A[not(//C)]",
    "//A/B",
    "//B->C",
    "//S{//A$}",
    "//_[@lex=u]",
    "//S/_[last()]", // no SQL translation: walker strategy
    "//ZZZ",         // statically empty against any generated corpus
    "// A ",         // normalizes to "//A"
    "//B[",          // syntax error: stays per-member
    "//C=>C",
];

/// A batch is a sequence of pool indices (duplicates welcome).
fn arb_batch() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..POOL.len(), 1..8)
}

fn service_over(corpus: &Corpus, shards: usize, threads: usize) -> Service {
    Service::with_config(
        corpus,
        ServiceConfig {
            shards,
            threads,
            ..ServiceConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(256),
        ..ProptestConfig::default()
    })]

    /// The differential core: every batch member's result equals a
    /// solo eval of the same query on a fresh single-threaded service,
    /// whether the batch's shard tasks ran on one worker or several.
    #[test]
    fn eval_multi_matches_fresh_solo_evals(
        trees in arb_treebank(),
        batch in arb_batch(),
        shards in 1usize..4,
        threads in 1usize..=3,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let texts: Vec<&str> = batch.iter().map(|&i| POOL[i]).collect();

        let multi = service_over(&corpus, shards, threads).eval_multi(&texts);
        let oracle = service_over(&corpus, shards, 1);
        prop_assert_eq!(multi.len(), texts.len());
        for (q, got) in texts.iter().zip(&multi) {
            match (got, oracle.eval(q)) {
                (Ok(rows), Ok(solo)) => prop_assert_eq!(
                    &**rows, &*solo, "batched vs solo rows on {}", q
                ),
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.to_string(), b.to_string(), "batched vs solo error on {}", q
                ),
                (a, b) => prop_assert!(
                    false,
                    "divergent outcome on {}: batched {:?} vs solo {:?}",
                    q, a.is_ok(), b.is_ok()
                ),
            }
        }
    }

    /// A batch of one is *exactly* the solo path: same rows, and no
    /// batch counted.
    #[test]
    fn batch_of_one_degrades_to_solo(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let svc = service_over(&corpus, 2, 1);
        let q = POOL[qi];
        let solo = svc.eval(q);
        let multi = svc.eval_multi(&[q]);
        prop_assert_eq!(multi.len(), 1);
        match (&multi[0], &solo) {
            (Ok(a), Ok(b)) => prop_assert_eq!(&**a, &**b, "rows on {}", q),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            _ => prop_assert!(false, "divergent outcome on {}", q),
        }
        let stats = svc.stats();
        prop_assert_eq!(stats.batches, 0, "batch of one must not count as a batch");
    }

    /// In-batch duplicates (including alternate spellings of one
    /// query) collapse to a single execution: every occurrence gets
    /// the *same* result allocation.
    #[test]
    fn duplicates_share_one_execution(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
        copies in 2usize..5,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let svc = service_over(&corpus, 2, 1);
        let q = POOL[qi];
        let texts: Vec<&str> = (0..copies).map(|_| q).collect();
        let results = svc.eval_multi(&texts);
        let Ok(first) = &results[0] else { return Ok(()); };
        // Statically-empty members short-circuit before dedup (each
        // occurrence answers with its own empty set); every other
        // duplicate is batch-deduplicated onto one shared allocation.
        let deduped = svc.stats().statically_empty == 0;
        for r in &results[1..] {
            let rows = r.as_ref().expect("same query, same outcome");
            prop_assert_eq!(&**first, &**rows, "duplicate members must agree on {}", q);
            if deduped {
                prop_assert!(
                    Arc::ptr_eq(first, rows),
                    "duplicate members must share one allocation on {}", q
                );
            }
        }
        if deduped {
            prop_assert_eq!(svc.stats().batch_dedup, (copies - 1) as u64);
        }
    }
}

/// Members that open the same anchor are still independent members:
/// each distinct one costs exactly one shard evaluation, agrees with a
/// fresh solo eval, and is served from the row store on a re-run.
#[test]
fn same_anchor_members_evaluate_once_each() {
    let corpus =
        parse_str("( (S (A (B u) (A (C v))) (A (C w)) ) )\n( (S (A (B u)) (B (A (B v)))) )\n")
            .unwrap();
    let svc = service_over(&corpus, 1, 1);
    let texts = ["//A[not(//B)]", "//A[not(//C)]", "//A"];
    let results = svc.eval_multi(&texts);
    for (q, r) in texts.iter().zip(&results) {
        let fresh = service_over(&corpus, 1, 1);
        assert_eq!(**r.as_ref().unwrap(), *fresh.eval(q).unwrap(), "{q}");
    }
    let stats = svc.stats();
    assert_eq!(stats.shard_evals, 3, "{stats:?}");
    assert_eq!(stats.batch_dedup, 0, "{stats:?}");
    svc.eval_multi(&texts);
    let again = svc.stats();
    assert_eq!(again.shard_evals, 3, "{again:?}");
    assert_eq!(again.result_hits - stats.result_hits, 3, "{again:?}");
}
