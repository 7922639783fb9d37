//! Counting invariants, property-tested across every layer.
//!
//! A count is a promise about an enumeration nobody ran, so one
//! invariant anchors everything: **`count == eval().len()`** for any
//! corpus, query, sharding, and budget schedule — whether the count
//! came from the walker, the engine's streaming cursor, the service's
//! fan-out, the O(index) aggregate tables, a budgeted checkpointed
//! sweep, or a stateless count-token sweep. On top of that: chunk
//! counts of a suspended sweep must sum to the one-shot count at
//! *every* budget, the aggregate fast path must answer without running
//! any per-shard evaluation, and the tables must stay consistent
//! across `append_ptb`.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is the acceptance floor of 256.

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

/// The first [`FAST`] queries land in the aggregate tables (every
/// tabulated shape: all nodes, tag, roots, attribute filters, child
/// pairs, both adjacent-sibling spellings, span adjacency in both
/// directions, descendant presence and absence); the rest exercise
/// the cursor and walker counting paths, including an untranslatable
/// query and a constant-empty one.
const POOL: [&str; 18] = [
    "//A",
    "//_",
    "/S",
    "/_",
    "//_[@lex=u]",
    "//B[@lex=w]",
    "//A/B",
    "//A=>B",
    "//B<=A",
    "//A->B",
    "//B<-A",
    "//A[//B]",
    "//A[not(//B)]",
    "//_[not(//C)]",
    "//S//B",
    "//A[not(//B/C)]", // inner path too deep for the tables
    "//S/_[last()]",   // no SQL translation: walker-strategy counting
    "//ZZZ",           // matches nothing anywhere
];

/// How many [`POOL`] entries classify into the aggregate fast path.
const FAST: usize = 14;

fn service_over(corpus: &Corpus, shards: usize) -> Service {
    Service::with_config(
        corpus,
        ServiceConfig {
            shards,
            threads: 1,
            ..ServiceConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(256),
        ..ProptestConfig::default()
    })]

    /// `count == eval().len()` at every layer that can count, and
    /// every budgeted sweep's chunks sum to the same number.
    #[test]
    fn count_equals_enumeration_length_at_every_layer(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
        shards in 1usize..4,
        budget in 1usize..8,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let ast = parse(q).unwrap();

        // Ground truth: the naive tree walker's enumeration.
        let walker = Walker::new(&corpus);
        let reference = walker.count(&ast) as u64;

        // Engine: streaming-cursor count, one-shot and budgeted.
        let engine = Engine::build(&corpus);
        if let Ok(n) = engine.count_ast(&ast) {
            prop_assert_eq!(n as u64, reference, "engine one-shot on {}", q);
            let mut total = 0u64;
            let mut ckpt = None;
            for _ in 0..10_000 {
                let (chunk, next) = engine.count_resume(&ast, ckpt, budget).unwrap();
                total += chunk;
                match next {
                    Some(c) => ckpt = Some(c),
                    None => break,
                }
            }
            prop_assert_eq!(total, reference, "engine budgeted sweep on {}", q);
        }

        // Service: enumeration, one-shot count, checkpointed sweep,
        // and the stateless token sweep all agree.
        let svc = service_over(&corpus, shards);
        prop_assert_eq!(svc.eval(q).unwrap().len() as u64, reference, "eval on {}", q);
        prop_assert_eq!(svc.count(q).unwrap() as u64, reference, "service count on {}", q);

        let mut total = 0u64;
        let mut ckpt = None;
        for _ in 0..10_000 {
            let (chunk, next) = svc.count_resume(q, ckpt, budget).unwrap();
            total += chunk;
            match next {
                Some(c) => ckpt = Some(c),
                None => break,
            }
        }
        prop_assert_eq!(total, reference, "service checkpointed sweep on {}", q);

        let mut token: Option<String> = None;
        let mut last = 0u64;
        for _ in 0..10_000 {
            let page = svc.count_token(q, token.as_deref(), budget).unwrap();
            prop_assert!(page.so_far >= last, "so_far is monotone on {}", q);
            last = page.so_far;
            match page.total {
                Some(t) => {
                    prop_assert_eq!(t, page.so_far, "final page reports the total on {}", q);
                    prop_assert!(page.token.is_none(), "no token after the total on {}", q);
                    break;
                }
                None => token = Some(page.token.expect("unfinished sweep mints a token")),
            }
        }
        prop_assert_eq!(last, reference, "token sweep on {}", q);
    }

    /// Queries that classify into the aggregate tables are answered
    /// correctly with **zero** per-shard evaluations and zero count-
    /// cache traffic: the tables alone carry the answer.
    #[test]
    fn fast_path_counts_without_any_evaluation(
        trees in arb_treebank(),
        qi in 0usize..FAST,
        shards in 1usize..4,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let ast = parse(q).unwrap();
        let reference = Walker::new(&corpus).count(&ast) as u64;

        let svc = service_over(&corpus, shards);
        let compiled = svc.compile(q).unwrap();
        prop_assert!(
            compiled.fast.is_some() || compiled.statically_empty,
            "{} should classify into the aggregate tables", q
        );
        prop_assert_eq!(svc.count(q).unwrap() as u64, reference, "fast count on {}", q);
        let stats = svc.stats();
        prop_assert_eq!(stats.shard_evals, 0, "no evaluation ran on {}", q);
        prop_assert_eq!(stats.count_misses, 0, "no counting cursor ran on {}", q);
        // Every shard was answered from the tables or pruned outright
        // (a shard missing a required symbol is skipped before the
        // tables are consulted); statically-empty queries skip both.
        if !compiled.statically_empty {
            prop_assert_eq!(
                stats.count_fast + stats.shards_pruned,
                stats.shards as u64,
                "every shard answered O(1) on {}", q
            );
        }
    }

    /// The aggregate tables stay consistent across `append_ptb`: after
    /// appending, every count (one-shot, fast, sweep) equals the count
    /// over a corpus parsed whole from the concatenated text.
    #[test]
    fn counts_stay_consistent_across_append(
        trees in arb_treebank(),
        extra in arb_treebank(),
        qi in 0usize..POOL.len(),
        shards in 1usize..4,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let ast = parse(q).unwrap();

        let svc = service_over(&corpus, shards);
        svc.append_ptb(&extra.join("\n")).unwrap();

        let combined = parse_str(&format!("{}\n{}", trees.join("\n"), extra.join("\n")))
            .expect("combined treebank parses");
        let reference = Walker::new(&combined).count(&ast) as u64;
        prop_assert_eq!(svc.count(q).unwrap() as u64, reference, "post-append count on {}", q);
        prop_assert_eq!(svc.eval(q).unwrap().len() as u64, reference, "post-append eval on {}", q);
        prop_assert_eq!(svc.hist(q).unwrap().total, reference, "post-append hist on {}", q);
    }
}
