//! Observability invariants, property-tested against random workloads.
//!
//! The counters and histograms the service exposes are only useful if
//! they are *exact*: every request accounted to exactly one class,
//! cache identities that hold by construction, histogram totals that
//! equal the requests recorded, and a slow-query log (at a zero
//! threshold) that misses nothing. These tests drive random op
//! sequences over random treebanks and check the books balance.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is the acceptance floor of 128.

use std::time::Duration;

use proptest::prelude::*;

use lpath::prelude::*;
use lpath_service::{ClassMetrics, Metrics, ResultSet};

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

/// Queries spanning the instrumented paths: streamable anchors, joins,
/// negation, attribute filters, the walker fallback, empty results.
const POOL: [&str; 9] = [
    "//A",
    "//_",
    "//S//B",
    "//A->B",
    "//A[not(//B)]",
    "//_[@lex=u]",
    "//B[//_[@lex=v]]",
    "//S/_[last()]", // no SQL translation: exercises the walker fallback
    "//ZZZ",         // matches nothing anywhere
];

/// A service that records everything: zero slow threshold, a log big
/// enough never to evict under these workloads.
fn traced(corpus: &Corpus, shards: usize) -> Service {
    Service::with_config(
        corpus,
        ServiceConfig {
            shards,
            threads: 1,
            slow_query_threshold: Duration::ZERO,
            slow_query_log_capacity: 4_096,
            ..ServiceConfig::default()
        },
    )
}

fn class<'m>(m: &'m Metrics, name: &str) -> &'m ClassMetrics {
    m.classes
        .iter()
        .find(|c| c.class == name)
        .expect("known class")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(128),
        ..ProptestConfig::default()
    })]

    /// Random op sequences: every counter identity and histogram total
    /// the service promises must balance exactly.
    #[test]
    fn stats_identities_hold_across_random_workloads(
        trees in arb_treebank(),
        ops in prop::collection::vec((0usize..10, 0usize..POOL.len()), 1..32),
        shards in 1usize..4,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let svc = traced(&corpus, shards);
        // Our own books, kept alongside the service's.
        let (mut evals, mut counts, mut pages, mut exists, mut batches, mut members) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        // The last paging / count token minted per query, for the echo
        // ops (`None`: no sweep in flight, the echo starts one).
        let mut page_tokens: Vec<Option<String>> = vec![None; POOL.len()];
        let mut count_tokens: Vec<Option<String>> = vec![None; POOL.len()];
        for &(op, qi) in &ops {
            let q = POOL[qi];
            match op {
                0 => { svc.eval(q).unwrap(); evals += 1; }
                1 => { svc.count(q).unwrap(); counts += 1; }
                2 => { svc.eval_page(q, 0, 3).unwrap(); pages += 1; }
                3 => { svc.exists(q).unwrap(); exists += 1; }
                4 => {
                    // Two-member batch, possibly with a duplicate.
                    let other = POOL[(qi + op) % POOL.len()];
                    for r in svc.eval_multi(&[q, other]) { r.unwrap(); }
                    batches += 1;
                    members += 2;
                }
                5..=7 => {
                    // Token page: fresh, echoed, or echoed after an
                    // append so the token is stale and recovery runs.
                    if op == 7 {
                        svc.append_ptb("( (S (A u) (B (C v))) )").unwrap();
                    }
                    let token = if op == 5 { None } else { page_tokens[qi].take() };
                    page_tokens[qi] = svc.eval_page_token(q, token.as_deref(), 2).unwrap().token;
                    pages += 1;
                }
                _ => {
                    // Budgeted count: fresh or echoed (stale after any
                    // earlier append: recovery recounts in place).
                    let token = if op == 8 { None } else { count_tokens[qi].take() };
                    count_tokens[qi] = svc.count_token(q, token.as_deref(), 1).unwrap().token;
                    counts += 1;
                }
            }
        }
        let s = svc.stats();
        // Every request lands in exactly one class tally — token
        // requests included, stale recoveries counted once.
        prop_assert_eq!(s.queries, evals + counts + pages + exists + members);
        prop_assert_eq!(s.batches, batches);
        prop_assert_eq!(s.pages, pages);
        // Each query member compiles exactly once: hit or miss.
        prop_assert_eq!(s.plan_hits + s.plan_misses, s.queries);
        // Count-store probes come only from count(), exists() and a
        // stale count token's recount — at most one per shard each.
        let probes = (counts + exists) * shards as u64;
        prop_assert!(s.count_hits + s.count_misses <= probes);
        // Rates are probabilities, even on empty denominators.
        for r in [s.plan_hit_rate(), s.result_hit_rate(), s.count_hit_rate(), s.prune_rate()] {
            prop_assert!(r.is_finite() && (0.0..=1.0).contains(&r), "rate {}", r);
        }

        let m = svc.metrics();
        prop_assert_eq!(m.queries, s.queries);
        // Histogram totals equal the requests recorded, class by class.
        let total = |name: &str| {
            let c = class(&m, name);
            c.hits.count + c.misses.count
        };
        prop_assert_eq!(total("eval"), evals);
        prop_assert_eq!(total("count"), counts);
        prop_assert_eq!(total("eval_page"), pages);
        prop_assert_eq!(total("eval_multi"), batches);
        prop_assert_eq!(total("exists"), exists);
        // Zero threshold, oversized ring: the slow log missed nothing.
        prop_assert_eq!(
            m.slow_queries.len() as u64,
            evals + counts + pages + batches + exists
        );
        // Every resumed checkpoint — a cached prefix or one a token
        // carried — is on some request's trace.
        let resumed: u64 = m.slow_queries.iter().map(|e| e.resumes).sum();
        prop_assert_eq!(resumed, s.page_resumes);
        // Percentiles stay monotone on every snapshot.
        for c in &m.classes {
            for h in [&c.hits, &c.misses] {
                prop_assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max);
            }
        }
    }

    /// Suspend/resume page sweeps keep the books stable: a repeated
    /// sweep returns identical rows, adds only cache-hit samples, and
    /// never re-enumerates (no new misses, no shard evals).
    #[test]
    fn repeat_page_sweeps_are_pure_hits(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
        page in 1usize..5,
        shards in 1usize..4,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let svc = traced(&corpus, shards);
        let sweep = |svc: &Service| -> (ResultSet, u64) {
            let mut got: ResultSet = Vec::new();
            let mut pages_issued = 0;
            loop {
                let chunk = svc.eval_page(q, got.len(), page).unwrap();
                pages_issued += 1;
                let short = chunk.len() < page;
                got.extend(chunk);
                if short {
                    break;
                }
            }
            (got, pages_issued)
        };
        let (first, pages1) = sweep(&svc);
        let m1 = svc.metrics();
        let (hits1, miss1) = {
            let c = class(&m1, "eval_page");
            (c.hits.count, c.misses.count)
        };
        prop_assert_eq!(hits1 + miss1, pages1);
        let (second, pages2) = sweep(&svc);
        prop_assert_eq!(&second, &first, "repeat sweep rows on {}", q);
        let m2 = svc.metrics();
        let c = class(&m2, "eval_page");
        // The first sweep promoted every prefix; the second is served
        // entirely from cache — misses frozen, hits grow by its pages.
        prop_assert_eq!(c.misses.count, miss1, "no new misses on {}", q);
        prop_assert_eq!(c.hits.count, hits1 + pages2, "all hits on {}", q);
        prop_assert_eq!(svc.stats().shard_evals, 0, "sweeps stay page-bounded on {}", q);
        // Both sweeps' resume counts survived into the slow log.
        let resumed: u64 = m2.slow_queries.iter().map(|e| e.resumes).sum();
        prop_assert_eq!(resumed, svc.stats().page_resumes, "resume trace on {}", q);
    }
}
