//! The row store, tested from the outside through [`Service`]: the
//! service's counters are monotone under any operation sequence, the
//! store never holds more entries than its capacity, and the whole
//! LRU policy is deterministic — the same operation sequence on a
//! fresh service reproduces the same cache behavior, counter for
//! counter.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is the acceptance floor of 256.

use proptest::prelude::*;

use lpath::prelude::*;

/// A treebank whose vocabulary covers every pool query, so none is
/// pruned on every shard before it reaches the store.
fn corpus() -> Corpus {
    let mut text = String::from("( (S (A u) (B v) (A (B w))) )\n");
    for i in 0..16 {
        text.push_str(&format!("( (S (T{i} u) (A v)) )\n"));
    }
    parse_str(&text).unwrap()
}

fn service_with_capacity(corpus: &Corpus, capacity: usize) -> Service {
    Service::with_config(
        corpus,
        ServiceConfig {
            shards: 2,
            threads: 1,
            result_cache_capacity: capacity,
            ..ServiceConfig::default()
        },
    )
}

/// The queries the operations index into.
const POOL: [&str; 8] = [
    "//A",
    "//B",
    "//A/B",
    "//A[not(//B)]",
    "//T0",
    "//T1",
    "//T2",
    "//S{//A$}",
];

fn stats_fingerprint(svc: &Service) -> Vec<u64> {
    let s = svc.stats();
    vec![
        s.queries,
        s.plan_hits,
        s.plan_misses,
        s.result_hits,
        s.result_misses,
        s.shard_evals,
        s.shards_pruned,
        s.shard_result_cache_entries as u64,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(256),
        ..ProptestConfig::default()
    })]

    /// Same sequence, fresh service: identical behavior, counter for
    /// counter — evictions included. And on the way, every counter is
    /// monotone non-decreasing at every step.
    #[test]
    fn stores_are_deterministic_and_counters_monotone(
        ops in prop::collection::vec(0usize..POOL.len(), 1..24),
        capacity in 1usize..4,
    ) {
        let corpus = corpus();
        let a = service_with_capacity(&corpus, capacity);
        let b = service_with_capacity(&corpus, capacity);

        let mut last = stats_fingerprint(&a);
        for &op in &ops {
            a.eval(POOL[op]).unwrap();
            let now = stats_fingerprint(&a);
            // Counters (everything but the trailing store size) never
            // decrease.
            for (i, (prev, cur)) in last.iter().zip(&now).enumerate().take(7) {
                prop_assert!(
                    cur >= prev,
                    "counter {} decreased: {} -> {} after {}",
                    i, prev, cur, POOL[op]
                );
            }
            // Cache occupancy never exceeds the configured capacity.
            prop_assert!(now[7] <= capacity as u64);
            last = now;
        }
        for &op in &ops {
            b.eval(POOL[op]).unwrap();
        }
        prop_assert_eq!(
            stats_fingerprint(&a),
            stats_fingerprint(&b),
            "same op sequence must reproduce the same store behavior"
        );
    }
}
