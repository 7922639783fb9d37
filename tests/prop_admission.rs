//! The result caches' size/heat-aware admission policy, tested from
//! the outside through [`Service`]: a sweep of one-shot queries must
//! never evict the pinned-hot working set (it pays its own misses and
//! bumps `admission_rejects` instead), the service's counters are
//! monotone under any operation sequence, and the whole policy is
//! deterministic — the same operation sequence on a fresh service
//! reproduces the same cache behavior, counter for counter.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is the acceptance floor of 256.

use proptest::prelude::*;

use lpath::prelude::*;

/// A treebank whose vocabulary covers the hot pair (`A`, `B`) and
/// enough sweep tags that one-shot queries are *not* statically empty
/// (statically-empty queries never reach the caches at all).
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

/// The admission policy's contract, deterministically: a hot working
/// set (re-read twice, the scan-resistance bar) survives a sweep of
/// 16 distinct one-shot queries through a row store exactly its size
/// (three `(query, shard)` entries: `//B` occurs in the first shard
/// only); every sweep insert is rejected and counted.
#[test]
fn sweep_never_evicts_the_pinned_hot_working_set() {
    let corpus = corpus();
    let svc = service_with_capacity(&corpus, 3);
    let hot = ["//A", "//B"];
    for q in hot {
        svc.eval(q).unwrap(); // miss: insert
    }
    for _ in 0..2 {
        for q in hot {
            svc.eval(q).unwrap(); // two re-reads: pinned hot
        }
    }

    let before = svc.stats();
    let sweeps: Vec<String> = (0..16).map(|i| format!("//T{i}")).collect();
    for q in &sweeps {
        svc.eval(q).unwrap();
    }
    let after_sweep = svc.stats();
    assert!(
        after_sweep.admission_rejects >= before.admission_rejects + sweeps.len() as u64,
        "every sweep insert against a fully-pinned cache is a rejection: {} -> {}",
        before.admission_rejects,
        after_sweep.admission_rejects
    );

    // The hot pair is still resident: re-reading it evaluates nothing.
    for q in hot {
        svc.eval(q).unwrap();
    }
    let after = svc.stats();
    assert_eq!(
        after.shard_evals, after_sweep.shard_evals,
        "hot entries must still answer from cache after the sweep"
    );
    // One hit per unpruned shard: two for `//A`, one for `//B`.
    assert_eq!(after.result_hits, after_sweep.result_hits + 3);
}

/// With room to spare (or no pinned residents), sweeps are admitted
/// normally — rejection is a *full-of-hot* verdict, not a default.
#[test]
fn cold_caches_admit_newcomers() {
    let corpus = corpus();
    let svc = service_with_capacity(&corpus, 8);
    let before = svc.stats();
    for i in 0..4 {
        svc.eval(&format!("//T{i}")).unwrap();
    }
    let after = svc.stats();
    assert_eq!(after.admission_rejects, before.admission_rejects);
    assert!(after.shard_result_cache_entries >= 4);
}

/// The counters the admission policy feeds are observable through the
/// pool below; ops index into it.
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
        s.admission_rejects,
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
    /// counter — admission decisions included. And on the way, every
    /// counter is monotone non-decreasing at every step.
    #[test]
    fn admission_is_deterministic_and_counters_monotone(
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
            for (i, (prev, cur)) in last.iter().zip(&now).enumerate().take(8) {
                prop_assert!(
                    cur >= prev,
                    "counter {} decreased: {} -> {} after {}",
                    i, prev, cur, POOL[op]
                );
            }
            // Cache occupancy never exceeds the configured capacity.
            prop_assert!(now[8] <= capacity as u64);
            last = now;
        }
        for &op in &ops {
            b.eval(POOL[op]).unwrap();
        }
        prop_assert_eq!(
            stats_fingerprint(&a),
            stats_fingerprint(&b),
            "same op sequence must reproduce the same admission behavior"
        );
    }
}
