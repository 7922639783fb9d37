//! The `multiquery` harness mode's report: the paper's 23-query
//! evaluation fixture issued as one `Service::eval_multi` batch
//! against 23 independent `Service::eval` calls, in two regimes.
//!
//! **Steady state** (the headline `solo_secs`/`multi_secs`, where the
//! ≥2× bar applies): the production configuration — result caches on,
//! service warmed — so both sides serve the same hot working set and
//! the measurement isolates what batching amortizes: one plan-cache
//! pass, one shard snapshot, one result-cache lock round and one
//! instrumentation sample per *batch* instead of per *query*. This is
//! the regime a high-traffic service actually lives in.
//!
//! **Cold** (`cold_solo_secs`/`cold_multi_secs`): every cache disabled,
//! so both sides pay full evaluation. Here the batch wins only what
//! subplan sharing saves — duplicate plans executed once, shared
//! anchor enumerations — and the validator demands it stays within a
//! bounded factor of the uncached solo loop (see
//! `COLD_REGRESSION_SLACK`). The sharing counters
//! (`shared_members`, `residual_evals`) come from one instrumented
//! cold batch.
//!
//! Before any timing, every member's batched rows are verified
//! byte-identical to its solo rows on the cache-disabled service
//! (`verified_identical`) — independent executions, so the check can
//! never compare a cache entry against itself.
//!
//! The builder and the validator live together (and in the library,
//! not the harness binary) so the checked-in validator test exercises
//! exactly the code the harness emits with.

use crate::metrics::field;

/// One query's row in `BENCH_multiquery.json`.
pub struct MultiRow {
    /// Query id (Q1–Q23).
    pub id: usize,
    /// The LPath query text.
    pub lpath: &'static str,
    /// Full result size (identical on both execution paths).
    pub results: usize,
    /// Solo `Service::eval` latency on the cache-disabled service,
    /// seconds (7-run trimmed mean).
    pub solo_secs: f64,
}

/// Everything the `multiquery` mode measures.
pub struct MultiReport {
    /// WSJ corpus scale (sentences).
    pub wsj_sentences: usize,
    /// Service shard count.
    pub shards: usize,
    /// Steady state: the fixture as 23 independent evals on the warmed
    /// production-config service, seconds (trimmed mean of the loop).
    pub solo_secs: f64,
    /// Steady state: the fixture as one `eval_multi` batch, seconds.
    pub multi_secs: f64,
    /// Cold: the fixture as 23 independent evals with every cache
    /// disabled, seconds.
    pub cold_solo_secs: f64,
    /// Cold: the fixture as one batch with every cache disabled,
    /// seconds.
    pub cold_multi_secs: f64,
    /// Batch members that shared another member's work — rode a shared
    /// anchor enumeration or copied a structurally identical plan's
    /// rows (summed over shards), from the `multi_shared_scans` stats
    /// delta of one cold batch.
    pub shared_members: u64,
    /// Residual filter evaluations those shared scans performed.
    pub residual_evals: u64,
    /// Whether every member's batched rows were verified identical to
    /// its solo rows (independent executions) before timing.
    pub verified_identical: bool,
    /// Per-query measurements, Q1–Q23.
    pub per_query: Vec<MultiRow>,
}

impl MultiReport {
    /// Steady state: how much faster the batch is than the
    /// independent-eval loop (the headline the ≥2× bar applies to).
    pub fn speedup(&self) -> f64 {
        self.solo_secs / self.multi_secs.max(1e-12)
    }

    /// Cold: the uncached execution ratio — what subplan sharing alone
    /// buys (≥1 means the batch also wins cold).
    pub fn cold_speedup(&self) -> f64 {
        self.cold_solo_secs / self.cold_multi_secs.max(1e-12)
    }

    /// Render the report in the repository's `BENCH_*.json` house
    /// style (hand-built, one `per_query` object per line).
    pub fn to_json(&self) -> String {
        let mut json = String::new();
        json.push_str("{\n");
        json.push_str("  \"bench\": \"multiquery\",\n");
        json.push_str(&format!("  \"wsj_sentences\": {},\n", self.wsj_sentences));
        json.push_str(&format!("  \"service_shards\": {},\n", self.shards));
        json.push_str(&format!("  \"solo_secs\": {:.9},\n", self.solo_secs));
        json.push_str(&format!("  \"multi_secs\": {:.9},\n", self.multi_secs));
        json.push_str(&format!("  \"speedup\": {:.3},\n", self.speedup()));
        json.push_str(&format!(
            "  \"cold_solo_secs\": {:.9},\n",
            self.cold_solo_secs
        ));
        json.push_str(&format!(
            "  \"cold_multi_secs\": {:.9},\n",
            self.cold_multi_secs
        ));
        json.push_str(&format!(
            "  \"cold_speedup\": {:.3},\n",
            self.cold_speedup()
        ));
        json.push_str(&format!("  \"shared_members\": {},\n", self.shared_members));
        json.push_str(&format!("  \"residual_evals\": {},\n", self.residual_evals));
        json.push_str(&format!(
            "  \"verified_identical\": {},\n",
            self.verified_identical
        ));
        json.push_str("  \"per_query\": [\n");
        for (i, r) in self.per_query.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"id\": {}, \"lpath\": {:?}, \"results\": {}, \"solo_secs\": {:.9}}}{}\n",
                r.id,
                r.lpath,
                r.results,
                r.solo_secs,
                if i + 1 < self.per_query.len() {
                    ","
                } else {
                    ""
                },
            ));
        }
        json.push_str("  ]\n");
        json.push_str("}\n");
        json
    }
}

/// How much slower than the solo loop the cold batch may run before
/// the validator calls it a regression. Cold execution is roughly
/// work-neutral, not strictly better: sharing removes duplicate work,
/// but a member whose solo plan is more selective than the shared
/// anchor pays residual-filter overhead on the shared candidate
/// stream. Observed cold ratios sit near 1× (±30%); this bound guards
/// against a structural blow-up while absorbing that overhead plus
/// single-run timer noise on loaded CI boxes. The performance *claim*
/// (the ≥2× bar) is steady state.
const COLD_REGRESSION_SLACK: f64 = 2.0;

/// Validate the shape and the claims of a `BENCH_multiquery.json`
/// document: required keys present, at least one per-query row with
/// positive solo timing, the batched results verified identical to
/// the solo ones, at least two members actually sharing work, the
/// steady-state batch at least 2× faster than the independent-eval
/// loop, and the cold batch not meaningfully slower than the cold
/// loop. Returns the first problem found.
pub fn validate(json: &str) -> Result<(), String> {
    for key in [
        "\"bench\": \"multiquery\"",
        "\"per_query\"",
        "\"solo_secs\"",
        "\"multi_secs\"",
        "\"speedup\"",
        "\"cold_solo_secs\"",
        "\"cold_multi_secs\"",
        "\"shared_members\"",
        "\"residual_evals\"",
    ] {
        if !json.contains(key) {
            return Err(format!("missing {key}"));
        }
    }
    if !json.contains("\"verified_identical\": true") {
        return Err("batched results were not verified identical to solo evals".to_string());
    }
    let top = |key: &str| -> Result<f64, String> {
        json.lines()
            .find_map(|l| field(l, key))
            .ok_or_else(|| format!("missing numeric {key}"))
    };
    let (solo, multi) = (top("solo_secs")?, top("multi_secs")?);
    let (cold_solo, cold_multi) = (top("cold_solo_secs")?, top("cold_multi_secs")?);
    for (name, v) in [
        ("solo_secs", solo),
        ("multi_secs", multi),
        ("cold_solo_secs", cold_solo),
        ("cold_multi_secs", cold_multi),
    ] {
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("{name} {v} not finite and positive"));
        }
    }
    let speedup = top("speedup")?;
    if !speedup.is_finite() || speedup < 2.0 {
        return Err(format!(
            "steady-state speedup {speedup:.3} below the 2x bar for the batched fixture"
        ));
    }
    if cold_multi > cold_solo * COLD_REGRESSION_SLACK {
        return Err(format!(
            "cold batch {cold_multi:.6}s regresses the cold solo loop {cold_solo:.6}s"
        ));
    }
    let shared = top("shared_members")?;
    if shared < 2.0 {
        return Err(format!(
            "shared_members {shared} — no work was actually shared"
        ));
    }
    let mut rows = 0;
    for line in json
        .lines()
        .filter(|l| l.contains("\"solo_secs\"") && l.contains("\"id\""))
    {
        rows += 1;
        let secs: f64 =
            field(line, "solo_secs").ok_or_else(|| format!("row missing solo_secs: {line}"))?;
        if !(secs.is_finite() && secs > 0.0) {
            return Err(format!("solo_secs {secs} not finite and positive: {line}"));
        }
    }
    if rows == 0 {
        return Err("no per-query rows".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> MultiReport {
        MultiReport {
            wsj_sentences: 300,
            shards: 8,
            solo_secs: 0.000_08,
            multi_secs: 0.000_02,
            cold_solo_secs: 0.0050,
            cold_multi_secs: 0.0044,
            shared_members: 9,
            residual_evals: 4_200,
            verified_identical: true,
            per_query: vec![
                MultiRow {
                    id: 1,
                    lpath: "//VP[//VB]//NP",
                    results: 120,
                    solo_secs: 0.004,
                },
                MultiRow {
                    id: 12,
                    lpath: "//VB",
                    results: 9_000,
                    solo_secs: 0.006,
                },
            ],
        }
    }

    #[test]
    fn emitted_json_validates() {
        let r = report();
        validate(&r.to_json()).unwrap();
        assert!((r.speedup() - 4.0).abs() < 1e-9);
        assert!(r.cold_speedup() > 1.0);
    }

    #[test]
    fn validator_rejects_sub_2x_speedups() {
        let mut r = report();
        r.multi_secs = 0.000_07;
        let err = validate(&r.to_json()).unwrap_err();
        assert!(err.contains("below the 2x bar"), "{err}");
    }

    #[test]
    fn validator_rejects_cold_regressions() {
        let mut r = report();
        r.cold_multi_secs = r.cold_solo_secs * (COLD_REGRESSION_SLACK + 0.1);
        let err = validate(&r.to_json()).unwrap_err();
        assert!(err.contains("regresses the cold solo loop"), "{err}");
    }

    #[test]
    fn validator_requires_actual_sharing() {
        let mut r = report();
        r.shared_members = 0;
        let err = validate(&r.to_json()).unwrap_err();
        assert!(err.contains("shared"), "{err}");
    }

    #[test]
    fn validator_requires_the_differential_check() {
        let mut r = report();
        r.verified_identical = false;
        let err = validate(&r.to_json()).unwrap_err();
        assert!(err.contains("verified identical"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_keys_and_empty_reports() {
        assert!(validate("{}").is_err());
        let mut r = report();
        r.per_query.clear();
        let err = validate(&r.to_json()).unwrap_err();
        assert!(err.contains("no per-query rows"), "{err}");
    }

    #[test]
    fn validator_rejects_nonpositive_timings() {
        let mut r = report();
        r.per_query[0].solo_secs = 0.0;
        let err = validate(&r.to_json()).unwrap_err();
        assert!(err.contains("solo_secs"), "{err}");
    }
}
