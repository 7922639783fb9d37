//! Service observability: counters, per-class latency histograms, the
//! slow-query log, and their snapshot forms.
//!
//! The primitives come from `lpath-obs` ([`Counter`], [`Histogram`],
//! [`Ring`]); this module owns which events the service counts, how
//! requests are classified (eval / eval_page / count / eval_multi /
//! hist, each split cache-hit vs miss), and the [`Metrics`] JSON
//! rendering.
//! [`ServiceStats`] is the plain-data snapshot of the counters.

use std::time::{Duration, Instant};

use lpath_obs::{json, Counter, Histogram, HistogramSnapshot, Ring};

/// Internal monotonic counters, bumped on the hot paths without locks.
#[derive(Default)]
pub(crate) struct Counters {
    pub plan_hits: Counter,
    pub plan_misses: Counter,
    pub result_hits: Counter,
    pub result_misses: Counter,
    pub count_hits: Counter,
    pub count_misses: Counter,
    pub count_fast: Counter,
    pub count_resumes: Counter,
    pub hists: Counter,
    pub batch_dedup: Counter,
    pub admission_rejects: Counter,
    pub queries: Counter,
    pub batches: Counter,
    pub pages: Counter,
    pub page_shards_skipped: Counter,
    pub page_partial_evals: Counter,
    pub page_prefix_hits: Counter,
    pub page_resumes: Counter,
    pub shard_evals: Counter,
    pub shards_pruned: Counter,
    pub statically_empty: Counter,
    pub stale_checkpoints: Counter,
    pub tokens_minted: Counter,
    pub tokens_rejected: Counter,
    pub appends: Counter,
    pub swaps: Counter,
}

/// The service's latency-classified request kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Class {
    Eval,
    EvalPage,
    Count,
    EvalMulti,
    Hist,
}

impl Class {
    pub(crate) fn name(self) -> &'static str {
        match self {
            Class::Eval => "eval",
            Class::EvalPage => "eval_page",
            Class::Count => "count",
            Class::EvalMulti => "eval_multi",
            Class::Hist => "hist",
        }
    }

    const ALL: [Class; 5] = [
        Class::Eval,
        Class::EvalPage,
        Class::Count,
        Class::EvalMulti,
        Class::Hist,
    ];
}

/// A request in flight: started by [`Instruments::begin`], finished by
/// [`Instruments::finish`]. `None` when metrics are disabled — the
/// uninstrumented path never reads the clock.
pub(crate) struct ReqTimer {
    start: Instant,
    compiled_at: Option<Instant>,
}

impl ReqTimer {
    /// Mark the end of the compile stage (plan-cache lookup included).
    pub(crate) fn mark_compiled(&mut self) {
        self.compiled_at = Some(Instant::now());
    }
}

/// Everything the request paths report into: per-class hit/miss
/// latency histograms plus the slow-query ring.
pub(crate) struct Instruments {
    enabled: bool,
    threshold: Duration,
    /// `[class][hit]` latency histograms, nanoseconds.
    lat: [[Histogram; 2]; 5],
    slow: Ring<SlowQuery>,
}

impl Instruments {
    pub(crate) fn new(enabled: bool, threshold: Duration, slow_capacity: usize) -> Self {
        Instruments {
            enabled,
            threshold,
            lat: std::array::from_fn(|_| std::array::from_fn(|_| Histogram::new())),
            slow: Ring::new(slow_capacity),
        }
    }

    /// Start timing a request; `None` (and zero further cost) when
    /// metrics are disabled.
    pub(crate) fn begin(&self) -> Option<ReqTimer> {
        self.enabled.then(|| ReqTimer {
            start: Instant::now(),
            compiled_at: None,
        })
    }

    /// Finish a request: record its latency under `(class, hit)` and,
    /// past the slow threshold, log it with its trace detail (the
    /// member texts are joined only then).
    pub(crate) fn finish(
        &self,
        timer: Option<ReqTimer>,
        class: Class,
        hit: bool,
        queries: &[&str],
        fanout: usize,
        resumes: u64,
    ) {
        let Some(timer) = timer else { return };
        let total = timer.start.elapsed();
        self.lat[class as usize][usize::from(hit)].record_duration(total);
        if total >= self.threshold {
            let compile = timer
                .compiled_at
                .map_or(Duration::ZERO, |at| at.duration_since(timer.start));
            self.slow.push(SlowQuery {
                query: clip(&queries.join(" ; ")),
                class: class.name(),
                total_ns: as_nanos(total),
                compile_ns: as_nanos(compile),
                execute_ns: as_nanos(total.saturating_sub(compile)),
                fanout,
                resumes,
            });
        }
    }

    pub(crate) fn class_metrics(&self) -> Vec<ClassMetrics> {
        Class::ALL
            .iter()
            .map(|&c| ClassMetrics {
                class: c.name(),
                misses: self.lat[c as usize][0].snapshot(),
                hits: self.lat[c as usize][1].snapshot(),
            })
            .collect()
    }

    pub(crate) fn slow_snapshot(&self) -> Vec<SlowQuery> {
        self.slow.snapshot()
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }
}

fn as_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Bound slow-log query text (batches join many queries).
fn clip(q: &str) -> String {
    const MAX: usize = 256;
    if q.len() <= MAX {
        return q.to_string();
    }
    let cut = (1..=MAX)
        .rev()
        .find(|&i| q.is_char_boundary(i))
        .unwrap_or(0);
    format!("{}…", &q[..cut])
}

/// One slow-query log entry: a request whose total latency crossed the
/// configured threshold, with enough trace detail to see where the
/// time went without re-running it.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// The query text (batches: the joined texts, clipped).
    pub query: String,
    /// Request class (`eval` / `eval_page` / `count` / `eval_multi` /
    /// `hist`).
    pub class: &'static str,
    /// End-to-end latency, nanoseconds.
    pub total_ns: u64,
    /// Compile stage (parse + plan-cache) share of the total.
    pub compile_ns: u64,
    /// Execution share of the total (everything after compile).
    pub execute_ns: u64,
    /// Shard fan-out width: shards the request actually visited.
    pub fanout: usize,
    /// Checkpoints resumed by the request's sweep, cached or
    /// token-borne.
    pub resumes: u64,
}

/// Latency snapshots of one request class, split by cache outcome.
#[derive(Clone, Copy, Debug)]
pub struct ClassMetrics {
    /// Class name (`eval` / `eval_page` / `count` / `eval_multi` /
    /// `hist`).
    pub class: &'static str,
    /// Requests answered from a cache (or batch-deduplicated).
    pub hits: HistogramSnapshot,
    /// Requests that performed evaluation work.
    pub misses: HistogramSnapshot,
}

/// A JSON-renderable metrics snapshot: per-class latency percentiles
/// plus the retained slow-query log. The counter-level view stays on
/// [`ServiceStats`]; this is the latency-distribution side.
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Corpus generation at snapshot time.
    pub generation: u64,
    /// Total queries answered (all classes).
    pub queries: u64,
    /// Whether latency recording was enabled (when `false` the
    /// histograms are structurally present but empty).
    pub enabled: bool,
    /// Per-class latency snapshots, fixed order: eval, eval_page,
    /// count, eval_multi, hist.
    pub classes: Vec<ClassMetrics>,
    /// Counts (and fast histograms) answered straight from the
    /// aggregate tables — the O(index) fast path. Surfaced here (not
    /// only on [`ServiceStats`]) so `:metrics` and the server's
    /// `metrics` method make the fast path observable.
    pub count_fast: u64,
    /// Budgeted count-sweep calls served (`count_resume` /
    /// `count_token`).
    pub count_resumes: u64,
    /// Histogram requests served.
    pub hists: u64,
    /// The slow-query ring's retained entries, oldest first.
    pub slow_queries: Vec<SlowQuery>,
}

impl Metrics {
    /// Render the snapshot as a JSON object string (no external
    /// serializer under the offline-shim policy; strings go through
    /// [`lpath_obs::json::escape`]).
    pub fn to_json(&self) -> String {
        let hist = |h: &HistogramSnapshot| {
            format!(
                "{{\"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.1}}}",
                h.count, h.p50, h.p90, h.p99, h.max, h.mean()
            )
        };
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"generation\": {},\n", self.generation));
        s.push_str(&format!("  \"queries\": {},\n", self.queries));
        s.push_str(&format!("  \"enabled\": {},\n", self.enabled));
        s.push_str("  \"classes\": {\n");
        for (i, c) in self.classes.iter().enumerate() {
            s.push_str(&format!(
                "    \"{}\": {{\"hit\": {}, \"miss\": {}}}{}\n",
                c.class,
                hist(&c.hits),
                hist(&c.misses),
                if i + 1 < self.classes.len() { "," } else { "" }
            ));
        }
        s.push_str("  },\n");
        s.push_str(&format!(
            "  \"aggregation\": {{\"count_fast\": {}, \"count_resumes\": {}, \"hists\": {}}},\n",
            self.count_fast, self.count_resumes, self.hists
        ));
        s.push_str("  \"slow_queries\": [\n");
        for (i, q) in self.slow_queries.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"query\": \"{}\", \"class\": \"{}\", \"total_ns\": {}, \"compile_ns\": {}, \"execute_ns\": {}, \"fanout\": {}, \"resumes\": {}}}{}\n",
                json::escape(&q.query),
                q.class,
                q.total_ns,
                q.compile_ns,
                q.execute_ns,
                q.fanout,
                q.resumes,
                if i + 1 < self.slow_queries.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Per-shard build and size information.
#[derive(Clone, Debug)]
pub struct ShardStats {
    /// First global tree id owned by the shard.
    pub base: u32,
    /// Number of trees in the shard.
    pub trees: usize,
    /// Rows in the shard engine's node relation.
    pub relation_rows: usize,
    /// Wall-clock time of the shard's last (re)build.
    pub build_time: Duration,
}

/// A point-in-time snapshot of the service's state and counters.
#[derive(Clone, Debug)]
pub struct ServiceStats {
    /// Corpus generation (bumped by every append or swap).
    pub generation: u64,
    /// Number of shards.
    pub shards: usize,
    /// Worker threads used for fan-out.
    pub threads: usize,
    /// Total trees across all shards.
    pub trees: usize,
    /// Total node-relation rows across all shards.
    pub relation_rows: usize,
    /// Entries currently in the plan cache.
    pub plan_cache_entries: usize,
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses (compilations performed).
    pub plan_misses: u64,
    /// *Complete* entries (whole per-shard match sets) currently in
    /// the build-id-scoped per-shard row store.
    pub shard_result_cache_entries: usize,
    /// Entries of the same store still carrying a checkpoint
    /// (extendable per-shard prefixes).
    pub prefix_cache_entries: usize,
    /// Row-store probes answered, one per `(query, shard)` pair asked.
    pub result_hits: u64,
    /// Row-store probes the store could not answer.
    pub result_misses: u64,
    /// Count-store probes answered, one per `(query, shard)` pair asked.
    pub count_hits: u64,
    /// Count-store probes the store could not answer.
    pub count_misses: u64,
    /// Per-shard counts (and fast histograms) answered from the
    /// aggregate tables in O(index lookup): no cache probe, no cursor,
    /// no walker, no materialization.
    pub count_fast: u64,
    /// Budgeted count-sweep calls served
    /// ([`crate::Service::count_resume`] and
    /// [`crate::Service::count_token`]).
    pub count_resumes: u64,
    /// Histogram requests served ([`crate::Service::hist`]).
    pub hists: u64,
    /// Duplicate queries within one batch served from a sibling
    /// occurrence's evaluation (neither a cache hit nor a miss).
    pub batch_dedup: u64,
    /// Cache inserts rejected by the admission policy: the candidate
    /// lost to a fully hot-pinned resident set (see
    /// `crate::cache::GenCache::insert`). A sweep of distinct
    /// one-shot queries shows up here instead of as evictions.
    pub admission_rejects: u64,
    /// Queries answered (batch members count individually).
    pub queries: u64,
    /// Batch calls served.
    pub batches: u64,
    /// Paged evaluations served ([`crate::Service::eval_page`] and
    /// [`crate::Service::eval_page_token`], every outcome included).
    pub pages: u64,
    /// Shards never visited because a page filled before reaching them
    /// (the paging short-circuit at work).
    pub page_shards_skipped: u64,
    /// Budget-bounded shard enumerations started **from scratch**
    /// ([`crate::Shard::resume`] without a checkpoint): shards a page
    /// or count sweep entered with nothing to build on. In a page-1 →
    /// page-K sweep this stays at one per shard — every deeper page
    /// resumes instead (see [`ServiceStats::page_resumes`]).
    pub page_partial_evals: u64,
    /// Pages (partially) served from a cached per-shard result prefix
    /// without any new enumeration.
    pub page_prefix_hits: u64,
    /// Sweep steps that *resumed* a suspended checkpoint — a cached
    /// prefix extended by exactly the missing delta, or the position
    /// an echoed token carried: the no-re-enumeration signal of
    /// resumable paging and counting.
    pub page_resumes: u64,
    /// Per-shard evaluations actually executed.
    pub shard_evals: u64,
    /// Per-shard evaluations skipped by symbol-presence pruning.
    pub shards_pruned: u64,
    /// Requests answered by the static analyzer's constant-empty fast
    /// path: the query was proven empty at compile time, so no shard
    /// was visited and no cache entry was written.
    pub statically_empty: u64,
    /// Stale checkpoints encountered and recovered from: a suspended
    /// enumeration (cached prefix or echoed paging token) presented to
    /// a shard build it does not belong to — the service degraded to a
    /// fresh bounded evaluation instead of resuming. Nonzero values
    /// are expected operational events around appends and restarts,
    /// never errors.
    pub stale_checkpoints: u64,
    /// Serialized paging tokens minted ([`crate::Service::eval_page_token`]).
    pub tokens_minted: u64,
    /// Echoed paging tokens rejected as malformed (truncated,
    /// corrupted, version-skewed, or for a different query) — protocol
    /// errors, as opposed to the recoverable staleness above.
    pub tokens_rejected: u64,
    /// Incremental appends applied.
    pub appends: u64,
    /// Full corpus swaps applied.
    pub swaps: u64,
    /// Per-shard build/size detail.
    pub per_shard: Vec<ShardStats>,
}

impl ServiceStats {
    /// Fraction of compilations avoided by the plan cache.
    pub fn plan_hit_rate(&self) -> f64 {
        rate(self.plan_hits, self.plan_misses)
    }

    /// Fraction of row-store probes the store answered.
    pub fn result_hit_rate(&self) -> f64 {
        rate(self.result_hits, self.result_misses)
    }

    /// Fraction of count-store probes the store answered.
    pub fn count_hit_rate(&self) -> f64 {
        rate(self.count_hits, self.count_misses)
    }

    /// Fraction of per-shard evaluations avoided by symbol-presence
    /// pruning.
    pub fn prune_rate(&self) -> f64 {
        rate(self.shards_pruned, self.shard_evals)
    }
}

/// Hit fraction, defined as `0.0` (not NaN) when nothing was looked up
/// yet — a freshly built service must report a finite, serializable
/// rate.
fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_handle_zero_totals() {
        let s = ServiceStats {
            generation: 0,
            shards: 1,
            threads: 1,
            trees: 0,
            relation_rows: 0,
            plan_cache_entries: 0,
            plan_hits: 0,
            plan_misses: 0,
            shard_result_cache_entries: 0,
            prefix_cache_entries: 0,
            result_hits: 3,
            result_misses: 1,
            count_hits: 0,
            count_misses: 0,
            count_fast: 0,
            count_resumes: 0,
            hists: 0,
            batch_dedup: 0,
            admission_rejects: 0,
            queries: 0,
            batches: 0,
            pages: 0,
            page_shards_skipped: 0,
            page_partial_evals: 0,
            page_prefix_hits: 0,
            page_resumes: 0,
            shard_evals: 0,
            shards_pruned: 0,
            statically_empty: 0,
            stale_checkpoints: 0,
            tokens_minted: 0,
            tokens_rejected: 0,
            appends: 0,
            swaps: 0,
            per_shard: Vec::new(),
        };
        // Zero-lookup rates must be finite zeros, never NaN or a panic.
        assert_eq!(s.plan_hit_rate(), 0.0);
        assert_eq!(s.count_hit_rate(), 0.0);
        assert_eq!(s.prune_rate(), 0.0);
        assert!(s.plan_hit_rate().is_finite());
        assert!((s.result_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn disabled_instruments_record_nothing() {
        let instr = Instruments::new(false, Duration::ZERO, 4);
        let t = instr.begin();
        assert!(t.is_none());
        instr.finish(t, Class::Eval, false, &["//A"], 3, 0);
        assert!(instr
            .class_metrics()
            .iter()
            .all(|c| c.hits.count == 0 && c.misses.count == 0));
        assert!(instr.slow_snapshot().is_empty());
    }

    #[test]
    fn slow_queries_cross_the_threshold_with_stages() {
        let instr = Instruments::new(true, Duration::ZERO, 4);
        let mut t = instr.begin();
        if let Some(t) = t.as_mut() {
            t.mark_compiled();
        }
        instr.finish(t, Class::EvalPage, false, &["//VP//NP"], 2, 5);
        let slow = instr.slow_snapshot();
        assert_eq!(slow.len(), 1);
        let q = &slow[0];
        assert_eq!((q.class, q.fanout, q.resumes), ("eval_page", 2, 5));
        assert!(q.total_ns >= q.compile_ns);
        assert_eq!(q.total_ns, q.compile_ns + q.execute_ns);
        // And the latency landed in the eval_page miss histogram.
        let classes = instr.class_metrics();
        let page = classes.iter().find(|c| c.class == "eval_page").unwrap();
        assert_eq!(page.misses.count, 1);
        assert_eq!(page.hits.count, 0);
    }

    #[test]
    fn an_unreachable_threshold_logs_nothing() {
        let instr = Instruments::new(true, Duration::from_hours(1), 4);
        let t = instr.begin();
        instr.finish(t, Class::Count, true, &["//A"], 1, 0);
        assert!(instr.slow_snapshot().is_empty());
        let classes = instr.class_metrics();
        let count = classes.iter().find(|c| c.class == "count").unwrap();
        assert_eq!(count.hits.count, 1);
    }

    #[test]
    fn metrics_render_valid_shape() {
        let instr = Instruments::new(true, Duration::ZERO, 4);
        instr.finish(instr.begin(), Class::Eval, false, &["//A \"quoted\""], 4, 0);
        let m = Metrics {
            generation: 1,
            queries: 1,
            enabled: true,
            classes: instr.class_metrics(),
            count_fast: 2,
            count_resumes: 1,
            hists: 1,
            slow_queries: instr.slow_snapshot(),
        };
        let j = m.to_json();
        for key in [
            "\"generation\"",
            "\"classes\"",
            "\"eval\"",
            "\"eval_page\"",
            "\"count\"",
            "\"eval_multi\"",
            "\"hist\"",
            "\"aggregation\"",
            "\"count_fast\": 2",
            "\"p50_ns\"",
            "\"p90_ns\"",
            "\"p99_ns\"",
            "\"max_ns\"",
            "\"slow_queries\"",
            "\\\"quoted\\\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn clip_respects_char_boundaries() {
        let long = "ä".repeat(300);
        let clipped = clip(&long);
        assert!(clipped.len() <= 260);
        assert!(clipped.ends_with('…'));
        assert_eq!(clip("short"), "short");
    }
}
