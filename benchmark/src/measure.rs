//! From a run's raw observations to named metrics: the nine
//! end-to-end numbers and the per-layer numbers a window yields.

use std::collections::BTreeMap;

use lpath_service::ServiceStats;

use crate::drivers::{Class, Sample};
use crate::procfs;
use crate::stats;
use crate::trace::{self, SelfTimeTable};
use crate::workloads::{Run, Window};

/// One named measurement. `value` is `None` where the metric does not
/// apply to the workload (never a made-up 0); `unresolved` marks a
/// value that was measured on too few samples to be compared.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub samples: u64,
    pub unresolved: bool,
}

impl Metric {
    /// A metric that was not measured carries no samples.
    pub fn new(name: &str, unit: &'static str, value: Option<f64>, samples: u64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            samples: if value.is_some() { samples } else { 0 },
            unresolved: false,
        }
    }
}

/// A `(name, unit)` table: the schema of one group of metrics.
pub type Names = [(&'static str, &'static str)];

/// A metric of `table`, its unit looked up by name, so that a value
/// can never sit under the wrong name or unit.
pub fn named(table: &Names, name: &str, value: Option<f64>, samples: u64) -> Metric {
    let unit = table
        .iter()
        .find(|&&(n, _)| n == name)
        .unwrap_or_else(|| panic!("{name} is not in its name table"))
        .1;
    Metric::new(name, unit, value, samples)
}

/// The end-to-end metric names, in report order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("page1_p50_us", "us"),
    ("geomean_query_us", "us"),
    ("append_p50_ms", "ms"),
    ("error_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
];

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p50_us(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> (Option<f64>, u64) {
    let v: Vec<f64> = samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| us(s.latency_ns))
        .collect();
    (stats::percentile(&v, 50.0), v.len() as u64)
}

/// Geometric mean over query groups of each group's median latency:
/// the paper's log-scale view, in which a 1 µs lexical lookup weighs
/// as much as a 10 ms structural join.
fn geomean_query_us(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> (Option<f64>, u64) {
    let mut groups: BTreeMap<u16, Vec<f64>> = BTreeMap::new();
    for s in samples.iter().filter(|s| keep(s)) {
        groups.entry(s.group).or_default().push(us(s.latency_ns));
    }
    let medians: Vec<f64> = groups
        .values()
        .filter_map(|v| stats::percentile(v, 50.0))
        .collect();
    (stats::geomean(&medians), medians.len() as u64)
}

/// The nine end-to-end metrics of a run's untraced window.
pub fn end_to_end(run: &Run) -> Vec<Metric> {
    let w = run
        .untraced
        .as_ref()
        .expect("end-to-end metrics need an untraced window");
    let paper = run.spec.name == "paper_engine";
    let n = w.samples.len() as u64;
    let all = |_: &Sample| true;

    let p99 = stats::median_slice_p99(
        w.samples
            .iter()
            .map(|s| (s.done_ns as f64 / 1e9, us(s.latency_ns))),
        w.seconds,
        run.spec.slices,
    );
    let page1_class = if paper { Class::Limit } else { Class::Page1 };
    let (page1, page1_n) = p50_us(&w.samples, |s| s.class == page1_class);
    let (geomean, groups) = if paper {
        geomean_query_us(&w.samples, |s| s.class == Class::Full)
    } else {
        geomean_query_us(&w.samples, all)
    };
    let append_ms: Vec<f64> = w.appends.iter().map(|a| a.latency * 1e3).collect();

    let mut out = vec![
        Metric::new(
            "setup_s",
            "s",
            stats::median(&run.setup_s),
            run.setup_s.len() as u64,
        ),
        Metric::new("throughput_rps", "1/s", Some(n as f64 / w.seconds), n),
        Metric::new("latency_p50_us", "us", p50_us(&w.samples, all).0, n),
        Metric {
            unresolved: p99.is_some_and(|p| !p.resolved),
            ..Metric::new("latency_p99_us", "us", p99.map(|p| p.value), n)
        },
        Metric::new("page1_p50_us", "us", page1, page1_n),
        Metric::new("geomean_query_us", "us", geomean, groups),
        Metric::new(
            "append_p50_ms",
            "ms",
            stats::percentile(&append_ms, 50.0),
            append_ms.len() as u64,
        ),
        Metric::new(
            "error_rate",
            "ratio",
            Some(run.failed as f64 / run.attempted.max(1) as f64),
            run.attempted,
        ),
        Metric::new("peak_rss_mb", "MiB", procfs::peak_rss_mb(), 1),
    ];
    if run.unresolved.is_some() {
        for m in &mut out {
            m.unresolved = true;
        }
    }
    out
}

/// Names of the `Service::stats()` ratios and counts a window yields.
pub const SERVICE_WINDOW: [(&str, &str); 10] = [
    ("service.plan_hit_ratio", "ratio"),
    ("service.result_hit_ratio", "ratio"),
    ("service.prefix_hit_ratio", "ratio"),
    ("service.shard_evals_per_req", "ratio"),
    ("service.shards_pruned_ratio", "ratio"),
    ("service.page_resumes_per_req", "ratio"),
    ("service.admission_rejects", "count"),
    ("service.statically_empty_ratio", "ratio"),
    ("service.tokens_rejected", "count"),
    ("service.stale_checkpoints", "count"),
];

fn service_window(stats: Option<&(ServiceStats, ServiceStats)>) -> Vec<Metric> {
    let Some((a, b)) = stats else {
        return SERVICE_WINDOW
            .iter()
            .map(|&(name, unit)| Metric::new(name, unit, None, 0))
            .collect();
    };
    let d = |f: fn(&ServiceStats) -> u64| f(b) - f(a);
    let ratio = |name: &str, num: u64, den: u64| {
        let value = (den > 0).then(|| num as f64 / den as f64);
        named(&SERVICE_WINDOW, name, value, den)
    };
    let count = |name: &str, n: u64| named(&SERVICE_WINDOW, name, Some(n as f64), 1);
    let (queries, pages) = (d(|s| s.queries), d(|s| s.pages));
    let (evals, pruned) = (d(|s| s.shard_evals), d(|s| s.shards_pruned));
    let (plan_hits, result_hits) = (d(|s| s.plan_hits), d(|s| s.result_hits));
    vec![
        ratio(
            "service.plan_hit_ratio",
            plan_hits,
            plan_hits + d(|s| s.plan_misses),
        ),
        ratio(
            "service.result_hit_ratio",
            result_hits,
            result_hits + d(|s| s.result_misses),
        ),
        ratio("service.prefix_hit_ratio", d(|s| s.page_prefix_hits), pages),
        ratio("service.shard_evals_per_req", evals, queries),
        ratio("service.shards_pruned_ratio", pruned, pruned + evals),
        ratio("service.page_resumes_per_req", d(|s| s.page_resumes), pages),
        count("service.admission_rejects", d(|s| s.admission_rejects)),
        ratio(
            "service.statically_empty_ratio",
            d(|s| s.statically_empty),
            queries,
        ),
        count("service.tokens_rejected", d(|s| s.tokens_rejected)),
        count("service.stale_checkpoints", d(|s| s.stale_checkpoints)),
    ]
}

/// Span names that can appear under a request's root span; each gets
/// a `self.*_us` metric (the root's own self time is 0 by construction:
/// its children tile it).
pub const SPAN_NAMES: [&str; 11] = [
    "client.encode",
    "socket.rtt",
    "client.decode",
    "obs.json_parse",
    "service.compile",
    "service.call",
    "syntax.parse",
    "check.analyze",
    "relstore.plan",
    "model.ptb_parse",
    "core.query",
];

/// Names of the other per-layer metrics a window yields.
pub const WINDOW_LAYERS: [(&str, &str); 13] = [
    ("server.edge_overhead_us", "us"),
    ("server.request_bytes", "B"),
    ("server.response_bytes", "B"),
    ("proc.cpu_util", "ratio"),
    ("proc.ctx_switches_per_req", "ratio"),
    ("client.encode_us", "us"),
    ("client.decode_us", "us"),
    ("harness.generate_s", "s"),
    ("harness.verify_s", "s"),
    ("harness.sched_lag_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
    ("trace.root_p50_us", "us"),
    ("trace.closure_pct", "%"),
];

/// The per-layer metrics of a run's traced window: service counter
/// ratios, process and client costs, and the self-time table. The
/// untraced window, when there is one, is the baseline of
/// `harness.trace_overhead_pct`.
pub fn window_layers(run: &Run) -> (Vec<Metric>, Option<SelfTimeTable>) {
    let w = run
        .traced
        .as_ref()
        .expect("per-layer metrics need a traced window");
    let socket = w.service.is_some();
    let n = w.samples.len() as u64;
    let mean = |f: fn(&Sample) -> u32| {
        (socket && n > 0).then(|| w.samples.iter().map(|s| f64::from(f(s))).sum::<f64>() / n as f64)
    };
    let p50_of = |f: fn(&Sample) -> u32| {
        let v: Vec<f64> = w.samples.iter().map(|s| f64::from(f(s)) / 1e3).collect();
        stats::percentile(&v, 50.0).filter(|_| socket)
    };
    let table = trace::self_time_table(&w.spans);
    let self_p50 = |name: &str| {
        table
            .as_ref()
            .and_then(|t| t.rows.iter().find(|r| r.name == name))
            .map(|r| (r.self_p50_us, r.spans as u64))
    };
    let rate = |w: &Window| w.samples.len() as f64 / w.seconds;
    let overhead = run
        .untraced
        .as_ref()
        .map(|base| (rate(base) - rate(w)) / rate(base) * 100.0);
    let lag_ms: Vec<f64> = w.appends.iter().map(|a| a.lateness * 1e3).collect();
    let append_ms: Vec<f64> = w.appends.iter().map(|a| a.latency * 1e3).collect();
    let cpu = w.usage.1.cpu_s - w.usage.0.cpu_s;
    let switches = w.usage.1.voluntary_switches - w.usage.0.voluntary_switches;
    let requests = table.as_ref().map_or(0, |t| t.requests as u64);

    let mut out = service_window(w.service.as_deref());
    let mut put = |name: &str, value: Option<f64>, samples: u64| {
        out.push(named(&WINDOW_LAYERS, name, value, samples));
    };
    let (edge, edge_n) = self_p50("socket.rtt").unzip();
    put("server.edge_overhead_us", edge, edge_n.unwrap_or(0));
    put("server.request_bytes", mean(|s| s.request_bytes), n);
    put("server.response_bytes", mean(|s| s.response_bytes), n);
    put(
        "proc.cpu_util",
        Some(cpu / w.seconds / procfs::nproc() as f64),
        1,
    );
    put(
        "proc.ctx_switches_per_req",
        (w.attempted > 0).then(|| switches as f64 / w.attempted as f64),
        w.attempted,
    );
    put("client.encode_us", p50_of(|s| s.encode_ns), n);
    put("client.decode_us", p50_of(|s| s.decode_ns), n);
    put("harness.generate_s", Some(run.generate_s), 1);
    put("harness.verify_s", Some(run.verify_s), 1);
    put(
        "harness.sched_lag_ms",
        stats::percentile(&lag_ms, 50.0),
        lag_ms.len() as u64,
    );
    put("harness.trace_overhead_pct", overhead, n);
    put(
        "trace.root_p50_us",
        table.as_ref().map(|t| t.root_p50_us),
        requests,
    );
    put(
        "trace.closure_pct",
        table.as_ref().map(|t| t.closure_us / t.root_p50_us * 100.0),
        requests,
    );
    out.push(Metric::new(
        "append_p50_ms",
        "ms",
        stats::percentile(&append_ms, 50.0),
        append_ms.len() as u64,
    ));
    out.extend(SPAN_NAMES.iter().map(|name| {
        let (value, n) = self_p50(name).unzip();
        Metric::new(&format!("self.{name}_us"), "us", value, n.unwrap_or(0))
    }));
    (out, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(class: Class, group: u16, done_s: f64, latency_us: u64) -> Sample {
        Sample {
            class,
            group,
            done_ns: (done_s * 1e9) as u64,
            latency_ns: latency_us * 1000,
            encode_ns: 2_000,
            decode_ns: 4_000,
            request_bytes: 80,
            response_bytes: 400,
        }
    }

    #[test]
    fn geomean_takes_group_medians_first() {
        let samples = vec![
            sample(Class::Full, 0, 0.1, 1),
            sample(Class::Full, 0, 0.2, 1),
            sample(Class::Full, 0, 0.3, 900), // outlier: median stays 1
            sample(Class::Full, 1, 0.4, 10_000),
            sample(Class::Limit, 2, 0.5, 5), // filtered out
        ];
        let (g, groups) = geomean_query_us(&samples, |s| s.class == Class::Full);
        assert_eq!(groups, 2);
        assert!((g.unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(geomean_query_us(&[], |_| true), (None, 0));
    }

    #[test]
    fn service_ratios_are_null_when_nothing_was_counted() {
        let none = service_window(None);
        assert_eq!(none.len(), SERVICE_WINDOW.len());
        assert!(none.iter().all(|m| m.value.is_none()));
    }
}
