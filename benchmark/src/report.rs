//! What the benchmark writes and reads back: the per-invocation
//! detail document, the result line the driver parses, the schema
//! check both must pass, and `compare`.

use std::fmt::Write as _;

use lpath_obs::json::{self, Value};

use crate::measure::{Metric, END_TO_END, SERVICE_WINDOW, SPAN_NAMES, WINDOW_LAYERS};
use crate::probes::PROBES;
use crate::trace::{SelfTimeTable, Span};

/// A prediction about how the workloads separate the layers, checked
/// by the run itself.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// One invocation's full result: one workload, traced or not.
pub struct Detail {
    pub workload: &'static str,
    pub why: &'static str,
    pub seed: u64,
    pub scale: &'static str,
    pub seconds: f64,
    pub traced: bool,
    pub clients: usize,
    pub nproc: usize,
    pub fingerprint: u64,
    pub attempted: u64,
    pub failed: u64,
    pub unresolved: Option<String>,
    pub metrics: Vec<Metric>,
    pub self_time: Option<SelfTimeTable>,
    /// The replayed requests' spans (written to `trace.json`, not into
    /// the detail document).
    pub spans: Vec<Span>,
    pub checks: Vec<Check>,
    pub errors: Vec<String>,
}

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let fixed = PROBES
        .iter()
        .chain(&SERVICE_WINDOW)
        .chain(&WINDOW_LAYERS)
        .chain(&[("append_p50_ms", "ms")])
        .map(|&(name, unit)| (name.to_string(), unit));
    let spans = SPAN_NAMES
        .iter()
        .map(|name| (format!("self.{name}_us"), "us"));
    fixed.chain(spans).collect()
}

/// End-to-end metrics the driver line omits: one is `null` on three
/// workloads and the other is 0 on every healthy run, and the
/// driver's format allows neither. `compare` still bounds them.
const NOT_ON_DRIVER_LINE: [&str; 2] = ["append_p50_ms", "error_rate"];

/// Does `metric` mean anything on `workload`? Where it does not, the
/// report must say `null`.
pub fn applies(workload: &str, metric: &str) -> bool {
    let socket = workload != "paper_engine";
    let ingest = workload == "ingest_mixed";
    match metric {
        "append_p50_ms" | "harness.sched_lag_ms" | "self.model.ptb_parse_us" => ingest,
        "self.core.query_us" => !socket,
        "self.syntax.parse_us" | "self.check.analyze_us" | "self.relstore.plan_us" => true,
        m if m.starts_with("self.") => socket,
        m if SERVICE_WINDOW.iter().any(|&(name, _)| name == m) => socket,
        "server.edge_overhead_us"
        | "server.request_bytes"
        | "server.response_bytes"
        | "client.encode_us"
        | "client.decode_us" => socket,
        _ => true,
    }
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Schema check of one invocation's metrics. Returns every violation.
pub fn validate(workload: &str, traced: bool, metrics: &[Metric]) -> Vec<String> {
    let mut problems = Vec::new();
    let expected: Vec<String> = if traced {
        per_layer_names().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|&(n, _)| n.to_string()).collect()
    };
    for name in &expected {
        if metrics.iter().filter(|m| m.name == *name).count() != 1 {
            problems.push(format!("metric {name} must appear exactly once"));
        }
    }
    for m in metrics {
        if !name_ok(&m.name) {
            problems.push(format!(
                "metric name {:?} is outside [A-Za-z0-9_.-]",
                m.name
            ));
        }
        if !expected.contains(&m.name) {
            problems.push(format!("metric {} is not in the schema", m.name));
        }
        match m.value {
            Some(v) if !v.is_finite() => problems.push(format!("{} is not finite", m.name)),
            Some(v) if !applies(workload, &m.name) => problems.push(format!(
                "{} does not apply to {workload}: must be null, is {v}",
                m.name
            )),
            None if !traced && applies(workload, &m.name) => {
                problems.push(format!("{} was not measured", m.name));
            }
            _ => {}
        }
    }
    problems
}

fn number(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |v| format!("{v}"))
}

fn quoted(s: &str) -> String {
    format!("\"{}\"", json::escape(s))
}

impl Detail {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of standard output: the object the driver reads.
    /// Its format has no `null`, so a metric that does not apply to
    /// this workload reads 0 here (and `null` in the detail document).
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !NOT_ON_DRIVER_LINE.contains(&m.name.as_str()) || self.traced)
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quoted(&m.name),
                    number(Some(m.value.unwrap_or(0.0))),
                    quoted(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit and sample count, then the
    /// self-time table and the checks: the human-readable view.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} (seed {}, {} s, trace {}, {} clients, scale {}) ==\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.clients,
            self.scale
        );
        for m in &self.metrics {
            let value = m
                .value
                .map_or_else(|| "null".to_string(), |v| format!("{v:.4}"));
            let flag = if m.unresolved { "  UNRESOLVED" } else { "" };
            let _ = writeln!(
                out,
                "{:<36} {:>16} {:<6} n={}{flag}",
                m.name, value, m.unit, m.samples
            );
        }
        if let Some(t) = &self.self_time {
            let _ = writeln!(
                out,
                "-- self time per span, {} replayed requests, root p50 {:.1} us, \
                 sum of span p50s {:.1} us --",
                t.requests, t.root_p50_us, t.closure_us
            );
            for r in &t.rows {
                let _ = writeln!(
                    out,
                    "{:<36} p50 {:>10.2} us  mean {:>10.2} us  n={}",
                    r.name, r.self_p50_us, r.self_mean_us, r.spans
                );
            }
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok  " } else { "FAIL" };
            let _ = writeln!(out, "check {verdict} {}: {}", c.name, c.detail);
        }
        for e in self.errors.iter().take(10) {
            let _ = writeln!(out, "error: {e}");
        }
        out
    }

    /// The detail document, one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": {},", quoted(self.workload));
        let _ = writeln!(out, "  \"why\": {},", quoted(self.why));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"scale\": {},", quoted(self.scale));
        let _ = writeln!(out, "  \"seconds\": {},", self.seconds);
        let _ = writeln!(out, "  \"traced\": {},", self.traced);
        let _ = writeln!(out, "  \"clients\": {},", self.clients);
        let _ = writeln!(out, "  \"nproc\": {},", self.nproc);
        let _ = writeln!(out, "  \"fingerprint\": \"{:016x}\",", self.fingerprint);
        let _ = writeln!(out, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(out, "  \"failed\": {},", self.failed);
        let _ = writeln!(
            out,
            "  \"unresolved\": {},",
            self.unresolved
                .as_deref()
                .map_or_else(|| "null".into(), quoted)
        );
        out.push_str("  \"metrics\": [\n");
        let rows: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"value\": {}, \"samples\": {}, \
                     \"unresolved\": {}}}",
                    quoted(&m.name),
                    quoted(m.unit),
                    number(m.value),
                    m.samples,
                    m.unresolved
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"self_time\": [\n");
        let rows: Vec<String> = self
            .self_time
            .iter()
            .flat_map(|t| &t.rows)
            .map(|r| {
                format!(
                    "    {{\"span\": {}, \"spans\": {}, \"self_p50_us\": {}, \"self_mean_us\": {}}}",
                    quoted(r.name),
                    r.spans,
                    r.self_p50_us,
                    r.self_mean_us
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"checks\": [\n");
        let rows: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "    {{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                    quoted(c.name),
                    c.ok,
                    quoted(&c.detail)
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        let errors: Vec<String> = self.errors.iter().take(10).map(|e| quoted(e)).collect();
        let _ = write!(out, "\n  ],\n  \"errors\": [{}]\n}}", errors.join(", "));
        out
    }
}

// ---------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------

/// How far a metric may move the wrong way before `compare` calls it
/// a regression.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the baseline; for `error_rate` an absolute 0.
    pub share: f64,
}

/// Bounds of the two end-to-end metrics `BENCHMARK.json` cannot hold
/// (see [`NOT_ON_DRIVER_LINE`]).
fn extra_bounds() -> [Bound; 2] {
    [
        Bound {
            name: "append_p50_ms".into(),
            higher_is_better: false,
            share: 0.25,
        },
        Bound {
            name: "error_rate".into(),
            higher_is_better: false,
            share: 0.0,
        },
    ]
}

/// Read the end-to-end bounds out of a `BENCHMARK.json` document.
pub fn bounds_of(benchmark_json: &Value) -> Result<Vec<Bound>, String> {
    let mut bounds: Vec<Bound> = benchmark_json
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                share: match m.get("bound")? {
                    Value::Num(b) => *b,
                    _ => return None,
                },
            })
        })
        .collect::<Option<_>>()
        .ok_or("malformed end_to_end entry in BENCHMARK.json")?;
    bounds.extend(extra_bounds());
    Ok(bounds)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// One workload × metric row of a comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: Option<f64>,
    pub new: Option<f64>,
    /// Relative change in the bad direction (positive = worse).
    pub worse_by: Option<f64>,
    pub verdict: Verdict,
}

/// A metric as read back from a report: value and whether it may be
/// compared.
fn read_metric(detail: &Value, name: &str) -> Option<(Option<f64>, bool)> {
    let m = detail
        .get("metrics")?
        .as_arr()?
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))?;
    let value = match m.get("value")? {
        Value::Num(v) => Some(*v),
        _ => None,
    };
    Some((value, m.get("unresolved")?.as_bool()?))
}

fn judge(bound: &Bound, base: f64, new: f64) -> (f64, Verdict) {
    if bound.name == "error_rate" {
        let verdict = if new > base {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        return (new - base, verdict);
    }
    let worse_by = if bound.higher_is_better {
        (base - new) / base
    } else {
        (new - base) / base
    };
    let verdict = if worse_by > bound.share {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compare two reports' end-to-end sections, one row per workload and
/// bounded metric. A pair is `Unresolved` when either side flagged it
/// or only one side measured it, and skipped when neither did.
pub fn compare(base: &Value, new: &Value, bounds: &[Bound]) -> Result<Vec<Row>, String> {
    let workloads = |report: &Value| -> Result<Vec<(String, Value)>, String> {
        report
            .get("workloads")
            .and_then(Value::as_arr)
            .ok_or("report has no workloads")?
            .iter()
            .map(|w| {
                let name = w.get("name").and_then(Value::as_str)?;
                Some((name.to_string(), w.get("end_to_end")?.clone()))
            })
            .collect::<Option<_>>()
            .ok_or_else(|| "malformed workload entry".to_string())
    };
    let (base, new) = (workloads(base)?, workloads(new)?);
    let mut rows = Vec::new();
    for (workload, base_detail) in &base {
        let new_detail = new
            .iter()
            .find(|(name, _)| name == workload)
            .map(|(_, d)| d)
            .ok_or_else(|| format!("second report lacks workload {workload}"))?;
        for bound in bounds {
            let read = |d: &Value| {
                read_metric(d, &bound.name)
                    .ok_or_else(|| format!("{workload} lacks metric {}", bound.name))
            };
            let ((a, a_flag), (b, b_flag)) = (read(base_detail)?, read(new_detail)?);
            let (worse_by, verdict) = match (a, b) {
                (None, None) => continue,
                (Some(a), Some(b)) if !a_flag && !b_flag => {
                    let (w, v) = judge(bound, a, b);
                    (Some(w), v)
                }
                _ => (None, Verdict::Unresolved),
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: bound.name.clone(),
                base: a,
                new: b,
                worse_by,
                verdict,
            });
        }
    }
    Ok(rows)
}

pub fn render_rows(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<18} {:>14} {:>14} {:>9}  verdict\n",
        "workload", "metric", "base", "new", "worse by"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<18} {:>14} {:>14} {:>9}  {}",
            r.workload,
            r.metric,
            r.base
                .map_or_else(|| "null".to_string(), |v| format!("{v:.3}")),
            r.new
                .map_or_else(|| "null".to_string(), |v| format!("{v:.3}")),
            r.worse_by
                .map_or_else(|| "-".to_string(), |w| format!("{:+.2}%", w * 100.0)),
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "regressed",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e2e(workload: &str) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = applies(workload, name).then_some(if name == "error_rate" {
                    0.0
                } else {
                    12.5
                });
                Metric::new(name, unit, value, 100)
            })
            .collect()
    }

    #[test]
    fn validator_accepts_a_complete_report() {
        for w in ["paper_engine", "browse_hot", "explore_cold", "ingest_mixed"] {
            assert_eq!(validate(w, false, &e2e(w)), Vec::<String>::new());
        }
        let layers: Vec<Metric> = per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let value = applies("browse_hot", &name).then_some(1.0);
                Metric::new(&name, unit, value, 1)
            })
            .collect();
        assert_eq!(validate("browse_hot", true, &layers), Vec::<String>::new());
    }

    #[test]
    fn validator_rejects_each_kind_of_damage() {
        let broken = |f: fn(&mut Vec<Metric>)| {
            let mut m = e2e("browse_hot");
            f(&mut m);
            validate("browse_hot", false, &m)
        };
        let missing = broken(|m| {
            m.retain(|x| x.name != "latency_p99_us");
        });
        assert!(missing.iter().any(|p| p.contains("latency_p99_us")));
        let not_finite = broken(|m| m[2].value = Some(f64::NAN));
        assert!(not_finite.iter().any(|p| p.contains("not finite")));
        let infinite = broken(|m| m[2].value = Some(f64::INFINITY));
        assert!(infinite.iter().any(|p| p.contains("not finite")));
        let bad_name = broken(|m| m.push(Metric::new("p99 (us)", "us", Some(1.0), 1)));
        assert!(bad_name.iter().any(|p| p.contains("outside")));
        let zero_for_null = broken(|m| {
            let append = m.iter_mut().find(|x| x.name == "append_p50_ms").unwrap();
            append.value = Some(0.0);
        });
        assert!(zero_for_null.iter().any(|p| p.contains("must be null")));
        let unmeasured = broken(|m| m[1].value = None);
        assert!(unmeasured.iter().any(|p| p.contains("not measured")));
        let twice = broken(|m| m.push(m[0].clone()));
        assert!(twice.iter().any(|p| p.contains("exactly once")));
    }

    fn detail(workload: &'static str, metrics: Vec<Metric>) -> Detail {
        Detail {
            workload,
            why: "because \"quotes\" happen",
            seed: 7,
            scale: "smoke",
            seconds: 1.0,
            traced: false,
            clients: 2,
            nproc: 2,
            fingerprint: 0xABCD,
            attempted: 10,
            failed: 0,
            unresolved: None,
            metrics,
            self_time: None,
            spans: Vec::new(),
            checks: vec![Check {
                name: "demo",
                ok: true,
                detail: "fine".into(),
            }],
            errors: vec![],
        }
    }

    fn report(details: &[Detail]) -> Value {
        let workloads: Vec<String> = details
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"end_to_end\": {}}}",
                    d.workload,
                    d.to_json()
                )
            })
            .collect();
        json::parse(&format!(
            "{{\"workloads\": [{}], \"claim\": null}}",
            workloads.join(", ")
        ))
        .unwrap()
    }

    #[test]
    fn detail_json_and_driver_line_parse_back() {
        let d = detail("ingest_mixed", e2e("ingest_mixed"));
        let doc = json::parse(&d.to_json()).unwrap();
        assert_eq!(doc.get("workload").unwrap().as_str(), Some("ingest_mixed"));
        assert_eq!(read_metric(&doc, "setup_s"), Some((Some(12.5), false)));
        let line = json::parse(&d.driver_line()).unwrap();
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        let metrics = line.get("metrics").unwrap();
        assert!(metrics.get("throughput_rps").is_some());
        assert!(
            metrics.get("error_rate").is_none(),
            "kept off the driver line"
        );
        assert!(metrics.get("append_p50_ms").is_none());
        // A null reads 0 on the driver line, null in the document.
        let d = detail("browse_hot", e2e("browse_hot"));
        let doc = json::parse(&d.to_json()).unwrap();
        assert_eq!(read_metric(&doc, "append_p50_ms"), Some((None, false)));
    }

    fn bounds() -> Vec<Bound> {
        let doc = json::parse(
            r#"{"end_to_end": [
                {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "latency_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        bounds_of(&doc).unwrap()
    }

    #[test]
    fn compare_applies_direction_and_bound_per_metric() {
        let set = |name: &str, v: Option<f64>, flag: bool| {
            let mut m = e2e("ingest_mixed");
            let x = m.iter_mut().find(|x| x.name == name).unwrap();
            x.value = v;
            x.unresolved = flag;
            report(&[detail("ingest_mixed", m)])
        };
        let base = report(&[detail("ingest_mixed", e2e("ingest_mixed"))]);
        let verdict = |new: &Value, metric: &str| {
            compare(&base, new, &bounds())
                .unwrap()
                .into_iter()
                .find(|r| r.metric == metric)
                .unwrap()
                .verdict
        };
        // Same numbers: everything ok, four bounded metrics.
        assert_eq!(compare(&base, &base, &bounds()).unwrap().len(), 4);
        assert_eq!(verdict(&base, "throughput_rps"), Verdict::Ok);
        // Throughput is better when higher: −20 % regresses, +20 % not.
        let slower = set("throughput_rps", Some(10.0), false);
        assert_eq!(verdict(&slower, "throughput_rps"), Verdict::Regressed);
        assert_eq!(
            verdict(&set("throughput_rps", Some(15.0), false), "throughput_rps"),
            Verdict::Ok
        );
        // Latency is better when lower; 9 % worse is inside the bound.
        assert_eq!(
            verdict(&set("latency_p50_us", Some(13.6), false), "latency_p50_us"),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&set("latency_p50_us", Some(14.0), false), "latency_p50_us"),
            Verdict::Regressed
        );
        // Any new error regresses; a flagged or half-missing pair is unresolved.
        assert_eq!(
            verdict(&set("error_rate", Some(0.001), false), "error_rate"),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&set("latency_p50_us", Some(12.5), true), "latency_p50_us"),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&set("append_p50_ms", None, false), "append_p50_ms"),
            Verdict::Unresolved
        );
        // Null on both sides is not a row at all.
        let hot = report(&[detail("browse_hot", e2e("browse_hot"))]);
        let rows = compare(&hot, &hot, &bounds()).unwrap();
        assert!(rows.iter().all(|r| r.metric != "append_p50_ms"));
        assert!(render_rows(&rows).contains("browse_hot"));
    }
}
