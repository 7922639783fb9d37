//! The repo's one benchmark. See `README.md` beside `Cargo.toml` for
//! the metric glossary and how to run, compare and repeat.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--detail <file>]
//!           (--detail writes the full document, and with --trace 1 the spans beside it)
//! benchmark run     [--seed <n>] [--seconds <s>] [--smoke] [--out <dir>]
//! benchmark repeat  [--sets <k>] [--seed <n>] [--seconds <s>] [--smoke] [--out <dir>]
//! benchmark compare <a.json> <b.json> [--bounds <BENCHMARK.json>]
//! ```

#![forbid(unsafe_code)]

mod drivers;
mod fixture;
mod measure;
mod oracle;
mod probes;
mod procfs;
mod report;
mod seeded;
mod stats;
mod streams;
mod trace;
mod wire;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use report::{Check, Detail, Verdict};
use workloads::{Scale, Spec, SPECS};

/// Length of the timed window when none is given: `run_seconds` of
/// `BENCHMARK.json`, so a local report measures what the driver does.
const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 20_060_403;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Options::parse(&args[1..]).and_then(|o| run_all(&o).map(|(_, ok)| ok)),
        Some("repeat") => Options::parse(&args[1..]).and_then(|o| repeat(&o)),
        Some("compare") => compare_files(&args[1..]),
        _ => Options::parse(&args).and_then(|o| single(&o)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(usage) => {
            eprintln!("benchmark: {usage}");
            ExitCode::from(2)
        }
    }
}

struct Options {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
    sets: usize,
    detail: Option<PathBuf>,
    out: PathBuf,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            traced: false,
            scale: Scale::FULL,
            sets: 2,
            detail: None,
            out: PathBuf::from("benchmark/out"),
        };
        let mut seconds_given = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            let bad = |v: &str| format!("{flag} cannot be {v:?}");
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    o.workload = Some(
                        SPECS
                            .iter()
                            .find(|s| s.name == v)
                            .ok_or_else(|| format!("no workload named {v:?}"))?,
                    );
                }
                "--seed" => o.seed = value()?.parse().map_err(|_| bad("that"))?,
                "--seconds" => {
                    let v = value()?;
                    o.seconds = v.parse().ok().filter(|s| *s >= 1.0).ok_or_else(|| bad(v))?;
                    seconds_given = true;
                }
                "--trace" => {
                    o.traced = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(bad(v)),
                    }
                }
                "--sets" => {
                    let v = value()?;
                    o.sets = v.parse().ok().filter(|k| *k >= 2).ok_or_else(|| bad(v))?;
                }
                "--smoke" => o.scale = Scale::SMOKE,
                "--detail" => o.detail = Some(PathBuf::from(value()?)),
                "--out" => o.out = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if o.scale.wsj == Scale::SMOKE.wsj && !seconds_given {
            o.seconds = 1.0;
        }
        Ok(o)
    }
}

/// Measure one workload once and report it: the metric table, then
/// (last line) the object the driver parses. Untraced runs measure
/// the end-to-end metrics over the whole window; traced runs spend a
/// quarter of it on an untraced baseline, a quarter traced, and the
/// rest on replay and the layer probes.
fn measure_one(spec: &'static Spec, o: &Options) -> Detail {
    let mut run = if o.traced {
        let part = (o.seconds / 4.0).max(1.0);
        // `setup_s` is an end-to-end metric: one set-up is enough here.
        let scale = Scale {
            setup_reps: 1,
            ..o.scale
        };
        workloads::run(spec, o.seed, &scale, Some(part), Some(part))
    } else {
        workloads::run(spec, o.seed, &o.scale, Some(o.seconds), None)
    };
    let (metrics, self_time) = if o.traced {
        let (mut layers, table) = measure::window_layers(&run);
        let mut metrics = probes::run(o.seed, &o.scale);
        metrics.append(&mut layers);
        (metrics, table)
    } else {
        (measure::end_to_end(&run), None)
    };
    let mut detail = Detail {
        workload: spec.name,
        why: spec.why,
        seed: o.seed,
        scale: o.scale.name,
        seconds: o.seconds,
        traced: o.traced,
        clients: workloads::clients(),
        nproc: procfs::nproc(),
        fingerprint: run.fingerprint,
        attempted: run.attempted,
        failed: run.failed,
        unresolved: run.unresolved.take(),
        checks: Vec::new(),
        metrics,
        self_time,
        spans: run
            .traced
            .as_mut()
            .map(|w| std::mem::take(&mut w.spans))
            .unwrap_or_default(),
        errors: std::mem::take(&mut run.errors),
    };
    detail.checks = layer_checks(&detail);
    for problem in report::validate(spec.name, o.traced, &detail.metrics) {
        detail.failed += 1;
        detail.errors.push(format!("schema: {problem}"));
    }
    detail
}

/// The predictions about which workload exercises which layer, checked
/// on the traced run's own numbers. A failed prediction is reported,
/// not hidden: it means the workloads no longer separate the layers
/// the way the README says.
fn layer_checks(d: &Detail) -> Vec<Check> {
    if !d.traced {
        return Vec::new();
    }
    let get = |name: &str| {
        d.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    };
    let check = |name: &'static str, metric: &str, holds: fn(f64) -> bool, want: &str| {
        let value = get(metric);
        Check {
            name,
            ok: value.is_some_and(holds),
            detail: format!("{metric} = {value:?}, want {want}"),
        }
    };
    match d.workload {
        "browse_hot" => vec![
            check(
                "engine_idle",
                "service.shard_evals_per_req",
                |v| v < 0.01,
                "< 0.01",
            ),
            check(
                "plans_cached",
                "service.plan_hit_ratio",
                |v| v >= 0.99,
                ">= 0.99",
            ),
        ],
        "explore_cold" => {
            let edge = get("server.edge_overhead_us");
            let root = get("trace.root_p50_us");
            vec![
                check("plans_missed", "service.plan_hit_ratio", |v| v <= 0.05, "<= 0.05"),
                Check {
                    name: "edge_is_minor",
                    ok: edge.zip(root).is_some_and(|(e, r)| e < 0.10 * r),
                    detail: format!(
                        "server.edge_overhead_us = {edge:?}, want < 10 % of the request p50 {root:?}"
                    ),
                },
            ]
        }
        "ingest_mixed" => vec![check(
            "writer_on_schedule",
            "harness.sched_lag_ms",
            |v| v < 50.0,
            "p50 < 50 ms",
        )],
        _ => Vec::new(),
    }
}

/// The driver's form: one workload, one line of JSON last.
fn single(o: &Options) -> Result<bool, String> {
    let spec = o
        .workload
        .ok_or("--workload is required (or: run | repeat | compare)")?;
    let detail = measure_one(spec, o);
    if let Some(path) = &o.detail {
        let write = |path: &Path, text: String| {
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
        };
        write(path, detail.to_json())?;
        if o.traced {
            let spans = trace::to_json(spec.name, &detail.spans);
            write(&path.with_extension("trace.json"), spans)?;
        }
    }
    print!("{}", detail.table());
    println!("{}", detail.driver_line());
    Ok(detail.correct())
}

/// Run every workload, untraced then traced, each in a process of its
/// own (as the driver does, so peak memory and heap state are per
/// workload), and collect the detail documents into one report.
/// Returns the report's path and whether every answer was correct.
fn run_all(o: &Options) -> Result<(PathBuf, bool), String> {
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let env = procfs::Environment::detect();
    let mut all_correct = true;
    let mut sections = Vec::new();
    for spec in &SPECS {
        let mut parts = Vec::new();
        for (traced, label) in [(false, "end_to_end"), (true, "per_layer")] {
            let detail = o.out.join(format!("{}.{label}.json", spec.name));
            let mut child = Command::new(&exe);
            child
                .args(["--workload", spec.name])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--detail")
                .arg(&detail);
            if o.scale.wsj == Scale::SMOKE.wsj {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&detail)
                .map_err(|e| format!("{} wrote no detail: {e}", spec.name))?;
            parts.push(format!("\"{label}\": {}", text.replace('\n', "\n    ")));
        }
        sections.push(format!(
            "    {{\n    \"name\": \"{}\",\n    {}\n    }}",
            spec.name,
            parts.join(",\n    ")
        ));
    }
    // `ingest_mixed` needs a core each for its reader and its writer.
    let unresolved = env.nproc < 2;
    let report = format!(
        "{{\n  \"schema\": \"lpath-benchmark/1\",\n  \"environment\": {{\"nproc\": {}, \
         \"cpu_model\": \"{}\", \"kernel\": \"{}\", \"rustc\": \"{}\", \"git_commit\": \"{}\"}},\n  \
         \"seed\": {},\n  \"scale\": \"{}\",\n  \"seconds\": {},\n  \"clients\": {},\n  \
         \"unresolved\": {unresolved},\n  \"workloads\": [\n{}\n  ],\n  \"claim\": null\n}}\n",
        env.nproc,
        lpath_obs::json::escape(&env.cpu_model),
        lpath_obs::json::escape(&env.kernel),
        lpath_obs::json::escape(&env.rustc),
        lpath_obs::json::escape(&env.git_commit),
        o.seed,
        o.scale.name,
        o.seconds,
        workloads::clients(),
        sections.join(",\n")
    );
    lpath_obs::json::parse(&report).map_err(|e| format!("report is not JSON: {e}"))?;
    let path = o.out.join(format!("report-seed{}.json", o.seed));
    std::fs::write(&path, report).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("report: {}", path.display());
    Ok((path, all_correct))
}

fn load(path: &Path) -> Result<lpath_obs::json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    lpath_obs::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `compare a.json b.json`: one row per workload and bounded metric;
/// false (exit 1) when any pair regressed.
fn compare_files(args: &[String]) -> Result<bool, String> {
    let (mut files, mut bounds) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            bounds = PathBuf::from(it.next().ok_or("--bounds needs a value")?);
        } else {
            files.push(PathBuf::from(a));
        }
    }
    let [base, new] = files.as_slice() else {
        return Err("compare takes two report files".into());
    };
    compare_reports(base, new, &bounds).map(|(ok, _)| ok)
}

/// Returns (nothing regressed, nothing unresolved).
fn compare_reports(base: &Path, new: &Path, bounds: &Path) -> Result<(bool, bool), String> {
    let bounds = report::bounds_of(&load(bounds)?)?;
    let rows = report::compare(&load(base)?, &load(new)?, &bounds)?;
    print!("{}", report::render_rows(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok((
        count(Verdict::Regressed) == 0,
        count(Verdict::Unresolved) == 0,
    ))
}

/// `repeat --sets k`: the full set `k` times on this binary, each
/// later report compared with the first. Passing means the benchmark
/// repeats within its own bounds.
fn repeat(o: &Options) -> Result<bool, String> {
    let mut reports = Vec::new();
    let mut ok = true;
    for set in 0..o.sets {
        let sub = Options {
            out: o.out.join(format!("set{set}")),
            workload: None,
            detail: None,
            ..*o
        };
        let (path, correct) = run_all(&sub)?;
        ok &= correct;
        reports.push(path);
    }
    for later in &reports[1..] {
        println!("-- {} vs {} --", reports[0].display(), later.display());
        let (no_regression, resolved) =
            compare_reports(&reports[0], later, Path::new("BENCHMARK.json"))?;
        ok &= no_regression && resolved;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the whole pipeline at smoke scale: every workload,
    /// untraced and traced, through generation, set-up, the gate, the
    /// windows, replay, the probes, the schema check and both output
    /// forms. Numbers at this scale are never comparable.
    #[test]
    fn smoke_run_is_correct_and_schema_valid() {
        for spec in &SPECS {
            for traced in [false, true] {
                let o = Options {
                    workload: Some(spec),
                    seed: 42,
                    seconds: 1.0,
                    traced,
                    scale: Scale::SMOKE,
                    sets: 2,
                    detail: None,
                    out: PathBuf::new(),
                };
                let d = measure_one(spec, &o);
                assert!(d.correct(), "{} trace {traced}: {:?}", spec.name, d.errors);
                assert!(d.attempted > 50, "{}", d.table());
                let doc = lpath_obs::json::parse(&d.to_json()).expect("detail is JSON");
                assert_eq!(
                    doc.get("failed").and_then(lpath_obs::json::Value::as_u64),
                    Some(0)
                );
                let line = lpath_obs::json::parse(&d.driver_line()).expect("line is JSON");
                let metrics = line.get("metrics").expect("metrics on the line");
                let expected = if traced {
                    report::per_layer_names().len()
                } else {
                    measure::END_TO_END.len() - 2
                };
                match metrics {
                    lpath_obs::json::Value::Obj(members) => assert_eq!(members.len(), expected),
                    other => panic!("metrics is {other:?}"),
                }
                if traced {
                    let table = d.self_time.as_ref().expect("a traced run has a table");
                    assert!(table.requests > 0 && table.root_p50_us > 0.0);
                }
            }
        }
    }

    /// `BENCHMARK.json` and the code must name the same things.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = load(&path).expect("BENCHMARK.json beside the benchmark directory");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), SPECS.map(|s| s.name.to_string()));
        let on_line: Vec<String> = measure::END_TO_END
            .iter()
            .map(|&(n, _)| n.to_string())
            .filter(|n| n != "append_p50_ms" && n != "error_rate")
            .collect();
        assert_eq!(names("end_to_end"), on_line);
        let layers: Vec<String> = report::per_layer_names()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names("per_layer"), layers);
        let seconds = doc
            .get("run_seconds")
            .and_then(lpath_obs::json::Value::as_u64);
        assert_eq!(seconds, Some(DEFAULT_SECONDS as u64));
        for (spec, w) in SPECS
            .iter()
            .zip(doc.get("workloads").unwrap().as_arr().unwrap())
        {
            assert_eq!(w.get("why").and_then(|v| v.as_str()), Some(spec.why));
        }
    }
}
