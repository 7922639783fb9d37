//! Outside-in layer probes: each layer's public functions called
//! directly over the fixture and timed, independent of any workload.
//! They say what a layer costs on its own; the traced windows say how
//! much of a request that is.

use std::sync::Arc;
use std::time::Instant;

use lpath_core::Engine;
use lpath_model::ptb;
use lpath_server::{serve, ServerConfig};
use lpath_service::{Service, ServiceConfig};

use crate::fixture::{HEAVY, QUERIES, SELECTIVE};
use crate::measure::{named, Metric};
use crate::stats;
use crate::streams::{self, MAX_PAGES};
use crate::wire::{LineClient, Op, PAGE_LIMIT};
use crate::workloads::{plan_once, Scale};

/// Names and units of every probe metric, in report order.
pub const PROBES: [(&str, &str); 26] = [
    ("syntax.parse_us", "us"),
    ("check.analyze_us", "us"),
    ("relstore.plan_us", "us"),
    ("relstore.rows_examined_per_result", "ratio"),
    ("relstore.index_probes_per_query", "count"),
    ("relstore.q_error_max", "ratio"),
    ("core.build_s", "s"),
    ("core.eval_heavy_us", "us"),
    ("core.eval_selective_us", "us"),
    ("core.page1_us", "us"),
    ("service.build_s", "s"),
    ("service.compile_miss_us", "us"),
    ("service.compile_hit_us", "us"),
    ("service.eval_miss_us", "us"),
    ("service.eval_hit_us", "us"),
    ("service.page1_us", "us"),
    ("service.page_deep_us", "us"),
    ("service.token_bytes", "B"),
    ("service.count_fast_us", "us"),
    ("service.count_pushdown_us", "us"),
    ("service.multi_batch_us", "us"),
    ("service.multi_solo_sum_us", "us"),
    ("service.append_ms", "ms"),
    ("server.rtt_floor_us", "us"),
    ("obs.json_parse_us", "us"),
    ("model.ptb_parse_us", "us"),
];

fn micros(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

/// Median over `passes` of the mean time per item of one pass.
fn per_item_us(passes: usize, items: usize, mut pass: impl FnMut()) -> Option<f64> {
    let per_pass: Vec<f64> = (0..passes)
        .map(|_| micros(&mut pass) / items as f64)
        .collect();
    stats::median(&per_pass)
}

fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// Two disjoint batches of eight sibling queries, anchored at the
/// corpus's two most frequent usable tags.
fn sibling_batches(vocab: &streams::Vocabulary) -> [Vec<String>; 2] {
    let t = &vocab.tags;
    let w = &vocab.words[0];
    [0, 1].map(|i| {
        let a = &t[i];
        vec![
            format!("//{a}[//{}]", t[2]),
            format!("//{a}->{}", t[3]),
            format!("//{a}/{}", t[4]),
            format!("//{a}=>{}", t[5]),
            format!("//{a}[not(//{})]", t[6]),
            format!("//{a}{{/{}$}}", t[7]),
            format!("//{a}[//_[@lex={w}]]"),
            format!("//{a}/{}-->{}", t[8], t[9]),
        ]
    })
}

/// Run every probe over the benchmark's corpus (`seed` only picks the
/// append payloads).
pub fn run(seed: u64, scale: &Scale) -> Vec<Metric> {
    let smoke = scale.wsj < Scale::FULL.wsj;
    let (many, some, few) = if smoke { (20, 5, 2) } else { (200, 20, 5) };
    let instances = if smoke { 2 } else { 4 };
    let corpus = scale.wsj_corpus();
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: Option<f64>, samples: u64| {
        out.push(named(&PROBES, name, value, samples));
    };

    // --- syntax, check, relstore, core -------------------------------
    let mut build_s = Vec::new();
    let mut engine = None;
    for _ in 0..few.min(3) {
        drop(engine.take());
        let t = Instant::now();
        engine = Some(Engine::build(&corpus));
        build_s.push(t.elapsed().as_secs_f64());
    }
    let engine = engine.expect("built at least once");
    let asts: Vec<_> = QUERIES
        .iter()
        .map(|q| lpath_syntax::parse(q).expect("fixture query parses"))
        .collect();
    let n = QUERIES.len();
    let parse_us = per_item_us(many, n, || {
        for q in QUERIES {
            std::hint::black_box(lpath_syntax::parse(q).ok());
        }
    });
    put("syntax.parse_us", parse_us, (many * n) as u64);
    let check_us = per_item_us(many, n, || {
        for ast in &asts {
            std::hint::black_box(engine.check_ast(ast));
        }
    });
    put("check.analyze_us", check_us, (many * n) as u64);
    let plan_us = per_item_us(many, n, || {
        for ast in &asts {
            plan_once(&engine, ast);
        }
    });
    put("relstore.plan_us", plan_us, (many * n) as u64);
    let (mut candidates, mut results, mut index_probes, mut q_error) = (0u64, 0u64, 0u64, 1.0f64);
    for q in QUERIES {
        let report = engine.explain_analyze(q).expect("fixture query runs");
        candidates += report.steps.iter().map(|s| s.candidates).sum::<u64>();
        index_probes += report.steps.iter().map(|s| s.probes).sum::<u64>();
        results += report.actual_rows as u64;
        q_error = q_error.max(report.estimate_error);
    }
    put(
        "relstore.rows_examined_per_result",
        Some(candidates as f64 / results.max(1) as f64),
        results,
    );
    put(
        "relstore.index_probes_per_query",
        Some(index_probes as f64 / n as f64),
        n as u64,
    );
    put("relstore.q_error_max", Some(q_error), n as u64);
    put(
        "core.build_s",
        stats::median(&build_s),
        build_s.len() as u64,
    );
    for (name, set, passes) in [
        ("core.eval_heavy_us", &HEAVY[..], few),
        ("core.eval_selective_us", &SELECTIVE[..], many),
    ] {
        let eval_us = per_item_us(passes, set.len(), || {
            for &q in set {
                std::hint::black_box(engine.query_ast(&asts[q]).ok());
            }
        });
        put(name, eval_us, (passes * set.len()) as u64);
    }
    let page1_us = per_item_us(some, n, || {
        for ast in &asts {
            std::hint::black_box(engine.query_limit_ast(ast, 0, PAGE_LIMIT).ok());
        }
    });
    put("core.page1_us", page1_us, (some * n) as u64);
    drop(engine);

    // --- service: first touches on fresh instances -------------------
    let vocab = streams::Vocabulary::of(&corpus);
    let batches = sibling_batches(&vocab);
    let (mut svc_build_s, mut compile_miss, mut eval_miss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut count_fast, mut count_pushdown) = (Vec::new(), Vec::new());
    let mut multi: [[Vec<f64>; 2]; 2] = Default::default(); // [batch|solo][set]
    let mut svc = None;
    for i in 0..instances {
        drop(svc.take());
        let t = Instant::now();
        let fresh = Service::with_config(&corpus, ServiceConfig::default());
        svc_build_s.push(t.elapsed().as_secs_f64());
        compile_miss.push(
            micros(|| {
                for q in QUERIES {
                    std::hint::black_box(fresh.compile(q).ok());
                }
            }) / n as f64,
        );
        // Counts before evaluations: a cached result would answer a
        // count for free. The service says which path each took.
        let (mut fast, mut pushdown) = (Vec::new(), Vec::new());
        for q in QUERIES {
            let before = fresh.stats().count_fast;
            let took = micros(|| {
                std::hint::black_box(fresh.count(q).ok());
            });
            if fresh.stats().count_fast > before {
                fast.push(took);
            } else {
                pushdown.push(took);
            }
        }
        count_fast.extend(mean(&fast));
        count_pushdown.extend(mean(&pushdown));
        eval_miss.push(
            micros(|| {
                for q in QUERIES {
                    std::hint::black_box(fresh.eval(q).ok());
                }
            }) / n as f64,
        );
        // One sibling set as a batch, the other one query at a time;
        // the next instance swaps them, so both see both cold.
        let (as_batch, solo) = (i % 2, 1 - i % 2);
        let texts: Vec<&str> = batches[as_batch].iter().map(String::as_str).collect();
        multi[0][as_batch].push(micros(|| {
            std::hint::black_box(fresh.eval_multi(&texts));
        }));
        multi[1][solo].push(micros(|| {
            for q in &batches[solo] {
                std::hint::black_box(fresh.eval(q).ok());
            }
        }));
        svc = Some(fresh);
    }
    let svc = Arc::new(svc.expect("built at least once"));
    let both_sets = |sets: &[Vec<f64>; 2]| {
        let medians: Vec<f64> = sets.iter().filter_map(|s| stats::median(s)).collect();
        (medians.len() == 2).then(|| f64::midpoint(medians[0], medians[1]))
    };

    // --- service: the hot paths --------------------------------------
    let compile_hit = per_item_us(many, n, || {
        for q in QUERIES {
            std::hint::black_box(svc.compile(q).ok());
        }
    });
    let eval_hit = per_item_us(many, n, || {
        for q in QUERIES {
            std::hint::black_box(svc.eval(q).ok());
        }
    });
    let (mut page1, mut page_deep, mut token_bytes) = (Vec::new(), Vec::new(), Vec::new());
    for pass in 0..=some {
        let (mut first, mut deep) = (Vec::new(), Vec::new());
        for q in QUERIES {
            let mut token: Option<String> = None;
            for page in 1..=MAX_PAGES {
                let mut next = None;
                let took = micros(|| {
                    next = svc
                        .eval_page_token(q, token.as_deref(), PAGE_LIMIT)
                        .ok()
                        .and_then(|p| p.token);
                });
                match page {
                    1 => first.push(took),
                    MAX_PAGES => deep.push(took),
                    _ => {}
                }
                token = next;
                let Some(t) = &token else { break };
                token_bytes.push(t.len() as f64);
            }
        }
        // Pass 0 is warm-up; the rest are measured.
        if pass > 0 {
            page1.extend(mean(&first));
            page_deep.extend(mean(&deep));
        }
    }

    // --- server, obs, model ------------------------------------------
    let server = serve(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default())
        .expect("a loopback port can be bound");
    let mut client = LineClient::connect(server.addr()).expect("the server accepts");
    let floor: Vec<f64> = (0..many * 10)
        .map(|_| client.call(&Op::Check("//S")).1.rtt_ns as f64 / 1e3)
        .collect();
    let mut lines = Vec::new();
    for query in QUERIES {
        let _ = client.call(&Op::Page { query, token: None });
        let (request, response) = client.last_lines();
        lines.push(request.trim_end().to_string());
        lines.push(response.trim_end().to_string());
    }
    drop(client);
    server.shutdown();
    let json_parse = per_item_us(many, lines.len(), || {
        for line in &lines {
            std::hint::black_box(lpath_obs::json::parse(line).ok());
        }
    });
    let appends = streams::append_batches(seed, few);
    let ptb_parse: Vec<f64> = (0..some)
        .map(|_| {
            micros(|| {
                std::hint::black_box(ptb::parse_str(&appends[0]).ok());
            })
        })
        .collect();
    let append_ms: Vec<f64> = appends
        .iter()
        .map(|b| {
            micros(|| {
                std::hint::black_box(svc.append_ptb(b).ok());
            }) / 1e3
        })
        .collect();

    let inst = instances as u64;
    let hits = (many * n) as u64;
    put("service.build_s", stats::median(&svc_build_s), inst);
    put(
        "service.compile_miss_us",
        stats::median(&compile_miss),
        inst * n as u64,
    );
    put("service.compile_hit_us", compile_hit, hits);
    put(
        "service.eval_miss_us",
        stats::median(&eval_miss),
        inst * n as u64,
    );
    put("service.eval_hit_us", eval_hit, hits);
    put("service.page1_us", stats::median(&page1), (some * n) as u64);
    put(
        "service.page_deep_us",
        stats::median(&page_deep),
        page_deep.len() as u64,
    );
    put(
        "service.token_bytes",
        mean(&token_bytes),
        token_bytes.len() as u64,
    );
    put(
        "service.count_fast_us",
        stats::median(&count_fast),
        count_fast.len() as u64,
    );
    put(
        "service.count_pushdown_us",
        stats::median(&count_pushdown),
        count_pushdown.len() as u64,
    );
    put("service.multi_batch_us", both_sets(&multi[0]), inst);
    put("service.multi_solo_sum_us", both_sets(&multi[1]), inst);
    put(
        "service.append_ms",
        stats::median(&append_ms),
        append_ms.len() as u64,
    );
    put(
        "server.rtt_floor_us",
        stats::percentile(&floor, 50.0),
        floor.len() as u64,
    );
    put("obs.json_parse_us", json_parse, (many * lines.len()) as u64);
    put(
        "model.ptb_parse_us",
        stats::median(&ptb_parse),
        ptb_parse.len() as u64,
    );
    out
}
