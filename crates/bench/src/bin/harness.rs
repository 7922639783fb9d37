//! Paper-table harness: regenerates every figure of the evaluation
//! section as a textual table, using the paper's own methodology
//! (7 runs, trimmed mean).
//!
//! ```text
//! harness [fig6a|fig6b|fig6c|fig7|fig8|fig9|fig10|ablation|extended|sql|service|firstmatch|sweep|metrics|check|count|multiquery|server|all] [sentences]
//! ```
//!
//! With no arguments, prints everything at the default scale (1/20 of
//! the paper's corpus; see `lpath-bench`'s crate docs). Some modes
//! additionally write machine-readable numbers to the working
//! directory: `service` (`BENCH_service.json`), `firstmatch`
//! (`BENCH_firstmatch.json`), `sweep` — a page-1 → page-K sweep on the
//! resumable executor against per-page recomputation —
//! (`BENCH_sweep.json`), `metrics` — per-query latency
//! percentiles under the instrumented service, `EXPLAIN ANALYZE`
//! estimate errors, and the instrumentation-overhead comparison —
//! (`BENCH_metrics.json`), `check` — static-analysis cost per
//! evaluation query plus the constant-empty fast path against a full
//! walker scan proving emptiness dynamically — (`BENCH_check.json`),
//! `count` — result-size latency three ways (index-level aggregate
//! count, streaming-cursor count, full enumeration) plus the
//! checkpointed count sweep — (`BENCH_count.json`),
//! `multiquery` — the 23-query fixture as one shared-anchor
//! `eval_multi` batch against 23 independent evals, differentially
//! verified — (`BENCH_multiquery.json`),
//! and `server` — round-trip latency of the line-delimited JSON
//! protocol over a real loopback socket: token sweeps at 1/2/4/8
//! concurrent connections plus the cold-first-page vs
//! deep-token-page comparison — (`BENCH_server.json`).

use std::sync::Arc;
use std::time::Instant;

use lpath_bench::{
    default_swb_sentences, default_wsj_sentences, figure10_rows, figure7_rows, fmt_secs,
    swb_corpus, time7, wsj_corpus, Engines,
};
use lpath_core::{Engine, Walker, EXTENDED_QUERIES, QUERIES};
use lpath_corpussearch::CS_QUERIES;
use lpath_model::{Corpus, Profile};
use lpath_relstore::{JoinOrder, PlannerConfig};
use lpath_server::{serve, Client, ServerConfig};
use lpath_service::{Service, ServiceConfig};
use lpath_tgrep::TGREP_QUERIES;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map_or("all", String::as_str);
    let wsj_n = args
        .get(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(default_wsj_sentences);
    let swb_n = wsj_n * default_swb_sentences() / default_wsj_sentences();

    println!("LPath evaluation harness — synthetic corpora");
    println!(
        "scale: WSJ {wsj_n} sentences, SWB {swb_n} sentences \
         (paper: ~49000 / ~110000)\n"
    );

    let wsj = wsj_corpus(wsj_n);
    let swb = swb_corpus(swb_n);

    match what {
        "fig6a" => fig6a(&wsj, &swb),
        "fig6b" => fig6b(&wsj, &swb),
        "fig6c" => fig6c(&wsj, &swb),
        "fig7" => fig7_or_8(&wsj, Profile::Wsj),
        "fig8" => fig7_or_8(&swb, Profile::Swb),
        "fig9" => fig9(&wsj, wsj_n),
        "fig10" => fig10(&wsj),
        "ablation" => ablation(&wsj),
        "extended" => extended(&wsj, &swb),
        "sql" => sql(&wsj),
        "service" => service(&wsj, wsj_n),
        "firstmatch" => firstmatch(&wsj, wsj_n),
        "sweep" => sweep(&wsj, wsj_n),
        "metrics" => metrics(&wsj, wsj_n),
        "check" => check(&wsj, wsj_n),
        "count" => count(&wsj, wsj_n),
        "multiquery" => multiquery(&wsj, wsj_n),
        "server" => server(&wsj, wsj_n),
        "all" => {
            fig6a(&wsj, &swb);
            fig6b(&wsj, &swb);
            fig6c(&wsj, &swb);
            fig7_or_8(&wsj, Profile::Wsj);
            fig7_or_8(&swb, Profile::Swb);
            fig9(&wsj, wsj_n);
            fig10(&wsj);
            ablation(&wsj);
            extended(&wsj, &swb);
            service(&wsj, wsj_n);
            firstmatch(&wsj, wsj_n);
            sweep(&wsj, wsj_n);
            metrics(&wsj, wsj_n);
            check(&wsj, wsj_n);
            count(&wsj, wsj_n);
            multiquery(&wsj, wsj_n);
            server(&wsj, wsj_n);
        }
        other => {
            eprintln!(
                "unknown figure '{other}'; expected \
                 fig6a|fig6b|fig6c|fig7|fig8|fig9|fig10|ablation|extended|sql|service|firstmatch|sweep|metrics|check|count|multiquery|server|all"
            );
            std::process::exit(2);
        }
    }
}

/// Figure 6(a): data set characteristics.
fn fig6a(wsj: &Corpus, swb: &Corpus) {
    println!("== Figure 6(a): test data sets ==");
    println!("{:<22}{:>14}{:>14}", "", "WSJ", "SWB");
    let (w, s) = (wsj.stats(), swb.stats());
    println!(
        "{:<22}{:>13}kB{:>13}kB",
        "File Size",
        w.ascii_bytes / 1024,
        s.ascii_bytes / 1024
    );
    println!("{:<22}{:>14}{:>14}", "Trees", w.trees, s.trees);
    println!(
        "{:<22}{:>14}{:>14}",
        "Tree Nodes", w.total_nodes, s.total_nodes
    );
    println!(
        "{:<22}{:>14}{:>14}",
        "Tokens", w.total_tokens, s.total_tokens
    );
    println!(
        "{:<22}{:>14}{:>14}",
        "Unique Tags", w.unique_tags, s.unique_tags
    );
    println!(
        "{:<22}{:>14}{:>14}",
        "Maximum Depth", w.max_depth, s.max_depth
    );
    println!(
        "(paper, full scale: 35983kB/35880kB; 3484899/3972148 nodes; \
         1274/715 tags; depth 36/36)\n"
    );
}

/// Figure 6(b): top-10 tag frequencies.
fn fig6b(wsj: &Corpus, swb: &Corpus) {
    println!("== Figure 6(b): top 10 frequent tags ==");
    let w = wsj.top_tags(10);
    let s = swb.top_tags(10);
    println!(
        "{:<4}{:<14}{:>10}   {:<14}{:>10}",
        "#", "WSJ tag", "freq", "SWB tag", "freq"
    );
    for i in 0..10 {
        let (wt, wf) = w.get(i).map_or(("-", 0), |(t, f)| (t.as_str(), *f));
        let (st, sf) = s.get(i).map_or(("-", 0), |(t, f)| (t.as_str(), *f));
        println!("{:<4}{:<14}{:>10}   {:<14}{:>10}", i + 1, wt, wf, st, sf);
    }
    println!(
        "(paper order — WSJ: NP VP NN IN NNP S DT NP-SBJ -NONE- JJ; \
         SWB: -DFL- VP NP-SBJ . , S NP PRP NN RB)\n"
    );
}

/// Figure 6(c): the 23 queries and their result sizes.
fn fig6c(wsj: &Corpus, swb: &Corpus) {
    println!("== Figure 6(c): test query set, result sizes ==");
    let we = Engine::build(wsj);
    let se = Engine::build(swb);
    println!(
        "{:<5}{:<44}{:>9}{:>9}{:>11}{:>11}",
        "Q", "LPath", "WSJ", "SWB", "paper-WSJ", "paper-SWB"
    );
    for q in QUERIES {
        let w = we.count(q.lpath).expect("wsj");
        let s = se.count(q.lpath).expect("swb");
        println!(
            "{:<5}{:<44}{:>9}{:>9}{:>11}{:>11}",
            format!("Q{}", q.id),
            q.lpath,
            w,
            s,
            q.paper_wsj,
            q.paper_swb
        );
    }
    println!();
}

/// Figures 7/8: per-query timings, three engines.
fn fig7_or_8(corpus: &Corpus, profile: Profile) {
    let fig = match profile {
        Profile::Wsj => "Figure 7 (WSJ)",
        Profile::Swb => "Figure 8 (SWB)",
    };
    println!("== {fig}: query execution time, seconds (7-run trimmed mean) ==");
    let engines = Engines::build(corpus);
    println!(
        "{:<5}{:>12}{:>12}{:>14}{:>10}",
        "Q", "LPath", "TGrep2", "CorpusSearch", "results"
    );
    for row in figure7_rows(&engines) {
        println!(
            "{:<5}{:>12}{:>12}{:>14}{:>10}",
            format!("Q{}", row.id),
            fmt_secs(row.lpath),
            fmt_secs(row.tgrep),
            fmt_secs(row.cs),
            row.result_size
        );
    }
    println!();
}

/// Figure 9: scalability on replicated WSJ (Q3, Q6, Q11).
fn fig9(wsj: &Corpus, base_sentences: usize) {
    println!("== Figure 9: scalability, replicated WSJ ==");
    for qid in lpath_core::queryset::FIG9_QUERY_IDS {
        let q = lpath_core::queryset::by_id(qid);
        println!("-- Q{qid}: {}", q.lpath);
        println!(
            "{:<12}{:>12}{:>12}{:>14}",
            "sentences", "LPath", "TGrep2", "CorpusSearch"
        );
        for factor in [0.5, 1.0, 2.0, 3.0, 4.0] {
            let corpus = wsj.replicate(factor);
            let engines = Engines::build(&corpus);
            let i = qid - 1;
            let lp = time7(|| {
                engines.lpath.count(q.lpath).unwrap();
            });
            let tg = time7(|| {
                engines.tgrep.count(TGREP_QUERIES[i]).unwrap();
            });
            let cs = time7(|| {
                engines.cs.count(CS_QUERIES[i]).unwrap();
            });
            println!(
                "{:<12}{:>12}{:>12}{:>14}",
                ((base_sentences as f64) * factor) as usize,
                fmt_secs(lp),
                fmt_secs(tg),
                fmt_secs(cs)
            );
        }
    }
    println!();
}

/// Figure 10: LPath vs XPath (start/end) labeling, 11 shared queries.
fn fig10(wsj: &Corpus) {
    println!("== Figure 10: labeling schemes on the XPath-expressible queries (WSJ) ==");
    println!(
        "{:<5}{:>14}{:>14}{:>9}",
        "Q", "LPath-label", "XPath-label", "ratio"
    );
    for row in figure10_rows(wsj) {
        let ratio = row.lpath.as_secs_f64() / row.xpath.as_secs_f64().max(1e-12);
        println!(
            "{:<5}{:>14}{:>14}{:>9.2}",
            format!("Q{}", row.id),
            fmt_secs(row.lpath),
            fmt_secs(row.xpath),
            ratio
        );
    }
    println!();
}

/// Ablations: join ordering and the tgrep label index.
fn ablation(wsj: &Corpus) {
    println!("== Ablation: greedy-statistics vs syntactic join order (WSJ) ==");
    let greedy = Engine::build(wsj);
    let syntactic = Engine::with_config(
        wsj,
        PlannerConfig {
            order: JoinOrder::Syntactic,
            ..Default::default()
        },
    );
    println!("{:<5}{:>12}{:>12}{:>9}", "Q", "greedy", "syntactic", "×");
    for q in QUERIES {
        let a = time7(|| {
            greedy.count(q.lpath).unwrap();
        });
        let b = time7(|| {
            syntactic.count(q.lpath).unwrap();
        });
        println!(
            "{:<5}{:>12}{:>12}{:>9.2}",
            format!("Q{}", q.id),
            fmt_secs(a),
            fmt_secs(b),
            b.as_secs_f64() / a.as_secs_f64().max(1e-12)
        );
    }

    println!("\n== Ablation: tgrep with vs without the label index (WSJ) ==");
    let tg = lpath_tgrep::TgrepEngine::build(wsj);
    println!("{:<5}{:>12}{:>12}{:>9}", "Q", "indexed", "full-scan", "×");
    for (i, pat) in TGREP_QUERIES.iter().enumerate() {
        let a = time7(|| {
            tg.count(pat).unwrap();
        });
        let b = time7(|| {
            tg.count_unindexed(pat).unwrap();
        });
        println!(
            "{:<5}{:>12}{:>12}{:>9.2}",
            format!("Q{}", i + 1),
            fmt_secs(a),
            fmt_secs(b),
            b.as_secs_f64() / a.as_secs_f64().max(1e-12)
        );
    }
    println!();
}

/// The extended (beyond-paper) query set: function library, or-self
/// closures, position() circumlocutions. SQL-supported queries run on
/// the relational engine and are checked against the walker; the rest
/// run on the walker alone. Semantic identities are asserted.
fn extended(wsj: &Corpus, swb: &Corpus) {
    println!("== Extended query set (beyond-paper features) ==");
    println!(
        "{:<5}{:<48}{:>9}{:>9}  {:<8}check",
        "E", "LPath", "WSJ", "SWB", "engine"
    );
    let engines = [Engine::build(wsj), Engine::build(swb)];
    let walkers = [Walker::new(wsj), Walker::new(swb)];
    for q in EXTENDED_QUERIES {
        let ast = lpath_syntax::parse(q.lpath).expect("extended query parses");
        let mut counts = [0usize; 2];
        for ((walker, engine), count) in walkers.iter().zip(&engines).zip(&mut counts) {
            let via_walker = walker.count(&ast);
            if q.sql_supported {
                let via_sql = engine.count(q.lpath).expect("sql-supported");
                assert_eq!(via_sql, via_walker, "E{} engine/walker disagree", q.id);
            }
            *count = via_walker;
        }
        let check = match q.equivalent_to {
            Some(eq) => {
                let eq_ast = lpath_syntax::parse(eq).expect("identity parses");
                for walker in &walkers {
                    assert_eq!(
                        walker.eval(&ast),
                        walker.eval(&eq_ast),
                        "E{} identity violated: {} ≢ {}",
                        q.id,
                        q.lpath,
                        eq
                    );
                }
                format!("≡ {eq}")
            }
            None => String::new(),
        };
        println!(
            "{:<5}{:<48}{:>9}{:>9}  {:<8}{}",
            format!("E{}", q.id),
            q.lpath,
            counts[0],
            counts[1],
            if q.sql_supported { "sql" } else { "walker" },
            check
        );
    }
    println!("(all sql-supported rows verified engine == walker; identities asserted)\n");
}

/// One shard-count row of the service benchmark.
struct ServiceRow {
    shards: usize,
    build_secs: f64,
    query_qps: f64,
    cached_qps: f64,
    cache_hit_rate: f64,
    workload_qps: f64,
    shards_pruned: u64,
    shard_evals: u64,
}

/// The `service` mode: throughput of the sharded, cached, concurrent
/// query service at shard counts {1, 2, 4, 8}, three workloads each:
///
/// * **query** — repeated batches of the 23 evaluation queries with
///   the result cache off (pure evaluation throughput; on multi-core
///   hardware this scales with shards × threads);
/// * **cached** — the same batches with the result cache on (steady-
///   state throughput of a skewed workload);
/// * **ingest+query** — alternating `append_ptb` batches and query
///   batches over a live corpus. Sharding wins here on any hardware:
///   an append rebuilds only the tail shard, so the per-round index
///   maintenance cost drops by roughly the shard count.
///
/// Writes `BENCH_service.json` with every number printed.
fn service(wsj: &Corpus, wsj_n: usize) {
    println!("== Service: sharded, cached, concurrent query service (WSJ) ==");
    let texts: Vec<&str> = QUERIES.iter().map(|q| q.lpath).collect();
    let shard_counts = [1usize, 2, 4, 8];
    let rounds = 3usize;

    // The ingest workload replays the last 20% of the corpus in four
    // batches over a service built on the first 80%.
    let n = wsj.trees().len();
    let cut = n * 4 / 5;
    let prefix = wsj.subcorpus(0..cut);
    let batch_size = ((n - cut) / 4).max(1);
    let ingest_batches: Vec<String> = (cut..n)
        .step_by(batch_size)
        .map(|lo| wsj.subcorpus(lo..(lo + batch_size).min(n)).to_ptb_string())
        .collect();

    let mut rows: Vec<ServiceRow> = Vec::new();
    for &k in &shard_counts {
        // Pure query throughput: result cache off, every batch misses.
        let t = Instant::now();
        let svc = Service::with_config(
            wsj,
            ServiceConfig {
                shards: k,
                result_cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let build_secs = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..rounds {
            for r in svc.eval_multi(&texts) {
                let _ = r.expect("evaluation query");
            }
        }
        let query_qps = (rounds * texts.len()) as f64 / t.elapsed().as_secs_f64();
        let pure_stats = svc.stats();

        // Steady-state cached throughput: warm once, then measure.
        let cached = Service::with_config(
            wsj,
            ServiceConfig {
                shards: k,
                ..ServiceConfig::default()
            },
        );
        for r in cached.eval_multi(&texts) {
            let _ = r.expect("warm-up query");
        }
        let t = Instant::now();
        for _ in 0..rounds {
            for r in cached.eval_multi(&texts) {
                let _ = r.expect("cached query");
            }
        }
        let cached_qps = (rounds * texts.len()) as f64 / t.elapsed().as_secs_f64();
        let cache_hit_rate = cached.stats().result_hit_rate();

        // Live corpus: append a batch, answer the query set, repeat.
        let live = Service::with_config(
            &prefix,
            ServiceConfig {
                shards: k,
                result_cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let t = Instant::now();
        let mut live_queries = 0usize;
        for batch in &ingest_batches {
            live.append_ptb(batch).expect("ingest batch");
            for r in live.eval_multi(&texts) {
                let _ = r.expect("live query");
            }
            live_queries += texts.len();
        }
        let workload_qps = live_queries as f64 / t.elapsed().as_secs_f64();

        rows.push(ServiceRow {
            shards: k,
            build_secs,
            query_qps,
            cached_qps,
            cache_hit_rate,
            workload_qps,
            shards_pruned: pure_stats.shards_pruned,
            shard_evals: pure_stats.shard_evals,
        });
    }

    println!(
        "{:<8}{:>10}{:>12}{:>12}{:>10}{:>18}{:>9}",
        "shards", "build(s)", "query QPS", "cached QPS", "hit", "ingest+query QPS", "pruned"
    );
    for r in &rows {
        println!(
            "{:<8}{:>10.3}{:>12.1}{:>12.1}{:>10.2}{:>18.1}{:>9}",
            r.shards,
            r.build_secs,
            r.query_qps,
            r.cached_qps,
            r.cache_hit_rate,
            r.workload_qps,
            r.shards_pruned,
        );
    }
    let at = |k: usize| rows.iter().find(|r| r.shards == k).unwrap();
    // Guard against 0/0 on degenerate corpora (e.g. `service 0`):
    // NaN would make the JSON unparsable.
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let speedup_1_to_4 = ratio(at(4).workload_qps, at(1).workload_qps);
    let query_speedup_1_to_4 = ratio(at(4).query_qps, at(1).query_qps);
    println!(
        "ingest+query speedup 1 -> 4 shards: {speedup_1_to_4:.2}x \
         (pure query: {query_speedup_1_to_4:.2}x on {} worker threads)\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    );

    // Machine-readable trajectory record.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"service\",\n");
    json.push_str(&format!("  \"wsj_sentences\": {wsj_n},\n"));
    json.push_str(&format!(
        "  \"worker_threads\": {},\n",
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    ));
    json.push_str(&format!("  \"rounds\": {rounds},\n"));
    json.push_str(&format!("  \"queries_per_batch\": {},\n", texts.len()));
    json.push_str("  \"per_shard_count\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"build_secs\": {:.6}, \"query_qps\": {:.3}, \
             \"cached_qps\": {:.3}, \"cache_hit_rate\": {:.4}, \
             \"ingest_query_qps\": {:.3}, \"shard_evals\": {}, \"shards_pruned\": {}}}{}\n",
            r.shards,
            r.build_secs,
            r.query_qps,
            r.cached_qps,
            r.cache_hit_rate,
            r.workload_qps,
            r.shard_evals,
            r.shards_pruned,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"speedup_1_to_4\": {speedup_1_to_4:.4},\n"));
    json.push_str(&format!(
        "  \"query_speedup_1_to_4\": {query_speedup_1_to_4:.4}\n"
    ));
    json.push_str("}\n");
    match std::fs::write("BENCH_service.json", &json) {
        Ok(()) => println!("wrote BENCH_service.json\n"),
        Err(e) => eprintln!("could not write BENCH_service.json: {e}\n"),
    }
}

/// One per-query row of the first-match benchmark.
struct FirstMatchRow {
    id: usize,
    lpath: &'static str,
    results: usize,
    full_secs: f64,
    exists_secs: f64,
    engine_page1_secs: f64,
    service_page1_secs: f64,
}

/// The `firstmatch` mode: interactive-workload latency. The paper
/// measures full enumeration (§5), but a linguist *browsing* matches
/// cares about the first match and the first page. Three early-exit
/// paths against the full-enumeration baseline, per evaluation query:
///
/// * **exists** — [`Engine::exists`]: the streaming cursor stops at
///   its first complete binding;
/// * **engine page-1** — `Engine::query_limit(q, 0, 10)`: tid-range
///   chunked evaluation covering just enough of the corpus;
/// * **service page-1** — `Service::eval_page(q, 0, 10)` at 8 shards
///   with result caching off: shard fan-out short-circuited once the
///   page fills.
///
/// Writes `BENCH_firstmatch.json` with every number printed plus the
/// count of queries whose first-match latency improves ≥ 10×.
fn firstmatch(wsj: &Corpus, wsj_n: usize) {
    println!("== First-match / page-1 latency vs full enumeration (WSJ) ==");
    let engine = Engine::build(wsj);
    let svc = Service::with_config(
        wsj,
        ServiceConfig {
            shards: 8,
            result_cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );
    let mut rows: Vec<FirstMatchRow> = Vec::new();
    for q in QUERIES {
        let results = engine.count(q.lpath).expect("evaluation query");
        let full = time7(|| {
            engine.query(q.lpath).unwrap();
        });
        let exists = time7(|| {
            engine.exists(q.lpath).unwrap();
        });
        let engine_page1 = time7(|| {
            engine.query_limit(q.lpath, 0, 10).unwrap();
        });
        let service_page1 = time7(|| {
            svc.eval_page(q.lpath, 0, 10).unwrap();
        });
        rows.push(FirstMatchRow {
            id: q.id,
            lpath: q.lpath,
            results,
            full_secs: full.as_secs_f64(),
            exists_secs: exists.as_secs_f64(),
            engine_page1_secs: engine_page1.as_secs_f64(),
            service_page1_secs: service_page1.as_secs_f64(),
        });
    }

    // Floor the denominator so an immeasurably fast early exit reads
    // as a huge (finite, JSON-safe) speedup rather than 0×.
    let speedup = |full: f64, fast: f64| full / fast.max(1e-12);
    println!(
        "{:<5}{:>12}{:>12}{:>13}{:>14}{:>10}{:>9}",
        "Q", "full", "exists", "engine pg1", "service pg1", "exist ×", "results"
    );
    for r in &rows {
        println!(
            "{:<5}{:>12.6}{:>12.6}{:>13.6}{:>14.6}{:>10.1}{:>9}",
            format!("Q{}", r.id),
            r.full_secs,
            r.exists_secs,
            r.engine_page1_secs,
            r.service_page1_secs,
            speedup(r.full_secs, r.exists_secs),
            r.results,
        );
    }
    let ten_x = rows
        .iter()
        .filter(|r| r.results > 0 && speedup(r.full_secs, r.exists_secs) >= 10.0)
        .count();
    let page_ten_x = rows
        .iter()
        .filter(|r| {
            r.results > 0
                && speedup(r.full_secs, r.engine_page1_secs.min(r.service_page1_secs)) >= 10.0
        })
        .count();
    println!(
        "queries with first-match latency >= 10x faster than full enumeration: {ten_x} \
         (page-1: {page_ten_x})\n"
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"firstmatch\",\n");
    json.push_str(&format!("  \"wsj_sentences\": {wsj_n},\n"));
    json.push_str("  \"page_size\": 10,\n");
    json.push_str("  \"service_shards\": 8,\n");
    json.push_str("  \"per_query\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": {}, \"lpath\": {:?}, \"results\": {}, \"full_secs\": {:.9}, \
             \"exists_secs\": {:.9}, \"engine_page1_secs\": {:.9}, \
             \"service_page1_secs\": {:.9}, \"first_match_speedup\": {:.3}, \
             \"page1_speedup\": {:.3}}}{}\n",
            r.id,
            r.lpath,
            r.results,
            r.full_secs,
            r.exists_secs,
            r.engine_page1_secs,
            r.service_page1_secs,
            speedup(r.full_secs, r.exists_secs),
            speedup(r.full_secs, r.engine_page1_secs.min(r.service_page1_secs)),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"queries_first_match_10x\": {ten_x},\n  \"queries_page1_10x\": {page_ten_x}\n"
    ));
    json.push_str("}\n");
    match std::fs::write("BENCH_firstmatch.json", &json) {
        Ok(()) => println!("wrote BENCH_firstmatch.json\n"),
        Err(e) => eprintln!("could not write BENCH_firstmatch.json: {e}\n"),
    }
}

/// One per-query row of the sweep benchmark.
struct SweepRow {
    id: usize,
    lpath: &'static str,
    results: usize,
    pages: usize,
    recompute_secs: f64,
    resume_secs: f64,
    service_cold_secs: f64,
    service_warm_secs: f64,
    page_resumes: u64,
    page_partial_evals: u64,
}

/// The `sweep` mode: the interactive paging workload — a user walks
/// pages 1 → K of a query — on the resumable executor against
/// per-page recomputation, per evaluation query:
///
/// * **recompute** — `Engine::query_limit(q, k·10, 10)` for each page
///   `k`: every deeper page re-derives its whole prefix, O(page ×
///   prefix) over the sweep (the PR-3-era cost model);
/// * **resume** — the same pages through `Engine::query_resume`
///   checkpoints: each page enumerates only its own rows, amortized
///   O(rows emitted) over the sweep;
/// * **service cold** — `Service::eval_page` sweeping a fresh
///   8-shard service: deeper pages extend each shard's cached,
///   checkpointed prefix (`page_resumes` counts the extensions;
///   `shard_evals` staying 0 proves no shard was ever fully
///   evaluated);
/// * **service warm** — re-sweeping the same pages, now served
///   entirely from the prefix/result caches.
///
/// Writes `BENCH_sweep.json` with every number printed plus the count
/// of queries the resumable sweep improves — CI smoke-runs this as a
/// regression canary for the resumable executor.
fn sweep(wsj: &Corpus, wsj_n: usize) {
    println!("== Page-1 → page-K sweep: resumable executor vs per-page recompute (WSJ) ==");
    const PAGE: usize = 10;
    const MAX_PAGES: usize = 20;
    let engine = Engine::build(wsj);
    let mut rows: Vec<SweepRow> = Vec::new();
    for case in lpath_bench::fixtures::eval_cases() {
        let ast = lpath_syntax::parse(case.lpath).expect("evaluation query parses");
        let results = engine.count(case.lpath).expect("evaluation query");
        let pages = results.div_ceil(PAGE).clamp(1, MAX_PAGES);

        // Correctness pin: the resumable sweep is byte-identical to
        // the recomputed pages.
        {
            let mut ckpt = None;
            for k in 0..pages {
                let (chunk, next) = engine.query_resume(&ast, ckpt.take(), PAGE).unwrap();
                assert_eq!(
                    chunk,
                    engine.query_limit_ast(&ast, k * PAGE, PAGE).unwrap(),
                    "Q{} page {k}: resume and recompute disagree",
                    case.id
                );
                match next {
                    Some(c) => ckpt = Some(c),
                    None => break,
                }
            }
        }

        let recompute = time7(|| {
            for k in 0..pages {
                engine.query_limit_ast(&ast, k * PAGE, PAGE).unwrap();
            }
        });
        let resume = time7(|| {
            let mut ckpt = None;
            for _ in 0..pages {
                let (_, next) = engine.query_resume(&ast, ckpt.take(), PAGE).unwrap();
                match next {
                    Some(c) => ckpt = Some(c),
                    None => break,
                }
            }
        });

        // Service sweep: cold (prefixes built page by page), then warm
        // (pure cache).
        let svc = Service::with_config(
            wsj,
            ServiceConfig {
                shards: 8,
                ..ServiceConfig::default()
            },
        );
        let t = Instant::now();
        for k in 0..pages {
            svc.eval_page(case.lpath, k * PAGE, PAGE).unwrap();
        }
        let service_cold = t.elapsed();
        let stats = svc.stats();
        assert_eq!(
            stats.shard_evals, 0,
            "Q{}: the sweep must never fully evaluate a shard",
            case.id
        );
        let service_warm = time7(|| {
            for k in 0..pages {
                svc.eval_page(case.lpath, k * PAGE, PAGE).unwrap();
            }
        });
        rows.push(SweepRow {
            id: case.id,
            lpath: case.lpath,
            results,
            pages,
            recompute_secs: recompute.as_secs_f64(),
            resume_secs: resume.as_secs_f64(),
            service_cold_secs: service_cold.as_secs_f64(),
            service_warm_secs: service_warm.as_secs_f64(),
            page_resumes: stats.page_resumes,
            page_partial_evals: stats.page_partial_evals,
        });
    }

    let speedup = |base: f64, fast: f64| base / fast.max(1e-12);
    println!(
        "{:<5}{:>7}{:>12}{:>12}{:>13}{:>13}{:>8}{:>9}",
        "Q", "pages", "recompute", "resume", "svc cold", "svc warm", "×", "results"
    );
    for r in &rows {
        println!(
            "{:<5}{:>7}{:>12.6}{:>12.6}{:>13.6}{:>13.6}{:>8.2}{:>9}",
            format!("Q{}", r.id),
            r.pages,
            r.recompute_secs,
            r.resume_secs,
            r.service_cold_secs,
            r.service_warm_secs,
            speedup(r.recompute_secs, r.resume_secs),
            r.results,
        );
    }
    let improved = rows
        .iter()
        .filter(|r| r.pages > 1 && r.resume_secs < r.recompute_secs)
        .count();
    let multi = rows.iter().filter(|r| r.pages > 1).count();
    println!(
        "multi-page queries whose sweep the resumable executor improves: {improved} of {multi}\n"
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"sweep\",\n");
    json.push_str(&format!("  \"wsj_sentences\": {wsj_n},\n"));
    json.push_str(&format!("  \"page_size\": {PAGE},\n"));
    json.push_str(&format!("  \"max_pages\": {MAX_PAGES},\n"));
    json.push_str("  \"service_shards\": 8,\n");
    json.push_str("  \"per_query\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": {}, \"lpath\": {:?}, \"results\": {}, \"pages\": {}, \
             \"sweep_recompute_secs\": {:.9}, \"sweep_resume_secs\": {:.9}, \
             \"service_cold_sweep_secs\": {:.9}, \"service_warm_sweep_secs\": {:.9}, \
             \"page_resumes\": {}, \"page_partial_evals\": {}, \"speedup\": {:.3}}}{}\n",
            r.id,
            r.lpath,
            r.results,
            r.pages,
            r.recompute_secs,
            r.resume_secs,
            r.service_cold_secs,
            r.service_warm_secs,
            r.page_resumes,
            r.page_partial_evals,
            speedup(r.recompute_secs, r.resume_secs),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"queries_improved\": {improved},\n  \"queries_multi_page\": {multi}\n"
    ));
    json.push_str("}\n");
    match std::fs::write("BENCH_sweep.json", &json) {
        Ok(()) => println!("wrote BENCH_sweep.json\n"),
        Err(e) => eprintln!("could not write BENCH_sweep.json: {e}\n"),
    }
}

/// Show the generated SQL for every evaluation query (paper §4).
fn sql(wsj: &Corpus) {
    println!("== LPath → SQL translations ==");
    let e = Engine::build(wsj);
    for q in QUERIES {
        println!("-- Q{}: {}", q.id, q.lpath);
        match e.sql(q.lpath) {
            Ok(sql) => println!("   {sql}\n"),
            Err(err) => println!("   (unsupported: {err})\n"),
        }
    }
}

/// Per-query latency percentiles under the instrumented service,
/// estimate-vs-actual row counts from `EXPLAIN ANALYZE`, and the
/// instrumentation-overhead comparison (metrics on vs off over the
/// same 23-query page sweep). Writes `BENCH_metrics.json`.
fn metrics(wsj: &Corpus, wsj_n: usize) {
    println!("== Query metrics: latency percentiles, estimate error, overhead (WSJ) ==");
    const ITERS: usize = 9;
    const SHARDS: usize = 8;
    let engine = Engine::build(wsj);
    let svc = Service::with_config(
        wsj,
        ServiceConfig {
            shards: SHARDS,
            ..ServiceConfig::default()
        },
    );

    let mut rows: Vec<lpath_bench::metrics::QueryMetricsRow> = Vec::new();
    for q in QUERIES {
        // Distribution over a cold first page then warm repeats — the
        // shape a live service sees; the histogram is the same
        // primitive the service records into.
        let hist = lpath_obs::Histogram::new();
        for _ in 0..ITERS {
            let t = Instant::now();
            svc.eval_page(q.lpath, 0, 10).unwrap();
            hist.record_duration(t.elapsed());
        }
        let snap = hist.snapshot();
        let ea = engine.explain_analyze(q.lpath).expect("evaluation query");
        rows.push(lpath_bench::metrics::QueryMetricsRow {
            id: q.id,
            lpath: q.lpath,
            results: ea.actual_rows,
            p50_ns: snap.p50,
            p90_ns: snap.p90,
            p99_ns: snap.p99,
            max_ns: snap.max,
            estimated_rows: ea.estimated_rows,
            actual_rows: ea.actual_rows,
            estimate_error: ea.estimate_error,
        });
    }

    println!(
        "{:<5}{:>12}{:>12}{:>12}{:>10}{:>10}{:>8}",
        "Q", "p50", "p90", "p99", "est", "actual", "q-err"
    );
    for r in &rows {
        println!(
            "{:<5}{:>12}{:>12}{:>12}{:>10}{:>10}{:>8.2}",
            format!("Q{}", r.id),
            r.p50_ns,
            r.p90_ns,
            r.p99_ns,
            r.estimated_rows,
            r.actual_rows,
            r.estimate_error,
        );
    }

    // Overhead: the identical 23-query page sweep against two fresh
    // uncached services, one recording latencies, one with metrics
    // off (caches disabled so every run does real evaluation work).
    let sweep_cfg = |metrics: bool| ServiceConfig {
        shards: SHARDS,
        result_cache_capacity: 0,
        metrics,
        ..ServiceConfig::default()
    };
    let svc_on = Service::with_config(wsj, sweep_cfg(true));
    let svc_off = Service::with_config(wsj, sweep_cfg(false));
    let run = |svc: &Service| {
        for q in QUERIES {
            svc.eval_page(q.lpath, 0, 10).unwrap();
        }
    };
    let instrumented = time7(|| run(&svc_on));
    let baseline = time7(|| run(&svc_off));
    let overhead_pct =
        (instrumented.as_secs_f64() / baseline.as_secs_f64().max(1e-12) - 1.0) * 100.0;
    println!(
        "\n23-query sweep: instrumented {}s, baseline {}s, overhead {overhead_pct:.2}%",
        fmt_secs(instrumented),
        fmt_secs(baseline)
    );
    let m = svc_on.metrics();
    println!(
        "service histograms: {} classes recorded, {} slow queries retained\n",
        m.classes
            .iter()
            .filter(|c| c.hits.count + c.misses.count > 0)
            .count(),
        m.slow_queries.len()
    );

    let report = lpath_bench::metrics::MetricsReport {
        wsj_sentences: wsj_n,
        iterations: ITERS,
        shards: SHARDS,
        per_query: rows,
        instrumented_secs: instrumented.as_secs_f64(),
        baseline_secs: baseline.as_secs_f64(),
        overhead_pct,
    };
    let json = report.to_json();
    lpath_bench::metrics::validate(&json).expect("metrics report shape");
    match std::fs::write("BENCH_metrics.json", &json) {
        Ok(()) => println!("wrote BENCH_metrics.json\n"),
        Err(e) => eprintln!("could not write BENCH_metrics.json: {e}\n"),
    }
}

/// The `check` mode: what the static-analysis front door costs and
/// what it buys.
///
/// * cost — `Engine::check` latency for each of the 23 evaluation
///   queries (the pass runs on every compile, so it must be orders of
///   magnitude below plan+execute);
/// * payoff — end-to-end latency of statically-empty queries through
///   the service's constant-empty fast path, against a full walker
///   scan proving the same emptiness dynamically.
///
/// Writes `BENCH_check.json`.
fn check(wsj: &Corpus, wsj_n: usize) {
    println!("== Static analysis: per-query check cost, constant-empty payoff (WSJ) ==");
    let engine = Engine::build(wsj);
    let svc = Service::build(wsj);

    println!("{:<5}{:>14}{:>8}{:>8}", "Q", "check", "lints", "empty");
    let mut cost_rows = Vec::new();
    for q in QUERIES {
        let secs = time7(|| {
            engine.check(q.lpath).unwrap();
        });
        let report = engine.check(q.lpath).unwrap();
        let lints = report.diagnostics.len();
        println!(
            "{:<5}{:>13}s{:>8}{:>8}",
            format!("Q{}", q.id),
            fmt_secs(secs),
            lints,
            report.statically_empty,
        );
        cost_rows.push((
            q.id,
            q.lpath,
            secs.as_secs_f64(),
            lints,
            report.statically_empty,
        ));
    }

    // Statically-empty queries: unknown vocabulary, an impossible
    // position, and contradictory attribute values on one node.
    let empty_queries = [
        "//QQQZ",
        "//_[@lex=qqqzz]",
        "//NP[position()=0]",
        "//_[@lex=alpha and @lex=beta]",
    ];
    let walker = Walker::new(wsj);
    println!(
        "\n{:<34}{:>14}{:>14}{:>10}",
        "statically-empty query", "fast path", "walker scan", "×"
    );
    let mut payoff_rows = Vec::new();
    for q in &empty_queries {
        let fast = time7(|| {
            assert!(svc.eval(q).unwrap().is_empty());
        });
        let ast = lpath_syntax::parse(q).unwrap();
        let scan = time7(|| {
            assert!(walker.eval(&ast).is_empty());
        });
        let speedup = scan.as_secs_f64() / fast.as_secs_f64().max(1e-12);
        println!(
            "{:<34}{:>13}s{:>13}s{:>10.1}",
            q,
            fmt_secs(fast),
            fmt_secs(scan),
            speedup
        );
        payoff_rows.push((*q, fast.as_secs_f64(), scan.as_secs_f64(), speedup));
    }
    let served = svc.stats().statically_empty;
    println!("service requests answered by the constant-empty fast path: {served}\n");

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"check\",\n");
    json.push_str(&format!("  \"wsj_sentences\": {wsj_n},\n"));
    json.push_str("  \"check_cost\": [\n");
    for (i, (id, lpath, secs, lints, empty)) in cost_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"id\": {id}, \"lpath\": {lpath:?}, \"check_secs\": {secs:.9}, \
             \"diagnostics\": {lints}, \"statically_empty\": {empty}}}{}\n",
            if i + 1 < cost_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"constant_empty_payoff\": [\n");
    for (i, (lpath, fast, scan, speedup)) in payoff_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"lpath\": {lpath:?}, \"fastpath_secs\": {fast:.9}, \
             \"walker_secs\": {scan:.9}, \"speedup\": {speedup:.3}}}{}\n",
            if i + 1 < payoff_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"statically_empty_served\": {served}\n"));
    json.push_str("}\n");
    match std::fs::write("BENCH_check.json", &json) {
        Ok(()) => println!("wrote BENCH_check.json\n"),
        Err(e) => eprintln!("could not write BENCH_check.json: {e}\n"),
    }
}

/// The `count` mode: result-size latency three ways, per evaluation
/// query:
///
/// * **index count** — `Service::count` with every cache disabled:
///   queries that classify into the per-shard aggregate tables are
///   answered in O(index lookup) — no cursor, no rows (the `fast`
///   column, observed through the `count_fast` stats delta); the rest
///   run the per-shard counting cursor;
/// * **cursor count** — `Engine::count`: the streaming cursor tallies
///   matches without materializing them;
/// * **full eval** — `Engine::query`: materialize and sort
///   everything, then take the length (the pre-counting cost model).
///
/// Also walks one budgeted `Service::count_token` sweep per query —
/// the checkpointed count a client drives over the wire — timing the
/// whole token round and pinning its total to the one-shot count.
/// Writes `BENCH_count.json`; CI smoke-runs this as the aggregate-
/// table regression canary.
fn count(wsj: &Corpus, wsj_n: usize) {
    println!("== Count: index-level aggregates vs cursor count vs full enumeration (WSJ) ==");
    const SHARDS: usize = 8;
    const SWEEP_BUDGET: usize = 2_000;
    let engine = Engine::build(wsj);
    // Every cache off: each timed iteration pays the real cost.
    let svc = Service::with_config(
        wsj,
        ServiceConfig {
            shards: SHARDS,
            result_cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );

    let mut rows: Vec<lpath_bench::count::CountRow> = Vec::new();
    for q in QUERIES {
        let results = engine.count(q.lpath).expect("evaluation query");
        assert_eq!(
            svc.count(q.lpath).unwrap(),
            results,
            "Q{}: service and engine counts must agree",
            q.id
        );
        let fast_before = svc.stats().count_fast;
        svc.count(q.lpath).unwrap();
        let fast = svc.stats().count_fast > fast_before;

        let index_count = time7(|| {
            svc.count(q.lpath).unwrap();
        });
        let cursor_count = time7(|| {
            engine.count(q.lpath).unwrap();
        });
        let full_eval = time7(|| {
            engine.query(q.lpath).unwrap();
        });

        // One checkpointed sweep, driven purely by echoed tokens.
        let t = Instant::now();
        let mut sweep_pages = 0usize;
        let mut token: Option<String> = None;
        let total = loop {
            let page = svc
                .count_token(q.lpath, token.as_deref(), SWEEP_BUDGET)
                .unwrap();
            sweep_pages += 1;
            match page.total {
                Some(n) => break n,
                None => token = Some(page.token.expect("unfinished sweep mints a token")),
            }
        };
        let sweep_secs = t.elapsed().as_secs_f64();
        assert_eq!(
            total, results as u64,
            "Q{}: the checkpointed sweep must land on the one-shot count",
            q.id
        );

        rows.push(lpath_bench::count::CountRow {
            id: q.id,
            lpath: q.lpath,
            results,
            fast,
            index_count_secs: index_count.as_secs_f64(),
            cursor_count_secs: cursor_count.as_secs_f64(),
            full_eval_secs: full_eval.as_secs_f64(),
            sweep_pages,
            sweep_secs,
        });
    }

    println!(
        "{:<5}{:>6}{:>13}{:>13}{:>13}{:>9}{:>7}{:>9}",
        "Q", "fast", "index", "cursor", "full eval", "×full", "pages", "results"
    );
    for r in &rows {
        println!(
            "{:<5}{:>6}{:>13.6}{:>13.6}{:>13.6}{:>9.1}{:>7}{:>9}",
            format!("Q{}", r.id),
            r.fast,
            r.index_count_secs,
            r.cursor_count_secs,
            r.full_eval_secs,
            r.speedup_vs_full(),
            r.sweep_pages,
            r.results,
        );
    }
    let report = lpath_bench::count::CountReport {
        wsj_sentences: wsj_n,
        shards: SHARDS,
        sweep_budget: SWEEP_BUDGET,
        per_query: rows,
    };
    println!(
        "fast-path queries: {} of {}; counts >= 10x faster than full enumeration: {}\n",
        report.per_query.iter().filter(|r| r.fast).count(),
        report.per_query.len(),
        report.queries_faster_than(10.0)
    );
    let json = report.to_json();
    lpath_bench::count::validate(&json).expect("count report shape");
    match std::fs::write("BENCH_count.json", &json) {
        Ok(()) => println!("wrote BENCH_count.json\n"),
        Err(e) => eprintln!("could not write BENCH_count.json: {e}\n"),
    }
}

/// The `multiquery` mode: the 23-query evaluation fixture issued as
/// one `Service::eval_multi` batch against 23 independent
/// `Service::eval` calls, in two regimes (see
/// `lpath_bench::multiquery` for the full methodology):
///
/// * **steady state** — production config, service warmed; the
///   headline the 2x bar applies to. Batching amortizes the per-call
///   machinery (plan-cache pass, shard snapshot, result-cache lock
///   round, instrumentation) across the whole fixture.
/// * **cold** — every result cache disabled, both sides pay full
///   evaluation; the batch wins only what subplan sharing saves
///   (duplicate plans executed once, shared anchor enumerations) and
///   must at minimum not regress.
///
/// Before timing anything, every member's batched rows are asserted
/// identical to its solo rows on the cache-disabled service — the
/// differential check the report records as `verified_identical`.
/// One instrumented cold batch supplies the `multi_shared_scans` /
/// `multi_residual_evals` deltas proving sharing actually happened.
/// Writes `BENCH_multiquery.json`; the validator enforces the 2x bar
/// in-harness.
fn multiquery(wsj: &Corpus, wsj_n: usize) {
    println!("== Multi-query: one shared batch vs 23 independent evals (WSJ) ==");
    const SHARDS: usize = 8;
    let texts = lpath_core::benchmark_batch();

    // --- Cold regime: caches off, full evaluation on every run. ---
    let cold_svc = Service::with_config(
        wsj,
        ServiceConfig {
            shards: SHARDS,
            result_cache_capacity: 0,
            ..ServiceConfig::default()
        },
    );

    // Differential verification first, on the cache-disabled service:
    // the batch must be a pure execution strategy, never a different
    // answer — and with caches off both sides execute independently,
    // so the check can never compare a cache entry against itself.
    let batch = cold_svc.eval_multi(&texts);
    for (q, r) in QUERIES.iter().zip(&batch) {
        let solo = cold_svc.eval(q.lpath).unwrap();
        assert_eq!(
            **r.as_ref().unwrap(),
            *solo,
            "Q{}: batched rows must equal solo rows",
            q.id
        );
    }

    // One instrumented batch for the sharing counters.
    let before = cold_svc.stats();
    for r in cold_svc.eval_multi(&texts) {
        r.unwrap();
    }
    let after = cold_svc.stats();
    let shared_members = after.multi_shared_scans - before.multi_shared_scans;
    let residual_evals = after.multi_residual_evals - before.multi_residual_evals;

    let cold_solo = time7(|| {
        for q in &texts {
            cold_svc.eval(q).unwrap();
        }
    });
    let cold_multi = time7(|| {
        for r in cold_svc.eval_multi(&texts) {
            r.unwrap();
        }
    });

    let mut rows: Vec<lpath_bench::multiquery::MultiRow> = Vec::new();
    for q in QUERIES {
        let results = cold_svc.eval(q.lpath).unwrap().len();
        let solo_secs = time7(|| {
            cold_svc.eval(q.lpath).unwrap();
        })
        .as_secs_f64();
        rows.push(lpath_bench::multiquery::MultiRow {
            id: q.id,
            lpath: q.lpath,
            results,
            solo_secs,
        });
    }

    // --- Steady state: production config, warmed working set. ---
    let svc = Service::with_config(
        wsj,
        ServiceConfig {
            shards: SHARDS,
            ..ServiceConfig::default()
        },
    );
    for q in &texts {
        svc.eval(q).unwrap();
    }
    for r in svc.eval_multi(&texts) {
        r.unwrap();
    }
    // A warm pass over the fixture runs in microseconds — too close to
    // timer granularity for a single-pass sample — so each time7 run
    // times a block of passes and reports the per-pass mean. Identical
    // methodology on both sides.
    const WARM_PASSES: u32 = 100;
    let solo = time7(|| {
        for _ in 0..WARM_PASSES {
            for q in &texts {
                svc.eval(q).unwrap();
            }
        }
    }) / WARM_PASSES;
    let multi = time7(|| {
        for _ in 0..WARM_PASSES {
            for r in svc.eval_multi(&texts) {
                r.unwrap();
            }
        }
    }) / WARM_PASSES;

    println!("{:<5}{:>13}{:>9}", "Q", "cold solo", "results");
    for r in &rows {
        println!(
            "{:<5}{:>13.6}{:>9}",
            format!("Q{}", r.id),
            r.solo_secs,
            r.results,
        );
    }
    let report = lpath_bench::multiquery::MultiReport {
        wsj_sentences: wsj_n,
        shards: SHARDS,
        solo_secs: solo.as_secs_f64(),
        multi_secs: multi.as_secs_f64(),
        cold_solo_secs: cold_solo.as_secs_f64(),
        cold_multi_secs: cold_multi.as_secs_f64(),
        shared_members,
        residual_evals,
        verified_identical: true,
        per_query: rows,
    };
    println!(
        "steady state: solo loop {} s, batched {} s, speedup {:.2}x\n\
         cold:         solo loop {} s, batched {} s, speedup {:.2}x\n\
         {} members shared work, {} residual evals\n",
        fmt_secs(solo),
        fmt_secs(multi),
        report.speedup(),
        fmt_secs(cold_solo),
        fmt_secs(cold_multi),
        report.cold_speedup(),
        shared_members,
        residual_evals,
    );
    let json = report.to_json();
    lpath_bench::multiquery::validate(&json).expect("multiquery report shape and 2x bar");
    match std::fs::write("BENCH_multiquery.json", &json) {
        Ok(()) => println!("wrote BENCH_multiquery.json\n"),
        Err(e) => eprintln!("could not write BENCH_multiquery.json: {e}\n"),
    }
}

/// The `server` mode: round-trip latency of the network edge. Starts
/// a real `lpath-server` on a loopback port, then measures:
///
/// * concurrency — 1/2/4/8 client connections each run the full
///   23-query token sweep; every `eval_page` round trip is one
///   latency sample (percentiles plus aggregate throughput);
/// * cold vs deep — the highest-cardinality evaluation query at
///   page 1 (parse + plan + first rows) and at its deepest token
///   (checkpoint resume), each re-issued repeatedly — stateless
///   tokens make any page repeatable.
///
/// Writes `BENCH_server.json`.
fn server(wsj: &Corpus, wsj_n: usize) {
    println!("== lpath-server: socket round trips under concurrency, cold vs deep pages (WSJ) ==");
    const SHARDS: usize = 4;
    const PAGE: usize = 25;
    const PHASE_ITERS: usize = 40;
    // No result cache: every round trip pays for real evaluation, so
    // cold-vs-deep measures the token machinery, not cache hits.
    let svc = Arc::new(Service::with_config(
        wsj,
        ServiceConfig {
            shards: SHARDS,
            result_cache_capacity: 0,
            ..ServiceConfig::default()
        },
    ));
    let handle = serve(
        Arc::clone(&svc),
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 32,
            ..ServerConfig::default()
        },
    )
    .expect("bind a loopback port");
    let addr = handle.addr();

    // Warm the plan cache so every level measures steady state.
    let mut probe = Client::connect(addr).expect("connect to own server");
    for q in QUERIES {
        probe.eval_sweep(q.lpath, PAGE).unwrap();
    }

    println!(
        "{:<6}{:>10}{:>12}{:>12}{:>12}{:>12}{:>10}",
        "conns", "requests", "p50", "p90", "p99", "max", "req/s"
    );
    let mut per_concurrency = Vec::new();
    for connections in [1usize, 2, 4, 8] {
        let started = Instant::now();
        // The collect is the fan-out: without it the spawns would be
        // driven lazily by the join loop and the "concurrent" clients
        // would run one at a time.
        #[allow(clippy::needless_collect)]
        let workers: Vec<_> = (0..connections)
            .map(|_| {
                std::thread::spawn(move || -> Vec<u64> {
                    let mut client = Client::connect(addr).expect("connect to own server");
                    let mut samples = Vec::new();
                    for q in QUERIES {
                        let mut token: Option<String> = None;
                        loop {
                            let t = Instant::now();
                            let page = client.eval_page(q.lpath, token.as_deref(), PAGE).unwrap();
                            samples.push(t.elapsed().as_nanos() as u64);
                            match page.token {
                                Some(next) => token = Some(next),
                                None => break,
                            }
                        }
                    }
                    samples
                })
            })
            .collect();
        let mut samples: Vec<u64> = workers
            .into_iter()
            .flat_map(|w| w.join().expect("load thread"))
            .collect();
        let wall = started.elapsed().as_secs_f64();
        samples.sort_unstable();
        let p = |pct| lpath_bench::server::percentile(&samples, pct);
        let row = lpath_bench::server::ConcurrencyRow {
            connections,
            requests: samples.len(),
            p50_ns: p(50.0),
            p90_ns: p(90.0),
            p99_ns: p(99.0),
            max_ns: *samples.last().unwrap_or(&0),
            throughput_rps: samples.len() as f64 / wall.max(1e-12),
        };
        println!(
            "{:<6}{:>10}{:>12}{:>12}{:>12}{:>12}{:>10.0}",
            row.connections,
            row.requests,
            row.p50_ns,
            row.p90_ns,
            row.p99_ns,
            row.max_ns,
            row.throughput_rps,
        );
        per_concurrency.push(row);
    }

    // Cold vs deep on the widest query: walk its sweep once to find
    // the deepest token, then re-issue each fixed page repeatedly
    // (stateless tokens answer the same page every time).
    let widest = QUERIES
        .iter()
        .max_by_key(|q| svc.count(q.lpath).unwrap())
        .expect("23 evaluation queries");
    let mut deep_token: Option<String> = None;
    let mut page_depth = 0usize;
    let mut token: Option<String> = None;
    loop {
        let page = probe
            .eval_page(widest.lpath, token.as_deref(), PAGE)
            .unwrap();
        match page.token {
            Some(next) => {
                page_depth += 1;
                deep_token = Some(next.clone());
                token = Some(next);
            }
            None => break,
        }
    }
    let mut measure = |phase: &'static str, token: Option<&str>, depth: usize| {
        let mut samples: Vec<u64> = (0..PHASE_ITERS)
            .map(|_| {
                let t = Instant::now();
                probe.eval_page(widest.lpath, token, PAGE).unwrap();
                t.elapsed().as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        let p = |pct| lpath_bench::server::percentile(&samples, pct);
        lpath_bench::server::PhaseRow {
            phase,
            lpath: widest.lpath.to_string(),
            page_depth: depth,
            p50_ns: p(50.0),
            p90_ns: p(90.0),
            p99_ns: p(99.0),
            max_ns: *samples.last().unwrap_or(&0),
        }
    };
    let cold = measure("cold_page", None, 0);
    let deep = measure("deep_page", deep_token.as_deref(), page_depth);
    println!(
        "\ncold vs deep (Q{} {}, {} pages): cold p50 {}ns, deep p50 {}ns\n",
        widest.id,
        widest.lpath,
        page_depth + 1,
        cold.p50_ns,
        deep.p50_ns,
    );

    let report = lpath_bench::server::ServerReport {
        wsj_sentences: wsj_n,
        shards: SHARDS,
        page_limit: PAGE,
        per_concurrency,
        page_phases: vec![cold, deep],
    };
    let json = report.to_json();
    lpath_bench::server::validate(&json).expect("server report shape");
    match std::fs::write("BENCH_server.json", &json) {
        Ok(()) => println!("wrote BENCH_server.json\n"),
        Err(e) => eprintln!("could not write BENCH_server.json: {e}\n"),
    }
}
