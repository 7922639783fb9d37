//! Paper-table harness: regenerates every figure of the evaluation
//! section as a textual table, using the paper's own methodology
//! (7 runs, trimmed mean).
//!
//! ```text
//! harness [fig6a|fig6b|fig6c|fig7|fig8|fig9|fig10|ablation|extended|sql|all] [sentences]
//! ```
//!
//! With no arguments, prints everything at the default scale (1/20 of
//! the paper's corpus; see `lpath-bench`'s crate docs). Service, socket
//! and per-layer numbers come from the `benchmark/` workspace instead.

use lpath_bench::{
    default_swb_sentences, default_wsj_sentences, figure10_rows, figure7_rows, fmt_secs,
    swb_corpus, time7, wsj_corpus, Engines,
};
use lpath_core::{Engine, Walker, EXTENDED_QUERIES, QUERIES};
use lpath_corpussearch::CS_QUERIES;
use lpath_model::{Corpus, Profile};
use lpath_relstore::{JoinOrder, PlannerConfig};
use lpath_tgrep::TGREP_QUERIES;

const USAGE: &str = "fig6a|fig6b|fig6c|fig7|fig8|fig9|fig10|ablation|extended|sql|all";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what = args.first().map_or("all", String::as_str);
    if !USAGE.split('|').any(|mode| mode == what) {
        eprintln!("unknown figure '{what}'; expected {USAGE}");
        std::process::exit(2);
    }
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
        _ => {
            fig6a(&wsj, &swb);
            fig6b(&wsj, &swb);
            fig6c(&wsj, &swb);
            fig7_or_8(&wsj, Profile::Wsj);
            fig7_or_8(&swb, Profile::Swb);
            fig9(&wsj, wsj_n);
            fig10(&wsj);
            ablation(&wsj);
            extended(&wsj, &swb);
            sql(&wsj);
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
    // The cursor's count under each order: `Engine::count` would run
    // the semijoin program, which has no join order, on most queries.
    let engine = Engine::build(wsj);
    let db = engine.database();
    let cursor_count = |lpath: &str, order: JoinOrder| {
        let cq = engine
            .translate(&lpath_syntax::parse(lpath).unwrap())
            .unwrap();
        let plan = lpath_relstore::plan(
            db,
            &cq,
            &PlannerConfig {
                order,
                ..Default::default()
            },
        );
        lpath_relstore::count(&plan, db)
    };
    println!("{:<5}{:>12}{:>12}{:>9}", "Q", "greedy", "syntactic", "×");
    for q in QUERIES {
        let a = time7(|| {
            cursor_count(q.lpath, JoinOrder::GreedyStats);
        });
        let b = time7(|| {
            cursor_count(q.lpath, JoinOrder::Syntactic);
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

/// Show the generated SQL for every evaluation query (paper §4).
fn sql(wsj: &Corpus) {
    println!("== LPath → SQL translations ==");
    let e = Engine::build(wsj);
    for q in QUERIES {
        println!("-- Q{}: {}", q.id, q.lpath);
        let ast = lpath_syntax::parse(q.lpath).expect("evaluation query parses");
        match e.sql_ast(&ast) {
            Ok(sql) => println!("   {sql}\n"),
            Err(err) => println!("   (unsupported: {err})\n"),
        }
    }
}
