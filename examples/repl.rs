//! An interactive LPath shell: the linguist's corpus session.
//!
//! Reads LPath queries from stdin, one per line, and prints the match
//! count, the translated SQL, and the first few matches rendered in
//! their tree context. Dot-commands:
//!
//! * `.sql QUERY`      — show the SQL only;
//! * `.plan QUERY`     — show the physical plan (EXPLAIN);
//! * `:analyze QUERY`  — run the query and show the plan annotated
//!   with actual rows, probes and per-step time (EXPLAIN ANALYZE);
//! * `:check QUERY`    — static analysis only: spanned lints plus the
//!   vocabulary-aware emptiness verdict, without executing anything;
//! * `:count QUERY`    — count matches without materializing them
//!   (O(index) when the query hits the aggregate tables — check
//!   `count_fast` under `:metrics`);
//! * `:hist QUERY`     — match histogram: total, matches per tree,
//!   matches per label;
//! * `:metrics`        — the service's latency/slow-query snapshot
//!   (plain queries are served through an instrumented service);
//! * `.tree N`         — render tree N;
//! * `.stats`          — corpus statistics (Figure 6(a) shape);
//! * `.help`, `.quit`
//!
//! ```sh
//! cargo run --release --example repl                 # synthetic WSJ sample
//! cargo run --release --example repl -- corpus.mrg   # your own treebank
//! cargo run --release --example repl -- corpus.xml   # …or its XML form
//! echo '//VB->NP' | cargo run --release --example repl
//! ```

use std::io::{self, BufRead, Write};

use lpath::model::render::render_tree;
use lpath::model::xml;
use lpath::prelude::*;

fn main() {
    // Load the treebank named on the command line (bracketed PTB, or
    // XML when the extension says so), or fall back to a seeded
    // WSJ-profile sample: small enough to start instantly, large
    // enough for queries to have interesting answers.
    let (corpus, origin) = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            let corpus = if path.ends_with(".xml") {
                xml::parse_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
            } else {
                parse_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
            };
            (corpus, path)
        }
        None => (
            generate(&GenConfig {
                profile: Profile::Wsj,
                sentences: 500,
                seed: 42,
            }),
            "synthetic WSJ sample".to_string(),
        ),
    };
    let engine = Engine::build(&corpus);
    // Plain queries go through an instrumented service, so `:metrics`
    // reflects the session's actual traffic.
    let service = Service::build(&corpus);
    let stats = corpus.stats();
    println!(
        "loaded {origin}: {} trees, {} nodes, {} unique tags",
        stats.trees, stats.total_nodes, stats.unique_tags
    );
    println!("type an LPath query (`.help` for commands)\n");

    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        print!("lpath> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) | Err(_) => break, // EOF
            Ok(_) => {}
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line.split_once(' ').map_or((line, ""), |(a, b)| (a, b)) {
            (".quit" | ".exit", _) => break,
            (".help", _) => {
                println!(
                    ".sql QUERY      show translated SQL\n\
                     .plan QUERY     show the physical plan\n\
                     :analyze QUERY  execute and show the annotated plan\n\
                     :check QUERY    static lints + emptiness verdict (no execution)\n\
                     :count QUERY    count matches without materializing rows\n\
                     :hist QUERY     match histogram (per tree, per label)\n\
                     :metrics        service latency/slow-query snapshot\n\
                     .tree N         render tree N\n\
                     .stats          corpus statistics\n\
                     .quit           leave"
                );
            }
            (".stats", _) => {
                let s = corpus.stats();
                println!(
                    "trees {}  nodes {}  tokens {}  unique tags {}  max depth {}",
                    s.trees, s.total_nodes, s.total_tokens, s.unique_tags, s.max_depth
                );
            }
            (".sql", q) => match parse(q)
                .map_err(EngineError::from)
                .and_then(|ast| engine.sql_ast(&ast))
            {
                Ok(sql) => println!("{sql}"),
                Err(e) => println!("error: {e}"),
            },
            (".plan", q) => match engine.explain(q) {
                Ok(plan) => print!("{plan}"),
                Err(e) => println!("error: {e}"),
            },
            (":analyze" | ".analyze", q) => match engine.explain_analyze(q) {
                Ok(report) => print!("{report}"),
                Err(e) => println!("error: {e}"),
            },
            (":check" | ".check", q) => match service.check(q) {
                Ok(report) => {
                    if report.is_clean() {
                        println!("clean: no lints, not statically empty");
                    } else {
                        print!("{}", report.render(q));
                        if report.statically_empty {
                            println!(
                                "verdict: statically empty (would run the constant-empty plan)"
                            );
                        }
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            (":count" | ".count", q) => match service.count(q) {
                Ok(n) => println!("{n} match(es)"),
                Err(e) => println!("error: {e}"),
            },
            (":hist" | ".hist", q) => match service.hist(q) {
                Ok(h) => {
                    println!("{} match(es) total", h.total);
                    for (tid, n) in &h.per_tree {
                        println!("  tree {tid:>6}  {n}");
                    }
                    for (label, n) in &h.per_label {
                        println!("  {label:<10} {n}");
                    }
                }
                Err(e) => println!("error: {e}"),
            },
            (":metrics" | ".metrics", _) => {
                print!("{}", service.metrics().to_json());
            }
            (".tree", n) => match n.trim().parse::<usize>() {
                Ok(i) if i < corpus.trees().len() => {
                    print!(
                        "{}",
                        render_tree(&corpus.trees()[i], corpus.interner(), &[])
                    );
                }
                _ => println!("error: tree index 0..{}", corpus.trees().len()),
            },
            _ => run_query(&corpus, &service, line),
        }
    }
    println!();
}

fn run_query(corpus: &Corpus, service: &Service, query: &str) {
    let matches = match service.eval(query) {
        Ok(m) => m,
        Err(e) => {
            println!("error: {e}");
            return;
        }
    };
    println!("{} match(es)", matches.len());
    // Show up to two matched trees with their matches highlighted.
    let mut shown = 0;
    let mut i = 0;
    while i < matches.len() && shown < 2 {
        let tid = matches[i].0;
        let nodes: Vec<NodeId> = matches
            .iter()
            .filter(|(t, _)| *t == tid)
            .map(|&(_, n)| n)
            .collect();
        println!("— tree {tid} ({} match(es) marked *) —", nodes.len());
        print!(
            "{}",
            render_tree(&corpus.trees()[tid as usize], corpus.interner(), &nodes)
        );
        while i < matches.len() && matches[i].0 == tid {
            i += 1;
        }
        shown += 1;
    }
    if shown > 0 {
        println!();
    }
}
