//! Resumable-execution invariants, property-tested across every layer.
//!
//! Suspending an enumeration and resuming it later must be
//! *unobservable* in the output: for any corpus, query and split
//! schedule, the concatenation of resumed chunks is byte-identical to
//! the uninterrupted enumeration — on the relstore cursor (pipeline
//! order), the walker, the engine (document order) and the sharded
//! service's checkpointed page path alike. On top of that, cached
//! prefixes extended *across* `append_ptb` must agree with a fresh
//! evaluation of the grown corpus.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is the acceptance floor of 256.

use proptest::prelude::*;

use lpath::prelude::*;
use lpath_service::ResultSet;

mod fixtures;

/// A random subtree of bounded depth/width in bracketed form.
fn arb_subtree(depth: u32) -> BoxedStrategy<String> {
    let tag = prop_oneof![
        Just("A".to_string()),
        Just("B".to_string()),
        Just("C".to_string()),
    ];
    let word = prop_oneof![
        Just("u".to_string()),
        Just("v".to_string()),
        Just("w".to_string()),
    ];
    if depth == 0 {
        (tag, word).prop_map(|(t, w)| format!("({t} {w})")).boxed()
    } else {
        let leaf = (
            prop_oneof![
                Just("A".to_string()),
                Just("B".to_string()),
                Just("C".to_string()),
            ],
            word,
        )
            .prop_map(|(t, w)| format!("({t} {w})"));
        let inner = (tag, prop::collection::vec(arb_subtree(depth - 1), 1..3))
            .prop_map(|(t, kids)| format!("({t} {})", kids.join(" ")));
        prop_oneof![2 => leaf, 2 => inner].boxed()
    }
}

/// Bracketed text for one to five random trees (kept as text so the
/// append tests can split it into an initial corpus and a tail batch).
fn arb_treebank() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_subtree(2), 1..6)
        .prop_map(|trees| trees.iter().map(|t| format!("( (S {t}) )")).collect())
}

/// Queries spanning the resumable paths: name anchors, joins and
/// negation, attribute filters, the walker fallback, and queries
/// matching nothing.
const POOL: [&str; 9] = [
    "//A",
    "//_",
    "//S//B",
    "//A->B",
    "//A[not(//B)]",
    "//_[@lex=u]",
    "//B[//_[@lex=v]]",
    "//S/_[last()]", // no SQL translation: exercises the walker fallback
    "//ZZZ",         // matches nothing anywhere
];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(256),
        ..ProptestConfig::default()
    })]

    #[test]
    fn engine_and_walker_resume_is_unobservable(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
        chunk in 1usize..5,
        split in 0usize..12,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let ast = parse(q).unwrap();
        let engine = Engine::build(&corpus);
        let walker = Walker::new(&corpus);
        let full = match engine.query_ast(&ast) {
            Ok(rows) => rows,
            Err(_) => walker.eval(&ast),
        };

        // Walker: split at an arbitrary boundary, then drain.
        let (head, ckpt) = walker.eval_resume(&ast, None, split.max(1));
        let cut = split.max(1).min(full.len());
        prop_assert_eq!(&head[..], &full[..cut], "walker head on {}", q);
        if let Some(ckpt) = ckpt {
            let (tail, end) = walker.eval_resume(&ast, Some(ckpt), usize::MAX);
            prop_assert_eq!(&tail[..], &full[cut..], "walker tail on {}", q);
            prop_assert!(end.is_none());
        } else {
            prop_assert_eq!(cut, full.len(), "walker early None on {}", q);
        }

        // Walker: fixed-size chunks to exhaustion.
        let mut got: ResultSet = Vec::new();
        let mut ckpt = None;
        loop {
            let (rows, next) = walker.eval_resume(&ast, ckpt, chunk);
            got.extend(rows);
            match next {
                Some(c) => ckpt = Some(c),
                None => break,
            }
        }
        prop_assert_eq!(&got, &full, "walker chunked sweep on {}", q);

        // Engine (translatable queries): same two schedules.
        if engine.query_ast(&ast).is_ok() {
            let (head, ckpt) = engine.query_resume(&ast, None, split.max(1)).unwrap();
            prop_assert_eq!(&head[..], &full[..cut], "engine head on {}", q);
            if let Some(ckpt) = ckpt {
                let (tail, end) = engine.query_resume(&ast, Some(ckpt), usize::MAX).unwrap();
                prop_assert_eq!(&tail[..], &full[cut..], "engine tail on {}", q);
                prop_assert!(end.is_none());
            } else {
                prop_assert_eq!(cut, full.len(), "engine early None on {}", q);
            }
            let mut got: ResultSet = Vec::new();
            let mut ckpt = None;
            loop {
                let (rows, next) = engine.query_resume(&ast, ckpt, chunk).unwrap();
                got.extend(rows);
                match next {
                    Some(c) => ckpt = Some(c),
                    None => break,
                }
            }
            prop_assert_eq!(&got, &full, "engine chunked sweep on {}", q);
        }
    }

    #[test]
    fn service_page_sweep_rides_checkpoints_exactly(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
        page in 1usize..5,
        shards in 1usize..5,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let ast = parse(q).unwrap();
        let engine = Engine::build(&corpus);
        let full = match engine.query_ast(&ast) {
            Ok(rows) => rows,
            Err(_) => Walker::new(&corpus).eval(&ast),
        };
        let service = Service::with_config(
            &corpus,
            ServiceConfig { shards, threads: 1, ..ServiceConfig::default() },
        );
        // Sweep pages 1..K on one service so every deeper page
        // extends the cached, checkpointed prefixes of the earlier
        // ones.
        let mut got: ResultSet = Vec::new();
        loop {
            let chunk = service.eval_page(q, got.len(), page).unwrap();
            let short = chunk.len() < page;
            got.extend(chunk);
            if short {
                break;
            }
        }
        prop_assert_eq!(&got, &full, "service sweep at {} shards on {}", shards, q);
        // The sweep never fell back to full shard evaluations.
        prop_assert_eq!(service.stats().shard_evals, 0, "sweep fully page-bounded on {}", q);
    }

    #[test]
    fn prefixes_extended_across_append_match_fresh_evaluation(
        trees in arb_treebank(),
        tail in arb_treebank(),
        qi in 0usize..POOL.len(),
        page in 1usize..4,
        shards in 1usize..4,
        warm in 0usize..6,
    ) {
        let q = POOL[qi];
        let service = Service::with_config(
            &parse_str(&trees.join("\n")).expect("parses"),
            ServiceConfig { shards, threads: 1, ..ServiceConfig::default() },
        );
        // Warm the prefix cache with a few pages…
        service.eval_page(q, 0, warm.max(1)).unwrap();
        // …grow the corpus…
        service.append_ptb(&tail.join("\n")).unwrap();
        // …and sweep pages over the grown corpus: head-shard prefixes
        // survive the append (build-id scoping) and must agree with a
        // from-scratch evaluation of the whole grown corpus.
        let grown = parse_str(&[trees, tail].concat().join("\n")).expect("parses");
        let engine = Engine::build(&grown);
        let ast = parse(q).unwrap();
        let full = match engine.query_ast(&ast) {
            Ok(rows) => rows,
            Err(_) => Walker::new(&grown).eval(&ast),
        };
        let mut got: ResultSet = Vec::new();
        loop {
            let chunk = service.eval_page(q, got.len(), page).unwrap();
            let short = chunk.len() < page;
            got.extend(chunk);
            if short {
                break;
            }
        }
        prop_assert_eq!(&got, &full, "post-append sweep at {} shards on {}", shards, q);
    }
}

/// Does `query_resume` keep `ast` on the suspended pipeline? Every
/// translatable query that is not statically empty and whose matches
/// span at least two trees must come back from a one-row first page
/// with a live (streaming) checkpoint: its anchor is tree-ordered, so
/// the cursor suspends inside the second tree. The engine's
/// full-evaluation fallback — meant only for the constant-empty plan —
/// would return a drained checkpoint instead.
fn streams_if_it_spans_trees(engine: &Engine, ast: &Path) -> Result<(), String> {
    let Ok(full) = engine.query_ast(ast) else {
        return Ok(()); // no relational translation: the walker pages it
    };
    if engine.check_ast(ast).statically_empty || full.iter().all(|m| m.0 == full[0].0) {
        return Ok(());
    }
    match engine.query_resume(ast, None, 1) {
        Ok((_, Some(ckpt))) if ckpt.is_streaming() => Ok(()),
        Ok((_, Some(_))) => Err("first page drained the enumeration".into()),
        Ok((_, None)) => Err("first page returned no checkpoint".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// The engine under each join order the planner offers.
fn engines_under_every_order(corpus: &Corpus) -> [Engine; 2] {
    [JoinOrder::GreedyStats, JoinOrder::Syntactic].map(|order| {
        Engine::with_config(
            corpus,
            PlannerConfig {
                order,
                ..PlannerConfig::default()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(256),
        ..ProptestConfig::default()
    })]

    /// Every real query pages from the suspended pipeline, under both
    /// join orders: no translatable, satisfiable query whose matches
    /// span trees reaches the full-evaluation fallback.
    #[test]
    fn real_queries_page_from_the_suspended_pipeline(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let ast = parse(q).unwrap();
        for engine in engines_under_every_order(&corpus) {
            if let Err(why) = streams_if_it_spans_trees(&engine, &ast) {
                return Err(TestCaseError::fail(format!("{q}: {why}")));
            }
        }
    }
}

// ---------------------------------------------------------------
// The 23 evaluation queries, deterministically
// ---------------------------------------------------------------

#[test]
fn evaluation_queries_page_from_the_suspended_pipeline() {
    let corpus = generate(&GenConfig::wsj(40).with_seed(7));
    for engine in engines_under_every_order(&corpus) {
        for case in fixtures::eval_cases() {
            let ast = parse(case.lpath).unwrap();
            if let Err(why) = streams_if_it_spans_trees(&engine, &ast) {
                panic!("Q{}: {why}", case.id);
            }
        }
    }
}

#[test]
fn evaluation_queries_resume_identically_at_every_layer() {
    let corpus = generate(&GenConfig::wsj(40).with_seed(7));
    let engine = Engine::build(&corpus);
    let service = Service::with_config(
        &corpus,
        ServiceConfig {
            shards: 3,
            ..ServiceConfig::default()
        },
    );
    for case in fixtures::eval_cases() {
        let ast = parse(case.lpath).unwrap();
        let full = engine.query(case.lpath).unwrap();
        // Engine: resume after 1, then 7, then the rest.
        let mut got = Vec::new();
        let mut ckpt = None;
        for limit in [1usize, 7, usize::MAX] {
            let (rows, next) = engine.query_resume(&ast, ckpt.take(), limit).unwrap();
            got.extend(rows);
            match next {
                Some(c) => ckpt = Some(c),
                None => break,
            }
        }
        if ckpt.is_some() {
            let (rows, _) = engine.query_resume(&ast, ckpt, usize::MAX).unwrap();
            got.extend(rows);
        }
        assert_eq!(got, full, "Q{} engine resume", case.id);
        // Service: page sweep with growing offsets.
        let mut got: ResultSet = Vec::new();
        loop {
            let chunk = service.eval_page(case.lpath, got.len(), 5).unwrap();
            let short = chunk.len() < 5;
            got.extend(chunk);
            if short {
                break;
            }
        }
        assert_eq!(got, full, "Q{} service sweep", case.id);
    }
    // The whole sweep stayed on the resumable page path.
    assert_eq!(service.stats().shard_evals, 0);
}
