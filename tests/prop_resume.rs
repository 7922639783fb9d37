//! Resumable-enumeration invariants, property-tested across every
//! layer.
//!
//! Stopping an enumeration and continuing it later from its position
//! — the tree to continue from and how many of its matches were
//! already served — must be *unobservable* in the output: for any
//! corpus, query and split schedule, the concatenation of the pages is
//! byte-identical to the uninterrupted enumeration — on the walker,
//! the engine (document order) and the sharded service's positioned
//! page sweeps alike. Any position names a suffix of the result. On
//! top of that, pages swept *across* `append_ptb` must agree with a
//! fresh evaluation of the grown corpus.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is the acceptance floor of 256.

use proptest::prelude::*;

use lpath::prelude::*;
use lpath_core::{Paged, Position};
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
/// negation, attribute filters, a multi-step scope (its scope alias
/// bound per candidate), two separate cycles (the cursor), the walker
/// fallback, and queries matching nothing.
const POOL: [&str; 11] = [
    "//A",
    "//_",
    "//S//B",
    "//A->B",
    "//A[not(//B)]",
    "//_[@lex=u]",
    "//B[//_[@lex=v]]",
    "//S{/A-->B}",             // cyclic through the scope alias: binds it per candidate
    "//S[{//A->B}]/A{/B-->C}", // two separate cycles: pages on the cursor
    "//S/_[last()]",           // no SQL translation: exercises the walker fallback
    "//ZZZ",                   // matches nothing anywhere
];

/// Split `layer`'s pages at an arbitrary boundary and drain, then
/// page `chunk` rows at a time to exhaustion: both schedules
/// concatenate to `full`.
fn pages_concatenate(
    layer: &str,
    q: &str,
    full: &[(u32, NodeId)],
    split: usize,
    chunk: usize,
    page: impl Fn(Position, usize) -> Paged,
) -> Result<(), TestCaseError> {
    let cut = split.max(1).min(full.len());
    let (head, next) = page(Position::START, split.max(1));
    prop_assert_eq!(&head[..], &full[..cut], "{} head on {}", layer, q);
    if let Some(at) = next {
        let (tail, end) = page(at, usize::MAX);
        prop_assert_eq!(&tail[..], &full[cut..], "{} tail on {}", layer, q);
        prop_assert!(end.is_none());
    } else {
        prop_assert_eq!(cut, full.len(), "{} early None on {}", layer, q);
    }
    let (mut got, mut at) = (Vec::new(), Position::START);
    loop {
        let (rows, next) = page(at, chunk);
        got.extend(rows);
        match next {
            Some(p) => at = p,
            None => break,
        }
    }
    prop_assert_eq!(&got[..], full, "{} chunked sweep on {}", layer, q);
    Ok(())
}

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

        // Walker, then engine (translatable queries).
        pages_concatenate("walker", q, &full, split, chunk, |at, limit| {
            walker.eval_resume(&ast, at, limit)
        })?;
        if engine.query_ast(&ast).is_ok() {
            pages_concatenate("engine", q, &full, split, chunk, |at, limit| {
                engine.page_ast(&ast, at, limit).unwrap()
            })?;
        }
    }

    #[test]
    fn service_offset_pages_sweep_from_positions_exactly(
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
        // Sweep pages 1..K on one service: each offset page is a
        // positioned sweep from the corpus start.
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
    fn positioned_pages_across_append_match_fresh_evaluation(
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
        // Page a little way in…
        service.eval_page(q, 0, warm.max(1)).unwrap();
        // …grow the corpus…
        service.append_ptb(&tail.join("\n")).unwrap();
        // …and sweep pages over the grown corpus: they must agree with
        // a from-scratch evaluation of the whole grown corpus.
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

/// The engine under each join order the planner offers.
fn engines_under_every_order(corpus: &Corpus) -> [Engine; 2] {
    [JoinOrder::GreedyStats, JoinOrder::Syntactic]
        .map(|order| Engine::with_config(corpus, PlannerConfig { order }))
}

/// Does the cursor plan of `ast` — what pages and budgeted counts run
/// when no semijoin program answers — start at a tree? A plan whose
/// anchor is not tree-ordered would send every page and count back to
/// evaluating the whole corpus, filtering and sorting; only the
/// constant-empty plan may lack an anchor.
fn starts_at_a_tree(engine: &Engine, ast: &Path) -> Result<(), String> {
    if engine.query_ast(ast).is_err() {
        return Ok(()); // no relational translation: the walker pages it
    }
    if engine
        .cursor_starts_at_a_tree(ast)
        .map_err(|e| e.to_string())?
    {
        Ok(())
    } else {
        Err("the cursor plan evaluates the whole corpus".to_string())
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(256),
        ..ProptestConfig::default()
    })]

    /// Every real query pages and counts from a tree under both join
    /// orders: no translatable query reaches the whole-corpus
    /// fallback.
    #[test]
    fn real_queries_page_from_a_tree_under_every_order(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let ast = parse(q).unwrap();
        for engine in engines_under_every_order(&corpus) {
            if let Err(why) = starts_at_a_tree(&engine, &ast) {
                return Err(TestCaseError::fail(format!("{q}: {why}")));
            }
        }
    }

    /// Any position — inside a tree, past its matches, past the
    /// corpus — pages a suffix of the result under both join orders:
    /// the trees from `tree` on, less the first `skip` matches of
    /// `tree`.
    #[test]
    fn every_position_pages_a_suffix_under_every_order(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
        tree in 0u32..7,
        skip in 0u32..4,
        limit in 1usize..5,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let ast = parse(q).unwrap();
        for engine in engines_under_every_order(&corpus) {
            let Ok(full) = engine.query_ast(&ast) else {
                return Ok(()); // no relational translation
            };
            let first = full.iter().position(|m| m.0 >= tree).unwrap_or(full.len());
            let in_tree = full[first..].iter().take_while(|m| m.0 == tree).count();
            let suffix = &full[first + (skip as usize).min(in_tree)..];
            let (mut got, mut at) = (Vec::new(), Position { tree, skip });
            loop {
                let (rows, next) = engine.page_ast(&ast, at, limit).unwrap();
                got.extend(rows);
                match next {
                    Some(p) => at = p,
                    None => break,
                }
            }
            prop_assert_eq!(&got[..], suffix, "{} from ({}, {})", q, tree, skip);
        }
    }
}

// ---------------------------------------------------------------
// The 23 evaluation queries, deterministically
// ---------------------------------------------------------------

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
        // Engine: a page of 1, then 7, then the rest.
        let mut got = Vec::new();
        let mut at = Some(Position::START);
        for limit in [1usize, 7, usize::MAX] {
            let Some(from) = at else { break };
            let (rows, next) = engine.page_ast(&ast, from, limit).unwrap();
            got.extend(rows);
            at = next;
        }
        assert!(at.is_none(), "Q{} pages past the end", case.id);
        assert_eq!(got, full, "Q{} engine pages", case.id);
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
