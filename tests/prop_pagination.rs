//! Pagination invariants, property-tested across every query layer.
//!
//! The limit-aware pipeline (first-rows planning, adaptive tree-id
//! chunking, shard-level page pushdown) must never change *what* a
//! query answers — only how much work a page costs. The invariant that
//! pins this down: for any corpus, query, page size and offset,
//! concatenating pages is **byte-identical** to the full sorted result,
//! on the walker, the engine (both optimization goals) and the sharded
//! service alike.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is the acceptance floor of 256.

use proptest::prelude::*;

use lpath::prelude::*;
use lpath_relstore::{OptGoal, PlannerConfig};
use lpath_service::ResultSet;

mod fixtures;

// ---------------------------------------------------------------
// Random corpora (bracketed text through the real parser)
// ---------------------------------------------------------------

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

/// A corpus of one to five random trees.
fn arb_corpus() -> impl Strategy<Value = Corpus> {
    prop::collection::vec(arb_subtree(2), 1..6).prop_map(|trees| {
        let text: String = trees.iter().map(|t| format!("( (S {t}) )\n")).collect();
        parse_str(&text).expect("generated treebank parses")
    })
}

/// Queries spanning the paths that matter for pagination: dense and
/// sparse anchors, joins, scopes, negation, attribute filters, the
/// walker fallback (`last()`), and queries matching nothing.
const POOL: [&str; 10] = [
    "//A",
    "//_",
    "//S//B",
    "//A->B",
    "//A[not(//B)]",
    "//S{//A$}",
    "//_[@lex=u]",
    "//B[//_[@lex=v]]",
    "//S/_[last()]", // no SQL translation: exercises the walker fallback
    "//ZZZ",         // matches nothing anywhere
];

/// Concatenate pages of size `page` until a short page proves
/// exhaustion, through `fetch(offset, limit)`.
fn paginate(page: usize, mut fetch: impl FnMut(usize, usize) -> Vec<(u32, NodeId)>) -> ResultSet {
    let mut out = Vec::new();
    loop {
        let chunk = fetch(out.len(), page);
        let short = chunk.len() < page;
        out.extend(chunk);
        if short {
            return out;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(256),
        ..ProptestConfig::default()
    })]

    #[test]
    fn page_concatenation_is_byte_identical_to_the_full_result(
        corpus in arb_corpus(),
        qi in 0usize..POOL.len(),
        page in 1usize..6,
        offset in 0usize..8,
        limit in 0usize..8,
        shards in 1usize..5,
    ) {
        let q = POOL[qi];
        let ast = parse(q).unwrap();
        let engine = Engine::build(&corpus);
        let walker = Walker::new(&corpus);
        let service = Service::with_config(
            &corpus,
            ServiceConfig { shards, threads: 1, ..ServiceConfig::default() },
        );

        // The reference: the engine's full document-ordered result
        // (itself pinned to the walker by the differential suite); for
        // walker-only queries the walker is the reference.
        let full = match engine.query_ast(&ast) {
            Ok(rows) => rows,
            Err(_) => walker.eval(&ast),
        };

        // Concatenated pages reproduce the full result exactly.
        let via_walker = paginate(page, |o, l| walker.eval_limit(&ast, o, l));
        prop_assert_eq!(&via_walker, &full, "walker pages on {}", q);
        if engine.query_ast(&ast).is_ok() {
            let via_engine = paginate(page, |o, l| engine.query_limit_ast(&ast, o, l).unwrap());
            prop_assert_eq!(&via_engine, &full, "engine pages on {}", q);
        }
        let via_service = paginate(page, |o, l| service.eval_page(q, o, l).unwrap());
        prop_assert_eq!(&via_service, &full, "service pages at {} shards on {}", shards, q);

        // Any single (offset, limit) window equals the full-result
        // slice, on every layer — including offsets past the end.
        let want: ResultSet = full.iter().skip(offset).take(limit).copied().collect();
        prop_assert_eq!(&walker.eval_limit(&ast, offset, limit), &want, "walker {}", q);
        if engine.query_ast(&ast).is_ok() {
            prop_assert_eq!(
                &engine.query_limit_ast(&ast, offset, limit).unwrap(),
                &want,
                "engine {}/{} on {}", offset, limit, q
            );
        }
        prop_assert_eq!(
            &service.eval_page(q, offset, limit).unwrap(),
            &want,
            "service {}/{} on {}", offset, limit, q
        );
    }

    #[test]
    fn first_rows_and_all_rows_plans_answer_identically(
        corpus in arb_corpus(),
        qi in 0usize..POOL.len(),
        k in 1usize..12,
    ) {
        // The optimization goal may pick a different join order; it
        // must never change the result set — full or paged.
        let q = POOL[qi];
        let ast = parse(q).unwrap();
        let all_rows = Engine::build(&corpus);
        let first_rows = Engine::with_config(
            &corpus,
            PlannerConfig { goal: OptGoal::FirstRows(k), ..Default::default() },
        );
        let (a, b) = (all_rows.query_ast(&ast), first_rows.query_ast(&ast));
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a, &b, "goals disagree on {}", q);
                for (goal, engine) in [(OptGoal::AllRows, &all_rows), (OptGoal::FirstRows(k), &first_rows)] {
                    let page = engine.query_limit_ast(&ast, 0, k).unwrap();
                    prop_assert_eq!(
                        &page[..],
                        &a[..k.min(a.len())],
                        "page under {:?} on {}", goal, q
                    );
                }
            }
            (Err(_), Err(_)) => {} // walker-only query: no plans to compare
            (a, b) => prop_assert!(false, "{}: one goal errored: {:?} vs {:?}", q, a.is_ok(), b.is_ok()),
        }
    }
}

// ---------------------------------------------------------------
// The 23 evaluation queries, deterministically
// ---------------------------------------------------------------

#[test]
fn evaluation_queries_paginate_identically_across_goals_and_layers() {
    let corpus = generate(&GenConfig::wsj(60).with_seed(11));
    let engine = Engine::build(&corpus);
    let first_rows = Engine::with_config(
        &corpus,
        PlannerConfig {
            goal: OptGoal::FirstRows(10),
            ..Default::default()
        },
    );
    let service = Service::with_config(
        &corpus,
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
    );
    for case in fixtures::eval_cases() {
        let ast = parse(case.lpath).unwrap();
        let full = engine.query(case.lpath).unwrap();
        assert_eq!(first_rows.query_ast(&ast).unwrap(), full, "Q{}", case.id);
        for (offset, limit) in [(0, 1), (0, 10), (7, 10), (full.len(), 5)] {
            let want: ResultSet = full.iter().skip(offset).take(limit).copied().collect();
            for (goal, engine) in [("AllRows", &engine), ("FirstRows", &first_rows)] {
                assert_eq!(
                    engine.query_limit_ast(&ast, offset, limit).unwrap(),
                    want,
                    "Q{} {offset}/{limit} under {goal}",
                    case.id
                );
            }
            assert_eq!(
                service.eval_page(case.lpath, offset, limit).unwrap(),
                want,
                "Q{} {offset}/{limit} service",
                case.id
            );
        }
    }
}
