//! Pagination invariants, property-tested across every query layer.
//!
//! The limit-aware pipeline (pages from positions, shard-level page
//! pushdown) must never change *what* a query answers — only how much
//! work a page costs. The invariant that pins this down: for any
//! corpus, query, page size and offset, concatenating pages is
//! **byte-identical** to the full sorted result, on the walker, the
//! engine (both join orders) and the sharded service alike.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is the acceptance floor of 256.

use proptest::prelude::*;

use lpath::prelude::*;
use lpath_relstore::{JoinOrder, PlannerConfig};
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
    fn offset_pages_never_write_the_row_store(
        corpus in arb_corpus(),
        qi in 0usize..POOL.len(),
        windows in prop::collection::vec((0usize..12, 1usize..6), 1..6),
        shards in 1usize..5,
    ) {
        // The row store holds complete per-shard results that only
        // `eval` writes: any run of offset pages leaves it empty, and
        // each page is the matching slice of `eval`.
        let q = POOL[qi];
        let service = Service::with_config(
            &corpus,
            ServiceConfig { shards, threads: 1, ..ServiceConfig::default() },
        );
        let reference = Service::with_config(
            &corpus,
            ServiceConfig { shards, threads: 1, ..ServiceConfig::default() },
        );
        let full = reference.eval(q).unwrap();
        for (offset, limit) in windows {
            let want: ResultSet = full.iter().skip(offset).take(limit).copied().collect();
            prop_assert_eq!(service.eval_page(q, offset, limit).unwrap(), want, "{}", q);
            prop_assert_eq!(service.stats().shard_result_cache_entries, 0, "{}", q);
        }
    }

    #[test]
    fn join_orders_answer_and_page_identically(
        corpus in arb_corpus(),
        qi in 0usize..POOL.len(),
        k in 1usize..12,
    ) {
        // The join order changes how pages are computed, never the
        // result set — full or paged.
        let q = POOL[qi];
        let ast = parse(q).unwrap();
        let greedy = Engine::build(&corpus);
        let syntactic = Engine::with_config(
            &corpus,
            PlannerConfig { order: JoinOrder::Syntactic },
        );
        let (a, b) = (greedy.query_ast(&ast), syntactic.query_ast(&ast));
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a, &b, "join orders disagree on {}", q);
                for engine in [&greedy, &syntactic] {
                    let page = engine.query_limit_ast(&ast, 0, k).unwrap();
                    prop_assert_eq!(&page[..], &a[..k.min(a.len())], "page on {}", q);
                }
            }
            (Err(_), Err(_)) => {} // walker-only query: no plans to compare
            (a, b) => prop_assert!(false, "{}: one order errored: {:?} vs {:?}", q, a.is_ok(), b.is_ok()),
        }
    }
}

// ---------------------------------------------------------------
// The 23 evaluation queries, deterministically
// ---------------------------------------------------------------

#[test]
fn evaluation_queries_paginate_identically_across_orders_and_layers() {
    let corpus = generate(&GenConfig::wsj(60).with_seed(11));
    let engine = Engine::build(&corpus);
    let syntactic = Engine::with_config(
        &corpus,
        PlannerConfig {
            order: JoinOrder::Syntactic,
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
        assert_eq!(syntactic.query_ast(&ast).unwrap(), full, "Q{}", case.id);
        for (offset, limit) in [(0, 1), (0, 10), (7, 10), (full.len(), 5)] {
            let want: ResultSet = full.iter().skip(offset).take(limit).copied().collect();
            for (order, engine) in [("greedy", &engine), ("syntactic", &syntactic)] {
                assert_eq!(
                    engine.query_limit_ast(&ast, offset, limit).unwrap(),
                    want,
                    "Q{} {offset}/{limit} under {order}",
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
