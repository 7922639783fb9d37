//! Property-based soundness of the static analyzer (`lpath-check`).
//!
//! Random trees × random queries — deliberately including vocabulary
//! that never occurs (`Z`, `zz`), position and disjunction predicates,
//! and contradictions the analyzer hunts for. Two properties, per the
//! analyzer's contract:
//!
//! * **no false positives** — a query with any witness in the corpus
//!   is never reported statically empty;
//! * **diagnostics are inert** — the check pass (and the constant-empty
//!   fast path it feeds, in both the engine planner hook and the
//!   service) never changes what evaluation returns.
//!
//! Swept nightly at higher case counts via `PROPTEST_CASES`.

use proptest::prelude::*;

use lpath::prelude::*;
use lpath_syntax::{Axis, CmpOp, NodeTest, Path, PosRhs, Pred, Step};

// ---------------------------------------------------------------
// Random trees (bracketed text through the real parser), same shape
// as the differential suite: tags A–D under an S spine, words u/v/w.
// ---------------------------------------------------------------

fn arb_subtree(depth: u32) -> BoxedStrategy<String> {
    let tag = prop_oneof![
        Just("A".to_string()),
        Just("B".to_string()),
        Just("C".to_string()),
        Just("D".to_string()),
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
                Just("D".to_string()),
            ],
            word,
        )
            .prop_map(|(t, w)| format!("({t} {w})"));
        let inner = (tag, prop::collection::vec(arb_subtree(depth - 1), 1..4))
            .prop_map(|(t, kids)| format!("({t} {})", kids.join(" ")));
        prop_oneof![3 => leaf, 2 => inner].boxed()
    }
}

fn arb_corpus() -> impl Strategy<Value = Corpus> {
    prop::collection::vec(arb_subtree(3), 1..4).prop_map(|trees| {
        let text: String = trees.iter().map(|t| format!("( (S {t} {t}) )\n")).collect();
        parse_str(&text).expect("generated treebank parses")
    })
}

// ---------------------------------------------------------------
// Random queries. Unlike the differential suite this is NOT limited
// to the SQL-translatable fragment: position() and `or` exercise the
// analyzer's tautology/contradiction logic and the service's walker
// fallback at once.
// ---------------------------------------------------------------

fn arb_axis() -> impl Strategy<Value = Axis> {
    prop_oneof![
        Just(Axis::Child),
        Just(Axis::Descendant),
        Just(Axis::Parent),
        Just(Axis::Ancestor),
        Just(Axis::SelfAxis),
        Just(Axis::ImmediateFollowing),
        Just(Axis::Following),
        Just(Axis::ImmediatePreceding),
        Just(Axis::Preceding),
        Just(Axis::ImmediateFollowingSibling),
        Just(Axis::FollowingSibling),
        Just(Axis::ImmediatePrecedingSibling),
        Just(Axis::PrecedingSibling),
    ]
}

fn arb_test() -> impl Strategy<Value = NodeTest> {
    prop_oneof![
        Just(NodeTest::Any),
        Just(NodeTest::tag("A")),
        Just(NodeTest::tag("B")),
        Just(NodeTest::tag("C")),
        Just(NodeTest::tag("S")),
        Just(NodeTest::tag("Z")), // never present: statically empty bait
    ]
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    fn exists() -> impl Strategy<Value = Pred> {
        (arb_axis(), arb_test())
            .prop_map(|(axis, test)| Pred::Exists(Path::relative(vec![Step::new(axis, test)])))
    }
    fn attr_path() -> Path {
        Path::relative(vec![Step::new(Axis::Attribute, NodeTest::tag("lex"))])
    }
    let cmp = prop_oneof![Just("u"), Just("v"), Just("zz")].prop_map(|w| Pred::Cmp {
        path: attr_path(),
        op: CmpOp::Eq,
        value: w.to_string(),
    });
    // Positions around the interesting boundaries: 0 (impossible),
    // 1 (pinning), and last().
    let pos = (
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Gt),
        ],
        prop_oneof![
            4 => (0u32..4).prop_map(PosRhs::Const),
            1 => Just(PosRhs::Last),
        ],
    )
        .prop_map(|(op, rhs)| Pred::Position(op, rhs));
    let or = (exists(), exists()).prop_map(|(a, b)| Pred::or(a, b));
    // count() thresholds including the always-false `< 0`.
    let count = (
        arb_axis(),
        arb_test(),
        prop_oneof![
            Just((CmpOp::Gt, 0u32)),
            Just((CmpOp::Eq, 0)),
            Just((CmpOp::Lt, 0)),
            Just((CmpOp::Lt, 2)),
        ],
    )
        .prop_map(|(axis, test, (op, value))| Pred::Count {
            path: Path::relative(vec![Step::new(axis, test)]),
            op,
            value,
        });
    prop_oneof![
        3 => exists(),
        1 => exists().prop_map(Pred::not),
        2 => cmp,
        2 => pos,
        1 => or,
        1 => count,
    ]
}

fn arb_step(first: bool) -> impl Strategy<Value = Step> {
    let axis = if first {
        Just(Axis::Descendant).boxed()
    } else {
        arb_axis().boxed()
    };
    (axis, arb_test(), prop::collection::vec(arb_pred(), 0..3)).prop_map(
        |(axis, test, predicates)| {
            let mut step = Step::new(axis, test);
            step.predicates = predicates;
            step
        },
    )
}

fn arb_query() -> impl Strategy<Value = Path> {
    (
        arb_step(true),
        prop::collection::vec(arb_step(false), 0..3),
        prop::option::weighted(0.3, prop::collection::vec(arb_step(false), 1..3)),
    )
        .prop_map(|(head, rest, scope)| {
            let mut steps = vec![head];
            steps.extend(rest);
            let mut p = Path::absolute(steps);
            if let Some(inner) = scope {
                p = p.scoped(Path::relative(inner));
            }
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(256),
        ..ProptestConfig::default()
    })]

    #[test]
    fn analyzer_never_reports_a_matching_query_empty(
        corpus in arb_corpus(),
        query in arb_query(),
    ) {
        let engine = Engine::build(&corpus);
        let rows = Walker::new(&corpus).eval(&query);
        let report = engine.check_ast(&query);
        if report.statically_empty {
            prop_assert!(
                rows.is_empty(),
                "false positive on {}: {} witnesses exist\n{}",
                query, rows.len(), report.render(&query.to_string())
            );
        }
        // The verdict drives the planner hook; wherever the relational
        // translation applies, the (possibly constant-empty) plan must
        // still produce exactly the walker's answer.
        if let Ok(via_engine) = engine.query_ast(&query) {
            prop_assert_eq!(via_engine, rows, "check hook changed answers on {}", query);
        }
    }

    #[test]
    fn diagnostics_never_change_service_answers(
        corpus in arb_corpus(),
        query in arb_query(),
    ) {
        let svc = Service::build(&corpus);
        let printed = query.to_string();
        let mut expected = Walker::new(&corpus).eval(&query);
        expected.sort_unstable();
        let got = svc
            .eval(&printed)
            .unwrap_or_else(|e| panic!("{printed}: {e}"));
        let mut got = (*got).clone();
        got.sort_unstable();
        prop_assert_eq!(&got, &expected, "service diverged on {}", printed);
        // When the analyzer proved the query empty, the service must
        // actually have served it from the constant-empty fast path —
        // and that had better not have dropped any answers.
        if svc.compile(&printed).unwrap().statically_empty {
            prop_assert!(expected.is_empty(), "fast path dropped answers on {}", printed);
            prop_assert!(
                svc.stats().statically_empty >= 1,
                "statically-empty query was not served by the fast path: {}", printed
            );
        }
    }
}
