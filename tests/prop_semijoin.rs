//! Semijoin programs against the cursor and the walker.
//!
//! `Engine::query_ast`, `page_ast`, `count_ast`, `count_resume` and
//! `exists_ast` answer every query whose translation a semijoin
//! program covers by that program; the cursor (`Engine::matches_ast`)
//! and the tree walker answer the same queries by machinery that
//! shares nothing with it. For random trees × random covered queries —
//! negation, nested predicates, every conjunctive axis, attribute
//! steps, scopes and alignment — all three must agree.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is twice the acceptance floor of 256, as
//! most random queries match nothing.

use proptest::prelude::*;

use lpath::prelude::*;
use lpath_core::Position;
use lpath_syntax::{Axis, CmpOp, NodeTest, Path, Pred, Step, StrFunc};

/// A random subtree of bounded depth/width in bracketed form.
fn arb_subtree(depth: u32) -> BoxedStrategy<String> {
    let tag = || {
        prop_oneof![
            Just("A".to_string()),
            Just("B".to_string()),
            Just("C".to_string()),
            Just("D".to_string()),
        ]
    };
    let word = prop_oneof![
        Just("u".to_string()),
        Just("v".to_string()),
        Just("w".to_string()),
    ];
    let leaf = (tag(), word).prop_map(|(t, w)| format!("({t} {w})"));
    if depth == 0 {
        leaf.boxed()
    } else {
        let inner = (tag(), prop::collection::vec(arb_subtree(depth - 1), 1..4))
            .prop_map(|(t, kids)| format!("({t} {})", kids.join(" ")));
        prop_oneof![3 => leaf, 2 => inner].boxed()
    }
}

/// One to four random trees.
fn arb_corpus() -> impl Strategy<Value = Corpus> {
    prop::collection::vec(arb_subtree(3), 1..5).prop_map(|trees| {
        let text: String = trees.iter().map(|t| format!("( (S {t} {t}) )\n")).collect();
        parse_str(&text).expect("generated treebank parses")
    })
}

/// Every axis with a conjunctive Table 2 row.
fn arb_axis() -> impl Strategy<Value = Axis> {
    prop_oneof![
        Just(Axis::Child),
        Just(Axis::Descendant),
        Just(Axis::DescendantOrSelf),
        Just(Axis::Parent),
        Just(Axis::Ancestor),
        Just(Axis::AncestorOrSelf),
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
        4 => Just(NodeTest::Any),
        4 => Just(NodeTest::tag("A")),
        4 => Just(NodeTest::tag("B")),
        2 => Just(NodeTest::tag("C")),
        2 => Just(NodeTest::tag("S")),
        1 => Just(NodeTest::tag("Z")), // never present
    ]
}

fn lex() -> Step {
    Step::new(Axis::Attribute, NodeTest::tag("lex"))
}

/// A predicate nesting at most `depth` further predicates.
fn arb_pred(depth: u32) -> BoxedStrategy<Pred> {
    let path = prop_oneof![
        3 => prop::collection::vec(arb_step(depth), 1..2),
        1 => prop::collection::vec(arb_step(depth), 2..3),
    ]
    .prop_map(Path::relative);
    let exists = path.clone().prop_map(Pred::Exists);
    // `[@lex=w]`, or `[X/@lex=w]` through a step on any axis.
    let cmp = (
        prop::option::weighted(0.4, arb_step(0)),
        prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Ne)],
        prop_oneof![Just("u"), Just("v"), Just("zz")],
    )
        .prop_map(|(via, op, w)| {
            let mut steps: Vec<Step> = via.into_iter().collect();
            steps.push(lex());
            Pred::Cmp {
                path: Path::relative(steps),
                op,
                value: w.to_string(),
            }
        });
    let strfn = (
        prop_oneof![
            Just(StrFunc::Contains),
            Just(StrFunc::StartsWith),
            Just(StrFunc::EndsWith),
        ],
        prop_oneof![Just("u"), Just("v"), Just("z")],
    )
        .prop_map(|(func, arg)| Pred::StrCmp {
            func,
            path: Path::relative(vec![lex()]),
            arg: arg.to_string(),
        });
    let count = (
        path,
        prop_oneof![
            Just((CmpOp::Gt, 0u32)),
            Just((CmpOp::Eq, 0)),
            Just((CmpOp::Lt, 1)),
        ],
    )
        .prop_map(|(path, (op, value))| Pred::Count { path, op, value });
    let attr = Just(Pred::Exists(Path::relative(vec![lex()])));
    let base = prop_oneof![
        4 => exists.clone(),
        3 => exists.prop_map(Pred::not),
        2 => cmp.clone(),
        1 => cmp.prop_map(Pred::not),
        1 => strfn.clone(),
        1 => strfn.prop_map(Pred::not),
        1 => count,
        1 => attr.clone(),
        1 => attr.prop_map(Pred::not),
    ];
    prop_oneof![
        5 => base.clone(),
        1 => (base.clone(), base).prop_map(|(a, b)| Pred::and(a, b)),
    ]
    .boxed()
}

/// A step whose predicates nest at most `depth` deep.
fn arb_step(depth: u32) -> BoxedStrategy<Step> {
    let predicates = if depth == 0 {
        Just(Vec::new()).boxed()
    } else {
        prop_oneof![
            2 => Just(Vec::new()),
            2 => prop::collection::vec(arb_pred(depth - 1), 1..2),
            1 => prop::collection::vec(arb_pred(depth - 1), 2..3),
        ]
        .boxed()
    };
    (
        arb_axis(),
        arb_test(),
        predicates,
        prop::bool::weighted(0.1),
        prop::bool::weighted(0.1),
    )
        .prop_map(|(axis, test, predicates, la, ra)| {
            let mut step = Step::new(axis, test).aligned(la, ra);
            step.predicates = predicates;
            step
        })
        .boxed()
}

/// An absolute query: `//` head, up to two more steps, an optional
/// attribute step, an optional scope.
fn arb_query() -> impl Strategy<Value = Path> {
    (
        arb_step(2),
        prop::collection::vec(arb_step(1), 0..2),
        prop::bool::weighted(0.1),
        prop::option::weighted(0.2, prop::collection::vec(arb_step(1), 1..3)),
    )
        .prop_map(|(mut head, rest, attr, scope)| {
            head.axis = Axis::Descendant;
            let mut steps = vec![head];
            steps.extend(rest);
            if attr {
                steps.push(lex());
            }
            let mut p = Path::absolute(steps);
            if let Some(inner) = scope {
                p = p.scoped(Path::relative(inner));
            }
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(512),
        ..ProptestConfig::default()
    })]

    #[test]
    fn programs_agree_with_the_cursor_and_the_walker(
        corpus in arb_corpus(),
        query in arb_query(),
    ) {
        let engine = Engine::build(&corpus);
        // Untranslatable and uncovered queries are not this test's.
        let Ok(Some(_)) = engine.semijoin_ast(&query) else {
            return Ok(());
        };
        let rows = engine.query_ast(&query).unwrap();
        let mut cursor: Vec<_> = engine.matches_ast(&query).unwrap().collect();
        let cursor_count = cursor.len();
        cursor.sort_unstable();
        cursor.dedup();
        prop_assert_eq!(&rows, &cursor, "semijoin vs cursor rows on {}", query);
        prop_assert_eq!(cursor_count, rows.len(), "the cursor's DISTINCT on {}", query);
        let walker = Walker::new(&corpus).eval(&query);
        prop_assert_eq!(&rows, &walker, "semijoin vs walker rows on {}", query);

        let (program_count, rest) = engine.count_resume(&query, 0, usize::MAX).unwrap();
        prop_assert!(rest.is_none());
        let count = engine.count_ast(&query).unwrap();
        prop_assert_eq!(count, rows.len(), "count on {}", query);
        prop_assert_eq!(count as u64, program_count, "budgeted count on {}", query);
        let (page, end) = engine.page_ast(&query, Position::START, usize::MAX).unwrap();
        prop_assert!(end.is_none());
        prop_assert_eq!(&page, &rows, "page on {}", query);

        let exists = engine.exists_ast(&query).unwrap();
        prop_assert_eq!(exists, !rows.is_empty(), "exists on {}", query);
        prop_assert_eq!(exists, engine.matches_ast(&query).unwrap().next().is_some());
    }
}

/// A multi-step scope over the generator's tags — `//H{…}`, `//H[{…}]`
/// or `//H[not({…})]` around two or three steps on any conjunctive
/// axis, each optionally aligned or carrying a predicate — as text.
/// Its join graph is cyclic, but only through the scope alias.
fn arb_scoped_query() -> impl Strategy<Value = String> {
    let tag = || {
        prop_oneof![
            6 => Just("_"),
            2 => Just("A"),
            2 => Just("B"),
            1 => Just("C"),
            1 => Just("S"),
        ]
    };
    let axis = prop_oneof![
        3 => Just("/"),
        3 => Just("//"),
        2 => Just("->"),
        2 => Just("-->"),
        1 => Just("\\"),
        1 => Just("<-"),
        1 => Just("<--"),
        1 => Just("=>"),
        1 => Just("==>"),
        1 => Just("<=="),
    ];
    let pred = prop_oneof![
        6 => Just(""),
        1 => Just("[//B]"),
        1 => Just("[@lex=u]"),
        1 => Just("[->_[@lex=v]]"),
    ];
    let step = (
        axis,
        prop::bool::weighted(0.15),
        tag(),
        prop::bool::weighted(0.15),
        pred,
    )
        .prop_map(|(axis, left, tag, right, pred)| {
            let (l, r) = (if left { "^" } else { "" }, if right { "$" } else { "" });
            format!("{axis}{l}{tag}{r}{pred}")
        });
    let inner = (
        step.clone(),
        step.clone(),
        prop::option::weighted(0.25, step),
    )
        .prop_map(|(a, b, c)| format!("{a}{b}{}", c.unwrap_or_default()));
    (tag(), 0..3, inner).prop_map(|(head, form, inner)| match form {
        0 => format!("//{head}{{{inner}}}"),
        1 => format!("//{head}[{{{inner}}}]"),
        _ => format!("//{head}[not({{{inner}}})]"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(512),
        ..ProptestConfig::default()
    })]

    /// Every multi-step scope is covered — by binding its scope alias
    /// per candidate — and its program agrees with the cursor and the
    /// walker on rows, counts, pages and `exists`.
    #[test]
    fn scoped_programs_are_covered_and_agree(
        corpus in arb_corpus(),
        text in arb_scoped_query(),
    ) {
        let engine = Engine::build(&corpus);
        let query = parse(&text).unwrap();
        prop_assert!(engine.semijoin_ast(&query).unwrap().is_some(), "{} not covered", text);
        let rows = engine.query_ast(&query).unwrap();
        let mut cursor: Vec<_> = engine.matches_ast(&query).unwrap().collect();
        cursor.sort_unstable();
        cursor.dedup();
        prop_assert_eq!(&rows, &cursor, "semijoin vs cursor rows on {}", text);
        prop_assert_eq!(&rows, &Walker::new(&corpus).eval(&query), "semijoin vs walker on {}", text);
        prop_assert_eq!(engine.count_ast(&query).unwrap(), rows.len(), "count on {}", text);
        let (count, rest) = engine.count_resume(&query, 0, 1).unwrap();
        let first_tree = rows.first().map(|m| m.0);
        let in_first = rows.iter().filter(|m| Some(m.0) == first_tree).count();
        prop_assert_eq!(count, in_first as u64, "budgeted count on {}", text);
        prop_assert!(rest.is_some() || rows.len() == in_first, "{}", text);
        let mut at = Position::START;
        let mut paged = Vec::new();
        loop {
            let (page, next) = engine.page_ast(&query, at, 2).unwrap();
            paged.extend(page);
            match next {
                Some(next) => at = next,
                None => break,
            }
        }
        prop_assert_eq!(&paged, &rows, "pages of 2 on {}", text);
        prop_assert_eq!(engine.exists_ast(&query).unwrap(), !rows.is_empty(), "exists on {}", text);
    }
}

/// Coverage of the paper's 23 queries is pinned: every one, the
/// multi-step scopes (Q4, Q7, Q11) included, compiles to a semijoin
/// program on both corpora. A silent drop in coverage fails here.
#[test]
fn fixture_coverage_is_pinned() {
    use lpath::model::{generate, GenConfig};
    for config in [GenConfig::wsj(200), GenConfig::swb(400)] {
        let engine = Engine::build(&generate(&config));
        for q in lpath::core::QUERIES {
            let ast = parse(q.lpath).unwrap();
            let covered = engine.semijoin_ast(&ast).unwrap().is_some();
            assert!(covered, "Q{}: {}", q.id, q.lpath);
        }
    }
}

/// The shapes exploration traffic is expanded from — spelled out here,
/// over tags and words of the generated corpus, same tags included —
/// all compile to semijoin programs: no template reaches the cursor.
#[test]
fn exploration_templates_are_covered() {
    use lpath::model::{generate, GenConfig};
    let engine = Engine::build(&generate(&GenConfig::wsj(200)));
    // `a`, `b`, `c` are tags, `w` a word.
    type Template = fn(&str, &str, &str, &str) -> String;
    let templates: [Template; 11] = [
        |a, b, _, _| format!("//{a}[//{b}]"),
        |a, b, _, _| format!("//{a}->{b}"),
        |a, b, c, _| format!("//{a}/{b}-->{c}"),
        |a, b, _, _| format!("//{a}{{/{b}$}}"),
        |a, b, _, _| format!("//{a}[not(//{b})]"),
        |a, b, _, w| format!("//{a}[->{b}[//_[@lex={w}]]]"),
        |a, b, _, _| format!("//{a}/{b}"),
        |a, b, _, _| format!("//{a}=>{b}"),
        |a, b, c, _| format!("//{a}{{//{b}->{c}}}"),
        |a, _, _, w| format!("//{a}[//_[@lex={w}]]"),
        |_, _, _, w| format!("//_[@lex={w}]"),
    ];
    let tags = [
        ("VP", "VB", "NN"),
        ("NP", "DT", "NN"),
        ("S", "NP", "VP"),
        ("VP", "DT", "DT"),
        ("NP", "NP", "NP"),
        ("PP", "IN", "NP"),
    ];
    for template in templates {
        for (a, b, c) in tags {
            for w in ["saw", "of"] {
                let q = template(a, b, c, w);
                let ast = parse(&q).unwrap();
                assert!(
                    engine.semijoin_ast(&ast).unwrap().is_some(),
                    "{q} not covered"
                );
            }
        }
    }
}

/// The shapes the generator reaches, spelled out: each is covered, and
/// each agrees with the cursor and the walker on a small treebank.
#[test]
fn named_shapes_are_covered_and_agree() {
    let corpus = parse_str(
        "( (S (NP (DT the) (JJ old) (NN man)) (VP (VBD saw) (NP (DT a) (NN dog)) \
         (PP (IN with) (NP (NN telescope))))) )\n\
         ( (S (NP (PRP it)) (VP (VBD ran))) )\n\
         ( (S (WHNP (WDT what)) (NP (NN building)) (VP (VB saw) (NP (DT all) (DT the) \
         (NN dogs)) (PP (IN with) (NP (NN care))))) )",
    )
    .unwrap();
    let engine = Engine::build(&corpus);
    let walker = Walker::new(&corpus);
    for q in [
        "//NP[not(//JJ)]",
        "//NP[not(//DT[->JJ])]",
        "//S[//NP[//DT[@lex=a]]]",
        "//NN\\NP",
        "//NN<-JJ",
        "//NP<=VBD",
        "//VBD-->NN",
        "//NP@lex",
        "//_[@lex=dog]",
        "//_[not(@lex=dog)]",
        "//NP$",
        "//^NP",
        "//VP{//NP$}",
        "//NP[not(//ZZ)]",
        "//_",
        "//VP{/VB-->NN}",
        "//VP[{//^VB->NP->PP$}]",
        "//S[{//_[@lex=what]->_[@lex=building]}]",
        "//VP{//DT->DT}",
        "//NP[not({//DT->JJ})]",
        "//S{//VP{/VB-->NN}}",
        "//VP{/VB[{//DT->DT}]-->NN}",
    ] {
        let ast = parse(q).unwrap();
        assert!(
            engine.semijoin_ast(&ast).unwrap().is_some(),
            "{q} not covered"
        );
        let rows = engine.query_ast(&ast).unwrap();
        let mut cursor: Vec<_> = engine.matches_ast(&ast).unwrap().collect();
        cursor.sort_unstable();
        cursor.dedup();
        assert_eq!(rows, cursor, "{q}");
        assert_eq!(rows, walker.eval(&ast), "{q}");
    }
}
