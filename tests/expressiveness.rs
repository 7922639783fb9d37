//! Expressiveness tests — the empirical side of the paper's Lemma 3.1
//! and its related-work claims (Lai [16], Marx [21]).
//!
//! Two directions:
//!
//! 1. **Conditional XPath ⊇ LPath immediates** (positive): the
//!    conditional-axis constructions of `lpath-condxpath` coincide with
//!    the LPath axes `->`, `<-`, `=>`, `<=` on random trees.
//! 2. **Core XPath ⊉ LPath immediates** (negative): inexpressibility
//!    cannot be *proven* by testing, but it can be finitely refuted for
//!    bounded query sizes — every predicate-free Core XPath chain of up
//!    to three steps disagrees with `//V->NP` on a small witness
//!    family. (Predicates only filter a chain's result set; they cannot
//!    manufacture the adjacency relation that distinguishes the witness
//!    answers here, since each witness answer is tag-homogeneous.)

use lpath::prelude::*;
use lpath_condxpath::{
    core_xpath_queries_up_to, immediate_following, immediate_following_sibling,
    immediate_preceding, immediate_preceding_sibling, PathExpr,
};
use lpath_model::{label_tree, AxisRel, Tree};
use proptest::prelude::*;

// ---------------------------------------------------------------
// Random trees (same generator as prop_differential)
// ---------------------------------------------------------------

fn arb_subtree(depth: u32) -> BoxedStrategy<String> {
    let tag = prop_oneof![
        Just("A".to_string()),
        Just("B".to_string()),
        Just("C".to_string()),
    ];
    let word = prop_oneof![Just("u".to_string()), Just("v".to_string())];
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
        let inner = (tag, prop::collection::vec(arb_subtree(depth - 1), 1..4))
            .prop_map(|(t, kids)| format!("({t} {})", kids.join(" ")));
        prop_oneof![3 => leaf, 2 => inner].boxed()
    }
}

fn arb_corpus() -> impl Strategy<Value = Corpus> {
    prop::collection::vec(arb_subtree(3), 1..3).prop_map(|trees| {
        let text: String = trees.iter().map(|t| format!("( (S {t} {t}) )\n")).collect();
        parse_str(&text).expect("generated treebank parses")
    })
}

/// All `(context, target)` pairs of an axis relation over one tree,
/// via the interval labels (the walker's machinery).
fn axis_pairs(tree: &Tree, rel: AxisRel) -> Vec<(u32, u32)> {
    let labels = label_tree(tree);
    let mut out = Vec::new();
    for c in tree.preorder() {
        for x in tree.preorder() {
            if rel.holds(&labels[x.index()], &labels[c.index()]) {
                out.push((c.0, x.0));
            }
        }
    }
    out
}

/// All `(context, target)` pairs of a Conditional XPath expression.
fn expr_pairs(tree: &Tree, expr: &PathExpr) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for c in tree.preorder() {
        for x in expr.eval(tree, c) {
            out.push((c.0, x.0));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(48),
        ..ProptestConfig::default()
    })]

    #[test]
    fn conditional_xpath_equals_lpath_immediates(corpus in arb_corpus()) {
        let cases: [(PathExpr, AxisRel); 4] = [
            (immediate_following(), AxisRel::ImmediateFollowing),
            (immediate_preceding(), AxisRel::ImmediatePreceding),
            (immediate_following_sibling(), AxisRel::ImmediateFollowingSibling),
            (immediate_preceding_sibling(), AxisRel::ImmediatePrecedingSibling),
        ];
        for tree in corpus.trees() {
            for (expr, rel) in &cases {
                let mut want = axis_pairs(tree, *rel);
                let mut got = expr_pairs(tree, expr);
                want.sort_unstable();
                got.sort_unstable();
                prop_assert_eq!(got, want, "{:?}", rel);
            }
        }
    }

    #[test]
    fn closure_of_immediate_is_the_long_axis(corpus in arb_corpus()) {
        // Table 1: `-->` is the transitive closure of `->`, `==>` of
        // `=>` — verified through the conditional-axis closures.
        use lpath_condxpath::{following_sibling_via_closure, following_via_closure};
        for tree in corpus.trees() {
            let mut got = expr_pairs(tree, &following_via_closure());
            let mut want = axis_pairs(tree, AxisRel::Following);
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "-> closure vs -->");
            let mut got = expr_pairs(tree, &following_sibling_via_closure());
            let mut want = axis_pairs(tree, AxisRel::FollowingSibling);
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "=> closure vs ==>");
        }
    }
}

// ---------------------------------------------------------------
// The finite Lemma 3.1 refutation
// ---------------------------------------------------------------

/// Witness treebank: small trees whose `//V->NP` answers separate
/// adjacency from every bounded Core XPath chain.
const WITNESSES: &str = "\
( (S (V a) (NP b) (NP c)) )
( (S (A (V a)) (NP b) (NP c)) )
( (S (V a) (B (NP b) (NP c))) )
( (S (NP a) (V b) (NP c) (NP d)) )
( (S (NP I) (VP (V saw) (NP (NP (Det the) (Adj old) (N man)) \
(PP (Prep with) (NP (Det a) (N dog))))) (N today)) )";

#[test]
fn no_small_core_xpath_chain_expresses_immediate_following() {
    let corpus = parse_str(WITNESSES).unwrap();
    let walker = Walker::new(&corpus);
    let target = walker.eval(&parse("//V->NP").unwrap());
    assert!(!target.is_empty(), "witnesses must exercise the axis");

    let mut agreeing: Vec<String> = Vec::new();
    let mut tried = 0usize;
    for len in 1..=3 {
        for chain in core_xpath_queries_up_to(len, &["V", "NP", "S"]) {
            // The first step always renders as `//test`; skip chains
            // whose nominal first axis differs to avoid re-testing the
            // same rendered query.
            if chain.steps[0].0 != lpath_syntax::Axis::Descendant {
                continue;
            }
            let q = chain.to_query();
            let ast = parse(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
            tried += 1;
            if walker.eval(&ast) == target {
                agreeing.push(q);
            }
        }
    }
    // 4 first-step tests × 44 axis-test pairs per later step, lengths
    // 1–3: 4 + 176 + 7,744 = 7,924 distinct rendered chains.
    assert_eq!(tried, 7_924, "enumeration size changed unexpectedly");
    assert!(
        agreeing.is_empty(),
        "Core XPath chains unexpectedly matched //V->NP: {agreeing:?}"
    );
}

#[test]
fn conditional_xpath_does_express_it_on_the_witnesses() {
    // The positive counterpart on the same witnesses: compose the
    // conditional-axis expression with an NP filter and compare.
    let corpus = parse_str(WITNESSES).unwrap();
    let walker = Walker::new(&corpus);
    let target = walker.eval(&parse("//V->NP").unwrap());

    let mut got: Vec<(u32, NodeId)> = Vec::new();
    for (tid, tree) in corpus.trees().iter().enumerate() {
        let v = corpus.interner().get("V").unwrap();
        let np = corpus.interner().get("NP").unwrap();
        for c in tree.preorder() {
            if tree.node(c).name != v {
                continue;
            }
            for x in immediate_following().eval(tree, c) {
                if tree.node(x).name == np {
                    got.push((tid as u32, x));
                }
            }
        }
    }
    got.sort_unstable();
    got.dedup();
    assert_eq!(got, target);
}

#[test]
fn paper_2_2_3_edge_alignment_demonstration() {
    // §2.2.3: the putative XPath //VP//_[last()][self::NP] returns ∅
    // on Figure 1 while //VP{//NP$} returns two nodes — position()
    // refers to intermediate-result order, not tree order.
    let corpus = parse_str(
        "( (S (NP I) (VP (V saw) (NP (NP (Det the) (Adj old) (N man)) \
         (PP (Prep with) (NP (Det a) (N dog))))) (N today)) )",
    )
    .unwrap();
    let walker = Walker::new(&corpus);
    assert_eq!(
        walker.count(&parse("//VP//_[last()][self::NP]").unwrap()),
        0
    );
    assert_eq!(walker.count(&parse("//VP{//NP$}").unwrap()), 2);
}
