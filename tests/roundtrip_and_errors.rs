//! Serialization round-trips and error-path behaviour across the
//! workspace.

use lpath::prelude::*;

#[test]
fn generated_corpus_survives_ptb_round_trip() {
    let corpus = generate(&GenConfig::wsj(150));
    let text = corpus.to_ptb_string();
    let back = parse_str(&text).expect("rendered treebank parses");
    assert_eq!(back.trees().len(), corpus.trees().len());
    assert_eq!(back.stats(), {
        let mut s = corpus.stats();
        // ascii_bytes is identical because rendering is canonical.
        s.ascii_bytes = back.stats().ascii_bytes;
        s
    });
}

#[test]
fn query_counts_invariant_under_ptb_round_trip() {
    // Re-parsing the rendered corpus changes symbol ids (fresh
    // interner) but must not change any query's answer.
    let corpus = generate(&GenConfig::wsj(150));
    let back = parse_str(&corpus.to_ptb_string()).unwrap();
    let e1 = Engine::build(&corpus);
    let e2 = Engine::build(&back);
    for q in QUERIES {
        assert_eq!(
            e1.count(q.lpath).unwrap(),
            e2.count(q.lpath).unwrap(),
            "Q{}",
            q.id
        );
    }
}

#[test]
fn engines_reject_garbage_queries_without_panicking() {
    let corpus = generate(&GenConfig::wsj(10));
    let engine = Engine::build(&corpus);
    let tgrep = TgrepEngine::build(&corpus);
    let cs = CsEngine::new(&corpus);
    let xp = XPathEngine::build(&corpus);
    for junk in ["", "//", "((", "//VP{", "//VP[", "->", "\\", "@", "//V=>"] {
        assert!(engine.count(junk).is_err(), "lpath accepted {junk:?}");
        assert!(xp.count(junk).is_err(), "xpath accepted {junk:?}");
    }
    for junk in ["", "<", "NP <", "(", "=x"] {
        assert!(tgrep.count(junk).is_err(), "tgrep accepted {junk:?}");
    }
    for junk in ["", "find", "where x", "find x:NP where x bogus y"] {
        assert!(cs.count(junk).is_err(), "cs accepted {junk:?}");
    }
}

#[test]
fn unknown_vocabulary_is_empty_not_an_error() {
    // Querying tags/words the corpus never saw must return empty
    // result sets on every engine (XPath semantics), not errors.
    let corpus = generate(&GenConfig::wsj(25));
    let engine = Engine::build(&corpus);
    assert_eq!(engine.count("//ZZZ-UNSEEN").unwrap(), 0);
    assert_eq!(engine.count("//_[@lex=zzzunseen]").unwrap(), 0);
    assert_eq!(
        engine.count("//NP[not(//ZZZ)]").unwrap(),
        engine.count("//NP").unwrap()
    );
    let tgrep = TgrepEngine::build(&corpus);
    assert_eq!(tgrep.count("ZZZ-UNSEEN").unwrap(), 0);
    assert_eq!(
        tgrep.count("NP !<< ZZZ-UNSEEN").unwrap(),
        tgrep.count("NP").unwrap()
    );
    let cs = CsEngine::new(&corpus);
    assert_eq!(cs.count("find x:ZZZ-UNSEEN").unwrap(), 0);
}

#[test]
fn empty_and_tiny_corpora() {
    // One-word sentences and minimal trees must not break labeling,
    // loading or any engine.
    let corpus = parse_str("( (S (UH yes)) )\n( (S (NP (PRP I)) (VP (VBP go))) )").unwrap();
    let engine = Engine::build(&corpus);
    assert_eq!(engine.count("//S").unwrap(), 2);
    assert_eq!(engine.count("//UH").unwrap(), 1);
    assert_eq!(engine.count("//NP=>VP").unwrap(), 1);
    assert_eq!(engine.count("//S{/UH$}").unwrap(), 1);
    let walker = Walker::new(&corpus);
    assert_eq!(walker.count(&parse("//^UH$").unwrap()), 1); // spans the whole tree
    let tgrep = TgrepEngine::build(&corpus);
    assert_eq!(tgrep.count("S <- UH").unwrap(), 1);
}

#[test]
fn sql_and_explain_render_for_all_evaluation_queries() {
    let corpus = generate(&GenConfig::wsj(40));
    let engine = Engine::build(&corpus);
    for q in QUERIES {
        let sql = engine
            .sql_ast(&parse(q.lpath).unwrap())
            .unwrap_or_else(|e| panic!("Q{}: {e}", q.id));
        assert!(sql.starts_with("SELECT DISTINCT"), "Q{}: {sql}", q.id);
        assert!(sql.contains("FROM node"), "Q{}: {sql}", q.id);
        let plan = engine.explain(q.lpath).unwrap();
        assert!(plan.contains("step 0"), "Q{}: {plan}", q.id);
    }
}

#[test]
fn tgrep_image_serialization_round_trips_on_generated_corpus() {
    use lpath::tgrep::binfmt::{build_image, decode, encode};
    let corpus = generate(&GenConfig::swb(60));
    let img = build_image(&corpus);
    let back = decode(&encode(&img)).unwrap();
    assert_eq!(img.trees.len(), back.trees.len());
    for (a, b) in img.trees.iter().zip(&back.trees) {
        assert_eq!(a.label, b.label);
        assert_eq!(a.subtree_end, b.subtree_end);
        assert_eq!(a.leaf_at, b.leaf_at);
    }
}

#[test]
fn display_round_trip_on_evaluation_queries() {
    for q in QUERIES {
        let ast = parse(q.lpath).unwrap();
        let printed = ast.to_string();
        let reparsed = parse(&printed).unwrap();
        assert_eq!(ast, reparsed, "Q{}: {} → {}", q.id, q.lpath, printed);
    }
}

mod literal_roundtrip_properties {
    //! Print→parse round-trips for string literals holding arbitrary
    //! characters — most importantly the quote characters themselves,
    //! which the printer escapes by doubling.

    use lpath::syntax::{parse, Axis, CmpOp, NodeTest, Path, Pred, Step, StrFunc};
    use proptest::prelude::*;

    /// Strings over an alphabet that stresses the lexer: quotes of
    /// both kinds, metacharacters, spaces, names.
    fn arb_literal() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![
                Just('\''),
                Just('"'),
                Just('a'),
                Just('B'),
                Just('-'),
                Just('_'),
                Just(' '),
                Just('$'),
                Just('>'),
                Just('['),
            ],
            0..8,
        )
        .prop_map(|cs| cs.into_iter().collect())
    }

    fn attr_path() -> Path {
        Path::relative(vec![Step::new(Axis::Attribute, NodeTest::tag("lex"))])
    }

    proptest! {
        #[test]
        fn value_literals_round_trip(value in arb_literal()) {
            let mut step = Step::new(Axis::Descendant, NodeTest::Any);
            step.predicates.push(Pred::Cmp {
                path: attr_path(),
                op: CmpOp::Eq,
                value: value.clone(),
            });
            let path = Path { absolute: true, steps: vec![step], scope: None };
            let printed = path.to_string();
            let reparsed = parse(&printed)
                .unwrap_or_else(|e| panic!("{value:?} printed as {printed}: {e}"));
            prop_assert_eq!(&path, &reparsed, "{:?} -> {}", value, printed);
        }

        #[test]
        fn tag_literals_round_trip(tag in arb_literal()) {
            let path = Path {
                absolute: true,
                steps: vec![Step::new(Axis::Descendant, NodeTest::tag(tag.clone()))],
                scope: None,
            };
            let printed = path.to_string();
            let reparsed = parse(&printed)
                .unwrap_or_else(|e| panic!("{tag:?} printed as {printed}: {e}"));
            prop_assert_eq!(&path, &reparsed, "{:?} -> {}", tag, printed);
        }

        #[test]
        fn string_function_arguments_round_trip(arg in arb_literal()) {
            let mut step = Step::new(Axis::Descendant, NodeTest::Any);
            step.predicates.push(Pred::StrCmp {
                func: StrFunc::Contains,
                path: attr_path(),
                arg: arg.clone(),
            });
            let path = Path { absolute: true, steps: vec![step], scope: None };
            let printed = path.to_string();
            let reparsed = parse(&printed)
                .unwrap_or_else(|e| panic!("{arg:?} printed as {printed}: {e}"));
            prop_assert_eq!(&path, &reparsed, "{:?} -> {}", arg, printed);
        }
    }
}
