//! Property-based differential testing.
//!
//! Random trees × random queries, three independent evaluators:
//! the relational engine (labels → SQL → joins), the tree walker
//! (labels, in memory) and the naive oracle (structural relations, no
//! labels). Any divergence is a bug in one of them; agreement across
//! machinery this different is the system's correctness argument.

use proptest::prelude::*;

use lpath::prelude::*;
use lpath_syntax::{Axis, NodeTest, Path, Pred, Step};

// ---------------------------------------------------------------
// Random trees (as bracketed text, through the real parser)
// ---------------------------------------------------------------

/// A random subtree of bounded depth/width in bracketed form.
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

/// A corpus of one to three random trees.
fn arb_corpus() -> impl Strategy<Value = Corpus> {
    prop::collection::vec(arb_subtree(3), 1..4).prop_map(|trees| {
        let text: String = trees.iter().map(|t| format!("( (S {t} {t}) )\n")).collect();
        parse_str(&text).expect("generated treebank parses")
    })
}

// ---------------------------------------------------------------
// Random queries (restricted to the SQL-translatable fragment)
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
        Just(NodeTest::tag("Z")), // never present
    ]
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    use lpath_syntax::{CmpOp, StrFunc};
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
    // count() restricted to the existence thresholds the SQL
    // translation accepts.
    let count = (
        arb_axis(),
        arb_test(),
        prop_oneof![
            Just((CmpOp::Gt, 0u32)),
            Just((CmpOp::Ne, 0)),
            Just((CmpOp::Eq, 0)),
            Just((CmpOp::Lt, 1)),
        ],
    )
        .prop_map(|(axis, test, (op, value))| Pred::Count {
            path: Path::relative(vec![Step::new(axis, test)]),
            op,
            value,
        });
    let strfn = (
        prop_oneof![
            Just(StrFunc::Contains),
            Just(StrFunc::StartsWith),
            Just(StrFunc::EndsWith),
        ],
        prop_oneof![Just("u"), Just("v"), Just("w"), Just("z"), Just("")],
    )
        .prop_map(|(func, arg)| Pred::StrCmp {
            func,
            path: attr_path(),
            arg: arg.to_string(),
        });
    let strlen = (
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Gt),
        ],
        0u32..3,
    )
        .prop_map(|(op, value)| Pred::StrLen {
            path: attr_path(),
            op,
            value,
        });
    prop_oneof![
        3 => exists(),
        1 => exists().prop_map(Pred::not),
        2 => cmp,
        1 => count,
        1 => strfn.clone(),
        1 => strfn.prop_map(Pred::not),
        1 => strlen,
    ]
}

fn arb_step(first: bool) -> impl Strategy<Value = Step> {
    let axis = if first {
        Just(Axis::Descendant).boxed()
    } else {
        arb_axis().boxed()
    };
    (
        axis,
        arb_test(),
        prop::collection::vec(arb_pred(), 0..2),
        prop::bool::weighted(0.12),
        prop::bool::weighted(0.12),
    )
        .prop_map(|(axis, test, predicates, la, ra)| {
            let mut step = Step::new(axis, test).aligned(la, ra);
            step.predicates = predicates;
            step
        })
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

// ---------------------------------------------------------------
// Random queries over the whole language (walker only): all nineteen
// navigation axes, `or`, double negation, `position()`, nested
// predicates and two-step predicate paths — what the SQL-translatable
// generator above leaves out.
// ---------------------------------------------------------------

/// Any navigation axis: [`Axis::ALL`] less its last entry, `@`.
fn arb_any_axis() -> impl Strategy<Value = Axis> {
    (0usize..19).prop_map(|i| Axis::ALL[i])
}

/// A step on any axis whose predicates nest at most `depth` deep.
fn arb_any_step(depth: u32) -> BoxedStrategy<Step> {
    let predicates = if depth == 0 {
        Just(Vec::new()).boxed()
    } else {
        prop::collection::vec(arb_any_pred(depth - 1), 0..2).boxed()
    };
    (arb_any_axis(), arb_test(), predicates)
        .prop_map(|(axis, test, predicates)| {
            let mut step = Step::new(axis, test);
            step.predicates = predicates;
            step
        })
        .boxed()
}

fn arb_any_path(depth: u32) -> BoxedStrategy<Path> {
    prop::collection::vec(arb_any_step(depth), 1..3)
        .prop_map(Path::relative)
        .boxed()
}

fn arb_any_pred(depth: u32) -> BoxedStrategy<Pred> {
    use lpath_syntax::{CmpOp, PosRhs};
    let op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Gt),
    ];
    let exists = arb_any_path(depth).prop_map(Pred::Exists);
    let both = (exists.clone(), exists.clone());
    let count = (arb_any_path(depth), op.clone(), 0u32..3)
        .prop_map(|(path, op, value)| Pred::Count { path, op, value });
    let position = (op.clone(), 0u32..3).prop_map(|(op, n)| Pred::Position(op, PosRhs::Const(n)));
    // `[@lex=w]`, or `[X/@lex=w]` through a step on any axis.
    let cmp = (
        prop::option::of(arb_any_step(0)),
        op,
        prop_oneof![Just("u"), Just("v")],
    )
        .prop_map(|(via, op, w)| {
            let mut steps: Vec<Step> = via.into_iter().collect();
            steps.push(Step::new(Axis::Attribute, NodeTest::tag("lex")));
            Pred::Cmp {
                path: Path::relative(steps),
                op,
                value: w.to_string(),
            }
        });
    prop_oneof![
        3 => exists.clone(),
        1 => exists.clone().prop_map(Pred::not),
        1 => exists.prop_map(|p| Pred::not(Pred::not(p))),
        1 => both.clone().prop_map(|(a, b)| Pred::and(a, b)),
        1 => both.prop_map(|(a, b)| Pred::or(a, b)),
        1 => count,
        1 => position,
        1 => cmp,
    ]
    .boxed()
}

fn arb_any_query() -> impl Strategy<Value = Path> {
    (
        arb_any_step(2),
        prop::collection::vec(arb_any_step(1), 0..3),
        prop::option::weighted(0.3, arb_any_path(1)),
    )
        .prop_map(|(mut head, rest, scope)| {
            head.axis = Axis::Descendant;
            let mut p = Path::absolute(vec![head]);
            p.steps.extend(rest);
            p.scope = scope.map(Box::new);
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(64),
        ..ProptestConfig::default()
    })]

    #[test]
    fn engine_walker_naive_agree(corpus in arb_corpus(), query in arb_query()) {
        let engine = Engine::build(&corpus);
        let walker = Walker::new(&corpus);
        let naive = NaiveEvaluator::new(&corpus);
        let via_engine = engine
            .query_ast(&query)
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        let via_walker = walker.eval(&query);
        let mut via_naive = naive.eval(&query);
        via_naive.sort_unstable();
        prop_assert_eq!(
            &via_engine, &via_walker,
            "engine vs walker on {}", query
        );
        prop_assert_eq!(
            &via_walker, &via_naive,
            "walker vs naive on {}", query
        );
    }

    #[test]
    fn pruned_shards_hold_no_match(
        corpus in arb_corpus(),
        query in prop_oneof![arb_query(), arb_any_query()],
        shards in 1usize..4,
    ) {
        // Shard pruning may only skip shards whose answer is empty: a
        // shard `may_match` rejects, for a missing symbol or a missing
        // tag pair, has no match over its slice.
        use lpath_service::{requirements, Shard};
        let required = requirements(&query);
        let trees = corpus.trees().len();
        let k = shards.min(trees);
        for i in 0..k {
            let (start, end) = (i * trees / k, (i + 1) * trees / k);
            let shard = Shard::build(&corpus, start, end - start, 0);
            if !shard.may_match(&required) {
                let rows = Walker::new(shard.corpus()).eval(&query);
                prop_assert!(rows.is_empty(), "pruned shard {} matches {}: {:?}", i, query, rows);
            }
        }
    }

    #[test]
    fn printed_query_is_equivalent(corpus in arb_corpus(), query in arb_query()) {
        // parse(display(q)) must not change a query's meaning.
        let engine = Engine::build(&corpus);
        let printed = query.to_string();
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
        let a = engine.query_ast(&query).unwrap();
        let b = engine.query_ast(&reparsed).unwrap();
        prop_assert_eq!(a, b, "display round-trip changed semantics: {}", printed);
    }

    #[test]
    fn labeling_matches_structure(corpus in arb_corpus()) {
        // Labels reproduce structural axis relations on random trees
        // (the generalization of the paper's Table 2 example checks).
        use lpath_model::{label_tree, AxisRel};
        for tree in corpus.trees() {
            let labels = label_tree(tree);
            let leaf_pos: std::collections::HashMap<_, u32> = tree
                .leaves()
                .enumerate()
                .map(|(k, id)| (id, k as u32 + 1))
                .collect();
            let first_leaf = |mut x: NodeId| {
                while !tree.node(x).is_leaf() {
                    x = tree.node(x).children[0];
                }
                x
            };
            let last_leaf = |mut x: NodeId| {
                while !tree.node(x).is_leaf() {
                    x = *tree.node(x).children.last().unwrap();
                }
                x
            };
            for x in tree.preorder() {
                for c in tree.preorder() {
                    let (lx, lc) = (&labels[x.index()], &labels[c.index()]);
                    prop_assert_eq!(
                        AxisRel::Child.holds(lx, lc),
                        tree.node(x).parent == Some(c)
                    );
                    prop_assert_eq!(
                        AxisRel::Descendant.holds(lx, lc),
                        tree.ancestors(x).any(|a| a == c)
                    );
                    prop_assert_eq!(
                        AxisRel::ImmediateFollowing.holds(lx, lc),
                        leaf_pos[&first_leaf(x)] == leaf_pos[&last_leaf(c)] + 1
                    );
                    prop_assert_eq!(
                        AxisRel::Following.holds(lx, lc),
                        leaf_pos[&first_leaf(x)] > leaf_pos[&last_leaf(c)]
                    );
                }
            }
        }
    }

    #[test]
    fn tgrep_image_round_trips(corpus in arb_corpus()) {
        use lpath_tgrep::binfmt::{build_image, decode, encode};
        let img = build_image(&corpus);
        let back = decode(&encode(&img)).unwrap();
        prop_assert_eq!(img.trees.len(), back.trees.len());
        for (a, b) in img.trees.iter().zip(&back.trees) {
            prop_assert_eq!(&a.label, &b.label);
            prop_assert_eq!(&a.parent, &b.parent);
            prop_assert_eq!(&a.fl, &b.fl);
            prop_assert_eq!(&a.ll, &b.ll);
            prop_assert_eq!(&a.subtree_end, &b.subtree_end);
        }
        prop_assert_eq!(&img.postings, &back.postings);
    }

    #[test]
    fn random_edit_sequences_keep_labels_consistent(
        corpus in arb_corpus(),
        ops in prop::collection::vec((0u8..5, any::<u32>(), any::<u32>(), any::<u32>()), 1..12),
    ) {
        // Apply a random edit script with TreeEditor; maintained labels
        // must match a fresh relabeling of the rebuilt tree
        // (left/right/depth exactly; id/pid up to one bijection), and
        // the rebuilt tree must still answer queries identically across
        // the engine and the walker.
        use lpath_model::{label_tree, TreeEditor};
        let tree = &corpus.trees()[0];
        let mut ed = TreeEditor::new(tree);
        let mut sym_corpus = corpus.clone();
        let x_tag = sym_corpus.intern("X");
        for (kind, a, b, c) in ops {
            // Pick a live node by probing handles (indices are dense).
            let probe = (a as usize) % (tree.len() + 4);
            let handle = lpath_model::NodeId(probe.min(tree.len() - 1) as u32);
            let r = ed.node_ref(handle);
            match kind {
                0 => {
                    let _ = ed.relabel(r, x_tag);
                }
                1 => {
                    if let Ok(kids) = ed.children(r) {
                        if !kids.is_empty() {
                            let lo = (b as usize) % kids.len();
                            let hi = lo + 1 + (c as usize) % (kids.len() - lo);
                            let _ = ed.wrap(r, lo, hi, x_tag);
                        }
                    }
                }
                2 => {
                    let _ = ed.splice_out(r);
                }
                3 => {
                    if let Ok(kids) = ed.children(r) {
                        let pos = (b as usize) % (kids.len() + 1);
                        let _ = ed.insert_terminal(r, pos, x_tag);
                    }
                }
                _ => {
                    let _ = ed.delete(r);
                }
            }
        }
        // Maintained labels agree with recomputation (positional parts).
        let maintained = ed.labels();
        let rebuilt = ed.finish().unwrap();
        let fresh = label_tree(&rebuilt);
        prop_assert_eq!(maintained.len(), rebuilt.len());
        let mut fresh_sorted: Vec<(u32, u32, u32)> =
            fresh.iter().map(|l| (l.left, l.right, l.depth)).collect();
        let mut maint_sorted: Vec<(u32, u32, u32)> = maintained
            .iter()
            .map(|(_, l)| (l.left, l.right, l.depth))
            .collect();
        fresh_sorted.sort_unstable();
        maint_sorted.sort_unstable();
        prop_assert_eq!(fresh_sorted, maint_sorted);
        // The edited tree still queries consistently.
        let mut edited = Corpus::new();
        *edited.interner_mut() = sym_corpus.interner().clone();
        edited.add_tree(rebuilt);
        let engine = Engine::build(&edited);
        let walker = Walker::new(&edited);
        for q in ["//X", "//A->_", "//S{//_$}", "//_[@lex=u]"] {
            let ast = parse(q).unwrap();
            prop_assert_eq!(
                engine.query_ast(&ast).unwrap(),
                walker.eval(&ast),
                "post-edit disagreement on {}",
                q
            );
        }
    }

    #[test]
    fn xml_round_trip_preserves_structure_and_queries(
        corpus in arb_corpus(),
        query in arb_query(),
    ) {
        // corpus → XML → corpus must preserve tree structure, tags and
        // attributes — and therefore every query answer.
        use lpath_model::xml;
        let doc = xml::to_string(&corpus);
        let back = xml::parse_str(&doc)
            .unwrap_or_else(|e| panic!("emitted XML must parse: {e}\n{doc}"));
        prop_assert_eq!(corpus.trees().len(), back.trees().len());
        for (a, b) in corpus.trees().iter().zip(back.trees()) {
            prop_assert_eq!(a.len(), b.len());
            for id in a.preorder() {
                let (na, nb) = (a.node(id), b.node(id));
                prop_assert_eq!(
                    corpus.resolve(na.name), back.resolve(nb.name)
                );
                prop_assert_eq!(na.children.len(), nb.children.len());
                prop_assert_eq!(na.attrs.len(), nb.attrs.len());
            }
        }
        let before = Walker::new(&corpus).eval(&query);
        let after = Walker::new(&back).eval(&query);
        prop_assert_eq!(before, after, "XML round trip changed query answers");
    }

    #[test]
    fn syntactic_and_greedy_plans_agree(corpus in arb_corpus(), query in arb_query()) {
        use lpath_relstore::{JoinOrder, PlannerConfig};
        let greedy = Engine::build(&corpus);
        let syntactic = Engine::with_config(
            &corpus,
            PlannerConfig { order: JoinOrder::Syntactic },
        );
        let a = greedy.query_ast(&query).unwrap();
        let b = syntactic.query_ast(&query).unwrap();
        prop_assert_eq!(&a, &b, "join order changed results on {}", query);
        // `query_ast` may run a semijoin program, which ignores the join
        // order; the cursor's rows under both orders must agree too.
        for engine in [&greedy, &syntactic] {
            prop_assert_eq!(&cursor_rows(engine, &query), &a, "cursor rows on {}", query);
        }
    }

}

/// The cursor's answer, whatever program `query_ast` would run:
/// `matches_ast` always pulls the cursor.
fn cursor_rows(engine: &Engine, query: &Path) -> Vec<(u32, NodeId)> {
    let mut rows: Vec<_> = engine.matches_ast(query).unwrap().collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

#[test]
fn the_anchor_tie_goes_to_the_output_alias() {
    // Equal tag frequencies: 100 As, each with one B child. The tie
    // goes to the *output* alias (B), whose scan emits in document
    // order, not to the lower alias id (A).
    let corpus = parse_str(&"( (S (A (B u))) )\n".repeat(100)).unwrap();
    let engine = Engine::build(&corpus);
    let query = parse("//A/B").unwrap();
    let cq = engine.translate(&query).unwrap();
    let out = cq.projection[0].alias;
    assert_ne!(out, 0);
    let plan = lpath_relstore::plan(engine.database(), &cq, &PlannerConfig::default());
    assert_eq!(plan.steps[0].alias, out, "{plan}");
    // Skewed frequencies (150 Bs under 100 As) keep the smaller anchor:
    // the output alias wins ties, it is not paid a premium.
    let src: String = (0..100)
        .map(|i| match i % 2 {
            0 => "( (S (A (B u) (B v))) )\n",
            _ => "( (S (A (B u))) )\n",
        })
        .collect();
    let skewed = Engine::build(&parse_str(&src).unwrap());
    let cq = skewed.translate(&query).unwrap();
    let plan = lpath_relstore::plan(skewed.database(), &cq, &PlannerConfig::default());
    assert_ne!(plan.steps[0].alias, out, "{plan}");
}
