//! Failure injection: every parser and decoder in the workspace must
//! reject malformed input with an error — never a panic — and the
//! engines must behave sanely on degenerate corpora.

use lpath::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------
// Parser fuzzing: arbitrary input never panics
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(256),
        ..ProptestConfig::default()
    })]

    #[test]
    fn ptb_parser_never_panics(input in "\\PC{0,80}") {
        let _ = parse_str(&input);
    }

    #[test]
    fn ptb_parser_never_panics_on_paren_soup(
        input in prop::collection::vec(
            prop_oneof![Just('('), Just(')'), Just('A'), Just(' '), Just('\n')],
            0..120,
        )
    ) {
        let s: String = input.into_iter().collect();
        let _ = parse_str(&s);
    }

    #[test]
    fn xml_parser_never_panics(input in "\\PC{0,80}") {
        let _ = lpath::model::xml::parse_str(&input);
    }

    #[test]
    fn xml_parser_never_panics_on_markup_soup(
        input in prop::collection::vec(
            prop_oneof![
                Just("<"), Just(">"), Just("</"), Just("/>"), Just("S"),
                Just("\""), Just("="), Just("&"), Just(";"), Just(" "),
                Just("<!--"), Just("-->"), Just("<?"), Just("?>"),
            ],
            0..60,
        )
    ) {
        let s: String = input.concat();
        let _ = lpath::model::xml::parse_str(&s);
    }

    #[test]
    fn lpath_parser_never_panics(input in "\\PC{0,60}") {
        let _ = parse(&input);
    }

    #[test]
    fn lpath_parser_never_panics_on_operator_soup(
        input in prop::collection::vec(
            prop_oneof![
                Just("//"), Just("/"), Just("\\"), Just("->"), Just("-->"),
                Just("=>"), Just("<="), Just("<-"), Just("{"), Just("}"),
                Just("["), Just("]"), Just("("), Just(")"), Just("^"),
                Just("$"), Just("*"), Just("+"), Just("@"), Just("NP"),
                Just("_"), Just("'"), Just("not"), Just("count"),
                Just("contains"), Just(","), Just("="),
            ],
            0..40,
        )
    ) {
        let s: String = input.concat();
        let _ = parse(&s);
    }

    #[test]
    fn xpath_parser_never_panics(input in "\\PC{0,60}") {
        let _ = lpath::xpath::parse_xpath(&input);
    }

    // -----------------------------------------------------------
    // Binary image corruption
    // -----------------------------------------------------------

    #[test]
    fn truncated_tgrep_images_error_not_panic(cut in 0usize..2000) {
        use lpath_tgrep::binfmt::{build_image, decode, encode};
        let corpus = parse_str(
            "( (S (NP I) (VP (V saw) (NP it))) )\n( (S (A a) (B b)) )",
        ).unwrap();
        let bytes = encode(&build_image(&corpus));
        let cut = cut.min(bytes.len());
        if cut < bytes.len() {
            // Any strict prefix must be rejected.
            prop_assert!(decode(&bytes[..cut]).is_err(), "prefix {cut} accepted");
        }
    }

    #[test]
    fn bitflipped_tgrep_images_never_panic(
        pos in 0usize..2000,
        mask in 1u8..=255,
    ) {
        use lpath_tgrep::binfmt::{build_image, decode, encode};
        let corpus = parse_str(
            "( (S (NP I) (VP (V saw) (NP it))) )\n( (S (A a) (B b)) )",
        ).unwrap();
        let mut bytes = encode(&build_image(&corpus));
        let pos = pos % bytes.len();
        bytes[pos] ^= mask;
        // Decode may succeed (the flip can hit don't-care bits) or
        // error — but must not panic or hang.
        let _ = decode(&bytes);
    }
}

// ---------------------------------------------------------------
// Degenerate corpora
// ---------------------------------------------------------------

#[test]
fn empty_corpus_answers_every_query_with_zero() {
    let corpus = Corpus::new();
    let engine = Engine::build(&corpus);
    let walker = Walker::new(&corpus);
    for q in QUERIES {
        assert_eq!(engine.count(q.lpath).unwrap(), 0, "Q{}", q.id);
        assert_eq!(walker.count(&parse(q.lpath).unwrap()), 0, "Q{}", q.id);
    }
    // The baselines too.
    let tgrep = TgrepEngine::build(&corpus);
    assert_eq!(tgrep.count(TGREP_QUERIES[0]).unwrap(), 0);
    let cs = CsEngine::new(&corpus);
    assert_eq!(cs.count(CS_QUERIES[0]).unwrap(), 0);
}

#[test]
fn single_token_trees_work_everywhere() {
    // The smallest legal tree: a root with one terminal child... and
    // the even smaller root-only tree via direct construction.
    let corpus = parse_str("( (S (X w)) )\n( (S (Y y)) )").unwrap();
    let engine = Engine::build(&corpus);
    let walker = Walker::new(&corpus);
    for (q, want) in [
        ("//X", 1),
        ("//_", 4),
        ("//X->Y", 0), // different trees: nothing follows across trees
        ("//S{/X$}", 1),
        ("//^X", 1),
        ("//_[@lex=w]", 1),
    ] {
        assert_eq!(engine.count(q).unwrap(), want, "{q}");
        assert_eq!(walker.count(&parse(q).unwrap()), want, "{q}");
    }
}

#[test]
fn deep_unary_chains_label_and_query_correctly() {
    // Unary chains are the labeling scheme's hard case (identical
    // intervals, disambiguated by depth alone).
    let mut src = String::from("( (A0 ");
    for i in 1..40 {
        src.push_str(&format!("(A{i} "));
    }
    src.push_str("leaf");
    src.push_str(&")".repeat(40));
    src.push_str(" )");
    let corpus = parse_str(&src).unwrap();
    let engine = Engine::build(&corpus);
    let walker = Walker::new(&corpus);
    for (q, want) in [
        ("//A39", 1usize),
        ("//A0//A39", 1),
        ("//A39\\\\A0", 1), // ancestor
        ("//A5/A6", 1),
        ("//A6\\A5", 1),
        ("//A5->_", 0), // nothing follows in a one-leaf tree
        ("//^A17$", 1), // every chain node spans the whole tree
    ] {
        assert_eq!(engine.count(q).unwrap(), want, "{q}");
        assert_eq!(walker.count(&parse(q).unwrap()), want, "{q}");
    }
}

#[test]
fn wide_flat_trees_stress_sibling_axes() {
    let kids: String = (0..200).map(|i| format!("(T{} w{i}) ", i % 7)).collect();
    let corpus = parse_str(&format!("( (S {kids}) )")).unwrap();
    let engine = Engine::build(&corpus);
    let walker = Walker::new(&corpus);
    for q in ["//T0=>T1", "//T0==>T5", "//T3<=T2", "//T6<==_", "//T0->T1"] {
        assert_eq!(
            engine.count(q).unwrap(),
            walker.count(&parse(q).unwrap()),
            "{q}"
        );
    }
    // 200 children: sibling adjacency count is known — pairs (i, i+1)
    // with i % 7 == 0 and i + 1 < 200, i.e. i ∈ {0, 7, …, 196}: 29.
    assert_eq!(engine.count("//T0=>T1").unwrap(), 29);
}

#[test]
fn xml_error_offsets_are_within_input() {
    use lpath::model::xml;
    for bad in ["<S>text</S>", "<S", "<S></T>", "<S x='1' x='2'/>"] {
        match xml::parse_str(bad) {
            Err(lpath::model::ModelError::Xml { offset, .. }) => {
                assert!(offset <= bad.len(), "{bad}: offset {offset}");
            }
            other => panic!("{bad}: expected Xml error, got {other:?}"),
        }
    }
}

#[test]
fn append_recounts_only_the_tail_shard_and_invalidates_stale_counts() {
    // Three shards over six trees, every shard containing an NP so no
    // count is pruned away. `//S//NP` is deliberately *not* aggregate-
    // tabulated (grandparent axis), so counting goes through the
    // per-shard counting cursor and the count store — the paths this
    // test is about.
    let src: String = (0..6)
        .map(|i| format!("( (S (NP (NN w{i})) (VP (VBD ran))) )\n"))
        .collect();
    let corpus = parse_str(&src).unwrap();
    let svc = Service::with_config(
        &corpus,
        ServiceConfig {
            shards: 3,
            threads: 1,
            ..ServiceConfig::default()
        },
    );
    assert_eq!(svc.count("//S//NP").unwrap(), 6);
    let s = svc.stats();
    assert_eq!((s.count_misses, s.count_hits), (3, 0));

    // Append one tree: of the per-shard counts only the rebuilt tail's
    // is stale. `exists` finds its witness in the first shard's
    // surviving count instead of evaluating it, and probes no further
    // (one hit).
    svc.append_ptb("( (S (NP (NN extra)) (VP (VBD sat))) )")
        .unwrap();
    let evals = svc.stats().shard_evals;
    assert!(svc.exists("//S//NP").unwrap());
    assert_eq!(
        svc.stats().shard_evals,
        evals,
        "exists evaluated a cached shard"
    );
    // Exactly one shard is recounted.
    assert_eq!(svc.count("//S//NP").unwrap(), 7);
    let s = svc.stats();
    assert_eq!(
        (s.count_misses, s.count_hits),
        (4, 3),
        "only the tail may recount: {s:?}"
    );

    // A failed append must not disturb the cached counts either.
    assert!(svc.append_ptb("( (S (NP broken").is_err());
    assert_eq!(svc.count("//S//NP").unwrap(), 7);
    let s = svc.stats();
    assert_eq!(s.count_misses, 4, "failed append recounted: {s:?}");

    // A swap rebuilds every shard: every per-shard count is stale.
    svc.swap_corpus(&corpus);
    assert_eq!(svc.count("//S//NP").unwrap(), 6);
    let s = svc.stats();
    assert_eq!((s.count_misses, s.count_hits), (7, 6));

    // Fully cached multi-shard answers do no shard work, miss nothing,
    // and are sampled as hits.
    svc.eval("//S//NP").unwrap();
    let hit_samples = |class: &str| {
        let m = svc.metrics();
        m.classes
            .iter()
            .find(|c| c.class == class)
            .unwrap()
            .hits
            .count
    };
    let (before, evals, counts) = (svc.stats(), hit_samples("eval"), hit_samples("count"));
    assert_eq!(svc.eval("//S//NP").unwrap().len(), 6);
    assert_eq!(svc.count("//S//NP").unwrap(), 6);
    let s = svc.stats();
    assert_eq!(
        (s.shard_evals, s.result_misses, s.count_misses),
        (
            before.shard_evals,
            before.result_misses,
            before.count_misses
        ),
        "cached answers did shard work: {s:?}"
    );
    assert_eq!(hit_samples("eval"), evals + 1);
    assert_eq!(hit_samples("count"), counts + 1);
}

#[test]
fn editor_handles_stay_invalid_after_delete() {
    use lpath::model::TreeEditor;
    let corpus = parse_str("( (S (A (B x) (C y)) (D z)) )").unwrap();
    let mut ed = TreeEditor::new(&corpus.trees()[0]);
    let a = ed.node_ref(NodeId(1));
    let b = ed.node_ref(NodeId(2));
    ed.delete(a).unwrap();
    // Both the deleted node and its descendants reject every operation.
    assert!(ed.children(a).is_err());
    assert!(ed.children(b).is_err());
    assert!(ed.splice_out(b).is_err());
    assert!(ed.delete(b).is_err());
    // The tree still finishes and queries.
    let tree = ed.finish().unwrap();
    assert_eq!(tree.len(), 2); // S, D
}

#[test]
fn batch_abort_fault_point_fails_cleanly_and_retries() {
    // The batch-abort fault point: an armed abort fails every
    // unresolved member of the next executing batch with a typed
    // error — no partial results, no cache writes — and the very next
    // batch (nothing re-armed) succeeds in full, proving the abort
    // left no residue behind.
    let src: String = (0..6)
        .map(|i| format!("( (S (NP (NN w{i})) (VP (VBD ran))) )\n"))
        .collect();
    let corpus = parse_str(&src).unwrap();
    let svc = Service::with_config(
        &corpus,
        ServiceConfig {
            shards: 2,
            threads: 1,
            ..ServiceConfig::default()
        },
    );
    // Pre-cache one member: already-answered members survive an abort.
    let cached = svc.eval("//NP").unwrap();
    let entries_before = svc.stats().shard_result_cache_entries;

    svc.inject_multi_abort();
    // Every member matches on both shards, so tag-pair pruning
    // settles none of them before the armed abort.
    let texts = ["//NP", "//VP", "//NN->VP"];
    let results = svc.eval_multi(&texts);
    assert_eq!(
        *results[0].as_ref().unwrap().clone(),
        *cached,
        "cached member answered despite the abort"
    );
    for (q, r) in texts.iter().zip(&results).skip(1) {
        let err = r.as_ref().unwrap_err();
        assert!(
            matches!(err, lpath::service::ServiceError::Aborted),
            "{q}: expected the abort error, got {err}"
        );
    }
    assert_eq!(
        svc.stats().shard_result_cache_entries,
        entries_before,
        "an aborted batch must not write caches"
    );

    // One-shot: the retry executes normally and matches fresh solo
    // evals.
    let retry = svc.eval_multi(&texts);
    let oracle = Service::with_config(
        &corpus,
        ServiceConfig {
            shards: 2,
            threads: 1,
            ..ServiceConfig::default()
        },
    );
    for (q, r) in texts.iter().zip(&retry) {
        assert_eq!(
            *r.as_ref().unwrap().clone(),
            *oracle.eval(q).unwrap(),
            "{q}: retry after abort"
        );
    }
}
