//! Cross-engine agreement on the paper's 23 evaluation queries.
//!
//! Four (and for eleven queries, five) independently implemented
//! engines must report the same result sizes on the same synthetic
//! corpora:
//!
//! * the LPath relational engine (labels → SQL → indexed joins),
//! * the tree walker (labels, no storage),
//! * the tgrep engine (binary image + backtracking matcher),
//! * the CorpusSearch engine (full-scan interpreter),
//! * the XPath engine (start/end labels) on the XPath-expressible 11.
//!
//! Their query texts live in different dialects, so agreement here
//! validates both the engines and the dialect translations used by the
//! benchmark harness.

use lpath::prelude::*;

mod fixtures;

fn check_corpus(corpus: &Corpus, label: &str) {
    let engine = Engine::build(corpus);
    let walker = Walker::new(corpus);
    let tgrep = TgrepEngine::build(corpus);
    let cs = CsEngine::new(corpus);
    let xp = XPathEngine::build(corpus);

    for case in fixtures::eval_cases() {
        let lpath_count = engine
            .count(case.lpath)
            .unwrap_or_else(|e| panic!("{label} Q{}: {e}", case.id));
        let walker_count = walker.count(&parse(case.lpath).unwrap());
        assert_eq!(
            lpath_count, walker_count,
            "{label} Q{}: engine {lpath_count} vs walker {walker_count} ({})",
            case.id, case.lpath
        );
        let tgrep_count = tgrep
            .count(case.tgrep)
            .unwrap_or_else(|e| panic!("{label} Q{} tgrep: {e}", case.id));
        assert_eq!(
            lpath_count, tgrep_count,
            "{label} Q{}: lpath {lpath_count} vs tgrep {tgrep_count} ({} / {})",
            case.id, case.lpath, case.tgrep
        );
        let cs_count = cs
            .count(case.cs)
            .unwrap_or_else(|e| panic!("{label} Q{} cs: {e}", case.id));
        assert_eq!(
            lpath_count, cs_count,
            "{label} Q{}: lpath {lpath_count} vs corpussearch {cs_count} ({} / {})",
            case.id, case.lpath, case.cs
        );
        if let Some(xq) = case.xpath {
            let x = xp
                .count(xq)
                .unwrap_or_else(|e| panic!("{label} Q{} xpath: {e}", case.id));
            assert_eq!(
                lpath_count, x,
                "{label} Q{}: lpath {lpath_count} vs xpath {x} ({xq})",
                case.id
            );
        }
    }
}

#[test]
fn all_engines_agree_on_wsj_profile() {
    let corpus = generate(&GenConfig::wsj(250));
    check_corpus(&corpus, "wsj");
}

#[test]
fn all_engines_agree_on_swb_profile() {
    let corpus = generate(&GenConfig::swb(250));
    check_corpus(&corpus, "swb");
}

#[test]
fn all_engines_agree_on_a_second_seed() {
    let corpus = generate(&GenConfig::wsj(150).with_seed(99));
    check_corpus(&corpus, "wsj-seed99");
}

#[test]
fn naive_oracle_agrees_on_a_small_corpus() {
    // The quadratic oracle is only run on a small corpus.
    let corpus = generate(&GenConfig::wsj(40));
    let engine = Engine::build(&corpus);
    let naive = NaiveEvaluator::new(&corpus);
    for q in QUERIES {
        let ast = parse(q.lpath).unwrap();
        assert_eq!(
            engine.count(q.lpath).unwrap(),
            naive.count(&ast),
            "Q{}: {}",
            q.id,
            q.lpath
        );
    }
}

#[test]
fn function_library_agrees_across_dialects_and_labelings() {
    // The same function-library query written in LPath syntax (run on
    // the interval labeling) and in XPath 1.0 syntax (run on the
    // start/end labeling) must agree — Figure 10's "other components
    // the same" discipline extended to the paper's footnote-1 library.
    let corpus = generate(&GenConfig::wsj(250));
    let engine = Engine::build(&corpus);
    let walker = Walker::new(&corpus);
    let xp = XPathEngine::build(&corpus);
    for (lpath_q, xpath_q) in [
        ("//_[contains(@lex,'ing')]", "//*[contains(@lex,'ing')]"),
        ("//_[starts-with(@lex,c)]", "//*[starts-with(@lex,'c')]"),
        ("//_[string-length(@lex)>8]", "//*[string-length(@lex)>8]"),
        ("//NP[count(//JJ)=0]", "//NP[count(.//JJ)=0]"),
        ("//S[count(//VP)>0]", "//S[count(.//VP)>0]"),
        (
            "//_[not(contains(@lex,e))][@lex]",
            "//*[not(contains(@lex,'e'))][@lex]",
        ),
    ] {
        let via_lpath = engine.count(lpath_q).unwrap();
        let via_walker = walker.count(&parse(lpath_q).unwrap());
        let via_xpath = xp.count(xpath_q).unwrap();
        assert_eq!(via_lpath, via_walker, "{lpath_q}");
        assert_eq!(via_lpath, via_xpath, "{lpath_q} vs {xpath_q}");
    }
}

#[test]
fn early_termination_matches_full_enumeration_on_all_23_queries() {
    // Acceptance: exists / limit / paged results must be byte-identical
    // to prefixes of the full enumeration, on every evaluation query,
    // for walker, engine and service alike.
    let corpus = generate(&GenConfig::wsj(120));
    let engine = Engine::build(&corpus);
    let walker = Walker::new(&corpus);
    let service = Service::with_config(
        &corpus,
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
    );
    for q in QUERIES {
        let ast = parse(q.lpath).unwrap();
        let full = engine.query(q.lpath).unwrap();
        assert_eq!(
            engine.exists_ast(&ast).unwrap(),
            !full.is_empty(),
            "Q{}",
            q.id
        );
        assert_eq!(walker.exists(&ast), !full.is_empty(), "Q{}", q.id);
        assert_eq!(
            service.exists(q.lpath).unwrap(),
            !full.is_empty(),
            "Q{}",
            q.id
        );
        assert_eq!(engine.count(q.lpath).unwrap(), full.len(), "Q{}", q.id);
        assert_eq!(service.count(q.lpath).unwrap(), full.len(), "Q{}", q.id);
        let mut streamed: Vec<(u32, NodeId)> = engine.matches_ast(&ast).unwrap().collect();
        streamed.sort_unstable();
        assert_eq!(streamed, full, "Q{} streamed", q.id);
        for (offset, limit) in [(0, 1), (0, 10), (5, 5), (full.len(), 4), (0, usize::MAX)] {
            let want: Vec<(u32, NodeId)> = full.iter().skip(offset).take(limit).copied().collect();
            assert_eq!(
                engine.query_limit(q.lpath, offset, limit).unwrap(),
                want,
                "Q{} engine page {offset}/{limit}",
                q.id
            );
            assert_eq!(
                walker.eval_limit(&ast, offset, limit),
                want,
                "Q{} walker page {offset}/{limit}",
                q.id
            );
            assert_eq!(
                service.eval_page(q.lpath, offset, limit).unwrap(),
                want,
                "Q{} service page {offset}/{limit}",
                q.id
            );
        }
    }
}

#[test]
fn degenerate_inputs_agree_across_early_exit_paths() {
    // Empty corpus: every layer must answer "nothing", not panic.
    let empty = parse_str("").unwrap();
    let engine = Engine::build(&empty);
    let walker = Walker::new(&empty);
    let service = Service::with_config(
        &empty,
        ServiceConfig {
            shards: 3,
            ..ServiceConfig::default()
        },
    );
    let nothing: Vec<(u32, NodeId)> = Vec::new();
    for q in ["//NP", "//_", "//NP[not(//JJ)]"] {
        let ast = parse(q).unwrap();
        assert!(!engine.exists_ast(&ast).unwrap(), "{q}");
        assert!(!walker.exists(&ast), "{q}");
        assert!(!service.exists(q).unwrap(), "{q}");
        assert_eq!(engine.query(q).unwrap(), nothing, "{q}");
        assert_eq!(engine.query_limit(q, 0, 10).unwrap(), nothing, "{q}");
        assert_eq!(walker.eval_limit(&ast, 0, 10), nothing, "{q}");
        assert_eq!(service.eval_page(q, 0, 10).unwrap(), nothing, "{q}");
        assert_eq!(engine.count(q).unwrap(), 0, "{q}");
        assert_eq!(service.count(q).unwrap(), 0, "{q}");
    }

    // A tiny corpus: more shards than trees, limit 0, and
    // offsets past the end, asserted equal across all three layers.
    let tiny = generate(&GenConfig::wsj(3));
    let engine = Engine::build(&tiny);
    let walker = Walker::new(&tiny);
    let service = Service::with_config(
        &tiny,
        ServiceConfig {
            shards: 8, // more shards than trees
            ..ServiceConfig::default()
        },
    );
    for q in ["//NP", "//DT", "//ZZZ-UNSEEN"] {
        let ast = parse(q).unwrap();
        let full = engine.query(q).unwrap();
        // limit = 0 is the empty page everywhere.
        assert_eq!(engine.query_limit(q, 0, 0).unwrap(), nothing, "{q}");
        assert_eq!(walker.eval_limit(&ast, 0, 0), nothing, "{q}");
        assert_eq!(service.eval_page(q, 0, 0).unwrap(), nothing, "{q}");
        // Offset past the end is the empty page everywhere.
        let past = full.len() + 100;
        assert_eq!(engine.query_limit(q, past, 5).unwrap(), nothing, "{q}");
        assert_eq!(walker.eval_limit(&ast, past, 5), nothing, "{q}");
        assert_eq!(service.eval_page(q, past, 5).unwrap(), nothing, "{q}");
    }
}

#[test]
fn counts_scale_linearly_under_replication() {
    // The paper's §5.3 replication methodology: per-tree queries scale
    // exactly linearly because every copy contributes the same matches.
    let corpus = generate(&GenConfig::wsj(120));
    let doubled = corpus.replicate(2.0);
    let e1 = Engine::build(&corpus);
    let e2 = Engine::build(&doubled);
    for q in QUERIES {
        let c1 = e1.count(q.lpath).unwrap();
        let c2 = e2.count(q.lpath).unwrap();
        assert_eq!(c2, 2 * c1, "Q{}: {}", q.id, q.lpath);
    }
}
