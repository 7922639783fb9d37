//! Shared benchmark infrastructure: corpus construction, engine
//! bundles, the paper's timing methodology and table printers.
//!
//! Every figure and table of the paper's evaluation (§5) is regenerated
//! by the `harness` binary: paper-style tables with wall-clock timings
//! under the 7-run trimmed mean the paper describes. This crate only
//! reproduces the paper; the service, socket and per-layer measurements
//! live in the `benchmark/` workspace.
//!
//! Scale: the paper's corpora hold ~3.5M nodes each. The default here
//! is 1/20 of the paper's sentence counts — large enough to reproduce
//! every relative effect, small enough for CI. Set
//! `LPATH_BENCH_SENTENCES` (WSJ sentences; SWB is scaled to match the
//! paper's ratio) to change it, e.g. the paper-scale
//! `LPATH_BENCH_SENTENCES=49000`.
//!
//! ```
//! use lpath_bench::{fixtures, wsj_corpus};
//!
//! // A tiny synthetic WSJ slice plus the 23-query alignment fixture.
//! let corpus = wsj_corpus(5);
//! assert_eq!(corpus.trees().len(), 5);
//! assert_eq!(fixtures::eval_cases().len(), 23);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// The cross-dialect query alignment is shared with the repository's
// integration tests — one fixture, consumed from both compilation
// contexts.
#[path = "../../../tests/fixtures/mod.rs"]
pub mod fixtures;

use std::time::{Duration, Instant};

use fixtures::eval_case;
use lpath_core::Engine;
use lpath_corpussearch::CsEngine;
use lpath_model::{generate, Corpus, GenConfig};
use lpath_tgrep::TgrepEngine;
use lpath_xpath::XPathEngine;

/// WSJ sentences at the default benchmark scale.
pub fn default_wsj_sentences() -> usize {
    std::env::var("LPATH_BENCH_SENTENCES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_450)
}

/// SWB sentences matching the paper's WSJ:SWB sentence ratio.
pub fn default_swb_sentences() -> usize {
    default_wsj_sentences() * 110 / 49
}

/// The synthetic WSJ-profile corpus.
pub fn wsj_corpus(sentences: usize) -> Corpus {
    generate(&GenConfig::wsj(sentences))
}

/// The synthetic SWB-profile corpus.
pub fn swb_corpus(sentences: usize) -> Corpus {
    generate(&GenConfig::swb(sentences))
}

/// All engines over one corpus.
pub struct Engines<'c> {
    /// The shared corpus.
    pub corpus: &'c Corpus,
    /// The paper's relational engine.
    pub lpath: Engine,
    /// The TGrep2-style baseline.
    pub tgrep: TgrepEngine,
    /// The CorpusSearch-style baseline.
    pub cs: CsEngine<'c>,
}

impl<'c> Engines<'c> {
    /// Build all three engines over one corpus.
    pub fn build(corpus: &'c Corpus) -> Self {
        Engines {
            corpus,
            lpath: Engine::build(corpus),
            tgrep: TgrepEngine::build(corpus),
            cs: CsEngine::new(corpus),
        }
    }

    /// Run query `id` (1-based) on every engine, returning
    /// (lpath, tgrep, corpussearch) counts — they must agree.
    pub fn counts(&self, id: usize) -> (usize, usize, usize) {
        let case = eval_case(id);
        (
            self.lpath.count(case.lpath).expect("lpath query"),
            self.tgrep.count(case.tgrep).expect("tgrep query"),
            self.cs.count(case.cs).expect("cs query"),
        )
    }
}

/// The paper's timing methodology (§5.1): run 7 times, discard the
/// fastest and slowest, average the rest. Returns the trimmed mean.
pub fn time7(mut f: impl FnMut()) -> Duration {
    let mut runs: Vec<Duration> = (0..7)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    runs.sort();
    let kept = &runs[1..6];
    kept.iter().sum::<Duration>() / kept.len() as u32
}

/// Format a duration the way the paper's log-scale plots think about
/// it: seconds with enough precision for sub-millisecond times.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

/// The per-query engine timings backing Figures 7 and 8.
pub struct QueryTiming {
    /// Query id (Q1–Q23).
    pub id: usize,
    /// LPath engine time (7-run trimmed mean).
    pub lpath: Duration,
    /// TGrep2 baseline time.
    pub tgrep: Duration,
    /// CorpusSearch baseline time.
    pub cs: Duration,
    /// Result size (sanity cross-check across engines).
    pub result_size: usize,
}

/// Time all 23 queries on all three engines (Figures 7/8 rows).
pub fn figure7_rows(engines: &Engines<'_>) -> Vec<QueryTiming> {
    fixtures::eval_cases()
        .iter()
        .map(|case| {
            let (n1, n2, n3) = engines.counts(case.id);
            assert_eq!(n1, n2, "Q{} lpath vs tgrep", case.id);
            assert_eq!(n1, n3, "Q{} lpath vs corpussearch", case.id);
            QueryTiming {
                id: case.id,
                lpath: time7(|| {
                    engines.lpath.count(case.lpath).unwrap();
                }),
                tgrep: time7(|| {
                    engines.tgrep.count(case.tgrep).unwrap();
                }),
                cs: time7(|| {
                    engines.cs.count(case.cs).unwrap();
                }),
                result_size: n1,
            }
        })
        .collect()
}

/// One Figure 10 row: LPath vs XPath labeling on a shared query.
pub struct LabelingTiming {
    /// Query id (one of the 11 XPath-expressible).
    pub id: usize,
    /// Time over the LPath labeling.
    pub lpath: Duration,
    /// Time over the start/end (DeHaan) labeling.
    pub xpath: Duration,
}

/// Time the 11 XPath-expressible queries on both labeling schemes.
pub fn figure10_rows(corpus: &Corpus) -> Vec<LabelingTiming> {
    let lp = Engine::build(corpus);
    let xp = XPathEngine::build(corpus);
    fixtures::eval_cases()
        .iter()
        .filter_map(|case| case.xpath.map(|xq| (case.id, case.lpath, xq)))
        .map(|(id, lq, xq)| {
            let a = lp.count(lq).unwrap();
            let b = xp.count(xq).unwrap();
            assert_eq!(a, b, "Q{id} labeling schemes disagree");
            LabelingTiming {
                id,
                lpath: time7(|| {
                    lp.count(lq).unwrap();
                }),
                xpath: time7(|| {
                    xp.count(xq).unwrap();
                }),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpath_core::QUERIES;

    #[test]
    fn engines_bundle_agrees_on_a_tiny_corpus() {
        let corpus = wsj_corpus(60);
        let engines = Engines::build(&corpus);
        for q in QUERIES {
            let (a, b, c) = engines.counts(q.id);
            assert_eq!(a, b, "Q{}", q.id);
            assert_eq!(a, c, "Q{}", q.id);
        }
    }

    #[test]
    fn explain_analyze_is_finite_on_all_23_queries() {
        let corpus = wsj_corpus(60);
        let engine = Engine::build(&corpus);
        for q in QUERIES {
            let ea = engine.explain_analyze(q.lpath).expect("evaluation query");
            assert!(
                ea.estimate_error.is_finite() && ea.estimate_error >= 1.0,
                "Q{}: estimate_error {}",
                q.id,
                ea.estimate_error
            );
            assert_eq!(
                ea.actual_rows,
                engine.count(q.lpath).unwrap(),
                "Q{}: analyzed row count disagrees with count()",
                q.id
            );
            // Walker-fallback queries have no plan steps; relational
            // ones emit at most what survived the final step (plan-
            // level checks and dedup may still discard rows after it).
            if let Some(last) = ea.steps.last() {
                assert!(last.actual_rows as usize >= ea.actual_rows, "Q{}", q.id);
            }
        }
    }

    #[test]
    fn time7_returns_a_sane_duration() {
        let d = time7(|| std::thread::sleep(Duration::from_micros(100)));
        assert!(d >= Duration::from_micros(80));
        assert!(d < Duration::from_millis(50));
    }

    #[test]
    fn default_scales_follow_the_paper_ratio() {
        // SWB has ~2.2× the sentences of WSJ in the paper.
        let w = default_wsj_sentences();
        let s = default_swb_sentences();
        assert!(s > 2 * w && s < 3 * w);
    }
}
