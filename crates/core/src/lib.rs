//! The LPath query engine — the primary contribution of Bird et al.,
//! *Designing and Evaluating an XPath Dialect for Linguistic Queries*
//! (ICDE 2006).
//!
//! Three evaluators, one language:
//!
//! * [`Engine`] — the paper's engine: interval labeling
//!   (Definition 4.1), a relational node table clustered by
//!   `{name, tid, left, …}` with the §5 secondary indexes, LPath → SQL
//!   translation (Table 2 join templates) and indexed join execution;
//! * [`Walker`] — a direct tree walker over labels, covering the full
//!   language including features the relational translation rejects;
//! * [`naive::NaiveEvaluator`] — a quadratic oracle computing every
//!   relation from parent pointers and leaf ordinals, with
//!   [`naive::proper_analyses`] realizing Definition 3.1 literally.
//!
//! ```
//! use lpath_model::ptb::parse_str;
//! use lpath_core::Engine;
//!
//! let corpus = parse_str(
//!     "( (S (NP-SBJ (PRP I)) (VP (VBD saw) (NP (DT the) (NN man)))) )",
//! ).unwrap();
//! let engine = Engine::build(&corpus);
//! assert_eq!(engine.count("//VP{/NP$}").unwrap(), 1);
//!
//! // Document-ordered enumeration is resumable: stop after a page,
//! // keep the checkpoint, continue later with nothing replayed.
//! let ast = lpath_syntax::parse("//_").unwrap();
//! let (page1, ckpt) = engine.query_resume(&ast, None, 3).unwrap();
//! let (rest, done) = engine.query_resume(&ast, ckpt, usize::MAX).unwrap();
//! assert!(done.is_none());
//! let mut all = page1; all.extend(rest);
//! assert_eq!(all, engine.query("//_").unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod engine;
pub mod naive;
pub mod queryset;
pub mod translate;
pub mod walker;

pub use engine::{Engine, EngineError, ExplainAnalyze, Matches, QueryCheckpoint, StepReport};
pub use naive::NaiveEvaluator;
pub use queryset::{benchmark_batch, BenchQuery, ExtQuery, EXTENDED_QUERIES, QUERIES};
pub use translate::{Translator, Unsupported};
pub use walker::{Walker, WalkerCheckpoint};
