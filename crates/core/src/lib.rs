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
//! use lpath_core::{Engine, Position};
//!
//! let corpus = parse_str(
//!     "( (S (NP-SBJ (PRP I)) (VP (VBD saw) (NP (DT the) (NN man)))) )",
//! ).unwrap();
//! let engine = Engine::build(&corpus);
//! assert_eq!(engine.count("//VP{/NP$}").unwrap(), 1);
//!
//! // Document-ordered enumeration pages from a position: the tree to
//! // continue from and how many of its matches were already served.
//! let ast = lpath_syntax::parse("//_").unwrap();
//! let (page1, at) = engine.page_ast(&ast, Position::START, 3).unwrap();
//! assert_eq!(at, Some(Position { tree: 0, skip: 3 }));
//! let (rest, done) = engine.page_ast(&ast, at.unwrap(), usize::MAX).unwrap();
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
pub mod semijoin;
pub mod translate;
pub mod walker;

pub use engine::{Engine, EngineError, ExplainAnalyze, Matches, Paged, Position, StepReport};
pub use naive::NaiveEvaluator;
pub use queryset::{benchmark_batch, BenchQuery, ExtQuery, EXTENDED_QUERIES, QUERIES};
pub use translate::{Translator, Unsupported};
pub use walker::Walker;
