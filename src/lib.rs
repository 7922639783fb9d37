//! # LPath — an XPath dialect and query engine for linguistic trees
//!
//! A from-scratch reproduction of Bird, Chen, Davidson, Lee & Zheng,
//! *Designing and Evaluating an XPath Dialect for Linguistic Queries*
//! (ICDE 2006), as a Rust workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`model`] | ordered trees, interval labeling (Def. 4.1), Penn Treebank I/O, synthetic WSJ/SWB corpora |
//! | [`syntax`] | the LPath language: lexer, parser, AST, printer |
//! | [`check`] | static query analysis: spanned lint diagnostics, vocabulary-aware emptiness |
//! | [`relstore`] | embedded relational engine: columnar tables, ordered indexes, planner, executor |
//! | [`core`] | the LPath engine: translation to SQL (Table 2), walker and naive oracles, the 23 evaluation queries |
//! | [`xpath`] | XPath 1.0 baseline over the DeHaan start/end labeling (Figure 10) |
//! | [`tgrep`] | TGrep2-style baseline: binary corpus image + word index + backtracking matcher |
//! | [`corpussearch`] | CorpusSearch-style baseline: full-scan search-function interpreter |
//! | [`condxpath`] | Conditional XPath (Marx, PODS 2004): the expressiveness side of Lemma 3.1 |
//! | [`service`] | sharded, cached, concurrent query service over the engines (plan/result caches, incremental ingest, batch fan-out) |
//! | [`server`] | network edge: line-delimited JSON protocol with stateless, serialized paging tokens |
//! | [`obs`] | observability primitives: span timers, log-bucketed histograms, counters, the slow-query ring |
//!
//! ## Quickstart
//!
//! ```
//! use lpath::prelude::*;
//!
//! // Load a treebank (or generate a synthetic one; see `GenConfig`).
//! let corpus = parse_str(
//!     "( (S (NP-SBJ (PRP I)) (VP (VBD saw) (NP (DT the) (NN man))) (. .)) )",
//! ).unwrap();
//!
//! // Build the paper's engine: label, load, cluster, index.
//! let engine = Engine::build(&corpus);
//!
//! // Horizontal navigation beyond XPath: NPs immediately following a verb.
//! assert_eq!(engine.count("//VBD->NP").unwrap(), 1);
//!
//! // Subtree scoping and edge alignment.
//! assert_eq!(engine.count("//VP{/NP$}").unwrap(), 1);
//!
//! // The SQL the paper's engine would emit.
//! let sql = engine.sql_ast(&parse("//VBD->NP").unwrap()).unwrap();
//! assert!(sql.contains("n1.left = n0.right"));
//!
//! // Serving many queries? The service shards the corpus, caches
//! // plans and results, and answers batches concurrently.
//! let service = Service::build(&corpus);
//! assert_eq!(service.count("//VBD->NP").unwrap(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lpath_check as check;
pub use lpath_condxpath as condxpath;
pub use lpath_core as core;
pub use lpath_corpussearch as corpussearch;
pub use lpath_model as model;
pub use lpath_obs as obs;
pub use lpath_relstore as relstore;
pub use lpath_server as server;
pub use lpath_service as service;
pub use lpath_syntax as syntax;
pub use lpath_tgrep as tgrep;
pub use lpath_xpath as xpath;

// Compile the README's examples as doctests so the front-page
// quick-starts can never drift from the API.
#[doc = include_str!("../README.md")]
#[doc(hidden)]
pub mod readme {}

/// The architecture guide — layer map, data flow of a paged query,
/// and the cache inventory with invalidation scopes — rendered from
/// `docs/ARCHITECTURE.md` so its examples compile and run as
/// doctests.
///
#[doc = include_str!("../docs/ARCHITECTURE.md")]
pub mod architecture {}

/// The LPath dialect reference — operators, the 23-query translation
/// table across TGrep2/CorpusSearch/XPath, and the EXPLAIN output
/// format — rendered from `docs/DIALECT.md` so its examples compile
/// and run as doctests.
///
#[doc = include_str!("../docs/DIALECT.md")]
pub mod dialect {}

/// The common imports for working with LPath.
pub mod prelude {
    pub use lpath_check::{CheckReport, Diagnostic, Severity};
    pub use lpath_core::{Engine, EngineError, NaiveEvaluator, Walker, QUERIES};
    pub use lpath_corpussearch::{CsEngine, CS_QUERIES};
    pub use lpath_model::ptb::{parse_into, parse_str};
    pub use lpath_model::{generate, Corpus, GenConfig, NodeId, Profile, Tree};
    pub use lpath_relstore::{JoinOrder, OptGoal, PlannerConfig};
    pub use lpath_server::{serve, Client, ServerConfig};
    pub use lpath_service::{Service, ServiceConfig, ServiceError, ServiceStats};
    pub use lpath_syntax::{parse, Axis, Path};
    pub use lpath_tgrep::{TgrepEngine, TGREP_QUERIES};
    pub use lpath_xpath::XPathEngine;
}
