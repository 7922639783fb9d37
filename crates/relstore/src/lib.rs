//! An embedded relational engine: the storage substrate for the LPath
//! query system.
//!
//! The paper stores labeled tree nodes in a relational database and
//! translates LPath to SQL; this crate supplies the database. It is a
//! deliberately small, read-only engine with exactly the machinery that
//! workload needs:
//!
//! * [`table`] — columnar `u32` tables with clustered ordering;
//! * [`index`] — ordered secondary indexes with prefix + range probes;
//! * [`stats`] — exact per-column frequency statistics;
//! * [`sql`] — logical conjunctive queries (`SELECT … WHERE … EXISTS`)
//!   and their SQL text rendering;
//! * [`planner`] — greedy statistics-driven join ordering and access
//!   path selection;
//! * [`mod@plan`] — pipelined index-nested-loop plans with correlated
//!   semi/anti joins;
//! * [`cursor`] — pull-based streaming execution with early
//!   termination (`exists`, materialization-free `count`, and any
//!   prefix a caller pulls before dropping the [`Cursor`]).
//!
//! Nothing here knows about trees or LPath: the query compiler in
//! `lpath-core` lowers axis relations to plain column comparisons.
//!
//! ```
//! use lpath_relstore::{AccessPath, ColId, ColRef, Cursor, Database,
//!                      JoinStep, Plan, Schema, Table};
//!
//! // A two-column table and a single-step scan plan over it.
//! let mut t = Table::new(Schema::new(&["grp", "val"]));
//! for row in [[1, 10], [1, 11], [2, 20]] {
//!     t.push_row(&row);
//! }
//! let mut db = Database::new();
//! let tid = db.add_table("t", t);
//! let plan = Plan {
//!     alias_tables: vec![tid],
//!     steps: vec![JoinStep {
//!         alias: 0,
//!         table: tid,
//!         access: AccessPath::FullScan,
//!         residual: vec![],
//!         sets: vec![],
//!     }],
//!     projection: vec![ColRef::new(0, ColId(1))],
//!     ..Plan::default()
//! };
//!
//! // Pull one tuple, then the rest: the cursor streams on demand.
//! let mut cursor = Cursor::new(&plan, &db);
//! assert_eq!(cursor.next(), Some(vec![10]));
//! let rest: Vec<_> = cursor.collect();
//! assert_eq!(rest, [[11], [20]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod cursor;
pub mod expr;
pub mod index;
pub mod plan;
pub mod planner;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod table;
pub mod value;
pub mod wire;

pub use catalog::{Database, IndexId, TableId};
pub use cursor::{count, execute, execute_analyzed, exists, Cursor, StepObs};
pub use expr::{ColRef, Cond, InCond, Operand};
pub use index::Index;
pub use plan::{AccessPath, JoinStep, Plan, SubCheck};
pub use planner::{plan, JoinOrder, PlannerConfig};
pub use schema::{ColId, Schema};
pub use sql::{ConjQuery, SubQuery};
pub use stats::{ColumnStats, TableStats};
pub use table::{RowId, Table};
pub use value::{Cmp, Value, NULL};
pub use wire::WireError;
