//! Physical plans: pipelined index-nested-loop joins with correlated
//! semi/anti-join checks.
//!
//! A [`Plan`] binds the aliases of a [`crate::sql::ConjQuery`] one at a
//! time. Each [`JoinStep`] produces candidate rows through an
//! [`AccessPath`] — an ordered-index range probe keyed by values from
//! already-bound aliases (the paper's indexed join evaluation) or a full
//! scan — and filters them with residual conditions. `EXISTS` /
//! `NOT EXISTS` subqueries become recursive existence [`SubCheck`]s run
//! as soon as every outer alias they reference is bound.

use std::fmt;
use std::ops::Bound;

use crate::catalog::{Database, IndexId, TableId};
use crate::expr::{ColRef, Cond, InCond, Operand};
use crate::table::RowId;
use crate::value::Value;

/// How a join step produces its candidate rows.
#[derive(Clone, Debug)]
pub enum AccessPath {
    /// Scan the whole table — the fallback when no index key column has
    /// a usable equality or range condition.
    FullScan,
    /// Probe an ordered index: equality on the leading `eq` key columns,
    /// then an optional range on the next key column.
    IndexRange {
        /// The probed index.
        index: IndexId,
        /// Operands for the leading equality key columns.
        eq: Vec<Operand>,
        /// Lower bound on the key column after the equality prefix:
        /// `(inclusive, operand)`.
        lo: Option<(bool, Operand)>,
        /// Upper bound, same shape.
        hi: Option<(bool, Operand)>,
    },
}

/// One pipeline stage: bind `alias` from `table` via `access`, keeping
/// rows that satisfy `residual`.
#[derive(Clone, Debug)]
pub struct JoinStep {
    /// The alias this step binds.
    pub alias: usize,
    /// The table the alias ranges over.
    pub table: TableId,
    /// How candidate rows are produced.
    pub access: AccessPath,
    /// Conditions oriented with `left.alias == alias`; right-hand sides
    /// refer to constants, already-bound aliases, or outer bindings.
    pub residual: Vec<Cond>,
    /// Set-membership filters on this alias's columns
    /// (`col IN (v1, …, vk)`).
    pub sets: Vec<InCond>,
}

impl JoinStep {
    /// The candidate rows of an index-range step under the bindings of
    /// `frame`, in key order; `None` for a full scan. The index is
    /// searched from `*finger` (see [`crate::Index::range_from`]), and
    /// the finger is moved to where this probe landed.
    pub(crate) fn probe<'d>(
        &self,
        db: &'d Database,
        frame: &Frame<'_>,
        finger: &mut usize,
    ) -> Option<&'d [RowId]> {
        let AccessPath::IndexRange { index, eq, lo, hi } = &self.access else {
            return None;
        };
        // Index keys are at most the widest key (8 columns for the
        // node relation) — resolve into a stack buffer.
        let mut key_buf = [0 as Value; 8];
        debug_assert!(eq.len() <= key_buf.len());
        for (slot, &op) in key_buf.iter_mut().zip(eq.iter()) {
            *slot = frame.resolve(db, op);
        }
        let (start, rows) = db.index(*index).range_from(
            db.table(self.table),
            &key_buf[..eq.len()],
            resolve_bound(frame, db, lo),
            resolve_bound(frame, db, hi),
            *finger,
        );
        *finger = start;
        Some(rows)
    }
}

/// A correlated existence check compiled from an `EXISTS`/`NOT EXISTS`
/// subquery, scheduled to run once `after_step + 1` steps are bound.
#[derive(Clone, Debug)]
pub struct SubCheck {
    /// Run once this many steps (plus one) are bound.
    pub after_step: usize,
    /// NOT EXISTS instead of EXISTS.
    pub negated: bool,
    /// The subquery's own plan.
    pub plan: Plan,
}

/// A complete physical plan.
#[derive(Clone, Debug, Default)]
pub struct Plan {
    /// Table of every alias (indexed by alias id), for operand
    /// resolution — including aliases bound by later steps.
    pub alias_tables: Vec<TableId>,
    /// Pipeline stages, execution order.
    pub steps: Vec<JoinStep>,
    /// Correlated existence checks.
    pub checks: Vec<SubCheck>,
    /// Output columns.
    pub projection: Vec<ColRef>,
    /// Deduplicate output tuples.
    pub distinct: bool,
    /// Duplicates are provably impossible (see
    /// [`crate::ConjQuery::dedup_free`]): enumerating and counting
    /// skip the distinct watermark sets. The planner sets it.
    pub dedup_free: bool,
    /// Planner estimate of the total enumeration cost (intermediate
    /// tuples summed over the pipeline). Zero for hand-built plans.
    pub estimated_total: usize,
    /// Planner estimate of the result cardinality (the smallest alias
    /// input — joins only filter), hence at most the exact frequency of
    /// every `col = const` condition of its aliases. Zero for hand-built
    /// plans.
    pub estimated_result: usize,
    /// The query was proven empty before planning (static analysis):
    /// every cursor built from this plan is born exhausted and yields
    /// nothing, whatever the steps say. An explicit flag — not an
    /// empty `steps` list, which means "emit the single all-bound row".
    pub const_empty: bool,
}

impl Plan {
    /// The plan for a query proven empty before planning: no steps, no
    /// output, and cursors that never yield.
    pub fn constant_empty() -> Plan {
        Plan {
            const_empty: true,
            ..Plan::default()
        }
    }
}

/// Execution context *view*: the bindings of one plan level plus a link
/// to the enclosing level for `Outer` operands. Borrowing (rather than
/// owning) the binding vector lets both the recursive existence checks
/// and the pull-based [`crate::cursor::Cursor`] share one resolution
/// path without copying bindings.
pub(crate) struct Frame<'a> {
    pub(crate) plan: &'a Plan,
    pub(crate) bindings: &'a [RowId],
    pub(crate) outer: Option<&'a Frame<'a>>,
}

impl Frame<'_> {
    pub(crate) fn value(&self, db: &Database, r: ColRef) -> Value {
        let table = self.plan.alias_tables[r.alias];
        db.table(table).value(self.bindings[r.alias], r.col)
    }

    pub(crate) fn resolve(&self, db: &Database, op: Operand) -> Value {
        match op {
            Operand::Const(v) => v,
            Operand::Col(r) => self.value(db, r),
            Operand::Outer(r) => self
                .outer
                .expect("Outer operand without an enclosing frame")
                .value(db, r),
        }
    }
}

/// Resolve a range bound's operand, if any.
fn resolve_bound(frame: &Frame<'_>, db: &Database, b: &Option<(bool, Operand)>) -> Bound<Value> {
    match b {
        None => Bound::Unbounded,
        Some((true, op)) => Bound::Included(frame.resolve(db, *op)),
        Some((false, op)) => Bound::Excluded(frame.resolve(db, *op)),
    }
}

/// The reusable working state of one [`SubCheck`]: its plan's binding
/// vector, one search finger per step (see [`crate::Index::range_from`])
/// and, recursively, the state of its own nested checks. Owned by the
/// enclosing cursor and reused for every outer binding, so running a
/// check allocates nothing and each of its probes searches from where
/// the same step's previous probe landed.
#[derive(Debug)]
pub(crate) struct CheckScratch {
    bindings: Vec<RowId>,
    fingers: Vec<usize>,
    checks: Vec<CheckScratch>,
}

impl CheckScratch {
    /// Fresh (cold) state for every check of `plan`, in `plan.checks`
    /// order.
    pub(crate) fn for_checks(plan: &Plan) -> Vec<CheckScratch> {
        plan.checks
            .iter()
            .map(|c| CheckScratch::for_plan(&c.plan))
            .collect()
    }

    /// Fresh state for running `plan` with [`run`].
    pub(crate) fn for_plan(plan: &Plan) -> CheckScratch {
        CheckScratch {
            bindings: vec![RowId(0); plan.alias_tables.len()],
            fingers: vec![usize::MAX; plan.steps.len()],
            checks: CheckScratch::for_checks(plan),
        }
    }

    /// The search fingers, one per step.
    #[cfg(test)]
    pub(crate) fn fingers(&self) -> &[usize] {
        &self.fingers
    }
}

/// Depth-first join enumeration for correlated existence checks, over
/// the bindings, fingers and nested-check state of `scratch` (built by
/// [`CheckScratch::for_plan`] for this `plan`).
/// `emit` returns `false` to stop early (first witness).
pub(crate) fn run(
    plan: &Plan,
    db: &Database,
    scratch: &mut CheckScratch,
    outer: Option<&Frame<'_>>,
    step_idx: usize,
    emit: &mut dyn FnMut(&Frame<'_>) -> bool,
) -> bool {
    let frame = Frame {
        plan,
        bindings: &scratch.bindings,
        outer,
    };
    // Pending subquery checks at this point in the pipeline.
    for (check, state) in plan.checks.iter().zip(&mut scratch.checks) {
        if check.due_at(step_idx) && !run_check(check, db, &frame, state) {
            return true; // prune this binding, keep enumerating
        }
    }
    if step_idx == plan.steps.len() {
        return emit(&frame);
    }
    let step = &plan.steps[step_idx];
    let rows = step.probe(db, &frame, &mut scratch.fingers[step_idx]);
    let mut visit = |row: RowId, scratch: &mut CheckScratch| {
        scratch.bindings[step.alias] = row;
        let frame = Frame {
            plan,
            bindings: &scratch.bindings,
            outer,
        };
        !satisfies(step, db, &frame) || run(plan, db, scratch, outer, step_idx + 1, emit)
    };
    match rows {
        None => db.table(step.table).scan().all(|row| visit(row, scratch)),
        Some(rows) => rows.iter().all(|&row| visit(row, scratch)),
    }
}

impl SubCheck {
    /// Is this check scheduled to run on entering pipeline position
    /// `step_idx`? (`after_step == usize::MAX` marks uncorrelated
    /// checks that run before the first step binds.)
    pub(crate) fn due_at(&self, step_idx: usize) -> bool {
        self.after_step + 1 == step_idx || (step_idx == 0 && self.after_step == usize::MAX)
    }
}

pub(crate) fn satisfies(step: &JoinStep, db: &Database, frame: &Frame<'_>) -> bool {
    step.residual.iter().all(|c| {
        let lhs = frame.value(db, c.left);
        let rhs = frame.resolve(db, c.right);
        c.cmp.eval(lhs, rhs)
    }) && step
        .sets
        .iter()
        .all(|ic| ic.matches(frame.value(db, ic.col)))
}

/// Run one existence check against the outer binding `outer`, in the
/// check's own reusable `scratch`.
pub(crate) fn run_check(
    check: &SubCheck,
    db: &Database,
    outer: &Frame<'_>,
    scratch: &mut CheckScratch,
) -> bool {
    let mut found = false;
    run(&check.plan, db, scratch, Some(outer), 0, &mut |_| {
        found = true;
        false // stop at first witness
    });
    found != check.negated
}

impl fmt::Display for Plan {
    /// An EXPLAIN-style rendering, one line per step.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn op_str(op: &Operand) -> String {
            match op {
                Operand::Const(v) => v.to_string(),
                Operand::Col(r) => format!("n{}.c{}", r.alias, r.col.0),
                Operand::Outer(r) => format!("outer n{}.c{}", r.alias, r.col.0),
            }
        }
        if self.const_empty {
            return writeln!(f, "constant empty (proven by static analysis)");
        }
        for (i, s) in self.steps.iter().enumerate() {
            write!(f, "step {i}: bind n{} via ", s.alias)?;
            match &s.access {
                AccessPath::FullScan => write!(f, "full scan")?,
                AccessPath::IndexRange { index, eq, lo, hi } => {
                    write!(f, "index #{} eq [", index.0)?;
                    for (k, e) in eq.iter().enumerate() {
                        if k > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}", op_str(e))?;
                    }
                    write!(f, "]")?;
                    if let Some((inc, op)) = lo {
                        write!(f, " {} {}", if *inc { ">=" } else { ">" }, op_str(op))?;
                    }
                    if let Some((inc, op)) = hi {
                        write!(f, " {} {}", if *inc { "<=" } else { "<" }, op_str(op))?;
                    }
                }
            }
            write!(f, " (+{} residual", s.residual.len())?;
            if !s.sets.is_empty() {
                write!(f, ", {} set filters", s.sets.len())?;
            }
            writeln!(f, ")")?;
        }
        for c in &self.checks {
            writeln!(
                f,
                "check after step {}: {}EXISTS ({} steps)",
                c.after_step,
                if c.negated { "NOT " } else { "" },
                c.plan.steps.len()
            )?;
        }
        if self.estimated_total > 0 {
            writeln!(
                f,
                "estimates: total {}, result {}",
                self.estimated_total, self.estimated_result
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{count, execute};
    use crate::schema::{ColId, Schema};
    use crate::table::Table;
    use crate::value::Cmp;

    /// A toy two-column table: (grp, val).
    fn setup() -> (Database, TableId, IndexId) {
        let mut t = Table::new(Schema::new(&["grp", "val"]));
        for row in [[1, 10], [1, 11], [1, 12], [2, 20], [2, 21], [3, 30]] {
            t.push_row(&row);
        }
        t.cluster_by(&[ColId(0), ColId(1)]);
        let mut db = Database::new();
        let tid = db.add_table("t", t);
        let idx = db.add_index(tid, "by_grp_val", vec![ColId(0), ColId(1)]);
        (db, tid, idx)
    }

    const GRP: ColId = ColId(0);
    const VAL: ColId = ColId(1);

    #[test]
    fn single_step_index_probe() {
        let (db, tid, idx) = setup();
        let plan = Plan {
            alias_tables: vec![tid],
            steps: vec![JoinStep {
                alias: 0,
                table: tid,
                access: AccessPath::IndexRange {
                    index: idx,
                    eq: vec![Operand::Const(1)],
                    lo: Some((true, Operand::Const(11))),
                    hi: None,
                },
                residual: vec![],
                sets: vec![],
            }],
            checks: vec![],
            projection: vec![ColRef::new(0, VAL)],
            distinct: false,
            ..Plan::default()
        };
        assert_eq!(execute(&plan, &db), [[11], [12]]);
    }

    #[test]
    fn two_step_join_binds_in_order() {
        let (db, tid, idx) = setup();
        // Self-join: pairs (a, b) in the same grp with b.val = a.val + …
        // here simply b.val > a.val.
        let plan = Plan {
            alias_tables: vec![tid, tid],
            steps: vec![
                JoinStep {
                    alias: 0,
                    table: tid,
                    access: AccessPath::IndexRange {
                        index: idx,
                        eq: vec![Operand::Const(1)],
                        lo: None,
                        hi: None,
                    },
                    residual: vec![],
                    sets: vec![],
                },
                JoinStep {
                    alias: 1,
                    table: tid,
                    access: AccessPath::IndexRange {
                        index: idx,
                        eq: vec![Operand::Col(ColRef::new(0, GRP))],
                        lo: Some((false, Operand::Col(ColRef::new(0, VAL)))),
                        hi: None,
                    },
                    residual: vec![],
                    sets: vec![],
                },
            ],
            checks: vec![],
            projection: vec![ColRef::new(0, VAL), ColRef::new(1, VAL)],
            distinct: false,
            ..Plan::default()
        };
        assert_eq!(execute(&plan, &db), [[10, 11], [10, 12], [11, 12]]);
    }

    #[test]
    fn residual_filters_candidates() {
        let (db, tid, _) = setup();
        let plan = Plan {
            alias_tables: vec![tid],
            steps: vec![JoinStep {
                alias: 0,
                table: tid,
                access: AccessPath::FullScan,
                residual: vec![Cond::against_const(ColRef::new(0, VAL), Cmp::Gt, 15)],
                sets: vec![],
            }],
            checks: vec![],
            projection: vec![ColRef::new(0, VAL)],
            distinct: false,
            ..Plan::default()
        };
        assert_eq!(execute(&plan, &db), [[20], [21], [30]]);
    }

    #[test]
    fn distinct_deduplicates() {
        let (db, tid, _) = setup();
        let plan = Plan {
            alias_tables: vec![tid],
            steps: vec![JoinStep {
                alias: 0,
                table: tid,
                access: AccessPath::FullScan,
                residual: vec![],
                sets: vec![],
            }],
            checks: vec![],
            projection: vec![ColRef::new(0, GRP)],
            distinct: true,
            ..Plan::default()
        };
        assert_eq!(execute(&plan, &db), [[1], [2], [3]]);
        assert_eq!(count(&plan, &db), 3);
    }

    #[test]
    fn exists_and_not_exists_checks() {
        let (db, tid, idx) = setup();
        // Groups that have a value > 11 … via EXISTS.
        let sub = Plan {
            alias_tables: vec![tid],
            steps: vec![JoinStep {
                alias: 0,
                table: tid,
                access: AccessPath::IndexRange {
                    index: idx,
                    eq: vec![Operand::Outer(ColRef::new(0, GRP))],
                    lo: Some((false, Operand::Const(11))),
                    hi: None,
                },
                residual: vec![],
                sets: vec![],
            }],
            checks: vec![],
            projection: vec![],
            distinct: false,
            ..Plan::default()
        };
        let mk = |negated: bool| Plan {
            alias_tables: vec![tid],
            steps: vec![JoinStep {
                alias: 0,
                table: tid,
                access: AccessPath::FullScan,
                residual: vec![],
                sets: vec![],
            }],
            checks: vec![SubCheck {
                after_step: 0,
                negated,
                plan: sub.clone(),
            }],
            projection: vec![ColRef::new(0, GRP)],
            distinct: true,
            ..Plan::default()
        };
        assert_eq!(execute(&mk(false), &db), [[1], [2], [3]]);
        let empty: Vec<Vec<Value>> = vec![];
        assert_eq!(execute(&mk(true), &db), empty);

        // Value > 25 exists only in grp 3.
        let sub25 = Plan {
            alias_tables: vec![tid],
            steps: vec![JoinStep {
                alias: 0,
                table: tid,
                access: AccessPath::IndexRange {
                    index: idx,
                    eq: vec![Operand::Outer(ColRef::new(0, GRP))],
                    lo: Some((false, Operand::Const(25))),
                    hi: None,
                },
                residual: vec![],
                sets: vec![],
            }],
            checks: vec![],
            projection: vec![],
            distinct: false,
            ..Plan::default()
        };
        let mut with = mk(false);
        with.checks[0].plan = sub25.clone();
        assert_eq!(execute(&with, &db), [[3]]);
        let mut without = mk(true);
        without.checks[0].plan = sub25;
        assert_eq!(execute(&without, &db), [[1], [2]]);
    }

    #[test]
    fn display_is_informative() {
        let (db, tid, idx) = setup();
        let _ = db;
        let plan = Plan {
            alias_tables: vec![tid],
            steps: vec![JoinStep {
                alias: 0,
                table: tid,
                access: AccessPath::IndexRange {
                    index: idx,
                    eq: vec![Operand::Const(1)],
                    lo: None,
                    hi: Some((true, Operand::Const(5))),
                },
                residual: vec![],
                sets: vec![],
            }],
            checks: vec![],
            projection: vec![],
            distinct: false,
            ..Plan::default()
        };
        let s = plan.to_string();
        assert!(s.contains("index #0 eq [1] <= 5"), "{s}");
    }
}
