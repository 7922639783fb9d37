//! Pull-based plan execution with early termination.
//!
//! [`Cursor`] is the streaming form of the pipelined
//! index-nested-loop executor: instead of materializing the complete
//! match set, it maintains the join state of [`crate::plan::Plan`]
//! explicitly (one candidate source per pipeline stage) and yields one
//! projected tuple per [`Iterator::next`] call. Everything downstream
//! of it can therefore stop as early as it likes:
//!
//! * [`exists`] — stop at the very first result tuple (the
//!   Boolean-evaluation gap of Gottlob–Koch–Schulz's *Conjunctive
//!   Queries over Trees*);
//! * [`count`] — enumerate without materializing tuples (the common
//!   narrow projection dedups through a packed `u64` set);
//! * [`execute`] — the classic collect-everything form, a thin
//!   wrapper over the cursor.
//!
//! A cursor keeps no state worth saving between requests: a caller
//! that pages through a result re-opens a cursor at a position of its
//! own choosing, by a lower bound on the anchor step's access path
//! (the engine bounds the tree id, see `lpath_core::Engine::page_ast`).
//!
//! ```
//! use lpath_relstore::{execute, Cursor};
//! # use lpath_relstore::{AccessPath, ColRef, Database, JoinStep, Plan, Schema, Table, ColId};
//! # let mut t = Table::new(Schema::new(&["grp", "val"]));
//! # for row in [[1, 10], [1, 11], [2, 20]] { t.push_row(&row); }
//! # let mut db = Database::new();
//! # let tid = db.add_table("t", t);
//! # let plan = Plan {
//! #     alias_tables: vec![tid],
//! #     steps: vec![JoinStep { alias: 0, table: tid, access: AccessPath::FullScan,
//! #                            residual: vec![], sets: vec![] }],
//! #     checks: vec![], projection: vec![ColRef::new(0, ColId(1))], distinct: false,
//! #     ..Plan::default()
//! # };
//! // Two tuples, then the cursor is dropped: the rest is never computed.
//! let first: Vec<_> = Cursor::new(&plan, &db).take(2).collect();
//! assert_eq!(first, execute(&plan, &db)[..2]);
//! ```
//!
//! Output order and dedup semantics are identical to the historical
//! recursive executor: tuples appear in pipeline (depth-first join)
//! order, and `DISTINCT` plans deduplicate on the **projected** tuple —
//! never on the full wide binding — so the distinct set's size is
//! bounded by the output, not by alias-count × width.

use std::borrow::Cow;
use std::collections::HashSet;
use std::time::Instant;

use crate::catalog::Database;
use crate::plan::{run_check, CheckScratch, Frame, JoinStep, Plan};
use crate::table::RowId;
use crate::value::Value;

/// Observed per-step execution counts — the *actual* side of the
/// planner's estimated costs, maintained by every cursor at the price
/// of a few plain integer increments per candidate row.
///
/// One `StepObs` per [`JoinStep`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepObs {
    /// Access-path openings: index range probes (or scan starts).
    pub probes: u64,
    /// Candidate rows pulled from the step's scan or probe slice.
    pub candidates: u64,
    /// Residual and set-filter conditions actually evaluated on those
    /// candidates (short-circuiting, so ≤ candidates × conditions).
    pub residual_evals: u64,
    /// Candidates that survived the step's filters — the step's
    /// observed output rows (pre-`DISTINCT`).
    pub rows_out: u64,
}

/// [`crate::plan::satisfies`] with an evaluation tally: counts each
/// residual / set condition actually evaluated, short-circuiting
/// exactly like the original.
fn satisfies_counting(step: &JoinStep, db: &Database, frame: &Frame<'_>, evals: &mut u64) -> bool {
    for c in &step.residual {
        *evals += 1;
        if !c
            .cmp
            .eval(frame.value(db, c.left), frame.resolve(db, c.right))
        {
            return false;
        }
    }
    for ic in &step.sets {
        *evals += 1;
        if !ic.matches(frame.value(db, ic.col)) {
            return false;
        }
    }
    true
}

/// Candidate rows of one opened pipeline stage.
enum Cands<'a> {
    /// Full table scan: the remaining physical row range.
    Scan { next: u32, end: u32 },
    /// Index probe: the matching (clustered-order) row slice.
    Rows { rows: &'a [RowId], pos: usize },
}

impl Cands<'_> {
    fn next(&mut self) -> Option<RowId> {
        match self {
            Cands::Scan { next, end } => {
                if next < end {
                    *next += 1;
                    Some(RowId(*next - 1))
                } else {
                    None
                }
            }
            Cands::Rows { rows, pos } => {
                let row = rows.get(*pos).copied();
                *pos += 1;
                row
            }
        }
    }
}

/// Where the state machine resumes.
enum Mode {
    /// Entering pipeline position `d`: run due checks, then either
    /// emit (`d == steps.len()`) or open stage `d`'s candidates.
    Enter(usize),
    /// Pull the next candidate of the already-open stage `d`.
    Advance(usize),
}

/// A streaming executor over one plan. Yields projected tuples (with
/// the plan's `DISTINCT` applied) on demand; dropping it abandons the
/// remaining enumeration at zero cost.
///
/// Every index probe is a finger search ([`crate::Index::range_from`]):
/// the cursor keeps one finger per plan step — and one per step of
/// each existence check, beside that check's reusable binding buffer —
/// and each probe searches from where the same step's previous probe
/// landed. Fingers are search hints only: they never change a probe's
/// result.
pub struct Cursor<'a> {
    plan: Cow<'a, Plan>,
    db: &'a Database,
    bindings: Vec<RowId>,
    levels: Vec<Cands<'a>>,
    /// One search finger per step: where the step's last index probe
    /// landed in its index's permutation (`usize::MAX` before the
    /// first), handed to the next probe as its search hint.
    fingers: Vec<usize>,
    /// The reusable state of each of the plan's existence checks
    /// (bindings, fingers, nested checks), in `plan.checks` order.
    checks: Vec<CheckScratch>,
    primed: bool,
    done: bool,
    /// Narrow projections (≤ 2 columns, the common `(tid, id)`) dedup
    /// through a packed `u64`, keeping duplicate emissions
    /// allocation-free.
    narrow: bool,
    seen_narrow: HashSet<u64>,
    seen_wide: HashSet<Vec<Value>>,
    /// Per-step observed counts (always on: plain integer increments).
    obs: Vec<StepObs>,
    /// Attribute wall-clock time to steps? Off by default — only
    /// EXPLAIN ANALYZE pays for a clock read per state transition.
    timed: bool,
    step_nanos: Vec<u64>,
}

impl<'a> Cursor<'a> {
    /// A cursor over a borrowed plan.
    pub fn new(plan: &'a Plan, db: &'a Database) -> Self {
        Self::build(Cow::Borrowed(plan), db)
    }

    /// A cursor that owns its plan — for iterators that must outlive
    /// the planning scope (e.g. an engine handing a streaming result
    /// to its caller).
    pub fn owning(plan: Plan, db: &'a Database) -> Self {
        Self::build(Cow::Owned(plan), db)
    }

    fn build(plan: Cow<'a, Plan>, db: &'a Database) -> Self {
        let bindings = vec![RowId(0); plan.alias_tables.len()];
        let narrow = plan.projection.len() <= 2;
        let obs = vec![StepObs::default(); plan.steps.len()];
        // A constant-empty plan's cursor is born exhausted: every
        // entry point (execute, count, exists) funnels
        // through `advance_match`, whose first check is `done`.
        let done = plan.const_empty;
        Cursor {
            fingers: vec![usize::MAX; plan.steps.len()],
            checks: CheckScratch::for_checks(&plan),
            plan,
            db,
            bindings,
            levels: Vec::new(),
            primed: false,
            done,
            narrow,
            seen_narrow: HashSet::new(),
            seen_wide: HashSet::new(),
            obs,
            timed: false,
            step_nanos: Vec::new(),
        }
    }

    /// Enable per-step wall-clock attribution (EXPLAIN ANALYZE mode).
    /// Costs one monotonic clock read per state-machine transition, so
    /// it is opt-in; the counted observations are always maintained.
    pub fn with_timing(mut self) -> Self {
        self.timed = true;
        self.step_nanos = vec![0; self.plan.steps.len()];
        self
    }

    /// The per-step observed counts accumulated so far.
    pub fn step_observations(&self) -> &[StepObs] {
        &self.obs
    }

    /// Nanoseconds attributed to each step so far. Empty unless the
    /// cursor was built [`Cursor::with_timing`].
    pub fn step_nanos(&self) -> &[u64] {
        &self.step_nanos
    }

    fn frame(&self) -> Frame<'_> {
        Frame {
            plan: &self.plan,
            bindings: &self.bindings,
            outer: None,
        }
    }

    /// Run the checks scheduled for pipeline position `depth`.
    fn checks_pass(&mut self, depth: usize) -> bool {
        let frame = Frame {
            plan: &self.plan,
            bindings: &self.bindings,
            outer: None,
        };
        self.plan
            .checks
            .iter()
            .zip(&mut self.checks)
            .filter(|(c, _)| c.due_at(depth))
            .all(|(c, scratch)| run_check(c, self.db, &frame, scratch))
    }

    /// Open stage `d`: resolve its access path against the current
    /// bindings and return its candidate rows, searching the index
    /// from the stage's finger and moving the finger to where the
    /// probe landed.
    fn open(&mut self, d: usize) -> Cands<'a> {
        let step = &self.plan.steps[d];
        let frame = Frame {
            plan: &self.plan,
            bindings: &self.bindings,
            outer: None,
        };
        match step.probe(self.db, &frame, &mut self.fingers[d]) {
            None => Cands::Scan {
                next: 0,
                end: self.db.table(step.table).num_rows() as u32,
            },
            Some(rows) => Cands::Rows { rows, pos: 0 },
        }
    }

    /// Advance to the next complete (pre-`DISTINCT`) binding. Returns
    /// `false` when the enumeration is exhausted. This is the
    /// iterative mirror of the recursive depth-first join: `Enter(d)`
    /// corresponds to calling `run(.., d, ..)`, `Advance(d)` to the
    /// candidate loop of stage `d`, and check failure to pruning the
    /// stage-`d-1` binding.
    fn advance_match(&mut self) -> bool {
        if self.done {
            return false;
        }
        let nsteps = self.plan.steps.len();
        let mut mode = if !self.primed {
            self.primed = true;
            Mode::Enter(0)
        } else if nsteps == 0 {
            // A stepless plan emits exactly once.
            self.done = true;
            return false;
        } else {
            Mode::Advance(nsteps - 1)
        };
        loop {
            // In EXPLAIN ANALYZE mode, attribute each transition's wall
            // clock to the step it works for (check-and-emit work at
            // `Enter(d)` goes to the step that produced the binding).
            let timer = (self.timed && nsteps > 0).then(|| {
                let at = match mode {
                    Mode::Enter(d) => d.min(nsteps - 1),
                    Mode::Advance(d) => d,
                };
                (Instant::now(), at)
            });
            // `Some(emitted)` ends the enumeration step for the caller.
            let mut outcome = None;
            match mode {
                Mode::Enter(d) => {
                    if !self.checks_pass(d) {
                        if d == 0 {
                            self.done = true;
                            outcome = Some(false);
                        } else {
                            mode = Mode::Advance(d - 1);
                        }
                    } else if d == nsteps {
                        outcome = Some(true);
                    } else {
                        self.obs[d].probes += 1;
                        let cands = self.open(d);
                        self.levels.push(cands);
                        mode = Mode::Advance(d);
                    }
                }
                Mode::Advance(d) => {
                    debug_assert_eq!(self.levels.len(), d + 1);
                    match self.levels[d].next() {
                        None => {
                            self.levels.pop();
                            if d == 0 {
                                self.done = true;
                                outcome = Some(false);
                            } else {
                                mode = Mode::Advance(d - 1);
                            }
                        }
                        Some(row) => {
                            let alias = self.plan.steps[d].alias;
                            self.bindings[alias] = row;
                            let mut evals = 0u64;
                            let ok = satisfies_counting(
                                &self.plan.steps[d],
                                self.db,
                                &self.frame(),
                                &mut evals,
                            );
                            let o = &mut self.obs[d];
                            o.candidates += 1;
                            o.residual_evals += evals;
                            if ok {
                                o.rows_out += 1;
                                mode = Mode::Enter(d + 1);
                            }
                        }
                    }
                }
            }
            if let Some((start, at)) = timer {
                self.step_nanos[at] +=
                    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            if let Some(emitted) = outcome {
                return emitted;
            }
        }
    }

    /// The projection of the current binding, packed into a `u64`
    /// (valid only for narrow projections).
    fn packed(&self) -> u64 {
        let frame = self.frame();
        let mut packed = 0u64;
        for &c in &self.plan.projection {
            packed = (packed << 32) | u64::from(frame.value(self.db, c));
        }
        packed
    }

    /// Materialize the projection of the current binding.
    fn project(&self) -> Vec<Value> {
        let frame = self.frame();
        self.plan
            .projection
            .iter()
            .map(|&c| frame.value(self.db, c))
            .collect()
    }
}

impl Cursor<'_> {
    /// Count the tuples this cursor has yet to produce, without
    /// materializing an output vector. Non-distinct plans count every
    /// complete binding; distinct plans count first-encounter tuples
    /// through the watermark sets — unless the plan is
    /// [`dedup_free`](Plan::dedup_free), in which case duplicates are
    /// provably impossible and both the projection and the watermark
    /// sets are skipped (the count pushdown fast path).
    pub fn count_remaining(&mut self) -> u64 {
        let mut n = 0u64;
        if !self.plan.distinct || self.plan.dedup_free {
            while self.advance_match() {
                n += 1;
            }
        } else if self.narrow {
            while self.advance_match() {
                let key = self.packed();
                n += u64::from(self.seen_narrow.insert(key));
            }
        } else {
            while self.advance_match() {
                let tuple = self.project();
                n += u64::from(self.seen_wide.insert(tuple));
            }
        }
        n
    }
}

impl Iterator for Cursor<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        loop {
            if !self.advance_match() {
                return None;
            }
            // Like counting, a dedup-free plan keeps no watermark.
            if !self.plan.distinct || self.plan.dedup_free {
                return Some(self.project());
            }
            if self.narrow {
                let key = self.packed();
                if self.seen_narrow.insert(key) {
                    return Some(self.project());
                }
            } else {
                let tuple = self.project();
                if self.seen_wide.insert(tuple.clone()) {
                    return Some(tuple);
                }
            }
        }
    }
}

/// Run `plan` to completion, returning projected tuples (distinct if
/// the plan says so, in first-encounter order).
pub fn execute(plan: &Plan, db: &Database) -> Vec<Vec<Value>> {
    Cursor::new(plan, db).collect()
}

/// [`execute`] under full instrumentation: the tuples, plus per-step
/// observed counts and per-step attributed nanoseconds — the raw
/// material of EXPLAIN ANALYZE.
pub fn execute_analyzed(plan: &Plan, db: &Database) -> (Vec<Vec<Value>>, Vec<StepObs>, Vec<u64>) {
    let mut cursor = Cursor::new(plan, db).with_timing();
    let rows: Vec<Vec<Value>> = cursor.by_ref().collect();
    let nanos = std::mem::take(&mut cursor.step_nanos);
    (rows, cursor.obs, nanos)
}

/// Does `plan` produce at least one tuple? Stops at the first complete
/// binding — no projection, no dedup, no materialization.
pub fn exists(plan: &Plan, db: &Database) -> bool {
    Cursor::new(plan, db).advance_match()
}

/// Number of (distinct) result tuples, without materializing an output
/// vector. Narrow distinct projections count through the packed set;
/// only wide distinct projections hash materialized tuples (and drop
/// them immediately).
pub fn count(plan: &Plan, db: &Database) -> usize {
    Cursor::new(plan, db).count_remaining() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Database, IndexId, TableId};
    use crate::expr::{ColRef, Operand};
    use crate::plan::{AccessPath, JoinStep, Plan, SubCheck};
    use crate::schema::{ColId, Schema};
    use crate::table::Table;

    const GRP: ColId = ColId(0);
    const VAL: ColId = ColId(1);

    /// The same toy table as the plan tests: (grp, val).
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

    fn scan_plan(tid: TableId, projection: Vec<ColRef>, distinct: bool) -> Plan {
        Plan {
            alias_tables: vec![tid],
            steps: vec![JoinStep {
                alias: 0,
                table: tid,
                access: AccessPath::FullScan,
                residual: vec![],
                sets: vec![],
            }],
            checks: vec![],
            projection,
            distinct,
            ..Plan::default()
        }
    }

    #[test]
    fn cursor_streams_execute_exactly() {
        let (db, tid, idx) = setup();
        // Self-join pairs, same shape as the plan test.
        let plan = Plan {
            alias_tables: vec![tid, tid],
            steps: vec![
                JoinStep {
                    alias: 0,
                    table: tid,
                    access: AccessPath::FullScan,
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
        let full = execute(&plan, &db);
        let streamed: Vec<Vec<Value>> = Cursor::new(&plan, &db).collect();
        assert_eq!(streamed, full);
        assert_eq!(count(&plan, &db), full.len());
        assert!(exists(&plan, &db));
    }

    #[test]
    fn a_lower_bound_on_the_anchor_yields_a_suffix() {
        // Paging re-opens a cursor with a lower bound on its anchor's
        // first range column: the output is the unbounded output from
        // the bound on, in the same order.
        let (db, tid, idx) = setup();
        let bounded = |lo: Option<(bool, Operand)>| Plan {
            alias_tables: vec![tid],
            steps: vec![JoinStep {
                alias: 0,
                table: tid,
                access: AccessPath::IndexRange {
                    index: idx,
                    eq: vec![],
                    lo,
                    hi: None,
                },
                residual: vec![],
                sets: vec![],
            }],
            projection: vec![ColRef::new(0, GRP), ColRef::new(0, VAL)],
            ..Plan::default()
        };
        let full = execute(&bounded(None), &db);
        assert_eq!(full.len(), 6);
        for grp in 0..5 {
            let plan = bounded(Some((true, Operand::Const(grp))));
            let want: Vec<Vec<Value>> = full.iter().filter(|r| r[0] >= grp).cloned().collect();
            assert_eq!(execute(&plan, &db), want, "grp >= {grp}");
            assert_eq!(count(&plan, &db), want.len(), "grp >= {grp}");
        }
    }

    #[test]
    fn dedup_free_enumeration_keeps_no_watermark() {
        // A planner-certified dedup-free plan emits every binding as
        // is: enumerating it, like counting it, hashes nothing.
        let (db, tid, _) = setup();
        let mut plan = scan_plan(tid, vec![ColRef::new(0, GRP), ColRef::new(0, VAL)], true);
        plan.dedup_free = true;
        let mut cursor = Cursor::new(&plan, &db);
        let rows: Vec<Vec<Value>> = cursor.by_ref().collect();
        assert_eq!(rows.len(), 6);
        assert!(cursor.seen_narrow.is_empty() && cursor.seen_wide.is_empty());
        plan.dedup_free = false;
        assert_eq!(rows, execute(&plan, &db));
    }

    #[test]
    fn distinct_dedups_on_the_projected_tuple() {
        // Regression pin: duplicate *projected* tuples arising from
        // distinct wide bindings must collapse. Rows (1,10), (1,11),
        // (1,12) are three distinct bindings but one projected (grp,)
        // tuple.
        let (db, tid, _) = setup();
        let plan = scan_plan(tid, vec![ColRef::new(0, GRP)], true);
        assert_eq!(execute(&plan, &db), [[1], [2], [3]]);
        assert_eq!(count(&plan, &db), 3);
        // Same through a wide (> 2 column) projection: (grp, grp, grp).
        let wide = scan_plan(
            tid,
            vec![
                ColRef::new(0, GRP),
                ColRef::new(0, GRP),
                ColRef::new(0, GRP),
            ],
            true,
        );
        assert_eq!(execute(&wide, &db), [[1, 1, 1], [2, 2, 2], [3, 3, 3]]);
        assert_eq!(count(&wide, &db), 3);
        let second: Vec<Vec<Value>> = Cursor::new(&wide, &db).skip(1).take(1).collect();
        assert_eq!(second, [[2, 2, 2]]);
    }

    #[test]
    fn count_remaining_counts_only_what_is_left() {
        // A cursor pulled part-way counts the rest, distinct plans
        // through the watermark the pulled rows already filled.
        let (db, tid, idx) = setup();
        for (pi, plan) in plan_shapes(tid, idx).iter().enumerate() {
            let total = count(plan, &db) as u64;
            for pulled in 0..=total {
                let mut cursor = Cursor::new(plan, &db);
                let got = cursor.by_ref().take(pulled as usize).count() as u64;
                assert_eq!(
                    got + cursor.count_remaining(),
                    total,
                    "plan {pi} after {pulled}"
                );
            }
        }
    }

    #[test]
    fn exists_stops_before_enumerating() {
        let (db, tid, _) = setup();
        let plan = scan_plan(tid, vec![ColRef::new(0, VAL)], false);
        let mut cursor = Cursor::new(&plan, &db);
        assert!(cursor.advance_match());
        // Only the first candidate of the first (and only) stage has
        // been pulled.
        match &cursor.levels[0] {
            Cands::Scan { next, .. } => assert_eq!(*next, 1),
            Cands::Rows { .. } => panic!("expected a scan"),
        }
    }

    #[test]
    fn stepless_plan_emits_once() {
        let (db, _, _) = setup();
        let plan = Plan::default();
        assert_eq!(execute(&plan, &db), [Vec::<Value>::new()]);
        assert_eq!(count(&plan, &db), 1);
        assert!(exists(&plan, &db));
    }

    /// Plan shapes over the toy table: scans, probes, joins, distinct
    /// narrow/wide projections, existence checks.
    fn plan_shapes(tid: TableId, idx: IndexId) -> Vec<Plan> {
        let join = Plan {
            alias_tables: vec![tid, tid],
            steps: vec![
                JoinStep {
                    alias: 0,
                    table: tid,
                    access: AccessPath::FullScan,
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
        let mut checked = scan_plan(tid, vec![ColRef::new(0, GRP)], true);
        checked.checks.push(SubCheck {
            after_step: 0,
            negated: false,
            plan: sub,
        });
        vec![
            scan_plan(tid, vec![ColRef::new(0, VAL)], false),
            scan_plan(tid, vec![ColRef::new(0, GRP)], true), // narrow distinct
            scan_plan(
                tid,
                vec![
                    ColRef::new(0, GRP),
                    ColRef::new(0, GRP),
                    ColRef::new(0, GRP),
                ],
                true,
            ), // wide distinct
            join,
            checked,
            Plan::default(), // stepless
        ]
    }

    #[test]
    fn observations_count_candidates_rows_and_probes() {
        let (db, tid, idx) = setup();
        let join = &plan_shapes(tid, idx)[3]; // scan ⋈ probe
        let (rows, obs, nanos) = execute_analyzed(join, &db);
        assert_eq!(rows, execute(join, &db));
        assert_eq!(obs.len(), 2);
        assert_eq!(nanos.len(), 2);
        // Step 0 scans the table once: 6 candidates, all pass (no
        // residual conditions), so 6 observed rows and 0 evaluations.
        assert_eq!(
            obs[0],
            StepObs {
                probes: 1,
                candidates: 6,
                residual_evals: 0,
                rows_out: 6
            }
        );
        // Step 1 probes once per outer row and its observed rows are
        // exactly the join's output.
        assert_eq!(obs[1].probes, 6);
        assert_eq!(obs[1].rows_out as usize, rows.len());
        assert_eq!(obs[1].candidates, obs[1].rows_out);
    }

    #[test]
    fn residual_evaluations_are_counted_per_condition() {
        use crate::expr::Cond;
        use crate::value::Cmp;
        let (db, tid, _) = setup();
        let mut plan = scan_plan(tid, vec![ColRef::new(0, VAL)], false);
        plan.steps[0].residual.push(Cond {
            left: ColRef::new(0, GRP),
            cmp: Cmp::Eq,
            right: Operand::Const(1),
        });
        let (rows, obs, _) = execute_analyzed(&plan, &db);
        assert_eq!(rows.len(), 3);
        // One condition evaluated for each of the 6 candidates; 3 pass.
        assert_eq!(obs[0].candidates, 6);
        assert_eq!(obs[0].residual_evals, 6);
        assert_eq!(obs[0].rows_out, 3);
    }

    /// The recursive nested-loop executor's output for `plan` (the
    /// reference the cursor must reproduce), `DISTINCT` applied in
    /// first-encounter order.
    fn nested_loop(plan: &Plan, db: &Database) -> Vec<Vec<Value>> {
        let mut out: Vec<Vec<Value>> = Vec::new();
        let mut scratch = CheckScratch::for_plan(plan);
        crate::plan::run(plan, db, &mut scratch, None, 0, &mut |frame| {
            let tuple: Vec<Value> = plan
                .projection
                .iter()
                .map(|&c| frame.value(db, c))
                .collect();
            if !plan.distinct || !out.contains(&tuple) {
                out.push(tuple);
            }
            true
        });
        out
    }

    /// Every plan shape's cursor reproduces the recursive executor,
    /// tuple for tuple, and counts what it enumerates.
    #[test]
    fn cursors_reproduce_the_nested_loop_executor() {
        let (db, tid, idx) = setup();
        for (pi, plan) in plan_shapes(tid, idx).iter().enumerate() {
            let full = execute(plan, &db);
            assert_eq!(full, nested_loop(plan, &db), "plan {pi}");
            assert_eq!(count(plan, &db), full.len(), "plan {pi}");
            assert_eq!(exists(plan, &db), !full.is_empty(), "plan {pi}");
        }
    }

    #[test]
    fn decreasing_probe_keys_search_backwards() {
        // The outer stage scans a table in physical order whose join
        // column runs 3, 2, 1, 2, 1: the inner probe's key falls
        // between consecutive probes, so its finger must move back.
        let (mut db, tid, idx) = setup();
        let mut keys = Table::new(Schema::new(&["k"]));
        for k in [3, 2, 1, 2, 1] {
            keys.push_row(&[k]);
        }
        let kid = db.add_table("keys", keys);
        let plan = Plan {
            alias_tables: vec![kid, tid],
            steps: vec![
                JoinStep {
                    alias: 0,
                    table: kid,
                    access: AccessPath::FullScan,
                    residual: vec![],
                    sets: vec![],
                },
                JoinStep {
                    alias: 1,
                    table: tid,
                    access: AccessPath::IndexRange {
                        index: idx,
                        eq: vec![Operand::Col(ColRef::new(0, ColId(0)))],
                        lo: None,
                        hi: None,
                    },
                    residual: vec![],
                    sets: vec![],
                },
            ],
            projection: vec![ColRef::new(0, ColId(0)), ColRef::new(1, VAL)],
            ..Plan::default()
        };
        let mut cursor = Cursor::new(&plan, &db);
        let mut rows = Vec::new();
        let mut fingers = Vec::new();
        while let Some(row) = cursor.next() {
            rows.push(row);
            fingers.push(cursor.fingers[1]);
        }
        assert_eq!(rows, nested_loop(&plan, &db));
        assert_eq!(rows.len(), 1 + 2 + 3 + 2 + 3);
        // Group 3 starts at permutation offset 5, group 2 at 3, group
        // 1 at 0: the finger follows the key down and up again.
        assert_eq!(fingers, [5, 3, 3, 0, 0, 0, 3, 3, 0, 0, 0]);
    }

    #[test]
    fn correlated_not_exists_searches_from_check_fingers() {
        // Rows with no larger value in their group: the group maxima.
        let (db, tid, idx) = setup();
        let sub = Plan {
            alias_tables: vec![tid],
            steps: vec![JoinStep {
                alias: 0,
                table: tid,
                access: AccessPath::IndexRange {
                    index: idx,
                    eq: vec![Operand::Outer(ColRef::new(0, GRP))],
                    lo: Some((false, Operand::Outer(ColRef::new(0, VAL)))),
                    hi: None,
                },
                residual: vec![],
                sets: vec![],
            }],
            ..Plan::default()
        };
        let mut plan = scan_plan(tid, vec![ColRef::new(0, GRP), ColRef::new(0, VAL)], false);
        plan.checks.push(SubCheck {
            after_step: 0,
            negated: true,
            plan: sub,
        });
        let mut cursor = Cursor::new(&plan, &db);
        let rows: Vec<Vec<Value>> = cursor.by_ref().collect();
        assert_eq!(rows, [[1, 12], [2, 21], [3, 30]]);
        assert_eq!(rows, nested_loop(&plan, &db));
        // The check probed through its own finger, which is now warm:
        // the last probe (group 3 above 30) lands at the end.
        assert_eq!(cursor.checks[0].fingers(), [6]);
    }

    #[test]
    fn timing_is_opt_in() {
        let (db, tid, _) = setup();
        let plan = scan_plan(tid, vec![ColRef::new(0, VAL)], false);
        let mut plain = Cursor::new(&plan, &db);
        while plain.next().is_some() {}
        assert!(plain.step_nanos().is_empty());
        let mut timed = Cursor::new(&plan, &db).with_timing();
        while timed.next().is_some() {}
        assert_eq!(timed.step_nanos().len(), 1);
    }

    #[test]
    fn empty_table_yields_nothing() {
        let mut db = Database::new();
        let tid = db.add_table("t", Table::new(Schema::new(&["grp", "val"])));
        let plan = scan_plan(tid, vec![ColRef::new(0, VAL)], false);
        assert!(!exists(&plan, &db));
        assert_eq!(count(&plan, &db), 0);
    }

    #[test]
    fn constant_empty_plan_yields_nothing_everywhere() {
        let (db, _, _) = setup();
        let plan = Plan::constant_empty();
        // A steps-less plan normally emits the single all-bound row;
        // the flag must override that.
        assert_eq!(execute(&plan, &db), Vec::<Vec<Value>>::new());
        assert!(!exists(&plan, &db));
        assert_eq!(count(&plan, &db), 0);
        let (rows, obs, nanos) = execute_analyzed(&plan, &db);
        assert!(rows.is_empty() && obs.is_empty() && nanos.is_empty());
    }
}
