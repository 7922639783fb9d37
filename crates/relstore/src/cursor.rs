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
//! * [`execute_page`] — skip `offset` tuples, keep `limit`, stop;
//! * [`execute`] — the classic collect-everything form, now a thin
//!   wrapper over the cursor;
//! * [`execute_resume`] — stop after `limit` tuples **and keep the
//!   right to continue**: the enumeration suspends into a
//!   [`CursorCheckpoint`] and a later call picks up exactly where it
//!   stopped, paying nothing for the tuples already emitted.
//!
//! Suspension captures the complete join state — the binding of every
//! alias, each open stage's candidate position, and the `DISTINCT`
//! watermark — as plain owned data ([`CursorCheckpoint`]), so a
//! checkpoint can outlive the cursor, the plan borrow, and the calling
//! frame (e.g. live in a service's cache between page requests).
//!
//! ```
//! use lpath_relstore::{execute, execute_resume, Cursor};
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
//! // Two tuples now…
//! let (first, ckpt) = execute_resume(&plan, &db, None, 2);
//! assert_eq!(first.len(), 2);
//! // …the rest later, with no replay of the first two.
//! let (rest, done) = execute_resume(&plan, &db, ckpt, usize::MAX);
//! assert!(done.is_none());
//! let mut all = first; all.extend(rest);
//! assert_eq!(all, execute(&plan, &db));
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
use crate::wire;

/// Observed per-step execution counts — the *actual* side of the
/// planner's estimated costs, maintained by every cursor at the price
/// of a few plain integer increments per candidate row.
///
/// One `StepObs` per [`JoinStep`], carried across [`Cursor::suspend`] /
/// [`Cursor::resume`] so a paged enumeration accumulates the same
/// totals as an uninterrupted one (modulo the re-run probe each resume
/// performs, which is counted honestly as a probe).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepObs {
    /// Access-path openings: index range probes (or scan starts),
    /// including the re-probe a resume performs per suspended stage.
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
    /// The suspendable half of this stage's state (see [`LevelPos`]).
    fn pos(&self) -> LevelPos {
        match self {
            Cands::Scan { next, .. } => LevelPos::Scan { next: *next },
            Cands::Rows { pos, .. } => LevelPos::Rows { pos: *pos },
        }
    }

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

/// The suspendable position of one open pipeline stage — the owned
/// mirror of [`Cands`], minus everything re-derivable from the plan
/// and database (the scan's end, the index probe's row slice).
#[derive(Clone, Debug, PartialEq, Eq)]
enum LevelPos {
    /// Next physical row of a full scan.
    Scan { next: u32 },
    /// Position within an index probe's candidate slice.
    Rows { pos: usize },
}

/// A suspended [`Cursor`]: the complete join state as plain owned data.
///
/// Produced by [`Cursor::suspend`]; turned back into a live cursor by
/// [`Cursor::resume`]. A checkpoint holds
///
/// * the current binding of **every** alias (the join `Frame` the
///   recursive checker and the cursor share),
/// * each open stage's candidate position (scan offset or index-probe
///   position — the probe itself is re-run on resume and lands on the
///   same clustered-order slice, since the bindings it is keyed by are
///   restored first),
/// * the emitted-tuple `DISTINCT` watermark (packed for narrow
///   projections, materialized for wide ones), so duplicates spanning
///   a suspension are still suppressed.
///
/// The cursor's search fingers (see [`Cursor`]) are deliberately *not*
/// part of a checkpoint: they only speed up index probes, never change
/// their results, so a resumed cursor starts with cold fingers and the
/// encoded bytes (hence service page tokens) are the same as they
/// would be without fingers.
///
/// A checkpoint is only meaningful against the **same plan over the
/// same database contents** it was suspended from. Callers that cache
/// checkpoints must scope them accordingly (the service scopes them to
/// a shard's immutable build); resuming against a structurally
/// different plan panics, resuming against different *data* silently
/// yields garbage.
#[derive(Clone, Debug)]
pub struct CursorCheckpoint {
    bindings: Vec<RowId>,
    levels: Vec<LevelPos>,
    primed: bool,
    done: bool,
    seen_narrow: HashSet<u64>,
    seen_wide: HashSet<Vec<Value>>,
    obs: Vec<StepObs>,
}

impl CursorCheckpoint {
    /// Has the suspended enumeration already finished? A resumed
    /// cursor over a finished checkpoint yields nothing (cheaply).
    pub fn exhausted(&self) -> bool {
        self.done
    }

    /// Serialize the checkpoint into `w` (the deterministic half of a
    /// wire token: the dedup watermarks are written sorted, so
    /// encoding the same logical state always yields the same bytes).
    pub fn encode_into(&self, w: &mut wire::Writer) {
        w.usize(self.bindings.len());
        for b in &self.bindings {
            w.u32(b.0);
        }
        w.usize(self.levels.len());
        for level in &self.levels {
            match level {
                LevelPos::Scan { next } => {
                    w.u8(0);
                    w.u64(u64::from(*next));
                }
                LevelPos::Rows { pos } => {
                    w.u8(1);
                    w.usize(*pos);
                }
            }
        }
        w.bool(self.primed);
        w.bool(self.done);
        let mut narrow: Vec<u64> = self.seen_narrow.iter().copied().collect();
        narrow.sort_unstable();
        w.usize(narrow.len());
        for v in narrow {
            w.u64(v);
        }
        let mut wide: Vec<&Vec<Value>> = self.seen_wide.iter().collect();
        wide.sort_unstable();
        w.usize(wide.len());
        for tuple in wide {
            w.usize(tuple.len());
            for &v in tuple {
                w.u32(v);
            }
        }
        w.usize(self.obs.len());
        for o in &self.obs {
            w.u64(o.probes);
            w.u64(o.candidates);
            w.u64(o.residual_evals);
            w.u64(o.rows_out);
        }
    }

    /// Decode a checkpoint from untrusted bytes, validated against the
    /// `plan` and `db` it claims to resume over: the alias count must
    /// match the plan, each open stage's recorded kind must agree with
    /// the plan's access path, and every binding an open stage has
    /// fixed must reference a real row of its alias's table. A
    /// checkpoint this accepts can be fed to [`Cursor::resume`]
    /// without tripping its shape assertions.
    pub fn decode(
        r: &mut wire::Reader<'_>,
        plan: &Plan,
        db: &Database,
    ) -> Result<CursorCheckpoint, wire::WireError> {
        use wire::WireError::Malformed;
        let nbind = r.seq_len(4)?;
        if nbind != plan.alias_tables.len() {
            return Err(Malformed("alias count does not match plan"));
        }
        let mut bindings = Vec::with_capacity(nbind);
        for _ in 0..nbind {
            bindings.push(RowId(r.u32()?));
        }
        let nlevels = r.seq_len(2)?;
        if nlevels > plan.steps.len() {
            return Err(Malformed("more open stages than plan steps"));
        }
        let mut levels = Vec::with_capacity(nlevels);
        for d in 0..nlevels {
            let level = match r.u8()? {
                0 => LevelPos::Scan {
                    next: u32::try_from(r.u64()?).unwrap_or(u32::MAX),
                },
                1 => LevelPos::Rows { pos: r.usize()? },
                _ => return Err(Malformed("level kind")),
            };
            let scan = matches!(level, LevelPos::Scan { .. });
            let wants_scan = matches!(plan.steps[d].access, crate::plan::AccessPath::FullScan);
            if scan != wants_scan {
                return Err(Malformed("stage kind disagrees with plan access path"));
            }
            levels.push(level);
        }
        // Every alias a suspended open stage has bound must point at a
        // real row — those bindings are read when checks run and when
        // deeper probes resolve their keys. Aliases beyond the open
        // stages keep their placeholder and are never read before
        // being rebound, so they need no constraint.
        for step in &plan.steps[..nlevels] {
            let rows = db.table(step.table).num_rows();
            if bindings[step.alias].0 as usize >= rows {
                return Err(Malformed("binding references a missing row"));
            }
        }
        let primed = r.bool()?;
        let done = r.bool()?;
        if !primed && nlevels > 0 {
            return Err(Malformed("open stages on an unprimed cursor"));
        }
        let n_narrow = r.seq_len(8)?;
        let mut seen_narrow = HashSet::with_capacity(n_narrow);
        for _ in 0..n_narrow {
            seen_narrow.insert(r.u64()?);
        }
        let n_wide = r.seq_len(8)?;
        let mut seen_wide = HashSet::with_capacity(n_wide);
        for _ in 0..n_wide {
            let tlen = r.seq_len(4)?;
            let mut tuple = Vec::with_capacity(tlen);
            for _ in 0..tlen {
                tuple.push(r.u32()?);
            }
            seen_wide.insert(tuple);
        }
        let nobs = r.seq_len(32)?;
        if nobs != plan.steps.len() {
            return Err(Malformed("observation count does not match plan"));
        }
        let mut obs = Vec::with_capacity(nobs);
        for _ in 0..nobs {
            obs.push(StepObs {
                probes: r.u64()?,
                candidates: r.u64()?,
                residual_evals: r.u64()?,
                rows_out: r.u64()?,
            });
        }
        Ok(CursorCheckpoint {
            bindings,
            levels,
            primed,
            done,
            seen_narrow,
            seen_wide,
            obs,
        })
    }

    /// The per-step observed counts accumulated up to the suspension
    /// (restored into the cursor on resume, so they keep growing).
    pub fn step_observations(&self) -> &[StepObs] {
        &self.obs
    }

    /// Number of distinct tuples emitted before suspension (the dedup
    /// watermark's size). Zero for non-`DISTINCT` plans, whose
    /// emissions are not tracked.
    pub fn distinct_emitted(&self) -> usize {
        self.seen_narrow.len() + self.seen_wide.len()
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
/// landed. Fingers are search hints only, and are not saved by
/// [`Cursor::suspend`]: a resumed cursor searches cold until its
/// first probe of each step.
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
        // entry point (execute, count, exists, paging, resume) funnels
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

    /// Capture the complete join state as owned data, leaving the
    /// cursor untouched. Valid at any point between [`Iterator::next`]
    /// calls — before the first pull, mid-enumeration, or after
    /// exhaustion.
    pub fn suspend(&self) -> CursorCheckpoint {
        CursorCheckpoint {
            bindings: self.bindings.clone(),
            levels: self.levels.iter().map(Cands::pos).collect(),
            primed: self.primed,
            done: self.done,
            seen_narrow: self.seen_narrow.clone(),
            seen_wide: self.seen_wide.clone(),
            obs: self.obs.clone(),
        }
    }

    /// [`Cursor::suspend`] by move: consumes the cursor and hands its
    /// state over without copying the `DISTINCT` watermark — the
    /// right form when the cursor is done being polled (a paging loop
    /// suspending between requests), where cloning a large emitted
    /// set per page would make suspension itself O(rows emitted).
    pub fn into_checkpoint(self) -> CursorCheckpoint {
        CursorCheckpoint {
            levels: self.levels.iter().map(Cands::pos).collect(),
            bindings: self.bindings,
            primed: self.primed,
            done: self.done,
            seen_narrow: self.seen_narrow,
            seen_wide: self.seen_wide,
            obs: self.obs,
        }
    }

    /// Rebuild a live cursor from a checkpoint taken over the same
    /// `plan` and `db`. The continuation is exact: the resumed cursor
    /// yields precisely the tuples the suspended one would have yielded
    /// next, in the same order, with the same `DISTINCT` suppression.
    ///
    /// # Panics
    ///
    /// If the checkpoint's shape does not match `plan` (different alias
    /// count, more open stages than steps, or a stage whose recorded
    /// position kind disagrees with the plan's access path).
    pub fn resume(plan: &'a Plan, db: &'a Database, ckpt: CursorCheckpoint) -> Self {
        assert_eq!(
            ckpt.bindings.len(),
            plan.alias_tables.len(),
            "checkpoint does not belong to this plan (alias count)"
        );
        assert!(
            ckpt.levels.len() <= plan.steps.len(),
            "checkpoint does not belong to this plan (open stages)"
        );
        let narrow = plan.projection.len() <= 2;
        debug_assert_eq!(ckpt.obs.len(), plan.steps.len());
        let done = ckpt.done || plan.const_empty;
        let mut cursor = Cursor {
            plan: Cow::Borrowed(plan),
            db,
            bindings: ckpt.bindings,
            levels: Vec::with_capacity(ckpt.levels.len()),
            fingers: vec![usize::MAX; plan.steps.len()],
            checks: CheckScratch::for_checks(plan),
            primed: ckpt.primed,
            done,
            narrow,
            seen_narrow: ckpt.seen_narrow,
            seen_wide: ckpt.seen_wide,
            obs: ckpt.obs,
            timed: false,
            step_nanos: Vec::new(),
        };
        // Reopen each suspended stage against the restored bindings.
        // While stage `d` is open, the bindings of steps `< d` are
        // fixed (only deeper stages mutate deeper aliases), so the
        // re-run probe resolves to the same candidate slice the
        // suspended stage was iterating — only the position needs
        // fast-forwarding.
        for (d, saved) in ckpt.levels.iter().enumerate() {
            let mut cands = cursor.open(d);
            cursor.obs[d].probes += 1; // the re-run probe is real work
            match (&mut cands, saved) {
                (Cands::Scan { next, .. }, LevelPos::Scan { next: n }) => *next = *n,
                (Cands::Rows { rows, pos }, LevelPos::Rows { pos: p }) => {
                    // A legitimate checkpoint's position is always
                    // within the re-run probe's slice; clamping (not
                    // asserting) keeps decoded-from-the-wire state —
                    // validated structurally, but not against this
                    // probe — safe: past-the-end means exhausted.
                    *pos = (*p).min(rows.len());
                }
                _ => panic!("checkpoint stage {d} disagrees with the plan's access path"),
            }
            cursor.levels.push(cands);
        }
        cursor
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
        self.count_up_to(u64::MAX).0
    }

    /// Count at most `budget` further tuples. Returns the number
    /// counted plus whether the enumeration is exhausted (`false`
    /// means the budget ran out and the cursor can be suspended).
    fn count_up_to(&mut self, budget: u64) -> (u64, bool) {
        let mut n = 0u64;
        if !self.plan.distinct || self.plan.dedup_free {
            while n < budget {
                if !self.advance_match() {
                    return (n, true);
                }
                n += 1;
            }
        } else if self.narrow {
            while n < budget {
                if !self.advance_match() {
                    return (n, true);
                }
                let key = self.packed();
                if self.seen_narrow.insert(key) {
                    n += 1;
                }
            }
        } else {
            while n < budget {
                if !self.advance_match() {
                    return (n, true);
                }
                let tuple = self.project();
                if self.seen_wide.insert(tuple) {
                    n += 1;
                }
            }
        }
        (n, false)
    }
}

impl Iterator for Cursor<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        loop {
            if !self.advance_match() {
                return None;
            }
            if !self.plan.distinct {
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

/// Count up to `budget` further tuples of `plan`'s output, continuing
/// from `checkpoint` (or from the start when `None`), plus the
/// checkpoint to continue from next — `None` once the enumeration is
/// known exhausted. Summing the counts of successive calls equals
/// [`count`], whatever the per-call budgets: the checkpoint carries
/// the distinct watermark sets, so resumed counting never double- or
/// under-counts across a suspension boundary.
pub fn count_resume(
    plan: &Plan,
    db: &Database,
    checkpoint: Option<CursorCheckpoint>,
    budget: usize,
) -> (u64, Option<CursorCheckpoint>) {
    let mut cursor = match checkpoint {
        Some(ckpt) => Cursor::resume(plan, db, ckpt),
        None => Cursor::new(plan, db),
    };
    let (n, exhausted) = cursor.count_up_to(budget as u64);
    if exhausted {
        (n, None)
    } else {
        (n, Some(cursor.into_checkpoint()))
    }
}

/// The `[offset, offset + limit)` slice of `execute`'s output, stopping
/// the enumeration as soon as the page is filled. Exactly equal to
/// `execute(plan, db)[offset..][..limit]` (clamped at the end).
pub fn execute_page(plan: &Plan, db: &Database, offset: usize, limit: usize) -> Vec<Vec<Value>> {
    if limit == 0 {
        return Vec::new();
    }
    Cursor::new(plan, db).skip(offset).take(limit).collect()
}

/// Up to `limit` further tuples of `plan`'s output, continuing from
/// `checkpoint` (or from the start when `None`), plus the checkpoint
/// to continue from *next* — `None` once the enumeration is known
/// exhausted. Concatenating the row chunks of successive calls is
/// byte-identical to [`execute`], whatever the per-call limits.
///
/// A full page may coincide with the end of the enumeration; the call
/// then still returns a checkpoint, and the following call returns
/// `(vec![], None)` — "no more rows" is only ever discovered by asking.
pub fn execute_resume(
    plan: &Plan,
    db: &Database,
    checkpoint: Option<CursorCheckpoint>,
    limit: usize,
) -> (Vec<Vec<Value>>, Option<CursorCheckpoint>) {
    let mut cursor = match checkpoint {
        Some(ckpt) => Cursor::resume(plan, db, ckpt),
        None => Cursor::new(plan, db),
    };
    let mut rows = Vec::new();
    while rows.len() < limit {
        match cursor.next() {
            Some(row) => rows.push(row),
            None => return (rows, None),
        }
    }
    (rows, Some(cursor.into_checkpoint()))
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
    fn pages_are_prefix_slices() {
        let (db, tid, _) = setup();
        let plan = scan_plan(tid, vec![ColRef::new(0, VAL)], false);
        let full = execute(&plan, &db);
        assert_eq!(full.len(), 6);
        for offset in 0..8 {
            for limit in 0..8 {
                let page = execute_page(&plan, &db, offset, limit);
                let want: Vec<Vec<Value>> = full.iter().skip(offset).take(limit).cloned().collect();
                assert_eq!(page, want, "offset {offset} limit {limit}");
            }
        }
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
        assert_eq!(execute_page(&wide, &db, 1, 1), [[2, 2, 2]]);
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
        assert_eq!(execute_page(&plan, &db, 1, 5), Vec::<Vec<Value>>::new());
    }

    /// Every plan shape the suspension tests sweep: scans, probes,
    /// joins, distinct narrow/wide projections, existence checks.
    fn checkpoint_plans(db: &Database, tid: TableId, idx: IndexId) -> Vec<Plan> {
        let _ = db;
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
    fn suspend_resume_at_every_row_boundary_is_exact() {
        let (db, tid, idx) = setup();
        for (pi, plan) in checkpoint_plans(&db, tid, idx).iter().enumerate() {
            let full = execute(plan, &db);
            // Split the enumeration at every boundary, including 0
            // (suspend before the first pull) and len (suspend after
            // the last row but before discovering exhaustion).
            for split in 0..=full.len() {
                let (head, ckpt) = execute_resume(plan, &db, None, split);
                assert_eq!(head, full[..split], "plan {pi} split {split}");
                let Some(ckpt) = ckpt else {
                    // Only possible when the head already exhausted
                    // the enumeration.
                    assert_eq!(split, full.len(), "plan {pi}");
                    continue;
                };
                let (tail, end) = execute_resume(plan, &db, Some(ckpt), usize::MAX);
                assert_eq!(tail, full[split..], "plan {pi} split {split}");
                assert!(end.is_none(), "plan {pi} split {split}");
            }
        }
    }

    #[test]
    fn resume_in_single_steps_matches_execute() {
        let (db, tid, idx) = setup();
        for (pi, plan) in checkpoint_plans(&db, tid, idx).iter().enumerate() {
            let full = execute(plan, &db);
            // Row-at-a-time resumption across fresh cursors each time.
            let mut got = Vec::new();
            let mut ckpt = None;
            loop {
                let (rows, next) = execute_resume(plan, &db, ckpt, 1);
                got.extend(rows);
                match next {
                    Some(c) => ckpt = Some(c),
                    None => break,
                }
            }
            assert_eq!(got, full, "plan {pi}");
        }
    }

    #[test]
    fn distinct_watermark_survives_suspension() {
        // Rows (1,10), (1,11), (1,12) project to one distinct (grp,)
        // tuple; suspending between them must not re-emit it.
        let (db, tid, _) = setup();
        let plan = scan_plan(tid, vec![ColRef::new(0, GRP)], true);
        let (head, ckpt) = execute_resume(&plan, &db, None, 1);
        assert_eq!(head, [[1]]);
        let ckpt = ckpt.unwrap();
        assert_eq!(ckpt.distinct_emitted(), 1);
        assert!(!ckpt.exhausted());
        let (tail, _) = execute_resume(&plan, &db, Some(ckpt), usize::MAX);
        assert_eq!(tail, [[2], [3]]);
    }

    #[test]
    fn suspending_an_exhausted_cursor_resumes_to_nothing() {
        let (db, tid, _) = setup();
        let plan = scan_plan(tid, vec![ColRef::new(0, VAL)], false);
        let mut cursor = Cursor::new(&plan, &db);
        while cursor.next().is_some() {}
        let ckpt = cursor.suspend();
        assert!(ckpt.exhausted());
        let (rows, end) = execute_resume(&plan, &db, Some(ckpt), 10);
        assert_eq!(rows, Vec::<Vec<Value>>::new());
        assert!(end.is_none());
    }

    #[test]
    #[should_panic(expected = "alias count")]
    fn resuming_against_a_different_plan_panics() {
        let (db, tid, idx) = setup();
        let one = scan_plan(tid, vec![ColRef::new(0, VAL)], false);
        let (_, ckpt) = execute_resume(&one, &db, None, 1);
        let other = &checkpoint_plans(&db, tid, idx)[3]; // two aliases
        let _ = Cursor::resume(other, &db, ckpt.unwrap());
    }

    #[test]
    fn observations_count_candidates_rows_and_probes() {
        let (db, tid, idx) = setup();
        let join = &checkpoint_plans(&db, tid, idx)[3]; // scan ⋈ probe
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

    #[test]
    fn observations_accumulate_across_suspend_resume() {
        let (db, tid, idx) = setup();
        for (pi, plan) in checkpoint_plans(&db, tid, idx).iter().enumerate() {
            let (_, straight, _) = execute_analyzed(plan, &db);
            // Row-at-a-time sweep: every boundary suspends and resumes.
            let mut ckpt: Option<CursorCheckpoint> = None;
            let final_obs = loop {
                let (_, next) = execute_resume(plan, &db, ckpt.clone(), 1);
                match next {
                    Some(c) => ckpt = Some(c),
                    // Exhaustion drops the cursor; the last checkpoint
                    // before it carries the accumulated counts.
                    None => break ckpt.take(),
                }
            };
            // The checkpoint right before exhaustion already accounts
            // for every candidate pulled so far; compare the row/eval
            // totals (probes legitimately exceed the straight run by
            // the per-resume re-probes).
            if let Some(c) = final_obs {
                for (d, (got, want)) in c.step_observations().iter().zip(&straight).enumerate() {
                    assert!(
                        got.candidates <= want.candidates && got.rows_out <= want.rows_out,
                        "plan {pi} step {d}: suspended sweep overshot the straight run"
                    );
                    assert!(
                        got.probes >= want.probes,
                        "plan {pi} step {d}: resumes must re-probe"
                    );
                }
            }
            // And a single mid-way suspension, drained to the end,
            // lands on exactly the straight-run candidate totals.
            let (_, ckpt) = execute_resume(plan, &db, None, 1);
            if let Some(ckpt) = ckpt {
                let mut cursor = Cursor::resume(plan, &db, ckpt);
                while cursor.next().is_some() {}
                for (d, (got, want)) in cursor.step_observations().iter().zip(&straight).enumerate()
                {
                    assert_eq!(
                        (got.candidates, got.residual_evals, got.rows_out),
                        (want.candidates, want.residual_evals, want.rows_out),
                        "plan {pi} step {d}: split run diverged from straight run"
                    );
                }
            }
        }
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

    /// Suspend `plan`'s enumeration after every row, resume it on a
    /// fresh cursor and drain: each split yields exactly the
    /// uninterrupted rows and per-step candidate counts, and every
    /// resumed cursor starts with cold fingers (they are not part of
    /// the checkpoint).
    fn assert_resumes_exactly(plan: &Plan, db: &Database) {
        let (full, straight, _) = execute_analyzed(plan, db);
        assert_eq!(full, nested_loop(plan, db));
        for split in 0..=full.len() {
            let mut head = Cursor::new(plan, db);
            let mut rows: Vec<Vec<Value>> = head.by_ref().take(split).collect();
            let ckpt = head.suspend();
            let mut tail = Cursor::resume(plan, db, ckpt);
            // Only the stages the resume re-opened have probed.
            for (d, &f) in tail.fingers.iter().enumerate() {
                assert!(
                    d < tail.levels.len() || f == usize::MAX,
                    "split {split} step {d}"
                );
            }
            assert!(tail
                .checks
                .iter()
                .all(|c| c.fingers().iter().all(|&f| f == usize::MAX)));
            rows.extend(tail.by_ref());
            assert_eq!(rows, full, "split {split}");
            let candidates = |obs: &[StepObs]| obs.iter().map(|o| o.candidates).collect::<Vec<_>>();
            assert_eq!(
                candidates(tail.step_observations()),
                candidates(&straight),
                "split {split}"
            );
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
        assert_resumes_exactly(&plan, &db);
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
        assert_resumes_exactly(&plan, &db);
    }

    #[test]
    fn resume_mid_stage_restarts_fingers_cold() {
        let (db, tid, idx) = setup();
        // scan ⋈ probe: the split points fall inside stage 1's slices.
        let join = &checkpoint_plans(&db, tid, idx)[3];
        let mut cursor = Cursor::new(join, &db);
        cursor.next();
        cursor.next();
        assert_eq!(cursor.levels.len(), 2);
        assert_ne!(cursor.fingers[1], usize::MAX);
        // The resume re-runs each open stage's probe from a cold
        // finger, and it lands exactly where the warm finger was.
        let resumed = Cursor::resume(join, &db, cursor.suspend());
        assert_eq!(resumed.fingers, cursor.fingers);
        for plan in &checkpoint_plans(&db, tid, idx) {
            assert_resumes_exactly(plan, &db);
        }
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
        assert_eq!(execute_page(&plan, &db, 0, 5), Vec::<Vec<Value>>::new());
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
        assert_eq!(execute_page(&plan, &db, 0, 5), Vec::<Vec<Value>>::new());
        let (rows, obs, nanos) = execute_analyzed(&plan, &db);
        assert!(rows.is_empty() && obs.is_empty() && nanos.is_empty());
        // Paged/resumed execution stays empty and reports exhaustion.
        let (rows, ckpt) = execute_resume(&plan, &db, None, 10);
        assert!(rows.is_empty());
        assert!(ckpt.is_none(), "a constant-empty cursor is exhausted");
        // A checkpoint restored over a constant-empty plan never runs.
        let live = Cursor::new(&plan, &db);
        let ckpt = live.suspend();
        let mut resumed = Cursor::resume(&plan, &db, ckpt);
        assert!(resumed.next().is_none());
    }
}
