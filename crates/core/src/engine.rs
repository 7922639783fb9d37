//! The LPath query engine: corpus → labeled relation → indexed
//! relational evaluation (paper §4–5).
//!
//! [`Engine::build`] labels every tree (Definition 4.1), loads element
//! and attribute rows into the node relation `{tid, left, right, depth,
//! id, pid, name, value}`, clusters it by `{name, tid, left, right,
//! depth, id, pid}` and builds the secondary indexes of §5. Queries are
//! parsed, translated to conjunctive SQL, planned and executed
//! in-process.

use lpath_check::CheckReport;
use lpath_model::{label_tree, Corpus, Interner, NodeId, Sym};
use lpath_obs::{Recorder, Span};
use lpath_relstore::{
    self as rel, wire, ColRef, Database, OptGoal, PlannerConfig, Schema, Table, TableId, Value,
    NULL,
};
use lpath_syntax::{parse, Path, SyntaxError};

use crate::compile::NCol;
use crate::semijoin::{Access, Program};
use crate::translate::{NodeCols, Translator, Unsupported};

/// Everything that can go wrong answering a query.
#[derive(Debug)]
pub enum EngineError {
    /// The query text does not parse.
    Syntax(SyntaxError),
    /// The query parses but has no relational translation.
    Unsupported(Unsupported),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Syntax(e) => e.fmt(f),
            EngineError::Unsupported(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<SyntaxError> for EngineError {
    fn from(e: SyntaxError) -> Self {
        EngineError::Syntax(e)
    }
}

impl From<Unsupported> for EngineError {
    fn from(e: Unsupported) -> Self {
        EngineError::Unsupported(e)
    }
}

/// The relational LPath engine over one corpus.
pub struct Engine {
    db: Database,
    node: TableId,
    cols: NodeCols,
    interner: Interner,
    planner: PlannerConfig,
    /// The indexes semijoin programs read.
    access: Access,
    /// Running node counts: tree `t`'s elements are positions
    /// `tree_starts[t]..tree_starts[t + 1]` of the relation's elements
    /// in `(tid, id)` order (semijoin programs find element rows by
    /// position), and a checkpoint row `(t, node)` names an element
    /// exactly when `node` is below that span's length, which decoding
    /// checks.
    tree_starts: Vec<u32>,
}

impl Engine {
    /// Label, load, cluster, index and analyze `corpus`.
    pub fn build(corpus: &Corpus) -> Self {
        Self::with_config(corpus, PlannerConfig::default())
    }

    /// Like [`Engine::build`] with an explicit planner configuration
    /// (used by the join-order ablation).
    pub fn with_config(corpus: &Corpus, planner: PlannerConfig) -> Self {
        let schema = Schema::new(&[
            "tid", "left", "right", "depth", "id", "pid", "name", "value",
        ]);
        let mut table = Table::new(schema);
        let mut row_count = 0usize;
        for t in corpus.trees() {
            row_count += t.len();
        }
        table.reserve(row_count);
        for (tid, tree) in corpus.trees().iter().enumerate() {
            let labels = label_tree(tree);
            for id in tree.preorder() {
                let l = &labels[id.index()];
                let node = tree.node(id);
                let base = [
                    tid as Value,
                    l.left,
                    l.right,
                    l.depth,
                    l.id,
                    l.pid,
                    node.name.raw(),
                    NULL,
                ];
                table.push_row(&base);
                for &(aname, aval) in &node.attrs {
                    let mut row = base;
                    row[6] = aname.raw();
                    row[7] = aval.raw();
                    table.push_row(&row);
                }
            }
        }

        let mut db = Database::new();
        // Clustered order, exactly the paper's.
        let cluster: Vec<rel::ColId> = ["name", "tid", "left", "right", "depth", "id", "pid"]
            .iter()
            .map(|c| table.schema().col_expect(c))
            .collect();
        table.cluster_by(&cluster);
        let node = db.add_table("node", table);
        let cols = NodeCols::resolve(&db, node);

        // The clustered key doubles as the primary access path.
        let by_name = db.add_index(node, "clustered", cluster);
        // Secondary indexes of §5.
        let c = |n: NCol| cols.col(n);
        db.add_index(
            node,
            "tid_value_id",
            vec![c(NCol::Tid), c(NCol::Value), c(NCol::Id)],
        );
        let by_value = db.add_index(
            node,
            "value_tid_id",
            vec![c(NCol::Value), c(NCol::Tid), c(NCol::Id)],
        );
        db.add_index(node, "tid_id", vec![c(NCol::Tid), c(NCol::Id)]);
        db.analyze(node, &[c(NCol::Name), c(NCol::Value)]);
        let tree_starts: Vec<u32> = std::iter::once(0)
            .chain(corpus.trees().iter().scan(0, |n, t| {
                *n += t.len() as u32;
                Some(*n)
            }))
            .collect();

        Engine {
            db,
            node,
            cols,
            interner: corpus.interner().clone(),
            planner,
            access: Access { by_name, by_value },
            tree_starts,
        }
    }

    /// The underlying database (for inspection and the benchmarks).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Number of rows in the node relation (elements + attributes).
    pub fn relation_size(&self) -> usize {
        self.db.table(self.node).num_rows()
    }

    fn translator(&self) -> Translator<'_> {
        Translator::new(self.node, self.cols, &self.interner)
    }

    /// Translate a parsed query to the logical conjunctive form.
    pub fn translate(&self, query: &Path) -> Result<rel::ConjQuery, Unsupported> {
        self.translator().translate(query)
    }

    /// Statically analyze a query against this engine's corpus
    /// vocabulary: spanned diagnostics plus the emptiness verdict (see
    /// [`lpath_check`]). Never errors — analysis needs only the AST.
    pub fn check_ast(&self, ast: &Path) -> CheckReport {
        lpath_check::check_with(ast, |sym| self.interner.get(sym).is_some())
    }

    /// The SQL statement the paper's engine would send to its RDBMS,
    /// with symbolic names resolved for readability.
    pub fn sql_ast(&self, ast: &Path) -> Result<String, EngineError> {
        let cq = self.translate(ast)?;
        let name_col = self.cols.col(NCol::Name);
        let value_col = self.cols.col(NCol::Value);
        Ok(cq.to_sql_with(&self.db, &|r: ColRef, v: Value| {
            if (r.col == name_col || r.col == value_col) && v != NULL {
                let known = usize::try_from(v).is_ok_and(|i| i < self.interner.len());
                known.then(|| format!("'{}'", self.interner.resolve(Sym(v))))
            } else {
                None
            }
        }))
    }

    /// An EXPLAIN-style rendering: the `semijoin program:` that
    /// answers [`Engine::query_ast`], [`Engine::count_ast`] and
    /// [`Engine::exists_ast`] when the query has one (see
    /// [`crate::semijoin`]), then the cursor's physical plan — which
    /// pages, resumes and every other query run — followed by a
    /// `LINT:` section when the static analyzer has findings (a
    /// proven-empty query shows the constant-empty plan it will run).
    pub fn explain(&self, query: &str) -> Result<String, EngineError> {
        let ast = parse(query)?;
        let cq = self.translate(&ast)?;
        let report = self.check_ast(&ast);
        let mut out = String::new();
        let plan = if report.statically_empty {
            rel::Plan::constant_empty()
        } else {
            if let Some(program) = self.program(&cq) {
                out = format!("{program}cursor plan (pages and resumes):\n");
            }
            rel::plan(&self.db, &cq, &self.planner)
        };
        out.push_str(&plan.to_string());
        if !report.is_clean() {
            out.push_str("LINT:\n");
            out.push_str(&report.render(query));
        }
        Ok(out)
    }

    /// EXPLAIN ANALYZE: execute `query` on the cursor under full
    /// instrumentation and report the plan annotated with *observed*
    /// behavior — per-step actual rows, index probes, residual
    /// evaluations and attributed wall-clock time — alongside the
    /// planner's estimates, plus stage spans for parse / plan / execute
    /// and the plan-level [`ExplainAnalyze::estimate_error`] ratio. The
    /// actuals are the cursor's even when a semijoin program answers
    /// [`Engine::query_ast`] ([`ExplainAnalyze::semijoin`] says so).
    pub fn explain_analyze(&self, query: &str) -> Result<ExplainAnalyze, EngineError> {
        let stages = StageLog::default();
        let span = Span::enter("parse", &stages);
        let ast = parse(query)?;
        span.finish();
        let semijoin = matches!(self.executor(&ast)?, Executor::Semijoin(_));
        let span = Span::enter("plan", &stages);
        let plan = self.plan_ast(&ast)?;
        span.finish();
        let span = Span::enter("execute", &stages);
        let (rows, obs, step_nanos) = rel::execute_analyzed(&plan, &self.db);
        span.finish();
        let nanos_of = |name: &str| stages.take(name);

        // Pair each rendered `step N:` line of the EXPLAIN output with
        // its observed counts; keep the check lines as-is.
        let rendered = plan.to_string();
        let mut steps = Vec::with_capacity(obs.len());
        let mut checks = Vec::new();
        for line in rendered.lines() {
            if line.starts_with("step ") {
                let i = steps.len();
                steps.push(StepReport {
                    text: line.to_string(),
                    probes: obs[i].probes,
                    candidates: obs[i].candidates,
                    residual_evals: obs[i].residual_evals,
                    actual_rows: obs[i].rows_out,
                    nanos: step_nanos[i],
                });
            } else if line.starts_with("check ") {
                checks.push(line.to_string());
            }
        }
        debug_assert_eq!(steps.len(), obs.len());

        let estimated_rows = plan.estimated_result;
        let actual_rows = rows.len();
        // The q-error of the cardinality estimate, +1-smoothed so empty
        // results stay finite: max over both ratio directions, ≥ 1.
        let (e, a) = (estimated_rows as f64 + 1.0, actual_rows as f64 + 1.0);
        let estimate_error = (e / a).max(a / e);
        Ok(ExplainAnalyze {
            steps,
            checks,
            parse_nanos: nanos_of("parse"),
            plan_nanos: nanos_of("plan"),
            execute_nanos: nanos_of("execute"),
            estimated_rows,
            actual_rows,
            estimate_error,
            semijoin,
        })
    }

    /// Evaluate a query string, returning `(tree index, node)` matches
    /// sorted in document order.
    pub fn query(&self, query: &str) -> Result<Vec<(u32, NodeId)>, EngineError> {
        let ast = parse(query)?;
        self.query_ast(&ast)
    }

    /// Evaluate a parsed query: by its semijoin program when it has
    /// one, else on the cursor.
    pub fn query_ast(&self, ast: &Path) -> Result<Vec<(u32, NodeId)>, EngineError> {
        Ok(match self.executor(ast)? {
            Executor::Semijoin(program) => program.query(),
            Executor::Cursor(plan) => {
                let mut out = rows_to_matches(rel::execute(&plan, &self.db));
                out.sort_unstable();
                out
            }
        })
    }

    /// The semijoin program of `ast`'s translation, or `None` when the
    /// translation is not covered (see [`crate::semijoin`]) — a pure
    /// function of the translated query. [`Engine::query_ast`],
    /// [`Engine::count_ast`] and [`Engine::exists_ast`] run it unless
    /// the static analyzer proves the query empty (the constant-empty
    /// plan answers those).
    pub fn semijoin_ast(&self, ast: &Path) -> Result<Option<Program<'_>>, EngineError> {
        Ok(self.program(&self.translate(ast)?))
    }

    /// What answers `ast` whole: its semijoin program when the
    /// translation has one, else the cursor over the planner's plan.
    fn executor(&self, ast: &Path) -> Result<Executor<'_>, Unsupported> {
        let Some(cq) = self.translated(ast)? else {
            return Ok(Executor::Cursor(rel::Plan::constant_empty()));
        };
        Ok(match self.program(&cq) {
            Some(program) => Executor::Semijoin(program),
            None => Executor::Cursor(rel::plan(&self.db, &cq, &self.planner)),
        })
    }

    fn program(&self, cq: &rel::ConjQuery) -> Option<Program<'_>> {
        let (db, node, cols) = (&self.db, self.node, self.cols);
        Program::compile(cq, db, node, cols, self.access, &self.tree_starts)
    }

    /// Translate a parsed query, then run the static analyzer (*after*
    /// translation, so unsupported queries keep their error): `None`
    /// when it proves the query empty.
    fn translated(&self, ast: &Path) -> Result<Option<rel::ConjQuery>, Unsupported> {
        let cq = self.translate(ast)?;
        Ok((!self.check_ast(ast).statically_empty).then_some(cq))
    }

    /// The cursor's plan for a parsed query. Proven-empty queries get
    /// the constant-empty plan: no index probes, no scans, a cursor
    /// born exhausted.
    fn plan_ast(&self, ast: &Path) -> Result<rel::Plan, EngineError> {
        Ok(self.plan_for(ast, self.planner.goal)?)
    }

    /// [`Engine::plan_ast`] under an explicit optimization `goal`.
    fn plan_for(&self, ast: &Path, goal: OptGoal) -> Result<rel::Plan, Unsupported> {
        Ok(match self.translated(ast)? {
            Some(cq) => {
                let order = self.planner.order;
                rel::plan(&self.db, &cq, &PlannerConfig { order, goal })
            }
            None => rel::Plan::constant_empty(),
        })
    }

    /// Result size — the measure reported in Figure 6(c). Counts
    /// without materializing the match set: by the semijoin program
    /// when the query has one, else through the streaming cursor.
    pub fn count(&self, query: &str) -> Result<usize, EngineError> {
        let ast = parse(query)?;
        self.count_ast(&ast)
    }

    /// Result size of an already-parsed query.
    pub fn count_ast(&self, ast: &Path) -> Result<usize, EngineError> {
        Ok(match self.executor(ast)? {
            Executor::Semijoin(program) => program.count(),
            Executor::Cursor(plan) => rel::count(&plan, &self.db),
        })
    }

    /// Resume (or begin) a **count** of the query's matches: tally up
    /// to `budget` further matches and return the count found this
    /// call plus the checkpoint to continue from, or `None` once the
    /// count is known complete. Counting pulls the same streaming
    /// cursor as enumeration but materializes no output rows —
    /// dedup-free plans (see [`lpath_relstore::ConjQuery::dedup_free`])
    /// skip the distinct watermark sets entirely, and others carry
    /// only the watermarks in the checkpoint. Summing the counts of
    /// successive calls equals [`Engine::count_ast`], whatever the
    /// per-call budgets.
    pub fn count_resume(
        &self,
        ast: &Path,
        checkpoint: Option<rel::CursorCheckpoint>,
        budget: usize,
    ) -> Result<(u64, Option<rel::CursorCheckpoint>), EngineError> {
        let plan = self.plan_ast(ast)?;
        Ok(rel::count_resume(&plan, &self.db, checkpoint, budget))
    }

    /// Decode a count checkpoint (a bare
    /// [`lpath_relstore::CursorCheckpoint`]) for `ast` from untrusted
    /// bytes. The plan is rebuilt deterministically — exactly as
    /// [`Engine::count_resume`] builds it — and every structural claim
    /// the bytes make is validated against it; any mismatch is a
    /// [`wire::WireError`], never a panic.
    pub fn decode_count_checkpoint(
        &self,
        ast: &Path,
        r: &mut wire::Reader<'_>,
    ) -> Result<rel::CursorCheckpoint, wire::WireError> {
        let plan = self
            .plan_ast(ast)
            .map_err(|_| wire::WireError::Malformed("query has no relational translation"))?;
        rel::CursorCheckpoint::decode(r, &plan, &self.db)
    }

    /// Does the query match anywhere? Stops at the first witness —
    /// Boolean evaluation is far cheaper than enumeration
    /// (Gottlob–Koch–Schulz): the semijoin program stops after the
    /// first tree with a match, the cursor after the first row.
    pub fn exists_ast(&self, ast: &Path) -> Result<bool, EngineError> {
        Ok(match self.executor(ast)? {
            Executor::Semijoin(program) => program.exists(),
            Executor::Cursor(plan) => rel::exists(&plan, &self.db),
        })
    }

    /// A streaming iterator over the query's matches, yielded in
    /// **pipeline order** (the order the index-nested-loop join
    /// produces them) — *not* document order. Always the cursor, even
    /// for queries [`Engine::query_ast`] answers by a semijoin program.
    /// Dropping the iterator abandons the remaining enumeration; use [`Engine::query`] when
    /// the sorted full set is wanted, [`Engine::query_limit`] for
    /// document-ordered pages.
    pub fn matches_ast(&self, ast: &Path) -> Result<Matches<'_>, EngineError> {
        let plan = self.plan_ast(ast)?;
        Ok(Matches {
            cursor: rel::Cursor::owning(plan, &self.db),
        })
    }

    /// The `[offset, offset + limit)` slice of [`Engine::query`]'s
    /// document-ordered result, computed with early termination: the
    /// query is planned under [`OptGoal::FirstRows`] (startup-cost
    /// join order) and the suspended pipeline of
    /// [`Engine::query_resume`] is pulled tree by tree until the page
    /// is covered — trees partition the corpus and no match crosses
    /// one, so retiring each finished tree in sorted order *is*
    /// document order.
    pub fn query_limit(
        &self,
        query: &str,
        offset: usize,
        limit: usize,
    ) -> Result<Vec<(u32, NodeId)>, EngineError> {
        let ast = parse(query)?;
        self.query_limit_ast(&ast, offset, limit)
    }

    /// [`Engine::query_limit`] for an already-parsed query. Runs on
    /// the resumable executor ([`Engine::query_resume`]) — a one-shot
    /// page is simply a resumable enumeration whose checkpoint is
    /// dropped.
    pub fn query_limit_ast(
        &self,
        ast: &Path,
        offset: usize,
        limit: usize,
    ) -> Result<Vec<(u32, NodeId)>, EngineError> {
        if limit == 0 {
            // Untranslatable queries still error; translatable ones
            // skip all evaluation for the empty page.
            self.translate(ast)?;
            return Ok(Vec::new());
        }
        let need = offset.saturating_add(limit);
        let (mut rows, _) = self.query_resume(ast, None, need)?;
        Ok(rows.split_off(offset.min(rows.len())))
    }

    /// Resume (or begin) a **document-ordered** enumeration: return up
    /// to `limit` further matches after `checkpoint` — from the start
    /// when `None` — plus the checkpoint to continue from, or `None`
    /// once the enumeration is known complete. Concatenating the
    /// chunks of successive calls is byte-identical to
    /// [`Engine::query_ast`], whatever the per-call limits; no tree is
    /// re-evaluated and no match re-enumerated across calls.
    ///
    /// One [`lpath_relstore::Cursor`] serves every page. The
    /// translator gives every main-query alias an equality on `name`
    /// or `value`, so the anchor of any non-empty plan probes an index
    /// keyed `(…, tid, …)` right after its equality prefix: candidate
    /// rows — and hence matches, since every alias of a match shares
    /// the anchor's tree — arrive in non-decreasing tree-id order.
    /// Trees retire monotonically, each finished tree is sorted and
    /// emitted, and suspension captures the cursor mid-probe via
    /// [`lpath_relstore::Cursor::suspend`] together with the in-flight
    /// tree's partial match buffer. Matches enumerated beyond `limit`
    /// ride along in the checkpoint and are served first on the next
    /// call.
    ///
    /// A plan whose anchor is not tree-ordered — today only the
    /// constant-empty plan of a statically empty query — is evaluated
    /// once in full at the first call and served from the checkpoint's
    /// pending rows.
    ///
    /// A checkpoint is only meaningful against the engine (and query)
    /// it came from; callers that cache checkpoints must key them
    /// accordingly.
    pub fn query_resume(
        &self,
        ast: &Path,
        checkpoint: Option<QueryCheckpoint>,
        limit: usize,
    ) -> Result<Resumed, EngineError> {
        let (mut ready, plan_k, mut state) = match checkpoint {
            Some(c) => (c.pending, c.plan_k, c.state),
            None => {
                let plan_k = limit.clamp(1, usize::MAX / 2);
                let (plan, streams) = self.paging_plan(ast, plan_k)?;
                if streams {
                    let cursor = Box::new(rel::Cursor::new(&plan, &self.db).suspend());
                    let buf = Vec::new();
                    (
                        Vec::new(),
                        plan_k,
                        ResumeState::Stream { plan, cursor, buf },
                    )
                } else {
                    let mut all = rows_to_matches(rel::execute(&plan, &self.db));
                    all.sort_unstable();
                    (all, plan_k, ResumeState::Drained)
                }
            }
        };
        // Rows already enumerated by an earlier call are served first;
        // when they cover the whole page, the cursor is not resumed.
        if ready.len() < limit {
            if let ResumeState::Stream { plan, cursor, buf } = state {
                state = self.advance_stream(plan, *cursor, buf, &mut ready, limit);
            }
        }
        let out: Vec<(u32, NodeId)> = ready.drain(..limit.min(ready.len())).collect();
        let done = ready.is_empty() && matches!(state, ResumeState::Drained);
        let next = (!done).then_some(QueryCheckpoint {
            pending: ready,
            plan_k,
            state,
        });
        Ok((out, next))
    }

    /// The plan a resumable enumeration runs on, and whether it streams
    /// (see [`Engine::tid_ordered_anchor`]): translate, then plan under
    /// the `FirstRows(plan_k)` goal. Deterministic over the same engine
    /// content, which is what lets a serialized checkpoint carry
    /// `plan_k` instead of the plan.
    fn paging_plan(
        &self,
        ast: &Path,
        plan_k: usize,
    ) -> Result<(Box<rel::Plan>, bool), Unsupported> {
        let plan = self.plan_for(ast, OptGoal::FirstRows(plan_k))?;
        let streams = self.tid_ordered_anchor(&plan);
        Ok((Box::new(plan), streams))
    }

    /// Pull the suspended pipeline until `ready` covers `limit`,
    /// retiring (sorting and appending) each tree as the cursor's
    /// anchor moves past it. Returns the successor state —
    /// [`ResumeState::Drained`] once the enumeration completed.
    fn advance_stream(
        &self,
        plan: Box<rel::Plan>,
        cursor: rel::CursorCheckpoint,
        mut buf: Vec<(u32, NodeId)>,
        ready: &mut Vec<(u32, NodeId)>,
        limit: usize,
    ) -> ResumeState {
        let mut live = rel::Cursor::resume(&plan, &self.db, cursor);
        while ready.len() < limit {
            let Some(row) = live.next() else {
                buf.sort_unstable();
                ready.append(&mut buf);
                return ResumeState::Drained;
            };
            debug_assert_eq!(row.len(), 2);
            let m = (row[0], NodeId(row[1] - 2));
            if let Some(&(tree, _)) = buf.first() {
                debug_assert!(m.0 >= tree, "anchor emitted trees out of order");
                if m.0 != tree {
                    buf.sort_unstable();
                    ready.append(&mut buf);
                }
            }
            buf.push(m);
        }
        let cursor = Box::new(live.into_checkpoint());
        ResumeState::Stream { plan, cursor, buf }
    }

    /// Does the streaming cursor emit this plan's matches in
    /// non-decreasing tree-id order? True when the anchor step probes
    /// an index whose key column right after the equality prefix is
    /// `tid` with no pre-existing range bounds: its candidates arrive
    /// in `(tid, …)` clustered order, and the translation's implicit
    /// same-tree equalities give every later alias the anchor's tid.
    fn tid_ordered_anchor(&self, plan: &rel::Plan) -> bool {
        let Some(step) = plan.steps.first() else {
            return false;
        };
        match &step.access {
            rel::AccessPath::IndexRange { index, eq, lo, hi } => {
                lo.is_none()
                    && hi.is_none()
                    && self.db.index(*index).key().get(eq.len()) == Some(&self.cols.col(NCol::Tid))
            }
            rel::AccessPath::FullScan => false,
        }
    }

    /// Decode a [`QueryCheckpoint`] for `ast` from untrusted bytes.
    ///
    /// The pipeline's plan is rebuilt here — translate, then plan with
    /// the `FirstRows(k)` goal the token carries — exactly as the
    /// first [`Engine::query_resume`] call built it, so over the same
    /// engine content the resumed execution is byte-identical to one
    /// that never left the process. Every structural claim the token
    /// makes is validated against that rebuilt plan (see
    /// [`lpath_relstore::CursorCheckpoint::decode`]), and every
    /// carried row must be an element of this relation; any mismatch —
    /// truncation, corruption, a forged row, a token from a different
    /// query or different corpus content — is a [`wire::WireError`],
    /// never a panic.
    pub fn decode_checkpoint(
        &self,
        ast: &Path,
        r: &mut wire::Reader<'_>,
    ) -> Result<QueryCheckpoint, wire::WireError> {
        use wire::WireError::Malformed;
        let plan_k = r.usize()?;
        if plan_k == 0 || plan_k > usize::MAX / 2 {
            return Err(Malformed("plan goal out of range"));
        }
        let element = |tid: u32, node: NodeId| {
            let span = self.tree_starts.get(tid as usize..=tid as usize + 1);
            span.is_some_and(|s| node.0 < s[1] - s[0])
        };
        let pending = decode_rows(r, element)?;
        let state = match r.u8()? {
            0 => ResumeState::Drained,
            1 => {
                let (plan, streams) = self
                    .paging_plan(ast, plan_k)
                    .map_err(|_| Malformed("query has no relational translation"))?;
                if !streams {
                    return Err(Malformed("checkpoint strategy does not match the plan"));
                }
                let cursor = Box::new(rel::CursorCheckpoint::decode(r, &plan, &self.db)?);
                let buf = decode_rows(r, element)?;
                ResumeState::Stream { plan, cursor, buf }
            }
            _ => return Err(Malformed("resume strategy tag")),
        };
        Ok(QueryCheckpoint {
            pending,
            plan_k,
            state,
        })
    }
}

/// A stage-span sink for [`Engine::explain_analyze`]: collects the
/// completed parse / plan / execute spans by name.
#[derive(Default)]
struct StageLog(std::sync::Mutex<Vec<(&'static str, u64)>>);

impl StageLog {
    /// The recorded nanoseconds of stage `name` (0 if it never ran).
    fn take(&self, name: &str) -> u64 {
        self.0
            .lock()
            .unwrap()
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, nanos)| nanos)
    }
}

impl Recorder for StageLog {
    fn record(&self, name: &'static str, nanos: u64) {
        self.0.lock().unwrap().push((name, nanos));
    }
}

/// One plan step of an [`ExplainAnalyze`] report: the EXPLAIN line
/// paired with the step's observed execution counts and time.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// The `step N: bind …` line of the EXPLAIN rendering.
    pub text: String,
    /// Access-path openings (index probes / scan starts).
    pub probes: u64,
    /// Candidate rows pulled from the access path.
    pub candidates: u64,
    /// Residual / set-filter conditions evaluated.
    pub residual_evals: u64,
    /// Candidates that survived the step's filters.
    pub actual_rows: u64,
    /// Wall-clock nanoseconds attributed to the step.
    pub nanos: u64,
}

/// The result of [`Engine::explain_analyze`]: the plan's EXPLAIN
/// rendering annotated with observed per-step behavior, the
/// parse/plan/execute stage spans, and the estimated-vs-actual result
/// cardinality with its error ratio.
///
/// The [`std::fmt::Display`] impl renders the classic two-line-per-step
/// EXPLAIN ANALYZE form.
#[derive(Clone, Debug)]
pub struct ExplainAnalyze {
    /// Annotated plan steps, in pipeline order.
    pub steps: Vec<StepReport>,
    /// The plan's correlated-subquery check lines, verbatim.
    pub checks: Vec<String>,
    /// Time spent parsing the query text.
    pub parse_nanos: u64,
    /// Time spent translating and planning.
    pub plan_nanos: u64,
    /// Time spent executing the plan to completion.
    pub execute_nanos: u64,
    /// The planner's estimated result cardinality.
    pub estimated_rows: usize,
    /// The observed result cardinality.
    pub actual_rows: usize,
    /// The +1-smoothed q-error of the cardinality estimate:
    /// `max((est+1)/(act+1), (act+1)/(est+1))`. Always finite, ≥ 1,
    /// and 1.0 exactly when the estimate was spot-on.
    pub estimate_error: f64,
    /// Does a semijoin program answer [`Engine::query_ast`] for this
    /// query? The actuals above are the cursor's either way.
    pub semijoin: bool,
}

/// Render nanoseconds at a human scale (`ns`/`µs`/`ms`/`s`).
fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.2}µs", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

impl std::fmt::Display for ExplainAnalyze {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in &self.steps {
            writeln!(f, "{}", s.text)?;
            writeln!(
                f,
                "    actual: rows {}, probes {}, candidates {}, residual evals {}, time {}",
                s.actual_rows,
                s.probes,
                s.candidates,
                s.residual_evals,
                fmt_nanos(s.nanos)
            )?;
        }
        for c in &self.checks {
            writeln!(f, "{c}")?;
        }
        writeln!(
            f,
            "stages: parse {}, plan {}, execute {}",
            fmt_nanos(self.parse_nanos),
            fmt_nanos(self.plan_nanos),
            fmt_nanos(self.execute_nanos)
        )?;
        writeln!(
            f,
            "rows: estimated {}, actual {}, estimate error {:.2}x",
            self.estimated_rows, self.actual_rows, self.estimate_error
        )?;
        if self.semijoin {
            writeln!(
                f,
                "executor: cursor (query, count and exists run the semijoin program)"
            )
        } else {
            writeln!(f, "executor: cursor")
        }
    }
}

/// What answers a whole query (see [`Engine::executor`]).
enum Executor<'e> {
    Semijoin(Program<'e>),
    Cursor(rel::Plan),
}

/// Convert relational `(tid, id)` rows to `(tree index, node)` matches.
/// Relational ids start at 2 (1 is the document node).
fn rows_to_matches(rows: Vec<Vec<Value>>) -> Vec<(u32, NodeId)> {
    rows.into_iter()
        .map(|row| {
            debug_assert_eq!(row.len(), 2);
            (row[0], NodeId(row[1] - 2))
        })
        .collect()
}

/// One [`Engine::query_resume`] step: the document-ordered rows this
/// call produced, plus the checkpoint to continue from (`None` once
/// the enumeration is known complete).
pub type Resumed = (Vec<(u32, NodeId)>, Option<QueryCheckpoint>);

/// A suspended document-order enumeration (see
/// [`Engine::query_resume`]): rows already enumerated but not yet
/// emitted, plus — until the enumeration is drained — the suspended
/// relational pipeline ([`lpath_relstore::CursorCheckpoint`] + the
/// in-flight tree's partial buffer + the plan it belongs to).
///
/// Checkpoints are plain owned data: they can be cached, cloned and
/// resumed long after the call that produced them (the service keeps
/// one per cached result prefix). They are only meaningful against
/// the same engine and query they were suspended from.
#[derive(Clone, Debug)]
pub struct QueryCheckpoint {
    /// Document-ordered rows enumerated past the last emitted page.
    pending: Vec<(u32, NodeId)>,
    /// The `FirstRows(k)` goal the pipeline's plan was built with at
    /// the first call. Carried so a checkpoint serialized to the wire
    /// does not need to carry the plan itself: decoding re-plans the
    /// same query with the same goal over the same engine content,
    /// which is deterministic and lands on the identical plan.
    plan_k: usize,
    state: ResumeState,
}

impl QueryCheckpoint {
    /// Is the suspended pipeline still live (as opposed to a drained
    /// enumeration whose remaining rows are all pending)?
    pub fn is_streaming(&self) -> bool {
        matches!(self.state, ResumeState::Stream { .. })
    }

    /// Serialize this checkpoint into `w`.
    ///
    /// The plan is **not** written: tokens carry the `FirstRows(k)`
    /// goal it was built with instead, and
    /// [`Engine::decode_checkpoint`] re-plans deterministically. That
    /// keeps tokens small and — more importantly — means a decoded
    /// token can never inject a forged plan: the plan that executes is
    /// always the server's own.
    pub fn encode_into(&self, w: &mut wire::Writer) {
        w.usize(self.plan_k);
        encode_rows(w, &self.pending);
        match &self.state {
            ResumeState::Drained => w.u8(0),
            ResumeState::Stream { cursor, buf, .. } => {
                w.u8(1);
                cursor.encode_into(w);
                encode_rows(w, buf);
            }
        }
    }
}

/// Write a `(tree id, node)` row list, length-prefixed.
pub(crate) fn encode_rows(w: &mut wire::Writer, rows: &[(u32, NodeId)]) {
    w.usize(rows.len());
    for &(tid, node) in rows {
        w.u32(tid);
        w.u32(node.0);
    }
}

/// Read a row list written by [`encode_rows`] from untrusted bytes;
/// a row failing `valid` — not a node of the corpus the checkpoint is
/// decoded against — is malformed.
pub(crate) fn decode_rows(
    r: &mut wire::Reader<'_>,
    valid: impl Fn(u32, NodeId) -> bool,
) -> Result<Vec<(u32, NodeId)>, wire::WireError> {
    let n = r.seq_len(8)?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let row = (r.u32()?, NodeId(r.u32()?));
        if !valid(row.0, row.1) {
            return Err(wire::WireError::Malformed(
                "checkpoint row is not an element",
            ));
        }
        rows.push(row);
    }
    Ok(rows)
}

/// The pipeline half of a [`QueryCheckpoint`]. Wire tags: `0` drained,
/// `1` stream; any other tag is malformed.
#[derive(Clone, Debug)]
enum ResumeState {
    /// One suspended pipeline serves every page: the plan, the
    /// suspended cursor over it, and the matches of the tree the
    /// cursor is currently inside (complete only once the anchor
    /// moves past it).
    Stream {
        plan: Box<rel::Plan>,
        cursor: Box<rel::CursorCheckpoint>,
        buf: Vec<(u32, NodeId)>,
    },
    /// The enumeration is complete; only `pending` rows remain.
    Drained,
}

/// A streaming match iterator (see [`Engine::matches_ast`]). Yields
/// `(tree index, node)` pairs in pipeline order as the underlying
/// [`rel::Cursor`] produces them.
pub struct Matches<'e> {
    cursor: rel::Cursor<'e>,
}

impl Iterator for Matches<'_> {
    type Item = (u32, NodeId);

    fn next(&mut self) -> Option<(u32, NodeId)> {
        self.cursor.next().map(|row| {
            debug_assert_eq!(row.len(), 2);
            (row[0], NodeId(row[1] - 2))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpath_model::ptb::parse_str;

    const FIG1: &str = "( (S (NP I) (VP (V saw) (NP (NP (Det the) (Adj old) (N man)) \
                        (PP (Prep with) (NP (Det a) (N dog))))) (N today)) )";

    fn engine() -> Engine {
        Engine::build(&parse_str(FIG1).unwrap())
    }

    #[test]
    fn relation_matches_figure5() {
        let e = engine();
        // 15 elements + 9 @lex attributes.
        assert_eq!(e.relation_size(), 24);
    }

    #[test]
    fn explain_analyze_annotates_actuals_per_step() {
        let e = engine();
        let ea = e.explain_analyze("//VP//NP[not(//Det)]").unwrap();
        // Actual result cardinality matches the plain query.
        assert_eq!(
            ea.actual_rows,
            e.query("//VP//NP[not(//Det)]").unwrap().len()
        );
        // One annotated report per plan step, each echoing the EXPLAIN
        // line, and the negated subquery shows up as a check line.
        assert!(!ea.steps.is_empty());
        for (i, s) in ea.steps.iter().enumerate() {
            assert!(s.text.starts_with(&format!("step {i}:")), "{}", s.text);
            assert!(s.candidates >= s.actual_rows);
        }
        assert!(ea.checks.iter().any(|c| c.contains("NOT EXISTS")));
        // The last pipeline step's survivors bound the output from
        // above (DISTINCT can only shrink it further).
        assert!(ea.steps.last().unwrap().actual_rows as usize >= ea.actual_rows);
        assert!(ea.estimate_error.is_finite() && ea.estimate_error >= 1.0);
        // Rendering carries the annotation vocabulary.
        let text = ea.to_string();
        assert!(text.contains("actual: rows"));
        assert!(text.contains("stages: parse"));
        assert!(text.contains("estimate error"));
    }

    #[test]
    fn explain_analyze_is_finite_on_empty_results() {
        let e = engine();
        let ea = e.explain_analyze("//ZZZ").unwrap();
        assert_eq!(ea.actual_rows, 0);
        assert!(ea.estimate_error.is_finite());
        assert!(e.explain_analyze("//(").is_err());
    }

    #[test]
    fn figure2_results_via_sql() {
        let e = engine();
        assert_eq!(e.count("//S[//_[@lex=saw]]").unwrap(), 1);
        assert_eq!(e.count("//V=>NP").unwrap(), 1);
        assert_eq!(e.count("//V->NP").unwrap(), 2);
        assert_eq!(e.count("//VP/V-->N").unwrap(), 3);
        assert_eq!(e.count("//VP{/V-->N}").unwrap(), 2);
        assert_eq!(e.count("//VP{/NP$}").unwrap(), 1);
        assert_eq!(e.count("//VP{//NP$}").unwrap(), 2);
    }

    #[test]
    fn engine_agrees_with_walker() {
        let corpus = parse_str(FIG1).unwrap();
        let e = Engine::build(&corpus);
        let w = crate::Walker::new(&corpus);
        for q in [
            "//NP",
            "/S",
            "//V->NP",
            "//V-->N",
            "//NP<--_",
            "//N<==Det",
            "//N<=Det",
            "//VP{//NP$}",
            "//^NP",
            "//N$",
            "//S[//NP/PP]",
            "//NP[//Det and //Adj]",
            "//NP[not(//Det)]",
            "//_[@lex=saw]",
            "//_[@lex!=dog]",
            "//_[@lex]",
            "//Det\\NP",
            "//NP\\\\VP",
            "//VP[{//^V->NP$}]",
            "//S{/VP/V[-->N[@lex=dog]]}",
            // Function library (paper footnote 1).
            "//NP[count(//Det)>0]",
            "//NP[count(/NP)=0]",
            "//NP[not(count(//Det)=0)]",
            "//_[contains(@lex,'og')]",
            "//_[starts-with(@lex,s)]",
            "//_[ends-with(@lex,w)]",
            "//_[not(contains(@lex,'a'))]",
            "//_[string-length(@lex)=3]",
            "//_[string-length(@lex)>4]",
            "//NP[//_[contains(@lex,o)]]",
            "//VP{//_[starts-with(@lex,d)]}",
        ] {
            let ast = lpath_syntax::parse(q).unwrap();
            let got = e.query(q).unwrap_or_else(|err| panic!("{q}: {err}"));
            let want = w.eval(&ast);
            assert_eq!(got, want, "disagreement on {q}");
        }
    }

    #[test]
    fn sql_rendering_uses_symbolic_names() {
        let e = engine();
        let sql = e.sql_ast(&lpath_syntax::parse("//V->NP").unwrap()).unwrap();
        assert!(sql.contains("= 'V'"), "{sql}");
        assert!(sql.contains("= 'NP'"), "{sql}");
    }

    #[test]
    fn explain_names_the_executor() {
        let e = engine();
        // Acyclic: the semijoin program, then the cursor's plan.
        let text = e.explain("//VP{//NP$}").unwrap();
        assert!(text.starts_with("semijoin program:"), "{text}");
        assert!(text.contains("semi n0 (search n0.right)"), "{text}");
        assert!(text.contains("driver: n"), "{text}");
        assert!(
            text.contains("cursor plan (pages and resumes):\nstep 0"),
            "{text}"
        );
        let text = e.explain("//NP[not(//Det)]").unwrap();
        assert!(text.contains("anti n1 (search n1.left)"), "{text}");
        // A multi-step scope is cyclic: the plan alone.
        let text = e.explain("//VP{/V-->N}").unwrap();
        assert!(text.starts_with("step 0"), "{text}");
        // EXPLAIN ANALYZE's actuals are the cursor's either way.
        let analyzed = |q| e.explain_analyze(q).unwrap().to_string();
        assert!(analyzed("//NP[not(//Det)]")
            .ends_with("executor: cursor (query, count and exists run the semijoin program)\n"));
        assert!(analyzed("//VP{/V-->N}").ends_with("executor: cursor\n"));
    }

    #[test]
    fn explain_shows_index_probes() {
        let e = engine();
        let plan = e.explain("//V->NP").unwrap();
        assert!(plan.contains("index"), "{plan}");
    }

    #[test]
    fn unsupported_features_error_cleanly() {
        let e = engine();
        assert!(matches!(
            e.count("//VP/_[last()]"),
            Err(EngineError::Unsupported(_))
        ));
        assert!(matches!(e.count("//VP["), Err(EngineError::Syntax(_))));
        // count() thresholds beyond existence need the walker.
        assert!(matches!(
            e.count("//NP[count(//Det)>2]"),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn function_library_results() {
        let e = engine();
        // "dog" contains "og"; nothing else does.
        assert_eq!(e.count("//_[contains(@lex,'og')]").unwrap(), 1);
        // "saw" starts with "s".
        assert_eq!(e.count("//_[starts-with(@lex,s)]").unwrap(), 1);
        // Three-letter terminals: saw, the, old, man, dog.
        assert_eq!(e.count("//_[string-length(@lex)=3]").unwrap(), 5);
        // count(...)>0 is existence: NPs containing a Det.
        assert_eq!(e.count("//NP[count(//Det)>0]").unwrap(), 3);
        assert_eq!(e.count("//NP[count(//Det)=0]").unwrap(), 1);
    }

    #[test]
    fn function_library_sql_uses_in_sets() {
        let e = engine();
        let render = |q| e.sql_ast(&lpath_syntax::parse(q).unwrap()).unwrap();
        let sql = render("//_[contains(@lex,'og')]");
        assert!(sql.contains(" IN ("), "{sql}");
        assert!(sql.contains("'dog'"), "{sql}");
        // Unsatisfiable set: falls back to the impossible condition.
        let sql = render("//_[contains(@lex,'zzz')]");
        assert!(sql.contains("left < 0"), "{sql}");
        // Negation goes through NOT EXISTS.
        let sql = render("//_[not(contains(@lex,'og'))]");
        assert!(sql.contains("NOT EXISTS"), "{sql}");
    }

    #[test]
    fn syntactic_join_order_gives_same_answers() {
        let corpus = parse_str(FIG1).unwrap();
        let greedy = Engine::build(&corpus);
        let syntactic = Engine::with_config(
            &corpus,
            PlannerConfig {
                order: rel::JoinOrder::Syntactic,
                ..Default::default()
            },
        );
        for q in ["//V->NP", "//VP{/NP$}", "//S[//NP/PP]", "//NP[not(//Det)]"] {
            assert_eq!(greedy.query(q).unwrap(), syntactic.query(q).unwrap(), "{q}");
        }
    }

    #[test]
    fn multi_tree_tids() {
        let corpus = parse_str(&format!("{FIG1}\n{FIG1}\n{FIG1}")).unwrap();
        let e = Engine::build(&corpus);
        let got = e.query("//V->NP").unwrap();
        assert_eq!(got.len(), 6);
        for tid in 0..3u32 {
            assert_eq!(got.iter().filter(|(t, _)| *t == tid).count(), 2);
        }
    }

    #[test]
    fn exists_matches_nonempty_query() {
        let e = engine();
        let exists = |q| e.exists_ast(&lpath_syntax::parse(q).unwrap()).unwrap();
        for q in ["//NP", "//V->NP", "//NP[not(//Det)]", "//_[@lex=saw]"] {
            assert!(exists(q), "{q}");
        }
        for q in ["//ZZZ", "//_[@lex=zzz]", "//NP/ZZZ"] {
            assert!(!exists(q), "{q}");
        }
    }

    #[test]
    fn one_parse_serves_every_ast_entry_point() {
        let e = engine();
        for q in [
            "//NP",
            "//V->NP",
            "//NP[not(//Det)]",
            "//_[@lex=saw]",
            "//ZZZ",
        ] {
            let ast = lpath_syntax::parse(q).unwrap();
            let rows = e.query_ast(&ast).unwrap();
            assert_eq!(rows, e.query(q).unwrap(), "{q}");
            assert_eq!(e.count_ast(&ast).unwrap(), rows.len(), "{q}");
            assert_eq!(e.exists_ast(&ast).unwrap(), !rows.is_empty(), "{q}");
            let mut streamed: Vec<(u32, NodeId)> = e.matches_ast(&ast).unwrap().collect();
            streamed.sort_unstable();
            assert_eq!(streamed, rows, "{q}");
            assert_eq!(e.check_ast(&ast).statically_empty, q == "//ZZZ", "{q}");
            assert!(e.sql_ast(&ast).unwrap().starts_with("SELECT"), "{q}");
        }
        // Syntax errors surface from the parse, before any entry point.
        assert!(lpath_syntax::parse("//VP[").is_err());
    }

    #[test]
    fn matches_streams_the_full_set_in_some_order() {
        let corpus = parse_str(&format!("{FIG1}\n{FIG1}")).unwrap();
        let e = Engine::build(&corpus);
        let matches = |q| e.matches_ast(&lpath_syntax::parse(q).unwrap()).unwrap();
        for q in ["//NP", "//V->NP", "//VP{//NP$}"] {
            let mut streamed: Vec<(u32, NodeId)> = matches(q).collect();
            streamed.sort_unstable();
            assert_eq!(streamed, e.query(q).unwrap(), "{q}");
        }
        // Pulling one match does not require the rest.
        assert!(matches("//NP").next().is_some());
        assert!(matches("//ZZZ").next().is_none());
    }

    #[test]
    fn query_limit_is_a_prefix_slice() {
        // 20 trees so pages cross tree boundaries.
        let src: String = std::iter::repeat_n(FIG1, 20).collect::<Vec<_>>().join("\n");
        let corpus = parse_str(&src).unwrap();
        let e = Engine::build(&corpus);
        for q in ["//NP", "//V->NP", "//NP[not(//Det)]", "//ZZZ"] {
            let full = e.query(q).unwrap();
            for (offset, limit) in [
                (0, 0),
                (0, 1),
                (0, 5),
                (3, 4),
                (7, 100),
                (full.len(), 3),
                (full.len() + 10, 3),
                (0, usize::MAX),
            ] {
                let want: Vec<(u32, NodeId)> =
                    full.iter().skip(offset).take(limit).copied().collect();
                assert_eq!(
                    e.query_limit(q, offset, limit).unwrap(),
                    want,
                    "{q} offset {offset} limit {limit}"
                );
            }
        }
    }

    #[test]
    fn query_limit_goals_agree() {
        let src: String = std::iter::repeat_n(FIG1, 30).collect::<Vec<_>>().join("\n");
        let corpus = parse_str(&src).unwrap();
        let e = Engine::build(&corpus);
        for q in ["//NP", "//V->NP", "//NP[not(//Det)]", "//_", "//ZZZ"] {
            let ast = lpath_syntax::parse(q).unwrap();
            let full = e.query(q).unwrap();
            for (offset, limit) in [(0, 1), (0, 10), (3, 4), (full.len(), 2), (0, usize::MAX)] {
                let want: Vec<(u32, NodeId)> =
                    full.iter().skip(offset).take(limit).copied().collect();
                for goal in [
                    OptGoal::AllRows,
                    OptGoal::FirstRows(offset.saturating_add(limit)),
                    OptGoal::FirstRows(1),
                ] {
                    let cfg = PlannerConfig {
                        goal,
                        ..Default::default()
                    };
                    let e = Engine::with_config(&corpus, cfg);
                    assert_eq!(e.query_ast(&ast).unwrap(), full, "{q} goal {goal:?}");
                    assert_eq!(
                        e.query_limit_ast(&ast, offset, limit).unwrap(),
                        want,
                        "{q} offset {offset} limit {limit} goal {goal:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn query_resume_concatenation_is_exact_at_every_boundary() {
        let src: String = std::iter::repeat_n(FIG1, 12).collect::<Vec<_>>().join("\n");
        let corpus = parse_str(&src).unwrap();
        let e = Engine::build(&corpus);
        // Streamed anchors and the constant-empty plan alike.
        for q in ["//NP", "//V->NP", "//NP[not(//Det)]", "//_", "//ZZZ"] {
            let ast = lpath_syntax::parse(q).unwrap();
            let full = e.query(q).unwrap();
            // Two-call split at every row boundary.
            for split in 0..=full.len() {
                let (head, ckpt) = e.query_resume(&ast, None, split.max(1)).unwrap();
                let cut = split.max(1).min(full.len());
                assert_eq!(head, full[..cut], "{q} split {split}");
                let Some(ckpt) = ckpt else {
                    assert_eq!(cut, full.len(), "{q} split {split}");
                    continue;
                };
                let (tail, end) = e.query_resume(&ast, Some(ckpt), usize::MAX).unwrap();
                assert_eq!(tail, full[cut..], "{q} split {split}");
                assert!(end.is_none(), "{q} split {split}");
            }
            // Page-at-a-time sweep, page size 3.
            let mut got = Vec::new();
            let mut ckpt = None;
            loop {
                let (rows, next) = e.query_resume(&ast, ckpt, 3).unwrap();
                got.extend(rows);
                match next {
                    Some(c) => ckpt = Some(c),
                    None => break,
                }
            }
            assert_eq!(got, full, "{q} sweep");
        }
    }

    #[test]
    fn name_anchored_queries_resume_on_the_suspended_pipeline() {
        let src: String = std::iter::repeat_n(FIG1, 8).collect::<Vec<_>>().join("\n");
        let corpus = parse_str(&src).unwrap();
        let e = Engine::build(&corpus);
        // `//NP` anchors on the clustered (name, tid, …) index: pages
        // come from one suspended cursor.
        let ast = lpath_syntax::parse("//NP").unwrap();
        let (page, ckpt) = e.query_resume(&ast, None, 2).unwrap();
        assert_eq!(page.len(), 2);
        let ckpt = ckpt.expect("more NPs remain");
        assert!(ckpt.is_streaming());
        let (more, _) = e.query_resume(&ast, Some(ckpt), 2).unwrap();
        assert_eq!(more, e.query("//NP").unwrap()[2..4]);
    }

    #[test]
    fn decoding_rejects_forged_rows_and_the_retired_strategy_tag() {
        let src: String = std::iter::repeat_n(FIG1, 3).collect::<Vec<_>>().join("\n");
        let e = Engine::build(&parse_str(&src).unwrap());
        let ast = lpath_syntax::parse("//NP").unwrap();
        // Page one serves tree 0's first NP: its other three wait as
        // pending rows, and tree 1's first is in flight.
        let (_, ckpt) = e.query_resume(&ast, None, 1).unwrap();
        let ckpt = ckpt.unwrap();
        let ResumeState::Stream { buf, .. } = &ckpt.state else {
            panic!("`//NP` streams");
        };
        let (pending, in_flight) = (ckpt.pending.len(), buf.len());
        assert!(pending > 0 && in_flight > 0);
        let mut w = wire::Writer::new();
        ckpt.encode_into(&mut w);
        let bytes = w.into_bytes();
        let decode = |bytes: &[u8]| e.decode_checkpoint(&ast, &mut wire::Reader::new(bytes));
        assert!(decode(&bytes).is_ok());

        // Overwrite the first pending row (after `plan_k` and the
        // count) or the first in-flight row (the list that ends the
        // checkpoint) with a forged `(tree, node)`.
        let forge = |at: usize, tree: u32, node: u32| {
            let mut b = bytes.clone();
            b[at..at + 4].copy_from_slice(&tree.to_le_bytes());
            b[at + 4..at + 8].copy_from_slice(&node.to_le_bytes());
            b
        };
        let first_in_flight = bytes.len() - 8 * in_flight;
        for at in [16, first_in_flight] {
            // A genuine element of another tree still decodes…
            assert!(decode(&forge(at, 2, 0)).is_ok(), "row at {at}");
            // …but no node past its tree and no tree past the corpus.
            for (tree, node) in [(0, 9999), (3, 0), (u32::MAX, 0), (0, u32::MAX)] {
                assert!(
                    matches!(
                        decode(&forge(at, tree, node)),
                        Err(wire::WireError::Malformed(_))
                    ),
                    "({tree}, {node}) at {at}"
                );
            }
        }

        // The strategy tag follows the pending rows; only 0 and 1 exist.
        let tag = 16 + 8 * pending;
        assert_eq!(bytes[tag], 1);
        let mut retired = bytes.clone();
        retired[tag] = 2;
        assert!(matches!(
            decode(&retired),
            Err(wire::WireError::Malformed(_))
        ));
    }

    #[test]
    fn query_resume_errors_on_unsupported_queries() {
        let e = engine();
        assert!(matches!(
            e.query_resume(&lpath_syntax::parse("//VP/_[last()]").unwrap(), None, 5),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn check_uses_the_corpus_vocabulary() {
        let e = engine();
        let check = |q| e.check_ast(&lpath_syntax::parse(q).unwrap());
        // Unknown tag: proven empty with a spanned diagnostic.
        let r = check("//ZZZ");
        assert!(r.statically_empty);
        assert_eq!(r.errors().next().unwrap().code, "unknown-tag");
        // Known tags pass clean.
        assert!(check("//NP/VP").is_clean());
        // Unknown lexeme under equality: proven empty.
        assert!(check("//_[@lex=zzz]").statically_empty);
        // Structural contradiction needs no vocabulary (check works
        // even on queries the relational translator rejects).
        assert!(check("//NP[position()=0]").statically_empty);
    }

    #[test]
    fn statically_empty_queries_run_the_constant_empty_plan() {
        let e = engine();
        for q in ["//ZZZ", "//_[@lex=zzz]", "//_[@lex=saw and @lex=the]"] {
            let ast = lpath_syntax::parse(q).unwrap();
            let plan = e.plan_ast(&ast).unwrap();
            assert!(plan.const_empty, "{q}");
            assert!(plan.steps.is_empty(), "{q}");
            assert_eq!(e.query(q).unwrap(), Vec::new(), "{q}");
            assert_eq!(e.count(q).unwrap(), 0, "{q}");
            assert!(!e.exists_ast(&ast).unwrap(), "{q}");
            assert_eq!(e.query_limit(q, 0, 10).unwrap(), Vec::new(), "{q}");
        }
        // A satisfiable query still plans normally.
        let plan = e.plan_ast(&lpath_syntax::parse("//NP").unwrap()).unwrap();
        assert!(!plan.const_empty && !plan.steps.is_empty());
    }

    #[test]
    fn explain_reports_lints_and_constant_empty_plans() {
        let e = engine();
        let text = e.explain("//ZZZ").unwrap();
        assert!(text.contains("constant empty"), "{text}");
        assert!(text.contains("LINT:"), "{text}");
        assert!(text.contains("unknown-tag"), "{text}");
        assert!(text.contains('^'), "caret snippet expected: {text}");
        // Warnings show up even when the query is satisfiable.
        let text = e.explain("//NP[count(//ZZZ)=0]").unwrap();
        assert!(text.contains("always-true-predicate"), "{text}");
        assert!(text.contains("step 0:"), "plan still rendered: {text}");
        // Clean queries get no LINT section.
        assert!(!e.explain("//V->NP").unwrap().contains("LINT:"));
    }

    #[test]
    fn count_avoids_materialization_but_agrees() {
        let e = engine();
        for q in ["//NP", "//V->NP", "//VP{//NP$}", "//ZZZ", "//_[@lex]"] {
            assert_eq!(e.count(q).unwrap(), e.query(q).unwrap().len(), "{q}");
        }
    }

    #[test]
    fn planner_caps_the_estimate_by_the_scarcest_symbol() {
        let e = engine();
        // //VP//NP: at most one VP exists, and the planner's estimate
        // (the smallest alias input) cannot exceed the scarcest step
        // symbol's exact frequency.
        let ast = lpath_syntax::parse("//VP//NP").unwrap();
        for goal in [OptGoal::AllRows, OptGoal::FirstRows(1)] {
            let plan = e.plan_for(&ast, goal).unwrap();
            assert!(plan.estimated_result <= 1, "{}", plan.estimated_result);
        }
        // Paging still returns the correct full result.
        assert_eq!(
            e.query_limit("//VP//NP", 0, 100).unwrap(),
            e.query("//VP//NP").unwrap()
        );
    }

    #[test]
    fn every_page_plan_streams() {
        use lpath_model::{generate, GenConfig};
        // Every paper query's paging plan is either the constant-empty
        // plan or anchored tid-ordered, so paging never falls back to
        // full evaluation.
        for cfg in [GenConfig::wsj(400), GenConfig::swb(900)] {
            let e = Engine::build(&generate(&cfg));
            for q in crate::QUERIES {
                let ast = lpath_syntax::parse(q.lpath).unwrap();
                for k in [1, 25] {
                    let (plan, streams) = e.paging_plan(&ast, k).unwrap();
                    assert!(
                        plan.const_empty || streams,
                        "Q{} at k = {k} does not stream:\n{plan}",
                        q.id
                    );
                }
            }
        }
    }

    #[test]
    fn count_resume_sums_to_one_shot_count() {
        let e = engine();
        // `//V->NP` exercises the dedup path (2 distinct matches from
        // 2 pipeline rows), `//NP/_` the dedup-free fast path.
        for q in ["//NP", "//V->NP", "//VP{//NP$}", "//NP/_", "//ZZZ"] {
            let ast = lpath_syntax::parse(q).unwrap();
            let total = e.count(q).unwrap() as u64;
            for budget in 1..4 {
                let mut sum = 0;
                let mut ckpt = None;
                let mut rounds = 0;
                loop {
                    let (n, next) = e.count_resume(&ast, ckpt, budget).unwrap();
                    sum += n;
                    rounds += 1;
                    assert!(rounds < 100, "count_resume failed to converge");
                    match next {
                        Some(c) => ckpt = Some(c),
                        None => break,
                    }
                }
                assert_eq!(sum, total, "{q} with budget {budget}");
            }
        }
    }

    #[test]
    fn dedup_free_plans_really_skip_the_watermarks() {
        let e = engine();
        // A reverse-functional chain: provably duplicate-free.
        let plan = e
            .plan_ast(&lpath_syntax::parse("//NP/NP").unwrap())
            .unwrap();
        assert!(plan.dedup_free);
        // `->` can reach one node from several left neighbors.
        let plan = e
            .plan_ast(&lpath_syntax::parse("//V->NP").unwrap())
            .unwrap();
        assert!(!plan.dedup_free);
    }
}
