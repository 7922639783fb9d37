//! The LPath query engine: corpus → labeled relation → indexed
//! relational evaluation (paper §4–5).
//!
//! [`Engine::build`] labels every tree (Definition 4.1), loads element
//! and attribute rows into the node relation `{tid, left, right, depth,
//! id, pid, name, value}`, clusters it by `{name, tid, left, right,
//! depth, id, pid}` and builds the secondary indexes of §5. Queries are
//! parsed, translated to conjunctive SQL, planned and executed
//! in-process.

use std::ops::ControlFlow;

use lpath_check::CheckReport;
use lpath_model::{label_tree, Corpus, Interner, NodeId, Sym};
use lpath_obs::{Recorder, Span};
use lpath_relstore::{
    self as rel, ColRef, Database, PlannerConfig, Schema, Table, TableId, Value, NULL,
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
    /// position).
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
    /// answers [`Engine::query_ast`], [`Engine::page_ast`],
    /// [`Engine::count_ast`] and [`Engine::exists_ast`] when the query
    /// has one (see [`crate::semijoin`]), then the cursor's physical
    /// plan — which every other query runs — followed by a
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
                out = format!("{program}cursor plan (streamed matches and EXPLAIN ANALYZE):\n");
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
        let span = Span::enter("plan", &stages);
        let cq = self.translated(&ast)?;
        let plan = self.plan_of(cq.as_ref());
        span.finish();
        let semijoin = cq.is_some_and(|cq| self.program(&cq).is_some());
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

    /// What answers `ast`: its semijoin program when the translation
    /// has one, else the cursor over its plan.
    fn executor(&self, ast: &Path) -> Result<Executor<'_>, Unsupported> {
        let cq = self.translated(ast)?;
        Ok(match cq.as_ref().and_then(|cq| self.program(cq)) {
            Some(program) => Executor::Semijoin(program),
            None => Executor::Cursor(self.plan_of(cq.as_ref())),
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
    fn plan_ast(&self, ast: &Path) -> Result<rel::Plan, Unsupported> {
        Ok(self.plan_of(self.translated(ast)?.as_ref()))
    }

    /// The plan of a [`Engine::translated`] query.
    fn plan_of(&self, cq: Option<&rel::ConjQuery>) -> rel::Plan {
        cq.map_or_else(rel::Plan::constant_empty, |cq| {
            rel::plan(&self.db, cq, &self.planner)
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

    /// A budgeted count from tree `from` on: count whole trees, in
    /// order, until at least `budget` matches are counted, and return
    /// the count plus the tree to continue from — `None` once no tree
    /// is left to count, as [`crate::Walker::count_resume`] does. A
    /// count parks only at a tree boundary, so the
    /// budget bounds work, not the count: one tree may overshoot it.
    /// Summing the counts of successive calls equals
    /// [`Engine::count_ast`], whatever the budgets. Runs what
    /// [`Engine::page_ast`] runs.
    pub fn count_resume(
        &self,
        ast: &Path,
        from: u32,
        budget: usize,
    ) -> Result<(u64, Option<u32>), EngineError> {
        let exec = self.executor(ast)?;
        let trees = (self.tree_starts.len() - 1) as u32;
        let unless_past_end = |t: u32| (t < trees).then_some(t);
        if budget == 0 {
            return Ok((0, unless_past_end(from)));
        }
        let (mut n, mut next) = (0u64, None);
        self.for_each_tree(exec, from, |t, ids| {
            n += ids.len() as u64;
            if n < budget as u64 {
                return ControlFlow::Continue(());
            }
            next = unless_past_end(t + 1);
            ControlFlow::Break(())
        });
        Ok((n, next))
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
    /// first page of [`Engine::page_ast`], `offset + limit` rows long,
    /// less its first `offset` rows.
    pub fn query_limit(
        &self,
        query: &str,
        offset: usize,
        limit: usize,
    ) -> Result<Vec<(u32, NodeId)>, EngineError> {
        let ast = parse(query)?;
        self.query_limit_ast(&ast, offset, limit)
    }

    /// [`Engine::query_limit`] for an already-parsed query.
    pub fn query_limit_ast(
        &self,
        ast: &Path,
        offset: usize,
        limit: usize,
    ) -> Result<Vec<(u32, NodeId)>, EngineError> {
        let need = if limit == 0 {
            0
        } else {
            offset.saturating_add(limit)
        };
        let (mut rows, _) = self.page_ast(ast, Position::START, need)?;
        Ok(rows.split_off(offset.min(rows.len())))
    }

    /// One page of the document-ordered result, from position `at`:
    /// up to `limit` matches, plus the position after the last of them
    /// — `None` once the result is known exhausted. (A page that fills
    /// exactly at the end still returns a position; the page after it
    /// is empty.) Concatenating the pages of a sweep is
    /// [`Engine::query_ast`], whatever the limits, and a `limit` of
    /// zero returns `at` itself.
    ///
    /// Trees partition the corpus and no match crosses one, so a page
    /// visits trees `at.tree..` in order and drops the first `at.skip`
    /// matches of `at.tree`. The semijoin program starts at that tree;
    /// the cursor — the very plan [`Engine::query_ast`] runs — gets a
    /// `tid >= at.tree` lower bound on its tree-ordered anchor, and
    /// each tree's matches are buffered and sorted as the anchor moves
    /// past it. Nothing is kept between pages.
    pub fn page_ast(&self, ast: &Path, at: Position, limit: usize) -> Result<Paged, EngineError> {
        let exec = self.executor(ast)?;
        if limit == 0 {
            return Ok((Vec::new(), Some(at)));
        }
        let mut page = PageSink::new(at, limit);
        self.for_each_tree(exec, at.tree, |t, ids| {
            page.tree(t, ids.iter().map(|&id| NodeId(id - 2)))
        });
        Ok(page.finish())
    }

    /// Run `exec` over trees `from..` in order: `f` receives each tree
    /// with matches and the sorted relational ids of its matches, until
    /// it breaks.
    fn for_each_tree(
        &self,
        exec: Executor<'_>,
        from: u32,
        mut f: impl FnMut(u32, &[Value]) -> ControlFlow<()>,
    ) {
        let mut plan = match exec {
            Executor::Semijoin(program) => return program.for_each_tree(from, f),
            Executor::Cursor(plan) => plan,
        };
        let bounded = self.bound_anchor(&mut plan, from);
        let mut cursor = rel::Cursor::new(&plan, &self.db);
        // A plan whose anchor is not tree-ordered — today only the
        // constant-empty plan — is evaluated whole and sorted.
        let mut sorted;
        let rows: &mut dyn Iterator<Item = Vec<Value>> = if bounded {
            &mut cursor
        } else {
            let mut all: Vec<Vec<Value>> = cursor.by_ref().filter(|row| row[0] >= from).collect();
            all.sort_unstable();
            sorted = all.into_iter();
            &mut sorted
        };
        let (mut tree, mut ids) = (None, Vec::new());
        for row in rows {
            debug_assert!(tree.is_none_or(|t| row[0] >= t), "trees out of order");
            if tree != Some(row[0]) {
                if let Some(t) = tree {
                    ids.sort_unstable();
                    if f(t, &ids).is_break() {
                        return;
                    }
                    ids.clear();
                }
                tree = Some(row[0]);
            }
            ids.push(row[1]);
        }
        if let Some(t) = tree {
            ids.sort_unstable();
            let _ = f(t, &ids);
        }
    }

    /// Bound `plan`'s anchor to trees `from..` when the anchor is
    /// tree-ordered — it probes an index whose key column right after
    /// the equality prefix is `tid`, with no range bounds of its own:
    /// its candidates arrive in `(tid, …)` order, and the
    /// translation's same-tree equalities give every later alias the
    /// anchor's tree. Returns whether it is.
    fn bound_anchor(&self, plan: &mut rel::Plan, from: u32) -> bool {
        let Some(rel::AccessPath::IndexRange { index, eq, lo, hi }) =
            plan.steps.first_mut().map(|s| &mut s.access)
        else {
            return false;
        };
        let tid = self.cols.col(NCol::Tid);
        if lo.is_some() || hi.is_some() || self.db.index(*index).key().get(eq.len()) != Some(&tid) {
            return false;
        }
        *lo = Some((true, rel::Operand::Const(from)));
        true
    }

    /// Does the cursor's plan for `ast` start at a tree —
    /// constant-empty, or anchored tree-ordered — rather than
    /// evaluating the whole corpus, filtering and sorting? A test
    /// hook for the paging and counting invariant: every query the
    /// translation accepts should answer `true` under every join
    /// order.
    #[doc(hidden)]
    pub fn cursor_starts_at_a_tree(&self, ast: &Path) -> Result<bool, EngineError> {
        let mut plan = self.plan_ast(ast)?;
        Ok(plan.const_empty || self.bound_anchor(&mut plan, 0))
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
                "executor: cursor (queries, pages, counts and exists run the semijoin program)"
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

/// Where a document-ordered sweep stands: the tree it continues from
/// and how many of that tree's matches were already served. Every
/// join of the §4 translation carries `tid` equality, so an answer is
/// a union of per-tree node sets and this pair is all there is to say
/// about where a sweep stopped — a position, never an execution
/// state. Trees are numbered from 0 within the corpus (or shard) the
/// sweep runs over.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Position {
    /// The tree to continue from.
    pub tree: u32,
    /// Matches of `tree` already served.
    pub skip: u32,
}

impl Position {
    /// The start of the corpus.
    pub const START: Position = Position { tree: 0, skip: 0 };
}

/// One page of a sweep: document-ordered rows, and the position after
/// them (`None` once the result is exhausted).
pub type Paged = (Vec<(u32, NodeId)>, Option<Position>);

/// A page being filled from each tree's sorted matches, fed in tree
/// order from the tree of the position it starts at.
pub(crate) struct PageSink {
    at: Position,
    limit: usize,
    rows: Vec<(u32, NodeId)>,
    next: Option<Position>,
}

impl PageSink {
    pub(crate) fn new(at: Position, limit: usize) -> Self {
        PageSink {
            at,
            limit,
            rows: Vec::new(),
            next: None,
        }
    }

    /// Serve tree `t`'s matches, less those already served; breaks
    /// once the page is full, parked after its last row.
    pub(crate) fn tree(&mut self, t: u32, nodes: impl Iterator<Item = NodeId>) -> ControlFlow<()> {
        let skip = if t == self.at.tree {
            self.at.skip as usize
        } else {
            0
        };
        let before = self.rows.len();
        let room = self.limit - before;
        self.rows
            .extend(nodes.skip(skip).take(room).map(|n| (t, n)));
        if self.rows.len() < self.limit {
            return ControlFlow::Continue(());
        }
        let served = skip + self.rows.len() - before;
        self.next = Some(Position {
            tree: t,
            skip: u32::try_from(served).unwrap_or(u32::MAX),
        });
        ControlFlow::Break(())
    }

    pub(crate) fn finish(self) -> Paged {
        (self.rows, self.next)
    }
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

    /// Two scopes that close separate cycles: no one bound alias
    /// breaks both, so no semijoin program covers it.
    const TWO_CYCLES: &str = "//S[{//NP->VP}]/VP{/V-->N}";

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
            text.contains("cursor plan (streamed matches and EXPLAIN ANALYZE):\nstep 0"),
            "{text}"
        );
        let text = e.explain("//NP[not(//Det)]").unwrap();
        assert!(text.contains("anti n1 (search n1.left)"), "{text}");
        // A multi-step scope is cyclic through its scope alias only,
        // which the program binds per candidate.
        let text = e.explain("//VP{/V-->N}").unwrap();
        assert!(text.starts_with("semijoin program:"), "{text}");
        assert!(
            text.contains("    bound n0 (per candidate): name range, 1 rows\n"),
            "{text}"
        );
        assert!(text.contains("filters n1 by n1.pid = n0.id"), "{text}");
        // Two scopes closing separate cycles need two bound aliases:
        // the plan alone.
        let text = e.explain(TWO_CYCLES).unwrap();
        assert!(text.starts_with("step 0"), "{text}");
        // EXPLAIN ANALYZE's actuals are the cursor's either way.
        let analyzed = |q| e.explain_analyze(q).unwrap().to_string();
        assert!(analyzed("//NP[not(//Det)]").ends_with(
            "executor: cursor (queries, pages, counts and exists run the semijoin program)\n"
        ));
        assert!(analyzed(TWO_CYCLES).ends_with("executor: cursor\n"));
    }

    #[test]
    fn explain_analyze_runs_the_plan_explain_prints() {
        use lpath_model::{generate, GenConfig};
        // One plan per query: EXPLAIN ANALYZE annotates exactly the
        // steps and checks EXPLAIN prints, and says whether a semijoin
        // program answers the query as EXPLAIN shows it.
        let e = Engine::build(&generate(&GenConfig::wsj(200)));
        for q in crate::QUERIES {
            let text = e.explain(q.lpath).unwrap();
            let ea = e.explain_analyze(q.lpath).unwrap();
            let steps: Vec<&str> = text.lines().filter(|l| l.starts_with("step ")).collect();
            let checks: Vec<&str> = text.lines().filter(|l| l.starts_with("check ")).collect();
            let annotated: Vec<&str> = ea.steps.iter().map(|s| s.text.as_str()).collect();
            assert_eq!(annotated, steps, "Q{}", q.id);
            assert_eq!(ea.checks, checks, "Q{}", q.id);
            assert_eq!(
                ea.semijoin,
                text.starts_with("semijoin program:"),
                "Q{}",
                q.id
            );
            assert_eq!(ea.actual_rows, e.count(q.lpath).unwrap(), "Q{}", q.id);
        }
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
    fn query_limit_join_orders_agree() {
        let src: String = std::iter::repeat_n(FIG1, 30).collect::<Vec<_>>().join("\n");
        let corpus = parse_str(&src).unwrap();
        let e = Engine::build(&corpus);
        let syntactic = Engine::with_config(
            &corpus,
            PlannerConfig {
                order: rel::JoinOrder::Syntactic,
            },
        );
        for q in [
            "//NP",
            "//V->NP",
            "//NP[not(//Det)]",
            "//VP{/V-->N}",
            "//_",
            "//ZZZ",
        ] {
            let ast = lpath_syntax::parse(q).unwrap();
            let full = e.query(q).unwrap();
            assert_eq!(syntactic.query_ast(&ast).unwrap(), full, "{q}");
            for (offset, limit) in [(0, 1), (0, 10), (3, 4), (full.len(), 2), (0, usize::MAX)] {
                let want: Vec<(u32, NodeId)> =
                    full.iter().skip(offset).take(limit).copied().collect();
                for e in [&e, &syntactic] {
                    assert_eq!(
                        e.query_limit_ast(&ast, offset, limit).unwrap(),
                        want,
                        "{q} offset {offset} limit {limit}"
                    );
                }
            }
        }
    }

    /// Page `ast` to exhaustion from `at`, `limit` rows at a time.
    fn sweep(e: &Engine, ast: &Path, mut at: Position, limit: usize) -> Vec<(u32, NodeId)> {
        let mut got = Vec::new();
        loop {
            let (rows, next) = e.page_ast(ast, at, limit).unwrap();
            got.extend(rows);
            match next {
                Some(p) => at = p,
                None => return got,
            }
        }
    }

    #[test]
    fn page_concatenation_is_exact_at_every_boundary() {
        let src: String = std::iter::repeat_n(FIG1, 12).collect::<Vec<_>>().join("\n");
        let corpus = parse_str(&src).unwrap();
        let e = Engine::build(&corpus);
        // Semijoin programs (`//VP{/V-->N}` binds its scope), the
        // cursor and the constant-empty plan alike.
        for q in [
            "//NP",
            "//V->NP",
            "//NP[not(//Det)]",
            "//_",
            "//VP{/V-->N}",
            TWO_CYCLES,
            "//ZZZ",
        ] {
            let ast = lpath_syntax::parse(q).unwrap();
            let full = e.query(q).unwrap();
            // Two pages, split at every row boundary.
            for split in 1..=full.len() {
                let (head, next) = e.page_ast(&ast, Position::START, split).unwrap();
                assert_eq!(head, full[..split], "{q} split {split}");
                let at = next.expect("a full page parks");
                // The position names the last row's tree and how many
                // of its rows were served.
                let (tree, _) = head[split - 1];
                let served = head.iter().filter(|m| m.0 == tree).count();
                assert_eq!(
                    at,
                    Position {
                        tree,
                        skip: served as u32
                    },
                    "{q} split {split}"
                );
                let (tail, end) = e.page_ast(&ast, at, usize::MAX).unwrap();
                assert_eq!(tail, full[split..], "{q} split {split}");
                assert!(end.is_none(), "{q} split {split}");
            }
            for limit in [1, 3, 7] {
                assert_eq!(
                    sweep(&e, &ast, Position::START, limit),
                    full,
                    "{q} by {limit}"
                );
            }
            // A zero limit keeps the place.
            let at = Position { tree: 3, skip: 1 };
            assert_eq!(e.page_ast(&ast, at, 0).unwrap(), (Vec::new(), Some(at)));
        }
    }

    #[test]
    fn every_position_pages_a_contiguous_run() {
        // Any position — past a tree's matches, past the corpus — names
        // a suffix of the document-ordered result: the trees from
        // `tree` on, less the first `skip` matches of `tree`.
        let src: String = std::iter::repeat_n(FIG1, 4).collect::<Vec<_>>().join("\n");
        let e = Engine::build(&parse_str(&src).unwrap());
        for q in ["//NP", "//V->NP", "//VP{/V-->N}", "//ZZZ"] {
            let ast = lpath_syntax::parse(q).unwrap();
            let full = e.query(q).unwrap();
            for tree in 0..6 {
                for skip in [0, 1, 2, 9, u32::MAX] {
                    let first = full.iter().position(|m| m.0 >= tree).unwrap_or(full.len());
                    let in_tree = full.iter().filter(|m| m.0 == tree).count();
                    let from = first + (skip as usize).min(in_tree);
                    let at = Position { tree, skip };
                    assert_eq!(sweep(&e, &ast, at, 2), full[from..], "{q} at {at:?}");
                }
            }
        }
    }

    #[test]
    fn pages_and_counts_error_on_unsupported_queries() {
        let e = engine();
        let ast = lpath_syntax::parse("//VP/_[last()]").unwrap();
        for limit in [0, 5] {
            assert!(matches!(
                e.page_ast(&ast, Position::START, limit),
                Err(EngineError::Unsupported(_))
            ));
        }
        assert!(matches!(
            e.count_resume(&ast, 0, 5),
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
        let plan = e.plan_ast(&ast).unwrap();
        assert!(plan.estimated_result <= 1, "{}", plan.estimated_result);
        // Paging still returns the correct full result.
        assert_eq!(
            e.query_limit("//VP//NP", 0, 100).unwrap(),
            e.query("//VP//NP").unwrap()
        );
    }

    #[test]
    fn every_page_plan_streams() {
        use lpath_model::{generate, GenConfig};
        // Every paper query's cursor plan, under both join orders, is
        // either the constant-empty plan or anchored tree-ordered, so
        // no page or count evaluates a tree before its position.
        for cfg in [GenConfig::wsj(400), GenConfig::swb(900)] {
            let corpus = generate(&cfg);
            for order in [rel::JoinOrder::GreedyStats, rel::JoinOrder::Syntactic] {
                let e = Engine::with_config(&corpus, PlannerConfig { order });
                for q in crate::QUERIES {
                    let ast = lpath_syntax::parse(q.lpath).unwrap();
                    assert!(
                        e.cursor_starts_at_a_tree(&ast).unwrap(),
                        "Q{} under {order:?} does not stream:\n{}",
                        q.id,
                        e.plan_ast(&ast).unwrap()
                    );
                }
            }
        }
    }

    /// Does a condition of `cq` tie alias `a` to an alias `bound`
    /// marks?
    fn directly_conditioned(cq: &rel::ConjQuery, bound: &[bool], a: usize) -> bool {
        cq.conds.iter().any(|c| match c.right {
            rel::Operand::Col(r) if c.left.alias == a => r.alias != a && bound[r.alias],
            rel::Operand::Col(r) if r.alias == a => c.left.alias != a && bound[c.left.alias],
            _ => false,
        })
    }

    /// The first step of `plan` (or of one of its checks, recursively)
    /// that binds an alias tied to the bound set only through an
    /// equality class while a directly conditioned alias still waits.
    fn closure_only_step(cq: &rel::ConjQuery, plan: &rel::Plan) -> Option<String> {
        let mut bound = vec![false; cq.aliases.len()];
        for (i, step) in plan.steps.iter().enumerate() {
            if i > 0 && !directly_conditioned(cq, &bound, step.alias) {
                let waiting =
                    (0..bound.len()).find(|&a| !bound[a] && directly_conditioned(cq, &bound, a));
                if let Some(w) = waiting {
                    return Some(format!("step {i} binds n{} while n{w} waits", step.alias));
                }
            }
            bound[step.alias] = true;
        }
        let mut subs = cq.subqueries.iter().zip(&plan.checks);
        subs.find_map(|(sub, check)| closure_only_step(&sub.query, &check.plan))
    }

    #[test]
    fn no_plan_binds_a_closure_only_alias_while_a_direct_one_waits() {
        use lpath_model::{generate, GenConfig};
        // The translation ties every alias to its neighbours by
        // structural conditions and to all of them by `tid` equality.
        // Joining on `tid` alone is a same-tree cross product, so the
        // greedy order binds the directly conditioned aliases first.
        for cfg in [GenConfig::wsj(400), GenConfig::swb(900)] {
            let e = Engine::build(&generate(&cfg));
            for q in crate::QUERIES {
                let cq = e.translate(&lpath_syntax::parse(q.lpath).unwrap()).unwrap();
                let plan = rel::plan(&e.db, &cq, &e.planner);
                let bad = closure_only_step(&cq, &plan);
                assert!(bad.is_none(), "Q{}: {}:\n{plan}", q.id, bad.unwrap());
            }
        }
    }

    #[test]
    fn only_tree_ordered_anchors_take_a_tree_bound() {
        let e = engine();
        let ast = lpath_syntax::parse("//NP").unwrap();
        let mut plan = e.plan_ast(&ast).unwrap();
        assert!(e.bound_anchor(&mut plan, 3));
        let rel::AccessPath::IndexRange { lo, .. } = &plan.steps[0].access else {
            panic!("`//NP` anchors on an index");
        };
        assert!(matches!(lo, Some((true, rel::Operand::Const(3)))));
        // A bound anchor is bounded already; the constant-empty plan
        // has no anchor.
        assert!(!e.bound_anchor(&mut plan, 4));
        assert!(!e.bound_anchor(&mut rel::Plan::constant_empty(), 3));
    }

    #[test]
    fn budgeted_counts_sum_to_the_one_shot_count() {
        let src: String = std::iter::repeat_n(FIG1, 5).collect::<Vec<_>>().join("\n");
        let corpus = parse_str(&src).unwrap();
        let (e, w) = (Engine::build(&corpus), crate::Walker::new(&corpus));
        // `//V->NP` exercises the dedup path, `//NP/_` the dedup-free
        // one, `//VP{/V-->N}` a bound scope, the two cycles the cursor.
        for q in [
            "//NP",
            "//V->NP",
            "//VP{//NP$}",
            "//NP/_",
            "//VP{/V-->N}",
            TWO_CYCLES,
            "//ZZZ",
        ] {
            let ast = lpath_syntax::parse(q).unwrap();
            let total = e.count(q).unwrap() as u64;
            for budget in 1..4 {
                let (mut sum, mut tree, mut rounds) = (0, 0, 0);
                loop {
                    let (n, next) = e.count_resume(&ast, tree, budget).unwrap();
                    // The walker parks where the engine does.
                    assert_eq!((n, next), w.count_resume(&ast, tree, budget), "{q}");
                    sum += n;
                    rounds += 1;
                    assert!(rounds < 100, "count_resume failed to converge");
                    match next {
                        // A count parks only at a tree boundary, once
                        // its budget is spent.
                        Some(t) => {
                            assert!(t > tree && n >= budget as u64, "{q}");
                            tree = t;
                        }
                        None => break,
                    }
                }
                assert_eq!(sum, total, "{q} with budget {budget}");
            }
            // A zero budget keeps the place, unless no tree is left.
            assert_eq!(e.count_resume(&ast, 2, 0).unwrap(), (0, Some(2)), "{q}");
            assert_eq!(e.count_resume(&ast, 5, 0).unwrap(), (0, None), "{q}");
            assert_eq!(w.count_resume(&ast, 5, 0), (0, None), "{q}");
        }
    }

    #[test]
    fn uncovered_queries_page_and_count_exactly_under_both_orders() {
        use lpath_model::{generate, GenConfig};
        // Queries no semijoin program covers — two separate cycles; two
        // subqueries each correlated with two aliases, no alias shared —
        // run their one cursor plan for every page and budgeted count,
        // under either join order: pages of 25 concatenate to the
        // result, and budgeted counts sum to the count.
        const UNCOVERED: [&str; 3] = [
            "//S[{//NP->VP}]/VP{/VB-->NN}",
            "//S{//NP[not(//CD)]/PP[{//NN[not(//DT)]}]}",
            "//S{//VP[not(//JJ)]//NP[{//DT[not(//NN)]}]}",
        ];
        let corpus = generate(&GenConfig::wsj(300));
        for order in [rel::JoinOrder::GreedyStats, rel::JoinOrder::Syntactic] {
            let e = Engine::with_config(&corpus, PlannerConfig { order });
            for q in UNCOVERED {
                let ast = lpath_syntax::parse(q).unwrap();
                assert!(e.semijoin_ast(&ast).unwrap().is_none(), "{q} is covered");
                let full = e.query_ast(&ast).unwrap();
                assert!(!full.is_empty(), "{q} matches nothing");
                assert_eq!(sweep(&e, &ast, Position::START, 25), full, "{q}");
                let (mut sum, mut tree) = (0, Some(0));
                while let Some(from) = tree {
                    let (n, next) = e.count_resume(&ast, from, 7).unwrap();
                    sum += n;
                    tree = next;
                }
                assert_eq!(sum, full.len() as u64, "{q} under {order:?}");
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
