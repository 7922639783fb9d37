//! `lpath-service` — a sharded, cached, concurrent query service over
//! the LPath engines.
//!
//! The paper (Bird et al., ICDE 2006) evaluates LPath as a single-shot
//! pipeline: parse → translate → plan → execute, once, over one
//! corpus. A production treebank service answers *many* queries over a
//! *long-lived* corpus, which changes the cost model completely:
//!
//! * **Sharding** — the corpus is partitioned by tree id into
//!   contiguous shards, each with its own fully indexed
//!   [`lpath_core::Engine`]. Treebank queries never cross tree
//!   boundaries (the tractability observation of Gottlob, Koch &
//!   Schulz's *Conjunctive Queries over Trees*), so shards evaluate
//!   independently and exactly; concatenating per-shard results in
//!   shard order reproduces single-engine document order byte for
//!   byte.
//! * **Plan cache** — each distinct query is parsed and analyzed once
//!   ([`CompiledQuery`], a pure function of the query text, so appends
//!   never invalidate it); each shard runs it as
//!   [`lpath_core::Engine`]'s fallback contract says: the relational
//!   translation where it exists, the full-language tree walker
//!   otherwise.
//! * **Row and count stores** — bounded LRUs from `(query, shard)` to
//!   the shard's complete match set and to its count, scoped
//!   to each shard's *build id*, so entries survive appends that did not
//!   touch their shard. Whole-corpus answers are built on read: rows
//!   concatenate in shard order, counts sum ([`Service::count`] never
//!   materializes or evicts match sets).
//! * **Early termination** — [`Service::exists`] stops at the first
//!   witness, and the paged [`Service::eval_page`] visits shards in
//!   document order and short-circuits the fan-out once the page is
//!   covered, so first-match and page-1 latency track the *selectivity*
//!   of a query instead of its full result size.
//! * **Sweeps** — paging and budgeted counting are one resumable walk
//!   over the shards ([`sweep`]), parked at a [`SweepPos`]: a shard,
//!   the tree to continue from and how many of its matches were
//!   already served. No match crosses a tree, so that position is all
//!   a sweep needs to continue: tokens seal the position, and sweeping
//!   pages 1…K re-enumerates no tree before the one a page starts in.
//!   An offset page is the same sweep from the corpus start.
//! * **Shard pruning** — each shard records which symbols occur in it
//!   and, in its aggregate tables, which tag pairs stand in the
//!   parent/child, ancestor/descendant, `=>` and `->` relations; a
//!   query whose required symbols or tag pairs (conservatively
//!   extracted, [`plan::requirements`]) are absent from a shard skips
//!   that shard outright. Rare-construct queries
//!   (`//_[@lex=rapprochement]`, `//WHPP`, …) and pairings the corpus
//!   never shows (`//VP//PRP` where every `PRP` is a subject) touch
//!   only the shards that can answer them.
//! * **Incremental ingest** — [`Service::append_ptb`] rebuilds only
//!   the tail shard, so keeping a growing corpus queryable costs
//!   `O(corpus / shards)` per batch instead of a full engine rebuild.
//! * **One request pipeline** — every entry point is a short mode
//!   body between one prologue (count, time, compile, snapshot) and
//!   one epilogue (the latency sample); [`Service::eval`] is
//!   [`Service::eval_multi`] over a batch of one, so a miss is resolved
//!   by exactly one piece of code, fanned across worker threads
//!   (scoped; shards are `Sync`) and merged deterministically.
//!
//! ```
//! use lpath_model::ptb::parse_str;
//! use lpath_service::{Service, ServiceConfig};
//!
//! let corpus = parse_str(
//!     "( (S (NP (DT the) (NN dog)) (VP (VBD ran))) )\n\
//!      ( (S (NP (PRP I)) (VP (VBD saw) (NP (DT the) (NN man)))) )",
//! )
//! .unwrap();
//! let service = Service::with_config(
//!     &corpus,
//!     ServiceConfig { shards: 2, ..ServiceConfig::default() },
//! );
//! // `//S//NP` is outside the aggregate tables, so each shard counts it
//! // by cursor once; second time around both shard counts are
//! // count-store hits.
//! assert_eq!(service.count("//S//NP").unwrap(), 3);
//! assert_eq!(service.count("//S//NP").unwrap(), 3);
//! assert_eq!(service.stats().count_hits, 2);
//! // First page of matches, shard fan-out short-circuited.
//! assert_eq!(service.eval_page("//NP", 0, 1).unwrap().len(), 1);
//! assert!(service.exists("//VBD").unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod cache;
pub mod plan;
pub mod shard;
pub mod stats;
pub mod sweep;
pub mod token;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::Duration;

use lpath_model::ptb::parse_into;
use lpath_model::{Corpus, Interner, ModelError};
use lpath_syntax::{parse, SyntaxError};

pub use agg::{AggTables, FastClass};
pub use cache::ResultSet;
use cache::{CountCache, PlanCache, ShardRowCache};
pub use lpath_check::{CheckReport, Diagnostic, Severity};
pub use lpath_obs::HistogramSnapshot;
pub use plan::{requirements, CompiledQuery, Requirements};
pub use shard::Shard;
use stats::{Class, Counters, Instruments};
pub use stats::{ClassMetrics, Metrics, ServiceStats, ShardStats, SlowQuery};
pub use sweep::SweepPos;
pub use token::{CountPage, Page};

/// Everything that can go wrong answering a service request.
///
/// Note what is *not* here: unsupported-by-SQL queries are not errors
/// for the service — they fall back to the tree walker, so the service
/// answers the full LPath language.
#[derive(Debug)]
pub enum ServiceError {
    /// The query text does not parse.
    Syntax(SyntaxError),
    /// Appended corpus text does not parse.
    Corpus(ModelError),
    /// An echoed paging token is malformed: truncated, corrupted,
    /// version-skewed, or minted for a different query. (A merely
    /// *stale* token — valid bytes from before an append — is not an
    /// error: [`Service::eval_page_token`] recovers from it silently.)
    BadToken(lpath_relstore::WireError),
    /// A batched evaluation hit the batch-abort fault point before any
    /// shard work ran (test-only injection, see
    /// [`Service::inject_multi_abort`]). No caches were modified; the
    /// members are individually retryable.
    Aborted,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Syntax(e) => e.fmt(f),
            ServiceError::Corpus(e) => e.fmt(f),
            ServiceError::BadToken(e) => write!(f, "bad paging token: {e}"),
            ServiceError::Aborted => write!(f, "batched evaluation aborted"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SyntaxError> for ServiceError {
    fn from(e: SyntaxError) -> Self {
        ServiceError::Syntax(e)
    }
}

impl From<ModelError> for ServiceError {
    fn from(e: ModelError) -> Self {
        ServiceError::Corpus(e)
    }
}

/// Service construction parameters.
#[derive(Copy, Clone, Debug)]
pub struct ServiceConfig {
    /// Number of shards the corpus is partitioned into (min 1).
    pub shards: usize,
    /// Worker threads for shard/batch fan-out; `0` means one per
    /// available CPU (capped by the work at hand).
    pub threads: usize,
    /// Row- and count-store capacity, each in `(query, shard)` entries.
    /// Both are plain LRUs: every insert is admitted, evicting the
    /// least recently used entry when full; `0` disables both.
    pub result_cache_capacity: usize,
    /// Plan-cache capacity in entries (each query may occupy two:
    /// normalized form plus a raw-spelling alias); `0` disables plan
    /// caching. Bounded so a long-lived service fed unbounded distinct
    /// query strings cannot grow without limit.
    pub plan_cache_capacity: usize,
    /// Record per-query-class latency histograms and the slow-query
    /// log ([`Service::metrics`]). Disabling skips every clock read on
    /// the request paths; the cheap event counters ([`Service::stats`])
    /// stay on regardless.
    pub metrics: bool,
    /// Requests whose end-to-end latency reaches this threshold are
    /// captured in the slow-query log with their stage timings,
    /// fan-out width and resume count. `Duration::ZERO` logs every
    /// request (useful in tests).
    pub slow_query_threshold: Duration,
    /// Slow-query log retention: the newest this many slow requests
    /// are kept (min 1).
    pub slow_query_log_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            shards: 4,
            threads: 0,
            result_cache_capacity: 512,
            plan_cache_capacity: 2_048,
            metrics: true,
            slow_query_threshold: Duration::from_millis(50),
            slow_query_log_capacity: 32,
        }
    }
}

/// The GROUP BY-style result shape of [`Service::hist`]: one query's
/// match set aggregated two ways. Both breakdowns sum to `total`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct QueryHistogram {
    /// Total matches — equals [`Service::count`] of the same query.
    pub total: u64,
    /// Matches per tree: `(global tree id, count)`, tid-ascending,
    /// non-zero entries only.
    pub per_tree: Vec<(u32, u64)>,
    /// Matches per matched-node label, label-ascending, non-zero
    /// entries only.
    pub per_label: Vec<(String, u64)>,
}

/// One request in flight: everything that is per-request rather than
/// per-query. The [`CompiledQuery`] stays immutable and shared; this
/// context is opened by the pipeline's prologue, threaded through the
/// mode body and closed by its epilogue (see `Service::request`).
pub(crate) struct Request {
    /// The request's one shard snapshot.
    pub(crate) shards: Vec<Arc<Shard>>,
    /// Served entirely from cached state so far; any enumeration — a
    /// shard evaluation, a page, a cursor count — clears it.
    pub(crate) hit: bool,
    /// Shards the request visited.
    pub(crate) fanout: usize,
    /// Shard sweeps continued from a position inside the shard.
    resumes: u64,
}

/// What the batch core gives back per member: the whole-corpus rows,
/// or the member's in-band error.
type Answer = Result<Arc<ResultSet>, ServiceError>;

/// Corpus-dependent state: the shards, the only copy of the trees the
/// service holds. Readers snapshot `Arc<Shard>`s under a short read
/// lock; writers build outside it and write-lock only to swap.
struct State {
    shards: Vec<Arc<Shard>>,
    generation: u64,
}

impl State {
    fn tail(&self) -> &Arc<Shard> {
        self.shards.last().expect("at least one shard")
    }

    /// The current vocabulary. The tail shard is always the most
    /// recently built, from an interner holding every symbol known at
    /// the time, so its interner holds every symbol of every shard.
    fn vocabulary(&self) -> &Interner {
        self.tail().corpus().interner()
    }
}

/// The sharded, cached, concurrent LPath query service.
///
/// All query methods take `&self` and the service is `Send + Sync`:
/// share it behind an `Arc` and call it from as many threads as you
/// like. Mutation ([`Service::append_ptb`], [`Service::swap_corpus`])
/// also takes `&self`, serialized internally.
pub struct Service {
    cfg: ServiceConfig,
    threads: usize,
    state: RwLock<State>,
    plans: Mutex<PlanCache>,
    /// Per-shard counts, scoped to each shard's *build id* rather than
    /// the corpus generation: an append rebuilds only the tail shard,
    /// so every other shard's cached count stays valid across the
    /// generation bump and only the tail is recounted.
    shard_counts: Mutex<CountCache>,
    /// Per-shard rows (`(query, shard)` keys), build-id scoped like the
    /// counts: a shard's *complete* result. Head-shard entries survive
    /// `append_ptb`, so a post-append [`Service::eval`] only
    /// re-evaluates the rebuilt tail shard.
    shard_rows: Mutex<ShardRowCache>,
    counters: Counters,
    instr: Instruments,
    /// Serialises appends and swaps, so two appends never extend the
    /// same old tail. It guards no data, so poison is ignored.
    writer: Mutex<()>,
    /// Test-only fault point: when armed, the next request that
    /// reaches the batch core with uncached members aborts them before
    /// any shard work (consumed one-shot). See
    /// [`Service::inject_multi_abort`].
    multi_abort: AtomicBool,
}

/// Shard ids, and the one-past-the-end position of a finished sweep,
/// live in `u16` (store keys, tokens): the shard count is clamped to fit.
const MAX_SHARDS: usize = u16::MAX as usize - 1;

impl Service {
    /// Build a service over `corpus` with the default configuration.
    pub fn build(corpus: &Corpus) -> Self {
        Self::with_config(corpus, ServiceConfig::default())
    }

    /// Build a service over `corpus` with an explicit configuration.
    pub fn with_config(corpus: &Corpus, mut cfg: ServiceConfig) -> Self {
        cfg.shards = cfg.shards.clamp(1, MAX_SHARDS);
        let threads = if cfg.threads == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
        } else {
            cfg.threads
        };
        let shards = build_shards(corpus, cfg.shards, threads, 0);
        Service {
            cfg,
            threads,
            state: RwLock::new(State {
                shards,
                generation: 0,
            }),
            plans: Mutex::new(PlanCache::new(cfg.plan_cache_capacity)),
            shard_counts: Mutex::new(CountCache::new(cfg.result_cache_capacity)),
            shard_rows: Mutex::new(ShardRowCache::new(cfg.result_cache_capacity)),
            counters: Counters::default(),
            instr: Instruments::new(
                cfg.metrics,
                cfg.slow_query_threshold,
                cfg.slow_query_log_capacity,
            ),
            writer: Mutex::new(()),
            multi_abort: AtomicBool::new(false),
        }
    }

    // -----------------------------------------------------------------
    // Compilation (plan cache)
    // -----------------------------------------------------------------

    /// Compile `query` or fetch its cached compilation. Distinct
    /// spellings of the same query (whitespace, display form) share
    /// one entry via the normalized text. A compilation depends on the
    /// query text alone, so compiling reads no corpus state and no
    /// append or swap invalidates a cached plan.
    pub fn compile(&self, query: &str) -> Result<Arc<CompiledQuery>, ServiceError> {
        let key = query.trim();
        if let Some(hit) = self.plans.lock().unwrap().get(key) {
            self.counters.plan_hits.bump();
            return Ok(hit);
        }
        let ast = parse(key)?;
        let normalized = ast.to_string();
        if normalized != key {
            let mut plans = self.plans.lock().unwrap();
            if let Some(hit) = plans.get(&normalized) {
                self.counters.plan_hits.bump();
                // Alias the raw spelling for next time.
                plans.insert(key.to_string(), Arc::clone(&hit));
                return Ok(hit);
            }
        }
        self.counters.plan_misses.bump();
        let compiled = Arc::new(CompiledQuery {
            required: requirements(&ast),
            fast: agg::classify(&ast),
            statically_empty: lpath_check::check(&ast).statically_empty,
            normalized,
            ast,
        });
        let mut plans = self.plans.lock().unwrap();
        plans.insert(compiled.normalized.clone(), Arc::clone(&compiled));
        if key != compiled.normalized {
            plans.insert(key.to_string(), Arc::clone(&compiled));
        }
        Ok(compiled)
    }

    /// The SQL the relational path executes for `query` — rendered on
    /// the tail shard's engine, whose vocabulary holds every symbol —
    /// or `None` when the translation does not cover the query, which
    /// then runs on the walker fallback.
    pub fn sql(&self, query: &str) -> Result<Option<String>, ServiceError> {
        let compiled = self.compile(query)?;
        let st = self.state.read().unwrap();
        Ok(st.tail().engine().sql_ast(&compiled.ast).ok())
    }

    /// Statically analyze `query` against the current corpus
    /// vocabulary (the tail shard's): spanned diagnostics (render with
    /// [`CheckReport::render`] over the same `query` text, or
    /// [`CheckReport::to_json`]) plus the emptiness verdict. The
    /// request paths act on the *structural* part of that verdict
    /// alone ([`CompiledQuery::statically_empty`]); a query proven
    /// empty only by the vocabulary is answered empty by the data —
    /// shards lacking a required symbol are pruned, and each shard's
    /// engine plans a query its vocabulary rules out as constant-empty.
    /// Parses fresh rather than going through the plan cache so the
    /// diagnostic spans index into *this* spelling of the query, not
    /// the normalized one.
    pub fn check(&self, query: &str) -> Result<CheckReport, ServiceError> {
        let ast = parse(query)?;
        let st = self.state.read().unwrap();
        let vocabulary = st.vocabulary();
        Ok(lpath_check::check_with(&ast, |sym| {
            vocabulary.get(sym).is_some()
        }))
    }

    // -----------------------------------------------------------------
    // The request pipeline
    // -----------------------------------------------------------------

    /// The one request pipeline every entry point runs through.
    /// **Prologue**: count the request, start the timer, compile every
    /// member once, snapshot the shards (one snapshot per request, so
    /// members and pages never see an append half-applied, and
    /// evaluation never blocks writers). `body` is the mode.
    /// **Epilogue**: one latency sample under `class`, whether the
    /// request succeeded or not.
    fn request<T>(
        &self,
        class: Class,
        queries: &[&str],
        body: impl FnOnce(&mut Request, Vec<Result<Arc<CompiledQuery>, ServiceError>>) -> T,
    ) -> T {
        self.counters.queries.add(queries.len() as u64);
        let mut timer = self.instr.begin();
        let compiled = queries.iter().map(|q| self.compile(q)).collect();
        if let Some(t) = timer.as_mut() {
            t.mark_compiled();
        }
        let mut req = {
            let st = self.state.read().unwrap();
            Request {
                shards: st.shards.clone(),
                hit: true,
                fanout: 0,
                resumes: 0,
            }
        };
        let out = body(&mut req, compiled);
        self.instr
            .finish(timer, class, req.hit, queries, req.fanout, req.resumes);
        out
    }

    /// A single-query request: the pipeline with its one member
    /// unwrapped and the analyzer's verdict applied — a statically
    /// empty query is answered with `empty`, touching no shard and no
    /// cache.
    fn solo<T>(
        &self,
        class: Class,
        query: &str,
        empty: T,
        body: impl FnOnce(&mut Request, &Arc<CompiledQuery>) -> Result<T, ServiceError>,
    ) -> Result<T, ServiceError> {
        self.request(class, &[query], |req, mut compiled| {
            let compiled = compiled.pop().expect("one member")?;
            if compiled.statically_empty {
                self.counters.statically_empty.bump();
                return Ok(empty);
            }
            body(req, &compiled)
        })
    }

    /// Evaluate one query over the whole corpus. Results are
    /// `(global tree id, node)` in document order — byte-identical to
    /// a single [`lpath_core::Engine`] over the same corpus.
    pub fn eval(&self, query: &str) -> Result<Arc<ResultSet>, ServiceError> {
        self.eval_multi(&[query]).pop().expect("one member")
    }

    /// Evaluate a batch of queries as one request: one compile pass,
    /// one shard snapshot, one row-store round to probe and one to
    /// write back. Members with the same normalized text are evaluated
    /// once and share one `Arc` ([`ServiceStats::batch_dedup`]); each
    /// shard with a miss runs one task that evaluates its missed
    /// members in order, exactly as [`Service::eval`] would. Per-query
    /// results are identical to calling [`Service::eval`] one query at
    /// a time (same rows, same document order), and a failing member
    /// is an in-band error that leaves its siblings alone.
    ///
    /// The whole batch sees one shard snapshot, so members can never
    /// observe a corpus append half-applied ([`Service::append_ptb`]
    /// swaps shards in under the lock; clones taken before the swap
    /// stay consistent with each other).
    ///
    /// A batch of one *is* [`Service::eval`] — same caches, same
    /// counters, same latency class.
    pub fn eval_multi(&self, queries: &[&str]) -> Vec<Result<Arc<ResultSet>, ServiceError>> {
        let class = if queries.len() == 1 {
            Class::Eval
        } else {
            self.counters.batches.bump();
            Class::EvalMulti
        };
        self.request(class, queries, |req, compiled| self.resolve(req, compiled))
    }

    /// The one miss-resolution core: whole-corpus result sets for a
    /// set of compiled members (a solo request is a set of one). In-set
    /// duplicates collapse onto one answer; one lock round probes the
    /// row store for every (member, unpruned shard) pair; only shards
    /// with a miss fan out, one task each evaluating its misses in
    /// order with [`Shard::eval`], the call a solo miss makes; per-shard
    /// rows concatenate in shard order, which *is* document order.
    /// Compile errors pass through.
    fn resolve(
        &self,
        req: &mut Request,
        members: Vec<Result<Arc<CompiledQuery>, ServiceError>>,
    ) -> Vec<Answer> {
        let mut out: Vec<Option<Answer>> = (0..members.len()).map(|_| None).collect();
        // The distinct members, each with the slots it answers.
        let mut wanted: Vec<(Vec<usize>, Arc<CompiledQuery>)> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        let (mut statically_empty, mut dedup) = (0u64, 0u64);
        for (i, c) in members.into_iter().enumerate() {
            match c {
                Err(e) => out[i] = Some(Err(e)),
                Ok(c) if c.statically_empty => {
                    statically_empty += 1;
                    out[i] = Some(Ok(Arc::new(Vec::new())));
                }
                // A repeat is served from its sibling occurrence's
                // answer: it probes nothing.
                Ok(c) => match index.get(&c.normalized) {
                    Some(&w) => {
                        dedup += 1;
                        wanted[w].0.push(i);
                    }
                    None => {
                        index.insert(c.normalized.clone(), wanted.len());
                        wanted.push((vec![i], c));
                    }
                },
            }
        }
        self.counters.statically_empty.add(statically_empty);
        self.counters.batch_dedup.add(dedup);

        // `parts[w][si]`: member `w`'s rows on shard `si` (`None` when
        // pruned); `misses[si]`: the members shard `si` must evaluate.
        let shards = &req.shards;
        let mut parts: Vec<Vec<Option<Arc<ResultSet>>>> =
            vec![vec![None; shards.len()]; wanted.len()];
        let mut misses: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        {
            let mut store = self.shard_rows.lock().unwrap();
            let mut probe: cache::Key = (String::new(), 0);
            for (w, (_, c)) in wanted.iter().enumerate() {
                probe.0.clone_from(&c.normalized);
                for (si, shard) in self.unpruned(c, ids(shards)) {
                    probe.1 = si;
                    match store.get(&probe, shard.build_id()) {
                        Some(rows) => parts[w][si as usize] = Some(rows),
                        None => misses.entry(si as usize).or_default().push(w),
                    }
                }
            }
        }
        let work: Vec<(usize, Vec<usize>)> = misses.into_iter().collect();
        let hits = parts.iter().flatten().flatten().count() as u64;
        let missed: u64 = work.iter().map(|(_, m)| m.len() as u64).sum();
        self.counters.result_hits.add(hits);
        self.counters.result_misses.add(missed);

        if !work.is_empty() {
            req.hit = false;
            if self.multi_abort.swap(false, Ordering::SeqCst) {
                // Batch-abort fault point (test-only): members with a
                // miss fail without any shard work or store writes.
                for &w in work.iter().flat_map(|(_, m)| m) {
                    for &qi in &wanted[w].0 {
                        out[qi] = Some(Err(ServiceError::Aborted));
                    }
                }
            } else {
                req.fanout = work.len();
                let evaluated = fan_out(self.threads, work.len(), |t| {
                    let (si, members) = &work[t];
                    self.counters.shard_evals.add(members.len() as u64);
                    members
                        .iter()
                        .map(|&w| shards[*si].eval(&wanted[w].1))
                        .collect::<Vec<_>>()
                });
                // Complete results go to the store, where later requests
                // reuse them (across appends too, but for the tail).
                let mut store = self.shard_rows.lock().unwrap();
                for ((si, members), rows) in work.iter().zip(evaluated) {
                    for (&w, rows) in members.iter().zip(rows) {
                        let rows = Arc::new(rows);
                        let key = (wanted[w].1.normalized.clone(), *si as u16);
                        parts[w][*si] = Some(Arc::clone(&rows));
                        store.insert(key, shards[*si].build_id(), rows);
                    }
                }
            }
        }
        for ((slots, _), parts) in wanted.iter().zip(&parts) {
            if out[slots[0]].is_some() {
                continue; // aborted
            }
            // The rows of a lone live shard are served as stored.
            let mut live = parts.iter().flatten();
            let rows = match (live.next(), live.next()) {
                (Some(only), None) => Arc::clone(only),
                _ => {
                    let slices: Vec<&[_]> = parts.iter().flatten().map(|p| &p[..]).collect();
                    Arc::new(slices.concat())
                }
            };
            for &qi in slots {
                out[qi] = Some(Ok(Arc::clone(&rows)));
            }
        }
        out.into_iter()
            .map(|r| r.expect("all slots filled"))
            .collect()
    }

    /// Arm the batch-abort fault point: the next request that reaches
    /// the batch core with at least one uncached member
    /// ([`Service::eval`], [`Service::eval_multi`], a slow-path
    /// [`Service::hist`]) fails those members with
    /// [`ServiceError::Aborted`] instead of touching the shards.
    /// One-shot; for failure-injection tests.
    #[doc(hidden)]
    pub fn inject_multi_abort(&self) {
        self.multi_abort.store(true, Ordering::SeqCst);
    }

    // -----------------------------------------------------------------
    // Counting
    // -----------------------------------------------------------------

    /// Result size of `query` (the paper's reported measure): the sum
    /// of per-shard counts held in a **per-shard count store** scoped
    /// to each shard's build id — after an [`Service::append_ptb`]
    /// only the rebuilt tail shard is recounted, every other shard's
    /// count is reused. The relational path counts through the
    /// streaming cursor without materializing a match set
    /// (walker-fallback queries still materialize per shard), and
    /// nothing is evicted from the (separate) row store to make room.
    /// Counting over trees is far cheaper than enumerating (Bárcenas
    /// et al., *On the Count of Trees*); this path exploits exactly
    /// that gap.
    pub fn count(&self, query: &str) -> Result<usize, ServiceError> {
        self.solo(Class::Count, query, 0, |req, compiled| {
            Ok(self.count_whole(req, compiled))
        })
    }

    /// The whole-corpus count behind [`Service::count`] and
    /// [`Service::count_token`]'s stale recovery.
    pub(crate) fn count_whole(&self, req: &mut Request, compiled: &CompiledQuery) -> usize {
        let shards = self.unpruned(compiled, ids(&req.shards));
        let (n, computed) = self.count_shards(compiled, &shards);
        req.hit &= computed == 0;
        req.fanout += computed;
        n
    }

    /// The sum of `compiled`'s counts on (unpruned) `shards`, and how
    /// many shards were counted rather than read. Each goes through one
    /// chain: the aggregate tables (a hash lookup, cheaper than the
    /// probes it replaces); the count store; a row-store entry, whose
    /// length is the count; and only then the counting cursor, fanned
    /// out over the shards that reach it. What the count store missed
    /// it remembers.
    fn count_shards(&self, compiled: &CompiledQuery, shards: &[(u16, &Shard)]) -> (usize, usize) {
        if let Some(fast) = &compiled.fast {
            self.counters.count_fast.add(shards.len() as u64);
            let n: u64 = shards.iter().map(|(_, s)| s.tabulated(fast)).sum();
            return (usize::try_from(n).unwrap_or(usize::MAX), shards.len());
        }
        // `(count, learned)`: learned counts are new to the count store.
        let mut n = self.known(compiled, shards);
        let uncounted: Vec<usize> = (0..shards.len()).filter(|&i| n[i].is_none()).collect();
        if !uncounted.is_empty() {
            let counted = fan_out(self.threads, uncounted.len(), |t| {
                self.counters.shard_evals.bump();
                shards[uncounted[t]].1.count(compiled)
            });
            for (&i, k) in uncounted.iter().zip(counted) {
                n[i] = Some((k, true));
            }
        }
        let mut store = None;
        for (&(si, shard), &(k, learned)) in shards.iter().zip(n.iter().flatten()) {
            if learned {
                let store = store.get_or_insert_with(|| self.shard_counts.lock().unwrap());
                store.insert((compiled.normalized.clone(), si), shard.build_id(), k);
            }
        }
        (n.iter().flatten().map(|&(k, _)| k).sum(), uncounted.len())
    }

    /// What the stores know of `compiled`'s count on each of `shards`:
    /// the count store's, else — where it misses — the length of the
    /// row store's entry, flagged `true` as new to the count store.
    /// Each store is locked once (the count store first), and every
    /// probe is one hit or one miss.
    fn known(
        &self,
        compiled: &CompiledQuery,
        shards: &[(u16, &Shard)],
    ) -> Vec<Option<(usize, bool)>> {
        let c = &self.counters;
        let mut key: cache::Key = (compiled.normalized.clone(), 0);
        let mut counts = self.shard_counts.lock().unwrap();
        let mut row_store = None;
        let read = |&(si, shard): &(u16, &Shard)| {
            key.1 = si;
            if let Some(n) = counts.get(&key, shard.build_id()) {
                c.count_hits.bump();
                return Some((n, false));
            }
            c.count_misses.bump();
            let store = row_store.get_or_insert_with(|| self.shard_rows.lock().unwrap());
            let found = store
                .get(&key, shard.build_id())
                .map(|rows| (rows.len(), true));
            c.result_hits.add(u64::from(found.is_some()));
            c.result_misses.add(u64::from(found.is_none()));
            found
        };
        shards.iter().map(read).collect()
    }

    /// `shards` less those [`Shard::may_match`] rules out for
    /// `compiled` — a required symbol or tag pair absent (counted in
    /// `shards_pruned`) — each beside its id.
    fn unpruned<'s>(
        &self,
        compiled: &CompiledQuery,
        shards: impl IntoIterator<Item = (u16, &'s Shard)>,
    ) -> Vec<(u16, &'s Shard)> {
        let may_match = |(_, s): &(u16, &Shard)| s.may_match(&compiled.required);
        let (live, pruned): (Vec<_>, Vec<_>) = shards.into_iter().partition(may_match);
        self.counters.shards_pruned.add(pruned.len() as u64);
        live
    }

    /// Resume (or begin) a budgeted count sweep: whole trees counted
    /// from position `at` (from the start when `None`) until at least
    /// `budget` matches are counted, plus the position to continue
    /// from — `None` once the count is complete. Summing the chunks of
    /// successive calls equals [`Service::count`] over unchanged
    /// content; no match is counted twice. This is the counting
    /// analogue of [`Service::eval_page`]'s resumable enumeration: the
    /// budget bounds *work*, not the returned number (one tree may
    /// overshoot it, and shards whose shape the aggregate tables cover
    /// are counted whole in O(1)), so a very large count can be spread
    /// across many small, interruptible requests.
    ///
    /// A position names a shard and a tree in it, not an execution
    /// state. An append only adds trees after the last one, so a sweep
    /// continued across it counts the grown corpus; after a
    /// [`Service::swap_corpus`] it continues at the same shard and tree
    /// of the new content.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Syntax`] when the query does not parse.
    pub fn count_resume(
        &self,
        query: &str,
        at: Option<SweepPos>,
        budget: usize,
    ) -> Result<(u64, Option<SweepPos>), ServiceError> {
        self.counters.count_resumes.bump();
        self.solo(Class::Count, query, (0, None), |req, compiled| {
            Ok(self.count_advance(req, compiled, at.unwrap_or_default(), budget))
        })
    }

    /// GROUP BY-style aggregation of `query`'s match set: the total
    /// count, the matches per tree (global tree id, non-zero entries
    /// only, tid-ascending) and the matches per node label
    /// (label-ascending). Invariants, property-tested in
    /// `prop_histogram`: the per-tree counts and the per-label counts
    /// each sum to `total`, which equals [`Service::count`].
    ///
    /// Single-axis shapes the aggregate tables tabulate per tree
    /// (`//_`, `//TAG`, `/_`, `/TAG`) are answered in O(index) without
    /// visiting a single node ([`ServiceStats::count_fast`] advances
    /// per shard); everything else aggregates an evaluation built from
    /// the row store.
    pub fn hist(&self, query: &str) -> Result<QueryHistogram, ServiceError> {
        self.counters.hists.bump();
        let empty = QueryHistogram::default();
        self.solo(Class::Hist, query, empty, |req, compiled| {
            if let Some(h) = self.hist_fast(compiled, &req.shards) {
                return Ok(h);
            }
            let rows = self
                .resolve(req, vec![Ok(Arc::clone(compiled))])
                .pop()
                .expect("one member")?;
            let shards = &req.shards;
            let mut h = QueryHistogram {
                total: rows.len() as u64,
                per_tree: Vec::new(),
                per_label: Vec::new(),
            };
            // Rows are in document order: per-tree runs accumulate
            // directly; labels resolve against the shard owning each tree.
            let mut labels: HashMap<String, u64> = HashMap::new();
            let mut owner = 0usize;
            for &(tid, node) in rows.iter() {
                match h.per_tree.last_mut() {
                    Some(e) if e.0 == tid => e.1 += 1,
                    _ => h.per_tree.push((tid, 1)),
                }
                while owner + 1 < shards.len() && shards[owner + 1].base() <= tid {
                    owner += 1;
                }
                let shard = &shards[owner];
                let tree = shard.corpus().tree((tid - shard.base()) as usize);
                let name = shard.corpus().resolve(tree.node(node).name);
                *labels.entry(name.to_string()).or_default() += 1;
            }
            h.per_label = labels.into_iter().collect();
            h.per_label.sort();
            Ok(h)
        })
    }

    /// Aggregate-table histogram: the classes whose *per-tree*
    /// distribution the tables carry. Returns `None` for everything else (including tabulated
    /// count-only classes like `//A/B`, whose per-tree spread is not
    /// stored).
    fn hist_fast(&self, compiled: &CompiledQuery, shards: &[Arc<Shard>]) -> Option<QueryHistogram> {
        let fast = compiled.fast.as_ref()?;
        let roots = match fast {
            FastClass::AllNodes | FastClass::Tag(_) => false,
            FastClass::RootAny | FastClass::RootTag(_) => true,
            _ => return None,
        };
        let mut h = QueryHistogram::default();
        let mut labels: HashMap<String, u64> = HashMap::new();
        for shard in shards {
            self.counters.count_fast.bump();
            let agg = shard.agg();
            let interner = shard.corpus().interner();
            let tag = match fast {
                FastClass::Tag(t) | FastClass::RootTag(t) => match interner.get(t) {
                    Some(sym) => Some(sym),
                    None => continue,
                },
                _ => None,
            };
            // `(local tid, matches)` runs, and `(label, matches)` totals.
            let (runs, tags): (Vec<_>, Vec<_>) = if roots {
                let roots = (0u32..).zip(agg.roots().iter().copied());
                let hits = roots.filter(|&(_, root)| tag.is_none_or(|t| t == root));
                hits.map(|(ltid, root)| ((ltid, 1u64), (root, 1u64)))
                    .unzip()
            } else if let Some(sym) = tag {
                let runs = agg.tag_runs(sym).iter();
                let runs = runs.map(|&(ltid, n)| (ltid, u64::from(n))).collect();
                (runs, vec![(sym, agg.tag_count(sym))])
            } else {
                let sizes = agg.nodes_per_tree().iter().map(|&n| u64::from(n));
                ((0u32..).zip(sizes).collect(), agg.tag_counts().collect())
            };
            h.total += runs.iter().map(|r| r.1).sum::<u64>();
            h.per_tree
                .extend(runs.into_iter().map(|(ltid, n)| (shard.base() + ltid, n)));
            for (sym, n) in tags.into_iter().filter(|t| t.1 > 0) {
                *labels.entry(interner.resolve(sym).to_string()).or_default() += n;
            }
        }
        h.per_label = labels.into_iter().collect();
        h.per_label.sort();
        Some(h)
    }

    /// Does `query` match anywhere in the corpus? Shards are visited in
    /// document order, one at a time, and the scan stops at the first
    /// witness: the aggregate tables answer a tabulated query; else a
    /// cached count or cached rows answer for a shard, else its
    /// evaluation stops at the first match. On selective queries over
    /// large corpora this is orders of magnitude cheaper than any
    /// enumeration.
    ///
    /// Latency class `exists`: a hit when cached counts or rows
    /// answered every shard visited, as for [`Service::count`].
    pub fn exists(&self, query: &str) -> Result<bool, ServiceError> {
        self.solo(Class::Exists, query, false, |req, compiled| {
            let mut computed = 0;
            let witness = |&(si, shard): &(u16, &Shard)| match &compiled.fast {
                Some(fast) => {
                    computed += 1;
                    shard.tabulated(fast) > 0
                }
                None => self.known(compiled, &[(si, shard)])[0].map_or_else(
                    || {
                        computed += 1;
                        self.counters.shard_evals.bump();
                        shard.exists(compiled)
                    },
                    |(n, _)| n > 0,
                ),
            };
            let shards = self.unpruned(compiled, ids(&req.shards));
            let found = shards.iter().any(witness);
            req.hit &= computed == 0;
            req.fanout += computed;
            Ok(found)
        })
    }

    /// The `[offset, offset + limit)` slice of [`Service::eval`]'s
    /// document-ordered result, with the page bounds pushed **into**
    /// the shards: shards are visited in document order (their
    /// concatenation *is* the full result), the fan-out is
    /// short-circuited as soon as the page is covered, and each shard
    /// visited pages through [`Shard::page`] — per-shard work is
    /// bounded by what the page still needs, not by the shard's full
    /// result size.
    ///
    /// An offset page is a positioned sweep from the corpus start for
    /// `offset + limit` rows, less the first `offset`; it reads and
    /// writes neither store. Deep paging is what
    /// [`Service::eval_page_token`] is for: a token's page starts at
    /// the position the previous page ended, so no tree before it is
    /// evaluated again. (The walk itself is described once, in
    /// [`sweep`].)
    pub fn eval_page(
        &self,
        query: &str,
        offset: usize,
        limit: usize,
    ) -> Result<ResultSet, ServiceError> {
        self.counters.pages.bump();
        self.solo(Class::EvalPage, query, Vec::new(), |req, compiled| {
            if limit == 0 {
                return Ok(Vec::new());
            }
            Ok(self.page_by_offset(req, compiled, offset, limit).0)
        })
    }

    // -----------------------------------------------------------------
    // Corpus mutation
    // -----------------------------------------------------------------

    /// Append bracketed (Penn Treebank) trees to the corpus,
    /// rebuilding only the tail shard. Returns the number of trees
    /// added; on parse error the corpus is unchanged.
    ///
    /// The parse and the rebuild run on a copy of the tail's slice
    /// outside the state lock, which covers only the swap: readers are
    /// served meanwhile, and a panic in the build fails this append.
    pub fn append_ptb(&self, src: &str) -> Result<usize, ServiceError> {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let (tail, generation) = {
            let st = self.state.read().unwrap();
            (Arc::clone(st.tail()), st.generation + 1)
        };
        // New symbols extend the current vocabulary; a parse error
        // drops the copy and leaves the service intact.
        let mut corpus = tail.corpus().clone();
        let added = parse_into(src, &mut corpus)?;
        if added == 0 {
            return Ok(0);
        }
        let shard = Arc::new(Shard::from_slice(corpus, tail.base(), generation));
        let mut st = self.state.write().unwrap();
        *st.shards.last_mut().expect("at least one shard") = shard;
        st.generation = generation;
        drop(st);
        // Plans depend on the query text alone and the stores are
        // build-id scoped: head shards keep serving, and a stale tail
        // entry misses until the rebuilt tail's answer replaces it.
        self.counters.appends.bump();
        Ok(added)
    }

    /// Replace the whole corpus, rebuilding every shard (in parallel
    /// when worker threads allow) outside the state lock, then swapping
    /// them in and clearing both stores (the plans stay: they depend on
    /// the query text alone).
    pub fn swap_corpus(&self, corpus: &Corpus) {
        let _writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let generation = self.state.read().unwrap().generation + 1;
        let shards = build_shards(corpus, self.cfg.shards, self.threads, generation);
        let mut st = self.state.write().unwrap();
        st.shards = shards;
        st.generation = generation;
        drop(st);
        self.counters.swaps.bump();
        self.shard_counts.lock().unwrap().clear();
        self.shard_rows.lock().unwrap().clear();
    }

    // -----------------------------------------------------------------
    // Introspection
    // -----------------------------------------------------------------

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.state.read().unwrap().shards.len()
    }

    /// Current corpus generation (bumped by append/swap).
    pub fn generation(&self) -> u64 {
        self.state.read().unwrap().generation
    }

    /// Total trees across all shards.
    pub fn trees(&self) -> usize {
        let st = self.state.read().unwrap();
        st.shards.iter().map(|s| s.trees()).sum()
    }

    /// A point-in-time statistics snapshot: cache hit rates, per-shard
    /// build timings and sizes, fan-out counters.
    pub fn stats(&self) -> ServiceStats {
        let st = self.state.read().unwrap();
        let per_shard: Vec<ShardStats> = st.shards.iter().map(|s| s.stats()).collect();
        let c = &self.counters;
        let load = |a: &lpath_obs::Counter| a.get();
        ServiceStats {
            generation: st.generation,
            shards: st.shards.len(),
            threads: self.threads,
            trees: per_shard.iter().map(|s| s.trees).sum(),
            relation_rows: per_shard.iter().map(|s| s.relation_rows).sum(),
            plan_cache_entries: self.plans.lock().unwrap().len(),
            plan_hits: load(&c.plan_hits),
            plan_misses: load(&c.plan_misses),
            shard_result_cache_entries: self.shard_rows.lock().unwrap().len(),
            result_hits: load(&c.result_hits),
            result_misses: load(&c.result_misses),
            count_hits: load(&c.count_hits),
            count_misses: load(&c.count_misses),
            count_fast: load(&c.count_fast),
            count_resumes: load(&c.count_resumes),
            hists: load(&c.hists),
            batch_dedup: load(&c.batch_dedup),
            admission_rejects: 0,
            queries: load(&c.queries),
            batches: load(&c.batches),
            pages: load(&c.pages),
            page_partial_evals: load(&c.page_partial_evals),
            page_prefix_hits: 0,
            page_resumes: load(&c.page_resumes),
            shard_evals: load(&c.shard_evals),
            shards_pruned: load(&c.shards_pruned),
            statically_empty: load(&c.statically_empty),
            stale_checkpoints: load(&c.stale_checkpoints),
            tokens_minted: load(&c.tokens_minted),
            tokens_rejected: load(&c.tokens_rejected),
            appends: load(&c.appends),
            swaps: load(&c.swaps),
            per_shard,
        }
    }

    /// A JSON-renderable latency snapshot: per-query-class hit/miss
    /// histograms (p50/p90/p99/max, nanoseconds) plus the retained
    /// slow-query log — the distribution-level companion to the
    /// counter-level [`Service::stats`]. With
    /// [`ServiceConfig::metrics`] off the shape is identical but every
    /// histogram is empty and the log stays silent.
    pub fn metrics(&self) -> Metrics {
        Metrics {
            generation: self.state.read().unwrap().generation,
            queries: self.counters.queries.get(),
            enabled: self.instr.enabled(),
            classes: self.instr.class_metrics(),
            count_fast: self.counters.count_fast.get(),
            count_resumes: self.counters.count_resumes.get(),
            hists: self.counters.hists.get(),
            slow_queries: self.instr.slow_snapshot(),
        }
    }
}

/// Contiguous near-equal partition of `n` trees into `k` shards.
fn partition(n: usize, k: usize) -> Vec<(usize, usize)> {
    let k = k.max(1);
    let base = n / k;
    let rem = n % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        out.push((start, len));
        start += len;
    }
    out
}

/// Build all shards over slices of `corpus`, in parallel when
/// `threads > 1`, stamped with the corpus `generation` they belong to
/// (see [`Shard::build_id`]).
fn build_shards(corpus: &Corpus, k: usize, threads: usize, generation: u64) -> Vec<Arc<Shard>> {
    let parts = partition(corpus.trees().len(), k);
    fan_out(threads, parts.len(), |i| {
        let (start, len) = parts[i];
        Arc::new(Shard::build(corpus, start, len, generation))
    })
}

/// `shards` beside their ids.
fn ids(shards: &[Arc<Shard>]) -> impl Iterator<Item = (u16, &Shard)> {
    (0u16..).zip(shards.iter().map(Arc::as_ref))
}

/// Run `ntasks` independent tasks across up to `threads` scoped worker
/// threads (inline when one suffices), returning results in task
/// order. The single fan-out primitive behind shard builds and the
/// shard work of every request path.
fn fan_out<T, F>(threads: usize, ntasks: usize, task: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.min(ntasks);
    if threads <= 1 {
        return (0..ntasks).map(task).collect();
    }
    let mut out: Vec<Option<T>> = (0..ntasks).map(|_| None).collect();
    let slots = Mutex::new(&mut out);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ntasks {
                    break;
                }
                let value = task(i);
                slots.lock().unwrap()[i] = Some(value);
            });
        }
    });
    out.into_iter()
        .map(|v| v.expect("task completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpath_core::{Engine, Walker};
    use lpath_model::ptb::parse_str;

    const SRC: &str = "\
( (S (NP-SBJ (PRP I)) (VP (VBD saw) (NP (DT the) (NN man))) (. .)) )
( (S (NP-SBJ (DT the) (NN man)) (VP (VBD left))) )
( (S (NP-SBJ (PRP we)) (VP (VBD ran) (NP (NN home)))) )
( (S (NP (NN dog)) (VP (VB barks))) )
( (S (NP (DT a) (NN cat)) (VP (VBD slept) (NP (NN nap)))) )
";

    /// The walker over a corpus the test holds: an oracle independent
    /// of the service's partition and append code.
    fn walk(corpus: &Corpus, query: &str) -> ResultSet {
        Walker::new(corpus).eval(&parse(query).unwrap())
    }

    fn service(shards: usize) -> Service {
        let corpus = parse_str(SRC).unwrap();
        Service::with_config(
            &corpus,
            ServiceConfig {
                shards,
                threads: 1,
                result_cache_capacity: 64,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn count_positions_outlive_an_append() {
        // A position names a shard and a tree in it; an append only
        // adds trees after the tail's last one, so a budgeted count
        // continued across it sums to the grown corpus's count.
        let svc = service(2);
        let (mut total, mut at) = svc.count_resume("//S//NN", None, 1).unwrap();
        assert!(at.is_some(), "more to count");
        svc.append_ptb("( (S (NP (NN fog)) (VP (VBD rose))) )")
            .unwrap();
        while let Some(p) = at {
            let (n, next) = svc.count_resume("//S//NN", Some(p), 1).unwrap();
            total += n;
            at = next;
        }
        assert_eq!(total, svc.count("//S//NN").unwrap() as u64);
    }

    #[test]
    fn partition_covers_everything_contiguously() {
        for n in [0usize, 1, 5, 7, 64] {
            for k in [1usize, 2, 4, 8] {
                let parts = partition(n, k);
                assert_eq!(parts.len(), k);
                let mut pos = 0;
                for (start, len) in parts {
                    assert_eq!(start, pos);
                    pos += len;
                }
                assert_eq!(pos, n);
            }
        }
    }

    #[test]
    fn sharded_matches_single_engine() {
        let corpus = parse_str(SRC).unwrap();
        let engine = Engine::build(&corpus);
        for shards in [1, 2, 3, 8] {
            let svc = service(shards);
            for q in [
                "//NP",
                "//VBD->NP",
                "//S{/VP$}",
                "//_[@lex=the]",
                "//NP[not(//DT)]",
            ] {
                assert_eq!(
                    *svc.eval(q).unwrap(),
                    engine.query(q).unwrap(),
                    "{q} at {shards} shards"
                );
            }
        }
    }

    #[test]
    fn walker_fallback_answers_unsupported_queries() {
        let svc = service(2);
        // position()/last() has no relational translation.
        let q = "//VP/_[last()][self::NP]";
        assert_eq!(svc.sql(q).unwrap(), None);
        let got = svc.eval(q).unwrap();
        assert_eq!(*got, walk(&parse_str(SRC).unwrap(), q));
        assert!(!got.is_empty());
    }

    #[test]
    fn result_cache_hits_and_generation_invalidation() {
        let svc = service(2);
        let a = svc.eval("//NP").unwrap();
        let b = svc.eval("//NP").unwrap();
        assert_eq!(a, b);
        // One probe per shard: two misses, then two hits.
        let s = svc.stats();
        assert_eq!((s.result_misses, s.result_hits), (2, 2));
        // A lone shard's stored rows are served as they are, and so are
        // those of the one shard a query is not pruned from.
        let one = service(1);
        assert!(Arc::ptr_eq(
            &one.eval("//NP").unwrap(),
            &one.eval("//NP").unwrap()
        ));
        let two = service(2);
        let nap = two.eval("//_[@lex=nap]").unwrap();
        assert!(Arc::ptr_eq(&nap, &two.eval("//_[@lex=nap]").unwrap()));
        assert_eq!(two.stats().shards_pruned, 2);
        // Append rebuilds the tail shard, but the untouched head
        // shard's build-scoped result survives: the third eval
        // re-evaluates only the rebuilt tail shard.
        svc.append_ptb("( (S (NP (NN bird)) (VP (VBD flew))) )")
            .unwrap();
        let evals = svc.stats().shard_evals;
        let c = svc.eval("//NP").unwrap();
        assert_eq!(c.len(), a.len() + 1);
        assert_eq!(svc.stats().result_hits, 3, "head shard served from cache");
        assert_eq!(svc.stats().shard_evals, evals + 1, "only the tail re-ran");
    }

    #[test]
    fn plan_cache_normalizes_spellings() {
        let svc = service(2);
        let a = svc.compile("//VBD->NP").unwrap();
        let b = svc.compile("  //VBD->NP  ").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(svc.stats().plan_misses, 1);
        assert!(svc.stats().plan_hits >= 1);
    }

    fn plan_capped(capacity: usize) -> Service {
        let corpus = parse_str(SRC).unwrap();
        Service::with_config(
            &corpus,
            ServiceConfig {
                shards: 1,
                threads: 1,
                plan_cache_capacity: capacity,
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn plan_cache_evicts_the_least_recently_used_plan() {
        let svc = plan_capped(3);
        let compile = |q: &str| {
            let misses = svc.stats().plan_misses;
            svc.compile(q).unwrap();
            let s = svc.stats();
            assert!(s.plan_cache_entries <= 3, "{s:?}");
            s.plan_misses > misses
        };
        assert!(compile("//NP") && compile("//VP") && compile("//DT"));
        assert!(!compile("//NP"), "re-compiling the first is a hit");
        assert!(compile("//NN"), "a fourth query misses");
        // `//VP` was the least recently used: it alone was evicted.
        assert!(!compile("//NP"));
        assert!(compile("//VP"));
        // A raw spelling that differs from its normalized form takes an
        // alias entry beside the normalized one.
        let svc = plan_capped(3);
        svc.compile("// VP").unwrap();
        assert_eq!(svc.stats().plan_cache_entries, 2);
        let s = svc.stats();
        assert!(Arc::ptr_eq(
            &svc.compile("// VP").unwrap(),
            &svc.compile("//VP").unwrap()
        ));
        let t = svc.stats();
        assert_eq!(
            (t.plan_misses, t.plan_hits),
            (s.plan_misses, s.plan_hits + 2)
        );
    }

    #[test]
    fn concurrent_compiles_stay_within_the_plan_cache_capacity() {
        let svc = plan_capped(3);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let svc = &svc;
                scope.spawn(move || {
                    for i in 0..64 {
                        let distinct = format!("//_[@lex=w{t}x{i}]");
                        let q = if i % 2 == 0 { "//NP" } else { &distinct };
                        assert_eq!(svc.compile(q).unwrap().normalized, q);
                    }
                });
            }
        });
        let s = svc.stats();
        assert!(s.plan_cache_entries <= 3, "{s:?}");
        assert_eq!(s.plan_hits + s.plan_misses, 4 * 64);
        assert!(s.plan_misses >= 4 * 32, "every distinct query missed");
    }

    #[test]
    fn append_rebuilds_only_the_tail_shard() {
        let svc = service(2);
        let before = svc.stats();
        assert_eq!(before.per_shard.len(), 2);
        let added = svc
            .append_ptb(
                "( (S (NP (NN bird)) (VP (VBD flew))) )\n( (S (NP (NN fish)) (VP (VBD swam))) )",
            )
            .unwrap();
        assert_eq!(added, 2);
        let after = svc.stats();
        assert_eq!(after.generation, 1);
        assert_eq!(after.trees, 7);
        // Head shard untouched, tail grew.
        assert_eq!(after.per_shard[0].trees, before.per_shard[0].trees);
        assert_eq!(after.per_shard[1].trees, before.per_shard[1].trees + 2);
        // New data is queryable, in document order.
        let got = svc.eval("//_[@lex=fish]").unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 6);
    }

    #[test]
    fn append_error_leaves_corpus_unchanged() {
        let svc = service(2);
        let trees = svc.trees();
        let gen_before = svc.generation();
        assert!(svc.append_ptb("( (S (NP broken").is_err());
        assert_eq!(svc.trees(), trees);
        assert_eq!(svc.generation(), gen_before);
        assert_eq!(
            *svc.eval("//NP").unwrap(),
            *service(2).eval("//NP").unwrap()
        );
    }

    #[test]
    fn swap_replaces_everything() {
        let svc = service(2);
        assert!(svc.count("//VBD").unwrap() > 0);
        let other = parse_str("( (S (X (Y z)) (W w)) )").unwrap();
        svc.swap_corpus(&other);
        assert_eq!(svc.trees(), 1);
        assert_eq!(svc.count("//VBD").unwrap(), 0);
        assert_eq!(svc.count("//Y").unwrap(), 1);
        assert_eq!(svc.generation(), 1);
    }

    #[test]
    fn plans_survive_a_swap_and_answer_the_new_corpus() {
        let svc = service(2);
        let queries = ["//S//Y", "//X/_[last()]", "//S//NP"];
        for q in queries {
            svc.count(q).unwrap();
        }
        let misses = svc.stats().plan_misses;
        let other = parse_str("( (S (X (Y z)) (W w)) )\n( (S (NP (Y y))) )").unwrap();
        svc.swap_corpus(&other);
        for q in queries {
            assert_eq!(*svc.eval(q).unwrap(), walk(&other, q), "{q}");
            assert_eq!(svc.count(q).unwrap(), walk(&other, q).len(), "{q}");
        }
        assert_eq!(svc.stats().plan_misses, misses, "the swap kept every plan");
    }

    #[test]
    fn multi_matches_individual_evals_and_evaluates_each_miss_once() {
        let svc = service(2);
        // Distinct members, one repeat, a shard-pruned member (`saw`
        // occurs in one tree only) and the error path.
        let queries = [
            "//NP",
            "//NP[not(//DT)]",
            "//VBD->NP",
            "//_[@lex=saw]",
            " //NP ",
            "//VP[",
        ];
        let mut seen = std::collections::HashSet::new();
        let distinct: Vec<_> = queries
            .iter()
            .filter_map(|q| svc.compile(q).ok())
            .filter(|c| seen.insert(c.normalized.clone()))
            .collect();
        let shards = svc.state.read().unwrap().shards.clone();
        let misses: usize = distinct
            .iter()
            .map(|c| shards.iter().filter(|s| s.may_match(&c.required)).count())
            .sum();
        assert!(misses < 4 * 2, "one member is pruned somewhere");
        let before = svc.stats();
        let multi = svc.eval_multi(&queries);
        assert_eq!(multi.len(), 6);
        assert!(multi[5].is_err());
        for (i, q) in queries.iter().enumerate().take(5) {
            assert_eq!(
                *multi[i].as_ref().unwrap().clone(),
                *service(2).eval(q).unwrap(),
                "{q}"
            );
        }
        // One shard eval per (distinct member, unpruned shard) miss.
        let after = svc.stats();
        assert_eq!(after.shard_evals - before.shard_evals, misses as u64);
        assert_eq!(after.result_misses - before.result_misses, misses as u64);
        // Served-from-batch results land in the store like solo ones:
        // the re-run evaluates nothing and is all result hits.
        let again = svc.eval_multi(&queries);
        assert!(again[..5].iter().all(Result::is_ok));
        let last = svc.stats();
        assert_eq!(last.shard_evals, after.shard_evals, "{last:?}");
        assert_eq!(last.result_misses, after.result_misses, "{last:?}");
        assert_eq!(last.result_hits - after.result_hits, misses as u64);
    }

    #[test]
    fn multi_of_one_is_exactly_the_solo_path() {
        let svc = service(2);
        let multi = svc.eval_multi(&["//NP"]);
        assert_eq!(
            *multi[0].as_ref().unwrap().clone(),
            *svc.eval("//NP").unwrap()
        );
        let stats = svc.stats();
        // No batch accounting — and the second (solo) eval hit the
        // store the first populated, once per shard.
        assert_eq!(stats.batches, 0, "{stats:?}");
        assert_eq!(stats.result_hits, 2, "{stats:?}");
    }

    #[test]
    fn multi_abort_fault_point_fails_misses_without_cache_writes() {
        let svc = service(2);
        // A member already in the row store is immune: it resolves
        // before the fault point.
        svc.eval("//NP").unwrap();
        svc.inject_multi_abort();
        let multi = svc.eval_multi(&["//NP", "//VP", "//DT"]);
        assert!(multi[0].is_ok(), "cached member survives the abort");
        assert!(matches!(multi[1], Err(ServiceError::Aborted)));
        assert!(matches!(multi[2], Err(ServiceError::Aborted)));
        let entries = svc.stats().shard_result_cache_entries;
        assert_eq!(entries, 2, "aborted members wrote nothing");
        // The fault point is one-shot: the retry succeeds.
        let retry = svc.eval_multi(&["//NP", "//VP", "//DT"]);
        assert!(retry.iter().all(Result::is_ok));
        assert_eq!(
            *retry[1].as_ref().unwrap().clone(),
            *service(2).eval("//VP").unwrap()
        );
    }

    #[test]
    fn multi_matches_the_walker_across_strategies() {
        let corpus = parse_str(SRC).unwrap();
        let queries = ["//NP", "//NP[not(//DT)]", "//VP/_[last()]", "//VBD->NP"];
        for shards in [1, 2] {
            let svc = service(shards);
            assert_eq!(svc.sql(queries[2]).unwrap(), None);
            assert!(svc.sql(queries[3]).unwrap().is_some());
            let multi = svc.eval_multi(&queries);
            for (q, got) in queries.iter().zip(&multi) {
                assert_eq!(**got.as_ref().unwrap(), walk(&corpus, q), "{q} at {shards}");
            }
        }
    }

    #[test]
    fn multi_dedups_spellings_onto_one_evaluation() {
        let svc = service(1);
        let multi = svc.eval_multi(&["//VBD->NP", "  //VBD->NP ", "//VBD->NP", "//NN"]);
        let first = multi[0].as_ref().unwrap();
        for r in &multi[1..3] {
            assert!(Arc::ptr_eq(first, r.as_ref().unwrap()));
        }
        assert_eq!(**first, walk(&parse_str(SRC).unwrap(), "//VBD->NP"));
        let stats = svc.stats();
        assert_eq!(stats.batch_dedup, 2, "{stats:?}");
        // Two distinct members on one shard: two evaluations.
        assert_eq!(
            (stats.shard_evals, stats.result_misses),
            (2, 2),
            "{stats:?}"
        );
        assert_eq!(stats.batches, 1, "{stats:?}");
    }

    #[test]
    fn multi_failing_members_cost_no_shard_work() {
        let svc = service(2);
        let multi = svc.eval_multi(&["//VP[", "//VP[", "//NP"]);
        assert!(multi[0].is_err() && multi[1].is_err());
        assert_eq!(
            *multi[2].as_ref().unwrap().clone(),
            walk(&parse_str(SRC).unwrap(), "//NP")
        );
        let stats = svc.stats();
        // Only `//NP` reached the shards; errors are never deduplicated.
        assert_eq!(
            (stats.shard_evals, stats.result_misses),
            (2, 2),
            "{stats:?}"
        );
        assert_eq!(stats.batch_dedup, 0, "{stats:?}");
    }

    #[test]
    fn multi_after_append_re_evaluates_only_the_tail_shard() {
        let svc = service(2);
        let queries = ["//NP", "//VP"];
        svc.eval_multi(&queries);
        assert_eq!(svc.stats().shard_evals, 4);
        let bird = "( (S (NP (NN bird)) (VP (VBD flew))) )";
        svc.append_ptb(bird).unwrap();
        let before = svc.stats();
        let multi = svc.eval_multi(&queries);
        let after = svc.stats();
        // The head shard's rows are still current; the tail's are not.
        assert_eq!(after.shard_evals - before.shard_evals, 2, "{after:?}");
        assert_eq!(after.result_hits - before.result_hits, 2, "{after:?}");
        let grown = parse_str(&format!("{SRC}{bird}\n")).unwrap();
        for (q, got) in queries.iter().zip(&multi) {
            assert_eq!(**got.as_ref().unwrap(), walk(&grown, q), "{q}");
        }
    }

    #[test]
    fn multi_on_several_workers_matches_one_worker() {
        let corpus = parse_str(SRC).unwrap();
        let wide = Service::with_config(
            &corpus,
            ServiceConfig {
                shards: 4,
                threads: 3,
                ..ServiceConfig::default()
            },
        );
        let narrow = service(4);
        let queries = [
            "//NP",
            "//_[@lex=nap]",
            "//S{/VP$}",
            "//VP/_[last()]",
            "//NP",
        ];
        let (a, b) = (wide.eval_multi(&queries), narrow.eval_multi(&queries));
        for ((q, x), y) in queries.iter().zip(&a).zip(&b) {
            assert_eq!(**x.as_ref().unwrap(), **y.as_ref().unwrap(), "{q}");
        }
        let (s, t) = (wide.stats(), narrow.stats());
        assert_eq!(s.shard_evals, t.shard_evals, "{s:?} vs {t:?}");
        assert_eq!(s.shards_pruned, t.shards_pruned, "{s:?} vs {t:?}");
    }

    #[test]
    fn pruning_skips_shards_without_the_symbols() {
        let svc = service(4);
        svc.eval("//_[@lex=nap]").unwrap();
        let stats = svc.stats();
        // "nap" occurs only in the last tree: at least one shard must
        // have been pruned outright.
        assert!(stats.shards_pruned > 0, "{stats:?}");
        assert!(stats.shard_evals < 4);
    }

    #[test]
    fn pruning_skips_shards_without_the_tag_pair() {
        // S, VP and PRP all occur, but no PRP sits under a VP: the
        // (VP, PRP) descendant pair is absent from every shard.
        let (q, sibling) = ("//S/VP//PRP", "//VP/PRP");
        let want = walk(&parse_str(SRC).unwrap(), q);
        assert_eq!(want, []);
        let svc = service(2);
        let compiled = svc.compile(q).unwrap();
        assert!(!compiled.statically_empty && compiled.fast.is_none());
        let shards = svc.state.read().unwrap().shards.clone();
        let symbols_only = Requirements {
            edges: Vec::new(),
            ..compiled.required.clone()
        };
        assert!(shards.iter().any(|s| s.may_match(&symbols_only)));
        assert!(!shards.iter().any(|s| s.may_match(&compiled.required)));
        let before = svc.stats();
        assert_eq!(*svc.eval(q).unwrap(), want);
        assert_eq!(svc.eval_page(q, 0, 5).unwrap(), want);
        assert_eq!(svc.count(q).unwrap(), 0);
        assert!(!svc.exists(q).unwrap());
        for r in svc.eval_multi(&[q, sibling]) {
            assert_eq!(*r.unwrap(), want);
        }
        let after = svc.stats();
        assert_eq!(after.shard_evals, before.shard_evals, "{after:?}");
        assert!(after.shards_pruned > before.shards_pruned);
    }

    #[test]
    fn count_uses_the_count_cache_not_the_result_cache() {
        let svc = service(2);
        // Outside the aggregate tables: counted per shard by cursor.
        assert_eq!(svc.count("//VP//NP").unwrap(), 3);
        assert_eq!(svc.count("//VP//NP").unwrap(), 3);
        let stats = svc.stats();
        assert_eq!(stats.count_misses, 2);
        assert_eq!(stats.count_hits, 2);
        // Counting never wrote the row store.
        assert_eq!(stats.shard_result_cache_entries, 0);
        assert_eq!(stats.result_hits, 0);
        // A full eval feeds later counts too: after an append the
        // head shard's count survives and the rebuilt tail's is the
        // length of the rows eval() stored.
        svc.append_ptb("( (S (NP (NN bird)) (VP (VBD flew) (NP (NN home)))) )")
            .unwrap();
        svc.eval("//VP//NP").unwrap();
        let evals = svc.stats().shard_evals;
        assert_eq!(svc.count("//VP//NP").unwrap(), 4);
        let stats = svc.stats();
        assert_eq!((stats.count_hits, stats.count_misses), (3, 3));
        assert_eq!(stats.shard_evals, evals);
    }

    #[test]
    fn exists_agrees_with_eval_and_prunes() {
        let svc = service(4);
        for q in ["//NP", "//VBD->NP", "//_[@lex=nap]", "//ZZZ", "//VP["] {
            let want = svc.eval(q).map(|r| !r.is_empty());
            let got = svc.exists(q);
            match (got, want) {
                (Ok(g), Ok(w)) => assert_eq!(g, w, "{q}"),
                (Err(_), Err(_)) => {}
                (g, w) => panic!("{q}: {g:?} vs {w:?}"),
            }
        }
        // Walker-fallback queries too.
        assert!(svc.exists("//VP/_[last()]").unwrap());
    }

    #[test]
    fn exists_serves_from_the_caches() {
        let svc = service(2);
        assert_eq!(svc.count("//VP//NP").unwrap(), 3);
        let evals = svc.stats().shard_evals;
        assert!(svc.exists("//VP//NP").unwrap());
        // Answered off the first shard's cached count: no new shard
        // work, and the second shard is not probed.
        assert_eq!(svc.stats().shard_evals, evals);
        assert_eq!(svc.stats().count_hits, 1);
        // A cached full result set answers too.
        svc.eval("//VBD->NP").unwrap();
        let evals = svc.stats().shard_evals;
        assert!(svc.exists("//VBD->NP").unwrap());
        assert_eq!(svc.stats().shard_evals, evals);
        // A tabulated query is answered by the aggregate tables alone:
        // no shard work and no store probes.
        assert!(svc.compile("//NP").unwrap().fast.is_some());
        assert_eq!(svc.count("//NP").unwrap(), 5);
        let s = svc.stats();
        assert!(svc.exists("//NP").unwrap());
        let t = svc.stats();
        assert_eq!(t.shard_evals, s.shard_evals);
        assert_eq!(
            (t.count_hits, t.count_misses),
            (s.count_hits, s.count_misses)
        );
        assert_eq!(
            (t.result_hits, t.result_misses),
            (s.result_hits, s.result_misses)
        );
    }

    #[test]
    fn statically_empty_queries_skip_execution_and_caches() {
        let svc = service(3);
        // Unknown tag, unknown lexeme, structural contradiction — the
        // last is a walker-strategy query, skipped all the same.
        for q in [
            "//ZZZ",
            "//_[@lex=zzzz]",
            "//NP[position()=0]",
            "//_[@lex=saw and @lex=man]",
        ] {
            assert!(svc.check(q).unwrap().statically_empty, "{q}");
            assert!(svc.eval(q).unwrap().is_empty(), "{q}");
            assert_eq!(svc.count(q).unwrap(), 0, "{q}");
            assert!(!svc.exists(q).unwrap(), "{q}");
            assert!(svc.eval_page(q, 0, 5).unwrap().is_empty(), "{q}");
            let batch = svc.eval_multi(&[q, q]);
            assert!(batch.iter().all(|r| r.as_ref().unwrap().is_empty()));
        }
        let stats = svc.stats();
        // The acceptance bar: zero shard evaluations, zero cache
        // insertions — the verdict answered everything.
        assert_eq!(stats.shard_evals, 0, "{stats:?}");
        assert_eq!(stats.shard_result_cache_entries, 0, "{stats:?}");
        assert_eq!(stats.result_misses, 0, "{stats:?}");
        // 6 requests per structurally empty query (batch members count
        // individually); the two the vocabulary rules out are pruned
        // on every shard instead.
        assert_eq!(stats.statically_empty, 2 * 6, "{stats:?}");
        // The verdicts agree with the walker reference on every query.
        let corpus = parse_str(SRC).unwrap();
        for q in ["//ZZZ", "//NP[position()=0]"] {
            assert!(walk(&corpus, q).is_empty(), "{q}");
        }
    }

    #[test]
    fn sql_renders_a_tag_first_seen_in_an_append() {
        // The translation reads the tail shard's vocabulary, which the
        // append extended; the head shard's never learns `NEWTAG`.
        let svc = service(2);
        assert!(svc
            .sql("//NEWTAG")
            .unwrap()
            .unwrap()
            .contains("n0.left < 0"));
        svc.append_ptb("( (S (NEWTAG (NN bird)) (VP (VBD flew))) )")
            .unwrap();
        let sql = svc.sql("//NEWTAG").unwrap().unwrap();
        assert_eq!(svc.count("//NEWTAG").unwrap(), 1);
        let mut grown = parse_str(SRC).unwrap();
        parse_into("( (S (NEWTAG (NN bird)) (VP (VBD flew))) )", &mut grown).unwrap();
        let fresh = Service::with_config(
            &grown,
            ServiceConfig {
                shards: 2,
                threads: 1,
                ..ServiceConfig::default()
            },
        );
        assert_eq!(Some(sql.clone()), fresh.sql("//NEWTAG").unwrap());
        assert!(sql.contains("n0.name = 'NEWTAG'"), "{sql}");
    }

    #[test]
    fn a_plan_compiled_before_an_append_still_answers_after_it() {
        let svc = service(2);
        assert_eq!(svc.count("//S//NEWTAG").unwrap(), 0);
        let misses = svc.stats().plan_misses;
        svc.append_ptb("( (S (NEWTAG (NN bird)) (VP (VBD flew))) )")
            .unwrap();
        // The plan survives the append and counts the new tag.
        assert_eq!(svc.count("//S//NEWTAG").unwrap(), 1);
        assert_eq!(svc.stats().plan_misses, misses);
        let mut grown = parse_str(SRC).unwrap();
        parse_into("( (S (NEWTAG (NN bird)) (VP (VBD flew))) )", &mut grown).unwrap();
        assert_eq!(
            *svc.eval("//S//NEWTAG").unwrap(),
            walk(&grown, "//S//NEWTAG")
        );
    }

    #[test]
    fn check_reports_spanned_diagnostics() {
        let svc = service(2);
        let src = "//NP[@lex=zzzz]";
        let r = svc.check(src).unwrap();
        assert!(r.statically_empty);
        assert!(!r.is_clean());
        let rendered = r.render(src);
        assert!(rendered.contains("unknown-value"), "{rendered}");
        assert!(rendered.contains('^'), "{rendered}");
        assert!(r.to_json().starts_with("{\"statically_empty\":true"));
        // Satisfiable queries come back clean and still execute.
        assert!(svc.check("//NP").unwrap().is_clean());
        assert!(!svc.eval("//NP").unwrap().is_empty());
        // The verdict stays sound across appends: "ZZZ" enters the
        // vocabulary, and the cached plan executes for real on the
        // rebuilt tail shard.
        assert!(svc.eval("//ZZZ").unwrap().is_empty());
        svc.append_ptb("( (S (ZZZ (NN pop))) )").unwrap();
        assert!(!svc.check("//ZZZ").unwrap().statically_empty);
        assert_eq!(svc.eval("//ZZZ").unwrap().len(), 1);
        assert_eq!(svc.count("//ZZZ").unwrap(), 1);
    }

    #[test]
    fn eval_page_is_a_prefix_slice_and_short_circuits() {
        let svc = service(5);
        let full = svc.eval("//NP").unwrap();
        // Evict nothing: use a fresh service so the full set is not
        // cached and paging takes the shard-by-shard path.
        let paged = service(5);
        for (offset, limit) in [(0, 0), (0, 1), (0, 3), (2, 2), (4, 10), (99, 3)] {
            let want: ResultSet = full.iter().skip(offset).take(limit).copied().collect();
            assert_eq!(
                paged.eval_page("//NP", offset, limit).unwrap(),
                want,
                "offset {offset} limit {limit}"
            );
        }
        // A page-1 request over 5 shards stops at the shard that
        // fills it, and evaluates that one under the page bound.
        let fresh = service(5);
        fresh.eval_page("//NP", 0, 1).unwrap();
        let s = fresh.stats();
        assert_eq!((s.page_partial_evals, s.shard_evals), (1, 0), "{s:?}");
    }

    #[test]
    fn page_pushdown_bounds_shard_work() {
        let svc = service(2);
        // Page 1 of "//NP" fills within the first shard: the first
        // shard is evaluated under the page bound, the second never
        // touched.
        let full = service(2).eval("//NP").unwrap();
        let page = svc.eval_page("//NP", 0, 2).unwrap();
        assert_eq!(page, full[..2]);
        let s = svc.stats();
        assert_eq!(s.page_partial_evals, 1);
        assert_eq!(s.shard_evals, 0, "page bound did not reach the shard");
        // A page past the result pages both shards from their starts,
        // still without a full shard evaluation.
        assert_eq!(svc.eval_page("//NP", 0, 99).unwrap(), *full);
        let s = svc.stats();
        assert_eq!((s.page_partial_evals, s.shard_evals), (3, 0), "{s:?}");
    }

    #[test]
    fn offset_pages_and_stale_recoveries_leave_the_row_store_alone() {
        // The row store holds complete per-shard results, which only
        // `eval` (and the batch core behind it) writes: an offset page
        // and a stale token's recovery are positioned sweeps from the
        // corpus start, equal to the matching `eval` slice, and store
        // nothing.
        let svc = service(2);
        let full = service(2).eval("//NP").unwrap();
        for (offset, limit) in [(0, 2), (1, 3), (0, 99)] {
            let want: ResultSet = full.iter().skip(offset).take(limit).copied().collect();
            assert_eq!(svc.eval_page("//NP", offset, limit).unwrap(), want);
        }
        assert_eq!(svc.stats().shard_result_cache_entries, 0);
        let t = svc.eval_page_token("//NP", None, 2).unwrap().token.unwrap();
        let tree = "( (S (NP (NN bird)) (VP (VBD flew))) )";
        svc.append_ptb(tree).unwrap();
        let mut grown = parse_str(SRC).unwrap();
        parse_into(tree, &mut grown).unwrap();
        let recovered = svc.eval_page_token("//NP", Some(&t), 3).unwrap();
        assert_eq!(svc.stats().stale_checkpoints, 1);
        assert_eq!(recovered.rows, walk(&grown, "//NP")[2..5]);
        assert_eq!(svc.stats().shard_result_cache_entries, 0);
        // Entries `eval` stored stay as they are.
        svc.eval("//NP").unwrap();
        let entries = svc.stats().shard_result_cache_entries;
        assert_eq!(entries, 2);
        svc.eval_page("//NP", 1, 2).unwrap();
        assert_eq!(svc.stats().shard_result_cache_entries, entries);
    }

    #[test]
    fn offset_pages_page_the_shards_even_when_eval_stored_them() {
        // Pages read no store: one code path serves every page, a
        // positioned sweep through the shards, whatever `eval` left
        // behind.
        let svc = service(2);
        let full = svc.eval("//NP").unwrap();
        let before = svc.stats();
        assert_eq!(svc.eval_page("//NP", 1, 2).unwrap(), full[1..3]);
        let s = svc.stats();
        assert!(s.page_partial_evals > before.page_partial_evals, "{s:?}");
        assert_eq!(
            (s.result_hits, s.result_misses),
            (before.result_hits, before.result_misses)
        );
    }

    #[test]
    fn row_store_keys_never_collide_with_adversarial_query_text() {
        // A quoted attribute literal can put any bytes — including a
        // NUL — into a normalized query, so store entries must be
        // distinguished structurally, not by string mangling. The
        // second query matches nothing and must not be served the
        // first query's cached rows.
        let svc = service(2);
        assert!(!svc.eval("//NN@lex").unwrap().is_empty());
        assert!(svc.eval("//NN@'lex\u{0}page'").unwrap().is_empty());
    }

    #[test]
    fn append_recounts_only_the_tail_shard() {
        // A descendant chain is outside the aggregate tables'
        // classes, so counting it exercises the per-shard count
        // store (the tabulated classes never touch it — see
        // `fast_counts_bypass_the_count_caches`).
        let svc = service(2);
        assert_eq!(svc.count("//VP//NP").unwrap(), 3);
        let s = svc.stats();
        assert_eq!(s.count_misses, 2);
        assert_eq!(s.count_hits, 0);
        assert_eq!(s.count_fast, 0);
        svc.append_ptb("( (S (NP (NN bird)) (VP (VBD flew) (NP (NN home)))) )")
            .unwrap();
        assert_eq!(svc.count("//VP//NP").unwrap(), 4);
        let s = svc.stats();
        // Head shard served from its build-scoped cache; only the
        // rebuilt tail was recounted.
        assert_eq!(s.count_hits, 1);
        assert_eq!(s.count_misses, 3);
        // A swap rebuilds everything: no stale reuse.
        svc.swap_corpus(&parse_str(SRC).unwrap());
        assert_eq!(svc.count("//VP//NP").unwrap(), 3);
        assert_eq!(svc.stats().count_hits, 1);
        assert_eq!(svc.stats().count_misses, 5);
    }

    #[test]
    fn fast_counts_bypass_the_count_caches() {
        let svc = service(2);
        assert_eq!(svc.count("//NP").unwrap(), 5);
        let s = svc.stats();
        // Both shards answered from their aggregate tables: no
        // count-store traffic, no shard evaluation.
        assert_eq!(s.count_fast, 2);
        assert_eq!(s.count_misses, 0);
        assert_eq!(s.shard_evals, 0);
        // Repeats are answered by the tables again, never a store.
        assert_eq!(svc.count("//NP").unwrap(), 5);
        assert_eq!(svc.stats().count_fast, 4);
        assert_eq!(svc.stats().count_hits, 0);
        // After an append the rebuilt tail's tables answer directly:
        // still no count-store misses anywhere.
        svc.append_ptb("( (S (NP (NN bird)) (VP (VBD flew))) )")
            .unwrap();
        assert_eq!(svc.count("//NP").unwrap(), 6);
        let s = svc.stats();
        assert_eq!(s.count_fast, 6);
        assert_eq!(s.count_misses, 0);
        assert_eq!(s.shard_evals, 0);
    }

    #[test]
    fn concurrent_queries_agree() {
        let corpus = parse_str(SRC).unwrap();
        let svc = Service::with_config(
            &corpus,
            ServiceConfig {
                shards: 2,
                threads: 4,
                result_cache_capacity: 0,
                ..ServiceConfig::default()
            },
        );
        let engine = Engine::build(&corpus);
        let want = engine.query("//NP").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        assert_eq!(*svc.eval("//NP").unwrap(), want);
                    }
                });
            }
        });
    }

    /// A service that logs every request as slow, for metrics tests.
    fn traced_service(shards: usize) -> Service {
        let corpus = parse_str(SRC).unwrap();
        Service::with_config(
            &corpus,
            ServiceConfig {
                shards,
                threads: 1,
                slow_query_threshold: Duration::ZERO,
                ..ServiceConfig::default()
            },
        )
    }

    fn class<'m>(m: &'m Metrics, name: &str) -> &'m ClassMetrics {
        m.classes.iter().find(|c| c.class == name).unwrap()
    }

    #[test]
    fn latencies_attribute_hits_and_misses_per_class() {
        let svc = traced_service(2);
        svc.eval("//NP").unwrap(); // miss
        svc.eval("//NP").unwrap(); // row-store hits
        svc.count("//VP//NP").unwrap(); // miss
        svc.count("//VP//NP").unwrap(); // count-store hits
        svc.eval_multi(&["//DT", "//DT"]); // one miss + one dedup = batch miss
        svc.eval_multi(&["//DT", "//NP"]); // all cached = batch hit
        let m = svc.metrics();
        assert!(m.enabled);
        let eval = class(&m, "eval");
        assert_eq!((eval.misses.count, eval.hits.count), (1, 1));
        let count = class(&m, "count");
        assert_eq!((count.misses.count, count.hits.count), (1, 1));
        let batch = class(&m, "eval_multi");
        assert_eq!((batch.misses.count, batch.hits.count), (1, 1));
        // Histogram totals equal the requests recorded, and every
        // snapshot keeps p50 <= p90 <= p99 <= max.
        for c in &m.classes {
            for h in [&c.hits, &c.misses] {
                assert!(h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max);
            }
        }
        let json = m.to_json();
        assert!(json.contains("\"eval_multi\""));
    }

    #[test]
    fn page_metrics_track_fanout_and_resumes() {
        let svc = traced_service(2);
        // Page 1 enumerates from scratch, page 2 continues from the
        // position its token carried (a resume), and an offset page
        // starts its shards afresh: all three enumerate (misses).
        let first = svc.eval_page_token("//NP", None, 1).unwrap();
        svc.eval_page_token("//NP", first.token.as_deref(), 1)
            .unwrap();
        svc.eval_page("//NP", 0, 1).unwrap();
        let m = svc.metrics();
        let page = class(&m, "eval_page");
        assert_eq!(page.misses.count, 3);
        assert_eq!(page.hits.count, 0);
        // Every request crossed the zero threshold into the slow log,
        // newest last, carrying the fan-out and resume trace.
        let slow: Vec<_> = m
            .slow_queries
            .iter()
            .filter(|q| q.class == "eval_page")
            .collect();
        assert_eq!(slow.len(), 3);
        assert!(slow.iter().all(|q| q.query == "//NP"));
        assert!(slow.iter().all(|q| q.fanout >= 1));
        assert_eq!(slow[1].resumes, 1, "page 2 resumed from its token");
        assert_eq!(slow[2].resumes, 0, "the offset page resumed nothing");
        assert!(slow.iter().all(|q| q.total_ns >= q.compile_ns));
    }

    #[test]
    fn metrics_can_be_disabled() {
        let corpus = parse_str(SRC).unwrap();
        let svc = Service::with_config(
            &corpus,
            ServiceConfig {
                shards: 2,
                threads: 1,
                metrics: false,
                slow_query_threshold: Duration::ZERO,
                ..ServiceConfig::default()
            },
        );
        svc.eval("//NP").unwrap();
        svc.eval_page("//NP", 0, 2).unwrap();
        svc.count("//VP").unwrap();
        let m = svc.metrics();
        assert!(!m.enabled);
        assert!(m
            .classes
            .iter()
            .all(|c| c.hits.count == 0 && c.misses.count == 0));
        assert!(m.slow_queries.is_empty());
        // The counter-level stats stay on regardless.
        assert_eq!(m.queries, 3);
        assert_eq!(svc.stats().queries, 3);
    }

    #[test]
    fn slow_log_ring_keeps_the_newest() {
        let corpus = parse_str(SRC).unwrap();
        let svc = Service::with_config(
            &corpus,
            ServiceConfig {
                shards: 1,
                threads: 1,
                slow_query_threshold: Duration::ZERO,
                slow_query_log_capacity: 2,
                ..ServiceConfig::default()
            },
        );
        for q in ["//NP", "//VP", "//DT", "//NN"] {
            svc.count(q).unwrap();
        }
        let m = svc.metrics();
        let texts: Vec<&str> = m.slow_queries.iter().map(|q| q.query.as_str()).collect();
        assert_eq!(texts, ["//DT", "//NN"]);
    }
}
