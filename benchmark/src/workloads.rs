//! The four workloads: what each sets up, what it sends during a
//! timed window, and how its answers are checked before and after.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lpath_core::{Engine, Walker};
use lpath_model::{generate, ptb, Corpus, GenConfig};
use lpath_relstore::PlannerConfig;
use lpath_server::{serve, ServerConfig, ServerHandle};
use lpath_service::{Service, ServiceConfig, ServiceStats};

use crate::drivers::{
    drive, nanos_since, sleep_until, BrowseDriver, Class, ClientLog, ColdDriver, Driver, Recorded,
    Sample, Tracer,
};
use crate::fixture;
use crate::oracle::{walk, Golden};
use crate::procfs::{self, Usage};
use crate::seeded::Rng;
use crate::stats::{self, OpenLoopSample};
use crate::streams::{self, ColdKind, ColdOp, Vocabulary, MAX_PAGES};
use crate::trace::{Span, TraceBuf, ROOT};
use crate::wire::{Answer, LineClient, Op, PAGE_LIMIT};

/// A workload's name, its reason to exist and how many slices its
/// window is cut into for `latency_p99_us` (ten, or five where
/// operations are too slow to put a thousand in a tenth of the window).
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub slices: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "paper_engine",
        why: "the paper's Fig. 7/8: Q1-Q23 on WSJ and SWB, in-process on one thread, no service, \
              socket or cache; only parser, checker, planner and cursor can move it",
        slices: 5,
    },
    Spec {
        name: "browse_hot",
        why: "interactive steady state over the socket: Zipf sessions paging 8 deep by token, every \
              plan, count and histogram cached; server edge, token handling and cursor resumes do the work",
        slices: 10,
    },
    Spec {
        name: "explore_cold",
        why: "ad-hoc exploration over the socket: every query new, far more than any cache holds, \
              so parse, check, plan, shard fan-out and cursor dominate and caches cannot help",
        slices: 5,
    },
    Spec {
        name: "ingest_mixed",
        why: "a browse_hot reader beside a writer appending 20 sentences every 500 ms: invalidation \
              and tail-shard rebuilds compete with reads; read metrics plus append latency",
        slices: 10,
    },
];

/// Corpus sizes and repetition counts. `FULL` is the only comparable
/// scale; `SMOKE` drives the same code in seconds for tier-1 tests.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub name: &'static str,
    /// WSJ-profile sentences (9 800 = one fifth of the paper's WSJ).
    pub wsj: usize,
    /// SWB-profile sentences, at the paper's WSJ:SWB ratio.
    pub swb: usize,
    /// Set-up is repeated this often; `setup_s` is the median.
    pub setup_reps: usize,
    /// Exploration queries generated per second of window.
    pub cold_ops_per_s: usize,
    /// Traced requests replayed in-process, at most.
    pub replay_sample: usize,
}

/// Seed of the corpora, deliberately not `--seed`. Which trees the
/// corpus holds decides what every fixture query costs, how many pages
/// it has and which operation a pooled percentile lands on; letting
/// that vary per run put a 10 % seed effect (measured on
/// `paper_engine`, whose only input is the corpus) under metrics that
/// are meant to expose a 7 % regression. `--seed` drives everything
/// that is a request: Zipf picks, template expansion, append batches.
pub const CORPUS_SEED: u64 = 0x004C_5061_7468;

impl Scale {
    pub fn wsj_corpus(&self) -> Corpus {
        generate(&GenConfig::wsj(self.wsj).with_seed(CORPUS_SEED))
    }

    pub const FULL: Scale = Scale {
        name: "full",
        wsj: 9_800,
        swb: 22_000,
        setup_reps: 5,
        cold_ops_per_s: 4_000,
        replay_sample: 2_000,
    };
    pub const SMOKE: Scale = Scale {
        name: "smoke",
        wsj: 300,
        swb: 670,
        setup_reps: 2,
        cold_ops_per_s: 20_000,
        replay_sample: 200,
    };
}

/// Connections (and client threads) of the socket workloads.
pub fn clients() -> usize {
    procfs::nproc().min(2)
}

/// Exploration requests sent during each set-up. They are drawn with a
/// fixed seed (so `setup_s` does not depend on `--seed`) and kept out
/// of the timed stream.
const COLD_WARM_OPS: usize = 200;
const COLD_WARM_SEED: u64 = 0x57A2_4D00;
/// The writer's schedule: first append this long after the window
/// opens, then one per period.
const APPEND_FIRST_S: f64 = 0.25;
const APPEND_PERIOD_S: f64 = 0.5;

/// One timed window's raw observations.
#[derive(Default)]
pub struct Window {
    pub seconds: f64,
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub usage: (Usage, Usage),
    /// `Service::stats()` when the window opened and closed.
    pub service: Option<Box<(ServiceStats, ServiceStats)>>,
    /// Appends, timed from when each was due.
    pub appends: Vec<OpenLoopSample>,
    pub spans: Vec<Span>,
}

impl Window {
    fn absorb(&mut self, log: ClientLog) {
        self.samples.extend(log.samples);
        self.attempted += log.attempted;
        self.failed += log.failed;
        self.errors.extend(log.first_error);
    }
}

/// Everything one invocation measured for one workload.
pub struct Run {
    pub spec: &'static Spec,
    pub fingerprint: u64,
    /// Why the run cannot be compared, if so.
    pub unresolved: Option<String>,
    pub generate_s: f64,
    pub verify_s: f64,
    pub setup_s: Vec<f64>,
    pub untraced: Option<Window>,
    pub traced: Option<Window>,
    /// Operations attempted and failed across gate, windows and
    /// post-window checks.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Run {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    fn keep_window(&mut self, w: Window, traced: bool) {
        self.attempted += w.attempted;
        self.failed += w.failed;
        self.errors.extend(w.errors.iter().cloned());
        if traced {
            self.traced = Some(w);
        } else {
            self.untraced = Some(w);
        }
    }
}

/// The windows an invocation measures, in order: `(seconds, traced)`.
fn windows(untraced_s: Option<f64>, traced_s: Option<f64>) -> Vec<(f64, bool)> {
    let untraced = untraced_s.map(|s| (s, false));
    untraced
        .into_iter()
        .chain(traced_s.map(|s| (s, true)))
        .collect()
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn timed_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, nanos_since(t, Instant::now()))
}

/// Run one workload: generate its inputs from `seed`, set up
/// (repeatedly, timing each), pass the correctness gate, then measure
/// an untraced and/or a traced window of the given lengths.
pub fn run(
    spec: &'static Spec,
    seed: u64,
    scale: &Scale,
    untraced_s: Option<f64>,
    traced_s: Option<f64>,
) -> Run {
    fixture::assert_matches_shared_fixture();
    let mut run = Run {
        spec,
        fingerprint: 0,
        unresolved: None,
        generate_s: 0.0,
        verify_s: 0.0,
        setup_s: Vec::new(),
        untraced: None,
        traced: None,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    match spec.name {
        "paper_engine" => paper_engine(&mut run, seed, scale, untraced_s, traced_s),
        "browse_hot" => browse(&mut run, seed, scale, untraced_s, traced_s, false),
        "explore_cold" => explore_cold(&mut run, seed, scale, untraced_s, traced_s),
        "ingest_mixed" => browse(&mut run, seed, scale, untraced_s, traced_s, true),
        other => unreachable!("no workload named {other}"),
    }
    run
}

// ---------------------------------------------------------------------
// paper_engine
// ---------------------------------------------------------------------

/// An engine with the walker's answers over the same corpus.
type Checked = (Engine, Golden);

fn engine_rows_eq(got: &[(u32, lpath_model::NodeId)], golden: &[(u32, u32)]) -> bool {
    got.len() == golden.len()
        && got
            .iter()
            .zip(golden)
            .all(|(&(t, n), &(gt, gn))| t == gt && n.0 == gn)
}

fn paper_engine(
    run: &mut Run,
    seed: u64,
    scale: &Scale,
    untraced_s: Option<f64>,
    traced_s: Option<f64>,
) {
    run.fingerprint = streams::paper_fingerprint();
    let (corpora, generate_s) = timed(|| {
        [
            scale.wsj_corpus(),
            generate(&GenConfig::swb(scale.swb).with_seed(CORPUS_SEED)),
        ]
    });
    run.generate_s = generate_s;
    let (goldens, verify_s) = timed(|| corpora.each_ref().map(Golden::of));
    run.verify_s = verify_s;

    // Set-up: build both engines, then one full and one first-page
    // pass so lazily built state is in place.
    let mut engines: Vec<Engine> = Vec::new();
    for _ in 0..scale.setup_reps {
        // Free the previous build first: the run reports peak memory.
        engines.clear();
        let ((), secs) = timed(|| {
            engines.extend(corpora.iter().map(Engine::build));
            for e in &engines {
                for q in fixture::QUERIES {
                    std::hint::black_box(e.query(q).expect("fixture query runs"));
                    std::hint::black_box(e.query_limit(q, 0, PAGE_LIMIT).expect("fixture query"));
                }
            }
        });
        run.setup_s.push(secs);
    }
    let engines: Vec<Checked> = engines.into_iter().zip(goldens).collect();

    // Gate: every fixture query's full result equals the walker's.
    let ((), gate_s) = timed(|| {
        for (which, (engine, golden)) in engines.iter().enumerate() {
            for (q, text) in fixture::QUERIES.iter().enumerate() {
                let got = engine.query(text).expect("fixture query runs");
                let ok = engine_rows_eq(&got, &golden.rows[q])
                    && engine.count(text).ok() == Some(golden.rows[q].len());
                run.check(ok, || {
                    format!("engine and walker disagree on Q{} (corpus {which})", q + 1)
                });
            }
        }
    });
    run.verify_s += gate_s;

    for (seconds, traced) in windows(untraced_s, traced_s) {
        let w = paper_window(&engines, seconds, traced, scale.replay_sample, seed);
        run.keep_window(w, traced);
    }
}

/// Cycle Q1–Q23 over WSJ then SWB until the window closes: full
/// results on odd passes, first pages on even ones.
fn paper_window(
    engines: &[Checked],
    seconds: f64,
    traced: bool,
    replay: usize,
    seed: u64,
) -> Window {
    let mut w = Window {
        seconds,
        ..Window::default()
    };
    let mut buf = TraceBuf::new(0);
    // `(core.query span, corpus, query)` of every traced operation.
    let mut executed: Vec<(u64, usize, usize)> = Vec::new();
    w.usage.0 = Usage::now();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    'window: for pass in 1.. {
        let full = pass % 2 == 1;
        for (which, (engine, golden)) in engines.iter().enumerate() {
            for (q, text) in fixture::QUERIES.iter().enumerate() {
                let start = Instant::now();
                if start >= deadline {
                    break 'window;
                }
                let (parsed, parse_ns) = if traced {
                    let (ast, ns) = timed_ns(|| lpath_syntax::parse(text));
                    (Some(ast.expect("fixture query parses")), ns)
                } else {
                    (None, 0)
                };
                let (rows, exec_ns) = timed_ns(|| match (&parsed, full) {
                    (None, true) => engine.query(text),
                    (None, false) => engine.query_limit(text, 0, PAGE_LIMIT),
                    (Some(ast), true) => engine.query_ast(ast),
                    (Some(ast), false) => engine.query_limit_ast(ast, 0, PAGE_LIMIT),
                });
                let latency_ns = parse_ns + exec_ns;
                let done = start + Duration::from_nanos(latency_ns);
                if done > deadline {
                    break 'window;
                }
                if traced {
                    let at = nanos_since(t0, start);
                    let root = buf.push(0, 0, ROOT, at, latency_ns);
                    buf.push(root, root, "syntax.parse", at, parse_ns);
                    let exec = buf.push(root, root, "core.query", at + parse_ns, exec_ns);
                    executed.push((exec, which, q));
                }
                w.attempted += 1;
                let want = &golden.rows[q];
                let want = if full {
                    &want[..]
                } else {
                    &want[..want.len().min(PAGE_LIMIT)]
                };
                if rows.is_ok_and(|rows| engine_rows_eq(&rows, want)) {
                    w.samples.push(Sample {
                        class: if full { Class::Full } else { Class::Limit },
                        group: (which * fixture::QUERIES.len() + q) as u16,
                        done_ns: nanos_since(t0, done),
                        latency_ns,
                        encode_ns: 0,
                        decode_ns: 0,
                        request_bytes: 0,
                        response_bytes: 0,
                    });
                } else {
                    w.failed += 1;
                    w.errors
                        .push(format!("wrong rows for Q{} in the window", q + 1));
                }
            }
        }
    }
    w.usage.1 = Usage::now();

    // Replay a seeded sample: the analysis and planning steps that
    // happen inside `core.query`, timed on their own.
    let mut rng = Rng::fork(seed, 0x7E);
    let keep = replay as f64 / executed.len().max(1) as f64;
    let mut replayed = HashSet::new();
    for (span, which, q) in executed {
        if !rng.chance(keep) {
            continue;
        }
        let engine = &engines[which].0;
        let ast = lpath_syntax::parse(fixture::QUERIES[q]).expect("fixture query parses");
        let (_, check_ns) = timed_ns(|| std::hint::black_box(engine.check_ast(&ast)));
        let ((), plan_ns) = timed_ns(|| plan_once(engine, &ast));
        let parent = *buf.get(span).expect("span recorded above");
        buf.push_sequence(
            &parent,
            &[("check.analyze", check_ns), ("relstore.plan", plan_ns)],
        );
        replayed.insert(parent.request);
    }
    w.spans = buf.spans;
    w.spans.retain(|s| replayed.contains(&s.request));
    w
}

/// Translate and plan `ast` the way the engine does before executing.
pub fn plan_once(engine: &Engine, ast: &lpath_syntax::Path) {
    if let Ok(cq) = engine.translate(ast) {
        std::hint::black_box(lpath_relstore::plan(
            engine.database(),
            &cq,
            &PlannerConfig::default(),
        ));
    }
}

// ---------------------------------------------------------------------
// The socket stack
// ---------------------------------------------------------------------

/// The shipped configuration end to end: default service behind the
/// default server on a loopback port, plus connected clients.
pub struct Stack {
    pub svc: Arc<Service>,
    server: Option<ServerHandle>,
    pub clients: Vec<LineClient>,
}

impl Stack {
    pub fn up(corpus: &Corpus, clients: usize) -> Stack {
        let svc = Arc::new(Service::with_config(corpus, ServiceConfig::default()));
        let server = serve(Arc::clone(&svc), "127.0.0.1:0", ServerConfig::default())
            .expect("a loopback port can be bound");
        let clients = (0..clients)
            .map(|_| LineClient::connect(server.addr()).expect("the server accepts"))
            .collect();
        Stack {
            svc,
            server: Some(server),
            clients,
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // Closing the connections ends the server's connection
        // threads; then stop the acceptor.
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Either side of the edge, for warm-up and replay code that must run
/// identically over the socket and in-process.
pub trait Caller {
    fn call(&mut self, op: &Op<'_>) -> Result<Answer, String>;
}

impl Caller for LineClient {
    fn call(&mut self, op: &Op<'_>) -> Result<Answer, String> {
        LineClient::call(self, op).0
    }
}

impl Caller for &Service {
    fn call(&mut self, op: &Op<'_>) -> Result<Answer, String> {
        op.call_in_process(self)
    }
}

/// Everything a browsing session can ask, once per fixture query, so
/// every plan, count and histogram is cached. (Pages are not: the
/// token path resumes a cursor per request instead of reading a cache.)
fn warm_browse(caller: &mut impl Caller) -> Result<(), String> {
    for query in fixture::QUERIES {
        let mut token: Option<String> = None;
        for _ in 0..MAX_PAGES {
            let op = Op::Page {
                query,
                token: token.as_deref(),
            };
            match caller.call(&op)? {
                Answer::Page { token: next, .. } => token = next,
                other => return Err(format!("unexpected warm-up answer {other:?}")),
            }
            if token.is_none() {
                break;
            }
        }
        caller.call(&Op::Count(query))?;
        caller.call(&Op::Hist(query))?;
    }
    Ok(())
}

fn warm_cold(caller: &mut impl Caller, warm: &[ColdOp]) -> Result<(), String> {
    for entry in warm {
        caller.call(&entry.op())?;
    }
    Ok(())
}

/// Build the stack `reps` times, timing build + serve + connect +
/// warm-up each time, and keep the last one.
fn set_up(
    run: &mut Run,
    corpus: &Corpus,
    reps: usize,
    warm: impl Fn(&mut LineClient) -> Result<(), String>,
) -> Stack {
    let mut stack = None;
    for _ in 0..reps {
        // Drop the previous stack first: two corpora at once would
        // double the peak memory the run reports.
        drop(stack.take());
        let (fresh, secs) = timed(|| {
            let mut fresh = Stack::up(corpus, clients());
            let warmed = warm(&mut fresh.clients[0]);
            // Wake every other connection's server thread once.
            let woke: Result<(), String> = fresh.clients[1..]
                .iter_mut()
                .try_for_each(|c| c.call(&Op::Check("//S")).0.map(drop));
            (fresh, warmed.and(woke))
        });
        run.setup_s.push(secs);
        let (fresh, warmed) = fresh;
        run.check(warmed.is_ok(), || format!("warm-up failed: {warmed:?}"));
        stack = Some(fresh);
    }
    stack.expect("at least one set-up repetition")
}

/// Gate: over the socket, every fixture query's full result and count
/// equal the walker's.
fn gate_fixture(run: &mut Run, stack: &mut Stack, golden: &Golden) {
    let ((), secs) = timed(|| {
        let client = &mut stack.clients[0];
        for (q, text) in fixture::QUERIES.iter().enumerate() {
            let rows = client.call(&Op::Eval(text)).0;
            let count = client.call(&Op::Count(text)).0;
            let ok = rows == Ok(Answer::Rows(golden.rows[q].clone()))
                && count == Ok(Answer::Count(golden.rows[q].len() as u64));
            run.check(ok, || format!("service and walker disagree on Q{}", q + 1));
        }
    });
    run.verify_s += secs;
}

/// One window over the socket: each driver on its own connection and
/// thread, closed loop; optionally a writer appending the `append`
/// batches on one more connection (the open loop of `ingest_mixed`).
/// The coordinator reads service and process counters at both ends
/// while the worker threads are alive.
fn socket_window<D: Driver + Send>(
    stack: &mut Stack,
    drivers: &mut [D],
    seconds: f64,
    traced: bool,
    append: Option<&[String]>,
) -> (Window, Vec<Recorded>) {
    let mut w = Window {
        seconds,
        ..Window::default()
    };
    let svc = Arc::clone(&stack.svc);
    // Threads start a little in the future so all open the window at
    // the same instant.
    let t0 = Instant::now() + Duration::from_millis(20);
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let (reader_clients, writer_clients) = stack.clients.split_at_mut(drivers.len());
    let mut recorded = Vec::new();
    std::thread::scope(|scope| {
        let readers: Vec<_> = reader_clients
            .iter_mut()
            .zip(drivers.iter_mut())
            .enumerate()
            .map(|(lane, (client, driver))| {
                scope.spawn(move || {
                    let mut tracer = traced.then(|| Tracer::new(lane));
                    let log = drive(client, driver, t0, deadline, tracer.as_mut());
                    (log, tracer)
                })
            })
            .collect();
        let writing = append.map(|batches| {
            let client = &mut writer_clients[0];
            let lane = readers.len();
            scope.spawn(move || write_on_schedule(client, batches, t0, deadline, traced, lane))
        });
        sleep_until(t0);
        let before = (svc.stats(), Usage::now());
        sleep_until(deadline);
        let after = (svc.stats(), Usage::now());
        w.usage = (before.1, after.1);
        w.service = Some(Box::new((before.0, after.0)));
        for reader in readers {
            let (log, tracer) = reader.join().expect("client thread panicked");
            w.absorb(log);
            if let Some(t) = tracer {
                w.spans.extend(t.buf.spans);
                recorded.extend(t.recorded);
            }
        }
        if let Some(writing) = writing {
            let (appends, failed, tracer) = writing.join().expect("writer thread panicked");
            w.attempted += appends.len() as u64 + failed;
            w.failed += failed;
            if failed > 0 {
                w.errors.push(format!("{failed} appends failed"));
            }
            w.appends = appends;
            if let Some(t) = tracer {
                w.spans.extend(t.buf.spans);
                recorded.extend(t.recorded);
            }
        }
    });
    (w, recorded)
}

/// Send one append per period regardless of how the last one went,
/// timing each from when it was due.
fn write_on_schedule(
    client: &mut LineClient,
    batches: &[String],
    t0: Instant,
    deadline: Instant,
    traced: bool,
    lane: usize,
) -> (Vec<OpenLoopSample>, u64, Option<Tracer>) {
    let mut tracer = traced.then(|| Tracer::new(lane));
    let mut samples = Vec::new();
    let mut failed = 0;
    let secs = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    for (k, batch) in batches.iter().enumerate() {
        let due = stats::due_time(APPEND_FIRST_S, APPEND_PERIOD_S, k);
        let due_at = t0 + Duration::from_secs_f64(due);
        if due_at >= deadline {
            break;
        }
        sleep_until(due_at);
        let op = Op::Append(batch);
        let (answer, timing) = client.call(&op);
        if let Some(t) = tracer.as_mut() {
            t.record(t0, &op, &timing, client.last_lines().0);
        }
        let done = timing.start + Duration::from_nanos(timing.total_ns());
        if matches!(answer, Ok(Answer::Added(n)) if n == streams::APPEND_SENTENCES as u64) {
            samples.push(stats::open_loop_sample(due, secs(timing.start), secs(done)));
        } else {
            failed += 1;
        }
    }
    (samples, failed, tracer)
}

/// How many appends fall inside a window of `seconds`.
fn appends_in(seconds: f64) -> usize {
    if seconds <= APPEND_FIRST_S {
        return 0;
    }
    ((seconds - APPEND_FIRST_S) / APPEND_PERIOD_S).ceil() as usize
}

// ---------------------------------------------------------------------
// browse_hot and ingest_mixed
// ---------------------------------------------------------------------

fn browse(
    run: &mut Run,
    seed: u64,
    scale: &Scale,
    untraced_s: Option<f64>,
    traced_s: Option<f64>,
    ingest: bool,
) {
    if ingest && procfs::nproc() < 2 {
        run.unresolved = Some("ingest_mixed needs a reader and a writer core; nproc = 1".into());
    }
    let windows = windows(untraced_s, traced_s);
    let ((corpus, batches), generate_s) = timed(|| {
        let corpus = scale.wsj_corpus();
        let wanted: usize = windows.iter().map(|&(s, _)| appends_in(s)).sum();
        let batches = if ingest {
            streams::append_batches(seed, wanted)
        } else {
            Vec::new()
        };
        (corpus, batches)
    });
    run.generate_s = generate_s;
    run.fingerprint = if ingest {
        streams::ingest_fingerprint(seed, &batches)
    } else {
        streams::browse_fingerprint(seed, clients())
    };
    let (golden, verify_s) = timed(|| Golden::of(&corpus));
    run.verify_s = verify_s;

    let mut stack = set_up(run, &corpus, scale.setup_reps, warm_browse);
    gate_fixture(run, &mut stack, &golden);

    // With a writer, one connection reads and the other writes.
    let readers = if ingest { 1 } else { clients() };
    let mut sent_batches = 0;
    for (i, &(seconds, traced)) in windows.iter().enumerate() {
        let mut drivers: Vec<BrowseDriver<'_>> = (0..readers)
            .map(|c| BrowseDriver::new(seed ^ i as u64, c, &golden, ingest))
            .collect();
        let due = if ingest { appends_in(seconds) } else { 0 };
        let (earlier, this_window) = batches[..sent_batches + due].split_at(sent_batches);
        let append = ingest.then_some(this_window);
        let (mut w, recorded) = socket_window(&mut stack, &mut drivers, seconds, traced, append);
        if ingest {
            let done = w.appends.len();
            run.check(done == due, || {
                format!("{done} of {due} appends completed in the window")
            });
            sent_batches += due;
        }
        if traced {
            let replica = Service::with_config(&corpus, ServiceConfig::default());
            let engine = Engine::build(&corpus);
            let caught_up = warm_browse(&mut &replica).and_then(|()| {
                // Appends of an earlier window: the replica's corpus
                // must be the primary's when this window opened.
                earlier
                    .iter()
                    .try_for_each(|b| replica.append_ptb(b).map(drop).map_err(|e| e.to_string()))
            });
            run.check(caught_up.is_ok(), || {
                format!("replica set-up failed: {caught_up:?}")
            });
            replay(
                &mut w.spans,
                recorded,
                &replica,
                &engine,
                scale.replay_sample,
                seed,
            );
        }
        run.keep_window(w, traced);
    }

    if ingest {
        // After the last append: counts over the socket must equal the
        // walker's over the corpus as it now is.
        let ((), secs) = timed(|| {
            let mut grown = corpus.clone();
            for b in &batches[..sent_batches] {
                ptb::parse_into(b, &mut grown).expect("generated batches parse");
            }
            let walker = Walker::new(&grown);
            for (q, text) in fixture::QUERIES.iter().enumerate() {
                let want = walk(&walker, text).len() as u64;
                let got = stack.clients[0].call(&Op::Count(text)).0;
                run.check(got == Ok(Answer::Count(want)), || {
                    format!(
                        "final count of Q{} is {got:?}, the walker says {want}",
                        q + 1
                    )
                });
            }
        });
        run.verify_s += secs;
    }
}

// ---------------------------------------------------------------------
// explore_cold
// ---------------------------------------------------------------------

fn explore_cold(
    run: &mut Run,
    seed: u64,
    scale: &Scale,
    untraced_s: Option<f64>,
    traced_s: Option<f64>,
) {
    let total_s = untraced_s.unwrap_or(0.0) + traced_s.unwrap_or(0.0);
    let ((corpus, pool), generate_s) = timed(|| {
        let corpus = scale.wsj_corpus();
        let vocab = Vocabulary::of(&corpus);
        let mut seen = HashSet::new();
        let warm = streams::cold_pool(COLD_WARM_SEED, &vocab, COLD_WARM_OPS, &mut seen);
        let ops = (total_s * scale.cold_ops_per_s as f64) as usize;
        let stream = streams::cold_pool(seed, &vocab, ops, &mut seen);
        (corpus, (warm, stream))
    });
    let (warm, stream) = (&pool.0[..], &pool.1[..]);
    run.generate_s = generate_s;
    run.fingerprint = streams::cold_fingerprint(stream);
    let (golden, verify_s) = timed(|| Golden::of(&corpus));
    run.verify_s = verify_s;

    let mut stack = set_up(run, &corpus, scale.setup_reps, |c| warm_cold(c, warm));
    gate_fixture(run, &mut stack, &golden);

    let walker = Walker::new(&corpus);
    let mut next_unused = 0;
    for (seconds, traced) in windows(untraced_s, traced_s) {
        let share = &stream[next_unused..];
        let mut drivers: Vec<ColdDriver<'_>> = (0..clients())
            .map(|c| ColdDriver::new(share, c, clients(), seed))
            .collect();
        let (mut w, recorded) = socket_window(&mut stack, &mut drivers, seconds, traced, None);

        // The seeded 2 % sample, re-checked against the walker.
        let ((), secs) = timed(|| {
            let kept: Vec<(usize, Answer)> =
                drivers.iter_mut().flat_map(|d| d.kept.drain(..)).collect();
            let wrong = wrong_answers(share, &kept, &walker);
            run.attempted += (kept.len() - wrong.len()) as u64;
            for index in wrong {
                run.check(false, || {
                    format!(
                        "sampled answer to {:?} differs from the walker",
                        share[index].queries
                    )
                });
            }
        });
        run.verify_s += secs;
        next_unused += drivers
            .iter()
            .map(ColdDriver::next_index)
            .max()
            .unwrap_or(0);

        if traced {
            let replica = Service::with_config(&corpus, ServiceConfig::default());
            let engine = Engine::build(&corpus);
            let warmed = warm_cold(&mut &replica, warm);
            run.check(warmed.is_ok(), || {
                format!("replica warm-up failed: {warmed:?}")
            });
            replay(
                &mut w.spans,
                recorded,
                &replica,
                &engine,
                scale.replay_sample,
                seed,
            );
        }
        run.keep_window(w, traced);
    }
}

/// Pool indices of the kept answers that differ from the walker's.
/// Checked on every core: walking ~650 queries over the corpus is the
/// costliest part of a run's overhead.
fn wrong_answers(share: &[ColdOp], kept: &[(usize, Answer)], walker: &Walker<'_>) -> Vec<usize> {
    let agrees = |(index, answer): &(usize, Answer)| {
        let entry = &share[*index];
        let full: Vec<_> = entry.queries.iter().map(|q| walk(walker, q)).collect();
        match (answer, entry.kind) {
            // A page that ends exactly at the last row may still
            // carry a token (for an empty next page).
            (Answer::Page { rows, token }, ColdKind::Page1) => {
                *rows == full[0][..full[0].len().min(PAGE_LIMIT)]
                    && (token.is_some() || full[0].len() <= PAGE_LIMIT)
            }
            (Answer::Count(n), ColdKind::Count) => *n == full[0].len() as u64,
            (Answer::Exists(found), ColdKind::Exists) => *found != full[0].is_empty(),
            (Answer::Multi(members), ColdKind::Multi) => *members == full,
            _ => false,
        }
    };
    let per_core = kept.len().div_ceil(procfs::nproc()).max(1);
    std::thread::scope(|scope| {
        let mut checkers = Vec::new();
        for chunk in kept.chunks(per_core) {
            checkers.push(scope.spawn(move || {
                let wrong = chunk.iter().filter(|kept| !agrees(kept));
                wrong.map(|(index, _)| *index).collect::<Vec<_>>()
            }));
        }
        checkers
            .into_iter()
            .flat_map(|c| c.join().expect("checker thread panicked"))
            .collect()
    })
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// Replay a seeded sample of traced requests (and every append, so the
/// replica's corpus keeps pace) in-process, in the order they were
/// sent, timing each server-side step on its own and hanging the
/// steps under the request's `socket.rtt` span. Afterwards `spans`
/// holds the replayed requests only, so every request in the
/// self-time table has all its layers.
fn replay(
    spans: &mut Vec<Span>,
    mut recorded: Vec<Recorded>,
    replica: &Service,
    engine: &Engine,
    sample: usize,
    seed: u64,
) {
    let by_id: HashMap<u64, Span> = spans.iter().map(|s| (s.id, *s)).collect();
    recorded.sort_by_key(|r| by_id[&r.rtt_span].start_ns);
    let mut rng = Rng::fork(seed, 0x7E);
    let keep = sample as f64 / recorded.len().max(1) as f64;
    let mut buf = TraceBuf::new(15);
    let mut replayed = HashSet::new();
    for r in recorded {
        let is_append = r.op.queries().is_empty();
        if !is_append && !rng.chance(keep) {
            continue;
        }
        let rtt = by_id[&r.rtt_span];
        replayed.insert(rtt.request);
        let (_, json_ns) =
            timed_ns(|| std::hint::black_box(lpath_obs::json::parse(r.request_line.trim_end())));

        // Compile first, as every service entry point does; when the
        // plan cache missed, time what a compilation consists of.
        let misses_before = replica.stats().plan_misses;
        let ((), compile_ns) = timed_ns(|| {
            for q in r.op.queries() {
                std::hint::black_box(replica.compile(q).ok());
            }
        });
        let missed = replica.stats().plan_misses > misses_before;
        let mut steps = [
            ("syntax.parse", 0),
            ("check.analyze", 0),
            ("relstore.plan", 0),
        ];
        if missed {
            for q in r.op.queries() {
                let (ast, parse_ns) = timed_ns(|| lpath_syntax::parse(q));
                let Ok(ast) = ast else { continue };
                steps[0].1 += parse_ns;
                steps[1].1 += timed_ns(|| std::hint::black_box(engine.check_ast(&ast))).1;
                steps[2].1 += timed_ns(|| plan_once(engine, &ast)).1;
            }
        }
        let ((), ptb_ns) = timed_ns(|| {
            if is_append {
                std::hint::black_box(ptb::parse_str(r.op.first_text()).ok());
            }
        });
        let (_, call_ns) =
            timed_ns(|| std::hint::black_box(r.op.as_op().call_in_process(replica).ok()));

        let ids = buf.push_sequence(
            &rtt,
            &[
                ("obs.json_parse", json_ns),
                ("service.compile", compile_ns),
                ("service.call", call_ns),
            ],
        );
        if missed {
            let compile = *buf.get(ids[1]).expect("pushed above");
            buf.push_sequence(&compile, &steps);
        }
        if is_append {
            let call = *buf.get(ids[2]).expect("pushed above");
            buf.push_sequence(&call, &[("model.ptb_parse", ptb_ns)]);
        }
    }
    spans.extend(buf.spans);
    spans.retain(|s| replayed.contains(&s.request));
}
