//! Closed-loop clients: a driver decides the next request and judges
//! the answer, `drive` sends it, times it and keeps the sample.

use std::time::Instant;

use crate::oracle::Golden;
use crate::seeded::Rng;
use crate::streams::{BrowseScript, ColdKind, ColdOp, Session, MAX_PAGES, MULTI_WIDTH};
use crate::trace::{TraceBuf, ROOT};
use crate::wire::{Answer, LineClient, Op, Timing, PAGE_LIMIT};

/// What kind of operation a sample timed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `Engine::query`: the full, sorted result.
    Full,
    /// `Engine::query_limit(q, 0, 25)`.
    Limit,
    Page1,
    PageDeep,
    Count,
    Hist,
    Exists,
    Multi,
}

/// One correct, completed operation.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub class: Class,
    /// Which query (or query template) it ran: the unit the
    /// per-query geometric mean is taken over.
    pub group: u16,
    /// Completion time, nanoseconds after the window opened.
    pub done_ns: u64,
    pub latency_ns: u64,
    pub encode_ns: u32,
    pub decode_ns: u32,
    pub request_bytes: u32,
    pub response_bytes: u32,
}

/// Decides a client's next request and checks each answer.
pub trait Driver {
    /// False once the driver has nothing left to send.
    fn has_next(&self) -> bool {
        true
    }
    fn op(&self) -> Op<'_>;
    fn meta(&self) -> (Class, u16);
    /// Judge the answer to the current request and move to the next.
    fn accept(&mut self, answer: Answer) -> bool;
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    Paging,
    Count,
    Hist,
}

/// A linguist paging through results: sessions from a
/// [`BrowseScript`], every answer checked against the golden rows.
pub struct BrowseDriver<'g> {
    script: BrowseScript,
    golden: &'g Golden,
    /// The corpus is being appended to while this client reads.
    grown: bool,
    session: Session,
    phase: Phase,
    pages: usize,
    offset: usize,
    token: Option<String>,
    /// Last count seen per query: under appends counts never shrink.
    floor: [u64; 23],
}

impl<'g> BrowseDriver<'g> {
    pub fn new(seed: u64, client: usize, golden: &'g Golden, grown: bool) -> Self {
        let mut script = BrowseScript::new(seed, client);
        let session = script.next_session();
        BrowseDriver {
            script,
            golden,
            grown,
            session,
            phase: Phase::Paging,
            pages: 0,
            offset: 0,
            token: None,
            floor: [0; 23],
        }
    }

    fn query(&self) -> &'static str {
        crate::fixture::QUERIES[self.session.query]
    }

    fn after_pages(&mut self) {
        self.phase = if self.session.count {
            Phase::Count
        } else if self.session.hist {
            Phase::Hist
        } else {
            return self.new_session();
        };
    }

    fn new_session(&mut self) {
        self.session = self.script.next_session();
        self.phase = Phase::Paging;
        self.pages = 0;
        self.offset = 0;
        self.token = None;
    }

    fn total_ok(&mut self, n: u64) -> bool {
        let q = self.session.query;
        let ok = self.golden.count_ok(q, n, self.grown) && n >= self.floor[q];
        self.floor[q] = self.floor[q].max(n);
        ok
    }
}

impl Driver for BrowseDriver<'_> {
    fn op(&self) -> Op<'_> {
        match self.phase {
            Phase::Paging => Op::Page {
                query: self.query(),
                token: self.token.as_deref(),
            },
            Phase::Count => Op::Count(self.query()),
            Phase::Hist => Op::Hist(self.query()),
        }
    }

    fn meta(&self) -> (Class, u16) {
        let class = match self.phase {
            Phase::Paging if self.pages == 0 => Class::Page1,
            Phase::Paging => Class::PageDeep,
            Phase::Count => Class::Count,
            Phase::Hist => Class::Hist,
        };
        (class, self.session.query as u16)
    }

    fn accept(&mut self, answer: Answer) -> bool {
        match (self.phase, answer) {
            (Phase::Paging, Answer::Page { rows, token }) => {
                let ok = self
                    .golden
                    .page_ok(self.session.query, self.offset, &rows, self.grown);
                self.offset += rows.len();
                self.pages += 1;
                self.token = token;
                if self.token.is_none() || self.pages == MAX_PAGES {
                    self.after_pages();
                }
                ok
            }
            (Phase::Count, Answer::Count(n)) => {
                let ok = self.total_ok(n);
                if self.session.hist {
                    self.phase = Phase::Hist;
                } else {
                    self.new_session();
                }
                ok
            }
            (Phase::Hist, Answer::HistTotal(n)) => {
                let ok = self.total_ok(n);
                self.new_session();
                ok
            }
            _ => {
                self.new_session();
                false
            }
        }
    }
}

/// Ad-hoc exploration: walks its share of a pool of never-repeated
/// queries and keeps a seeded 2 % of the answers for the oracle.
pub struct ColdDriver<'p> {
    pool: &'p [ColdOp],
    next: usize,
    stride: usize,
    seed: u64,
    /// `(pool index, answer)` pairs to re-check after the window.
    pub kept: Vec<(usize, Answer)>,
}

/// Is pool entry `index` in the seeded 2 % sample?
fn kept_for_oracle(seed: u64, index: usize) -> bool {
    Rng::fork(seed, 0x5A00_0000 + index as u64)
        .next_u64()
        .is_multiple_of(50)
}

impl ColdOp {
    pub fn op(&self) -> Op<'_> {
        match self.kind {
            ColdKind::Page1 => Op::Page {
                query: &self.queries[0],
                token: None,
            },
            ColdKind::Count => Op::Count(&self.queries[0]),
            ColdKind::Exists => Op::Exists(&self.queries[0]),
            ColdKind::Multi => Op::Multi(&self.queries),
        }
    }
}

impl<'p> ColdDriver<'p> {
    /// First pool index this client has not sent.
    pub fn next_index(&self) -> usize {
        self.next
    }

    pub fn new(pool: &'p [ColdOp], client: usize, clients: usize, seed: u64) -> Self {
        ColdDriver {
            pool,
            next: client,
            stride: clients,
            seed,
            kept: Vec::new(),
        }
    }
}

impl Driver for ColdDriver<'_> {
    fn has_next(&self) -> bool {
        self.next < self.pool.len()
    }

    fn op(&self) -> Op<'_> {
        self.pool[self.next].op()
    }

    fn meta(&self) -> (Class, u16) {
        let entry = &self.pool[self.next];
        let class = match entry.kind {
            ColdKind::Page1 => Class::Page1,
            ColdKind::Count => Class::Count,
            ColdKind::Exists => Class::Exists,
            ColdKind::Multi => Class::Multi,
        };
        (class, (entry.template * 4 + entry.kind as usize) as u16)
    }

    fn accept(&mut self, answer: Answer) -> bool {
        let shaped = match (&self.pool[self.next].kind, &answer) {
            (ColdKind::Page1, Answer::Page { rows, .. }) => rows.len() <= PAGE_LIMIT,
            (ColdKind::Count, Answer::Count(_)) | (ColdKind::Exists, Answer::Exists(_)) => true,
            (ColdKind::Multi, Answer::Multi(members)) => members.len() == MULTI_WIDTH,
            _ => false,
        };
        if shaped && kept_for_oracle(self.seed, self.next) {
            self.kept.push((self.next, answer));
        }
        self.next += self.stride;
        shaped
    }
}

/// An owned copy of a request, kept for in-process replay.
#[derive(Clone, Debug)]
pub struct OwnedOp {
    kind: OwnedKind,
    texts: Vec<String>,
    token: Option<String>,
}

#[derive(Clone, Copy, Debug)]
enum OwnedKind {
    Page,
    Eval,
    Count,
    Exists,
    Hist,
    Check,
    Multi,
    Append,
}

impl From<&Op<'_>> for OwnedOp {
    fn from(op: &Op<'_>) -> Self {
        let one = |kind, q: &str| OwnedOp {
            kind,
            texts: vec![q.to_string()],
            token: None,
        };
        match *op {
            Op::Page { query, token } => OwnedOp {
                token: token.map(str::to_string),
                ..one(OwnedKind::Page, query)
            },
            Op::Eval(q) => one(OwnedKind::Eval, q),
            Op::Count(q) => one(OwnedKind::Count, q),
            Op::Exists(q) => one(OwnedKind::Exists, q),
            Op::Hist(q) => one(OwnedKind::Hist, q),
            Op::Check(q) => one(OwnedKind::Check, q),
            Op::Append(src) => one(OwnedKind::Append, src),
            Op::Multi(queries) => OwnedOp {
                kind: OwnedKind::Multi,
                texts: queries.to_vec(),
                token: None,
            },
        }
    }
}

impl OwnedOp {
    pub fn as_op(&self) -> Op<'_> {
        let q = self.texts[0].as_str();
        match self.kind {
            OwnedKind::Page => Op::Page {
                query: q,
                token: self.token.as_deref(),
            },
            OwnedKind::Eval => Op::Eval(q),
            OwnedKind::Count => Op::Count(q),
            OwnedKind::Exists => Op::Exists(q),
            OwnedKind::Hist => Op::Hist(q),
            OwnedKind::Check => Op::Check(q),
            OwnedKind::Multi => Op::Multi(&self.texts),
            OwnedKind::Append => Op::Append(q),
        }
    }

    /// The request's first string: its query, or an append's payload.
    pub fn first_text(&self) -> &str {
        &self.texts[0]
    }

    /// The query strings the server must compile for this request.
    pub fn queries(&self) -> &[String] {
        match self.kind {
            OwnedKind::Append => &[],
            _ => &self.texts,
        }
    }
}

/// A traced request as the client saw it, kept so its server-side
/// steps can be replayed in-process under its `socket.rtt` span.
pub struct Recorded {
    /// Id of the request's `socket.rtt` span.
    pub rtt_span: u64,
    pub op: OwnedOp,
    pub request_line: String,
}

/// Span buffer plus replay records of one traced client.
pub struct Tracer {
    pub buf: TraceBuf,
    pub recorded: Vec<Recorded>,
}

impl Tracer {
    pub fn new(lane: usize) -> Self {
        Tracer {
            buf: TraceBuf::new(lane),
            recorded: Vec::new(),
        }
    }

    /// Turn one call's timing into the `request` span and its three
    /// children, and keep what replay needs.
    pub fn record(&mut self, t0: Instant, op: &Op<'_>, timing: &Timing, request_line: &str) {
        let start = nanos_since(t0, timing.start);
        let root = self.buf.push(0, 0, ROOT, start, timing.total_ns());
        self.buf
            .push(root, root, "client.encode", start, timing.encode_ns);
        let rtt_span = self.buf.push(
            root,
            root,
            "socket.rtt",
            start + timing.encode_ns,
            timing.rtt_ns,
        );
        self.buf.push(
            root,
            root,
            "client.decode",
            start + timing.encode_ns + timing.rtt_ns,
            timing.decode_ns,
        );
        self.recorded.push(Recorded {
            rtt_span,
            op: OwnedOp::from(op),
            request_line: request_line.to_string(),
        });
    }
}

pub fn nanos_since(t0: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
}

/// What one client did during a window.
#[derive(Default)]
pub struct ClientLog {
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl ClientLog {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// Run `driver` over `client`, closed loop with no think time, from
/// `t0` until `deadline`. An operation still in flight at the deadline
/// is finished but not counted.
pub fn drive<D: Driver>(
    client: &mut LineClient,
    driver: &mut D,
    t0: Instant,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
) -> ClientLog {
    let mut log = ClientLog::default();
    sleep_until(t0);
    while Instant::now() < deadline {
        if !driver.has_next() {
            log.fail("request stream exhausted before the window closed".into());
            break;
        }
        let (class, group) = driver.meta();
        let (answer, timing) = {
            let op = driver.op();
            let (answer, timing) = client.call(&op);
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.record(t0, &op, &timing, client.last_lines().0);
            }
            (answer, timing)
        };
        let done = timing.start + std::time::Duration::from_nanos(timing.total_ns());
        if done > deadline {
            break;
        }
        log.attempted += 1;
        match answer.map(|answer| driver.accept(answer)) {
            Ok(true) => log.samples.push(Sample {
                class,
                group,
                done_ns: nanos_since(t0, done),
                latency_ns: timing.total_ns(),
                encode_ns: timing.encode_ns.min(u64::from(u32::MAX)) as u32,
                decode_ns: timing.decode_ns.min(u64::from(u32::MAX)) as u32,
                request_bytes: timing.request_bytes as u32,
                response_bytes: timing.response_bytes as u32,
            }),
            Ok(false) => log.fail(format!("wrong answer to a {class:?} request")),
            Err(e) => {
                log.fail(e);
                // The stream may be mid-line: stop rather than misread.
                break;
            }
        }
    }
    log
}

pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> Golden {
        let mut rows = vec![Vec::new(); 23];
        for (q, r) in rows.iter_mut().enumerate() {
            // Query q has 10·q matches: from no page to many pages.
            *r = (0..10 * q as u32).map(|i| (i, q as u32)).collect();
        }
        Golden { rows, trees: 1000 }
    }

    /// Answer the driver from the golden rows like a correct server.
    fn serve(g: &Golden, op: &Op<'_>, offset: usize) -> Answer {
        let index = |q: &str| {
            crate::fixture::QUERIES
                .iter()
                .position(|f| *f == q)
                .unwrap()
        };
        match *op {
            Op::Page { query, .. } => {
                let all = &g.rows[index(query)];
                let end = (offset + PAGE_LIMIT).min(all.len());
                Answer::Page {
                    rows: all[offset.min(end)..end].to_vec(),
                    token: (end < all.len()).then(|| format!("t{end}")),
                }
            }
            Op::Count(q) => Answer::Count(g.rows[index(q)].len() as u64),
            Op::Hist(q) => Answer::HistTotal(g.rows[index(q)].len() as u64),
            _ => unreachable!(),
        }
    }

    #[test]
    fn browse_sessions_page_at_most_eight_deep_then_aggregate() {
        let g = golden();
        let mut d = BrowseDriver::new(1, 0, &g, false);
        let (mut page1, mut deepest, mut counts, mut hists) = (0, 0, 0, 0);
        for _ in 0..5_000 {
            let (class, group) = d.meta();
            assert_eq!(usize::from(group), d.session.query);
            match class {
                Class::Page1 => page1 += 1,
                Class::PageDeep => deepest = deepest.max(d.pages + 1),
                Class::Count => counts += 1,
                Class::Hist => hists += 1,
                _ => unreachable!(),
            }
            let answer = serve(&g, &d.op(), d.offset);
            assert!(d.accept(answer));
        }
        assert_eq!(deepest, MAX_PAGES);
        assert!(page1 > 500 && counts > 100 && hists > 20);
    }

    #[test]
    fn browse_driver_rejects_wrong_rows_and_shrinking_counts() {
        let g = golden();
        let mut d = BrowseDriver::new(1, 0, &g, false);
        assert!(!d.accept(Answer::Page {
            rows: vec![(9, 9)],
            token: None
        }));
        assert!(!d.accept(Answer::Count(0)), "count where a page is due");

        let mut d = BrowseDriver::new(1, 0, &g, true);
        d.phase = Phase::Count;
        d.session.count = true;
        d.session.hist = true;
        let golden_n = g.rows[d.session.query].len() as u64;
        assert!(d.accept(Answer::Count(golden_n + 5)));
        assert!(!d.accept(Answer::HistTotal(golden_n + 4)), "shrank");
    }

    #[test]
    fn cold_driver_strides_its_share_and_keeps_two_percent() {
        let pool: Vec<ColdOp> = (0..10_000)
            .map(|i| ColdOp {
                kind: ColdKind::Count,
                template: i % 11,
                queries: vec![format!("//T{i}")],
            })
            .collect();
        let mut d = ColdDriver::new(&pool, 1, 2, 77);
        let mut sent = 0;
        while d.has_next() {
            assert!(matches!(d.op(), Op::Count(q) if q == format!("//T{}", 1 + 2 * sent)));
            assert!(d.accept(Answer::Count(0)));
            sent += 1;
        }
        assert_eq!(sent, 5_000);
        assert!((50..150).contains(&d.kept.len()), "{}", d.kept.len());
        assert!(!ColdDriver::new(&pool, 0, 2, 77).accept(Answer::Exists(true)));
    }

    #[test]
    fn owned_ops_round_trip() {
        let queries = vec!["//A".to_string(), "//B".to_string()];
        for op in [
            Op::Page {
                query: "//NP",
                token: Some("tok"),
            },
            Op::Count("//NP"),
            Op::Multi(&queries),
            Op::Append("( (S x) )"),
        ] {
            let (mut a, mut b) = (String::new(), String::new());
            op.encode(1, &mut a);
            OwnedOp::from(&op).as_op().encode(1, &mut b);
            assert_eq!(a, b);
        }
        assert!(OwnedOp::from(&Op::Append("x")).queries().is_empty());
        assert_eq!(OwnedOp::from(&Op::Multi(&queries)).queries().len(), 2);
    }
}
