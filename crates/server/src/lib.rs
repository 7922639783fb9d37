//! `lpath-server`: the network edge of the LPath query system.
//!
//! A deliberately small, std-only server: thread-per-connection over
//! TCP, one request per line, one response per line, both sides plain
//! JSON (hand-parsed by [`lpath_obs::json`] — no serde under the
//! offline-shim policy). It exposes the full [`lpath_service::Service`]
//! surface — `eval`, `eval_page`, `count`, `hist`, `exists`, `check`,
//! `metrics`, `append_ptb` — where every paged response carries an
//! **opaque resumption token** ([`lpath_service::Page`]): the
//! checksummed, corpus-stamped position the sweep stopped at. The
//! client echoes the token; the server keeps *no* per-client session
//! state, so deep paging survives reconnects, server restarts onto the
//! same corpus, and load-balancing across identical replicas.
//!
//! `count` comes in two shapes: the bare `{"query"}` form answers
//! `{"count": n}` in one shot (O(index) when the query hits the
//! aggregate tables), while a `budget` and/or `token` param turns it
//! into a resumable sweep whose `{"count", "total", "token"}`
//! responses carry a count token ([`lpath_service::CountPage`]) the
//! client echoes until `total` arrives. `hist` returns the GROUP
//! BY-style match histogram: total plus per-tree and per-label
//! breakdowns.
//!
//! # Protocol
//!
//! Requests and responses are single `\n`-terminated JSON objects:
//!
//! ```text
//! → {"id": 1, "method": "eval_page", "params": {"query": "//NP", "limit": 2}}
//! ← {"id": 1, "ok": true, "result": {"rows": [[0, 3], [0, 7]], "token": "AQeK…"}}
//! → {"id": 2, "method": "eval_page", "params": {"query": "//NP", "limit": 2, "token": "AQeK…"}}
//! ← {"id": 2, "ok": true, "result": {"rows": [[1, 2], [2, 5]], "token": null}}
//! ```
//!
//! Failures are typed, not fatal: a malformed line, an unparseable
//! query, or a corrupt token yields `{"id": …, "ok": false, "error":
//! {"code": …, "message": …}}` on the same connection, which then keeps
//! serving. Connections beyond [`ServerConfig::max_connections`]
//! receive one `overloaded` response and are closed — a typed signal
//! the client can back off on, not a silent drop.
//!
//! # Trust boundary
//!
//! Everything arriving on the socket is untrusted: request lines are
//! length-capped *before* buffering ([`ServerConfig::max_line_bytes`]),
//! JSON nesting is depth-bounded, and echoed tokens go through the
//! validating decoder in [`lpath_service::Service::eval_page_token`] —
//! hostile bytes produce typed errors, never panics, and a forged
//! token can never make the server execute a plan it did not build
//! itself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod proto;

pub use client::{Client, ClientError, RemoteCountPage, RemoteHistogram};

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use lpath_service::Service;

/// Server tuning knobs.
#[derive(Copy, Clone, Debug)]
pub struct ServerConfig {
    /// Concurrent connections served; the next one receives a typed
    /// `overloaded` response and is closed (min 1).
    pub max_connections: usize,
    /// Longest accepted request line, in bytes. Enforced while
    /// reading, so a hostile peer cannot balloon server memory by
    /// never sending a newline (min 1024).
    pub max_line_bytes: usize,
    /// Page size used when an `eval_page` request names none.
    pub default_page_limit: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            max_line_bytes: 1 << 20,
            default_page_limit: 100,
        }
    }
}

/// A handle to a running server: its bound address plus shutdown.
///
/// Dropping the handle shuts the acceptor down too (connection
/// threads end when their clients disconnect).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (port 0 resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the acceptor thread.
    /// Established connections keep being served until their clients
    /// disconnect.
    pub fn shutdown(mut self) {
        self.stop_acceptor();
    }

    fn stop_acceptor(&mut self) {
        let Some(join) = self.acceptor.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // The acceptor blocks in `accept`; a throwaway connection
        // wakes it so it can observe the flag and exit.
        drop(TcpStream::connect(self.addr));
        let _ = join.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_acceptor();
    }
}

/// Bind `addr` and serve `svc` on a background acceptor thread.
/// Bind to port 0 to let the OS pick (see [`ServerHandle::addr`]).
///
/// # Errors
///
/// The bind error, verbatim, when the address cannot be bound.
pub fn serve(
    svc: Arc<Service>,
    addr: impl ToSocketAddrs,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let cfg = ServerConfig {
        max_connections: cfg.max_connections.max(1),
        max_line_bytes: cfg.max_line_bytes.max(1024),
        ..cfg
    };
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || accept_loop(&svc, &listener, &cfg, &stop))
    };
    Ok(ServerHandle {
        addr,
        stop,
        acceptor: Some(acceptor),
    })
}

fn accept_loop(svc: &Arc<Service>, listener: &TcpListener, cfg: &ServerConfig, stop: &AtomicBool) {
    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let Some(slot) = Slot::claim(&active, cfg.max_connections) else {
            refuse(stream, cfg.max_connections);
            continue;
        };
        let svc = Arc::clone(svc);
        let cfg = *cfg;
        thread::spawn(move || {
            // The thread owns the slot, so it is handed back on return
            // and on unwind alike: a panicking request cannot leak it.
            let _slot = slot;
            let _ = connection(&svc, stream, &cfg);
        });
    }
}

/// One claimed connection slot; dropping it hands the slot back.
struct Slot(Arc<AtomicUsize>);

impl Slot {
    /// Claim a slot optimistically, or `None` (the claim handed back)
    /// when it overshot `limit`. The increment-then-check shape keeps
    /// the limit exact under concurrent accepts.
    fn claim(active: &Arc<AtomicUsize>, limit: usize) -> Option<Self> {
        let prior = active.fetch_add(1, Ordering::AcqRel);
        let slot = Slot(Arc::clone(active));
        (prior < limit).then_some(slot)
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Tell an over-limit client why it is being dropped, best-effort.
fn refuse(mut stream: TcpStream, limit: usize) {
    let line = proto::error_line(
        None,
        "overloaded",
        &format!("connection limit ({limit}) reached, retry later"),
    );
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

/// Serve one connection until EOF: read a line, answer a line.
/// Request-level failures answer and continue; only I/O failures and
/// an over-long line end the connection.
fn connection(svc: &Service, mut stream: TcpStream, cfg: &ServerConfig) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    loop {
        match read_line_bounded(&mut reader, cfg.max_line_bytes)? {
            LineRead::Eof => return Ok(()),
            LineRead::TooLong => {
                // The rest of the line was never read, so framing is
                // lost: answer once and hang up.
                let line = proto::error_line(
                    None,
                    "bad_request",
                    &format!("request line exceeds {} bytes", cfg.max_line_bytes),
                );
                stream.write_all(line.as_bytes())?;
                stream.write_all(b"\n")?;
                return Ok(());
            }
            LineRead::Line(line) => {
                if line.iter().all(u8::is_ascii_whitespace) {
                    continue;
                }
                let response = proto::handle(svc, &line, cfg);
                stream.write_all(response.as_bytes())?;
                stream.write_all(b"\n")?;
                stream.flush()?;
            }
        }
    }
}

enum LineRead {
    Eof,
    Line(Vec<u8>),
    TooLong,
}

/// Read one `\n`-terminated line of at most `max` bytes (newline
/// excluded), without ever buffering more than `max` bytes of it.
fn read_line_bounded(reader: &mut impl BufRead, max: usize) -> io::Result<LineRead> {
    let mut line = Vec::new();
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(if line.is_empty() {
                LineRead::Eof
            } else {
                // EOF mid-line: serve what arrived (a final unterminated
                // request from a half-closed client).
                LineRead::Line(line)
            });
        }
        if let Some(pos) = available.iter().position(|&b| b == b'\n') {
            if line.len() + pos > max {
                return Ok(LineRead::TooLong);
            }
            line.extend_from_slice(&available[..pos]);
            reader.consume(pos + 1);
            return Ok(LineRead::Line(line));
        }
        let n = available.len();
        if line.len() + n > max {
            return Ok(LineRead::TooLong);
        }
        line.extend_from_slice(available);
        reader.consume(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_connection_thread_hands_its_slot_back() {
        let active = Arc::new(AtomicUsize::new(0));
        let slot = Slot::claim(&active, 1).expect("first claim fits");
        assert!(Slot::claim(&active, 1).is_none(), "limit is exact");
        assert_eq!(active.load(Ordering::Acquire), 1);
        let worker = thread::spawn(move || {
            let _slot = slot;
            panic!("request handler panicked");
        });
        assert!(worker.join().is_err());
        assert_eq!(active.load(Ordering::Acquire), 0);
    }

    #[test]
    fn a_returning_connection_thread_hands_its_slot_back() {
        let active = Arc::new(AtomicUsize::new(0));
        let slots: Vec<_> = (0..2)
            .map(|_| Slot::claim(&active, 2).expect("fits"))
            .collect();
        assert!(Slot::claim(&active, 2).is_none(), "limit is exact");
        assert_eq!(active.load(Ordering::Acquire), 2);
        thread::spawn(move || drop(slots)).join().expect("no panic");
        assert_eq!(active.load(Ordering::Acquire), 0);
        assert!(Slot::claim(&active, 2).is_some(), "slot reusable");
    }
}
