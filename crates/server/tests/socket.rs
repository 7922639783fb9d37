//! End-to-end acceptance over a real TCP socket: the paged sweep
//! contract (only echoed tokens, zero server-side session state),
//! equivalence with the in-process service, stale-token recovery
//! across interleaved appends, connection-limit refusal, and
//! per-connection error isolation.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use lpath_core::{Walker, QUERIES};
use lpath_model::{generate, GenConfig};
use lpath_server::{serve, Client, ClientError, ServerConfig};
use lpath_service::{Service, ServiceConfig};

fn start(sentences: usize, max_connections: usize) -> (lpath_server::ServerHandle, Arc<Service>) {
    let corpus = generate(&GenConfig::wsj(sentences));
    let svc = Arc::new(Service::with_config(
        &corpus,
        ServiceConfig {
            shards: 3,
            threads: 2,
            ..ServiceConfig::default()
        },
    ));
    let handle = serve(
        Arc::clone(&svc),
        "127.0.0.1:0",
        ServerConfig {
            max_connections,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    (handle, svc)
}

/// The tentpole acceptance sweep: every one of the paper's 23 queries
/// paged over the socket with only echoed tokens, byte-identical to
/// the in-process `Service::eval_page` sweep — even when the client
/// reconnects mid-sweep, proving no session state lives server-side.
#[test]
fn token_sweep_over_socket_matches_in_process_paging() {
    let (handle, svc) = start(60, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    for (qi, q) in QUERIES.iter().enumerate() {
        let reference: Vec<(u32, u32)> = svc
            .eval_page(q.lpath, 0, usize::MAX - 1)
            .unwrap()
            .into_iter()
            .map(|(t, n)| (t, n.index() as u32))
            .collect();
        // A mid-sized page so most queries take several round trips.
        let mut rows = Vec::new();
        let mut token: Option<String> = None;
        loop {
            // Reconnect on a fresh connection every other page of one
            // query: the token alone must carry the whole sweep.
            if qi % 2 == 0 && rows.len() % 2 == 0 {
                client = Client::connect(handle.addr()).unwrap();
            }
            let page = client.eval_page(q.lpath, token.as_deref(), 7).unwrap();
            rows.extend(page.rows);
            match page.token {
                Some(t) => token = Some(t),
                None => break,
            }
        }
        assert_eq!(rows, reference, "Q{} {}", q.id, q.lpath);
    }
}

/// Interleaved appends: a sweep in flight across an `append_ptb` does
/// not panic, the stale token is recovered server-side, and the
/// `stale_checkpoints` counter advances.
#[test]
fn sweep_survives_interleaved_appends() {
    let (handle, svc) = start(40, 8);
    let mut pager = Client::connect(handle.addr()).unwrap();
    let mut writer = Client::connect(handle.addr()).unwrap();
    let q = "//NP";
    let p1 = pager.eval_page(q, None, 5).unwrap();
    let t1 = p1.token.clone().expect("a 40-sentence corpus has many NPs");
    let before = svc.stats().stale_checkpoints;
    let added = writer
        .append_ptb("( (S (NP (NN storm)) (VP (VBD passed) (NP (DT the) (NN coast)))) )")
        .unwrap();
    assert_eq!(added, 1);
    // The echoed token is now stale; the server must recover, not
    // fail, and keep paging against current content.
    let mut rows = p1.rows;
    let mut token = Some(t1);
    while let Some(t) = token {
        let page = pager.eval_page(q, Some(&t), 5).unwrap();
        rows.extend(page.rows);
        token = page.token;
    }
    assert!(svc.stats().stale_checkpoints > before, "recovery counted");
    // Recovery re-enters by global offset against the *new* corpus,
    // so the concatenation equals the post-append result.
    let now: Vec<(u32, u32)> = svc
        .eval_page(q, 0, usize::MAX - 1)
        .unwrap()
        .into_iter()
        .map(|(t, n)| (t, n.index() as u32))
        .collect();
    assert_eq!(rows, now);
}

/// `"limit": 0` is a zero-budget step of the sweep, not its end: the
/// echoed token is validated and the returned one keeps the client's
/// place; a corrupt token is rejected even though no row is asked for.
#[test]
fn zero_limit_pages_keep_the_place_and_validate_the_token() {
    let (handle, svc) = start(40, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let q = "//NP";
    let reference: Vec<(u32, u32)> = svc
        .eval_page(q, 0, usize::MAX - 1)
        .unwrap()
        .into_iter()
        .map(|(t, n)| (t, n.index() as u32))
        .collect();
    let p1 = client.eval_page(q, None, 5).unwrap();
    let t1 = p1.token.expect("a 40-sentence corpus has many NPs");
    let idle = client.eval_page(q, Some(&t1), 0).unwrap();
    assert!(idle.rows.is_empty());
    let parked = idle
        .token
        .expect("a zero-limit page must not end the sweep");
    let rest = client.eval_page(q, Some(&parked), 1_000_000).unwrap();
    assert!(rest.token.is_none());
    let mut rows = p1.rows;
    rows.extend(rest.rows);
    assert_eq!(rows, reference);
    match client.eval_page(q, Some("garbage!!"), 0) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "bad_token"),
        other => panic!("expected bad_token, got {other:?}"),
    }
}

/// `Client::eval_sweep` with a page size of 0 clamps it to 1 instead of
/// echoing zero-limit pages, each of which keeps the place, forever.
#[test]
fn zero_page_sweep_terminates_and_matches_a_paged_sweep() {
    let (handle, svc) = start(10, 8);
    let (addr, q) = (handle.addr(), "//NP");
    let before = svc.stats().pages;
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let _ = tx.send(client.eval_sweep(q, 0).unwrap());
    });
    let rows = rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("a zero-page sweep must end");
    let pages = svc.stats().pages - before;
    assert!(!rows.is_empty());
    assert!(pages <= rows.len() as u64 + 1, "{pages} pages");
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(rows, client.eval_sweep(q, 7).unwrap());
}

/// The budgeted count sweep over the socket: only echoed count tokens,
/// reconnecting mid-sweep, lands on the same total as a one-shot
/// `count` — and `hist` agrees with both and with the in-process
/// service.
#[test]
fn count_sweep_and_hist_match_one_shot_counts() {
    let (handle, svc) = start(60, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    for (qi, q) in QUERIES.iter().enumerate() {
        let reference = svc.count(q.lpath).unwrap() as u64;
        assert_eq!(client.count(q.lpath).unwrap(), reference, "Q{}", q.id);
        let mut token: Option<String> = None;
        let mut pages = 0usize;
        let total = loop {
            if qi % 3 == 0 && pages % 2 == 1 {
                client = Client::connect(handle.addr()).unwrap();
            }
            let page = client.count_page(q.lpath, token.as_deref(), 64).unwrap();
            pages += 1;
            match page.total {
                Some(t) => {
                    assert_eq!(page.so_far, t, "a final page reports the total");
                    assert!(page.token.is_none(), "no token after the total");
                    break t;
                }
                None => token = Some(page.token.expect("an unfinished sweep mints a token")),
            }
        };
        assert_eq!(total, reference, "Q{} {}", q.id, q.lpath);
        let hist = client.hist(q.lpath).unwrap();
        assert_eq!(hist.total, reference, "Q{} hist total", q.id);
        let tree_sum: u64 = hist.per_tree.iter().map(|&(_, n)| n).sum();
        let label_sum: u64 = hist.per_label.iter().map(|&(_, n)| n).sum();
        assert_eq!(tree_sum, reference, "Q{} per-tree sum", q.id);
        assert_eq!(label_sum, reference, "Q{} per-label sum", q.id);
    }
    // A corrupt count token answers with the stable bad_token code.
    match client.count_page("//NP", Some("???not-base64"), 8) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "bad_token"),
        other => panic!("expected bad_token, got {other:?}"),
    }
}

/// All non-paged methods round-trip over the socket.
#[test]
fn full_method_surface_round_trips() {
    let (handle, svc) = start(20, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let q = "//VP{/NP$}";
    let reference: Vec<(u32, u32)> = svc
        .eval(q)
        .unwrap()
        .iter()
        .map(|&(t, n)| (t, n.index() as u32))
        .collect();
    assert_eq!(client.eval(q).unwrap(), reference);
    assert_eq!(client.count(q).unwrap(), reference.len() as u64);
    assert_eq!(client.exists(q).unwrap(), !reference.is_empty());
    assert!(!client.exists("//ZZZQQQ").unwrap());
    let report = client.check("//ZZZQQQ").unwrap();
    assert!(report.get("diagnostics").is_some(), "check report shape");
    let metrics = client.metrics().unwrap();
    assert!(metrics.get("classes").is_some(), "metrics shape");
    assert!(metrics.get("queries").unwrap().as_u64().unwrap() >= 4);
}

/// A batched eval over the socket equals independent reference
/// evaluations member by member, keeps a failing member's error
/// in-band, and counts as one batch on the server.
#[test]
fn eval_multi_round_trips_with_in_band_errors() {
    let (handle, svc) = start(30, 8);
    let corpus = generate(&GenConfig::wsj(30));
    let mut client = Client::connect(handle.addr()).unwrap();
    let queries = ["//NP", "//NP[not(//DT)]", "//VP[", "//NN"];
    let batch = client.eval_multi(&queries).unwrap();
    assert_eq!(batch.len(), 4);
    for (i, q) in queries.iter().enumerate() {
        if i == 2 {
            match &batch[2] {
                Err(ClientError::Remote { code, .. }) => assert_eq!(code, "syntax"),
                other => panic!("expected in-band syntax error, got {other:?}"),
            }
            continue;
        }
        // The walker over the test's own copy of the corpus shares
        // nothing with the batched relational path — a genuinely
        // independent oracle.
        let reference: Vec<(u32, u32)> = Walker::new(&corpus)
            .eval(&lpath_syntax::parse(q).unwrap())
            .iter()
            .map(|&(t, n)| (t, n.index() as u32))
            .collect();
        assert_eq!(*batch[i].as_ref().unwrap(), reference, "{q}");
    }
    let stats = svc.stats();
    assert_eq!(stats.batches, 1, "{stats:?}");
}

/// Repeats in a batch over the socket, in any spelling, come back as
/// equal rows from one evaluation, and each member equals its solo eval.
#[test]
fn eval_multi_over_the_socket_dedups_repeats() {
    let (handle, svc) = start(20, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    let queries = ["//VP{/NP$}", "  //VP{/NP$} ", "//NN", "//VP{/NP$}"];
    let batch = client.eval_multi(&queries).unwrap();
    let stats = svc.stats();
    assert_eq!(stats.batch_dedup, 2, "{stats:?}");
    for (q, rows) in queries.iter().zip(&batch) {
        assert_eq!(*rows.as_ref().unwrap(), client.eval(q).unwrap(), "{q}");
    }
}

/// Request-level failures answer with typed codes and leave the
/// connection serving; hostile garbage cannot take the server down.
#[test]
fn errors_are_typed_and_isolated_per_connection() {
    let (handle, _svc) = start(10, 8);
    let mut client = Client::connect(handle.addr()).unwrap();
    // Unparseable query → syntax, connection lives.
    match client.eval("//[") {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "syntax"),
        other => panic!("expected syntax error, got {other:?}"),
    }
    // Corrupt token → bad_token, connection lives.
    match client.eval_page("//NP", Some("not-a-token!"), 5) {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "bad_token"),
        other => panic!("expected bad_token, got {other:?}"),
    }
    // Unknown method / missing params → bad_request, connection lives.
    match client.call("frobnicate", "{}") {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "bad_request"),
        other => panic!("expected bad_request, got {other:?}"),
    }
    match client.call("eval", "{}") {
        Err(ClientError::Remote { code, .. }) => assert_eq!(code, "bad_request"),
        other => panic!("expected bad_request, got {other:?}"),
    }
    // Raw non-JSON lines get bad_request responses on the same socket.
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    raw.write_all(b"this is not json\n{\"id\": 9}\n").unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"bad_request\""), "{line}");
    }
    // And the first client still works after all of that.
    assert!(client.count("//NP").unwrap() > 0);
}

/// The connection limit refuses with a typed `overloaded` response
/// instead of hanging or silently dropping.
#[test]
fn over_limit_connections_get_a_typed_refusal() {
    let (handle, _svc) = start(10, 1);
    // Occupy the only slot with a live connection.
    let mut first = Client::connect(handle.addr()).unwrap();
    assert!(first.count("//NP").unwrap() > 0);
    // The next connection is answered with `overloaded` and closed.
    let refused = TcpStream::connect(handle.addr()).unwrap();
    let mut line = String::new();
    BufReader::new(&refused).read_line(&mut line).unwrap();
    assert!(line.contains("\"overloaded\""), "{line}");
    let mut rest = Vec::new();
    (&refused).read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "refused connection is closed");
    // The occupied slot keeps serving, and freeing it readmits.
    assert!(first.count("//VP").unwrap() > 0);
    drop(first);
    // The slot is released asynchronously; poll briefly.
    let mut admitted = false;
    for _ in 0..100 {
        if let Ok(mut c) = Client::connect(handle.addr()) {
            if c.count("//NP").is_ok() {
                admitted = true;
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(admitted, "slot is reusable after disconnect");
}

/// A request line longer than the configured cap is refused without
/// buffering it, with a typed answer before the connection closes.
#[test]
fn overlong_lines_are_rejected_without_buffering() {
    let corpus = generate(&GenConfig::wsj(5));
    let svc = Arc::new(Service::with_config(&corpus, ServiceConfig::default()));
    let handle = serve(
        svc,
        "127.0.0.1:0",
        ServerConfig {
            max_line_bytes: 4096,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut raw = TcpStream::connect(handle.addr()).unwrap();
    // Just over the cap: small enough that the server drains it all
    // before closing (so the refusal arrives on a clean FIN), large
    // enough to trip the bound.
    let huge = vec![b'x'; 5000];
    raw.write_all(&huge).unwrap();
    raw.write_all(b"\n").unwrap();
    let mut line = String::new();
    BufReader::new(&raw).read_line(&mut line).unwrap();
    assert!(line.contains("\"bad_request\""), "{line}");
    assert!(line.contains("exceeds"), "{line}");
}
