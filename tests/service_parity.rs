//! Service ↔ engine parity: the sharded, cached, concurrent service
//! must be answer-indistinguishable from one single-threaded
//! [`Engine`] (and from the [`Walker`]) on the paper's whole
//! evaluation query set — at every shard count, before and after
//! cache warm-up, through batches, and across incremental appends.

use std::sync::Arc;

use lpath::prelude::*;
use lpath::service::ExecStrategy;
use lpath_core::EXTENDED_QUERIES;

fn check_parity(corpus: &Corpus, shards: usize, label: &str) {
    let engine = Engine::build(corpus);
    let walker = Walker::new(corpus);
    let service = Service::with_config(
        corpus,
        ServiceConfig {
            shards,
            ..ServiceConfig::default()
        },
    );
    assert_eq!(service.shard_count(), shards, "{label}");

    let texts: Vec<&str> = QUERIES.iter().map(|q| q.lpath).collect();
    let first: Vec<Arc<lpath::service::ResultSet>> = texts
        .iter()
        .map(|q| {
            service
                .eval(q)
                .unwrap_or_else(|e| panic!("{label} {q}: {e}"))
        })
        .collect();

    for (q, got) in QUERIES.iter().zip(&first) {
        let via_engine = engine
            .query(q.lpath)
            .unwrap_or_else(|e| panic!("{label} Q{}: {e}", q.id));
        assert_eq!(
            **got, via_engine,
            "{label} Q{}: service vs engine on {}",
            q.id, q.lpath
        );
        let via_walker = walker.eval(&parse(q.lpath).unwrap());
        assert_eq!(
            **got, via_walker,
            "{label} Q{}: service vs walker on {}",
            q.id, q.lpath
        );
    }

    // A cache-hit re-run returns identical results (on one shard, the
    // very allocation the row store holds) — except queries the static
    // analyzer proves empty against this corpus's vocabulary (e.g. a
    // WSJ-only lexeme on SWB), which are answered by the constant-empty
    // fast path and never enter the row store at all, and queries
    // pruned on every shard (a required tag pair the corpus lacks),
    // which never reach a shard and are answered empty afresh.
    let before = service.stats();
    let mut cached = 0u64;
    let mut fast = 0u64;
    for (q, first_run) in texts.iter().zip(&first) {
        let pruned = service.stats().shards_pruned;
        let again = service.eval(q).unwrap();
        assert_eq!(again, *first_run, "{label}: rerun differs on {q}");
        if service.check(q).unwrap().statically_empty {
            assert!(again.is_empty(), "{label}: fast path not empty on {q}");
            fast += 1;
        } else {
            if service.stats().shards_pruned - pruned == shards as u64 {
                assert!(again.is_empty(), "{label}: pruned rerun not empty on {q}");
            } else {
                assert!(
                    shards > 1 || Arc::ptr_eq(&again, first_run),
                    "{label}: rerun of {q} was not a cache hit"
                );
            }
            cached += 1;
        }
    }
    let after = service.stats();
    // Each (query, shard) pair is probed once: a hit, or pruned.
    assert_eq!(
        (after.result_hits - before.result_hits) + (after.shards_pruned - before.shards_pruned),
        cached * shards as u64,
        "{label}: rerun must be all result-cache hits"
    );
    assert_eq!(after.result_misses, before.result_misses, "{label}");
    assert_eq!(
        after.statically_empty,
        before.statically_empty + fast,
        "{label}: statically-empty queries must take the fast path"
    );

    // The batch API answers exactly like the one-at-a-time API.
    for (i, r) in service.eval_multi(&texts).into_iter().enumerate() {
        assert_eq!(
            *r.unwrap(),
            *first[i],
            "{label}: batch differs on {}",
            texts[i]
        );
    }

    // Counts: the one-shot count equals the engine's, and a sweep
    // driven purely by echoed tokens lands on the same total.
    for q in QUERIES {
        let want = engine.count(q.lpath).unwrap();
        assert_eq!(
            service.count(q.lpath).unwrap(),
            want,
            "{label} Q{} count",
            q.id
        );
        let mut token: Option<String> = None;
        let total = loop {
            let page = service.count_token(q.lpath, token.as_deref(), 50).unwrap();
            match page.total {
                Some(n) => break n,
                None => token = Some(page.token.expect("unfinished sweep mints a token")),
            }
        };
        assert_eq!(total, want as u64, "{label} Q{} token sweep", q.id);
    }

    // Statically-empty probes (unknown vocabulary, an impossible
    // position, contradictory values on one node) are empty under the
    // service and the walker alike.
    for q in [
        "//QQQZ",
        "//_[@lex=qqqzz]",
        "//NP[position()=0]",
        "//_[@lex=alpha and @lex=beta]",
    ] {
        assert!(
            service.eval(q).unwrap().is_empty(),
            "{label}: service on {q}"
        );
        assert!(
            walker.eval(&parse(q).unwrap()).is_empty(),
            "{label}: walker on {q}"
        );
    }
}

#[test]
fn service_matches_engine_and_walker_on_all_23_queries() {
    let wsj = generate(&GenConfig::wsj(120));
    check_parity(&wsj, 1, "wsj/1");
    check_parity(&wsj, 4, "wsj/4");
    let swb = generate(&GenConfig::swb(120));
    check_parity(&swb, 1, "swb/1");
    check_parity(&swb, 4, "swb/4");
}

#[test]
fn walker_fallback_queries_agree_with_the_walker() {
    // The extended set includes queries the relational translation
    // rejects; the service must answer them via its walker fallback,
    // identically to a walker over the full corpus.
    let corpus = generate(&GenConfig::wsj(60));
    let walker = Walker::new(&corpus);
    let service = Service::with_config(
        &corpus,
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
    );
    let mut fallback_seen = 0;
    for q in EXTENDED_QUERIES {
        let compiled = service.compile(q.lpath).unwrap();
        if !q.sql_supported {
            assert_eq!(compiled.strategy, ExecStrategy::Walker, "E{}", q.id);
            fallback_seen += 1;
        }
        let got = service.eval(q.lpath).unwrap();
        let want = walker.eval(&parse(q.lpath).unwrap());
        assert_eq!(*got, want, "E{}: {}", q.id, q.lpath);
    }
    assert!(fallback_seen >= 3, "extended set should exercise fallback");
}

#[test]
fn paged_and_existence_results_survive_appends_and_fallback() {
    // Pages, counts and existence checks must stay prefix-exact across
    // corpus generations (append invalidates both caches) and on
    // walker-fallback queries.
    let base = generate(&GenConfig::wsj(60));
    let extra = generate(&GenConfig::wsj(20).with_seed(7));
    let combined = parse_str(&format!(
        "{}\n{}",
        base.to_ptb_string(),
        extra.to_ptb_string()
    ))
    .unwrap();
    let service = Service::with_config(
        &base,
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
    );
    let check = |label: &str, master: &Corpus| {
        let engine = Engine::build(master);
        let walker = Walker::new(master);
        for q in QUERIES {
            let full = engine.query(q.lpath).unwrap();
            assert_eq!(
                service.count(q.lpath).unwrap(),
                full.len(),
                "{label} Q{} count",
                q.id
            );
            assert_eq!(
                service.exists(q.lpath).unwrap(),
                !full.is_empty(),
                "{label} Q{} exists",
                q.id
            );
            for (offset, limit) in [(0, 7), (2, 3)] {
                let want: Vec<(u32, NodeId)> =
                    full.iter().skip(offset).take(limit).copied().collect();
                assert_eq!(
                    service.eval_page(q.lpath, offset, limit).unwrap(),
                    want,
                    "{label} Q{} page {offset}/{limit}",
                    q.id
                );
            }
        }
        // Walker-fallback queries page identically too.
        for q in EXTENDED_QUERIES.iter().filter(|q| !q.sql_supported) {
            let full = walker.eval(&parse(q.lpath).unwrap());
            let want: Vec<(u32, NodeId)> = full.iter().take(5).copied().collect();
            assert_eq!(
                service.eval_page(q.lpath, 0, 5).unwrap(),
                want,
                "{label} E{} fallback page",
                q.id
            );
        }
    };
    check("gen0", &base);
    service.append_ptb(&extra.to_ptb_string()).unwrap();
    check("gen1", &combined);
}

#[test]
fn incremental_append_matches_fresh_service() {
    // Grow a service tree-batch by tree-batch; answers must always
    // equal a service (and engine) built fresh over the same trees.
    let full = generate(&GenConfig::wsj(80));
    let cut = 60;
    let prefix = full.subcorpus(0..cut);
    let service = Service::with_config(
        &prefix,
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
    );
    let text = full.subcorpus(cut..full.trees().len()).to_ptb_string();
    assert_eq!(service.append_ptb(&text).unwrap(), full.trees().len() - cut);

    let engine = Engine::build(&full);
    for q in QUERIES {
        assert_eq!(
            *service.eval(q.lpath).unwrap(),
            engine.query(q.lpath).unwrap(),
            "post-append Q{}: {}",
            q.id,
            q.lpath
        );
    }
}

#[test]
fn eval_multi_racing_appends_sees_one_consistent_snapshot() {
    // A batch holds one shard snapshot for all its members, so however
    // appends interleave, members whose queries are provably
    // coextensive (`//A` and `//A[not(//ZZZ)]` with `ZZZ` nowhere in
    // any appended text) must return identical rows — a member pair
    // straddling an append would disagree on the trees it saw.
    use std::sync::atomic::{AtomicBool, Ordering};

    let base = generate(&GenConfig::wsj(30));
    let service = std::sync::Arc::new(Service::with_config(
        &base,
        ServiceConfig {
            shards: 4,
            ..ServiceConfig::default()
        },
    ));
    let extra = generate(&GenConfig::wsj(40));
    let done = std::sync::Arc::new(AtomicBool::new(false));

    let writer = {
        let service = std::sync::Arc::clone(&service);
        let done = std::sync::Arc::clone(&done);
        let batches: Vec<String> = (0..10)
            .map(|k| extra.subcorpus(k * 4..(k + 1) * 4).to_ptb_string())
            .collect();
        std::thread::spawn(move || {
            for text in &batches {
                service.append_ptb(text).unwrap();
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    let texts = ["//NP", "//NP[not(//ZZZQQ)]", "//VP", "//VP[not(//ZZZQQ)]"];
    let mut batches_run = 0u32;
    while !done.load(Ordering::SeqCst) || batches_run == 0 {
        let results = service.eval_multi(&texts);
        let rows: Vec<_> = results
            .into_iter()
            .map(|r| r.expect("batch member evaluates"))
            .collect();
        assert_eq!(
            *rows[0], *rows[1],
            "members of one batch must see the same corpus snapshot"
        );
        assert_eq!(*rows[2], *rows[3], "same, on the VP pair");
        batches_run += 1;
    }
    writer.join().unwrap();

    // Settled state: the batch agrees with a fresh engine over the
    // full corpus.
    let full = parse_str(&format!(
        "{}{}",
        base.to_ptb_string(),
        extra.to_ptb_string()
    ))
    .unwrap();
    let engine = Engine::build(&full);
    let settled = service.eval_multi(&["//NP", "//VP"]);
    assert_eq!(
        *settled[0].as_ref().unwrap().clone(),
        engine.query("//NP").unwrap()
    );
    assert_eq!(
        *settled[1].as_ref().unwrap().clone(),
        engine.query("//VP").unwrap()
    );
}

/// Rounds of the two writer-race tests below: `rounds` at the default
/// 256 property cases, scaled by `PROPTEST_CASES` as the property
/// suites are (the nightly sweep's 4096 runs 16 times as many).
fn race_rounds(rounds: u64) -> u64 {
    let cases = u64::from(proptest::prelude::ProptestConfig::cases_or_env(256));
    (cases * rounds / 256).max(1)
}

#[test]
fn a_compile_racing_an_append_never_caches_a_stale_verdict() {
    // Each round a compiler thread compiles `//NEWk` in a loop while
    // another thread appends the first tree holding `NEWk`. A plan
    // analysed while `NEWk` was still unknown (statically empty) must
    // not survive the append in the plan cache: once both threads are
    // done, the tag counts.
    use std::sync::atomic::{AtomicBool, Ordering};

    let base = generate(&GenConfig::wsj(8));
    for k in 0..race_rounds(128) {
        let service = Service::with_config(
            &base,
            ServiceConfig {
                shards: 2,
                ..ServiceConfig::default()
            },
        );
        let query = format!("//NEW{k}");
        let appended = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !appended.load(Ordering::SeqCst) {
                    service.compile(&query).unwrap();
                }
            });
            scope.spawn(|| {
                let tree = format!("( (S (NEW{k} (NN bird)) (VP (VBD flew))) )");
                service.append_ptb(&tree).unwrap();
                appended.store(true, Ordering::SeqCst);
            });
        });
        assert_eq!(service.count(&query).unwrap(), 1, "round {k}");
    }
}

#[test]
fn concurrent_writers_lose_nothing() {
    // Two writers each append ten batches while a reader runs batches.
    // Every batch ends in a marker tree whose tag is unique to it, so
    // the settled service shows where each batch landed: appends are
    // serialised, so none overwrites another's tail and each batch is
    // contiguous.
    use std::sync::atomic::{AtomicUsize, Ordering};

    const WRITERS: usize = 2;
    const BATCHES: usize = 10;
    const GENERATED: usize = 2; // generated trees before each marker
    let base = generate(&GenConfig::wsj(12));
    let extra = generate(&GenConfig::wsj(WRITERS * BATCHES * GENERATED).with_seed(11));
    let batch = |w: usize, b: usize| {
        let start = (w * BATCHES + b) * GENERATED;
        let generated = extra.subcorpus(start..start + GENERATED).to_ptb_string();
        format!("{generated}( (S (M{w}X{b} (NN bird)) (VP (VBD flew))) )\n")
    };
    for round in 0..race_rounds(2) {
        let service = Service::with_config(
            &base,
            ServiceConfig {
                shards: 3,
                ..ServiceConfig::default()
            },
        );
        let finished = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (service, finished, batch) = (&service, &finished, &batch);
                scope.spawn(move || {
                    for b in 0..BATCHES {
                        assert_eq!(service.append_ptb(&batch(w, b)).unwrap(), GENERATED + 1);
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
            let texts = ["//NP", "//NP[not(//ZZZQQ)]"];
            while finished.load(Ordering::SeqCst) < WRITERS {
                let rows = service.eval_multi(&texts);
                assert_eq!(*rows[0].as_ref().unwrap(), *rows[1].as_ref().unwrap());
            }
        });

        // Settled state: every marker counts once, nothing was lost,
        // and the batches, replayed in the order they landed onto the
        // base, give the same answers as a fresh engine.
        let mut landed = Vec::new();
        for w in 0..WRITERS {
            for b in 0..BATCHES {
                let marker = format!("//M{w}X{b}");
                assert_eq!(
                    service.count(&marker).unwrap(),
                    1,
                    "round {round}: {marker}"
                );
                landed.push((service.eval(&marker).unwrap()[0].0 as usize, w, b));
            }
        }
        let appended = WRITERS * BATCHES * (GENERATED + 1);
        assert_eq!(
            service.trees(),
            base.trees().len() + appended,
            "round {round}"
        );
        landed.sort_unstable();
        let mut grown = base.clone();
        for (i, &(marker_tid, w, b)) in landed.iter().enumerate() {
            let batch_end = base.trees().len() + (i + 1) * (GENERATED + 1);
            assert_eq!(
                marker_tid,
                batch_end - 1,
                "round {round}: batch {w}/{b} split"
            );
            parse_into(&batch(w, b), &mut grown).unwrap();
        }
        assert_eq!(
            *service.eval("//NP").unwrap(),
            Engine::build(&grown).query("//NP").unwrap(),
            "round {round}"
        );
    }
}
