//! A seeded history checker: two reader threads query the service
//! while a writer appends, and every read must be explained by one
//! corpus generation that was live while it ran.
//!
//! The test keeps its own copy of the corpus at every generation and
//! answers each query there with the tree walker, an oracle that
//! shares no code with the service's shards, stores or plans. A read
//! brackets itself with [`Service::generation`]; its answer must equal
//! the oracle's at some generation in that bracket. A token sweep,
//! whose pages span several requests, must concatenate to one such
//! generation's full result: a token made stale by an append recovers
//! by offset, and appends only add trees after the existing ones, so a
//! recovered sweep still reads as the later generation's result.
//!
//! Some appends carry tags first seen in that append, and the readers
//! ask for those tags from the start: a plan compiled (and cached)
//! before the append must answer correctly after it. A second history
//! swaps whole corpora instead, under the same per-request check. Its
//! token sweeps must complete without error, and a sweep that began
//! and ended in one generation must equal that generation's result; a
//! sweep a swap interrupts resumes by offset over different trees, so
//! its concatenation answers to no one generation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

use lpath::prelude::*;

const QUERIES: [&str; 8] = [
    "//NP",
    "//S//NP",
    "//VP/NP",
    "//NP[not(//DT)]",
    "//S/_[last()]", // no SQL translation: the walker fallback
    "//NEWA",        // first seen in the second append
    "//S//NEWB",     // first seen in the fourth append
    "//_[@lex=zebra]",
];

/// The appended batches: generated trees, some beside trees with
/// tags (and a lexeme) the corpus has not seen before.
fn batches() -> Vec<String> {
    let fresh = [
        "",
        "( (S (NEWA (NN zebra)) (VP (VBD ran))) )",
        "",
        "( (S (NP (NEWB (DT a) (NN zebra))) (VP (VBD left))) )\n( (S (NEWA (NEWB x))) )",
        "",
    ];
    fresh
        .iter()
        .enumerate()
        .map(|(i, extra)| {
            let trees = generate(&GenConfig::wsj(3).with_seed(100 + i as u64));
            format!("{}\n{extra}", trees.to_ptb_string())
        })
        .collect()
}

/// `want[g][q]`: the walker's answer to `QUERIES[q]` over
/// `generations[g]`, the test's own copy of generation `g`.
fn oracle(generations: &[String]) -> Oracle {
    let answers = |text: &String| {
        let corpus = parse_str(text).unwrap();
        let walker = Walker::new(&corpus);
        let answer = |q: &&str| walker.eval(&parse(q).unwrap());
        QUERIES.iter().map(answer).collect()
    };
    generations.iter().map(answers).collect()
}

type Oracle = Vec<Vec<Vec<(u32, NodeId)>>>;

/// One reader: cycles through the queries and the five request kinds
/// until the writer is done, then once more, checking each answer
/// against the generations live during it. Under `swaps`, a token
/// sweep that spans generations is checked only for completing.
/// Returns the number of checked reads.
fn read(svc: &Service, want: &Oracle, done: &AtomicBool, seed: usize, swaps: bool) -> usize {
    let mut checked = 0;
    let mut last_round = false;
    for round in 0.. {
        if last_round {
            break;
        }
        last_round = done.load(Ordering::SeqCst);
        let q = (round + seed) % QUERIES.len();
        let (query, kind) = (QUERIES[q], (round + seed) % 5);
        let g0 = svc.generation() as usize;
        // `ok(g)`: does the read match generation `g`?
        let ok: Box<dyn Fn(usize) -> bool + '_> = match kind {
            0 => {
                let rows = svc.eval(query).unwrap();
                Box::new(move |g| *rows == want[g][q])
            }
            1 => {
                let n = svc.count(query).unwrap();
                Box::new(move |g| n == want[g][q].len())
            }
            2 => {
                let found = svc.exists(query).unwrap();
                Box::new(move |g| found != want[g][q].is_empty())
            }
            3 => {
                // One batch sees one snapshot: both members at one `g`.
                let other = (q + 3) % QUERIES.len();
                let got = svc.eval_multi(&[query, QUERIES[other]]);
                let (a, b) = (got[0].as_ref().unwrap(), got[1].as_ref().unwrap());
                let (a, b) = (a.to_vec(), b.to_vec());
                Box::new(move |g| a == want[g][q] && b == want[g][other])
            }
            _ => {
                let (mut rows, mut token) = (Vec::new(), None);
                loop {
                    let page = svc.eval_page_token(query, token.as_deref(), 3).unwrap();
                    rows.extend_from_slice(&page.rows);
                    token = page.token;
                    if token.is_none() {
                        break;
                    }
                }
                // `g1` is read after the last page.
                let g1 = svc.generation() as usize;
                Box::new(move |g| rows == want[g][q] || (swaps && g0 != g1))
            }
        };
        let g1 = svc.generation() as usize;
        assert!(
            (g0..=g1).any(&ok),
            "reader {seed} round {round}: {query} (kind {kind}) matches no generation in {g0}..={g1}"
        );
        checked += 1;
    }
    checked
}

/// Run two readers while `write(svc, g)` moves the service to
/// generation `g`, for each `g` past the first of `generations`; then
/// check the final state. `swaps`: the writer replaces content rather
/// than appending to it.
fn history(generations: &[String], swaps: bool, write: impl Fn(&Service, usize)) {
    let want = oracle(generations);
    let svc = Service::with_config(
        &parse_str(&generations[0]).unwrap(),
        ServiceConfig {
            shards: 3,
            threads: 2,
            result_cache_capacity: 64,
            ..ServiceConfig::default()
        },
    );
    let done = AtomicBool::new(false);
    let checked = thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|seed| {
                let (svc, want, done) = (&svc, &want, &done);
                scope.spawn(move || read(svc, want, done, seed * 3, swaps))
            })
            .collect();
        for g in 1..generations.len() {
            thread::sleep(Duration::from_millis(15));
            write(&svc, g);
        }
        done.store(true, Ordering::SeqCst);
        let reads = readers.into_iter().map(|r| r.join().unwrap());
        reads.sum::<usize>()
    });
    let last = generations.len() - 1;
    assert_eq!(svc.generation() as usize, last);
    assert!(checked >= 2 * QUERIES.len(), "only {checked} reads checked");
    // After the writer: every query answers the final generation.
    for (q, query) in QUERIES.iter().enumerate() {
        assert_eq!(*svc.eval(query).unwrap(), want[last][q], "{query}");
    }
}

#[test]
fn concurrent_reads_match_a_live_generation() {
    let batches = batches();
    let mut generations = vec![generate(&GenConfig::wsj(24).with_seed(7)).to_ptb_string()];
    for batch in &batches {
        generations.push(format!("{}\n{batch}", generations.last().unwrap()));
    }
    history(&generations, false, |svc, g| {
        assert!(svc.append_ptb(&batches[g - 1]).unwrap() > 0);
    });
}

#[test]
fn reads_across_swaps_match_a_live_generation() {
    let generations: Vec<String> = batches()
        .iter()
        .enumerate()
        .map(|(i, batch)| {
            let trees = generate(&GenConfig::wsj(12).with_seed(200 + i as u64));
            format!("{}\n{batch}", trees.to_ptb_string())
        })
        .collect();
    history(&generations, true, |svc, g| {
        svc.swap_corpus(&parse_str(&generations[g]).unwrap());
    });
}
