//! Serialized-token invariants, property-tested across every layer.
//!
//! A paging token is a suspended enumeration flattened to hostile
//! bytes, so three things must hold for any corpus, query and page
//! schedule: (1) encoding a genuine checkpoint and decoding it back
//! is the identity — at the walker, engine and shard layers, for page
//! and count checkpoints alike, the re-encoded bytes are identical and
//! the resumed rows (or counts) match the never-serialized resume
//! exactly; (2) a token sweep through
//! [`Service::eval_page_token`] is byte-identical to in-process
//! offset paging at *every* row boundary, and re-issuing a token is
//! deterministic (the statelessness contract); (3) corrupted,
//! truncated or version-bumped tokens are typed rejections — or, when
//! a corruption happens to decode to the same bytes, harmless — and
//! never a panic.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is the acceptance floor of 256.

use proptest::prelude::*;

use lpath::prelude::*;
use lpath_core::QueryCheckpoint;
use lpath_relstore::{wire, CursorCheckpoint};
use lpath_service::shard::{CheckpointDecodeError, Payload};
use lpath_service::{CompiledQuery, ResultSet, Shard};

/// A random subtree of bounded depth/width in bracketed form.
fn arb_subtree(depth: u32) -> BoxedStrategy<String> {
    let tag = prop_oneof![
        Just("A".to_string()),
        Just("B".to_string()),
        Just("C".to_string()),
    ];
    let word = prop_oneof![
        Just("u".to_string()),
        Just("v".to_string()),
        Just("w".to_string()),
    ];
    if depth == 0 {
        (tag, word).prop_map(|(t, w)| format!("({t} {w})")).boxed()
    } else {
        let leaf = (
            prop_oneof![
                Just("A".to_string()),
                Just("B".to_string()),
                Just("C".to_string()),
            ],
            word,
        )
            .prop_map(|(t, w)| format!("({t} {w})"));
        let inner = (tag, prop::collection::vec(arb_subtree(depth - 1), 1..3))
            .prop_map(|(t, kids)| format!("({t} {})", kids.join(" ")));
        prop_oneof![2 => leaf, 2 => inner].boxed()
    }
}

/// Bracketed text for one to five random trees.
fn arb_treebank() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_subtree(2), 1..6)
        .prop_map(|trees| trees.iter().map(|t| format!("( (S {t}) )")).collect())
}

/// Queries spanning the serializable checkpoint variants: name
/// anchors, joins and negation (cursor state), attribute filters, the
/// walker fallback (tree watermark), and empty results.
const POOL: [&str; 8] = [
    "//A",
    "//_",
    "//S//B",
    "//A->B",
    "//A[not(//B)]",
    "//_[@lex=u]",
    "//S/_[last()]", // no SQL translation: walker-strategy checkpoints
    "//ZZZ",         // matches nothing anywhere
];

/// The URL-safe base64 alphabet tokens are written in.
const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Encode → decode → re-encode → resume, at the engine layer
/// (translatable queries only) and the shard layer (build-id tagged,
/// strategy dispatched), for the sweep payload `P`: the thawed
/// checkpoint re-encodes to the same bytes and resumes to exactly what
/// the live one yields.
fn round_trips_below_the_token<P>(
    corpus: &Corpus,
    compiled: &CompiledQuery,
    split: usize,
) -> Result<(), TestCaseError>
where
    P: Payload + Clone,
    P::Chunk: PartialEq + std::fmt::Debug,
{
    let (q, ast) = (&compiled.normalized, &compiled.ast);
    let frozen = |encode: &dyn Fn(&mut wire::Writer)| {
        let mut w = wire::Writer::new();
        encode(&mut w);
        w.into_bytes()
    };

    let engine = Engine::build(corpus);
    if let Ok((_, Some(ckpt))) = P::resume(&engine, ast, None, split) {
        let bytes = frozen(&|w| ckpt.encode_into(w));
        let mut r = wire::Reader::new(&bytes);
        let decoded = P::decode(&engine, ast, &mut r).expect("genuine engine checkpoint decodes");
        prop_assert!(r.finished(), "engine checkpoint fully consumed on {}", q);
        prop_assert_eq!(
            &bytes,
            &frozen(&|w| decoded.encode_into(w)),
            "engine re-encode on {}",
            q
        );
        let (live, _) = P::resume(&engine, ast, Some(ckpt), usize::MAX / 4).unwrap();
        let (thawed, _) = P::resume(&engine, ast, Some(decoded), usize::MAX / 4).unwrap();
        prop_assert_eq!(live, thawed, "engine resume through the wire on {}", q);
    }

    let shard = Shard::build(corpus, 0, corpus.trees().len(), 0);
    let (_, ckpt) = shard.resume::<P>(compiled, None, split).unwrap();
    if let Some(ckpt) = ckpt {
        let bytes = frozen(&|w| ckpt.encode_into(w));
        let mut r = wire::Reader::new(&bytes);
        let decoded = match shard.decode_checkpoint::<P>(compiled, &mut r) {
            Ok(c) => c,
            Err(CheckpointDecodeError::Stale(s)) => {
                return Err(TestCaseError::fail(format!("own checkpoint stale: {s}")))
            }
            Err(CheckpointDecodeError::Wire(e)) => {
                return Err(TestCaseError::fail(format!(
                    "own checkpoint malformed: {e}"
                )))
            }
        };
        prop_assert!(r.finished(), "shard checkpoint fully consumed on {}", q);
        prop_assert_eq!(
            &bytes,
            &frozen(&|w| decoded.encode_into(w)),
            "shard re-encode on {}",
            q
        );
        let (live, _) = shard.resume(compiled, Some(ckpt), usize::MAX / 4).unwrap();
        let (thawed, _) = shard
            .resume(compiled, Some(decoded), usize::MAX / 4)
            .unwrap();
        prop_assert_eq!(live, thawed, "shard resume through the wire on {}", q);
    }
    Ok(())
}

/// Byte offsets into a token (see `lpath_service::token`): `ver` u16,
/// `query_fp` u64 and `corpus_stamp` u64 precede `progress`; a page
/// token's `mode` byte, then `shard` u16, precede `within`.
const PROGRESS: usize = 18;
const PAGE_WITHIN: usize = 29;
const COUNT_WITHIN: usize = 28;

/// Overwrite the little-endian `u64` at byte `at` of a token and
/// re-seal it: the checksum is unkeyed, so any client can.
fn reseal(token: &str, at: usize, value: u64) -> String {
    let mut bytes = wire::b64_decode(token).unwrap();
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    let body_len = bytes.len() - 8;
    let sum = wire::fnv1a(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    wire::b64_encode(&bytes)
}

/// Re-seal a token as parked at `within` in its shard with no
/// checkpoint: `within` (at byte `at`) rewritten, `has_ckpt` cleared,
/// the checkpoint cut off. No honest sweep parks like that.
fn strip_checkpoint(token: &str, at: usize, within: u64) -> String {
    let mut bytes = wire::b64_decode(&reseal(token, at, within)).unwrap();
    bytes.truncate(at + 9);
    bytes[at + 8] = 0;
    bytes.extend(wire::fnv1a(&bytes).to_le_bytes());
    wire::b64_encode(&bytes)
}

fn service_over(corpus: &Corpus, shards: usize) -> Service {
    Service::with_config(
        corpus,
        ServiceConfig {
            shards,
            threads: 1,
            ..ServiceConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(256),
        ..ProptestConfig::default()
    })]

    /// Encode → decode → encode is the identity at every layer that
    /// serializes a checkpoint, and the decoded checkpoint resumes to
    /// exactly the rows the live one would have produced.
    #[test]
    fn checkpoint_wire_round_trips_at_every_layer(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
        split in 1usize..12,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let ast = parse(q).unwrap();

        // Walker checkpoints.
        let walker = Walker::new(&corpus);
        let (_, ckpt) = walker.eval_resume(&ast, None, split);
        if let Some(ckpt) = ckpt {
            let mut w = wire::Writer::new();
            ckpt.encode_into(&mut w);
            let bytes = w.into_bytes();
            let mut r = wire::Reader::new(&bytes);
            let decoded = lpath_core::WalkerCheckpoint::decode(&mut r, &corpus)
                .expect("genuine walker checkpoint decodes");
            prop_assert!(r.finished(), "walker checkpoint fully consumed on {}", q);
            let mut w2 = wire::Writer::new();
            decoded.encode_into(&mut w2);
            prop_assert_eq!(&bytes, &w2.into_bytes(), "walker re-encode on {}", q);
            let (live, _) = walker.eval_resume(&ast, Some(ckpt), usize::MAX);
            let (thawed, _) = walker.eval_resume(&ast, Some(decoded), usize::MAX);
            prop_assert_eq!(live, thawed, "walker resume through the wire on {}", q);
        }

        // Engine and shard checkpoints, for both payloads: rows
        // (`QueryCheckpoint`) and counts (`CursorCheckpoint`).
        let svc = service_over(&corpus, 1);
        let compiled = svc.compile(q).unwrap();
        round_trips_below_the_token::<QueryCheckpoint>(&corpus, &compiled, split)?;
        round_trips_below_the_token::<CursorCheckpoint>(&corpus, &compiled, split)?;
    }

    /// A token handed out at any row boundary continues to exactly the
    /// rows in-process offset paging serves from that boundary — and
    /// re-issuing the same token is deterministic, which is the
    /// statelessness contract (nothing server-side distinguishes the
    /// first echo from the second).
    #[test]
    fn token_resume_matches_in_process_paging_at_every_boundary(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
        shards in 1usize..4,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let svc = service_over(&corpus, shards);
        let full = (*svc.eval(q).unwrap()).clone();
        for boundary in 1..=full.len() {
            let head = svc.eval_page_token(q, None, boundary).unwrap();
            prop_assert_eq!(&head.rows[..], &full[..boundary], "head at {} on {}", boundary, q);
            let Some(token) = head.token else {
                prop_assert_eq!(boundary, full.len(), "early exhaustion on {}", q);
                continue;
            };
            let tail = svc.eval_page_token(q, Some(&token), usize::MAX - 1).unwrap();
            prop_assert_eq!(&tail.rows[..], &full[boundary..], "tail at {} on {}", boundary, q);
            prop_assert!(tail.token.is_none(), "tail exhausts on {}", q);
            let again = svc.eval_page_token(q, Some(&token), usize::MAX - 1).unwrap();
            prop_assert_eq!(&tail.rows, &again.rows, "re-issue at {} on {}", boundary, q);
            prop_assert_eq!(&tail.token, &again.token, "re-issued token at {} on {}", boundary, q);
            let offset: ResultSet = svc.eval_page(q, boundary, full.len() - boundary + 1).unwrap();
            prop_assert_eq!(&tail.rows, &offset, "offset parity at {} on {}", boundary, q);
        }
    }

    /// Single-character corruption anywhere in a token either fails
    /// with a typed [`ServiceError::BadToken`] or (when the flipped
    /// bits are padding the decoder ignores) serves exactly the
    /// original continuation — and never panics. Truncation at every
    /// boundary is likewise panic-free.
    #[test]
    fn corrupted_and_truncated_tokens_never_panic(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
        at in 0usize..4096,
        sub in 0usize..64,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let svc = service_over(&corpus, 2);
        let Some(token) = svc.eval_page_token(q, None, 1).unwrap().token else {
            return Ok(()); // single-row or empty result: nothing to corrupt
        };
        let reference = svc.eval_page_token(q, Some(&token), 3).unwrap();

        let i = at % token.len();
        let replacement = ALPHABET[sub % ALPHABET.len()];
        let mut bad = token.clone().into_bytes();
        if bad[i] == replacement {
            return Ok(()); // identity substitution: nothing corrupted
        }
        bad[i] = replacement;
        let bad = String::from_utf8(bad).unwrap();
        match svc.eval_page_token(q, Some(&bad), 3) {
            Err(ServiceError::BadToken(_)) => {}
            Ok(page) => {
                prop_assert_eq!(&page.rows, &reference.rows, "harmless corruption on {}", q);
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error class: {other}")))
            }
        }

        for cut in 0..token.len() {
            let _ = svc.eval_page_token(q, Some(&token[..cut]), 3);
        }

        // Re-sealed forgeries: `progress` at `u64::MAX` overflows as
        // soon as the page serves a row, and a `within` beyond the
        // progress is refused on sight — typed rejections, never a
        // panic or a wrapped offset.
        match svc.eval_page_token(q, Some(&reseal(&token, PROGRESS, u64::MAX)), 3) {
            Err(ServiceError::BadToken(_)) => prop_assert!(!reference.rows.is_empty()),
            Ok(page) => prop_assert!(page.rows.is_empty() && reference.rows.is_empty()),
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error class: {other}")))
            }
        }
        let far = reseal(&token, PAGE_WITHIN, u64::MAX);
        prop_assert!(
            matches!(svc.eval_page_token(q, Some(&far), 3), Err(ServiceError::BadToken(_))),
            "page position beyond its progress accepted on {}", q
        );
        // Honoured, a mid-shard position without its checkpoint would
        // serve the shard from its first row again.
        let bare = strip_checkpoint(&token, PAGE_WITHIN, 1);
        prop_assert!(
            matches!(svc.eval_page_token(q, Some(&bare), 3), Err(ServiceError::BadToken(_))),
            "page position without its checkpoint accepted on {}", q
        );
    }

    /// The same hostile-bytes discipline for **count** tokens:
    /// single-character corruption is a typed rejection or harmless
    /// (same continuation), truncation at every boundary never
    /// panics, and a count sweep driven only by echoed tokens always
    /// lands on the one-shot count.
    #[test]
    fn corrupted_and_truncated_count_tokens_never_panic(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
        at in 0usize..4096,
        sub in 0usize..64,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let svc = service_over(&corpus, 2);
        let first = svc.count_token(q, None, 1).unwrap();
        let Some(token) = first.token else {
            return Ok(()); // counted out within the first budget
        };
        let reference = svc.count_token(q, Some(&token), usize::MAX).unwrap();
        prop_assert_eq!(
            reference.total, Some(svc.count(q).unwrap() as u64),
            "token sweep lands on the one-shot count on {}", q
        );

        let i = at % token.len();
        let replacement = ALPHABET[sub % ALPHABET.len()];
        let mut bad = token.clone().into_bytes();
        if bad[i] == replacement {
            return Ok(()); // identity substitution: nothing corrupted
        }
        bad[i] = replacement;
        let bad = String::from_utf8(bad).unwrap();
        match svc.count_token(q, Some(&bad), usize::MAX) {
            Err(ServiceError::BadToken(_)) => {}
            Ok(page) => {
                prop_assert_eq!(page.so_far, reference.so_far, "harmless corruption on {}", q);
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error class: {other}")))
            }
        }

        for cut in 0..token.len() {
            let _ = svc.count_token(q, Some(&token[..cut]), 3);
        }

        // Re-sealed forgeries, as for page tokens: a `progress` at
        // `u64::MAX` overflows once anything more is counted, a
        // `within` beyond the progress is refused on sight.
        let rest = reference.so_far - first.so_far;
        match svc.count_token(q, Some(&reseal(&token, PROGRESS, u64::MAX)), usize::MAX) {
            Err(ServiceError::BadToken(_)) => prop_assert!(rest > 0),
            Ok(page) => prop_assert!(rest == 0 && page.so_far == u64::MAX),
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error class: {other}")))
            }
        }
        let far = reseal(&token, COUNT_WITHIN, u64::MAX);
        prop_assert!(
            matches!(svc.count_token(q, Some(&far), usize::MAX), Err(ServiceError::BadToken(_))),
            "count position beyond its progress accepted on {}", q
        );
        // Honoured, a mid-shard position without its checkpoint would
        // recount the shard from its first match.
        let bare = strip_checkpoint(&token, COUNT_WITHIN, first.so_far);
        prop_assert!(
            first.so_far == 0
                || matches!(
                    svc.count_token(q, Some(&bare), usize::MAX),
                    Err(ServiceError::BadToken(_))
                ),
            "count position without its checkpoint accepted on {}", q
        );

        // Count and paging tokens are version-gated apart: echoing
        // one where the other belongs is a typed rejection, never a
        // misread (both checksum cleanly).
        match svc.eval_page_token(q, Some(&token), 3) {
            Err(ServiceError::BadToken(_)) => {}
            other => {
                return Err(TestCaseError::fail(format!(
                    "count token accepted as page token: {other:?}"
                )))
            }
        }
        if let Some(page_token) = svc.eval_page_token(q, None, 1).unwrap().token {
            match svc.count_token(q, Some(&page_token), 3) {
                Err(ServiceError::BadToken(_)) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "page token accepted as count token: {other:?}"
                    )))
                }
            }
        }
    }

    /// A count token held across an `append_ptb` is stale, not
    /// broken: the service discards the suspended position, recounts
    /// current content, and answers a final page whose total is the
    /// post-append count — and the `stale_checkpoints` counter
    /// advances.
    #[test]
    fn stale_count_tokens_recover_against_current_content(
        trees in arb_treebank(),
        extra in arb_treebank(),
        qi in 0usize..POOL.len(),
        shards in 1usize..4,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let svc = service_over(&corpus, shards);
        let Some(token) = svc.count_token(q, None, 1).unwrap().token else {
            return Ok(()); // counted out before any checkpoint existed
        };
        let before = svc.stats().stale_checkpoints;
        svc.append_ptb(&extra.join("\n")).unwrap();
        let page = svc.count_token(q, Some(&token), 1).unwrap();
        prop_assert_eq!(
            page.total, Some(svc.count(q).unwrap() as u64),
            "stale recovery recounts current content on {}", q
        );
        prop_assert_eq!(page.so_far, page.total.unwrap(), "recovery page is final on {}", q);
        prop_assert!(page.token.is_none(), "no token after recovery on {}", q);
        prop_assert!(svc.stats().stale_checkpoints > before, "recovery counted on {}", q);
    }
}

// ---------------------------------------------------------------
// Version skew, deterministically
// ---------------------------------------------------------------

/// A token whose envelope version was bumped — with the checksum
/// recomputed so only the version check can reject it — fails with
/// exactly [`wire::WireError::Version`], and the rejection counter
/// advances.
#[test]
fn version_bumped_tokens_are_rejected_with_the_version() {
    let corpus = generate(&GenConfig::wsj(10).with_seed(3));
    let svc = service_over(&corpus, 2);
    let token = svc
        .eval_page_token("//NP", None, 1)
        .unwrap()
        .token
        .expect("a 10-sentence corpus has many NPs");
    let mut bytes = wire::b64_decode(&token).unwrap();
    let body_len = bytes.len() - 8;
    let bumped = u16::from_le_bytes([bytes[0], bytes[1]]) + 1;
    bytes[0..2].copy_from_slice(&bumped.to_le_bytes());
    let sum = wire::fnv1a(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    let forged = wire::b64_encode(&bytes);
    let before = svc.stats().tokens_rejected;
    match svc.eval_page_token("//NP", Some(&forged), 1) {
        Err(ServiceError::BadToken(wire::WireError::Version(v))) => assert_eq!(v, bumped),
        other => panic!("expected a version rejection, got {other:?}"),
    }
    assert_eq!(svc.stats().tokens_rejected, before + 1);
}

// ---------------------------------------------------------------
// Offset-only tokens, across an append
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: ProptestConfig::cases_or_env(256),
        ..ProptestConfig::default()
    })]

    /// A page token held across an `append_ptb` is stale: the sweep
    /// re-enters at the token's global offset against current content
    /// and continues on offset-only tokens to exhaustion. The rows
    /// served before the append, followed by those served after it,
    /// are the served rows followed by the current
    /// [`Service::eval`] from that offset on — and the
    /// `stale_checkpoints` counter advances.
    #[test]
    fn page_tokens_held_across_an_append_continue_by_offset(
        trees in arb_treebank(),
        extra in arb_treebank(),
        qi in 0usize..POOL.len(),
        shards in 1usize..4,
        limit in 1usize..6,
        pages_before in 1usize..4,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let svc = service_over(&corpus, shards);
        let (mut served, mut token) = (Vec::new(), None);
        for _ in 0..pages_before {
            let page = svc.eval_page_token(q, token.as_deref(), limit).unwrap();
            served.extend_from_slice(&page.rows);
            token = page.token;
            if token.is_none() {
                return Ok(()); // swept out before the append
            }
        }
        let before = svc.stats().stale_checkpoints;
        svc.append_ptb(&extra.join("\n")).unwrap();
        let mut after = Vec::new();
        while let Some(t) = token {
            let page = svc.eval_page_token(q, Some(&t), limit).unwrap();
            after.extend_from_slice(&page.rows);
            token = page.token;
        }
        let now = svc.eval(q).unwrap();
        prop_assert_eq!(
            &after[..], now.get(served.len()..).unwrap_or(&[]),
            "the sweep continues at its offset on {}", q
        );
        prop_assert!(svc.stats().stale_checkpoints > before, "recovery counted on {}", q);
    }
}

// ---------------------------------------------------------------
// Forged checkpoint rows, deterministically
// ---------------------------------------------------------------

/// Byte offsets into a positioned page token with a checkpoint: the
/// shard index precedes `within`; `has_ckpt` follows it; then the
/// checkpoint's build id (u64), strategy tag (u8) and first u64 field
/// (`plan_k` on the relational strategy, `next_tree` on the walker)
/// precede the count of its pending rows.
const PAGE_SHARD: usize = PAGE_WITHIN - 2;
const HAS_CKPT: usize = PAGE_WITHIN + 8;
const STRATEGY: usize = HAS_CKPT + 1 + 8;
const PENDING_LEN: usize = STRATEGY + 1 + 8;

/// Splice `(tree, node)` in front of a token's pending checkpoint rows
/// and re-seal it.
fn splice_pending_row(token: &str, (tree, node): (u32, u32)) -> String {
    let mut bytes = wire::b64_decode(token).unwrap();
    let len = &mut bytes[PENDING_LEN..PENDING_LEN + 8];
    let n = u64::from_le_bytes((&*len).try_into().unwrap());
    len.copy_from_slice(&(n + 1).to_le_bytes());
    let at = PENDING_LEN + 8;
    let row = tree.to_le_bytes().into_iter().chain(node.to_le_bytes());
    bytes.splice(at..at, row);
    bytes.truncate(bytes.len() - 8);
    bytes.extend(wire::fnv1a(&bytes).to_le_bytes());
    wire::b64_encode(&bytes)
}

/// A re-sealed token whose checkpoint carries a row that is not a node
/// of its shard — a node id past its tree, or a tree id past the
/// shard — is a counted [`ServiceError::BadToken`] on both execution
/// strategies: never served as a match, never an arithmetic panic.
/// Nor does a spliced row, honest or forged, reach the shared result
/// or checkpoint stores: afterwards a full `eval` and a fresh token
/// sweep still equal the tree walker's answer.
#[test]
fn forged_checkpoint_rows_are_rejected_not_served() {
    let corpus = generate(&GenConfig::wsj(10).with_seed(3));
    let svc = service_over(&corpus, 2);
    let walker = Walker::new(&corpus);
    let stores_are_clean = |q: &str| {
        let want = walker.eval(&parse(q).unwrap());
        assert_eq!(*svc.eval(q).unwrap(), want, "eval of {q}");
        let mut swept = Vec::new();
        let mut token = None;
        loop {
            let page = svc.eval_page_token(q, token.as_deref(), 4).unwrap();
            swept.extend_from_slice(&page.rows);
            match page.token {
                Some(t) => token = Some(t),
                None => break,
            }
        }
        assert_eq!(swept, want, "token sweep of {q}");
    };
    // `//NP` pages on the relational strategy (tag 0), `//VP/_[last()]`
    // has no SQL translation and pages on the walker (tag 1).
    for (q, strategy) in [("//NP", 0u8), ("//VP/_[last()]", 1)] {
        // Step one row at a time until the sweep parks inside shard 1.
        let mut token = svc.eval_page_token(q, None, 1).unwrap().token;
        let token = loop {
            let t = token.unwrap_or_else(|| panic!("{q} never parks inside shard 1"));
            let bytes = wire::b64_decode(&t).unwrap();
            if bytes[PAGE_SHARD] == 1 && bytes[HAS_CKPT] == 1 {
                assert_eq!(bytes[STRATEGY], strategy, "{q}");
                break t;
            }
            token = svc.eval_page_token(q, Some(&t), 1).unwrap().token;
        };
        // The splice itself is sound: a genuine element (the root of
        // the shard's first tree) is accepted and served first.
        let honest = svc
            .eval_page_token(q, Some(&splice_pending_row(&token, (0, 0))), 1)
            .unwrap();
        let first_tree = (corpus.trees().len() / 2) as u32;
        assert_eq!(honest.rows, [(first_tree, NodeId(0))], "{q}");
        stores_are_clean(q);

        for row in [(0, 9999), (u32::MAX, 0)] {
            let before = svc.stats().tokens_rejected;
            match svc.eval_page_token(q, Some(&splice_pending_row(&token, row)), 3) {
                Err(ServiceError::BadToken(_)) => {}
                other => panic!("{q}: forged row {row:?} not rejected: {other:?}"),
            }
            assert_eq!(svc.stats().tokens_rejected, before + 1, "{q} {row:?}");
        }
        stores_are_clean(q);
    }
}
