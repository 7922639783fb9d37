//! Token invariants, property-tested.
//!
//! A paging token is a sealed position — a shard, a tree in it, and
//! how many of that tree's matches were already served — in hostile
//! hands, so three things must hold for any corpus, query and page
//! schedule: (1) a token sweep through [`Service::eval_page_token`] is
//! byte-identical to in-process offset paging at *every* row
//! boundary, and re-issuing a token is deterministic (the
//! statelessness contract); (2) a token re-sealed at *any* position
//! either is a counted, typed rejection or continues with a
//! contiguous run of the query's own result — never a non-match; (3)
//! corrupted, truncated or version-bumped tokens are typed rejections
//! — or, when a corruption happens to decode to the same bytes,
//! harmless — and never a panic.
//!
//! `PROPTEST_CASES` scales the case count (CI's nightly sweep raises
//! it); the default here is the acceptance floor of 256.

use proptest::prelude::*;

use lpath::prelude::*;
use lpath_relstore::wire;
use lpath_service::ResultSet;

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

/// Queries spanning the executors a token's page runs on: semijoin
/// programs (name anchors, joins and negation, attribute filters), the
/// cursor (a multi-step scope), the walker fallback, and empty
/// results.
const POOL: [&str; 9] = [
    "//A",
    "//_",
    "//S//B",
    "//A->B",
    "//A[not(//B)]",
    "//_[@lex=u]",
    "//S{/A-->B}",   // cyclic: pages on the cursor
    "//S/_[last()]", // no SQL translation: pages on the walker
    "//ZZZ",         // matches nothing anywhere
];

/// The URL-safe base64 alphabet tokens are written in.
const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_";

/// Byte offsets into a token (see `lpath_service::token`): `ver` u16,
/// `query_fp` u64 and `corpus_stamp` u64 precede `progress` u64; then
/// the position: `shard` u16, `tree` u32, `skip` u32.
const PROGRESS: usize = 18;
const SHARD: usize = 26;
const TREE: usize = 28;
const SKIP: usize = 32;

/// Overwrite the little-endian bytes at `at` of a token with `value`
/// and re-seal it: the checksum is unkeyed, so any client can.
fn reseal(token: &str, at: usize, value: &[u8]) -> String {
    let mut bytes = wire::b64_decode(token).unwrap();
    bytes[at..at + value.len()].copy_from_slice(value);
    let body_len = bytes.len() - 8;
    let sum = wire::fnv1a(&bytes[..body_len]);
    bytes[body_len..].copy_from_slice(&sum.to_le_bytes());
    wire::b64_encode(&bytes)
}

/// A token re-sealed at position `(shard, tree, skip)`.
fn reposition(token: &str, shard: u16, tree: u32, skip: u32) -> String {
    let token = reseal(token, SHARD, &shard.to_le_bytes());
    let token = reseal(&token, TREE, &tree.to_le_bytes());
    reseal(&token, SKIP, &skip.to_le_bytes())
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

    /// A page or count token re-sealed at any position `(shard, tree,
    /// skip)` is either a counted [`ServiceError::BadToken`] — exactly
    /// when the shard does not exist, the tree lies past the shard's
    /// last tree, or a count token parks inside a tree — or continues
    /// with the query's own result from that position on: the rows of
    /// the shard's trees from `tree` on, less the first `skip` matches
    /// of `tree`, then every later shard's. Never a non-match, never a
    /// panic.
    #[test]
    fn forged_positions_page_a_contiguous_run_or_are_rejected(
        trees in arb_treebank(),
        qi in 0usize..POOL.len(),
        shards in 1usize..4,
        shard in 0u16..5,
        tree in 0u32..8,
        skip in 0u32..5,
        limit in 1usize..5,
    ) {
        let corpus = parse_str(&trees.join("\n")).expect("generated treebank parses");
        let q = POOL[qi];
        let svc = service_over(&corpus, shards);
        let full = svc.eval(q).unwrap();
        // A zero-budget step mints a token parked at the start.
        let Some(page_token) = svc.eval_page_token(q, None, 0).unwrap().token else {
            return Ok(()); // proven empty: no token to forge
        };
        let count_token = svc.count_token(q, None, 0).unwrap().token.expect("parked at the start");
        let stats = svc.stats();
        let valid = stats.per_shard.get(shard as usize).filter(|s| tree as usize <= s.trees);
        // The first row of global tree `t` or later.
        let first = |t: u32| full.iter().position(|m| m.0 >= t).unwrap_or(full.len());

        let forged = reposition(&page_token, shard, tree, skip);
        let rejected = stats.tokens_rejected;
        let mut token = Some(forged);
        let mut rows = Vec::new();
        while let Some(t) = token {
            match svc.eval_page_token(q, Some(&t), limit) {
                Ok(page) => {
                    rows.extend_from_slice(&page.rows);
                    token = page.token;
                }
                Err(ServiceError::BadToken(_)) => {
                    prop_assert!(valid.is_none(), "valid position rejected on {}", q);
                    prop_assert_eq!(svc.stats().tokens_rejected, rejected + 1);
                    break;
                }
                Err(other) => {
                    return Err(TestCaseError::fail(format!("unexpected error class: {other}")))
                }
            }
        }
        if let Some(s) = valid {
            let global = s.base + tree;
            let from = if (tree as usize) < s.trees {
                let in_tree = full[first(global)..].iter().take_while(|m| m.0 == global).count();
                first(global) + (skip as usize).min(in_tree)
            } else {
                first(global)
            };
            prop_assert_eq!(&rows[..], &full[from..], "{} from ({}, {}, {})", q, shard, tree, skip);
        }

        let forged = reposition(&count_token, shard, tree, skip);
        let rejected = svc.stats().tokens_rejected;
        match svc.count_token(q, Some(&forged), usize::MAX) {
            Ok(page) => {
                let s = valid.filter(|_| skip == 0);
                let s = s.ok_or_else(|| TestCaseError::fail(format!("{q}: forged count accepted")))?;
                let from = first(s.base + tree);
                prop_assert_eq!(page.total, Some((full.len() - from) as u64), "count on {}", q);
            }
            Err(ServiceError::BadToken(_)) => {
                prop_assert!(valid.is_none() || skip != 0, "valid count position rejected on {}", q);
                prop_assert_eq!(svc.stats().tokens_rejected, rejected + 1);
            }
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error class: {other}")))
            }
        }
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

        // A re-sealed `progress` at `u64::MAX` overflows as soon as
        // the page serves a row: a typed rejection, never a panic or a
        // wrapped offset.
        let overflowing = reseal(&token, PROGRESS, &u64::MAX.to_le_bytes());
        match svc.eval_page_token(q, Some(&overflowing), 3) {
            Err(ServiceError::BadToken(_)) => prop_assert!(!reference.rows.is_empty()),
            Ok(page) => prop_assert!(page.rows.is_empty() && reference.rows.is_empty()),
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error class: {other}")))
            }
        }
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

        // A re-sealed `progress` at `u64::MAX` overflows once anything
        // more is counted, as for page tokens.
        let rest = reference.so_far - first.so_far;
        let overflowing = reseal(&token, PROGRESS, &u64::MAX.to_le_bytes());
        match svc.count_token(q, Some(&overflowing), usize::MAX) {
            Err(ServiceError::BadToken(_)) => prop_assert!(rest > 0),
            Ok(page) => prop_assert!(rest == 0 && page.so_far == u64::MAX),
            Err(other) => {
                return Err(TestCaseError::fail(format!("unexpected error class: {other}")))
            }
        }

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
    /// and continues on position tokens to exhaustion. The rows
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
