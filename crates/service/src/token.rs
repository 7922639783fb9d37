//! Opaque, stateless paging tokens: a sealed [`SweepPos`], minted by
//! [`Service::eval_page_token`] and [`Service::count_token`] and echoed
//! back by the client.
//!
//! Trees partition the corpus and no match crosses one, so where a
//! sweep stopped is fully described by a position — the shard, the
//! shard-local tree to continue from, and how many of that tree's
//! matches were already served. A token carries that position plus
//! the query's fingerprint, a stamp of the corpus content it was
//! minted against and the sweep's progress, so the server keeps **no**
//! per-client session state: any server process holding the same
//! corpus can continue any client's sweep from the token alone.
//!
//! # Wire format
//!
//! URL-safe base64 (no padding) over 44 bytes, 59 characters:
//!
//! ```text
//! ver          u16   3 = page token, 4 = count token
//! query_fp     u64   FNV-1a of the normalized query text
//! corpus_stamp u64   FNV-1a over all shard build ids, in shard order
//! progress     u64   rows already served / matches already counted
//! shard        u16   shard the sweep is parked in
//! tree         u32   shard-local tree to continue from
//! skip         u32   matches of that tree already served (0 in count
//!                    tokens: a count parks only at a tree boundary)
//! checksum     u64   FNV-1a over every preceding byte
//! ```
//!
//! Versions 1 and 2 were the page and count tokens that carried a
//! serialized execution state; they open to a typed
//! [`ServiceError::BadToken`] carrying their version.
//!
//! # Trust boundary
//!
//! Tokens cross the network, so opening treats them as hostile. The
//! checksum (unkeyed: it catches corruption, not forgery) gates
//! parsing, and the body is fixed-size. A client can re-seal any
//! position, but a position names only *where* to continue, never a
//! row or an execution state, so a forged token gets a different
//! contiguous run of the query's own result, or a typed error — never
//! a non-match and never a panic. Three outcomes:
//!
//! * **valid** — the stamp matches, the shard exists and the tree is
//!   at most its tree count: the sweep continues from the position;
//! * **stale** — a well-formed token whose corpus stamp no longer
//!   matches (the corpus was appended to, or the server restarted onto
//!   different content): recovered silently by re-entering at the
//!   token's progress as a global offset, and the next token is a
//!   position in current content ([`ServiceStats::stale_checkpoints`]
//!   advances);
//! * **malformed** — truncated / corrupted / version-skewed / minted
//!   for a different query / positioned outside the corpus: a typed
//!   [`ServiceError::BadToken`] ([`ServiceStats::tokens_rejected`]
//!   advances).

use std::sync::Arc;

use lpath_core::Position;
use lpath_relstore::wire;
use lpath_relstore::wire::WireError::Malformed;

use crate::plan::CompiledQuery;
use crate::shard::Shard;
use crate::stats::Class;
use crate::sweep::SweepPos;
use crate::{ResultSet, Service, ServiceError};

#[cfg(doc)]
use crate::ServiceStats;

/// Page-token format version; bumped on any layout change so old
/// tokens are rejected with [`wire::WireError::Version`] instead of
/// being misparsed.
pub const TOKEN_VERSION: u16 = 3;

/// Count-token format version. Deliberately distinct from
/// [`TOKEN_VERSION`]: a page token echoed to the count endpoint (or
/// vice versa) fails the version gate outright — both layouts
/// checksum cleanly, so the version word is what keeps them apart.
pub const COUNT_TOKEN_VERSION: u16 = 4;

/// One page of a token-driven sweep: the rows plus the opaque token
/// that continues the enumeration — `None` once the result set is
/// known exhausted (as on the default, empty page).
#[derive(Clone, Debug, Default)]
pub struct Page {
    /// The page's matches, in document order.
    pub rows: ResultSet,
    /// Echo this to [`Service::eval_page_token`] for the next page;
    /// `None` means the sweep is complete.
    pub token: Option<String>,
}

/// One step of a token-driven count sweep: the cumulative count plus
/// the opaque token that continues it — `None` once the count is
/// complete.
#[derive(Clone, Debug)]
pub struct CountPage {
    /// Matches counted so far across the whole sweep, this call
    /// included.
    pub so_far: u64,
    /// The complete count, once the sweep finished (then equal to
    /// `so_far`); `None` while matches remain uncounted.
    pub total: Option<u64>,
    /// Echo this to [`Service::count_token`] to continue; `None` means
    /// the count is complete.
    pub token: Option<String>,
}

/// FNV-1a fingerprint of the normalized query text — ties a token to
/// the query it pages, so echoing it with a different query is a
/// typed error instead of silently wrong rows.
fn query_fp(compiled: &CompiledQuery) -> u64 {
    wire::fnv1a(compiled.normalized.as_bytes())
}

/// FNV-1a over all shard build ids in shard order: one word that
/// changes whenever any shard's content does, so a token's position
/// is only ever read against the content it was taken in.
fn corpus_stamp(shards: &[Arc<Shard>]) -> u64 {
    let mut w = wire::Writer::new();
    for s in shards {
        w.u64(s.build_id());
    }
    wire::fnv1a(w.bytes())
}

impl Service {
    /// One page of the query's document-ordered result, driven by an
    /// opaque resumption token instead of a numeric offset.
    ///
    /// Pass `token: None` for the first page; echo the returned
    /// [`Page::token`] for each subsequent one. Concatenating the
    /// pages of a full sweep is byte-identical to [`Service::eval`]
    /// (and to an offset sweep through [`Service::eval_page`]) over
    /// unchanged content. A token is a position, so its page
    /// evaluates only from there: the shard it names pages from its
    /// tree on, with every cache cold, on *any* server process holding
    /// the same corpus.
    ///
    /// A stale token (minted before an [`Service::append_ptb`] or
    /// against a different build of the corpus) is not an error: the
    /// sweep re-enters at the token's global offset against current
    /// content, [`ServiceStats::stale_checkpoints`] advances, and the
    /// token minted with that page is a position in current content.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadToken`] when `token` is present but
    /// malformed (truncated, corrupted, wrong version, minted for a
    /// different query, or positioned outside the corpus);
    /// [`ServiceError::Syntax`] when the query does not parse.
    pub fn eval_page_token(
        &self,
        query: &str,
        token: Option<&str>,
        limit: usize,
    ) -> Result<Page, ServiceError> {
        self.counters.pages.bump();
        self.solo(Class::EvalPage, query, Page::default(), |req, compiled| {
            let (emitted, pos) = match token {
                None => (0, Some(SweepPos::default())),
                Some(t) => self.open_token(TOKEN_VERSION, t, compiled, &req.shards)?,
            };
            let (rows, next) = match pos {
                Some(pos) => self.page_positioned(req, compiled, pos, limit),
                // Stale-token recovery: serve the page by global offset
                // through `eval_page`'s walk, whose build-id-scoped row
                // store keeps repeated recoveries from re-enumerating.
                None => {
                    let offset = usize::try_from(emitted).unwrap_or(usize::MAX);
                    self.page_by_offset(req, compiled, offset, limit)
                }
            };
            let emitted = emitted
                .checked_add(rows.len() as u64)
                .ok_or_else(|| self.bad_token(Malformed("token progress overflows")))?;
            let token =
                next.map(|pos| self.mint(TOKEN_VERSION, compiled, &req.shards, emitted, pos));
            Ok(Page { rows, token })
        })
    }

    /// Mint a token (see the module docs for the layout): the envelope
    /// — `ver`, `query_fp`, `corpus_stamp` — the sweep's `progress` and
    /// parked position, an FNV-1a checksum over all of it, in URL-safe
    /// base64.
    fn mint(
        &self,
        version: u16,
        compiled: &CompiledQuery,
        shards: &[Arc<Shard>],
        progress: u64,
        pos: SweepPos,
    ) -> String {
        self.counters.tokens_minted.bump();
        let mut w = wire::Writer::new();
        w.u16(version);
        w.u64(query_fp(compiled));
        w.u64(corpus_stamp(shards));
        w.u64(progress);
        w.u16(pos.shard);
        w.u32(pos.at.tree);
        w.u32(pos.at.skip);
        let sum = wire::fnv1a(w.bytes());
        w.u64(sum);
        wire::b64_encode(w.bytes())
    }

    /// One budgeted step of a token-driven count: the stateless form
    /// of [`Service::count_resume`], for clients across a network
    /// edge. Pass `token: None` to start; echo [`CountPage::token`]
    /// until [`CountPage::total`] arrives. Over unchanged content the
    /// final `total` equals [`Service::count`]; each call counts whole
    /// trees until its budget is spent (aggregate-table shards are
    /// O(1), so `so_far` may overshoot the budget — it bounds work,
    /// not the count).
    ///
    /// A stale token (the corpus changed mid-sweep) is not an error:
    /// the sweep finishes by recounting current content outright —
    /// cheap, since the count store and aggregate tables answer — and
    /// returns a final page ([`ServiceStats::stale_checkpoints`]
    /// advances).
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadToken`] when `token` is present but
    /// malformed (truncated, corrupted, version-skewed — including a
    /// *paging* token echoed here — minted for a different query, or
    /// positioned outside the corpus or inside a tree);
    /// [`ServiceError::Syntax`] when the query does not parse.
    pub fn count_token(
        &self,
        query: &str,
        token: Option<&str>,
        budget: usize,
    ) -> Result<CountPage, ServiceError> {
        self.counters.count_resumes.bump();
        let page = |so_far: u64, token: Option<String>| CountPage {
            so_far,
            total: token.is_none().then_some(so_far),
            token,
        };
        self.solo(Class::Count, query, page(0, None), |req, compiled| {
            let (prior, pos) = match token {
                None => (0, Some(SweepPos::default())),
                Some(t) => self.open_token(COUNT_TOKEN_VERSION, t, compiled, &req.shards)?,
            };
            // A stale token: its position indexes content that is
            // gone, so finish by recounting current content.
            let Some(pos) = pos else {
                return Ok(page(self.count_whole(req, compiled) as u64, None));
            };
            let (n, next) = self.count_advance(req, compiled, pos, budget);
            let so_far = prior
                .checked_add(n)
                .ok_or_else(|| self.bad_token(Malformed("token progress overflows")))?;
            let token =
                next.map(|pos| self.mint(COUNT_TOKEN_VERSION, compiled, &req.shards, so_far, pos));
            Ok(page(so_far, token))
        })
    }

    /// Open an echoed token against the current compiled query and
    /// shard snapshot: its progress, and the position to continue from
    /// — `None` when the token is stale (counted), whose position
    /// indexes content that is gone. Hostile input is the normal case
    /// here: every failure is a counted, typed
    /// [`ServiceError::BadToken`], never a panic.
    fn open_token(
        &self,
        version: u16,
        token: &str,
        compiled: &CompiledQuery,
        shards: &[Arc<Shard>],
    ) -> Result<(u64, Option<SweepPos>), ServiceError> {
        use wire::WireError::{Checksum, Truncated, Version};
        let open = || {
            let bytes = wire::b64_decode(token)?;
            let Some(body_len) = bytes.len().checked_sub(8) else {
                return Err(Truncated);
            };
            let (sealed, sum) = bytes.split_at(body_len);
            let declared = u64::from_le_bytes(sum.try_into().expect("split_at leaves 8 bytes"));
            if wire::fnv1a(sealed) != declared {
                return Err(Checksum);
            }
            let mut r = wire::Reader::new(sealed);
            let ver = r.u16()?;
            if ver != version {
                return Err(Version(ver));
            }
            if r.u64()? != query_fp(compiled) {
                return Err(Malformed("token minted for a different query"));
            }
            let fresh = r.u64()? == corpus_stamp(shards);
            let progress = r.u64()?;
            let shard = r.u16()?;
            let at = Position {
                tree: r.u32()?,
                skip: r.u32()?,
            };
            if !r.finished() {
                return Err(Malformed("trailing bytes after token body"));
            }
            if version == COUNT_TOKEN_VERSION && at.skip != 0 {
                return Err(Malformed("count token parked inside a tree"));
            }
            if !fresh {
                self.counters.stale_checkpoints.bump();
                return Ok((progress, None));
            }
            let Some(target) = shards.get(shard as usize) else {
                return Err(Malformed("token shard index out of range"));
            };
            if at.tree as usize > target.trees() {
                return Err(Malformed("token tree out of range"));
            }
            Ok((progress, Some(SweepPos { shard, at })))
        };
        open().map_err(|e| self.bad_token(e))
    }

    /// Reject a token: counted in [`ServiceStats::tokens_rejected`],
    /// typed as [`ServiceError::BadToken`].
    pub(crate) fn bad_token(&self, e: wire::WireError) -> ServiceError {
        self.counters.tokens_rejected.bump();
        ServiceError::BadToken(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceConfig;
    use lpath_model::ptb::parse_str;

    const SRC: &str = "\
( (S (NP-SBJ (PRP I)) (VP (VBD saw) (NP (DT the) (NN man))) (. .)) )
( (S (NP-SBJ (DT the) (NN man)) (VP (VBD left))) )
( (S (NP-SBJ (PRP we)) (VP (VBD ran) (NP (NN home)))) )
( (S (NP (NN rain)) (VP (VBD fell) (NP (DT the) (NN night)))) )
";

    fn service(shards: usize) -> Service {
        let corpus = parse_str(SRC).unwrap();
        Service::with_config(
            &corpus,
            ServiceConfig {
                shards,
                threads: 1,
                ..ServiceConfig::default()
            },
        )
    }

    fn sweep(svc: &Service, query: &str, page: usize) -> ResultSet {
        let mut all = Vec::new();
        let mut token: Option<String> = None;
        loop {
            let p = svc.eval_page_token(query, token.as_deref(), page).unwrap();
            all.extend(p.rows);
            match p.token {
                Some(t) => token = Some(t),
                None => return all,
            }
        }
    }

    #[test]
    fn token_sweep_equals_eval_at_every_page_size() {
        let svc = service(3);
        for q in ["//NP", "//VBD->NP", "//_[@lex=the]", "//ZZZ"] {
            let full = (*svc.eval(q).unwrap()).clone();
            for page in 1..=full.len() + 2 {
                assert_eq!(sweep(&svc, q, page), full, "{q} page {page}");
            }
        }
    }

    #[test]
    fn tokens_are_opaque_strings_and_terminate() {
        let svc = service(2);
        let p = svc.eval_page_token("//NP", None, 1).unwrap();
        let t = p.token.expect("more pages remain");
        // URL-safe base64: no '+', '/', '=', whitespace.
        assert!(t
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_'));
        // A zero limit is a zero-budget step: the sweep stays parked
        // at its start. Empty results terminate at once.
        assert!(svc
            .eval_page_token("//NP", None, 0)
            .unwrap()
            .token
            .is_some());
        let empty = svc.eval_page_token("//ZZZ", None, 5).unwrap();
        assert!(empty.rows.is_empty() && empty.token.is_none());
    }

    #[test]
    fn zero_limit_pages_validate_the_token_and_keep_the_place() {
        let svc = service(2);
        let full = (*svc.eval("//NP").unwrap()).clone();
        let p1 = svc.eval_page_token("//NP", None, 2).unwrap();
        let t = p1.token.expect("more NPs remain");
        // No rows, and the returned token parks where the echoed one
        // did: the sweep continues from it as if nothing was asked.
        let idle = svc.eval_page_token("//NP", Some(&t), 0).unwrap();
        assert!(idle.rows.is_empty());
        let parked = idle
            .token
            .expect("a zero-limit page must not end the sweep");
        let rest = svc
            .eval_page_token("//NP", Some(&parked), usize::MAX - 1)
            .unwrap();
        assert_eq!(rest.rows, full[2..]);
        assert!(rest.token.is_none());
        // The token is opened even though nothing is served from it.
        let rejected = svc.stats().tokens_rejected;
        assert!(matches!(
            svc.eval_page_token("//NP", Some("garbage!!"), 0),
            Err(ServiceError::BadToken(_))
        ));
        assert_eq!(svc.stats().tokens_rejected, rejected + 1);
    }

    #[test]
    fn token_sweeps_account_their_enumerations() {
        let corpus = parse_str(SRC).unwrap();
        let svc = Service::with_config(
            &corpus,
            ServiceConfig {
                shards: 2,
                threads: 1,
                slow_query_threshold: std::time::Duration::ZERO,
                ..ServiceConfig::default()
            },
        );
        // A fresh token page on a cold service starts one shard's
        // enumeration; echoing its token resumes from its position.
        let p1 = svc.eval_page_token("//NN", None, 1).unwrap();
        let s = svc.stats();
        assert_eq!((s.page_partial_evals, s.page_resumes), (1, 0), "{s:?}");
        svc.eval_page_token("//NN", p1.token.as_deref(), 1).unwrap();
        let s = svc.stats();
        assert_eq!((s.page_partial_evals, s.page_resumes), (1, 1), "{s:?}");
        // Page-bounded work is not a full shard evaluation.
        assert_eq!(s.shard_evals, 0, "{s:?}");
        // The request's own trace carries the resume into the slow log.
        let resumes: Vec<u64> = svc
            .metrics()
            .slow_queries
            .iter()
            .map(|q| q.resumes)
            .collect();
        assert_eq!(resumes, [0, 1]);
        // Count sweeps walk the same shards and are accounted the same
        // way (`//VP//NP` is outside the aggregate tables).
        let c1 = svc.count_token("//VP//NP", None, 1).unwrap();
        svc.count_token("//VP//NP", c1.token.as_deref(), 1).unwrap();
        let s = svc.stats();
        assert!(
            s.page_partial_evals >= 2,
            "the count started a shard: {s:?}"
        );
        assert_eq!(
            s.page_resumes, 2,
            "the echo resumed from its position: {s:?}"
        );
        assert_eq!(s.shard_evals, 0, "{s:?}");
    }

    #[test]
    fn malformed_tokens_are_typed_errors_never_panics() {
        let svc = service(2);
        let t = svc.eval_page_token("//NP", None, 1).unwrap().token.unwrap();
        // Wrong query for a valid token.
        match svc.eval_page_token("//VP", Some(&t), 1) {
            Err(ServiceError::BadToken(_)) => {}
            other => panic!("expected BadToken, got {other:?}"),
        }
        // Truncations at every character boundary.
        for cut in 0..t.len() {
            let _ = svc.eval_page_token("//NP", Some(&t[..cut]), 1);
        }
        // Single-character corruption everywhere.
        let mut rejected = 0u32;
        for i in 0..t.len() {
            let mut bad = t.clone().into_bytes();
            bad[i] = if bad[i] == b'A' { b'B' } else { b'A' };
            let bad = String::from_utf8(bad).unwrap();
            if svc.eval_page_token("//NP", Some(&bad), 1).is_err() {
                rejected += 1;
            }
        }
        // The checksum makes random corruption overwhelmingly a
        // rejection, and the counter saw every one of them.
        assert!(rejected > 0);
        assert!(svc.stats().tokens_rejected >= u64::from(rejected));
        // Outright garbage.
        for junk in ["", "!!!", "AAAA", "zzzzzzzzzzzzzzzzzzzzzzzz"] {
            assert!(svc.eval_page_token("//NP", Some(junk), 1).is_err() || junk.is_empty());
        }
    }

    #[test]
    fn stale_tokens_recover_and_count() {
        let svc = service(2);
        let full_before = (*svc.eval("//VBD").unwrap()).clone();
        let p1 = svc.eval_page_token("//VBD", None, 1).unwrap();
        let t = p1.token.expect("three more VBDs");
        // Appending rebuilds the tail shard: the token's corpus stamp
        // no longer matches.
        svc.append_ptb("( (S (NP (NN snow)) (VP (VBD melted))) )")
            .unwrap();
        let p2 = svc
            .eval_page_token("//VBD", Some(&t), usize::MAX - 1)
            .unwrap();
        assert!(svc.stats().stale_checkpoints >= 1);
        // Recovery re-enters at the global offset against current
        // content: rows 1.. of the *new* result, which extends the old.
        let full_after = (*svc.eval("//VBD").unwrap()).clone();
        assert_eq!(full_after.len(), full_before.len() + 1);
        let mut joined = p1.rows;
        joined.extend(p2.rows.iter().copied());
        assert_eq!(joined, full_after);
        assert!(p2.token.is_none());
    }

    #[test]
    fn stale_recovery_mints_positions_in_current_content() {
        let svc = service(2);
        let p1 = svc.eval_page_token("//NP", None, 1).unwrap();
        let t1 = p1.token.unwrap();
        svc.append_ptb("( (S (NP (NN fog))) )").unwrap();
        // Recovery pages by offset once, then mints a position in the
        // grown corpus: echoing it is no longer stale.
        let p2 = svc.eval_page_token("//NP", Some(&t1), 1).unwrap();
        assert_eq!(svc.stats().stale_checkpoints, 1);
        let t2 = p2.token.expect("more NPs remain");
        let p3 = svc
            .eval_page_token("//NP", Some(&t2), usize::MAX - 1)
            .unwrap();
        assert_eq!(svc.stats().stale_checkpoints, 1);
        let full = (*svc.eval("//NP").unwrap()).clone();
        let mut joined = p1.rows;
        joined.extend(p2.rows.iter().copied());
        joined.extend(p3.rows.iter().copied());
        assert_eq!(joined, full);
    }

    #[test]
    fn every_minted_token_fits_in_64_characters() {
        let svc = service(3);
        for q in ["//NP", "//VBD->NP", "//_", "//VP/_[last()]"] {
            for limit in [1, 2, 5] {
                let mut token = None;
                loop {
                    let page = svc.eval_page_token(q, token.as_deref(), limit).unwrap();
                    let Some(t) = page.token else { break };
                    assert!(t.len() <= 64, "{q}: {} characters", t.len());
                    token = Some(t);
                }
                let mut token = None;
                loop {
                    let page = svc.count_token(q, token.as_deref(), limit).unwrap();
                    let Some(t) = page.token else { break };
                    assert!(t.len() <= 64, "{q}: {} characters", t.len());
                    token = Some(t);
                }
            }
        }
    }

    #[test]
    fn tokens_positioned_outside_the_corpus_are_rejected() {
        let svc = service(2);
        let t = svc.eval_page_token("//NP", None, 1).unwrap().token.unwrap();
        // Re-seal the position (`shard` u16 at byte 26, `tree` u32 at
        // 28, `skip` u32 at 32) and the checksum.
        let forge = |shard: u16, tree: u32, skip: u32| {
            let mut b = wire::b64_decode(&t).unwrap();
            b[26..28].copy_from_slice(&shard.to_le_bytes());
            b[28..32].copy_from_slice(&tree.to_le_bytes());
            b[32..36].copy_from_slice(&skip.to_le_bytes());
            let sum = wire::fnv1a(&b[..36]);
            b[36..].copy_from_slice(&sum.to_le_bytes());
            wire::b64_encode(&b)
        };
        // Two trees per shard: tree 2 of shard 1 is its end, tree 3
        // and shard 2 do not exist.
        let full = (*svc.eval("//NP").unwrap()).clone();
        let end = svc
            .eval_page_token("//NP", Some(&forge(1, 2, 0)), 5)
            .unwrap();
        assert!(end.rows.is_empty() && end.token.is_none());
        let tail = svc
            .eval_page_token("//NP", Some(&forge(1, 1, 1)), 99)
            .unwrap();
        let from = full.iter().position(|m| m.0 == 3).unwrap() + 1;
        assert_eq!(tail.rows, full[from..]);
        for (shard, tree) in [(1, 3), (2, 0), (u16::MAX, 0), (0, u32::MAX)] {
            assert!(
                matches!(
                    svc.eval_page_token("//NP", Some(&forge(shard, tree, 0)), 5),
                    Err(ServiceError::BadToken(wire::WireError::Malformed(_)))
                ),
                "({shard}, {tree})"
            );
        }
        assert_eq!(svc.stats().tokens_rejected, 4);
    }

    #[test]
    fn count_tokens_park_only_at_tree_boundaries() {
        let svc = service(2);
        let c = svc.count_token("//VP//NP", None, 1).unwrap();
        let t = c.token.expect("more to count");
        let mut b = wire::b64_decode(&t).unwrap();
        // A nonzero `skip` (u32 at byte 32), re-sealed.
        b[32] = 1;
        let sum = wire::fnv1a(&b[..36]);
        b[36..].copy_from_slice(&sum.to_le_bytes());
        let inside = wire::b64_encode(&b);
        assert!(matches!(
            svc.count_token("//VP//NP", Some(&inside), 1),
            Err(ServiceError::BadToken(wire::WireError::Malformed(_)))
        ));
        // The genuine token counts on to the total.
        let done = svc.count_token("//VP//NP", Some(&t), usize::MAX).unwrap();
        assert_eq!(done.total, Some(svc.count("//VP//NP").unwrap() as u64));
    }

    #[test]
    fn tokens_resume_across_identical_service_builds() {
        // The cross-restart guarantee: a different Service over the
        // same corpus accepts the token (content-derived build ids).
        let a = service(2);
        let b = service(2);
        let p1 = a.eval_page_token("//NP", None, 2).unwrap();
        let p2 = b
            .eval_page_token("//NP", p1.token.as_deref(), usize::MAX - 1)
            .unwrap();
        let full = (*a.eval("//NP").unwrap()).clone();
        let mut joined = p1.rows;
        joined.extend(p2.rows.iter().copied());
        assert_eq!(joined, full);
    }

    /// One token per envelope version over this module's fixture (2
    /// shards): the bytes on the wire must not move, in either
    /// direction.
    const GOLDEN_PAGE_NN: &str = "AwCbhjGqnXDm6Phywi8q-MZoAQAAAAAAAAAAAAAAAAABAAAAgnb2UWwZLdw";
    const GOLDEN_COUNT_VP_NP: &str = "BACdJohO3zquIvhywi8q-MZoAQAAAAAAAAAAAAEAAAAAAAAAJB4QhLO3Gcw";
    /// The same two tokens as the checkpoint-carrying versions 1 and 2
    /// sealed them: still checksummed cleanly, now refused by version.
    const OLD_PAGE_NN: &str = "AQCbhjGqnXDm6Phywi8q-MZoAQAAAAAAAAAAAAABAAAAAAAAAAGOfjTCOkx-6QABAAAAAAAAAAAAAAAAAAAAAQEAAAAAAAAAFQAAAAEAAAAAAAAAAQIAAAAAAAAAAQACAAAAAAAAAAkAAAAAAAAABQAAAAEAAAAAAAAAAAAAAAEAAAAAAAAAAQAAAAAAAAACAAAAAAAAAAAAAAAAAAAAAgAAAAAAAAABAAAAAAAAAAEAAAADAAAAgz56ax5cFVs";
    const OLD_COUNT_VP_NP: &str = "AgCdJohO3zquIvhywi8q-MZoAQAAAAAAAAAAAAEAAAAAAAAAAY5-NMI6TH7pAAIAAAAAAAAADQAAABEAAAACAAAAAAAAAAEBAAAAAAAAAAEBAAAAAAAAAAEAAQAAAAAAAAAHAAAAAAAAAAAAAAAAAAAAAgAAAAAAAAABAAAAAAAAAAEAAAAAAAAAAAAAAAAAAAABAAAAAAAAAAEAAAAAAAAAAQAAAAAAAAACAAAAAAAAAAEAAAAAAAAAC3MpkNgrGGc";

    #[test]
    fn golden_tokens_still_seal_and_open_byte_for_byte() {
        let svc = service(2);
        // Sealing: a fresh mint reproduces the golden string.
        let p1 = svc.eval_page_token("//NN", None, 1).unwrap();
        assert_eq!(p1.token.as_deref(), Some(GOLDEN_PAGE_NN));
        let c1 = svc.count_token("//VP//NP", None, 1).unwrap();
        assert_eq!(c1.token.as_deref(), Some(GOLDEN_COUNT_VP_NP));
        // Opening: the golden strings resume their sweeps exactly —
        // accepted as valid, not recovered as stale.
        let rest = svc
            .eval_page_token("//NN", Some(GOLDEN_PAGE_NN), usize::MAX - 1)
            .unwrap();
        let mut joined = p1.rows;
        joined.extend(rest.rows);
        assert_eq!(joined, *svc.eval("//NN").unwrap());
        let done = svc
            .count_token("//VP//NP", Some(GOLDEN_COUNT_VP_NP), usize::MAX)
            .unwrap();
        assert_eq!(done.total, Some(svc.count("//VP//NP").unwrap() as u64));
        let s = svc.stats();
        assert_eq!((s.stale_checkpoints, s.tokens_rejected), (0, 0), "{s:?}");
        // The version word keeps the two envelopes apart.
        assert!(matches!(
            svc.count_token("//NN", Some(GOLDEN_PAGE_NN), 1),
            Err(ServiceError::BadToken(wire::WireError::Version(3)))
        ));
        // Checkpoint-carrying tokens are refused by their version,
        // counted as rejections.
        assert!(matches!(
            svc.eval_page_token("//NN", Some(OLD_PAGE_NN), 1),
            Err(ServiceError::BadToken(wire::WireError::Version(1)))
        ));
        assert!(matches!(
            svc.count_token("//VP//NP", Some(OLD_COUNT_VP_NP), 1),
            Err(ServiceError::BadToken(wire::WireError::Version(2)))
        ));
        assert_eq!(svc.stats().tokens_rejected, 3);
    }
}
