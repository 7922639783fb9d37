//! Opaque, stateless paging tokens: the serialized form of a
//! suspended [`Service::eval_page`] sweep, minted by
//! [`Service::eval_page_token`] and echoed back by the client.
//!
//! A token carries everything needed to continue the enumeration —
//! the query's fingerprint, a stamp of the corpus content it was
//! minted against, the global row offset already served, and (in the
//! common *positioned* mode) the current shard plus that shard's
//! serialized [`crate::ShardCheckpoint`] — so the server keeps **no**
//! per-client session state: any server process holding the same
//! corpus can continue any client's sweep from the token alone.
//!
//! # Wire format
//!
//! URL-safe base64 (no padding) over:
//!
//! ```text
//! ver          u16   1 = paging token, 2 = count token
//! query_fp     u64   FNV-1a of the normalized query text
//! corpus_stamp u64   FNV-1a over all shard build ids, in shard order
//! progress     u64   rows already served / matches already counted
//! mode         u8    ver 1 only: 0 = positioned, 1 = offset-only
//! -- the position (absent from offset-only tokens) --
//! shard        u16   shard the sweep is parked in
//! within       u64   progress already made within that shard
//! has_ckpt     u8    0|1
//! ckpt         ...   Checkpoint::encode_into, when has_ckpt = 1
//! -- always --
//! checksum     u64   FNV-1a over every preceding byte
//! ```
//!
//! Both versions carry the same position body — one
//! [`SweepPos`], written and read by one codec — around a
//! [`crate::ShardCheckpoint`] (ver 1) or a [`crate::ShardCountCheckpoint`]
//! (ver 2).
//!
//! # Trust boundary
//!
//! Tokens cross the network, so decoding treats them as hostile:
//! every length prefix is validated before allocation, the checksum
//! gates structural parsing, and the embedded checkpoint is decoded
//! by [`Shard::decode_checkpoint`], which re-validates it against the
//! shard's *current* plan for the query — a forged token can make the
//! server do bounded extra work or return an error, never panic and
//! never execute a plan it did not build itself. Three outcomes:
//!
//! * **valid** — the sweep continues exactly where it left off;
//! * **stale** — well-formed bytes whose corpus stamp or build id no
//!   longer matches (the corpus was appended to, or the server
//!   restarted onto different content): recovered silently by
//!   re-entering at the token's global offset, offset-only from then on
//!   ([`ServiceStats::stale_checkpoints`] advances);
//! * **malformed** — truncated / corrupted / version-skewed / minted
//!   for a different query: a typed [`ServiceError::BadToken`]
//!   ([`ServiceStats::tokens_rejected`] advances).

use std::sync::Arc;

use lpath_relstore::wire;
use lpath_relstore::wire::WireError::Malformed;

use crate::plan::CompiledQuery;
use crate::shard::{Checkpoint, CheckpointDecodeError, Payload, Shard};
use crate::stats::Class;
use crate::sweep::SweepPos;
use crate::{ResultSet, Service, ServiceError};

#[cfg(doc)]
use crate::ServiceStats;

/// Token format version; bumped on any envelope layout change so old
/// tokens are rejected with [`wire::WireError::Version`] instead of
/// being misparsed.
pub const TOKEN_VERSION: u16 = 1;

/// Count-token format version. Deliberately distinct from
/// [`TOKEN_VERSION`]: a paging token echoed to the count endpoint (or
/// vice versa) fails the version gate outright instead of being
/// misparsed as the other envelope — both layouts checksum cleanly,
/// so the version word is what keeps them apart.
pub const COUNT_TOKEN_VERSION: u16 = 2;

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

/// The decoded, validated interior of a token: the sweep's progress
/// across all prior calls, and the exact resume position — `None` when
/// only the progress is meaningful: an offset-only paging token (the
/// stale-recovery mode), or any token that has just been found stale.
type TokenState<P> = (u64, Option<SweepPos<Checkpoint<P>>>);

/// FNV-1a fingerprint of the normalized query text — ties a token to
/// the query it pages, so echoing it with a different query is a
/// typed error instead of silently wrong rows.
fn query_fp(compiled: &CompiledQuery) -> u64 {
    wire::fnv1a(compiled.normalized.as_bytes())
}

/// FNV-1a over all shard build ids in shard order: one word that
/// changes whenever any shard's content does. Validates the
/// *positionless* parts of a token (global offset, shard index) that
/// no individual build id covers — a checkpoint suspended exactly on
/// a shard boundary carries no [`Checkpoint`], so this stamp is
/// what detects that the boundary itself moved.
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
    /// unchanged content. Tokens come in two modes. A positioned token
    /// carries the suspended execution state of the shard it is parked
    /// in, so its next page re-enumerates no prefix, even with every
    /// cache cold: it is O(new rows) on *any* server process holding
    /// the same corpus. An offset-only token — minted by stale
    /// recovery, and by every page that continues one — pages by global
    /// offset through the row store, as [`Service::eval_page`] does:
    /// without re-enumeration only where the store holds the prefix.
    ///
    /// A stale token (minted before an [`Service::append_ptb`] or
    /// against a different build of the corpus) is not an error: the
    /// sweep re-enters at the token's global offset against current
    /// content, [`ServiceStats::stale_checkpoints`] advances, and the
    /// freshly minted token is offset-only — as is every token after
    /// it in that sweep.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadToken`] when `token` is present but
    /// malformed (truncated, corrupted, wrong version, or minted for
    /// a different query); [`ServiceError::Syntax`] when the query
    /// does not parse.
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
            // Where the sweep continues, if it does: `Some(None)` is an
            // offset-only continuation.
            let (rows, next) = match pos {
                Some(pos) => {
                    let (rows, parked) = self.page_positioned(req, compiled, pos, limit)?;
                    (rows, parked.map(Some))
                }
                // Stale-token recovery: serve the page by global offset
                // through `eval_page`'s walk (whose build-id-scoped
                // row store keeps repeated recoveries from
                // re-enumerating), then mint an offset-only token. The
                // *next* echo of that token lands here again, so a
                // client that was mid-sweep when the corpus changed
                // keeps paging seamlessly — against the new content, as
                // the offset contract requires.
                None => {
                    let offset = usize::try_from(emitted).unwrap_or(usize::MAX);
                    let rows = self.page_by_offset(req, compiled, offset, limit)?;
                    // Coming back short proves the sweep is complete.
                    let more = rows.len() == limit;
                    (rows, more.then_some(None))
                }
            };
            let emitted = emitted
                .checked_add(rows.len() as u64)
                .ok_or_else(|| self.bad_token(Malformed("token progress overflows")))?;
            let token = next
                .map(|pos| self.mint(TOKEN_VERSION, compiled, &req.shards, emitted, pos.as_ref()));
            Ok(Page { rows, token })
        })
    }

    /// Mint a token (see the module docs for the layout): the envelope
    /// — `ver`, `query_fp`, `corpus_stamp` — the sweep's `progress` and
    /// parked position, an FNV-1a checksum over all of it, in URL-safe
    /// base64.
    fn mint<P: Payload>(
        &self,
        version: u16,
        compiled: &CompiledQuery,
        shards: &[Arc<Shard>],
        progress: u64,
        pos: Option<&SweepPos<Checkpoint<P>>>,
    ) -> String {
        self.counters.tokens_minted.bump();
        let mut w = wire::Writer::new();
        w.u16(version);
        w.u64(query_fp(compiled));
        w.u64(corpus_stamp(shards));
        w.u64(progress);
        if version == TOKEN_VERSION {
            w.bool(pos.is_none());
        }
        if let Some(p) = pos {
            w.u16(p.shard);
            w.u64(p.within);
            w.bool(p.ckpt.is_some());
            if let Some(c) = &p.ckpt {
                c.encode_into(&mut w);
            }
        }
        let sum = wire::fnv1a(w.bytes());
        w.u64(sum);
        wire::b64_encode(w.bytes())
    }

    /// One budgeted step of a token-driven count: the stateless form
    /// of [`Service::count_resume`], for clients across a network
    /// edge. Pass `token: None` to start; echo [`CountPage::token`]
    /// until [`CountPage::total`] arrives. Over unchanged content the
    /// final `total` equals [`Service::count`]; each call does
    /// O(budget) work (aggregate-table shards are O(1), so `so_far`
    /// may overshoot the budget — it bounds work, not the count).
    ///
    /// A stale token (the corpus changed mid-sweep) is not an error:
    /// the parked position indexes content that is gone, so the sweep
    /// finishes by recounting current content outright — cheap, since
    /// the count store and aggregate tables answer — and returns a
    /// final page ([`ServiceStats::stale_checkpoints`] advances).
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadToken`] when `token` is present but
    /// malformed (truncated, corrupted, version-skewed — including a
    /// *paging* token echoed here — or minted for a different query);
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
            // A stale token: its parked position indexes content that
            // is gone, so finish by recounting current content.
            let Some(pos) = pos else {
                return Ok(page(self.count_whole(req, compiled) as u64, None));
            };
            let (n, next) = self.count_advance(req, compiled, pos, budget)?;
            let so_far = prior
                .checked_add(n)
                .ok_or_else(|| self.bad_token(Malformed("token progress overflows")))?;
            let token = next.map(|pos| {
                self.mint(
                    COUNT_TOKEN_VERSION,
                    compiled,
                    &req.shards,
                    so_far,
                    Some(&pos),
                )
            });
            Ok(page(so_far, token))
        })
    }

    /// Open an echoed token against the current compiled query and
    /// shard snapshot: the envelope, then the sweep's progress and
    /// parked position. Hostile input is the normal case here: the
    /// checksum gates structural parsing, the embedded checkpoint is
    /// decoded against the shard it names, and every failure is a
    /// counted, typed [`ServiceError::BadToken`], never a panic. A
    /// stale token is no failure: it is counted and opens to its
    /// progress alone, stopping before its checkpoint — the parked
    /// position indexes content that is gone, so it is not decoded
    /// against shards it does not belong to.
    fn open_token<P: Payload>(
        &self,
        version: u16,
        token: &str,
        compiled: &CompiledQuery,
        shards: &[Arc<Shard>],
    ) -> Result<TokenState<P>, ServiceError> {
        use wire::WireError::{Checksum, Truncated, Version};
        let stale = |progress: u64| {
            self.counters.stale_checkpoints.bump();
            Ok((progress, None))
        };
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
            let pos = match if version == TOKEN_VERSION { r.u8()? } else { 0 } {
                // Offset-only: the global offset is meaningful against
                // any content, so staleness is irrelevant — offset
                // paging already promises "current content at this
                // offset".
                1 => None,
                0 => {
                    let shard = r.u16()?;
                    let within = r.u64()?;
                    // Progress within a shard is part of the progress
                    // overall: a position beyond it was forged.
                    if within > progress {
                        return Err(Malformed("token position beyond its progress"));
                    }
                    let has_ckpt = r.bool()?;
                    // A sweep parks mid-shard only on its checkpoint:
                    // honoured, this shape would restart the shard.
                    if within > 0 && !has_ckpt {
                        return Err(Malformed("token position without its checkpoint"));
                    }
                    if !fresh {
                        return stale(progress);
                    }
                    let Some(target) = shards.get(shard as usize) else {
                        return Err(Malformed("token shard index out of range"));
                    };
                    let ckpt = match has_ckpt.then(|| target.decode_checkpoint(compiled, &mut r)) {
                        Some(Err(CheckpointDecodeError::Stale(_))) => return stale(progress),
                        Some(Err(CheckpointDecodeError::Wire(e))) => return Err(e),
                        Some(Ok(ckpt)) => Some(ckpt),
                        None => None,
                    };
                    Some(SweepPos {
                        shard,
                        within,
                        ckpt,
                    })
                }
                _ => return Err(Malformed("token mode")),
            };
            if !r.finished() {
                return Err(Malformed("trailing bytes after token body"));
            }
            Ok((progress, pos))
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
        // enumeration; echoing its token resumes the checkpoint.
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
        assert_eq!(s.page_resumes, 2, "the echo resumed its checkpoint: {s:?}");
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
    fn offset_tokens_keep_paging_after_recovery() {
        let svc = service(2);
        let p1 = svc.eval_page_token("//NP", None, 1).unwrap();
        let t1 = p1.token.unwrap();
        svc.append_ptb("( (S (NP (NN fog))) )").unwrap();
        // Recovery mints an offset-only token (`mode` byte 1); echoing
        // it pages on.
        let p2 = svc.eval_page_token("//NP", Some(&t1), 1).unwrap();
        let t2 = p2.token.expect("more NPs remain");
        assert_eq!(wire::b64_decode(&t2).unwrap()[26], 1);
        let p3 = svc
            .eval_page_token("//NP", Some(&t2), usize::MAX - 1)
            .unwrap();
        let full = (*svc.eval("//NP").unwrap()).clone();
        let mut joined = p1.rows;
        joined.extend(p2.rows.iter().copied());
        joined.extend(p3.rows.iter().copied());
        assert_eq!(joined, full);
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

    /// One token per envelope version, minted by the pre-refactor
    /// sealing code over this module's fixture (2 shards): the bytes on
    /// the wire must not move, in either direction.
    const GOLDEN_PAGE_NN: &str = "AQCbhjGqnXDm6Phywi8q-MZoAQAAAAAAAAAAAAABAAAAAAAAAAGOfjTCOkx-6QABAAAAAAAAAAAAAAAAAAAAAQEAAAAAAAAAFQAAAAEAAAAAAAAAAQIAAAAAAAAAAQACAAAAAAAAAAkAAAAAAAAABQAAAAEAAAAAAAAAAAAAAAEAAAAAAAAAAQAAAAAAAAACAAAAAAAAAAAAAAAAAAAAAgAAAAAAAAABAAAAAAAAAAEAAAADAAAAgz56ax5cFVs";
    const GOLDEN_COUNT_VP_NP: &str = "AgCdJohO3zquIvhywi8q-MZoAQAAAAAAAAAAAAEAAAAAAAAAAY5-NMI6TH7pAAIAAAAAAAAADQAAABEAAAACAAAAAAAAAAEBAAAAAAAAAAEBAAAAAAAAAAEAAQAAAAAAAAAHAAAAAAAAAAAAAAAAAAAAAgAAAAAAAAABAAAAAAAAAAEAAAAAAAAAAAAAAAAAAAABAAAAAAAAAAEAAAAAAAAAAQAAAAAAAAACAAAAAAAAAAEAAAAAAAAAC3MpkNgrGGc";

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
            Err(ServiceError::BadToken(wire::WireError::Version(1)))
        ));
    }
}
