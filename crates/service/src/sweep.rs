//! Sweeps: the one traversal behind paging and budgeted counting.
//!
//! Paging through a result in document order and reading its size are
//! the same walk over the shards in order, differing only in what each
//! step keeps. A **suspended sweep** is a [`SweepPos`]: the shard it is
//! parked in, the progress already made within that shard, and — when
//! parked mid-shard — the shard's own [`crate::Checkpoint`]. `Service::sweep`
//! advances one by a budget: prune a shard the sweep enters fresh,
//! account the fan-out, take the caller's per-shard *step*, park on a
//! checkpoint or move to the next shard. Three steps exist:
//!
//! * **resume rows** (`page_positioned`, behind
//!   [`Service::eval_page_token`]) — [`Shard::eval_resume`] from the
//!   position a token carried;
//! * **resume a count** (`count_advance`, behind
//!   [`Service::count_resume`] and [`Service::count_token`]) —
//!   [`Shard::resume`] through the counting cursor, or the aggregate
//!   table's O(1) answer for a whole shape-covered shard;
//! * **serve or extend the cached entry** (`page_by_offset`, behind
//!   [`Service::eval_page`] and stale-token recovery) — the per-shard
//!   row store answers, or its checkpoint enumerates the missing delta.
//!
//! A step also owns its stale-recovery rule: what to do when the
//! checkpoint it was handed belongs to a shard build that is gone.

use std::sync::Arc;

use lpath_relstore::wire::WireError::Malformed;

use crate::cache::ShardRows;
use crate::shard::{Shard, ShardCheckpoint, ShardCountCheckpoint};
use crate::{CompiledQuery, Request, ResultSet, Service, ServiceError};

/// Where a sweep is parked. The default is the start of the corpus.
/// [`Service::count_resume`] hands these out directly
/// ([`CountCheckpoint`]); tokens seal them (see [`crate::token`]).
#[derive(Clone, Debug)]
pub struct SweepPos<C> {
    pub(crate) shard: u16,
    /// Matches already produced within `shard` — lets a stale resume
    /// recover by offset instead of repeating them.
    pub(crate) within: u64,
    pub(crate) ckpt: Option<C>,
}

impl<C> Default for SweepPos<C> {
    fn default() -> Self {
        SweepPos {
            shard: 0,
            within: 0,
            ckpt: None,
        }
    }
}

/// A suspended [`Service::count_resume`] sweep.
pub type CountCheckpoint = SweepPos<ShardCountCheckpoint>;

/// How a step got its chunk — what the walk accounts for it.
pub(crate) enum Did {
    /// Read cached rows: the request can still be a pure cache hit.
    Cached,
    /// Looked the whole shard up in the aggregate tables.
    Tabulated,
    /// Began the shard's enumeration.
    Started,
    /// Continued a checkpoint, cached or token-borne.
    Resumed,
    /// Met a checkpoint of a build that is gone, and recovered.
    Stale,
}

impl Service {
    /// The one shard walk. Advances the sweep parked `at` by up to
    /// `budget` matches (a step may overshoot: the budget bounds work)
    /// and returns what the steps produced plus where the sweep is now
    /// parked — `None` once the shards are exhausted. `step` receives
    /// the shard, its index, the progress within it, its checkpoint
    /// and the budget left; it answers how much it produced, the
    /// checkpoint the shard is parked on (`None`: exhausted), and how.
    /// A token-borne position that advancing would overflow is a
    /// counted [`ServiceError::BadToken`].
    fn sweep<C>(
        &self,
        req: &mut Request,
        compiled: &CompiledQuery,
        mut at: SweepPos<C>,
        budget: usize,
        mut step: impl FnMut(&Shard, u16, u64, Option<C>, usize) -> (u64, Option<C>, Did),
    ) -> Result<(u64, Option<SweepPos<C>>), ServiceError> {
        let mut produced = 0u64;
        while (at.shard as usize) < req.shards.len() && produced < budget as u64 {
            let shard = &req.shards[at.shard as usize];
            if at.ckpt.is_none() && at.within == 0 && !shard.may_match(&compiled.required) {
                self.counters.shards_pruned.bump();
                at.shard += 1;
                continue;
            }
            req.fanout += 1;
            let room = usize::try_from(budget as u64 - produced).unwrap_or(usize::MAX);
            let (n, next, did) = step(shard, at.shard, at.within, at.ckpt.take(), room);
            req.hit &= matches!(did, Did::Cached);
            match did {
                Did::Cached => {}
                Did::Tabulated => self.counters.count_fast.bump(),
                Did::Started => self.counters.page_partial_evals.bump(),
                Did::Resumed => {
                    self.counters.page_resumes.bump();
                    req.resumes += 1;
                }
                Did::Stale => self.counters.stale_checkpoints.bump(),
            }
            produced += n;
            let within = at.within.checked_add(n);
            at.within =
                within.ok_or_else(|| self.bad_token(Malformed("token position overflows")))?;
            at.ckpt = next;
            if at.ckpt.is_some() {
                // A shard parks only on a spent budget.
                break;
            }
            at.shard += 1;
            at.within = 0;
        }
        let parked = (at.shard as usize) < req.shards.len();
        Ok((produced, parked.then_some(at)))
    }

    /// Continue a positioned page sweep: resume the suspended shard (or
    /// start the next one) and walk forward until the page fills or
    /// the shards run out.
    pub(crate) fn page_positioned(
        &self,
        req: &mut Request,
        compiled: &CompiledQuery,
        pos: SweepPos<ShardCheckpoint>,
        limit: usize,
    ) -> Result<(ResultSet, Option<SweepPos<ShardCheckpoint>>), ServiceError> {
        let mut acc: ResultSet = Vec::new();
        let swept = self.sweep(req, compiled, pos, limit, |shard, _, within, ckpt, room| {
            let did = ckpt.as_ref().map_or(Did::Started, |_| Did::Resumed);
            let (rows, next, did) = match shard.eval_resume(compiled, ckpt, room) {
                Ok((rows, next)) => (rows, next, did),
                // Unreachable when the corpus stamp matched (the
                // checkpoint's build id is covered by the stamp), but
                // recover locally anyway: re-enumerate this shard and
                // drop the rows the client already has.
                Err(_) => {
                    let already = usize::try_from(within).unwrap_or(usize::MAX);
                    let (mut rows, next) = shard.eval_limit(compiled, already.saturating_add(room));
                    rows.drain(..already.min(rows.len()));
                    (rows, next, Did::Stale)
                }
            };
            let n = rows.len() as u64;
            acc.extend(rows);
            (n, next, did)
        });
        Ok((acc, swept?.1))
    }

    /// The shared engine of [`Service::count_resume`] and the token
    /// form ([`Service::count_token`]): advance the sweep by up to
    /// `budget` counted matches, returning the chunk and the position
    /// to continue from.
    pub(crate) fn count_advance(
        &self,
        req: &mut Request,
        compiled: &CompiledQuery,
        pos: CountCheckpoint,
        budget: usize,
    ) -> Result<(u64, Option<CountCheckpoint>), ServiceError> {
        self.sweep(
            req,
            compiled,
            pos,
            budget,
            |shard, si, within, ckpt, room| {
                // A whole untouched shard is O(1) when the aggregate
                // tables cover the query — take it regardless of budget.
                if let (None, 0, Some(fast)) = (&ckpt, within, &compiled.fast) {
                    return (shard.tabulated(fast), None, Did::Tabulated);
                }
                let did = ckpt.as_ref().map_or(Did::Started, |_| Did::Resumed);
                match shard.resume(compiled, ckpt, room) {
                    Ok((n, next)) => (n, next, did),
                    // The corpus changed between calls and this shard's
                    // suspended position indexes content that is gone.
                    // Recover by offset: count the current content in full
                    // (cheap — the count store or aggregate tables
                    // usually answer) and report only what the sweep has
                    // not yet seen.
                    Err(_) => {
                        let (full, _) =
                            self.count_shards(compiled, &self.unpruned(compiled, [(si, shard)]));
                        ((full as u64).saturating_sub(within), None, Did::Stale)
                    }
                }
            },
        )
    }

    /// The offset page behind [`Service::eval_page`] and
    /// [`Service::eval_page_token`]'s stale recovery: sweep from the
    /// corpus start to `offset + limit` rows, every shard serving or
    /// extending its cached entry, and keep the last `limit`.
    pub(crate) fn page_by_offset(
        &self,
        req: &mut Request,
        compiled: &CompiledQuery,
        offset: usize,
        limit: usize,
    ) -> Result<ResultSet, ServiceError> {
        if limit == 0 {
            return Ok(Vec::new());
        }
        let need = offset.saturating_add(limit);
        let mut acc: ResultSet = Vec::new();
        // The store, not the position, carries each shard's checkpoint.
        let start = SweepPos::default();
        let (_, parked) = self.sweep(req, compiled, start, need, |shard, si, _, _, room| {
            let (entry, did) = self.shard_rows_to(shard, si, compiled, room);
            let taken = entry.rows.len().min(room);
            acc.extend_from_slice(&entry.rows[..taken]);
            (taken as u64, entry.ckpt, did)
        })?;
        if let Some(at) = parked {
            // The page filled before these shards were reached.
            let unvisited = req.shards.len() - at.shard as usize - usize::from(at.ckpt.is_some());
            self.counters.page_shards_skipped.add(unvisited as u64);
        }
        Ok(acc.split_off(offset.min(acc.len())))
    }

    /// One shard's rows to a depth of at least `depth` (or complete),
    /// through the build-id-scoped per-shard row store: a complete
    /// entry serves any depth; a prefix at least as deep serves
    /// outright; a shallower one is *extended* from its checkpoint —
    /// only the missing rows are enumerated, nothing already cached is
    /// replayed; nothing cached enumerates from the shard's start.
    /// What was enumerated is stored back, complete or checkpointed,
    /// where [`Service::eval`] and [`Service::count`] reuse it.
    fn shard_rows_to(
        &self,
        shard: &Shard,
        si: u16,
        compiled: &CompiledQuery,
        depth: usize,
    ) -> (ShardRows, Did) {
        let key = (compiled.normalized.clone(), si);
        let build = shard.build_id();
        let cached = self.shard_rows.lock().unwrap().get(&key, build);
        let ((rows, ckpt), did) = match cached {
            Some(entry) if entry.ckpt.is_none() => {
                self.counters.result_hits.bump();
                return (entry, Did::Cached);
            }
            Some(entry) if entry.rows.len() >= depth => {
                self.counters.result_hits.bump();
                self.counters.page_prefix_hits.bump();
                return (entry, Did::Cached);
            }
            Some(entry) => {
                self.counters.result_misses.bump();
                // Take the observed entry back out of the cache (only
                // it — a deeper prefix a concurrent sweep just
                // installed must survive): both `Arc`s are then unique
                // in the common single-client case, so the row buffer
                // and the checkpoint (whose dedup watermark is O(rows
                // emitted)) *move* through the extension instead of
                // being copied per page. Concurrency degrades this to
                // one copy, never to a wrong answer.
                self.shard_rows.lock().unwrap().remove_match(&key, &entry);
                let ShardRows { rows, ckpt } = entry;
                let ckpt = ckpt.map(Arc::unwrap_or_clone);
                match shard.eval_resume(compiled, ckpt, depth - rows.len()) {
                    Ok((more, next)) => {
                        let mut rows = Arc::unwrap_or_clone(rows);
                        rows.extend(more);
                        ((rows, next), Did::Resumed)
                    }
                    // The store is keyed by build id, so a stale
                    // checkpoint here means the entry raced a rebuild;
                    // its rows belong to the old content too. Degrade
                    // to a fresh bounded evaluation.
                    Err(_) => (shard.eval_limit(compiled, depth), Did::Stale),
                }
            }
            None => {
                self.counters.result_misses.bump();
                (shard.eval_limit(compiled, depth), Did::Started)
            }
        };
        let entry = ShardRows {
            rows: Arc::new(rows),
            ckpt: ckpt.map(Arc::new),
        };
        let mut store = self.shard_rows.lock().unwrap();
        // Concurrent sweeps of the same query: cached depth only
        // grows — never overwrite a deeper entry with a shallower one.
        let deeper_cached = entry.ckpt.is_some()
            && store
                .get(&key, build)
                .is_some_and(|e| e.ckpt.is_none() || e.rows.len() >= entry.rows.len());
        if !deeper_cached {
            self.admit(&mut store, key, build, &entry);
        }
        (entry, did)
    }
}
