//! Sweeps: the one traversal behind paging and budgeted counting.
//!
//! Paging through a result in document order and reading its size are
//! the same walk over the shards in order, differing only in what each
//! step keeps. Trees partition the corpus and no match crosses one, so
//! where a sweep stopped is a **position**, never an execution state:
//! a [`SweepPos`] names the shard it is parked in, the shard-local tree
//! to continue from, and how many of that tree's matches were already
//! served. `Service::sweep` advances one by a budget: prune a shard the
//! sweep enters at its start, account the fan-out, take the caller's
//! per-shard *step*, park at the position the step reports or move to
//! the next shard. Three steps exist:
//!
//! * **page from a position** (`page_positioned`, behind
//!   [`Service::eval_page_token`]) — [`Shard::page`] from the position
//!   a token carried;
//! * **count from a tree** (`count_advance`, behind
//!   [`Service::count_resume`] and [`Service::count_token`]) —
//!   [`Shard::count_resume`], parking only at tree boundaries, or the
//!   aggregate table's O(1) answer for a whole shape-covered shard;
//! * **serve or extend the cached entry** (`page_by_offset`, behind
//!   [`Service::eval_page`] and stale-token recovery) — the per-shard
//!   row store answers, or a page from the position after its rows
//!   enumerates the missing delta.

use std::sync::Arc;

use lpath_core::Position;
use lpath_model::NodeId;

use crate::cache::ShardRows;
use crate::shard::Shard;
use crate::{CompiledQuery, Request, ResultSet, Service};

/// Where a sweep is parked: a shard, and the position within it. The
/// default is the start of the corpus. [`Service::count_resume`] hands
/// these out directly; tokens seal them (see [`crate::token`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepPos {
    pub(crate) shard: u16,
    pub(crate) at: Position,
}

/// How a step got its chunk — what the walk accounts for it.
pub(crate) enum Did {
    /// Read cached rows: the request can still be a pure cache hit.
    Cached,
    /// Looked the whole shard up in the aggregate tables.
    Tabulated,
    /// Began the shard's enumeration.
    Started,
    /// Continued from a position inside the shard.
    Resumed,
}

impl Did {
    /// A shard evaluation from `at`: the shard's start, or a position
    /// inside it.
    fn from(at: Position) -> Did {
        if at == Position::START {
            Did::Started
        } else {
            Did::Resumed
        }
    }
}

/// The position after `rows`, a shard's document-ordered rows with
/// global tree ids from the shard at `base`: the last row's tree, and
/// how many rows of that tree `rows` holds.
fn position_after(rows: &[(u32, NodeId)], base: u32) -> Position {
    let Some(&(tree, _)) = rows.last() else {
        return Position::START;
    };
    let served = rows.iter().rev().take_while(|r| r.0 == tree).count();
    Position {
        tree: tree - base,
        skip: u32::try_from(served).unwrap_or(u32::MAX),
    }
}

impl Service {
    /// The one shard walk. Advances the sweep parked `at` by up to
    /// `budget` matches (a step may overshoot: the budget bounds work)
    /// and returns what the steps produced plus where the sweep is now
    /// parked — `None` once the shards are exhausted. `step` receives
    /// the shard, its index, the position within it and the budget
    /// left; it answers how much it produced, the position the shard
    /// is parked at (`None`: exhausted), and how.
    fn sweep(
        &self,
        req: &mut Request,
        compiled: &CompiledQuery,
        mut at: SweepPos,
        budget: usize,
        mut step: impl FnMut(&Shard, u16, Position, usize) -> (u64, Option<Position>, Did),
    ) -> (u64, Option<SweepPos>) {
        let mut produced = 0u64;
        while (at.shard as usize) < req.shards.len() && produced < budget as u64 {
            let shard = &req.shards[at.shard as usize];
            if at.at == Position::START && !shard.may_match(&compiled.required) {
                self.counters.shards_pruned.bump();
                at.shard += 1;
                continue;
            }
            req.fanout += 1;
            let room = usize::try_from(budget as u64 - produced).unwrap_or(usize::MAX);
            let (n, next, did) = step(shard, at.shard, at.at, room);
            req.hit &= matches!(did, Did::Cached);
            match did {
                Did::Cached => {}
                Did::Tabulated => self.counters.count_fast.bump(),
                Did::Started => self.counters.page_partial_evals.bump(),
                Did::Resumed => {
                    self.counters.page_resumes.bump();
                    req.resumes += 1;
                }
            }
            produced += n;
            if let Some(next) = next {
                // A shard parks only on a spent budget.
                at.at = next;
                break;
            }
            at = SweepPos {
                shard: at.shard + 1,
                at: Position::START,
            };
        }
        let parked = (at.shard as usize) < req.shards.len();
        (produced, parked.then_some(at))
    }

    /// Continue a positioned page sweep: page the shard it is parked
    /// in from its position (or start the next one) and walk forward
    /// until the page fills or the shards run out.
    pub(crate) fn page_positioned(
        &self,
        req: &mut Request,
        compiled: &CompiledQuery,
        pos: SweepPos,
        limit: usize,
    ) -> (ResultSet, Option<SweepPos>) {
        let mut acc: ResultSet = Vec::new();
        let (_, parked) = self.sweep(req, compiled, pos, limit, |shard, _, at, room| {
            let did = Did::from(at);
            let (rows, next) = shard.page(compiled, at, room);
            let n = rows.len() as u64;
            acc.extend(rows);
            (n, next, did)
        });
        (acc, parked)
    }

    /// The shared engine of [`Service::count_resume`] and the token
    /// form ([`Service::count_token`]): advance the sweep by up to
    /// `budget` counted matches, returning the chunk and the position
    /// to continue from.
    pub(crate) fn count_advance(
        &self,
        req: &mut Request,
        compiled: &CompiledQuery,
        pos: SweepPos,
        budget: usize,
    ) -> (u64, Option<SweepPos>) {
        self.sweep(req, compiled, pos, budget, |shard, _, at, room| {
            // A whole untouched shard is O(1) when the aggregate
            // tables cover the query — take it regardless of budget.
            if let (Position::START, Some(fast)) = (at, &compiled.fast) {
                return (shard.tabulated(fast), None, Did::Tabulated);
            }
            let did = Did::from(at);
            let (n, next) = shard.count_resume(compiled, at.tree, room);
            let next = next.map(|tree| Position { tree, skip: 0 });
            (n, next, did)
        })
    }

    /// The offset page behind [`Service::eval_page`] and
    /// [`Service::eval_page_token`]'s stale recovery: sweep from the
    /// corpus start to `offset + limit` rows, every shard serving or
    /// extending its cached entry, and keep the last `limit` — plus
    /// the position after them, `None` once the result is exhausted.
    pub(crate) fn page_by_offset(
        &self,
        req: &mut Request,
        compiled: &CompiledQuery,
        offset: usize,
        limit: usize,
    ) -> (ResultSet, Option<SweepPos>) {
        let need = offset.saturating_add(limit);
        let mut acc: ResultSet = Vec::new();
        let start = SweepPos::default();
        let (_, parked) = self.sweep(req, compiled, start, need, |shard, si, _, room| {
            let (entry, did) = self.shard_rows_to(shard, si, compiled, room);
            let taken = entry.rows.len().min(room);
            acc.extend_from_slice(&entry.rows[..taken]);
            let done = entry.complete && taken == entry.rows.len();
            let next = (!done).then(|| position_after(&entry.rows[..taken], shard.base()));
            (taken as u64, next, did)
        });
        if let Some(at) = parked {
            // The page filled before these shards were reached.
            let entered = usize::from(at.at != Position::START);
            let unvisited = req.shards.len() - at.shard as usize - entered;
            self.counters.page_shards_skipped.add(unvisited as u64);
        }
        (acc.split_off(offset.min(acc.len())), parked)
    }

    /// One shard's rows to a depth of at least `depth` (or complete),
    /// through the build-id-scoped per-shard row store: a complete
    /// entry serves any depth; a prefix at least as deep serves
    /// outright; a shallower one is *extended* by a page from the
    /// position after its rows — only the missing rows are enumerated;
    /// nothing cached enumerates from the shard's start. What was
    /// enumerated is stored back, complete or not, where
    /// [`Service::eval`] and [`Service::count`] reuse it.
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
        let ((rows, next), did) = match cached {
            Some(entry) if entry.complete => {
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
                // installed must survive): its `Arc` is then unique in
                // the common single-client case, so the row buffer
                // *moves* through the extension instead of being
                // copied per page. Concurrency degrades this to one
                // copy, never to a wrong answer.
                self.shard_rows.lock().unwrap().remove_match(&key, &entry);
                let at = position_after(&entry.rows, shard.base());
                let (more, next) = shard.page(compiled, at, depth - entry.rows.len());
                let mut rows = Arc::unwrap_or_clone(entry.rows);
                rows.extend(more);
                ((rows, next), Did::Resumed)
            }
            None => {
                self.counters.result_misses.bump();
                (shard.page(compiled, Position::START, depth), Did::Started)
            }
        };
        let entry = ShardRows {
            rows: Arc::new(rows),
            complete: next.is_none(),
        };
        let mut store = self.shard_rows.lock().unwrap();
        // Concurrent sweeps of the same query: cached depth only
        // grows — never overwrite a deeper entry with a shallower one.
        let deeper_cached = !entry.complete
            && store
                .get(&key, build)
                .is_some_and(|e| e.complete || e.rows.len() >= entry.rows.len());
        if !deeper_cached {
            store.insert(key, build, entry.clone());
        }
        (entry, did)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_position_after_rows_names_their_last_tree() {
        let rows = [(5, NodeId(0)), (6, NodeId(1)), (6, NodeId(4))];
        // Global trees 5 and 6 of the shard whose first tree is 4.
        assert_eq!(position_after(&rows, 4), Position { tree: 2, skip: 2 });
        assert_eq!(position_after(&rows[..2], 4), Position { tree: 2, skip: 1 });
        assert_eq!(position_after(&rows[..1], 5), Position { tree: 0, skip: 1 });
        assert_eq!(position_after(&[], 4), Position::START);
    }
}
