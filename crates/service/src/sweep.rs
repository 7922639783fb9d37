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
//! the next shard. Two steps exist:
//!
//! * **page from a position** (`page_positioned`, behind
//!   [`Service::eval_page_token`]) — [`Shard::page`] from the position
//!   a token carried. An offset page ([`Service::eval_page`], and a
//!   stale token's recovery) is the same sweep from the corpus start,
//!   less its first `offset` rows;
//! * **count from a tree** (`count_advance`, behind
//!   [`Service::count_resume`] and [`Service::count_token`]) —
//!   [`Shard::count_resume`], parking only at tree boundaries, or the
//!   aggregate table's O(1) answer for a whole shape-covered shard.

use lpath_core::Position;

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
    /// Looked the whole shard up in the aggregate tables.
    Tabulated,
    /// Evaluated the shard from the step's position: its start, or a
    /// position inside it.
    Evaluated,
}

impl Service {
    /// The one shard walk. Advances the sweep parked `at` by up to
    /// `budget` matches (a step may overshoot: the budget bounds work)
    /// and returns what the steps produced plus where the sweep is now
    /// parked — `None` once the shards are exhausted. `step` receives
    /// the shard, the position within it and the budget left; it
    /// answers how much it produced, the position the shard is parked
    /// at (`None`: exhausted), and how.
    fn sweep(
        &self,
        req: &mut Request,
        compiled: &CompiledQuery,
        mut at: SweepPos,
        budget: usize,
        mut step: impl FnMut(&Shard, Position, usize) -> (u64, Option<Position>, Did),
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
            req.hit = false;
            let room = usize::try_from(budget as u64 - produced).unwrap_or(usize::MAX);
            let (n, next, did) = step(shard, at.at, room);
            match did {
                Did::Tabulated => self.counters.count_fast.bump(),
                Did::Evaluated if at.at == Position::START => {
                    self.counters.page_partial_evals.bump();
                }
                Did::Evaluated => {
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
        let (_, parked) = self.sweep(req, compiled, pos, limit, |shard, at, room| {
            let (rows, next) = shard.page(compiled, at, room);
            let n = rows.len() as u64;
            acc.extend(rows);
            (n, next, Did::Evaluated)
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
        self.sweep(req, compiled, pos, budget, |shard, at, room| {
            // A whole untouched shard is O(1) when the aggregate
            // tables cover the query — take it regardless of budget.
            if let (Position::START, Some(fast)) = (at, &compiled.fast) {
                return (shard.tabulated(fast), None, Did::Tabulated);
            }
            let (n, next) = shard.count_resume(compiled, at.tree, room);
            let next = next.map(|tree| Position { tree, skip: 0 });
            (n, next, Did::Evaluated)
        })
    }

    /// The offset page behind [`Service::eval_page`] and
    /// [`Service::eval_page_token`]'s stale recovery: a positioned
    /// sweep from the corpus start for `offset + limit` rows, less the
    /// first `offset` — plus the position after them, `None` once the
    /// result is exhausted.
    pub(crate) fn page_by_offset(
        &self,
        req: &mut Request,
        compiled: &CompiledQuery,
        offset: usize,
        limit: usize,
    ) -> (ResultSet, Option<SweepPos>) {
        let need = offset.saturating_add(limit);
        let (mut rows, parked) = self.page_positioned(req, compiled, SweepPos::default(), need);
        (rows.split_off(offset.min(rows.len())), parked)
    }
}
