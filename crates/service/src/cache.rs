//! Bounded, build-id-invalidated LRU stores: `(normalized query,
//! shard id)` → the shard's rows so far plus the checkpoint that
//! continues them, and — kept separate so counting never forces (or
//! evicts) materialized rows — the same key → the shard's *count*.

use std::collections::HashMap;
use std::sync::Arc;

use lpath_model::NodeId;

use crate::shard::ShardCheckpoint;

/// A materialized, document-ordered match set.
pub type ResultSet = Vec<(u32, NodeId)>;

/// What the service knows of one shard's result for one query: the
/// rows enumerated so far and — while the enumeration is unfinished —
/// the suspended execution state that continues right after them. The
/// entry is the shard's **complete** result exactly when `ckpt` is
/// `None` (what [`crate::shard::ShardPage`] already says). Entries are
/// stamped with the shard's build id (the same scope the checkpoint
/// itself is tagged with), so head-shard entries survive `append_ptb`
/// untouched.
#[derive(Clone)]
pub(crate) struct ShardRows {
    /// The shard's first `rows.len()` matches, global tree ids.
    pub rows: Arc<ResultSet>,
    /// Resumes the shard's enumeration at row `rows.len()`.
    pub ckpt: Option<Arc<ShardCheckpoint>>,
}

/// "Identical re-insert" for the LRU's no-restamp rule: the same rows
/// (racing evaluators produce equal rows in distinct allocations) in
/// the same state of completion.
impl PartialEq for ShardRows {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.ckpt.is_some() == other.ckpt.is_some()
    }
}

/// Cache key: the normalized query text plus the shard it was
/// evaluated on.
pub(crate) type Key = (String, u16);

struct Entry<V> {
    build: u64,
    stamp: u64,
    /// Lookup hits since insertion — the admission policy's heat
    /// signal. Never decays: a hot entry stays pinned until its
    /// shard's build goes stale.
    hits: u32,
    value: V,
}

/// Hits at which an entry counts as *hot*: protected from eviction by
/// colder newcomers while its shard's build is current. Two hits is
/// the classic scan-resistance bar — a one-shot query sweep re-reads
/// nothing, so sweep entries never reach it.
const HOT: u32 = 2;

/// A bounded least-recently-used map. Entries whose stamp — a shard
/// build id — differs from the one presented are treated as absent
/// and dropped on contact. Eviction is by recency alone: entries of
/// different shards legitimately hold different stamps side by side.
pub(crate) struct GenCache<V> {
    capacity: usize,
    tick: u64,
    map: HashMap<Key, Entry<V>>,
}

/// The count store: values are plain result sizes, orders of magnitude
/// smaller than the match sets they summarize.
pub(crate) type CountCache = GenCache<usize>;

/// The row store: complete results and checkpointed prefixes alike.
pub(crate) type ShardRowCache = GenCache<ShardRows>;

impl ShardRowCache {
    /// The shard's full result, when the cached entry is complete.
    pub fn complete(&mut self, key: &Key, build: u64) -> Option<Arc<ResultSet>> {
        let entry = self.get(key, build)?;
        entry.ckpt.is_none().then_some(entry.rows)
    }

    /// `(complete, checkpointed)` entry counts.
    pub fn census(&self) -> (usize, usize) {
        let complete = self.map.values().filter(|e| e.value.ckpt.is_none()).count();
        (complete, self.map.len() - complete)
    }
}

impl<V: Clone + PartialEq> GenCache<V> {
    pub fn new(capacity: usize) -> Self {
        GenCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
        }
    }

    /// Look up `key` at shard build `build`, refreshing its recency and
    /// bumping its heat.
    pub fn get(&mut self, key: &Key, build: u64) -> Option<V> {
        match self.map.get_mut(key) {
            Some(e) if e.build == build => {
                self.tick += 1;
                e.stamp = self.tick;
                e.hits = e.hits.saturating_add(1);
                Some(e.value.clone())
            }
            Some(_) => {
                // Stale build: drop eagerly.
                self.map.remove(key);
                None
            }
            None => None,
        }
    }

    /// Insert, evicting the least recently used *evictable* entry when
    /// full. Capacity zero disables the cache entirely. Re-inserting a
    /// value identical to the cached one is a no-op — no recency
    /// re-stamp, no eviction churn (racing evaluators of the same
    /// query would otherwise keep promoting each other's entry and
    /// evicting innocent neighbours).
    ///
    /// **Admission policy**: entries re-read [`HOT`]+ times are pinned
    /// — a sweep of distinct one-shot queries cannot push them out.
    /// When every resident entry is pinned the newcomer is *rejected*
    /// instead (returns `false`): the sweep pays the miss, the working
    /// set stays. An entry of the newcomer's own shard under another
    /// stamp is never pinned, however hot it once was: one of the two
    /// belongs to a build that is gone.
    pub fn insert(&mut self, key: Key, build: u64, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(e) = self.map.get(&key) {
            if e.build == build && e.value == value {
                return true;
            }
        }
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Evict the oldest stamp — but never a pinned entry.
            let victim = self
                .map
                .iter()
                .filter(|(k, e)| e.hits < HOT || (k.1 == key.1 && e.build != build))
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone());
            match victim {
                Some(v) => {
                    self.map.remove(&v);
                }
                None => return false,
            }
        }
        self.map.insert(
            key,
            Entry {
                build,
                stamp: self.tick,
                hits: 0,
                value,
            },
        );
        true
    }

    /// Compare-and-remove: drop `key`'s entry only if the cached value
    /// is still `value`. Used to take an *observed* entry back out of
    /// the cache without discarding a replacement a concurrent caller
    /// installed in the meantime.
    pub fn remove_match(&mut self, key: &Key, value: &V) {
        if let Some(e) = self.map.get(key) {
            if e.value == *value {
                self.map.remove(key);
            }
        }
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(q: &str) -> Key {
        (q.to_string(), 0)
    }

    fn set(n: u32) -> Arc<ResultSet> {
        Arc::new(vec![(n, NodeId(0))])
    }

    #[test]
    fn hit_and_generation_invalidation() {
        let mut c = GenCache::new(4);
        c.insert(key("//NP"), 1, set(1));
        assert!(c.get(&key("//NP"), 1).is_some());
        // A newer build sees nothing and purges the entry.
        assert!(c.get(&key("//NP"), 2).is_none());
        assert_eq!(c.map.len(), 0);
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut c = GenCache::new(2);
        c.insert(key("a"), 1, set(1));
        c.insert(key("b"), 1, set(2));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get(&key("a"), 1).is_some());
        c.insert(key("c"), 1, set(3));
        assert!(c.get(&key("a"), 1).is_some());
        assert!(c.get(&key("b"), 1).is_none());
        assert!(c.get(&key("c"), 1).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = GenCache::new(0);
        c.insert(key("a"), 1, set(1));
        assert!(c.get(&key("a"), 1).is_none());
        assert_eq!(c.map.len(), 0);
    }

    #[test]
    fn shard_keys_are_distinct() {
        let mut c = GenCache::new(4);
        c.insert(("q".into(), 0), 1, set(1));
        c.insert(("q".into(), 1), 1, set(2));
        assert_eq!(c.get(&("q".into(), 0), 1).unwrap()[0].0, 1);
        assert_eq!(c.get(&("q".into(), 1), 1).unwrap()[0].0, 2);
    }

    #[test]
    fn identical_reinsert_does_not_restamp() {
        let mut c = GenCache::new(2);
        c.insert(key("a"), 1, set(1));
        c.insert(key("b"), 1, set(2));
        // Re-inserting "a"'s identical value must NOT refresh its
        // recency: "a" (stamped first) stays the LRU victim.
        c.insert(key("a"), 1, set(1));
        c.insert(key("c"), 1, set(3));
        assert!(
            c.get(&key("a"), 1).is_none(),
            "identical re-insert restamped"
        );
        assert!(c.get(&key("b"), 1).is_some());
        assert!(c.get(&key("c"), 1).is_some());
    }

    #[test]
    fn changed_value_reinsert_does_restamp() {
        let mut c = GenCache::new(2);
        c.insert(key("a"), 1, set(1));
        c.insert(key("b"), 1, set(2));
        // A *different* value under the same key is a real update.
        c.insert(key("a"), 1, set(9));
        c.insert(key("c"), 1, set(3));
        assert_eq!(c.get(&key("a"), 1).unwrap()[0].0, 9);
        assert!(c.get(&key("b"), 1).is_none());
    }

    #[test]
    fn plain_lru_does_not_treat_foreign_stamps_as_stale() {
        // Build-id-scoped entries: simultaneously-valid entries carry
        // different stamps. The victim must be the LRU entry, not
        // whichever entry's stamp differs from the insert's.
        let mut c = CountCache::new(2);
        c.insert(key("head"), 7, 10); // build id 7
        c.insert(key("mid"), 8, 20); // build id 8
        assert!(c.get(&key("head"), 7).is_some()); // refresh "head"
        c.insert(key("tail"), 8, 30);
        assert_eq!(c.get(&key("head"), 7), Some(10), "valid entry evicted");
        assert!(c.get(&key("mid"), 8).is_none());
        assert_eq!(c.get(&key("tail"), 8), Some(30));
    }

    #[test]
    fn an_entry_that_raced_a_clear_is_never_served_or_pinned() {
        // A reader that snapshotted build 1 finishes after the
        // writer's `clear()` and inserts under the old stamp.
        let mut c = CountCache::new(2);
        c.clear();
        c.insert(key("raced"), 1, 10);
        c.insert(key("hot"), 1, 11);
        for _ in 0..4 {
            c.get(&key("hot"), 1);
        }
        // However hot at its own stamp, an old-stamp entry is never
        // pinned against inserts at the newer one: plain LRU evicts
        // "raced" (the older stamp) first, then "hot".
        assert!(c.insert(key("a"), 2, 20));
        assert!(c.insert(key("b"), 2, 30));
        assert_eq!(c.map.len(), 2);
        assert_eq!(c.get(&key("a"), 2), Some(20));
        assert_eq!(c.get(&key("b"), 2), Some(30));
        // And one that is still resident is dropped on contact, never
        // served at the newer stamp.
        let mut c = CountCache::new(2);
        c.insert(key("raced"), 1, 10);
        assert_eq!(c.get(&key("raced"), 2), None);
        assert_eq!(c.map.len(), 0);
    }

    #[test]
    fn sweep_cannot_evict_hot_entries() {
        let mut c = CountCache::new(2);
        c.insert(key("hot1"), 1, 1);
        c.insert(key("hot2"), 1, 2);
        for _ in 0..2 {
            c.get(&key("hot1"), 1);
            c.get(&key("hot2"), 1);
        }
        // A sweep of distinct one-shot inserts: every one rejected,
        // the hot working set intact.
        for i in 0..16 {
            assert!(!c.insert((format!("sweep{i}"), 0), 1, 99));
        }
        assert_eq!(c.get(&key("hot1"), 1), Some(1));
        assert_eq!(c.get(&key("hot2"), 1), Some(2));
    }

    #[test]
    fn cold_entries_still_evict_under_hot_protection() {
        let mut c = CountCache::new(2);
        c.insert(key("hot"), 1, 1);
        c.get(&key("hot"), 1);
        c.get(&key("hot"), 1);
        c.insert(key("cold"), 1, 2);
        // The cold neighbour is the victim; the hot entry survives.
        assert!(c.insert(key("new"), 1, 3));
        assert_eq!(c.get(&key("hot"), 1), Some(1));
        assert!(c.get(&key("cold"), 1).is_none());
        assert_eq!(c.get(&key("new"), 1), Some(3));
    }

    #[test]
    fn stale_hot_entries_are_not_protected() {
        let mut c = CountCache::new(1);
        c.insert(key("old"), 1, 1);
        c.get(&key("old"), 1);
        c.get(&key("old"), 1);
        // The shard was rebuilt: yesterday's heat buys no protection.
        assert!(c.insert(key("new"), 2, 2));
        assert_eq!(c.get(&key("new"), 2), Some(2));
        // Another shard's stamp says nothing about this one's build:
        // its hot entry stays pinned against the newcomer.
        c.get(&key("new"), 2);
        c.get(&key("new"), 2);
        assert!(!c.insert(("other".into(), 1), 3, 3));
        assert_eq!(c.get(&key("new"), 2), Some(2));
    }

    #[test]
    fn count_cache_counts() {
        let mut c = CountCache::new(2);
        c.insert(key("a"), 1, 41);
        assert_eq!(c.get(&key("a"), 1), Some(41));
        assert_eq!(c.get(&key("a"), 2), None);
        c.insert(key("a"), 2, 42);
        assert_eq!(c.get(&key("a"), 2), Some(42));
    }
}
