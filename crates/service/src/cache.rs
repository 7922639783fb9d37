//! Bounded LRU maps, all one structure (`LruMap`): a slab of entries
//! threaded on one index-linked recency list, so a lookup, an insert
//! and an eviction each relink a constant number of entries and no
//! operation walks the map. The caches hold answers plus a build stamp
//! and nothing else:
//!
//! * the plan cache: query text → its compilation, which depends on
//!   the text alone;
//! * the row and count stores (`GenCache`): `(normalized query,
//!   shard id)` → the shard's complete rows, and — kept separate so
//!   counting never forces (or evicts) materialized rows — the same
//!   key → the shard's *count*.
//!   Each value is stamped with the shard build id it was computed on.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use lpath_model::NodeId;

use crate::plan::CompiledQuery;

/// A materialized, document-ordered match set.
pub type ResultSet = Vec<(u32, NodeId)>;

/// Cache key: the normalized query text plus the shard it was
/// evaluated on.
pub(crate) type Key = (String, u16);

/// The end of the list, and an unlinked slot's neighbours.
const NIL: usize = usize::MAX;

/// A bounded map that evicts its least recently used entry. Capacity
/// zero disables it.
///
/// Entries live in a slab indexed by key; each live slot is linked on
/// one recency list, `head` the most recently used, `tail` the least.
pub(crate) struct LruMap<K, V> {
    capacity: usize,
    index: HashMap<K, usize>,
    slots: Vec<Option<(K, V)>>,
    /// `(prev, next)` per slot: the neighbours toward the head and
    /// toward the tail.
    links: Vec<(usize, usize)>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

/// The plan cache: query text (normalized, or a raw-spelling alias) →
/// its compilation.
pub(crate) type PlanCache = LruMap<String, Arc<CompiledQuery>>;

impl<K: Hash + Eq + Clone, V: Clone> LruMap<K, V> {
    pub fn new(capacity: usize) -> Self {
        LruMap {
            capacity,
            index: HashMap::new(),
            slots: Vec::new(),
            links: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Look up `key`, making it the most recently used entry.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = *self.index.get(key)?;
        Some(self.touch(i).clone())
    }

    /// Insert or replace `key` as the most recently used entry,
    /// evicting the least recently used one when full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.index.get(&key) {
            self.slots[i].as_mut().expect("a live slot").1 = value;
            self.touch(i);
            return;
        }
        if self.len() >= self.capacity {
            self.remove_slot(self.tail);
        }
        let i = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.links.push((NIL, NIL));
            self.slots.len() - 1
        });
        self.index.insert(key.clone(), i);
        self.slots[i] = Some((key, value));
        self.link_front(i);
    }

    pub fn clear(&mut self) {
        *self = LruMap::new(self.capacity);
    }

    fn value(&self, i: usize) -> &V {
        &self.slots[i].as_ref().expect("a live slot").1
    }

    /// Move slot `i` to the head of the list and return its value.
    fn touch(&mut self, i: usize) -> &V {
        if self.head != i {
            self.unlink(i);
            self.link_front(i);
        }
        self.value(i)
    }

    fn remove_slot(&mut self, i: usize) {
        self.unlink(i);
        let (key, _) = self.slots[i].take().expect("a live slot");
        self.index.remove(&key);
        self.free.push(i);
    }

    fn link_front(&mut self, i: usize) {
        self.links[i] = (NIL, self.head);
        match self.head {
            NIL => self.tail = i,
            head => self.links[head].0 = i,
        }
        self.head = i;
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = self.links[i];
        match prev {
            NIL => self.head = next,
            p => self.links[p].1 = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.links[n].0 = prev,
        }
        self.links[i] = (NIL, NIL);
    }
}

/// A row or count store: an [`LruMap`] whose values are stamped with
/// the shard build id they were computed on. A probe presents the
/// build id of the shard it reads; an entry under another stamp is a
/// miss, left in place (it may belong to a newer build than the
/// prober's snapshot) until the next insert of its key replaces it or
/// recency evicts it. Entries of different shards legitimately hold
/// different stamps side by side.
pub(crate) struct GenCache<V>(LruMap<Key, (u64, V)>);

/// The count store: values are plain result sizes, orders of magnitude
/// smaller than the match sets they summarize.
pub(crate) type CountCache = GenCache<usize>;

/// The row store: one shard's complete result, global tree ids.
pub(crate) type ShardRowCache = GenCache<Arc<ResultSet>>;

impl<V: Clone> GenCache<V> {
    pub fn new(capacity: usize) -> Self {
        GenCache(LruMap::new(capacity))
    }

    /// Look up `key` at shard build `build`, refreshing its recency on
    /// a hit.
    pub fn get(&mut self, key: &Key, build: u64) -> Option<V> {
        let i = *self.0.index.get(key)?;
        (self.0.value(i).0 == build).then(|| self.0.touch(i).1.clone())
    }

    /// Insert or replace `key`'s entry as the most recently used,
    /// evicting the least recently used entry when full.
    pub fn insert(&mut self, key: Key, build: u64, value: V) {
        self.0.insert(key, (build, value));
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Resident entries, whatever their stamps.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

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
        // A newer build sees nothing; its insert replaces the entry.
        assert!(c.get(&key("//NP"), 2).is_none());
        c.insert(key("//NP"), 2, set(2));
        assert_eq!(c.get(&key("//NP"), 2).unwrap()[0].0, 2);
        assert!(c.get(&key("//NP"), 1).is_none());
        assert_eq!(c.0.len(), 1);
    }

    #[test]
    fn a_probe_at_another_build_misses_and_leaves_the_entry() {
        // A request still on an older snapshot probes the current
        // build's entry: a miss, and the entry stays to serve the
        // requests on the current build.
        let mut c = CountCache::new(2);
        c.insert(key("q"), 2, 7);
        assert_eq!(c.get(&key("q"), 1), None);
        assert_eq!(c.0.len(), 1);
        assert_eq!(c.get(&key("q"), 2), Some(7));
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
        assert_eq!(c.0.len(), 0);
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
    fn a_reinsert_refreshes_recency() {
        let mut c = CountCache::new(2);
        c.insert(key("a"), 1, 1);
        c.insert(key("b"), 1, 2);
        // Re-inserting "a", even with its very value, makes it the
        // most recently used: "b" is the victim.
        c.insert(key("a"), 1, 1);
        c.insert(key("c"), 1, 3);
        assert_eq!(c.get(&key("a"), 1), Some(1));
        assert_eq!(c.get(&key("b"), 1), None);
        assert_eq!(c.get(&key("c"), 1), Some(3));
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
    fn an_entry_that_raced_a_clear_is_never_served() {
        // A reader that snapshotted build 1 finishes after the
        // writer's `clear()` and inserts under the old stamp: readers
        // at the newer stamp miss it, and their insert replaces it.
        let mut c = CountCache::new(2);
        c.clear();
        c.insert(key("raced"), 1, 10);
        assert_eq!(c.get(&key("raced"), 2), None);
        c.insert(key("raced"), 2, 20);
        assert_eq!(c.get(&key("raced"), 2), Some(20));
        assert_eq!(c.get(&key("raced"), 1), None);
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

    #[test]
    fn lru_map_evicts_the_least_recently_used() {
        let mut m = LruMap::new(2);
        m.insert("a".to_string(), 1);
        m.insert("b".to_string(), 2);
        assert_eq!(m.get("a"), Some(1));
        m.insert("c".to_string(), 3);
        assert_eq!(
            (m.get("a"), m.get("b"), m.get("c")),
            (Some(1), None, Some(3))
        );
        // Replacing a resident key refreshes it and evicts nothing.
        m.insert("a".to_string(), 9);
        assert_eq!(m.len(), 2);
        m.insert("d".to_string(), 4);
        assert_eq!((m.get("a"), m.get("c")), (Some(9), None));
        let mut off = LruMap::new(0);
        off.insert("a".to_string(), 1);
        assert_eq!(off.get("a"), None);
    }

    /// The reference model of the row store: one map of
    /// `key → (build, stamp, rows)`, the victim found by scanning every
    /// entry for the oldest stamp.
    struct ScanCache {
        capacity: usize,
        tick: u64,
        map: HashMap<Key, (u64, u64, Arc<ResultSet>)>,
    }

    impl ScanCache {
        fn get(&mut self, key: &Key, build: u64) -> Option<Arc<ResultSet>> {
            let e = self.map.get_mut(key).filter(|e| e.0 == build)?;
            self.tick += 1;
            e.1 = self.tick;
            Some(Arc::clone(&e.2))
        }

        fn insert(&mut self, key: Key, build: u64, rows: Arc<ResultSet>) {
            if self.capacity == 0 {
                return;
            }
            self.tick += 1;
            if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
                let victim = self.map.iter().min_by_key(|(_, e)| e.1);
                let victim = victim.map(|(k, _)| k.clone()).expect("full");
                self.map.remove(&victim);
            }
            self.map.insert(key, (build, self.tick, rows));
        }
    }

    /// The recency list is well linked and holds each resident entry
    /// exactly once.
    fn assert_list_consistent<K, V>(m: &LruMap<K, V>) {
        let (mut listed, mut prev, mut i) = (0, NIL, m.head);
        while i != NIL {
            assert_eq!(m.links[i].0, prev, "back link");
            assert!(m.slots[i].is_some(), "a freed slot is listed");
            listed += 1;
            (prev, i) = (i, m.links[i].1);
        }
        assert_eq!(m.tail, prev, "tail");
        assert_eq!(listed, m.index.len());
    }

    /// Seeded random `get` / `insert` / `clear` sequences over up to 3
    /// shards, 3 builds and 8 query texts, at capacities 0–6: after
    /// every operation the row store and the plain-LRU scan agree on
    /// the rows served (by identity) and on the resident
    /// `(key, build)` set. `PROPTEST_CASES` sets the number of
    /// sequences (default 256).
    #[test]
    fn recency_lists_pick_the_victim_the_scan_picks() {
        let cases: u64 = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = |n: u64| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for case in 0..cases {
            let (shards, builds, keys) = (1 + next(3), 1 + next(3), 1 + next(8));
            let capacity = usize::try_from(next(7)).unwrap();
            let mut store = ShardRowCache::new(capacity);
            let mut scan = ScanCache {
                capacity,
                tick: 0,
                map: HashMap::new(),
            };
            for op in 0..200 {
                let k: Key = (
                    format!("q{}", next(keys)),
                    u16::try_from(next(shards)).unwrap(),
                );
                let build = 1 + next(builds);
                let at = format!("case {case} op {op}");
                match next(15) {
                    0..=6 => {
                        let got = store.get(&k, build).map(|r| Arc::as_ptr(&r));
                        let want = scan.get(&k, build).map(|r| Arc::as_ptr(&r));
                        assert_eq!(got, want, "{at}");
                    }
                    7..=13 => {
                        // Few distinct values: equal rows recur in
                        // distinct allocations.
                        let value = set(u32::try_from(next(3)).unwrap());
                        store.insert(k.clone(), build, Arc::clone(&value));
                        scan.insert(k, build, value);
                    }
                    _ => {
                        store.clear();
                        scan.map.clear();
                    }
                }
                let resident: BTreeSet<(Key, u64)> = store
                    .0
                    .slots
                    .iter()
                    .flatten()
                    .map(|(k, e)| (k.clone(), e.0))
                    .collect();
                let want: BTreeSet<(Key, u64)> =
                    scan.map.iter().map(|(k, e)| (k.clone(), e.0)).collect();
                assert_eq!(resident, want, "{at}");
                assert_list_consistent(&store.0);
            }
        }
    }
}
