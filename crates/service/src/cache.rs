//! Bounded LRU maps, all on one structure: a slab of entries threaded
//! on index-linked recency lists (`Lru`), so a lookup, an insert and
//! an eviction each relink a constant number of entries and no
//! operation walks the map. Two policies sit on it:
//!
//! * the plan cache (`LruMap`): plain recency over one list;
//! * the row and count stores (`GenCache`): `(normalized query,
//!   shard id)` → the shard's rows so far plus the checkpoint that
//!   continues them, and — kept separate so counting never forces (or
//!   evicts) materialized rows — the same key → the shard's *count*.
//!   Entries are build-id scoped and hot ones are pinned.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use lpath_model::NodeId;

use crate::plan::CompiledQuery;
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

/// The end of a list, and an unlinked slot's neighbours.
const NIL: usize = usize::MAX;

/// One recency list threaded through an [`Lru`]'s slab: `head` is the
/// most recently used entry, `tail` the least.
#[derive(Clone, Copy)]
pub(crate) struct List {
    head: usize,
    tail: usize,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };

    fn tail(self) -> Option<usize> {
        (self.tail != NIL).then_some(self.tail)
    }
}

/// A slab of keyed entries plus a key → slot index. Each live entry is
/// linked on exactly one [`List`]; the lists belong to the policy on
/// top, which alone knows which list an entry is on.
pub(crate) struct Lru<K, V> {
    index: HashMap<K, usize>,
    slots: Vec<Option<(K, V)>>,
    /// `(prev, next)` per slot: the neighbours toward the head and
    /// toward the tail.
    links: Vec<(usize, usize)>,
    free: Vec<usize>,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    fn new() -> Self {
        Lru {
            index: HashMap::new(),
            slots: Vec::new(),
            links: Vec::new(),
            free: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn find<Q>(&self, key: &Q) -> Option<usize>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.get(key).copied()
    }

    fn entry(&self, i: usize) -> &(K, V) {
        self.slots[i].as_ref().expect("a live slot")
    }

    fn value_mut(&mut self, i: usize) -> &mut V {
        &mut self.slots[i].as_mut().expect("a live slot").1
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten().map(|(_, v)| v)
    }

    /// Store an entry whose key is absent, not yet on any list.
    fn alloc(&mut self, key: K, value: V) -> usize {
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.links.push((NIL, NIL));
                self.slots.len() - 1
            }
        };
        self.index.insert(key.clone(), i);
        self.slots[i] = Some((key, value));
        i
    }

    /// Drop entry `i`, which must already be off its list.
    fn free(&mut self, i: usize) {
        let (key, _) = self.slots[i].take().expect("a live slot");
        self.index.remove(&key);
        self.free.push(i);
    }

    fn link_front(&mut self, list: &mut List, i: usize) {
        self.links[i] = (NIL, list.head);
        match list.head {
            NIL => list.tail = i,
            head => self.links[head].0 = i,
        }
        list.head = i;
    }

    fn unlink(&mut self, list: &mut List, i: usize) {
        let (prev, next) = self.links[i];
        match prev {
            NIL => list.head = next,
            p => self.links[p].1 = next,
        }
        match next {
            NIL => list.tail = prev,
            n => self.links[n].0 = prev,
        }
        self.links[i] = (NIL, NIL);
    }

    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.links.clear();
        self.free.clear();
    }
}

/// A bounded map that evicts its least recently used entry: the plan
/// cache's policy. Capacity zero disables it.
pub(crate) struct LruMap<K, V> {
    capacity: usize,
    lru: Lru<K, V>,
    order: List,
}

/// The plan cache: query text (normalized, or a raw-spelling alias) →
/// its compilation.
pub(crate) type PlanCache = LruMap<String, Arc<CompiledQuery>>;

impl<K: Hash + Eq + Clone, V: Clone> LruMap<K, V> {
    pub fn new(capacity: usize) -> Self {
        LruMap {
            capacity,
            lru: Lru::new(),
            order: List::EMPTY,
        }
    }

    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Look up `key`, making it the most recently used entry.
    pub fn get<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let i = self.lru.find(key)?;
        self.lru.unlink(&mut self.order, i);
        self.lru.link_front(&mut self.order, i);
        Some(self.lru.entry(i).1.clone())
    }

    /// Insert or replace `key` as the most recently used entry,
    /// evicting the least recently used one when full.
    pub fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        let i = match self.lru.find(&key) {
            Some(i) => {
                self.lru.unlink(&mut self.order, i);
                *self.lru.value_mut(i) = value;
                i
            }
            None => {
                if self.lru.len() >= self.capacity {
                    if let Some(oldest) = self.order.tail() {
                        self.lru.unlink(&mut self.order, oldest);
                        self.lru.free(oldest);
                    }
                }
                self.lru.alloc(key, value)
            }
        };
        self.lru.link_front(&mut self.order, i);
    }

    pub fn clear(&mut self) {
        self.lru.clear();
        self.order = List::EMPTY;
    }
}

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
///
/// Entries below [`HOT`] hits sit on one *cold* recency list; hot ones
/// on one list per `(shard, build)`. Every eviction candidate is then
/// the tail of a list, so choosing the victim compares the cold tail
/// with one tail per *other* build of the newcomer's shard that has hot
/// entries (none or one in steady state) and walks no entries.
pub(crate) struct GenCache<V> {
    capacity: usize,
    tick: u64,
    lru: Lru<Key, Entry<V>>,
    cold: List,
    /// Indexed by shard id: that shard's hot lists, one per build id
    /// holding hot entries (an emptied list is dropped).
    hot: Vec<Vec<(u64, List)>>,
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
        let complete = self.lru.values().filter(|e| e.value.ckpt.is_none()).count();
        (complete, self.lru.len() - complete)
    }
}

impl<V: Clone + PartialEq> GenCache<V> {
    pub fn new(capacity: usize) -> Self {
        GenCache {
            capacity,
            tick: 0,
            lru: Lru::new(),
            cold: List::EMPTY,
            hot: Vec::new(),
        }
    }

    /// Look up `key` at shard build `build`, refreshing its recency and
    /// bumping its heat.
    pub fn get(&mut self, key: &Key, build: u64) -> Option<V> {
        let i = self.lru.find(key)?;
        if self.lru.entry(i).1.build != build {
            // Stale build: drop eagerly.
            self.remove(i);
            return None;
        }
        self.unlink(i);
        self.tick += 1;
        let e = self.lru.value_mut(i);
        e.stamp = self.tick;
        e.hits = e.hits.saturating_add(1);
        let value = e.value.clone();
        self.link(i);
        Some(value)
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
        let found = self.lru.find(&key);
        if let Some(i) = found {
            let e = &self.lru.entry(i).1;
            if e.build == build && e.value == value {
                return true;
            }
        }
        self.tick += 1;
        let entry = Entry {
            build,
            stamp: self.tick,
            hits: 0,
            value,
        };
        let i = match found {
            Some(i) => {
                self.unlink(i);
                *self.lru.value_mut(i) = entry;
                i
            }
            None => {
                if self.lru.len() >= self.capacity {
                    // Evict the oldest stamp — but never a pinned entry.
                    match self.victim(key.1, build) {
                        Some(v) => self.remove(v),
                        None => return false,
                    }
                }
                self.lru.alloc(key, entry)
            }
        };
        self.link(i);
        true
    }

    /// Compare-and-remove: drop `key`'s entry only if the cached value
    /// is still `value`. Used to take an *observed* entry back out of
    /// the cache without discarding a replacement a concurrent caller
    /// installed in the meantime.
    pub fn remove_match(&mut self, key: &Key, value: &V) {
        if let Some(i) = self.lru.find(key) {
            if self.lru.entry(i).1.value == *value {
                self.remove(i);
            }
        }
    }

    pub fn clear(&mut self) {
        self.lru.clear();
        self.cold = List::EMPTY;
        self.hot.clear();
    }

    /// The least recently used entry a newcomer of `shard` at `build`
    /// may evict: the oldest of the cold tail and the tails of `shard`'s
    /// hot lists under other builds. `None` when every entry is pinned.
    fn victim(&self, shard: u16, build: u64) -> Option<usize> {
        let hot = self.hot.get(usize::from(shard)).into_iter().flatten();
        let stale = hot.filter(|(b, _)| *b != build).map(|&(_, list)| list);
        stale
            .chain([self.cold])
            .filter_map(List::tail)
            .min_by_key(|&i| self.lru.entry(i).1.stamp)
    }

    fn remove(&mut self, i: usize) {
        self.unlink(i);
        self.lru.free(i);
    }

    /// Where entry `i` is listed: `(shard, build)` when hot, `None`
    /// when cold.
    fn hot_place(&self, i: usize) -> Option<(usize, u64)> {
        let (key, e) = self.lru.entry(i);
        (e.hits >= HOT).then_some((usize::from(key.1), e.build))
    }

    /// Take entry `i` off its list.
    fn unlink(&mut self, i: usize) {
        let Some((shard, build)) = self.hot_place(i) else {
            self.lru.unlink(&mut self.cold, i);
            return;
        };
        let lists = &mut self.hot[shard];
        let at = lists.iter().position(|l| l.0 == build).expect("listed");
        self.lru.unlink(&mut lists[at].1, i);
        if lists[at].1.tail().is_none() {
            lists.swap_remove(at);
        }
    }

    /// Put entry `i` at the head of the list its heat and build select.
    fn link(&mut self, i: usize) {
        let Some((shard, build)) = self.hot_place(i) else {
            self.lru.link_front(&mut self.cold, i);
            return;
        };
        if self.hot.len() <= shard {
            self.hot.resize_with(shard + 1, Vec::new);
        }
        let lists = &mut self.hot[shard];
        let at = match lists.iter().position(|l| l.0 == build) {
            Some(at) => at,
            None => {
                lists.push((build, List::EMPTY));
                lists.len() - 1
            }
        };
        self.lru.link_front(&mut lists[at].1, i);
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
        // A newer build sees nothing and purges the entry.
        assert!(c.get(&key("//NP"), 2).is_none());
        assert_eq!(c.lru.len(), 0);
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
        assert_eq!(c.lru.len(), 0);
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
        assert_eq!(c.lru.len(), 2);
        assert_eq!(c.get(&key("a"), 2), Some(20));
        assert_eq!(c.get(&key("b"), 2), Some(30));
        // And one that is still resident is dropped on contact, never
        // served at the newer stamp.
        let mut c = CountCache::new(2);
        c.insert(key("raced"), 1, 10);
        assert_eq!(c.get(&key("raced"), 2), None);
        assert_eq!(c.lru.len(), 0);
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

    /// The reference model of [`GenCache`]: one map, the victim found
    /// by scanning every entry for the oldest evictable stamp.
    struct ScanCache {
        capacity: usize,
        tick: u64,
        map: HashMap<Key, (u64, u64, u32, usize)>, // build, stamp, hits, value
    }

    impl ScanCache {
        fn get(&mut self, key: &Key, build: u64) -> Option<usize> {
            match self.map.get_mut(key) {
                Some(e) if e.0 == build => {
                    self.tick += 1;
                    e.1 = self.tick;
                    e.2 = e.2.saturating_add(1);
                    Some(e.3)
                }
                Some(_) => {
                    self.map.remove(key);
                    None
                }
                None => None,
            }
        }

        fn insert(&mut self, key: Key, build: u64, value: usize) -> bool {
            if self.capacity == 0 {
                return false;
            }
            if let Some(e) = self.map.get(&key) {
                if e.0 == build && e.3 == value {
                    return true;
                }
            }
            self.tick += 1;
            if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
                let victim = self
                    .map
                    .iter()
                    .filter(|(k, e)| e.2 < HOT || (k.1 == key.1 && e.0 != build))
                    .min_by_key(|(_, e)| e.1)
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(v) => {
                        self.map.remove(&v);
                    }
                    None => return false,
                }
            }
            self.map.insert(key, (build, self.tick, 0, value));
            true
        }

        fn remove_match(&mut self, key: &Key, value: usize) {
            if self.map.get(key).is_some_and(|e| e.3 == value) {
                self.map.remove(key);
            }
        }
    }

    /// Every list is well linked, and together they hold each resident
    /// entry exactly once, on the list its heat and build select.
    fn assert_lists_consistent(c: &CountCache) {
        let walk = |list: List| {
            let (mut seen, mut prev, mut i) = (Vec::new(), NIL, list.head);
            while i != NIL {
                assert_eq!(c.lru.links[i].0, prev, "back link");
                seen.push(i);
                (prev, i) = (i, c.lru.links[i].1);
            }
            assert_eq!(list.tail, prev, "tail");
            seen
        };
        let mut listed = 0;
        for i in walk(c.cold) {
            assert!(c.hot_place(i).is_none(), "hot entry on the cold list");
            listed += 1;
        }
        for (shard, lists) in c.hot.iter().enumerate() {
            for &(build, list) in lists {
                let on = walk(list);
                assert!(!on.is_empty(), "empty hot list kept");
                for i in on {
                    assert_eq!(c.hot_place(i), Some((shard, build)));
                    listed += 1;
                }
            }
        }
        assert_eq!(listed, c.lru.len());
    }

    /// Seeded random `get` / `insert` / `remove_match` / `clear`
    /// sequences over up to 3 shards, 3 builds and 8 query texts, at
    /// capacities 0–6: after every operation the recency lists and the
    /// reference scan agree on the verdict, the value served and the
    /// resident `(key, build)` set. `PROPTEST_CASES` sets the number of
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
            // Few keys or builds make re-reads, and so pinning, common.
            let (shards, builds, keys) = (1 + next(3), 1 + next(3), 1 + next(8));
            let capacity = usize::try_from(next(7)).unwrap();
            let mut lists = CountCache::new(capacity);
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
                let value = usize::try_from(next(3)).unwrap();
                let at = format!("case {case} op {op}");
                match next(16) {
                    0..=6 => assert_eq!(lists.get(&k, build), scan.get(&k, build), "{at}"),
                    7..=13 => assert_eq!(
                        lists.insert(k.clone(), build, value),
                        scan.insert(k, build, value),
                        "{at}"
                    ),
                    14 => {
                        lists.remove_match(&k, &value);
                        scan.remove_match(&k, value);
                    }
                    _ => {
                        lists.clear();
                        scan.map.clear();
                    }
                }
                let resident: BTreeSet<(Key, u64)> = lists
                    .lru
                    .slots
                    .iter()
                    .flatten()
                    .map(|(k, e)| (k.clone(), e.build))
                    .collect();
                let want: BTreeSet<(Key, u64)> =
                    scan.map.iter().map(|(k, e)| (k.clone(), e.0)).collect();
                assert_eq!(resident, want, "{at}");
                assert_lists_consistent(&lists);
            }
        }
    }
}
