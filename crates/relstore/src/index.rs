//! Ordered secondary indexes.
//!
//! An index is a permutation of the table's rows sorted by a key column
//! list. A lookup selects an *equality prefix* over the leading key
//! columns, optionally refined by a *range* on the next key column.
//! Lookups are finger searches ([`Index::range_from`]): the caller
//! passes where its previous probe landed, and the search gallops
//! forward from there, or binary-searches the rows before it when the
//! window lies behind. A join stage's successive probes land close
//! together (the outer stage emits in `(tid, left)` order), so each
//! costs `O(log distance)` instead of `O(log rows)`; [`Index::range`]
//! is the cold form, a plain binary search. This supports exactly the
//! access patterns the paper's axis joins need, e.g. on the clustered
//! key `{name, tid, left, …}`:
//!
//! * `name = 'NP' ∧ tid = t ∧ left = c.right` — immediate-following;
//! * `name = 'NP' ∧ tid = t ∧ left ≥ c.right` — following;
//! * `name = 'NP' ∧ tid = t ∧ c.left ≤ left ≤ c.right` — containment.

use std::cmp::Ordering;
use std::ops::Bound;

use crate::schema::ColId;
use crate::table::{RowId, Table};
use crate::value::Value;

/// A sorted-permutation index over `key` columns of one table.
#[derive(Clone, Debug)]
pub struct Index {
    key: Vec<ColId>,
    perm: Vec<RowId>,
}

impl Index {
    /// Build by sorting the row permutation; `O(n log n)`.
    pub fn build(table: &Table, key: Vec<ColId>) -> Self {
        assert!(!key.is_empty(), "index needs at least one key column");
        let mut perm: Vec<RowId> = table.scan().collect();
        perm.sort_unstable_by(|&a, &b| table.cmp_rows(a, b, &key));
        Index { key, perm }
    }

    /// The key columns, major first.
    pub fn key(&self) -> &[ColId] {
        &self.key
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Does the index cover zero rows?
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Rows whose leading key columns equal `prefix`, in key order.
    pub fn equal_range(&self, table: &Table, prefix: &[Value]) -> &[RowId] {
        self.range(table, prefix, Bound::Unbounded, Bound::Unbounded)
    }

    /// Rows whose leading key columns equal `prefix` and whose *next*
    /// key column lies within `(lo, hi)`: [`Index::range_from`] with a
    /// cold hint.
    ///
    /// # Panics
    /// Panics if `prefix` is as long as the whole key but a bound is
    /// given (there is no next column), or longer than the key.
    pub fn range(
        &self,
        table: &Table,
        prefix: &[Value],
        lo: Bound<Value>,
        hi: Bound<Value>,
    ) -> &[RowId] {
        self.range_from(table, prefix, lo, hi, usize::MAX).1
    }

    /// [`Index::range`] searched from a finger: `hint` is a position in
    /// the sorted permutation near where the window is expected to
    /// start — typically the `start` this call returned for the
    /// previous probe of the same join stage. Returns the window's
    /// offset in the permutation (the next probe's hint) and its rows.
    ///
    /// The hint only steers the search; the result is the same for
    /// every `hint` (`usize::MAX` means "no idea": a plain binary
    /// search). When the row at `hint` sorts before the window, the
    /// start is found by galloping forward from it, in `O(log d)` for
    /// a window `d` rows further on; otherwise by binary search of
    /// the rows before `hint`. The end is always galloped forward from
    /// the start, in `O(log` *window length*`)`.
    ///
    /// # Panics
    /// As [`Index::range`].
    pub fn range_from(
        &self,
        table: &Table,
        prefix: &[Value],
        lo: Bound<Value>,
        hi: Bound<Value>,
        hint: usize,
    ) -> (usize, &[RowId]) {
        assert!(
            prefix.len() <= self.key.len(),
            "prefix {} longer than key {}",
            prefix.len(),
            self.key.len()
        );
        let bounded = !matches!((lo, hi), (Bound::Unbounded, Bound::Unbounded));
        assert!(
            !bounded || prefix.len() < self.key.len(),
            "range bound given but prefix covers the whole key"
        );

        // Row `r` is *before* the window iff its prefix is less than
        // `prefix`, or prefixes tie and the next column is below `lo`.
        let before_start = |r: RowId| match self.cmp_prefix(table, r, prefix) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => match lo {
                Bound::Unbounded => false,
                Bound::Included(v) => self.next_col(table, r, prefix.len()) < v,
                Bound::Excluded(v) => self.next_col(table, r, prefix.len()) <= v,
            },
        };
        // Row `r` is *not after* the window's end, likewise with `hi`.
        let before_end = |r: RowId| match self.cmp_prefix(table, r, prefix) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => match hi {
                Bound::Unbounded => true,
                Bound::Included(v) => self.next_col(table, r, prefix.len()) <= v,
                Bound::Excluded(v) => self.next_col(table, r, prefix.len()) < v,
            },
        };
        let start = match self.perm.get(hint) {
            Some(&r) if before_start(r) => hint + 1 + gallop(&self.perm[hint + 1..], before_start),
            _ => self.perm[..hint.min(self.perm.len())].partition_point(|&r| before_start(r)),
        };
        // An empty window (`lo` above `hi`) may have its end partition
        // point before `start`; galloping from `start` clamps it there.
        let end = start + gallop(&self.perm[start..], before_end);
        (start, &self.perm[start..end])
    }

    #[inline]
    fn cmp_prefix(&self, table: &Table, row: RowId, prefix: &[Value]) -> Ordering {
        for (&k, &want) in self.key.iter().zip(prefix) {
            let ord = table.value(row, k).cmp(&want);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    #[inline]
    fn next_col(&self, table: &Table, row: RowId, prefix_len: usize) -> Value {
        table.value(row, self.key[prefix_len])
    }
}

/// The partition point of `rows` under the monotone predicate `before`
/// (true on a prefix, false after), found by exponential search from
/// the front: probes positions 0, 1, 3, 7, … until `before` fails, then
/// binary-searches the last doubling. `O(log p)` for a partition point
/// `p`, however long `rows` is.
pub fn gallop(rows: &[RowId], mut before: impl FnMut(RowId) -> bool) -> usize {
    // Invariant: every row of `rows[..lo]` is before the point.
    let mut lo = 0;
    let mut bound = 1;
    while bound <= rows.len() && before(rows[bound - 1]) {
        lo = bound;
        bound *= 2;
    }
    // Either `rows[bound - 1]` failed or `bound` ran off the end.
    let hi = (bound - 1).min(rows.len());
    lo + rows[lo..hi].partition_point(|&r| before(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn sample() -> (Table, Index) {
        let mut t = Table::new(Schema::new(&["name", "tid", "left"]));
        // (name, tid, left)
        for row in [
            [1, 1, 5],
            [1, 1, 2],
            [1, 2, 7],
            [2, 1, 3],
            [1, 1, 9],
            [2, 1, 1],
            [1, 2, 2],
        ] {
            t.push_row(&row);
        }
        let idx = Index::build(&t, vec![ColId(0), ColId(1), ColId(2)]);
        (t, idx)
    }

    fn lefts(t: &Table, rows: &[RowId]) -> Vec<Value> {
        rows.iter().map(|&r| t.value(r, ColId(2))).collect()
    }

    #[test]
    fn equal_range_on_prefix() {
        let (t, idx) = sample();
        assert_eq!(lefts(&t, idx.equal_range(&t, &[1, 1])), [2, 5, 9]);
        assert_eq!(lefts(&t, idx.equal_range(&t, &[1, 2])), [2, 7]);
        assert_eq!(lefts(&t, idx.equal_range(&t, &[2, 1])), [1, 3]);
        assert_eq!(idx.equal_range(&t, &[3]).len(), 0);
        assert_eq!(idx.equal_range(&t, &[]).len(), 7);
    }

    #[test]
    fn bounded_ranges() {
        let (t, idx) = sample();
        // name=1, tid=1, left >= 5
        assert_eq!(
            lefts(
                &t,
                idx.range(&t, &[1, 1], Bound::Included(5), Bound::Unbounded)
            ),
            [5, 9]
        );
        // name=1, tid=1, left > 5
        assert_eq!(
            lefts(
                &t,
                idx.range(&t, &[1, 1], Bound::Excluded(5), Bound::Unbounded)
            ),
            [9]
        );
        // name=1, tid=1, 2 <= left < 9
        assert_eq!(
            lefts(
                &t,
                idx.range(&t, &[1, 1], Bound::Included(2), Bound::Excluded(9))
            ),
            [2, 5]
        );
        // point lookup via equal bounds
        assert_eq!(
            lefts(
                &t,
                idx.range(&t, &[1, 1], Bound::Included(5), Bound::Included(5))
            ),
            [5]
        );
        // empty window
        assert_eq!(
            idx.range(&t, &[1, 1], Bound::Included(10), Bound::Unbounded)
                .len(),
            0
        );
        assert_eq!(
            idx.range(&t, &[1, 1], Bound::Included(6), Bound::Included(3))
                .len(),
            0
        );
    }

    #[test]
    fn full_prefix_point_lookup() {
        let (t, idx) = sample();
        assert_eq!(lefts(&t, idx.equal_range(&t, &[1, 1, 5])), [5]);
        assert_eq!(idx.equal_range(&t, &[1, 1, 6]).len(), 0);
    }

    #[test]
    #[should_panic(expected = "range bound")]
    fn bound_without_next_column_panics() {
        let (t, idx) = sample();
        idx.range(&t, &[1, 1, 5], Bound::Included(1), Bound::Unbounded);
    }

    /// `gallop` over `len` rows whose first `point` satisfy the
    /// predicate, with the number of predicate calls it made.
    fn gallop_at(len: usize, point: usize) -> (usize, usize) {
        let rows: Vec<RowId> = (0..len as u32).map(RowId).collect();
        let mut calls = 0;
        let got = gallop(&rows, |r| {
            calls += 1;
            r.index() < point
        });
        (got, calls)
    }

    #[test]
    fn gallop_edge_cases() {
        // Empty slice: nothing to probe.
        assert_eq!(gallop_at(0, 0), (0, 0));
        // One element, before or not.
        assert_eq!(gallop_at(1, 0).0, 0);
        assert_eq!(gallop_at(1, 1).0, 1);
        // All-false: one probe of the front settles it.
        assert_eq!(gallop_at(1000, 0), (0, 1));
        // All-true: the point is the end.
        assert_eq!(gallop_at(1000, 1000).0, 1000);
    }

    #[test]
    fn gallop_finds_every_point_in_logarithmic_probes() {
        for len in 0..70 {
            for point in 0..=len {
                let (got, calls) = gallop_at(len, point);
                assert_eq!(got, point, "len {len} point {point}");
                // ≤ 2·⌈log2(point + 1)⌉ + 1 probes, independent of len.
                let log = (usize::BITS - point.leading_zeros()) as usize;
                assert!(
                    calls <= 2 * log + 1,
                    "len {len} point {point}: {calls} calls"
                );
            }
        }
    }

    #[test]
    fn matches_linear_scan_on_random_data() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        let mut t = Table::new(Schema::new(&["a", "b"]));
        for _ in 0..500 {
            t.push_row(&[rng.gen_range(0..8), rng.gen_range(0..50)]);
        }
        let idx = Index::build(&t, vec![ColId(0), ColId(1)]);
        for a in 0..8u32 {
            for lo in [0u32, 10, 25, 49] {
                let got = idx
                    .range(&t, &[a], Bound::Included(lo), Bound::Unbounded)
                    .len();
                let want = t
                    .scan()
                    .filter(|&r| t.value(r, ColId(0)) == a && t.value(r, ColId(1)) >= lo)
                    .count();
                assert_eq!(got, want, "a={a} lo={lo}");
            }
        }
    }
}
