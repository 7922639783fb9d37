//! Property tests for the index search: a range probe searched from any
//! finger returns exactly the rows a cold search returns, and those are
//! exactly the naive filter of the index's sorted permutation.
//!
//! Tables are drawn over a tiny value domain so that equal keys — the
//! ties the galloping search must step over — are the common case.

use std::cmp::Ordering;
use std::ops::Bound;

use lpath_relstore::{ColId, Index, RowId, Schema, Table, Value};
use proptest::prelude::*;

const NCOLS: usize = 3;

#[derive(Clone, Debug)]
struct Probe {
    /// Index key columns, major first (repeats allowed).
    key: Vec<usize>,
    /// Equality prefix; at most as long as `key`.
    prefix: Vec<Value>,
    lo: Bound<Value>,
    hi: Bound<Value>,
}

fn arb_rows() -> impl Strategy<Value = Vec<[Value; NCOLS]>> {
    prop::collection::vec([0u32..4, 0u32..4, 0u32..4], 0..40)
}

fn bound_of((kind, v): (u8, Value)) -> Bound<Value> {
    match kind {
        0 => Bound::Unbounded,
        1 => Bound::Included(v),
        _ => Bound::Excluded(v),
    }
}

fn arb_probe() -> impl Strategy<Value = Probe> {
    let key = prop::collection::vec(0..NCOLS, 1..4);
    let prefix = prop::collection::vec(0u32..5, 0..4);
    let bound = (0u8..3, 0u32..5);
    (key, prefix, bound.clone(), bound).prop_map(|(key, mut prefix, lo, hi)| {
        prefix.truncate(key.len());
        // A bound needs a key column after the prefix.
        let (lo, hi) = if prefix.len() == key.len() {
            (Bound::Unbounded, Bound::Unbounded)
        } else {
            (bound_of(lo), bound_of(hi))
        };
        Probe {
            key,
            prefix,
            lo,
            hi,
        }
    })
}

fn key_of(t: &Table, r: RowId, key: &[ColId]) -> Vec<Value> {
    key.iter().map(|&c| t.value(r, c)).collect()
}

/// Does `v` lie below the window's lower bound?
fn below(v: Value, lo: Bound<Value>) -> bool {
    match lo {
        Bound::Unbounded => false,
        Bound::Included(b) => v < b,
        Bound::Excluded(b) => v <= b,
    }
}

/// Does `v` lie within the window's upper bound?
fn within_hi(v: Value, hi: Bound<Value>) -> bool {
    match hi {
        Bound::Unbounded => true,
        Bound::Included(b) => v <= b,
        Bound::Excluded(b) => v < b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: ProptestConfig::cases_or_env(256), ..ProptestConfig::default() })]

    #[test]
    fn range_from_any_hint_is_the_naive_window(rows in arb_rows(), p in arb_probe()) {
        let mut t = Table::new(Schema::new(&["c0", "c1", "c2"]));
        for r in &rows {
            t.push_row(r);
        }
        let key: Vec<ColId> = p.key.iter().map(|&c| ColId(c as u16)).collect();
        let idx = Index::build(&t, key.clone());

        // The sorted permutation: every row once, in key order.
        let perm = idx.equal_range(&t, &[]);
        prop_assert_eq!(perm.len(), rows.len());
        prop_assert!(perm
            .windows(2)
            .all(|w| key_of(&t, w[0], &key) <= key_of(&t, w[1], &key)));
        let mut seen: Vec<RowId> = perm.to_vec();
        seen.sort_unstable();
        prop_assert!(seen.iter().enumerate().all(|(i, r)| r.index() == i));

        // The naive window: rows whose prefix matches and whose next
        // key column lies within the bounds, in permutation order; its
        // start is the number of rows sorting before it.
        let n = p.prefix.len();
        let before_window = |r: RowId| {
            let k = key_of(&t, r, &key);
            match k[..n].cmp(&p.prefix[..]) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => n < k.len() && below(k[n], p.lo),
            }
        };
        let want: Vec<RowId> = perm
            .iter()
            .copied()
            .filter(|&r| {
                let k = key_of(&t, r, &key);
                k[..n] == p.prefix[..]
                    && (n == k.len() || (!below(k[n], p.lo) && within_hi(k[n], p.hi)))
            })
            .collect();
        let want_start = perm.iter().filter(|&&r| before_window(r)).count();

        let cold = idx.range(&t, &p.prefix, p.lo, p.hi);
        prop_assert_eq!(cold, &want[..], "cold search of {:?}", p);
        for hint in (0..=rows.len() + 1).chain([usize::MAX]) {
            let (start, got) = idx.range_from(&t, &p.prefix, p.lo, p.hi, hint);
            prop_assert_eq!(got, cold, "hint {} of {:?}", hint, p);
            prop_assert_eq!(start, want_start, "hint {} of {:?}", hint, p);
            prop_assert!(
                std::ptr::eq(got.as_ptr(), perm[start..].as_ptr()),
                "hint {}: the slice does not begin at offset {}", hint, start
            );
        }
    }
}
