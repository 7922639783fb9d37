//! Per-column frequency statistics.
//!
//! The planner orders joins by estimated input cardinality (paper §5.2's
//! observation: queries over low-selectivity tags like `NP` produce huge
//! intermediate results). Statistics are exact value→count histograms
//! over the columns the catalog was asked to analyze — affordable
//! because the interned `name` and `value` domains are small relative to
//! the table.

use std::collections::{HashMap, HashSet};

use crate::schema::ColId;
use crate::table::Table;
use crate::value::Value;

/// Exact frequency histogram of one column.
#[derive(Clone, Debug, Default)]
pub struct ColumnStats {
    counts: HashMap<Value, u32>,
    total: usize,
}

impl ColumnStats {
    /// Scan one column and collect its value frequencies.
    pub fn build(table: &Table, col: ColId) -> Self {
        let column = table.column(col);
        let mut counts: HashMap<Value, u32> = HashMap::new();
        for &v in column {
            *counts.entry(v).or_insert(0) += 1;
        }
        ColumnStats {
            counts,
            total: column.len(),
        }
    }

    /// Rows with this exact value.
    pub fn count(&self, v: Value) -> usize {
        self.counts.get(&v).copied().unwrap_or(0) as usize
    }

    /// Total rows.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of distinct values.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The `k` most frequent values, descending.
    pub fn top(&self, k: usize) -> Vec<(Value, u32)> {
        let mut v: Vec<(Value, u32)> = self.counts.iter().map(|(&a, &b)| (a, b)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }
}

/// Per-group (per-tree) spread of one column: how many groups each
/// value occurs in. The grouping column in practice is `tid`, so
/// `spread(v)` answers "how many trees contain at least one row with
/// this value" — the chunk count a chunked (sort-and-rescan) executor
/// pays when it anchors on that value, and the per-tree match-density
/// statistic the aggregation layer tabulates.
///
/// Its one consumer is the planner's chunk penalty, which models a
/// chunked paging executor `lpath-core` no longer has; it stays until a
/// measured change retires that penalty.
#[derive(Clone, Debug, Default)]
pub struct GroupSpread {
    groups_with: HashMap<Value, u32>,
    groups_total: u32,
}

impl GroupSpread {
    /// Scan `(group_col, col)` pairs and count, per distinct value of
    /// `col`, the distinct `group_col` values it co-occurs with.
    pub fn build(table: &Table, group_col: ColId, col: ColId) -> Self {
        let groups = table.column(group_col);
        let values = table.column(col);
        let mut pairs: HashSet<(Value, Value)> = HashSet::new();
        let mut distinct_groups: HashSet<Value> = HashSet::new();
        let mut groups_with: HashMap<Value, u32> = HashMap::new();
        for (&g, &v) in groups.iter().zip(values.iter()) {
            distinct_groups.insert(g);
            if pairs.insert((v, g)) {
                *groups_with.entry(v).or_insert(0) += 1;
            }
        }
        GroupSpread {
            groups_with,
            groups_total: distinct_groups.len() as u32,
        }
    }

    /// Groups containing at least one row with value `v`.
    pub fn groups_with(&self, v: Value) -> u32 {
        self.groups_with.get(&v).copied().unwrap_or(0)
    }

    /// Total distinct groups observed.
    pub fn groups_total(&self) -> u32 {
        self.groups_total
    }
}

/// Statistics for the analyzed columns of one table.
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    cols: HashMap<ColId, ColumnStats>,
    spreads: HashMap<ColId, GroupSpread>,
    rows: usize,
}

impl TableStats {
    /// Collect statistics for the listed columns.
    pub fn analyze(table: &Table, cols: &[ColId]) -> Self {
        TableStats {
            cols: cols
                .iter()
                .map(|&c| (c, ColumnStats::build(table, c)))
                .collect(),
            spreads: HashMap::new(),
            rows: table.num_rows(),
        }
    }

    /// Table row count at analysis time.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Statistics for one column, if analyzed.
    pub fn column(&self, col: ColId) -> Option<&ColumnStats> {
        self.cols.get(&col)
    }

    /// Estimated rows matching `col = v`: the exact count when the
    /// column was analyzed, otherwise a uniformity guess of
    /// `rows / 10`.
    pub fn est_eq(&self, col: ColId, v: Value) -> usize {
        match self.cols.get(&col) {
            Some(s) => s.count(v),
            None => self.rows / 10,
        }
    }

    /// Collect per-group spreads for the listed columns, grouped by
    /// `group_col` (in practice the tree id). Feeds the planner's
    /// first-rows chunk model — a model of a chunked executor that is
    /// gone; see [`TableStats::group_spread`].
    pub fn analyze_grouped(&mut self, table: &Table, group_col: ColId, cols: &[ColId]) {
        for &c in cols {
            self.spreads
                .insert(c, GroupSpread::build(table, group_col, c));
        }
    }

    /// The fraction of groups (trees) containing `col = v`, as
    /// `(groups_with, groups_total)` — `None` unless
    /// [`TableStats::analyze_grouped`] covered the column.
    pub fn group_spread(&self, col: ColId, v: Value) -> Option<(u32, u32)> {
        let s = self.spreads.get(&col)?;
        Some((s.groups_with(v), s.groups_total()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn sample() -> Table {
        let mut t = Table::new(Schema::new(&["name", "value"]));
        for row in [[1, 9], [1, 9], [1, 8], [2, 9], [3, 7], [1, 7]] {
            t.push_row(&row);
        }
        t
    }

    #[test]
    fn counts_and_totals() {
        let s = ColumnStats::build(&sample(), ColId(0));
        assert_eq!(s.total(), 6);
        assert_eq!(s.count(1), 4);
        assert_eq!(s.count(2), 1);
        assert_eq!(s.count(99), 0);
        assert_eq!(s.distinct(), 3);
    }

    #[test]
    fn top_values_sorted() {
        let s = ColumnStats::build(&sample(), ColId(0));
        assert_eq!(s.top(2), [(1, 4), (2, 1)]);
    }

    #[test]
    fn group_spreads_count_distinct_groups_exactly() {
        // (tid, lex) rows deliberately *not* grouped into tid runs.
        let mut t = Table::new(Schema::new(&["tid", "lex"]));
        for row in [[1, 7], [2, 7], [1, 7], [3, 8], [2, 8], [1, 9]] {
            t.push_row(&row);
        }
        let s = GroupSpread::build(&t, ColId(0), ColId(1));
        assert_eq!(s.groups_total(), 3);
        assert_eq!(s.groups_with(7), 2);
        assert_eq!(s.groups_with(8), 2);
        assert_eq!(s.groups_with(9), 1);
        assert_eq!(s.groups_with(42), 0);

        let mut st = TableStats::analyze(&t, &[ColId(1)]);
        assert_eq!(st.group_spread(ColId(1), 7), None, "not yet grouped");
        st.analyze_grouped(&t, ColId(0), &[ColId(1)]);
        assert_eq!(st.group_spread(ColId(1), 7), Some((2, 3)));
        assert_eq!(st.group_spread(ColId(0), 1), None, "uncovered column");
    }

    #[test]
    fn table_stats_estimates() {
        let t = sample();
        let st = TableStats::analyze(&t, &[ColId(0)]);
        assert_eq!(st.rows(), 6);
        assert_eq!(st.est_eq(ColId(0), 1), 4);
        // Unanalyzed column falls back to a fraction of the table.
        assert_eq!(st.est_eq(ColId(1), 9), 0);
        assert!(st.column(ColId(1)).is_none());
    }
}
