//! Per-column frequency statistics: the planner's only input.
//!
//! The planner orders joins by estimated input cardinality (paper §5.2's
//! observation: queries over low-selectivity tags like `NP` produce huge
//! intermediate results). Statistics are exact value→count histograms
//! over the columns the catalog was asked to analyze — affordable
//! because the interned `name` and `value` domains are small relative to
//! the table. Per-tree distributions are not kept here: the service's
//! per-shard aggregate tables own those.

use std::collections::HashMap;

use crate::schema::ColId;
use crate::table::Table;
use crate::value::Value;

/// Exact frequency histogram of one column.
#[derive(Clone, Debug, Default)]
pub struct ColumnStats {
    counts: HashMap<Value, u32>,
}

impl ColumnStats {
    /// Scan one column and collect its value frequencies.
    pub fn build(table: &Table, col: ColId) -> Self {
        let mut counts: HashMap<Value, u32> = HashMap::new();
        for &v in table.column(col) {
            *counts.entry(v).or_insert(0) += 1;
        }
        ColumnStats { counts }
    }

    /// Rows with this exact value.
    pub fn count(&self, v: Value) -> usize {
        self.counts.get(&v).copied().unwrap_or(0) as usize
    }
}

/// Statistics for the analyzed columns of one table.
#[derive(Clone, Debug, Default)]
pub struct TableStats {
    cols: HashMap<ColId, ColumnStats>,
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
            rows: table.num_rows(),
        }
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
    fn counts_are_exact() {
        let s = ColumnStats::build(&sample(), ColId(0));
        assert_eq!(s.count(1), 4);
        assert_eq!(s.count(2), 1);
        assert_eq!(s.count(99), 0);
    }

    #[test]
    fn table_stats_estimates() {
        let t = sample();
        let st = TableStats::analyze(&t, &[ColId(0)]);
        assert_eq!(st.est_eq(ColId(0), 1), 4);
        // Unanalyzed column falls back to a fraction of the table.
        assert_eq!(st.est_eq(ColId(1), 9), 0);
    }

    #[test]
    fn unanalyzed_columns_estimate_a_tenth_of_the_rows() {
        // 30 rows, all with value 9: the analyzed column is exact, the
        // unanalyzed one guesses rows / 10 whatever the value.
        let mut t = Table::new(Schema::new(&["name", "value"]));
        for i in 0..30 {
            t.push_row(&[i % 3, 9]);
        }
        let st = TableStats::analyze(&t, &[ColId(0)]);
        assert_eq!(st.est_eq(ColId(0), 2), 10);
        assert_eq!(st.est_eq(ColId(1), 9), 3);
        assert_eq!(st.est_eq(ColId(1), 42), 3);
    }
}
