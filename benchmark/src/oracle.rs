//! The correctness gate's reference answers: the fixture queries
//! evaluated by `lpath_core::Walker`, the tree walker that shares no
//! code with the relational engine the service runs.

use lpath_core::Walker;
use lpath_model::Corpus;

use crate::fixture;
use crate::wire::{Rows, PAGE_LIMIT};

/// Walk `query` over `walker`'s corpus.
pub fn walk(walker: &Walker<'_>, query: &str) -> Rows {
    let ast = lpath_syntax::parse(query).expect("generated queries parse");
    walker
        .eval(&ast)
        .into_iter()
        .map(|(tid, node)| (tid, node.0))
        .collect()
}

/// The walker's full answer to each of the 23 fixture queries.
pub struct Golden {
    pub rows: Vec<Rows>,
    /// Trees in the corpus the answers were computed over.
    pub trees: u32,
}

impl Golden {
    pub fn of(corpus: &Corpus) -> Self {
        let walker = Walker::new(corpus);
        Golden {
            rows: fixture::QUERIES.iter().map(|q| walk(&walker, q)).collect(),
            trees: corpus.trees().len() as u32,
        }
    }

    /// Is `got` the page of query `q` that starts at row `offset`?
    ///
    /// With `grown` the corpus may have been appended to since the
    /// answers were computed: appends only add trees at the end, so
    /// every golden row keeps its position and anything beyond them
    /// must lie in a new tree.
    pub fn page_ok(&self, q: usize, offset: usize, got: &[(u32, u32)], grown: bool) -> bool {
        let golden = &self.rows[q];
        let expected = &golden[offset.min(golden.len())..(offset + PAGE_LIMIT).min(golden.len())];
        if !grown {
            return got == expected;
        }
        got.len() >= expected.len()
            && got.len() <= PAGE_LIMIT
            && got[..expected.len()] == *expected
            && got[expected.len()..]
                .iter()
                .all(|&(tid, _)| tid >= self.trees)
    }

    /// Is `got` the match count of query `q` (at least it, once the
    /// corpus may have `grown`)?
    pub fn count_ok(&self, q: usize, got: u64, grown: bool) -> bool {
        let golden = self.rows[q].len() as u64;
        if grown {
            got >= golden
        } else {
            got == golden
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden() -> Golden {
        let mut rows = vec![Vec::new(); 23];
        rows[0] = (0..60).map(|i| (i / 2, i)).collect();
        rows[1] = vec![(3, 1), (7, 2)];
        Golden { rows, trees: 30 }
    }

    #[test]
    fn pages_must_equal_the_golden_slice() {
        let g = golden();
        assert!(g.page_ok(0, 0, &g.rows[0][..25], false));
        assert!(g.page_ok(0, 50, &g.rows[0][50..], false));
        assert!(g.page_ok(0, 60, &[], false));
        assert!(!g.page_ok(0, 0, &g.rows[0][..24], false), "short page");
        assert!(!g.page_ok(0, 25, &g.rows[0][..25], false), "wrong offset");
        assert!(g.count_ok(0, 60, false) && !g.count_ok(0, 61, false));
    }

    #[test]
    fn a_grown_corpus_may_only_extend_the_tail() {
        let g = golden();
        let mut page = g.rows[1].clone();
        assert!(g.page_ok(1, 0, &page, true));
        page.push((30, 4));
        assert!(
            g.page_ok(1, 0, &page, true),
            "new match in an appended tree"
        );
        assert!(!g.page_ok(1, 0, &page, false));
        page.push((12, 1));
        assert!(!g.page_ok(1, 0, &page, true), "new match in an old tree");
        assert!(!g.page_ok(1, 0, &g.rows[1][..1], true), "golden row lost");
        assert!(g.count_ok(1, 3, true) && !g.count_ok(1, 1, true));
    }
}
