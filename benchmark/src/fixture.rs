//! The paper's 23 evaluation queries (Figure 6(c)), frozen here so a
//! change to the shared fixture is loud instead of silently changing
//! what every report measures.

/// Q1–Q23, in the paper's order.
pub const QUERIES: [&str; 23] = [
    "//S[//_[@lex=saw]]",
    "//VB->NP",
    "//VP/VB-->NN",
    "//VP{/VB-->NN}",
    "//VP{/NP$}",
    "//VP{//NP$}",
    "//VP[{//^VB->NP->PP$}]",
    "//S[//NP/ADJP]",
    "//NP[not(//JJ)]",
    "//NP[->PP[//IN[@lex=of]]=>VP]",
    "//S[{//_[@lex=what]->_[@lex=building]}]",
    "//_[@lex=rapprochement]",
    "//_[@lex=1929]",
    "//ADVP-LOC-CLR",
    "//WHPP",
    "//RRC/PP-TMP",
    "//UCP-PRD/ADJP-PRD",
    "//NP/NP/NP/NP/NP",
    "//VP/VP/VP",
    "//PP=>SBAR",
    "//ADVP=>ADJP",
    "//NP=>NP=>NP",
    "//VP=>VP",
];

/// Zero-based indices of the selective queries (Q1, Q11–Q17): tiny
/// answers found through an index, where parse/check/plan are the
/// largest share of the time.
pub const SELECTIVE: [usize; 8] = [0, 10, 11, 12, 13, 14, 15, 16];

/// Zero-based indices of the heavy queries (Q2–Q10, Q18–Q23): join
/// and cursor work dominates.
pub const HEAVY: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 18, 19, 20, 21, 22];

/// Popularity order for the Zipf picks of the browsing workloads
/// (zero-based query indices, most popular first). Fixed, not seeded:
/// the seed decides the picks, not which query is popular, so two
/// seeds measure the same traffic mix. Heavy and selective queries
/// alternate so that the head of the distribution holds both.
pub const POPULARITY: [usize; 23] = [
    1, 13, 4, 0, 8, 10, 2, 14, 5, 11, 3, 15, 6, 12, 7, 16, 9, 17, 18, 19, 20, 21, 22,
];

/// Fail loudly when the shared fixture drifted from the frozen copy.
pub fn assert_matches_shared_fixture() {
    for (frozen, shared) in QUERIES.iter().zip(lpath_core::QUERIES.iter()) {
        assert_eq!(
            *frozen, shared.lpath,
            "Q{} drifted from the benchmark's frozen copy; re-baseline deliberately",
            shared.id
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_copy_equals_shared_fixture() {
        assert_matches_shared_fixture();
    }

    #[test]
    fn classes_and_popularity_cover_each_query_once() {
        let mut classes: Vec<usize> = SELECTIVE.iter().chain(&HEAVY).copied().collect();
        classes.sort_unstable();
        assert_eq!(classes, (0..23).collect::<Vec<_>>());
        let mut ranks = POPULARITY.to_vec();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..23).collect::<Vec<_>>());
    }
}
