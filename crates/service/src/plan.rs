//! Query compilation: parse once, decide the execution strategy once,
//! extract the shard-pruning requirements once.
//!
//! A [`CompiledQuery`] is corpus-generation-scoped: the service's plan
//! cache maps normalized query text to one of these, so each distinct
//! query pays for parsing, translation and requirement analysis a
//! single time per corpus generation, however many times (and over
//! however many shards) it is evaluated. No SQL text is rendered here:
//! whether the relational translation exists decides the strategy, and
//! [`crate::Service::sql`] renders the statement on demand.

use lpath_syntax::{Axis, CmpOp, NodeTest, Path, Pred};

use crate::agg::FastClass;

/// How a compiled query executes on each shard — mirroring
/// [`lpath_core::Engine`]'s fallback contract: everything the
/// relational translation accepts runs as indexed joins; the rest
/// (e.g. `position()`, `-or-self` closures, count thresholds) falls
/// back to the tree walker, which covers the full language.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ExecStrategy {
    /// Translate to conjunctive SQL and run on the shard's relational
    /// engine.
    Relational,
    /// Evaluate with the tree walker over the shard's labels.
    Walker,
}

/// A query compiled once and shared across shards and requests.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    /// The canonical (display-form) query text; the plan-cache key.
    pub normalized: String,
    /// The parsed query.
    pub ast: Path,
    /// Chosen execution strategy.
    pub strategy: ExecStrategy,
    /// Symbols that must occur in a shard for it to contribute any
    /// match — the shard-pruning requirements (conservative, positive
    /// conjunctive context only).
    pub required: Vec<String>,
    /// The query's aggregate-table classification, when its shape is
    /// one the per-shard tables answer exactly ([`crate::agg::classify`]):
    /// counts and histograms are then O(index) per shard, skipping
    /// caches, cursors and walkers alike.
    pub fast: Option<FastClass>,
    /// The static analyzer proved the query empty against the corpus
    /// vocabulary (the tail shard's) at compile time: every request
    /// path returns the empty answer without visiting a shard or
    /// writing a cache entry. Sound because every corpus mutation
    /// clears the plan cache under the state write lock, and a plan is
    /// analysed and cached under one state read lock (see
    /// [`crate::Service::compile`]), so a cached verdict never outlives
    /// the vocabulary it was proven against.
    pub statically_empty: bool,
}

/// Collect the conservative symbol requirements of a query: tag names
/// and attribute-value literals that every match must witness. A shard
/// whose symbol table lacks any of them cannot contribute results.
///
/// Requirements propagate only through *positively conjunctive*
/// constructs (path steps, scopes, `and`, positive existence). An `or`
/// branch, anything under a `not(..)` (except a directly nested double
/// negation), a `count(..) = 0`-style absence test and `position()`
/// contribute nothing, so pruning never changes answers — it only
/// skips shards that would have returned the empty set anyway.
pub fn required_symbols(path: &Path) -> Vec<String> {
    let mut out = Vec::new();
    collect_path(path, &mut out);
    out.sort();
    out.dedup();
    out
}

fn collect_path(path: &Path, out: &mut Vec<String>) {
    for step in &path.steps {
        if step.axis != Axis::Attribute {
            if let NodeTest::Tag(tag) = &step.test {
                out.push(tag.clone());
            }
        }
        for pred in &step.predicates {
            collect_pred(pred, out);
        }
    }
    if let Some(scope) = &path.scope {
        collect_path(scope, out);
    }
}

fn collect_pred(pred: &Pred, out: &mut Vec<String>) {
    match pred {
        Pred::And(a, b) => {
            collect_pred(a, out);
            collect_pred(b, out);
        }
        // Either branch may satisfy the disjunction; a symbol would
        // have to be required by *both* to be required at all. Skip.
        Pred::Or(_, _) => {}
        // A negated subtree requires nothing — except that a directly
        // nested `not(not(p))` is just `p` again. Deeper negations
        // (e.g. a `not` inside an Exists inside this `not`) must NOT
        // re-contribute, so only the direct double flip recurses.
        Pred::Not(inner) => {
            if let Pred::Not(inner2) = &**inner {
                collect_pred(inner2, out);
            }
        }
        Pred::Exists(path) => collect_path(path, out),
        Pred::Cmp { path, op, value } => {
            // The compared path must select a value whatever the op...
            collect_path(path, out);
            // ...and under equality the literal itself must exist.
            if *op == CmpOp::Eq {
                out.push(value.clone());
            }
        }
        Pred::Count { path, op, value } => {
            // Thresholds that imply the path has at least one match:
            // count > n (n is unsigned), count != 0, count = n with
            // n > 0. `count < n` and `count = 0` assert little/absence.
            let existential = match op {
                CmpOp::Gt => true,
                CmpOp::Ne => *value == 0,
                CmpOp::Eq => *value > 0,
                CmpOp::Lt => false,
            };
            if existential {
                collect_path(path, out);
            }
        }
        Pred::StrCmp { path, .. } | Pred::StrLen { path, .. } => {
            collect_path(path, out);
        }
        Pred::Position(_, _) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpath_syntax::parse;

    fn req(q: &str) -> Vec<String> {
        required_symbols(&parse(q).unwrap())
    }

    #[test]
    fn main_path_names_are_required() {
        assert_eq!(req("//VP/VB-->NN"), ["NN", "VB", "VP"]);
        assert_eq!(req("//VP{/NP$}"), ["NP", "VP"]);
    }

    #[test]
    fn wildcards_and_attribute_steps_add_nothing() {
        assert_eq!(req("//_"), Vec::<String>::new());
        // @lex itself is not required (attribute step), but the
        // equality literal is.
        assert_eq!(req("//_[@lex=rapprochement]"), ["rapprochement"]);
    }

    #[test]
    fn negation_contributes_nothing() {
        // Q9: JJ under not() is NOT required.
        assert_eq!(req("//NP[not(//JJ)]"), ["NP"]);
        // Direct double negation restores the requirement.
        assert_eq!(req("//NP[not(not(//JJ))]"), ["JJ", "NP"]);
        // ...but a negation *nested below* a negation must not
        // re-contribute: a tree with no JJ at all matches this.
        assert_eq!(req("//NP[not(//JJ[not(//X)])]"), ["NP"]);
    }

    #[test]
    fn disjunctions_are_skipped() {
        assert_eq!(req("//NP[//Det or //Adj]"), ["NP"]);
        assert_eq!(req("//NP[//Det and //Adj]"), ["Adj", "Det", "NP"]);
    }

    #[test]
    fn inequality_requires_path_not_value() {
        assert_eq!(req("//_[@lex!=dog]"), Vec::<String>::new());
        assert_eq!(req("//X[@lex!=dog]"), ["X"]);
    }

    #[test]
    fn count_existence_requires_path() {
        assert_eq!(req("//NP[count(//Det)>0]"), ["Det", "NP"]);
        // count(..)=0 asserts absence; Det must not be required.
        assert_eq!(req("//NP[count(//Det)=0]"), ["NP"]);
    }
}
