//! Query compilation: parse once, extract the shard-pruning
//! requirements and the aggregate-table class once.
//!
//! A [`CompiledQuery`] is a pure function of the query text: the
//! service's plan cache maps normalized query text to one of these, so
//! each distinct query pays for parsing and analysis a single time,
//! however many times (and over however many shards, corpus
//! generations and appends) it is evaluated. Nothing here reads the
//! corpus. What the data decides stays with the data: each shard
//! prunes a query whose required symbols or tag pairs it lacks
//! ([`crate::Shard::may_match`]), its engine plans a query its
//! vocabulary proves empty as constant-empty, and a query the
//! relational translation does not cover runs on the walker
//! ([`crate::Service::sql`] renders the statement on demand).

use lpath_syntax::{Axis, CmpOp, NodeTest, Path, Pred};

use crate::agg::FastClass;

/// A query compiled once and shared across shards and requests.
#[derive(Clone, Debug)]
pub struct CompiledQuery {
    /// The canonical (display-form) query text; the plan-cache key.
    pub normalized: String,
    /// The parsed query.
    pub ast: Path,
    /// Symbols and tag pairs that must occur in a shard for it to
    /// contribute any match — the shard-pruning requirements
    /// (conservative, positive conjunctive context only).
    pub required: Requirements,
    /// The query's aggregate-table classification, when its shape is
    /// one the per-shard tables answer exactly ([`crate::agg::classify`]):
    /// counts and histograms are then O(index) per shard, skipping
    /// caches, cursors and walkers alike.
    pub fast: Option<FastClass>,
    /// The static analyzer's *structural* verdict
    /// ([`lpath_check::check`]: contradictions, impossible positions,
    /// unsatisfiable axes), which holds on every corpus: every request
    /// path returns the empty answer without visiting a shard or
    /// writing a cache entry. Vocabulary emptiness is not part of it,
    /// so no append or swap can invalidate the plan.
    pub statically_empty: bool,
}

/// The shard-pruning requirements of a query: what every match must
/// witness in a shard for that shard to contribute anything.
#[derive(Clone, Default, Debug)]
pub struct Requirements {
    /// Tag names and attribute-value literals, sorted and deduplicated.
    pub symbols: Vec<String>,
    /// Tag pairs, sorted and deduplicated.
    pub edges: Vec<Edge>,
}

/// The four tag-pair relations the per-shard aggregate tables record
/// ([`crate::agg::AggTables`]), each oriented as the table is.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum EdgeKind {
    /// `(parent, child)`: from `/` and `\`.
    Child,
    /// `(ancestor, descendant)`: from `//` and `\ancestor::`.
    Descendant,
    /// `(left, right)` immediate siblings: from `=>` and `<=`.
    Sibling,
    /// `(earlier, later)` span-adjacent nodes: from `->` and `<-`.
    Following,
}

/// A tag pair every match must witness: some `from`-tagged node
/// stands in relation `kind` to some `to`-tagged node.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Edge {
    /// The relation, normalised to its table's orientation.
    pub kind: EdgeKind,
    /// The tag on the table's first side.
    pub from: String,
    /// The tag on the table's second side.
    pub to: String,
}

impl Edge {
    /// The edge a step tagged `tag` on `axis` makes with the tagged
    /// node `ctx` it navigates from, or `None` for an axis no table
    /// records (the `-or-self` closures among them).
    fn between(ctx: &str, axis: Axis, tag: &str) -> Option<Edge> {
        let (kind, from, to) = match axis {
            Axis::Child => (EdgeKind::Child, ctx, tag),
            Axis::Parent => (EdgeKind::Child, tag, ctx),
            Axis::Descendant => (EdgeKind::Descendant, ctx, tag),
            Axis::Ancestor => (EdgeKind::Descendant, tag, ctx),
            Axis::ImmediateFollowingSibling => (EdgeKind::Sibling, ctx, tag),
            Axis::ImmediatePrecedingSibling => (EdgeKind::Sibling, tag, ctx),
            Axis::ImmediateFollowing => (EdgeKind::Following, ctx, tag),
            Axis::ImmediatePreceding => (EdgeKind::Following, tag, ctx),
            _ => return None,
        };
        Some(Edge {
            kind,
            from: from.to_string(),
            to: to.to_string(),
        })
    }
}

/// Collect the conservative requirements of a query in one walk: the
/// tag names and attribute-value literals every match must witness,
/// and the tag pairs its steps link. A shard whose symbol table lacks
/// a symbol, or whose pair tables lack a pair, cannot contribute
/// results.
///
/// Requirements propagate only through *positively conjunctive*
/// constructs (path steps, scopes, `and`, positive existence). An `or`
/// branch, anything under a `not(..)` (except a directly nested double
/// negation), a `count(..) = 0`-style absence test and `position()`
/// contribute nothing, so pruning never changes answers — it only
/// skips shards that would have returned the empty set anyway.
///
/// A pair links a tagged step to the tagged step (or predicate owner)
/// it navigates from; a scope navigates from the last step of the
/// path it scopes. A wildcard, an attribute step or an absolute path
/// start leaves the next step without a tagged context.
pub fn requirements(path: &Path) -> Requirements {
    let mut out = Requirements::default();
    collect_path(path, None, &mut out);
    out.symbols.sort();
    out.symbols.dedup();
    out.edges.sort();
    out.edges.dedup();
    out
}

/// Collect `path`, navigated from a node tagged `ctx` (if known).
fn collect_path(path: &Path, ctx: Option<&str>, out: &mut Requirements) {
    let mut ctx = if path.absolute { None } else { ctx };
    for step in &path.steps {
        let tag = match &step.test {
            NodeTest::Tag(tag) if step.axis != Axis::Attribute => Some(tag.as_str()),
            _ => None,
        };
        if let Some(tag) = tag {
            out.symbols.push(tag.to_string());
            out.edges
                .extend(ctx.and_then(|ctx| Edge::between(ctx, step.axis, tag)));
        }
        for pred in &step.predicates {
            collect_pred(pred, tag, out);
        }
        ctx = tag;
    }
    if let Some(scope) = &path.scope {
        collect_path(scope, ctx, out);
    }
}

/// Collect a predicate evaluated at a node tagged `ctx` (if known).
fn collect_pred(pred: &Pred, ctx: Option<&str>, out: &mut Requirements) {
    match pred {
        Pred::And(a, b) => {
            collect_pred(a, ctx, out);
            collect_pred(b, ctx, out);
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
                collect_pred(inner2, ctx, out);
            }
        }
        Pred::Exists(path) => collect_path(path, ctx, out),
        Pred::Cmp { path, op, value } => {
            // The compared path must select a value whatever the op...
            collect_path(path, ctx, out);
            // ...and under equality the literal itself must exist.
            if *op == CmpOp::Eq {
                out.symbols.push(value.clone());
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
                collect_path(path, ctx, out);
            }
        }
        Pred::StrCmp { path, .. } | Pred::StrLen { path, .. } => {
            collect_path(path, ctx, out);
        }
        Pred::Position(_, _) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpath_syntax::{parse, Step};

    fn req(q: &str) -> Vec<String> {
        requirements(&parse(q).unwrap()).symbols
    }

    fn pairs_of(path: &Path) -> Vec<(EdgeKind, String, String)> {
        let edges = requirements(path).edges.into_iter();
        edges.map(|e| (e.kind, e.from, e.to)).collect()
    }

    fn pairs(q: &str) -> Vec<(EdgeKind, String, String)> {
        pairs_of(&parse(q).unwrap())
    }

    fn pair(kind: EdgeKind, from: &str, to: &str) -> (EdgeKind, String, String) {
        (kind, from.into(), to.into())
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

    #[test]
    fn each_tabulated_axis_gives_its_pair_in_table_orientation() {
        use EdgeKind::*;
        for (q, want) in [
            ("//VP/NP", pair(Child, "VP", "NP")),
            ("//NP\\VP", pair(Child, "VP", "NP")),
            ("//VP//NP", pair(Descendant, "VP", "NP")),
            ("//NP\\ancestor::VP", pair(Descendant, "VP", "NP")),
            ("//NP=>VP", pair(Sibling, "NP", "VP")),
            ("//VP<=NP", pair(Sibling, "NP", "VP")),
            ("//VB->NP", pair(Following, "VB", "NP")),
            ("//NP<-VB", pair(Following, "VB", "NP")),
        ] {
            assert_eq!(pairs(q), [want], "{q}");
        }
    }

    #[test]
    fn predicates_and_scopes_navigate_from_their_owner() {
        use EdgeKind::*;
        assert_eq!(
            pairs("//S[//NP/NN]"),
            [pair(Child, "NP", "NN"), pair(Descendant, "S", "NP")]
        );
        assert_eq!(pairs("//VP{/NP$}"), [pair(Child, "VP", "NP")]);
        assert_eq!(
            pairs("//S/VP{//NP->PP}"),
            [
                pair(Child, "S", "VP"),
                pair(Descendant, "VP", "NP"),
                pair(Following, "NP", "PP"),
            ]
        );
        assert_eq!(
            pairs("//NP[/DT and count(/NN)>0]"),
            [pair(Child, "NP", "DT"), pair(Child, "NP", "NN")]
        );
        assert_eq!(pairs("//NP[not(not(/DT))]"), [pair(Child, "NP", "DT")]);
        assert_eq!(pairs("//S[//NN[@lex=dog]]"), [pair(Descendant, "S", "NN")]);
    }

    #[test]
    fn no_pair_without_a_positive_tagged_context() {
        for q in [
            "//NP[/DT or /JJ]",
            "//NP[not(/DT)]",
            "//NP[count(/DT)=0]",
            "//NP[position()=1]",
            // A wildcard resets the context: neither pair is known.
            "//_/NP",
            "//NP/_/NN",
            // The closures and the non-immediate axes have no table.
            "//NP/descendant-or-self::NN",
            "//NP\\ancestor-or-self::S",
            "//NP->*VP",
            "//NP=>*VP",
            "//NP-->VP",
            "//NP==>VP",
            "//NP/self::NN",
        ] {
            assert_eq!(pairs(q), [], "{q}");
        }
        // An attribute step resets the context too...
        let mut after_attr = parse("//NP").unwrap();
        after_attr.steps.extend([
            Step::new(Axis::Attribute, NodeTest::tag("lex")),
            Step::new(Axis::Child, NodeTest::tag("NN")),
        ]);
        assert_eq!(pairs_of(&after_attr), []);
        // ...and so does an absolute predicate path's start.
        let dt = Path::absolute(vec![Step::new(Axis::Child, NodeTest::tag("DT"))]);
        let mut absolute = parse("//NP").unwrap();
        absolute.steps[0].predicates.push(Pred::Exists(dt));
        assert_eq!(pairs_of(&absolute), []);
        assert_eq!(requirements(&absolute).symbols, ["DT", "NP"]);
    }
}
