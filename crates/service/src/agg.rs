//! Per-shard aggregate tables: exact counts precomputed at shard-build
//! time, so the single-axis query shapes that dominate counting
//! workloads (the paper's reported measure is the match *count*, not
//! the match set) are answered in O(index lookup) — no walker pass, no
//! cursor, no materialization.
//!
//! The tag, edge and attribute tables ride the shard's existing build
//! pass (the one that already feeds the symbol-presence bitset and the
//! content hash) at a few hash-map updates per node; the span-
//! adjacency and descendant-presence tables each add one linear pass
//! per tree (a labeling and a bottom-up tag-set fold). Stored per
//! shard, they survive [`crate::Service::append_ptb`]
//! untouched on every shard but the rebuilt tail — the same build-id
//! scoping argument as the per-shard count store, but with zero bytes
//! of cache and zero misses.
//!
//! What is tabulated, and the query shape each table answers:
//!
//! | table                | query shape        | example        |
//! |----------------------|--------------------|----------------|
//! | node total/per-tree  | `//_`              | corpus size    |
//! | tag totals/per-tree  | `//TAG`            | `//NP`         |
//! | root tags            | `/TAG`, `/_`       | `/S`           |
//! | attr (name,value)    | `//_[@a=v]`        | `//_[@lex=saw]`|
//! | attr (tag,name,value)| `//TAG[@a=v]`      | `//NN[@lex=man]`|
//! | child-edge pairs     | `//A/B`            | `//VP/NP`      |
//! | sibling-adjacency    | `//A=>B`, `//A<=B` | `//PP=>S`      |
//! | span-adjacency       | `//A->B`, `//A<-B` | `//VB->NP`     |
//! | descendant presence  | `//A[//B]`, `//A[not(//B)]` | `//NP[not(//JJ)]` |
//!
//! Four of the pair tables also prove shards empty. A query's steps
//! require tag pairs ([`crate::plan::requirements`]); a pair the
//! child-edge, descendant-presence, sibling-adjacency or
//! following-span table lacks has no witness in the shard, so
//! [`crate::Shard::may_match`] skips the shard for every query shape,
//! tabulated or not ([`AggTables::witnesses`]).
//!
//! Soundness comes in two flavors. The edge tables lean on functional
//! dependencies of the tree shape: a node has exactly one parent, at
//! most one immediate preceding sibling and at most one immediate
//! following sibling, so counting *edges* with the right tag pair
//! counts *distinct output nodes* — the same reverse-functional
//! argument the relational cursor's dedup-free count pushdown makes,
//! collapsed to a table lookup. The span-adjacency and descendant
//! tables have no such dependency (several nodes can immediately
//! precede one node, and a node can hold many same-tag descendants),
//! so there the *build pass* deduplicates: each output node
//! contributes once per **distinct** context tag, making the table
//! entry the distinct-match count directly. The differential property
//! suite (`prop_count`) checks every class against full enumeration
//! on random corpora.

use std::collections::{HashMap, HashSet};

use lpath_model::{label_tree, Interner, Sym, Tree};
use lpath_syntax::{Axis, CmpOp, NodeTest, Path, Pred, Step};

use crate::plan::{Edge, EdgeKind};

/// A query shape the aggregate tables answer exactly, extracted from
/// the AST once at compile time ([`classify`]) and carried on the
/// compiled query so every shard answers by table lookup.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FastClass {
    /// `//_` — every element node.
    AllNodes,
    /// `//TAG` — every element with this tag.
    Tag(String),
    /// `/_` — every root (one per tree).
    RootAny,
    /// `/TAG` — roots with this tag.
    RootTag(String),
    /// `//_[@a=v]` / `//TAG[@a=v]` — elements carrying the attribute
    /// value, optionally tag-constrained.
    AttrEq {
        /// Constrain the element tag (`None` for the wildcard).
        tag: Option<String>,
        /// Attribute name, interned spelling (with the leading `@`).
        attr: String,
        /// Compared literal value.
        value: String,
    },
    /// `//A/B` — elements tagged `B` whose parent is tagged `A`.
    ChildPair(String, String),
    /// Adjacent-sibling tag pair `(left, right)`: sibling positions
    /// where `left` immediately precedes `right`. Since a node has at
    /// most one immediate sibling on each side, this pair count *is*
    /// the match count of both `//L=>R` (output: the right node) and
    /// the mirrored `//R<=L` (output: the left node).
    AdjacentSibling(String, String),
    /// `//A->B` — elements tagged `B` that immediately *follow* (span-
    /// adjacent, Definition 4.1's `B.left = A.right`) at least one `A`.
    /// Unlike sibling adjacency this relation crosses subtree
    /// boundaries and is not functional, so the table counts distinct
    /// `B` nodes, not edges.
    FollowingPair(String, String),
    /// `//A<-B` — elements tagged `B` that immediately *precede* at
    /// least one `A` (`A.left = B.right`).
    PrecedingPair(String, String),
    /// `//TAG[//D]` / `//_[//D]` — elements (optionally
    /// tag-constrained) with at least one proper descendant tagged `D`.
    HasDescendant {
        /// Constrain the element tag (`None` for the wildcard).
        tag: Option<String>,
        /// Required descendant tag.
        desc: String,
    },
    /// `//TAG[not(//D)]` / `//_[not(//D)]` — elements with **no**
    /// descendant tagged `D`: the tag total minus the
    /// [`FastClass::HasDescendant`] table entry.
    NoDescendant {
        /// Constrain the element tag (`None` for the wildcard).
        tag: Option<String>,
        /// Excluded descendant tag.
        desc: String,
    },
}

/// Classify a query as table-answerable, or `None` for everything the
/// tables do not cover (which then takes the cursor / walker path).
///
/// The accepted shapes are deliberately narrow — absolute, unscoped,
/// unaligned, at most two steps, at most one attribute-equality
/// predicate — because each admitted shape carries a proof that the
/// table count equals the deduplicated match count (see the module
/// docs). Anything outside that proof is rejected, never approximated.
pub fn classify(path: &Path) -> Option<FastClass> {
    if !path.absolute || path.scope.is_some() {
        return None;
    }
    let plain = |s: &Step| !s.left_align && !s.right_align && s.predicates.is_empty();
    match path.steps.as_slice() {
        [s] if plain(s) => match (s.axis, &s.test) {
            (Axis::Descendant, NodeTest::Any) => Some(FastClass::AllNodes),
            (Axis::Descendant, NodeTest::Tag(t)) => Some(FastClass::Tag(t.clone())),
            (Axis::Child, NodeTest::Any) => Some(FastClass::RootAny),
            (Axis::Child, NodeTest::Tag(t)) => Some(FastClass::RootTag(t.clone())),
            _ => None,
        },
        [s] if !s.left_align
            && !s.right_align
            && s.axis == Axis::Descendant
            && s.predicates.len() == 1 =>
        {
            let tag = match &s.test {
                NodeTest::Any => None,
                NodeTest::Tag(t) => Some(t.clone()),
            };
            if let Some((attr, value)) = attr_eq(&s.predicates[0]) {
                return Some(FastClass::AttrEq { tag, attr, value });
            }
            match &s.predicates[0] {
                Pred::Exists(p) => Some(FastClass::HasDescendant {
                    tag,
                    desc: bare_descendant_tag(p)?,
                }),
                Pred::Not(inner) => match &**inner {
                    Pred::Exists(p) => Some(FastClass::NoDescendant {
                        tag,
                        desc: bare_descendant_tag(p)?,
                    }),
                    _ => None,
                },
                _ => None,
            }
        }
        [a, b] if plain(a) && plain(b) && a.axis == Axis::Descendant => {
            let (NodeTest::Tag(ta), NodeTest::Tag(tb)) = (&a.test, &b.test) else {
                return None;
            };
            match b.axis {
                Axis::Child => Some(FastClass::ChildPair(ta.clone(), tb.clone())),
                // `//A=>B`: B with immediate *preceding* sibling A.
                Axis::ImmediateFollowingSibling => {
                    Some(FastClass::AdjacentSibling(ta.clone(), tb.clone()))
                }
                // `//A<=B`: B with immediate *following* sibling A —
                // the same adjacency table, mirrored.
                Axis::ImmediatePrecedingSibling => {
                    Some(FastClass::AdjacentSibling(tb.clone(), ta.clone()))
                }
                // `//A->B` / `//A<-B`: span adjacency — these need the
                // direction-specific distinct-B tables, no mirroring.
                Axis::ImmediateFollowing => Some(FastClass::FollowingPair(ta.clone(), tb.clone())),
                Axis::ImmediatePreceding => Some(FastClass::PrecedingPair(ta.clone(), tb.clone())),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Match `[@name = literal]`: a positive equality on a single
/// attribute step. Returns the attribute name in its interned
/// spelling (leading `@`) plus the literal.
fn attr_eq(p: &Pred) -> Option<(String, String)> {
    let Pred::Cmp {
        path,
        op: CmpOp::Eq,
        value,
    } = p
    else {
        return None;
    };
    if path.absolute || path.scope.is_some() || path.steps.len() != 1 {
        return None;
    }
    let s = &path.steps[0];
    if s.axis != Axis::Attribute || s.left_align || s.right_align || !s.predicates.is_empty() {
        return None;
    }
    match &s.test {
        NodeTest::Tag(t) => Some((format!("@{t}"), value.clone())),
        NodeTest::Any => None,
    }
}

/// Match the existence path `//TAG` — relative, unscoped, a single
/// bare descendant step with a concrete tag. This is the only inner
/// shape the descendant-presence tables answer.
fn bare_descendant_tag(path: &Path) -> Option<String> {
    if path.absolute || path.scope.is_some() || path.steps.len() != 1 {
        return None;
    }
    let s = &path.steps[0];
    if s.axis != Axis::Descendant || s.left_align || s.right_align || !s.predicates.is_empty() {
        return None;
    }
    match &s.test {
        NodeTest::Tag(t) => Some(t.clone()),
        NodeTest::Any => None,
    }
}

/// The precomputed aggregates of one shard's tree slice. Immutable
/// after the build pass; see the module docs for the query shape each
/// table answers.
#[derive(Default, Debug)]
pub struct AggTables {
    nodes_total: u64,
    /// Element count per local tree id (dense — every tree has one).
    nodes_per_tree: Vec<u32>,
    /// Per element tag: its total, and its `(local tid, count)` runs
    /// in tree order (sparse — only trees holding the tag appear).
    tags: HashMap<Sym, (u64, Vec<(u32, u32)>)>,
    /// Root tag per local tree id.
    roots: Vec<Sym>,
    /// Elements carrying `(@name, value)`, deduplicated per element.
    attr_pair: HashMap<(Sym, Sym), u64>,
    /// Elements tagged `tag` carrying `(@name, value)`.
    attr_triple: HashMap<(Sym, Sym, Sym), u64>,
    /// Parent→child tag edges.
    child_pair: HashMap<(Sym, Sym), u64>,
    /// Immediate-sibling adjacency `(left, right)` tag edges.
    sibling_pair: HashMap<(Sym, Sym), u64>,
    /// `(a, b)`: distinct `b` nodes immediately following (span-
    /// adjacent after) at least one `a` node.
    following_pair: HashMap<(Sym, Sym), u64>,
    /// `(a, b)`: distinct `b` nodes immediately preceding at least one
    /// `a` node.
    preceding_pair: HashMap<(Sym, Sym), u64>,
    /// `(a, d)`: `a`-tagged nodes with ≥1 proper descendant tagged `d`.
    with_desc: HashMap<(Sym, Sym), u64>,
    /// `d`: nodes of *any* tag with ≥1 proper descendant tagged `d`
    /// (the wildcard row of `with_desc`).
    desc_total: HashMap<Sym, u64>,
}

impl AggTables {
    /// Record one tree; called once per tree by the shard build pass,
    /// in local tree order.
    pub(crate) fn observe_tree(&mut self, tree: &Tree) {
        let ltid = self.nodes_per_tree.len() as u32;
        self.nodes_per_tree.push(tree.len() as u32);
        self.roots.push(tree.node(tree.root()).name);
        for id in tree.preorder() {
            let node = tree.node(id);
            self.nodes_total += 1;
            let (total, runs) = self.tags.entry(node.name).or_default();
            *total += 1;
            match runs.last_mut() {
                Some(run) if run.0 == ltid => run.1 += 1,
                _ => runs.push((ltid, 1)),
            }
            // Deduplicate attribute pairs per element: the predicate
            // `[@a=v]` is existential, so a (hypothetical) repeated
            // pair still yields one match.
            for (i, &(aname, aval)) in node.attrs.iter().enumerate() {
                if node.attrs[..i].contains(&(aname, aval)) {
                    continue;
                }
                *self.attr_pair.entry((aname, aval)).or_default() += 1;
                *self
                    .attr_triple
                    .entry((node.name, aname, aval))
                    .or_default() += 1;
            }
            for (i, &c) in node.children.iter().enumerate() {
                let child = tree.node(c).name;
                *self.child_pair.entry((node.name, child)).or_default() += 1;
                if let Some(&prev) = i.checked_sub(1).map(|j| &node.children[j]) {
                    let left = tree.node(prev).name;
                    *self.sibling_pair.entry((left, child)).or_default() += 1;
                }
            }
        }
        self.observe_spans(tree);
        self.observe_descendants(tree);
    }

    /// Span-adjacency tables: `//A->B` / `//A<-B`. The relation is
    /// Definition 4.1's boundary equation (`B.left = A.right` for
    /// following), which crosses subtree boundaries and is many-to-
    /// many, so each output node is counted once per *distinct*
    /// context tag on its adjacent boundary — the table entry is the
    /// deduplicated match count by construction.
    fn observe_spans(&mut self, tree: &Tree) {
        let labels = label_tree(tree);
        // Nodes grouped by their span boundaries: `ends[p]` holds the
        // tags of nodes whose interval ends at `p`, `starts[p]` those
        // beginning there. Boundary count ≤ leaves + 1, group size ≤
        // tree depth.
        let mut starts: HashMap<u32, Vec<Sym>> = HashMap::new();
        let mut ends: HashMap<u32, Vec<Sym>> = HashMap::new();
        for (idx, l) in labels.iter().enumerate() {
            let name = tree.node(lpath_model::NodeId(idx as u32)).name;
            starts.entry(l.left).or_default().push(name);
            ends.entry(l.right).or_default().push(name);
        }
        let mut seen: Vec<Sym> = Vec::new();
        for (idx, l) in labels.iter().enumerate() {
            let name = tree.node(lpath_model::NodeId(idx as u32)).name;
            // `//A->B`, output B = this node: distinct tags ending
            // where it starts.
            if let Some(before) = ends.get(&l.left) {
                seen.clear();
                for &a in before {
                    if !seen.contains(&a) {
                        seen.push(a);
                        *self.following_pair.entry((a, name)).or_default() += 1;
                    }
                }
            }
            // `//A<-B`, output B = this node: distinct tags starting
            // where it ends.
            if let Some(after) = starts.get(&l.right) {
                seen.clear();
                for &a in after {
                    if !seen.contains(&a) {
                        seen.push(a);
                        *self.preceding_pair.entry((a, name)).or_default() += 1;
                    }
                }
            }
        }
    }

    /// Descendant-presence tables: `//A[//D]` and (by complement)
    /// `//A[not(//D)]`. One bottom-up pass materializes each node's
    /// *distinct* proper-descendant tag set — the arena is preorder,
    /// so reverse order visits children before parents and every set
    /// is final when its node is tabulated.
    fn observe_descendants(&mut self, tree: &Tree) {
        let n = tree.len();
        let mut sets: Vec<HashSet<Sym>> = vec![HashSet::new(); n];
        for idx in (0..n).rev() {
            let node = tree.node(lpath_model::NodeId(idx as u32));
            let mut set = HashSet::new();
            for &c in &node.children {
                set.insert(tree.node(c).name);
                set.extend(sets[c.index()].iter().copied());
            }
            for &d in &set {
                *self.with_desc.entry((node.name, d)).or_default() += 1;
                *self.desc_total.entry(d).or_default() += 1;
            }
            sets[idx] = set;
        }
    }

    /// Exact match count of a classified query on this shard's slice,
    /// resolving the class's symbol spellings through the shard's
    /// `interner` (an unknown spelling means zero matches).
    /// O(hash lookups); equals `eval().len()` by construction.
    pub fn count(&self, class: &FastClass, interner: &Interner) -> u64 {
        let lookup2 = |m: &HashMap<(Sym, Sym), u64>, a: &str, b: &str| match (
            interner.get(a),
            interner.get(b),
        ) {
            (Some(a), Some(b)) => m.get(&(a, b)).copied().unwrap_or(0),
            _ => 0,
        };
        let tagged = |t: &str| interner.get(t).map_or(0, |s| self.tag_count(s));
        match class {
            FastClass::AllNodes => self.nodes_total,
            FastClass::RootAny => self.roots.len() as u64,
            FastClass::Tag(t) => tagged(t),
            FastClass::RootTag(t) => match interner.get(t) {
                Some(s) => self.roots.iter().filter(|&&r| r == s).count() as u64,
                None => 0,
            },
            FastClass::AttrEq { tag, attr, value } => match tag {
                None => lookup2(&self.attr_pair, attr, value),
                Some(tag) => match (interner.get(tag), interner.get(attr), interner.get(value)) {
                    (Some(t), Some(a), Some(v)) => {
                        self.attr_triple.get(&(t, a, v)).copied().unwrap_or(0)
                    }
                    _ => 0,
                },
            },
            FastClass::ChildPair(a, b) => lookup2(&self.child_pair, a, b),
            FastClass::AdjacentSibling(l, r) => lookup2(&self.sibling_pair, l, r),
            FastClass::FollowingPair(a, b) => lookup2(&self.following_pair, a, b),
            FastClass::PrecedingPair(a, b) => lookup2(&self.preceding_pair, a, b),
            FastClass::HasDescendant { tag, desc } => match tag {
                Some(t) => lookup2(&self.with_desc, t, desc),
                None => interner
                    .get(desc)
                    .and_then(|s| self.desc_total.get(&s))
                    .copied()
                    .unwrap_or(0),
            },
            // The complement of the presence table: total carriers of
            // the tag (or all nodes) minus those with the descendant.
            FastClass::NoDescendant { tag, desc } => {
                let with = self.count(
                    &FastClass::HasDescendant {
                        tag: tag.clone(),
                        desc: desc.clone(),
                    },
                    interner,
                );
                let pool = tag.as_deref().map_or(self.nodes_total, tagged);
                pool - with
            }
        }
    }

    /// Does some pair of nodes in this shard's slice witness `edge`?
    /// Spellings resolve through the shard's `interner`; an unknown
    /// one witnesses nothing. `false` proves every query requiring the
    /// edge empty on this shard ([`crate::Shard::may_match`]).
    pub fn witnesses(&self, edge: &Edge, interner: &Interner) -> bool {
        let table = match edge.kind {
            EdgeKind::Child => &self.child_pair,
            EdgeKind::Descendant => &self.with_desc,
            EdgeKind::Sibling => &self.sibling_pair,
            EdgeKind::Following => &self.following_pair,
        };
        match (interner.get(&edge.from), interner.get(&edge.to)) {
            (Some(a), Some(b)) => table.contains_key(&(a, b)),
            _ => false,
        }
    }

    /// Element count per local tree id.
    pub fn nodes_per_tree(&self) -> &[u32] {
        &self.nodes_per_tree
    }

    /// Elements tagged `tag` (0 for a tag that never occurs).
    pub fn tag_count(&self, tag: Sym) -> u64 {
        self.tags.get(&tag).map_or(0, |t| t.0)
    }

    /// Every element tag with its total, unordered.
    pub fn tag_counts(&self) -> impl Iterator<Item = (Sym, u64)> + '_ {
        self.tags.iter().map(|(&s, t)| (s, t.0))
    }

    /// `(local tid, count)` runs of the elements tagged `tag`,
    /// tid-ascending; empty when the tag does not occur.
    pub fn tag_runs(&self, tag: Sym) -> &[(u32, u32)] {
        self.tags.get(&tag).map_or(&[], |t| t.1.as_slice())
    }

    /// Root tag per local tree id.
    pub fn roots(&self) -> &[Sym] {
        &self.roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpath_model::ptb::parse_str;
    use lpath_syntax::parse;

    const SRC: &str = "\
( (S (NP (PRP I)) (VP (VBD saw) (NP (DT the) (NN man))) (. .)) )
( (S (NP (DT the) (NN man)) (VP (VBD left))) )
( (FRAG (NP (NN rain)) (NP (NN snow))) )
";

    fn tables(src: &str) -> (AggTables, lpath_model::Corpus) {
        let corpus = parse_str(src).unwrap();
        let mut agg = AggTables::default();
        for tree in corpus.trees() {
            agg.observe_tree(tree);
        }
        (agg, corpus)
    }

    fn class(q: &str) -> FastClass {
        classify(&parse(q).unwrap()).expect(q)
    }

    #[test]
    fn classify_accepts_exactly_the_tabulated_shapes() {
        assert_eq!(class("//_"), FastClass::AllNodes);
        assert_eq!(class("//NP"), FastClass::Tag("NP".into()));
        assert_eq!(class("/S"), FastClass::RootTag("S".into()));
        assert_eq!(class("/_"), FastClass::RootAny);
        assert_eq!(
            class("//_[@lex=saw]"),
            FastClass::AttrEq {
                tag: None,
                attr: "@lex".into(),
                value: "saw".into()
            }
        );
        assert_eq!(
            class("//NN[@lex=man]"),
            FastClass::AttrEq {
                tag: Some("NN".into()),
                attr: "@lex".into(),
                value: "man".into()
            }
        );
        assert_eq!(
            class("//VP/NP"),
            FastClass::ChildPair("VP".into(), "NP".into())
        );
        assert_eq!(
            class("//NP=>VP"),
            FastClass::AdjacentSibling("NP".into(), "VP".into())
        );
        // `//A<=B` counts B nodes *before* an A: the mirrored pair.
        assert_eq!(
            class("//VP<=NP"),
            FastClass::AdjacentSibling("NP".into(), "VP".into())
        );
        // Span adjacency is direction-specific: no mirroring.
        assert_eq!(
            class("//V->NP"),
            FastClass::FollowingPair("V".into(), "NP".into())
        );
        assert_eq!(
            class("//V<-NP"),
            FastClass::PrecedingPair("V".into(), "NP".into())
        );
        assert_eq!(
            class("//NP[//V]"),
            FastClass::HasDescendant {
                tag: Some("NP".into()),
                desc: "V".into()
            }
        );
        assert_eq!(
            class("//NP[not(//V)]"),
            FastClass::NoDescendant {
                tag: Some("NP".into()),
                desc: "V".into()
            }
        );
        assert_eq!(
            class("//_[not(//V)]"),
            FastClass::NoDescendant {
                tag: None,
                desc: "V".into()
            }
        );
        for q in [
            "//S//NP",             // grandparent axis: not an edge table
            "//NP$",               // alignment needs a scope context
            "//S{/VP}",            // scoped
            "//NP[//V/NN]",        // inner path too deep for the table
            "//NP[//V[@lex=a]]",   // inner predicate: not a bare tag
            "//NP[not(//_)]",      // wildcard descendant: not tabulated
            "//NP[not(not(//V))]", // double negation: stays on the walker
            "//NP[@lex!=a]",       // only equality is tabulated
            "//S/VP/NP",           // three steps
            "/S/NP",               // root-anchored pair: not tabulated
            "//_/NP",              // wildcard parent: not a tag edge
        ] {
            assert!(classify(&parse(q).unwrap()).is_none(), "{q}");
        }
    }

    #[test]
    fn table_counts_match_hand_counts() {
        let (agg, corpus) = tables(SRC);
        let it = corpus.interner();
        let n = |q: &str| agg.count(&class(q), it);
        assert_eq!(n("//_"), 20);
        assert_eq!(n("//NP"), 5);
        assert_eq!(n("/S"), 2);
        assert_eq!(n("/_"), 3);
        assert_eq!(n("//_[@lex=the]"), 2);
        assert_eq!(n("//NN[@lex=man]"), 2);
        assert_eq!(n("//NP/NN"), 4);
        assert_eq!(n("//NP=>VP"), 2);
        assert_eq!(n("//VP<=NP"), 2); // NPs immediately before a VP
                                      // Span adjacency: `(FRAG (NP rain) (NP snow))` has NP→NP, and
                                      // the VPs in both S trees start where an NP ends.
        assert_eq!(n("//NP->VP"), 2);
        assert_eq!(n("//NP->NP"), 1);
        assert_eq!(n("//VBD->NP"), 1); // `(NP the man)` after `saw`
        assert_eq!(n("//VP<-NP"), 2); // NPs immediately before a VP
                                      // Descendant presence: 5 NPs, 4 hold an NN; 8 of 20 nodes do.
        assert_eq!(n("//NP[//NN]"), 4);
        assert_eq!(n("//S[//NN]"), 2);
        assert_eq!(n("//NP[not(//NN)]"), 1);
        assert_eq!(n("//_[//NN]"), 8);
        assert_eq!(n("//_[not(//NN)]"), 12);
        assert_eq!(n("//NP[//ZZZ]"), 0);
        assert_eq!(n("//NP[not(//ZZZ)]"), 5); // vacuously all NPs
        assert_eq!(n("//ZZZ"), 0);
        assert_eq!(n("//_[@lex=absent]"), 0);
        // The per-tree node spread sums to the total; one root per tree.
        let spread: u64 = agg.nodes_per_tree().iter().map(|&n| u64::from(n)).sum();
        assert_eq!(spread, agg.nodes_total);
        assert_eq!(agg.roots().len(), 3);
    }

    #[test]
    fn tag_counts_are_exact() {
        // Figure 1: four NPs, three Ns, a single VP.
        let (agg, corpus) = tables(
            "( (S (NP I) (VP (V saw) (NP (NP (Det the) (Adj old) (N man)) \
             (PP (Prep with) (NP (Det a) (N dog))))) (N today)) )",
        );
        let it = corpus.interner();
        let total = |t: &str| it.get(t).map_or(0, |s| agg.tag_count(s));
        assert_eq!(total("NP"), 4);
        assert_eq!(total("N"), 3);
        assert_eq!(total("VP"), 1);
        assert_eq!(total("ZZZ"), 0);
        // Attribute names are not element occurrences.
        assert!(it.get("@lex").is_some());
        assert_eq!(total("@lex"), 0);
    }

    #[test]
    fn per_tree_tables_sum_to_totals() {
        let (agg, corpus) = tables(SRC);
        let it = corpus.interner();
        let mut nodes = 0;
        for (sym, total) in agg.tag_counts() {
            let runs = agg.tag_runs(sym);
            assert!(runs.windows(2).all(|w| w[0].0 < w[1].0), "tid-ascending");
            let spread: u64 = runs.iter().map(|&(_, n)| u64::from(n)).sum();
            assert_eq!(spread, total, "{}", it.resolve(sym));
            assert_eq!(total, agg.tag_count(sym));
            nodes += total;
        }
        assert_eq!(nodes, 20, "every element counted once");
        assert_eq!(
            agg.tag_runs(it.get("NP").unwrap()),
            [(0, 2), (1, 1), (2, 2)]
        );
    }
}
