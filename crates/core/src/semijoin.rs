//! Semijoin programs: LPath queries answered tree by tree.
//!
//! Every answer of an LPath query is one node set, and every join the
//! §4 translation emits carries `tid` equality. When the translated
//! query is *acyclic* it evaluates by semijoins alone (Gottlob, Koch
//! and Schulz, *Conjunctive Queries over Trees*): no join tuple is
//! enumerated, so no `DISTINCT` is needed either. A [`Program`] is that
//! evaluation compiled against the engine's existing indexes. It covers
//! a [`ConjQuery`] when
//!
//! * after dropping the `tid = tid` equalities, each query level's join
//!   graph is a tree — rooted at the output alias for the top level,
//!   at the alias that carries the correlation for a subquery — or
//!   becomes a forest once one *bound* alias is removed (below);
//! * each `EXISTS` / `NOT EXISTS` subquery correlates with exactly one
//!   outer alias, through exactly one of its own aliases, besides
//!   enclosing bound aliases;
//! * the `tid` equalities tie every alias to one tree;
//! * every alias has a candidate source: an equality on `name` or on a
//!   `value` literal (its posting list — the clustered `(name, tid, …)`
//!   or the `(value, tid, id)` range), a condition no row satisfies, or
//!   — for an element alias without either, such as `_` — an `id = id`
//!   link to an alias with a posting list (the same tree node, as in
//!   `_[@lex=w]`), else `depth = 1` (the tree's root), else every
//!   element of the tree.
//!
//! Multi-step scopes (`//VP{/VB-->NN}`) tie every inner step to both
//! its context and the scope alias, which closes a cycle — but a cycle
//! that removing one alias breaks (Gottlob–Koch–Schulz's cyclic
//! queries need more; these need a cut set of one). That alias is
//! *bound*: the level is evaluated once per candidate `r` of it, with
//! every link to it a filter of the other aliases' candidates against
//! `r` (a link that bounds `left` first cuts them to `r`'s span by
//! binary search: every candidate source lists a tree's rows in `left`
//! order). The remaining aliases form a forest: the level root's
//! component is reduced per `r` and its survivors are unioned over all
//! `r`; every other component is a *witness*, rooted at its alias with
//! the fewest rows, that must keep a row for `r` to count. When the
//! bound alias is the level root itself (`//VP[{//VB->NP}]`), it keeps
//! the `r`s whose witnesses all hold. Before that loop, the bound rows
//! are cut to those with a partner among the candidates of each alias
//! of the level tied to them by an equality (`^`, `$`, `/`). A
//! subquery correlated with two aliases of a level (a `not(…)` inside
//! a scope names both its context and the scope) needs one of them
//! bound; the other is its parent. Among the aliases whose removal
//! leaves a forest, and that every such subquery names, the bound one
//! is the one of highest degree — the scope alias, which every inner
//! step links to — then the lower. A level that needs two bound
//! aliases stays on the cursor.
//!
//! Execution visits the trees of the *driver* — the required alias
//! with the smallest posting list — in `tid` order, from any start
//! tree (a page continues where the last one stopped). Per tree, each
//! posting list gallops a finger forward to the tree's window; element
//! rows are found by position, since the `value = NULL` range lists
//! every element in `(tid, id)` order and ids number each tree's
//! elements from 2. The alias tree is then reduced bottom-up, one
//! filter per edge. A child whose posting list is no longer than its
//! parent's is reduced first: when it keeps no rows, the parent's
//! candidates are never read. A dearer child is reduced after them,
//! its own candidates first cut to those with a partner among the
//! parent's. Either way a parent row is kept when it has a witness
//! among the child's survivors — found by sorting the child rows on the
//! edge's `=` column (else on a bounded column), binary-searching, and
//! scanning the remaining conditions up to the first hit. A
//! `NOT EXISTS` edge keeps the rows *without* a witness. The root's
//! survivors are the tree's answers.

use std::fmt;
use std::ops::{ControlFlow, Range};

use lpath_model::NodeId;
use lpath_relstore::{
    index::gallop, Cmp, ColId, ConjQuery, Database, IndexId, Operand, RowId, Table, TableId, Value,
    NULL,
};

use crate::compile::NCol;
use crate::translate::NodeCols;

/// The engine indexes a program reads its candidates from.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Access {
    /// Keyed `(name, tid, …)`: name postings.
    pub(crate) by_name: IndexId,
    /// Keyed `(value, tid, id)`: value postings, and every element in
    /// `(tid, id)` order.
    pub(crate) by_value: IndexId,
}

/// A compiled semijoin program (see the [module docs](self)).
pub struct Program<'e> {
    table: &'e Table,
    cols: NodeCols,
    nodes: Vec<Node>,
    /// The output alias.
    root: usize,
    driver: Driver,
    /// The posting lists aliases read, each galloped once per tree
    /// however many aliases read it.
    lists: Vec<&'e [RowId]>,
    /// Every element row, in `(tid, id)` order.
    elements: &'e [RowId],
    /// Where each tree's elements start in `elements`, then the total.
    tree_starts: &'e [u32],
}

/// Which trees a run visits.
#[derive(Copy, Clone)]
enum Driver {
    /// The trees of this required alias's posting list.
    Alias(usize),
    /// Every tree: no required alias reads a posting list.
    Every,
    /// None: a required alias can match no row.
    Nothing,
}

/// One alias of the query (any level), numbered as the SQL rendering
/// numbers it.
struct Node {
    source: Source,
    /// Conditions on the alias's own row.
    filters: Vec<Filter>,
    /// Edges to the aliases below it: early ones first, then the other
    /// semijoins, then the anti-semijoins; cheapest first within each.
    children: Vec<Edge>,
    /// Links to bound aliases: filters against their current rows.
    binds: Vec<Bind>,
    /// On a level root: the level's bound alias.
    scope: Option<Scope>,
}

/// A level's bound alias and what each of its rows must witness.
struct Scope {
    alias: usize,
    /// Roots of the components that hang off the bound alias alone:
    /// each must keep a row for the bound row to count.
    witnesses: Vec<usize>,
    /// The aliases of its level whose candidates, read unbound, first
    /// cut the bound alias's rows to those with a partner among them.
    prefilter: Vec<usize>,
}

/// An alias's links to one bound alias, as a [`Search`] from the bound
/// row for the alias's candidates, keyed on `left`.
struct Bind {
    alias: usize,
    search: Search,
}

/// Where an alias's candidates in one tree come from.
#[derive(Copy, Clone)]
enum Source {
    /// A posting list (in [`Program::lists`]) sorted by `tid` first:
    /// the rows equal to one constant on `name` or `value`.
    Posting { list: usize, on: NCol },
    /// The element rows of the nodes the candidates of `from` (a
    /// [`Source::Posting`] alias) name — they share `id`.
    SameNode { from: usize },
    /// The tree's root element.
    Root,
    /// Every element of the tree.
    Elements,
    /// A condition no row satisfies (an unknown tag or literal).
    Empty,
}

/// A condition on one row.
enum Filter {
    Const(ColId, Cmp, Value),
    Cols(ColId, Cmp, ColId),
    In(ColId, Vec<Value>),
}

/// `x.x cmp y.y` between the rows of two aliases.
#[derive(Copy, Clone, PartialEq, Debug)]
struct Link {
    x: ColId,
    cmp: Cmp,
    y: ColId,
}

impl Link {
    fn flipped(self) -> Link {
        Link {
            x: self.y,
            cmp: self.cmp.flip(),
            y: self.x,
        }
    }
}

/// A parent → child edge of the alias tree.
struct Edge {
    child: usize,
    /// A `NOT EXISTS` edge: keep the parents without a witness.
    anti: bool,
    /// A semijoin edge to a child whose posting list is no longer than
    /// its parent's: evaluated before the parent's candidates are read.
    early: bool,
    /// Witnesses among the child's rows, for a parent row.
    up: Search,
    /// Partners among the parent's rows, for a child row.
    down: Search,
}

/// Bounds on a key, each `(x column, offset)`.
type Bounds = Vec<(ColId, u32)>;

/// How to find, for one `x` row, a `y` row satisfying every link: sort
/// the `y` rows on `key`, binary-search the bound the links put on it,
/// and test the links on each row up to the first hit.
struct Search {
    links: Vec<Link>,
    key: Option<ColId>,
    /// `y.key >= x.col + d`.
    lo: Bounds,
    /// `y.key <= x.col - d`.
    hi: Bounds,
}

impl Search {
    /// Choose the key: a column under an `=` link, else one bounded on
    /// both sides, else one bounded on either.
    fn plan(links: Vec<Link>, cols: NodeCols) -> Search {
        let score = |key: ColId| {
            if links.iter().any(|l| l.y == key && l.cmp == Cmp::Eq) {
                return 3;
            }
            let (lo, hi) = bounds(&links, key, cols);
            usize::from(!lo.is_empty()) + usize::from(!hi.is_empty())
        };
        let mut key = None;
        let mut best = 0;
        for l in &links {
            let s = score(l.y);
            if s > best {
                (key, best) = (Some(l.y), s);
            }
        }
        let (lo, hi) = key.map(|k| bounds(&links, k, cols)).unwrap_or_default();
        Search { links, key, lo, hi }
    }

    /// Search on `key` whatever the links bound.
    fn keyed(links: Vec<Link>, key: ColId, cols: NodeCols) -> Search {
        let (lo, hi) = bounds(&links, key, cols);
        Search {
            links,
            key: Some(key),
            lo,
            hi,
        }
    }

    /// The closed range the links put on a `y` row's key, for row `x`.
    #[inline]
    fn range(&self, table: &Table, x: RowId) -> (i64, i64) {
        let v = |c: ColId| i64::from(table.value(x, c));
        let lo = self.lo.iter().map(|&(c, d)| v(c) + i64::from(d));
        let hi = self.hi.iter().map(|&(c, d)| v(c) - i64::from(d));
        (lo.max().unwrap_or(0), hi.min().unwrap_or(i64::MAX))
    }

    /// Do rows `x` and `y` satisfy every link?
    #[inline]
    fn holds(&self, table: &Table, x: RowId, y: RowId) -> bool {
        let v = |r: RowId, c: ColId| table.value(r, c);
        self.links.iter().all(|l| l.cmp.eval(v(x, l.x), v(y, l.y)))
    }
}

/// The bounds `links` put on `y.key`, as `(x column, offset)` pairs:
/// `y.key >= x.col + d` (low) and `y.key <= x.col - d` (high).
/// Intervals are never empty (`left < right` on every row), so a bound
/// on `right` bounds `left` too, and vice versa.
fn bounds(links: &[Link], key: ColId, cols: NodeCols) -> (Bounds, Bounds) {
    let (left, right) = (cols.col(NCol::Left), cols.col(NCol::Right));
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    for l in links {
        // `y.(l.y) flip x.(l.x)`.
        let c = l.cmp.flip();
        if l.y == key {
            match c {
                Cmp::Eq => {
                    lo.push((l.x, 0));
                    hi.push((l.x, 0));
                }
                Cmp::Ge => lo.push((l.x, 0)),
                Cmp::Gt => lo.push((l.x, 1)),
                Cmp::Le => hi.push((l.x, 0)),
                Cmp::Lt => hi.push((l.x, 1)),
                Cmp::Ne => {}
            }
        } else if key == left && l.y == right {
            match c {
                Cmp::Eq | Cmp::Le => hi.push((l.x, 1)),
                Cmp::Lt => hi.push((l.x, 2)),
                _ => {}
            }
        } else if key == right && l.y == left {
            match c {
                Cmp::Eq | Cmp::Ge => lo.push((l.x, 1)),
                Cmp::Gt => lo.push((l.x, 2)),
                _ => {}
            }
        }
    }
    (lo, hi)
}

/// Per-run state: each list's window in the current tree, and reusable
/// buffers.
struct State {
    /// Per posting list, `(tid, start, end)`: the start is the finger
    /// the next tree's search gallops forward from.
    windows: Vec<(Option<u32>, usize, usize)>,
    bufs: Vec<Vec<RowId>>,
    /// The rows of early-evaluated children, until their parent's
    /// candidates are read.
    early: Vec<Vec<RowId>>,
    sorted: Vec<(Value, RowId)>,
    /// Per alias: the row a bound alias is bound to.
    bound: Vec<RowId>,
}

impl State {
    fn take(&mut self) -> Vec<RowId> {
        self.bufs.pop().unwrap_or_default()
    }

    fn give(&mut self, mut buf: Vec<RowId>) {
        buf.clear();
        self.bufs.push(buf);
    }
}

impl<'e> Program<'e> {
    /// Compile `cq` (translated over the node relation `table`), or
    /// `None` when it is not covered (see the [module docs](self)).
    pub(crate) fn compile(
        cq: &ConjQuery,
        db: &'e Database,
        table: TableId,
        cols: NodeCols,
        access: Access,
        tree_starts: &'e [u32],
    ) -> Option<Self> {
        let (tid, id) = (cols.col(NCol::Tid), cols.col(NCol::Id));
        let eq = |col: ColId| Link {
            x: col,
            cmp: Cmp::Eq,
            y: col,
        };
        let (tid_link, id_link) = (eq(tid), eq(id));
        let [out_tid, out_id] = cq.projection[..] else {
            return None;
        };
        if !cq.distinct || out_tid.alias != out_id.alias || out_tid.col != tid || out_id.col != id {
            return None;
        }
        let mut levels = Vec::new();
        let total = flatten(cq, None, false, 0, &mut levels);
        let mut drafts: Vec<Draft> = (0..total).map(|_| Draft::default()).collect();
        // Trees: `tid = tid`. Nodes: `id = id`.
        let mut same_tree = UnionFind::new(total);
        let mut same_node = UnionFind::new(total);
        // `(parent, child, links, anti)`, oriented.
        let mut edges: Vec<(usize, usize, Vec<Link>, bool)> = Vec::new();

        let table_ref = db.table(table);
        let by_name = db.index(access.by_name);
        let by_value = db.index(access.by_value);
        let (name, value, depth) = (
            cols.col(NCol::Name),
            cols.col(NCol::Value),
            cols.col(NCol::Depth),
        );
        // The shortest posting list an equality on `name` or on a
        // `value` literal gives an alias, and that equality's index.
        let posting = |consts: &[(ColId, Cmp, Value)]| {
            let mut best: Option<(&'e [RowId], NCol, usize)> = None;
            for (i, &(col, cmp, v)) in consts.iter().enumerate() {
                let rows = match (col, cmp) {
                    (c, Cmp::Eq) if c == name => (by_name.equal_range(table_ref, &[v]), NCol::Name),
                    (c, Cmp::Eq) if c == value && v != NULL => {
                        (by_value.equal_range(table_ref, &[v]), NCol::Value)
                    }
                    _ => continue,
                };
                if best.is_none_or(|(b, ..)| rows.0.len() < b.len()) {
                    best = Some((rows.0, rows.1, i));
                }
            }
            best
        };

        for lvl in &levels {
            let q = lvl.query;
            let g = |a: usize| lvl.offset + a;
            // Unordered local pairs with their links, `first.x cmp second.y`.
            let mut pairs: Vec<(usize, usize, Vec<Link>)> = Vec::new();
            // Correlations `(local, outer, links)`, `local.x cmp outer.y`.
            let mut corr: Vec<(usize, usize, Vec<Link>)> = Vec::new();
            for c in &q.conds {
                let l = g(c.left.alias);
                let (other, col, outer) = match c.right {
                    Operand::Const(v) => {
                        drafts[l].consts.push((c.left.col, c.cmp, v));
                        continue;
                    }
                    Operand::Col(r) if r.alias == c.left.alias => {
                        drafts[l]
                            .filters
                            .push(Filter::Cols(c.left.col, c.cmp, r.col));
                        continue;
                    }
                    Operand::Col(r) => (g(r.alias), r.col, false),
                    Operand::Outer(r) => (levels[lvl.outer?].offset + r.alias, r.col, true),
                };
                let link = Link {
                    x: c.left.col,
                    cmp: c.cmp,
                    y: col,
                };
                let (tid_eq, id_eq) = (link == tid_link, link == id_link);
                if tid_eq {
                    same_tree.union(l, other);
                } else if id_eq {
                    same_node.union(l, other);
                }
                // A tree-only pair joins nothing; a tree-only
                // correlation still names the subquery's parent.
                let (list, link) = match (outer, tid_eq) {
                    (false, true) => continue,
                    (false, false) => (&mut pairs, Some(link)),
                    (true, tid_eq) => (&mut corr, (!tid_eq).then_some(link)),
                };
                let at = list
                    .iter()
                    .position(|&(a, b, _)| (a, b) == (l, other) || (a, b) == (other, l));
                let at = at.unwrap_or_else(|| {
                    list.push((l, other, Vec::new()));
                    list.len() - 1
                });
                let (a, _, links) = &mut list[at];
                let link = link.map(|k| if *a == l { k } else { k.flipped() });
                links.extend(link.filter(|k| !links.contains(k)));
            }
            for ic in &q.in_conds {
                drafts[g(ic.col.alias)]
                    .filters
                    .push(Filter::In(ic.col.col, ic.values().to_vec()));
            }

            // The level's root. A subquery's parent is the one outer
            // alias it correlates with whose binders hold every other
            // one: links to those are filters against their rows.
            let root = match lvl.outer {
                None => out_id.alias,
                Some(_) => {
                    let p = corr.iter().map(|c| c.1).find(|&p| {
                        corr.iter()
                            .all(|c| c.1 == p || drafts[p].binders.contains(&c.1))
                    })?;
                    let mut root = None;
                    for (l, o, links) in corr {
                        if o != p {
                            drafts[l].bound.push((o, links));
                        } else if root.replace(l).is_none() {
                            edges.push((p, l, links, lvl.negated));
                        } else {
                            return None;
                        }
                    }
                    let root = root?;
                    let inherited = drafts[p].binders.clone();
                    for d in &mut drafts[lvl.offset..lvl.offset + q.aliases.len()] {
                        d.binders.clone_from(&inherited);
                    }
                    root
                }
            };
            // Its join graph as a tree below the root — else as a forest
            // once the bound alias is removed. A subquery correlated with
            // two of its aliases needs one of them bound: the other is
            // its parent.
            let local = lvl.offset..lvl.offset + q.aliases.len();
            let outers = |sub: &ConjQuery| {
                let mut outers: Vec<usize> = (sub.conds.iter())
                    .filter_map(|c| match c.right {
                        Operand::Outer(r) => Some(g(r.alias)),
                        _ => None,
                    })
                    .collect();
                outers.sort_unstable();
                outers.dedup();
                outers
            };
            let two_way = |sub: &ConjQuery| {
                let mut named = sub.conds.iter().filter_map(|c| match c.right {
                    Operand::Outer(r) => Some(r.alias),
                    _ => None,
                });
                let first = named.next();
                named.any(|a| Some(a) != first)
            };
            let base = edges.len();
            let tree = if q.subqueries.iter().any(|s| two_way(&s.query)) {
                None
            } else {
                span(&pairs, local.clone(), root, None, |_| 0, &mut edges)
            };
            let (bound, witnesses) = match tree {
                Some(witnesses) if witnesses.is_empty() => (None, witnesses),
                _ => {
                    edges.truncate(base);
                    // Bind the alias of highest degree — the scope alias,
                    // which every inner step links to — then the lower
                    // one, among those every two-way subquery names.
                    let named: Vec<Vec<usize>> = (q.subqueries.iter())
                        .map(|s| outers(&s.query))
                        .filter(|o| o.len() > 1)
                        .collect();
                    let mut order: Vec<usize> = local
                        .clone()
                        .filter(|a| named.iter().all(|o| o.contains(a)))
                        .collect();
                    let degree = |a: usize| pairs.iter().filter(|p| p.0 == a || p.1 == a).count();
                    order.sort_by_key(|&a| (std::cmp::Reverse(degree(a)), a));
                    let rows_of =
                        |a: usize| posting(&drafts[a].consts).map_or(usize::MAX, |(r, ..)| r.len());
                    let mut forest =
                        |b| span(&pairs, local.clone(), root, Some(b), rows_of, &mut edges);
                    order
                        .into_iter()
                        .find_map(|b| forest(b).map(|w| (Some(b), w)))?
                }
            };
            if let Some(b) = bound {
                for (x, y, links) in pairs {
                    if x == b {
                        drafts[y]
                            .bound
                            .push((b, links.into_iter().map(Link::flipped).collect()));
                    } else if y == b {
                        drafts[x].bound.push((b, links));
                    }
                }
                for a in local.filter(|&a| a != b) {
                    drafts[a].binders.push(b);
                }
                drafts[root].scope = Some(Scope {
                    alias: b,
                    witnesses,
                    prefilter: Vec::new(),
                });
            }
        }
        if (1..total).any(|a| !same_tree.same(0, a)) {
            return None;
        }

        // Candidate sources (see the module docs).
        let mut lists: Vec<&'e [RowId]> = Vec::new();
        let mut own: Vec<Option<(usize, NCol)>> = Vec::with_capacity(total);
        for d in &mut drafts {
            for &(col, cmp, v) in &d.consts {
                d.empty |= cmp == Cmp::Lt && v == 0;
                d.element |= (col, cmp, v) == (value, Cmp::Eq, NULL);
                d.root |= (col, cmp, v) == (depth, Cmp::Eq, 1);
            }
            let best = posting(&d.consts);
            // A posting implies its own equality.
            if let Some((_, _, i)) = best {
                d.consts.remove(i);
            }
            // An alias that matches nothing lends no rows to its node.
            own.push(best.filter(|_| !d.empty).map(|(rows, on, _)| {
                let same = |l: &&[RowId]| std::ptr::eq(*l, rows);
                let list = lists.iter().position(same).unwrap_or_else(|| {
                    lists.push(rows);
                    lists.len() - 1
                });
                (list, on)
            }));
        }
        let level_of: Vec<usize> = (0..levels.len())
            .flat_map(|l| std::iter::repeat_n(l, levels[l].query.aliases.len()))
            .collect();
        let mut nodes = Vec::with_capacity(total);
        let left = cols.col(NCol::Left);
        for (a, mut d) in drafts.into_iter().enumerate() {
            // Only an alias every match of `a` needs can lend it rows:
            // one of `a`'s level or an enclosing one.
            let cheapest = (0..total)
                .filter(|&b| same_node.same(a, b) && within(&levels, level_of[a], level_of[b]))
                .filter_map(|b| own[b].map(|(list, _)| (lists[list].len(), b)))
                .min();
            let source = match (own[a], cheapest) {
                _ if d.empty => Source::Empty,
                (Some((list, on)), _) => Source::Posting { list, on },
                _ if !d.element => return None,
                _ if d.root => Source::Root,
                (None, Some((_, from))) => Source::SameNode { from },
                (None, None) => Source::Elements,
            };
            // Element sources imply `value = NULL`, the root `depth = 1`.
            let implied = |&(col, cmp, v): &(ColId, Cmp, Value)| match source {
                Source::Root => {
                    (col, cmp, v) == (value, Cmp::Eq, NULL) || (col, cmp, v) == (depth, Cmp::Eq, 1)
                }
                Source::SameNode { .. } | Source::Elements => {
                    (col, cmp, v) == (value, Cmp::Eq, NULL)
                }
                Source::Posting { .. } | Source::Empty => false,
            };
            let mut filters: Vec<Filter> = d
                .consts
                .iter()
                .filter(|c| !implied(c))
                .map(|&(col, cmp, v)| Filter::Const(col, cmp, v))
                .collect();
            filters.extend(d.filters);
            let binds = d
                .bound
                .into_iter()
                .map(|(b, links)| Bind {
                    alias: b,
                    search: Search::keyed(
                        links.into_iter().map(Link::flipped).collect(),
                        left,
                        cols,
                    ),
                })
                .collect();
            nodes.push(Node {
                source,
                filters,
                children: Vec::new(),
                binds,
                scope: d.scope.take(),
            });
        }
        let elements = by_value.equal_range(table_ref, &[NULL]);

        // Rows read per run: the planning currency.
        let cost = |nodes: &[Node], a: usize| match nodes[a].source {
            Source::Posting { list, .. } => lists[list].len(),
            Source::SameNode { from } => own[from].map_or(0, |(list, _)| lists[list].len()),
            Source::Root => tree_starts.len() - 1,
            Source::Elements => elements.len(),
            Source::Empty => 0,
        };
        let early = |nodes: &[Node], parent: usize, child: usize, anti: bool| {
            !anti && cost(nodes, child) <= cost(nodes, parent)
        };
        edges.sort_by_key(|&(parent, child, _, anti)| {
            (
                !early(&nodes, parent, child, anti),
                anti,
                cost(&nodes, child),
            )
        });
        let mut has_children = vec![false; total];
        for &(parent, ..) in &edges {
            has_children[parent] = true;
        }
        for (parent, child, links, anti) in edges {
            // A parent read off its child's nodes has, in every row, a
            // witness for a bare `id = id` edge to a childless child
            // that answers to no bound alias.
            let implied = matches!(nodes[parent].source, Source::SameNode { from } if from == child)
                && !anti
                && links.iter().all(|&l| l == id_link)
                && !has_children[child]
                && nodes[child].binds.is_empty()
                && nodes[child].scope.is_none();
            if implied {
                continue;
            }
            let up = Search::plan(links.iter().map(|l| l.flipped()).collect(), cols);
            let down = Search::plan(links, cols);
            let early = early(&nodes, parent, child, anti);
            nodes[parent].children.push(Edge {
                child,
                anti,
                early,
                up,
                down,
            });
        }

        // Before the per-row loop, a bound alias's rows are cut to those
        // with a partner among the unbound candidates of each alias of
        // its level that it filters by an equality — those listed apart
        // from the bound row, cheapest first.
        for a in 0..total {
            let Some(b) = nodes[a].scope.as_ref().map(|s| s.alias) else {
                continue;
            };
            let mut prefilter: Vec<usize> = (0..total)
                .filter(|&x| {
                    level_of[x] == level_of[b]
                        && !matches!(nodes[x].source, Source::Elements)
                        && nodes[x].binds.iter().any(|bind| {
                            bind.alias == b && bind.search.links.iter().any(|l| l.cmp == Cmp::Eq)
                        })
                })
                .collect();
            prefilter.sort_by_key(|&x| cost(&nodes, x));
            if let Some(scope) = &mut nodes[a].scope {
                scope.prefilter = prefilter;
            }
        }

        // The driver: the top level's smallest posting. A top-level
        // alias with no rows at all leaves nothing to visit.
        let top = 0..levels[0].query.aliases.len();
        let driver = if top
            .clone()
            .any(|a| matches!(nodes[a].source, Source::Empty))
        {
            Driver::Nothing
        } else {
            top.filter(|&a| matches!(nodes[a].source, Source::Posting { .. }))
                .min_by_key(|&a| cost(&nodes, a))
                .map_or(Driver::Every, Driver::Alias)
        };
        Some(Program {
            table: table_ref,
            cols,
            nodes,
            root: out_id.alias,
            driver,
            lists,
            elements,
            tree_starts,
        })
    }

    /// Every match, sorted in document order.
    pub fn query(&self) -> Vec<(u32, NodeId)> {
        let mut out = Vec::new();
        self.for_each_tree(0, |tid, ids| {
            out.extend(ids.iter().map(|&id| (tid, NodeId(id - 2))));
            ControlFlow::Continue(())
        });
        out
    }

    /// The number of matches.
    pub fn count(&self) -> usize {
        let mut n = 0;
        self.for_each_tree(0, |_, ids| {
            n += ids.len();
            ControlFlow::Continue(())
        });
        n
    }

    /// Is there any match? Stops at the first tree that has one.
    pub fn exists(&self) -> bool {
        let mut found = false;
        self.for_each_tree(0, |_, _| {
            found = true;
            ControlFlow::Break(())
        });
        found
    }

    /// Run the program over trees `from..`: `f` receives each tree
    /// with matches, in `tid` order, with the sorted `id`s of its
    /// matches, until it breaks.
    pub(crate) fn for_each_tree(
        &self,
        from: u32,
        mut f: impl FnMut(u32, &[Value]) -> ControlFlow<()>,
    ) {
        let tids = self.table.column(self.cols.col(NCol::Tid));
        let ids = self.table.column(self.cols.col(NCol::Id));
        let mut st = State {
            windows: vec![(None, 0, 0); self.lists.len()],
            bufs: Vec::new(),
            early: Vec::new(),
            sorted: Vec::new(),
            bound: Vec::new(),
        };
        if self.nodes.iter().any(|n| n.scope.is_some()) {
            st.bound = vec![RowId(0); self.nodes.len()];
        }
        let mut out = Vec::new();
        let mut visit = |t: u32, st: &mut State| {
            let mut matches = st.take();
            self.eval(self.root, t, &mut matches, st, None);
            let flow = if matches.is_empty() {
                ControlFlow::Continue(())
            } else {
                out.clear();
                out.extend(matches.iter().map(|r| ids[r.index()]));
                out.sort_unstable();
                out.dedup();
                f(t, &out)
            };
            st.give(matches);
            flow
        };
        match self.driver {
            Driver::Nothing => {}
            Driver::Every => {
                for t in from..self.tree_starts.len() as u32 - 1 {
                    if visit(t, &mut st).is_break() {
                        return;
                    }
                }
            }
            Driver::Alias(a) => {
                let Source::Posting { list, .. } = self.nodes[a].source else {
                    unreachable!("the driver reads a posting list");
                };
                let rows = self.lists[list];
                let mut i = rows.partition_point(|r| tids[r.index()] < from);
                while let Some(&first) = rows.get(i) {
                    let t = tids[first.index()];
                    let start = i;
                    i += gallop(&rows[i..], |r| tids[r.index()] <= t);
                    st.windows[list] = (Some(t), start, i);
                    if visit(t, &mut st).is_break() {
                        return;
                    }
                }
            }
        }
    }

    /// The rows of list `l` in tree `t`, found by galloping the list's
    /// finger forward from the last tree's window.
    fn window(&self, l: usize, t: u32, st: &mut State) -> &'e [RowId] {
        let list = self.lists[l];
        let (at, mut start, mut end) = st.windows[l];
        if at != Some(t) {
            let tids = self.table.column(self.cols.col(NCol::Tid));
            start += gallop(&list[start..], |r| tids[r.index()] < t);
            end = start + gallop(&list[start..], |r| tids[r.index()] <= t);
            st.windows[l] = (Some(t), start, end);
        }
        &list[start..end]
    }

    /// Where `rows` (in `left` order) have `lo <= left <= hi`.
    fn left_range(&self, rows: &[RowId], lo: i64, hi: i64) -> Range<usize> {
        let left = |r: &RowId| i64::from(self.value(*r, NCol::Left));
        let start = rows.partition_point(|r| left(r) < lo);
        start..start + rows[start..].partition_point(|r| left(r) <= hi)
    }

    /// The posting list a [`Source::SameNode`] alias's lender reads.
    fn list_of(&self, from: usize) -> usize {
        let Source::Posting { list, .. } = self.nodes[from].source else {
            unreachable!("same-node sources read a posting list");
        };
        list
    }

    fn value(&self, r: RowId, col: NCol) -> Value {
        self.table.value(r, self.cols.col(col))
    }

    /// Alias `a`'s candidates in tree `t`: its source's rows there that
    /// pass its own filters and its links to bound rows. (What
    /// [`Program::read`] gives, spelled out for aliases no bound row
    /// filters: the path most aliases take, once per tree.)
    fn candidates(&self, a: usize, t: u32, out: &mut Vec<RowId>, st: &mut State) {
        let tree = self.tree_starts[t as usize] as usize..self.tree_starts[t as usize + 1] as usize;
        let keep = |&r: &RowId| self.passes(a, r);
        match self.nodes[a].source {
            _ if !self.nodes[a].binds.is_empty() => self.read(a, t, true, out, st),
            Source::Empty => {}
            Source::Posting { list, .. } => {
                out.extend(self.window(list, t, st).iter().filter(|r| keep(r)));
            }
            Source::Elements => out.extend(self.elements[tree].iter().filter(|r| keep(r))),
            Source::Root => out.extend(self.elements[tree].first().filter(|r| keep(r))),
            Source::SameNode { from } => {
                let ids = self.table.column(self.cols.col(NCol::Id));
                let nodes = self
                    .window(self.list_of(from), t, st)
                    .iter()
                    .filter(|&&s| self.passes(from, s));
                let rows = nodes.map(|s| self.elements[tree.start + ids[s.index()] as usize - 2]);
                out.extend(rows.filter(keep));
            }
        }
    }

    /// Alias `a`'s candidates in tree `t`: its source's rows there that
    /// pass its own filters and — when `bound` — its links to bound
    /// rows, which first cut the rows to the span each bound row allows
    /// (every source lists a tree's rows in `left` order).
    fn read(&self, a: usize, t: u32, bound: bool, out: &mut Vec<RowId>, st: &mut State) {
        let tree = self.tree_starts[t as usize] as usize..self.tree_starts[t as usize + 1] as usize;
        let node = &self.nodes[a];
        // For a same-node source, the lender's rows: they name the
        // candidates' nodes.
        let (mut rows, named_by) = match node.source {
            Source::Empty => (&self.elements[..0], None),
            Source::Posting { list, .. } => (self.window(list, t, st), None),
            Source::Elements => (&self.elements[tree.clone()], None),
            Source::Root => (
                &self.elements[tree.start..tree.end.min(tree.start + 1)],
                None,
            ),
            Source::SameNode { from } => (self.window(self.list_of(from), t, st), Some(from)),
        };
        let binds = if bound { &node.binds[..] } else { &[] };
        for b in binds {
            let (lo, hi) = b.search.range(self.table, st.bound[b.alias]);
            rows = &rows[self.left_range(rows, lo, hi)];
        }
        let keep = |&r: &RowId| {
            self.passes(a, r)
                && (binds.iter()).all(|b| b.search.holds(self.table, st.bound[b.alias], r))
        };
        match named_by {
            None => out.extend(rows.iter().filter(|r| keep(r))),
            Some(from) => {
                let nodes = rows.iter().filter(|&&s| self.passes(from, s));
                let rows = nodes
                    .map(|&s| self.elements[tree.start + self.value(s, NCol::Id) as usize - 2]);
                out.extend(rows.filter(keep));
            }
        }
    }

    fn passes(&self, a: usize, r: RowId) -> bool {
        let v = |c: ColId| self.table.value(r, c);
        self.nodes[a].filters.iter().all(|f| match f {
            Filter::Const(c, cmp, k) => cmp.eval(v(*c), *k),
            Filter::Cols(c, cmp, d) => cmp.eval(v(*c), v(*d)),
            Filter::In(c, set) => set.binary_search(&v(*c)).is_ok(),
        })
    }

    /// Alias `a`'s rows in tree `t` that have a match of its subtree,
    /// into the empty `rows`: [`Program::eval_bound`] at a level root
    /// with a bound alias, else [`Program::reduce`].
    fn eval(
        &self,
        a: usize,
        t: u32,
        rows: &mut Vec<RowId>,
        st: &mut State,
        cut: Option<(&[RowId], &Search)>,
    ) {
        match &self.nodes[a].scope {
            Some(scope) => self.eval_bound(scope, a, t, rows, st, cut),
            None => self.reduce(a, t, rows, st, cut),
        }
    }

    /// [`Program::eval`] at a level root with a bound alias: the
    /// level is reduced once per bound row. A root that is itself bound
    /// keeps the rows whose witnesses hold; any other root gathers its
    /// survivors under every bound row whose witnesses hold.
    #[inline(never)]
    fn eval_bound(
        &self,
        scope: &Scope,
        a: usize,
        t: u32,
        rows: &mut Vec<RowId>,
        st: &mut State,
        cut: Option<(&[RowId], &Search)>,
    ) {
        if scope.alias == a {
            self.reduce(a, t, rows, st, cut);
            self.prefilter(scope, rows, t, st);
            rows.retain(|&r| self.witnessed(scope, r, t, st));
            return;
        }
        let mut bound = st.take();
        self.eval(scope.alias, t, &mut bound, st, None);
        self.prefilter(scope, &mut bound, t, st);
        for &r in &bound {
            if self.witnessed(scope, r, t, st) {
                let mut kid = st.take();
                self.reduce(a, t, &mut kid, st, cut);
                rows.extend_from_slice(&kid);
                st.give(kid);
            }
        }
        st.give(bound);
        rows.sort_unstable();
        rows.dedup();
    }

    /// Keep the rows of `scope`'s alias with a partner among the
    /// unbound candidates of each alias it prefilters by.
    fn prefilter(&self, scope: &Scope, rows: &mut Vec<RowId>, t: u32, st: &mut State) {
        for &x in &scope.prefilter {
            if rows.is_empty() {
                return;
            }
            let mut ys = st.take();
            self.read(x, t, false, &mut ys, st);
            let binds = &self.nodes[x].binds;
            let bind = binds.iter().find(|b| b.alias == scope.alias);
            self.filter(rows, &ys, &bind.expect("prefilters bind").search, true, st);
            st.give(ys);
        }
    }

    /// Bind `scope`'s alias to `r`: does every witness keep a row?
    fn witnessed(&self, scope: &Scope, r: RowId, t: u32, st: &mut State) -> bool {
        st.bound[scope.alias] = r;
        scope.witnesses.iter().all(|&w| {
            let mut kid = st.take();
            self.eval(w, t, &mut kid, st, None);
            let found = !kid.is_empty();
            st.give(kid);
            found
        })
    }

    /// Alias `a`'s rows in tree `t` that have a match of its alias
    /// subtree (the level below it, for a level root with a bound
    /// alias), one filter per edge. A child no dearer than `a` is
    /// evaluated first and whole: when it has no rows, `a`'s candidates
    /// are never read. The others are evaluated after `a`'s candidates,
    /// each cut first to the rows with a partner among `a`'s (`cut`,
    /// which `a`'s parent passes down the same way).
    #[inline]
    fn reduce(
        &self,
        a: usize,
        t: u32,
        rows: &mut Vec<RowId>,
        st: &mut State,
        cut: Option<(&[RowId], &Search)>,
    ) {
        let edges = &self.nodes[a].children;
        let split = edges.partition_point(|e| e.early);
        let base = st.early.len();
        for e in &edges[..split] {
            let mut kid = st.take();
            self.eval(e.child, t, &mut kid, st, None);
            let none = kid.is_empty();
            st.early.push(kid);
            if none {
                while st.early.len() > base {
                    let kid = st.early.pop().expect("pushed above");
                    st.give(kid);
                }
                return;
            }
        }
        self.candidates(a, t, rows, st);
        for e in edges[..split].iter().rev() {
            let kid = st.early.pop().expect("pushed above");
            if !rows.is_empty() {
                self.filter(rows, &kid, &e.up, true, st);
            }
            st.give(kid);
        }
        if let Some((parents, down)) = cut.filter(|_| split < edges.len()) {
            if !rows.is_empty() {
                self.filter(rows, parents, down, true, st);
            }
        }
        for e in &edges[split..] {
            if rows.is_empty() {
                return;
            }
            let mut kid = st.take();
            self.eval(e.child, t, &mut kid, st, Some((rows, &e.down)));
            if kid.is_empty() {
                if !e.anti {
                    rows.clear();
                }
            } else {
                self.filter(rows, &kid, &e.up, !e.anti, st);
            }
            st.give(kid);
        }
    }

    /// Keep the `xs` that have (`keep_found`) or lack a witness among
    /// `ys` under `s`.
    fn filter(
        &self,
        xs: &mut Vec<RowId>,
        ys: &[RowId],
        s: &Search,
        keep_found: bool,
        st: &mut State,
    ) {
        // (`Search::holds` and `Search::range`, spelled out for the
        // hottest loop.)
        let v = |r: RowId, c: ColId| self.table.value(r, c);
        let holds = |x: RowId, y: RowId| s.links.iter().all(|l| l.cmp.eval(v(x, l.x), v(y, l.y)));
        // A handful of rows is searched faster than sorted.
        let Some(key) = s.key.filter(|_| ys.len() > 4) else {
            xs.retain(|&x| ys.iter().any(|&y| holds(x, y)) == keep_found);
            return;
        };
        let sorted = &mut st.sorted;
        sorted.clear();
        sorted.extend(ys.iter().map(|&y| (v(y, key), y)));
        sorted.sort_unstable();
        xs.retain(|&x| {
            let lo = s.lo.iter().map(|&(c, d)| i64::from(v(x, c)) + i64::from(d));
            let hi = s.hi.iter().map(|&(c, d)| i64::from(v(x, c)) - i64::from(d));
            let (lo, hi) = (lo.max().unwrap_or(0), hi.min().unwrap_or(i64::MAX));
            let at = sorted.partition_point(|&(k, _)| i64::from(k) < lo);
            let found = sorted[at..]
                .iter()
                .take_while(|&&(k, _)| i64::from(k) <= hi)
                .any(|&(_, y)| holds(x, y));
            found == keep_found
        });
    }
}

/// What compilation learns about one alias before choosing its source.
#[derive(Default)]
struct Draft {
    consts: Vec<(ColId, Cmp, Value)>,
    filters: Vec<Filter>,
    /// A condition no row satisfies.
    empty: bool,
    /// `value = NULL`: an element row.
    element: bool,
    /// `depth = 1`.
    root: bool,
    /// The bound aliases whose rows are fixed while its candidates are
    /// read.
    binders: Vec<usize>,
    /// Its links to bound aliases, `self.x cmp b.y`.
    bound: Vec<(usize, Vec<Link>)>,
    /// On a level root: the level's bound alias.
    scope: Option<Scope>,
}

/// One query level, its aliases numbered from `offset`.
struct Level<'q> {
    query: &'q ConjQuery,
    offset: usize,
    /// The enclosing level's index (`None` at the top).
    outer: Option<usize>,
    negated: bool,
}

/// Is level `inner` level `outer` or nested inside it?
fn within(levels: &[Level<'_>], mut inner: usize, outer: usize) -> bool {
    loop {
        if inner == outer {
            return true;
        }
        match levels[inner].outer {
            Some(up) => inner = up,
            None => return false,
        }
    }
}

/// Span the aliases `local` less `cut` by the `pairs` that avoid it:
/// the component of `root` (unless it is cut) from `root`, every other
/// component from its alias with the fewest `rows`. Pushes the
/// forest's edges `(parent, child, links, false)`, links oriented
/// `child.x cmp parent.y`, onto `edges` and returns the roots of the
/// components that lack `root`; `None`, pushing nothing, when a cycle
/// remains.
fn span(
    pairs: &[(usize, usize, Vec<Link>)],
    local: Range<usize>,
    root: usize,
    cut: Option<usize>,
    rows: impl Fn(usize) -> usize,
    edges: &mut Vec<(usize, usize, Vec<Link>, bool)>,
) -> Option<Vec<usize>> {
    let kept = || (pairs.iter()).filter(move |(a, b, _)| cut != Some(*a) && cut != Some(*b));
    let base = edges.len();
    let mut reached = vec![false; local.len()];
    if let Some(c) = cut {
        reached[c - local.start] = true;
    }
    let mut witnesses = Vec::new();
    let mut first = Some(root).filter(|&r| cut != Some(r));
    while let Some(start) = first.take().or_else(|| {
        let open = local.clone().filter(|&a| !reached[a - local.start]);
        open.min_by_key(|&a| (rows(a), a))
    }) {
        if start != root {
            witnesses.push(start);
        }
        reached[start - local.start] = true;
        let mut frontier = vec![start];
        while let Some(u) = frontier.pop() {
            for (a, b, links) in kept() {
                let child = match (*a == u, *b == u) {
                    (true, _) => *b,
                    (_, true) => *a,
                    _ => continue,
                };
                if reached[child - local.start] {
                    continue;
                }
                reached[child - local.start] = true;
                // Child first: `child.x cmp parent.y`.
                let links = links.iter().map(|&l| if *a == u { l.flipped() } else { l });
                edges.push((u, child, links.collect(), false));
                frontier.push(child);
            }
        }
    }
    // A forest of `c` components over `v` aliases has `v - c` edges.
    let components = witnesses.len() + usize::from(cut != Some(root));
    let aliases = local.len() - usize::from(cut.is_some());
    if kept().count() + components != aliases {
        edges.truncate(base);
        return None;
    }
    Some(witnesses)
}

/// List `q` and its subqueries in the SQL rendering's (pre-)order.
/// Returns the next free alias number.
fn flatten<'q>(
    q: &'q ConjQuery,
    outer: Option<usize>,
    negated: bool,
    offset: usize,
    out: &mut Vec<Level<'q>>,
) -> usize {
    let index = out.len();
    out.push(Level {
        query: q,
        offset,
        outer,
        negated,
    });
    let mut next = offset + q.aliases.len();
    for s in &q.subqueries {
        next = flatten(&s.query, Some(index), s.negated, next, out);
    }
    next
}

/// Disjoint sets over alias numbers.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind((0..n).collect())
    }

    fn find(&self, mut a: usize) -> usize {
        while self.0[a] != a {
            a = self.0[a];
        }
        a
    }

    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        self.0[a] = b;
    }

    fn same(&self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

/// The EXPLAIN section: the alias tree, each edge's kind and search
/// column, each alias's source, each bound alias with the links it
/// filters by and its witnesses, and the driver.
impl fmt::Display for Program<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "semijoin program:")?;
        writeln!(
            f,
            "  n{} (output): {}",
            self.root,
            self.source_text(self.root)
        )?;
        self.fmt_below(f, self.root, 2)?;
        match self.driver {
            Driver::Alias(a) => writeln!(f, "  driver: n{a}"),
            Driver::Every => writeln!(f, "  driver: every tree"),
            Driver::Nothing => writeln!(f, "  driver: none (a required alias has no rows)"),
        }
    }
}

impl Program<'_> {
    fn source_text(&self, a: usize) -> String {
        match self.nodes[a].source {
            Source::Posting { list, on } => {
                format!("{} range, {} rows", on.name(), self.lists[list].len())
            }
            Source::SameNode { from } => format!("elements of n{from}'s nodes"),
            Source::Root => "the root element".to_string(),
            Source::Elements => "every element".to_string(),
            Source::Empty => "no rows".to_string(),
        }
    }

    fn col_name(&self, c: ColId) -> &'static str {
        let col = NCol::ALL.iter().find(|&&n| self.cols.col(n) == c);
        col.map_or("?", |n| n.name())
    }

    /// What reduces alias `a`, indented `depth` steps: its bound alias
    /// with what that filters and its witnesses, then its edges.
    fn fmt_below(&self, f: &mut fmt::Formatter<'_>, a: usize, depth: usize) -> fmt::Result {
        let pad = 2 * depth;
        if let Some(scope) = &self.nodes[a].scope {
            let b = scope.alias;
            writeln!(
                f,
                "{:pad$}bound n{b} (per candidate): {}",
                "",
                self.source_text(b)
            )?;
            if b != a {
                self.fmt_below(f, b, depth + 1)?;
            }
            for (x, node) in self.nodes.iter().enumerate() {
                for bind in node.binds.iter().filter(|bind| bind.alias == b) {
                    // Stored from the bound row's side: `b.x cmp x.y`.
                    let links: Vec<String> = (bind.search.links.iter())
                        .map(|l| {
                            let (y, x_col) = (self.col_name(l.y), self.col_name(l.x));
                            format!("n{x}.{y} {} n{b}.{x_col}", l.cmp.flip().sql())
                        })
                        .collect();
                    writeln!(f, "{:pad$}  filters n{x} by {}", "", links.join(", "))?;
                }
            }
            for &w in &scope.witnesses {
                writeln!(f, "{:pad$}witness n{w}: {}", "", self.source_text(w))?;
                self.fmt_below(f, w, depth + 1)?;
            }
        }
        for e in &self.nodes[a].children {
            let search = e.up.key.map_or_else(
                || "scan".to_string(),
                |k| format!("search n{}.{}", e.child, self.col_name(k)),
            );
            writeln!(
                f,
                "{:pad$}{} n{} ({search}): {}",
                "",
                if e.anti { "anti" } else { "semi" },
                e.child,
                self.source_text(e.child),
            )?;
            self.fmt_below(f, e.child, depth + 1)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use lpath_model::ptb::parse_str;

    const TREES: [&str; 3] = [
        "( (S (NP (DT the) (NN man)) (VP (VBD ran))) )",
        "( (S (VP (VBD left))) )",
        "( (S (NP (NN rain)) (VP (VBD fell) (NP (NN snow)))) )",
    ];

    /// Every `(tree, ids)` a run from tree `from` visits.
    fn visits(program: &Program<'_>, from: u32) -> Vec<(u32, Vec<Value>)> {
        let mut out = Vec::new();
        program.for_each_tree(from, |t, ids| {
            out.push((t, ids.to_vec()));
            ControlFlow::Continue(())
        });
        out
    }

    /// A run from any tree visits exactly the trees of a whole run
    /// from that tree on, with the same matches; returns the whole
    /// run's visits.
    fn starts_anywhere(query: &str, driver: fn(&Driver) -> bool) -> Vec<(u32, Vec<Value>)> {
        let engine = Engine::build(&parse_str(&TREES.join("\n")).unwrap());
        let ast = lpath_syntax::parse(query).unwrap();
        let program = engine.semijoin_ast(&ast).unwrap().expect("covered");
        assert!(driver(&program.driver), "{query}: {program}");
        let whole = visits(&program, 0);
        for from in 0..=TREES.len() as u32 + 1 {
            let suffix: Vec<_> = whole.iter().filter(|v| v.0 >= from).cloned().collect();
            assert_eq!(visits(&program, from), suffix, "{query} from {from}");
        }
        whole
    }

    #[test]
    fn a_posting_driven_run_starts_at_any_tree() {
        let whole = starts_anywhere("//NP", |d| matches!(d, Driver::Alias(_)));
        let trees: Vec<u32> = whole.iter().map(|v| v.0).collect();
        assert_eq!(trees, [0, 2]);
        assert_eq!(whole[1].1.len(), 2);
    }

    #[test]
    fn an_every_tree_run_starts_at_any_tree() {
        let whole = starts_anywhere("//_[not(//NP)]", |d| matches!(d, Driver::Every));
        assert_eq!(whole.len(), TREES.len());
    }

    #[test]
    fn a_run_with_nothing_to_drive_visits_nothing() {
        let whole = starts_anywhere("//ZZZ", |d| matches!(d, Driver::Nothing));
        assert!(whole.is_empty());
    }

    /// `TREES` and one more: a `VP` over a `VP`, neither with a `VBD`.
    const MORE: &str = "( (S (VP (VB go) (VP (VB stop) (NP (NN rain))))) )";

    /// The program for `query` over `TREES` plus `MORE`, checked against
    /// the walker on every tree.
    fn bound_program<'e>(engine: &'e Engine, query: &str) -> Program<'e> {
        let ast = lpath_syntax::parse(query).unwrap();
        let program = engine.semijoin_ast(&ast).unwrap().expect("covered");
        let corpus = parse_str(&[&TREES[..], &[MORE]].concat().join("\n")).unwrap();
        let walker = crate::Walker::new(&corpus).eval(&ast);
        assert_eq!(program.query(), walker, "{query}: {program}");
        program
    }

    fn with_more() -> Engine {
        Engine::build(&parse_str(&[&TREES[..], &[MORE]].concat().join("\n")).unwrap())
    }

    #[test]
    fn a_scope_binds_its_scope_alias() {
        let engine = with_more();
        // Every inner step links to the scope's `VP`, and `VP` has the
        // most rows: it is bound all the same.
        let program = bound_program(&engine, "//VP{/VBD-->NN}");
        let scope = program.nodes[program.root].scope.as_ref().expect("a scope");
        assert_eq!(scope.alias, 0, "{program}");
        assert!(scope.witnesses.is_empty());
        // `/` ties the `VBD` to its `VP` by an equality: only `VP`s
        // with a `VBD` child are bound.
        assert_eq!(scope.prefilter, [1], "{program}");
        let text = program.to_string();
        assert!(text.contains("bound n0 (per candidate)"), "{text}");
        assert!(text.contains("filters n1 by n1.pid = n0.id"), "{text}");
    }

    #[test]
    fn a_bound_output_keeps_the_rows_its_witnesses_hold_for() {
        let engine = with_more();
        // Trees 0 and 2 have an `NP` right before a `VP` inside their
        // `S`; the witness tree hangs off the bound `S` alone.
        let program = bound_program(&engine, "//S[{//NP->VP}]");
        let scope = program.nodes[0].scope.as_ref().expect("a scope");
        assert_eq!((scope.alias, scope.witnesses.len()), (0, 1), "{program}");
        let trees: Vec<u32> = visits(&program, 0).iter().map(|v| v.0).collect();
        assert_eq!(trees, [0, 2]);
        // Containment alone cuts no bound row up front; `^` ties the
        // `NP` to the `S` by an equality, so it does.
        assert!(scope.prefilter.is_empty(), "{program}");
        let program = bound_program(&engine, "//S[{//^NP->VP}]");
        let scope = program.nodes[0].scope.as_ref().expect("a scope");
        assert_eq!(
            (scope.alias, &scope.prefilter[..]),
            (0, &[1][..]),
            "{program}"
        );
    }

    #[test]
    fn survivors_under_every_bound_row_are_gathered_once() {
        let engine = with_more();
        // `rain` (id 8) in the last tree follows a `VB` inside both
        // `VP`s: the union keeps it once.
        let program = bound_program(&engine, "//VP{//VB-->NN}");
        assert_eq!(program.nodes[2].scope.as_ref().map(|s| s.alias), Some(0));
        assert_eq!(visits(&program, 3), [(3, vec![8])], "{program}");
    }

    #[test]
    fn a_subquery_on_a_scope_and_a_step_binds_one_of_them() {
        let engine = with_more();
        // `not(//DT)` inside the scope names both `NP` and the scope's
        // `VP`: one is bound, the other is the subquery's parent.
        let program = bound_program(&engine, "//VP{//NP[not(//DT)]}");
        assert!(program.nodes.iter().any(|n| n.scope.is_some()), "{program}");
        // Two such subqueries naming no alias in common need two.
        let ast = lpath_syntax::parse("//S{//NP[not(//DT)]/NN[{//JJ[not(//DT)]}]}").unwrap();
        assert!(engine.semijoin_ast(&ast).unwrap().is_none());
    }

    #[test]
    fn a_bound_run_starts_at_any_tree() {
        let whole = starts_anywhere("//VP{/VBD-->NN}", |d| matches!(d, Driver::Alias(_)));
        let trees: Vec<u32> = whole.iter().map(|v| v.0).collect();
        assert_eq!(trees, [2]);
    }
}
