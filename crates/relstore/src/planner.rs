//! The conjunctive planner: logical [`ConjQuery`] → physical
//! [`Plan`].
//!
//! Strategy (mirroring what the paper's commercial RDBMS does with the
//! schema of §5):
//!
//! 1. **Equality closure** — column equalities (`n2.tid = n1.tid`,
//!    `n1.tid = n0.tid`) are closed under transitivity, so a join step
//!    can always key its index probe off *any* bound alias of the
//!    equivalence class, not just its syntactic neighbour. Without
//!    this, reordering the tid-chained aliases of an LPath query would
//!    degrade probes into scans.
//! 2. **Join order** — greedy smallest-estimated-cardinality first
//!    (ties to the output alias), then extended along aliases directly
//!    conditioned on the already-bound set before those linked to it
//!    only through an equality class. Estimates come from the
//!    catalog's frequency statistics on equality-with-constant
//!    conditions (`name = 'NP'`, `value = 'saw'`); correlated
//!    equalities get a strong fixed discount. A syntactic (query
//!    order) mode exists for the join-order ablation benchmark.
//! 3. **Access path** — per step, every index is scored by the
//!    estimated rows its best probe would return (equality prefix from
//!    available conditions, then a range on the next key column);
//!    the cheapest wins. Conditions consumed by the access path are
//!    removed from the residual.
//! 4. **Subqueries** — planned recursively; each becomes a
//!    [`SubCheck`] scheduled at the earliest pipeline position where
//!    all of its outer correlations are bound.

use crate::catalog::Database;
use crate::expr::{ColRef, Cond, Operand};
use crate::plan::{AccessPath, JoinStep, Plan, SubCheck};
use crate::sql::ConjQuery;
use crate::value::Cmp;

/// Join-order policy.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum JoinOrder {
    /// Greedy by estimated cardinality (the default).
    #[default]
    GreedyStats,
    /// Bind aliases in query (syntactic) order — the ablation baseline.
    Syntactic,
}

/// Planner configuration.
#[derive(Copy, Clone, Debug, Default)]
pub struct PlannerConfig {
    /// Join-order policy.
    pub order: JoinOrder,
}

/// Union-find over `(alias, column)` pairs, built from `Eq`
/// column-column conditions.
struct EqClasses {
    members: Vec<ColRef>,
    parent: Vec<usize>,
}

impl EqClasses {
    fn build(q: &ConjQuery) -> Self {
        let mut members: Vec<ColRef> = Vec::new();
        let index = |members: &mut Vec<ColRef>, r: ColRef| -> usize {
            match members.iter().position(|&m| m == r) {
                Some(i) => i,
                None => {
                    members.push(r);
                    members.len() - 1
                }
            }
        };
        let mut pairs = Vec::new();
        for c in &q.conds {
            if c.cmp != Cmp::Eq {
                continue;
            }
            if let Operand::Col(r) = c.right {
                let a = index(&mut members, c.left);
                let b = index(&mut members, r);
                pairs.push((a, b));
            }
        }
        let mut parent: Vec<usize> = (0..members.len()).collect();
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut root = x;
            while parent[root] != root {
                root = parent[root];
            }
            let mut cur = x;
            while parent[cur] != root {
                let next = parent[cur];
                parent[cur] = root;
                cur = next;
            }
            root
        }
        for (a, b) in pairs {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        }
        // Flatten.
        for i in 0..parent.len() {
            let r = find(&mut parent, i);
            parent[i] = r;
        }
        EqClasses { members, parent }
    }

    fn class_of(&self, r: ColRef) -> Option<usize> {
        self.members
            .iter()
            .position(|&m| m == r)
            .map(|i| self.parent[i])
    }

    /// Members equal to `r` (excluding `r` itself).
    fn peers(&self, r: ColRef) -> impl Iterator<Item = ColRef> + '_ {
        let class = self.class_of(r);
        self.members
            .iter()
            .enumerate()
            .filter(move |&(i, &m)| Some(self.parent[i]) == class && m != r)
            .map(|(_, &m)| m)
    }

    /// Are two aliases linked through any column equality?
    fn aliases_linked(&self, a: usize, b: usize) -> bool {
        self.members.iter().enumerate().any(|(i, m)| {
            m.alias == a
                && self
                    .members
                    .iter()
                    .enumerate()
                    .any(|(j, n)| n.alias == b && self.parent[i] == self.parent[j])
        })
    }
}

/// Compile `q` against `db`.
pub fn plan(db: &Database, q: &ConjQuery, cfg: &PlannerConfig) -> Plan {
    let classes = EqClasses::build(q);
    let est: Vec<usize> = (0..q.aliases.len()).map(|a| estimate(db, q, a)).collect();
    let order = match cfg.order {
        JoinOrder::Syntactic => (0..q.aliases.len()).collect::<Vec<_>>(),
        JoinOrder::GreedyStats => greedy_order(q, &classes, &est),
    };
    let (estimated_total, estimated_result) = plan_estimates(q, &classes, &est, &order);

    let mut bound: Vec<bool> = vec![false; q.aliases.len()];
    let mut consumed: Vec<bool> = vec![false; q.conds.len()];
    let mut steps = Vec::with_capacity(order.len());
    for &alias in &order {
        let step = build_step(db, q, alias, &bound, &mut consumed, &classes);
        bound[alias] = true;
        steps.push(step);
    }

    // Any condition not consumed by an access path and not oriented into
    // a residual would be silently dropped — assert none remain.
    debug_assert!(
        consumed.iter().all(|&c| c),
        "planner left conditions unconsumed"
    );

    // Position of each alias in the pipeline, for subquery scheduling.
    let mut position = vec![0usize; q.aliases.len()];
    for (i, &a) in order.iter().enumerate() {
        position[a] = i;
    }

    // Set-membership conditions filter at the step binding their alias.
    for ic in &q.in_conds {
        steps[position[ic.col.alias]].sets.push(ic.clone());
    }
    let checks = q
        .subqueries
        .iter()
        .map(|sub| {
            let after_step = outer_refs(&sub.query)
                .into_iter()
                .map(|a| position[a])
                .max()
                .unwrap_or(usize::MAX); // uncorrelated: check up front
            SubCheck {
                after_step,
                negated: sub.negated,
                plan: plan(db, &sub.query, cfg),
            }
        })
        .collect();

    Plan {
        alias_tables: q.aliases.clone(),
        steps,
        checks,
        projection: q.projection.clone(),
        distinct: q.distinct,
        dedup_free: q.dedup_free,
        estimated_total,
        estimated_result,
        const_empty: false,
    }
}

/// Aliases of the *outer* query referenced by `q`'s conditions (its own
/// subqueries' `Outer` operands resolve against `q`, so they do not
/// escape).
fn outer_refs(q: &ConjQuery) -> Vec<usize> {
    let mut v: Vec<usize> = q
        .conds
        .iter()
        .filter_map(|c| match c.right {
            Operand::Outer(r) => Some(r.alias),
            _ => None,
        })
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Estimated number of rows alias `a` contributes before joins:
/// the tightest equality-with-constant estimate available.
fn estimate(db: &Database, q: &ConjQuery, a: usize) -> usize {
    let table = q.aliases[a];
    let rows = db.table(table).num_rows();
    let mut best = rows;
    for c in &q.conds {
        if c.left.alias != a || c.cmp != Cmp::Eq {
            continue;
        }
        match c.right {
            Operand::Const(v) => {
                if let Some(stats) = db.stats(table) {
                    best = best.min(stats.est_eq(c.left.col, v));
                }
            }
            // A correlated equality binds this alias to one value of
            // the outer row at execution time — typically a point or
            // near-point probe. Without correlation statistics, apply a
            // strong fixed discount so correlated aliases (in
            // particular id-mirrors) are bound early.
            Operand::Outer(_) => best /= 1_000,
            Operand::Col(_) => {}
        }
    }
    // IN-set conditions: the alias contributes at most the sum of the
    // per-value estimates.
    for ic in &q.in_conds {
        if ic.col.alias != a {
            continue;
        }
        if let Some(stats) = db.stats(table) {
            let sum: usize = ic
                .values()
                .iter()
                .map(|&v| stats.est_eq(ic.col.col, v))
                .sum();
            best = best.min(sum);
        }
    }
    best
}

/// How alias `a` relates to the already-bound set: `0` — joined by a
/// *direct* condition; `1` — only transitively, through an equality
/// class (typically the tid chain); `2` — not at all.
fn connectivity(q: &ConjQuery, classes: &EqClasses, bound: &[bool], a: usize) -> usize {
    let direct = q.conds.iter().any(|c| {
        let mentions_a = c.left.alias == a || matches!(c.right, Operand::Col(r) if r.alias == a);
        let mentions_bound = (c.left.alias != a && bound[c.left.alias])
            || matches!(c.right, Operand::Col(r) if r.alias != a && bound[r.alias]);
        mentions_a && mentions_bound
    });
    if direct {
        0
    } else if (0..bound.len()).any(|b| b != a && bound[b] && classes.aliases_linked(a, b)) {
        1
    } else {
        2
    }
}

/// Greedy connected ordering by cardinality estimate. The anchor (the
/// first bound alias) is the smallest estimate, ties going to the
/// output alias — its index scan emits in document order — and then to
/// the alias id. Every later alias is the smallest estimate among
/// those *directly* conditioned on the bound set, then among
/// closure-only ones, then among the rest: an anchor in the middle of
/// a structural chain is extended along the chain, not jumped across —
/// a closure-only join degenerates to a same-tree cross product.
fn greedy_order(q: &ConjQuery, classes: &EqClasses, est: &[usize]) -> Vec<usize> {
    let n = q.aliases.len();
    let out = q.projection.first().map(|c| c.alias);
    let mut order = Vec::with_capacity(n);
    let mut bound = vec![false; n];
    while order.len() < n {
        let pick = (0..n)
            .filter(|&a| !bound[a])
            .min_by_key(|&a| {
                if order.is_empty() {
                    (0, est[a], usize::from(Some(a) != out), a)
                } else {
                    (connectivity(q, classes, &bound, a), est[a], 0, a)
                }
            })
            .expect("an unbound alias remains");
        bound[pick] = true;
        order.push(pick);
    }
    order
}

/// The plan-level cost estimates surfaced on [`Plan`]:
/// `(total, result)`.
///
/// * `total` — a crude left-deep enumeration estimate: the anchor
///   contributes its full input, each later alias multiplies the
///   intermediate size by its fan-out (1 when it joins the bound set
///   through an equality — near-point probes — else its own input);
/// * `result` — the smallest alias estimate, the "joins only filter"
///   proxy for the output cardinality. An alias estimate never exceeds
///   the exact frequency of any of its `col = const` conditions, so
///   neither does `result`.
fn plan_estimates(
    q: &ConjQuery,
    classes: &EqClasses,
    est: &[usize],
    order: &[usize],
) -> (usize, usize) {
    if order.is_empty() {
        // A stepless plan emits exactly one (empty) tuple.
        return (1, 1);
    }
    let mut bound = vec![false; q.aliases.len()];
    let mut inter = 1usize;
    let mut total = 0usize;
    for (i, &a) in order.iter().enumerate() {
        let fan = if i == 0 || connectivity(q, classes, &bound, a) == 2 {
            est[a]
        } else {
            1
        };
        inter = inter.saturating_mul(fan.max(1));
        total = total.saturating_add(inter);
        bound[a] = true;
    }
    let result = est.iter().copied().min().unwrap_or(1);
    (total, result)
}

/// An available condition for a step: either an original query
/// condition (with its index, for `consumed` bookkeeping) or one
/// synthesized from the equality closure.
struct Avail {
    /// `Some(i)` for `q.conds[i]`, `None` for synthesized.
    source: Option<usize>,
    cond: Cond,
}

/// Build the join step binding `alias`, choosing the cheapest access
/// path among the table's indexes.
fn build_step(
    db: &Database,
    q: &ConjQuery,
    alias: usize,
    bound: &[bool],
    consumed: &mut [bool],
    classes: &EqClasses,
) -> JoinStep {
    let table = q.aliases[alias];
    let rows = db.table(table).num_rows();

    // Conditions usable now: oriented toward `alias`, with the other
    // side a constant, an outer reference, or an already-bound alias.
    let mut avail: Vec<Avail> = Vec::new();
    for (i, c) in q.conds.iter().enumerate() {
        if consumed[i] {
            continue;
        }
        if let Some(o) = c.oriented_toward(alias) {
            let ready = match o.right {
                Operand::Const(_) | Operand::Outer(_) => true,
                Operand::Col(r) => r.alias == alias || bound[r.alias],
            };
            if ready {
                avail.push(Avail {
                    source: Some(i),
                    cond: o,
                });
            }
        }
    }
    // Synthesize equalities through the closure: for each column of
    // this alias that belongs to a class with a bound member, an
    // equality against that member is implied.
    let schema_len = db.table(table).schema().len();
    for col_idx in 0..schema_len {
        let here = ColRef::new(alias, crate::schema::ColId(col_idx as u16));
        let already = avail.iter().any(|a| {
            a.cond.left == here
                && a.cond.cmp == Cmp::Eq
                && !matches!(a.cond.right, Operand::Col(r) if r.alias == alias)
        });
        if already {
            continue;
        }
        if let Some(peer) = classes
            .peers(here)
            .find(|p| p.alias != alias && bound[p.alias])
        {
            avail.push(Avail {
                source: None,
                cond: Cond::between(here, Cmp::Eq, peer),
            });
        }
    }

    let eq_usable = |a: &Avail, col: crate::schema::ColId| {
        a.cond.left.col == col
            && a.cond.cmp == Cmp::Eq
            && !matches!(a.cond.right, Operand::Col(r) if r.alias == alias)
    };
    let range_usable = |a: &Avail, col: crate::schema::ColId| {
        a.cond.left.col == col
            && matches!(a.cond.cmp, Cmp::Lt | Cmp::Le | Cmp::Gt | Cmp::Ge | Cmp::Eq)
            && !matches!(a.cond.right, Operand::Col(r) if r.alias == alias)
    };

    // Score every index by the estimated rows of its best probe.
    let mut best: Option<(crate::catalog::IndexId, usize, bool, usize)> = None;
    for idx_id in db.indexes_on(table) {
        let key = db.index(idx_id).key();
        let mut eq_len = 0;
        let mut est = rows;
        for &kc in key {
            let Some(a) = avail.iter().find(|a| eq_usable(a, kc)) else {
                break;
            };
            eq_len += 1;
            est = match a.cond.right {
                Operand::Const(v) => db
                    .stats(table)
                    .map_or(est / 10, |s| est.min(s.est_eq(kc, v))),
                // Correlated or bound-column probes: assume a strong
                // but not perfect reduction per key column.
                _ => (est / 50).max(1),
            };
        }
        let has_range = eq_len < key.len() && avail.iter().any(|a| range_usable(a, key[eq_len]));
        if has_range {
            est = (est / 4).max(1);
        }
        if eq_len == 0 && !has_range {
            continue;
        }
        let better = match best {
            None => true,
            Some((_, be, br, bcost)) => {
                est < bcost || (est == bcost && (eq_len, has_range) > (be, br))
            }
        };
        if better {
            best = Some((idx_id, eq_len, has_range, est));
        }
    }

    // Positions in `avail` consumed by the access path.
    let mut used: Vec<usize> = Vec::new();
    let access = match best {
        None => AccessPath::FullScan,
        Some((idx_id, eq_len, has_range, _)) => {
            let key = db.index(idx_id).key();
            let mut eq = Vec::with_capacity(eq_len);
            for &kc in &key[..eq_len] {
                let (pos, a) = avail
                    .iter()
                    .enumerate()
                    .find(|(pos, a)| !used.contains(pos) && eq_usable(a, kc))
                    .expect("scored equality exists");
                eq.push(a.cond.right);
                used.push(pos);
            }
            let (mut lo, mut hi) = (None, None);
            if has_range {
                let rc = key[eq_len];
                for (pos, a) in avail.iter().enumerate() {
                    if used.contains(&pos) || !range_usable(a, rc) {
                        continue;
                    }
                    match a.cond.cmp {
                        // Equality on the range column: closed point
                        // interval (only if no bound taken yet — first
                        // wins, rest stay residual).
                        Cmp::Eq if lo.is_none() && hi.is_none() => {
                            lo = Some((true, a.cond.right));
                            hi = Some((true, a.cond.right));
                            used.push(pos);
                        }
                        Cmp::Eq => {}
                        Cmp::Ge if lo.is_none() => {
                            lo = Some((true, a.cond.right));
                            used.push(pos);
                        }
                        Cmp::Gt if lo.is_none() => {
                            lo = Some((false, a.cond.right));
                            used.push(pos);
                        }
                        Cmp::Le if hi.is_none() => {
                            hi = Some((true, a.cond.right));
                            used.push(pos);
                        }
                        Cmp::Lt if hi.is_none() => {
                            hi = Some((false, a.cond.right));
                            used.push(pos);
                        }
                        _ => {}
                    }
                }
            }
            AccessPath::IndexRange {
                index: idx_id,
                eq,
                lo,
                hi,
            }
        }
    };

    // Original conditions not consumed by the access path stay as
    // residual filters; synthesized equalities are implied by the
    // originals, so dropping unused ones is sound.
    let mut residual = Vec::new();
    for (pos, a) in avail.iter().enumerate() {
        if let Some(ci) = a.source {
            if !used.contains(&pos) {
                residual.push(a.cond);
            }
            consumed[ci] = true;
        }
    }

    JoinStep {
        alias,
        table,
        access,
        residual,
        sets: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::TableId;
    use crate::cursor::execute;
    use crate::expr::ColRef;
    use crate::schema::{ColId, Schema};
    use crate::table::Table;

    const GRP: ColId = ColId(0);
    const VAL: ColId = ColId(1);

    fn setup() -> (Database, TableId) {
        let mut t = Table::new(Schema::new(&["grp", "val"]));
        for g in 0..10u32 {
            for v in 0..=g {
                t.push_row(&[g, v]);
            }
        }
        t.cluster_by(&[GRP, VAL]);
        let mut db = Database::new();
        let tid = db.add_table("t", t);
        db.add_index(tid, "by_grp_val", vec![GRP, VAL]);
        db.add_index(tid, "by_val", vec![VAL]);
        db.analyze(tid, &[GRP, VAL]);
        (db, tid)
    }

    fn exec_both(db: &Database, q: &ConjQuery) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
        let p1 = plan(db, q, &PlannerConfig::default());
        let p2 = plan(
            db,
            q,
            &PlannerConfig {
                order: JoinOrder::Syntactic,
            },
        );
        let mut a = execute(&p1, db);
        let mut b = execute(&p2, db);
        a.sort();
        b.sort();
        (a, b)
    }

    #[test]
    fn single_alias_const_filter_uses_index() {
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid);
        q.conds
            .push(Cond::against_const(ColRef::new(a, GRP), Cmp::Eq, 4));
        q.projection.push(ColRef::new(a, VAL));
        let p = plan(&db, &q, &PlannerConfig::default());
        assert!(matches!(p.steps[0].access, AccessPath::IndexRange { .. }));
        assert!(p.steps[0].residual.is_empty());
        let (got, got_syn) = exec_both(&db, &q);
        assert_eq!(got, (0..5).map(|v| vec![v]).collect::<Vec<_>>());
        assert_eq!(got, got_syn);
    }

    #[test]
    fn join_orders_agree_on_results() {
        let (db, tid) = setup();
        // pairs (a, b): a.grp = 9, b.grp = a.val, b.val = 0
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid);
        let b = q.add_alias(tid);
        q.conds
            .push(Cond::against_const(ColRef::new(a, GRP), Cmp::Eq, 9));
        q.conds.push(Cond::between(
            ColRef::new(b, GRP),
            Cmp::Eq,
            ColRef::new(a, VAL),
        ));
        q.conds
            .push(Cond::against_const(ColRef::new(b, VAL), Cmp::Eq, 0));
        q.projection.push(ColRef::new(a, VAL));
        q.projection.push(ColRef::new(b, GRP));
        q.distinct = true;
        let (got, got_syn) = exec_both(&db, &q);
        assert_eq!(got.len(), 10);
        assert_eq!(got, got_syn);
        for row in &got {
            assert_eq!(row[0], row[1]);
        }
    }

    #[test]
    fn greedy_starts_with_most_selective_alias() {
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid); // unselective: no conds
        let b = q.add_alias(tid); // selective: grp = 0 (1 row)
        q.conds
            .push(Cond::against_const(ColRef::new(b, GRP), Cmp::Eq, 0));
        q.conds.push(Cond::between(
            ColRef::new(a, GRP),
            Cmp::Eq,
            ColRef::new(b, VAL),
        ));
        q.projection.push(ColRef::new(a, VAL));
        let p = plan(&db, &q, &PlannerConfig::default());
        assert_eq!(p.steps[0].alias, b);
        let p_syn = plan(
            &db,
            &q,
            &PlannerConfig {
                order: JoinOrder::Syntactic,
            },
        );
        assert_eq!(p_syn.steps[0].alias, a);
    }

    #[test]
    fn range_conditions_become_index_bounds() {
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid);
        q.conds
            .push(Cond::against_const(ColRef::new(a, GRP), Cmp::Eq, 8));
        q.conds
            .push(Cond::against_const(ColRef::new(a, VAL), Cmp::Ge, 3));
        q.conds
            .push(Cond::against_const(ColRef::new(a, VAL), Cmp::Lt, 6));
        q.projection.push(ColRef::new(a, VAL));
        let p = plan(&db, &q, &PlannerConfig::default());
        let AccessPath::IndexRange { lo, hi, .. } = &p.steps[0].access else {
            panic!("expected index access");
        };
        assert!(lo.is_some() && hi.is_some());
        assert!(p.steps[0].residual.is_empty());
        assert_eq!(execute(&p, &db), [[3], [4], [5]]);
    }

    #[test]
    fn correlated_subquery_scheduled_after_binding() {
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid);
        q.conds
            .push(Cond::against_const(ColRef::new(a, VAL), Cmp::Eq, 0));
        q.projection.push(ColRef::new(a, GRP));
        q.distinct = true;
        let mut sub = ConjQuery::default();
        let s = sub.add_alias(tid);
        sub.conds.push(Cond::new(
            ColRef::new(s, GRP),
            Cmp::Eq,
            Operand::Outer(ColRef::new(a, GRP)),
        ));
        sub.conds
            .push(Cond::against_const(ColRef::new(s, VAL), Cmp::Eq, 5));
        q.subqueries.push(crate::sql::SubQuery {
            negated: false,
            query: sub,
        });
        let p = plan(&db, &q, &PlannerConfig::default());
        assert_eq!(p.checks.len(), 1);
        assert_eq!(p.checks[0].after_step, 0);
        let got = execute(&p, &db);
        assert_eq!(got, (5..10).map(|g| vec![g]).collect::<Vec<_>>());
    }

    #[test]
    fn wildcard_alias_falls_back_to_scan() {
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid);
        q.projection.push(ColRef::new(a, GRP));
        q.distinct = true;
        let p = plan(&db, &q, &PlannerConfig::default());
        assert!(matches!(p.steps[0].access, AccessPath::FullScan));
        assert_eq!(execute(&p, &db).len(), 10);
    }

    #[test]
    fn equality_closure_enables_transitive_probes() {
        // Three aliases chained by grp equalities: a—b—c. Binding order
        // (a, c, b) must still give c an index probe on grp via the
        // class {a.grp, b.grp, c.grp}.
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid);
        let b = q.add_alias(tid);
        let c = q.add_alias(tid);
        q.conds
            .push(Cond::against_const(ColRef::new(a, GRP), Cmp::Eq, 7));
        q.conds.push(Cond::between(
            ColRef::new(b, GRP),
            Cmp::Eq,
            ColRef::new(a, GRP),
        ));
        q.conds.push(Cond::between(
            ColRef::new(c, GRP),
            Cmp::Eq,
            ColRef::new(b, GRP),
        ));
        // Make c selective so greedy binds it before b.
        q.conds
            .push(Cond::against_const(ColRef::new(c, VAL), Cmp::Eq, 0));
        q.projection.push(ColRef::new(c, VAL));
        q.distinct = true;
        let p = plan(&db, &q, &PlannerConfig::default());
        // Whatever the order, nobody may fall back to a full scan: the
        // closure supplies a grp probe for every alias after the first.
        let scans = p
            .steps
            .iter()
            .skip(1)
            .filter(|s| matches!(s.access, AccessPath::FullScan))
            .count();
        assert_eq!(scans, 0, "{p}");
        assert_eq!(execute(&p, &db), [[0]]);
    }

    #[test]
    fn in_set_conditions_filter_at_binding_step() {
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid);
        q.conds
            .push(Cond::against_const(ColRef::new(a, GRP), Cmp::Eq, 9));
        q.in_conds
            .push(crate::expr::InCond::new(ColRef::new(a, VAL), vec![2, 5, 7]));
        q.projection.push(ColRef::new(a, VAL));
        let p = plan(&db, &q, &PlannerConfig::default());
        assert_eq!(p.steps[0].sets.len(), 1);
        let (got, got_syn) = exec_both(&db, &q);
        assert_eq!(got, [[2], [5], [7]]);
        assert_eq!(got, got_syn);
    }

    #[test]
    fn empty_in_set_yields_no_rows() {
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid);
        q.in_conds
            .push(crate::expr::InCond::new(ColRef::new(a, VAL), vec![]));
        q.projection.push(ColRef::new(a, VAL));
        let p = plan(&db, &q, &PlannerConfig::default());
        assert!(execute(&p, &db).is_empty());
    }

    #[test]
    fn in_set_tightens_cardinality_estimate() {
        let (db, tid) = setup();
        // Unfiltered: 55 rows. val IN {0} has 10 occurrences; the
        // estimate must drop below the unfiltered count so the greedy
        // order binds this alias first.
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid); // no conditions: est 55
        let b = q.add_alias(tid);
        q.in_conds
            .push(crate::expr::InCond::new(ColRef::new(b, VAL), vec![0]));
        q.conds.push(Cond::between(
            ColRef::new(a, GRP),
            Cmp::Eq,
            ColRef::new(b, GRP),
        ));
        q.projection.push(ColRef::new(b, GRP));
        q.distinct = true;
        let p = plan(&db, &q, &PlannerConfig::default());
        assert_eq!(p.steps[0].alias, b);
    }

    #[test]
    fn anchor_ties_go_to_the_output_alias() {
        // Two aliases with equal estimates (grp = 5: 6 rows each), the
        // output alias second: the tie goes to the output alias, whose
        // scan order is emission order.
        let (db, tid) = setup();
        let mk = |other_grp| {
            let mut q = ConjQuery::default();
            let a = q.add_alias(tid);
            let b = q.add_alias(tid);
            q.conds
                .push(Cond::against_const(ColRef::new(a, GRP), Cmp::Eq, other_grp));
            q.conds
                .push(Cond::against_const(ColRef::new(b, GRP), Cmp::Eq, 5));
            q.conds.push(Cond::between(
                ColRef::new(a, VAL),
                Cmp::Eq,
                ColRef::new(b, VAL),
            ));
            q.projection.push(ColRef::new(b, VAL));
            q
        };
        let tie = plan(&db, &mk(5), &PlannerConfig::default());
        assert_eq!(tie.steps[0].alias, 1, "{tie}");
        // A strictly smaller partner (grp = 4: 5 rows) keeps the anchor:
        // the output alias is a tie-break, not a premium.
        let skewed = plan(&db, &mk(4), &PlannerConfig::default());
        assert_eq!(skewed.steps[0].alias, 0, "{skewed}");
        let (mut x, mut y) = (execute(&tie, &db), exec_both(&db, &mk(5)).1);
        x.sort();
        y.sort();
        assert_eq!(x, y);
    }

    #[test]
    fn anchor_ties_elsewhere_go_to_the_lower_alias_id() {
        // n0 and n1 tie (grp = 5: 6 rows each); the output alias n2
        // (grp = 9: 10 rows) is not in the tie, so the lower id anchors.
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let [a, b, c] = [(); 3].map(|()| q.add_alias(tid));
        for (alias, grp) in [(b, 5), (a, 5), (c, 9)] {
            q.conds
                .push(Cond::against_const(ColRef::new(alias, GRP), Cmp::Eq, grp));
        }
        for alias in [a, b] {
            q.conds.push(Cond::between(
                ColRef::new(alias, VAL),
                Cmp::Eq,
                ColRef::new(c, VAL),
            ));
        }
        q.projection.push(ColRef::new(c, VAL));
        let p = plan(&db, &q, &PlannerConfig::default());
        assert_eq!(p.steps[0].alias, a, "{p}");
        let (got, got_syn) = exec_both(&db, &q);
        assert_eq!(got, (0..6).map(|v| vec![v]).collect::<Vec<_>>());
        assert_eq!(got, got_syn);
    }

    #[test]
    fn greedy_extends_along_direct_conditions_first() {
        // a (grp = 0: 1 row) anchors. b joins a directly (b.grp =
        // a.grp) and has no filter of its own (55 rows); c's one join
        // is with b (c.grp = b.grp), so only the equality closure links
        // it to a. c is the smaller input (val = 0: 10 rows), yet b
        // binds first: c waits until a direct condition reaches it.
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid);
        let b = q.add_alias(tid);
        let c = q.add_alias(tid);
        q.conds
            .push(Cond::against_const(ColRef::new(a, GRP), Cmp::Eq, 0));
        q.conds.push(Cond::between(
            ColRef::new(b, GRP),
            Cmp::Eq,
            ColRef::new(a, GRP),
        ));
        q.conds.push(Cond::between(
            ColRef::new(c, GRP),
            Cmp::Eq,
            ColRef::new(b, GRP),
        ));
        q.conds
            .push(Cond::against_const(ColRef::new(c, VAL), Cmp::Eq, 0));
        q.projection.push(ColRef::new(b, VAL));
        let p = plan(&db, &q, &PlannerConfig::default());
        let order: Vec<usize> = p.steps.iter().map(|s| s.alias).collect();
        assert_eq!(order, [a, b, c], "{p}");
        let (got, got_syn) = exec_both(&db, &q);
        assert_eq!(got, [[0]]);
        assert_eq!(got, got_syn);
    }

    #[test]
    fn plans_surface_cost_estimates() {
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid);
        q.conds
            .push(Cond::against_const(ColRef::new(a, GRP), Cmp::Eq, 4));
        q.projection.push(ColRef::new(a, VAL));
        let p = plan(&db, &q, &PlannerConfig::default());
        // grp = 4 has exactly 5 rows; the estimates must reflect it.
        assert_eq!(p.estimated_result, 5);
        assert_eq!(p.estimated_total, 5);
        assert!(p.to_string().contains("estimates:"), "{p}");
        // Hand-built plans carry no estimates and print none.
        assert_eq!(Plan::default().estimated_total, 0);
    }

    #[test]
    fn selective_index_preferred_on_tie() {
        // grp = 5 (6 rows) vs val = 0 (10 rows): both single-column
        // equality probes; the cheaper one must win.
        let (db, tid) = setup();
        let mut q = ConjQuery::default();
        let a = q.add_alias(tid);
        q.conds
            .push(Cond::against_const(ColRef::new(a, GRP), Cmp::Eq, 5));
        q.conds
            .push(Cond::against_const(ColRef::new(a, VAL), Cmp::Eq, 0));
        q.projection.push(ColRef::new(a, VAL));
        let p = plan(&db, &q, &PlannerConfig::default());
        let AccessPath::IndexRange { index, .. } = &p.steps[0].access else {
            panic!("expected index probe");
        };
        // by_grp_val probes (grp=5, val=0) — a point, estimated below
        // any single-column alternative.
        assert_eq!(db.index_name(*index), "by_grp_val");
        assert_eq!(execute(&p, &db), [[0]]);
    }
}
