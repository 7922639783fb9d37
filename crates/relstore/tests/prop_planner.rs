//! Property tests for the relational substrate: random conjunctive
//! queries against a brute-force nested-loop reference.
//!
//! The planner may choose any join order and access path; whatever it
//! picks must enumerate exactly the tuples the naive cross-product
//! semantics defines. IN-set conditions and correlated (NOT) EXISTS
//! subqueries are included in the generated space.

use lpath_relstore::{
    execute, plan, Cmp, ColId, ColRef, Cond, ConjQuery, Database, InCond, JoinOrder, Operand,
    PlannerConfig, Schema, SubQuery, Table, TableId, Value,
};
use proptest::prelude::*;

const NCOLS: usize = 3;

/// A random small table over a small value domain (collisions are the
/// point: joins must handle duplicates).
fn arb_table() -> impl Strategy<Value = Vec<[Value; NCOLS]>> {
    prop::collection::vec(
        [0u32..6, 0u32..6, 0u32..6].prop_map(|[a, b, c]| [a, b, c]),
        1..24,
    )
}

#[derive(Clone, Debug)]
struct QSpec {
    aliases: usize,
    /// (alias, col, cmp, const) filters.
    filters: Vec<(usize, usize, u8, Value)>,
    /// (alias a, col, alias b, col) equalities.
    joins: Vec<(usize, usize, usize, usize)>,
    /// (alias, col, members) IN conditions.
    ins: Vec<(usize, usize, Vec<Value>)>,
    /// Correlated subquery: Some((outer alias, col, negated)) adds
    /// EXISTS (SELECT 1 FROM t s WHERE s.c0 = outer.col).
    sub: Option<(usize, usize, bool)>,
}

fn arb_spec() -> impl Strategy<Value = QSpec> {
    (1usize..=3).prop_flat_map(|aliases| {
        let filters = prop::collection::vec((0..aliases, 0..NCOLS, 0u8..4, 0u32..6), 0..3);
        let joins = prop::collection::vec((0..aliases, 0..NCOLS, 0..aliases, 0..NCOLS), 0..3);
        let ins = prop::collection::vec(
            (0..aliases, 0..NCOLS, prop::collection::vec(0u32..6, 0..4)),
            0..2,
        );
        let sub = prop::option::of((0..aliases, 0..NCOLS, any::<bool>()));
        (Just(aliases), filters, joins, ins, sub).prop_map(|(aliases, filters, joins, ins, sub)| {
            QSpec {
                aliases,
                filters,
                joins,
                ins,
                sub,
            }
        })
    })
}

fn cmp_of(code: u8) -> Cmp {
    match code {
        0 => Cmp::Eq,
        1 => Cmp::Ne,
        2 => Cmp::Lt,
        _ => Cmp::Ge,
    }
}

fn build_db(rows: &[[Value; NCOLS]]) -> (Database, TableId) {
    let mut t = Table::new(Schema::new(&["c0", "c1", "c2"]));
    for r in rows {
        t.push_row(r);
    }
    t.cluster_by(&[ColId(0), ColId(1), ColId(2)]);
    let mut db = Database::new();
    let tid = db.add_table("t", t);
    db.add_index(tid, "c0c1c2", vec![ColId(0), ColId(1), ColId(2)]);
    db.add_index(tid, "c1", vec![ColId(1)]);
    db.add_index(tid, "c2c0", vec![ColId(2), ColId(0)]);
    db.analyze(tid, &[ColId(0), ColId(1), ColId(2)]);
    (db, tid)
}

fn build_query(spec: &QSpec, tid: TableId) -> ConjQuery {
    let mut q = ConjQuery {
        distinct: true,
        ..Default::default()
    };
    for _ in 0..spec.aliases {
        q.add_alias(tid);
    }
    for &(a, c, op, v) in &spec.filters {
        q.conds.push(Cond::against_const(
            ColRef::new(a, ColId(c as u16)),
            cmp_of(op),
            v,
        ));
    }
    for &(a, ca, b, cb) in &spec.joins {
        if a == b && ca == cb {
            continue; // tautology; skip to keep the reference simple
        }
        q.conds.push(Cond::between(
            ColRef::new(a, ColId(ca as u16)),
            Cmp::Eq,
            ColRef::new(b, ColId(cb as u16)),
        ));
    }
    for (a, c, members) in &spec.ins {
        q.in_conds.push(InCond::new(
            ColRef::new(*a, ColId(*c as u16)),
            members.clone(),
        ));
    }
    if let Some((outer, col, negated)) = spec.sub {
        let mut sub = ConjQuery::default();
        let s = sub.add_alias(tid);
        sub.conds.push(Cond::new(
            ColRef::new(s, ColId(0)),
            Cmp::Eq,
            Operand::Outer(ColRef::new(outer, ColId(col as u16))),
        ));
        q.subqueries.push(SubQuery {
            negated,
            query: sub,
        });
    }
    // Project every column of every alias (makes DISTINCT trivial to
    // mirror in the reference).
    for a in 0..spec.aliases {
        for c in 0..NCOLS {
            q.projection.push(ColRef::new(a, ColId(c as u16)));
        }
    }
    q
}

/// Brute force: enumerate the full cross product and filter.
fn reference(spec: &QSpec, rows: &[[Value; NCOLS]]) -> Vec<Vec<Value>> {
    let n = spec.aliases;
    let mut out: Vec<Vec<Value>> = Vec::new();
    let mut idx = vec![0usize; n];
    'outer: loop {
        let binding: Vec<&[Value; NCOLS]> = idx.iter().map(|&i| &rows[i]).collect();
        let mut ok = true;
        for &(a, c, op, v) in &spec.filters {
            ok &= cmp_of(op).eval(binding[a][c], v);
        }
        for &(a, ca, b, cb) in &spec.joins {
            if a == b && ca == cb {
                continue;
            }
            ok &= binding[a][ca] == binding[b][cb];
        }
        for (a, c, members) in &spec.ins {
            ok &= members.contains(&binding[*a][*c]);
        }
        if ok {
            if let Some((outer, col, negated)) = spec.sub {
                let witness = rows.iter().any(|r| r[0] == binding[outer][col]);
                ok &= witness != negated;
            }
        }
        if ok {
            let tuple: Vec<Value> = binding.iter().flat_map(|r| r.iter().copied()).collect();
            if !out.contains(&tuple) {
                out.push(tuple);
            }
        }
        // Advance the odometer.
        for pos in (0..n).rev() {
            idx[pos] += 1;
            if idx[pos] < rows.len() {
                continue 'outer;
            }
            idx[pos] = 0;
        }
        break;
    }
    out.sort();
    out
}

/// Does a condition of `q` tie alias `a` to a bound alias?
fn direct(q: &ConjQuery, bound: &[bool], a: usize) -> bool {
    q.conds.iter().any(|c| {
        let other = match c.right {
            Operand::Col(r) if c.left.alias == a => r.alias,
            Operand::Col(r) if r.alias == a => c.left.alias,
            _ => return false,
        };
        other != a && bound[other]
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: ProptestConfig::cases_or_env(96), ..ProptestConfig::default() })]

    #[test]
    fn planner_matches_brute_force(rows in arb_table(), spec in arb_spec()) {
        let (db, tid) = build_db(&rows);
        let q = build_query(&spec, tid);
        let want = reference(&spec, &rows);
        for order in [JoinOrder::GreedyStats, JoinOrder::Syntactic] {
            let p = plan(&db, &q, &PlannerConfig { order });
            let mut got = execute(&p, &db);
            got.sort();
            prop_assert_eq!(&got, &want, "order {:?} on {:?}", order, spec);
        }
    }

    #[test]
    fn result_estimate_never_exceeds_an_equality_frequency(
        rows in arb_table(),
        spec in arb_spec(),
    ) {
        // The planner's result estimate is the smallest alias input, so
        // every `col = const` condition's exact frequency bounds it — the
        // cap an engine would otherwise apply from its own tag counts.
        let (db, tid) = build_db(&rows);
        let q = build_query(&spec, tid);
        let stats = db.stats(tid).expect("analyzed");
        let p = plan(&db, &q, &PlannerConfig::default());
        for c in q.conds.iter().filter(|c| c.cmp == Cmp::Eq) {
            let Operand::Const(v) = c.right else { continue };
            let cap = stats.est_eq(c.left.col, v);
            prop_assert!(
                p.estimated_result <= cap,
                "estimate {} above {:?}'s frequency {} on {:?}",
                p.estimated_result, c, cap, spec
            );
        }
    }

    #[test]
    fn greedy_plans_extend_along_direct_conditions_first(
        rows in arb_table(),
        spec in arb_spec(),
    ) {
        // After the anchor, no step binds an alias that no condition
        // ties to the bound set while an alias that one does still
        // waits: a closure-only join is a same-tree cross product in
        // the LPath translation.
        let (db, tid) = build_db(&rows);
        let q = build_query(&spec, tid);
        let p = plan(&db, &q, &PlannerConfig::default());
        let mut bound = vec![false; q.aliases.len()];
        for (i, step) in p.steps.iter().enumerate() {
            if i > 0 && !direct(&q, &bound, step.alias) {
                let waiting = (0..bound.len()).find(|&a| !bound[a] && direct(&q, &bound, a));
                prop_assert!(
                    waiting.is_none(),
                    "step {} binds n{} while n{:?} is directly conditioned:\n{}",
                    i, step.alias, waiting, p
                );
            }
            bound[step.alias] = true;
        }
    }

    #[test]
    fn distinct_projection_never_duplicates(rows in arb_table(), spec in arb_spec()) {
        let (db, tid) = build_db(&rows);
        let q = build_query(&spec, tid);
        let p = plan(&db, &q, &PlannerConfig::default());
        let got = execute(&p, &db);
        let mut dedup = got.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(got.len(), dedup.len(), "duplicates in DISTINCT output");
    }
}
