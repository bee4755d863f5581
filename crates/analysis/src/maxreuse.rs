//! The max-reuse problem (paper Sec. VI-A/B).
//!
//! Given the reuse opportunities of a DAG, select which to realize so that
//! the total reuse profit `ρ_tot(π) = Σ_{(s,t)∈Q_π} ρ(s)` is maximized
//! while every node protects at most `k − 1` symbols.
//!
//! The exact encoding introduces a selection variable `x_{s,t}` per reuse
//! and an indicator `y_{s,v}` per (symbol, node) pair appearing in a
//! connection, with `x_{s,t} ≤ y_{s,v}` for every node `v` of the
//! connection and `Σ_s y_{s,v} ≤ k − 1` per node — a direct linearization
//! of the paper's Boolean formulation, solved by `safegen-ilp` (the
//! paper uses Gurobi). Large instances fall back to a profit-greedy pass.

use crate::reuse::Reuse;
use safegen_ir::NodeId;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// How to solve the max-reuse instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// Exact ILP when the instance is small enough, greedy otherwise.
    #[default]
    Auto,
    /// Always the exact ILP (may be slow on big DAGs).
    Ilp,
    /// Always the greedy heuristic.
    Greedy,
}

/// The result of the analysis: the priority assignment `π`.
#[derive(Clone, Debug, Default)]
pub struct PriorityAssignment {
    /// `π(s)`: for each symbol-source node, the nodes that protect it.
    pub pi: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// The realized reuses `Q_π`.
    pub realized: Vec<Reuse>,
    /// Total reuse profit `ρ_tot(π)`.
    pub total_profit: usize,
    /// True if produced by the exact ILP (provably optimal).
    pub exact: bool,
}

impl PriorityAssignment {
    /// The symbols node `v` protects (`P_v` in the paper's capacity rule).
    pub fn protected_at(&self, v: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .pi
            .iter()
            .filter(|(_, nodes)| nodes.contains(&v))
            .map(|(&s, _)| s)
            .collect();
        out.sort_unstable();
        out
    }
}

/// Above this variable count, [`SolveMode::Auto`] switches to greedy.
const AUTO_ILP_LIMIT: usize = 600;

/// Solves the max-reuse problem for the given reuses and budget `k`.
///
/// Returns an empty assignment when `k < 2` (no protection capacity) or
/// when there are no reuses.
pub fn solve_max_reuse(reuses: &[Reuse], k: usize, mode: SolveMode) -> PriorityAssignment {
    solve_max_reuse_caps(reuses, &|_| k.saturating_sub(1), k >= 2, mode)
}

/// Solves the max-reuse problem with **per-node protection capacities** —
/// the second ILP extension of the paper (Sec. VI-B: "assigning to each
/// node a different capacity of symbols that can be prioritized instead of
/// our globally fixed k − 1").
///
/// `cap(v)` is the number of symbols node `v` may protect. Reuses whose
/// `(source, target)` pair appears with several alternative connections
/// are realized **at most once** (the at-most-one constraint of the
/// multi-connection extension).
pub fn solve_max_reuse_caps(
    reuses: &[Reuse],
    cap: &dyn Fn(NodeId) -> usize,
    any_capacity: bool,
    mode: SolveMode,
) -> PriorityAssignment {
    if !any_capacity || reuses.is_empty() {
        return PriorityAssignment::default();
    }
    let n_y: usize = {
        let mut pairs = BTreeSet::new();
        for r in reuses {
            for &v in &r.connection {
                pairs.insert((r.source, v));
            }
        }
        pairs.len()
    };
    let use_ilp = match mode {
        SolveMode::Ilp => true,
        SolveMode::Greedy => false,
        SolveMode::Auto => reuses.len() + n_y <= AUTO_ILP_LIMIT,
    };
    if use_ilp {
        solve_ilp(reuses, cap)
    } else {
        solve_greedy(reuses, cap)
    }
}

fn solve_ilp(reuses: &[Reuse], cap: &dyn Fn(NodeId) -> usize) -> PriorityAssignment {
    // Variable layout: x_r for r in 0..reuses.len(), then y_(s,v).
    let mut y_index: BTreeMap<(NodeId, NodeId), usize> = BTreeMap::new();
    for r in reuses {
        for &v in &r.connection {
            let next = reuses.len() + y_index.len();
            y_index.entry((r.source, v)).or_insert(next);
        }
    }
    let n = reuses.len() + y_index.len();
    let mut p = safegen_ilp::Problem::new(n);
    let mut obj = vec![0.0; n];
    for (i, r) in reuses.iter().enumerate() {
        obj[i] = r.profit as f64;
    }
    p.set_objective(&obj);
    // Linking: x_r ≤ y_(s,v) for every v in the connection.
    for (i, r) in reuses.iter().enumerate() {
        for &v in &r.connection {
            let y = y_index[&(r.source, v)];
            p.add_constraint(&[(i, 1.0), (y, -1.0)], 0.0);
        }
    }
    // Capacity: Σ_s y_(s,v) ≤ cap(v) per node v.
    let mut per_node: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (&(_, v), &idx) in &y_index {
        per_node.entry(v).or_default().push(idx);
    }
    for (v, ys) in per_node {
        let terms: Vec<(usize, f64)> = ys.into_iter().map(|y| (y, 1.0)).collect();
        p.add_constraint(&terms, cap(v) as f64);
    }
    // At most one realized connection per (source, target) pair
    // (multi-connection extension).
    let mut per_pair: BTreeMap<(NodeId, NodeId), Vec<usize>> = BTreeMap::new();
    for (i, r) in reuses.iter().enumerate() {
        per_pair.entry((r.source, r.target)).or_default().push(i);
    }
    for (_, xs) in per_pair {
        if xs.len() > 1 {
            let terms: Vec<(usize, f64)> = xs.into_iter().map(|x| (x, 1.0)).collect();
            p.add_constraint(&terms, 1.0);
        }
    }

    let sol = safegen_ilp::solve(&p, 2_000_000);
    let mut pa = PriorityAssignment {
        exact: sol.optimal,
        ..Default::default()
    };
    for (i, r) in reuses.iter().enumerate() {
        if sol.values[i] {
            pa.total_profit += r.profit;
            pa.realized.push(r.clone());
        }
    }
    for (&(s, v), &idx) in &y_index {
        if sol.values[idx] {
            pa.pi.entry(s).or_default().insert(v);
        }
    }
    // Drop y-selections not backing any realized reuse (the solver may set
    // free variables arbitrarily; trim to the union of realized
    // connections so capacity is not wasted downstream).
    let mut needed: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
    for r in &pa.realized {
        let e = needed.entry(r.source).or_default();
        e.extend(r.connection.iter().copied());
    }
    pa.pi = needed;
    pa
}

fn solve_greedy(reuses: &[Reuse], cap: &dyn Fn(NodeId) -> usize) -> PriorityAssignment {
    let mut order: Vec<usize> = (0..reuses.len()).collect();
    // Highest profit first; tie-break on smaller connections (cheaper).
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(reuses[i].profit),
            reuses[i].connection.len(),
        )
    });
    let mut pa = PriorityAssignment::default();
    // load[v] = set of symbols currently protected at v.
    let mut load: HashMap<NodeId, BTreeSet<NodeId>> = HashMap::new();
    let mut realized_pairs: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    'next: for &i in &order {
        let r = &reuses[i];
        // At most one connection per (source, target) pair.
        if realized_pairs.contains(&(r.source, r.target)) {
            continue;
        }
        // Feasible if every connection node can take s (already protects
        // it, or has spare capacity).
        for &v in &r.connection {
            let set = load.entry(v).or_default();
            if !set.contains(&r.source) && set.len() >= cap(v) {
                continue 'next;
            }
        }
        for &v in &r.connection {
            load.get_mut(&v).unwrap().insert(r.source);
            pa.pi.entry(r.source).or_default().insert(v);
        }
        realized_pairs.insert((r.source, r.target));
        pa.total_profit += r.profit;
        pa.realized.push(r.clone());
    }
    pa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reuse::find_reuses;
    use safegen_cfront::{analyze, parse};
    use safegen_ir::{build_dag, to_tac, Dag, NodeKind};

    impl PriorityAssignment {
        /// Checks the capacity constraint `|P_v| ≤ k − 1` for all nodes.
        fn respects_capacity(&self, k: usize) -> bool {
            let mut load: HashMap<NodeId, usize> = HashMap::new();
            for nodes in self.pi.values() {
                for &v in nodes {
                    *load.entry(v).or_insert(0) += 1;
                }
            }
            load.values().all(|&c| c <= k.saturating_sub(1))
        }
    }

    fn dag_of(src: &str) -> Dag {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let tac = to_tac(&unit, &sema);
        let sema2 = analyze(&tac).unwrap();
        build_dag(&tac.functions[0], &sema2)
    }

    #[test]
    fn fig4_solution_protects_z_in_both_muls() {
        let dag = dag_of("double f(double x, double y, double z) { return x*z - y*z; }");
        let reuses = find_reuses(&dag);
        let pa = solve_max_reuse(&reuses, 2, SolveMode::Ilp);
        assert!(pa.exact);
        let z = dag
            .nodes()
            .iter()
            .position(|n| matches!(&n.kind, NodeKind::Input(s) if s == "z"))
            .unwrap();
        let muls: BTreeSet<NodeId> = dag
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == NodeKind::Mul)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(pa.pi.get(&z), Some(&muls));
        assert_eq!(pa.total_profit, 1);
        assert!(pa.respects_capacity(2));
    }

    #[test]
    fn capacity_one_symbol_per_node_forces_choice() {
        // Two independent reuses competing for the same middle nodes:
        //   s1 = a+b reused at r1; s2 = a·b reused at r1 as well.
        let dag = dag_of(
            "double f(double a, double b) {
                 double s = a + b;
                 double p = s * 2.0;
                 double q = s * 3.0;
                 return p - q;
             }",
        );
        let reuses = find_reuses(&dag);
        // With k=2 (capacity 1), the ILP must pick the most profitable
        // subset; with large k it can take everything.
        let small = solve_max_reuse(&reuses, 2, SolveMode::Ilp);
        let large = solve_max_reuse(&reuses, 16, SolveMode::Ilp);
        assert!(small.total_profit <= large.total_profit);
        assert!(small.respects_capacity(2));
        assert!(large.respects_capacity(16));
        assert!(large.total_profit > 0);
    }

    #[test]
    fn greedy_never_beats_ilp() {
        let srcs = [
            "double f(double x, double y, double z) { return x*z - y*z; }",
            "double f(double a, double b) {
                double s = a + b; double t = s * a; return t*s - s*b; }",
            "double f(double x, double a, double b, double c, double d) {
                return x*a*b - x*c*d; }",
            "double f(double a, double b, double c) {
                double u = a*b; double v = b*c; double w = u - v;
                return w*u - w*v; }",
        ];
        for src in srcs {
            let dag = dag_of(src);
            let reuses = find_reuses(&dag);
            for k in [2, 3, 4, 8] {
                let ilp = solve_max_reuse(&reuses, k, SolveMode::Ilp);
                let greedy = solve_max_reuse(&reuses, k, SolveMode::Greedy);
                assert!(ilp.exact, "{src} k={k}");
                assert!(
                    ilp.total_profit >= greedy.total_profit,
                    "{src} k={k}: ilp {} < greedy {}",
                    ilp.total_profit,
                    greedy.total_profit
                );
                assert!(greedy.respects_capacity(k));
                assert!(ilp.respects_capacity(k));
            }
        }
    }

    #[test]
    fn k1_has_no_capacity() {
        let dag = dag_of("double f(double x, double y, double z) { return x*z - y*z; }");
        let reuses = find_reuses(&dag);
        let pa = solve_max_reuse(&reuses, 1, SolveMode::Auto);
        assert_eq!(pa.total_profit, 0);
        assert!(pa.pi.is_empty());
    }

    #[test]
    fn realized_connections_are_fully_protected() {
        let dag = dag_of(
            "double f(double a, double b, double c) {
                double u = a*b; double v = b*c; return u*v - v*u; }",
        );
        let reuses = find_reuses(&dag);
        let pa = solve_max_reuse(&reuses, 4, SolveMode::Auto);
        for r in &pa.realized {
            let protected = &pa.pi[&r.source];
            for v in &r.connection {
                assert!(
                    protected.contains(v),
                    "connection node {v} unprotected in {r:?}"
                );
            }
        }
    }

    #[test]
    fn larger_k_is_monotone_in_profit() {
        let dag = dag_of(
            "double f(double a, double b, double c, double d) {
                double u = a*b; double v = c*d; double w = u + v;
                double p = w * a; double q = w * b; return p - q; }",
        );
        let reuses = find_reuses(&dag);
        let mut last = 0;
        for k in [2, 3, 4, 6, 10] {
            let pa = solve_max_reuse(&reuses, k, SolveMode::Ilp);
            assert!(pa.total_profit >= last, "profit must grow with k");
            last = pa.total_profit;
        }
        assert!(last > 0);
    }

    #[test]
    fn empty_reuses_empty_assignment() {
        let pa = solve_max_reuse(&[], 8, SolveMode::Auto);
        assert_eq!(pa.total_profit, 0);
        assert!(!pa.exact);
    }

    /// A DAG where the reused value reaches one parent through two routes:
    /// the multi-connection enumeration must offer alternatives.
    fn diamond_src() -> &'static str {
        "double f(double x, double c) {
            double u1 = x * 2.0;
            double u2 = x * 3.0;
            double m = u1 + u2;
            double w = x * c;
            return m - w;
        }"
    }

    #[test]
    fn multi_connection_enumeration_offers_alternatives() {
        let dag = dag_of(diamond_src());
        let single = crate::reuse::find_reuses_multi(&dag, 1);
        let multi = crate::reuse::find_reuses_multi(&dag, 3);
        assert!(
            multi.len() > single.len(),
            "{} !> {}",
            multi.len(),
            single.len()
        );
        // All alternatives for one pair must be distinct connections.
        use std::collections::BTreeSet;
        let mut seen: BTreeSet<(NodeId, NodeId, Vec<NodeId>)> = BTreeSet::new();
        for r in &multi {
            assert!(
                seen.insert((r.source, r.target, r.connection.clone())),
                "duplicate connection {r:?}"
            );
        }
    }

    #[test]
    fn at_most_one_connection_realized_per_pair() {
        let dag = dag_of(diamond_src());
        let multi = crate::reuse::find_reuses_multi(&dag, 3);
        let pa = solve_max_reuse(&multi, 8, SolveMode::Ilp);
        use std::collections::BTreeSet;
        let mut pairs = BTreeSet::new();
        for r in &pa.realized {
            assert!(
                pairs.insert((r.source, r.target)),
                "pair realized twice: {r:?}"
            );
        }
    }

    #[test]
    fn multi_connection_never_hurts_profit() {
        let dag = dag_of(diamond_src());
        for k in [2usize, 3, 4] {
            let p1 = solve_max_reuse(&crate::reuse::find_reuses_multi(&dag, 1), k, SolveMode::Ilp);
            let p3 = solve_max_reuse(&crate::reuse::find_reuses_multi(&dag, 3), k, SolveMode::Ilp);
            assert!(
                p3.total_profit >= p1.total_profit,
                "k={k}: multi {} < single {}",
                p3.total_profit,
                p1.total_profit
            );
        }
    }

    #[test]
    fn per_node_zero_capacity_blocks_protection() {
        let dag = dag_of("double f(double x, double y, double z) { return x*z - y*z; }");
        let reuses = find_reuses(&dag);
        // Uniform capacity 1 realizes the z-reuse…
        let open = solve_max_reuse_caps(&reuses, &|_| 1, true, SolveMode::Ilp);
        assert!(open.total_profit > 0);
        // …but capacity 0 on the first mul (a connection node) blocks it.
        let muls: Vec<NodeId> = dag
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == NodeKind::Mul)
            .map(|(i, _)| i)
            .collect();
        let blocked = solve_max_reuse_caps(
            &reuses,
            &|v| usize::from(v != muls[0]),
            true,
            SolveMode::Ilp,
        );
        assert_eq!(blocked.total_profit, 0);
    }

    #[test]
    fn heterogeneous_capacities_respected() {
        let dag = dag_of(
            "double f(double a, double b) {
                double s = a + b;
                double p = s * 2.0;
                double q = s * 3.0;
                return p - q;
            }",
        );
        let reuses = find_reuses(&dag);
        let pa = solve_max_reuse_caps(
            &reuses,
            &|v| if v % 2 == 0 { 2 } else { 1 },
            true,
            SolveMode::Ilp,
        );
        // Recheck loads against the heterogeneous caps.
        for v in 0..dag.len() {
            assert!(pa.protected_at(v).len() <= if v % 2 == 0 { 2 } else { 1 });
        }
    }
}
