//! Variable-capacity assignment — the extension the paper names as future
//! work (Sec. VIII): "Assigning a different limit on the number of symbols
//! for each variable may thus improve the overall performance while
//! preserving accuracy."
//!
//! The heuristic implemented here: operations that lie on **no reuse
//! connection** can never contribute a cancellation, so their results may
//! be kept at a reduced budget `k_low` (approaching interval-arithmetic
//! cost); operations on a reuse connection — and everything downstream of
//! one — keep the full budget. The decision is emitted as
//! `#pragma safegen capacity(N)` annotations consumed by the backend.

use crate::annotate::insert_before;
use crate::reuse::find_reuses;
use safegen_cfront::{Function, Sema};
use safegen_ir::{build_dag, NodeId};
use std::collections::{BTreeMap, HashSet};

/// Computes, per operation span, the capacity that suffices there.
///
/// Returns annotations only for operations that can run at `k_low`
/// (everything else implicitly keeps the configured `k`).
pub fn capacity_plan(f: &Function, sema: &Sema, k_low: usize) -> BTreeMap<(usize, usize), usize> {
    let dag = build_dag(f, sema);
    let reuses = find_reuses(&dag);

    // Nodes that participate in any reuse connection (as source, member,
    // or target) need the full budget…
    let mut hot: HashSet<NodeId> = HashSet::new();
    for r in &reuses {
        hot.insert(r.source);
        hot.insert(r.target);
        hot.extend(r.connection.iter().copied());
    }
    // …and so does everything reachable from a hot node (the protected
    // symbols must survive in downstream values until they cancel).
    let children = dag.children();
    let mut stack: Vec<NodeId> = hot.iter().copied().collect();
    while let Some(v) = stack.pop() {
        for &c in &children[v] {
            if hot.insert(c) {
                stack.push(c);
            }
        }
    }

    let mut plan = BTreeMap::new();
    for (id, node) in dag.nodes().iter().enumerate() {
        // Inputs create no operation; constants materialize a fresh form
        // without fusing anything — neither needs a capacity annotation.
        if node.kind.is_input() || matches!(node.kind, safegen_ir::NodeKind::Const(_)) {
            continue;
        }
        if !hot.contains(&id) {
            plan.insert((node.span.start, node.span.end), k_low);
        }
    }
    plan
}

/// Inserts `#pragma safegen capacity(N)` before the statements covered by
/// the plan (mirrors the prioritize-pragma insertion).
pub fn annotate_capacities(f: &Function, plan: &BTreeMap<(usize, usize), usize>) -> Function {
    // Each plan entry annotates exactly one statement (TAC statements can
    // share source regions through their spans): consume entries as they
    // match. Ordered map: when several entries fall inside one statement
    // the earliest span is consumed, deterministically (see the matching
    // note in annotate.rs).
    let mut plan = plan.clone();
    insert_before(f, &mut |stmt| {
        let key = plan
            .keys()
            .find(|(start, end)| *start >= stmt.start && *end <= stmt.end)
            .copied()?;
        plan.remove(&key).map(|k| format!("capacity({k})"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use safegen_cfront::{analyze, parse, print_unit, Unit};
    use safegen_ir::to_tac;

    fn plan_and_annotate(src: &str, k_low: usize) -> (Unit, usize) {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let tac = to_tac(&unit, &sema);
        let sema = analyze(&tac).unwrap();
        let f = &tac.functions[0];
        let plan = capacity_plan(f, &sema, k_low);
        let n = plan.len();
        let annotated = Unit {
            functions: vec![annotate_capacities(f, &plan)],
        };
        // Annotated output must remain a valid program.
        let printed = print_unit(&annotated);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        analyze(&reparsed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        (annotated, n)
    }

    #[test]
    fn straight_line_without_reuse_is_all_low_capacity() {
        // No value is used twice: every op can run at the low budget.
        let (u, n) = plan_and_annotate(
            "double f(double a, double b, double c) { return a + b * c; }",
            2,
        );
        assert!(n >= 2, "both ops should be low-capacity, got {n}");
        assert!(print_unit(&u).contains("capacity(2)"));
    }

    #[test]
    fn reuse_connection_keeps_full_budget() {
        // x·z − y·z: the two muls and the sub are on a reuse connection.
        let (u, n) = plan_and_annotate(
            "double f(double x, double y, double z) { return x*z - y*z; }",
            2,
        );
        assert_eq!(n, 0, "all ops are reuse-hot: {}", print_unit(&u));
    }

    #[test]
    fn downstream_of_reuse_stays_hot() {
        // The final `* 2.0` consumes the cancellation result: it must keep
        // the full budget so the protected symbols survive into it.
        let (u, _) = plan_and_annotate(
            "double f(double x, double y, double z) {
                double d = x*z - y*z;
                return d * 2.0;
            }",
            2,
        );
        let printed = print_unit(&u);
        assert!(
            !printed.contains("capacity"),
            "downstream op must not be throttled:\n{printed}"
        );
    }

    #[test]
    fn mixed_program_splits() {
        // One reuse-heavy region plus an unrelated tail computation.
        let (u, n) = plan_and_annotate(
            "double f(double x, double z, double a, double b) {
                double d = x*z - x*z;
                double t = a + b;
                t = t * 3.0;
                return d + t;
            }",
            4,
        );
        let printed = print_unit(&u);
        assert!(n >= 1, "the a+b chain should be low-capacity:\n{printed}");
    }
}
