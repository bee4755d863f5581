//! Code annotation (paper Sec. VI-C, "Annotating and transforming the
//! code").
//!
//! Turns the node-level [`PriorityAssignment`] into `#pragma safegen
//! prioritize(var)` lines in the TAC source. For each operation node that
//! protects symbols, the paper's heuristic selects **one variable**: among
//! the protected symbols, the one with the highest reuse profit; the
//! pragma names the variable of the node that *creates* that symbol, and
//! the runtime protects all symbols currently held by that variable.

use crate::maxreuse::{solve_max_reuse, PriorityAssignment, SolveMode};
use crate::reuse::find_reuses;
use safegen_cfront::{Function, ParseError, Sema, Span, Stmt, Unit};
use safegen_ir::{build_dag, Dag, NodeId};
use std::collections::BTreeMap;

/// Runs the full analysis on a TAC-form unit and returns it annotated.
///
/// `k` is the symbol budget the generated code will run with; the
/// capacity for protected symbols per operation is `k − 1`.
///
/// # Errors
///
/// Returns diagnostics if the unit fails semantic analysis.
pub fn annotate_unit(tac: &Unit, k: usize) -> Result<Unit, ParseError> {
    let sema = safegen_cfront::analyze(tac)?;
    let functions = tac
        .functions
        .iter()
        .map(|f| annotate_function(f, &sema, k, SolveMode::Auto))
        .collect();
    Ok(Unit { functions })
}

/// Analyzes and annotates a single TAC-form function.
pub fn annotate_function(f: &Function, sema: &Sema, k: usize, mode: SolveMode) -> Function {
    let dag = build_dag(f, sema);
    let reuses = find_reuses(&dag);
    let pa = solve_max_reuse(&reuses, k, mode);
    let pragmas = pragma_plan(&dag, &pa);
    insert_pragmas(f, &pragmas)
}

/// Computes, per operation span, the variable to prioritize there.
fn pragma_plan(dag: &Dag, pa: &PriorityAssignment) -> BTreeMap<(usize, usize), String> {
    // Profit of each source node (for the "highest reuse profit" pick).
    let profits = dag.ancestor_counts();
    let mut plan: BTreeMap<(usize, usize), String> = BTreeMap::new();
    for v in 0..dag.len() {
        let protected = pa.protected_at(v);
        if protected.is_empty() {
            continue;
        }
        // Pick the protected symbol with the highest profit whose creating
        // node has a nameable variable.
        let best: Option<&NodeId> = protected
            .iter()
            .filter(|&&s| dag.nodes()[s].var.is_some())
            .max_by_key(|&&s| profits[s]);
        let Some(&s) = best else { continue };
        let var = dag.nodes()[s].var.clone().unwrap();
        let span = dag.nodes()[v].span;
        plan.insert((span.start, span.end), var);
    }
    plan
}

/// Inserts pragma statements before the statements whose spans contain an
/// annotated operation.
fn insert_pragmas(f: &Function, plan: &BTreeMap<(usize, usize), String>) -> Function {
    // An operation span annotates its enclosing statement: containment
    // check on byte offsets. The plan is an ordered map so that when a
    // statement encloses several annotated operations the earliest span
    // wins deterministically (a hash map here made the chosen pragma —
    // and therefore the compiled variant — vary run to run).
    insert_before(f, &mut |stmt| {
        plan.iter()
            .find(|((start, end), _)| *start >= stmt.start && *end <= stmt.end)
            .map(|(_, v)| format!("prioritize({v})"))
    })
}

/// `f` with `#pragma safegen <payload>` before every simple statement
/// (declaration, assignment, `return`) whose span `payload` maps to one.
pub(crate) fn insert_before(
    f: &Function,
    payload: &mut dyn FnMut(Span) -> Option<String>,
) -> Function {
    fn go(body: &mut Vec<Stmt>, payload: &mut dyn FnMut(Span) -> Option<String>) {
        for mut s in std::mem::take(body) {
            let span = s.span();
            match &mut s {
                Stmt::Decl { .. } | Stmt::Assign { .. } | Stmt::Return { .. } => {
                    if let Some(payload) = payload(span) {
                        body.push(Stmt::Pragma { payload, span });
                    }
                }
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    go(then_body, payload);
                    go(else_body, payload);
                }
                Stmt::For { body: inner, .. }
                | Stmt::While { body: inner, .. }
                | Stmt::Block { body: inner, .. } => go(inner, payload),
                _ => {}
            }
            body.push(s);
        }
    }
    let mut f = f.clone();
    go(&mut f.body, payload);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use safegen_cfront::{analyze, parse, print_unit};
    use safegen_ir::to_tac;

    fn annotate_src(src: &str, k: usize) -> String {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let tac = to_tac(&unit, &sema);
        let annotated = annotate_unit(&tac, k).unwrap();
        print_unit(&annotated)
    }

    #[test]
    fn fig4_annotation_names_z() {
        let out = annotate_src(
            "double f(double x, double y, double z) { return x*z - y*z; }",
            4,
        );
        assert!(out.contains("#pragma safegen prioritize(z)"), "{out}");
    }

    #[test]
    fn annotated_output_reparses_and_analyzes() {
        let out = annotate_src(
            "double f(double a, double b) {
                 double s = a + b;
                 double p = s * a;
                 double q = s * b;
                 return p - q;
             }",
            4,
        );
        let reparsed = parse(&out).unwrap();
        analyze(&reparsed).unwrap();
        assert!(out.contains("prioritize("), "{out}");
    }

    #[test]
    fn no_reuse_no_pragmas() {
        let out = annotate_src("double f(double a, double b) { return a + b; }", 4);
        assert!(!out.contains("#pragma"), "{out}");
    }

    #[test]
    fn k1_produces_no_pragmas() {
        let out = annotate_src(
            "double f(double x, double y, double z) { return x*z - y*z; }",
            1,
        );
        assert!(!out.contains("#pragma"), "{out}");
    }

    #[test]
    fn annotation_is_deterministic_across_calls() {
        // Regression: the pragma plan used to be a hash map, so a statement
        // enclosing several annotated operation spans picked an arbitrary
        // pragma per call — the compiled variant (and its affine result)
        // varied run to run, surfacing as serial/batch fuzz mismatches.
        let src = "double f(double v0, double v1, int n) {
                double v2 = v1;
                int t = 0;
                while (t < n) {
                    v2 = v2 / (v1 * v1 + 0.5) + 1.0;
                    t = t + 1;
                }
                double v3 = v1 * v1;
                double v5 = v0;
                int t5 = 0;
                while (t5 < n) {
                    v5 = v5 * 1.5 + v2;
                    t5 = t5 + 1;
                }
                return v5 / (v3 * v3 + 0.5);
            }";
        let first = annotate_src(src, 16);
        for _ in 0..10 {
            assert_eq!(first, annotate_src(src, 16));
        }
    }

    #[test]
    fn pragma_lands_inside_loop_body() {
        let out = annotate_src(
            "void f(double x, double y, double z) {
                 for (int i = 0; i < 4; i++) {
                     x = x * z;
                     y = y * z;
                     x = x - y;
                 }
             }",
            4,
        );
        // The pragma must be attached to the statements inside the loop.
        let loop_pos = out.find("for (").unwrap();
        if let Some(p) = out.find("#pragma") {
            assert!(p > loop_pos, "{out}");
        }
    }

    #[test]
    fn henon_step_gets_annotated() {
        // One Henon step written out: x reused at the final add chain.
        let out = annotate_src(
            "void henon(double x, double y) {
                 double xx = x * x;
                 double t = 1.05 * xx;
                 double xn = 1.0 - t + y;
                 y = 0.3 * x;
                 x = xn;
             }",
            8,
        );
        // x is reused (x*x is self-use — no; but x feeds both xx-chain and
        // y) — reuse happens only if paths reconverge; they do not here,
        // so no pragma is *required*; the call must simply succeed.
        let reparsed = parse(&out).unwrap();
        analyze(&reparsed).unwrap();
    }
}
