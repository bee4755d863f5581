//! Three-address-code (TAC) transformation (paper Sec. VI-C).
//!
//! Rewrites every statement so that each floating-point operation is
//! computed on its own line into a fresh temporary. The output is still a
//! valid program of the C subset — `parse(print(to_tac(u)))` round-trips —
//! and every introduced statement carries the span of the source expression
//! it came from, so DAG nodes map back to source lines.
//!
//! Compound assignments are expanded (`a += b` becomes `t = a + b; a = t`),
//! and calls / unary negations of floating type are flattened as well.
//! Integer expressions (loop indices) are left untouched; an integer
//! operand of a floating-point operation is spilled to an `int`
//! temporary.

use safegen_cfront::{AssignOp, BinOp, Expr, Function, Sema, Stmt, Ty, Unit, VarInfo};

/// Applies the TAC transformation to every function in the unit.
pub fn to_tac(unit: &Unit, sema: &Sema) -> Unit {
    to_tac_with_sema(unit, sema).0
}

/// Like [`to_tac`], but also returns a `Sema` extended with the
/// temporaries the transformation introduced, so consumers of the TAC
/// unit do not need to re-run `analyze` on it. The returned `Sema` is
/// exactly what `analyze` would produce on the returned unit.
pub fn to_tac_with_sema(unit: &Unit, sema: &Sema) -> (Unit, Sema) {
    let mut out_sema = sema.clone();
    let functions = unit
        .functions
        .iter()
        .map(|f| {
            let mut cx = TacCx {
                sema,
                func: f.name.clone(),
                next_tmp: 0,
                temps: Vec::new(),
            };
            let body = cx.block(&f.body);
            let info = out_sema
                .functions
                .get_mut(&f.name)
                .expect("sema covers every function in the unit");
            for (name, ty, span) in cx.temps {
                info.vars.insert(
                    name,
                    VarInfo {
                        ty,
                        is_param: false,
                        span,
                    },
                );
            }
            Function {
                ret: f.ret.clone(),
                name: f.name.clone(),
                params: f.params.clone(),
                body,
                span: f.span,
            }
        })
        .collect();
    (Unit { functions }, out_sema)
}

struct TacCx<'a> {
    sema: &'a Sema,
    func: String,
    next_tmp: u32,
    /// Every `_tN` this function's transform spilled, with its type and
    /// the span of the source expression it names — recorded so
    /// `to_tac_with_sema` can extend the semantic tables without a second
    /// `analyze` pass.
    temps: Vec<(String, Ty, safegen_cfront::Span)>,
}

impl TacCx<'_> {
    fn fresh(&mut self) -> String {
        self.next_tmp += 1;
        format!("_t{}", self.next_tmp)
    }

    fn is_float(&self, e: &Expr) -> bool {
        self.sema.type_of(&self.func, e).is_float()
    }

    /// Flattens `body`. A `#pragma safegen` governs the `+ − × ÷ √` of
    /// the simple statement it precedes (`safegen_cfront::resolve_pragmas`),
    /// so it moves to the line that holds that statement's first one when
    /// the statement splits; otherwise it stays before the statement's
    /// own line, where the rule reads it as it reads the source.
    fn block(&mut self, body: &[Stmt]) -> Vec<Stmt> {
        let mut out = Vec::new();
        let mut pragmas = Vec::new();
        for s in body {
            if let Stmt::Pragma { .. } = s {
                pragmas.push(s.clone());
                continue;
            }
            let start = out.len();
            self.stmt(s, &mut out);
            if pragmas.is_empty() {
                continue;
            }
            let simple = matches!(
                s,
                Stmt::Decl { .. } | Stmt::Assign { .. } | Stmt::Return { .. }
            );
            let op = out[start..].iter().position(|line| self.holds_op(line));
            let at = match op {
                Some(i) if simple => start + i,
                _ => out.len() - 1,
            };
            out.splice(at..at, pragmas.drain(..));
        }
        out.append(&mut pragmas);
        out
    }

    /// True when TAC line `line` computes a float `+ − × ÷ √` (at the top
    /// of its value, the only place a TAC line holds an operation).
    fn holds_op(&self, line: &Stmt) -> bool {
        let value = match line {
            Stmt::Decl {
                ty, init: Some(e), ..
            } if ty.is_float() => e,
            Stmt::Assign { lhs, rhs, .. } if self.is_float(lhs) => rhs,
            _ => return false,
        };
        match value {
            Expr::Bin { op, .. } => op.is_arith(),
            Expr::Call { callee, .. } => callee == "sqrt",
            _ => false,
        }
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<Stmt>) {
        match s {
            Stmt::Decl {
                ty,
                name,
                init,
                span,
            } => {
                let init = init.as_ref().map(|e| {
                    if ty.is_float() {
                        // The declaration line itself may hold one FP op.
                        self.flatten_top(e, out)
                    } else {
                        e.clone()
                    }
                });
                out.push(Stmt::Decl {
                    ty: ty.clone(),
                    name: name.clone(),
                    init,
                    span: *span,
                });
            }
            Stmt::Assign { lhs, op, rhs, span } => {
                let is_f = self.is_float(lhs);
                // Expand compound assignment first.
                let rhs_full = match op {
                    AssignOp::Set => rhs.clone(),
                    AssignOp::Add | AssignOp::Sub | AssignOp::Mul | AssignOp::Div => {
                        let bin = match op {
                            AssignOp::Add => BinOp::Add,
                            AssignOp::Sub => BinOp::Sub,
                            AssignOp::Mul => BinOp::Mul,
                            AssignOp::Div => BinOp::Div,
                            AssignOp::Set => unreachable!(),
                        };
                        Expr::Bin {
                            op: bin,
                            lhs: Box::new(lhs.clone()),
                            rhs: Box::new(rhs.clone()),
                            span: *span,
                        }
                    }
                };
                let rhs_tac = if is_f {
                    // Flatten sub-operands but keep the top-level operation
                    // in this assignment (one FP op per line).
                    self.flatten_top(&rhs_full, out)
                } else {
                    rhs_full
                };
                out.push(Stmt::Assign {
                    lhs: lhs.clone(),
                    op: AssignOp::Set,
                    rhs: rhs_tac,
                    span: *span,
                });
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => {
                let cond = self.flatten_cond(cond, out);
                let then_body = self.block(then_body);
                let else_body = self.block(else_body);
                out.push(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    span: *span,
                });
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                // Loop control is integer arithmetic; leave it be. (FP
                // temporaries must not be hoisted out of the body either.)
                let init = init.as_ref().map(|i| {
                    let mut tmp = Vec::new();
                    self.stmt(i, &mut tmp);
                    debug_assert_eq!(tmp.len(), 1, "loop init must stay single-statement");
                    Box::new(tmp.pop().unwrap())
                });
                let step = step.as_ref().map(|st| {
                    let mut tmp = Vec::new();
                    self.stmt(st, &mut tmp);
                    debug_assert_eq!(tmp.len(), 1, "loop step must stay single-statement");
                    Box::new(tmp.pop().unwrap())
                });
                let body = self.block(body);
                out.push(Stmt::For {
                    init,
                    cond: cond.clone(),
                    step,
                    body,
                    span: *span,
                });
            }
            Stmt::While { cond, body, span } => {
                let cond = self.flatten_cond(cond, out);
                let body = self.block(body);
                out.push(Stmt::While {
                    cond,
                    body,
                    span: *span,
                });
            }
            Stmt::Return { value, span } => {
                let value = value.as_ref().map(|e| {
                    if self.is_float(e) {
                        self.flatten_operand(e, out)
                    } else {
                        e.clone()
                    }
                });
                out.push(Stmt::Return {
                    value: value.clone(),
                    span: *span,
                });
            }
            Stmt::ExprStmt { expr, span } => {
                let expr = if self.is_float(expr) {
                    self.flatten_operand(expr, out)
                } else {
                    expr.clone()
                };
                out.push(Stmt::ExprStmt { expr, span: *span });
            }
            Stmt::Pragma { .. } => out.push(s.clone()),
            Stmt::Block { body, span } => {
                let body = self.block(body);
                out.push(Stmt::Block { body, span: *span });
            }
        }
    }

    /// Flattens FP operands inside a comparison (the comparison itself is
    /// an int-producing operation and stays in place).
    fn flatten_cond(&mut self, cond: &Expr, out: &mut Vec<Stmt>) -> Expr {
        match cond {
            Expr::Bin { op, lhs, rhs, span } if op.is_cmp() => {
                let l = if self.is_float(lhs) {
                    self.flatten_operand(lhs, out)
                } else {
                    (**lhs).clone()
                };
                let r = if self.is_float(rhs) {
                    self.flatten_operand(rhs, out)
                } else {
                    (**rhs).clone()
                };
                Expr::Bin {
                    op: *op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                    span: *span,
                }
            }
            Expr::Bin {
                op: op @ (BinOp::And | BinOp::Or),
                lhs,
                rhs,
                span,
            } => {
                let l = self.flatten_cond(lhs, out);
                let r = self.flatten_cond(rhs, out);
                Expr::Bin {
                    op: *op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                    span: *span,
                }
            }
            other => other.clone(),
        }
    }

    /// Reduces an FP expression to an *atom* (identifier, literal, or array
    /// access), emitting temporaries for every operation.
    fn flatten_operand(&mut self, e: &Expr, out: &mut Vec<Stmt>) -> Expr {
        match e {
            Expr::IntLit { .. }
            | Expr::FloatLit { .. }
            | Expr::Ident { .. }
            | Expr::Index { .. } => e.clone(),
            _ => {
                let ty = if self.is_float(e) {
                    Ty::Double
                } else {
                    Ty::Int
                };
                let top = self.flatten_top(e, out);
                self.spill(top, ty, e.span(), out)
            }
        }
    }

    /// Flattens the children of `e` but keeps `e`'s own top-level operation
    /// unflattened (for direct use as an assignment RHS).
    fn flatten_top(&mut self, e: &Expr, out: &mut Vec<Stmt>) -> Expr {
        match e {
            Expr::Bin { op, lhs, rhs, span } if op.is_arith() => {
                let l = self.flatten_operand(lhs, out);
                let r = self.flatten_operand(rhs, out);
                Expr::Bin {
                    op: *op,
                    lhs: Box::new(l),
                    rhs: Box::new(r),
                    span: *span,
                }
            }
            Expr::Un { op, operand, span } => {
                let inner = self.flatten_operand(operand, out);
                Expr::Un {
                    op: *op,
                    operand: Box::new(inner),
                    span: *span,
                }
            }
            Expr::Call { callee, args, span } => {
                let args = args.iter().map(|a| self.flatten_operand(a, out)).collect();
                Expr::Call {
                    callee: callee.clone(),
                    args,
                    span: *span,
                }
            }
            Expr::Cast { ty, operand, span } => {
                let inner = if self.is_float(operand) {
                    self.flatten_operand(operand, out)
                } else {
                    (**operand).clone()
                };
                Expr::Cast {
                    ty: ty.clone(),
                    operand: Box::new(inner),
                    span: *span,
                }
            }
            other => other.clone(),
        }
    }

    /// Emits `<ty> _tN = <e>;` and returns `_tN`. An integer
    /// subexpression of a float expression is spilled as `int`, so it
    /// stays integer arithmetic, as in C.
    fn spill(&mut self, e: Expr, ty: Ty, span: safegen_cfront::Span, out: &mut Vec<Stmt>) -> Expr {
        let name = self.fresh();
        self.temps.push((name.clone(), ty.clone(), span));
        out.push(Stmt::Decl {
            ty,
            name: name.clone(),
            init: Some(e),
            span,
        });
        Expr::Ident { name, span }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safegen_cfront::{analyze, parse, print_unit};

    fn tac_of(src: &str) -> Unit {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let t = to_tac(&unit, &sema);
        // TAC output must itself be a valid, analyzable program.
        let printed = print_unit(&t);
        let reparsed = parse(&printed).unwrap_or_else(|e| panic!("reparse: {e}\n{printed}"));
        analyze(&reparsed).unwrap_or_else(|e| panic!("reanalyze: {e}\n{printed}"));
        t
    }

    /// Counts FP operations appearing in one statement (must be ≤ 1 in TAC).
    fn fp_ops_in_expr(e: &Expr) -> usize {
        match e {
            Expr::Bin { op, lhs, rhs, .. } => {
                usize::from(op.is_arith()) + fp_ops_in_expr(lhs) + fp_ops_in_expr(rhs)
            }
            Expr::Un { operand, .. } => fp_ops_in_expr(operand),
            Expr::Call { args, .. } => 1 + args.iter().map(fp_ops_in_expr).sum::<usize>(),
            Expr::Cast { operand, .. } => fp_ops_in_expr(operand),
            _ => 0,
        }
    }

    fn max_ops_per_stmt(body: &[Stmt]) -> usize {
        body.iter()
            .map(|s| match s {
                Stmt::Decl { init: Some(e), .. } => fp_ops_in_expr(e),
                Stmt::Assign { rhs, .. } => fp_ops_in_expr(rhs),
                Stmt::Return { value: Some(e), .. } => fp_ops_in_expr(e),
                Stmt::If {
                    then_body,
                    else_body,
                    ..
                } => max_ops_per_stmt(then_body).max(max_ops_per_stmt(else_body)),
                Stmt::For { body, .. } | Stmt::While { body, .. } | Stmt::Block { body, .. } => {
                    max_ops_per_stmt(body)
                }
                _ => 0,
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn flattens_nested_expression() {
        let t = tac_of("double f(double a, double b) { return a * b + 0.1; }");
        assert!(max_ops_per_stmt(&t.functions[0].body) <= 1);
        // a*b spilled into a temp, return of the + result spilled too.
        let printed = print_unit(&t);
        assert!(printed.contains("_t1"), "{printed}");
    }

    #[test]
    fn expands_compound_assignment() {
        let t = tac_of("void f(double x, double y) { x += y * 2.0; }");
        let printed = print_unit(&t);
        assert!(printed.contains("= x +"), "{printed}");
        assert!(max_ops_per_stmt(&t.functions[0].body) <= 1);
    }

    #[test]
    fn leaves_integer_arithmetic_alone() {
        let t =
            tac_of("void f(double a[8]) { for (int i = 0; i < 4; i++) a[i + 1] = a[i] + 1.0; }");
        let Stmt::For { body, .. } = &t.functions[0].body[0] else {
            panic!()
        };
        // a[i+1] index arithmetic must not be spilled.
        let Stmt::Assign {
            lhs: Expr::Index { index, .. },
            ..
        } = &body[0]
        else {
            panic!()
        };
        assert!(matches!(**index, Expr::Bin { op: BinOp::Add, .. }));
    }

    #[test]
    fn henon_body_becomes_single_op_lines() {
        let t = tac_of(
            "void henon(double x, double y) {
                for (int i = 0; i < 10; i++) {
                    double xn = 1.0 - 1.05 * x * x + y;
                    y = 0.3 * x;
                    x = xn;
                }
            }",
        );
        assert!(max_ops_per_stmt(&t.functions[0].body) <= 1);
    }

    #[test]
    fn temporaries_stay_inside_loop_bodies() {
        let t = tac_of(
            "void f(double a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i] * 2.0 + 1.0; } }",
        );
        // The outer body must contain only the for statement.
        assert_eq!(t.functions[0].body.len(), 1);
        assert!(matches!(t.functions[0].body[0], Stmt::For { .. }));
    }

    #[test]
    fn flattens_call_arguments() {
        let t = tac_of("double f(double x) { return sqrt(x * x + 1.0); }");
        assert!(max_ops_per_stmt(&t.functions[0].body) <= 1);
    }

    #[test]
    fn flattens_comparison_operands() {
        let t = tac_of("void f(double x, double y) { if (x * 2.0 < y + 1.0) { x = y; } }");
        assert!(max_ops_per_stmt(&t.functions[0].body) <= 1);
        // Temps are emitted before the if.
        assert!(t.functions[0].body.len() >= 3);
    }

    #[test]
    fn spans_point_to_source_expressions() {
        let src = "double f(double a, double b) { return a * b + 0.1; }";
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let t = to_tac(&unit, &sema);
        // The temp decl for a*b must carry the span of `a * b` in `src`.
        let Stmt::Decl {
            init: Some(_),
            span,
            ..
        } = &t.functions[0].body[0]
        else {
            panic!()
        };
        let text = &src[span.start..span.end];
        assert!(text.contains('*'), "span text = {text:?}");
    }

    #[test]
    fn preserves_pragmas() {
        let t = tac_of("void f(double x) {\n#pragma safegen prioritize(x)\nx = x * x + 1.0; }");
        assert!(print_unit(&t).contains("#pragma safegen prioritize(x)"));
    }

    #[test]
    fn threaded_sema_matches_reanalysis() {
        let src = "double f(double a, double b) { return a * b + 0.1; }
            void g(double x, double a[4]) {
                for (int i = 0; i < 3; i++) { if (x * 2.0 < a[i] + 1.0) { x = x * 0.5 + 1.0; } }
            }";
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let (tac, threaded) = to_tac_with_sema(&unit, &sema);
        let reanalyzed = analyze(&tac).unwrap();
        assert_eq!(threaded.functions.len(), reanalyzed.functions.len());
        for (fname, info) in &reanalyzed.functions {
            let tinfo = threaded.functions.get(fname).unwrap();
            assert_eq!(info.vars.len(), tinfo.vars.len(), "{fname}");
            for (var, vi) in &info.vars {
                assert_eq!(Some(vi), tinfo.vars.get(var), "{fname}.{var}");
            }
        }
    }

    #[test]
    fn idempotent_on_tac_input() {
        let src = "double f(double a, double b) { double t = a * b; return t; }";
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let t = to_tac(&unit, &sema);
        assert_eq!(print_unit(&t), print_unit(&unit));
    }
}
