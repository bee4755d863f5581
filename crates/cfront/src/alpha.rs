//! Alpha renaming: makes every variable name unique within a function.
//!
//! C allows a name to be redeclared in disjoint or nested scopes; the rest
//! of the pipeline (semantic tables, TAC, DAG construction, bytecode
//! compilation) is deliberately name-keyed and flat. This pass bridges the
//! two worlds: it resolves each identifier to its innermost binding and
//! renames shadowing/sibling redeclarations to fresh names (`i__2`, …), so
//! downstream passes can assume unique names.
//!
//! `#pragma safegen prioritize(v)` payloads are rewritten with the binding
//! visible at the pragma's position.

use crate::ast::{Expr, Function, Stmt, Unit};
use crate::pragma::Pragma;
use std::collections::{HashMap, HashSet};

/// Renames all functions of the unit. Idempotent on already-unique input.
pub fn rename_unique(unit: &Unit) -> Unit {
    let functions = unit
        .functions
        .iter()
        .map(|f| {
            let mut cx = Renamer {
                scopes: vec![HashMap::new()],
                used: HashSet::new(),
            };
            for p in &f.params {
                // Parameter names are kept verbatim (they are the ABI).
                cx.used.insert(p.name.clone());
                cx.scopes[0].insert(p.name.clone(), p.name.clone());
            }
            let body = cx.block(&f.body);
            Function {
                ret: f.ret.clone(),
                name: f.name.clone(),
                params: f.params.clone(),
                body,
                span: f.span,
            }
        })
        .collect();
    Unit { functions }
}

struct Renamer {
    scopes: Vec<HashMap<String, String>>,
    used: HashSet<String>,
}

impl Renamer {
    fn lookup(&self, name: &str) -> Option<&str> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .map(String::as_str)
    }

    fn declare(&mut self, name: &str) -> String {
        let fresh = if self.used.contains(name) {
            let mut n = 2;
            loop {
                let cand = format!("{name}__{n}");
                if !self.used.contains(&cand) {
                    break cand;
                }
                n += 1;
            }
        } else {
            name.to_string()
        };
        self.used.insert(fresh.clone());
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_string(), fresh.clone());
        fresh
    }

    fn block(&mut self, body: &[Stmt]) -> Vec<Stmt> {
        body.iter().map(|s| self.stmt(s)).collect()
    }

    fn scoped_block(&mut self, body: &[Stmt]) -> Vec<Stmt> {
        self.scopes.push(HashMap::new());
        let out = self.block(body);
        self.scopes.pop();
        out
    }

    fn stmt(&mut self, s: &Stmt) -> Stmt {
        match s {
            Stmt::Decl {
                ty,
                name,
                init,
                span,
            } => {
                // Initializer sees the *outer* binding (C semantics for
                // our subset: no self-referential initializers).
                let init = init.as_ref().map(|e| self.expr(e));
                let name = self.declare(name);
                Stmt::Decl {
                    ty: ty.clone(),
                    name,
                    init,
                    span: *span,
                }
            }
            Stmt::Assign { lhs, op, rhs, span } => Stmt::Assign {
                lhs: self.expr(lhs),
                op: *op,
                rhs: self.expr(rhs),
                span: *span,
            },
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => Stmt::If {
                cond: self.expr(cond),
                then_body: self.scoped_block(then_body),
                else_body: self.scoped_block(else_body),
                span: *span,
            },
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                // The for-header opens a scope covering init/cond/step/body.
                self.scopes.push(HashMap::new());
                let init = init.as_ref().map(|i| Box::new(self.stmt(i)));
                let cond = cond.as_ref().map(|c| self.expr(c));
                let step = step.as_ref().map(|st| Box::new(self.stmt(st)));
                let body = self.block(body);
                self.scopes.pop();
                Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                    span: *span,
                }
            }
            Stmt::While { cond, body, span } => Stmt::While {
                cond: self.expr(cond),
                body: self.scoped_block(body),
                span: *span,
            },
            Stmt::Return { value, span } => Stmt::Return {
                value: value.as_ref().map(|e| self.expr(e)),
                span: *span,
            },
            Stmt::ExprStmt { expr, span } => Stmt::ExprStmt {
                expr: self.expr(expr),
                span: *span,
            },
            Stmt::Pragma { payload, span } => {
                // Rewrite prioritize(v) with the visible binding of v.
                let fresh = match Pragma::parse(payload) {
                    Some(Pragma::Prioritize(v)) => self.lookup(v),
                    _ => None,
                };
                let payload = fresh.map_or_else(|| payload.clone(), |v| format!("prioritize({v})"));
                Stmt::Pragma {
                    payload,
                    span: *span,
                }
            }
            Stmt::Block { body, span } => Stmt::Block {
                body: self.scoped_block(body),
                span: *span,
            },
        }
    }

    fn expr(&mut self, e: &Expr) -> Expr {
        match e {
            Expr::Ident { name, span } => Expr::Ident {
                name: self.lookup(name).unwrap_or(name).to_string(),
                span: *span,
            },
            Expr::Index { base, index, span } => Expr::Index {
                base: Box::new(self.expr(base)),
                index: Box::new(self.expr(index)),
                span: *span,
            },
            Expr::Bin { op, lhs, rhs, span } => Expr::Bin {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
                span: *span,
            },
            Expr::Un { op, operand, span } => Expr::Un {
                op: *op,
                operand: Box::new(self.expr(operand)),
                span: *span,
            },
            Expr::Call { callee, args, span } => Expr::Call {
                callee: callee.clone(),
                args: args.iter().map(|a| self.expr(a)).collect(),
                span: *span,
            },
            Expr::Cast { ty, operand, span } => Expr::Cast {
                ty: ty.clone(),
                operand: Box::new(self.expr(operand)),
                span: *span,
            },
            other => other.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::printer::print_unit;
    use crate::sema::analyze;

    fn renamed(src: &str) -> String {
        let u = parse(src).unwrap();
        let r = rename_unique(&u);
        // The renamed unit must pass the strict no-shadowing analysis.
        analyze(&r).unwrap_or_else(|e| panic!("analyze after rename: {e}\n{}", print_unit(&r)));
        print_unit(&r)
    }

    #[test]
    fn sibling_loops_renamed() {
        let out = renamed(
            "void f(double a[4]) {
                 for (int i = 0; i < 4; i++) { a[i] = a[i] + 1.0; }
                 for (int i = 0; i < 4; i++) { a[i] = a[i] * 2.0; }
             }",
        );
        assert!(out.contains("int i "), "{out}");
        assert!(out.contains("i__2"), "{out}");
    }

    #[test]
    fn nested_shadowing_resolved_innermost() {
        let out = renamed(
            "void f(double x) {
                 double t = x;
                 if (x < 1.0) {
                     double t = x + 1.0;
                     x = t;
                 }
                 x = t;
             }",
        );
        // Inner t renamed; inner use refers to the renamed one, outer use
        // to the original.
        assert!(out.contains("t__2 = x + 1.0"), "{out}");
        assert!(out.contains("x = t__2"), "{out}");
        assert!(out.ends_with("x = t;\n}\n"), "{out}");
    }

    #[test]
    fn idempotent_on_unique_names() {
        let src = "double f(double a, double b) { double s = a + b; return s; }";
        let u = parse(src).unwrap();
        assert_eq!(print_unit(&rename_unique(&u)), print_unit(&u));
    }

    #[test]
    fn initializer_sees_outer_binding() {
        let out = renamed(
            "void f(double x) {
                 if (x < 1.0) {
                     double x = x + 1.0;
                     x = x * 2.0;
                 }
             }",
        );
        // `double x = x + 1.0` initializer uses the parameter.
        assert!(out.contains("x__2 = x + 1.0"), "{out}");
        assert!(out.contains("x__2 = x__2 * 2.0"), "{out}");
    }

    #[test]
    fn pragma_payload_follows_binding() {
        let out = renamed(
            "void f(double z) {
                 if (z < 1.0) {
                     double z = z * 2.0;
                     #pragma safegen prioritize(z)
                     z = z + 1.0;
                 }
             }",
        );
        assert!(out.contains("prioritize(z__2)"), "{out}");
    }

    #[test]
    fn luf_style_triple_reuse() {
        let out = renamed(
            "void f(double a[3][3]) {
                 for (int k = 0; k < 2; k++) {
                     for (int j = 0; j < 3; j++) { a[k][j] = a[k][j] + 1.0; }
                     for (int i = 0; i < 3; i++) {
                         for (int j = 0; j < 3; j++) { a[i][j] = a[i][j] * 2.0; }
                     }
                 }
             }",
        );
        assert!(out.contains("j__2"), "{out}");
    }
}
