//! Where a `#pragma safegen` applies: the one rule every backend reads.
//!
//! A pragma governs the simple statement (declaration, assignment or
//! `return`) it directly precedes. `prioritize(v)` applies to that
//! statement's first `+ − × ÷ √`, and only when `v` is a float scalar in
//! scope there (a parameter or a declaration of an enclosing block, as in
//! C). Of two pragmas before a statement the last wins, and every other
//! pragma is advisory and dropped. CFG lowering hangs each pragma
//! [`resolve_pragmas`] keeps on the operation it governs, and the sound-C
//! emitter prints exactly the pragmas it keeps.

use crate::ast::{AssignOp, Expr, Function, Stmt, Ty};
use crate::sema::Sema;

/// The variable a `prioritize(v)` payload (the text after `#pragma
/// safegen`) names: protect the symbols `v` holds during the governed
/// operation. `None` for any other payload.
pub fn prioritized(payload: &str) -> Option<&str> {
    let v = payload
        .strip_prefix("prioritize(")?
        .strip_suffix(')')?
        .trim();
    (!v.is_empty()).then_some(v)
}

/// True for a payload sema accepts: `prioritize(v)`, or `capacity(n)`, a
/// per-operation symbol budget the compiler accepts and drops, so sources
/// written with it still compile (every operation runs at its context's
/// `k`).
pub fn accepted(payload: &str) -> bool {
    let capacity = payload
        .strip_prefix("capacity(")
        .and_then(|n| n.strip_suffix(')'))
        .is_some_and(|n| n.trim().parse::<u16>().is_ok_and(|n| n >= 1));
    capacity || prioritized(payload).is_some()
}

/// Removes from `f` every pragma the rule drops, so each one left directly
/// precedes the statement it governs, with at most one per statement.
pub fn resolve_pragmas(f: &mut Function, sema: &Sema) {
    let scope = f.params.iter().filter(|p| float_scalar(&p.ty));
    let scope = scope.map(|p| p.name.clone()).collect();
    let func = f.name.clone();
    Resolver {
        sema,
        func: &func,
        scope,
    }
    .block(&mut f.body);
}

fn float_scalar(ty: &Ty) -> bool {
    matches!(ty, Ty::Float | Ty::Double)
}

struct Resolver<'a> {
    sema: &'a Sema,
    func: &'a str,
    /// Float scalars in scope, innermost last.
    scope: Vec<String>,
}

impl Resolver<'_> {
    fn block(&mut self, body: &mut Vec<Stmt>) {
        let mark = self.scope.len();
        let mut keep = vec![true; body.len()];
        // The last `prioritize` since the previous statement.
        let mut prioritize = None;
        for (i, s) in body.iter_mut().enumerate() {
            if let Stmt::Pragma { payload, .. } = s {
                keep[i] = false;
                if let Some(v) = prioritized(payload) {
                    prioritize = Some((i, v.to_string()));
                }
                continue;
            }
            if let Some((i, v)) = prioritize.take() {
                keep[i] = self.takes_protect(s) && self.scope.contains(&v);
            }
            self.nested(s);
        }
        self.scope.truncate(mark);
        let mut keep = keep.into_iter();
        body.retain(|_| keep.next().unwrap_or(true));
    }

    /// Resolves the bodies inside `s`; a float scalar `s` declares enters
    /// scope after it.
    fn nested(&mut self, s: &mut Stmt) {
        match s {
            Stmt::Decl { ty, name, .. } if float_scalar(ty) => self.scope.push(name.clone()),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                self.block(then_body);
                self.block(else_body);
            }
            Stmt::For { init, body, .. } => {
                // The init declaration is in scope for the loop only.
                let mark = self.scope.len();
                if let Some(init) = init {
                    self.nested(init);
                }
                self.block(body);
                self.scope.truncate(mark);
            }
            Stmt::While { body, .. } | Stmt::Block { body, .. } => self.block(body),
            _ => {}
        }
    }

    /// True when simple statement `s` lowers to a `+ − × ÷ √`. In TAC
    /// form a statement has at most one FP operation, at the top of its
    /// float value.
    fn takes_protect(&self, s: &Stmt) -> bool {
        let float = |e: &Expr| self.sema.type_of(self.func, e).is_float();
        let value = match s {
            Stmt::Decl {
                ty, init: Some(e), ..
            } if float_scalar(ty) => e,
            Stmt::Assign { lhs, op, .. } if *op != AssignOp::Set && float(lhs) => return true,
            Stmt::Assign { lhs, rhs, .. } if float(lhs) => rhs,
            Stmt::Return { value: Some(e), .. } => e,
            _ => return false,
        };
        match value {
            Expr::Bin { op, .. } => op.is_arith() && float(value),
            Expr::Call { callee, .. } => callee == "sqrt",
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, parse, print_unit};

    fn resolved(src: &str) -> String {
        let mut unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        for f in &mut unit.functions {
            resolve_pragmas(f, &sema);
        }
        print_unit(&unit)
    }

    #[test]
    fn payloads_parse() {
        assert_eq!(prioritized("prioritize( z )"), Some("z"));
        assert!(accepted("prioritize( z )") && accepted("capacity(3)"));
        for bad in ["capacity(3)", "prioritize()", "frobnicate", "prioritize z"] {
            assert_eq!(prioritized(bad), None, "{bad}");
        }
        for bad in ["capacity(0)", "capacity(x)", "prioritize()", "frobnicate"] {
            assert!(!accepted(bad), "{bad}");
        }
    }

    #[test]
    fn keeps_what_governs_and_drops_the_rest() {
        let out = resolved(
            "double f(double x, int n, double a[2]) {\n\
             #pragma safegen prioritize(x)\n\
             double y = x * x;\n\
             #pragma safegen prioritize(a)\n\
             y = y + 1.0;\n\
             #pragma safegen prioritize(n)\n\
             y = y - 1.0;\n\
             #pragma safegen prioritize(x)\n\
             y = fabs(y);\n\
             #pragma safegen capacity(2)\n\
             y = fabs(y);\n\
             #pragma safegen prioritize(x)\n\
             if (y < 0.0) { y = x; }\n\
             { double t = y; }\n\
             #pragma safegen prioritize(t)\n\
             y = y / 2.0;\n\
             return y; }",
        );
        assert_eq!(out.matches("#pragma").count(), 1, "{out}");
        assert!(out.contains("prioritize(x)\n    double y"), "{out}");
    }

    #[test]
    fn last_wins_and_scope_is_lexical() {
        let out = resolved(
            "double f(double x, double z) {\n\
             for (int i = 0; i < 2; i++) {\n\
             double w = x;\n\
             #pragma safegen prioritize(x)\n\
             #pragma safegen capacity(3)\n\
             #pragma safegen prioritize(w)\n\
             #pragma safegen capacity(2)\n\
             x = x * w; }\n\
             #pragma safegen prioritize(w)\n\
             x = x * z;\n\
             return x; }",
        );
        assert_eq!(out.matches("#pragma").count(), 1, "{out}");
        assert!(out.contains("prioritize(w)\n        x = x * w"), "{out}");
    }
}
