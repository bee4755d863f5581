//! Semantic analysis: symbol tables, type inference and checking.
//!
//! Populates a [`Sema`] table used by the TAC lowering in `safegen-ir`:
//! every variable gets its declared type; every expression can be typed
//! via [`Sema::type_of`]. The checks reject programs outside the supported
//! subset early, with source locations.

use crate::ast::*;
use crate::error::{Diagnostic, ParseError};
use crate::pragma::Pragma;
use crate::token::Span;
use std::collections::HashMap;

/// Known math builtins and their arities.
const BUILTINS: &[(&str, usize)] = &[("sqrt", 1), ("fabs", 1), ("fmin", 2), ("fmax", 2)];

/// Information about a declared variable.
#[derive(Clone, Debug, PartialEq)]
pub struct VarInfo {
    /// Declared type.
    pub ty: Ty,
    /// True for function parameters.
    pub is_param: bool,
    /// Declaration site.
    pub span: Span,
}

/// Per-function analysis result.
#[derive(Clone, Debug, Default)]
pub struct FnInfo {
    /// All declared variables (params and locals) by name.
    ///
    /// The subset requires unique names per function (no shadowing), which
    /// keeps the TAC and DAG name-keyed — as the paper's TAC form does.
    pub vars: HashMap<String, VarInfo>,
}

/// The analysis table for a unit.
#[derive(Clone, Debug, Default)]
pub struct Sema {
    /// Per-function tables, keyed by function name.
    pub functions: HashMap<String, FnInfo>,
}

impl Sema {
    /// Looks up a variable in a function.
    pub fn var(&self, func: &str, name: &str) -> Option<&VarInfo> {
        self.functions.get(func)?.vars.get(name)
    }

    /// Infers the type of an expression in the scope of `func`.
    ///
    /// # Panics
    ///
    /// Panics if the expression refers to unknown variables — analysis must
    /// have succeeded first.
    pub fn type_of(&self, func: &str, e: &Expr) -> Ty {
        let vars = &self.functions[func].vars;
        type_of_expr(vars, e).expect("analyze() must succeed before type_of")
    }
}

fn type_of_expr(vars: &HashMap<String, VarInfo>, e: &Expr) -> Result<Ty, Diagnostic> {
    match e {
        Expr::IntLit { .. } => Ok(Ty::Int),
        Expr::FloatLit { .. } => Ok(Ty::Double),
        Expr::Ident { name, span } => vars
            .get(name)
            .map(|v| v.ty.clone())
            .ok_or_else(|| Diagnostic::new(format!("unknown variable `{name}`"), *span)),
        Expr::Index { base, index, span } => {
            let bt = type_of_expr(vars, base)?;
            let it = type_of_expr(vars, index)?;
            if it != Ty::Int {
                return Err(Diagnostic::new(
                    "array index must be an int expression",
                    index.span(),
                ));
            }
            match bt {
                Ty::Array(inner, _) | Ty::Ptr(inner) => Ok(*inner),
                other => Err(Diagnostic::new(
                    format!("cannot index a value of type {other:?}"),
                    *span,
                )),
            }
        }
        Expr::Bin { op, lhs, rhs, span } => {
            let lt = type_of_expr(vars, lhs)?;
            let rt = type_of_expr(vars, rhs)?;
            if lt.rank() > 0 || rt.rank() > 0 {
                return Err(Diagnostic::new(
                    "arithmetic on arrays is not supported",
                    *span,
                ));
            }
            if op.is_cmp() || matches!(op, BinOp::And | BinOp::Or) {
                return Ok(Ty::Int);
            }
            // Usual arithmetic conversions within the subset.
            Ok(match (lt, rt) {
                (Ty::Double, _) | (_, Ty::Double) => Ty::Double,
                (Ty::Float, _) | (_, Ty::Float) => Ty::Float,
                _ => Ty::Int,
            })
        }
        Expr::Un { op, operand, .. } => {
            let t = type_of_expr(vars, operand)?;
            match op {
                UnOp::Neg => Ok(t),
                UnOp::Not => Ok(Ty::Int),
            }
        }
        Expr::Call { callee, args, span } => {
            let Some(&(_, arity)) = BUILTINS.iter().find(|(n, _)| n == callee) else {
                return Err(Diagnostic::new(
                    format!("unknown function `{callee}` (supported: sqrt, fabs, fmin, fmax)"),
                    *span,
                ));
            };
            if args.len() != arity {
                return Err(Diagnostic::new(
                    format!("`{callee}` takes {arity} argument(s), got {}", args.len()),
                    *span,
                ));
            }
            for a in args {
                let t = type_of_expr(vars, a)?;
                if t.rank() > 0 {
                    return Err(Diagnostic::new("array passed to math builtin", a.span()));
                }
            }
            Ok(Ty::Double)
        }
        Expr::Cast { ty, operand, .. } => {
            type_of_expr(vars, operand)?;
            Ok(ty.clone())
        }
    }
}

/// Analyzes a unit, returning the symbol tables.
///
/// # Errors
///
/// Returns every diagnostic found (duplicate declarations, unknown
/// variables, type errors, unsupported constructs).
pub fn analyze(unit: &Unit) -> Result<Sema, ParseError> {
    let mut sema = Sema::default();
    let mut diags = Vec::new();
    for f in &unit.functions {
        let mut info = FnInfo::default();
        for p in &f.params {
            if p.ty == Ty::Void {
                diags.push(Diagnostic::new("void parameter", p.span));
            }
            if info
                .vars
                .insert(
                    p.name.clone(),
                    VarInfo {
                        ty: p.ty.clone(),
                        is_param: true,
                        span: p.span,
                    },
                )
                .is_some()
            {
                diags.push(Diagnostic::new(
                    format!("duplicate parameter `{}`", p.name),
                    p.span,
                ));
            }
        }
        check_block(&f.body, &mut info, &f.ret, &mut diags);
        sema.functions.insert(f.name.clone(), info);
    }
    if diags.is_empty() {
        Ok(sema)
    } else {
        Err(ParseError { diagnostics: diags })
    }
}

fn check_block(body: &[Stmt], info: &mut FnInfo, ret: &Ty, diags: &mut Vec<Diagnostic>) {
    for s in body {
        check_stmt(s, info, ret, diags);
    }
}

fn check_stmt(s: &Stmt, info: &mut FnInfo, ret: &Ty, diags: &mut Vec<Diagnostic>) {
    match s {
        Stmt::Decl {
            ty,
            name,
            init,
            span,
        } => {
            if let Some(e) = init {
                check_expr(e, info, diags);
                if ty.rank() > 0 {
                    diags.push(Diagnostic::new(
                        "array initializers are not supported",
                        *span,
                    ));
                }
            }
            if info
                .vars
                .insert(
                    name.clone(),
                    VarInfo {
                        ty: ty.clone(),
                        is_param: false,
                        span: *span,
                    },
                )
                .is_some()
            {
                diags.push(Diagnostic::new(
                    format!("duplicate declaration of `{name}` (the subset forbids shadowing)"),
                    *span,
                ));
            }
        }
        Stmt::Assign { lhs, rhs, span, .. } => {
            let lt = check_expr(lhs, info, diags);
            let rt = check_expr(rhs, info, diags);
            if let (Some(lt), Some(rt)) = (lt, rt) {
                if lt.rank() > 0 {
                    diags.push(Diagnostic::new("cannot assign to a whole array", *span));
                }
                if lt == Ty::Int && rt.is_float() {
                    diags.push(Diagnostic::new(
                        "implicit float-to-int assignment; use an explicit cast",
                        *span,
                    ));
                }
            }
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
            ..
        } => {
            check_expr(cond, info, diags);
            check_block(then_body, info, ret, diags);
            check_block(else_body, info, ret, diags);
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
            ..
        } => {
            if let Some(i) = init {
                check_stmt(i, info, ret, diags);
            }
            if let Some(c) = cond {
                check_expr(c, info, diags);
            }
            if let Some(st) = step {
                check_stmt(st, info, ret, diags);
            }
            check_block(body, info, ret, diags);
        }
        Stmt::While { cond, body, .. } => {
            check_expr(cond, info, diags);
            check_block(body, info, ret, diags);
        }
        Stmt::Return { value, span } => match (value, *ret == Ty::Void) {
            (None, true) => {}
            (None, false) => diags.push(Diagnostic::new("missing return value", *span)),
            (Some(_), true) => diags.push(Diagnostic::new("void function returns a value", *span)),
            (Some(e), false) => {
                check_expr(e, info, diags);
            }
        },
        Stmt::ExprStmt { expr, .. } => {
            check_expr(expr, info, diags);
        }
        Stmt::Pragma { payload, span } => {
            if Pragma::parse(payload).is_none() {
                diags.push(Diagnostic::new(
                    format!("unsupported safegen pragma `{payload}`"),
                    *span,
                ));
            }
        }
        Stmt::Block { body, .. } => check_block(body, info, ret, diags),
    }
}

fn check_expr(e: &Expr, info: &FnInfo, diags: &mut Vec<Diagnostic>) -> Option<Ty> {
    match type_of_expr(&info.vars, e) {
        Ok(t) => Some(t),
        Err(d) => {
            diags.push(d);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyze_src(src: &str) -> Result<Sema, ParseError> {
        analyze(&parse(src).unwrap())
    }

    #[test]
    fn collects_variables() {
        let s = analyze_src("void f(double x, int n) { double y = x; }").unwrap();
        assert_eq!(s.var("f", "x").unwrap().ty, Ty::Double);
        assert!(s.var("f", "x").unwrap().is_param);
        assert_eq!(s.var("f", "y").unwrap().ty, Ty::Double);
        assert!(!s.var("f", "y").unwrap().is_param);
        assert_eq!(s.var("f", "n").unwrap().ty, Ty::Int);
    }

    #[test]
    fn types_expressions() {
        let src = "void f(double x, int i, double a[4]) { double y = x; }";
        let unit = parse(src).unwrap();
        let s = analyze(&unit).unwrap();
        let ty = |expr_src: &str| {
            let u = parse(&format!(
                "void g(double x, int i, double a[4]) {{ double t = {expr_src}; }}"
            ))
            .unwrap();
            let Stmt::Decl { init: Some(e), .. } = &u.functions[0].body[0] else {
                panic!()
            };
            let s2 = analyze(&u).unwrap();
            s2.type_of("g", e)
        };
        assert_eq!(ty("x + 1.0"), Ty::Double);
        assert_eq!(ty("i + 1"), Ty::Int);
        assert_eq!(ty("x + i"), Ty::Double); // promotion
        assert_eq!(ty("a[i]"), Ty::Double);
        assert_eq!(ty("x < 1.0"), Ty::Int);
        assert_eq!(ty("sqrt(x)"), Ty::Double);
        let _ = s;
    }

    #[test]
    fn rejects_unknown_variable() {
        assert!(analyze_src("void f() { x = 1.0; }").is_err());
    }

    #[test]
    fn rejects_duplicate_declaration() {
        assert!(analyze_src("void f() { double x; double x; }").is_err());
    }

    #[test]
    fn rejects_unknown_function() {
        assert!(analyze_src("void f(double x) { x = sin(x); }").is_err());
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(analyze_src("void f(double x) { x = sqrt(x, x); }").is_err());
    }

    #[test]
    fn rejects_non_int_index() {
        assert!(analyze_src("void f(double a[4], double x) { a[x] = 1.0; }").is_err());
    }

    #[test]
    fn rejects_implicit_narrowing() {
        assert!(analyze_src("void f(int i, double x) { i = x; }").is_err());
        assert!(analyze_src("void f(int i, double x) { i = (int) x; }").is_ok());
    }

    #[test]
    fn rejects_void_return_mismatch() {
        assert!(analyze_src("void f() { return 1.0; }").is_err());
        assert!(analyze_src("double f() { return; }").is_err());
        assert!(analyze_src("double f(double x) { return x; }").is_ok());
    }

    #[test]
    fn accepts_2d_indexing() {
        assert!(analyze_src("void f(double g[3][3], int i) { g[i][0] = g[0][i] + 1.0; }").is_ok());
    }

    #[test]
    fn validates_pragma_payload() {
        assert!(
            analyze_src("void f(double x) {\n#pragma safegen prioritize(x)\nx = x + 1.0; }")
                .is_ok()
        );
        assert!(
            analyze_src("void f(double x) {\n#pragma safegen frobnicate\nx = x + 1.0; }").is_err()
        );
    }

    #[test]
    fn multiple_diagnostics_reported() {
        let err = analyze_src("void f() { a = 1.0; b = 2.0; }").unwrap_err();
        assert!(err.diagnostics.len() >= 2);
    }
}
