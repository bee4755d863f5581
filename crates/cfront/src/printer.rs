//! Pretty-printer: AST back to C source, in a [`Dialect`].
//!
//! Plain C ([`print_unit`]) serves golden tests and the SIMD-to-C-style
//! preprocessing round trip. The sound-C emitter ([`crate::emit_c`]) is
//! the affine dialect of the same printer: the statement layout is shared,
//! and the dialect renames the float types and renders float values,
//! conditions and pragmas as `aa_*` runtime calls.

use crate::ast::*;
use std::fmt::Write;

/// Where a value stands in a statement, so a dialect can tell float
/// values from integer ones.
pub(crate) enum Slot<'a> {
    /// A declaration's initializer, of the declared type.
    Init(&'a Ty),
    /// An assignment's right-hand side, of the left-hand side's type.
    Assign(&'a Expr),
    /// A returned value, of its own type.
    Return,
    /// An expression statement.
    Stmt,
}

/// What a C dialect renders differently from plain C. Every method
/// defaults to plain C.
pub(crate) trait Dialect {
    /// The name of a scalar type (`void`, `int`, `float`, `double`).
    fn scalar(&self, ty: &Ty) -> &'static str {
        type_prefix(ty)
    }

    /// A value in `slot` of a statement in `f`.
    fn value(&self, _f: &Function, e: &Expr, _slot: Slot<'_>) -> String {
        print_expr(e)
    }

    /// The condition of an `if`, `while` or `for` in `f`.
    fn cond(&self, _f: &Function, e: &Expr) -> String {
        print_expr(e)
    }

    /// The line a `#pragma safegen` payload prints as, or `None` to drop
    /// it. A line starting with `#` prints at column 0, like the
    /// preprocessor wrote it; any other line is an indented statement.
    fn pragma(&self, payload: &str) -> Option<String> {
        Some(format!("#pragma safegen {payload}"))
    }

    /// The text before the first function.
    fn preamble(&self) -> &'static str {
        ""
    }

    /// The text after a function; `last` marks the final one.
    fn separator(&self, last: bool) -> &'static str {
        if last {
            ""
        } else {
            "\n"
        }
    }
}

/// Plain C.
struct Plain;

impl Dialect for Plain {}

/// Prints a whole translation unit.
pub fn print_unit(unit: &Unit) -> String {
    print_unit_in(unit, &Plain)
}

/// Prints a whole translation unit in dialect `d`.
pub(crate) fn print_unit_in(unit: &Unit, d: &dyn Dialect) -> String {
    let mut out = d.preamble().to_string();
    for (i, f) in unit.functions.iter().enumerate() {
        print_function_in(&mut out, f, d);
        out.push_str(d.separator(i + 1 == unit.functions.len()));
    }
    out
}

/// Prints one function definition.
pub fn print_function(f: &Function) -> String {
    let mut out = String::new();
    print_function_in(&mut out, f, &Plain);
    out
}

fn print_function_in(out: &mut String, f: &Function, d: &dyn Dialect) {
    let _ = write!(out, "{} {}(", d.scalar(f.ret.scalar()), f.name);
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&declarator(&p.ty, &p.name, d));
    }
    out.push_str(") {\n");
    StmtPrinter { d, f }.block(out, &f.body, 1);
    out.push_str("}\n");
}

/// The plain-C base-type prefix of a declaration (`double`, `int`, …).
fn type_prefix(ty: &Ty) -> &'static str {
    match ty.scalar() {
        Ty::Void => "void",
        Ty::Int => "int",
        Ty::Float => "float",
        Ty::Double => "double",
        _ => unreachable!("scalar() returns a scalar"),
    }
}

/// Renders `ty name` with C declarator syntax (arrays and pointers).
fn declarator(ty: &Ty, name: &str, d: &dyn Dialect) -> String {
    fn suffix(ty: &Ty, out: &mut String) {
        if let Ty::Array(inner, n) = ty {
            let _ = write!(out, "[{n}]");
            suffix(inner, out);
        }
    }
    let base = d.scalar(ty.scalar());
    match ty {
        Ty::Ptr(_) => format!("{base} *{name}"),
        Ty::Array(..) => {
            let mut s = format!("{base} {name}");
            suffix(ty, &mut s);
            s
        }
        _ => format!("{base} {name}"),
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

/// The statements of one function, in one dialect.
struct StmtPrinter<'a> {
    d: &'a dyn Dialect,
    f: &'a Function,
}

impl StmtPrinter<'_> {
    fn block(&self, out: &mut String, body: &[Stmt], level: usize) {
        for s in body {
            self.stmt(out, s, level);
        }
    }

    fn inline(&self, s: &Stmt) -> String {
        let mut out = String::new();
        self.stmt(&mut out, s, 0);
        out.trim_end_matches(";\n").to_string()
    }

    fn stmt(&self, out: &mut String, s: &Stmt, level: usize) {
        let (d, f) = (self.d, self.f);
        match s {
            Stmt::Decl { ty, name, init, .. } => {
                indent(out, level);
                out.push_str(&declarator(ty, name, d));
                if let Some(e) = init {
                    out.push_str(" = ");
                    out.push_str(&d.value(f, e, Slot::Init(ty)));
                }
                out.push_str(";\n");
            }
            Stmt::Assign { lhs, op, rhs, .. } => {
                indent(out, level);
                let opstr = match op {
                    AssignOp::Set => "=",
                    AssignOp::Add => "+=",
                    AssignOp::Sub => "-=",
                    AssignOp::Mul => "*=",
                    AssignOp::Div => "/=",
                };
                let rhs = d.value(f, rhs, Slot::Assign(lhs));
                let _ = writeln!(out, "{} {opstr} {rhs};", print_expr(lhs));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                indent(out, level);
                let _ = writeln!(out, "if ({}) {{", d.cond(f, cond));
                self.block(out, then_body, level + 1);
                indent(out, level);
                if else_body.is_empty() {
                    out.push_str("}\n");
                } else {
                    out.push_str("} else {\n");
                    self.block(out, else_body, level + 1);
                    indent(out, level);
                    out.push_str("}\n");
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                ..
            } => {
                indent(out, level);
                out.push_str("for (");
                if let Some(i) = init {
                    out.push_str(&self.inline(i));
                }
                out.push_str("; ");
                if let Some(c) = cond {
                    out.push_str(&d.cond(f, c));
                }
                out.push_str("; ");
                if let Some(st) = step {
                    out.push_str(&self.inline(st));
                }
                out.push_str(") {\n");
                self.block(out, body, level + 1);
                indent(out, level);
                out.push_str("}\n");
            }
            Stmt::While { cond, body, .. } => {
                indent(out, level);
                let _ = writeln!(out, "while ({}) {{", d.cond(f, cond));
                self.block(out, body, level + 1);
                indent(out, level);
                out.push_str("}\n");
            }
            Stmt::Return { value, .. } => {
                indent(out, level);
                match value {
                    Some(e) => {
                        let _ = writeln!(out, "return {};", d.value(f, e, Slot::Return));
                    }
                    None => out.push_str("return;\n"),
                }
            }
            Stmt::ExprStmt { expr, .. } => {
                indent(out, level);
                let _ = writeln!(out, "{};", d.value(f, expr, Slot::Stmt));
            }
            Stmt::Pragma { payload, .. } => {
                if let Some(line) = d.pragma(payload) {
                    if !line.starts_with('#') {
                        indent(out, level);
                    }
                    out.push_str(&line);
                    out.push('\n');
                }
            }
            Stmt::Block { body, .. } => {
                indent(out, level);
                out.push_str("{\n");
                self.block(out, body, level + 1);
                indent(out, level);
                out.push_str("}\n");
            }
        }
    }
}

/// Prints an expression with minimal (structural) parenthesization.
pub fn print_expr(e: &Expr) -> String {
    fn go(e: &Expr, parent_prec: u8, out: &mut String) {
        match e {
            Expr::IntLit { value, .. } => {
                let _ = write!(out, "{value}");
            }
            Expr::FloatLit { value, .. } => {
                // Round-trippable literal: always include a decimal point
                // or exponent so it re-lexes as a float.
                let s = format!("{value}");
                let _ =
                    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN")
                    {
                        write!(out, "{s}")
                    } else {
                        write!(out, "{s}.0")
                    };
            }
            Expr::Ident { name, .. } => out.push_str(name),
            Expr::Index { base, index, .. } => {
                go(base, 100, out);
                out.push('[');
                go(index, 0, out);
                out.push(']');
            }
            Expr::Bin { op, lhs, rhs, .. } => {
                let prec = bin_prec(*op);
                let need = prec < parent_prec;
                if need {
                    out.push('(');
                }
                go(lhs, prec, out);
                let _ = write!(out, " {} ", op.text());
                go(rhs, prec + 1, out);
                if need {
                    out.push(')');
                }
            }
            Expr::Un { op, operand, .. } => {
                out.push(match op {
                    UnOp::Neg => '-',
                    UnOp::Not => '!',
                });
                // `--x` would lex as a decrement: parenthesize an operand
                // that itself renders with a leading sign.
                let mut inner = String::new();
                go(operand, 99, &mut inner);
                if inner.starts_with('-') || inner.starts_with('!') {
                    out.push('(');
                    out.push_str(&inner);
                    out.push(')');
                } else {
                    out.push_str(&inner);
                }
            }
            Expr::Call { callee, args, .. } => {
                out.push_str(callee);
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    go(a, 0, out);
                }
                out.push(')');
            }
            Expr::Cast { ty, operand, .. } => {
                let _ = write!(out, "({}) ", type_prefix(ty));
                go(operand, 99, out);
            }
        }
    }
    let mut out = String::new();
    go(e, 0, &mut out);
    out
}

fn bin_prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne => 3,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
        BinOp::Add | BinOp::Sub => 5,
        BinOp::Mul | BinOp::Div => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Parse → print → parse must be a fixpoint (ASTs equal modulo spans).
    fn round_trip(src: &str) {
        let u1 = parse(src).unwrap();
        let printed = print_unit(&u1);
        let u2 = parse(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        let p1 = print_unit(&u1);
        let p2 = print_unit(&u2);
        assert_eq!(p1, p2, "print/parse not idempotent for:\n{src}");
    }

    #[test]
    fn round_trips_basics() {
        round_trip("double f(double x) { return x * x + 1.0; }");
        round_trip("void f(double a[4]) { for (int i = 0; i < 4; i++) a[i] = a[i] / 2.0; }");
        round_trip("void f(double *p, int n) { while (n > 0) { p[0] += 1.5e-3; n -= 1; } }");
        round_trip("double f(double x) { if (x < 0.0) { return -x; } else { return sqrt(x); } }");
        round_trip("void g(double m[3][3]) { m[0][1] = m[1][0] * 2.0; }");
    }

    #[test]
    fn parenthesization_preserves_shape() {
        let u = parse("double f(double a, double b, double c) { return (a + b) * c; }").unwrap();
        let s = print_function(&u.functions[0]);
        assert!(s.contains("(a + b) * c"), "{s}");
    }

    #[test]
    fn no_spurious_parens() {
        let u = parse("double f(double a, double b, double c) { return a + b * c; }").unwrap();
        let s = print_function(&u.functions[0]);
        assert!(s.contains("a + b * c"), "{s}");
    }

    #[test]
    fn float_literals_relex_as_floats() {
        round_trip("double f() { return 1.0 + 2.5 + 1e10 + 0.001; }");
        let u = parse("double f() { return 2.0; }").unwrap();
        let s = print_unit(&u);
        assert!(s.contains("2.0") || s.contains("2e0"), "{s}");
    }

    #[test]
    fn prints_pragma() {
        let u = parse("void f(double x) {\n#pragma safegen prioritize(x)\nx = x + 1.0; }").unwrap();
        let s = print_unit(&u);
        assert!(s.contains("#pragma safegen prioritize(x)"), "{s}");
        round_trip("void f(double x) {\n#pragma safegen prioritize(x)\nx = x + 1.0; }");
    }

    #[test]
    fn prints_declarators() {
        let u = parse("void f(double *p, double a[2][3], int n) { }").unwrap();
        let s = print_unit(&u);
        assert!(s.contains("double *p"), "{s}");
        assert!(s.contains("double a[2][3]"), "{s}");
        assert!(s.contains("int n"), "{s}");
    }

    #[test]
    fn unary_in_binary_context() {
        round_trip("double f(double x) { return -x * 2.0 - -1.0; }");
    }
}
