//! The sound-C backend: emits the transformed program as C source against
//! the `aa_*` runtime API — the artifact shape of the paper (Fig. 2).
//!
//! It is the affine dialect of the printer. Declarations swap
//! `double`/`float` for the affine value type (`f64a`, `f32a`, or `dda`),
//! and every floating-point operation becomes a runtime call named by
//! [`crate::runtime`]. An `int` operand of a float operation goes through
//! `aa_from_int`, and a float value in integer code (a cast to `int`)
//! through `aa_to_int`. `#pragma safegen prioritize(v)` lines lower to
//! `aa_prioritize(v)` calls, exactly as the paper describes the pragma
//! replacement, before the statements [`crate::resolve_pragmas`] keeps
//! them on: the statements where the compiled program applies them.

use crate::ast::{Expr, Function, Ty, UnOp, Unit};
use crate::pragma::{resolve_pragmas, Pragma};
use crate::printer::{print_expr_with, print_unit_in, Dialect, Slot};
use crate::runtime::{Construct, EmitPrecision};
use crate::sema::Sema;

/// Emits sound C for a whole (TAC-form) unit.
pub fn emit_c(unit: &Unit, sema: &Sema, precision: EmitPrecision) -> String {
    let mut unit = unit.clone();
    for f in &mut unit.functions {
        resolve_pragmas(f, sema);
    }
    print_unit_in(&unit, &Affine { sema, p: precision })
}

struct Affine<'a> {
    sema: &'a Sema,
    p: EmitPrecision,
}

impl Affine<'_> {
    fn is_float(&self, f: &Function, e: &Expr) -> bool {
        self.sema.type_of(&f.name, e).is_float()
    }

    fn call(&self, construct: Construct<'_>, args: &[String]) -> String {
        format!("{}({})", construct.call_name(self.p), args.join(", "))
    }

    /// A floating-point expression as nested runtime calls.
    fn expr(&self, f: &Function, e: &Expr) -> String {
        match e {
            Expr::FloatLit { value, .. } => self.call(Construct::Const, &[format!("{value:?}")]),
            Expr::IntLit { value, .. } => self.call(Construct::Const, &[format!("{value}.0")]),
            Expr::Un {
                op: UnOp::Neg,
                operand,
                ..
            } => self.call(Construct::Neg, &[self.expr(f, operand)]),
            _ if !self.is_float(f, e) => self.call(Construct::FromInt, &[self.int(f, e)]),
            Expr::Ident { name, .. } => name.clone(),
            Expr::Index { base, index, .. } => {
                format!("{}[{}]", self.expr(f, base), self.int(f, index))
            }
            Expr::Bin { op, lhs, rhs, .. } => {
                self.call(Construct::Bin(*op), &[self.expr(f, lhs), self.expr(f, rhs)])
            }
            Expr::Call { callee, args, .. } => {
                let args: Vec<String> = args.iter().map(|a| self.expr(f, a)).collect();
                self.call(Construct::Builtin(callee), &args)
            }
            // A float-typed cast (`!` is `int`-typed, handled above).
            Expr::Cast { operand, .. } | Expr::Un { operand, .. } => self.expr(f, operand),
        }
    }

    /// An integer expression: plain C, with every float value in it (a
    /// float comparison, or a float converted to `int`) a runtime call.
    fn int(&self, f: &Function, e: &Expr) -> String {
        print_expr_with(e, &|sub| match sub {
            Expr::Bin { op, lhs, rhs, .. }
                if op.is_cmp() && (self.is_float(f, lhs) || self.is_float(f, rhs)) =>
            {
                Some(self.call(Construct::Bin(*op), &[self.expr(f, lhs), self.expr(f, rhs)]))
            }
            Expr::Cast {
                ty: Ty::Int,
                operand,
                ..
            } if self.is_float(f, operand) => {
                Some(self.call(Construct::ToInt, &[self.expr(f, operand)]))
            }
            _ if self.is_float(f, sub) => Some(self.call(Construct::ToInt, &[self.expr(f, sub)])),
            _ => None,
        })
    }
}

impl Dialect for Affine<'_> {
    fn scalar(&self, ty: &Ty) -> &'static str {
        match ty {
            Ty::Void => "void",
            Ty::Int => "int",
            _ => self.p.value_type(),
        }
    }

    fn value(&self, f: &Function, e: &Expr, slot: Slot<'_>) -> String {
        let float = match slot {
            Slot::Init(ty) => ty.is_float(),
            Slot::Assign(lhs) => self.is_float(f, lhs),
            Slot::Return => f.ret.is_float(),
            Slot::Stmt => self.is_float(f, e),
            Slot::Cond => false,
        };
        if float {
            self.expr(f, e)
        } else {
            self.int(f, e)
        }
    }

    fn pragma(&self, payload: &str) -> Option<String> {
        // The pragma lowers to the runtime prioritization call; the
        // runtime has no capacity call.
        let Some(Pragma::Prioritize(var)) = Pragma::parse(payload) else {
            return None;
        };
        Some(format!(
            "{};",
            self.call(Construct::Prioritize, &[var.to_string()])
        ))
    }

    fn preamble(&self) -> &'static str {
        "/* Generated by SafeGen-rs: sound affine-arithmetic version. */\n\
         #include \"safegen_aa.h\"\n\n"
    }

    fn separator(&self, _last: bool) -> &'static str {
        "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, parse};

    fn emit_at(src: &str, p: EmitPrecision) -> String {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        emit_c(&unit, &sema, p)
    }

    fn emit(src: &str) -> String {
        emit_at(src, EmitPrecision::F64)
    }

    #[test]
    fn fig2_shape() {
        // The paper's Fig. 2: c = a * b + 0.1 becomes affine calls with a
        // sound constant.
        let out = emit(
            "void f(double a, double b, double c) {
                 c = a * b + 0.1;
             }",
        );
        assert!(out.contains("f64a a"), "{out}");
        assert!(out.contains("aa_mul_f64(a, b)"), "{out}");
        assert!(out.contains("aa_const_f64(0.1)"), "{out}");
        assert!(out.contains("aa_add_f64("), "{out}");
    }

    #[test]
    fn declarations_change_type() {
        let out = emit("double f(double x) { double y = x; return y; }");
        assert!(out.contains("f64a f(f64a x)"), "{out}");
        assert!(out.contains("f64a y = x;"), "{out}");
    }

    #[test]
    fn int_code_untouched() {
        let out =
            emit("void f(double a[4]) { for (int i = 0; i < 4; i = i + 1) { a[i] = a[i]; } }");
        assert!(out.contains("for (int i = 0; i < 4; i = i + 1)"), "{out}");
        assert!(out.contains("f64a a[4]"), "{out}");
    }

    #[test]
    fn sqrt_maps_to_paper_name() {
        // Paper: sqrt(x) is transformed to aa_sqrt_f64(x).
        let out = emit("double f(double x) { return sqrt(x); }");
        assert!(out.contains("aa_sqrt_f64(x)"), "{out}");
    }

    #[test]
    fn pragma_lowered_to_prioritize_call() {
        let out = emit("void f(double x, double z) {\n#pragma safegen prioritize(z)\nx = x * z; }");
        assert!(out.contains("    aa_prioritize_f64(z);"), "{out}");
    }

    #[test]
    fn dd_precision_types() {
        let out = emit_at("double f(double x) { return x * x; }", EmitPrecision::Dd);
        assert!(out.contains("dda f(dda x)"), "{out}");
        assert!(out.contains("aa_mul_dd(x, x)"), "{out}");
    }

    #[test]
    fn float_comparisons_lowered() {
        let out = emit("double f(double x) { if (x < 0.0) { return x; } return x; }");
        assert!(out.contains("aa_cmp_lt_f64(x, aa_const_f64(0.0))"), "{out}");
    }

    #[test]
    fn constants_print_round_trippable() {
        let out = emit("double f() { return 0.30000000000000004; }");
        assert!(out.contains("aa_const_f64(0.30000000000000004)"), "{out}");
    }
}
