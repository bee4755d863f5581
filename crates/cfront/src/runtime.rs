//! The `aa_*` runtime API that sound C is written against, in one table.
//!
//! Every runtime call is an `aa_<op>_<suffix>` name: [`RUNTIME`] lists
//! each `<op>` with the construct it lowers and its arity, and
//! [`EmitPrecision`] gives each precision's value type and suffix. The
//! emitter ([`crate::emit_c`]) reads the table forward, construct to name;
//! [`crate::reparse_emitted`] reads it backward, name to construct. A
//! runtime header that compiles the emitted C has this table to match.

use crate::ast::BinOp;

/// The prefix of every runtime call.
pub(crate) const PREFIX: &str = "aa_";

/// Affine precision of the emitted code.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EmitPrecision {
    /// `f64a` — double-precision centers (default).
    #[default]
    F64,
    /// `dda` — double-double centers.
    Dd,
    /// `f32a` — single-precision centers.
    F32,
}

impl EmitPrecision {
    /// Every precision, in declaration order.
    pub(crate) const ALL: [EmitPrecision; 3] =
        [EmitPrecision::F64, EmitPrecision::Dd, EmitPrecision::F32];

    /// The C type of an affine value at this precision.
    pub(crate) fn value_type(self) -> &'static str {
        match self {
            EmitPrecision::F64 => "f64a",
            EmitPrecision::Dd => "dda",
            EmitPrecision::F32 => "f32a",
        }
    }

    /// The suffix every runtime call carries at this precision.
    pub(crate) fn suffix(self) -> &'static str {
        match self {
            EmitPrecision::F64 => "f64",
            EmitPrecision::Dd => "dd",
            EmitPrecision::F32 => "f32",
        }
    }
}

/// The plain-C construct a runtime call was lowered from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Construct<'a> {
    /// An arithmetic operator or a comparison.
    Bin(BinOp),
    /// Unary minus.
    Neg,
    /// A literal, wrapped as a sound constant.
    Const,
    /// A math builtin, by its C name.
    Builtin(&'a str),
    /// A cast from `int` to `double`.
    FromInt,
    /// A cast to `int`.
    ToInt,
    /// `#pragma safegen prioritize(v)`, a statement of its own.
    Prioritize,
}

/// One runtime call: `aa_<op>_<suffix>` with `arity` arguments.
#[derive(Debug)]
pub(crate) struct RuntimeCall {
    pub op: &'static str,
    pub construct: Construct<'static>,
    pub arity: usize,
}

const fn call(op: &'static str, construct: Construct<'static>, arity: usize) -> RuntimeCall {
    RuntimeCall {
        op,
        construct,
        arity,
    }
}

/// Every runtime call the emitter writes.
pub(crate) const RUNTIME: &[RuntimeCall] = &[
    call("add", Construct::Bin(BinOp::Add), 2),
    call("sub", Construct::Bin(BinOp::Sub), 2),
    call("mul", Construct::Bin(BinOp::Mul), 2),
    call("div", Construct::Bin(BinOp::Div), 2),
    call("cmp_lt", Construct::Bin(BinOp::Lt), 2),
    call("cmp_le", Construct::Bin(BinOp::Le), 2),
    call("cmp_gt", Construct::Bin(BinOp::Gt), 2),
    call("cmp_ge", Construct::Bin(BinOp::Ge), 2),
    call("cmp_eq", Construct::Bin(BinOp::Eq), 2),
    call("cmp_ne", Construct::Bin(BinOp::Ne), 2),
    call("neg", Construct::Neg, 1),
    call("const", Construct::Const, 1),
    call("sqrt", Construct::Builtin("sqrt"), 1),
    call("abs", Construct::Builtin("fabs"), 1),
    call("min", Construct::Builtin("fmin"), 2),
    call("max", Construct::Builtin("fmax"), 2),
    call("from_int", Construct::FromInt, 1),
    call("to_int", Construct::ToInt, 1),
    call("prioritize", Construct::Prioritize, 1),
];

impl Construct<'_> {
    /// Forward: the runtime call this construct lowers to at precision `p`.
    ///
    /// # Panics
    ///
    /// Panics if the table has no entry for the construct; semantic
    /// analysis admits only the builtins the table lists.
    pub(crate) fn call_name(self, p: EmitPrecision) -> String {
        let entry = RUNTIME
            .iter()
            .find(|c| c.construct == self)
            .unwrap_or_else(|| panic!("no runtime call lowers {self:?}"));
        format!("{PREFIX}{}_{}", entry.op, p.suffix())
    }
}

/// Backward: the table entry an `aa_<op>_<suffix>` name spells, if any.
pub(crate) fn lookup(callee: &str) -> Option<&'static RuntimeCall> {
    let rest = callee.strip_prefix(PREFIX)?;
    let op = EmitPrecision::ALL
        .iter()
        .find_map(|p| rest.strip_suffix(p.suffix())?.strip_suffix('_'))?;
    RUNTIME.iter().find(|c| c.op == op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, emit_c, parse, print_unit, reparse_emitted};

    /// A one-statement program that exercises `construct`.
    fn source(construct: Construct<'_>, arity: usize) -> String {
        let stmt = match construct {
            Construct::Bin(op) => format!("a {} b;", op.text()),
            Construct::Neg => "-a;".to_string(),
            Construct::Const => "0.5;".to_string(),
            Construct::Builtin(name) if arity == 1 => format!("{name}(a);"),
            Construct::Builtin(name) => format!("{name}(a, b);"),
            Construct::FromInt => "(double) n;".to_string(),
            Construct::ToInt => "(int) a;".to_string(),
            Construct::Prioritize => "\n#pragma safegen prioritize(a)\n".to_string(),
        };
        format!("void f(double a, double b, int n) {{ {stmt} }}")
    }

    /// Every runtime call at every precision: the construct emits as that
    /// call, and re-absorbing the emitted C gives the construct back.
    #[test]
    fn every_runtime_call_round_trips_at_every_precision() {
        for entry in RUNTIME {
            for p in EmitPrecision::ALL {
                let src = source(entry.construct, entry.arity);
                let unit = parse(&src).unwrap();
                let sema = analyze(&unit).unwrap();
                let emitted = emit_c(&unit, &sema, p);
                let name = format!("aa_{}_{}(", entry.op, p.suffix());
                assert!(emitted.contains(&name), "{name} missing:\n{emitted}");
                let back = reparse_emitted(&emitted)
                    .unwrap_or_else(|e| panic!("{name}: does not reparse: {e}\n{emitted}"));
                assert_eq!(print_unit(&back), print_unit(&unit), "{name}");
            }
        }
    }

    #[test]
    fn names_and_constructs_are_unique() {
        for (i, a) in RUNTIME.iter().enumerate() {
            for b in &RUNTIME[i + 1..] {
                assert_ne!(a.op, b.op);
                assert_ne!(a.construct, b.construct);
            }
        }
    }
}
