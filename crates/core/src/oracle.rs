//! Exact rational interpretation of compiled bytecode — the ground truth
//! for differential soundness testing.
//!
//! [`eval_exact`] runs a [`Program`] over [`safegen_rational::Rational`]
//! values with **no rounding anywhere**: every finite `f64` input and
//! constant is a dyadic rational, `+ − × ÷`, negation, `fabs`,
//! `fmin`/`fmax`, comparisons, and integer control flow are all exact, so
//! the returned value is the true real-arithmetic result of the program
//! at the given input point. A sound domain run on the same point must
//! produce a range that encloses it — that is the whole-pipeline check
//! `safegen fuzz` and the soundness property tests build on.
//!
//! ## What the oracle refuses to decide
//!
//! The oracle only answers when it can answer *exactly*; everything else
//! is a typed [`OracleError`] that callers treat as "skip the exact check
//! for this program", never as a pass or a failure:
//!
//! * [`Unsupported`](OracleError::Unsupported) — `sqrt` (irrational in
//!   general), float→int truncation (needs bigint division), array state,
//!   integer overflow (`+ − ×` and `MIN / -1`), and non-finite
//!   inputs/constants.
//! * [`DivByZero`](OracleError::DivByZero) — the *exact* divisor is zero.
//!   (A float run may divide by a tiny-but-nonzero value; the exact one
//!   is what matters here.)
//! * [`TooBig`](OracleError::TooBig) — a value's numerator or denominator
//!   outgrew [`EvalLimits::max_bits`]. Division-heavy chains can make
//!   exact representations grow multiplicatively; the cap keeps the fuzz
//!   loop's worst case bounded and deterministic.
//! * [`Fuel`](OracleError::Fuel) — instruction budget exhausted (runaway
//!   loop guard; generated programs never get close).

use crate::program::{OpCode, ParamBinding, Program};
use crate::ArgValue;
use safegen_rational::Rational;

/// Reasons the oracle declines to produce an exact result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OracleError {
    /// A construct with no exact rational semantics (or unimplemented
    /// state, like arrays). The payload names it for telemetry.
    Unsupported(&'static str),
    /// Exact division by exactly zero (float or integer).
    DivByZero,
    /// A value's representation exceeded the size cap.
    TooBig,
    /// Instruction budget exhausted.
    Fuel,
}

impl OracleError {
    /// A short name of the reason, the key `safegen fuzz` counts skips
    /// under: the unsupported construct, `division by zero`, `size cap`
    /// or `fuel`.
    pub fn reason(&self) -> &'static str {
        match self {
            OracleError::Unsupported(what) => what,
            OracleError::DivByZero => "division by zero",
            OracleError::TooBig => "size cap",
            OracleError::Fuel => "fuel",
        }
    }
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Unsupported(what) => write!(f, "not exactly representable: {what}"),
            OracleError::DivByZero => write!(f, "exact division by zero"),
            OracleError::TooBig => write!(f, "exact representation exceeded size cap"),
            OracleError::Fuel => write!(f, "instruction budget exhausted"),
        }
    }
}

/// Resource limits for an exact evaluation.
#[derive(Clone, Copy, Debug)]
pub struct EvalLimits {
    /// Max bits of any value's numerator or denominator.
    pub max_bits: usize,
    /// Max executed instructions.
    pub fuel: u64,
}

impl Default for EvalLimits {
    fn default() -> EvalLimits {
        EvalLimits {
            max_bits: 1 << 14,
            fuel: 100_000,
        }
    }
}

/// Evaluates `prog` exactly at the given point inputs.
///
/// Returns the exact return value, or `None` for a void function.
///
/// # Errors
///
/// See [`OracleError`]; all variants mean "no exact answer", not "the
/// program is wrong".
pub fn eval_exact(
    prog: &Program,
    args: &[ArgValue],
    limits: &EvalLimits,
) -> Result<Option<Rational>, OracleError> {
    let mut fregs = vec![Rational::zero(); prog.n_fregs];
    let mut iregs = vec![0i64; prog.n_iregs];

    if args.len() != prog.params.len() {
        return Err(OracleError::Unsupported("argument arity mismatch"));
    }
    for ((_, binding), arg) in prog.params.iter().zip(args) {
        match (binding, arg) {
            (ParamBinding::Float(r), ArgValue::Float(x)) => {
                fregs[*r as usize] =
                    Rational::from_f64(*x).ok_or(OracleError::Unsupported("non-finite input"))?;
            }
            (ParamBinding::Int(r), ArgValue::Int(n)) => iregs[*r as usize] = *n,
            (ParamBinding::Array(_), _) => {
                return Err(OracleError::Unsupported("array parameters"))
            }
            _ => return Err(OracleError::Unsupported("argument kind mismatch")),
        }
    }

    let grow_check = |v: &Rational| -> Result<Rational, OracleError> {
        if v.bits() > limits.max_bits {
            Err(OracleError::TooBig)
        } else {
            Ok(v.clone())
        }
    };
    let constant = |c: f64| -> Result<Rational, OracleError> {
        Rational::from_f64(c).ok_or(OracleError::Unsupported("non-finite constant"))
    };

    let mut pc = 0usize;
    let mut fuel = limits.fuel;
    while pc < prog.code.len() {
        if fuel == 0 {
            return Err(OracleError::Fuel);
        }
        fuel -= 1;
        let next = pc + 1;
        let ins = prog.code[pc];
        let (d, a, b) = (usize::from(ins.dst), usize::from(ins.a), usize::from(ins.b));
        let int_op = |f: fn(i64, i64) -> Option<i64>| {
            f(iregs[a], iregs[b]).ok_or(OracleError::Unsupported("int overflow"))
        };
        // A pragma steers the symbols of affine forms; exact values
        // ignore it.
        match ins.op {
            OpCode::Add => fregs[d] = grow_check(&fregs[a].add(&fregs[b]))?,
            OpCode::Sub => fregs[d] = grow_check(&fregs[a].sub(&fregs[b]))?,
            OpCode::Mul => fregs[d] = grow_check(&fregs[a].mul(&fregs[b]))?,
            OpCode::Div => {
                let q = fregs[a].div(&fregs[b]).ok_or(OracleError::DivByZero)?;
                fregs[d] = grow_check(&q)?;
            }
            OpCode::Sqrt => return Err(OracleError::Unsupported("sqrt")),
            OpCode::Abs => fregs[d] = fregs[a].abs(),
            OpCode::Neg => fregs[d] = fregs[a].neg(),
            OpCode::Min => fregs[d] = fregs[a].min_val(&fregs[b]),
            OpCode::Max => fregs[d] = fregs[a].max_val(&fregs[b]),
            OpCode::ConstF => fregs[d] = constant(prog.fpool[ins.imm as usize])?,
            OpCode::MovF => fregs[d] = fregs[a].clone(),
            OpCode::CastIF => fregs[d] = Rational::from_i64(iregs[a]),
            OpCode::LoadArr | OpCode::StoreArr => {
                return Err(OracleError::Unsupported("array state"))
            }
            OpCode::ConstI => iregs[d] = prog.ipool[ins.imm as usize],
            OpCode::AddI => iregs[d] = int_op(i64::checked_add)?,
            OpCode::SubI => iregs[d] = int_op(i64::checked_sub)?,
            OpCode::MulI => iregs[d] = int_op(i64::checked_mul)?,
            OpCode::DivI => {
                if iregs[b] == 0 {
                    return Err(OracleError::DivByZero);
                }
                iregs[d] = int_op(i64::checked_div)?;
            }
            OpCode::MovI => iregs[d] = iregs[a],
            OpCode::CastFI => {
                // Exact truncation toward zero needs bigint division,
                // which the kernel deliberately does not have.
                return Err(OracleError::Unsupported("float→int truncation"));
            }
            OpCode::CmpI => iregs[d] = i64::from(ins.cmp_op().eval(iregs[a], iregs[b])),
            OpCode::CmpF => {
                // Branch decisions are exact here — there is no "undecided"
                // case for point values.
                iregs[d] = i64::from(ins.cmp_op().eval(&fregs[a], &fregs[b]));
            }
            OpCode::Jump => {
                pc = ins.imm as usize;
                continue;
            }
            OpCode::JumpIfZero => {
                if iregs[a] == 0 {
                    pc = ins.imm as usize;
                    continue;
                }
            }
            OpCode::Ret => return Ok(Some(fregs[a].clone())),
            OpCode::RetVoid => return Ok(None),
            OpCode::MulThenAdd
            | OpCode::MulThenSub
            | OpCode::MulIThenAddI
            | OpCode::CmpIJump
            | OpCode::CmpFJump => return Err(OracleError::Unsupported("superinstruction")),
        }
        pc = next;
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;

    fn exact(src: &str, func: &str, inputs: &[f64]) -> Result<Option<Rational>, OracleError> {
        let compiled = Compiler::new().compile(src).unwrap();
        let args: Vec<ArgValue> = inputs.iter().map(|&x| ArgValue::Float(x)).collect();
        eval_exact(compiled.program(func), &args, &EvalLimits::default())
    }

    #[test]
    fn integer_division_overflow_is_unsupported_not_div_by_zero() {
        let src = "double f(int a, int b) { int c = a / b; return c; }";
        let compiled = Compiler::new().compile(src).unwrap();
        let run = |a: i64, b: i64| {
            let args = [ArgValue::Int(a), ArgValue::Int(b)];
            eval_exact(compiled.program("f"), &args, &EvalLimits::default())
        };
        assert_eq!(
            run(i64::MIN, -1),
            Err(OracleError::Unsupported("int overflow"))
        );
        assert_eq!(run(7, 0), Err(OracleError::DivByZero));
        assert_eq!(run(7, 2), Ok(Some(Rational::from_i64(3))));
    }

    #[test]
    fn straight_line_matches_hand_computation() {
        // 0.1 + 0.2 exactly, with f64-rounded literals: the result is NOT
        // the f64 0.3 but sits within one ulp of 0.30000000000000004.
        let r = exact("double f(double x) { return x + 0.2; }", "f", &[0.1])
            .unwrap()
            .unwrap();
        let fp: f64 = 0.1 + 0.2;
        assert_ne!(r.cmp_f64(0.3), Some(std::cmp::Ordering::Equal));
        assert!(r.in_range(fp.next_down(), fp.next_up()));
    }

    #[test]
    fn division_is_exact_and_zero_guarded() {
        let r = exact("double f(double x) { return 1.0 / x; }", "f", &[4.0])
            .unwrap()
            .unwrap();
        assert_eq!(r.cmp_f64(0.25), Some(std::cmp::Ordering::Equal));
        assert_eq!(
            exact("double f(double x) { return 1.0 / x; }", "f", &[0.0]),
            Err(OracleError::DivByZero)
        );
    }

    #[test]
    fn branches_decided_exactly() {
        let src =
            "double f(double x) { if (x < 0.5) { return x + 1.0; } else { return x - 1.0; } }";
        let lo = exact(src, "f", &[0.25]).unwrap().unwrap();
        assert_eq!(lo.cmp_f64(1.25), Some(std::cmp::Ordering::Equal));
        let hi = exact(src, "f", &[0.75]).unwrap().unwrap();
        assert_eq!(hi.cmp_f64(-0.25), Some(std::cmp::Ordering::Equal));
    }

    #[test]
    fn loop_accumulation_is_exact() {
        let src = "double f(double x) {\n\
                   double s = 0.0;\n\
                   for (int i = 0; i < 10; i++) { s = s + x; }\n\
                   return s; }";
        // 10 × 0.1 exactly is 10 × (0.1's rounded value), not 1.0.
        let r = exact(src, "f", &[0.1]).unwrap().unwrap();
        assert_ne!(r.cmp_f64(1.0), Some(std::cmp::Ordering::Equal));
        let ten_x = Rational::from_f64(0.1)
            .unwrap()
            .mul(&Rational::from_i64(10));
        assert_eq!(r, ten_x);
    }

    #[test]
    fn min_max_abs_neg_are_exact() {
        let src = "double f(double x, double y) { return fmax(fabs(-x), fmin(x, y)); }";
        let r = exact(src, "f", &[-1.5, 2.0]).unwrap().unwrap();
        assert_eq!(r.cmp_f64(1.5), Some(std::cmp::Ordering::Equal));
    }

    #[test]
    fn sqrt_and_nonfinite_inputs_are_refused() {
        assert_eq!(
            exact("double f(double x) { return sqrt(x); }", "f", &[2.0]),
            Err(OracleError::Unsupported("sqrt"))
        );
        assert_eq!(
            exact("double f(double x) { return x; }", "f", &[f64::NAN]),
            Err(OracleError::Unsupported("non-finite input"))
        );
    }

    #[test]
    fn growth_cap_triggers_deterministically() {
        // Repeated division by 3 makes the denominator pick up odd factors
        // the power-of-two normalization cannot strip.
        let src = "double f(double x) {\n\
                   double d = 3.0;\n\
                   for (int i = 0; i < 40000; i++) { x = x / d; }\n\
                   return x; }";
        let err = exact(src, "f", &[1.0]).unwrap_err();
        assert!(
            matches!(err, OracleError::TooBig | OracleError::Fuel),
            "{err:?}"
        );
    }

    #[test]
    fn fuel_guard_stops_runaway_loops() {
        let src = "double f(double x) { while (x < 1.0) { x = x * 1.0; } return x; }";
        assert_eq!(exact(src, "f", &[0.5]), Err(OracleError::Fuel));
    }

    #[test]
    fn int_arithmetic_and_promotion() {
        let src = "double f(double x, int n) { return x * (n + 2); }";
        let compiled = Compiler::new().compile(src).unwrap();
        let r = eval_exact(
            compiled.program("f"),
            &[ArgValue::Float(0.5), ArgValue::Int(6)],
            &EvalLimits::default(),
        )
        .unwrap()
        .unwrap();
        assert_eq!(r.cmp_f64(4.0), Some(std::cmp::Ordering::Equal));
    }
}
