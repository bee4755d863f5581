//! Exhaustive-grid tests of the directed-rounding and double-double
//! primitives against the exact rational oracle (`safegen-rational`).
//!
//! Every finite `f64` converts exactly to a rational, and rational
//! add/sub/mul/div/square are exact, so these tests state the *real*
//! contracts with no tolerance fudging:
//!
//! * `op_rd(a, b) ≤ a ∘ b ≤ op_ru(a, b)` exactly, and the bracket is
//!   *tight* — at most one ulp wide;
//! * `sqrt_rd(a)² ≤ a ≤ sqrt_ru(a)²` (square roots are irrational, so
//!   the comparison happens on the squares, which rationals do exactly);
//! * `Dd` arithmetic stays within its advertised relative-error bounds
//!   (`DD_*_REL`), plus a subnormal-scale absolute slack where the `lo`
//!   limb underflows;
//! * the widened `Dd` directed ops bracket the exact result.
//!
//! The operand grid deliberately includes zeros of both signs, exact
//! powers of two, classic inexact decimals, the smallest subnormals, and
//! near-overflow magnitudes.

use safegen_fpcore::dd::{DD_ADD_REL, DD_DIV_REL, DD_MUL_REL, DD_SQRT_REL};
use safegen_fpcore::round::{
    add_rd, add_ru, div_rd, div_ru, mul_rd, mul_ru, sqrt_rd, sqrt_ru, sub_rd, sub_ru, sum_bound,
};
use safegen_fpcore::Dd;
use safegen_rational::Rational;
use std::cmp::Ordering;

/// Finite operands spanning the interesting ranges of binary64.
fn operands() -> Vec<f64> {
    vec![
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        -0.5,
        3.0,
        0.1,
        -0.1,
        1.0 / 3.0,
        1e-3,
        6.02e5,
        std::f64::consts::PI,
        1e16 + 1.0,
        f64::EPSILON,
        1.0 + f64::EPSILON,
        // Subnormals and the normal/subnormal boundary.
        5e-324,
        -5e-324,
        1.2e-310,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        // Near-overflow magnitudes.
        9.9e307,
        1.3e308,
        -1.3e308,
        f64::MAX,
        -f64::MAX,
    ]
}

fn rat(x: f64) -> Rational {
    Rational::from_f64(x).expect("grid operands are finite")
}

fn rat_dd(x: Dd) -> Rational {
    rat(x.hi()).add(&rat(x.lo()))
}

/// Below ≈`2^-960` the multiplicative EFTs lose exactness and the
/// directed ops document an unconditional one-ulp bump — brackets there
/// may be two ulps wide instead of one.
const DEEP: f64 = 1.1e-289;

/// The bracket must contain the exact value and be tight: one ulp wide
/// normally, two where the implementation documents an unconditional
/// conservative bump (`max_ulps` chosen per op by the caller).
fn assert_tight_bracket(exact: &Rational, rd: f64, ru: f64, max_ulps: u32, what: &str) {
    assert!(
        exact.in_range(rd, ru),
        "{what}: exact {exact} outside [{rd:e}, {ru:e}]"
    );
    if rd.is_finite() && ru.is_finite() {
        let mut hi_ok = rd;
        for _ in 0..max_ulps {
            hi_ok = hi_ok.next_up();
        }
        assert!(
            ru <= hi_ok,
            "{what}: bracket [{rd:e}, {ru:e}] wider than {max_ulps} ulp(s)"
        );
    }
}

#[test]
fn f64_directed_ops_bracket_exactly_and_tightly() {
    for &a in &operands() {
        for &b in &operands() {
            let (ra, rb) = (rat(a), rat(b));
            // Addition EFTs are exact at every scale: always one ulp.
            assert_tight_bracket(
                &ra.add(&rb),
                add_rd(a, b),
                add_ru(a, b),
                1,
                &format!("add({a:e}, {b:e})"),
            );
            assert_tight_bracket(
                &ra.sub(&rb),
                sub_rd(a, b),
                sub_ru(a, b),
                1,
                &format!("sub({a:e}, {b:e})"),
            );
            // Mul/div bump unconditionally when the product/dividend is
            // in the deep range where the residual EFT loses exactness.
            let mul_ulps = if (a * b).abs() < DEEP { 2 } else { 1 };
            assert_tight_bracket(
                &ra.mul(&rb),
                mul_rd(a, b),
                mul_ru(a, b),
                mul_ulps,
                &format!("mul({a:e}, {b:e})"),
            );
            if let Some(q) = ra.div(&rb) {
                let div_ulps = if a.abs() < DEEP || (a / b).abs() < DEEP {
                    2
                } else {
                    1
                };
                assert_tight_bracket(
                    &q,
                    div_rd(a, b),
                    div_ru(a, b),
                    div_ulps,
                    &format!("div({a:e}, {b:e})"),
                );
            }
        }
    }
}

#[test]
fn f64_directed_sqrt_brackets_via_squares() {
    for &a in &operands() {
        if a < 0.0 {
            continue;
        }
        let (rd, ru) = (sqrt_rd(a), sqrt_ru(a));
        assert!(rd >= 0.0, "sqrt_rd({a:e}) = {rd:e} went negative");
        assert!(rd <= ru, "sqrt bracket inverted for {a:e}");
        let ra = rat(a);
        // rd ≤ √a  ⇔  rd² ≤ a (both sides nonnegative); same for ru.
        assert!(
            rat(rd).square().cmp_val(&ra) != Ordering::Greater,
            "sqrt_rd({a:e}) = {rd:e} is above the exact root"
        );
        assert!(
            rat(ru).square().cmp_val(&ra) != Ordering::Less,
            "sqrt_ru({a:e}) = {ru:e} is below the exact root"
        );
        let max_ulps = if a < DEEP { 2 } else { 1 };
        let mut hi_ok = rd;
        for _ in 0..max_ulps {
            hi_ok = hi_ok.next_up();
        }
        assert!(
            ru <= hi_ok,
            "sqrt bracket [{rd:e}, {ru:e}] for {a:e} wider than {max_ulps} ulp(s)"
        );
    }
}

/// Double-double operands: pure `f64` promotions plus genuine two-limb
/// values exercising the `lo` word.
fn dd_operands() -> Vec<Dd> {
    let mut out: Vec<Dd> = operands().into_iter().map(Dd::from).collect();
    out.push(Dd::from_two_sum(1.0, 1e-17));
    out.push(Dd::from_two_sum(0.1, -3.1e-18));
    out.push(Dd::from_two_sum(1e308, 9.9e290));
    out.push(Dd::from_two_sum(1e-300, -7e-318));
    out.push(Dd::from_two_sum(6.02e5, 5e-324));
    out
}

/// `|got - exact| ≤ rel·|exact| + abs_slack`, all in exact arithmetic.
/// The absolute slack covers `lo`-limb underflow at subnormal scale
/// (where no relative bound can hold).
fn assert_rel_close(got: &Rational, exact: &Rational, rel: f64, what: &str) {
    let err = got.sub(exact).abs();
    let bound = exact.abs().mul(&rat(rel)).add(&rat(1e-320));
    assert!(
        err.cmp_val(&bound) != Ordering::Greater,
        "{what}: error ≈{:e} exceeds bound ≈{:e}",
        err.to_f64_approx(),
        bound.to_f64_approx()
    );
}

#[test]
fn dd_arithmetic_meets_advertised_relative_bounds() {
    for &x in &dd_operands() {
        for &y in &dd_operands() {
            let (rx, ry) = (rat_dd(x), rat_dd(y));
            let s = x + y;
            if s.is_finite() {
                assert_rel_close(
                    &rat_dd(s),
                    &rx.add(&ry),
                    DD_ADD_REL,
                    &format!("{x:?} + {y:?}"),
                );
            }
            let d = x - y;
            if d.is_finite() {
                assert_rel_close(
                    &rat_dd(d),
                    &rx.sub(&ry),
                    DD_ADD_REL,
                    &format!("{x:?} - {y:?}"),
                );
            }
            let p = x * y;
            if p.is_finite() {
                assert_rel_close(
                    &rat_dd(p),
                    &rx.mul(&ry),
                    DD_MUL_REL,
                    &format!("{x:?} * {y:?}"),
                );
            }
            let q = x / y;
            if q.is_finite() {
                if let Some(exact) = rx.div(&ry) {
                    assert_rel_close(&rat_dd(q), &exact, DD_DIV_REL, &format!("{x:?} / {y:?}"));
                }
            }
        }
    }
}

#[test]
fn dd_sqrt_meets_advertised_relative_bound() {
    for &x in &dd_operands() {
        if x.hi() < 0.0 {
            continue;
        }
        let s = x.sqrt();
        if !s.is_finite() {
            continue;
        }
        // s = √x·(1+δ) with |δ| ≤ DD_SQRT_REL ⇒ |s² − x| ≲ 3·rel·|x|.
        let rx = rat_dd(x);
        assert_rel_close(
            &rat_dd(s).square(),
            &rx,
            4.0 * DD_SQRT_REL,
            &format!("sqrt({x:?})²"),
        );
    }
}

#[test]
fn dd_directed_ops_bracket_exact_results() {
    let le = |a: &Rational, b: &Rational| a.cmp_val(b) != Ordering::Greater;
    for &x in &dd_operands() {
        for &y in &dd_operands() {
            let (rx, ry) = (rat_dd(x), rat_dd(y));
            let cases: [(Dd, Rational, Dd, &str); 2] = [
                (x.add_rd(y), rx.add(&ry), x.add_ru(y), "add"),
                (x.mul_rd(y), rx.mul(&ry), x.mul_ru(y), "mul"),
            ];
            for (lo, exact, hi, what) in cases {
                if lo.is_finite() {
                    assert!(
                        le(&rat_dd(lo), &exact),
                        "dd {what}_rd({x:?}, {y:?}) = {lo:?} above exact"
                    );
                }
                if hi.is_finite() {
                    assert!(
                        le(&exact, &rat_dd(hi)),
                        "dd {what}_ru({x:?}, {y:?}) = {hi:?} below exact"
                    );
                }
            }
            if let Some(exact) = rx.div(&ry) {
                let (lo, hi) = (x.div_rd(y), x.div_ru(y));
                if lo.is_finite() {
                    assert!(
                        le(&rat_dd(lo), &exact),
                        "dd div_rd({x:?}, {y:?}) = {lo:?} above exact"
                    );
                }
                if hi.is_finite() {
                    assert!(
                        le(&exact, &rat_dd(hi)),
                        "dd div_ru({x:?}, {y:?}) = {hi:?} below exact"
                    );
                }
            }
        }
    }
}

#[test]
fn dd_directed_sqrt_brackets_via_squares() {
    let le = |a: &Rational, b: &Rational| a.cmp_val(b) != Ordering::Greater;
    for &x in &dd_operands() {
        if x.hi() < 0.0 {
            continue;
        }
        let rx = rat_dd(x);
        let (lo, hi) = (x.sqrt_rd(), x.sqrt_ru());
        assert!(lo.hi() >= 0.0, "dd sqrt_rd({x:?}) went negative");
        if lo.is_finite() {
            assert!(
                le(&rat_dd(lo).square(), &rx),
                "dd sqrt_rd({x:?}) = {lo:?} above the exact root"
            );
        }
        if hi.is_finite() {
            assert!(
                le(&rx, &rat_dd(hi).square()),
                "dd sqrt_ru({x:?}) = {hi:?} below the exact root"
            );
        }
    }
}

/// xorshift64* stream for the seeded sum tests below.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A non-negative summand: zeros, subnormals, ordinary magnitudes,
/// near-overflow values and (rarely) `+∞`.
fn sum_term(rng: &mut Rng) -> f64 {
    let mantissa = 1.0 + (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
    match rng.below(16) {
        0..=2 => 0.0,
        3 | 4 => f64::from_bits(1 + rng.next() % (1 << 52)),
        5 => f64::MIN_POSITIVE * mantissa,
        6 | 7 => f64::MAX / mantissa / (1 + rng.below(4)) as f64,
        8 if rng.below(4) == 0 => f64::INFINITY,
        _ => mantissa * 2f64.powi(rng.below(120) as i32 - 60),
    }
}

#[test]
fn sum_bound_covers_exact_sums_in_any_association_order() {
    let mut rng = Rng(0x5EED_0F5A_1100);
    for case in 0..4000 {
        let n = 1 + rng.below(24);
        let terms: Vec<f64> = (0..n).map(|_| sum_term(&mut rng)).collect();
        let m = terms.iter().filter(|&&t| t != 0.0).count() as u64;
        // A random association tree: repeatedly add two random partial
        // sums with round-to-nearest.
        let mut pool = terms.clone();
        while pool.len() > 1 {
            let i = rng.below(pool.len());
            let a = pool.swap_remove(i);
            let j = rng.below(pool.len());
            pool[j] += a;
        }
        let s = pool[0];
        let bound = sum_bound(s, m);
        if m <= 1 {
            let only = terms.iter().copied().fold(0.0, f64::max);
            assert_eq!(bound.to_bits(), only.to_bits(), "case {case}: {terms:?}");
            continue;
        }
        if terms.contains(&f64::INFINITY) {
            assert_eq!(bound, f64::INFINITY, "case {case}");
            continue;
        }
        assert!(bound >= s, "case {case}");
        if bound.is_finite() {
            let exact = terms
                .iter()
                .fold(Rational::zero(), |acc, &t| acc.add(&rat(t)));
            assert!(
                exact.cmp_val(&rat(bound)) != Ordering::Greater,
                "case {case}: exact sum of {terms:?} exceeds sum_bound({s}, {m}) = {bound}"
            );
        }
    }
}

#[test]
fn sum_bound_covers_the_worst_case_rounding_chain() {
    // 1 + n·t with t just below half an ulp of 1: every addition rounds
    // back down to 1, so the computed sum loses almost n·2⁻⁵³.
    let t = 2f64.powi(-53) * (1.0 - 2f64.powi(-20));
    for n in [1u64, 2, 7, 64, 1000] {
        let s = (0..n).fold(1.0, |acc, _| acc + t);
        assert_eq!(s, 1.0);
        let exact = rat(1.0).add(&rat(t).mul(&Rational::from_i64(n as i64)));
        let bound = sum_bound(s, n + 1);
        assert!(
            exact.cmp_val(&rat(bound)) != Ordering::Greater,
            "n = {n}: bound {bound} below the exact sum"
        );
    }
}
