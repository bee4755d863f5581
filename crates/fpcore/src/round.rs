//! Directed rounding implemented in software.
//!
//! Each operation computes the round-to-nearest result, recovers the exact
//! rounding error through an error-free transformation ([`crate::eft`]), and
//! bumps the result by one ulp in the requested direction when the exact
//! value lies beyond it. This is equivalent to evaluating the operation with
//! the FPU set to round-up / round-down (the paper compiles with
//! `-frounding-math` and switches modes), but is portable, thread-safe, and
//! free of the optimizer hazards of global rounding modes.
//!
//! Conventions at the range boundaries (these make the results usable as
//! sound interval endpoints):
//!
//! * `RU` never returns `−∞` for a finite exact value: a negative overflow
//!   in an upward-rounded operation returns `−f64::MAX`.
//! * Symmetrically, `RD` never returns `+∞` for a finite exact value.
//! * NaN propagates.
//! * In the deep-subnormal range where the multiplicative EFTs lose
//!   exactness, results are bumped unconditionally (conservative but sound).
//!
//! `RD(x) = −RU(−x)` is used to derive the downward versions, mirroring the
//! identity the paper uses for IEEE-754 upward rounding.

use crate::eft::{div_residual, sqrt_residual, two_prod, two_sum};

/// Below this magnitude the FMA residual of `*` and `/` may itself round;
/// `2^-960` is far above the exactness threshold (`≈2^-1021`) and costs
/// nothing in practice. (Bit pattern: biased exponent 63, zero mantissa.)
pub(crate) const EFT_GUARD: f64 = f64::from_bits(0x03F0_0000_0000_0000);

#[inline]
fn bump_up(x: f64) -> f64 {
    x.next_up()
}

#[inline]
fn bump_down(x: f64) -> f64 {
    x.next_down()
}

/// `RU(a + b)`: smallest representable upper bound on the exact sum.
///
/// ```
/// use safegen_fpcore::round::{add_ru, add_rd};
/// assert!(add_rd(1.0, 1e-30) < add_ru(1.0, 1e-30));
/// assert_eq!(add_ru(1.5, 2.0), 3.5); // exact sums are returned unchanged
/// ```
#[inline]
pub fn add_ru(a: f64, b: f64) -> f64 {
    let (s, e) = two_sum(a, b);
    if s.is_nan() || s == f64::INFINITY {
        return s;
    }
    if s == f64::NEG_INFINITY {
        // Finite operands overflowed downwards: the exact sum is finite,
        // so the least upper bound is -MAX.
        return if a == f64::NEG_INFINITY || b == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            -f64::MAX
        };
    }
    if e > 0.0 {
        bump_up(s)
    } else {
        s
    }
}

/// `RD(a + b)`: largest representable lower bound on the exact sum.
#[inline]
pub fn add_rd(a: f64, b: f64) -> f64 {
    -add_ru(-a, -b)
}

/// `RU(a − b)`.
#[inline]
pub fn sub_ru(a: f64, b: f64) -> f64 {
    add_ru(a, -b)
}

/// `RD(a − b)`.
#[inline]
pub fn sub_rd(a: f64, b: f64) -> f64 {
    add_rd(a, -b)
}

/// `RU(a * b)`: smallest representable upper bound on the exact product.
///
/// ```
/// use safegen_fpcore::round::{mul_ru, mul_rd};
/// let (lo, hi) = (mul_rd(0.1, 0.1), mul_ru(0.1, 0.1));
/// assert!(lo < hi); // 0.1*0.1 is inexact
/// assert_eq!(mul_ru(0.5, 8.0), 4.0);
/// ```
#[inline]
pub fn mul_ru(a: f64, b: f64) -> f64 {
    let (p, e) = two_prod(a, b);
    if p.is_nan() || p == f64::INFINITY {
        return p;
    }
    if p == f64::NEG_INFINITY {
        return if a.is_infinite() || b.is_infinite() {
            f64::NEG_INFINITY
        } else {
            -f64::MAX
        };
    }
    if p == 0.0 && a != 0.0 && b != 0.0 {
        // Exact product underflowed completely; it is nonzero with the sign
        // of a*b. Upper bound: smallest positive subnormal if positive,
        // else 0 (well, -0 rounding up is 0).
        return if (a > 0.0) == (b > 0.0) {
            f64::MIN_POSITIVE * f64::EPSILON
        } else {
            0.0
        };
    }
    if p != 0.0 && p.abs() < EFT_GUARD {
        // e may be inexact this deep; one full ulp dominates the RN error.
        return bump_up(p);
    }
    if e > 0.0 {
        bump_up(p)
    } else {
        p
    }
}

/// `RD(a * b)`.
#[inline]
pub fn mul_rd(a: f64, b: f64) -> f64 {
    -mul_ru(-a, b)
}

/// `RU(a / b)`: smallest representable upper bound on the exact quotient.
///
/// Follows IEEE-754 semantics for zero and infinite operands
/// (`x/0 = ±∞`, `x/∞ = ±0`); NaN propagates.
#[inline]
pub fn div_ru(a: f64, b: f64) -> f64 {
    let q = a / b;
    if q.is_nan() || q == f64::INFINITY {
        return q;
    }
    if q == f64::NEG_INFINITY {
        return if a.is_infinite() || b == 0.0 {
            f64::NEG_INFINITY
        } else {
            -f64::MAX
        };
    }
    if b.is_infinite() || a == 0.0 {
        // Quotient is an exact (signed) zero or a is 0: q is exact.
        // Rounding up maps -0 to -0 which compares equal to 0; fine.
        return q;
    }
    if q.abs() < EFT_GUARD || a.abs() < EFT_GUARD {
        // Residual exactness not guaranteed; bump unconditionally. The
        // dividend guard matters too: the residual a − q·b has the
        // granularity of the product q·b ≈ a, so a deep-subnormal
        // dividend can flush a nonzero residual to zero even when the
        // quotient itself is comfortably normal (found by the exact
        // rational oracle at div(5e-324, 1.2e-310)).
        return bump_up(q);
    }
    let r = div_residual(a, b, q);
    if r == 0.0 {
        q
    } else if (r > 0.0) == (b > 0.0) {
        bump_up(q)
    } else {
        q
    }
}

/// `RD(a / b)`.
#[inline]
pub fn div_rd(a: f64, b: f64) -> f64 {
    -div_ru(-a, b)
}

/// `RU(sqrt(a))`.
///
/// Returns NaN for negative input (IEEE semantics); `sqrt` of a range that
/// dips below zero is clamped at the interval/affine level, not here.
#[inline]
pub fn sqrt_ru(a: f64) -> f64 {
    let s = a.sqrt();
    if s.is_nan() || s.is_infinite() || a == 0.0 {
        return s;
    }
    if a < EFT_GUARD {
        // The exact residual a − s² scales like a·2⁻⁵³ and its granularity
        // like ulp(s)²: below the guard the FMA can flush a nonzero
        // residual to zero, silently skipping the bump (an *unsoundness*,
        // not just slack). One unconditional ulp is always a sound bound.
        return bump_up(s);
    }
    let r = sqrt_residual(a, s);
    if r > 0.0 {
        bump_up(s)
    } else {
        s
    }
}

/// `RD(sqrt(a))`.
#[inline]
pub fn sqrt_rd(a: f64) -> f64 {
    let s = a.sqrt();
    if s.is_nan() || s.is_infinite() || a == 0.0 {
        return s;
    }
    if a < EFT_GUARD {
        // See sqrt_ru: the residual's sign is unusable this deep.
        return bump_down(s).max(0.0);
    }
    let r = sqrt_residual(a, s);
    if r < 0.0 {
        bump_down(s).max(0.0)
    } else {
        s
    }
}

/// Sound upper bound on the exact sum of `m` non-negative terms whose
/// round-to-nearest sum, in any association order, is `s`.
///
/// Returns `RU(s · (1 + (m−1)·2⁻⁵²))`, and `s` itself when `m ≤ 1`.
/// Callers count only the non-zero terms in `m`; zeros may be added
/// anywhere, since adding zero is exact.
///
/// Soundness (the standard model, `u = 2⁻⁵³`): each addition whose
/// operands are both non-zero returns `(x + y)(1 + δ)` with `|δ| ≤ u`, so
/// for non-negative operands it loses at most a factor `1/(1 − u)`. A term
/// passes through at most `m − 1` such additions, so the exact sum is at
/// most `s·(1 − u)^−(m−1) ≤ s·(1 + 2(m−1)u)` (valid while `(m−1)u ≤ 1/2`).
/// A sum whose result is subnormal is exact, so underflow adds no term;
/// overflow yields `+∞`, itself an upper bound. The final product is
/// rounded upward; `1 + (m−1)·2⁻⁵²` is exact for `m < 2⁵²`.
///
/// ```
/// use safegen_fpcore::round::sum_bound;
/// let s = (0.1 + 0.2) + 0.3;
/// assert!(sum_bound(s, 3) > s);
/// assert_eq!(sum_bound(0.7, 1), 0.7);
/// ```
#[inline]
pub fn sum_bound(s: f64, m: u64) -> f64 {
    if m <= 1 {
        return s;
    }
    mul_ru(s, 1.0 + (m - 1) as f64 * f64::EPSILON)
}

/// Round-to-nearest sum together with the *magnitude of its exact rounding
/// error* — the quantity accumulated into fresh affine error symbols.
///
/// Returns `(s, |e|)` where `s = RN(a+b)` and the exact sum is `s ± |e|`.
/// On overflow returns `(±∞-clamped value, ∞)` so the caller degrades the
/// affine form soundly.
#[inline]
pub fn add_with_err(a: f64, b: f64) -> (f64, f64) {
    let (s, e) = two_sum(a, b);
    if s.is_infinite() && !a.is_infinite() && !b.is_infinite() {
        return (s, f64::INFINITY);
    }
    (s, e.abs())
}

/// Round-to-nearest product together with the magnitude of its exact
/// rounding error. See [`add_with_err`].
#[inline]
pub fn mul_with_err(a: f64, b: f64) -> (f64, f64) {
    let (p, e) = two_prod(a, b);
    if p.is_infinite() && !a.is_infinite() && !b.is_infinite() {
        return (p, f64::INFINITY);
    }
    if p != 0.0 && p.abs() < EFT_GUARD {
        // e may be inexact; over-approximate by one ulp of p.
        return (p, crate::metrics::ulp(p));
    }
    if p == 0.0 && a != 0.0 && b != 0.0 {
        return (p, f64::MIN_POSITIVE * f64::EPSILON);
    }
    (p, e.abs())
}

/// Round-to-nearest quotient together with an upper bound on the magnitude
/// of its rounding error. See [`add_with_err`].
#[inline]
pub fn div_with_err(a: f64, b: f64) -> (f64, f64) {
    let q = a / b;
    if q.is_infinite() && !a.is_infinite() && b != 0.0 {
        return (q, f64::INFINITY);
    }
    if q.is_nan() || q.is_infinite() || q == 0.0 {
        return (q, 0.0);
    }
    // |error| <= ulp(q)/2 for RN; use the representable full/half ulp bound.
    (q, 0.5 * crate::metrics::ulp(q))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dd::Dd;

    fn check_add(a: f64, b: f64) {
        let exact = Dd::from_two_sum(a, b);
        let lo = add_rd(a, b);
        let hi = add_ru(a, b);
        assert!(Dd::from(lo) <= exact, "add_rd({a},{b}) = {lo} not <= exact");
        assert!(exact <= Dd::from(hi), "add_ru({a},{b}) = {hi} not >= exact");
        // Tightness: at most one ulp apart.
        assert!(hi <= lo.next_up().next_up(), "bounds too wide for {a}+{b}");
    }

    fn check_mul(a: f64, b: f64) {
        let exact = Dd::from_two_prod(a, b);
        let lo = mul_rd(a, b);
        let hi = mul_ru(a, b);
        assert!(Dd::from(lo) <= exact, "mul_rd({a},{b}) = {lo} not <= exact");
        assert!(exact <= Dd::from(hi), "mul_ru({a},{b}) = {hi} not >= exact");
    }

    #[test]
    fn directed_add_basic() {
        check_add(0.1, 0.2);
        check_add(1.0, f64::EPSILON / 4.0);
        check_add(-1.0, 1e-300);
        check_add(1e308, 1e308 / 2.0); // no overflow yet
        check_add(0.0, 0.0);
        check_add(-0.0, 0.0);
    }

    #[test]
    fn directed_add_overflow() {
        assert_eq!(add_ru(f64::MAX, f64::MAX), f64::INFINITY);
        assert_eq!(add_rd(f64::MAX, f64::MAX), f64::MAX);
        assert_eq!(add_ru(-f64::MAX, -f64::MAX), -f64::MAX);
        assert_eq!(add_rd(-f64::MAX, -f64::MAX), f64::NEG_INFINITY);
    }

    #[test]
    fn directed_add_exact_cases() {
        assert_eq!(add_ru(1.5, 2.25), 3.75);
        assert_eq!(add_rd(1.5, 2.25), 3.75);
    }

    #[test]
    fn directed_mul_basic() {
        check_mul(0.1, 0.1);
        check_mul(1.0 / 3.0, 3.0);
        check_mul(-0.7, 0.3);
        check_mul(1e-200, 1e-200); // underflow region handled conservatively
    }

    #[test]
    fn directed_mul_signs() {
        assert!(mul_ru(-0.1, 0.3) >= -0.1 * 0.3);
        assert!(mul_rd(-0.1, 0.3) <= -0.1 * 0.3);
        assert!(mul_rd(-0.1, -0.3) <= 0.03000000000000001);
    }

    #[test]
    fn directed_mul_underflow_is_sound() {
        let tiny = f64::MIN_POSITIVE * f64::EPSILON; // smallest subnormal
        let hi = mul_ru(tiny, 0.5);
        let lo = mul_rd(tiny, 0.5);
        // Exact product is tiny/2, strictly between 0 and tiny.
        assert!(hi > 0.0);
        assert!(lo >= 0.0);
        assert!(lo <= hi);
    }

    #[test]
    fn directed_div_brackets_exact() {
        let q_hi = div_ru(1.0, 3.0);
        let q_lo = div_rd(1.0, 3.0);
        assert!(q_lo < q_hi);
        assert_eq!(q_hi, q_lo.next_up());
        // 3 * q_lo < 1 < 3 * q_hi (in exact arithmetic)
        assert!(Dd::from_two_prod(q_lo, 3.0) < Dd::from(1.0));
        assert!(Dd::from(1.0) < Dd::from_two_prod(q_hi, 3.0));
    }

    #[test]
    fn directed_div_exact_quotient() {
        assert_eq!(div_ru(1.0, 2.0), 0.5);
        assert_eq!(div_rd(1.0, 2.0), 0.5);
        assert_eq!(div_ru(-6.0, 3.0), -2.0);
        assert_eq!(div_rd(-6.0, 3.0), -2.0);
    }

    #[test]
    fn directed_div_by_zero() {
        assert_eq!(div_ru(1.0, 0.0), f64::INFINITY);
        assert_eq!(div_rd(-1.0, 0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn directed_div_negative_divisor() {
        let q_hi = div_ru(1.0, -3.0);
        let q_lo = div_rd(1.0, -3.0);
        assert!(q_lo <= -1.0 / 3.0 && -1.0 / 3.0 <= q_hi);
        assert!(q_lo < q_hi);
    }

    #[test]
    fn directed_sqrt_brackets_exact() {
        let lo = sqrt_rd(2.0);
        let hi = sqrt_ru(2.0);
        assert!(lo < hi);
        assert!(Dd::from_two_prod(lo, lo) < Dd::from(2.0));
        assert!(Dd::from(2.0) < Dd::from_two_prod(hi, hi));
        assert_eq!(sqrt_ru(4.0), 2.0);
        assert_eq!(sqrt_rd(4.0), 2.0);
    }

    #[test]
    fn directed_sqrt_zero_and_negative() {
        assert_eq!(sqrt_ru(0.0), 0.0);
        assert_eq!(sqrt_rd(0.0), 0.0);
        assert!(sqrt_ru(-1.0).is_nan());
    }

    #[test]
    fn add_with_err_reconstructs_exact() {
        let (s, e) = add_with_err(0.1, 0.2);
        let exact = Dd::from_two_sum(0.1, 0.2);
        assert!(Dd::from(s) - Dd::from(e) <= exact);
        assert!(exact <= Dd::from(s) + Dd::from(e));
    }

    #[test]
    fn mul_with_err_reconstructs_exact() {
        let (p, e) = mul_with_err(0.1, 0.3);
        let exact = Dd::from_two_prod(0.1, 0.3);
        assert!(Dd::from(p) - Dd::from(e) <= exact);
        assert!(exact <= Dd::from(p) + Dd::from(e));
    }

    #[test]
    fn div_with_err_bounds_exact() {
        let (q, e) = div_with_err(1.0, 3.0);
        // exact = q + r/3 with |r/3| <= e
        let r = crate::eft::div_residual(1.0, 3.0, q);
        assert!((r / 3.0).abs() <= e);
    }

    #[test]
    fn sum_bound_cases() {
        assert_eq!(sum_bound(0.0, 0), 0.0);
        assert_eq!(sum_bound(0.3, 1), 0.3);
        assert_eq!(sum_bound(5e-324, 1), 5e-324);
        assert!(sum_bound(1.0, 2) > 1.0);
        assert_eq!(sum_bound(f64::INFINITY, 5), f64::INFINITY);
        assert_eq!(sum_bound(f64::MAX, 3), f64::INFINITY);
        assert!(sum_bound(f64::NAN, 4).is_nan());
    }

    #[test]
    fn nan_propagates() {
        assert!(add_ru(f64::NAN, 1.0).is_nan());
        assert!(mul_rd(f64::NAN, 1.0).is_nan());
        assert!(div_ru(f64::NAN, 1.0).is_nan());
    }
}
