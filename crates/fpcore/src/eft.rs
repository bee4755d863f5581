//! Error-free transformations (EFTs).
//!
//! An error-free transformation of a floating-point operation `op` computes
//! the round-to-nearest result `s = RN(a op b)` *and* the exact rounding
//! error `e = (a op b) − s` as a floating-point number, so that
//! `a op b = s + e` holds exactly in real arithmetic.
//!
//! These are the classical building blocks (Knuth's TwoSum, the FMA-based
//! TwoProd, and residual recovery for division and square root) used here to
//! implement directed rounding in software and double-double arithmetic.
//!
//! All functions assume no intermediate overflow; callers in [`crate::round`]
//! handle overflow/underflow explicitly before relying on exactness.

/// Knuth's branch-free TwoSum.
///
/// Returns `(s, e)` with `s = RN(a + b)` and `a + b = s + e` exactly,
/// provided `s` does not overflow. Addition EFTs are exact for *all* finite
/// inputs, including subnormals.
///
/// ```
/// use safegen_fpcore::eft::two_sum;
/// let (s, e) = two_sum(0.1, 0.2);
/// assert_eq!(s, 0.1 + 0.2);
/// assert_ne!(e, 0.0); // 0.1 + 0.2 is inexact
/// ```
#[inline]
pub fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    let e = (a - (s - bb)) + (b - bb);
    (s, e)
}

/// Dekker's FastTwoSum, requiring `|a| >= |b|` (or `a == 0`).
///
/// Returns `(s, e)` with `s = RN(a + b)` and `a + b = s + e` exactly.
/// Cheaper than [`two_sum`] when the magnitude ordering is known. NaN
/// operands are let through: straight-line callers compute this on
/// every input and discard the non-finite cases afterwards.
#[inline]
pub fn quick_two_sum(a: f64, b: f64) -> (f64, f64) {
    debug_assert!(a == 0.0 || a.abs() >= b.abs() || a.is_nan() || b.is_nan());
    let s = a + b;
    let e = b - (s - a);
    (s, e)
}

/// FMA-based TwoProd.
///
/// Returns `(p, e)` with `p = RN(a * b)` and `a * b = p + e` exactly,
/// provided the product neither overflows nor falls into the range where the
/// error itself is not representable (`|p|` far below `2^-969`). Callers
/// guard the subnormal range.
///
/// ```
/// use safegen_fpcore::eft::two_prod;
/// let (p, e) = two_prod(1.0 + f64::EPSILON, 1.0 + f64::EPSILON);
/// assert_eq!(p + e, (1.0 + f64::EPSILON) * (1.0 + f64::EPSILON));
/// ```
#[inline]
pub fn two_prod(a: f64, b: f64) -> (f64, f64) {
    let p = a * b;
    let e = a.mul_add(b, -p);
    (p, e)
}

/// Exact residual of a round-to-nearest division.
///
/// For `q = RN(a / b)`, returns `r = a − q·b` computed exactly via FMA.
/// The sign of `r/b` tells on which side of the exact quotient `q` lies:
/// the exact quotient equals `q + r/b`.
#[inline]
pub fn div_residual(a: f64, b: f64, q: f64) -> f64 {
    (-q).mul_add(b, a)
}

/// Exact residual of a round-to-nearest square root.
///
/// For `s = RN(sqrt(a))`, returns `r = a − s·s` computed exactly via FMA.
/// The exact square root is above `s` iff `r > 0`.
#[inline]
pub fn sqrt_residual(a: f64, s: f64) -> f64 {
    (-s).mul_add(s, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_sum_recovers_exact_error() {
        let a = 1.0;
        let b = f64::EPSILON / 2.0; // rounds away entirely
        let (s, e) = two_sum(a, b);
        assert_eq!(s, 1.0);
        assert_eq!(e, f64::EPSILON / 2.0);
    }

    #[test]
    fn two_sum_exact_when_representable() {
        let (s, e) = two_sum(1.5, 2.25);
        assert_eq!(s, 3.75);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn two_sum_handles_subnormals() {
        let a = f64::MIN_POSITIVE / 4.0;
        let b = f64::MIN_POSITIVE / 8.0;
        let (s, e) = two_sum(a, b);
        assert_eq!(s + e, a + b);
        assert_eq!(e, 0.0); // subnormal addition here is exact
    }

    #[test]
    fn quick_two_sum_matches_two_sum() {
        let a = 1e10;
        let b = 1e-10;
        let (s1, e1) = two_sum(a, b);
        let (s2, e2) = quick_two_sum(a, b);
        assert_eq!(s1, s2);
        assert_eq!(e1, e2);
    }

    #[test]
    fn two_prod_recovers_exact_error() {
        let a = 1.0 + f64::EPSILON;
        let (p, e) = two_prod(a, a);
        // (1+u)^2 = 1 + 2u + u^2; u^2 is the rounding error.
        assert_eq!(p, 1.0 + 2.0 * f64::EPSILON);
        assert_eq!(e, f64::EPSILON * f64::EPSILON);
    }

    #[test]
    fn two_prod_exact_product_has_zero_error() {
        let (p, e) = two_prod(3.0, 0.5);
        assert_eq!(p, 1.5);
        assert_eq!(e, 0.0);
    }

    #[test]
    fn div_residual_sign_detects_direction() {
        // 1/3 rounds down in binary? Verify via residual.
        let q = 1.0 / 3.0;
        let r = div_residual(1.0, 3.0, q);
        // exact quotient = q + r/3; r != 0 since 1/3 is not representable.
        assert_ne!(r, 0.0);
        let exact_above = r > 0.0;
        // Cross-check against next_up: q bumped towards exact side.
        let bumped = if exact_above {
            q.next_up()
        } else {
            q.next_down()
        };
        // |bumped*3 - 1| should be on the other side.
        let r2 = div_residual(1.0, 3.0, bumped);
        assert!(r.signum() != r2.signum() || r2 == 0.0);
    }

    #[test]
    fn sqrt_residual_zero_for_exact_squares() {
        let r = sqrt_residual(4.0, 2.0);
        assert_eq!(r, 0.0);
    }

    #[test]
    fn sqrt_residual_nonzero_for_inexact() {
        let s = 2.0f64.sqrt();
        let r = sqrt_residual(2.0, s);
        assert_ne!(r, 0.0);
    }
}
