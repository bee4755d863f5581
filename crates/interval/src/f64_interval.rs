//! Double-precision intervals (the `IGen-f64` baseline).

use safegen_fpcore::metrics::{acc_bits, err_bits, ulp, F64_MANTISSA_BITS};
use safegen_fpcore::round::{
    add_rd, add_ru, div_rd, div_ru, mul_rd, mul_ru, sqrt_rd, sqrt_ru, sub_rd, sub_ru,
};
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A closed interval `[lo, hi]` of `f64` endpoints, guaranteed to contain
/// the exact real result of the computation that produced it.
///
/// Empty intervals are not representable; operations keep `lo <= hi` (or
/// produce NaN endpoints, which poison everything downstream — matching the
/// paper's NaN convention that the value "can be anything").
///
/// ```
/// use safegen_interval::IntervalF64;
/// let a = IntervalF64::from(0.1);
/// let b = IntervalF64::from(0.2);
/// let s = a + b;
/// assert!(s.lo() <= 0.30000000000000004 && 0.30000000000000004 <= s.hi());
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalF64 {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
}

impl IntervalF64 {
    /// The point interval `[0, 0]`.
    pub const ZERO: IntervalF64 = IntervalF64 { lo: 0.0, hi: 0.0 };
    /// The full real line, `[-∞, +∞]`.
    pub const ENTIRE: IntervalF64 = IntervalF64 {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Creates an interval from its endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` (NaN endpoints are allowed and poison results).
    #[inline]
    pub fn new(lo: f64, hi: f64) -> IntervalF64 {
        assert!(
            lo <= hi || lo.partial_cmp(&hi).is_none(),
            "invalid interval [{lo}, {hi}]"
        );
        IntervalF64 { lo, hi }
    }

    /// A point interval `[x, x]`.
    #[inline]
    pub fn point(x: f64) -> IntervalF64 {
        IntervalF64 { lo: x, hi: x }
    }

    /// The interval for a program constant that may not be exactly
    /// representable: `x ± 1 ulp(x)`, as SafeGen converts constants
    /// (Sec. IV-B). Exact integers should use [`IntervalF64::point`].
    #[inline]
    pub fn constant(x: f64) -> IntervalF64 {
        let u = ulp(x);
        IntervalF64 {
            lo: sub_rd(x, u),
            hi: add_ru(x, u),
        }
    }

    /// Lower endpoint.
    #[inline]
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Upper endpoint.
    #[inline]
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// Midpoint (not necessarily contained exactly; for display).
    #[inline]
    pub fn mid(self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Width `hi - lo`, rounded up.
    #[inline]
    pub fn width(self) -> f64 {
        sub_ru(self.hi, self.lo)
    }

    /// True if `x` lies inside the interval.
    #[inline]
    pub fn contains(self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// True if `other` is entirely inside `self`.
    #[inline]
    pub fn encloses(self, other: IntervalF64) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }

    /// True if either endpoint is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.lo.is_nan() || self.hi.is_nan()
    }

    /// Sound square root: the lower endpoint is clamped at zero when the
    /// interval dips (by rounding) slightly below zero; a truly negative
    /// interval yields NaN endpoints.
    pub fn sqrt(self) -> IntervalF64 {
        if self.hi < 0.0 {
            return IntervalF64 {
                lo: f64::NAN,
                hi: f64::NAN,
            };
        }
        let lo = if self.lo <= 0.0 {
            0.0
        } else {
            sqrt_rd(self.lo)
        };
        IntervalF64 {
            lo,
            hi: sqrt_ru(self.hi),
        }
    }

    /// Absolute value.
    pub fn abs(self) -> IntervalF64 {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            -self
        } else {
            IntervalF64 {
                lo: 0.0,
                hi: self.hi.max(-self.lo),
            }
        }
    }

    /// Minimum of two intervals (element-wise over all pairs).
    #[inline]
    pub fn min(self, other: IntervalF64) -> IntervalF64 {
        IntervalF64 {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Maximum of two intervals (element-wise over all pairs).
    #[inline]
    pub fn max(self, other: IntervalF64) -> IntervalF64 {
        IntervalF64 {
            lo: self.lo.max(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// `err` metric of the paper (eq. 11) for this interval.
    #[inline]
    pub fn err_bits(self) -> f64 {
        err_bits(self.lo, self.hi)
    }

    /// Certified bits (paper eq. 12) at double precision.
    #[inline]
    pub fn acc_bits(self) -> f64 {
        acc_bits(self.lo, self.hi, F64_MANTISSA_BITS)
    }
}

impl From<f64> for IntervalF64 {
    /// A point interval: the `f64` value is assumed exact (it is the actual
    /// bit pattern the unsound program would hold).
    #[inline]
    fn from(x: f64) -> IntervalF64 {
        IntervalF64::point(x)
    }
}

impl Default for IntervalF64 {
    fn default() -> Self {
        IntervalF64::ZERO
    }
}

impl Neg for IntervalF64 {
    type Output = IntervalF64;
    #[inline]
    fn neg(self) -> IntervalF64 {
        IntervalF64 {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl Add for IntervalF64 {
    type Output = IntervalF64;
    #[inline]
    fn add(self, rhs: IntervalF64) -> IntervalF64 {
        IntervalF64 {
            lo: add_rd(self.lo, rhs.lo),
            hi: add_ru(self.hi, rhs.hi),
        }
    }
}

impl Sub for IntervalF64 {
    type Output = IntervalF64;
    #[inline]
    fn sub(self, rhs: IntervalF64) -> IntervalF64 {
        IntervalF64 {
            lo: sub_rd(self.lo, rhs.hi),
            hi: sub_ru(self.hi, rhs.lo),
        }
    }
}

impl Mul for IntervalF64 {
    type Output = IntervalF64;
    /// Nine-case interval multiplication collapsed to min/max over the four
    /// corner products, each computed with the appropriate rounding.
    #[inline]
    fn mul(self, rhs: IntervalF64) -> IntervalF64 {
        let (a, b, c, d) = (self.lo, self.hi, rhs.lo, rhs.hi);
        let lo = mul_rd(a, c)
            .min(mul_rd(a, d))
            .min(mul_rd(b, c))
            .min(mul_rd(b, d));
        let hi = mul_ru(a, c)
            .max(mul_ru(a, d))
            .max(mul_ru(b, c))
            .max(mul_ru(b, d));
        IntervalF64 { lo, hi }
    }
}

impl Div for IntervalF64 {
    type Output = IntervalF64;
    /// Interval division; a divisor interval containing zero yields the
    /// entire real line (sound, maximally pessimistic).
    #[inline]
    fn div(self, rhs: IntervalF64) -> IntervalF64 {
        if rhs.lo <= 0.0 && rhs.hi >= 0.0 {
            return if rhs.is_nan() || self.is_nan() {
                IntervalF64 {
                    lo: f64::NAN,
                    hi: f64::NAN,
                }
            } else {
                IntervalF64::ENTIRE
            };
        }
        let (a, b, c, d) = (self.lo, self.hi, rhs.lo, rhs.hi);
        let lo = div_rd(a, c)
            .min(div_rd(a, d))
            .min(div_rd(b, c))
            .min(div_rd(b, d));
        let hi = div_ru(a, c)
            .max(div_ru(a, d))
            .max(div_ru(b, c))
            .max(div_ru(b, d));
        IntervalF64 { lo, hi }
    }
}

impl fmt::Display for IntervalF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:e}, {:e}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_contains_value() {
        let x = IntervalF64::point(std::f64::consts::PI);
        assert!(x.contains(std::f64::consts::PI));
        assert_eq!(x.width(), 0.0);
    }

    #[test]
    fn constant_brackets_decimal() {
        // 0.1 in binary is inexact; [0.1 - ulp, 0.1 + ulp] must contain both
        // neighbours of the stored value.
        let c = IntervalF64::constant(0.1);
        assert!(c.lo < 0.1 && 0.1 < c.hi);
        assert!(c.contains(0.1f64.next_up()));
        assert!(c.contains(0.1f64.next_down()));
    }

    #[test]
    fn add_sub_soundness() {
        let a = IntervalF64::from(0.1);
        let b = IntervalF64::from(0.2);
        let s = a + b;
        // Exact sum of the two stored doubles lies inside.
        assert!(s.lo <= 0.1 + 0.2 && 0.1 + 0.2 <= s.hi);
        let d = s - b;
        assert!(d.contains(0.1));
    }

    #[test]
    fn dependency_problem_demonstrated() {
        let x = IntervalF64::new(0.0, 1.0);
        let d = x - x;
        assert_eq!(d, IntervalF64::new(-1.0, 1.0));
    }

    #[test]
    fn mul_sign_cases() {
        let pp = IntervalF64::new(2.0, 3.0) * IntervalF64::new(4.0, 5.0);
        assert_eq!(pp, IntervalF64::new(8.0, 15.0));
        let pn = IntervalF64::new(2.0, 3.0) * IntervalF64::new(-5.0, -4.0);
        assert_eq!(pn, IntervalF64::new(-15.0, -8.0));
        let mixed = IntervalF64::new(-2.0, 3.0) * IntervalF64::new(-5.0, 4.0);
        assert_eq!(mixed, IntervalF64::new(-15.0, 12.0));
        let nn = IntervalF64::new(-3.0, -2.0) * IntervalF64::new(-5.0, -4.0);
        assert_eq!(nn, IntervalF64::new(8.0, 15.0));
    }

    #[test]
    fn mul_with_zero() {
        let z = IntervalF64::ZERO * IntervalF64::new(-1e300, 1e300);
        assert_eq!(z, IntervalF64::ZERO);
    }

    #[test]
    fn div_basic() {
        let q = IntervalF64::new(1.0, 2.0) / IntervalF64::new(4.0, 8.0);
        assert!(q.contains(0.125) && q.contains(0.5));
        assert!(q.lo <= 0.125 && q.hi >= 0.5);
    }

    #[test]
    fn div_by_zero_spanning_interval() {
        let q = IntervalF64::new(1.0, 2.0) / IntervalF64::new(-1.0, 1.0);
        assert_eq!(q, IntervalF64::ENTIRE);
    }

    #[test]
    fn div_negative_divisor() {
        let q = IntervalF64::new(1.0, 2.0) / IntervalF64::new(-4.0, -2.0);
        assert!(q.contains(-1.0) && q.contains(-0.25));
    }

    #[test]
    fn sqrt_soundness() {
        let r = IntervalF64::new(2.0, 4.0).sqrt();
        assert!(r.contains(std::f64::consts::SQRT_2));
        assert!(r.contains(2.0));
        assert!(r.lo <= std::f64::consts::SQRT_2);
    }

    #[test]
    fn sqrt_clamps_slightly_negative_lo() {
        let r = IntervalF64::new(-1e-300, 4.0).sqrt();
        assert_eq!(r.lo, 0.0);
        assert_eq!(r.hi, 2.0);
    }

    #[test]
    fn sqrt_of_negative_is_nan() {
        assert!(IntervalF64::new(-2.0, -1.0).sqrt().is_nan());
    }

    #[test]
    fn abs_cases() {
        assert_eq!(IntervalF64::new(1.0, 2.0).abs(), IntervalF64::new(1.0, 2.0));
        assert_eq!(
            IntervalF64::new(-2.0, -1.0).abs(),
            IntervalF64::new(1.0, 2.0)
        );
        assert_eq!(
            IntervalF64::new(-3.0, 2.0).abs(),
            IntervalF64::new(0.0, 3.0)
        );
    }

    #[test]
    fn min_max() {
        let a = IntervalF64::new(0.0, 3.0);
        let b = IntervalF64::new(1.0, 2.0);
        assert_eq!(a.min(b), IntervalF64::new(0.0, 2.0));
        assert_eq!(a.max(b), IntervalF64::new(1.0, 3.0));
    }

    #[test]
    fn accuracy_metrics() {
        assert_eq!(IntervalF64::point(1.0).acc_bits(), 53.0);
        assert_eq!(IntervalF64::ENTIRE.acc_bits(), f64::NEG_INFINITY);
        let one_ulp = IntervalF64::new(1.0, 1.0f64.next_up());
        assert_eq!(one_ulp.acc_bits(), 52.0);
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn inverted_interval_panics() {
        let _ = IntervalF64::new(2.0, 1.0);
    }

    #[test]
    fn growth_under_iteration() {
        // Intervals only grow: repeated x = x*1.0 + 0 keeps width, but the
        // henon-style recurrence inflates rapidly. Sanity-check monotone
        // width growth.
        let mut x = IntervalF64::constant(0.5);
        let mut last_width = x.width();
        for _ in 0..20 {
            x = x * IntervalF64::constant(1.05) + IntervalF64::constant(0.1);
            assert!(x.width() >= last_width);
            last_width = x.width();
        }
    }
}
