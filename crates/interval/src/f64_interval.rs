//! Double-precision intervals (the `IGen-f64` baseline).
//!
//! The operators are straight-line: directed rounding from
//! [`safegen_fpcore::flat`], case splits (divisor straddling zero,
//! negative radicand, `abs` signs) as selects. They are the loop bodies
//! of the [`crate::cols`] kernels and have no second, branchy copy.

use safegen_fpcore::flat::{
    add_rd, add_ru, div_rd, div_ru, mul_rd, mul_ru, sqrt_rd, sqrt_ru, sub_rd, sub_ru,
};
use safegen_fpcore::metrics::{acc_bits, err_bits, ulp, F64_MANTISSA_BITS};
use safegen_fpcore::round;
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
        // The branchy ladder: this runs per lane for every constant the
        // VM materializes, outside any kernel, where the specials it
        // skips would cost the select form a full evaluation.
        IntervalF64 {
            lo: round::sub_rd(x, u),
            hi: round::add_ru(x, u),
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
        round::sub_ru(self.hi, self.lo)
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
    #[inline(always)]
    pub fn sqrt(self) -> IntervalF64 {
        let lo = sel(self.lo <= 0.0, 0.0, sqrt_rd(self.lo));
        let hi = sqrt_ru(self.hi);
        let neg = self.hi < 0.0;
        IntervalF64 {
            lo: sel(neg, f64::NAN, lo),
            hi: sel(neg, f64::NAN, hi),
        }
    }

    /// Absolute value.
    #[inline(always)]
    pub fn abs(self) -> IntervalF64 {
        let (lo, hi) = (self.lo, self.hi);
        IntervalF64 {
            lo: sel(lo >= 0.0, lo, sel(hi <= 0.0, -hi, 0.0)),
            hi: sel(lo >= 0.0, hi, sel(hi <= 0.0, -lo, hi.max(-lo))),
        }
    }

    /// Minimum of two intervals (element-wise over all pairs).
    #[inline(always)]
    pub fn min(self, other: IntervalF64) -> IntervalF64 {
        IntervalF64 {
            lo: self.lo.min(other.lo),
            hi: self.hi.min(other.hi),
        }
    }

    /// Maximum of two intervals (element-wise over all pairs).
    #[inline(always)]
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
    #[inline(always)]
    fn neg(self) -> IntervalF64 {
        IntervalF64 {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl Add for IntervalF64 {
    type Output = IntervalF64;
    #[inline(always)]
    fn add(self, rhs: IntervalF64) -> IntervalF64 {
        IntervalF64 {
            lo: add_rd(self.lo, rhs.lo),
            hi: add_ru(self.hi, rhs.hi),
        }
    }
}

impl Sub for IntervalF64 {
    type Output = IntervalF64;
    #[inline(always)]
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
    #[inline(always)]
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
    /// entire real line (sound, maximally pessimistic), or NaN endpoints
    /// if either operand already has one. Computed as a select over the
    /// four corner quotients.
    #[inline(always)]
    fn div(self, rhs: IntervalF64) -> IntervalF64 {
        let (a, b, c, d) = (self.lo, self.hi, rhs.lo, rhs.hi);
        let lo = div_rd(a, c)
            .min(div_rd(a, d))
            .min(div_rd(b, c))
            .min(div_rd(b, d));
        let hi = div_ru(a, c)
            .max(div_ru(a, d))
            .max(div_ru(b, c))
            .max(div_ru(b, d));
        let straddle = c <= 0.0 && d >= 0.0;
        let nan = self.is_nan() || rhs.is_nan();
        IntervalF64 {
            lo: sel(straddle, sel(nan, f64::NAN, f64::NEG_INFINITY), lo),
            hi: sel(straddle, sel(nan, f64::NAN, f64::INFINITY), hi),
        }
    }
}

/// Select written so LLVM if-converts it (`vblendvpd` in vectorized
/// loops). Both arms are always evaluated by the callers.
#[inline(always)]
fn sel(c: bool, t: f64, f: f64) -> f64 {
    if c {
        t
    } else {
        f
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

    /// Intervals covering every case split of the operators: NaN,
    /// unbounded, straddling and one-signed intervals, zero-width points,
    /// subnormal and near-overflow endpoints, and random ones.
    fn pin_intervals() -> Vec<IntervalF64> {
        let nan = IntervalF64 {
            lo: f64::NAN,
            hi: f64::NAN,
        };
        let tiny = f64::MIN_POSITIVE * f64::EPSILON;
        let mut v = vec![
            IntervalF64::ZERO,
            IntervalF64::new(-0.0, 0.0),
            IntervalF64::ENTIRE,
            nan,
            IntervalF64::point(1.0),
            IntervalF64::point(-1.0),
            IntervalF64::new(-2.0, -1.0),
            IntervalF64::new(-1.0, 1.0),
            IntervalF64::new(1.0, 2.0),
            IntervalF64::new(0.0, 3.0),
            IntervalF64::new(-3.0, 0.0),
            IntervalF64::new(-1e-300, 1e-300),
            IntervalF64::new(tiny, 3.0 * tiny),
            IntervalF64::new(1e300, f64::INFINITY),
            IntervalF64::new(f64::NEG_INFINITY, -1e300),
            IntervalF64::new(f64::MAX, f64::MAX),
            IntervalF64::constant(0.1),
            IntervalF64::constant(-0.1),
        ];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        while v.len() < 40 {
            let c = (next() - 0.5) * 2f64.powi((next() * 80.0) as i32 - 40);
            let r = next() * c.abs() * 0.3;
            v.push(IntervalF64::new(c - r, c + r));
        }
        v
    }

    /// FNV-1a over result endpoints; NaNs count as one value (their sign
    /// and payload are not fixed by IEEE 754).
    fn digest(h: &mut u64, r: IntervalF64) {
        for w in [r.lo, r.hi] {
            let w = if w.is_nan() { f64::NAN } else { w };
            for byte in w.to_bits().to_le_bytes() {
                *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    /// The operators' results over all pairs of [`pin_intervals`],
    /// recorded from the branchy bodies over `fpcore::round` before the
    /// select-form bodies replaced them.
    #[test]
    fn ops_are_pinned_bitwise() {
        let v = pin_intervals();
        type BinOp = fn(IntervalF64, IntervalF64) -> IntervalF64;
        let bin: [(&str, BinOp, u64); 6] = [
            ("add", |a, b| a + b, 0xca441118c00136f9),
            ("sub", |a, b| a - b, 0x0cdb30b3ed78f3a9),
            ("mul", |a, b| a * b, 0x6dc247ce5992e7cc),
            ("div", |a, b| a / b, 0x64f70b1b0ce12808),
            ("min", IntervalF64::min, 0xbe621285ec50e36e),
            ("max", IntervalF64::max, 0x35ed9b2dcfadec0a),
        ];
        for (name, op, want) in bin {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for &a in &v {
                for &b in &v {
                    digest(&mut h, op(a, b));
                }
            }
            assert_eq!(h, want, "{name}: digest {h:#018x}");
        }
        type UnOp = fn(IntervalF64) -> IntervalF64;
        let un: [(&str, UnOp, u64); 3] = [
            ("sqrt", IntervalF64::sqrt, 0xa57ea71de6e37872),
            ("abs", IntervalF64::abs, 0x3b0847502387a366),
            ("neg", |a| -a, 0xaa9f5e87345ab5e2),
        ];
        for (name, op, want) in un {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for &a in &v {
                digest(&mut h, op(a));
            }
            assert_eq!(h, want, "{name}: digest {h:#018x}");
        }
    }
}
