//! Double-double precision intervals (the `IGen-dd` baseline).

use safegen_fpcore::metrics::DD_MANTISSA_BITS;
use safegen_fpcore::Dd;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A closed interval with double-double endpoints: ~106 bits of endpoint
/// precision, the `IGen-dd` configuration of the paper's IA baseline.
///
/// Endpoint operations use the widened directed double-double operations of
/// [`safegen_fpcore::dd`], so soundness holds under the published dd error
/// bounds.
///
/// ```
/// use safegen_interval::{Dd, IntervalDd};
/// let a = IntervalDd::point(Dd::from(0.1));
/// let b = IntervalDd::point(Dd::from(0.2));
/// let s = a + b;
/// assert!(s.width_f64() < 1e-30);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IntervalDd {
    lo: Dd,
    hi: Dd,
}

impl IntervalDd {
    /// The point interval `[0, 0]`.
    pub const ZERO: IntervalDd = IntervalDd {
        lo: Dd::ZERO,
        hi: Dd::ZERO,
    };

    /// The full real line.
    pub fn entire() -> IntervalDd {
        IntervalDd {
            lo: Dd::from(f64::NEG_INFINITY),
            hi: Dd::from(f64::INFINITY),
        }
    }

    /// Creates an interval from its endpoints.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn new(lo: Dd, hi: Dd) -> IntervalDd {
        assert!(
            lo <= hi || lo.partial_cmp(&hi).is_none(),
            "invalid interval [{lo}, {hi}]"
        );
        IntervalDd { lo, hi }
    }

    /// A point interval.
    #[inline]
    pub fn point(x: Dd) -> IntervalDd {
        IntervalDd { lo: x, hi: x }
    }

    /// Sound enclosure of a decimal constant stored as `f64`, `x ± 1 ulp`.
    #[inline]
    pub fn constant(x: f64) -> IntervalDd {
        let u = safegen_fpcore::metrics::ulp(x);
        IntervalDd {
            lo: Dd::from(x).add_rd(Dd::from(-u)),
            hi: Dd::from(x).add_ru(Dd::from(u)),
        }
    }

    /// Lower endpoint.
    #[inline]
    pub fn lo(self) -> Dd {
        self.lo
    }

    /// Upper endpoint.
    #[inline]
    pub fn hi(self) -> Dd {
        self.hi
    }

    /// Approximate width as `f64` (round-to-nearest dd subtraction; a
    /// display/comparison metric, not a sound bound).
    #[inline]
    pub fn width_f64(self) -> f64 {
        (self.hi - self.lo).hi()
    }

    /// True if the dd value lies inside the interval.
    #[inline]
    pub fn contains(self, x: Dd) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// True if either endpoint is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.lo.is_nan() || self.hi.is_nan()
    }

    /// Sound square root (lower endpoint clamped at zero).
    pub fn sqrt(self) -> IntervalDd {
        if self.hi < Dd::ZERO {
            return IntervalDd {
                lo: Dd::from(f64::NAN),
                hi: Dd::from(f64::NAN),
            };
        }
        let lo = if self.lo <= Dd::ZERO {
            Dd::ZERO
        } else {
            self.lo.sqrt_rd()
        };
        IntervalDd {
            lo,
            hi: self.hi.sqrt_ru(),
        }
    }

    /// Minimum of two intervals, endpoint by endpoint (`other`'s
    /// endpoint unless `self`'s compares strictly below it).
    #[inline(always)]
    pub fn min(self, other: IntervalDd) -> IntervalDd {
        IntervalDd {
            lo: Dd::select(self.lo < other.lo, self.lo, other.lo),
            hi: Dd::select(self.hi < other.hi, self.hi, other.hi),
        }
    }

    /// Maximum of two intervals, endpoint by endpoint (`other`'s
    /// endpoint unless `self`'s compares strictly above it).
    #[inline(always)]
    pub fn max(self, other: IntervalDd) -> IntervalDd {
        IntervalDd {
            lo: Dd::select(self.lo > other.lo, self.lo, other.lo),
            hi: Dd::select(self.hi > other.hi, self.hi, other.hi),
        }
    }

    /// Absolute value.
    pub fn abs(self) -> IntervalDd {
        if self.lo >= Dd::ZERO {
            self
        } else if self.hi <= Dd::ZERO {
            -self
        } else {
            let m = if -self.lo > self.hi {
                -self.lo
            } else {
                self.hi
            };
            IntervalDd {
                lo: Dd::ZERO,
                hi: m,
            }
        }
    }

    /// Certified bits at dd precision (106 mantissa bits), measured on the
    /// `f64` projections of the endpoints with a dd width correction.
    ///
    /// The float-counting metric of the paper is defined on `f64`; for dd
    /// results we report `106 − log2(width / ulp_dd)` analogously, computed
    /// from the dd width relative to the magnitude.
    pub fn acc_bits(self) -> f64 {
        if self.is_nan() || !self.lo.is_finite() || !self.hi.is_finite() {
            return f64::NEG_INFINITY;
        }
        let w = (self.hi - self.lo).abs();
        if w == Dd::ZERO {
            return DD_MANTISSA_BITS as f64;
        }
        let mag = self
            .lo
            .abs()
            .hi()
            .max(self.hi.abs().hi())
            .max(f64::MIN_POSITIVE);
        // Number of dd-representable steps in the range ≈ w / (mag * 2^-106).
        let steps = w.hi() / (mag * 2f64.powi(-(DD_MANTISSA_BITS as i32)));
        DD_MANTISSA_BITS as f64 - steps.max(1.0).log2()
    }
}

impl From<f64> for IntervalDd {
    #[inline]
    fn from(x: f64) -> IntervalDd {
        IntervalDd::point(Dd::from(x))
    }
}

impl Default for IntervalDd {
    fn default() -> Self {
        IntervalDd::ZERO
    }
}

impl Neg for IntervalDd {
    type Output = IntervalDd;
    #[inline]
    fn neg(self) -> IntervalDd {
        IntervalDd {
            lo: -self.hi,
            hi: -self.lo,
        }
    }
}

impl Add for IntervalDd {
    type Output = IntervalDd;
    #[inline]
    fn add(self, rhs: IntervalDd) -> IntervalDd {
        IntervalDd {
            lo: self.lo.add_rd(rhs.lo),
            hi: self.hi.add_ru(rhs.hi),
        }
    }
}

impl Sub for IntervalDd {
    type Output = IntervalDd;
    #[inline]
    fn sub(self, rhs: IntervalDd) -> IntervalDd {
        IntervalDd {
            lo: self.lo.add_rd(-rhs.hi),
            hi: self.hi.add_ru(-rhs.lo),
        }
    }
}

impl Mul for IntervalDd {
    type Output = IntervalDd;
    /// Min/max over the four corner products, each computed with the
    /// appropriate widened rounding.
    #[inline]
    fn mul(self, rhs: IntervalDd) -> IntervalDd {
        let (a, b, c, d) = (self.lo, self.hi, rhs.lo, rhs.hi);
        corner_hull(
            [a.mul_rd(c), a.mul_rd(d), b.mul_rd(c), b.mul_rd(d)],
            [a.mul_ru(c), a.mul_ru(d), b.mul_ru(c), b.mul_ru(d)],
        )
    }
}

impl Div for IntervalDd {
    type Output = IntervalDd;
    /// Interval division; a divisor interval containing zero yields the
    /// entire real line.
    #[inline]
    fn div(self, rhs: IntervalDd) -> IntervalDd {
        if rhs.lo <= Dd::ZERO && rhs.hi >= Dd::ZERO {
            return IntervalDd::entire();
        }
        let (a, b, c, d) = (self.lo, self.hi, rhs.lo, rhs.hi);
        corner_hull(
            [a.div_rd(c), a.div_rd(d), b.div_rd(c), b.div_rd(d)],
            [a.div_ru(c), a.div_ru(d), b.div_ru(c), b.div_ru(d)],
        )
    }
}

/// The smallest of the lower and the largest of the upper corner
/// candidates, scanned in order with `<`/`>` as selects: a candidate
/// replaces the running extreme only when it compares strictly beyond
/// it, so with NaN words (unordered, every comparison false) the
/// earlier candidate stays.
#[inline(always)]
fn corner_hull(lo: [Dd; 4], hi: [Dd; 4]) -> IntervalDd {
    let (mut l, mut h) = (lo[0], hi[0]);
    for i in 1..4 {
        l = Dd::select(lo[i] < l, lo[i], l);
        h = Dd::select(hi[i] > h, hi[i], h);
    }
    IntervalDd { lo: l, hi: h }
}

impl fmt::Display for IntervalDd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_and_contains() {
        let x = IntervalDd::point(Dd::from(2.0));
        assert!(x.contains(Dd::from(2.0)));
        assert_eq!(x.width_f64(), 0.0);
    }

    #[test]
    fn add_is_much_tighter_than_f64() {
        let a = IntervalDd::point(Dd::from(0.1));
        let b = IntervalDd::point(Dd::from(0.2));
        let s = a + b;
        assert!(s.contains(Dd::from(0.1) + Dd::from(0.2)));
        assert!(s.width_f64() < 1e-30);
    }

    #[test]
    fn sub_soundness() {
        let a = IntervalDd::new(Dd::from(1.0), Dd::from(2.0));
        let d = a - a;
        assert!(d.contains(Dd::ZERO));
        // Dependency problem persists in IA even at dd precision.
        assert!(d.lo() <= Dd::from(-1.0) && d.hi() >= Dd::from(1.0));
    }

    #[test]
    fn mul_soundness() {
        let a = IntervalDd::constant(0.1);
        let p = a * a;
        let exact = Dd::from(0.1) * Dd::from(0.1);
        assert!(p.contains(exact));
    }

    #[test]
    fn mul_sign_cases() {
        let a = IntervalDd::new(Dd::from(-2.0), Dd::from(3.0));
        let b = IntervalDd::new(Dd::from(-5.0), Dd::from(4.0));
        let p = a * b;
        assert!(p.contains(Dd::from(-15.0)) && p.contains(Dd::from(12.0)));
    }

    #[test]
    fn div_soundness() {
        let a = IntervalDd::point(Dd::from(1.0));
        let b = IntervalDd::point(Dd::from(3.0));
        let q = a / b;
        assert!(q.contains(Dd::ONE / Dd::from(3.0)));
        assert!(q.width_f64() < 1e-30);
    }

    #[test]
    fn div_through_zero_is_entire() {
        let q = IntervalDd::point(Dd::ONE) / IntervalDd::new(Dd::from(-1.0), Dd::from(1.0));
        assert!(!q.lo().is_finite() && !q.hi().is_finite());
    }

    #[test]
    fn sqrt_soundness() {
        let r = IntervalDd::point(Dd::from(2.0)).sqrt();
        assert!(r.contains(Dd::from(2.0).sqrt()));
        assert!(r.width_f64() < 1e-30);
        assert!(r.width_f64() > 0.0);
    }

    #[test]
    fn constant_contains_true_decimal() {
        // The true real 0.1 differs from the f64 0.1; the ±1ulp enclosure
        // must contain it. Approximate the true value as dd.
        let true_tenth = Dd::ONE / Dd::from(10.0);
        assert!(IntervalDd::constant(0.1).contains(true_tenth));
    }

    #[test]
    fn accuracy_metric_sane() {
        let p = IntervalDd::point(Dd::from(1.5));
        assert_eq!(p.acc_bits(), 106.0);
        let wide = IntervalDd::new(Dd::from(1.0), Dd::from(2.0));
        assert!(wide.acc_bits() < 10.0);
        assert!(!IntervalDd::entire().acc_bits().is_finite());
    }

    #[test]
    fn div_by_unbounded_interval() {
        // 1/[1, ∞] = (0, 1]: finite endpoints, no runaway rescaling.
        let q = IntervalDd::point(Dd::ONE) / IntervalDd::new(Dd::ONE, Dd::from(f64::INFINITY));
        assert!(q.lo() <= Dd::ZERO && q.hi() >= Dd::ONE, "{q}");
        assert!(q.hi().is_finite());
        let q = IntervalDd::new(Dd::from(-2.0), Dd::from(3.0))
            / IntervalDd::new(Dd::ONE, Dd::from(f64::INFINITY));
        assert!(q.lo() <= Dd::from(-2.0) && q.hi() >= Dd::from(3.0), "{q}");
    }

    #[test]
    fn abs_cases() {
        let a = IntervalDd::new(Dd::from(-3.0), Dd::from(2.0)).abs();
        assert_eq!(a.lo(), Dd::ZERO);
        assert_eq!(a.hi(), Dd::from(3.0));
    }

    /// Intervals covering the case splits of `+ − × ÷ min max`: NaN,
    /// unbounded and near-overflow endpoints, sign-crossing, zero-width
    /// and divisor-straddling intervals, subnormal and cancelling
    /// double-double endpoints, and random ones.
    fn pin_intervals() -> Vec<IntervalDd> {
        let d = Dd::from;
        let iv = IntervalDd::new;
        let tiny = f64::MIN_POSITIVE * f64::EPSILON;
        let third = Dd::ONE / d(3.0);
        let mut v = vec![
            IntervalDd::ZERO,
            iv(d(-0.0), d(0.0)),
            IntervalDd::entire(),
            iv(d(f64::NAN), d(f64::NAN)),
            IntervalDd::point(d(1.0)),
            IntervalDd::point(d(-1.0)),
            iv(d(-2.0), d(-1.0)),
            iv(d(-1.0), d(1.0)),
            iv(d(0.0), d(3.0)),
            iv(d(-3.0), d(0.0)),
            iv(d(f64::MAX), d(f64::INFINITY)),
            iv(d(f64::NEG_INFINITY), d(-f64::MAX)),
            iv(d(1e300), d(f64::MAX)),
            iv(d(-tiny), d(tiny)),
            iv(d(tiny), d(3.0 * tiny)),
            iv(third.add_rd(-third), third.add_ru(d(1e-20))),
            iv(
                Dd::from_two_sum(1.0, -2f64.powi(-60)),
                Dd::from_two_sum(1.0, 1e-20),
            ),
            IntervalDd::constant(0.1),
            IntervalDd::constant(-7.25e-3),
            IntervalDd::point(third),
        ];
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        while v.len() < 36 {
            let c = (next() - 0.5) * 2f64.powi((next() * 80.0) as i32 - 40);
            let r = next() * c.abs() * 0.3;
            v.push(IntervalDd::constant(c) + iv(d(-r), d(r)));
        }
        v
    }

    /// The interval ops' results over all pairs of [`pin_intervals`],
    /// recorded from the per-op bodies before the ladder and the
    /// candidate selection became straight-line (for `min`/`max`: the
    /// VM's hand-rolled comparisons). NaNs count as one value (see the
    /// `fpcore` ladder pin).
    #[test]
    fn interval_ops_are_pinned_bitwise() {
        let v = pin_intervals();
        type BinOp = fn(IntervalDd, IntervalDd) -> IntervalDd;
        let ops: [(&str, BinOp, u64); 6] = [
            ("add", |a, b| a + b, 0x17fd6ddd961b245e),
            ("sub", |a, b| a - b, 0x0d0057549855ae29),
            ("mul", |a, b| a * b, 0x4b8fecfb59751b98),
            ("div", |a, b| a / b, 0x602294530ea99cc5),
            ("min", IntervalDd::min, 0xe4a4c0fe093a2d45),
            ("max", IntervalDd::max, 0xca6b740d5e961541),
        ];
        for (name, op, want) in ops {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for &a in &v {
                for &b in &v {
                    let r = op(a, b);
                    for w in [r.lo.hi(), r.lo.lo(), r.hi.hi(), r.hi.lo()] {
                        let w = if w.is_nan() { f64::NAN } else { w };
                        for byte in w.to_bits().to_le_bytes() {
                            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
                        }
                    }
                }
            }
            assert_eq!(h, want, "{name}: digest {h:#018x}");
        }
    }
}
