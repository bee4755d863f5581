//! Double-double ("dd") arithmetic.
//!
//! A [`Dd`] value is an unevaluated sum `hi + lo` of two `f64` with
//! `|lo| ≤ ulp(hi)/2`, giving roughly 106 significand bits. This is the
//! precision the paper calls `dd` (used for the `dda` affine type and the
//! `IGen-dd` baseline), implemented with the classical Dekker/Knuth
//! algorithms and FMA-based products.
//!
//! Besides round-to-nearest-style operations, the module exposes *widened*
//! directed variants (`add_ru`, `mul_rd`, …) that pad the result by a proven
//! relative-error bound so it can serve as a sound interval endpoint, and
//! `*_with_err` variants returning an upper bound on the rounding error for
//! use as affine error-symbol magnitudes.
//!
//! Relative-error bounds used (u = 2⁻⁵³, from Joldes–Muller–Popescu,
//! "Tight and rigorous error bounds for basic building blocks of
//! double-word arithmetic", with generous safety margins):
//! add ≤ 4u², mul ≤ 8u², div ≤ 16u², sqrt ≤ 8u².
//!
//! ## Straight-line addition and multiplication
//!
//! `+`, `−`, `×` and [`Dd::err_bound`] — and so the widened
//! `add_*`/`mul_*` built from them — have no branch: each computes its
//! finite path on every input and then *selects* the special-case result
//! (`{sh, 0}` on an overflowing or NaN sum, `{ph, 0}` on a product,
//! `+∞` for the error bound of a non-finite value). These are their only
//! bodies, and they are what lets the `IGen-dd` column kernels
//! (`safegen_interval::cols`) vectorize. They return the same bits as
//! the early-return ladder they replaced: the finite path is pure IEEE
//! arithmetic with no side effect (no trap, no panic),
//! so computing it on an input the ladder returned early for changes
//! nothing but the discarded value, and each select picks exactly the
//! value the early return produced. `err_bound` replaces `next_up` by a
//! one-bit step, which agrees with it on every value the finite path can
//! produce (argued on the function). The digests in this module's tests
//! were recorded from the branchy ladder and pin the equivalence.
//! Division and square root keep their rescaling branches.

use crate::eft::{quick_two_sum, two_prod, two_sum};
use crate::flat::sel;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// u² with a 4× margin: relative error bound of double-double addition.
pub const DD_ADD_REL: f64 = 4.0 * (f64::EPSILON / 2.0) * (f64::EPSILON / 2.0);
/// Relative error bound of double-double multiplication (8u²).
pub const DD_MUL_REL: f64 = 8.0 * (f64::EPSILON / 2.0) * (f64::EPSILON / 2.0);
/// Relative error bound of double-double division (16u²).
pub const DD_DIV_REL: f64 = 16.0 * (f64::EPSILON / 2.0) * (f64::EPSILON / 2.0);
/// Relative error bound of double-double square root (8u²).
pub const DD_SQRT_REL: f64 = 8.0 * (f64::EPSILON / 2.0) * (f64::EPSILON / 2.0);

/// Below this magnitude (`2^-900`) the multiplicative EFTs inside the dd
/// division and square-root refinements can underflow; such operands are
/// rescaled by exact powers of two first. (Bit pattern: biased exponent
/// 123, zero mantissa.)
const DEEP_GUARD: f64 = f64::from_bits(0x07B0_0000_0000_0000);

/// Above this magnitude (`2^900`) the refinement products inside dd
/// division and square root can overflow even when the true result is
/// finite (e.g. `MAX / 3`); such operands are rescaled down first.
const BIG_GUARD: f64 = f64::from_bits(0x7830_0000_0000_0000);

/// A double-double value: the unevaluated, non-overlapping sum `hi + lo`.
///
/// ```
/// use safegen_fpcore::Dd;
/// let third = Dd::from(1.0) / Dd::from(3.0);
/// let one = third * Dd::from(3.0);
/// assert!((one - Dd::from(1.0)).abs().hi() < 1e-31);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Dd {
    hi: f64,
    lo: f64,
}

impl Dd {
    /// Zero.
    pub const ZERO: Dd = Dd { hi: 0.0, lo: 0.0 };
    /// One.
    pub const ONE: Dd = Dd { hi: 1.0, lo: 0.0 };

    /// Creates a `Dd` from already-normalized components.
    ///
    /// # Panics
    ///
    /// Debug-panics if the pair is not normalized
    /// (`hi + lo` must round to `hi`).
    #[inline]
    pub fn new(hi: f64, lo: f64) -> Dd {
        debug_assert!(
            hi.is_nan() || hi.is_infinite() || hi + lo == hi,
            "non-normalized Dd: hi={hi}, lo={lo}"
        );
        Dd { hi, lo }
    }

    /// Creates a `Dd` from arbitrary components, renormalizing.
    #[inline]
    pub fn from_sum(a: f64, b: f64) -> Dd {
        let (hi, lo) = two_sum(a, b);
        Dd { hi, lo }
    }

    /// The exact sum `a + b` of two `f64` as a `Dd` (error-free).
    #[inline]
    pub fn from_two_sum(a: f64, b: f64) -> Dd {
        let (hi, lo) = two_sum(a, b);
        Dd { hi, lo }
    }

    /// The exact product `a * b` of two `f64` as a `Dd` (error-free for
    /// normal-range products).
    #[inline]
    pub fn from_two_prod(a: f64, b: f64) -> Dd {
        let (hi, lo) = two_prod(a, b);
        Dd { hi, lo }
    }

    /// High (leading) component.
    #[inline]
    pub fn hi(self) -> f64 {
        self.hi
    }

    /// Low (trailing) component.
    #[inline]
    pub fn lo(self) -> f64 {
        self.lo
    }

    /// Rounds to the nearest `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.hi
    }

    /// True if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.hi.is_nan() || self.lo.is_nan()
    }

    /// True if the value is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.hi.is_finite() && self.lo.is_finite()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Dd {
        if self.hi < 0.0 || (self.hi == 0.0 && self.lo < 0.0) {
            -self
        } else {
            self
        }
    }

    /// Multiplies by a power of two (exact).
    #[inline]
    pub fn scale_pow2(self, p: i32) -> Dd {
        let f = 2.0f64.powi(p);
        Dd {
            hi: self.hi * f,
            lo: self.lo * f,
        }
    }

    /// Double-double square root (Karp–Markstein style).
    ///
    /// Returns NaN for negative or NaN input.
    pub fn sqrt(self) -> Dd {
        if self.hi < 0.0 || self.hi.is_nan() {
            return Dd {
                hi: f64::NAN,
                lo: f64::NAN,
            };
        }
        if self.hi == 0.0 {
            return Dd::ZERO;
        }
        if self.hi == f64::INFINITY {
            // √+∞ = +∞; the rescaling below would leave ∞ unchanged and
            // recurse forever.
            return Dd::from(f64::INFINITY);
        }
        if self.hi < DEEP_GUARD {
            // Deep-subnormal radicands make the Karp–Markstein residual
            // underflow (its TwoProd is no longer exact). Rescale by an
            // even power of two — exact in both directions here.
            return self.scale_pow2(600).sqrt().scale_pow2(-300);
        }
        if self.hi > BIG_GUARD {
            // Near-overflow radicands make the residual's square
            // overflow. Same rescaling, downward.
            return self.scale_pow2(-600).sqrt().scale_pow2(300);
        }
        let x = 1.0 / self.hi.sqrt();
        let ax = self.hi * x;
        let axx = Dd::from_two_prod(ax, ax);
        let err = (self - axx).hi * (x * 0.5);
        let (hi, lo) = quick_two_sum(ax, err);
        Dd { hi, lo }
    }

    /// `if c { t } else { f }`, word by word and branch-free (a blend in
    /// vectorized loops; both arms are evaluated by the caller).
    #[inline(always)]
    pub fn select(c: bool, t: Dd, f: Dd) -> Dd {
        Dd {
            hi: sel(c, t.hi, f.hi),
            lo: sel(c, t.lo, f.lo),
        }
    }

    /// Reciprocal.
    #[inline]
    pub fn recip(self) -> Dd {
        Dd::ONE / self
    }

    /// A sound upper bound on the rounding error of a dd operation with
    /// relative error bound `rel`, as a single `f64` rounded upward.
    ///
    /// Straight-line (see the module docs). On a finite value,
    /// `b = rel · (|hi| + |lo|)` is `+0`, positive finite or `+∞`, never
    /// NaN or negative, so stepping its bits up by one is `next_up(b)` —
    /// except at `+∞`, whose successor bit pattern is a NaN: `|hi| + |lo|`
    /// rounds to `+∞` when `hi = MAX` and `lo` is half an ulp, and
    /// `next_up(∞)` is `∞`, hence the `b < ∞` guard. A non-finite value
    /// selects `+∞` over whatever the finite path produced.
    #[inline]
    pub fn err_bound(self, rel: f64) -> f64 {
        let b = rel * (self.hi.abs() + self.lo.abs());
        // One extra ulp absorbs the rounding of the bound product itself.
        let up = f64::from_bits(b.to_bits() + u64::from(b < f64::INFINITY));
        sel(self.is_finite(), up.max(f64::MIN_POSITIVE), f64::INFINITY)
    }

    /// Widened-upward addition: result ≥ exact `a + b`.
    #[inline]
    pub fn add_ru(self, rhs: Dd) -> Dd {
        let s = self + rhs;
        s.widen_up(s.err_bound(DD_ADD_REL))
    }

    /// Widened-downward addition: result ≤ exact `a + b`.
    #[inline]
    pub fn add_rd(self, rhs: Dd) -> Dd {
        let s = self + rhs;
        s.widen_down(s.err_bound(DD_ADD_REL))
    }

    /// Widened-upward multiplication.
    #[inline]
    pub fn mul_ru(self, rhs: Dd) -> Dd {
        let p = self * rhs;
        p.widen_up(p.err_bound(DD_MUL_REL))
    }

    /// Widened-downward multiplication.
    #[inline]
    pub fn mul_rd(self, rhs: Dd) -> Dd {
        let p = self * rhs;
        p.widen_down(p.err_bound(DD_MUL_REL))
    }

    /// Widened-upward division.
    #[inline]
    pub fn div_ru(self, rhs: Dd) -> Dd {
        let q = self / rhs;
        q.widen_up(q.err_bound(DD_DIV_REL))
    }

    /// Widened-downward division.
    #[inline]
    pub fn div_rd(self, rhs: Dd) -> Dd {
        let q = self / rhs;
        q.widen_down(q.err_bound(DD_DIV_REL))
    }

    /// Widened-upward square root.
    #[inline]
    pub fn sqrt_ru(self) -> Dd {
        let s = self.sqrt();
        s.widen_up(s.err_bound(DD_SQRT_REL))
    }

    /// Widened-downward square root (clamped at zero).
    #[inline]
    pub fn sqrt_rd(self) -> Dd {
        let s = self.sqrt();
        let w = s.widen_down(s.err_bound(DD_SQRT_REL));
        if w.hi < 0.0 {
            Dd::ZERO
        } else {
            w
        }
    }

    #[inline]
    fn widen_up(self, e: f64) -> Dd {
        self + Dd::from(e)
    }

    #[inline]
    fn widen_down(self, e: f64) -> Dd {
        self - Dd::from(e)
    }
}

impl From<f64> for Dd {
    #[inline]
    fn from(x: f64) -> Dd {
        Dd { hi: x, lo: 0.0 }
    }
}

impl From<Dd> for f64 {
    #[inline]
    fn from(x: Dd) -> f64 {
        x.hi
    }
}

impl Neg for Dd {
    type Output = Dd;
    #[inline]
    fn neg(self) -> Dd {
        Dd {
            hi: -self.hi,
            lo: -self.lo,
        }
    }
}

impl Add for Dd {
    type Output = Dd;
    /// Accurate double-double addition (Knuth-style).
    ///
    /// The renormalization steps use full TwoSum rather than FastTwoSum:
    /// when the high words cancel, the combined low-word term can exceed
    /// the cancelled high sum, violating FastTwoSum's `|a| ≥ |b|`
    /// precondition (caught by differential testing against the exact
    /// rational oracle with subnormal operands).
    ///
    /// On overflow (or a NaN operand) the result is the IEEE sum of the
    /// high words with a zero low word, selected over the finite path
    /// whose error terms turn into NaN there (see the module docs).
    #[inline]
    fn add(self, rhs: Dd) -> Dd {
        let (sh, se) = two_sum(self.hi, rhs.hi);
        let (th, te) = two_sum(self.lo, rhs.lo);
        let c = se + th;
        let (vh, ve) = two_sum(sh, c);
        let w = te + ve;
        let (hi, lo) = two_sum(vh, w);
        let fin = sh.is_finite();
        Dd {
            hi: sel(fin, hi, sh),
            lo: sel(fin, lo, 0.0),
        }
    }
}

impl Sub for Dd {
    type Output = Dd;
    #[inline]
    fn sub(self, rhs: Dd) -> Dd {
        self + (-rhs)
    }
}

impl Mul for Dd {
    type Output = Dd;
    /// FMA-based double-double multiplication.
    ///
    /// On overflow (or a NaN operand) the result is the IEEE product of
    /// the high words with a zero low word, as in `Add`.
    #[inline]
    fn mul(self, rhs: Dd) -> Dd {
        let (ph, pe) = two_prod(self.hi, rhs.hi);
        let t = self.hi.mul_add(rhs.lo, self.lo * rhs.hi);
        let e = pe + t;
        let (hi, lo) = quick_two_sum(ph, e);
        let fin = ph.is_finite();
        Dd {
            hi: sel(fin, hi, ph),
            lo: sel(fin, lo, 0.0),
        }
    }
}

impl Div for Dd {
    type Output = Dd;
    /// Long-division style double-double division.
    #[inline]
    fn div(self, rhs: Dd) -> Dd {
        let q1 = self.hi / rhs.hi;
        if !q1.is_finite() || rhs.hi.is_infinite() {
            // NaN, ±∞, or a finite dividend over ±∞, where `q1` is the
            // IEEE signed zero (rescaling ∞ would recurse forever).
            return Dd { hi: q1, lo: 0.0 };
        }
        // Operands outside (2^-900, 2^900) break the refinement steps:
        // deep-subnormal ones make its TwoProd inexact (quotients were
        // observed u-accurate instead of u²-accurate against the exact
        // rational oracle), near-overflow ones make `q1·rhs` overflow
        // into NaN (e.g. MAX / 3). Rescale each such operand by an exact
        // power of two; only the final rescale of the quotient can
        // round, and only when the true quotient is itself subnormal.
        let scale_of = |h: f64| -> i32 {
            let m = h.abs();
            if m != 0.0 && m < DEEP_GUARD {
                600
            } else if m > BIG_GUARD {
                -600
            } else {
                0
            }
        };
        let (sa, sb) = (scale_of(self.hi), scale_of(rhs.hi));
        if sa != 0 || sb != 0 {
            let q = self.scale_pow2(sa) / rhs.scale_pow2(sb);
            return q.scale_pow2(sb - sa);
        }
        let r = self - rhs * Dd::from(q1);
        let q2 = r.hi / rhs.hi;
        let r2 = r - rhs * Dd::from(q2);
        let q3 = r2.hi / rhs.hi;
        let (hi, lo) = quick_two_sum(q1, q2);
        Dd::from_sum(hi, lo + q3)
    }
}

/// Lexicographic on `(hi, lo)`; a NaN word makes the pair unordered
/// where it is compared. `<` and `>` are the same order written without
/// branches (non-short-circuit `&`/`|`), so candidate selections such as
/// the interval product's min/max stay straight-line.
impl PartialOrd for Dd {
    #[inline]
    fn partial_cmp(&self, other: &Dd) -> Option<Ordering> {
        match self.hi.partial_cmp(&other.hi) {
            Some(Ordering::Equal) => self.lo.partial_cmp(&other.lo),
            ord => ord,
        }
    }
    #[inline(always)]
    fn lt(&self, other: &Dd) -> bool {
        (self.hi < other.hi) | ((self.hi == other.hi) & (self.lo < other.lo))
    }
    #[inline(always)]
    fn gt(&self, other: &Dd) -> bool {
        (self.hi > other.hi) | ((self.hi == other.hi) & (self.lo > other.lo))
    }
}

impl fmt::Display for Dd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Show enough digits that distinct dd values print distinctly.
        write!(f, "{:.17e}{:+.17e}", self.hi, self.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sum_and_product() {
        let s = Dd::from_two_sum(0.1, 0.2);
        assert_eq!(s.hi(), 0.1 + 0.2);
        assert_ne!(s.lo(), 0.0);
        let p = Dd::from_two_prod(0.1, 0.1);
        assert_eq!(p.hi(), 0.1 * 0.1);
        assert_ne!(p.lo(), 0.0);
    }

    #[test]
    fn addition_is_much_more_accurate_than_f64() {
        // Sum 1 + 2^-60 + ... stays exact in dd, lost in f64.
        let tiny = 2.0f64.powi(-60);
        let x = Dd::from(1.0) + Dd::from(tiny);
        assert_eq!(x.hi(), 1.0);
        assert_eq!(x.lo(), tiny);
        let y = x - Dd::from(1.0);
        assert_eq!(y.hi(), tiny);
    }

    #[test]
    fn one_third_round_trip() {
        let third = Dd::ONE / Dd::from(3.0);
        let err = (third * Dd::from(3.0) - Dd::ONE).abs();
        assert!(err.hi() < 1e-31, "err = {}", err.hi());
    }

    #[test]
    fn sqrt_two_squared() {
        let r = Dd::from(2.0).sqrt();
        let err = (r * r - Dd::from(2.0)).abs();
        assert!(err.hi() < 1e-30, "err = {}", err.hi());
    }

    #[test]
    fn sqrt_edge_cases() {
        assert_eq!(Dd::ZERO.sqrt(), Dd::ZERO);
        assert!(Dd::from(-1.0).sqrt().is_nan());
        let exact = Dd::from(4.0).sqrt();
        assert_eq!(exact.hi(), 2.0);
        assert_eq!(exact.lo(), 0.0);
    }

    #[test]
    fn ordering() {
        assert!(Dd::from(1.0) < Dd::from(2.0));
        let a = Dd::from_two_sum(1.0, 1e-30);
        assert!(Dd::from(1.0) < a);
        assert!(a < Dd::from(1.0).add_ru(Dd::from(1e-20)));
    }

    /// The comparison operators (`<`/`>` branch-free, `<=`/`>=` derived)
    /// agree with `partial_cmp`, NaN words included.
    #[test]
    fn comparisons_match_partial_cmp() {
        use Ordering::{Equal, Greater, Less};
        let v = pin_inputs();
        for a in &v {
            for b in &v {
                let o = a.partial_cmp(b);
                assert_eq!(a < b, o == Some(Less), "{a} < {b}");
                assert_eq!(a <= b, matches!(o, Some(Less | Equal)), "{a} <= {b}");
                assert_eq!(a > b, o == Some(Greater), "{a} > {b}");
                assert_eq!(a >= b, matches!(o, Some(Greater | Equal)), "{a} >= {b}");
            }
        }
    }

    #[test]
    fn widened_ops_bracket_plain_ops() {
        let a = Dd::ONE / Dd::from(3.0);
        let b = Dd::ONE / Dd::from(7.0);
        assert!(a.add_rd(b) <= a + b);
        assert!(a + b <= a.add_ru(b));
        assert!(a.mul_rd(b) <= a * b);
        assert!(a * b <= a.mul_ru(b));
        assert!(a.div_rd(b) <= a / b);
        assert!(a / b <= a.div_ru(b));
        assert!(a.sqrt_rd() <= a.sqrt());
        assert!(a.sqrt() <= a.sqrt_ru());
    }

    #[test]
    fn widened_ops_strictly_widen_inexact_results() {
        let a = Dd::ONE / Dd::from(3.0);
        let b = Dd::ONE / Dd::from(7.0);
        assert!(a.mul_rd(b) < a.mul_ru(b));
    }

    #[test]
    fn err_bound_positive_and_monotone() {
        let x = Dd::from(1.0);
        let e = x.err_bound(DD_ADD_REL);
        assert!(e > 0.0);
        let big = Dd::from(1e100);
        assert!(big.err_bound(DD_ADD_REL) > e);
        assert_eq!(Dd::from(f64::INFINITY).err_bound(DD_ADD_REL), f64::INFINITY);
    }

    #[test]
    fn division_by_zero_gives_infinity() {
        let q = Dd::ONE / Dd::ZERO;
        assert!(q.hi().is_infinite());
    }

    #[test]
    fn division_by_infinity_gives_signed_zero() {
        for (x, inf, neg) in [
            (1757.68, f64::INFINITY, false),
            (1757.68, f64::NEG_INFINITY, true),
            (-1.0, f64::INFINITY, true),
            (0.0, f64::INFINITY, false),
            (f64::MAX, f64::INFINITY, false),
        ] {
            let q = Dd::from(x) / Dd::from(inf);
            assert_eq!(q.hi(), 0.0, "{x} / {inf}");
            assert_eq!(q.hi().is_sign_negative(), neg, "{x} / {inf}");
            assert_eq!(q.lo(), 0.0);
        }
    }

    #[test]
    fn infinity_over_finite_is_infinite() {
        let q = Dd::from(f64::INFINITY) / Dd::from(3.0);
        assert_eq!(q.hi(), f64::INFINITY);
        let q = Dd::from(f64::INFINITY) / Dd::from(-3.0);
        assert_eq!(q.hi(), f64::NEG_INFINITY);
        assert!((Dd::from(f64::INFINITY) / Dd::from(f64::INFINITY))
            .hi()
            .is_nan());
    }

    #[test]
    fn sqrt_of_infinity_is_infinity() {
        assert_eq!(Dd::from(f64::INFINITY).sqrt().hi(), f64::INFINITY);
        assert_eq!(Dd::from(f64::INFINITY).sqrt_ru().hi(), f64::INFINITY);
        assert!(Dd::from(f64::NEG_INFINITY).sqrt().hi().is_nan());
    }

    #[test]
    fn nan_operands_stay_nan() {
        let nan = Dd::from(f64::NAN);
        assert!((nan / Dd::from(2.0)).hi().is_nan());
        assert!((Dd::from(2.0) / nan).hi().is_nan());
        assert!(nan.sqrt().hi().is_nan());
    }

    #[test]
    fn neg_and_abs() {
        let a = Dd::from_two_sum(-1.0, -1e-20);
        assert_eq!(a.abs(), -a);
        assert_eq!(a.abs().hi(), 1.0);
    }

    #[test]
    fn display_nonempty() {
        let s = format!("{}", Dd::from(1.5));
        assert!(!s.is_empty());
    }

    #[test]
    fn scale_pow2_exact() {
        let a = Dd::ONE / Dd::from(3.0);
        let b = a.scale_pow2(4);
        let err = (b - a * Dd::from(16.0)).abs();
        assert_eq!(err.hi(), 0.0);
    }

    /// Operands for the pinned-bits test: every case the select chains
    /// of `add`, `mul` and `err_bound` discriminate on, plus random
    /// normalized pairs.
    fn pin_inputs() -> Vec<Dd> {
        let tiny = f64::MIN_POSITIVE * f64::EPSILON;
        // Half an ulp of MAX: `|MAX| + |lo|` rounds to +∞ while both
        // words are finite (not a normalized dd, but a representable one).
        let half_ulp_max = 2f64.powi(970);
        let raw = |hi: f64, lo: f64| Dd { hi, lo };
        let mut v = vec![
            Dd::ZERO,
            raw(-0.0, 0.0),
            raw(-0.0, -0.0),
            Dd::from(f64::INFINITY),
            Dd::from(f64::NEG_INFINITY),
            Dd::from(f64::NAN),
            raw(1.0, f64::NAN),
            Dd::from(f64::MAX),
            Dd::from(-f64::MAX),
            raw(f64::MAX, half_ulp_max),
            raw(-f64::MAX, -half_ulp_max),
            raw(f64::MAX, -half_ulp_max * 0.5),
            Dd::from(tiny),
            Dd::from(-tiny),
            Dd::from(3.0 * tiny),
            raw(f64::MIN_POSITIVE, tiny),
            Dd::from(-f64::MIN_POSITIVE),
            Dd::ONE,
            Dd::from(-1.5),
            Dd::from_two_sum(1.0, 1e-20),
            Dd::from_two_sum(-1.0, -1e-20),
            Dd::from_two_sum(1.0, -2f64.powi(-60)),
            Dd::from_two_sum(-1.0, 2f64.powi(-80)),
            Dd::ONE / Dd::from(3.0),
            Dd::ONE / Dd::from(-7.0),
            Dd::from(1e300),
            Dd::from(-1e-300),
        ];
        // Deterministic xorshift: hi anywhere in the finite range, lo a
        // sub-ulp tail of either sign.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        while v.len() < 60 {
            let hi = f64::from_bits(next());
            let r = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            if hi.is_finite() {
                v.push(Dd::from_two_sum(hi, hi * r * f64::EPSILON * 0.5));
            }
        }
        v
    }

    /// FNV-1a over the bits of every result word. NaNs count as one
    /// value: their sign and payload are not fixed by IEEE 754 and
    /// differ between optimization levels (`a + (-b)` may become
    /// `a - b`).
    fn digest(words: impl IntoIterator<Item = f64>) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for w in words {
            let w = if w.is_nan() { f64::NAN } else { w };
            for byte in w.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }

    /// The ladder's results over [`pin_inputs`], recorded from the
    /// branchy ladder (early returns for overflow and NaN, `next_up` in
    /// `err_bound`) before it became straight-line. Any change to a
    /// result bit changes a digest.
    #[test]
    fn ladder_results_are_pinned_bitwise() {
        let v = pin_inputs();
        type BinOp = fn(Dd, Dd) -> Dd;
        let bin: [(&str, BinOp, u64); 7] = [
            ("add", |a, b| a + b, 0x87147e4aa3eda82b),
            ("sub", |a, b| a - b, 0x366b6280d604f25c),
            ("mul", |a, b| a * b, 0x23491fdf73793b83),
            ("add_ru", Dd::add_ru, 0x0c82b8a93f8fa0a3),
            ("add_rd", Dd::add_rd, 0x800a4af438935424),
            ("mul_ru", Dd::mul_ru, 0xbfcfc54b68e2e5cc),
            ("mul_rd", Dd::mul_rd, 0x3331bc5c26ea3bdd),
        ];
        for (name, op, want) in bin {
            let got = digest(v.iter().flat_map(|&a| {
                v.iter().flat_map(move |&b| {
                    let r = op(a, b);
                    [r.hi, r.lo]
                })
            }));
            assert_eq!(got, want, "{name}: digest {got:#018x}");
        }
        for (name, rel, want) in [
            ("add", DD_ADD_REL, 0xd1634e5a40e866c0),
            ("mul", DD_MUL_REL, 0x766e5518e1f8a63d),
        ] {
            let got = digest(v.iter().map(|a| a.err_bound(rel)));
            assert_eq!(got, want, "err_bound({name}): digest {got:#018x}");
        }
    }

    /// On normalized finite operands the pinned ops are sound: the
    /// directed ops bracket the exact sum or product, and `err_bound`
    /// of a round-to-nearest result covers its distance to the exact
    /// value.
    #[test]
    fn ladder_contains_the_exact_result_on_finite_cases() {
        use safegen_rational::Rational;
        use std::cmp::Ordering::{Greater, Less};
        let q = |d: Dd| -> Option<Rational> {
            Some(Rational::from_f64(d.hi)?.add(&Rational::from_f64(d.lo)?))
        };
        let normal = |d: Dd| d.is_finite() && d.hi + d.lo == d.hi;
        let v: Vec<Dd> = pin_inputs().into_iter().filter(|&d| normal(d)).collect();
        let mut checked = 0;
        for &a in &v {
            for &b in &v {
                let (qa, qb) = (q(a).unwrap(), q(b).unwrap());
                let cases = [
                    (qa.add(&qb), a + b, a.add_rd(b), a.add_ru(b), DD_ADD_REL),
                    (qa.sub(&qb), a - b, a.add_rd(-b), a.add_ru(-b), DD_ADD_REL),
                    (qa.mul(&qb), a * b, a.mul_rd(b), a.mul_ru(b), DD_MUL_REL),
                ];
                for (exact, near, rd, ru, rel) in cases {
                    let (Some(n), Some(lo), Some(hi)) = (q(near), q(rd), q(ru)) else {
                        continue;
                    };
                    assert_ne!(lo.cmp_val(&exact), Greater, "rd above exact: {a} {b}");
                    assert_ne!(hi.cmp_val(&exact), Less, "ru below exact: {a} {b}");
                    let e = Rational::from_f64(near.err_bound(rel)).unwrap();
                    assert_ne!(n.sub(&exact).abs().cmp_val(&e), Greater, "bound: {a} {b}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 5000, "only {checked} finite cases");
    }
}
