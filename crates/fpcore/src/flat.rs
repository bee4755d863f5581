//! Branch-free directed rounding.
//!
//! Every function here computes the **bit-identical** result of its
//! counterpart in [`crate::round`], but as straight-line code: the
//! special-case ladder (NaN, overflow, underflow, the deep-subnormal
//! guard) becomes a chain of selects applied in reverse priority order
//! instead of early returns. Straight-line bodies are what lets LLVM
//! vectorize a loop over register *columns* in the lane-major
//! interpreter — one `vfmadd`/`vblendv` sequence processing four lanes
//! per iteration — where the branchy originals would break the loop at
//! every early return.
//!
//! The equivalence is pinned by exhaustive-edge-case tests below (every
//! function against its branchy original over specials, subnormals,
//! guard-boundary values and random samples).
//!
//! These are the only directed-rounding bodies of the interval baseline:
//! `safegen_interval::IntervalF64`'s operators are built on them, and
//! the VM runs those operators through the column kernels even for a
//! single point, inside the kernels' FMA region, where the selects cost
//! less than the libm `fma` calls the branchy ladder makes outside it.
//! [`crate::round`] stays the ladder for the affine layer's scalar
//! rounding steps.

use crate::eft::{div_residual, sqrt_residual, two_prod, two_sum};
use crate::round::EFT_GUARD;

/// Select on `f64` written so LLVM if-converts it (`vblendvpd` in
/// vectorized loops). Both arms are always evaluated by the caller.
#[inline(always)]
pub(crate) fn sel(c: bool, t: f64, f: f64) -> f64 {
    if c {
        t
    } else {
        f
    }
}

/// Select on raw bits for [`next_up`]/[`next_down`].
#[inline(always)]
fn sel_bits(c: bool, t: u64, f: u64) -> u64 {
    if c {
        t
    } else {
        f
    }
}

const ABS_MASK: u64 = 0x7fff_ffff_ffff_ffff;

/// Branch-free `f64::next_up` (same result for every input, including
/// NaN, infinities and signed zeros).
#[inline(always)]
pub fn next_up(x: f64) -> f64 {
    let bits = x.to_bits();
    let abs = bits & ABS_MASK;
    let nb = sel_bits(
        abs == 0,
        1,
        sel_bits(bits == abs, bits.wrapping_add(1), bits.wrapping_sub(1)),
    );
    let keep = x.is_nan() || bits == f64::INFINITY.to_bits();
    f64::from_bits(sel_bits(keep, bits, nb))
}

/// Branch-free `f64::next_down`.
#[inline(always)]
pub fn next_down(x: f64) -> f64 {
    let bits = x.to_bits();
    let abs = bits & ABS_MASK;
    let nb = sel_bits(
        abs == 0,
        0x8000_0000_0000_0001,
        sel_bits(bits == abs, bits.wrapping_sub(1), bits.wrapping_add(1)),
    );
    let keep = x.is_nan() || bits == f64::NEG_INFINITY.to_bits();
    f64::from_bits(sel_bits(keep, bits, nb))
}

/// Branch-free [`crate::round::add_ru`].
#[inline(always)]
pub fn add_ru(a: f64, b: f64) -> f64 {
    let (s, e) = two_sum(a, b);
    let r = sel(e > 0.0, next_up(s), s);
    let r = sel(
        s == f64::NEG_INFINITY,
        sel(
            a == f64::NEG_INFINITY || b == f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            -f64::MAX,
        ),
        r,
    );
    sel(s.is_nan() || s == f64::INFINITY, s, r)
}

/// Branch-free [`crate::round::add_rd`].
#[inline(always)]
pub fn add_rd(a: f64, b: f64) -> f64 {
    -add_ru(-a, -b)
}

/// Branch-free [`crate::round::sub_ru`].
#[inline(always)]
pub fn sub_ru(a: f64, b: f64) -> f64 {
    add_ru(a, -b)
}

/// Branch-free [`crate::round::sub_rd`].
#[inline(always)]
pub fn sub_rd(a: f64, b: f64) -> f64 {
    add_rd(a, -b)
}

/// Branch-free [`crate::round::mul_ru`].
#[inline(always)]
pub fn mul_ru(a: f64, b: f64) -> f64 {
    let (p, e) = two_prod(a, b);
    let bumped = next_up(p);
    let r = sel(e > 0.0, bumped, p);
    let r = sel(p != 0.0 && p.abs() < EFT_GUARD, bumped, r);
    let r = sel(
        p == 0.0 && a != 0.0 && b != 0.0,
        sel(
            (a > 0.0) == (b > 0.0),
            f64::MIN_POSITIVE * f64::EPSILON,
            0.0,
        ),
        r,
    );
    let r = sel(
        p == f64::NEG_INFINITY,
        sel(
            a.is_infinite() || b.is_infinite(),
            f64::NEG_INFINITY,
            -f64::MAX,
        ),
        r,
    );
    sel(p.is_nan() || p == f64::INFINITY, p, r)
}

/// Branch-free [`crate::round::mul_rd`].
#[inline(always)]
pub fn mul_rd(a: f64, b: f64) -> f64 {
    -mul_ru(-a, b)
}

/// Branch-free [`crate::round::div_ru`].
#[inline(always)]
pub fn div_ru(a: f64, b: f64) -> f64 {
    let q = a / b;
    let res = div_residual(a, b, q);
    let bumped = next_up(q);
    let r = sel(res != 0.0 && (res > 0.0) == (b > 0.0), bumped, q);
    let r = sel(q.abs() < EFT_GUARD || a.abs() < EFT_GUARD, bumped, r);
    let r = sel(b.is_infinite() || a == 0.0, q, r);
    let r = sel(
        q == f64::NEG_INFINITY,
        sel(a.is_infinite() || b == 0.0, f64::NEG_INFINITY, -f64::MAX),
        r,
    );
    sel(q.is_nan() || q == f64::INFINITY, q, r)
}

/// Branch-free [`crate::round::div_rd`].
#[inline(always)]
pub fn div_rd(a: f64, b: f64) -> f64 {
    -div_ru(-a, b)
}

/// Branch-free [`crate::round::sqrt_ru`].
#[inline(always)]
pub fn sqrt_ru(a: f64) -> f64 {
    let s = a.sqrt();
    let r = sel(sqrt_residual(a, s) > 0.0, next_up(s), s);
    let r = sel(a < EFT_GUARD, next_up(s), r);
    sel(s.is_nan() || s.is_infinite() || a == 0.0, s, r)
}

/// Branch-free [`crate::round::sqrt_rd`].
#[inline(always)]
pub fn sqrt_rd(a: f64) -> f64 {
    let s = a.sqrt();
    let bumped = next_down(s).max(0.0);
    let r = sel(sqrt_residual(a, s) < 0.0, bumped, s);
    let r = sel(a < EFT_GUARD, bumped, r);
    sel(s.is_nan() || s.is_infinite() || a == 0.0, s, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round;

    /// Every value class the select chains discriminate on, plus the
    /// guard boundary and random normals.
    fn edge_values() -> Vec<f64> {
        let mut v = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1,
            -0.1,
            1.5,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * f64::EPSILON, // smallest subnormal
            -f64::MIN_POSITIVE * f64::EPSILON,
            EFT_GUARD,
            -EFT_GUARD,
            EFT_GUARD * 0.5,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e-200,
            -1e-200,
            1e200,
            -1e200,
            3.0,
            1.0 / 3.0,
            f64::EPSILON,
        ];
        // Deterministic pseudo-random normals spread over the exponent
        // range (xorshift; no external RNG in fpcore's dev-deps).
        let mut x = 0x243F_6A88_85A3_08D3u64;
        for _ in 0..200 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = f64::from_bits(x);
            if f.is_finite() {
                v.push(f);
            }
        }
        v
    }

    fn b(x: f64) -> u64 {
        x.to_bits()
    }

    #[test]
    fn flat_add_sub_match_branchy_bitwise() {
        for &x in &edge_values() {
            for &y in &edge_values() {
                assert_eq!(b(add_ru(x, y)), b(round::add_ru(x, y)), "add_ru({x},{y})");
                assert_eq!(b(add_rd(x, y)), b(round::add_rd(x, y)), "add_rd({x},{y})");
                assert_eq!(b(sub_ru(x, y)), b(round::sub_ru(x, y)), "sub_ru({x},{y})");
                assert_eq!(b(sub_rd(x, y)), b(round::sub_rd(x, y)), "sub_rd({x},{y})");
            }
        }
    }

    #[test]
    fn flat_mul_div_match_branchy_bitwise() {
        for &x in &edge_values() {
            for &y in &edge_values() {
                assert_eq!(b(mul_ru(x, y)), b(round::mul_ru(x, y)), "mul_ru({x},{y})");
                assert_eq!(b(mul_rd(x, y)), b(round::mul_rd(x, y)), "mul_rd({x},{y})");
                assert_eq!(b(div_ru(x, y)), b(round::div_ru(x, y)), "div_ru({x},{y})");
                assert_eq!(b(div_rd(x, y)), b(round::div_rd(x, y)), "div_rd({x},{y})");
            }
        }
    }

    #[test]
    fn flat_sqrt_matches_branchy_bitwise() {
        for &x in &edge_values() {
            assert_eq!(b(sqrt_ru(x)), b(round::sqrt_ru(x)), "sqrt_ru({x})");
            assert_eq!(b(sqrt_rd(x)), b(round::sqrt_rd(x)), "sqrt_rd({x})");
        }
    }

    #[test]
    fn flat_next_up_down_match_std() {
        for &x in &edge_values() {
            assert_eq!(b(next_up(x)), b(x.next_up()), "next_up({x})");
            assert_eq!(b(next_down(x)), b(x.next_down()), "next_down({x})");
        }
    }
}
