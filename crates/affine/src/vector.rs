//! SIMD-style vectorized merge kernels for direct-mapped placement
//! (paper Sec. V, "Arithmetic cost" and the `..v` configurations).
//!
//! The direct-mapped layout makes the symbol loop of an affine operation a
//! pure element-wise pass, which is what the paper vectorizes with AVX2
//! intrinsics. Here the same kernels are expressed as fixed-width
//! (4-lane) unrolled blocks over the structure-of-arrays slot storage, which
//! LLVM auto-vectorizes; blocks containing slot conflicts or empty/mixed
//! occupancy fall back to the scalar per-slot logic of the direct-mapped
//! kernels, so
//! results are **identical** to the scalar kernels on finite data (a
//! property the test suite checks).
//!
//! This vectorizes *within* one affine operation (across symbol slots).
//! The orthogonal axis — vectorizing across input points — is the
//! lane-major batch interpreter (`safegen::run_lanes_on`, DESIGN.md
//! § 10); its column kernels for the interval domains live in
//! `safegen-interval::cols` and follow the same playbook used here:
//! branch-free bodies in a `#[target_feature(enable = "fma,avx2")]`
//! region with a bit-identity test pinning them to the scalar path.

use crate::center::{CenterValue, ErrAcc};
use crate::config::{AaContext, Protect};
use crate::direct::{linear_slot, mul_slot, occupied};
use crate::symbol::{SymbolId, NO_SYMBOL};
use safegen_fpcore::eft::two_sum;

/// Lane width of the blocked kernels.
pub const LANES: usize = 4;

/// Vectorized linear merge `a ± b`, `b_ids`/`b_coeffs` holding `b` on
/// entry and the result on return. Semantically identical to the scalar
/// direct-mapped kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_linear_vec(
    a_ids: &[SymbolId],
    a_coeffs: &[f64],
    b_ids: &mut [SymbolId],
    b_coeffs: &mut [f64],
    sign_b: f64,
    ctx: &AaContext,
    protect: Protect<'_>,
    noise: &mut ErrAcc,
) {
    debug_assert_eq!(a_ids.len(), b_ids.len());
    let k = a_ids.len();
    // One slot through the scalar kernel.
    let slot = |s: usize, b_ids: &mut [SymbolId], b_coeffs: &mut [f64], noise: &mut ErrAcc| {
        (b_ids[s], b_coeffs[s]) = linear_slot(
            a_ids[s],
            a_coeffs[s],
            b_ids[s],
            b_coeffs[s],
            sign_b,
            ctx,
            protect,
            noise,
        );
    };

    let mut s = 0;
    while s + LANES <= k {
        // Fast path: every lane carries the same symbol on both sides
        // (the steady state once slots have filled up).
        let uniform = (0..LANES).all(|l| {
            let (ia, ib) = (a_ids[s + l], b_ids[s + l]);
            ia == ib && ia != NO_SYMBOL
        });
        if uniform {
            let mut cs = [0.0f64; LANES];
            let mut es = [0.0f64; LANES];
            // Branch-free TwoSum per lane: the block LLVM vectorizes.
            for l in 0..LANES {
                let (c, e) = two_sum(a_coeffs[s + l], sign_b * b_coeffs[s + l]);
                cs[l] = c;
                es[l] = e;
            }
            for l in 0..LANES {
                noise.add_abs(es[l]);
                (b_ids[s + l], b_coeffs[s + l]) = occupied(a_ids[s + l], cs[l]);
            }
        } else {
            for l in 0..LANES {
                slot(s + l, b_ids, b_coeffs, noise);
            }
        }
        s += LANES;
    }
    while s < k {
        slot(s, b_ids, b_coeffs, noise);
        s += 1;
    }
}

/// Vectorized multiplication merge, `b_ids`/`b_coeffs` holding `b` on
/// entry and the result on return. The fast path is specialized for an
/// `f64` central value (where the `a₀·bᵢ + b₀·aᵢ` products vectorize); the
/// generic path delegates to the scalar slot kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_mul_vec<C: CenterValue>(
    a0: C,
    b0: C,
    a_ids: &[SymbolId],
    a_coeffs: &[f64],
    b_ids: &mut [SymbolId],
    b_coeffs: &mut [f64],
    ctx: &AaContext,
    protect: Protect<'_>,
    noise: &mut ErrAcc,
) {
    debug_assert_eq!(a_ids.len(), b_ids.len());
    let k = a_ids.len();
    let (a0f, b0f) = (a0.to_f64(), b0.to_f64());
    // The blocked fast path computes the products at f64 precision; it is
    // only bit-identical to the scalar kernel when the center itself is
    // f64-exact, so restrict it to that case.
    let f64_center = C::MANTISSA_BITS == 53;
    // One slot through the scalar kernel.
    let slot = |s: usize, b_ids: &mut [SymbolId], b_coeffs: &mut [f64], noise: &mut ErrAcc| {
        (b_ids[s], b_coeffs[s]) = mul_slot(
            a0,
            b0,
            a_ids[s],
            a_coeffs[s],
            b_ids[s],
            b_coeffs[s],
            ctx,
            protect,
            noise,
        );
    };

    let mut s = 0;
    while s + LANES <= k {
        let uniform = f64_center
            && (0..LANES).all(|l| {
                let (ia, ib) = (a_ids[s + l], b_ids[s + l]);
                ia == ib && ia != NO_SYMBOL
            });
        if uniform {
            let mut cs = [0.0f64; LANES];
            let mut p1s = [0.0f64; LANES];
            let mut p2s = [0.0f64; LANES];
            let mut e1s = [0.0f64; LANES];
            let mut e2s = [0.0f64; LANES];
            let mut e3s = [0.0f64; LANES];
            for l in 0..LANES {
                // p1 = b0·aᵢ, p2 = a0·bᵢ, both with exact FMA residuals.
                let p1 = b0f * a_coeffs[s + l];
                e1s[l] = b0f.mul_add(a_coeffs[s + l], -p1);
                let p2 = a0f * b_coeffs[s + l];
                e2s[l] = a0f.mul_add(b_coeffs[s + l], -p2);
                let (c, e3) = two_sum(p1, p2);
                cs[l] = c;
                p1s[l] = p1;
                p2s[l] = p2;
                e3s[l] = e3;
            }
            for l in 0..LANES {
                // Deep-underflow residuals are inexact; route those lanes
                // through the scalar kernel (which applies its conservative
                // one-ulp guard) instead. The threshold is well above the
                // scalar kernel's own 2^-960 guard.
                let near = |x: f64| x != 0.0 && x.abs() < 1e-280;
                // A product that underflowed to exactly zero (nonzero
                // inputs) also needs the scalar kernel's handling.
                let uflow = (p1s[l] == 0.0 && b0f != 0.0) || (p2s[l] == 0.0 && a0f != 0.0);
                let tiny = near(cs[l]) || near(p1s[l]) || near(p2s[l]) || uflow;
                if tiny {
                    // Lane `l` of `b` is still unwritten: the scalar kernel
                    // reads the operand, not a partial result.
                    slot(s + l, b_ids, b_coeffs, noise);
                } else {
                    noise.add_abs(e1s[l]);
                    noise.add_abs(e2s[l]);
                    noise.add_abs(e3s[l]);
                    (b_ids[s + l], b_coeffs[s + l]) = occupied(a_ids[s + l], cs[l]);
                }
            }
        } else {
            for l in 0..LANES {
                slot(s + l, b_ids, b_coeffs, noise);
            }
        }
        s += LANES;
    }
    while s < k {
        slot(s, b_ids, b_coeffs, noise);
        s += 1;
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{AaConfig, AaContext, Protect};
    use crate::form::AffineF64;

    /// Runs the same random computation under scalar and vectorized
    /// kernels and demands identical results.
    fn compare_kernels(k: usize, seed: u64) {
        let mk = |vectorized: bool| {
            let ctx = AaContext::new(AaConfig::new(k).with_vectorized(vectorized));
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) as f64) / (u32::MAX as f64) + 0.1
            };
            let mut x = AffineF64::from_input(next(), &ctx);
            let mut y = AffineF64::from_input(next(), &ctx);
            for i in 0..40 {
                let c = AffineF64::constant(next(), &ctx);
                if i % 3 == 0 {
                    x = x.mul(&y, &ctx, Protect::None);
                } else if i % 3 == 1 {
                    y = y.add(&c, &ctx, Protect::None);
                } else {
                    x = x.sub(&c, &ctx, Protect::None);
                }
            }
            x.range()
        };
        let scalar = mk(false);
        let vec = mk(true);
        assert_eq!(scalar, vec, "k = {k}, seed = {seed}");
    }

    #[test]
    fn vectorized_matches_scalar_k8() {
        for seed in 0..10 {
            compare_kernels(8, seed);
        }
    }

    #[test]
    fn vectorized_matches_scalar_k12() {
        for seed in 0..10 {
            compare_kernels(12, seed);
        }
    }

    #[test]
    fn vectorized_matches_scalar_k5_with_tail() {
        // k not divisible by the lane width exercises the scalar tail.
        for seed in 0..10 {
            compare_kernels(5, seed);
        }
    }

    #[test]
    fn vectorized_matches_scalar_k48() {
        for seed in 0..5 {
            compare_kernels(48, seed);
        }
    }
}
