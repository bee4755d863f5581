//! Merge kernels for the direct-mapped placement policy (paper Sec. V-A).
//!
//! Symbols live in a fixed array of `k` slots, a symbol with id `i` in slot
//! `i mod k`. Shared symbols of two operands therefore align by
//! construction and the merge is a single element-wise pass over the slots
//! — no sorting, no searching — which is what enables both the order-of-
//! magnitude speedup of Table III and SIMD vectorization. The price is the
//! occasional *conflict*: two distinct symbols mapped to the same slot, one
//! of which must be fused into the operation's fresh symbol according to
//! the fusion policy.
//!
//! The per-slot bodies are factored out ([`linear_slot`], [`mul_slot`]) so
//! the vectorized kernels in [`crate::vector`] share them for their scalar
//! fallback lanes, guaranteeing identical semantics.
//!
//! The kernels work in place: the second operand's slots arrive in the
//! result's own arrays and every slot is rewritten with the result. Slot `s`
//! of the result depends on slot `s` of the operands alone, so reading a
//! slot before writing it is all the aliasing discipline needed.

use crate::center::{CenterValue, ErrAcc};
use crate::config::{AaContext, Protect};
use crate::fusion::resolve_conflict;
use crate::symbol::{SymbolId, Term, NO_SYMBOL};
use safegen_fpcore::round::{add_with_err, mul_with_err};

/// The empty slot.
const EMPTY: (SymbolId, f64) = (NO_SYMBOL, 0.0);

/// A slot holding `coeff` on `id`, or the empty slot when `coeff` is zero.
#[inline]
pub(crate) fn occupied(id: SymbolId, coeff: f64) -> (SymbolId, f64) {
    if coeff != 0.0 {
        (id, coeff)
    } else {
        EMPTY
    }
}

/// One slot of a linear merge `a ± b`: the surviving `(id, coeff)`, with
/// conflict losers fused into `noise`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn linear_slot(
    ia: SymbolId,
    ca: f64,
    ib: SymbolId,
    cb: f64,
    sign_b: f64,
    ctx: &AaContext,
    protect: Protect<'_>,
    noise: &mut ErrAcc,
) -> (SymbolId, f64) {
    match (ia != NO_SYMBOL, ib != NO_SYMBOL) {
        (false, false) => EMPTY,
        (true, false) => (ia, ca),
        (false, true) => (ib, sign_b * cb),
        (true, true) if ia == ib => {
            let (c, e) = add_with_err(ca, sign_b * cb);
            noise.add(e);
            occupied(ia, c)
        }
        (true, true) => {
            // Conflict: distinct symbols share the slot.
            let left = Term::new(ia, ca);
            let right = Term::new(ib, sign_b * cb);
            let keep_left = resolve_conflict(left, right, ctx.config().fusion, ctx, protect);
            let (kept, fused) = if keep_left {
                (left, right)
            } else {
                (right, left)
            };
            noise.add_abs(fused.coeff);
            (kept.id, kept.coeff)
        }
    }
}

/// One slot of a multiplication merge: coefficient `a₀·bᵢ + b₀·aᵢ`
/// (paper eq. 5), conflicts resolved as in [`linear_slot`].
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn mul_slot<C: CenterValue>(
    a0: C,
    b0: C,
    ia: SymbolId,
    ca: f64,
    ib: SymbolId,
    cb: f64,
    ctx: &AaContext,
    protect: Protect<'_>,
    noise: &mut ErrAcc,
) -> (SymbolId, f64) {
    match (ia != NO_SYMBOL, ib != NO_SYMBOL) {
        (false, false) => EMPTY,
        (true, false) => {
            let (c, e) = b0.scale_coeff(ca);
            noise.add(e);
            occupied(ia, c)
        }
        (false, true) => {
            let (c, e) = a0.scale_coeff(cb);
            noise.add(e);
            occupied(ib, c)
        }
        (true, true) if ia == ib => {
            let (p1, e1) = b0.scale_coeff(ca);
            let (p2, e2) = a0.scale_coeff(cb);
            let (c, e3) = add_with_err(p1, p2);
            noise.add(e1);
            noise.add(e2);
            noise.add(e3);
            occupied(ia, c)
        }
        (true, true) => {
            let (sa, ea) = b0.scale_coeff(ca);
            let (sb, eb) = a0.scale_coeff(cb);
            noise.add(ea);
            noise.add(eb);
            let left = Term::new(ia, sa);
            let right = Term::new(ib, sb);
            let keep_left = resolve_conflict(left, right, ctx.config().fusion, ctx, protect);
            let (kept, fused) = if keep_left {
                (left, right)
            } else {
                (right, left)
            };
            noise.add_abs(fused.coeff);
            occupied(kept.id, kept.coeff)
        }
    }
}

/// Slot-wise merge for a linear operation `a ± b` under direct mapping;
/// `b_ids`/`b_coeffs` hold `b` on entry and the result on return.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_linear_direct(
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
    for s in 0..a_ids.len() {
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
    }
}

/// Slot-wise merge for multiplication under direct mapping; `b_ids` /
/// `b_coeffs` hold `b` on entry and the result on return.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_mul_direct<C: CenterValue>(
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
    for s in 0..a_ids.len() {
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
    }
}

/// Scales every occupied slot in place by `alpha` (derived operations
/// `α·â + ζ`).
pub(crate) fn scale_direct(
    ids: &mut [SymbolId],
    coeffs: &mut [f64],
    alpha: f64,
    noise: &mut ErrAcc,
) {
    for (id, c) in ids.iter_mut().zip(coeffs.iter_mut()) {
        (*id, *c) = if *id != NO_SYMBOL {
            let (v, e) = mul_with_err(*c, alpha);
            noise.add(e);
            occupied(*id, v)
        } else {
            EMPTY
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AaConfig, Fusion};

    fn ctx(k: usize, fusion: Fusion) -> AaContext {
        AaContext::new(AaConfig::new(k).with_fusion(fusion).with_vectorized(false))
    }

    /// Runs the linear merge of `a` and `b` and returns the result slots.
    #[allow(clippy::too_many_arguments)]
    fn merge_linear(
        ai: &[SymbolId],
        ac: &[f64],
        bi: &[SymbolId],
        bc: &[f64],
        sign_b: f64,
        ctx: &AaContext,
        protect: Protect<'_>,
        noise: &mut ErrAcc,
    ) -> (Vec<SymbolId>, Vec<f64>) {
        let (mut ids, mut coeffs) = (bi.to_vec(), bc.to_vec());
        merge_linear_direct(ai, ac, &mut ids, &mut coeffs, sign_b, ctx, protect, noise);
        (ids, coeffs)
    }

    /// Runs the multiplication merge of `a` and `b` and returns its slots.
    #[allow(clippy::too_many_arguments)]
    fn merge_mul(
        a0: f64,
        b0: f64,
        ai: &[SymbolId],
        ac: &[f64],
        bi: &[SymbolId],
        bc: &[f64],
        ctx: &AaContext,
        noise: &mut ErrAcc,
    ) -> (Vec<SymbolId>, Vec<f64>) {
        let (mut ids, mut coeffs) = (bi.to_vec(), bc.to_vec());
        merge_mul_direct(
            a0,
            b0,
            ai,
            ac,
            &mut ids,
            &mut coeffs,
            ctx,
            Protect::None,
            noise,
        );
        (ids, coeffs)
    }

    fn slots(k: usize, pairs: &[(u64, f64)]) -> (Vec<SymbolId>, Vec<f64>) {
        let mut ids = vec![NO_SYMBOL; k];
        let mut coeffs = vec![0.0; k];
        for &(id, c) in pairs {
            let s = (id % k as u64) as usize;
            assert_eq!(ids[s], NO_SYMBOL, "test setup slot collision");
            ids[s] = id;
            coeffs[s] = c;
        }
        (ids, coeffs)
    }

    #[test]
    fn aligned_symbols_combine() {
        let c = ctx(4, Fusion::Smallest);
        let (ai, ac) = slots(4, &[(1, 1.0), (2, 2.0)]);
        let (bi, bc) = slots(4, &[(1, 0.5), (3, 3.0)]);
        let mut noise = ErrAcc::default();
        let (ids, coeffs) = merge_linear(&ai, &ac, &bi, &bc, 1.0, &c, Protect::None, &mut noise);
        assert_eq!(ids[1], 1);
        assert_eq!(coeffs[1], 1.5);
        assert_eq!(ids[2], 2);
        assert_eq!(coeffs[2], 2.0);
        assert_eq!(ids[3], 3);
        assert_eq!(coeffs[3], 3.0);
        assert_eq!(ids[0], NO_SYMBOL);
        assert_eq!(noise.value(), 0.0);
    }

    #[test]
    fn conflict_fuses_loser_into_noise_sp() {
        let c = ctx(4, Fusion::Smallest);
        // ids 1 and 5 both map to slot 1 with k = 4.
        let (ai, ac) = slots(4, &[(1, 10.0)]);
        let (bi, bc) = slots(4, &[(5, 0.5)]);
        let mut noise = ErrAcc::default();
        let (ids, coeffs) = merge_linear(&ai, &ac, &bi, &bc, 1.0, &c, Protect::None, &mut noise);
        assert_eq!(ids[1], 1); // SP keeps the larger magnitude
        assert_eq!(coeffs[1], 10.0);
        assert_eq!(noise.value(), 0.5); // loser magnitude preserved soundly
    }

    #[test]
    fn conflict_op_keeps_newer() {
        let c = ctx(4, Fusion::Oldest);
        let (ai, ac) = slots(4, &[(1, 10.0)]);
        let (bi, bc) = slots(4, &[(5, 0.5)]);
        let mut noise = ErrAcc::default();
        let (ids, coeffs) = merge_linear(&ai, &ac, &bi, &bc, 1.0, &c, Protect::None, &mut noise);
        assert_eq!(ids[1], 5); // OP fuses the oldest
        assert_eq!(coeffs[1], 0.5);
        assert_eq!(noise.value(), 10.0);
    }

    #[test]
    fn subtraction_applies_sign_to_b() {
        let c = ctx(4, Fusion::Smallest);
        let (ai, ac) = slots(4, &[(1, 1.0)]);
        let (bi, bc) = slots(4, &[(1, 1.0)]);
        let mut noise = ErrAcc::default();
        let (ids, _) = merge_linear(&ai, &ac, &bi, &bc, -1.0, &c, Protect::None, &mut noise);
        // full cancellation drops the slot
        assert_eq!(ids[1], NO_SYMBOL);
    }

    #[test]
    fn mul_coefficients_slotwise() {
        let c = ctx(4, Fusion::Smallest);
        let (ai, ac) = slots(4, &[(1, 1.0)]);
        let (bi, bc) = slots(4, &[(1, 2.0)]);
        let mut noise = ErrAcc::default();
        let (ids, coeffs) = merge_mul(2.0, 3.0, &ai, &ac, &bi, &bc, &c, &mut noise);
        // a0·b1 + b0·a1 = 2·2 + 3·1 = 7
        assert_eq!(ids[1], 1);
        assert_eq!(coeffs[1], 7.0);
    }

    #[test]
    fn mul_conflict_scales_before_fusing() {
        let c = ctx(4, Fusion::Smallest);
        let (ai, ac) = slots(4, &[(1, 1.0)]);
        let (bi, bc) = slots(4, &[(5, 1.0)]);
        let mut noise = ErrAcc::default();
        // a0 = 10, b0 = 2: candidates are b0·a1 = 2 (id 1), a0·b5 = 10 (id 5).
        let (ids, coeffs) = merge_mul(10.0, 2.0, &ai, &ac, &bi, &bc, &c, &mut noise);
        assert_eq!(ids[1], 5); // SP keeps the 10
        assert_eq!(coeffs[1], 10.0);
        assert_eq!(noise.value(), 2.0);
    }

    #[test]
    fn protection_decides_conflicts() {
        let c = ctx(4, Fusion::Smallest);
        let prot = [1u64];
        let (ai, ac) = slots(4, &[(1, 0.001)]);
        let (bi, bc) = slots(4, &[(5, 100.0)]);
        let mut noise = ErrAcc::default();
        let (ids, _) = merge_linear(&ai, &ac, &bi, &bc, 1.0, &c, Protect::Ids(&prot), &mut noise);
        assert_eq!(ids[1], 1, "protected symbol must keep its slot");
        assert_eq!(noise.value(), 100.0);
    }

    #[test]
    fn scale_direct_applies_alpha() {
        let (mut ids, mut coeffs) = slots(4, &[(1, 2.0), (2, -4.0)]);
        let mut noise = ErrAcc::default();
        scale_direct(&mut ids, &mut coeffs, 0.5, &mut noise);
        assert_eq!(ids[1], 1);
        assert_eq!(coeffs[1], 1.0);
        assert_eq!(coeffs[2], -2.0);
    }
}
