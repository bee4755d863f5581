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
//! A slot has one semantics, written twice: the scalar reference body here
//! ([`linear_slot_ref`], [`mul_slot_ref`]) and the AVX2 body in
//! [`crate::vector`]. Both handle the four slot cases (empty, one side,
//! same symbol, conflict) with the same arithmetic and give the same bits.
//! The scalar body is generic over the center precision and is the only
//! body for the random fusion policy, which draws from the context once
//! per conflict in slot order.
//!
//! Round-off does not go through per-term directed rounding. Slot `s`'s
//! error terms go into lane partial `s mod 4` with round-to-nearest adds
//! ([`RoundOff`]), and the operation adds one sound upper bound of their
//! sum to its noise ([`sum_bound`]).
//!
//! The kernels work in place: the second operand's slots arrive in the
//! result's own arrays and every slot is rewritten with the result. Slot `s`
//! of the result depends on slot `s` of the operands alone, so reading a
//! slot before writing it is all the aliasing discipline needed.

use crate::center::{CenterValue, ErrAcc};
use crate::config::{AaContext, Fusion, Protect};
use crate::symbol::{slot_of, SymbolId, NO_SYMBOL};
use crate::vector::{self, Avx2, LANES};
use safegen_fpcore::round::{add_with_err, mul_with_err, sum_bound};

/// The empty slot.
const EMPTY: (SymbolId, f64) = (NO_SYMBOL, 0.0);

/// Slots per chunk: protect masks are one `u64` per operand and chunk.
const CHUNK: usize = 64;

/// A slot holding `coeff` on `id`, or the empty slot when `coeff` is zero.
#[inline]
pub(crate) fn occupied(id: SymbolId, coeff: f64) -> (SymbolId, f64) {
    if coeff != 0.0 {
        (id, coeff)
    } else {
        EMPTY
    }
}

/// Round-off of one operation: four round-to-nearest lane partials (slot
/// `s` feeds partial `s mod 4`) and the count of non-zero terms.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RoundOff {
    pub(crate) lanes: [f64; LANES],
    pub(crate) terms: u64,
}

impl RoundOff {
    /// Adds the non-negative error term `e` of slot `s`.
    #[inline]
    pub(crate) fn push(&mut self, s: usize, e: f64) {
        self.lanes[s % LANES] += e;
        self.terms += u64::from(e != 0.0);
    }

    /// Sound upper bound on the exact sum of every pushed term.
    #[inline]
    pub(crate) fn bound(&self) -> f64 {
        let [p0, p1, p2, p3] = self.lanes;
        sum_bound((p0 + p1) + (p2 + p3), self.terms)
    }
}

/// Sound upper bound on `Σ|cₛ|` over the occupied slots: round-to-nearest
/// lane sums, accumulated as [`RoundOff`] accumulates round-off, and one
/// bound on them.
pub(crate) fn abs_sum(ids: &[SymbolId], coeffs: &[f64]) -> f64 {
    // `|c|` of an occupied slot, `+0` of an empty one, without a branch.
    let mag = |id: SymbolId, c: f64| {
        let keep = u64::from(id != NO_SYMBOL).wrapping_neg() >> 1;
        f64::from_bits(c.to_bits() & keep)
    };
    let mut acc = RoundOff::default();
    let (id_blocks, id_tail) = ids.as_chunks::<LANES>();
    let (c_blocks, c_tail) = coeffs.as_chunks::<LANES>();
    for (i, c) in id_blocks.iter().zip(c_blocks) {
        for l in 0..LANES {
            let t = mag(i[l], c[l]);
            acc.lanes[l] += t;
            acc.terms += u64::from(t != 0.0);
        }
    }
    for (l, (&i, &c)) in id_tail.iter().zip(c_tail).enumerate() {
        acc.push(l, mag(i, c));
    }
    acc.bound()
}

/// The operands of one merge: `a` borrowed, `b` in the result's own
/// arrays, which the merge rewrites with the result.
pub(crate) struct Slots<'a> {
    pub(crate) a_ids: &'a [SymbolId],
    pub(crate) a_coeffs: &'a [f64],
    pub(crate) b_ids: &'a mut [SymbolId],
    pub(crate) b_coeffs: &'a mut [f64],
}

/// How one chunk of at most 64 slots, starting at slot `base`, resolves
/// its conflicts: bit `s − base` of `pa` / `pb` is set when slot `s` of
/// `a` / `b` holds a protected symbol.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Rule {
    pub(crate) policy: Fusion,
    pub(crate) base: usize,
    pub(crate) pa: u64,
    pub(crate) pb: u64,
}

impl Rule {
    /// The protect bits of slot `s`, for `a` and for `b`.
    #[inline]
    fn protected(self, s: usize) -> (bool, bool) {
        let bit = s - self.base;
        ((self.pa >> bit) & 1 != 0, (self.pb >> bit) & 1 != 0)
    }

    /// Whether the left candidate keeps a conflicting slot. A protected
    /// candidate beats an unprotected one; otherwise SP and MP keep the
    /// larger magnitude (fusing the smaller loses least potential
    /// cancellation) and OP keeps the newer (larger) id.
    #[inline]
    fn keeps_left(
        self,
        s: usize,
        ia: SymbolId,
        ca: f64,
        ib: SymbolId,
        cb: f64,
        ctx: &AaContext,
    ) -> bool {
        let (lp, rp) = self.protected(s);
        if lp != rp {
            return lp;
        }
        match self.policy {
            Fusion::Smallest | Fusion::MeanThreshold => ca.abs() >= cb.abs(),
            Fusion::Oldest => ia > ib,
            Fusion::Random => ctx.rand() & 1 == 0,
        }
    }
}

/// The body that runs a direct-mapped merge.
#[derive(Clone, Copy)]
enum Body {
    Scalar,
    Avx2(Avx2),
}

impl Body {
    /// The body for a merge under `ctx`: AVX2 when the context takes it
    /// ([`AaContext::avx2`]) and (`f64_center`) the products are taken on
    /// an exact `f64` center; the scalar reference body otherwise.
    #[inline]
    fn select(ctx: &AaContext, f64_center: bool) -> Body {
        match ctx.avx2() {
            Some(t) if f64_center => Body::Avx2(t),
            _ => Body::Scalar,
        }
    }
}

/// Bit `s − base` of the first (second) mask set when slot `s` (in
/// `base..base + 64`) of `a` (`b`) holds a protected symbol. A symbol can
/// only sit in slot `id mod k`, so one pass over the protect set finds
/// them all.
fn protect_masks(x: &Slots<'_>, base: usize, protect: Protect<'_>) -> (u64, u64) {
    let Protect::Ids(set) = protect else {
        return (0, 0);
    };
    let (mut pa, mut pb) = (0, 0);
    for &id in set {
        let s = slot_of(id, x.a_ids.len());
        if s.wrapping_sub(base) < CHUNK {
            pa |= u64::from(x.a_ids[s] == id) << (s - base);
            pb |= u64::from(x.b_ids[s] == id) << (s - base);
        }
    }
    (pa, pb)
}

/// Runs `chunk(slots, range, rule, acc)` over the slots in chunks of 64,
/// records the conflicts it reports as condensations, and returns the
/// sound round-off bound of the whole merge.
fn run_chunks(
    x: &mut Slots<'_>,
    ctx: &AaContext,
    protect: Protect<'_>,
    mut chunk: impl FnMut(&mut Slots<'_>, usize, usize, Rule, &mut RoundOff) -> u64,
) -> f64 {
    debug_assert_eq!(x.a_ids.len(), x.b_ids.len());
    let k = x.a_ids.len();
    let mut acc = RoundOff::default();
    let mut conflicts = 0;
    for base in (0..k).step_by(CHUNK) {
        let (pa, pb) = protect_masks(x, base, protect);
        let rule = Rule {
            policy: ctx.config().fusion,
            base,
            pa,
            pb,
        };
        conflicts += chunk(x, base, (base + CHUNK).min(k), rule, &mut acc);
    }
    if conflicts > 0 {
        ctx.note_condensations(conflicts);
    }
    acc.bound()
}

/// Slot-wise merge for a linear operation `a ± b`; returns the sound bound
/// of its round-off.
pub(crate) fn merge_linear(
    x: &mut Slots<'_>,
    sign_b: f64,
    ctx: &AaContext,
    protect: Protect<'_>,
) -> f64 {
    let body = Body::select(ctx, true);
    run_chunks(x, ctx, protect, |x, start, end, rule, acc| match body {
        Body::Avx2(t) => vector::linear(t, x, start, end, sign_b, rule, ctx, acc),
        Body::Scalar => (start..end)
            .map(|s| u64::from(linear_slot_ref(x, s, sign_b, rule, ctx, acc)))
            .sum(),
    })
}

/// Slot-wise merge for multiplication (coefficient `a₀·bᵢ + b₀·aᵢ`, paper
/// eq. 5); returns the sound bound of its round-off.
pub(crate) fn merge_mul<C: CenterValue>(
    a0: C,
    b0: C,
    x: &mut Slots<'_>,
    ctx: &AaContext,
    protect: Protect<'_>,
) -> f64 {
    // The AVX2 body takes its products on an `f64` center, which is exact
    // for `f64` and `f32` centers (not for `Dd`).
    let body = Body::select(ctx, C::MANTISSA_BITS <= 53);
    run_chunks(x, ctx, protect, |x, start, end, rule, acc| match body {
        Body::Avx2(t) => vector::mul(t, x, start, end, a0.to_f64(), b0.to_f64(), rule, ctx, acc),
        Body::Scalar => (start..end)
            .map(|s| u64::from(mul_slot_ref(x, s, a0, b0, rule, ctx, acc)))
            .sum(),
    })
}

/// Slot `s` of `a ± b` (reference body). The shared-symbol case pushes the
/// sum's rounding error, a conflict the magnitude of the fused loser.
/// Returns whether the slot was a conflict.
#[inline]
pub(crate) fn linear_slot_ref(
    x: &mut Slots<'_>,
    s: usize,
    sign_b: f64,
    rule: Rule,
    ctx: &AaContext,
    acc: &mut RoundOff,
) -> bool {
    let (ia, ca) = (x.a_ids[s], x.a_coeffs[s]);
    let (ib, cb) = (x.b_ids[s], sign_b * x.b_coeffs[s]);
    let mut conflict = false;
    (x.b_ids[s], x.b_coeffs[s]) = match (ia != NO_SYMBOL, ib != NO_SYMBOL) {
        (false, false) => EMPTY,
        (true, false) => (ia, ca),
        (false, true) => (ib, cb),
        (true, true) if ia == ib => {
            let (c, e) = add_with_err(ca, cb);
            acc.push(s, e);
            occupied(ia, c)
        }
        (true, true) => {
            conflict = true;
            if rule.keeps_left(s, ia, ca, ib, cb, ctx) {
                acc.push(s, cb.abs());
                (ia, ca)
            } else {
                acc.push(s, ca.abs());
                (ib, cb)
            }
        }
    };
    conflict
}

/// Slot `s` of `a · b` (reference body): the products `b₀·aₛ` and `a₀·bₛ`
/// push their rounding errors first, then the shared-symbol sum pushes
/// its own, or a conflict the magnitude of the fused loser. Returns
/// whether the slot was a conflict.
#[inline]
pub(crate) fn mul_slot_ref<C: CenterValue>(
    x: &mut Slots<'_>,
    s: usize,
    a0: C,
    b0: C,
    rule: Rule,
    ctx: &AaContext,
    acc: &mut RoundOff,
) -> bool {
    let (ia, ib) = (x.a_ids[s], x.b_ids[s]);
    let (has_a, has_b) = (ia != NO_SYMBOL, ib != NO_SYMBOL);
    let (p1, e1) = if has_a {
        b0.scale_coeff(x.a_coeffs[s])
    } else {
        (0.0, 0.0)
    };
    let (p2, e2) = if has_b {
        a0.scale_coeff(x.b_coeffs[s])
    } else {
        (0.0, 0.0)
    };
    acc.push(s, e1);
    acc.push(s, e2);
    let mut conflict = false;
    (x.b_ids[s], x.b_coeffs[s]) = match (has_a, has_b) {
        (false, false) => EMPTY,
        (true, false) => occupied(ia, p1),
        (false, true) => occupied(ib, p2),
        (true, true) if ia == ib => {
            let (c, e3) = add_with_err(p1, p2);
            acc.push(s, e3);
            occupied(ia, c)
        }
        (true, true) => {
            conflict = true;
            if rule.keeps_left(s, ia, p1, ib, p2, ctx) {
                acc.push(s, p2.abs());
                occupied(ia, p1)
            } else {
                acc.push(s, p1.abs());
                occupied(ib, p2)
            }
        }
    };
    conflict
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
    use crate::config::AaConfig;

    fn ctx(k: usize, fusion: Fusion) -> AaContext {
        AaContext::new(AaConfig::new(k).with_fusion(fusion).with_vectorized(false))
    }

    /// Runs the linear merge of `a` and `b` and returns the result slots
    /// and the round-off bound.
    fn linear(
        a: &(Vec<SymbolId>, Vec<f64>),
        b: &(Vec<SymbolId>, Vec<f64>),
        sign_b: f64,
        ctx: &AaContext,
        protect: Protect<'_>,
    ) -> (Vec<SymbolId>, Vec<f64>, f64) {
        let (mut ids, mut coeffs) = b.clone();
        let mut x = Slots {
            a_ids: &a.0,
            a_coeffs: &a.1,
            b_ids: &mut ids,
            b_coeffs: &mut coeffs,
        };
        let noise = merge_linear(&mut x, sign_b, ctx, protect);
        (ids, coeffs, noise)
    }

    /// Runs the multiplication merge of `a` and `b` and returns its slots
    /// and the round-off bound.
    fn mul(
        a0: f64,
        b0: f64,
        a: &(Vec<SymbolId>, Vec<f64>),
        b: &(Vec<SymbolId>, Vec<f64>),
        ctx: &AaContext,
    ) -> (Vec<SymbolId>, Vec<f64>, f64) {
        let (mut ids, mut coeffs) = b.clone();
        let mut x = Slots {
            a_ids: &a.0,
            a_coeffs: &a.1,
            b_ids: &mut ids,
            b_coeffs: &mut coeffs,
        };
        let noise = merge_mul(a0, b0, &mut x, ctx, Protect::None);
        (ids, coeffs, noise)
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
        let a = slots(4, &[(1, 1.0), (2, 2.0)]);
        let b = slots(4, &[(1, 0.5), (3, 3.0)]);
        let (ids, coeffs, noise) = linear(&a, &b, 1.0, &c, Protect::None);
        assert_eq!(ids[1], 1);
        assert_eq!(coeffs[1], 1.5);
        assert_eq!(ids[2], 2);
        assert_eq!(coeffs[2], 2.0);
        assert_eq!(ids[3], 3);
        assert_eq!(coeffs[3], 3.0);
        assert_eq!(ids[0], NO_SYMBOL);
        assert_eq!(noise, 0.0);
    }

    #[test]
    fn conflict_fuses_loser_into_noise_sp() {
        let c = ctx(4, Fusion::Smallest);
        // ids 1 and 5 both map to slot 1 with k = 4.
        let a = slots(4, &[(1, 10.0)]);
        let b = slots(4, &[(5, 0.5)]);
        let (ids, coeffs, noise) = linear(&a, &b, 1.0, &c, Protect::None);
        assert_eq!(ids[1], 1); // SP keeps the larger magnitude
        assert_eq!(coeffs[1], 10.0);
        assert_eq!(noise, 0.5); // loser magnitude preserved soundly
        assert_eq!(c.counters().condensations, 1);
    }

    #[test]
    fn conflict_op_keeps_newer() {
        let c = ctx(4, Fusion::Oldest);
        let a = slots(4, &[(1, 10.0)]);
        let b = slots(4, &[(5, 0.5)]);
        let (ids, coeffs, noise) = linear(&a, &b, 1.0, &c, Protect::None);
        assert_eq!(ids[1], 5); // OP fuses the oldest
        assert_eq!(coeffs[1], 0.5);
        assert_eq!(noise, 10.0);
    }

    #[test]
    fn subtraction_applies_sign_to_b() {
        let c = ctx(4, Fusion::Smallest);
        let a = slots(4, &[(1, 1.0)]);
        let b = slots(4, &[(1, 1.0)]);
        let (ids, _, _) = linear(&a, &b, -1.0, &c, Protect::None);
        // full cancellation drops the slot
        assert_eq!(ids[1], NO_SYMBOL);
    }

    #[test]
    fn mul_coefficients_slotwise() {
        let c = ctx(4, Fusion::Smallest);
        let a = slots(4, &[(1, 1.0)]);
        let b = slots(4, &[(1, 2.0)]);
        let (ids, coeffs, _) = mul(2.0, 3.0, &a, &b, &c);
        // a0·b1 + b0·a1 = 2·2 + 3·1 = 7
        assert_eq!(ids[1], 1);
        assert_eq!(coeffs[1], 7.0);
    }

    #[test]
    fn mul_conflict_scales_before_fusing() {
        let c = ctx(4, Fusion::Smallest);
        let a = slots(4, &[(1, 1.0)]);
        let b = slots(4, &[(5, 1.0)]);
        // a0 = 10, b0 = 2: candidates are b0·a1 = 2 (id 1), a0·b5 = 10 (id 5).
        let (ids, coeffs, noise) = mul(10.0, 2.0, &a, &b, &c);
        assert_eq!(ids[1], 5); // SP keeps the 10
        assert_eq!(coeffs[1], 10.0);
        assert_eq!(noise, 2.0);
    }

    #[test]
    fn protection_decides_conflicts() {
        let c = ctx(4, Fusion::Smallest);
        let prot = [1u64];
        let a = slots(4, &[(1, 0.001)]);
        let b = slots(4, &[(5, 100.0)]);
        let (ids, _, noise) = linear(&a, &b, 1.0, &c, Protect::Ids(&prot));
        assert_eq!(ids[1], 1, "protected symbol must keep its slot");
        assert_eq!(noise, 100.0);
        // Protection on the right operand decides the other way.
        let (ids, _, _) = linear(&b, &a, 1.0, &c, Protect::Ids(&prot));
        assert_eq!(ids[1], 1);
    }

    #[test]
    fn protect_masks_find_protected_slots_per_chunk() {
        let (a_ids, a_coeffs) = slots(70, &[(3, 1.0), (68, 1.0)]);
        let (mut b_ids, mut b_coeffs) = slots(70, &[(139, 1.0), (143, 1.0)]);
        let x = Slots {
            a_ids: &a_ids,
            a_coeffs: &a_coeffs,
            b_ids: &mut b_ids,
            b_coeffs: &mut b_coeffs,
        };
        let prot = [3u64, 68, 69, 139];
        assert_eq!(protect_masks(&x, 0, Protect::Ids(&prot)), (1 << 3, 0));
        // 68 (in a) and 139 mod 70 = 69 (in b) live in the second chunk.
        assert_eq!(protect_masks(&x, 64, Protect::Ids(&prot)), (1 << 4, 1 << 5));
        assert_eq!(protect_masks(&x, 0, Protect::None), (0, 0));
    }

    #[test]
    fn round_off_sums_lanes_and_bounds_them() {
        let mut acc = RoundOff::default();
        assert_eq!(acc.bound(), 0.0);
        acc.push(5, 0.0);
        acc.push(5, 0.25);
        assert_eq!(acc.bound(), 0.25, "one term is exact");
        acc.push(2, 0.5);
        acc.push(6, 0.125);
        assert_eq!(acc.terms, 3);
        assert!(acc.bound() >= 0.875);
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
