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
//! One pass over the slots is the whole operation. Round-off does not go
//! through per-term directed rounding: the center error, slot `s`'s error
//! terms and (multiplication) the quadratic term go into lane partial
//! `s mod 4` with round-to-nearest adds ([`RoundOff`]), and the operation
//! takes one sound upper bound of their sum ([`sum_bound`]). A
//! multiplication sums the operand magnitudes `|aₛ|`, `|bₛ|` in the same
//! pass, so the radii of its quadratic term need no pass of their own.
//!
//! The kernels take three operands: they read `a` and `b` and write every
//! slot of the result into `out`, so the output's stale contents never
//! matter. In in-out mode (division, whose reciprocal is built in the
//! output) `b` *is* `out`. Slot `s` of the result depends on slot `s` of
//! the operands alone, so reading a slot before writing it is all the
//! aliasing discipline that mode needs.

use crate::center::{CenterValue, ErrAcc};
use crate::config::{AaContext, Fusion, Protect};
use crate::ops::mul_mag;
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

/// A sum of non-negative terms: four round-to-nearest lane partials (slot
/// `s` feeds partial `s mod 4`) and the count of non-zero terms.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct RoundOff {
    pub(crate) lanes: [f64; LANES],
    pub(crate) terms: u64,
}

impl RoundOff {
    /// Adds the non-negative term `e` of slot `s`.
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

/// What one merge sums besides the result slots: the operation's
/// round-off, and for a multiplication the magnitudes `|aₛ|`, `|bₛ|` of
/// the occupied operand slots.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Sums {
    pub(crate) round: RoundOff,
    pub(crate) mag_a: RoundOff,
    pub(crate) mag_b: RoundOff,
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

/// The operands of one merge: `a` and `b` are read, the result is written
/// to `out`. All arrays have the same length `k`.
pub(crate) struct Slots<'a> {
    pub(crate) a_ids: &'a [SymbolId],
    pub(crate) a_coeffs: &'a [f64],
    /// `b`'s slots, or `None` when `b` is `out`'s own contents (in-out
    /// mode).
    pub(crate) b: Option<(&'a [SymbolId], &'a [f64])>,
    pub(crate) out_ids: &'a mut [SymbolId],
    pub(crate) out_coeffs: &'a mut [f64],
}

impl Slots<'_> {
    /// Slot `s` of `b`; in in-out mode, only until slot `s` of `out` is
    /// written.
    #[inline]
    pub(crate) fn b(&self, s: usize) -> (SymbolId, f64) {
        match self.b {
            Some((ids, coeffs)) => (ids[s], coeffs[s]),
            None => (self.out_ids[s], self.out_coeffs[s]),
        }
    }

    /// Writes slot `s` of the result.
    #[inline]
    fn set(&mut self, s: usize, (id, coeff): (SymbolId, f64)) {
        (self.out_ids[s], self.out_coeffs[s]) = (id, coeff);
    }
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
            pb |= u64::from(x.b(s).0 == id) << (s - base);
        }
    }
    (pa, pb)
}

/// Runs `chunk(slots, range, rule, sums)` over the slots in chunks of 64
/// and records the conflicts it reports as condensations.
#[inline(always)]
fn run_chunks(
    x: &mut Slots<'_>,
    ctx: &AaContext,
    protect: Protect<'_>,
    sums: &mut Sums,
    mut chunk: impl FnMut(&mut Slots<'_>, usize, usize, Rule, &mut Sums) -> u64,
) {
    let k = x.a_ids.len();
    let mut conflicts = 0;
    for base in (0..k).step_by(CHUNK) {
        let (pa, pb) = protect_masks(x, base, protect);
        let rule = Rule {
            policy: ctx.config().fusion,
            base,
            pa,
            pb,
        };
        conflicts += chunk(x, base, (base + CHUNK).min(k), rule, sums);
    }
    if conflicts > 0 {
        ctx.note_condensations(conflicts);
    }
}

/// Slot-wise merge for a linear operation `a ± b` into `out`; adds its
/// round-off to `sums.round`.
#[inline(always)]
pub(crate) fn merge_linear(
    x: &mut Slots<'_>,
    sign_b: f64,
    ctx: &AaContext,
    protect: Protect<'_>,
    sums: &mut Sums,
) {
    let body = Body::select(ctx, true);
    run_chunks(
        x,
        ctx,
        protect,
        sums,
        |x, start, end, rule, sums| match body {
            Body::Avx2(t) => vector::linear(t, x, start, end, sign_b, rule, ctx, sums),
            Body::Scalar => (start..end)
                .map(|s| u64::from(linear_slot_ref(x, s, sign_b, rule, ctx, &mut sums.round)))
                .sum(),
        },
    );
}

/// Slot-wise merge for multiplication (coefficient `a₀·bᵢ + b₀·aᵢ`, paper
/// eq. 5) into `out`; adds its round-off to `sums.round` and the operand
/// magnitudes to `sums.mag_a`, `sums.mag_b`.
#[inline(always)]
pub(crate) fn merge_mul<C: CenterValue>(
    a0: C,
    b0: C,
    x: &mut Slots<'_>,
    ctx: &AaContext,
    protect: Protect<'_>,
    sums: &mut Sums,
) {
    // The AVX2 body takes its products on an `f64` center, which is exact
    // for `f64` and `f32` centers (not for `Dd`).
    let body = Body::select(ctx, C::MANTISSA_BITS <= 53);
    run_chunks(
        x,
        ctx,
        protect,
        sums,
        |x, start, end, rule, sums| match body {
            Body::Avx2(t) => {
                vector::mul(t, x, start, end, a0.to_f64(), b0.to_f64(), rule, ctx, sums)
            }
            Body::Scalar => (start..end)
                .map(|s| u64::from(mul_slot_ref(x, s, a0, b0, rule, ctx, sums)))
                .sum(),
        },
    );
}

/// The symbol part of `a ± b`, written to `out`, and the one bound on the
/// operation's noise: the center error `ce` (lane 0, first) and the slot
/// round-off.
#[inline(always)]
pub(crate) fn linear(
    x: &mut Slots<'_>,
    sign_b: f64,
    ce: f64,
    ctx: &AaContext,
    protect: Protect<'_>,
) -> f64 {
    let mut sums = Sums::default();
    sums.round.push(0, ce);
    merge_linear(x, sign_b, ctx, protect, &mut sums);
    sums.round.bound()
}

/// The symbol part of `a · b`, written to `out`, and the one bound on the
/// operation's noise: the center error `ce` (lane 0, first), the slot
/// round-off, and last (lane 0) the quadratic term `q = RU(r_a·r_b)`,
/// which covers every `εᵢ·εⱼ` product. Each radius is the bound on its
/// operand's magnitude sum, whose first term (lane 0) is the dedicated
/// noise `acc_a` / `acc_b`; `q` is zero when either radius is
/// ([`mul_mag`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn mul<C: CenterValue>(
    a0: C,
    b0: C,
    (acc_a, acc_b): (f64, f64),
    x: &mut Slots<'_>,
    ce: f64,
    ctx: &AaContext,
    protect: Protect<'_>,
) -> f64 {
    let mut sums = Sums::default();
    sums.round.push(0, ce);
    sums.mag_a.push(0, acc_a);
    sums.mag_b.push(0, acc_b);
    merge_mul(a0, b0, x, ctx, protect, &mut sums);
    sums.round
        .push(0, mul_mag(sums.mag_a.bound(), sums.mag_b.bound()));
    sums.round.bound()
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
    round: &mut RoundOff,
) -> bool {
    let (ia, ca) = (x.a_ids[s], x.a_coeffs[s]);
    let (ib, cb) = x.b(s);
    let cb = sign_b * cb;
    let mut conflict = false;
    let slot = match (ia != NO_SYMBOL, ib != NO_SYMBOL) {
        (false, false) => EMPTY,
        (true, false) => (ia, ca),
        (false, true) => (ib, cb),
        (true, true) if ia == ib => {
            let (c, e) = add_with_err(ca, cb);
            round.push(s, e);
            occupied(ia, c)
        }
        (true, true) => {
            conflict = true;
            if rule.keeps_left(s, ia, ca, ib, cb, ctx) {
                round.push(s, cb.abs());
                (ia, ca)
            } else {
                round.push(s, ca.abs());
                (ib, cb)
            }
        }
    };
    x.set(s, slot);
    conflict
}

/// Slot `s` of `a · b` (reference body): the operand magnitudes go into
/// `sums.mag_a` / `sums.mag_b` (zero for an empty side), the products
/// `b₀·aₛ` and `a₀·bₛ` push their rounding errors first, then the
/// shared-symbol sum pushes its own, or a conflict the magnitude of the
/// fused loser. Returns whether the slot was a conflict.
#[inline]
pub(crate) fn mul_slot_ref<C: CenterValue>(
    x: &mut Slots<'_>,
    s: usize,
    a0: C,
    b0: C,
    rule: Rule,
    ctx: &AaContext,
    sums: &mut Sums,
) -> bool {
    let (ia, ca) = (x.a_ids[s], x.a_coeffs[s]);
    let (ib, cb) = x.b(s);
    let (has_a, has_b) = (ia != NO_SYMBOL, ib != NO_SYMBOL);
    sums.mag_a.push(s, if has_a { ca.abs() } else { 0.0 });
    sums.mag_b.push(s, if has_b { cb.abs() } else { 0.0 });
    let (p1, e1) = if has_a {
        b0.scale_coeff(ca)
    } else {
        (0.0, 0.0)
    };
    let (p2, e2) = if has_b {
        a0.scale_coeff(cb)
    } else {
        (0.0, 0.0)
    };
    let round = &mut sums.round;
    round.push(s, e1);
    round.push(s, e2);
    let mut conflict = false;
    let slot = match (has_a, has_b) {
        (false, false) => EMPTY,
        (true, false) => occupied(ia, p1),
        (false, true) => occupied(ib, p2),
        (true, true) if ia == ib => {
            let (c, e3) = add_with_err(p1, p2);
            round.push(s, e3);
            occupied(ia, c)
        }
        (true, true) => {
            conflict = true;
            if rule.keeps_left(s, ia, p1, ib, p2, ctx) {
                round.push(s, p2.abs());
                occupied(ia, p1)
            } else {
                round.push(s, p1.abs());
                occupied(ib, p2)
            }
        }
    };
    x.set(s, slot);
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
    use safegen_rational::Rational;
    use std::cmp::Ordering;

    type State = (Vec<SymbolId>, Vec<f64>);

    fn ctx(k: usize, fusion: Fusion) -> AaContext {
        AaContext::new(AaConfig::new(k).with_fusion(fusion).with_vectorized(false))
    }

    /// An output full of stale slots: the merge must overwrite every one.
    fn stale(k: usize) -> State {
        (vec![7 * k as u64 + 3; k], vec![-0.75; k])
    }

    /// Borrows the operands and the output of one three-operand merge.
    fn slots<'a>(a: &'a State, b: &'a State, out: &'a mut State) -> Slots<'a> {
        Slots {
            a_ids: &a.0,
            a_coeffs: &a.1,
            b: Some((&b.0, &b.1)),
            out_ids: &mut out.0,
            out_coeffs: &mut out.1,
        }
    }

    /// Runs `a ± b` into a stale output and returns the result slots and
    /// the noise bound.
    fn run_linear(
        a: &State,
        b: &State,
        sign_b: f64,
        ctx: &AaContext,
        protect: Protect<'_>,
    ) -> (Vec<SymbolId>, Vec<f64>, f64) {
        let mut out = stale(a.0.len());
        let noise = linear(&mut slots(a, b, &mut out), sign_b, 0.0, ctx, protect);
        (out.0, out.1, noise)
    }

    /// Runs `a · b` into a stale output and returns the result slots and
    /// the noise bound (quadratic term included).
    fn run_mul(
        a0: f64,
        b0: f64,
        a: &State,
        b: &State,
        ctx: &AaContext,
    ) -> (Vec<SymbolId>, Vec<f64>, f64) {
        let mut out = stale(a.0.len());
        let mut x = slots(a, b, &mut out);
        let noise = mul(a0, b0, (0.0, 0.0), &mut x, 0.0, ctx, Protect::None);
        (out.0, out.1, noise)
    }

    fn state(k: usize, pairs: &[(u64, f64)]) -> State {
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
        let a = state(4, &[(1, 1.0), (2, 2.0)]);
        let b = state(4, &[(1, 0.5), (3, 3.0)]);
        let (ids, coeffs, noise) = run_linear(&a, &b, 1.0, &c, Protect::None);
        assert_eq!(ids[1], 1);
        assert_eq!(coeffs[1], 1.5);
        assert_eq!(ids[2], 2);
        assert_eq!(coeffs[2], 2.0);
        assert_eq!(ids[3], 3);
        assert_eq!(coeffs[3], 3.0);
        assert_eq!((ids[0], coeffs[0]), EMPTY, "stale slot left behind");
        assert_eq!(noise, 0.0);
    }

    #[test]
    fn conflict_fuses_loser_into_noise_sp() {
        let c = ctx(4, Fusion::Smallest);
        // ids 1 and 5 both map to slot 1 with k = 4.
        let a = state(4, &[(1, 10.0)]);
        let b = state(4, &[(5, 0.5)]);
        let (ids, coeffs, noise) = run_linear(&a, &b, 1.0, &c, Protect::None);
        assert_eq!(ids[1], 1); // SP keeps the larger magnitude
        assert_eq!(coeffs[1], 10.0);
        assert_eq!(noise, 0.5); // loser magnitude preserved soundly
        assert_eq!(c.counters().condensations, 1);
    }

    #[test]
    fn conflict_op_keeps_newer() {
        let c = ctx(4, Fusion::Oldest);
        let a = state(4, &[(1, 10.0)]);
        let b = state(4, &[(5, 0.5)]);
        let (ids, coeffs, noise) = run_linear(&a, &b, 1.0, &c, Protect::None);
        assert_eq!(ids[1], 5); // OP fuses the oldest
        assert_eq!(coeffs[1], 0.5);
        assert_eq!(noise, 10.0);
    }

    #[test]
    fn subtraction_applies_sign_to_b() {
        let c = ctx(4, Fusion::Smallest);
        let a = state(4, &[(1, 1.0)]);
        let b = state(4, &[(1, 1.0)]);
        let (ids, _, _) = run_linear(&a, &b, -1.0, &c, Protect::None);
        // full cancellation drops the slot
        assert_eq!(ids[1], NO_SYMBOL);
    }

    #[test]
    fn mul_coefficients_slotwise() {
        let c = ctx(4, Fusion::Smallest);
        let a = state(4, &[(1, 1.0)]);
        let b = state(4, &[(1, 2.0)]);
        let (ids, coeffs, _) = run_mul(2.0, 3.0, &a, &b, &c);
        // a0·b1 + b0·a1 = 2·2 + 3·1 = 7
        assert_eq!(ids[1], 1);
        assert_eq!(coeffs[1], 7.0);
    }

    #[test]
    fn mul_conflict_scales_before_fusing() {
        let c = ctx(4, Fusion::Smallest);
        let a = state(4, &[(1, 1.0)]);
        let b = state(4, &[(5, 1.0)]);
        // a0 = 10, b0 = 2: candidates are b0·a1 = 2 (id 1), a0·b5 = 10 (id 5).
        let (ids, coeffs, noise) = run_mul(10.0, 2.0, &a, &b, &c);
        assert_eq!(ids[1], 5); // SP keeps the 10
        assert_eq!(coeffs[1], 10.0);
        // The noise covers the fused loser 2 and the quadratic term
        // r(a)·r(b) = 1·1 with one bound: the multiplication sums both
        // into its lane partials, so the bound inflates their sum.
        assert_eq!(noise, sum_bound(3.0, 2));
    }

    #[test]
    fn protection_decides_conflicts() {
        let c = ctx(4, Fusion::Smallest);
        let prot = [1u64];
        let a = state(4, &[(1, 0.001)]);
        let b = state(4, &[(5, 100.0)]);
        let (ids, _, noise) = run_linear(&a, &b, 1.0, &c, Protect::Ids(&prot));
        assert_eq!(ids[1], 1, "protected symbol must keep its slot");
        assert_eq!(noise, 100.0);
        // Protection on the right operand decides the other way.
        let (ids, _, _) = run_linear(&b, &a, 1.0, &c, Protect::Ids(&prot));
        assert_eq!(ids[1], 1);
    }

    #[test]
    fn in_out_mode_matches_three_operand_mode() {
        let c = ctx(6, Fusion::Smallest);
        let a = state(6, &[(1, 1.5), (2, -2.0), (9, 0.25), (4, 3.0)]);
        let b = state(6, &[(7, 0.5), (2, 4.0), (3, -1.0)]);
        let (want_ids, want_coeffs, want) = run_mul(3.0, -0.5, &a, &b, &c);
        let (mut ids, mut coeffs) = b.clone();
        let mut x = Slots {
            a_ids: &a.0,
            a_coeffs: &a.1,
            b: None,
            out_ids: &mut ids,
            out_coeffs: &mut coeffs,
        };
        let got = mul(3.0, -0.5, (0.0, 0.0), &mut x, 0.0, &c, Protect::None);
        assert_eq!((ids, coeffs), (want_ids, want_coeffs));
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn protect_masks_find_protected_slots_per_chunk() {
        let a = state(70, &[(3, 1.0), (68, 1.0)]);
        let b = state(70, &[(139, 1.0), (143, 1.0)]);
        let mut out = stale(70);
        let x = slots(&a, &b, &mut out);
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
        let (mut ids, mut coeffs) = state(4, &[(1, 2.0), (2, -4.0)]);
        let mut noise = ErrAcc::default();
        scale_direct(&mut ids, &mut coeffs, 0.5, &mut noise);
        assert_eq!(ids[1], 1);
        assert_eq!(coeffs[1], 1.0);
        assert_eq!(coeffs[2], -2.0);
    }

    // -- the per-operation bound against exact rational arithmetic ---------

    /// xorshift64* stream for the oracle's random operands.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A finite non-zero value: mostly ordinary, sometimes subnormal
        /// or small enough that its products fall below the EFT guard.
        fn value(&mut self) -> f64 {
            let m = 1.0 + (self.next() >> 11) as f64 / (1u64 << 53) as f64;
            let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
            sign * match self.below(30) {
                0 => f64::from_bits(1 + self.below(1 << 52)),
                1 => m * 2f64.powi(-1000 + self.below(40) as i32),
                _ => m * 2f64.powi(self.below(80) as i32 - 40),
            }
        }

        /// A dedicated-noise magnitude, zero half of the time.
        fn acc(&mut self) -> f64 {
            if self.below(2) == 0 {
                0.0
            } else {
                self.value().abs()
            }
        }
    }

    fn rat(x: f64) -> Rational {
        Rational::from_f64(x).expect("finite")
    }

    /// Random operand slots: conflicts, one side, empty and shared slots.
    fn random_states(rng: &mut Rng, k: usize) -> (State, State) {
        let (mut a, mut b) = (state(k, &[]), state(k, &[]));
        for s in 0..k {
            let id = |rng: &mut Rng| s as u64 + k as u64 * rng.below(1 << 16);
            let (ia, ib) = match rng.below(5) {
                0 => {
                    let ia = id(rng);
                    (ia, ia + k as u64)
                }
                1 => (id(rng), NO_SYMBOL),
                2 => (NO_SYMBOL, id(rng)),
                3 => (NO_SYMBOL, NO_SYMBOL),
                _ => {
                    let i = id(rng);
                    (i, i)
                }
            };
            if ia != NO_SYMBOL {
                (a.0[s], a.1[s]) = (ia, rng.value());
            }
            if ib != NO_SYMBOL {
                (b.0[s], b.1[s]) = (ib, rng.value());
            }
        }
        (a, b)
    }

    /// `Σ |x_id − c(id)|` over every symbol of either operand: the exact
    /// coefficient `x_id` against the one the result keeps (zero for a
    /// fused or cancelled symbol).
    fn exact_slot_error(
        a: &State,
        b: &State,
        out: &State,
        coeff_a: impl Fn(f64) -> Rational,
        coeff_b: impl Fn(f64) -> Rational,
    ) -> Rational {
        let mut err = Rational::zero();
        for s in 0..a.0.len() {
            let kept = |id: SymbolId| {
                if out.0[s] == id {
                    rat(out.1[s])
                } else {
                    Rational::zero()
                }
            };
            let (ia, ib) = (a.0[s], b.0[s]);
            let xa = (ia != NO_SYMBOL).then(|| coeff_a(a.1[s]));
            let xb = (ib != NO_SYMBOL).then(|| coeff_b(b.1[s]));
            let mut terms: Vec<(SymbolId, Rational)> = Vec::new();
            match (xa, xb) {
                (Some(xa), Some(xb)) if ia == ib => terms.push((ia, xa.add(&xb))),
                (xa, xb) => {
                    terms.extend(xa.map(|x| (ia, x)));
                    terms.extend(xb.map(|x| (ib, x)));
                }
            }
            for (id, x) in terms {
                err = err.add(&x.sub(&kept(id)).abs());
            }
        }
        err
    }

    fn magnitude(acc: f64, x: &State) -> Rational {
        x.1.iter().fold(rat(acc), |m, &c| m.add(&rat(c).abs()))
    }

    #[test]
    fn op_bound_covers_exact_center_slot_and_quadratic_error() {
        let mut rng = Rng(0x0AC1_E5EE_D000_0017);
        for case in 0..600 {
            let k = [1, 3, 4, 8, 9][case % 5];
            let fusion = [Fusion::Smallest, Fusion::Oldest][case % 2];
            let vectorized = case % 3 != 0;
            let c = AaContext::new(
                AaConfig::new(k)
                    .with_fusion(fusion)
                    .with_vectorized(vectorized),
            );
            let (a, b) = random_states(&mut rng, k);
            let (a0, b0) = (rng.value(), rng.value());

            // a · b: ce, the slot errors and (acc_a + Σ|aₛ|)·(acc_b + Σ|bₛ|).
            let (acc_a, acc_b) = (rng.acc(), rng.acc());
            let (c0, ce) = mul_with_err(a0, b0);
            let mut out = stale(k);
            let noise = mul(
                a0,
                b0,
                (acc_a, acc_b),
                &mut slots(&a, &b, &mut out),
                ce,
                &c,
                Protect::None,
            );
            let exact = rat(a0)
                .mul(&rat(b0))
                .sub(&rat(c0))
                .abs()
                .add(&exact_slot_error(
                    &a,
                    &b,
                    &out,
                    |x| rat(b0).mul(&rat(x)),
                    |x| rat(a0).mul(&rat(x)),
                ))
                .add(&magnitude(acc_a, &a).mul(&magnitude(acc_b, &b)));
            assert_ne!(
                exact.cmp_val(&rat(noise)),
                Ordering::Greater,
                "mul case {case}: noise {noise} below the exact error"
            );

            // a − b: ce and the slot errors.
            let (c0, ce) = add_with_err(a0, -b0);
            let mut out = stale(k);
            let noise = linear(&mut slots(&a, &b, &mut out), -1.0, ce, &c, Protect::None);
            let exact = rat(a0)
                .sub(&rat(b0))
                .sub(&rat(c0))
                .abs()
                .add(&exact_slot_error(&a, &b, &out, rat, |x| rat(-x)));
            assert_ne!(
                exact.cmp_val(&rat(noise)),
                Ordering::Greater,
                "sub case {case}: noise {noise} below the exact error"
            );
        }
    }

    #[test]
    fn quadratic_term_of_an_empty_operand_is_zero_even_against_infinity() {
        let c = ctx(4, Fusion::Smallest);
        let a = state(4, &[(1, 0.5), (6, 2.0)]);
        let empty = state(4, &[]);
        let mut out = stale(4);
        // r(a) = ∞ (dedicated noise) and r(b) = 0: 0·∞ = 0, so the noise
        // is the center error alone.
        let noise = mul(
            3.0,
            0.25,
            (f64::INFINITY, 0.0),
            &mut slots(&a, &empty, &mut out),
            0.125,
            &c,
            Protect::None,
        );
        assert_eq!(noise, 0.125);
        // With b's dedicated noise non-zero, the quadratic term is ∞.
        let noise = mul(
            3.0,
            0.25,
            (f64::INFINITY, 1.0),
            &mut slots(&a, &empty, &mut out),
            0.125,
            &c,
            Protect::None,
        );
        assert_eq!(noise, f64::INFINITY);
        // Two empty operands without dedicated noise: only ce remains.
        let noise = mul(
            3.0,
            0.25,
            (0.0, 0.0),
            &mut slots(&empty, &empty, &mut out),
            0.125,
            &c,
            Protect::None,
        );
        assert_eq!(noise, 0.125);
        assert_eq!(out, empty, "an empty product leaves only empty slots");
        // A NaN radius poisons the noise unless the other radius is zero.
        let noise = mul(
            3.0,
            0.25,
            (f64::NAN, 0.0),
            &mut slots(&a, &empty, &mut out),
            0.0,
            &c,
            Protect::None,
        );
        assert_eq!(noise, 0.0);
        let noise = mul(
            3.0,
            0.25,
            (f64::NAN, 0.0),
            &mut slots(&a, &a, &mut out),
            0.0,
            &c,
            Protect::None,
        );
        assert!(noise.is_nan());
    }
}
