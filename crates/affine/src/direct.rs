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
//! One pass over the slots is the whole operation, and one directed
//! rounding step its whole noise. Round-off does not go through per-term
//! directed rounding: the center error and slot `s`'s error terms go into
//! lane partial `s mod 4` with round-to-nearest adds ([`RoundOff`]). A
//! multiplication sums the operand magnitudes `|aₛ|`, `|bₛ|` the same way
//! in the same pass, so the radii of its quadratic term need no pass of
//! their own, and takes their product to nearest ([`quadratic`]). Under
//! [`NoisePolicy::Fresh`] the occupant of the slot the operation's fresh
//! symbol claims joins the round-off partials too ([`occupant`]): the
//! fresh symbol absorbs it (paper eq. 6). The operation then takes one
//! sound upper bound of the whole sum ([`sum_bound`]), whose term count
//! covers every round-to-nearest step on the way (DESIGN.md §4
//! decision 7), and [`place_fresh`] writes it without another rounding.
//!
//! The kernels take three operands: they read `a` and `b` and write every
//! slot of the result into `out`, so the output's stale contents never
//! matter. In in-out mode (division, whose reciprocal is built in the
//! output) `b` *is* `out`. Slot `s` of the result depends on slot `s` of
//! the operands alone, so reading a slot before writing it is all the
//! aliasing discipline that mode needs.

use crate::center::{CenterValue, ErrAcc};
use crate::config::{AaContext, Fusion, NoisePolicy, Protect};
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
    #[inline(always)]
    pub(crate) fn push(&mut self, s: usize, e: f64) {
        self.lanes[s % LANES] += e;
        self.terms += u64::from(e != 0.0);
    }

    /// The round-to-nearest sum `(p0 + p1) + (p2 + p3)` of the partials.
    /// It is at least the exact sum of the pushed terms times
    /// `(1 − 2⁻⁵³)^(terms − 1)`: a zero term adds exactly, so at most
    /// `terms − 1` roundings lie on any term's way to the sum.
    #[inline(always)]
    pub(crate) fn sum(&self) -> f64 {
        let [p0, p1, p2, p3] = self.lanes;
        (p0 + p1) + (p2 + p3)
    }

    /// Sound upper bound on the exact sum of every pushed term.
    #[inline(always)]
    pub(crate) fn bound(&self) -> f64 {
        sum_bound(self.sum(), self.terms)
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
#[inline(always)]
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
        #[inline(always)]
        |x, start, end, rule, sums| match body {
            Body::Avx2(t) => vector::linear(t, x, start, end, sign_b, rule, ctx, sums),
            Body::Scalar => {
                let mut conflicts = 0;
                for s in start..end {
                    conflicts +=
                        u64::from(linear_slot_ref(x, s, sign_b, rule, ctx, &mut sums.round));
                }
                conflicts
            }
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
        #[inline(always)]
        |x, start, end, rule, sums| match body {
            Body::Avx2(t) => {
                vector::mul(t, x, start, end, a0.to_f64(), b0.to_f64(), rule, ctx, sums)
            }
            Body::Scalar => {
                let mut conflicts = 0;
                for s in start..end {
                    conflicts += u64::from(mul_slot_ref(x, s, a0, b0, rule, ctx, sums));
                }
                conflicts
            }
        },
    );
}

/// The magnitude `|c|` of the occupant of the result slot that the
/// operation's fresh symbol claims, under [`NoisePolicy::Fresh`], with
/// that slot; `None` when the policy makes no fresh symbol or the slot is
/// empty. The fresh symbol absorbs the occupant (paper eq. 6), so its
/// magnitude joins the operation's noise before the bound.
#[inline(always)]
pub(crate) fn occupant(ids: &[SymbolId], coeffs: &[f64], ctx: &AaContext) -> Option<(usize, f64)> {
    if ctx.config().noise != NoisePolicy::Fresh {
        return None;
    }
    let s = slot_of(ctx.symbols_allocated(), ids.len());
    (ids[s] != NO_SYMBOL).then(|| (s, coeffs[s].abs()))
}

/// Writes the fresh symbol `id` with magnitude `noise` into its slot and
/// returns whether that replaced an occupant (a condensation). `noise`
/// must already cover the occupant's magnitude ([`occupant`]).
#[inline(always)]
pub(crate) fn place_fresh(
    ids: &mut [SymbolId],
    coeffs: &mut [f64],
    id: SymbolId,
    noise: f64,
) -> bool {
    let s = slot_of(id, ids.len());
    let absorbs = ids[s] != NO_SYMBOL;
    (ids[s], coeffs[s]) = (id, noise);
    absorbs
}

/// The quadratic term `q̂` of a multiplication from the round-to-nearest
/// operand magnitude sums `ŝ_a`, `ŝ_b`: zero when either is (a zero
/// radius annihilates even an infinite one, `0·∞ = 0`: every realization
/// of a noise symbol is a real number), else `RN(ŝ_a·ŝ_b)`, stepped up
/// one ulp below `2⁻¹⁰²²`, where the product's rounding error is absolute
/// rather than relative. So `ŝ_a·ŝ_b ≤ q̂ / (1 − 2⁻⁵³)`.
#[inline(always)]
fn quadratic(sa: f64, sb: f64) -> f64 {
    if sa == 0.0 || sb == 0.0 {
        return 0.0;
    }
    let q = sa * sb;
    if q < f64::MIN_POSITIVE {
        q.next_up()
    } else {
        q
    }
}

/// The symbol part of `a ± b`, written to `out`, and the one bound on the
/// operation's noise: the center error `ce` (lane 0, first), the slot
/// round-off and, when any of these is non-zero, the absorbed occupant
/// ([`occupant`]).
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
    if sums.round.terms > 0 {
        if let Some((s, c)) = occupant(x.out_ids, x.out_coeffs, ctx) {
            sums.round.push(s, c);
        }
    }
    sums.round.bound()
}

/// The symbol part of `a · b`, written to `out`, and the one bound on the
/// operation's noise. With `ŝ_r` the round-to-nearest sum of the `m_r`
/// round-off terms (the center error `ce` in lane 0 first, the slot
/// round-off, the absorbed occupant last) and `q̂` the [`quadratic`] term
/// of the operand magnitude sums `ŝ_a`, `ŝ_b` (`m_a`, `m_b` terms, the
/// dedicated noise `acc_a` / `acc_b` first), the noise is
/// `sum_bound(RN(ŝ_r + q̂), E + 1)` with
/// `E = max(m_r − 1, m_a + m_b − 1) + [ŝ_r ≠ 0 ∧ q̂ ≠ 0]`, the quadratic
/// counting only when `q̂ ≠ 0`. It is sound: the exact round-off is at
/// most `ŝ_r·(1 − u)^−(m_r − 1)`, the exact `(acc_a + Σ|aₛ|)·(acc_b +
/// Σ|bₛ|)`, which covers every `εᵢ·εⱼ` product, at most
/// `q̂·(1 − u)^−(m_a + m_b − 1)`, and the final add costs one more factor
/// (`u = 2⁻⁵³`). The occupant joins when `m_r > 0` or `q̂ > 0`.
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
    let q = quadratic(sums.mag_a.sum(), sums.mag_b.sum());
    let round = &mut sums.round;
    if round.terms > 0 || q > 0.0 {
        if let Some((s, c)) = occupant(x.out_ids, x.out_coeffs, ctx) {
            round.push(s, c);
        }
    }
    let r = round.sum();
    let mut e = round.terms.saturating_sub(1);
    if q != 0.0 {
        e = e.max(sums.mag_a.terms + sums.mag_b.terms - 1) + u64::from(r != 0.0);
    }
    sum_bound(r + q, e + 1)
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

    /// Runs `a · b` (`Some((a0, b0))`) or `a − b` with center error `ce`
    /// into a stale output, or in in-out mode into `b`'s own slots, and
    /// returns the result slots and the noise.
    fn run_op(
        centers: Option<(f64, f64)>,
        acc: (f64, f64),
        ce: f64,
        (a, b): (&State, &State),
        in_out: bool,
        ctx: &AaContext,
    ) -> (State, f64) {
        let mut out = if in_out { b.clone() } else { stale(a.0.len()) };
        let (out_ids, out_coeffs) = (&mut out.0, &mut out.1);
        let mut x = Slots {
            a_ids: &a.0,
            a_coeffs: &a.1,
            b: (!in_out).then_some((&b.0[..], &b.1[..])),
            out_ids,
            out_coeffs,
        };
        let noise = match centers {
            Some((a0, b0)) => mul(a0, b0, acc, &mut x, ce, ctx, Protect::None),
            None => linear(&mut x, -1.0, ce, ctx, Protect::None),
        };
        (out, noise)
    }

    /// `a · b` into a stale output, without dedicated noise or center
    /// error.
    fn run_mul(a0: f64, b0: f64, a: &State, b: &State, ctx: &AaContext) -> (State, f64) {
        run_op(Some((a0, b0)), (0.0, 0.0), 0.0, (a, b), false, ctx)
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
        let ((ids, coeffs), _) = run_mul(2.0, 3.0, &a, &b, &c);
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
        let ((ids, coeffs), noise) = run_mul(10.0, 2.0, &a, &b, &c);
        assert_eq!(ids[1], 5); // SP keeps the 10
        assert_eq!(coeffs[1], 10.0);
        // The noise covers the fused loser 2 and the quadratic term
        // q̂ = RN(1·1) with one bound over RN(2 + q̂), whose term count
        // E + 1 = 3 covers q̂'s product and the final add (one rounding
        // each). The count grew by one when q̂ stopped being rounded
        // upward on its own.
        assert_eq!(noise, sum_bound(3.0, 3));
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
        let (want, want_noise) = run_mul(3.0, -0.5, &a, &b, &c);
        let (got, noise) = run_op(Some((3.0, -0.5)), (0.0, 0.0), 0.0, (&a, &b), true, &c);
        assert_eq!(got, want);
        assert_eq!(noise.to_bits(), want_noise.to_bits());
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

    /// `|c|` of the slot the next fresh symbol claims, which the noise
    /// must cover when the fresh symbol will take it (noise > 0 under
    /// the fresh-symbol policy); zero otherwise.
    fn absorbed(out: &State, noise: f64, ctx: &AaContext) -> Rational {
        let s = slot_of(ctx.symbols_allocated(), out.0.len());
        let fresh = ctx.config().noise == NoisePolicy::Fresh && noise > 0.0;
        if fresh && out.0[s] != NO_SYMBOL {
            rat(out.1[s]).abs()
        } else {
            Rational::zero()
        }
    }

    /// The exact error a multiplication's noise must cover, the absorbed
    /// occupant aside: `|a0·b0 − c0|`, every coefficient's error, and
    /// `(acc_a + Σ|aₛ|)·(acc_b + Σ|bₛ|)`.
    fn exact_mul_error(
        (a0, b0, c0): (f64, f64, f64),
        (acc_a, acc_b): (f64, f64),
        (a, b, out): (&State, &State, &State),
    ) -> Rational {
        rat(a0)
            .mul(&rat(b0))
            .sub(&rat(c0))
            .abs()
            .add(&exact_slot_error(
                a,
                b,
                out,
                |x| rat(b0).mul(&rat(x)),
                |x| rat(a0).mul(&rat(x)),
            ))
            .add(&magnitude(acc_a, a).mul(&magnitude(acc_b, b)))
    }

    #[test]
    fn op_bound_covers_exact_error_and_absorbed_occupant() {
        let mut rng = Rng(0x0AC1_E5EE_D000_0017);
        for case in 0..900 {
            let k = [1, 3, 4, 8, 9, 40][case % 6];
            let fusion = [Fusion::Smallest, Fusion::Oldest][case % 2];
            let noise_policy = if case % 7 == 0 {
                NoisePolicy::Dedicated
            } else {
                NoisePolicy::Fresh
            };
            let c = AaContext::new(
                AaConfig::new(k)
                    .with_fusion(fusion)
                    .with_noise(noise_policy)
                    .with_vectorized(case % 3 != 0),
            );
            // The next fresh symbol's slot, and so the occupant, varies.
            for _ in 0..rng.below(2 * k as u64) {
                c.fresh_symbol();
            }
            let (a, b) = random_states(&mut rng, k);
            let (a0, b0) = (rng.value(), rng.value());
            let in_out = case % 4 == 1;

            // a · b: ce, the slot errors, (acc_a + Σ|aₛ|)·(acc_b + Σ|bₛ|)
            // and the occupant the fresh symbol absorbs.
            let acc = (rng.acc(), rng.acc());
            let (c0, ce) = mul_with_err(a0, b0);
            let (out, noise) = run_op(Some((a0, b0)), acc, ce, (&a, &b), in_out, &c);
            let exact =
                exact_mul_error((a0, b0, c0), acc, (&a, &b, &out)).add(&absorbed(&out, noise, &c));
            assert_ne!(
                exact.cmp_val(&rat(noise)),
                Ordering::Greater,
                "mul case {case}: noise {noise} below the exact error"
            );

            // a − b: ce, the slot errors and the absorbed occupant.
            let (c0, ce) = add_with_err(a0, -b0);
            let (out, noise) = run_op(None, (0.0, 0.0), ce, (&a, &b), in_out, &c);
            let exact = rat(a0)
                .sub(&rat(b0))
                .sub(&rat(c0))
                .abs()
                .add(&exact_slot_error(&a, &b, &out, rat, |x| rat(-x)))
                .add(&absorbed(&out, noise, &c));
            assert_ne!(
                exact.cmp_val(&rat(noise)),
                Ordering::Greater,
                "sub case {case}: noise {noise} below the exact error"
            );
        }
    }

    #[test]
    fn one_bound_mul_edge_cases_on_both_bodies() {
        let tiny = 1.5 * 2f64.powi(-530);
        for vectorized in [false, true] {
            for in_out in [false, true] {
                let c = AaContext::new(AaConfig::new(4).with_vectorized(vectorized));
                let what = format!("vectorized {vectorized}, in-out {in_out}");
                let empty = state(4, &[]);
                let run = |a: &State, b: &State, acc: (f64, f64), ce: f64| {
                    run_op(Some((3.0, 0.25)), acc, ce, (a, b), in_out, &c)
                };

                // ŝ_a·ŝ_b = 2.25·2⁻¹⁰⁶⁰ is subnormal: the product's
                // absolute rounding error needs the one-ulp step.
                let a = state(4, &[(1, tiny)]);
                let b = state(4, &[(1, tiny)]);
                let (out, noise) = run(&a, &b, (0.0, 0.0), 0.0);
                let exact = exact_mul_error((3.0, 0.25, 0.75), (0.0, 0.0), (&a, &b, &out));
                assert!(noise > 0.0, "{what}");
                assert_ne!(exact.cmp_val(&rat(noise)), Ordering::Greater, "{what}");
                // A product below the smallest subnormal rounds to zero and
                // steps up to it.
                let a = state(4, &[(1, 2f64.powi(-540))]);
                let (out, noise) = run(&a, &a, (0.0, 0.0), 0.0);
                let exact = exact_mul_error((3.0, 0.25, 0.75), (0.0, 0.0), (&a, &a, &out));
                assert!(noise > 0.0, "{what}");
                assert_ne!(exact.cmp_val(&rat(noise)), Ordering::Greater, "{what}");

                // 0·∞ = 0: an empty operand without dedicated noise
                // annihilates the other's infinite radius.
                let a = state(4, &[(1, 0.5), (6, 2.0)]);
                let (_, noise) = run(&a, &empty, (f64::INFINITY, 0.0), 0.125);
                assert_eq!(noise, 0.125, "{what}");
                let (_, noise) = run(&a, &empty, (f64::INFINITY, 1.0), 0.125);
                assert_eq!(noise, f64::INFINITY, "{what}");
                // Empty operands: only the center error remains.
                let (out, noise) = run(&empty, &empty, (0.0, 0.0), 0.125);
                assert_eq!(noise, 0.125, "{what}");
                assert_eq!(out, empty, "{what}");
                // A NaN radius poisons the noise unless the other is zero.
                let (_, noise) = run(&a, &empty, (f64::NAN, 0.0), 0.0);
                assert_eq!(noise, 0.0, "{what}");
                let (_, noise) = run(&a, &a, (f64::NAN, 0.0), 0.0);
                assert!(noise.is_nan(), "{what}");

                // The fresh symbol's slot (0 here) holds 0.25·0.5: the
                // noise covers it, and only when the op has an error.
                let a = state(4, &[(4, 0.5)]);
                let (out, noise) = run(&a, &empty, (0.0, 0.0), 0.125);
                assert_eq!(out.0[0], 4, "{what}");
                assert_eq!(noise, sum_bound(0.125 + 0.125, 2), "{what}");
                let (out, noise) = run(&a, &empty, (0.0, 0.0), 0.0);
                assert_eq!((out.0[0], noise), (4, 0.0), "{what}");
            }
        }
    }
}
