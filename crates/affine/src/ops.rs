//! Affine operations: add, sub, mul, div, sqrt, negation, abs, min/max and
//! comparisons.
//!
//! Every operation follows the same shape:
//!
//! 1. combine the central values with [`CenterValue`], recovering the
//!    rounding error;
//! 2. merge the symbol terms with the placement-specific kernel
//!    ([`crate::sorted`] / [`crate::direct`], whose AVX2 body lives in
//!    [`crate::vector`]), which accumulates coefficient rounding errors
//!    (and, for direct-mapped placement, slot-conflict fusions) into the
//!    *noise*;
//! 3. add operation-specific over-approximation terms (the quadratic
//!    `r(â)·r(b̂)` of multiplication, the `δ` of the min-range
//!    approximations);
//! 4. *finalize*: fuse down to the symbol budget per the fusion policy and
//!    materialize the noise as a fresh error symbol.
//!
//! A direct-mapped `+`, `−`, `·` and `÷` does steps 2 to 4 in one pass
//! and one directed-rounding step: the kernel reads both operands, writes
//! every slot of the output, sums the operand radii for the quadratic term
//! as it goes, and returns one bound over the center error, the slot
//! round-off, the quadratic term and the occupant that the fresh symbol
//! absorbs; the fresh symbol then takes its slot with that bound as its
//! magnitude. When the context holds the AVX2 token, the whole operation
//! runs in one straight-line function compiled with AVX2 and FMA
//! ([`direct_in_fma_region`]) that calls only the AVX2 slot kernels, the
//! scalar tail bodies and cold allocation and panic paths.
//!
//! Each operation has one implementation, its `*_into` form, which writes
//! the result into an existing form and reuses that form's storage. A
//! direct-mapped binary operation reads its operands where they are; a
//! sorted one first copies its right operand into the output and merges
//! the left operand into it in place. The by-value methods run the
//! `*_into` form on a fresh form.

use crate::center::{CenterValue, ErrAcc};
use crate::config::{AaContext, Protect};
use crate::direct::{self, place_fresh, scale_direct, Slots};
use crate::form::{Affine, Repr};
use crate::fusion::select_victims;
use crate::sorted::{merge_linear, merge_mul, scale_terms};
use crate::symbol::Term;
use safegen_fpcore::round::{add_ru, div_rd, div_ru, mul_ru, sqrt_rd, sqrt_ru, sub_rd, sub_ru};
use std::cmp::Ordering;

/// Magnitude product for radius/noise propagation: `0 · ∞` must be `0`
/// here (a coefficient of exactly zero annihilates even an unbounded noise
/// term — every realization of the noise is a real number), where plain
/// IEEE multiplication would produce a NaN and poison the range.
#[inline]
pub(crate) fn mul_mag(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        mul_ru(a, b)
    }
}

/// A direct-mapped binary operation (see [`Affine::direct_into`]).
#[derive(Clone, Copy)]
enum DirectOp {
    /// `a ± b`, the sign applying to `b`.
    Linear(f64),
    Mul,
}

impl<C: CenterValue> Affine<C> {
    /// Affine addition `â + b̂` (paper eq. 3–4).
    pub fn add(&self, rhs: &Affine<C>, ctx: &AaContext, protect: Protect<'_>) -> Affine<C> {
        Affine::build(|out| self.add_into(rhs, ctx, protect, out))
    }

    /// [`Affine::add`], written into `out`.
    pub fn add_into(
        &self,
        rhs: &Affine<C>,
        ctx: &AaContext,
        protect: Protect<'_>,
        out: &mut Affine<C>,
    ) {
        self.linear_into(1.0, rhs, ctx, protect, out);
    }

    /// Affine subtraction `â − b̂` — where shared symbols cancel.
    pub fn sub(&self, rhs: &Affine<C>, ctx: &AaContext, protect: Protect<'_>) -> Affine<C> {
        Affine::build(|out| self.sub_into(rhs, ctx, protect, out))
    }

    /// [`Affine::sub`], written into `out`.
    pub fn sub_into(
        &self,
        rhs: &Affine<C>,
        ctx: &AaContext,
        protect: Protect<'_>,
        out: &mut Affine<C>,
    ) {
        self.linear_into(-1.0, rhs, ctx, protect, out);
    }

    /// `out ← self ± rhs`.
    fn linear_into(
        &self,
        sign_b: f64,
        rhs: &Affine<C>,
        ctx: &AaContext,
        protect: Protect<'_>,
        out: &mut Affine<C>,
    ) {
        if let Repr::Direct { .. } = self.repr {
            return self.direct_into(DirectOp::Linear(sign_b), Some(rhs), ctx, protect, out);
        }
        out.clone_from(rhs);
        let mut noise = ErrAcc::default();
        let (center, ce) = if sign_b > 0.0 {
            C::add_err(self.center, out.center)
        } else {
            C::sub_err(self.center, out.center)
        };
        noise.add(ce);
        let acc = add_ru(self.acc_noise, out.acc_noise);
        let (Repr::Sorted(a), Repr::Sorted(b)) = (&self.repr, &mut out.repr) else {
            panic!("mixed placements: operands must come from one context");
        };
        merge_linear(a, b, sign_b, &mut noise);
        out.finalize(center, noise.value(), acc, ctx, protect);
    }

    /// Affine multiplication `â · b̂` (paper eq. 5): the affine part keeps
    /// linear correlations, the quadratic remainder `r(â)·r(b̂)` joins the
    /// fresh symbol.
    pub fn mul(&self, rhs: &Affine<C>, ctx: &AaContext, protect: Protect<'_>) -> Affine<C> {
        Affine::build(|out| self.mul_into(rhs, ctx, protect, out))
    }

    /// [`Affine::mul`], written into `out`.
    pub fn mul_into(
        &self,
        rhs: &Affine<C>,
        ctx: &AaContext,
        protect: Protect<'_>,
        out: &mut Affine<C>,
    ) {
        if let Repr::Direct { .. } = self.repr {
            return self.direct_into(DirectOp::Mul, Some(rhs), ctx, protect, out);
        }
        out.clone_from(rhs);
        self.mul_onto(ctx, protect, out);
    }

    /// `out ← self · out`: the right operand arrives in `out`.
    fn mul_onto(&self, ctx: &AaContext, protect: Protect<'_>, out: &mut Affine<C>) {
        if let Repr::Direct { .. } = self.repr {
            return self.direct_into(DirectOp::Mul, None, ctx, protect, out);
        }
        let (a0, b0) = (self.center, out.center);
        let mut noise = ErrAcc::default();
        let (center, ce) = C::mul_err(a0, b0);
        noise.add(ce);
        // Quadratic over-approximation: covers all εᵢ·εⱼ products,
        // including the dedicated-noise contributions (radius includes
        // them).
        noise.add(mul_mag(self.radius(), out.radius()));
        // Linear contributions of each operand's dedicated noise.
        let acc = add_ru(
            mul_mag(b0.abs_f64(), self.acc_noise),
            mul_mag(a0.abs_f64(), out.acc_noise),
        );
        let (Repr::Sorted(a), Repr::Sorted(b)) = (&self.repr, &mut out.repr) else {
            panic!("mixed placements: operands must come from one context");
        };
        merge_mul(a0, b0, a, b, &mut noise);
        out.finalize(center, noise.value(), acc, ctx, protect);
    }

    /// `out ← self ∘ rhs` for direct-mapped forms, `rhs = None` meaning
    /// `out`'s own contents (in-out mode). When the context holds the AVX2
    /// token the whole operation runs inside [`direct_in_fma_region`].
    fn direct_into(
        &self,
        op: DirectOp,
        rhs: Option<&Affine<C>>,
        ctx: &AaContext,
        protect: Protect<'_>,
        out: &mut Affine<C>,
    ) {
        match ctx.avx2() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the token proves the CPU has AVX2 and FMA.
            Some(_) => unsafe { direct_in_fma_region(op, self, rhs, ctx, protect, out) },
            _ => direct_body(op, self, rhs, ctx, protect, out),
        }
    }

    /// Affine division `â / b̂ = â · (1/b̂)`, using a sound min-range
    /// linear approximation of the reciprocal. A divisor whose range
    /// contains zero yields the [`Affine::entire`] form.
    pub fn div(&self, rhs: &Affine<C>, ctx: &AaContext, protect: Protect<'_>) -> Affine<C> {
        Affine::build(|out| self.div_into(rhs, ctx, protect, out))
    }

    /// [`Affine::div`], written into `out`. The reciprocal is built in
    /// `out` itself and the multiplication then reads it from there (the
    /// direct-mapped kernels' in-out mode), so no temporary form exists.
    pub fn div_into(
        &self,
        rhs: &Affine<C>,
        ctx: &AaContext,
        protect: Protect<'_>,
        out: &mut Affine<C>,
    ) {
        rhs.recip_into(ctx, protect, out);
        self.mul_onto(ctx, protect, out);
    }

    /// Sound reciprocal `1 / b̂` via min-range linear approximation
    /// `α·b̂ + ζ ± δ`.
    pub fn recip(&self, ctx: &AaContext, protect: Protect<'_>) -> Affine<C> {
        Affine::build(|out| self.recip_into(ctx, protect, out))
    }

    /// [`Affine::recip`], written into `out`.
    pub fn recip_into(&self, ctx: &AaContext, protect: Protect<'_>, out: &mut Affine<C>) {
        let (lo, hi) = self.range();
        if (lo <= 0.0 && hi >= 0.0) || !lo.is_finite() || !hi.is_finite() {
            return Affine::entire_into(ctx, out);
        }
        // Work on the positive side; mirror for negative ranges.
        let negate = hi < 0.0;
        let (l, u) = if negate { (-hi, -lo) } else { (lo, hi) };

        // Min-range approximation of f(x) = 1/x on [l, u] (0 < l ≤ u):
        // slope α = f'(u) = −1/u² makes d(x) = 1/x − αx monotone
        // decreasing on [l, u], so its extremes are at the endpoints.
        // All quantities are computed with directed rounding; any value
        // near −1/u² is a valid slope.
        let alpha = -div_rd(1.0, mul_ru(u, u));
        // d(l) and d(u), outward-rounded. d is only *approximately*
        // monotone once α is a rounded value, so take min/max of sound
        // endpoint enclosures plus the (tiny) interior correction at the
        // critical point x* = 1/√(−α), which lies within ~1 ulp of u.
        let (dl_lo, dl_hi) = d_recip_bounds(l, alpha);
        let (du_lo, du_hi) = d_recip_bounds(u, alpha);
        // Interior critical value: d(x*) = 2√(−α) ≥ d(u); include it.
        let dxs_hi = mul_ru(2.0, sqrt_ru(-alpha));
        let dmin = dl_lo.min(du_lo);
        let dmax = dl_hi.max(du_hi).max(dxs_hi);
        let zeta = 0.5 * (dmin + dmax);
        let delta = add_ru(sub_ru(dmax, zeta), sub_ru(zeta, dmin)).max(0.0) * 0.5;
        // delta covers |d(x) − ζ| with margin: widen by one rounding step.
        let delta = add_ru(delta, safegen_fpcore::metrics::ulp(dmax));

        let zeta = if negate { -zeta } else { zeta };
        self.linear_approx_into(alpha, zeta, delta, ctx, protect, out);
    }

    /// Sound square root via min-range linear approximation. Ranges that
    /// dip below zero yield the poisoned [`Affine::entire`] form (the value
    /// may be NaN, per the paper's convention).
    pub fn sqrt(&self, ctx: &AaContext, protect: Protect<'_>) -> Affine<C> {
        Affine::build(|out| self.sqrt_into(ctx, protect, out))
    }

    /// [`Affine::sqrt`], written into `out`.
    pub fn sqrt_into(&self, ctx: &AaContext, protect: Protect<'_>, out: &mut Affine<C>) {
        let (lo, hi) = self.range();
        if lo < 0.0 || !hi.is_finite() {
            return Affine::entire_into(ctx, out);
        }
        if self.radius() == 0.0 {
            // Point form: direct centered square root, its rounding error
            // the only symbol.
            let mut noise = ErrAcc::default();
            let (c, e) = C::sqrt_err(self.center);
            noise.add(e);
            let noise = noise.value();
            return out.reset(c, (noise > 0.0).then_some(noise), 0.0, ctx);
        }
        if lo == 0.0 {
            // Degenerate slope at 0: fall back to the interval enclosure.
            return Affine::from_interval_into(0.0, sqrt_ru(hi), ctx, out);
        }
        // Min-range: slope α = f'(u) = 1/(2√u); d(x) = √x − αx is
        // increasing on [l, u], extremes at the endpoints (checked with an
        // interior correction as in `recip`).
        let alpha = div_rd(1.0, mul_ru(2.0, sqrt_ru(hi)));
        let (dl_lo, dl_hi) = d_sqrt_bounds(lo, alpha);
        let (du_lo, du_hi) = d_sqrt_bounds(hi, alpha);
        // Interior critical point x* = 1/(4α²), d(x*) = 1/(4α).
        let dxs_hi = div_ru(1.0, mul_ru(4.0, alpha).max(f64::MIN_POSITIVE));
        let dmin = dl_lo.min(du_lo);
        let dmax = dl_hi.max(du_hi).max(dxs_hi);
        let zeta = 0.5 * (dmin + dmax);
        let delta = add_ru(sub_ru(dmax, zeta), sub_ru(zeta, dmin)).max(0.0) * 0.5;
        let delta = add_ru(delta, safegen_fpcore::metrics::ulp(dmax.max(1e-300)));
        self.linear_approx_into(alpha, zeta, delta, ctx, protect, out);
    }

    /// Negation (exact: flips the center and every coefficient).
    pub fn neg(&self) -> Affine<C> {
        Affine::build(|out| self.neg_into(out))
    }

    /// [`Affine::neg`], written into `out`.
    pub fn neg_into(&self, out: &mut Affine<C>) {
        out.clone_from(self);
        out.center = self.center.neg();
        match &mut out.repr {
            Repr::Sorted(terms) => terms.iter_mut().for_each(|t| t.coeff = -t.coeff),
            Repr::Direct { coeffs, .. } => coeffs.iter_mut().for_each(|c| *c = -*c),
        }
    }

    /// `α·â + ζ ± δ`, written into `out` — the shared backbone of
    /// [`Affine::recip`] and [`Affine::sqrt`]: scales the affine part
    /// (keeping correlations), shifts the center, and adds `δ` to the
    /// fresh-symbol noise.
    pub(crate) fn linear_approx_into(
        &self,
        alpha: f64,
        zeta: f64,
        delta: f64,
        ctx: &AaContext,
        protect: Protect<'_>,
        out: &mut Affine<C>,
    ) {
        let mut noise = ErrAcc::default();
        let (scaled, e1) = self.center.scale_coeff(alpha);
        // Center arithmetic stays in C: c = RN_C(scaled + ζ).
        let (zc, zconv) = C::from_f64(zeta);
        let (sc, sconv) = C::from_f64(scaled);
        let (center, e2) = C::add_err(sc, zc);
        noise.add(e1);
        noise.add(e2);
        noise.add(zconv);
        noise.add(sconv);
        noise.add(delta);
        noise.add(mul_mag(self.acc_noise, alpha.abs()));

        out.repr.clone_from(&self.repr);
        match &mut out.repr {
            Repr::Sorted(terms) => scale_terms(terms, alpha, &mut noise),
            Repr::Direct { ids, coeffs } => {
                scale_direct(ids, coeffs, alpha, &mut noise);
                if noise.value() > 0.0 {
                    if let Some((_, c)) = direct::occupant(ids, coeffs, ctx) {
                        noise.add(c);
                    }
                }
            }
        }
        out.finalize(center, noise.value(), 0.0, ctx, protect);
    }

    /// Three-way comparison when the ranges are disjoint; `None` when they
    /// overlap (the comparison is not decided by the sound enclosures).
    pub fn try_cmp(&self, rhs: &Affine<C>) -> Option<Ordering> {
        let (alo, ahi) = self.range();
        let (blo, bhi) = rhs.range();
        if alo.is_nan() || blo.is_nan() {
            return None;
        }
        if ahi < blo {
            Some(Ordering::Less)
        } else if alo > bhi {
            Some(Ordering::Greater)
        } else if alo == ahi && blo == bhi && alo == blo {
            Some(Ordering::Equal)
        } else {
            None
        }
    }

    /// Sound absolute value: exact when the sign is determined, interval
    /// hull otherwise. Non-finite ranges (NaN or ±∞ endpoints, routine for
    /// widened loop-carried state) collapse to [`Affine::entire`].
    pub fn abs(&self, ctx: &AaContext) -> Affine<C> {
        Affine::build(|out| self.abs_into(ctx, out))
    }

    /// [`Affine::abs`], written into `out`.
    pub fn abs_into(&self, ctx: &AaContext, out: &mut Affine<C>) {
        let (lo, hi) = self.range();
        if lo.is_nan() || hi.is_nan() {
            Affine::entire_into(ctx, out);
        } else if lo >= 0.0 {
            out.clone_from(self);
        } else if hi <= 0.0 {
            self.neg_into(out);
        } else {
            Affine::from_range_outward_into(0.0, hi.max(-lo), ctx, out);
        }
    }

    /// Sound `fmin(â, b̂)`: the operand that is soundly the smaller, else
    /// the hull of both ranges (correlations are lost only then).
    pub fn min(&self, rhs: &Affine<C>, ctx: &AaContext) -> Affine<C> {
        Affine::build(|out| self.min_into(rhs, ctx, out))
    }

    /// [`Affine::min`], written into `out`.
    pub fn min_into(&self, rhs: &Affine<C>, ctx: &AaContext, out: &mut Affine<C>) {
        match self.try_cmp(rhs) {
            Some(Ordering::Less | Ordering::Equal) => out.clone_from(self),
            Some(Ordering::Greater) => out.clone_from(rhs),
            None => {
                let (alo, ahi) = sanitize_range(self.range());
                let (blo, bhi) = sanitize_range(rhs.range());
                Affine::from_range_outward_into(alo.min(blo), ahi.min(bhi), ctx, out);
            }
        }
    }

    /// Sound `fmax(â, b̂)`, the mirror of [`Affine::min`].
    pub fn max(&self, rhs: &Affine<C>, ctx: &AaContext) -> Affine<C> {
        Affine::build(|out| self.max_into(rhs, ctx, out))
    }

    /// [`Affine::max`], written into `out`.
    pub fn max_into(&self, rhs: &Affine<C>, ctx: &AaContext, out: &mut Affine<C>) {
        match self.try_cmp(rhs) {
            Some(Ordering::Greater | Ordering::Equal) => out.clone_from(self),
            Some(Ordering::Less) => out.clone_from(rhs),
            None => {
                let (alo, ahi) = sanitize_range(self.range());
                let (blo, bhi) = sanitize_range(rhs.range());
                Affine::from_range_outward_into(alo.max(blo), ahi.max(bhi), ctx, out);
            }
        }
    }

    /// Completes an operation whose merged terms are already in `self`:
    /// sets the center and folds the round-off `noise` in (paper Sec.
    /// V-B). Sorted terms are fused down to the budget first; direct-mapped
    /// slots are within budget by construction ([`Affine::finalize_direct`]).
    fn finalize(
        &mut self,
        center: C,
        noise: f64,
        acc_noise: f64,
        ctx: &AaContext,
        protect: Protect<'_>,
    ) {
        self.center = center;
        let k = ctx.k();
        match &mut self.repr {
            Repr::Sorted(terms) => {
                let mut noise = noise;
                if terms.len() + usize::from(noise > 0.0) > k {
                    // Keep k−1, fuse the rest into the fresh symbol.
                    let keep = k.saturating_sub(1);
                    let excess = terms.len() - keep;
                    noise = fuse_selected(terms, excess, noise, ctx, protect);
                }
                if noise > 0.0 {
                    let id = ctx.fresh_symbol();
                    debug_assert!(terms.last().is_none_or(|t| t.id < id));
                    terms.push(Term::new(id, noise));
                }
                self.acc_noise = acc_noise;
            }
            Repr::Direct { .. } => self.finalize_direct(center, noise, acc_noise, ctx),
        }
    }

    /// [`Affine::finalize`] of a direct-mapped form: the fresh symbol
    /// claims its slot with magnitude `noise`, which must already cover
    /// the slot's occupant ([`direct::occupant`]). NaN noise makes no
    /// symbol.
    #[inline(always)]
    fn finalize_direct(&mut self, center: C, noise: f64, acc_noise: f64, ctx: &AaContext) {
        self.center = center;
        self.acc_noise = acc_noise;
        if noise > 0.0 {
            let (ids, coeffs) = self.repr.slots_mut();
            if place_fresh(ids, coeffs, ctx.fresh_symbol(), noise) {
                ctx.note_condensations(1);
            }
        }
    }
}

/// One direct-mapped operation `out ← a ∘ b`, `b = None` meaning `out`'s
/// own contents: the center and its rounding error, one merge pass that
/// writes every slot of `out` and yields one bound on the whole noise
/// (the absorbed slot occupant included), and the fresh symbol. `out`
/// gets storage of `k` slots when it lacks it; its stale contents are
/// never read, except as `b` in in-out mode.
///
/// Inlined into both of its callers, [`Affine::direct_into`] and
/// [`direct_in_fma_region`]: one body, compiled twice. Its helpers are
/// `#[inline(always)]` too, so each copy is one straight-line function.
#[inline(always)]
fn direct_body<C: CenterValue>(
    op: DirectOp,
    a: &Affine<C>,
    b: Option<&Affine<C>>,
    ctx: &AaContext,
    protect: Protect<'_>,
    out: &mut Affine<C>,
) {
    let (a_ids, a_coeffs) = a.repr.slots();
    let (b0, b_acc, b_slots) = match b {
        Some(b) => {
            out.repr.ensure_direct(a_ids.len());
            (b.center, b.acc_noise, Some(b.repr.slots()))
        }
        None => (out.center, out.acc_noise, None),
    };
    let (out_ids, out_coeffs) = out.repr.slots_mut();
    let mut x = Slots {
        a_ids,
        a_coeffs,
        b: b_slots,
        out_ids,
        out_coeffs,
    };
    let a0 = a.center;
    let (center, noise, acc) = match op {
        DirectOp::Linear(sign_b) => {
            let (center, ce) = if sign_b > 0.0 {
                C::add_err(a0, b0)
            } else {
                C::sub_err(a0, b0)
            };
            let noise = direct::linear(&mut x, sign_b, ce, ctx, protect);
            (center, noise, add_ru(a.acc_noise, b_acc))
        }
        DirectOp::Mul => {
            let (center, ce) = C::mul_err(a0, b0);
            let noise = direct::mul(a0, b0, (a.acc_noise, b_acc), &mut x, ce, ctx, protect);
            // Linear contributions of each operand's dedicated noise.
            let acc = add_ru(
                mul_mag(b0.abs_f64(), a.acc_noise),
                mul_mag(a0.abs_f64(), b_acc),
            );
            (center, noise, acc)
        }
    };
    out.finalize_direct(center, noise, acc, ctx);
}

/// [`direct_body`] compiled for AVX2 and FMA: the region in which a
/// direct-mapped operation runs when the context holds the AVX2 token.
/// FMA is exact either way, so it gives the bits the plain body gives; in
/// here the center's and the bound's `mul_add`s (`two_prod`, `mul_ru`,
/// `sum_bound`) compile to `vfmadd` instead of calls. `ci.sh` checks the
/// compiled region: no libm `fma` call and no call to a helper that
/// should have been inlined.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn direct_in_fma_region<C: CenterValue>(
    op: DirectOp,
    a: &Affine<C>,
    b: Option<&Affine<C>>,
    ctx: &AaContext,
    protect: Protect<'_>,
    out: &mut Affine<C>,
) {
    direct_body(op, a, b, ctx, protect, out);
}

/// Replaces NaN range endpoints with ±∞: a NaN bound means the value is
/// unknown, and hull computations built on `f64::min`/`max` would silently
/// drop it (those primitives return the non-NaN operand).
#[inline]
fn sanitize_range((lo, hi): (f64, f64)) -> (f64, f64) {
    if lo.is_nan() || hi.is_nan() {
        (f64::NEG_INFINITY, f64::INFINITY)
    } else {
        (lo, hi)
    }
}

/// Outward bounds of `d(x) = 1/x − αx` at a point.
fn d_recip_bounds(x: f64, alpha: f64) -> (f64, f64) {
    let inv_lo = div_rd(1.0, x);
    let inv_hi = div_ru(1.0, x);
    let ax_lo = safegen_fpcore::round::mul_rd(alpha, x);
    let ax_hi = mul_ru(alpha, x);
    (sub_rd(inv_lo, ax_hi), sub_ru(inv_hi, ax_lo))
}

/// Outward bounds of `d(x) = √x − αx` at a point.
fn d_sqrt_bounds(x: f64, alpha: f64) -> (f64, f64) {
    let s_lo = sqrt_rd(x);
    let s_hi = sqrt_ru(x);
    let ax_lo = safegen_fpcore::round::mul_rd(alpha, x);
    let ax_hi = mul_ru(alpha, x);
    (sub_rd(s_lo, ax_hi), sub_ru(s_hi, ax_lo))
}

/// Removes policy-selected victims from `terms` and returns `noise`
/// increased by their magnitudes (upward-rounded).
fn fuse_selected(
    terms: &mut Vec<Term>,
    excess: usize,
    mut noise: f64,
    ctx: &AaContext,
    protect: Protect<'_>,
) -> f64 {
    let mut victims = select_victims(terms, excess, ctx.config().fusion, ctx, protect);
    ctx.note_fusion(victims.len() as u64);
    victims.sort_unstable();
    for &i in victims.iter().rev() {
        noise = add_ru(noise, terms[i].coeff.abs());
        terms.remove(i);
    }
    noise
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AaConfig, Fusion, Placement};
    use crate::form::AffineF64;
    use safegen_fpcore::round::sum_bound;
    use safegen_fpcore::Dd;

    fn ctx(k: usize, placement: Placement) -> AaContext {
        AaContext::new(
            AaConfig::new(k)
                .with_placement(placement)
                .with_vectorized(false),
        )
    }

    fn both_placements(k: usize) -> [AaContext; 2] {
        [ctx(k, Placement::Sorted), ctx(k, Placement::DirectMapped)]
    }

    /// `1 + 2⁻⁶⁰` with k = 2 slots: `x` (symbol 0, `ulp(1) = 2⁻⁵²`) sits
    /// in slot 0, which the operation's fresh symbol 2 claims; symbol 1
    /// only moves the id counter on. Returns the result and the context.
    fn add_onto_occupied_slot(vectorized: bool) -> (AffineF64, AaContext) {
        let c = AaContext::new(
            AaConfig::new(2)
                .with_placement(Placement::DirectMapped)
                .with_vectorized(vectorized),
        );
        let x = AffineF64::from_input(1.0, &c);
        AffineF64::from_input(2.0, &c);
        let y = AffineF64::exact(2f64.powi(-60), &c);
        (x.add(&y, &c, Protect::None), c)
    }

    #[test]
    fn fresh_symbol_absorbs_its_slot_occupant_in_the_one_bound() {
        for vectorized in [false, true] {
            let (z, c) = add_onto_occupied_slot(vectorized);
            let (ids, coeffs) = z.repr.slots();
            assert_eq!(ids[0], 2, "the fresh symbol takes slot 0");
            // One bound over the center error 2⁻⁶⁰ and the occupant 2⁻⁵².
            let want = sum_bound(2f64.powi(-52) + 2f64.powi(-60), 2);
            assert_eq!(coeffs[0], want);
            assert_eq!(z.acc_noise, 0.0);
            assert_eq!(c.counters().condensations, 1);
        }
    }

    #[test]
    fn add_contains_exact_sum() {
        for c in both_placements(8) {
            let a = Affine::<f64>::from_input(0.1, &c);
            let b = Affine::<f64>::from_input(0.2, &c);
            let s = a.add(&b, &c, Protect::None);
            let exact = Dd::from_two_sum(0.1, 0.2);
            assert!(s.contains_dd(exact));
        }
    }

    #[test]
    fn sub_self_cancels_exactly() {
        for c in both_placements(8) {
            let a = Affine::<f64>::from_interval(0.0, 1.0, &c);
            let d = a.sub(&a, &c, Protect::None);
            assert_eq!(d.range(), (0.0, 0.0), "x - x must be exactly zero in AA");
        }
    }

    #[test]
    fn paper_section_ii_example() {
        // â = 0.5 + 0.5ε₁ ⇒ â − â = 0 (the motivating example).
        let c = ctx(4, Placement::Sorted);
        let a = Affine::<f64>::from_interval(0.0, 1.0, &c);
        let d = a.sub(&a, &c, Protect::None);
        assert_eq!(d.center_f64(), 0.0);
        assert_eq!(d.radius(), 0.0);
    }

    #[test]
    fn mul_contains_exact_product() {
        for c in both_placements(8) {
            let a = Affine::<f64>::from_input(0.7, &c);
            let b = Affine::<f64>::from_input(0.3, &c);
            let p = a.mul(&b, &c, Protect::None);
            assert!(p.contains_dd(Dd::from_two_prod(0.7, 0.3)));
        }
    }

    #[test]
    fn paper_fig4_partial_cancellation() {
        // x·z − y·z with shared z: the ε_z terms cancel.
        for c in both_placements(8) {
            let x = Affine::<f64>::from_interval(0.9, 1.1, &c);
            let y = Affine::<f64>::from_interval(0.9, 1.1, &c);
            let z = Affine::<f64>::from_interval(0.9, 1.1, &c);
            let t1 = x.mul(&z, &c, Protect::None);
            let t2 = y.mul(&z, &c, Protect::None);
            let t3 = t1.sub(&t2, &c, Protect::None);
            // Exact range of x·z − y·z = z(x−y): |z|≤1.1, |x−y|≤0.2 → ±0.22.
            let (lo, hi) = t3.range();
            assert!(lo <= 0.0 && 0.0 <= hi);
            // AA keeps it well below the IA bound of ±(1.21−0.81)=±0.4.
            assert!(hi < 0.3, "hi = {hi}");
            assert!(lo > -0.3, "lo = {lo}");
        }
    }

    #[test]
    fn fusion_respects_budget() {
        for c in both_placements(4) {
            let mut x = Affine::<f64>::from_input(0.5, &c);
            let y = Affine::<f64>::from_input(0.25, &c);
            for _ in 0..20 {
                x = x.mul(&y, &c, Protect::None);
                assert!(x.n_symbols() <= 4, "budget violated: {}", x.n_symbols());
            }
        }
    }

    #[test]
    fn fusion_remains_sound() {
        // Long chain with tiny k: the enclosure must still contain the
        // dd-exact result.
        for c in both_placements(2) {
            let mut x = Affine::<f64>::from_input(0.5, &c);
            let y = Affine::<f64>::from_input(1.25, &c);
            let mut exact = Dd::from(0.5);
            let yd = Dd::from(1.25);
            for _ in 0..30 {
                x = x.mul(&y, &c, Protect::None);
                exact = exact * yd;
                assert!(x.contains_dd(exact));
            }
        }
    }

    #[test]
    fn div_contains_exact_quotient() {
        for c in both_placements(8) {
            let a = Affine::<f64>::from_input(1.0, &c);
            let b = Affine::<f64>::from_input(3.0, &c);
            let q = a.div(&b, &c, Protect::None);
            assert!(
                q.contains_dd(Dd::ONE / Dd::from(3.0)),
                "range = {:?}",
                q.range()
            );
            // And reasonably tight.
            let (lo, hi) = q.range();
            assert!(hi - lo < 1e-10, "width = {}", hi - lo);
        }
    }

    #[test]
    fn div_through_zero_poisons() {
        let c = ctx(8, Placement::Sorted);
        let a = Affine::<f64>::exact(1.0, &c);
        let b = Affine::<f64>::from_interval(-1.0, 1.0, &c);
        let q = a.div(&b, &c, Protect::None);
        assert_eq!(q.acc_bits(), f64::NEG_INFINITY);
    }

    #[test]
    fn div_negative_divisor() {
        for c in both_placements(8) {
            let a = Affine::<f64>::from_input(1.0, &c);
            let b = Affine::<f64>::from_input(-4.0, &c);
            let q = a.div(&b, &c, Protect::None);
            assert!(q.contains_f64(-0.25), "range = {:?}", q.range());
        }
    }

    #[test]
    fn recip_preserves_correlation() {
        // x / x should be ≈ 1 with a tight range, because 1/x keeps x's
        // symbols (scaled) and the multiply cancels.
        let c = ctx(8, Placement::Sorted);
        let x = Affine::<f64>::from_interval(1.0, 1.001, &c);
        let q = x.div(&x, &c, Protect::None);
        let (lo, hi) = q.range();
        assert!(lo <= 1.0 && 1.0 <= hi);
        // IA would give [1/1.001, 1.001] ≈ width 2e-3; AA must beat it.
        assert!(hi - lo < 1.5e-3, "width = {}", hi - lo);
    }

    #[test]
    fn sqrt_contains_exact() {
        for c in both_placements(8) {
            let a = Affine::<f64>::from_input(2.0, &c);
            let r = a.sqrt(&c, Protect::None);
            assert!(
                r.contains_dd(Dd::from(2.0).sqrt()),
                "range = {:?}",
                r.range()
            );
        }
    }

    #[test]
    fn sqrt_negative_poisons() {
        let c = ctx(8, Placement::Sorted);
        let a = Affine::<f64>::from_interval(-2.0, -1.0, &c);
        assert_eq!(a.sqrt(&c, Protect::None).acc_bits(), f64::NEG_INFINITY);
    }

    #[test]
    fn sqrt_point_form() {
        let c = ctx(8, Placement::Sorted);
        let a = Affine::<f64>::exact(4.0, &c);
        let r = a.sqrt(&c, Protect::None);
        assert!(r.contains_f64(2.0));
        assert!(r.radius() <= f64::EPSILON);
    }

    #[test]
    fn neg_flips_everything() {
        for c in both_placements(8) {
            let a = Affine::<f64>::from_input(0.5, &c);
            let n = a.neg();
            assert_eq!(n.center_f64(), -0.5);
            let (lo, hi) = a.range();
            let (nlo, nhi) = n.range();
            assert_eq!((nlo, nhi), (-hi, -lo));
        }
    }

    #[test]
    fn comparisons() {
        let c = ctx(8, Placement::Sorted);
        let a = Affine::<f64>::from_interval(0.0, 1.0, &c);
        let b = Affine::<f64>::from_interval(2.0, 3.0, &c);
        assert_eq!(a.try_cmp(&b), Some(Ordering::Less));
        assert_eq!(b.try_cmp(&a), Some(Ordering::Greater));
        let o = Affine::<f64>::from_interval(0.5, 2.5, &c);
        assert_eq!(a.try_cmp(&o), None);
    }

    #[test]
    fn abs_mixed_sign() {
        let c = ctx(8, Placement::Sorted);
        let a = Affine::<f64>::from_interval(-1.0, 2.0, &c);
        let r = a.abs(&c);
        let (lo, hi) = r.range();
        assert!(lo <= 0.0 + 1e-12 && hi >= 2.0);
    }

    #[test]
    fn dda_center_keeps_more_bits() {
        let cs = ctx(8, Placement::Sorted);
        // Chain of multiplications by an inexact constant.
        let mut f = Affine::<f64>::from_input(0.7, &cs);
        let g64 = Affine::<f64>::constant(0.9, &cs);
        let cd = ctx(8, Placement::Sorted);
        let mut d = Affine::<Dd>::from_input(0.7, &cd);
        let gdd = Affine::<Dd>::constant(0.9, &cd);
        for _ in 0..40 {
            f = f.mul(&g64, &cs, Protect::None);
            d = d.mul(&gdd, &cd, Protect::None);
        }
        assert!(
            d.acc_bits() >= f.acc_bits(),
            "dda {} vs f64a {}",
            d.acc_bits(),
            f.acc_bits()
        );
    }

    #[test]
    fn k1_behaves_like_interval_arithmetic() {
        // With k = 1, every operation's result holds a single fresh symbol,
        // so results of *distinct* operations never correlate: computing
        // x·c twice and subtracting does not cancel (the IA behaviour).
        let c1 = ctx(1, Placement::Sorted);
        let x = Affine::<f64>::from_interval(0.0, 1.0, &c1);
        let y = Affine::<f64>::constant(1.5, &c1);
        let t1 = x.mul(&y, &c1, Protect::None);
        let t2 = x.mul(&y, &c1, Protect::None);
        let d1 = t1.sub(&t2, &c1, Protect::None);
        let (lo, hi) = d1.range();
        assert!(
            lo <= -1.4 && hi >= 1.4,
            "IA-like behaviour expected, got [{lo},{hi}]"
        );

        // The same computation with a healthy budget cancels.
        let c8 = ctx(8, Placement::Sorted);
        let x = Affine::<f64>::from_interval(0.0, 1.0, &c8);
        let y = Affine::<f64>::constant(1.5, &c8);
        let t1 = x.mul(&y, &c8, Protect::None);
        let t2 = x.mul(&y, &c8, Protect::None);
        let d8 = t1.sub(&t2, &c8, Protect::None);
        let (lo8, hi8) = d8.range();
        assert!(hi8 - lo8 < 0.1 * (hi - lo), "AA must beat IA here");
    }

    #[test]
    fn protection_changes_fusion_outcome() {
        // Under the oldest-symbol policy, z's symbol (the oldest) is the
        // first fusion victim and the later x·z − y·z cancellation is lost
        // — unless the static analysis protects it.
        let run = |protect_input: bool| -> f64 {
            let c = AaContext::new(
                AaConfig::new(2)
                    .with_placement(Placement::Sorted)
                    .with_fusion(Fusion::Oldest)
                    .with_vectorized(false),
            );
            let z = Affine::<f64>::from_interval(0.9, 1.1, &c); // oldest symbol
            let mut zids = Vec::new();
            z.protect_ids_into(usize::MAX, &mut zids);
            let prot = if protect_input {
                Protect::Ids(&zids)
            } else {
                Protect::None
            };
            let x = Affine::<f64>::from_interval(0.95, 1.05, &c);
            let y = Affine::<f64>::from_interval(0.95, 1.05, &c);
            let t1 = x.mul(&z, &c, prot);
            let t2 = y.mul(&z, &c, prot);
            let t3 = t1.sub(&t2, &c, prot);
            let (lo, hi) = t3.range();
            hi - lo
        };
        let protected_width = run(true);
        let unprotected_width = run(false);
        assert!(
            protected_width < unprotected_width,
            "protected {protected_width} !< unprotected {unprotected_width}"
        );
    }

    #[test]
    fn exact_zero_times_poisoned_is_not_nan() {
        // Regression: 0 · ∞ in the noise propagation used to produce NaN
        // ranges. An exactly-zero factor annihilates even an unbounded
        // noise term.
        for c in both_placements(4) {
            let zero = Affine::<f64>::exact(0.0, &c);
            let poisoned = Affine::<f64>::entire(&c);
            let p = zero.mul(&poisoned, &c, Protect::None);
            let (lo, hi) = p.range();
            assert!(!lo.is_nan() && !hi.is_nan(), "[{lo}, {hi}]");
            assert!(p.contains_f64(0.0));
            // sqrt of x·x where x has tiny symbols dips below zero and
            // poisons; multiplying by an exact zero must stay clean.
            let x = Affine::<f64>::constant(0.5, &c).sub(
                &Affine::<f64>::constant(0.5, &c),
                &c,
                Protect::None,
            );
            let sq = x.mul(&x, &c, Protect::None);
            let r = sq.sqrt(&c, Protect::None);
            let z = zero.mul(&r, &c, Protect::None);
            let (lo, hi) = z.range();
            assert!(!lo.is_nan() && !hi.is_nan(), "[{lo}, {hi}]");
        }
    }

    #[test]
    fn op_capacity_override_throttles_sorted_ops() {
        let c = ctx(16, Placement::Sorted);
        let a = Affine::<f64>::from_input(0.3, &c);
        let b = Affine::<f64>::from_input(0.7, &c);
        // Build values with many symbols at full budget.
        let mut x = a.mul(&b, &c, Protect::None);
        for _ in 0..10 {
            x = x.mul(&b, &c, Protect::None).add(&a, &c, Protect::None);
        }
        assert!(x.n_symbols() > 4);
        // Throttle: the next op must respect the lowered budget…
        c.set_op_capacity(3);
        let y = x.add(&a, &c, Protect::None);
        assert!(y.n_symbols() <= 3, "{} symbols", y.n_symbols());
        // …and stay sound.
        assert!(y.contains_f64(x.center_f64() + 0.3));
        // Reset restores the full budget for later ops.
        c.reset_op_capacity();
        let z = x.add(&a, &c, Protect::None);
        assert!(z.n_symbols() > 3);
    }

    #[test]
    fn protect_ids_caps_at_largest_magnitudes() {
        let c = ctx(16, Placement::Sorted);
        let big = Affine::<f64>::from_interval(0.0, 2.0, &c); // large symbol
        let small = Affine::<f64>::from_input(1.0, &c); // ulp symbol
        let v = big.add(&small, &c, Protect::None);
        let mut all: Vec<_> = v.terms().iter().map(|t| t.id).collect();
        all.sort_unstable();
        assert!(all.len() >= 2);
        let mut capped = Vec::new();
        v.protect_ids_into(1, &mut capped);
        assert_eq!(capped.len(), 1);
        // The surviving id is the big symbol's.
        assert_eq!(capped[0], big.terms()[0].id);
        // A generous limit returns everything, sorted.
        let mut loose = Vec::new();
        v.protect_ids_into(100, &mut loose);
        assert_eq!(loose, all);
    }

    #[test]
    fn f32a_soundness() {
        let c = ctx(8, Placement::Sorted);
        let a = Affine::<f32>::from_input(0.1, &c);
        let b = Affine::<f32>::from_input(0.2, &c);
        let s = a.add(&b, &c, Protect::None);
        assert!(s.contains_dd(Dd::from_two_sum(0.1, 0.2)));
        let p = a.mul(&b, &c, Protect::None);
        assert!(p.contains_dd(Dd::from_two_prod(0.1, 0.2)));
    }
}
