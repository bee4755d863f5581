//! The affine form type.

use crate::center::CenterValue;
use crate::config::{AaContext, Placement};
use crate::direct::{abs_sum, place_fresh};
use crate::symbol::{SymbolId, Term, NO_SYMBOL};
use safegen_fpcore::metrics;
use safegen_fpcore::round::{add_ru, sub_ru};
use safegen_fpcore::Dd;
use std::fmt;

/// An affine form `â = a₀ + Σ aᵢ·εᵢ` with central value of precision `C`
/// and `f64` coefficients, bounded to the context's `k` symbols.
///
/// Create forms through a [`AaContext`] so that error-symbol identifiers are
/// allocated consistently; combine them with the methods in this crate
/// ([`Affine::add`], [`Affine::mul`], …), always passing the same context.
///
/// ```
/// use safegen_affine::{AaConfig, AaContext, AffineF64, Protect};
/// let ctx = AaContext::new(AaConfig::new(8));
/// let x = AffineF64::from_input(0.5, &ctx);
/// let y = x.mul(&x, &ctx, Protect::None);
/// let (lo, hi) = y.range();
/// assert!(lo <= 0.25 && 0.25 <= hi);
/// ```
#[derive(Debug)]
pub struct Affine<C> {
    pub(crate) center: C,
    pub(crate) repr: Repr,
    /// Uncorrelated radius with no symbol identity: zero, except the
    /// "infinite radius" poison value on overflow/division-by-zero (every
    /// operation's round-off goes to a fresh symbol).
    pub(crate) acc_noise: f64,
}

/// Double-precision affine form (the paper's `f64a`).
pub type AffineF64 = Affine<f64>;
/// Double-double affine form (the paper's `dda`).
pub type AffineDd = Affine<Dd>;
/// Single-precision affine form (the paper's `f32a`).
pub type AffineF32 = Affine<f32>;

/// Symbol storage, matching [`Placement`].
#[derive(Debug)]
pub(crate) enum Repr {
    /// Terms sorted by symbol id, ascending. No sentinel entries.
    Sorted(Vec<Term>),
    /// Fixed `k`-slot structure-of-arrays; slot `i` holds the symbol with
    /// `id % k == i` (or [`NO_SYMBOL`]). SoA layout so the per-slot kernels
    /// vectorize.
    Direct {
        ids: Box<[SymbolId]>,
        coeffs: Box<[f64]>,
    },
}

impl Repr {
    pub(crate) fn empty(ctx: &AaContext) -> Repr {
        match ctx.config().placement {
            Placement::Sorted => Repr::Sorted(Vec::new()),
            Placement::DirectMapped => Repr::Direct {
                ids: vec![NO_SYMBOL; ctx.k()].into_boxed_slice(),
                coeffs: vec![0.0; ctx.k()].into_boxed_slice(),
            },
        }
    }

    /// Empties the storage for `ctx`'s placement, keeping the buffers when
    /// they already have its shape.
    pub(crate) fn reset(&mut self, ctx: &AaContext) {
        match (ctx.config().placement, &mut *self) {
            (Placement::Sorted, Repr::Sorted(terms)) => terms.clear(),
            (Placement::DirectMapped, Repr::Direct { ids, coeffs }) if ids.len() == ctx.k() => {
                ids.fill(NO_SYMBOL);
                coeffs.fill(0.0);
            }
            (_, repr) => *repr = Repr::empty(ctx),
        }
    }

    /// Gives a direct-mapped result `k` slots, keeping the buffers when
    /// they already have that shape. Their contents are stale: the merge
    /// writes every slot.
    #[inline(always)]
    pub(crate) fn ensure_direct(&mut self, k: usize) {
        if !matches!(self, Repr::Direct { ids, .. } if ids.len() == k) {
            self.make_direct(k);
        }
    }

    /// [`Repr::ensure_direct`]'s allocation, out of the operation's line.
    #[cold]
    #[inline(never)]
    fn make_direct(&mut self, k: usize) {
        *self = Repr::Direct {
            ids: vec![NO_SYMBOL; k].into_boxed_slice(),
            coeffs: vec![0.0; k].into_boxed_slice(),
        };
    }

    /// The slots of a direct-mapped form.
    ///
    /// # Panics
    ///
    /// Panics on sorted storage: the operands of one operation must come
    /// from one context.
    #[inline(always)]
    pub(crate) fn slots(&self) -> (&[SymbolId], &[f64]) {
        match self {
            Repr::Direct { ids, coeffs } => (ids, coeffs),
            Repr::Sorted(_) => mixed_placements(),
        }
    }

    /// [`Repr::slots`], writable.
    #[inline(always)]
    pub(crate) fn slots_mut(&mut self) -> (&mut [SymbolId], &mut [f64]) {
        match self {
            Repr::Direct { ids, coeffs } => (ids, coeffs),
            Repr::Sorted(_) => mixed_placements(),
        }
    }

    /// Inserts a fresh symbol into a form that [`Repr::reset`] emptied.
    fn push_fresh(&mut self, id: SymbolId, coeff: f64, k: usize) {
        if coeff == 0.0 {
            return;
        }
        match self {
            Repr::Sorted(terms) => {
                debug_assert!(terms.last().is_none_or(|t| t.id < id));
                debug_assert!(terms.len() < k || k == usize::MAX);
                terms.push(Term::new(id, coeff));
            }
            Repr::Direct { ids, coeffs } => {
                place_fresh(ids, coeffs, id, coeff);
            }
        }
    }
}

/// The panic of an operation on forms of two placements.
#[cold]
#[inline(never)]
fn mixed_placements() -> ! {
    panic!("mixed placements: operands must come from one context")
}

impl Clone for Repr {
    fn clone(&self) -> Repr {
        match self {
            Repr::Sorted(terms) => Repr::Sorted(terms.clone()),
            Repr::Direct { ids, coeffs } => Repr::Direct {
                ids: ids.clone(),
                coeffs: coeffs.clone(),
            },
        }
    }

    /// Copies into the existing buffers when they have the source's shape.
    fn clone_from(&mut self, source: &Repr) {
        match (self, source) {
            (Repr::Sorted(terms), Repr::Sorted(src)) => terms.clone_from(src),
            (
                Repr::Direct { ids, coeffs },
                Repr::Direct {
                    ids: src_ids,
                    coeffs: src_coeffs,
                },
            ) if ids.len() == src_ids.len() => {
                ids.copy_from_slice(src_ids);
                coeffs.copy_from_slice(src_coeffs);
            }
            (repr, src) => *repr = src.clone(),
        }
    }
}

impl<C: Copy> Clone for Affine<C> {
    fn clone(&self) -> Affine<C> {
        Affine {
            center: self.center,
            repr: self.repr.clone(),
            acc_noise: self.acc_noise,
        }
    }

    /// Reuses `self`'s symbol storage: no allocation when it already has
    /// the source's placement and slot count.
    fn clone_from(&mut self, source: &Affine<C>) {
        self.center = source.center;
        self.repr.clone_from(&source.repr);
        self.acc_noise = source.acc_noise;
    }
}

impl<C: CenterValue> Affine<C> {
    // -- constructors -------------------------------------------------------
    //
    // Like the operations, each constructor has one implementation: its
    // `*_into` form, which overwrites an existing form and reuses its
    // storage. The by-value constructor runs it on a fresh form.

    /// Runs the `*_into` form `write` on a fresh form. The fresh form owns
    /// no storage yet; `write` gives it the context's placement.
    pub(crate) fn build(write: impl FnOnce(&mut Affine<C>)) -> Affine<C> {
        let mut out = Affine {
            center: C::from_f64(0.0).0,
            repr: Repr::Sorted(Vec::new()),
            acc_noise: 0.0,
        };
        write(&mut out);
        out
    }

    /// Overwrites `self` with `center`, no inherited symbols, dedicated
    /// noise `acc_noise` and, when `fresh` is `Some(m)`, one newly
    /// allocated symbol of magnitude `m`.
    pub(crate) fn reset(&mut self, center: C, fresh: Option<f64>, acc_noise: f64, ctx: &AaContext) {
        self.center = center;
        self.acc_noise = acc_noise;
        self.repr.reset(ctx);
        if let Some(mag) = fresh {
            self.repr.push_fresh(ctx.fresh_symbol(), mag, ctx.k());
        }
    }

    /// A form holding exactly the `f64` value `x` (no uncertainty beyond
    /// the conversion to precision `C`, which for `f32` adds a symbol).
    pub fn exact(x: f64, ctx: &AaContext) -> Affine<C> {
        Affine::build(|out| Affine::exact_into(x, ctx, out))
    }

    /// [`Affine::exact`], written into `out`.
    pub(crate) fn exact_into(x: f64, ctx: &AaContext, out: &mut Affine<C>) {
        let (center, conv_err) = C::from_f64(x);
        out.reset(center, (conv_err > 0.0).then_some(conv_err), 0.0, ctx);
    }

    /// A form for a source-program constant, following the paper's
    /// convention (Sec. IV-B): values that are exact integers carry no
    /// uncertainty; any other constant is assumed accurate to within
    /// `1 ulp(x)` and gets a fresh error symbol of that magnitude.
    pub fn constant(x: f64, ctx: &AaContext) -> Affine<C> {
        Affine::build(|out| Affine::constant_into(x, ctx, out))
    }

    /// [`Affine::constant`], written into `out`.
    pub fn constant_into(x: f64, ctx: &AaContext, out: &mut Affine<C>) {
        if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
            Affine::exact_into(x, ctx, out);
        } else {
            // An inexact constant follows the input model.
            Affine::from_input_into(x, ctx, out);
        }
    }

    /// An input variable: central value `x` with one fresh symbol of
    /// magnitude `1 ulp(x)` — the input model of the paper's evaluation
    /// (Sec. VII, experimental setup).
    pub fn from_input(x: f64, ctx: &AaContext) -> Affine<C> {
        Affine::build(|out| Affine::from_input_into(x, ctx, out))
    }

    /// [`Affine::from_input`], written into `out`.
    pub fn from_input_into(x: f64, ctx: &AaContext, out: &mut Affine<C>) {
        let (center, conv_err) = C::from_f64(x);
        out.reset(center, Some(add_ru(metrics::ulp(x), conv_err)), 0.0, ctx);
    }

    /// A form enclosing the interval `[lo, hi]` with a single fresh symbol.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn from_interval(lo: f64, hi: f64, ctx: &AaContext) -> Affine<C> {
        Affine::build(|out| Affine::from_interval_into(lo, hi, ctx, out))
    }

    /// [`Affine::from_interval`], written into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub(crate) fn from_interval_into(lo: f64, hi: f64, ctx: &AaContext, out: &mut Affine<C>) {
        assert!(lo <= hi, "invalid interval [{lo}, {hi}]");
        let mid = 0.5 * lo + 0.5 * hi;
        let (center, conv_err) = C::from_f64(mid);
        let rad = sub_ru(hi, mid).max(sub_ru(mid, lo));
        out.reset(center, Some(add_ru(rad, conv_err)), 0.0, ctx);
    }

    /// A form enclosing `[lo, hi]` that tolerates non-finite and inverted
    /// hulls instead of panicking: any hull whose midpoint is not a finite
    /// `f64` (half-infinite, fully infinite, or NaN endpoints) collapses to
    /// [`Affine::entire`]. This is the materialization hook the fixpoint
    /// engine uses to rebuild loop-carried variables from widened interval
    /// hulls, where ±∞ endpoints are routine.
    ///
    /// Affine forms cannot represent half-infinite ranges (the center must
    /// be finite), so `[1, +∞)` soundly over-approximates to the entire
    /// form; interval domains keep the one-sided bound.
    pub fn from_range_outward(lo: f64, hi: f64, ctx: &AaContext) -> Affine<C> {
        Affine::build(|out| Affine::from_range_outward_into(lo, hi, ctx, out))
    }

    /// [`Affine::from_range_outward`], written into `out`.
    pub(crate) fn from_range_outward_into(lo: f64, hi: f64, ctx: &AaContext, out: &mut Affine<C>) {
        if lo.is_nan() || hi.is_nan() || lo > hi || !(0.5 * lo + 0.5 * hi).is_finite() {
            return Affine::entire_into(ctx, out);
        }
        Affine::from_interval_into(lo, hi, ctx, out);
        let (rlo, rhi) = out.range();
        if rlo.is_nan() || rhi.is_nan() {
            Affine::entire_into(ctx, out);
        }
    }

    /// The "anything" form: infinite radius, certifies nothing. Produced by
    /// division through zero and overflow.
    pub fn entire(ctx: &AaContext) -> Affine<C> {
        Affine::build(|out| Affine::entire_into(ctx, out))
    }

    /// [`Affine::entire`], written into `out`.
    pub(crate) fn entire_into(ctx: &AaContext, out: &mut Affine<C>) {
        out.reset(C::from_f64(0.0).0, None, f64::INFINITY, ctx);
    }

    // -- accessors ----------------------------------------------------------

    /// The central value `a₀`.
    #[inline]
    pub fn center(&self) -> C {
        self.center
    }

    /// The central value rounded to `f64`.
    #[inline]
    pub fn center_f64(&self) -> f64 {
        self.center.to_f64()
    }

    /// The uncorrelated noise magnitude (zero unless poisoned).
    #[inline]
    pub fn acc_noise(&self) -> f64 {
        self.acc_noise
    }

    /// Number of live error symbols.
    pub fn n_symbols(&self) -> usize {
        match &self.repr {
            Repr::Sorted(terms) => terms.len(),
            Repr::Direct { ids, .. } => ids.iter().filter(|&&i| i != NO_SYMBOL).count(),
        }
    }

    /// The occupied terms, in unspecified order.
    pub fn terms(&self) -> Vec<Term> {
        match &self.repr {
            Repr::Sorted(terms) => terms.clone(),
            Repr::Direct { ids, coeffs } => ids
                .iter()
                .zip(coeffs.iter())
                .filter(|(&id, _)| id != NO_SYMBOL)
                .map(|(&id, &c)| Term::new(id, c))
                .collect(),
        }
    }

    /// Writes into `out` the symbol ids worth protecting during one
    /// operation: at most `limit` ids, preferring the largest magnitudes
    /// (sorted ascending for [`crate::Protect::Ids`]).
    ///
    /// Protecting *every* symbol of a full variable would pin the whole
    /// budget and force fusion onto the other operand's (possibly larger)
    /// symbols — a net accuracy loss. Capping at the protection capacity
    /// keeps the prioritization hint useful.
    ///
    /// `out` is also the selection's workspace: it holds `[id,
    /// coefficient bits]` pairs, in [`Affine::terms`] order, until the
    /// largest magnitudes are picked.
    pub fn protect_ids_into(&self, limit: usize, out: &mut Vec<SymbolId>) {
        out.clear();
        match &self.repr {
            Repr::Sorted(terms) => {
                for t in terms {
                    out.extend([t.id, t.coeff.to_bits()]);
                }
            }
            Repr::Direct { ids, coeffs } => {
                for (&id, &c) in ids.iter().zip(coeffs.iter()) {
                    if id != NO_SYMBOL {
                        out.extend([id, c.to_bits()]);
                    }
                }
            }
        }
        let (pairs, _) = out.as_chunks_mut::<2>();
        let n = pairs.len();
        if n > limit {
            let magnitude = |pair: &[u64; 2]| f64::from_bits(pair[1]).abs();
            let pivot = limit.saturating_sub(1).min(n - 1);
            pairs.select_nth_unstable_by(pivot, |a, b| {
                magnitude(b)
                    .partial_cmp(&magnitude(a))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        let keep = n.min(limit);
        for i in 0..keep {
            out[i] = out[2 * i];
        }
        out.truncate(keep);
        out.sort_unstable();
    }

    /// The radius `r(â) = Σ|aᵢ|` (plus dedicated noise), a sound upper
    /// bound (paper eq. 2): upward-rounded for sorted terms, one bounded
    /// round-to-nearest sum for direct-mapped slots.
    pub fn radius(&self) -> f64 {
        let mut r = self.acc_noise;
        match &self.repr {
            Repr::Sorted(terms) => {
                for t in terms {
                    r = add_ru(r, t.coeff.abs());
                }
            }
            Repr::Direct { ids, coeffs } => {
                r = add_ru(r, abs_sum(ids, coeffs));
            }
        }
        r
    }

    /// The sound enclosing range `[a₀ − r, a₀ + r]` as `f64` endpoints
    /// (outward-rounded).
    pub fn range(&self) -> (f64, f64) {
        let r = self.radius();
        (self.center.range_lo(r), self.center.range_hi(r))
    }

    /// True if the form is poisoned (NaN center or coefficient).
    pub fn is_nan(&self) -> bool {
        if self.center.is_nan() || self.acc_noise.is_nan() {
            return true;
        }
        match &self.repr {
            Repr::Sorted(terms) => terms.iter().any(|t| t.coeff.is_nan()),
            Repr::Direct { ids, coeffs } => ids
                .iter()
                .zip(coeffs.iter())
                .any(|(&id, &c)| id != NO_SYMBOL && c.is_nan()),
        }
    }

    /// `acc(â) = 53 − err(â)` — certified bits on the `f64` grid
    /// (paper eq. 12). All precisions are compared on this axis, as in the
    /// paper's figures; a form narrower than one `f64` ulp certifies the
    /// full 53 bits.
    pub fn acc_bits(&self) -> f64 {
        let (lo, hi) = self.range();
        metrics::acc_bits(lo, hi, metrics::F64_MANTISSA_BITS)
    }

    /// True if `x` is inside the form's range.
    pub fn contains_f64(&self, x: f64) -> bool {
        let (lo, hi) = self.range();
        lo <= x && x <= hi
    }

    /// True if the double-double value `x` is inside the form's range —
    /// the soundness check used throughout the test suite with dd reference
    /// results.
    pub fn contains_dd(&self, x: Dd) -> bool {
        let (lo, hi) = self.range();
        Dd::from(lo) <= x && x <= Dd::from(hi)
    }
}

impl<C: CenterValue> fmt::Display for Affine<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ± {:e} ({} syms)",
            self.center,
            self.radius(),
            self.n_symbols()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AaConfig, Placement};

    fn ctx_sorted(k: usize) -> AaContext {
        AaContext::new(AaConfig::new(k).with_placement(Placement::Sorted))
    }

    fn ctx_direct(k: usize) -> AaContext {
        AaContext::new(AaConfig::new(k))
    }

    #[test]
    fn exact_has_no_symbols() {
        let ctx = ctx_sorted(8);
        let x = AffineF64::exact(0.1, &ctx);
        assert_eq!(x.n_symbols(), 0);
        assert_eq!(x.radius(), 0.0);
        assert_eq!(x.range(), (0.1, 0.1));
        assert_eq!(x.acc_bits(), 53.0);
    }

    #[test]
    fn integer_constant_is_exact() {
        let ctx = ctx_sorted(8);
        let x = AffineF64::constant(3.0, &ctx);
        assert_eq!(x.n_symbols(), 0);
        let z = AffineF64::constant(0.0, &ctx);
        assert_eq!(z.n_symbols(), 0);
    }

    #[test]
    fn decimal_constant_gets_ulp_symbol() {
        let ctx = ctx_sorted(8);
        let x = AffineF64::constant(0.1, &ctx);
        assert_eq!(x.n_symbols(), 1);
        assert_eq!(x.radius(), metrics::ulp(0.1));
        // The true decimal 0.1 lies inside.
        let tenth = Dd::ONE / Dd::from(10.0);
        assert!(x.contains_dd(tenth));
    }

    #[test]
    fn from_input_radius_is_one_ulp() {
        let ctx = ctx_direct(8);
        let x = AffineF64::from_input(0.5, &ctx);
        assert_eq!(x.n_symbols(), 1);
        assert_eq!(x.radius(), metrics::ulp(0.5));
    }

    #[test]
    fn from_interval_encloses_endpoints() {
        let ctx = ctx_direct(8);
        let x = AffineF64::from_interval(0.1, 0.7, &ctx);
        assert!(x.contains_f64(0.1));
        assert!(x.contains_f64(0.7));
        assert!(x.contains_f64(0.4));
        assert!(!x.contains_f64(0.8));
    }

    #[test]
    #[should_panic(expected = "invalid interval")]
    fn from_interval_rejects_inverted() {
        let ctx = ctx_direct(8);
        let _ = AffineF64::from_interval(1.0, 0.0, &ctx);
    }

    #[test]
    fn entire_certifies_nothing() {
        let ctx = ctx_direct(8);
        let x = AffineF64::entire(&ctx);
        assert_eq!(x.acc_bits(), f64::NEG_INFINITY);
        let (lo, hi) = x.range();
        assert_eq!(lo, f64::NEG_INFINITY);
        assert_eq!(hi, f64::INFINITY);
    }

    #[test]
    fn direct_repr_has_k_slots() {
        let ctx = ctx_direct(4);
        let x = AffineF64::from_input(1.0, &ctx);
        match &x.repr {
            Repr::Direct { ids, coeffs } => {
                assert_eq!(ids.len(), 4);
                assert_eq!(coeffs.len(), 4);
            }
            _ => panic!("expected direct repr"),
        }
    }

    #[test]
    fn protect_ids_into_sorts_ascending() {
        let ctx = ctx_direct(8);
        let x = AffineF64::from_input(1.0, &ctx);
        let y = AffineF64::from_input(2.0, &ctx);
        let s = x.add(&y, &ctx, crate::Protect::None);
        let mut ids = Vec::new();
        s.protect_ids_into(usize::MAX, &mut ids);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn protect_ids_into_selects_like_a_term_selection() {
        // The selection runs on `[id, bits]` pairs; it must keep exactly
        // the ids a selection over the `Term`s keeps, ties included.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::new();
        for round in 0..300 {
            let n = (next() % 20) as usize;
            // Few distinct magnitudes, so ties at the cut are common.
            let terms: Vec<Term> = (0..n as u64)
                .map(|id| {
                    let mag = [0.5, 1.0, 2.0][(next() % 3) as usize];
                    Term::new(id, if next() % 2 == 0 { mag } else { -mag })
                })
                .collect();
            let form = AffineF64 {
                center: 1.0,
                repr: Repr::Sorted(terms.clone()),
                acc_noise: 0.0,
            };
            for limit in [0, 1, 2, 3, 5, 8, 25] {
                let mut want = terms.clone();
                if want.len() > limit {
                    let pivot = limit.saturating_sub(1).min(want.len() - 1);
                    want.select_nth_unstable_by(pivot, |a, b| {
                        b.coeff
                            .abs()
                            .partial_cmp(&a.coeff.abs())
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    want.truncate(limit);
                }
                let mut want: Vec<SymbolId> = want.into_iter().map(|t| t.id).collect();
                want.sort_unstable();
                form.protect_ids_into(limit, &mut out);
                assert_eq!(out, want, "round {round}, limit {limit}");
            }
        }
    }

    #[test]
    fn dd_form_range_brackets_center() {
        let ctx = ctx_sorted(8);
        let x = AffineDd::from_input(0.1, &ctx);
        let (lo, hi) = x.range();
        assert!(lo <= 0.1 && 0.1 <= hi);
    }

    #[test]
    fn f32_exact_records_conversion_error() {
        let ctx = ctx_sorted(8);
        let x = AffineF32::exact(0.1, &ctx);
        // 0.1f64 is not representable in f32: a symbol captures the gap.
        assert_eq!(x.n_symbols(), 1);
        assert!(x.contains_f64(0.1));
    }

    #[test]
    fn display_nonempty() {
        let ctx = ctx_sorted(8);
        let x = AffineF64::from_input(1.0, &ctx);
        assert!(!format!("{x}").is_empty());
    }

    #[test]
    fn from_range_outward_is_outward_at_the_edges() {
        let ctx = ctx_sorted(8);
        // Ordinary range: the materialized form must enclose both
        // endpoints even though mid/rad rounding is involved — including
        // subnormal-width ranges whose midpoint rounds.
        let cases = [
            (0.1, 0.2),
            (-1.0, 1.0),
            (f64::from_bits(1), f64::from_bits(9)),
            (-f64::MIN_POSITIVE, f64::MIN_POSITIVE.next_up()),
            (1.0, 1.0f64.next_up()),
        ];
        for (lo, hi) in cases {
            let x = AffineF64::from_range_outward(lo, hi, &ctx);
            let (rlo, rhi) = x.range();
            assert!(
                rlo <= lo && hi <= rhi,
                "[{lo:e}, {hi:e}] → [{rlo:e}, {rhi:e}]"
            );
        }
        // Half-infinite and infinite hulls cannot keep a finite center:
        // the sound materialization is the entire form, never a panic.
        for (lo, hi) in [
            (1.0, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::MAX, f64::INFINITY),
            (f64::NAN, 1.0),
        ] {
            let x = AffineF64::from_range_outward(lo, hi, &ctx);
            let (rlo, rhi) = x.range();
            assert_eq!(
                (rlo, rhi),
                (f64::NEG_INFINITY, f64::INFINITY),
                "[{lo:e}, {hi:e}] must collapse to entire"
            );
        }
        // Near-overflow midpoints: 0.5*lo + 0.5*hi stays finite here, and
        // the enclosure must still cover both endpoints.
        let x = AffineF64::from_range_outward(f64::MAX.next_down(), f64::MAX, &ctx);
        let (rlo, rhi) = x.range();
        assert!(rlo <= f64::MAX.next_down() && f64::MAX <= rhi);
    }
}
