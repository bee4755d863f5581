//! Reimplementations of the comparison systems of the paper's evaluation
//! (Sec. VII-B, Fig. 9), so the comparison can run without the original
//! C++/Scala artifacts:
//!
//! * [`YalaaAff0`] — Yalaa's `aff0` type: **full** affine arithmetic, no
//!   symbol limit, a fresh symbol per operation. Implemented library-style
//!   over an ordered map (Yalaa keeps an ordered symbol container per
//!   value), which carries the allocation/traversal overhead the paper
//!   measures SafeGen's flat-array code against.
//! * [`YalaaAff1`] — Yalaa's `aff1` type: symbols fixed to the inputs, all
//!   round-off accumulated in one uncorrelated noise term per value.
//! * [`CeresAffine`] — Ceres' `AffineFloat`: bounded symbol count with a
//!   compact-on-overflow policy that fuses the smallest terms into a new
//!   noise symbol, implemented persistently (each operation builds fresh
//!   maps, as an immutable Scala library does).
//!
//! All three are sound: they use the same directed-rounding substrate as
//! the native forms. What differs — deliberately — is the algorithmic
//! envelope and the data-structure style, which is what the runtime
//! comparison in Fig. 9 is about.

use safegen_fpcore::metrics::{self, acc_bits, F64_MANTISSA_BITS};
use safegen_fpcore::round::{add_ru, add_with_err, mul_ru, mul_with_err, sub_rd, sub_ru};
use safegen_interval::IntervalF64;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Shared symbol allocator for the baseline types.
#[derive(Clone, Debug, Default)]
pub struct BaselineCtx {
    next: Rc<Cell<u64>>,
}

impl BaselineCtx {
    /// Creates a fresh allocator.
    pub fn new() -> BaselineCtx {
        BaselineCtx::default()
    }

    fn fresh(&self) -> u64 {
        let id = self.next.get();
        self.next.set(id + 1);
        id
    }
}

// ---------------------------------------------------------------------------
// Yalaa aff0: full AA over an ordered map
// ---------------------------------------------------------------------------

/// Full affine arithmetic with unbounded symbols (Yalaa `aff0`).
#[derive(Clone, Debug)]
pub struct YalaaAff0 {
    center: f64,
    terms: BTreeMap<u64, f64>,
}

impl YalaaAff0 {
    /// An input value `x ± 1 ulp(x)`.
    pub fn from_input(x: f64, ctx: &BaselineCtx) -> YalaaAff0 {
        let mut terms = BTreeMap::new();
        terms.insert(ctx.fresh(), metrics::ulp(x));
        YalaaAff0 { center: x, terms }
    }

    /// A source constant (±1 ulp unless integral).
    pub fn constant(x: f64, ctx: &BaselineCtx) -> YalaaAff0 {
        let mut terms = BTreeMap::new();
        if x.fract() != 0.0 || x.abs() >= 2f64.powi(53) {
            terms.insert(ctx.fresh(), metrics::ulp(x));
        }
        YalaaAff0 { center: x, terms }
    }

    /// A value `center ± radius` carried by one fresh symbol (used when a
    /// derived operation falls back to an interval enclosure).
    pub fn with_symbol(center: f64, radius: f64, ctx: &BaselineCtx) -> YalaaAff0 {
        let mut terms = BTreeMap::new();
        if radius > 0.0 {
            terms.insert(ctx.fresh(), radius);
        }
        YalaaAff0 { center, terms }
    }

    /// Radius `Σ|aᵢ|`, upward-rounded.
    pub fn radius(&self) -> f64 {
        self.terms.values().fold(0.0, |r, c| add_ru(r, c.abs()))
    }

    /// Sound enclosing range.
    pub fn range(&self) -> (f64, f64) {
        let r = self.radius();
        (sub_rd(self.center, r), add_ru(self.center, r))
    }

    /// Certified bits on the `f64` grid.
    pub fn acc_bits(&self) -> f64 {
        let (lo, hi) = self.range();
        acc_bits(lo, hi, F64_MANTISSA_BITS)
    }

    /// Number of live symbols (grows with every operation).
    pub fn n_symbols(&self) -> usize {
        self.terms.len()
    }

    /// Addition with a fresh round-off symbol.
    pub fn add(&self, rhs: &YalaaAff0, ctx: &BaselineCtx) -> YalaaAff0 {
        let (center, mut noise) = add_with_err(self.center, rhs.center);
        let mut terms = self.terms.clone();
        for (&id, &c) in &rhs.terms {
            match terms.entry(id) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let (s, err) = add_with_err(*e.get(), c);
                    noise = add_ru(noise, err);
                    if s == 0.0 {
                        e.remove();
                    } else {
                        *e.get_mut() = s;
                    }
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(c);
                }
            }
        }
        if noise > 0.0 {
            terms.insert(ctx.fresh(), noise);
        }
        YalaaAff0 { center, terms }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &YalaaAff0, ctx: &BaselineCtx) -> YalaaAff0 {
        self.add(&rhs.neg(), ctx)
    }

    /// Negation (exact).
    pub fn neg(&self) -> YalaaAff0 {
        YalaaAff0 {
            center: -self.center,
            terms: self.terms.iter().map(|(&i, &c)| (i, -c)).collect(),
        }
    }

    /// Multiplication per paper eq. 5.
    pub fn mul(&self, rhs: &YalaaAff0, ctx: &BaselineCtx) -> YalaaAff0 {
        let (center, e0) = mul_with_err(self.center, rhs.center);
        let mut noise = add_ru(e0, mul_ru(self.radius(), rhs.radius()));
        let mut terms: BTreeMap<u64, f64> = BTreeMap::new();
        for (&id, &c) in &self.terms {
            let (p, e) = mul_with_err(rhs.center, c);
            noise = add_ru(noise, e);
            if p != 0.0 {
                terms.insert(id, p);
            }
        }
        for (&id, &c) in &rhs.terms {
            let (p, e) = mul_with_err(self.center, c);
            noise = add_ru(noise, e);
            match terms.entry(id) {
                std::collections::btree_map::Entry::Occupied(mut entry) => {
                    let (s, err) = add_with_err(*entry.get(), p);
                    noise = add_ru(noise, err);
                    if s == 0.0 {
                        entry.remove();
                    } else {
                        *entry.get_mut() = s;
                    }
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    if p != 0.0 {
                        v.insert(p);
                    }
                }
            }
        }
        if noise > 0.0 {
            terms.insert(ctx.fresh(), noise);
        }
        YalaaAff0 { center, terms }
    }
}

// ---------------------------------------------------------------------------
// Yalaa aff1: input symbols only, dedicated noise accumulation
// ---------------------------------------------------------------------------

/// Yalaa's `aff1`: the symbol set is fixed to the program inputs; all new
/// deviations accumulate in one uncorrelated term.
#[derive(Clone, Debug)]
pub struct YalaaAff1 {
    center: f64,
    terms: BTreeMap<u64, f64>,
    noise: f64,
}

impl YalaaAff1 {
    /// An input value `x ± 1 ulp(x)`.
    pub fn from_input(x: f64, ctx: &BaselineCtx) -> YalaaAff1 {
        let mut terms = BTreeMap::new();
        terms.insert(ctx.fresh(), metrics::ulp(x));
        YalaaAff1 {
            center: x,
            terms,
            noise: 0.0,
        }
    }

    /// A source constant (uncertainty goes straight to the noise term).
    pub fn constant(x: f64, _ctx: &BaselineCtx) -> YalaaAff1 {
        let noise = if x.fract() != 0.0 || x.abs() >= 2f64.powi(53) {
            metrics::ulp(x)
        } else {
            0.0
        };
        YalaaAff1 {
            center: x,
            terms: BTreeMap::new(),
            noise,
        }
    }

    /// A value `center ± noise` with no correlated symbols (interval-style
    /// fallback for derived operations).
    pub fn with_noise(center: f64, noise: f64, _ctx: &BaselineCtx) -> YalaaAff1 {
        YalaaAff1 {
            center,
            terms: BTreeMap::new(),
            noise: noise.max(0.0),
        }
    }

    /// Radius including the accumulated noise.
    pub fn radius(&self) -> f64 {
        self.terms
            .values()
            .fold(self.noise, |r, c| add_ru(r, c.abs()))
    }

    /// Sound enclosing range.
    pub fn range(&self) -> (f64, f64) {
        let r = self.radius();
        (sub_rd(self.center, r), add_ru(self.center, r))
    }

    /// Certified bits on the `f64` grid.
    pub fn acc_bits(&self) -> f64 {
        let (lo, hi) = self.range();
        acc_bits(lo, hi, F64_MANTISSA_BITS)
    }

    /// Addition: input terms combine; round-off joins the noise.
    pub fn add(&self, rhs: &YalaaAff1) -> YalaaAff1 {
        let (center, mut noise) = add_with_err(self.center, rhs.center);
        noise = add_ru(noise, add_ru(self.noise, rhs.noise));
        let mut terms = self.terms.clone();
        for (&id, &c) in &rhs.terms {
            match terms.entry(id) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let (s, err) = add_with_err(*e.get(), c);
                    noise = add_ru(noise, err);
                    *e.get_mut() = s;
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(c);
                }
            }
        }
        YalaaAff1 {
            center,
            terms,
            noise,
        }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &YalaaAff1) -> YalaaAff1 {
        self.add(&rhs.neg())
    }

    /// Negation (the noise term is sign-less).
    pub fn neg(&self) -> YalaaAff1 {
        YalaaAff1 {
            center: -self.center,
            terms: self.terms.iter().map(|(&i, &c)| (i, -c)).collect(),
            noise: self.noise,
        }
    }

    /// Multiplication; the quadratic term and both noises join the result
    /// noise (uncorrelated).
    pub fn mul(&self, rhs: &YalaaAff1) -> YalaaAff1 {
        let (center, e0) = mul_with_err(self.center, rhs.center);
        let mag = |a: f64, b: f64| {
            if a == 0.0 || b == 0.0 {
                0.0
            } else {
                mul_ru(a, b)
            }
        };
        let mut noise = add_ru(e0, mag(self.radius(), rhs.radius()));
        noise = add_ru(noise, mag(rhs.center.abs(), self.noise));
        noise = add_ru(noise, mag(self.center.abs(), rhs.noise));
        let mut terms: BTreeMap<u64, f64> = BTreeMap::new();
        for (&id, &c) in &self.terms {
            let (p, e) = mul_with_err(rhs.center, c);
            noise = add_ru(noise, e);
            if p != 0.0 {
                terms.insert(id, p);
            }
        }
        for (&id, &c) in &rhs.terms {
            let (p, e) = mul_with_err(self.center, c);
            noise = add_ru(noise, e);
            match terms.entry(id) {
                std::collections::btree_map::Entry::Occupied(mut entry) => {
                    let (s, err) = add_with_err(*entry.get(), p);
                    noise = add_ru(noise, err);
                    *entry.get_mut() = s;
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    if p != 0.0 {
                        v.insert(p);
                    }
                }
            }
        }
        YalaaAff1 {
            center,
            terms,
            noise,
        }
    }
}

// ---------------------------------------------------------------------------
// Ceres AffineFloat: bounded, compact-on-overflow, persistent style
// ---------------------------------------------------------------------------

/// Ceres-style bounded affine value: at most `k` symbols; exceeding the
/// bound *compacts* the smallest-magnitude terms into a fresh noise symbol.
#[derive(Clone, Debug)]
pub struct CeresAffine {
    center: f64,
    terms: BTreeMap<u64, f64>,
    k: usize,
}

impl CeresAffine {
    /// An input value `x ± 1 ulp(x)` with symbol budget `k`.
    pub fn from_input(x: f64, k: usize, ctx: &BaselineCtx) -> CeresAffine {
        let mut terms = BTreeMap::new();
        terms.insert(ctx.fresh(), metrics::ulp(x));
        CeresAffine {
            center: x,
            terms,
            k,
        }
    }

    /// A source constant.
    pub fn constant(x: f64, k: usize, ctx: &BaselineCtx) -> CeresAffine {
        let mut terms = BTreeMap::new();
        if x.fract() != 0.0 || x.abs() >= 2f64.powi(53) {
            terms.insert(ctx.fresh(), metrics::ulp(x));
        }
        CeresAffine {
            center: x,
            terms,
            k,
        }
    }

    /// A value `center ± radius` carried by one fresh symbol.
    pub fn with_symbol(center: f64, radius: f64, k: usize, ctx: &BaselineCtx) -> CeresAffine {
        let mut terms = BTreeMap::new();
        if radius > 0.0 {
            terms.insert(ctx.fresh(), radius);
        }
        CeresAffine { center, terms, k }
    }

    /// Radius.
    pub fn radius(&self) -> f64 {
        self.terms.values().fold(0.0, |r, c| add_ru(r, c.abs()))
    }

    /// Sound enclosing range.
    pub fn range(&self) -> (f64, f64) {
        let r = self.radius();
        (sub_rd(self.center, r), add_ru(self.center, r))
    }

    /// Certified bits on the `f64` grid.
    pub fn acc_bits(&self) -> f64 {
        let (lo, hi) = self.range();
        acc_bits(lo, hi, F64_MANTISSA_BITS)
    }

    /// Number of live symbols (≤ k after every operation).
    pub fn n_symbols(&self) -> usize {
        self.terms.len()
    }

    fn compact(
        mut terms: BTreeMap<u64, f64>,
        mut noise: f64,
        k: usize,
        ctx: &BaselineCtx,
    ) -> BTreeMap<u64, f64> {
        let budget = k.saturating_sub(usize::from(noise > 0.0));
        if terms.len() > budget {
            // Persistent style: collect, sort by magnitude, rebuild.
            let mut by_mag: Vec<(u64, f64)> = terms.iter().map(|(&i, &c)| (i, c)).collect();
            by_mag.sort_by(|a, b| {
                a.1.abs()
                    .partial_cmp(&b.1.abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let excess = terms.len() - budget + 1;
            for &(id, c) in by_mag.iter().take(excess) {
                noise = add_ru(noise, c.abs());
                terms.remove(&id);
            }
        }
        if noise > 0.0 {
            terms.insert(ctx.fresh(), noise);
        }
        terms
    }

    /// Addition with compaction.
    pub fn add(&self, rhs: &CeresAffine, ctx: &BaselineCtx) -> CeresAffine {
        let (center, mut noise) = add_with_err(self.center, rhs.center);
        let mut terms = self.terms.clone();
        for (&id, &c) in &rhs.terms {
            match terms.entry(id) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let (s, err) = add_with_err(*e.get(), c);
                    noise = add_ru(noise, err);
                    if s == 0.0 {
                        e.remove();
                    } else {
                        *e.get_mut() = s;
                    }
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(c);
                }
            }
        }
        let terms = Self::compact(terms, noise, self.k, ctx);
        CeresAffine {
            center,
            terms,
            k: self.k,
        }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &CeresAffine, ctx: &BaselineCtx) -> CeresAffine {
        self.add(&rhs.neg(), ctx)
    }

    /// Negation.
    pub fn neg(&self) -> CeresAffine {
        CeresAffine {
            center: -self.center,
            terms: self.terms.iter().map(|(&i, &c)| (i, -c)).collect(),
            k: self.k,
        }
    }

    /// Multiplication with compaction.
    pub fn mul(&self, rhs: &CeresAffine, ctx: &BaselineCtx) -> CeresAffine {
        let (center, e0) = mul_with_err(self.center, rhs.center);
        let mut noise = add_ru(e0, mul_ru(self.radius(), rhs.radius()));
        let mut terms: BTreeMap<u64, f64> = BTreeMap::new();
        for (&id, &c) in &self.terms {
            let (p, e) = mul_with_err(rhs.center, c);
            noise = add_ru(noise, e);
            if p != 0.0 {
                terms.insert(id, p);
            }
        }
        for (&id, &c) in &rhs.terms {
            let (p, e) = mul_with_err(self.center, c);
            noise = add_ru(noise, e);
            match terms.entry(id) {
                std::collections::btree_map::Entry::Occupied(mut entry) => {
                    let (s, err) = add_with_err(*entry.get(), p);
                    noise = add_ru(noise, err);
                    if s == 0.0 {
                        entry.remove();
                    } else {
                        *entry.get_mut() = s;
                    }
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    if p != 0.0 {
                        v.insert(p);
                    }
                }
            }
        }
        let terms = Self::compact(terms, noise, self.k, ctx);
        CeresAffine {
            center,
            terms,
            k: self.k,
        }
    }
}

/// Ceres needs the symbol budget alongside the allocator.
#[derive(Clone, Debug)]
pub struct CeresCtx {
    /// Symbol allocator.
    pub ctx: BaselineCtx,
    /// Symbol budget `k`.
    pub k: usize,
}

/// What the interval fallbacks need of a library baseline: its own
/// arithmetic, its range, and a value for `mid ± rad`.
///
/// The baselines implement `+ - *` natively and nothing else. Division,
/// `min`/`max`, `sqrt` and `abs` go through the range as intervals and
/// come back as a fresh value ([`div`], [`min`], [`max`], [`sqrt`],
/// [`abs`]). Yalaa supports division through its Chebyshev
/// approximation; an interval fallback is sound and the benchmarks barely
/// divide.
pub trait Baseline: Clone {
    /// What construction needs (the symbol allocator, and for Ceres the
    /// budget).
    type Ctx;

    /// The center of the value a division or square root returns when
    /// its divisor or radicand straddles 0; the radius is ∞.
    const UNDEFINED_CENTER: f64;

    /// `a + b`.
    fn add(a: &Self, b: &Self, cx: &Self::Ctx) -> Self;
    /// `a - b`.
    fn sub(a: &Self, b: &Self, cx: &Self::Ctx) -> Self;
    /// `a * b`.
    fn mul(a: &Self, b: &Self, cx: &Self::Ctx) -> Self;
    /// `-a`.
    fn neg(a: &Self) -> Self;
    /// Sound enclosure `[lo, hi]`.
    fn range(a: &Self) -> (f64, f64);
    /// `mid ± rad` under one fresh symbol (or noise term).
    fn with_radius(mid: f64, rad: f64, cx: &Self::Ctx) -> Self;
}

/// Sound (mid, radius) decomposition of `[lo, hi]`: the radius is
/// outward-rounded so `mid ± radius ⊇ [lo, hi]`.
fn mid_rad(lo: f64, hi: f64) -> (f64, f64) {
    let mid = 0.5 * (lo + hi);
    if !mid.is_finite() {
        return (0.0, f64::INFINITY);
    }
    let rad = sub_ru(hi, mid).max(sub_ru(mid, lo)).max(0.0);
    (mid, rad)
}

/// `[lo, hi]` as a baseline value: center ± half-width under one fresh
/// symbol. Outward rounding keeps the enclosure sound.
pub fn hull<T: Baseline>(lo: f64, hi: f64, cx: &T::Ctx) -> T {
    let (m, r) = mid_rad(lo, hi);
    T::with_radius(m, r, cx)
}

fn undefined<T: Baseline>(cx: &T::Ctx) -> T {
    T::with_radius(T::UNDEFINED_CENTER, f64::INFINITY, cx)
}

/// `a / b` through interval division of the ranges.
pub fn div<T: Baseline>(a: &T, b: &T, cx: &T::Ctx) -> T {
    let (lo, hi) = T::range(b);
    if lo <= 0.0 && hi >= 0.0 {
        return undefined(cx);
    }
    let (alo, ahi) = T::range(a);
    let q = IntervalF64::new(alo, ahi) / IntervalF64::new(lo, hi);
    hull(q.lo(), q.hi(), cx)
}

/// `min(a, b)`: the lower operand when the ranges are ordered, else the
/// hull of the interval minimum.
pub fn min<T: Baseline>(a: &T, b: &T, cx: &T::Ctx) -> T {
    let (alo, ahi) = T::range(a);
    let (blo, bhi) = T::range(b);
    if ahi <= blo {
        a.clone()
    } else if bhi <= alo {
        b.clone()
    } else {
        hull(alo.min(blo), ahi.min(bhi), cx)
    }
}

/// `max(a, b)`: the upper operand when the ranges are ordered, else the
/// hull of the interval maximum.
pub fn max<T: Baseline>(a: &T, b: &T, cx: &T::Ctx) -> T {
    let (alo, ahi) = T::range(a);
    let (blo, bhi) = T::range(b);
    if alo >= bhi {
        a.clone()
    } else if blo >= ahi {
        b.clone()
    } else {
        hull(alo.max(blo), ahi.max(bhi), cx)
    }
}

/// `sqrt(a)` through the interval square root of the range.
pub fn sqrt<T: Baseline>(a: &T, cx: &T::Ctx) -> T {
    let (lo, hi) = T::range(a);
    if lo < 0.0 {
        return undefined(cx);
    }
    let r = IntervalF64::new(lo, hi).sqrt();
    hull(r.lo(), r.hi(), cx)
}

/// `|a|`: the operand or its negation when its sign is known, else the
/// hull of `[0, max(|lo|, |hi|)]`.
pub fn abs<T: Baseline>(a: &T, cx: &T::Ctx) -> T {
    let (lo, hi) = T::range(a);
    if lo >= 0.0 {
        a.clone()
    } else if hi <= 0.0 {
        T::neg(a)
    } else {
        hull(0.0, hi.max(-lo), cx)
    }
}

impl Baseline for YalaaAff0 {
    type Ctx = BaselineCtx;
    // `[-∞, ∞]` through the hull: a zero center.
    const UNDEFINED_CENTER: f64 = 0.0;

    fn add(a: &Self, b: &Self, cx: &BaselineCtx) -> Self {
        a.add(b, cx)
    }
    fn sub(a: &Self, b: &Self, cx: &BaselineCtx) -> Self {
        a.sub(b, cx)
    }
    fn mul(a: &Self, b: &Self, cx: &BaselineCtx) -> Self {
        a.mul(b, cx)
    }
    fn neg(a: &Self) -> Self {
        a.neg()
    }
    fn range(a: &Self) -> (f64, f64) {
        a.range()
    }
    fn with_radius(mid: f64, rad: f64, cx: &BaselineCtx) -> Self {
        YalaaAff0::with_symbol(mid, rad, cx)
    }
}

impl Baseline for YalaaAff1 {
    type Ctx = BaselineCtx;
    const UNDEFINED_CENTER: f64 = f64::NAN;

    fn add(a: &Self, b: &Self, _: &BaselineCtx) -> Self {
        a.add(b)
    }
    fn sub(a: &Self, b: &Self, _: &BaselineCtx) -> Self {
        a.sub(b)
    }
    fn mul(a: &Self, b: &Self, _: &BaselineCtx) -> Self {
        a.mul(b)
    }
    fn neg(a: &Self) -> Self {
        a.neg()
    }
    fn range(a: &Self) -> (f64, f64) {
        a.range()
    }
    fn with_radius(mid: f64, rad: f64, cx: &BaselineCtx) -> Self {
        YalaaAff1::with_noise(mid, rad, cx)
    }
}

impl Baseline for CeresAffine {
    type Ctx = CeresCtx;
    const UNDEFINED_CENTER: f64 = f64::NAN;

    fn add(a: &Self, b: &Self, cx: &CeresCtx) -> Self {
        a.add(b, &cx.ctx)
    }
    fn sub(a: &Self, b: &Self, cx: &CeresCtx) -> Self {
        a.sub(b, &cx.ctx)
    }
    fn mul(a: &Self, b: &Self, cx: &CeresCtx) -> Self {
        a.mul(b, &cx.ctx)
    }
    fn neg(a: &Self) -> Self {
        a.neg()
    }
    fn range(a: &Self) -> (f64, f64) {
        a.range()
    }
    fn with_radius(mid: f64, rad: f64, cx: &CeresCtx) -> Self {
        CeresAffine::with_symbol(mid, rad, cx.k, &cx.ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safegen_fpcore::Dd;

    fn contains(range: (f64, f64), x: Dd) -> bool {
        Dd::from(range.0) <= x && x <= Dd::from(range.1)
    }

    #[test]
    fn aff0_full_cancellation() {
        let ctx = BaselineCtx::new();
        let x = YalaaAff0::from_input(0.5, &ctx);
        let d = x.sub(&x, &ctx);
        assert_eq!(d.range(), (0.0, 0.0));
    }

    #[test]
    fn aff0_symbols_grow_per_op() {
        let ctx = BaselineCtx::new();
        let mut x = YalaaAff0::from_input(0.5, &ctx);
        let y = YalaaAff0::from_input(0.3, &ctx);
        let n0 = x.n_symbols();
        for _ in 0..5 {
            x = x.mul(&y, &ctx);
        }
        assert!(x.n_symbols() > n0 + 3, "full AA must keep creating symbols");
    }

    #[test]
    fn aff0_soundness_chain() {
        let ctx = BaselineCtx::new();
        let mut x = YalaaAff0::from_input(0.7, &ctx);
        let y = YalaaAff0::from_input(1.1, &ctx);
        let mut exact = Dd::from(0.7);
        for _ in 0..20 {
            x = x.mul(&y, &ctx);
            exact = exact * Dd::from(1.1);
            assert!(contains(x.range(), exact));
        }
    }

    #[test]
    fn aff1_keeps_input_symbols_only() {
        let ctx = BaselineCtx::new();
        let x = YalaaAff1::from_input(0.5, &ctx);
        let y = YalaaAff1::from_input(0.3, &ctx);
        let z = x.mul(&y).add(&x);
        assert!(z.terms.len() <= 2);
        assert!(z.noise > 0.0);
    }

    #[test]
    fn aff1_soundness() {
        let ctx = BaselineCtx::new();
        let x = YalaaAff1::from_input(0.1, &ctx);
        let y = YalaaAff1::from_input(0.2, &ctx);
        let s = x.add(&y);
        assert!(contains(s.range(), Dd::from_two_sum(0.1, 0.2)));
        let p = x.mul(&y);
        assert!(contains(p.range(), Dd::from_two_prod(0.1, 0.2)));
    }

    #[test]
    fn aff1_linear_cancellation_still_works() {
        let ctx = BaselineCtx::new();
        let x = YalaaAff1::from_input(0.5, &ctx);
        let d = x.sub(&x);
        let (lo, hi) = d.range();
        assert!(lo.abs() < 1e-300 && hi.abs() < 1e-300);
    }

    #[test]
    fn ceres_respects_budget() {
        let ctx = BaselineCtx::new();
        let mut x = CeresAffine::from_input(0.5, 8, &ctx);
        let y = CeresAffine::from_input(0.3, 8, &ctx);
        for _ in 0..30 {
            x = x.mul(&y, &ctx);
            assert!(x.n_symbols() <= 8, "budget violated: {}", x.n_symbols());
        }
    }

    #[test]
    fn ceres_soundness_chain() {
        let ctx = BaselineCtx::new();
        let mut x = CeresAffine::from_input(0.7, 6, &ctx);
        let y = CeresAffine::from_input(1.1, 6, &ctx);
        let mut exact = Dd::from(0.7);
        for _ in 0..25 {
            x = x.mul(&y, &ctx);
            exact = exact * Dd::from(1.1);
            assert!(contains(x.range(), exact));
        }
    }

    #[test]
    fn ceres_larger_k_is_at_least_as_accurate() {
        let run = |k: usize| {
            let ctx = BaselineCtx::new();
            let x = CeresAffine::from_input(0.9, k, &ctx);
            let y = CeresAffine::from_input(1.05, k, &ctx);
            let mut a = x.clone();
            let mut b = y.clone();
            for _ in 0..15 {
                let t = a.mul(&b, &ctx);
                b = a.sub(&t, &ctx);
                a = t;
            }
            a.acc_bits()
        };
        assert!(run(16) >= run(2) - 1.0);
    }
}
