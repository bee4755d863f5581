//! Numeric domains the virtual machine can execute a program under.
//!
//! A [`Domain`] packages one way of evaluating floating-point operations:
//! the unsound original semantics, sound interval arithmetic (the IGen
//! baselines), the affine configurations of SafeGen, or the Yalaa/Ceres
//! library baselines. The bytecode VM ([`mod@crate::exec`]) is generic over
//! the domain, so every accuracy/performance comparison in the evaluation
//! runs the *same* compiled program.

pub use safegen_affine::baselines::CeresCtx;
use safegen_affine::baselines::{self, Baseline, BaselineCtx, CeresAffine, YalaaAff0, YalaaAff1};
use safegen_affine::{AaConfig, AaContext, Affine, CenterValue, Protect};
use safegen_fpcore::metrics;
use safegen_interval::{Dd, IntervalDd, IntervalF64};
use std::slice::{from_mut, from_ref};

/// Tag describing a domain choice (for reports and plot labels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DomainKind {
    /// The original, unsound `f64` semantics.
    Unsound,
    /// Interval arithmetic with `f64` endpoints (IGen-f64).
    IntervalF64,
    /// Interval arithmetic with double-double endpoints (IGen-dd).
    IntervalDd,
    /// Affine arithmetic, `f64` center (`f64a-…`).
    AffineF64,
    /// Affine arithmetic, double-double center (`dda-…`).
    AffineDd,
    /// Affine arithmetic, `f32` center (`f32a-…`).
    AffineF32,
    /// Yalaa `aff0` (full AA) baseline.
    YalaaAff0,
    /// Yalaa `aff1` (input symbols only) baseline.
    YalaaAff1,
    /// Ceres `AffineFloat` baseline.
    Ceres,
}

/// Binary floating-point operation selector for the column kernels
/// ([`Domain::bin_kernel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpBinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// `fmin`.
    Min,
    /// `fmax`.
    Max,
}

/// Unary floating-point operation selector for the column kernels
/// ([`Domain::un_kernel`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpUnOp {
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Negation.
    Neg,
}

/// One numeric evaluation domain.
///
/// Every operation writes its result into a value the caller owns
/// (destination-passing, like the paper's C kernels), so a domain that
/// keeps heap storage can reuse it. `protect` carries the symbol ids a
/// `#pragma safegen prioritize(v)` shields for this operation; domains
/// without symbol fusion ignore it.
pub trait Domain: Sized + Clone {
    /// Shared evaluation state (symbol allocators etc.).
    type Ctx;

    /// A fresh context for one run. Only the affine domains read `aa`
    /// (Ceres takes its symbol budget `k`).
    fn context(aa: &AaConfig) -> Self::Ctx;

    /// A source constant (exact if integral, else `± 1 ulp`).
    fn constant(x: f64, cx: &Self::Ctx) -> Self;
    /// A sound enclosure of the raw hull `[lo, hi]` (±∞ endpoints and NaN
    /// allowed) — the materialization hook the fixpoint engine uses to
    /// rebuild loop-carried values from widened interval hulls. Domains
    /// that cannot represent an externally-imposed range return `None`
    /// (the unsound domain), which disables fixpoint solving for that
    /// configuration and falls back to concrete execution.
    fn from_range(lo: f64, hi: f64, cx: &Self::Ctx) -> Option<Self> {
        let _ = (lo, hi, cx);
        None
    }

    /// Writes `op(a, b)` into `out`, reusing `out`'s storage where the
    /// domain keeps any. `protect` is ignored by `Min`/`Max`. The result
    /// does not depend on what `out` held before.
    fn bin_into(op: FpBinOp, a: &Self, b: &Self, cx: &Self::Ctx, protect: &[u64], out: &mut Self);

    /// Unary counterpart of [`Domain::bin_into`]; `protect` is used by
    /// `Sqrt` only.
    fn un_into(op: FpUnOp, a: &Self, cx: &Self::Ctx, protect: &[u64], out: &mut Self);

    /// [`Domain::constant`], written into `out` like [`Domain::bin_into`].
    fn constant_into(x: f64, cx: &Self::Ctx, out: &mut Self) {
        *out = Self::constant(x, cx);
    }

    /// An input value `x ± 1 ulp(x)` (the evaluation input model),
    /// written into `out` like [`Domain::bin_into`].
    fn from_input_into(x: f64, cx: &Self::Ctx, out: &mut Self);

    /// Sound enclosing range (degenerate for the unsound domain).
    fn range(&self) -> (f64, f64);
    /// Central/representative value, for undecided branches.
    fn center(&self) -> f64;
    /// Certified bits on the `f64` grid (paper eq. 12).
    fn acc_bits(&self) -> f64 {
        let (lo, hi) = self.range();
        metrics::acc_bits(lo, hi, metrics::F64_MANTISSA_BITS)
    }
    /// `a < b`: `Some` when soundly decided, `None` when the enclosures
    /// overlap.
    fn try_lt(&self, rhs: &Self) -> Option<bool> {
        let (alo, ahi) = self.range();
        let (blo, bhi) = rhs.range();
        if ahi < blo {
            Some(true)
        } else if alo >= bhi {
            Some(false)
        } else {
            None
        }
    }
    /// The ids a `#pragma safegen prioritize` on this value protects,
    /// written into `out` (reusing its buffer). The set is capped so the
    /// protection cannot pin the entire budget (which would force fusion
    /// onto the other operand's symbols and lose accuracy); empty for
    /// symbol-free domains.
    fn protect_ids_into(&self, _cx: &Self::Ctx, out: &mut Vec<u64>) {
        out.clear();
    }

    /// Lowers the symbol budget for the next operation (variable-capacity
    /// extension); a no-op for domains without bounded symbol sets.
    fn set_capacity(_cx: &Self::Ctx, _k: usize) {}

    /// Restores the configured symbol budget.
    fn reset_capacity(_cx: &Self::Ctx) {}

    /// Error symbols the context has allocated so far; `0` for domains
    /// without a symbol allocator. Allocation is monotone, so the VM's
    /// tracer maps symbol-id *ranges* back to the instruction that
    /// allocated them (the basis of the error-provenance profiler).
    fn symbols_allocated(_cx: &Self::Ctx) -> u64 {
        0
    }

    /// `(fusion events, condensations)` the context has recorded so far
    /// (see `safegen_affine::AaCounters`); `(0, 0)` for fusion-free
    /// domains.
    fn fusion_counters(_cx: &Self::Ctx) -> (u64, u64) {
        (0, 0)
    }

    /// The `(symbol id, coefficient)` noise terms of this value — the raw
    /// material of error attribution. Empty for non-affine domains.
    fn noise_terms(&self) -> Vec<(u64, f64)> {
        Vec::new()
    }

    /// Accumulated noise not tied to any symbol (dedicated-noise modes).
    fn uncorrelated_noise(&self) -> f64 {
        0.0
    }

    /// Accelerated column kernel for the lane-major VM: writes
    /// `op(a[l], b[l])` to `out[l]` for every lane and returns `true`,
    /// or returns `false` when the domain has no kernel for `op` (the
    /// VM then applies the scalar operation lane by lane). `out` is the
    /// destination register column itself (`out.len() == a.len() ==
    /// b.len()`; the VM resolves aliasing before the call), so a kernel
    /// must either fill `out` completely or return `false` without
    /// writing anything. A kernel MUST return results bit-identical to
    /// the scalar operation — the cheap domains achieve the speedup
    /// through hardware-FMA/SIMD code paths whose results IEEE 754 pins
    /// down exactly (`safegen_interval::cols`).
    ///
    /// Only called on operations without a pragma (an operation that
    /// carries one takes the per-lane path), so kernels never see a
    /// protect set or a capacity.
    fn bin_kernel(
        _op: FpBinOp,
        _a: &[Self],
        _b: &[Self],
        _out: &mut [Self],
        _cxs: &[Self::Ctx],
    ) -> bool {
        false
    }

    /// Unary counterpart of [`Domain::bin_kernel`].
    fn un_kernel(_op: FpUnOp, _a: &[Self], _out: &mut [Self], _cxs: &[Self::Ctx]) -> bool {
        false
    }
}

// ---------------------------------------------------------------------------
// Unsound f64 (the original program)
// ---------------------------------------------------------------------------

/// The original unsound `f64` semantics — the baseline every slowdown in
/// the paper is measured against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UnsoundF64(pub f64);

impl Domain for UnsoundF64 {
    type Ctx = ();

    fn context(_: &AaConfig) {}

    #[inline]
    fn constant(x: f64, _: &()) -> Self {
        UnsoundF64(x)
    }
    #[inline]
    fn from_input_into(x: f64, _: &(), out: &mut Self) {
        *out = UnsoundF64(x);
    }
    #[inline]
    fn bin_into(op: FpBinOp, a: &Self, b: &Self, _: &(), _: &[u64], out: &mut Self) {
        *out = UnsoundF64(match op {
            FpBinOp::Add => a.0 + b.0,
            FpBinOp::Sub => a.0 - b.0,
            FpBinOp::Mul => a.0 * b.0,
            FpBinOp::Div => a.0 / b.0,
            FpBinOp::Min => a.0.min(b.0),
            FpBinOp::Max => a.0.max(b.0),
        });
    }
    #[inline]
    fn un_into(op: FpUnOp, a: &Self, _: &(), _: &[u64], out: &mut Self) {
        *out = UnsoundF64(match op {
            FpUnOp::Sqrt => a.0.sqrt(),
            FpUnOp::Abs => a.0.abs(),
            FpUnOp::Neg => -a.0,
        });
    }
    #[inline]
    fn range(&self) -> (f64, f64) {
        (self.0, self.0)
    }
    #[inline]
    fn center(&self) -> f64 {
        self.0
    }
    #[inline]
    fn try_lt(&self, rhs: &Self) -> Option<bool> {
        Some(self.0 < rhs.0)
    }
    fn bin_kernel(op: FpBinOp, a: &[Self], b: &[Self], out: &mut [Self], _: &[()]) -> bool {
        // Lock-step slice loops (not `extend`) so the bodies vectorize.
        let o = out;
        match op {
            FpBinOp::Add => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0 + y.0);
                }
            }
            FpBinOp::Sub => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0 - y.0);
                }
            }
            FpBinOp::Mul => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0 * y.0);
                }
            }
            FpBinOp::Div => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0 / y.0);
                }
            }
            FpBinOp::Min => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0.min(y.0));
                }
            }
            FpBinOp::Max => {
                for ((o, x), y) in o.iter_mut().zip(a).zip(b) {
                    *o = UnsoundF64(x.0.max(y.0));
                }
            }
        }
        true
    }
    fn un_kernel(op: FpUnOp, a: &[Self], out: &mut [Self], _: &[()]) -> bool {
        let o = out;
        match op {
            FpUnOp::Sqrt => {
                for (o, x) in o.iter_mut().zip(a) {
                    *o = UnsoundF64(x.0.sqrt());
                }
            }
            FpUnOp::Abs => {
                for (o, x) in o.iter_mut().zip(a) {
                    *o = UnsoundF64(x.0.abs());
                }
            }
            FpUnOp::Neg => {
                for (o, x) in o.iter_mut().zip(a) {
                    *o = UnsoundF64(-x.0);
                }
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Interval domains (IGen baselines)
// ---------------------------------------------------------------------------

impl Domain for IntervalF64 {
    type Ctx = ();

    fn context(_: &AaConfig) {}

    fn from_input_into(x: f64, _: &(), out: &mut Self) {
        *out = IntervalF64::constant(x);
    }
    fn constant(x: f64, _: &()) -> Self {
        if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
            IntervalF64::point(x)
        } else {
            IntervalF64::constant(x)
        }
    }
    fn from_range(lo: f64, hi: f64, _: &()) -> Option<Self> {
        Some(if lo.is_nan() || hi.is_nan() || lo > hi {
            IntervalF64::ENTIRE
        } else {
            IntervalF64::new(lo, hi)
        })
    }
    /// The column kernel on one lane: a single point runs the same body
    /// inside the same FMA region as a lane group.
    #[inline]
    fn bin_into(op: FpBinOp, a: &Self, b: &Self, _: &(), _: &[u64], out: &mut Self) {
        Self::bin_kernel(op, from_ref(a), from_ref(b), from_mut(out), &[]);
    }
    #[inline]
    fn un_into(op: FpUnOp, a: &Self, _: &(), _: &[u64], out: &mut Self) {
        Self::un_kernel(op, from_ref(a), from_mut(out), &[]);
    }
    #[inline]
    fn range(&self) -> (f64, f64) {
        (self.lo(), self.hi())
    }
    #[inline]
    fn center(&self) -> f64 {
        self.mid()
    }
    fn bin_kernel(op: FpBinOp, a: &[Self], b: &[Self], out: &mut [Self], _: &[()]) -> bool {
        use safegen_interval::cols;
        match op {
            FpBinOp::Add => cols::add_cols_f64(a, b, out),
            FpBinOp::Sub => cols::sub_cols_f64(a, b, out),
            FpBinOp::Mul => cols::mul_cols_f64(a, b, out),
            FpBinOp::Div => cols::div_cols_f64(a, b, out),
            FpBinOp::Min => cols::min_cols_f64(a, b, out),
            FpBinOp::Max => cols::max_cols_f64(a, b, out),
        }
        true
    }
    fn un_kernel(op: FpUnOp, a: &[Self], out: &mut [Self], _: &[()]) -> bool {
        use safegen_interval::cols;
        match op {
            FpUnOp::Sqrt => cols::sqrt_cols_f64(a, out),
            FpUnOp::Abs => cols::abs_cols_f64(a, out),
            FpUnOp::Neg => cols::neg_cols_f64(a, out),
        }
        true
    }
}

impl Domain for IntervalDd {
    type Ctx = ();

    fn context(_: &AaConfig) {}

    fn from_input_into(x: f64, _: &(), out: &mut Self) {
        *out = IntervalDd::constant(x);
    }
    fn constant(x: f64, _: &()) -> Self {
        if x.fract() == 0.0 && x.abs() < 2f64.powi(53) {
            IntervalDd::point(Dd::from(x))
        } else {
            IntervalDd::constant(x)
        }
    }
    fn from_range(lo: f64, hi: f64, _: &()) -> Option<Self> {
        Some(if lo.is_nan() || hi.is_nan() || lo > hi {
            IntervalDd::entire()
        } else {
            IntervalDd::new(Dd::from(lo), Dd::from(hi))
        })
    }
    /// The column kernel on one lane, as for [`IntervalF64`].
    #[inline]
    fn bin_into(op: FpBinOp, a: &Self, b: &Self, _: &(), _: &[u64], out: &mut Self) {
        Self::bin_kernel(op, from_ref(a), from_ref(b), from_mut(out), &[]);
    }
    #[inline]
    fn un_into(op: FpUnOp, a: &Self, _: &(), _: &[u64], out: &mut Self) {
        Self::un_kernel(op, from_ref(a), from_mut(out), &[]);
    }
    fn range(&self) -> (f64, f64) {
        // Outward-rounded f64 projection.
        let lo = if Dd::from(self.lo().hi()) <= self.lo() {
            self.lo().hi()
        } else {
            self.lo().hi().next_down()
        };
        let hi = if Dd::from(self.hi().hi()) >= self.hi() {
            self.hi().hi()
        } else {
            self.hi().hi().next_up()
        };
        (lo, hi)
    }
    #[inline]
    fn center(&self) -> f64 {
        0.5 * (self.lo().hi() + self.hi().hi())
    }
    fn bin_kernel(op: FpBinOp, a: &[Self], b: &[Self], out: &mut [Self], _: &[()]) -> bool {
        use safegen_interval::cols;
        match op {
            FpBinOp::Add => cols::add_cols_dd(a, b, out),
            FpBinOp::Sub => cols::sub_cols_dd(a, b, out),
            FpBinOp::Mul => cols::mul_cols_dd(a, b, out),
            FpBinOp::Div => cols::div_cols_dd(a, b, out),
            FpBinOp::Min => cols::min_cols_dd(a, b, out),
            FpBinOp::Max => cols::max_cols_dd(a, b, out),
        }
        true
    }
    fn un_kernel(op: FpUnOp, a: &[Self], out: &mut [Self], _: &[()]) -> bool {
        use safegen_interval::cols;
        match op {
            FpUnOp::Sqrt => cols::sqrt_cols_dd(a, out),
            FpUnOp::Abs => cols::abs_cols_dd(a, out),
            FpUnOp::Neg => cols::neg_cols_dd(a, out),
        }
        true
    }
}

// ---------------------------------------------------------------------------
// Affine domains (SafeGen configurations)
// ---------------------------------------------------------------------------

impl<C: CenterValue> Domain for Affine<C> {
    type Ctx = AaContext;

    fn context(aa: &AaConfig) -> AaContext {
        AaContext::new(*aa)
    }

    fn constant(x: f64, cx: &AaContext) -> Self {
        Affine::constant(x, cx)
    }
    fn from_range(lo: f64, hi: f64, cx: &AaContext) -> Option<Self> {
        Some(Affine::from_range_outward(lo, hi, cx))
    }
    #[inline]
    fn bin_into(op: FpBinOp, a: &Self, b: &Self, cx: &AaContext, protect: &[u64], out: &mut Self) {
        let p = prot(protect);
        match op {
            FpBinOp::Add => a.add_into(b, cx, p, out),
            FpBinOp::Sub => a.sub_into(b, cx, p, out),
            FpBinOp::Mul => a.mul_into(b, cx, p, out),
            FpBinOp::Div => a.div_into(b, cx, p, out),
            FpBinOp::Min => a.min_into(b, cx, out),
            FpBinOp::Max => a.max_into(b, cx, out),
        }
    }
    #[inline]
    fn un_into(op: FpUnOp, a: &Self, cx: &AaContext, protect: &[u64], out: &mut Self) {
        match op {
            FpUnOp::Sqrt => a.sqrt_into(cx, prot(protect), out),
            FpUnOp::Abs => a.abs_into(cx, out),
            FpUnOp::Neg => a.neg_into(out),
        }
    }
    #[inline]
    fn constant_into(x: f64, cx: &AaContext, out: &mut Self) {
        Affine::constant_into(x, cx, out);
    }
    #[inline]
    fn from_input_into(x: f64, cx: &AaContext, out: &mut Self) {
        Affine::from_input_into(x, cx, out);
    }
    #[inline]
    fn range(&self) -> (f64, f64) {
        Affine::range(self)
    }
    #[inline]
    fn center(&self) -> f64 {
        self.center_f64()
    }
    #[inline]
    fn protect_ids_into(&self, cx: &AaContext, out: &mut Vec<u64>) {
        Affine::protect_ids_into(self, protect_limit(cx), out);
    }
    #[inline]
    fn set_capacity(cx: &AaContext, k: usize) {
        cx.set_op_capacity(k);
    }
    #[inline]
    fn reset_capacity(cx: &AaContext) {
        cx.reset_op_capacity();
    }
    #[inline]
    fn symbols_allocated(cx: &AaContext) -> u64 {
        cx.symbols_allocated()
    }
    #[inline]
    fn fusion_counters(cx: &AaContext) -> (u64, u64) {
        let c = cx.counters();
        (c.fusion_events, c.condensations)
    }
    fn noise_terms(&self) -> Vec<(u64, f64)> {
        self.terms().iter().map(|t| (t.id, t.coeff)).collect()
    }
    #[inline]
    fn uncorrelated_noise(&self) -> f64 {
        self.acc_noise()
    }
}

/// How many ids a prioritized variable protects: at most half the budget,
/// so the strongest correlations of the prioritized variable survive
/// while fusion keeps enough freedom to drop genuinely small terms.
#[inline]
fn protect_limit(cx: &AaContext) -> usize {
    (cx.config().k / 2).max(1)
}

#[inline]
fn prot(ids: &[u64]) -> Protect<'_> {
    if ids.is_empty() {
        Protect::None
    } else {
        Protect::Ids(ids)
    }
}

// ---------------------------------------------------------------------------
// Library baselines (Fig. 9)
// ---------------------------------------------------------------------------

/// The `Domain` methods every library baseline shares: `+ - *` natively,
/// the rest through the interval fallbacks of [`safegen_affine::baselines`].
macro_rules! baseline_ops {
    () => {
        fn from_range(lo: f64, hi: f64, cx: &Self::Ctx) -> Option<Self> {
            Some(baselines::hull(lo, hi, cx))
        }
        fn bin_into(op: FpBinOp, a: &Self, b: &Self, cx: &Self::Ctx, _: &[u64], out: &mut Self) {
            *out = match op {
                FpBinOp::Add => Baseline::add(a, b, cx),
                FpBinOp::Sub => Baseline::sub(a, b, cx),
                FpBinOp::Mul => Baseline::mul(a, b, cx),
                FpBinOp::Div => baselines::div(a, b, cx),
                FpBinOp::Min => baselines::min(a, b, cx),
                FpBinOp::Max => baselines::max(a, b, cx),
            };
        }
        fn un_into(op: FpUnOp, a: &Self, cx: &Self::Ctx, _: &[u64], out: &mut Self) {
            *out = match op {
                FpUnOp::Sqrt => baselines::sqrt(a, cx),
                FpUnOp::Neg => Baseline::neg(a),
                FpUnOp::Abs => baselines::abs(a, cx),
            };
        }
        fn range(&self) -> (f64, f64) {
            Baseline::range(self)
        }
        fn center(&self) -> f64 {
            let (lo, hi) = Baseline::range(self);
            0.5 * (lo + hi)
        }
    };
}

impl Domain for YalaaAff0 {
    type Ctx = BaselineCtx;

    fn context(_: &AaConfig) -> BaselineCtx {
        BaselineCtx::new()
    }
    fn constant(x: f64, cx: &BaselineCtx) -> Self {
        YalaaAff0::constant(x, cx)
    }
    fn from_input_into(x: f64, cx: &BaselineCtx, out: &mut Self) {
        *out = YalaaAff0::from_input(x, cx);
    }
    baseline_ops!();
}

impl Domain for YalaaAff1 {
    type Ctx = BaselineCtx;

    fn context(_: &AaConfig) -> BaselineCtx {
        BaselineCtx::new()
    }
    fn constant(x: f64, cx: &BaselineCtx) -> Self {
        YalaaAff1::constant(x, cx)
    }
    fn from_input_into(x: f64, cx: &BaselineCtx, out: &mut Self) {
        *out = YalaaAff1::from_input(x, cx);
    }
    baseline_ops!();
}

impl Domain for CeresAffine {
    type Ctx = CeresCtx;

    fn context(aa: &AaConfig) -> CeresCtx {
        CeresCtx {
            ctx: BaselineCtx::new(),
            k: aa.k,
        }
    }
    fn constant(x: f64, cx: &CeresCtx) -> Self {
        CeresAffine::constant(x, cx.k, &cx.ctx)
    }
    fn from_input_into(x: f64, cx: &CeresCtx, out: &mut Self) {
        *out = CeresAffine::from_input(x, cx.k, &cx.ctx);
    }
    baseline_ops!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use safegen_affine::AaConfig;

    fn input<D: Domain>(x: f64, cx: &D::Ctx) -> D {
        let mut out = D::constant(0.0, cx);
        D::from_input_into(x, cx, &mut out);
        out
    }

    fn bin<D: Domain>(op: FpBinOp, a: &D, b: &D, cx: &D::Ctx, protect: &[u64]) -> D {
        let mut out = a.clone();
        D::bin_into(op, a, b, cx, protect, &mut out);
        out
    }

    #[test]
    fn unsound_matches_native() {
        let cx = ();
        let a: UnsoundF64 = input(0.1, &cx);
        let b: UnsoundF64 = input(0.2, &cx);
        let s = bin(FpBinOp::Add, &a, &b, &cx, &[]);
        assert_eq!(s.0, 0.1 + 0.2);
        assert_eq!(s.acc_bits(), 53.0); // degenerate (and unsound!) claim
        assert_eq!(s.try_lt(&a), Some(false));
    }

    #[test]
    fn interval_domain_sound() {
        let cx = ();
        let a: IntervalF64 = input(0.1, &cx);
        let b: IntervalF64 = input(0.2, &cx);
        let s = bin(FpBinOp::Add, &a, &b, &cx, &[]);
        let (lo, hi) = Domain::range(&s);
        assert!(lo <= 0.1 + 0.2 && 0.1 + 0.2 <= hi);
    }

    #[test]
    fn affine_domain_protection_plumbed() {
        let cx = AaContext::new(AaConfig::new(4));
        let a: Affine<f64> = input(1.0, &cx);
        let mut ids = vec![u64::MAX; 3];
        Domain::protect_ids_into(&a, &cx, &mut ids);
        assert_eq!(ids.len(), 1);
        let b: Affine<f64> = input(2.0, &cx);
        let s = bin(FpBinOp::Mul, &a, &b, &cx, &ids);
        let (lo, hi) = Domain::range(&s);
        assert!(lo <= 2.0 && 2.0 <= hi);
    }

    #[test]
    fn symbol_free_domains_protect_nothing() {
        let mut ids = vec![7, 8];
        Domain::protect_ids_into(&IntervalF64::point(1.0), &(), &mut ids);
        assert!(ids.is_empty());
    }

    #[test]
    fn dd_interval_domain_range_outward() {
        let cx = ();
        let a: IntervalDd = input(0.1, &cx);
        let b: IntervalDd = input(0.3, &cx);
        let q = bin(FpBinOp::Div, &a, &b, &cx, &[]);
        let (lo, hi) = Domain::range(&q);
        assert!(lo <= 1.0 / 3.0 && 1.0 / 3.0 <= hi);
        assert!(lo < hi);
    }

    #[test]
    fn baseline_domains_sound_on_basics() {
        let cx = BaselineCtx::new();
        let a: YalaaAff0 = input(0.5, &cx);
        let b: YalaaAff0 = input(0.25, &cx);
        let p = bin(FpBinOp::Mul, &a, &b, &cx, &[]);
        let (lo, hi) = Domain::range(&p);
        assert!(lo <= 0.125 && 0.125 <= hi);

        let ccx = CeresCtx {
            ctx: BaselineCtx::new(),
            k: 8,
        };
        let a: CeresAffine = input(0.5, &ccx);
        let s = bin(FpBinOp::Sub, &a, &a, &ccx, &[]);
        let (lo, hi) = Domain::range(&s);
        assert!(lo <= 0.0 && 0.0 <= hi);
        assert!(hi - lo < 1e-15);
    }

    /// A divisor or radicand straddling 0 gives aff0 `0 ± ∞` and
    /// aff1/Ceres `NaN ± ∞`.
    #[test]
    fn baselines_keep_their_undefined_results() {
        fn undefined<D: Domain>(cx: &D::Ctx) -> [(f64, f64); 2] {
            let a: D = input(1.0, cx);
            let z = D::from_range(-1.0, 1.0, cx).unwrap();
            let mut r = a.clone();
            D::un_into(FpUnOp::Sqrt, &z, cx, &[], &mut r);
            let q = bin(FpBinOp::Div, &a, &z, cx, &[]);
            [q, r].map(|v| Domain::range(&v))
        }
        let cx = BaselineCtx::new();
        let inf = (f64::NEG_INFINITY, f64::INFINITY);
        assert_eq!(undefined::<YalaaAff0>(&cx), [inf, inf]);
        let nan = |rs: [(f64, f64); 2]| rs.iter().all(|(lo, hi)| lo.is_nan() && hi.is_nan());
        assert!(nan(undefined::<YalaaAff1>(&cx)));
        let ccx = CeresCtx { ctx: cx, k: 8 };
        assert!(nan(undefined::<CeresAffine>(&ccx)));
    }

    #[test]
    fn yalaa1_division_falls_back_to_interval() {
        let cx = BaselineCtx::new();
        let a: YalaaAff1 = input(1.0, &cx);
        let b: YalaaAff1 = input(4.0, &cx);
        let q = bin(FpBinOp::Div, &a, &b, &cx, &[]);
        let (lo, hi) = Domain::range(&q);
        assert!(lo <= 0.25 && 0.25 <= hi);
    }

    #[test]
    fn min_max_decided_and_hull() {
        let cx = AaContext::new(AaConfig::new(8));
        let a = Affine::<f64>::from_interval(0.0, 1.0, &cx);
        let b = Affine::<f64>::from_interval(2.0, 3.0, &cx);
        let m = bin(FpBinOp::Min, &a, &b, &cx, &[]);
        assert_eq!(Domain::range(&m), Domain::range(&a));
        let mx = bin(FpBinOp::Max, &a, &b, &cx, &[]);
        assert_eq!(Domain::range(&mx), Domain::range(&b));
    }
}
