//! The AVX2 body of the direct-mapped merge kernels (paper Sec. V,
//! "Arithmetic cost" and the `..v` configurations).
//!
//! The direct-mapped layout makes the symbol loop of an affine operation a
//! pure element-wise pass, which the paper vectorizes with AVX2
//! intrinsics. So does this module: four slots per block, each block one
//! straight-line sequence of `core::arch` intrinsics compiled with
//! `#[target_feature(enable = "avx2,fma")]` and picked at run time when
//! the CPU has both features (the `..v` configurations; `..n` runs the
//! scalar reference body in the `direct` module).
//!
//! The block handles all four slot cases — empty, one side, same symbol,
//! conflict — at once, as lane masks and blends:
//!
//! * the error-free transformations and the guard ladders of
//!   `add_with_err` / `mul_with_err` (overflow → ∞, deep underflow →
//!   `ulp(p)`, a product underflowing to zero → the smallest subnormal);
//! * conflict resolution: protection from per-operation protect masks,
//!   then the policy (magnitude compare for SP/MP, unsigned id compare
//!   for OP);
//! * round-off: each lane's error terms go into that lane's partial with
//!   round-to-nearest adds, exactly as the scalar body pushes slot `s`
//!   into partial `s mod 4`.
//!
//! Every operation is the one the scalar body performs, in the same
//! order, so the two bodies give the same bits (pinned by the tests
//! below). Slots past the last full block run the scalar body.
//!
//! This vectorizes *within* one affine operation (across symbol slots).
//! The orthogonal axis — vectorizing across input points — is the
//! lane-major batch interpreter (`safegen::run_lanes_on`, DESIGN.md
//! § 10); its column kernels for the interval domains live in
//! `safegen-interval::cols`.

use crate::config::AaContext;
use crate::direct::{RoundOff, Rule, Slots};

/// Lane width of the vector body (and the number of round-off partials).
pub const LANES: usize = 4;

/// Proof that the CPU has AVX2 and FMA: only [`Avx2::detect`] makes one,
/// and the AVX2 body runs only with one in hand.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx2(());

impl Avx2 {
    /// The token, when the CPU has AVX2 and FMA.
    pub(crate) fn detect() -> Option<Avx2> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            return Some(Avx2(()));
        }
        None
    }
}

#[cfg(test)]
thread_local! {
    /// Blocks run by the AVX2 body on this thread (tests check it ran).
    static AVX2_BLOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Linear merge `a ± b` of slots `start..end` (one chunk) with the AVX2
/// body; returns the number of conflicts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn linear(
    _: Avx2,
    x: &mut Slots<'_>,
    start: usize,
    end: usize,
    sign_b: f64,
    rule: Rule,
    ctx: &AaContext,
    acc: &mut RoundOff,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the token proves the CPU has AVX2 and FMA.
    unsafe {
        avx2::linear(x, start, end, sign_b, rule, ctx, acc)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!()
}

/// Multiplication merge of slots `start..end` (one chunk) with the AVX2
/// body, for centers `a0`, `b0` that are exact `f64`s; returns the number
/// of conflicts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mul(
    _: Avx2,
    x: &mut Slots<'_>,
    start: usize,
    end: usize,
    a0: f64,
    b0: f64,
    rule: Rule,
    ctx: &AaContext,
    acc: &mut RoundOff,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the token proves the CPU has AVX2 and FMA.
    unsafe {
        avx2::mul(x, start, end, a0, b0, rule, ctx, acc)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!()
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::LANES;
    use crate::config::{AaContext, Fusion};
    use crate::direct::{linear_slot_ref, mul_slot_ref, RoundOff, Rule, Slots};
    use std::arch::x86_64::*;

    /// `2^-960`, the bound below which `mul_with_err` stops trusting the
    /// FMA residual (`fpcore::round::EFT_GUARD`).
    const EFT_GUARD: f64 = f64::from_bits(0x03F0_0000_0000_0000);

    /// The four lanes of one block.
    struct Block {
        ia: __m256i,
        ib: __m256i,
        a_has: __m256d,
        b_has: __m256d,
        /// Both sides hold the same symbol (and are occupied).
        eq: __m256d,
        conflict: __m256d,
    }

    /// Panics unless slots `..end` exist in all four arrays: the
    /// condition every load and store of a block relies on.
    fn check_bounds(x: &Slots<'_>, end: usize) {
        let k = x.a_ids.len();
        assert!(
            end <= k && x.a_coeffs.len() == k && x.b_ids.len() == k && x.b_coeffs.len() == k,
            "slot arrays out of shape"
        );
    }

    /// The ids of slots `s .. s + 4` and their slot cases.
    ///
    /// # Safety
    ///
    /// Slots `s .. s + 4` must exist in `x`'s arrays.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load(x: &Slots<'_>, s: usize) -> Block {
        let none = _mm256_set1_epi64x(-1);
        // SAFETY: slots `s .. s + 4` exist (the caller's condition).
        let (ia, ib) = unsafe {
            (
                _mm256_loadu_si256(x.a_ids.as_ptr().add(s).cast()),
                _mm256_loadu_si256(x.b_ids.as_ptr().add(s).cast()),
            )
        };
        let all = _mm256_castsi256_pd(none);
        let a_has = _mm256_xor_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(ia, none)), all);
        let b_has = _mm256_xor_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(ib, none)), all);
        let eq = _mm256_and_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(ia, ib)), a_has);
        let conflict = _mm256_andnot_pd(eq, _mm256_and_pd(a_has, b_has));
        Block {
            ia,
            ib,
            a_has,
            b_has,
            eq,
            conflict,
        }
    }

    /// The coefficients of slots `s .. s + 4` of `a` and of `b`.
    ///
    /// # Safety
    ///
    /// Slots `s .. s + 4` must exist in `x`'s arrays.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn coeffs(x: &Slots<'_>, s: usize) -> (__m256d, __m256d) {
        // SAFETY: slots `s .. s + 4` exist (the caller's condition).
        unsafe {
            (
                _mm256_loadu_pd(x.a_coeffs.as_ptr().add(s)),
                _mm256_loadu_pd(x.b_coeffs.as_ptr().add(s)),
            )
        }
    }

    /// Writes `(id, coeff)` to the lanes of slots `s .. s + 4` in `keep`,
    /// the empty slot to the others.
    ///
    /// # Safety
    ///
    /// Slots `s .. s + 4` must exist in `x`'s arrays.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn store(x: &mut Slots<'_>, s: usize, id: __m256i, c: __m256d, keep: __m256d) {
        let id = _mm256_blendv_epi8(_mm256_set1_epi64x(-1), id, _mm256_castpd_si256(keep));
        // SAFETY: slots `s .. s + 4` exist (the caller's condition).
        unsafe {
            _mm256_storeu_si256(x.b_ids.as_mut_ptr().add(s).cast(), id);
            _mm256_storeu_pd(x.b_coeffs.as_mut_ptr().add(s), _mm256_and_pd(c, keep));
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn abs(v: __m256d) -> __m256d {
        _mm256_andnot_pd(_mm256_set1_pd(-0.0), v)
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn is_inf(v: __m256d) -> __m256d {
        _mm256_cmp_pd::<_CMP_EQ_OQ>(abs(v), _mm256_set1_pd(f64::INFINITY))
    }

    /// Lanes where an infinite result `r = a ∘ b` came from finite
    /// operands. `r` is never infinite when an operand is NaN, so the
    /// `max` needs no NaN care.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn overflowed(r: __m256d, a: __m256d, b: __m256d) -> __m256d {
        let finite = _mm256_cmp_pd::<_CMP_LT_OQ>(
            _mm256_max_pd(abs(a), abs(b)),
            _mm256_set1_pd(f64::INFINITY),
        );
        _mm256_and_pd(is_inf(r), finite)
    }

    /// Lane mask from bits `bit .. bit + 4` of `mask`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn lane_bits(mask: u64, bit: usize) -> __m256d {
        let sel = _mm256_set_epi64x(8, 4, 2, 1);
        let bits = _mm256_set1_epi64x(((mask >> bit) & 0xF) as i64);
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(_mm256_and_si256(bits, sel), sel))
    }

    /// `add_with_err`: the TwoSum and its error magnitude, `∞` when finite
    /// operands overflow.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn add_with_err(a: __m256d, b: __m256d) -> (__m256d, __m256d) {
        let s = _mm256_add_pd(a, b);
        let bb = _mm256_sub_pd(s, a);
        let e = _mm256_add_pd(_mm256_sub_pd(a, _mm256_sub_pd(s, bb)), _mm256_sub_pd(b, bb));
        let ovf = overflowed(s, a, b);
        (
            s,
            _mm256_blendv_pd(abs(e), _mm256_set1_pd(f64::INFINITY), ovf),
        )
    }

    /// `mul_with_err`: the TwoProd and its error magnitude, with the same
    /// guard ladder as blends.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn mul_with_err(a: __m256d, b: __m256d) -> (__m256d, __m256d) {
        let zero = _mm256_setzero_pd();
        let p = _mm256_mul_pd(a, b);
        let e = _mm256_fmsub_pd(a, b, p);
        let ap = abs(p);
        let ovf = overflowed(p, a, b);
        // 0 < |p| < 2^-960 (false for NaN): one ulp of p.
        let tiny = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_LT_OQ>(ap, _mm256_set1_pd(EFT_GUARD)),
            _mm256_cmp_pd::<_CMP_NEQ_OQ>(ap, zero),
        );
        let next = _mm256_castsi256_pd(_mm256_add_epi64(
            _mm256_castpd_si256(ap),
            _mm256_set1_epi64x(1),
        ));
        let ulp = _mm256_sub_pd(next, ap);
        // p == 0 from non-zero operands: the smallest subnormal.
        let uflow = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_EQ_OQ>(p, zero),
            _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_NEQ_UQ>(a, zero),
                _mm256_cmp_pd::<_CMP_NEQ_UQ>(b, zero),
            ),
        );
        let mut err = _mm256_blendv_pd(abs(e), _mm256_set1_pd(f64::INFINITY), ovf);
        err = _mm256_blendv_pd(err, ulp, tiny);
        err = _mm256_blendv_pd(err, _mm256_set1_pd(f64::MIN_POSITIVE * f64::EPSILON), uflow);
        (p, err)
    }

    /// Lanes whose left candidate (`ia`, `la`) keeps a conflicting slot:
    /// see `Rule::keeps_left`. Meaningful on conflict lanes only.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn keeps_left(rule: Rule, bit: usize, v: &Block, la: __m256d, rb: __m256d) -> __m256d {
        let by_policy = match rule.policy {
            Fusion::Smallest | Fusion::MeanThreshold => {
                _mm256_cmp_pd::<_CMP_GE_OQ>(abs(la), abs(rb))
            }
            Fusion::Oldest => {
                // Unsigned `ia > ib`: flip the sign bits, compare signed.
                let flip = _mm256_set1_epi64x(i64::MIN);
                _mm256_castsi256_pd(_mm256_cmpgt_epi64(
                    _mm256_xor_si256(v.ia, flip),
                    _mm256_xor_si256(v.ib, flip),
                ))
            }
            Fusion::Random => unreachable!("random fusion runs the scalar body"),
        };
        if rule.pa | rule.pb == 0 {
            return by_policy;
        }
        let (lp, rp) = (lane_bits(rule.pa, bit), lane_bits(rule.pb, bit));
        _mm256_blendv_pd(by_policy, lp, _mm256_xor_pd(lp, rp))
    }

    /// Lanes where the result takes `a`'s candidate: `a` alone, the same
    /// symbol, or a conflict `a` wins.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn takes_a(v: &Block, left: __m256d) -> __m256d {
        let loses_a = _mm256_andnot_pd(_mm256_or_pd(v.eq, left), v.b_has);
        _mm256_andnot_pd(loses_a, v.a_has)
    }

    /// The last error term of each lane: the sum's error `e` where both
    /// sides hold the same symbol, the magnitude of the fused `loser` on a
    /// conflict, zero elsewhere.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn last_term(v: &Block, e: __m256d, loser: __m256d) -> __m256d {
        _mm256_and_pd(
            _mm256_blendv_pd(abs(loser), e, v.eq),
            _mm256_or_pd(v.eq, v.conflict),
        )
    }

    /// The id of each lane's result candidate.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn pick_id(v: &Block, take_a: __m256d) -> __m256i {
        _mm256_castpd_si256(_mm256_blendv_pd(
            _mm256_castsi256_pd(v.ib),
            _mm256_castsi256_pd(v.ia),
            take_a,
        ))
    }

    /// Adds the error terms `t` to the lane partials and counts the
    /// non-zero ones in `terms`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn push(part: &mut __m256d, terms: &mut __m256i, t: __m256d) {
        *part = _mm256_add_pd(*part, t);
        count(terms, _mm256_cmp_pd::<_CMP_NEQ_UQ>(t, _mm256_setzero_pd()));
    }

    /// Adds one to the lanes of `n` where `mask` is set (all ones is −1).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn count(n: &mut __m256i, mask: __m256d) {
        *n = _mm256_sub_epi64(*n, _mm256_castpd_si256(mask));
    }

    /// The sum of the four lane counts.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn total(n: __m256i) -> u64 {
        let mut lanes = [0u64; LANES];
        // SAFETY: `lanes` is a 32-byte array.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), n) };
        lanes.iter().sum()
    }

    /// The partials of `acc` as one vector.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn partials(acc: &RoundOff) -> __m256d {
        // SAFETY: `acc.lanes` is a 32-byte array.
        unsafe { _mm256_loadu_pd(acc.lanes.as_ptr()) }
    }

    /// Stores the partials `part` and `terms` more non-zero terms in `acc`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    fn finish(acc: &mut RoundOff, part: __m256d, terms: __m256i) {
        // SAFETY: `acc.lanes` is a 32-byte array.
        unsafe { _mm256_storeu_pd(acc.lanes.as_mut_ptr(), part) };
        acc.terms += total(terms);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn linear(
        x: &mut Slots<'_>,
        start: usize,
        end: usize,
        sign_b: f64,
        rule: Rule,
        ctx: &AaContext,
        acc: &mut RoundOff,
    ) -> u64 {
        check_bounds(x, end);
        let mut part = partials(acc);
        let (mut terms, mut conflicts) = (_mm256_setzero_si256(), _mm256_setzero_si256());
        let mut s = start;
        while s + LANES <= end {
            #[cfg(test)]
            super::AVX2_BLOCKS.with(|n| n.set(n.get() + 1));
            // SAFETY: s + 4 ≤ end ≤ the slot count (`check_bounds`).
            let (v, (ca, cb)) = unsafe { (load(x, s), coeffs(x, s)) };
            let cb = _mm256_mul_pd(cb, _mm256_set1_pd(sign_b));
            let (sum, e) = add_with_err(ca, cb);
            let take_a = takes_a(&v, keeps_left(rule, s - rule.base, &v, ca, cb));
            let c = _mm256_blendv_pd(_mm256_blendv_pd(cb, ca, take_a), sum, v.eq);
            // Empty lanes, and same-symbol lanes that cancel to zero, empty.
            let cancelled =
                _mm256_and_pd(v.eq, _mm256_cmp_pd::<_CMP_EQ_OQ>(sum, _mm256_setzero_pd()));
            let keep = _mm256_andnot_pd(cancelled, _mm256_or_pd(v.a_has, v.b_has));
            // SAFETY: as for the loads.
            unsafe { store(x, s, pick_id(&v, take_a), c, keep) };
            let loser = _mm256_blendv_pd(ca, cb, take_a);
            push(&mut part, &mut terms, last_term(&v, e, loser));
            count(&mut conflicts, v.conflict);
            s += LANES;
        }
        finish(acc, part, terms);
        let mut conflicts = total(conflicts);
        for s in s..end {
            conflicts += u64::from(linear_slot_ref(x, s, sign_b, rule, ctx, acc));
        }
        conflicts
    }

    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) fn mul(
        x: &mut Slots<'_>,
        start: usize,
        end: usize,
        a0: f64,
        b0: f64,
        rule: Rule,
        ctx: &AaContext,
        acc: &mut RoundOff,
    ) -> u64 {
        check_bounds(x, end);
        let (a0v, b0v) = (_mm256_set1_pd(a0), _mm256_set1_pd(b0));
        let mut part = partials(acc);
        let (mut terms, mut conflicts) = (_mm256_setzero_si256(), _mm256_setzero_si256());
        let mut s = start;
        while s + LANES <= end {
            #[cfg(test)]
            super::AVX2_BLOCKS.with(|n| n.set(n.get() + 1));
            // SAFETY: s + 4 ≤ end ≤ the slot count (`check_bounds`).
            let (v, (ca, cb)) = unsafe { (load(x, s), coeffs(x, s)) };
            // p1 = b0·aₛ, p2 = a0·bₛ, each only where its side is present.
            let (p1, e1) = mul_with_err(b0v, ca);
            let (p2, e2) = mul_with_err(a0v, cb);
            let (p1, e1) = (_mm256_and_pd(p1, v.a_has), _mm256_and_pd(e1, v.a_has));
            let (p2, e2) = (_mm256_and_pd(p2, v.b_has), _mm256_and_pd(e2, v.b_has));
            let (sum, e3) = add_with_err(p1, p2);
            let take_a = takes_a(&v, keeps_left(rule, s - rule.base, &v, p1, p2));
            let c = _mm256_blendv_pd(_mm256_blendv_pd(p2, p1, take_a), sum, v.eq);
            // A zero result (including every empty lane) empties the slot.
            let keep = _mm256_cmp_pd::<_CMP_NEQ_UQ>(c, _mm256_setzero_pd());
            // SAFETY: as for the loads.
            unsafe { store(x, s, pick_id(&v, take_a), c, keep) };
            let loser = _mm256_blendv_pd(p1, p2, take_a);
            push(&mut part, &mut terms, e1);
            push(&mut part, &mut terms, e2);
            push(&mut part, &mut terms, last_term(&v, e3, loser));
            count(&mut conflicts, v.conflict);
            s += LANES;
        }
        finish(acc, part, terms);
        let mut conflicts = total(conflicts);
        for s in s..end {
            conflicts += u64::from(mul_slot_ref(x, s, a0, b0, rule, ctx, acc));
        }
        conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::AVX2_BLOCKS;
    use crate::config::{AaConfig, AaContext, Fusion, Protect};
    use crate::direct::{merge_linear, merge_mul, Slots};
    use crate::form::AffineF64;
    use crate::symbol::{SymbolId, NO_SYMBOL};

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

    /// xorshift64* stream for the slot-state generator.
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
    }

    /// A coefficient: mostly ordinary, sometimes one of the values the
    /// guard ladders exist for.
    fn coeff(rng: &mut Rng) -> f64 {
        let m = 1.0 + (rng.next() >> 11) as f64 / (1u64 << 53) as f64;
        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
        sign * match rng.below(40) {
            0 => 0.0,
            1 => f64::from_bits(1 + rng.below(1 << 52)), // subnormal
            2 => m * 2f64.powi(-1000 + rng.below(60) as i32), // products below the guard
            3 => m * 2f64.powi(1000 + rng.below(23) as i32), // products overflow
            4 => f64::INFINITY,
            5 => f64::NAN,
            _ => m * 2f64.powi(rng.below(40) as i32 - 20),
        }
    }

    /// A center: ordinary, tiny, huge, zero or non-finite.
    fn center(rng: &mut Rng) -> f64 {
        match rng.below(12) {
            0 => 0.0,
            1 => 2f64.powi(-600),
            2 => -3.0 * 2f64.powi(600),
            3 => f64::INFINITY,
            4 => f64::NAN,
            _ => coeff(rng),
        }
    }

    type State = (Vec<SymbolId>, Vec<f64>);

    /// Random slot states for `a` and `b` at paper-k8's mix: about 58%
    /// conflicts, 33% one side, 7% empty and 2% shared symbols. Ids stay
    /// congruent to their slot mod `k`, and some are protected.
    fn states(rng: &mut Rng, k: usize) -> (State, State, Vec<SymbolId>) {
        let (mut a, mut b) = (
            (vec![NO_SYMBOL; k], vec![0.0; k]),
            (vec![NO_SYMBOL; k], vec![0.0; k]),
        );
        let mut protect = Vec::new();
        let id = |rng: &mut Rng, s: usize| s as u64 + k as u64 * rng.below(1 << 20);
        for s in 0..k {
            let r = rng.below(100);
            let (ia, ib) = match r {
                0..=57 => {
                    let ia = id(rng, s);
                    let mut ib = id(rng, s);
                    if ib == ia {
                        ib += k as u64;
                    }
                    (ia, ib)
                }
                58..=74 => (id(rng, s), NO_SYMBOL),
                75..=90 => (NO_SYMBOL, id(rng, s)),
                91..=97 => (NO_SYMBOL, NO_SYMBOL),
                _ => {
                    let i = id(rng, s);
                    (i, i)
                }
            };
            if ia != NO_SYMBOL {
                (a.0[s], a.1[s]) = (ia, coeff(rng));
                if rng.below(5) == 0 {
                    protect.push(ia);
                }
            }
            if ib != NO_SYMBOL {
                (b.0[s], b.1[s]) = (ib, coeff(rng));
                if rng.below(5) == 0 {
                    protect.push(ib);
                }
            }
        }
        // An id that sits in no slot must not matter.
        protect.push(k as u64 * (1 << 21));
        protect.sort_unstable();
        protect.dedup();
        (a, b, protect)
    }

    /// Bit equality, with every NaN equal to every NaN (payloads are not
    /// part of the contract).
    fn same_bits(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// Runs one merge on the AVX2 body (`vectorized`, when the CPU has it)
    /// or the scalar body, and returns the result slots, the round-off
    /// bound and the condensations it recorded.
    fn run(
        vectorized: bool,
        fusion: Fusion,
        mul: Option<(f64, f64)>,
        a: &State,
        b: &State,
        protect: Protect<'_>,
    ) -> (Vec<SymbolId>, Vec<f64>, f64, u64) {
        let cfg = AaConfig::new(a.0.len())
            .with_fusion(fusion)
            .with_vectorized(vectorized);
        let ctx = AaContext::new(cfg);
        let (mut ids, mut coeffs) = b.clone();
        let mut x = Slots {
            a_ids: &a.0,
            a_coeffs: &a.1,
            b_ids: &mut ids,
            b_coeffs: &mut coeffs,
        };
        let noise = match mul {
            Some((a0, b0)) => merge_mul(a0, b0, &mut x, &ctx, protect),
            None => merge_linear(&mut x, -1.0, &ctx, protect),
        };
        (ids, coeffs, noise, ctx.counters().condensations)
    }

    #[test]
    fn avx2_body_matches_scalar_body_on_conflicting_slots() {
        let before = AVX2_BLOCKS.with(|n| n.get());
        let mut rng = Rng(0xA7A2_5107_9E37_79B9);
        for k in [1, 3, 4, 5, 8, 12, 40, 64, 65] {
            for fusion in [
                Fusion::Smallest,
                Fusion::MeanThreshold,
                Fusion::Oldest,
                Fusion::Random,
            ] {
                for round in 0..60 {
                    let (a, b, prot) = states(&mut rng, k);
                    let protect = if round % 2 == 0 {
                        Protect::Ids(&prot)
                    } else {
                        Protect::None
                    };
                    let mul = (round % 3 != 0).then(|| (center(&mut rng), center(&mut rng)));
                    let want = run(false, fusion, mul, &a, &b, protect);
                    let got = run(true, fusion, mul, &a, &b, protect);
                    let what = format!("k={k} {fusion:?} round={round} mul={mul:?}");
                    assert_eq!(got.0, want.0, "ids, {what}");
                    for s in 0..k {
                        assert!(
                            same_bits(got.1[s], want.1[s]),
                            "coeff {s}, {what}: {} vs {}",
                            got.1[s],
                            want.1[s]
                        );
                    }
                    assert!(
                        same_bits(got.2, want.2),
                        "noise, {what}: {} vs {}",
                        got.2,
                        want.2
                    );
                    assert_eq!(got.3, want.3, "condensations, {what}");
                }
            }
        }
        if super::Avx2::detect().is_some() {
            assert!(
                AVX2_BLOCKS.with(|n| n.get()) > before,
                "the AVX2 body never ran"
            );
        }
    }
}
