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
//!   into partial `s mod 4`; a multiplication sums the operand magnitudes
//!   `|aₛ|`, `|bₛ|` into two more sets of partials while it has them
//!   loaded.
//!
//! Each block reads `a` and `b` and writes the result to `out`; in in-out
//! mode `b`'s loads and `out`'s stores go through one pointer, and a block
//! loads its four slots before it stores them.
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
use crate::direct::{Rule, Slots, Sums};

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
/// body, adding its round-off to `sums.round`; returns the number of
/// conflicts.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn linear(
    _: Avx2,
    x: &mut Slots<'_>,
    start: usize,
    end: usize,
    sign_b: f64,
    rule: Rule,
    ctx: &AaContext,
    sums: &mut Sums,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the token proves the CPU has AVX2 and FMA.
    unsafe {
        avx2::linear(x, start, end, sign_b, rule, ctx, sums)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!()
}

/// Multiplication merge of slots `start..end` (one chunk) with the AVX2
/// body, for centers `a0`, `b0` that are exact `f64`s, adding to all three
/// sums of `sums`; returns the number of conflicts.
#[inline(always)]
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
    sums: &mut Sums,
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the token proves the CPU has AVX2 and FMA.
    unsafe {
        avx2::mul(x, start, end, a0, b0, rule, ctx, sums)
    }
    #[cfg(not(target_arch = "x86_64"))]
    unreachable!()
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::LANES;
    use crate::config::{AaContext, Fusion};
    use crate::direct::{linear_slot_ref, mul_slot_ref, RoundOff, Rule, Slots, Sums};
    use std::arch::x86_64::*;

    /// `2^-960`, the bound below which `mul_with_err` stops trusting the
    /// FMA residual (`fpcore::round::EFT_GUARD`).
    const EFT_GUARD: f64 = f64::from_bits(0x03F0_0000_0000_0000);

    /// The arrays of one merge as raw pointers, taken once per kernel
    /// call: in in-out mode `b` and `out` are one array, read and written
    /// through pointers derived from one borrow.
    struct Ptrs {
        a_ids: *const u64,
        a_coeffs: *const f64,
        b_ids: *const u64,
        b_coeffs: *const f64,
        out_ids: *mut u64,
        out_coeffs: *mut f64,
    }

    impl Ptrs {
        /// The pointers of `x`, which must hold slots `..end` in every
        /// array (panics otherwise): the condition every load and store
        /// of a block relies on.
        #[inline(always)]
        fn of(x: &mut Slots<'_>, end: usize) -> Ptrs {
            let k = x.a_ids.len();
            let b_ok =
                x.b.is_none_or(|(ids, coeffs)| ids.len() == k && coeffs.len() == k);
            assert!(
                end <= k
                    && b_ok
                    && x.a_coeffs.len() == k
                    && x.out_ids.len() == k
                    && x.out_coeffs.len() == k,
                "slot arrays out of shape"
            );
            let (out_ids, out_coeffs) = (x.out_ids.as_mut_ptr(), x.out_coeffs.as_mut_ptr());
            let (b_ids, b_coeffs) = match x.b {
                Some((ids, coeffs)) => (ids.as_ptr(), coeffs.as_ptr()),
                None => (out_ids.cast_const(), out_coeffs.cast_const()),
            };
            Ptrs {
                a_ids: x.a_ids.as_ptr(),
                a_coeffs: x.a_coeffs.as_ptr(),
                b_ids,
                b_coeffs,
                out_ids,
                out_coeffs,
            }
        }
    }

    /// The four lanes of one block.
    struct Block {
        ia: __m256i,
        ib: __m256i,
        /// The coefficients of `a` and `b`.
        ca: __m256d,
        cb: __m256d,
        a_has: __m256d,
        b_has: __m256d,
        /// Both sides hold the same symbol (and are occupied).
        eq: __m256d,
        conflict: __m256d,
    }

    /// Slots `s .. s + 4` of both operands and their slot cases.
    ///
    /// # Safety
    ///
    /// Slots `s .. s + 4` must exist in `p`'s arrays.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn load(p: &Ptrs, s: usize) -> Block {
        let none = _mm256_set1_epi64x(-1);
        // SAFETY: slots `s .. s + 4` exist (the caller's condition).
        let (ia, ib, ca, cb) = unsafe {
            (
                _mm256_loadu_si256(p.a_ids.add(s).cast()),
                _mm256_loadu_si256(p.b_ids.add(s).cast()),
                _mm256_loadu_pd(p.a_coeffs.add(s)),
                _mm256_loadu_pd(p.b_coeffs.add(s)),
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
            ca,
            cb,
            a_has,
            b_has,
            eq,
            conflict,
        }
    }

    /// Writes `(id, coeff)` to the lanes of `out`'s slots `s .. s + 4` in
    /// `keep`, the empty slot to the others.
    ///
    /// # Safety
    ///
    /// Slots `s .. s + 4` must exist in `p`'s arrays.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn store(p: &Ptrs, s: usize, id: __m256i, c: __m256d, keep: __m256d) {
        let id = _mm256_blendv_epi8(_mm256_set1_epi64x(-1), id, _mm256_castpd_si256(keep));
        // SAFETY: slots `s .. s + 4` exist (the caller's condition).
        unsafe {
            _mm256_storeu_si256(p.out_ids.add(s).cast(), id);
            _mm256_storeu_pd(p.out_coeffs.add(s), _mm256_and_pd(c, keep));
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

    /// One [`RoundOff`] held in registers for a kernel call: the lane
    /// partials and the lane counts of non-zero terms.
    struct Acc {
        part: __m256d,
        terms: __m256i,
    }

    impl Acc {
        /// The partials of `acc`, with no terms counted yet.
        #[target_feature(enable = "avx2,fma")]
        #[inline]
        fn of(acc: &RoundOff) -> Acc {
            Acc {
                // SAFETY: `acc.lanes` is a 32-byte array.
                part: unsafe { _mm256_loadu_pd(acc.lanes.as_ptr()) },
                terms: _mm256_setzero_si256(),
            }
        }

        /// Adds the non-negative terms `t`, one per lane.
        #[target_feature(enable = "avx2,fma")]
        #[inline]
        fn push(&mut self, t: __m256d) {
            self.part = _mm256_add_pd(self.part, t);
            count(
                &mut self.terms,
                _mm256_cmp_pd::<_CMP_NEQ_UQ>(t, _mm256_setzero_pd()),
            );
        }

        /// Stores the partials back in `acc` and adds the counted terms.
        #[target_feature(enable = "avx2,fma")]
        #[inline]
        fn finish(self, acc: &mut RoundOff) {
            // SAFETY: `acc.lanes` is a 32-byte array.
            unsafe { _mm256_storeu_pd(acc.lanes.as_mut_ptr(), self.part) };
            acc.terms += total(self.terms);
        }
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

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn linear(
        x: &mut Slots<'_>,
        start: usize,
        end: usize,
        sign_b: f64,
        rule: Rule,
        ctx: &AaContext,
        sums: &mut Sums,
    ) -> u64 {
        let p = Ptrs::of(x, end);
        let mut round = Acc::of(&sums.round);
        let mut conflicts = _mm256_setzero_si256();
        let mut s = start;
        while s + LANES <= end {
            #[cfg(test)]
            super::AVX2_BLOCKS.with(|n| n.set(n.get() + 1));
            // SAFETY: s + 4 ≤ end ≤ the slot count (`Ptrs::of`).
            let v = unsafe { load(&p, s) };
            let (ca, cb) = (v.ca, _mm256_mul_pd(v.cb, _mm256_set1_pd(sign_b)));
            let (sum, e) = add_with_err(ca, cb);
            let take_a = takes_a(&v, keeps_left(rule, s - rule.base, &v, ca, cb));
            let c = _mm256_blendv_pd(_mm256_blendv_pd(cb, ca, take_a), sum, v.eq);
            // Empty lanes, and same-symbol lanes that cancel to zero, empty.
            let cancelled =
                _mm256_and_pd(v.eq, _mm256_cmp_pd::<_CMP_EQ_OQ>(sum, _mm256_setzero_pd()));
            let keep = _mm256_andnot_pd(cancelled, _mm256_or_pd(v.a_has, v.b_has));
            // SAFETY: as for the loads.
            unsafe { store(&p, s, pick_id(&v, take_a), c, keep) };
            let loser = _mm256_blendv_pd(ca, cb, take_a);
            round.push(last_term(&v, e, loser));
            count(&mut conflicts, v.conflict);
            s += LANES;
        }
        round.finish(&mut sums.round);
        let mut conflicts = total(conflicts);
        for s in s..end {
            conflicts += u64::from(linear_slot_ref(x, s, sign_b, rule, ctx, &mut sums.round));
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
        sums: &mut Sums,
    ) -> u64 {
        let p = Ptrs::of(x, end);
        let (a0v, b0v) = (_mm256_set1_pd(a0), _mm256_set1_pd(b0));
        let mut round = Acc::of(&sums.round);
        let (mut mag_a, mut mag_b) = (Acc::of(&sums.mag_a), Acc::of(&sums.mag_b));
        let mut conflicts = _mm256_setzero_si256();
        let mut s = start;
        while s + LANES <= end {
            #[cfg(test)]
            super::AVX2_BLOCKS.with(|n| n.set(n.get() + 1));
            // SAFETY: s + 4 ≤ end ≤ the slot count (`Ptrs::of`).
            let v = unsafe { load(&p, s) };
            mag_a.push(_mm256_and_pd(abs(v.ca), v.a_has));
            mag_b.push(_mm256_and_pd(abs(v.cb), v.b_has));
            // p1 = b0·aₛ, p2 = a0·bₛ, each only where its side is present.
            let (p1, e1) = mul_with_err(b0v, v.ca);
            let (p2, e2) = mul_with_err(a0v, v.cb);
            let (p1, e1) = (_mm256_and_pd(p1, v.a_has), _mm256_and_pd(e1, v.a_has));
            let (p2, e2) = (_mm256_and_pd(p2, v.b_has), _mm256_and_pd(e2, v.b_has));
            let (sum, e3) = add_with_err(p1, p2);
            let take_a = takes_a(&v, keeps_left(rule, s - rule.base, &v, p1, p2));
            let c = _mm256_blendv_pd(_mm256_blendv_pd(p2, p1, take_a), sum, v.eq);
            // A zero result (including every empty lane) empties the slot.
            let keep = _mm256_cmp_pd::<_CMP_NEQ_UQ>(c, _mm256_setzero_pd());
            // SAFETY: as for the loads.
            unsafe { store(&p, s, pick_id(&v, take_a), c, keep) };
            let loser = _mm256_blendv_pd(p1, p2, take_a);
            round.push(e1);
            round.push(e2);
            round.push(last_term(&v, e3, loser));
            count(&mut conflicts, v.conflict);
            s += LANES;
        }
        round.finish(&mut sums.round);
        mag_a.finish(&mut sums.mag_a);
        mag_b.finish(&mut sums.mag_b);
        let mut conflicts = total(conflicts);
        for s in s..end {
            conflicts += u64::from(mul_slot_ref(x, s, a0, b0, rule, ctx, sums));
        }
        conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::AVX2_BLOCKS;
    use super::LANES;
    use crate::config::{AaConfig, AaContext, Fusion, Protect};
    use crate::direct::{self, Slots, Sums};
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

    /// A dedicated noise or center error: zero, ordinary, `∞` or NaN.
    fn extra(rng: &mut Rng) -> f64 {
        match rng.below(8) {
            0..=2 => 0.0,
            3 => f64::INFINITY,
            4 => f64::NAN,
            _ => coeff(rng).abs(),
        }
    }

    /// One merge's inputs besides the slots.
    #[derive(Clone, Copy, Debug)]
    struct Case {
        fusion: Fusion,
        /// The centers of a multiplication; `None` for a subtraction.
        mul: Option<(f64, f64)>,
        ce: f64,
        acc: (f64, f64),
        /// `b` is the output's own contents (division's mode).
        in_out: bool,
    }

    /// What one merge produced: result slots, the operation's noise bound,
    /// the merge's sums and the condensations it recorded.
    struct Outcome {
        ids: Vec<SymbolId>,
        coeffs: Vec<f64>,
        noise: f64,
        sums: Sums,
        condensations: u64,
    }

    /// Runs `case` on the AVX2 body (`vectorized`, when the CPU has it)
    /// or the scalar body. Three-operand runs write into stale output
    /// slots. The noise comes from `direct::{mul, linear}`, the sums from
    /// a second run of the merge alone.
    fn run(vectorized: bool, case: Case, a: &State, b: &State, protect: Protect<'_>) -> Outcome {
        let cfg = AaConfig::new(a.0.len())
            .with_fusion(case.fusion)
            .with_vectorized(vectorized);
        let once = |sums: Option<&mut Sums>| {
            let ctx = AaContext::new(cfg);
            let (mut ids, mut coeffs) = if case.in_out {
                b.clone()
            } else {
                (vec![0x5EED; a.0.len()], vec![f64::NAN; a.0.len()])
            };
            let mut x = Slots {
                a_ids: &a.0,
                a_coeffs: &a.1,
                b: (!case.in_out).then_some((&b.0[..], &b.1[..])),
                out_ids: &mut ids,
                out_coeffs: &mut coeffs,
            };
            let noise = match (case.mul, sums) {
                (Some((a0, b0)), None) => {
                    direct::mul(a0, b0, case.acc, &mut x, case.ce, &ctx, protect)
                }
                (None, None) => direct::linear(&mut x, -1.0, case.ce, &ctx, protect),
                (Some((a0, b0)), Some(sums)) => {
                    direct::merge_mul(a0, b0, &mut x, &ctx, protect, sums);
                    0.0
                }
                (None, Some(sums)) => {
                    direct::merge_linear(&mut x, -1.0, &ctx, protect, sums);
                    0.0
                }
            };
            (ids, coeffs, noise, ctx.counters().condensations)
        };
        let mut sums = Sums::default();
        once(Some(&mut sums));
        let (ids, coeffs, noise, condensations) = once(None);
        Outcome {
            ids,
            coeffs,
            noise,
            sums,
            condensations,
        }
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
                    let case = Case {
                        fusion,
                        mul: (round % 3 != 0).then(|| (center(&mut rng), center(&mut rng))),
                        ce: extra(&mut rng),
                        acc: (extra(&mut rng), extra(&mut rng)),
                        in_out: round % 4 == 1,
                    };
                    let want = run(false, case, &a, &b, protect);
                    let got = run(true, case, &a, &b, protect);
                    let what = format!("k={k} round={round} {case:?}");
                    assert_eq!(got.ids, want.ids, "ids, {what}");
                    for s in 0..k {
                        assert!(
                            same_bits(got.coeffs[s], want.coeffs[s]),
                            "coeff {s}, {what}: {} vs {}",
                            got.coeffs[s],
                            want.coeffs[s]
                        );
                    }
                    assert!(
                        same_bits(got.noise, want.noise),
                        "noise, {what}: {} vs {}",
                        got.noise,
                        want.noise
                    );
                    for (name, g, w) in [
                        ("round-off", got.sums.round, want.sums.round),
                        ("|a|", got.sums.mag_a, want.sums.mag_a),
                        ("|b|", got.sums.mag_b, want.sums.mag_b),
                    ] {
                        assert_eq!(g.terms, w.terms, "{name} terms, {what}");
                        for l in 0..LANES {
                            assert!(
                                same_bits(g.lanes[l], w.lanes[l]),
                                "{name} lane {l}, {what}: {} vs {}",
                                g.lanes[l],
                                w.lanes[l]
                            );
                        }
                    }
                    assert_eq!(
                        got.condensations, want.condensations,
                        "condensations, {what}"
                    );
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
