//! Analytic arithmetic-cost model of the affine operations (paper Sec. II-B
//! and Sec. V "Arithmetic cost").
//!
//! The paper reports the following floating-point operation counts
//! (comparisons included), where `k` is the symbol budget and `m` the
//! number of symbols shared by the operands:
//!
//! | operation | placement/policy | flops |
//! |-----------|------------------|-------|
//! | add       | classic AA, m shared | `4m + 3` |
//! | mul       | classic AA           | `10k + 4m + 3` |
//! | add       | SP + direct-mapped   | `3k + 2m + 3` |
//! | mul       | SP + direct-mapped   | `13k + 2m + 3` |
//!
//! and the vectorized direct-mapped kernels use `1.75k` (add) and `4.25k`
//! (mul) arithmetic intrinsics plus `1.25k` blends.
//!
//! The `ops` bench binary (`safegen-bench`, group `aa_ops`) measures the
//! same operations across k, so measured runtimes can be checked against
//! how these counts scale.

/// Flops of classic (sorted, unbounded) affine addition with `m` shared
/// symbols.
pub fn add_flops_classic(m: usize) -> usize {
    4 * m + 3
}

/// Flops of classic affine multiplication with `k` total and `m` shared
/// symbols.
pub fn mul_flops_classic(k: usize, m: usize) -> usize {
    10 * k + 4 * m + 3
}

/// Flops of addition under the smallest-value policy with direct-mapped
/// placement.
pub fn add_flops_direct_sp(k: usize, m: usize) -> usize {
    3 * k + 2 * m + 3
}

/// Flops of multiplication under the smallest-value policy with
/// direct-mapped placement.
pub fn mul_flops_direct_sp(k: usize, m: usize) -> usize {
    13 * k + 2 * m + 3
}

/// Arithmetic intrinsics of the vectorized addition kernel (`4 | k`).
pub fn add_intrinsics_vectorized(k: usize) -> f64 {
    1.75 * k as f64
}

/// Arithmetic intrinsics of the vectorized multiplication kernel.
pub fn mul_intrinsics_vectorized(k: usize) -> f64 {
    4.25 * k as f64
}

/// Blend intrinsics of the vectorized kernels.
pub fn blend_intrinsics_vectorized(k: usize) -> f64 {
    1.25 * k as f64
}

/// Total flop count of a program of `g` operations under full (unbounded)
/// AA — the quadratic blow-up of Sec. II-B: the i-th operation costs `O(i)`.
pub fn full_aa_program_flops(g: usize) -> usize {
    // Σ_{i=1}^{g} (4i + 3) for an all-additions program.
    g * (2 * g + 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formulas_match_paper_examples() {
        assert_eq!(add_flops_classic(5), 23);
        assert_eq!(mul_flops_classic(8, 5), 103);
        assert_eq!(add_flops_direct_sp(8, 5), 37);
        assert_eq!(mul_flops_direct_sp(8, 5), 117);
    }

    #[test]
    fn vectorized_counts() {
        assert_eq!(add_intrinsics_vectorized(8), 14.0);
        assert_eq!(mul_intrinsics_vectorized(8), 34.0);
        assert_eq!(blend_intrinsics_vectorized(8), 10.0);
    }

    #[test]
    fn full_aa_is_quadratic() {
        let small = full_aa_program_flops(10);
        let big = full_aa_program_flops(100);
        // 10× the operations ⇒ ~100× the flops.
        assert!(big > 80 * small && big < 120 * small);
    }

    #[test]
    fn direct_add_cheaper_than_classic_mul_merge_for_large_m() {
        // For m = k (all shared), classic add is 4k+3, direct is 3k+2k+3 —
        // slightly more flops but branch-free; the win is in the constant
        // factors. Just pin the formulas' crossover behaviour.
        assert!(add_flops_classic(48) < add_flops_direct_sp(48, 48));
        assert!(add_flops_direct_sp(48, 0) < add_flops_classic(48));
    }
}
