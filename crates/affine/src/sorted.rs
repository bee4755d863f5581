//! Merge kernels for the sorted placement policy (paper Sec. V-A).
//!
//! Both operands keep their terms sorted by symbol id; an operation merges
//! the two sorted arrays, combining coefficients of shared symbols and
//! recovering every rounding error exactly via EFTs. The accumulated errors
//! feed the operation's fresh error symbol.
//!
//! The kernels work in place: the second operand's terms arrive in the
//! result's own buffer and the merged terms replace them, so an operation
//! allocates nothing once that buffer has grown to its working size.

use crate::center::{CenterValue, ErrAcc};
use crate::symbol::Term;
use safegen_fpcore::round::{add_with_err, mul_with_err};

/// Moves the `b` terms held in `buf` up to `buf[a_len..]` and returns
/// their count. A merge then writes its output from the front of `buf`:
/// after consuming `i` terms of `a` and `j` of `b` it has written at most
/// `i + j`, so it never overwrites the unread `b[j]` at `a_len + j`.
fn stage_b(buf: &mut Vec<Term>, a_len: usize) -> usize {
    let nb = buf.len();
    // One growth for the merge and the fresh symbol finalization appends.
    buf.reserve(a_len + 1);
    buf.resize(a_len + nb, Term::EMPTY);
    buf.copy_within(0..nb, a_len);
    nb
}

/// Merges the term lists for a linear operation `a ± b`; `buf` holds `b`
/// on entry and the merged terms on return.
///
/// `sign_b` is `+1.0` for addition and `-1.0` for subtraction. Exact
/// rounding errors of coefficient additions accumulate in `noise`.
/// Zero-coefficient results are dropped (full cancellation).
pub(crate) fn merge_linear(a: &[Term], buf: &mut Vec<Term>, sign_b: f64, noise: &mut ErrAcc) {
    let na = a.len();
    let nb = stage_b(buf, na);
    let (mut i, mut j, mut w) = (0, 0, 0);
    while i < na && j < nb {
        let (ta, tb) = (a[i], buf[na + j]);
        if ta.id == tb.id {
            let (c, e) = add_with_err(ta.coeff, sign_b * tb.coeff);
            noise.add(e);
            if c != 0.0 {
                buf[w] = Term::new(ta.id, c);
                w += 1;
            }
            i += 1;
            j += 1;
        } else if ta.id < tb.id {
            buf[w] = ta;
            w += 1;
            i += 1;
        } else {
            buf[w] = Term::new(tb.id, sign_b * tb.coeff);
            w += 1;
            j += 1;
        }
    }
    for &ta in &a[i..] {
        buf[w] = ta;
        w += 1;
    }
    for j in j..nb {
        let tb = buf[na + j];
        buf[w] = Term::new(tb.id, sign_b * tb.coeff);
        w += 1;
    }
    buf.truncate(w);
}

/// Merges the term lists for multiplication; `buf` holds `b` on entry and
/// the result on return. The affine part of `â·b̂` has coefficient
/// `a₀·bᵢ + b₀·aᵢ` for every symbol `εᵢ` (paper eq. 5). Rounding errors of
/// the products and the sum accumulate in `noise`; the quadratic
/// `r(â)·r(b̂)` term is added by the caller.
pub(crate) fn merge_mul<C: CenterValue>(
    a0: C,
    b0: C,
    a: &[Term],
    buf: &mut Vec<Term>,
    noise: &mut ErrAcc,
) {
    let na = a.len();
    let nb = stage_b(buf, na);
    let mut w = 0;
    // Records one product's rounding error and keeps its nonzero result.
    let mut emit = |buf: &mut Vec<Term>, noise: &mut ErrAcc, id, (c, e): (f64, f64)| {
        noise.add(e);
        if c != 0.0 {
            buf[w] = Term::new(id, c);
            w += 1;
        }
    };
    let (mut i, mut j) = (0, 0);
    while i < na && j < nb {
        let (ta, tb) = (a[i], buf[na + j]);
        if ta.id == tb.id {
            let (p1, e1) = b0.scale_coeff(ta.coeff);
            let (p2, e2) = a0.scale_coeff(tb.coeff);
            noise.add(e1);
            noise.add(e2);
            emit(buf, noise, ta.id, add_with_err(p1, p2));
            i += 1;
            j += 1;
        } else if ta.id < tb.id {
            emit(buf, noise, ta.id, b0.scale_coeff(ta.coeff));
            i += 1;
        } else {
            emit(buf, noise, tb.id, a0.scale_coeff(tb.coeff));
            j += 1;
        }
    }
    for ta in &a[i..] {
        emit(buf, noise, ta.id, b0.scale_coeff(ta.coeff));
    }
    for j in j..nb {
        let tb = buf[na + j];
        emit(buf, noise, tb.id, a0.scale_coeff(tb.coeff));
    }
    buf.truncate(w);
}

/// Scales every term in place by an `f64` factor (for the derived
/// operations `α·â + ζ`), accumulating rounding errors and dropping terms
/// that round to zero.
pub(crate) fn scale_terms(terms: &mut Vec<Term>, alpha: f64, noise: &mut ErrAcc) {
    terms.retain_mut(|t| {
        let (c, e) = mul_with_err(t.coeff, alpha);
        noise.add(e);
        t.coeff = c;
        c != 0.0
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terms(pairs: &[(u64, f64)]) -> Vec<Term> {
        pairs.iter().map(|&(id, c)| Term::new(id, c)).collect()
    }

    /// Runs the linear merge of `a` and `b` and returns the merged terms.
    fn linear(a: &[Term], b: &[Term], sign_b: f64, noise: &mut ErrAcc) -> Vec<Term> {
        let mut buf = b.to_vec();
        merge_linear(a, &mut buf, sign_b, noise);
        buf
    }

    /// Runs the multiplication merge of `a` and `b` and returns its terms.
    fn mul(a0: f64, b0: f64, a: &[Term], b: &[Term], noise: &mut ErrAcc) -> Vec<Term> {
        let mut buf = b.to_vec();
        merge_mul(a0, b0, a, &mut buf, noise);
        buf
    }

    #[test]
    fn linear_merge_combines_shared() {
        let a = terms(&[(1, 1.0), (3, 2.0)]);
        let b = terms(&[(1, 0.5), (2, 4.0)]);
        let mut noise = ErrAcc::default();
        let out = linear(&a, &b, 1.0, &mut noise);
        assert_eq!(out, terms(&[(1, 1.5), (2, 4.0), (3, 2.0)]));
        assert_eq!(noise.value(), 0.0); // all sums exact here
    }

    #[test]
    fn linear_merge_subtraction_cancels() {
        let a = terms(&[(1, 1.0), (2, 3.0)]);
        let b = terms(&[(1, 1.0), (2, 1.0)]);
        let mut noise = ErrAcc::default();
        let out = linear(&a, &b, -1.0, &mut noise);
        // ε1 cancels completely and is dropped.
        assert_eq!(out, terms(&[(2, 2.0)]));
    }

    #[test]
    fn linear_merge_records_rounding() {
        let a = terms(&[(1, 1.0)]);
        let b = terms(&[(1, 1e-30)]);
        let mut noise = ErrAcc::default();
        let out = linear(&a, &b, 1.0, &mut noise);
        assert_eq!(out.len(), 1);
        assert!(noise.value() > 0.0, "inexact sum must leave noise");
    }

    #[test]
    fn linear_merge_keeps_sorted_order() {
        let a = terms(&[(0, 1.0), (5, 1.0), (9, 1.0)]);
        let b = terms(&[(2, 1.0), (5, 1.0), (11, 1.0)]);
        let mut noise = ErrAcc::default();
        let out = linear(&a, &b, 1.0, &mut noise);
        assert!(out.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn in_place_merges_survive_every_interleaving() {
        // Disjoint, interleaved and nested id runs, with either side empty:
        // the in-place merge must agree with a plain two-list merge.
        let cases: [(&[u64], &[u64]); 6] = [
            (&[1, 2, 3], &[7, 8, 9]),
            (&[7, 8, 9], &[1, 2, 3]),
            (&[1, 4, 7, 10], &[2, 4, 8, 10, 12]),
            (&[], &[1, 2]),
            (&[1, 2], &[]),
            (&[3], &[1, 2, 3, 4, 5, 6]),
        ];
        for (ia, ib) in cases {
            let a: Vec<Term> = ia.iter().map(|&i| Term::new(i, 1.0 + i as f64)).collect();
            let b: Vec<Term> = ib.iter().map(|&i| Term::new(i, 0.5 * i as f64)).collect();
            let mut want: Vec<Term> = Vec::new();
            let mut ids: Vec<u64> = ia.iter().chain(ib).copied().collect();
            ids.sort_unstable();
            ids.dedup();
            for id in ids {
                let ca = a.iter().find(|t| t.id == id).map_or(0.0, |t| t.coeff);
                let cb = b.iter().find(|t| t.id == id).map_or(0.0, |t| t.coeff);
                want.push(Term::new(id, ca - cb));
            }
            let got = linear(&a, &b, -1.0, &mut ErrAcc::default());
            assert_eq!(got, want, "a = {ia:?}, b = {ib:?}");
        }
    }

    #[test]
    fn mul_merge_coefficient_formula() {
        // â = 2 + 1·ε1, b̂ = 3 + 2·ε1: affine part of product is
        // (2·2 + 3·1)·ε1 = 7·ε1.
        let a = terms(&[(1, 1.0)]);
        let b = terms(&[(1, 2.0)]);
        let mut noise = ErrAcc::default();
        let out = mul(2.0, 3.0, &a, &b, &mut noise);
        assert_eq!(out, terms(&[(1, 7.0)]));
    }

    #[test]
    fn mul_merge_disjoint_symbols() {
        let a = terms(&[(1, 1.0)]);
        let b = terms(&[(2, 2.0)]);
        let mut noise = ErrAcc::default();
        let out = mul(10.0, 100.0, &a, &b, &mut noise);
        // ε1 coeff = b0·1 = 100; ε2 coeff = a0·2 = 20.
        assert_eq!(out, terms(&[(1, 100.0), (2, 20.0)]));
    }

    #[test]
    fn mul_merge_zero_center_drops_terms() {
        let a = terms(&[(1, 1.0)]);
        let b: Vec<Term> = vec![];
        let mut noise = ErrAcc::default();
        let out = mul(5.0, 0.0, &a, &b, &mut noise);
        assert!(out.is_empty()); // b0 = 0 kills a's linear terms
    }

    #[test]
    fn scale_terms_applies_alpha() {
        let mut out = terms(&[(1, 2.0), (2, -4.0)]);
        let mut noise = ErrAcc::default();
        scale_terms(&mut out, 0.5, &mut noise);
        assert_eq!(out, terms(&[(1, 1.0), (2, -2.0)]));
        assert_eq!(noise.value(), 0.0);
    }
}
