//! Column kernels for the lane-major (SoA) virtual machine.
//!
//! Each function applies one interval operation element-wise over whole
//! register columns: `out[l] = a[l] op b[l]` for every lane `l`. The loop
//! bodies are the [`IntervalF64`] and [`IntervalDd`] operators themselves
//! — there is no second copy of any op here — and the scalar VM runs the
//! same kernels on one-element slices, so every interval result in the
//! system comes from one body compiled one way.
//!
//! The bodies are **straight-line**: [`IntervalF64`] composes the
//! select-based directed rounding of [`safegen_fpcore::flat`] and turns
//! its own case splits (divisor straddling zero, negative radicand,
//! `abs` sign cases) into selects; [`IntervalDd`]'s `+ − ×`, `min` and
//! `max` rest on the branch-free double-double ladder of
//! [`safegen_fpcore::dd`] and select their corner candidates
//! lexicographically. Straight-line bodies are what LLVM needs to
//! vectorize the lane loop. On `x86_64` with FMA/AVX2 available at
//! runtime the loop is compiled inside a `#[target_feature(enable =
//! "fma,avx2")]` region, so the error-free transformations underneath
//! lower to `vfmadd` instructions (four lanes per
//! `vfmadd231pd`/`vblendvpd` sequence) instead of soft-fma libcalls;
//! `ci.sh` checks that the dd addition and subtraction kernels contain
//! packed `ymm` arithmetic. Division and square root keep their
//! branches (the dd rescaling ladder, the dd interval's straddle test)
//! and stay scalar loops inside the same region.
//!
//! IEEE 754 specifies `fma` exactly (one rounding of the infinitely
//! precise result), so the fast path and the portable fallback loop
//! (same body, used when the CPU features are missing) return
//! **bit-identical** endpoints. The lane engine and the scalar
//! interpreter therefore agree bit for bit (see
//! `tests/lanes_differential.rs` in the workspace root, and the tests
//! below).

use crate::{IntervalDd, IntervalF64};

/// True when the FMA/AVX2 fast path may be taken (checked once, cached
/// by `is_x86_feature_detected`).
#[cfg(target_arch = "x86_64")]
#[inline]
fn fast_ok() -> bool {
    std::arch::is_x86_feature_detected!("fma") && std::arch::is_x86_feature_detected!("avx2")
}

macro_rules! bin_kernels {
    ($fast:ident: $($(#[$doc:meta])* $name:ident ($t:ty): |$x:ident, $y:ident| $body:expr;)*) => {
        $(
            $(#[$doc])*
            /// Writes `a[i] op b[i]` to `out[i]` for every index; the
            /// three slices must have equal lengths (`out` may be the
            /// caller's destination column directly).
            pub fn $name(a: &[$t], b: &[$t], out: &mut [$t]) {
                debug_assert_eq!(a.len(), b.len());
                debug_assert_eq!(a.len(), out.len());
                #[cfg(target_arch = "x86_64")]
                if fast_ok() {
                    // SAFETY: fma+avx2 presence was just checked.
                    unsafe { $fast::$name(a, b, out) };
                    return;
                }
                // Plain slice loops (not `Vec::extend`) keep the body
                // inlined so LLVM's loop vectorizer can run.
                for ((o, $x), $y) in out.iter_mut().zip(a).zip(b) {
                    *o = $body;
                }
            }
        )*
        #[cfg(target_arch = "x86_64")]
        mod $fast {
            use super::*;
            $(
                #[target_feature(enable = "fma,avx2")]
                pub unsafe fn $name(a: &[$t], b: &[$t], out: &mut [$t]) {
                    for ((o, $x), $y) in out.iter_mut().zip(a).zip(b) {
                        *o = $body;
                    }
                }
            )*
        }
    };
}

macro_rules! un_kernels {
    ($fast:ident: $($(#[$doc:meta])* $name:ident ($t:ty): |$x:ident| $body:expr;)*) => {
        $(
            $(#[$doc])*
            /// Writes `op a[i]` to `out[i]` for every index; the two
            /// slices must have equal lengths.
            pub fn $name(a: &[$t], out: &mut [$t]) {
                debug_assert_eq!(a.len(), out.len());
                #[cfg(target_arch = "x86_64")]
                if fast_ok() {
                    // SAFETY: fma+avx2 presence was just checked.
                    unsafe { $fast::$name(a, out) };
                    return;
                }
                for (o, $x) in out.iter_mut().zip(a) {
                    *o = $body;
                }
            }
        )*
        #[cfg(target_arch = "x86_64")]
        mod $fast {
            use super::*;
            $(
                #[target_feature(enable = "fma,avx2")]
                pub unsafe fn $name(a: &[$t], out: &mut [$t]) {
                    for (o, $x) in out.iter_mut().zip(a) {
                        *o = $body;
                    }
                }
            )*
        }
    };
}

bin_kernels! { fast_bin_f64:
    /// Column-wise [`IntervalF64`] addition.
    add_cols_f64 (IntervalF64): |x, y| *x + *y;
    /// Column-wise [`IntervalF64`] subtraction.
    sub_cols_f64 (IntervalF64): |x, y| *x - *y;
    /// Column-wise [`IntervalF64`] multiplication.
    mul_cols_f64 (IntervalF64): |x, y| *x * *y;
    /// Column-wise [`IntervalF64`] division.
    div_cols_f64 (IntervalF64): |x, y| *x / *y;
    /// Column-wise [`IntervalF64`] minimum.
    min_cols_f64 (IntervalF64): |x, y| x.min(*y);
    /// Column-wise [`IntervalF64`] maximum.
    max_cols_f64 (IntervalF64): |x, y| x.max(*y);
}

un_kernels! { fast_un_f64:
    /// Column-wise [`IntervalF64`] square root.
    sqrt_cols_f64 (IntervalF64): |x| x.sqrt();
    /// Column-wise [`IntervalF64`] absolute value.
    abs_cols_f64 (IntervalF64): |x| x.abs();
    /// Column-wise [`IntervalF64`] negation.
    neg_cols_f64 (IntervalF64): |x| -*x;
}

bin_kernels! { fast_bin_dd:
    /// Column-wise [`IntervalDd`] addition.
    add_cols_dd (IntervalDd): |x, y| *x + *y;
    /// Column-wise [`IntervalDd`] subtraction.
    sub_cols_dd (IntervalDd): |x, y| *x - *y;
    /// Column-wise [`IntervalDd`] multiplication.
    mul_cols_dd (IntervalDd): |x, y| *x * *y;
    /// Column-wise [`IntervalDd`] division.
    div_cols_dd (IntervalDd): |x, y| *x / *y;
    /// Column-wise [`IntervalDd`] minimum.
    min_cols_dd (IntervalDd): |x, y| x.min(*y);
    /// Column-wise [`IntervalDd`] maximum.
    max_cols_dd (IntervalDd): |x, y| x.max(*y);
}

un_kernels! { fast_un_dd:
    /// Column-wise [`IntervalDd`] square root.
    sqrt_cols_dd (IntervalDd): |x| x.sqrt();
    /// Column-wise [`IntervalDd`] absolute value.
    abs_cols_dd (IntervalDd): |x| x.abs();
    /// Column-wise [`IntervalDd`] negation.
    neg_cols_dd (IntervalDd): |x| -*x;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f64_cols() -> (Vec<IntervalF64>, Vec<IntervalF64>) {
        let a: Vec<IntervalF64> = (0..37)
            .map(|i| IntervalF64::constant(0.1 + 0.07 * i as f64))
            .collect();
        let b: Vec<IntervalF64> = (0..37)
            .map(|i| IntervalF64::constant(-1.3 + 0.11 * i as f64))
            .collect();
        (a, b)
    }

    /// Interval columns covering every case split the flat bodies turn
    /// into selects: NaN endpoints, straddle-zero divisors, negative
    /// and sign-crossing intervals, zero-width points, infinities.
    fn edge_cols() -> (Vec<IntervalF64>, Vec<IntervalF64>) {
        let nan = IntervalF64 {
            lo: f64::NAN,
            hi: f64::NAN,
        };
        let specials = [
            IntervalF64::ZERO,
            IntervalF64::ENTIRE,
            nan,
            IntervalF64::point(1.0),
            IntervalF64::point(-1.0),
            IntervalF64::new(-2.0, -1.0),
            IntervalF64::new(-1.0, 1.0),
            IntervalF64::new(1.0, 2.0),
            IntervalF64::new(0.0, 3.0),
            IntervalF64::new(-3.0, 0.0),
            IntervalF64::new(-1e-300, 1e-300),
            IntervalF64::new(1e300, f64::INFINITY),
            IntervalF64::new(f64::NEG_INFINITY, -1e300),
            IntervalF64::constant(0.1),
            IntervalF64::constant(-0.1),
        ];
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &x in &specials {
            for &y in &specials {
                a.push(x);
                b.push(y);
            }
        }
        (a, b)
    }

    fn bits(v: IntervalF64) -> (u64, u64) {
        (v.lo().to_bits(), v.hi().to_bits())
    }

    /// The kernels must agree bit-for-bit with the element-wise ops —
    /// on this host that exercises the FMA path whenever present.
    #[test]
    fn f64_kernels_match_elementwise_bitwise() {
        let (a, b) = f64_cols();
        let mut out = vec![IntervalF64::ZERO; a.len()];
        mul_cols_f64(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x * *y), bits(*got));
        }
        div_cols_f64(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x / *y), bits(*got));
        }
        add_cols_f64(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x + *y), bits(*got));
        }
        sub_cols_f64(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x - *y), bits(*got));
        }
    }

    /// Every select in the flat interval bodies against the branchy
    /// element-wise operators, over all pairs of special intervals.
    #[test]
    fn f64_kernels_match_elementwise_on_edge_intervals() {
        let (a, b) = edge_cols();
        let mut out = vec![IntervalF64::ZERO; a.len()];
        add_cols_f64(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x + *y), bits(*got), "add {x} {y}");
        }
        sub_cols_f64(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x - *y), bits(*got), "sub {x} {y}");
        }
        mul_cols_f64(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x * *y), bits(*got), "mul {x} {y}");
        }
        div_cols_f64(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x / *y), bits(*got), "div {x} {y}");
        }
        min_cols_f64(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(x.min(*y)), bits(*got), "min {x} {y}");
        }
        max_cols_f64(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(x.max(*y)), bits(*got), "max {x} {y}");
        }
        sqrt_cols_f64(&a, &mut out);
        for (x, got) in a.iter().zip(&out) {
            assert_eq!(bits(x.sqrt()), bits(*got), "sqrt {x}");
        }
        abs_cols_f64(&a, &mut out);
        for (x, got) in a.iter().zip(&out) {
            assert_eq!(bits(x.abs()), bits(*got), "abs {x}");
        }
        neg_cols_f64(&a, &mut out);
        for (x, got) in a.iter().zip(&out) {
            assert_eq!(bits(-*x), bits(*got), "neg {x}");
        }
    }

    #[test]
    fn f64_unary_kernels_match_elementwise_bitwise() {
        let (a, _) = f64_cols();
        let mut out = vec![IntervalF64::ZERO; a.len()];
        abs_cols_f64(&a, &mut out);
        for (x, got) in a.iter().zip(&out) {
            assert_eq!(bits(x.abs()), bits(*got));
        }
        let pos: Vec<IntervalF64> = a.iter().map(|x| x.abs()).collect();
        sqrt_cols_f64(&pos, &mut out);
        for (x, got) in pos.iter().zip(&out) {
            assert_eq!(bits(x.sqrt()), bits(*got));
        }
    }

    #[test]
    fn dd_kernels_match_elementwise_bitwise() {
        let a: Vec<IntervalDd> = (0..19)
            .map(|i| IntervalDd::constant(0.3 + 0.05 * i as f64))
            .collect();
        let b: Vec<IntervalDd> = (0..19)
            .map(|i| IntervalDd::constant(1.7 - 0.09 * i as f64))
            .collect();
        let mut out = vec![IntervalDd::ZERO; a.len()];
        let bits = |v: IntervalDd| {
            (
                v.lo().hi().to_bits(),
                v.lo().lo().to_bits(),
                v.hi().hi().to_bits(),
                v.hi().lo().to_bits(),
            )
        };
        mul_cols_dd(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x * *y), bits(*got));
        }
        add_cols_dd(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x + *y), bits(*got));
        }
        sub_cols_dd(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x - *y), bits(*got));
        }
        div_cols_dd(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(*x / *y), bits(*got));
        }
        min_cols_dd(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(x.min(*y)), bits(*got));
        }
        max_cols_dd(&a, &b, &mut out);
        for ((x, y), got) in a.iter().zip(&b).zip(&out) {
            assert_eq!(bits(x.max(*y)), bits(*got));
        }
    }
}
