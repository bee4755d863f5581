//! The benchmark programs of the paper's Table II, as C sources compiled
//! by SafeGen-rs, plus native (unsound, plain-`f64`) Rust implementations
//! serving as the slowdown baseline.
//!
//! * `henon` — the Hénon map `x' = 1 − a·x² + y`, `y' = b·x` with
//!   `a = 1.05`, `b = 0.3` (as in the paper), iterated.
//! * `sor`   — SciMark's Jacobi successive over-relaxation on an `n × n`
//!   grid, `ω = 1.25`.
//! * `luf`   — SciMark's LU factorization with partial pivoting.
//! * `fgm`   — a FiOrdOs-style fast gradient method for a box-constrained
//!   QP (the Model Predictive Control kernel).

use rand::rngs::StdRng;
use rand::Rng;
use safegen_api::ArgValue;
use std::fmt::Write;

/// Which benchmark, with its size parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Hénon map with the given iteration count.
    Henon {
        /// Number of map iterations.
        iters: usize,
    },
    /// Jacobi SOR on an `n × n` grid.
    Sor {
        /// Grid side length.
        n: usize,
        /// Relaxation sweeps.
        iters: usize,
    },
    /// LU factorization of an `n × n` matrix.
    Luf {
        /// Matrix side length.
        n: usize,
    },
    /// Fast gradient method on an `n`-variable box QP.
    Fgm {
        /// Number of decision variables.
        n: usize,
        /// Gradient iterations.
        iters: usize,
    },
}

/// A ready-to-run benchmark: C source, entry point, inputs, native
/// baseline.
#[derive(Debug)]
pub struct Workload {
    /// Which benchmark this is.
    pub kind: WorkloadKind,
    /// Display name (`henon`, `sor`, `luf`, `fgm`).
    pub name: &'static str,
    /// The C source fed to the compiler.
    pub source: String,
    /// Entry function name.
    pub func: &'static str,
}

impl Workload {
    /// The paper's default instances: `henon`, `sor` 10×10, `luf` 20×20,
    /// `fgm`.
    pub fn paper_suite() -> Vec<Workload> {
        vec![
            Workload::new(WorkloadKind::Henon { iters: 100 }),
            Workload::new(WorkloadKind::Sor { n: 10, iters: 30 }),
            Workload::new(WorkloadKind::Luf { n: 20 }),
            Workload::new(WorkloadKind::Fgm { n: 8, iters: 40 }),
        ]
    }

    /// Builds a workload of the given kind.
    pub fn new(kind: WorkloadKind) -> Workload {
        match kind {
            WorkloadKind::Henon { iters } => Workload {
                kind,
                name: "henon",
                source: henon_source(iters),
                func: "henon",
            },
            WorkloadKind::Sor { n, iters } => Workload {
                kind,
                name: "sor",
                source: sor_source(n, iters),
                func: "sor",
            },
            WorkloadKind::Luf { n } => Workload {
                kind,
                name: "luf",
                source: luf_source(n),
                func: "luf",
            },
            WorkloadKind::Fgm { n, iters } => Workload {
                kind,
                name: "fgm",
                source: fgm_source(n, iters),
                func: "fgm",
            },
        }
    }

    /// Fresh random inputs (uniform in `[0, 1)`, per the paper's setup).
    pub fn args(&self, rng: &mut StdRng) -> Vec<ArgValue> {
        match self.kind {
            WorkloadKind::Henon { .. } => vec![
                ArgValue::Float(rng.gen::<f64>()),
                ArgValue::Float(rng.gen::<f64>()),
                ArgValue::Array(vec![0.0, 0.0]),
            ],
            WorkloadKind::Sor { n, .. } => {
                vec![ArgValue::Array(
                    (0..n * n).map(|_| rng.gen::<f64>()).collect(),
                )]
            }
            WorkloadKind::Luf { n } => {
                // Uniform random matrix in [0, 1) with a mild diagonal
                // boost: partial pivoting keeps the factorization stable
                // (as in SciMark/the paper's setup) while the eliminations
                // still cancel aggressively.
                let mut a = vec![0.0f64; n * n];
                for (idx, v) in a.iter_mut().enumerate() {
                    let (i, j) = (idx / n, idx % n);
                    *v = rng.gen::<f64>() + if i == j { 1.0 } else { 0.0 };
                }
                vec![ArgValue::Array(a)]
            }
            WorkloadKind::Fgm { n, .. } => {
                // H = A'A/n + 0.05·I: strongly convex but ill-conditioned
                // (κ ≈ 25), the regime where the fast gradient method needs
                // its momentum — and where round-off accumulates, as in the
                // paper's MPC problem.
                let mut m = vec![0.0f64; n * n];
                for v in m.iter_mut() {
                    *v = rng.gen::<f64>();
                }
                let mut h = vec![0.0f64; n * n];
                for i in 0..n {
                    for j in 0..n {
                        let mut acc = 0.0;
                        for l in 0..n {
                            acc += m[l * n + i] * m[l * n + j];
                        }
                        h[i * n + j] = acc / n as f64 + if i == j { 0.05 } else { 0.0 };
                    }
                }
                // Put the unconstrained optimum at a random interior point
                // x̄ ∈ [0.2, 0.8]ⁿ (g = −H·x̄): the box constraints stay
                // inactive along the trajectory, so the clipping never
                // collapses the affine forms to exact constants and
                // round-off genuinely accumulates across iterations.
                let xbar: Vec<f64> = (0..n).map(|_| 0.3 + 0.4 * rng.gen::<f64>()).collect();
                let g: Vec<f64> = (0..n)
                    .map(|i| -(0..n).map(|j| h[i * n + j] * xbar[j]).sum::<f64>())
                    .collect();
                // Start near the optimum so the momentum iterates never
                // touch the box: saturation would reset the affine forms to
                // exact constants and erase the error history the benchmark
                // is supposed to accumulate.
                let x0: Vec<f64> = (0..n)
                    .map(|i| xbar[i] + 0.1 * (rng.gen::<f64>() - 0.5))
                    .collect();
                vec![
                    ArgValue::Array(h),
                    ArgValue::Array(g),
                    ArgValue::Array(x0),
                    ArgValue::Array(vec![0.0; n]),
                ]
            }
        }
    }

    /// Runs the benchmark natively (plain `f64`, no VM) on the given
    /// inputs; returns the result values — the paper's unsound baseline.
    pub fn native(&self, args: &[ArgValue]) -> Vec<f64> {
        match self.kind {
            WorkloadKind::Henon { iters } => {
                let (mut x, mut y) = (as_f(&args[0]), as_f(&args[1]));
                for _ in 0..iters {
                    let xn = 1.0 - 1.05 * x * x + y;
                    y = 0.3 * x;
                    x = xn;
                }
                vec![x, y]
            }
            WorkloadKind::Sor { n, iters } => {
                let mut g = as_arr(&args[0]);
                let om = 1.0 - 1.25;
                let oq = 1.25 * 0.25;
                for _ in 0..iters {
                    for i in 1..n - 1 {
                        for j in 1..n - 1 {
                            g[i * n + j] = oq
                                * (g[(i - 1) * n + j]
                                    + g[(i + 1) * n + j]
                                    + g[i * n + j - 1]
                                    + g[i * n + j + 1])
                                + om * g[i * n + j];
                        }
                    }
                }
                g
            }
            WorkloadKind::Luf { n } => {
                let mut a = as_arr(&args[0]);
                for k in 0..n - 1 {
                    // partial pivot
                    let mut p = k;
                    let mut maxv = a[k * n + k].abs();
                    for i in k + 1..n {
                        let v = a[i * n + k].abs();
                        if v > maxv {
                            maxv = v;
                            p = i;
                        }
                    }
                    for j in 0..n {
                        a.swap(k * n + j, p * n + j);
                    }
                    for i in k + 1..n {
                        a[i * n + k] /= a[k * n + k];
                        for j in k + 1..n {
                            a[i * n + j] -= a[i * n + k] * a[k * n + j];
                        }
                    }
                }
                a
            }
            WorkloadKind::Fgm { n, iters } => {
                let h = as_arr(&args[0]);
                let g = as_arr(&args[1]);
                let x0 = as_arr(&args[2]);
                let step = FGM_STEP;
                let beta = FGM_BETA;
                let mut x = x0.clone();
                let mut y = x0;
                let mut t = vec![0.0f64; n];
                for _ in 0..iters {
                    for i in 0..n {
                        let mut acc = 0.0;
                        for j in 0..n {
                            acc += h[i * n + j] * y[j];
                        }
                        let ti = y[i] - step * (acc + g[i]);
                        // Mirrors the C source's fmin(fmax(..)) exactly,
                        // including NaN behaviour (clamp would differ).
                        #[allow(clippy::manual_clamp)]
                        {
                            t[i] = ti.max(0.0).min(1.0);
                        }
                    }
                    for i in 0..n {
                        y[i] = t[i] + beta * (t[i] - x[i]);
                        x[i] = t[i];
                    }
                }
                x
            }
        }
    }
}

/// FGM step size `1/L` used by both source and native versions
/// (`L ≈ 1.3` for the generated Hessians).
pub const FGM_STEP: f64 = 0.7;
/// FGM momentum `β = (√L − √μ)/(√L + √μ)` for `L ≈ 1.3`, `µ = 0.05`.
pub const FGM_BETA: f64 = 0.67;

fn as_f(a: &ArgValue) -> f64 {
    match a {
        ArgValue::Float(x) => *x,
        _ => panic!("expected float argument"),
    }
}

fn as_arr(a: &ArgValue) -> Vec<f64> {
    match a {
        ArgValue::Array(x) => x.clone(),
        _ => panic!("expected array argument"),
    }
}

fn henon_source(iters: usize) -> String {
    format!(
        "void henon(double x, double y, double out[2]) {{
    for (int i = 0; i < {iters}; i++) {{
        double xn = 1.0 - 1.05 * x * x + y;
        y = 0.3 * x;
        x = xn;
    }}
    out[0] = x;
    out[1] = y;
}}\n"
    )
}

fn sor_source(n: usize, iters: usize) -> String {
    format!(
        "void sor(double G[{n}][{n}]) {{
    double om = 1.0 - 1.25;
    double oq = 1.25 * 0.25;
    for (int it = 0; it < {iters}; it++) {{
        for (int i = 1; i < {top}; i++) {{
            for (int j = 1; j < {top}; j++) {{
                G[i][j] = oq * (G[i - 1][j] + G[i + 1][j] + G[i][j - 1] + G[i][j + 1]) + om * G[i][j];
            }}
        }}
    }}
}}\n",
        top = n - 1
    )
}

fn luf_source(n: usize) -> String {
    format!(
        "void luf(double A[{n}][{n}]) {{
    for (int k = 0; k < {kmax}; k++) {{
        int p = k;
        double maxv = fabs(A[k][k]);
        for (int i = k + 1; i < {n}; i++) {{
            double v = fabs(A[i][k]);
            if (v > maxv) {{
                maxv = v;
                p = i;
            }}
        }}
        for (int j = 0; j < {n}; j++) {{
            double tmp = A[k][j];
            A[k][j] = A[p][j];
            A[p][j] = tmp;
        }}
        for (int i = k + 1; i < {n}; i++) {{
            A[i][k] = A[i][k] / A[k][k];
            for (int j = k + 1; j < {n}; j++) {{
                A[i][j] = A[i][j] - A[i][k] * A[k][j];
            }}
        }}
    }}
}}\n",
        kmax = n - 1
    )
}

fn fgm_source(n: usize, iters: usize) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "void fgm(double H[{n}][{n}], double g[{n}], double x0[{n}], double out[{n}]) {{
    double x[{n}];
    double y[{n}];
    double t[{n}];
    for (int i = 0; i < {n}; i++) {{
        x[i] = x0[i];
        y[i] = x0[i];
    }}
    for (int it = 0; it < {iters}; it++) {{
        for (int i = 0; i < {n}; i++) {{
            double acc = 0.0;
            for (int j = 0; j < {n}; j++) {{
                acc = acc + H[i][j] * y[j];
            }}
            double ti = y[i] - {FGM_STEP} * (acc + g[i]);
            t[i] = fmin(fmax(ti, 0.0), 1.0);
        }}
        for (int i = 0; i < {n}; i++) {{
            y[i] = t[i] + {FGM_BETA} * (t[i] - x[i]);
            x[i] = t[i];
        }}
    }}
    for (int i = 0; i < {n}; i++) {{
        out[i] = x[i];
    }}
}}\n"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use safegen_api::diag::{exec, Compiler, RunResult, UnsoundF64};
    use safegen_api::{DomainKind, RunConfig};

    fn check_vm_matches_native(w: &Workload, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let args = w.args(&mut rng);
        let native = w.native(&args);
        let compiled = Compiler::new().compile(&w.source).unwrap();
        let prog = compiled.program(w.func);
        let r: RunResult<UnsoundF64> = exec(prog, &args, &()).unwrap();
        let vm_vals: Vec<f64> = if let Some(v) = &r.ret {
            vec![v.0]
        } else {
            r.arrays.last().unwrap().1.iter().map(|v| v.0).collect()
        };
        // The VM must reproduce the native f64 results bit-for-bit for
        // henon/sor/fgm; luf's output is its full matrix.
        match w.kind {
            WorkloadKind::Luf { .. } | WorkloadKind::Sor { .. } => {
                assert_eq!(vm_vals, native, "{} mismatch", w.name);
            }
            WorkloadKind::Henon { .. } => {
                assert_eq!(vm_vals, native, "henon mismatch");
            }
            WorkloadKind::Fgm { .. } => {
                assert_eq!(vm_vals, native, "fgm mismatch");
            }
        }
    }

    #[test]
    fn henon_vm_bit_identical_to_native() {
        let w = Workload::new(WorkloadKind::Henon { iters: 25 });
        for seed in 0..3 {
            check_vm_matches_native(&w, seed);
        }
    }

    #[test]
    fn sor_vm_bit_identical_to_native() {
        let w = Workload::new(WorkloadKind::Sor { n: 6, iters: 4 });
        for seed in 0..3 {
            check_vm_matches_native(&w, seed);
        }
    }

    #[test]
    fn luf_vm_bit_identical_to_native() {
        let w = Workload::new(WorkloadKind::Luf { n: 6 });
        for seed in 0..3 {
            check_vm_matches_native(&w, seed);
        }
    }

    #[test]
    fn fgm_vm_bit_identical_to_native() {
        let w = Workload::new(WorkloadKind::Fgm { n: 4, iters: 10 });
        for seed in 0..3 {
            check_vm_matches_native(&w, seed);
        }
    }

    #[test]
    fn sound_runs_enclose_native_results() {
        for w in [
            Workload::new(WorkloadKind::Henon { iters: 15 }),
            Workload::new(WorkloadKind::Sor { n: 5, iters: 3 }),
            Workload::new(WorkloadKind::Fgm { n: 3, iters: 5 }),
        ] {
            let mut rng = StdRng::seed_from_u64(7);
            let args = w.args(&mut rng);
            let native = w.native(&args);
            let compiled = Compiler::new().compile(&w.source).unwrap();
            for cfg in [
                RunConfig::interval_f64(),
                RunConfig::affine_f64(8),
                RunConfig::affine_f64(16),
            ] {
                let rep = compiled.run(w.func, &args, &cfg).unwrap();
                let ranges: Vec<(f64, f64)> = rep.arrays.last().unwrap().1.clone();
                for (r, x) in ranges.iter().zip(&native) {
                    assert!(
                        r.0 <= *x && *x <= r.1,
                        "{} {:?}: {x} outside [{}, {}]",
                        w.name,
                        cfg.kind,
                        r.0,
                        r.1
                    );
                }
                let _ = DomainKind::Unsound;
            }
        }
    }

    #[test]
    fn luf_sound_run_encloses_native() {
        let w = Workload::new(WorkloadKind::Luf { n: 5 });
        let mut rng = StdRng::seed_from_u64(11);
        let args = w.args(&mut rng);
        let native = w.native(&args);
        let compiled = Compiler::new().compile(&w.source).unwrap();
        let rep = compiled
            .run(w.func, &args, &RunConfig::affine_f64(12))
            .unwrap();
        // Pivoting order may differ only if comparisons were undecided;
        // with well-separated magnitudes they are decided, so the outputs
        // must enclose the native factorization.
        let ranges = &rep.arrays.last().unwrap().1;
        for (r, x) in ranges.iter().zip(&native) {
            assert!(r.0 <= *x && *x <= r.1, "{x} outside [{}, {}]", r.0, r.1);
        }
    }

    #[test]
    fn paper_suite_compiles() {
        for w in Workload::paper_suite() {
            Compiler::new()
                .compile(&w.source)
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}\n{}", w.name, w.source));
        }
    }
}
