//! Integration tests for the features beyond the paper's core evaluation:
//! SIMD-intrinsics input (Sec. IV-B) and sound constant folding
//! (Sec. IV-B).

use safegen_suite::fpcore::Dd;
use safegen_suite::safegen::{compile_program_with, run_on, Compiler, RunConfig};
use safegen_suite::{cfront, ir};

// ---------------------------------------------------------------------------
// SIMD input
// ---------------------------------------------------------------------------

const SIMD_AXPY: &str = "void axpy(double a, double x[8], double y[8]) {
    for (int i = 0; i < 8; i += 4) {
        __m256d va = _mm256_set1_pd(a);
        __m256d vx = _mm256_loadu_pd(&x[i]);
        __m256d vy = _mm256_loadu_pd(&y[i]);
        __m256d r = _mm256_add_pd(_mm256_mul_pd(va, vx), vy);
        _mm256_storeu_pd(&y[i], r);
    }
}";

#[test]
fn simd_input_compiles_and_runs_soundly() {
    let compiled = Compiler::new()
        .compile(SIMD_AXPY)
        .expect("SIMD input accepted");
    let a = 0.3;
    let x: Vec<f64> = (0..8).map(|i| 0.1 * i as f64 + 0.05).collect();
    let y: Vec<f64> = (0..8).map(|i| 0.2 * i as f64 + 0.01).collect();
    let r = compiled
        .run(
            "axpy",
            &[a.into(), x.clone().into(), y.clone().into()],
            &RunConfig::affine_f64(8),
        )
        .unwrap();
    let out = &r.arrays.last().unwrap().1;
    for (i, (lo, hi)) in out.iter().enumerate() {
        let reference = Dd::from_two_prod(a, x[i]) + Dd::from(y[i]);
        assert!(
            Dd::from(*lo) <= reference && reference <= Dd::from(*hi),
            "lane {i}: {reference} outside [{lo}, {hi}]"
        );
    }
    assert!(
        r.acc_bits > 40.0,
        "one fma's worth of error: {}",
        r.acc_bits
    );
}

#[test]
fn simd_input_matches_scalar_equivalent_unsoundly() {
    let scalar = "void axpy(double a, double x[8], double y[8]) {
        for (int i = 0; i < 8; i++) { y[i] = a * x[i] + y[i]; }
    }";
    let cs = Compiler::new().compile(SIMD_AXPY).unwrap();
    let cv = Compiler::new().compile(scalar).unwrap();
    let x: Vec<f64> = (0..8).map(|i| 0.7f64.powi(i)).collect();
    let y: Vec<f64> = (0..8).map(|i| 1.1f64.powi(i)).collect();
    let args = [0.25.into(), x.into(), y.into()];
    let a = cs.run("axpy", &args, &RunConfig::unsound()).unwrap();
    let b = cv.run("axpy", &args, &RunConfig::unsound()).unwrap();
    assert_eq!(
        a.arrays, b.arrays,
        "SIMD lowering must match scalar semantics"
    );
}

// ---------------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------------

#[test]
fn constant_folding_reduces_ops_and_stays_sound() {
    let src = "double f(double x) {
        double c = 2.0 * 8.0 + 1.0;
        return x * c;
    }";
    // The compiler always folds; the unfolded program comes from the
    // same pipeline with the folding step left out.
    let cw = Compiler::new().compile(src).unwrap();
    let unit = cfront::rename_unique(&cfront::parse(src).unwrap());
    let sema = cfront::analyze(&unit).unwrap();
    let (tac, sema) = ir::to_tac_with_sema(&unit, &sema);
    let unfolded = compile_program_with(&tac.functions[0], &sema, &cw.passes).unwrap();

    let rw = cw
        .run("f", &[0.3.into()], &RunConfig::affine_f64(8))
        .unwrap();
    let ro = run_on(&unfolded, &[0.3.into()], &RunConfig::affine_f64(8)).unwrap();
    assert!(
        rw.stats.fp_ops < ro.stats.fp_ops,
        "folding must remove operations ({} vs {})",
        rw.stats.fp_ops,
        ro.stats.fp_ops
    );
    let reference = Dd::from_two_prod(0.3, 17.0);
    for r in [&rw, &ro] {
        let (lo, hi) = r.ret.unwrap();
        assert!(Dd::from(lo) <= reference && reference <= Dd::from(hi));
    }
    // Folding the exact chain must not lose accuracy.
    assert!(rw.acc_bits >= ro.acc_bits - 0.1);
}

#[test]
fn folding_never_applies_to_inexact_decimals() {
    let src = "double f(double x) { return x + (0.1 + 0.2); }";
    let compiled = Compiler::new().compile(src).unwrap();
    // 0.1 + 0.2 must still execute as an operation (2 ops total).
    let r = compiled
        .run("f", &[1.0.into()], &RunConfig::unsound())
        .unwrap();
    assert_eq!(r.stats.fp_ops, 2);
}
