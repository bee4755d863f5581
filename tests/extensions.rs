//! Integration tests for the features beyond the paper's core evaluation:
//! SIMD-intrinsics input (Sec. IV-B), sound constant folding (Sec. IV-B),
//! and the variable-capacity extension (the future work of Sec. VIII).

use safegen_suite::fpcore::Dd;
use safegen_suite::safegen::{
    compile_program_with, run_on, Compiler, Placement, RunConfig, VariantKind,
};
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

// ---------------------------------------------------------------------------
// Variable capacity (future-work extension)
// ---------------------------------------------------------------------------

/// A program with a reuse-heavy head and a long reuse-free tail.
const MIXED: &str = "double f(double x, double z, double a) {
    double d = x * z - x * z;
    double t = a;
    for (int i = 0; i < 30; i++) {
        t = t * 1.01 + 0.5;
    }
    return d + t;
}";

fn sorted_cfg(k: usize, k_low: Option<usize>) -> RunConfig {
    let mut cfg = RunConfig::mnemonic(k, "sspn").unwrap();
    cfg.aa.placement = Placement::Sorted;
    cfg.capacity_low = k_low;
    cfg
}

#[test]
fn variable_capacity_is_sound() {
    let compiled = Compiler::new().compile(MIXED).unwrap();
    let args = [0.9.into(), 1.1.into(), 0.4.into()];
    let unsound = compiled.run("f", &args, &RunConfig::unsound()).unwrap();
    let (v, _) = unsound.ret.unwrap();
    for k_low in [1usize, 2, 4] {
        let r = compiled
            .run("f", &args, &sorted_cfg(16, Some(k_low)))
            .unwrap();
        let (lo, hi) = r.ret.unwrap();
        assert!(
            lo <= v && v <= hi,
            "k_low={k_low}: {v} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn variable_capacity_shrinks_symbol_work_without_killing_reuse() {
    let compiled = Compiler::new().compile(MIXED).unwrap();
    let args = [0.9.into(), 1.1.into(), 0.4.into()];
    let uniform = compiled.run("f", &args, &sorted_cfg(24, None)).unwrap();
    let mixed = compiled.run("f", &args, &sorted_cfg(24, Some(2))).unwrap();
    // The reuse-free tail dominates the op count; throttling it must not
    // hurt the certified accuracy materially (the cancellation of the
    // head survives at full budget).
    assert!(
        mixed.acc_bits >= uniform.acc_bits - 2.0,
        "mixed {} vs uniform {}",
        mixed.acc_bits,
        uniform.acc_bits
    );
}

#[test]
fn variable_capacity_program_contains_capacity_pragmas() {
    let compiled = Compiler::new().compile(MIXED).unwrap();
    let plain = compiled.program("f").clone();
    let vc = compiled.variant(
        "f",
        VariantKind::Capacity {
            k: 16,
            k_low: 2,
            prioritized: false,
        },
    );
    let capacities = |p: &ir::Program| p.code.iter().filter(|i| i.capacity().is_some()).count();
    assert_eq!(capacities(&plain), 0);
    assert!(
        capacities(&vc) > 0,
        "expected operations carrying a capacity in the variable-capacity program"
    );
}

#[test]
fn variable_capacity_noop_under_direct_mapping() {
    // Direct-mapped values have their slot count baked in; the override
    // must be ignored, not corrupt anything.
    let compiled = Compiler::new().compile(MIXED).unwrap();
    let args = [0.9.into(), 1.1.into(), 0.4.into()];
    let mut cfg = RunConfig::affine_f64(16);
    cfg.capacity_low = Some(2);
    let with = compiled.run("f", &args, &cfg).unwrap();
    let mut cfg2 = RunConfig::affine_f64(16);
    cfg2.capacity_low = None;
    let without = compiled.run("f", &args, &cfg2).unwrap();
    assert_eq!(with.ret, without.ret);
}
