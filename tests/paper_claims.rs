//! Integration tests pinning the paper's qualitative claims, so a
//! regression in any layer that would invalidate the reproduction fails
//! the test suite (small instances; the full-size numbers live in the
//! figure binaries and EXPERIMENTS.md).

use rand::rngs::StdRng;
use rand::SeedableRng;
use safegen_bench::{Workload, WorkloadKind};
use safegen_suite::safegen::{Compiler, RunConfig, VariantKind};

fn acc(w: &Workload, cfg: &RunConfig, seed: u64) -> f64 {
    let compiled = Compiler::new().compile(&w.source).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let args = w.args(&mut rng);
    compiled.run(w.func, &args, cfg).unwrap().acc_bits.max(0.0)
}

/// Paper Sec. VII-B: "For henon, IA loses all bits of accuracy even using
/// double-double, while f64a-dspv keeps 23 bits of precision when using
/// only k = 8 symbols."
#[test]
fn henon_ia_dies_aa_survives() {
    let w = Workload::new(WorkloadKind::Henon { iters: 100 });
    let ia = acc(&w, &RunConfig::interval_f64(), 2);
    let iadd = acc(&w, &RunConfig::interval_dd(), 2);
    let aa8 = acc(&w, &RunConfig::affine_f64(8), 2);
    let aa16 = acc(&w, &RunConfig::affine_f64(16), 2);
    assert!(ia < 2.0, "IGen-f64 should certify (almost) nothing: {ia}");
    assert!(
        iadd < 2.0,
        "IGen-dd should certify (almost) nothing: {iadd}"
    );
    assert!(aa8 > 5.0, "f64a k=8 must retain bits: {aa8}");
    assert!(aa16 > 12.0, "f64a k=16 must retain more: {aa16}");
    assert!(aa16 >= aa8);
}

/// Paper Sec. II-B: the motivating dependency-problem example.
#[test]
fn dependency_problem_x_minus_x() {
    let src = "double f(double x) { return x - x; }";
    let compiled = Compiler::new().compile(src).unwrap();
    let aa = compiled
        .run("f", &[0.5.into()], &RunConfig::affine_f64(4))
        .unwrap();
    assert_eq!(aa.ret.unwrap(), (0.0, 0.0), "AA must cancel x - x exactly");
    let ia = compiled
        .run("f", &[0.5.into()], &RunConfig::interval_f64())
        .unwrap();
    let (lo, hi) = ia.ret.unwrap();
    assert!(lo < 0.0 && hi > 0.0, "IA cannot cancel: [{lo}, {hi}]");
}

/// Paper Fig. 4 / Sec. VI: prioritizing the reused variable's symbols
/// improves accuracy under tight budgets.
#[test]
fn prioritization_helps_on_reuse_heavy_code() {
    // A chain of x·z − y·z style reconvergences, iterated.
    let src = "double f(double x, double y, double z) {
        double r = 0.0;
        for (int i = 0; i < 12; i++) {
            double t1 = x * z;
            double t2 = y * z;
            r = r + t1 - t2;
            x = x * 0.9;
            y = y * 0.9;
        }
        return r;
    }";
    let compiled = Compiler::new().compile(src).unwrap();
    let args = [0.8.into(), 0.8.into(), 1.1.into()];
    let with = compiled
        .run("f", &args, &RunConfig::mnemonic(3, "dspv").unwrap())
        .unwrap()
        .acc_bits;
    let without = compiled
        .run("f", &args, &RunConfig::mnemonic(3, "dsnv").unwrap())
        .unwrap()
        .acc_bits;
    assert!(
        with >= without,
        "prioritization regressed accuracy: {with} < {without}"
    );
}

/// Paper Table III: at equal k, direct-mapped SP accuracy is close to
/// sorted SP (within a few bits), the point of the placement trade-off.
#[test]
fn direct_mapped_accuracy_close_to_sorted() {
    for w in [
        Workload::new(WorkloadKind::Henon { iters: 40 }),
        Workload::new(WorkloadKind::Sor { n: 6, iters: 6 }),
    ] {
        let ss = acc(&w, &RunConfig::mnemonic(24, "ssnn").unwrap(), 3);
        let ds = acc(&w, &RunConfig::mnemonic(24, "dsnn").unwrap(), 3);
        assert!(
            ds > ss - 6.0,
            "{}: ds {ds} lost too much vs ss {ss}",
            w.name
        );
    }
}

/// Paper Sec. V: random fusion is the worst policy (it exists as the
/// baseline); smallest-value fusion dominates it.
#[test]
fn random_fusion_is_worst() {
    let w = Workload::new(WorkloadKind::Henon { iters: 60 });
    let sp = acc(&w, &RunConfig::mnemonic(8, "dsnn").unwrap(), 5);
    let rp = acc(&w, &RunConfig::mnemonic(8, "drnn").unwrap(), 5);
    assert!(
        sp >= rp - 0.5,
        "smallest-value fusion ({sp}) must not lose to random ({rp})"
    );
}

/// Paper Sec. VII: full AA (huge k) is the accuracy ceiling.
#[test]
fn full_aa_is_the_ceiling() {
    let w = Workload::new(WorkloadKind::Henon { iters: 40 });
    let mut full = RunConfig::affine_f64(4000);
    full.aa.placement = safegen_suite::safegen::Placement::Sorted;
    full.aa.vectorized = false;
    let ceiling = acc(&w, &full, 7);
    for k in [8usize, 16, 48] {
        let a = acc(&w, &RunConfig::affine_f64(k), 7);
        assert!(
            a <= ceiling + 0.5,
            "k={k} ({a}) exceeded the full-AA ceiling ({ceiling})"
        );
    }
}

/// Paper Fig. 10: luf's certificate decays with n, sor's stays flat.
#[test]
fn fig10_shape_in_miniature() {
    let cfg = RunConfig::affine_f64(12);
    let sor_small = acc(
        &Workload::new(WorkloadKind::Sor { n: 8, iters: 8 }),
        &cfg,
        9,
    );
    let sor_large = acc(
        &Workload::new(WorkloadKind::Sor { n: 16, iters: 8 }),
        &cfg,
        9,
    );
    let luf_small = acc(&Workload::new(WorkloadKind::Luf { n: 8 }), &cfg, 9);
    let luf_large = acc(&Workload::new(WorkloadKind::Luf { n: 24 }), &cfg, 9);
    assert!(
        (sor_small - sor_large).abs() < 6.0,
        "sor should be size-stable: {sor_small} vs {sor_large}"
    );
    assert!(
        luf_large < luf_small - 4.0,
        "luf certificate must decay with n: {luf_small} -> {luf_large}"
    );
}

/// Paper Sec. V: the vectorized kernels change performance, never results.
#[test]
fn vectorization_is_semantically_invisible() {
    for w in Workload::paper_suite() {
        let compiled = Compiler::new().compile(&w.source).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let args = w.args(&mut rng);
        let v = compiled
            .run(w.func, &args, &RunConfig::mnemonic(16, "dsnv").unwrap())
            .unwrap();
        let s = compiled
            .run(w.func, &args, &RunConfig::mnemonic(16, "dsnn").unwrap())
            .unwrap();
        assert_eq!(v.ret, s.ret, "{}", w.name);
        assert_eq!(v.arrays, s.arrays, "{}", w.name);
    }
}

/// The generation step is fast (paper: "The generation of each
/// implementation took less than a second for all considered benchmarks").
#[test]
fn compilation_is_fast() {
    let t0 = std::time::Instant::now();
    for w in Workload::paper_suite() {
        let compiled = Compiler::new().compile(&w.source).unwrap();
        let _ = compiled.variant(w.func, VariantKind::Prioritized { k: 16 });
    }
    let dt = t0.elapsed();
    assert!(dt.as_secs_f64() < 5.0, "compilation too slow: {dt:?}");
}
