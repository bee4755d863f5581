//! Property-based tests: the soundness invariant of the affine runtime.
//!
//! Random expression trees are evaluated simultaneously as affine forms
//! (under every placement × fusion × k combination) and in double-double
//! reference arithmetic; the dd result must always be inside the affine
//! range. Structural invariants (symbol budget, symbol ordering,
//! vectorized ≡ scalar) are checked alongside.

use proptest::prelude::*;
use safegen_affine::{
    AaConfig, AaContext, Affine, AffineDd, AffineF64, Fusion, Placement, Protect,
};
use safegen_fpcore::Dd;

/// A small random expression-program: a list of operations over a rolling
/// window of values.
#[derive(Clone, Debug)]
enum Op {
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    Div(usize, usize),
    Const(f64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Add(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Sub(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Mul(a, b)),
        (0usize..8, 0usize..8).prop_map(|(a, b)| Op::Div(a, b)),
        (0.1f64..4.0).prop_map(Op::Const),
    ]
}

fn program() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
    (
        prop::collection::vec(0.1f64..2.0, 4),
        prop::collection::vec(op_strategy(), 1..25),
    )
}

/// Relative error bound of one dd reference operation, with ample margin.
const DD_REF_REL: f64 = 1e-29;

/// Evaluates the program as affine forms and in dd, checking containment
/// after every step.
///
/// The dd reference is itself inexact (≈2⁻¹⁰⁴ relative per step), and a
/// full-AA enclosure after perfect cancellation can be *tighter* than the
/// reference's drift — so a running error bound `tol` is carried along and
/// containment is checked against the tolerance-widened range.
fn check_soundness(cfg: AaConfig, inputs: &[f64], ops: &[Op]) -> Result<(), TestCaseError> {
    let ctx = AaContext::new(cfg);
    let mut vals: Vec<AffineF64> = inputs
        .iter()
        .map(|&x| Affine::from_input(x, &ctx))
        .collect();
    let mut refs: Vec<(Dd, f64)> = inputs.iter().map(|&x| (Dd::from(x), 0.0)).collect();

    for op in ops {
        let n = vals.len();
        let (v, r, tol) = match *op {
            Op::Add(a, b) => {
                let (ra, ta) = refs[a % n];
                let (rb, tb) = refs[b % n];
                let r = ra + rb;
                (
                    vals[a % n].add(&vals[b % n], &ctx, Protect::None),
                    r,
                    ta + tb + DD_REF_REL * r.abs().hi(),
                )
            }
            Op::Sub(a, b) => {
                let (ra, ta) = refs[a % n];
                let (rb, tb) = refs[b % n];
                let r = ra - rb;
                (
                    vals[a % n].sub(&vals[b % n], &ctx, Protect::None),
                    r,
                    ta + tb + DD_REF_REL * r.abs().hi(),
                )
            }
            Op::Mul(a, b) => {
                let (ra, ta) = refs[a % n];
                let (rb, tb) = refs[b % n];
                let r = ra * rb;
                (
                    vals[a % n].mul(&vals[b % n], &ctx, Protect::None),
                    r,
                    ta * rb.abs().hi() + tb * ra.abs().hi() + DD_REF_REL * r.abs().hi(),
                )
            }
            Op::Div(a, b) => {
                let (lo, hi) = vals[b % n].range();
                if lo <= 0.0 && hi >= 0.0 {
                    continue; // skip divisions through zero
                }
                let (ra, ta) = refs[a % n];
                let (rb, tb) = refs[b % n];
                let r = ra / rb;
                let babs = rb.abs().hi().max(f64::MIN_POSITIVE);
                (
                    vals[a % n].div(&vals[b % n], &ctx, Protect::None),
                    r,
                    ta / babs + tb * ra.abs().hi() / (babs * babs) + DD_REF_REL * r.abs().hi(),
                )
            }
            Op::Const(c) => (Affine::constant(c, &ctx), Dd::from(c), 0.0),
        };
        let (lo, hi) = v.range();
        if lo.is_finite() && hi.is_finite() && tol.is_finite() {
            prop_assert!(
                Dd::from(lo) - Dd::from(tol) <= r && r <= Dd::from(hi) + Dd::from(tol),
                "dd reference {r} (±{tol:e}) escaped [{lo}, {hi}] after {op:?} (cfg {cfg:?})"
            );
        }
        prop_assert!(
            cfg.k == usize::MAX || v.n_symbols() <= cfg.k,
            "symbol budget violated"
        );
        vals.push(v);
        refs.push((r, tol));
        // Keep the window bounded.
        if vals.len() > 8 {
            vals.remove(0);
            refs.remove(0);
        }
    }
    Ok(())
}

fn all_configs(k: usize) -> Vec<AaConfig> {
    let mut cfgs = Vec::new();
    for placement in [Placement::Sorted, Placement::DirectMapped] {
        for fusion in [
            Fusion::Random,
            Fusion::Oldest,
            Fusion::Smallest,
            Fusion::MeanThreshold,
        ] {
            cfgs.push(
                AaConfig::new(k)
                    .with_placement(placement)
                    .with_fusion(fusion)
                    .with_vectorized(false),
            );
        }
    }
    cfgs.push(AaConfig::new(k)); // vectorized direct/smallest
    cfgs.push(AaConfig::full());
    cfgs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn soundness_all_configs_k4((inputs, ops) in program()) {
        for cfg in all_configs(4) {
            check_soundness(cfg, &inputs, &ops)?;
        }
    }

    #[test]
    fn soundness_all_configs_k12((inputs, ops) in program()) {
        for cfg in all_configs(12) {
            check_soundness(cfg, &inputs, &ops)?;
        }
    }

    #[test]
    fn soundness_k1_extreme((inputs, ops) in program()) {
        for placement in [Placement::Sorted, Placement::DirectMapped] {
            let cfg = AaConfig::new(1).with_placement(placement).with_vectorized(false);
            check_soundness(cfg, &inputs, &ops)?;
        }
    }

    #[test]
    fn vectorized_equals_scalar((inputs, ops) in program()) {
        let run = |vectorized: bool| -> Vec<(f64, f64)> {
            let ctx = AaContext::new(AaConfig::new(8).with_vectorized(vectorized));
            let mut vals: Vec<AffineF64> =
                inputs.iter().map(|&x| Affine::from_input(x, &ctx)).collect();
            let mut out = Vec::new();
            for op in &ops {
                let n = vals.len();
                let v = match *op {
                    Op::Add(a, b) => vals[a % n].add(&vals[b % n], &ctx, Protect::None),
                    Op::Sub(a, b) => vals[a % n].sub(&vals[b % n], &ctx, Protect::None),
                    Op::Mul(a, b) => vals[a % n].mul(&vals[b % n], &ctx, Protect::None),
                    Op::Div(a, b) => {
                        let (lo, hi) = vals[b % n].range();
                        if lo <= 0.0 && hi >= 0.0 { continue; }
                        vals[a % n].div(&vals[b % n], &ctx, Protect::None)
                    }
                    Op::Const(c) => Affine::constant(c, &ctx),
                };
                out.push(v.range());
                vals.push(v);
                if vals.len() > 8 { vals.remove(0); }
            }
            out
        };
        prop_assert_eq!(run(false), run(true));
    }

    #[test]
    fn radius_never_negative((inputs, ops) in program()) {
        let ctx = AaContext::new(AaConfig::new(6));
        let mut vals: Vec<AffineF64> =
            inputs.iter().map(|&x| Affine::from_input(x, &ctx)).collect();
        for op in &ops {
            let n = vals.len();
            let v = match *op {
                Op::Add(a, b) => vals[a % n].add(&vals[b % n], &ctx, Protect::None),
                Op::Sub(a, b) => vals[a % n].sub(&vals[b % n], &ctx, Protect::None),
                Op::Mul(a, b) => vals[a % n].mul(&vals[b % n], &ctx, Protect::None),
                _ => continue,
            };
            prop_assert!(v.radius() >= 0.0);
            let (lo, hi) = v.range();
            prop_assert!(lo <= hi);
            vals.push(v);
            if vals.len() > 8 { vals.remove(0); }
        }
    }

    #[test]
    fn full_aa_is_at_least_as_accurate_as_bounded((inputs, ops) in program()) {
        // Accuracy ordering: full AA ≥ bounded AA (k=4) on the final value.
        let run = |cfg: AaConfig| -> f64 {
            let ctx = AaContext::new(cfg);
            let mut vals: Vec<AffineF64> =
                inputs.iter().map(|&x| Affine::from_input(x, &ctx)).collect();
            let mut last = vals[0].clone();
            for op in &ops {
                let n = vals.len();
                let v = match *op {
                    Op::Add(a, b) => vals[a % n].add(&vals[b % n], &ctx, Protect::None),
                    Op::Sub(a, b) => vals[a % n].sub(&vals[b % n], &ctx, Protect::None),
                    Op::Mul(a, b) => vals[a % n].mul(&vals[b % n], &ctx, Protect::None),
                    _ => continue,
                };
                last = v.clone();
                vals.push(v);
                if vals.len() > 8 { vals.remove(0); }
            }
            last.acc_bits()
        };
        let full = run(AaConfig::full());
        let bounded = run(AaConfig::new(4).with_placement(Placement::Sorted).with_vectorized(false));
        // Tiny slack: the noise-merge order differs, costing at most a
        // fraction of a bit.
        prop_assert!(full >= bounded - 0.6, "full {full} < bounded {bounded}");
    }

    #[test]
    fn dda_center_contains_reference(x in 0.1f64..2.0, y in 0.1f64..2.0) {
        let ctx = AaContext::new(AaConfig::new(8).with_placement(Placement::Sorted).with_vectorized(false));
        let a = AffineDd::from_input(x, &ctx);
        let b = AffineDd::from_input(y, &ctx);
        let mut v = a.clone();
        let mut r = Dd::from(x);
        for _ in 0..10 {
            v = v.mul(&b, &ctx, Protect::None);
            r = r * Dd::from(y);
            prop_assert!(v.contains_dd(r));
        }
    }

    #[test]
    fn sqrt_recip_soundness(x in 0.01f64..100.0, w in 0.0f64..0.01) {
        let ctx = AaContext::new(AaConfig::new(8));
        let a = AffineF64::from_interval(x, x + w, &ctx);
        let s = a.sqrt(&ctx, Protect::None);
        // Both endpoints' exact square roots must be inside.
        prop_assert!(s.contains_dd(Dd::from(x).sqrt()));
        prop_assert!(s.contains_dd(Dd::from(x + w).sqrt()));
        let r = a.recip(&ctx, Protect::None);
        prop_assert!(r.contains_dd(Dd::ONE / Dd::from(x)));
        prop_assert!(r.contains_dd(Dd::ONE / Dd::from(x + w)));
    }

    #[test]
    fn protection_never_breaks_soundness((inputs, ops) in program()) {
        // Protecting arbitrary symbols is a performance hint, never a
        // soundness hazard.
        let ctx = AaContext::new(AaConfig::new(4).with_vectorized(false));
        let mut vals: Vec<AffineF64> =
            inputs.iter().map(|&x| Affine::from_input(x, &ctx)).collect();
        let mut refs: Vec<Dd> = inputs.iter().map(|&x| Dd::from(x)).collect();
        for op in &ops {
            let n = vals.len();
            let mut ids = Vec::new();
            vals[0].protect_ids_into(usize::MAX, &mut ids);
            let prot = Protect::Ids(&ids);
            let (v, r) = match *op {
                Op::Add(a, b) => (vals[a % n].add(&vals[b % n], &ctx, prot), refs[a % n] + refs[b % n]),
                Op::Sub(a, b) => (vals[a % n].sub(&vals[b % n], &ctx, prot), refs[a % n] - refs[b % n]),
                Op::Mul(a, b) => (vals[a % n].mul(&vals[b % n], &ctx, prot), refs[a % n] * refs[b % n]),
                _ => continue,
            };
            prop_assert!(v.contains_dd(r));
            prop_assert!(v.n_symbols() <= 4);
            vals.push(v);
            refs.push(r);
            if vals.len() > 8 { vals.remove(0); refs.remove(0); }
        }
    }
}
