//! End-to-end integration tests: C source in, certified enclosures out,
//! across every numeric domain, checked against high-precision references.

use safegen_suite::fpcore::Dd;
use safegen_suite::safegen::{ArgValue, Compiler, RunConfig};

/// All sound configurations worth exercising end-to-end.
fn sound_configs() -> Vec<RunConfig> {
    let mut v = vec![
        RunConfig::interval_f64(),
        RunConfig::interval_dd(),
        RunConfig::yalaa_aff0(),
        RunConfig::yalaa_aff1(),
        RunConfig::ceres(8),
        RunConfig::affine_dd(8),
        RunConfig::affine_f32(8),
    ];
    for k in [2usize, 8, 24] {
        v.push(RunConfig::affine_f64(k));
        v.push(RunConfig::mnemonic(k, "ssnn").unwrap());
        v.push(RunConfig::mnemonic(k, "smpn").unwrap());
        v.push(RunConfig::mnemonic(k, "sonn").unwrap());
        v.push(RunConfig::mnemonic(k, "srnn").unwrap());
        v.push(RunConfig::mnemonic(k, "dsnn").unwrap());
        v.push(RunConfig::mnemonic(k, "dsnv").unwrap());
    }
    v
}

/// Checks that every sound config's output range contains the dd
/// reference of the returned value.
fn assert_sound(src: &str, func: &str, args: &[ArgValue], reference: Dd) {
    let compiled = Compiler::new().compile(src).unwrap();
    for cfg in sound_configs() {
        let r = compiled.run(func, args, &cfg).unwrap();
        let (lo, hi) = r.ret.expect("function returns a value");
        assert!(
            Dd::from(lo) <= reference && reference <= Dd::from(hi),
            "{}: reference {reference} outside [{lo}, {hi}]\nsource: {src}",
            cfg.label()
        );
    }
}

#[test]
fn polynomial_horner() {
    // p(x) = ((x - 0.5)x + 0.25)x - 0.125 at x = 0.3, Horner form.
    let src = "double p(double x) {
        double r = x - 0.5;
        r = r * x + 0.25;
        r = r * x - 0.125;
        return r;
    }";
    let x = Dd::from(0.3);
    let reference = ((x - Dd::from(0.5)) * x + Dd::from(0.25)) * x - Dd::from(0.125);
    assert_sound(src, "p", &[0.3.into()], reference);
}

#[test]
fn cancellation_chain() {
    // (a + b)² − a² − 2ab − b² = 0 exactly in real arithmetic.
    let src = "double f(double a, double b) {
        double s = a + b;
        double s2 = s * s;
        double r = s2 - a * a;
        r = r - 2.0 * a * b;
        r = r - b * b;
        return r;
    }";
    let compiled = Compiler::new().compile(src).unwrap();
    for cfg in sound_configs() {
        let r = compiled.run("f", &[0.7.into(), 0.4.into()], &cfg).unwrap();
        let (lo, hi) = r.ret.unwrap();
        // Everything is O(ulp) of the working precision: even IA must stay
        // tight here (f32a centers make the ulp ~2^-24 instead of 2^-53).
        let tight = if cfg.label().starts_with("f32a") {
            1e-5
        } else {
            1e-13
        };
        assert!(
            lo <= tight && hi >= -tight,
            "{}: 0 outside [{lo}, {hi}]",
            cfg.label()
        );
        assert!(hi - lo < tight, "{}: width {}", cfg.label(), hi - lo);
    }
}

#[test]
fn loop_accumulation() {
    let src = "double acc(double x, int n) {
        double s = 0.0;
        for (int i = 0; i < n; i++) {
            s = s + x * x;
        }
        return s;
    }";
    let x = Dd::from(0.1);
    let mut reference = Dd::ZERO;
    for _ in 0..25 {
        reference = reference + x * x;
    }
    assert_sound(src, "acc", &[0.1.into(), 25i64.into()], reference);
}

#[test]
fn division_and_sqrt() {
    let src = "double f(double a, double b) {
        double q = a / b;
        return sqrt(q + 1.0);
    }";
    let reference = (Dd::from(0.9) / Dd::from(1.7) + Dd::ONE).sqrt();
    assert_sound(src, "f", &[0.9.into(), 1.7.into()], reference);
}

#[test]
fn branches_on_sound_values() {
    let src = "double f(double x) {
        if (x < 0.25) {
            return x * 2.0;
        } else {
            return x + 1.0;
        }
    }";
    // Well away from the threshold: all domains decide the branch soundly.
    assert_sound(src, "f", &[0.1.into()], Dd::from(0.2));
    assert_sound(src, "f", &[0.9.into()], Dd::from(1.9));
}

#[test]
fn arrays_and_nested_loops() {
    let src = "void smooth(double a[6]) {
        for (int it = 0; it < 3; it++) {
            for (int i = 1; i < 5; i++) {
                a[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
            }
        }
    }";
    let compiled = Compiler::new().compile(src).unwrap();
    let input = vec![0.1, 0.9, 0.3, 0.7, 0.5, 0.2];
    // dd reference
    let mut reference: Vec<Dd> = input.iter().map(|&x| Dd::from(x)).collect();
    for _ in 0..3 {
        for i in 1..5 {
            reference[i] = Dd::from(0.25) * reference[i - 1]
                + Dd::from(0.5) * reference[i]
                + Dd::from(0.25) * reference[i + 1];
        }
    }
    for cfg in sound_configs() {
        let r = compiled
            .run("smooth", &[input.clone().into()], &cfg)
            .unwrap();
        let out = &r.arrays[0].1;
        for ((lo, hi), reference) in out.iter().zip(&reference) {
            assert!(
                Dd::from(*lo) <= *reference && *reference <= Dd::from(*hi),
                "{}: {reference} outside [{lo}, {hi}]",
                cfg.label()
            );
        }
    }
}

#[test]
fn shadowed_names_compile_and_run() {
    let src = "double f(double x) {
        double t = x * 2.0;
        for (int i = 0; i < 2; i++) {
            double t = x + 1.0;
            x = t * 0.5;
        }
        for (int i = 0; i < 2; i++) {
            x = x + t;
        }
        return x;
    }";
    let compiled = Compiler::new().compile(src).unwrap();
    let unsound = compiled
        .run("f", &[0.3.into()], &RunConfig::unsound())
        .unwrap();
    let (v, _) = unsound.ret.unwrap();
    // Native semantics: t = 0.6; x: 0.3→(1.3*0.5)=0.65→(1.65*0.5)=0.825;
    // then +0.6 twice = 2.025.
    assert!((v - 2.025).abs() < 1e-12, "v = {v}");
    let sound = compiled
        .run("f", &[0.3.into()], &RunConfig::affine_f64(8))
        .unwrap();
    let (lo, hi) = sound.ret.unwrap();
    assert!(lo <= v && v <= hi);
}

#[test]
fn affine_beats_interval_on_dependent_code() {
    // x·(1−x) + x·x − x = 0 in real arithmetic: heavy reuse of x.
    let src = "double f(double x) {
        double a = 1.0 - x;
        double r = x * a + x * x - x;
        return r;
    }";
    let compiled = Compiler::new().compile(src).unwrap();
    let ia = compiled
        .run("f", &[0.6.into()], &RunConfig::interval_f64())
        .unwrap();
    let aa = compiled
        .run("f", &[0.6.into()], &RunConfig::affine_f64(8))
        .unwrap();
    let (ilo, ihi) = ia.ret.unwrap();
    let (alo, ahi) = aa.ret.unwrap();
    assert!(
        (ahi - alo) < (ihi - ilo),
        "AA [{alo},{ahi}] not tighter than IA [{ilo},{ihi}]"
    );
}

#[test]
fn undecided_branches_are_counted_and_sound() {
    let src = "double f(double x) {
        if (x < 0.5) {
            return x * 2.0;
        }
        return x * 4.0;
    }";
    let compiled = Compiler::new().compile(src).unwrap();
    // Input exactly at the threshold: the ±1ulp input range straddles it.
    let r = compiled
        .run("f", &[0.5.into()], &RunConfig::affine_f64(8))
        .unwrap();
    assert_eq!(r.stats.undecided_branches, 1);
}

#[test]
fn stats_fp_ops_match_across_domains() {
    let src = "double f(double x) {
        double s = 0.0;
        for (int i = 0; i < 7; i++) { s = s + x; }
        return s;
    }";
    let compiled = Compiler::new().compile(src).unwrap();
    let a = compiled
        .run("f", &[0.1.into()], &RunConfig::unsound())
        .unwrap();
    let b = compiled
        .run("f", &[0.1.into()], &RunConfig::affine_f64(4))
        .unwrap();
    assert_eq!(a.stats.fp_ops, b.stats.fp_ops);
    assert_eq!(a.stats.fp_ops, 7);
}

/// Integer `+ − ×` wrap and `/` reports its two failures as errors on
/// the scalar VM, every lane of a 4-lane group, and the fixpoint
/// engine alike; a constant `MIN / -1` also survives the compiler's
/// folder and the analysis.
#[test]
fn integer_overflow_wraps_and_division_errors_on_every_path() {
    use safegen_suite::safegen::{encode, run_lanes_on, run_on, LoopMode};
    let src = "double f(int a, int b, int n) {
        int c = 0;
        for (int i = 0; i < n; i++) { c = a / b + a * b - a; }
        return c;
    }
    double g(double x) { int m = -9223372036854775807 - 1; int q = m / -1; return x + q; }";
    let compiled = Compiler::new().compile(src).unwrap();
    let (min, max) = (i64::MIN, i64::MAX);
    let args = |a: i64, b: i64| vec![ArgValue::Int(a), ArgValue::Int(b), ArgValue::Int(3)];
    let wrapped = (max / 2)
        .wrapping_add(max.wrapping_mul(2))
        .wrapping_sub(max) as f64;
    let cases = [
        (args(min, -1), Err("integer division overflow")),
        (args(max, 2), Ok(wrapped)),
        (args(7, 0), Err("integer division by zero")),
        (
            args(min, 1),
            Ok(min.wrapping_add(min).wrapping_sub(min) as f64),
        ),
    ];
    let check =
        |path: &str, i: usize, got: Result<Option<(f64, f64)>, String>| match (&cases[i].1, got) {
            (Ok(want), Ok(Some((lo, hi)))) => {
                assert_eq!((lo, hi), (*want, *want), "{path} case {i}")
            }
            (Err(want), Err(e)) => assert_eq!(&e, want, "{path} case {i}"),
            (want, got) => panic!("{path} case {i}: want {want:?}, got {got:?}"),
        };
    for mode in [LoopMode::Unroll, LoopMode::Fixpoint] {
        let config = RunConfig::unsound().with_loop_mode(mode);
        let prog = compiled.program_for("f", &config);
        for (i, (a, _)) in cases.iter().enumerate() {
            check(mode.as_str(), i, run_on(&prog, a, &config).map(|r| r.ret));
        }
    }
    let config = RunConfig::unsound();
    let prog = compiled.program_for("f", &config);
    let inputs: Vec<Vec<ArgValue>> = cases.iter().map(|(a, _)| a.clone()).collect();
    let lanes = run_lanes_on(&prog, &encode(&prog).unwrap(), &inputs, &config);
    for (i, got) in lanes.into_iter().enumerate() {
        check("lanes", i, got.map(|r| r.ret));
    }
    let e = compiled
        .run("g", &[ArgValue::Float(1.0)], &RunConfig::affine_f64(8))
        .unwrap_err();
    assert!(e.contains("integer division overflow"), "{e}");
}

/// An integer subexpression of a float expression is integer arithmetic,
/// as in C: `a / b` truncates before the conversion to double, on the
/// scalar VM and in a lane group, under the unsound, IGen-f64 and
/// f64a-dspv configurations, and the TAC spills it to an `int`.
#[test]
fn integer_subexpressions_of_float_expressions_stay_integer() {
    use safegen_suite::safegen::{encode, run_lanes_on, run_on};
    let src = "double g(int a, int b) { double d = a / b; return d; }
    double f(double x) { double d = x + 7 / 2; return d; }";
    let compiled = Compiler::new().compile(src).unwrap();
    let tac = safegen_suite::cfront::print_unit(&compiled.tac);
    assert!(tac.contains("double d = a / b;"), "{tac}");
    assert!(tac.contains("int _t1 = 7 / 2;"), "{tac}");
    assert!(tac.contains("double d = x + _t1;"), "{tac}");

    let g_cases = [
        ((7, 2), Ok(3.0)),
        ((-7, 2), Ok(-3.0)),
        ((9, 4), Ok(2.0)),
        ((1, 0), Err("integer division by zero")),
    ];
    let f_cases = [(0.0, 3.0), (0.5, 3.5), (-3.0, 0.0), (1.0, 4.0)];
    let check =
        |what: &str, got: Result<Option<(f64, f64)>, String>, want: Result<f64, &str>| match (
            want, got,
        ) {
            (Ok(w), Ok(Some((lo, hi)))) => {
                assert!(lo <= w && w <= hi, "{what}: {w} outside [{lo}, {hi}]");
                assert!(
                    hi - lo < 0.5,
                    "{what}: [{lo}, {hi}] is not the integer quotient"
                );
            }
            (Err(w), Err(e)) => assert_eq!(e, w, "{what}"),
            (want, got) => panic!("{what}: want {want:?}, got {got:?}"),
        };
    for config in [
        RunConfig::unsound(),
        RunConfig::interval_f64(),
        RunConfig::affine_f64(8),
    ] {
        let label = config.label();
        let g_inputs: Vec<Vec<ArgValue>> = g_cases
            .iter()
            .map(|&((a, b), _)| vec![ArgValue::Int(a), ArgValue::Int(b)])
            .collect();
        let f_inputs: Vec<Vec<ArgValue>> = f_cases
            .iter()
            .map(|&(x, _)| vec![ArgValue::Float(x)])
            .collect();
        let g = compiled.program_for("g", &config);
        let f = compiled.program_for("f", &config);
        let g_lanes = run_lanes_on(&g, &encode(&g).unwrap(), &g_inputs, &config);
        let f_lanes = run_lanes_on(&f, &encode(&f).unwrap(), &f_inputs, &config);
        assert_eq!((g_lanes.len(), f_lanes.len()), (4, 4));
        for (i, ((args, (_, want)), lane)) in g_inputs.iter().zip(&g_cases).zip(g_lanes).enumerate()
        {
            let scalar = run_on(&g, args, &config).map(|r| r.ret);
            check(&format!("{label} g scalar {i}"), scalar, *want);
            check(&format!("{label} g lane {i}"), lane.map(|r| r.ret), *want);
        }
        for (i, ((args, (_, want)), lane)) in f_inputs.iter().zip(&f_cases).zip(f_lanes).enumerate()
        {
            let scalar = run_on(&f, args, &config).map(|r| r.ret);
            check(&format!("{label} f scalar {i}"), scalar, Ok(*want));
            check(
                &format!("{label} f lane {i}"),
                lane.map(|r| r.ret),
                Ok(*want),
            );
        }
    }
}
