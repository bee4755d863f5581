//! Where a `#pragma safegen` lands: for each placement case, which
//! record of the compiled program carries which pragma, and that the
//! scalar VM, the lane engine (width 4) and the fixpoint engine
//! (`--loop-mode fixpoint`) give bit-identical results on it.
//!
//! The rule (`safegen_cfront::resolve_pragmas`): a pragma governs the
//! simple statement it directly precedes; `prioritize(v)` applies to that
//! statement's first `+ − × ÷ √` when `v` is a float scalar in scope
//! there, `capacity(n)` to its first FP operation; the last of a kind
//! wins, and every other pragma is dropped.

use safegen_suite::safegen::{
    encode, run_lanes_on, run_on, ArgValue, Compiler, LoopMode, RunConfig, RunReport,
};

/// The function every case's body is wrapped in: `x` and `z` are float
/// parameters, `n` an int, `a` an array.
fn program(body: &str) -> String {
    format!("double f(double x, double z, int n, double a[2]) {{\n{body}\nreturn x; }}")
}

/// `(case, body, the rendered records that carry a pragma)`.
const CASES: &[(&str, &str, &[&str])] = &[
    (
        "prioritize before +",
        "#pragma safegen prioritize(z)\nx = x + z;",
        &["f0 = add f0, f1 [protect f1]"],
    ),
    (
        "prioritize before −",
        "#pragma safegen prioritize(z)\nx = x - z;",
        &["f0 = sub f0, f1 [protect f1]"],
    ),
    (
        "prioritize before ×",
        "#pragma safegen prioritize(z)\nx = x * z;",
        &["f0 = mul f0, f1 [protect f1]"],
    ),
    (
        "prioritize before ÷",
        "#pragma safegen prioritize(z)\nx = x / z;",
        &["f0 = div f0, f1 [protect f1]"],
    ),
    (
        "prioritize before √",
        "#pragma safegen prioritize(z)\nx = sqrt(z);",
        &["f0 = sqrt f1 [protect f1]"],
    ),
    (
        "prioritize before abs is dropped",
        "#pragma safegen prioritize(z)\nx = fabs(z);",
        &[],
    ),
    (
        "capacity before abs",
        "#pragma safegen capacity(2)\nx = fabs(z);",
        &["f0 = abs f1 [capacity 2]"],
    ),
    (
        "capacity before neg",
        "#pragma safegen capacity(2)\nx = -z;",
        &["f0 = neg f1 [capacity 2]"],
    ),
    (
        "capacity before min",
        "#pragma safegen capacity(2)\nx = fmin(x, z);",
        &["f0 = min f0, f1 [capacity 2]"],
    ),
    (
        "capacity before max",
        "#pragma safegen capacity(2)\nx = fmax(x, z);",
        &["f0 = max f0, f1 [capacity 2]"],
    ),
    (
        "prioritize before if is dropped",
        "#pragma safegen prioritize(z)\nif (n < 1) { x = x * z; }",
        &[],
    ),
    (
        "capacity before for is dropped",
        "#pragma safegen capacity(2)\nfor (int i = 0; i < 2; i++) { x = x * z; }",
        &[],
    ),
    (
        "no FP op: dropped, not pending",
        "#pragma safegen prioritize(z)\ndouble y = x;\nx = y * z;",
        &[],
    ),
    (
        "naming an array is dropped",
        "#pragma safegen prioritize(a)\nx = x * z;",
        &[],
    ),
    (
        "naming an int is dropped",
        "#pragma safegen prioritize(n)\nx = x * z;",
        &[],
    ),
    (
        "naming an out-of-scope variable is dropped",
        "if (n < 1) { double t = z * z; x = t; }\n#pragma safegen prioritize(t)\nx = x * z;",
        &[],
    ),
    (
        "two of a kind: the last wins",
        "#pragma safegen prioritize(x)\n#pragma safegen capacity(3)\n\
         #pragma safegen prioritize(z)\n#pragma safegen capacity(2)\nx = x * z;",
        &["f0 = mul f0, f1 [protect f1] [capacity 2]"],
    ),
    (
        "a local in scope, inside a loop",
        "for (int i = 0; i < 3; i++) { double w = z * 0.5;\n\
         #pragma safegen prioritize(w)\nx = x * w; }",
        &["f0 = mul f0, f2 [protect f2]"],
    ),
];

fn bits(r: &Result<RunReport, String>) -> String {
    match r {
        Ok(r) => {
            let pair = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
            format!(
                "{:?} {:?} {:?}",
                r.ret.map(pair),
                r.stats,
                r.acc_bits.to_bits()
            )
        }
        Err(e) => e.clone(),
    }
}

#[test]
fn each_pragma_rides_on_the_record_the_rule_names() {
    for &(case, body, want) in CASES {
        let src = program(body);
        let compiled = Compiler::new()
            .compile(&src)
            .unwrap_or_else(|e| panic!("{case}: {e}\n{src}"));
        let prog = compiled.program("f");
        let got: Vec<String> = prog
            .code
            .iter()
            .filter(|i| i.protect().is_some() || i.capacity().is_some())
            .map(|i| prog.render(i))
            .collect();
        assert_eq!(got, want, "{case}:\n{prog}");
    }
}

#[test]
fn scalar_lanes_and_fixpoint_agree_on_every_case() {
    let configs = [
        RunConfig::affine_f64(2),
        RunConfig::mnemonic(2, "ssnn").unwrap(),
        RunConfig::affine_dd(3),
    ];
    let inputs: Vec<Vec<ArgValue>> = (0..4)
        .map(|l| {
            let t = 0.1 * l as f64;
            vec![
                (0.7 + t).into(),
                (1.3 - t).into(),
                ArgValue::Int(l as i64 - 1),
                vec![0.5, t].into(),
            ]
        })
        .collect();
    for &(case, body, _) in CASES {
        let compiled = Compiler::new().compile(&program(body)).unwrap();
        let prog = compiled.program("f");
        let fixed = encode(prog).unwrap();
        for config in &configs {
            let fixpoint = config.clone().with_loop_mode(LoopMode::Fixpoint);
            let lanes = run_lanes_on(prog, &fixed, &inputs, config);
            for (l, args) in inputs.iter().enumerate() {
                let scalar = bits(&run_on(prog, args, config));
                let what = format!("{case}, {}, lane {l}", config.label());
                assert_eq!(bits(&lanes[l]), scalar, "{what}: lanes");
                assert_eq!(
                    bits(&run_on(prog, args, &fixpoint)),
                    scalar,
                    "{what}: fixpoint"
                );
            }
        }
    }
}
