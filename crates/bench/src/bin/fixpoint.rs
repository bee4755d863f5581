//! Fixpoint-engine benchmark: iterate-and-widen vs. full unrolling.
//!
//! The fixpoint engine's value proposition is asymptotic: unrolling a
//! loop costs time linear in the trip count, while the widened solve is
//! O(iterations-to-stabilize) regardless of `n`. This binary measures
//! both sides of that trade on the golden loop kernels
//! (`tests/fixpoint_golden.rs`):
//!
//! * **unroll** — concrete unrolled evaluation at a ladder of trip
//!   counts (256, 4096, 65536), showing the linear cost;
//! * **fixpoint** — the widened solve at `n = 2^40`, a trip count no
//!   unroller could touch, with the solver's iteration/widening/
//!   narrowing counts and the final enclosure width;
//! * **amortization** — unroll time at the largest measured `n`
//!   divided by the fixpoint solve time (the ratio only grows with
//!   `n`, so this is a floor).
//!
//! Writes `results/BENCH_fixpoint.json`. `SAFEGEN_QUICK=1` shrinks the
//! unroll ladder; `SAFEGEN_REPS` sets the repetitions per timing.

use safegen_api::{ArgValue, Engine, EvalRequest, LoopMode, Program, RunConfig};
use safegen_bench::harness;
use safegen_telemetry::json::Json;
use std::time::Instant;

/// One loop kernel under test: a name, its source, and the float
/// arguments (the trailing `int n` trip count is supplied per mode).
struct Kernel {
    name: &'static str,
    src: &'static str,
    float_args: &'static [f64],
}

const KERNELS: &[Kernel] = &[
    Kernel {
        name: "decay",
        src: "double f(double x, int n) {
            double acc = x;
            int t = 0;
            while (t < n) { acc = 0.9 * acc + 1.0; t = t + 1; }
            return acc; }",
        float_args: &[1.0],
    },
    Kernel {
        name: "jacobi2",
        src: "double f(double a, double b, int n) {
            double u = a;
            double v = b;
            int t = 0;
            while (t < n) {
                u = 0.5 * (v + 1.0);
                v = 0.5 * (u + 1.0);
                t = t + 1;
            }
            return u + v; }",
        float_args: &[0.0, 0.0],
    },
    Kernel {
        name: "divergent",
        src: "double f(double x, int n) {
            double acc = x;
            int t = 0;
            while (t < n) { acc = acc * 2.0 + 1.0; t = t + 1; }
            return acc; }",
        float_args: &[1.0],
    },
];

fn args_with_trip(kernel: &Kernel, n: i64) -> Vec<ArgValue> {
    let mut args: Vec<ArgValue> = kernel
        .float_args
        .iter()
        .map(|&x| ArgValue::Float(x))
        .collect();
    args.push(ArgValue::Int(n));
    args
}

/// Median wall time in nanoseconds of `reps` runs of `f`.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

/// Measures one kernel under one analysis config, returning its JSON row.
fn measure(kernel: &Kernel, program: &Program, config: &RunConfig, reps: usize) -> Json {
    let unroll_ns: Vec<Json> = unroll_ladder()
        .iter()
        .map(|&n| {
            let args = args_with_trip(kernel, n);
            let cfg = config.clone().with_loop_mode(LoopMode::Unroll);
            let ns = time_ns(reps, || {
                program
                    .eval(&EvalRequest::new("f", cfg.clone()).with_args(args.clone()))
                    .unwrap();
            });
            Json::obj(vec![
                ("n", Json::Num(n as f64)),
                ("median_ns", Json::Num(ns)),
            ])
        })
        .collect();
    let largest_unroll_ns = unroll_ns
        .last()
        .and_then(|j| j.get("median_ns"))
        .and_then(|v| v.as_f64())
        .unwrap_or(f64::NAN);

    let fix_args = args_with_trip(kernel, 1 << 40);
    let fix_cfg = config
        .clone()
        .with_loop_mode(LoopMode::Fixpoint)
        .with_unroll_budget(4);
    let fix_req = EvalRequest::new("f", fix_cfg).with_args(fix_args);
    let fix_ns = time_ns(reps, || {
        program.eval(&fix_req).unwrap();
    });
    let result = program.eval(&fix_req).unwrap();
    let report = result.report();
    let (lo, hi) = report.ret.expect("kernel returns a value");

    Json::obj(vec![
        ("bench", Json::from(kernel.name)),
        ("config", Json::from(config.label())),
        ("unroll", Json::Arr(unroll_ns)),
        (
            "fixpoint",
            Json::obj(vec![
                ("n", Json::Num((1u64 << 40) as f64)),
                ("median_ns", Json::Num(fix_ns)),
                ("lo", Json::Num(lo)),
                ("hi", Json::Num(hi)),
                ("loops", Json::from(report.stats.fixpoint_loops)),
                ("iters", Json::from(report.stats.fixpoint_iters)),
                ("widenings", Json::from(report.stats.widenings)),
                ("narrowings", Json::from(report.stats.narrowings)),
            ]),
        ),
        ("amortization_floor", Json::Num(largest_unroll_ns / fix_ns)),
    ])
}

fn unroll_ladder() -> &'static [i64] {
    if harness::quick() {
        &[256, 4096]
    } else {
        &[256, 4096, 65536]
    }
}

fn main() {
    harness::announce("fixpoint");
    let reps = harness::reps();
    let mut rows = Vec::new();
    for kernel in KERNELS {
        let program = Engine::new()
            .compile(kernel.src, kernel.name)
            .expect("golden kernel compiles");
        for config in [RunConfig::interval_f64(), RunConfig::affine_f64(8)] {
            let row = measure(kernel, &program, &config, reps);
            if let (Some(ns), Some(ratio)) = (
                row.get("fixpoint")
                    .and_then(|f| f.get("median_ns"))
                    .and_then(|v| v.as_f64()),
                row.get("amortization_floor").and_then(|v| v.as_f64()),
            ) {
                println!(
                    "{:<10} {:<18} fixpoint {:>10.0} ns  amortization ≥ {:>8.1}x",
                    kernel.name,
                    config.label(),
                    ns,
                    ratio
                );
            }
            rows.push(row);
        }
    }

    let doc = Json::obj(vec![
        ("binary", Json::from("fixpoint")),
        ("reps", Json::from(reps)),
        ("base_seed", Json::from(harness::BASE_SEED)),
        ("measurements", Json::Arr(rows)),
    ]);
    harness::export_json("fixpoint", &doc);
}
