//! Operation-level microbenchmarks (paper Sec. V, "Arithmetic cost").
//!
//! Three groups, each timed in isolation from the VM:
//!
//! * `aa_ops` — affine addition and multiplication under sorted (`ss`),
//!   direct-mapped (`ds`) and vectorized direct-mapped (`dsv`) placement,
//!   across the symbol-budget sweep k ∈ {8, 16, 32, 48}. Each op is the
//!   one the VM runs, `add_into` / `mul_into` on a warm output register,
//!   timed twice: on operands sharing every symbol (`add_dsv`), and on
//!   operands whose symbols conflict in every direct-mapped slot
//!   (`add_dsv_conflict`; paper-k8 sees conflicts in most slots);
//! * `baseline_ops` — the Ceres and yalaa-aff0 reimplementations against
//!   SafeGen's `dsv` multiplication at k = 16 (the library-overhead gap
//!   of Fig. 9);
//! * `maxreuse` — reuse enumeration plus the greedy and ILP max-reuse
//!   solvers on a reuse-dense synthetic kernel.
//!
//! The paper's claims checked here are relative, not absolute:
//! direct-mapped ops are much cheaper than sorted ops at equal k,
//! vectorized direct ops beat scalar direct ops (1.2–3×), and the per-op
//! cost grows linearly in k (EXPERIMENTS.md lists the paper's flop counts).
//!
//! Every row is timed with `std::time::Instant`: a calibration pass picks
//! the iteration count so one sample lasts about a millisecond, then
//! `SAFEGEN_REPS` samples give the min/median/max nanoseconds per call.
//! Writes `results/BENCH_ops.json`. Usage:
//! `cargo run --release -p safegen-bench --bin ops`
//! (`SAFEGEN_QUICK=1` shortens every sample).

use safegen_affine::baselines::{BaselineCtx, CeresAffine, YalaaAff0};
use safegen_affine::{AaConfig, AaContext, AffineF64, Placement, Protect};
use safegen_analysis::SolveMode;
use safegen_bench::harness::{self, StatRange, BASE_SEED};
use safegen_telemetry::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One timed operation.
struct Row {
    group: &'static str,
    name: String,
    /// Symbol budget, when the operation has one.
    k: Option<usize>,
    /// Calls per sample.
    iters: u64,
    /// Nanoseconds per call across the samples.
    ns: StatRange,
}

impl Row {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("group", Json::from(self.group)),
            ("name", Json::from(self.name.as_str())),
        ];
        if let Some(k) = self.k {
            fields.push(("k", Json::from(k)));
        }
        fields.push(("iters", Json::from(self.iters)));
        fields.push(("ns", self.ns.to_json()));
        Json::obj(fields)
    }
}

/// Times `f`: doubles the call count until one sample lasts `target`,
/// then takes `samples` samples of that many calls each.
fn time_op<R>(samples: usize, target: Duration, mut f: impl FnMut() -> R) -> (u64, StatRange) {
    let run = |n: u64, f: &mut dyn FnMut() -> R| {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(f());
        }
        t0.elapsed()
    };
    let mut iters = 1u64;
    while run(iters, &mut f) < target && iters < 1 << 30 {
        iters *= 2;
    }
    let ns: Vec<f64> = (0..samples.max(1))
        .map(|_| run(iters, &mut f).as_nanos() as f64 / iters as f64)
        .collect();
    (iters, StatRange::of(&ns))
}

/// Two affine operands with all k symbol slots populated and shared —
/// the steady state inside a numerical loop: `a ← a·b`, `b ← b + a`.
fn operands(ctx: &AaContext) -> (AffineF64, AffineF64) {
    let mut a = AffineF64::from_input(0.7, ctx);
    let mut b = AffineF64::from_input(1.3, ctx);
    // Two fresh symbols a round fill all k slots.
    for _ in 0..(ctx.k() + 4) {
        let t = a.mul(&b, ctx, Protect::None);
        b = b.add(&a, ctx, Protect::None);
        // `a·b` grows doubly exponentially and would overflow to ±∞/NaN
        // within the warm-up: scale both back by a power of two, which is
        // exact and adds no symbol.
        a = unit(&t, ctx);
        b = unit(&b, ctx);
    }
    (a, b)
}

/// `x` scaled by the power of two that brings its center into `[1, 2)`.
fn unit(x: &AffineF64, ctx: &AaContext) -> AffineF64 {
    let scale = 2f64.powi(-(x.center_f64().abs().log2().floor() as i32));
    x.mul(&AffineF64::exact(scale, ctx), ctx, Protect::None)
}

/// Panics unless both operands of a timed row have finite ranges: a
/// poisoned operand would time the ±∞/NaN paths instead of the op.
fn assert_finite(row: &str, k: usize, operands: [&AffineF64; 2]) {
    for x in operands {
        let (lo, hi) = x.range();
        assert!(
            lo.is_finite() && hi.is_finite(),
            "{row} at k = {k}: operand range ({lo}, {hi}) is not finite"
        );
    }
}

/// Two affine operands with all k slots populated by *different* symbols
/// (two independent chains), so every direct-mapped slot conflicts.
fn conflicting_operands(ctx: &AaContext) -> (AffineF64, AffineF64) {
    let chain = |x: f64| {
        let mut a = AffineF64::from_input(x, ctx);
        for _ in 0..(2 * ctx.k() + 4) {
            let c = AffineF64::from_input(x, ctx);
            a = a.mul(&c, ctx, Protect::None);
        }
        a.mul(&AffineF64::exact(1e-3, ctx), ctx, Protect::None)
    };
    (chain(0.7), chain(1.3))
}

/// A reuse-dense synthetic kernel: chained reconvergences of `x * z`.
fn reuse_kernel() -> String {
    let mut src = String::from("double f(double x, double z) {\n    double acc = 0.0;\n");
    for i in 0..12 {
        src.push_str(&format!(
            "    double a{i} = x * z;\n    double b{i} = acc * z;\n    acc = acc + a{i} - b{i};\n"
        ));
    }
    src.push_str("    return acc;\n}\n");
    src
}

fn main() {
    harness::announce("ops");
    let samples = harness::reps();
    let target = Duration::from_micros(if harness::quick() { 100 } else { 1000 });
    let mut rows: Vec<Row> = Vec::new();
    let mut push = |group, name: String, k, (iters, ns)| {
        rows.push(Row {
            group,
            name,
            k,
            iters,
            ns,
        })
    };

    for k in [8usize, 16, 32, 48] {
        for (tag, cfg) in [
            (
                "ss",
                AaConfig::new(k)
                    .with_placement(Placement::Sorted)
                    .with_vectorized(false),
            ),
            ("ds", AaConfig::new(k).with_vectorized(false)),
            ("dsv", AaConfig::new(k).with_vectorized(true)),
        ] {
            for (suffix, make) in [
                ("", operands as fn(&AaContext) -> (AffineF64, AffineF64)),
                ("_conflict", conflicting_operands),
            ] {
                let ctx = AaContext::new(cfg);
                let (a, b) = make(&ctx);
                assert_finite(&format!("{tag}{suffix}"), k, [&a, &b]);
                let mut out = a.clone();
                let add = time_op(samples, target, || {
                    a.add_into(black_box(&b), &ctx, Protect::None, &mut out)
                });
                push("aa_ops", format!("add_{tag}{suffix}"), Some(k), add);
                let mul = time_op(samples, target, || {
                    a.mul_into(black_box(&b), &ctx, Protect::None, &mut out)
                });
                push("aa_ops", format!("mul_{tag}{suffix}"), Some(k), mul);
            }
        }
    }

    let k = 16;
    let cctx = BaselineCtx::new();
    let mut ca = CeresAffine::from_input(0.7, k, &cctx);
    let mut cb = CeresAffine::from_input(1.3, k, &cctx);
    for _ in 0..(2 * k) {
        let t = ca.mul(&cb, &cctx);
        cb = cb.add(&ca, &cctx);
        ca = t;
    }
    let ceres = time_op(samples, target, || ca.mul(black_box(&cb), &cctx));
    push("baseline_ops", "ceres_mul".into(), Some(k), ceres);
    // yalaa-aff0 keeps every symbol: ~64 live after the warm-up.
    let yctx = BaselineCtx::new();
    let mut ya = YalaaAff0::from_input(0.7, &yctx);
    let yb = YalaaAff0::from_input(1.3, &yctx);
    for _ in 0..60 {
        ya = ya.mul(&yb, &yctx);
    }
    let yalaa = time_op(samples, target, || ya.mul(black_box(&yb), &yctx));
    push("baseline_ops", "yalaa_aff0_mul_64syms".into(), None, yalaa);
    let ctx = AaContext::new(AaConfig::new(k));
    let (a, b) = operands(&ctx);
    assert_finite("safegen_dsv_mul", k, [&a, &b]);
    let dsv = time_op(samples, target, || {
        a.mul(black_box(&b), &ctx, Protect::None)
    });
    push("baseline_ops", "safegen_dsv_mul".into(), Some(k), dsv);

    let unit = safegen_cfront::parse(&reuse_kernel()).expect("synthetic kernel parses");
    let sema = safegen_cfront::analyze(&unit).expect("synthetic kernel checks");
    let tac = safegen_ir::to_tac(&unit, &sema);
    let sema = safegen_cfront::analyze(&tac).expect("TAC checks");
    let dag = safegen_ir::build_dag(&tac.functions[0], &sema);
    let find = time_op(samples, target, || {
        safegen_analysis::find_reuses(black_box(&dag))
    });
    push("maxreuse", "find_reuses".into(), None, find);
    let reuses = safegen_analysis::find_reuses(&dag);
    for (name, mode) in [
        ("solve_greedy", SolveMode::Greedy),
        ("solve_ilp", SolveMode::Ilp),
    ] {
        let t = time_op(samples, target, || {
            safegen_analysis::solve_max_reuse(black_box(&reuses), 8, mode)
        });
        push("maxreuse", name.into(), Some(8), t);
    }

    println!("\n== operation cost (ns per call, {samples} samples) ==");
    println!(
        "{:<13} {:<22} {:>4} {:>12} {:>12} {:>12}",
        "group", "op", "k", "median", "min", "max"
    );
    for r in &rows {
        let k = r.k.map(|k| k.to_string()).unwrap_or_default();
        println!(
            "{:<13} {:<22} {:>4} {:>12.1} {:>12.1} {:>12.1}",
            r.group, r.name, k, r.ns.median, r.ns.min, r.ns.max
        );
    }
    eprintln!("ops: {} reuses in the maxreuse instance", reuses.len());

    let doc = Json::obj(vec![
        ("binary", Json::from("ops")),
        ("reps", Json::from(samples)),
        ("quick", Json::Bool(harness::quick())),
        ("base_seed", Json::from(BASE_SEED)),
        (
            "measurements",
            Json::Arr(rows.iter().map(Row::to_json).collect()),
        ),
    ]);
    harness::export_json("ops", &doc);
}
