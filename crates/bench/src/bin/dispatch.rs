//! Dispatch-throughput benchmark: the lane-major (SoA) batch engine vs
//! the scalar interpreter on the paper suite (DESIGN.md §10).
//!
//! For each workload × configuration the binary times a single-threaded
//! sweep over the same batch of input points twice — once through
//! [`run_on`] one point at a time, once through
//! [`run_lanes_on`] at lane widths {1, 4, 8, 16, 32, 64} — and reports
//! points-per-second plus the speedup of each width over the scalar
//! path. A bitwise spot check (first lane group vs scalar, per config)
//! guards against measuring a divergent engine; the exhaustive check is
//! `tests/lanes_differential.rs`.
//!
//! The fixed-width encoding stats (instruction count, superinstruction
//! fusions, hottest opcode pairs from [`pair_histogram`]) land
//! next to the timings in `results/BENCH_dispatch.json`. Usage:
//! `cargo run --release -p safegen-bench --bin dispatch`
//! (`SAFEGEN_QUICK=1` shrinks the sweep, `SAFEGEN_REPS` the repetitions).

use rand::rngs::StdRng;
use rand::SeedableRng;
use safegen_api::diag::{
    encode, pair_histogram, run_lanes_on, run_on, BytecodeProgram, Compiler, FixedProgram,
};
use safegen_api::{ArgValue, RunConfig, RunReport};
use safegen_bench::harness::{self, BASE_SEED};
use safegen_bench::Workload;
use safegen_telemetry::json::Json;
use std::hint::black_box;
use std::time::Instant;

/// Lane widths swept by the benchmark (the batch engine's auto widths,
/// 16 and 4, are both in range; 64 is `MAX_LANES`). Width 1 measures the
/// lane engine's own overhead against the scalar loop.
const WIDTHS: [usize; 6] = [1, 4, 8, 16, 32, 64];

/// One workload × configuration row.
struct Row {
    bench: String,
    config: String,
    items: usize,
    /// Median scalar throughput, points per second.
    scalar_per_s: f64,
    /// Per lane width: median throughput and speedup over scalar.
    widths: Vec<(usize, f64, f64)>,
}

impl Row {
    fn best(&self) -> (usize, f64) {
        self.widths
            .iter()
            .map(|&(w, _, s)| (w, s))
            .fold((0, 0.0), |acc, x| if x.1 > acc.1 { x } else { acc })
    }

    fn to_json(&self) -> Json {
        let (bw, bs) = self.best();
        Json::obj(vec![
            ("bench", Json::from(self.bench.as_str())),
            ("config", Json::from(self.config.as_str())),
            ("items", Json::from(self.items)),
            ("scalar_items_per_s", Json::from(self.scalar_per_s)),
            (
                "lanes",
                Json::Arr(
                    self.widths
                        .iter()
                        .map(|&(w, per_s, speedup)| {
                            Json::obj(vec![
                                ("width", Json::from(w)),
                                ("items_per_s", Json::from(per_s)),
                                ("speedup", Json::from(speedup)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("best_width", Json::from(bw)),
            ("best_speedup", Json::from(bs)),
        ])
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// The batch of input points timed below; item `i` draws from
/// `BASE_SEED ^ i` like the measurement harness does.
fn batch_inputs(w: &Workload, items: usize) -> Vec<Vec<ArgValue>> {
    (0..items)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(BASE_SEED ^ i as u64);
            w.args(&mut rng)
        })
        .collect()
}

/// Bitwise agreement of one lane group against per-point scalar runs —
/// a cheap guard that the timed engine computes the same results.
fn spot_check(
    prog: &BytecodeProgram,
    fixed: &FixedProgram,
    inputs: &[Vec<ArgValue>],
    config: &RunConfig,
    what: &str,
) {
    let bits = |r: &Result<RunReport, String>| match r {
        Ok(rep) => Ok((
            rep.ret.map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
            rep.acc_bits.to_bits(),
            rep.stats,
        )),
        Err(e) => Err(e.clone()),
    };
    for (l, laned) in run_lanes_on(prog, fixed, inputs, config).iter().enumerate() {
        let scalar = run_on(prog, &inputs[l], config);
        assert_eq!(
            bits(&scalar),
            bits(laned),
            "{what}: lane {l} diverged from the scalar interpreter"
        );
    }
}

fn main() {
    harness::announce("dispatch");
    let reps = if harness::quick() {
        3
    } else {
        harness::reps().min(10)
    };
    let items = if harness::quick() { 64 } else { 128 };
    let suite = Workload::paper_suite();
    let configs = [
        RunConfig::unsound(),
        RunConfig::interval_f64(),
        RunConfig::interval_dd(),
        RunConfig::affine_f64(8),
    ];

    let mut rows: Vec<Row> = Vec::new();
    let mut encodings: Vec<Json> = Vec::new();
    for w in &suite {
        let compiled = Compiler::new()
            .compile(&w.source)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for config in &configs {
            let prog = compiled.program_for(w.func, config);
            let fixed = encode(&prog).expect("every program encodes");
            if config.label() == configs[0].label() {
                let pairs = pair_histogram(&prog);
                encodings.push(Json::obj(vec![
                    ("bench", Json::from(w.name)),
                    ("instrs", Json::from(prog.code.len())),
                    ("fixed_instrs", Json::from(fixed.ops.len())),
                    ("fused", Json::from(fixed.fused)),
                    (
                        "top_pairs",
                        Json::Arr(
                            pairs
                                .iter()
                                .take(6)
                                .map(|&((a, b), n)| {
                                    Json::obj(vec![
                                        ("pair", Json::from(format!("{a}+{b}").as_str())),
                                        ("count", Json::from(n)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]));
            }
            let inputs = batch_inputs(w, items);
            spot_check(
                &prog,
                &fixed,
                &inputs[..8],
                config,
                &format!("{} {}", w.name, config.label()),
            );

            // Warm caches outside every timed region.
            let _ = black_box(run_on(&prog, &inputs[0], config));
            let mut scalar_t = Vec::with_capacity(reps);
            for _ in 0..reps {
                let t0 = Instant::now();
                for args in &inputs {
                    let _ = black_box(run_on(&prog, args, config));
                }
                scalar_t.push(items as f64 / t0.elapsed().as_secs_f64());
            }
            let scalar_per_s = median(&mut scalar_t);

            let mut widths = Vec::new();
            for lanes in WIDTHS {
                let _ = black_box(run_lanes_on(&prog, &fixed, &inputs[..lanes], config));
                let mut t = Vec::with_capacity(reps);
                for _ in 0..reps {
                    let t0 = Instant::now();
                    for chunk in inputs.chunks(lanes) {
                        black_box(run_lanes_on(&prog, &fixed, chunk, config));
                    }
                    t.push(items as f64 / t0.elapsed().as_secs_f64());
                }
                let per_s = median(&mut t);
                widths.push((lanes, per_s, per_s / scalar_per_s));
            }
            rows.push(Row {
                bench: w.name.to_string(),
                config: config.label(),
                items,
                scalar_per_s,
                widths,
            });
            eprintln!("dispatch: {} {} done", w.name, config.label());
        }
    }

    println!(
        "\n== lane dispatch throughput (points/s, {} points x {} reps) ==",
        items, reps
    );
    println!(
        "{:<8} {:<16} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "bench", "config", "scalar", "x1", "x4", "x8", "x16", "x32", "x64"
    );
    for r in &rows {
        print!("{:<8} {:<16} {:>12.0}", r.bench, r.config, r.scalar_per_s);
        for &(_, _, s) in &r.widths {
            print!(" {:>7.2}x", s);
        }
        println!();
    }
    for r in &rows {
        let (bw, bs) = r.best();
        let gated = r.config == "unsound" || r.config.starts_with("IGen");
        if gated && bs < 5.0 {
            eprintln!(
                "dispatch: WARNING {} {} best speedup {:.2}x (width {bw}) is below the 5x target",
                r.bench, r.config, bs
            );
        }
    }

    let doc = Json::obj(vec![
        ("binary", Json::from("dispatch")),
        ("reps", Json::from(reps)),
        ("items", Json::from(items)),
        ("base_seed", Json::from(BASE_SEED)),
        ("encodings", Json::Arr(encodings)),
        (
            "measurements",
            Json::Arr(rows.iter().map(Row::to_json).collect()),
        ),
    ]);
    harness::export_json("dispatch", &doc);
}
