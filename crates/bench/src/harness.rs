//! Measurement harness (paper Sec. VII, experimental setup).
//!
//! Every measurement repeats `SAFEGEN_REPS` times (default 30, as in the
//! paper) on random inputs drawn uniformly from `[0, 1)` — the inputs are
//! affine forms with a random central value and one symbol of `1 ulp` —
//! and reports the **median runtime** and the **average worst-case
//! certified accuracy** across runs.
//!
//! Repetitions are independent, so they run through the facade's
//! parallel batch path ([`Program::eval_batch_seeded`]):
//! `SAFEGEN_THREADS` picks the worker count (default: all available
//! cores; `1` forces the serial path). Each repetition's inputs come
//! from its own RNG seeded by `BASE_SEED ^ rep`, which makes every
//! reported number except wall time **bit-identical for any thread
//! count** — see `safegen::batch` and `tests/batch_parallel.rs`.

use crate::workloads::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use safegen_api::{BatchOptions, EvalRequest, Program, RunConfig, RunStats, WorkerStats};
use safegen_telemetry as telemetry;
use safegen_telemetry::json::Json;
use std::path::PathBuf;
use std::sync::Once;
use std::time::Instant;

/// Minimum, median and maximum of a per-repetition statistic.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatRange {
    /// Smallest per-repetition value.
    pub min: f64,
    /// Median (upper) per-repetition value.
    pub median: f64,
    /// Largest per-repetition value.
    pub max: f64,
}

impl StatRange {
    /// Aggregates a non-empty sample; all-NaN/empty input yields zeros.
    pub fn of(xs: &[f64]) -> StatRange {
        if xs.is_empty() {
            return StatRange::default();
        }
        StatRange {
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            median: median(xs),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// The range as a `{min, median, max}` JSON object.
    pub fn to_json(self) -> Json {
        Json::obj(vec![
            ("min", Json::from(self.min)),
            ("median", Json::from(self.median)),
            ("max", Json::from(self.max)),
        ])
    }
}

/// One measured configuration on one workload.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Workload name.
    pub bench: String,
    /// Configuration label (paper notation).
    pub config: String,
    /// Median runtime of a sound run, seconds.
    pub runtime: f64,
    /// Median runtime of the native unsound baseline, seconds.
    pub native_runtime: f64,
    /// Slowdown vs the native baseline.
    pub slowdown: f64,
    /// Mean worst-case certified bits (clamped at 0 for display).
    pub acc_bits: f64,
    /// Mean undecided branches per run.
    pub undecided: f64,
    /// Per-repetition instruction counts.
    pub instrs: StatRange,
    /// Per-repetition floating-point operation counts.
    pub fp_ops: StatRange,
    /// Per-repetition undecided branch counts.
    pub undecided_range: StatRange,
    /// Mean fusion events per run (0 for non-affine configurations).
    pub fusions: f64,
    /// Mean condensations per run (0 for non-affine configurations).
    pub condensations: f64,
    /// Per-worker utilization of the batch run (one entry on the serial
    /// path).
    pub workers: Vec<WorkerStats>,
}

/// Seed of every measurement series; repetition `i` draws its inputs
/// from `StdRng::seed_from_u64(BASE_SEED ^ i)`.
pub const BASE_SEED: u64 = 0xC60_2022;

fn env_usize(name: &'static str, default: usize, warn: &'static Once) -> usize {
    match std::env::var(name) {
        Ok(s) => match s.trim().parse() {
            Ok(v) => v,
            Err(_) => {
                warn.call_once(|| {
                    eprintln!("warning: {name}={s:?} is not a number; using default {default}");
                });
                default
            }
        },
        Err(_) => default,
    }
}

/// Number of measurement repetitions (`SAFEGEN_REPS`, default 30).
/// An unparsable value falls back to the default with a warning (once).
pub fn reps() -> usize {
    static WARN: Once = Once::new();
    env_usize("SAFEGEN_REPS", 30, &WARN)
}

/// Worker threads for batch evaluation (`SAFEGEN_THREADS`; `0` or unset
/// = all available cores, `1` = serial). An unparsable value falls back
/// to the default with a warning (once).
pub fn threads() -> usize {
    static WARN: Once = Once::new();
    env_usize("SAFEGEN_THREADS", 0, &WARN)
}

/// True when `SAFEGEN_QUICK=1`: binaries shrink their sweeps.
pub fn quick() -> bool {
    std::env::var("SAFEGEN_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Prints the harness configuration banner (worker count, repetitions)
/// to stderr and installs the telemetry recorder from the environment
/// (`SAFEGEN_TRACE` / `SAFEGEN_METRICS_OUT`); figure binaries call this
/// once at startup so a saved log records how its numbers were produced.
pub fn announce(binary: &str) {
    telemetry::init_from_env(binary);
    let t = threads();
    let shown = BatchOptions::with_threads(t).resolve(usize::MAX);
    eprintln!(
        "{binary}: SAFEGEN_REPS={} SAFEGEN_THREADS={} ({} worker{}){}",
        reps(),
        t,
        shown,
        if shown == 1 { "" } else { "s" },
        if quick() { " [SAFEGEN_QUICK]" } else { "" },
    );
}

/// Median of a slice (not in-place).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Measures `config` on `workload` (already compiled): median runtime and
/// mean worst-case accuracy over [`reps`] random inputs, evaluated on
/// [`threads`] workers.
///
/// # Panics
///
/// Panics if the program fails to execute (the workloads are known-good).
pub fn measure(workload: &Workload, program: &Program, config: &RunConfig) -> Measurement {
    let n = reps();
    let make_input = |seed: u64, _i: usize| {
        let mut rng = StdRng::seed_from_u64(seed);
        workload.args(&mut rng)
    };
    // Warm the instruction/allocator caches outside the timed region (the
    // paper reports generation takes < 1 s and is not part of runtime).
    let _ = program
        .eval(&EvalRequest::new(workload.func, config.clone()).with_args(make_input(BASE_SEED, 0)));
    let batch = program
        .eval_batch_seeded(
            workload.func,
            config,
            n,
            BASE_SEED,
            make_input,
            &BatchOptions::with_threads(threads()),
        )
        .unwrap_or_else(|e| panic!("{} under {}: {e}", workload.name, config.label()))
        .batch;

    let times: Vec<f64> = batch.items.iter().map(|it| it.elapsed_s).collect();
    let accs: Vec<f64> = batch
        .items
        .iter()
        .map(|it| {
            let a = it.report.acc_bits;
            if a.is_finite() { a } else { 0.0 }.max(0.0)
        })
        .collect();
    // Aggregate the per-repetition execution statistics — every
    // repetition's RunStats, not just the batch total.
    let per_rep = |f: fn(&RunStats) -> u64| -> Vec<f64> {
        batch
            .items
            .iter()
            .map(|it| f(&it.report.stats) as f64)
            .collect()
    };
    let undecided_per_rep = per_rep(|s| s.undecided_branches);
    let native_runtime = measure_native(workload);
    let runtime = median(&times);
    let m = Measurement {
        bench: workload.name.to_string(),
        config: config.label(),
        runtime,
        native_runtime,
        slowdown: runtime / native_runtime,
        acc_bits: accs.iter().sum::<f64>() / accs.len() as f64,
        undecided: batch.stats.undecided_branches as f64 / n as f64,
        instrs: StatRange::of(&per_rep(|s| s.instrs)),
        fp_ops: StatRange::of(&per_rep(|s| s.fp_ops)),
        undecided_range: StatRange::of(&undecided_per_rep),
        fusions: batch.stats.fusions as f64 / n as f64,
        condensations: batch.stats.condensations as f64 / n as f64,
        workers: batch.workers.clone(),
    };
    if telemetry::enabled() {
        telemetry::record("measurement", vec![("measurement", m.to_json())]);
    }
    m
}

/// Median native (plain `f64`, compiled Rust) runtime of the workload —
/// the unsound baseline of every slowdown figure. Runs serially (the
/// native kernels are too fast for per-item parallel timing to help)
/// on the same per-repetition seeds as [`measure`].
pub fn measure_native(workload: &Workload) -> f64 {
    let n = reps();
    let mut times = Vec::with_capacity(n);
    // Batch enough inner iterations that the clock resolution is
    // irrelevant for the small kernels.
    let inner = 16;
    for i in 0..n {
        let mut rng = StdRng::seed_from_u64(BASE_SEED ^ i as u64);
        let args = workload.args(&mut rng);
        let t0 = Instant::now();
        let mut sink = 0.0f64;
        for _ in 0..inner {
            let out = workload.native(&args);
            sink += out.iter().sum::<f64>();
        }
        std::hint::black_box(sink);
        times.push(t0.elapsed().as_secs_f64() / inner as f64);
    }
    median(&times)
}

/// Prints measurements as CSV (one header + one line each).
pub fn print_csv(rows: &[Measurement]) {
    println!("bench,config,acc_bits,slowdown,runtime_s,native_s,undecided_branches");
    for m in rows {
        println!(
            "{},{},{:.2},{:.2},{:.3e},{:.3e},{:.1}",
            m.bench, m.config, m.acc_bits, m.slowdown, m.runtime, m.native_runtime, m.undecided
        );
    }
}

impl Measurement {
    /// The measurement as a JSON object (`results/BENCH_*.json` rows).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("bench", Json::from(self.bench.as_str())),
            ("config", Json::from(self.config.as_str())),
            ("median_ns", Json::from(self.runtime * 1e9)),
            ("native_ns", Json::from(self.native_runtime * 1e9)),
            ("slowdown", Json::from(self.slowdown)),
            ("speedup_vs_native", Json::from(1.0 / self.slowdown)),
            ("acc_bits", Json::from(self.acc_bits)),
            ("undecided_mean", Json::from(self.undecided)),
            ("instrs", self.instrs.to_json()),
            ("fp_ops", self.fp_ops.to_json()),
            ("undecided", self.undecided_range.to_json()),
            ("fusions_mean", Json::from(self.fusions)),
            ("condensations_mean", Json::from(self.condensations)),
            (
                "workers",
                Json::Arr(
                    self.workers
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("worker", Json::from(w.worker)),
                                ("items", Json::from(w.items)),
                                ("busy_s", Json::from(w.busy_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The whole result set as one JSON document.
pub fn rows_to_json(binary: &str, rows: &[Measurement]) -> Json {
    Json::obj(vec![
        ("binary", Json::from(binary)),
        ("reps", Json::from(reps())),
        ("base_seed", Json::from(BASE_SEED)),
        (
            "measurements",
            Json::Arr(rows.iter().map(Measurement::to_json).collect()),
        ),
    ])
}

/// Writes `doc` to `results/BENCH_<binary>.json` (creating `results/`
/// when needed) and returns the path.
///
/// # Errors
///
/// Returns the I/O error message on failure.
pub fn write_json(binary: &str, doc: &Json) -> Result<PathBuf, String> {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("BENCH_{binary}.json"));
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// The standard ending of every figure binary: writes the measurements
/// to `results/BENCH_<binary>.json` through [`export_json`].
pub fn export(binary: &str, rows: &[Measurement]) {
    export_json(binary, &rows_to_json(binary, rows));
}

/// Writes `doc` to `results/BENCH_<binary>.json` and flushes the
/// telemetry sink (the JSONL event log, when `SAFEGEN_METRICS_OUT` is
/// set). Failures are reported on stderr, never fatal — the tables
/// already went to stdout.
pub fn export_json(binary: &str, doc: &Json) {
    match write_json(binary, doc) {
        Ok(path) => eprintln!("{binary}: wrote {}", path.display()),
        Err(e) => eprintln!("{binary}: could not write results: {e}"),
    }
    match telemetry::flush() {
        Ok(Some(summary)) => eprintln!("{binary}: metrics written ({})", summary.display()),
        Ok(None) => {}
        Err(e) => eprintln!("{binary}: failed to write metrics: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WorkloadKind;
    use safegen_api::Engine;

    /// The env-mutating tests below share process-global state; serialize
    /// them so the parallel test runner cannot interleave their settings.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn compile(w: &Workload) -> Program {
        Engine::new().compile(&w.source, w.name).unwrap()
    }

    #[test]
    fn measurement_produces_sane_numbers() {
        let _env = ENV_LOCK.lock().unwrap();
        std::env::set_var("SAFEGEN_REPS", "3");
        let w = Workload::new(WorkloadKind::Henon { iters: 10 });
        let m = measure(&w, &compile(&w), &RunConfig::affine_f64(8));
        assert!(m.runtime > 0.0);
        assert!(m.native_runtime > 0.0);
        assert!(m.slowdown > 1.0, "sound must cost more than native");
        assert!(m.acc_bits >= 0.0 && m.acc_bits <= 53.0);
        std::env::remove_var("SAFEGEN_REPS");
    }

    #[test]
    fn accuracy_is_thread_count_invariant() {
        let _env = ENV_LOCK.lock().unwrap();
        std::env::set_var("SAFEGEN_REPS", "6");
        let w = Workload::new(WorkloadKind::Henon { iters: 10 });
        let program = compile(&w);
        std::env::set_var("SAFEGEN_THREADS", "1");
        let serial = measure(&w, &program, &RunConfig::affine_f64(8));
        std::env::set_var("SAFEGEN_THREADS", "3");
        let parallel = measure(&w, &program, &RunConfig::affine_f64(8));
        std::env::remove_var("SAFEGEN_THREADS");
        std::env::remove_var("SAFEGEN_REPS");
        assert_eq!(serial.acc_bits, parallel.acc_bits);
        assert_eq!(serial.undecided, parallel.undecided);
    }

    #[test]
    fn env_parsing_defaults_on_garbage() {
        let _env = ENV_LOCK.lock().unwrap();
        std::env::set_var("SAFEGEN_REPS", "thirty");
        assert_eq!(reps(), 30);
        std::env::remove_var("SAFEGEN_REPS");
        std::env::set_var("SAFEGEN_THREADS", "many");
        assert_eq!(threads(), 0);
        std::env::remove_var("SAFEGEN_THREADS");
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 3.0); // upper median
    }

    #[test]
    fn stat_range_of_samples() {
        let r = StatRange::of(&[3.0, 1.0, 2.0]);
        assert_eq!((r.min, r.median, r.max), (1.0, 2.0, 3.0));
        assert_eq!(StatRange::of(&[]), StatRange::default());
    }

    #[test]
    fn measurement_aggregates_per_rep_stats() {
        let _env = ENV_LOCK.lock().unwrap();
        std::env::set_var("SAFEGEN_REPS", "4");
        let w = Workload::new(WorkloadKind::Henon { iters: 10 });
        let m = measure(&w, &compile(&w), &RunConfig::affine_f64(8));
        std::env::remove_var("SAFEGEN_REPS");
        // Same program, same iteration count: every repetition executes
        // the same instruction stream.
        assert!(m.instrs.min > 0.0);
        assert_eq!(m.instrs.min, m.instrs.max);
        assert_eq!(m.fp_ops.min, m.fp_ops.median);
        assert!(!m.workers.is_empty());
        assert_eq!(m.workers.iter().map(|w| w.items).sum::<usize>(), 4);
    }

    #[test]
    fn json_export_is_valid() {
        let _env = ENV_LOCK.lock().unwrap();
        std::env::set_var("SAFEGEN_REPS", "2");
        let w = Workload::new(WorkloadKind::Henon { iters: 5 });
        let m = measure(&w, &compile(&w), &RunConfig::affine_f64(8));
        std::env::remove_var("SAFEGEN_REPS");
        let doc = rows_to_json("test", &[m]).to_string();
        let parsed = safegen_telemetry::json::parse(&doc).expect("valid JSON");
        let rows = parsed.get("measurements").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("bench").unwrap().as_str().unwrap(), "henon");
        assert!(rows[0].get("median_ns").unwrap().as_f64().unwrap() > 0.0);
    }
}
