//! # safegen-bench
//!
//! The evaluation harness of SafeGen-rs: the four benchmarks of the
//! paper's Table II (`henon`, `sor`, `luf`, `fgm`), native unsound
//! baselines, timing/accuracy measurement, and the binaries that
//! regenerate the tables and figures of Sec. VII:
//!
//! | target | regenerates | committed record |
//! |--------|-------------|------------------|
//! | `cargo run --release -p safegen-bench --bin table3` | Table III (accuracy & speedup of ss/sm/so/ds at k = 40) | `results/table3.txt`, `results/BENCH_table3.json` |
//! | `cargo run --release -p safegen-bench --bin fig8`   | Fig. 8 (accuracy-vs-slowdown Pareto per benchmark) | `results/fig8.txt` |
//! | `cargo run --release -p safegen-bench --bin fig9`   | Fig. 9 (comparison with Yalaa, Ceres, IGen) | `results/fig9.txt` |
//! | `cargo run --release -p safegen-bench --bin fig10`  | Fig. 10 (accuracy vs matrix size for sor/luf) | `results/fig10.txt` |
//! | `cargo run --release -p safegen-bench --bin sweep`  | ablation sweeps (iterations, symbol budget, prioritization) | `results/prio.txt` |
//! | `cargo run --release -p safegen-bench --bin ops`    | Sec. V arithmetic cost (ns per affine op, baselines, max-reuse solvers) | `results/BENCH_ops.json` |
//! | `cargo run --release -p safegen-bench --bin dispatch` | lane-major engine vs scalar dispatch (DESIGN.md §10) | `results/BENCH_dispatch.json` |
//! | `cargo run --release -p safegen-bench --bin fixpoint` | iterate-and-widen vs unrolling (DESIGN.md §12) | `results/BENCH_fixpoint.json` |
//! | `cargo run --release -p safegen-bench --bin trend`  | checks every `results/BENCH_*.json` | — |
//!
//! Set `SAFEGEN_REPS` (default 30, the paper's repetition count) and
//! `SAFEGEN_QUICK=1` (smaller sweeps) to trade fidelity for time.
//!
//! Every measuring binary also writes its full result set to
//! `results/BENCH_<binary>.json`, and honors `SAFEGEN_TRACE=1` /
//! `SAFEGEN_METRICS_OUT=<prefix>` (see `safegen-telemetry`) for
//! per-phase timing and structured event logs. The repository's timing
//! record is the separate benchmark package in `src/bin/perf` (its
//! committed runs are `results/BENCH_perf_<workload>.json`).

pub mod harness;
pub mod workloads;

pub use harness::{
    export, export_json, measure, measure_native, print_csv, write_json, Measurement, StatRange,
};
pub use workloads::{Workload, WorkloadKind};
