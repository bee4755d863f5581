//! # safegen-bench
//!
//! The evaluation harness of SafeGen-rs: the four benchmarks of the
//! paper's Table II (`henon`, `sor`, `luf`, `fgm`), native unsound
//! baselines, timing/accuracy measurement, and the binaries that
//! regenerate every table and figure of Sec. VII:
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `cargo run --release -p safegen-bench --bin table3` | Table III (accuracy & speedup of ss/sm/so/ds at k = 40) |
//! | `cargo run --release -p safegen-bench --bin fig8`   | Fig. 8 (accuracy-vs-slowdown Pareto per benchmark) |
//! | `cargo run --release -p safegen-bench --bin fig9`   | Fig. 9 (comparison with Yalaa, Ceres, IGen) |
//! | `cargo run --release -p safegen-bench --bin fig10`  | Fig. 10 (accuracy vs matrix size for sor/luf) |
//! | `cargo run --release -p safegen-bench --bin ops`    | Sec. V arithmetic cost (ns per affine op, baselines, max-reuse solvers) |
//!
//! Set `SAFEGEN_REPS` (default 30, the paper's repetition count) and
//! `SAFEGEN_QUICK=1` (smaller sweeps) to trade fidelity for time.
//!
//! Every binary also writes its full result set to
//! `results/BENCH_<binary>.json`, and honors `SAFEGEN_TRACE=1` /
//! `SAFEGEN_METRICS_OUT=<prefix>` (see `safegen-telemetry`) for
//! per-phase timing and structured event logs.

pub mod harness;
pub mod workloads;

pub use harness::{
    export, export_json, measure, measure_native, print_csv, print_json, print_table, write_json,
    Measurement, StatRange,
};
pub use workloads::{Workload, WorkloadKind};
