//! Parallel batch evaluation of one compiled [`Program`] over many input
//! sets.
//!
//! The measurement harness (and any user evaluating a sound function over
//! an input sweep) runs the *same* program on *many* argument vectors.
//! Each run is independent — [`run_on`] builds a fresh
//! domain context per call — so the batch is embarrassingly parallel.
//! This module distributes the items over `std::thread::scope` workers
//! (std-only; no external thread-pool dependency).
//!
//! ## Threading model
//!
//! * [`Program`] and [`RunConfig`] are plain data (`Send + Sync`,
//!   asserted at compile time below); all workers share one borrow of
//!   each.
//! * The affine context ([`AaContext`](safegen_affine::AaContext)) is
//!   **single-threaded by design** — it tracks noise-symbol allocation
//!   through `Cell`s, so it is `Send` but not `Sync` and is never shared.
//!   The engine does not even share one context per worker: every *item*
//!   gets a fresh context inside [`run_on`], built from
//!   the shared (`Copy`) [`AaConfig`](safegen_affine::AaConfig). Fresh
//!   per-item contexts are what make results independent of how items
//!   are scheduled onto workers.
//! * Work is distributed dynamically: a shared `AtomicUsize` cursor
//!   hands out chunks of consecutive indices, so an item that runs long
//!   (e.g. a large `luf` instance) does not stall the other workers.
//!
//! ## Lane engine
//!
//! Within one worker, items are evaluated in **lane groups** through the
//! SoA interpreter ([`crate::lanes::exec_lanes`]): every dispatched
//! instruction applies to a whole group of items at once, which
//! amortizes interpreter dispatch over the group (the dominant cost for
//! the unsound/interval domains). The group width is a per-domain
//! constant ([`BatchOptions::resolve_lanes`]). The cursor hands out
//! whole lane groups, so a group never straddles two workers. Lanes are
//! fully independent — per-lane registers, contexts and statistics — so
//! results are bit-identical to the scalar interpreter for every width;
//! a one-item batch runs the scalar path.
//!
//! ## Determinism
//!
//! Results are **bit-identical for every thread count**, including the
//! serial path. This holds because nothing mutable is shared between
//! items: each item's report depends only on the program, the
//! configuration, and that item's inputs. [`run_batch_with`] extends the
//! guarantee to generated inputs by deriving every item's RNG seed from
//! the item *index* (`base_seed ^ index`), never from worker identity or
//! arrival order. The integration test `tests/batch_parallel.rs` pins
//! this property.
//!
//! ## Example
//!
//! ```
//! use safegen::batch::{run_batch, BatchOptions};
//! use safegen::{Compiler, RunConfig};
//!
//! let src = "double f(double x, double y) { return (x + y) * (x - y); }";
//! let compiled = Compiler::new().compile(src).unwrap();
//! let config = RunConfig::affine_f64(8);
//! let prog = compiled.program_for("f", &config);
//!
//! let inputs: Vec<_> = (0..8)
//!     .map(|i| vec![(0.1 * i as f64).into(), 0.25.into()])
//!     .collect();
//!
//! let serial = run_batch(&prog, &inputs, &config, &BatchOptions::serial()).unwrap();
//! let parallel = run_batch(&prog, &inputs, &config, &BatchOptions::with_threads(4)).unwrap();
//!
//! assert_eq!(serial.items.len(), 8);
//! assert_eq!(serial.stats, parallel.stats); // summed counters agree
//! for (s, p) in serial.items.iter().zip(&parallel.items) {
//!     assert_eq!(s.report.ret, p.report.ret); // bit-identical enclosures
//! }
//! ```

use crate::driver::{run_lanes_on, run_on, RunConfig, RunReport};
use crate::exec::{ArgValue, RunStats};
use crate::program::{encode, FixedProgram, Program};
use safegen_telemetry as telemetry;
use safegen_telemetry::clock::Stamp;
use safegen_telemetry::json::Json;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

// The engine's soundness rests on these types being shareable across
// worker threads; fail the build, not the run, if a field ever breaks
// that (e.g. an interior-mutability cache added to `Program`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Program>();
    assert_send_sync::<FixedProgram>();
    assert_send_sync::<RunConfig>();
    assert_send_sync::<RunStats>();
};

/// How a batch is distributed over threads.
///
/// Construct with [`BatchOptions::serial`], [`BatchOptions::with_threads`],
/// or [`Default`]; `#[non_exhaustive]` reserves room for new knobs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct BatchOptions {
    /// Worker count. `0` (the default) means "use
    /// [`std::thread::available_parallelism`]"; `1` runs inline on the
    /// calling thread (no spawning at all).
    pub threads: usize,
}

impl BatchOptions {
    /// Runs inline on the calling thread.
    pub fn serial() -> BatchOptions {
        BatchOptions { threads: 1 }
    }

    /// Runs on exactly `threads` workers (`0` = available parallelism).
    pub fn with_threads(threads: usize) -> BatchOptions {
        BatchOptions { threads }
    }

    /// The concrete worker count for a batch of `n` items.
    pub fn resolve(&self, n: usize) -> usize {
        let t = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        t.clamp(1, n.max(1))
    }

    /// The lane-group width for a run configuration: dispatch overhead
    /// dominates the cheap scalar domains, so they get wide groups; the
    /// affine domains pay O(k) per lane and get narrow ones (matching
    /// `safegen-affine::vector`'s 4-wide blocks).
    pub fn resolve_lanes(&self, config: &RunConfig) -> usize {
        use crate::domain::DomainKind;
        match config.kind {
            DomainKind::Unsound | DomainKind::IntervalF64 | DomainKind::IntervalDd => 16,
            _ => 4,
        }
    }
}

/// One evaluated input set.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// Position of the input set in the batch (items are returned in
    /// input order regardless of execution order).
    pub index: usize,
    /// The run's result.
    pub report: RunReport,
    /// Wall time of this item alone, in seconds. (Timing is the only
    /// non-deterministic field; everything else is schedule-invariant.)
    pub elapsed_s: f64,
}

/// All per-item results plus aggregates.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Per-item reports, ordered by item index.
    pub items: Vec<BatchItem>,
    /// Execution counters summed over all items (order-independent:
    /// `u64` addition is associative and commutative, so the sums are
    /// identical for every thread count).
    pub stats: RunStats,
    /// Worker count actually used.
    pub threads: usize,
    /// Per-worker utilization, ordered by worker index. Unlike
    /// everything else in the result this is timing data, so it varies
    /// between runs; only the *sum* of `items` is invariant (= the
    /// batch size).
    pub workers: Vec<WorkerStats>,
    /// Widest lane group that actually ran: `min(width, n)` for the
    /// configuration's width ([`BatchOptions::resolve_lanes`]), and `1`
    /// when the one item ran the scalar interpreter (`n <= 1`).
    pub lanes: usize,
}

/// What one worker thread did during a batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkerStats {
    /// Worker index in `0..threads`.
    pub worker: usize,
    /// Items this worker evaluated.
    pub items: usize,
    /// Seconds spent generating inputs and running items (excludes time
    /// blocked on the result lock and waiting for work).
    pub busy_s: f64,
}

/// Indices are handed out in chunks to amortize cursor contention while
/// keeping the tail balanced.
const CHUNK: usize = 4;

/// Evaluates `prog` on every input set in `inputs` under `config`,
/// distributing items over [`BatchOptions::resolve`] worker threads.
///
/// Item `i` of the result always corresponds to `inputs[i]`.
///
/// # Errors
///
/// If any item fails, returns the error of the *lowest-index* failing
/// item (deterministic regardless of which worker hit an error first).
///
/// # Panics
///
/// Propagates panics from the VM (none are expected for compiled
/// programs).
pub fn run_batch(
    prog: &Program,
    inputs: &[Vec<ArgValue>],
    config: &RunConfig,
    opts: &BatchOptions,
) -> Result<BatchResult, String> {
    run_batch_on(prog, inputs.len(), config, opts, |i| inputs[i].clone())
}

/// Like [`run_batch`], but generates the `n` input sets on the workers:
/// item `i` receives `make_input(base_seed ^ i, i)`.
///
/// Deriving each item's seed from its *index* (never from the worker it
/// lands on) keeps generated inputs — and therefore all results —
/// bit-identical across thread counts. Callers seed their RNG from the
/// first argument, e.g. `StdRng::seed_from_u64(seed)`.
///
/// # Errors
///
/// As [`run_batch`]: the lowest-index failure.
pub fn run_batch_with(
    prog: &Program,
    n: usize,
    base_seed: u64,
    make_input: impl Fn(u64, usize) -> Vec<ArgValue> + Sync,
    config: &RunConfig,
    opts: &BatchOptions,
) -> Result<BatchResult, String> {
    run_batch_on(prog, n, config, opts, |i| {
        make_input(base_seed ^ i as u64, i)
    })
}

fn run_batch_on(
    prog: &Program,
    n: usize,
    config: &RunConfig,
    opts: &BatchOptions,
    input_for: impl Fn(usize) -> Vec<ArgValue> + Sync,
) -> Result<BatchResult, String> {
    // Without the `os` feature there are no worker threads to spawn;
    // everything runs inline, which is bit-identical by construction
    // (the determinism contract above) — only wall time differs.
    let threads = if cfg!(feature = "os") {
        opts.resolve(n)
    } else {
        1
    };
    // The superinstruction stream the lane engine dispatches over; a
    // one-item batch runs scalar.
    let width = opts.resolve_lanes(config);
    let fixed = if n > 1 { encode(prog) } else { None };
    let lanes = if fixed.is_some() { width.min(n) } else { 1 };
    let mut slots: Vec<Option<Result<BatchItem, String>>> = Vec::new();
    slots.resize_with(n, || None);

    // Evaluates one contiguous group of items — through the SoA lane
    // engine when it is enabled, one scalar run per item otherwise.
    // Per-item wall time within a lane group is the group's time split
    // evenly (the lanes execute interleaved, so there is no meaningful
    // per-item split point).
    let run_group = |start: usize, end: usize| -> Vec<(usize, Result<BatchItem, String>)> {
        match &fixed {
            Some(fixed) if end - start > 1 => {
                let args: Vec<Vec<ArgValue>> = (start..end).map(&input_for).collect();
                let t0 = Stamp::now();
                let reports = run_lanes_on(prog, fixed, &args, config);
                let per_item = t0.elapsed().as_secs_f64() / (end - start) as f64;
                reports
                    .into_iter()
                    .enumerate()
                    .map(|(off, r)| {
                        let index = start + off;
                        (
                            index,
                            r.map(|report| BatchItem {
                                index,
                                report,
                                elapsed_s: per_item,
                            }),
                        )
                    })
                    .collect()
            }
            _ => (start..end)
                .map(|i| {
                    let args = input_for(i);
                    let t0 = Stamp::now();
                    let r = run_on(prog, &args, config).map(|report| BatchItem {
                        index: i,
                        report,
                        elapsed_s: t0.elapsed().as_secs_f64(),
                    });
                    (i, r)
                })
                .collect(),
        }
    };

    // The work-distribution step: whole lane groups, so a group never
    // straddles two workers.
    let step = if fixed.is_some() { width } else { CHUNK };

    let mut workers: Vec<WorkerStats>;
    if threads == 1 {
        let t0 = Stamp::now();
        let mut start = 0usize;
        while start < n {
            let end = (start + step).min(n);
            for (i, r) in run_group(start, end) {
                slots[i] = Some(r);
            }
            start = end;
        }
        workers = vec![WorkerStats {
            worker: 0,
            items: n,
            busy_s: t0.elapsed().as_secs_f64(),
        }];
    } else {
        let cursor = AtomicUsize::new(0);
        let out = Mutex::new(&mut slots);
        let worker_log = Mutex::new(Vec::with_capacity(threads));
        // The request id is thread-local; hand it to each worker so the
        // events they emit stay correlated with the originating request.
        let req = telemetry::current_request();
        std::thread::scope(|scope| {
            for w in 0..threads {
                let worker_log = &worker_log;
                let cursor = &cursor;
                let out = &out;
                let run_group = &run_group;
                scope.spawn(move || {
                    telemetry::set_request(req);
                    let mut done = 0usize;
                    let mut busy_s = 0.0f64;
                    loop {
                        let start = cursor.fetch_add(step, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + step).min(n);
                        // Compute outside the lock; hold it only to store.
                        let t0 = Stamp::now();
                        let produced = run_group(start, end);
                        busy_s += t0.elapsed().as_secs_f64();
                        done += end - start;
                        let mut slots = out.lock().unwrap();
                        for (i, r) in produced {
                            slots[i] = Some(r);
                        }
                    }
                    worker_log.lock().unwrap().push(WorkerStats {
                        worker: w,
                        items: done,
                        busy_s,
                    });
                });
            }
        });
        workers = worker_log.into_inner().unwrap();
        workers.sort_by_key(|w| w.worker);
    }

    let mut items = Vec::with_capacity(n);
    let mut stats = RunStats::default();
    for slot in slots {
        let item = slot.expect("every index was claimed by exactly one chunk")?;
        stats.fp_ops += item.report.stats.fp_ops;
        stats.instrs += item.report.stats.instrs;
        stats.undecided_branches += item.report.stats.undecided_branches;
        stats.fusions += item.report.stats.fusions;
        stats.condensations += item.report.stats.condensations;
        items.push(item);
    }
    if telemetry::enabled() {
        telemetry::record(
            "batch",
            vec![
                ("n", Json::from(n)),
                ("threads", Json::from(threads)),
                ("lanes", Json::from(lanes)),
                (
                    "workers",
                    Json::Arr(
                        workers
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
            ],
        );
    }
    Ok(BatchResult {
        items,
        stats,
        threads,
        workers,
        lanes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Compiler;

    const SRC: &str = "double g(double x, double y) {
        double r = x;
        for (int i = 0; i < 8; i++) { r = 1.0 - 1.05 * r * r + 0.3 * y; }
        return r;
    }";

    fn inputs(n: usize) -> Vec<Vec<ArgValue>> {
        (0..n)
            .map(|i| vec![(0.01 * i as f64).into(), (0.5 - 0.02 * i as f64).into()])
            .collect()
    }

    #[test]
    fn options_resolve() {
        assert_eq!(BatchOptions::serial().resolve(100), 1);
        assert_eq!(BatchOptions::with_threads(3).resolve(100), 3);
        // Never more workers than items, and at least one.
        assert_eq!(BatchOptions::with_threads(8).resolve(2), 2);
        assert_eq!(BatchOptions::default().resolve(0), 1);
        assert!(BatchOptions::default().resolve(1000) >= 1);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let c = Compiler::new().compile(SRC).unwrap();
        let cfg = RunConfig::affine_f64(8);
        let prog = c.program_for("g", &cfg);
        let ins = inputs(23); // not a multiple of CHUNK on purpose
        let serial = run_batch(&prog, &ins, &cfg, &BatchOptions::serial()).unwrap();
        for t in [2, 3, 7] {
            let par = run_batch(&prog, &ins, &cfg, &BatchOptions::with_threads(t)).unwrap();
            assert_eq!(par.threads, t);
            assert_eq!(par.stats, serial.stats);
            assert_eq!(par.items.len(), serial.items.len());
            for (s, p) in serial.items.iter().zip(&par.items) {
                assert_eq!(s.index, p.index);
                assert_eq!(s.report.ret, p.report.ret, "item {}", s.index);
                assert_eq!(s.report.arrays, p.report.arrays);
                assert!(
                    s.report.acc_bits == p.report.acc_bits
                        || (s.report.acc_bits.is_nan() && p.report.acc_bits.is_nan())
                );
            }
        }
    }

    #[test]
    fn seeded_generation_is_schedule_invariant() {
        let c = Compiler::new().compile(SRC).unwrap();
        let cfg = RunConfig::affine_f64(8);
        let prog = c.program_for("g", &cfg);
        // A deliberately stateful-looking generator that only depends on
        // the derived seed, as the harness's RNG does.
        let gen = |seed: u64, _i: usize| {
            let x = (seed % 1000) as f64 / 1000.0;
            vec![x.into(), (1.0 - x).into()]
        };
        let a = run_batch_with(&prog, 17, 0xC0FFEE, gen, &cfg, &BatchOptions::serial()).unwrap();
        let b = run_batch_with(
            &prog,
            17,
            0xC0FFEE,
            gen,
            &cfg,
            &BatchOptions::with_threads(4),
        )
        .unwrap();
        for (s, p) in a.items.iter().zip(&b.items) {
            assert_eq!(s.report.ret, p.report.ret);
        }
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn first_error_by_index_wins() {
        let c = Compiler::new()
            .compile("double f(double x) { return x / (x - x); }")
            .unwrap();
        let cfg = RunConfig::interval_f64();
        let prog = c.program_for("f", &cfg);
        let ins = inputs(9)
            .into_iter()
            .map(|v| vec![v[0].clone()])
            .collect::<Vec<_>>();
        let serial = run_batch(&prog, &ins, &cfg, &BatchOptions::serial());
        let par = run_batch(&prog, &ins, &cfg, &BatchOptions::with_threads(4));
        match (serial, par) {
            (Err(a), Err(b)) => assert_eq!(a, b, "error must be schedule-invariant"),
            (a, b) => {
                // Division by a zero-width zero interval may be defined to
                // return an unbounded range rather than fail; both paths
                // must then agree on success.
                assert_eq!(a.is_ok(), b.is_ok());
            }
        }
    }

    #[test]
    fn worker_stats_cover_all_items() {
        let c = Compiler::new().compile(SRC).unwrap();
        let cfg = RunConfig::affine_f64(8);
        let prog = c.program_for("g", &cfg);
        let par = run_batch(&prog, &inputs(23), &cfg, &BatchOptions::with_threads(3)).unwrap();
        assert_eq!(par.workers.len(), 3);
        assert_eq!(par.workers.iter().map(|w| w.items).sum::<usize>(), 23);
        assert!(par.workers.iter().all(|w| w.busy_s >= 0.0));
        assert_eq!(
            par.workers.iter().map(|w| w.worker).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );

        let serial = run_batch(&prog, &inputs(5), &cfg, &BatchOptions::serial()).unwrap();
        assert_eq!(serial.workers.len(), 1);
        assert_eq!(serial.workers[0].items, 5);
    }

    /// Per-item scalar runs of `ins`, the reference every batch must
    /// reproduce bit for bit.
    fn scalar_runs(
        prog: &Program,
        ins: &[Vec<ArgValue>],
        cfg: &RunConfig,
    ) -> Vec<Result<RunReport, String>> {
        ins.iter().map(|args| run_on(prog, args, cfg)).collect()
    }

    #[test]
    fn lane_widths_match_scalar_bit_for_bit() {
        let c = Compiler::new().compile(SRC).unwrap();
        for cfg in [
            RunConfig::unsound(),
            RunConfig::interval_f64(),
            RunConfig::affine_f64(8),
        ] {
            let prog = c.program_for("g", &cfg);
            // 37 items: groups of 16, 16 and 5 at width 16, nine groups
            // of 4 and a tail of 1 at width 4.
            let ins = inputs(37);
            let laned = run_batch(&prog, &ins, &cfg, &BatchOptions::serial()).unwrap();
            assert_eq!(laned.lanes, BatchOptions::serial().resolve_lanes(&cfg));
            for (it, s) in laned.items.iter().zip(scalar_runs(&prog, &ins, &cfg)) {
                let s = s.unwrap();
                let what = format!("item {} ({})", it.index, cfg.label());
                assert_eq!(s.ret, it.report.ret, "{what}");
                assert_eq!(s.stats, it.report.stats, "{what}");
            }
        }
    }

    #[test]
    fn lanes_resolve_per_domain() {
        let auto = BatchOptions::default();
        assert_eq!(auto.resolve_lanes(&RunConfig::unsound()), 16);
        assert_eq!(auto.resolve_lanes(&RunConfig::interval_f64()), 16);
        assert_eq!(auto.resolve_lanes(&RunConfig::interval_dd()), 16);
        assert_eq!(auto.resolve_lanes(&RunConfig::affine_f64(8)), 4);
        assert_eq!(auto.resolve_lanes(&RunConfig::ceres(8)), 4);
    }

    #[test]
    fn reported_lanes_are_the_widest_group_that_ran() {
        let c = Compiler::new().compile(SRC).unwrap();
        for (cfg, n, want) in [
            (RunConfig::affine_f64(8), 0, 1),
            (RunConfig::affine_f64(8), 1, 1),
            (RunConfig::interval_f64(), 1, 1),
            (RunConfig::affine_f64(8), 3, 3),
            (RunConfig::affine_f64(8), 9, 4),
            (RunConfig::interval_f64(), 6, 6),
            (RunConfig::interval_f64(), 37, 16),
        ] {
            let prog = c.program_for("g", &cfg);
            for opts in [BatchOptions::serial(), BatchOptions::with_threads(2)] {
                let r = run_batch(&prog, &inputs(n), &cfg, &opts).unwrap();
                assert_eq!(r.lanes, want, "n = {n} ({}, {opts:?})", cfg.label());
            }
        }
    }

    #[test]
    fn lane_groups_preserve_lowest_index_error() {
        // Items 5, 7 and 21 index out of bounds. The 16-wide group
        // holding 5 and 7 must surface the same lowest-index error as
        // per-item scalar runs.
        let c = Compiler::new()
            .compile("void f(double a[2], int i) { a[i] = 1.0; }")
            .unwrap();
        let cfg = RunConfig::unsound();
        let prog = c.program_for("f", &cfg);
        let ins: Vec<Vec<ArgValue>> = (0..23i64)
            .map(|i| {
                vec![
                    vec![0.0, 0.0].into(),
                    (if matches!(i, 5 | 7 | 21) { i } else { 0 }).into(),
                ]
            })
            .collect();
        let err = scalar_runs(&prog, &ins, &cfg)
            .into_iter()
            .find_map(Result::err)
            .expect("item 5 fails");
        for opts in [BatchOptions::serial(), BatchOptions::with_threads(2)] {
            let laned = run_batch(&prog, &ins, &cfg, &opts);
            assert_eq!(laned.expect_err("same failure"), err, "{opts:?}");
        }
    }

    #[test]
    fn aggregates_sum_item_stats() {
        let c = Compiler::new().compile(SRC).unwrap();
        let cfg = RunConfig::interval_f64();
        let prog = c.program_for("g", &cfg);
        let r = run_batch(&prog, &inputs(5), &cfg, &BatchOptions::with_threads(2)).unwrap();
        let by_hand: u64 = r.items.iter().map(|it| it.report.stats.instrs).sum();
        assert_eq!(r.stats.instrs, by_hand);
        assert!(r.stats.fp_ops > 0);
    }
}
