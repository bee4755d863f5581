//! Pins the "one relaxed atomic add on the hot path" claim for the
//! always-on metrics registry (ISSUE 8): with metrics enabled but no
//! JSONL sink configured, instrumented work must stay within noise of an
//! uninstrumented baseline, and the absolute per-op cost of the metric
//! primitives must be far below anything lock- or syscall-shaped.
//!
//! Bounds are deliberately generous (shared CI boxes are noisy); they are
//! meant to catch a regression that puts a mutex, an allocation, or a
//! syscall on the hot path — each of those is orders of magnitude above
//! the pinned limits — not to benchmark the atomics precisely.

use safegen_telemetry::metrics::{metrics, Counter, Histogram};
use std::hint::black_box;
use std::time::Instant;

const ITERS: u64 = 1_000_000;

/// A unit of "real work" roughly comparable to one interval op: a few
/// dependent float multiplies.
#[inline]
fn work(x: f64) -> f64 {
    let a = x * 1.0000001 + 0.5;
    let b = a * a - x;
    black_box(b * 0.9999999)
}

fn time_ns(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64
}

#[test]
fn metric_primitives_cost_nanoseconds_not_microseconds() {
    // Absolute bound: averaged over 1M ops, Counter::add and
    // Histogram::observe must each stay under 1 µs/op. A mutex or
    // syscall on the path blows this by orders of magnitude; the real
    // cost is a few ns.
    let c = Counter::new();
    let counter_ns = time_ns(|| {
        for i in 0..ITERS {
            c.add(black_box(i & 1));
        }
    }) / ITERS as f64;
    let h = Histogram::new();
    let histogram_ns = time_ns(|| {
        for i in 0..ITERS {
            h.observe(black_box(i));
        }
    }) / ITERS as f64;
    assert_eq!(c.get(), ITERS / 2);
    assert_eq!(h.count(), ITERS);
    assert!(
        counter_ns < 1_000.0,
        "Counter::add averaged {counter_ns:.1} ns/op (pinned bound: 1000 ns)"
    );
    assert!(
        histogram_ns < 1_000.0,
        "Histogram::observe averaged {histogram_ns:.1} ns/op (pinned bound: 1000 ns)"
    );
}

#[test]
fn instrumented_work_is_within_noise_of_baseline() {
    // Ratio bound at the granularity the codebase actually
    // instruments: the lane engine
    // accumulates counts in locals and flushes to the registry once per
    // *dispatch* (a full program over up to 64 lanes), and the daemon
    // touches histograms once per *request* — never per arithmetic op.
    // So the unit here is a 64-op block of work followed by one counter
    // add and one histogram observe (enabled registry, no sink). Warm up
    // once, take the best of 5 trials each to shed scheduler noise, and
    // require the ratio to stay under 1.5x — honest noise is ~1.0-1.1x,
    // while moving metric updates into the inner loop (or putting a
    // lock/syscall on the path) blows far past it.
    const BLOCK: u64 = 64;
    const BLOCKS: u64 = ITERS / BLOCK;
    let m = metrics(); // enabled registry, no sink configured
    let baseline = |blocks: u64| {
        let mut acc = 0.0f64;
        for b in 0..blocks {
            for i in 0..BLOCK {
                acc += work((b * BLOCK + i) as f64);
            }
        }
        black_box(acc)
    };
    let instrumented = |blocks: u64| {
        let mut acc = 0.0f64;
        for b in 0..blocks {
            for i in 0..BLOCK {
                acc += work((b * BLOCK + i) as f64);
            }
            m.lanes.superinstr_hits.add(BLOCK);
            m.serve.latency_ns.observe(b & 0xffff);
        }
        black_box(acc)
    };
    baseline(BLOCKS / 10);
    instrumented(BLOCKS / 10);
    let best = |f: &dyn Fn(u64) -> f64| {
        (0..5)
            .map(|_| {
                time_ns(|| {
                    black_box(f(BLOCKS));
                })
            })
            .fold(f64::INFINITY, f64::min)
    };
    let base_ns = best(&baseline);
    let inst_ns = best(&instrumented);
    let ratio = inst_ns / base_ns;
    eprintln!(
        "overhead: baseline {:.2} ns/op, instrumented {:.2} ns/op, ratio {ratio:.3}",
        base_ns / ITERS as f64,
        inst_ns / ITERS as f64
    );
    assert!(
        ratio < 1.5,
        "instrumented/baseline ratio {ratio:.3} exceeds pinned bound 1.5 \
         (baseline {base_ns:.0} ns, instrumented {inst_ns:.0} ns)"
    );
}
