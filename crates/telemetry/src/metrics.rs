//! Always-on, lock-free metrics registry.
//!
//! This module is the *continuous* half of SafeGen-rs observability: where
//! the JSONL event recorder in the crate root is opt-in (one atomic load
//! when off) and buffered, the metrics here are **always on** and readable
//! at any moment — which is what the serve daemon's `stats` verb and the
//! `safegen stats` CLI expose.
//!
//! ## Hot-path discipline
//!
//! Every mutation is a handful of `Relaxed` atomic RMWs on `static`
//! storage: [`Counter::inc`] is one `fetch_add`, [`Histogram::observe`]
//! is three `fetch_add`s plus one `fetch_max`. There are no locks, no
//! allocation, and no syscalls on any instrumented hot path. The single
//! exception is [`CompileMetrics::observe_phase`], which takes a mutex to
//! resolve a dynamic phase name — it is called once per *compiler phase*
//! (milliseconds of work), never per operation. The bound is pinned by
//! `tests/overhead.rs`.
//!
//! ## Histogram scheme
//!
//! [`Histogram`] uses fixed log-linear (log2 with 8 linear sub-buckets
//! per octave) bucketing over `u64` values: values below 8 get exact
//! unit-width buckets; above that, each power-of-two octave is split into
//! 8 equal sub-buckets, so any reported quantile is at most 12.5% above
//! the true value. The maximum is tracked exactly with `fetch_max`, and
//! quantile estimates are clamped to it. Latencies are recorded in
//! nanoseconds, sizes in bytes.
//!
//! ## Snapshot and exposition
//!
//! [`Metrics::snapshot`] renders the whole registry as a versioned JSON
//! object (see [`SNAPSHOT_VERSION`]) that the strict parser in
//! [`crate::json`] round-trips; [`prometheus_text`] re-renders such a
//! snapshot — local or fetched from a remote daemon — as Prometheus text
//! exposition (counters, gauges, and summary-style quantiles).

use crate::clock::Stamp;
use crate::json::Json;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Version tag carried in every snapshot as `"version"`. Consumers must
/// check it before interpreting the rest of the object.
pub const SNAPSHOT_VERSION: &str = "safegen.metrics/1";

/// Number of histogram buckets: 8 exact unit buckets plus 8 sub-buckets
/// for each of the remaining octaves of the `u64` range.
pub const HIST_BUCKETS: usize = 512;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

/// A monotonically increasing counter. `inc` is one relaxed `fetch_add`.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero (usable in `static` initializers).
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// A signed instantaneous value (e.g. in-flight requests, cache bytes).
#[derive(Debug)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A gauge at zero (usable in `static` initializers).
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adds a signed delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Overwrites the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge::new()
    }
}

/// Bucket index for a value: exact below 8, then 8 linear sub-buckets per
/// power-of-two octave (log-linear, HDR-style).
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 8 {
        v as usize
    } else {
        let top = 63 - v.leading_zeros() as u64; // >= 3
        let idx = (top as usize - 2) * 8 + ((v >> (top - 3)) & 7) as usize;
        idx.min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper edge of bucket `i` (the value a quantile readout
/// reports for observations landing in that bucket).
fn bucket_upper(i: usize) -> u64 {
    if i < 8 {
        i as u64
    } else {
        let g = (i / 8) as u32; // octave group, >= 1
        let r = (i % 8) as u128;
        let upper = ((8 + r + 1) << (g - 1)) - 1;
        upper.min(u64::MAX as u128) as u64
    }
}

/// A fixed-bucket log-linear histogram of `u64` observations with
/// count/sum, an exact maximum, and p50/p90/p99 readout (quantiles are at
/// most 12.5% above the true value; see the module docs).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram (usable in `static` initializers).
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation: three relaxed `fetch_add`s and one
    /// relaxed `fetch_max`, nothing else.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile estimate for `q` in `(0, 1]`: the upper edge
    /// of the bucket holding the rank, clamped to the exact maximum.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper(i).min(self.max());
            }
        }
        self.max()
    }

    /// The snapshot form: `{"count","sum","max","p50","p90","p99"}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::from(self.count())),
            ("sum", Json::from(self.sum())),
            ("max", Json::from(self.max())),
            ("p50", Json::from(self.quantile(0.50))),
            ("p90", Json::from(self.quantile(0.90))),
            ("p99", Json::from(self.quantile(0.99))),
        ])
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

// ---------------------------------------------------------------------------
// Label enums
// ---------------------------------------------------------------------------

/// Request verbs the serve daemon distinguishes in its per-verb counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `{"op":"ping"}` liveness checks (includes `wait_ready` probes).
    Ping,
    /// `{"op":"list"}` artifact introspection.
    List,
    /// `{"op":"eval"}` single and batch evaluations.
    Eval,
    /// `{"op":"stats"}` metrics snapshots.
    Stats,
    /// `{"op":"shutdown"}`.
    Shutdown,
    /// Anything else (unknown or missing op).
    Other,
}

impl Verb {
    /// All verbs, in snapshot order.
    pub const ALL: [Verb; 6] = [
        Verb::Ping,
        Verb::List,
        Verb::Eval,
        Verb::Stats,
        Verb::Shutdown,
        Verb::Other,
    ];

    /// The snapshot / exposition label.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Ping => "ping",
            Verb::List => "list",
            Verb::Eval => "eval",
            Verb::Stats => "stats",
            Verb::Shutdown => "shutdown",
            Verb::Other => "other",
        }
    }
}

/// Error categories for the serve daemon's error counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCategory {
    /// Request line exceeded `max_request_bytes`.
    Oversize,
    /// Request line was not valid JSON.
    BadJson,
    /// Structurally valid request with bad or missing fields/arguments.
    BadRequest,
    /// `op` named a verb the daemon does not implement.
    UnknownVerb,
    /// Eval named a function/variant the artifact does not carry.
    UnknownProgram,
    /// The program was found but execution failed.
    Exec,
}

impl ErrCategory {
    /// All categories, in snapshot order.
    pub const ALL: [ErrCategory; 6] = [
        ErrCategory::Oversize,
        ErrCategory::BadJson,
        ErrCategory::BadRequest,
        ErrCategory::UnknownVerb,
        ErrCategory::UnknownProgram,
        ErrCategory::Exec,
    ];

    /// The snapshot / exposition label.
    pub fn name(self) -> &'static str {
        match self {
            ErrCategory::Oversize => "oversize",
            ErrCategory::BadJson => "bad_json",
            ErrCategory::BadRequest => "bad_request",
            ErrCategory::UnknownVerb => "unknown_verb",
            ErrCategory::UnknownProgram => "unknown_program",
            ErrCategory::Exec => "exec",
        }
    }
}

// ---------------------------------------------------------------------------
// Registry sections
// ---------------------------------------------------------------------------

/// Serve-daemon metrics: per-verb request counts, error counts by
/// category, in-flight gauge, connection lifecycle, latency and byte-size
/// histograms.
#[derive(Debug)]
pub struct ServeMetrics {
    requests: [Counter; Verb::ALL.len()],
    errors: [Counter; ErrCategory::ALL.len()],
    /// Requests currently being handled.
    pub in_flight: Gauge,
    /// Connections accepted.
    pub connections_opened: Counter,
    /// Connections fully handled (closed).
    pub connections_closed: Counter,
    /// Per-request wall time in nanoseconds (read → respond).
    pub latency_ns: Histogram,
    /// Request line sizes in bytes.
    pub request_bytes: Histogram,
    /// Response line sizes in bytes.
    pub response_bytes: Histogram,
}

impl ServeMetrics {
    const fn new() -> ServeMetrics {
        ServeMetrics {
            requests: [const { Counter::new() }; Verb::ALL.len()],
            errors: [const { Counter::new() }; ErrCategory::ALL.len()],
            in_flight: Gauge::new(),
            connections_opened: Counter::new(),
            connections_closed: Counter::new(),
            latency_ns: Histogram::new(),
            request_bytes: Histogram::new(),
            response_bytes: Histogram::new(),
        }
    }

    /// The request counter for `verb`.
    pub fn requests(&self, verb: Verb) -> &Counter {
        &self.requests[verb as usize]
    }

    /// The error counter for `cat`.
    pub fn errors(&self, cat: ErrCategory) -> &Counter {
        &self.errors[cat as usize]
    }

    /// Total requests across all verbs.
    pub fn requests_total(&self) -> u64 {
        self.requests.iter().map(Counter::get).sum()
    }

    /// Total errors across all categories.
    pub fn errors_total(&self) -> u64 {
        self.errors.iter().map(Counter::get).sum()
    }
}

/// Artifact compile-cache metrics.
#[derive(Debug)]
pub struct CacheMetrics {
    /// Lookups served from a valid cached artifact.
    pub hits: Counter,
    /// Lookups that found no usable entry (including corrupt ones).
    pub misses: Counter,
    /// Entries removed by the size-cap eviction sweep.
    pub evictions: Counter,
    /// Entries that existed but failed validation (counted as misses too).
    pub corrupt: Counter,
    /// `.sga` entries currently in the cache directory.
    pub entries: Gauge,
    /// Total bytes of cached entries.
    pub bytes: Gauge,
}

impl CacheMetrics {
    const fn new() -> CacheMetrics {
        CacheMetrics {
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            corrupt: Counter::new(),
            entries: Gauge::new(),
            bytes: Gauge::new(),
        }
    }
}

/// Lane-engine (SoA interpreter) metrics. `exec_lanes` accumulates these
/// in plain locals during a run and flushes them here once per call, so
/// the interpreter loop itself carries no atomics.
#[derive(Debug)]
pub struct LaneMetrics {
    /// Calls into `exec_lanes`.
    pub dispatches: Counter,
    /// Total lanes across all dispatches.
    pub lanes_dispatched: Counter,
    /// Group splits at divergent branches.
    pub group_splits: Counter,
    /// Groups parked by the lowest-pc scheduler awaiting reconvergence.
    pub parks: Counter,
    /// Parked groups re-merged into a running group.
    pub remerges: Counter,
    /// Fused superinstruction dispatches (MulThenAdd etc.).
    pub superinstr_hits: Counter,
    /// Column-kernel dispatches (full-width vectorized op).
    pub kernel_dispatches: Counter,
    /// Scalar-fallback dispatches (masked or kernel-declined op).
    pub scalar_dispatches: Counter,
    /// Dispatches that fell back to per-lane scalar runs on ragged input.
    pub ragged_fallbacks: Counter,
}

impl LaneMetrics {
    const fn new() -> LaneMetrics {
        LaneMetrics {
            dispatches: Counter::new(),
            lanes_dispatched: Counter::new(),
            group_splits: Counter::new(),
            parks: Counter::new(),
            remerges: Counter::new(),
            superinstr_hits: Counter::new(),
            kernel_dispatches: Counter::new(),
            scalar_dispatches: Counter::new(),
            ragged_fallbacks: Counter::new(),
        }
    }
}

/// Fixpoint loop-engine section: how unbounded loops were handled
/// (`--loop-mode`, DESIGN.md §12). All counters are cumulative
/// across runs.
#[derive(Debug)]
pub struct LoopMetrics {
    /// Loops solved abstractly (iterate-and-widen produced an invariant).
    pub solves: Counter,
    /// Loops resolved exactly by the bounded concrete attempt.
    pub unrolled: Counter,
    /// Programs that bailed out of the abstract engine to one plain
    /// concrete execution (unsupported shape).
    pub bailouts: Counter,
    /// Abstract loop-body passes executed.
    pub iterations: Counter,
    /// Widening applications (per variable, per widening round).
    pub widenings: Counter,
    /// Accepted (verified) narrowing refinements.
    pub narrowings: Counter,
}

impl LoopMetrics {
    const fn new() -> LoopMetrics {
        LoopMetrics {
            solves: Counter::new(),
            unrolled: Counter::new(),
            bailouts: Counter::new(),
            iterations: Counter::new(),
            widenings: Counter::new(),
            narrowings: Counter::new(),
        }
    }
}

/// Compile-pipeline metrics: per-phase duration histograms keyed by the
/// phase/pass name (dynamic registration, bounded table).
#[derive(Debug)]
pub struct CompileMetrics {
    /// Completed `Compiler::compile` runs.
    pub compiles: Counter,
    phases: Mutex<Vec<(String, Box<Histogram>)>>,
}

/// Cap on distinct phase names (defensive bound; the pipeline has ~a dozen).
const MAX_PHASES: usize = 64;

impl CompileMetrics {
    const fn new() -> CompileMetrics {
        CompileMetrics {
            compiles: Counter::new(),
            phases: Mutex::new(Vec::new()),
        }
    }

    /// Records `ns` into the duration histogram for phase `name`,
    /// registering the name on first sight. Takes a short mutex — phase
    /// granularity only, never called on a per-operation path.
    pub fn observe_phase(&self, name: &str, ns: u64) {
        let mut slots = self.phases.lock().unwrap();
        if let Some((_, h)) = slots.iter().find(|(n, _)| n == name) {
            h.observe(ns);
            return;
        }
        if slots.len() >= MAX_PHASES {
            return;
        }
        let h = Box::new(Histogram::new());
        h.observe(ns);
        slots.push((name.to_string(), h));
    }

    /// Snapshot of all registered phases as `name → histogram` JSON.
    pub fn phases_json(&self) -> Json {
        let slots = self.phases.lock().unwrap();
        Json::Obj(
            slots
                .iter()
                .map(|(n, h)| (n.clone(), h.to_json()))
                .collect(),
        )
    }

    /// Observation count for one phase (tests, assertions).
    pub fn phase_count(&self, name: &str) -> u64 {
        let slots = self.phases.lock().unwrap();
        slots
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h.count())
            .unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// Global registry
// ---------------------------------------------------------------------------

/// The process-wide metrics registry. Obtain it via [`metrics`].
#[derive(Debug)]
pub struct Metrics {
    /// Serve-daemon section.
    pub serve: ServeMetrics,
    /// Artifact compile-cache section.
    pub cache: CacheMetrics,
    /// Lane-engine section.
    pub lanes: LaneMetrics,
    /// Fixpoint loop-engine section.
    pub loops: LoopMetrics,
    /// Compile-pipeline section.
    pub compile: CompileMetrics,
    start: OnceLock<Stamp>,
}

static METRICS: Metrics = Metrics {
    serve: ServeMetrics::new(),
    cache: CacheMetrics::new(),
    lanes: LaneMetrics::new(),
    loops: LoopMetrics::new(),
    compile: CompileMetrics::new(),
    start: OnceLock::new(),
};

/// The global registry. Always on; the first call pins the uptime epoch.
pub fn metrics() -> &'static Metrics {
    METRICS.start.get_or_init(Stamp::now);
    &METRICS
}

impl Metrics {
    /// Renders the whole registry as a versioned JSON snapshot (see the
    /// module docs for the shape). The output round-trips through the
    /// strict parser in [`crate::json`].
    pub fn snapshot(&self) -> Json {
        let uptime = self
            .start
            .get()
            .map(|t| t.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        let requests = Json::Obj(
            Verb::ALL
                .iter()
                .map(|v| {
                    (
                        v.name().to_string(),
                        Json::from(self.serve.requests(*v).get()),
                    )
                })
                .chain(std::iter::once((
                    "total".to_string(),
                    Json::from(self.serve.requests_total()),
                )))
                .collect(),
        );
        let errors = Json::Obj(
            ErrCategory::ALL
                .iter()
                .map(|c| {
                    (
                        c.name().to_string(),
                        Json::from(self.serve.errors(*c).get()),
                    )
                })
                .chain(std::iter::once((
                    "total".to_string(),
                    Json::from(self.serve.errors_total()),
                )))
                .collect(),
        );
        Json::obj(vec![
            ("version", Json::from(SNAPSHOT_VERSION)),
            ("uptime_s", Json::from(uptime)),
            (
                "serve",
                Json::obj(vec![
                    ("requests", requests),
                    ("errors", errors),
                    ("in_flight", Json::from(self.serve.in_flight.get() as f64)),
                    (
                        "connections",
                        Json::obj(vec![
                            ("opened", Json::from(self.serve.connections_opened.get())),
                            ("closed", Json::from(self.serve.connections_closed.get())),
                        ]),
                    ),
                    ("latency_ns", self.serve.latency_ns.to_json()),
                    ("request_bytes", self.serve.request_bytes.to_json()),
                    ("response_bytes", self.serve.response_bytes.to_json()),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::from(self.cache.hits.get())),
                    ("misses", Json::from(self.cache.misses.get())),
                    ("evictions", Json::from(self.cache.evictions.get())),
                    ("corrupt", Json::from(self.cache.corrupt.get())),
                    ("entries", Json::from(self.cache.entries.get() as f64)),
                    ("bytes", Json::from(self.cache.bytes.get() as f64)),
                ]),
            ),
            (
                "lanes",
                Json::obj(vec![
                    ("dispatches", Json::from(self.lanes.dispatches.get())),
                    (
                        "lanes_dispatched",
                        Json::from(self.lanes.lanes_dispatched.get()),
                    ),
                    ("group_splits", Json::from(self.lanes.group_splits.get())),
                    ("parks", Json::from(self.lanes.parks.get())),
                    ("remerges", Json::from(self.lanes.remerges.get())),
                    (
                        "superinstr_hits",
                        Json::from(self.lanes.superinstr_hits.get()),
                    ),
                    (
                        "kernel_dispatches",
                        Json::from(self.lanes.kernel_dispatches.get()),
                    ),
                    (
                        "scalar_dispatches",
                        Json::from(self.lanes.scalar_dispatches.get()),
                    ),
                    (
                        "ragged_fallbacks",
                        Json::from(self.lanes.ragged_fallbacks.get()),
                    ),
                ]),
            ),
            (
                "loop",
                Json::obj(vec![
                    ("solves", Json::from(self.loops.solves.get())),
                    ("unrolled", Json::from(self.loops.unrolled.get())),
                    ("bailouts", Json::from(self.loops.bailouts.get())),
                    ("iterations", Json::from(self.loops.iterations.get())),
                    ("widenings", Json::from(self.loops.widenings.get())),
                    ("narrowings", Json::from(self.loops.narrowings.get())),
                ]),
            ),
            (
                "compile",
                Json::obj(vec![
                    ("compiles", Json::from(self.compile.compiles.get())),
                    ("phases", self.compile.phases_json()),
                ]),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Prometheus exposition
// ---------------------------------------------------------------------------

fn node<'a>(snap: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    let mut cur = snap;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("snapshot missing key {:?}", path.join(".")))?;
    }
    Ok(cur)
}

fn num(snap: &Json, path: &[&str]) -> Result<f64, String> {
    node(snap, path)?
        .as_f64()
        .ok_or_else(|| format!("snapshot key {:?} is not a number", path.join(".")))
}

fn fmt_num(v: f64) -> String {
    Json::Num(v).to_string()
}

fn emit_metric(out: &mut String, name: &str, kind: &str, rows: &[(String, f64)]) {
    out.push_str(&format!("# TYPE {name} {kind}\n"));
    for (labels, v) in rows {
        out.push_str(&format!("{name}{labels} {}\n", fmt_num(*v)));
    }
}

fn emit_summary(out: &mut String, name: &str, snap: &Json, path: &[&str]) -> Result<(), String> {
    let h = node(snap, path)?;
    let field = |k: &str| -> Result<f64, String> {
        h.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("histogram {:?} missing {k}", path.join(".")))
    };
    out.push_str(&format!("# TYPE {name} summary\n"));
    for (q, k) in [("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")] {
        out.push_str(&format!(
            "{name}{{quantile=\"{q}\"}} {}\n",
            fmt_num(field(k)?)
        ));
    }
    out.push_str(&format!("{name}_sum {}\n", fmt_num(field("sum")?)));
    out.push_str(&format!("{name}_count {}\n", fmt_num(field("count")?)));
    emit_metric(
        out,
        &format!("{name}_max"),
        "gauge",
        &[(String::new(), field("max")?)],
    );
    Ok(())
}

fn labelled_rows(snap: &Json, path: &[&str], label: &str) -> Result<Vec<(String, f64)>, String> {
    let Json::Obj(entries) = node(snap, path)? else {
        return Err(format!(
            "snapshot key {:?} is not an object",
            path.join(".")
        ));
    };
    let mut rows = Vec::new();
    for (k, v) in entries {
        if k == "total" {
            continue;
        }
        let n = v
            .as_f64()
            .ok_or_else(|| format!("{:?}.{k} is not a number", path.join(".")))?;
        rows.push((format!("{{{label}=\"{k}\"}}"), n));
    }
    Ok(rows)
}

/// Renders a [`Metrics::snapshot`]-shaped JSON object (local or fetched
/// from a daemon's `stats` verb) as Prometheus text exposition.
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped snapshot key —
/// including a version mismatch.
pub fn prometheus_text(snap: &Json) -> Result<String, String> {
    let version = node(snap, &["version"])?
        .as_str()
        .ok_or_else(|| "snapshot version is not a string".to_string())?;
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {version:?} (expected {SNAPSHOT_VERSION:?})"
        ));
    }
    let mut out = String::new();
    emit_metric(
        &mut out,
        "safegen_uptime_seconds",
        "gauge",
        &[(String::new(), num(snap, &["uptime_s"])?)],
    );
    emit_metric(
        &mut out,
        "safegen_serve_requests_total",
        "counter",
        &labelled_rows(snap, &["serve", "requests"], "verb")?,
    );
    emit_metric(
        &mut out,
        "safegen_serve_errors_total",
        "counter",
        &labelled_rows(snap, &["serve", "errors"], "category")?,
    );
    emit_metric(
        &mut out,
        "safegen_serve_in_flight",
        "gauge",
        &[(String::new(), num(snap, &["serve", "in_flight"])?)],
    );
    for k in ["opened", "closed"] {
        emit_metric(
            &mut out,
            &format!("safegen_serve_connections_{k}_total"),
            "counter",
            &[(String::new(), num(snap, &["serve", "connections", k])?)],
        );
    }
    emit_summary(
        &mut out,
        "safegen_serve_latency_ns",
        snap,
        &["serve", "latency_ns"],
    )?;
    emit_summary(
        &mut out,
        "safegen_serve_request_bytes",
        snap,
        &["serve", "request_bytes"],
    )?;
    emit_summary(
        &mut out,
        "safegen_serve_response_bytes",
        snap,
        &["serve", "response_bytes"],
    )?;
    for k in ["hits", "misses", "evictions", "corrupt"] {
        emit_metric(
            &mut out,
            &format!("safegen_cache_{k}_total"),
            "counter",
            &[(String::new(), num(snap, &["cache", k])?)],
        );
    }
    for k in ["entries", "bytes"] {
        emit_metric(
            &mut out,
            &format!("safegen_cache_{k}"),
            "gauge",
            &[(String::new(), num(snap, &["cache", k])?)],
        );
    }
    for k in [
        "dispatches",
        "lanes_dispatched",
        "group_splits",
        "parks",
        "remerges",
        "superinstr_hits",
        "kernel_dispatches",
        "scalar_dispatches",
        "ragged_fallbacks",
    ] {
        emit_metric(
            &mut out,
            &format!("safegen_lanes_{k}_total"),
            "counter",
            &[(String::new(), num(snap, &["lanes", k])?)],
        );
    }
    // The loop section is additive within the snapshot version: render it
    // when present so snapshots from pre-fixpoint daemons still convert.
    if node(snap, &["loop"]).is_ok() {
        for k in [
            "solves",
            "unrolled",
            "bailouts",
            "iterations",
            "widenings",
            "narrowings",
        ] {
            emit_metric(
                &mut out,
                &format!("safegen_loop_{k}_total"),
                "counter",
                &[(String::new(), num(snap, &["loop", k])?)],
            );
        }
    }
    emit_metric(
        &mut out,
        "safegen_compile_total",
        "counter",
        &[(String::new(), num(snap, &["compile", "compiles"])?)],
    );
    let Json::Obj(phases) = node(snap, &["compile", "phases"])? else {
        return Err("compile.phases is not an object".to_string());
    };
    if !phases.is_empty() {
        let mut body = String::new();
        body.push_str("# TYPE safegen_compile_phase_ns summary\n");
        for (name, h) in phases {
            let field = |k: &str| -> Result<f64, String> {
                h.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("phase {name} missing {k}"))
            };
            for (q, k) in [("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")] {
                body.push_str(&format!(
                    "safegen_compile_phase_ns{{phase=\"{name}\",quantile=\"{q}\"}} {}\n",
                    fmt_num(field(k)?)
                ));
            }
            body.push_str(&format!(
                "safegen_compile_phase_ns_sum{{phase=\"{name}\"}} {}\n",
                fmt_num(field("sum")?)
            ));
            body.push_str(&format!(
                "safegen_compile_phase_ns_count{{phase=\"{name}\"}} {}\n",
                fmt_num(field("count")?)
            ));
        }
        out.push_str(&body);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        g.add(-3);
        assert_eq!(g.get(), -2);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn bucket_edges_bound_their_values() {
        // Every sampled value must land in a bucket whose inclusive upper
        // edge is >= the value, within 12.5% relative error, and indices
        // must be monotone in the value.
        let mut last_idx = 0usize;
        let samples: Vec<u64> = (0..64)
            .flat_map(|s: u32| {
                let base = 1u64 << s.min(63);
                [
                    base,
                    base + base / 3,
                    base.saturating_mul(2).saturating_sub(1),
                ]
            })
            .chain(0..64)
            .collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for v in sorted {
            let i = bucket_index(v);
            assert!(i >= last_idx, "index not monotone at {v}");
            last_idx = i;
            let upper = bucket_upper(i);
            assert!(upper >= v, "upper edge {upper} below value {v}");
            // relative error bound (exact below 8)
            if v >= 8 && i < HIST_BUCKETS - 1 {
                assert!(
                    (upper - v) as f64 <= v as f64 * 0.125,
                    "bucket too wide at {v}: upper {upper}"
                );
            }
        }
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 28);
        assert_eq!(h.max(), 7);
        assert_eq!(h.quantile(0.5), 4);
        assert_eq!(h.quantile(0.99), 7);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn histogram_quantiles_within_relative_bound() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        for (q, truth) in [(0.50, 500u64), (0.90, 900), (0.99, 990)] {
            let got = h.quantile(q);
            assert!(got >= truth, "q{q}: {got} < {truth}");
            assert!(
                got as f64 <= truth as f64 * 1.125 + 1.0,
                "q{q}: {got} too far above {truth}"
            );
        }
        assert_eq!(h.max(), 1000);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.to_json().get("p99").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn quantile_estimate_never_exceeds_exact_max() {
        let h = Histogram::new();
        h.observe(1_000_003); // lands mid-bucket; upper edge > value
        assert_eq!(h.quantile(0.5), 1_000_003);
        assert_eq!(h.quantile(0.99), 1_000_003);
    }

    #[test]
    fn snapshot_is_versioned_and_round_trips_strict_parser() {
        let m = metrics();
        m.serve.requests(Verb::Eval).inc();
        m.serve.latency_ns.observe(1234);
        m.compile.observe_phase("compile.parse", 55_000);
        let snap = m.snapshot();
        assert_eq!(
            snap.get("version").unwrap().as_str(),
            Some(SNAPSHOT_VERSION)
        );
        let text = snap.to_string();
        let back = json::parse(&text).expect("snapshot must satisfy the strict parser");
        assert!(back
            .get("serve")
            .unwrap()
            .get("requests")
            .unwrap()
            .get("eval")
            .is_some());
        assert!(back.get("lanes").unwrap().get("group_splits").is_some());
        assert!(
            back.get("compile")
                .unwrap()
                .get("phases")
                .unwrap()
                .get("compile.parse")
                .unwrap()
                .get("p50")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        // totals aggregate the labelled counters
        let req = back.get("serve").unwrap().get("requests").unwrap();
        let sum: f64 = Verb::ALL
            .iter()
            .map(|v| req.get(v.name()).unwrap().as_f64().unwrap())
            .sum();
        assert_eq!(req.get("total").unwrap().as_f64(), Some(sum));
    }

    #[test]
    fn phase_table_registers_and_bounds() {
        let m = CompileMetrics::new();
        m.observe_phase("a", 10);
        m.observe_phase("a", 20);
        m.observe_phase("b", 30);
        assert_eq!(m.phase_count("a"), 2);
        assert_eq!(m.phase_count("b"), 1);
        assert_eq!(m.phase_count("missing"), 0);
        for i in 0..2 * MAX_PHASES {
            m.observe_phase(&format!("p{i}"), 1);
        }
        let Json::Obj(entries) = m.phases_json() else {
            panic!("phases snapshot is an object")
        };
        assert!(entries.len() <= MAX_PHASES);
    }

    #[test]
    fn prometheus_exposition_renders_and_is_well_formed() {
        let m = metrics();
        m.serve.requests(Verb::Ping).inc();
        m.serve.errors(ErrCategory::BadJson).inc();
        m.serve.latency_ns.observe(5_000);
        m.cache.hits.inc();
        m.lanes.superinstr_hits.add(3);
        m.compile.observe_phase("compile.tac", 9_999);
        let snap = m.snapshot();
        let text = prometheus_text(&snap).unwrap();
        assert!(text.contains("# TYPE safegen_serve_requests_total counter"));
        assert!(text.contains("safegen_serve_requests_total{verb=\"ping\"}"));
        assert!(text.contains("safegen_serve_errors_total{category=\"bad_json\"}"));
        assert!(text.contains("safegen_serve_latency_ns{quantile=\"0.99\"}"));
        assert!(text.contains("safegen_cache_hits_total"));
        assert!(text.contains("safegen_lanes_superinstr_hits_total"));
        assert!(text.contains("safegen_compile_phase_ns{phase=\"compile.tac\",quantile=\"0.5\"}"));
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value in {line:?}");
        }
    }

    #[test]
    fn prometheus_rejects_wrong_version() {
        let snap = Json::obj(vec![("version", Json::from("bogus/9"))]);
        let err = prometheus_text(&snap).unwrap_err();
        assert!(err.contains("bogus/9"));
    }

    #[test]
    fn verb_and_category_labels_are_unique() {
        let mut names: Vec<&str> = Verb::ALL.iter().map(|v| v.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Verb::ALL.len());
        let mut cats: Vec<&str> = ErrCategory::ALL.iter().map(|c| c.name()).collect();
        cats.sort_unstable();
        cats.dedup();
        assert_eq!(cats.len(), ErrCategory::ALL.len());
    }
}
