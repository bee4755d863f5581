//! # safegen-telemetry
//!
//! Observability for SafeGen-rs: phase/VM span timing, structured events,
//! and a metrics sink that writes **JSONL** (one event per line) plus a
//! **summary JSON** — all `std`-only, per the repo's offline policy.
//!
//! ## Model
//!
//! A process has at most one global [`Recorder`], installed by
//! [`init_from_env`] (or [`init`] in tests) and guarded by a mutex. Every
//! hook first checks a relaxed [`AtomicBool`]; when telemetry is disabled
//! — the default — each hook is **one atomic load and nothing else**, so
//! instrumented code paths cost nothing measurable (pinned by
//! `tests/overhead.rs`). The hooks sit at phase granularity (compile
//! phases, one VM run, one measurement), never inside per-operation hot
//! loops.
//!
//! ## Environment knobs
//!
//! | variable | effect |
//! |----------|--------|
//! | `SAFEGEN_TRACE=1` | enable; echo span timings to stderr as they close |
//! | `SAFEGEN_METRICS_OUT=prefix` | enable; [`flush`] writes `prefix.jsonl` + `prefix.summary.json` |
//!
//! Both may be combined. A `prefix` ending in `.jsonl` is accepted and
//! stripped, so `SAFEGEN_METRICS_OUT=run1.jsonl` and
//! `SAFEGEN_METRICS_OUT=run1` name the same pair of files.
//!
//! ## Event shape
//!
//! Every JSONL line is an object with at least `{"kind": ..., "t": ...}`
//! where `t` is seconds since the recorder was installed. Span events add
//! `{"name", "elapsed_s"}`; other producers (the VM batch engine, the
//! bench harness) attach their own fields. When a request id is active on
//! the recording thread (see [`with_request`]) every event additionally
//! carries `{"req": id}`, so all spans and events belonging to one served
//! or CLI request can be correlated in the stream. The summary aggregates
//! event counts per kind and total time per span name.
//!
//! ## Always-on metrics
//!
//! The buffered recorder above is opt-in; the [`metrics`] module holds
//! the *always-on* side — a lock-free registry of counters, gauges, and
//! latency histograms that the serve daemon exposes live through its
//! `stats` verb.

pub mod json;
pub mod metrics;

use json::Json;
use std::cell::Cell;
#[cfg(feature = "os")]
use std::io::Write;
#[cfg(feature = "os")]
use std::path::Path;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Monotonic time source behind every span/uptime reading.
///
/// With the default `os` feature this wraps [`std::time::Instant`].
/// Without it — targets like `wasm32-unknown-unknown`, whose `std`
/// `Instant::now` traps at runtime — every reading is
/// [`Duration::ZERO`](std::time::Duration::ZERO), so instrumented code
/// keeps running and timings simply report as zero.
pub mod clock {
    use std::time::Duration;

    /// An opaque instant; see the module docs.
    #[derive(Clone, Copy, Debug)]
    pub struct Stamp {
        #[cfg(feature = "os")]
        at: std::time::Instant,
    }

    impl Stamp {
        /// The current instant (or the zero stamp without `os`).
        pub fn now() -> Stamp {
            Stamp {
                #[cfg(feature = "os")]
                at: std::time::Instant::now(),
            }
        }

        /// Time elapsed since this stamp (zero without `os`).
        pub fn elapsed(&self) -> Duration {
            #[cfg(feature = "os")]
            {
                self.at.elapsed()
            }
            #[cfg(not(feature = "os"))]
            {
                Duration::ZERO
            }
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);
static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Request id active on this thread; 0 means none.
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Allocates a fresh process-unique request id (never 0).
pub fn next_request_id() -> u64 {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

/// The request id active on this thread, if any. Events recorded while an
/// id is active carry it as their `req` field.
pub fn current_request() -> Option<u64> {
    let id = REQUEST.with(Cell::get);
    (id != 0).then_some(id)
}

/// Sets (or with `None` clears) the request id for this thread. Workers
/// spawned to serve a request call this with the id captured from the
/// spawning thread; prefer [`with_request`] where scoping allows.
pub fn set_request(id: Option<u64>) {
    REQUEST.with(|c| c.set(id.unwrap_or(0)));
}

/// Runs `f` with `id` as this thread's active request id, restoring the
/// previous id afterwards (panic-safe via a drop guard).
pub fn with_request<T>(id: u64, f: impl FnOnce() -> T) -> T {
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            REQUEST.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(REQUEST.with(Cell::get));
    REQUEST.with(|c| c.set(id));
    f()
}

/// The in-memory event buffer behind the global facade.
#[derive(Debug)]
pub struct Recorder {
    binary: String,
    t0: clock::Stamp,
    trace: bool,
    out: Option<PathBuf>,
    /// Serialized JSONL lines not yet flushed to the sink, in record
    /// order. [`flush`] appends and drains these, so a long-running
    /// daemon's buffer stays bounded by its flush cadence.
    lines: Vec<String>,
    /// Events recorded over the recorder's lifetime (flushed + buffered).
    total_events: u64,
    /// Whether the sink file has been created (first flush truncates,
    /// later flushes append).
    #[cfg_attr(not(feature = "os"), allow(dead_code))]
    sink_started: bool,
    /// Per-kind event counts, insertion-ordered.
    kinds: Vec<(String, u64)>,
    /// Per-span-name (count, total seconds), insertion-ordered.
    spans: Vec<(String, u64, f64)>,
}

impl Recorder {
    fn new(binary: &str, trace: bool, out: Option<PathBuf>) -> Recorder {
        Recorder {
            binary: binary.to_string(),
            t0: clock::Stamp::now(),
            trace,
            out,
            lines: Vec::new(),
            total_events: 0,
            sink_started: false,
            kinds: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn push(&mut self, kind: &str, fields: Vec<(&str, Json)>) {
        let mut obj = vec![
            ("kind", Json::from(kind)),
            ("t", Json::from(self.t0.elapsed().as_secs_f64())),
        ];
        if let Some(req) = current_request() {
            if !fields.iter().any(|(k, _)| *k == "req") {
                obj.push(("req", Json::from(req)));
            }
        }
        obj.extend(fields);
        self.total_events += 1;
        self.lines.push(Json::obj(obj).to_string());
        match self.kinds.iter_mut().find(|(k, _)| k == kind) {
            Some((_, n)) => *n += 1,
            None => self.kinds.push((kind.to_string(), 1)),
        }
    }

    fn note_span(&mut self, name: &str, elapsed_s: f64) {
        match self.spans.iter_mut().find(|(n, _, _)| n == name) {
            Some((_, c, t)) => {
                *c += 1;
                *t += elapsed_s;
            }
            None => self.spans.push((name.to_string(), 1, elapsed_s)),
        }
    }

    #[cfg_attr(not(feature = "os"), allow(dead_code))]
    fn summary(&self) -> Json {
        Json::obj(vec![
            ("binary", Json::from(self.binary.as_str())),
            ("wall_s", Json::from(self.t0.elapsed().as_secs_f64())),
            ("events", Json::from(self.total_events)),
            (
                "kinds",
                Json::Obj(
                    self.kinds
                        .iter()
                        .map(|(k, n)| (k.clone(), Json::from(*n)))
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Obj(
                    self.spans
                        .iter()
                        .map(|(name, count, total)| {
                            (
                                name.clone(),
                                Json::obj(vec![
                                    ("count", Json::from(*count)),
                                    ("total_s", Json::from(*total)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// True when a recorder is installed. One relaxed atomic load; callers
/// use it to skip building event fields entirely.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs the global recorder according to `SAFEGEN_TRACE` /
/// `SAFEGEN_METRICS_OUT` (see the crate docs). A no-op when neither is
/// set; replaces any previous recorder when one is.
pub fn init_from_env(binary: &str) {
    let trace = std::env::var("SAFEGEN_TRACE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let out = std::env::var("SAFEGEN_METRICS_OUT")
        .ok()
        .filter(|s| !s.trim().is_empty())
        .map(PathBuf::from);
    if trace || out.is_some() {
        init(binary, trace, out);
    }
}

/// Installs the global recorder explicitly (tests and tools).
pub fn init(binary: &str, trace: bool, out: Option<PathBuf>) {
    let mut guard = RECORDER.lock().unwrap();
    *guard = Some(Recorder::new(binary, trace, out));
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes the recorder and disables all hooks (tests).
pub fn shutdown() {
    let mut guard = RECORDER.lock().unwrap();
    *guard = None;
    ENABLED.store(false, Ordering::Relaxed);
}

/// Records one event. A no-op unless [`enabled`]; prefer
/// `if telemetry::enabled() { ... }` around expensive field construction.
pub fn record(kind: &str, fields: Vec<(&str, Json)>) {
    if !enabled() {
        return;
    }
    if let Some(rec) = RECORDER.lock().unwrap().as_mut() {
        rec.push(kind, fields);
    }
}

/// Times `f` as a named span. When telemetry is disabled this is one
/// atomic load around a direct call; when enabled it records a `span`
/// event (and echoes to stderr under `SAFEGEN_TRACE=1`).
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t0 = clock::Stamp::now();
    let out = f();
    note_span_event(name, t0.elapsed().as_secs_f64());
    out
}

/// Times `f` as a compiler-phase span that **always** feeds the per-phase
/// duration histogram in [`metrics::CompileMetrics`], and additionally
/// records a `span` event when the recorder is enabled. Phase granularity
/// only (one call per compile phase / optimization pass), so the
/// unconditional `Instant` reads and the histogram's mutex are far off
/// any hot path.
pub fn phase_span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let t0 = clock::Stamp::now();
    let out = f();
    let elapsed = t0.elapsed();
    metrics::metrics()
        .compile
        .observe_phase(name, elapsed.as_nanos() as u64);
    if enabled() {
        note_span_event(name, elapsed.as_secs_f64());
    }
    out
}

fn note_span_event(name: &str, elapsed: f64) {
    if let Some(rec) = RECORDER.lock().unwrap().as_mut() {
        rec.push(
            "span",
            vec![
                ("name", Json::from(name)),
                ("elapsed_s", Json::from(elapsed)),
            ],
        );
        rec.note_span(name, elapsed);
        if rec.trace {
            eprintln!("[trace] {name}: {:.3e} s", elapsed);
        }
    }
}

/// Writes the accumulated events to `<prefix>.jsonl` and the summary to
/// `<prefix>.summary.json` when `SAFEGEN_METRICS_OUT` (or [`init`]'s
/// `out`) named a prefix. Returns the summary path when files were
/// written. Safe to call repeatedly and cheap to call often: the first
/// flush creates (truncates) the JSONL file, later flushes **append**
/// only the lines recorded since, and the in-memory buffer is drained
/// each time — which is what lets the serve daemon flush per connection
/// without unbounded memory or O(total-events) rewrites. The summary file
/// is rewritten in full on every flush.
///
/// # Errors
///
/// Returns the I/O error message if a file cannot be written.
pub fn flush() -> Result<Option<PathBuf>, String> {
    let mut guard = RECORDER.lock().unwrap();
    let Some(rec) = guard.as_mut() else {
        return Ok(None);
    };
    let Some(prefix) = rec.out.as_ref() else {
        return Ok(None);
    };
    #[cfg(not(feature = "os"))]
    {
        // No filesystem sink without an OS: drop the buffered lines so a
        // long-lived embedder does not accumulate them unboundedly.
        let _ = prefix;
        rec.lines.clear();
        Ok(None)
    }
    #[cfg(feature = "os")]
    {
        let prefix = normalize_prefix(prefix);
        let jsonl = prefix.with_extension("jsonl");
        let summary = prefix.with_extension("summary.json");
        append_lines(&jsonl, &rec.lines, !rec.sink_started)
            .map_err(|e| format!("{}: {e}", jsonl.display()))?;
        rec.sink_started = true;
        rec.lines.clear();
        write_lines(&summary, &[rec.summary().to_string()])
            .map_err(|e| format!("{}: {e}", summary.display()))?;
        Ok(Some(summary))
    }
}

#[cfg(feature = "os")]
fn normalize_prefix(p: &Path) -> PathBuf {
    match p.extension() {
        Some(ext) if ext == "jsonl" => p.with_extension(""),
        _ => p.to_path_buf(),
    }
}

#[cfg(feature = "os")]
fn write_lines(path: &Path, lines: &[String]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    f.flush()
}

#[cfg(feature = "os")]
fn append_lines(path: &Path, lines: &[String], truncate: bool) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(truncate)
        .append(!truncate)
        .open(path)?;
    for line in lines {
        writeln!(f, "{line}")?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global; serialize the tests that install it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn temp_prefix(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("safegen-telemetry-{}-{tag}", std::process::id()))
    }

    #[test]
    fn disabled_hooks_are_inert() {
        let _l = LOCK.lock().unwrap();
        shutdown();
        assert!(!enabled());
        record("x", vec![]);
        assert_eq!(span("s", || 41 + 1), 42);
        assert_eq!(flush().unwrap(), None);
    }

    #[test]
    fn events_and_summary_round_trip_through_files() {
        let _l = LOCK.lock().unwrap();
        let prefix = temp_prefix("roundtrip");
        init("unit-test", false, Some(prefix.clone()));
        record("measurement", vec![("bench", Json::from("henon"))]);
        record("measurement", vec![("bench", Json::from("sor"))]);
        let got = span("phase.x", || 7);
        assert_eq!(got, 7);
        let summary_path = flush().unwrap().expect("files written");
        shutdown();

        let jsonl = std::fs::read_to_string(prefix.with_extension("jsonl")).unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = json::parse(line).unwrap();
            assert!(v.get("kind").is_some() && v.get("t").is_some());
        }
        assert_eq!(
            json::parse(lines[0])
                .unwrap()
                .get("bench")
                .unwrap()
                .as_str(),
            Some("henon")
        );

        let summary = json::parse(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
        assert_eq!(summary.get("binary").unwrap().as_str(), Some("unit-test"));
        assert_eq!(summary.get("events").unwrap().as_f64(), Some(3.0));
        let kinds = summary.get("kinds").unwrap();
        assert_eq!(kinds.get("measurement").unwrap().as_f64(), Some(2.0));
        assert_eq!(kinds.get("span").unwrap().as_f64(), Some(1.0));
        let spans = summary.get("spans").unwrap();
        assert_eq!(
            spans.get("phase.x").unwrap().get("count").unwrap().as_f64(),
            Some(1.0)
        );

        let _ = std::fs::remove_file(prefix.with_extension("jsonl"));
        let _ = std::fs::remove_file(summary_path);
    }

    #[test]
    fn jsonl_suffix_on_prefix_is_stripped() {
        let _l = LOCK.lock().unwrap();
        let prefix = temp_prefix("suffix");
        init("t", false, Some(prefix.with_extension("jsonl")));
        record("e", vec![]);
        let summary = flush().unwrap().unwrap();
        shutdown();
        assert_eq!(summary, prefix.with_extension("summary.json"));
        assert!(prefix.with_extension("jsonl").exists());
        let _ = std::fs::remove_file(prefix.with_extension("jsonl"));
        let _ = std::fs::remove_file(summary);
    }

    #[test]
    fn incremental_flush_appends_and_drains() {
        let _l = LOCK.lock().unwrap();
        let prefix = temp_prefix("incremental");
        init("t", false, Some(prefix.clone()));
        record("a", vec![]);
        record("b", vec![]);
        let summary_path = flush().unwrap().unwrap();
        record("c", vec![]);
        flush().unwrap().unwrap();
        flush().unwrap().unwrap(); // idempotent with nothing new
        shutdown();

        let jsonl = std::fs::read_to_string(prefix.with_extension("jsonl")).unwrap();
        let kinds: Vec<String> = jsonl
            .lines()
            .map(|l| {
                json::parse(l)
                    .unwrap()
                    .get("kind")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(kinds, ["a", "b", "c"]);
        let summary = json::parse(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
        assert_eq!(summary.get("events").unwrap().as_f64(), Some(3.0));

        let _ = std::fs::remove_file(prefix.with_extension("jsonl"));
        let _ = std::fs::remove_file(summary_path);
    }

    #[test]
    fn reinit_truncates_previous_sink() {
        let _l = LOCK.lock().unwrap();
        let prefix = temp_prefix("reinit");
        init("t", false, Some(prefix.clone()));
        record("old", vec![]);
        flush().unwrap().unwrap();
        init("t", false, Some(prefix.clone())); // fresh recorder, same sink
        record("new", vec![]);
        flush().unwrap().unwrap();
        shutdown();
        let jsonl = std::fs::read_to_string(prefix.with_extension("jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"new\""));
        let _ = std::fs::remove_file(prefix.with_extension("jsonl"));
        let _ = std::fs::remove_file(prefix.with_extension("summary.json"));
    }

    #[test]
    fn request_id_tags_events_and_restores() {
        let _l = LOCK.lock().unwrap();
        let prefix = temp_prefix("reqid");
        init("t", false, Some(prefix.clone()));
        let id = next_request_id();
        assert!(current_request().is_none());
        with_request(id, || {
            assert_eq!(current_request(), Some(id));
            record("inner", vec![("x", Json::from(1u64))]);
            span("inner.span", || ());
        });
        assert!(current_request().is_none());
        record("outer", vec![]);
        flush().unwrap().unwrap();
        shutdown();

        let jsonl = std::fs::read_to_string(prefix.with_extension("jsonl")).unwrap();
        let events: Vec<Json> = jsonl.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(events.len(), 3);
        for ev in &events[..2] {
            assert_eq!(ev.get("req").unwrap().as_f64(), Some(id as f64));
        }
        assert!(events[2].get("req").is_none());

        let _ = std::fs::remove_file(prefix.with_extension("jsonl"));
        let _ = std::fs::remove_file(prefix.with_extension("summary.json"));
    }

    #[test]
    fn request_ids_are_unique_and_nonzero() {
        let a = next_request_id();
        let b = next_request_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn phase_span_feeds_metrics_even_when_disabled() {
        let _l = LOCK.lock().unwrap();
        shutdown();
        let before = metrics::metrics().compile.phase_count("unit.phase");
        assert_eq!(phase_span("unit.phase", || 5), 5);
        assert_eq!(
            metrics::metrics().compile.phase_count("unit.phase"),
            before + 1
        );
    }

    #[test]
    fn init_from_env_is_inert_without_knobs() {
        let _l = LOCK.lock().unwrap();
        shutdown();
        std::env::remove_var("SAFEGEN_TRACE");
        std::env::remove_var("SAFEGEN_METRICS_OUT");
        init_from_env("t");
        assert!(!enabled());
    }
}
