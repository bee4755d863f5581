//! The compile-once/serve-many evaluation daemon.
//!
//! `safegen serve` loads a `.sga` artifact **once** into shared
//! immutable program state and then answers evaluation requests over a
//! Unix-domain socket, amortizing the front-end + mid-end compilation
//! cost across every request (`docs/ARTIFACT.md` motivates the format;
//! DESIGN.md §9 covers the serving architecture).
//!
//! ## Protocol
//!
//! Newline-delimited JSON, one request line → one response line per
//! connection round; a connection may issue any number of rounds.
//! Requests carry an `"op"`:
//!
//! * `{"op":"ping"}` → `{"ok":true,"pong":true}`
//! * `{"op":"list"}` → artifact name, tool, functions, variants
//! * `{"op":"eval","func":F,"config":C,"k":K,"args":[...]}` — one
//!   evaluation; `args` entries are `{"float":x}`, `{"int":n}`,
//!   `{"array":[...]}` (bare numbers are accepted as floats)
//! * `{"op":"eval","func":F,"config":C,"k":K,"inputs":[[...],[...]]}` —
//!   a batch, evaluated by the parallel batch engine; the response
//!   carries one report per input set, in input order
//! * `{"op":"stats"}` → `{"ok":true,"stats":{...}}` — a live, versioned
//!   snapshot of the process metrics registry (per-verb request counts,
//!   error counts by category, latency/byte histograms with p50/p90/p99,
//!   cache and lane-engine counters; see `safegen_telemetry::metrics`)
//! * `{"op":"shutdown"}` → `{"ok":true,"bye":true}`, then the daemon
//!   exits cleanly (removing its socket file)
//!
//! Every failure is a response line `{"ok":false,"error":"..."}` — the
//! daemon never dies on a bad request.
//!
//! ## Observability
//!
//! Every request updates the always-on metrics registry (a few relaxed
//! atomics — see DESIGN.md §11): its verb and error-category counters,
//! the in-flight gauge, and the latency/request-bytes/response-bytes
//! histograms. When the JSONL recorder is enabled, each request is also
//! assigned a process-unique id at accept time and handled under it, so
//! every event it emits (the `serve.request` summary, `vm.exec` spans,
//! batch events, cache events) carries the same `"req"` field; the
//! buffered stream is flushed incrementally on every connection close and
//! on daemon shutdown, so the tail of the stream survives the daemon
//! exiting.
//!
//! ## Concurrency model
//!
//! The artifact is immutable and shared (`Arc<Artifact>`); each
//! connection gets a thread, and each evaluation builds its own domain
//! context ("per-request scratch"). There is **no lock anywhere on the
//! request path** — see `Compiled`'s immutability contract in the
//! driver, which this daemon inherits by construction.

use crate::jsonreq;
use crate::Program;
use safegen_telemetry as telemetry;
use safegen_telemetry::json::{self, Json};
use safegen_telemetry::metrics::{metrics, ErrCategory, Verb};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Serve-loop options.
///
/// Construct with [`ServeOptions::new`] and override fields by
/// assignment; `#[non_exhaustive]` reserves room for new knobs.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServeOptions {
    /// Socket path. A *stale* file at this path (no daemon answering)
    /// is replaced; a live daemon's socket is never stolen — see
    /// [`serve`].
    pub socket: PathBuf,
    /// Per-connection read timeout in milliseconds; a client that keeps
    /// a connection open without completing a request line is dropped
    /// after this long. `0` disables the timeout.
    pub read_timeout_ms: u64,
    /// Maximum accepted request-line length in bytes. Oversize requests
    /// are answered with a JSON error and the connection is closed, so
    /// a hostile client cannot grow the line buffer without bound.
    pub max_request_bytes: usize,
}

impl ServeOptions {
    /// Options for `socket` with the default limits (30 s read timeout,
    /// 1 MiB request lines).
    pub fn new(socket: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            socket: socket.into(),
            read_timeout_ms: 30_000,
            max_request_bytes: 1 << 20,
        }
    }
}

/// True when a daemon currently answers pings on `socket`. Connect and
/// ping with short timeouts: an abandoned socket file refuses the
/// connection (or nobody responds), a live daemon pongs.
fn daemon_answers(socket: &Path) -> bool {
    let timeout = std::time::Duration::from_millis(500);
    let Ok(stream) = UnixStream::connect(socket) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let Ok(mut writer) = stream.try_clone() else {
        return false;
    };
    let ping = Json::obj(vec![("op", Json::from("ping"))]);
    if writeln!(writer, "{ping}").is_err() {
        return false;
    }
    let mut line = String::new();
    if BufReader::new(stream).read_line(&mut line).is_err() {
        return false;
    }
    matches!(json::parse(line.trim()), Ok(v) if v.get("pong") == Some(&Json::Bool(true)))
}

/// Runs the daemon until a `shutdown` request arrives.
///
/// Binds the socket, accepts connections (one thread each), and blocks
/// the calling thread. On shutdown the socket file is removed before
/// returning.
///
/// An existing file at the socket path is probed first: if a daemon
/// answers pings there, `serve` refuses to start rather than silently
/// unlinking the live daemon's socket out from under it; only a
/// genuinely stale socket (no responder) is removed.
///
/// # Errors
///
/// A live daemon already on the socket, and socket bind/IO failures,
/// rendered as strings.
pub fn serve(program: Program, opts: &ServeOptions) -> Result<(), String> {
    if opts.socket.exists() {
        if daemon_answers(&opts.socket) {
            return Err(format!(
                "a daemon is already serving on {}: refusing to steal its socket \
                 (shut it down first or use another path)",
                opts.socket.display()
            ));
        }
        let _ = std::fs::remove_file(&opts.socket);
    }
    let listener = UnixListener::bind(&opts.socket)
        .map_err(|e| format!("bind {}: {e}", opts.socket.display()))?;
    let stop = Arc::new(AtomicBool::new(false));
    let mut workers = ConnThreads::default();
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                let _ = telemetry::flush();
                return Err(format!("accept: {e}"));
            }
        };
        // `Program` is an Arc around immutable state: one refcount
        // bump hands the thread its shared handle.
        let program = program.clone();
        let stop = Arc::clone(&stop);
        let conn_opts = opts.clone();
        workers.spawn(move || serve_connection(stream, &program, &stop, &conn_opts));
    }
    workers.join_all();
    let _ = std::fs::remove_file(&opts.socket);
    // Clean shutdown: push any still-buffered telemetry to the sink so
    // the final requests' events are never lost.
    let _ = telemetry::flush();
    Ok(())
}

/// The daemon's connection threads. Each spawn first joins the threads
/// that have finished, so the set holds the live connections plus those
/// that ended since the last accept — not a handle (and an unreleased
/// thread stack) for every connection ever served.
#[derive(Default)]
struct ConnThreads(Vec<JoinHandle<()>>);

impl ConnThreads {
    fn spawn(&mut self, f: impl FnOnce() + Send + 'static) {
        let mut i = 0;
        while i < self.0.len() {
            if self.0[i].is_finished() {
                let _ = self.0.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        self.0.push(std::thread::spawn(f));
    }

    fn join_all(self) {
        for w in self.0 {
            let _ = w.join();
        }
    }
}

/// Increments the in-flight gauge for its lifetime (drop-safe).
struct InFlight;

impl InFlight {
    fn new() -> InFlight {
        metrics().serve.in_flight.inc();
        InFlight
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        metrics().serve.in_flight.dec();
    }
}

/// Counts a connection open, and on drop (every socket-close path —
/// clean EOF, timeout, oversize rejection, write failure, shutdown)
/// counts the close and flushes buffered telemetry so tail events
/// survive however the connection ends. The flush is incremental
/// (append-only), so this is cheap even per-connection.
struct ConnGuard;

impl ConnGuard {
    fn new() -> ConnGuard {
        metrics().serve.connections_opened.inc();
        ConnGuard
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        metrics().serve.connections_closed.inc();
        let _ = telemetry::flush();
    }
}

/// How one attempt to read a request line ended.
enum LineRead {
    /// A complete line (without its terminator) is in the buffer.
    Line,
    /// Clean end of stream (client hung up between requests).
    Eof,
    /// The line exceeded the configured byte cap.
    Oversize,
    /// Read error — including the per-connection timeout expiring.
    Failed,
}

/// Reads one `\n`-terminated line into `out`, never buffering more than
/// `max` bytes — the bounded replacement for `read_line`, which would
/// grow its buffer as fast as a hostile client can send.
fn read_bounded_line(reader: &mut impl BufRead, out: &mut Vec<u8>, max: usize) -> LineRead {
    out.clear();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => {
                // A final unterminated line still gets processed.
                return if out.is_empty() {
                    LineRead::Eof
                } else {
                    LineRead::Line
                };
            }
            Ok(c) => c,
            Err(_) => return LineRead::Failed,
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if out.len() + pos > max {
                    return LineRead::Oversize;
                }
                out.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                return LineRead::Line;
            }
            None => {
                if out.len() + chunk.len() > max {
                    return LineRead::Oversize;
                }
                out.extend_from_slice(chunk);
                let n = chunk.len();
                reader.consume(n);
            }
        }
    }
}

fn serve_connection(stream: UnixStream, program: &Program, stop: &AtomicBool, opts: &ServeOptions) {
    if opts.read_timeout_ms > 0 {
        let timeout = std::time::Duration::from_millis(opts.read_timeout_ms);
        if stream.set_read_timeout(Some(timeout)).is_err() {
            return;
        }
    }
    let socket: &Path = &opts.socket;
    let _conn = ConnGuard::new();
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut raw = Vec::new();
    loop {
        match read_bounded_line(&mut reader, &mut raw, opts.max_request_bytes) {
            LineRead::Line => {}
            LineRead::Eof | LineRead::Failed => return, // client hung up or timed out
            LineRead::Oversize => {
                metrics().serve.errors(ErrCategory::Oversize).inc();
                let resp = Json::obj(vec![
                    ("ok", Json::Bool(false)),
                    (
                        "error",
                        Json::from(format!(
                            "request line exceeds {} bytes",
                            opts.max_request_bytes
                        )),
                    ),
                ]);
                let _ = writeln!(writer, "{resp}");
                return;
            }
        }
        let line = String::from_utf8_lossy(&raw);
        if line.trim().is_empty() {
            continue;
        }
        // One process-unique id per request, generated at accept time:
        // every telemetry event emitted while handling it — the
        // serve.request summary, vm.exec / batch spans, cache events —
        // carries the same "req" field.
        let req_id = telemetry::next_request_id();
        let started = Instant::now();
        let out = {
            let _in_flight = InFlight::new();
            telemetry::with_request(req_id, || handle_request(line.trim(), program))
        };
        let latency_ns = started.elapsed().as_nanos() as u64;
        let micros = latency_ns / 1_000;
        let response = match out.response {
            Json::Obj(mut fields) => {
                fields.push(("micros".to_string(), Json::from(micros)));
                Json::Obj(fields)
            }
            other => other,
        };
        let text = response.to_string();
        let m = metrics();
        m.serve.requests(out.verb).inc();
        if let Some(cat) = out.error {
            m.serve.errors(cat).inc();
        }
        m.serve.latency_ns.observe(latency_ns);
        m.serve.request_bytes.observe(raw.len() as u64);
        m.serve.response_bytes.observe(text.len() as u64 + 1);
        if telemetry::enabled() {
            // Per-request summary event, under the request id.
            telemetry::with_request(req_id, || {
                let mut fields = vec![
                    ("verb", Json::from(out.verb.name())),
                    ("ok", Json::Bool(out.error.is_none())),
                    ("micros", Json::from(micros)),
                    ("ns", Json::from(latency_ns)),
                    ("bytes_in", Json::from(raw.len())),
                    ("bytes_out", Json::from(text.len() + 1)),
                    ("shutdown", Json::Bool(out.shutdown)),
                ];
                if let Some(cat) = out.error {
                    fields.push(("error", Json::from(cat.name())));
                }
                fields.extend(out.detail.iter().map(|(k, v)| (k.as_str(), v.clone())));
                telemetry::record("serve.request", fields);
            });
        }
        if writer.write_all(text.as_bytes()).is_err() || writer.write_all(b"\n").is_err() {
            return;
        }
        if out.shutdown {
            stop.store(true, Ordering::SeqCst);
            // The acceptor is blocked in `accept`; poke it awake so it
            // observes the stop flag and exits.
            let _ = UnixStream::connect(socket);
            return;
        }
    }
}

/// Everything the connection loop needs to know about one handled
/// request: the response line, whether to shut down, and the
/// classification that drives the metrics registry and the per-request
/// summary event.
struct Outcome {
    response: Json,
    shutdown: bool,
    verb: Verb,
    error: Option<ErrCategory>,
    /// Extra summary-event fields (eval phase breakdown, lanes, sizes).
    detail: Vec<(String, Json)>,
}

impl Outcome {
    fn ok(verb: Verb, response: Json) -> Outcome {
        Outcome {
            response,
            shutdown: false,
            verb,
            error: None,
            detail: Vec::new(),
        }
    }

    fn err(verb: Verb, cat: ErrCategory, msg: String) -> Outcome {
        Outcome {
            response: Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::from(msg))]),
            shutdown: false,
            verb,
            error: Some(cat),
            detail: Vec::new(),
        }
    }
}

/// Decodes and executes one request line.
fn handle_request(line: &str, program: &Program) -> Outcome {
    let request = match json::parse(line) {
        Ok(v) => v,
        Err(e) => {
            return Outcome::err(
                Verb::Other,
                ErrCategory::BadJson,
                format!("bad request JSON: {e}"),
            )
        }
    };
    match request.get("op").and_then(Json::as_str) {
        Some("ping") => Outcome::ok(
            Verb::Ping,
            Json::obj(vec![("ok", Json::Bool(true)), ("pong", Json::Bool(true))]),
        ),
        Some("shutdown") => Outcome {
            shutdown: true,
            ..Outcome::ok(
                Verb::Shutdown,
                Json::obj(vec![("ok", Json::Bool(true)), ("bye", Json::Bool(true))]),
            )
        },
        Some("stats") => {
            // Push buffered JSONL to the sink so a scraper that reads the
            // snapshot and then the stream sees a consistent picture.
            let _ = telemetry::flush();
            Outcome::ok(
                Verb::Stats,
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("stats", metrics().snapshot()),
                ]),
            )
        }
        Some("list") => Outcome::ok(Verb::List, jsonreq::list_response(program)),
        Some("eval") => match jsonreq::handle_eval(&request, program) {
            Ok((response, detail)) => Outcome {
                detail,
                ..Outcome::ok(Verb::Eval, response)
            },
            Err((cat, msg)) => Outcome::err(Verb::Eval, cat, msg),
        },
        Some(other) => Outcome::err(
            Verb::Other,
            ErrCategory::UnknownVerb,
            format!("unknown op {other:?}"),
        ),
        None => Outcome::err(
            Verb::Other,
            ErrCategory::BadRequest,
            "request needs a string \"op\" field".to_string(),
        ),
    }
}

/// Client helper: sends one request line to a serving daemon and returns
/// the parsed response.
///
/// # Errors
///
/// Connection/IO failures and malformed responses, as strings.
pub fn request(socket: &Path, body: &Json) -> Result<Json, String> {
    let stream =
        UnixStream::connect(socket).map_err(|e| format!("connect {}: {e}", socket.display()))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writeln!(writer, "{body}").map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("receive: {e}"))?;
    if line.is_empty() {
        return Err("daemon closed the connection without responding".into());
    }
    json::parse(line.trim()).map_err(|e| format!("bad response JSON: {e}"))
}

/// Waits (up to `timeout_ms`) for a daemon to answer pings on `socket` —
/// the test/benchmark startup helper.
///
/// # Errors
///
/// Times out with a message when the daemon never becomes ready.
pub fn wait_ready(socket: &Path, timeout_ms: u64) -> Result<(), String> {
    let deadline = Instant::now() + std::time::Duration::from_millis(timeout_ms);
    let ping = Json::obj(vec![("op", Json::from("ping"))]);
    loop {
        if request(socket, &ping).is_ok() {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(format!(
                "daemon on {} not ready after {timeout_ms}ms",
                socket.display()
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BuildOptions, Engine, EvalRequest, RunConfig};

    #[test]
    fn finished_connection_threads_are_joined_at_the_next_accept() {
        // 50 sequential connections, each over before the next arrives:
        // the set never holds more than the one live connection.
        let mut threads = ConnThreads::default();
        for _ in 0..50 {
            threads.spawn(|| {});
            assert_eq!(threads.0.len(), 1, "finished threads were retained");
            while !threads.0[0].is_finished() {
                std::thread::yield_now();
            }
        }
        // A live connection is kept across accepts.
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        threads.spawn(move || {
            let _ = rx.recv();
        });
        threads.spawn(|| {});
        assert_eq!(threads.0.len(), 2);
        drop(tx);
        threads.join_all();
    }

    fn test_program() -> Program {
        let mut opts = BuildOptions::new("serve-test.c");
        opts.ks = vec![8];
        opts.use_cache = false;
        let (program, _) = Engine::new()
            .compile_artifact(
                "double f(double x, double y) { return x * y + 0.1; }",
                &opts,
            )
            .unwrap();
        program
    }

    fn sock_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("safegen-serve-{tag}-{}.sock", std::process::id()))
    }

    /// Spawns a daemon thread with custom options and waits until it
    /// answers pings.
    fn spawn_daemon_with(
        tag: &str,
        tweak: impl FnOnce(ServeOptions) -> ServeOptions,
    ) -> (PathBuf, std::thread::JoinHandle<Result<(), String>>) {
        let socket = sock_path(tag);
        let opts = tweak(ServeOptions::new(socket.clone()));
        let program = test_program();
        let handle = std::thread::spawn(move || serve(program, &opts));
        wait_ready(&socket, 5_000).unwrap();
        (socket, handle)
    }

    /// Spawns a daemon thread and waits until it answers pings.
    fn spawn_daemon(tag: &str) -> (PathBuf, std::thread::JoinHandle<Result<(), String>>) {
        spawn_daemon_with(tag, |o| o)
    }

    #[test]
    fn ping_eval_and_clean_shutdown() {
        let (socket, handle) = spawn_daemon("basic");

        let resp = request(
            &socket,
            &Json::obj(vec![
                ("op", Json::from("eval")),
                ("func", Json::from("f")),
                ("config", Json::from("dspv")),
                ("k", Json::from(8u64)),
                // Unknown keys are ignored; `k_low` sets nothing.
                ("k_low", Json::from(2u64)),
                (
                    "args",
                    Json::Arr(vec![
                        Json::obj(vec![("float", Json::Num(0.5))]),
                        Json::Num(0.25), // bare number accepted as float
                    ]),
                ),
            ]),
        )
        .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        let ret = resp.get("ret").unwrap().as_arr().unwrap();
        let (lo, hi) = (ret[0].as_f64().unwrap(), ret[1].as_f64().unwrap());
        let expected = 0.5 * 0.25 + 0.1;
        assert!(lo <= expected && expected <= hi);
        assert!(resp.get("micros").unwrap().as_f64().unwrap() >= 0.0);

        // Response matches a direct in-process facade run bit-for-bit.
        let direct = test_program()
            .eval(
                &EvalRequest::new("f", RunConfig::affine_f64(8))
                    .with_args(vec![0.5.into(), 0.25.into()]),
            )
            .unwrap();
        assert_eq!(direct.report().ret.unwrap(), (lo, hi));

        let resp = request(&socket, &Json::obj(vec![("op", Json::from("list"))])).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            resp.get("functions").unwrap().as_arr().unwrap()[0].as_str(),
            Some("f")
        );

        let resp = request(&socket, &Json::obj(vec![("op", Json::from("shutdown"))])).unwrap();
        assert_eq!(resp.get("bye"), Some(&Json::Bool(true)));
        handle.join().unwrap().unwrap();
        assert!(!socket.exists(), "socket file must be removed on shutdown");
    }

    #[test]
    fn batch_eval_and_error_paths() {
        let (socket, handle) = spawn_daemon("batch");

        // Batch form returns one report per input set, in order.
        let resp = request(
            &socket,
            &Json::obj(vec![
                ("op", Json::from("eval")),
                ("func", Json::from("f")),
                ("config", Json::from("ia")),
                (
                    "inputs",
                    Json::Arr(vec![
                        Json::Arr(vec![Json::Num(0.5), Json::Num(0.25)]),
                        Json::Arr(vec![Json::Num(1.5), Json::Num(2.0)]),
                    ]),
                ),
                ("threads", Json::from(2u64)),
            ]),
        )
        .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        assert_eq!(resp.get("reports").unwrap().as_arr().unwrap().len(), 2);

        // Bad requests get error responses; the daemon survives them all.
        for bad in [
            "not json at all".to_string(),
            Json::obj(vec![("op", Json::from("nope"))]).to_string(),
            Json::obj(vec![("op", Json::from("eval")), ("func", Json::from("g"))]).to_string(),
            Json::obj(vec![
                ("op", Json::from("eval")),
                ("func", Json::from("f")),
                ("config", Json::from("dspv")),
                ("k", Json::from(32u64)), // variant not in artifact
                ("args", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
            ])
            .to_string(),
        ] {
            let parsed = json::parse(&bad);
            let resp = match parsed {
                Ok(v) => request(&socket, &v).unwrap(),
                Err(_) => {
                    // Raw invalid line through a manual connection.
                    let stream = UnixStream::connect(&socket).unwrap();
                    let mut w = stream.try_clone().unwrap();
                    writeln!(w, "{bad}").unwrap();
                    let mut line = String::new();
                    BufReader::new(stream).read_line(&mut line).unwrap();
                    json::parse(line.trim()).unwrap()
                }
            };
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
            assert!(resp.get("error").is_some());
        }

        let _ = request(&socket, &Json::obj(vec![("op", Json::from("shutdown"))])).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn live_daemon_socket_is_not_stolen() {
        let (socket, handle) = spawn_daemon("steal");

        // A second daemon on the same socket must refuse to start…
        let err = serve(test_program(), &ServeOptions::new(socket.clone()))
            .expect_err("second daemon must refuse a live socket");
        assert!(err.contains("already serving"), "{err}");

        // …and the first daemon must still be answering.
        let resp = request(&socket, &Json::obj(vec![("op", Json::from("ping"))])).unwrap();
        assert_eq!(resp.get("pong"), Some(&Json::Bool(true)));

        let _ = request(&socket, &Json::obj(vec![("op", Json::from("shutdown"))])).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn stale_socket_is_replaced() {
        let socket = sock_path("stale");
        // A socket file with no listener behind it: bind and drop.
        drop(UnixListener::bind(&socket).unwrap());
        assert!(socket.exists(), "stale socket file left behind");

        let opts = ServeOptions::new(socket.clone());
        let program = test_program();
        let handle = std::thread::spawn(move || serve(program, &opts));
        wait_ready(&socket, 5_000).expect("daemon must replace a stale socket");

        let _ = request(&socket, &Json::obj(vec![("op", Json::from("shutdown"))])).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn oversize_request_is_rejected_with_json_error() {
        let (socket, handle) = spawn_daemon_with("oversize", |o| ServeOptions {
            max_request_bytes: 256,
            ..o
        });

        let stream = UnixStream::connect(&socket).unwrap();
        let mut w = stream.try_clone().unwrap();
        let huge = "x".repeat(4096);
        // The server answers and closes as soon as the limit trips,
        // which can race the tail of this oversized write into a broken
        // pipe — that is the rejection working, not a test failure.
        let _ = writeln!(w, "{huge}");
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        let resp = json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");
        assert!(
            resp.get("error")
                .unwrap()
                .as_str()
                .unwrap()
                .contains("256 bytes"),
            "{resp}"
        );

        // The daemon survives and keeps serving new connections.
        let resp = request(&socket, &Json::obj(vec![("op", Json::from("ping"))])).unwrap();
        assert_eq!(resp.get("pong"), Some(&Json::Bool(true)));

        let _ = request(&socket, &Json::obj(vec![("op", Json::from("shutdown"))])).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn idle_connection_is_dropped_on_timeout() {
        let (socket, handle) = spawn_daemon_with("timeout", |o| ServeOptions {
            read_timeout_ms: 150,
            ..o
        });

        // Connect and send nothing: the daemon must hang up on us.
        let stream = UnixStream::connect(&socket).unwrap();
        let mut line = String::new();
        let n = BufReader::new(stream).read_line(&mut line).unwrap_or(0);
        assert_eq!(n, 0, "daemon must close an idle connection, got {line:?}");

        // Fresh connections still work afterwards.
        let resp = request(&socket, &Json::obj(vec![("op", Json::from("ping"))])).unwrap();
        assert_eq!(resp.get("pong"), Some(&Json::Bool(true)));

        let _ = request(&socket, &Json::obj(vec![("op", Json::from("shutdown"))])).unwrap();
        handle.join().unwrap().unwrap();
    }

    /// Polls until `cond` holds, or panics after ~2 s. Metric gauges are
    /// process-global and other tests' daemons run concurrently, so
    /// transient values are expected; only the settled state is asserted.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..100 {
            if cond() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        panic!("timed out waiting for: {what}");
    }

    #[test]
    fn stats_verb_returns_versioned_snapshot() {
        // Counters are process-global and monotone, so deltas are
        // asserted as `>=`: concurrent tests can only add to them.
        let m = metrics();
        let evals0 = m.serve.requests(Verb::Eval).get();
        let stats0 = m.serve.requests(Verb::Stats).get();
        let lat0 = m.serve.latency_ns.count();
        let (socket, handle) = spawn_daemon("statsverb");

        let resp = request(
            &socket,
            &Json::obj(vec![
                ("op", Json::from("eval")),
                ("func", Json::from("f")),
                ("config", Json::from("dspv")),
                ("k", Json::from(8u64)),
                ("args", Json::Arr(vec![Json::Num(0.5), Json::Num(0.25)])),
            ]),
        )
        .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");

        let resp = request(&socket, &Json::obj(vec![("op", Json::from("stats"))])).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");
        let stats = resp.get("stats").expect("stats field");
        assert_eq!(
            stats.get("version").and_then(|v| v.as_str()),
            Some(safegen_telemetry::metrics::SNAPSHOT_VERSION),
            "{stats}"
        );
        let num = |path: &[&str]| -> f64 {
            let mut node = stats;
            for key in path {
                node = node.get(key).unwrap_or_else(|| panic!("missing {path:?}"));
            }
            node.as_f64()
                .unwrap_or_else(|| panic!("{path:?} not a number"))
        };
        assert!(num(&["serve", "requests", "eval"]) >= (evals0 + 1) as f64);
        // A request is counted after it is handled, so a snapshot never
        // sees the stats request that produced it — but it does see any
        // earlier one.
        let second = request(&socket, &Json::obj(vec![("op", Json::from("stats"))])).unwrap();
        let second_stats = second.get("stats").expect("stats field");
        assert!(
            second_stats
                .get("serve")
                .and_then(|s| s.get("requests"))
                .and_then(|r| r.get("stats"))
                .and_then(|v| v.as_f64())
                .unwrap()
                >= (stats0 + 1) as f64
        );
        assert!(num(&["serve", "requests", "total"]) >= num(&["serve", "requests", "eval"]));
        assert!(num(&["serve", "latency_ns", "count"]) >= (lat0 + 1) as f64);
        assert!(
            num(&["serve", "latency_ns", "p50"]) > 0.0,
            "nanosecond latency p50 must be positive: {stats}"
        );
        // The other registry sections ride along in the same snapshot.
        assert!(stats.get("cache").is_some(), "{stats}");
        assert!(stats.get("lanes").is_some(), "{stats}");
        assert!(stats.get("compile").is_some(), "{stats}");
        assert!(num(&["uptime_s"]) >= 0.0);

        let _ = request(&socket, &Json::obj(vec![("op", Json::from("shutdown"))])).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn error_paths_move_their_error_counters() {
        let m = metrics();
        let in_flight0 = m.serve.in_flight.get();
        let oversize0 = m.serve.errors(ErrCategory::Oversize).get();
        let bad_json0 = m.serve.errors(ErrCategory::BadJson).get();
        let unk_verb0 = m.serve.errors(ErrCategory::UnknownVerb).get();
        let unk_prog0 = m.serve.errors(ErrCategory::UnknownProgram).get();
        let errors_total0 = m.serve.errors_total();
        let (socket, handle) = spawn_daemon_with("errmetrics", |o| ServeOptions {
            max_request_bytes: 256,
            ..o
        });

        // Oversize: the limit trips before a request is even parsed.
        let stream = UnixStream::connect(&socket).unwrap();
        let mut w = stream.try_clone().unwrap();
        let _ = writeln!(w, "{}", "x".repeat(4096));
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        // Closing the write half ends the connection now; left open, it
        // holds shutdown for the daemon's whole read timeout.
        drop(w);
        assert!(m.serve.errors(ErrCategory::Oversize).get() > oversize0);

        // Malformed JSON.
        let stream = UnixStream::connect(&socket).unwrap();
        let mut w = stream.try_clone().unwrap();
        writeln!(w, "this is not json").unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        drop(w);
        assert!(m.serve.errors(ErrCategory::BadJson).get() > bad_json0);

        // Unknown verb.
        let resp = request(&socket, &Json::obj(vec![("op", Json::from("nope"))])).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(m.serve.errors(ErrCategory::UnknownVerb).get() > unk_verb0);

        // Unknown program (function not in the artifact).
        let resp = request(
            &socket,
            &Json::obj(vec![
                ("op", Json::from("eval")),
                ("func", Json::from("no_such_fn")),
                ("config", Json::from("dspv")),
                ("k", Json::from(8u64)),
                ("args", Json::Arr(vec![])),
            ]),
        )
        .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(m.serve.errors(ErrCategory::UnknownProgram).get() > unk_prog0);

        // Every error above is also in the aggregate.
        assert!(m.serve.errors_total() >= errors_total0 + 4);

        let _ = request(&socket, &Json::obj(vec![("op", Json::from("shutdown"))])).unwrap();
        handle.join().unwrap().unwrap();

        // Nothing above leaks an in-flight slot: the gauge settles back
        // to (at most) where it started once our daemon is down.
        wait_until("in-flight gauge returns to baseline", || {
            m.serve.in_flight.get() <= in_flight0
        });
    }

    #[test]
    fn request_id_correlates_summary_and_spans() {
        let prefix =
            std::env::temp_dir().join(format!("safegen-serve-trace-{}", std::process::id()));
        telemetry::init("serve-test", false, Some(prefix.clone()));
        let (socket, handle) = spawn_daemon("reqid");

        // An eval under a config label no other test uses, so its
        // summary event is findable in the shared JSONL stream.
        let resp = request(
            &socket,
            &Json::obj(vec![
                ("op", Json::from("eval")),
                ("func", Json::from("f")),
                ("config", Json::from("ssnn")),
                ("k", Json::from(8u64)),
                ("args", Json::Arr(vec![Json::Num(0.5), Json::Num(0.25)])),
            ]),
        )
        .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp}");

        let _ = request(&socket, &Json::obj(vec![("op", Json::from("shutdown"))])).unwrap();
        handle.join().unwrap().unwrap();
        telemetry::flush().unwrap();
        telemetry::shutdown();

        let jsonl = prefix.with_extension("jsonl");
        let text = std::fs::read_to_string(&jsonl).unwrap();
        let events: Vec<Json> = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| json::parse(l).unwrap())
            .collect();
        let summary = events
            .iter()
            .find(|e| {
                e.get("kind").and_then(|k| k.as_str()) == Some("serve.request")
                    && e.get("config")
                        .and_then(|c| c.as_str())
                        .is_some_and(|c| c.contains("ssnn"))
            })
            .unwrap_or_else(|| panic!("no ssnn serve.request event in {}", jsonl.display()));
        let req = summary
            .get("req")
            .and_then(|r| r.as_f64())
            .expect("summary event carries a req id");
        assert!(req > 0.0);
        // The VM execution span recorded while handling that request
        // carries the same id — that is the cross-event correlation.
        let correlated_span = events.iter().any(|e| {
            e.get("kind").and_then(|k| k.as_str()) == Some("span")
                && e.get("name").and_then(|n| n.as_str()) == Some("vm.exec")
                && e.get("req").and_then(|r| r.as_f64()) == Some(req)
        });
        assert!(
            correlated_span,
            "no vm.exec span shares req {req} in {}",
            jsonl.display()
        );
        let _ = std::fs::remove_file(&jsonl);
        let _ = std::fs::remove_file(prefix.with_extension("summary.json"));
    }

    #[test]
    fn batch_eval_reports_lane_width_and_matches_single_evals() {
        let (socket, handle) = spawn_daemon("lanes");
        let points: Vec<Json> = (0..6)
            .map(|i| Json::Arr(vec![Json::Num(0.1 * i as f64), Json::Num(0.25)]))
            .collect();
        let eval = |fields: Vec<(&str, Json)>| {
            let mut req = vec![
                ("op", Json::from("eval")),
                ("func", Json::from("f")),
                ("config", Json::from("ia")),
            ];
            req.extend(fields);
            request(&socket, &Json::obj(req)).unwrap()
        };
        let batch = eval(vec![("inputs", Json::Arr(points.clone()))]);
        // Six IGen-f64 items run as one six-wide lane group.
        assert_eq!(batch.get("lanes"), Some(&Json::from(6u64)));
        // A request's "lanes" is an unknown key, ignored like any other.
        let asked_scalar = eval(vec![
            ("inputs", Json::Arr(points.clone())),
            ("lanes", Json::from(1u64)),
        ]);
        for key in ["reports", "lanes"] {
            assert_eq!(asked_scalar.get(key), batch.get(key), "{key}");
        }
        let reports = batch.get("reports").and_then(Json::as_arr).unwrap();
        assert_eq!(reports.len(), points.len());
        for (report, point) in reports.iter().zip(&points) {
            let single = eval(vec![("args", point.clone())]);
            for key in ["ret", "arrays", "acc_bits", "stats"] {
                assert_eq!(report.get(key), single.get(key), "{key} of {point}");
            }
        }

        let _ = request(&socket, &Json::obj(vec![("op", Json::from("shutdown"))])).unwrap();
        handle.join().unwrap().unwrap();
    }
}
