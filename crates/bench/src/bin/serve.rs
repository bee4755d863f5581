//! Serving benchmark: compile-once/serve-many amortization.
//!
//! Measures what the artifact + daemon layer buys over the
//! compile-every-time path (EXPERIMENTS.md, "Serve benchmark"):
//!
//! * **cold (CLI)** — one full `safegen run file.c` subprocess per
//!   request: process start, parse, analysis, pass pipeline, variant
//!   compilation, evaluation. This is the per-request cost without the
//!   daemon and the baseline the amortization ratio is against;
//! * **cold (in-process)** — the library-level `compile → evaluate`
//!   path with no process spawn, reported alongside for transparency;
//! * **artifact load** — strict validation of the `.sga` bytes
//!   (`Engine::load_file`), paid once per daemon start;
//! * **warm** — request latency against a running daemon (each request
//!   is a fresh Unix-socket connection: connect → JSON line → eval →
//!   response), reported as p50/p99 and requests/sec;
//! * **concurrent** — the same with `SAFEGEN_THREADS` client threads
//!   hammering the daemon at once (thread-per-connection on both ends).
//!
//! Writes `results/BENCH_serve.json`. The headline number is
//! `amortization` = cold CLI p50 / warm p50; the acceptance bar for
//! this repo is ≥ 10× (the daemon answers from precompiled immutable
//! programs, so a warm request pays VM execution and socket overhead
//! only — no process start, parsing, analysis, or pass pipeline).

use rand::rngs::StdRng;
use rand::SeedableRng;
use safegen_api::serve::{request, serve, wait_ready, ServeOptions};
use safegen_api::{ArgValue, BuildOptions, Engine, EvalRequest, RunConfig};
use safegen_bench::harness;
use safegen_bench::workloads::{Workload, WorkloadKind};
use safegen_telemetry::json::Json;
use std::time::Instant;

fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((v.len() as f64 - 1.0) * p).round() as usize;
    v[idx]
}

/// Encodes VM argument values as serve-protocol JSON.
fn args_json(args: &[ArgValue]) -> Json {
    Json::Arr(
        args.iter()
            .map(|a| match a {
                ArgValue::Float(x) => Json::obj(vec![("float", Json::Num(*x))]),
                ArgValue::Int(n) => Json::obj(vec![("int", Json::Num(*n as f64))]),
                ArgValue::Array(xs) => Json::obj(vec![(
                    "array",
                    Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect()),
                )]),
            })
            .collect(),
    )
}

fn eval_request(func: &str, k: usize, args: &[ArgValue]) -> Json {
    Json::obj(vec![
        ("op", Json::from("eval")),
        ("func", Json::from(func)),
        ("config", Json::from("dspv")),
        ("k", Json::from(k)),
        ("args", args_json(args)),
    ])
}

fn main() {
    harness::announce("serve");
    let quick = harness::quick();
    let k = 8usize;
    let w = Workload::new(WorkloadKind::Henon {
        iters: if quick { 10 } else { 50 },
    });
    let reps = harness::reps().max(3);
    let warm_requests = if quick { 40 } else { 200 };

    let input = |i: u64| {
        let mut rng = StdRng::seed_from_u64(harness::BASE_SEED ^ i);
        w.args(&mut rng)
    };
    let config = RunConfig::affine_f64(k);

    // --- Cold path (CLI): one `safegen run` subprocess per request. ---
    // This is what evaluating without the daemon actually costs: process
    // start + parse + analysis + pass pipeline + variant compile + run.
    let safegen_bin = std::env::current_exe()
        .expect("current exe")
        .parent()
        .expect("exe dir")
        .join("safegen");
    let dir = std::env::temp_dir();
    let src_path = dir.join(format!("bench-serve-{}.c", std::process::id()));
    std::fs::write(&src_path, &w.source).expect("source writes");
    let mut cold = Vec::with_capacity(reps);
    for i in 0..reps {
        let mut cmd = std::process::Command::new(&safegen_bin);
        cmd.arg("run").arg(&src_path).args([
            "--fn",
            w.func,
            "--config",
            "dspv",
            "--k",
            &k.to_string(),
        ]);
        for a in input(i as u64) {
            match a {
                ArgValue::Float(x) => {
                    cmd.args(["--arg", &x.to_string()]);
                }
                ArgValue::Int(n) => {
                    cmd.args(["--int", &n.to_string()]);
                }
                ArgValue::Array(xs) => {
                    let list: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
                    cmd.args(["--array", &list.join(",")]);
                }
            }
        }
        let t0 = Instant::now();
        let out = cmd.output().expect("safegen run executes");
        cold.push(t0.elapsed().as_secs_f64());
        assert!(
            out.status.success(),
            "cold CLI run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let _ = std::fs::remove_file(&src_path);

    // --- Cold path (in-process): library compile + evaluate, no spawn. ---
    let mut cold_lib = Vec::with_capacity(reps);
    let engine = Engine::new();
    for i in 0..reps {
        let args = input(i as u64);
        let t0 = Instant::now();
        let program = engine.compile(&w.source, w.name).expect("compiles");
        let result = program
            .eval(&EvalRequest::new(w.func, config.clone()).with_args(args))
            .expect("runs");
        std::hint::black_box(result.report().acc_bits);
        cold_lib.push(t0.elapsed().as_secs_f64());
    }

    // --- Build the artifact once (outside any timed region except load). ---
    let mut opts = BuildOptions::new("bench-serve");
    opts.ks = vec![k];
    opts.use_cache = false;
    let (built, _) = engine
        .compile_artifact(&w.source, &opts)
        .expect("artifact builds");
    let sga = dir.join(format!("bench-serve-{}.sga", std::process::id()));
    built.write_file(&sga).expect("artifact writes");

    let t0 = Instant::now();
    let loaded = engine.load_file(&sga).expect("artifact loads");
    let load_s = t0.elapsed().as_secs_f64();

    // --- Daemon up. ---
    let socket = dir.join(format!("bench-serve-{}.sock", std::process::id()));
    let serve_opts = ServeOptions::new(socket.clone());
    let daemon = std::thread::spawn(move || serve(loaded, &serve_opts));
    wait_ready(&socket, 10_000).expect("daemon ready");

    // --- Warm path: sequential request latency. ---
    let mut warm = Vec::with_capacity(warm_requests);
    for i in 0..warm_requests {
        let req = eval_request(w.func, k, &input(i as u64));
        let t0 = Instant::now();
        let resp = request(&socket, &req).expect("request succeeds");
        warm.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            resp.get("ok"),
            Some(&Json::Bool(true)),
            "daemon rejected request: {resp}"
        );
    }

    // --- Concurrent throughput. ---
    let client_threads = match harness::threads() {
        0 => 4,
        t => t,
    };
    let per_thread = warm_requests / client_threads.max(1);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..client_threads {
            let socket = &socket;
            let w = &w;
            s.spawn(move || {
                for i in 0..per_thread {
                    let req = eval_request(w.func, k, &input((t * per_thread + i) as u64));
                    let resp = request(socket, &req).expect("request succeeds");
                    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)));
                }
            });
        }
    });
    let concurrent_s = t0.elapsed().as_secs_f64();
    let concurrent_total = client_threads * per_thread;

    // --- Daemon-side percentiles: the daemon's own metrics snapshot.
    // Client-side timings above include connect + serialization on the
    // client; the daemon's latency histogram isolates the server side
    // (read → dispatch → respond), so the gap between the two is the
    // socket/client overhead.
    let resp = request(&socket, &Json::obj(vec![("op", Json::from("stats"))]))
        .expect("stats request succeeds");
    let snapshot = resp.get("stats").expect("response carries stats").clone();
    assert_eq!(
        snapshot.get("version").and_then(|v| v.as_str()),
        Some(safegen_telemetry::metrics::SNAPSHOT_VERSION),
        "daemon snapshot version mismatch"
    );
    let daemon_num = |path: &[&str]| -> f64 {
        let mut node = &snapshot;
        for key in path {
            node = node.get(key).expect("snapshot field present");
        }
        node.as_f64().expect("snapshot field numeric")
    };
    let daemon_p50 = daemon_num(&["serve", "latency_ns", "p50"]);
    let daemon_p99 = daemon_num(&["serve", "latency_ns", "p99"]);
    let daemon_evals = daemon_num(&["serve", "requests", "eval"]);
    println!(
        "daemon-side eval latency (from stats verb): p50 {:.3e} s   p99 {:.3e} s over {} request(s)",
        daemon_p50 / 1e9,
        daemon_p99 / 1e9,
        daemon_evals
    );

    // --- Shutdown. ---
    let resp =
        request(&socket, &Json::obj(vec![("op", Json::from("shutdown"))])).expect("shutdown");
    assert_eq!(resp.get("bye"), Some(&Json::Bool(true)));
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    let _ = std::fs::remove_file(&sga);

    let cold_p50 = percentile(&cold, 0.5);
    let cold_lib_p50 = percentile(&cold_lib, 0.5);
    let warm_p50 = percentile(&warm, 0.5);
    let warm_p99 = percentile(&warm, 0.99);
    let amortization = cold_p50 / warm_p50;

    println!("\n== serve: compile-once/serve-many ==");
    println!(
        "cold CLI run      p50: {:>10.3e} s   (spawn+compile+run)",
        cold_p50
    );
    println!(
        "cold in-process   p50: {:>10.3e} s   (compile+run, no spawn)",
        cold_lib_p50
    );
    println!("artifact load (once): {:>10.3e} s", load_s);
    println!(
        "warm request      p50: {:>10.3e} s   p99: {:.3e} s   ({:.0} req/s)",
        warm_p50,
        warm_p99,
        1.0 / warm_p50
    );
    println!(
        "concurrent ({client_threads} clients): {:.0} req/s over {concurrent_total} requests",
        concurrent_total as f64 / concurrent_s
    );
    println!("amortization (cold p50 / warm p50): {amortization:.1}x");

    let doc = Json::obj(vec![
        ("binary", Json::from("serve")),
        ("reps", Json::from(reps)),
        ("base_seed", Json::from(harness::BASE_SEED)),
        ("bench", Json::from(w.name)),
        ("config", Json::from(config.label())),
        ("warm_requests", Json::from(warm_requests)),
        (
            "cold_cli",
            Json::obj(vec![
                ("p50_ns", Json::from(cold_p50 * 1e9)),
                ("p99_ns", Json::from(percentile(&cold, 0.99) * 1e9)),
            ]),
        ),
        (
            "cold_in_process",
            Json::obj(vec![
                ("p50_ns", Json::from(cold_lib_p50 * 1e9)),
                ("p99_ns", Json::from(percentile(&cold_lib, 0.99) * 1e9)),
            ]),
        ),
        ("artifact_load_ns", Json::from(load_s * 1e9)),
        (
            "warm",
            Json::obj(vec![
                ("p50_ns", Json::from(warm_p50 * 1e9)),
                ("p99_ns", Json::from(warm_p99 * 1e9)),
                ("requests_per_sec", Json::from(1.0 / warm_p50)),
            ]),
        ),
        (
            "concurrent",
            Json::obj(vec![
                ("clients", Json::from(client_threads)),
                ("requests", Json::from(concurrent_total)),
                (
                    "requests_per_sec",
                    Json::from(concurrent_total as f64 / concurrent_s),
                ),
            ]),
        ),
        (
            "daemon",
            Json::obj(vec![
                ("latency_p50_ns", Json::from(daemon_p50)),
                ("latency_p99_ns", Json::from(daemon_p99)),
                ("eval_requests", Json::from(daemon_evals)),
            ]),
        ),
        ("amortization", Json::from(amortization)),
    ]);
    harness::export_json("serve", &doc);
}
