//! The SafeGen command-line interface: the shape of the paper's artifact.
//!
//! ```text
//! safegen emit    <file.c> [--precision f64|dd|f32] [--k N] [--no-analysis]
//! safegen compile <file.c> -o <prog.sga> [--k N,N,...] [--no-analysis]
//!                 [--no-cache]
//! safegen run     <file.c|prog.sga> --fn NAME
//!                 [--config MNEMONIC|ia|ia-dd|unsound]
//!                 [--k N] [--arg X]... [--array "x,y,z"]...
//! safegen serve   <prog.sga|file.c> --socket PATH [--k N,N,...]
//! safegen request --socket PATH <json>
//! safegen stats   --socket PATH [--prom] [--assert-requests N]
//! safegen profile <file.c> <func> [--config MNEMONIC|dda] [--k N]
//!                 [--arg X]... [--int N]... [--array "x,y,z"]...
//! safegen tac     <file.c>
//! safegen ir      <file.c> [--fn NAME] [--passes LIST]
//! safegen fuzz    [--iters N] [--seed S] [--k N] [--out DIR]
//! ```
//!
//! Every subcommand validates its arguments **strictly**: an unknown
//! flag or verb is an error (exit code 2) listing what is valid — a
//! misspelled `--confg` can never silently fall back to defaults.
//!
//! `emit` prints the sound C program (annotated with the max-reuse
//! priorities); `compile` packages the compiled programs as a versioned,
//! content-hashed `.sga` artifact (see `docs/ARTIFACT.md`), consulting
//! the content-addressed compile cache (`SAFEGEN_CACHE_DIR`, default
//! `.safegen-cache/`); `run` executes the function under the chosen
//! numeric configuration and prints the certified ranges — from source,
//! or from a `.sga` artifact with zero recompilation (`--dump-ir` prints
//! the optimized CFG IR to stderr first, source input only); `serve`
//! loads an artifact once and answers evaluation requests over a
//! Unix-domain socket until a shutdown request (the protocol is
//! documented in `safegen_api::serve`); `request` sends one JSON request
//! line to a serving daemon and prints the response; `stats` fetches a
//! live daemon's metrics snapshot (versioned JSON by default, Prometheus
//! text exposition with `--prom`; `--assert-requests N` additionally
//! exits nonzero unless the daemon has served exactly N `eval` requests
//! with a positive latency p50 — the CI smoke gate); `profile` runs the
//! function with symbol tracing and prints the error-attribution table
//! (which source locations the final enclosure width comes from); `tac`
//! shows the three-address form the analysis operates on; `ir` dumps the
//! CFG IR after the pass pipeline (`--passes none` or a comma list like
//! `cse,dce` selects pipelines explicitly); `fuzz` runs the differential
//! soundness fuzzer (generated programs checked against an exact rational
//! oracle, cross-engine invariants and the optimized/unoptimized
//! pass-differential), writing minimized counterexamples under `--out`
//! (default `results/fuzz`) and exiting nonzero if any are found.
//!
//! All subcommands honor `SAFEGEN_TRACE=1` (span timing on stderr),
//! `SAFEGEN_METRICS_OUT=<prefix>` (JSONL event log + summary JSON) and
//! `SAFEGEN_PASSES` (the mid-level pass pipeline: unset/`default`,
//! `none`, or a comma list of `cse`, `copy-prop`, `dce`, `regalloc`).
//!
//! Everything below goes through the stable embedding facade
//! (`safegen_api`) — the CLI is an embedder like any other.

use safegen_api::serve::{request, serve, ServeOptions};
use safegen_api::telemetry;
use safegen_api::{
    ArgValue, BuildOptions, EmitPrecision, Engine, EvalRequest, FuzzOpts, LoopMode, Program,
    RunConfig,
};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  safegen emit    <file.c> [--precision f64|dd|f32] [--k N] [--no-analysis]
  safegen compile <file.c> -o <prog.sga> [--k N,N,...] [--no-analysis]
                  [--no-cache]
  safegen run     <file.c|prog.sga> --fn NAME
                  [--config dspv|ssnn|...|ia|ia-dd|unsound]
                  [--k N] [--arg X]... [--int N]... [--array \"x,y,z\"]...
                  [--loop-mode unroll|fixpoint|auto] [--unroll-budget N]
                  [--dump-ir]
  safegen serve   <prog.sga|file.c> --socket PATH [--k N,N,...]
  safegen request --socket PATH <json>
  safegen stats   --socket PATH [--prom] [--assert-requests N]
  safegen profile <file.c> <func> [--config dspv|ssnn|...|dda] [--k N]
                  [--arg X]... [--int N]... [--array \"x,y,z\"]...
  safegen tac     <file.c>
  safegen ir      <file.c> [--fn NAME] [--passes none|default|cse,dce,...]
  safegen fuzz    [--iters N] [--seed S] [--k N] [--out DIR] [--loops]

environment: SAFEGEN_TRACE=1 traces phase timing to stderr;
             SAFEGEN_METRICS_OUT=<prefix> writes <prefix>.jsonl and
             <prefix>.summary.json;
             SAFEGEN_PASSES selects the optimizing pass pipeline
             (unset/default = cse,copy-prop,dce,regalloc; none = off);
             SAFEGEN_CACHE_DIR relocates the compile cache
             (default .safegen-cache/)"
    );
    ExitCode::from(2)
}

/// The strict argument schema of one verb: which flags take a value,
/// which are boolean, and how many positional arguments are accepted.
struct VerbSpec {
    name: &'static str,
    valued: &'static [&'static str],
    boolean: &'static [&'static str],
    /// (min, max) positional count.
    positionals: (usize, usize),
}

/// Every verb the CLI speaks, with its complete flag whitelist. A flag
/// not listed here is an *error*, never silently ignored — smoke tests
/// that misspell a flag must fail loudly, not pass vacuously.
const VERBS: &[VerbSpec] = &[
    VerbSpec {
        name: "emit",
        valued: &["--precision", "--k"],
        boolean: &["--no-analysis"],
        positionals: (1, 1),
    },
    VerbSpec {
        name: "compile",
        valued: &["-o", "--out", "--k"],
        boolean: &["--no-analysis", "--no-cache"],
        positionals: (1, 1),
    },
    VerbSpec {
        name: "run",
        valued: &[
            "--fn",
            "--config",
            "--k",
            "--loop-mode",
            "--unroll-budget",
            "--arg",
            "--int",
            "--array",
        ],
        boolean: &["--dump-ir"],
        positionals: (1, 1),
    },
    VerbSpec {
        name: "serve",
        valued: &["--socket", "--k"],
        boolean: &["--no-analysis", "--no-cache"],
        positionals: (1, 1),
    },
    VerbSpec {
        name: "request",
        valued: &["--socket"],
        boolean: &[],
        positionals: (1, 1),
    },
    VerbSpec {
        name: "stats",
        valued: &["--socket", "--assert-requests"],
        boolean: &["--prom"],
        positionals: (0, 0),
    },
    VerbSpec {
        name: "profile",
        valued: &["--fn", "--config", "--k", "--arg", "--int", "--array"],
        boolean: &[],
        positionals: (1, 2),
    },
    VerbSpec {
        name: "tac",
        valued: &[],
        boolean: &[],
        positionals: (1, 1),
    },
    VerbSpec {
        name: "ir",
        valued: &["--fn", "--passes"],
        boolean: &[],
        positionals: (1, 1),
    },
    VerbSpec {
        name: "fuzz",
        valued: &["--iters", "--seed", "--k", "--out"],
        boolean: &["--loops"],
        positionals: (0, 0),
    },
];

/// Validates `rest` against the verb's whitelist and returns the
/// positional arguments in order.
///
/// # Errors
///
/// Unknown flags (listing the valid ones), missing flag values, and
/// wrong positional counts.
fn validate(spec: &VerbSpec, rest: &[String]) -> Result<Vec<String>, String> {
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let arg = rest[i].as_str();
        if spec.valued.contains(&arg) {
            if i + 1 >= rest.len() {
                return Err(format!("flag `{arg}` needs a value"));
            }
            i += 2;
        } else if spec.boolean.contains(&arg) {
            i += 1;
        } else if arg.starts_with("--") || (arg.starts_with('-') && arg.len() == 2 && arg != "-") {
            let mut valid: Vec<&str> = spec
                .valued
                .iter()
                .chain(spec.boolean.iter())
                .copied()
                .collect();
            valid.sort_unstable();
            return Err(if valid.is_empty() {
                format!("`safegen {}` takes no flags, got `{arg}`", spec.name)
            } else {
                format!(
                    "unknown flag `{arg}` for `safegen {}` (valid flags: {})",
                    spec.name,
                    valid.join(", ")
                )
            });
        } else {
            positionals.push(rest[i].clone());
            i += 1;
        }
    }
    let (min, max) = spec.positionals;
    if positionals.len() < min {
        return Err(format!(
            "`safegen {}` needs {min} positional argument(s), got {}",
            spec.name,
            positionals.len()
        ));
    }
    if positionals.len() > max {
        return Err(format!(
            "unexpected extra argument `{}` for `safegen {}`",
            positionals[max], spec.name
        ));
    }
    Ok(positionals)
}

fn main() -> ExitCode {
    telemetry::init_from_env("safegen");
    // One CLI invocation is one request: every span and event the
    // compile/cache/exec paths record during this process carries the
    // same `req` id, exactly like a daemon-side request.
    telemetry::set_request(Some(telemetry::next_request_id()));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let Some(spec) = VERBS.iter().find(|v| v.name == cmd) else {
        let verbs: Vec<&str> = VERBS.iter().map(|v| v.name).collect();
        eprintln!(
            "safegen: unknown command `{cmd}` (valid commands: {})",
            verbs.join(", ")
        );
        return usage();
    };
    let positionals = match validate(spec, rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("safegen: {e}");
            return usage();
        }
    };
    let code = match cmd.as_str() {
        "emit" => cmd_emit(&positionals, rest),
        "compile" => cmd_compile(&positionals, rest),
        "run" => cmd_run(&positionals, rest),
        "serve" => cmd_serve(&positionals, rest),
        "request" => cmd_request(&positionals, rest),
        "stats" => cmd_stats(rest),
        "profile" => cmd_profile(&positionals, rest),
        "tac" => cmd_tac(&positionals),
        "ir" => cmd_ir(&positionals, rest),
        "fuzz" => cmd_fuzz(rest),
        _ => unreachable!("verb table and dispatch table match"),
    };
    match telemetry::flush() {
        Ok(Some(summary)) => eprintln!("safegen: metrics written ({})", summary.display()),
        Ok(None) => {}
        Err(e) => eprintln!("safegen: failed to write metrics: {e}"),
    }
    telemetry::shutdown();
    code
}

fn read_source(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn flag_value<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a == name)
        .and_then(|i| rest.get(i + 1))
        .map(String::as_str)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("safegen: {msg}");
    ExitCode::FAILURE
}

fn cmd_emit(positionals: &[String], rest: &[String]) -> ExitCode {
    let path = &positionals[0];
    let src = match read_source(path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let precision = match flag_value(rest, "--precision").unwrap_or("f64") {
        "f64" => EmitPrecision::F64,
        "dd" => EmitPrecision::Dd,
        "f32" => EmitPrecision::F32,
        other => return fail(format!("unknown precision `{other}`")),
    };
    let k: usize = match flag_value(rest, "--k").unwrap_or("16").parse() {
        Ok(k) => k,
        Err(e) => return fail(format!("bad --k: {e}")),
    };
    let mut engine = Engine::new();
    if rest.iter().any(|a| a == "--no-analysis") {
        engine = engine.without_analysis();
    }
    match engine.emit_sound_c(&src, precision, k) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// Parses a comma-separated `usize` list flag, e.g. `--k 8,16,32`.
fn parse_list(rest: &[String], name: &str) -> Result<Option<Vec<usize>>, String> {
    match flag_value(rest, name) {
        None => Ok(None),
        Some(v) => v
            .split(',')
            .map(|s| s.trim().parse::<usize>())
            .collect::<Result<Vec<_>, _>>()
            .map(Some)
            .map_err(|e| format!("bad {name} `{v}`: {e}")),
    }
}

/// Builds `BuildOptions` from the shared `compile`/`serve` flags.
fn build_options(path: &str, rest: &[String]) -> Result<BuildOptions, String> {
    let mut opts = BuildOptions::new(path);
    if let Some(ks) = parse_list(rest, "--k")? {
        opts.ks = ks;
    }
    opts.analysis = !rest.iter().any(|a| a == "--no-analysis");
    opts.use_cache = !rest.iter().any(|a| a == "--no-cache");
    Ok(opts)
}

fn cmd_compile(positionals: &[String], rest: &[String]) -> ExitCode {
    let path = &positionals[0];
    let Some(out) = flag_value(rest, "-o").or_else(|| flag_value(rest, "--out")) else {
        return fail("-o <prog.sga> is required");
    };
    let src = match read_source(path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let opts = match build_options(path, rest) {
        Ok(o) => o,
        Err(e) => return fail(e),
    };
    let (program, cache_hit) = match Engine::new().compile_artifact(&src, &opts) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    if let Err(e) = program.write_file(std::path::Path::new(out)) {
        return fail(e);
    }
    eprintln!(
        "safegen: wrote {out} ({} program variant(s), id {}{})",
        program.variants().len(),
        &program.artifact_id()[..16],
        if cache_hit { ", compile cache hit" } else { "" }
    );
    ExitCode::SUCCESS
}

/// Loads a program for `serve`: directly from `.sga`, or by compiling a
/// `.c` source to its fixed artifact form (through the compile cache).
fn load_or_compile(path: &str, rest: &[String]) -> Result<Program, String> {
    let engine = Engine::new();
    if path.ends_with(".sga") {
        return engine
            .load_file(std::path::Path::new(path))
            .map_err(|e| e.to_string());
    }
    let src = read_source(path)?;
    let opts = build_options(path, rest)?;
    engine
        .compile_artifact(&src, &opts)
        .map(|(p, _)| p)
        .map_err(|e| e.to_string())
}

fn cmd_serve(positionals: &[String], rest: &[String]) -> ExitCode {
    let path = &positionals[0];
    let Some(socket) = flag_value(rest, "--socket") else {
        return fail("--socket PATH is required");
    };
    let program = match load_or_compile(path, rest) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    eprintln!(
        "safegen: serving `{}` ({} program variant(s)) on {socket}",
        program.name(),
        program.variants().len()
    );
    let opts = ServeOptions::new(socket);
    match serve(program, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(e),
    }
}

fn cmd_request(positionals: &[String], rest: &[String]) -> ExitCode {
    let Some(socket) = flag_value(rest, "--socket") else {
        return fail("--socket PATH is required");
    };
    let body = match telemetry::json::parse(&positionals[0]) {
        Ok(v) => v,
        Err(e) => return fail(format!("bad request JSON: {e}")),
    };
    match request(std::path::Path::new(socket), &body) {
        Ok(resp) => {
            println!("{resp}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// Reads a numeric field out of a metrics snapshot by path, failing
/// loudly when the snapshot shape is not what this binary expects (a
/// version skew between client and daemon should be an error, never a
/// silently-passed assertion).
fn snapshot_num(stats: &telemetry::json::Json, path: &[&str]) -> Result<f64, String> {
    let mut node = stats;
    for key in path {
        node = node
            .get(key)
            .ok_or_else(|| format!("snapshot is missing `{}`", path.join(".")))?;
    }
    node.as_f64()
        .ok_or_else(|| format!("snapshot field `{}` is not a number", path.join(".")))
}

fn cmd_stats(rest: &[String]) -> ExitCode {
    let Some(socket) = flag_value(rest, "--socket") else {
        return fail("--socket PATH is required");
    };
    let body = telemetry::json::Json::obj(vec![("op", telemetry::json::Json::from("stats"))]);
    let resp = match request(std::path::Path::new(socket), &body) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    if resp.get("error").is_some() {
        return fail(format!("daemon error: {resp}"));
    }
    let Some(stats) = resp.get("stats") else {
        return fail(format!("response has no `stats` field: {resp}"));
    };
    // Validate the snapshot version before trusting any field in it.
    match stats.get("version").and_then(|v| v.as_str()) {
        Some(v) if v == telemetry::metrics::SNAPSHOT_VERSION => {}
        Some(v) => {
            return fail(format!(
                "snapshot version `{v}` (this binary speaks `{}`)",
                telemetry::metrics::SNAPSHOT_VERSION
            ))
        }
        None => return fail("snapshot has no `version` field"),
    }
    if rest.iter().any(|a| a == "--prom") {
        match telemetry::metrics::prometheus_text(stats) {
            Ok(text) => print!("{text}"),
            Err(e) => return fail(e),
        }
    } else {
        println!("{stats}");
    }
    if let Some(n) = flag_value(rest, "--assert-requests") {
        let want: f64 = match n.parse() {
            Ok(n) => n,
            Err(e) => return fail(format!("bad --assert-requests `{n}`: {e}")),
        };
        let evals = match snapshot_num(stats, &["serve", "requests", "eval"]) {
            Ok(v) => v,
            Err(e) => return fail(e),
        };
        let p50 = match snapshot_num(stats, &["serve", "latency_ns", "p50"]) {
            Ok(v) => v,
            Err(e) => return fail(e),
        };
        if evals != want {
            return fail(format!(
                "assertion failed: daemon served {evals} eval request(s), expected {want}"
            ));
        }
        if p50 <= 0.0 {
            return fail(format!(
                "assertion failed: latency p50 is {p50}, expected > 0"
            ));
        }
        eprintln!("safegen: stats assertion passed ({evals} eval request(s), p50 {p50} ns)");
    }
    ExitCode::SUCCESS
}

fn cmd_tac(positionals: &[String]) -> ExitCode {
    let path = &positionals[0];
    let src = match read_source(path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let program = match Engine::new().compile(&src, path) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    match program.tac_text() {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_ir(positionals: &[String], rest: &[String]) -> ExitCode {
    let path = &positionals[0];
    let src = match read_source(path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    let mut engine = Engine::new();
    if let Some(list) = flag_value(rest, "--passes") {
        match engine.with_pass_spec(list) {
            Ok(e) => engine = e,
            Err(e) => return fail(e),
        }
    }
    let program = match engine.compile(&src, path) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    match program.ir_text(flag_value(rest, "--fn")) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// Parses `--arg X`, `--int N`, `--array "x,y,z"` flags in command-line
/// order into VM argument values.
fn parse_args(rest: &[String]) -> Result<Vec<ArgValue>, String> {
    let mut args: Vec<ArgValue> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--arg" => {
                let v = rest.get(i + 1).ok_or("--arg needs a value")?;
                let x = v
                    .parse::<f64>()
                    .map_err(|e| format!("bad --arg `{v}`: {e}"))?;
                args.push(ArgValue::Float(x));
                i += 2;
            }
            "--int" => {
                let v = rest.get(i + 1).ok_or("--int needs a value")?;
                let x = v
                    .parse::<i64>()
                    .map_err(|e| format!("bad --int `{v}`: {e}"))?;
                args.push(ArgValue::Int(x));
                i += 2;
            }
            "--array" => {
                let v = rest.get(i + 1).ok_or("--array needs a value")?;
                let xs: Vec<f64> = v
                    .split(',')
                    .map(|s| s.trim().parse::<f64>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("bad --array `{v}`: {e}"))?;
                args.push(ArgValue::Array(xs));
                i += 2;
            }
            _ => i += 1,
        }
    }
    Ok(args)
}

fn cmd_run(positionals: &[String], rest: &[String]) -> ExitCode {
    let path = &positionals[0];
    let Some(func) = flag_value(rest, "--fn") else {
        return fail("--fn NAME is required");
    };
    let k: usize = match flag_value(rest, "--k").unwrap_or("16").parse() {
        Ok(k) => k,
        Err(e) => return fail(format!("bad --k: {e}")),
    };
    let mut config = match RunConfig::from_cli(flag_value(rest, "--config").unwrap_or("dspv"), k) {
        Ok(c) => c,
        Err(e) => return fail(e),
    };
    if let Some(mode) = flag_value(rest, "--loop-mode") {
        match LoopMode::parse(mode) {
            Some(m) => config = config.with_loop_mode(m),
            None => {
                return fail(format!(
                    "bad --loop-mode `{mode}` (expected unroll, fixpoint, or auto)"
                ))
            }
        }
    }
    if let Some(budget) = flag_value(rest, "--unroll-budget") {
        match budget.parse::<u64>() {
            Ok(b) => config = config.with_unroll_budget(b),
            Err(e) => return fail(format!("bad --unroll-budget: {e}")),
        }
    }

    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };

    let engine = Engine::new();
    let program = if path.ends_with(".sga") {
        // Artifact input: strictly validate, select, execute — no
        // front-end or mid-end work at all.
        match engine.load_file(std::path::Path::new(path)) {
            Ok(p) => p,
            Err(e) => return fail(e),
        }
    } else {
        let src = match read_source(path) {
            Ok(s) => s,
            Err(e) => return fail(e),
        };
        match engine.compile(&src, path) {
            Ok(p) => p,
            Err(e) => return fail(e),
        }
    };
    if rest.iter().any(|a| a == "--dump-ir") {
        match program.ir_text(Some(func)) {
            Ok(text) => eprint!("{text}"),
            Err(e) => return fail(e),
        }
    }
    let result = match program.eval(&EvalRequest::new(func, config.clone()).with_args(args)) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    let report = result.report();

    println!("configuration: {}", result.config_label);
    if let Some((lo, hi)) = report.ret {
        println!("return ∈ [{lo:.17e}, {hi:.17e}]");
    }
    for (name, ranges) in &report.arrays {
        for (i, (lo, hi)) in ranges.iter().enumerate() {
            println!("{name}[{i}] ∈ [{lo:.17e}, {hi:.17e}]");
        }
    }
    if report.acc_bits.is_nan() {
        println!("certified bits: n/a (no floating results)");
    } else {
        println!(
            "certified bits (worst result): {:.1}",
            report.acc_bits.max(f64::NEG_INFINITY)
        );
    }
    if report.stats.fixpoint_loops > 0 {
        println!(
            "fixpoint: {} loop(s) solved in {} iteration(s), {} widening(s), {} narrowing(s)",
            report.stats.fixpoint_loops,
            report.stats.fixpoint_iters,
            report.stats.widenings,
            report.stats.narrowings
        );
    }
    if report.stats.undecided_branches > 0 {
        println!(
            "note: {} branch decision(s) were not soundly determined",
            report.stats.undecided_branches
        );
    }
    ExitCode::SUCCESS
}

fn cmd_profile(positionals: &[String], rest: &[String]) -> ExitCode {
    let path = &positionals[0];
    let src = match read_source(path) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    // The function is the second positional argument (with --fn accepted
    // as an alias for symmetry with `run`).
    let Some(func) = positionals
        .get(1)
        .map(String::as_str)
        .or_else(|| flag_value(rest, "--fn"))
    else {
        return fail("usage: safegen profile <file.c> <func> [...]");
    };
    let k: usize = match flag_value(rest, "--k").unwrap_or("16").parse() {
        Ok(k) => k,
        Err(e) => return fail(format!("bad --k: {e}")),
    };
    let config = match flag_value(rest, "--config").unwrap_or("dspv") {
        "dda" => RunConfig::affine_dd(k),
        m => match RunConfig::mnemonic(k, m) {
            Ok(c) => c,
            Err(e) => return fail(format!("{e} (profiling needs an affine configuration)")),
        },
    };

    let program = match Engine::new().compile(&src, path) {
        Ok(p) => p,
        Err(e) => return fail(e),
    };
    let mut args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    if args.is_empty() {
        let named = match program.default_args(func, &config) {
            Ok(n) => n,
            Err(e) => return fail(e),
        };
        let shown: Vec<String> = named
            .iter()
            .map(|(name, a)| match a {
                ArgValue::Float(x) => format!("{name}={x}"),
                ArgValue::Int(n) => format!("{name}={n}"),
                ArgValue::Array(xs) => format!("{name}=[{} values]", xs.len()),
            })
            .collect();
        eprintln!(
            "safegen: no inputs given, using defaults: {}",
            shown.join(", ")
        );
        args = named.into_iter().map(|(_, a)| a).collect();
    }

    let report = match program.profile(func, &args, &config) {
        Ok(r) => r,
        Err(e) => return fail(e),
    };
    print!("{}", report.render());
    if telemetry::enabled() {
        telemetry::record("profile", vec![("report", report.to_json())]);
    }
    ExitCode::SUCCESS
}

/// Parses a seed, accepting both decimal and `0x`-prefixed hex.
fn parse_seed(s: &str) -> Result<u64, String> {
    let (digits, radix) = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => (hex, 16),
        None => (s, 10),
    };
    u64::from_str_radix(digits, radix).map_err(|e| format!("bad --seed `{s}`: {e}"))
}

fn cmd_fuzz(rest: &[String]) -> ExitCode {
    let mut opts = FuzzOpts::default();
    if let Some(v) = flag_value(rest, "--iters") {
        match v.parse() {
            Ok(n) => opts.iters = n,
            Err(e) => return fail(format!("bad --iters `{v}`: {e}")),
        }
    }
    if let Some(v) = flag_value(rest, "--seed") {
        match parse_seed(v) {
            Ok(s) => opts.seed = s,
            Err(e) => return fail(e),
        }
    }
    if let Some(v) = flag_value(rest, "--k") {
        match v.parse() {
            Ok(k) => opts.k = k,
            Err(e) => return fail(format!("bad --k `{v}`: {e}")),
        }
    }
    if let Some(v) = flag_value(rest, "--out") {
        opts.out_dir = v.into();
    }
    if rest.iter().any(|a| a == "--loops") {
        opts.loop_weight = 4;
    }
    let summary = match safegen_api::run_fuzz(&opts) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };
    println!("{}", summary.render());
    if summary.counterexamples.is_empty() {
        ExitCode::SUCCESS
    } else {
        for cex in &summary.counterexamples {
            eprintln!(
                "safegen: counterexample (iter {}, fn {}, kind {}): {}",
                cex.iter,
                cex.func,
                cex.kind,
                cex.path.display()
            );
        }
        eprintln!(
            "safegen: replay with `safegen fuzz --seed {:#x} --iters {}`",
            opts.seed, opts.iters
        );
        ExitCode::FAILURE
    }
}
