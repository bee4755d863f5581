//! # safegen-api
//!
//! The **stable embedding facade** of SafeGen-rs — the one public
//! surface through which every consumer (the `safegen` CLI, the serve
//! daemon, the benchmark binaries, the C ABI in `safegen-capi`, and
//! external embedders) drives the sound-compilation engine.
//!
//! The object model is deliberately small:
//!
//! * [`Engine`] — compilation entry point: configuration (pass
//!   pipeline, analysis toggle) plus the compile paths (`compile`,
//!   `compile_artifact`, `load_bytes`).
//! * [`Program`] — an immutable, cheaply cloneable (`Arc`-shared)
//!   compiled program. Convertible to/from the versioned `.sga`
//!   artifact bytes, evaluable from any number of threads at once.
//! * [`EvalRequest`] / [`EvalResult`] — one evaluation: the function,
//!   the numeric configuration ([`RunConfig`]), the inputs (a single
//!   argument list or a batch), and the certified enclosures plus
//!   execution statistics that come back.
//! * [`ApiError`] — every failure, classified.
//!
//! ```
//! use safegen_api::{Engine, EvalRequest, RunConfig};
//!
//! let engine = Engine::new();
//! let program = engine
//!     .compile("double f(double a, double b) { return a * b + 0.1; }", "demo.c")
//!     .unwrap();
//! let result = program
//!     .eval(&EvalRequest::new("f", RunConfig::affine_f64(8)).with_args(vec![0.5.into(), 0.25.into()]))
//!     .unwrap();
//! let (lo, hi) = result.report().ret.unwrap();
//! assert!(lo <= 0.5 * 0.25 + 0.1 && 0.5 * 0.25 + 0.1 <= hi);
//! ```
//!
//! ## Feature `os`
//!
//! Everything that needs a real operating system — the serve daemon
//! (Unix sockets, threads), the on-disk compile cache, batch worker
//! threads, wall clocks — sits behind the default `os` feature. With
//! `--no-default-features` the whole facade builds for OS-less targets
//! such as `wasm32-unknown-unknown`: evaluation runs serially (results
//! are bit-identical by the batch engine's determinism contract) and
//! timing fields read as zero. See `docs/EMBEDDING.md`.
//!
//! ## Stability
//!
//! This crate, the `.sga` artifact bytes, and the JSON request schema in
//! [`jsonreq`] are the stable surface. The engine crates underneath
//! (`safegen`, `safegen-ir`, …) are internal and may change shape at any
//! time; the escape hatch re-exports in [`diag`] are explicitly
//! unstable.

#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

use safegen::program::{ParamBinding, Program as BytecodeProgram};
use safegen::{
    build_artifact, compile_to_artifact_cached, run_batch, run_batch_with, run_on, select_program,
    Compiled, Compiler,
};
use safegen_telemetry::clock::Stamp;

pub mod jsonreq;
#[cfg(feature = "os")]
pub mod serve;

// ---------------------------------------------------------------------
// Stable re-exports: the vocabulary types of the facade.
// ---------------------------------------------------------------------

pub use safegen::{
    check_source, parse_corpus_header, run_fuzz, AaConfig, ArgValue, Artifact, ArtifactError,
    ArtifactMeta, BatchItem, BatchOptions, BatchResult, BuildOptions, CheckOpts, CheckReport,
    DomainKind, ErrorSource, FuzzOpts, FuzzSummary, LoopMode, PassManager, Placement,
    ProfileReport, RunConfig, RunReport, RunStats, VariantKind, WorkerStats,
};

pub use safegen_cfront::EmitPrecision;

/// The telemetry layer (metrics registry, JSONL recorder, JSON values),
/// re-exported so embedders need not depend on `safegen-telemetry`
/// directly.
pub use safegen_telemetry as telemetry;

/// Unstable engine internals, re-exported for the repository's own
/// benchmark binaries and diagnostic tools.
///
/// Nothing here is part of the stable embedding surface: names can move
/// or vanish between minor versions. Embedders should treat this module
/// as off-limits.
pub mod diag {
    pub use safegen::program::Program as BytecodeProgram;
    pub use safegen::{
        compile_program, compile_program_with, emit_program, encode, exec, exec_lanes,
        pair_histogram, run_lanes_on, run_on, Compiled, Compiler, FixedProgram, RunResult,
        UnsoundF64, MAX_LANES,
    };
}

/// The facade's version string (the workspace version), the same string
/// reported by `sg_version` in the C ABI.
pub fn version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Every way a facade call can fail, classified.
///
/// The classification is stable: the serve daemon's error categories and
/// the C ABI's `sg_status` codes are both derived from these variants.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ApiError {
    /// The source program did not compile (parse or semantic error).
    Compile(String),
    /// The requested function/variant does not exist in the program.
    UnknownProgram(String),
    /// The request itself is malformed (bad config name, bad argument
    /// shape, bad JSON field).
    InvalidRequest(String),
    /// Evaluation failed in the VM.
    Eval(String),
    /// The artifact bytes are invalid (truncated, corrupted, version
    /// mismatch or reserved flags set).
    Artifact(String),
    /// An operating-system level failure (file or socket IO).
    Io(String),
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApiError::Compile(m) => write!(f, "compile error: {m}"),
            ApiError::UnknownProgram(m) => write!(f, "unknown program: {m}"),
            ApiError::InvalidRequest(m) => write!(f, "invalid request: {m}"),
            ApiError::Eval(m) => write!(f, "evaluation error: {m}"),
            ApiError::Artifact(m) => write!(f, "artifact error: {m}"),
            ApiError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for ApiError {}

impl ApiError {
    /// The bare message, without the category prefix `Display` adds.
    pub fn message(&self) -> &str {
        match self {
            ApiError::Compile(m)
            | ApiError::UnknownProgram(m)
            | ApiError::InvalidRequest(m)
            | ApiError::Eval(m)
            | ApiError::Artifact(m)
            | ApiError::Io(m) => m,
        }
    }
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// The compilation entry point: configuration plus the compile paths.
///
/// An `Engine` is cheap to create and to clone; it holds no caches
/// itself — the content-addressed compile cache behind
/// [`Engine::compile_artifact`] is process-global and on disk (see
/// `SAFEGEN_CACHE_DIR`), and the always-on metrics registry is
/// process-global too ([`Engine::metrics`]).
#[derive(Clone, Debug)]
pub struct Engine {
    passes: Option<PassManager>,
    analysis: bool,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// An engine with the default configuration: max-reuse analysis on,
    /// pass pipeline resolved from `SAFEGEN_PASSES` at compile time
    /// (the optimizing default when unset).
    pub fn new() -> Engine {
        Engine {
            passes: None,
            analysis: true,
        }
    }

    /// Disables the max-reuse static analysis (paper Sec. VI): compiled
    /// programs carry no prioritized variants.
    pub fn without_analysis(mut self) -> Engine {
        self.analysis = false;
        self
    }

    /// Pins the mid-level pass pipeline, overriding `SAFEGEN_PASSES`.
    pub fn with_passes(mut self, pm: PassManager) -> Engine {
        self.passes = Some(pm);
        self
    }

    /// Pins the pass pipeline from a spec string (`"none"`, `"default"`,
    /// or a comma list like `"cse,dce"`).
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] for an unknown pass name.
    pub fn with_pass_spec(self, spec: &str) -> Result<Engine, ApiError> {
        let pm = PassManager::from_spec(spec).map_err(ApiError::InvalidRequest)?;
        Ok(self.with_passes(pm))
    }

    /// Compiles C source in-process: front end → TAC → analysis → pass
    /// pipeline. The returned [`Program`] compiles evaluation variants
    /// lazily, for any budget `k` — use this for interactive work; use
    /// [`Engine::compile_artifact`] when the variant set should be fixed
    /// and serialized.
    ///
    /// `name` labels the program (artifact metadata, daemon `list`
    /// responses) — conventionally the source path.
    ///
    /// # Errors
    ///
    /// [`ApiError::Compile`] with the parse/semantic diagnostic.
    pub fn compile(&self, source: &str, name: &str) -> Result<Program, ApiError> {
        let mut compiler = if self.analysis {
            Compiler::new()
        } else {
            Compiler::new().without_prioritization()
        };
        if let Some(pm) = &self.passes {
            compiler = compiler.with_passes(pm.clone());
        }
        let compiled = compiler
            .compile(source)
            .map_err(|e| ApiError::Compile(e.to_string()))?;
        Ok(Program {
            inner: Arc::new(Backing::Compiled {
                compiled,
                name: name.to_string(),
            }),
        })
    }

    /// Compiles C source to a fixed, serializable variant set through
    /// the content-addressed compile cache. Returns the program and
    /// whether it was a cache hit.
    ///
    /// The variant set (the budgets) is controlled by `opts`; the
    /// engine's analysis toggle and pass pipeline do not apply here —
    /// `opts.analysis` and the `SAFEGEN_PASSES` environment (hashed into
    /// the cache key) do.
    ///
    /// # Errors
    ///
    /// [`ApiError::Compile`] for front-end failures.
    pub fn compile_artifact(
        &self,
        source: &str,
        opts: &BuildOptions,
    ) -> Result<(Program, bool), ApiError> {
        let (artifact, cache_hit) =
            compile_to_artifact_cached(source, opts).map_err(ApiError::Compile)?;
        Ok((
            Program {
                inner: Arc::new(Backing::Artifact(artifact)),
            },
            cache_hit,
        ))
    }

    /// Loads a program from `.sga` artifact bytes (strict validation:
    /// magic, version, reserved flags, checksums).
    ///
    /// # Errors
    ///
    /// [`ApiError::Artifact`] with the validation diagnostic.
    pub fn load_bytes(&self, bytes: &[u8]) -> Result<Program, ApiError> {
        let artifact =
            Artifact::from_bytes(bytes).map_err(|e| ApiError::Artifact(e.to_string()))?;
        Ok(Program {
            inner: Arc::new(Backing::Artifact(artifact)),
        })
    }

    /// Loads a program from a `.sga` artifact file.
    ///
    /// # Errors
    ///
    /// [`ApiError::Artifact`] for unreadable or invalid files.
    #[cfg(feature = "os")]
    pub fn load_file(&self, path: &std::path::Path) -> Result<Program, ApiError> {
        let artifact = Artifact::read_file(path).map_err(|e| ApiError::Artifact(e.to_string()))?;
        Ok(Program {
            inner: Arc::new(Backing::Artifact(artifact)),
        })
    }

    /// Emits the paper's actual artifact shape: a sound C program
    /// against the `aa_*` runtime API (Fig. 2), annotated with the
    /// max-reuse priorities at budget `k` when the engine's analysis is
    /// enabled.
    ///
    /// # Errors
    ///
    /// [`ApiError::Compile`] for front-end or analysis failures.
    pub fn emit_sound_c(
        &self,
        source: &str,
        precision: EmitPrecision,
        k: usize,
    ) -> Result<String, ApiError> {
        let mut compiler = Compiler::new();
        compiler.prioritize = self.analysis;
        if let Some(pm) = &self.passes {
            compiler = compiler.with_passes(pm.clone());
        }
        let compiled = compiler
            .compile(source)
            .map_err(|e| ApiError::Compile(e.to_string()))?;
        let unit = if self.analysis {
            safegen_analysis::annotate_unit(&compiled.tac, k)
                .map_err(|e| ApiError::Compile(e.to_string()))?
        } else {
            compiled.tac.clone()
        };
        let sema = safegen_cfront::analyze(&unit).map_err(|e| ApiError::Compile(e.to_string()))?;
        Ok(safegen_cfront::emit_c(&unit, &sema, precision))
    }

    /// A live snapshot of the process-global metrics registry as a JSON
    /// value (the same shape the daemon's `stats` verb returns; see
    /// `safegen_telemetry::metrics::SNAPSHOT_VERSION`).
    pub fn metrics(&self) -> telemetry::json::Json {
        telemetry::metrics::metrics().snapshot()
    }
}

// ---------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------

/// What a [`Program`] is backed by.
///
/// An artifact backing has a *fixed* variant set (strict selection, the
/// serve daemon's semantics); a compiled backing can produce a variant
/// for any configuration on demand (the interactive semantics).
#[derive(Debug)]
enum Backing {
    Artifact(Artifact),
    Compiled { compiled: Compiled, name: String },
}

/// An immutable compiled program, shareable across threads.
///
/// `Program` is an `Arc` around immutable state: `clone` is one atomic
/// increment, and any number of threads may evaluate concurrently
/// without contending a lock (the serve daemon's hot path runs on
/// exactly this guarantee).
#[derive(Clone, Debug)]
pub struct Program {
    inner: Arc<Backing>,
}

/// One program variant a [`Program`] can run: which function, which
/// annotation kind, how large the compiled bytecode is.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct VariantInfo {
    /// Function name.
    pub func: String,
    /// The variant kind (plain / prioritized).
    pub kind: VariantKind,
    /// Instruction count of the compiled bytecode.
    pub instrs: usize,
}

impl Program {
    /// The program's label: the artifact name, conventionally the
    /// source path it was compiled from.
    pub fn name(&self) -> &str {
        match &*self.inner {
            Backing::Artifact(a) => &a.meta.name,
            Backing::Compiled { name, .. } => name,
        }
    }

    /// The producing tool string (`safegen <version>`).
    pub fn tool(&self) -> String {
        match &*self.inner {
            Backing::Artifact(a) => a.meta.tool.clone(),
            Backing::Compiled { .. } => safegen_artifact::tool_version(),
        }
    }

    /// The functions this program can evaluate.
    pub fn functions(&self) -> Vec<String> {
        match &*self.inner {
            Backing::Artifact(a) => a.functions().into_iter().map(str::to_string).collect(),
            Backing::Compiled { compiled, .. } => compiled
                .tac
                .functions
                .iter()
                .map(|f| f.name.clone())
                .collect(),
        }
    }

    /// Every materialized program variant. For an artifact backing this
    /// is the complete (fixed) set; for an in-process compilation it is
    /// the precompiled set — other configurations still evaluate, they
    /// just compile their variant on demand.
    pub fn variants(&self) -> Vec<VariantInfo> {
        match &*self.inner {
            Backing::Artifact(a) => a
                .programs
                .iter()
                .map(|v| VariantInfo {
                    func: v.func.clone(),
                    kind: v.kind,
                    instrs: v.program.code.len(),
                })
                .collect(),
            Backing::Compiled { compiled, .. } => compiled
                .all_variants()
                .into_iter()
                .map(|(func, kind, prog)| VariantInfo {
                    func,
                    kind,
                    instrs: prog.code.len(),
                })
                .collect(),
        }
    }

    /// Evaluates one request: selects the variant, runs the VM (the
    /// batch engine for batch requests), and returns enclosures plus
    /// statistics.
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownProgram`] when the function (or, for artifact
    /// backings, the selected variant) does not exist — with a listing
    /// of what does; [`ApiError::Eval`] for VM failures.
    pub fn eval(&self, req: &EvalRequest) -> Result<EvalResult, ApiError> {
        self.with_bytecode(&req.func, &req.config, |prog| {
            let batch = match &req.inputs {
                Some(inputs) => {
                    run_batch(prog, inputs, &req.config, &req.batch).map_err(ApiError::Eval)?
                }
                None => {
                    let t0 = Stamp::now();
                    let report = run_on(prog, &req.args, &req.config).map_err(ApiError::Eval)?;
                    single_batch(report, t0.elapsed().as_secs_f64())
                }
            };
            Ok(EvalResult {
                func: req.func.clone(),
                config_label: req.config.label(),
                batch,
            })
        })
    }

    /// Evaluates `n` generated input sets through the batch engine:
    /// item `i` receives `make_input(base_seed ^ i, i)` — the
    /// benchmark-harness entry point. Results are bit-identical across
    /// thread counts (seeds derive from item indices, never workers).
    ///
    /// # Errors
    ///
    /// As [`Program::eval`].
    pub fn eval_batch_seeded(
        &self,
        func: &str,
        config: &RunConfig,
        n: usize,
        base_seed: u64,
        make_input: impl Fn(u64, usize) -> Vec<ArgValue> + Sync,
        opts: &BatchOptions,
    ) -> Result<EvalResult, ApiError> {
        self.with_bytecode(func, config, |prog| {
            let batch = run_batch_with(prog, n, base_seed, &make_input, config, opts)
                .map_err(ApiError::Eval)?;
            Ok(EvalResult {
                func: func.to_string(),
                config_label: config.label(),
                batch,
            })
        })
    }

    /// Runs the function with symbol tracing and returns the
    /// error-attribution table (which source locations the final
    /// enclosure width comes from; affine configurations only).
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownProgram`] for a missing function,
    /// [`ApiError::Eval`] for non-affine configurations or VM failures.
    pub fn profile(
        &self,
        func: &str,
        args: &[ArgValue],
        config: &RunConfig,
    ) -> Result<ProfileReport, ApiError> {
        self.with_bytecode(func, config, |prog| {
            safegen::profile(prog, args, config).map_err(ApiError::Eval)
        })
    }

    /// Deterministic default inputs for `func` under `config`, paired
    /// with the parameter names: varied floats in (0, 1), iteration
    /// counts of 8, arrays filled with the same varied sequence.
    ///
    /// # Errors
    ///
    /// [`ApiError::UnknownProgram`] for a missing function.
    pub fn default_args(
        &self,
        func: &str,
        config: &RunConfig,
    ) -> Result<Vec<(String, ArgValue)>, ApiError> {
        self.with_bytecode(func, config, |prog| {
            let vary = |i: usize| 0.3 + 0.17 * (i % 5) as f64; // 0.3, 0.47, …, 0.98
            Ok(prog
                .params
                .iter()
                .enumerate()
                .map(|(i, (name, binding))| {
                    let value = match binding {
                        ParamBinding::Float(_) => ArgValue::Float(vary(i)),
                        ParamBinding::Int(_) => ArgValue::Int(8),
                        ParamBinding::Array(id) => {
                            let len = prog.arrays[*id as usize].len;
                            ArgValue::Array((0..len).map(vary).collect())
                        }
                    };
                    (name.clone(), value)
                })
                .collect())
        })
    }

    /// Serializes the program as `.sga` artifact bytes — the stable
    /// interchange format (see `docs/ARTIFACT.md`).
    ///
    /// An [`Engine::compile`] backing packages only the variants
    /// materialized so far (plain programs; prioritized variants are
    /// built on demand and are **not** retroactively included). To ship
    /// the standard precompiled variant set, compile through
    /// [`Engine::compile_artifact`] instead — that is what the CLI and
    /// the C ABI do.
    pub fn to_bytes(&self) -> Vec<u8> {
        match &*self.inner {
            Backing::Artifact(a) => a.to_bytes(),
            Backing::Compiled { compiled, name } => build_artifact(compiled, name, None).to_bytes(),
        }
    }

    /// The artifact's content hash (hex). For an in-process compilation
    /// this serializes first — prefer artifact backings when the id is
    /// on a hot path.
    pub fn artifact_id(&self) -> String {
        match &*self.inner {
            Backing::Artifact(a) => a.id(),
            Backing::Compiled { compiled, name } => build_artifact(compiled, name, None).id(),
        }
    }

    /// Writes the program as a `.sga` artifact file.
    ///
    /// # Errors
    ///
    /// [`ApiError::Io`] for write failures.
    #[cfg(feature = "os")]
    pub fn write_file(&self, path: &std::path::Path) -> Result<(), ApiError> {
        match &*self.inner {
            Backing::Artifact(a) => a.write_file(path).map_err(|e| ApiError::Io(e.to_string())),
            Backing::Compiled { compiled, name } => build_artifact(compiled, name, None)
                .write_file(path)
                .map_err(|e| ApiError::Io(e.to_string())),
        }
    }

    /// The three-address-code form of the unit (what the max-reuse
    /// analysis operates on). In-process compilations only.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] for artifact-backed programs (the
    /// TAC is not serialized).
    pub fn tac_text(&self) -> Result<String, ApiError> {
        match &*self.inner {
            Backing::Compiled { compiled, .. } => Ok(safegen_cfront::print_unit(&compiled.tac)),
            Backing::Artifact(_) => Err(ApiError::InvalidRequest(
                "TAC dump needs source input (artifacts do not carry the TAC form)".to_string(),
            )),
        }
    }

    /// The optimized CFG IR after the pass pipeline, for `only` (or
    /// every function when `None`). In-process compilations only.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidRequest`] for artifact-backed programs;
    /// [`ApiError::UnknownProgram`] when `only` names no function.
    pub fn ir_text(&self, only: Option<&str>) -> Result<String, ApiError> {
        let Backing::Compiled { compiled, .. } = &*self.inner else {
            return Err(ApiError::InvalidRequest(
                "IR dump needs source input (artifacts carry bytecode, not IR)".to_string(),
            ));
        };
        if let Some(name) = only {
            if !compiled.tac.functions.iter().any(|f| f.name == name) {
                return Err(self.unknown_function(name));
            }
        }
        let mut out = String::new();
        for f in &compiled.tac.functions {
            if only.is_some_and(|name| name != f.name) {
                continue;
            }
            out.push_str(&compiled.dump_ir(&f.name));
        }
        Ok(out)
    }

    /// Selects the bytecode variant for `func` under `config` and hands
    /// it to `action`. Artifact backings select strictly (the fixed
    /// variant set, with a diagnostic listing on a miss); compiled
    /// backings compile the variant on demand after checking the
    /// function exists.
    fn with_bytecode<T>(
        &self,
        func: &str,
        config: &RunConfig,
        action: impl FnOnce(&BytecodeProgram) -> Result<T, ApiError>,
    ) -> Result<T, ApiError> {
        match &*self.inner {
            Backing::Artifact(a) => {
                let prog = select_program(a, func, config).map_err(ApiError::UnknownProgram)?;
                action(prog)
            }
            Backing::Compiled { compiled, .. } => {
                if !compiled.tac.functions.iter().any(|f| f.name == func) {
                    return Err(self.unknown_function(func));
                }
                let prog = compiled.program_for(func, config);
                action(&prog)
            }
        }
    }

    /// The facade's uniform "no such function" diagnostic, listing what
    /// the program does contain.
    fn unknown_function(&self, func: &str) -> ApiError {
        ApiError::UnknownProgram(format!(
            "no function `{func}` in `{}` (functions: {})",
            self.name(),
            self.functions().join(", ")
        ))
    }
}

/// Wraps a single-run report in the batch result shape, so single and
/// batch evaluations come back through one [`EvalResult`] type.
fn single_batch(report: RunReport, elapsed_s: f64) -> BatchResult {
    let stats = report.stats;
    BatchResult {
        items: vec![BatchItem {
            index: 0,
            report,
            elapsed_s,
        }],
        stats,
        threads: 1,
        workers: vec![WorkerStats {
            worker: 0,
            items: 1,
            busy_s: elapsed_s,
        }],
        lanes: 1,
    }
}

// ---------------------------------------------------------------------
// EvalRequest / EvalResult
// ---------------------------------------------------------------------

/// One evaluation request: function, numeric configuration, inputs.
///
/// A request with `inputs` set is a batch (evaluated by the parallel
/// batch engine, results in input order); otherwise `args` is the
/// single argument list. Construct with [`EvalRequest::new`] and the
/// `with_*` builders — the struct is `#[non_exhaustive]`.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct EvalRequest {
    /// The function to evaluate.
    pub func: String,
    /// The numeric configuration (domain, budget, loop mode).
    pub config: RunConfig,
    /// The argument list for a single evaluation (ignored when `inputs`
    /// is set).
    pub args: Vec<ArgValue>,
    /// Batch form: one argument list per item.
    pub inputs: Option<Vec<Vec<ArgValue>>>,
    /// Batch engine options (the thread count); irrelevant for
    /// single evaluations.
    pub batch: BatchOptions,
}

impl EvalRequest {
    /// A request for `func` under `config` with no arguments yet.
    pub fn new(func: impl Into<String>, config: RunConfig) -> EvalRequest {
        EvalRequest {
            func: func.into(),
            config,
            args: Vec::new(),
            inputs: None,
            batch: BatchOptions::serial(),
        }
    }

    /// Sets the single-evaluation argument list.
    pub fn with_args(mut self, args: Vec<ArgValue>) -> EvalRequest {
        self.args = args;
        self
    }

    /// Turns the request into a batch over `inputs`.
    pub fn with_inputs(mut self, inputs: Vec<Vec<ArgValue>>) -> EvalRequest {
        self.inputs = Some(inputs);
        self
    }

    /// Sets the batch engine options (the thread count).
    pub fn with_batch(mut self, batch: BatchOptions) -> EvalRequest {
        self.batch = batch;
        self
    }
}

/// The outcome of one evaluation: certified enclosures, statistics, and
/// provenance.
///
/// Single evaluations and batches share this shape: a single run is a
/// batch of one item ([`EvalResult::report`] is the shortcut).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct EvalResult {
    /// The evaluated function.
    pub func: String,
    /// The configuration label (e.g. `f64a-dspv-k16`) — provenance for
    /// logs and responses.
    pub config_label: String,
    /// The per-item reports plus aggregate statistics, worker
    /// accounting, and the lane width that actually ran.
    pub batch: BatchResult,
}

impl EvalResult {
    /// The report of a single evaluation (the first item of a batch).
    ///
    /// # Panics
    ///
    /// Never for results returned by this crate: even an empty batch
    /// request produces an (empty) item vector only when `inputs` was
    /// empty — in that case there is genuinely no report and this
    /// panics; use [`EvalResult::reports`] for batches.
    pub fn report(&self) -> &RunReport {
        &self.batch.items[0].report
    }

    /// The reports of every item, in input order.
    pub fn reports(&self) -> impl Iterator<Item = &RunReport> {
        self.batch.items.iter().map(|i| &i.report)
    }
}
