//! # safegen
//!
//! SafeGen-rs: a compiler for sound floating-point computations using
//! affine arithmetic — the Rust reproduction of the CGO 2022 SafeGen
//! system.
//!
//! Given a C function performing floating-point computations, SafeGen
//! produces a *sound* version of the same computation: one that returns
//! guaranteed enclosures of the results the original program would have
//! produced in real arithmetic, together with a certificate of the number
//! of correct bits.
//!
//! The crate wires the workspace together:
//!
//! * [`Compiler`] — the driver: parse → semantic analysis →
//!   three-address-code transformation → (optional) max-reuse static
//!   analysis and pragma annotation → CFG lowering and the optimizing
//!   pass pipeline (CSE, copy propagation, dead-code elimination,
//!   register allocation; configurable via `SAFEGEN_PASSES` or
//!   [`Compiler::with_passes`]) → artifacts.
//! * [`program`]/[`mod@exec`] — a register bytecode and a virtual machine
//!   that runs the compiled program under any numeric [`Domain`]:
//!   the unsound original, interval arithmetic in `f64`/double-double
//!   (the IGen baselines), every affine configuration of the paper, and
//!   the Yalaa/Ceres library baselines — which is how the evaluation
//!   measures accuracy and runtime self-contained in Rust.
//! * [`mod@batch`] — parallel evaluation of one compiled program over
//!   many input sets, with results bit-identical to the serial path
//!   (see the module docs for the threading and determinism model).
//! * [`mod@sga`] — the `.sga` program-artifact layer (versioned,
//!   content-hashed serialization of compiled programs; see
//!   `docs/ARTIFACT.md`) with a content-addressed compile cache.
//!
//! This crate is the *engine* layer. Embedders (and the `safegen` CLI,
//! the serve daemon, and the benches) go through the stable facade in
//! `safegen-api` instead of depending on these modules directly.
//!
//! ## Quickstart
//!
//! ```
//! use safegen::{Compiler, DomainKind, RunConfig};
//!
//! let src = "double f(double a, double b) { return a * b + 0.1; }";
//! let compiled = Compiler::new().compile(src).unwrap();
//! let report = compiled
//!     .run("f", &[0.5.into(), 0.25.into()], &RunConfig::affine_f64(8))
//!     .unwrap();
//! let (lo, hi) = report.ret.unwrap();
//! assert!(lo <= 0.5 * 0.25 + 0.1 && 0.5 * 0.25 + 0.1 <= hi);
//! assert!(report.acc_bits > 40.0); // almost all bits certified
//! let _ = DomainKind::AffineF64; // the domain that ran
//! ```

pub mod batch;
pub mod domain;
pub mod driver;
pub mod exec;
pub mod fixpoint;
pub mod fuzzer;
pub mod lanes;
pub mod oracle;
pub mod profile;
pub mod program;
pub mod sga;

pub use batch::{run_batch, run_batch_with, BatchItem, BatchOptions, BatchResult, WorkerStats};
pub use domain::{Domain, DomainKind, UnsoundF64};
pub use driver::{
    run_lanes_on, run_on, variant_kind_with, Compiled, Compiler, RunConfig, RunReport,
};
pub use exec::{exec, ArgValue, RunResult, RunStats, TraceSite};
pub use fixpoint::LoopMode;
pub use fuzzer::{
    check_source, parse_corpus_header, run_fuzz, CheckOpts, CheckReport, FuzzOpts, FuzzSummary,
    UndecidedSkips,
};
pub use lanes::{exec_lanes, MAX_LANES};
pub use oracle::{eval_exact, EvalLimits, OracleError};
pub use profile::{profile, ErrorSource, ProfileReport};
pub use program::{
    compile_program, compile_program_with, emit_program, encode, pair_histogram, FixedInstr,
    FixedProgram, OpCode, Program,
};
pub use sga::{
    build_artifact, compile_to_artifact, compile_to_artifact_cached, run_artifact, select_program,
    BuildOptions,
};

pub use safegen_affine::{AaConfig, AaContext, Fusion, NoisePolicy, Placement};
pub use safegen_artifact::{Artifact, ArtifactError, ArtifactMeta, ProgramVariant, VariantKind};
pub use safegen_ir::{lower_function, pass_by_name, Cfg, Pass, PassManager};
