//! The compiler driver: the end-to-end SafeGen pipeline.

use crate::domain::{Domain, DomainKind, UnsoundF64};
use crate::exec::{ArgValue, RunStats};
use crate::fixpoint::{attempt_budget, exec_fixpoint, LoopMode};
use crate::program::{compile_program_with, Program};
use safegen_affine::baselines::{CeresAffine, YalaaAff0, YalaaAff1};
use safegen_affine::{AaConfig, AffineDd, AffineF32, AffineF64};
use safegen_analysis::{annotate_function, SolveMode};
use safegen_artifact::VariantKind;
use safegen_cfront::{ParseError, Sema, Unit};
use safegen_interval::{IntervalDd, IntervalF64};
use safegen_ir::PassManager;
use safegen_telemetry as telemetry;
use std::collections::HashMap;

/// Compiler options.
#[derive(Clone, Debug)]
pub struct Compiler {
    /// Run the max-reuse static analysis and annotate prioritized
    /// variables (paper Sec. VI). The budget used for the analysis is the
    /// `k` of the [`RunConfig`] used later; annotation happens lazily per
    /// requested `k`.
    pub prioritize: bool,
    /// Mid-level pass pipeline. `None` resolves `SAFEGEN_PASSES` at
    /// [`Compiler::compile`] time (the optimizing default when unset).
    pub passes: Option<PassManager>,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler {
            prioritize: true,
            passes: None,
        }
    }
}

/// A compiled unit: TAC form plus precompiled program variants.
///
/// All program state is **immutable after construction** — there are no
/// interior-mutability caches, so any number of threads can request
/// variants from a shared `&Compiled` without ever contending a lock
/// (the serve daemon's hot path). Variants beyond the plain programs are
/// precomputed with [`Compiled::precompile`]; a request for a variant
/// that was not precomputed compiles it fresh (a pure function of the
/// immutable TAC — slower, never wrong).
#[derive(Debug)]
pub struct Compiled {
    /// The TAC-form unit (the paper's preprocessed shape).
    pub tac: Unit,
    /// Semantic tables of `tac`.
    pub sema: Sema,
    /// The pass pipeline every program variant is compiled with.
    pub passes: PassManager,
    prioritize: bool,
    /// Function → plain program (every function always has one).
    plain: HashMap<String, Program>,
    /// Precomputed annotated variants: (function, kind) → program.
    variants: HashMap<(String, VariantKind), Program>,
}

/// The numeric configuration of one run.
///
/// Construct with one of the named constructors ([`RunConfig::affine_f64`],
/// [`RunConfig::from_cli`], …) and override fields by assignment; the
/// struct is `#[non_exhaustive]` so new knobs can be added without
/// breaking embedders.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct RunConfig {
    /// Which domain evaluates the program.
    pub kind: DomainKind,
    /// Affine configuration (used by the affine kinds).
    pub aa: AaConfig,
    /// Use the statically-derived priorities (the `..p?` configurations).
    pub prioritized: bool,
    /// Variable-capacity extension: run operations outside every reuse
    /// connection at this reduced budget (sorted placement only; see
    /// `safegen_analysis::capacity`). `None` = uniform `k` (the paper's
    /// published system).
    pub capacity_low: Option<usize>,
    /// How loops with unknown or over-budget trip counts execute (full
    /// unrolling vs. the iterate-and-widen fixpoint engine; see
    /// [`crate::fixpoint`]). Constructors start at
    /// [`LoopMode::Unroll`].
    pub loop_mode: LoopMode,
    /// Back-edge budget of the concrete unroll attempt before the
    /// fixpoint solver takes over. `None` = the mode's standard budget
    /// (16 for `fixpoint`, 1024 for `auto`).
    pub unroll_budget: Option<u64>,
}

impl RunConfig {
    /// The configuration every named constructor starts from: uniform
    /// budget, full unrolling, standard unroll budget.
    fn base(kind: DomainKind, aa: AaConfig, prioritized: bool) -> RunConfig {
        RunConfig {
            kind,
            aa,
            prioritized,
            capacity_low: None,
            loop_mode: LoopMode::Unroll,
            unroll_budget: None,
        }
    }

    /// The original unsound program.
    pub fn unsound() -> RunConfig {
        RunConfig::base(DomainKind::Unsound, AaConfig::new(1), false)
    }

    /// IGen-style interval arithmetic in `f64`.
    pub fn interval_f64() -> RunConfig {
        RunConfig::base(DomainKind::IntervalF64, AaConfig::new(1), false)
    }

    /// IGen-style interval arithmetic in double-double.
    pub fn interval_dd() -> RunConfig {
        RunConfig::base(DomainKind::IntervalDd, AaConfig::new(1), false)
    }

    /// `f64a-dspv`: the paper's flagship configuration at budget `k`.
    pub fn affine_f64(k: usize) -> RunConfig {
        RunConfig::base(DomainKind::AffineF64, AaConfig::new(k), true)
    }

    /// `f32a-dspv`: single-precision centers (`f64` coefficients).
    pub fn affine_f32(k: usize) -> RunConfig {
        RunConfig::base(DomainKind::AffineF32, AaConfig::new(k), true)
    }

    /// `dda-dspn`: double-double centers.
    pub fn affine_dd(k: usize) -> RunConfig {
        let aa = AaConfig::new(k).with_vectorized(false);
        RunConfig::base(DomainKind::AffineDd, aa, true)
    }

    /// An affine configuration from the paper's mnemonic, e.g.
    /// `RunConfig::mnemonic(16, "dsnv")`.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed mnemonics.
    pub fn mnemonic(k: usize, m: &str) -> Result<RunConfig, String> {
        let (aa, prioritized) = AaConfig::parse_mnemonic(k, m)?;
        Ok(RunConfig::base(DomainKind::AffineF64, aa, prioritized))
    }

    /// Yalaa `aff0` (full AA) baseline.
    pub fn yalaa_aff0() -> RunConfig {
        RunConfig::base(DomainKind::YalaaAff0, AaConfig::new(1), false)
    }

    /// Yalaa `aff1` baseline.
    pub fn yalaa_aff1() -> RunConfig {
        RunConfig::base(DomainKind::YalaaAff1, AaConfig::new(1), false)
    }

    /// Ceres baseline at budget `k`.
    pub fn ceres(k: usize) -> RunConfig {
        RunConfig::base(DomainKind::Ceres, AaConfig::new(k), false)
    }

    /// Parses the CLI's `--config` vocabulary (`unsound`, `ia`, `ia-dd`,
    /// `yalaa-aff0`, `yalaa-aff1`, `ceres`, `dda`, or a four-letter
    /// affine mnemonic like `dspv`) at budget `k` — shared by
    /// `safegen run`, the serve daemon's request decoding, and the
    /// artifact-aware `safegen run <file.sga>`.
    ///
    /// # Errors
    ///
    /// Returns a message for names that are neither a known
    /// configuration nor a valid mnemonic.
    pub fn from_cli(name: &str, k: usize) -> Result<RunConfig, String> {
        Ok(match name {
            "unsound" => RunConfig::unsound(),
            "ia" => RunConfig::interval_f64(),
            "ia-dd" => RunConfig::interval_dd(),
            "yalaa-aff0" => RunConfig::yalaa_aff0(),
            "yalaa-aff1" => RunConfig::yalaa_aff1(),
            "ceres" => RunConfig::ceres(k),
            "dda" => RunConfig::affine_dd(k),
            m => RunConfig::mnemonic(k, m)?,
        })
    }

    /// Returns the configuration with the given loop mode.
    pub fn with_loop_mode(mut self, mode: LoopMode) -> RunConfig {
        self.loop_mode = mode;
        self
    }

    /// Returns the configuration with the unroll-attempt budget
    /// overridden (back-edge traversals before the fixpoint solver).
    pub fn with_unroll_budget(mut self, budget: u64) -> RunConfig {
        self.unroll_budget = Some(budget);
        self
    }

    /// A short label for plots (`f64a-dspv (k=16)` style).
    pub fn label(&self) -> String {
        let p = |b: bool, t: &str, f: &str| if b { t.to_string() } else { f.to_string() };
        match self.kind {
            DomainKind::Unsound => "unsound".into(),
            DomainKind::IntervalF64 => "IGen-f64".into(),
            DomainKind::IntervalDd => "IGen-dd".into(),
            DomainKind::YalaaAff0 => "yalaa-aff0".into(),
            DomainKind::YalaaAff1 => "yalaa-aff1".into(),
            DomainKind::Ceres => format!("ceres-affine (k={})", self.aa.k),
            kind => {
                let prec = match kind {
                    DomainKind::AffineF64 => "f64a",
                    DomainKind::AffineDd => "dda",
                    _ => "f32a",
                };
                let placement = match self.aa.placement {
                    safegen_affine::Placement::Sorted => "s",
                    safegen_affine::Placement::DirectMapped => "d",
                };
                let fusion = match self.aa.fusion {
                    safegen_affine::Fusion::Smallest => "s",
                    safegen_affine::Fusion::MeanThreshold => "m",
                    safegen_affine::Fusion::Oldest => "o",
                    safegen_affine::Fusion::Random => "r",
                };
                format!(
                    "{prec}-{placement}{fusion}{}{} (k={})",
                    p(self.prioritized, "p", "n"),
                    p(self.aa.vectorized, "v", "n"),
                    self.aa.k
                )
            }
        }
    }
}

/// Result of a sound run, reduced to plot-ready numbers.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Sound range of the returned value (if any).
    pub ret: Option<(f64, f64)>,
    /// Sound ranges of every array out-parameter.
    pub arrays: Vec<(String, Vec<(f64, f64)>)>,
    /// Worst-case certified bits over all result values (paper's metric:
    /// "when a result consists of multiple values, we consider the one
    /// with the lowest accuracy").
    pub acc_bits: f64,
    /// Execution statistics.
    pub stats: RunStats,
}

impl Compiler {
    /// Creates a compiler with default options (prioritization on).
    pub fn new() -> Compiler {
        Compiler::default()
    }

    /// Disables the static analysis.
    pub fn without_prioritization(mut self) -> Compiler {
        self.prioritize = false;
        self
    }

    /// Uses an explicit pass pipeline instead of resolving
    /// `SAFEGEN_PASSES` (e.g. `PassManager::none()` to measure the
    /// unoptimized baseline).
    pub fn with_passes(mut self, pm: PassManager) -> Compiler {
        self.passes = Some(pm);
        self
    }

    /// Parses, checks, and TAC-transforms `src`.
    ///
    /// # Errors
    ///
    /// Propagates lexical, syntactic and semantic diagnostics.
    pub fn compile(&self, src: &str) -> Result<Compiled, ParseError> {
        let lowered;
        // The SIMD-to-C preprocessing step (paper Sec. IV-B) runs on any
        // source that names an intrinsic.
        let src = if src.contains("_mm") {
            lowered =
                telemetry::phase_span("compile.lower_simd", || safegen_cfront::lower_simd(src))?;
            &lowered
        } else {
            src
        };
        let unit = telemetry::phase_span("compile.parse", || safegen_cfront::parse(src))?;
        // Alpha-rename so shadowed/sibling declarations become unique —
        // the strict no-shadowing rule then holds by construction.
        let unit = safegen_cfront::rename_unique(&unit);
        // Sound constant folding (paper Sec. IV-B).
        let unit = telemetry::phase_span("compile.fold", || safegen_ir::fold_constants(&unit));
        let sema = telemetry::phase_span("compile.sema", || safegen_cfront::analyze(&unit))?;
        // The TAC transform threads the semantic tables through (declaring
        // its fresh temporaries as it goes), so the unit is analyzed once.
        let (tac, sema) =
            telemetry::phase_span("compile.tac", || safegen_ir::to_tac_with_sema(&unit, &sema));
        let passes = match &self.passes {
            Some(pm) => pm.clone(),
            None => PassManager::from_env().map_err(|e| {
                ParseError::from(safegen_cfront::Diagnostic::new(
                    e,
                    safegen_cfront::Span::default(),
                ))
            })?,
        };
        let mut plain = HashMap::new();
        telemetry::phase_span("compile.bytecode", || -> Result<(), ParseError> {
            for f in &tac.functions {
                plain.insert(f.name.clone(), compile_program_with(f, &sema, &passes)?);
            }
            Ok(())
        })?;
        safegen_telemetry::metrics::metrics().compile.compiles.inc();
        Ok(Compiled {
            tac,
            sema,
            passes,
            prioritize: self.prioritize,
            plain,
            variants: HashMap::new(),
        })
    }
}

impl Compiled {
    /// Whether the max-reuse static analysis was enabled for this unit
    /// (recorded in artifact metadata so a loaded artifact selects
    /// variants the same way the in-memory unit would).
    pub fn prioritize(&self) -> bool {
        self.prioritize
    }

    /// The bytecode program for `func`, without priority annotations.
    ///
    /// # Panics
    ///
    /// Panics if `func` does not exist.
    pub fn program(&self, func: &str) -> &Program {
        &self.plain[func]
    }

    /// Recompiles `func` with an explicit pass pipeline, bypassing the
    /// caches — e.g. `PassManager::none()` for the unoptimized baseline
    /// the pass-differential fuzzer and the benchmarks compare against.
    ///
    /// # Panics
    ///
    /// Panics if `func` does not exist.
    pub fn program_with_passes(&self, func: &str, pm: &PassManager) -> Program {
        let f = self.function(func);
        compile_program_with(f, &self.sema, pm).expect("TAC that compiled once must recompile")
    }

    /// The CFG IR of `func` after this unit's pass pipeline ran — the
    /// `--dump-ir` debug view (deterministic, suitable for golden tests).
    ///
    /// # Panics
    ///
    /// Panics if `func` does not exist.
    pub fn dump_ir(&self, func: &str) -> String {
        let f = self.function(func);
        let mut cfg =
            safegen_ir::lower_function(f, &self.sema).expect("TAC that compiled once must lower");
        self.passes.run(&mut cfg);
        cfg.dump()
    }

    fn function(&self, func: &str) -> &safegen_cfront::Function {
        self.tac
            .functions
            .iter()
            .find(|f| f.name == func)
            .unwrap_or_else(|| panic!("unknown function `{func}`"))
    }

    /// Compiles the `kind` variant of `func` from scratch — a pure
    /// function of the immutable TAC, callable concurrently from any
    /// number of threads. Used by [`Compiled::precompile`] and as the
    /// fallback when a variant was not precomputed.
    ///
    /// # Panics
    ///
    /// Panics if `func` does not exist.
    pub fn compile_variant(&self, func: &str, kind: VariantKind) -> Program {
        let f = self.function(func);
        match kind {
            VariantKind::Plain => self.plain[func].clone(),
            VariantKind::Prioritized { k } => {
                let annotated = telemetry::phase_span("compile.prioritize", || {
                    annotate_function(f, &self.sema, k as usize, SolveMode::Auto)
                });
                compile_program_with(&annotated, &self.sema, &self.passes)
                    .expect("annotated TAC must compile")
            }
            VariantKind::Capacity {
                k,
                k_low,
                prioritized,
            } => {
                let base = if prioritized {
                    annotate_function(f, &self.sema, k as usize, SolveMode::Auto)
                } else {
                    f.clone()
                };
                let annotated = telemetry::phase_span("compile.capacity", || {
                    let plan = safegen_analysis::capacity_plan(&base, &self.sema, k_low as usize);
                    safegen_analysis::annotate_capacities(&base, &plan)
                });
                compile_program_with(&annotated, &self.sema, &self.passes)
                    .expect("capacity-annotated TAC must compile")
            }
        }
    }

    /// The `kind` variant of `func`: the precomputed program when
    /// [`Compiled::precompile`] covered it (a lock-free map read), a
    /// fresh [`Compiled::compile_variant`] otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `func` does not exist.
    pub fn variant(&self, func: &str, kind: VariantKind) -> Program {
        match kind {
            VariantKind::Plain => self.plain[func].clone(),
            kind => match self.variants.get(&(func.to_string(), kind)) {
                Some(p) => p.clone(),
                None => self.compile_variant(func, kind),
            },
        }
    }

    /// Precomputes the given variant kinds for **every** function in the
    /// unit, making later [`Compiled::variant`] /
    /// [`Compiled::program_for`] calls for them lock-free map reads.
    /// [`VariantKind::Plain`] entries are skipped (always precompiled).
    ///
    /// This is the only mutation `Compiled` supports, and it requires
    /// `&mut self` — once the value is shared (e.g. behind an `Arc` in
    /// the serve daemon), its program state is frozen.
    pub fn precompile(&mut self, kinds: &[VariantKind]) {
        let funcs: Vec<String> = self.tac.functions.iter().map(|f| f.name.clone()).collect();
        for func in &funcs {
            for &kind in kinds {
                if kind == VariantKind::Plain {
                    continue;
                }
                let key = (func.clone(), kind);
                if !self.variants.contains_key(&key) {
                    let prog = self.compile_variant(func, kind);
                    self.variants.insert(key, prog);
                }
            }
        }
    }

    /// The precomputed variants, in deterministic order (plain programs
    /// first, then annotated variants sorted by function and kind) — the
    /// artifact builder's iteration order.
    pub fn all_variants(&self) -> Vec<(String, VariantKind, &Program)> {
        let mut out: Vec<(String, VariantKind, &Program)> = Vec::new();
        for f in &self.tac.functions {
            out.push((f.name.clone(), VariantKind::Plain, &self.plain[&f.name]));
        }
        let mut rest: Vec<(String, VariantKind, &Program)> = self
            .variants
            .iter()
            .map(|((f, k), p)| (f.clone(), *k, p))
            .collect();
        rest.sort_by_key(|(f, k, _)| (f.clone(), format!("{k}")));
        out.extend(rest);
        out
    }

    /// Which [`VariantKind`] `config` selects, honouring this unit's
    /// `prioritize` compiler option — the single source of truth shared
    /// by [`Compiled::program_for`], the artifact builder, and the serve
    /// daemon's variant lookup.
    pub fn variant_kind_for(&self, config: &RunConfig) -> VariantKind {
        variant_kind_with(config, self.prioritize)
    }

    /// The program variant `config` selects for `func`: the
    /// capacity-annotated program when `capacity_low` is set, the
    /// prioritized program when priorities apply, the plain program
    /// otherwise.
    ///
    /// The returned [`Program`] is plain data (`Send + Sync`), detached
    /// from this `Compiled`. `Compiled` itself is `Sync` with no
    /// interior mutability, so threads share a `&Compiled` freely; when
    /// the variant was [`Compiled::precompile`]d this is a lock-free
    /// map read.
    ///
    /// # Panics
    ///
    /// Panics if `func` does not exist.
    pub fn program_for(&self, func: &str, config: &RunConfig) -> Program {
        self.variant(func, self.variant_kind_for(config))
    }

    /// Runs `func` on `args` under `config` and reduces the outcome to a
    /// [`RunReport`].
    ///
    /// # Errors
    ///
    /// Returns the VM error message on execution failure.
    pub fn run(
        &self,
        func: &str,
        args: &[ArgValue],
        config: &RunConfig,
    ) -> Result<RunReport, String> {
        run_on(&self.program_for(func, config), args, config)
    }

    /// Evaluates `func` over a batch of input sets in parallel — the
    /// one-call form of [`batch::run_batch`](crate::batch::run_batch).
    ///
    /// # Errors
    ///
    /// Returns the lowest-index item's error on execution failure.
    pub fn run_batch(
        &self,
        func: &str,
        inputs: &[Vec<ArgValue>],
        config: &RunConfig,
        opts: &crate::batch::BatchOptions,
    ) -> Result<crate::batch::BatchResult, String> {
        crate::batch::run_batch(&self.program_for(func, config), inputs, config, opts)
    }
}

/// Which [`VariantKind`] a [`RunConfig`] selects when the unit was
/// compiled with (`prioritize = true`) or without the static analysis.
/// Annotations only apply to the affine domains — every other domain
/// runs the plain program.
pub fn variant_kind_with(config: &RunConfig, prioritize: bool) -> VariantKind {
    let is_affine = matches!(
        config.kind,
        DomainKind::AffineF64 | DomainKind::AffineDd | DomainKind::AffineF32
    );
    let use_priorities = config.prioritized && prioritize && is_affine;
    if let (Some(k_low), true) = (config.capacity_low, is_affine) {
        VariantKind::Capacity {
            k: config.aa.k as u32,
            k_low: k_low as u32,
            prioritized: use_priorities,
        }
    } else if use_priorities {
        VariantKind::Prioritized {
            k: config.aa.k as u32,
        }
    } else {
        VariantKind::Plain
    }
}

/// Flattens a domain-typed [`crate::exec::RunResult`] into the
/// domain-erased [`RunReport`] surface the drivers return.
fn to_report<D: Domain>(r: crate::exec::RunResult<D>) -> RunReport {
    let ret = r.ret.as_ref().map(|v| v.range());
    let mut acc = f64::INFINITY;
    if let Some(v) = &r.ret {
        acc = acc.min(v.acc_bits());
    }
    let arrays: Vec<(String, Vec<(f64, f64)>)> = r
        .arrays
        .iter()
        .map(|(n, vs)| (n.clone(), vs.iter().map(|v| v.range()).collect()))
        .collect();
    for (_, vs) in &r.arrays {
        for v in vs {
            acc = acc.min(v.acc_bits());
        }
    }
    if acc == f64::INFINITY {
        acc = f64::NAN; // nothing to certify (void function, no arrays)
    }
    RunReport {
        ret,
        arrays,
        acc_bits: acc,
        stats: r.stats,
    }
}

/// Evaluates `$body` with `$D` naming the domain type `$kind` selects —
/// the one place a [`DomainKind`] maps to its [`Domain`].
macro_rules! with_domain {
    ($kind:expr, $D:ident => $body:expr) => {
        match $kind {
            DomainKind::Unsound => {
                type $D = UnsoundF64;
                $body
            }
            DomainKind::IntervalF64 => {
                type $D = IntervalF64;
                $body
            }
            DomainKind::IntervalDd => {
                type $D = IntervalDd;
                $body
            }
            DomainKind::AffineF64 => {
                type $D = AffineF64;
                $body
            }
            DomainKind::AffineDd => {
                type $D = AffineDd;
                $body
            }
            DomainKind::AffineF32 => {
                type $D = AffineF32;
                $body
            }
            DomainKind::YalaaAff0 => {
                type $D = YalaaAff0;
                $body
            }
            DomainKind::YalaaAff1 => {
                type $D = YalaaAff1;
                $body
            }
            DomainKind::Ceres => {
                type $D = CeresAffine;
                $body
            }
        }
    };
}

/// Runs an already-compiled program under a configuration.
///
/// # Errors
///
/// Returns the VM error message on execution failure.
pub fn run_on(prog: &Program, args: &[ArgValue], config: &RunConfig) -> Result<RunReport, String> {
    let mode = config.loop_mode;
    let budget = attempt_budget(mode, config.unroll_budget);
    telemetry::span("vm.exec", || {
        with_domain!(config.kind, D => {
            exec_fixpoint::<D>(prog, args, &D::context(&config.aa), mode, budget)
                .map(to_report)
                .map_err(|e| e.message)
        })
    })
}

/// Runs an already-compiled program on a whole lane group at once
/// through the SoA interpreter ([`crate::lanes::exec_lanes`]) —
/// one result per input set, each bit-identical to what [`run_on`]
/// returns for that input alone (every lane gets a fresh domain
/// context, exactly like a scalar run would).
///
/// `fixed` must be the superinstruction stream of `prog`
/// (see [`crate::program::encode`]).
///
/// # Errors
///
/// Per lane: the VM error message on that lane's execution failure.
pub fn run_lanes_on(
    prog: &Program,
    fixed: &crate::program::FixedProgram,
    inputs: &[Vec<ArgValue>],
    config: &RunConfig,
) -> Vec<Result<RunReport, String>> {
    use crate::lanes::exec_lanes;

    fn collect<D: Domain>(
        rs: Vec<Result<crate::exec::RunResult<D>, crate::exec::ExecError>>,
    ) -> Vec<Result<RunReport, String>> {
        rs.into_iter()
            .map(|r| r.map(to_report).map_err(|e| e.message))
            .collect()
    }

    // The lane engine unrolls loops concretely in lock-step; a fixpoint
    // solve is a per-lane abstract iteration it cannot express. When the
    // mode enables the solver and the program has back edges, park the
    // whole group and run each lane through the scalar fixpoint path —
    // the lane contract (bit-identical to a scalar run) is preserved.
    if !matches!(config.loop_mode, LoopMode::Unroll) {
        let has_loops = safegen_ir::loop_regions(&prog.code)
            .map(|t| t.has_loops())
            .unwrap_or(true);
        if has_loops {
            let tm = telemetry::metrics::metrics();
            tm.lanes.parks.inc();
            tm.lanes.scalar_dispatches.add(inputs.len() as u64);
            return inputs
                .iter()
                .map(|args| run_on(prog, args, config))
                .collect();
        }
    }

    telemetry::span("vm.exec_lanes", || {
        with_domain!(config.kind, D => {
            let cxs: Vec<_> = inputs.iter().map(|_| D::context(&config.aa)).collect();
            collect(exec_lanes::<D>(prog, fixed, inputs, &cxs))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const HENON_STEP: &str = "double henon(double x, double y) {
        double xn = 1.0 - 1.05 * x * x + y;
        return xn;
    }";

    #[test]
    fn compile_and_run_all_domains() {
        let c = Compiler::new().compile(HENON_STEP).unwrap();
        let args = [0.3.into(), 0.4.into()];
        let expected = 1.0 - 1.05 * 0.3 * 0.3 + 0.4;
        for cfg in [
            RunConfig::unsound(),
            RunConfig::interval_f64(),
            RunConfig::interval_dd(),
            RunConfig::affine_f64(8),
            RunConfig::affine_dd(8),
            RunConfig::yalaa_aff0(),
            RunConfig::yalaa_aff1(),
            RunConfig::ceres(8),
        ] {
            let r = c.run("henon", &args, &cfg).unwrap();
            let (lo, hi) = r.ret.unwrap();
            assert!(
                lo <= expected && expected <= hi,
                "{}: [{lo}, {hi}] misses {expected}",
                cfg.label()
            );
        }
    }

    #[test]
    fn sound_domains_certify_many_bits_here() {
        let c = Compiler::new().compile(HENON_STEP).unwrap();
        let r = c
            .run(
                "henon",
                &[0.3.into(), 0.4.into()],
                &RunConfig::affine_f64(8),
            )
            .unwrap();
        assert!(r.acc_bits > 40.0, "acc = {}", r.acc_bits);
    }

    #[test]
    fn labels_match_paper_notation() {
        assert_eq!(RunConfig::affine_f64(16).label(), "f64a-dspv (k=16)");
        assert_eq!(RunConfig::interval_dd().label(), "IGen-dd");
        assert_eq!(
            RunConfig::mnemonic(8, "smnn").unwrap().label(),
            "f64a-smnn (k=8)"
        );
        assert_eq!(RunConfig::yalaa_aff0().label(), "yalaa-aff0");
    }

    #[test]
    fn prioritized_program_differs_when_reuse_exists() {
        let src = "double f(double x, double y, double z) { return x*z - y*z; }";
        let c = Compiler::new().compile(src).unwrap();
        let plain = c.program("f").clone();
        let prio = c.variant("f", VariantKind::Prioritized { k: 4 });
        assert!(plain.code.iter().all(|i| i.protect().is_none()));
        assert!(
            prio.code.iter().any(|i| i.protect().is_some()),
            "expected a protecting operation"
        );
    }

    #[test]
    fn run_report_covers_arrays() {
        let src = "void f(double a[3]) { for (int i = 0; i < 3; i++) a[i] = a[i] * 0.1; }";
        let c = Compiler::new().compile(src).unwrap();
        let r = c
            .run(
                "f",
                &[vec![1.0, 2.0, 3.0].into()],
                &RunConfig::affine_f64(4),
            )
            .unwrap();
        assert!(r.ret.is_none());
        assert_eq!(r.arrays[0].1.len(), 3);
        assert!(r.acc_bits.is_finite());
    }

    #[test]
    fn compile_errors_surface() {
        assert!(Compiler::new().compile("double f( {").is_err());
        assert!(Compiler::new().compile("void f() { x = 1.0; }").is_err());
    }

    #[test]
    fn explicit_pipeline_controls_optimization() {
        let src = "double f(double x) { double a = x * x; double b = x * x; return a + b; }";
        let opt = Compiler::new().compile(src).unwrap();
        let unopt = Compiler::new()
            .with_passes(PassManager::none())
            .compile(src)
            .unwrap();
        assert!(opt.program("f").code.len() < unopt.program("f").code.len());
        // The cached plain program matches an explicit recompile.
        let again = unopt.program_with_passes("f", &PassManager::none());
        assert_eq!(unopt.program("f").code, again.code);
    }

    #[test]
    fn precompiled_variants_match_fresh_compiles() {
        let src = "double f(double x, double y, double z) { return x*z - y*z; }";
        let mut c = Compiler::new().compile(src).unwrap();
        let fresh_prio = c.variant("f", VariantKind::Prioritized { k: 4 });
        let fresh_cap = c.variant(
            "f",
            VariantKind::Capacity {
                k: 4,
                k_low: 2,
                prioritized: true,
            },
        );
        c.precompile(&[
            VariantKind::Prioritized { k: 4 },
            VariantKind::Capacity {
                k: 4,
                k_low: 2,
                prioritized: true,
            },
        ]);
        // Precomputed lookups return the same programs the pure compiles do.
        assert_eq!(
            c.variant("f", VariantKind::Prioritized { k: 4 }),
            fresh_prio
        );
        assert_eq!(
            c.variant(
                "f",
                VariantKind::Capacity {
                    k: 4,
                    k_low: 2,
                    prioritized: true,
                },
            ),
            fresh_cap
        );
        // all_variants lists plain first, then the two precomputed kinds.
        let vs = c.all_variants();
        assert_eq!(vs.len(), 3);
        assert_eq!(vs[0].1, VariantKind::Plain);
        // A kind that was not precomputed still works (fresh compile).
        assert!(!c
            .variant("f", VariantKind::Prioritized { k: 9 })
            .code
            .is_empty());
        assert_eq!(c.all_variants().len(), 3, "fallback must not mutate");
    }

    #[test]
    fn program_caches_are_thread_safe() {
        // Regression test: the per-k program variants were once behind
        // RefCell (not Sync), then Mutex (contended); they are now either
        // precomputed immutable state or pure recompiles, so a shared
        // &Compiled must be usable from many threads with no locking.
        // Hammer the variant paths from several threads at once.
        let src = "double f(double x, double y, double z) { return x*z - y*z; }";
        let c = Compiler::new().compile(src).unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..8 {
                        let k = 2 + (t + i) % 4;
                        let p = c.variant("f", VariantKind::Prioritized { k: k as u32 });
                        assert!(!p.code.is_empty());
                        let q = c.variant(
                            "f",
                            VariantKind::Capacity {
                                k: k as u32,
                                k_low: 1,
                                prioritized: t % 2 == 0,
                            },
                        );
                        assert!(!q.code.is_empty());
                        let cfg = RunConfig::affine_f64(k);
                        let _ = c.program_for("f", &cfg);
                    }
                });
            }
        });
        // Same k from two threads must have produced identical programs.
        let a = c.variant("f", VariantKind::Prioritized { k: 3 });
        let b = c.variant("f", VariantKind::Prioritized { k: 3 });
        assert_eq!(a.code, b.code);
    }
}
