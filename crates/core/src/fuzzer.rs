//! The differential soundness checker and the `safegen fuzz` loop.
//!
//! For each generated program (see `safegen-fuzz`) and each of its
//! functions, [`check_source`] compiles once and then cross-examines the
//! whole stack:
//!
//! 1. **Exact enclosure** — the program is interpreted over exact
//!    rationals ([`crate::oracle`]) at the concrete input point; every
//!    sound domain (`igen-f64`, `igen-dd`, AA-f64, AA-dd) must report a
//!    range containing the true value. The check is *skipped per run*
//!    when that run took an undecided branch (the VM then follows
//!    centers, a documented approximation whose path may differ from the
//!    real one) and when the oracle declines (sqrt, exact division by
//!    zero, representation growth) — skips are counted, never passed
//!    ([`UndecidedSkips`], [`CheckReport::oracle_skip`]).
//! 2. **Serial ≡ batch** — the batch engine, on the input point plus
//!    perturbed copies (one affine lane group), must reproduce every
//!    point's serial VM report bit-for-bit, and must have run in lanes.
//! 3. **AA-dd ⊆ AA-f64** — the higher-precision-center configuration
//!    must not *widen*: its range stays inside the f64-center range up to
//!    two ulps of slack per endpoint (center rounding may legitimately
//!    shift an endpoint by an ulp or so). Compared only when both runs
//!    decided every branch soundly.
//! 4. **Emit round-trip** — emitted sound C, reparsed via
//!    [`safegen_cfront::reparse_emitted`] and recompiled, must produce
//!    the bit-identical `igen-f64` range.
//! 5. **Pass-differential** — the optimizing pass pipeline must be
//!    semantics-preserving: the optimized and unoptimized
//!    (`PassManager::none()`) programs must agree bit-for-bit under the
//!    Unsound domain (concrete `f64` arithmetic, including arrays), the
//!    optimized program must never execute *more* instructions, and the
//!    unoptimized program must also enclose the exact oracle value under
//!    every sound domain (the optimized one is checked in step 1).
//!
//! Non-finite range endpoints (overflow to ∞ is sound; NaN is a
//! *degradation*, not an unsoundness) are recorded as anomalies, not
//! failures.
//!
//! [`run_fuzz`] drives iterations deterministically from a seed; on any
//! hard failure it re-renders candidates through the `safegen-fuzz`
//! shrinker and writes a minimized, replayable `.c` counterexample (with
//! its inputs in the header comment) under the output directory.

use crate::oracle::{eval_exact, EvalLimits, OracleError};
use crate::program::ParamBinding;
use crate::{
    run_on, ArgValue, BatchOptions, Compiler, LoopMode, PassManager, RunConfig, RunReport,
};
use safegen_cfront::EmitPrecision;
use safegen_fuzz::{generate_seeded, render, shrink, FuzzProgram, GenLimits};
use safegen_telemetry::json::Json;
use safegen_telemetry::{self as telemetry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Knobs for a single differential check.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct CheckOpts {
    /// Affine symbol budget for the AA configurations.
    pub k: usize,
    /// Oracle resource limits.
    pub oracle_limits: EvalLimits,
}

impl Default for CheckOpts {
    fn default() -> CheckOpts {
        CheckOpts {
            k: 16,
            oracle_limits: EvalLimits::default(),
        }
    }
}

/// One hard failure found by the checker.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// Failure class: `compile`, `run-error`, `enclosure`,
    /// `batch-mismatch`, `dd-widening`, `roundtrip`,
    /// `pass-differential`.
    pub kind: String,
    /// Human-readable specifics (config label, ranges, exact value).
    pub detail: String,
}

/// Outcome of checking one function at one input point.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Soundness violations and cross-engine disagreements.
    pub failures: Vec<CheckFailure>,
    /// Soft findings (NaN endpoints, overflow degradations).
    pub anomalies: Vec<String>,
    /// Exact-enclosure checks actually performed (one per sound config
    /// that had a decided path and a finite range).
    pub exact_checks: u64,
    /// Why the rational oracle declined, if it did.
    pub oracle_skip: Option<OracleError>,
    /// Exact-oracle checks dropped because their run took an undecided
    /// branch.
    pub undecided_skips: UndecidedSkips,
}

/// Exact-oracle checks dropped because their run took an undecided
/// branch (the VM followed the centers there, so its path may differ from
/// the real one), one count per check.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UndecidedSkips {
    /// Step 1, exact enclosure: one per sound configuration.
    pub exact_enclosure: u64,
    /// Step 5, the unoptimized program's exact enclosure: one per sound
    /// configuration.
    pub pass_differential: u64,
    /// Step 6, loop enclosure: one per fixpoint configuration.
    pub loop_enclosure: u64,
}

impl UndecidedSkips {
    /// The counts under their check names.
    pub fn by_check(&self) -> [(&'static str, u64); 3] {
        [
            ("exact-enclosure", self.exact_enclosure),
            ("pass-differential", self.pass_differential),
            ("loop-enclosure", self.loop_enclosure),
        ]
    }

    /// Every dropped check.
    pub fn total(&self) -> u64 {
        self.by_check().iter().map(|&(_, n)| n).sum()
    }

    fn add(&mut self, other: &UndecidedSkips) {
        self.exact_enclosure += other.exact_enclosure;
        self.pass_differential += other.pass_differential;
        self.loop_enclosure += other.loop_enclosure;
    }
}

impl CheckReport {
    fn fail(&mut self, kind: &str, detail: String) {
        self.failures.push(CheckFailure {
            kind: kind.to_string(),
            detail,
        });
    }

    /// True when no hard failure was found.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Points in step 2's batch: one affine lane group.
const BATCH_POINTS: usize = 4;

/// Point `l` of step 2's batch: float arguments scaled and shifted by
/// `l` (point 0 is the fuzz point itself); integers stay, since they
/// bound loops.
fn perturb(a: &ArgValue, l: usize) -> ArgValue {
    match a {
        ArgValue::Float(x) => ArgValue::Float(x * (1.0 + 0.013 * l as f64) + 0.001 * l as f64),
        other => other.clone(),
    }
}

/// Bit-for-bit equality of two reports: range, arrays, certified bits
/// and run statistics.
fn same_bits(a: &RunReport, b: &RunReport) -> bool {
    let bits = |r: &RunReport| {
        let range = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
        let arrays: Vec<(String, Vec<(u64, u64)>)> = r
            .arrays
            .iter()
            .map(|(n, vs)| (n.clone(), vs.iter().copied().map(range).collect()))
            .collect();
        (r.ret.map(range), arrays, r.acc_bits.to_bits(), r.stats)
    };
    bits(a) == bits(b)
}

fn fmt_range(r: Option<(f64, f64)>) -> String {
    match r {
        Some((lo, hi)) => format!("[{lo:e}, {hi:e}]"),
        None => "(void)".to_string(),
    }
}

/// Two ulps of slack, symmetric: endpoints that differ only by center
/// rounding between the dd and f64 pipelines stay inside it.
fn ulps_down(x: f64, n: u32) -> f64 {
    let mut v = x;
    for _ in 0..n {
        v = v.next_down();
    }
    v
}

fn ulps_up(x: f64, n: u32) -> f64 {
    let mut v = x;
    for _ in 0..n {
        v = v.next_up();
    }
    v
}

/// Compiles `src` and differentially checks `func` at the point `inputs`.
///
/// Every failure mode is reported in the [`CheckReport`] — including
/// compile errors (kind `compile`), so shrinkers can minimize those too.
pub fn check_source(src: &str, func: &str, inputs: &[f64], opts: &CheckOpts) -> CheckReport {
    let mut report = CheckReport::default();
    let compiled = match Compiler::new().compile(src) {
        Ok(c) => c,
        Err(e) => {
            report.fail("compile", e.to_string());
            return report;
        }
    };
    if !compiled.tac.functions.iter().any(|f| f.name == func) {
        report.fail("compile", format!("no function `{func}` in source"));
        return report;
    }
    // Binding-aware argument construction: corpus headers store every
    // input positionally as a float, so an `int` parameter (the
    // unbounded-loop trip bound) takes its value from the same slot,
    // truncated. On an arity mismatch fall back to all-floats and let the
    // VM report it like it always has.
    let params = &compiled.program(func).params;
    let args: Vec<ArgValue> = if params.len() == inputs.len() {
        params
            .iter()
            .zip(inputs)
            .map(|((_, binding), &x)| match binding {
                ParamBinding::Int(_) => ArgValue::Int(x as i64),
                _ => ArgValue::Float(x),
            })
            .collect()
    } else {
        inputs.iter().map(|&x| ArgValue::Float(x)).collect()
    };

    // Ground truth at the exact input point.
    let exact = match eval_exact(compiled.program(func), &args, &opts.oracle_limits) {
        Ok(v) => v,
        Err(e) => {
            report.oracle_skip = Some(e);
            None
        }
    };

    // 1. Exact enclosure under every sound domain.
    let sound_configs = [
        RunConfig::interval_f64(),
        RunConfig::interval_dd(),
        RunConfig::affine_f64(opts.k),
        RunConfig::affine_dd(opts.k),
    ];
    let mut reports: Vec<Option<RunReport>> = Vec::new();
    for config in &sound_configs {
        let r = match compiled.run(func, &args, config) {
            Ok(r) => r,
            Err(e) => {
                report.fail("run-error", format!("{}: {e}", config.label()));
                reports.push(None);
                continue;
            }
        };
        if let Some((lo, hi)) = r.ret {
            if lo.is_nan() || hi.is_nan() {
                report
                    .anomalies
                    .push(format!("{}: NaN range endpoint", config.label()));
            } else if let Some(x) = &exact {
                if r.stats.undecided_branches > 0 {
                    report.undecided_skips.exact_enclosure += 1;
                } else {
                    report.exact_checks += 1;
                    if !x.in_range(lo, hi) {
                        report.fail(
                            "enclosure",
                            format!(
                                "{}: [{lo:e}, {hi:e}] does not contain exact {x}",
                                config.label()
                            ),
                        );
                    }
                }
            }
        }
        reports.push(Some(r));
    }

    // The unsound original must at least execute (kept for step 5).
    let opt_unsound = compiled.run(func, &args, &RunConfig::unsound());
    if let Err(e) = &opt_unsound {
        report.fail("run-error", format!("unsound: {e}"));
    }

    // 2. Serial ≡ batch, bit-identical, on the AA-f64 configuration:
    // the fuzz point plus perturbed copies, enough for a lane group.
    let aa = RunConfig::affine_f64(opts.k);
    let points: Vec<Vec<ArgValue>> = (0..BATCH_POINTS)
        .map(|l| args.iter().map(|a| perturb(a, l)).collect())
        .collect();
    let serial: Vec<Result<RunReport, String>> =
        points.iter().map(|a| compiled.run(func, a, &aa)).collect();
    let want_err = serial.iter().find_map(|r| r.as_ref().err());
    match (
        compiled.run_batch(func, &points, &aa, &BatchOptions::default()),
        want_err,
    ) {
        (Ok(batch), None) => {
            if batch.lanes < 2 {
                report.fail(
                    "batch-mismatch",
                    format!("batch of {BATCH_POINTS} ran scalar under {}", aa.label()),
                );
            }
            for (item, s) in batch.items.iter().zip(serial.iter().flatten()) {
                if !same_bits(s, &item.report) {
                    report.fail(
                        "batch-mismatch",
                        format!(
                            "point {}: serial {} != batch {} under {}",
                            item.index,
                            fmt_range(s.ret),
                            fmt_range(item.report.ret),
                            aa.label()
                        ),
                    );
                }
            }
        }
        (Err(got), Some(want)) if &got == want => {}
        (got, want) => report.fail(
            "batch-mismatch",
            format!(
                "batch {:?} != serial {want:?} under {}",
                got.err(),
                aa.label()
            ),
        ),
    }

    // 3. AA-dd vs AA-f64 (both paths fully decided). This fuzzer
    // *refuted* the tempting metamorphic invariant "AA-dd ⊆ AA-f64":
    // where AA-f64 cancels to an exact [0, 0] the dd pipeline keeps
    // subnormal-scale noise, and at near-cancellations dd's conservative
    // rounding terms can legitimately exceed the f64 width many-fold —
    // both ranges stay sound (checked against the exact oracle above),
    // they are just not pointwise nested. The comparison is therefore a
    // soft anomaly, kept as a telemetry signal for accuracy regressions
    // rather than a hard failure.
    if let (Some(Some(f64r)), Some(Some(ddr))) = (reports.get(2), reports.get(3)) {
        if f64r.stats.undecided_branches == 0 && ddr.stats.undecided_branches == 0 {
            if let (Some((flo, fhi)), Some((dlo, dhi))) = (f64r.ret, ddr.ret) {
                let all_finite =
                    flo.is_finite() && fhi.is_finite() && dlo.is_finite() && dhi.is_finite();
                if all_finite && (dlo < ulps_down(flo, 2) || dhi > ulps_up(fhi, 2)) {
                    report.anomalies.push(format!(
                        "AA-dd [{dlo:e}, {dhi:e}] not enclosed by AA-f64 [{flo:e}, {fhi:e}]"
                    ));
                }
            }
        }
    }

    // 4. Emit → reparse → recompile → identical igen-f64 range.
    roundtrip_check(&compiled, src, func, &args, &mut report);

    // 5. Pass-differential: the optimizer must be semantics-preserving.
    let unopt = compiled.program_with_passes(func, &PassManager::none());
    if let Ok(a) = &opt_unsound {
        match run_on(&unopt, &args, &RunConfig::unsound()) {
            Ok(b) => {
                let bits = |r: Option<(f64, f64)>| r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
                let arr_bits = |r: &RunReport| -> Vec<(String, Vec<(u64, u64)>)> {
                    r.arrays
                        .iter()
                        .map(|(n, vs)| {
                            let vs = vs.iter().map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
                            (n.clone(), vs.collect())
                        })
                        .collect()
                };
                if bits(a.ret) != bits(b.ret) || arr_bits(a) != arr_bits(&b) {
                    report.fail(
                        "pass-differential",
                        format!(
                            "unsound results diverge: optimized {} != unoptimized {}",
                            fmt_range(a.ret),
                            fmt_range(b.ret)
                        ),
                    );
                }
                if a.stats.instrs > b.stats.instrs {
                    report.fail(
                        "pass-differential",
                        format!(
                            "optimized program executed more instructions \
                             ({} > {})",
                            a.stats.instrs, b.stats.instrs
                        ),
                    );
                }
            }
            Err(e) => report.fail(
                "pass-differential",
                format!("unoptimized unsound run failed where optimized ran: {e}"),
            ),
        }
    }
    // The unoptimized program must also enclose the exact value under
    // every sound domain (mirrors step 1 on the optimized program).
    if let Some(x) = &exact {
        for config in &sound_configs {
            let Ok(r) = run_on(&unopt, &args, config) else {
                continue; // optimized-side errors are already reported
            };
            let Some((lo, hi)) = r.ret else { continue };
            if lo.is_nan() || hi.is_nan() {
                continue;
            }
            if r.stats.undecided_branches > 0 {
                report.undecided_skips.pass_differential += 1;
                continue;
            }
            report.exact_checks += 1;
            if !x.in_range(lo, hi) {
                report.fail(
                    "pass-differential",
                    format!(
                        "{} unoptimized: [{lo:e}, {hi:e}] does not contain exact {x}",
                        config.label()
                    ),
                );
            }
        }
    }

    // 6. Loop-invariant fixpoint enclosure. For programs whose loops have
    // data-dependent trip counts (an `int` parameter feeding `while`
    // guards), run once in fixpoint mode with the trip parameter pushed
    // far past any unrolling budget: a sound invariant must enclose the
    // exact result at *every* trip count, which the rational oracle
    // verifies point by point at small counts.
    loop_enclosure_check(&compiled, func, &args, opts, &mut report);

    report
}

/// Check 6 of [`check_source`]: samples trip counts 0..=8 through the
/// exact oracle and asserts each exact value lies inside the fixpoint
/// enclosure computed with the trip parameter at `2^40`. Runs with an
/// undecided branch (the fixpoint engine decided a non-loop comparison by
/// its center) are skipped and counted, mirroring the step-1 policy.
fn loop_enclosure_check(
    compiled: &crate::Compiled,
    func: &str,
    args: &[ArgValue],
    opts: &CheckOpts,
    report: &mut CheckReport,
) {
    let prog = compiled.program(func);
    let has_int = prog
        .params
        .iter()
        .any(|(_, b)| matches!(b, ParamBinding::Int(_)));
    let has_loops = safegen_ir::loop_regions(&prog.code)
        .map(|t| t.has_loops())
        .unwrap_or(false);
    if !has_int || !has_loops {
        return;
    }
    let with_trips = |t: i64| -> Vec<ArgValue> {
        args.iter()
            .map(|a| match a {
                ArgValue::Int(_) => ArgValue::Int(t),
                other => other.clone(),
            })
            .collect()
    };
    // Exact ground truth at each sampled trip count; oracle declines
    // (representation growth in long division chains) are skips, never
    // passes.
    let samples: Vec<(i64, safegen_rational::Rational)> = (0..=8)
        .filter_map(|t| {
            eval_exact(prog, &with_trips(t), &opts.oracle_limits)
                .ok()
                .flatten()
                .map(|x| (t, x))
        })
        .collect();
    if samples.is_empty() {
        return;
    }
    let big = with_trips(1 << 40);
    for config in [RunConfig::interval_f64(), RunConfig::affine_f64(opts.k)] {
        let fix = config
            .with_loop_mode(LoopMode::Fixpoint)
            .with_unroll_budget(4);
        let r = match compiled.run(func, &big, &fix) {
            Ok(r) => r,
            Err(e) => {
                report.fail("run-error", format!("fixpoint {}: {e}", fix.label()));
                continue;
            }
        };
        if r.stats.undecided_branches > 0 {
            report.undecided_skips.loop_enclosure += 1;
            continue;
        }
        let Some((lo, hi)) = r.ret else { continue };
        if lo.is_nan() || hi.is_nan() {
            report
                .anomalies
                .push(format!("fixpoint {}: NaN range endpoint", fix.label()));
            continue;
        }
        for (t, x) in &samples {
            report.exact_checks += 1;
            if !x.in_range(lo, hi) {
                report.fail(
                    "loop-enclosure",
                    format!(
                        "fixpoint {}: [{lo:e}, {hi:e}] does not contain exact {x} \
                         at trip count {t}",
                        fix.label()
                    ),
                );
            }
        }
    }
}

fn roundtrip_check(
    compiled: &crate::Compiled,
    _src: &str,
    func: &str,
    args: &[ArgValue],
    report: &mut CheckReport,
) {
    // The driver threads the semantic tables through the TAC transform,
    // so the emitter reuses them instead of re-analyzing.
    let emitted = safegen_cfront::emit_c(&compiled.tac, &compiled.sema, EmitPrecision::F64);
    let unit = match safegen_cfront::reparse_emitted(&emitted) {
        Ok(u) => u,
        Err(e) => {
            report.fail("roundtrip", format!("emitted C does not reparse: {e}"));
            return;
        }
    };
    let reparsed_src = safegen_cfront::print_unit(&unit);
    let recompiled = match Compiler::new().compile(&reparsed_src) {
        Ok(c) => c,
        Err(e) => {
            report.fail("roundtrip", format!("reparsed C does not recompile: {e}"));
            return;
        }
    };
    let ia = RunConfig::interval_f64();
    let a = compiled.run(func, args, &ia);
    let b = recompiled.run(func, args, &ia);
    match (a, b) {
        (Ok(a), Ok(b)) => {
            let bits = |r: Option<(f64, f64)>| r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
            if bits(a.ret) != bits(b.ret) {
                report.fail(
                    "roundtrip",
                    format!(
                        "igen-f64 range changed across emit/reparse: {} != {}",
                        fmt_range(a.ret),
                        fmt_range(b.ret)
                    ),
                );
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            report.fail("roundtrip", format!("igen-f64 run failed: {e}"));
        }
    }
}

/// Parses the `/* safegen-fuzz: fn=NAME inputs=a,b */` header lines a
/// rendered program (or corpus file) carries, returning each function
/// name with its input point. Malformed lines are skipped.
pub fn parse_corpus_header(src: &str) -> Vec<(String, Vec<f64>)> {
    let mut out = Vec::new();
    for line in src.lines() {
        let Some(rest) = line
            .trim()
            .strip_prefix("/* safegen-fuzz:")
            .and_then(|r| r.strip_suffix("*/"))
        else {
            continue;
        };
        let mut func = None;
        let mut inputs = None;
        for field in rest.split_whitespace() {
            if let Some(name) = field.strip_prefix("fn=") {
                func = Some(name.to_string());
            } else if let Some(vals) = field.strip_prefix("inputs=") {
                inputs = vals
                    .split(',')
                    .map(|v| v.parse::<f64>())
                    .collect::<Result<Vec<f64>, _>>()
                    .ok();
            }
        }
        if let (Some(f), Some(i)) = (func, inputs) {
            out.push((f, i));
        }
    }
    out
}

/// Options for the fuzzing loop.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct FuzzOpts {
    /// Number of programs to generate and check.
    pub iters: u64,
    /// Seed: same seed ⇒ same programs, same verdicts.
    pub seed: u64,
    /// Affine symbol budget.
    pub k: usize,
    /// Where minimized counterexamples are written.
    pub out_dir: PathBuf,
    /// Budget for `still_fails` probes during shrinking.
    pub max_shrink_checks: usize,
    /// Generator weight for unbounded `while` loops
    /// ([`GenLimits::loop_weight`]); 0 keeps the historical corpus
    /// replay-identical, `safegen fuzz --loops` turns it on.
    pub loop_weight: u32,
}

impl Default for FuzzOpts {
    fn default() -> FuzzOpts {
        FuzzOpts {
            iters: 200,
            seed: 0xC60,
            k: 16,
            out_dir: PathBuf::from("results/fuzz"),
            max_shrink_checks: 300,
            loop_weight: 0,
        }
    }
}

/// A written counterexample.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// Iteration that produced the failing program.
    pub iter: u64,
    /// Failing function name.
    pub func: String,
    /// Failure class (see [`CheckFailure::kind`]).
    pub kind: String,
    /// Minimized program file (empty path if the write failed).
    pub path: PathBuf,
}

/// Aggregate results of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzSummary {
    /// Iterations executed.
    pub iters: u64,
    /// Function/input points checked.
    pub functions_checked: u64,
    /// Exact-enclosure comparisons performed.
    pub exact_checks: u64,
    /// Function points where the rational oracle declined, by reason
    /// ([`OracleError::reason`]).
    pub oracle_skips: BTreeMap<&'static str, u64>,
    /// Exact-oracle checks dropped for an undecided branch, by check.
    pub undecided_skips: UndecidedSkips,
    /// Soft anomalies (NaN endpoints etc.).
    pub anomalies: u64,
    /// Minimized counterexamples (empty on a clean run).
    pub counterexamples: Vec<Counterexample>,
}

impl FuzzSummary {
    /// One-line human summary.
    pub fn render(&self) -> String {
        let by_check = self
            .undecided_skips
            .by_check()
            .map(|(check, n)| format!("{check} {n}"));
        let by_reason: Vec<String> = self
            .oracle_skips
            .iter()
            .map(|(reason, n)| format!("{reason} {n}"))
            .collect();
        format!(
            "fuzz: {} iters, {} function points, {} exact checks, \
             {} oracle skips ({}), {} undecided skips ({}), {} anomalies, \
             {} counterexamples",
            self.iters,
            self.functions_checked,
            self.exact_checks,
            self.oracle_skips.values().sum::<u64>(),
            by_reason.join(", "),
            self.undecided_skips.total(),
            by_check.join(", "),
            self.anomalies,
            self.counterexamples.len()
        )
    }
}

fn check_fuzz_program(prog: &FuzzProgram, opts: &CheckOpts) -> Vec<(String, CheckReport)> {
    let src = render(prog);
    prog.function_names()
        .into_iter()
        .enumerate()
        .map(|(fi, name)| {
            let report = check_source(&src, &name, &prog.inputs[fi], opts);
            (name, report)
        })
        .collect()
}

/// Runs the deterministic fuzz loop.
///
/// # Errors
///
/// Only I/O problems (creating the output directory) are errors; found
/// counterexamples are reported in the summary, not as `Err`.
pub fn run_fuzz(opts: &FuzzOpts) -> Result<FuzzSummary, String> {
    let limits = GenLimits {
        loop_weight: opts.loop_weight,
        ..GenLimits::default()
    };
    let check_opts = CheckOpts {
        k: opts.k,
        ..CheckOpts::default()
    };
    let mut summary = FuzzSummary {
        iters: opts.iters,
        ..FuzzSummary::default()
    };
    for iter in 0..opts.iters {
        let prog = generate_seeded(opts.seed, iter, &limits);
        for (func, report) in check_fuzz_program(&prog, &check_opts) {
            summary.functions_checked += 1;
            summary.exact_checks += report.exact_checks;
            summary.anomalies += report.anomalies.len() as u64;
            if let Some(e) = &report.oracle_skip {
                *summary.oracle_skips.entry(e.reason()).or_default() += 1;
            }
            summary.undecided_skips.add(&report.undecided_skips);
            if report.passed() {
                continue;
            }
            let first = &report.failures[0];
            let kind = first.kind.clone();
            let minimized = minimize(&prog, &kind, &check_opts, opts.max_shrink_checks);
            let path =
                write_counterexample(&opts.out_dir, opts.seed, iter, &func, first, &minimized)
                    .unwrap_or_default();
            if telemetry::enabled() {
                telemetry::record(
                    "fuzz_counterexample",
                    vec![
                        ("iter", Json::from(iter as usize)),
                        ("func", Json::from(func.as_str())),
                        ("kind", Json::from(kind.as_str())),
                        ("detail", Json::from(first.detail.as_str())),
                    ],
                );
            }
            summary.counterexamples.push(Counterexample {
                iter,
                func: func.clone(),
                kind,
                path,
            });
        }
    }
    if telemetry::enabled() {
        telemetry::record(
            "fuzz_summary",
            vec![
                ("iters", Json::from(summary.iters as usize)),
                (
                    "functions_checked",
                    Json::from(summary.functions_checked as usize),
                ),
                ("exact_checks", Json::from(summary.exact_checks as usize)),
                (
                    "oracle_skips",
                    Json::obj(
                        summary
                            .oracle_skips
                            .iter()
                            .map(|(&reason, &n)| (reason, Json::from(n)))
                            .collect(),
                    ),
                ),
                (
                    "undecided_skips",
                    Json::obj(Vec::from(
                        summary
                            .undecided_skips
                            .by_check()
                            .map(|(check, n)| (check, Json::from(n))),
                    )),
                ),
                ("anomalies", Json::from(summary.anomalies as usize)),
                ("counterexamples", Json::from(summary.counterexamples.len())),
            ],
        );
    }
    Ok(summary)
}

/// Shrinks `prog` while any function still fails with the same kind.
fn minimize(
    prog: &FuzzProgram,
    kind: &str,
    check_opts: &CheckOpts,
    max_checks: usize,
) -> FuzzProgram {
    let mut still_fails = |cand: &FuzzProgram| {
        check_fuzz_program(cand, check_opts)
            .iter()
            .any(|(_, r)| r.failures.iter().any(|f| f.kind == kind))
    };
    let (minimized, _stats) = shrink(prog, &mut still_fails, max_checks);
    minimized
}

fn write_counterexample(
    out_dir: &Path,
    seed: u64,
    iter: u64,
    func: &str,
    failure: &CheckFailure,
    minimized: &FuzzProgram,
) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("cex-seed{seed:#x}-iter{iter}.c"));
    // Comment-safe: the detail must not terminate the block comment early.
    let detail = failure.detail.replace("*/", "* /");
    let body = format!(
        "/* safegen-fuzz counterexample\n \
         * seed={seed:#x} iter={iter} fn={func} kind={kind}\n \
         * {detail}\n \
         * replay: cargo test --test fuzz_replay -- after copying this file\n \
         *         into tests/corpus/, or `safegen fuzz --seed {seed:#x}`.\n \
         */\n{src}",
        kind = failure.kind,
        src = render(minimized)
    );
    std::fs::write(&path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_program_passes_all_checks() {
        let src = "/* safegen-fuzz: fn=f inputs=0.5,0.25 */\n\
                   double f(double a, double b) { return a * b + 0.1; }";
        let report = check_source(src, "f", &[0.5, 0.25], &CheckOpts::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.exact_checks >= 4, "{report:?}");
        assert!(report.oracle_skip.is_none());
    }

    #[test]
    fn division_and_branches_check_exactly() {
        let src = "double f(double x) {\n\
                   double d = x / (x * x + 0.5);\n\
                   if (d < 0.25) { d = d + 1.0; } else { d = d - 1.0; }\n\
                   return d; }";
        let report = check_source(src, "f", &[1.5], &CheckOpts::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.exact_checks >= 1);
    }

    #[test]
    fn undecided_runs_count_their_dropped_checks() {
        // At x = 0.5 every sound input range straddles the comparison, so
        // each run follows the center there and its oracle check drops.
        let src = "double f(double x, int n) {\n\
                   double acc = x;\n\
                   int t = 0;\n\
                   while (t < n) { acc = acc * 0.5; t = t + 1; }\n\
                   if (x < 0.5) { return acc * 2.0; }\n\
                   return acc * 4.0; }";
        let report = check_source(src, "f", &[0.5, 2.0], &CheckOpts::default());
        assert!(report.passed(), "{:?}", report.failures);
        // Four sound configurations in steps 1 and 5, two fixpoint ones
        // in step 6: every exact check dropped, and counted.
        assert_eq!(
            report.undecided_skips,
            UndecidedSkips {
                exact_enclosure: 4,
                pass_differential: 4,
                loop_enclosure: 2,
            },
            "{report:?}"
        );
        assert_eq!(report.exact_checks, 0, "{report:?}");
        // Away from the threshold every run decides and nothing drops.
        let report = check_source(src, "f", &[0.25, 2.0], &CheckOpts::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.undecided_skips, UndecidedSkips::default());
        assert!(report.exact_checks > 0, "{report:?}");
    }

    #[test]
    fn sqrt_skips_oracle_but_keeps_metamorphic_checks() {
        let src = "double f(double x) { return sqrt(fabs(x) + 0.5); }";
        let report = check_source(src, "f", &[1.0], &CheckOpts::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.exact_checks, 0);
        assert_eq!(report.oracle_skip, Some(OracleError::Unsupported("sqrt")));
    }

    #[test]
    fn pass_differential_compares_against_unoptimized() {
        // Duplicate subexpressions, a dead temporary and a copy chain:
        // the pipeline rewrites this program substantially, so the
        // differential genuinely compares two different instruction
        // streams.
        let src = "double f(double x, double y) {\n\
                   double a = x * y;\n\
                   double b = x * y;\n\
                   double dead = x + 1.0;\n\
                   double c = a;\n\
                   return b + c; }";
        let compiled = Compiler::new().compile(src).unwrap();
        let unopt = compiled.program_with_passes("f", &PassManager::none());
        assert!(
            compiled.program("f").code.len() < unopt.code.len(),
            "optimizer should have rewritten this program"
        );
        let report = check_source(src, "f", &[0.75, -1.25], &CheckOpts::default());
        assert!(report.passed(), "{:?}", report.failures);
        // Step 5 doubles the enclosure coverage: 4 optimized + 4 unoptimized.
        assert!(report.exact_checks >= 8, "{report:?}");
    }

    #[test]
    fn compile_errors_are_reported_not_panicked() {
        let report = check_source(
            "double f(double x) { return y; }",
            "f",
            &[1.0],
            &CheckOpts::default(),
        );
        assert!(!report.passed());
        assert_eq!(report.failures[0].kind, "compile");
        let report = check_source(
            "double f(double x) { return x; }",
            "g",
            &[1.0],
            &CheckOpts::default(),
        );
        assert_eq!(report.failures[0].kind, "compile");
    }

    #[test]
    fn corpus_header_round_trips() {
        let prog = generate_seeded(0xC60, 3, &GenLimits::default());
        let src = render(&prog);
        let parsed = parse_corpus_header(&src);
        assert_eq!(parsed.len(), prog.functions.len());
        for (fi, (name, inputs)) in parsed.iter().enumerate() {
            assert_eq!(name, &format!("f{fi}"));
            let same = inputs
                .iter()
                .zip(&prog.inputs[fi])
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "inputs drifted through the header: {inputs:?}");
        }
        assert!(parse_corpus_header("no header here").is_empty());
    }

    #[test]
    fn counterexample_files_are_replayable() {
        let prog = generate_seeded(7, 0, &GenLimits::default());
        let failure = CheckFailure {
            kind: "enclosure".to_string(),
            detail: "synthetic */ detail".to_string(),
        };
        let dir = std::env::temp_dir().join("safegen-fuzz-cex-test");
        let path = write_counterexample(&dir, 7, 0, "f0", &failure, &prog).unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        // The detail must not have terminated the comment early: the
        // replay header must survive and parse back to the same points.
        let parsed = parse_corpus_header(&written);
        assert_eq!(parsed.len(), prog.functions.len());
        assert_eq!(parsed[0].1.len(), prog.inputs[0].len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loop_enclosure_check_engages_on_unbounded_loops() {
        let src = "/* safegen-fuzz: fn=f inputs=1.0,3.0 */\n\
                   double f(double x, int n) {\n\
                   double acc = x;\n\
                   int t = 0;\n\
                   while (t < n) { acc = acc * 0.875 + x; t = t + 1; }\n\
                   return acc; }";
        let report = check_source(src, "f", &[1.0, 3.0], &CheckOpts::default());
        assert!(report.passed(), "{:?}", report.failures);
        // Steps 1 and 5 check 8 enclosures at trip count 3; step 6 adds
        // 9 sampled trip counts × 2 fixpoint configurations.
        assert!(report.exact_checks >= 8 + 18, "{report:?}");
    }

    #[test]
    fn divergent_loops_stay_sound_under_fixpoint() {
        // The accumulator doubles forever: the fixpoint enclosure must
        // widen to a sound infinity, which still contains every sampled
        // finite trip count — soundness, not a hang or a violation.
        let src = "double f(double x, int n) {\n\
                   double acc = x;\n\
                   int t = 0;\n\
                   while (t < n) { acc = acc * 2.0 + 1.0; t = t + 1; }\n\
                   return acc; }";
        let report = check_source(src, "f", &[1.0, 2.0], &CheckOpts::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.exact_checks >= 18, "{report:?}");
    }

    #[test]
    fn small_loop_fuzz_run_is_deterministic_and_clean() {
        let dir = std::env::temp_dir().join("safegen-fuzz-loop-selftest");
        let opts = FuzzOpts {
            iters: 10,
            seed: 0xC60,
            out_dir: dir,
            loop_weight: 4,
            ..FuzzOpts::default()
        };
        let a = run_fuzz(&opts).unwrap();
        let b = run_fuzz(&opts).unwrap();
        assert_eq!(a.functions_checked, b.functions_checked);
        assert_eq!(a.exact_checks, b.exact_checks);
        assert!(
            a.counterexamples.is_empty(),
            "soundness counterexamples: {:?}",
            a.counterexamples
        );
        assert!(a.exact_checks > 0, "oracle never engaged: {a:?}");
    }

    #[test]
    fn small_fuzz_run_is_deterministic_and_clean() {
        let dir = std::env::temp_dir().join("safegen-fuzz-selftest");
        let opts = FuzzOpts {
            iters: 10,
            seed: 0xC60,
            out_dir: dir,
            ..FuzzOpts::default()
        };
        let a = run_fuzz(&opts).unwrap();
        let b = run_fuzz(&opts).unwrap();
        assert_eq!(a.functions_checked, b.functions_checked);
        assert_eq!(a.exact_checks, b.exact_checks);
        assert_eq!(a.oracle_skips, b.oracle_skips);
        assert!(
            a.counterexamples.is_empty(),
            "soundness counterexamples: {:?}",
            a.counterexamples
        );
        assert!(a.exact_checks > 0, "oracle never engaged: {a:?}");
    }
}
