//! Sound loop invariants for unbounded loops: the iterate-and-widen
//! fixpoint engine (DESIGN.md §12).
//!
//! The paper's evaluation model fully unrolls every loop, which requires a
//! statically bounded trip count. This module lifts that restriction: when
//! a loop's trip count is unknown (data-dependent `while` guard) or
//! exceeds the unroll budget, `exec_fixpoint` computes a sound
//! **loop-invariant enclosure** by abstract interpretation —
//!
//! 1. **Attempt** (phase A): run the loop concretely for up to
//!    `attempt_budget` traversals of its back edge. Small bounded loops
//!    exit here with the exact unrolled result (the "full unroll
//!    fallback"); an exhausted budget or a data-dependent guard aborts to
//!    phase B with the entry state restored.
//! 2. **Iterate** (phase B): keep an interval hull per loop-carried
//!    variable, re-execute the loop body from the materialized hulls, and
//!    join the resulting state back in until the invariant is inductive
//!    (`F(inv) ⊑ inv`). After `WIDEN_DELAY` rounds, growing endpoints are
//!    snapped outward to a power-of-two ladder (threshold widening), and
//!    after `THRESHOLD_ROUNDS` more they jump to ±∞ — so the iteration
//!    terminates even for divergent loops.
//! 3. **Narrow**: candidate refinements `entry ⊔ F(inv)` are accepted
//!    only after re-verification (`entry ⊔ F(cand) ⊑ cand`), recovering
//!    precision lost to widening without assuming monotonicity of the
//!    transfer functions.
//! 4. **Collect**: one final pass over the inductive invariant gathers
//!    the exit states (the invariant refined by the negated guard). A
//!    loop that provably never exits yields a *vacuous* exit carrying the
//!    invariant — termination-with-soundness where unrolling would spin
//!    forever.
//!
//! The invariant is a plain `(f64, f64)` hull per written component, not
//! a domain value: loop-carried variables are rebuilt each pass through
//! [`Domain::from_range`], which deliberately drops symbol correlation
//! (keeping affine terms across a join is unsound for loop-carried
//! state — `x = 1.0 - x` flips every coefficient each trip). Soundness of
//! the final invariant needs no monotonicity argument: the body transfer
//! function is evaluated directly on the materialized invariant, so
//! containment of the result *is* inductiveness.
//!
//! Any shape the abstract interpreter cannot handle soundly (a widened
//! integer used as an array index or divisor, an early `return` inside a
//! loop body, several distinct exit targets) bails out to one plain
//! concrete execution of the whole program — never an unsound answer.

use crate::domain::Domain;
use crate::exec::{
    cmp_f_sound, err, exec_inner, ArgValue, ExecError, Flow, IntReg, Machine, NoTrace, RunResult,
    RunStats, FUEL,
};
use crate::program::{CmpOp, FixedInstr, OpCode, Program};
use safegen_ir::loops::{loop_regions, LoopRegion, LoopTable};
use safegen_ir::Operand;

/// How the VM treats loops whose trip count is not statically exhausted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LoopMode {
    /// Full unrolling only (the paper's model): every loop executes
    /// concretely; a runaway loop exhausts the instruction budget.
    #[default]
    Unroll,
    /// Fixpoint-first: a small attempt budget (default 16 back-edge
    /// traversals), then the iterate-and-widen solver.
    Fixpoint,
    /// Unroll-first: a large attempt budget (default 1024) keeps small
    /// loops exact, with the fixpoint solver as the fallback.
    Auto,
}

impl LoopMode {
    /// Parses `unroll` / `fixpoint` / `auto` (the CLI's `--loop-mode`
    /// and the request's `"loop_mode"` values).
    pub fn parse(s: &str) -> Option<LoopMode> {
        match s {
            "unroll" => Some(LoopMode::Unroll),
            "fixpoint" => Some(LoopMode::Fixpoint),
            "auto" => Some(LoopMode::Auto),
            _ => None,
        }
    }

    /// The canonical spelling accepted by [`LoopMode::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            LoopMode::Unroll => "unroll",
            LoopMode::Fixpoint => "fixpoint",
            LoopMode::Auto => "auto",
        }
    }
}

/// Back-edge traversals granted to the concrete attempt (phase A) before
/// aborting to the abstract solver, under `LoopMode::Fixpoint`.
const ATTEMPT_BUDGET: u64 = 16;
/// The same under `LoopMode::Auto`, which prefers the exact unrolled
/// result for moderately long bounded loops.
const AUTO_ATTEMPT_BUDGET: u64 = 1024;
/// Join rounds before widening starts.
const WIDEN_DELAY: u32 = 3;
/// Threshold-widening rounds (power-of-two ladder) before endpoints jump
/// to ±∞.
const THRESHOLD_ROUNDS: u32 = 24;
/// Verified narrowing passes after stabilization.
const NARROW_PASSES: u32 = 8;
/// Hard cap on iterate rounds (defense in depth; the widening schedule
/// alone guarantees termination).
const MAX_ITERS: u32 = 64;
/// Instruction cap per abstract body pass (guards against a nested
/// concrete loop that never terminates inside one pass).
const PASS_FUEL: u64 = 10_000_000;

/// The attempt budget for `mode`: the standard one, or `unroll_budget`
/// when the run configuration sets it (`RunConfig::unroll_budget`, the
/// CLI's `--unroll-budget`).
pub(crate) fn attempt_budget(mode: LoopMode, unroll_budget: Option<u64>) -> u64 {
    unroll_budget.unwrap_or(match mode {
        LoopMode::Auto => AUTO_ATTEMPT_BUDGET,
        _ => ATTEMPT_BUDGET,
    })
}

/// Abstract integer: the flat lattice `Known ⊑ Top`, plus a lazily
/// undecided float comparison result.
#[derive(Clone, Copy, Debug, PartialEq)]
enum AbsInt {
    /// A genuine concrete value (every execution reaching this point under
    /// the current invariant carries exactly this value).
    Known(i64),
    /// The 0/1 result of a float comparison whose enclosures overlapped.
    /// Undecided status is *lazy*: consumed by a loop-exit guard it
    /// becomes a sound both-paths split (no undecided count); consumed
    /// anywhere else it collapses to the center decision and increments
    /// `undecided_branches`, exactly like the plain VM.
    CmpPend {
        /// The center-value decision (the plain VM's tie-break).
        center: bool,
        /// Comparison operator, for guard refinement.
        op: CmpOp,
        /// Left float register.
        a: usize,
        /// Right float register.
        b: usize,
    },
    /// Unknown integer (a widened loop counter).
    Top,
}

impl IntReg for AbsInt {
    type Abort = FpAbort;

    fn known(v: i64) -> AbsInt {
        AbsInt::Known(v)
    }

    /// `CmpPend` takes the center decision (counted undecided, then
    /// pinned so repeated reads agree); `Top` aborts to concrete
    /// execution.
    fn read(&mut self, undecided: &mut u64) -> Result<i64, FpAbort> {
        match *self {
            AbsInt::Known(v) => Ok(v),
            AbsInt::CmpPend { center, .. } => {
                *undecided += 1;
                let v = i64::from(center);
                *self = AbsInt::Known(v);
                Ok(v)
            }
            AbsInt::Top => Err(FpAbort::NeedConcrete("widened integer consumed")),
        }
    }

    /// `Top` if either operand is `Top`, without reading the other.
    fn bin(
        regs: &mut [AbsInt],
        a: usize,
        b: usize,
        f: impl Fn(i64, i64) -> i64,
        undecided: &mut u64,
    ) -> Result<AbsInt, FpAbort> {
        if matches!(regs[a], AbsInt::Top) || matches!(regs[b], AbsInt::Top) {
            return Ok(AbsInt::Top);
        }
        let av = regs[a].read(undecided)?;
        let bv = regs[b].read(undecided)?;
        Ok(AbsInt::Known(f(av, bv)))
    }

    /// An overlapping comparison stays pending (uncounted) until read.
    fn cmp_f<D: Domain>(op: CmpOp, x: &D, y: &D, a: usize, b: usize, _: &mut u64) -> AbsInt {
        match cmp_f_sound(op, x, y) {
            Some(v) => AbsInt::Known(i64::from(v)),
            None => AbsInt::CmpPend {
                center: op.eval(x.center(), y.center()),
                op,
                a,
                b,
            },
        }
    }

    fn decided(self) -> Option<i64> {
        match self {
            AbsInt::Known(v) => Some(v),
            _ => None,
        }
    }
}

/// The abstract machine state: domain values with abstract integers.
type AbsMachine<D> = Machine<D, AbsInt>;

/// Why the abstract engine gave up. `NeedConcrete` triggers one plain
/// concrete execution of the whole program; `Fail` is a genuine runtime
/// error that concrete execution would also report.
enum FpAbort {
    NeedConcrete(&'static str),
    Fail(ExecError),
}

impl From<ExecError> for FpAbort {
    fn from(e: ExecError) -> FpAbort {
        FpAbort::Fail(e)
    }
}

/// Outcome of a whole solved loop, from the caller's perspective.
enum LoopOut<D> {
    /// Continue at this pc (the machine state holds the exit state).
    Exit(usize),
    /// The loop body returned from the function (concrete attempt only).
    Ret(Option<D>),
}

/// Outcome of the concrete attempt (phase A).
enum AttemptOut<D> {
    Exit(usize),
    Ret(Option<D>),
    /// Budget exhausted or data-dependent guard: fall through to phase B.
    Abort,
}

/// Outcome of one abstract body pass (phase B).
enum PassOut<D> {
    /// Reached the back edge; state at the bottom of the body.
    Back(AbsMachine<D>),
    /// The body path was decidedly or provably not taken again (no new
    /// back-edge state — the invariant is inductive as-is).
    Exited,
    /// A *decided* exit: every state in the invariant leaves the loop
    /// here. The state is the precise continuation.
    ExitedAt { pc: usize, state: AbsMachine<D> },
}

/// The interval hull invariant over the loop's written components.
#[derive(Clone, Debug, PartialEq)]
struct Inv {
    /// Hull per written float register (indexed by position in
    /// `Written::fregs`).
    f: Vec<(f64, f64)>,
    /// Flat-lattice value per written int register (`None` = Top).
    i: Vec<Option<i64>>,
    /// Hulls per element of each written array.
    a: Vec<Vec<(f64, f64)>>,
}

/// The registers and arrays written anywhere in a loop region.
struct Written {
    fregs: Vec<usize>,
    iregs: Vec<usize>,
    arrays: Vec<usize>,
}

fn written_sets(code: &[FixedInstr], region: LoopRegion) -> Written {
    let mut w = Written {
        fregs: Vec::new(),
        iregs: Vec::new(),
        arrays: Vec::new(),
    };
    for ins in &code[region.header..=region.back_jump] {
        // The `dst` field is the one an instruction writes.
        let set = match ins.op.operands() {
            Some(([Operand::FReg, ..], _)) => &mut w.fregs,
            Some(([Operand::IReg, ..], _)) => &mut w.iregs,
            Some(([Operand::Array, ..], _)) => &mut w.arrays,
            _ => continue,
        };
        let r = usize::from(ins.dst);
        if !set.contains(&r) {
            set.push(r);
        }
    }
    w
}

/// NaN-endpoint hulls widen to the entire line (a poisoned value encloses
/// everything it could be).
fn clean_hull(lo: f64, hi: f64) -> (f64, f64) {
    if lo.is_nan() || hi.is_nan() {
        (f64::NEG_INFINITY, f64::INFINITY)
    } else {
        (lo, hi)
    }
}

/// Smallest power of two ≥ `x` for positive `x` (0 for `x ≤ 0`, ∞ past
/// the representable range). Exact bit-level computation.
fn snap_up_pow2(x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if !x.is_finite() {
        return f64::INFINITY;
    }
    let bits = x.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    let frac = bits & 0xf_ffff_ffff_ffff;
    if exp == 0 {
        return f64::MIN_POSITIVE; // subnormal → 2^-1022
    }
    if frac == 0 {
        return x;
    }
    if exp >= 0x7fe {
        return f64::INFINITY;
    }
    f64::from_bits((exp + 1) << 52)
}

/// Largest power of two ≤ `x` for positive `x` (0 for subnormals and
/// `x ≤ 0`).
fn snap_down_pow2(x: f64) -> f64 {
    if x <= 0.0 || !x.is_finite() {
        return if x == f64::INFINITY {
            f64::INFINITY
        } else {
            0.0
        };
    }
    let bits = x.to_bits();
    let exp = (bits >> 52) & 0x7ff;
    if exp == 0 {
        return 0.0;
    }
    f64::from_bits(exp << 52)
}

/// Snap a growing upper endpoint outward to the ladder.
fn ladder_hi(x: f64) -> f64 {
    if x >= 0.0 {
        snap_up_pow2(x)
    } else {
        -snap_down_pow2(-x)
    }
}

/// Snap a growing lower endpoint outward (downward) to the ladder.
fn ladder_lo(x: f64) -> f64 {
    -ladder_hi(-x)
}

/// Negate a comparison operator (the exit-path condition of a guard).
fn negate(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
    }
}

/// Executes `prog` under domain `D` with fixpoint loop handling.
///
/// Equivalent to [`crate::exec()`] for loop-free programs and under
/// [`LoopMode::Unroll`] (it delegates). Otherwise loops run through the
/// attempt/iterate/narrow/collect pipeline described in the module docs,
/// and any unsupported shape falls back to one plain concrete execution —
/// the result is always sound, never silently approximate.
///
/// # Errors
///
/// Same conditions as [`crate::exec()`]: argument mismatch, out-of-bounds
/// access, division by zero, fuel exhaustion (a divergent loop under
/// `Unroll`, or after a concrete fallback).
pub(crate) fn exec_fixpoint<D: Domain>(
    prog: &Program,
    args: &[ArgValue],
    cx: &D::Ctx,
    mode: LoopMode,
    attempt_budget: u64,
) -> Result<RunResult<D>, ExecError> {
    if matches!(mode, LoopMode::Unroll) {
        return exec_inner(prog, args, cx, &mut NoTrace);
    }
    let table = match loop_regions(&prog.code) {
        Ok(t) => t,
        Err(_) => return exec_inner(prog, args, cx, &mut NoTrace),
    };
    // A domain that cannot materialize ranges (Unsound) is found at its
    // first loop hull and falls back below. Probing it here would draw a
    // noise symbol from the run's context and shift every later symbol
    // id, so the attempt would no longer match a plain run bit for bit.
    if !table.has_loops() {
        return exec_inner(prog, args, cx, &mut NoTrace);
    }
    let mut engine = Engine {
        prog,
        cx,
        table: &table,
        attempt_budget,
        stats: RunStats::default(),
    };
    match engine.run_program(args) {
        Ok(result) => {
            let tm = safegen_telemetry::metrics::metrics();
            tm.loops.iterations.add(result.stats.fixpoint_iters);
            tm.loops.widenings.add(result.stats.widenings);
            tm.loops.narrowings.add(result.stats.narrowings);
            Ok(result)
        }
        Err(FpAbort::Fail(e)) => Err(e),
        Err(FpAbort::NeedConcrete(_reason)) => {
            safegen_telemetry::metrics::metrics().loops.bailouts.inc();
            exec_inner(prog, args, cx, &mut NoTrace)
        }
    }
}

struct Engine<'p, D: Domain> {
    prog: &'p Program,
    cx: &'p D::Ctx,
    table: &'p LoopTable,
    attempt_budget: u64,
    stats: RunStats,
}

impl<D: Domain> Engine<'_, D> {
    fn hull_value(&self, lo: f64, hi: f64) -> Result<D, FpAbort> {
        D::from_range(lo, hi, self.cx)
            .ok_or(FpAbort::NeedConcrete("domain cannot materialize ranges"))
    }

    /// Whole-program driver: binds parameters like the plain VM, then
    /// interprets top to bottom, handing every loop header to
    /// [`Engine::solve`].
    fn run_program(&mut self, args: &[ArgValue]) -> Result<RunResult<D>, FpAbort> {
        let (prog, cx) = (self.prog, self.cx);
        let mut m = AbsMachine::<D>::bind(prog, args, cx, &mut NoTrace)?;
        let mut pc = 0usize;
        let mut ret: Option<D> = None;
        while pc < prog.code.len() {
            if let Some(region) = self.table.region_with_header(pc) {
                match self.solve(&mut m, region)? {
                    LoopOut::Exit(p) => {
                        pc = p;
                        continue;
                    }
                    LoopOut::Ret(r) => {
                        ret = r;
                        break;
                    }
                }
            }
            if self.stats.instrs > FUEL {
                return Err(FpAbort::Fail(err(
                    "instruction budget exhausted (infinite loop?)",
                )));
            }
            match m.step(prog, cx, pc, &mut self.stats, false)? {
                Flow::Next => pc += 1,
                Flow::Goto(t) => pc = t,
                Flow::Ret(r) => {
                    ret = r;
                    break;
                }
                Flow::Branch { reg, target } => {
                    // An undecided branch outside any loop: the plain VM's
                    // center decision, counted undecided.
                    let undecided = &mut self.stats.undecided_branches;
                    if m.iregs[reg].read(undecided)? == 0 {
                        pc = target;
                    } else {
                        pc += 1;
                    }
                }
            }
        }
        Ok(m.finish(prog, cx, ret, self.stats))
    }

    /// Phase A: run the loop concretely for up to `attempt_budget`
    /// back-edge traversals. Any abstract obstacle (a data-dependent
    /// guard, a widened integer) aborts — the caller restores the entry
    /// state and falls through to the abstract solver.
    fn attempt(
        &mut self,
        m: &mut AbsMachine<D>,
        region: LoopRegion,
    ) -> Result<AttemptOut<D>, FpAbort> {
        let mut pc = region.header;
        let mut traversals: u64 = 0;
        loop {
            if !region.contains(pc) {
                return Ok(AttemptOut::Exit(pc));
            }
            if self.stats.instrs > FUEL {
                return Err(FpAbort::Fail(err(
                    "instruction budget exhausted (infinite loop?)",
                )));
            }
            match m.step(self.prog, self.cx, pc, &mut self.stats, false) {
                Ok(Flow::Next) => pc += 1,
                Ok(Flow::Goto(t)) => {
                    if t == region.header {
                        traversals += 1;
                        if traversals > self.attempt_budget {
                            return Ok(AttemptOut::Abort);
                        }
                    }
                    pc = t;
                }
                Ok(Flow::Ret(r)) => return Ok(AttemptOut::Ret(r)),
                Ok(Flow::Branch { .. }) => return Ok(AttemptOut::Abort),
                Err(FpAbort::Fail(e)) => return Err(FpAbort::Fail(e)),
                Err(FpAbort::NeedConcrete(_)) => return Ok(AttemptOut::Abort),
            }
        }
    }

    /// Solves one loop: attempt, iterate-and-widen, narrow, collect (the
    /// pipeline of the module docs). On success the machine state holds
    /// the loop's exit state and the returned pc continues after it.
    fn solve(&mut self, m: &mut AbsMachine<D>, region: LoopRegion) -> Result<LoopOut<D>, FpAbort> {
        let stats_at_entry = self.stats;
        let snapshot = m.clone();
        match self.attempt(m, region)? {
            AttemptOut::Exit(pc) => {
                safegen_telemetry::metrics::metrics().loops.unrolled.inc();
                return Ok(LoopOut::Exit(pc));
            }
            AttemptOut::Ret(r) => {
                safegen_telemetry::metrics::metrics().loops.unrolled.inc();
                return Ok(LoopOut::Ret(r));
            }
            AttemptOut::Abort => {
                self.stats = stats_at_entry;
                *m = snapshot.clone();
            }
        }

        let written = written_sets(&self.prog.code, region);
        let entry = self.hulls_of(&snapshot, &written);
        let mut inv = entry.clone();

        // Phase B: iterate until the invariant is inductive, widening on
        // the configured schedule so divergent loops terminate.
        let mut round: u32 = 0;
        loop {
            round += 1;
            self.stats.fixpoint_iters += 1;
            if round > MAX_ITERS {
                return Err(FpAbort::NeedConcrete("loop did not stabilize"));
            }
            let start = self.materialize(&snapshot, &inv, &written)?;
            match self.pass(start, region, None)? {
                PassOut::Back(s) => {
                    let next = self.hulls_of(&s, &written);
                    if next.contained_in(&inv) {
                        break;
                    }
                    self.stats.widenings += inv.join_widen(&next, round);
                }
                PassOut::Exited | PassOut::ExitedAt { .. } => break,
            }
        }

        // Narrowing: each candidate `entry ⊔ F(inv)` is re-verified
        // (`entry ⊔ F(cand) ⊑ cand`) before acceptance, so precision
        // recovery never assumes monotonic transfer functions.
        for _ in 0..NARROW_PASSES {
            let start = self.materialize(&snapshot, &inv, &written)?;
            let body = match self.pass(start, region, None)? {
                PassOut::Back(s) => Some(self.hulls_of(&s, &written)),
                PassOut::Exited | PassOut::ExitedAt { .. } => None,
            };
            let mut cand = entry.clone();
            if let Some(b) = &body {
                cand.join_plain(b);
            }
            if !(cand.contained_in(&inv) && cand != inv) {
                break;
            }
            let vstart = self.materialize(&snapshot, &cand, &written)?;
            let vbody = match self.pass(vstart, region, None)? {
                PassOut::Back(s) => Some(self.hulls_of(&s, &written)),
                PassOut::Exited | PassOut::ExitedAt { .. } => None,
            };
            let mut check = entry.clone();
            if let Some(b) = &vbody {
                check.join_plain(b);
            }
            if check.contained_in(&cand) {
                inv = cand;
                self.stats.narrowings += 1;
            } else {
                break;
            }
        }

        // Collect: one pass over the final invariant accumulating the
        // exit states (invariant refined by the negated guard).
        let start = self.materialize(&snapshot, &inv, &written)?;
        let mut acc: Option<(usize, AbsMachine<D>)> = None;
        match self.pass(start, region, Some(&mut acc))? {
            PassOut::ExitedAt { pc, state } => self.join_exit_into(&mut acc, pc, state)?,
            PassOut::Back(_) | PassOut::Exited => {}
        }
        self.stats.fixpoint_loops += 1;
        safegen_telemetry::metrics::metrics().loops.solves.inc();
        match acc {
            Some((pc, state)) => {
                *m = state;
                Ok(LoopOut::Exit(pc))
            }
            None => {
                // No feasible exit under the invariant: the loop provably
                // never terminates on any execution it encloses. Continue
                // soundly (vacuous truth) at the loop's static exit with
                // the invariant as the machine state.
                let target = self
                    .static_exit_target(region)
                    .ok_or(FpAbort::NeedConcrete("loop with no exit edge"))?;
                *m = self.materialize(&snapshot, &inv, &written)?;
                Ok(LoopOut::Exit(target))
            }
        }
    }

    /// One abstract pass over the loop body, from the header to the back
    /// edge. Loop-exit guards split soundly: in `collect` mode the exit
    /// path (refined by the negated guard) is accumulated, and the body
    /// path (refined by the guard) continues; either side found
    /// infeasible is dropped. Inner loops are solved recursively.
    fn pass(
        &mut self,
        mut m: AbsMachine<D>,
        region: LoopRegion,
        mut collect: Option<&mut Option<(usize, AbsMachine<D>)>>,
    ) -> Result<PassOut<D>, FpAbort> {
        let mut pc = region.header;
        let mut fuel = PASS_FUEL;
        loop {
            if !region.contains(pc) {
                return Ok(PassOut::ExitedAt { pc, state: m });
            }
            if pc != region.header {
                if let Some(inner) = self.table.region_with_header(pc) {
                    match self.solve(&mut m, inner)? {
                        LoopOut::Exit(p) => {
                            pc = p;
                            continue;
                        }
                        LoopOut::Ret(_) => {
                            return Err(FpAbort::NeedConcrete("return inside abstract loop"));
                        }
                    }
                }
            }
            fuel = fuel
                .checked_sub(1)
                .ok_or(FpAbort::NeedConcrete("abstract pass fuel exhausted"))?;
            // Inside a pass every failure may be an artifact of the widened
            // invariant (an index out of bounds, a zero divisor); only a
            // concrete run can tell.
            let flow = m
                .step(self.prog, self.cx, pc, &mut self.stats, true)
                .map_err(|_| FpAbort::NeedConcrete("abstract step failed"))?;
            match flow {
                Flow::Next => pc += 1,
                Flow::Goto(t) => {
                    if t == region.header {
                        return Ok(PassOut::Back(m));
                    }
                    if t < pc && self.table.region_with_header(t).is_none() {
                        // A decided backward jump that is neither our back
                        // edge nor an inner loop header (defensive; the
                        // structured front end never emits this).
                        return Err(FpAbort::NeedConcrete("unstructured backward jump"));
                    }
                    pc = t;
                }
                Flow::Ret(_) => {
                    return Err(FpAbort::NeedConcrete("return inside abstract loop"));
                }
                Flow::Branch { reg, target } => {
                    let jump_exits = !region.contains(target);
                    let fall_exits = pc == region.back_jump;
                    if !jump_exits && !fall_exits {
                        // Undecided branch fully inside the body: the
                        // plain VM's center decision, counted undecided.
                        let undecided = &mut self.stats.undecided_branches;
                        if m.iregs[reg].read(undecided)? == 0 {
                            pc = target;
                        } else {
                            pc += 1;
                        }
                        continue;
                    }
                    if jump_exits && fall_exits {
                        return Err(FpAbort::NeedConcrete("branch exits both ways"));
                    }
                    // A loop-exit guard: split both paths soundly. The
                    // exit is taken on zero iff the jump is the exit edge.
                    let guard = m.iregs[reg];
                    let (exit_pc, exit_on_zero) = if jump_exits {
                        (target, true)
                    } else {
                        (pc + 1, false)
                    };
                    if let Some(acc) = collect.as_deref_mut() {
                        let mut ex = m.clone();
                        let feasible = match guard {
                            AbsInt::CmpPend { op, a, b, .. } => {
                                self.refine_guard(&mut ex, op, a, b, !exit_on_zero)?
                            }
                            _ => true,
                        };
                        if feasible {
                            ex.iregs[reg] = if exit_on_zero {
                                AbsInt::Known(0)
                            } else {
                                guard_nonzero(guard)
                            };
                            self.join_exit_into(acc, exit_pc, ex)?;
                        }
                    }
                    let body_on_zero = !exit_on_zero;
                    let feasible = match guard {
                        AbsInt::CmpPend { op, a, b, .. } => {
                            self.refine_guard(&mut m, op, a, b, !body_on_zero)?
                        }
                        _ => true,
                    };
                    if !feasible {
                        return Ok(PassOut::Exited);
                    }
                    m.iregs[reg] = if body_on_zero {
                        AbsInt::Known(0)
                    } else {
                        guard_nonzero(guard)
                    };
                    if body_on_zero {
                        if target == region.header {
                            return Ok(PassOut::Back(m));
                        }
                        pc = target;
                    } else {
                        pc += 1;
                    }
                }
            }
        }
    }

    /// Meets the ranges of the guard's float operands with the bounds the
    /// comparison (at the given truth value) implies, rebuilding refined
    /// registers through [`Domain::from_range`]. Returns `false` when the
    /// refined path is infeasible (empty meet).
    fn refine_guard(
        &mut self,
        m: &mut AbsMachine<D>,
        op: CmpOp,
        a: usize,
        b: usize,
        truth: bool,
    ) -> Result<bool, FpAbort> {
        let eff = if truth { op } else { negate(op) };
        let (alo, ahi) = m.fregs[a].range();
        let (blo, bhi) = m.fregs[b].range();
        if alo.is_nan() || ahi.is_nan() || blo.is_nan() || bhi.is_nan() {
            // A poisoned operand: no refinement, but the path stays
            // feasible (NaN compares are unordered).
            return Ok(true);
        }
        let (mut na, mut nb) = ((alo, ahi), (blo, bhi));
        match eff {
            CmpOp::Lt => {
                na.1 = ahi.min(bhi.next_down());
                nb.0 = blo.max(alo.next_up());
            }
            CmpOp::Le => {
                na.1 = ahi.min(bhi);
                nb.0 = blo.max(alo);
            }
            CmpOp::Gt => {
                na.0 = alo.max(blo.next_up());
                nb.1 = bhi.min(ahi.next_down());
            }
            CmpOp::Ge => {
                na.0 = alo.max(blo);
                nb.1 = bhi.min(ahi);
            }
            CmpOp::Eq => {
                let lo = alo.max(blo);
                let hi = ahi.min(bhi);
                na = (lo, hi);
                nb = (lo, hi);
            }
            CmpOp::Ne => {}
        }
        if na.0 > na.1 || nb.0 > nb.1 {
            return Ok(false);
        }
        if na != (alo, ahi) {
            m.fregs[a] = self.hull_value(na.0, na.1)?;
        }
        if nb != (blo, bhi) {
            m.fregs[b] = self.hull_value(nb.0, nb.1)?;
        }
        Ok(true)
    }

    /// Accumulates one exit state. All exits of a loop must share a
    /// single static continuation pc (true for structured `while`/`for`);
    /// anything else bails to concrete execution.
    fn join_exit_into(
        &mut self,
        acc: &mut Option<(usize, AbsMachine<D>)>,
        pc: usize,
        state: AbsMachine<D>,
    ) -> Result<(), FpAbort> {
        match acc {
            None => {
                *acc = Some((pc, state));
                Ok(())
            }
            Some((p, s)) => {
                if *p != pc {
                    return Err(FpAbort::NeedConcrete("multiple loop exit targets"));
                }
                *s = self.join_states(s, &state)?;
                Ok(())
            }
        }
    }

    /// Pointwise join of two machine states. Every float slot is rebuilt
    /// from the union hull via [`Domain::from_range`] — keeping one
    /// path's correlated affine form at a join would misrepresent the
    /// other path's executions.
    fn join_states(&self, a: &AbsMachine<D>, b: &AbsMachine<D>) -> Result<AbsMachine<D>, FpAbort> {
        let mut out = a.clone();
        for (i, slot) in out.fregs.iter_mut().enumerate() {
            let (alo, ahi) = hull_of(&a.fregs[i]);
            let (blo, bhi) = hull_of(&b.fregs[i]);
            *slot = self.hull_value(alo.min(blo), ahi.max(bhi))?;
        }
        for (i, slot) in out.iregs.iter_mut().enumerate() {
            *slot = match (a.iregs[i], b.iregs[i]) {
                (AbsInt::Known(x), AbsInt::Known(y)) if x == y => AbsInt::Known(x),
                _ => AbsInt::Top,
            };
        }
        for (ai, arr) in out.arrays.iter_mut().enumerate() {
            for (i, slot) in arr.iter_mut().enumerate() {
                let (alo, ahi) = hull_of(&a.arrays[ai][i]);
                let (blo, bhi) = hull_of(&b.arrays[ai][i]);
                *slot = self.hull_value(alo.min(blo), ahi.max(bhi))?;
            }
        }
        Ok(out)
    }

    /// Reads the invariant's hulls out of a machine state (the written
    /// components only).
    fn hulls_of(&self, m: &AbsMachine<D>, w: &Written) -> Inv {
        Inv {
            f: w.fregs.iter().map(|&r| hull_of(&m.fregs[r])).collect(),
            i: w.iregs
                .iter()
                .map(|&r| match m.iregs[r] {
                    AbsInt::Known(v) => Some(v),
                    _ => None,
                })
                .collect(),
            a: w.arrays
                .iter()
                .map(|&ai| m.arrays[ai].iter().map(hull_of).collect())
                .collect(),
        }
    }

    /// Builds the abstract state at the loop header: the entry snapshot
    /// with every written component replaced by its invariant hull
    /// (unwritten registers keep their correlated entry forms).
    fn materialize(
        &self,
        snapshot: &AbsMachine<D>,
        inv: &Inv,
        w: &Written,
    ) -> Result<AbsMachine<D>, FpAbort> {
        let mut m = snapshot.clone();
        for (k, &r) in w.fregs.iter().enumerate() {
            let (lo, hi) = inv.f[k];
            m.fregs[r] = self.hull_value(lo, hi)?;
        }
        for (k, &r) in w.iregs.iter().enumerate() {
            m.iregs[r] = match inv.i[k] {
                Some(v) => AbsInt::Known(v),
                None => AbsInt::Top,
            };
        }
        for (k, &ai) in w.arrays.iter().enumerate() {
            for (j, slot) in m.arrays[ai].iter_mut().enumerate() {
                let (lo, hi) = inv.a[k][j];
                *slot = self.hull_value(lo, hi)?;
            }
        }
        Ok(m)
    }

    /// The unique pc execution continues at after the loop, from the
    /// static jump structure alone (for the vacuous exit of a loop that
    /// provably never terminates). `None` when the loop has no exit edge
    /// or several distinct ones.
    fn static_exit_target(&self, region: LoopRegion) -> Option<usize> {
        let mut outs: Vec<usize> = Vec::new();
        for pc in region.header..=region.back_jump {
            if let Some(t) = self.prog.code[pc].target() {
                if !region.contains(t) && !outs.contains(&t) {
                    outs.push(t);
                }
            }
        }
        if self.prog.code[region.back_jump].op == OpCode::JumpIfZero {
            let t = region.back_jump + 1;
            if !outs.contains(&t) {
                outs.push(t);
            }
        }
        match outs[..] {
            [t] => Some(t),
            _ => None,
        }
    }
}

/// The interval hull of a domain value, NaN-cleaned.
fn hull_of<D: Domain>(d: &D) -> (f64, f64) {
    let (lo, hi) = d.range();
    clean_hull(lo, hi)
}

/// A consumed loop-exit guard on the nonzero path: a pending comparison
/// is pinned to 1; `Top` stays `Top` (we learn nothing new).
fn guard_nonzero(g: AbsInt) -> AbsInt {
    match g {
        AbsInt::CmpPend { .. } => AbsInt::Known(1),
        other => other,
    }
}

/// Widens one hull toward `next` on the round schedule: plain join while
/// `round ≤ WIDEN_DELAY`, power-of-two threshold ladder for the next
/// `THRESHOLD_ROUNDS`, then ±∞. Returns 1 when a widening (not a plain
/// join) was applied.
fn widen_hull(cur: &mut (f64, f64), next: (f64, f64), round: u32) -> u64 {
    let grew_lo = next.0 < cur.0;
    let grew_hi = next.1 > cur.1;
    if !grew_lo && !grew_hi {
        return 0;
    }
    if round <= WIDEN_DELAY {
        cur.0 = cur.0.min(next.0);
        cur.1 = cur.1.max(next.1);
        return 0;
    }
    if round <= WIDEN_DELAY + THRESHOLD_ROUNDS {
        if grew_lo {
            cur.0 = ladder_lo(next.0);
        }
        if grew_hi {
            cur.1 = ladder_hi(next.1);
        }
        return 1;
    }
    if grew_lo {
        cur.0 = f64::NEG_INFINITY;
    }
    if grew_hi {
        cur.1 = f64::INFINITY;
    }
    1
}

impl Inv {
    /// `self ⊑ other`, pointwise.
    fn contained_in(&self, other: &Inv) -> bool {
        let hull_ok = |a: &(f64, f64), b: &(f64, f64)| b.0 <= a.0 && a.1 <= b.1;
        self.f.iter().zip(&other.f).all(|(a, b)| hull_ok(a, b))
            && self.i.iter().zip(&other.i).all(|(a, b)| match (a, b) {
                (_, None) => true,
                (Some(x), Some(y)) => x == y,
                (None, Some(_)) => false,
            })
            && self
                .a
                .iter()
                .zip(&other.a)
                .all(|(xs, ys)| xs.iter().zip(ys).all(|(a, b)| hull_ok(a, b)))
    }

    /// Pointwise join (no widening) — the narrowing candidate builder.
    fn join_plain(&mut self, other: &Inv) {
        for (a, b) in self.f.iter_mut().zip(&other.f) {
            a.0 = a.0.min(b.0);
            a.1 = a.1.max(b.1);
        }
        for (a, b) in self.i.iter_mut().zip(&other.i) {
            if *a != *b {
                *a = None;
            }
        }
        for (xs, ys) in self.a.iter_mut().zip(&other.a) {
            for (a, b) in xs.iter_mut().zip(ys) {
                a.0 = a.0.min(b.0);
                a.1 = a.1.max(b.1);
            }
        }
    }

    /// Join-with-widening on the round schedule. Returns the number of
    /// hulls that were widened (beyond a plain join).
    fn join_widen(&mut self, next: &Inv, round: u32) -> u64 {
        let mut count = 0u64;
        for (a, b) in self.f.iter_mut().zip(&next.f) {
            count += widen_hull(a, *b, round);
        }
        for (a, b) in self.i.iter_mut().zip(&next.i) {
            if *a != *b {
                *a = None;
            }
        }
        for (xs, ys) in self.a.iter_mut().zip(&next.a) {
            for (a, b) in xs.iter_mut().zip(ys) {
                count += widen_hull(a, *b, round);
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::UnsoundF64;
    use crate::program::compile_program;
    use safegen_affine::{AaConfig, AaContext, AffineF64};
    use safegen_cfront::{analyze, parse};
    use safegen_interval::IntervalF64;

    fn compile(src: &str) -> Program {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let tac = safegen_ir::to_tac(&unit, &sema);
        let sema2 = analyze(&tac).unwrap();
        compile_program(&tac.functions[0], &sema2).unwrap()
    }

    #[test]
    fn ladder_snaps_outward() {
        assert_eq!(snap_up_pow2(0.9), 1.0);
        assert_eq!(snap_up_pow2(1.0), 1.0);
        assert_eq!(snap_up_pow2(1.5), 2.0);
        assert_eq!(snap_down_pow2(0.9), 0.5);
        assert_eq!(snap_up_pow2(f64::MIN_POSITIVE / 2.0), f64::MIN_POSITIVE);
        assert_eq!(snap_up_pow2(f64::MAX), f64::INFINITY);
        // hi endpoints move up, lo endpoints move down, on both signs
        assert!(ladder_hi(3.7) >= 3.7);
        assert!(ladder_hi(-0.3) >= -0.3);
        assert!(ladder_lo(-3.7) <= -3.7);
        assert!(ladder_lo(0.3) <= 0.3);
        assert_eq!(ladder_lo(0.3), 0.25);
        assert_eq!(ladder_hi(-0.3), -0.25);
    }

    /// A grid of exactly-representable edge magnitudes: zero, the
    /// smallest subnormal, the subnormal/normal boundary, ordinary
    /// values, and the overflow frontier. Every value is a dyadic
    /// rational, so containment is checked *exactly* through
    /// `safegen_rational` rather than in rounded `f64`.
    fn edge_grid() -> Vec<f64> {
        let mags = [
            0.0,
            f64::from_bits(1),             // min subnormal
            f64::MIN_POSITIVE.next_down(), // max subnormal
            f64::MIN_POSITIVE,
            1.0,
            1.0f64.next_up(),
            f64::MAX.next_down(),
            f64::MAX,
        ];
        let mut grid: Vec<f64> = mags.into_iter().flat_map(|m| [m, -m]).collect();
        grid.sort_by(|a, b| a.partial_cmp(b).unwrap());
        grid.dedup_by(|a, b| a.to_bits() == b.to_bits());
        grid
    }

    #[test]
    fn widen_hull_dominates_join_across_the_edge_grid() {
        use safegen_rational::Rational;
        let grid = edge_grid();
        let exact: Vec<Rational> = grid
            .iter()
            .map(|&g| Rational::from_f64(g).unwrap())
            .collect();
        let hulls: Vec<(f64, f64)> = grid
            .iter()
            .enumerate()
            .flat_map(|(i, &lo)| grid[i..].iter().map(move |&hi| (lo, hi)))
            .collect();
        // One round from each phase of the schedule: plain join, ladder,
        // and the jump to ±∞.
        let join_round = WIDEN_DELAY;
        let ladder_round = WIDEN_DELAY + 1;
        let infinity_round = WIDEN_DELAY + THRESHOLD_ROUNDS + 1;
        for &cur in &hulls {
            for &next in &hulls {
                let joined = (cur.0.min(next.0), cur.1.max(next.1));
                let widen = |round| {
                    let mut w = cur;
                    widen_hull(&mut w, next, round);
                    w
                };
                let (plain, laddered, infinite) = (
                    widen(join_round),
                    widen(ladder_round),
                    widen(infinity_round),
                );
                assert_eq!(plain, joined, "{cur:?} ⊔ {next:?}");
                for (g, r) in grid.iter().zip(&exact) {
                    if r.in_range(joined.0, joined.1) {
                        for (w, phase) in [(laddered, "ladder"), (infinite, "infinity")] {
                            assert!(
                                r.in_range(w.0, w.1),
                                "{phase} round lost {g:e} from {cur:?} ∇ {next:?}: {w:?}"
                            );
                        }
                    }
                }
                // The ladder is never wider than the jump to ±∞.
                assert!(infinite.0 <= laddered.0 && laddered.1 <= infinite.1);
            }
        }
    }

    #[test]
    fn widen_hull_chains_stabilize() {
        // Against sequences that grow every round, the schedule must reach
        // a hull no next state escapes within `THRESHOLD_ROUNDS + 2`
        // widening rounds: each ladder round at least doubles a growing
        // magnitude, and the round after the ladder jumps to ±∞.
        type Hull = (f64, f64);
        let creeps: [fn(Hull) -> Hull; 2] = [
            |(lo, hi)| (lo * 1.5 - 0.1, hi * 1.5 + 0.1),
            |(lo, hi)| (lo.next_down(), hi.next_up()),
        ];
        for creep in creeps {
            let mut inv = (-0.5, 0.5);
            let mut stable_at = None;
            for round in 1..=MAX_ITERS {
                let before = inv;
                let next = creep(inv);
                let widened = widen_hull(&mut inv, next, round);
                assert_eq!(widened == 1, round > WIDEN_DELAY && inv != before);
                if inv == before {
                    stable_at = Some(round);
                    break;
                }
            }
            let stable_at = stable_at.expect("widening chain never stabilized");
            assert!(
                stable_at - WIDEN_DELAY <= THRESHOLD_ROUNDS + 2,
                "stable only at round {stable_at}"
            );
            assert_eq!(inv, (f64::NEG_INFINITY, f64::INFINITY));
        }
    }

    #[test]
    fn negative_index_reports_like_exec_under_fixpoint_mode() {
        let p = compile(
            "double f(double a[2], int n) {
                int i = 0;
                while (i < n) { a[0] = a[0] * 0.5; i = i + 1; }
                a[i - 3] = 1.0;
                return a[0];
            }",
        );
        let args = [vec![1.0, 2.0].into(), 2i64.into()];
        let fx = exec_fixpoint::<IntervalF64>(&p, &args, &(), LoopMode::Fixpoint, 16);
        let plain = crate::exec::<IntervalF64>(&p, &args, &());
        let (fx, plain) = (fx.unwrap_err(), plain.unwrap_err());
        assert_eq!(fx.message, plain.message);
        assert_eq!(fx.message, "negative array index");
    }

    #[test]
    fn small_bounded_loop_stays_exact() {
        // Trip count 5 fits the attempt budget: bit-identical to the
        // plain unrolling VM.
        let p = compile(
            "double f(double x, int n) {
                int i = 0;
                while (i < n) { x = x * 0.5; i = i + 1; }
                return x;
            }",
        );
        let budget = 16;
        let args = [8.0.into(), 5i64.into()];
        let fx: RunResult<UnsoundF64> =
            exec_fixpoint(&p, &args, &(), LoopMode::Fixpoint, budget).unwrap();
        let plain: RunResult<UnsoundF64> = crate::exec(&p, &args, &()).unwrap();
        assert_eq!(fx.ret.unwrap().0, plain.ret.unwrap().0);
        assert_eq!(fx.stats.fixpoint_loops, 0);
    }

    #[test]
    fn over_budget_counted_loop_gets_sound_enclosure() {
        // 2^40 iterations of x = 0.9*x + 1 from 1: every concrete value
        // stays in [1, 10); the solver must find a finite-ish enclosure
        // containing all partial sums without running 2^40 steps.
        let p = compile(
            "double f(double x, int n) {
                int i = 0;
                while (i < n) { x = 0.9 * x + 1.0; i = i + 1; }
                return x;
            }",
        );
        let budget = 8;
        let n: i64 = 1 << 40;
        let r: RunResult<IntervalF64> =
            exec_fixpoint(&p, &[1.0.into(), n.into()], &(), LoopMode::Fixpoint, budget).unwrap();
        let iv = r.ret.unwrap();
        assert!(
            r.stats.fixpoint_loops >= 1,
            "loop must be solved abstractly"
        );
        // Sound: contains the limit 10 and every iterate (all in [1, 10)).
        assert!(iv.lo() <= 1.0 && iv.hi() >= 10.0 - 1e-6, "got {iv:?}");
        // Useful: threshold widening keeps it finite and not absurd.
        assert!(iv.hi() <= 64.0, "enclosure uselessly wide: {iv:?}");
        assert!(iv.lo() >= 0.0, "lower bound should not dive: {iv:?}");
    }

    #[test]
    fn float_guard_contraction_converges() {
        // Data-dependent float guard: x halves until it drops below 1.
        // Unrolling cannot decide the guard soundly (enclosures overlap
        // at the boundary); the fixpoint result must contain the exact
        // exit value 0.5..1 band.
        let p = compile(
            "double f(double x) {
                while (x > 1.0) { x = x * 0.5; }
                return x;
            }",
        );
        let budget = 0; // force the abstract solver
        let r: RunResult<IntervalF64> =
            exec_fixpoint(&p, &[8.0.into()], &(), LoopMode::Fixpoint, budget).unwrap();
        let iv = r.ret.unwrap();
        assert!(r.stats.fixpoint_loops >= 1);
        // Exact execution exits with 0.5; the exit refinement bounds the
        // result by the negated guard (x <= 1).
        assert!(iv.lo() <= 0.5 && iv.hi() >= 0.5, "got {iv:?}");
        assert!(iv.hi() <= 1.0 + 1e-12, "exit guard not applied: {iv:?}");
    }

    #[test]
    fn divergent_loop_terminates_with_sound_infinity() {
        // x doubles forever: unrolling spins until fuel death; the
        // fixpoint engine must terminate and report a sound enclosure
        // reaching +inf.
        let p = compile(
            "double f(double x) {
                while (x > 0.0) { x = x * 2.0; }
                return x;
            }",
        );
        let budget = 4;
        let r: RunResult<IntervalF64> =
            exec_fixpoint(&p, &[1.0.into()], &(), LoopMode::Fixpoint, budget).unwrap();
        let iv = r.ret.unwrap();
        assert!(r.stats.fixpoint_loops >= 1);
        assert!(r.stats.widenings >= 1, "divergence must widen");
        assert_eq!(iv.hi(), f64::INFINITY, "got {iv:?}");
    }

    #[test]
    fn affine_domain_solves_loops_too() {
        let p = compile(
            "double f(double x, int n) {
                int i = 0;
                while (i < n) { x = 0.9 * x + 1.0; i = i + 1; }
                return x;
            }",
        );
        let ctx = AaContext::new(AaConfig::default());
        let budget = 8;
        let n: i64 = 1 << 40;
        let r: RunResult<AffineF64> = exec_fixpoint(
            &p,
            &[1.0.into(), n.into()],
            &ctx,
            LoopMode::Fixpoint,
            budget,
        )
        .unwrap();
        let (lo, hi) = r.ret.unwrap().range();
        assert!(r.stats.fixpoint_loops >= 1);
        assert!(lo <= 1.0 && hi >= 10.0 - 1e-6, "got [{lo}, {hi}]");
        assert!(hi.is_finite(), "affine enclosure should stay finite");
    }

    #[test]
    fn unroll_mode_is_bit_identical_to_plain_exec() {
        let p = compile(
            "double f(double x, int n) {
                int i = 0;
                while (i < n) { x = x + 0.1; i = i + 1; }
                return x;
            }",
        );
        let args = [0.0.into(), 100i64.into()];
        let budget = ATTEMPT_BUDGET;
        let fx: RunResult<IntervalF64> =
            exec_fixpoint(&p, &args, &(), LoopMode::Unroll, budget).unwrap();
        let plain: RunResult<IntervalF64> = crate::exec(&p, &args, &()).unwrap();
        assert_eq!(fx.ret.unwrap(), plain.ret.unwrap());
        assert_eq!(fx.stats, plain.stats);
    }

    #[test]
    fn loop_free_program_is_unaffected_by_mode() {
        let p = compile("double f(double a, double b) { return a * b + 0.1; }");
        let budget = ATTEMPT_BUDGET;
        let fx: RunResult<IntervalF64> = exec_fixpoint(
            &p,
            &[0.5.into(), 0.25.into()],
            &(),
            LoopMode::Fixpoint,
            budget,
        )
        .unwrap();
        let plain: RunResult<IntervalF64> =
            crate::exec(&p, &[0.5.into(), 0.25.into()], &()).unwrap();
        assert_eq!(fx.ret.unwrap(), plain.ret.unwrap());
    }

    #[test]
    fn nested_loops_solve() {
        // Outer loop over-budget, inner loop small and concrete per pass.
        let p = compile(
            "double f(double x, int n) {
                int i = 0;
                while (i < n) {
                    int j = 0;
                    while (j < 3) { x = 0.5 * x; j = j + 1; }
                    x = x + 1.0;
                    i = i + 1;
                }
                return x;
            }",
        );
        let budget = 4;
        let n: i64 = 1 << 40;
        let r: RunResult<IntervalF64> =
            exec_fixpoint(&p, &[1.0.into(), n.into()], &(), LoopMode::Fixpoint, budget).unwrap();
        let iv = r.ret.unwrap();
        // Iterates stay within [0, 2]: x -> x/8 + 1 has fixpoint 8/7.
        assert!(
            iv.lo() <= 1.0 / 8.0 + 1.0 && iv.hi() >= 8.0 / 7.0 - 1e-6,
            "got {iv:?}"
        );
        assert!(iv.hi() <= 16.0, "uselessly wide: {iv:?}");
    }

    #[test]
    fn array_accumulation_loop_is_enclosed() {
        let p = compile(
            "double f(double a[4], int n) {
                double s = 0.0;
                int i = 0;
                while (i < n) { s = s + a[0] * 0.25; i = i + 1; }
                return s;
            }",
        );
        let budget = 4;
        let n: i64 = 1 << 40;
        let r: RunResult<IntervalF64> = exec_fixpoint(
            &p,
            &[vec![1.0, 2.0, 3.0, 4.0].into(), n.into()],
            &(),
            LoopMode::Fixpoint,
            budget,
        )
        .unwrap();
        let iv = r.ret.unwrap();
        // Diverges (adds 0.25 forever): must be sound, reaching +inf.
        assert!(iv.lo() <= 0.0 && iv.hi() == f64::INFINITY, "got {iv:?}");
    }
}
