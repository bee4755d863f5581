//! The domain-generic virtual machine.
//!
//! Executes a compiled [`Program`] under any numeric [`Domain`]. The same
//! bytecode therefore yields the unsound original result, sound interval
//! enclosures, or sound affine enclosures under every SafeGen
//! configuration — the apples-to-apples setup of the paper's evaluation.

use crate::domain::{Domain, FpBinOp, FpUnOp};
use crate::program::{CmpOp, FixedInstr, OpCode, ParamBinding, Program};
use safegen_ir::PRAGMA_CAPACITY;
use std::fmt;

/// An argument passed to [`exec`].
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Scalar floating-point input (becomes `x ± 1 ulp`).
    Float(f64),
    /// Integer input (sizes, iteration counts).
    Int(i64),
    /// Floating-point array input.
    Array(Vec<f64>),
}

impl From<f64> for ArgValue {
    fn from(x: f64) -> ArgValue {
        ArgValue::Float(x)
    }
}

impl From<i64> for ArgValue {
    fn from(x: i64) -> ArgValue {
        ArgValue::Int(x)
    }
}

impl From<Vec<f64>> for ArgValue {
    fn from(x: Vec<f64>) -> ArgValue {
        ArgValue::Array(x)
    }
}

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Floating-point (domain) operations executed.
    pub fp_ops: u64,
    /// Instructions executed in total.
    pub instrs: u64,
    /// Floating-point comparisons whose sound enclosures overlapped and
    /// were decided by central values (see DESIGN.md §4.5).
    pub undecided_branches: u64,
    /// Budget-overflow fusion events during this run (sorted placement;
    /// 0 for non-affine domains). Deterministic per input and config.
    pub fusions: u64,
    /// Slot-conflict condensations during this run (direct-mapped
    /// placement; 0 for non-affine domains). Deterministic per input
    /// and config.
    pub condensations: u64,
    /// Loops solved abstractly by the fixpoint engine this run (0 under
    /// unroll mode and for loop-free programs).
    pub fixpoint_loops: u64,
    /// Abstract loop-body passes executed across all fixpoint solves.
    pub fixpoint_iters: u64,
    /// Widening applications (one per loop-carried variable whose hull
    /// was extrapolated in a widening round).
    pub widenings: u64,
    /// Accepted narrowing refinements (one per verified candidate that
    /// tightened the invariant).
    pub narrowings: u64,
}

/// Where a traced symbol allocation happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceSite {
    /// Binding of the `i`-th program parameter (input uncertainty).
    Param(usize),
    /// The instruction at this `pc` (its round-off noise, and any fused
    /// or condensed symbols it absorbed).
    Instr(usize),
}

/// Observes symbol allocations during a run. The VM is generic over the
/// tracer and [`NoTrace`] has `ACTIVE = false`, so the tracing hooks
/// compile out entirely on the default [`exec`] path — tracing is
/// zero-cost unless the traced mode (`exec_traced`) is used.
pub trait ExecTracer {
    /// Whether the hooks are live; `false` lets the optimizer delete them.
    const ACTIVE: bool;
    /// Symbols `first..last` were allocated at `site`.
    fn record(&mut self, site: TraceSite, first: u64, last: u64);
}

/// The inert tracer behind [`exec`].
pub struct NoTrace;

impl ExecTracer for NoTrace {
    const ACTIVE: bool = false;
    #[inline(always)]
    fn record(&mut self, _: TraceSite, _: u64, _: u64) {}
}

/// Records every symbol-id range with its allocation site, in allocation
/// order (so ranges are sorted and disjoint — symbol ids are monotone).
#[derive(Clone, Debug, Default)]
pub(crate) struct SymbolTrace {
    /// `(site, first id, one past last id)` per allocating step.
    pub allocs: Vec<(TraceSite, u64, u64)>,
}

impl SymbolTrace {
    /// The site that allocated symbol `id`, if any.
    pub fn site_of(&self, id: u64) -> Option<TraceSite> {
        let i = self.allocs.partition_point(|&(_, first, _)| first <= id);
        let (site, first, last) = *self.allocs.get(i.checked_sub(1)?)?;
        (first <= id && id < last).then_some(site)
    }
}

impl ExecTracer for SymbolTrace {
    const ACTIVE: bool = true;
    fn record(&mut self, site: TraceSite, first: u64, last: u64) {
        self.allocs.push((site, first, last));
    }
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct RunResult<D> {
    /// Returned value, if the function returns one.
    pub ret: Option<D>,
    /// Final contents of every array parameter (out-parameters), in
    /// program parameter order: `(name, values)`.
    pub arrays: Vec<(String, Vec<D>)>,
    /// Execution statistics.
    pub stats: RunStats,
}

/// Errors during execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExecError {
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ExecError {}

pub(crate) fn err(message: impl Into<String>) -> ExecError {
    ExecError {
        message: message.into(),
    }
}

/// Upper bound on executed instructions (runaway-loop guard).
pub(crate) const FUEL: u64 = 2_000_000_000;

/// Executes `prog` under domain `D`.
///
/// `args` must match the program's parameters in order and kind. Array
/// arguments determine the size of unsized (pointer) parameters.
///
/// # Errors
///
/// Returns [`ExecError`] on argument mismatch, out-of-bounds array access,
/// or fuel exhaustion.
pub fn exec<D: Domain>(
    prog: &Program,
    args: &[ArgValue],
    cx: &D::Ctx,
) -> Result<RunResult<D>, ExecError> {
    exec_inner(prog, args, cx, &mut NoTrace)
}

/// Executes `prog` like [`exec`] while recording, per parameter binding
/// and per executed instruction, the range of error-symbol ids it
/// allocated — the raw data of the error-provenance profiler
/// (`safegen::profile`).
///
/// # Errors
///
/// Same conditions as [`exec`].
pub(crate) fn exec_traced<D: Domain>(
    prog: &Program,
    args: &[ArgValue],
    cx: &D::Ctx,
) -> Result<(RunResult<D>, SymbolTrace), ExecError> {
    let mut trace = SymbolTrace::default();
    let result = exec_inner(prog, args, cx, &mut trace)?;
    Ok((result, trace))
}

/// Checks `args` against the parameters of `prog` in declaration order:
/// count, kind, and the length of every sized array. This is the only
/// argument check of every interpreter (scalar, lanes, fixpoint), so they
/// all report the same error for the same bad call.
pub(crate) fn validate_args(prog: &Program, args: &[ArgValue]) -> Result<(), ExecError> {
    if args.len() != prog.params.len() {
        return Err(err(format!(
            "{} arguments provided, {} expected",
            args.len(),
            prog.params.len()
        )));
    }
    for ((name, binding), arg) in prog.params.iter().zip(args) {
        match (binding, arg) {
            (ParamBinding::Float(_), ArgValue::Float(_))
            | (ParamBinding::Int(_), ArgValue::Int(_)) => {}
            (ParamBinding::Array(a), ArgValue::Array(xs)) => {
                let decl = &prog.arrays[*a as usize];
                if decl.len != 0 && decl.len != xs.len() {
                    return Err(err(format!(
                        "array `{name}` expects {} elements, got {}",
                        decl.len,
                        xs.len()
                    )));
                }
            }
            (b, a) => {
                return Err(err(format!("argument `{name}`: expected {b:?}, got {a:?}")));
            }
        }
    }
    Ok(())
}

/// One parameter bound to its argument: the target register or array
/// index with the argument's payload.
pub(crate) enum Bind<'a> {
    /// Float register and input value.
    Float(usize, f64),
    /// Integer register and value.
    Int(usize, i64),
    /// Array index and input values.
    Array(usize, &'a [f64]),
}

/// Pairs one parameter with its argument. The arguments must have passed
/// [`validate_args`]; binding itself checks nothing.
#[inline]
pub(crate) fn bind<'a>(param: &ParamBinding, arg: &'a ArgValue) -> Bind<'a> {
    match (param, arg) {
        (ParamBinding::Float(r), ArgValue::Float(x)) => Bind::Float(*r as usize, *x),
        (ParamBinding::Int(r), ArgValue::Int(v)) => Bind::Int(*r as usize, *v),
        (ParamBinding::Array(a), ArgValue::Array(xs)) => Bind::Array(*a as usize, xs),
        _ => unreachable!("arguments are checked by validate_args"),
    }
}

/// Checks index `i` into array `name` of length `len`: the one bounds
/// check of every interpreter (scalar, lanes, fixpoint), so they all
/// report the same error for the same bad access.
#[inline]
pub(crate) fn array_index(i: i64, len: usize, name: &str) -> Result<usize, ExecError> {
    match usize::try_from(i) {
        Ok(iu) if iu < len => Ok(iu),
        Ok(_) => Err(err(format!(
            "index {i} out of bounds for `{name}` (len {len})"
        ))),
        Err(_) => Err(err("negative array index")),
    }
}

/// The array out-parameters of a run in parameter order, `(name,
/// values)`; `values(a)` yields the final contents of array `a`.
pub(crate) fn array_outs<D>(
    prog: &Program,
    mut values: impl FnMut(usize) -> Vec<D>,
) -> Vec<(String, Vec<D>)> {
    prog.params
        .iter()
        .filter_map(|(name, binding)| match binding {
            ParamBinding::Array(a) => Some((name.clone(), values(*a as usize))),
            _ => None,
        })
        .collect()
}

/// The sound float-comparison decision of every interpreter: `Some` when
/// the enclosures decide `x op y` for every value they contain, `None`
/// when they overlap (the unstable-test case).
#[inline(always)]
pub(crate) fn cmp_f_sound<D: Domain>(op: CmpOp, x: &D, y: &D) -> Option<bool> {
    match op {
        CmpOp::Lt => x.try_lt(y),
        CmpOp::Gt => y.try_lt(x),
        CmpOp::Le => y.try_lt(x).map(|b| !b),
        CmpOp::Ge => x.try_lt(y).map(|b| !b),
        CmpOp::Eq | CmpOp::Ne => {
            let (xlo, xhi) = x.range();
            let (ylo, yhi) = y.range();
            if xhi < ylo || yhi < xlo {
                Some(op == CmpOp::Ne)
            } else if xlo == xhi && ylo == yhi && xlo == ylo {
                Some(op == CmpOp::Eq)
            } else {
                None
            }
        }
    }
}

/// [`cmp_f_sound`], with an undecided comparison following the central
/// values and counted in `undecided` (DESIGN.md §4.5).
#[inline(always)]
pub(crate) fn cmp_f<D: Domain>(op: CmpOp, x: &D, y: &D, undecided: &mut u64) -> bool {
    cmp_f_sound(op, x, y).unwrap_or_else(|| {
        *undecided += 1;
        op.eval(x.center(), y.center())
    })
}

/// The value type of the integer registers. Concrete runs use `i64`,
/// whose reads never fail and whose float comparisons decide at once
/// (center-decided when the enclosures overlap); the fixpoint engine
/// uses its abstract integer, whose reads fail on a widened value and
/// whose undecided comparisons stay pending until something reads them.
pub(crate) trait IntReg: Copy {
    /// Why a step failed; every runtime error converts into it.
    type Abort: From<ExecError>;
    /// A known value.
    fn known(v: i64) -> Self;
    /// The register as a concrete integer. A read that decides a pending
    /// comparison counts it in `undecided`.
    fn read(&mut self, undecided: &mut u64) -> Result<i64, Self::Abort>;
    /// `f` of registers `a` and `b`.
    fn bin(
        regs: &mut [Self],
        a: usize,
        b: usize,
        f: impl Fn(i64, i64) -> i64,
        undecided: &mut u64,
    ) -> Result<Self, Self::Abort>;
    /// The result of `x op y`, read from float registers `a` and `b`.
    fn cmp_f<D: Domain>(op: CmpOp, x: &D, y: &D, a: usize, b: usize, undecided: &mut u64) -> Self;
    /// The value, when it decides a branch; `None` leaves the split to
    /// the caller.
    fn decided(self) -> Option<i64>;
}

impl IntReg for i64 {
    type Abort = ExecError;

    #[inline(always)]
    fn known(v: i64) -> i64 {
        v
    }

    #[inline(always)]
    fn read(&mut self, _: &mut u64) -> Result<i64, ExecError> {
        Ok(*self)
    }

    #[inline(always)]
    fn bin(
        regs: &mut [i64],
        a: usize,
        b: usize,
        f: impl Fn(i64, i64) -> i64,
        _: &mut u64,
    ) -> Result<i64, ExecError> {
        Ok(f(regs[a], regs[b]))
    }

    #[inline(always)]
    fn cmp_f<D: Domain>(op: CmpOp, x: &D, y: &D, _: usize, _: usize, undecided: &mut u64) -> i64 {
        i64::from(cmp_f(op, x, y, undecided))
    }

    #[inline(always)]
    fn decided(self) -> Option<i64> {
        Some(self)
    }
}

/// Control flow after one [`Machine::step`].
pub(crate) enum Flow<D> {
    /// Continue at `pc + 1`.
    Next,
    /// Continue at this pc.
    Goto(usize),
    /// The function returned this value.
    Ret(Option<D>),
    /// A `JumpIfZero` whose condition register does not decide it.
    Branch { reg: usize, target: usize },
}

/// The state a run mutates: registers and arrays.
/// The scalar VM and the fixpoint engine share it and its [`Machine::step`];
/// they differ only in the integer-register type `I`.
#[derive(Clone)]
pub(crate) struct Machine<D, I> {
    pub fregs: Vec<D>,
    pub iregs: Vec<I>,
    pub arrays: Vec<Vec<D>>,
    /// Scratch for the ids an operation carrying `prioritize` protects.
    protect: Vec<u64>,
    /// Every FP result is computed into `spare` and swapped into its
    /// destination register, so the destination may alias an operand and
    /// the old value's storage becomes the next result's.
    spare: D,
    /// The context's fusion counters before binding: run stats report
    /// per-run deltas even when the caller reuses one context.
    counters_at_entry: (u64, u64),
}

impl<D: Domain, I: IntReg> Machine<D, I> {
    /// A fresh machine with `args` bound to the parameters of `prog`.
    /// `tracer` sees the symbols each parameter allocates.
    pub(crate) fn bind<T: ExecTracer>(
        prog: &Program,
        args: &[ArgValue],
        cx: &D::Ctx,
        tracer: &mut T,
    ) -> Result<Self, ExecError> {
        validate_args(prog, args)?;
        let zero = D::constant(0.0, cx);
        let mut m = Machine {
            spare: zero.clone(),
            fregs: vec![zero; prog.n_fregs.max(1)],
            iregs: vec![I::known(0); prog.n_iregs.max(1)],
            arrays: prog
                .arrays
                .iter()
                .map(|a| vec![D::constant(0.0, cx); a.len])
                .collect(),
            protect: Vec::new(),
            counters_at_entry: D::fusion_counters(cx),
        };
        for (index, ((_, param), arg)) in prog.params.iter().zip(args).enumerate() {
            let syms_before = if T::ACTIVE {
                D::symbols_allocated(cx)
            } else {
                0
            };
            match bind(param, arg) {
                Bind::Float(r, x) => D::from_input_into(x, cx, &mut m.fregs[r]),
                Bind::Int(r, v) => m.iregs[r] = I::known(v),
                Bind::Array(a, xs) => {
                    // An unsized (pointer) array takes its length from the
                    // argument.
                    m.arrays[a].resize_with(xs.len(), || m.spare.clone());
                    for (v, &x) in m.arrays[a].iter_mut().zip(xs) {
                        D::from_input_into(x, cx, v);
                    }
                }
            }
            if T::ACTIVE {
                let syms_after = D::symbols_allocated(cx);
                if syms_after > syms_before {
                    tracer.record(TraceSite::Param(index), syms_before, syms_after);
                }
            }
        }
        Ok(m)
    }

    /// Executes the instruction at `pc` — the one definition of what a
    /// stored [`FixedInstr`](crate::program::FixedInstr) does. Counts it
    /// in `stats.instrs`, its domain operation in `stats.fp_ops`, and a
    /// center-decided comparison in `stats.undecided_branches`.
    ///
    /// `in_pass` marks a fixpoint pass over a widened invariant, where
    /// casting a non-point float to an integer fails instead of
    /// truncating the center (that would fabricate an integer).
    #[inline(always)]
    pub(crate) fn step(
        &mut self,
        prog: &Program,
        cx: &D::Ctx,
        pc: usize,
        stats: &mut RunStats,
        in_pass: bool,
    ) -> Result<Flow<D>, I::Abort> {
        stats.instrs += 1;
        let undecided = &mut stats.undecided_branches;
        let ins = prog.code[pc];
        let (d, a, b) = (usize::from(ins.dst), usize::from(ins.a), usize::from(ins.b));

        // `$op` applied through `$into` to source registers `$src` into
        // register `d`, under the pragma the record carries.
        macro_rules! fp_op {
            ($into:ident, $op:expr, [$($src:expr),+]) => {{
                let p: &[u64] = if ins.aux == 0 {
                    &[]
                } else {
                    self.pragma_on(&ins, cx);
                    &self.protect
                };
                D::$into($op, $(&self.fregs[$src],)+ cx, p, &mut self.spare);
                if ins.aux & PRAGMA_CAPACITY != 0 {
                    D::reset_capacity(cx);
                }
                std::mem::swap(&mut self.fregs[d], &mut self.spare);
                stats.fp_ops += 1;
            }};
        }
        // `i[d] = f(i[a], i[b])`.
        macro_rules! int_op {
            ($f:expr) => {
                self.iregs[d] = I::bin(&mut self.iregs, a, b, $f, undecided)?
            };
        }

        let mut flow = Flow::Next;
        match ins.op {
            OpCode::Add => fp_op!(bin_into, FpBinOp::Add, [a, b]),
            OpCode::Sub => fp_op!(bin_into, FpBinOp::Sub, [a, b]),
            OpCode::Mul => fp_op!(bin_into, FpBinOp::Mul, [a, b]),
            OpCode::Div => fp_op!(bin_into, FpBinOp::Div, [a, b]),
            OpCode::Sqrt => fp_op!(un_into, FpUnOp::Sqrt, [a]),
            OpCode::Abs => fp_op!(un_into, FpUnOp::Abs, [a]),
            OpCode::Neg => fp_op!(un_into, FpUnOp::Neg, [a]),
            OpCode::Min => fp_op!(bin_into, FpBinOp::Min, [a, b]),
            OpCode::Max => fp_op!(bin_into, FpBinOp::Max, [a, b]),
            OpCode::ConstF => {
                D::constant_into(prog.fpool[ins.imm as usize], cx, &mut self.fregs[d]);
            }
            OpCode::MovF => {
                self.spare.clone_from(&self.fregs[a]);
                std::mem::swap(&mut self.fregs[d], &mut self.spare);
            }
            OpCode::CastIF => {
                let v = self.iregs[a].read(undecided)?;
                D::constant_into(v as f64, cx, &mut self.fregs[d]);
            }
            OpCode::LoadArr => {
                let i = self.iregs[b].read(undecided)?;
                let arr = &self.arrays[a];
                let i = array_index(i, arr.len(), &prog.arrays[a].name)?;
                self.fregs[d].clone_from(&arr[i]);
            }
            OpCode::StoreArr => {
                let i = self.iregs[a].read(undecided)?;
                let arr = &mut self.arrays[d];
                let i = array_index(i, arr.len(), &prog.arrays[d].name)?;
                arr[i].clone_from(&self.fregs[b]);
            }
            OpCode::ConstI => self.iregs[d] = I::known(prog.ipool[ins.imm as usize]),
            OpCode::AddI => int_op!(i64::wrapping_add),
            OpCode::SubI => int_op!(i64::wrapping_sub),
            OpCode::MulI => int_op!(i64::wrapping_mul),
            OpCode::DivI => {
                let divisor = self.iregs[b].read(undecided)?;
                if divisor == 0 {
                    return Err(err("integer division by zero").into());
                }
                // Only `MIN / -1` overflows; a widened dividend stays
                // widened.
                if divisor == -1 && self.iregs[a].decided() == Some(i64::MIN) {
                    return Err(err("integer division overflow").into());
                }
                int_op!(|x, y| x / y);
            }
            OpCode::MovI => self.iregs[d] = self.iregs[a],
            OpCode::CastFI => {
                let x = &self.fregs[a];
                if in_pass {
                    let (lo, hi) = x.range();
                    if !(lo == hi && lo.is_finite()) {
                        return Err(err("cast of a widened float").into());
                    }
                }
                self.iregs[d] = I::known(x.center() as i64);
            }
            OpCode::CmpI => {
                let op = ins.cmp_op();
                int_op!(|x, y| i64::from(op.eval(x, y)));
            }
            OpCode::CmpF => {
                let (x, y) = (&self.fregs[a], &self.fregs[b]);
                self.iregs[d] = I::cmp_f(ins.cmp_op(), x, y, a, b, undecided);
            }
            OpCode::Jump => flow = Flow::Goto(ins.imm as usize),
            OpCode::JumpIfZero => match self.iregs[a].decided() {
                Some(0) => flow = Flow::Goto(ins.imm as usize),
                Some(_) => {}
                None => {
                    flow = Flow::Branch {
                        reg: a,
                        target: ins.imm as usize,
                    }
                }
            },
            OpCode::Ret => flow = Flow::Ret(Some(self.fregs[a].clone())),
            OpCode::RetVoid => flow = Flow::Ret(None),
            OpCode::MulThenAdd
            | OpCode::MulThenSub
            | OpCode::MulIThenAddI
            | OpCode::CmpIJump
            | OpCode::CmpFJump => unreachable!("a validated program holds no superinstruction"),
        }
        Ok(flow)
    }

    /// Sets up the pragma FP operation `ins` carries: the ids it protects
    /// into `protect` (none without `prioritize`) and its capacity.
    fn pragma_on(&mut self, ins: &FixedInstr, cx: &D::Ctx) {
        match ins.protect() {
            Some(r) => self.fregs[r].protect_ids_into(cx, &mut self.protect),
            None => self.protect.clear(),
        }
        if let Some(k) = ins.capacity() {
            D::set_capacity(cx, k);
        }
    }

    /// The result of a run that ended with `ret`; `stats` gains the
    /// run's fusion and condensation counts.
    pub(crate) fn finish(
        mut self,
        prog: &Program,
        cx: &D::Ctx,
        ret: Option<D>,
        mut stats: RunStats,
    ) -> RunResult<D> {
        let (fusions, condensations) = D::fusion_counters(cx);
        stats.fusions = fusions - self.counters_at_entry.0;
        stats.condensations = condensations - self.counters_at_entry.1;
        RunResult {
            ret,
            arrays: array_outs(prog, |a| std::mem::take(&mut self.arrays[a])),
            stats,
        }
    }
}

pub(crate) fn exec_inner<D: Domain, T: ExecTracer>(
    prog: &Program,
    args: &[ArgValue],
    cx: &D::Ctx,
    tracer: &mut T,
) -> Result<RunResult<D>, ExecError> {
    let mut m = Machine::<D, i64>::bind(prog, args, cx, tracer)?;
    let mut stats = RunStats::default();
    let mut pc = 0usize;
    let mut ret: Option<D> = None;
    while pc < prog.code.len() {
        if stats.instrs >= FUEL {
            return Err(err("instruction budget exhausted (infinite loop?)"));
        }
        let syms_before = if T::ACTIVE {
            D::symbols_allocated(cx)
        } else {
            0
        };
        let flow = m.step(prog, cx, pc, &mut stats, false)?;
        if T::ACTIVE {
            let syms_after = D::symbols_allocated(cx);
            if syms_after > syms_before {
                tracer.record(TraceSite::Instr(pc), syms_before, syms_after);
            }
        }
        match flow {
            Flow::Next => pc += 1,
            Flow::Goto(t) => pc = t,
            Flow::Ret(r) => {
                ret = r;
                break;
            }
            Flow::Branch { .. } => unreachable!("concrete integers decide every branch"),
        }
    }
    Ok(m.finish(prog, cx, ret, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{Domain, UnsoundF64};
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
    fn unsound_matches_native_rust() {
        let p = compile("double f(double a, double b) { return a * b + 0.1; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[0.3.into(), 0.7.into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 0.3 * 0.7 + 0.1);
        assert_eq!(r.stats.fp_ops, 2);
    }

    #[test]
    fn loop_executes_n_times() {
        let p = compile(
            "double f(double x, int n) {
                 for (int i = 0; i < n; i++) { x = x * 0.5; }
                 return x;
             }",
        );
        let r: RunResult<UnsoundF64> = exec(&p, &[1024.0.into(), 10i64.into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 1.0);
        assert_eq!(r.stats.fp_ops, 10);
    }

    #[test]
    fn array_out_parameter_returned() {
        let p = compile(
            "void scale(double a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i] * 2.0; } }",
        );
        let r: RunResult<UnsoundF64> = exec(&p, &[vec![1.0, 2.0, 3.0, 4.0].into()], &()).unwrap();
        let (name, vals) = &r.arrays[0];
        assert_eq!(name, "a");
        let got: Vec<f64> = vals.iter().map(|v| v.0).collect();
        assert_eq!(got, vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    fn two_d_array_indexing() {
        let p = compile("void t(double g[2][2]) { g[0][1] = g[1][0] + 10.0; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[vec![1.0, 2.0, 3.0, 4.0].into()], &()).unwrap();
        let got: Vec<f64> = r.arrays[0].1.iter().map(|v| v.0).collect();
        assert_eq!(got, vec![1.0, 13.0, 3.0, 4.0]); // g[0][1] = g[1][0]+10 = 3+10
    }

    #[test]
    fn branches_follow_comparison() {
        let p = compile("double f(double x) { if (x < 0.0) { return -x; } return x; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[(-3.0).into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 3.0);
        let r: RunResult<UnsoundF64> = exec(&p, &[2.0.into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 2.0);
    }

    #[test]
    fn interval_run_encloses_unsound_run() {
        let src = "double f(double x, double y) {
            double s = x;
            for (int i = 0; i < 20; i++) { s = s * y + x; }
            return s;
        }";
        let p = compile(src);
        let unsound: RunResult<UnsoundF64> = exec(&p, &[0.3.into(), 0.9.into()], &()).unwrap();
        let sound: RunResult<IntervalF64> = exec(&p, &[0.3.into(), 0.9.into()], &()).unwrap();
        let iv = sound.ret.unwrap();
        assert!(iv.contains(unsound.ret.unwrap().0));
    }

    #[test]
    fn affine_run_encloses_unsound_run() {
        let src = "double f(double x, double y) {
            double s = x;
            for (int i = 0; i < 20; i++) { s = s * y - x * y; }
            return s;
        }";
        let p = compile(src);
        let unsound: RunResult<UnsoundF64> = exec(&p, &[0.3.into(), 0.9.into()], &()).unwrap();
        let ctx = AaContext::new(AaConfig::new(8));
        let sound: RunResult<AffineF64> = exec(&p, &[0.3.into(), 0.9.into()], &ctx).unwrap();
        let a = sound.ret.unwrap();
        assert!(a.contains_f64(unsound.ret.unwrap().0));
        assert!(sound.stats.fp_ops == unsound.stats.fp_ops);
    }

    #[test]
    fn protect_pragma_runs_with_its_op() {
        let src = "void f(double x, double z) {\n#pragma safegen prioritize(z)\nx = x * z; }";
        let p = compile(src);
        let ctx = AaContext::new(AaConfig::new(2));
        let r: RunResult<AffineF64> = exec(&p, &[1.0.into(), 2.0.into()], &ctx).unwrap();
        assert!(r.ret.is_none());
        assert_eq!(r.stats.fp_ops, 1);
    }

    #[test]
    fn int_cast_truncates_in_float_code() {
        let p = compile("double f(double x) { double y = (int) x; return y + (int) -x; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[2.7.into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 0.0, "(int) 2.7 + (int) -2.7");
        let p = compile("double f(double x) { double y = (int) x; return y * 0.5; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[2.7.into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 1.0, "(int) 2.7 / 2");
    }

    #[test]
    fn undecided_branch_counted() {
        let src = "double f(double x) { if (x < 0.5) { return x; } return x + 1.0; }";
        let p = compile(src);
        // Range [0.5-u, 0.5+u] straddles the threshold once widened enough:
        // force it by comparing against a value inside the input range.
        let ctx = AaContext::new(AaConfig::new(4));
        let r: RunResult<AffineF64> = exec(&p, &[0.5.into()], &ctx).unwrap();
        assert_eq!(r.stats.undecided_branches, 1);
    }

    #[test]
    fn fusion_counter_fires_on_sorted_budget_overflow() {
        // A k = 2 budget under sorted placement overflows on every
        // multiply-add once the form carries two symbols, forcing
        // oldest-symbol fusion (the `sonn` configuration).
        let src = "double f(double x) {
            double s = x;
            for (int i = 0; i < 8; i++) { s = s * x + x; }
            return s;
        }";
        let p = compile(src);
        let (cfg, _) = AaConfig::parse_mnemonic(2, "sonn").unwrap();
        let ctx = AaContext::new(cfg);
        let r: RunResult<AffineF64> = exec(&p, &[0.7.into()], &ctx).unwrap();
        assert!(r.stats.fusions > 0, "expected sorted-placement fusions");
        assert_eq!(r.stats.condensations, 0, "no slots under sorted placement");
    }

    #[test]
    fn condensation_counter_fires_under_direct_mapping() {
        let src = "double f(double x) {
            double s = x;
            for (int i = 0; i < 8; i++) { s = s * x + x; }
            return s;
        }";
        let p = compile(src);
        let ctx = AaContext::new(AaConfig::new(2)); // direct-mapped, k = 2
        let r: RunResult<AffineF64> = exec(&p, &[0.7.into()], &ctx).unwrap();
        assert!(r.stats.condensations > 0, "expected slot conflicts");
        assert_eq!(r.stats.fusions, 0, "no budget fusion under direct mapping");
    }

    #[test]
    fn counters_zero_without_symbol_pressure() {
        let p = compile("double f(double x) { return x * x; }");
        let ctx = AaContext::new(AaConfig::full()); // unbounded, never fuses
        let r: RunResult<AffineF64> = exec(&p, &[0.7.into()], &ctx).unwrap();
        assert_eq!((r.stats.fusions, r.stats.condensations), (0, 0));
        let r: RunResult<UnsoundF64> = exec(&p, &[0.7.into()], &()).unwrap();
        assert_eq!((r.stats.fusions, r.stats.condensations), (0, 0));
    }

    #[test]
    fn stats_are_deltas_when_context_is_reused() {
        let src = "double f(double x) {
            double s = x;
            for (int i = 0; i < 8; i++) { s = s * x + x; }
            return s;
        }";
        let p = compile(src);
        let ctx = AaContext::new(AaConfig::new(2));
        let a: RunResult<AffineF64> = exec(&p, &[0.7.into()], &ctx).unwrap();
        let b: RunResult<AffineF64> = exec(&p, &[0.7.into()], &ctx).unwrap();
        assert_eq!(a.stats.condensations, b.stats.condensations);
    }

    #[test]
    fn traced_run_attributes_symbols_to_sites() {
        let p = compile("double f(double x) { return x * x - x; }");
        let ctx = AaContext::new(AaConfig::full());
        let (r, trace) = exec_traced::<AffineF64>(&p, &[0.7.into()], &ctx).unwrap();
        // The first allocation is the input symbol of parameter 0.
        assert_eq!(trace.allocs.first().map(|a| a.0), Some(TraceSite::Param(0)));
        assert_eq!(trace.site_of(0), Some(TraceSite::Param(0)));
        // Every surviving symbol of the result maps back to a site, and
        // the ranges are disjoint and sorted.
        for (id, _) in Domain::noise_terms(r.ret.as_ref().unwrap()) {
            assert!(trace.site_of(id).is_some(), "symbol {id} unattributed");
        }
        for w in trace.allocs.windows(2) {
            assert!(w[0].2 <= w[1].1, "ranges overlap: {w:?}");
        }
        assert_eq!(trace.site_of(u64::MAX), None);
        // Tracing does not change results.
        let plain: RunResult<AffineF64> =
            exec(&p, &[0.7.into()], &AaContext::new(AaConfig::full())).unwrap();
        assert_eq!(plain.ret.unwrap().range(), r.ret.unwrap().range());
    }

    #[test]
    fn argument_mismatch_errors() {
        let p = compile("double f(double x) { return x; }");
        let e = exec::<UnsoundF64>(&p, &[], &()).unwrap_err();
        assert!(e.message.contains("expected"));
        let e = exec::<UnsoundF64>(&p, &[1i64.into()], &()).unwrap_err();
        assert!(e.message.contains('x'));
    }

    #[test]
    fn cmp_f_sound_decides_only_separated_enclosures() {
        let iv = |lo: f64, hi: f64| IntervalF64::new(lo, hi);
        // Per case: x, y, then the decision for Lt, Le, Gt, Ge, Eq, Ne.
        let cases = [
            (
                "disjoint",
                iv(0.0, 1.0),
                iv(2.0, 3.0),
                [
                    Some(true),
                    Some(true),
                    Some(false),
                    Some(false),
                    Some(false),
                    Some(true),
                ],
            ),
            (
                "touching",
                iv(0.0, 1.0),
                iv(1.0, 2.0),
                [None, Some(true), Some(false), None, None, None],
            ),
            (
                "identical point",
                iv(1.0, 1.0),
                iv(1.0, 1.0),
                [
                    Some(false),
                    Some(true),
                    Some(false),
                    Some(true),
                    Some(true),
                    Some(false),
                ],
            ),
            ("overlapping", iv(0.0, 2.0), iv(1.0, 3.0), [None; 6]),
        ];
        let ops = [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ];
        for (what, x, y, want) in cases {
            for (op, want) in ops.into_iter().zip(want) {
                assert_eq!(cmp_f_sound(op, &x, &y), want, "{what}: {op:?}");
            }
        }
    }

    #[test]
    fn out_of_bounds_errors() {
        let p = compile("void f(double a[2], int i) { a[i] = 1.0; }");
        let e = exec::<UnsoundF64>(&p, &[vec![0.0, 0.0].into(), 5i64.into()], &()).unwrap_err();
        assert!(e.message.contains("out of bounds"), "{e}");
    }

    #[test]
    fn unsized_pointer_param_takes_any_length() {
        let p = compile("void f(double *a, int n) { for (int i = 0; i < n; i++) a[i] = 0.5; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[vec![1.0; 7].into(), 7i64.into()], &()).unwrap();
        assert!(r.arrays[0].1.iter().all(|v| v.0 == 0.5));
    }

    #[test]
    fn while_loop_terminates() {
        let p = compile("double f(double x) { while (x < 100.0) { x = x * 2.0; } return x; }");
        let r: RunResult<UnsoundF64> = exec(&p, &[1.0.into()], &()).unwrap();
        assert_eq!(r.ret.unwrap().0, 128.0);
    }
}
