//! The lane-major (structure-of-arrays) interpreter.
//!
//! [`exec_lanes`] evaluates one program on **N input points at once**:
//! register files become columns (`fregs[reg * W + lane]`), and every
//! instruction dispatch applies its operation across all live lanes
//! before the next dispatch. This amortizes the interpreter's per-
//! instruction overhead (decode, branch, bookkeeping) over the whole
//! lane group — the win is for the cheap domains (unsound `f64`, the
//! IGen intervals), where dispatch dominates the actual arithmetic. The
//! affine domains have no column kernel, yet they still run faster here
//! than one lane at a time: forcing their width to 1 made paper-k8
//! `slowdown` 6% worse, while the superinstructions only this engine
//! runs are worth about 3% (EXPERIMENTS.md, "Affine lane width"), so
//! most of the gain is the amortized dispatch.
//!
//! ## Bit-identical to the scalar interpreter
//!
//! Lanes are fully independent: each has its own registers, arrays,
//! domain context, protect set and statistics, and the per-lane
//! sequence of domain operations is exactly the scalar interpreter's
//! sequence for that input. Divergent branches split the lane group
//! (the subgroup that jumps is parked and resumed later); since no
//! state is shared between lanes, the scheduling of groups cannot
//! influence any lane's result. The differential test
//! `tests/lanes_differential.rs` and the fuzzer's serial-vs-batch check
//! pin this: every run configuration, every lane width, bit-identical
//! enclosures and statistics.
//!
//! ## Fuel, errors, divergence
//!
//! * A lane that fails (argument mismatch, out-of-bounds access,
//!   division by zero, fuel) gets the scalar path's exact error; the
//!   other lanes continue unaffected.
//! * Instruction/fp-op counters are kept per *group*: every lane in a
//!   group has executed the identical instruction path, so the counts
//!   are equal by construction and are materialized per lane when the
//!   lane retires.
//! * Programs whose unsized (pointer) array parameters receive
//!   different lengths on different lanes fall back to per-lane scalar
//!   execution — the columns would be ragged — which is bit-identical
//!   by definition.

use crate::domain::{Domain, FpBinOp, FpUnOp};
use crate::exec::{
    array_index, array_outs, bind, cmp_f, err, exec_inner, validate_args, ArgValue, Bind,
    ExecError, NoTrace, RunResult, RunStats, FUEL,
};
use crate::program::{FixedInstr, FixedProgram, OpCode, Program};
use safegen_telemetry::metrics::metrics;

/// Per-dispatch metric tallies. The interpreter accumulates these in
/// plain locals while it runs and [`LaneTally::flush`]es them to the
/// global registry **once per `exec_lanes` call**, so the dispatch loop
/// itself carries no atomics (DESIGN.md §11 hot-path discipline).
#[derive(Default)]
struct LaneTally {
    splits: u64,
    parks: u64,
    remerges: u64,
    superinstr_hits: u64,
    kernel_dispatches: u64,
    scalar_dispatches: u64,
}

impl LaneTally {
    fn flush(&self, lanes: usize) {
        let m = metrics();
        m.lanes.dispatches.inc();
        m.lanes.lanes_dispatched.add(lanes as u64);
        m.lanes.group_splits.add(self.splits);
        m.lanes.parks.add(self.parks);
        m.lanes.remerges.add(self.remerges);
        m.lanes.superinstr_hits.add(self.superinstr_hits);
        m.lanes.kernel_dispatches.add(self.kernel_dispatches);
        m.lanes.scalar_dispatches.add(self.scalar_dispatches);
    }
}

/// Maximum lane count per [`exec_lanes`] call (lane masks are `u64`).
pub const MAX_LANES: usize = 64;

/// Iterates the set bit positions of a lane mask, lowest first.
#[derive(Clone, Copy)]
struct MaskIter(u64);

impl Iterator for MaskIter {
    type Item = usize;
    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let l = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(l)
    }
}

/// One contiguous execution front: a set of lanes at the same `pc`.
/// Lanes in a group need *not* share their full execution history —
/// divergent subgroups re-merge when they meet at the same `pc` again
/// (see the scheduler below) — so the
/// `instrs`/`fp_ops` counters are *deltas since the group was formed*;
/// each lane's totals live in the per-lane accumulators and are flushed
/// on merge and retire.
struct Group {
    pc: usize,
    mask: u64,
    /// Instructions executed by this group since it was formed.
    instrs: u64,
    /// FP operations executed by this group since it was formed.
    fp_ops: u64,
    /// `max(acc_instrs[l])` over the member lanes at formation time —
    /// `acc_max + instrs` bounds every member's instruction count, so
    /// the per-instruction fuel check stays one comparison.
    acc_max: u64,
}

/// Runs FP operation `ins`, which carries a pragma, on the lanes in
/// `mask` as the scalar path runs it: each lane protects the symbols its
/// own protect register holds, and runs under the capacity. Out of line,
/// so the dispatch loop keeps only the pragma-free paths.
#[cold]
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn pragma_op<D: Domain>(
    ins: &FixedInstr,
    fregs: &mut [D],
    spare: &mut [D],
    w: usize,
    mask: u64,
    full: u64,
    cxs: &[D::Ctx],
    protect: &mut [Vec<u64>],
) {
    for l in MaskIter(mask) {
        if let Some(r) = ins.protect() {
            fregs[r * w + l].protect_ids_into(&cxs[l], &mut protect[l]);
        }
        if let Some(k) = ins.capacity() {
            D::set_capacity(&cxs[l], k);
        }
    }
    let (d, a, b) = (usize::from(ins.dst), usize::from(ins.a), usize::from(ins.b));
    let p = &*protect;
    let bin = match ins.op {
        OpCode::Add => Some(FpBinOp::Add),
        OpCode::Sub => Some(FpBinOp::Sub),
        OpCode::Mul => Some(FpBinOp::Mul),
        OpCode::Div => Some(FpBinOp::Div),
        OpCode::Min => Some(FpBinOp::Min),
        OpCode::Max => Some(FpBinOp::Max),
        _ => None,
    };
    if let Some(op) = bin {
        bin_cols(fregs, spare, w, d, a, b, mask, full, |x, y, o, l| {
            D::bin_into(op, x, y, &cxs[l], &p[l], o)
        });
    } else {
        let op = match ins.op {
            OpCode::Sqrt => FpUnOp::Sqrt,
            OpCode::Abs => FpUnOp::Abs,
            _ => FpUnOp::Neg,
        };
        un_cols(fregs, spare, w, d, a, mask, full, |x, o, l| {
            D::un_into(op, x, &cxs[l], &p[l], o)
        });
    }
    for l in MaskIter(mask) {
        protect[l].clear();
        if ins.capacity().is_some() {
            D::reset_capacity(&cxs[l]);
        }
    }
}

/// A retired lane: returned value plus its final counter totals.
struct LaneDone<D> {
    ret: Option<D>,
    instrs: u64,
    fp_ops: u64,
}

/// Runs `f` once per lane in `mask`; a full mask takes the plain
/// `0..w` loop (no bit scanning, LLVM-unrollable).
#[inline(always)]
fn for_lanes(mask: u64, full: u64, w: usize, mut f: impl FnMut(usize)) {
    if mask == full {
        for l in 0..w {
            f(l);
        }
    } else {
        for l in MaskIter(mask) {
            f(l);
        }
    }
}

/// The lanes of `mask` whose array index is out of bounds for an array
/// of length `len`; each gets the scalar path's error in `errs`. A full
/// group whose indices are all in bounds — the common case — costs one
/// pass over the index column with no early exit (a negative index wraps
/// to a `u64` above any length), so the caller copies in a plain loop.
#[inline(always)]
fn bad_index_lanes(
    mask: u64,
    full: u64,
    idx: &[i64],
    len: usize,
    name: &str,
    errs: &mut [Option<ExecError>],
) -> u64 {
    if mask == full
        && idx
            .iter()
            .fold(true, |ok, &i| ok & ((i as u64) < len as u64))
    {
        return 0;
    }
    let mut bad = 0u64;
    for l in MaskIter(mask) {
        if let Err(e) = array_index(idx[l], len, name) {
            errs[l] = Some(e);
            bad |= 1 << l;
        }
    }
    bad
}

/// Applies a binary operation column-wise: for every lane in `mask`,
/// `f(regs[a][l], regs[b][l], spare[l], l)` writes the lane's result into
/// the spare column (`w` values), which then swaps places with
/// `regs[d]`. That makes every aliasing of `d` with `a` or `b` safe, and
/// the swapped-out old values lend their storage to the next result. A
/// full mask runs a plain contiguous zip (bounds checks elided).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn bin_cols<D>(
    regs: &mut [D],
    spare: &mut [D],
    w: usize,
    d: usize,
    a: usize,
    b: usize,
    mask: u64,
    full: u64,
    mut f: impl FnMut(&D, &D, &mut D, usize),
) {
    let (ds, as_, bs) = (d * w, a * w, b * w);
    if mask == full {
        let (ac, bc) = (&regs[as_..as_ + w], &regs[bs..bs + w]);
        for (l, (o, (x, y))) in spare.iter_mut().zip(ac.iter().zip(bc)).enumerate() {
            f(x, y, o, l);
        }
        regs[ds..ds + w].swap_with_slice(spare);
    } else {
        for l in MaskIter(mask) {
            f(&regs[as_ + l], &regs[bs + l], &mut spare[l], l);
            std::mem::swap(&mut regs[ds + l], &mut spare[l]);
        }
    }
}

/// Unary column-wise counterpart of [`bin_cols`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn un_cols<D>(
    regs: &mut [D],
    spare: &mut [D],
    w: usize,
    d: usize,
    a: usize,
    mask: u64,
    full: u64,
    mut f: impl FnMut(&D, &mut D, usize),
) {
    let (ds, as_) = (d * w, a * w);
    if mask == full {
        for (l, (o, x)) in spare.iter_mut().zip(&regs[as_..as_ + w]).enumerate() {
            f(x, o, l);
        }
        regs[ds..ds + w].swap_with_slice(spare);
    } else {
        for l in MaskIter(mask) {
            f(&regs[as_ + l], &mut spare[l], l);
            std::mem::swap(&mut regs[ds + l], &mut spare[l]);
        }
    }
}

/// Integer column operation `regs[d][l] = f(regs[a][l], regs[b][l])` for
/// every lane in `mask`. `i64` is `Copy`, so each lane reads its operands
/// before overwriting its destination, whatever aliases what.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn int_cols(
    regs: &mut [i64],
    w: usize,
    d: usize,
    a: usize,
    b: usize,
    mask: u64,
    full: u64,
    f: impl Fn(i64, i64) -> i64,
) {
    let (ds, as_, bs) = (d * w, a * w, b * w);
    for_lanes(mask, full, w, |l| {
        regs[ds + l] = f(regs[as_ + l], regs[bs + l])
    });
}

/// Offers a full-width binary operation to [`Domain::bin_kernel`],
/// writing straight into the destination column when it is distinct from
/// both sources (split with `get_disjoint_mut`), else into the spare
/// column, which then swaps places with the destination — as in
/// [`bin_cols`]. Returns `false` (destination untouched) when the domain
/// has no kernel for `op`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn bin_kernel_cols<D: Domain>(
    regs: &mut [D],
    spare: &mut [D],
    w: usize,
    op: FpBinOp,
    d: usize,
    a: usize,
    b: usize,
    cxs: &[D::Ctx],
) -> bool {
    let (ds, as_, bs) = (d * w, a * w, b * w);
    if d == a || d == b {
        let done = D::bin_kernel(op, &regs[as_..as_ + w], &regs[bs..bs + w], spare, cxs);
        if done {
            regs[ds..ds + w].swap_with_slice(spare);
        }
        done
    } else if a != b {
        let [dc, ac, bc] = regs
            .get_disjoint_mut([ds..ds + w, as_..as_ + w, bs..bs + w])
            .expect("distinct register columns are disjoint");
        D::bin_kernel(op, ac, bc, dc, cxs)
    } else {
        let [dc, ac] = regs
            .get_disjoint_mut([ds..ds + w, as_..as_ + w])
            .expect("distinct register columns are disjoint");
        D::bin_kernel(op, ac, ac, dc, cxs)
    }
}

/// Unary counterpart of [`bin_kernel_cols`] for [`Domain::un_kernel`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn un_kernel_cols<D: Domain>(
    regs: &mut [D],
    spare: &mut [D],
    w: usize,
    op: FpUnOp,
    d: usize,
    a: usize,
    cxs: &[D::Ctx],
) -> bool {
    let (ds, as_) = (d * w, a * w);
    if d == a {
        let done = D::un_kernel(op, &regs[as_..as_ + w], spare, cxs);
        if done {
            regs[ds..ds + w].swap_with_slice(spare);
        }
        done
    } else {
        let [dc, ac] = regs
            .get_disjoint_mut([ds..ds + w, as_..as_ + w])
            .expect("distinct register columns are disjoint");
        D::un_kernel(op, ac, dc, cxs)
    }
}

/// Executes `prog` on up to [`MAX_LANES`] input sets at once under
/// domain `D`, one result per lane, each bit-identical to what
/// [`crate::exec::exec`] returns for that lane's inputs and context.
///
/// `fixed` must be [`crate::program::encode`]\(`prog`\) — the
/// superinstruction stream the lane dispatch runs on; `cxs` supplies
/// one fresh domain context per lane (contexts are mutated through
/// interior cells, so reusing one context across lanes would entangle
/// their symbol allocations).
///
/// # Panics
///
/// Panics when `inputs` and `cxs` disagree in length, are empty, or
/// exceed [`MAX_LANES`].
pub fn exec_lanes<D: Domain>(
    prog: &Program,
    fixed: &FixedProgram,
    inputs: &[Vec<ArgValue>],
    cxs: &[D::Ctx],
) -> Vec<Result<RunResult<D>, ExecError>> {
    let w = inputs.len();
    assert!(w > 0 && w <= MAX_LANES, "lane width {w} out of range");
    assert_eq!(w, cxs.len(), "one domain context per lane");
    let full: u64 = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };

    // --- Per-lane argument validation (pure; no context mutation). ---
    let mut errs: Vec<Option<ExecError>> = vec![None; w];
    let mut arr_len: Vec<usize> = prog.arrays.iter().map(|a| a.len).collect();
    let mut ragged = false;
    for (l, args) in inputs.iter().enumerate() {
        errs[l] = validate_args(prog, args).err();
    }
    // Unsized (pointer) arrays take their length from the bound argument;
    // all surviving lanes must agree or the columns would be ragged.
    let mut seen = vec![false; prog.arrays.len()];
    for (args, _) in inputs.iter().zip(&errs).filter(|(_, e)| e.is_none()) {
        for ((_, param), arg) in prog.params.iter().zip(args) {
            if let Bind::Array(j, xs) = bind(param, arg) {
                if prog.arrays[j].len == 0 {
                    if !seen[j] {
                        seen[j] = true;
                        arr_len[j] = xs.len();
                    } else if arr_len[j] != xs.len() {
                        ragged = true;
                    }
                }
            }
        }
    }
    if ragged {
        let m = metrics();
        m.lanes.dispatches.inc();
        m.lanes.lanes_dispatched.add(w as u64);
        m.lanes.ragged_fallbacks.inc();
        // Per-lane scalar execution: bit-identical by definition.
        return inputs
            .iter()
            .zip(cxs)
            .map(|(args, cx)| exec_inner(prog, args, cx, &mut NoTrace))
            .collect();
    }

    let init_mask: u64 = errs
        .iter()
        .enumerate()
        .filter(|(_, e)| e.is_none())
        .fold(0u64, |m, (l, _)| m | (1u64 << l));

    // --- SoA state, initialized in the scalar path's per-lane context
    // call order: one zero constant for the register file, one per
    // array, then the parameter bindings in declaration order. ---
    let nf = prog.n_fregs.max(1);
    let ni = prog.n_iregs.max(1);
    let zeros: Vec<D> = cxs.iter().map(|cx| D::constant(0.0, cx)).collect();
    let mut fregs: Vec<D> = Vec::with_capacity(nf * w);
    for _ in 0..nf {
        fregs.extend(zeros.iter().cloned());
    }
    let mut iregs: Vec<i64> = vec![0; ni * w];
    // The spare column FP results are computed into (see `bin_cols`).
    let mut fspare: Vec<D> = zeros.clone();
    let mut arrays: Vec<Vec<D>> = Vec::with_capacity(prog.arrays.len());
    for &len in &arr_len {
        let col_zeros: Vec<D> = cxs.iter().map(|cx| D::constant(0.0, cx)).collect();
        let mut a: Vec<D> = Vec::with_capacity(len * w);
        for _ in 0..len {
            a.extend(col_zeros.iter().cloned());
        }
        arrays.push(a);
    }
    drop(zeros);

    // Counter snapshots (per lane): stats report per-run deltas.
    let counters0: Vec<(u64, u64)> = cxs.iter().map(|cx| D::fusion_counters(cx)).collect();

    // Bind parameters on the surviving lanes, parameter-major so each
    // lane's context sees the scalar binding order.
    for (p, (_, param)) in prog.params.iter().enumerate() {
        for l in MaskIter(init_mask) {
            match bind(param, &inputs[l][p]) {
                Bind::Float(r, x) => D::from_input_into(x, &cxs[l], &mut fregs[r * w + l]),
                Bind::Int(r, v) => iregs[r * w + l] = v,
                Bind::Array(a, xs) => {
                    for (e, &x) in xs.iter().enumerate() {
                        D::from_input_into(x, &cxs[l], &mut arrays[a][e * w + l]);
                    }
                }
            }
        }
    }

    // --- The lane dispatch loop. ---
    //
    // Scheduling: always run the group with the lowest `pc`, and park
    // the current group whenever its `pc` reaches the lowest parked
    // `pc` (`watch`). Parked groups thereby act as reconvergence
    // points: when the lagging group catches up to a parked group at
    // the same `pc`, the two merge back into one front. Without this, each divergent branch over
    // independent inputs would permanently shatter the group into
    // singletons (LU factorization's data-dependent pivoting is the
    // worst case) and the dispatch amortization would be lost. Lanes
    // share no state, so neither the scheduling order nor merging can
    // influence any lane's result; per-lane instruction counts are
    // kept exact by flushing group counters into `acc_instrs` /
    // `acc_fp` whenever memberships change.
    let mut undecided: Vec<u64> = vec![0; w];
    let mut protect: Vec<Vec<u64>> = vec![Vec::new(); w];
    let mut acc_instrs: Vec<u64> = vec![0; w];
    let mut acc_fp: Vec<u64> = vec![0; w];
    let mut done: Vec<Option<LaneDone<D>>> = Vec::new();
    done.resize_with(w, || None);
    let n_ops = fixed.ops.len();
    let mut tally = LaneTally::default();
    let mut groups = Vec::new();
    if init_mask != 0 {
        groups.push(Group {
            pc: 0,
            mask: init_mask,
            instrs: 0,
            fp_ops: 0,
            acc_max: 0,
        });
    }

    'groups: while !groups.is_empty() {
        // Pop the group with the lowest pc ...
        let mut idx = 0;
        for (i, h) in groups.iter().enumerate() {
            if h.pc < groups[idx].pc {
                idx = i;
            }
        }
        let mut g = groups.swap_remove(idx);
        // ... and absorb every parked group waiting at the same pc
        // (reconvergence).
        let mut i = 0;
        while i < groups.len() {
            if groups[i].pc == g.pc {
                let h = groups.swap_remove(i);
                tally.remerges += 1;
                for l in MaskIter(g.mask) {
                    acc_instrs[l] += g.instrs;
                    acc_fp[l] += g.fp_ops;
                }
                for l in MaskIter(h.mask) {
                    acc_instrs[l] += h.instrs;
                    acc_fp[l] += h.fp_ops;
                }
                g.acc_max = (g.acc_max + g.instrs).max(h.acc_max + h.instrs);
                g.mask |= h.mask;
                g.instrs = 0;
                g.fp_ops = 0;
            } else {
                i += 1;
            }
        }
        // The lowest parked pc: reaching it parks the current group so
        // the scheduler can re-merge (or switch to a lagging group).
        let mut watch = groups.iter().map(|h| h.pc).min().unwrap_or(usize::MAX);
        // One instruction tick with the fuel check: the group-wide bound
        // first, then, when it trips, each lane's exact count (post-merge
        // lanes can have different totals). Run per dispatch and for the
        // superinstructions' mid-op tick.
        macro_rules! fuel_check {
            () => {
                g.instrs += 1;
                if g.acc_max + g.instrs > FUEL {
                    let mut bad = 0u64;
                    for l in MaskIter(g.mask) {
                        if acc_instrs[l] + g.instrs > FUEL {
                            errs[l] = Some(err("instruction budget exhausted (infinite loop?)"));
                            bad |= 1 << l;
                        }
                    }
                    g.mask &= !bad;
                    if g.mask == 0 {
                        continue 'groups;
                    }
                    g.acc_max = MaskIter(g.mask).map(|l| acc_instrs[l]).max().unwrap_or(0);
                }
            };
        }
        loop {
            if g.mask == 0 {
                continue 'groups;
            }
            if g.pc >= n_ops {
                // Fell off the end: a void return.
                for l in MaskIter(g.mask) {
                    done[l] = Some(LaneDone {
                        ret: None,
                        instrs: acc_instrs[l] + g.instrs,
                        fp_ops: acc_fp[l] + g.fp_ops,
                    });
                }
                continue 'groups;
            }
            fuel_check!();
            let ins = fixed.ops[g.pc];

            // A binary FP op without a pragma. Full-width groups first
            // offer the whole column to the domain's SIMD kernel
            // ([`Domain::bin_kernel`]).
            macro_rules! fp_bin {
                ($op:expr, $d:expr, $a:expr, $b:expr) => {{
                    if g.mask == full
                        && bin_kernel_cols(&mut fregs, &mut fspare, w, $op, $d, $a, $b, cxs)
                    {
                        tally.kernel_dispatches += 1;
                    } else {
                        tally.scalar_dispatches += 1;
                        bin_cols(
                            &mut fregs,
                            &mut fspare,
                            w,
                            $d,
                            $a,
                            $b,
                            g.mask,
                            full,
                            |x, y, o, l| D::bin_into($op, x, y, &cxs[l], &[], o),
                        );
                    }
                    g.fp_ops += 1;
                }};
            }
            // The unary counterpart.
            macro_rules! fp_un {
                ($op:expr, $d:expr, $a:expr) => {{
                    if g.mask == full
                        && un_kernel_cols(&mut fregs, &mut fspare, w, $op, $d, $a, cxs)
                    {
                        tally.kernel_dispatches += 1;
                    } else {
                        tally.scalar_dispatches += 1;
                        un_cols(
                            &mut fregs,
                            &mut fspare,
                            w,
                            $d,
                            $a,
                            g.mask,
                            full,
                            |x, o, l| D::un_into($op, x, &cxs[l], &[], o),
                        );
                    }
                    g.fp_ops += 1;
                }};
            }
            // The branch half of JumpIfZero and the fused compares:
            // split the group when lanes disagree.
            macro_rules! branch_if_zero {
                ($cond_base:expr, $target:expr) => {{
                    let base = $cond_base;
                    let mut taken = 0u64;
                    for l in MaskIter(g.mask) {
                        if iregs[base + l] == 0 {
                            taken |= 1 << l;
                        }
                    }
                    if taken == g.mask {
                        g.pc = $target;
                        if g.pc >= watch {
                            tally.parks += 1;
                            groups.push(g);
                            continue 'groups;
                        }
                        continue;
                    }
                    if taken != 0 {
                        tally.splits += 1;
                        groups.push(Group {
                            pc: $target,
                            mask: taken,
                            instrs: g.instrs,
                            fp_ops: g.fp_ops,
                            // Conservative for the subset (only ever
                            // trips the precise fuel path early).
                            acc_max: g.acc_max,
                        });
                        watch = watch.min($target);
                        g.mask &= !taken;
                    }
                }};
            }
            macro_rules! cmp_f_cols {
                ($op:expr, $d:expr, $a:expr, $b:expr) => {{
                    let (db, ab, bb) = ($d * w, $a * w, $b * w);
                    for_lanes(g.mask, full, w, |l| {
                        let (x, y) = (&fregs[ab + l], &fregs[bb + l]);
                        iregs[db + l] = i64::from(cmp_f($op, x, y, &mut undecided[l]));
                    });
                }};
            }

            let (d, a, b) = (ins.dst as usize, ins.a as usize, ins.b as usize);
            match ins.op {
                // An FP operation (through `Max`) whose `aux` is set
                // carries a pragma.
                op if ins.aux != 0 && op as u8 <= OpCode::Max as u8 => {
                    tally.scalar_dispatches += 1;
                    let (mask, fp) = (g.mask, &mut protect);
                    pragma_op(&ins, &mut fregs, &mut fspare, w, mask, full, cxs, fp);
                    g.fp_ops += 1;
                }
                OpCode::Add => fp_bin!(FpBinOp::Add, d, a, b),
                OpCode::Sub => fp_bin!(FpBinOp::Sub, d, a, b),
                OpCode::Mul => fp_bin!(FpBinOp::Mul, d, a, b),
                OpCode::Div => fp_bin!(FpBinOp::Div, d, a, b),
                OpCode::Sqrt => fp_un!(FpUnOp::Sqrt, d, a),
                OpCode::Abs => fp_un!(FpUnOp::Abs, d, a),
                OpCode::Neg => fp_un!(FpUnOp::Neg, d, a),
                OpCode::Min => fp_bin!(FpBinOp::Min, d, a, b),
                OpCode::Max => fp_bin!(FpBinOp::Max, d, a, b),
                OpCode::ConstF => {
                    let c = prog.fpool[ins.imm as usize];
                    let base = d * w;
                    for_lanes(g.mask, full, w, |l| {
                        D::constant_into(c, &cxs[l], &mut fregs[base + l]);
                    });
                }
                OpCode::MovF => {
                    un_cols(&mut fregs, &mut fspare, w, d, a, g.mask, full, |x, o, _| {
                        o.clone_from(x)
                    });
                }
                OpCode::CastIF => {
                    let (db, ab) = (d * w, a * w);
                    for_lanes(g.mask, full, w, |l| {
                        D::constant_into(iregs[ab + l] as f64, &cxs[l], &mut fregs[db + l]);
                    });
                }
                OpCode::LoadArr => {
                    let (db, idx) = (d * w, &iregs[b * w..b * w + w]);
                    let name = &prog.arrays[a].name;
                    g.mask &= !bad_index_lanes(g.mask, full, idx, arr_len[a], name, &mut errs);
                    let col = &arrays[a];
                    if g.mask == full {
                        for (l, (o, &i)) in fregs[db..db + w].iter_mut().zip(idx).enumerate() {
                            o.clone_from(&col[i as usize * w + l]);
                        }
                    } else {
                        for l in MaskIter(g.mask) {
                            fregs[db + l].clone_from(&col[idx[l] as usize * w + l]);
                        }
                    }
                }
                OpCode::StoreArr => {
                    let (idx, sb) = (&iregs[a * w..a * w + w], b * w);
                    let name = &prog.arrays[d].name;
                    g.mask &= !bad_index_lanes(g.mask, full, idx, arr_len[d], name, &mut errs);
                    let col = &mut arrays[d];
                    if g.mask == full {
                        for (l, (x, &i)) in fregs[sb..sb + w].iter().zip(idx).enumerate() {
                            col[i as usize * w + l].clone_from(x);
                        }
                    } else {
                        for l in MaskIter(g.mask) {
                            col[idx[l] as usize * w + l].clone_from(&fregs[sb + l]);
                        }
                    }
                }
                OpCode::ConstI => {
                    let c = prog.ipool[ins.imm as usize];
                    let base = d * w;
                    for_lanes(g.mask, full, w, |l| {
                        iregs[base + l] = c;
                    });
                }
                OpCode::AddI => int_cols(&mut iregs, w, d, a, b, g.mask, full, i64::wrapping_add),
                OpCode::SubI => int_cols(&mut iregs, w, d, a, b, g.mask, full, i64::wrapping_sub),
                OpCode::MulI => int_cols(&mut iregs, w, d, a, b, g.mask, full, i64::wrapping_mul),
                OpCode::DivI => {
                    let (db, ab, bb) = (d * w, a * w, b * w);
                    let mut bad = 0u64;
                    for l in MaskIter(g.mask) {
                        let (x, y) = (iregs[ab + l], iregs[bb + l]);
                        match x.checked_div(y) {
                            Some(q) => iregs[db + l] = q,
                            None => {
                                errs[l] = Some(err(if y == 0 {
                                    "integer division by zero"
                                } else {
                                    "integer division overflow"
                                }));
                                bad |= 1 << l;
                            }
                        }
                    }
                    g.mask &= !bad;
                }
                OpCode::MovI => {
                    int_cols(&mut iregs, w, d, a, a, g.mask, full, |x, _| x);
                }
                OpCode::CastFI => {
                    let (db, ab) = (d * w, a * w);
                    for_lanes(g.mask, full, w, |l| {
                        iregs[db + l] = fregs[ab + l].center() as i64;
                    });
                }
                OpCode::CmpI => {
                    let op = ins.cmp_op();
                    int_cols(&mut iregs, w, d, a, b, g.mask, full, |x, y| {
                        i64::from(op.eval(x, y))
                    });
                }
                OpCode::CmpF => cmp_f_cols!(ins.cmp_op(), d, a, b),
                OpCode::Jump => {
                    g.pc = ins.imm as usize;
                    if g.pc >= watch {
                        tally.parks += 1;
                        groups.push(g);
                        continue 'groups;
                    }
                    continue;
                }
                OpCode::JumpIfZero => {
                    branch_if_zero!(a * w, ins.imm as usize);
                }
                OpCode::Ret => {
                    let base = a * w;
                    for l in MaskIter(g.mask) {
                        done[l] = Some(LaneDone {
                            ret: Some(fregs[base + l].clone()),
                            instrs: acc_instrs[l] + g.instrs,
                            fp_ops: acc_fp[l] + g.fp_ops,
                        });
                    }
                    continue 'groups;
                }
                OpCode::RetVoid => {
                    for l in MaskIter(g.mask) {
                        done[l] = Some(LaneDone {
                            ret: None,
                            instrs: acc_instrs[l] + g.instrs,
                            fp_ops: acc_fp[l] + g.fp_ops,
                        });
                    }
                    continue 'groups;
                }
                // Superinstructions: the two source instructions execute
                // back to back with the scalar path's exact per-
                // instruction bookkeeping (second `instrs` tick and fuel
                // check between the halves).
                OpCode::MulThenAdd | OpCode::MulThenSub => {
                    tally.superinstr_hits += 1;
                    fp_bin!(FpBinOp::Mul, d, a, b);
                    fuel_check!();
                    let (d2, c) = (ins.d2() as usize, ins.c() as usize);
                    let (x, y) = if ins.aux == 0 { (d, c) } else { (c, d) };
                    if ins.op == OpCode::MulThenAdd {
                        fp_bin!(FpBinOp::Add, d2, x, y);
                    } else {
                        fp_bin!(FpBinOp::Sub, d2, x, y);
                    }
                }
                OpCode::MulIThenAddI => {
                    tally.superinstr_hits += 1;
                    int_cols(&mut iregs, w, d, a, b, g.mask, full, i64::wrapping_mul);
                    fuel_check!();
                    let (d2, c) = (ins.d2() as usize, ins.c() as usize);
                    let (x, y) = if ins.aux == 0 { (d, c) } else { (c, d) };
                    int_cols(&mut iregs, w, d2, x, y, g.mask, full, i64::wrapping_add);
                }
                OpCode::CmpIJump => {
                    tally.superinstr_hits += 1;
                    let op = ins.cmp_op();
                    int_cols(&mut iregs, w, d, a, b, g.mask, full, |x, y| {
                        i64::from(op.eval(x, y))
                    });
                    fuel_check!();
                    branch_if_zero!(d * w, ins.imm as usize);
                }
                OpCode::CmpFJump => {
                    tally.superinstr_hits += 1;
                    cmp_f_cols!(ins.cmp_op(), d, a, b);
                    fuel_check!();
                    branch_if_zero!(d * w, ins.imm as usize);
                }
            }
            g.pc += 1;
            if g.pc >= watch {
                tally.parks += 1;
                groups.push(g);
                continue 'groups;
            }
        }
    }
    tally.flush(w);

    // --- Materialize per-lane results. ---
    // Deal the lane-interleaved columns of the array out-parameters to
    // their lanes, moving every element (local arrays are dropped in
    // place): `lane_arrays[l]` is lane `l`'s out-parameters in order.
    let out_cols = array_outs(prog, |j| std::mem::take(&mut arrays[j]));
    let mut lane_arrays: Vec<Vec<(String, Vec<D>)>> = vec![Vec::new(); w];
    for (name, col) in out_cols {
        for la in &mut lane_arrays {
            la.push((name.clone(), Vec::with_capacity(col.len() / w)));
        }
        for (i, v) in col.into_iter().enumerate() {
            lane_arrays[i % w]
                .last_mut()
                .expect("pushed above")
                .1
                .push(v);
        }
    }
    (0..w)
        .map(|l| {
            if let Some(e) = errs[l].take() {
                return Err(e);
            }
            let fin = done[l]
                .take()
                .expect("every surviving lane retires through a group");
            let (f1, c1) = D::fusion_counters(&cxs[l]);
            let stats = RunStats {
                fp_ops: fin.fp_ops,
                instrs: fin.instrs,
                undecided_branches: undecided[l],
                fusions: f1 - counters0[l].0,
                condensations: c1 - counters0[l].1,
                ..RunStats::default()
            };
            Ok(RunResult {
                ret: fin.ret,
                arrays: std::mem::take(&mut lane_arrays[l]),
                stats,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::UnsoundF64;
    use crate::exec::exec;
    use crate::program::{compile_program, encode};
    use safegen_affine::{AaConfig, AaContext, Affine, AffineF64};
    use safegen_cfront::{analyze, parse};

    fn compile(src: &str) -> Program {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let (tac, sema) = safegen_ir::to_tac_with_sema(&unit, &sema);
        compile_program(&tac.functions[0], &sema).unwrap()
    }

    /// Runs `w` input sets through both interpreters under `UnsoundF64`
    /// and asserts the results match bit for bit.
    fn assert_lanes_match_scalar(src: &str, inputs: &[Vec<ArgValue>]) {
        let p = compile(src);
        let fixed = encode(&p).unwrap();
        let cxs = vec![(); inputs.len()];
        let lanes = exec_lanes::<UnsoundF64>(&p, &fixed, inputs, &cxs);
        for (l, got) in lanes.iter().enumerate() {
            let want = exec::<UnsoundF64>(&p, &inputs[l], &());
            match (got, &want) {
                (Ok(g), Ok(s)) => {
                    assert_eq!(
                        g.ret.as_ref().map(|v| v.0.to_bits()),
                        s.ret.as_ref().map(|v| v.0.to_bits()),
                        "lane {l} return"
                    );
                    assert_eq!(g.stats, s.stats, "lane {l} stats");
                    assert_eq!(g.arrays.len(), s.arrays.len());
                    for ((gn, gv), (sn, sv)) in g.arrays.iter().zip(&s.arrays) {
                        assert_eq!(gn, sn);
                        let gb: Vec<u64> = gv.iter().map(|v| v.0.to_bits()).collect();
                        let sb: Vec<u64> = sv.iter().map(|v| v.0.to_bits()).collect();
                        assert_eq!(gb, sb, "lane {l} array {gn}");
                    }
                }
                (Err(g), Err(s)) => assert_eq!(g.message, s.message, "lane {l} error"),
                _ => panic!("lane {l}: ok/err mismatch: {got:?} vs {want:?}"),
            }
        }
    }

    #[test]
    fn straight_line_lanes_match_scalar() {
        assert_lanes_match_scalar(
            "double f(double a, double b) { return a * b + 0.1; }",
            &(0..8)
                .map(|i| vec![(0.1 * i as f64).into(), (1.0 - 0.05 * i as f64).into()])
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn lane_metrics_count_dispatches_and_divergence() {
        use safegen_telemetry::metrics::metrics;
        let m = &metrics().lanes;
        let (dispatches0, lanes0) = (m.dispatches.get(), m.lanes_dispatched.get());
        let (splits0, kernels0, scalars0) = (
            m.group_splits.get(),
            m.kernel_dispatches.get(),
            m.scalar_dispatches.get(),
        );

        // A divergent branch forces at least one group split; the
        // arithmetic runs through either the column kernels or the
        // scalar fallback, both of which are counted.
        let p = compile("double f(double x) { if (x < 0.0) { return -x; } return x + 1.0; }");
        let fixed = encode(&p).unwrap();
        let inputs: Vec<Vec<ArgValue>> = (0..8).map(|i| vec![((i as f64) - 3.5).into()]).collect();
        let cxs = vec![(); inputs.len()];
        let results = exec_lanes::<UnsoundF64>(&p, &fixed, &inputs, &cxs);
        assert!(results.iter().all(|r| r.is_ok()));

        // Counters are process-global, so deltas are asserted as `>=`.
        assert!(m.dispatches.get() > dispatches0);
        assert!(m.lanes_dispatched.get() >= lanes0 + 8);
        assert!(m.group_splits.get() > splits0, "branch must split");
        assert!(
            m.kernel_dispatches.get() + m.scalar_dispatches.get() > kernels0 + scalars0,
            "fp ops must be counted as kernel or scalar dispatches"
        );
    }

    #[test]
    fn divergent_branches_split_and_finish() {
        // Half the lanes take the negation branch, half do not.
        assert_lanes_match_scalar(
            "double f(double x) { if (x < 0.0) { return -x; } return x + 1.0; }",
            &(0..8)
                .map(|i| vec![((i as f64) - 3.5).into()])
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn data_dependent_loop_trip_counts_diverge() {
        assert_lanes_match_scalar(
            "double f(double x) { while (x < 100.0) { x = x * 2.0; } return x; }",
            &[
                vec![1.0.into()],
                vec![90.0.into()],
                vec![250.0.into()],
                vec![0.3.into()],
            ],
        );
    }

    #[test]
    fn arrays_and_counted_loops_match() {
        assert_lanes_match_scalar(
            "void scale(double a[4], int n) {
                 for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0 + 1.0; }
             }",
            &(0..5)
                .map(|l| {
                    vec![
                        vec![1.0 + l as f64, 2.0, 3.0, 4.0].into(),
                        ((l % 4) as i64 + 1).into(),
                    ]
                })
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn per_lane_errors_leave_other_lanes_intact() {
        // Lane 1 indexes out of bounds; lanes 0 and 2 succeed.
        assert_lanes_match_scalar(
            "void f(double a[2], int i) { a[i] = 1.0; }",
            &[
                vec![vec![0.0, 0.0].into(), 1i64.into()],
                vec![vec![0.0, 0.0].into(), 5i64.into()],
                vec![vec![0.0, 0.0].into(), 0i64.into()],
            ],
        );
    }

    #[test]
    fn array_loads_check_the_whole_index_column() {
        // A full group in bounds takes the one-pass copy; a negative
        // index (which wraps above any length in that pass) and an index
        // equal to the length each send the group to the per-lane check.
        let src = "double f(double a[3], int i) { return a[i] * 2.0; }";
        let arg = |i: i64| vec![vec![1.0, 2.0, 3.0].into(), i.into()];
        assert_lanes_match_scalar(src, &[arg(0), arg(2), arg(1), arg(2)]);
        assert_lanes_match_scalar(src, &[arg(0), arg(-1), arg(2), arg(3)]);
        assert_lanes_match_scalar(src, &[arg(i64::MIN), arg(1)]);
    }

    #[test]
    fn binding_errors_match_scalar_messages() {
        assert_lanes_match_scalar(
            "double f(double x) { return x; }",
            &[vec![1.0.into()], vec![], vec![1i64.into()]],
        );
    }

    #[test]
    fn ragged_unsized_arrays_fall_back_to_scalar() {
        assert_lanes_match_scalar(
            "void f(double *a, int n) { for (int i = 0; i < n; i++) a[i] = 0.5; }",
            &[
                vec![vec![1.0; 7].into(), 7i64.into()],
                vec![vec![1.0; 3].into(), 3i64.into()],
            ],
        );
    }

    #[test]
    fn division_by_zero_is_per_lane() {
        assert_lanes_match_scalar(
            "double f(int n) { return 1.0 / (n / n); }",
            &[vec![2i64.into()], vec![0i64.into()], vec![5i64.into()]],
        );
    }

    #[test]
    fn affine_lanes_match_scalar_bitwise() {
        let src = "double f(double x, double y) {
            double s = x;
            for (int i = 0; i < 12; i++) { s = s * y + x; }
            return s;
        }";
        let p = compile(src);
        let fixed = encode(&p).unwrap();
        let inputs: Vec<Vec<ArgValue>> = (0..4)
            .map(|i| vec![(0.1 + 0.2 * i as f64).into(), (0.9 - 0.1 * i as f64).into()])
            .collect();
        let cxs: Vec<AaContext> = (0..4).map(|_| AaContext::new(AaConfig::new(4))).collect();
        let lanes = exec_lanes::<AffineF64>(&p, &fixed, &inputs, &cxs);
        for (l, got) in lanes.into_iter().enumerate() {
            let cx = AaContext::new(AaConfig::new(4));
            let want = exec::<AffineF64>(&p, &inputs[l], &cx).unwrap();
            let got = got.unwrap();
            let (glo, ghi) = got.ret.as_ref().unwrap().range();
            let (slo, shi) = want.ret.as_ref().unwrap().range();
            assert_eq!(glo.to_bits(), slo.to_bits(), "lane {l} lo");
            assert_eq!(ghi.to_bits(), shi.to_bits(), "lane {l} hi");
            assert_eq!(got.stats, want.stats, "lane {l} stats");
        }
    }

    #[test]
    fn protect_pragma_consumed_identically() {
        let src = "void f(double x, double z) {\n#pragma safegen prioritize(z)\nx = x * z; }";
        let p = compile(src);
        let fixed = encode(&p).unwrap();
        let inputs: Vec<Vec<ArgValue>> =
            vec![vec![1.0.into(), 2.0.into()], vec![0.5.into(), 3.0.into()]];
        let cxs: Vec<AaContext> = (0..2).map(|_| AaContext::new(AaConfig::new(2))).collect();
        let lanes = exec_lanes::<AffineF64>(&p, &fixed, &inputs, &cxs);
        for (l, got) in lanes.into_iter().enumerate() {
            let cx = AaContext::new(AaConfig::new(2));
            let want = exec::<AffineF64>(&p, &inputs[l], &cx).unwrap();
            let got = got.unwrap();
            assert_eq!(got.stats, want.stats, "lane {l}");
            assert!(got.ret.is_none());
        }
    }

    /// Every aliasing of an FP result register with its operands —
    /// `x = x∘x`, `x = x∘y`, `x = y∘x`, in place over one register — must
    /// give the scalar and the lane interpreter the same bits as the
    /// by-value operations on fresh values.
    #[test]
    fn aliased_destinations_match_by_value_ops() {
        use crate::program::{FixedInstr, OpCode, ParamBinding};
        use safegen_affine::{CenterValue, Dd, Protect};
        use OpCode::*;
        let r = FixedInstr::new;
        let code = vec![
            r(Mul, 0, 0, 0),
            r(Add, 0, 0, 1),
            r(Sub, 0, 1, 0),
            r(Div, 0, 0, 1),
            r(Div, 0, 1, 0),
            r(Mul, 0, 0, 1),
            r(Sub, 0, 0, 0),
            r(Add, 0, 1, 0),
            r(Sqrt, 0, 0, 0),
            r(Neg, 0, 0, 0),
            r(Max, 0, 0, 1),
            r(Abs, 0, 0, 0),
            r(Min, 0, 1, 0),
            r(MovF, 1, 0, 0),
            r(Mul, 0, 0, 1),
            r(Ret, 0, 0, 0),
        ];
        let p = Program {
            name: "alias".into(),
            spans: vec![Default::default(); code.len()],
            code,
            fpool: Vec::new(),
            ipool: Vec::new(),
            n_fregs: 2,
            n_iregs: 1,
            arrays: Vec::new(),
            params: vec![
                ("x".into(), ParamBinding::Float(0)),
                ("y".into(), ParamBinding::Float(1)),
            ],
        };
        // The same sequence through the by-value methods.
        fn by_value<C: CenterValue>(x0: f64, y0: f64, cx: &AaContext) -> Affine<C> {
            let n = Protect::None;
            let mut x = Affine::<C>::from_input(x0, cx);
            let mut y = Affine::<C>::from_input(y0, cx);
            x = x.mul(&x, cx, n);
            x = x.add(&y, cx, n);
            x = y.sub(&x, cx, n);
            x = x.div(&y, cx, n);
            x = y.div(&x, cx, n);
            x = x.mul(&y, cx, n);
            x = x.sub(&x, cx, n);
            x = y.add(&x, cx, n);
            x = x.sqrt(cx, n);
            x = x.neg();
            x = x.max(&y, cx);
            x = x.abs(cx);
            x = y.min(&x, cx);
            y = x.clone();
            x.mul(&y, cx, n)
        }
        fn check<C: CenterValue>(p: &Program, config: AaConfig)
        where
            Affine<C>: Domain<Ctx = AaContext>,
        {
            let fixed = encode(p).unwrap();
            let inputs: Vec<Vec<ArgValue>> = (0..4)
                .map(|l| vec![(0.3 + 0.1 * l as f64).into(), (1.7 - 0.2 * l as f64).into()])
                .collect();
            let cxs: Vec<AaContext> = (0..4).map(|_| AaContext::new(config)).collect();
            let lanes = exec_lanes::<Affine<C>>(p, &fixed, &inputs, &cxs);
            for (l, lane) in lanes.into_iter().enumerate() {
                let [ArgValue::Float(x0), ArgValue::Float(y0)] = inputs[l][..] else {
                    unreachable!()
                };
                let want = by_value::<C>(x0, y0, &AaContext::new(config));
                let scalar = exec::<Affine<C>>(p, &inputs[l], &AaContext::new(config)).unwrap();
                for (what, got) in [("scalar", scalar), ("lanes", lane.unwrap())] {
                    let got = got.ret.unwrap();
                    let bits = |v: &Affine<C>| {
                        let terms: Vec<(u64, u64)> = v
                            .terms()
                            .iter()
                            .map(|t| (t.id, t.coeff.to_bits()))
                            .collect();
                        (format!("{:?}", v.center()), v.acc_noise().to_bits(), terms)
                    };
                    assert_eq!(bits(&got), bits(&want), "{what} lane {l} {config:?}");
                }
            }
        }
        for (k, m) in [(4, "dsnv"), (4, "dsnn"), (8, "ssnn"), (2, "sonn")] {
            let (config, _) = AaConfig::parse_mnemonic(k, m).unwrap();
            check::<f64>(&p, config);
            check::<Dd>(&p, config);
        }
    }

    #[test]
    fn single_lane_works() {
        assert_lanes_match_scalar(
            "double f(double x) { return x * x - x; }",
            &[vec![0.7.into()]],
        );
    }

    #[test]
    fn full_width_64_lanes() {
        assert_lanes_match_scalar(
            "double f(double x) { return 1.0 - 1.05 * x * x; }",
            &(0..64)
                .map(|i| vec![(0.01 * i as f64).into()])
                .collect::<Vec<_>>(),
        );
    }
}
