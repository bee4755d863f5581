//! Optimization passes over the CFG IR, and the pass manager that runs
//! them.
//!
//! Every pass must be *sound* for every numeric domain the VM can run a
//! program under, including the affine domains where an instruction
//! allocates noise symbols:
//!
//! * **CSE** merges instructions that compute bit-identical values from
//!   the same registers. Under affine domains, re-using one affine form
//!   for both occurrences *correlates* their noise symbols — which is
//!   exactly the max-reuse insight of the paper: correlation never
//!   widens an enclosure, it only lets later cancellation tighten it.
//!   Float keys are block-local; integer keys see through `MovI` copies,
//!   reach single-predecessor blocks and loop headers, and CSE then
//!   hoists loop-invariant integer code to loop preheaders. Every rule
//!   only turns an instruction into a move or moves it to a block that
//!   runs no more often, so no input executes more instructions than the
//!   unoptimized program.
//! * **Copy propagation** forwards `MovF`/`MovI` sources; moves allocate
//!   no symbols, so forwarding the source register is the identity on
//!   every domain.
//! * **DCE** removes instructions whose results are never observed.
//!   Removed FP ops would have allocated noise symbols, but symbols of a
//!   dead value never flow into a live one, so enclosures of observed
//!   values are unchanged. Ops that can trap (`DivI`, array accesses)
//!   are never removed.
//! * **Register allocation** renumbers registers by liveness-derived
//!   interference; renaming storage cannot change any computed value.
//!
//! An operation that carries a `#pragma safegen` ([`crate::OpPragma`])
//! is never merged or removed, so the pragma applies to the same
//! operation before and after optimization; its protect register counts
//! as one of its operands.

use crate::cfg::{
    ArrId, Block, BlockId, Cfg, CfgInstr, CmpOp, FReg, IReg, Inst, ParamBinding, Terminator,
};
use std::collections::{HashMap, HashSet};

/// A named rewrite of a [`Cfg`].
pub trait Pass {
    /// Stable name, as accepted by `SAFEGEN_PASSES`.
    fn name(&self) -> &'static str;
    /// Rewrites the CFG in place; returns true if anything changed.
    fn run(&self, cfg: &mut Cfg) -> bool;
}

/// Looks a pass up by its `SAFEGEN_PASSES` name.
pub fn pass_by_name(name: &str) -> Option<Box<dyn Pass>> {
    match name {
        "cse" => Some(Box::new(Cse)),
        "copy-prop" | "copyprop" => Some(Box::new(CopyProp)),
        "dce" => Some(Box::new(Dce)),
        "regalloc" => Some(Box::new(RegAlloc)),
        _ => None,
    }
}

/// An ordered list of passes to run on every lowered function.
///
/// The list is stored by name (cheap to clone, `Send`/`Sync`), so a
/// `PassManager` can live inside shared compiler state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassManager {
    names: Vec<String>,
}

impl Default for PassManager {
    fn default() -> Self {
        Self::optimizing()
    }
}

impl PassManager {
    /// The default optimizing pipeline: cse → copy-prop → dce → regalloc.
    ///
    /// CSE first (it introduces copies), copy propagation to forward
    /// them, DCE to drop the then-dead moves and any dead code, and
    /// register allocation last, once the instruction mix is final.
    pub fn optimizing() -> Self {
        Self {
            names: ["cse", "copy-prop", "dce", "regalloc"]
                .into_iter()
                .map(String::from)
                .collect(),
        }
    }

    /// The empty pipeline: lower and emit with no optimization.
    pub fn none() -> Self {
        Self { names: Vec::new() }
    }

    /// Builds a pipeline from pass names (`SAFEGEN_PASSES` syntax).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown pass.
    pub fn from_names<'a>(names: impl IntoIterator<Item = &'a str>) -> Result<Self, String> {
        let mut v = Vec::new();
        for n in names {
            let n = n.trim();
            if n.is_empty() {
                continue;
            }
            if pass_by_name(n).is_none() {
                return Err(format!(
                    "unknown pass `{n}` (known: cse, copy-prop, dce, regalloc)"
                ));
            }
            v.push(n.to_string());
        }
        Ok(Self { names: v })
    }

    /// Parses a pipeline spec (the `SAFEGEN_PASSES`/`--passes` syntax):
    /// empty, `none` or `off` → no passes; `default` → the optimizing
    /// pipeline; otherwise a comma-separated pass list.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown pass.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let v = spec.trim();
        if v.is_empty() || v == "none" || v == "off" {
            Ok(Self::none())
        } else if v == "default" {
            Ok(Self::optimizing())
        } else {
            Self::from_names(v.split(','))
        }
    }

    /// Reads `SAFEGEN_PASSES` (unset → the optimizing pipeline) and
    /// parses it with [`PassManager::from_spec`].
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown pass.
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("SAFEGEN_PASSES") {
            Err(_) => Ok(Self::optimizing()),
            Ok(v) => Self::from_spec(&v),
        }
    }

    /// The pass names, in run order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// True when no passes will run.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Runs the pipeline on one CFG; returns true if anything changed.
    pub fn run(&self, cfg: &mut Cfg) -> bool {
        let mut changed = false;
        for n in &self.names {
            let pass = pass_by_name(n).expect("validated at construction");
            changed |= pass.run(cfg);
        }
        changed
    }
}

/// A set of live registers, split by register file.
#[derive(Clone, PartialEq, Eq)]
struct LiveSet {
    f: Vec<bool>,
    i: Vec<bool>,
}

impl LiveSet {
    fn new(nf: usize, ni: usize) -> Self {
        Self {
            f: vec![false; nf],
            i: vec![false; ni],
        }
    }

    fn union(&mut self, other: &LiveSet) {
        for (a, b) in self.f.iter_mut().zip(&other.f) {
            *a |= *b;
        }
        for (a, b) in self.i.iter_mut().zip(&other.i) {
            *a |= *b;
        }
    }

    fn live_f(&self, r: FReg) -> bool {
        self.f[r as usize]
    }

    fn live_i(&self, r: IReg) -> bool {
        self.i[r as usize]
    }

    fn iter_f(&self) -> impl Iterator<Item = FReg> + '_ {
        self.f
            .iter()
            .enumerate()
            .filter(|(_, l)| **l)
            .map(|(r, _)| r as FReg)
    }

    fn iter_i(&self) -> impl Iterator<Item = IReg> + '_ {
        self.i
            .iter()
            .enumerate()
            .filter(|(_, l)| **l)
            .map(|(r, _)| r as IReg)
    }
}

/// Registers the terminator reads.
fn term_uses(term: &Terminator, live: &mut LiveSet) {
    match term {
        Terminator::Branch(c, ..) => live.i[*c as usize] = true,
        Terminator::Ret(Some(r)) => live.f[*r as usize] = true,
        _ => {}
    }
}

/// Backward transfer for one instruction: kill the def, gen the uses
/// (a protect register included).
fn step_backward(ins: &CfgInstr, live: &mut LiveSet) {
    let (pragma, ins) = (ins.pragma, &ins.inst);
    if let Some(d) = ins.def_f() {
        live.f[d as usize] = false;
    }
    if let Some(d) = ins.def_i() {
        live.i[d as usize] = false;
    }
    for u in ins.uses_f().into_iter().chain(pragma.protect) {
        live.f[u as usize] = true;
    }
    for u in ins.uses_i() {
        live.i[u as usize] = true;
    }
}

/// True if the instruction's result is unobserved in `live`.
fn def_is_dead(ins: &Inst, live: &LiveSet) -> bool {
    match (ins.def_f(), ins.def_i()) {
        (Some(d), _) => !live.live_f(d),
        (_, Some(d)) => !live.live_i(d),
        _ => false,
    }
}

/// True for instructions DCE may delete when dead: anything without a
/// side effect the VM observes. `DivI` and array accesses can trap,
/// `StoreArr` writes memory, and an operation carrying a pragma keeps
/// the pragma's place, so they all stay.
fn removable(ins: &CfgInstr) -> bool {
    ins.pragma.is_none()
        && !matches!(
            ins.inst,
            Inst::DivI(..) | Inst::LoadArr(..) | Inst::StoreArr(..)
        )
}

/// True for an instruction DCE deletes: removable, its result unobserved.
fn dead(ins: &CfgInstr, live: &LiveSet) -> bool {
    removable(ins) && def_is_dead(&ins.inst, live)
}

/// Backward liveness fixpoint. Returns per-block live-in / live-out
/// sets. With `for_dce`, uses of instructions that are themselves dead
/// do not count — the precise variant DCE needs to delete whole dead
/// chains in one sweep.
fn liveness(cfg: &Cfg, for_dce: bool) -> (Vec<LiveSet>, Vec<LiveSet>) {
    let n = cfg.blocks.len();
    let nf = cfg.n_fregs as usize;
    let ni = cfg.n_iregs as usize;
    let mut live_in = vec![LiveSet::new(nf, ni); n];
    let mut live_out = vec![LiveSet::new(nf, ni); n];
    loop {
        let mut changed = false;
        for b in (0..n).rev() {
            let mut out = LiveSet::new(nf, ni);
            for s in cfg.blocks[b].term.successors() {
                out.union(&live_in[s]);
            }
            let mut inn = out.clone();
            term_uses(&cfg.blocks[b].term, &mut inn);
            for ins in cfg.blocks[b].insts.iter().rev() {
                if for_dce && dead(ins, &inn) {
                    continue; // will be deleted; its uses are not real
                }
                step_backward(ins, &mut inn);
            }
            if out != live_out[b] {
                live_out[b] = out;
                changed = true;
            }
            if inn != live_in[b] {
                live_in[b] = inn;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (live_in, live_out)
}

/// Rewrites every register the instruction reads (a protect register
/// included).
fn map_uses(ins: &mut CfgInstr, mf: &impl Fn(FReg) -> FReg, mi: &impl Fn(IReg) -> IReg) {
    if let Some(r) = &mut ins.pragma.protect {
        *r = mf(*r);
    }
    match &mut ins.inst {
        Inst::Add(_, a, b)
        | Inst::Sub(_, a, b)
        | Inst::Mul(_, a, b)
        | Inst::Div(_, a, b)
        | Inst::Min(_, a, b)
        | Inst::Max(_, a, b)
        | Inst::CmpF(_, _, a, b) => {
            *a = mf(*a);
            *b = mf(*b);
        }
        Inst::Sqrt(_, a) | Inst::Abs(_, a) | Inst::Neg(_, a) | Inst::MovF(_, a) => *a = mf(*a),
        Inst::StoreArr(_, idx, s) => {
            *idx = mi(*idx);
            *s = mf(*s);
        }
        Inst::CastFI(_, s) => *s = mf(*s),
        Inst::AddI(_, a, b)
        | Inst::SubI(_, a, b)
        | Inst::MulI(_, a, b)
        | Inst::DivI(_, a, b)
        | Inst::CmpI(_, _, a, b) => {
            *a = mi(*a);
            *b = mi(*b);
        }
        Inst::MovI(_, s) | Inst::CastIF(_, s) => *s = mi(*s),
        Inst::LoadArr(_, _, idx) => *idx = mi(*idx),
        Inst::ConstF(..) | Inst::ConstI(..) => {}
    }
}

/// Rewrites the register the instruction writes, if any.
fn map_defs(ins: &mut Inst, mf: &impl Fn(FReg) -> FReg, mi: &impl Fn(IReg) -> IReg) {
    match ins {
        Inst::Add(d, ..)
        | Inst::Sub(d, ..)
        | Inst::Mul(d, ..)
        | Inst::Div(d, ..)
        | Inst::Sqrt(d, ..)
        | Inst::Abs(d, ..)
        | Inst::Neg(d, ..)
        | Inst::Min(d, ..)
        | Inst::Max(d, ..)
        | Inst::ConstF(d, ..)
        | Inst::MovF(d, ..)
        | Inst::CastIF(d, ..)
        | Inst::LoadArr(d, ..) => *d = mf(*d),
        Inst::ConstI(d, ..)
        | Inst::AddI(d, ..)
        | Inst::SubI(d, ..)
        | Inst::MulI(d, ..)
        | Inst::DivI(d, ..)
        | Inst::MovI(d, ..)
        | Inst::CastFI(d, ..)
        | Inst::CmpI(_, d, ..)
        | Inst::CmpF(_, d, ..) => *d = mi(*d),
        Inst::StoreArr(..) => {}
    }
}

/// Value-number key for CSE. Float keys are order-sensitive (FP ops do
/// not commute bit-for-bit); the int `add`/`mul` keys are canonicalized
/// since integer arithmetic is exact. Keys are fixed-size values, so
/// building, comparing and carrying them across blocks never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Key {
    /// Binary FP op: opcode tag + operand registers in source order.
    F2(u8, FReg, FReg),
    /// Unary FP op: opcode tag + operand register.
    F1(u8, FReg),
    /// Float constant, by bit pattern.
    FConst(u64),
    /// Int → float cast.
    FCast(IReg),
    /// Array load (invalidated by stores to the same array).
    FLoad(ArrId, IReg),
    /// Int op: opcode tag + operands (canonicalized if commutative).
    I(u8, IReg, IReg),
    /// Int constant.
    IConst(i64),
    /// Int/float comparison producing an int flag.
    ICmp(CmpOp, IReg, IReg),
    FCmp(CmpOp, FReg, FReg),
}

impl Key {
    /// True for keys over the integer file alone: the only ones CSE
    /// carries across block boundaries.
    fn is_int(&self) -> bool {
        matches!(self, Key::I(..) | Key::IConst(_) | Key::ICmp(..))
    }

    fn reads_f(&self, r: FReg) -> bool {
        match *self {
            Key::F2(_, a, b) | Key::FCmp(_, a, b) => a == r || b == r,
            Key::F1(_, a) => a == r,
            _ => false,
        }
    }

    fn reads_i(&self, r: IReg) -> bool {
        match *self {
            Key::FCast(s) | Key::FLoad(_, s) => s == r,
            Key::I(_, a, b) | Key::ICmp(_, a, b) => a == r || b == r,
            _ => false,
        }
    }
}

fn key_of(ins: &Inst) -> Option<Key> {
    Some(match *ins {
        Inst::Add(_, a, b) => Key::F2(0, a, b),
        Inst::Sub(_, a, b) => Key::F2(1, a, b),
        Inst::Mul(_, a, b) => Key::F2(2, a, b),
        Inst::Div(_, a, b) => Key::F2(3, a, b),
        Inst::Min(_, a, b) => Key::F2(4, a, b),
        Inst::Max(_, a, b) => Key::F2(5, a, b),
        Inst::Sqrt(_, a) => Key::F1(6, a),
        Inst::Abs(_, a) => Key::F1(7, a),
        Inst::Neg(_, a) => Key::F1(8, a),
        Inst::ConstF(_, c) => Key::FConst(c.to_bits()),
        Inst::CastIF(_, s) => Key::FCast(s),
        Inst::LoadArr(_, arr, idx) => Key::FLoad(arr, idx),
        Inst::ConstI(_, c) => Key::IConst(c),
        Inst::AddI(_, a, b) => Key::I(0, a.min(b), a.max(b)),
        Inst::SubI(_, a, b) => Key::I(1, a, b),
        Inst::MulI(_, a, b) => Key::I(2, a.min(b), a.max(b)),
        Inst::DivI(_, a, b) => Key::I(3, a, b),
        Inst::CmpI(op, _, a, b) => Key::ICmp(op, a, b),
        Inst::CmpF(op, _, a, b) => Key::FCmp(op, a, b),
        _ => return None,
    })
}

/// True for the instructions that read and write only the integer file;
/// CSE reads their operands through the copies in force.
fn is_int_op(ins: &Inst) -> bool {
    matches!(
        ins,
        Inst::AddI(..)
            | Inst::SubI(..)
            | Inst::MulI(..)
            | Inst::DivI(..)
            | Inst::CmpI(..)
            | Inst::MovI(..)
    )
}

/// The values CSE knows at one program point.
#[derive(Clone, Default)]
struct Avail {
    /// Keys producing a float, each with the register holding it.
    f: Vec<(Key, FReg)>,
    /// Keys producing an int, each with the register holding it.
    i: Vec<(Key, IReg)>,
    /// Int copies in force, `(dst, src)`: `i[dst] == i[src]`, and `src`
    /// is never itself the `dst` of a copy.
    copies: Vec<(IReg, IReg)>,
}

impl Avail {
    /// The register `r` copies, or `r` itself.
    fn root(&self, r: IReg) -> IReg {
        self.copies.iter().find(|c| c.0 == r).map_or(r, |c| c.1)
    }

    /// Forgets everything a new value in `f[d]` invalidates.
    fn kill_f(&mut self, d: FReg) {
        self.f.retain(|(k, v)| *v != d && !k.reads_f(d));
        self.i.retain(|(k, _)| !k.reads_f(d));
    }

    /// Forgets everything a new value in `i[d]` invalidates.
    fn kill_i(&mut self, d: IReg) {
        self.i.retain(|(k, v)| *v != d && !k.reads_i(d));
        self.f.retain(|(k, _)| !k.reads_i(d));
        self.copies.retain(|&(dst, src)| dst != d && src != d);
    }

    /// The integer facts alone, restricted to registers `keep` accepts:
    /// what may flow into another block.
    fn carried(&self, keep: impl Fn(IReg) -> bool) -> Avail {
        let regs_kept = |k: &Key, v: IReg| match *k {
            Key::I(_, a, b) | Key::ICmp(_, a, b) => keep(a) && keep(b) && keep(v),
            _ => keep(v),
        };
        Avail {
            f: Vec::new(),
            i: self
                .i
                .iter()
                .filter(|(k, v)| k.is_int() && regs_kept(k, *v))
                .copied()
                .collect(),
            copies: self
                .copies
                .iter()
                .filter(|&&(d, s)| keep(d) && keep(s))
                .copied()
                .collect(),
        }
    }

    /// The value of `r` when the facts prove it constant.
    fn constant(&self, r: IReg) -> Option<i64> {
        let r = self.root(r);
        self.i.iter().find_map(|(k, v)| match *k {
            Key::IConst(c) if *v == r => Some(c),
            _ => None,
        })
    }
}

/// The register a table holds `k` in.
fn lookup(tab: &[(Key, u32)], k: &Key) -> Option<u32> {
    tab.iter().find(|e| e.0 == *k).map(|e| e.1)
}

/// Value-numbers one block from the facts `avail` holds at its entry,
/// leaving in `avail` the facts at its exit. Returns true if anything
/// was rewritten.
fn number_block(block: &mut Block, avail: &mut Avail) -> bool {
    let mut changed = false;
    for ins in &mut block.insts {
        if is_int_op(&ins.inst) {
            let before = ins.inst.clone();
            map_uses(ins, &|r| r, &|r| avail.root(r));
            changed |= ins.inst != before;
            if matches!(ins.inst, Inst::MovI(d, s) if d == s) {
                continue; // copies what `d` already holds
            }
        }
        // An operation carrying a pragma is no merge candidate in either
        // role.
        let key = if ins.pragma.is_none() {
            key_of(&ins.inst)
        } else {
            None
        };
        let mut merged = false;
        if let Some(k) = &key {
            if let Some(d) = ins.inst.def_f() {
                if let Some(prev) = lookup(&avail.f, k) {
                    ins.inst = Inst::MovF(d, prev);
                    changed = true;
                    merged = true;
                }
            } else if let Some(d) = ins.inst.def_i() {
                if let Some(prev) = lookup(&avail.i, k) {
                    ins.inst = Inst::MovI(d, prev);
                    changed = true;
                    if prev == d {
                        continue; // recomputes what `d` already holds
                    }
                    merged = true;
                }
            }
        }
        // A store may change any element of its array.
        if let Inst::StoreArr(arr, _, _) = ins.inst {
            avail
                .f
                .retain(|(k, _)| !matches!(k, Key::FLoad(a, _) if *a == arr));
        }
        if let Some(d) = ins.inst.def_f() {
            avail.kill_f(d);
            // Record the new value, unless the instruction clobbers one
            // of its own operands (the key no longer describes it).
            if let (Some(k), false) = (key, merged) {
                if !k.reads_f(d) {
                    avail.f.push((k, d));
                }
            }
        }
        if let Some(d) = ins.inst.def_i() {
            avail.kill_i(d);
            if let Inst::MovI(_, s) = ins.inst {
                if s != d {
                    avail.copies.push((d, s));
                }
            } else if let Some(k) = key {
                if !k.reads_i(d) {
                    avail.i.push((k, d));
                }
            }
        }
    }
    changed
}

/// A loop recovered from its back edge: contiguous blocks starting at
/// `header`, entered only through `header`.
struct Loop {
    header: BlockId,
    /// The header's single predecessor outside the loop; it ends in
    /// `Jump(header)`.
    pre: BlockId,
    /// The header's in-loop successor.
    body: Option<BlockId>,
    /// Int registers defined anywhere in the loop.
    defs: Vec<bool>,
}

/// Recovers the loops of a CFG from its back edges, the way
/// `loops::loop_regions` does on bytecode: a `Jump(h)` from a block
/// `b >= h` closes the loop `h..=b` (one loop per header, at its widest
/// extent). Loops of any other shape — no single preheader ending in
/// `Jump(h)`, or a side entry — are skipped. Innermost loops come
/// first.
fn find_loops(cfg: &Cfg, preds: &[Vec<BlockId>]) -> Vec<Loop> {
    let mut ranges: Vec<(BlockId, BlockId)> = Vec::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        if let Terminator::Jump(h) = block.term {
            if h > b {
                continue;
            }
            match ranges.iter_mut().find(|r| r.0 == h) {
                Some(r) => r.1 = r.1.max(b),
                None => ranges.push((h, b)),
            }
        }
    }
    ranges.sort_by_key(|&(h, end)| end - h);
    let mut loops = Vec::new();
    for (header, end) in ranges {
        let inside = |b: BlockId| (header..=end).contains(&b);
        let mut outside = preds[header].iter().filter(|&&p| !inside(p));
        let (Some(&pre), None) = (outside.next(), outside.next()) else {
            continue;
        };
        let side_entry = (header + 1..=end).any(|b| preds[b].iter().any(|&p| !inside(p)));
        if cfg.blocks[pre].term != Terminator::Jump(header) || side_entry {
            continue;
        }
        let mut succs = cfg.blocks[header].term.successors().into_iter();
        let body = succs.find(|&s| inside(s) && s != header);
        let body = body.filter(|_| succs.all(|s| !inside(s)));
        let mut defs = vec![false; cfg.n_iregs as usize];
        for block in &cfg.blocks[header..=end] {
            for d in block.insts.iter().filter_map(|i| i.inst.def_i()) {
                defs[d as usize] = true;
            }
        }
        loops.push(Loop {
            header,
            pre,
            body,
            defs,
        });
    }
    loops
}

/// True when the loop's first test provably enters its body: folding the
/// constants known at the preheader's exit (`pre`) through the header's
/// `ConstI`/`MovI`/`AddI`/`SubI`/`MulI`/`CmpI` instructions decides the
/// header's branch toward `body`. A header ending in `Jump(body)`
/// (`for (;;)`) always enters.
fn first_test_enters(pre: &Avail, header: &Block, body: BlockId) -> bool {
    // What the header has set so far; a `None` shadows the preheader.
    let mut known: Vec<(IReg, Option<i64>)> = Vec::new();
    let get = |known: &[(IReg, Option<i64>)], r: IReg| match known.iter().rev().find(|e| e.0 == r) {
        Some(e) => e.1,
        None => pre.constant(r),
    };
    for ins in &header.insts {
        let Some(d) = ins.inst.def_i() else { continue };
        let both = |a, b| get(&known, a).zip(get(&known, b));
        let v = match ins.inst {
            Inst::ConstI(_, c) => Some(c),
            Inst::MovI(_, s) => get(&known, s),
            Inst::AddI(_, a, b) => both(a, b).and_then(|(x, y)| x.checked_add(y)),
            Inst::SubI(_, a, b) => both(a, b).and_then(|(x, y)| x.checked_sub(y)),
            Inst::MulI(_, a, b) => both(a, b).and_then(|(x, y)| x.checked_mul(y)),
            Inst::CmpI(op, _, a, b) => both(a, b).map(|(x, y)| i64::from(op.eval(x, y))),
            _ => None,
        };
        known.push((d, v));
    }
    match header.term {
        Terminator::Jump(t) => t == body,
        Terminator::Branch(c, t, e) => {
            get(&known, c).is_some_and(|v| (if v != 0 { t } else { e }) == body)
        }
        Terminator::Ret(_) => false,
    }
}

/// The blocks that branch or jump to each block, without duplicates.
fn predecessors(cfg: &Cfg) -> Vec<Vec<BlockId>> {
    let mut preds = vec![Vec::new(); cfg.blocks.len()];
    for (b, block) in cfg.blocks.iter().enumerate() {
        for s in block.term.successors() {
            if !preds[s].contains(&b) {
                preds[s].push(b);
            }
        }
    }
    preds
}

/// True for the integer instructions that may leave a loop once none of
/// their operands is defined in it (`defs`).
fn invariant(ins: &Inst, defs: &[bool]) -> bool {
    match *ins {
        Inst::ConstI(..) => true,
        Inst::AddI(_, a, b)
        | Inst::SubI(_, a, b)
        | Inst::MulI(_, a, b)
        | Inst::CmpI(_, _, a, b) => !defs[a as usize] && !defs[b as usize],
        _ => false,
    }
}

/// Moves loop-invariant integer instructions to the end of each loop's
/// preheader, innermost loop first, so code hoisted out of an inner loop
/// can leave its parents too. An instruction moves when it is
/// [`invariant`] and its destination has no other definition in the
/// function (parameters count as one) and is not read between the
/// preheader and the instruction: earlier in the header, or in the
/// body-entry block before it. It may come from the header, which runs
/// at least once per entry, or from the body-entry block when
/// [`first_test_enters`] proves that the first test enters the body; so
/// the moved code never runs more often than it did in the loop, and
/// once it has run there the destination holds the same value either
/// way. `exits` holds the facts at each block's exit.
fn hoist(cfg: &mut Cfg, loops: &[Loop], exits: &[Avail]) -> bool {
    let ni = cfg.n_iregs as usize;
    let mut ndefs = vec![0u32; ni];
    for (_, binding, _) in &cfg.params {
        if let ParamBinding::Int(r) = binding {
            ndefs[*r as usize] += 1;
        }
    }
    for d in cfg
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter_map(|i| i.inst.def_i())
    {
        ndefs[d as usize] += 1;
    }
    let mut changed = false;
    for l in loops {
        let mut defs = l.defs.clone();
        let mut read = vec![false; ni];
        let enters = l
            .body
            .filter(|&e| first_test_enters(&exits[l.pre], &cfg.blocks[l.header], e));
        let mut moved = Vec::new();
        for src in std::iter::once(l.header).chain(enters) {
            for ins in std::mem::take(&mut cfg.blocks[src].insts) {
                match ins.inst.def_i() {
                    Some(d)
                        if invariant(&ins.inst, &defs)
                            && ndefs[d as usize] == 1
                            && !read[d as usize] =>
                    {
                        defs[d as usize] = false;
                        moved.push(ins);
                    }
                    _ => {
                        for u in ins.inst.uses_i() {
                            read[u as usize] = true;
                        }
                        cfg.blocks[src].insts.push(ins);
                    }
                }
            }
            if let Terminator::Branch(c, ..) = cfg.blocks[src].term {
                read[c as usize] = true;
            }
        }
        changed |= !moved.is_empty();
        cfg.blocks[l.pre].insts.extend(moved);
    }
    changed
}

/// Common-subexpression elimination with loop-invariant code motion for
/// integer code.
///
/// A repeated instruction is replaced with a move from the first
/// occurrence's destination. Sound in every domain: the merged values
/// are bit-identical concretely, and under affine domains sharing one
/// affine form correlates the noise symbols of the two occurrences,
/// which never widens and typically tightens downstream enclosures.
/// Operations carrying a pragma are neither merged away nor used as
/// merge sources.
///
/// Integer instructions read their operands through the `MovI` copies
/// in force, so products of equal constants held in different registers
/// are one key. Integer facts also reach across blocks: a block with one
/// predecessor starts from that predecessor's exit, and a loop header
/// from its preheader's exit minus every fact that involves a register
/// the loop defines; join blocks start empty. Float keys stay
/// block-local, so the FP instruction sequence is what block-local
/// numbering gives. Finally, loop-invariant integer code moves to the
/// loop preheaders.
pub struct Cse;

impl Pass for Cse {
    fn name(&self) -> &'static str {
        "cse"
    }

    fn run(&self, cfg: &mut Cfg) -> bool {
        let preds = predecessors(cfg);
        let loops = find_loops(cfg, &preds);
        let mut exits: Vec<Avail> = Vec::with_capacity(cfg.blocks.len());
        let mut changed = false;
        for (b, block) in cfg.blocks.iter_mut().enumerate() {
            let mut avail = match loops.iter().find(|l| l.header == b) {
                Some(l) => exits[l.pre].carried(|r| !l.defs[r as usize]),
                None => match preds[b][..] {
                    [p] if p < b => exits[p].carried(|_| true),
                    _ => Avail::default(),
                },
            };
            changed |= number_block(block, &mut avail);
            exits.push(avail);
        }
        hoist(cfg, &loops, &exits) || changed
    }
}

/// Copy propagation (block-local).
///
/// Forwards `MovF`/`MovI` sources into later uses and drops identity
/// moves. Moves allocate no noise symbols, so using the source register
/// directly is the identity in every domain.
pub struct CopyProp;

impl Pass for CopyProp {
    fn name(&self) -> &'static str {
        "copy-prop"
    }

    fn run(&self, cfg: &mut Cfg) -> bool {
        let mut changed = false;
        for block in &mut cfg.blocks {
            let mut cf: HashMap<FReg, FReg> = HashMap::new();
            let mut ci: HashMap<IReg, IReg> = HashMap::new();
            let old = std::mem::take(&mut block.insts);
            for mut ins in old {
                let before = (ins.inst.clone(), ins.pragma);
                map_uses(&mut ins, &|r| cf.get(&r).copied().unwrap_or(r), &|r| {
                    ci.get(&r).copied().unwrap_or(r)
                });
                if (ins.inst.clone(), ins.pragma) != before {
                    changed = true;
                }
                match ins.inst {
                    Inst::MovF(d, s) if d == s => {
                        changed = true; // identity move: drop
                        continue;
                    }
                    Inst::MovI(d, s) if d == s => {
                        changed = true;
                        continue;
                    }
                    Inst::MovF(d, s) => {
                        cf.retain(|k, v| *k != d && *v != d);
                        cf.insert(d, s);
                        block.insts.push(ins);
                    }
                    Inst::MovI(d, s) => {
                        ci.retain(|k, v| *k != d && *v != d);
                        ci.insert(d, s);
                        block.insts.push(ins);
                    }
                    _ => {
                        if let Some(d) = ins.inst.def_f() {
                            cf.retain(|k, v| *k != d && *v != d);
                        }
                        if let Some(d) = ins.inst.def_i() {
                            ci.retain(|k, v| *k != d && *v != d);
                        }
                        block.insts.push(ins);
                    }
                }
            }
            match &mut block.term {
                Terminator::Branch(c, ..) => {
                    if let Some(&s) = ci.get(c) {
                        *c = s;
                        changed = true;
                    }
                }
                Terminator::Ret(Some(r)) => {
                    if let Some(&s) = cf.get(r) {
                        *r = s;
                        changed = true;
                    }
                }
                _ => {}
            }
        }
        changed
    }
}

/// Dead-code elimination.
///
/// Deletes instructions whose destination register is dead, using the
/// precise liveness variant so whole dead chains disappear in one run.
/// Never touches instructions that can trap, stores, or operations
/// carrying a pragma.
pub struct Dce;

impl Pass for Dce {
    fn name(&self) -> &'static str {
        "dce"
    }

    fn run(&self, cfg: &mut Cfg) -> bool {
        let mut any = false;
        loop {
            let (_, live_out) = liveness(cfg, true);
            let mut changed = false;
            for (b, block) in cfg.blocks.iter_mut().enumerate() {
                let mut live = live_out[b].clone();
                term_uses(&block.term, &mut live);
                let mut keep = vec![true; block.insts.len()];
                for (ii, ins) in block.insts.iter().enumerate().rev() {
                    if dead(ins, &live) {
                        keep[ii] = false;
                        changed = true;
                        continue;
                    }
                    step_backward(ins, &mut live);
                }
                if keep.iter().any(|k| !k) {
                    let mut it = keep.iter();
                    block.insts.retain(|_| *it.next().unwrap());
                }
            }
            if !changed {
                break;
            }
            any = true;
        }
        any
    }
}

/// Liveness-based register allocation.
///
/// Builds an interference graph from global liveness and greedily
/// recolors both register files, shrinking per-worker VM state.
/// Parameters are colored first and mutually interfere (their registers
/// are bound by the caller before entry); registers live into the entry
/// block additionally interfere with every parameter, because uninitial-
/// ized registers must keep reading the VM's zero-init, not a parameter.
pub struct RegAlloc;

impl Pass for RegAlloc {
    fn name(&self) -> &'static str {
        "regalloc"
    }

    fn run(&self, cfg: &mut Cfg) -> bool {
        let nf = cfg.n_fregs as usize;
        let ni = cfg.n_iregs as usize;
        if nf == 0 && ni == 0 {
            return false;
        }
        let (live_in, live_out) = liveness(cfg, false);
        let mut adj_f: Vec<HashSet<u32>> = vec![HashSet::new(); nf];
        let mut adj_i: Vec<HashSet<u32>> = vec![HashSet::new(); ni];
        let edge = |adj: &mut Vec<HashSet<u32>>, a: u32, b: u32| {
            if a != b {
                adj[a as usize].insert(b);
                adj[b as usize].insert(a);
            }
        };
        let fparams: Vec<FReg> = cfg
            .params
            .iter()
            .filter_map(|(_, b, _)| match b {
                crate::cfg::ParamBinding::Float(r) => Some(*r),
                _ => None,
            })
            .collect();
        let iparams: Vec<IReg> = cfg
            .params
            .iter()
            .filter_map(|(_, b, _)| match b {
                crate::cfg::ParamBinding::Int(r) => Some(*r),
                _ => None,
            })
            .collect();
        for &p in &fparams {
            for &q in &fparams {
                edge(&mut adj_f, p, q);
            }
            for r in live_in[0].iter_f() {
                edge(&mut adj_f, p, r);
            }
        }
        for &p in &iparams {
            for &q in &iparams {
                edge(&mut adj_i, p, q);
            }
            for r in live_in[0].iter_i() {
                edge(&mut adj_i, p, r);
            }
        }
        for (b, block) in cfg.blocks.iter().enumerate() {
            let mut live = live_out[b].clone();
            term_uses(&block.term, &mut live);
            for ins in block.insts.iter().rev() {
                // A def interferes with everything live across it — even
                // a dead def must not clobber a live register.
                if let Some(d) = ins.inst.def_f() {
                    for l in live.iter_f() {
                        edge(&mut adj_f, d, l);
                    }
                }
                if let Some(d) = ins.inst.def_i() {
                    for l in live.iter_i() {
                        edge(&mut adj_i, d, l);
                    }
                }
                step_backward(ins, &mut live);
            }
        }
        let color_f = color(nf, &adj_f, &fparams);
        let color_i = color(ni, &adj_i, &iparams);
        let mf = |r: FReg| color_f[r as usize];
        let mi = |r: IReg| color_i[r as usize];
        let identity = color_f.iter().enumerate().all(|(i, &c)| c == i as u32)
            && color_i.iter().enumerate().all(|(i, &c)| c == i as u32);
        for block in &mut cfg.blocks {
            for ins in &mut block.insts {
                map_uses(ins, &mf, &mi);
                map_defs(&mut ins.inst, &mf, &mi);
            }
            match &mut block.term {
                Terminator::Branch(c, ..) => *c = mi(*c),
                Terminator::Ret(Some(r)) => *r = mf(*r),
                _ => {}
            }
            // Renumbering can turn moves into no-ops; drop them.
            block.insts.retain(|ins| match ins.inst {
                Inst::MovF(d, s) => d != s,
                Inst::MovI(d, s) => d != s,
                _ => true,
            });
        }
        for (_, binding, _) in &mut cfg.params {
            match binding {
                crate::cfg::ParamBinding::Float(r) => *r = mf(*r),
                crate::cfg::ParamBinding::Int(r) => *r = mi(*r),
                crate::cfg::ParamBinding::Array(_) => {}
            }
        }
        let new_nf = color_f.iter().copied().max().map_or(0, |m| m + 1);
        let new_ni = color_i.iter().copied().max().map_or(0, |m| m + 1);
        cfg.n_fregs = new_nf;
        cfg.n_iregs = new_ni;
        // Home names keyed by original register numbers no longer apply.
        cfg.fnames = vec![None; new_nf as usize];
        cfg.inames = vec![None; new_ni as usize];
        for (name, binding, _) in &cfg.params {
            match binding {
                crate::cfg::ParamBinding::Float(r) => {
                    cfg.fnames[*r as usize] = Some(name.clone());
                }
                crate::cfg::ParamBinding::Int(r) => {
                    cfg.inames[*r as usize] = Some(name.clone());
                }
                crate::cfg::ParamBinding::Array(_) => {}
            }
        }
        !identity
    }
}

/// Greedy graph coloring; `first` registers (parameters) are colored
/// before the rest so callers' binding order stays dense and stable.
fn color(n: usize, adj: &[HashSet<u32>], first: &[u32]) -> Vec<u32> {
    let mut colors = vec![u32::MAX; n];
    let order = first
        .iter()
        .copied()
        .chain((0..n as u32).filter(|r| !first.contains(r)));
    for r in order {
        if colors[r as usize] != u32::MAX {
            continue;
        }
        let used: HashSet<u32> = adj[r as usize]
            .iter()
            .map(|&x| colors[x as usize])
            .filter(|&c| c != u32::MAX)
            .collect();
        let mut c = 0;
        while used.contains(&c) {
            c += 1;
        }
        colors[r as usize] = c;
    }
    colors
}

#[cfg(test)]
mod tests {
    use super::*;
    use safegen_cfront::{analyze, parse};

    fn lower(src: &str) -> Cfg {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let (tac, sema) = crate::to_tac_with_sema(&unit, &sema);
        crate::lower_function(&tac.functions[0], &sema).unwrap()
    }

    fn optimized(src: &str) -> Cfg {
        let mut cfg = lower(src);
        PassManager::optimizing().run(&mut cfg);
        cfg
    }

    fn count(cfg: &Cfg, pred: impl Fn(&Inst) -> bool) -> usize {
        cfg.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| pred(&i.inst))
            .count()
    }

    #[test]
    fn cse_merges_duplicate_fp_ops() {
        let cfg =
            optimized("double f(double x) { double a = x * x; double b = x * x; return a + b; }");
        assert_eq!(count(&cfg, |i| matches!(i, Inst::Mul(..))), 1);
        assert_eq!(count(&cfg, |i| matches!(i, Inst::Add(..))), 1);
        assert_eq!(count(&cfg, |i| matches!(i, Inst::MovF(..))), 0);
    }

    /// Runs a CFG concretely (`f64` arithmetic, exact ints): float
    /// parameters take `x`, int parameters `n`, arrays a fixed pattern.
    /// Returns the result's bits, every array's bits and the number of
    /// instructions executed (terminators excluded: no pass edits them).
    fn execute(cfg: &Cfg, x: f64, n: i64) -> (Option<u64>, Vec<Vec<u64>>, usize) {
        let mut f = vec![0.0f64; cfg.n_fregs as usize];
        let mut i = vec![0i64; cfg.n_iregs as usize];
        let mut arrs: Vec<Vec<f64>> = cfg
            .arrays
            .iter()
            .map(|a| (0..a.len).map(|k| 0.5 + 0.25 * k as f64).collect())
            .collect();
        for (_, binding, _) in &cfg.params {
            match *binding {
                ParamBinding::Float(r) => f[r as usize] = x,
                ParamBinding::Int(r) => i[r as usize] = n,
                ParamBinding::Array(_) => {}
            }
        }
        let (mut b, mut steps) = (0, 0);
        loop {
            for ins in &cfg.blocks[b].insts {
                steps += 1;
                let (fr, ir) = (|r: FReg| f[r as usize], |r: IReg| i[r as usize]);
                match ins.inst {
                    Inst::Add(d, a, c) => f[d as usize] = fr(a) + fr(c),
                    Inst::Sub(d, a, c) => f[d as usize] = fr(a) - fr(c),
                    Inst::Mul(d, a, c) => f[d as usize] = fr(a) * fr(c),
                    Inst::Div(d, a, c) => f[d as usize] = fr(a) / fr(c),
                    Inst::Min(d, a, c) => f[d as usize] = fr(a).min(fr(c)),
                    Inst::Max(d, a, c) => f[d as usize] = fr(a).max(fr(c)),
                    Inst::Sqrt(d, a) => f[d as usize] = fr(a).sqrt(),
                    Inst::Abs(d, a) => f[d as usize] = fr(a).abs(),
                    Inst::Neg(d, a) => f[d as usize] = -fr(a),
                    Inst::ConstF(d, c) => f[d as usize] = c,
                    Inst::MovF(d, a) => f[d as usize] = fr(a),
                    Inst::CastIF(d, a) => f[d as usize] = ir(a) as f64,
                    Inst::LoadArr(d, arr, idx) => {
                        f[d as usize] = arrs[arr as usize][ir(idx) as usize]
                    }
                    Inst::StoreArr(arr, idx, s) => arrs[arr as usize][ir(idx) as usize] = fr(s),
                    Inst::ConstI(d, c) => i[d as usize] = c,
                    Inst::AddI(d, a, c) => i[d as usize] = ir(a) + ir(c),
                    Inst::SubI(d, a, c) => i[d as usize] = ir(a) - ir(c),
                    Inst::MulI(d, a, c) => i[d as usize] = ir(a) * ir(c),
                    Inst::DivI(d, a, c) => i[d as usize] = ir(a) / ir(c),
                    Inst::MovI(d, a) => i[d as usize] = ir(a),
                    Inst::CastFI(d, a) => i[d as usize] = fr(a) as i64,
                    Inst::CmpI(op, d, a, c) => i[d as usize] = i64::from(op.eval(ir(a), ir(c))),
                    Inst::CmpF(op, d, a, c) => i[d as usize] = i64::from(op.eval(fr(a), fr(c))),
                }
            }
            b = match cfg.blocks[b].term {
                Terminator::Jump(t) => t,
                Terminator::Branch(c, t, e) => {
                    if i[c as usize] != 0 {
                        t
                    } else {
                        e
                    }
                }
                Terminator::Ret(r) => {
                    let bits = arrs.iter().map(|a| a.iter().map(|v| v.to_bits()).collect());
                    return (r.map(|r| f[r as usize].to_bits()), bits.collect(), steps);
                }
            };
        }
    }

    /// Every `.c` file of the test corpus, read from the workspace root.
    fn corpus() -> Vec<(String, String)> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "c"))
            .collect();
        files.sort();
        files
            .into_iter()
            .map(|p| (p.display().to_string(), std::fs::read_to_string(p).unwrap()))
            .collect()
    }

    /// Every function of `src`, lowered.
    fn lower_all(src: &str) -> Vec<Cfg> {
        let unit = safegen_cfront::rename_unique(&parse(src).unwrap());
        let sema = analyze(&unit).unwrap();
        let (tac, sema) = crate::to_tac_with_sema(&unit, &sema);
        tac.functions
            .iter()
            .map(|f| crate::lower_function(f, &sema).unwrap())
            .collect()
    }

    /// The blocks holding an instruction `pred` accepts.
    fn block_of(cfg: &Cfg, pred: impl Fn(&Inst) -> bool) -> Vec<BlockId> {
        (0..cfg.blocks.len())
            .filter(|&b| cfg.blocks[b].insts.iter().any(|i| pred(&i.inst)))
            .collect()
    }

    fn muls_in(cfg: &Cfg, b: BlockId) -> usize {
        let insts = &cfg.blocks[b].insts;
        insts
            .iter()
            .filter(|i| matches!(i.inst, Inst::MulI(..)))
            .count()
    }

    #[test]
    fn cse_sees_through_constant_copies() {
        // ROADMAP item 1: every subscript computes `i*10` from its own
        // `const 10` temp; once the constants are one register, so are
        // the four products.
        let src = "void f(double G[10][10], int i, int j) {
            G[i][j] = G[i][j - 1] + G[i][j + 1] + G[i][j]; }";
        let lowered = lower(src);
        assert_eq!(count(&lowered, |i| matches!(i, Inst::MulI(..))), 4);
        let cfg = optimized(src);
        assert_eq!(count(&cfg, |i| matches!(i, Inst::MulI(..))), 1);
        assert_eq!(count(&cfg, |i| matches!(i, Inst::ConstI(_, 10))), 1);
    }

    #[test]
    fn header_invariants_leave_and_body_invariants_stay_in_a_while() {
        // `n + m*2` is the header's and may leave; the body's `m*3` may
        // not, since nothing proves the body runs when n <= 0.
        let src = "double f(double x, int n, int m) {
            int t = 0;
            while (t < n + m * 2) {
                int u = m * 3;
                x = x * u + 1.0;
                t = t + 1;
            }
            return x; }";
        let unopt = lower(src);
        let cfg = optimized(src);
        let entry_const = |c: i64| {
            let insts = &cfg.blocks[0].insts;
            insts
                .iter()
                .any(|i| matches!(i.inst, Inst::ConstI(_, k) if k == c))
        };
        assert!(entry_const(2), "header constant hoisted:\n{}", cfg.dump());
        assert!(!entry_const(3), "body constant stays:\n{}", cfg.dump());
        assert_eq!(muls_in(&cfg, 0), 1, "m*2 hoisted, m*3 not");
        for n in [0, -2, 5] {
            let (r0, _, steps0) = execute(&unopt, 0.75, n);
            let (r1, _, steps1) = execute(&cfg, 0.75, n);
            assert_eq!(r0, r1, "n = {n}");
            assert!(
                steps1 <= steps0,
                "n = {n}: {steps1} > {steps0} instructions"
            );
        }
    }

    #[test]
    fn constant_trip_for_hoists_its_body_entry_but_not_an_if_arm() {
        let src = "void f(double a[40], int m, int n) {
            for (int j = 1; j < 9; j++) {
                a[m * 3 + 1] = a[j - 1];
                if (j < 4) { a[n * 5] = 1.0; }
            } }";
        let cfg = optimized(src);
        assert_eq!(muls_in(&cfg, 0), 1, "m*3 leaves the loop:\n{}", cfg.dump());
        let if_arm = block_of(&cfg, |i| matches!(i, Inst::ConstF(..)));
        assert_eq!(if_arm.len(), 1);
        assert_eq!(muls_in(&cfg, if_arm[0]), 1, "n*5 stays in its if arm");
        let (_, a0, steps0) = execute(&lower(src), 0.0, 2);
        let (_, a1, steps1) = execute(&cfg, 0.0, 2);
        assert_eq!(a0, a1);
        assert!(steps1 < steps0);
    }

    #[test]
    fn traps_casts_and_loads_never_move() {
        let src = "void f(double a[8], double x, int m) {
            for (int j = 0; j < 8; j++) {
                int q = m / 3;
                int c = (int) x;
                a[j] = a[q + c] + a[2];
            } }";
        let cfg = optimized(src);
        for (what, found) in [
            ("divi", block_of(&cfg, |i| matches!(i, Inst::DivI(..)))),
            ("ftoi", block_of(&cfg, |i| matches!(i, Inst::CastFI(..)))),
            ("load", block_of(&cfg, |i| matches!(i, Inst::LoadArr(..)))),
        ] {
            assert!(
                !found.is_empty() && !found.contains(&0),
                "{what} moved:\n{}",
                cfg.dump()
            );
        }
    }

    #[test]
    fn cse_after_regalloc_preserves_the_corpus() {
        // Registers with several definitions: every rule must still hold.
        let late = PassManager::from_names(["regalloc", "cse", "copy-prop", "dce"]).unwrap();
        for (path, src) in corpus() {
            for unopt in lower_all(&src) {
                for pm in [&late, &PassManager::optimizing()] {
                    let mut cfg = unopt.clone();
                    pm.run(&mut cfg);
                    for n in [0, 3] {
                        let (r0, a0, steps0) = execute(&unopt, 0.75, n);
                        let (r1, a1, steps1) = execute(&cfg, 0.75, n);
                        let at = format!("{path} {} {:?} n={n}", unopt.name, pm.names());
                        assert_eq!((r0, a0), (r1, a1), "{at}");
                        assert!(steps1 <= steps0, "{at}: {steps1} > {steps0}");
                    }
                }
            }
        }
    }

    #[test]
    fn cse_respects_redefinition() {
        // x changes between the two products: they must not merge.
        let cfg = optimized(
            "double f(double x, double y) {
                double a = x * y; x = x + 1.0; double b = x * y; return a + b; }",
        );
        assert_eq!(count(&cfg, |i| matches!(i, Inst::Mul(..))), 2);
    }

    #[test]
    fn dce_removes_dead_computation() {
        let cfg = optimized("double f(double x) { double d = x * 2.0; return x; }");
        assert_eq!(count(&cfg, |i| matches!(i, Inst::Mul(..))), 0);
        assert_eq!(count(&cfg, |i| matches!(i, Inst::ConstF(..))), 0);
    }

    #[test]
    fn dce_keeps_loop_carried_values() {
        let cfg = optimized(
            "double f(double x) { for (int i = 0; i < 3; i++) { x = x * 0.5; } return x; }",
        );
        assert_eq!(count(&cfg, |i| matches!(i, Inst::Mul(..))), 1);
    }

    #[test]
    fn copy_prop_forwards_aliases() {
        let cfg = optimized("double f(double x) { double y = x; return y * y; }");
        assert_eq!(count(&cfg, |i| matches!(i, Inst::MovF(..))), 0);
        assert_eq!(cfg.inst_count(), 1, "only the multiply remains");
    }

    #[test]
    fn regalloc_shrinks_register_file() {
        let src = "double f(double x) {
            double a = x + 1.0; double b = a * 2.0; double c = b - 3.0; return c; }";
        let unopt = lower(src);
        let opt = optimized(src);
        assert!(
            opt.n_fregs < unopt.n_fregs,
            "{} !< {}",
            opt.n_fregs,
            unopt.n_fregs
        );
    }

    #[test]
    fn pragma_ops_survive_cse_and_dce() {
        let cfg = optimized(
            "void f(double x, double z) { double a = x * z;\n#pragma safegen prioritize(z)\nx = x * z; }",
        );
        // The unprotected duplicate is dead and removable; the protected
        // one must survive with its pragma, its protect register renamed
        // with the rest.
        let muls: Vec<&CfgInstr> = cfg.blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i.inst, Inst::Mul(..)))
            .collect();
        assert_eq!(muls.len(), 1);
        let Inst::Mul(_, _, z) = muls[0].inst else {
            unreachable!()
        };
        assert_eq!(muls[0].pragma.protect, Some(z));
    }

    #[test]
    fn spans_and_provenance_survive_optimization() {
        let cfg = optimized("double f(double x) { double y = x * x; return y; }");
        let mul = cfg
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find(|i| matches!(i.inst, Inst::Mul(..)))
            .unwrap();
        assert_eq!(mul.var.as_deref(), Some("y"));
        assert!(mul.span.end > mul.span.start);
    }

    #[test]
    fn pass_manager_rejects_unknown_names() {
        assert!(PassManager::from_names(["cse", "bogus"]).is_err());
        let pm = PassManager::from_names(["dce", " cse "]).unwrap();
        assert_eq!(pm.names(), ["dce", "cse"]);
    }

    #[test]
    fn pass_manager_reads_environment() {
        // Sole test touching SAFEGEN_PASSES: no other test in this
        // binary may read it concurrently.
        std::env::set_var("SAFEGEN_PASSES", "cse,dce");
        assert_eq!(PassManager::from_env().unwrap().names(), ["cse", "dce"]);
        std::env::set_var("SAFEGEN_PASSES", "none");
        assert!(PassManager::from_env().unwrap().is_empty());
        std::env::set_var("SAFEGEN_PASSES", "nonsense");
        assert!(PassManager::from_env().is_err());
        std::env::remove_var("SAFEGEN_PASSES");
        assert_eq!(PassManager::from_env().unwrap(), PassManager::optimizing());
    }
}
