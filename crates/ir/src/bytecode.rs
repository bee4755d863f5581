//! Register bytecode and the CFG → bytecode emitter.
//!
//! The VM executes programs compiled to a small register machine:
//! floating-point values (of whatever numeric domain) live in an `FReg`
//! file, loop indices in an `IReg` file, arrays in a side table. Names are
//! resolved at compile time, so executing an instruction costs a couple of
//! array indexings — keeping the VM dispatch overhead small relative to
//! the O(k) affine kernels the evaluation measures.
//!
//! Every instruction is one twelve-byte [`FixedInstr`] record, and the
//! same records are what the emitter writes, the artifact stores, and
//! every interpreter (scalar VM, fixpoint engine, exact oracle, lane
//! engine) runs. Constants live in the program's interned pools, and jump
//! immediates are instruction indices. A `#pragma safegen` is an operand
//! of the FP operation it governs: flag bits in `aux`, with the protect
//! register and the capacity packed into `imm`.
//!
//! The bytecode is the **stable artifact surface** of the compiler: a
//! [`Program`] is plain data (`Send + Sync`, no interior mutability), so
//! it can be shared across evaluation threads, serialized into the
//! versioned artifact container (`safegen-artifact`, see
//! `docs/ARTIFACT.md`), and reloaded without recompiling.
//! [`Program::validate`] is the one operand check both producers of a
//! program — [`emit_program`] and the artifact loader — run.
//!
//! Compilation goes through the shared CFG middle-end: the function is
//! lowered once (see [`crate::lower_function`]), the configured
//! [`crate::PassManager`] pipeline optimizes the CFG in place, and
//! [`emit_program`] linearizes the blocks — in creation order, eliding
//! jumps to the next block — into the flat instruction stream the VM
//! dispatches over.

use crate::cfg::{render_pragma, ArrayDecl, Cfg, CmpOp, Inst, OpPragma, ParamBinding, Terminator};
use safegen_cfront::Span;
use std::collections::HashMap;
use std::fmt;

/// Most entries a register file or the array table may hold: the
/// records' operand fields are `u16`.
pub const MAX_REGS: usize = 1 << 16;

/// `aux` bit of an FP operation that protects the symbols of
/// `f[imm & 0xffff]` while it runs (`#pragma safegen prioritize`).
pub const PRAGMA_PROTECT: u8 = 1;
/// `aux` bit of an FP operation that runs with symbol budget
/// `imm >> 16` (`#pragma safegen capacity`).
pub const PRAGMA_CAPACITY: u8 = 2;

/// Operation selector of a [`FixedInstr`].
///
/// The last five opcodes are **superinstructions**: the statically
/// commonest adjacent pairs (see [`pair_histogram`]) collapsed into one
/// dispatch. Only the lane engine's [`encode`] produces them, and a
/// stored [`Program`] never holds one. Fusion is dispatch-only — a fused
/// pair executes exactly the two source instructions back to back, with
/// identical per-instruction bookkeeping — so results and run statistics
/// stay bit-identical to the one-instruction-at-a-time interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpCode {
    /// `f[dst] = f[a] + f[b]`
    Add,
    /// `f[dst] = f[a] − f[b]`
    Sub,
    /// `f[dst] = f[a] · f[b]`
    Mul,
    /// `f[dst] = f[a] / f[b]`
    Div,
    /// `f[dst] = √f[a]`
    Sqrt,
    /// `f[dst] = |f[a]|`
    Abs,
    /// `f[dst] = −f[a]`
    Neg,
    /// `f[dst] = min(f[a], f[b])`
    Min,
    /// `f[dst] = max(f[a], f[b])`
    Max,
    /// `f[dst] = fpool[imm]` (the domain may attach a 1-ulp symbol)
    ConstF,
    /// `f[dst] = f[a]`
    MovF,
    /// `f[dst] = (double) i[a]` — exact for the index range used
    CastIF,
    /// `f[dst] = arrays[a][i[b]]`
    LoadArr,
    /// `arrays[dst][i[a]] = f[b]`
    StoreArr,
    /// `i[dst] = ipool[imm]`
    ConstI,
    /// `i[dst] = i[a] + i[b]` (wrapping)
    AddI,
    /// `i[dst] = i[a] − i[b]` (wrapping)
    SubI,
    /// `i[dst] = i[a] · i[b]` (wrapping)
    MulI,
    /// `i[dst] = i[a] / i[b]`; division by zero and `MIN / −1` are
    /// runtime errors
    DivI,
    /// `i[dst] = i[a]`
    MovI,
    /// `i[dst] = (int) f[a]` (center truncation)
    CastFI,
    /// `i[dst] = i[a] cmp i[b]` as 0/1 (`aux` selects the comparison)
    CmpI,
    /// `i[dst] = f[a] cmp f[b]` as 0/1 (`aux` selects the comparison) —
    /// soundly when the enclosures are disjoint, else by centers
    /// (recorded in the run stats)
    CmpF,
    /// Unconditional jump to instruction `imm`.
    Jump,
    /// Jump to instruction `imm` when `i[a] == 0`.
    JumpIfZero,
    /// Return `f[a]`.
    Ret,
    /// Return nothing.
    RetVoid,
    /// `f[dst] = f[a] · f[b]; f[d2] = result + f[c]` where `aux = 0`
    /// places the multiply result on the left of the add, `1` on the
    /// right (`imm` packs `d2` and `c`, see [`FixedInstr::d2`]).
    MulThenAdd,
    /// `f[dst] = f[a] · f[b]; f[d2] = result − f[c]` (`aux = 0`) or
    /// `f[c] − result` (`aux = 1`).
    MulThenSub,
    /// `i[dst] = i[a] · i[b]; i[d2] = result + i[c]` — the flattened 2-D
    /// index computation `i*cols + j`.
    MulIThenAddI,
    /// `i[dst] = i[a] cmp i[b]; if i[dst] == 0 jump imm` — the loop-head
    /// compare-and-branch.
    CmpIJump,
    /// `i[dst] = f[a] cmp f[b]; if i[dst] == 0 jump imm`.
    CmpFJump,
}

/// What a record's `dst`, `a` or `b` field indexes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// Nothing: the field must be 0.
    Unused,
    /// A float register.
    FReg,
    /// An integer register.
    IReg,
    /// An array id.
    Array,
}

/// What a record's `imm` field holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Imm {
    /// Nothing: the field must be 0.
    Unused,
    /// An index into the program's `fpool`.
    FPool,
    /// An index into the program's `ipool`.
    IPool,
    /// A jump target, `≤ code.len()` (the length itself falls off the
    /// end, a void return).
    Target,
    /// The pragma of an FP operation: the protect register in the low
    /// half, the capacity in the high half, each 0 unless its `aux` bit
    /// is set.
    Pragma,
}

impl OpCode {
    /// Every opcode in byte order: `ALL[op as usize] == op`.
    pub const ALL: [OpCode; 32] = {
        use OpCode::*;
        [
            Add,
            Sub,
            Mul,
            Div,
            Sqrt,
            Abs,
            Neg,
            Min,
            Max,
            ConstF,
            MovF,
            CastIF,
            LoadArr,
            StoreArr,
            ConstI,
            AddI,
            SubI,
            MulI,
            DivI,
            MovI,
            CastFI,
            CmpI,
            CmpF,
            Jump,
            JumpIfZero,
            Ret,
            RetVoid,
            MulThenAdd,
            MulThenSub,
            MulIThenAddI,
            CmpIJump,
            CmpFJump,
        ]
    };

    /// The opcode whose byte is `b`.
    pub fn from_byte(b: u8) -> Option<OpCode> {
        OpCode::ALL.get(usize::from(b)).copied()
    }

    /// What the `dst`, `a` and `b` fields index and what `imm` holds;
    /// `None` for the superinstructions, which only [`encode`] produces.
    pub fn operands(self) -> Option<([Operand; 3], Imm)> {
        use OpCode::*;
        use Operand::{Array as A, FReg as F, IReg as I, Unused as U};
        Some(match self {
            Add | Sub | Mul | Div | Min | Max => ([F, F, F], Imm::Pragma),
            Sqrt | Abs | Neg => ([F, F, U], Imm::Pragma),
            MovF => ([F, F, U], Imm::Unused),
            ConstF => ([F, U, U], Imm::FPool),
            CastIF => ([F, I, U], Imm::Unused),
            LoadArr => ([F, A, I], Imm::Unused),
            StoreArr => ([A, I, F], Imm::Unused),
            ConstI => ([I, U, U], Imm::IPool),
            AddI | SubI | MulI | DivI | CmpI => ([I, I, I], Imm::Unused),
            MovI => ([I, I, U], Imm::Unused),
            CastFI => ([I, F, U], Imm::Unused),
            CmpF => ([I, F, F], Imm::Unused),
            Jump => ([U, U, U], Imm::Target),
            JumpIfZero => ([U, I, U], Imm::Target),
            Ret => ([U, F, U], Imm::Unused),
            RetVoid => ([U, U, U], Imm::Unused),
            MulThenAdd | MulThenSub | MulIThenAddI | CmpIJump | CmpFJump => return None,
        })
    }

    /// Short mnemonic (the [`pair_histogram`] label).
    pub fn mnemonic(self) -> &'static str {
        match self {
            OpCode::Add => "add",
            OpCode::Sub => "sub",
            OpCode::Mul => "mul",
            OpCode::Div => "div",
            OpCode::Sqrt => "sqrt",
            OpCode::Abs => "abs",
            OpCode::Neg => "neg",
            OpCode::Min => "min",
            OpCode::Max => "max",
            OpCode::ConstF => "constf",
            OpCode::MovF => "movf",
            OpCode::CastIF => "castif",
            OpCode::LoadArr => "loadarr",
            OpCode::StoreArr => "storearr",
            OpCode::ConstI => "consti",
            OpCode::AddI => "addi",
            OpCode::SubI => "subi",
            OpCode::MulI => "muli",
            OpCode::DivI => "divi",
            OpCode::MovI => "movi",
            OpCode::CastFI => "castfi",
            OpCode::CmpI => "cmpi",
            OpCode::CmpF => "cmpf",
            OpCode::Jump => "jump",
            OpCode::JumpIfZero => "jumpifzero",
            OpCode::Ret | OpCode::RetVoid => "ret",
            OpCode::MulThenAdd => "mul+add",
            OpCode::MulThenSub => "mul+sub",
            OpCode::MulIThenAddI => "muli+addi",
            OpCode::CmpIJump => "cmpi+jumpifzero",
            OpCode::CmpFJump => "cmpf+jumpifzero",
        }
    }
}

/// One fixed-width instruction: opcode + selector + three `u16`
/// register/array operands + a 32-bit immediate (pool index, jump
/// target, a pragma's operands, or packed second destination of a
/// superinstruction).
///
/// Twelve bytes, `Copy`, no interior `enum` payloads to destructure —
/// an interpreter decodes an instruction with plain field reads instead
/// of a tag match over heterogeneous variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedInstr {
    /// Operation selector.
    pub op: OpCode,
    /// Comparison code for `CmpI`/`CmpF`(+`Jump`), pragma bits
    /// ([`PRAGMA_PROTECT`], [`PRAGMA_CAPACITY`]) for the FP operations,
    /// left/right flag for the arithmetic superinstructions; 0 otherwise.
    pub aux: u8,
    /// Destination register (or array id for `StoreArr`).
    pub dst: u16,
    /// First source operand.
    pub a: u16,
    /// Second source operand.
    pub b: u16,
    /// Immediate: constant-pool index, jump target, packed `d2`/`c` of a
    /// superinstruction, or a pragma's protect register and capacity.
    pub imm: u32,
}

impl FixedInstr {
    /// The record `op dst, a, b` with `aux` and `imm` zero.
    pub const fn new(op: OpCode, dst: u16, a: u16, b: u16) -> FixedInstr {
        FixedInstr {
            op,
            aux: 0,
            dst,
            a,
            b,
            imm: 0,
        }
    }

    /// This record with its comparison selector set to `op` (the
    /// selector is `op`'s declaration index, `Lt` = 0 … `Ne` = 5).
    pub const fn with_cmp(self, op: CmpOp) -> FixedInstr {
        FixedInstr {
            aux: op as u8,
            ..self
        }
    }

    /// This record with immediate `imm`.
    pub const fn with_imm(self, imm: u32) -> FixedInstr {
        FixedInstr { imm, ..self }
    }

    /// This FP-operation record carrying pragma `p`.
    pub fn with_pragma(self, p: OpPragma) -> FixedInstr {
        let mut out = self;
        if let Some(r) = p.protect {
            out.aux |= PRAGMA_PROTECT;
            out.imm |= r;
        }
        if let Some(k) = p.capacity {
            out.aux |= PRAGMA_CAPACITY;
            out.imm |= u32::from(k) << 16;
        }
        out
    }

    /// The register whose symbols this operation protects (a
    /// `prioritize` on a `+ − × ÷ √`).
    #[inline(always)]
    pub fn protect(&self) -> Option<usize> {
        let on = self.op as u8 <= OpCode::Sqrt as u8 && self.aux & PRAGMA_PROTECT != 0;
        on.then_some((self.imm & 0xffff) as usize)
    }

    /// The symbol budget this operation runs with (a `capacity` on an FP
    /// operation).
    #[inline(always)]
    pub fn capacity(&self) -> Option<usize> {
        let on = self.op as u8 <= OpCode::Max as u8 && self.aux & PRAGMA_CAPACITY != 0;
        on.then_some((self.imm >> 16) as usize)
    }

    /// Second destination register of a fused arithmetic pair.
    #[inline(always)]
    pub fn d2(&self) -> u16 {
        (self.imm >> 16) as u16
    }

    /// Non-fused source operand of a fused arithmetic pair.
    #[inline(always)]
    pub fn c(&self) -> u16 {
        self.imm as u16
    }

    /// The comparison `aux` encodes (for the `Cmp*` opcodes).
    #[inline(always)]
    pub fn cmp_op(&self) -> CmpOp {
        match self.aux {
            0 => CmpOp::Lt,
            1 => CmpOp::Le,
            2 => CmpOp::Gt,
            3 => CmpOp::Ge,
            4 => CmpOp::Eq,
            _ => CmpOp::Ne,
        }
    }

    /// The jump target of a `Jump` or `JumpIfZero`.
    #[inline]
    pub fn target(&self) -> Option<usize> {
        matches!(self.op, OpCode::Jump | OpCode::JumpIfZero).then_some(self.imm as usize)
    }
}

/// A compiled program: instructions plus the register/array layout.
///
/// This is the unit the artifact format serializes — everything the VM
/// needs to execute the function under any numeric domain, and nothing
/// tied to the compilation session (no caches, no interior mutability).
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    /// Function name.
    pub name: String,
    /// The instruction stream (no superinstructions).
    pub code: Vec<FixedInstr>,
    /// Interned float literals (`ConstF` indexes by `imm`).
    pub fpool: Vec<f64>,
    /// Interned integer literals (`ConstI` indexes by `imm`).
    pub ipool: Vec<i64>,
    /// Number of float registers.
    pub n_fregs: usize,
    /// Number of int registers.
    pub n_iregs: usize,
    /// Array table layout.
    pub arrays: Vec<ArrayDecl>,
    /// Parameter bindings, in declaration order (name, binding).
    pub params: Vec<(String, ParamBinding)>,
    /// Source spans per instruction (diagnostics).
    pub spans: Vec<Span>,
}

impl Program {
    /// Checks the program against everything its interpreters index
    /// without a check of their own: register files and the array table
    /// within [`MAX_REGS`], and per record the
    /// operand fields inside their register file or the array table, the
    /// immediate inside its pool or the code (jump targets may equal
    /// `code.len()`), a comparison selector of 0–5, pragma bits only where
    /// the opcode can carry them with a protect register inside the float
    /// file and a capacity of at least 1, zero in every unused field, and
    /// no superinstruction.
    ///
    /// # Errors
    ///
    /// The first violation, naming the limit or the instruction index.
    pub fn validate(&self) -> Result<(), String> {
        let layout = [
            ("float registers", self.n_fregs),
            ("int registers", self.n_iregs),
            ("arrays", self.arrays.len()),
        ];
        for (what, n) in layout {
            if n > MAX_REGS {
                return Err(format!(
                    "`{}` needs {n} {what}; the bytecode holds at most {MAX_REGS}",
                    self.name
                ));
            }
        }
        for (pc, ins) in self.code.iter().enumerate() {
            let Some((fields, imm)) = ins.op.operands() else {
                return Err(format!(
                    "instruction {pc}: superinstruction {:?} in stored code",
                    ins.op
                ));
            };
            let values = [("dst", ins.dst), ("a", ins.a), ("b", ins.b)];
            for ((field, value), kind) in values.into_iter().zip(fields) {
                let limit = match kind {
                    Operand::Unused => 1,
                    Operand::FReg => self.n_fregs,
                    Operand::IReg => self.n_iregs,
                    Operand::Array => self.arrays.len(),
                };
                if usize::from(value) >= limit {
                    return Err(format!(
                        "instruction {pc} ({:?}): {field} = {value} out of range ({kind:?}, \
                         limit {limit})",
                        ins.op
                    ));
                }
            }
            let limit = match imm {
                // The pragma bits take the place of the selector.
                Imm::Pragma => {
                    self.validate_pragma(pc, ins)?;
                    continue;
                }
                Imm::Unused => 1,
                Imm::FPool => self.fpool.len(),
                Imm::IPool => self.ipool.len(),
                Imm::Target => self.code.len() + 1,
            };
            if ins.imm as usize >= limit {
                return Err(format!(
                    "instruction {pc} ({:?}): imm = {} out of range ({imm:?}, limit {limit})",
                    ins.op, ins.imm
                ));
            }
            let aux_limit = if matches!(ins.op, OpCode::CmpI | OpCode::CmpF) {
                6
            } else {
                1
            };
            if ins.aux >= aux_limit {
                return Err(format!(
                    "instruction {pc} ({:?}): selector {} out of range (limit {aux_limit})",
                    ins.op, ins.aux
                ));
            }
        }
        Ok(())
    }

    /// The pragma operands of FP operation `ins` at `pc`.
    fn validate_pragma(&self, pc: usize, ins: &FixedInstr) -> Result<(), String> {
        let protects = ins.op as u8 <= OpCode::Sqrt as u8;
        let allowed = PRAGMA_CAPACITY | if protects { PRAGMA_PROTECT } else { 0 };
        let (r, k) = (ins.imm & 0xffff, ins.imm >> 16);
        let what = if ins.aux & !allowed != 0 {
            format!("pragma bits {:#04x} not allowed", ins.aux)
        } else if ins.protect().is_some_and(|r| r >= self.n_fregs) {
            format!(
                "protect register f{r} out of range (limit {})",
                self.n_fregs
            )
        } else if ins.capacity() == Some(0) {
            "capacity 0".to_string()
        } else if (ins.protect().is_none() && r != 0) || (ins.capacity().is_none() && k != 0) {
            format!("imm = {} sets a field no pragma bit uses", ins.imm)
        } else {
            return Ok(());
        };
        Err(format!("instruction {pc} ({:?}): {what}", ins.op))
    }

    /// `ins` in the CFG dump's syntax (`f1 = mul f2, f1`, `jz i1 -> 12`),
    /// with pool constants read from this program's pools.
    pub fn render(&self, ins: &FixedInstr) -> String {
        let (d, a, b, imm) = (ins.dst, ins.a, ins.b, ins.imm);
        let cmp = ins.cmp_op().mnemonic();
        // The operands of a fused pair's second half.
        let (x, y) = if ins.aux == 0 {
            (d, ins.c())
        } else {
            (ins.c(), d)
        };
        let body = match ins.op {
            OpCode::Add => format!("f{d} = add f{a}, f{b}"),
            OpCode::Sub => format!("f{d} = sub f{a}, f{b}"),
            OpCode::Mul => format!("f{d} = mul f{a}, f{b}"),
            OpCode::Div => format!("f{d} = div f{a}, f{b}"),
            OpCode::Sqrt => format!("f{d} = sqrt f{a}"),
            OpCode::Abs => format!("f{d} = abs f{a}"),
            OpCode::Neg => format!("f{d} = neg f{a}"),
            OpCode::Min => format!("f{d} = min f{a}, f{b}"),
            OpCode::Max => format!("f{d} = max f{a}, f{b}"),
            OpCode::ConstF => match self.fpool.get(imm as usize) {
                Some(c) => format!("f{d} = const {c:?}"),
                None => format!("f{d} = const fpool[{imm}]"),
            },
            OpCode::MovF => format!("f{d} = f{a}"),
            OpCode::CastIF => format!("f{d} = itof i{a}"),
            OpCode::LoadArr => format!("f{d} = load arr{a}[i{b}]"),
            OpCode::StoreArr => format!("store arr{d}[i{a}] = f{b}"),
            OpCode::ConstI => match self.ipool.get(imm as usize) {
                Some(c) => format!("i{d} = const {c}"),
                None => format!("i{d} = const ipool[{imm}]"),
            },
            OpCode::AddI => format!("i{d} = addi i{a}, i{b}"),
            OpCode::SubI => format!("i{d} = subi i{a}, i{b}"),
            OpCode::MulI => format!("i{d} = muli i{a}, i{b}"),
            OpCode::DivI => format!("i{d} = divi i{a}, i{b}"),
            OpCode::MovI => format!("i{d} = i{a}"),
            OpCode::CastFI => format!("i{d} = ftoi f{a}"),
            OpCode::CmpI => format!("i{d} = cmpi.{cmp} i{a}, i{b}"),
            OpCode::CmpF => format!("i{d} = cmpf.{cmp} f{a}, f{b}"),
            OpCode::Jump => format!("jump -> {imm}"),
            OpCode::JumpIfZero => format!("jz i{a} -> {imm}"),
            OpCode::Ret => format!("ret f{a}"),
            OpCode::RetVoid => "ret".to_string(),
            OpCode::MulThenAdd => format!("f{d} = mul f{a}, f{b}; f{} = add f{x}, f{y}", ins.d2()),
            OpCode::MulThenSub => format!("f{d} = mul f{a}, f{b}; f{} = sub f{x}, f{y}", ins.d2()),
            OpCode::MulIThenAddI => {
                format!("i{d} = muli i{a}, i{b}; i{} = addi i{x}, i{y}", ins.d2())
            }
            OpCode::CmpIJump => format!("i{d} = cmpi.{cmp} i{a}, i{b}; jz i{d} -> {imm}"),
            OpCode::CmpFJump => format!("i{d} = cmpf.{cmp} f{a}, f{b}; jz i{d} -> {imm}"),
        };
        let pragma = OpPragma {
            protect: ins.protect().map(|r| r as u32),
            capacity: ins.capacity().map(|k| k as u16),
        };
        body + &render_pragma(&pragma)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program {} ({} instrs)", self.name, self.code.len())?;
        for (pc, ins) in self.code.iter().enumerate() {
            writeln!(f, "{pc:4}: {}", self.render(ins))?;
        }
        Ok(())
    }
}

/// The constant pools under construction: each literal gets the index of
/// its first appearance (floats by bit pattern, so `-0.0` and `0.0` stay
/// distinct).
#[derive(Default)]
struct Pools {
    fpool: Vec<f64>,
    ipool: Vec<i64>,
    fmap: HashMap<u64, u32>,
    imap: HashMap<i64, u32>,
}

impl Pools {
    fn float(&mut self, c: f64) -> u32 {
        *self.fmap.entry(c.to_bits()).or_insert_with(|| {
            self.fpool.push(c);
            (self.fpool.len() - 1) as u32
        })
    }

    fn int(&mut self, c: i64) -> u32 {
        *self.imap.entry(c).or_insert_with(|| {
            self.ipool.push(c);
            (self.ipool.len() - 1) as u32
        })
    }
}

/// Linearizes a CFG into the flat bytecode the VM executes.
///
/// Blocks are laid out in creation order. A `Jump` to the next block is
/// elided; a `Branch` whose taken target is the next block becomes a
/// single `JumpIfZero` to the other target (the layout the classic
/// single-pass code generator produced).
///
/// # Errors
///
/// [`Program::validate`]'s message when the program does not fit the
/// records — a register file or array table above [`MAX_REGS`].
pub fn emit_program(cfg: &Cfg) -> Result<Program, String> {
    let n = cfg.blocks.len();
    let mut sizes = vec![0usize; n];
    for (b, block) in cfg.blocks.iter().enumerate() {
        let term_size = match &block.term {
            Terminator::Jump(t) => usize::from(*t != b + 1),
            Terminator::Branch(_, t, _) => {
                if *t == b + 1 {
                    1
                } else {
                    2
                }
            }
            Terminator::Ret(_) => 1,
        };
        sizes[b] = block.insts.len() + term_size;
    }
    let mut offsets = vec![0u32; n];
    for b in 1..n {
        offsets[b] = offsets[b - 1] + sizes[b - 1] as u32;
    }
    // Operand fields are truncated to `u16` here; `validate` rejects a
    // layout whose indices would not fit before anything reads them.
    let r = |op, d: u32, a: u32, b: u32| FixedInstr::new(op, d as u16, a as u16, b as u16);
    let mut pools = Pools::default();
    let mut code = Vec::new();
    let mut spans = Vec::new();
    for (b, block) in cfg.blocks.iter().enumerate() {
        for ins in &block.insts {
            let rec = match ins.inst {
                Inst::Add(d, a, b) => r(OpCode::Add, d, a, b),
                Inst::Sub(d, a, b) => r(OpCode::Sub, d, a, b),
                Inst::Mul(d, a, b) => r(OpCode::Mul, d, a, b),
                Inst::Div(d, a, b) => r(OpCode::Div, d, a, b),
                Inst::Sqrt(d, a) => r(OpCode::Sqrt, d, a, 0),
                Inst::Abs(d, a) => r(OpCode::Abs, d, a, 0),
                Inst::Neg(d, a) => r(OpCode::Neg, d, a, 0),
                Inst::Min(d, a, b) => r(OpCode::Min, d, a, b),
                Inst::Max(d, a, b) => r(OpCode::Max, d, a, b),
                Inst::ConstF(d, c) => r(OpCode::ConstF, d, 0, 0).with_imm(pools.float(c)),
                Inst::MovF(d, s) => r(OpCode::MovF, d, s, 0),
                Inst::CastIF(d, s) => r(OpCode::CastIF, d, s, 0),
                Inst::LoadArr(d, arr, idx) => r(OpCode::LoadArr, d, arr, idx),
                Inst::StoreArr(arr, idx, s) => r(OpCode::StoreArr, arr, idx, s),
                Inst::ConstI(d, c) => r(OpCode::ConstI, d, 0, 0).with_imm(pools.int(c)),
                Inst::AddI(d, a, b) => r(OpCode::AddI, d, a, b),
                Inst::SubI(d, a, b) => r(OpCode::SubI, d, a, b),
                Inst::MulI(d, a, b) => r(OpCode::MulI, d, a, b),
                Inst::DivI(d, a, b) => r(OpCode::DivI, d, a, b),
                Inst::MovI(d, s) => r(OpCode::MovI, d, s, 0),
                Inst::CastFI(d, s) => r(OpCode::CastFI, d, s, 0),
                Inst::CmpI(op, d, a, b) => r(OpCode::CmpI, d, a, b).with_cmp(op),
                Inst::CmpF(op, d, a, b) => r(OpCode::CmpF, d, a, b).with_cmp(op),
            };
            code.push(rec.with_pragma(ins.pragma));
            spans.push(ins.span);
        }
        let jump = |t: usize| r(OpCode::Jump, 0, 0, 0).with_imm(offsets[t]);
        match &block.term {
            Terminator::Jump(t) => {
                if *t != b + 1 {
                    code.push(jump(*t));
                    spans.push(block.term_span);
                }
            }
            Terminator::Branch(c, t, e) => {
                // Fall through into the taken target when adjacent.
                code.push(r(OpCode::JumpIfZero, 0, *c, 0).with_imm(offsets[*e]));
                spans.push(block.term_span);
                if *t != b + 1 {
                    code.push(jump(*t));
                    spans.push(block.term_span);
                }
            }
            Terminator::Ret(ret) => {
                code.push(match ret {
                    Some(s) => r(OpCode::Ret, 0, *s, 0),
                    None => r(OpCode::RetVoid, 0, 0, 0),
                });
                spans.push(block.term_span);
            }
        }
    }
    debug_assert_eq!(code.len(), offsets[n - 1] as usize + sizes[n - 1]);
    let prog = Program {
        name: cfg.name.clone(),
        code,
        fpool: pools.fpool,
        ipool: pools.ipool,
        n_fregs: cfg.n_fregs as usize,
        n_iregs: cfg.n_iregs as usize,
        arrays: cfg.arrays.clone(),
        params: cfg
            .params
            .iter()
            .map(|(name, binding, _)| (name.clone(), binding.clone()))
            .collect(),
        spans,
    };
    prog.validate()?;
    Ok(prog)
}

// ---------------------------------------------------------------------------
// Superinstructions (the lane engine's dispatch format)
// ---------------------------------------------------------------------------

/// A [`Program`]'s code with the commonest adjacent instruction pairs
/// fused into superinstructions, for the lane-major interpreter
/// (`safegen::lanes`), which reads the constant pools from the program.
///
/// A pair never fuses across a jump target, so every control transfer
/// still lands on an instruction boundary; jump immediates are remapped
/// to indices into `ops`.
#[derive(Clone, Debug, PartialEq)]
pub struct FixedProgram {
    /// The instruction stream, superinstructions included.
    pub ops: Vec<FixedInstr>,
    /// How many `ops` entries are fused pairs (each covers two program
    /// instructions).
    pub fused: usize,
}

/// The superinstruction `first` and `second` fuse into, if any: the
/// first's operands with the second's packed into `imm`. `aux` = 0 when
/// the first instruction's result feeds the *left* operand of the
/// second, 1 for the right. Pairs where the second instruction does not
/// read the first's destination never fuse, nor does an operation that
/// carries a pragma.
fn fuse(first: &FixedInstr, second: &FixedInstr) -> Option<FixedInstr> {
    let d = first.dst;
    let side = || {
        if second.a == d {
            Some((0, second.b))
        } else if second.b == d {
            Some((1, second.a))
        } else {
            None
        }
    };
    let pack = |(aux, c): (u8, u16)| (aux, (u32::from(second.dst) << 16) | u32::from(c));
    let plain = first.aux == 0 && second.aux == 0;
    let (op, (aux, imm)) = match (first.op, second.op) {
        (OpCode::Mul, OpCode::Add) if plain => (OpCode::MulThenAdd, pack(side()?)),
        (OpCode::Mul, OpCode::Sub) if plain => (OpCode::MulThenSub, pack(side()?)),
        (OpCode::MulI, OpCode::AddI) => (OpCode::MulIThenAddI, pack(side()?)),
        (OpCode::CmpI, OpCode::JumpIfZero) if second.a == d => {
            (OpCode::CmpIJump, (first.aux, second.imm))
        }
        (OpCode::CmpF, OpCode::JumpIfZero) if second.a == d => {
            (OpCode::CmpFJump, (first.aux, second.imm))
        }
        _ => return None,
    };
    Some(FixedInstr {
        op,
        aux,
        imm,
        ..*first
    })
}

/// Counts adjacent instruction pairs that could share a dispatch (the
/// second instruction is not a jump target), most frequent first — the
/// data the superinstruction set in [`OpCode`] was chosen from.
pub fn pair_histogram(prog: &Program) -> Vec<((&'static str, &'static str), usize)> {
    let targets = jump_targets(prog);
    let mut counts: HashMap<(&'static str, &'static str), usize> = HashMap::new();
    for (i, w) in prog.code.windows(2).enumerate() {
        if targets[i + 1] {
            continue;
        }
        *counts
            .entry((w[0].op.mnemonic(), w[1].op.mnemonic()))
            .or_insert(0) += 1;
    }
    let mut out: Vec<_> = counts.into_iter().collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// `targets[i]` = some jump lands on pc `i` (index `code.len()` covers
/// jumps straight to the exit).
fn jump_targets(prog: &Program) -> Vec<bool> {
    let mut targets = vec![false; prog.code.len() + 1];
    for t in prog.code.iter().filter_map(FixedInstr::target) {
        if let Some(slot) = targets.get_mut(t) {
            *slot = true;
        }
    }
    targets
}

/// Fuses `prog`'s code into the lane engine's dispatch stream.
///
/// Always `Some`: the records are already the lane engine's format and
/// [`Program::validate`] has checked them, so only the peephole runs (the
/// signature keeps the `Option` its callers were written against).
pub fn encode(prog: &Program) -> Option<FixedProgram> {
    let code = &prog.code;
    let targets = jump_targets(prog);
    // Pass 1: fuse, recording each pc's index in `ops`.
    let mut index_of = vec![0u32; code.len() + 1];
    let mut ops = Vec::with_capacity(code.len());
    let mut pc = 0;
    while pc < code.len() {
        index_of[pc] = ops.len() as u32;
        let fused = code
            .get(pc + 1)
            .filter(|_| !targets[pc + 1])
            .and_then(|next| fuse(&code[pc], next));
        match fused {
            Some(ins) => {
                ops.push(ins);
                pc += 2;
            }
            None => {
                ops.push(code[pc]);
                pc += 1;
            }
        }
    }
    index_of[code.len()] = ops.len() as u32;
    // Pass 2: jump immediates hold pcs; remap them. A fused pair's second
    // pc is never a jump target, so its `index_of` entry is never read.
    for ins in &mut ops {
        if matches!(
            ins.op,
            OpCode::Jump | OpCode::JumpIfZero | OpCode::CmpIJump | OpCode::CmpFJump
        ) {
            ins.imm = index_of[ins.imm as usize];
        }
    }
    Some(FixedProgram {
        fused: code.len() - ops.len(),
        ops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use OpCode::*;

    fn prog(code: Vec<FixedInstr>, n_fregs: usize, n_iregs: usize) -> Program {
        let spans = vec![Span::default(); code.len()];
        Program {
            name: "t".into(),
            code,
            fpool: vec![],
            ipool: vec![],
            n_fregs,
            n_iregs,
            arrays: vec![],
            params: vec![],
            spans,
        }
    }

    fn rec(op: OpCode, dst: u16, a: u16, b: u16) -> FixedInstr {
        FixedInstr::new(op, dst, a, b)
    }

    fn jump(op: OpCode, cond: u16, target: u32) -> FixedInstr {
        rec(op, 0, cond, 0).with_imm(target)
    }

    fn cfg_of(src: &str) -> Cfg {
        let unit = safegen_cfront::parse(src).unwrap();
        let sema = safegen_cfront::analyze(&unit).unwrap();
        let (tac, sema) = crate::tac::to_tac_with_sema(&unit, &sema);
        crate::cfg::lower_function(&tac.functions[0], &sema).unwrap()
    }

    #[test]
    fn byte_order_matches_all() {
        for (i, op) in OpCode::ALL.iter().enumerate() {
            assert_eq!(*op as usize, i);
            assert_eq!(OpCode::from_byte(i as u8), Some(*op));
        }
        assert_eq!(OpCode::from_byte(OpCode::ALL.len() as u8), None);
    }

    #[test]
    fn emitted_constants_are_pooled_and_interned() {
        // Lowering emits one constant per literal occurrence; the pools
        // hold each value once.
        let p = emit_program(&cfg_of(
            "double f(double x, int n) { int m = n * 7 + 7; return x * 1.5 + m * 1.5; }",
        ))
        .unwrap();
        let uses = |op: OpCode, imm: u32| p.code.iter().filter(move |i| i.op == op && i.imm == imm);
        let f = p.fpool.iter().position(|&c| c == 1.5).unwrap() as u32;
        let i = p.ipool.iter().position(|&c| c == 7).unwrap() as u32;
        assert_eq!(uses(ConstF, f).count(), 2);
        assert_eq!(uses(ConstI, i).count(), 2);
        assert_eq!(p.fpool.len(), 1);
        assert_eq!(p.ipool.len(), 1);
    }

    #[test]
    fn oversized_register_file_is_a_compile_error() {
        let mut cfg = cfg_of("double f(double x) { return x * x; }");
        cfg.n_fregs = 70_000;
        cfg.blocks[0].insts[0].inst = Inst::Mul(69_999, 0, 0);
        let e = emit_program(&cfg).unwrap_err();
        assert!(e.contains("70000 float registers"), "{e}");
        assert!(e.contains(&MAX_REGS.to_string()), "{e}");
    }

    #[test]
    fn straight_line_encodes_one_to_one() {
        // add then ret: nothing fusable.
        let p = prog(vec![rec(Add, 0, 1, 2), rec(Ret, 0, 0, 0)], 3, 0);
        let f = encode(&p).unwrap();
        assert_eq!(f.ops, p.code);
        assert_eq!(f.fused, 0);
    }

    #[test]
    fn mul_add_pair_fuses_with_operand_side() {
        // r2 = r0*r1; r3 = r2 + r0  (result on the left)
        let p = prog(
            vec![rec(Mul, 2, 0, 1), rec(Add, 3, 2, 0), rec(Ret, 0, 3, 0)],
            4,
            0,
        );
        let f = encode(&p).unwrap();
        assert_eq!(f.ops.len(), 2);
        assert_eq!(f.fused, 1);
        let ins = f.ops[0];
        assert_eq!(ins.op, MulThenAdd);
        assert_eq!(ins.aux, 0);
        assert_eq!((ins.dst, ins.a, ins.b), (2, 0, 1));
        assert_eq!((ins.d2(), ins.c()), (3, 0));

        // r3 = r0 + r2 (result on the right) flips aux.
        let p = prog(
            vec![rec(Mul, 2, 0, 1), rec(Add, 3, 0, 2), rec(Ret, 0, 3, 0)],
            4,
            0,
        );
        let f = encode(&p).unwrap();
        assert_eq!(f.ops[0].op, MulThenAdd);
        assert_eq!(f.ops[0].aux, 1);
        assert_eq!((f.ops[0].d2(), f.ops[0].c()), (3, 0));
    }

    #[test]
    fn unrelated_pair_does_not_fuse() {
        // The add does not read the multiply's destination.
        let p = prog(
            vec![rec(Mul, 2, 0, 1), rec(Add, 3, 0, 1), rec(Ret, 0, 3, 0)],
            4,
            0,
        );
        let f = encode(&p).unwrap();
        assert_eq!(f.ops.len(), 3);
        assert_eq!(f.fused, 0);
    }

    #[test]
    fn fusion_never_spans_a_jump_target() {
        // pc 1 (the add) is a jump target: the pair must not fuse, or the
        // back-edge would land mid-superinstruction.
        let p = prog(
            vec![
                rec(Mul, 2, 0, 1), // 0
                rec(Add, 3, 2, 0), // 1  <- target
                jump(Jump, 0, 1),  // 2
                rec(Ret, 0, 3, 0), // 3 (unreachable; irrelevant)
            ],
            4,
            0,
        );
        let f = encode(&p).unwrap();
        assert_eq!(f.fused, 0);
        assert_eq!(f.ops.len(), 4);
        assert_eq!(f.ops[2].op, Jump);
        assert_eq!(f.ops[2].imm, 1);
    }

    #[test]
    fn jump_targets_remap_across_fused_pairs() {
        // Loop shape: consti; cmpi+jz (fused, exits past the end);
        // mul+add (fused); jump back to the compare.
        let mut p = prog(
            vec![
                rec(ConstI, 1, 0, 0),                   // 0
                rec(CmpI, 0, 0, 1).with_cmp(CmpOp::Lt), // 1  <- back-edge target
                jump(JumpIfZero, 0, 6),                 // 2 (exit: one past the end)
                rec(Mul, 2, 0, 1),                      // 3
                rec(Add, 3, 2, 0),                      // 4
                jump(Jump, 0, 1),                       // 5
            ],
            4,
            2,
        );
        p.ipool = vec![3];
        assert_eq!(p.validate(), Ok(()));
        let f = encode(&p).unwrap();
        assert_eq!(f.fused, 2);
        assert_eq!(f.ops.len(), 4);
        assert_eq!(f.ops[1].op, CmpIJump);
        assert_eq!(f.ops[1].cmp_op(), CmpOp::Lt);
        assert_eq!(f.ops[1].imm, 4, "exit jump remaps to one past the end");
        assert_eq!(f.ops[2].op, MulThenAdd);
        assert_eq!(f.ops[3].op, Jump);
        assert_eq!(f.ops[3].imm, 1, "back edge remaps to the fused compare");
    }

    /// One program per rejection: the validator names the instruction.
    #[test]
    fn validator_rejects_each_bad_record_by_index() {
        let ok = || {
            let mut p = prog(
                vec![
                    rec(ConstF, 0, 0, 0),
                    rec(Mul, 1, 0, 0),
                    rec(CmpF, 0, 0, 1).with_cmp(CmpOp::Ne),
                    jump(JumpIfZero, 0, 5),
                    jump(Jump, 0, 5),
                    rec(Ret, 0, 1, 0),
                ],
                2,
                1,
            );
            p.fpool = vec![0.5];
            p
        };
        assert_eq!(ok().validate(), Ok(()));
        type Corrupt = fn(&mut Program);
        let cases: [(&str, usize, Corrupt); 7] = [
            ("superinstruction", 1, |p| p.code[1].op = MulThenAdd),
            ("selector 6", 2, |p| p.code[2].aux = 6),
            ("fpool index", 0, |p| p.code[0].imm = 1),
            ("register at the file size", 1, |p| p.code[1].dst = 2),
            ("int register at the file size", 3, |p| p.code[3].a = 1),
            ("jump past code.len()", 4, |p| p.code[4].imm = 7),
            ("unused field", 5, |p| p.code[5].b = 1),
        ];
        for (what, pc, corrupt) in cases {
            let mut p = ok();
            corrupt(&mut p);
            let e = p.validate().unwrap_err();
            assert!(e.starts_with(&format!("instruction {pc}")), "{what}: {e}");
        }
        // A jump to exactly `code.len()` falls off the end and is valid.
        let mut p = ok();
        p.code[4].imm = 6;
        assert_eq!(p.validate(), Ok(()));
    }

    /// Pragma operands: the bits only where the opcode can carry them, a
    /// protect register inside the float file, a capacity of at least 1.
    #[test]
    fn validator_checks_pragma_operands() {
        let run = |ins: FixedInstr| {
            let mut p = prog(vec![rec(ConstF, 0, 0, 0), ins, rec(Ret, 0, 1, 0)], 2, 0);
            p.fpool = vec![0.5];
            p.validate()
        };
        let pragma = |protect, capacity| OpPragma { protect, capacity };
        let mul = rec(Mul, 1, 0, 0);
        assert_eq!(run(mul.with_pragma(pragma(Some(1), Some(3)))), Ok(()));
        assert_eq!(
            run(rec(Abs, 1, 0, 0).with_pragma(pragma(None, Some(3)))),
            Ok(())
        );
        let cases = [
            (
                rec(Abs, 1, 0, 0).with_pragma(pragma(Some(0), None)),
                "pragma bits",
            ),
            (
                rec(MovF, 1, 0, 0).with_pragma(pragma(None, Some(2))),
                "out of range",
            ),
            (FixedInstr { aux: 4, ..mul }, "pragma bits"),
            (
                mul.with_pragma(pragma(Some(2), None)),
                "protect register f2",
            ),
            (
                FixedInstr {
                    aux: PRAGMA_CAPACITY,
                    ..mul
                },
                "capacity 0",
            ),
            (mul.with_imm(1), "no pragma bit"),
            (mul.with_imm(1 << 16), "no pragma bit"),
        ];
        for (ins, what) in cases {
            let e = run(ins).unwrap_err();
            assert!(
                e.starts_with("instruction 1") && e.contains(what),
                "{what}: {e}"
            );
        }
    }

    #[test]
    fn pragma_ops_do_not_fuse() {
        let p = prog(
            vec![
                rec(Mul, 2, 0, 1).with_pragma(OpPragma {
                    protect: Some(0),
                    capacity: None,
                }),
                rec(Add, 3, 2, 0),
                rec(Ret, 0, 3, 0),
            ],
            4,
            0,
        );
        assert_eq!(encode(&p).unwrap().fused, 0);
        assert_eq!(p.render(&p.code[0]), "f2 = mul f0, f1 [protect f0]");
    }

    #[test]
    fn render_matches_the_cfg_dump_syntax() {
        let mut p = prog(
            vec![
                rec(Mul, 1, 2, 1),
                jump(JumpIfZero, 1, 12),
                rec(ConstF, 0, 0, 0),
                rec(StoreArr, 0, 1, 2),
            ],
            3,
            2,
        );
        p.fpool = vec![1.05];
        let lines: Vec<String> = p.code.iter().map(|i| p.render(i)).collect();
        assert_eq!(
            lines,
            [
                "f1 = mul f2, f1",
                "jz i1 -> 12",
                "f0 = const 1.05",
                "store arr0[i1] = f2"
            ]
        );
        assert!(p.to_string().contains("   1: jz i1 -> 12"));
    }

    #[test]
    fn histogram_ranks_fusable_pairs() {
        let p = prog(
            vec![
                rec(Mul, 2, 0, 1),
                rec(Add, 3, 2, 0),
                rec(Mul, 2, 0, 1),
                rec(Add, 3, 2, 0),
                rec(Ret, 0, 3, 0),
            ],
            4,
            0,
        );
        let h = pair_histogram(&p);
        assert_eq!(h[0], (("mul", "add"), 2));
    }
}
