//! CFG-based mid-level IR: basic blocks of three-address instructions
//! over virtual registers.
//!
//! Every function is lowered from TAC form **once** into this IR (see
//! [`lower_function`]); the bytecode emitter, the computation-DAG
//! analysis, the C emitter, the profiler and the exact-rational oracle
//! all consume the same lowered form, so the five views of a program
//! cannot drift. Optimization passes (see [`crate::passes`]) rewrite the
//! CFG in place before it is linearized to bytecode.
//!
//! Each instruction carries the source [`Span`] it was lowered from and,
//! for the instruction implementing the top-level operation of a
//! `Decl`/`Assign`, the name of the variable the TAC line assigns to —
//! the provenance the pragma planner and the error profiler rely on.

use safegen_cfront::{
    prioritized, resolve_pragmas, AssignOp, BinOp, Diagnostic, Expr, Function, ParseError, Sema,
    Span, Stmt, Ty, UnOp,
};
use std::collections::HashMap;
use std::fmt;

/// Float-register index.
pub type FReg = u32;
/// Integer-register index.
pub type IReg = u32;
/// Array-table index.
pub type ArrId = u32;
/// Basic-block index (creation order; also the linearization order).
pub type BlockId = usize;

/// Integer comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    pub(crate) fn of(op: BinOp) -> CmpOp {
        match op {
            BinOp::Lt => CmpOp::Lt,
            BinOp::Le => CmpOp::Le,
            BinOp::Gt => CmpOp::Gt,
            BinOp::Ge => CmpOp::Ge,
            BinOp::Eq => CmpOp::Eq,
            BinOp::Ne => CmpOp::Ne,
            _ => unreachable!("not a comparison"),
        }
    }

    /// Applies the comparison to two ordered values.
    pub fn eval<T: PartialOrd>(self, a: T, b: T) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// Short lowercase name (`lt`, `le`, …) — used by the IR dump and the
    /// CFG-based C backend's `aa_cmp_*` call names.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
        }
    }
}

/// A straight-line (non-control-flow) instruction.
///
/// Control flow lives exclusively in [`Terminator`]s; everything the
/// bytecode knows except `Jump`/`JumpIfZero`/`Ret` appears here.
#[derive(Clone, Debug, PartialEq)]
pub enum Inst {
    /// `f[dst] = f[a] + f[b]`
    Add(FReg, FReg, FReg),
    /// `f[dst] = f[a] − f[b]`
    Sub(FReg, FReg, FReg),
    /// `f[dst] = f[a] · f[b]`
    Mul(FReg, FReg, FReg),
    /// `f[dst] = f[a] / f[b]`
    Div(FReg, FReg, FReg),
    /// `f[dst] = √f[a]`
    Sqrt(FReg, FReg),
    /// `f[dst] = |f[a]|`
    Abs(FReg, FReg),
    /// `f[dst] = −f[a]`
    Neg(FReg, FReg),
    /// `f[dst] = min(f[a], f[b])`
    Min(FReg, FReg, FReg),
    /// `f[dst] = max(f[a], f[b])`
    Max(FReg, FReg, FReg),
    /// `f[dst] = constant c`
    ConstF(FReg, f64),
    /// `f[dst] = f[src]`
    MovF(FReg, FReg),
    /// `f[dst] = (double) i[src]`
    CastIF(FReg, IReg),
    /// `f[dst] = arrays[arr][i[idx]]`
    LoadArr(FReg, ArrId, IReg),
    /// `arrays[arr][i[idx]] = f[src]`
    StoreArr(ArrId, IReg, FReg),
    /// `i[dst] = c`
    ConstI(IReg, i64),
    /// `i[dst] = i[a] + i[b]`
    AddI(IReg, IReg, IReg),
    /// `i[dst] = i[a] − i[b]`
    SubI(IReg, IReg, IReg),
    /// `i[dst] = i[a] · i[b]`
    MulI(IReg, IReg, IReg),
    /// `i[dst] = i[a] / i[b]` (traps on zero)
    DivI(IReg, IReg, IReg),
    /// `i[dst] = i[src]`
    MovI(IReg, IReg),
    /// `i[dst] = (int) f[src]`
    CastFI(IReg, FReg),
    /// `i[dst] = i[a] cmp i[b]` as 0/1
    CmpI(CmpOp, IReg, IReg, IReg),
    /// `i[dst] = f[a] cmp f[b]` as 0/1
    CmpF(CmpOp, IReg, FReg, FReg),
}

impl Inst {
    /// True for the ops a `prioritize` pragma can govern (`+ − × ÷ √`).
    pub fn takes_protect(&self) -> bool {
        matches!(
            self,
            Inst::Add(..) | Inst::Sub(..) | Inst::Mul(..) | Inst::Div(..) | Inst::Sqrt(..)
        )
    }

    /// Float register written by the instruction, if any.
    pub fn def_f(&self) -> Option<FReg> {
        match self {
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
            | Inst::LoadArr(d, ..) => Some(*d),
            _ => None,
        }
    }

    /// Integer register written by the instruction, if any.
    pub fn def_i(&self) -> Option<IReg> {
        match self {
            Inst::ConstI(d, ..)
            | Inst::AddI(d, ..)
            | Inst::SubI(d, ..)
            | Inst::MulI(d, ..)
            | Inst::DivI(d, ..)
            | Inst::MovI(d, ..)
            | Inst::CastFI(d, ..)
            | Inst::CmpI(_, d, ..)
            | Inst::CmpF(_, d, ..) => Some(*d),
            _ => None,
        }
    }

    /// Float registers read by the instruction.
    pub fn uses_f(&self) -> Vec<FReg> {
        match self {
            Inst::Add(_, a, b)
            | Inst::Sub(_, a, b)
            | Inst::Mul(_, a, b)
            | Inst::Div(_, a, b)
            | Inst::Min(_, a, b)
            | Inst::Max(_, a, b) => vec![*a, *b],
            Inst::Sqrt(_, a) | Inst::Abs(_, a) | Inst::Neg(_, a) | Inst::MovF(_, a) => vec![*a],
            Inst::StoreArr(_, _, s) => vec![*s],
            Inst::CastFI(_, s) => vec![*s],
            Inst::CmpF(_, _, a, b) => vec![*a, *b],
            _ => vec![],
        }
    }

    /// Integer registers read by the instruction.
    pub fn uses_i(&self) -> Vec<IReg> {
        match self {
            Inst::AddI(_, a, b)
            | Inst::SubI(_, a, b)
            | Inst::MulI(_, a, b)
            | Inst::DivI(_, a, b)
            | Inst::CmpI(_, _, a, b) => vec![*a, *b],
            Inst::MovI(_, s) | Inst::CastIF(_, s) => vec![*s],
            Inst::LoadArr(_, _, idx) => vec![*idx],
            Inst::StoreArr(_, idx, _) => vec![*idx],
            _ => vec![],
        }
    }
}

/// How a basic block transfers control.
#[derive(Clone, Debug, PartialEq)]
pub enum Terminator {
    /// Unconditional edge.
    Jump(BlockId),
    /// `i[cond] != 0` → first target, else second target.
    Branch(IReg, BlockId, BlockId),
    /// Function return.
    Ret(Option<FReg>),
}

impl Terminator {
    /// Successor blocks, in branch-taken order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch(_, t, e) => vec![*t, *e],
            Terminator::Ret(_) => vec![],
        }
    }
}

/// One IR instruction with its provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct CfgInstr {
    /// The operation.
    pub inst: Inst,
    /// The register whose error symbols a `+ − × ÷ √` protects when it
    /// runs: lowering hangs each `#pragma safegen prioritize` on the
    /// operation it governs (see `safegen_cfront::resolve_pragmas`).
    /// Passes never merge, remove or fuse an operation that carries one.
    pub protect: Option<FReg>,
    /// The source expression this instruction was lowered from.
    pub span: Span,
    /// The variable the originating TAC line assigns to (`_t3`, `x`, …),
    /// for the top-level instruction of a `Decl`/`Assign` only.
    pub var: Option<String>,
    /// True when the instruction was emitted while evaluating a branch
    /// condition (the DAG analysis skips these, matching the paper's
    /// analysis which considers only data flow).
    pub cond: bool,
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// The instructions, in execution order.
    pub insts: Vec<CfgInstr>,
    /// How the block exits.
    pub term: Terminator,
    /// Source span of the terminator (diagnostics).
    pub term_span: Span,
}

/// An array declared in the program.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayDecl {
    /// Source name.
    pub name: String,
    /// Total element count (flattened).
    pub len: usize,
    /// Dimensions (1 or 2 entries).
    pub dims: Vec<usize>,
    /// True if the array is a parameter (bound to caller data).
    pub is_param: bool,
}

/// How a parameter is bound at run time.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamBinding {
    /// Scalar float parameter in the given register.
    Float(FReg),
    /// Integer parameter in the given register.
    Int(IReg),
    /// Array parameter in the array table.
    Array(ArrId),
}

/// The control-flow graph of one lowered function.
///
/// Blocks are stored in creation order, which is also the order the
/// bytecode emitter lays them out; block 0 is the entry.
#[derive(Clone, Debug)]
pub struct Cfg {
    /// Function name.
    pub name: String,
    /// Basic blocks; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
    /// Number of float registers.
    pub n_fregs: u32,
    /// Number of int registers.
    pub n_iregs: u32,
    /// Array table layout.
    pub arrays: Vec<ArrayDecl>,
    /// Parameter bindings in declaration order, with the parameter span.
    pub params: Vec<(String, ParamBinding, Span)>,
    /// Home variable name per float register (None for temporaries, and
    /// for every register after allocation has renumbered the file).
    pub fnames: Vec<Option<String>>,
    /// Home variable name per int register.
    pub inames: Vec<Option<String>>,
    /// Span of the whole function definition.
    pub span: Span,
}

impl Cfg {
    /// Total instruction count across all blocks (terminators excluded).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Deterministic textual dump of the IR (the `--dump-ir` format).
    pub fn dump(&self) -> String {
        let mut out = String::new();
        use fmt::Write;
        let _ = writeln!(
            out,
            "cfg {} fregs={} iregs={}",
            self.name, self.n_fregs, self.n_iregs
        );
        for (name, binding, _) in &self.params {
            let b = match binding {
                ParamBinding::Float(r) => format!("f{r}"),
                ParamBinding::Int(r) => format!("i{r}"),
                ParamBinding::Array(a) => format!("arr{a}"),
            };
            let _ = writeln!(out, "  param {name} = {b}");
        }
        for (id, a) in self.arrays.iter().enumerate() {
            let _ = writeln!(
                out,
                "  array arr{id} {} len={} dims={:?}{}",
                a.name,
                a.len,
                a.dims,
                if a.is_param { " param" } else { "" }
            );
        }
        for (id, b) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, "bb{id}:");
            for ins in &b.insts {
                let body = render_inst(&ins.inst) + &render_protect(ins.protect);
                let mut note = String::new();
                if let Some(v) = &ins.var {
                    note.push_str(&format!(" ; {v}"));
                }
                if ins.cond {
                    note.push_str(if note.is_empty() { " ; cond" } else { " cond" });
                }
                let _ = writeln!(out, "  {body}{note}");
            }
            let term = match &b.term {
                Terminator::Jump(t) => format!("jump bb{t}"),
                Terminator::Branch(c, t, e) => format!("br i{c} ? bb{t} : bb{e}"),
                Terminator::Ret(Some(r)) => format!("ret f{r}"),
                Terminator::Ret(None) => "ret".to_string(),
            };
            let _ = writeln!(out, "  {term}");
        }
        out
    }
}

/// The ` [protect fR]` suffix of an operation carrying a pragma, in the
/// IR dump and the bytecode listing.
pub(crate) fn render_protect(protect: Option<FReg>) -> String {
    protect.map_or_else(String::new, |r| format!(" [protect f{r}]"))
}

fn render_inst(i: &Inst) -> String {
    match i {
        Inst::Add(d, a, b) => format!("f{d} = add f{a}, f{b}"),
        Inst::Sub(d, a, b) => format!("f{d} = sub f{a}, f{b}"),
        Inst::Mul(d, a, b) => format!("f{d} = mul f{a}, f{b}"),
        Inst::Div(d, a, b) => format!("f{d} = div f{a}, f{b}"),
        Inst::Sqrt(d, a) => format!("f{d} = sqrt f{a}"),
        Inst::Abs(d, a) => format!("f{d} = abs f{a}"),
        Inst::Neg(d, a) => format!("f{d} = neg f{a}"),
        Inst::Min(d, a, b) => format!("f{d} = min f{a}, f{b}"),
        Inst::Max(d, a, b) => format!("f{d} = max f{a}, f{b}"),
        Inst::ConstF(d, c) => format!("f{d} = const {c:?}"),
        Inst::MovF(d, s) => format!("f{d} = f{s}"),
        Inst::CastIF(d, s) => format!("f{d} = itof i{s}"),
        Inst::LoadArr(d, a, idx) => format!("f{d} = load arr{a}[i{idx}]"),
        Inst::StoreArr(a, idx, s) => format!("store arr{a}[i{idx}] = f{s}"),
        Inst::ConstI(d, c) => format!("i{d} = const {c}"),
        Inst::AddI(d, a, b) => format!("i{d} = addi i{a}, i{b}"),
        Inst::SubI(d, a, b) => format!("i{d} = subi i{a}, i{b}"),
        Inst::MulI(d, a, b) => format!("i{d} = muli i{a}, i{b}"),
        Inst::DivI(d, a, b) => format!("i{d} = divi i{a}, i{b}"),
        Inst::MovI(d, s) => format!("i{d} = i{s}"),
        Inst::CastFI(d, s) => format!("i{d} = ftoi f{s}"),
        Inst::CmpI(op, d, a, b) => format!("i{d} = cmpi.{} i{a}, i{b}", op.mnemonic()),
        Inst::CmpF(op, d, a, b) => format!("i{d} = cmpf.{} f{a}, f{b}", op.mnemonic()),
    }
}

#[derive(Clone, Copy, Debug)]
enum Binding {
    F(FReg),
    I(IReg),
    A(ArrId),
}

struct Lower<'a> {
    sema: &'a Sema,
    func: &'a str,
    blocks: Vec<BlockInProgress>,
    cur: BlockId,
    names: HashMap<String, Binding>,
    arrays: Vec<ArrayDecl>,
    n_fregs: u32,
    n_iregs: u32,
    fnames: Vec<Option<String>>,
    inames: Vec<Option<String>>,
    in_cond: bool,
}

struct BlockInProgress {
    insts: Vec<CfgInstr>,
    term: Option<(Terminator, Span)>,
}

/// Lowers a TAC-form function into the CFG IR.
///
/// The block layout mirrors the classic single-pass code generator, so
/// linearizing an unoptimized CFG reproduces the bytecode the old
/// AST-walking compiler emitted instruction for instruction:
/// `if`/`else` lay out `[cond][then][else][join]`, loops lay out
/// `[init][header][body+step][exit]`, and a `return` statement ends its
/// block (unreachable trailing code is still lowered and emitted).
///
/// # Errors
///
/// Returns a diagnostic for constructs the IR cannot express (same set
/// as the old bytecode compiler: rank->2 arrays, unsupported calls, …).
pub fn lower_function(f: &Function, sema: &Sema) -> Result<Cfg, ParseError> {
    let mut f = f.clone();
    resolve_pragmas(&mut f, sema);
    let f = &f;
    let mut cx = Lower {
        sema,
        func: &f.name,
        blocks: vec![BlockInProgress {
            insts: Vec::new(),
            term: None,
        }],
        cur: 0,
        names: HashMap::new(),
        arrays: Vec::new(),
        n_fregs: 0,
        n_iregs: 0,
        fnames: Vec::new(),
        inames: Vec::new(),
        in_cond: false,
    };
    let mut params = Vec::new();
    for p in &f.params {
        let binding = match &p.ty {
            Ty::Int => {
                let r = cx.fresh_i();
                cx.inames[r as usize] = Some(p.name.clone());
                cx.names.insert(p.name.clone(), Binding::I(r));
                ParamBinding::Int(r)
            }
            Ty::Float | Ty::Double => {
                let r = cx.fresh_f();
                cx.fnames[r as usize] = Some(p.name.clone());
                cx.names.insert(p.name.clone(), Binding::F(r));
                ParamBinding::Float(r)
            }
            t if t.rank() > 0 => {
                let a = cx.declare_array(&p.name, t, true, p.span)?;
                ParamBinding::Array(a)
            }
            other => {
                return Err(Diagnostic::new(
                    format!("unsupported parameter type {other:?}"),
                    p.span,
                )
                .into())
            }
        };
        params.push((p.name.clone(), binding, p.span));
    }
    cx.block(&f.body)?;
    // Implicit return at the end of void functions.
    cx.terminate(Terminator::Ret(None), f.span);
    let blocks = cx
        .blocks
        .into_iter()
        .map(|b| {
            let (term, term_span) = b.term.expect("unterminated block");
            Block {
                insts: b.insts,
                term,
                term_span,
            }
        })
        .collect();
    Ok(Cfg {
        name: f.name.clone(),
        blocks,
        n_fregs: cx.n_fregs,
        n_iregs: cx.n_iregs,
        arrays: cx.arrays,
        params,
        fnames: cx.fnames,
        inames: cx.inames,
        span: f.span,
    })
}

impl Lower<'_> {
    fn fresh_f(&mut self) -> FReg {
        self.n_fregs += 1;
        self.fnames.push(None);
        self.n_fregs - 1
    }

    fn fresh_i(&mut self) -> IReg {
        self.n_iregs += 1;
        self.inames.push(None);
        self.n_iregs - 1
    }

    fn emit(&mut self, inst: Inst, span: Span) {
        self.emit_tagged(inst, span, None);
    }

    fn emit_tagged(&mut self, inst: Inst, span: Span, var: Option<&str>) {
        let cond = self.in_cond;
        self.blocks[self.cur].insts.push(CfgInstr {
            inst,
            protect: None,
            span,
            var: var.map(str::to_string),
            cond,
        });
    }

    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BlockInProgress {
            insts: Vec::new(),
            term: None,
        });
        self.blocks.len() - 1
    }

    fn terminate(&mut self, term: Terminator, span: Span) {
        self.terminate_block(self.cur, term, span);
    }

    fn terminate_block(&mut self, id: BlockId, term: Terminator, span: Span) {
        debug_assert!(self.blocks[id].term.is_none(), "block terminated twice");
        self.blocks[id].term = Some((term, span));
    }

    fn declare_array(
        &mut self,
        name: &str,
        ty: &Ty,
        is_param: bool,
        span: Span,
    ) -> Result<ArrId, ParseError> {
        let mut dims = Vec::new();
        let mut cur = ty;
        loop {
            match cur {
                Ty::Array(inner, n) => {
                    dims.push(*n);
                    cur = inner;
                }
                Ty::Ptr(inner) => {
                    // Unsized parameter arrays: size bound at run time
                    // (recorded as 0 here).
                    dims.push(0);
                    cur = inner;
                }
                _ => break,
            }
        }
        if dims.len() > 2 {
            return Err(Diagnostic::new("arrays of rank > 2 are not supported", span).into());
        }
        let len = dims.iter().product::<usize>();
        let id = self.arrays.len() as ArrId;
        self.arrays.push(ArrayDecl {
            name: name.to_string(),
            len,
            dims,
            is_param,
        });
        self.names.insert(name.to_string(), Binding::A(id));
        Ok(id)
    }

    /// Lowers a block whose pragmas [`resolve_pragmas`] has placed: each
    /// one precedes the simple statement it governs, and lands on that
    /// statement's first operation it applies to.
    fn block(&mut self, body: &[Stmt]) -> Result<(), ParseError> {
        let mut pending = None;
        for s in body {
            if let Stmt::Pragma { payload, .. } = s {
                if let Some(Binding::F(r)) = prioritized(payload).and_then(|v| self.names.get(v)) {
                    pending = Some(*r);
                }
                continue;
            }
            let (at, start) = (self.cur, self.blocks[self.cur].insts.len());
            self.stmt(s)?;
            if let Some(r) = pending.take() {
                let ops = &mut self.blocks[at].insts[start..];
                if let Some(ins) = ops.iter_mut().find(|i| i.inst.takes_protect()) {
                    ins.protect = Some(r);
                }
            }
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), ParseError> {
        match s {
            Stmt::Decl {
                ty,
                name,
                init,
                span,
            } => {
                match ty {
                    Ty::Int => {
                        let r = self.fresh_i();
                        self.inames[r as usize] = Some(name.clone());
                        self.names.insert(name.clone(), Binding::I(r));
                        if let Some(e) = init {
                            let v = self.int_expr(e)?;
                            self.emit_tagged(Inst::MovI(r, v), *span, Some(name));
                        }
                    }
                    Ty::Float | Ty::Double => {
                        let r = self.fresh_f();
                        self.fnames[r as usize] = Some(name.clone());
                        if let Some(e) = init {
                            self.float_expr_into(e, r, Some(name))?;
                        }
                        self.names.insert(name.clone(), Binding::F(r));
                    }
                    t if t.rank() > 0 => {
                        self.declare_array(name, t, false, *span)?;
                    }
                    other => {
                        return Err(Diagnostic::new(
                            format!("unsupported declaration type {other:?}"),
                            *span,
                        )
                        .into())
                    }
                }
                Ok(())
            }
            Stmt::Assign { lhs, op, rhs, span } => {
                debug_assert_eq!(*op, AssignOp::Set, "TAC expands compound assignment");
                // Non-TAC inputs may still carry compound ops; expand here.
                let rhs_expr = if *op == AssignOp::Set {
                    rhs.clone()
                } else {
                    let bin = match op {
                        AssignOp::Add => BinOp::Add,
                        AssignOp::Sub => BinOp::Sub,
                        AssignOp::Mul => BinOp::Mul,
                        AssignOp::Div => BinOp::Div,
                        AssignOp::Set => unreachable!(),
                    };
                    Expr::Bin {
                        op: bin,
                        lhs: Box::new(lhs.clone()),
                        rhs: Box::new(rhs.clone()),
                        span: *span,
                    }
                };
                let lty = self.sema.type_of(self.func, lhs);
                if lty == Ty::Int {
                    let v = self.int_expr(&rhs_expr)?;
                    let Expr::Ident { name, .. } = lhs else {
                        return Err(
                            Diagnostic::new("int array assignment unsupported", *span).into()
                        );
                    };
                    let Some(Binding::I(r)) = self.names.get(name).copied() else {
                        return Err(Diagnostic::new("unknown int variable", *span).into());
                    };
                    let name = name.clone();
                    self.emit_tagged(Inst::MovI(r, v), *span, Some(&name));
                    return Ok(());
                }
                match lhs {
                    Expr::Ident { name, .. } => {
                        let Some(Binding::F(r)) = self.names.get(name).copied() else {
                            return Err(Diagnostic::new("unknown float variable", *span).into());
                        };
                        let name = name.clone();
                        self.float_expr_into(&rhs_expr, r, Some(&name))?;
                    }
                    Expr::Index { .. } => {
                        let v = self.float_expr(&rhs_expr)?;
                        let (arr, idx) = self.array_index(lhs)?;
                        self.emit(Inst::StoreArr(arr, idx, v), *span);
                    }
                    _ => {
                        return Err(Diagnostic::new("bad assignment target", *span).into());
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                span,
            } => {
                self.in_cond = true;
                let c = self.cond_expr(cond)?;
                self.in_cond = false;
                let head = self.cur;
                let then_b = self.new_block();
                self.cur = then_b;
                self.block(then_body)?;
                let then_end = self.cur;
                if else_body.is_empty() {
                    let join = self.new_block();
                    self.terminate_block(head, Terminator::Branch(c, then_b, join), *span);
                    self.terminate_block(then_end, Terminator::Jump(join), *span);
                    self.cur = join;
                } else {
                    let else_b = self.new_block();
                    self.cur = else_b;
                    self.block(else_body)?;
                    let else_end = self.cur;
                    let join = self.new_block();
                    self.terminate_block(head, Terminator::Branch(c, then_b, else_b), *span);
                    self.terminate_block(then_end, Terminator::Jump(join), *span);
                    self.terminate_block(else_end, Terminator::Jump(join), *span);
                    self.cur = join;
                }
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
                span,
            } => {
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let header = self.new_block();
                self.terminate(Terminator::Jump(header), *span);
                self.cur = header;
                let c = match cond {
                    Some(c) => {
                        self.in_cond = true;
                        let r = self.cond_expr(c)?;
                        self.in_cond = false;
                        Some(r)
                    }
                    None => None,
                };
                let body_b = self.new_block();
                self.cur = body_b;
                self.block(body)?;
                if let Some(st) = step {
                    self.stmt(st)?;
                }
                let body_end = self.cur;
                let exit = self.new_block();
                let head_term = match c {
                    Some(c) => Terminator::Branch(c, body_b, exit),
                    None => Terminator::Jump(body_b),
                };
                self.terminate_block(header, head_term, *span);
                self.terminate_block(body_end, Terminator::Jump(header), *span);
                self.cur = exit;
                Ok(())
            }
            Stmt::While { cond, body, span } => {
                let header = self.new_block();
                self.terminate(Terminator::Jump(header), *span);
                self.cur = header;
                self.in_cond = true;
                let c = self.cond_expr(cond)?;
                self.in_cond = false;
                let body_b = self.new_block();
                self.cur = body_b;
                self.block(body)?;
                let body_end = self.cur;
                let exit = self.new_block();
                self.terminate_block(header, Terminator::Branch(c, body_b, exit), *span);
                self.terminate_block(body_end, Terminator::Jump(header), *span);
                self.cur = exit;
                Ok(())
            }
            Stmt::Return { value, span } => {
                let r = match value {
                    Some(e) => Some(self.float_expr(e)?),
                    None => None,
                };
                self.terminate(Terminator::Ret(r), *span);
                // Unreachable trailing statements are still lowered, into
                // a fresh (never-entered) block, matching the straight-
                // line code generator which kept emitting after `Ret`.
                let next = self.new_block();
                self.cur = next;
                Ok(())
            }
            Stmt::ExprStmt { expr, span } => {
                // Evaluate for effect (calls have none in the subset, but
                // keep the evaluation for uniformity).
                if self.sema.type_of(self.func, expr).is_float() {
                    self.float_expr(expr)?;
                } else {
                    self.int_expr(expr)?;
                }
                let _ = span;
                Ok(())
            }
            Stmt::Pragma { .. } => Ok(()), // handled in block()
            Stmt::Block { body, .. } => self.block(body),
        }
    }

    /// Compiles a condition to an int register holding 0/1.
    fn cond_expr(&mut self, e: &Expr) -> Result<IReg, ParseError> {
        match e {
            Expr::Bin { op, lhs, rhs, span } if op.is_cmp() => {
                let lt = self.sema.type_of(self.func, lhs);
                let rt = self.sema.type_of(self.func, rhs);
                let dst = self.fresh_i();
                if lt.is_float() || rt.is_float() {
                    let a = self.float_operand(lhs)?;
                    let b = self.float_operand(rhs)?;
                    self.emit(Inst::CmpF(CmpOp::of(*op), dst, a, b), *span);
                } else {
                    let a = self.int_expr(lhs)?;
                    let b = self.int_expr(rhs)?;
                    self.emit(Inst::CmpI(CmpOp::of(*op), dst, a, b), *span);
                }
                Ok(dst)
            }
            Expr::Bin {
                op: BinOp::And,
                lhs,
                rhs,
                span,
            } => {
                // Non-short-circuit AND: both sides are side-effect-free in
                // the subset, so multiplication of 0/1 flags is equivalent.
                let a = self.cond_expr(lhs)?;
                let b = self.cond_expr(rhs)?;
                let dst = self.fresh_i();
                self.emit(Inst::MulI(dst, a, b), *span);
                Ok(dst)
            }
            Expr::Bin {
                op: BinOp::Or,
                lhs,
                rhs,
                span,
            } => {
                let a = self.cond_expr(lhs)?;
                let b = self.cond_expr(rhs)?;
                // a | b  ≡  (a + b) != 0
                let sum = self.fresh_i();
                self.emit(Inst::AddI(sum, a, b), *span);
                let zero = self.fresh_i();
                self.emit(Inst::ConstI(zero, 0), *span);
                let dst = self.fresh_i();
                self.emit(Inst::CmpI(CmpOp::Ne, dst, sum, zero), *span);
                Ok(dst)
            }
            Expr::Un {
                op: UnOp::Not,
                operand,
                span,
            } => {
                let a = self.cond_expr(operand)?;
                let zero = self.fresh_i();
                self.emit(Inst::ConstI(zero, 0), *span);
                let dst = self.fresh_i();
                self.emit(Inst::CmpI(CmpOp::Eq, dst, a, zero), *span);
                Ok(dst)
            }
            other => self.int_expr(other),
        }
    }

    /// Compiles an int-typed expression into a register.
    fn int_expr(&mut self, e: &Expr) -> Result<IReg, ParseError> {
        match e {
            Expr::IntLit { value, span } => {
                let r = self.fresh_i();
                self.emit(Inst::ConstI(r, *value), *span);
                Ok(r)
            }
            Expr::Ident { name, span } => match self.names.get(name).copied() {
                Some(Binding::I(r)) => Ok(r),
                _ => Err(Diagnostic::new(format!("`{name}` is not an int variable"), *span).into()),
            },
            Expr::Bin { op, lhs, rhs, span } if op.is_arith() => {
                let a = self.int_expr(lhs)?;
                let b = self.int_expr(rhs)?;
                let dst = self.fresh_i();
                let ins = match op {
                    BinOp::Add => Inst::AddI(dst, a, b),
                    BinOp::Sub => Inst::SubI(dst, a, b),
                    BinOp::Mul => Inst::MulI(dst, a, b),
                    BinOp::Div => Inst::DivI(dst, a, b),
                    _ => unreachable!(),
                };
                self.emit(ins, *span);
                Ok(dst)
            }
            Expr::Bin { .. } => self.cond_expr(e),
            Expr::Un {
                op: UnOp::Neg,
                operand,
                span,
            } => {
                let a = self.int_expr(operand)?;
                let zero = self.fresh_i();
                self.emit(Inst::ConstI(zero, 0), *span);
                let dst = self.fresh_i();
                self.emit(Inst::SubI(dst, zero, a), *span);
                Ok(dst)
            }
            Expr::Cast {
                ty: Ty::Int,
                operand,
                span,
            } => {
                let f = self.float_operand(operand)?;
                let dst = self.fresh_i();
                self.emit(Inst::CastFI(dst, f), *span);
                Ok(dst)
            }
            other => Err(Diagnostic::new("unsupported integer expression", other.span()).into()),
        }
    }

    /// Loads a float operand (identifier, literal, array element, or a
    /// nested expression) into a register.
    fn float_operand(&mut self, e: &Expr) -> Result<FReg, ParseError> {
        match e {
            Expr::Ident { name, span } => match self.names.get(name).copied() {
                Some(Binding::F(r)) => Ok(r),
                Some(Binding::I(r)) => {
                    // Implicit int → float promotion.
                    let dst = self.fresh_f();
                    self.emit(Inst::CastIF(dst, r), *span);
                    Ok(dst)
                }
                _ => {
                    Err(Diagnostic::new(format!("`{name}` is not a float variable"), *span).into())
                }
            },
            _ => self.float_expr(e),
        }
    }

    /// Compiles a float expression into a fresh register.
    fn float_expr(&mut self, e: &Expr) -> Result<FReg, ParseError> {
        let dst = self.fresh_f();
        self.float_expr_into(e, dst, None)?;
        Ok(dst)
    }

    /// Compiles a float expression, placing the result in `dst`. The
    /// top-level instruction is tagged with `var` (the TAC line's LHS).
    fn float_expr_into(
        &mut self,
        e: &Expr,
        dst: FReg,
        var: Option<&str>,
    ) -> Result<(), ParseError> {
        match e {
            Expr::FloatLit { value, span } => {
                self.emit_tagged(Inst::ConstF(dst, *value), *span, var);
            }
            Expr::IntLit { value, span } => {
                self.emit_tagged(Inst::ConstF(dst, *value as f64), *span, var);
            }
            Expr::Ident { .. } => {
                let src = self.float_operand(e)?;
                if src != dst {
                    self.emit_tagged(Inst::MovF(dst, src), e.span(), var);
                }
            }
            Expr::Index { span, .. } => {
                let (arr, idx) = self.array_index(e)?;
                self.emit_tagged(Inst::LoadArr(dst, arr, idx), *span, var);
            }
            Expr::Bin { span, .. } if !self.sema.type_of(self.func, e).is_float() => {
                // Integer arithmetic inside a float expression runs as
                // integer arithmetic, as in C, and is converted once.
                let a = self.int_expr(e)?;
                self.emit_tagged(Inst::CastIF(dst, a), *span, var);
            }
            Expr::Bin { op, lhs, rhs, span } if op.is_arith() => {
                let a = self.float_operand(lhs)?;
                let b = self.float_operand(rhs)?;
                let ins = match op {
                    BinOp::Add => Inst::Add(dst, a, b),
                    BinOp::Sub => Inst::Sub(dst, a, b),
                    BinOp::Mul => Inst::Mul(dst, a, b),
                    BinOp::Div => Inst::Div(dst, a, b),
                    _ => unreachable!(),
                };
                self.emit_tagged(ins, *span, var);
            }
            Expr::Un {
                op: UnOp::Neg,
                operand,
                span,
            } => {
                let a = self.float_operand(operand)?;
                self.emit_tagged(Inst::Neg(dst, a), *span, var);
            }
            Expr::Call { callee, args, span } => match (callee.as_str(), args.as_slice()) {
                ("sqrt", [x]) => {
                    let a = self.float_operand(x)?;
                    self.emit_tagged(Inst::Sqrt(dst, a), *span, var);
                }
                ("fabs", [x]) => {
                    let a = self.float_operand(x)?;
                    self.emit_tagged(Inst::Abs(dst, a), *span, var);
                }
                ("fmin", [x, y]) => {
                    let a = self.float_operand(x)?;
                    let b = self.float_operand(y)?;
                    self.emit_tagged(Inst::Min(dst, a, b), *span, var);
                }
                ("fmax", [x, y]) => {
                    let a = self.float_operand(x)?;
                    let b = self.float_operand(y)?;
                    self.emit_tagged(Inst::Max(dst, a, b), *span, var);
                }
                _ => {
                    return Err(
                        Diagnostic::new(format!("unsupported call `{callee}`"), *span).into(),
                    )
                }
            },
            Expr::Cast { ty, operand, span } => {
                if ty.is_float() && self.sema.type_of(self.func, operand).is_float() {
                    let a = self.float_operand(operand)?;
                    if a != dst {
                        self.emit_tagged(Inst::MovF(dst, a), *span, var);
                    }
                } else {
                    // An `int` value; a cast to `int` truncates first.
                    let a = self.int_expr(if ty.is_float() { operand } else { e })?;
                    self.emit_tagged(Inst::CastIF(dst, a), *span, var);
                }
            }
            other => {
                return Err(Diagnostic::new("unsupported float expression", other.span()).into())
            }
        }
        Ok(())
    }

    /// Compiles `a[i]` / `a[i][j]` into `(array, flat-index-register)`.
    fn array_index(&mut self, e: &Expr) -> Result<(ArrId, IReg), ParseError> {
        // Collect base and index chain.
        let mut idxs: Vec<&Expr> = Vec::new();
        let mut cur = e;
        while let Expr::Index { base, index, .. } = cur {
            idxs.push(index);
            cur = base;
        }
        idxs.reverse();
        let Expr::Ident { name, span } = cur else {
            return Err(Diagnostic::new("computed array bases unsupported", e.span()).into());
        };
        let Some(Binding::A(arr)) = self.names.get(name).copied() else {
            return Err(Diagnostic::new(format!("`{name}` is not an array"), *span).into());
        };
        let dims = self.arrays[arr as usize].dims.clone();
        if idxs.len() != dims.len() {
            return Err(Diagnostic::new(
                format!("expected {} indices, got {}", dims.len(), idxs.len()),
                e.span(),
            )
            .into());
        }
        let mut flat = self.int_expr(idxs[0])?;
        for (d, idx) in idxs.iter().enumerate().skip(1) {
            // flat = flat * dim[d] + idx
            let dim = self.fresh_i();
            self.emit(Inst::ConstI(dim, dims[d] as i64), e.span());
            let scaled = self.fresh_i();
            self.emit(Inst::MulI(scaled, flat, dim), e.span());
            let i = self.int_expr(idx)?;
            let sum = self.fresh_i();
            self.emit(Inst::AddI(sum, scaled, i), e.span());
            flat = sum;
        }
        Ok((arr, flat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safegen_cfront::{analyze, parse};

    fn lower_src(src: &str) -> Cfg {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let (tac, sema) = crate::to_tac_with_sema(&unit, &sema);
        lower_function(&tac.functions[0], &sema).unwrap()
    }

    #[test]
    fn straight_line_is_two_blocks() {
        let cfg = lower_src("double f(double a, double b) { return a * b + 0.1; }");
        // Entry ends in Ret(Some); the (unreachable) trailing block holds
        // the implicit Ret(None).
        assert_eq!(cfg.blocks.len(), 2);
        assert!(matches!(cfg.blocks[0].term, Terminator::Ret(Some(_))));
        assert!(matches!(cfg.blocks[1].term, Terminator::Ret(None)));
        assert!(cfg.blocks[0]
            .insts
            .iter()
            .any(|i| matches!(i.inst, Inst::Mul(..))));
    }

    #[test]
    fn loop_has_header_body_exit() {
        let cfg =
            lower_src("void f(double a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i] * 2.0; } }");
        // init block, header, body, exit.
        assert_eq!(cfg.blocks.len(), 4);
        assert!(matches!(cfg.blocks[1].term, Terminator::Branch(..)));
        // Back edge: body jumps to the header.
        assert_eq!(cfg.blocks[2].term, Terminator::Jump(1));
        // Condition instructions are marked.
        assert!(cfg.blocks[1].insts.iter().all(|i| i.cond));
    }

    #[test]
    fn if_else_layout_matches_codegen() {
        let cfg = lower_src(
            "double f(double x) { if (x < 0.0) { x = -x; } else { x = x + 1.0; } return x; }",
        );
        let Terminator::Branch(_, t, e) = cfg.blocks[0].term else {
            panic!("entry must branch");
        };
        assert_eq!(t, 1, "then block immediately follows the branch");
        assert_eq!(e, 2, "else block follows the then block");
        assert_eq!(cfg.blocks[1].term, Terminator::Jump(3));
        assert_eq!(cfg.blocks[2].term, Terminator::Jump(3));
    }

    #[test]
    fn var_provenance_tags_top_level_instruction() {
        let cfg = lower_src("double f(double x) { double y = x * x; return y; }");
        let mul = cfg.blocks[0]
            .insts
            .iter()
            .find(|i| matches!(i.inst, Inst::Mul(..)))
            .unwrap();
        assert_eq!(mul.var.as_deref(), Some("y"));
    }

    #[test]
    fn pragma_rides_on_the_operation_it_governs() {
        let cfg =
            lower_src("void f(double x, double z) {\n#pragma safegen prioritize(z)\nx = x * z; }");
        let mul = cfg.blocks[0]
            .insts
            .iter()
            .find(|i| matches!(i.inst, Inst::Mul(..)))
            .unwrap();
        assert_eq!(mul.protect, Some(1), "z is f1");
        assert!(
            cfg.dump().contains("mul f0, f1 [protect f1]"),
            "{}",
            cfg.dump()
        );
    }

    #[test]
    fn dump_is_deterministic_and_labelled() {
        let cfg = lower_src("double f(double a) { return a + 1.0; }");
        let d1 = cfg.dump();
        let d2 = cfg.dump();
        assert_eq!(d1, d2);
        assert!(d1.contains("cfg f"));
        assert!(d1.contains("param a = f0"));
        assert!(d1.contains("bb0:"));
        assert!(d1.contains("add"));
        assert!(d1.contains("ret"));
    }

    #[test]
    fn home_names_recorded() {
        let cfg = lower_src("double f(double x, int n) { double y = x; return y; }");
        assert_eq!(cfg.fnames[0].as_deref(), Some("x"));
        assert_eq!(cfg.inames[0].as_deref(), Some("n"));
        assert!(cfg.fnames.iter().any(|n| n.as_deref() == Some("y")));
    }
}
