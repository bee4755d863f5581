//! # safegen-ir
//!
//! The middle-end of SafeGen-rs (paper Sec. VI-C):
//!
//! * [`tac`] — the **three-address-code transformation**: a source-to-source
//!   pass that flattens every floating-point expression so each FP
//!   operation sits on its own line in a fresh temporary. This is the form
//!   the static analysis annotates (each DAG node ↔ one source line) and
//!   the backend transforms.
//! * [`mod@cfg`] — the **CFG IR**: each TAC function is lowered once into
//!   basic blocks of three-address instructions over virtual registers,
//!   with per-instruction source-span provenance. The bytecode emitter,
//!   the DAG analysis, the C emitter, the profiler and the exact oracle
//!   all consume this one lowered form.
//! * [`passes`] — the **optimizing pass pipeline** over the CFG: sound
//!   common-subexpression elimination, copy propagation, dead-code
//!   elimination, and liveness-based register allocation, run by a
//!   [`PassManager`] that honors the `SAFEGEN_PASSES` environment
//!   variable.
//! * [`bytecode`] — the **register bytecode**: the stable artifact
//!   surface. [`emit_program`] linearizes an optimized CFG into the flat
//!   [`Program`] the VM dispatches over; `Program` is plain serializable
//!   data, which is what the `safegen-artifact` container format ships.
//! * [`dag`] — the **computation DAG**: nodes are floating-point
//!   operations (sources are the input variables), edges are data
//!   dependencies. Loop bodies are traversed once and loop-carried
//!   dependencies are dropped, exactly as the paper's analysis does.
//!
//! ```
//! let unit = safegen_cfront::parse(
//!     "double f(double x, double y, double z) { return x * z - y * z; }",
//! ).unwrap();
//! let sema = safegen_cfront::analyze(&unit).unwrap();
//! let (tac, sema) = safegen_ir::to_tac_with_sema(&unit, &sema);
//! let dag = safegen_ir::build_dag(&tac.functions[0], &sema);
//! // two multiplies, one subtract, three inputs
//! assert_eq!(dag.op_count(), 3);
//! assert_eq!(dag.input_count(), 3);
//! // The same function lowers to the CFG IR the backend consumes.
//! let cfg = safegen_ir::lower_function(&tac.functions[0], &sema).unwrap();
//! assert!(cfg.inst_count() >= 3);
//! ```

pub mod bytecode;
pub mod cfg;
pub mod dag;
pub mod fold;
pub mod loops;
pub mod passes;
pub mod tac;

pub use bytecode::{
    emit_program, encode, pair_histogram, FixedInstr, FixedProgram, Imm, OpCode, Operand, Program,
    MAX_REGS, PRAGMA_CAPACITY, PRAGMA_PROTECT,
};
pub use cfg::{
    lower_function, ArrId, ArrayDecl, Block, BlockId, Cfg, CfgInstr, CmpOp, FReg, IReg, Inst,
    OpPragma, ParamBinding, Terminator,
};
pub use dag::{build_dag, build_dag_from_cfg, Dag, Node, NodeId, NodeKind};
pub use fold::fold_constants;
pub use loops::{loop_regions, LoopRegion, LoopTable};
pub use passes::{pass_by_name, Pass, PassManager};
pub use tac::{to_tac, to_tac_with_sema};
