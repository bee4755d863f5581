//! Compilation to register bytecode.
//!
//! The bytecode itself — [`FixedInstr`], [`Program`], and the CFG linearizer
//! [`emit_program`] — lives in [`safegen_ir::bytecode`] so that the
//! artifact layer (`safegen-artifact`) can serialize programs without
//! depending on the driver; this module re-exports those types and adds
//! the front-to-back compile entry points.
//!
//! Compilation goes through the shared CFG middle-end: the function is
//! lowered once (see [`safegen_ir::lower_function`]), the configured
//! [`PassManager`] pipeline optimizes the CFG in place, and
//! [`emit_program`] linearizes the blocks into the flat instruction
//! stream the VM dispatches over.

use safegen_cfront::{Diagnostic, Function, ParseError, Sema};
use safegen_ir::PassManager;

pub use safegen_ir::bytecode::{
    emit_program, encode, pair_histogram, FixedInstr, FixedProgram, OpCode, Program,
};
pub use safegen_ir::cfg::{ArrId, ArrayDecl, CmpOp, FReg, IReg, ParamBinding};

/// Compiles a function of the supported subset to bytecode, running the
/// pass pipeline configured by `SAFEGEN_PASSES` (the optimizing default
/// when unset — see [`PassManager::from_env`]).
///
/// # Errors
///
/// Returns a diagnostic for constructs the IR cannot express, or for an
/// invalid `SAFEGEN_PASSES` value.
pub fn compile_program(f: &Function, sema: &Sema) -> Result<Program, ParseError> {
    let pm = PassManager::from_env().map_err(|e| ParseError::from(Diagnostic::new(e, f.span)))?;
    compile_program_with(f, sema, &pm)
}

/// Compiles a function with an explicit pass pipeline.
///
/// # Errors
///
/// Returns a diagnostic for constructs the IR cannot express, and for a
/// function whose register files exceed the bytecode's limit.
pub fn compile_program_with(
    f: &Function,
    sema: &Sema,
    pm: &PassManager,
) -> Result<Program, ParseError> {
    let mut cfg = safegen_ir::lower_function(f, sema)?;
    pm.run(&mut cfg);
    emit_program(&cfg).map_err(|e| ParseError::from(Diagnostic::new(e, f.span)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use safegen_cfront::{analyze, parse};

    fn compile_src(src: &str) -> Program {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let (tac, sema) = safegen_ir::to_tac_with_sema(&unit, &sema);
        compile_program_with(&tac.functions[0], &sema, &PassManager::optimizing()).unwrap()
    }

    fn compile_unopt(src: &str) -> Program {
        let unit = parse(src).unwrap();
        let sema = analyze(&unit).unwrap();
        let (tac, sema) = safegen_ir::to_tac_with_sema(&unit, &sema);
        compile_program_with(&tac.functions[0], &sema, &PassManager::none()).unwrap()
    }

    #[test]
    fn compiles_straight_line() {
        let p = compile_src("double f(double a, double b) { return a * b + 0.1; }");
        assert!(p.code.iter().any(|i| i.op == OpCode::Mul));
        assert!(p.code.iter().any(|i| i.op == OpCode::Add));
        assert!(p
            .code
            .iter()
            .any(|i| i.op == OpCode::ConstF && p.fpool[i.imm as usize] == 0.1));
        assert_eq!(p.code.last().map(|i| i.op), Some(OpCode::RetVoid));
        assert_eq!(p.params.len(), 2);
    }

    #[test]
    fn compiles_loop_with_backedge() {
        let p = compile_src(
            "void f(double a[4]) { for (int i = 0; i < 4; i++) { a[i] = a[i] * 2.0; } }",
        );
        let jumps: Vec<usize> = p
            .code
            .iter()
            .filter(|i| i.op == OpCode::Jump)
            .map(|i| i.imm as usize)
            .collect();
        assert!(!jumps.is_empty());
        // Back-edge target precedes the jump site.
        assert!(jumps.iter().any(|&t| t < p.code.len()));
        assert!(p.code.iter().any(|i| i.op == OpCode::LoadArr));
        assert!(p.code.iter().any(|i| i.op == OpCode::StoreArr));
    }

    #[test]
    fn if_else_jumps_patched() {
        let p = compile_src(
            "double f(double x) { if (x < 0.0) { x = -x; } else { x = x + 1.0; } return x; }",
        );
        for ins in &p.code {
            if let Some(t) = ins.target() {
                assert!(t <= p.code.len(), "unpatched jump {ins:?}");
            }
        }
        assert!(p
            .code
            .iter()
            .any(|i| i.op == OpCode::CmpF && i.cmp_op() == CmpOp::Lt));
    }

    #[test]
    fn two_d_array_flat_indexing() {
        let p = compile_src("void f(double g[3][4], int i, int j) { g[i][j] = g[j][i] + 1.0; }");
        // flat = i*4 + j requires a ConstI(4).
        assert!(p
            .code
            .iter()
            .any(|i| i.op == OpCode::ConstI && p.ipool[i.imm as usize] == 4));
    }

    #[test]
    fn pragma_rides_on_its_operation() {
        let p = compile_src(
            "void f(double x, double z) {\n#pragma safegen prioritize(z)\nx = x * z; }",
        );
        let mul = p.code.iter().find(|i| i.op == OpCode::Mul).unwrap();
        assert_eq!(mul.protect(), Some(usize::from(mul.b)), "z protected");
        let carriers = p
            .code
            .iter()
            .filter(|i| i.protect().is_some() || i.capacity().is_some());
        assert_eq!(carriers.count(), 1);
    }

    #[test]
    fn builtins_compile() {
        let p = compile_src(
            "double f(double x, double y) { return fmax(fmin(sqrt(x), fabs(y)), 0.0); }",
        );
        assert!(p.code.iter().any(|i| i.op == OpCode::Sqrt));
        assert!(p.code.iter().any(|i| i.op == OpCode::Abs));
        assert!(p.code.iter().any(|i| i.op == OpCode::Min));
        assert!(p.code.iter().any(|i| i.op == OpCode::Max));
    }

    #[test]
    fn int_to_float_promotion() {
        let p = compile_src("double f(int n) { return n * 0.5; }");
        assert!(p.code.iter().any(|i| i.op == OpCode::CastIF));
    }

    #[test]
    fn while_and_logical_ops() {
        let p = compile_src(
            "void f(double x, int n) { while (n > 0 && x < 100.0) { x = x * 2.0; n = n - 1; } }",
        );
        assert!(p.code.iter().any(|i| i.op == OpCode::MulI));
        assert!(p.code.iter().any(|i| i.op == OpCode::CmpF));
        assert!(p.code.iter().any(|i| i.op == OpCode::CmpI));
    }

    #[test]
    fn display_lists_instructions() {
        let p = compile_src("double f(double x) { return x; }");
        let s = p.to_string();
        assert!(s.contains("program f"));
        assert!(s.contains(": ret"));
    }

    #[test]
    fn spans_align_with_code() {
        let p = compile_src("double f(double a, double b) { return a / b; }");
        assert_eq!(p.code.len(), p.spans.len());
    }

    #[test]
    fn optimization_shrinks_code_and_registers() {
        let src = "double f(double x) { double a = x * x; double b = x * x; return a + b; }";
        let unopt = compile_unopt(src);
        let opt = compile_src(src);
        assert!(opt.code.len() < unopt.code.len());
        assert!(opt.n_fregs < unopt.n_fregs);
        // Only one multiply survives CSE.
        assert_eq!(opt.code.iter().filter(|i| i.op == OpCode::Mul).count(), 1);
    }

    #[test]
    fn optimized_jump_targets_stay_valid() {
        let p = compile_src(
            "double f(double x, int n) {
                double s = 0.0;
                for (int i = 0; i < n; i++) { double t = x * x; s = s + t; }
                if (s > 10.0) { s = s / 2.0; } else { s = s * 2.0; }
                return s;
            }",
        );
        for ins in &p.code {
            if let Some(t) = ins.target() {
                assert!(t <= p.code.len(), "target out of range: {ins:?}");
            }
        }
        assert_eq!(p.code.len(), p.spans.len());
    }
}
