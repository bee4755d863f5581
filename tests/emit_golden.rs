//! Golden test for the sound-C backend: the paper's Fig. 2 transformation
//! shape, pinned exactly so output drift is visible in review.

use safegen_suite::cfront::{self, emit_c, EmitPrecision};
use safegen_suite::fuzz::{generate_seeded, render, GenLimits};
use safegen_suite::ir;
use safegen_suite::safegen::{Compiler, VariantKind};

fn emit(src: &str, precision: EmitPrecision) -> String {
    let unit = cfront::parse(src).unwrap();
    let unit = cfront::rename_unique(&unit);
    let sema = cfront::analyze(&unit).unwrap();
    let tac = ir::to_tac(&unit, &sema);
    let sema = cfront::analyze(&tac).unwrap();
    emit_c(&tac, &sema, precision)
}

/// Fig. 2 of the paper: `c = a * b + 0.1` becomes a declaration with an
/// affine type and a chain of affine-library calls, with the constant
/// converted conservatively.
#[test]
fn fig2_golden() {
    let src = "void compute(double a, double b, double c) {
    c = a * b + 0.1;
}
";
    let expected = r#"/* Generated by SafeGen-rs: sound affine-arithmetic version. */
#include "safegen_aa.h"

f64a compute(f64a a, f64a b, f64a c) {
    f64a _t1 = aa_mul_f64(a, b);
    c = aa_add_f64(_t1, aa_const_f64(0.1));
}

"#;
    let got = emit(src, EmitPrecision::F64);
    assert_eq!(
        got.replace("void compute", "f64a compute"),
        expected.replace("void compute", "f64a compute"),
        "Fig. 2 transformation drifted:\n{got}"
    );
}

#[test]
fn loop_structure_preserved_golden() {
    let src = "void scale(double a[3]) {
    for (int i = 0; i < 3; i++) {
        a[i] = a[i] * 2.0;
    }
}
";
    let got = emit(src, EmitPrecision::F64);
    let expected = r#"/* Generated by SafeGen-rs: sound affine-arithmetic version. */
#include "safegen_aa.h"

void scale(f64a a[3]) {
    for (int i = 0; i < 3; i = i + 1) {
        a[i] = aa_mul_f64(a[i], aa_const_f64(2.0));
    }
}

"#;
    assert_eq!(got, expected, "loop transformation drifted:\n{got}");
}

#[test]
fn elementary_function_name_matches_paper() {
    // The paper: "sqrt(x) is transformed to aa_sqrt_f64(x)".
    let got = emit("double f(double x) { return sqrt(x); }", EmitPrecision::F64);
    assert!(got.contains("aa_sqrt_f64(x)"), "{got}");
}

/// Generator-driven round-trip: for a spread of fuzzer seeds, emitting
/// the compiled TAC as sound C, re-absorbing that C through the parser,
/// and recompiling must reproduce the *same* TAC — checked by requiring
/// the second emission to be byte-identical to the first (a fixpoint).
/// Division, if/else, bounded loops, and multi-function units are all in
/// the generator's grammar, so this covers far more backend surface than
/// the pinned goldens above.
#[test]
fn generated_programs_emit_reparse_to_identical_tac() {
    let limits = GenLimits::default();
    for iter in 0..40u64 {
        let prog = generate_seeded(0xC60, iter, &limits);
        let src = render(&prog);
        let c1 = Compiler::new()
            .compile(&src)
            .unwrap_or_else(|e| panic!("iter {iter}: generated source rejected: {e}\n{src}"));
        let sema1 = cfront::analyze(&c1.tac).unwrap();
        let first = emit_c(&c1.tac, &sema1, EmitPrecision::F64);

        let unit = cfront::reparse_emitted(&first)
            .unwrap_or_else(|e| panic!("iter {iter}: emitted C does not reparse: {e}\n{first}"));
        let c2 = Compiler::new()
            .compile(&cfront::print_unit(&unit))
            .unwrap_or_else(|e| panic!("iter {iter}: reparsed C does not recompile: {e}"));
        let sema2 = cfront::analyze(&c2.tac).unwrap();
        let second = emit_c(&c2.tac, &sema2, EmitPrecision::F64);

        assert_eq!(
            first, second,
            "iter {iter}: emit/reparse round trip is not a fixpoint\nsource:\n{src}"
        );
    }
}

#[test]
fn integer_constants_stay_exact() {
    // `0.0` and `2.0` are integral: aa_const handles them; the backend
    // must not invent extra transformations for int-typed code.
    let got = emit(
        "double f(double x, int n) { double s = 0.0; s = s + x; n = n + 1; return s; }",
        EmitPrecision::F64,
    );
    assert!(got.contains("int n"), "{got}");
    assert!(got.contains("n = n + 1;"), "{got}");
    assert!(got.contains("aa_add_f64(s, x)"), "{got}");
}

/// An `int` declared from a float cast, and an `int` operand of a float
/// operation: both go through the runtime (`aa_to_int`, `aa_from_int`),
/// at every precision, and the emitted C reads back as the program.
#[test]
fn integer_casts_and_operands_golden() {
    let src = "int f(double x, double y) {
    int n = (int) x;
    double z = y;
    z = z + n;
    return n;
}
";
    for (p, t, s) in [
        (EmitPrecision::F64, "f64a", "f64"),
        (EmitPrecision::Dd, "dda", "dd"),
        (EmitPrecision::F32, "f32a", "f32"),
    ] {
        let got = emit(src, p);
        let expected = format!(
            "/* Generated by SafeGen-rs: sound affine-arithmetic version. */
#include \"safegen_aa.h\"

int f({t} x, {t} y) {{
    int n = aa_to_int_{s}(x);
    {t} z = y;
    z = aa_add_{s}(z, aa_from_int_{s}(n));
    return n;
}}

"
        );
        assert_eq!(got, expected, "{s}:\n{got}");
        let back = cfront::reparse_emitted(&got).unwrap();
        assert_eq!(cfront::print_unit(&back), src, "{s}: reparse");
    }
}

/// The `aa_prioritize` calls `emit_c` prints stand exactly before the
/// statements whose operation carries the pragma in the compiled
/// program: for the corpus and the benchmark kernels, the prioritized
/// statements (by span) and the protecting records (by span) pair up
/// one to one, each record inside its statement.
#[test]
fn emitted_prioritize_matches_the_records_that_carry_it() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["tests/corpus", "crates/bench/src/bin/perf/c"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "c") {
                files.push(path);
            }
        }
    }
    let mut total = 0;
    for path in files {
        let src = std::fs::read_to_string(&path).unwrap();
        let compiled = Compiler::new().compile(&src).unwrap();
        let annotated = safegen_suite::analysis::annotate_unit(&compiled.tac, 8).unwrap();
        let sema = cfront::analyze(&annotated).unwrap();
        let emitted = emit_c(&annotated, &sema, EmitPrecision::F64);
        let mut n_emitted = 0;
        for f in &annotated.functions {
            let mut stmts = Vec::new();
            let mut f = f.clone();
            cfront::resolve_pragmas(&mut f, &sema);
            prioritized_stmts(&f.body, &mut stmts);
            let prog = compiled.variant(&f.name, VariantKind::Prioritized { k: 8 });
            let records: Vec<cfront::Span> = prog
                .code
                .iter()
                .zip(&prog.spans)
                .filter(|(i, _)| i.protect().is_some())
                .map(|(_, s)| *s)
                .collect();
            let what = format!("{} fn {}", path.display(), f.name);
            assert_eq!(
                stmts.len(),
                records.len(),
                "{what}: {stmts:?} vs {records:?}"
            );
            for (s, r) in stmts.iter().zip(&records) {
                assert!(
                    s.start <= r.start && r.end <= s.end,
                    "{what}: {r:?} not in {s:?}"
                );
            }
            n_emitted += stmts.len();
        }
        assert_eq!(
            emitted.matches("aa_prioritize_f64(").count(),
            n_emitted,
            "{}",
            path.display()
        );
        total += n_emitted;
    }
    // henon's four, and the corpus programs' own.
    assert!(total >= 4, "{total}");
}

/// Spans of the statements a `prioritize` pragma precedes, in order.
fn prioritized_stmts(body: &[cfront::Stmt], out: &mut Vec<cfront::Span>) {
    use cfront::Stmt;
    let mut next = false;
    for s in body {
        match s {
            Stmt::Pragma { payload, .. } => next |= payload.starts_with("prioritize"),
            Stmt::If {
                then_body,
                else_body,
                ..
            } => {
                prioritized_stmts(then_body, out);
                prioritized_stmts(else_body, out);
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } | Stmt::Block { body, .. } => {
                prioritized_stmts(body, out)
            }
            _ => {}
        }
        if !matches!(s, Stmt::Pragma { .. }) && std::mem::take(&mut next) {
            out.push(s.span());
        }
    }
}
