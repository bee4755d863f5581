//! Golden IR-dump snapshots for the corpus programs: the CFG middle-end's
//! output after the full optimizing pipeline (CSE → copy propagation →
//! DCE → register allocation), pinned byte-for-byte so any change to
//! lowering, pass ordering, or the `dump` format is visible in review.
//!
//! Regenerate with `SAFEGEN_UPDATE_GOLDEN=1 cargo test --test ir_golden`.

use safegen_suite::safegen::{Compiler, PassManager};
use std::fs;
use std::path::Path;

fn dump_all(src: &str) -> String {
    // Pin the pipeline explicitly so a SAFEGEN_PASSES setting in the
    // environment cannot change what the snapshot captures.
    let c = Compiler::new()
        .with_passes(PassManager::optimizing())
        .compile(src)
        .unwrap();
    let mut out = String::new();
    for f in &c.tac.functions {
        out.push_str(&c.dump_ir(&f.name));
    }
    out
}

fn check(name: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let src_path = root.join("tests/corpus").join(format!("{name}.c"));
    let golden_path = root.join("tests/golden/ir").join(format!("{name}.ir"));
    let src =
        fs::read_to_string(&src_path).unwrap_or_else(|e| panic!("{}: {e}", src_path.display()));
    let got = dump_all(&src);
    if std::env::var("SAFEGEN_UPDATE_GOLDEN").as_deref() == Ok("1") {
        fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        fs::write(&golden_path, &got).unwrap();
        return;
    }
    let want = fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nregenerate with SAFEGEN_UPDATE_GOLDEN=1",
            golden_path.display()
        )
    });
    assert_eq!(
        got, want,
        "optimized IR for `{name}` drifted; if intended, regenerate with \
         SAFEGEN_UPDATE_GOLDEN=1 cargo test --test ir_golden.\ngot:\n{got}"
    );
}

#[test]
fn branch_join_ir_golden() {
    check("branch_join");
}

#[test]
fn cancellation_ir_golden() {
    check("cancellation");
}

#[test]
fn guarded_div_ir_golden() {
    check("guarded_div");
}

#[test]
fn loop_accum_ir_golden() {
    check("loop_accum");
}

#[test]
fn two_funcs_ir_golden() {
    check("two_funcs");
}

#[test]
fn stencil_index_ir_golden() {
    check("stencil_index");
}

#[test]
fn zero_trip_index_ir_golden() {
    check("zero_trip_index");
}

/// The dump is deterministic across compilations — a prerequisite for
/// golden snapshots to be meaningful.
#[test]
fn dump_is_reproducible() {
    let src = "double f(double x) { double a = x * x; double b = x * x; return a + b; }";
    assert_eq!(dump_all(src), dump_all(src));
}
