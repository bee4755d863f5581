//! Instruction budget for the benchmark's four kernels.
//!
//! Compiles `crates/bench/src/bin/perf/c/*.c` (read in place, so the
//! budget follows the programs the benchmark times) with the optimizing
//! pipeline and runs each once under the Unsound domain. Each kernel's
//! executed instructions must stay within its budget, so an optimizer
//! regression fails `cargo test` rather than only the benchmark, and its
//! FP operation count must stay exactly what it is: the passes may only
//! remove integer and copy work, never floating-point operations.

use safegen_suite::safegen::{ArgValue, Compiler, PassManager, RunConfig};
use std::fs;
use std::path::Path;

/// A deterministic pseudo-random array in `[lo, lo + 1)`.
fn array(n: usize, salt: u64, lo: f64) -> ArgValue {
    let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
    ArgValue::Array(
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                lo + (s >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect(),
    )
}

/// Runs one kernel under Unsound; returns (instructions, FP operations).
fn run(name: &str, args: &[ArgValue]) -> (u64, u64) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/bench/src/bin/perf/c")
        .join(format!("{name}.c"));
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    // Pin the pipeline so a SAFEGEN_PASSES setting cannot move the count.
    let compiled = Compiler::new()
        .with_passes(PassManager::optimizing())
        .compile(&src)
        .unwrap();
    let report = compiled.run(name, args, &RunConfig::unsound()).unwrap();
    (report.stats.instrs, report.stats.fp_ops)
}

fn check(name: &str, args: &[ArgValue], max_instrs: u64, fp_ops: u64) {
    let (instrs, ops) = run(name, args);
    assert!(
        instrs <= max_instrs,
        "{name}: {instrs} instructions per eval, budget {max_instrs}"
    );
    assert_eq!(ops, fp_ops, "{name}: FP operations per eval changed");
}

#[test]
fn henon_budget() {
    let args = [0.1.into(), 0.2.into(), ArgValue::Array(vec![0.0; 2])];
    check("henon", &args, 1_400, 500);
}

#[test]
fn sor_budget() {
    check("sor", &[array(100, 1, 0.0)], 50_000, 11_522);
}

#[test]
fn luf_budget() {
    // Diagonally dominant, so the pivot search's branch pattern is fixed.
    let ArgValue::Array(mut a) = array(400, 2, 0.0) else {
        unreachable!()
    };
    for i in 0..20 {
        a[i * 20 + i] += 40.0;
    }
    check("luf", &[ArgValue::Array(a)], 46_000, 5_339);
}

#[test]
fn fgm_budget() {
    let args = [
        array(64, 3, 0.0),
        array(8, 4, -0.5),
        array(8, 5, 0.0),
        ArgValue::Array(vec![0.0; 8]),
    ];
    check("fgm", &args, 40_000, 7_680);
}
