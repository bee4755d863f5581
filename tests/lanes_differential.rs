//! Differential check of the SoA lane engine against the scalar
//! interpreter: for every run configuration, every lane width in
//! {1, 2, 4, 8}, every corpus program (branches, bounded loops) and a
//! stream of fuzzer-generated programs, `run_lanes_on` must agree with
//! `run_on` **bit for bit** — enclosure endpoints, certified bits,
//! per-run statistics, and error messages alike. This is the
//! lane-consistency guarantee the batch engine's default path rests on
//! (DESIGN.md §10).

use safegen_fuzz::{generate_seeded, render, GenLimits};
use safegen_suite::safegen::{
    encode, parse_corpus_header, run_lanes_on, run_on, ArgValue, Compiler, RunConfig,
};
use std::fs;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// All ten run configurations: the unsound original, the two IGen-style
/// interval baselines, four affine variants, and the three reimplemented
/// baselines.
fn all_configs() -> Vec<RunConfig> {
    vec![
        RunConfig::unsound(),
        RunConfig::interval_f64(),
        RunConfig::interval_dd(),
        RunConfig::affine_f64(8),
        RunConfig::mnemonic(2, "sonn").unwrap(),
        RunConfig::affine_dd(8),
        RunConfig::affine_f32(8),
        RunConfig::yalaa_aff0(),
        RunConfig::yalaa_aff1(),
        RunConfig::ceres(8),
    ]
}

/// Lane `l`'s input point: the base inputs, each perturbed by a small
/// lane-dependent factor so lanes genuinely diverge at branches.
fn lane_inputs(base: &[f64], l: usize) -> Vec<ArgValue> {
    base.iter()
        .map(|&x| (x * (1.0 + 0.013 * l as f64) + 0.001 * l as f64).into())
        .collect()
}

/// Bit-exact comparison of two reports (or two errors).
#[allow(clippy::type_complexity)]
fn assert_identical(
    scalar: &Result<safegen_suite::safegen::RunReport, String>,
    laned: &Result<safegen_suite::safegen::RunReport, String>,
    what: &str,
) {
    match (scalar, laned) {
        (Ok(s), Ok(g)) => {
            let bits = |r: Option<(f64, f64)>| r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
            assert_eq!(bits(s.ret), bits(g.ret), "{what}: return enclosure");
            assert_eq!(
                s.acc_bits.to_bits(),
                g.acc_bits.to_bits(),
                "{what}: certified bits"
            );
            assert_eq!(s.stats, g.stats, "{what}: run statistics");
            assert_eq!(s.arrays.len(), g.arrays.len(), "{what}: array count");
            for ((sn, sv), (gn, gv)) in s.arrays.iter().zip(&g.arrays) {
                assert_eq!(sn, gn, "{what}: array name");
                let sb: Vec<_> = sv
                    .iter()
                    .map(|&(lo, hi)| (lo.to_bits(), hi.to_bits()))
                    .collect();
                let gb: Vec<_> = gv
                    .iter()
                    .map(|&(lo, hi)| (lo.to_bits(), hi.to_bits()))
                    .collect();
                assert_eq!(sb, gb, "{what}: array `{sn}` enclosures");
            }
        }
        (Err(s), Err(g)) => assert_eq!(s, g, "{what}: error message"),
        (s, g) => panic!("{what}: ok/err disagreement: scalar {s:?} vs lanes {g:?}"),
    }
}

/// Runs one program through every config × lane width and compares each
/// lane against its scalar run.
fn differential(src: &str, func: &str, base_inputs: &[f64], what: &str) {
    let compiled = match Compiler::new().compile(src) {
        Ok(c) => c,
        Err(e) => panic!("{what}: compile failed: {e}"),
    };
    for config in all_configs() {
        let prog = compiled.program_for(func, &config);
        let fixed = encode(&prog).expect("every program encodes");
        for w in [1usize, 2, 4, 8] {
            let inputs: Vec<Vec<ArgValue>> = (0..w).map(|l| lane_inputs(base_inputs, l)).collect();
            let laned = run_lanes_on(&prog, &fixed, &inputs, &config);
            assert_eq!(laned.len(), w);
            for (l, got) in laned.iter().enumerate() {
                let scalar = run_on(&prog, &inputs[l], &config);
                assert_identical(
                    &scalar,
                    got,
                    &format!("{what} fn={func} {} w={w} lane {l}", config.label()),
                );
            }
        }
    }
}

#[test]
fn corpus_programs_lane_identical_across_all_configs() {
    let mut n = 0;
    for entry in fs::read_dir(corpus_dir()).expect("tests/corpus exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("c") {
            continue;
        }
        let src = fs::read_to_string(&path).unwrap();
        for (func, inputs) in parse_corpus_header(&src) {
            differential(&src, &func, &inputs, &format!("{}", path.display()));
            n += 1;
        }
    }
    assert!(n >= 3, "corpus unexpectedly small: {n} cases");
}

#[test]
fn fuzzed_programs_lane_identical_across_all_configs() {
    // Smaller programs than the soundness fuzzer uses, but with the same
    // branch/loop vocabulary; the seed keeps this deterministic.
    let limits = GenLimits::default();
    let iters = match std::env::var("SAFEGEN_LANE_FUZZ_ITERS") {
        Ok(v) => v.parse().unwrap_or(6),
        Err(_) => 6,
    };
    for iter in 0..iters {
        let prog = generate_seeded(0xC60_2022, iter, &limits);
        let src = render(&prog);
        for (f, inputs) in prog.function_names().iter().zip(&prog.inputs) {
            differential(&src, f, inputs, &format!("fuzz iter {iter}"));
        }
    }
}
