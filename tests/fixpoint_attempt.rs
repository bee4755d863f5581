//! The fixpoint engine's concrete attempt is the plain VM: when every
//! loop's trip count fits the `LoopMode::Auto` attempt budget, the engine
//! must return what `exec` returns — enclosure bits, certified bits and
//! every run statistic (instructions, FP ops, undecided branches, fusions,
//! condensations) — for every corpus function under every run
//! configuration.

use safegen_suite::safegen::program::ParamBinding;
use safegen_suite::safegen::{
    parse_corpus_header, ArgValue, Compiler, LoopMode, RunConfig, RunReport,
};
use std::fs;
use std::path::PathBuf;

/// All ten run configurations (the list `lanes_differential` checks).
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

/// A report as bits: return and array enclosures, certified bits, stats.
fn bits(r: &RunReport) -> String {
    let hull = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
    let arrays: Vec<(&str, Vec<(u64, u64)>)> = r
        .arrays
        .iter()
        .map(|(name, vs)| (name.as_str(), vs.iter().copied().map(hull).collect()))
        .collect();
    format!(
        "ret {:?} arrays {arrays:?} acc {:#x} {:?}",
        r.ret.map(hull),
        r.acc_bits.to_bits(),
        r.stats
    )
}

#[test]
fn engine_attempt_matches_exec_on_the_corpus() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut loops = 0;
    for entry in fs::read_dir(dir).expect("tests/corpus exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("c") {
            continue;
        }
        let src = fs::read_to_string(&path).unwrap();
        let compiled = Compiler::new().compile(&src).unwrap();
        for (func, inputs) in parse_corpus_header(&src) {
            for config in all_configs() {
                let prog = compiled.program_for(&func, &config);
                // The header's trip counts, then one near the default
                // Auto attempt budget of 1024 back-edge traversals.
                for trips in [None, Some(1000)] {
                    let args: Vec<ArgValue> = prog
                        .params
                        .iter()
                        .zip(&inputs)
                        .map(|((_, binding), &x)| match binding {
                            ParamBinding::Int(_) => ArgValue::Int(trips.unwrap_or(x as i64)),
                            _ => ArgValue::Float(x),
                        })
                        .collect();
                    let what = format!(
                        "{} fn={func} {} trips={trips:?}",
                        path.display(),
                        config.label()
                    );
                    let plain = config.clone().with_loop_mode(LoopMode::Unroll);
                    let engine = config.clone().with_loop_mode(LoopMode::Auto);
                    let want = compiled.run(&func, &args, &plain).unwrap();
                    let got = compiled.run(&func, &args, &engine).unwrap();
                    assert_eq!(got.stats.fixpoint_loops, 0, "{what}: solved abstractly");
                    assert_eq!(bits(&got), bits(&want), "{what}");
                    loops += usize::from(want.stats.instrs > prog.code.len() as u64);
                }
            }
        }
    }
    assert!(loops >= 40, "corpus runs too few loops: {loops}");
}
