//! Artifact round-trip integration tests: compile → serialize →
//! deserialize → run must be bit-identical to running the in-memory
//! compilation, across every numeric domain; and malformed bytes must
//! be rejected with a specific diagnostic, never decoded best-effort.

use safegen_suite::fuzz::{generate_seeded, GenLimits};
use safegen_suite::safegen::{
    self, ArgValue, Artifact, ArtifactError, BuildOptions, Compiler, RunConfig,
};

/// One config per domain family; prioritized budgets limited to the
/// artifact's precompiled set (8 and 16 by default).
fn configs() -> Vec<RunConfig> {
    vec![
        RunConfig::unsound(),
        RunConfig::interval_f64(),
        RunConfig::interval_dd(),
        RunConfig::yalaa_aff0(),
        RunConfig::yalaa_aff1(),
        RunConfig::ceres(8),
        RunConfig::affine_f64(8),
        RunConfig::affine_f64(16),
        RunConfig::affine_f32(8),
        RunConfig::affine_dd(8),
    ]
}

fn bits(r: Option<(f64, f64)>) -> Option<(u64, u64)> {
    r.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
}

fn build(src: &str) -> Artifact {
    let mut opts = BuildOptions::new("roundtrip.c");
    opts.use_cache = false;
    safegen::compile_to_artifact(src, &opts).expect("source compiles")
}

#[test]
fn fuzz_programs_round_trip_bit_identical() {
    for iter in 0..6u64 {
        let prog = generate_seeded(0xA21F_2022, iter, &GenLimits::default());
        let src = safegen_suite::fuzz::render(&prog);
        let artifact = build(&src);
        let back = Artifact::from_bytes(&artifact.to_bytes()).expect("round-trips");
        assert_eq!(back, artifact, "decode(encode(a)) != a for:\n{src}");

        let compiled = Compiler::new().compile(&src).expect("source compiles");
        for (func, inputs) in prog.function_names().iter().zip(&prog.inputs) {
            let args: Vec<ArgValue> = inputs.iter().map(|&x| ArgValue::Float(x)).collect();
            for config in configs() {
                let from_artifact = safegen::run_artifact(&back, func, &args, &config);
                let in_memory = compiled.run(func, &args, &config);
                let ctx = format!("{func} under {} for:\n{src}", config.label());
                match (from_artifact, in_memory) {
                    (Ok(a), Ok(m)) => {
                        assert_eq!(bits(a.ret), bits(m.ret), "ret differs: {ctx}");
                        assert_eq!(
                            a.acc_bits.to_bits(),
                            m.acc_bits.to_bits(),
                            "acc_bits differs: {ctx}"
                        );
                        assert_eq!(a.arrays.len(), m.arrays.len(), "arrays differ: {ctx}");
                        for ((an, av), (mn, mv)) in a.arrays.iter().zip(&m.arrays) {
                            assert_eq!(an, mn, "array name differs: {ctx}");
                            let ab: Vec<_> = av.iter().map(|&r| bits(Some(r))).collect();
                            let mb: Vec<_> = mv.iter().map(|&r| bits(Some(r))).collect();
                            assert_eq!(ab, mb, "array {an} differs: {ctx}");
                        }
                    }
                    (Err(a), Err(m)) => assert_eq!(a, m, "errors differ: {ctx}"),
                    (a, m) => {
                        panic!("artifact/in-memory disagree on success: {a:?} vs {m:?} ({ctx})")
                    }
                }
            }
        }
    }
}

#[test]
fn corpus_programs_round_trip() {
    for entry in std::fs::read_dir("tests/corpus").expect("corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("c") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("corpus file reads");
        let artifact = build(&src);
        let back = Artifact::from_bytes(&artifact.to_bytes()).expect("round-trips");
        assert_eq!(back, artifact, "{}", path.display());
    }
}

#[test]
fn truncated_bytes_are_rejected() {
    let bytes = build("double g(double x) { return x * x + 1.0; }").to_bytes();
    // Every strict prefix must be rejected as truncation or a payload
    // length mismatch — never decoded.
    for cut in [0, 1, 4, 47, 48, bytes.len() / 2, bytes.len() - 1] {
        let err = Artifact::from_bytes(&bytes[..cut]).expect_err("prefix must fail");
        assert!(
            matches!(
                err,
                ArtifactError::Truncated { .. } | ArtifactError::PayloadLength { .. }
            ),
            "cut at {cut}: unexpected error {err}"
        );
    }
    // Trailing garbage is also a hard error.
    let mut long = bytes.clone();
    long.push(0);
    assert!(matches!(
        Artifact::from_bytes(&long),
        Err(ArtifactError::PayloadLength { .. })
    ));
}

#[test]
fn wrong_magic_version_flags_and_hash_are_rejected() {
    let bytes = build("double g(double x) { return x * x + 1.0; }").to_bytes();

    let mut bad = bytes.clone();
    bad[0] = b'X';
    assert!(matches!(
        Artifact::from_bytes(&bad),
        Err(ArtifactError::BadMagic(_))
    ));

    // Version is a u16 LE at offset 4.
    let mut bad = bytes.clone();
    bad[4] = 0xFF;
    bad[5] = 0x7F;
    match Artifact::from_bytes(&bad) {
        Err(ArtifactError::UnsupportedVersion(v)) => assert_eq!(v, 0x7FFF),
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    // Flags are a u16 LE at offset 6; every bit is reserved.
    for flag in [1, 2] {
        let mut bad = bytes.clone();
        bad[6] = flag;
        assert_eq!(
            Artifact::from_bytes(&bad),
            Err(ArtifactError::BadFlags(u16::from(flag)))
        );
    }

    // Any payload corruption fails the content hash before decoding.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x40;
    assert!(matches!(
        Artifact::from_bytes(&bad),
        Err(ArtifactError::HashMismatch { .. })
    ));
}

/// Version 3, whose operations could carry a symbol budget of their own,
/// is refused by name: recompiling the source is the upgrade.
#[test]
fn version_3_artifacts_are_refused_by_name() {
    let mut bytes = build("double g(double x) { return x * x + 1.0; }").to_bytes();
    bytes[4..6].copy_from_slice(&3u16.to_le_bytes());
    let err = Artifact::from_bytes(&bytes).unwrap_err();
    assert_eq!(err, ArtifactError::UnsupportedVersion(3));
    assert!(
        err.to_string().contains("unsupported artifact version 3"),
        "{err}"
    );
}

#[test]
fn artifact_files_round_trip_on_disk() {
    let artifact = build("double g(double x, double y) { return x / (y + 2.0); }");
    let dir = std::env::temp_dir();
    let path = dir.join(format!("safegen-roundtrip-{}.sga", std::process::id()));
    artifact.write_file(&path).expect("writes");
    let back = Artifact::read_file(&path).expect("reads");
    std::fs::remove_file(&path).expect("cleanup");
    assert_eq!(back, artifact);
    assert_eq!(back.id(), artifact.id());
}
