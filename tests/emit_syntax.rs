//! A syntax gate for the emitted sound C: `safegen emit` output for every
//! corpus program and benchmark kernel, at every precision, with and
//! without the analysis, must pass `cc -fsyntax-only` against
//! declaration-only prototypes of the runtime table
//! (`safegen_cfront::RUNTIME`): an opaque value struct per precision,
//! `int` for comparisons and `aa_to_int`.
//!
//! Skips, saying why, when no C compiler is on the path.

use safegen_api::{EmitPrecision, Engine};
use safegen_cfront::{Construct, RUNTIME};
use std::path::{Path, PathBuf};
use std::process::Command;

/// `safegen_aa.h` for precision `p`: one prototype per runtime call.
fn prototypes(p: EmitPrecision) -> String {
    let t = p.value_type();
    let mut out = format!("typedef struct {{ double opaque[2]; }} {t};\n");
    for call in RUNTIME {
        let (ret, arg) = match call.construct {
            Construct::Bin(op) if op.is_cmp() => ("int", t),
            Construct::Const => (t, "double"),
            Construct::FromInt => (t, "int"),
            Construct::ToInt => ("int", t),
            Construct::Prioritize => ("void", t),
            _ => (t, t),
        };
        let args = vec![arg; call.arity].join(", ");
        out.push_str(&format!("{ret} {}({args});\n", call.name(p)));
    }
    out
}

/// The programs the gate compiles: the fuzz corpus and the benchmark
/// kernels.
fn sources() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    for dir in ["tests/corpus", "crates/bench/src/bin/perf/c"] {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "c") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// A program whose `int` code reads float values and whose float code
/// reads `int` values.
const MIXED: &str = "int f(double x, double y) { int n = (int) x; double z = y; z = z + n; \
                     return n; }";

#[test]
fn emitted_c_passes_cc_syntax_check() {
    if Command::new("cc").arg("--version").output().is_err() {
        eprintln!("emit_syntax: skipped, no `cc` on the path");
        return;
    }
    let mut programs: Vec<(String, String)> = sources()
        .iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(p).unwrap())
        })
        .collect();
    programs.push(("mixed".into(), MIXED.into()));
    assert_eq!(programs.len(), 16, "11 corpus programs, 4 kernels, 1 mixed");
    let dir = std::env::temp_dir().join(format!("safegen-emit-syntax-{}", std::process::id()));
    let mut failures = Vec::new();
    for p in EmitPrecision::ALL {
        let pdir = dir.join(p.suffix());
        std::fs::create_dir_all(&pdir).unwrap();
        std::fs::write(pdir.join("safegen_aa.h"), prototypes(p)).unwrap();
        for analysis in [true, false] {
            let engine = if analysis {
                Engine::new()
            } else {
                Engine::new().without_analysis()
            };
            let mut files = Vec::new();
            for (name, src) in &programs {
                // `safegen emit`'s default k, and the paper's k = 8.
                for k in [8, 16] {
                    let c = engine
                        .emit_sound_c(src, p, k)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    let file = pdir.join(format!("{name}.{analysis}.k{k}.c"));
                    std::fs::write(&file, c).unwrap();
                    files.push(file);
                }
            }
            let out = Command::new("cc")
                .arg("-fsyntax-only")
                .arg("-I")
                .arg(&pdir)
                .args(&files)
                .output()
                .unwrap();
            if !out.status.success() {
                failures.push(String::from_utf8_lossy(&out.stderr).into_owned());
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
