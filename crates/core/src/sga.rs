//! Building and running `.sga` program artifacts.
//!
//! This module connects the driver to [`safegen_artifact`]: it turns a
//! [`Compiled`] unit (plus a set of precompiled variants) into an
//! [`Artifact`], selects the right program variant out of a loaded
//! artifact for a [`RunConfig`], and wires in the content-addressed
//! compile cache so `safegen compile` and `safegen serve` never redo a
//! compilation whose inputs have not changed.
//!
//! Variant selection is **strict**: if a configuration asks for a
//! prioritized variant the artifact does not carry, the lookup fails
//! with a diagnostic listing what *is* available — it never silently
//! substitutes the plain program, because that would quietly change the
//! accuracy of the results (the whole point of the variants).

use crate::driver::{variant_kind_with, Compiled, Compiler, RunConfig, RunReport};
use crate::exec::ArgValue;
use crate::program::Program;
use safegen_artifact::hash::Sha256;
use safegen_artifact::{cache, Artifact, ArtifactMeta, ProgramVariant, VariantKind};

/// What `safegen compile` precompiles into an artifact.
///
/// Construct with [`BuildOptions::new`] and override fields by
/// assignment; the struct is `#[non_exhaustive]` so new knobs can be
/// added without breaking embedders.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct BuildOptions {
    /// Artifact name (conventionally the source file name).
    pub name: String,
    /// Symbol budgets to precompile prioritized variants for.
    pub ks: Vec<usize>,
    /// Run the max-reuse static analysis (`false` = plain variants only).
    pub analysis: bool,
    /// Consult/populate the on-disk compile cache.
    pub use_cache: bool,
}

impl BuildOptions {
    /// Defaults: budgets 8 and 16 (the paper's most-used settings),
    /// analysis on, cache on.
    pub fn new(name: &str) -> BuildOptions {
        BuildOptions {
            name: name.to_string(),
            ks: vec![8, 16],
            analysis: true,
            use_cache: true,
        }
    }

    /// The variant kinds these options precompile (beyond plain).
    fn kinds(&self) -> Vec<VariantKind> {
        if !self.analysis {
            return Vec::new();
        }
        let prioritized = |&k: &usize| VariantKind::Prioritized { k: k as u32 };
        self.ks.iter().map(prioritized).collect()
    }

    /// The cache-key option strings: everything besides the source text
    /// that determines the artifact bytes.
    fn cache_options(&self, passes: &[String]) -> Vec<String> {
        let mut opts = vec![
            format!("analysis={}", self.analysis),
            format!("ks={:?}", self.ks),
            format!("name={}", self.name),
        ];
        opts.push(format!("passes={}", passes.join(",")));
        opts
    }
}

/// Compiles `src` and packages the precompiled variants as an artifact.
///
/// # Errors
///
/// Propagates compiler diagnostics as rendered strings.
pub fn compile_to_artifact(src: &str, opts: &BuildOptions) -> Result<Artifact, String> {
    let compiler = if opts.analysis {
        Compiler::new()
    } else {
        Compiler::new().without_prioritization()
    };
    let mut compiled = compiler.compile(src).map_err(|e| e.to_string())?;
    compiled.precompile(&opts.kinds());
    Ok(build_artifact(&compiled, &opts.name, Some(src)))
}

/// Like [`compile_to_artifact`], but consults the content-addressed
/// compile cache first. Returns the artifact and whether it was a cache
/// hit. A corrupt or stale cache entry reads as a miss and is
/// overwritten; cache *write* failures are swallowed (a cold cache is a
/// performance loss, not an error).
///
/// # Errors
///
/// Propagates compiler diagnostics (never cache I/O failures).
pub fn compile_to_artifact_cached(
    src: &str,
    opts: &BuildOptions,
) -> Result<(Artifact, bool), String> {
    if !opts.use_cache {
        return Ok((compile_to_artifact(src, opts)?, false));
    }
    // The pass pipeline is part of the key: resolve it the same way the
    // compiler will (SAFEGEN_PASSES or the optimizing default).
    let passes = safegen_ir::PassManager::from_env()?;
    let key_opts = opts.cache_options(passes.names());
    let key_refs: Vec<&str> = key_opts.iter().map(String::as_str).collect();
    let key = cache::compile_key(src, &key_refs);
    if let Some(artifact) = cache::load(&key) {
        return Ok((artifact, true));
    }
    let artifact = compile_to_artifact(src, opts)?;
    let _ = cache::store(&key, &artifact);
    Ok((artifact, false))
}

/// Packages a compiled unit (every plain program plus whatever variants
/// were [`Compiled::precompile`]d) as an artifact. `source` (when
/// available) is hashed into the metadata for staleness detection.
pub fn build_artifact(compiled: &Compiled, name: &str, source: Option<&str>) -> Artifact {
    let meta = ArtifactMeta {
        name: name.to_string(),
        tool: safegen_artifact::tool_version(),
        passes: compiled.passes.names().to_vec(),
        prioritize: compiled.prioritize(),
        source_sha256: source.map(|s| Sha256::hex(&Sha256::digest(s.as_bytes()))),
    };
    let programs = compiled
        .all_variants()
        .into_iter()
        .map(|(func, kind, program)| ProgramVariant {
            func,
            kind,
            program: program.clone(),
        })
        .collect();
    Artifact { meta, programs }
}

/// Selects the program variant `config` requires from a loaded artifact.
///
/// # Errors
///
/// Fails with a diagnostic naming the missing variant and listing the
/// available ones — never a silent fallback to a different variant.
pub fn select_program<'a>(
    artifact: &'a Artifact,
    func: &str,
    config: &RunConfig,
) -> Result<&'a Program, String> {
    let kind = variant_kind_with(config, artifact.meta.prioritize);
    if let Some(p) = artifact.find(func, &kind) {
        return Ok(p);
    }
    let available: Vec<String> = artifact
        .programs
        .iter()
        .filter(|v| v.func == func)
        .map(|v| v.kind.to_string())
        .collect();
    if available.is_empty() {
        let funcs = artifact.functions().join(", ");
        return Err(format!(
            "artifact `{}` has no function `{func}` (functions: {funcs})",
            artifact.meta.name
        ));
    }
    Err(format!(
        "artifact `{}` has no {kind} variant of `{func}` (available: {}); \
         recompile with `safegen compile --k ...` covering this configuration",
        artifact.meta.name,
        available.join(", ")
    ))
}

/// Runs `func` from a loaded artifact under `config`.
///
/// # Errors
///
/// Variant-selection diagnostics and VM errors.
pub fn run_artifact(
    artifact: &Artifact,
    func: &str,
    args: &[ArgValue],
    config: &RunConfig,
) -> Result<RunReport, String> {
    crate::driver::run_on(select_program(artifact, func, config)?, args, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "double f(double x, double y, double z) { return x*z - y*z; }";

    #[test]
    fn artifact_round_trips_compiled_unit() {
        let opts = BuildOptions {
            use_cache: false,
            ..BuildOptions::new("t.c")
        };
        let artifact = compile_to_artifact(SRC, &opts).unwrap();
        // plain + prioritized k=8 and k=16.
        assert_eq!(artifact.programs.len(), 3);
        let back = Artifact::from_bytes(&artifact.to_bytes()).unwrap();
        assert_eq!(back, artifact);
        assert_eq!(back.meta.passes.join(","), "cse,copy-prop,dce,regalloc");
        assert!(back.meta.source_sha256.is_some());
    }

    #[test]
    fn artifact_run_matches_in_memory_run() {
        let opts = BuildOptions {
            use_cache: false,
            ..BuildOptions::new("t.c")
        };
        let artifact = compile_to_artifact(SRC, &opts).unwrap();
        let artifact = Artifact::from_bytes(&artifact.to_bytes()).unwrap();
        let compiled = Compiler::new().compile(SRC).unwrap();
        let args = [0.5.into(), 0.25.into(), 0.125.into()];
        for config in [
            RunConfig::unsound(),
            RunConfig::interval_f64(),
            RunConfig::affine_f64(8),
            RunConfig::affine_f64(16),
        ] {
            let from_artifact = run_artifact(&artifact, "f", &args, &config).unwrap();
            let in_memory = compiled.run("f", &args, &config).unwrap();
            // Bit-identical enclosures: same programs, same domain.
            assert_eq!(from_artifact.ret, in_memory.ret, "{}", config.label());
            assert_eq!(
                from_artifact.acc_bits.to_bits(),
                in_memory.acc_bits.to_bits(),
                "{}",
                config.label()
            );
        }
    }

    #[test]
    fn missing_variant_is_a_diagnostic_not_a_fallback() {
        let opts = BuildOptions {
            ks: vec![8],
            use_cache: false,
            ..BuildOptions::new("t.c")
        };
        let artifact = compile_to_artifact(SRC, &opts).unwrap();
        // k=32 was not precompiled: prioritized config must fail loudly.
        let err = select_program(&artifact, "f", &RunConfig::affine_f64(32)).unwrap_err();
        assert!(err.contains("prioritized(k=32)"), "{err}");
        assert!(err.contains("available"), "{err}");
        // Unknown function names the known ones.
        let err = select_program(&artifact, "nope", &RunConfig::unsound()).unwrap_err();
        assert!(err.contains("no function"), "{err}");
        // Non-affine configs use the plain variant, which is present.
        assert!(select_program(&artifact, "f", &RunConfig::interval_f64()).is_ok());
    }

    #[test]
    fn no_analysis_artifacts_serve_plain_for_affine() {
        let opts = BuildOptions {
            analysis: false,
            use_cache: false,
            ..BuildOptions::new("t.c")
        };
        let artifact = compile_to_artifact(SRC, &opts).unwrap();
        assert_eq!(artifact.programs.len(), 1);
        assert!(!artifact.meta.prioritize);
        // prioritize=false in META → affine configs select Plain, like an
        // in-memory Compiler::without_prioritization() unit would.
        assert!(select_program(&artifact, "f", &RunConfig::affine_f64(8)).is_ok());
    }
}
