//! Bench-result trend checker: validates every `results/BENCH_*.json`.
//!
//! The bench binaries each export a one-line JSON document, and the
//! committed `BENCH_perf_<workload>.json` files are `perf --out`
//! documents; downstream tooling (dashboards, regression diffing across
//! commits) trusts those files to be well-formed. A truncated write —
//! disk full, an interrupted bench run — would otherwise sit silently in
//! `results/` until something chokes on it much later. This checker
//! fails fast:
//!
//! * every `BENCH_*.json` must parse under the repo's strict JSON
//!   parser (the same one the serve protocol uses — duplicate keys are
//!   an error, not a shrug);
//! * the document must be a non-empty object;
//! * a bench-binary export must self-identify via a `"binary"` string
//!   field that matches the `BENCH_<name>.json` filename, and carry
//!   `"base_seed"` (the knob that makes bench runs reproducible);
//! * a `BENCH_perf_<workload>.json` must record `<workload>` and a
//!   numeric seed in its provenance, be a correct run (`correct: true`,
//!   `failed: 0`), and carry a finite value for each end-to-end metric
//!   (`slowdown`, `acc_bits`, `setup_s`, `peak_rss_mb`) — or, for a
//!   traced run, which reports per-layer rows in their place, for the
//!   cold-run and serve-latency rows (`cli.cold_run_ms`,
//!   `serve.client_p50_us`, `serve.daemon_p50_us`, `serve.daemon_p99_us`).
//!
//! Exits nonzero on any violation, listing every bad file (not just the
//! first). An empty or missing `results/` directory is also an error
//! when `--require N` is given (the CI gate passes the number of
//! files it expects); without it, zero files is a no-op success so
//! the checker can run on fresh clones.
//!
//! ```text
//! cargo run --release -p safegen-bench --bin trend [-- --require N] [--dir DIR]
//! ```

use safegen_telemetry::json::{parse, Json};
use std::path::PathBuf;
use std::process::ExitCode;

/// One validated export: file name and the parsed document.
struct Export {
    name: String,
    doc: Json,
}

/// The end-to-end metrics of an untraced perf run.
const PERF_END_TO_END: [&str; 4] = ["slowdown", "acc_bits", "setup_s", "peak_rss_mb"];
/// The layer rows a traced perf run reports in their place, at least
/// these: the cold CLI run and the serve latencies.
const PERF_LAYERS: [&str; 4] = [
    "cli.cold_run_ms",
    "serve.client_p50_us",
    "serve.daemon_p50_us",
    "serve.daemon_p99_us",
];

/// Validates the contents of `BENCH_<stem>.json`, returning a
/// human-readable complaint that names the file on failure.
fn check_file(stem: &str, text: &str) -> Result<Json, String> {
    check_doc(stem, text).map_err(|why| format!("BENCH_{stem}.json: {why}"))
}

fn check_doc(stem: &str, text: &str) -> Result<Json, String> {
    if text.trim().is_empty() {
        return Err("file is empty".into());
    }
    let doc = parse(text.trim()).map_err(|e| format!("invalid JSON: {e}"))?;
    let Json::Obj(fields) = &doc else {
        return Err("top level is not an object".into());
    };
    if fields.is_empty() {
        return Err("top-level object is empty".into());
    }
    match stem.strip_prefix("perf_") {
        Some(workload) => check_perf(workload, &doc)?,
        None => check_export(stem, &doc)?,
    }
    Ok(doc)
}

/// A bench-binary export: names its binary and its base seed.
fn check_export(stem: &str, doc: &Json) -> Result<(), String> {
    let Some(binary) = doc.get("binary").and_then(|v| v.as_str()) else {
        return Err("missing string field `binary`".into());
    };
    if binary != stem {
        return Err(format!(
            "field `binary` is \"{binary}\" but the file is BENCH_{stem}.json"
        ));
    }
    if doc.get("base_seed").and_then(|v| v.as_f64()).is_none() {
        return Err("missing numeric field `base_seed`".into());
    }
    Ok(())
}

/// A `perf --out` document: the workload of its name, a seed, a correct
/// run, and the metrics its mode reports (a traced run reports layer
/// rows instead of the end-to-end metrics).
fn check_perf(workload: &str, doc: &Json) -> Result<(), String> {
    let provenance = doc.get("provenance");
    let recorded = provenance
        .and_then(|p| p.get("workload"))
        .and_then(Json::as_str);
    if recorded != Some(workload) {
        return Err(format!(
            "`provenance.workload` is {recorded:?} but the file names workload \"{workload}\""
        ));
    }
    if provenance
        .and_then(|p| p.get("seed"))
        .and_then(Json::as_f64)
        .is_none()
    {
        return Err("missing numeric field `provenance.seed`".into());
    }
    let Some(result) = doc.get("result") else {
        return Err("missing object `result`".into());
    };
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err("`result.correct` is not true".into());
    }
    if result.get("failed").and_then(Json::as_f64) != Some(0.0) {
        return Err("`result.failed` is not 0".into());
    }
    let traced = provenance.and_then(|p| p.get("traced")) == Some(&Json::Bool(true));
    let required: &[&str] = if traced {
        &PERF_LAYERS
    } else {
        &PERF_END_TO_END
    };
    for name in required {
        let value = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        if !value.is_some_and(f64::is_finite) {
            return Err(format!("`result.metrics.{name}` has no finite value"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let dir = PathBuf::from(flag("--dir").unwrap_or("results"));
    let require: usize = match flag("--require").map(str::parse).transpose() {
        Ok(n) => n.unwrap_or(0),
        Err(e) => {
            eprintln!("trend: bad --require: {e}");
            return ExitCode::from(2);
        }
    };

    let mut names: Vec<(String, PathBuf)> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let file = path.file_name()?.to_str()?;
                let stem = file.strip_prefix("BENCH_")?.strip_suffix(".json")?;
                Some((stem.to_string(), path.clone()))
            })
            .collect(),
        Err(e) if require == 0 => {
            eprintln!(
                "trend: {} not readable ({e}); nothing to check",
                dir.display()
            );
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("trend: {} not readable: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    names.sort();

    let mut ok: Vec<Export> = Vec::new();
    let mut bad: Vec<String> = Vec::new();
    for (stem, path) in &names {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                bad.push(format!("BENCH_{stem}.json: unreadable: {e}"));
                continue;
            }
        };
        match check_file(stem, &text) {
            Ok(doc) => ok.push(Export {
                name: stem.clone(),
                doc,
            }),
            Err(why) => bad.push(why),
        }
    }

    for e in &ok {
        let reps = e
            .doc
            .get("reps")
            .and_then(|v| v.as_f64())
            .map(|r| format!(", reps {r}"))
            .unwrap_or_default();
        println!("trend: BENCH_{}.json ok ({} fields{reps})", e.name, {
            let Json::Obj(fields) = &e.doc else {
                unreachable!("check_file only passes objects")
            };
            fields.len()
        });
    }
    for why in &bad {
        eprintln!("trend: FAILED {why}");
    }
    if !bad.is_empty() {
        eprintln!("trend: {} of {} file(s) invalid", bad.len(), names.len());
        return ExitCode::FAILURE;
    }
    if ok.len() < require {
        eprintln!(
            "trend: found {} valid file(s) in {}, --require {require}",
            ok.len(),
            dir.display()
        );
        return ExitCode::FAILURE;
    }
    println!("trend: {} file(s) valid", ok.len());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::check_file;

    const PAPER_K8: &str = include_str!("../../../../results/BENCH_perf_paper-k8.json");

    /// `PAPER_K8` with one edit, which must apply.
    fn edited(from: &str, to: &str) -> String {
        assert_eq!(PAPER_K8.matches(from).count(), 1, "{from}");
        PAPER_K8.replace(from, to)
    }

    fn rejection(stem: &str, text: &str) -> String {
        let why = check_file(stem, text).expect_err("the document must be rejected");
        assert!(why.starts_with(&format!("BENCH_{stem}.json: ")), "{why}");
        why
    }

    #[test]
    fn accepts_the_committed_perf_documents() {
        for (stem, text) in [
            ("perf_paper-k8", PAPER_K8),
            (
                "perf_placement-k40",
                include_str!("../../../../results/BENCH_perf_placement-k40.json"),
            ),
            (
                "perf_interval-lanes",
                include_str!("../../../../results/BENCH_perf_interval-lanes.json"),
            ),
            (
                "perf_serve-mixed",
                include_str!("../../../../results/BENCH_perf_serve-mixed.json"),
            ),
        ] {
            check_file(stem, text).unwrap_or_else(|why| panic!("{why}"));
        }
    }

    #[test]
    fn rejects_a_workload_that_disagrees_with_the_filename() {
        let why = rejection("perf_serve-mixed", PAPER_K8);
        assert!(why.contains("provenance.workload"), "{why}");
    }

    #[test]
    fn rejects_an_incorrect_run() {
        let why = rejection(
            "perf_paper-k8",
            &edited("\"correct\":true", "\"correct\":false"),
        );
        assert!(why.contains("result.correct"), "{why}");
    }

    #[test]
    fn rejects_a_missing_metric() {
        // An untraced run must carry every end-to-end metric; the traced
        // document has none of them.
        let untraced = edited("\"traced\":true", "\"traced\":false");
        let why = rejection("perf_paper-k8", &untraced);
        assert!(why.contains("result.metrics.slowdown"), "{why}");
        let why = rejection(
            "perf_paper-k8",
            &edited("\"cli.cold_run_ms\"", "\"cli.cold_run\""),
        );
        assert!(why.contains("result.metrics.cli.cold_run_ms"), "{why}");
    }
}
