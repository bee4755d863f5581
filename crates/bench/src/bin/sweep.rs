//! Ablation sweeps: how certified accuracy responds to iteration count,
//! symbol budget, and prioritization — the tuning tool behind the
//! DESIGN.md design-choice ablations.
//!
//! Usage:
//! `cargo run --release -p safegen-bench --bin sweep [henon|fgm|prio]`

use safegen_api::{Engine, Program, RunConfig};
use safegen_bench::{harness, Measurement, Workload, WorkloadKind};

/// Measures and tags the configuration label with the sweep variable so
/// each point stays identifiable in the exported JSON.
fn point(w: &Workload, c: &Program, cfg: &RunConfig, tag: &str) -> Measurement {
    let mut m = harness::measure(w, c, cfg);
    m.config = format!("{} {tag}", m.config);
    m
}

fn henon_sweep(rows: &mut Vec<Measurement>) {
    println!("henon: accuracy vs iteration count (IA should die, AA survive)");
    println!(
        "{:<6} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "iters", "IGen-f64", "IGen-dd", "k=8", "k=16", "k=48"
    );
    for iters in [40usize, 60, 80, 100, 120] {
        let w = Workload::new(WorkloadKind::Henon { iters });
        let c = Engine::new().compile(&w.source, w.name).unwrap();
        let tag = format!("(iters={iters})");
        let mut acc = |cfg: &RunConfig| {
            let m = point(&w, &c, cfg, &tag);
            let a = m.acc_bits;
            rows.push(m);
            a
        };
        println!(
            "{:<6} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
            iters,
            acc(&RunConfig::interval_f64()),
            acc(&RunConfig::interval_dd()),
            acc(&RunConfig::affine_f64(8)),
            acc(&RunConfig::affine_f64(16)),
            acc(&RunConfig::affine_f64(48)),
        );
    }
}

fn fgm_sweep(rows: &mut Vec<Measurement>) {
    println!("fgm: accuracy vs iteration count");
    println!(
        "{:<6} {:>9} {:>9} {:>9}",
        "iters", "IGen-f64", "k=8", "k=32"
    );
    for iters in [20usize, 40, 60, 80] {
        let w = Workload::new(WorkloadKind::Fgm { n: 8, iters });
        let c = Engine::new().compile(&w.source, w.name).unwrap();
        let tag = format!("(iters={iters})");
        let mut acc = |cfg: &RunConfig| {
            let m = point(&w, &c, cfg, &tag);
            let a = m.acc_bits;
            rows.push(m);
            a
        };
        println!(
            "{:<6} {:>9.1} {:>9.1} {:>9.1}",
            iters,
            acc(&RunConfig::interval_f64()),
            acc(&RunConfig::affine_f64(8)),
            acc(&RunConfig::affine_f64(32)),
        );
    }
}

fn prio_sweep(rows: &mut Vec<Measurement>) {
    println!("prioritization ablation: dspv (with) vs dsnv (without), per k");
    for w in Workload::paper_suite() {
        let c = Engine::new().compile(&w.source, w.name).unwrap();
        print!("{:<8}", w.name);
        for k in [8usize, 16, 32] {
            let with = point(&w, &c, &RunConfig::affine_f64(k), "(prio)");
            let without = point(
                &w,
                &c,
                &RunConfig::mnemonic(k, "dsnv").unwrap(),
                "(no-prio)",
            );
            print!(
                "  k={k}: {:>5.1} vs {:>5.1} ({:+.1})",
                with.acc_bits,
                without.acc_bits,
                with.acc_bits - without.acc_bits
            );
            rows.push(with);
            rows.push(without);
        }
        println!();
    }
}

fn main() {
    harness::announce("sweep");
    let which = std::env::args().nth(1).unwrap_or_else(|| "henon".into());
    let mut rows: Vec<Measurement> = Vec::new();
    match which.as_str() {
        "henon" => henon_sweep(&mut rows),
        "fgm" => fgm_sweep(&mut rows),
        "prio" => prio_sweep(&mut rows),
        other => {
            eprintln!("unknown sweep `{other}`; expected henon|fgm|prio");
            std::process::exit(1);
        }
    }
    harness::export(&format!("sweep_{which}"), &rows);
}
