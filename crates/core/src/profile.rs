//! Error-provenance profiling: which instruction's noise dominates the
//! final enclosure width?
//!
//! An affine result is `a₀ + Σ aᵢ·εᵢ (+ acc)`: every surviving error
//! symbol `εᵢ` contributes `|aᵢ|` to the radius, and — because
//! [`AaContext`] allocates symbol ids
//! monotonically — the id of `εᵢ` falls inside the id range some single
//! parameter binding or executed instruction allocated. The VM's traced
//! mode (`exec_traced`) records those ranges,
//! so attributing the final width is a lookup per surviving term:
//!
//! 1. run the program once with the tracer on,
//! 2. for every noise term of every result value, find the allocating
//!    site via `SymbolTrace::site_of`,
//! 3. aggregate `|coeff|` per site and rank.
//!
//! A fused symbol's magnitude lives on in the fresh symbol of the
//! operation that fused it, so fused error is charged to the *surviving*
//! site — the instruction where the width actually resides now. Noise
//! bound to no symbol (dedicated-noise modes) is reported as
//! *unattributed*.
//!
//! Only the affine domains carry symbols; profiling any other
//! [`DomainKind`] is an error.

use crate::domain::{Domain, DomainKind};
use crate::driver::RunConfig;
use crate::exec::{exec_traced, ArgValue, RunStats, TraceSite};
use crate::program::Program;
use safegen_affine::{AaContext, AffineDd, AffineF32, AffineF64};
use safegen_fpcore::metrics;
use safegen_telemetry::json::Json;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One ranked error source of a [`ProfileReport`].
#[derive(Clone, Debug)]
pub struct ErrorSource {
    /// Where the symbols were allocated.
    pub site: TraceSite,
    /// `line:col` in the original source for instruction sites.
    pub location: Option<(u32, u32)>,
    /// Rendered description: the bytecode instruction, or the parameter
    /// name for input sites.
    pub what: String,
    /// Total `|coeff|` of surviving symbols allocated here (summed over
    /// all result values).
    pub width: f64,
    /// `width` as a fraction of the report's total width (0 when the
    /// total is 0).
    pub fraction: f64,
    /// Number of surviving symbols attributed to this site.
    pub symbols: usize,
}

/// The result of [`profile`]: a ranked error-attribution table.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Function name.
    pub func: String,
    /// Configuration label ([`RunConfig::label`]).
    pub config: String,
    /// Sound range of the returned value, if the function returns one.
    pub ret: Option<(f64, f64)>,
    /// Worst-case certified bits over all result values.
    pub acc_bits: f64,
    /// Outward-rounded width of the return range (see
    /// `safegen_fpcore::metrics::range_width`); NaN for void functions.
    pub ret_width: f64,
    /// Total attributed + unattributed width (the denominator of every
    /// fraction).
    pub total_width: f64,
    /// Width bound to no symbol or no site (accumulated dedicated noise).
    pub unattributed: f64,
    /// Sources, widest first.
    pub sources: Vec<ErrorSource>,
    /// Statistics of the profiled run.
    pub stats: RunStats,
}

/// Profiles `prog` on `args` under an affine `config`: runs once with
/// symbol tracing and attributes the final enclosure width to the
/// parameter bindings and instructions that allocated the surviving
/// symbols.
///
/// # Errors
///
/// Returns a message when `config.kind` is not an affine domain or when
/// execution fails.
pub fn profile(
    prog: &Program,
    args: &[ArgValue],
    config: &RunConfig,
) -> Result<ProfileReport, String> {
    match config.kind {
        DomainKind::AffineF64 => profile_on::<AffineF64>(prog, args, config),
        DomainKind::AffineDd => profile_on::<AffineDd>(prog, args, config),
        DomainKind::AffineF32 => profile_on::<AffineF32>(prog, args, config),
        kind => Err(format!(
            "error provenance needs an affine configuration, not {kind:?} \
             (symbols are what gets attributed)"
        )),
    }
}

fn profile_on<D>(
    prog: &Program,
    args: &[ArgValue],
    config: &RunConfig,
) -> Result<ProfileReport, String>
where
    D: Domain<Ctx = AaContext>,
{
    let cx = AaContext::new(config.aa);
    let (result, trace) = safegen_telemetry::span("vm.exec", || exec_traced::<D>(prog, args, &cx))
        .map_err(|e| e.message)?;

    // Collect every result value: the return plus all array out-params.
    let mut finals: Vec<&D> = Vec::new();
    if let Some(r) = &result.ret {
        finals.push(r);
    }
    for (_, vs) in &result.arrays {
        finals.extend(vs.iter());
    }

    let mut per_site: HashMap<TraceSite, (f64, usize)> = HashMap::new();
    let mut unattributed = 0.0f64;
    for v in &finals {
        for (id, coeff) in v.noise_terms() {
            match trace.site_of(id) {
                Some(site) => {
                    let e = per_site.entry(site).or_insert((0.0, 0));
                    e.0 += coeff.abs();
                    e.1 += 1;
                }
                None => unattributed += coeff.abs(),
            }
        }
        unattributed += v.uncorrelated_noise();
    }

    let total_width = per_site.values().map(|(w, _)| w).sum::<f64>() + unattributed;
    let frac = |w: f64| {
        if total_width > 0.0 {
            w / total_width
        } else {
            0.0
        }
    };

    let mut sources: Vec<ErrorSource> = per_site
        .into_iter()
        .map(|(site, (width, symbols))| {
            let (location, what) = match site {
                TraceSite::Param(i) => (None, format!("input `{}` (± 1 ulp)", prog.params[i].0)),
                TraceSite::Instr(pc) => {
                    let s = prog.spans[pc];
                    (Some((s.line, s.col)), prog.render(&prog.code[pc]))
                }
            };
            ErrorSource {
                site,
                location,
                what,
                width,
                fraction: frac(width),
                symbols,
            }
        })
        .collect();
    // Widest first; ties broken by site for a deterministic table.
    sources.sort_by(|a, b| {
        b.width
            .partial_cmp(&a.width)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| site_key(a.site).cmp(&site_key(b.site)))
    });

    let ret = result.ret.as_ref().map(|v| v.range());
    let mut acc = f64::INFINITY;
    for v in &finals {
        acc = acc.min(v.acc_bits());
    }
    if acc == f64::INFINITY {
        acc = f64::NAN;
    }
    Ok(ProfileReport {
        func: prog.name.clone(),
        config: config.label(),
        ret,
        acc_bits: acc,
        ret_width: ret.map_or(f64::NAN, |(lo, hi)| metrics::range_width(lo, hi)),
        total_width,
        unattributed,
        sources,
        stats: result.stats,
    })
}

fn site_key(site: TraceSite) -> (u8, usize) {
    match site {
        TraceSite::Param(i) => (0, i),
        TraceSite::Instr(pc) => (1, pc),
    }
}

impl ProfileReport {
    /// The attribution table as human-readable text (what
    /// `safegen profile` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "error-attribution profile: `{}` under {}",
            self.func, self.config
        );
        if let Some((lo, hi)) = self.ret {
            let _ = writeln!(
                out,
                "return ∈ [{lo:.17e}, {hi:.17e}]  width {:.3e}",
                self.ret_width
            );
        }
        let _ = writeln!(
            out,
            "certified bits {:.2}   symbol width {:.3e}   \
             fp_ops {}  fusions {}  condensations {}",
            self.acc_bits,
            self.total_width,
            self.stats.fp_ops,
            self.stats.fusions,
            self.stats.condensations
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{:>4}  {:>7}  {:>10}  {:>5}  {:<8}  source",
            "rank", "share", "width", "syms", "location"
        );
        for (i, s) in self.sources.iter().enumerate() {
            let loc = s
                .location
                .map(|(l, c)| format!("{l}:{c}"))
                .unwrap_or_else(|| "-".to_string());
            let _ = writeln!(
                out,
                "{:>4}  {:>6.1}%  {:>10.3e}  {:>5}  {:<8}  {}",
                i + 1,
                100.0 * s.fraction,
                s.width,
                s.symbols,
                loc,
                s.what
            );
        }
        if self.unattributed > 0.0 {
            let _ = writeln!(
                out,
                "{:>4}  {:>6.1}%  {:>10.3e}  {:>5}  {:<8}  (unattributed accumulated noise)",
                "-",
                100.0
                    * (if self.total_width > 0.0 {
                        self.unattributed / self.total_width
                    } else {
                        0.0
                    }),
                self.unattributed,
                "-",
                "-"
            );
        }
        out
    }

    /// The report as a JSON value (for the metrics sink).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("func", Json::from(self.func.as_str())),
            ("config", Json::from(self.config.as_str())),
            (
                "ret",
                match self.ret {
                    Some((lo, hi)) => Json::Arr(vec![Json::from(lo), Json::from(hi)]),
                    None => Json::Null,
                },
            ),
            ("acc_bits", Json::from(self.acc_bits)),
            ("total_width", Json::from(self.total_width)),
            ("unattributed", Json::from(self.unattributed)),
            (
                "sources",
                Json::Arr(
                    self.sources
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                (
                                    "site",
                                    match s.site {
                                        TraceSite::Param(i) => Json::from(format!("param:{i}")),
                                        TraceSite::Instr(pc) => Json::from(format!("pc:{pc}")),
                                    },
                                ),
                                (
                                    "location",
                                    match s.location {
                                        Some((l, c)) => Json::from(format!("{l}:{c}")),
                                        None => Json::Null,
                                    },
                                ),
                                ("what", Json::from(s.what.as_str())),
                                ("width", Json::from(s.width)),
                                ("fraction", Json::from(s.fraction)),
                                ("symbols", Json::from(s.symbols)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Compiler;

    fn compiled(src: &str) -> crate::driver::Compiled {
        Compiler::new().compile(src).unwrap()
    }

    #[test]
    fn rejects_non_affine_domains() {
        let c = compiled("double f(double x) { return x; }");
        let cfg = RunConfig::interval_f64();
        let prog = c.program_for("f", &cfg);
        let e = profile(&prog, &[0.5.into()], &cfg).unwrap_err();
        assert!(e.contains("affine"), "{e}");
    }

    #[test]
    fn fractions_sum_to_one() {
        let c = compiled(
            "double f(double x, double y) {
                double s = x * y;
                for (int i = 0; i < 6; i++) { s = s * y + x; }
                return s;
            }",
        );
        let cfg = RunConfig::affine_f64(8);
        let prog = c.program_for("f", &cfg);
        let r = profile(&prog, &[0.3.into(), 0.7.into()], &cfg).unwrap();
        assert!(!r.sources.is_empty());
        let sum: f64 = r.sources.iter().map(|s| s.fraction).sum::<f64>()
            + r.unattributed / r.total_width.max(f64::MIN_POSITIVE);
        assert!((sum - 1.0).abs() < 1e-9, "fractions sum to {sum}");
    }

    #[test]
    fn input_uncertainty_dominates_a_pass_through() {
        // `return x;` has no arithmetic: the only error is the input's
        // ±1 ulp symbol, so the input must be the top (only) source.
        let c = compiled("double f(double x) { return x; }");
        let cfg = RunConfig::affine_f64(8);
        let prog = c.program_for("f", &cfg);
        let r = profile(&prog, &[0.3.into()], &cfg).unwrap();
        assert_eq!(r.sources.len(), 1);
        assert_eq!(r.sources[0].site, TraceSite::Param(0));
        assert!(r.sources[0].what.contains('x'));
        assert!((r.sources[0].fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn array_results_are_attributed_too() {
        let c = compiled("void f(double a[3]) { for (int i = 0; i < 3; i++) a[i] = a[i] * 1.5; }");
        let cfg = RunConfig::affine_f64(8);
        let prog = c.program_for("f", &cfg);
        let r = profile(&prog, &[vec![0.1, 0.2, 0.3].into()], &cfg).unwrap();
        assert!(r.total_width > 0.0);
        assert!(r.sources.iter().any(|s| s.site == TraceSite::Param(0)));
        assert!(r.ret.is_none());
    }

    #[test]
    fn render_and_json_are_consistent() {
        let c = compiled("double f(double x) { return x * x - x; }");
        let cfg = RunConfig::affine_f64(8);
        let prog = c.program_for("f", &cfg);
        let r = profile(&prog, &[0.7.into()], &cfg).unwrap();
        let text = r.render();
        assert!(text.contains("error-attribution profile"));
        assert!(text.contains("rank"));
        let j = r.to_json();
        let reparsed = safegen_telemetry::json::parse(&j.to_string()).unwrap();
        assert_eq!(
            reparsed.get("sources").unwrap().as_arr().unwrap().len(),
            r.sources.len()
        );
    }
}
