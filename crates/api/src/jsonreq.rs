//! The JSON evaluation request schema — **one** decoder/encoder shared
//! by the serve daemon and the C ABI (`safegen-capi`), so an embedder
//! talking JSON through the FFI gets byte-identical responses to a
//! client talking to the daemon over its socket.
//!
//! ## Request shape
//!
//! ```text
//! {"func":F, "config":C, "k":K, "args":[...]}            one evaluation
//! {"func":F, "config":C, "k":K, "inputs":[[...],[...]],
//!  "threads":T}                                          a batch
//! ```
//!
//! `config` is a CLI config name (`dspv`, `ssnn`, …, `ia`, `ia-dd`,
//! `unsound`; default `dspv`), `k` the noise-symbol budget (default
//! 16); `loop_mode` (`unroll`/`fixpoint`/`auto`) and `unroll_budget`
//! are accepted optionally. Argument values are
//! `{"float":x}`, `{"int":n}`, `{"array":[...]}`, or bare numbers
//! (floats). Unknown keys are ignored.
//!
//! ## Response shape
//!
//! Single: `{"ok":true, "config":LABEL, "ret":[lo,hi], "arrays":[...],
//! "acc_bits":B, "stats":{...}}`. Batch: `{"ok":true, "config":LABEL,
//! "reports":[...], "threads":T, "lanes":L}`, where `lanes` is the
//! widest lane group the batch engine ran (`1` = every item scalar).
//! Failures are classified [`ErrCategory`] values plus a message — the
//! daemon renders them as `{"ok":false,"error":MSG}` lines, the C ABI as
//! status codes.

use crate::{ApiError, ArgValue, EvalRequest, Program, RunConfig, RunReport};
use safegen_telemetry::clock::Stamp;
use safegen_telemetry::json::Json;
use safegen_telemetry::metrics::ErrCategory;

/// An eval failure, classified for the daemon's error counters (and the
/// C ABI's status codes).
pub type EvalError = (ErrCategory, String);

/// The [`ErrCategory`] a facade error maps to.
pub fn error_category(e: &ApiError) -> ErrCategory {
    match e {
        ApiError::UnknownProgram(_) => ErrCategory::UnknownProgram,
        ApiError::Eval(_) => ErrCategory::Exec,
        _ => ErrCategory::BadRequest,
    }
}

/// Decodes and executes one eval request against `program`, returning
/// the response JSON plus telemetry detail fields (`func`, `config`,
/// `n`, `lanes`, phase timings).
///
/// # Errors
///
/// Classified request/selection/execution failures — see
/// [`error_category`].
pub fn handle_eval(
    request: &Json,
    program: &Program,
) -> Result<(Json, Vec<(String, Json)>), EvalError> {
    let bad = |msg: &str| (ErrCategory::BadRequest, msg.to_string());
    // Decode phase: request fields → config + argument values.
    let decode_started = Stamp::now();
    let func = request
        .get("func")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("eval needs a string \"func\" field"))?;
    let k = match request.get("k") {
        Some(v) => v.as_f64().ok_or_else(|| bad("\"k\" must be a number"))? as usize,
        None => 16,
    };
    let mut config = RunConfig::from_cli(
        request
            .get("config")
            .and_then(Json::as_str)
            .unwrap_or("dspv"),
        k,
    )
    .map_err(|e| (ErrCategory::BadRequest, e))?;
    if let Some(v) = request.get("loop_mode") {
        let s = v
            .as_str()
            .ok_or_else(|| bad("\"loop_mode\" must be a string"))?;
        config.loop_mode = crate::LoopMode::parse(s).ok_or_else(|| {
            bad("\"loop_mode\" must be one of \"unroll\", \"fixpoint\", \"auto\"")
        })?;
    }
    if let Some(v) = request.get("unroll_budget") {
        config.unroll_budget = Some(
            v.as_f64()
                .ok_or_else(|| bad("\"unroll_budget\" must be a number"))? as u64,
        );
    }
    let mut detail = vec![
        ("func".to_string(), Json::from(func)),
        ("config".to_string(), Json::from(config.label())),
    ];

    if let Some(inputs) = request.get("inputs").and_then(Json::as_arr) {
        // Batch form: the parallel batch engine evaluates all input sets.
        let decoded: Vec<Vec<ArgValue>> = inputs
            .iter()
            .map(|set| {
                set.as_arr()
                    .ok_or_else(|| bad("\"inputs\" entries must be arrays of argument values"))?
                    .iter()
                    .map(|v| decode_arg(v).map_err(|e| (ErrCategory::BadRequest, e)))
                    .collect()
            })
            .collect::<Result<_, EvalError>>()?;
        let threads = match request.get("threads") {
            Some(v) => {
                v.as_f64()
                    .ok_or_else(|| bad("\"threads\" must be a number"))? as usize
            }
            None => 0,
        };
        let n = decoded.len();
        let req = EvalRequest::new(func, config)
            .with_inputs(decoded)
            .with_batch(crate::BatchOptions::with_threads(threads));
        let decode_ns = decode_started.elapsed().as_nanos() as u64;
        let exec_started = Stamp::now();
        let result = program
            .eval(&req)
            .map_err(|e| (error_category(&e), e.message().to_string()))?;
        detail.extend([
            ("n".to_string(), Json::from(n)),
            ("threads".to_string(), Json::from(result.batch.threads)),
            ("lanes".to_string(), Json::from(result.batch.lanes)),
            ("decode_ns".to_string(), Json::from(decode_ns)),
            (
                "exec_ns".to_string(),
                Json::from(exec_started.elapsed().as_nanos() as u64),
            ),
        ]);
        let reports: Vec<Json> = result.reports().map(report_json).collect();
        return Ok((
            Json::obj(vec![
                ("ok", Json::Bool(true)),
                ("config", Json::from(result.config_label.as_str())),
                ("reports", Json::Arr(reports)),
                ("threads", Json::from(result.batch.threads)),
                ("lanes", Json::from(result.batch.lanes)),
            ]),
            detail,
        ));
    }

    let args: Vec<ArgValue> = request
        .get("args")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("eval needs an \"args\" array (or \"inputs\" for a batch)"))?
        .iter()
        .map(|v| decode_arg(v).map_err(|e| (ErrCategory::BadRequest, e)))
        .collect::<Result<_, EvalError>>()?;
    let req = EvalRequest::new(func, config).with_args(args);
    let decode_ns = decode_started.elapsed().as_nanos() as u64;
    let exec_started = Stamp::now();
    let result = program
        .eval(&req)
        .map_err(|e| (error_category(&e), e.message().to_string()))?;
    detail.extend([
        ("n".to_string(), Json::from(1u64)),
        ("lanes".to_string(), Json::from(1u64)),
        ("decode_ns".to_string(), Json::from(decode_ns)),
        (
            "exec_ns".to_string(),
            Json::from(exec_started.elapsed().as_nanos() as u64),
        ),
    ]);
    let fields = vec![
        ("ok", Json::Bool(true)),
        ("config", Json::from(result.config_label.as_str())),
    ];
    if let Json::Obj(rep) = report_json(result.report()) {
        // Splice the report fields into the top-level response.
        return Ok((
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .chain(rep)
                    .collect(),
            ),
            detail,
        ));
    }
    unreachable!("report_json always returns an object")
}

/// The daemon's `list` response body: artifact name, tool, functions,
/// materialized variants.
pub fn list_response(program: &Program) -> Json {
    let functions = program
        .functions()
        .into_iter()
        .map(Json::from)
        .collect::<Vec<_>>();
    let variants = program
        .variants()
        .into_iter()
        .map(|v| {
            Json::obj(vec![
                ("func", Json::from(v.func.as_str())),
                ("kind", Json::from(v.kind.to_string())),
                ("instrs", Json::from(v.instrs)),
            ])
        })
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("name", Json::from(program.name())),
        ("tool", Json::from(program.tool())),
        ("functions", Json::Arr(functions)),
        ("variants", Json::Arr(variants)),
    ])
}

/// Decodes one argument value: tagged object or bare number.
///
/// # Errors
///
/// A message for values that are none of the accepted shapes.
pub fn decode_arg(v: &Json) -> Result<ArgValue, String> {
    if let Some(x) = v.as_f64() {
        return Ok(ArgValue::Float(x));
    }
    if let Some(x) = v.get("float").and_then(Json::as_f64) {
        return Ok(ArgValue::Float(x));
    }
    if let Some(n) = v.get("int").and_then(Json::as_f64) {
        return Ok(ArgValue::Int(n as i64));
    }
    if let Some(xs) = v.get("array").and_then(Json::as_arr) {
        let vals: Vec<f64> = xs
            .iter()
            .map(|x| x.as_f64().ok_or("array elements must be numbers"))
            .collect::<Result<_, _>>()?;
        return Ok(ArgValue::Array(vals));
    }
    Err(format!(
        "bad argument value {v} (want a number, {{\"float\":x}}, {{\"int\":n}}, or {{\"array\":[..]}})"
    ))
}

/// Renders a [`RunReport`] as response JSON.
pub fn report_json(r: &RunReport) -> Json {
    let range = |(lo, hi): (f64, f64)| Json::Arr(vec![Json::Num(lo), Json::Num(hi)]);
    let arrays: Vec<Json> = r
        .arrays
        .iter()
        .map(|(name, ranges)| {
            Json::obj(vec![
                ("name", Json::from(name.as_str())),
                (
                    "ranges",
                    Json::Arr(ranges.iter().map(|&x| range(x)).collect()),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("ret", r.ret.map_or(Json::Null, range)),
        ("arrays", Json::Arr(arrays)),
        ("acc_bits", Json::Num(r.acc_bits)),
        (
            "stats",
            Json::obj(vec![
                ("fp_ops", Json::from(r.stats.fp_ops)),
                ("instrs", Json::from(r.stats.instrs)),
                ("undecided_branches", Json::from(r.stats.undecided_branches)),
                ("fusions", Json::from(r.stats.fusions)),
                ("condensations", Json::from(r.stats.condensations)),
            ]),
        ),
    ])
}
