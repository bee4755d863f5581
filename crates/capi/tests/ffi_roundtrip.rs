//! FFI round-trip gate: a program compiled through the C ABI,
//! serialized to `.sga` bytes, loaded back through the C ABI, and
//! evaluated via `sg_eval_json` must answer **byte-identically** to the
//! in-process facade evaluating the same request — across the corpus
//! programs and run configurations. Error paths must return the
//! documented status codes with a message, never abort.

use safegen_api::{jsonreq, ArgValue, Engine, RunConfig};
use safegen_capi::{
    sg_buf, sg_compile, sg_engine, sg_engine_free, sg_engine_new, sg_eval_json, sg_last_error,
    sg_program, sg_program_free, sg_program_from_bytes, sg_program_list_json, sg_program_to_bytes,
    sg_status, sg_version,
};
use safegen_telemetry::json::{self, Json};
use std::ffi::{CStr, CString};
use std::ptr;

/// RAII wrapper so a failing assertion cannot leak handles across tests.
struct Ctx {
    engine: *mut sg_engine,
}

impl Ctx {
    fn new() -> Ctx {
        let engine = sg_engine_new();
        assert!(!engine.is_null());
        Ctx { engine }
    }

    fn compile(&self, src: &str, name: &str) -> *mut sg_program {
        let src_c = CString::new(src).unwrap();
        let name_c = CString::new(name).unwrap();
        let mut program: *mut sg_program = ptr::null_mut();
        let status =
            unsafe { sg_compile(self.engine, src_c.as_ptr(), name_c.as_ptr(), &mut program) };
        assert_eq!(status, sg_status::SG_OK, "{}", last_error());
        assert!(!program.is_null());
        program
    }

    fn load_bytes(&self, bytes: &[u8]) -> Result<*mut sg_program, sg_status> {
        let mut program: *mut sg_program = ptr::null_mut();
        let status = unsafe {
            sg_program_from_bytes(self.engine, bytes.as_ptr(), bytes.len(), &mut program)
        };
        if status == sg_status::SG_OK {
            Ok(program)
        } else {
            Err(status)
        }
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        unsafe { sg_engine_free(self.engine) };
    }
}

fn last_error() -> String {
    unsafe { CStr::from_ptr(sg_last_error()) }
        .to_string_lossy()
        .into_owned()
}

/// Takes ownership of an `sg_buf` as a Rust string.
fn take_string(buf: sg_buf) -> String {
    let s = unsafe { std::slice::from_raw_parts(buf.data, buf.len) }.to_vec();
    unsafe { safegen_capi::sg_buf_free(buf) };
    String::from_utf8(s).expect("library JSON is UTF-8")
}

fn to_bytes(program: *const sg_program) -> Vec<u8> {
    let mut buf = sg_buf {
        data: ptr::null_mut(),
        len: 0,
    };
    let status = unsafe { sg_program_to_bytes(program, &mut buf) };
    assert_eq!(status, sg_status::SG_OK, "{}", last_error());
    let bytes = unsafe { std::slice::from_raw_parts(buf.data, buf.len) }.to_vec();
    unsafe { safegen_capi::sg_buf_free(buf) };
    bytes
}

fn eval(program: *const sg_program, request: &str) -> Result<String, (sg_status, String)> {
    let req_c = CString::new(request).unwrap();
    let mut buf = sg_buf {
        data: ptr::null_mut(),
        len: 0,
    };
    let status = unsafe { sg_eval_json(program, req_c.as_ptr(), &mut buf) };
    if status == sg_status::SG_OK {
        Ok(take_string(buf))
    } else {
        Err((status, last_error()))
    }
}

/// Encodes facade argument values the way the request schema expects.
fn arg_json(a: &ArgValue) -> Json {
    match a {
        ArgValue::Float(x) => Json::Num(*x),
        ArgValue::Int(n) => Json::obj(vec![("int", Json::Num(*n as f64))]),
        ArgValue::Array(xs) => Json::obj(vec![(
            "array",
            Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect()),
        )]),
    }
}

/// The request sweep: every corpus-safe config the default artifact
/// build materializes variants for.
fn config_fields() -> Vec<Vec<(&'static str, Json)>> {
    vec![
        vec![("config", Json::from("dspv")), ("k", Json::from(8u64))],
        vec![("config", Json::from("dspv")), ("k", Json::from(16u64))],
        vec![("config", Json::from("ia"))],
        vec![("config", Json::from("unsound"))],
    ]
}

#[test]
fn corpus_ffi_round_trip_bit_identical_to_facade() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let ctx = Ctx::new();
    let facade = Engine::new();
    let mut checked = 0usize;
    for entry in std::fs::read_dir(&corpus).expect("corpus dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("c") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("corpus file reads");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();

        // The reference: the in-process facade, compile → eval.
        let reference = facade.compile(&src, &name).expect("corpus compiles");
        // The C ABI path: compile → .sga bytes → load → eval.
        let ffi_compiled = ctx.compile(&src, &name);
        let bytes = to_bytes(ffi_compiled);
        let ffi_loaded = ctx.load_bytes(&bytes).expect("artifact bytes load");

        for func in reference.functions() {
            let args = reference
                .default_args(&func, &RunConfig::affine_f64(8))
                .expect("default args");
            let args_json = Json::Arr(args.iter().map(|(_, a)| arg_json(a)).collect());
            for cfg in config_fields() {
                let mut fields = vec![("func", Json::from(func.as_str()))];
                fields.extend(cfg);
                fields.push(("args", args_json.clone()));
                let request = Json::obj(fields).to_string();

                let expected = jsonreq::handle_eval(&json::parse(&request).unwrap(), &reference)
                    .map(|(response, _)| response.to_string());
                let got_compiled = eval(ffi_compiled, &request);
                let got_loaded = eval(ffi_loaded, &request);
                match expected {
                    Ok(expected) => {
                        assert_eq!(
                            got_compiled.as_deref(),
                            Ok(expected.as_str()),
                            "{name}/{func}: FFI(compiled) differs from facade"
                        );
                        assert_eq!(
                            got_loaded.as_deref(),
                            Ok(expected.as_str()),
                            "{name}/{func}: FFI(.sga round-trip) differs from facade"
                        );
                        checked += 1;
                    }
                    Err((_, msg)) => {
                        // The facade rejects (e.g. a variant not in the
                        // sweep): both FFI paths must reject identically.
                        assert_eq!(
                            got_compiled.clone().err().map(|(_, m)| m),
                            Some(msg.clone()),
                            "{name}/{func}: FFI(compiled) error differs"
                        );
                        assert_eq!(
                            got_loaded.clone().err().map(|(_, m)| m),
                            Some(msg),
                            "{name}/{func}: FFI(loaded) error differs"
                        );
                    }
                }
            }
        }
        unsafe { sg_program_free(ffi_compiled) };
        unsafe { sg_program_free(ffi_loaded) };
    }
    assert!(
        checked >= 8,
        "only {checked} successful comparisons — corpus sweep vacuous"
    );
}

#[test]
fn batch_requests_round_trip() {
    let ctx = Ctx::new();
    let src = "double f(double x, double y) { return x * y + 0.1; }";
    let reference = Engine::new().compile(src, "batch.c").expect("compiles");
    let program = ctx
        .load_bytes(&to_bytes(ctx.compile(src, "batch.c")))
        .unwrap();
    let request = r#"{"func":"f","config":"dspv","k":8,"inputs":[[0.5,0.25],[0.1,0.9],[0.7,0.3]],"threads":2}"#;
    let expected = jsonreq::handle_eval(&json::parse(request).unwrap(), &reference)
        .map(|(response, _)| response.to_string())
        .expect("batch evaluates");
    assert_eq!(eval(program, request).as_deref(), Ok(expected.as_str()));
    unsafe { sg_program_free(program) };
}

#[test]
fn list_json_matches_daemon_encoder() {
    let ctx = Ctx::new();
    let src = "double f(double x) { return x + 1.0; } double g(double y) { return y * y; }";
    let program = ctx.compile(src, "list.c");
    let mut buf = sg_buf {
        data: ptr::null_mut(),
        len: 0,
    };
    assert_eq!(
        unsafe { sg_program_list_json(program, &mut buf) },
        sg_status::SG_OK
    );
    let listing = take_string(buf);
    // sg_compile is artifact-backed; mirror it exactly for the compare.
    let mut opts = safegen_api::BuildOptions::new("list.c");
    opts.use_cache = false;
    let (reference, _) = Engine::new().compile_artifact(src, &opts).unwrap();
    assert_eq!(listing, jsonreq::list_response(&reference).to_string());
    let parsed = json::parse(&listing).expect("valid JSON");
    assert_eq!(parsed.get("ok"), Some(&Json::Bool(true)));
    unsafe { sg_program_free(program) };
}

#[test]
fn version_matches_facade() {
    let v = unsafe { CStr::from_ptr(sg_version()) }.to_str().unwrap();
    assert_eq!(v, safegen_api::version());
}

#[test]
fn error_paths_return_codes_not_aborts() {
    let ctx = Ctx::new();

    // Null arguments → SG_ERR_INVALID_ARG, message set.
    let mut program: *mut sg_program = ptr::null_mut();
    let src = CString::new("double f(double x) { return x; }").unwrap();
    let name = CString::new("x.c").unwrap();
    assert_eq!(
        unsafe { sg_compile(ptr::null(), src.as_ptr(), name.as_ptr(), &mut program) },
        sg_status::SG_ERR_INVALID_ARG
    );
    assert_eq!(
        unsafe { sg_compile(ctx.engine, ptr::null(), name.as_ptr(), &mut program) },
        sg_status::SG_ERR_INVALID_ARG
    );
    assert!(!last_error().is_empty());

    // Non-UTF-8 source → SG_ERR_INVALID_ARG.
    let bad = [0xffu8, 0xfe, 0x00];
    assert_eq!(
        unsafe {
            sg_compile(
                ctx.engine,
                bad.as_ptr() as *const _,
                name.as_ptr(),
                &mut program,
            )
        },
        sg_status::SG_ERR_INVALID_ARG
    );

    // A compile error → SG_ERR_COMPILE with a diagnostic.
    let broken = CString::new("double f(double x) { return y; }").unwrap();
    assert_eq!(
        unsafe { sg_compile(ctx.engine, broken.as_ptr(), name.as_ptr(), &mut program) },
        sg_status::SG_ERR_COMPILE
    );
    assert!(
        !last_error().is_empty(),
        "compile error must carry a message"
    );

    // Garbage artifact bytes → SG_ERR_ARTIFACT (strict validation).
    assert_eq!(
        ctx.load_bytes(b"not an artifact").unwrap_err(),
        sg_status::SG_ERR_ARTIFACT
    );
    // A truncated real artifact too.
    let good = ctx.compile("double f(double x) { return x * x; }", "t.c");
    let bytes = to_bytes(good);
    assert_eq!(
        ctx.load_bytes(&bytes[..bytes.len() / 2]).unwrap_err(),
        sg_status::SG_ERR_ARTIFACT
    );

    // Bad request JSON → SG_ERR_BAD_REQUEST; schema violations too.
    assert_eq!(
        eval(good, "{nonsense").unwrap_err().0,
        sg_status::SG_ERR_BAD_REQUEST
    );
    assert_eq!(
        eval(good, r#"{"config":"dspv"}"#).unwrap_err().0,
        sg_status::SG_ERR_BAD_REQUEST
    );
    assert_eq!(
        eval(
            good,
            r#"{"func":"f","config":"no-such-config","args":[1.0]}"#
        )
        .unwrap_err()
        .0,
        sg_status::SG_ERR_BAD_REQUEST
    );

    // Unknown function → SG_ERR_UNKNOWN_PROGRAM, listing what exists.
    let (status, msg) = eval(
        good,
        r#"{"func":"nope","config":"dspv","k":8,"args":[1.0]}"#,
    )
    .unwrap_err();
    assert_eq!(status, sg_status::SG_ERR_UNKNOWN_PROGRAM);
    assert!(msg.contains("nope"), "message names the function: {msg}");

    unsafe { sg_program_free(good) };

    // Frees tolerate null.
    unsafe { sg_program_free(ptr::null_mut()) };
    unsafe { sg_engine_free(ptr::null_mut()) };
    unsafe {
        safegen_capi::sg_buf_free(sg_buf {
            data: ptr::null_mut(),
            len: 0,
        })
    };
}
