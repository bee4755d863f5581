#![warn(missing_docs)]
//! # safegen-artifact
//!
//! The versioned, content-hashed serialization of SafeGen-compiled
//! programs — the `.sga` artifact format — plus the on-disk
//! content-addressed compile cache.
//!
//! The compiler's output ([`Program`] bytecode, register/array layout,
//! provenance spans, and the pass-pipeline/analysis metadata of the
//! compilation) is plain data; this crate gives it a stable on-disk
//! shape so compilation can be **amortized**: compile once, ship or
//! cache the artifact, and serve many evaluation requests from it
//! without ever re-running the front-end (`safegen serve`). The format
//! is specified normatively in `docs/ARTIFACT.md`; this crate is the
//! reference implementation, and `tests/artifact_spec.rs` checks the
//! spec's worked example byte-for-byte against [`Artifact::to_bytes`].
//!
//! ## Safety model
//!
//! Artifacts may arrive over a network or a shared cache, so
//! [`Artifact::from_bytes`] is **strict**: it validates the magic,
//! format version, header flags, payload length, and the SHA-256
//! content hash *before* touching the body, and then runs
//! [`Program::validate`] — every register index, array id, pool index
//! and jump target against the declared layout — before a program is
//! handed to the VM. A corrupted, truncated,
//! or incompatible artifact is a diagnostic ([`ArtifactError`]), never
//! an out-of-bounds execution.
//!
//! ## Round trip
//!
//! ```
//! use safegen_artifact::{Artifact, ArtifactMeta, ProgramVariant, VariantKind};
//! use safegen_ir::{FixedInstr, OpCode, Program};
//! use safegen_ir::cfg::ParamBinding;
//! use safegen_cfront::Span;
//!
//! // A tiny hand-built program: double sq(double x) { return x * x; }
//! let prog = Program {
//!     name: "sq".into(),
//!     code: vec![
//!         FixedInstr::new(OpCode::Mul, 1, 0, 0),
//!         FixedInstr::new(OpCode::Ret, 0, 1, 0),
//!     ],
//!     fpool: vec![],
//!     ipool: vec![],
//!     n_fregs: 2,
//!     n_iregs: 0,
//!     arrays: vec![],
//!     params: vec![("x".into(), ParamBinding::Float(0))],
//!     spans: vec![Span::default(); 2],
//! };
//! let artifact = Artifact {
//!     meta: ArtifactMeta::new("sq.c"),
//!     programs: vec![ProgramVariant { func: "sq".into(), kind: VariantKind::Plain, program: prog }],
//! };
//!
//! let bytes = artifact.to_bytes();
//! let back = Artifact::from_bytes(&bytes).unwrap();
//! assert_eq!(back, artifact);
//! assert_eq!(back.find("sq", &VariantKind::Plain).unwrap().code.len(), 2);
//!
//! // Any bit flip in the payload is caught by the content hash.
//! let mut corrupt = bytes.clone();
//! *corrupt.last_mut().unwrap() ^= 1;
//! assert!(Artifact::from_bytes(&corrupt).is_err());
//! ```

pub mod cache;
pub mod hash;
pub mod wire;

use hash::Sha256;
use safegen_cfront::Span;
use safegen_ir::cfg::{ArrayDecl, ParamBinding};
use safegen_ir::{FixedInstr, OpCode, Program};
use safegen_telemetry::json::{self, Json};
use std::fmt;
use std::path::Path;
use wire::{Reader, WireError, Writer};

/// The four magic bytes every artifact starts with: `"SGAF"`.
pub const MAGIC: [u8; 4] = *b"SGAF";

/// The artifact format version this crate reads and writes.
///
/// The version is bumped on **any** change to the byte layout; readers
/// reject every version other than their own (`docs/ARTIFACT.md` §2, §7 —
/// recompiling is always possible and always sound, so there is no
/// cross-version compatibility machinery to get wrong).
pub const FORMAT_VERSION: u16 = 3;

/// Fixed header length in bytes (`docs/ARTIFACT.md` §3).
pub const HEADER_LEN: usize = 48;

/// Hard cap on a program's register-file sizes and array count: the
/// instruction records' `u16` operand fields ([`Program::validate`]).
pub use safegen_ir::MAX_REGS;

/// Hard cap on one array's element count (same rationale as [`MAX_REGS`]).
pub const MAX_ARRAY_ELEMS: usize = 1 << 24;

/// Section tag: artifact metadata (JSON), exactly one, first.
pub const SEC_META: [u8; 4] = *b"META";

/// Section tag: one serialized program variant.
pub const SEC_PROG: [u8; 4] = *b"PROG";

/// Why an artifact failed to load.
#[derive(Clone, Debug, PartialEq)]
pub enum ArtifactError {
    /// Input shorter than the fixed header.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        have: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Header version ≠ [`FORMAT_VERSION`].
    UnsupportedVersion(u16),
    /// Header flags are nonzero: every bit is reserved and must be 0.
    BadFlags(u16),
    /// Header payload length disagrees with the actual input length.
    PayloadLength {
        /// Length the header declares.
        declared: u64,
        /// Bytes actually present after the header.
        actual: usize,
    },
    /// SHA-256 of the payload does not match the header hash.
    HashMismatch {
        /// Hash stored in the header (hex).
        expected: String,
        /// Hash of the payload as read (hex).
        actual: String,
    },
    /// A primitive read failed (truncation, bad UTF-8, absurd count).
    Wire(WireError),
    /// The bytes parsed but violate a structural rule of the format.
    Malformed(String),
    /// Filesystem failure (only from the path-based helpers).
    Io(String),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated { need, have } => {
                write!(f, "artifact truncated: need {need} bytes, have {have}")
            }
            ArtifactError::BadMagic(m) => {
                write!(f, "not a safegen artifact (magic {m:02x?}, want \"SGAF\")")
            }
            ArtifactError::UnsupportedVersion(v) => write!(
                f,
                "unsupported artifact version {v} (this build reads version {FORMAT_VERSION}); \
                 recompile the source to regenerate the artifact"
            ),
            ArtifactError::BadFlags(x) => write!(f, "reserved header flags set ({x:#06x})"),
            ArtifactError::PayloadLength { declared, actual } => write!(
                f,
                "payload length mismatch: header declares {declared} bytes, found {actual}"
            ),
            ArtifactError::HashMismatch { expected, actual } => write!(
                f,
                "content hash mismatch (artifact corrupted or tampered): header {expected}, \
                 payload hashes to {actual}"
            ),
            ArtifactError::Wire(e) => write!(f, "malformed artifact: {e}"),
            ArtifactError::Malformed(m) => write!(f, "malformed artifact: {m}"),
            ArtifactError::Io(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<WireError> for ArtifactError {
    fn from(e: WireError) -> Self {
        ArtifactError::Wire(e)
    }
}

/// Which compilation variant of a function a serialized program is.
///
/// The driver compiles each function into up to three shapes (paper
/// Sec. VI): the plain program, the priority-annotated program for a
/// symbol budget `k`, and the variable-capacity program. The artifact
/// stores each precompiled shape under its key so the serving path
/// never recompiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VariantKind {
    /// No analysis annotations; valid for every numeric domain.
    Plain,
    /// `#pragma safegen prioritize` protection compiled in for budget `k`.
    Prioritized {
        /// The noise-symbol budget the max-reuse analysis targeted.
        k: u32,
    },
    /// Variable-capacity annotations: operations off every reuse
    /// connection run at `k_low` symbols instead of `k`.
    Capacity {
        /// The full symbol budget.
        k: u32,
        /// The reduced budget off reuse connections.
        k_low: u32,
        /// Whether priorities were also compiled in.
        prioritized: bool,
    },
}

impl fmt::Display for VariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VariantKind::Plain => write!(f, "plain"),
            VariantKind::Prioritized { k } => write!(f, "prioritized(k={k})"),
            VariantKind::Capacity {
                k,
                k_low,
                prioritized,
            } => write!(
                f,
                "capacity(k={k},k_low={k_low}{})",
                if *prioritized { ",prioritized" } else { "" }
            ),
        }
    }
}

/// One serialized program: the function it came from, the compilation
/// variant, and the bytecode itself.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgramVariant {
    /// Source function name.
    pub func: String,
    /// Which compilation variant this program is.
    pub kind: VariantKind,
    /// The executable program.
    pub program: Program,
}

/// Artifact-level metadata (the JSON `META` section).
#[derive(Clone, Debug, PartialEq)]
pub struct ArtifactMeta {
    /// Human-readable artifact name (conventionally the source file name).
    pub name: String,
    /// Producing tool and version, e.g. `safegen-rs 0.1.0`.
    pub tool: String,
    /// The mid-end pass pipeline every program was compiled with, in run
    /// order — the *pass-pipeline fingerprint* of the compilation.
    pub passes: Vec<String>,
    /// Whether the max-reuse analysis was enabled at compile time.
    pub prioritize: bool,
    /// SHA-256 (hex) of the C source this artifact was compiled from,
    /// when known — lets a cache detect stale artifacts.
    pub source_sha256: Option<String>,
}

impl ArtifactMeta {
    /// Metadata with this crate's tool string, the default pipeline
    /// fingerprint left empty, analysis marked on, and no source hash.
    pub fn new(name: &str) -> ArtifactMeta {
        ArtifactMeta {
            name: name.to_string(),
            tool: tool_version(),
            passes: Vec::new(),
            prioritize: true,
            source_sha256: None,
        }
    }
}

/// The producing tool string this build writes into artifacts.
pub fn tool_version() -> String {
    format!("safegen-rs {}", env!("CARGO_PKG_VERSION"))
}

/// A deserialized (or to-be-serialized) artifact: metadata plus a set of
/// precompiled program variants.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// The `META` section.
    pub meta: ArtifactMeta,
    /// The `PROG` sections, in file order. Keys `(func, kind)` are
    /// unique (enforced on both encode and decode).
    pub programs: Vec<ProgramVariant>,
}

impl Artifact {
    /// Looks up the program for `(func, kind)`.
    pub fn find(&self, func: &str, kind: &VariantKind) -> Option<&Program> {
        self.programs
            .iter()
            .find(|v| v.func == func && v.kind == *kind)
            .map(|v| &v.program)
    }

    /// The distinct function names with at least one variant, in first-
    /// appearance order.
    pub fn functions(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for v in &self.programs {
            if !out.contains(&v.func.as_str()) {
                out.push(&v.func);
            }
        }
        out
    }

    /// Serializes to the `.sga` byte format (header + hashed payload).
    ///
    /// # Panics
    ///
    /// Panics if two variants share the same `(func, kind)` key — a
    /// builder bug, caught before an ambiguous artifact can be written.
    pub fn to_bytes(&self) -> Vec<u8> {
        for (i, a) in self.programs.iter().enumerate() {
            for b in &self.programs[..i] {
                assert!(
                    !(a.func == b.func && a.kind == b.kind),
                    "duplicate program variant {} {}",
                    a.func,
                    a.kind
                );
            }
        }
        let payload = self.encode_payload();
        let digest = Sha256::digest(&payload);
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags: reserved
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&digest);
        out.extend_from_slice(&payload);
        out
    }

    /// The artifact's content id: SHA-256 (hex) of the payload — the
    /// same digest [`Artifact::to_bytes`] stores in the header, and the
    /// name the content-addressed cache stores the artifact under.
    pub fn id(&self) -> String {
        Sha256::hex(&Sha256::digest(&self.encode_payload()))
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        push_section(&mut payload, SEC_META, &self.encode_meta());
        for v in &self.programs {
            push_section(&mut payload, SEC_PROG, &encode_program(v));
        }
        payload
    }

    fn encode_meta(&self) -> Vec<u8> {
        let m = &self.meta;
        Json::obj(vec![
            ("format", Json::from("safegen-artifact")),
            ("version", Json::from(FORMAT_VERSION as u64)),
            ("name", Json::from(m.name.as_str())),
            ("tool", Json::from(m.tool.as_str())),
            (
                "passes",
                Json::Arr(m.passes.iter().map(|p| Json::from(p.as_str())).collect()),
            ),
            ("prioritize", Json::Bool(m.prioritize)),
            (
                "source_sha256",
                match &m.source_sha256 {
                    Some(h) => Json::from(h.as_str()),
                    None => Json::Null,
                },
            ),
        ])
        .to_string()
        .into_bytes()
    }

    /// Strictly deserializes an artifact, validating the header, the
    /// content hash, the section structure, and every program's bounds
    /// before returning.
    ///
    /// # Errors
    ///
    /// Every way the input can be wrong maps to a specific
    /// [`ArtifactError`]; nothing malformed is ever silently accepted.
    pub fn from_bytes(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
        if bytes.len() < HEADER_LEN {
            return Err(ArtifactError::Truncated {
                need: HEADER_LEN,
                have: bytes.len(),
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().unwrap();
        if magic != MAGIC {
            return Err(ArtifactError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedVersion(version));
        }
        let flags = u16::from_le_bytes(bytes[6..8].try_into().unwrap());
        if flags != 0 {
            return Err(ArtifactError::BadFlags(flags));
        }
        let declared = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        let payload = &bytes[HEADER_LEN..];
        if declared != payload.len() as u64 {
            return Err(ArtifactError::PayloadLength {
                declared,
                actual: payload.len(),
            });
        }
        let stored: [u8; 32] = bytes[16..48].try_into().unwrap();
        let actual = Sha256::digest(payload);
        if stored != actual {
            return Err(ArtifactError::HashMismatch {
                expected: Sha256::hex(&stored),
                actual: Sha256::hex(&actual),
            });
        }

        let mut meta: Option<ArtifactMeta> = None;
        let mut programs: Vec<ProgramVariant> = Vec::new();
        let mut r = Reader::new(payload);
        let mut first = true;
        while !r.is_at_end() {
            let tag: [u8; 4] = r.bytes(4, "section tag")?.try_into().unwrap();
            let len = r.u64()? as usize;
            if len > r.remaining() {
                return Err(ArtifactError::Malformed(format!(
                    "section {:?} declares {len} bytes, {} remain",
                    String::from_utf8_lossy(&tag),
                    r.remaining()
                )));
            }
            let body = r.bytes(len, "section body")?;
            match tag {
                SEC_META => {
                    if !first {
                        return Err(ArtifactError::Malformed(
                            "META section must come first".into(),
                        ));
                    }
                    if meta.is_some() {
                        return Err(ArtifactError::Malformed("duplicate META section".into()));
                    }
                    meta = Some(decode_meta(body)?);
                }
                SEC_PROG => {
                    if meta.is_none() {
                        return Err(ArtifactError::Malformed(
                            "PROG section before META section".into(),
                        ));
                    }
                    let v = decode_program(body)?;
                    if programs
                        .iter()
                        .any(|p| p.func == v.func && p.kind == v.kind)
                    {
                        return Err(ArtifactError::Malformed(format!(
                            "duplicate program variant {} {}",
                            v.func, v.kind
                        )));
                    }
                    programs.push(v);
                }
                other => {
                    return Err(ArtifactError::Malformed(format!(
                        "unknown section tag {:?}",
                        String::from_utf8_lossy(&other)
                    )));
                }
            }
            first = false;
        }
        let meta = meta.ok_or_else(|| ArtifactError::Malformed("missing META section".into()))?;
        Ok(Artifact { meta, programs })
    }

    /// Writes the artifact to `path` (atomically: temp file + rename).
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] with the failing path.
    pub fn write_file(&self, path: &Path) -> Result<(), ArtifactError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("sga.tmp");
        std::fs::write(&tmp, &bytes)
            .map_err(|e| ArtifactError::Io(format!("write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| ArtifactError::Io(format!("rename to {}: {e}", path.display())))
    }

    /// Reads and strictly validates an artifact file.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] if the file cannot be read, otherwise any
    /// [`Artifact::from_bytes`] validation error.
    pub fn read_file(path: &Path) -> Result<Artifact, ArtifactError> {
        let bytes = std::fs::read(path)
            .map_err(|e| ArtifactError::Io(format!("read {}: {e}", path.display())))?;
        Artifact::from_bytes(&bytes)
    }
}

fn push_section(out: &mut Vec<u8>, tag: [u8; 4], body: &[u8]) {
    out.extend_from_slice(&tag);
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
}

fn decode_meta(body: &[u8]) -> Result<ArtifactMeta, ArtifactError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ArtifactError::Malformed("META section is not UTF-8".into()))?;
    let v = json::parse(text).map_err(|e| ArtifactError::Malformed(format!("META JSON: {e}")))?;
    let str_field = |key: &str| -> Result<String, ArtifactError> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ArtifactError::Malformed(format!("META missing string field {key:?}")))
    };
    let format = str_field("format")?;
    if format != "safegen-artifact" {
        return Err(ArtifactError::Malformed(format!(
            "META format is {format:?}, want \"safegen-artifact\""
        )));
    }
    let version = v
        .get("version")
        .and_then(Json::as_f64)
        .ok_or_else(|| ArtifactError::Malformed("META missing numeric field \"version\"".into()))?;
    if version != FORMAT_VERSION as f64 {
        return Err(ArtifactError::Malformed(format!(
            "META version {version} disagrees with header version {FORMAT_VERSION}"
        )));
    }
    let passes = v
        .get("passes")
        .and_then(Json::as_arr)
        .ok_or_else(|| ArtifactError::Malformed("META missing array field \"passes\"".into()))?
        .iter()
        .map(|p| {
            p.as_str().map(str::to_string).ok_or_else(|| {
                ArtifactError::Malformed("META passes entries must be strings".into())
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let prioritize = match v.get("prioritize") {
        Some(Json::Bool(b)) => *b,
        _ => {
            return Err(ArtifactError::Malformed(
                "META missing boolean field \"prioritize\"".into(),
            ))
        }
    };
    let source_sha256 = match v.get("source_sha256") {
        Some(Json::Null) | None => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => {
            return Err(ArtifactError::Malformed(
                "META source_sha256 must be a string or null".into(),
            ))
        }
    };
    Ok(ArtifactMeta {
        name: str_field("name")?,
        tool: str_field("tool")?,
        passes,
        prioritize,
        source_sha256,
    })
}

/// Variant-kind wire tags (`docs/ARTIFACT.md` §4.1).
const VK_PLAIN: u8 = 0;
const VK_PRIORITIZED: u8 = 1;
const VK_CAPACITY: u8 = 2;

fn encode_program(v: &ProgramVariant) -> Vec<u8> {
    let p = &v.program;
    let mut w = Writer::new();
    w.string(&v.func);
    match v.kind {
        VariantKind::Plain => {
            w.u8(VK_PLAIN);
            w.u32(0);
            w.u32(0);
            w.u8(0);
        }
        VariantKind::Prioritized { k } => {
            w.u8(VK_PRIORITIZED);
            w.u32(k);
            w.u32(0);
            w.u8(0);
        }
        VariantKind::Capacity {
            k,
            k_low,
            prioritized,
        } => {
            w.u8(VK_CAPACITY);
            w.u32(k);
            w.u32(k_low);
            w.u8(u8::from(prioritized));
        }
    }
    w.string(&p.name);
    w.u32(p.n_fregs as u32);
    w.u32(p.n_iregs as u32);
    w.u32(p.arrays.len() as u32);
    for a in &p.arrays {
        w.string(&a.name);
        w.u64(a.len as u64);
        w.u8(a.dims.len() as u8);
        for d in &a.dims {
            w.u64(*d as u64);
        }
        w.u8(u8::from(a.is_param));
    }
    w.u32(p.params.len() as u32);
    for (name, binding) in &p.params {
        w.string(name);
        match binding {
            ParamBinding::Float(r) => {
                w.u8(0);
                w.u32(*r);
            }
            ParamBinding::Int(r) => {
                w.u8(1);
                w.u32(*r);
            }
            ParamBinding::Array(id) => {
                w.u8(2);
                w.u32(*id);
            }
        }
    }
    w.u32(p.fpool.len() as u32);
    for c in &p.fpool {
        w.f64(*c);
    }
    w.u32(p.ipool.len() as u32);
    for c in &p.ipool {
        w.i64(*c);
    }
    w.u32(p.code.len() as u32);
    for i in &p.code {
        w.u8(i.op as u8);
        w.u8(i.aux);
        w.u16(i.dst);
        w.u16(i.a);
        w.u16(i.b);
        w.u32(i.imm);
    }
    for s in &p.spans {
        w.u64(s.start as u64);
        w.u64(s.end as u64);
        w.u32(s.line);
        w.u32(s.col);
    }
    w.into_bytes()
}

fn decode_program(body: &[u8]) -> Result<ProgramVariant, ArtifactError> {
    let mut r = Reader::new(body);
    let func = r.string()?;
    let kind_at = r.offset();
    let kind_tag = r.u8()?;
    let k = r.u32()?;
    let k_low = r.u32()?;
    let prio = r.u8()?;
    let kind = match (kind_tag, k, k_low, prio) {
        (VK_PLAIN, 0, 0, 0) => VariantKind::Plain,
        (VK_PRIORITIZED, k, 0, 0) => VariantKind::Prioritized { k },
        (VK_CAPACITY, k, k_low, p @ (0 | 1)) => VariantKind::Capacity {
            k,
            k_low,
            prioritized: p == 1,
        },
        _ => {
            return Err(ArtifactError::Malformed(format!(
                "bad variant descriptor at byte {kind_at} (tag {kind_tag}, unused fields must \
                 be zero)"
            )))
        }
    };
    let name = r.string()?;
    let n_fregs = r.u32()? as usize;
    let n_iregs = r.u32()? as usize;
    let n_arrays = r.count(8, "array table")?;
    let mut arrays = Vec::with_capacity(n_arrays);
    for _ in 0..n_arrays {
        let name = r.string()?;
        let len = r.u64()? as usize;
        if len > MAX_ARRAY_ELEMS {
            return Err(ArtifactError::Malformed(format!(
                "array {name:?} too large ({len} elements, cap {MAX_ARRAY_ELEMS})"
            )));
        }
        let n_dims = r.u8()? as usize;
        let mut dims = Vec::with_capacity(n_dims);
        for _ in 0..n_dims {
            dims.push(r.u64()? as usize);
        }
        if dims.iter().product::<usize>() != len {
            return Err(ArtifactError::Malformed(format!(
                "array {name:?}: dims {dims:?} do not multiply to len {len}"
            )));
        }
        let is_param = decode_bool(&mut r, "array is_param")?;
        arrays.push(ArrayDecl {
            name,
            len,
            dims,
            is_param,
        });
    }
    let n_params = r.count(9, "parameter list")?;
    let mut params = Vec::with_capacity(n_params);
    for _ in 0..n_params {
        let pname = r.string()?;
        let at = r.offset();
        let tag = r.u8()?;
        let idx = r.u32()?;
        let binding = match tag {
            0 if (idx as usize) < n_fregs => ParamBinding::Float(idx),
            1 if (idx as usize) < n_iregs => ParamBinding::Int(idx),
            2 if (idx as usize) < arrays.len() => ParamBinding::Array(idx),
            0..=2 => {
                return Err(ArtifactError::Malformed(format!(
                    "parameter {pname:?}: binding index {idx} out of range at byte {at}"
                )))
            }
            other => {
                return Err(ArtifactError::Malformed(format!(
                    "parameter {pname:?}: unknown binding tag {other} at byte {at}"
                )))
            }
        };
        params.push((pname, binding));
    }
    let n_fpool = r.count(8, "float pool")?;
    let mut fpool = Vec::with_capacity(n_fpool);
    for _ in 0..n_fpool {
        fpool.push(r.f64()?);
    }
    let n_ipool = r.count(8, "int pool")?;
    let mut ipool = Vec::with_capacity(n_ipool);
    for _ in 0..n_ipool {
        ipool.push(r.i64()?);
    }
    let n_code = r.count(12, "instruction stream")?;
    let mut code = Vec::with_capacity(n_code);
    for _ in 0..n_code {
        let at = r.offset();
        let byte = r.u8()?;
        let op = OpCode::from_byte(byte).ok_or_else(|| {
            ArtifactError::Malformed(format!("unknown opcode {byte} at byte {at}"))
        })?;
        code.push(FixedInstr {
            op,
            aux: r.u8()?,
            dst: r.u16()?,
            a: r.u16()?,
            b: r.u16()?,
            imm: r.u32()?,
        });
    }
    let mut spans = Vec::with_capacity(n_code);
    for _ in 0..n_code {
        let start = r.u64()? as usize;
        let end = r.u64()? as usize;
        let line = r.u32()?;
        let col = r.u32()?;
        spans.push(Span {
            start,
            end,
            line,
            col,
        });
    }
    if !r.is_at_end() {
        return Err(ArtifactError::Malformed(format!(
            "{} trailing bytes after program {func:?}",
            r.remaining()
        )));
    }
    let program = Program {
        name,
        code,
        fpool,
        ipool,
        n_fregs,
        n_iregs,
        arrays,
        params,
        spans,
    };
    program.validate().map_err(ArtifactError::Malformed)?;
    Ok(ProgramVariant {
        func,
        kind,
        program,
    })
}

fn decode_bool(r: &mut Reader, what: &str) -> Result<bool, ArtifactError> {
    let at = r.offset();
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(ArtifactError::Malformed(format!(
            "{what}: bad boolean {other} at byte {at}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sq_program() -> Program {
        Program {
            name: "sq".into(),
            code: vec![
                FixedInstr::new(OpCode::Mul, 1, 0, 0),
                FixedInstr::new(OpCode::Ret, 0, 1, 0),
            ],
            fpool: vec![],
            ipool: vec![],
            n_fregs: 2,
            n_iregs: 0,
            arrays: vec![],
            params: vec![("x".into(), ParamBinding::Float(0))],
            spans: vec![Span::default(); 2],
        }
    }

    fn sq_artifact() -> Artifact {
        Artifact {
            meta: ArtifactMeta {
                name: "sq.c".into(),
                tool: "safegen-rs 0.1.0".into(),
                passes: vec!["cse".into(), "dce".into()],
                prioritize: true,
                source_sha256: Some(Sha256::hex(&Sha256::digest(b"double sq..."))),
            },
            programs: vec![ProgramVariant {
                func: "sq".into(),
                kind: VariantKind::Prioritized { k: 8 },
                program: sq_program(),
            }],
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let a = sq_artifact();
        let back = Artifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back, a);
        assert_eq!(back.functions(), vec!["sq"]);
        assert!(back
            .find("sq", &VariantKind::Prioritized { k: 8 })
            .is_some());
        assert!(back.find("sq", &VariantKind::Plain).is_none());
    }

    #[test]
    fn id_is_header_hash() {
        let a = sq_artifact();
        let bytes = a.to_bytes();
        let header_hash: [u8; 32] = bytes[16..48].try_into().unwrap();
        assert_eq!(a.id(), Sha256::hex(&header_hash));
    }

    #[test]
    fn every_opcode_round_trips() {
        use safegen_ir::{Imm, Operand};
        // One record per stored opcode, each field at the top of its range
        // (distinct per field, so a swapped field cannot round-trip).
        let (n_fregs, n_iregs) = (0x1235, 0x0457);
        let stored: Vec<OpCode> = OpCode::ALL
            .into_iter()
            .filter(|op| op.operands().is_some())
            .collect();
        assert_eq!(stored.len(), 27);
        let n = stored.len();
        let code: Vec<FixedInstr> = stored
            .iter()
            .map(|&op| {
                let (fields, imm) = op.operands().unwrap();
                let value = |kind: Operand, slot: u16| match kind {
                    Operand::Unused => 0,
                    Operand::FReg => n_fregs - 1 - slot,
                    Operand::IReg => n_iregs - 1 - slot,
                    Operand::Array => 0,
                };
                let rec = FixedInstr {
                    op,
                    aux: if matches!(op, OpCode::CmpI | OpCode::CmpF) {
                        5
                    } else {
                        0
                    },
                    dst: value(fields[0], 0),
                    a: value(fields[1], 1),
                    b: value(fields[2], 2),
                    imm: match imm {
                        Imm::Unused | Imm::IPool | Imm::Pragma => 0,
                        Imm::FPool => 1,
                        Imm::Target => n as u32,
                    },
                };
                if imm != Imm::Pragma {
                    return rec;
                }
                let protect = matches!(
                    op,
                    OpCode::Add | OpCode::Sub | OpCode::Mul | OpCode::Div | OpCode::Sqrt
                );
                rec.with_pragma(safegen_ir::OpPragma {
                    protect: protect.then_some(u32::from(n_fregs) - 4),
                    capacity: Some(0xbeef),
                })
            })
            .collect();
        let program = Program {
            name: "all".into(),
            code,
            fpool: vec![0.1, -0.0],
            ipool: vec![-7],
            n_fregs: usize::from(n_fregs),
            n_iregs: usize::from(n_iregs),
            arrays: vec![ArrayDecl {
                name: "a".into(),
                len: 6,
                dims: vec![2, 3],
                is_param: true,
            }],
            params: vec![
                ("a".into(), ParamBinding::Array(0)),
                ("n".into(), ParamBinding::Int(0)),
                ("x".into(), ParamBinding::Float(0)),
            ],
            spans: (0..n)
                .map(|i| Span {
                    start: i,
                    end: i + 1,
                    line: 1 + i as u32,
                    col: 2,
                })
                .collect(),
        };
        assert_eq!(program.validate(), Ok(()));
        let a = Artifact {
            meta: ArtifactMeta::new("all.c"),
            programs: vec![ProgramVariant {
                func: "all".into(),
                kind: VariantKind::Capacity {
                    k: 16,
                    k_low: 2,
                    prioritized: true,
                },
                program,
            }],
        };
        let back = Artifact::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(back, a);
        assert_eq!(
            back.programs[0].program.fpool[1].to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn header_errors_are_specific() {
        let good = sq_artifact().to_bytes();

        assert!(matches!(
            Artifact::from_bytes(&good[..20]).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            Artifact::from_bytes(&bad).unwrap_err(),
            ArtifactError::BadMagic(_)
        ));

        let mut bad = good.clone();
        bad[4] = 99;
        assert!(matches!(
            Artifact::from_bytes(&bad).unwrap_err(),
            ArtifactError::UnsupportedVersion(99)
        ));

        let mut bad = good.clone();
        bad[6] = 2;
        assert!(matches!(
            Artifact::from_bytes(&bad).unwrap_err(),
            ArtifactError::BadFlags(2)
        ));

        let mut bad = good.clone();
        bad[6] = 1;
        assert!(matches!(
            Artifact::from_bytes(&bad).unwrap_err(),
            ArtifactError::BadFlags(1)
        ));

        let mut bad = good.clone();
        bad.truncate(good.len() - 1);
        assert!(matches!(
            Artifact::from_bytes(&bad).unwrap_err(),
            ArtifactError::PayloadLength { .. }
        ));

        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(
            Artifact::from_bytes(&bad).unwrap_err(),
            ArtifactError::HashMismatch { .. }
        ));
    }

    /// Re-signs a tampered payload so the corruption reaches the body
    /// decoder instead of being caught by the hash check.
    fn resign(mut bytes: Vec<u8>, tamper: impl FnOnce(&mut [u8])) -> Vec<u8> {
        tamper(&mut bytes[HEADER_LEN..]);
        let digest = Sha256::digest(&bytes[HEADER_LEN..]);
        bytes[16..48].copy_from_slice(&digest);
        bytes
    }

    #[test]
    fn body_corruption_is_rejected_after_resigning() {
        let good = sq_artifact().to_bytes();

        // Unknown section tag.
        let bad = resign(good.clone(), |p| p[0] = b'Z');
        assert!(matches!(
            Artifact::from_bytes(&bad).unwrap_err(),
            ArtifactError::Malformed(_)
        ));

        // Encoding never validates (the builder is trusted); decoding
        // runs `Program::validate`, whose message names the instruction.
        let rejects = |corrupt: fn(&mut Program), want: &str| {
            let mut evil = sq_artifact();
            corrupt(&mut evil.programs[0].program);
            let err = Artifact::from_bytes(&evil.to_bytes()).unwrap_err();
            assert!(
                matches!(&err, ArtifactError::Malformed(m) if m.contains(want)),
                "{want}: {err}"
            );
        };
        rejects(
            |p| p.code[0].dst = 7,
            "instruction 0 (Mul): dst = 7 out of range",
        );
        rejects(
            |p| p.code[1] = FixedInstr::new(OpCode::Jump, 0, 0, 0).with_imm(99),
            "instruction 1",
        );
        rejects(
            |p| p.code[0].op = OpCode::MulThenAdd,
            "instruction 0: superinstruction",
        );

        // An opcode byte past the table. The code records sit right
        // before the two 24-byte span records at the end of the payload.
        let bad = resign(good, |p| {
            let first_record = p.len() - 2 * 24 - 2 * 12;
            p[first_record] = 200;
        });
        let err = Artifact::from_bytes(&bad).unwrap_err();
        assert!(
            matches!(&err, ArtifactError::Malformed(m) if m.contains("unknown opcode 200")),
            "{err}"
        );
    }

    #[test]
    fn duplicate_variants_rejected() {
        let mut a = sq_artifact();
        a.programs.push(a.programs[0].clone());
        let payload_dup = std::panic::catch_unwind(|| a.to_bytes());
        assert!(payload_dup.is_err(), "encoder must refuse duplicates");
    }

    #[test]
    fn meta_must_be_first_and_wellformed() {
        // Hand-build a payload whose first section is PROG.
        let a = sq_artifact();
        let good = a.to_bytes();
        let payload = &good[HEADER_LEN..];
        // Parse section boundaries: META is first.
        let meta_len = u64::from_le_bytes(payload[4..12].try_into().unwrap()) as usize;
        let meta_end = 12 + meta_len;
        let mut swapped = Vec::new();
        swapped.extend_from_slice(&payload[meta_end..]); // PROG first
        swapped.extend_from_slice(&payload[..meta_end]); // META second
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        bytes.extend_from_slice(&(swapped.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&Sha256::digest(&swapped));
        bytes.extend_from_slice(&swapped);
        let err = Artifact::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(&err, ArtifactError::Malformed(m) if m.contains("before META")),
            "{err}"
        );
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let dir = std::env::temp_dir().join(format!("sga-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sq.sga");
        let a = sq_artifact();
        a.write_file(&path).unwrap();
        assert_eq!(Artifact::read_file(&path).unwrap(), a);
        assert!(matches!(
            Artifact::read_file(&dir.join("missing.sga")).unwrap_err(),
            ArtifactError::Io(_)
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
