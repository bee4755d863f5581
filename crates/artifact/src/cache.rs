//! The on-disk content-addressed compile cache.
//!
//! `safegen run file.c` pays front-end + mid-end cost on every
//! invocation even when the source has not changed. The cache removes
//! that: compilation outputs are stored as `.sga` artifacts keyed by a
//! hash of everything that determines them — the source text, the
//! compile options, and the artifact format version — so a repeat
//! compile is a single file read plus the artifact validator.
//!
//! The key is a SHA-256 over **length-prefixed** parts (a raw
//! concatenation would let `("ab","c")` and `("a","bc")` collide), and
//! the stored artifact carries its own content hash in the header, so a
//! corrupted cache entry fails validation on load and is treated as a
//! miss rather than ever being executed.
//!
//! The cache directory is `$SAFEGEN_CACHE_DIR` when set, else
//! `.safegen-cache/` under the current directory. Writes are atomic
//! (temp file + rename) so concurrent compiles never observe a torn
//! entry.
//!
//! The cache is **bounded**: after every store, entries are evicted
//! oldest-first (by modification time; hits refresh it, making the
//! order LRU-ish) until the directory is back under
//! `$SAFEGEN_CACHE_CAP_BYTES` (default 256 MiB; `0` disables the cap).
//! Eviction is best-effort — a failure to remove an old entry never
//! fails the store.

use crate::hash::Sha256;
use crate::{Artifact, ArtifactError, FORMAT_VERSION};
use safegen_telemetry as telemetry;
use safegen_telemetry::json::Json;
use safegen_telemetry::metrics::metrics;
#[cfg(feature = "os")]
use std::path::Path;
use std::path::PathBuf;

/// Records a `cache.lookup`/`cache.store` JSONL event (when the recorder
/// is enabled) carrying the key prefix and outcome — and, like every
/// event, the active request id, which is how a request's cache outcome
/// shows up in its trace.
fn cache_event(kind: &str, key: &str, outcome: &str) {
    if telemetry::enabled() {
        telemetry::record(
            kind,
            vec![
                ("key", Json::from(&key[..key.len().min(12)])),
                ("outcome", Json::from(outcome)),
            ],
        );
    }
}

/// Rescans the cache directory and sets the entry-count and byte-size
/// gauges. Called after stores and evictions (never on the lookup path).
#[cfg(feature = "os")]
fn refresh_gauges(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut count = 0i64;
    let mut bytes = 0i64;
    for e in entries.flatten() {
        let path = e.path();
        if path.extension().is_none_or(|x| x != "sga") {
            continue;
        }
        if let Ok(meta) = e.metadata() {
            count += 1;
            bytes += meta.len() as i64;
        }
    }
    let m = metrics();
    m.cache.entries.set(count);
    m.cache.bytes.set(bytes);
}

/// Environment variable overriding the cache directory.
pub const CACHE_DIR_ENV: &str = "SAFEGEN_CACHE_DIR";

/// The default cache directory name (under the current directory).
pub const DEFAULT_CACHE_DIR: &str = ".safegen-cache";

/// Environment variable overriding the cache size cap in bytes
/// (`0` = unlimited).
pub const CACHE_CAP_ENV: &str = "SAFEGEN_CACHE_CAP_BYTES";

/// Default cache size cap: 256 MiB.
pub const DEFAULT_CACHE_CAP_BYTES: u64 = 256 << 20;

/// The cache size cap currently in effect (`None` = unlimited).
pub fn cache_cap_bytes() -> Option<u64> {
    let cap = match std::env::var(CACHE_CAP_ENV) {
        Ok(v) if !v.is_empty() => v.parse().unwrap_or(DEFAULT_CACHE_CAP_BYTES),
        _ => DEFAULT_CACHE_CAP_BYTES,
    };
    (cap != 0).then_some(cap)
}

/// The cache directory currently in effect.
pub fn cache_dir() -> PathBuf {
    match std::env::var_os(CACHE_DIR_ENV) {
        Some(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(DEFAULT_CACHE_DIR),
    }
}

/// Derives the cache key for a compilation: SHA-256 (hex) over the
/// length-prefixed source text and option strings, bound to the artifact
/// [`FORMAT_VERSION`] so a format bump invalidates every old entry.
///
/// ```
/// use safegen_artifact::cache::compile_key;
/// let k1 = compile_key("double f() { return 1.0; }", &["k=8"]);
/// let k2 = compile_key("double f() { return 2.0; }", &["k=8"]);
/// let k3 = compile_key("double f() { return 1.0; }", &["k=16"]);
/// assert_ne!(k1, k2); // source changes the key
/// assert_ne!(k1, k3); // options change the key
/// assert_eq!(k1, compile_key("double f() { return 1.0; }", &["k=8"]));
/// ```
pub fn compile_key(source: &str, options: &[&str]) -> String {
    let mut h = Sha256::new();
    let mut part = |bytes: &[u8]| {
        h.update(&(bytes.len() as u64).to_le_bytes());
        h.update(bytes);
    };
    part(b"safegen-compile-key");
    part(&FORMAT_VERSION.to_le_bytes());
    part(source.as_bytes());
    for opt in options {
        part(opt.as_bytes());
    }
    Sha256::hex(&h.finish())
}

/// The path a given key's artifact is stored at.
pub fn entry_path(key: &str) -> PathBuf {
    cache_dir().join(format!("{key}.sga"))
}

/// Looks up `key`, returning the cached artifact when present **and**
/// valid. A missing file is a miss; a file that fails artifact
/// validation (torn write, truncation, stale format, bit rot) is also
/// treated as a miss — the caller recompiles and overwrites it. A hit
/// refreshes the entry's modification time so the eviction order
/// approximates least-recently-used rather than least-recently-written.
pub fn load(key: &str) -> Option<Artifact> {
    #[cfg(not(feature = "os"))]
    {
        // No filesystem without an OS: every lookup is a (counted) miss.
        metrics().cache.misses.inc();
        cache_event("cache.lookup", key, "miss");
        None
    }
    #[cfg(feature = "os")]
    {
        let m = metrics();
        let path = entry_path(key);
        if !path.exists() {
            m.cache.misses.inc();
            cache_event("cache.lookup", key, "miss");
            return None;
        }
        match Artifact::read_file(&path) {
            Ok(artifact) => {
                m.cache.hits.inc();
                cache_event("cache.lookup", key, "hit");
                touch(&path);
                Some(artifact)
            }
            Err(_) => {
                // Present but invalid: count the corruption *and* the miss
                // (every lookup is exactly one hit or one miss).
                m.cache.corrupt.inc();
                m.cache.misses.inc();
                cache_event("cache.lookup", key, "corrupt");
                None
            }
        }
    }
}

/// Best-effort mtime refresh on a cache hit.
#[cfg(feature = "os")]
fn touch(path: &Path) {
    if let Ok(f) = std::fs::OpenOptions::new().append(true).open(path) {
        let _ = f.set_modified(std::time::SystemTime::now());
    }
}

/// Stores `artifact` under `key`, creating the cache directory on first
/// use. The write is atomic, so concurrent stores of the same key are
/// safe (last writer wins, both writers produced identical bytes). The
/// store then evicts oldest entries beyond the size cap (see
/// [`cache_cap_bytes`]); the entry just written is never evicted.
///
/// # Errors
///
/// [`ArtifactError::Io`] when the directory cannot be created or the
/// file cannot be written; callers may ignore it (a cold cache is only
/// a performance loss, never a correctness one). Eviction failures are
/// swallowed entirely.
pub fn store(key: &str, artifact: &Artifact) -> Result<(), ArtifactError> {
    #[cfg(not(feature = "os"))]
    {
        // No filesystem without an OS: a cold cache is only a
        // performance loss, so the store silently succeeds as a no-op.
        let _ = (key, artifact);
        Ok(())
    }
    #[cfg(feature = "os")]
    {
        let dir = cache_dir();
        std::fs::create_dir_all(&dir)
            .map_err(|e| ArtifactError::Io(format!("create {}: {e}", dir.display())))?;
        artifact.write_file(&entry_path(key))?;
        if let Some(cap) = cache_cap_bytes() {
            let evicted = evict_to_cap(&dir, cap, key);
            metrics().cache.evictions.add(evicted);
        }
        refresh_gauges(&dir);
        cache_event("cache.store", key, "stored");
        Ok(())
    }
}

/// Removes `.sga` entries oldest-first until the directory's total entry
/// size is within `cap`, returning how many entries were removed.
/// `keep_key`'s entry is exempt, so a store always lands even when the
/// artifact alone exceeds the cap. Entirely best-effort: unreadable
/// metadata or a failed remove just skips that entry.
#[cfg(feature = "os")]
fn evict_to_cap(dir: &Path, cap: u64, keep_key: &str) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let keep_name = format!("{keep_key}.sga");
    // (mtime, path, size), `.sga` files only.
    let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
        .flatten()
        .filter_map(|e| {
            let path = e.path();
            if path.extension().is_none_or(|x| x != "sga") {
                return None;
            }
            let meta = e.metadata().ok()?;
            Some((meta.modified().ok()?, path, meta.len()))
        })
        .collect();
    let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
    if total <= cap {
        return 0;
    }
    // Oldest first; path as the tiebreaker keeps the order deterministic
    // on filesystems with coarse mtime granularity.
    files.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    let mut removed = 0u64;
    for (_, path, len) in files {
        if total <= cap {
            break;
        }
        if path.file_name().is_some_and(|n| n == keep_name.as_str()) {
            continue;
        }
        if std::fs::remove_file(&path).is_ok() {
            total = total.saturating_sub(len);
            removed += 1;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArtifactMeta, ProgramVariant, VariantKind};
    use safegen_cfront::Span;
    use safegen_ir::cfg::ParamBinding;
    use safegen_ir::{FixedInstr, OpCode, Program};

    fn tiny_artifact() -> Artifact {
        Artifact {
            meta: ArtifactMeta::new("t.c"),
            programs: vec![ProgramVariant {
                func: "t".into(),
                kind: VariantKind::Plain,
                program: Program {
                    name: "t".into(),
                    code: vec![FixedInstr::new(OpCode::Ret, 0, 0, 0)],
                    fpool: vec![],
                    ipool: vec![],
                    n_fregs: 1,
                    n_iregs: 0,
                    arrays: vec![],
                    params: vec![("x".into(), ParamBinding::Float(0))],
                    spans: vec![Span::default()],
                },
            }],
        }
    }

    /// Serializes env mutation: tests in this module all touch
    /// `SAFEGEN_CACHE_DIR`.
    fn with_cache_dir<R>(f: impl FnOnce(&std::path::Path) -> R) -> R {
        use std::sync::Mutex;
        static ENV_LOCK: Mutex<()> = Mutex::new(());
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join(format!(
            "sga-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::env::set_var(CACHE_DIR_ENV, &dir);
        let r = f(&dir);
        std::env::remove_var(CACHE_DIR_ENV);
        let _ = std::fs::remove_dir_all(&dir);
        r
    }

    #[test]
    fn store_then_load_round_trips() {
        with_cache_dir(|_| {
            let a = tiny_artifact();
            let key = compile_key("double t(double x) { return x; }", &[]);
            assert!(load(&key).is_none(), "cold cache must miss");
            store(&key, &a).unwrap();
            assert_eq!(load(&key).unwrap(), a);
        });
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        with_cache_dir(|_| {
            let a = tiny_artifact();
            let key = compile_key("src", &["opt"]);
            store(&key, &a).unwrap();
            let path = entry_path(&key);
            let mut bytes = std::fs::read(&path).unwrap();
            *bytes.last_mut().unwrap() ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            assert!(load(&key).is_none(), "corrupt entry must read as a miss");
        });
    }

    #[test]
    fn truncated_entry_is_a_miss_and_overwritten() {
        with_cache_dir(|_| {
            let a = tiny_artifact();
            let key = compile_key("src-trunc", &[]);
            store(&key, &a).unwrap();
            let path = entry_path(&key);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            assert!(load(&key).is_none(), "truncated entry must read as a miss");
            // The caller's recompile-and-store path overwrites it cleanly.
            store(&key, &a).unwrap();
            assert_eq!(load(&key).unwrap(), a);
        });
    }

    /// Sets the cache cap for the duration of `f` (call only inside
    /// `with_cache_dir`, which holds the env lock).
    fn with_cache_cap<R>(cap: u64, f: impl FnOnce() -> R) -> R {
        std::env::set_var(CACHE_CAP_ENV, cap.to_string());
        let r = f();
        std::env::remove_var(CACHE_CAP_ENV);
        r
    }

    fn set_mtime(key: &str, secs_ago: u64) {
        let t = std::time::SystemTime::now() - std::time::Duration::from_secs(secs_ago);
        let f = std::fs::OpenOptions::new()
            .append(true)
            .open(entry_path(key))
            .unwrap();
        f.set_modified(t).unwrap();
    }

    #[test]
    fn store_evicts_oldest_entries_beyond_the_cap() {
        with_cache_dir(|_| {
            let a = tiny_artifact();
            let (k1, k2, k3) = (
                compile_key("one", &[]),
                compile_key("two", &[]),
                compile_key("three", &[]),
            );
            store(&k1, &a).unwrap();
            store(&k2, &a).unwrap();
            let size = std::fs::metadata(entry_path(&k1)).unwrap().len();
            set_mtime(&k1, 300); // oldest
            set_mtime(&k2, 200);
            // Two entries fit under the cap; storing a third overflows
            // it and must evict exactly the oldest.
            with_cache_cap(2 * size, || store(&k3, &a).unwrap());
            assert!(load(&k1).is_none(), "oldest entry must be evicted");
            assert!(load(&k2).is_some());
            assert!(load(&k3).is_some(), "the just-stored entry survives");
        });
    }

    #[test]
    fn cache_hits_refresh_the_eviction_order() {
        with_cache_dir(|_| {
            let a = tiny_artifact();
            let (k1, k2, k3) = (
                compile_key("one", &[]),
                compile_key("two", &[]),
                compile_key("three", &[]),
            );
            store(&k1, &a).unwrap();
            store(&k2, &a).unwrap();
            let size = std::fs::metadata(entry_path(&k1)).unwrap().len();
            set_mtime(&k1, 300);
            set_mtime(&k2, 200);
            // A hit on the older entry moves it to the back of the
            // eviction queue, so the overflow evicts k2 instead.
            assert!(load(&k1).is_some());
            with_cache_cap(2 * size, || store(&k3, &a).unwrap());
            assert!(load(&k1).is_some(), "recently-hit entry survives");
            assert!(load(&k2).is_none(), "now-oldest entry is evicted");
            assert!(load(&k3).is_some());
        });
    }

    #[test]
    fn just_stored_entry_is_never_evicted() {
        with_cache_dir(|_| {
            let a = tiny_artifact();
            let key = compile_key("solo", &[]);
            // Cap smaller than a single artifact: the store must still
            // land (the cap only bounds *other* entries).
            with_cache_cap(1, || store(&key, &a).unwrap());
            assert!(load(&key).is_some());
        });
    }

    #[test]
    fn lookups_and_stores_move_the_cache_metrics() {
        with_cache_dir(|_| {
            let m = &metrics().cache;
            let (hits0, misses0, corrupt0) = (m.hits.get(), m.misses.get(), m.corrupt.get());
            let a = tiny_artifact();
            let key = compile_key("metrics-src", &[]);

            assert!(load(&key).is_none());
            assert_eq!(m.misses.get(), misses0 + 1, "cold lookup counts a miss");

            store(&key, &a).unwrap();
            assert!(load(&key).is_some());
            assert_eq!(m.hits.get(), hits0 + 1, "warm lookup counts a hit");

            // Corrupt the entry: the lookup counts both corrupt and miss.
            let path = entry_path(&key);
            let mut bytes = std::fs::read(&path).unwrap();
            *bytes.last_mut().unwrap() ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            assert!(load(&key).is_none());
            assert_eq!(m.corrupt.get(), corrupt0 + 1);
            assert_eq!(m.misses.get(), misses0 + 2);

            // Gauges reflect the directory contents after a store.
            store(&key, &a).unwrap();
            assert!(m.entries.get() >= 1, "entry gauge set after store");
            assert!(m.bytes.get() > 0, "byte gauge set after store");
        });
    }

    #[test]
    fn evictions_are_counted() {
        with_cache_dir(|_| {
            let m = &metrics().cache;
            let evictions0 = m.evictions.get();
            let a = tiny_artifact();
            let (k1, k2) = (compile_key("ev-one", &[]), compile_key("ev-two", &[]));
            store(&k1, &a).unwrap();
            let size = std::fs::metadata(entry_path(&k1)).unwrap().len();
            set_mtime(&k1, 300);
            with_cache_cap(size, || store(&k2, &a).unwrap());
            assert!(load(&k1).is_none(), "k1 must have been evicted");
            assert_eq!(m.evictions.get(), evictions0 + 1);
        });
    }

    #[test]
    fn key_parts_do_not_concatenate_ambiguously() {
        // Length prefixing: shifting a byte between parts changes the key.
        assert_ne!(compile_key("ab", &["c"]), compile_key("a", &["bc"]));
        assert_ne!(compile_key("x", &["y", "z"]), compile_key("x", &["yz"]));
    }
}
