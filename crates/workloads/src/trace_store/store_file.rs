//! The file protocol shared by the trace store and the result store.
//!
//! Each store keeps one file per key and serves it only while the inputs
//! that produced it are unchanged. Both do so the same way, and this module
//! holds the one copy of each step:
//!
//! * **Write.** [`write_atomic_with`] writes into a temporary file named
//!   after the target plus the process id and a process-wide sequence
//!   number, `sync_all`s it and renames it over the target. A failure at
//!   any step removes the temporary file, so the target holds either its
//!   old bytes or the new ones, and two writers of one key never share a
//!   temporary file. [`write_atomic`] is the same for a byte slice.
//! * **Check.** Every store file opens with the same 20-byte prefix: an
//!   8-byte magic, a `u32` format version and the `u64` key hash
//!   ([`push_prefix`], [`check_prefix`]). What follows is the store's own.
//! * **Discard.** A file that is absent is [`LoadError::Missing`]; one that
//!   exists but fails any check is [`LoadError::Invalid`]. An invalid file
//!   is never served: [`Sinks::discard`] counts `<store>.invalidate`, warns
//!   with the reason, and removes the file, and the caller rebuilds it as
//!   on a miss. Corruption, version skew and key skew are all the same
//!   miss.
//!
//! It also holds the pieces both stores key and configure with: the FNV-1a
//! folds ([`fnv1a_fold`], [`fnv1a_fold_named`]), the scale's byte code
//! ([`scale_code`]), the telemetry and span sinks ([`Sinks`]) and the
//! directory lookup behind both `shared()` stores ([`store_dir`]). FNV-1a
//! names a file; the bytes inside it are checked with
//! [`cbws_trace::checksum`].

use crate::Scale;
use cbws_telemetry::{warn, Spans, Telemetry};
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bytes of the prefix every store file opens with: magic, format version
/// and key hash.
pub const PREFIX_LEN: usize = 20;

/// The FNV-1a offset basis: the hash of no bytes.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `h`.
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds one named blob into the FNV-1a state `h`: the name, a NUL, then
/// the body, so content moving between blobs still changes the hash.
pub fn fnv1a_fold_named(h: u64, name: &str, body: &str) -> u64 {
    let h = fnv1a_fold(fnv1a_fold(h, name.as_bytes()), &[0]);
    fnv1a_fold(h, body.as_bytes())
}

/// The byte a scale is stored and hashed as.
pub fn scale_code(scale: Scale) -> u8 {
    match scale {
        Scale::Tiny => 0,
        Scale::Small => 1,
        Scale::Full => 2,
        Scale::Huge => 3,
    }
}

/// Writes `path` through `write`, atomically: `write` fills a fresh
/// temporary file beside `path` and hands it back with its result, which
/// is then synced and renamed over `path` (creating the parent directory
/// first). On any error the temporary file is removed and `path` is left
/// as it was. The file moves by value because a streaming writer may need
/// to own it for `'static`.
pub fn write_atomic_with<T>(
    path: &Path,
    write: impl FnOnce(File) -> io::Result<(File, T)>,
) -> io::Result<T> {
    // Unique per write, not just per process: two stores on one directory
    // may write the same key at once, and a shared temporary file would let
    // one writer truncate the other's.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = File::create(&tmp)
        .and_then(write)
        .and_then(|(file, value)| {
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, path)?;
            Ok(value)
        });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// [`write_atomic_with`] for bytes already in memory.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_atomic_with(path, |mut file| {
        file.write_all(bytes)?;
        Ok((file, ()))
    })
}

/// Appends the store-file prefix to `out`.
pub fn push_prefix(out: &mut Vec<u8>, magic: &[u8; 8], version: u32, key_hash: u64) {
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&key_hash.to_le_bytes());
}

/// Checks that `bytes` open with the prefix [`push_prefix`] writes for
/// `magic`, `version` and `key_hash`.
pub fn check_prefix(
    bytes: &[u8],
    magic: &[u8; 8],
    version: u32,
    key_hash: u64,
) -> Result<(), LoadError> {
    let Some(prefix) = bytes.first_chunk::<PREFIX_LEN>() else {
        return invalid("truncated header");
    };
    let (file_magic, rest) = prefix.split_at(8);
    let (file_version, file_hash) = rest.split_at(4);
    if file_magic != magic {
        return invalid("bad magic");
    }
    let file_version = u32::from_le_bytes(file_version.try_into().expect("4 bytes"));
    if file_version != version {
        return invalid(format!(
            "format version {file_version}, this binary writes {version}"
        ));
    }
    let file_hash = u64::from_le_bytes(file_hash.try_into().expect("8 bytes"));
    if file_hash != key_hash {
        return invalid(format!(
            "key hash {file_hash:#018x} does not match this binary's {key_hash:#018x} \
             (the sources or the config it depends on changed)"
        ));
    }
    Ok(())
}

/// Why a stored file could not be served.
#[derive(Debug)]
pub enum LoadError {
    /// No file yet: a plain miss.
    Missing,
    /// The file exists but is invalid for this key and binary (corruption,
    /// version skew, key skew). The reason is human-readable.
    Invalid(String),
}

/// An [`LoadError::Invalid`] error for `reason`.
pub fn invalid<T>(reason: impl Into<String>) -> Result<T, LoadError> {
    Err(LoadError::Invalid(reason.into()))
}

/// Opens a store file for reading: a file that is not there is
/// [`LoadError::Missing`], one that cannot be opened is invalid.
pub fn open(path: &Path) -> Result<File, LoadError> {
    match File::open(path) {
        Ok(f) => Ok(f),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Err(LoadError::Missing),
        Err(e) => invalid(format!("unreadable: {e}")),
    }
}

/// A store's telemetry and span sinks. Either can be swapped after the
/// store is built; clones share the sinks, so a handle that outlives a
/// call reports to whatever sink is current when it reports.
#[derive(Clone)]
pub struct Sinks {
    /// Prefix of the store's counters, e.g. `"trace_store"`.
    store: &'static str,
    telemetry: Arc<Mutex<Telemetry>>,
    spans: Arc<Mutex<Spans>>,
}

impl Sinks {
    /// Disabled sinks for the store whose counters start with `store`.
    pub fn new(store: &'static str) -> Sinks {
        Sinks {
            store,
            telemetry: Arc::default(),
            spans: Arc::default(),
        }
    }

    /// Routes the store's counters to `telemetry`.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        *self.telemetry.lock().unwrap_or_else(|e| e.into_inner()) = telemetry;
    }

    /// Routes the store's spans to `spans`.
    pub fn set_spans(&self, spans: Spans) {
        *self.spans.lock().unwrap_or_else(|e| e.into_inner()) = spans;
    }

    /// The current counter sink.
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The current span sink.
    pub fn spans(&self) -> Spans {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The one rule for a file that failed its checks: count
    /// `<store>.invalidate`, warn with `reason`, and remove the file.
    /// Returns the bytes removed (0 when the removal failed).
    pub fn discard(&self, path: &Path, reason: &str) -> u64 {
        self.telemetry()
            .count(&format!("{}.invalidate", self.store), 1);
        warn!(
            "[{}] discarding {}: {reason}; rebuilding it",
            self.store,
            path.display()
        );
        let len = std::fs::metadata(path).map_or(0, |m| m.len());
        match std::fs::remove_file(path) {
            Ok(()) => len,
            Err(_) => 0,
        }
    }
}

/// The directory of a process-wide store: `$env` when set, else `default`
/// under the workspace's `target/`.
pub fn store_dir(env: &str, default: &str) -> PathBuf {
    std::env::var_os(env).map(PathBuf::from).unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join(default)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cbws-store-file-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Names in `dir` that look like a temporary file of an atomic write.
    fn temp_files(dir: &Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp."))
            .collect()
    }

    /// Crash consistency of the one write path under both stores: a writer
    /// that fails after any number of bytes, or a rename that fails, leaves
    /// the old entry exactly as it was and no temporary file behind; a
    /// write that completes leaves the new bytes.
    #[test]
    fn failed_writes_keep_the_old_entry_and_leave_no_temp_file() {
        let dir = scratch_dir("crash");
        let path = dir.join("entry.cbwsresult");
        let old = b"the old entry, complete and valid".to_vec();
        let new: Vec<u8> = (0..=255u8).rev().collect();
        std::fs::write(&path, &old).unwrap();

        for cut in 0..=new.len() {
            let result = write_atomic_with(&path, |mut file| {
                file.write_all(&new[..cut])?;
                Err::<(File, ()), _>(io::Error::other("writer failed"))
            });
            assert!(result.is_err(), "cut at {cut}");
            assert_eq!(std::fs::read(&path).unwrap(), old, "cut at {cut}");
            assert_eq!(temp_files(&dir), Vec::<String>::new(), "cut at {cut}");
        }

        // A rename onto a non-empty directory fails after the temporary
        // file is complete and synced.
        let blocked = dir.join("blocked.cbwsresult");
        std::fs::create_dir(&blocked).unwrap();
        std::fs::write(blocked.join("inside"), &old).unwrap();
        assert!(write_atomic(&blocked, &new).is_err());
        assert_eq!(std::fs::read(blocked.join("inside")).unwrap(), old);
        assert_eq!(temp_files(&dir), Vec::<String>::new());

        write_atomic(&path, &new).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), new);
        assert_eq!(temp_files(&dir), Vec::<String>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prefix_round_trips_and_every_field_is_checked() {
        let mut bytes = Vec::new();
        push_prefix(&mut bytes, b"CBWSTEST", 7, 0xfeed);
        assert_eq!(bytes.len(), PREFIX_LEN);
        assert!(check_prefix(&bytes, b"CBWSTEST", 7, 0xfeed).is_ok());
        let reason = |r: Result<(), LoadError>| match r {
            Err(LoadError::Invalid(reason)) => reason,
            other => panic!("expected an invalid prefix, got {other:?}"),
        };
        assert_eq!(
            reason(check_prefix(&bytes, b"CBWSELSE", 7, 0xfeed)),
            "bad magic"
        );
        assert!(
            reason(check_prefix(&bytes, b"CBWSTEST", 8, 0xfeed)).starts_with("format version 7,")
        );
        assert!(reason(check_prefix(&bytes, b"CBWSTEST", 7, 0xbeef)).starts_with("key hash"));
        for len in 0..PREFIX_LEN {
            assert_eq!(
                reason(check_prefix(&bytes[..len], b"CBWSTEST", 7, 0xfeed)),
                "truncated header"
            );
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a_fold(FNV_BASIS, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_fold(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_fold(FNV_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn discard_counts_warns_and_removes() {
        let dir = scratch_dir("discard");
        let path = dir.join("bad.cbwstrace");
        std::fs::write(&path, b"12345").unwrap();
        let sinks = Sinks::new("test_store");
        let telemetry = Telemetry::enabled_default();
        sinks.set_telemetry(telemetry.clone());
        assert_eq!(sinks.discard(&path, "bad magic"), 5);
        assert!(!path.exists());
        assert_eq!(sinks.discard(&path, "gone already"), 0);
        let invalidations = telemetry
            .with_metrics(|m| m.counter("test_store.invalidate").unwrap_or(0))
            .unwrap();
        assert_eq!(invalidations, 2);
        assert!(matches!(open(&path), Err(LoadError::Missing)));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
