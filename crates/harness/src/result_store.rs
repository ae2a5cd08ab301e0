//! Persistent on-disk simulation **result** store.
//!
//! The [`cbws_workloads::trace_store`] made trace *generation* incremental;
//! this module does the same for the simulations themselves. Every
//! `(workload, prefetcher, scale)` job the engine runs is a deterministic
//! pure function of (a) the workload's trace, (b) the prefetcher kind and
//! the full [`SystemConfig`], and (c) the simulator code — so its
//! [`RunRecord`] can be stored once and served forever, as long as the key
//! captures exactly those inputs. A hit skips the trace load *and* the
//! simulation; a miss simulates and persists. Repeated sweeps, interrupted
//! sweeps restarted with `--resume`, and CI reruns then pay only for the
//! jobs whose inputs actually changed.
//!
//! # Key
//!
//! The 64-bit key hash folds, in order:
//!
//! - the per-workload trace hash ([`cbws_workloads::trace_store::workload_hash`],
//!   the PR that introduced format v2's per-suite FNV scheme) — covers the
//!   DSL sources the trace is generated from,
//! - the scale code and workload name,
//! - the prefetcher kind name and the config hash ([`config_hash`], FNV
//!   over the serialized [`SystemConfig`]),
//! - the simulator-code version hash ([`sim_version_hash`], FNV over every
//!   source file of the replay + simulation stack, embedded at compile
//!   time via `include_str!`).
//!
//! Any edit to a kernel, a prefetcher, the core, the memory hierarchy, the
//! replay path, or the config in force changes the key hash; the stored
//! entry is then invalidated and regenerated on next access. Entries are
//! **content-addressed** by that key, not trusted by mtime or file name.
//!
//! # File format (version 3, little-endian)
//!
//! | field | size | contents |
//! |---|---|---|
//! | magic | 8 | `b"CBWSRSLT"` |
//! | format version | 4 | `u32`, currently 3 |
//! | key hash | 8 | FNV-1a key described above |
//! | payload checksum | 8 | [`checksum`] of the payload bytes |
//! | payload length | 8 | `u64` |
//! | payload | var | the [`RunRecord`], laid out below |
//!
//! The payload has a fixed layout, with every integer little-endian:
//!
//! | field | size | contents |
//! |---|---|---|
//! | `memory_intensive` | 1 | 0 or 1 |
//! | `cpu` | 6 × 8 | `CpuStats`' counters as `u64`, in declaration order |
//! | `mem` | 17 × 8 | `MemStats`' counters as `u64`, in declaration order |
//! | `workload` | 2 + n | `u16` byte length, then the UTF-8 name |
//! | `prefetcher` | 2 + n | `u16` byte length, then the UTF-8 name |
//!
//! An entry is ≈ 240 bytes (a version-1 entry held the record as JSON,
//! ≈ 580 bytes); the byte budget and the sweep server's per-client quotas
//! count the bytes actually written. The reader knows from the key how long
//! a valid payload is and which names it holds, so it checks the exact
//! length and compares both names with the key before it allocates
//! anything, and it rejects any other bytes with an error, never a panic.
//! The encoder and decoder destructure `RunRecord`, `CpuStats` and
//! `MemStats` without `..`: a field added to any of them fails to compile
//! until this layout and [`FORMAT_VERSION`] change with it. An entry of
//! another format version reads as version skew and is re-simulated once.
//!
//! One file per `(workload, scale, prefetcher, config hash)` under
//! `CBWS_RESULT_STORE_DIR` (default: `target/result-store/` of the
//! workspace) — the config hash in the name lets sensitivity sweeps that
//! revisit one `(workload, scale, prefetcher)` triple under many
//! configurations coexist instead of overwriting each other.
//!
//! Writing, the magic / version / key-hash prefix and the corrupt-equals-miss
//! rule are the [`store_file`] protocol the trace store shares: an entry is
//! written atomically (unique temporary file + rename), so a sweep killed
//! mid-write can never leave a torn entry — the property `--resume` relies
//! on — and an entry that fails any check is counted, removed and
//! re-simulated.
//!
//! # Byte budget and eviction
//!
//! `CBWS_RESULT_CACHE_BYTES` caps the store's total size (default 64 MiB).
//! After each write the store evicts oldest-modified entries first until it
//! is back under budget; a hit bumps the entry's mtime, so the order is
//! LRU. The entry just written is never evicted by its own write.
//!
//! # Telemetry
//!
//! `result_store.hit` / `.miss` / `.write` / `.invalidate` / `.evict`
//! counters plus `result_store.write_bytes` (the bytes each write adds,
//! which the sweep server's per-client quotas charge against),
//! `result_store.load_us` and `result_store.store_us`, and
//! `result.load` / `result.write` spans when a collector is attached.

use crate::runner::{PrefetcherKind, SystemConfig};
use cbws_sim_cpu::CpuStats;
use cbws_sim_mem::MemStats;
use cbws_stats::RunRecord;
use cbws_telemetry::{warn, Spans, Telemetry};
use cbws_workloads::trace_store::store_file::{
    self, fnv1a_fold, fnv1a_fold_named, invalid, scale_code, write_atomic, LoadError, Sinks,
    FNV_BASIS, PREFIX_LEN,
};
use cbws_workloads::trace_store::{checksum, workload_hash};
use cbws_workloads::{Scale, WorkloadSpec};
use std::fs::File;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Magic bytes opening every result-store file.
pub const MAGIC: &[u8; 8] = b"CBWSRSLT";

/// Current file-format version. Version 2 replaced the JSON record with
/// the fixed layout above; version 3 signs it with the word-at-a-time
/// [`checksum`] instead of byte-serial FNV-1a.
pub const FORMAT_VERSION: u32 = 3;

/// Environment variable selecting the store directory.
pub const DIR_ENV: &str = "CBWS_RESULT_STORE_DIR";

/// Environment variable capping the store's total size in bytes.
pub const BUDGET_ENV: &str = "CBWS_RESULT_CACHE_BYTES";

/// Default byte budget when [`BUDGET_ENV`] is unset: far above a full
/// sweep's footprint (an entry is ≈ 240 B, the full matrix is 210 entries
/// per scale), so eviction only engages when someone sweeps many configs.
pub const DEFAULT_BUDGET_BYTES: u64 = 64 * 1024 * 1024;

/// File extension of store entries.
const EXT: &str = "cbwsresult";

/// Every source file whose edit can change a simulation result given the
/// same packed trace: the replay path (`cbws-trace`), the simulated core
/// and memory system, every prefetcher, the CBWS predictor stack, and the
/// harness glue that drives them. Embedded at compile time so version skew
/// between a store and a binary is detected by content, not by guesswork.
const SIM_SOURCES: &[(&str, &str)] = &[
    ("harness/runner.rs", include_str!("runner.rs")),
    ("harness/dispatch.rs", include_str!("dispatch.rs")),
    ("harness/prefetched.rs", include_str!("prefetched.rs")),
    ("core/lib.rs", include_str!("../../core/src/lib.rs")),
    (
        "core/analysis.rs",
        include_str!("../../core/src/analysis.rs"),
    ),
    ("core/hybrid.rs", include_str!("../../core/src/hybrid.rs")),
    ("core/multi.rs", include_str!("../../core/src/multi.rs")),
    (
        "core/predictor.rs",
        include_str!("../../core/src/predictor.rs"),
    ),
    ("core/vector.rs", include_str!("../../core/src/vector.rs")),
    (
        "prefetchers/lib.rs",
        include_str!("../../prefetchers/src/lib.rs"),
    ),
    (
        "prefetchers/ampm.rs",
        include_str!("../../prefetchers/src/ampm.rs"),
    ),
    (
        "prefetchers/fdp.rs",
        include_str!("../../prefetchers/src/fdp.rs"),
    ),
    (
        "prefetchers/ghb.rs",
        include_str!("../../prefetchers/src/ghb.rs"),
    ),
    (
        "prefetchers/markov.rs",
        include_str!("../../prefetchers/src/markov.rs"),
    ),
    (
        "prefetchers/sms.rs",
        include_str!("../../prefetchers/src/sms.rs"),
    ),
    (
        "prefetchers/stems.rs",
        include_str!("../../prefetchers/src/stems.rs"),
    ),
    (
        "prefetchers/stride.rs",
        include_str!("../../prefetchers/src/stride.rs"),
    ),
    ("sim-cpu/lib.rs", include_str!("../../sim-cpu/src/lib.rs")),
    (
        "sim-cpu/branch.rs",
        include_str!("../../sim-cpu/src/branch.rs"),
    ),
    (
        "sim-cpu/config.rs",
        include_str!("../../sim-cpu/src/config.rs"),
    ),
    ("sim-cpu/core.rs", include_str!("../../sim-cpu/src/core.rs")),
    ("sim-mem/lib.rs", include_str!("../../sim-mem/src/lib.rs")),
    (
        "sim-mem/cache.rs",
        include_str!("../../sim-mem/src/cache.rs"),
    ),
    (
        "sim-mem/config.rs",
        include_str!("../../sim-mem/src/config.rs"),
    ),
    ("sim-mem/dram.rs", include_str!("../../sim-mem/src/dram.rs")),
    (
        "sim-mem/hierarchy.rs",
        include_str!("../../sim-mem/src/hierarchy.rs"),
    ),
    (
        "sim-mem/stats.rs",
        include_str!("../../sim-mem/src/stats.rs"),
    ),
    ("trace/lib.rs", include_str!("../../trace/src/lib.rs")),
    ("trace/addr.rs", include_str!("../../trace/src/addr.rs")),
    (
        "trace/builder.rs",
        include_str!("../../trace/src/builder.rs"),
    ),
    ("trace/event.rs", include_str!("../../trace/src/event.rs")),
    ("trace/packed.rs", include_str!("../../trace/src/packed.rs")),
    ("trace/stats.rs", include_str!("../../trace/src/stats.rs")),
    ("trace/varint.rs", include_str!("../../trace/src/varint.rs")),
    ("stats/lib.rs", include_str!("../../stats/src/lib.rs")),
];

/// FNV-1a hash over every simulator source file (framed by name, like
/// [`cbws_workloads::trace_store::workload_hash`]), folded once per
/// process. Two binaries agree on this hash exactly when they were built
/// from identical simulation sources.
pub fn sim_version_hash() -> u64 {
    static HASH: OnceLock<u64> = OnceLock::new();
    *HASH.get_or_init(|| {
        SIM_SOURCES
            .iter()
            .fold(FNV_BASIS, |h, (name, body)| fnv1a_fold_named(h, name, body))
    })
}

/// FNV-1a hash of a prefetcher kind + system configuration pair: the name
/// of the kind and the JSON form of the full [`SystemConfig`]. Sensitivity
/// sweeps that vary cache sizes or latencies therefore key their results
/// apart from the default configuration's.
pub fn config_hash(kind: PrefetcherKind, system: &SystemConfig) -> u64 {
    let json = serde_json::to_string(system).expect("SystemConfig serialization is infallible");
    fnv1a_fold_named(FNV_BASIS, kind.name(), &json)
}

/// The complete content address of one simulation result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultKey {
    /// The workload simulated.
    pub workload: &'static str,
    /// The scale it ran at.
    pub scale: Scale,
    /// The prefetcher kind simulated.
    pub kind: PrefetcherKind,
    trace_hash: u64,
    config_hash: u64,
}

impl ResultKey {
    /// The key for simulating `workload` at `scale` with `kind` under
    /// `system`.
    pub fn new(
        workload: &'static WorkloadSpec,
        scale: Scale,
        kind: PrefetcherKind,
        system: &SystemConfig,
    ) -> ResultKey {
        ResultKey::with_config_hash(workload, scale, kind, config_hash(kind, system))
    }

    /// [`ResultKey::new`] for a caller that already holds
    /// `config_hash(kind, system)`. Serializing the [`SystemConfig`] costs
    /// more than the rest of the key, so the engine hashes each kind once
    /// per sweep and builds every job's key from that.
    pub fn with_config_hash(
        workload: &'static WorkloadSpec,
        scale: Scale,
        kind: PrefetcherKind,
        config_hash: u64,
    ) -> ResultKey {
        ResultKey {
            workload: workload.name,
            scale,
            kind,
            trace_hash: workload_hash(workload),
            config_hash,
        }
    }

    /// The 64-bit content hash stored in (and verified against) the entry
    /// header. `salt` is XORed into the simulator-version component;
    /// always 0 outside tests.
    fn hash(&self, salt: u64) -> u64 {
        let mut h = self.trace_hash;
        h = fnv1a_fold(h, &[scale_code(self.scale)]);
        h = fnv1a_fold(h, self.workload.as_bytes());
        h = fnv1a_fold(h, &[0u8]);
        h = fnv1a_fold(h, self.kind.name().as_bytes());
        h = fnv1a_fold(h, &self.config_hash.to_le_bytes());
        fnv1a_fold(h, &(sim_version_hash() ^ salt).to_le_bytes())
    }

    /// The entry's file name, `<workload>-<scale>-<kind slug>-<config
    /// hash>.cbwsresult`, with the kind made filesystem-safe
    /// (`"CBWS+SMS"` → `cbws-sms`). The config hash lets entries for
    /// different [`SystemConfig`]s of the same `(workload, scale,
    /// prefetcher)` triple live in different files under one store
    /// directory. Every store access names its file, so the name is built
    /// in one pre-sized `String`.
    fn file_name(&self) -> String {
        use std::fmt::Write as _;
        let kind = self.kind.name();
        // The longest scale name is 5 bytes, the hash 16 hex digits, and
        // three dashes and a dot separate the parts.
        let mut name =
            String::with_capacity(self.workload.len() + 5 + kind.len() + 16 + 4 + EXT.len());
        let _ = write!(name, "{}-{}-", self.workload, self.scale);
        name.extend(kind.chars().map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        }));
        let _ = write!(name, "-{:016x}.{EXT}", self.config_hash);
        name
    }
}

/// Bytes before the payload: magic, format version, key hash, payload
/// checksum and payload length.
const HEADER_LEN: usize = PREFIX_LEN + 16;

/// Counters in a payload: `CpuStats`' 6, then `MemStats`' 17.
const COUNTERS: usize = 23;

/// The fixed part of a payload: the `memory_intensive` byte and the
/// counters.
const FIXED_LEN: usize = 1 + 8 * COUNTERS;

/// The exact payload length of the record for `workload` under
/// `prefetcher`.
fn payload_len(workload: &str, prefetcher: &str) -> usize {
    FIXED_LEN + 2 + workload.len() + 2 + prefetcher.len()
}

/// A record's counters in layout order. Destructured without `..`, so a
/// field added to either struct fails to compile here until the layout
/// changes with it.
fn counters(cpu: &CpuStats, mem: &MemStats) -> [u64; COUNTERS] {
    let CpuStats {
        cycles,
        instructions,
        mem_accesses,
        branches,
        mispredictions,
        block_cycles,
    } = *cpu;
    let MemStats {
        l1_accesses,
        l1_hits,
        l2_demand_accesses,
        plain_hits,
        timely,
        shorter_waiting_time,
        non_timely,
        missing,
        wrong,
        prefetch_enqueued,
        prefetch_dedup_dropped,
        prefetch_overflow_dropped,
        prefetch_issued,
        prefetch_fills,
        demand_fills,
        writebacks,
        pollution_evictions,
    } = *mem;
    [
        cycles,
        instructions,
        mem_accesses,
        branches,
        mispredictions,
        block_cycles,
        l1_accesses,
        l1_hits,
        l2_demand_accesses,
        plain_hits,
        timely,
        shorter_waiting_time,
        non_timely,
        missing,
        wrong,
        prefetch_enqueued,
        prefetch_dedup_dropped,
        prefetch_overflow_dropped,
        prefetch_issued,
        prefetch_fills,
        demand_fills,
        writebacks,
        pollution_evictions,
    ]
}

/// The inverse of [`counters`]. The struct literals name every field, so
/// a new one fails to compile here too; fields take the words in the
/// order they are written.
fn stats_from(words: [u64; COUNTERS]) -> (CpuStats, MemStats) {
    let mut words = words.into_iter();
    let mut next = || words.next().unwrap_or_default();
    let cpu = CpuStats {
        cycles: next(),
        instructions: next(),
        mem_accesses: next(),
        branches: next(),
        mispredictions: next(),
        block_cycles: next(),
    };
    let mem = MemStats {
        l1_accesses: next(),
        l1_hits: next(),
        l2_demand_accesses: next(),
        plain_hits: next(),
        timely: next(),
        shorter_waiting_time: next(),
        non_timely: next(),
        missing: next(),
        wrong: next(),
        prefetch_enqueued: next(),
        prefetch_dedup_dropped: next(),
        prefetch_overflow_dropped: next(),
        prefetch_issued: next(),
        prefetch_fills: next(),
        demand_fills: next(),
        writebacks: next(),
        pollution_evictions: next(),
    };
    (cpu, mem)
}

/// Decodes the payload of the entry for `workload` under `prefetcher`.
/// The length must be exactly that record's and both stored names must
/// equal the key's before anything is allocated; any other bytes are an
/// error, never a panic.
fn decode_record(
    payload: &[u8],
    workload: &str,
    prefetcher: &str,
) -> Result<RunRecord, &'static str> {
    if payload.len() != payload_len(workload, prefetcher) {
        return Err("payload length does not fit this key's record");
    }
    let (fixed, mut names) = payload.split_at(FIXED_LEN);
    for want in [workload, prefetcher] {
        let (len, rest) = names.split_first_chunk::<2>().ok_or("truncated name")?;
        let (name, rest) = rest
            .split_at_checked(usize::from(u16::from_le_bytes(*len)))
            .ok_or("name length runs past the payload")?;
        if name != want.as_bytes() {
            return Err("stored names do not match the key");
        }
        names = rest;
    }
    let memory_intensive = match fixed[0] {
        0 => false,
        1 => true,
        _ => return Err("memory_intensive byte is neither 0 nor 1"),
    };
    let mut words = [0u64; COUNTERS];
    for (word, bytes) in words.iter_mut().zip(fixed[1..].chunks_exact(8)) {
        *word = u64::from_le_bytes(bytes.try_into().expect("chunks of 8 bytes"));
    }
    let (cpu, mem) = stats_from(words);
    Ok(RunRecord {
        workload: workload.to_owned(),
        memory_intensive,
        prefetcher: prefetcher.to_owned(),
        cpu,
        mem,
    })
}

/// Parses and fully verifies a store file into the record it holds.
/// Returns the open handle too, so a hit can bump the entry's mtime
/// without opening the file a second time.
fn load_file(path: &Path, want_hash: u64, key: &ResultKey) -> Result<(RunRecord, File), LoadError> {
    let file = store_file::open(path)?;
    // A valid entry for this key has exactly one length. Reading one byte
    // past it tells an overlong file apart and bounds what any file can
    // make the reader allocate.
    let want_len = HEADER_LEN + payload_len(key.workload, key.kind.name());
    let mut bytes = Vec::with_capacity(want_len + 1);
    if let Err(e) = (&file).take(want_len as u64 + 1).read_to_end(&mut bytes) {
        return invalid(format!("unreadable: {e}"));
    }
    store_file::check_prefix(&bytes, MAGIC, FORMAT_VERSION, want_hash)?;
    let Some((header, payload)) = bytes.split_at_checked(HEADER_LEN) else {
        return invalid("truncated header");
    };
    let stored = u64::from_le_bytes(header[PREFIX_LEN..PREFIX_LEN + 8].try_into().unwrap());
    let payload_len = u64::from_le_bytes(header[PREFIX_LEN + 8..].try_into().unwrap());
    if u64::try_from(payload.len()) != Ok(payload_len) {
        return invalid(format!(
            "payload length {payload_len} disagrees with the {} bytes after the header",
            payload.len()
        ));
    }
    let got = checksum(payload);
    if got != stored {
        return invalid(format!(
            "payload checksum {got:#018x} != stored {stored:#018x}"
        ));
    }
    match decode_record(payload, key.workload, key.kind.name()) {
        Ok(record) => Ok((record, file)),
        Err(reason) => invalid(reason),
    }
}

/// Serializes a record into the current file bytes for `key_hash`. A
/// name longer than its `u16` length field can say is an error.
fn encode_file(key_hash: u64, record: &RunRecord) -> std::io::Result<Vec<u8>> {
    let RunRecord {
        workload,
        memory_intensive,
        prefetcher,
        cpu,
        mem,
    } = record;
    let len = payload_len(workload, prefetcher);
    let mut out = Vec::with_capacity(HEADER_LEN + len);
    store_file::push_prefix(&mut out, MAGIC, FORMAT_VERSION, key_hash);
    out.extend_from_slice(&[0; 8]); // checksum, filled in below
    out.extend_from_slice(&(len as u64).to_le_bytes());
    out.push(u8::from(*memory_intensive));
    for word in counters(cpu, mem) {
        out.extend_from_slice(&word.to_le_bytes());
    }
    for name in [workload, prefetcher] {
        let name_len = u16::try_from(name.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "name of {} bytes does not fit the record layout",
                    name.len()
                ),
            )
        })?;
        out.extend_from_slice(&name_len.to_le_bytes());
        out.extend_from_slice(name.as_bytes());
    }
    let signed = checksum(&out[HEADER_LEN..]);
    out[PREFIX_LEN..PREFIX_LEN + 8].copy_from_slice(&signed.to_le_bytes());
    Ok(out)
}

/// A persistent, content-addressed store of simulation results. See the
/// module docs for the key, format, and eviction policy.
///
/// Unlike the trace store there is **no in-process memoization**: a hit
/// always reads and re-verifies the file, so cached-sweep timings measure
/// the store, not a `HashMap`, and a concurrent writer's eviction can
/// never leave a stale record pinned in memory.
pub struct ResultStore {
    dir: PathBuf,
    /// Total-size cap in bytes; `None` disables eviction.
    budget: Option<u64>,
    /// XORed into the simulator-version component of every key hash;
    /// always 0 outside tests, which use it to simulate a binary built
    /// from different simulator sources.
    hash_salt: u64,
    sinks: Sinks,
    /// Running total of entry bytes on disk, so [`ResultStore::put`] can
    /// skip the directory walk while the store is under budget. `None`
    /// until first consulted; initialized from a scan, maintained
    /// incrementally by writes and invalidations, and refreshed from an
    /// authoritative re-scan whenever eviction engages.
    cached_bytes: Mutex<Option<u64>>,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("dir", &self.dir)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl ResultStore {
    /// A store over `dir` with the byte budget from [`BUDGET_ENV`]
    /// (default [`DEFAULT_BUDGET_BYTES`]; `0` disables eviction).
    pub fn at(dir: impl Into<PathBuf>) -> ResultStore {
        let budget = match std::env::var(BUDGET_ENV) {
            Ok(v) => match v.trim().parse::<u64>() {
                Ok(0) => None,
                Ok(n) => Some(n),
                Err(_) => {
                    warn!("[result_store] invalid {BUDGET_ENV}={v:?}; using default budget");
                    Some(DEFAULT_BUDGET_BYTES)
                }
            },
            Err(_) => Some(DEFAULT_BUDGET_BYTES),
        };
        ResultStore::with_budget(dir, budget)
    }

    /// A store over `dir` with an explicit byte budget (`None` disables
    /// eviction).
    pub fn with_budget(dir: impl Into<PathBuf>, budget: Option<u64>) -> ResultStore {
        ResultStore {
            dir: dir.into(),
            budget,
            hash_salt: 0,
            sinks: Sinks::new("result_store"),
            cached_bytes: Mutex::new(None),
        }
    }

    /// Test-only: a store whose key hashes simulate a binary built from
    /// different simulator sources (used by the property tests to exercise
    /// version-skew invalidation without editing source files).
    #[doc(hidden)]
    pub fn with_hash_salt(dir: impl Into<PathBuf>, salt: u64) -> ResultStore {
        let mut store = ResultStore::at(dir);
        store.hash_salt = salt;
        store
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The byte budget in force (`None` = unlimited).
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Routes the store's counters (`result_store.*`) to `telemetry`.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        self.sinks.set_telemetry(telemetry);
    }

    /// Routes the store's `result.*` spans to `spans`.
    pub fn set_spans(&self, spans: Spans) {
        self.sinks.set_spans(spans);
    }

    /// The file an entry for `key` lives in. Sized up front: `join` would
    /// copy the directory and then grow the copy.
    pub fn path_for(&self, key: &ResultKey) -> PathBuf {
        let name = key.file_name();
        let mut path = PathBuf::with_capacity(self.dir.as_os_str().len() + 1 + name.len());
        path.push(&self.dir);
        path.push(name);
        path
    }

    /// The stored record for `key`, fully verified, or `None` on a miss.
    /// An invalid entry (corruption, version/key skew) is removed, counted
    /// as `result_store.invalidate`, and reported as a miss so the caller
    /// regenerates it.
    pub fn get(&self, key: &ResultKey) -> Option<RunRecord> {
        let telemetry = self.sinks.telemetry();
        let spans = self.sinks.spans();
        let path = self.path_for(key);
        let started = Instant::now();
        let load_span = spans.begin("result.load");
        load_span
            .attr("workload", key.workload)
            .attr("prefetcher", key.kind.name());
        let loaded = load_file(&path, key.hash(self.hash_salt), key);
        drop(load_span);
        match loaded {
            Ok((record, file)) => {
                telemetry.count("result_store.hit", 1);
                telemetry.count("result_store.load_us", started.elapsed().as_micros() as u64);
                // LRU touch on the handle the load read through: a served
                // entry becomes the newest, so the byte-budget eviction
                // removes cold entries first. A failed touch (say, a
                // filesystem without settable times) only costs LRU order.
                let _ = file.set_modified(std::time::SystemTime::now());
                Some(record)
            }
            Err(LoadError::Missing) => {
                telemetry.count("result_store.miss", 1);
                None
            }
            Err(LoadError::Invalid(reason)) => {
                let removed = self.sinks.discard(&path, &reason);
                self.note_disk_change(removed, 0);
                None
            }
        }
    }

    /// Persists `record` under `key` (atomic write), then enforces the
    /// byte budget. Failure to write is reported but not fatal — the sweep
    /// just loses persistence for this entry.
    pub fn put(&self, key: &ResultKey, record: &RunRecord) {
        let telemetry = self.sinks.telemetry();
        let spans = self.sinks.spans();
        let path = self.path_for(key);
        let started = Instant::now();
        let write_span = spans.begin("result.write");
        write_span.attr("workload", key.workload);
        // Stat before the atomic rename: an overwrite replaces the old
        // entry, so the running total changes by (new - old), not new.
        let old_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let written = encode_file(key.hash(self.hash_salt), record).and_then(|bytes| {
            write_atomic(&path, &bytes)?;
            Ok(bytes.len() as u64)
        });
        match written {
            Ok(len) => {
                self.note_disk_change(old_len, len);
                telemetry.count("result_store.write", 1);
                telemetry.count("result_store.write_bytes", len);
                telemetry.count(
                    "result_store.store_us",
                    started.elapsed().as_micros() as u64,
                );
            }
            Err(e) => warn!(
                "[result_store] cannot write {}: {e}; continuing without persistence",
                path.display()
            ),
        }
        drop(write_span);
        self.enforce_budget(&path);
    }

    /// Adjusts the cached byte total for one entry shrinking by `removed`
    /// bytes and growing by `added` (an overwrite is both at once). A
    /// no-op until the cache has been initialized by a scan.
    fn note_disk_change(&self, removed: u64, added: u64) {
        let mut cached = self.cached_bytes.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(total) = cached.as_mut() {
            *total = total.saturating_sub(removed).saturating_add(added);
        }
    }

    /// Sum of entry bytes currently on disk (a full directory scan).
    fn scan_bytes(&self) -> u64 {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == EXT))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    /// Evicts oldest-modified entries until the store is back under its
    /// byte budget. `just_wrote` is exempt so a write can never evict its
    /// own entry.
    ///
    /// While the store is under budget this consults only the in-process
    /// running total ([`ResultStore::note_disk_change`]) — no directory
    /// walk per write. The total is initialized from a scan on the first
    /// call, and whenever eviction engages the directory is re-scanned
    /// authoritatively (a concurrent process may have added or removed
    /// entries behind this one's back) and the cache refreshed from the
    /// post-eviction state.
    fn enforce_budget(&self, just_wrote: &Path) {
        let Some(budget) = self.budget else {
            return;
        };
        let mut cached = self.cached_bytes.lock().unwrap_or_else(|e| e.into_inner());
        let running = match *cached {
            Some(total) => total,
            None => {
                let total = self.scan_bytes();
                *cached = Some(total);
                total
            }
        };
        if running <= budget {
            return;
        }
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf, u64)> = entries
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == EXT))
            .filter_map(|e| {
                let meta = e.metadata().ok()?;
                let mtime = meta.modified().ok()?;
                Some((mtime, e.path(), meta.len()))
            })
            .collect();
        let mut total: u64 = files.iter().map(|(_, _, len)| len).sum();
        if total > budget {
            let telemetry = self.sinks.telemetry();
            files.sort();
            for (_, path, len) in files {
                if total <= budget {
                    break;
                }
                if path == just_wrote {
                    continue;
                }
                if std::fs::remove_file(&path).is_ok() {
                    telemetry.count("result_store.evict", 1);
                    total = total.saturating_sub(len);
                }
            }
        }
        *cached = Some(total);
    }
}

/// The process-wide store. Directory comes from `CBWS_RESULT_STORE_DIR`;
/// unset falls back to the workspace's `target/result-store/`.
pub fn shared() -> &'static ResultStore {
    static SHARED: OnceLock<ResultStore> = OnceLock::new();
    SHARED.get_or_init(|| ResultStore::at(store_file::store_dir(DIR_ENV, "result-store")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Simulator;
    use cbws_workloads::by_name;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique per-test scratch directory (no tempfile dependency).
    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cbws-result-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn counter(t: &Telemetry, path: &str) -> u64 {
        t.with_metrics(|m| m.counter(path).unwrap_or(0)).unwrap()
    }

    fn simulate(workload: &'static WorkloadSpec, kind: PrefetcherKind) -> RunRecord {
        let sim = Simulator::new(SystemConfig::default());
        let trace = cbws_workloads::trace_store::shared().get(workload, Scale::Tiny);
        sim.run(workload.name, true, &*trace, kind)
    }

    #[test]
    fn miss_then_hit_round_trips() {
        let dir = scratch_dir("hit");
        let w = by_name("stencil-default").unwrap();
        let key = ResultKey::new(
            w,
            Scale::Tiny,
            PrefetcherKind::Sms,
            &SystemConfig::default(),
        );
        let telemetry = Telemetry::enabled_default();
        let store = ResultStore::at(&dir);
        store.set_telemetry(telemetry.clone());

        assert!(store.get(&key).is_none());
        assert_eq!(counter(&telemetry, "result_store.miss"), 1);

        let record = simulate(w, PrefetcherKind::Sms);
        store.put(&key, &record);
        assert_eq!(counter(&telemetry, "result_store.write"), 1);

        let loaded = store.get(&key).expect("stored entry must hit");
        assert_eq!(counter(&telemetry, "result_store.hit"), 1);
        assert_eq!(loaded, record, "stored record must round-trip identically");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sim_version_skew_invalidates() {
        let dir = scratch_dir("simskew");
        let w = by_name("nw").unwrap();
        let key = ResultKey::new(
            w,
            Scale::Tiny,
            PrefetcherKind::None,
            &SystemConfig::default(),
        );
        let record = simulate(w, PrefetcherKind::None);
        ResultStore::at(&dir).put(&key, &record);

        let telemetry = Telemetry::enabled_default();
        let skewed = ResultStore::with_hash_salt(&dir, 1);
        skewed.set_telemetry(telemetry.clone());
        assert!(skewed.get(&key).is_none());
        assert_eq!(counter(&telemetry, "result_store.invalidate"), 1);
        // The invalid file was removed: the next access is a plain miss.
        assert!(skewed.get(&key).is_none());
        assert_eq!(counter(&telemetry, "result_store.miss"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn configs_coexist_under_distinct_files() {
        let dir = scratch_dir("config");
        let w = by_name("nw").unwrap();
        let kind = PrefetcherKind::Stride;
        let default_key = ResultKey::new(w, Scale::Tiny, kind, &SystemConfig::default());
        let mut bigger = SystemConfig::default();
        bigger.mem.l2.size_bytes *= 2;
        let bigger_key = ResultKey::new(w, Scale::Tiny, kind, &bigger);
        assert_ne!(
            default_key.hash(0),
            bigger_key.hash(0),
            "config must be part of the key"
        );

        let store = ResultStore::at(&dir);
        assert_ne!(
            store.path_for(&default_key),
            store.path_for(&bigger_key),
            "the config hash must be part of the file name"
        );
        // A sensitivity sweep revisiting one (workload, scale, prefetcher)
        // triple under two configs: both entries must survive side by side.
        let default_record = simulate(w, kind);
        store.put(&default_key, &default_record);
        let bigger_record = {
            let sim = Simulator::new(bigger);
            let trace = cbws_workloads::trace_store::shared().get(w, Scale::Tiny);
            sim.run(w.name, true, &*trace, kind)
        };
        store.put(&bigger_key, &bigger_record);

        let telemetry = Telemetry::enabled_default();
        store.set_telemetry(telemetry.clone());
        assert_eq!(store.get(&default_key), Some(default_record));
        assert_eq!(store.get(&bigger_key), Some(bigger_record));
        assert_eq!(counter(&telemetry, "result_store.hit"), 2);
        assert_eq!(counter(&telemetry, "result_store.invalidate"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_invalidates() {
        let dir = scratch_dir("corrupt");
        let w = by_name("nw").unwrap();
        let key = ResultKey::new(
            w,
            Scale::Tiny,
            PrefetcherKind::FdpSms,
            &SystemConfig::default(),
        );
        let store = ResultStore::at(&dir);
        store.put(&key, &simulate(w, PrefetcherKind::FdpSms));
        let path = store.path_for(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01; // flip one payload bit
        std::fs::write(&path, &bytes).unwrap();

        let telemetry = Telemetry::enabled_default();
        store.set_telemetry(telemetry.clone());
        assert!(store.get(&key).is_none());
        assert_eq!(counter(&telemetry, "result_store.invalidate"), 1);
        assert!(!path.exists(), "invalid entry must be removed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_evicts_oldest_first_and_spares_fresh_write() {
        let dir = scratch_dir("budget");
        let w = by_name("stencil-default").unwrap();
        let kinds = [
            PrefetcherKind::None,
            PrefetcherKind::Stride,
            PrefetcherKind::Sms,
            PrefetcherKind::GhbPcDc,
        ];
        let records: Vec<RunRecord> = kinds.iter().map(|&k| simulate(w, k)).collect();
        let keys: Vec<ResultKey> = kinds
            .iter()
            .map(|&k| ResultKey::new(w, Scale::Tiny, k, &SystemConfig::default()))
            .collect();
        let entry_len = encode_file(keys[0].hash(0), &records[0]).unwrap().len() as u64;

        // Budget for roughly two entries.
        let telemetry = Telemetry::enabled_default();
        let store = ResultStore::with_budget(&dir, Some(entry_len * 5 / 2));
        store.set_telemetry(telemetry.clone());
        for (i, (key, record)) in keys.iter().zip(&records).enumerate() {
            store.put(key, record);
            // Deterministic LRU order regardless of filesystem timestamp
            // granularity: backdate each entry by its write order.
            let f = File::options()
                .append(true)
                .open(store.path_for(key))
                .unwrap();
            f.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(i as u64 + 1))
                .unwrap();
        }
        // Re-run eviction with a fresh write: oldest entries go first, the
        // newest (and the just-written file) survive.
        store.put(&keys[3], &records[3]);
        assert!(counter(&telemetry, "result_store.evict") >= 1);
        assert!(
            !store.path_for(&keys[0]).exists(),
            "oldest entry must be evicted first"
        );
        assert!(
            store.path_for(&keys[3]).exists(),
            "the just-written entry must survive its own write"
        );
        let total: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(total <= entry_len * 5 / 2, "store must end under budget");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A hit bumps the served entry's mtime, so eviction takes the entry
    /// that was never read before the older one that was just served.
    #[test]
    fn hits_refresh_lru_order() {
        let dir = scratch_dir("lruhit");
        let w = by_name("stencil-default").unwrap();
        let kinds = [
            PrefetcherKind::None,
            PrefetcherKind::Stride,
            PrefetcherKind::Sms,
        ];
        let records: Vec<RunRecord> = kinds.iter().map(|&k| simulate(w, k)).collect();
        let keys: Vec<ResultKey> = kinds
            .iter()
            .map(|&k| ResultKey::new(w, Scale::Tiny, k, &SystemConfig::default()))
            .collect();
        let entry_len = encode_file(keys[0].hash(0), &records[0]).unwrap().len() as u64;
        let telemetry = Telemetry::enabled_default();
        let store = ResultStore::with_budget(&dir, Some(entry_len * 5 / 2));
        store.set_telemetry(telemetry.clone());
        let mtime = |key: &ResultKey| {
            std::fs::metadata(store.path_for(key))
                .unwrap()
                .modified()
                .unwrap()
        };
        let backdated = |secs| std::time::UNIX_EPOCH + std::time::Duration::from_secs(secs);
        // keys[0] is the oldest entry, keys[1] the newer one; neither read.
        for (i, (key, record)) in keys[..2].iter().zip(&records).enumerate() {
            store.put(key, record);
            File::options()
                .append(true)
                .open(store.path_for(key))
                .unwrap()
                .set_modified(backdated(i as u64 + 1))
                .unwrap();
        }
        assert_eq!(store.get(&keys[0]).as_ref(), Some(&records[0]));
        assert!(
            mtime(&keys[0]) > backdated(1000),
            "a hit must refresh the mtime"
        );
        assert_eq!(mtime(&keys[1]), backdated(2), "no other entry is touched");
        // A third entry overflows the budget: the unread entry goes first.
        store.put(&keys[2], &records[2]);
        assert_eq!(counter(&telemetry, "result_store.evict"), 1);
        assert!(
            store.path_for(&keys[0]).exists(),
            "the served entry survives"
        );
        assert!(
            !store.path_for(&keys[1]).exists(),
            "the unread entry goes first"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A read-only entry is still served; bumping its mtime may or may not
    /// succeed depending on ownership and privileges, and either way the
    /// hit stands.
    #[test]
    fn read_only_entry_is_still_a_hit() {
        let dir = scratch_dir("readonly");
        let w = by_name("nw").unwrap();
        let key = ResultKey::new(
            w,
            Scale::Tiny,
            PrefetcherKind::Stride,
            &SystemConfig::default(),
        );
        let record = simulate(w, PrefetcherKind::Stride);
        let telemetry = Telemetry::enabled_default();
        let store = ResultStore::at(&dir);
        store.set_telemetry(telemetry.clone());
        store.put(&key, &record);
        let path = store.path_for(&key);
        let mut perms = std::fs::metadata(&path).unwrap().permissions();
        perms.set_readonly(true);
        std::fs::set_permissions(&path, perms).unwrap();
        assert_eq!(store.get(&key), Some(record));
        assert_eq!(counter(&telemetry, "result_store.hit"), 1);
        assert_eq!(counter(&telemetry, "result_store.invalidate"), 0);
        assert!(path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The in-process running byte total that lets `put` skip the per-write
    /// directory walk must agree with an authoritative fresh scan after
    /// every mutation: under-budget writes, an overwrite, eviction, and
    /// invalidation-driven removal.
    #[test]
    fn cached_byte_total_matches_fresh_scan() {
        let dir = scratch_dir("cachedbytes");
        let w = by_name("stencil-default").unwrap();
        let kinds = [
            PrefetcherKind::None,
            PrefetcherKind::Stride,
            PrefetcherKind::Sms,
            PrefetcherKind::GhbPcDc,
        ];
        let records: Vec<RunRecord> = kinds.iter().map(|&k| simulate(w, k)).collect();
        let keys: Vec<ResultKey> = kinds
            .iter()
            .map(|&k| ResultKey::new(w, Scale::Tiny, k, &SystemConfig::default()))
            .collect();
        let entry_len = encode_file(keys[0].hash(0), &records[0]).unwrap().len() as u64;
        let store = ResultStore::with_budget(&dir, Some(entry_len * 5 / 2));
        let cached = |s: &ResultStore| s.cached_bytes.lock().unwrap().expect("initialized");
        for (key, record) in keys.iter().zip(&records) {
            store.put(key, record);
            assert_eq!(cached(&store), store.scan_bytes(), "after put {key:?}");
        }
        // Eviction engaged above (4 entries, budget ~2.5): the cache was
        // refreshed from the post-eviction re-scan.
        assert!(cached(&store) <= entry_len * 5 / 2);
        // Overwriting an existing entry charges (new - old), not new.
        store.put(&keys[3], &records[3]);
        assert_eq!(cached(&store), store.scan_bytes(), "after overwrite");
        // Invalidation-driven removal is subtracted too.
        let path = store.path_for(&keys[3]);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.get(&keys[3]).is_none());
        assert_eq!(cached(&store), store.scan_bytes(), "after invalidation");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_are_stable_and_distinct() {
        let a = by_name("stencil-default").unwrap();
        let b = by_name("nw").unwrap();
        let cfg = SystemConfig::default();
        let ka = ResultKey::new(a, Scale::Tiny, PrefetcherKind::Sms, &cfg);
        assert_eq!(ka.hash(0), ka.hash(0));
        assert_ne!(
            ka.hash(0),
            ResultKey::new(b, Scale::Tiny, PrefetcherKind::Sms, &cfg).hash(0)
        );
        assert_ne!(
            ka.hash(0),
            ResultKey::new(a, Scale::Small, PrefetcherKind::Sms, &cfg).hash(0)
        );
        assert_ne!(
            ka.hash(0),
            ResultKey::new(a, Scale::Tiny, PrefetcherKind::Cbws, &cfg).hash(0)
        );
        assert_ne!(sim_version_hash(), 0);
    }

    #[test]
    fn store_accesses_emit_spans() {
        let dir = scratch_dir("spans");
        let w = by_name("nw").unwrap();
        let key = ResultKey::new(
            w,
            Scale::Tiny,
            PrefetcherKind::Ampm,
            &SystemConfig::default(),
        );
        let spans = Spans::enabled();
        let store = ResultStore::at(&dir);
        store.set_spans(spans.clone());
        store.get(&key); // miss
        store.put(&key, &simulate(w, PrefetcherKind::Ampm));
        store.get(&key); // hit
        let records = spans.records();
        let count = |name: &str| records.iter().filter(|r| r.name == name).count();
        assert_eq!(count("result.load"), 2);
        assert_eq!(count("result.write"), 1);
        assert!(records.iter().all(|r| r.dur_us.is_some()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// File names are the version-1 store's, byte for byte, for every
    /// workload, kind and scale: a store directory keeps its layout.
    #[test]
    fn file_names_are_unchanged() {
        let store = ResultStore::at("store");
        let system = SystemConfig::default();
        let kinds = PrefetcherKind::ALL
            .into_iter()
            .chain(PrefetcherKind::EXTENDED);
        let mut names = 0;
        for kind in kinds {
            let config = config_hash(kind, &system);
            for w in cbws_workloads::ALL {
                for scale in [Scale::Tiny, Scale::Small, Scale::Full, Scale::Huge] {
                    let key = ResultKey::with_config_hash(w, scale, kind, config);
                    let slug: String = kind
                        .name()
                        .chars()
                        .map(|c| {
                            if c.is_ascii_alphanumeric() {
                                c.to_ascii_lowercase()
                            } else {
                                '-'
                            }
                        })
                        .collect();
                    let old = format!("{}-{}-{}-{:016x}.cbwsresult", w.name, scale, slug, config);
                    assert_eq!(store.path_for(&key), Path::new("store").join(old));
                    names += 1;
                }
            }
        }
        assert_eq!(names, 30 * 12 * 4);
    }

    /// Entries in older layouts read as version skew: the engine discards
    /// each, re-simulates once, and rewrites it in the current layout.
    /// Version 1 held the record as JSON; version 2 held today's layout
    /// under a byte-serial FNV-1a checksum.
    #[test]
    fn older_entries_are_resimulated_and_rewritten() {
        use crate::engine::{Engine, EngineConfig, ResultCache};
        use std::sync::Arc;

        let w = by_name("nw").unwrap();
        let kind = PrefetcherKind::Sms;
        let key = ResultKey::new(w, Scale::Tiny, kind, &SystemConfig::default());
        let fresh = simulate(w, kind);
        let entry = |version: u32, payload: &[u8]| {
            let mut out = Vec::new();
            store_file::push_prefix(&mut out, MAGIC, version, key.hash(0));
            out.extend_from_slice(&fnv1a_fold(FNV_BASIS, payload).to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out
        };
        let json = serde_json::to_string(&fresh).unwrap().into_bytes();
        let current = encode_file(key.hash(0), &fresh).unwrap();
        let v1 = entry(1, &json);
        let v2 = entry(2, &current[HEADER_LEN..]);

        for (version, old) in [(1, v1), (2, v2)] {
            let dir = scratch_dir(&format!("v{version}"));
            let store = Arc::new(ResultStore::at(&dir));
            let path = store.path_for(&key);
            write_atomic(&path, &old).unwrap();

            match load_file(&path, key.hash(0), &key) {
                Err(LoadError::Invalid(reason)) => {
                    assert!(
                        reason.starts_with(&format!("format version {version},")),
                        "{reason}"
                    )
                }
                Err(LoadError::Missing) => panic!("the version-{version} entry was not found"),
                Ok(_) => panic!("a version-{version} entry was served"),
            }

            // The engine routes the store's counters to its own sink.
            let telemetry = Telemetry::enabled_default();
            let run = Engine::new(EngineConfig {
                jobs: 1,
                telemetry: telemetry.clone(),
                result_cache: ResultCache::At(store.clone()),
                ..EngineConfig::default()
            })
            .run(Scale::Tiny, &[w], &[kind]);
            assert_eq!(run.records, vec![fresh.clone()]);
            assert_eq!(run.store_misses(), 1);
            assert_eq!(counter(&telemetry, "result_store.invalidate"), 1);
            assert_eq!(counter(&telemetry, "result_store.write"), 1);

            assert_eq!(std::fs::read(&path).unwrap(), current);
            assert_eq!(store.get(&key), Some(fresh.clone()));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
