//! Property tests for the persistent result store, mirroring the trace
//! store's `trace_store_properties.rs`:
//!
//! * any single-bit corruption of a stored entry is caught (header checks
//!   or payload checksum), counted as an invalidation, and survived — the
//!   caller re-simulates and the regenerated entry round-trips;
//! * byte-budget eviction removes oldest-modified entries first and never
//!   the entry just written;
//! * a simulator-version or prefetcher-config hash change invalidates the
//!   stored entry instead of serving it;
//! * the record reader turns arbitrary bytes into a miss, never a panic:
//!   truncation at every offset, a payload length that lies, random
//!   payloads under a valid checksum (so the decoder itself must reject
//!   them), trailing bytes and names that disagree with the key;
//! * random records round-trip through the store unchanged.

use cbws_harness::result_store::{ResultKey, ResultStore};
use cbws_harness::{PrefetcherKind, Simulator, SystemConfig};
use cbws_sim_cpu::CpuStats;
use cbws_sim_mem::MemStats;
use cbws_stats::RunRecord;
use cbws_telemetry::Telemetry;
use cbws_workloads::trace_store::checksum;
use cbws_workloads::{by_name, Scale, WorkloadSpec};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bytes before an entry's payload: magic, version, key hash, checksum
/// and payload length.
const HEADER_LEN: usize = 36;

fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "cbws-result-prop-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn counter(t: &Telemetry, path: &str) -> u64 {
    t.with_metrics(|m| m.counter(path).unwrap_or(0)).unwrap()
}

/// The reference record, simulated once per process (each proptest case
/// only exercises the store, not the simulator).
fn reference(w: &'static WorkloadSpec, kind: PrefetcherKind) -> RunRecord {
    static RECORD: OnceLock<RunRecord> = OnceLock::new();
    RECORD
        .get_or_init(|| {
            let sim = Simulator::new(SystemConfig::default());
            let trace = cbws_workloads::trace_store::shared().get(w, Scale::Tiny);
            sim.run(w.name, true, &*trace, kind)
        })
        .clone()
}

/// The key the arbitrary-byte cases read under, and a valid entry for it.
fn valid_entry() -> &'static (ResultKey, Vec<u8>) {
    static ENTRY: OnceLock<(ResultKey, Vec<u8>)> = OnceLock::new();
    ENTRY.get_or_init(|| {
        let w = by_name("nw").unwrap();
        let kind = PrefetcherKind::Sms;
        let key = ResultKey::new(w, Scale::Tiny, kind, &SystemConfig::default());
        let dir = scratch_dir();
        let store = ResultStore::at(&dir);
        store.put(&key, &reference(w, kind));
        let bytes = std::fs::read(store.path_for(&key)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (key, bytes)
    })
}

/// `payload` under the valid entry's header with its checksum and length
/// made to match, so only the record decoder can reject it.
fn reframed(payload: &[u8]) -> Vec<u8> {
    let (_, entry) = valid_entry();
    let mut out = entry[..20].to_vec();
    out.extend_from_slice(&checksum(payload).to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What a fresh store makes of `bytes` stored as the entry for `key`:
/// the record it served, the invalidations it counted, and whether the
/// file is still there afterwards.
fn read_back(key: &ResultKey, bytes: &[u8]) -> (Option<RunRecord>, u64, bool) {
    let dir = scratch_dir();
    let store = ResultStore::at(&dir);
    let path = store.path_for(key);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(&path, bytes).unwrap();
    let telemetry = Telemetry::enabled_default();
    store.set_telemetry(telemetry.clone());
    let served = store.get(key);
    let invalidations = counter(&telemetry, "result_store.invalidate");
    let survived = path.exists();
    let _ = std::fs::remove_dir_all(&dir);
    (served, invalidations, survived)
}

/// `bytes` stored as the valid entry's file must be a counted, removed
/// miss.
fn assert_rejected(bytes: &[u8], what: &str) -> Result<(), TestCaseError> {
    let (key, _) = valid_entry();
    let (served, invalidations, survived) = read_back(key, bytes);
    prop_assert!(served.is_none(), "{} was served", what);
    prop_assert_eq!(invalidations, 1, "{}", what);
    prop_assert!(!survived, "{} was not removed", what);
    Ok(())
}

/// The valid entry with its payload-length field set to `len`.
fn with_length(len: u64) -> Vec<u8> {
    let mut bytes = valid_entry().1.clone();
    bytes[28..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    bytes
}

#[test]
fn valid_entry_is_served() {
    let (key, bytes) = valid_entry();
    let (served, invalidations, survived) = read_back(key, bytes);
    assert_eq!(
        served,
        Some(reference(by_name("nw").unwrap(), PrefetcherKind::Sms))
    );
    assert_eq!(invalidations, 0);
    assert!(survived);
}

/// Re-signing the valid payload reproduces the valid entry, so the cases
/// built with [`reframed`] pass the checksum and reach the decoder.
#[test]
fn reframing_signs_like_the_store() {
    let (_, entry) = valid_entry();
    assert_eq!(&reframed(&entry[HEADER_LEN..]), entry);
}

#[test]
fn truncation_at_every_offset_is_rejected() {
    let (_, bytes) = valid_entry();
    for cut in 0..bytes.len() {
        assert_rejected(&bytes[..cut], &format!("an entry cut at byte {cut}")).unwrap();
    }
}

#[test]
fn extreme_lengths_and_flag_bytes_are_rejected() {
    let payload_len = (valid_entry().1.len() - HEADER_LEN) as u64;
    for len in [0, payload_len - 1, payload_len + 1, u64::MAX / 2, u64::MAX] {
        assert_rejected(&with_length(len), &format!("payload length {len}")).unwrap();
    }
    // The `memory_intensive` byte is 0 or 1; anything else is not a record.
    let mut payload = valid_entry().1[HEADER_LEN..].to_vec();
    for flag in [2u8, 0x80, 0xff] {
        payload[0] = flag;
        assert_rejected(&reframed(&payload), &format!("flag byte {flag}")).unwrap();
    }
}

proptest! {
    #[test]
    fn lying_payload_length_is_rejected(delta in 1u64..4096, past_the_end in any::<bool>()) {
        let payload_len = (valid_entry().1.len() - HEADER_LEN) as u64;
        let len = if past_the_end {
            payload_len + delta
        } else {
            payload_len.saturating_sub(delta)
        };
        assert_rejected(&with_length(len), &format!("payload length {len}"))?;
    }

    #[test]
    fn random_payloads_are_rejected_by_the_decoder(
        payload in collection::vec(any::<u8>(), 0..512),
    ) {
        assert_rejected(&reframed(&payload), "a random payload")?;
    }

    #[test]
    fn trailing_bytes_are_rejected(junk in collection::vec(any::<u8>(), 1..64)) {
        let mut payload = valid_entry().1[HEADER_LEN..].to_vec();
        payload.extend_from_slice(&junk);
        assert_rejected(&reframed(&payload), "a payload with trailing bytes")?;
    }

    /// A record whose names disagree with its key, written through the
    /// store itself so header, checksum and length are all valid.
    #[test]
    fn names_that_disagree_with_the_key_are_rejected(
        which in 0u8..3,
        pos in any::<usize>(),
        byte in 0x21u8..0x7f,
        grow in 0usize..3,
    ) {
        let (key, _) = valid_entry();
        let mut record = reference(by_name("nw").unwrap(), PrefetcherKind::Sms);
        let alter = |name: &mut String| {
            let mut bytes = name.clone().into_bytes();
            let at = pos % bytes.len();
            bytes[at] = if bytes[at] == byte { byte ^ 0x01 } else { byte };
            bytes.extend(std::iter::repeat_n(b'x', grow));
            *name = String::from_utf8(bytes).unwrap();
        };
        if which != 1 {
            alter(&mut record.workload);
        }
        if which != 0 {
            alter(&mut record.prefetcher);
        }
        let dir = scratch_dir();
        ResultStore::at(&dir).put(key, &record);
        let bytes = std::fs::read(ResultStore::at(&dir).path_for(key)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        let what = format!("names {:?} / {:?}", record.workload, record.prefetcher);
        assert_rejected(&bytes, &what)?;
    }

    #[test]
    fn random_records_round_trip(
        workload in 0usize..30,
        kind in 0usize..12,
        memory_intensive in any::<bool>(),
        words in collection::vec(any::<u64>(), 23..24),
    ) {
        let w = &cbws_workloads::ALL[workload];
        let kind = PrefetcherKind::ALL
            .into_iter()
            .chain(PrefetcherKind::EXTENDED)
            .nth(kind)
            .unwrap();
        let record = RunRecord {
            workload: w.name.to_string(),
            memory_intensive,
            prefetcher: kind.name().to_string(),
            cpu: CpuStats {
                cycles: words[0],
                instructions: words[1],
                mem_accesses: words[2],
                branches: words[3],
                mispredictions: words[4],
                block_cycles: words[5],
            },
            mem: MemStats {
                l1_accesses: words[6],
                l1_hits: words[7],
                l2_demand_accesses: words[8],
                plain_hits: words[9],
                timely: words[10],
                shorter_waiting_time: words[11],
                non_timely: words[12],
                missing: words[13],
                wrong: words[14],
                prefetch_enqueued: words[15],
                prefetch_dedup_dropped: words[16],
                prefetch_overflow_dropped: words[17],
                prefetch_issued: words[18],
                prefetch_fills: words[19],
                demand_fills: words[20],
                writebacks: words[21],
                pollution_evictions: words[22],
            },
        };
        let key = ResultKey::new(w, Scale::Small, kind, &SystemConfig::default());
        let dir = scratch_dir();
        ResultStore::at(&dir).put(&key, &record);
        let telemetry = Telemetry::enabled_default();
        let fresh = ResultStore::at(&dir);
        fresh.set_telemetry(telemetry.clone());
        let served = fresh.get(&key);
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(served, Some(record));
        prop_assert_eq!(counter(&telemetry, "result_store.hit"), 1);
    }

    #[test]
    fn single_bit_flip_is_detected_and_survived(pos in any::<usize>(), bit in 0u8..8) {
        let dir = scratch_dir();
        let w = by_name("nw").unwrap();
        let kind = PrefetcherKind::Sms;
        let key = ResultKey::new(w, Scale::Tiny, kind, &SystemConfig::default());
        let pristine = reference(w, kind);

        // Seed the store file, then corrupt exactly one bit anywhere.
        let store = ResultStore::at(&dir);
        store.put(&key, &pristine);
        let path = store.path_for(&key);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        // A fresh store (= fresh process) must reject the file, count the
        // invalidation, remove it, and accept a regenerated entry.
        let telemetry = Telemetry::enabled_default();
        let fresh = ResultStore::at(&dir);
        fresh.set_telemetry(telemetry.clone());
        let served = fresh.get(&key);
        let invalidations = counter(&telemetry, "result_store.invalidate");
        let hits = counter(&telemetry, "result_store.hit");
        // Invalidate-and-regenerate: the caller re-simulates and persists.
        fresh.put(&key, &pristine);
        let recovered = fresh.get(&key);

        let _ = std::fs::remove_dir_all(&dir);

        prop_assert!(served.is_none(), "flip at byte {} bit {} served a corrupt entry", at, bit);
        prop_assert_eq!(invalidations, 1, "flip at byte {} bit {} not detected", at, bit);
        prop_assert_eq!(hits, 0);
        prop_assert!(!path.exists() || recovered.is_some());
        prop_assert_eq!(recovered, Some(pristine));
    }

    #[test]
    fn eviction_removes_oldest_first(keep in 1usize..4) {
        let dir = scratch_dir();
        let w = by_name("nw").unwrap();
        let record = reference(w, PrefetcherKind::Sms);
        let kinds = [
            PrefetcherKind::None,
            PrefetcherKind::Stride,
            PrefetcherKind::GhbPcDc,
            PrefetcherKind::Sms,
        ];
        let keys: Vec<ResultKey> = kinds
            .iter()
            .map(|&k| ResultKey::new(w, Scale::Tiny, k, &SystemConfig::default()))
            .collect();

        // Write all entries unbudgeted with mtimes backdated by write
        // order, so LRU age is deterministic.
        let seed = ResultStore::with_budget(&dir, None);
        let mut entry_len = 0u64;
        for (i, key) in keys.iter().enumerate() {
            seed.put(key, &record);
            let path = seed.path_for(key);
            entry_len = std::fs::metadata(&path).unwrap().len();
            let f = std::fs::File::options().append(true).open(&path).unwrap();
            f.set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_secs(i as u64 + 1))
                .unwrap();
        }

        // A budget of `keep` entries (+ slack below one entry) must evict
        // exactly the oldest `4 - keep`, keeping the newest ones.
        let telemetry = Telemetry::enabled_default();
        let budgeted = ResultStore::with_budget(&dir, Some(entry_len * keep as u64 + entry_len / 2));
        budgeted.set_telemetry(telemetry.clone());
        // Re-write the newest entry: its fresh mtime keeps it newest, and
        // the write triggers budget enforcement.
        budgeted.put(&keys[3], &record);
        let evictions = counter(&telemetry, "result_store.evict");
        let survivors: Vec<bool> = keys.iter().map(|k| budgeted.path_for(k).exists()).collect();

        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(evictions as usize, 4 - keep, "survivors: {:?}", survivors);
        for (i, alive) in survivors.iter().enumerate() {
            // Entries 0..4-keep are the oldest and must be gone; the rest
            // (including the just-rewritten newest) must survive.
            prop_assert_eq!(*alive, i >= 4 - keep, "entry {} (survivors {:?})", i, survivors);
        }
    }

    #[test]
    fn version_or_config_skew_invalidates(salt in 1u64..u64::MAX) {
        let dir = scratch_dir();
        let w = by_name("nw").unwrap();
        let kind = PrefetcherKind::Sms;
        let key = ResultKey::new(w, Scale::Tiny, kind, &SystemConfig::default());
        let record = reference(w, kind);
        ResultStore::at(&dir).put(&key, &record);

        // Simulator-version skew: any non-zero salt models a binary built
        // from different simulation sources. The entry must be rejected.
        let telemetry = Telemetry::enabled_default();
        let skewed = ResultStore::with_hash_salt(&dir, salt);
        skewed.set_telemetry(telemetry.clone());
        let served = skewed.get(&key);
        let invalidations = counter(&telemetry, "result_store.invalidate");

        // Prefetcher-config skew: same store and binary, different
        // SystemConfig — the key hash differs, so the (re-seeded) default
        // entry must not be served for the changed config.
        let reseeded = ResultStore::at(&dir);
        reseeded.put(&key, &record);
        let mut bigger = SystemConfig::default();
        bigger.mem.l2.size_bytes *= 2;
        let bigger_key = ResultKey::new(w, Scale::Tiny, kind, &bigger);
        let cross = reseeded.get(&bigger_key);

        let _ = std::fs::remove_dir_all(&dir);

        prop_assert!(served.is_none(), "version-skewed entry was served (salt {})", salt);
        prop_assert_eq!(invalidations, 1);
        prop_assert!(cross.is_none(), "config-skewed entry was served");
    }
}
