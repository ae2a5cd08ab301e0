//! Property test: any single-bit corruption of a stored trace file is
//! caught by the header checks, the footer checksum or a frame checksum,
//! and the store falls back to regeneration — same trace out, no panic.
//! Truncation at every offset and lying footer entries are unit-tested
//! beside the reader in `trace_store.rs`.

use cbws_telemetry::Telemetry;
use cbws_workloads::trace_store::TraceStore;
use cbws_workloads::{by_name, Scale};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "cbws-store-prop-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #[test]
    fn single_bit_flip_is_detected_and_survived(pos in any::<usize>(), bit in 0u8..8) {
        let dir = scratch_dir();
        let w = by_name("nw").unwrap();

        // Seed the store file.
        let store = TraceStore::at(&dir);
        let pristine = store.get(w, Scale::Tiny).to_trace();
        let path = std::fs::read_dir(&dir)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();

        // Corrupt exactly one bit anywhere in the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        // A fresh store (= fresh process) must reject the file, count the
        // invalidation, and serve the regenerated trace.
        let telemetry = Telemetry::enabled_default();
        let fresh = TraceStore::at(&dir);
        fresh.set_telemetry(telemetry.clone());
        let recovered = fresh.get(w, Scale::Tiny).to_trace();
        let invalidations = telemetry
            .with_metrics(|m| m.counter("trace_store.invalidate").unwrap_or(0))
            .unwrap();
        let hits = telemetry
            .with_metrics(|m| m.counter("trace_store.hit").unwrap_or(0))
            .unwrap();

        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(invalidations, 1, "flip at byte {} bit {} not detected", at, bit);
        prop_assert_eq!(hits, 0);
        prop_assert_eq!(recovered, pristine);
    }
}
