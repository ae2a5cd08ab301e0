//! Property-based tests (proptest) over the core data structures and the
//! memory hierarchy, checked against reference models.

use cbws_repro::core::{CbwsConfig, CbwsPredictor, CbwsVec, Differential};
use cbws_repro::sim_mem::{Cache, CacheConfig, HierarchyConfig, MemoryHierarchy};
use cbws_repro::trace::{Addr, BlockId, LineAddr};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// Eq. 1: a CBWS is a set — observing any sequence yields unique lines
    /// in first-touch order, bounded by capacity.
    #[test]
    fn cbws_uniqueness_and_order(lines in proptest::collection::vec(0u64..64, 0..120)) {
        let mut ws = CbwsVec::new(16);
        let mut reference = Vec::new();
        for &l in &lines {
            let line = LineAddr(l);
            let fresh = !reference.contains(&line) && reference.len() < 16;
            prop_assert_eq!(ws.observe(line), fresh);
            if fresh {
                reference.push(line);
            }
        }
        prop_assert_eq!(ws.lines(), &reference[..]);
        prop_assert!(ws.len() <= 16);
    }

    /// Eq. 2: Δ(A,B) = −Δ(B,A), and both align to the shorter vector.
    #[test]
    fn differential_antisymmetry(
        a in proptest::collection::vec(0u64..100_000, 1..16),
        b in proptest::collection::vec(0u64..100_000, 1..16),
    ) {
        let mk = |v: &[u64]| {
            let mut ws = CbwsVec::new(16);
            for &l in v {
                ws.observe(LineAddr(l));
            }
            ws
        };
        let (wa, wb) = (mk(&a), mk(&b));
        let dab = wb.differential(&wa);
        let dba = wa.differential(&wb);
        prop_assert_eq!(dab.len(), dba.len());
        prop_assert_eq!(dab.len(), wa.len().min(wb.len()));
        for (x, y) in dab.strides().iter().zip(dba.strides()) {
            prop_assert_eq!(i32::from(*x), -i32::from(*y));
        }
    }

    /// Applying Δ(A,B) to A recovers B (when strides fit 16 bits).
    #[test]
    fn differential_apply_roundtrip(
        a in proptest::collection::vec(0u64..1_000_000, 1..16),
        deltas in proptest::collection::vec(-30_000i64..30_000, 1..16),
    ) {
        let mut wa = CbwsVec::new(16);
        let mut wb = CbwsVec::new(16);
        for (i, &base) in a.iter().enumerate() {
            // Space lines out so shifted lines stay distinct and positive.
            let la = LineAddr(base + i as u64 * 2_000_000 + 1_000_000);
            wa.observe(la);
            if let Some(&d) = deltas.get(i) {
                wb.observe(la.offset(d));
            }
        }
        // Only proceed when all lines were distinct (observe() dedups).
        prop_assume!(wa.len() == a.len());
        prop_assume!(wb.len() == a.len().min(deltas.len()));
        let d = wb.differential(&wa);
        prop_assert!(!d.was_truncated());
        let mut predicted = Vec::new();
        d.apply(&wa, &mut predicted);
        prop_assert_eq!(&predicted[..], wb.lines());
    }

    /// The 12-bit hash stays in range and is a pure function.
    #[test]
    fn differential_hash12_is_bounded_and_pure(
        strides in proptest::collection::vec(-4096i64..4096, 0..16)
    ) {
        let d1 = Differential::from_strides(strides.iter().copied());
        let d2 = Differential::from_strides(strides.iter().copied());
        prop_assert!(d1.hash12() <= 0xFFF);
        prop_assert_eq!(d1.hash12(), d2.hash12());
    }

    /// The cache never exceeds capacity, never duplicates a line, and
    /// residency matches a reference set under arbitrary insert/invalidate
    /// sequences.
    #[test]
    fn cache_capacity_and_residency(ops in proptest::collection::vec((0u64..40, any::<bool>()), 1..300)) {
        let cfg = CacheConfig { size_bytes: 8 * 64, assoc: 2, latency: 1, mshrs: 1 };
        let mut cache = Cache::new(cfg);
        let mut resident: HashSet<u64> = HashSet::new();
        for (line, invalidate) in ops {
            let l = LineAddr(line);
            if invalidate {
                cache.invalidate(l);
                resident.remove(&line);
            } else if let Some(victim) = cache.insert(l, false, None) {
                prop_assert!(resident.remove(&victim.line.0), "evicted non-resident line");
                resident.insert(line);
            } else {
                resident.insert(line);
            }
            prop_assert!(cache.resident_lines() <= cfg.lines());
            prop_assert_eq!(cache.resident_lines(), resident.len());
        }
        for &line in &resident {
            prop_assert!(cache.probe(LineAddr(line)));
        }
    }

    /// Hierarchy invariants under random demand/prefetch interleavings:
    /// the classification partitions demand L2 accesses, inclusion holds,
    /// and time only moves forward.
    #[test]
    fn hierarchy_invariants(
        ops in proptest::collection::vec((0u64..2000, any::<bool>(), any::<bool>()), 1..400)
    ) {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        let mut now = 0u64;
        for (line, store, prefetch) in ops {
            now += 17;
            if prefetch {
                m.enqueue_prefetch(now, LineAddr(line));
            } else {
                let out = m.demand_access(now, LineAddr(line).base(), store);
                prop_assert!(out.latency >= 2);
                prop_assert!(out.latency <= 2 + 30 + 300);
                // Inclusion: anything in L1 must be in L2.
                prop_assert!(m.l2().probe(LineAddr(line)));
            }
        }
        let stats = m.finish(now);
        prop_assert!(stats.classification_is_partition());
        // Conservation: every issued prefetch either filled or was still
        // in flight at finish (then landed).
        prop_assert_eq!(stats.prefetch_issued, stats.prefetch_fills);
        // Wrong prefetches cannot exceed fills.
        prop_assert!(stats.wrong <= stats.prefetch_fills);
    }

    /// The CBWS predictor is deterministic and its prediction, if any, has
    /// bounded size (≤ prediction_depth × max_vector lines).
    #[test]
    fn predictor_prediction_bounded(
        blocks in proptest::collection::vec(
            proptest::collection::vec(0u64..10_000, 1..20), 1..40
        )
    ) {
        let cfg = CbwsConfig::default();
        let mut p1 = CbwsPredictor::new(cfg);
        let mut p2 = CbwsPredictor::new(cfg);
        for block in &blocks {
            p1.block_begin(BlockId(0));
            p2.block_begin(BlockId(0));
            for &l in block {
                p1.observe(LineAddr(l));
                p2.observe(LineAddr(l));
            }
            let (mut o1, mut o2) = (Vec::new(), Vec::new());
            p1.block_end(BlockId(0), &mut o1);
            p2.block_end(BlockId(0), &mut o2);
            prop_assert_eq!(&o1, &o2, "predictor must be deterministic");
            prop_assert!(o1.len() <= cfg.prediction_depth * cfg.max_vector);
        }
        prop_assert_eq!(p1.stats().blocks, blocks.len() as u64);
    }

    /// L1 hits never perturb prefetcher-visible L2 state: a re-access of a
    /// resident line is free and classified as an L1 hit.
    #[test]
    fn repeated_access_is_l1_hit(line in 0u64..512) {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        let addr = Addr(line * 64);
        m.demand_access(0, addr, false);
        let second = m.demand_access(400, addr, false);
        prop_assert!(second.l1_hit);
        prop_assert_eq!(second.latency, 2);
    }
}
