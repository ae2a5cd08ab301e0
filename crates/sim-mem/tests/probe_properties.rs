//! Property tests for the tag-lane scan: `probe_batch` (and the `find`
//! scan underneath every probe/touch/insert) must agree with a shadow
//! model of resident lines for arbitrary operation sequences.

use cbws_sim_mem::{Cache, CacheConfig};
use cbws_trace::LineAddr;
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64),
    Invalidate(u64),
    Touch(u64),
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..4096).prop_map(Op::Insert),
            (0u64..4096).prop_map(Op::Insert), // inserts weighted up
            (0u64..4096).prop_map(Op::Insert),
            (0u64..4096).prop_map(Op::Invalidate),
            (0u64..4096).prop_map(Op::Touch),
        ],
        0..400,
    )
}

fn geometry_strategy() -> impl Strategy<Value = CacheConfig> {
    // Direct-mapped through 16-way sets, including a non-power-of-two
    // associativity.
    prop_oneof![Just(1usize), Just(2), Just(4), Just(6), Just(8), Just(16)].prop_map(|assoc| {
        CacheConfig {
            size_bytes: (assoc * 16 * 64) as u64, // 16 sets
            assoc,
            latency: 1,
            mshrs: 4,
        }
    })
}

proptest! {
    /// After an arbitrary op sequence, `probe_batch` over arbitrary query
    /// batches equals the per-line scalar model (a `HashSet` of lines the
    /// cache itself reports resident).
    #[test]
    fn probe_batch_matches_per_way_scalar_probe(
        cfg in geometry_strategy(),
        ops in ops_strategy(),
        queries in proptest::collection::vec(0u64..4096, 0..64),
    ) {
        let mut cache = Cache::new(cfg);
        for op in ops {
            match op {
                Op::Insert(l) => { cache.insert(LineAddr(l), false, None); }
                Op::Invalidate(l) => { cache.invalidate(LineAddr(l)); }
                Op::Touch(l) => { cache.touch(LineAddr(l), false); }
            }
        }
        // The model: what the cache itself enumerates as resident. The
        // enumeration walks raw tags without the scan kernel, so the two
        // kernels are checked against ground truth, not against each
        // other's bugs.
        let resident: HashSet<u64> = cache.resident().map(|(l, _)| l.0).collect();
        let lines: Vec<LineAddr> = queries.iter().map(|&l| LineAddr(l)).collect();
        let mask = cache.probe_batch(&lines);
        for (i, &line) in lines.iter().enumerate() {
            let batch_hit = mask >> i & 1 == 1;
            prop_assert_eq!(batch_hit, resident.contains(&line.0), "line {}", line.0);
            prop_assert_eq!(batch_hit, cache.probe(line), "probe disagrees at {}", line.0);
        }
    }

    /// Residency bookkeeping stays exact under the selected kernel: the
    /// resident count equals the shadow set's size.
    #[test]
    fn resident_count_matches_model(cfg in geometry_strategy(), ops in ops_strategy()) {
        let mut cache = Cache::new(cfg);
        for op in ops {
            match op {
                Op::Insert(l) => { cache.insert(LineAddr(l), false, None); }
                Op::Invalidate(l) => { cache.invalidate(LineAddr(l)); }
                Op::Touch(l) => { cache.touch(LineAddr(l), false); }
            }
        }
        prop_assert_eq!(cache.resident_lines(), cache.resident().count());
    }
}
