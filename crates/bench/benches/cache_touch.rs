//! Microbenchmarks of the flattened cache array's hot paths: the fused
//! `demand_touch` probe (the L1-miss → L2 path of the hierarchy) on a hit
//! and on a miss, the plain `touch` probe, and insert-with-eviction. Each
//! runs on a full cache at the evaluation's L1 point (32 KB, 4-way) and
//! its L2 point (2 MB, 16-way). Guards the contiguous set-major layout
//! against regressions.
//!
//! ```text
//! cargo bench -p cbws-bench --bench cache_touch
//! ```

use cbws_bench::{ns_per_call, Args};
use cbws_sim_mem::{Cache, CacheConfig};
use cbws_trace::LineAddr;
use std::hint::black_box;

/// Calls per timed batch.
const CALLS: u64 = 2_000_000;

/// Timed batches per probe; each probe reports its best.
const ITERS: usize = 5;

/// Prints the time per call of `f(cache, i)` on a full `cfg` cache, where
/// `i` counts the calls from 1.
fn probe(point: &str, name: &str, cfg: CacheConfig, mut f: impl FnMut(&mut Cache, u64)) {
    let mut cache = Cache::new(cfg);
    for line in 0..cfg.size_bytes / 64 {
        cache.insert(LineAddr(line), false, None);
    }
    let mut i = 0;
    let ns = ns_per_call(ITERS, CALLS, || {
        i += 1;
        f(&mut cache, i)
    });
    println!("cache/{point}/{name:<18} {ns:>6.2} ns/call");
}

fn main() {
    Args::parse("cache_touch", &[]);
    let l1 = CacheConfig {
        size_bytes: 32 * 1024,
        assoc: 4,
        latency: 2,
        mshrs: 4,
    };
    let l2 = CacheConfig {
        size_bytes: 2 * 1024 * 1024,
        assoc: 16,
        latency: 12,
        mshrs: 16,
    };
    for (point, cfg) in [("l1", l1), ("l2", l2)] {
        // Both points hold a power-of-two line count, so a mask cycles the
        // hits through every resident line without a division per call.
        let lines = cfg.size_bytes / 64;
        let mask = lines - 1;
        assert!(lines.is_power_of_two());
        probe(point, "demand_touch_hit", cfg, |c, i| {
            black_box(c.demand_touch(LineAddr(i & mask), false));
        });
        probe(point, "demand_touch_miss", cfg, |c, i| {
            black_box(c.demand_touch(LineAddr(lines + i), false));
        });
        probe(point, "touch_hit", cfg, |c, i| {
            black_box(c.touch(LineAddr(i & mask), false));
        });
        probe(point, "insert_evict", cfg, |c, i| {
            black_box(c.insert(LineAddr(lines + i), false, None));
        });
    }
}
