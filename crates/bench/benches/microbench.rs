//! Microbenchmarks of the simulator's hot paths: cache lookup, CBWS
//! observation/prediction, and each prefetcher's per-access training cost.

use cbws_core::{CbwsConfig, CbwsPredictor};
use cbws_prefetchers::{
    GhbConfig, GhbPrefetcher, PrefetchContext, Prefetcher, SmsPrefetcher, StridePrefetcher,
};
use cbws_sim_mem::{Cache, CacheConfig};
use cbws_trace::{Addr, BlockId, LineAddr, Pc};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn cache_hot_path(c: &mut Criterion) {
    let mut cache = Cache::new(CacheConfig {
        size_bytes: 32 * 1024,
        assoc: 4,
        latency: 2,
        mshrs: 4,
    });
    for i in 0..512u64 {
        cache.insert(LineAddr(i), false, None);
    }
    let mut i = 0u64;
    c.bench_function("cache/touch_hit", |b| {
        b.iter(|| {
            i = (i + 1) % 512;
            black_box(cache.touch(LineAddr(i), false))
        })
    });
    c.bench_function("cache/insert_evict", |b| {
        b.iter(|| {
            i += 1;
            black_box(cache.insert(LineAddr(i), false, None))
        })
    });
}

fn predictor_hot_path(c: &mut Criterion) {
    let mut p = CbwsPredictor::new(CbwsConfig::default());
    let mut out = Vec::new();
    let mut iter = 0u64;
    c.bench_function("cbws/block_cycle", |b| {
        b.iter(|| {
            iter += 1;
            p.block_begin(BlockId(0));
            for k in 0..7u64 {
                p.observe(LineAddr(iter * 1024 + k * 3000));
            }
            // One reused buffer: time the kernel, not the allocator.
            out.clear();
            p.block_end(BlockId(0), &mut out);
            black_box(out.len())
        })
    });
}

fn prefetcher_training(c: &mut Criterion) {
    let mut out = Vec::new();
    let mut i = 0u64;

    let mut stride = StridePrefetcher::default();
    c.bench_function("train/stride", |b| {
        b.iter(|| {
            i += 1;
            out.clear();
            stride.on_access(
                &PrefetchContext::demand_miss(Pc(0x40), Addr(i * 256)),
                &mut out,
            );
            black_box(out.len())
        })
    });

    let mut ghb = GhbPrefetcher::new(GhbConfig::pcdc());
    c.bench_function("train/ghb_pcdc", |b| {
        b.iter(|| {
            i += 1;
            out.clear();
            ghb.on_access(
                &PrefetchContext::demand_miss(Pc(0x40), Addr(i * 256)),
                &mut out,
            );
            black_box(out.len())
        })
    });

    let mut sms = SmsPrefetcher::default();
    c.bench_function("train/sms", |b| {
        b.iter(|| {
            i += 1;
            out.clear();
            sms.on_access(
                &PrefetchContext::demand_miss(Pc(0x40), Addr(i * 128)),
                &mut out,
            );
            black_box(out.len())
        })
    });
}

criterion_group!(
    benches,
    cache_hot_path,
    predictor_hot_path,
    prefetcher_training
);
criterion_main!(benches);
