//! End-to-end sweep benchmark: the full `workloads × 7 prefetchers` matrix
//! run serially versus through the work-stealing engine, with a
//! byte-identical-results assertion in between. Writes the measured wall
//! clocks to `BENCH_sweep.json` at the repository root.
//!
//! ```text
//! cargo bench -p cbws-bench --bench sweep_e2e -- \
//!     [--scale tiny|small|full] [--jobs N] [--iters K]
//! ```
//!
//! Exits non-zero if the engine's records diverge from the serial sweep or
//! any record's Fig. 13 classification fails to partition — the CI
//! perf-smoke job relies on this as the determinism gate. Because the
//! serial sweep replays classic `Vec<TraceEvent>` traces while the engine
//! replays packed columnar traces from the store, the identity assertion
//! also cross-validates the two trace representations end to end.
//!
//! Four competitors are timed: the serial sweep (AoS traces generated
//! inline each run, timed in alternating pairs with the warm engine), the
//! engine with a **cold** trace store (pays DSL
//! generation plus encode/write), the engine with a **warm** store
//! (checksum-verified loads only — the steady state of repeated sweeps and
//! CI runs), and the engine with a **cached** result store (every job
//! served from a persisted `RunRecord`, skipping trace loads and
//! simulation entirely — the steady state of resumed or repeated
//! experiment sweeps). The first three legs run with the result cache off
//! so their timings keep the meaning they had before the result store
//! existed. Unless `CBWS_TRACE_STORE_DIR` / `CBWS_RESULT_STORE_DIR` are
//! already set, both stores are pointed at bench-owned scratch
//! directories (under the workspace's `target/`) so cold runs can wipe
//! them safely.

use cbws_bench::{arg_value, time, workspace_root, write_snapshot};
use cbws_harness::engine::detect_parallelism;
use cbws_harness::experiments::sweep;
use cbws_harness::{result_store, EngineRun, ResultCache, SweepSession, SweepSpec};
use cbws_workloads::{trace_store, Scale, WorkloadSpec, ALL};

/// The engine sweep of every workload × the paper's seven prefetchers,
/// under result-store policy `result_cache`.
fn engine_sweep(scale: Scale, jobs: usize, result_cache: ResultCache) -> EngineRun {
    let session = SweepSession {
        result_cache,
        ..SweepSession::default()
    };
    let spec = SweepSpec::full_matrix(scale, jobs);
    session.run("sweep_e2e", &spec, None).run
}

fn main() {
    for (var, dir) in [
        ("CBWS_TRACE_STORE_DIR", "target/trace-store-bench"),
        ("CBWS_RESULT_STORE_DIR", "target/result-store-bench"),
    ] {
        if std::env::var_os(var).is_none() {
            std::env::set_var(var, workspace_root().join(dir));
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match arg_value(&args, "--scale").as_deref() {
        Some("small") => Scale::Small,
        Some("full") => Scale::Full,
        _ => Scale::Tiny,
    };
    let scale_name = scale.to_string();
    let jobs: usize = arg_value(&args, "--jobs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let iters: usize = arg_value(&args, "--iters")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1);
    let workloads: Vec<&'static WorkloadSpec> = ALL.iter().collect();
    let cores = detect_parallelism();
    eprintln!(
        "[sweep_e2e] scale = {scale_name}, {} workloads, jobs = {jobs} (0 = all {cores} cores), \
         best of {iters}",
        workloads.len()
    );

    // Engine competitor, cold store: every run regenerates, packs, and
    // writes each trace (comparable to pre-store engine runs).
    let store = trace_store::shared();
    let mut engine_secs = f64::INFINITY;
    let mut workers = 0;
    let mut engine_records = Vec::new();
    for _ in 0..iters {
        let _ = std::fs::remove_dir_all(store.dir());
        store.drop_memory();
        let run = engine_sweep(scale, jobs, ResultCache::Off);
        engine_secs = engine_secs.min(run.wall_seconds);
        workers = run.workers;
        engine_records = run.records;
    }
    eprintln!("[sweep_e2e] engine (cold store): {engine_secs:.3} s on {workers} workers");

    // The serial competitor (generating every trace each time) against the
    // engine over a warm store: files persist across runs, only the
    // in-process memoization is dropped, so each run pays verified loads
    // instead of generation — the steady state of repeated sweeps. The two
    // legs run in alternating pairs, each keeping its best of `iters`, so
    // a drift in host speed lands on both sides of `warm_speedup` instead
    // of on one.
    let mut serial_secs = f64::INFINITY;
    let mut serial_records = Vec::new();
    let mut warm_secs = f64::INFINITY;
    let mut warm_records = Vec::new();
    let mut warm_workers = Vec::new();
    for _ in 0..iters {
        serial_secs = serial_secs.min(time(|| serial_records = sweep(scale, &workloads)));

        store.drop_memory();
        let run = engine_sweep(scale, jobs, ResultCache::Off);
        if run.wall_seconds < warm_secs {
            warm_secs = run.wall_seconds;
            warm_workers = run.worker_stats;
        }
        warm_records = run.records;
    }
    eprintln!("[sweep_e2e] serial: {serial_secs:.3} s");
    eprintln!("[sweep_e2e] engine (warm store): {warm_secs:.3} s on {workers} workers");

    // Engine competitor, cached result store: one populate run persists
    // every job's RunRecord, then each measured run serves the full matrix
    // from the store — no trace loads, no simulation. This is the steady
    // state of `--resume` and of re-running an already-finished sweep.
    let rstore = result_store::shared();
    let _ = std::fs::remove_dir_all(rstore.dir());
    let populate = engine_sweep(scale, jobs, ResultCache::Shared);
    assert_eq!(
        populate.store_misses(),
        populate.job_count,
        "populate run must simulate and persist every job"
    );
    let mut cached_secs = f64::INFINITY;
    let mut cached_records = Vec::new();
    let mut cached_hits = 0;
    let mut cached_misses = 0;
    for _ in 0..iters {
        let run = engine_sweep(scale, jobs, ResultCache::Shared);
        assert_eq!(
            run.store_hits(),
            run.job_count,
            "cached run must serve every job from the result store"
        );
        cached_secs = cached_secs.min(run.wall_seconds);
        cached_hits = run.store_hits();
        cached_misses = run.store_misses();
        cached_records = run.records;
    }
    eprintln!("[sweep_e2e] engine (cached results): {cached_secs:.3} s on {workers} workers");

    // Determinism gate: byte-identical records, valid classification.
    assert_eq!(
        serial_records, engine_records,
        "engine records diverged from the serial sweep"
    );
    assert_eq!(
        engine_records, warm_records,
        "warm-store records diverged from the cold-store run"
    );
    assert_eq!(
        warm_records, cached_records,
        "result-store records diverged from fresh simulation"
    );
    assert!(
        engine_records
            .iter()
            .all(|r| r.mem.classification_is_partition()),
        "a record's Fig. 13 classification does not partition"
    );
    eprintln!(
        "[sweep_e2e] determinism: {} records byte-identical, classification partitions",
        engine_records.len()
    );

    let speedup = serial_secs / engine_secs;
    let warm_speedup = serial_secs / warm_secs;
    let cached_speedup = warm_secs / cached_secs;
    eprintln!(
        "[sweep_e2e] speedup: {speedup:.2}x cold, {warm_speedup:.2}x warm, \
         {cached_speedup:.2}x cached-over-warm"
    );

    // Record the measurement at the repository root. `workers_detail` is
    // the per-worker busy/idle split of the best warm run (the gated
    // competitor); perf-history skips the array and trends the scalars.
    let workers_detail: Vec<String> = warm_workers
        .iter()
        .map(|w| {
            format!(
                "    {{\"worker\": {}, \"jobs\": {}, \"busy_seconds\": {:.4}, \
                 \"idle_seconds\": {:.4}, \"store_hits\": {}, \"store_misses\": {}}}",
                w.worker, w.jobs, w.busy_seconds, w.idle_seconds, w.store_hits, w.store_misses
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sweep_e2e\",\n  \"scale\": \"{scale_name}\",\n  \
         \"workloads\": {},\n  \"prefetchers\": 7,\n  \"cores\": {cores},\n  \
         \"workers\": {workers},\n  \"iterations\": {iters},\n  \
         \"serial_seconds\": {serial_secs:.4},\n  \"engine_seconds\": {engine_secs:.4},\n  \
         \"engine_warm_seconds\": {warm_secs:.4},\n  \
         \"engine_cached_seconds\": {cached_secs:.4},\n  \
         \"speedup\": {speedup:.3},\n  \"warm_speedup\": {warm_speedup:.3},\n  \
         \"cached_speedup\": {cached_speedup:.3},\n  \
         \"result_store_hits\": {cached_hits},\n  \
         \"result_store_misses\": {cached_misses},\n  \
         \"identical_records\": true,\n  \"workers_detail\": [\n{}\n  ]\n}}\n",
        workloads.len(),
        workers_detail.join(",\n")
    );
    write_snapshot("sweep_e2e", "BENCH_sweep.json", &json);
}
