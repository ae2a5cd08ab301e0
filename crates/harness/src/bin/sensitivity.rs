//! **Extension experiment**: sensitivity of the headline result to the L2
//! capacity and to the memory latency. The paper evaluates a single design
//! point (2 MB L2, 300-cycle memory); this sweep checks that the CBWS+SMS
//! advantage is not an artifact of that point.
//!
//! Usage: `cargo run --release -p cbws-harness --bin sensitivity
//! [--scale tiny|small|full] [--jobs N] [--spans-out F]
//! [--resume] [--no-result-cache] [--quiet|--progress]`

use cbws_harness::experiments::{
    jobs_from_args, result_cache_from_args, save_csv, scale_from_args, session_spans,
    write_session_spans,
};
use cbws_harness::{Engine, EngineConfig, EngineRun, PrefetcherKind, RunManifest, SystemConfig};
use cbws_stats::{geomean, TextTable};
use cbws_telemetry::{result, status, Telemetry};
use cbws_workloads::{mi_suite, Scale};

/// Runs the MI suite under `cfg` through the engine and returns the
/// geomean CBWS+SMS / SMS speedup plus the run's timing.
fn geomean_speedup(scale: Scale, cfg: SystemConfig, jobs: usize) -> (f64, EngineRun) {
    let engine = Engine::new(EngineConfig {
        jobs,
        system: cfg,
        telemetry: Telemetry::disabled(),
        spans: session_spans().clone(),
        // Each sensitivity point's config is part of the result key, so
        // cached entries from other points can never be served here.
        result_cache: result_cache_from_args(),
        ..EngineConfig::default()
    });
    let run = engine.run(
        scale,
        &mi_suite(),
        &[PrefetcherKind::Sms, PrefetcherKind::CbwsSms],
    );
    // Workload-major order: each pair is (SMS, CBWS+SMS) for one workload.
    let speedup = geomean(run.records.chunks(2).map(|p| p[1].ipc() / p[0].ipc()));
    (speedup, run)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cbws_telemetry::log::apply_cli_flags(&args);
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    status!("[sensitivity] scale = {scale}");
    // Every point's engine run, folded into one for the manifest.
    let mut total = EngineRun::default();

    // L2 capacity sweep.
    let mut l2 = TextTable::new(vec![
        "L2 size".into(),
        "CBWS+SMS vs SMS (geomean, MI)".into(),
    ]);
    for mb in [1u64, 2, 4] {
        let mut cfg = SystemConfig::default();
        cfg.mem.l2.size_bytes = mb * 1024 * 1024;
        status!("[sensitivity] L2 = {mb} MB");
        let (speedup, run) = geomean_speedup(scale, cfg, jobs);
        total.merge(run);
        l2.row(vec![format!("{mb} MB"), format!("{speedup:.3}")]);
    }
    result!("Sensitivity — L2 capacity (Table II point: 2 MB)\n\n{l2}");
    save_csv("sensitivity_l2", &l2);

    // Memory latency sweep.
    let mut lat = TextTable::new(vec![
        "memory latency".into(),
        "CBWS+SMS vs SMS (geomean, MI)".into(),
    ]);
    for cycles in [150u64, 300, 600] {
        let mut cfg = SystemConfig::default();
        cfg.mem.memory_latency = cycles;
        status!("[sensitivity] memory = {cycles} cycles");
        let (speedup, run) = geomean_speedup(scale, cfg, jobs);
        total.merge(run);
        lat.row(vec![format!("{cycles} cycles"), format!("{speedup:.3}")]);
    }
    result!("Sensitivity — memory latency (Table II point: 300 cycles)\n\n{lat}");
    save_csv("sensitivity_latency", &lat);

    let manifest = RunManifest::new(
        "sensitivity",
        scale,
        mi_suite().iter().map(|w| w.name),
        [PrefetcherKind::Sms, PrefetcherKind::CbwsSms],
        SystemConfig::default(),
    )
    .with_run(&total);
    write_session_spans();
    manifest.save("sensitivity_l2");
    manifest.save("sensitivity_latency");
}
