//! Regenerates **Fig. 1**: fraction of runtime spent executing tight,
//! innermost loops for the memory-intensive benchmarks.
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig01_loop_fraction
//! [--scale tiny|small|full] [--jobs N] [--resume] [--no-result-cache]
//! [--quiet|--progress]`

use cbws_harness::experiments::{
    fig01_from_records, jobs_from_args, result_cache_from_args, save_csv, scale_from_args,
    session_spans, write_session_spans,
};
use cbws_harness::{Engine, EngineConfig, PrefetcherKind, RunManifest, SystemConfig};
use cbws_telemetry::{result, status};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cbws_telemetry::log::apply_cli_flags(&args);
    let scale = scale_from_args();
    status!("[fig01] scale = {scale}");
    let suite = cbws_workloads::mi_suite();
    let engine = Engine::new(EngineConfig {
        jobs: jobs_from_args(),
        spans: session_spans().clone(),
        result_cache: result_cache_from_args(),
        ..EngineConfig::default()
    });
    let run = engine.run(scale, &suite, &[PrefetcherKind::None]);
    let table = fig01_from_records(&run.records);
    result!("Fig. 1 — runtime fraction in tight innermost loops (no-prefetch)\n");
    result!("{table}");
    save_csv("fig01_loop_fraction", &table);
    write_session_spans();
    RunManifest::new(
        "fig01_loop_fraction",
        scale,
        suite.iter().map(|w| w.name),
        [PrefetcherKind::None],
        SystemConfig::default(),
    )
    .with_run(&run)
    .save("fig01_loop_fraction");
}
