//! Regenerates **Fig. 15**: performance/cost — IPC per byte read from
//! memory, normalized to the no-prefetch configuration (higher is better).
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig15_perf_cost
//! [--scale tiny|small|full] [--jobs N] [--resume] [--no-result-cache]
//! [--quiet|--progress]`

use cbws_harness::experiments::{
    fig15_perf_cost, jobs_from_args, save_csv, scale_from_args, sweep_engine,
};
use cbws_harness::{PrefetcherKind, RunManifest, SystemConfig};
use cbws_telemetry::{result, status};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cbws_telemetry::log::apply_cli_flags(&args);
    let scale = scale_from_args();
    status!("[fig15] scale = {scale}");
    let suite = cbws_workloads::mi_suite();
    let run = sweep_engine(scale, &suite, jobs_from_args());
    let table = fig15_perf_cost(&run.records);
    result!("Fig. 15 — IPC / bytes read, normalized to no-prefetch\n");
    result!("{table}");
    save_csv("fig15_perf_cost", &table);
    RunManifest::new(
        "fig15_perf_cost",
        scale,
        suite.iter().map(|w| w.name),
        PrefetcherKind::ALL,
        SystemConfig::default(),
    )
    .with_run(&run)
    .save("fig15_perf_cost");
}
