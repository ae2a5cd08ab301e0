//! Regenerates **Fig. 12**: last-level-cache MPKI for every prefetcher on
//! the memory-intensive suite (lower is better).
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig12_mpki
//! [--scale tiny|small|full] [--jobs N] [--resume] [--no-result-cache]
//! [--quiet|--progress]`

use cbws_harness::experiments::{
    fig12_mpki, jobs_from_args, save_csv, scale_from_args, sweep_engine,
};
use cbws_harness::{PrefetcherKind, RunManifest, SystemConfig};
use cbws_telemetry::{result, status};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cbws_telemetry::log::apply_cli_flags(&args);
    let scale = scale_from_args();
    status!("[fig12] scale = {scale}");
    let suite = cbws_workloads::mi_suite();
    let run = sweep_engine(scale, &suite, jobs_from_args());
    let table = fig12_mpki(&run.records);
    result!("Fig. 12 — L2 misses per kilo-instruction (lower is better)\n");
    result!("{table}");
    save_csv("fig12_mpki", &table);
    RunManifest::new(
        "fig12_mpki",
        scale,
        suite.iter().map(|w| w.name),
        PrefetcherKind::ALL,
        SystemConfig::default(),
    )
    .with_run(&run)
    .save("fig12_mpki");
}
