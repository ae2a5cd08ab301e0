//! Regenerates **Fig. 14**: IPC normalized to SMS for all 30 benchmarks
//! (higher is better) — the paper's headline result.
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig14_speedup
//! [--scale tiny|small|full] [--jobs N] [--resume] [--no-result-cache]
//! [--quiet|--progress]`

use cbws_harness::experiments::{
    fig14_speedup, jobs_from_args, save_csv, scale_from_args, sweep_engine,
};
use cbws_harness::{PrefetcherKind, RunManifest, SystemConfig};
use cbws_telemetry::{result, status};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cbws_telemetry::log::apply_cli_flags(&args);
    let scale = scale_from_args();
    status!("[fig14] scale = {scale}");
    let all: Vec<_> = cbws_workloads::ALL.iter().collect();
    let run = sweep_engine(scale, &all, jobs_from_args());
    let table = fig14_speedup(&run.records);
    result!("Fig. 14 — IPC normalized to SMS (higher is better)\n");
    result!("{table}");
    save_csv("fig14_speedup", &table);
    RunManifest::new(
        "fig14_speedup",
        scale,
        all.iter().map(|w| w.name),
        PrefetcherKind::ALL,
        SystemConfig::default(),
    )
    .with_run(&run)
    .save("fig14_speedup");
}
