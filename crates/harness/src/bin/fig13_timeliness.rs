//! Regenerates **Fig. 13**: the 5-way timeliness/accuracy breakdown
//! (timely / shorter-waiting-time / non-timely / missing / wrong) for every
//! prefetcher on the memory-intensive suite.
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig13_timeliness
//! [--scale tiny|small|full] [--jobs N] [--resume] [--no-result-cache]
//! [--quiet|--progress]`

use cbws_harness::experiments::{
    fig13_timeliness, jobs_from_args, save_csv, scale_from_args, sweep_engine,
};
use cbws_harness::{PrefetcherKind, RunManifest, SystemConfig};
use cbws_telemetry::{result, status};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cbws_telemetry::log::apply_cli_flags(&args);
    let scale = scale_from_args();
    status!("[fig13] scale = {scale}");
    let suite = cbws_workloads::mi_suite();
    let run = sweep_engine(scale, &suite, jobs_from_args());
    let table = fig13_timeliness(&run.records);
    result!("Fig. 13 — timeliness and accuracy, % of demand L2 accesses\n");
    result!("{table}");
    save_csv("fig13_timeliness", &table);
    RunManifest::new(
        "fig13_timeliness",
        scale,
        suite.iter().map(|w| w.name),
        PrefetcherKind::ALL,
        SystemConfig::default(),
    )
    .with_run(&run)
    .save("fig13_timeliness");
}
