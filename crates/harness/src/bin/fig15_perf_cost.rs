//! Regenerates **Fig. 15**: performance/cost — IPC per byte read from
//! memory, normalized to the no-prefetch configuration (higher is better).
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig15_perf_cost -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::{fig15_perf_cost, save_csv};
use cbws_harness::PrefetcherKind;
use cbws_telemetry::result;

fn main() {
    let cli = Cli::parse("fig15_perf_cost", COMMON);
    let out = cli.sweep(&cli.spec(cbws_workloads::mi_suite(), PrefetcherKind::ALL));
    let table = fig15_perf_cost(&out.run.records);
    result!("Fig. 15 — IPC / bytes read, normalized to no-prefetch\n");
    result!("{table}");
    save_csv("fig15_perf_cost", &table);
    out.manifest.save("fig15_perf_cost");
}
