//! Regenerates **Fig. 12**: last-level-cache MPKI for every prefetcher on
//! the memory-intensive suite (lower is better).
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig12_mpki -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::{fig12_mpki, save_csv};
use cbws_harness::PrefetcherKind;
use cbws_telemetry::result;

fn main() {
    let cli = Cli::parse("fig12_mpki", COMMON);
    let out = cli.sweep(&cli.spec(cbws_workloads::mi_suite(), PrefetcherKind::ALL));
    let table = fig12_mpki(&out.run.records);
    result!("Fig. 12 — L2 misses per kilo-instruction (lower is better)\n");
    result!("{table}");
    save_csv("fig12_mpki", &table);
    out.manifest.save("fig12_mpki");
}
