//! Regenerates **Fig. 14**: IPC normalized to SMS for all 30 benchmarks
//! (higher is better) — the paper's headline result.
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig14_speedup -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::{fig14_speedup, save_csv};
use cbws_harness::PrefetcherKind;
use cbws_telemetry::result;

fn main() {
    let cli = Cli::parse("fig14_speedup", COMMON);
    let out = cli.sweep(&cli.spec(cbws_workloads::ALL.iter().collect(), PrefetcherKind::ALL));
    let table = fig14_speedup(&out.run.records);
    result!("Fig. 14 — IPC normalized to SMS (higher is better)\n");
    result!("{table}");
    save_csv("fig14_speedup", &table);
    out.manifest.save("fig14_speedup");
}
