//! Regenerates **Fig. 13**: the 5-way timeliness/accuracy breakdown
//! (timely / shorter-waiting-time / non-timely / missing / wrong) for every
//! prefetcher on the memory-intensive suite.
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig13_timeliness -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::{fig13_timeliness, save_csv};
use cbws_harness::PrefetcherKind;
use cbws_telemetry::result;

fn main() {
    let cli = Cli::parse("fig13_timeliness", COMMON);
    let out = cli.sweep(&cli.spec(cbws_workloads::mi_suite(), PrefetcherKind::ALL));
    let table = fig13_timeliness(&out.run.records);
    result!("Fig. 13 — timeliness and accuracy, % of demand L2 accesses\n");
    result!("{table}");
    save_csv("fig13_timeliness", &table);
    out.manifest.save("fig13_timeliness");
}
