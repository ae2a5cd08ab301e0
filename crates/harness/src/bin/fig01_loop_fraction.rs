//! Regenerates **Fig. 1**: fraction of runtime spent executing tight,
//! innermost loops for the memory-intensive benchmarks.
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig01_loop_fraction -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::{fig01_from_records, save_csv};
use cbws_harness::PrefetcherKind;
use cbws_telemetry::result;

fn main() {
    let cli = Cli::parse("fig01_loop_fraction", COMMON);
    let out = cli.sweep(&cli.spec(cbws_workloads::mi_suite(), [PrefetcherKind::None]));
    let table = fig01_from_records(&out.run.records);
    result!("Fig. 1 — runtime fraction in tight innermost loops (no-prefetch)\n");
    result!("{table}");
    save_csv("fig01_loop_fraction", &table);
    out.manifest.save("fig01_loop_fraction");
}
