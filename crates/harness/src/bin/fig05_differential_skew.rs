//! Regenerates **Fig. 5**: the skewed distribution of distinct CBWS
//! differential vectors — how few vectors cover how many loop iterations.
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig05_differential_skew -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).
//! It analyses traces without a simulation sweep, so `--jobs` changes
//! nothing here.

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::{fig05_differential_skew, save_csv};
use cbws_harness::{PrefetcherKind, RunManifest, SystemConfig};
use cbws_telemetry::{result, status};

fn main() {
    let cli = Cli::parse("fig05_differential_skew", COMMON);
    status!("[fig05] scale = {}", cli.scale);
    let table = fig05_differential_skew(cli.scale);
    result!(
        "Fig. 5 — % of iterations covered by the most frequent X% of\n\
         distinct CBWS differential vectors\n"
    );
    result!("{table}");
    save_csv("fig05_differential_skew", &table);
    RunManifest::new(
        "fig05_differential_skew",
        cli.scale,
        cbws_workloads::mi_suite().iter().map(|w| w.name),
        std::iter::empty::<PrefetcherKind>(),
        SystemConfig::default(),
    )
    .save("fig05_differential_skew");
    cli.write_outputs();
}
