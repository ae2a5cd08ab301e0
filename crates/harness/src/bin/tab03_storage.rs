//! Regenerates **Table III**: hardware storage requirements of the
//! evaluated prefetchers.
//!
//! Usage: `cargo run --release -p cbws-harness --bin tab03_storage -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).
//! It runs no simulation, so `--scale` and `--jobs` change nothing here.

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::{save_csv, tab03_storage};
use cbws_harness::SystemConfig;
use cbws_telemetry::result;

fn main() {
    let cli = Cli::parse("tab03_storage", COMMON);
    let table = tab03_storage(&SystemConfig::default());
    result!("Table III — prefetcher storage budgets\n");
    result!("{table}");
    save_csv("tab03_storage", &table);
    cli.write_outputs();
}
