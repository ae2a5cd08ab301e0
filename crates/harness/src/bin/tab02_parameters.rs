//! Prints **Table II**: the simulation parameters in force.
//!
//! Usage: `cargo run --release -p cbws-harness --bin tab02_parameters -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).
//! It runs no simulation, so `--scale` and `--jobs` change nothing here.

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::{save_csv, tab02_parameters};
use cbws_harness::SystemConfig;
use cbws_telemetry::result;

fn main() {
    let cli = Cli::parse("tab02_parameters", COMMON);
    let table = tab02_parameters(&SystemConfig::default());
    result!("Table II — simulation parameters\n");
    result!("{table}");
    save_csv("tab02_parameters", &table);
    cli.write_outputs();
}
