//! Regenerates **Figs. 3 & 4** (and the flavour of Table I): the CBWS
//! access matrix of the Parboil Stencil inner loop and its constant
//! differential vectors.
//!
//! Usage: `cargo run --release -p cbws-harness --bin fig03_stencil_cbws -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).
//! It analyses one fixed tiny trace, so `--scale` and `--jobs` change
//! nothing here.

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::fig03_stencil_cbws;
use cbws_telemetry::result;

fn main() {
    let cli = Cli::parse("fig03_stencil_cbws", COMMON);
    result!("Figs. 3 & 4 — Stencil CBWS vectors and differentials\n");
    result!("{}", fig03_stencil_cbws(8));
    cli.write_outputs();
}
