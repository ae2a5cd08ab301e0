//! Reproduces the paper's running example (Figs. 2-4 and Table I): build
//! CBWS vectors from the Parboil Stencil inner loop, show their constant
//! differential, and walk the CBWS predictor through Algorithm 1 by hand.
//!
//! Run with: `cargo run --release --example stencil_differentials`

use cbws_repro::core::analysis::collect_block_histories;
use cbws_repro::core::{CbwsConfig, CbwsPredictor, CbwsVec};
use cbws_repro::trace::{BlockId, LineAddr};
use cbws_repro::workloads::{by_name, Scale};

fn main() {
    // Part 1 — Figs. 3 & 4 from the real kernel trace.
    let trace = by_name("stencil-default")
        .expect("registered")
        .generate(Scale::Tiny);
    let histories = collect_block_histories(&trace, 16);
    let history = histories
        .values()
        .next()
        .expect("stencil has one annotated loop");

    println!("Fig. 3 — CBWS vectors of eight stencil iterations:");
    for (i, ws) in history.instances.iter().take(8).enumerate() {
        println!("  CBWS{i} = {ws}");
    }

    println!("\nFig. 4 — their differentials (element-wise deltas, in lines):");
    for (i, pair) in history.instances.windows(2).take(7).enumerate() {
        println!(
            "  CBWS{} - CBWS{} = {}",
            i + 1,
            i,
            pair[1].differential(&pair[0])
        );
    }

    // Part 2 — Table I in miniature: feed two handcrafted block instances
    // through the predictor and watch the differential form.
    println!("\nTable I — CBWS construction from a two-instance trace:");
    let mut a = CbwsVec::new(16);
    for line in [0x120u64, 0x3F9, 0x1FF] {
        a.observe(LineAddr(line));
    }
    let mut b = CbwsVec::new(16);
    for line in [0x124u64, 0x3F1, 0x1FF] {
        b.observe(LineAddr(line));
    }
    println!("  CBWS0          = {a}");
    println!("  CBWS1          = {b}");
    println!("  Δ(0,1)         = {}", b.differential(&a));

    // Part 3 — the hardware predicting the next working set.
    println!("\nAlgorithm 1 — steady-state prediction on a strided loop:");
    let mut p = CbwsPredictor::new(CbwsConfig::default());
    let mut predicted = Vec::new();
    for i in 0..10u64 {
        p.block_begin(BlockId(0));
        p.observe(LineAddr(0x80));
        p.observe(LineAddr(0x1000 + i * 1024));
        p.observe(LineAddr(0x9000 + i * 1024));
        predicted.clear();
        p.block_end(BlockId(0), &mut predicted);
    }
    println!("  after 10 iterations the predictor prefetches: {predicted:?}");
    println!("  table hits so far: {}", p.stats().prediction_hits);
    assert!(predicted.contains(&LineAddr(0x1000 + 10 * 1024)));
}
