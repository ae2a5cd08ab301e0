//! Trace inspection tool: reads a workload's trace from the trace store
//! (generating it there on a miss) and prints its structural profile —
//! instruction mix, block statistics, working-set-size distribution
//! (§IV-A's 16-line sufficiency statistic), and the CBWS differential skew.
//!
//! Usage: `cargo run --release -p cbws-harness --bin trace_info --
//! <workload> [FLAGS]`, or `-- --list` to list the workloads; `--help`
//! lists the flags (`cbws_harness::cli`). Of the flags every binary
//! accepts, only `--scale` changes anything here.

use cbws_core::analysis::{collect_block_histories, DifferentialSkew};
use cbws_harness::cli::{Cli, Group};
use cbws_telemetry::result;
use cbws_workloads::{by_name, trace_store, ALL};

fn main() {
    let cli = Cli::parse("trace_info", &[Group::TraceInfo, Group::Sweep, Group::Log]);
    if cli.has("--list") {
        result!("{:<26} {:<10} {:<16} pattern", "name", "suite", "group");
        for w in ALL {
            result!(
                "{:<26} {:<10} {:<16} {}",
                w.name,
                w.suite.to_string(),
                format!("{:?}", w.group),
                w.pattern
            );
        }
        cli.write_outputs();
        return;
    }
    let Some(name) = cli.value("<workload>") else {
        cli.fail("name a workload, or pass --list");
    };
    let Some(w) = by_name(name) else {
        cli.fail(&format!("unknown workload `{name}`; try --list"));
    };
    let scale = cli.scale;
    let trace = trace_store::shared().get(w, scale);
    let s = trace.stats();

    result!("workload : {} ({}, {:?})", w.name, w.suite, w.group);
    result!("pattern  : {}", w.pattern);
    result!("scale    : {scale}");
    result!("");
    result!("instructions      : {}", s.instructions);
    result!(
        "memory accesses   : {} ({} loads, {} stores)",
        s.mem_accesses,
        s.loads,
        s.stores
    );
    result!("branches          : {}", s.branches);
    result!(
        "annotated blocks  : {} dynamic, {} static",
        s.dynamic_blocks,
        s.static_blocks
    );
    result!(
        "in-block fraction : {:.1}% of instructions",
        s.block_instruction_fraction() * 100.0
    );
    result!(
        "blocks within 16 lines : {:.1}%  (the paper's >98% claim, §IV-A)",
        s.block_ws_within(16) * 100.0
    );

    // Working-set-size histogram (compact, non-zero buckets only).
    result!("\nper-block working-set sizes (lines -> blocks):");
    for (size, count) in s.ws_histogram.iter().enumerate() {
        if *count > 0 {
            let label = if size + 1 == s.ws_histogram.len() {
                format!("{size}+")
            } else {
                size.to_string()
            };
            result!("  {label:>4} : {count}");
        }
    }

    // Differential skew.
    let histories = collect_block_histories(&*trace, 16);
    let skew = DifferentialSkew::from_histories(histories.values());
    result!(
        "\nCBWS differential alphabet : {} distinct vectors",
        skew.distinct()
    );
    for frac in [0.01, 0.05, 0.25] {
        result!(
            "  top {:>4.0}% of vectors cover {:.1}% of iterations",
            frac * 100.0,
            skew.coverage_at(frac) * 100.0
        );
    }
    result!("\nmost frequent differentials:");
    for (d, c) in skew.counts.iter().take(5) {
        result!("  {c:>8} x {d}");
    }
    cli.write_outputs();
}
