//! Trace inspection tool: reads a workload's trace from the trace store
//! (generating it there on a miss) and prints its structural profile —
//! instruction mix, block statistics, working-set-size distribution
//! (§IV-A's 16-line sufficiency statistic), and the CBWS differential skew.
//!
//! Usage: `cargo run --release -p cbws-harness --bin trace_info --
//! <workload> [--scale tiny|small|full] [--jobs N]`
//!
//! `--jobs` is accepted for CLI uniformity but has no effect: this binary
//! inspects a single trace.
//!
//! List available workloads with `--list`.

use cbws_core::analysis::{collect_block_histories, DifferentialSkew};
use cbws_harness::experiments::{jobs_from_args, scale_from_args};
use cbws_telemetry::result;
use cbws_workloads::{by_name, trace_store, ALL};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cbws_telemetry::log::apply_cli_flags(&args);
    if args.iter().any(|a| a == "--list") {
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
        return;
    }
    // The workload name is the first token that is neither a flag nor the
    // value of a value-taking flag (`--scale tiny`, `--jobs 4`).
    let mut skip_value = false;
    let Some(name) = args.iter().find(|a| {
        if skip_value {
            skip_value = false;
            return false;
        }
        if *a == "--scale" || *a == "--jobs" {
            skip_value = true;
            return false;
        }
        !a.starts_with("--")
    }) else {
        eprintln!("usage: trace_info <workload> [--scale tiny|small|full] [--jobs N] | --list");
        std::process::exit(2);
    };
    let Some(w) = by_name(name) else {
        eprintln!("unknown workload `{name}`; try --list");
        std::process::exit(2);
    };

    let scale = scale_from_args();
    let _ = jobs_from_args(); // validated for CLI uniformity; no sweep here
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
}
