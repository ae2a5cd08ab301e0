//! Regenerates every table and figure of the paper in one run, sharing a
//! single sweep across Figs. 12-15. Text tables go to stdout; CSVs and SVG
//! figures go to `results/`, each with a `.manifest.json` describing the
//! run that produced it.
//!
//! Usage: `cargo run --release -p cbws-harness --bin all_experiments -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::{
    fig01_loop_fraction, fig03_stencil_cbws, fig05_differential_skew, fig05_svg, fig12_mpki,
    fig12_svg, fig13_svg, fig13_timeliness, fig14_speedup, fig14_svg, fig15_perf_cost, fig15_svg,
    phase_report, save_csv, save_svg, tab02_parameters, tab03_storage,
};
use cbws_harness::{PrefetcherKind, SystemConfig};
use cbws_telemetry::{detail, result, status};
use std::collections::BTreeMap;
use std::time::Instant;

/// Runs one top-level step of the run inside a `phase.<name>` span and
/// records its wall-clock seconds under `name` in `steps`.
fn step<R>(cli: &Cli, steps: &mut BTreeMap<String, f64>, name: &str, f: impl FnOnce() -> R) -> R {
    let _span = cli.session().spans.begin(&format!("phase.{name}"));
    let start = Instant::now();
    let out = f();
    steps.insert(name.to_string(), start.elapsed().as_secs_f64());
    out
}

fn main() {
    let cli = Cli::parse("all_experiments", COMMON);
    let scale = cli.scale;
    status!("[all] scale = {scale}");
    let cfg = SystemConfig::default();
    let mut steps = BTreeMap::new();

    step(&cli, &mut steps, "static_tables", || {
        let tab02 = tab02_parameters(&cfg);
        result!("Table II — simulation parameters\n\n{tab02}");
        save_csv("tab02_parameters", &tab02);

        let tab03 = tab03_storage(&cfg);
        result!("Table III — prefetcher storage budgets\n\n{tab03}");
        save_csv("tab03_storage", &tab03);

        result!("Figs. 3 & 4 — Stencil CBWS vectors and differentials\n");
        result!("{}", fig03_stencil_cbws(8));
    });

    step(&cli, &mut steps, "trace_analysis", || {
        let fig01 = fig01_loop_fraction(scale);
        result!("Fig. 1 — runtime fraction in tight innermost loops\n\n{fig01}");
        save_csv("fig01_loop_fraction", &fig01);

        let fig05 = fig05_differential_skew(scale);
        result!("Fig. 5 — CBWS differential skew\n\n{fig05}");
        save_csv("fig05_differential_skew", &fig05);
        save_svg("fig05_differential_skew", &fig05_svg(scale));
    });

    // One engine sweep over all 30 benchmarks backs Figs. 12-15.
    let all = cbws_workloads::ALL.iter().collect();
    let out = step(&cli, &mut steps, "sweep", || {
        cli.sweep(&cli.spec(all, PrefetcherKind::ALL))
    });
    let records = &out.run.records;

    step(&cli, &mut steps, "figures", || {
        let fig12 = fig12_mpki(records);
        result!("Fig. 12 — L2 MPKI (lower is better)\n\n{fig12}");
        save_csv("fig12_mpki", &fig12);
        save_svg("fig12_mpki", &fig12_svg(records));

        let fig13 = fig13_timeliness(records);
        result!("Fig. 13 — timeliness/accuracy (% of demand L2 accesses)\n\n{fig13}");
        save_csv("fig13_timeliness", &fig13);
        save_svg("fig13_timeliness", &fig13_svg(records));

        let fig14 = fig14_speedup(records);
        result!("Fig. 14 — IPC normalized to SMS (higher is better)\n\n{fig14}");
        save_csv("fig14_speedup", &fig14);
        save_svg("fig14_speedup", &fig14_svg(records));

        let fig15 = fig15_perf_cost(records);
        result!("Fig. 15 — IPC / bytes read, normalized to no-prefetch\n\n{fig15}");
        save_csv("fig15_perf_cost", &fig15);
        save_svg("fig15_perf_cost", &fig15_svg(records));
    });

    // The manifest's phases: the engine's job phases plus the four steps.
    let mut manifest = out.manifest;
    manifest.phases.extend(steps);
    manifest.save("all_experiments");
    cli.write_outputs();

    detail!("[all] phase timings:\n{}", phase_report(&manifest.phases));
    status!("[all] text tables above; CSVs and SVG figures in results/");
}
