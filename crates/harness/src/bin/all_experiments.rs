//! Regenerates every table and figure of the paper in one run, sharing a
//! single sweep across Figs. 12-15. Text tables go to stdout; CSVs and SVG
//! figures go to `results/`, each with a `.manifest.json` describing the
//! run that produced it.
//!
//! Usage: `cargo run --release -p cbws-harness --bin all_experiments
//! [--scale tiny|small|full] [--jobs N] [--resume] [--no-result-cache]
//! [--quiet|--progress]`

use cbws_harness::experiments::{
    fig01_loop_fraction, fig03_stencil_cbws, fig05_differential_skew, fig05_svg, fig12_mpki,
    fig12_svg, fig13_svg, fig13_timeliness, fig14_speedup, fig14_svg, fig15_perf_cost, fig15_svg,
    jobs_from_args, phase_report, save_csv, save_svg, scale_from_args, session_spans, sweep_engine,
    tab02_parameters, tab03_storage, write_session_spans,
};
use cbws_harness::{PrefetcherKind, RunManifest, SystemConfig};
use cbws_telemetry::{detail, result, status};
use std::collections::BTreeMap;
use std::time::Instant;

/// Runs one top-level step of the run inside a `phase.<name>` span and
/// records its wall-clock seconds under `name` in `steps`.
fn step<R>(steps: &mut BTreeMap<String, f64>, name: &str, f: impl FnOnce() -> R) -> R {
    let _span = session_spans().begin(&format!("phase.{name}"));
    let start = Instant::now();
    let out = f();
    steps.insert(name.to_string(), start.elapsed().as_secs_f64());
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cbws_telemetry::log::apply_cli_flags(&args);
    let scale = scale_from_args();
    status!("[all] scale = {scale}");
    let cfg = SystemConfig::default();
    let mut steps = BTreeMap::new();

    step(&mut steps, "static_tables", || {
        let tab02 = tab02_parameters(&cfg);
        result!("Table II — simulation parameters\n\n{tab02}");
        save_csv("tab02_parameters", &tab02);

        let tab03 = tab03_storage(&cfg);
        result!("Table III — prefetcher storage budgets\n\n{tab03}");
        save_csv("tab03_storage", &tab03);

        result!("Figs. 3 & 4 — Stencil CBWS vectors and differentials\n");
        result!("{}", fig03_stencil_cbws(8));
    });

    step(&mut steps, "trace_analysis", || {
        let fig01 = fig01_loop_fraction(scale);
        result!("Fig. 1 — runtime fraction in tight innermost loops\n\n{fig01}");
        save_csv("fig01_loop_fraction", &fig01);

        let fig05 = fig05_differential_skew(scale);
        result!("Fig. 5 — CBWS differential skew\n\n{fig05}");
        save_csv("fig05_differential_skew", &fig05);
        save_svg("fig05_differential_skew", &fig05_svg(scale));
    });

    // One engine sweep over all 30 benchmarks backs Figs. 12-15.
    let all: Vec<_> = cbws_workloads::ALL.iter().collect();
    let run = step(&mut steps, "sweep", || {
        sweep_engine(scale, &all, jobs_from_args())
    });
    let records = &run.records;

    step(&mut steps, "figures", || {
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
    let mut manifest = RunManifest::new(
        "all_experiments",
        scale,
        all.iter().map(|w| w.name),
        PrefetcherKind::ALL,
        cfg,
    )
    .with_run(&run);
    manifest.phases.extend(steps);
    manifest.save("all_experiments");
    write_session_spans();

    detail!("[all] phase timings:\n{}", phase_report(&manifest.phases));
    status!("[all] text tables above; CSVs and SVG figures in results/");
}
