//! **Extension experiment**: sensitivity of the headline result to the L2
//! capacity and to the memory latency. The paper evaluates a single design
//! point (2 MB L2, 300-cycle memory); this sweep checks that the CBWS+SMS
//! advantage is not an artifact of that point.
//!
//! Usage: `cargo run --release -p cbws-harness --bin sensitivity -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::save_csv;
use cbws_harness::{EngineRun, PrefetcherKind, RunManifest, SweepSpec, SystemConfig};
use cbws_stats::{geomean, TextTable};
use cbws_telemetry::{result, status};
use cbws_workloads::mi_suite;

const KINDS: [PrefetcherKind; 2] = [PrefetcherKind::Sms, PrefetcherKind::CbwsSms];

/// Runs the MI suite under `system` and returns the geomean CBWS+SMS / SMS
/// speedup plus the run. Each point's config is part of the result-store
/// key, so cached entries from other points are never served here.
fn geomean_speedup(cli: &Cli, system: SystemConfig) -> (f64, EngineRun) {
    let run = cli
        .sweep(&SweepSpec {
            system,
            ..cli.spec(mi_suite(), KINDS)
        })
        .run;
    // Workload-major order: each pair is (SMS, CBWS+SMS) for one workload.
    let speedup = geomean(run.records.chunks(2).map(|p| p[1].ipc() / p[0].ipc()));
    (speedup, run)
}

fn main() {
    let cli = Cli::parse("sensitivity", COMMON);
    // Every point's engine run, folded into one for the manifest.
    let mut total = EngineRun::default();

    // L2 capacity sweep.
    let mut l2 = TextTable::new(vec![
        "L2 size".into(),
        "CBWS+SMS vs SMS (geomean, MI)".into(),
    ]);
    for mb in [1u64, 2, 4] {
        let mut cfg = SystemConfig::default();
        cfg.mem.l2.size_bytes = mb * 1024 * 1024;
        status!("[sensitivity] L2 = {mb} MB");
        let (speedup, run) = geomean_speedup(&cli, cfg);
        total.merge(run);
        l2.row(vec![format!("{mb} MB"), format!("{speedup:.3}")]);
    }
    result!("Sensitivity — L2 capacity (Table II point: 2 MB)\n\n{l2}");
    save_csv("sensitivity_l2", &l2);

    // Memory latency sweep.
    let mut lat = TextTable::new(vec![
        "memory latency".into(),
        "CBWS+SMS vs SMS (geomean, MI)".into(),
    ]);
    for cycles in [150u64, 300, 600] {
        let mut cfg = SystemConfig::default();
        cfg.mem.memory_latency = cycles;
        status!("[sensitivity] memory = {cycles} cycles");
        let (speedup, run) = geomean_speedup(&cli, cfg);
        total.merge(run);
        lat.row(vec![format!("{cycles} cycles"), format!("{speedup:.3}")]);
    }
    result!("Sensitivity — memory latency (Table II point: 300 cycles)\n\n{lat}");
    save_csv("sensitivity_latency", &lat);

    let manifest = RunManifest::new(
        "sensitivity",
        cli.scale,
        mi_suite().iter().map(|w| w.name),
        KINDS,
        SystemConfig::default(),
    )
    .with_run(&total);
    manifest.save("sensitivity_l2");
    manifest.save("sensitivity_latency");
}
