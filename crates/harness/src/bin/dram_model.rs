//! **Extension experiment**: re-runs the headline comparison under the
//! banked-DRAM memory model instead of the paper's flat 300-cycle latency.
//!
//! Under DRAM, wrong prefetches occupy banks and delay demand fills, so a
//! wasteful prefetcher pays a *performance* price, not just a bandwidth
//! one — a stress test for the CBWS+SMS result.
//!
//! Usage: `cargo run --release -p cbws-harness --bin dram_model
//! [--scale tiny|small|full] [--jobs N] [--resume] [--no-result-cache]
//! [--quiet|--progress]`

use cbws_harness::experiments::{
    get, jobs_from_args, result_cache_from_args, save_csv, scale_from_args, session_spans,
    write_session_spans,
};
use cbws_harness::{Engine, EngineConfig, EngineRun, PrefetcherKind, RunManifest, SystemConfig};
use cbws_sim_mem::DramConfig;
use cbws_stats::{geomean, TextTable};
use cbws_telemetry::{result, status, Telemetry};
use cbws_workloads::mi_suite;

const KINDS: [PrefetcherKind; 3] = [
    PrefetcherKind::None,
    PrefetcherKind::Sms,
    PrefetcherKind::CbwsSms,
];

fn run_suite(scale: cbws_workloads::Scale, cfg: SystemConfig, jobs: usize) -> EngineRun {
    Engine::new(EngineConfig {
        jobs,
        system: cfg,
        telemetry: Telemetry::disabled(),
        spans: session_spans().clone(),
        result_cache: result_cache_from_args(),
        ..EngineConfig::default()
    })
    .run(scale, &mi_suite(), &KINDS)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cbws_telemetry::log::apply_cli_flags(&args);
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    status!("[dram] scale = {scale}");

    let flat_cfg = SystemConfig::default();
    let mut dram_cfg = SystemConfig::default();
    dram_cfg.mem.dram = Some(DramConfig::default());

    status!("[dram] flat model...");
    let flat_run = run_suite(scale, flat_cfg, jobs);
    status!("[dram] banked DRAM model...");
    let dram_run = run_suite(scale, dram_cfg, jobs);
    let (flat, dram) = (&flat_run.records, &dram_run.records);

    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "flat: CBWS+SMS/SMS".into(),
        "dram: CBWS+SMS/SMS".into(),
    ]);
    let mut flat_ratios = Vec::new();
    let mut dram_ratios = Vec::new();
    for w in mi_suite() {
        let fr = get(flat, w.name, "CBWS+SMS").ipc() / get(flat, w.name, "SMS").ipc();
        let dr = get(dram, w.name, "CBWS+SMS").ipc() / get(dram, w.name, "SMS").ipc();
        flat_ratios.push(fr);
        dram_ratios.push(dr);
        table.row(vec![
            w.name.to_string(),
            format!("{fr:.3}"),
            format!("{dr:.3}"),
        ]);
    }
    table.row(vec![
        "geomean".into(),
        format!("{:.3}", geomean(flat_ratios)),
        format!("{:.3}", geomean(dram_ratios)),
    ]);

    result!("Headline speedup under flat vs banked-DRAM memory\n\n{table}");
    save_csv("dram_model", &table);
    let mut run = flat_run;
    run.merge(dram_run);
    write_session_spans();
    RunManifest::new(
        "dram_model",
        scale,
        mi_suite().iter().map(|w| w.name),
        KINDS,
        dram_cfg,
    )
    .with_run(&run)
    .save("dram_model");
}
