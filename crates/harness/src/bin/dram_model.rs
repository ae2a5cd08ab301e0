//! **Extension experiment**: re-runs the headline comparison under the
//! banked-DRAM memory model instead of the paper's flat 300-cycle latency.
//!
//! Under DRAM, wrong prefetches occupy banks and delay demand fills, so a
//! wasteful prefetcher pays a *performance* price, not just a bandwidth
//! one — a stress test for the CBWS+SMS result.
//!
//! Usage: `cargo run --release -p cbws-harness --bin dram_model -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::{get, save_csv};
use cbws_harness::{PrefetcherKind, SweepSpec, SystemConfig};
use cbws_sim_mem::DramConfig;
use cbws_stats::{geomean, TextTable};
use cbws_telemetry::{result, status};
use cbws_workloads::mi_suite;

const KINDS: [PrefetcherKind; 3] = [
    PrefetcherKind::None,
    PrefetcherKind::Sms,
    PrefetcherKind::CbwsSms,
];

fn main() {
    let cli = Cli::parse("dram_model", COMMON);
    let flat_spec = cli.spec(mi_suite(), KINDS);
    let mut dram_cfg = SystemConfig::default();
    dram_cfg.mem.dram = Some(DramConfig::default());
    let dram_spec = SweepSpec {
        system: dram_cfg,
        ..flat_spec.clone()
    };

    status!("[dram] flat model...");
    let flat_out = cli.sweep(&flat_spec);
    status!("[dram] banked DRAM model...");
    let dram_out = cli.sweep(&dram_spec);
    let (flat, dram) = (&flat_out.run.records, &dram_out.run.records);

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
    // One manifest for both runs, under the DRAM configuration.
    let mut run = flat_out.run;
    run.merge(dram_out.run);
    dram_out.manifest.with_run(&run).save("dram_model");
}
