//! **Extension experiment** (beyond the paper): compares the paper's seven
//! configurations against five additional schemes —
//!
//! * AMPM (Ishii et al.), the zone-based prefetcher the paper's related
//!   work argues finds within-iteration patterns before cross-iteration
//!   ones;
//! * FDP(SMS) (Srinath et al.), dynamic-feedback throttling on SMS, versus
//!   CBWS's *static* compiler-hint-driven aggressiveness;
//! * CBWSx4, a four-context CBWS that survives interleaved tight loops;
//! * STeMS-lite (Somogyi et al.), temporally chained paced footprints at
//!   the ~640 KB storage point the paper contrasts against;
//! * Markov (Joseph & Grunwald), pair-correlation prefetching.
//!
//! Usage: `cargo run --release -p cbws-harness --bin ext_comparison
//! [--scale tiny|small|full] [--jobs N] [--resume] [--no-result-cache]
//! [--quiet|--progress]`

use cbws_harness::experiments::{
    get, jobs_from_args, result_cache_from_args, save_csv, scale_from_args, session_spans,
    write_session_spans,
};
use cbws_harness::{Engine, EngineConfig, PrefetcherKind, RunManifest, SystemConfig};
use cbws_stats::{geomean, TextTable};
use cbws_telemetry::{result, status};
use cbws_workloads::mi_suite;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cbws_telemetry::log::apply_cli_flags(&args);
    let scale = scale_from_args();
    status!("[ext] scale = {scale}");
    let kinds: Vec<PrefetcherKind> = PrefetcherKind::ALL
        .into_iter()
        .chain(PrefetcherKind::EXTENDED)
        .collect();

    let suite = mi_suite();
    let engine = Engine::new(EngineConfig {
        jobs: jobs_from_args(),
        spans: session_spans().clone(),
        result_cache: result_cache_from_args(),
        ..EngineConfig::default()
    });
    let run = engine.run(scale, &suite, &kinds);
    status!(
        "[ext] {} jobs on {} workers in {:.2} s",
        run.job_count,
        run.workers,
        run.wall_seconds
    );
    let records = &run.records;

    let mut table = TextTable::new(
        std::iter::once("benchmark".to_string())
            .chain(kinds.iter().map(|k| k.name().to_string()))
            .collect(),
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for w in mi_suite() {
        let sms = get(records, w.name, "SMS").ipc();
        let mut row = vec![w.name.to_string()];
        for (i, &kind) in kinds.iter().enumerate() {
            let v = get(records, w.name, kind.name()).ipc() / sms;
            row.push(format!("{v:.3}"));
            cols[i].push(v);
        }
        table.row(row);
    }
    let mut avg = vec!["geomean".to_string()];
    for c in &cols {
        avg.push(format!("{:.3}", geomean(c.iter().copied())));
    }
    table.row(avg);

    result!("Extended comparison — IPC normalized to SMS (MI suite)\n");
    result!("{table}");
    save_csv("ext_comparison", &table);
    write_session_spans();
    RunManifest::new(
        "ext_comparison",
        scale,
        suite.iter().map(|w| w.name),
        kinds.iter().copied(),
        SystemConfig::default(),
    )
    .with_run(&run)
    .save("ext_comparison");

    // Storage context for the comparison.
    let cfg = SystemConfig::default();
    result!("Storage budgets:");
    for &kind in &kinds {
        result!(
            "  {:<10} {:>7.2} KB",
            kind.name(),
            kind.storage_bits(&cfg) as f64 / 8192.0
        );
    }
}
