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
//! Usage: `cargo run --release -p cbws-harness --bin ext_comparison -- [FLAGS]`;
//! `--help` lists the flags every binary accepts (`cbws_harness::cli`).

use cbws_harness::cli::{Cli, COMMON};
use cbws_harness::experiments::{get, save_csv};
use cbws_harness::{PrefetcherKind, SystemConfig};
use cbws_stats::{geomean, TextTable};
use cbws_telemetry::result;
use cbws_workloads::mi_suite;

fn main() {
    let cli = Cli::parse("ext_comparison", COMMON);
    let kinds: Vec<PrefetcherKind> = PrefetcherKind::ALL
        .into_iter()
        .chain(PrefetcherKind::EXTENDED)
        .collect();
    let out = cli.sweep(&cli.spec(mi_suite(), kinds.iter().copied()));
    let records = &out.run.records;

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
    out.manifest.save("ext_comparison");

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
