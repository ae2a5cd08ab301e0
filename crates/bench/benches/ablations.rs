//! Ablations of the design choices DESIGN.md §7 calls out:
//!
//! * differential history table size (16 vs 64 vs 256 entries) — the
//!   fft/streamcluster thrash recovery;
//! * maximum CBWS vector length (16 vs 64 vs 256 lines) — the bzip2
//!   capacity effect (and the paper's claim that 16 suffices elsewhere);
//! * multi-step prediction depth (1..4) — the Fig. 7 timeliness argument;
//! * train-on-hits vs misses-only — the paper's central "compiler hints
//!   enable aggressiveness" claim;
//! * hybrid SMS-suppression policy.
//!
//! ```text
//! cargo bench -p cbws-bench --bench ablations
//! ```
//!
//! Every variant replays a Tiny trace from the trace store. Each row
//! prints the variant's MPKI and IPC — the ablation table EXPERIMENTS.md
//! quotes — and its best-of-[`RUNS`] wall time.

use cbws_bench::{best_of, Args};
use cbws_core::{CbwsConfig, CbwsPrefetcher, CbwsSmsPrefetcher, SmsSuppression};
use cbws_harness::PrefetchedMemory;
use cbws_prefetchers::{Prefetcher, SmsConfig};
use cbws_sim_cpu::{Core, CoreConfig};
use cbws_sim_mem::{HierarchyConfig, MemoryHierarchy};
use cbws_stats::RunRecord;
use cbws_trace::FramedTrace;
use cbws_workloads::{by_name, trace_store, Scale};
use std::hint::black_box;
use std::sync::Arc;

/// Timed runs per variant; each row reports the best.
const RUNS: usize = 10;

/// One replay of `trace` under `prefetcher`, on the default core and
/// hierarchy.
fn run(trace: &FramedTrace, prefetcher: impl Prefetcher) -> RunRecord {
    let name = prefetcher.name();
    let mut mem =
        PrefetchedMemory::new(MemoryHierarchy::new(HierarchyConfig::default()), prefetcher);
    let cpu = Core::new(CoreConfig::default()).run(trace, &mut mem);
    RunRecord {
        workload: "ablation".into(),
        memory_intensive: true,
        prefetcher: name.into(),
        cpu,
        mem: mem.finish(),
    }
}

/// Prints one ablation row: `label`, then the MPKI, IPC and best wall
/// time of `trace` under the prefetcher `build` makes.
fn row<P: Prefetcher>(trace: &FramedTrace, label: &str, build: impl Fn() -> P) {
    let r = run(trace, build());
    let secs = best_of(RUNS, || {
        black_box(run(trace, build()));
    });
    println!(
        "  {label}: MPKI {:.2}  IPC {:.3}  ({:.0} µs)",
        r.mpki(),
        r.ipc(),
        secs * 1e6
    );
}

/// The Tiny trace of workload `name`, from the shared trace store.
fn trace(name: &str) -> Arc<FramedTrace> {
    trace_store::shared().get(by_name(name).expect("registered"), Scale::Tiny)
}

fn main() {
    Args::parse("ablations", &[]);

    // fft thrashes a 16-entry table; a larger table recovers some hits.
    let fft = trace("fft-simlarge");
    println!("[ablation] history table size on fft:");
    for table_entries in [16usize, 64, 256] {
        let cfg = CbwsConfig {
            table_entries,
            ..CbwsConfig::default()
        };
        row(&fft, &format!("{table_entries:>3} entries"), || {
            CbwsPrefetcher::new(cfg)
        });
    }

    // bzip2's 256-line blocks overflow a 16-line vector; 64 helps, at a
    // storage cost the paper judges unjustified (§VII-C).
    let bzip2 = trace("401.bzip2-source");
    println!("\n[ablation] CBWS vector capacity on bzip2:");
    for max_vector in [16usize, 64, 256] {
        let cfg = CbwsConfig {
            max_vector,
            ..CbwsConfig::default()
        };
        let label = format!("{max_vector:>3} lines ({} bits)", cfg.storage_bits());
        row(&bzip2, &label, || CbwsPrefetcher::new(cfg));
    }

    // Deeper multi-step prediction buys timeliness on the stencil.
    let stencil = trace("stencil-default");
    println!("\n[ablation] prediction depth on stencil:");
    for prediction_depth in 1..=4usize {
        let cfg = CbwsConfig {
            prediction_depth,
            ..CbwsConfig::default()
        };
        row(&stencil, &format!("depth {prediction_depth}"), || {
            CbwsPrefetcher::new(cfg)
        });
    }

    // The paper's core aggressiveness claim: tracking L1 hits (safe inside
    // compiler-annotated loops) versus the conservative misses-only
    // configuration static prefetchers are stuck with.
    println!("\n[ablation] observe L1 hits vs misses-only on stencil:");
    for observe_l1_hits in [true, false] {
        let cfg = CbwsConfig {
            observe_l1_hits,
            ..CbwsConfig::default()
        };
        row(&stencil, &format!("observe_hits={observe_l1_hits}"), || {
            CbwsPrefetcher::new(cfg)
        });
    }

    // Hybrid arbitration: how much SMS to silence.
    for (workload, name) in [
        ("462.libquantum-ref", "libquantum"),
        ("stencil-default", "stencil"),
    ] {
        let trace = trace(workload);
        println!("\n[ablation] SMS suppression policy on {name}:");
        for policy in [
            SmsSuppression::Never,
            SmsSuppression::WhenConfident,
            SmsSuppression::WhenCovering,
        ] {
            row(&trace, &format!("{policy:?}"), || {
                CbwsSmsPrefetcher::with_policy(CbwsConfig::default(), SmsConfig::default(), policy)
            });
        }
    }
}
