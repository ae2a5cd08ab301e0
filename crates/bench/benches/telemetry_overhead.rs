//! Measures the cost of the telemetry layer and checks its claim: a hook
//! on a disabled handle costs a small fraction of the same hook enabled.
//!
//! * primitive ops — `count`/`observe` per call, on a disabled handle (one
//!   branch on an `Option`) and on an enabled one (a lock and a registry
//!   update);
//! * end to end — a full `Simulator::run` of CBWS+SMS over the Tiny
//!   stencil trace, with telemetry disabled and enabled.
//!
//! ```text
//! cargo bench -p cbws-bench --bench telemetry_overhead
//! ```
//!
//! The disabled primitives are the entire per-hook cost every ordinary
//! (non-traced) run pays for the instrumentation. The bench exits with
//! status 1 when a disabled hook costs more than [`DISABLED_CEILING`] of
//! its enabled counterpart; a ratio of two timings on one host holds on
//! another where an absolute nanosecond bound would not.

use cbws_bench::{best_of, ns_per_call, Args};
use cbws_harness::{PrefetcherKind, Simulator, SystemConfig};
use cbws_telemetry::Telemetry;
use cbws_workloads::{by_name, trace_store, Scale};
use std::hint::black_box;

/// The largest disabled ÷ enabled cost per call that passes.
const DISABLED_CEILING: f64 = 0.1;

/// Calls per timed batch of a primitive.
const CALLS: u64 = 2_000_000;

/// Timed batches (primitives) or runs (end to end); each keeps its best.
const ITERS: usize = 5;

/// Times `hook` per call on a disabled and on an enabled handle, prints
/// both and their ratio, and returns whether the ratio passes.
fn check(op: &str, hook: impl Fn(&Telemetry)) -> bool {
    let per_call = |t: &Telemetry| ns_per_call(ITERS, CALLS, || hook(black_box(t)));
    let (off, on) = (
        per_call(&Telemetry::disabled()),
        per_call(&Telemetry::enabled_default()),
    );
    let ratio = off / on;
    let pass = ratio <= DISABLED_CEILING;
    println!(
        "telemetry/{op:<8} disabled {off:>6.2} ns  enabled {on:>6.2} ns  \
         ratio {ratio:.4} (ceiling {DISABLED_CEILING}) {}",
        if pass { "ok" } else { "FAIL" }
    );
    pass
}

fn main() {
    Args::parse("telemetry_overhead", &[]);

    let passed = check("count", |t| t.count(black_box("l2.prefetch.issued"), 1))
        & check("observe", |t| {
            t.observe(black_box("l2.demand.latency"), black_box(300))
        });

    let trace =
        trace_store::shared().get(by_name("stencil-default").expect("registered"), Scale::Tiny);
    let sim_secs = |telemetry: Telemetry| {
        let sim = Simulator::with_telemetry(SystemConfig::default(), telemetry);
        best_of(ITERS, || {
            black_box(sim.run("stencil-default", true, &trace, PrefetcherKind::CbwsSms));
        })
    };
    let (off, on) = (
        sim_secs(Telemetry::disabled()),
        sim_secs(Telemetry::enabled_default()),
    );
    println!(
        "sim/CBWS+SMS stencil  disabled {:.2} ms  enabled {:.2} ms  ({:.2}x)",
        off * 1e3,
        on * 1e3,
        on / off
    );

    if !passed {
        eprintln!(
            "[telemetry_overhead] a disabled hook costs more than \
             {DISABLED_CEILING} of an enabled one"
        );
        std::process::exit(1);
    }
}
