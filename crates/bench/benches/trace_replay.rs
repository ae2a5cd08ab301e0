//! Trace-representation benchmark: replays the same workloads through the
//! simulator from the classic `Vec<TraceEvent>` (AoS) and from the packed
//! columnar handle the engine replays — the trace store's resident
//! `FramedTrace`, decoded by the one frame cursor — and times the
//! persistent trace store's cold path (generate + encode + write) against
//! its warm path (checksum-verified load). Writes the measurements to
//! `BENCH_trace.json` at the repository root.
//!
//! Two replay ratios come out of it:
//!
//! * `replay_kernel_ratio` — AoS replay over packed replay with **both
//!   representations pre-materialized**: how close the cursor's
//!   decode-and-assemble intake gets to plain slice iteration. Slice
//!   iteration streams events the memory system hands over for free, so
//!   this ratio sits a little under 1.0 — the decode work is real.
//! * `replay_speedup` — the decision-relevant comparison, gated at ≥ 1.0
//!   by `perf-history check`. Traces *live* packed (that is what the
//!   trace store holds and what the engine replays from), so the actual
//!   alternative to cursor replay is materializing the AoS vector first
//!   and then replaying it. Packed must beat that end-to-end path, or
//!   direct packed replay would be the wrong engine default.
//!
//! ```text
//! cargo bench -p cbws-bench --bench trace_replay -- \
//!     [--scale tiny|small|full] [--iters K]
//! ```
//!
//! Exits non-zero if the packed replay's records diverge from the AoS
//! replay's — representation must never change simulation output.

use cbws_bench::{arg_value, best_of, write_snapshot};
use cbws_harness::{PrefetcherKind, Simulator, SystemConfig};
use cbws_workloads::trace_store::TraceStore;
use cbws_workloads::{by_name, Scale, WorkloadSpec, ALL};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match arg_value(&args, "--scale").as_deref() {
        Some("small") => Scale::Small,
        Some("full") => Scale::Full,
        _ => Scale::Tiny,
    };
    let scale_name = scale.to_string();
    let iters: usize = arg_value(&args, "--iters")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let workloads: Vec<&'static WorkloadSpec> = if args.iter().any(|a| a == "--all") {
        ALL.iter().collect()
    } else {
        ["stencil-default", "histo-large", "mxm-linpack"]
            .iter()
            .map(|n| by_name(n).expect("registered"))
            .collect()
    };
    eprintln!(
        "[trace_replay] scale = {scale_name}, {} workloads, best of {iters}",
        workloads.len()
    );

    let sim = Simulator::new(SystemConfig::default());
    let kind = PrefetcherKind::CbwsSms;

    // Store paths: cold = generate + encode + write, warm = verified load.
    // A fresh `TraceStore` per measurement models a fresh process (no
    // in-memory memoization).
    let dir = std::env::temp_dir().join(format!("cbws-trace-replay-{}", std::process::id()));
    let cold_secs = best_of(iters, || {
        let _ = std::fs::remove_dir_all(&dir);
        let store = TraceStore::at(&dir);
        for w in &workloads {
            std::hint::black_box(store.get(w, scale));
        }
    });
    let warm_secs = best_of(iters, || {
        let store = TraceStore::at(&dir);
        for w in &workloads {
            std::hint::black_box(store.get(w, scale));
        }
    });
    eprintln!(
        "[trace_replay] store: cold {cold_secs:.4} s, warm {warm_secs:.4} s ({:.2}x)",
        cold_secs / warm_secs
    );

    // Materialize the AoS side and open the packed handles up front so
    // replay timing is pure.
    let traces: Vec<_> = workloads.iter().map(|w| w.generate(scale)).collect();
    let store = TraceStore::at(&dir);
    let packed: Vec<_> = workloads.iter().map(|w| store.get(w, scale)).collect();

    // Representation must not change output.
    for (w, (t, p)) in workloads.iter().zip(traces.iter().zip(packed.iter())) {
        let a = sim.run(w.name, true, t, kind);
        let b = sim.run(w.name, true, p, kind);
        assert_eq!(a, b, "packed replay diverged from AoS on {}", w.name);
    }
    eprintln!("[trace_replay] determinism: packed records identical to AoS");

    let aos_secs = best_of(iters, || {
        for (w, t) in workloads.iter().zip(traces.iter()) {
            std::hint::black_box(sim.run(w.name, true, t, kind));
        }
    });
    let packed_secs = best_of(iters, || {
        for (w, p) in workloads.iter().zip(packed.iter()) {
            std::hint::black_box(sim.run(w.name, true, p, kind));
        }
    });
    eprintln!(
        "[trace_replay] replay (pre-materialized): aos {aos_secs:.4} s, \
         packed {packed_secs:.4} s (kernel ratio {:.2}x)",
        aos_secs / packed_secs
    );

    // End-to-end from the stored representation: the store holds packed
    // traces, so replaying through AoS means materializing the event
    // vector first. This is the path direct packed replay has to beat.
    let aos_e2e_secs = best_of(iters, || {
        for (w, p) in workloads.iter().zip(packed.iter()) {
            let t = p.to_trace();
            std::hint::black_box(sim.run(w.name, true, &t, kind));
        }
    });
    eprintln!(
        "[trace_replay] replay (from stored packed): materialize+aos {aos_e2e_secs:.4} s, \
         packed {packed_secs:.4} s ({:.2}x)",
        aos_e2e_secs / packed_secs
    );
    drop((packed, store));
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        "{{\n  \"bench\": \"trace_replay\",\n  \"scale\": \"{scale_name}\",\n  \
         \"workloads\": {},\n  \"iterations\": {iters},\n  \
         \"replay_aos_seconds\": {aos_secs:.4},\n  \
         \"replay_packed_seconds\": {packed_secs:.4},\n  \
         \"replay_kernel_ratio\": {:.3},\n  \
         \"replay_aos_materialized_seconds\": {aos_e2e_secs:.4},\n  \
         \"replay_speedup\": {:.3},\n  \
         \"store_cold_seconds\": {cold_secs:.4},\n  \
         \"store_warm_seconds\": {warm_secs:.4},\n  \
         \"store_warm_speedup\": {:.3},\n  \"identical_records\": true\n}}\n",
        workloads.len(),
        aos_secs / packed_secs,
        aos_e2e_secs / packed_secs,
        cold_secs / warm_secs
    );
    write_snapshot("trace_replay", "BENCH_trace.json", &json);
}
