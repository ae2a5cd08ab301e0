//! Streamed-replay benchmark: replays the same stored traces once from
//! fully resident frames (the warm in-memory path) and once through the
//! disk-backed read-ahead byte source of the same `FramedTrace` handle (the path the engine picks
//! above `CBWS_STREAM_THRESHOLD_BYTES`), and publishes the throughput
//! ratio, read-ahead stall fraction, and peak resident footprint of the
//! streamed pass. Writes the measurements to `BENCH_stream.json` at the
//! repository root.
//!
//! The two legs are timed in alternating pairs, best of `--iters` each.
//! The streamed timing deliberately includes opening and validating the
//! store file each iteration: that is the real cost a fresh process pays
//! to replay a trace too big to keep resident, and it is the number the
//! `stream_throughput_ratio >= 0.7` gate in `perf-history check` pins.
//! The peak-resident figure comes from a counting global allocator, so it
//! is exact live-heap, not an RSS estimate.
//!
//! ```text
//! cargo bench -p cbws-bench --bench stream_replay -- \
//!     [--scale tiny|small|full] [--iters K]
//! ```
//!
//! Exits non-zero if the streamed records diverge from the in-memory
//! replay's — the replay representation must never change simulation
//! output.

use cbws_bench::{arg_value, time, write_snapshot};
use cbws_harness::{PrefetcherKind, Simulator, SystemConfig};
use cbws_telemetry::Telemetry;
use cbws_workloads::trace_store::TraceStore;
use cbws_workloads::{by_name, Scale, WorkloadSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`] with live/peak accounting, so the streamed pass can report
/// its exact high-water heap mark alongside the wall clocks.
struct CountingAlloc;

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match arg_value(&args, "--scale").as_deref() {
        Some("tiny") => Scale::Tiny,
        Some("full") => Scale::Full,
        _ => Scale::Small,
    };
    let scale_name = scale.to_string();
    let iters: usize = arg_value(&args, "--iters")
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1);
    let workloads: Vec<&'static WorkloadSpec> = ["stencil-default", "histo-large", "mxm-linpack"]
        .iter()
        .map(|n| by_name(n).expect("registered"))
        .collect();
    eprintln!(
        "[stream_replay] scale = {scale_name}, {} workloads, best of {iters}",
        workloads.len()
    );

    let sim = Simulator::new(SystemConfig::default());
    let kind = PrefetcherKind::CbwsSms;

    // Cold-generate the store files once, then keep the frames resident
    // for the in-memory side. A separate store instance per side keeps the
    // per-store replay memoization from letting one side's decision leak
    // into the other's.
    let dir = std::env::temp_dir().join(format!("cbws-stream-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mem_store = TraceStore::at(&dir);
    let resident: Vec<_> = workloads.iter().map(|w| mem_store.get(w, scale)).collect();
    let events: usize = resident.iter().map(|t| t.event_count()).sum();
    let resident_bytes: u64 = resident.iter().map(|t| t.payload_bytes()).sum();
    let file_bytes: u64 = workloads
        .iter()
        .map(|w| {
            std::fs::metadata(dir.join(format!("{}-{scale_name}.cbwstrace", w.name)))
                .map(|m| m.len())
                .unwrap_or(0)
        })
        .sum();

    // Representation must not change output: streamed records must equal
    // the in-memory replay's, workload by workload.
    {
        let stream_store = TraceStore::at(&dir);
        for (w, t) in workloads.iter().zip(resident.iter()) {
            let src = stream_store.replay_source(w, scale, 0);
            assert!(src.is_streamed(), "threshold 0 must stream {}", w.name);
            let a = sim.run(w.name, true, &**t, kind);
            let b = sim.run(w.name, true, &src, kind);
            assert_eq!(
                a, b,
                "streamed replay diverged from in-memory on {}",
                w.name
            );
        }
    }
    eprintln!("[stream_replay] determinism: streamed records identical to in-memory");

    // The two legs run in alternating pairs, each keeping its best of
    // `iters`, so a drift in host speed lands on both sides of the ratio
    // instead of on one. The in-memory leg replays resident frames: pure
    // simulate. The streamed leg opens a fresh store each time, so every
    // pass pays open + footer validation + frame checksums, exactly like a
    // fresh process replaying a trace it cannot afford to load.
    let (mut memory_secs, mut stream_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iters {
        memory_secs = memory_secs.min(time(|| {
            for (w, t) in workloads.iter().zip(resident.iter()) {
                std::hint::black_box(sim.run(w.name, true, &**t, kind));
            }
        }));
        stream_secs = stream_secs.min(time(|| {
            let store = TraceStore::at(&dir);
            for w in &workloads {
                let src = store.replay_source(w, scale, 0);
                std::hint::black_box(sim.run(w.name, true, &src, kind));
            }
        }));
    }
    let ratio = memory_secs / stream_secs;
    eprintln!(
        "[stream_replay] replay: memory {memory_secs:.4} s, streamed {stream_secs:.4} s \
         (throughput ratio {ratio:.3}, {:.1} M events/s streamed)",
        events as f64 / stream_secs / 1e6
    );

    // Instrumented streamed pass: read-ahead stall accounting via the
    // store's telemetry sink, peak live heap via the counting allocator.
    // Separate from the timed loops so instrumentation cost never lands in
    // the published wall clocks.
    let telemetry = Telemetry::enabled_default();
    let probe_store = TraceStore::at(&dir);
    probe_store.set_telemetry(telemetry.clone());
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    for w in &workloads {
        let src = probe_store.replay_source(w, scale, 0);
        std::hint::black_box(sim.run(w.name, true, &src, kind));
    }
    let peak_stream_bytes = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    let counter = |name: &str| {
        telemetry
            .with_metrics(|m| m.counter(name).unwrap_or(0))
            .unwrap_or(0)
    };
    let frames = counter("trace.stream.frames");
    let stalls = counter("trace.stream.stalls");
    let stall_fraction = if frames > 0 {
        stalls as f64 / frames as f64
    } else {
        0.0
    };
    eprintln!(
        "[stream_replay] read-ahead: {frames} frames, {stalls} stalls \
         (fraction {stall_fraction:.3}); peak streamed heap {:.1} MiB vs \
         resident {:.1} MiB",
        peak_stream_bytes as f64 / (1024.0 * 1024.0),
        resident_bytes as f64 / (1024.0 * 1024.0)
    );
    let _ = std::fs::remove_dir_all(&dir);

    let json = format!(
        "{{\n  \"bench\": \"stream_replay\",\n  \"scale\": \"{scale_name}\",\n  \
         \"workloads\": {},\n  \"iterations\": {iters},\n  \
         \"events\": {events},\n  \
         \"file_bytes\": {file_bytes},\n  \
         \"resident_bytes\": {resident_bytes},\n  \
         \"replay_memory_seconds\": {memory_secs:.4},\n  \
         \"replay_stream_seconds\": {stream_secs:.4},\n  \
         \"stream_throughput_ratio\": {ratio:.3},\n  \
         \"stream_frames\": {frames},\n  \
         \"stream_stalls\": {stalls},\n  \
         \"stream_stall_fraction\": {stall_fraction:.3},\n  \
         \"peak_stream_resident_bytes\": {peak_stream_bytes},\n  \
         \"identical_records\": true\n}}\n",
        workloads.len(),
    );
    write_snapshot("stream_replay", "BENCH_stream.json", &json);
}
