//! Heap budget of the streaming trace writer: a [`TraceBuilder`] in
//! streaming mode encodes each event into its frame's byte lanes as it
//! arrives, so streaming a trace several frames long never holds as much
//! as one frame of unpacked [`TraceEvent`]s.
//!
//! The probe lives in its own integration-test binary with one test
//! because a global allocator is process-wide.

use cbws_trace::{Addr, BlockId, PackedTrace, Pc, TraceBuilder, TraceEvent};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Live heap bytes right now.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`] with live/peak byte accounting of exact layout sizes.
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

/// Runs `f` and returns its result with the peak live-heap bytes it added.
fn peak_heap_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - baseline)
}

#[test]
fn streaming_builder_peaks_below_one_unpacked_frame() {
    const FRAME_EVENTS: usize = 65_536;
    let seen = Arc::new(AtomicUsize::new(0));
    let sink_seen = Arc::clone(&seen);
    let (total, bytes) = peak_heap_of(|| {
        let mut b = TraceBuilder::streaming(FRAME_EVENTS, move |frame: PackedTrace| {
            sink_seen.fetch_add(frame.event_count(), Ordering::Relaxed);
        });
        // 40,000 iterations of begin, load, alu, end, branch.
        b.annotated_loop(BlockId(4), 40_000, |b, i| {
            b.load(Pc(0x400), Addr(0x10_0000 + 8 * i));
            b.alu(Pc(0x404), 3);
        });
        b.try_finish_stream().unwrap()
    });
    assert_eq!(total, 200_000);
    assert_eq!(seen.load(Ordering::Relaxed), 200_000);
    let budget = FRAME_EVENTS * std::mem::size_of::<TraceEvent>();
    assert!(
        bytes < budget,
        "streaming {total} events peaked at {bytes} heap bytes; budget {budget}"
    );
}
