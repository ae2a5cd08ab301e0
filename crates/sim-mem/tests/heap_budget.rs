//! Heap budget of the cache model: a hierarchy of the paper's Table II
//! geometry (32 KB L1D, 2 MB L2) holds at most 13 bytes per simulated
//! line — an 8-byte tag and a 4-byte LRU-stamp-and-flags word — plus a
//! small constant. The old layout spent 48 bytes per line.
//!
//! The probe lives in its own integration-test binary with one test
//! because a global allocator is process-wide.

use cbws_sim_mem::{HierarchyConfig, MemoryHierarchy};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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
fn hierarchy_heap_is_at_most_13_bytes_per_line() {
    let cfg = HierarchyConfig::default();
    let lines = cfg.l1d.lines() + cfg.l2.lines();
    let (hierarchy, bytes) = peak_heap_of(|| MemoryHierarchy::new(cfg));
    let budget = 13 * lines + 4096;
    assert!(
        bytes <= budget,
        "MemoryHierarchy::new allocated {bytes} bytes for {lines} lines; budget {budget}"
    );
    drop(hierarchy);
}
