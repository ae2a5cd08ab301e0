//! Allocation budget of a result-store hit: a warm `ResultStore::get`
//! makes at most 8 heap allocations. It makes 5: the entry's file name
//! and path, the read buffer, and the record's two names.
//!
//! The probe lives in its own integration-test binary with one test
//! because a global allocator is process-wide; it counts only the
//! measuring thread's allocations.

use cbws_harness::result_store::{ResultKey, ResultStore};
use cbws_harness::{PrefetcherKind, SystemConfig};
use cbws_sim_cpu::CpuStats;
use cbws_sim_mem::MemStats;
use cbws_stats::RunRecord;
use cbws_workloads::{by_name, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) on counting
/// threads.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// [`System`] that counts allocation calls made while [`COUNTING`] is set.
struct CountingAlloc;

fn on_alloc() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` on this thread and returns its result with the allocation
/// calls it made.
fn allocations_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn warm_hit_makes_at_most_8_allocations() {
    let dir = std::env::temp_dir().join(format!("cbws-result-alloc-{}", std::process::id()));
    let w = by_name("stencil-default").unwrap();
    let kind = PrefetcherKind::CbwsSms;
    let key = ResultKey::new(w, Scale::Small, kind, &SystemConfig::default());
    let record = RunRecord {
        workload: w.name.to_string(),
        memory_intensive: true,
        prefetcher: kind.name().to_string(),
        cpu: CpuStats {
            cycles: 1 << 40,
            instructions: 1 << 39,
            ..CpuStats::default()
        },
        mem: MemStats {
            l1_accesses: 1 << 38,
            ..MemStats::default()
        },
    };
    let store = ResultStore::at(&dir);
    store.put(&key, &record);
    // Warm-up: the first hit initializes process-wide state once.
    assert_eq!(store.get(&key).as_ref(), Some(&record));

    const GETS: usize = 200;
    let (served, allocations) = allocations_of(|| {
        (0..GETS)
            .filter(|_| store.get(&key).as_ref() == Some(&record))
            .count()
    });
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(served, GETS, "every get must hit");
    let per_hit = allocations as f64 / GETS as f64;
    assert!(
        per_hit <= 8.0,
        "a warm hit made {per_hit} allocations; budget 8"
    );
}
