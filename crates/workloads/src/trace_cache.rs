//! A retired in-process trace memo, kept as an empty shim.
//!
//! Traces used to be memoized here as whole `Vec<TraceEvent>`s per
//! `(workload, scale)`. Every replay now reads the persistent
//! [`trace_store`](crate::trace_store), and the serial reference sweep
//! (`cbws_harness::experiments::sweep`) generates each trace inline and
//! drops it after its runs, so there is nothing left to memoize.
//!
//! What remains is the one call the golden-record blessing in
//! `crates/benchmark` still makes between scales,
//! `trace_cache::shared().clear()`; it does nothing. The module goes once
//! that caller is gone.

/// The retired cache: holds nothing.
#[derive(Debug)]
pub struct TraceCache;

impl TraceCache {
    /// Does nothing: there are no cached traces to drop.
    pub fn clear(&self) {}
}

/// The process-wide (empty) cache.
pub fn shared() -> &'static TraceCache {
    &TraceCache
}
