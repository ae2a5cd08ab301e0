#![warn(missing_docs)]

//! Observability substrate for the CBWS simulator.
//!
//! Two recording primitives, both dependency-light (std + the workspace
//! serde stand-ins):
//!
//! * **Metrics** — the one counter primitive: a hierarchical
//!   [`MetricsRegistry`] of counters, gauges, and [`Log2Histogram`]s
//!   addressable by dotted path (`l2.prefetch.issued`), dumpable as nested
//!   JSON. Every simulator hook — the prefetch lifecycle, the Fig. 13
//!   demand classes, evictions, CBWS block boundaries and
//!   differential-table lookups — counts here.
//! * **Spans** — the one wall-clock primitive: nested, per-lane [`Spans`]
//!   exportable as a Chrome trace. Per-phase totals are not a telemetry
//!   type; the engine keeps them with its per-worker stats.
//!
//! Console output goes through the verbosity-gated [`result!`]/
//! [`status!`]/[`detail!`]/[`warn!`] macros and a rate-limited progress
//! [`Heartbeat`].
//!
//! The [`Telemetry`] handle carries the metrics registry and a span
//! collector. It is cheap to clone and share across the simulator layers,
//! and a [`Telemetry::disabled`] handle reduces every hot-path call to one
//! branch on a `None` — verified by the `telemetry_overhead`
//! microbenchmark in `cbws-bench`.
//!
//! ```
//! use cbws_telemetry::Telemetry;
//!
//! let t = Telemetry::enabled_default();
//! t.count("l2.prefetch.issued", 1);
//! t.observe("l2.demand.latency", 332);
//! let issued = t.with_metrics(|m| m.counter("l2.prefetch.issued"));
//! assert_eq!(issued, Some(Some(1)));
//!
//! let off = Telemetry::disabled();
//! off.count("l2.prefetch.issued", 1); // no-op
//! assert!(off.metrics_to_value().is_none());
//! ```

mod heartbeat;
mod metrics;
mod span;

pub mod log;

pub use heartbeat::Heartbeat;
pub use log::Verbosity;
pub use metrics::{Log2Histogram, Metric, MetricsRegistry};
pub use span::{chrome_trace, SpanGuard, SpanRecord, Spans};

use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

struct Inner {
    metrics: MetricsRegistry,
    heartbeat: Heartbeat,
}

/// A shared, cloneable telemetry sink.
///
/// Disabled handles carry no allocation and make every recording call a
/// single branch; enabled handles share one registry behind a mutex
/// (the simulator is single-threaded per run, so the lock is uncontended).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
    /// Span collector, orthogonal to the metrics sink: a disabled
    /// `Telemetry` can still carry enabled spans (the engine keeps per-run
    /// simulator telemetry off but wants `core.run` on the timeline).
    spans: Spans,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => write!(f, "Telemetry(disabled)"),
            Some(m) => {
                let g = lock(m);
                write!(f, "Telemetry(metrics: {})", g.metrics.len())
            }
        }
    }
}

fn lock(m: &Arc<Mutex<Inner>>) -> MutexGuard<'_, Inner> {
    // A panic mid-record leaves no broken invariants worth poisoning over.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Telemetry {
    /// A no-op sink: every call returns immediately.
    pub fn disabled() -> Self {
        Telemetry {
            inner: None,
            spans: Spans::disabled(),
        }
    }

    /// An active sink with an empty metrics registry.
    pub fn enabled_default() -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Inner {
                metrics: MetricsRegistry::new(),
                heartbeat: Heartbeat::new(Duration::from_secs(1)),
            }))),
            spans: Spans::disabled(),
        }
    }

    /// Attaches a span collector (builder-style). Spans ride along with
    /// every clone of this handle, independent of whether metrics are
    /// enabled.
    pub fn with_spans(mut self, spans: Spans) -> Self {
        self.spans = spans;
        self
    }

    /// The attached span collector (disabled by default).
    pub fn spans(&self) -> &Spans {
        &self.spans
    }

    /// Opens a span on the attached collector; inert when no enabled
    /// collector was attached. One branch on the disabled path.
    #[inline]
    pub fn span(&self, name: &str) -> SpanGuard {
        self.spans.begin(name)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `n` to the counter at `path`.
    #[inline]
    pub fn count(&self, path: &str, n: u64) {
        let Some(inner) = &self.inner else { return };
        lock(inner).metrics.count(path, n);
    }

    /// Sets the gauge at `path`.
    #[inline]
    pub fn set_gauge(&self, path: &str, value: f64) {
        let Some(inner) = &self.inner else { return };
        lock(inner).metrics.set_gauge(path, value);
    }

    /// Records a histogram sample at `path`.
    #[inline]
    pub fn observe(&self, path: &str, value: u64) {
        let Some(inner) = &self.inner else { return };
        lock(inner).metrics.observe(path, value);
    }

    /// Reports progress (`done` of `total` trace events); prints a
    /// rate-limited heartbeat through [`detail!`] when verbose.
    #[inline]
    pub fn progress(&self, done: u64, total: u64) {
        if log::level() < Verbosity::Verbose {
            return;
        }
        let Some(inner) = &self.inner else { return };
        let msg = lock(inner).heartbeat.tick(done, total);
        if let Some(msg) = msg {
            detail!("[progress] {msg}");
        }
    }

    /// Runs `f` against the metrics registry; `None` when disabled.
    pub fn with_metrics<R>(&self, f: impl FnOnce(&mut MetricsRegistry) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        Some(f(&mut lock(inner).metrics))
    }

    /// The metrics dump as a nested JSON value; `None` when disabled.
    pub fn metrics_to_value(&self) -> Option<serde::Value> {
        let inner = self.inner.as_ref()?;
        Some(lock(inner).metrics.to_value())
    }

    /// Writes the metrics dump as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`. Disabled handles write `{}`.
    pub fn write_metrics_json<W: Write>(&self, mut w: W) -> io::Result<()> {
        let value = self
            .metrics_to_value()
            .unwrap_or(serde::Value::Object(Vec::new()));
        let text = serde_json::to_string_pretty(&value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(w, "{text}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.count("a.b", 1);
        t.observe("a.h", 5);
        t.set_gauge("a.g", 1.0);
        assert!(t.metrics_to_value().is_none());
        assert!(t.with_metrics(|_| ()).is_none());
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Telemetry::enabled_default();
        let u = t.clone();
        u.count("shared.counter", 2);
        t.count("shared.counter", 3);
        assert_eq!(
            t.with_metrics(|m| m.counter("shared.counter")).unwrap(),
            Some(5)
        );
    }

    #[test]
    fn metrics_json_has_dotted_hierarchy() {
        let t = Telemetry::enabled_default();
        t.count("l2.prefetch.issued", 4);
        t.observe("l2.demand.latency", 300);
        let v = t.metrics_to_value().unwrap();
        assert_eq!(
            v.get("l2")
                .unwrap()
                .get("prefetch")
                .unwrap()
                .get("issued")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        let mut buf = Vec::new();
        t.write_metrics_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"latency\""));
    }

    #[test]
    fn disabled_metrics_json_is_empty_object() {
        let mut buf = Vec::new();
        Telemetry::disabled().write_metrics_json(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().trim(), "{}");
    }

    #[test]
    fn spans_ride_along_with_clones() {
        let spans = Spans::enabled();
        spans.adopt_lane(spans.lane("worker-0"));
        // A disabled metrics sink can still carry enabled spans.
        let t = Telemetry::disabled().with_spans(spans.clone());
        assert!(!t.is_enabled());
        assert!(t.spans().is_enabled());
        let u = t.clone();
        {
            let _g = u.span("core.run");
        }
        let rec = spans.records();
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].name, "core.run");
        // The default handle carries a disabled collector.
        let _inert = Telemetry::disabled().span("ignored");
        assert_eq!(spans.records().len(), 1);
    }
}
