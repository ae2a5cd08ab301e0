#![warn(missing_docs)]

//! Observability substrate for the CBWS simulator.
//!
//! Three layers, all dependency-light (std + the workspace serde stand-ins):
//!
//! * **Event tracing** — a fixed-capacity [`EventRing`] of structured
//!   [`SimEvent`]s (prefetch lifecycle, Fig. 13 demand classification, CBWS
//!   block boundaries, differential-history-table lookups, cache evictions)
//!   with cycle timestamps, exportable as JSONL.
//! * **Metrics** — a hierarchical [`MetricsRegistry`] of counters, gauges,
//!   and [`Log2Histogram`]s addressable by dotted path
//!   (`l2.prefetch.issued`), dumpable as nested JSON.
//! * **Logging** — verbosity-gated [`result!`]/[`status!`]/[`detail!`]/
//!   [`warn!`] macros and a rate-limited progress [`Heartbeat`].
//!
//! Wall-clock time has one primitive, [`Spans`]: nested, per-lane spans
//! exportable as a Chrome trace. Per-phase totals are not a telemetry type;
//! the engine keeps them with its per-worker stats.
//!
//! The [`Telemetry`] handle ties the first two together. It is cheap to
//! clone and share across the simulator layers, and a
//! [`Telemetry::disabled`] handle reduces every hot-path call to one branch
//! on a `None` — verified by the `telemetry_overhead` microbenchmark in
//! `cbws-bench`.
//!
//! ```
//! use cbws_telemetry::{SimEvent, Telemetry};
//!
//! let t = Telemetry::enabled(1024);
//! t.set_clock(100);
//! t.record(|now| SimEvent::PrefetchIssued { cycle: now, line: 42 });
//! t.count("l2.prefetch.issued", 1);
//! t.observe("l2.demand.latency", 332);
//! assert_eq!(t.events().len(), 1);
//!
//! let off = Telemetry::disabled();
//! off.record(|now| SimEvent::PrefetchIssued { cycle: now, line: 42 }); // no-op
//! assert!(off.events().is_empty());
//! ```

mod event;
mod heartbeat;
mod metrics;
mod ring;
mod span;

pub mod log;

pub use event::{CacheLevel, DemandKind, DropReason, SimEvent};
pub use heartbeat::Heartbeat;
pub use log::Verbosity;
pub use metrics::{Log2Histogram, Metric, MetricsRegistry};
pub use ring::EventRing;
pub use span::{chrome_trace, SpanGuard, SpanRecord, Spans};

use std::fmt;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Default event-ring capacity for [`Telemetry::enabled_default`].
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

struct Inner {
    ring: EventRing,
    metrics: MetricsRegistry,
    /// Latest simulation cycle seen, used to stamp events from components
    /// that have no clock of their own (e.g. the CBWS predictor).
    now: u64,
    heartbeat: Heartbeat,
}

/// A shared, cloneable telemetry sink.
///
/// Disabled handles carry no allocation and make every recording call a
/// single branch; enabled handles share one ring + registry behind a mutex
/// (the simulator is single-threaded per run, so the lock is uncontended).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Inner>>>,
    /// Span collector, orthogonal to the event/metrics sink: a disabled
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
                write!(
                    f,
                    "Telemetry(events: {}, metrics: {})",
                    g.ring.len(),
                    g.metrics.len()
                )
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

    /// An active sink with an event ring of `event_capacity`.
    pub fn enabled(event_capacity: usize) -> Self {
        Telemetry {
            inner: Some(Arc::new(Mutex::new(Inner {
                ring: EventRing::new(event_capacity),
                metrics: MetricsRegistry::new(),
                now: 0,
                heartbeat: Heartbeat::new(Duration::from_secs(1)),
            }))),
            spans: Spans::disabled(),
        }
    }

    /// Attaches a span collector (builder-style). Spans ride along with
    /// every clone of this handle, independent of whether events/metrics
    /// are enabled.
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

    /// An active sink with the default ring capacity.
    pub fn enabled_default() -> Self {
        Self::enabled(DEFAULT_EVENT_CAPACITY)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advances the shared event clock to `cycle` (monotone). Components
    /// with real timestamps call this; clock-less components inherit the
    /// stamp via the closure argument of [`Telemetry::record`].
    #[inline]
    pub fn set_clock(&self, cycle: u64) {
        let Some(inner) = &self.inner else { return };
        let mut g = lock(inner);
        g.now = g.now.max(cycle);
    }

    /// Records one event. The closure receives the current event clock and
    /// is only invoked when telemetry is enabled, so disabled handles pay
    /// one branch and never construct the event.
    #[inline]
    pub fn record(&self, make: impl FnOnce(u64) -> SimEvent) {
        let Some(inner) = &self.inner else { return };
        let mut g = lock(inner);
        let now = g.now;
        let event = make(now);
        g.now = g.now.max(event.cycle());
        g.ring.push(event);
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

    /// Snapshots the traced events, oldest-first.
    pub fn events(&self) -> Vec<SimEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => lock(inner).ring.to_vec(),
        }
    }

    /// Events lost to ring wraparound.
    pub fn events_dropped(&self) -> u64 {
        match &self.inner {
            None => 0,
            Some(inner) => lock(inner).ring.dropped(),
        }
    }

    /// Writes the event trace as JSON Lines: one event object per line,
    /// oldest-first.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_trace_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let events = lock(inner).ring.to_vec();
        for e in &events {
            let line = serde_json::to_string(e)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            writeln!(w, "{line}")?;
        }
        w.flush()
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
        t.set_clock(10);
        t.record(|_| panic!("closure must not run when disabled"));
        t.count("a.b", 1);
        t.observe("a.h", 5);
        t.set_gauge("a.g", 1.0);
        assert!(t.events().is_empty());
        assert_eq!(t.events_dropped(), 0);
        assert!(t.metrics_to_value().is_none());
        assert!(t.with_metrics(|_| ()).is_none());
        let mut buf = Vec::new();
        t.write_trace_jsonl(&mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn clock_stamps_clockless_events() {
        let t = Telemetry::enabled(16);
        t.set_clock(500);
        t.record(|now| SimEvent::TableLookup {
            cycle: now,
            block: 3,
            hit: true,
        });
        assert_eq!(t.events()[0].cycle(), 500);
        // The clock is monotone: an event with a later cycle advances it.
        t.record(|_| SimEvent::BlockEnd {
            cycle: 900,
            block: 3,
            predicted: 0,
        });
        t.set_clock(700); // ignored, older than 900
        t.record(|now| SimEvent::TableLookup {
            cycle: now,
            block: 3,
            hit: false,
        });
        assert_eq!(t.events()[2].cycle(), 900);
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Telemetry::enabled(16);
        let u = t.clone();
        u.count("shared.counter", 2);
        t.count("shared.counter", 3);
        assert_eq!(
            t.with_metrics(|m| m.counter("shared.counter")).unwrap(),
            Some(5)
        );
    }

    #[test]
    fn jsonl_round_trips() {
        let t = Telemetry::enabled(16);
        t.record(|_| SimEvent::PrefetchEnqueued { cycle: 1, line: 10 });
        t.record(|_| SimEvent::Demand {
            cycle: 2,
            line: 10,
            kind: DemandKind::Missing,
            latency: 332,
        });
        let mut buf = Vec::new();
        t.write_trace_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed: Vec<SimEvent> = text
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(parsed, t.events());
    }

    #[test]
    fn metrics_json_has_dotted_hierarchy() {
        let t = Telemetry::enabled(16);
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
        // A disabled event/metrics sink can still carry enabled spans.
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
