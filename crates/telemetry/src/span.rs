//! Nested, thread-tagged wall-clock spans with Chrome trace-event export.
//!
//! A [`Spans`] collector mirrors the [`crate::Telemetry`] handle pattern:
//! disabled handles carry no allocation and make every call a single branch
//! on a `None`, enabled handles share one record table behind a mutex. Each
//! span lives on a **lane** (one per worker thread, registered by name), is
//! tagged with its nesting depth on that lane, and carries `key=value`
//! attributes. Guards close their span on drop, so a span brackets a scope:
//!
//! ```
//! use cbws_telemetry::Spans;
//!
//! let spans = Spans::enabled();
//! let lane = spans.lane("worker-0");
//! spans.adopt_lane(lane);
//! {
//!     let job = spans.begin("job");
//!     job.attr("workload", "stencil-default");
//!     let _inner = spans.begin("simulate"); // nests under `job`
//! } // both closed here
//! assert_eq!(spans.records().len(), 2);
//!
//! let off = Spans::disabled();
//! let _g = off.begin("ignored"); // no-op, no allocation
//! assert!(off.records().is_empty());
//! ```
//!
//! The whole collection exports as Chrome trace-event JSON
//! ([`Spans::to_chrome_trace`]) loadable in Perfetto or `chrome://tracing`,
//! one timeline row per lane.

use std::cell::Cell;
use std::fmt::Display;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded span: a named interval on a lane.
///
/// Times are microseconds since the collector was created. `dur_us` is
/// `None` while the span is still open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. a workload/prefetcher pair, or `"generate"`).
    pub name: String,
    /// Index of the lane (thread timeline) the span belongs to.
    pub lane: usize,
    /// Nesting depth on the lane at begin time (0 = top level).
    pub depth: usize,
    /// Begin time, µs since the collector's epoch.
    pub start_us: u64,
    /// Duration in µs; `None` while the span is open.
    pub dur_us: Option<u64>,
    /// `key=value` attributes, in insertion order.
    pub attrs: Vec<(String, String)>,
}

#[derive(Default)]
struct State {
    /// Lane names, index = lane id = Chrome `tid`.
    lanes: Vec<String>,
    /// Per-lane stack of open record indices (tracks nesting depth).
    open: Vec<Vec<usize>>,
    records: Vec<SpanRecord>,
}

struct Inner {
    /// Distinguishes collectors for the thread-local lane binding.
    id: u64,
    epoch: Instant,
    state: Mutex<State>,
}

fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    // Same policy as the Telemetry sink: a panic mid-span leaves no broken
    // invariants worth poisoning over.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

static NEXT_COLLECTOR_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(collector id, lane)` this thread last adopted. The id check keeps
    /// a binding from one collector from leaking into another (tests run
    /// many collectors on one thread).
    static CURRENT_LANE: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

/// A shared, cloneable span collector.
///
/// Disabled handles are free: [`Spans::begin`] returns an inert guard after
/// one branch. Enabled handles append to a shared record table; begin/end
/// each take the lock once, so the cost is two uncontended mutex ops plus
/// one `Instant` read per span — spans belong on job/phase boundaries, not
/// in per-event hot loops.
#[derive(Clone, Default)]
pub struct Spans {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Spans {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Spans(disabled)"),
            Some(inner) => {
                let st = lock(&inner.state);
                write!(
                    f,
                    "Spans(lanes: {}, records: {})",
                    st.lanes.len(),
                    st.records.len()
                )
            }
        }
    }
}

impl Spans {
    /// A no-op collector: every call returns immediately.
    pub fn disabled() -> Self {
        Spans { inner: None }
    }

    /// An active collector with its epoch set to now.
    pub fn enabled() -> Self {
        Spans {
            inner: Some(Arc::new(Inner {
                id: NEXT_COLLECTOR_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or finds) a lane by name and returns its id. Lane ids
    /// are dense and double as the Chrome `tid`. Disabled handles return 0.
    pub fn lane(&self, name: &str) -> usize {
        let Some(inner) = &self.inner else { return 0 };
        let mut st = lock(&inner.state);
        lane_of(&mut st, name)
    }

    /// Binds the calling thread to `lane`: subsequent [`Spans::begin`]
    /// calls from this thread land there.
    pub fn adopt_lane(&self, lane: usize) {
        let Some(inner) = &self.inner else { return };
        CURRENT_LANE.with(|c| c.set((inner.id, lane)));
    }

    /// The calling thread's current lane for this collector — the lane a
    /// [`Spans::begin`] would use right now — registering the
    /// thread-default lane if none was adopted. Lets a caller that adopts
    /// a different lane temporarily (a one-worker engine run works on the
    /// caller thread under `worker-0`) restore the binding afterwards.
    /// Disabled handles return 0.
    pub fn current_lane(&self) -> usize {
        let Some(inner) = &self.inner else { return 0 };
        current_lane(inner)
    }

    /// Opens a span on the calling thread's lane and returns a guard that
    /// closes it on drop. Threads that never called [`Spans::adopt_lane`]
    /// get a lane named after the OS thread.
    pub fn begin(&self, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                inner: None,
                idx: 0,
            };
        };
        let lane = current_lane(inner);
        self.begin_on(lane, name)
    }

    /// Opens a span on an explicit lane (for work attributed to a timeline
    /// other than the calling thread's).
    pub fn begin_on(&self, lane: usize, name: &str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                inner: None,
                idx: 0,
            };
        };
        let idx = begin_at(inner, lane, name);
        SpanGuard {
            inner: Some(inner.clone()),
            idx,
        }
    }

    /// Snapshot of the recorded spans, in begin order. Open spans have
    /// `dur_us = None`.
    pub fn records(&self) -> Vec<SpanRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => lock(&inner.state).records.clone(),
        }
    }

    /// Snapshot of the lane names, index = lane id.
    pub fn lanes(&self) -> Vec<String> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => lock(&inner.state).lanes.clone(),
        }
    }

    /// The collection as Chrome trace-event JSON (see [`chrome_trace`]).
    /// Disabled handles render an empty trace.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(&self.lanes(), &self.records())
    }

    /// Writes [`Spans::to_chrome_trace`] to `w`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_chrome_trace<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "{}", self.to_chrome_trace())?;
        w.flush()
    }
}

/// Finds or creates the lane named `name`.
fn lane_of(st: &mut State, name: &str) -> usize {
    if let Some(i) = st.lanes.iter().position(|l| l == name) {
        return i;
    }
    st.lanes.push(name.to_string());
    st.open.push(Vec::new());
    st.lanes.len() - 1
}

/// The calling thread's lane for `inner`, auto-registering one named after
/// the OS thread when the thread never adopted a lane.
fn current_lane(inner: &Inner) -> usize {
    let (id, lane) = CURRENT_LANE.with(Cell::get);
    if id == inner.id {
        return lane;
    }
    let name = std::thread::current()
        .name()
        .map(str::to_string)
        .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
    let lane = lane_of(&mut lock(&inner.state), &name);
    CURRENT_LANE.with(|c| c.set((inner.id, lane)));
    lane
}

fn begin_at(inner: &Inner, lane: usize, name: &str) -> usize {
    let start_us = inner.epoch.elapsed().as_micros() as u64;
    let mut st = lock(&inner.state);
    // A lane id from a foreign (cloned-then-dropped) collector is clamped.
    let lane = lane.min(st.lanes.len().saturating_sub(1));
    if st.lanes.is_empty() {
        st.lanes.push("main".to_string());
        st.open.push(Vec::new());
    }
    let depth = st.open[lane].len();
    let idx = st.records.len();
    st.records.push(SpanRecord {
        name: name.to_string(),
        lane,
        depth,
        start_us,
        dur_us: None,
        attrs: Vec::new(),
    });
    st.open[lane].push(idx);
    idx
}

fn end_at(inner: &Inner, idx: usize) {
    let end_us = inner.epoch.elapsed().as_micros() as u64;
    let mut st = lock(&inner.state);
    let Some(rec) = st.records.get_mut(idx) else {
        return;
    };
    if rec.dur_us.is_some() {
        return;
    }
    rec.dur_us = Some(end_us.saturating_sub(rec.start_us));
    let lane = rec.lane;
    // Guards normally close in LIFO order, but nothing enforces it;
    // remove the span wherever it sits on the open stack.
    if let Some(pos) = st.open[lane].iter().rposition(|&i| i == idx) {
        st.open[lane].remove(pos);
    }
}

/// A guard that closes its span when dropped. Obtained from
/// [`Spans::begin`]; inert when the collector is disabled.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    inner: Option<Arc<Inner>>,
    idx: usize,
}

impl SpanGuard {
    /// Attaches a `key=value` attribute to the span (chainable).
    pub fn attr(&self, key: &str, value: impl Display) -> &Self {
        if let Some(inner) = &self.inner {
            let mut st = lock(&inner.state);
            // Record indices are stable: the table only grows.
            st.records[self.idx]
                .attrs
                .push((key.to_string(), value.to_string()));
        }
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            end_at(&inner, self.idx);
        }
    }
}

/// Renders lanes + records as Chrome trace-event JSON: one `"X"` (complete)
/// event per **closed** span with `ts`/`dur` in µs, `pid` 1, `tid` = lane,
/// and the attributes as `args`; plus `"M"` metadata events naming the
/// process and each lane. Open spans (`dur_us = None`) are omitted — export
/// after the work being traced has finished.
///
/// A pure function of its inputs, so the JSON shape is golden-testable.
pub fn chrome_trace(lanes: &[String], records: &[SpanRecord]) -> String {
    use serde::Value;
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let mut events: Vec<Value> = Vec::new();
    events.push(obj(vec![
        ("ph", Value::Str("M".into())),
        ("pid", Value::UInt(1)),
        ("tid", Value::UInt(0)),
        ("name", Value::Str("process_name".into())),
        ("args", obj(vec![("name", Value::Str("cbws".into()))])),
    ]));
    for (tid, lane) in lanes.iter().enumerate() {
        events.push(obj(vec![
            ("ph", Value::Str("M".into())),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(tid as u64)),
            ("name", Value::Str("thread_name".into())),
            ("args", obj(vec![("name", Value::Str(lane.clone()))])),
        ]));
    }
    for r in records {
        let Some(dur) = r.dur_us else { continue };
        let args: Vec<(String, Value)> = r
            .attrs
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        events.push(obj(vec![
            ("ph", Value::Str("X".into())),
            ("pid", Value::UInt(1)),
            ("tid", Value::UInt(r.lane as u64)),
            ("name", Value::Str(r.name.clone())),
            ("ts", Value::UInt(r.start_us)),
            ("dur", Value::UInt(dur)),
            ("args", Value::Object(args)),
        ]));
    }
    let root = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::Str("ms".into())),
    ]);
    serde_json::to_string(&root).expect("trace serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        let s = Spans::disabled();
        assert!(!s.is_enabled());
        assert_eq!(s.lane("worker-0"), 0);
        {
            let g = s.begin("job");
            g.attr("k", "v");
        }
        assert!(s.records().is_empty());
        assert!(s.lanes().is_empty());
        let trace = s.to_chrome_trace();
        assert!(trace.contains("traceEvents"));
    }

    #[test]
    fn nesting_tracks_depth_per_lane() {
        let s = Spans::enabled();
        let lane = s.lane("worker-0");
        s.adopt_lane(lane);
        let outer = s.begin("outer");
        {
            let _mid = s.begin("mid");
            let _leaf = s.begin("leaf");
        }
        let _mid2 = s.begin("mid2");
        drop(_mid2);
        drop(outer);
        let rec = s.records();
        let depth: Vec<(String, usize)> = rec.iter().map(|r| (r.name.clone(), r.depth)).collect();
        assert_eq!(
            depth,
            vec![
                ("outer".into(), 0),
                ("mid".into(), 1),
                ("leaf".into(), 2),
                ("mid2".into(), 1),
            ]
        );
        assert!(rec.iter().all(|r| r.dur_us.is_some()), "all closed");
        assert!(rec.iter().all(|r| r.lane == lane));
    }

    #[test]
    fn threads_get_their_own_lanes() {
        let s = Spans::enabled();
        let main_lane = s.lane("main");
        s.adopt_lane(main_lane);
        let _g = s.begin("parent");
        std::thread::scope(|scope| {
            for i in 0..2 {
                let s = s.clone();
                scope.spawn(move || {
                    let lane = s.lane(&format!("worker-{i}"));
                    s.adopt_lane(lane);
                    let g = s.begin("job");
                    g.attr("worker", i);
                });
            }
        });
        drop(_g);
        // The two workers register concurrently, so only the set of lane
        // names is fixed, not their order.
        let lanes = s.lanes();
        let mut sorted = lanes.clone();
        sorted.sort();
        assert_eq!(sorted, vec!["main", "worker-0", "worker-1"]);
        let rec = s.records();
        assert_eq!(rec.len(), 3);
        // Each job sits on the lane named after its own worker.
        let mut workers: Vec<String> = Vec::new();
        for r in rec.iter().filter(|r| r.name == "job") {
            let worker = &r.attrs.iter().find(|(k, _)| k == "worker").unwrap().1;
            assert_eq!(lanes[r.lane], format!("worker-{worker}"));
            workers.push(worker.clone());
        }
        workers.sort();
        assert_eq!(workers, vec!["0", "1"]);
        // Each worker span sits at depth 0 of its own lane even though the
        // main lane had an open span.
        assert!(rec.iter().filter(|r| r.name == "job").all(|r| r.depth == 0));
    }

    #[test]
    fn unadopted_thread_is_named_after_the_os_thread() {
        let s = Spans::enabled();
        std::thread::Builder::new()
            .name("helper".into())
            .spawn({
                let s = s.clone();
                move || {
                    let _g = s.begin("work");
                }
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(s.lanes(), vec!["helper"]);
    }

    #[test]
    fn attributes_round_trip() {
        let s = Spans::enabled();
        s.adopt_lane(s.lane("main"));
        {
            let g = s.begin("job");
            g.attr("workload", "stencil-default").attr("job", 7);
        }
        let rec = s.records();
        assert_eq!(
            rec[0].attrs,
            vec![
                ("workload".into(), "stencil-default".into()),
                ("job".into(), "7".into()),
            ]
        );
    }

    #[test]
    fn closing_twice_keeps_the_first_duration() {
        let s = Spans::enabled();
        s.adopt_lane(s.lane("main"));
        let g = s.begin("phase");
        let (inner, idx) = (g.inner.clone().unwrap(), g.idx);
        drop(g);
        let first = s.records()[0].dur_us;
        assert!(first.is_some());
        end_at(&inner, idx); // a second close is a no-op
        assert_eq!(s.records()[0].dur_us, first);
        end_at(&inner, 999); // out of range: ignored
        assert_eq!(s.records().len(), 1);
    }

    #[test]
    fn open_spans_have_no_duration_and_are_not_exported() {
        let s = Spans::enabled();
        s.adopt_lane(s.lane("main"));
        let open = s.begin("open");
        {
            let _closed = s.begin("closed");
        }
        let rec = s.records();
        assert_eq!(rec[0].dur_us, None);
        assert!(rec[1].dur_us.is_some());
        let trace = s.to_chrome_trace();
        assert!(!trace.contains("\"open\""));
        assert!(trace.contains("\"closed\""));
        drop(open);
        assert!(s.records()[0].dur_us.is_some());
    }

    #[test]
    fn chrome_trace_golden_snapshot() {
        // A hand-built fixture: stable input, byte-stable output.
        let lanes = vec!["worker-0".to_string(), "worker-1".to_string()];
        let records = vec![
            SpanRecord {
                name: "nw/SMS".into(),
                lane: 0,
                depth: 0,
                start_us: 10,
                dur_us: Some(250),
                attrs: vec![
                    ("workload".into(), "nw".into()),
                    ("prefetcher".into(), "SMS".into()),
                ],
            },
            SpanRecord {
                name: "idle".into(),
                lane: 1,
                depth: 0,
                start_us: 0,
                dur_us: Some(12),
                attrs: vec![],
            },
            SpanRecord {
                name: "still-open".into(),
                lane: 1,
                depth: 0,
                start_us: 40,
                dur_us: None,
                attrs: vec![],
            },
        ];
        let got = chrome_trace(&lanes, &records);
        let want = concat!(
            "{\"traceEvents\":[",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"cbws\"}},",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"worker-0\"}},",
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"worker-1\"}},",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"nw/SMS\",\"ts\":10,\"dur\":250,",
            "\"args\":{\"workload\":\"nw\",\"prefetcher\":\"SMS\"}},",
            "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"idle\",\"ts\":0,\"dur\":12,\"args\":{}}",
            "],\"displayTimeUnit\":\"ms\"}"
        );
        assert_eq!(got, want);
    }

    #[test]
    fn clones_share_the_collector() {
        let s = Spans::enabled();
        s.adopt_lane(s.lane("main"));
        let t = s.clone();
        {
            let _a = s.begin("a");
            let _b = t.begin("b");
        }
        assert_eq!(s.records().len(), 2);
        assert_eq!(t.records().len(), 2);
    }
}
