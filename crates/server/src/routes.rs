//! Route table and request handlers.
//!
//! [`ROUTES`] is the single source of truth for the service surface: the
//! dispatcher matches against it, 404 bodies enumerate it, and `docgen
//! --check` fails the build when the route table in
//! `book/src/service.md` drifts from it.

use crate::http::{self, Request};
use crate::ServerState;
use cbws_harness::service::{parse_scale, resolve_kinds, resolve_workloads};
use cbws_harness::{JobObserver, Simulator, SweepSession, SweepSpec, SystemConfig};
use cbws_stats::RunRecord;
use cbws_trace::Trace;
use cbws_workloads::{Group, Scale, ALL};
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One entry of the service surface.
#[derive(Debug)]
pub struct Route {
    /// HTTP method.
    pub method: &'static str,
    /// Request path.
    pub path: &'static str,
    /// One-line summary, shared with the book's route table.
    pub summary: &'static str,
}

/// Every route the server answers. Ordered as documented in
/// `book/src/service.md`; the docs job diffs the two.
pub const ROUTES: &[Route] = &[
    Route {
        method: "GET",
        path: "/healthz",
        summary: "liveness probe: status, queue depth, and queue capacity",
    },
    Route {
        method: "GET",
        path: "/metrics",
        summary: "metrics registry snapshot as nested JSON",
    },
    Route {
        method: "GET",
        path: "/v1/workloads",
        summary: "registered workloads, prefetcher names, and scales",
    },
    Route {
        method: "POST",
        path: "/v1/sweep",
        summary: "run a sweep; streams one record per job as JSONL, then a summary line",
    },
    Route {
        method: "POST",
        path: "/v1/simulate",
        summary: "run one workload under selected prefetchers; returns records and manifest",
    },
    Route {
        method: "POST",
        path: "/v1/trace",
        summary: "simulate an uploaded JSON trace under selected prefetchers",
    },
];

/// Dispatches one parsed request. Any I/O error is swallowed: the client
/// is gone and the connection is torn down either way.
pub fn dispatch(state: &ServerState, req: &Request, stream: &mut TcpStream) {
    state.telemetry().count("server.requests", 1);
    let result = match ROUTES
        .iter()
        .find(|r| r.path == req.path && r.method == req.method)
    {
        Some(route) => match (route.method, route.path) {
            ("GET", "/healthz") => healthz(state, stream),
            ("GET", "/metrics") => metrics(state, stream),
            ("GET", "/v1/workloads") => workloads(state, stream),
            ("POST", "/v1/sweep") => sweep(state, req, stream),
            ("POST", "/v1/simulate") => simulate(state, req, stream),
            ("POST", "/v1/trace") => trace_upload(state, req, stream),
            _ => unreachable!("ROUTES and the dispatch arms list the same handlers"),
        },
        None if ROUTES.iter().any(|r| r.path == req.path) => {
            state.telemetry().count("server.errors", 1);
            http::respond_error(
                stream,
                405,
                &format!("{} does not accept {}", req.path, req.method),
            )
        }
        None => {
            state.telemetry().count("server.errors", 1);
            let known: Vec<String> = ROUTES
                .iter()
                .map(|r| format!("{} {}", r.method, r.path))
                .collect();
            http::respond_error(
                stream,
                404,
                &format!("no route `{}`; routes: {}", req.path, known.join(", ")),
            )
        }
    };
    let _ = result;
}

/// `GET /healthz`.
fn healthz(state: &ServerState, stream: &mut TcpStream) -> std::io::Result<()> {
    let body = Value::Object(vec![
        ("status".into(), Value::Str("ok".into())),
        (
            "queue_depth".into(),
            Value::UInt(state.queue.depth() as u64),
        ),
        (
            "queue_capacity".into(),
            Value::UInt(state.queue.capacity() as u64),
        ),
    ]);
    respond_json(stream, 200, &body)
}

/// `GET /metrics`.
fn metrics(state: &ServerState, stream: &mut TcpStream) -> std::io::Result<()> {
    state
        .telemetry()
        .set_gauge("server.queue_depth", state.queue.depth() as f64);
    let body = state
        .telemetry()
        .metrics_to_value()
        .unwrap_or(Value::Object(Vec::new()));
    respond_json(stream, 200, &body)
}

/// `GET /v1/workloads`.
fn workloads(state: &ServerState, stream: &mut TcpStream) -> std::io::Result<()> {
    let _ = state;
    let workloads: Vec<Value> = ALL
        .iter()
        .map(|w| {
            Value::Object(vec![
                ("name".into(), Value::Str(w.name.into())),
                ("suite".into(), Value::Str(w.suite.to_string())),
                (
                    "group".into(),
                    Value::Str(
                        match w.group {
                            Group::MemoryIntensive => "memory-intensive",
                            Group::LowMpki => "low-mpki",
                        }
                        .into(),
                    ),
                ),
                ("pattern".into(), Value::Str(w.pattern.into())),
            ])
        })
        .collect();
    let names = |kinds: &[cbws_harness::PrefetcherKind]| {
        Value::Array(kinds.iter().map(|k| Value::Str(k.name().into())).collect())
    };
    let body = Value::Object(vec![
        ("workloads".into(), Value::Array(workloads)),
        (
            "prefetchers".into(),
            Value::Object(vec![
                ("all".into(), names(&cbws_harness::PrefetcherKind::ALL)),
                (
                    "extended".into(),
                    names(&cbws_harness::PrefetcherKind::EXTENDED),
                ),
            ]),
        ),
        (
            "scales".into(),
            Value::Array(
                ["tiny", "small", "full", "huge"]
                    .iter()
                    .map(|s| Value::Str((*s).into()))
                    .collect(),
            ),
        ),
    ]);
    respond_json(stream, 200, &body)
}

/// Everything `POST /v1/sweep` and `POST /v1/simulate` share: the
/// resolved spec plus request options.
struct RunRequest {
    spec: SweepSpec,
    timeout: Duration,
}

/// Parses the JSON body the run endpoints accept. All fields are
/// optional; an absent/empty body means the full-matrix default.
fn parse_run_request(state: &ServerState, req: &Request) -> Result<RunRequest, String> {
    let v = parse_body(req)?;
    let workloads = resolve_workloads(&string_list(&v, "workloads")?)?;
    let kinds = resolve_kinds(&string_list(&v, "prefetchers")?)?;
    let scale = match string_field(&v, "scale")? {
        Some(s) => parse_scale(&s)?,
        None => Scale::Tiny,
    };
    let jobs = match uint_field(&v, "jobs")? {
        Some(n) => n as usize,
        None => state.config.jobs,
    };
    let timeout = Duration::from_secs_f64(match float_field(&v, "timeout_s")? {
        Some(t) if t >= 0.0 => t,
        Some(t) => return Err(format!("timeout_s must be >= 0, got {t}")),
        None => state.config.default_timeout_s,
    });
    let stream_threshold_bytes = uint_field(&v, "stream_threshold_bytes")?;
    Ok(RunRequest {
        spec: SweepSpec {
            workloads,
            kinds,
            scale,
            jobs,
            system: SystemConfig::default(),
            stream_threshold_bytes,
        },
        timeout,
    })
}

/// What the streaming observer tracks while the engine runs.
struct StreamState {
    out: TcpStream,
    /// Record lines (each ending in `\n`, so one write sends it) finished
    /// out of serial order, waiting for their turn.
    pending: BTreeMap<usize, String>,
    /// Next serial index to stream.
    next: usize,
    /// Lines actually written.
    streamed: u64,
    /// Jobs served from the result store.
    cached: u64,
    /// Set when a write failed — the client disconnected.
    failed: bool,
    /// Set when the deadline passed.
    timed_out: bool,
}

/// `POST /v1/sweep` — the streaming endpoint.
fn sweep(state: &ServerState, req: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let run_req = match parse_run_request(state, req) {
        Ok(r) => r,
        Err(msg) => {
            state.telemetry().count("server.errors", 1);
            return http::respond_error(stream, 400, &msg);
        }
    };
    let client = client_id(req, stream);
    let Some(_ticket) = admit(state, stream)? else {
        return Ok(());
    };

    let spans = state.spans();
    spans.adopt_lane(spans.lane(&format!("request-{}", state.next_request_id())));
    let store_writes = state.quota.allows_writes(&client);
    let bytes_before = state.store_write_bytes();
    state.telemetry().count("server.sweeps", 1);

    http::begin_stream(stream, "application/x-ndjson")?;
    let deadline = Instant::now() + run_req.timeout;
    let shared = Arc::new(Mutex::new(StreamState {
        out: stream.try_clone()?,
        pending: BTreeMap::new(),
        next: 0,
        streamed: 0,
        cached: 0,
        failed: false,
        timed_out: false,
    }));
    let observer: JobObserver = {
        let shared = Arc::clone(&shared);
        Arc::new(move |update| {
            let mut st = shared.lock().unwrap();
            if st.failed || st.timed_out {
                return false;
            }
            if update.cached {
                st.cached += 1;
            }
            let mut line = serde_json::to_string(update.record).expect("records serialize");
            line.push('\n');
            st.pending.insert(update.job, line);
            loop {
                let head = st.next;
                let Some(line) = st.pending.remove(&head) else {
                    break;
                };
                if st.out.write_all(line.as_bytes()).is_err() {
                    st.failed = true;
                    return false;
                }
                st.next += 1;
                st.streamed += 1;
            }
            if Instant::now() >= deadline {
                st.timed_out = true;
                return false;
            }
            true
        })
    };

    let guard = spans.begin("sweep");
    let session = SweepSession {
        telemetry: state.telemetry().clone(),
        spans: spans.clone(),
        result_cache: state.config.result_cache.clone(),
        store_writes,
    };
    let outcome = session.run("sweep_server", &run_req.spec, Some(observer));
    drop(guard);

    let delta = state.store_write_bytes().saturating_sub(bytes_before);
    state.quota.charge(&client, delta);

    let mut st = shared.lock().unwrap();
    // A cancelled run leaves post-gap records parked in the reorder
    // buffer; stream them in index order so nothing computed is lost.
    let leftovers: Vec<String> = std::mem::take(&mut st.pending).into_values().collect();
    for line in leftovers {
        if !st.failed && st.out.write_all(line.as_bytes()).is_err() {
            st.failed = true;
        }
        if !st.failed {
            st.streamed += 1;
        }
    }
    if st.failed {
        state.telemetry().count("server.cancelled", 1);
    }
    if st.timed_out {
        state.telemetry().count("server.timeouts", 1);
    }
    state
        .telemetry()
        .count("server.records_streamed", st.streamed);

    let summary = Value::Object(vec![(
        "summary".into(),
        Value::Object(vec![
            ("jobs".into(), Value::UInt(run_req.spec.job_count() as u64)),
            (
                "records".into(),
                Value::UInt(outcome.run.records.len() as u64),
            ),
            ("streamed".into(), Value::UInt(st.streamed)),
            ("cached".into(), Value::UInt(st.cached)),
            ("cancelled".into(), Value::Bool(outcome.run.cancelled)),
            ("timed_out".into(), Value::Bool(st.timed_out)),
            ("store_writes".into(), Value::Bool(store_writes)),
            ("store_write_bytes".into(), Value::UInt(delta)),
            (
                "wall_seconds".into(),
                Value::Float(outcome.run.wall_seconds),
            ),
            (
                "manifest".into(),
                serde_json::to_value(&outcome.manifest).expect("manifests serialize"),
            ),
        ]),
    )]);
    if !st.failed {
        let mut line = serde_json::to_string(&summary).expect("summaries serialize");
        line.push('\n');
        let _ = st.out.write_all(line.as_bytes());
    }
    Ok(())
}

/// `POST /v1/simulate` — one workload, whole response in one JSON body.
fn simulate(state: &ServerState, req: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let run_req = match parse_run_request(state, req) {
        Ok(r) if r.spec.workloads.len() == 1 => r,
        Ok(r) => {
            state.telemetry().count("server.errors", 1);
            return http::respond_error(
                stream,
                400,
                &format!(
                    "/v1/simulate takes exactly one workload, got {} (use /v1/sweep for matrices)",
                    r.spec.workloads.len()
                ),
            );
        }
        Err(msg) => {
            state.telemetry().count("server.errors", 1);
            return http::respond_error(stream, 400, &msg);
        }
    };
    let client = client_id(req, stream);
    let Some(_ticket) = admit(state, stream)? else {
        return Ok(());
    };
    let store_writes = state.quota.allows_writes(&client);
    let bytes_before = state.store_write_bytes();
    state.telemetry().count("server.simulates", 1);
    let session = SweepSession {
        telemetry: state.telemetry().clone(),
        spans: state.spans().clone(),
        result_cache: state.config.result_cache.clone(),
        store_writes,
    };
    let outcome = session.run("sweep_server", &run_req.spec, None);
    state.quota.charge(
        &client,
        state.store_write_bytes().saturating_sub(bytes_before),
    );
    let body = Value::Object(vec![
        ("records".into(), records_value(&outcome.run.records)),
        (
            "manifest".into(),
            serde_json::to_value(&outcome.manifest).expect("manifests serialize"),
        ),
    ]);
    respond_json(stream, 200, &body)
}

/// `POST /v1/trace` — simulate a client-uploaded trace.
///
/// Uploaded traces have no registered identity, so they bypass the
/// result store entirely (nothing to key a cache entry on) and run
/// serially through [`Simulator`] rather than the engine.
fn trace_upload(state: &ServerState, req: &Request, stream: &mut TcpStream) -> std::io::Result<()> {
    let parsed = (|| -> Result<(String, Trace, Vec<cbws_harness::PrefetcherKind>), String> {
        let v = parse_body(req)?;
        let label = string_field(&v, "label")?.unwrap_or_else(|| "uploaded-trace".into());
        let trace_value = v.get("trace").ok_or_else(|| {
            "missing `trace` field (a JSON trace, as written by `simulate --export`)".to_string()
        })?;
        let trace: Trace =
            serde_json::from_value(trace_value).map_err(|e| format!("cannot parse trace: {e}"))?;
        let kinds = resolve_kinds(&string_list(&v, "prefetchers")?)?;
        Ok((label, trace, kinds))
    })();
    let (label, trace, kinds) = match parsed {
        Ok(p) => p,
        Err(msg) => {
            state.telemetry().count("server.errors", 1);
            return http::respond_error(stream, 400, &msg);
        }
    };
    let Some(_ticket) = admit(state, stream)? else {
        return Ok(());
    };
    state.telemetry().count("server.traces", 1);
    let sim = Simulator::new(SystemConfig::default());
    let records: Vec<RunRecord> = kinds
        .iter()
        .map(|&kind| sim.run(&label, true, &trace, kind))
        .collect();
    let stats = trace.stats();
    let body = Value::Object(vec![
        ("label".into(), Value::Str(label)),
        ("instructions".into(), Value::UInt(stats.instructions)),
        ("mem_accesses".into(), Value::UInt(stats.mem_accesses)),
        ("records".into(), records_value(&records)),
    ]);
    respond_json(stream, 200, &body)
}

/// Takes a queue ticket and waits for the turn, or answers 429 and
/// returns `None`. The gauge tracks the post-admission depth.
fn admit<'a>(
    state: &'a ServerState,
    stream: &mut TcpStream,
) -> std::io::Result<Option<crate::queue::Ticket<'a>>> {
    match state.queue.admit() {
        Ok(ticket) => {
            state
                .telemetry()
                .set_gauge("server.queue_depth", state.queue.depth() as f64);
            let guard = state.spans().begin("queued");
            ticket.wait_turn();
            drop(guard);
            Ok(Some(ticket))
        }
        Err(full) => {
            state.telemetry().count("server.rejected", 1);
            http::respond_error(
                stream,
                429,
                &format!(
                    "queue full ({} requests outstanding); retry when a sweep finishes",
                    full.capacity
                ),
            )?;
            Ok(None)
        }
    }
}

/// The quota identity: `X-Client-Id` header, else the peer IP.
fn client_id(req: &Request, stream: &TcpStream) -> String {
    if let Some(id) = req.header("x-client-id") {
        if !id.is_empty() {
            return id.to_string();
        }
    }
    stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Serializes records into a JSON array value.
fn records_value(records: &[RunRecord]) -> Value {
    Value::Array(
        records
            .iter()
            .map(|r| serde_json::to_value(r).expect("records serialize"))
            .collect(),
    )
}

/// Writes `body` as a JSON response.
fn respond_json(stream: &mut TcpStream, status: u16, body: &Value) -> std::io::Result<()> {
    let text = serde_json::to_string(body).expect("response bodies serialize");
    http::respond(stream, status, "application/json", text.as_bytes())
}

/// Parses the request body as a JSON object (empty body = empty object).
fn parse_body(req: &Request) -> Result<Value, String> {
    if req.body.is_empty() {
        return Ok(Value::Object(Vec::new()));
    }
    let text =
        std::str::from_utf8(&req.body).map_err(|_| "request body is not UTF-8".to_string())?;
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("request body is not JSON: {e}"))?;
    match v {
        Value::Object(_) => Ok(v),
        _ => Err("request body must be a JSON object".into()),
    }
}

/// Optional `key` as a list of strings (a bare string counts as a
/// one-element list); absent → empty list.
fn string_list(v: &Value, key: &str) -> Result<Vec<String>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Str(s)) => Ok(vec![s.clone()]),
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| {
                item.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("`{key}` must contain strings"))
            })
            .collect(),
        Some(_) => Err(format!("`{key}` must be a string or a list of strings")),
    }
}

/// Optional string `key`.
fn string_field(v: &Value, key: &str) -> Result<Option<String>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(format!("`{key}` must be a string")),
    }
}

/// Optional non-negative integer `key`.
fn uint_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => value
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

/// Optional float `key` (integers accepted).
fn float_field(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => value
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_unique_and_well_formed() {
        for r in ROUTES {
            assert!(r.path.starts_with('/'), "{}", r.path);
            assert!(matches!(r.method, "GET" | "POST"), "{}", r.method);
            assert!(!r.summary.is_empty());
        }
        for (i, a) in ROUTES.iter().enumerate() {
            for b in &ROUTES[i + 1..] {
                assert!(
                    a.path != b.path || a.method != b.method,
                    "duplicate route {} {}",
                    a.method,
                    a.path
                );
            }
        }
    }

    #[test]
    fn body_field_helpers_validate_types() {
        let v: Value = serde_json::from_str(
            r#"{"workloads":["a","b"],"scale":"tiny","jobs":4,"timeout_s":1.5,"single":"x"}"#,
        )
        .unwrap();
        assert_eq!(string_list(&v, "workloads").unwrap(), vec!["a", "b"]);
        assert_eq!(string_list(&v, "single").unwrap(), vec!["x"]);
        assert_eq!(string_list(&v, "absent").unwrap(), Vec::<String>::new());
        assert_eq!(string_field(&v, "scale").unwrap(), Some("tiny".into()));
        assert_eq!(uint_field(&v, "jobs").unwrap(), Some(4));
        assert_eq!(float_field(&v, "timeout_s").unwrap(), Some(1.5));
        assert!(uint_field(&v, "scale").is_err());
        assert!(string_list(&v, "jobs").is_err());
    }
}
