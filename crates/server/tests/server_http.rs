//! End-to-end tests over real sockets: a server on an ephemeral port,
//! raw HTTP/1.1 clients, and the acceptance guarantees of the service —
//! streamed records byte-identical to the CLI engine's, repeat sweeps
//! served from the result store, bounded-queue 429s, deadline
//! cancellation, quota enforcement, and trace upload.

use cbws_harness::result_store::ResultStore;
use cbws_harness::{PrefetcherKind, ResultCache, Simulator, SweepSession, SweepSpec, SystemConfig};
use cbws_server::{Server, ServerConfig};
use cbws_telemetry::{Spans, Telemetry};
use cbws_workloads::Scale;
use serde::Value;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A unique per-test scratch directory (no tempfile dependency).
fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cbws-server-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns a server with enabled telemetry and a scratch result store.
fn test_server(tag: &str, tweak: impl FnOnce(&mut ServerConfig)) -> Server {
    let store = Arc::new(ResultStore::at(scratch_dir(tag)));
    let mut config = ServerConfig {
        telemetry: Telemetry::enabled_default(),
        spans: Spans::enabled(),
        result_cache: ResultCache::At(store),
        ..ServerConfig::default()
    };
    tweak(&mut config);
    Server::spawn(config).expect("ephemeral bind succeeds")
}

/// Sends one raw request, reads the whole (close-delimited) response,
/// and returns `(status, body)`.
fn roundtrip(addr: SocketAddr, raw: String) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    roundtrip(addr, format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, body: &str, client: Option<&str>) -> (u16, String) {
    let id_header = client
        .map(|c| format!("X-Client-Id: {c}\r\n"))
        .unwrap_or_default();
    roundtrip(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nHost: t\r\n{id_header}Content-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Follows a dotted path through nested JSON objects.
fn field<'v>(v: &'v Value, path: &str) -> &'v Value {
    path.split('.').fold(v, |v, key| {
        v.get(key)
            .unwrap_or_else(|| panic!("no `{key}` of `{path}` in {v:?}"))
    })
}

fn uint(v: &Value, path: &str) -> u64 {
    field(v, path).as_u64().expect("integer field")
}

fn boolean(v: &Value, path: &str) -> bool {
    match field(v, path) {
        Value::Bool(b) => *b,
        other => panic!("`{path}` is not a bool: {other:?}"),
    }
}

/// Splits a JSONL sweep response into record lines and the parsed
/// summary object of the final line.
fn split_stream(body: &str) -> (Vec<&str>, Value) {
    let lines: Vec<&str> = body.lines().collect();
    let (summary_line, records) = lines.split_last().expect("at least the summary line");
    let summary: Value = serde_json::from_str(summary_line).expect("summary parses");
    assert!(
        summary.get("summary").is_some(),
        "last line is the summary: {summary_line}"
    );
    (records.to_vec(), summary)
}

#[test]
fn plumbing_routes_respond_and_errors_map_to_statuses() {
    let server = test_server("plumbing", |_| {});
    let addr = server.addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(field(&health, "status").as_str(), Some("ok"));
    assert_eq!(uint(&health, "queue_capacity"), 8);

    let (status, body) = get(addr, "/v1/workloads");
    assert_eq!(status, 200);
    let listing: Value = serde_json::from_str(&body).unwrap();
    assert!(body.contains("stencil-default"));
    assert!(body.contains("CBWS+SMS"));
    let workloads = field(&listing, "workloads").as_array().unwrap();
    assert!(workloads.len() >= 30, "registry lists {}", workloads.len());

    // Unknown route: 404 naming the real ones.
    let (status, body) = get(addr, "/v2/nope");
    assert_eq!(status, 404);
    assert!(body.contains("/v1/sweep"), "{body}");

    // Wrong method on a known path: 405.
    let (status, _) = get(addr, "/v1/sweep");
    assert_eq!(status, 405);

    // Bad spec: 400 naming the offending input.
    let (status, body) = post(addr, "/v1/sweep", r#"{"workloads":["warp-core"]}"#, None);
    assert_eq!(status, 400);
    assert!(body.contains("warp-core"), "{body}");

    // Those errors all count into server.* metrics.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let metrics: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(uint(&metrics, "server.errors"), 3);
    assert!(uint(&metrics, "server.requests") >= 5);
    server.shutdown();
}

/// A server on the default configuration, as the `sweep_server` binary
/// runs, records no spans: nothing exports them, so each request would
/// otherwise add records for the life of the process.
#[test]
fn default_config_server_records_no_spans() {
    let server = Server::spawn(ServerConfig::default()).expect("ephemeral bind succeeds");
    let addr = server.addr();
    let workloads = ["stencil-default", "401.bzip2-source", "433.milc-su3imp"];
    for i in 0..50 {
        let body = format!(
            r#"{{"workloads":["{}"],"prefetchers":["SMS"],"scale":"tiny"}}"#,
            workloads[i % workloads.len()]
        );
        let (status, body) = post(addr, "/v1/simulate", &body, None);
        assert_eq!(status, 200, "{body}");
    }
    let state = server.state();
    assert!(
        state.spans().records().is_empty(),
        "{} span records after 50 requests",
        state.spans().records().len()
    );
    server.shutdown();
}

/// Workers are reused, and `/v1/sweep` adopts a `request-N` span lane on
/// its worker. Every connection starts back on its worker's own lane, so
/// a `/v1/simulate` served later on that thread records nothing on the
/// sweep's lane.
#[test]
fn simulate_after_sweep_does_not_record_on_the_sweeps_lane() {
    let server = test_server("lanes", |_| {});
    let addr = server.addr();
    let spec = r#"{"workloads":["stencil-default"],"prefetchers":["SMS"],"scale":"tiny"}"#;
    let (status, body) = post(addr, "/v1/sweep", spec, None);
    assert_eq!(status, 200, "{body}");
    let spans = server.state().spans();
    let sweep_lane = spans
        .lanes()
        .iter()
        .position(|l| l.starts_with("request-"))
        .expect("the sweep adopted a request lane");
    let before = spans.records().len();
    // A closed-loop client alternates between two warm workers, so some
    // of these land on the thread that served the sweep.
    for _ in 0..4 {
        let (status, body) = post(addr, "/v1/simulate", spec, None);
        assert_eq!(status, 200, "{body}");
    }
    let records = spans.records();
    assert!(records.len() > before, "simulate records spans");
    let strays: Vec<&str> = records[before..]
        .iter()
        .filter(|r| r.lane == sweep_lane)
        .map(|r| r.name.as_str())
        .collect();
    assert!(
        strays.is_empty(),
        "recorded on the sweep's lane: {strays:?}"
    );
    server.shutdown();
}

/// A 2 MiB body holding one JSON string is answered 400 within a fixed
/// bound on both JSON routes: request parsing is linear in the body.
#[test]
fn multi_megabyte_string_body_is_answered_400_promptly() {
    let server = test_server("bigstring", |_| {});
    let body = format!("\"{}\"", "x\u{e9}\\n".repeat(2 << 18));
    assert!(body.len() >= 2 << 20);
    for path in ["/v1/simulate", "/v1/trace"] {
        let started = Instant::now();
        let (status, reply) = post(server.addr(), path, &body, None);
        let elapsed = started.elapsed();
        assert_eq!(status, 400, "{path}: {reply}");
        assert!(reply.contains("must be a JSON object"), "{path}: {reply}");
        assert!(elapsed < Duration::from_secs(10), "{path} took {elapsed:?}");
    }
    server.shutdown();
}

#[test]
fn megabyte_of_open_brackets_is_answered_400_and_server_survives() {
    let server = test_server("deepjson", |_| {});
    // Unbounded recursive descent would overflow the handler's stack on
    // this body and abort the whole process.
    let body = "[".repeat(1 << 20);
    for path in ["/v1/simulate", "/v1/trace"] {
        let (status, reply) = post(server.addr(), path, &body, None);
        assert_eq!(status, 400, "{path}: {reply}");
        assert!(
            reply.contains("recursion limit exceeded"),
            "{path}: {reply}"
        );
    }
    let (status, _) = get(server.addr(), "/healthz");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn full_matrix_sweep_is_cli_identical_and_repeat_is_all_store_hits() {
    let server = test_server("matrix", |_| {});
    let addr = server.addr();

    // What the CLI engine produces for the same matrix (store off: these
    // records come straight from simulation).
    let spec = SweepSpec::full_matrix(Scale::Tiny, 0);
    let expected: Vec<String> = SweepSession::default()
        .run("cli", &spec, None)
        .run
        .records
        .iter()
        .map(|r| serde_json::to_string(r).unwrap())
        .collect();

    // Cold sweep over HTTP: every record line byte-identical, in the
    // same serial order; nothing served from the (empty) store.
    let (status, body) = post(addr, "/v1/sweep", r#"{"scale":"tiny"}"#, Some("alice"));
    assert_eq!(status, 200);
    let (records, summary) = split_stream(&body);
    assert_eq!(records.len(), expected.len());
    for (got, want) in records.iter().zip(&expected) {
        assert_eq!(got, want, "streamed record differs from the CLI engine's");
    }
    assert_eq!(uint(&summary, "summary.jobs"), expected.len() as u64);
    assert_eq!(uint(&summary, "summary.cached"), 0);
    assert!(!boolean(&summary, "summary.cancelled"));
    assert!(boolean(&summary, "summary.store_writes"));
    assert!(uint(&summary, "summary.store_write_bytes") > 0);

    // Warm sweep: same bytes again, now served entirely from the store.
    let (status, body) = post(addr, "/v1/sweep", r#"{"scale":"tiny"}"#, Some("alice"));
    assert_eq!(status, 200);
    let (records, summary) = split_stream(&body);
    assert_eq!(
        records,
        expected.iter().map(String::as_str).collect::<Vec<_>>()
    );
    assert_eq!(uint(&summary, "summary.cached"), expected.len() as u64);
    assert_eq!(uint(&summary, "summary.store_write_bytes"), 0);

    // The metrics endpoint agrees: one hit per job of the second sweep.
    let (_, body) = get(addr, "/metrics");
    let metrics: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(uint(&metrics, "result_store.hit"), expected.len() as u64);
    assert_eq!(uint(&metrics, "server.sweeps"), 2);
    assert_eq!(
        uint(&metrics, "server.records_streamed"),
        2 * expected.len() as u64
    );
    server.shutdown();
}

#[test]
fn queue_full_answers_429_without_blocking() {
    let server = test_server("queue", |c| c.queue_capacity = 1);
    let addr = server.addr();
    // Occupy the only slot directly through the state handle — the
    // deterministic stand-in for a long sweep being served.
    let ticket = server.state().queue.admit().unwrap();
    let (status, body) = post(
        addr,
        "/v1/sweep",
        r#"{"workloads":["stencil-default"],"prefetchers":["SMS"],"scale":"tiny"}"#,
        None,
    );
    assert_eq!(status, 429);
    assert!(body.contains("queue full"), "{body}");
    drop(ticket);

    // Slot free again: the same request now runs.
    let (status, body) = post(
        addr,
        "/v1/sweep",
        r#"{"workloads":["stencil-default"],"prefetchers":["SMS"],"scale":"tiny"}"#,
        None,
    );
    assert_eq!(status, 200);
    let (records, _) = split_stream(&body);
    assert_eq!(records.len(), 1);

    let (_, body) = get(addr, "/metrics");
    let metrics: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(uint(&metrics, "server.rejected"), 1);
    server.shutdown();
}

#[test]
fn client_reconnecting_at_the_connection_cap_is_served_not_rejected() {
    // Cap 3: a held socket and the leader leave one worker for a client
    // that reconnects the moment each answer ends. The worker is back
    // among the followers before the client sees the close, so the
    // leader always has someone to promote.
    let server = test_server("reconnect", |c| c.queue_capacity = 1);
    let addr = server.addr();
    let mut held = TcpStream::connect(addr).unwrap();
    held.write_all(b"POST /v1/simulate HTTP/1.1\r\nHost: t\r\n")
        .unwrap();
    for i in 0..2000 {
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200, "request {i}: {body}");
    }
    let rejected = server
        .state()
        .telemetry()
        .with_metrics(|m| m.counter("server.connections_rejected"))
        .flatten();
    assert_eq!(rejected, None);
    drop(held);
    server.shutdown();
}

#[test]
fn expired_deadline_cancels_the_run_mid_sweep() {
    let server = test_server("timeout", |_| {});
    let addr = server.addr();
    // timeout_s: 0 expires the deadline before the first job completes;
    // jobs: 1 makes the cut deterministic (exactly one record escapes
    // before the observer pulls the plug).
    let (status, body) = post(
        addr,
        "/v1/sweep",
        r#"{"workloads":["stencil-default"],"scale":"tiny","jobs":1,"timeout_s":0}"#,
        None,
    );
    assert_eq!(status, 200);
    let (records, summary) = split_stream(&body);
    assert_eq!(records.len(), 1);
    assert!(boolean(&summary, "summary.cancelled"));
    assert!(boolean(&summary, "summary.timed_out"));
    assert_eq!(
        uint(&summary, "summary.jobs"),
        PrefetcherKind::ALL.len() as u64
    );

    let (_, body) = get(addr, "/metrics");
    let metrics: Value = serde_json::from_str(&body).unwrap();
    assert_eq!(uint(&metrics, "server.timeouts"), 1);
    server.shutdown();
}

#[test]
fn over_quota_client_keeps_store_reads_but_stops_writing() {
    let server = test_server("quota", |c| c.client_quota_bytes = Some(1));
    let addr = server.addr();
    let body_spec = r#"{"workloads":["stencil-default"],"prefetchers":["SMS"],"scale":"tiny"}"#;

    // First sweep: under quota, writes land (and blow the 1-byte budget).
    let (status, body) = post(addr, "/v1/sweep", body_spec, Some("alice"));
    assert_eq!(status, 200);
    let (_, summary) = split_stream(&body);
    assert!(boolean(&summary, "summary.store_writes"));
    assert!(uint(&summary, "summary.store_write_bytes") > 1);

    // Second sweep, same client: reads still serve, writes are off.
    let (status, body) = post(addr, "/v1/sweep", body_spec, Some("alice"));
    assert_eq!(status, 200);
    let (_, summary) = split_stream(&body);
    assert!(!boolean(&summary, "summary.store_writes"));
    assert_eq!(
        uint(&summary, "summary.cached"),
        1,
        "store hit still serves"
    );

    // A different prefetcher misses the store; over quota, the fresh
    // record is computed and streamed but never persisted.
    let (status, body) = post(
        addr,
        "/v1/sweep",
        r#"{"workloads":["stencil-default"],"prefetchers":["CBWS+SMS"],"scale":"tiny"}"#,
        Some("alice"),
    );
    assert_eq!(status, 200);
    let (records, summary) = split_stream(&body);
    assert_eq!(records.len(), 1);
    assert_eq!(uint(&summary, "summary.store_write_bytes"), 0);

    // Fresh client: full write privileges.
    assert!(server.state().quota.allows_writes("bob"));
    server.shutdown();
}

#[test]
fn uploaded_trace_simulates_identically_to_direct_runs() {
    let server = test_server("trace", |_| {});
    let addr = server.addr();
    let workload = cbws_workloads::by_name("stencil-default").unwrap();
    let trace = workload.generate(Scale::Tiny);
    let trace_json = serde_json::to_string(&trace).unwrap();
    let (status, body) = post(
        addr,
        "/v1/trace",
        &format!(r#"{{"label":"uploaded","trace":{trace_json},"prefetchers":["SMS"]}}"#),
        None,
    );
    assert_eq!(status, 200);
    let response: Value = serde_json::from_str(&body).unwrap();
    let records = field(&response, "records").as_array().unwrap();
    assert_eq!(records.len(), 1);

    let direct =
        Simulator::new(SystemConfig::default()).run("uploaded", true, &trace, PrefetcherKind::Sms);
    assert_eq!(
        serde_json::to_string(&records[0]).unwrap(),
        serde_json::to_string(&direct).unwrap(),
        "uploaded-trace records match a direct simulation byte for byte"
    );
    assert_eq!(uint(&response, "instructions"), trace.stats().instructions);

    // Garbage uploads are a 400, not a hung connection.
    let (status, body) = post(addr, "/v1/trace", r#"{"prefetchers":["SMS"]}"#, None);
    assert_eq!(status, 400);
    assert!(body.contains("trace"), "{body}");
    server.shutdown();
}
