//! Server request clock: what one `/v1/simulate` costs over a loopback
//! socket, and how far a cached answer sits above the socket itself.
//! Writes `BENCH_serve.json` at the repository root.
//!
//! ```text
//! cargo bench -p cbws-bench --bench serve_latency
//! ```
//!
//! Each leg sends [`REQUESTS`] requests per round over [`ROUNDS`] rounds:
//! 2,000 samples a leg, so each p99 has 20 beyond it. Both are fixed, so
//! every recorded p99 rests on the same number of samples.
//!
//! Three legs run in alternating rounds (the order rotates each round, so
//! a drift in host speed lands on every leg), each as a closed-loop client
//! in this process: connect, send, read to the close.
//!
//! - **hit**: an in-process [`Server`] with a result store answers
//!   `Scale::Small` requests that are all store hits — the steady state of
//!   a popular record. One engine worker, metrics on, as `sweep_server`
//!   runs.
//! - **uncached**: a [`ResultCache::Off`] server simulates every
//!   `Scale::Tiny` request.
//! - **floor**: a bare `TcpListener` on one long-lived thread reads each
//!   request with the server's own parser and answers a canned response
//!   of the hit leg's exact bytes with one write. No server can beat it
//!   on this host.
//!
//! `server_overhead_ratio = hit_p50_ms / floor_p50_ms` is what the server
//! adds around a cached answer, relative to the round trip itself; the
//! `perf-history` gate bounds it (`perf_history::SERVER_OVERHEAD_CEILING`).
//! Unless `CBWS_TRACE_STORE_DIR` is set, traces go to a bench-owned store
//! under the workspace's `target/`; the hit leg's result store always does.

use cbws_bench::{workspace_root, write_snapshot, Args};
use cbws_harness::engine::detect_parallelism;
use cbws_harness::result_store::ResultStore;
use cbws_harness::ResultCache;
use cbws_server::http::read_request;
use cbws_server::{Server, ServerConfig};
use cbws_telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Rounds per leg; the leg order rotates each round.
const ROUNDS: usize = 10;

/// Requests per leg per round.
const REQUESTS: usize = 200;

/// The (workload, prefetcher) pairs the hit leg cycles through.
const HIT_PAIRS: &[(&str, &str)] = &[
    ("stencil-default", "SMS"),
    ("401.bzip2-source", "CBWS+SMS"),
    ("433.milc-su3imp", "Stride"),
    ("histo-large", "CBWS"),
];

/// The pairs the uncached leg cycles through.
const UNCACHED_PAIRS: &[(&str, &str)] = &[("stencil-default", "SMS"), ("433.milc-su3imp", "CBWS")];

/// A raw `POST /v1/simulate` for one pair at `scale`.
fn simulate_request(
    addr: SocketAddr,
    (workload, prefetcher): (&str, &str),
    scale: &str,
) -> Vec<u8> {
    let body = format!(
        r#"{{"workloads":["{workload}"],"prefetchers":["{prefetcher}"],"scale":"{scale}"}}"#
    );
    format!(
        "POST /v1/simulate HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One closed-loop request: connect, send, read to the close. Returns its
/// wall time in milliseconds; panics unless the answer is a 200.
fn roundtrip(addr: SocketAddr, request: &[u8], response: &mut Vec<u8>) -> f64 {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send");
    response.clear();
    stream.read_to_end(response).expect("receive");
    let ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        response.starts_with(b"HTTP/1.1 200 "),
        "{}",
        String::from_utf8_lossy(&response[..response.len().min(300)])
    );
    ms
}

/// Starts the floor: one thread that reads each request with the
/// server's own parser, writes `canned` in one write and closes.
fn floor_server(canned: Vec<u8>) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the floor listener");
    let addr = listener.local_addr().expect("floor address");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            if read_request(
                &mut stream,
                1 << 20,
                Instant::now() + Duration::from_secs(10),
            )
            .is_ok()
            {
                let _ = stream.write_all(&canned);
            }
            let _ = stream.shutdown(Shutdown::Both);
        }
    });
    addr
}

/// The `q`-quantile (nearest rank) of `samples`, which it sorts.
fn quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

fn main() {
    Args::parse("serve_latency", &[]);
    let root = workspace_root();
    if std::env::var_os("CBWS_TRACE_STORE_DIR").is_none() {
        std::env::set_var(
            "CBWS_TRACE_STORE_DIR",
            root.join("target/trace-store-bench"),
        );
    }

    let server = |result_cache| {
        Server::spawn(ServerConfig {
            jobs: 1,
            result_cache,
            telemetry: Telemetry::enabled_default(),
            ..ServerConfig::default()
        })
        .expect("bind an ephemeral port")
    };
    let store = ResultStore::at(root.join("target/result-store-serve-bench"));
    let hit_server = server(ResultCache::At(Arc::new(store)));
    let uncached_server = server(ResultCache::Off);
    let hit_requests: Vec<Vec<u8>> = HIT_PAIRS
        .iter()
        .map(|&pair| simulate_request(hit_server.addr(), pair, "small"))
        .collect();
    let uncached_requests: Vec<Vec<u8>> = UNCACHED_PAIRS
        .iter()
        .map(|&pair| simulate_request(uncached_server.addr(), pair, "tiny"))
        .collect();

    // Populate the store, then check that every hit request is a hit.
    let mut response = Vec::new();
    for request in &hit_requests {
        roundtrip(hit_server.addr(), request, &mut response);
        roundtrip(hit_server.addr(), request, &mut response);
        let text = String::from_utf8_lossy(&response);
        assert!(
            text.contains(r#""store_hits":1"#),
            "not a store hit: {text}"
        );
    }
    let floor_addr = floor_server(response.clone());
    let response_bytes = response.len();
    eprintln!(
        "[serve_latency] {ROUNDS} rounds of {REQUESTS} requests per leg; \
         {response_bytes}-byte hit responses"
    );

    let mut hit = Vec::with_capacity(ROUNDS * REQUESTS);
    let mut floor = Vec::with_capacity(ROUNDS * REQUESTS);
    let mut uncached = Vec::with_capacity(ROUNDS * REQUESTS);
    for round in 0..ROUNDS {
        for leg in 0..3 {
            match (round + leg) % 3 {
                0 => hit.extend((0..REQUESTS).map(|i| {
                    let request = &hit_requests[i % hit_requests.len()];
                    roundtrip(hit_server.addr(), request, &mut response)
                })),
                1 => floor.extend(
                    (0..REQUESTS).map(|_| roundtrip(floor_addr, &hit_requests[0], &mut response)),
                ),
                _ => uncached.extend((0..REQUESTS).map(|i| {
                    let request = &uncached_requests[i % uncached_requests.len()];
                    roundtrip(uncached_server.addr(), request, &mut response)
                })),
            }
        }
    }
    hit_server.shutdown();
    uncached_server.shutdown();

    let (hit_p50, hit_p99) = (quantile(&mut hit, 0.5), quantile(&mut hit, 0.99));
    let (floor_p50, floor_p99) = (quantile(&mut floor, 0.5), quantile(&mut floor, 0.99));
    let (uncached_p50, uncached_p99) =
        (quantile(&mut uncached, 0.5), quantile(&mut uncached, 0.99));
    let ratio = hit_p50 / floor_p50;
    eprintln!(
        "[serve_latency] hit p50 {hit_p50:.4} ms p99 {hit_p99:.4} ms; \
         uncached p50 {uncached_p50:.4} ms p99 {uncached_p99:.4} ms; \
         floor p50 {floor_p50:.4} ms p99 {floor_p99:.4} ms; \
         server_overhead_ratio {ratio:.3}"
    );
    let json = format!(
        "{{\n  \"bench\": \"serve_latency\",\n  \"scale\": \"small\",\n  \
         \"uncached_scale\": \"tiny\",\n  \"cores\": {},\n  \"rounds\": {ROUNDS},\n  \
         \"hit_requests\": {},\n  \"uncached_requests\": {},\n  \
         \"response_bytes\": {response_bytes},\n  \
         \"hit_p50_ms\": {hit_p50:.4},\n  \"hit_p99_ms\": {hit_p99:.4},\n  \
         \"uncached_p50_ms\": {uncached_p50:.4},\n  \"uncached_p99_ms\": {uncached_p99:.4},\n  \
         \"floor_p50_ms\": {floor_p50:.4},\n  \"floor_p99_ms\": {floor_p99:.4},\n  \
         \"server_overhead_ratio\": {ratio:.3}\n}}\n",
        detect_parallelism(),
        hit.len(),
        uncached.len(),
    );
    write_snapshot("serve_latency", "BENCH_serve.json", &json);
}
