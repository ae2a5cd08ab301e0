#![warn(missing_docs)]

//! Sweep-as-a-service: an HTTP front end for the simulation engine.
//!
//! The CLI binaries under `cbws-harness` regenerate the paper's figures
//! on the machine they run on. This crate exposes the same orchestration
//! — [`cbws_harness::service`] — over HTTP, so a shared box can serve
//! sweeps to many clients: submit a workload spec and watch records
//! stream back as JSONL, upload a trace for one-off simulation, or just
//! scrape `/metrics`.
//!
//! The design commitments, in order:
//!
//! - **Identical results.** A sweep over HTTP runs the exact engine the
//!   CLI runs, through the same [`cbws_harness::SweepSession`] — each
//!   streamed JSONL line is the serialized [`cbws_stats::RunRecord`] the
//!   CLI would have produced, byte for byte, in the same serial
//!   (workload-major) order.
//! - **Bounded admission.** A fixed-capacity FIFO [`queue::JobQueue`]
//!   fronts the engine; requests beyond capacity get an immediate 429.
//!   Admitted sweeps run one at a time.
//! - **Shared-store fairness.** The persistent result store serves hits
//!   to everyone, but fresh writes are charged per client against an
//!   optional byte quota ([`quota::QuotaLedger`]); over-quota clients
//!   keep reading and stop writing.
//! - **Observable lifecycle.** Every stage counts into `server.*`
//!   metrics, scrapeable at `/metrics` alongside the `engine.*` /
//!   `result_store.*` families. A server embedded with
//!   [`ServerConfig::spans`] enabled also opens spans on per-request
//!   lanes, read in process through [`ServerState::spans`]; no route
//!   exports them, so the default (and the `sweep_server` binary) leaves
//!   them off.
//!
//! The HTTP layer itself is hand-rolled over [`std::net`] — see
//! [`http`] for why (no crates.io in the build environment, and the
//! protocol subset a batch-simulation service needs is tiny).

pub mod http;
pub mod queue;
pub mod quota;
pub mod routes;

pub use routes::{Route, ROUTES};

use cbws_harness::ResultCache;
use cbws_telemetry::{Spans, Telemetry};
use queue::JobQueue;
use quota::QuotaLedger;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Everything configurable about a server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Admission bound: outstanding requests beyond this get 429.
    pub queue_capacity: usize,
    /// Default engine worker threads per sweep (`0` = all cores);
    /// requests may override with their `jobs` field.
    pub jobs: usize,
    /// Largest accepted request body (uploaded traces are the big ones).
    pub max_body_bytes: usize,
    /// Default per-request timeout; requests may override with
    /// `timeout_s`. A run past its deadline is cooperatively cancelled
    /// and reports `timed_out` in its summary line.
    pub default_timeout_s: f64,
    /// Per-client result-store write quota in bytes (`None` = off).
    pub client_quota_bytes: Option<u64>,
    /// Result-store policy for every run this server executes.
    pub result_cache: ResultCache,
    /// Metrics sink; `/metrics` serves its registry.
    pub telemetry: Telemetry,
    /// Span collector for request lanes and engine worker timelines.
    /// Disabled by default: spans are only readable in process, and an
    /// enabled collector keeps every record until it is dropped.
    pub spans: Spans,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 8,
            jobs: 0,
            max_body_bytes: 64 * 1024 * 1024,
            default_timeout_s: 600.0,
            client_quota_bytes: None,
            result_cache: ResultCache::Off,
            telemetry: Telemetry::disabled(),
            spans: Spans::disabled(),
        }
    }
}

/// Shared state every connection handler sees.
pub struct ServerState {
    /// The instance configuration.
    pub config: ServerConfig,
    /// The admission queue.
    pub queue: JobQueue,
    /// The per-client write-quota ledger.
    pub quota: QuotaLedger,
    next_request: AtomicU64,
}

impl ServerState {
    /// Builds the state for `config`.
    pub fn new(config: ServerConfig) -> ServerState {
        let queue = JobQueue::new(config.queue_capacity);
        let quota = QuotaLedger::new(config.client_quota_bytes);
        ServerState {
            config,
            queue,
            quota,
            next_request: AtomicU64::new(0),
        }
    }

    /// The instance's metrics sink.
    pub fn telemetry(&self) -> &Telemetry {
        &self.config.telemetry
    }

    /// The instance's span collector.
    pub fn spans(&self) -> &Spans {
        &self.config.spans
    }

    /// A fresh request id (names the request's span lane).
    pub fn next_request_id(&self) -> u64 {
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    /// Current value of the `result_store.write_bytes` counter. Sweeps
    /// run one at a time (the queue serializes them), so the delta
    /// around a run is exactly that run's contribution.
    pub fn store_write_bytes(&self) -> u64 {
        self.config
            .telemetry
            .with_metrics(|m| m.counter("result_store.write_bytes").unwrap_or(0))
            .unwrap_or(0)
    }
}

/// A running server: accept loop on its own thread, one thread per
/// connection.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and starts accepting.
    pub fn spawn(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new(config));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || handle_connection(&state, stream));
                }
            })
        };
        Ok(Server {
            addr,
            state,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests inspect the queue and ledger through it).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Stops accepting and joins the accept loop. Connections already
    /// being served run to completion on their own threads.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() with one last connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

/// Serves one connection: parse, dispatch, close.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    match http::read_request(&mut stream, state.config.max_body_bytes) {
        Ok(req) => routes::dispatch(state, &req, &mut stream),
        Err(http::ParseError::TooLarge) => {
            state.telemetry().count("server.errors", 1);
            let _ = http::respond_error(
                &mut stream,
                413,
                &format!("request body exceeds {} bytes", state.config.max_body_bytes),
            );
        }
        Err(http::ParseError::Bad(msg)) => {
            state.telemetry().count("server.errors", 1);
            let _ = http::respond_error(&mut stream, 400, &msg);
        }
        // Nobody left to answer.
        Err(http::ParseError::Disconnected) => {}
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}
