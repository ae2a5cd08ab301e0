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
//! - **Bounded connections.** A leader/follower pool of at most
//!   `queue_capacity + 2` warm worker threads serves the sockets (see
//!   [`Server`]); a connection beyond that gets an immediate 503, and
//!   every accepted socket has a request deadline and a write timeout.
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
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::Thread;
use std::time::{Duration, Instant};

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

/// Time limits on every accepted socket: the whole request must arrive
/// within this of the accept (however the client paces its bytes), and
/// each write of the response must finish within it. A client that goes
/// quiet or trickles mid-request (or stops reading a response) loses its
/// connection instead of holding a worker for good; without it, `cap - 1`
/// such sockets would lock every other client out. At 10 s the largest
/// accepted body (64 MiB by default) needs about 7 MB/s.
#[cfg(not(test))]
const IO_TIMEOUT: Duration = Duration::from_secs(10);
#[cfg(test)]
const IO_TIMEOUT: Duration = Duration::from_millis(200);

/// How long the leader keeps a rejected connection open after its 503,
/// reading what the client sent, so that closing it with unread bytes
/// does not reset the connection before the client reads the answer.
const REJECT_LINGER: Duration = Duration::from_millis(50);

/// A running server: a leader/follower pool of connection workers.
///
/// One worker, the leader, blocks in `accept`. When a connection
/// arrives it promotes the most recently parked follower to leader (or
/// spawns a worker while fewer than the cap exist) and then serves the
/// connection itself, so no handoff sits between `accept` and the
/// handler, and a closed-loop client keeps landing on warm threads. The
/// cap is the admission queue's capacity plus two: every admitted
/// ticket, one connection being told 429, and the leader. At the cap
/// with nobody parked, the leader answers 503 itself
/// (`server.connections_rejected`) and keeps leading.
pub struct Server {
    addr: SocketAddr,
    pool: Arc<Pool>,
}

impl Server {
    /// Binds `config.addr` and starts the first worker, which leads.
    pub fn spawn(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let state = Arc::new(ServerState::new(config));
        let pool = Arc::new(Pool {
            listener,
            cap: state.queue.capacity() + 2,
            state,
            stop: AtomicBool::new(false),
            workers: Mutex::new(Workers {
                live: 1,
                parked: Vec::new(),
            }),
            exited: Condvar::new(),
        });
        Pool::start_worker(&pool)?;
        Ok(Server { addr, pool })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (tests inspect the queue and ledger through it).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.pool.state
    }

    /// Stops accepting and waits until every worker has exited. A worker
    /// serving a connection finishes it first.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.pool.stop.store(true, Ordering::SeqCst);
        // Unblock the leader's accept() with one last connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        let mut workers = self.pool.lock();
        while workers.live > 0 {
            workers = self
                .pool
                .exited
                .wait(workers)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The worker pool behind a [`Server`].
struct Pool {
    listener: TcpListener,
    state: Arc<ServerState>,
    /// Most workers alive at once, the leader included.
    cap: usize,
    stop: AtomicBool,
    workers: Mutex<Workers>,
    /// Signalled whenever a worker exits; dropping the server waits on it.
    exited: Condvar,
}

struct Workers {
    /// Workers alive: the leader, the parked followers and those serving.
    live: usize,
    /// Parked followers, most recently parked last.
    parked: Vec<Follower>,
}

/// A parked worker: its thread, unparked once `promoted` is set. The
/// promoter's `Release` store pairs with the follower's `Acquire` swap.
struct Follower {
    thread: Thread,
    promoted: Arc<AtomicBool>,
}

impl Pool {
    /// Every update under this lock is a single push, pop or count, so
    /// the state is valid even if a holder panicked.
    fn lock(&self) -> MutexGuard<'_, Workers> {
        self.workers.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Spawns a worker, which starts out as the leader. The caller has
    /// already counted it in `live`.
    fn start_worker(pool: &Arc<Pool>) -> io::Result<()> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let pool = Arc::clone(pool);
        let name = format!("server-worker-{}", NEXT.fetch_add(1, Ordering::Relaxed));
        std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || pool.work(&name))
            .map(drop)
    }

    /// A worker's life: lead until a connection is admitted, serve it,
    /// park as a follower until promoted, and again, until the server
    /// stops. `name` names the thread and its span lane.
    fn work(self: Arc<Self>, name: &str) {
        let promoted = Arc::new(AtomicBool::new(false));
        let spans = self.state.spans();
        while let Some(mut stream) = self.lead() {
            // A sweep adopts a request lane; each connection starts back
            // on this worker's own.
            spans.adopt_lane(spans.lane(name));
            // A panicking handler (a stored trace frame that fails its
            // checksum mid-replay, say) loses its connection, not the
            // worker: the pool's count of live workers stays true.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                handle_connection(&self.state, &mut stream)
            }));
            // Back among the followers before the client sees the close,
            // so a client that reconnects at once finds this worker free.
            let enlisted = self.enlist(&promoted);
            let _ = stream.shutdown(Shutdown::Both);
            drop(stream);
            if !enlisted {
                break;
            }
            while !promoted.swap(false, Ordering::Acquire) {
                std::thread::park();
            }
        }
        self.exit();
    }

    /// Accepts until a connection is admitted and returns it for this
    /// worker to serve, having passed the lead on; `None` once the server
    /// stops.
    fn lead(self: &Arc<Self>) -> Option<TcpStream> {
        loop {
            if self.stopping() {
                return None;
            }
            let Ok((stream, _)) = self.listener.accept() else {
                continue;
            };
            if self.stopping() {
                return None;
            }
            if self.hand_off() {
                return Some(stream);
            }
            self.reject(stream);
        }
    }

    /// Passes the lead to the most recently parked follower, or to a new
    /// worker while fewer than `cap` are alive. False when neither is
    /// possible: the caller keeps leading.
    fn hand_off(self: &Arc<Self>) -> bool {
        let mut workers = self.lock();
        if let Some(next) = workers.parked.pop() {
            drop(workers);
            next.promoted.store(true, Ordering::Release);
            next.thread.unpark();
            return true;
        }
        if workers.live >= self.cap {
            return false;
        }
        workers.live += 1;
        drop(workers);
        if Pool::start_worker(self).is_ok() {
            return true;
        }
        self.lock().live -= 1;
        false
    }

    /// Answers 503 on a connection no worker is free to serve.
    fn reject(&self, mut stream: TcpStream) {
        self.state
            .telemetry()
            .count("server.connections_rejected", 1);
        let _ = stream.set_write_timeout(Some(REJECT_LINGER));
        let _ = http::respond_error(
            &mut stream,
            503,
            &format!(
                "all {} connection workers are busy; retry shortly",
                self.cap
            ),
        );
        let _ = stream.shutdown(Shutdown::Write);
        let deadline = Instant::now() + REJECT_LINGER;
        let mut sink = [0u8; 4096];
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
                break;
            }
            if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
                break;
            }
        }
    }

    /// Puts this worker on the follower stack, to be promoted by a later
    /// leader. False, without enlisting, once the server stops.
    fn enlist(&self, promoted: &Arc<AtomicBool>) -> bool {
        let mut workers = self.lock();
        if self.stopping() {
            return false;
        }
        workers.parked.push(Follower {
            thread: std::thread::current(),
            promoted: Arc::clone(promoted),
        });
        true
    }

    /// Leaves the pool on stop. Every exit wakes the parked followers, so
    /// each sees the stop and exits in turn, and tells the waiting drop.
    fn exit(&self) {
        let mut workers = self.lock();
        workers.live -= 1;
        for follower in workers.parked.drain(..) {
            follower.promoted.store(true, Ordering::Release);
            follower.thread.unpark();
        }
        self.exited.notify_all();
    }
}

/// Serves one connection: parse, dispatch. The caller closes it.
fn handle_connection(state: &ServerState, stream: &mut TcpStream) {
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let deadline = Instant::now() + IO_TIMEOUT;
    match http::read_request(stream, state.config.max_body_bytes, deadline) {
        Ok(req) => routes::dispatch(state, &req, stream),
        Err(http::ParseError::TooLarge) => {
            state.telemetry().count("server.errors", 1);
            let _ = http::respond_error(
                stream,
                413,
                &format!("request body exceeds {} bytes", state.config.max_body_bytes),
            );
        }
        Err(http::ParseError::Bad(msg)) => {
            state.telemetry().count("server.errors", 1);
            let _ = http::respond_error(stream, 400, &msg);
        }
        // Nobody left to answer (or the request missed its deadline).
        Err(http::ParseError::Disconnected) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// Polls `done` for up to 5 s.
    fn eventually(mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !done() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    #[test]
    fn client_sending_half_a_head_is_dropped_and_its_worker_returns_to_the_pool() {
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client.write_all(b"GET /healthz HTTP/1.1\r\nHo").unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Past the request deadline the server closes without an answer.
        let mut answer = Vec::new();
        client.read_to_end(&mut answer).unwrap();
        assert!(answer.is_empty(), "{}", String::from_utf8_lossy(&answer));

        // Its worker parks as a follower beside the leader ...
        assert!(eventually(|| server.pool.lock().parked.len() == 1));
        assert_eq!(server.pool.lock().live, 2);
        // ... and serves the next connection once promoted: no new thread.
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut answer = String::new();
        client.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 200 OK\r\n"), "{answer}");
        assert_eq!(server.pool.lock().live, 2);
        server.shutdown();
    }

    #[test]
    fn client_trickling_its_head_is_dropped_at_the_request_deadline() {
        let server = Server::spawn(ServerConfig::default()).unwrap();
        let mut client = TcpStream::connect(server.addr()).unwrap();
        client
            .write_all(b"GET /healthz HTTP/1.1\r\nX-Pad: ")
            .unwrap();
        let started = Instant::now();
        // One byte every 100 ms for 3 s: every read returns well inside
        // `IO_TIMEOUT`, so only a deadline on the whole request ends it.
        let mut writer = client.try_clone().unwrap();
        let trickle = std::thread::spawn(move || {
            for _ in 0..30 {
                std::thread::sleep(Duration::from_millis(100));
                if writer.write_all(b"a").is_err() {
                    break;
                }
            }
        });
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let closed = client.read(&mut [0u8; 1]);
        let held = started.elapsed();
        assert!(
            !matches!(closed, Ok(n) if n > 0),
            "a trickled head was answered"
        );
        assert!(
            held < Duration::from_secs(2),
            "connection held for {held:?} ({closed:?}); the deadline is {IO_TIMEOUT:?}"
        );
        trickle.join().unwrap();
        assert!(eventually(|| server.pool.lock().parked.len() == 1));
        server.shutdown();
    }
}
