//! Bounded connection resources over real sockets: sockets past the
//! worker cap are answered 503 by the leader, a burst of held sockets
//! cannot grow the thread count past the cap, and the service answers
//! again once the sockets close. This file holds one test, so the
//! process's thread count belongs to it alone.

use cbws_server::{Server, ServerConfig};
use cbws_telemetry::Telemetry;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Most sockets the burst holds at once.
const BURST: usize = 12;

/// `Threads:` of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// A connection that sent half a request head and then goes quiet.
fn hold(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"POST /v1/simulate HTTP/1.1\r\nHost: t\r\n")
        .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// Reads a close-delimited response and returns its status and body.
fn answer(stream: &mut TcpStream) -> (u16, String) {
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in `{response}`"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn sockets_past_the_cap_get_503_threads_stay_bounded_and_service_recovers() {
    let baseline = threads();
    let server = Server::spawn(ServerConfig {
        telemetry: Telemetry::enabled_default(),
        ..ServerConfig::default()
    })
    .expect("ephemeral bind succeeds");
    let addr = server.addr();
    let cap = server.state().queue.capacity() + 2;
    assert!(cap - 1 < BURST, "the burst must reach past the cap");

    // cap - 1 quiet sockets hold every worker but the leader; the rest of
    // the burst is answered 503 by the leader, in accept order.
    let mut held: Vec<TcpStream> = (0..BURST).map(|_| hold(addr)).collect();
    for stream in &mut held[cap - 1..] {
        let (status, body) = answer(stream);
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("busy"), "{body}");
    }
    let during = threads();
    assert!(
        during <= baseline + cap,
        "{during} threads holding {BURST} sockets; baseline {baseline}, cap {cap}"
    );
    let rejected = server
        .state()
        .telemetry()
        .with_metrics(|m| m.counter("server.connections_rejected"))
        .flatten();
    assert_eq!(rejected, Some((BURST - (cap - 1)) as u64));

    // Once the sockets close, their workers return and /healthz answers.
    drop(held);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut probe = TcpStream::connect(addr).unwrap();
        probe.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        if answer(&mut probe).0 == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "no 200 from /healthz within 5 s");
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}
