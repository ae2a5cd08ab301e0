//! Minimal HTTP/1.1 request parsing and response writing over
//! [`std::net::TcpStream`].
//!
//! The build environment has no crates.io access, so the async stack the
//! sweep server would conventionally sit on (tokio + axum/hyper) is not
//! available. The protocol subset a simulation service actually needs is
//! small enough to hand-write instead: one request per connection
//! (`Connection: close` on every response), bodies delimited by
//! `Content-Length` on the way in and by connection close on the way out.
//! Close-delimited response bodies are what lets `/v1/sweep` stream JSONL
//! lines as jobs finish without knowing the total length up front — the
//! same property chunked transfer encoding would provide, with none of
//! the framing.
//!
//! Connections are served by warm, reused threads (the leader/follower
//! pool of [`crate::Server`]) and every response goes out in one write.
//! Both are measured, not assumed: a cached `/v1/simulate` spends about
//! 30 µs in the engine, while spawning a thread per connection cost
//! 40–50 µs (plus a cold stack and allocator arena) and writing the head
//! piece by piece into the unbuffered socket cost another 25–35 µs per
//! response on loopback (2-core VM, separate-process client). The
//! [`crate::queue`] bounds how many requests may be outstanding; the pool
//! bounds the threads that hold their sockets.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Upper bound on the request head (request line + headers) in bytes.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`).
    pub method: String,
    /// Request path with any `?query` suffix stripped.
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed, mapped to the status the server
/// answers with.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Malformed request line, header, or `Content-Length`.
    Bad(String),
    /// Body (or head) exceeds the configured size cap.
    TooLarge,
    /// The client closed the connection before a full request arrived.
    Disconnected,
}

/// Reads one request from `stream`, rejecting bodies over `max_body`.
/// The whole request must arrive by `deadline`; past it the read fails
/// as [`ParseError::Disconnected`], however steadily the client trickles.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    deadline: Instant,
) -> Result<Request, ParseError> {
    let mut reader = BufReader::new(Deadline {
        stream,
        at: deadline,
    });
    let mut line = String::new();
    let mut head_bytes = 0usize;
    read_line(&mut reader, &mut line, &mut head_bytes)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ParseError::Bad("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::Bad("request line has no target".into()))?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    loop {
        read_line(&mut reader, &mut line, &mut head_bytes)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Bad(format!("malformed header `{line}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::Bad(format!("bad content-length `{v}`")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(ParseError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|_| ParseError::Disconnected)?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// A socket reader that gives up at a fixed instant: each read waits at
/// most the time left, so a per-read timeout cannot be reset by a client
/// that sends one byte at a time.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one CRLF-terminated line into `line` (terminator stripped),
/// charging its length against the head-size cap.
fn read_line(
    reader: &mut impl BufRead,
    line: &mut String,
    head_bytes: &mut usize,
) -> Result<(), ParseError> {
    line.clear();
    let n = reader
        .read_line(line)
        .map_err(|_| ParseError::Disconnected)?;
    if n == 0 {
        return Err(ParseError::Disconnected);
    }
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(ParseError::TooLarge);
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(())
}

/// Reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response with a `Content-Length` body, head and
/// body in one write.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    stream.write_all(&out)
}

/// Writes a JSON error body `{"error": message}` with `status`.
pub fn respond_error(stream: &mut TcpStream, status: u16, message: &str) -> std::io::Result<()> {
    let body = serde_json::to_string(&serde::Value::Object(vec![(
        "error".to_string(),
        serde::Value::Str(message.to_string()),
    )]))
    .expect("error bodies serialize");
    respond(stream, status, "application/json", body.as_bytes())
}

/// Writes the head of a streaming response whose body is delimited by
/// connection close (no `Content-Length`), in one write. The caller then
/// writes body bytes directly to the stream.
pub fn begin_stream(stream: &mut TcpStream, content_type: &str) -> std::io::Result<()> {
    stream.write_all(
        format!("HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n\r\n")
            .as_bytes(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Feeds `raw` to `read_request` through a real socket pair.
    fn parse(raw: &[u8], max_body: usize) -> Result<Request, ParseError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        client.flush().unwrap();
        // EOF the request so truncated bodies error instead of blocking.
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        read_request(
            &mut server_side,
            max_body,
            Instant::now() + std::time::Duration::from_secs(5),
        )
    }

    #[test]
    fn parses_post_with_body_and_headers() {
        let req = parse(
            b"POST /v1/sweep?x=1 HTTP/1.1\r\nHost: h\r\nX-Client-Id: alice\r\nContent-Length: 4\r\n\r\nbody",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweep");
        assert_eq!(req.header("x-client-id"), Some("alice"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn get_without_content_length_has_empty_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn oversized_body_is_rejected_not_read() {
        let err = parse(
            b"POST /v1/trace HTTP/1.1\r\nContent-Length: 100\r\n\r\n",
            10,
        )
        .unwrap_err();
        assert_eq!(err, ParseError::TooLarge);
    }

    #[test]
    fn truncated_body_reports_disconnect() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nab", 1024).unwrap_err();
        assert_eq!(err, ParseError::Disconnected);
    }
}
