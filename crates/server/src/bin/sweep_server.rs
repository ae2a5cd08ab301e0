//! The sweep server binary.
//!
//! ```text
//! sweep_server [--addr 127.0.0.1:8780] [--queue N] [--jobs N]
//!              [--timeout-s SECS] [--quota-bytes N]
//!              [--no-result-cache] [--quiet | --progress]
//! ```
//!
//! Binds, prints the listening address on stdout (`listening on ...`),
//! and serves until killed. The result store follows the CLI convention:
//! shared (`CBWS_RESULT_STORE_DIR`) unless `--no-result-cache`. Metrics
//! are always enabled — `/metrics` is the whole point of running a
//! service. Spans keep [`ServerConfig`]'s default, off: no route exports
//! them, so a long-running server would only accumulate them.

use cbws_harness::ResultCache;
use cbws_server::{Server, ServerConfig};
use cbws_telemetry::{status, Telemetry};

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: sweep_server [--addr HOST:PORT] [--queue N] [--jobs N] \
         [--timeout-s SECS] [--quota-bytes N] [--no-result-cache] \
         [--quiet | --progress]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    cbws_telemetry::log::apply_cli_flags(&args);

    let mut config = ServerConfig {
        telemetry: Telemetry::enabled_default(),
        result_cache: if args.iter().any(|a| a == "--no-result-cache") {
            ResultCache::Off
        } else {
            ResultCache::Shared
        },
        ..ServerConfig::default()
    };
    if let Some(addr) = arg_value(&args, "--addr") {
        config.addr = addr;
    }
    if let Some(n) = arg_value(&args, "--queue") {
        config.queue_capacity = n
            .parse()
            .unwrap_or_else(|_| fail(&format!("bad --queue `{n}`")));
    }
    if let Some(n) = arg_value(&args, "--jobs") {
        config.jobs = n
            .parse()
            .unwrap_or_else(|_| fail(&format!("bad --jobs `{n}`")));
    }
    if let Some(s) = arg_value(&args, "--timeout-s") {
        config.default_timeout_s = s
            .parse()
            .unwrap_or_else(|_| fail(&format!("bad --timeout-s `{s}`")));
    }
    if let Some(n) = arg_value(&args, "--quota-bytes") {
        config.client_quota_bytes = Some(
            n.parse()
                .unwrap_or_else(|_| fail(&format!("bad --quota-bytes `{n}`"))),
        );
    }

    let server = Server::spawn(config).unwrap_or_else(|e| fail(&format!("cannot bind: {e}")));
    // The smoke harness greps this line for the resolved ephemeral port.
    println!("listening on {}", server.addr());
    status!(
        "[server] queue capacity {}",
        server.state().queue.capacity()
    );

    // Serve until killed; the accept loop runs on its own thread.
    loop {
        std::thread::park();
    }
}
