//! The sweep server binary.
//!
//! ```text
//! sweep_server [--addr HOST:PORT] [--queue N] [--jobs N] [--timeout-s SECS]
//!              [--quota-bytes N] [--no-result-cache] [--quiet | --progress]
//! ```
//!
//! The flags are the `Server` and `Log` groups of `cbws_harness::cli`'s
//! flag table; `--help` lists them. Binds, prints the listening address on
//! stdout (`listening on ...`), and serves until killed. The result store
//! follows the CLI convention: shared (`CBWS_RESULT_STORE_DIR`) unless
//! `--no-result-cache`. Metrics are always enabled — `/metrics` is the
//! whole point of running a service. Spans keep [`ServerConfig`]'s
//! default, off: no route exports them, so a long-running server would
//! only accumulate them.

use cbws_harness::cli::{Cli, Group};
use cbws_server::{Server, ServerConfig};
use cbws_telemetry::{status, Telemetry};

fn main() {
    let cli = Cli::parse("sweep_server", &[Group::Server, Group::Log]);
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: cli.value("--addr").unwrap_or(&defaults.addr).to_string(),
        queue_capacity: cli.parsed("--queue").unwrap_or(defaults.queue_capacity),
        jobs: cli.jobs,
        default_timeout_s: cli
            .parsed("--timeout-s")
            .unwrap_or(defaults.default_timeout_s),
        client_quota_bytes: cli.parsed("--quota-bytes"),
        telemetry: Telemetry::enabled_default(),
        result_cache: cli.session().result_cache.clone(),
        ..defaults
    };

    let server = Server::spawn(config).unwrap_or_else(|e| cli.fail(&format!("cannot bind: {e}")));
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
