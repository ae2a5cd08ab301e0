//! The `sweep_server` binary parses the shared command line
//! (`cbws_harness::cli`): a malformed one exits 2 with the usage before
//! binding, and the flags the repository benchmark passes still start it.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_sweep_server");

#[test]
fn malformed_command_lines_exit_2_with_usage() {
    for args in [
        &["--bogus-flag"][..],
        &["--help"],
        &["--jobs", "x"],
        &["--queue"],
        &["--queue", "many"],
        &["--timeout-s", "soon"],
        // A harness binary's flag.
        &["--scale", "tiny"],
    ] {
        let out = Command::new(BIN).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: sweep_server"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} started serving");
    }
}

#[test]
fn benchmark_flags_start_the_server() {
    let mut child = Command::new(BIN)
        .args(["--addr", "127.0.0.1:0", "--jobs", "1", "--quiet"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary starts");
    let mut line = String::new();
    let read = BufReader::new(child.stdout.take().unwrap()).read_line(&mut line);
    let _ = child.kill();
    let _ = child.wait();
    read.unwrap();
    assert!(line.starts_with("listening on 127.0.0.1:"), "{line}");
}
