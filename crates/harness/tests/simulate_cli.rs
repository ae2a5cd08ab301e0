//! The `simulate` binary rejects arguments it does not know: it prints the
//! usage and exits with status 2 instead of running the default
//! simulation. Known flags still run.

use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

/// Runs `simulate` with `args` in a scratch directory of its own, so the
/// run manifest it writes under `results/` lands there.
fn simulate(args: &[&str]) -> Output {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "cbws-simulate-cli-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(args)
        .current_dir(&dir)
        .output();
    let _ = std::fs::remove_dir_all(&dir);
    out.expect("simulate runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = simulate(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed results");
    // The usage names every flag, the engine and result-store ones too.
    for flag in ["--jobs", "--resume", "--no-result-cache", "--spans-out"] {
        assert!(stderr.contains(flag), "usage omits {flag}: {stderr}");
    }
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    assert_usage_error(&["--bogus-flag"]);
    // A misspelt `--prefetcher`.
    assert_usage_error(&["--prefetch", "SMS"]);
    assert_usage_error(&["--help"]);
    // A value-taking flag without its value.
    assert_usage_error(&["--workload"]);
}

#[test]
fn known_flags_run() {
    let out = simulate(&[
        "--workload",
        "nw",
        "--scale",
        "tiny",
        "--prefetcher",
        "SMS",
        "--no-result-cache",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("SMS"), "{stdout}");
}
