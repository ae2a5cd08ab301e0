//! Every harness binary parses one command line (`cbws_harness::cli`): an
//! unknown flag, `--help`, a bad `--scale` or `--jobs`, or a flag without
//! its value prints the usage and exits with status 2 before any work.
//! Known flags still run, and a sweeping binary writes its
//! `--metrics-out` file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Every harness binary, by name.
const BINARIES: [(&str, &str); 15] = [
    ("all_experiments", env!("CARGO_BIN_EXE_all_experiments")),
    ("dram_model", env!("CARGO_BIN_EXE_dram_model")),
    ("ext_comparison", env!("CARGO_BIN_EXE_ext_comparison")),
    (
        "fig01_loop_fraction",
        env!("CARGO_BIN_EXE_fig01_loop_fraction"),
    ),
    (
        "fig03_stencil_cbws",
        env!("CARGO_BIN_EXE_fig03_stencil_cbws"),
    ),
    (
        "fig05_differential_skew",
        env!("CARGO_BIN_EXE_fig05_differential_skew"),
    ),
    ("fig12_mpki", env!("CARGO_BIN_EXE_fig12_mpki")),
    ("fig13_timeliness", env!("CARGO_BIN_EXE_fig13_timeliness")),
    ("fig14_speedup", env!("CARGO_BIN_EXE_fig14_speedup")),
    ("fig15_perf_cost", env!("CARGO_BIN_EXE_fig15_perf_cost")),
    ("sensitivity", env!("CARGO_BIN_EXE_sensitivity")),
    ("simulate", env!("CARGO_BIN_EXE_simulate")),
    ("tab02_parameters", env!("CARGO_BIN_EXE_tab02_parameters")),
    ("tab03_storage", env!("CARGO_BIN_EXE_tab03_storage")),
    ("trace_info", env!("CARGO_BIN_EXE_trace_info")),
];

/// A fresh scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Scratch {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cbws-harness-cli-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `bin` with `args` in `dir`, with both stores inside `dir`. A run
/// still going after a minute is killed, so a binary that ignores a bad
/// flag and starts a full-scale sweep fails the test instead of hanging it.
fn run_in(dir: &Path, bin: &str, args: &[&str]) -> Output {
    let mut child = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .env(
            cbws_workloads::trace_store::DIR_ENV,
            dir.join("trace-store"),
        )
        .env(
            cbws_harness::result_store::DIR_ENV,
            dir.join("result-store"),
        )
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    child.wait_with_output().unwrap()
}

#[test]
fn malformed_command_lines_exit_2_with_usage_before_any_work() {
    let cases: [&[&str]; 5] = [
        &["--bogus-flag"],
        &["--help"],
        &["--scale", "bogus"],
        &["--jobs", "x"],
        &["--scale"],
    ];
    for (name, bin) in BINARIES {
        for args in cases {
            let scratch = Scratch::new();
            let out = run_in(&scratch.0, bin, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("usage: {name}")),
                "{name} {args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{name} {args:?} printed results");
            assert!(
                !scratch.0.join("results").exists(),
                "{name} {args:?} wrote results/"
            );
        }
    }
}

#[test]
fn own_flags_are_in_the_usage_and_other_binaries_flags_are_not() {
    let scratch = Scratch::new();
    let out = run_in(&scratch.0, env!("CARGO_BIN_EXE_simulate"), &["--help"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for flag in [
        "--prefetcher",
        "--jobs",
        "--resume",
        "--spans-out",
        "--verbose",
    ] {
        assert!(stderr.contains(flag), "usage omits {flag}: {stderr}");
    }
    for args in [
        &["--prefetch", "SMS"][..],
        &["--workload"],
        &["--list"],
        &["--workload", "nw", "--trace", "t.json"],
    ] {
        let out = run_in(&scratch.0, env!("CARGO_BIN_EXE_simulate"), args);
        assert_eq!(out.status.code(), Some(2), "simulate {args:?}");
    }
    let out = run_in(
        &scratch.0,
        env!("CARGO_BIN_EXE_fig12_mpki"),
        &["--prefetcher", "SMS"],
    );
    assert_eq!(out.status.code(), Some(2), "fig12_mpki --prefetcher");
}

#[test]
fn known_flags_run() {
    let scratch = Scratch::new();
    let out = run_in(
        &scratch.0,
        env!("CARGO_BIN_EXE_simulate"),
        &[
            "--workload",
            "nw",
            "--scale",
            "tiny",
            "--prefetcher",
            "SMS",
            "--no-result-cache",
        ],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("SMS"), "{stdout}");
}

#[test]
fn a_sweeping_binary_writes_its_metrics() {
    let scratch = Scratch::new();
    let out = run_in(
        &scratch.0,
        env!("CARGO_BIN_EXE_dram_model"),
        &[
            "--scale",
            "tiny",
            "--no-result-cache",
            "--quiet",
            "--metrics-out",
            "m.json",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(scratch.0.join("m.json")).expect("m.json written");
    let metrics: serde_json::Value = serde_json::from_str(&text).unwrap();
    let counter = |path: &str| {
        path.split('.')
            .try_fold(&metrics, |node, key| node.get(key))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    assert!(counter("engine.jobs.completed") > 0, "{text}");
    assert!(counter("trace_store.miss") > 0, "{text}");
    assert!(counter("trace_store.write") > 0, "{text}");
}
