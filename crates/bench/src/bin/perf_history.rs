//! CLI driver for the append-only performance history
//! (`cbws_bench::perf_history`).
//!
//! ```text
//! perf-history record [--dir results/perf-history] [FILE...]
//! perf-history trends [--dir results/perf-history]
//! perf-history check  [--dir results/perf-history] [--k 3.0] [--warn-only]
//! ```
//!
//! `record` appends each `BENCH_*.json` snapshot (default: every
//! `perf_history::SNAPSHOT_FILES` entry present at the root of the workspace
//! the current directory is in) to
//! `results/perf-history/<bench>.jsonl`, stamped with the current git
//! revision and timestamp. `trends` prints the rolling mean/stddev of every
//! metric against the latest run. `check` exits non-zero when a hard-gated
//! wall-clock metric (see `perf_history::HARD_METRICS`) regresses beyond
//! `k` stddevs of its prior runs, or when an absolute gate on the latest
//! record fails (`replay_speedup >= 1.0`; single-worker
//! `engine_warm_seconds <= 1.02 x serial_seconds`; cached sweep
//! `engine_warm_seconds / engine_cached_seconds >= 3.0` — see
//! `perf_history::check_gates`); `--warn-only` downgrades failures to
//! warnings for hosts whose timings are known-noisy (e.g. single-core CI
//! runners). `--check` is accepted as an alias for the `check` subcommand.

use cbws_bench::perf_history::{
    self, append, benches_in, check, check_gates, git_rev, load, load_snapshot, snapshot_paths,
    trends, unix_time_now, DEFAULT_K,
};
use cbws_bench::workspace_root;
use std::path::PathBuf;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perf-history [record|trends|check|--check] \
         [--dir DIR] [--k K] [--warn-only] [FILE...]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<&str> = None;
    let mut dir: Option<PathBuf> = None;
    let mut k = DEFAULT_K;
    let mut warn_only = false;
    let mut files: Vec<PathBuf> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "record" | "trends" | "check" => {
                if mode.is_some() {
                    fail("more than one subcommand");
                }
                mode = Some(match arg.as_str() {
                    "record" => "record",
                    "trends" => "trends",
                    _ => "check",
                });
            }
            "--check" => mode = Some("check"),
            "--dir" => {
                dir = Some(PathBuf::from(
                    it.next().unwrap_or_else(|| fail("--dir needs a path")),
                ))
            }
            "--k" => {
                k = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--k needs a number"))
            }
            "--warn-only" => warn_only = true,
            other if !other.starts_with("--") => files.push(PathBuf::from(other)),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    let dir = dir.unwrap_or_else(|| workspace_root().join("results/perf-history"));

    match mode.unwrap_or_else(|| fail("missing subcommand")) {
        "record" => {
            let root = workspace_root();
            if files.is_empty() {
                files = snapshot_paths(&root);
                if files.is_empty() {
                    fail("no BENCH_*.json snapshots at the repository root and no FILE given");
                }
            }
            let rev = git_rev(&root);
            let now = unix_time_now();
            for file in &files {
                let record = load_snapshot(file, &rev, now).unwrap_or_else(|e| fail(&e));
                append(&dir, &record).unwrap_or_else(|e| fail(&e));
                println!(
                    "[perf-history] appended {} @ {rev} to {}",
                    record.bench,
                    record.path_in(&dir).display()
                );
            }
        }
        "trends" => {
            for bench in benches_in(&dir) {
                let history = load(&dir, &bench).unwrap_or_else(|e| fail(&e));
                println!("{bench} ({} runs):", history.len());
                for t in trends(&history) {
                    println!(
                        "  {:<24} latest {:>10.4}  mean {:>10.4} ± {:.4} over {} runs  ({:+.1}%)",
                        t.metric,
                        t.latest,
                        t.mean,
                        t.stddev,
                        t.prior_runs,
                        t.delta_fraction() * 100.0
                    );
                }
            }
        }
        "check" => {
            let found = check(&dir, k).unwrap_or_else(|e| fail(&e));
            let mut hard_failures = 0;
            for r in &found {
                let spread = r
                    .trend
                    .stddev
                    .max(perf_history::NOISE_FLOOR_FRACTION * r.trend.mean);
                let kind = if r.hard && !warn_only { "FAIL" } else { "warn" };
                if r.hard && !warn_only {
                    hard_failures += 1;
                }
                println!(
                    "[perf-history] {kind}: {}/{} latest {:.4} > mean {:.4} + {k} x {:.4} \
                     ({} prior runs, {:+.1}%)",
                    r.bench,
                    r.trend.metric,
                    r.trend.latest,
                    r.trend.mean,
                    spread,
                    r.trend.prior_runs,
                    r.trend.delta_fraction() * 100.0
                );
            }
            let gates = check_gates(&dir).unwrap_or_else(|e| fail(&e));
            for g in &gates {
                let kind = if warn_only { "warn" } else { "FAIL" };
                if !warn_only {
                    hard_failures += 1;
                }
                println!("[perf-history] {kind}: {} gate: {}", g.bench, g.message);
            }
            if found.is_empty() && gates.is_empty() {
                println!(
                    "[perf-history] check passed: no {k}-sigma regressions, \
                     absolute gates hold"
                );
            }
            if hard_failures > 0 {
                std::process::exit(1);
            }
        }
        _ => unreachable!(),
    }
}
