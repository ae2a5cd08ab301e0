//! Append-only performance history with regression gating.
//!
//! Each `BENCH_*.json` snapshot at the repository root records one run of a
//! wall-clock benchmark, but a single snapshot cannot say whether 0.64 s is
//! normal or a regression. This module turns those snapshots into an
//! auditable trend: every recorded run is appended — with its git revision,
//! core count, and timestamp — as one JSON line in
//! `results/perf-history/<bench>.jsonl`, and `check` compares the latest
//! run of each time-like metric against the rolling mean/stddev of the
//! runs before it.
//!
//! # Gating policy
//!
//! A metric regresses when
//!
//! ```text
//! latest > mean + k * max(stddev, NOISE_FLOOR_FRACTION * mean)
//! ```
//!
//! over the prior runs. The floor keeps a history of near-identical timings
//! (stddev ≈ 0) from flagging sub-percent jitter. Only metrics whose name
//! ends in `_seconds` are gated (they are the "lower is better" wall
//! clocks); of those, only [`HARD_METRICS`] fail the check — the rest warn.
//! `engine_warm_seconds` is the hard gate because the warm-store engine
//! sweep is the steady state CI and developers actually wait on, and it is
//! the least noisy of the recorded clocks (no DSL generation, no file
//! writes).
//!
//! On top of the rolling gate, [`check_gates`] pins four absolute
//! invariants on the *latest* record regardless of history: replaying
//! straight from the stored packed trace must stay at least as fast as
//! materializing the AoS vector and replaying that
//! (`replay_speedup >=` [`REPLAY_SPEEDUP_FLOOR`]); disk-backed streamed
//! replay must hold [`STREAM_THROUGHPUT_FLOOR`] of warm in-memory replay
//! throughput; a single-worker engine sweep must stay within
//! [`SINGLE_WORKER_OVERHEAD_CEILING`]` * serial_seconds`; and a sweep
//! served from the persistent result store must beat the warm engine
//! sweep by [`CACHED_SWEEP_SPEEDUP_FLOOR`]`x`. Each bound is a ratio
//! between two legs of one run — packed against AoS replay, streamed
//! against in-memory replay, one worker against the serial loop, cached
//! against simulated jobs — so it holds across hosts where a wall-clock
//! mean would not.
//!
//! The driver is the `perf-history` binary; see its module docs for the
//! CLI. Snapshot parsing is shared through [`load_snapshot`] /
//! [`snapshot_paths`] so the CLI's `record` mode and docgen's book pages
//! read `BENCH_*.json` identically. The generated book's "Performance
//! trends" page renders the same history via [`trends`].

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Default regression threshold in stddev multiples.
pub const DEFAULT_K: f64 = 3.0;

/// Relative noise floor substituted for the stddev when the history is
/// tighter than this fraction of the mean (guards against near-zero
/// stddev flagging jitter).
pub const NOISE_FLOOR_FRACTION: f64 = 0.02;

/// Metrics whose regression fails `check` (everything else `_seconds`
/// only warns).
pub const HARD_METRICS: &[&str] = &["engine_warm_seconds"];

/// Minimum prior runs before a metric is gated at all.
pub const MIN_HISTORY: usize = 3;

/// Floor on the `trace_replay` bench's `replay_speedup`
/// (materialize-then-replay AoS seconds / direct packed replay seconds).
/// Traces live packed in the store, so the engine's choice is direct
/// cursor replay versus decoding to a `Vec<TraceEvent>` first; if the
/// cursor ever loses that end-to-end race, direct packed replay is the
/// wrong default and this gate says so. (The pure replay-kernel ratio
/// with both representations pre-materialized is published alongside as
/// `replay_kernel_ratio`, ungated: it hovers around parity and is noisy
/// at small scale.)
pub const REPLAY_SPEEDUP_FLOOR: f64 = 1.0;

/// Ceiling on `engine_warm_seconds / serial_seconds` when the recorded
/// sweep ran with one worker: a one-worker engine run, inline on the
/// calling thread, keeps scheduler overhead within 2% of the serial loop. Multi-worker records skip
/// this gate — their ratio measures parallel speedup, which is
/// host-dependent.
pub const SINGLE_WORKER_OVERHEAD_CEILING: f64 = 1.02;

/// Floor on `engine_warm_seconds / engine_cached_seconds` for sweep
/// records that publish both: a full-matrix sweep served entirely from
/// the persistent result store skips trace loading *and* simulation per
/// job, so it must beat the warm engine sweep (which still simulates
/// every job from stored traces) by at least this factor. A miss means
/// the store's verify-and-load path got slower than simulating — the
/// cache stopped paying for itself.
pub const CACHED_SWEEP_SPEEDUP_FLOOR: f64 = 3.0;

/// Floor on the `stream_replay` bench's `stream_throughput_ratio` (warm
/// in-memory replay seconds / streamed replay seconds). The disk-backed
/// cursor pays for open + validation + per-frame decode with no resident
/// frames to lean on, but the read-ahead thread must keep it within 30%
/// of the in-memory path — otherwise streaming is too slow to be the
/// default above the byte threshold, and the bound that makes `huge`
/// traces replayable has quietly rotted.
pub const STREAM_THROUGHPUT_FLOOR: f64 = 0.7;

/// The benchmark snapshot files committed at the repository root, in
/// recording order.
pub const SNAPSHOT_FILES: &[&str] = &[
    "BENCH_sweep.json",
    "BENCH_trace.json",
    "BENCH_decode.json",
    "BENCH_stream.json",
];

/// One recorded benchmark run: the numeric metrics of a `BENCH_*.json`
/// snapshot plus the provenance that makes the line auditable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfRecord {
    /// Benchmark id (`"sweep_e2e"`, `"trace_replay"`).
    pub bench: String,
    /// `git rev-parse --short HEAD` at record time, or `"unknown"`.
    pub git_rev: String,
    /// Host cores at record time (context for wall clocks).
    pub cores: usize,
    /// Seconds since the Unix epoch at record time.
    pub unix_time: u64,
    /// Workload scale the benchmark ran at.
    pub scale: String,
    /// Every numeric field of the snapshot, by name.
    pub metrics: BTreeMap<String, f64>,
}

impl PerfRecord {
    /// Parses one `BENCH_*.json` snapshot into a record. Numeric fields
    /// become metrics; strings, booleans, arrays, and nested objects are
    /// provenance or detail, not trend series, and are skipped.
    pub fn from_bench_json(
        json: &str,
        git_rev: &str,
        unix_time: u64,
    ) -> Result<PerfRecord, String> {
        let value: serde::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let obj = value.as_object().ok_or("snapshot is not a JSON object")?;
        let field = |name: &str| -> Result<String, String> {
            value
                .get(name)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("snapshot has no string field `{name}`"))
        };
        let mut metrics = BTreeMap::new();
        let mut cores = 0usize;
        for (key, v) in obj {
            if key.as_str() == "cores" {
                cores = v.as_u64().unwrap_or(0) as usize;
                continue;
            }
            if let Some(n) = v.as_f64() {
                metrics.insert(key.clone(), n);
            }
        }
        Ok(PerfRecord {
            bench: field("bench")?,
            git_rev: git_rev.to_string(),
            cores,
            unix_time,
            scale: field("scale")?,
            metrics,
        })
    }

    /// The history file this record appends to under `dir`.
    pub fn path_in(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.jsonl", self.bench))
    }
}

/// The [`SNAPSHOT_FILES`] that exist under `root`.
pub fn snapshot_paths(root: &Path) -> Vec<PathBuf> {
    SNAPSHOT_FILES
        .iter()
        .map(|name| root.join(name))
        .filter(|p| p.exists())
        .collect()
}

/// Reads and parses one `BENCH_*.json` snapshot file into a
/// [`PerfRecord`] — the one loader shared by the `perf-history record`
/// CLI and docgen's generated book pages, so snapshot parsing cannot
/// drift between them.
pub fn load_snapshot(path: &Path, git_rev: &str, unix_time: u64) -> Result<PerfRecord, String> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    PerfRecord::from_bench_json(&json, git_rev, unix_time)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Appends `record` as one JSON line to `dir/<bench>.jsonl`, creating the
/// directory as needed.
pub fn append(dir: &Path, record: &PerfRecord) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let line = serde_json::to_string(record).map_err(|e| e.to_string())?;
    let path = record.path_in(dir);
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    writeln!(f, "{line}").map_err(|e| format!("cannot append to {}: {e}", path.display()))
}

/// Loads one benchmark's history (oldest first). A missing file is an
/// empty history; a corrupt line is an error — history is an audit trail,
/// so silent skips would hide tampering or tooling bugs.
pub fn load(dir: &Path, bench: &str) -> Result<Vec<PerfRecord>, String> {
    let path = dir.join(format!("{bench}.jsonl"));
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// Benchmark names present in `dir` (sorted).
pub fn benches_in(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| {
                    let name = e.file_name().into_string().ok()?;
                    name.strip_suffix(".jsonl").map(str::to_string)
                })
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    names
}

/// Rolling statistics of one metric across a history, with the latest run
/// split out for comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Trend {
    /// Metric name (`"engine_warm_seconds"`).
    pub metric: String,
    /// Runs contributing to `mean`/`stddev` (all but the latest).
    pub prior_runs: usize,
    /// Mean over the prior runs.
    pub mean: f64,
    /// Population stddev over the prior runs.
    pub stddev: f64,
    /// The latest run's value.
    pub latest: f64,
}

impl Trend {
    /// `latest` as a signed fraction of `mean` (+0.08 = 8% above mean);
    /// 0 when the mean is 0.
    pub fn delta_fraction(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.latest / self.mean - 1.0
        }
    }

    /// Whether the latest value regresses past `k` stddevs (with the
    /// [`NOISE_FLOOR_FRACTION`] floor) above the prior mean. Only
    /// meaningful for "lower is better" metrics; callers filter to
    /// `*_seconds` names.
    pub fn regressed(&self, k: f64) -> bool {
        if self.prior_runs < MIN_HISTORY {
            return false;
        }
        let spread = self.stddev.max(NOISE_FLOOR_FRACTION * self.mean);
        self.latest > self.mean + k * spread
    }
}

/// Per-metric trends of a history (every metric of the latest record that
/// also appears in at least one prior record). Empty when the history has
/// fewer than two runs.
pub fn trends(history: &[PerfRecord]) -> Vec<Trend> {
    let Some((latest, prior)) = history.split_last() else {
        return Vec::new();
    };
    if prior.is_empty() {
        return Vec::new();
    }
    latest
        .metrics
        .iter()
        .filter_map(|(name, &value)| {
            let series: Vec<f64> = prior
                .iter()
                .filter_map(|r| r.metrics.get(name).copied())
                .collect();
            if series.is_empty() {
                return None;
            }
            let n = series.len() as f64;
            let mean = series.iter().sum::<f64>() / n;
            let var = series.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
            Some(Trend {
                metric: name.clone(),
                prior_runs: series.len(),
                mean,
                stddev: var.sqrt(),
                latest: value,
            })
        })
        .collect()
}

/// One gate violation found by [`check`].
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The benchmark the metric belongs to.
    pub bench: String,
    /// The regressed trend.
    pub trend: Trend,
    /// Whether this metric is in [`HARD_METRICS`] (fails the check) or
    /// only warns.
    pub hard: bool,
}

/// Checks every history in `dir` at threshold `k`: each `*_seconds` metric
/// of each latest run is compared against its prior mean/stddev. Returns
/// all violations, hard and soft.
pub fn check(dir: &Path, k: f64) -> Result<Vec<Regression>, String> {
    let mut out = Vec::new();
    for bench in benches_in(dir) {
        let history = load(dir, &bench)?;
        for trend in trends(&history) {
            if !trend.metric.ends_with("_seconds") {
                continue;
            }
            if trend.regressed(k) {
                let hard = HARD_METRICS.contains(&trend.metric.as_str());
                out.push(Regression {
                    bench: bench.clone(),
                    trend,
                    hard,
                });
            }
        }
    }
    Ok(out)
}

/// One absolute-gate violation found by [`check_gates`]. Absolute gates
/// are always hard: they pin invariants an optimization established, so a
/// miss means the optimization stopped working, not that the host was
/// slow that day.
#[derive(Debug, Clone, PartialEq)]
pub struct GateViolation {
    /// The benchmark whose latest record violated the gate.
    pub bench: String,
    /// Human-readable statement of the violated bound, with values.
    pub message: String,
}

/// Applies the absolute gates to the **latest** record of each history in
/// `dir` (no prior runs needed, unlike [`check`]):
///
/// - `trace_replay`: `replay_speedup >=` [`REPLAY_SPEEDUP_FLOOR`].
/// - `stream_replay`: `stream_throughput_ratio >=`
///   [`STREAM_THROUGHPUT_FLOOR`].
/// - `sweep_e2e` recorded at `workers == 1`:
///   `engine_warm_seconds <=` [`SINGLE_WORKER_OVERHEAD_CEILING`]
///   `* serial_seconds`.
///
/// Records missing the gated metrics are skipped — the gates constrain
/// benchmarks that publish them, they don't require every bench to.
pub fn check_gates(dir: &Path) -> Result<Vec<GateViolation>, String> {
    let mut out = Vec::new();
    for bench in benches_in(dir) {
        let history = load(dir, &bench)?;
        let Some(latest) = history.last() else {
            continue;
        };
        let metric = |name: &str| latest.metrics.get(name).copied();
        if let Some(speedup) = metric("replay_speedup") {
            if speedup < REPLAY_SPEEDUP_FLOOR {
                out.push(GateViolation {
                    bench: bench.clone(),
                    message: format!(
                        "replay_speedup {speedup:.3} < floor {REPLAY_SPEEDUP_FLOOR} \
                         (direct packed replay slower than materialize-then-replay AoS)"
                    ),
                });
            }
        }
        if let Some(ratio) = metric("stream_throughput_ratio") {
            if ratio < STREAM_THROUGHPUT_FLOOR {
                out.push(GateViolation {
                    bench: bench.clone(),
                    message: format!(
                        "stream_throughput_ratio {ratio:.3} < floor {STREAM_THROUGHPUT_FLOOR} \
                         (disk-backed streamed replay fell behind warm in-memory replay)"
                    ),
                });
            }
        }
        if let (Some(workers), Some(warm), Some(serial)) = (
            metric("workers"),
            metric("engine_warm_seconds"),
            metric("serial_seconds"),
        ) {
            if workers == 1.0 && serial > 0.0 && warm > SINGLE_WORKER_OVERHEAD_CEILING * serial {
                out.push(GateViolation {
                    bench: bench.clone(),
                    message: format!(
                        "engine_warm_seconds {warm:.4} > {SINGLE_WORKER_OVERHEAD_CEILING} x \
                         serial_seconds {serial:.4} at workers=1 \
                         (single-worker engine overhead above 2%)"
                    ),
                });
            }
        }
        if let (Some(warm), Some(cached)) = (
            metric("engine_warm_seconds"),
            metric("engine_cached_seconds"),
        ) {
            if cached > 0.0 && warm / cached < CACHED_SWEEP_SPEEDUP_FLOOR {
                out.push(GateViolation {
                    bench: bench.clone(),
                    message: format!(
                        "engine_warm_seconds {warm:.4} / engine_cached_seconds {cached:.4} = \
                         {:.2} < floor {CACHED_SWEEP_SPEEDUP_FLOOR} \
                         (result-store sweep no longer beats re-simulation)",
                        warm / cached
                    ),
                });
            }
        }
    }
    Ok(out)
}

/// `git rev-parse --short HEAD` of the working tree containing `dir`, or
/// `"unknown"` when git is unavailable (history stays appendable without
/// provenance rather than failing the run).
pub fn git_rev(dir: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Seconds since the Unix epoch, saturating at 0 on a pre-1970 clock.
pub fn unix_time_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bench: &str, warm: f64, serial: f64) -> PerfRecord {
        let mut metrics = BTreeMap::new();
        metrics.insert("engine_warm_seconds".into(), warm);
        metrics.insert("serial_seconds".into(), serial);
        metrics.insert("speedup".into(), serial / warm);
        PerfRecord {
            bench: bench.into(),
            git_rev: "abc1234".into(),
            cores: 8,
            unix_time: 1_700_000_000,
            scale: "small".into(),
            metrics,
        }
    }

    #[test]
    fn bench_json_parses_numeric_fields_only() {
        let json = r#"{"bench":"sweep_e2e","scale":"small","cores":4,
            "engine_warm_seconds":0.63,"identical_records":true,
            "note":"text","workers_detail":[{"worker":0}]}"#;
        let r = PerfRecord::from_bench_json(json, "deadbee", 42).unwrap();
        assert_eq!(r.bench, "sweep_e2e");
        assert_eq!(r.scale, "small");
        assert_eq!(r.cores, 4);
        assert_eq!(r.git_rev, "deadbee");
        assert_eq!(r.unix_time, 42);
        assert_eq!(r.metrics.len(), 1);
        assert!((r.metrics["engine_warm_seconds"] - 0.63).abs() < 1e-12);
    }

    #[test]
    fn trends_split_latest_from_prior() {
        let history: Vec<PerfRecord> = [0.60, 0.62, 0.61, 0.70]
            .iter()
            .map(|&w| record("sweep_e2e", w, 1.0))
            .collect();
        let t = trends(&history);
        let warm = t
            .iter()
            .find(|t| t.metric == "engine_warm_seconds")
            .unwrap();
        assert_eq!(warm.prior_runs, 3);
        assert!((warm.mean - 0.61).abs() < 1e-9);
        assert!((warm.latest - 0.70).abs() < 1e-12);
        assert!(warm.delta_fraction() > 0.14);
    }

    #[test]
    fn short_history_never_regresses() {
        let history: Vec<PerfRecord> = [0.6, 60.0].iter().map(|&w| record("b", w, 1.0)).collect();
        let t = trends(&history);
        let warm = t
            .iter()
            .find(|t| t.metric == "engine_warm_seconds")
            .unwrap();
        assert!(!warm.regressed(DEFAULT_K), "1 prior run must not gate");
    }

    #[test]
    fn noise_floor_absorbs_tiny_jitter() {
        // Identical history → stddev 0; a 1% bump must NOT regress (floor
        // is 2% of mean × k), but a 10% bump must.
        let mut history: Vec<PerfRecord> = (0..4).map(|_| record("b", 0.600, 1.0)).collect();
        history.push(record("b", 0.606, 1.0));
        let warm = |h: &[PerfRecord]| {
            trends(h)
                .into_iter()
                .find(|t| t.metric == "engine_warm_seconds")
                .unwrap()
        };
        assert!(!warm(&history).regressed(DEFAULT_K));
        *history.last_mut().unwrap() = record("b", 0.660, 1.0);
        assert!(warm(&history).regressed(DEFAULT_K));
    }

    #[test]
    fn append_load_check_round_trip() {
        let dir = std::env::temp_dir().join(format!("cbws-perf-history-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for w in [0.60, 0.62, 0.61, 0.62] {
            append(&dir, &record("sweep_e2e", w, 1.0)).unwrap();
        }
        assert_eq!(benches_in(&dir), vec!["sweep_e2e".to_string()]);
        let history = load(&dir, "sweep_e2e").unwrap();
        assert_eq!(history.len(), 4);
        assert!(
            check(&dir, DEFAULT_K).unwrap().is_empty(),
            "steady history passes"
        );

        // Inject a 30% warm-path regression: check must flag it as hard.
        append(&dir, &record("sweep_e2e", 0.80, 1.0)).unwrap();
        let found = check(&dir, DEFAULT_K).unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].trend.metric, "engine_warm_seconds");
        assert!(found[0].hard);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn replay_record(speedup: f64) -> PerfRecord {
        let mut metrics = BTreeMap::new();
        metrics.insert("replay_speedup".into(), speedup);
        metrics.insert("replay_packed_seconds".into(), 0.02 / speedup);
        PerfRecord {
            bench: "trace_replay".into(),
            git_rev: "abc1234".into(),
            cores: 1,
            unix_time: 1_700_000_000,
            scale: "small".into(),
            metrics,
        }
    }

    fn sweep_record(workers: f64, warm: f64, serial: f64) -> PerfRecord {
        let mut r = record("sweep_e2e", warm, serial);
        r.metrics.insert("workers".into(), workers);
        r
    }

    #[test]
    fn replay_speedup_floor_gates_only_the_latest_record() {
        let dir = std::env::temp_dir().join(format!("cbws-gate-replay-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // An old below-floor record followed by a passing one: clean.
        append(&dir, &replay_record(0.89)).unwrap();
        append(&dir, &replay_record(1.12)).unwrap();
        assert!(check_gates(&dir).unwrap().is_empty());
        // A new below-floor record trips the gate with no history needed.
        append(&dir, &replay_record(0.97)).unwrap();
        let found = check_gates(&dir).unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].bench, "trace_replay");
        assert!(found[0].message.contains("replay_speedup 0.970"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_worker_overhead_ceiling_skips_parallel_sweeps() {
        let dir = std::env::temp_dir().join(format!("cbws-gate-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Within 2% of serial at one worker: clean.
        append(&dir, &sweep_record(1.0, 1.01, 1.0)).unwrap();
        assert!(check_gates(&dir).unwrap().is_empty());
        // 5% over at one worker: violation.
        append(&dir, &sweep_record(1.0, 1.05, 1.0)).unwrap();
        let found = check_gates(&dir).unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("workers=1"));
        // Same ratio at four workers measures parallel speedup, not fast
        // path overhead: skipped.
        append(&dir, &sweep_record(4.0, 1.05, 1.0)).unwrap();
        assert!(check_gates(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gates_skip_benches_without_the_gated_metrics() {
        let dir = std::env::temp_dir().join(format!("cbws-gate-none-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        append(&dir, &record("decode_throughput", 0.5, 1.0)).unwrap();
        // `record` has engine_warm_seconds/serial_seconds but no `workers`
        // metric, so the ratio gate cannot apply; neither can the replay
        // floor or the cached-sweep floor (no engine_cached_seconds).
        // Empty dirs are clean too.
        assert!(check_gates(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn stream_record(ratio: f64) -> PerfRecord {
        let mut metrics = BTreeMap::new();
        metrics.insert("stream_throughput_ratio".into(), ratio);
        metrics.insert("replay_stream_seconds".into(), 0.05 / ratio);
        PerfRecord {
            bench: "stream_replay".into(),
            git_rev: "abc1234".into(),
            cores: 1,
            unix_time: 1_700_000_000,
            scale: "small".into(),
            metrics,
        }
    }

    #[test]
    fn stream_throughput_floor_gates_only_the_latest_record() {
        let dir = std::env::temp_dir().join(format!("cbws-gate-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // An old below-floor record superseded by a passing one: clean.
        append(&dir, &stream_record(0.55)).unwrap();
        append(&dir, &stream_record(0.92)).unwrap();
        assert!(check_gates(&dir).unwrap().is_empty());
        // A fresh record under the 0.7 floor trips the gate immediately.
        append(&dir, &stream_record(0.64)).unwrap();
        let found = check_gates(&dir).unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].bench, "stream_replay");
        assert!(found[0].message.contains("stream_throughput_ratio 0.640"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn cached_sweep_record(warm: f64, cached: f64) -> PerfRecord {
        let mut r = record("sweep_e2e", warm, warm);
        r.metrics.insert("engine_cached_seconds".into(), cached);
        r.metrics.insert("cached_speedup".into(), warm / cached);
        r
    }

    #[test]
    fn cached_sweep_floor_gates_only_the_latest_record() {
        let dir = std::env::temp_dir().join(format!("cbws-gate-cached-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // 5x over the warm sweep: clean (and the old sub-floor record
        // below does not resurrect once superseded).
        append(&dir, &cached_sweep_record(1.0, 0.4)).unwrap();
        append(&dir, &cached_sweep_record(1.0, 0.2)).unwrap();
        assert!(check_gates(&dir).unwrap().is_empty());
        // Latest record at 2.5x — under the 3x floor — trips the gate.
        append(&dir, &cached_sweep_record(1.0, 0.4)).unwrap();
        let found = check_gates(&dir).unwrap();
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].bench, "sweep_e2e");
        assert!(found[0].message.contains("engine_cached_seconds"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_loader_reads_bench_json_and_skips_missing_files() {
        let root = std::env::temp_dir().join(format!("cbws-snapshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        assert!(snapshot_paths(&root).is_empty(), "no snapshots yet");
        std::fs::write(
            root.join("BENCH_sweep.json"),
            r#"{"bench":"sweep_e2e","scale":"small","cores":2,
                "engine_warm_seconds":0.5,"engine_cached_seconds":0.1}"#,
        )
        .unwrap();
        let paths = snapshot_paths(&root);
        assert_eq!(paths, vec![root.join("BENCH_sweep.json")]);
        let r = load_snapshot(&paths[0], "deadbee", 42).unwrap();
        assert_eq!(r.bench, "sweep_e2e");
        assert_eq!(r.cores, 2);
        assert!((r.metrics["engine_cached_seconds"] - 0.1).abs() < 1e-12);
        let err = load_snapshot(&root.join("BENCH_trace.json"), "deadbee", 42).unwrap_err();
        assert!(err.contains("BENCH_trace.json"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
