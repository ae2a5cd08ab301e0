//! Machine-readable run manifests.
//!
//! Every experiment binary that writes a `results/<name>.csv` also writes a
//! `results/<name>.manifest.json` describing exactly what produced it: the
//! binary, the workload scale, the workloads and prefetchers simulated, and
//! the full [`SystemConfig`] in force. A results directory is then
//! self-describing — no need to reconstruct CLI flags from shell history to
//! reproduce a CSV.

use crate::engine::{detect_parallelism, EngineRun, WorkerStats};
use crate::runner::{PrefetcherKind, SystemConfig};
use cbws_workloads::trace_store::store_file;
use cbws_workloads::Scale;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// Per-worker scheduling stats as persisted in a manifest: the counters of
/// [`WorkerStats`] plus a three-point summary of its job-duration
/// histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestWorker {
    /// Worker index, matching the `worker-N` span lane.
    pub worker: usize,
    /// Jobs this worker claimed and completed.
    pub jobs: usize,
    /// Seconds spent executing jobs.
    pub busy_seconds: f64,
    /// Seconds inside the worker loop not spent on a job.
    pub idle_seconds: f64,
    /// Jobs this worker served from the persistent result store (zero when
    /// the run's result cache was off).
    pub store_hits: usize,
    /// Jobs this worker simulated because the result store had no valid
    /// entry (zero when the run's result cache was off).
    pub store_misses: usize,
    /// Median per-job duration (µs, log2-bucket upper bound).
    pub job_us_p50: u64,
    /// 90th-percentile per-job duration (µs, log2-bucket upper bound).
    pub job_us_p90: u64,
    /// Slowest job (µs, exact).
    pub job_us_max: u64,
}

impl ManifestWorker {
    /// Summarizes one worker's stats for persistence.
    pub fn from_stats(s: &WorkerStats) -> Self {
        ManifestWorker {
            worker: s.worker,
            jobs: s.jobs,
            busy_seconds: s.busy_seconds,
            idle_seconds: s.idle_seconds,
            store_hits: s.store_hits,
            store_misses: s.store_misses,
            job_us_p50: s.job_us.percentile(0.50),
            job_us_p90: s.job_us.percentile(0.90),
            job_us_max: s.job_us.max(),
        }
    }
}

/// What produced one results artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// The binary that ran (e.g. `"fig12_mpki"`).
    pub binary: String,
    /// Workload scale, lowercase (`"tiny"`, `"small"`, `"full"`).
    pub scale: String,
    /// Workload names simulated, in run order.
    pub workloads: Vec<String>,
    /// Prefetcher display names simulated, in run order.
    pub prefetchers: Vec<String>,
    /// The full system configuration in force.
    pub config: SystemConfig,
    /// Engine worker threads used (`0` when the binary ran serially or did
    /// no simulation sweep).
    pub jobs: usize,
    /// Cores the host reported at run time ([`detect_parallelism`]) — the
    /// context that makes `jobs` and the worker split interpretable.
    pub host_cores: usize,
    /// End-to-end wall-clock seconds of the sweep (`0.0` when untimed).
    pub wall_seconds: f64,
    /// Per-phase wall-clock totals in seconds, summed across workers
    /// (e.g. `"generate"`, `"simulate"`, `"store"`); phases that never ran
    /// are absent. Empty when untimed.
    pub phases: BTreeMap<String, f64>,
    /// Per-worker jobs/busy/idle breakdown of the engine run, ordered by
    /// worker index. Empty when the binary ran serially.
    pub worker_stats: Vec<ManifestWorker>,
}

impl RunManifest {
    /// Builds a manifest for `binary` running `prefetchers` over
    /// `workloads` at `scale` under `config`.
    pub fn new(
        binary: &str,
        scale: Scale,
        workloads: impl IntoIterator<Item = impl Into<String>>,
        prefetchers: impl IntoIterator<Item = PrefetcherKind>,
        config: SystemConfig,
    ) -> Self {
        RunManifest {
            binary: binary.to_string(),
            scale: scale.to_string(),
            workloads: workloads.into_iter().map(Into::into).collect(),
            prefetchers: prefetchers
                .into_iter()
                .map(|k| k.name().to_string())
                .collect(),
            config,
            jobs: 0,
            host_cores: detect_parallelism(),
            wall_seconds: 0.0,
            phases: BTreeMap::new(),
            worker_stats: Vec::new(),
        }
    }

    /// Records an engine run's timing (builder-style): its worker count,
    /// wall-clock seconds, per-phase totals and per-worker breakdown. A
    /// binary that drives several runs folds them with
    /// [`EngineRun::merge`] first.
    pub fn with_run(mut self, run: &EngineRun) -> Self {
        self.jobs = run.workers;
        self.wall_seconds = run.wall_seconds;
        self.phases = run.phases();
        self.worker_stats = run
            .worker_stats
            .iter()
            .map(ManifestWorker::from_stats)
            .collect();
        self
    }

    /// The manifest as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("manifest serialization is infallible")
    }

    /// Writes the manifest to `results/<name>.manifest.json` next to the
    /// CSV of the same name (best-effort, like `save_csv`: errors go to
    /// stderr but are not fatal). The write is atomic (unique temporary
    /// file + rename), so a sweep killed mid-save can never leave a torn
    /// manifest behind — a prerequisite for trusting `--resume` runs.
    pub fn save(&self, name: &str) {
        let path = Path::new("results").join(format!("{name}.manifest.json"));
        let bytes = self.to_json() + "\n";
        if let Err(e) = store_file::write_atomic(&path, bytes.as_bytes()) {
            cbws_telemetry::warn!("cannot write {}: {e}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_through_json() {
        let mut job_us = cbws_telemetry::Log2Histogram::new();
        job_us.record(900);
        job_us.record(1100);
        let run = EngineRun {
            workers: 4,
            wall_seconds: 1.25,
            worker_stats: vec![WorkerStats {
                worker: 0,
                jobs: 2,
                busy_seconds: 0.002,
                idle_seconds: 0.001,
                store_hits: 1,
                store_misses: 1,
                job_us,
                cached_seconds: None,
                generate_seconds: Some(0.25),
                simulate_seconds: Some(0.75),
                store_seconds: None,
            }],
            ..EngineRun::default()
        };
        let m = RunManifest::new(
            "fig12_mpki",
            Scale::Small,
            ["stencil-default", "histo-large"],
            PrefetcherKind::ALL,
            SystemConfig::default(),
        )
        .with_run(&run);
        let json = m.to_json();
        assert!(json.contains("\"binary\""));
        assert!(json.contains("fig12_mpki"));
        assert!(json.contains("CBWS+SMS"));
        assert!(json.contains("\"wall_seconds\""));
        assert!(json.contains("\"host_cores\""));
        assert!(json.contains("\"worker_stats\""));
        let back: RunManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.scale, "small");
        assert_eq!(back.workloads.len(), 2);
        assert_eq!(back.prefetchers.len(), 7);
        assert_eq!(back.jobs, 4);
        assert!(back.host_cores >= 1);
        assert_eq!(back.phases.len(), 2);
        assert!((back.phases["simulate"] - 0.75).abs() < 1e-9);
        assert!(!back.phases.contains_key("cached"));
        assert_eq!(back.worker_stats.len(), 1);
        assert_eq!(back.worker_stats[0].jobs, 2);
        assert_eq!(back.worker_stats[0].job_us_max, 1100);
        assert_eq!(back.worker_stats[0].job_us_p50, 1023);
    }
}
