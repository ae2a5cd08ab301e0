//! Reusable sweep orchestration — the service layer shared by the CLI
//! binaries and the sweep server (`crates/server`).
//!
//! Before this module existed, every harness binary hand-wired the same
//! sequence: pick workloads and prefetchers, build an [`EngineConfig`],
//! run the engine, and assemble a [`RunManifest`] from the run's timing
//! and worker stats. The sweep server needs exactly that sequence driven
//! from an HTTP request instead of the command line, so the pieces live
//! here as plain data in / data out functions:
//!
//! - [`resolve_workloads`] / [`resolve_kinds`] / [`parse_scale`] turn
//!   client-supplied *names* (workload names, prefetcher display names,
//!   the `all` / `mi` / `extended` group aliases) into specs, with
//!   human-readable errors naming the unknown input;
//! - [`SweepSpec`] is one fully resolved sweep request;
//! - [`SweepSession`] carries the process-level wiring (telemetry sink,
//!   span collector, result-store policy) and [`SweepSession::run`]
//!   executes a spec, returning the records *and* the manifest in one
//!   [`SweepOutcome`].
//!
//! The binaries' one sweep entry, [`crate::cli::Cli::sweep`], delegates here,
//! so a sweep submitted over HTTP and one run from the command line share
//! every line of orchestration code — the byte-identical-records
//! guarantee is structural, not coincidental.

use crate::engine::{Engine, EngineConfig, EngineRun, JobObserver, ResultCache};
use crate::manifest::RunManifest;
use crate::runner::{PrefetcherKind, SystemConfig};
use cbws_telemetry::{Spans, Telemetry};
use cbws_workloads::{by_name, mi_suite, Scale, WorkloadSpec, ALL};

/// Resolves client-supplied workload names into specs. The aliases `all`
/// (every benchmark; also the empty list's meaning) and `mi` (the
/// memory-intensive suite) are accepted alongside exact names; an unknown
/// name fails with a message listing it.
pub fn resolve_workloads(names: &[String]) -> Result<Vec<&'static WorkloadSpec>, String> {
    if names.is_empty() || (names.len() == 1 && names[0] == "all") {
        return Ok(ALL.iter().collect());
    }
    if names.len() == 1 && names[0] == "mi" {
        return Ok(mi_suite());
    }
    let mut out = Vec::with_capacity(names.len());
    for name in names {
        match by_name(name) {
            Some(w) => out.push(w),
            None => {
                return Err(format!(
                    "unknown workload `{name}` (use exact names from /v1/workloads, \
                     or the aliases `all` / `mi`)"
                ))
            }
        }
    }
    Ok(out)
}

/// Resolves client-supplied prefetcher display names into kinds. The
/// aliases `all` (the paper's seven-kind comparison; also the empty
/// list's meaning) and `extended` (those seven plus the extended-
/// comparison kinds) are accepted alongside exact names, matched
/// case-insensitively; an unknown name fails with a message listing it.
pub fn resolve_kinds(names: &[String]) -> Result<Vec<PrefetcherKind>, String> {
    if names.is_empty() || (names.len() == 1 && names[0] == "all") {
        return Ok(PrefetcherKind::ALL.to_vec());
    }
    if names.len() == 1 && names[0] == "extended" {
        let mut kinds = PrefetcherKind::ALL.to_vec();
        kinds.extend(PrefetcherKind::EXTENDED);
        return Ok(kinds);
    }
    let mut out = Vec::with_capacity(names.len());
    for name in names {
        match PrefetcherKind::from_name(name) {
            Some(k) => out.push(k),
            None => {
                return Err(format!(
                    "unknown prefetcher `{name}` (use display names like `SMS` or \
                     `CBWS+SMS`, or the aliases `all` / `extended`)"
                ))
            }
        }
    }
    Ok(out)
}

/// Parses a lowercase scale name (`tiny` / `small` / `full` / `huge`).
pub fn parse_scale(name: &str) -> Result<Scale, String> {
    match name {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "full" => Ok(Scale::Full),
        "huge" => Ok(Scale::Huge),
        other => Err(format!(
            "unknown scale `{other}` (tiny, small, full, or huge)"
        )),
    }
}

/// One fully resolved sweep request: the `(workload × prefetcher)` matrix,
/// the scale, the worker count, and the system configuration.
#[derive(Debug, Clone)]
pub struct SweepSpec {
    /// Workloads to sweep (outer/major axis of the job matrix).
    pub workloads: Vec<&'static WorkloadSpec>,
    /// Prefetcher kinds to sweep (inner/minor axis).
    pub kinds: Vec<PrefetcherKind>,
    /// Trace scale every job runs at.
    pub scale: Scale,
    /// Engine worker threads; `0` = all cores.
    pub jobs: usize,
    /// System configuration every simulation runs under.
    pub system: SystemConfig,
    /// Streamed-replay threshold in bytes; `None` defers to the
    /// `CBWS_STREAM_THRESHOLD_BYTES` environment variable, then to
    /// [`crate::engine::DEFAULT_STREAM_THRESHOLD_BYTES`]. `Some(0)` streams
    /// every trace from disk.
    pub stream_threshold_bytes: Option<u64>,
}

impl SweepSpec {
    /// The paper's full-matrix sweep: every workload × the seven headline
    /// prefetchers, at `scale`, under the default configuration.
    pub fn full_matrix(scale: Scale, jobs: usize) -> SweepSpec {
        SweepSpec {
            workloads: ALL.iter().collect(),
            kinds: PrefetcherKind::ALL.to_vec(),
            scale,
            jobs,
            system: SystemConfig::default(),
            stream_threshold_bytes: None,
        }
    }

    /// Total jobs the spec expands to.
    pub fn job_count(&self) -> usize {
        self.workloads.len() * self.kinds.len()
    }
}

/// Process-level wiring an orchestrated sweep runs under: where metrics
/// and spans go, and how the persistent result store participates. One
/// session outlives many [`SweepSession::run`] calls — the server builds
/// one at startup; the CLI builds one per invocation from its flags.
#[derive(Debug, Clone)]
pub struct SweepSession {
    /// Sink for `engine.*`, `trace_store.*`, and `result_store.*` metrics.
    pub telemetry: Telemetry,
    /// Span collector for per-worker timelines.
    pub spans: Spans,
    /// Result-store policy for every run of this session.
    pub result_cache: ResultCache,
    /// When `false`, runs consult the store but never persist fresh
    /// records (the server's over-quota mode; see
    /// [`EngineConfig::store_writes`]).
    pub store_writes: bool,
}

impl Default for SweepSession {
    fn default() -> Self {
        SweepSession {
            telemetry: Telemetry::disabled(),
            spans: Spans::disabled(),
            result_cache: ResultCache::Off,
            store_writes: true,
        }
    }
}

/// Everything one orchestrated sweep produced: the engine run (records in
/// serial order, worker stats, phases) and the manifest describing it.
#[derive(Debug)]
pub struct SweepOutcome {
    /// The engine run itself.
    pub run: EngineRun,
    /// A manifest with timing and worker stats already folded in; callers
    /// persist it with [`RunManifest::save`] or embed its JSON form.
    pub manifest: RunManifest,
}

impl SweepSession {
    /// Runs `spec` through the work-stealing engine and assembles the
    /// manifest, attributed to `binary`. `observer` (usually `None`)
    /// streams per-job completions and can cancel the run — see
    /// [`JobObserver`]; a cancelled run still returns its partial records
    /// and an honest manifest.
    pub fn run(
        &self,
        binary: &str,
        spec: &SweepSpec,
        observer: Option<JobObserver>,
    ) -> SweepOutcome {
        let engine = Engine::new(EngineConfig {
            jobs: spec.jobs,
            system: spec.system,
            telemetry: self.telemetry.clone(),
            spans: self.spans.clone(),
            result_cache: self.result_cache.clone(),
            store_writes: self.store_writes,
            observer,
            stream_threshold_bytes: spec.stream_threshold_bytes,
        });
        let run = engine.run(spec.scale, &spec.workloads, &spec.kinds);
        let manifest = RunManifest::new(
            binary,
            spec.scale,
            spec.workloads.iter().map(|w| w.name),
            spec.kinds.iter().copied(),
            spec.system,
        )
        .with_run(&run);
        SweepOutcome { run, manifest }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_aliases_and_names_resolve() {
        assert_eq!(resolve_workloads(&[]).unwrap().len(), ALL.len());
        assert_eq!(resolve_workloads(&["all".into()]).unwrap().len(), ALL.len());
        let mi = resolve_workloads(&["mi".into()]).unwrap();
        assert!(!mi.is_empty() && mi.len() < ALL.len());
        let picked = resolve_workloads(&["stencil-default".into(), "nw".into()]).unwrap();
        assert_eq!(picked.len(), 2);
        assert_eq!(picked[0].name, "stencil-default");
        let err = resolve_workloads(&["no-such-workload".into()]).unwrap_err();
        assert!(err.contains("no-such-workload"), "{err}");
    }

    #[test]
    fn prefetcher_aliases_and_names_resolve() {
        assert_eq!(resolve_kinds(&[]).unwrap(), PrefetcherKind::ALL.to_vec());
        assert_eq!(
            resolve_kinds(&["all".into()]).unwrap().len(),
            PrefetcherKind::ALL.len()
        );
        assert_eq!(
            resolve_kinds(&["extended".into()]).unwrap().len(),
            PrefetcherKind::ALL.len() + PrefetcherKind::EXTENDED.len()
        );
        // Display names, case-insensitively.
        assert_eq!(
            resolve_kinds(&["sms".into(), "CBWS+SMS".into()]).unwrap(),
            vec![PrefetcherKind::Sms, PrefetcherKind::CbwsSms]
        );
        let err = resolve_kinds(&["warp-drive".into()]).unwrap_err();
        assert!(err.contains("warp-drive"), "{err}");
    }

    #[test]
    fn scale_names_parse() {
        assert_eq!(parse_scale("tiny").unwrap(), Scale::Tiny);
        assert_eq!(parse_scale("small").unwrap(), Scale::Small);
        assert_eq!(parse_scale("full").unwrap(), Scale::Full);
        assert_eq!(parse_scale("huge").unwrap(), Scale::Huge);
        assert!(parse_scale("gigantic").is_err());
    }

    #[test]
    fn session_run_matches_engine_and_fills_manifest() {
        let spec = SweepSpec {
            workloads: resolve_workloads(&["stencil-default".into(), "nw".into()]).unwrap(),
            kinds: vec![PrefetcherKind::None, PrefetcherKind::Sms],
            scale: Scale::Tiny,
            jobs: 1,
            system: SystemConfig::default(),
            stream_threshold_bytes: None,
        };
        let outcome = SweepSession::default().run("service-test", &spec, None);
        assert_eq!(outcome.run.records.len(), spec.job_count());
        assert!(!outcome.run.cancelled);
        // The engine path is the same one Engine::run takes directly.
        let direct = Engine::new(EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        })
        .run(spec.scale, &spec.workloads, &spec.kinds);
        assert_eq!(outcome.run.records, direct.records);
        // The manifest is fully assembled: identity, timing, workers.
        assert_eq!(outcome.manifest.binary, "service-test");
        assert_eq!(outcome.manifest.scale, "tiny");
        assert_eq!(outcome.manifest.workloads, vec!["stencil-default", "nw"]);
        assert_eq!(outcome.manifest.prefetchers, vec!["No-Prefetch", "SMS"]);
        assert_eq!(outcome.manifest.jobs, 1);
        assert!(outcome.manifest.wall_seconds > 0.0);
        assert_eq!(outcome.manifest.worker_stats.len(), 1);
        assert_eq!(outcome.manifest.worker_stats[0].jobs, 4);
    }
}
