//! General-purpose trace-driven simulation CLI: run any registered
//! workload — or an externally supplied JSON trace — under any prefetcher
//! and print the full metric set. Also exports generated traces to JSON so
//! they can be archived, inspected, or replayed elsewhere.
//!
//! ```text
//! simulate [--workload NAME | --trace FILE.json] [--prefetcher NAME] [--dram]
//!          [--export FILE.json] [FLAGS]
//! ```
//!
//! With no `--workload`/`--trace`, the `stencil-default` workload runs.
//! With no `--prefetcher`, all seven paper configurations run. `--help`
//! lists these flags and the ones every binary accepts
//! (`cbws_harness::cli`).
//!
//! `--metrics-out` dumps the hierarchical metrics registry as nested JSON:
//! the prefetch lifecycle, the Fig. 13 demand classes, evictions, block
//! boundaries and differential-table lookups, each as a counter. It
//! aggregates over every simulated prefetcher of the invocation (the
//! `run.*` gauges reflect the last run); pass `--prefetcher` to capture a
//! single configuration. A run manifest is written to
//! `results/simulate.manifest.json`.
//!
//! Registered workloads run through the work-stealing engine (`--jobs N`
//! workers, default all cores) unless `--metrics-out` asks for shared
//! per-run telemetry, which requires serial execution.

use cbws_harness::cli::{Cli, Group};
use cbws_harness::{EngineConfig, PrefetcherKind, RunManifest, Simulator, SweepSpec, SystemConfig};
use cbws_sim_mem::DramConfig;
use cbws_stats::{RunRecord, TextTable};
use cbws_telemetry::{result, status};
use cbws_trace::{FramedTrace, Trace};
use cbws_workloads::{by_name, trace_store, Scale, WorkloadSpec};
use std::sync::Arc;

const DEFAULT_WORKLOAD: &str = "stencil-default";

fn main() {
    let cli = Cli::parse("simulate", &[Group::Simulate, Group::Sweep, Group::Log]);
    let scale = cli.scale;
    if cli.has("--workload") && cli.has("--trace") {
        cli.fail("--workload and --trace name two inputs; give one");
    }
    let mut spec: Option<&'static WorkloadSpec> = None;
    // External traces are materialized as a `Vec<TraceEvent>`; registered
    // workloads replay through the trace store instead, so a huge trace is
    // generated to disk frame by frame and never held resident.
    let (label, external): (String, Option<Arc<Trace>>) =
        if let Some(name) = cli.value("--workload") {
            let Some(w) = by_name(name) else {
                cli.fail(&format!(
                    "unknown workload `{name}` (see `trace_info --list`)"
                ));
            };
            spec = Some(w);
            (name.to_string(), None)
        } else if let Some(path) = cli.value("--trace") {
            let data = std::fs::read_to_string(path)
                .unwrap_or_else(|e| cli.fail(&format!("cannot read {path}: {e}")));
            let trace: Trace = serde_json::from_str(&data)
                .unwrap_or_else(|e| cli.fail(&format!("cannot parse {path}: {e}")));
            (path.to_string(), Some(Arc::new(trace)))
        } else {
            let w = by_name(DEFAULT_WORKLOAD).expect("default workload is registered");
            spec = Some(w);
            (DEFAULT_WORKLOAD.to_string(), None)
        };

    if let Some(out) = cli.value("--export") {
        let generated;
        let trace: &Trace = match (&external, spec) {
            (Some(t), _) => t,
            (None, Some(w)) => {
                if scale == Scale::Huge {
                    cli.fail(
                        "--export at huge scale would materialize the whole trace; \
                         export a smaller scale, or read the framed store file directly",
                    );
                }
                generated = trace_store::shared().get(w, scale).to_trace();
                &generated
            }
            (None, None) => unreachable!("no spec and no external trace"),
        };
        let json = serde_json::to_string(trace).expect("traces serialize");
        std::fs::write(out, json).unwrap_or_else(|e| cli.fail(&format!("cannot write {out}: {e}")));
        status!("[simulate] exported {} events to {out}", trace.len());
    }

    let kinds: Vec<PrefetcherKind> = match cli.value("--prefetcher") {
        Some(name) => vec![PrefetcherKind::from_name(name)
            .unwrap_or_else(|| cli.fail(&format!("unknown prefetcher `{name}`")))],
        None => PrefetcherKind::ALL.to_vec(),
    };

    let mut cfg = SystemConfig::default();
    if cli.has("--dram") {
        cfg.mem.dram = Some(DramConfig::default());
    }

    // Telemetry is on exactly when `--metrics-out` is given.
    let telemetry = &cli.session().telemetry;

    // Registered workloads draw from the persistent trace store: resident
    // frames below the streaming threshold, a disk-backed cursor above it.
    let threshold = EngineConfig::default().resolved_stream_threshold();
    let source: Option<Arc<FramedTrace>> =
        spec.map(|w| trace_store::shared().replay_source(w, scale, threshold));

    match (&external, &source) {
        // Walking a streamed file just to print a stats line would cost a
        // full replay; report what the frame table already knows.
        (None, Some(t)) if t.is_streamed() => result!(
            "trace `{label}`: {} events, streaming {} bytes from disk\n",
            t.event_count(),
            t.payload_bytes()
        ),
        _ => {
            let s = match (&external, &source) {
                (Some(t), _) => t.stats(),
                (None, Some(t)) => t.stats(),
                (None, None) => unreachable!("no spec and no external trace"),
            };
            result!(
                "trace `{label}`: {} instructions, {} accesses, {} block instances\n",
                s.instructions,
                s.mem_accesses,
                s.dynamic_blocks
            );
        }
    }

    // Registered workloads without `--metrics-out` go through the engine;
    // external traces and metrics captures run serially.
    let mut manifest = RunManifest::new("simulate", scale, [label.clone()], kinds.clone(), cfg);
    let records: Vec<RunRecord> = match spec {
        Some(w) if !telemetry.is_enabled() => {
            let out = cli.sweep(&SweepSpec {
                system: cfg,
                ..cli.spec(vec![w], kinds.iter().copied())
            });
            manifest = out.manifest;
            out.run.records
        }
        _ => {
            let sim = Simulator::with_telemetry(cfg, telemetry.clone());
            match (&external, &source) {
                (Some(t), _) => kinds
                    .iter()
                    .map(|&kind| sim.run(&label, true, &**t, kind))
                    .collect(),
                (None, Some(src)) => kinds
                    .iter()
                    .map(|&kind| sim.run(&label, true, src, kind))
                    .collect(),
                (None, None) => unreachable!("no spec and no external trace"),
            }
        }
    };

    let mut table = TextTable::new(vec![
        "prefetcher".into(),
        "IPC".into(),
        "MPKI".into(),
        "timely %".into(),
        "wrong %".into(),
        "bytes read".into(),
        "pollution".into(),
    ]);
    for r in &records {
        let t = r.timeliness();
        table.row(vec![
            r.prefetcher.clone(),
            format!("{:.3}", r.ipc()),
            format!("{:.2}", r.mpki()),
            format!("{:.1}", t.timely * 100.0),
            format!("{:.1}", t.wrong * 100.0),
            r.mem.bytes_read().to_string(),
            r.mem.pollution_evictions.to_string(),
        ]);
    }
    result!("{table}");

    cli.write_outputs();
    manifest.save("simulate");
}
