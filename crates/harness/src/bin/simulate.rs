//! General-purpose trace-driven simulation CLI: run any registered
//! workload — or an externally supplied JSON trace — under any prefetcher
//! and print the full metric set. Also exports generated traces to JSON so
//! they can be archived, inspected, or replayed elsewhere.
//!
//! ```text
//! simulate --workload stencil-default [--scale small] [--jobs N] \
//!          [--prefetcher SMS] [--dram] [--export trace.json] \
//!          [--metrics-out metrics.json] [--spans-out spans.json] \
//!          [--resume] [--no-result-cache] [--quiet | --progress]
//! simulate --trace mytrace.json --prefetcher CBWS+SMS
//! ```
//!
//! With no `--workload`/`--trace`, the `stencil-default` workload runs.
//! With no `--prefetcher`, all seven paper configurations run.
//!
//! `--metrics-out` dumps the hierarchical metrics registry as nested JSON:
//! the prefetch lifecycle, the Fig. 13 demand classes, evictions, block
//! boundaries and differential-table lookups, each as a counter. It
//! aggregates over every simulated prefetcher of the invocation (the
//! `run.*` gauges reflect the last run); pass `--prefetcher` to capture a
//! single configuration. A run manifest is written to
//! `results/simulate.manifest.json`. Any argument outside the flags above
//! (plus `--verbose`, an alias of `--progress`) prints the usage and exits
//! with status 2; the retired `--trace-out` event trace says what replaced
//! it.
//!
//! Registered workloads run through the work-stealing engine (`--jobs N`
//! workers, default all cores) unless `--metrics-out` asks for shared
//! per-run telemetry, which requires serial execution.

use cbws_harness::experiments::{
    jobs_from_args, result_cache_from_args, scale_from_args, session_spans, write_session_spans,
};
use cbws_harness::{Engine, EngineConfig, PrefetcherKind, RunManifest, Simulator, SystemConfig};
use cbws_sim_mem::DramConfig;
use cbws_stats::{RunRecord, TextTable};
use cbws_telemetry::{result, status, Telemetry};
use cbws_trace::{FramedTrace, Trace};
use cbws_workloads::{by_name, trace_store, Scale, WorkloadSpec};
use std::sync::Arc;

const DEFAULT_WORKLOAD: &str = "stencil-default";

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Every accepted flag, with the value it takes (`None` for a flag that
/// stands alone). The usage line is printed from this table.
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--workload", Some("<name>")),
    ("--trace", Some("<file.json>")),
    ("--scale", Some("tiny|small|full|huge")),
    ("--jobs", Some("<n>")),
    ("--prefetcher", Some("<name>")),
    ("--dram", None),
    ("--export", Some("<file.json>")),
    ("--metrics-out", Some("<file.json>")),
    ("--spans-out", Some("<file.json>")),
    ("--resume", None),
    ("--no-result-cache", None),
    ("--quiet", None),
    ("--progress", None),
    ("--verbose", None),
];

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    let usage: String = FLAGS
        .iter()
        .map(|(flag, value)| match value {
            Some(value) => format!(" [{flag} {value}]"),
            None => format!(" [{flag}]"),
        })
        .collect();
    eprintln!("usage: simulate{usage}");
    std::process::exit(2);
}

/// Rejects any argument that is not an accepted flag or a value-taking
/// flag's value, and a value-taking flag with nothing after it.
fn check_args(args: &[String]) {
    if args.iter().any(|a| a == "--trace-out") {
        fail(
            "--trace-out was removed: every event it traced is a counter now; \
             use --metrics-out <file.json>",
        );
    }
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match FLAGS.iter().find(|(flag, _)| flag == arg) {
            Some((_, Some(_))) if rest.next().is_none() => fail(&format!("{arg} needs a value")),
            Some(_) => {}
            None => fail(&format!("unknown argument `{arg}`")),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    check_args(&args);
    cbws_telemetry::log::apply_cli_flags(&args);

    let scale = scale_from_args();
    let mut spec: Option<&'static WorkloadSpec> = None;
    // External traces are materialized as a `Vec<TraceEvent>`; registered
    // workloads replay through the trace store instead, so a huge trace is
    // generated to disk frame by frame and never held resident.
    let (label, external): (String, Option<Arc<Trace>>) =
        if let Some(name) = arg_value(&args, "--workload") {
            let Some(w) = by_name(&name) else {
                fail(&format!(
                    "unknown workload `{name}` (see `trace_info --list`)"
                ));
            };
            spec = Some(w);
            (name, None)
        } else if let Some(path) = arg_value(&args, "--trace") {
            let data = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
            let trace: Trace = serde_json::from_str(&data)
                .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")));
            (path, Some(Arc::new(trace)))
        } else {
            let w = by_name(DEFAULT_WORKLOAD).expect("default workload is registered");
            spec = Some(w);
            (DEFAULT_WORKLOAD.to_string(), None)
        };

    if let Some(out) = arg_value(&args, "--export") {
        let generated;
        let trace: &Trace = match (&external, spec) {
            (Some(t), _) => t,
            (None, Some(w)) => {
                if scale == Scale::Huge {
                    fail(
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
        std::fs::write(&out, json).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
        status!("[simulate] exported {} events to {out}", trace.len());
    }

    let kinds: Vec<PrefetcherKind> = match arg_value(&args, "--prefetcher") {
        Some(name) => vec![PrefetcherKind::from_name(&name)
            .unwrap_or_else(|| fail(&format!("unknown prefetcher `{name}`")))],
        None => PrefetcherKind::ALL.to_vec(),
    };

    let mut cfg = SystemConfig::default();
    if args.iter().any(|a| a == "--dram") {
        cfg.mem.dram = Some(DramConfig::default());
    }

    let metrics_out = arg_value(&args, "--metrics-out");
    let telemetry = if metrics_out.is_some() {
        Telemetry::enabled_default()
    } else {
        Telemetry::disabled()
    };

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
        Some(w) if metrics_out.is_none() => {
            let engine = Engine::new(EngineConfig {
                jobs: jobs_from_args(),
                system: cfg,
                telemetry: Telemetry::disabled(),
                spans: session_spans().clone(),
                result_cache: result_cache_from_args(),
                ..EngineConfig::default()
            });
            let run = engine.run(scale, &[w], &kinds);
            manifest = manifest.with_run(&run);
            run.records
        }
        _ => {
            let sim = Simulator::with_telemetry(cfg, telemetry.clone());
            match (&external, &source) {
                (Some(t), _) => kinds
                    .iter()
                    .map(|&kind| sim.run(&label, true, &**t, kind))
                    .collect(),
                (None, Some(src)) => {
                    // Route the store's `trace.stream.*` counters into the
                    // same registry the `--metrics-out` dump captures.
                    trace_store::shared().set_telemetry(telemetry.clone());
                    kinds
                        .iter()
                        .map(|&kind| sim.run(&label, true, src, kind))
                        .collect()
                }
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

    if let Some(path) = &metrics_out {
        let f = std::fs::File::create(path)
            .unwrap_or_else(|e| fail(&format!("cannot create {path}: {e}")));
        telemetry
            .write_metrics_json(std::io::BufWriter::new(f))
            .unwrap_or_else(|e| fail(&format!("cannot write {path}: {e}")));
        status!("[simulate] wrote metrics to {path}");
    }

    write_session_spans();
    manifest.save("simulate");
}
