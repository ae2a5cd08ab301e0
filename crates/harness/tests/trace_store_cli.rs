//! `simulate --export` and `trace_info <workload>` read their trace from
//! the trace store: the exported JSON equals the generated trace, and
//! `trace_info` reports figures of that same trace and leaves its store
//! file behind.

use cbws_core::analysis::{collect_block_histories, DifferentialSkew};
use cbws_trace::Trace;
use cbws_workloads::{by_name, Scale};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cbws-store-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `bin` with `args` in `dir`, with the trace store in `dir/store`.
fn run(bin: &str, dir: &Path, args: &[&str]) -> Output {
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .env("CBWS_TRACE_STORE_DIR", dir.join("store"))
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn export_writes_the_generated_trace() {
    let dir = scratch("export");
    run(
        env!("CARGO_BIN_EXE_simulate"),
        &dir,
        &[
            "--workload",
            "nw",
            "--scale",
            "tiny",
            "--prefetcher",
            "SMS",
            "--no-result-cache",
            "--export",
            "t.json",
        ],
    );
    let json = std::fs::read_to_string(dir.join("t.json")).unwrap();
    let exported: Trace = serde_json::from_str(&json).unwrap();
    assert_eq!(exported, by_name("nw").unwrap().generate(Scale::Tiny));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_info_reports_the_stored_trace() {
    let dir = scratch("info");
    let out = run(
        env!("CARGO_BIN_EXE_trace_info"),
        &dir,
        &["nw", "--scale", "tiny"],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let trace = by_name("nw").unwrap().generate(Scale::Tiny);
    let instructions = trace.stats().instructions;
    assert!(
        stdout.contains(&format!("instructions      : {instructions}\n")),
        "{stdout}"
    );
    let skew = DifferentialSkew::from_histories(collect_block_histories(&trace, 16).values());
    assert!(
        stdout.contains(&format!(
            "differential alphabet : {} distinct vectors",
            skew.distinct()
        )),
        "{stdout}"
    );
    assert!(dir.join("store/nw-tiny.cbwstrace").is_file());
    std::fs::remove_dir_all(&dir).unwrap();
}
