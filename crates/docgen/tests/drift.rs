//! End-to-end drift-check tests: the committed repo must pass, and a
//! perturbed quote must demonstrably fail.

use cbws_harness::{component_registry, SystemConfig};
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    docgen::repo_root(None)
}

#[test]
fn committed_repo_passes_the_full_check() {
    let root = repo_root();
    let registry = component_registry(&SystemConfig::default());
    let problems = docgen::check::run(&root, &registry);
    assert!(
        problems.is_empty(),
        "docgen --check should pass on the committed tree:\n{}",
        problems.join("\n")
    );
}

/// Copies the files the quote check reads into a scratch root.
fn scratch_docs_root(tag: &str) -> PathBuf {
    let root = repo_root();
    let scratch = std::env::temp_dir().join(format!("docgen-drift-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(scratch.join("results")).unwrap();
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "ROADMAP.md",
        "BENCH_trace.json",
    ] {
        std::fs::copy(root.join(doc), scratch.join(doc)).unwrap();
    }
    for entry in std::fs::read_dir(root.join("results")).unwrap().flatten() {
        if entry.path().is_file() {
            std::fs::copy(
                entry.path(),
                scratch.join("results").join(entry.file_name()),
            )
            .unwrap();
        }
    }
    scratch
}

fn perturb(path: &Path, from: &str, to: &str) {
    let text = std::fs::read_to_string(path).unwrap();
    assert!(
        text.contains(from),
        "expected {} to contain {from:?}",
        path.display()
    );
    std::fs::write(path, text.replace(from, to)).unwrap();
}

#[test]
fn perturbed_readme_number_fails_the_quote_check() {
    let registry = component_registry(&SystemConfig::default());
    let scratch = scratch_docs_root("readme");

    // Sanity: the untouched copy passes.
    let clean = docgen::check::check_quotes(&scratch, &registry);
    assert!(
        clean.is_empty(),
        "clean copy should pass:\n{}",
        clean.join("\n")
    );

    // Inflate the headline speedup the README quotes.
    perturb(
        &scratch.join("README.md"),
        "CBWS+SMS vs SMS: 1.21×",
        "CBWS+SMS vs SMS: 1.35×",
    );
    let problems = docgen::check::check_quotes(&scratch, &registry);
    assert!(
        problems
            .iter()
            .any(|p| p.contains("speedup-mi") && p.contains("README.md")),
        "inflated README headline must be caught:\n{}",
        problems.join("\n")
    );

    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn perturbed_bench_snapshot_fails_the_quote_check() {
    let registry = component_registry(&SystemConfig::default());
    let scratch = scratch_docs_root("bench");
    let path = scratch.join("BENCH_trace.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let line = text
        .lines()
        .find(|l| l.contains("\"replay_kernel_ratio\""))
        .expect("snapshot records replay_kernel_ratio")
        .to_string();
    perturb(&path, &line, "  \"replay_kernel_ratio\": 9.999,");
    let problems = docgen::check::check_quotes(&scratch, &registry);
    assert!(
        problems
            .iter()
            .any(|p| p.contains("replay-kernel-ratio") && p.contains("DESIGN.md")),
        "a snapshot moved out from under DESIGN.md must be caught:\n{}",
        problems.join("\n")
    );
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn perturbed_artifact_fails_the_quote_check() {
    let registry = component_registry(&SystemConfig::default());
    let scratch = scratch_docs_root("artifact");

    // Shift the committed CSV out from under the docs: every doc quoting
    // the old geomean is now stale.
    perturb(
        &scratch.join("results/fig14_speedup.csv"),
        "average-MI,0.674,0.811,0.908,0.878,1.000,0.937,1.209",
        "average-MI,0.674,0.811,0.908,0.878,1.000,0.937,1.302",
    );
    let problems = docgen::check::check_quotes(&scratch, &registry);
    assert!(
        problems.iter().any(|p| p.contains("speedup-mi")),
        "stale docs after an artifact change must be caught:\n{}",
        problems.join("\n")
    );

    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn describe_vs_tab03_consistency_catches_a_forged_artifact() {
    let registry = component_registry(&SystemConfig::default());
    let scratch = scratch_docs_root("tab03");
    perturb(
        &scratch.join("results/tab03_storage.csv"),
        "CBWS,8080,0.99",
        "CBWS,9000,1.10",
    );
    let problems = docgen::check::check_describe_consistency(&scratch, &registry);
    assert!(
        problems
            .iter()
            .any(|p| p.contains("CBWS") && p.contains("tab03")),
        "forged Table III must disagree with Describe:\n{}",
        problems.join("\n")
    );
    std::fs::remove_dir_all(&scratch).ok();
}

#[test]
fn stale_book_page_is_reported() {
    let root = repo_root();
    let registry = component_registry(&SystemConfig::default());
    let files = docgen::book::build_book(&root, &registry).unwrap();
    // Diffing against the committed tree with one generated page altered in
    // memory must flag exactly that page as stale.
    let mut tampered = files.clone();
    let key = "src/scorecard.md".to_string();
    let page = tampered.get_mut(&key).expect("scorecard is generated");
    page.extend_from_slice(b"\ntampered\n");
    let problems = docgen::book::diff_book(&root, &tampered);
    assert!(
        problems.iter().any(|p| p.contains("scorecard.md")),
        "{problems:?}"
    );
    // And the untampered set matches the committed tree exactly.
    assert!(docgen::book::diff_book(&root, &files).is_empty());
}
