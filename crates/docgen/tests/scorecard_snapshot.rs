//! Snapshot test for the generated scorecard page, against a tiny-scale
//! fixture artifact set, so renderer changes are reviewed as a golden-file
//! diff instead of silently reshaping the book.
//!
//! Regenerate the golden after an intentional change with:
//! `DOCGEN_UPDATE_GOLDEN=1 cargo test -p docgen --test scorecard_snapshot`

use cbws_harness::{component_registry, SystemConfig};
use std::path::PathBuf;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tiny")
}

#[test]
fn scorecard_page_matches_the_golden_snapshot() {
    let root = fixture_root();
    let registry = component_registry(&SystemConfig::default());
    let page = docgen::pages::scorecard_page(&root, &registry);
    let golden_path = root.join("scorecard.golden.md");
    if std::env::var_os("DOCGEN_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &page).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden snapshot missing — run with DOCGEN_UPDATE_GOLDEN=1");
    assert_eq!(
        page, golden,
        "scorecard rendering changed; rerun with DOCGEN_UPDATE_GOLDEN=1 \
         and review the diff"
    );
}

#[test]
fn tiny_fixture_exercises_every_source_kind() {
    // The fixture intentionally feeds every claim: Csv-backed claims from
    // the tiny artifacts, Bench-backed claims from its snapshot copy,
    // Describe-backed claims from the live registry.
    let root = fixture_root();
    let registry = component_registry(&SystemConfig::default());
    for claim in docgen::claims::claims() {
        docgen::claims::measure(&claim, &root, &registry)
            .unwrap_or_else(|e| panic!("claim `{}` unmeasurable on the fixture: {e}", claim.id));
    }
}
