//! Per-workload source hashing for trace-store invalidation.
//!
//! A stored trace must be regenerated exactly when the sources that decide
//! its *contents* change. Version 2 of the store hashed the DSL core plus
//! the workload's whole suite file, so editing one kernel regenerated every
//! trace of that suite. This module refines that to true per-workload
//! granularity: the suite file is split into the **kernel `fn` spans** the
//! suite's workloads name (via `WorkloadSpec::kernel_fn`) and the
//! **residual** (everything else — shared helpers, imports, tests). A
//! workload's hash folds
//!
//! 1. the common sources every trace depends on (`lib.rs`, `dsl.rs`, the
//!    kernel plumbing),
//! 2. the suite file's residual,
//! 3. the workload's own kernel `fn` span, and
//! 4. the workload name.
//!
//! Editing kernel `a`'s body therefore invalidates only the workloads that
//! emit through `a`; editing a shared helper in the same file (residual)
//! still invalidates the whole suite, as it must. Span extraction is a
//! deliberately small lexer ([`kernel_span`]); when it cannot find a
//! workload's `fn`, that workload falls back to hashing the whole suite
//! file — coarser, never wrong, and a unit test pins that every committed
//! kernel is actually found.

use crate::trace_store::store_file::{fnv1a_fold, fnv1a_fold_named, FNV_BASIS};
use crate::{Suite, WorkloadSpec};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::OnceLock;

/// Sources every workload's trace depends on: the DSL core and the kernel
/// plumbing shared by all suites.
const COMMON_SOURCES: &[(&str, &str)] = &[
    ("lib.rs", include_str!("lib.rs")),
    ("dsl.rs", include_str!("dsl.rs")),
    ("kernels/mod.rs", include_str!("kernels/mod.rs")),
    ("kernels/helpers.rs", include_str!("kernels/helpers.rs")),
];

/// The source file holding `suite`'s kernel definitions.
fn suite_source(suite: Suite) -> (&'static str, &'static str) {
    match suite {
        Suite::Spec2006 => ("kernels/spec.rs", include_str!("kernels/spec.rs")),
        Suite::Parboil => ("kernels/parboil.rs", include_str!("kernels/parboil.rs")),
        Suite::Splash => ("kernels/splash.rs", include_str!("kernels/splash.rs")),
        Suite::Parsec => ("kernels/parsec.rs", include_str!("kernels/parsec.rs")),
        Suite::Rodinia => ("kernels/rodinia.rs", include_str!("kernels/rodinia.rs")),
        Suite::Linpack => ("kernels/linpack.rs", include_str!("kernels/linpack.rs")),
    }
}

/// Folds a named source file while *skipping* the byte ranges in `skip`
/// (sorted, non-overlapping). Used to hash a suite file's residual with its
/// kernel spans carved out.
fn fnv_fold_skipping(h: u64, name: &str, src: &str, skip: &[Range<usize>]) -> u64 {
    let mut h = fnv1a_fold(fnv1a_fold(h, name.as_bytes()), &[0]);
    let mut pos = 0usize;
    for r in skip {
        let start = r.start.max(pos);
        h = fnv1a_fold(h, &src.as_bytes()[pos..start]);
        pos = pos.max(r.end);
    }
    fnv1a_fold(h, &src.as_bytes()[pos..])
}

/// Byte range of `fn <fn_name>(...) { ... }` within `src`, from the `fn`
/// keyword through the matching closing brace of the body.
///
/// This is a deliberately small scanner, not a parser: it skips string and
/// char literals, lifetimes, and `//`/`/* */` comments while counting
/// braces, which is enough for the kernel sources it hashes. Returns `None`
/// when the function is not found or the braces never balance — callers
/// fall back to whole-file hashing, which is coarser but never wrong.
pub fn kernel_span(src: &str, fn_name: &str) -> Option<Range<usize>> {
    let needle = format!("fn {fn_name}(");
    let bytes = src.as_bytes();
    let mut from = 0usize;
    loop {
        let start = from + src[from..].find(&needle)?;
        // `fn` must start a token: reject matches like `xfn name(`.
        let boundary = start == 0 || {
            let c = bytes[start - 1];
            !(c.is_ascii_alphanumeric() || c == b'_')
        };
        if !boundary {
            from = start + 1;
            continue;
        }
        return body_end(src, start).map(|end| start..end);
    }
}

/// Scans forward from `from` (at a `fn` keyword) to one past the `}` that
/// closes the function body, skipping literals and comments.
fn body_end(src: &str, from: usize) -> Option<usize> {
    let b = src.as_bytes();
    let mut i = from;
    let mut depth = 0usize;
    let mut entered = false;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < b.len() && !(b[i] == b'*' && b[i + 1] == b'/') {
                    i += 1;
                }
                i += 2;
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'\'' => {
                // Char literal ('x', '\n') or a lifetime ('a). Lifetimes
                // have no closing quote; skip just the opening one.
                if b.get(i + 1) == Some(&b'\\') {
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else if b.get(i + 2) == Some(&b'\'') {
                    i += 3;
                } else {
                    i += 1;
                }
            }
            b'{' => {
                depth += 1;
                entered = true;
                i += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1)?;
                i += 1;
                if entered && depth == 0 {
                    return Some(i);
                }
            }
            _ => i += 1,
        }
    }
    None
}

/// Hashes one workload's trace-deciding sources from explicit inputs — the
/// same algorithm [`workload_hash`] applies to the compiled-in sources,
/// exposed so the per-workload invalidation granularity can be unit-tested
/// against synthetic suite files.
///
/// `kernel_fns` names every kernel `fn` defined in `src` (their spans are
/// carved out of the residual); `own_fn` is the one this workload emits
/// through. `common` is the FNV state accumulated over the shared sources
/// (use [`common_state`] for the real ones, or any constant for synthetic
/// tests).
pub fn hash_kernel_sources(
    common: u64,
    file_name: &str,
    src: &str,
    kernel_fns: &[&str],
    own_fn: &str,
    workload_name: &str,
) -> u64 {
    let mut spans: Vec<Range<usize>> = kernel_fns
        .iter()
        .filter_map(|f| kernel_span(src, f))
        .collect();
    spans.sort_by_key(|r| r.start);
    spans.dedup();
    let own = kernel_span(src, own_fn);
    let base = match own {
        Some(ref r) => {
            let residual = fnv_fold_skipping(common, file_name, src, &spans);
            fnv1a_fold_named(residual, "kernel_fn", &src[r.clone()])
        }
        // Span not found: fall back to the whole file, as version 2 did.
        None => fnv1a_fold_named(common, file_name, src),
    };
    fnv1a_fold_named(base, "workload", workload_name)
}

/// FNV state over the common sources every workload depends on.
pub fn common_state() -> u64 {
    static STATE: OnceLock<u64> = OnceLock::new();
    *STATE.get_or_init(|| {
        let mut h = FNV_BASIS;
        for (name, body) in COMMON_SOURCES {
            h = fnv1a_fold_named(h, name, body);
        }
        h
    })
}

/// Per-suite precomputed hash states: the residual state (common + suite
/// file minus kernel spans), the whole-file fallback state, and one state
/// per found kernel `fn`.
struct SuiteState {
    whole: u64,
    fns: BTreeMap<&'static str, u64>,
}

fn suite_state(suite: Suite) -> &'static SuiteState {
    const SUITES: [Suite; 6] = [
        Suite::Spec2006,
        Suite::Parboil,
        Suite::Splash,
        Suite::Parsec,
        Suite::Rodinia,
        Suite::Linpack,
    ];
    static STATES: OnceLock<[SuiteState; 6]> = OnceLock::new();
    let states = STATES.get_or_init(|| {
        let common = common_state();
        SUITES.map(|s| {
            let (file_name, src) = suite_source(s);
            let mut found: BTreeMap<&'static str, Range<usize>> = BTreeMap::new();
            for w in crate::ALL.iter().filter(|w| w.suite == s) {
                let f = w.kernel_fn();
                if let Some(r) = kernel_span(src, f) {
                    found.insert(f, r);
                }
            }
            let mut spans: Vec<Range<usize>> = found.values().cloned().collect();
            spans.sort_by_key(|r| r.start);
            let residual = fnv_fold_skipping(common, file_name, src, &spans);
            SuiteState {
                whole: fnv1a_fold_named(common, file_name, src),
                fns: found
                    .into_iter()
                    .map(|(f, r)| (f, fnv1a_fold_named(residual, "kernel_fn", &src[r])))
                    .collect(),
            }
        })
    });
    let idx = SUITES
        .iter()
        .position(|&s| s == suite)
        .expect("every suite is enumerated");
    &states[idx]
}

/// Hash of the sources `workload`'s trace depends on, embedded at compile
/// time: the shared DSL core, the residual of the workload's suite source
/// file, the workload's own kernel `fn` span, and the workload name. Stored
/// traces carry this hash and are invalidated when it changes — so editing
/// one kernel's body regenerates only the workloads emitting through it,
/// while the rest of the suite (and every other suite) keeps hitting. The
/// per-suite states are folded once per process and cached.
pub fn workload_hash(workload: &WorkloadSpec) -> u64 {
    let state = suite_state(workload.suite);
    let base = state
        .fns
        .get(workload.kernel_fn())
        .copied()
        .unwrap_or(state.whole);
    fnv1a_fold_named(base, "workload", workload.name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    const SYNTH_A: &str = r#"
//! Synthetic suite file.
use crate::helpers;

const SHARED: u64 = 7;

/// Kernel a.
pub(crate) fn alpha(scale: Scale, b: &mut TraceBuilder) {
    let s = "a string with braces { } and a quote \" inside";
    let c = '{';
    for _ in 0..SHARED { touch(s, c); }
}

pub(crate) fn beta(scale: Scale, b: &mut TraceBuilder) {
    // a comment with a brace }
    helpers::go(1);
}
"#;

    #[test]
    fn kernel_span_survives_literals_and_comments() {
        let a = kernel_span(SYNTH_A, "alpha").expect("alpha found");
        let b = kernel_span(SYNTH_A, "beta").expect("beta found");
        assert!(SYNTH_A[a.clone()].starts_with("fn alpha("));
        assert!(SYNTH_A[a.clone()].ends_with('}'));
        assert!(SYNTH_A[b.clone()].starts_with("fn beta("));
        assert!(a.end <= b.start, "spans must not overlap");
        assert!(kernel_span(SYNTH_A, "gamma").is_none());
    }

    #[test]
    fn editing_one_kernel_changes_only_its_workloads() {
        let fns = ["alpha", "beta"];
        let h = |src: &str, own: &str| hash_kernel_sources(1, "synth.rs", src, &fns, own, "w");
        let edited_alpha = SYNTH_A.replace("0..SHARED", "0..SHARED + 1");
        assert_ne!(h(SYNTH_A, "alpha"), h(&edited_alpha, "alpha"));
        assert_eq!(h(SYNTH_A, "beta"), h(&edited_alpha, "beta"));
        // Editing shared (residual) text invalidates every workload.
        let edited_shared = SYNTH_A.replace("SHARED: u64 = 7", "SHARED: u64 = 8");
        assert_ne!(h(SYNTH_A, "alpha"), h(&edited_shared, "alpha"));
        assert_ne!(h(SYNTH_A, "beta"), h(&edited_shared, "beta"));
    }

    #[test]
    fn unknown_fn_falls_back_to_whole_file() {
        let fns = ["alpha", "beta"];
        let before = hash_kernel_sources(1, "s.rs", SYNTH_A, &fns, "missing", "w");
        let edited = SYNTH_A.replace("0..SHARED", "0..SHARED + 1");
        let after = hash_kernel_sources(1, "s.rs", &edited, &fns, "missing", "w");
        // Whole-file fallback: any edit anywhere invalidates.
        assert_ne!(before, after);
    }

    #[test]
    fn every_committed_kernel_fn_is_found() {
        for w in crate::ALL {
            let (_, src) = suite_source(w.suite);
            assert!(
                kernel_span(src, w.kernel_fn()).is_some(),
                "kernel fn `{}` of workload `{}` not found by the span scanner",
                w.kernel_fn(),
                w.name
            );
        }
    }

    #[test]
    fn workload_hash_matches_from_scratch_computation() {
        let w = by_name("stencil-default").unwrap();
        let (file_name, src) = suite_source(w.suite);
        let fns: Vec<&str> = crate::ALL
            .iter()
            .filter(|x| x.suite == w.suite)
            .map(|x| x.kernel_fn())
            .collect();
        let scratch =
            hash_kernel_sources(common_state(), file_name, src, &fns, w.kernel_fn(), w.name);
        assert_eq!(workload_hash(w), scratch);
    }

    #[test]
    fn workload_hash_is_stable_and_distinct() {
        let a = by_name("stencil-default").unwrap();
        let b = by_name("nw").unwrap();
        let c = by_name("histo-large").unwrap();
        assert_eq!(workload_hash(a), workload_hash(a));
        assert_ne!(workload_hash(a), 0);
        // Different suites hash apart, and so do different workloads of the
        // same suite (the name is folded in).
        assert_ne!(workload_hash(a), workload_hash(b));
        assert_eq!(a.suite, c.suite);
        assert_ne!(workload_hash(a), workload_hash(c));
    }

    #[test]
    fn same_suite_workloads_share_residual_but_not_hash() {
        // Two workloads of one suite with different kernels: hashes differ.
        let a = by_name("histo-default").unwrap_or_else(|| by_name("stencil-default").unwrap());
        let peers: Vec<_> = crate::ALL
            .iter()
            .filter(|w| w.suite == a.suite && w.name != a.name)
            .collect();
        for p in peers {
            assert_ne!(workload_hash(a), workload_hash(p));
        }
    }
}
