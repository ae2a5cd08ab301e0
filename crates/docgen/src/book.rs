//! Assembles the complete `book/` tree (an mdBook source layout) and
//! diffs it against what is committed.
//!
//! Almost every page is generated; the one exception is the
//! hand-authored service chapter (`src/service.md`), which
//! [`build_book`] passes through from the committed file verbatim so the
//! orphan check still accounts for it. Its route table is held in sync
//! with the server by a dedicated gate in [`crate::check`].

use crate::pages;
use cbws_describe::ComponentDescription;
use std::collections::BTreeMap;
use std::path::Path;

/// The complete generated book: path relative to `book/` → file bytes.
pub type BookFiles = BTreeMap<String, Vec<u8>>;

/// Generates every file of the book from the repo at `root`.
///
/// The output is a valid mdBook source tree (`book.toml`, `src/SUMMARY.md`,
/// pages), so a real `mdbook build book` works where mdBook is installed,
/// and `docgen --html` renders the same tree offline.
pub fn build_book(root: &Path, registry: &[ComponentDescription]) -> Result<BookFiles, String> {
    let mut files = BookFiles::new();

    files.insert("book.toml".into(), BOOK_TOML.as_bytes().to_vec());
    files.insert(".gitignore".into(), b"html/\n".to_vec());

    // Component reference.
    files.insert(
        "src/registry/index.md".into(),
        pages::registry_index(registry).into_bytes(),
    );
    for d in registry {
        files.insert(
            format!("src/registry/{}.md", pages::slug(&d.name)),
            pages::component_page(d).into_bytes(),
        );
    }

    // Results gallery (+ copied plots so the book is self-contained).
    let figures = pages::figures();
    files.insert(
        "src/results/index.md".into(),
        pages::gallery_index(&figures).into_bytes(),
    );
    for s in &figures {
        files.insert(
            format!("src/results/{}.md", s.slug),
            pages::figure_page(root, s)?.into_bytes(),
        );
        if let Some(svg) = s.svg {
            let src = root.join("results").join(svg);
            let bytes =
                std::fs::read(&src).map_err(|e| format!("cannot read {}: {e}", src.display()))?;
            files.insert(format!("src/results/{svg}"), bytes);
        }
    }

    // Scorecard, introduction, reproduction guide, summary.
    files.insert(
        "src/scorecard.md".into(),
        pages::scorecard_page(root, registry).into_bytes(),
    );
    files.insert("src/introduction.md".into(), introduction().into_bytes());
    files.insert("src/reproducing.md".into(), reproducing().into_bytes());
    files.insert("src/trace-store.md".into(), trace_store(root)?.into_bytes());
    files.insert(
        "src/result-store.md".into(),
        result_store(root)?.into_bytes(),
    );
    // The service chapter is hand-authored prose, not generated: pass
    // the committed file through byte-for-byte. Regeneration can then
    // never clobber it, and diff_book never flags it (generated ==
    // committed by construction) — but a deleted file still fails the
    // build here, and a drifted route table fails the check gate.
    let service = root.join("book/src/service.md");
    let bytes = std::fs::read(&service).map_err(|e| {
        format!(
            "cannot read {} (the service chapter is hand-authored — \
             restore it from version control, docgen cannot regenerate \
             it): {e}",
            service.display()
        )
    })?;
    files.insert("src/service.md".into(), bytes);
    files.insert("src/observability.md".into(), observability().into_bytes());
    files.insert("src/perf-trends.md".into(), perf_trends(root)?.into_bytes());
    files.insert(
        "src/SUMMARY.md".into(),
        summary(registry, &figures).into_bytes(),
    );

    Ok(files)
}

/// Writes the generated files under `root/book/`, creating directories as
/// needed, and removes committed files the generator no longer produces.
pub fn write_book(root: &Path, files: &BookFiles) -> Result<(), String> {
    let book = root.join("book");
    for (rel, bytes) in files {
        let path = book.join(rel);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(&path, bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    for rel in committed_files(root) {
        if !files.contains_key(&rel) {
            let _ = std::fs::remove_file(book.join(&rel));
        }
    }
    Ok(())
}

/// Normalizes text for comparison: CRLF (and stray CR) line endings become
/// LF, and trailing spaces/tabs are stripped from every line. Checkouts on
/// platforms with `core.autocrlf`, or editors that trim whitespace, must
/// not make a byte-identical page read as stale.
fn normalize(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    for line in bytes.split(|&b| b == b'\n') {
        let mut end = line.len();
        while end > 0 && matches!(line[end - 1], b'\r' | b' ' | b'\t') {
            end -= 1;
        }
        out.extend_from_slice(&line[..end]);
        out.push(b'\n');
    }
    out.pop(); // split() yields one entry past the final newline
    out
}

/// Compares the generated files against the committed `book/` tree.
/// Returns one human-readable problem per stale, missing, or orphaned file.
/// Line endings and trailing whitespace are normalized on both sides
/// before comparing, so CRLF checkouts pass the check.
pub fn diff_book(root: &Path, files: &BookFiles) -> Vec<String> {
    let book = root.join("book");
    let mut problems = Vec::new();
    for (rel, bytes) in files {
        match std::fs::read(book.join(rel)) {
            Ok(committed) if normalize(&committed) == normalize(bytes) => {}
            Ok(_) => problems.push(format!(
                "book/{rel} is stale — regenerate with `cargo run -p docgen`"
            )),
            Err(_) => problems.push(format!(
                "book/{rel} is missing — regenerate with `cargo run -p docgen`"
            )),
        }
    }
    for rel in committed_files(root) {
        if !files.contains_key(&rel) {
            problems.push(format!(
                "book/{rel} is not produced by the generator — remove it or \
                 extend docgen"
            ));
        }
    }
    problems
}

/// All files currently committed under `book/` (relative paths), excluding
/// the `html/` build output.
fn committed_files(root: &Path) -> Vec<String> {
    let book = root.join("book");
    let mut out = Vec::new();
    let mut stack = vec![book.clone()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "html") {
                    continue; // build output, never committed
                }
                stack.push(path);
            } else if let Ok(rel) = path.strip_prefix(&book) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    out.sort();
    out
}

const BOOK_TOML: &str = r#"# GENERATED by `cargo run -p docgen` — do not edit by hand.
[book]
title = "cbws-repro reference"
description = "Generated reference for the CBWS prefetching reproduction"
src = "src"
language = "en"

[build]
build-dir = "html"
create-missing = false
"#;

fn introduction() -> String {
    format!(
        "{}# cbws-repro reference\n\n\
         This book is **generated** from the repository by `cargo run -p \
         docgen` — nothing in it is hand-written prose that can rot. Three \
         sources feed it:\n\n\
         1. the [component reference](registry/index.md), read from each \
         component's `Describe` implementation (`crates/describe`);\n\
         2. the [results gallery](results/index.md), read from the committed \
         `results/*.csv`, `*.svg`, and `*.manifest.json` artifacts;\n\
         3. the [paper-claim scorecard](scorecard.md), which pairs the \
         paper's headline numbers with the reproduced ones.\n\n\
         `cargo run -p docgen -- --check` regenerates everything in memory \
         and fails CI when a committed page, a README-quoted number, or a \
         `Describe` output disagrees with the artifacts.\n\n\
         ## Building this book\n\n\
         ```bash\n\
         cargo run -p docgen            # regenerate the markdown sources\n\
         mdbook build book              # render with mdBook, if installed\n\
         cargo run -p docgen -- --html  # offline fallback renderer (book/html)\n\
         ```\n\n\
         The paper: Fuchs, Mannor, Weiser, Etsion. *Loop-Aware Memory \
         Prefetching Using Code Block Working Sets.* MICRO-47, 2014. See \
         the repository's [README](../../README.md), [DESIGN](../../DESIGN.md), \
         and [EXPERIMENTS](../../EXPERIMENTS.md) for the narrative docs.\n",
        pages::GENERATED_BANNER
    )
}

fn reproducing() -> String {
    format!(
        "{}# Reproducing the figures\n\n\
         Every table and figure of the paper has one regenerator binary in \
         `cbws-harness`; `all_experiments` runs the whole evaluation and \
         writes every artifact.\n\n\
         ```bash\n\
         cargo run --release -p cbws-harness --bin all_experiments\n\
         cargo run --release -p cbws-harness --bin fig14_speedup -- --scale small\n\
         ```\n\n\
         ## Flags every binary accepts\n\n\
         {}\n\
         ## Environment\n\n\
         | variable | effect |\n|---|---|\n\
         | `CBWS_TRACE_STORE_DIR` | directory of the persistent on-disk \
         [trace store](trace-store.md) (default `target/trace-store/`). The \
         sweep engine and figure regenerators read packed traces from here \
         and skip DSL generation on warm runs; delete the directory to \
         force regeneration. |\n\
         | `CBWS_STREAM_THRESHOLD_BYTES` | store files larger than this \
         replay through the disk-backed streaming cursor instead of a \
         memory map (default 256 MiB; `0` streams everything). See \
         [the trace store](trace-store.md). |\n\
         | `CBWS_TRACE_FRAME_EVENTS` | events per frame the trace-store \
         writer packs before flushing (default 64 Ki); smaller frames \
         lower streaming memory, larger frames amortize per-frame decode \
         setup better. |\n\
         | `CBWS_RESULT_STORE_DIR` | directory of the persistent \
         [result store](result-store.md) (default `target/result-store/`). \
         Finished jobs' records are served from here, skipping trace \
         loading and simulation entirely. |\n\
         | `CBWS_RESULT_CACHE_BYTES` | byte budget of the result store on \
         disk (default 64 MiB); oldest-used entries are evicted first when \
         a write exceeds it. |\n\n\
         ## Observability\n\n\
         Telemetry is off by default and costs one branch per hook when \
         disabled. `--metrics-out` dumps the dotted-path metrics registry: \
         the prefetch lifecycle, Fig. 13 demand classification, block \
         begin/end and differential-table lookups, each as a counter, plus \
         the \
         `trace_store.{{hit,miss,write,invalidate}}` counters and \
         `trace_store.{{load_us,generate_us}}` timings that show whether a \
         run replayed stored traces or regenerated them. The per-component \
         metric paths are listed on each page of the \
         [component reference](registry/index.md).\n\n\
         ## Scales and runtimes\n\n\
         The committed artifacts were produced at the scale their manifest \
         records (full for every figure; `dram_model`, `ext_comparison` and \
         `simulate` at small). Tiny \
         runs complete in seconds and are used by the test suite; full \
         reproduces the numbers quoted in [the scorecard](scorecard.md).\n",
        pages::GENERATED_BANNER,
        common_flags_table()
    )
}

/// The "Flags every binary accepts" table, rendered from the harness's flag
/// table (`cbws_harness::cli`), so the page cannot drift from the parser.
fn common_flags_table() -> String {
    let mut md = String::from("| flag | effect |\n|---|---|\n");
    for f in cbws_harness::cli::flags_of(cbws_harness::cli::COMMON) {
        let synopsis = f.synopsis().replace('|', "\\|");
        md.push_str(&format!("| `{synopsis}` | {} |\n", f.help));
    }
    md
}

fn trace_store(root: &Path) -> Result<String, String> {
    use cbws_bench::perf_history::{load_snapshot, STREAM_THROUGHPUT_FLOOR};
    let mut md = format!(
        "{}# The trace store\n\n\
         Workload traces are deterministic functions of `(workload, scale, \
         DSL version)`, so the harness persists them instead of regenerating \
         them every run. Traces are packed into a columnar (structure-of-\
         arrays) encoding — `cbws_trace::PackedTrace` — cut into \
         independently decodable **frames**, and written to a versioned, \
         checksummed binary file per `(workload, scale)` under \
         `CBWS_TRACE_STORE_DIR` (default `target/trace-store/`). The sweep \
         engine and the figure regenerators replay these files without \
         ever materializing a `Vec<TraceEvent>`. Every open returns one \
         handle, `cbws_trace::FramedTrace` (the frame table plus a byte \
         source), and every replay runs one frame cursor over it; only \
         the byte source differs — a memory map for ordinary files \
         (frames are zero-copy views of it), or frame-by-frame reads from \
         disk for files past the streaming threshold.\n\n\
         ## File format (version 5)\n\n\
         All integers are little-endian. One file per `(workload, scale)`, \
         named `<workload>-<scale>.cbwstrace`.\n\n\
         | section | field | size | meaning |\n|---|---|---|---|\n\
         | header | magic | 8 | `CBWSTRCE` |\n\
         | | version | 4 | format version (currently 5) |\n\
         | | workload_hash | 8 | FNV-1a hash of the DSL sources that define \
         *this* workload (shared kernels + its suite's file + its name) |\n\
         | | scale | 1 | 0 = tiny, 1 = small, 2 = full, 3 = huge |\n\
         | | name_len + name | 2 + n | the workload name |\n\
         | | frame_events | 4 | events per frame the writer used |\n\
         | frames | payloads | var | N concatenated `PackedTrace` payloads, \
         each decodable on its own (delta predictors reset per frame) |\n\
         | footer | frame table | N × 24 | per frame: byte length, event \
         count, `cbws_trace::checksum` of the payload |\n\
         | trailer | totals | 24 | total events, frame count, \
         `cbws_trace::checksum` of the footer |\n\n\
         `cbws_trace::checksum` reads the bytes as 8-byte little-endian \
         words (the last one zero-padded), mixes each word, and chains \
         them through one multiply and rotate per word from a seed that \
         folds in the length. Each step is a bijection of its state, so \
         any change confined to one aligned word — every single-bit flip \
         — changes the checksum, and the word mix keeps two flips in \
         neighbouring words from cancelling. It runs at about 0.26 \
         ns/byte, several times faster than the byte-serial FNV-1a \
         (≈ 1.7 ns/byte) that keys the files.\n\n\
         Each frame payload is a 9-word header (event/lane entry counts and \
         lane byte extents) followed by the tag lane (one byte per event: \
         variant + store/dep/taken flags) and four LEB128 varint operand \
         lanes: PC deltas (zigzag, against the previous PC *of the same \
         event variant*), address deltas (zigzag), ALU run lengths, and \
         block ids. The cursor decodes lanes in 256-event batches into \
         flat scratch columns, routing each lane to a word-at-a-time or \
         scalar varint kernel by its bytes-per-entry (see \
         `cbws_trace::varint`); `BENCH_decode.json` tracks the decode \
         throughput. The fixed-size trailer at EOF locates the footer, so \
         the writer never needs the frame count up front and readers find \
         every frame with three bounded reads.\n\n\
         ## Streaming: O(1) memory in trace length\n\n\
         Framing (version 4) makes trace memory constant in trace length \
         on both sides of the store, which is what makes the `huge` scale \
         (12× full) usable at all:\n\n\
         * **Writing streams.** A store miss feeds the kernel's emitter \
         into a streaming `TraceBuilder`, which encodes each event into \
         the open frame's column lanes as it is emitted; every \
         `frame_events` events (default 64 Ki, `CBWS_TRACE_FRAME_EVENTS`) \
         the finished frame is written to disk, so generating a huge \
         trace holds about one packed frame in memory and never a frame \
         of unpacked events.\n\
         * **Replaying streams past a threshold.** The store picks the \
         handle's byte source from the file size: files larger than \
         `CBWS_STREAM_THRESHOLD_BYTES` (default 256 MiB; `0` streams \
         everything) stay on disk, and a read-ahead thread fetches frame \
         N+1 while the cursor decodes frame N, instead of mapping the \
         whole file. Smaller files are memory-mapped. The cursor is the \
         same 256-event batch decoder either way, so streamed and \
         in-memory replay are record-identical — property tests and the \
         `stream_replay` bench both assert it.\n\n\
         A counting-allocator test (`bounded_memory.rs`) pins the claim: \
         generating **and** replaying a huge ~10⁷-event trace stays under \
         a constant live-heap bound far below the trace's packed size.\n",
        pages::GENERATED_BANNER
    );
    let snap = root.join("BENCH_stream.json");
    if snap.exists() {
        let r = load_snapshot(&snap, "committed", 0)?;
        if let (Some(&mem), Some(&stream), Some(&ratio)) = (
            r.metrics.get("replay_memory_seconds"),
            r.metrics.get("replay_stream_seconds"),
            r.metrics.get("stream_throughput_ratio"),
        ) {
            md.push_str(&format!(
                "\n> On the committed `BENCH_stream.json` snapshot (scale \
                 {}, {} core(s)), warm in-memory replay took {mem:.4} s \
                 and disk-backed streamed replay {stream:.4} s — a \
                 throughput ratio of {ratio:.3}, including the streamed \
                 side's open and validation cost. `perf-history check` \
                 gates this ratio at {STREAM_THROUGHPUT_FLOOR}; see \
                 [Performance trends](perf-trends.md).\n",
                r.scale, r.cores,
            ));
        }
    }
    md.push_str(
        "\n## Invalidation\n\n\
         A file is rejected — with a `warn!` and transparent regeneration, \
         never a panic — when the magic or version differs, the \
         `workload_hash` does not match the current sources, the key does \
         not match the request, the footer checksum disagrees, or any \
         per-frame checksum disagrees. Version 1 hashed the whole DSL \
         binary, so any kernel edit invalidated every stored trace; version \
         2 hashes per workload (the shared kernel helpers, the one suite \
         source file the workload lives in, and its name), so editing one \
         suite regenerates only that suite's traces; version 3 changed the \
         PC lane encoding; version 4 framed the payload; version 5 signs \
         frames and footer with the word-at-a-time checksum instead of \
         FNV-1a. Older stores regenerate wholesale on first use. Every open of an existing \
         file checks each frame (checksum, payload parse, event count) \
         before handing out the handle — a streamed file through the \
         read-ahead, a few frames resident at a time — so a corrupt frame \
         is caught at open, not mid-replay, and triggers the same \
         regeneration path. Writes are \
         atomic (temp file + rename), so a crashed run cannot leave a torn \
         file that poisons the next one.\n\n\
         ## Telemetry\n\n\
         With telemetry enabled (`--metrics-out`), the store \
         counts `trace_store.hit`, `.miss`, `.write`, and `.invalidate`, \
         and accumulates `trace_store.load_us` / `.generate_us`; a warm CI \
         run asserts `trace_store.hit > 0`. Every drained streamed cursor \
         additionally reports `trace.stream.replays` / `.frames` / \
         `.bytes` / `.stalls` / `.stall_us` — the stall counters say how \
         often the simulator outran the read-ahead thread. With span \
         tracing enabled (`--spans-out`, see \
         [Observability](observability.md)), every load, generate, \
         validate, and write appears as a nested span on the worker's \
         timeline lane, and each streamed replay emits a `trace.stream` \
         span carrying the same numbers as attributes.\n",
    );
    Ok(md)
}

fn result_store(root: &Path) -> Result<String, String> {
    use cbws_bench::perf_history::{load_snapshot, CACHED_SWEEP_SPEEDUP_FLOOR};
    let mut md = format!(
        "{}# The result store\n\n\
         Simulation results are deterministic functions of the trace, the \
         prefetcher configuration, and the simulator code, so the harness \
         persists each job's `RunRecord` the same way the \
         [trace store](trace-store.md) persists traces. Every binary keeps \
         the store on by default; re-running a sweep whose inputs have not \
         changed serves every job from disk and skips both trace loading \
         and simulation. An interrupted sweep resumes with `--resume`, \
         simulating only the jobs the killed run never finished.\n\n\
         ## Keying and the file format (version 3)\n\n\
         One little-endian file per `(workload, scale, prefetcher, \
         config)`, named \
         `<workload>-<scale>-<prefetcher>-<config hash>.cbwsresult` under \
         `CBWS_RESULT_STORE_DIR` (default `target/result-store/`). The \
         config hash in the file name lets sensitivity sweeps that revisit \
         one `(workload, scale, prefetcher)` triple under many \
         configurations keep every point on disk at once — without it each \
         config overwrote the previous one's entry. The \
         header stores magic `CBWSRSLT`, the format version, and an FNV-1a \
         key hash folding together:\n\n\
         | component | invalidates when |\n|---|---|\n\
         | workload trace hash | the workload's DSL sources change (the \
         trace store's per-suite scheme) |\n\
         | prefetcher kind + `SystemConfig` hash | any cache, latency, or \
         prefetcher parameter changes (each sensitivity point keys \
         separately) |\n\
         | simulator version hash | any simulation source file changes |\n\
         | scale | the trace length changes |\n\n\
         The payload is the `RunRecord` in a fixed little-endian layout, \
         guarded by the trace store's word-at-a-time checksum \
         (`cbws_trace::checksum`): the `memory_intensive` byte, \
         `CpuStats`' 6 and `MemStats`' 17 counters as `u64` in declaration \
         order, then the workload and prefetcher names, each after a `u16` \
         length. An entry is about 240 bytes (version 1 stored the record \
         as JSON, about 580). The reader checks the exact payload length \
         and compares both names with the key before it allocates \
         anything, so a hit makes 5 heap allocations where the JSON parse \
         made 50. A mismatch on any field — a single flipped bit anywhere \
         in the file, a truncation, a length that lies, or names that \
         disagree with the key — rejects the entry with a `warn!`, removes \
         it, and re-simulates; property tests in \
         `result_store_properties.rs` exercise exactly this. An entry of \
         another format version reads the same way, so a version-1 store \
         (JSON) or version-2 store (FNV-1a payload checksum) is \
         re-simulated once. Writes are atomic (temp file + rename), so \
         a killed run never leaves a torn entry.\n\n\
         ## Byte budget\n\n\
         `CBWS_RESULT_CACHE_BYTES` bounds the store on disk (default \
         64 MiB). When a write pushes past the budget, oldest-modified \
         entries are evicted first; hits bump an entry's mtime, so the \
         order is LRU. The entry just written is never evicted.\n\n\
         ## Telemetry\n\n\
         With telemetry enabled the store counts `result_store.hit`, \
         `.miss`, `.write`, `.invalidate`, and `.evict`, plus \
         `result_store.write_bytes` — the bytes each write adds, which the \
         [sweep service](service.md) charges against per-client quotas; \
         the cached CI leg asserts `result_store.hit > 0`. Each `results/*.manifest.json` \
         records per-worker `store_hits` / `store_misses`, so a committed \
         artifact says whether its records were simulated or served from \
         the store. Determinism is gated in `sweep_e2e`: records served \
         from the store must be byte-identical to fresh simulation.\n",
        pages::GENERATED_BANNER
    );
    let snap = root.join("BENCH_sweep.json");
    if snap.exists() {
        let r = load_snapshot(&snap, "committed", 0)?;
        if let (Some(&warm), Some(&cached)) = (
            r.metrics.get("engine_warm_seconds"),
            r.metrics.get("engine_cached_seconds"),
        ) {
            md.push_str(&format!(
                "\n> On the committed `BENCH_sweep.json` snapshot (scale \
                 {}, {} core(s)), the warm engine sweep took {:.4} s and \
                 the fully cached sweep {:.4} s — {:.1}x faster. \
                 `perf-history check` gates this ratio at \
                 {CACHED_SWEEP_SPEEDUP_FLOOR}x; see \
                 [Performance trends](perf-trends.md).\n",
                r.scale,
                r.cores,
                warm,
                cached,
                warm / cached
            ));
        }
    }
    Ok(md)
}

fn observability() -> String {
    format!(
        "{}# Observability\n\n\
         Three layers, all off by default and near-free when disabled:\n\n\
         1. **Telemetry** (`--metrics-out F`) — the dotted-path metrics \
         registry, the one counter primitive; one branch per hook when \
         disabled. See [Reproducing the figures](reproducing.md).\n\
         2. **Span tracing** (`--spans-out F`) — nested, thread-tagged \
         wall-clock spans exported as a Chrome trace-event JSON file.\n\
         3. **Heartbeat** (`--progress`) — rate-limited `n/total` job \
         progress lines from the sweep engine.\n\n\
         ## Span tracing\n\n\
         Every harness binary accepts `--spans-out F`. When present, a \
         process-wide `Spans` collector is enabled and the hot stack is \
         instrumented:\n\n\
         | layer | spans |\n|---|---|\n\
         | sweep engine | one `lane` per worker thread; one span per \
         (workload, prefetcher) job with `workload`/`prefetcher` \
         attributes; `idle` spans for steal-wait gaps |\n\
         | trace store | `trace.load` / `trace.generate` / `trace.write`, \
         with nested `trace.validate` under loads |\n\
         | simulator core | `core.run` per replayed trace |\n\
         | `all_experiments` steps | `phase.<step>` per top-level step \
         (e.g. `phase.static_tables`, `phase.sweep`) |\n\n\
         The output is Chrome trace-event JSON: load it in Perfetto \
         (<https://ui.perfetto.dev>) or `chrome://tracing` and each worker \
         renders as its own timeline lane, so load imbalance and store \
         stalls are visible at a glance.\n\n\
         ```bash\n\
         cargo run --release -p cbws-harness --bin all_experiments -- \\\n  \
           --scale tiny --jobs 2 --spans-out spans.json\n\
         ```\n\n\
         When `--spans-out` is absent the collector is disabled: `begin()` \
         returns a no-op guard without allocating, so instrumented code \
         costs one atomic load per span site (measured ≤ 2% on the warm \
         full-matrix sweep; see DESIGN.md).\n\n\
         ## Per-worker statistics\n\n\
         Independent of span collection, every engine run aggregates per-\
         worker job counts, busy/idle seconds, and a log2 histogram of job \
         durations. These land in each `results/*.manifest.json` under \
         `worker_stats` (with `host_cores` for context) and in \
         `BENCH_sweep.json` under `workers_detail`, so committed artifacts \
         record *how* they were produced, not just what they contain.\n\n\
         ## Performance history\n\n\
         `cargo run -p cbws-bench --bin perf-history -- record` appends \
         the current `BENCH_*.json` snapshots to \
         `results/perf-history/<bench>.jsonl` with git revision, core \
         count, and timestamp; `-- check` gates regressions. See \
         [Performance trends](perf-trends.md).\n",
        pages::GENERATED_BANNER
    )
}

fn perf_trends(root: &Path) -> Result<String, String> {
    use cbws_bench::perf_history::{
        benches_in, load, trends, HARD_METRICS, MIN_HISTORY, SERVER_OVERHEAD_CEILING,
    };
    let dir = root.join("results/perf-history");
    let mut md = format!(
        "{}# Performance trends\n\n\
         Rendered from the append-only history in `results/perf-history/` \
         (one JSON line per recorded benchmark run; see \
         [Observability](observability.md)). For each metric the latest \
         run is compared against the mean ± stddev of every prior run. \
         `perf-history check` fails CI when a **hard-gated** metric ({}) \
         exceeds the prior mean by 3 stddevs (with a 2%-of-mean noise \
         floor); other `*_seconds` metrics only warn. Gating starts once a \
         metric has {} prior runs. Five absolute gates apply to the latest \
         record regardless of history: `replay_speedup >= 1.0` (direct \
         packed replay must beat materialize-then-replay AoS), \
         `stream_throughput_ratio >= 0.7` (disk-backed streamed replay \
         must hold 70% of warm in-memory replay throughput; see \
         [the trace store](trace-store.md)), \
         `engine_warm_seconds <= 1.02 x serial_seconds` on single-worker \
         sweep records (the overhead bound of a one-worker engine run), \
         `engine_warm_seconds / engine_cached_seconds >= 3.0` (a sweep \
         served from the [result store](result-store.md) must beat \
         re-simulation), and `server_overhead_ratio <= {}` (a cached \
         `/v1/simulate` from the [sweep service](service.md) must stay \
         within that many bare loopback round trips of the same bytes).\n",
        pages::GENERATED_BANNER,
        HARD_METRICS.join(", "),
        MIN_HISTORY,
        SERVER_OVERHEAD_CEILING
    );
    let benches = benches_in(&dir);
    if benches.is_empty() {
        md.push_str(
            "\nNo history recorded yet — run `cargo run -p cbws-bench --bin \
             perf-history -- record` after a bench run.\n",
        );
        return Ok(md);
    }
    for bench in benches {
        let history = load(&dir, &bench)?;
        let Some(latest) = history.last() else {
            continue;
        };
        md.push_str(&format!(
            "\n## {bench}\n\n{} runs recorded, latest at rev `{}` on {} \
             core(s), scale {}.\n\n",
            history.len(),
            latest.git_rev,
            latest.cores,
            latest.scale
        ));
        let rows = trends(&history);
        if rows.is_empty() {
            md.push_str("Not enough runs to trend yet.\n");
            continue;
        }
        md.push_str("| metric | latest | prior mean | prior stddev | prior runs | delta |\n");
        md.push_str("|---|---|---|---|---|---|\n");
        for t in rows {
            let gate = if HARD_METRICS.contains(&t.metric.as_str()) {
                " (hard gate)"
            } else {
                ""
            };
            md.push_str(&format!(
                "| `{}`{} | {:.4} | {:.4} | {:.4} | {} | {:+.1}% |\n",
                t.metric,
                gate,
                t.latest,
                t.mean,
                t.stddev,
                t.prior_runs,
                t.delta_fraction() * 100.0
            ));
        }
    }
    Ok(md)
}

fn summary(registry: &[ComponentDescription], figures: &[pages::FigureSpec]) -> String {
    let mut md = String::from("# Summary\n\n[Introduction](introduction.md)\n\n");
    md.push_str("- [Reproducing the figures](reproducing.md)\n");
    md.push_str("- [The trace store](trace-store.md)\n");
    md.push_str("- [The result store](result-store.md)\n");
    md.push_str("- [The sweep service](service.md)\n");
    md.push_str("- [Observability](observability.md)\n");
    md.push_str("- [Performance trends](perf-trends.md)\n");
    md.push_str("- [Component reference](registry/index.md)\n");
    for d in registry {
        md.push_str(&format!(
            "  - [{}](registry/{}.md)\n",
            d.name,
            pages::slug(&d.name)
        ));
    }
    md.push_str("- [Results gallery](results/index.md)\n");
    for s in figures {
        md.push_str(&format!("  - [{}](results/{}.md)\n", s.title, s.slug));
    }
    md.push_str("- [Paper-claim scorecard](scorecard.md)\n");
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cbws-book-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("book/src")).unwrap();
        dir
    }

    #[test]
    fn normalize_strips_crlf_and_trailing_whitespace() {
        assert_eq!(normalize(b"a \r\nb\t\r\nc"), b"a\nb\nc".to_vec());
        assert_eq!(normalize(b"plain\n"), b"plain\n".to_vec());
        assert_eq!(normalize(b""), b"".to_vec());
    }

    #[test]
    fn crlf_checkout_is_not_stale() {
        let root = scratch_root("crlf");
        std::fs::write(
            root.join("book/src/page.md"),
            b"# Title  \r\nbody\r\nlast\t\r\n",
        )
        .unwrap();
        let mut files = BookFiles::new();
        files.insert("src/page.md".into(), b"# Title\nbody\nlast\n".to_vec());
        let problems = diff_book(&root, &files);
        let _ = std::fs::remove_dir_all(&root);
        assert!(problems.is_empty(), "{problems:?}");
    }

    #[test]
    fn content_change_is_still_stale() {
        let root = scratch_root("stale");
        std::fs::write(root.join("book/src/page.md"), b"old\n").unwrap();
        let mut files = BookFiles::new();
        files.insert("src/page.md".into(), b"new\n".to_vec());
        let problems = diff_book(&root, &files);
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("stale"), "{problems:?}");
    }
}
