//! Persistent on-disk trace store with framed payloads and streamed replay.
//!
//! Without it every new process would regenerate all 30 kernels from the
//! DSL before it could simulate anything. This module persists each generated
//! trace — as a sequence of independently decodable
//! [`cbws_trace::PackedTrace`] **frames** — to a versioned, checksummed file
//! under `CBWS_TRACE_STORE_DIR` (default: `target/trace-store/` of the
//! workspace), so repeated sweeps, figure regenerations, and CI runs skip
//! DSL generation entirely.
//!
//! Framing is what makes trace memory O(1) in trace length end to end:
//!
//! * **Writing** streams. [`TraceStore::get`] misses feed the kernel's
//!   emitter into a [`cbws_trace::TraceBuilder`] in streaming mode, which
//!   encodes each event into the open frame's column lanes
//!   ([`cbws_trace::FrameEncoder`]) as it is emitted; every `frame_events`
//!   events the finished frame is written to disk, so generating a
//!   `Scale::Huge` trace holds about one *packed* frame in memory (its
//!   lanes plus the finished payload, a few hundred KiB at the default
//!   frame size), never a frame of unpacked `TraceEvent`s.
//! * **Replaying** can stream too. Every open returns one kind of handle,
//!   a [`cbws_trace::FramedTrace`]; only its byte source differs, chosen
//!   from the file size. [`TraceStore::replay_source`] leaves files larger
//!   than a caller-chosen byte threshold on disk, read frame by frame
//!   through a double-buffered read-ahead thread; smaller files (and every
//!   [`TraceStore::get`]) are memory-mapped, and their frames replay as
//!   zero-copy views of the mapping.
//!
//! # Opening
//!
//! There is one open path, whichever entry point asks:
//!
//! 1. read the header, trailer and footer (`read_meta`);
//! 2. on a miss or an invalid file, stream-generate the file and serve it
//!    without re-reading (the frame table came from the writer);
//! 3. otherwise check every frame ([`FramedTrace::verify`]: checksum,
//!    payload parse, event count against the footer) — through the
//!    read-ahead for a streamed file, so at most a few frames are resident
//!    — and regenerate on any failure;
//! 4. return the handle.
//!
//! One memo map holds the handle per `(workload, scale)`; its per-key slot
//! is the gate that makes concurrent callers open a file once. When the
//! store directory is unwritable the writer emits the same file layout
//! into heap memory instead, and the handle is resident over that buffer.
//!
//! # File format (version 5, little-endian)
//!
//! | section | field | size | contents |
//! |---|---|---|---|
//! | header | magic | 8 | `b"CBWSTRCE"` |
//! | | format version | 4 | `u32`, currently 5 |
//! | | workload hash | 8 | FNV-1a over the sources this workload's trace depends on ([`workload_hash`]) |
//! | | scale | 1 | 0 = tiny, 1 = small, 2 = full, 3 = huge |
//! | | name length | 2 | `u16` |
//! | | name | var | workload name, UTF-8 |
//! | | frame events | 4 | `u32`, events per frame the writer used (informational) |
//! | frames | payloads | var | N concatenated [`PackedTrace::payload`] blobs, each decodable on its own (delta predictors reset per frame) |
//! | footer | per frame | N × 24 | `len: u64`, `events: u64`, [`checksum`] of the frame payload |
//! | trailer | total events | 8 | `u64` |
//! | | frame count | 8 | `u64` |
//! | | footer checksum | 8 | [`checksum`] of the footer bytes |
//!
//! The fixed-size trailer at EOF locates the footer, so the writer never
//! needs to know the frame count up front and readers find every frame
//! with three bounded reads (header, trailer, footer).
//!
//! # Invalidation and fallback
//!
//! Writing, the magic / version / hash prefix and the corrupt-equals-miss
//! rule are the [`store_file`] protocol the result store shares. A file is
//! only served when the prefix, the key (workload + scale), the footer
//! checksum **and every frame checksum** match. The workload hash has
//! per-workload granularity ([`workload_hash`]): editing one kernel's `fn`
//! body invalidates only the workloads emitting through it — the rest of
//! the store stays warm. Any mismatch is counted as
//! `trace_store.invalidate`, reported with a `warn!`, and falls back to
//! regeneration (which rewrites the file); it never panics and never
//! changes simulation results. Streamed opens verify every frame too, so a
//! corrupt frame is caught at open — not mid-replay — and triggers the
//! same regeneration path; a streamed cursor re-checks each frame's
//! checksum as it arrives and panics if the file changed since.
//!
//! # Telemetry
//!
//! `trace_store.hit` / `.miss` / `.write` / `.invalidate` counters, plus
//! `trace_store.load_us` (time to adopt a stored trace) and
//! `trace_store.generate_us` (time to stream-generate on a miss). Each
//! drained streamed cursor reports `trace.stream.replays` / `.frames` /
//! `.bytes` / `.stalls` / `.stall_us` counters and a `trace.stream` span
//! carrying the same numbers as attributes. With a span collector attached
//! ([`TraceStore::set_spans`]), store accesses additionally emit
//! `trace.load` / `trace.validate` / `trace.generate` / `trace.write`
//! spans on the calling thread's timeline lane.

pub mod store_file;

use crate::{Scale, WorkloadSpec};
use cbws_telemetry::{warn, Spans, Telemetry};
use cbws_trace::{FrameEntry, FramedTrace, PackedTrace, StreamObserver, TraceBuilder};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use store_file::{invalid, scale_code, LoadError, Sinks, PREFIX_LEN};

pub use crate::source_hash::workload_hash;
pub use cbws_trace::checksum;

/// Magic bytes opening every trace-store file.
pub const MAGIC: &[u8; 8] = b"CBWSTRCE";

/// Current file-format version. Version 4 replaced the single monolithic
/// payload (+ per-column checksums) with framed payloads, a frame footer,
/// and a fixed trailer, enabling streamed writes and streamed replay.
/// Version 5 keeps that layout but signs frames and footer with the
/// word-at-a-time [`checksum`] instead of byte-serial FNV-1a. Files of any
/// other version read as version skew and are regenerated.
pub const FORMAT_VERSION: u32 = 5;

/// Environment variable selecting the store directory.
pub const DIR_ENV: &str = "CBWS_TRACE_STORE_DIR";

/// Environment variable overriding the events-per-frame the writer uses.
pub const FRAME_EVENTS_ENV: &str = "CBWS_TRACE_FRAME_EVENTS";

/// Default events per frame. At the packed format's ~6 bytes/event this
/// keeps frames in the hundreds of kilobytes: big enough to amortize
/// per-frame decode setup, small enough that one in-flight frame plus one
/// being replayed bound streamed memory to a few megabytes.
pub const DEFAULT_FRAME_EVENTS: usize = 65_536;

/// Bytes per footer entry (`len`, `events`, `checksum`).
const FOOTER_ENTRY_LEN: u64 = 24;

/// Bytes in the fixed EOF trailer (`total_events`, `frame_count`,
/// `footer_checksum`).
const TRAILER_LEN: u64 = 24;

/// Read-only memory map of a whole file (unix). Falls back to
/// [`std::fs::read`] when mapping fails or on other platforms.
#[cfg(unix)]
mod mmap {
    use std::ffi::c_void;
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// An owned read-only mapping; unmapped on drop.
    pub struct Mmap {
        ptr: *mut c_void,
        len: usize,
    }

    // The mapping is immutable (PROT_READ, MAP_PRIVATE) for its lifetime.
    unsafe impl Send for Mmap {}
    unsafe impl Sync for Mmap {}

    impl Mmap {
        /// Maps `len` bytes of `file` read-only; `None` on failure (caller
        /// falls back to reading the file).
        pub fn map(file: &File, len: usize) -> Option<Mmap> {
            if len == 0 {
                return None;
            }
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                None
            } else {
                Some(Mmap { ptr, len })
            }
        }
    }

    impl AsRef<[u8]> for Mmap {
        fn as_ref(&self) -> &[u8] {
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mmap {
        fn drop(&mut self) {
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// Reads a store file as a shared buffer: memory-mapped where possible,
/// otherwise copied to the heap.
fn read_file_shared(path: &Path) -> std::io::Result<Arc<dyn AsRef<[u8]> + Send + Sync>> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let len = usize::try_from(len)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large"))?;
    #[cfg(unix)]
    if let Some(map) = mmap::Mmap::map(&file, len) {
        return Ok(Arc::new(map));
    }
    drop(file);
    Ok(Arc::new(std::fs::read(path)?))
}

/// What the header, footer, and trailer say about a store file, gathered
/// with three bounded reads — no frame data touched.
struct FileMeta {
    /// Frame table with absolute file offsets.
    entries: Vec<FrameEntry>,
    /// Whole-file size the metadata was validated against.
    file_len: u64,
}

/// Parses and verifies a store file's header, footer, and trailer against
/// the expected key. Frame payloads are *not* read; the per-frame check is
/// [`FramedTrace::verify`].
fn read_meta(
    path: &Path,
    want_hash: u64,
    want_name: &str,
    want_scale: Scale,
) -> Result<FileMeta, LoadError> {
    let mut f = store_file::open(path)?;
    let file_len = match f.metadata() {
        Ok(m) => m.len(),
        Err(e) => return invalid(format!("unreadable: {e}")),
    };
    // The prefix, then the scale byte and the name's `u16` length.
    let mut fixed = [0u8; PREFIX_LEN + 3];
    if f.read_exact(&mut fixed).is_err() {
        return invalid("truncated header");
    }
    store_file::check_prefix(&fixed, MAGIC, FORMAT_VERSION, want_hash)?;
    let scale = fixed[PREFIX_LEN];
    let name_len = usize::from(u16::from_le_bytes([
        fixed[PREFIX_LEN + 1],
        fixed[PREFIX_LEN + 2],
    ]));
    if name_len as u64 > file_len {
        return invalid("truncated header (name)");
    }
    let mut name = vec![0u8; name_len];
    if f.read_exact(&mut name).is_err() {
        return invalid("truncated header (name)");
    }
    if scale != scale_code(want_scale) || name != want_name.as_bytes() {
        return invalid("file key does not match its path");
    }
    let mut frame_events = [0u8; 4];
    if f.read_exact(&mut frame_events).is_err() {
        return invalid("truncated header (frame events)");
    }
    let header_len = fixed.len() as u64 + name_len as u64 + 4;

    // Trailer at EOF locates the footer.
    if file_len < header_len + TRAILER_LEN {
        return invalid("truncated: no room for trailer");
    }
    let mut trailer = [0u8; TRAILER_LEN as usize];
    if f.seek(SeekFrom::End(-(TRAILER_LEN as i64))).is_err() || f.read_exact(&mut trailer).is_err()
    {
        return invalid("unreadable trailer");
    }
    let total_events = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
    let frame_count = u64::from_le_bytes(trailer[8..16].try_into().unwrap());
    let footer_checksum = u64::from_le_bytes(trailer[16..24].try_into().unwrap());
    // The trailer is outside the footer checksum, so its frame count is
    // untrusted: the footer size is a checked product, compared against
    // the bytes actually between header and trailer with no addition that
    // could overflow.
    let room = file_len - header_len - TRAILER_LEN;
    let footer_len = match frame_count.checked_mul(FOOTER_ENTRY_LEN) {
        Some(n) if n <= room => n,
        _ => {
            return invalid(format!(
                "frame count {frame_count} disagrees with file size"
            ))
        }
    };
    let footer_start = header_len + (room - footer_len);

    let mut footer = vec![0u8; footer_len as usize];
    if f.seek(SeekFrom::Start(footer_start)).is_err() || f.read_exact(&mut footer).is_err() {
        return invalid("unreadable footer");
    }
    if checksum(&footer) != footer_checksum {
        return invalid("footer checksum mismatch");
    }
    let mut entries = Vec::with_capacity(frame_count as usize);
    let mut offset = header_len;
    let mut events_sum: u64 = 0;
    for (i, chunk) in footer.chunks_exact(FOOTER_ENTRY_LEN as usize).enumerate() {
        let len = u64::from_le_bytes(chunk[0..8].try_into().unwrap());
        let events = u64::from_le_bytes(chunk[8..16].try_into().unwrap());
        let checksum = u64::from_le_bytes(chunk[16..24].try_into().unwrap());
        let end = match offset.checked_add(len) {
            Some(e) if e <= footer_start => e,
            _ => return invalid(format!("frame {i} overruns the footer")),
        };
        entries.push(FrameEntry {
            offset,
            len,
            events,
            checksum,
        });
        offset = end;
        events_sum = match events_sum.checked_add(events) {
            Some(sum) => sum,
            None => return invalid("frame event counts overflow"),
        };
    }
    if offset != footer_start {
        return invalid("frame lengths disagree with file size");
    }
    if events_sum != total_events {
        return invalid("frame event counts disagree with the trailer total");
    }
    if usize::try_from(total_events).is_err() {
        return invalid("event count too large for this platform");
    }
    Ok(FileMeta { entries, file_len })
}

/// Streaming-write state shared with the builder's frame sink: frames are
/// written to `out` as the builder finishes them, and only their footer
/// entries are retained in memory.
struct FrameSink<W> {
    out: W,
    entries: Vec<FrameEntry>,
    offset: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> FrameSink<W> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.out.write_all(bytes)?;
        self.offset += bytes.len() as u64;
        Ok(())
    }

    fn push_frame(&mut self, frame: PackedTrace) {
        if self.error.is_some() {
            return;
        }
        let entry = FrameEntry::of(&frame, self.offset);
        match self.write(frame.payload()) {
            Ok(()) => self.entries.push(entry),
            Err(e) => self.error = Some(e),
        }
    }
}

/// One memo slot per key: the handle last opened for it. Its mutex is the
/// gate that makes concurrent callers for one key open (or regenerate) the
/// file once.
type Slot = Arc<Mutex<Option<Arc<FramedTrace>>>>;

/// A persistent, keyed store of framed packed traces. See the module docs.
///
/// One instance fronts one directory. Within the process it also memoizes
/// the opened handle per `(workload, scale)` (packed traces are ~4× smaller
/// than the `Vec<TraceEvent>` they replace, and memory-mapped files are
/// reclaimable clean pages, so no eviction budget is needed).
pub struct TraceStore {
    dir: PathBuf,
    /// XORed into every [`workload_hash`]; always 0 outside tests, which
    /// use it to simulate a binary built from different sources.
    hash_salt: u64,
    /// Events per frame the writer flushes; from [`FRAME_EVENTS_ENV`] or
    /// [`DEFAULT_FRAME_EVENTS`], overridable per store for tests.
    frame_events: usize,
    sinks: Sinks,
    map: Mutex<HashMap<(&'static str, Scale), Slot>>,
}

impl TraceStore {
    /// A store over `dir` keyed by this binary's per-workload
    /// [`workload_hash`]. Frame size comes from [`FRAME_EVENTS_ENV`] when
    /// set (and positive), else [`DEFAULT_FRAME_EVENTS`].
    pub fn at(dir: impl Into<PathBuf>) -> TraceStore {
        let frame_events = std::env::var(FRAME_EVENTS_ENV)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(DEFAULT_FRAME_EVENTS);
        TraceStore {
            dir: dir.into(),
            hash_salt: 0,
            frame_events,
            sinks: Sinks::new("trace_store"),
            map: Mutex::new(HashMap::new()),
        }
    }

    /// Overrides the events-per-frame the writer flushes (must be > 0).
    /// Tests use tiny frames to exercise multi-frame files at `Scale::Tiny`
    /// without env-var races.
    pub fn with_frame_events(mut self, frame_events: usize) -> TraceStore {
        assert!(frame_events > 0, "frame_events must be positive");
        self.frame_events = frame_events;
        self
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Events per frame newly written files will use.
    pub fn frame_events(&self) -> usize {
        self.frame_events
    }

    /// Routes the store's counters (`trace_store.*`, `trace.stream.*`) to
    /// `telemetry`. Streamed cursors created before this call report to the
    /// new sink too — the observer reads the current handle at drop time.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        self.sinks.set_telemetry(telemetry);
    }

    /// Routes the store's `trace.*` spans to `spans` (they appear on the
    /// calling thread's lane, nested inside whatever span is open there).
    pub fn set_spans(&self, spans: Spans) {
        self.sinks.set_spans(spans);
    }

    fn path_for(&self, name: &str, scale: Scale) -> PathBuf {
        self.dir.join(format!("{name}-{scale}.cbwstrace"))
    }

    /// The resident framed trace for `(workload, scale)`: from process
    /// memory, else from a verified store file (memory-mapped), else
    /// stream-generated to disk and mapped. A key held streamed by an
    /// earlier [`replay_source`](TraceStore::replay_source) is reopened
    /// resident. Concurrent callers for one key block on a single open.
    pub fn get(&self, workload: &'static WorkloadSpec, scale: Scale) -> Arc<FramedTrace> {
        self.memoized(workload, scale, None)
    }

    /// The handle `(workload, scale)` replays from: whatever this process
    /// already holds for the key, else a freshly opened one whose bytes
    /// stay on disk (read through the read-ahead) when the store file is
    /// larger than `stream_threshold_bytes`, and are mapped resident
    /// otherwise.
    ///
    /// The streamed side never materializes the trace: a missing or invalid
    /// file is stream-regenerated frame by frame, and an existing file's
    /// frames are checked one at a time. Either way the replayed events are
    /// identical to [`get`](TraceStore::get)'s. The handle is memoized per
    /// key for the life of the process (first caller's threshold wins).
    pub fn replay_source(
        &self,
        workload: &'static WorkloadSpec,
        scale: Scale,
        stream_threshold_bytes: u64,
    ) -> Arc<FramedTrace> {
        self.memoized(workload, scale, Some(stream_threshold_bytes))
    }

    /// The memoized handle for a key, opening one if there is none — or if
    /// the caller needs a resident handle (`stream_threshold` `None`) and
    /// the memo holds a streamed one.
    fn memoized(
        &self,
        workload: &'static WorkloadSpec,
        scale: Scale,
        stream_threshold: Option<u64>,
    ) -> Arc<FramedTrace> {
        let slot = Arc::clone(
            self.map
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry((workload.name, scale))
                .or_default(),
        );
        let mut held = slot.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = held
            .as_ref()
            .filter(|t| stream_threshold.is_some() || !t.is_streamed())
        {
            return Arc::clone(t);
        }
        let opened = Arc::new(self.open(workload, scale, stream_threshold.unwrap_or(u64::MAX)));
        *held = Some(Arc::clone(&opened));
        opened
    }

    /// Drops the in-process memoization (files stay). Subsequent `get`s
    /// reload from disk — used by benches to measure warm-disk loads and by
    /// tests to simulate a fresh process.
    pub fn drop_memory(&self) {
        self.map.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// The one open path: read the file's metadata, regenerate it on a
    /// miss or an invalid file, otherwise check every frame, and return a
    /// handle whose byte source [`handle`](TraceStore::handle) picks by
    /// file size. Unwritable directories fall back to the same bytes in
    /// heap memory.
    fn open(
        &self,
        workload: &'static WorkloadSpec,
        scale: Scale,
        stream_threshold: u64,
    ) -> FramedTrace {
        let telemetry = self.sinks.telemetry();
        let hash = workload_hash(workload) ^ self.hash_salt;
        let path = self.path_for(workload.name, scale);
        let started = Instant::now();
        match self.load(&path, hash, workload.name, scale, stream_threshold) {
            Ok(trace) => {
                telemetry.count("trace_store.hit", 1);
                telemetry.count("trace_store.load_us", started.elapsed().as_micros() as u64);
                return trace;
            }
            Err(LoadError::Missing) => telemetry.count("trace_store.miss", 1),
            Err(LoadError::Invalid(reason)) => {
                self.sinks.discard(&path, &reason);
            }
        }
        // A file this process just wrote needs no per-frame check: its
        // frame table came from the writer itself.
        let written = self
            .generate_file(workload, scale, hash, &path)
            .and_then(|meta| self.handle(&path, meta, stream_threshold, workload.name));
        match written {
            Ok(trace) => trace,
            Err(e) => {
                warn!(
                    "[trace_store] cannot write {}: {e}; continuing without persistence",
                    path.display()
                );
                let (bytes, meta) = self
                    .write_trace(workload, scale, hash, Vec::new())
                    .expect("kernel emitters produce well-formed traces");
                FramedTrace::resident(Arc::new(bytes), meta.entries)
                    .expect("frames lie inside the buffer they were written to")
            }
        }
    }

    /// Serves the store file at `path` if it is valid for the key: its
    /// metadata parses and every frame checks out.
    fn load(
        &self,
        path: &Path,
        hash: u64,
        workload: &'static str,
        scale: Scale,
        stream_threshold: u64,
    ) -> Result<FramedTrace, LoadError> {
        let spans = self.sinks.spans();
        let load_span = spans.begin("trace.load");
        load_span.attr("workload", workload);
        let meta = read_meta(path, hash, workload, scale)?;
        let trace = self
            .handle(path, meta, stream_threshold, workload)
            .or_else(|e| invalid(format!("unreadable: {e}")))?;
        let _validate = spans.begin("trace.validate");
        trace.verify().or_else(|e| invalid(e.to_string()))?;
        Ok(trace)
    }

    /// Wraps a store file's frame table in a handle. The file size picks
    /// the byte source: above `stream_threshold` the frames stay on disk
    /// behind the read-ahead, otherwise the file is mapped and the frames
    /// are zero-copy views of the mapping.
    fn handle(
        &self,
        path: &Path,
        meta: FileMeta,
        stream_threshold: u64,
        workload: &'static str,
    ) -> std::io::Result<FramedTrace> {
        let bad = |reason: String| std::io::Error::new(std::io::ErrorKind::InvalidData, reason);
        if meta.file_len > stream_threshold {
            return FramedTrace::read_ahead(path.to_path_buf(), meta.entries)
                .map(|t| t.with_observer(self.stream_observer(workload)))
                .map_err(|e| bad(e.to_string()));
        }
        let data = read_file_shared(path)?;
        if (*data).as_ref().len() as u64 != meta.file_len {
            return Err(bad("file changed while loading".into()));
        }
        FramedTrace::resident(data, meta.entries).map_err(|e| bad(e.to_string()))
    }

    /// Stream-generates `(workload, scale)` straight to its store file
    /// through [`write_trace`](TraceStore::write_trace), written atomically
    /// ([`store_file::write_atomic_with`]). Peak memory is one frame
    /// regardless of trace length.
    fn generate_file(
        &self,
        workload: &'static WorkloadSpec,
        scale: Scale,
        hash: u64,
        path: &Path,
    ) -> std::io::Result<FileMeta> {
        let meta = store_file::write_atomic_with(path, |file| {
            self.write_trace(workload, scale, hash, file)
        })?;
        self.sinks.telemetry().count("trace_store.write", 1);
        Ok(meta)
    }

    /// Writes the whole store file for `(workload, scale)` to `out`:
    /// header first, frames as the kernel emits them, then footer and
    /// trailer. Returns `out` and the file's metadata (offsets relative to
    /// the start of `out`).
    fn write_trace<W: Write + Send + 'static>(
        &self,
        workload: &'static WorkloadSpec,
        scale: Scale,
        hash: u64,
        out: W,
    ) -> std::io::Result<(W, FileMeta)> {
        let telemetry = self.sinks.telemetry();
        let spans = self.sinks.spans();
        let started = Instant::now();
        let mut header = Vec::with_capacity(32 + workload.name.len());
        store_file::push_prefix(&mut header, MAGIC, FORMAT_VERSION, hash);
        header.push(scale_code(scale));
        header.extend_from_slice(&(workload.name.len() as u16).to_le_bytes());
        header.extend_from_slice(workload.name.as_bytes());
        header.extend_from_slice(&(self.frame_events as u32).to_le_bytes());
        let mut sink = FrameSink {
            out,
            entries: Vec::new(),
            offset: 0,
            error: None,
        };
        sink.write(&header)?;
        let sink = Arc::new(Mutex::new(sink));

        let gen_span = spans.begin("trace.generate");
        gen_span.attr("workload", workload.name);
        let frame_sink = Arc::clone(&sink);
        let mut tb = TraceBuilder::streaming(self.frame_events, move |frame| {
            frame_sink
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_frame(frame);
        });
        workload.emit(scale, &mut tb);
        let total = tb.try_finish_stream().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("kernel emitted a malformed trace: {e}"),
            )
        })?;
        drop(gen_span);
        telemetry.count(
            "trace_store.generate_us",
            started.elapsed().as_micros() as u64,
        );

        let mut sink = match Arc::try_unwrap(sink) {
            Ok(s) => s.into_inner().unwrap_or_else(|e| e.into_inner()),
            Err(_) => unreachable!("builder dropped its sink"),
        };
        if let Some(e) = sink.error.take() {
            return Err(e);
        }
        debug_assert_eq!(
            sink.entries.iter().map(|e| e.events).sum::<u64>(),
            total,
            "flushed frames must account for every emitted event"
        );

        let _write_span = spans.begin("trace.write");
        let mut tail = Vec::with_capacity(sink.entries.len() * FOOTER_ENTRY_LEN as usize + 24);
        for e in &sink.entries {
            tail.extend_from_slice(&e.len.to_le_bytes());
            tail.extend_from_slice(&e.events.to_le_bytes());
            tail.extend_from_slice(&e.checksum.to_le_bytes());
        }
        let footer_checksum = checksum(&tail);
        tail.extend_from_slice(&total.to_le_bytes());
        tail.extend_from_slice(&(sink.entries.len() as u64).to_le_bytes());
        tail.extend_from_slice(&footer_checksum.to_le_bytes());
        sink.write(&tail)?;
        let meta = FileMeta {
            entries: sink.entries,
            file_len: sink.offset,
        };
        Ok((sink.out, meta))
    }

    /// The per-cursor-drop reporter wired into streamed traces: forwards
    /// [`cbws_trace::StreamStats`] to the store's *current* telemetry and
    /// span sinks as `trace.stream.*` counters and a `trace.stream` span.
    fn stream_observer(&self, workload: &'static str) -> StreamObserver {
        let sinks = self.sinks.clone();
        Arc::new(move |stats| {
            let t = sinks.telemetry();
            t.count("trace.stream.replays", 1);
            t.count("trace.stream.frames", stats.frames);
            t.count("trace.stream.bytes", stats.bytes);
            t.count("trace.stream.stalls", stats.stalls);
            t.count("trace.stream.stall_us", stats.stall_micros);
            let span = sinks.spans().begin("trace.stream");
            span.attr("workload", workload)
                .attr("frames", stats.frames)
                .attr("bytes", stats.bytes)
                .attr("stalls", stats.stalls)
                .attr("stall_us", stats.stall_micros);
        })
    }
}

/// The process-wide store. Directory comes from `CBWS_TRACE_STORE_DIR`;
/// unset falls back to the workspace's `target/trace-store/`.
pub fn shared() -> &'static TraceStore {
    static SHARED: OnceLock<TraceStore> = OnceLock::new();
    SHARED.get_or_init(|| TraceStore::at(store_file::store_dir(DIR_ENV, "trace-store")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;
    use cbws_trace::{EventCursor, EventRef, EventSource};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique per-test scratch directory (no tempfile dependency).
    fn scratch_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cbws-trace-store-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn counter(t: &Telemetry, path: &str) -> u64 {
        t.with_metrics(|m| m.counter(path).unwrap_or(0)).unwrap()
    }

    fn drain<S: EventSource + ?Sized>(src: &S) -> Vec<EventRef> {
        let mut cursor = src.cursor();
        let mut out = Vec::new();
        while let Some(batch) = cursor.next_batch() {
            out.extend_from_slice(batch);
        }
        out
    }

    #[test]
    fn miss_then_hit_round_trips() {
        let dir = scratch_dir("hit");
        let w = by_name("stencil-default").unwrap();
        let telemetry = Telemetry::enabled_default();

        let store = TraceStore::at(&dir);
        store.set_telemetry(telemetry.clone());
        let first = store.get(w, Scale::Tiny);
        assert_eq!(counter(&telemetry, "trace_store.miss"), 1);
        assert_eq!(counter(&telemetry, "trace_store.write"), 1);
        assert_eq!(counter(&telemetry, "trace_store.hit"), 0);

        // Same store instance: memoized, no extra disk traffic.
        let again = store.get(w, Scale::Tiny);
        assert!(Arc::ptr_eq(&first, &again));
        assert_eq!(counter(&telemetry, "trace_store.miss"), 1);

        // Fresh instance over the same directory = a new process: must hit.
        let store2 = TraceStore::at(&dir);
        store2.set_telemetry(telemetry.clone());
        let loaded = store2.get(w, Scale::Tiny);
        assert_eq!(counter(&telemetry, "trace_store.hit"), 1);
        assert_eq!(loaded.to_trace(), w.generate(Scale::Tiny));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_memory_reloads_from_disk() {
        let dir = scratch_dir("dropmem");
        let w = by_name("nw").unwrap();
        let telemetry = Telemetry::enabled_default();
        let store = TraceStore::at(&dir);
        store.set_telemetry(telemetry.clone());
        let first = store.get(w, Scale::Tiny);
        store.drop_memory();
        let second = store.get(w, Scale::Tiny);
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(counter(&telemetry, "trace_store.hit"), 1);
        assert_eq!(first.to_trace(), second.to_trace());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn workload_hash_mismatch_invalidates() {
        let dir = scratch_dir("wlhash");
        let w = by_name("histo-large").unwrap();
        {
            let store = TraceStore::at(&dir);
            store.get(w, Scale::Tiny);
        }
        // A binary with different kernel sources would carry a different
        // hash; simulate one.
        let telemetry = Telemetry::enabled_default();
        let mut skewed = TraceStore::at(&dir);
        skewed.hash_salt = 1;
        skewed.set_telemetry(telemetry.clone());
        let t = skewed.get(w, Scale::Tiny);
        assert_eq!(counter(&telemetry, "trace_store.invalidate"), 1);
        assert_eq!(counter(&telemetry, "trace_store.write"), 1);
        assert_eq!(t.to_trace(), w.generate(Scale::Tiny));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidation_is_per_workload() {
        let dir = scratch_dir("perworkload");
        let a = by_name("stencil-default").unwrap();
        let b = by_name("nw").unwrap();
        assert_ne!(a.suite, b.suite, "test needs workloads from two suites");
        let store = TraceStore::at(&dir);
        store.get(a, Scale::Tiny);
        store.get(b, Scale::Tiny);

        // Corrupt only B's stored hash (bytes 12..20: after magic+version),
        // simulating an edit to B's kernel sources.
        let path = store.path_for(b.name, Scale::Tiny);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[MAGIC.len() + 4] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let telemetry = Telemetry::enabled_default();
        let store2 = TraceStore::at(&dir);
        store2.set_telemetry(telemetry.clone());
        store2.get(a, Scale::Tiny);
        assert_eq!(counter(&telemetry, "trace_store.hit"), 1);
        assert_eq!(counter(&telemetry, "trace_store.invalidate"), 0);
        let t = store2.get(b, Scale::Tiny);
        assert_eq!(counter(&telemetry, "trace_store.hit"), 1);
        assert_eq!(counter(&telemetry, "trace_store.invalidate"), 1);
        assert_eq!(t.to_trace(), b.generate(Scale::Tiny));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_invalidates() {
        let dir = scratch_dir("version");
        let w = by_name("nw").unwrap();
        let store = TraceStore::at(&dir);
        store.get(w, Scale::Tiny);
        let path = store.path_for(w.name, Scale::Tiny);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[MAGIC.len()] ^= 0xFF; // format version field
        std::fs::write(&path, &bytes).unwrap();

        let telemetry = Telemetry::enabled_default();
        let store2 = TraceStore::at(&dir);
        store2.set_telemetry(telemetry.clone());
        let t = store2.get(w, Scale::Tiny);
        assert_eq!(counter(&telemetry, "trace_store.invalidate"), 1);
        assert_eq!(t.to_trace(), w.generate(Scale::Tiny));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_invalidates() {
        let dir = scratch_dir("truncate");
        let w = by_name("nw").unwrap();
        let store = TraceStore::at(&dir);
        store.get(w, Scale::Tiny);
        let path = store.path_for(w.name, Scale::Tiny);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let telemetry = Telemetry::enabled_default();
        let store2 = TraceStore::at(&dir);
        store2.set_telemetry(telemetry.clone());
        let t = store2.get(w, Scale::Tiny);
        assert_eq!(counter(&telemetry, "trace_store.invalidate"), 1);
        assert_eq!(t.to_trace(), w.generate(Scale::Tiny));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scales_store_separately() {
        let dir = scratch_dir("scales");
        let w = by_name("stencil-default").unwrap();
        let store = TraceStore::at(&dir);
        let tiny = store.get(w, Scale::Tiny);
        let small = store.get(w, Scale::Small);
        assert!(tiny.event_count() < small.event_count());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn small_frames_split_and_round_trip() {
        let dir = scratch_dir("frames");
        let w = by_name("stencil-default").unwrap();
        let store = TraceStore::at(&dir).with_frame_events(64);
        let framed = store.get(w, Scale::Tiny);
        assert!(
            framed.frames().len() > 1,
            "a tiny trace over 64-event frames must span multiple frames"
        );
        assert_eq!(framed.to_trace(), w.generate(Scale::Tiny));

        // The frame table in the file agrees with what was served.
        let meta = read_meta(
            &store.path_for(w.name, Scale::Tiny),
            workload_hash(w),
            w.name,
            Scale::Tiny,
        )
        .unwrap_or_else(|_| panic!("fresh file must parse"));
        assert_eq!(meta.entries, framed.frames());

        // A store with a different frame size still serves the same file:
        // frame geometry is not part of the key.
        let telemetry = Telemetry::enabled_default();
        let other = TraceStore::at(&dir);
        other.set_telemetry(telemetry.clone());
        let reloaded = other.get(w, Scale::Tiny);
        assert_eq!(counter(&telemetry, "trace_store.hit"), 1);
        assert_eq!(reloaded.to_trace(), w.generate(Scale::Tiny));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_source_streams_above_threshold() {
        let dir = scratch_dir("stream");
        let w = by_name("stencil-default").unwrap();
        let telemetry = Telemetry::enabled_default();
        let store = TraceStore::at(&dir).with_frame_events(64);
        store.set_telemetry(telemetry.clone());

        let source = store.replay_source(w, Scale::Tiny, 0);
        assert!(source.is_streamed(), "threshold 0 must stream");
        let streamed = drain(&source);
        assert_eq!(source.event_count(), streamed.len());

        // The drained cursor reported its stats.
        assert_eq!(counter(&telemetry, "trace.stream.replays"), 1);
        assert!(counter(&telemetry, "trace.stream.frames") > 1);
        assert!(counter(&telemetry, "trace.stream.bytes") > 0);

        // The decision is memoized: same handle next time.
        let again = store.replay_source(w, Scale::Tiny, 0);
        assert!(again.is_streamed());

        // Identical event stream vs the in-memory path — which, once
        // resident, wins over streaming on later calls.
        let memory = store.get(w, Scale::Tiny);
        assert_eq!(streamed, drain(&*memory));
        assert!(!store.replay_source(w, Scale::Tiny, 0).is_streamed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_source_prefers_memory_below_threshold() {
        let dir = scratch_dir("nostream");
        let w = by_name("nw").unwrap();
        let store = TraceStore::at(&dir);
        let source = store.replay_source(w, Scale::Tiny, u64::MAX);
        assert!(!source.is_streamed());
        assert_eq!(
            drain(&source),
            drain(&*store.get(w, Scale::Tiny)),
            "memory replay source must match the stored trace"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_frame_is_caught_at_streamed_open_and_regenerated() {
        let dir = scratch_dir("streamcorrupt");
        let w = by_name("nw").unwrap();
        let expect = {
            let store = TraceStore::at(&dir).with_frame_events(64);
            store.get(w, Scale::Tiny);
            let path = store.path_for(w.name, Scale::Tiny);
            // Flip one bit in the middle of the frame region: header,
            // footer, and trailer all still parse, so only the streamed
            // validation pass (or an in-memory load) can catch it.
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            w.generate(Scale::Tiny)
        };

        let telemetry = Telemetry::enabled_default();
        let store2 = TraceStore::at(&dir).with_frame_events(64);
        store2.set_telemetry(telemetry.clone());
        let source = store2.replay_source(w, Scale::Tiny, 0);
        assert_eq!(counter(&telemetry, "trace_store.invalidate"), 1);
        assert_eq!(counter(&telemetry, "trace_store.write"), 1);
        assert!(source.is_streamed(), "regenerated file streams again");
        let drained = drain(&source);
        let reference = PackedTrace::from_trace(&expect);
        assert_eq!(drained, drain(&reference));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lying_trailer_frame_count_invalidates() {
        let dir = scratch_dir("trailer");
        let w = by_name("nw").unwrap();
        let store = TraceStore::at(&dir);
        let expect = store.get(w, Scale::Tiny).to_trace();
        // The trailer sits outside the footer checksum. A frame count of
        // 768614336404564650 survives `checked_mul(24)` (2^64 - 16), and
        // adding the trailer length to that would overflow.
        let path = store.path_for(w.name, Scale::Tiny);
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - TRAILER_LEN as usize + 8;
        bytes[at..at + 8].copy_from_slice(&768_614_336_404_564_650u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let telemetry = Telemetry::enabled_default();
        let store2 = TraceStore::at(&dir);
        store2.set_telemetry(telemetry.clone());
        let t = store2.get(w, Scale::Tiny);
        assert_eq!(counter(&telemetry, "trace_store.invalidate"), 1);
        assert_eq!(counter(&telemetry, "trace_store.write"), 1);
        assert_eq!(t.to_trace(), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn get_and_replay_source_share_one_memo_in_either_order() {
        let dir = scratch_dir("order");
        let w = by_name("stencil-default").unwrap();
        let expect = w.generate(Scale::Tiny);

        // Streamed first, then `get`: a resident handle, same events.
        let store = TraceStore::at(&dir).with_frame_events(64);
        let streamed = store.replay_source(w, Scale::Tiny, 0);
        assert!(streamed.is_streamed());
        let resident = store.get(w, Scale::Tiny);
        assert!(!resident.is_streamed());
        assert_eq!(drain(&streamed), drain(&resident));
        assert_eq!(drain(&resident), expect.events());
        // The resident handle now serves both entry points.
        assert!(Arc::ptr_eq(
            &store.replay_source(w, Scale::Tiny, 0),
            &resident
        ));

        // `get` first, then `replay_source`: stays resident.
        let store = TraceStore::at(&dir).with_frame_events(64);
        let resident = store.get(w, Scale::Tiny);
        let source = store.replay_source(w, Scale::Tiny, 0);
        assert!(!source.is_streamed());
        assert!(Arc::ptr_eq(&source, &resident));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_directory_serves_the_same_frames_from_memory() {
        let dir = scratch_dir("unwritable");
        // A regular file where the directory should be: nothing can be
        // created under it.
        std::fs::write(&dir, b"not a directory").unwrap();
        let w = by_name("nw").unwrap();
        let telemetry = Telemetry::enabled_default();
        let store = TraceStore::at(&dir).with_frame_events(64);
        store.set_telemetry(telemetry.clone());
        let t = store.replay_source(w, Scale::Tiny, 0);
        assert!(!t.is_streamed(), "nothing on disk to stream from");
        assert!(t.frames().len() > 1);
        t.verify().unwrap();
        assert_eq!(t.to_trace(), w.generate(Scale::Tiny));
        assert_eq!(counter(&telemetry, "trace_store.write"), 0);
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn two_stores_on_one_directory_write_the_same_key_concurrently() {
        let dir = scratch_dir("race");
        let w = by_name("nw").unwrap();
        let expect = w.generate(Scale::Small);
        // Small frames stretch each write over many syscalls, widening the
        // window in which the two writers overlap.
        let stores = [
            TraceStore::at(&dir).with_frame_events(64),
            TraceStore::at(&dir).with_frame_events(64),
        ];
        let telemetry = Telemetry::enabled_default();
        for store in &stores {
            store.set_telemetry(telemetry.clone());
        }
        let barrier = std::sync::Barrier::new(stores.len());
        let traces: Vec<Arc<FramedTrace>> = std::thread::scope(|s| {
            let handles: Vec<_> = stores
                .iter()
                .map(|store| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        store.get(w, Scale::Small)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &traces {
            assert_eq!(t.to_trace(), expect);
        }
        // Both writers completed their own file; neither fell back to
        // serving from memory.
        assert_eq!(counter(&telemetry, "trace_store.write"), 2);
        // The file left behind verifies, and no temp file survives.
        let telemetry = Telemetry::enabled_default();
        let fresh = TraceStore::at(&dir);
        fresh.set_telemetry(telemetry.clone());
        fresh.get(w, Scale::Small);
        assert_eq!(counter(&telemetry, "trace_store.hit"), 1);
        assert_eq!(counter(&telemetry, "trace_store.invalidate"), 0);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_accesses_emit_spans() {
        let dir = scratch_dir("spans");
        let w = by_name("nw").unwrap();
        let spans = Spans::enabled();
        let store = TraceStore::at(&dir);
        store.set_spans(spans.clone());
        store.get(w, Scale::Tiny); // miss: load attempt, generate, write
        store.drop_memory();
        store.get(w, Scale::Tiny); // hit: load + validate
        let records = spans.records();
        let count = |name: &str| records.iter().filter(|r| r.name == name).count();
        // Miss: failed load, generate, write (the writer's own frame table
        // needs no re-check). Hit: one load with validate.
        assert_eq!(count("trace.load"), 2);
        assert_eq!(count("trace.generate"), 1);
        assert_eq!(count("trace.write"), 1);
        assert_eq!(count("trace.validate"), 1);
        // Validate spans nest inside their load span on the same lane.
        let validate = records.iter().find(|r| r.name == "trace.validate").unwrap();
        assert_eq!(validate.depth, 1);
        assert!(records.iter().all(|r| r.dur_us.is_some()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Heap accounting for the damage tests: the largest single request
    /// made on a thread while that thread is probing. Other threads and
    /// other tests pass straight through to [`System`].
    mod probe {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
        }

        fn note(size: usize) {
            let _ = LARGEST.try_with(|l| {
                if let Some(largest) = l.get() {
                    l.set(Some(largest.max(size)));
                }
            });
        }

        struct Probe;

        // SAFETY: every method forwards its arguments unchanged to
        // `System`, which upholds the `GlobalAlloc` contract; `note` only
        // touches a const-initialized thread-local `Cell`, which neither
        // allocates nor runs a destructor.
        unsafe impl GlobalAlloc for Probe {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                System.alloc(layout)
            }

            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                note(layout.size());
                System.alloc_zeroed(layout)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                System.dealloc(ptr, layout)
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size);
                System.realloc(ptr, layout, new_size)
            }
        }

        #[global_allocator]
        static PROBE: Probe = Probe;

        /// `f`'s result and the largest single allocation it made on this
        /// thread.
        pub fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
            LARGEST.with(|l| l.set(Some(0)));
            let out = f();
            (out, LARGEST.with(|l| l.take()).unwrap_or(0))
        }
    }

    /// Small allocations any open makes whatever the file says: the path's
    /// C string, an error's reason.
    const ALLOC_SLACK: usize = 1024;

    /// A multi-frame Tiny store file and the store that wrote it.
    fn damage_fixture(tag: &str) -> (PathBuf, TraceStore, &'static WorkloadSpec, Vec<u8>) {
        let dir = scratch_dir(tag);
        let w = by_name("nw").unwrap();
        let store = TraceStore::at(&dir).with_frame_events(64);
        assert!(store.get(w, Scale::Tiny).frames().len() > 4);
        let pristine = std::fs::read(store.path_for(w.name, Scale::Tiny)).unwrap();
        (dir, store, w, pristine)
    }

    /// Stores `bytes` as `w`'s file and opens it both resident and
    /// streamed: each open must reject it, and the resident one must make
    /// no allocation larger than the file. Every `sample`-th case also
    /// goes through a fresh store's `get`, which must count one
    /// invalidation and serve the regenerated trace. Returns the resident
    /// open's reason.
    fn assert_rejected(
        store: &TraceStore,
        w: &'static WorkloadSpec,
        bytes: &[u8],
        sample: bool,
        what: &str,
    ) -> String {
        let path = store.path_for(w.name, Scale::Tiny);
        std::fs::write(&path, bytes).unwrap();
        let hash = workload_hash(w);
        let (resident, largest) =
            probe::largest_allocation(|| store.load(&path, hash, w.name, Scale::Tiny, u64::MAX));
        let Err(LoadError::Invalid(reason)) = resident else {
            panic!("{what}: resident open did not reject the file");
        };
        assert!(
            largest <= bytes.len() + ALLOC_SLACK,
            "{what}: a {largest}-byte allocation for a {}-byte file",
            bytes.len()
        );
        let streamed = store.load(&path, hash, w.name, Scale::Tiny, 0);
        assert!(
            matches!(streamed, Err(LoadError::Invalid(_))),
            "{what}: streamed open did not reject the file"
        );
        if sample {
            let telemetry = Telemetry::enabled_default();
            let fresh = TraceStore::at(store.dir()).with_frame_events(64);
            fresh.set_telemetry(telemetry.clone());
            let served = fresh.get(w, Scale::Tiny).to_trace();
            assert_eq!(counter(&telemetry, "trace_store.invalidate"), 1, "{what}");
            assert_eq!(counter(&telemetry, "trace_store.hit"), 0, "{what}");
            assert_eq!(served, w.generate(Scale::Tiny), "{what}");
        }
        reason
    }

    #[test]
    fn truncation_at_every_offset_is_rejected() {
        let (dir, store, w, pristine) = damage_fixture("truncate-all");
        for cut in 0..pristine.len() {
            let what = format!("truncated to {cut} of {} bytes", pristine.len());
            assert_rejected(&store, w, &pristine[..cut], cut.is_multiple_of(509), &what);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file as format version 4 wrote it: these frames, footer and
    /// trailer, signed with byte-serial FNV-1a. It reads as version skew,
    /// counts one invalidation and is rebuilt in the current format.
    #[test]
    fn version_4_file_is_regenerated() {
        let (dir, store, w, pristine) = damage_fixture("v4");
        let fnv = |bytes: &[u8]| store_file::fnv1a_fold(store_file::FNV_BASIS, bytes);
        let n = pristine.len();
        let frames = store.get(w, Scale::Tiny).frames().to_vec();
        let footer = n - TRAILER_LEN as usize - frames.len() * FOOTER_ENTRY_LEN as usize;
        let mut v4 = pristine.clone();
        v4[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&4u32.to_le_bytes());
        for (i, e) in frames.iter().enumerate() {
            let at = footer + i * FOOTER_ENTRY_LEN as usize + 16;
            let signed = fnv(&pristine[e.offset as usize..(e.offset + e.len) as usize]);
            v4[at..at + 8].copy_from_slice(&signed.to_le_bytes());
        }
        let signed = fnv(&v4[footer..n - TRAILER_LEN as usize]);
        v4[n - 8..].copy_from_slice(&signed.to_le_bytes());

        let path = store.path_for(w.name, Scale::Tiny);
        std::fs::write(&path, &v4).unwrap();
        match store.load(&path, workload_hash(w), w.name, Scale::Tiny, u64::MAX) {
            Err(LoadError::Invalid(reason)) => {
                assert!(reason.starts_with("format version 4,"), "{reason}")
            }
            Err(LoadError::Missing) => panic!("the version-4 file was not found"),
            Ok(_) => panic!("a version-4 file was served"),
        }
        let telemetry = Telemetry::enabled_default();
        let fresh = TraceStore::at(&dir).with_frame_events(64);
        fresh.set_telemetry(telemetry.clone());
        assert_eq!(
            fresh.get(w, Scale::Tiny).to_trace(),
            w.generate(Scale::Tiny)
        );
        assert_eq!(counter(&telemetry, "trace_store.invalidate"), 1);
        assert_eq!(counter(&telemetry, "trace_store.write"), 1);
        assert_eq!(std::fs::read(&path).unwrap(), pristine);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Footer entries whose `len` or `events` lie, under a recomputed
    /// footer [`checksum`], so only the bounds and cross checks stand between
    /// the lie and replay. Some lies are compensated (a neighbour's `len`,
    /// the trailer's total) so that the later checks must catch them.
    #[test]
    fn lying_footer_entries_are_rejected() {
        let (dir, store, w, pristine) = damage_fixture("footer-lies");
        let n = pristine.len();
        let word =
            |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let frames = word(&pristine, n - 16) as usize;
        let footer = n - TRAILER_LEN as usize - frames * FOOTER_ENTRY_LEN as usize;
        let entry = |i: usize| footer + i * FOOTER_ENTRY_LEN as usize;
        // Sets the words at `edits` (absolute offsets), then re-signs the
        // footer.
        let lie = |edits: &[(usize, u64)]| {
            let mut bytes = pristine.clone();
            for &(at, value) in edits {
                bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
            let signed = checksum(&bytes[footer..n - TRAILER_LEN as usize]);
            bytes[n - 8..].copy_from_slice(&signed.to_le_bytes());
            bytes
        };
        let total_at = n - TRAILER_LEN as usize;
        let total = word(&pristine, total_at);
        let mut case = 0usize;
        for i in 0..frames {
            let (len_at, events_at) = (entry(i), entry(i) + 8);
            let len = word(&pristine, len_at);
            let events = word(&pristine, events_at);
            let mut cases: Vec<(String, Vec<(usize, u64)>)> = Vec::new();
            for bad in [len + 1, len - 1, 0, n as u64, u64::MAX, u64::MAX - len + 1] {
                cases.push((format!("len {bad}"), vec![(len_at, bad)]));
            }
            for bad in [events + 1, events - 1, 0, u64::MAX] {
                cases.push((format!("events {bad}"), vec![(events_at, bad)]));
                // The trailer agrees with the lie, wrapping as it must.
                let agreed = total.wrapping_sub(events).wrapping_add(bad);
                cases.push((
                    format!("events {bad}, trailer total {agreed}"),
                    vec![(events_at, bad), (total_at, agreed)],
                ));
            }
            // A sum that saturates would agree with this trailer.
            cases.push((
                "events and trailer total at u64::MAX".into(),
                vec![(events_at, u64::MAX), (total_at, u64::MAX)],
            ));
            if i + 1 < frames {
                let next = entry(i + 1);
                let next_len = word(&pristine, next);
                cases.push((
                    "len moved to the next frame".into(),
                    vec![(len_at, len + 1), (next, next_len - 1)],
                ));
                cases.push((
                    "len taken from the next frame".into(),
                    vec![(len_at, len - 1), (next, next_len + 1)],
                ));
            }
            for (what, edits) in cases {
                case += 1;
                let what = format!("frame {i} of {frames}: {what}");
                let reason =
                    assert_rejected(&store, w, &lie(&edits), case.is_multiple_of(41), &what);
                assert_ne!(reason, "footer checksum mismatch", "{what}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
