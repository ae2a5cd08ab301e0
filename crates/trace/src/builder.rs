//! The [`TraceBuilder`]: the workloads' interface for emitting traces.

use crate::addr::{Addr, BlockId, Pc};
use crate::event::{BranchRecord, Dependence, MemAccess, MemKind, TraceEvent};
use crate::{FrameEncoder, PackedTrace, Trace};
use std::error::Error;
use std::fmt;

/// Errors detected while building a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// `begin_block` while a block is already open. The paper only annotates
    /// *innermost* tight loops, so blocks never nest (§IV-A).
    NestedBlock {
        /// The block that is already open.
        open: BlockId,
        /// The block that was attempted to be opened.
        attempted: BlockId,
    },
    /// `end_block(id)` without a matching open block.
    UnmatchedEnd {
        /// The id passed to `end_block`.
        id: BlockId,
    },
    /// `end_block(id)` while a *different* block is open.
    MismatchedEnd {
        /// The currently open block.
        open: BlockId,
        /// The id passed to `end_block`.
        attempted: BlockId,
    },
    /// `finish` while a block is still open.
    UnclosedBlock {
        /// The block left open.
        open: BlockId,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NestedBlock { open, attempted } => {
                write!(
                    f,
                    "cannot open {attempted} while {open} is open: blocks do not nest"
                )
            }
            BuildError::UnmatchedEnd { id } => {
                write!(f, "end of {id} without a matching begin")
            }
            BuildError::MismatchedEnd { open, attempted } => {
                write!(f, "end of {attempted} while {open} is open")
            }
            BuildError::UnclosedBlock { open } => {
                write!(f, "trace finished while {open} is still open")
            }
        }
    }
}

impl Error for BuildError {}

/// Builds a [`Trace`] while enforcing the code-block nesting discipline.
///
/// Because the paper annotates only innermost tight loops, blocks never nest;
/// the builder enforces this, returning [`BuildError`] from the checked
/// (`try_*`) methods. The unchecked convenience methods panic on violation,
/// which is the right trade-off for workload kernels whose structure is
/// static.
///
/// # Example
///
/// ```
/// use cbws_trace::{TraceBuilder, BlockId, Pc, Addr};
///
/// let mut b = TraceBuilder::new();
/// b.begin_block(BlockId(0));
/// b.load(Pc(0x10), Addr(0x1000));
/// b.store(Pc(0x14), Addr(0x2000));
/// b.end_block(BlockId(0));
/// let trace = b.finish();
/// assert_eq!(trace.len(), 4);
/// ```
#[derive(Default)]
pub struct TraceBuilder {
    /// Every emitted event, in memory mode.
    events: Vec<TraceEvent>,
    open: Option<BlockId>,
    /// Streaming mode's encoder and sink; `None` keeps every event in
    /// `events`.
    stream: Option<Stream>,
}

/// Streaming-mode state: events go straight into the open frame's
/// encoder, and each full frame goes to the sink.
struct Stream {
    encoder: FrameEncoder,
    frame_events: usize,
    sink: Box<dyn FnMut(PackedTrace) + Send>,
    /// Events in frames already handed to the sink.
    flushed: u64,
}

impl Stream {
    fn flush(&mut self) {
        let frame = self.encoder.finish();
        self.flushed += frame.event_count() as u64;
        (self.sink)(frame);
    }
}

impl fmt::Debug for TraceBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("TraceBuilder");
        d.field("len", &self.len()).field("open", &self.open);
        if let Some(s) = &self.stream {
            d.field("frame_events", &s.frame_events);
        }
        d.finish()
    }
}

impl TraceBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        TraceBuilder {
            events: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Creates a builder in **streaming mode**: every event is encoded into
    /// a [`FrameEncoder`] as it is emitted, and each time the open frame
    /// reaches `frame_events` events it is finished and handed to `sink`
    /// as a [`PackedTrace`]. The builder's footprint is the encoder's byte
    /// lanes — about one packed frame — whatever the trace length. Block
    /// brackets may span frame boundaries — the discipline is still
    /// enforced over the whole event stream. Finish with
    /// [`TraceBuilder::try_finish_stream`] (the in-memory finishers panic).
    ///
    /// ```
    /// use cbws_trace::{Addr, BlockId, PackedTrace, Pc, TraceBuilder};
    /// use std::sync::{Arc, Mutex};
    ///
    /// let frames = Arc::new(Mutex::new(Vec::<PackedTrace>::new()));
    /// let sink = Arc::clone(&frames);
    /// let mut b = TraceBuilder::streaming(3, move |f| sink.lock().unwrap().push(f));
    /// b.annotated_loop(BlockId(0), 2, |b, i| b.load(Pc(0x10), Addr(64 * i)));
    /// assert_eq!(b.try_finish_stream().unwrap(), 8);
    /// let sizes: Vec<usize> = frames.lock().unwrap().iter().map(|f| f.event_count()).collect();
    /// assert_eq!(sizes, [3, 3, 2]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `frame_events` is zero.
    pub fn streaming(frame_events: usize, sink: impl FnMut(PackedTrace) + Send + 'static) -> Self {
        assert!(frame_events > 0, "streaming frame size must be non-zero");
        TraceBuilder {
            events: Vec::new(),
            open: None,
            stream: Some(Stream {
                encoder: FrameEncoder::new(),
                frame_events,
                sink: Box::new(sink),
                flushed: 0,
            }),
        }
    }

    #[inline]
    fn push(&mut self, e: TraceEvent) {
        match &mut self.stream {
            None => self.events.push(e),
            Some(s) => {
                s.encoder.push(e);
                if s.encoder.len() == s.frame_events {
                    s.flush();
                }
            }
        }
    }

    /// Opens code block `id`.
    ///
    /// # Errors
    ///
    /// [`BuildError::NestedBlock`] if a block is already open.
    pub fn try_begin_block(&mut self, id: BlockId) -> Result<(), BuildError> {
        if let Some(open) = self.open {
            return Err(BuildError::NestedBlock {
                open,
                attempted: id,
            });
        }
        self.open = Some(id);
        self.push(TraceEvent::BlockBegin { id });
        Ok(())
    }

    /// Closes code block `id`.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnmatchedEnd`] if no block is open, or
    /// [`BuildError::MismatchedEnd`] if a different block is open.
    pub fn try_end_block(&mut self, id: BlockId) -> Result<(), BuildError> {
        match self.open {
            None => Err(BuildError::UnmatchedEnd { id }),
            Some(open) if open != id => Err(BuildError::MismatchedEnd {
                open,
                attempted: id,
            }),
            Some(_) => {
                self.open = None;
                self.push(TraceEvent::BlockEnd { id });
                Ok(())
            }
        }
    }

    /// Opens code block `id`.
    ///
    /// # Panics
    ///
    /// Panics if a block is already open (see [`TraceBuilder::try_begin_block`]).
    pub fn begin_block(&mut self, id: BlockId) {
        self.try_begin_block(id).expect("block nesting violation");
    }

    /// Closes code block `id`.
    ///
    /// # Panics
    ///
    /// Panics on unmatched or mismatched end (see [`TraceBuilder::try_end_block`]).
    pub fn end_block(&mut self, id: BlockId) {
        self.try_end_block(id).expect("block nesting violation");
    }

    /// Emits an independent load.
    pub fn load(&mut self, pc: Pc, addr: Addr) {
        self.mem(MemAccess::load(pc, addr));
    }

    /// Emits a load whose address depends on the previous load's data
    /// (pointer chase / data-dependent index).
    pub fn load_dep(&mut self, pc: Pc, addr: Addr) {
        self.mem(MemAccess {
            pc,
            addr,
            kind: MemKind::Load,
            dep: Dependence::PrevLoad,
        });
    }

    /// Emits an independent store.
    pub fn store(&mut self, pc: Pc, addr: Addr) {
        self.mem(MemAccess::store(pc, addr));
    }

    /// Emits an arbitrary memory access.
    pub fn mem(&mut self, access: MemAccess) {
        self.push(TraceEvent::Mem(access));
    }

    /// Emits `count` back-to-back non-memory instructions starting at `pc`.
    /// Zero-count runs are dropped.
    pub fn alu(&mut self, pc: Pc, count: u32) {
        if count > 0 {
            self.push(TraceEvent::Alu { pc, count });
        }
    }

    /// Emits a committed branch.
    pub fn branch(&mut self, pc: Pc, taken: bool) {
        self.push(TraceEvent::Branch(BranchRecord { pc, taken }));
    }

    /// Runs `body` once per iteration inside `BLOCK_BEGIN`/`BLOCK_END`
    /// brackets, emitting a loop back-branch after each iteration (taken for
    /// all but the last iteration, mirroring a real tight loop's backward
    /// branch).
    ///
    /// This is the trace-level stand-in for the paper's LLVM annotation pass:
    /// the body is the innermost loop body and `id` is its static block id.
    ///
    /// # Panics
    ///
    /// Panics if called while a block is already open, or if `body` leaves a
    /// block open (innermost loops only).
    pub fn annotated_loop<F>(&mut self, id: BlockId, iterations: u64, mut body: F)
    where
        F: FnMut(&mut TraceBuilder, u64),
    {
        // Reuse the block id to synthesize a stable back-branch PC so the
        // branch predictor can learn the loop.
        let back_branch = Pc(0xB000_0000 + u64::from(id.0) * 16);
        for i in 0..iterations {
            self.begin_block(id);
            body(self, i);
            self.end_block(id);
            self.branch(back_branch, i + 1 != iterations);
        }
    }

    /// Number of events emitted so far (including events already flushed to
    /// a streaming sink).
    pub fn len(&self) -> usize {
        match &self.stream {
            None => self.events.len(),
            Some(s) => s.flushed as usize + s.encoder.len(),
        }
    }

    /// Whether no events have been emitted yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finishes the trace.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnclosedBlock`] if a block is still open.
    ///
    /// # Panics
    ///
    /// Panics in streaming mode (flushed events are gone; use
    /// [`TraceBuilder::try_finish_stream`]).
    pub fn try_finish(self) -> Result<Trace, BuildError> {
        assert!(
            self.stream.is_none(),
            "streaming builders finish with try_finish_stream"
        );
        if let Some(open) = self.open {
            return Err(BuildError::UnclosedBlock { open });
        }
        Ok(Trace::from_events(self.events))
    }

    /// Finishes a **streaming** build: enforces the block discipline, hands
    /// the final partial frame to the sink (an empty one is not sent), and
    /// returns the total number of events emitted.
    ///
    /// # Errors
    ///
    /// [`BuildError::UnclosedBlock`] if a block is still open.
    ///
    /// # Panics
    ///
    /// Panics if the builder is not in streaming mode.
    pub fn try_finish_stream(self) -> Result<u64, BuildError> {
        let mut stream = self
            .stream
            .expect("try_finish_stream requires a streaming builder");
        if let Some(open) = self.open {
            return Err(BuildError::UnclosedBlock { open });
        }
        if !stream.encoder.is_empty() {
            stream.flush();
        }
        Ok(stream.flushed)
    }

    /// Finishes the trace.
    ///
    /// # Panics
    ///
    /// Panics if a block is still open (see [`TraceBuilder::try_finish`]).
    pub fn finish(self) -> Trace {
        self.try_finish().expect("block left open at end of trace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_blocks_rejected() {
        let mut b = TraceBuilder::new();
        b.begin_block(BlockId(0));
        let err = b.try_begin_block(BlockId(1)).unwrap_err();
        assert_eq!(
            err,
            BuildError::NestedBlock {
                open: BlockId(0),
                attempted: BlockId(1)
            }
        );
    }

    #[test]
    fn unmatched_end_rejected() {
        let mut b = TraceBuilder::new();
        let err = b.try_end_block(BlockId(0)).unwrap_err();
        assert_eq!(err, BuildError::UnmatchedEnd { id: BlockId(0) });
    }

    #[test]
    fn mismatched_end_rejected() {
        let mut b = TraceBuilder::new();
        b.begin_block(BlockId(0));
        let err = b.try_end_block(BlockId(1)).unwrap_err();
        assert_eq!(
            err,
            BuildError::MismatchedEnd {
                open: BlockId(0),
                attempted: BlockId(1)
            }
        );
    }

    #[test]
    fn unclosed_block_rejected_at_finish() {
        let mut b = TraceBuilder::new();
        b.begin_block(BlockId(2));
        let err = b.try_finish().unwrap_err();
        assert_eq!(err, BuildError::UnclosedBlock { open: BlockId(2) });
    }

    #[test]
    fn zero_count_alu_dropped() {
        let mut b = TraceBuilder::new();
        b.alu(Pc(0), 0);
        assert!(b.is_empty());
        b.alu(Pc(0), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn annotated_loop_emits_brackets_and_back_branch() {
        let mut b = TraceBuilder::new();
        b.annotated_loop(BlockId(7), 3, |b, i| {
            b.load(Pc(0x100), Addr(i * 64));
        });
        let trace = b.finish();
        // Per iteration: begin, load, end, branch = 4 events.
        assert_eq!(trace.len(), 12);
        let branches: Vec<bool> = trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Branch(br) => Some(br.taken),
                _ => None,
            })
            .collect();
        assert_eq!(branches, vec![true, true, false]);
    }

    #[test]
    fn annotated_loop_block_ids_match() {
        let mut b = TraceBuilder::new();
        b.annotated_loop(BlockId(3), 2, |b, _| b.alu(Pc(0), 1));
        let trace = b.finish();
        let mut begins = 0;
        let mut ends = 0;
        for e in &trace {
            match e {
                TraceEvent::BlockBegin { id } => {
                    assert_eq!(*id, BlockId(3));
                    begins += 1;
                }
                TraceEvent::BlockEnd { id } => {
                    assert_eq!(*id, BlockId(3));
                    ends += 1;
                }
                _ => {}
            }
        }
        assert_eq!((begins, ends), (2, 2));
    }

    #[test]
    fn load_dep_marks_dependence() {
        let mut b = TraceBuilder::new();
        b.load_dep(Pc(0), Addr(64));
        let trace = b.finish();
        match trace.events()[0] {
            TraceEvent::Mem(m) => assert_eq!(m.dep, Dependence::PrevLoad),
            _ => panic!("expected mem event"),
        }
    }

    #[test]
    fn streaming_frames_are_exact_and_ordered() {
        use std::sync::{Arc, Mutex};
        let frames: Arc<Mutex<Vec<PackedTrace>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_frames = frames.clone();
        let mut b = TraceBuilder::streaming(4, move |f| sink_frames.lock().unwrap().push(f));
        let body = |b: &mut TraceBuilder, i: u64| {
            b.load(Pc(0x10), Addr(i * 64));
            b.alu(Pc(0x14), 1);
        };
        b.annotated_loop(BlockId(1), 5, body);
        // 5 iterations x 5 events (begin, load, alu, end, branch) = 25.
        assert_eq!(b.len(), 25);
        let total = b.try_finish_stream().unwrap();
        assert_eq!(total, 25);
        let frames = frames.lock().unwrap();
        let sizes: Vec<usize> = frames.iter().map(|f| f.event_count()).collect();
        assert_eq!(sizes, [4, 4, 4, 4, 4, 4, 1]);
        // The decoded concatenation equals the same build done in memory,
        // and each frame is exactly the packing of its slice.
        let mut whole = TraceBuilder::new();
        whole.annotated_loop(BlockId(1), 5, body);
        let whole = whole.finish();
        let streamed: Vec<TraceEvent> = frames
            .iter()
            .flat_map(|f| f.to_trace().events().to_vec())
            .collect();
        assert_eq!(streamed, whole.events());
        for (frame, slice) in frames.iter().zip(whole.events().chunks(4)) {
            assert_eq!(*frame, PackedTrace::from_events(slice));
        }
    }

    #[test]
    fn streaming_enforces_block_discipline_across_frames() {
        let mut b = TraceBuilder::streaming(1, |_| {});
        b.begin_block(BlockId(3));
        b.load(Pc(0), Addr(0));
        let err = b.try_finish_stream().unwrap_err();
        assert_eq!(err, BuildError::UnclosedBlock { open: BlockId(3) });
    }

    #[test]
    fn empty_streaming_build_flushes_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicUsize::new(0));
        let sink_calls = calls.clone();
        let b = TraceBuilder::streaming(8, move |_| {
            sink_calls.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(b.try_finish_stream().unwrap(), 0);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn build_error_display() {
        let e = BuildError::NestedBlock {
            open: BlockId(0),
            attempted: BlockId(1),
        };
        assert!(e.to_string().contains("blk0"));
    }
}
