//! Columnar (structure-of-arrays) trace encoding and the sequential cursor
//! API the replay hot loops consume.
//!
//! [`crate::Trace`] stores events as a `Vec<TraceEvent>` — an
//! array-of-structs of a padded enum, ~32 bytes per event regardless of
//! variant. The replay loop touches every byte of that layout even though an
//! ALU event needs 13 bytes of information and a block marker 5. A
//! [`PackedTrace`] stores the same event stream as parallel columns inside
//! one contiguous little-endian byte buffer:
//!
//! | column       | element | one entry per            |
//! |--------------|---------|--------------------------|
//! | `tags`       | `u8`    | event (variant + flag bits) |
//! | `pcs`        | zigzag varint | PC-bearing event (ALU/mem/branch; delta vs the previous PC of the same variant) |
//! | `addr_deltas`| zigzag varint | memory access (byte-address delta vs the previous access) |
//! | `alu_counts` | varint  | ALU event                |
//! | `block_ids`  | varint  | block begin/end marker   |
//!
//! Operand lanes are LEB128 varints (see [`crate::varint`]); the count
//! header records each lane's byte length next to its entry count so the
//! column offsets never require scanning. Memory addresses are stored as
//! zigzag-folded deltas against the previous access, and PCs as deltas
//! against the previous PC of the *same variant* — loop bodies re-issue
//! the same ALU/mem/branch PCs every iteration, so per-variant deltas
//! stay tiny even though the combined PC stream ping-pongs between body
//! PCs and distant loop back-edges. Nearly every entry is then one byte
//! and the batch decoder's 8-wide fast path carries the lane. Conversion
//! [`Trace`] ⇄ [`PackedTrace`] is lossless (property-tested in
//! `tests/packed_properties.rs`).
//!
//! # Frames
//!
//! A [`FramedTrace`] is a sequence of such payloads — **frames**, each
//! decodable on its own because the delta predictors reset at every frame
//! boundary — described by a table of [`FrameEntry`]s (offset, length,
//! event count, [`checksum`]). This is the on-disk layout of the
//! persistent trace store (`cbws-workloads::trace_store`). Where the frame
//! bytes come from is the trace's only variable:
//!
//! * **resident** — one buffer holding every frame at its table offset: a
//!   memory-mapped store file (frames replay as zero-copy views of it) or
//!   the same layout in heap memory;
//! * **read-ahead** — the file itself, read frame by frame by a background
//!   thread that fetches frame N+1 while frame N decodes, so replay memory
//!   is a few frames regardless of trace length. Each frame's checksum is
//!   re-verified as it arrives.
//!
//! A lone [`PackedTrace`] replays as a trace of one resident frame.
//!
//! # The cursor
//!
//! Every packed replay goes through the one [`FrameCursor`] (usually via
//! the [`EventSource`] trait, which `Core::run` and the analysis passes
//! are generic over); [`SliceCursor`] over an AoS [`Trace`] is the oracle
//! it is tested against. The cursor refills in 256-event batches: one
//! pass over the tag chunk counts each lane's contribution, then every
//! operand lane is batch-decoded ([`crate::varint::decode_batch`]) into a
//! flat `u64` scratch column, and events are emitted from those columns —
//! the hot loop never decodes varints one event at a time. When a frame
//! runs dry the cursor starts the next one, whichever source its bytes
//! come from.

use crate::addr::{Addr, BlockId, Pc};
use crate::event::{BranchRecord, Dependence, MemAccess, MemKind, TraceEvent};
use crate::varint;
use crate::{Trace, TraceStats};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

/// A decoded event as yielded by an [`EventCursor`].
///
/// Every field of [`TraceEvent`] is `Copy`, so the decoded view is the event
/// itself, built in registers from the packed columns; the alias exists so
/// cursor consumers are insulated from the storage representation.
pub type EventRef = TraceEvent;

/// Anything the simulator can replay: an ordered event stream with a
/// sequential cursor.
///
/// Implemented by [`Trace`] (slice iteration over the materialized events)
/// and by [`PackedTrace`] and [`FramedTrace`] (on-the-fly decode from the
/// packed columns through the one [`FrameCursor`]), so the replay and
/// analysis loops are written once and monomorphized per representation.
pub trait EventSource {
    /// The sequential iterator over decoded events.
    type Cursor<'a>: EventCursor + 'a
    where
        Self: 'a;

    /// A cursor positioned at the first event.
    fn cursor(&self) -> Self::Cursor<'_>;

    /// Number of events (not instructions) in the stream.
    fn event_count(&self) -> usize;
}

/// A sequential event stream that can also hand out contiguous runs of
/// decoded events.
///
/// The replay loop consumes [`next_batch`](EventCursor::next_batch) so its
/// inner loop is plain slice iteration regardless of representation —
/// [`Trace`] returns its whole event slice in one chunk, a [`FrameCursor`]
/// returns each decode batch. Analysis passes that want one event at a
/// time keep using the [`Iterator`] interface.
pub trait EventCursor: Iterator<Item = EventRef> {
    /// The next contiguous run of decoded events, or `None` once the
    /// stream (including any events not yet taken via [`Iterator::next`])
    /// is exhausted.
    fn next_batch(&mut self) -> Option<&[EventRef]>;
}

impl EventSource for Trace {
    type Cursor<'a> = SliceCursor<'a>;

    fn cursor(&self) -> Self::Cursor<'_> {
        SliceCursor {
            rest: self.events(),
        }
    }

    fn event_count(&self) -> usize {
        self.len()
    }
}

/// Cursor over a materialized [`Trace`]: slice iteration, with the whole
/// remaining slice as a single chunk.
#[derive(Debug, Clone)]
pub struct SliceCursor<'a> {
    rest: &'a [TraceEvent],
}

impl Iterator for SliceCursor<'_> {
    type Item = EventRef;

    #[inline]
    fn next(&mut self) -> Option<EventRef> {
        let (&e, rest) = self.rest.split_first()?;
        self.rest = rest;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.rest.len(), Some(self.rest.len()))
    }
}

impl ExactSizeIterator for SliceCursor<'_> {}

impl EventCursor for SliceCursor<'_> {
    #[inline]
    fn next_batch(&mut self) -> Option<&[EventRef]> {
        if self.rest.is_empty() {
            None
        } else {
            Some(std::mem::take(&mut self.rest))
        }
    }
}

impl EventSource for PackedTrace {
    type Cursor<'a> = FrameCursor<'a>;

    fn cursor(&self) -> Self::Cursor<'_> {
        PackedTrace::cursor(self)
    }

    fn event_count(&self) -> usize {
        self.event_count()
    }
}

/// A shared handle replays as what it points to, so the trace store's
/// `Arc<FramedTrace>` handles go straight into `Simulator::run`.
impl<T: EventSource + ?Sized> EventSource for Arc<T> {
    type Cursor<'a>
        = T::Cursor<'a>
    where
        Self: 'a;

    fn cursor(&self) -> Self::Cursor<'_> {
        (**self).cursor()
    }

    fn event_count(&self) -> usize {
        (**self).event_count()
    }
}

// Tag byte: bits 0..=2 select the variant, bits 3..=5 are per-variant
// flags, bits 6..=7 must be zero.
const VARIANT_MASK: u8 = 0b0000_0111;
pub(crate) const TAG_BLOCK_BEGIN: u8 = 0;
pub(crate) const TAG_BLOCK_END: u8 = 1;
pub(crate) const TAG_ALU: u8 = 2;
pub(crate) const TAG_MEM: u8 = 3;
pub(crate) const TAG_BRANCH: u8 = 4;
pub(crate) const FLAG_STORE: u8 = 1 << 3; // mem only
pub(crate) const FLAG_DEP_PREV_LOAD: u8 = 1 << 4; // mem only
pub(crate) const FLAG_TAKEN: u8 = 1 << 5; // branch only

/// Bytes of the payload's count header: nine little-endian `u64`s — five
/// entry counts (events, PC entries, memory accesses, ALU events, block
/// markers) followed by the byte lengths of the four varint operand lanes
/// (pcs, addr_deltas, alu_counts, block_ids).
const HEADER_BYTES: usize = 9 * 8;
const HEADER_WORDS: usize = HEADER_BYTES / 8;

/// Why a byte buffer failed to parse as a packed-trace payload.
///
/// Parsing never panics: a corrupt or truncated buffer yields an error the
/// trace store turns into a regenerate-and-rewrite fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackedError {
    /// The buffer is shorter than the declared columns require.
    Truncated {
        /// Bytes the count header promised.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A tag byte has an unknown variant or an illegal flag bit.
    BadTag {
        /// Event index of the offending tag.
        index: usize,
        /// The raw tag byte.
        tag: u8,
    },
    /// The per-column counts disagree with the tag stream or with the
    /// entries actually present in a varint lane.
    CountMismatch {
        /// Which column disagreed.
        column: &'static str,
        /// Count declared in the header.
        declared: u64,
        /// Count derived from the tags (or counted in the lane).
        derived: u64,
    },
    /// A varint operand lane is malformed: it ends inside an entry
    /// (dangling continuation bit) or an entry exceeds
    /// [`varint::MAX_LEN`] bytes.
    MalformedLane {
        /// Which lane is malformed.
        column: &'static str,
    },
}

impl fmt::Display for PackedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackedError::Truncated { expected, actual } => {
                write!(f, "payload truncated: need {expected} bytes, have {actual}")
            }
            PackedError::BadTag { index, tag } => {
                write!(f, "invalid tag byte {tag:#04x} at event {index}")
            }
            PackedError::CountMismatch {
                column,
                declared,
                derived,
            } => write!(
                f,
                "column `{column}` declares {declared} entries but the payload implies {derived}"
            ),
            PackedError::MalformedLane { column } => {
                write!(f, "varint lane `{column}` is malformed")
            }
        }
    }
}

impl Error for PackedError {}

/// Byte offsets of each column within a payload, derived from the header:
/// entry counts plus the byte length of each varint lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Layout {
    n_events: usize,
    n_pcs: usize,
    n_mems: usize,
    n_alus: usize,
    n_blocks: usize,
    tags: usize,
    pcs: usize,
    addr_deltas: usize,
    alu_counts: usize,
    block_ids: usize,
    total: usize,
}

impl Layout {
    /// Offsets from the nine header words: `[n_events, n_pcs, n_mems,
    /// n_alus, n_blocks, pcs_bytes, deltas_bytes, alus_bytes,
    /// blocks_bytes]`.
    fn from_header(h: [usize; HEADER_WORDS]) -> Layout {
        let [n_events, n_pcs, n_mems, n_alus, n_blocks, pcs_b, deltas_b, alus_b, blocks_b] = h;
        let tags = HEADER_BYTES;
        let pcs = tags + n_events;
        let addr_deltas = pcs + pcs_b;
        let alu_counts = addr_deltas + deltas_b;
        let block_ids = alu_counts + alus_b;
        let total = block_ids + blocks_b;
        Layout {
            n_events,
            n_pcs,
            n_mems,
            n_alus,
            n_blocks,
            tags,
            pcs,
            addr_deltas,
            alu_counts,
            block_ids,
            total,
        }
    }

    /// Reads the count header of `bytes` and checks that the columns it
    /// declares fill the buffer exactly. The tags and lanes themselves are
    /// not inspected — see [`PackedTrace::validate`].
    fn parse(bytes: &[u8]) -> Result<Layout, PackedError> {
        if bytes.len() < HEADER_BYTES {
            return Err(PackedError::Truncated {
                expected: HEADER_BYTES,
                actual: bytes.len(),
            });
        }
        let mut header = [0usize; HEADER_WORDS];
        for (i, slot) in header.iter_mut().enumerate() {
            *slot = usize::try_from(u64_at(bytes, i)).map_err(|_| PackedError::Truncated {
                expected: usize::MAX,
                actual: bytes.len(),
            })?;
        }
        // Guard the offset arithmetic against overflow on absurd counts:
        // the tag lane is one byte per event, the operand lanes contribute
        // their declared byte lengths directly.
        let promised = header[0]
            .checked_add(header[5])
            .and_then(|n| n.checked_add(header[6]))
            .and_then(|n| n.checked_add(header[7]))
            .and_then(|n| n.checked_add(header[8]))
            .and_then(|n| n.checked_add(HEADER_BYTES))
            .unwrap_or(usize::MAX);
        if promised != bytes.len() {
            return Err(PackedError::Truncated {
                expected: promised,
                actual: bytes.len(),
            });
        }
        Ok(Layout::from_header(header))
    }
}

#[inline]
fn u64_at(col: &[u8], idx: usize) -> u64 {
    u64::from_le_bytes(col[idx * 8..idx * 8 + 8].try_into().unwrap())
}

/// Encodes events into [`PackedTrace`] frames one event at a time, so a
/// writer can push each event as the kernel emits it instead of buffering
/// the frame as [`TraceEvent`]s first.
///
/// The encoder owns one growable byte lane per column. [`FrameEncoder::finish`]
/// copies them into the frame's payload and empties them, keeping their
/// capacity for the next frame, and restarts the delta predictors, so every
/// frame decodes on its own.
///
/// ```
/// use cbws_trace::{FrameEncoder, PackedTrace, Pc, TraceEvent};
///
/// let events = [TraceEvent::Alu { pc: Pc(0x400), count: 3 }; 5];
/// let mut encoder = FrameEncoder::new();
/// for &e in &events {
///     encoder.push(e);
/// }
/// assert_eq!(encoder.len(), 5);
/// assert_eq!(encoder.finish(), PackedTrace::from_events(&events));
/// assert!(encoder.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct FrameEncoder {
    tags: Vec<u8>,
    pcs: Vec<u8>,
    deltas: Vec<u8>,
    alus: Vec<u8>,
    blocks: Vec<u8>,
    n_pcs: usize,
    n_mems: usize,
    n_alus: usize,
    n_blocks: usize,
    prev_addr: u64,
    /// One PC predictor per variant (ALU / mem / branch): see the module
    /// docs for why per-variant deltas stay short.
    prev_pc: [u64; 3],
}

impl FrameEncoder {
    /// An encoder with an empty open frame.
    pub fn new() -> FrameEncoder {
        FrameEncoder::default()
    }

    /// Events pushed since the last [`FrameEncoder::finish`].
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether no event has been pushed since the last finish.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    #[inline]
    fn push_pc(&mut self, slot: usize, pc: Pc) {
        self.n_pcs += 1;
        let delta = pc.0.wrapping_sub(self.prev_pc[slot]) as i64;
        self.prev_pc[slot] = pc.0;
        varint::encode(varint::zigzag(delta), &mut self.pcs);
    }

    /// Appends one event to the open frame.
    #[inline]
    pub fn push(&mut self, e: TraceEvent) {
        let tag = match e {
            TraceEvent::BlockBegin { id } => {
                self.n_blocks += 1;
                varint::encode(u64::from(id.0), &mut self.blocks);
                TAG_BLOCK_BEGIN
            }
            TraceEvent::BlockEnd { id } => {
                self.n_blocks += 1;
                varint::encode(u64::from(id.0), &mut self.blocks);
                TAG_BLOCK_END
            }
            TraceEvent::Alu { pc, count } => {
                self.push_pc(0, pc);
                self.n_alus += 1;
                varint::encode(u64::from(count), &mut self.alus);
                TAG_ALU
            }
            TraceEvent::Mem(m) => {
                self.push_pc(1, m.pc);
                self.n_mems += 1;
                let delta = m.addr.0.wrapping_sub(self.prev_addr) as i64;
                self.prev_addr = m.addr.0;
                varint::encode(varint::zigzag(delta), &mut self.deltas);
                let mut t = TAG_MEM;
                if m.kind.is_store() {
                    t |= FLAG_STORE;
                }
                if m.dep == Dependence::PrevLoad {
                    t |= FLAG_DEP_PREV_LOAD;
                }
                t
            }
            TraceEvent::Branch(br) => {
                self.push_pc(2, br.pc);
                if br.taken {
                    TAG_BRANCH | FLAG_TAKEN
                } else {
                    TAG_BRANCH
                }
            }
        };
        self.tags.push(tag);
    }

    /// Packs the open frame into a [`PackedTrace`] and starts the next one:
    /// lanes emptied (capacity kept), counts and predictors reset.
    pub fn finish(&mut self) -> PackedTrace {
        let counts = [
            self.tags.len(),
            self.n_pcs,
            self.n_mems,
            self.n_alus,
            self.n_blocks,
            self.pcs.len(),
            self.deltas.len(),
            self.alus.len(),
            self.blocks.len(),
        ];
        let layout = Layout::from_header(counts);
        let mut buf = Vec::with_capacity(layout.total);
        for n in counts {
            buf.extend_from_slice(&(n as u64).to_le_bytes());
        }
        for lane in [
            &mut self.tags,
            &mut self.pcs,
            &mut self.deltas,
            &mut self.alus,
            &mut self.blocks,
        ] {
            buf.extend_from_slice(lane);
            lane.clear();
        }
        debug_assert_eq!(buf.len(), layout.total);
        (self.n_pcs, self.n_mems, self.n_alus, self.n_blocks) = (0, 0, 0, 0);
        self.prev_addr = 0;
        self.prev_pc = [0; 3];
        PackedTrace {
            payload: buf.into_boxed_slice(),
            layout,
        }
    }
}

/// The columnar trace. See the module docs for the layout.
///
/// ```
/// use cbws_trace::{Addr, BlockId, PackedTrace, Pc, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// b.annotated_loop(BlockId(0), 4, |b, i| {
///     b.load(Pc(0x400), Addr(0x1000 + 64 * i));
///     b.alu(Pc(0x404), 2);
/// });
/// let trace = b.finish();
/// let packed = PackedTrace::from_trace(&trace);
/// assert_eq!(packed.event_count(), trace.len());
/// assert_eq!(packed.to_trace(), trace);
/// ```
pub struct PackedTrace {
    payload: Box<[u8]>,
    layout: Layout,
}

impl fmt::Debug for PackedTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PackedTrace")
            .field("events", &self.layout.n_events)
            .field("bytes", &self.payload.len())
            .finish()
    }
}

impl PackedTrace {
    /// Packs a materialized trace into columns, varint-encoding each
    /// operand lane.
    pub fn from_trace(trace: &Trace) -> PackedTrace {
        PackedTrace::from_events(trace.events())
    }

    /// Packs a run of events through one [`FrameEncoder`] frame.
    pub fn from_events(events: &[TraceEvent]) -> PackedTrace {
        let mut encoder = FrameEncoder::new();
        for &e in events {
            encoder.push(e);
        }
        encoder.finish()
    }

    /// Parses an owned payload buffer, validating the count header, every
    /// tag byte and every operand lane. Never panics on corrupt input.
    pub fn from_payload(bytes: Box<[u8]>) -> Result<PackedTrace, PackedError> {
        let layout = Self::validate(&bytes)?;
        Ok(PackedTrace {
            payload: bytes,
            layout,
        })
    }

    /// Validates a payload and derives its column layout.
    fn validate(bytes: &[u8]) -> Result<Layout, PackedError> {
        let layout = Layout::parse(bytes)?;
        // The tag stream must be internally valid and agree with the counts,
        // so every later cursor walk is in bounds by construction.
        let mut derived = [0u64; 4]; // pcs, mems, alus, blocks
        for (i, &tag) in bytes[layout.tags..layout.tags + layout.n_events]
            .iter()
            .enumerate()
        {
            let allowed_flags = match tag & VARIANT_MASK {
                TAG_BLOCK_BEGIN | TAG_BLOCK_END => {
                    derived[3] += 1;
                    0
                }
                TAG_ALU => {
                    derived[0] += 1;
                    derived[2] += 1;
                    0
                }
                TAG_MEM => {
                    derived[0] += 1;
                    derived[1] += 1;
                    FLAG_STORE | FLAG_DEP_PREV_LOAD
                }
                TAG_BRANCH => {
                    derived[0] += 1;
                    FLAG_TAKEN
                }
                _ => return Err(PackedError::BadTag { index: i, tag }),
            };
            if tag & !(VARIANT_MASK | allowed_flags) != 0 {
                return Err(PackedError::BadTag { index: i, tag });
            }
        }
        for (column, declared, derived) in [
            ("pcs", layout.n_pcs as u64, derived[0]),
            ("addr_deltas", layout.n_mems as u64, derived[1]),
            ("alu_counts", layout.n_alus as u64, derived[2]),
            ("block_ids", layout.n_blocks as u64, derived[3]),
        ] {
            if declared != derived {
                return Err(PackedError::CountMismatch {
                    column,
                    declared,
                    derived,
                });
            }
        }
        // Each varint lane must be well-formed (no dangling continuation
        // byte, no over-long entry) and hold exactly as many entries as
        // the tags demand, so batch decoding never runs out of bytes.
        for (column, range, declared) in [
            ("pcs", layout.pcs..layout.addr_deltas, layout.n_pcs),
            (
                "addr_deltas",
                layout.addr_deltas..layout.alu_counts,
                layout.n_mems,
            ),
            (
                "alu_counts",
                layout.alu_counts..layout.block_ids,
                layout.n_alus,
            ),
            ("block_ids", layout.block_ids..layout.total, layout.n_blocks),
        ] {
            match varint::count_entries(&bytes[range]) {
                None => return Err(PackedError::MalformedLane { column }),
                Some(n) if n != declared => {
                    return Err(PackedError::CountMismatch {
                        column,
                        declared: declared as u64,
                        derived: n as u64,
                    })
                }
                Some(_) => {}
            }
        }
        Ok(layout)
    }

    /// The complete payload buffer (count header + columns), which is the
    /// byte-exact on-disk payload of the trace store.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// The named columns (including the count header), in payload order —
    /// the unit the trace store checksums individually.
    pub fn columns(&self) -> [(&'static str, &[u8]); 6] {
        let p = &self.payload;
        let l = &self.layout;
        [
            ("counts", &p[..l.tags]),
            ("tags", &p[l.tags..l.pcs]),
            ("pcs", &p[l.pcs..l.addr_deltas]),
            ("addr_deltas", &p[l.addr_deltas..l.alu_counts]),
            ("alu_counts", &p[l.alu_counts..l.block_ids]),
            ("block_ids", &p[l.block_ids..l.total]),
        ]
    }

    /// Number of events (not instructions) in the trace.
    pub fn event_count(&self) -> usize {
        self.layout.n_events
    }

    /// Whether the trace contains no events.
    pub fn is_empty(&self) -> bool {
        self.layout.n_events == 0
    }

    /// A cursor positioned at the first event: the frame cursor over this
    /// payload as a trace of one resident frame.
    pub fn cursor(&self) -> FrameCursor<'_> {
        let mut cursor = FrameCursor::new(&[], 0, CursorBytes::Resident(&self.payload));
        cursor.frame = FrameState::new(&self.layout, 0);
        cursor
    }

    /// Decodes back into a materialized [`Trace`] (lossless).
    pub fn to_trace(&self) -> Trace {
        self.cursor().collect()
    }

    /// Summary statistics, computed through the cursor without
    /// materializing the events.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_event_iter(self.cursor())
    }
}

impl PartialEq for PackedTrace {
    fn eq(&self, other: &Self) -> bool {
        self.payload == other.payload
    }
}

impl Eq for PackedTrace {}

impl From<&Trace> for PackedTrace {
    fn from(trace: &Trace) -> Self {
        PackedTrace::from_trace(trace)
    }
}

/// Events decoded per [`FrameCursor`] refill. 256 × ~32 B ≈ 8 KB of
/// decoded events plus 4 × 2 KB of scratch columns — hot in L1/L2 next to
/// the replay loop's own state.
const CURSOR_BATCH: usize = 256;

/// Flat decode targets for one refill: each operand lane lands in its own
/// `u64` column before events are assembled.
#[derive(Debug, Clone)]
struct LaneScratch {
    pcs: [u64; CURSOR_BATCH],
    deltas: [u64; CURSOR_BATCH],
    alus: [u64; CURSOR_BATCH],
    blocks: [u64; CURSOR_BATCH],
}

impl LaneScratch {
    fn new() -> LaneScratch {
        LaneScratch {
            pcs: [0; CURSOR_BATCH],
            deltas: [0; CURSOR_BATCH],
            alus: [0; CURSOR_BATCH],
            blocks: [0; CURSOR_BATCH],
        }
    }
}

/// Per-tag lane contributions for the refill tally, packed as four 16-bit
/// counters in one `u64` (pc | mem << 16 | alu << 32 | blk << 48). Summing
/// one table word per tag replaces a 4-way branch per event with a single
/// add, and a 256-tag batch can't overflow a 16-bit field.
static TAG_TALLY: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut tag = 0usize;
    while tag < 256 {
        t[tag] = match tag as u8 & VARIANT_MASK {
            TAG_ALU => 1 | 1 << 32,
            TAG_MEM => 1 | 1 << 16,
            TAG_BRANCH => 1,
            _ => 1 << 48,
        };
        tag += 1;
    }
    t
};

/// Register-resident event assembly over one decoded batch: per-lane read
/// positions plus the running resolution registers (per-variant PC
/// predictors, address accumulator).
struct Assembler<'s> {
    s: &'s LaneScratch,
    pc_i: usize,
    mem_i: usize,
    alu_i: usize,
    blk_i: usize,
    prev_addr: u64,
    prev_pc: [u64; 3],
}

impl<'s> Assembler<'s> {
    #[inline]
    fn new(s: &'s LaneScratch, prev_addr: u64, prev_pc: [u64; 3]) -> Assembler<'s> {
        Assembler {
            s,
            pc_i: 0,
            mem_i: 0,
            alu_i: 0,
            blk_i: 0,
            prev_addr,
            prev_pc,
        }
    }

    #[inline]
    fn next_pc(&mut self, slot: usize) -> Pc {
        self.prev_pc[slot] =
            self.prev_pc[slot].wrapping_add(varint::unzigzag(self.s.pcs[self.pc_i]) as u64);
        self.pc_i += 1;
        Pc(self.prev_pc[slot])
    }

    /// Builds the event for `tag` from the scratch columns, entirely in
    /// registers.
    #[inline]
    fn event(&mut self, tag: u8) -> TraceEvent {
        let s = self.s;
        match tag & VARIANT_MASK {
            TAG_ALU => {
                let e = TraceEvent::Alu {
                    pc: self.next_pc(0),
                    count: s.alus[self.alu_i] as u32,
                };
                self.alu_i += 1;
                e
            }
            TAG_MEM => {
                let pc = self.next_pc(1);
                let delta = varint::unzigzag(s.deltas[self.mem_i]);
                self.mem_i += 1;
                self.prev_addr = self.prev_addr.wrapping_add(delta as u64);
                TraceEvent::Mem(MemAccess {
                    pc,
                    addr: Addr(self.prev_addr),
                    kind: if tag & FLAG_STORE != 0 {
                        MemKind::Store
                    } else {
                        MemKind::Load
                    },
                    dep: if tag & FLAG_DEP_PREV_LOAD != 0 {
                        Dependence::PrevLoad
                    } else {
                        Dependence::None
                    },
                })
            }
            TAG_BRANCH => TraceEvent::Branch(BranchRecord {
                pc: self.next_pc(2),
                taken: tag & FLAG_TAKEN != 0,
            }),
            TAG_BLOCK_BEGIN => {
                let e = TraceEvent::BlockBegin {
                    id: BlockId(s.blocks[self.blk_i] as u32),
                };
                self.blk_i += 1;
                e
            }
            // Validation admits exactly five variants; BlockEnd is last.
            _ => {
                let e = TraceEvent::BlockEnd {
                    id: BlockId(s.blocks[self.blk_i] as u32),
                };
                self.blk_i += 1;
                e
            }
        }
    }
}

/// The integrity checksum of stored bytes: the per-frame checksum the
/// trace store records in a framed file's footer, [`FramedTrace::verify`]
/// checks, and a streamed [`FrameCursor`] re-checks while replaying; the
/// store also signs its footer with it, and the result store its payloads.
///
/// It reads 8-byte little-endian words, the last one zero-padded, and
/// chains them as `h = ((h ^ mix(w)) * K).rotate_left(31)` from a seed
/// that folds in the length, ending with `h ^ (h >> 32)`. `K` is odd, so
/// each step is a bijection of `h`, as is the final fold: two inputs of
/// one length that differ only inside one aligned word — every single-bit
/// flip among them — always check differently. `mix` (an xorshift and a
/// multiply) spreads a flipped bit over many; without it a flip of a
/// word's top bit leaves `h` differing in one bit, which one flip in the
/// next word undoes. `mix` is off the chain's dependency path, so a word
/// costs one dependent multiply where FNV-1a pays one per byte. This is a
/// check against corruption, not a key hash: the stores key with FNV-1a.
///
/// Lives here (rather than only in the stores) so the writers and the
/// readers are guaranteed to agree on the algorithm.
pub fn checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    const M: u64 = 0xbf58_476d_1ce4_e5b9;
    const SEED: u64 = 0x243f_6a88_85a3_08d3;
    let mix = |w: u64| (w ^ (w >> 32)).wrapping_mul(M);
    let step = |h: u64, w: u64| (h ^ mix(w)).wrapping_mul(K).rotate_left(31);
    let mut h = (SEED ^ bytes.len() as u64).wrapping_mul(K);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        h = step(h, u64::from_le_bytes(tail));
    }
    h ^ (h >> 32)
}

/// One frame's location and integrity record inside a framed trace
/// (trace store format v5).
///
/// A frame is a standalone [`PackedTrace`] payload covering a contiguous
/// event range, with the delta predictors reset at the frame boundary so
/// it decodes without any bytes from neighbouring frames. The store's
/// footer holds one entry per frame; offsets are absolute offsets into the
/// file (or buffer) holding the frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameEntry {
    /// Absolute offset of the frame payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Events encoded in the frame.
    pub events: u64,
    /// [`checksum`] over the payload bytes.
    pub checksum: u64,
}

impl FrameEntry {
    /// The entry for `frame`'s payload written at `offset`.
    pub fn of(frame: &PackedTrace, offset: u64) -> FrameEntry {
        FrameEntry {
            offset,
            len: frame.payload.len() as u64,
            events: frame.event_count() as u64,
            checksum: checksum(&frame.payload),
        }
    }

    fn range(&self) -> std::ops::Range<usize> {
        self.offset as usize..(self.offset + self.len) as usize
    }
}

/// Why a frame of a [`FramedTrace`] failed its check.
#[derive(Debug)]
pub enum FrameError {
    /// The frame's bytes could not be read from the file.
    Read {
        /// Index of the frame.
        frame: usize,
        /// The underlying read error.
        error: io::Error,
    },
    /// The frame lies outside the resident buffer.
    OutOfBounds {
        /// Index of the frame.
        frame: usize,
    },
    /// The payload's [`checksum`] differs from the frame table's.
    Checksum {
        /// Index of the frame.
        frame: usize,
        /// Checksum of the bytes read.
        got: u64,
        /// Checksum the frame table records.
        stored: u64,
    },
    /// The payload does not parse.
    Payload {
        /// Index of the frame.
        frame: usize,
        /// Why the parser rejected it.
        error: PackedError,
    },
    /// The payload's event count differs from the frame table's, or the
    /// table's event counts overflow a `usize` when summed up to this frame.
    EventCount {
        /// Index of the frame.
        frame: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Read { frame, error } => write!(f, "frame {frame} unreadable: {error}"),
            FrameError::OutOfBounds { frame } => {
                write!(f, "frame {frame} lies outside the trace's bytes")
            }
            FrameError::Checksum { frame, got, stored } => {
                write!(
                    f,
                    "frame {frame} checksum {got:#018x} != stored {stored:#018x}"
                )
            }
            FrameError::Payload { frame, error } => write!(f, "frame {frame} rejected: {error}"),
            FrameError::EventCount { frame } => {
                write!(
                    f,
                    "frame {frame} event count disagrees with the frame table"
                )
            }
        }
    }
}

impl Error for FrameError {}

/// Counters a streamed [`FrameCursor`] accumulates over one replay and
/// reports to its [`FramedTrace`]'s observer when it is dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames read and decoded.
    pub frames: u64,
    /// Payload bytes read off disk.
    pub bytes: u64,
    /// Frame adoptions that had to block on the read-ahead thread.
    pub stalls: u64,
    /// Total microseconds spent blocked on the read-ahead thread.
    pub stall_micros: u64,
}

/// Hook a streamed [`FramedTrace`] calls with the final [`StreamStats`] of
/// each replay, installed by the trace store to bump `trace.stream.*`
/// telemetry without this crate depending on the telemetry layer.
pub type StreamObserver = Arc<dyn Fn(StreamStats) + Send + Sync>;

/// Where a [`FramedTrace`]'s frame bytes come from.
enum ByteSource {
    /// One resident buffer holding every frame at its table offset: a
    /// memory-mapped store file (frames are zero-copy views of it) or the
    /// same layout in heap memory.
    Resident(Arc<dyn AsRef<[u8]> + Send + Sync>),
    /// The file at `path`, read frame by frame by each cursor's
    /// read-ahead thread.
    ReadAhead {
        path: PathBuf,
        observer: Option<StreamObserver>,
    },
}

/// A packed trace split into independently decodable frames: a frame
/// table plus the source of the frames' bytes.
///
/// The bytes are either resident (a mapped file or a heap buffer) or read
/// from disk during replay with bounded memory. Either way the one
/// [`FrameCursor`] runs the same batch decoder over every frame, and
/// because every frame resets the delta predictors the concatenation
/// decodes to exactly the event sequence of the unframed trace.
///
/// Construction checks only that resident frames lie inside their buffer;
/// [`verify`](FramedTrace::verify) checks every frame's checksum, payload
/// and event count, as the trace store does when it opens a file.
/// A streamed cursor re-verifies each frame's checksum as it arrives and
/// **panics** on a mismatch, since at that point the file has been modified
/// underneath a live replay — the same trust model as a mapped file
/// changing under `mmap`.
pub struct FramedTrace {
    frames: Arc<[FrameEntry]>,
    total_events: usize,
    bytes: ByteSource,
}

impl fmt::Debug for FramedTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let source = match &self.bytes {
            ByteSource::Resident(data) => format!("resident {} bytes", (**data).as_ref().len()),
            ByteSource::ReadAhead { path, .. } => format!("read-ahead {}", path.display()),
        };
        f.debug_struct("FramedTrace")
            .field("frames", &self.frames.len())
            .field("total_events", &self.total_events)
            .field("bytes", &source)
            .finish()
    }
}

impl FramedTrace {
    /// Wraps a frame table whose event counts sum to a `usize`; the first
    /// frame that overflows the sum is an [`FrameError::EventCount`].
    fn new(frames: Vec<FrameEntry>, bytes: ByteSource) -> Result<FramedTrace, FrameError> {
        let mut total_events = 0usize;
        for (frame, f) in frames.iter().enumerate() {
            total_events = usize::try_from(f.events)
                .ok()
                .and_then(|n| total_events.checked_add(n))
                .ok_or(FrameError::EventCount { frame })?;
        }
        Ok(FramedTrace {
            total_events,
            frames: frames.into(),
            bytes,
        })
    }

    /// Frames resident in `data`, each a view at its table offset.
    pub fn resident(
        data: Arc<dyn AsRef<[u8]> + Send + Sync>,
        frames: Vec<FrameEntry>,
    ) -> Result<FramedTrace, FrameError> {
        let len = (*data).as_ref().len() as u64;
        if let Some(frame) = frames
            .iter()
            .position(|f| f.offset.checked_add(f.len).is_none_or(|end| end > len))
        {
            return Err(FrameError::OutOfBounds { frame });
        }
        FramedTrace::new(frames, ByteSource::Resident(data))
    }

    /// Frames read from the file at `path` during replay, one frame
    /// resident at a time per cursor (plus the read-ahead's).
    pub fn read_ahead(path: PathBuf, frames: Vec<FrameEntry>) -> Result<FramedTrace, FrameError> {
        FramedTrace::new(
            frames,
            ByteSource::ReadAhead {
                path,
                observer: None,
            },
        )
    }

    /// Installs the per-replay stats hook of a read-ahead trace (see
    /// [`StreamObserver`]); resident traces have no stats to report.
    pub fn with_observer(mut self, hook: StreamObserver) -> FramedTrace {
        if let ByteSource::ReadAhead { observer, .. } = &mut self.bytes {
            *observer = Some(hook);
        }
        self
    }

    /// Whether replay reads the frames from disk rather than memory.
    pub fn is_streamed(&self) -> bool {
        matches!(self.bytes, ByteSource::ReadAhead { .. })
    }

    /// The frame table (one entry per frame, in event order).
    pub fn frames(&self) -> &[FrameEntry] {
        &self.frames
    }

    /// Number of events (not instructions) across all frames.
    pub fn event_count(&self) -> usize {
        self.total_events
    }

    /// Whether the trace contains no events.
    pub fn is_empty(&self) -> bool {
        self.total_events == 0
    }

    /// Payload bytes across all frames.
    pub fn payload_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.len).sum()
    }

    /// Checks every frame in order — checksum, payload parse, and event
    /// count against the frame table — reading streamed frames through
    /// the read-ahead thread, so at most a few frames are resident.
    pub fn verify(&self) -> Result<(), FrameError> {
        let check = |frame: usize, entry: &FrameEntry, bytes: &[u8]| {
            let got = checksum(bytes);
            if got != entry.checksum {
                return Err(FrameError::Checksum {
                    frame,
                    got,
                    stored: entry.checksum,
                });
            }
            let layout = PackedTrace::validate(bytes)
                .map_err(|error| FrameError::Payload { frame, error })?;
            if layout.n_events as u64 != entry.events {
                return Err(FrameError::EventCount { frame });
            }
            Ok(())
        };
        match &self.bytes {
            ByteSource::Resident(data) => {
                let data = (**data).as_ref();
                for (i, entry) in self.frames.iter().enumerate() {
                    check(i, entry, &data[entry.range()])?;
                }
            }
            ByteSource::ReadAhead { path, .. } => {
                let mut reader = ReadAhead::spawn(path, Arc::clone(&self.frames));
                let mut stats = StreamStats::default();
                for (i, entry) in self.frames.iter().enumerate() {
                    let bytes = reader
                        .recv(&mut stats)
                        .map_err(|error| FrameError::Read { frame: i, error })?;
                    check(i, entry, &bytes)?;
                }
            }
        }
        Ok(())
    }

    /// A cursor positioned at the first event of the first frame. For a
    /// streamed trace this spawns the read-ahead thread; panics if the
    /// thread cannot be spawned or — later, during replay — if the file no
    /// longer matches the frame table.
    pub fn cursor(&self) -> FrameCursor<'_> {
        let bytes = match &self.bytes {
            ByteSource::Resident(data) => CursorBytes::Resident((**data).as_ref()),
            ByteSource::ReadAhead { path, observer } => {
                CursorBytes::ReadAhead(Box::new(Streamed {
                    path,
                    observer: observer.as_ref(),
                    reader: ReadAhead::spawn(path, Arc::clone(&self.frames)),
                    frame: Vec::new(),
                    adopted: 0,
                    stats: StreamStats::default(),
                }))
            }
        };
        FrameCursor::new(&self.frames, self.total_events, bytes)
    }

    /// Decodes back into a materialized [`Trace`] (lossless).
    pub fn to_trace(&self) -> Trace {
        self.cursor().collect()
    }

    /// Summary statistics, computed through the cursor without
    /// materializing the events.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_event_iter(self.cursor())
    }
}

impl EventSource for FramedTrace {
    type Cursor<'a> = FrameCursor<'a>;

    fn cursor(&self) -> Self::Cursor<'_> {
        FramedTrace::cursor(self)
    }

    fn event_count(&self) -> usize {
        self.total_events
    }
}

/// The read-ahead thread behind a streamed cursor: reads the frame
/// payloads in order and hands them over a one-slot channel, so frame N+1
/// is read while frame N decodes and at most three frames are in flight.
struct ReadAhead {
    rx: Option<mpsc::Receiver<io::Result<Vec<u8>>>>,
    reader: Option<thread::JoinHandle<()>>,
}

impl ReadAhead {
    fn spawn(path: &Path, frames: Arc<[FrameEntry]>) -> ReadAhead {
        let (tx, rx) = mpsc::sync_channel::<io::Result<Vec<u8>>>(1);
        let path = path.to_path_buf();
        let reader = thread::Builder::new()
            .name("cbws-trace-readahead".into())
            .spawn(move || {
                let read = |file: &mut File, entry: &FrameEntry| {
                    let mut buf = vec![0u8; entry.len as usize];
                    file.seek(SeekFrom::Start(entry.offset))?;
                    file.read_exact(&mut buf)?;
                    Ok(buf)
                };
                let mut file = match File::open(&path) {
                    Ok(f) => f,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                };
                for entry in frames.iter() {
                    let res = read(&mut file, entry);
                    let failed = res.is_err();
                    // A full queue means the consumer is still decoding
                    // earlier frames; blocking here is the read-ahead
                    // working as intended. A send error means the consumer
                    // was dropped — exit.
                    if tx.send(res).is_err() || failed {
                        return;
                    }
                }
            })
            .expect("spawn trace read-ahead thread");
        ReadAhead {
            rx: Some(rx),
            reader: Some(reader),
        }
    }

    /// The next frame's bytes. Only a blocking wait counts as a stall — a
    /// frame already queued means the read-ahead fully hid the disk.
    fn recv(&mut self, stats: &mut StreamStats) -> io::Result<Vec<u8>> {
        let rx = self.rx.as_ref().expect("read-ahead channel alive");
        let msg = match rx.try_recv() {
            Ok(m) => Ok(m),
            Err(mpsc::TryRecvError::Empty) => {
                let t = Instant::now();
                let m = rx.recv();
                stats.stalls += 1;
                stats.stall_micros += t.elapsed().as_micros() as u64;
                m.map_err(|_| ())
            }
            Err(mpsc::TryRecvError::Disconnected) => Err(()),
        };
        msg.unwrap_or_else(|()| {
            Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read-ahead thread exited before the last frame",
            ))
        })
    }
}

impl Drop for ReadAhead {
    fn drop(&mut self) {
        // Dropping the receiver makes the reader's next send fail, so it
        // exits even when the replay stopped mid-trace.
        drop(self.rx.take());
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// A streamed cursor's byte state: the read-ahead, the frame being
/// decoded, and the stats reported to the observer on drop.
struct Streamed<'a> {
    path: &'a Path,
    observer: Option<&'a StreamObserver>,
    reader: ReadAhead,
    frame: Vec<u8>,
    adopted: usize,
    stats: StreamStats,
}

impl Streamed<'_> {
    /// Receives the next frame and re-verifies its checksum against
    /// `entry`, panicking if the file changed since it was opened.
    fn adopt(&mut self, entry: &FrameEntry) -> &[u8] {
        let i = self.adopted;
        self.frame = self.reader.recv(&mut self.stats).unwrap_or_else(|e| {
            panic!(
                "streamed trace read failed at frame {i} of {}: {e}",
                self.path.display()
            )
        });
        assert_eq!(
            checksum(&self.frame),
            entry.checksum,
            "frame {i} of {} failed its checksum during replay (file modified?)",
            self.path.display()
        );
        self.adopted += 1;
        self.stats.frames += 1;
        self.stats.bytes += entry.len;
        &self.frame
    }
}

impl Drop for Streamed<'_> {
    fn drop(&mut self) {
        if let Some(observer) = self.observer {
            observer(self.stats);
        }
    }
}

/// Where a [`FrameCursor`] reads frame bytes from.
enum CursorBytes<'a> {
    /// Every frame is a view into one resident buffer, at its offset.
    Resident(&'a [u8]),
    /// Frames arrive one at a time; the current one is owned here.
    ReadAhead(Box<Streamed<'a>>),
}

/// Decode state of the frame being replayed: byte offsets of the tag
/// lane and of each operand lane's read position and end, into the bytes
/// the frame lives in, plus the delta predictors.
#[derive(Debug, Clone, Default)]
struct FrameState {
    tag: usize,
    tag_end: usize,
    /// Read position of each operand lane (pcs, deltas, alus, blocks).
    lane: [usize; 4],
    lane_end: [usize; 4],
    /// Per-lane decoder choice, fixed per frame from the header.
    dense: [bool; 4],
    prev_addr: u64,
    /// Per-variant PC predictors (ALU / mem / branch), mirroring
    /// [`PackedTrace::from_trace`]'s encoders.
    prev_pc: [u64; 3],
}

impl FrameState {
    /// State at the first event of a frame with layout `l` starting at
    /// byte `base`.
    fn new(l: &Layout, base: usize) -> FrameState {
        // Per-lane kernel choice, made once from the header: the 8-wide
        // word kernel only pays off when its all-terminator fast path
        // fires on nearly every probe, i.e. when the lane averages ≤ 9/8
        // bytes per entry (ALU run lengths, block ids, unit-stride
        // deltas). Wider lanes (PC deltas, irregular address deltas)
        // decode faster through the well-predicted scalar byte loop.
        let dense = |bytes: usize, entries: usize| bytes * 8 <= entries * 9;
        FrameState {
            tag: base + l.tags,
            tag_end: base + l.pcs,
            lane: [l.pcs, l.addr_deltas, l.alu_counts, l.block_ids].map(|o| base + o),
            lane_end: [l.addr_deltas, l.alu_counts, l.block_ids, l.total].map(|o| base + o),
            dense: [
                dense(l.addr_deltas - l.pcs, l.n_pcs),
                dense(l.alu_counts - l.addr_deltas, l.n_mems),
                dense(l.block_ids - l.alu_counts, l.n_alus),
                dense(l.total - l.block_ids, l.n_blocks),
            ],
            prev_addr: 0,
            prev_pc: [0; 3],
        }
    }
}

/// The one cursor over packed events, for a [`FramedTrace`] from either
/// byte source and for a lone [`PackedTrace`] (a trace of one frame).
///
/// Refills happen in `CURSOR_BATCH`-event batches: one pass over the tag
/// chunk tallies each lane's contribution, each varint lane is
/// batch-decoded into a flat scratch column, and events are then emitted
/// straight from those columns — the per-event work is a tag dispatch plus
/// indexed `u64` reads, never per-event varint decoding. When a frame runs
/// dry the cursor moves to the next one: the next view of a resident
/// buffer, or the next payload off the read-ahead thread (checksum
/// re-verified).
pub struct FrameCursor<'a> {
    /// Frames not yet started.
    pending: std::slice::Iter<'a, FrameEntry>,
    /// Events in `pending`.
    pending_events: usize,
    bytes: CursorBytes<'a>,
    frame: FrameState,
    /// Decoded-ahead events. Decoding in batches keeps the column state in
    /// registers for a whole tight decode loop instead of spilling it
    /// between every event of the (register-hungry) replay loop; `next()`
    /// is then a plain buffer read, as cheap as slice iteration.
    buf: Vec<EventRef>,
    buf_i: usize,
    /// Per-lane decode targets, boxed so the cursor stays cheap to move.
    scratch: Box<LaneScratch>,
}

impl fmt::Debug for FrameCursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameCursor")
            .field("remaining", &self.len())
            .field("streamed", &matches!(self.bytes, CursorBytes::ReadAhead(_)))
            .finish()
    }
}

impl<'a> FrameCursor<'a> {
    fn new(frames: &'a [FrameEntry], events: usize, bytes: CursorBytes<'a>) -> FrameCursor<'a> {
        FrameCursor {
            pending: frames.iter(),
            pending_events: events,
            bytes,
            frame: FrameState::default(),
            buf: Vec::with_capacity(CURSOR_BATCH),
            buf_i: 0,
            scratch: Box::new(LaneScratch::new()),
        }
    }

    /// Starts the next frame; `false` once every frame has been started.
    fn next_frame(&mut self) -> bool {
        let Some(entry) = self.pending.next() else {
            return false;
        };
        self.pending_events -= entry.events as usize;
        let (base, bytes) = match &mut self.bytes {
            CursorBytes::Resident(data) => (entry.offset as usize, &data[entry.range()]),
            CursorBytes::ReadAhead(s) => (0, s.adopt(entry)),
        };
        let layout = Layout::parse(bytes)
            .unwrap_or_else(|e| panic!("a verified frame no longer parses: {e}"));
        self.frame = FrameState::new(&layout, base);
        true
    }

    /// Decodes the next batch of events into the read-ahead buffer,
    /// moving to the next frame first if this one is done. `false` at the
    /// end of the trace.
    fn refill(&mut self) -> bool {
        while self.frame.tag == self.frame.tag_end {
            if !self.next_frame() {
                return false;
            }
        }
        let base: &[u8] = match &self.bytes {
            CursorBytes::Resident(data) => data,
            CursorBytes::ReadAhead(s) => &s.frame,
        };
        let f = &mut self.frame;
        let end = f.tag_end.min(f.tag + CURSOR_BATCH);
        let batch = &base[f.tag..end];
        f.tag = end;
        // Pass 1: how many entries each operand lane contributes here —
        // one packed-counter add per tag, no branches.
        let mut tally = 0u64;
        for &tag in batch {
            tally += TAG_TALLY[tag as usize];
        }
        let counts = [
            (tally & 0xffff) as usize,
            (tally >> 16 & 0xffff) as usize,
            (tally >> 32 & 0xffff) as usize,
            (tally >> 48) as usize,
        ];
        // Batch-decode each lane into its flat scratch column through the
        // kernel its density picked. Validation proved the lanes hold
        // exactly the entries the tags demand.
        let s = &mut *self.scratch;
        for (k, out) in [&mut s.pcs, &mut s.deltas, &mut s.alus, &mut s.blocks]
            .into_iter()
            .enumerate()
        {
            let mut lane = &base[f.lane[k]..f.lane_end[k]];
            let out = &mut out[..counts[k]];
            if f.dense[k] {
                varint::decode_batch(&mut lane, out);
            } else {
                varint::decode_batch_scalar(&mut lane, out);
            }
            f.lane[k] = f.lane_end[k] - lane.len();
        }
        // Pass 2: assemble events from the scratch columns. `extend` over
        // an exact-size map writes each event once with no per-event
        // capacity or length bookkeeping.
        self.buf.clear();
        self.buf_i = 0;
        let mut a = Assembler::new(&self.scratch, f.prev_addr, f.prev_pc);
        self.buf.extend(batch.iter().map(|&tag| a.event(tag)));
        f.prev_addr = a.prev_addr;
        f.prev_pc = a.prev_pc;
        true
    }
}

impl Iterator for FrameCursor<'_> {
    type Item = EventRef;

    #[inline]
    fn next(&mut self) -> Option<EventRef> {
        if self.buf_i == self.buf.len() && !self.refill() {
            return None;
        }
        let e = self.buf[self.buf_i];
        self.buf_i += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.pending_events
            + (self.frame.tag_end - self.frame.tag)
            + (self.buf.len() - self.buf_i);
        (left, Some(left))
    }
}

impl ExactSizeIterator for FrameCursor<'_> {}

impl EventCursor for FrameCursor<'_> {
    #[inline]
    fn next_batch(&mut self) -> Option<&[EventRef]> {
        // Events already decoded but not yet taken via `next()` come
        // first.
        if self.buf_i == self.buf.len() && !self.refill() {
            return None;
        }
        let chunk = &self.buf[self.buf_i..];
        self.buf_i = self.buf.len();
        Some(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        b.alu(Pc(0x100), 7);
        b.annotated_loop(BlockId(3), 5, |b, i| {
            b.load(Pc(0x200), Addr(0x4000 + i * 4096));
            b.load_dep(Pc(0x204), Addr(0x900_0000 - i * 64));
            b.store(Pc(0x208), Addr(i * 128));
            b.alu(Pc(0x20c), 3);
        });
        b.branch(Pc(0x300), true);
        b.finish()
    }

    #[test]
    fn round_trip_is_lossless() {
        let trace = sample();
        let packed = PackedTrace::from_trace(&trace);
        assert_eq!(packed.to_trace(), trace);
        assert_eq!(packed.event_count(), trace.len());
        assert_eq!(packed.stats(), trace.stats());
    }

    #[test]
    fn cursor_matches_slice_iteration() {
        let trace = sample();
        let packed = PackedTrace::from_trace(&trace);
        let decoded: Vec<TraceEvent> = packed.cursor().collect();
        assert_eq!(decoded.as_slice(), trace.events());
        // The EventSource impls agree too.
        let via_trait: Vec<TraceEvent> = EventSource::cursor(&packed).collect();
        let via_trace: Vec<TraceEvent> = EventSource::cursor(&trace).collect();
        assert_eq!(via_trait, via_trace);
        assert_eq!(
            EventSource::event_count(&packed),
            EventSource::event_count(&trace)
        );
    }

    #[test]
    fn batched_cursor_matches_slice_iteration() {
        // A trace longer than one decode batch, so next_batch() yields
        // several chunks from the packed cursor.
        let mut b = TraceBuilder::new();
        b.annotated_loop(BlockId(1), 200, |b, i| {
            b.load(Pc(0x200), Addr(0x4000 + i * 64));
            b.alu(Pc(0x204), 2);
            b.branch(Pc(0x208), i % 3 == 0);
        });
        let trace = b.finish();
        let packed = PackedTrace::from_trace(&trace);

        for_both_reprs(&trace, &packed, |cursor| {
            let mut batched = Vec::new();
            while let Some(chunk) = cursor.next_batch() {
                assert!(!chunk.is_empty(), "next_batch yielded an empty chunk");
                batched.extend_from_slice(chunk);
            }
            assert_eq!(cursor.next_batch(), None, "exhausted cursor must stay dry");
            assert_eq!(batched.as_slice(), trace.events());
        });

        // Mixing next() and next_batch(): events already decoded but not
        // yet taken must appear in the following batch exactly once.
        for_both_reprs(&trace, &packed, |cursor| {
            let mut seen = vec![cursor.next().unwrap(), cursor.next().unwrap()];
            while let Some(chunk) = cursor.next_batch() {
                seen.extend_from_slice(chunk);
            }
            assert_eq!(seen.as_slice(), trace.events());
        });
    }

    /// Runs `check` against a fresh cursor of each representation.
    fn for_both_reprs(
        trace: &Trace,
        packed: &PackedTrace,
        mut check: impl FnMut(&mut dyn EventCursor),
    ) {
        check(&mut EventSource::cursor(trace));
        check(&mut EventSource::cursor(packed));
    }

    #[test]
    fn payload_parses_back() {
        let packed = PackedTrace::from_trace(&sample());
        let bytes: Box<[u8]> = packed.payload().into();
        let reparsed = PackedTrace::from_payload(bytes).unwrap();
        assert_eq!(reparsed, packed);
        assert_eq!(reparsed.to_trace(), sample());
    }

    #[test]
    fn empty_trace_packs() {
        let packed = PackedTrace::from_trace(&Trace::default());
        assert!(packed.is_empty());
        assert_eq!(packed.payload().len(), HEADER_BYTES);
        assert_eq!(packed.to_trace(), Trace::default());
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let packed = PackedTrace::from_trace(&sample());
        let bytes = packed.payload();
        for cut in [0, HEADER_BYTES - 1, bytes.len() - 1] {
            let r = PackedTrace::from_payload(bytes[..cut].into());
            assert!(matches!(r, Err(PackedError::Truncated { .. })), "cut {cut}");
        }
    }

    #[test]
    fn bad_tag_is_rejected() {
        let packed = PackedTrace::from_trace(&sample());
        let mut bytes: Vec<u8> = packed.payload().to_vec();
        bytes[HEADER_BYTES] = 0x07; // variant 7 does not exist
        assert!(matches!(
            PackedTrace::from_payload(bytes.clone().into_boxed_slice()),
            Err(PackedError::BadTag { index: 0, .. })
        ));
        bytes[HEADER_BYTES] = TAG_ALU | FLAG_STORE; // illegal flag for ALU
        assert!(matches!(
            PackedTrace::from_payload(bytes.into_boxed_slice()),
            Err(PackedError::BadTag { index: 0, .. })
        ));
    }

    #[test]
    fn count_mismatch_is_rejected() {
        // Claim one branch event but write a mem tag: addr_deltas column
        // length disagrees with the tag stream.
        let trace = Trace::from_events(vec![TraceEvent::Branch(BranchRecord {
            pc: Pc(0),
            taken: false,
        })]);
        let packed = PackedTrace::from_trace(&trace);
        let mut bytes: Vec<u8> = packed.payload().to_vec();
        bytes[HEADER_BYTES] = TAG_MEM;
        let r = PackedTrace::from_payload(bytes.into_boxed_slice());
        assert!(matches!(r, Err(PackedError::CountMismatch { .. })), "{r:?}");
    }

    #[test]
    fn malformed_lane_is_rejected() {
        // Setting the continuation bit on the last byte of the last lane
        // leaves the payload length and tag stream intact but the lane
        // dangling mid-entry.
        let packed = PackedTrace::from_trace(&sample());
        let mut bytes: Vec<u8> = packed.payload().to_vec();
        *bytes.last_mut().unwrap() |= 0x80;
        assert!(matches!(
            PackedTrace::from_payload(bytes.into_boxed_slice()),
            Err(PackedError::MalformedLane { .. })
        ));
    }

    #[test]
    fn varint_lanes_shrink_the_payload() {
        // Loop-local PCs, unit-stride line deltas, and small run lengths
        // are the common case; they must encode in one byte each, so the
        // payload lands well under the old 8-byte-per-operand layout.
        let trace = sample();
        let packed = PackedTrace::from_trace(&trace);
        let aos_bytes = trace.len() * std::mem::size_of::<TraceEvent>();
        assert!(
            packed.payload().len() * 3 < aos_bytes,
            "packed {} vs AoS {aos_bytes}",
            packed.payload().len()
        );
    }

    #[test]
    fn delta_encoding_survives_extreme_addresses() {
        let mut b = TraceBuilder::new();
        b.load(Pc(0), Addr(u64::MAX));
        b.load(Pc(4), Addr(0));
        b.load(Pc(8), Addr(u64::MAX / 2));
        b.store(Pc(12), Addr(u64::MAX));
        let trace = b.finish();
        assert_eq!(PackedTrace::from_trace(&trace).to_trace(), trace);
    }

    /// Packs a trace into standalone frames of at most `frame_events`
    /// events each, the way the streaming writer does (predictors reset per
    /// frame), and lays them out back to back behind a junk prefix (so
    /// absolute offsets are honored). Returns the bytes and frame table.
    fn framed_bytes(trace: &Trace, frame_events: usize) -> (Vec<u8>, Vec<FrameEntry>) {
        let mut bytes = vec![0xEE; 7];
        let mut entries = Vec::new();
        for chunk in trace.events().chunks(frame_events.max(1)) {
            let frame = PackedTrace::from_events(chunk);
            entries.push(FrameEntry::of(&frame, bytes.len() as u64));
            bytes.extend_from_slice(frame.payload());
        }
        (bytes, entries)
    }

    fn resident_of(trace: &Trace, frame_events: usize) -> FramedTrace {
        let (bytes, entries) = framed_bytes(trace, frame_events);
        FramedTrace::resident(Arc::new(bytes), entries).unwrap()
    }

    /// The same frames in a temp file, replayed through the read-ahead.
    fn streamed_of(trace: &Trace, frame_events: usize) -> (FramedTrace, PathBuf) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "cbws-packed-test-{}-{}.frames",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let (bytes, entries) = framed_bytes(trace, frame_events);
        std::fs::write(&path, bytes).unwrap();
        (
            FramedTrace::read_ahead(path.clone(), entries).unwrap(),
            path,
        )
    }

    /// A ~650-event trace: long enough to span several 256-event decode
    /// batches and several small frames.
    fn long_sample() -> Trace {
        let mut b = TraceBuilder::new();
        b.annotated_loop(BlockId(2), 130, |b, i| {
            b.load(Pc(0x500), Addr(0x10_0000 + i * 64));
            b.alu(Pc(0x504), (i % 7 + 1) as u32);
            b.branch(Pc(0x508), i % 2 == 0);
        });
        b.finish()
    }

    /// Drains `trace` through `next()` after one event, then `next_batch()`,
    /// checking the exact length on the way.
    fn drain_mixed(trace: &FramedTrace) -> Vec<TraceEvent> {
        let mut cursor = trace.cursor();
        assert_eq!(cursor.len(), trace.event_count());
        let mut out: Vec<TraceEvent> = cursor.next().into_iter().collect();
        while let Some(chunk) = cursor.next_batch() {
            assert!(!chunk.is_empty(), "next_batch yielded an empty chunk");
            out.extend_from_slice(chunk);
        }
        assert_eq!(cursor.next_batch(), None, "exhausted cursor must stay dry");
        assert_eq!(cursor.len(), 0);
        out
    }

    #[test]
    fn frame_cursor_matches_unframed_from_both_sources() {
        let trace = long_sample();
        for frame_events in [1, 100, 255, 256, 257, trace.len(), trace.len() + 50] {
            let resident = resident_of(&trace, frame_events);
            let (streamed, path) = streamed_of(&trace, frame_events);
            assert!(!resident.is_streamed());
            assert!(streamed.is_streamed());
            for framed in [&resident, &streamed] {
                assert_eq!(framed.event_count(), trace.len());
                let via_next: Vec<TraceEvent> = framed.cursor().collect();
                assert_eq!(via_next.as_slice(), trace.events(), "frame {frame_events}");
                let mixed = drain_mixed(framed);
                assert_eq!(mixed.as_slice(), trace.events(), "frame {frame_events}");
                framed.verify().unwrap();
            }
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn framed_trace_degenerate_shapes() {
        let empty = FramedTrace::resident(Arc::new(Vec::<u8>::new()), Vec::new()).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.cursor().next(), None);
        assert_eq!(empty.cursor().next_batch(), None);

        let trace = sample();
        let single = resident_of(&trace, trace.len());
        assert_eq!(single.to_trace(), trace);
        assert_eq!(single.stats(), trace.stats());
        assert_eq!(
            single.payload_bytes(),
            PackedTrace::from_trace(&trace).payload().len() as u64
        );
    }

    #[test]
    fn resident_frame_out_of_bounds_is_error() {
        let (bytes, mut entries) = framed_bytes(&sample(), 10);
        entries.last_mut().unwrap().len += 1;
        assert!(matches!(
            FramedTrace::resident(Arc::new(bytes), entries),
            Err(FrameError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn overflowing_event_counts_are_rejected() {
        let lying = FrameEntry {
            offset: 0,
            len: 0,
            events: u64::MAX,
            checksum: 0,
        };
        assert!(matches!(
            FramedTrace::resident(Arc::new(Vec::<u8>::new()), vec![lying; 2]),
            Err(FrameError::EventCount { .. })
        ));
        assert!(matches!(
            FramedTrace::read_ahead(PathBuf::from("unused.frames"), vec![lying; 2]),
            Err(FrameError::EventCount { .. })
        ));
    }

    #[test]
    fn verify_reports_the_failing_frame() {
        let trace = long_sample();
        let (mut bytes, entries) = framed_bytes(&trace, 100);
        let second = entries[1];
        bytes[second.offset as usize + 80] ^= 0x01;
        let resident = FramedTrace::resident(Arc::new(bytes), entries.clone()).unwrap();
        assert!(matches!(
            resident.verify(),
            Err(FrameError::Checksum { frame: 1, .. })
        ));
        // A lying event count is caught even with a matching checksum.
        let (bytes, mut entries) = framed_bytes(&trace, 100);
        entries[0].events += 1;
        let resident = FramedTrace::resident(Arc::new(bytes), entries).unwrap();
        assert!(matches!(
            resident.verify(),
            Err(FrameError::EventCount { frame: 0 })
        ));
    }

    #[test]
    fn streamed_cursor_reports_stats_to_observer() {
        use std::sync::Mutex;
        let trace = long_sample();
        let (streamed, path) = streamed_of(&trace, 100);
        let seen: Arc<Mutex<Vec<StreamStats>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let streamed = streamed.with_observer(Arc::new(move |s| sink.lock().unwrap().push(s)));
        assert_eq!(streamed.cursor().count(), trace.len());
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].frames, streamed.frames().len() as u64);
        assert_eq!(seen[0].bytes, streamed.payload_bytes());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn streamed_cursor_detects_mid_replay_corruption() {
        let trace = long_sample();
        let (streamed, path) = streamed_of(&trace, 100);
        // Flip one payload bit after the frame table was built: replay
        // must refuse to decode silently-wrong events.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(streamed.verify().is_err());
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| streamed.cursor().count()));
        assert!(outcome.is_err(), "corrupted frame must not replay");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_file_fails_verify_and_replay() {
        let trace = long_sample();
        let (streamed, path) = streamed_of(&trace, 100);
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            streamed.verify(),
            Err(FrameError::Read { frame: 0, .. })
        ));
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| streamed.cursor().count()));
        assert!(outcome.is_err());
    }

    #[test]
    fn shared_handles_replay_like_their_target() {
        let trace = long_sample();
        let shared = Arc::new(resident_of(&trace, 200));
        assert_eq!(EventSource::event_count(&shared), trace.len());
        let events: Vec<TraceEvent> = EventSource::cursor(&shared).collect();
        assert_eq!(events.as_slice(), trace.events());
    }

    /// Pinned values: stored files carry these checksums, so a change to
    /// [`checksum`] is a store format change and must bump both stores'
    /// format versions.
    #[test]
    fn checksum_matches_reference_vectors() {
        let counting: Vec<u8> = (0..=255u8).collect();
        for (bytes, want) in [
            (&b""[..], 0xf7e2_7bea_df41_96a5u64),
            (b"a", 0xf3ed_7c6f_46ec_d9c5),
            (b"foobar", 0x0c6c_f4d7_35c8_a5dc),
            (b"12345678", 0x74d3_9c47_d550_331d),
            (b"123456789", 0x6ef3_e676_26c3_ff2d),
            (&counting, 0x136d_7f21_fa1e_1302),
        ] {
            assert_eq!(checksum(bytes), want, "{bytes:?}");
        }
    }

    /// Every single-bit flip of buffers of every length up to eight words,
    /// so every tail length, changes the checksum.
    #[test]
    fn checksum_catches_every_single_bit_flip() {
        for len in 0..=64usize {
            let mut bytes: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
            let clean = checksum(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&bytes), clean, "length {len}, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// No two bit flips of a four-word buffer cancel. Without the word
    /// mix, a flip of a word's top bit is undone by one flip in the next
    /// word.
    #[test]
    fn checksum_catches_every_pair_of_bit_flips() {
        let mut bytes: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let clean = checksum(&bytes);
        let flip = |bytes: &mut [u8], bit: usize| bytes[bit / 8] ^= 1 << (bit % 8);
        for first in 0..256 {
            flip(&mut bytes, first);
            for second in first + 1..256 {
                flip(&mut bytes, second);
                assert_ne!(checksum(&bytes), clean, "bits {first} and {second}");
                flip(&mut bytes, second);
            }
            flip(&mut bytes, first);
        }
    }

    /// The length is part of the checksum: a trailing zero byte, which
    /// the zero-padded tail word alone would not see, changes it.
    #[test]
    fn checksum_sees_an_appended_zero_byte() {
        for len in 0..=64usize {
            let mut bytes = vec![0u8; len];
            let shorter = checksum(&bytes);
            bytes.push(0);
            assert_ne!(checksum(&bytes), shorter, "length {len}");
        }
    }
}
