//! Property tests for the packed columnar trace format: lossless
//! round-tripping, cursor/slice iteration equivalence, robustness of the
//! payload parser against arbitrary and mutated byte buffers, and the
//! stored-byte checksum's detection of any change within one word.

use cbws_trace::{
    checksum, Addr, BlockId, BranchRecord, Dependence, EventCursor, FrameEntry, FramedTrace,
    MemAccess, MemKind, PackedTrace, Pc, Trace, TraceEvent,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn event_strategy() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (0u32..64).prop_map(|id| TraceEvent::BlockBegin { id: BlockId(id) }),
        (0u32..64).prop_map(|id| TraceEvent::BlockEnd { id: BlockId(id) }),
        (any::<u64>(), any::<u32>()).prop_map(|(pc, count)| TraceEvent::Alu { pc: Pc(pc), count }),
        (any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>()).prop_map(
            |(pc, addr, store, dep)| {
                TraceEvent::Mem(MemAccess {
                    pc: Pc(pc),
                    addr: Addr(addr),
                    kind: if store { MemKind::Store } else { MemKind::Load },
                    dep: if dep {
                        Dependence::PrevLoad
                    } else {
                        Dependence::None
                    },
                })
            }
        ),
        (any::<u64>(), any::<bool>())
            .prop_map(|(pc, taken)| TraceEvent::Branch(BranchRecord { pc: Pc(pc), taken })),
    ]
}

fn trace_strategy() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(event_strategy(), 0..300).prop_map(Trace::from_events)
}

/// Event counts straddling the interesting boundaries of the streamed
/// replay path: empty, single event, one less / exactly / one more than a
/// whole number of frames (and, with `frame_events = 256`, the decode
/// batch size ± 1 as well).
fn boundary_lens(frame_events: usize) -> [usize; 8] {
    [
        0,
        1,
        frame_events - 1,
        frame_events,
        frame_events + 1,
        3 * frame_events - 1,
        3 * frame_events,
        3 * frame_events + 1,
    ]
}

/// A unique scratch path for one framed-file test case.
fn scratch_file(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "cbws-packed-prop-{tag}-{}-{}.frames",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Packs `events` into frames of `frame_events` and lays the payloads out
/// back to back (with `lead` junk bytes first, mimicking the store
/// header). Returns the bytes and the frame table.
fn framed_bytes(
    events: &[TraceEvent],
    frame_events: usize,
    lead: usize,
) -> (Vec<u8>, Vec<FrameEntry>) {
    let mut bytes = vec![0xa5u8; lead];
    let mut entries = Vec::new();
    for chunk in events.chunks(frame_events.max(1)) {
        let packed = PackedTrace::from_events(chunk);
        entries.push(FrameEntry::of(&packed, bytes.len() as u64));
        bytes.extend_from_slice(packed.payload());
    }
    (bytes, entries)
}

/// The same framed bytes behind both byte sources: resident in memory,
/// and written to a scratch file for the read-ahead. Returns the resident
/// trace, the streamed trace, and the file path.
fn both_sources(
    events: &[TraceEvent],
    frame_events: usize,
    lead: usize,
    tag: &str,
) -> (FramedTrace, FramedTrace, PathBuf) {
    let (bytes, entries) = framed_bytes(events, frame_events, lead);
    let path = scratch_file(tag);
    std::fs::write(&path, &bytes).expect("write scratch frame file");
    let resident = FramedTrace::resident(Arc::new(bytes), entries.clone()).expect("in bounds");
    (
        resident,
        FramedTrace::read_ahead(path.clone(), entries).expect("event counts sum"),
        path,
    )
}

proptest! {
    /// `Trace → PackedTrace → Trace` is the identity, including full-range
    /// addresses (the delta encoding must wrap losslessly) and stats.
    #[test]
    fn pack_round_trip_is_lossless(trace in trace_strategy()) {
        let packed = PackedTrace::from_trace(&trace);
        prop_assert_eq!(packed.event_count(), trace.len());
        prop_assert_eq!(packed.to_trace(), trace.clone());
        prop_assert_eq!(packed.stats(), trace.stats());
    }

    /// The cursor yields exactly the `Vec<TraceEvent>` sequence, event for
    /// event, and reports an exact length.
    #[test]
    fn cursor_matches_vec_iteration(trace in trace_strategy()) {
        let packed = PackedTrace::from_trace(&trace);
        let mut cursor = packed.cursor();
        prop_assert_eq!(cursor.len(), trace.len());
        for (i, expect) in trace.events().iter().enumerate() {
            let got = cursor.next();
            prop_assert_eq!(got, Some(*expect), "event {}", i);
        }
        prop_assert_eq!(cursor.next(), None);
    }

    /// A payload survives serialization: parsing its own bytes back yields
    /// an equal trace.
    #[test]
    fn payload_parses_back(trace in trace_strategy()) {
        let packed = PackedTrace::from_trace(&trace);
        let reparsed = PackedTrace::from_payload(packed.payload().into())
            .expect("self-produced payload parses");
        prop_assert_eq!(reparsed.to_trace(), trace);
    }

    /// Arbitrary garbage never panics the parser: it either parses (and
    /// then the cursor can walk every event without panicking) or is
    /// rejected with an error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        if let Ok(packed) = PackedTrace::from_payload(bytes.into_boxed_slice()) {
            prop_assert_eq!(packed.cursor().count(), packed.event_count());
        }
    }

    /// The one frame cursor is record-identical across both byte sources
    /// — resident and read-ahead over the same framed file — to the source
    /// `Vec` (what `SliceCursor` yields) and to the unframed `PackedTrace`,
    /// at every interesting boundary: empty traces, one event, frame size
    /// ± 1, and decode batch size ± 1 (`frame_events = 256` puts the
    /// 255/256/257 lengths right on the cursor's internal batch boundary).
    /// Both the event-at-a-time and the batch interfaces must agree.
    #[test]
    fn file_cursor_is_record_identical_at_boundaries(
        pool in proptest::collection::vec(event_strategy(), 769..770),
        pick in 0usize..16,
    ) {
        // 769 = 3 * 256 + 1, the largest boundary length below.
        let frame_events = if pick < 8 { 16 } else { 256 };
        let events = &pool[..boundary_lens(frame_events)[pick % 8]];
        let (resident, streamed, path) = both_sources(events, frame_events, 31, "ident");
        let unframed = PackedTrace::from_events(events);
        let reference: Vec<TraceEvent> = unframed.cursor().collect();
        prop_assert_eq!(&reference[..], events);
        for framed in [&resident, &streamed] {
            prop_assert_eq!(framed.event_count(), events.len());
            // Event-at-a-time.
            let via_next: Vec<TraceEvent> = framed.cursor().collect();
            prop_assert_eq!(&via_next[..], events);
            // Batch interface.
            let mut via_batch: Vec<TraceEvent> = Vec::new();
            let mut cursor = framed.cursor();
            while let Some(batch) = cursor.next_batch() {
                via_batch.extend_from_slice(batch);
            }
            drop(cursor);
            prop_assert_eq!(&via_batch, &reference);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// XORing any non-zero word into one aligned word of a frame-sized
    /// buffer always changes its checksum: a step is a bijection of its
    /// word for a fixed state and of the state for a fixed word, and the
    /// final fold is a bijection too.
    #[test]
    fn checksum_catches_any_change_within_one_word(
        words in proptest::collection::vec(any::<u64>(), 512..32_768),
        trim in 0usize..8,
        at in any::<usize>(),
        delta in 1u64..u64::MAX,
    ) {
        let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        bytes.truncate(bytes.len() - trim);
        let clean = checksum(&bytes);
        let word = at % (bytes.len() / 8) * 8;
        let changed = u64::from_le_bytes(bytes[word..word + 8].try_into().unwrap()) ^ delta;
        bytes[word..word + 8].copy_from_slice(&changed.to_le_bytes());
        prop_assert!(checksum(&bytes) != clean, "word at byte {}", word);
    }

    /// Flipping any single bit of any frame payload on disk is caught
    /// during streamed replay: the per-frame checksum changes under any
    /// change confined to one aligned word (every step is bijective), so the
    /// read-ahead cursor panics instead of silently replaying corrupt
    /// events. The trace store turns the same detection at open
    /// (`FramedTrace::verify`) into invalidate-and-regenerate; see the
    /// `cbws-workloads` store tests.
    #[test]
    fn file_cursor_detects_single_bit_corruption(
        events in proptest::collection::vec(event_strategy(), 1..120),
        frame_events in 1usize..40,
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let lead = 31usize;
        let (_, streamed, path) = both_sources(&events, frame_events, lead, "corrupt");
        let mut bytes = std::fs::read(&path).expect("read framed file");
        // Flip a bit somewhere inside the frame payloads (past the lead).
        let at = lead + pos % (bytes.len() - lead);
        bytes[at] ^= 1 << bit;
        std::fs::write(&path, &bytes).expect("write corrupted file");
        prop_assert!(streamed.verify().is_err(), "verify must catch byte {}", at);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            streamed.cursor().count()
        }));
        prop_assert!(outcome.is_err(), "corruption at byte {} must be detected", at);
        let _ = std::fs::remove_file(&path);
    }

    /// Flipping a single bit of a valid payload never panics: either the
    /// parser rejects the buffer, or it still parses (e.g. the flip landed
    /// in an address) and the cursor walks it cleanly. Store-level
    /// checksums are what detect the silent case; see the trace-store
    /// corruption proptests in `cbws-workloads`.
    #[test]
    fn bit_flips_never_panic(trace in trace_strategy(), pos in any::<usize>(), bit in 0u8..8) {
        let packed = PackedTrace::from_trace(&trace);
        let mut bytes: Vec<u8> = packed.payload().to_vec();
        if bytes.is_empty() {
            return Ok(());
        }
        let at = pos % bytes.len();
        bytes[at] ^= 1 << bit;
        if let Ok(mutated) = PackedTrace::from_payload(bytes.into_boxed_slice()) {
            prop_assert_eq!(mutated.cursor().count(), mutated.event_count());
        }
    }
}
