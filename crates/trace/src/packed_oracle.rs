//! The reference frame packer: the two-pass `from_events` the
//! [`FrameEncoder`] replaced, which packs a finished slice of events. The
//! tests below push random event streams through one encoder, finishing a
//! frame every `frame_events` events as the streaming builder does, and
//! require every frame's payload to equal the reference packing of the
//! same slice, byte for byte.

use crate::addr::{Addr, BlockId, Pc};
use crate::event::{BranchRecord, Dependence, MemAccess, MemKind, TraceEvent};
use crate::packed::{
    FLAG_DEP_PREV_LOAD, FLAG_STORE, FLAG_TAKEN, TAG_ALU, TAG_BLOCK_BEGIN, TAG_BLOCK_END,
    TAG_BRANCH, TAG_MEM,
};
use crate::{varint, FrameEncoder, PackedTrace};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

fn reference_from_events(events: &[TraceEvent]) -> PackedTrace {
    let mut n_pcs = 0usize;
    let mut n_mems = 0usize;
    let mut n_alus = 0usize;
    let mut n_blocks = 0usize;
    let mut tags = Vec::with_capacity(events.len());
    // Most entries are one byte (small PCs after the first, unit
    // deltas, short run lengths); reserve optimistically.
    let mut pcs = Vec::with_capacity(events.len() * 2);
    let mut deltas = Vec::new();
    let mut alus = Vec::new();
    let mut blocks = Vec::new();
    let mut prev_addr = 0u64;
    // One PC predictor per variant (ALU / mem / branch): see the
    // module docs for why per-variant deltas stay short.
    let mut prev_pc = [0u64; 3];
    let mut push_pc = |slot: usize, pc: Pc, pcs: &mut Vec<u8>| {
        let delta = pc.0.wrapping_sub(prev_pc[slot]) as i64;
        prev_pc[slot] = pc.0;
        varint::encode(varint::zigzag(delta), pcs);
    };
    for e in events {
        let tag = match e {
            TraceEvent::BlockBegin { id } => {
                n_blocks += 1;
                varint::encode(u64::from(id.0), &mut blocks);
                TAG_BLOCK_BEGIN
            }
            TraceEvent::BlockEnd { id } => {
                n_blocks += 1;
                varint::encode(u64::from(id.0), &mut blocks);
                TAG_BLOCK_END
            }
            TraceEvent::Alu { pc, count } => {
                n_pcs += 1;
                n_alus += 1;
                push_pc(0, *pc, &mut pcs);
                varint::encode(u64::from(*count), &mut alus);
                TAG_ALU
            }
            TraceEvent::Mem(m) => {
                n_pcs += 1;
                n_mems += 1;
                push_pc(1, m.pc, &mut pcs);
                let delta = m.addr.0.wrapping_sub(prev_addr) as i64;
                prev_addr = m.addr.0;
                varint::encode(varint::zigzag(delta), &mut deltas);
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
                n_pcs += 1;
                push_pc(2, br.pc, &mut pcs);
                if br.taken {
                    TAG_BRANCH | FLAG_TAKEN
                } else {
                    TAG_BRANCH
                }
            }
        };
        tags.push(tag);
    }
    let mut buf = Vec::new();
    for n in [
        events.len(),
        n_pcs,
        n_mems,
        n_alus,
        n_blocks,
        pcs.len(),
        deltas.len(),
        alus.len(),
        blocks.len(),
    ] {
        buf.extend_from_slice(&(n as u64).to_le_bytes());
    }
    buf.extend_from_slice(&tags);
    buf.extend_from_slice(&pcs);
    buf.extend_from_slice(&deltas);
    buf.extend_from_slice(&alus);
    buf.extend_from_slice(&blocks);
    PackedTrace::from_payload(buf.into_boxed_slice()).expect("reference payload parses")
}

/// Large and small operands: full-width values take the 10-byte varint
/// path, small ones the 1-byte path real loop bodies produce.
fn operand() -> impl Strategy<Value = u64> {
    prop_oneof![any::<u64>(), 0u64..256, 0x40_0000u64..0x40_0100]
}

fn event() -> impl Strategy<Value = TraceEvent> {
    prop_oneof![
        (0u32..300).prop_map(|id| TraceEvent::BlockBegin { id: BlockId(id) }),
        (0u32..300).prop_map(|id| TraceEvent::BlockEnd { id: BlockId(id) }),
        (operand(), any::<u32>()).prop_map(|(pc, count)| TraceEvent::Alu { pc: Pc(pc), count }),
        (operand(), operand(), any::<bool>(), any::<bool>()).prop_map(|(pc, addr, store, dep)| {
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
        }),
        (operand(), any::<bool>())
            .prop_map(|(pc, taken)| TraceEvent::Branch(BranchRecord { pc: Pc(pc), taken })),
    ]
}

/// Encodes `events` through one reused encoder in frames of
/// `frame_events` and checks each frame against the reference.
fn assert_frames_match(events: &[TraceEvent], frame_events: usize) {
    let mut encoder = FrameEncoder::new();
    let mut frames = Vec::new();
    for &e in events {
        encoder.push(e);
        if encoder.len() == frame_events {
            frames.push(encoder.finish());
        }
    }
    if !encoder.is_empty() {
        frames.push(encoder.finish());
    }
    let chunks: Vec<&[TraceEvent]> = events.chunks(frame_events).collect();
    assert_eq!(frames.len(), chunks.len(), "frame count at {frame_events}");
    for (i, (frame, chunk)) in frames.iter().zip(chunks).enumerate() {
        assert!(
            frame.payload() == reference_from_events(chunk).payload(),
            "frame {i} of {frame_events}-event frames differs from the reference"
        );
    }
}

proptest! {
    /// Byte-equal frames at frame sizes 1, 7 and 65,536 (one partial frame).
    #[test]
    fn encoder_frames_match_reference(
        events in proptest::collection::vec(event(), 0..300),
    ) {
        for frame_events in [1, 7, 65_536] {
            assert_frames_match(&events, frame_events);
        }
    }
}

/// Two and a half full-size frames: the encoder's lanes are reused by the
/// second and third frame.
#[test]
fn full_size_frames_match_reference() {
    let mut rng = TestRng::deterministic("full_size_frames_match_reference");
    let strategy = event();
    let events: Vec<TraceEvent> = (0..65_536 * 5 / 2)
        .map(|_| strategy.sample(&mut rng))
        .collect();
    assert_frames_match(&events, 65_536);
}
