//! Summary statistics over a trace.

use crate::addr::LINE_BYTES;
use crate::event::{MemKind, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Static and dynamic summary statistics for a [`crate::Trace`].
///
/// These back two of the paper's motivating measurements:
///
/// * the fraction of instructions inside annotated blocks
///   ([`TraceStats::block_instruction_fraction`]), the trace-level analogue
///   of Fig. 1's runtime fraction, and
/// * the distribution of per-block working-set sizes
///   ([`TraceStats::block_ws_within`]), used to validate the paper's claim
///   that 16 lines capture the complete working set of over 98% of dynamic
///   blocks (§IV-A).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total committed instructions.
    pub instructions: u64,
    /// Committed memory accesses.
    pub mem_accesses: u64,
    /// Committed loads.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Committed branches.
    pub branches: u64,
    /// Dynamic block instances (`BLOCK_BEGIN` count).
    pub dynamic_blocks: u64,
    /// Distinct static block ids seen.
    pub static_blocks: u64,
    /// Instructions committed inside blocks (inclusive of the bracket
    /// instructions themselves).
    pub block_instructions: u64,
    /// Memory accesses committed inside blocks.
    pub block_mem_accesses: u64,
    /// Histogram of per-dynamic-block working-set sizes (distinct lines).
    /// Index `i` counts blocks whose CBWS had exactly `i` lines; the last
    /// bucket aggregates everything `>= ws_histogram.len() - 1`.
    pub ws_histogram: Vec<u64>,
}

/// Largest exactly-tracked working-set size in [`TraceStats::ws_histogram`].
const WS_HISTOGRAM_MAX: usize = 64;

impl TraceStats {
    /// Computes statistics from an event sequence in program order.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        Self::from_event_iter(events.iter().copied())
    }

    /// Computes statistics from a streamed event sequence (e.g. a
    /// [`crate::FrameCursor`]) without materializing the events.
    pub fn from_event_iter(events: impl IntoIterator<Item = TraceEvent>) -> Self {
        let mut s = TraceStats {
            ws_histogram: vec![0; WS_HISTOGRAM_MAX + 1],
            ..Self::default()
        };
        let mut static_ids = BTreeSet::new();
        let mut in_block = false;
        let mut block_lines: BTreeSet<u64> = BTreeSet::new();

        for e in events {
            let n = e.instructions();
            s.instructions += n;
            if in_block {
                s.block_instructions += n;
            }
            match e {
                TraceEvent::BlockBegin { id } => {
                    static_ids.insert(id.0);
                    s.dynamic_blocks += 1;
                    in_block = true;
                    // `block_instructions` must include the bracket itself;
                    // the increment above ran before `in_block` was set.
                    s.block_instructions += 1;
                    block_lines.clear();
                }
                TraceEvent::BlockEnd { .. } => {
                    in_block = false;
                    let ws = block_lines.len().min(WS_HISTOGRAM_MAX);
                    s.ws_histogram[ws] += 1;
                }
                TraceEvent::Mem(m) => {
                    s.mem_accesses += 1;
                    match m.kind {
                        MemKind::Load => s.loads += 1,
                        MemKind::Store => s.stores += 1,
                    }
                    if in_block {
                        s.block_mem_accesses += 1;
                        block_lines.insert(m.addr.line().0);
                    }
                }
                TraceEvent::Branch(_) => s.branches += 1,
                TraceEvent::Alu { .. } => {}
            }
        }
        s.static_blocks = static_ids.len() as u64;
        s
    }

    /// Fraction of committed instructions inside annotated blocks, in 0..=1.
    /// Returns 0 for an empty trace.
    pub fn block_instruction_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.block_instructions as f64 / self.instructions as f64
        }
    }

    /// Fraction of dynamic blocks whose working set fits within `lines`
    /// distinct cache lines, in 0..=1. Returns 1.0 when there are no blocks.
    pub fn block_ws_within(&self, lines: usize) -> f64 {
        if self.dynamic_blocks == 0 {
            return 1.0;
        }
        let within: u64 = self
            .ws_histogram
            .iter()
            .take(lines.min(self.ws_histogram.len() - 1) + 1)
            .sum();
        within as f64 / self.dynamic_blocks as f64
    }

    /// Total bytes touched assuming each access touches one line.
    pub fn demand_bytes_upper_bound(&self) -> u64 {
        self.mem_accesses * LINE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, BlockId, Pc, TraceBuilder};

    fn sample() -> TraceStats {
        let mut b = TraceBuilder::new();
        b.alu(Pc(0), 10); // prologue outside any block
        b.annotated_loop(BlockId(0), 4, |b, i| {
            b.load(Pc(0x10), Addr(i * 4096));
            b.load(Pc(0x14), Addr(i * 4096 + 64));
            b.store(Pc(0x18), Addr(i * 4096 + 128));
            b.alu(Pc(0x1c), 2);
        });
        b.finish().stats()
    }

    #[test]
    fn instruction_accounting() {
        let s = sample();
        // 10 prologue + per iter: begin + 3 mem + 2 alu + end + branch = 8.
        assert_eq!(s.instructions, 10 + 4 * 8);
        assert_eq!(s.mem_accesses, 12);
        assert_eq!(s.loads, 8);
        assert_eq!(s.stores, 4);
        assert_eq!(s.branches, 4);
    }

    #[test]
    fn block_accounting() {
        let s = sample();
        assert_eq!(s.dynamic_blocks, 4);
        assert_eq!(s.static_blocks, 1);
        // Inside a block: begin + 3 mem + 2 alu + end = 7 per iteration.
        // The loop back-branch is outside the block.
        assert_eq!(s.block_instructions, 4 * 7);
        assert_eq!(s.block_mem_accesses, 12);
        let frac = s.block_instruction_fraction();
        assert!((frac - 28.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn ws_histogram_counts_distinct_lines() {
        let s = sample();
        // Each iteration touches 3 distinct lines.
        assert_eq!(s.ws_histogram[3], 4);
        assert_eq!(s.block_ws_within(3), 1.0);
        assert_eq!(s.block_ws_within(2), 0.0);
    }

    #[test]
    fn duplicate_lines_counted_once() {
        let mut b = TraceBuilder::new();
        b.begin_block(BlockId(0));
        b.load(Pc(0), Addr(0));
        b.load(Pc(4), Addr(8)); // same line
        b.load(Pc(8), Addr(64)); // second line
        b.end_block(BlockId(0));
        let s = b.finish().stats();
        assert_eq!(s.ws_histogram[2], 1);
    }

    #[test]
    fn empty_trace_fractions() {
        let s = TraceStats::from_events(&[]);
        assert_eq!(s.block_instruction_fraction(), 0.0);
        assert_eq!(s.block_ws_within(16), 1.0);
    }

    #[test]
    fn oversized_ws_lands_in_last_bucket() {
        let mut b = TraceBuilder::new();
        b.begin_block(BlockId(0));
        for i in 0..100u64 {
            b.load(Pc(0), Addr(i * 64));
        }
        b.end_block(BlockId(0));
        let s = b.finish().stats();
        assert_eq!(*s.ws_histogram.last().unwrap(), 1);
        assert!(s.block_ws_within(16) < 1.0);
        assert_eq!(s.block_ws_within(WS_HISTOGRAM_MAX), 1.0);
    }
}
