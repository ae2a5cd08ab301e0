#![warn(missing_docs)]

//! Trace substrate for the CBWS reproduction.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: byte/line addresses, program counters, code-block identifiers,
//! trace events, and the [`TraceBuilder`] used by the synthetic workloads to
//! emit instruction traces.
//!
//! The paper instruments benchmarks with an LLVM pass that brackets innermost
//! tight loops with two new ISA instructions, `BLOCK_BEGIN(id)` and
//! `BLOCK_END(id)`. Our stand-in for that pass is the
//! [`TraceBuilder::annotated_loop`] combinator (and the higher-level
//! `LoopNest` DSL in the `cbws-workloads` crate): kernels written against it
//! get their innermost loop bodies bracketed by [`TraceEvent::BlockBegin`] /
//! [`TraceEvent::BlockEnd`] events carrying static block ids, which is exactly
//! the contract the CBWS hardware sees in the paper.
//!
//! # Example
//!
//! ```
//! use cbws_trace::{TraceBuilder, Addr, Pc, BlockId};
//!
//! let mut b = TraceBuilder::new();
//! b.annotated_loop(BlockId(0), 4, |b, i| {
//!     b.load(Pc(0x400), Addr(0x1000 + 64 * i));
//!     b.alu(Pc(0x404), 2);
//! });
//! let trace = b.finish();
//! assert_eq!(trace.stats().dynamic_blocks, 4);
//! ```

mod addr;
mod builder;
mod event;
mod packed;
#[cfg(test)]
mod packed_oracle;
mod stats;
pub mod varint;

pub use addr::{Addr, BlockId, LineAddr, Pc, LINE_BYTES, LINE_SHIFT};
pub use builder::{BuildError, TraceBuilder};
pub use event::{BranchRecord, Dependence, MemAccess, MemKind, TraceEvent};
pub use packed::{
    checksum, EventCursor, EventRef, EventSource, FrameCursor, FrameEncoder, FrameEntry,
    FrameError, FramedTrace, PackedError, PackedTrace, SliceCursor, StreamObserver, StreamStats,
};
pub use stats::TraceStats;

use serde::{Deserialize, Serialize};

/// A complete instruction/memory trace produced by a workload kernel.
///
/// A trace is an ordered sequence of [`TraceEvent`]s, in program (commit)
/// order. Traces are what the simulator in `cbws-harness` consumes and what
/// the CBWS hardware observes (the paper's prefetcher reads addresses from
/// the in-order commit stage, §V-B).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates a trace directly from a sequence of events.
    ///
    /// Most callers should use [`TraceBuilder`] instead, which validates
    /// block nesting. This constructor performs no validation and exists for
    /// tests and for replaying externally-captured traces.
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        Trace { events }
    }

    /// The events of this trace in program order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events (not instructions; see [`TraceStats::instructions`]).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Computes summary statistics over the whole trace.
    pub fn stats(&self) -> TraceStats {
        TraceStats::from_events(&self.events)
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl IntoIterator for Trace {
    type Item = TraceEvent;
    type IntoIter = std::vec::IntoIter<TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        Trace {
            events: iter.into_iter().collect(),
        }
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<I: IntoIterator<Item = TraceEvent>>(&mut self, iter: I) {
        self.events.extend(iter);
    }
}
