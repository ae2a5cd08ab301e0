#![warn(missing_docs)]

//! Baseline hardware prefetchers evaluated by the CBWS paper, and the
//! [`Prefetcher`] trait shared with the CBWS schemes in `cbws-core`.
//!
//! Implemented baselines (§VII, Table II):
//!
//! * [`NullPrefetcher`] — the no-prefetching configuration.
//! * [`StridePrefetcher`] — classic PC-indexed stride prefetching
//!   (Fu/Patel/Janssens; Jouppi), 256-entry fully-associative table.
//! * [`GhbPrefetcher`] in [`GhbKind::GlobalDeltaCorrelation`] mode —
//!   GHB G/DC of Nesbit & Smith, 256 entries, history 3, degree 3.
//! * [`GhbPrefetcher`] in [`GhbKind::PcDeltaCorrelation`] mode —
//!   GHB PC/DC, same budget.
//! * [`SmsPrefetcher`] — Spatial Memory Streaming (Somogyi et al.):
//!   32-entry accumulation table, 32-entry filter table, 512-entry pattern
//!   history table, 2 KB regions.
//!
//! All prefetchers observe the committed demand-access stream annotated with
//! hit/miss levels and emit candidate lines to prefetch **into the L2**, as
//! configured in the paper. Each prefetcher applies its own training filter
//! (e.g. GHB trains on misses only; SMS observes L2 accesses).
//!
//! # Example
//!
//! ```
//! use cbws_prefetchers::{Prefetcher, StridePrefetcher, PrefetchContext};
//! use cbws_trace::{Addr, Pc};
//!
//! let mut pf = StridePrefetcher::default();
//! let mut out = Vec::new();
//! for i in 0..4u64 {
//!     let ctx = PrefetchContext::demand_miss(Pc(0x40), Addr(i * 256));
//!     pf.on_access(&ctx, &mut out);
//! }
//! // A confirmed 256-byte (4-line) stride yields predictions.
//! assert!(!out.is_empty());
//! ```

mod ampm;
mod fdp;
mod ghb;
mod markov;
mod sms;
mod stems;
mod stride;

pub use ampm::{AmpmConfig, AmpmPrefetcher};
pub use fdp::{FdpConfig, FdpStats, FeedbackDirected};
pub use ghb::{GhbConfig, GhbKind, GhbPrefetcher};
pub use markov::{MarkovConfig, MarkovPrefetcher};
pub use sms::{SmsConfig, SmsPrefetcher};
pub use stems::{StemsConfig, StemsPrefetcher};
pub use stride::{StrideConfig, StridePrefetcher};

use cbws_trace::{Addr, BlockId, LineAddr, Pc};

/// One committed demand access as observed by a prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchContext {
    /// PC of the memory instruction.
    pub pc: Pc,
    /// Byte address accessed.
    pub addr: Addr,
    /// Whether the access was a store.
    pub is_store: bool,
    /// Whether the access hit in the L1 (if so it never reached the L2).
    pub l1_hit: bool,
    /// Whether the access hit in the L2 (only meaningful when `!l1_hit`;
    /// in-flight and queued prefetch hits count as misses here).
    pub l2_hit: bool,
    /// Whether the access committed inside an annotated code block.
    pub in_block: bool,
}

impl PrefetchContext {
    /// A convenience constructor for an access that missed both levels.
    pub fn demand_miss(pc: Pc, addr: Addr) -> Self {
        PrefetchContext {
            pc,
            addr,
            is_store: false,
            l1_hit: false,
            l2_hit: false,
            in_block: false,
        }
    }

    /// Whether the access reached the L2 (i.e. missed in the L1).
    pub fn reached_l2(&self) -> bool {
        !self.l1_hit
    }

    /// Whether the access missed in the last-level cache.
    pub fn llc_miss(&self) -> bool {
        !self.l1_hit && !self.l2_hit
    }
}

/// A hardware prefetcher observing the committed access stream.
///
/// Implementations push candidate line addresses into `out`; the simulation
/// harness deduplicates against cache/queue state and issues them to the
/// memory hierarchy. Pushing into a caller-provided buffer avoids a
/// per-access allocation.
pub trait Prefetcher {
    /// Short display name (used in result tables, e.g. `"SMS"`).
    fn name(&self) -> &'static str;

    /// Estimated storage budget in bits, following the accounting style of
    /// the paper's Table III.
    fn storage_bits(&self) -> u64;

    /// Observes one committed demand access and appends prefetch candidate
    /// lines to `out`.
    fn on_access(&mut self, ctx: &PrefetchContext, out: &mut Vec<LineAddr>);

    /// Observes a committed `BLOCK_BEGIN(id)` instruction. Baselines ignore
    /// block boundaries; the CBWS schemes override this.
    fn on_block_begin(&mut self, _id: BlockId) {}

    /// Observes a committed `BLOCK_END(id)` instruction and may append
    /// prefetch candidates (the CBWS prediction point).
    fn on_block_end(&mut self, _id: BlockId, _out: &mut Vec<LineAddr>) {}

    /// Attaches a telemetry sink for prefetcher-internal observability
    /// (e.g. the CBWS differential-history-table lookups). Stateless
    /// baselines keep the default no-op.
    fn attach_telemetry(&mut self, _telemetry: &cbws_telemetry::Telemetry) {}
}

/// The no-prefetching baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPrefetcher;

impl cbws_describe::Describe for NullPrefetcher {
    fn describe(&self) -> cbws_describe::ComponentDescription {
        cbws_describe::ComponentDescription::new(
            Prefetcher::name(self),
            cbws_describe::ComponentKind::Prefetcher,
            "The no-prefetching configuration: observes the demand stream and \
             never emits a candidate. Baseline for MPKI and perf/cost \
             normalization (Figs. 12 and 15).",
        )
        .paper_section("§VII (baseline)")
        .storage_bits(0)
        .metrics(cbws_describe::prefetcher_hook_metrics())
    }
}

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &'static str {
        "No-Prefetch"
    }

    fn storage_bits(&self) -> u64 {
        0
    }

    fn on_access(&mut self, _ctx: &PrefetchContext, _out: &mut Vec<LineAddr>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_prefetcher_is_inert() {
        let mut pf = NullPrefetcher;
        let mut out = Vec::new();
        pf.on_access(&PrefetchContext::demand_miss(Pc(0), Addr(0)), &mut out);
        pf.on_block_begin(BlockId(0));
        pf.on_block_end(BlockId(0), &mut out);
        assert!(out.is_empty());
        assert_eq!(pf.storage_bits(), 0);
        assert_eq!(pf.name(), "No-Prefetch");
    }

    #[test]
    fn context_level_helpers() {
        let mut c = PrefetchContext::demand_miss(Pc(0), Addr(0));
        assert!(c.reached_l2());
        assert!(c.llc_miss());
        c.l2_hit = true;
        assert!(!c.llc_miss());
        c.l1_hit = true;
        assert!(!c.reached_l2());
    }
}
