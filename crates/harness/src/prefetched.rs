//! Glue between the core timing model and a prefetcher-equipped memory
//! hierarchy.

use cbws_prefetchers::{PrefetchContext, Prefetcher};
use cbws_sim_cpu::{MemResult, MemSystem};
use cbws_sim_mem::MemoryHierarchy;
use cbws_telemetry::Telemetry;
use cbws_trace::{BlockId, LineAddr, MemAccess};

/// A [`MemoryHierarchy`] driven by a [`Prefetcher`].
///
/// On every committed demand access the hierarchy is accessed first (so the
/// prefetcher sees the true hit/miss levels, as hardware training logic
/// does), then the prefetcher observes the access and its candidate lines
/// are enqueued. Block boundary instructions are forwarded with their commit
/// timestamps.
///
/// With telemetry attached it counts every prefetcher hook under the
/// `prefetcher.*` namespace: `accesses`, `block_begins`, `block_ends`, and
/// `candidates` (lines emitted across all hooks).
pub struct PrefetchedMemory<P> {
    hierarchy: MemoryHierarchy,
    prefetcher: P,
    in_block: bool,
    scratch: Vec<LineAddr>,
    last_time: u64,
    telemetry: Telemetry,
}

impl<P: Prefetcher> PrefetchedMemory<P> {
    /// Wraps a hierarchy and a prefetcher.
    pub fn new(hierarchy: MemoryHierarchy, prefetcher: P) -> Self {
        PrefetchedMemory {
            hierarchy,
            prefetcher,
            in_block: false,
            scratch: Vec::new(),
            last_time: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink counting the `prefetcher.*` hooks.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The wrapped hierarchy.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// The wrapped prefetcher.
    pub fn prefetcher(&self) -> &P {
        &self.prefetcher
    }

    /// Finalizes the run (lands in-flight prefetches, accounts wrong ones)
    /// and returns the hierarchy stats.
    pub fn finish(mut self) -> cbws_sim_mem::MemStats {
        let t = self.last_time + 1;
        self.hierarchy.finish(t)
    }

    /// Counts one prefetcher hook and the candidates it left in `scratch`:
    /// a single branch when telemetry is disabled.
    #[inline]
    fn note_hook(&self, hook: &str) {
        if self.telemetry.is_enabled() {
            self.telemetry.count(hook, 1);
            if !self.scratch.is_empty() {
                self.telemetry
                    .count("prefetcher.candidates", self.scratch.len() as u64);
            }
        }
    }

    fn issue(&mut self, now: u64) {
        // One batched call per candidate column: the hierarchy advances
        // once and resolves every line's L2 residency in a single pass
        // over the tag lanes (`Cache::probe_batch`) instead of per line.
        self.hierarchy.enqueue_prefetch_batch(now, &self.scratch);
        self.scratch.clear();
    }
}

impl<P: Prefetcher> MemSystem for PrefetchedMemory<P> {
    fn access(&mut self, now: u64, access: &MemAccess) -> MemResult {
        self.last_time = self.last_time.max(now);
        let out = self
            .hierarchy
            .demand_access(now, access.addr, access.kind.is_store());
        let ctx = PrefetchContext {
            pc: access.pc,
            addr: access.addr,
            is_store: access.kind.is_store(),
            l1_hit: out.l1_hit,
            l2_hit: matches!(
                out.class,
                Some(cbws_sim_mem::DemandClass::PlainHit | cbws_sim_mem::DemandClass::Timely)
            ),
            in_block: self.in_block,
        };
        self.scratch.clear();
        self.prefetcher.on_access(&ctx, &mut self.scratch);
        self.note_hook("prefetcher.accesses");
        self.issue(now);
        MemResult {
            latency: out.latency,
            l1_hit: out.l1_hit,
        }
    }

    fn block_begin(&mut self, now: u64, id: BlockId) {
        self.last_time = self.last_time.max(now);
        self.in_block = true;
        self.prefetcher.on_block_begin(id);
        self.telemetry.count("prefetcher.block_begins", 1);
    }

    fn block_end(&mut self, now: u64, id: BlockId) {
        self.last_time = self.last_time.max(now);
        self.in_block = false;
        self.scratch.clear();
        self.prefetcher.on_block_end(id, &mut self.scratch);
        self.note_hook("prefetcher.block_ends");
        self.issue(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_prefetchers::{NullPrefetcher, StridePrefetcher};
    use cbws_sim_cpu::{Core, CoreConfig};
    use cbws_sim_mem::HierarchyConfig;
    use cbws_trace::{Addr, Pc, TraceBuilder};

    fn strided_trace(n: u64, stride: u64) -> cbws_trace::Trace {
        let mut b = TraceBuilder::new();
        for i in 0..n {
            b.load(Pc(0x40), Addr(i * stride));
            b.alu(Pc(0x44), 3);
        }
        b.finish()
    }

    #[test]
    fn stride_prefetching_cuts_misses_and_cycles() {
        let trace = strided_trace(3000, 256);
        let mut null = PrefetchedMemory::new(
            MemoryHierarchy::new(HierarchyConfig::default()),
            NullPrefetcher,
        );
        let base = Core::new(CoreConfig::default()).run(&trace, &mut null);
        let base_mem = null.finish();

        let mut pf = PrefetchedMemory::new(
            MemoryHierarchy::new(HierarchyConfig::default()),
            StridePrefetcher::default(),
        );
        let fast = Core::new(CoreConfig::default()).run(&trace, &mut pf);
        let pf_mem = pf.finish();

        assert!(pf_mem.l2_misses() < base_mem.l2_misses() / 2);
        assert!(
            fast.cycles < base.cycles,
            "{} !< {}",
            fast.cycles,
            base.cycles
        );
        assert!(pf_mem.timely > 0);
    }

    #[test]
    fn classification_partition_holds_end_to_end() {
        let trace = strided_trace(500, 192);
        let mut pf = PrefetchedMemory::new(
            MemoryHierarchy::new(HierarchyConfig::default()),
            StridePrefetcher::default(),
        );
        Core::new(CoreConfig::default()).run(&trace, &mut pf);
        let mem = pf.finish();
        assert!(mem.classification_is_partition());
    }
}
