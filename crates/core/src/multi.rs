//! Multi-context CBWS prediction.
//!
//! **Extension beyond the paper's evaluation.** The Fig. 8 hardware holds a
//! single tracking context, so switching between static blocks flushes all
//! cross-iteration state (`CbwsPredictor::block_begin`). Workloads that
//! alternate between two or more tight loops at a fine grain — fft's
//! per-stage loops, radix's histogram/permute phases — retrain on every
//! switch. This module keeps a small LRU-managed set of per-block
//! contexts, each a complete [`CbwsPredictor`], so returning to a recently
//! seen block resumes its history. Cost scales linearly: each context
//! carries the full Fig. 8 storage (≈1 KB). The `ext_comparison` binary
//! and the `ablations` bench quantify the benefit.

use crate::predictor::{cbws_metrics, cbws_params, CbwsConfig, CbwsPredictor, CbwsStats};
use cbws_describe::{ComponentDescription, ComponentKind, Describe, ParamSpec};
use cbws_prefetchers::{PrefetchContext, Prefetcher};
use cbws_telemetry::Telemetry;
use cbws_trace::{BlockId, LineAddr};

#[derive(Debug, Clone)]
struct Context {
    block: BlockId,
    predictor: CbwsPredictor,
    lru: u64,
}

/// A CBWS prefetcher with `contexts` independent per-block tracking
/// contexts, LRU-replaced.
#[derive(Debug, Clone)]
pub struct MultiCbwsPrefetcher {
    cfg: CbwsConfig,
    contexts: Vec<Context>,
    capacity: usize,
    active: Option<usize>,
    stamp: u64,
    context_evictions: u64,
    telemetry: Telemetry,
}

impl MultiCbwsPrefetcher {
    /// Creates a multi-context CBWS prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is zero or `cfg` is degenerate.
    pub fn new(cfg: CbwsConfig, contexts: usize) -> Self {
        assert!(contexts > 0, "at least one context required");
        // Validate the configuration eagerly.
        let _ = CbwsPredictor::new(cfg);
        MultiCbwsPrefetcher {
            cfg,
            contexts: Vec::with_capacity(contexts),
            capacity: contexts,
            active: None,
            stamp: 0,
            context_evictions: 0,
            telemetry: Telemetry::disabled(),
        }
    }

    /// A fresh per-block predictor wired to the attached telemetry sink.
    fn new_predictor(&self) -> CbwsPredictor {
        let mut p = CbwsPredictor::new(self.cfg);
        p.set_telemetry(self.telemetry.clone());
        p
    }

    /// Number of contexts currently allocated.
    pub fn allocated_contexts(&self) -> usize {
        self.contexts.len()
    }

    /// Contexts evicted due to capacity (block working-set thrash signal).
    pub fn context_evictions(&self) -> u64 {
        self.context_evictions
    }

    /// Aggregated statistics over all live contexts.
    pub fn stats(&self) -> CbwsStats {
        let mut acc = CbwsStats::default();
        for c in &self.contexts {
            let s = c.predictor.stats();
            acc.blocks += s.blocks;
            acc.prediction_hits += s.prediction_hits;
            acc.prediction_misses += s.prediction_misses;
            acc.vector_overflows += s.vector_overflows;
            acc.block_switches += s.block_switches;
        }
        acc
    }

    fn activate(&mut self, id: BlockId) -> usize {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(i) = self.contexts.iter().position(|c| c.block == id) {
            self.contexts[i].lru = stamp;
            return i;
        }
        if self.contexts.len() < self.capacity {
            self.contexts.push(Context {
                block: id,
                predictor: self.new_predictor(),
                lru: stamp,
            });
            return self.contexts.len() - 1;
        }
        let victim = self
            .contexts
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.lru)
            .map(|(i, _)| i)
            .expect("capacity > 0");
        self.context_evictions += 1;
        self.contexts[victim] = Context {
            block: id,
            predictor: self.new_predictor(),
            lru: stamp,
        };
        victim
    }
}

impl Describe for MultiCbwsPrefetcher {
    fn describe(&self) -> ComponentDescription {
        let mut d = ComponentDescription::new(
            format!("CBWSx{}", self.capacity),
            ComponentKind::Prefetcher,
            "Multi-context CBWS: a small LRU-managed set of per-block tracking \
             contexts, each a complete Fig. 8 predictor, so returning to a \
             recently seen block resumes its cross-iteration history instead \
             of retraining. Cost scales linearly with the context count.",
        )
        .paper_section("§V (extension: per-block contexts)")
        .extension()
        .storage_bits(self.storage_bits())
        .param(ParamSpec::new(
            "contexts",
            "independent per-block tracking contexts, LRU-replaced",
            self.capacity.to_string(),
            "≥ 1",
        ))
        .metrics(cbws_metrics())
        .metrics(cbws_describe::prefetcher_hook_metrics());
        for p in cbws_params(&self.cfg) {
            d = d.param(ParamSpec::new(
                format!("cbws.{}", p.name),
                p.doc,
                p.default,
                p.range,
            ));
        }
        d
    }
}

impl Prefetcher for MultiCbwsPrefetcher {
    fn name(&self) -> &'static str {
        "CBWSxN"
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits() * self.capacity as u64
    }

    fn on_access(&mut self, ctx: &PrefetchContext, _out: &mut Vec<LineAddr>) {
        if let Some(i) = self.active {
            if self.cfg.observe_l1_hits || ctx.reached_l2() {
                self.contexts[i].predictor.observe(ctx.addr.line());
            }
        }
    }

    fn on_block_begin(&mut self, id: BlockId) {
        let i = self.activate(id);
        self.contexts[i].predictor.block_begin(id);
        self.active = Some(i);
    }

    fn on_block_end(&mut self, id: BlockId, out: &mut Vec<LineAddr>) {
        if let Some(i) = self.active.take() {
            if self.contexts[i].block == id {
                self.contexts[i].predictor.block_end(id, out);
            }
        }
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        for c in &mut self.contexts {
            c.predictor.set_telemetry(telemetry.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_trace::{Addr, Pc};

    fn drive_block(pf: &mut MultiCbwsPrefetcher, id: u32, base: u64, iter: u64) -> Vec<LineAddr> {
        pf.on_block_begin(BlockId(id));
        let mut out = Vec::new();
        let ctx = PrefetchContext {
            pc: Pc(0x40),
            addr: Addr((base + iter * 32) * 64),
            is_store: false,
            l1_hit: true,
            l2_hit: true,
            in_block: true,
        };
        pf.on_access(&ctx, &mut out);
        pf.on_block_end(BlockId(id), &mut out);
        out
    }

    #[test]
    fn interleaved_blocks_keep_independent_histories() {
        // Alternate between two strided loops every iteration: a single
        // context would flush constantly; two contexts both converge.
        let mut pf = MultiCbwsPrefetcher::new(CbwsConfig::default(), 2);
        let mut last_a = Vec::new();
        let mut last_b = Vec::new();
        for i in 0..12 {
            last_a = drive_block(&mut pf, 0, 0x10000, i);
            last_b = drive_block(&mut pf, 1, 0x90000, i);
        }
        assert!(
            !last_a.is_empty(),
            "block 0 should predict despite interleaving"
        );
        assert!(
            !last_b.is_empty(),
            "block 1 should predict despite interleaving"
        );
        assert_eq!(pf.allocated_contexts(), 2);
        assert_eq!(pf.context_evictions(), 0);
    }

    #[test]
    fn single_context_baseline_thrashes_on_interleave() {
        // The same interleave with capacity 1 reproduces the paper's
        // single-context behaviour: every switch flushes.
        let mut pf = MultiCbwsPrefetcher::new(CbwsConfig::default(), 1);
        let mut last = Vec::new();
        for i in 0..12 {
            drive_block(&mut pf, 0, 0x10000, i);
            last = drive_block(&mut pf, 1, 0x90000, i);
        }
        assert!(
            last.is_empty(),
            "single context cannot survive interleaving"
        );
        assert!(pf.context_evictions() > 0);
    }

    #[test]
    fn lru_evicts_the_stalest_block() {
        let mut pf = MultiCbwsPrefetcher::new(CbwsConfig::default(), 2);
        drive_block(&mut pf, 0, 0, 0);
        drive_block(&mut pf, 1, 1 << 16, 0);
        drive_block(&mut pf, 0, 0, 1); // refresh block 0
        drive_block(&mut pf, 2, 1 << 20, 0); // evicts block 1
        assert_eq!(pf.allocated_contexts(), 2);
        let blocks: Vec<u32> = pf.contexts.iter().map(|c| c.block.0).collect();
        assert!(blocks.contains(&0) && blocks.contains(&2), "{blocks:?}");
    }

    #[test]
    fn storage_scales_with_contexts() {
        let one = MultiCbwsPrefetcher::new(CbwsConfig::default(), 1);
        let four = MultiCbwsPrefetcher::new(CbwsConfig::default(), 4);
        assert_eq!(four.storage_bits(), 4 * one.storage_bits());
        assert_eq!(one.storage_bits(), CbwsConfig::default().storage_bits());
    }

    #[test]
    fn aggregated_stats_cover_all_contexts() {
        let mut pf = MultiCbwsPrefetcher::new(CbwsConfig::default(), 2);
        for i in 0..5 {
            drive_block(&mut pf, 0, 0, i);
            drive_block(&mut pf, 1, 1 << 16, i);
        }
        assert_eq!(pf.stats().blocks, 10);
    }
}
