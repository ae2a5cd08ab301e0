//! PC-indexed stride prefetcher (Fu/Patel/Janssens 1992; Jouppi 1990).
//!
//! The paper configures it with an unrealistically large 256-entry
//! fully-associative table "to demonstrate the benefits of CBWS over a
//! stride prefetcher" (§VII), for a 2.25 KB budget (Table III: each entry
//! holds a 48-bit PC tag plus two 12-bit strides).

use crate::{PrefetchContext, Prefetcher};
use cbws_describe::{ComponentDescription, ComponentKind, Describe, ParamSpec};
use cbws_trace::{LineAddr, Pc};

/// Stride-prefetcher parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideConfig {
    /// Fully-associative table entries (paper: 256).
    pub entries: usize,
    /// Strides prefetched per confirmed access.
    pub degree: u32,
    /// Additional lead, in strides, between the demand stream and the first
    /// prefetched address (a "distance" knob; the paper's conservative
    /// static configuration has none).
    pub distance: u32,
    /// Consecutive identical strides required before prefetching.
    pub confirm_threshold: u8,
    /// Train on all L2 demand accesses instead of misses only. The paper's
    /// §II argument is exactly that static prefetchers must stay
    /// conservative (miss-trained) to avoid pollution outside loops, which
    /// is what CBWS's compiler hints relax.
    pub train_on_hits: bool,
}

impl Default for StrideConfig {
    fn default() -> Self {
        StrideConfig {
            entries: 256,
            degree: 2,
            distance: 0,
            confirm_threshold: 2,
            train_on_hits: false,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    pc: Pc,
    last_line: LineAddr,
    stride: i64,
    confidence: u8,
    lru: u64,
}

/// The PC-indexed stride prefetcher. Trains on demand accesses that reach
/// the L2 (L1 misses), the stream an L2-side prefetcher observes.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: StrideConfig,
    table: Vec<StrideEntry>,
    stamp: u64,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.entries` is zero.
    pub fn new(cfg: StrideConfig) -> Self {
        assert!(cfg.entries > 0, "stride table needs at least one entry");
        StridePrefetcher {
            cfg,
            table: Vec::with_capacity(cfg.entries),
            stamp: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &StrideConfig {
        &self.cfg
    }
}

impl Default for StridePrefetcher {
    fn default() -> Self {
        StridePrefetcher::new(StrideConfig::default())
    }
}

impl Describe for StridePrefetcher {
    fn describe(&self) -> ComponentDescription {
        let c = &self.cfg;
        ComponentDescription::new(
            Prefetcher::name(self),
            ComponentKind::Prefetcher,
            "PC-indexed stride prefetcher (Fu/Patel/Janssens 1992; Jouppi 1990): \
             a fully-associative table of per-PC last-line/stride pairs that \
             prefetches `degree` strides ahead once a stride repeats \
             `confirm_threshold` times. The paper sizes it at an \
             unrealistically large 256 entries to strengthen the baseline.",
        )
        .paper_section("§VII, Tables II-III (baseline)")
        .storage_bits(self.storage_bits())
        .param(ParamSpec::new(
            "entries",
            "fully-associative table entries (paper: 256)",
            c.entries.to_string(),
            "≥ 1",
        ))
        .param(ParamSpec::new(
            "degree",
            "strides prefetched per confirmed access",
            c.degree.to_string(),
            "≥ 0",
        ))
        .param(ParamSpec::new(
            "distance",
            "additional lead, in strides, ahead of the demand stream \
             (the paper's conservative static configuration has none)",
            c.distance.to_string(),
            "≥ 0",
        ))
        .param(ParamSpec::new(
            "confirm_threshold",
            "consecutive identical strides required before prefetching",
            c.confirm_threshold.to_string(),
            "≥ 1",
        ))
        .param(ParamSpec::new(
            "train_on_hits",
            "train on all L2 demand accesses instead of misses only \
             (§II: static prefetchers stay miss-trained to avoid pollution)",
            c.train_on_hits.to_string(),
            "bool",
        ))
        .metrics(cbws_describe::prefetcher_hook_metrics())
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &'static str {
        "Stride"
    }

    fn storage_bits(&self) -> u64 {
        // Table III: (PC + 2 x stride) x entries = (48 + 2*12) * 256.
        (48 + 2 * 12) * self.cfg.entries as u64
    }

    fn on_access(&mut self, ctx: &PrefetchContext, out: &mut Vec<LineAddr>) {
        let trains = if self.cfg.train_on_hits {
            ctx.reached_l2()
        } else {
            ctx.llc_miss()
        };
        if !trains {
            return;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let line = ctx.addr.line();

        if let Some(e) = self.table.iter_mut().find(|e| e.pc == ctx.pc) {
            e.lru = stamp;
            let stride = line.delta(e.last_line);
            if stride == 0 {
                return; // same line; no training signal
            }
            if stride == e.stride {
                e.confidence = e.confidence.saturating_add(1);
            } else {
                e.stride = stride;
                e.confidence = 1;
            }
            e.last_line = line;
            if e.confidence >= self.cfg.confirm_threshold {
                let lead = i64::from(self.cfg.distance);
                for k in 1..=i64::from(self.cfg.degree) {
                    out.push(line.offset(e.stride * (lead + k)));
                }
            }
            return;
        }

        // Allocate (LRU victim if full).
        let entry = StrideEntry {
            pc: ctx.pc,
            last_line: line,
            stride: 0,
            confidence: 0,
            lru: stamp,
        };
        if self.table.len() < self.cfg.entries {
            self.table.push(entry);
        } else if let Some(v) = self.table.iter_mut().min_by_key(|e| e.lru) {
            *v = entry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_trace::Addr;

    fn miss(pc: u64, addr: u64) -> PrefetchContext {
        PrefetchContext::demand_miss(Pc(pc), Addr(addr))
    }

    #[test]
    fn confirmed_stride_prefetches_degree_lines() {
        let mut pf = StridePrefetcher::default();
        let mut out = Vec::new();
        for i in 0..3u64 {
            out.clear();
            pf.on_access(&miss(0x40, i * 128), &mut out);
        }
        // Stride = 2 lines, confirmed on 3rd access (line 4); degree 2 at
        // distance 0: strides 1..=2 ahead.
        assert_eq!(out, vec![LineAddr(6), LineAddr(8)]);
    }

    #[test]
    fn unconfirmed_stride_is_silent() {
        let mut pf = StridePrefetcher::default();
        let mut out = Vec::new();
        pf.on_access(&miss(0x40, 0), &mut out);
        pf.on_access(&miss(0x40, 128), &mut out);
        assert!(out.is_empty(), "stride not yet confirmed");
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut pf = StridePrefetcher::default();
        let mut out = Vec::new();
        for addr in [0u64, 128, 256, 384] {
            pf.on_access(&miss(0x40, addr), &mut out);
        }
        out.clear();
        pf.on_access(&miss(0x40, 384 + 320), &mut out); // new stride (5 lines)
        assert!(out.is_empty());
        pf.on_access(&miss(0x40, 384 + 640), &mut out); // confirm once
        assert!(!out.is_empty());
    }

    #[test]
    fn negative_strides_supported() {
        let mut pf = StridePrefetcher::default();
        let mut out = Vec::new();
        for i in (0..4u64).rev() {
            out.clear();
            pf.on_access(&miss(0x80, 4096 + i * 64), &mut out);
        }
        // Last access at line 64, stride -1: first candidate 63.
        assert_eq!(out[0], LineAddr(63));
    }

    #[test]
    fn per_pc_streams_are_independent() {
        let mut pf = StridePrefetcher::default();
        let mut out = Vec::new();
        // Interleave two PCs with different strides; both should confirm.
        for i in 0..3u64 {
            out.clear();
            pf.on_access(&miss(0x40, i * 64), &mut out);
            pf.on_access(&miss(0x44, 1 << 20 | (i * 256)), &mut out);
        }
        assert!(!out.is_empty());
    }

    #[test]
    fn l1_hits_do_not_train() {
        let mut pf = StridePrefetcher::default();
        let mut out = Vec::new();
        for i in 0..5u64 {
            let mut c = miss(0x40, i * 128);
            c.l1_hit = true;
            pf.on_access(&c, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn table_capacity_lru_eviction() {
        let mut pf = StridePrefetcher::new(StrideConfig {
            entries: 2,
            ..Default::default()
        });
        let mut out = Vec::new();
        // Train pc=1, then fill with pc=2, pc=3 evicting pc=1.
        for i in 0..3u64 {
            pf.on_access(&miss(1, i * 64), &mut out);
        }
        pf.on_access(&miss(2, 0x100000), &mut out);
        pf.on_access(&miss(3, 0x200000), &mut out);
        out.clear();
        // pc=1 must re-train from scratch: first re-access yields nothing.
        pf.on_access(&miss(1, 0x300000), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn storage_matches_table3() {
        let pf = StridePrefetcher::default();
        // 18.4 Kbit ~= 2.25 KB.
        assert_eq!(pf.storage_bits(), 18432);
    }

    #[test]
    fn same_line_repeat_does_not_poison_stride() {
        let mut pf = StridePrefetcher::default();
        let mut out = Vec::new();
        for addr in [0u64, 128, 128 + 8, 256, 384] {
            out.clear();
            pf.on_access(&miss(0x40, addr), &mut out);
        }
        assert!(
            !out.is_empty(),
            "zero-delta repeat should not reset the stream"
        );
    }
}
