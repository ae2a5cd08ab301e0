//! Markov prefetching (Joseph & Grunwald, ISCA 1997).
//!
//! **Extension beyond the paper's evaluation.** The paper's related work
//! (§III-A) describes it as "a probabilistic model that correlates
//! consecutive pairs of memory addresses" and argues CBWS improves on it by
//! associating whole address *sets* with code blocks. Implementing it lets
//! the extended comparison measure that claim.
//!
//! Model: a direct-mapped correlation table maps a miss address to its two
//! most recent successors in the global miss stream; on a miss, both
//! remembered successors are prefetched.

use crate::{PrefetchContext, Prefetcher};
use cbws_describe::{ComponentDescription, ComponentKind, Describe, ParamSpec};
use cbws_trace::LineAddr;

/// Markov-prefetcher parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkovConfig {
    /// Correlation-table entries (power of two, direct-mapped).
    pub entries: usize,
    /// Successors remembered (and prefetched) per entry, at most 4.
    pub successors: usize,
}

impl Default for MarkovConfig {
    fn default() -> Self {
        MarkovConfig {
            entries: 4096,
            successors: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    line: LineAddr,
    valid: bool,
    successors: [LineAddr; 4],
    count: usize,
}

/// The Markov prefetcher. Trains on the LLC miss stream.
#[derive(Debug, Clone)]
pub struct MarkovPrefetcher {
    cfg: MarkovConfig,
    table: Vec<Entry>,
    last_miss: Option<LineAddr>,
}

impl MarkovPrefetcher {
    /// Creates a Markov prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `successors` is not in
    /// `1..=4`.
    pub fn new(cfg: MarkovConfig) -> Self {
        assert!(
            cfg.entries.is_power_of_two(),
            "table size must be a power of two"
        );
        assert!(
            (1..=4).contains(&cfg.successors),
            "successors must be 1..=4"
        );
        MarkovPrefetcher {
            table: vec![Entry::default(); cfg.entries],
            cfg,
            last_miss: None,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MarkovConfig {
        &self.cfg
    }

    fn slot(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.cfg.entries - 1)
    }

    /// Records `next` as the most recent successor of `prev` (MRU-first,
    /// deduplicated).
    fn train(&mut self, prev: LineAddr, next: LineAddr) {
        let k = self.cfg.successors;
        let slot = self.slot(prev);
        let e = &mut self.table[slot];
        if !e.valid || e.line != prev {
            *e = Entry {
                line: prev,
                valid: true,
                successors: Default::default(),
                count: 0,
            };
        }
        if let Some(pos) = e.successors[..e.count].iter().position(|&s| s == next) {
            // Move to MRU.
            e.successors[..=pos].rotate_right(1);
        } else {
            let new_count = (e.count + 1).min(k);
            e.successors[..new_count].rotate_right(1);
            e.count = new_count;
        }
        e.successors[0] = next;
    }

    fn predict(&self, line: LineAddr, out: &mut Vec<LineAddr>) {
        let e = self.table[self.slot(line)];
        if e.valid && e.line == line {
            out.extend_from_slice(&e.successors[..e.count]);
        }
    }
}

impl Default for MarkovPrefetcher {
    fn default() -> Self {
        MarkovPrefetcher::new(MarkovConfig::default())
    }
}

impl Describe for MarkovPrefetcher {
    fn describe(&self) -> ComponentDescription {
        let c = &self.cfg;
        ComponentDescription::new(
            Prefetcher::name(self),
            ComponentKind::Prefetcher,
            "Markov prefetching (Joseph & Grunwald, ISCA 1997): a direct-mapped \
             correlation table mapping each miss line to its most recent \
             successors in the global miss stream, all prefetched on a miss. \
             Tests §III-A's claim that address sets bound to code blocks beat \
             pairwise correlation.",
        )
        .paper_section("§III-A (related work)")
        .extension()
        .storage_bits(self.storage_bits())
        .param(ParamSpec::new(
            "entries",
            "direct-mapped correlation-table entries",
            c.entries.to_string(),
            "power of two ≥ 1",
        ))
        .param(ParamSpec::new(
            "successors",
            "successors remembered (and prefetched) per entry",
            c.successors.to_string(),
            "1-4",
        ))
        .metrics(cbws_describe::prefetcher_hook_metrics())
    }
}

impl Prefetcher for MarkovPrefetcher {
    fn name(&self) -> &'static str {
        "Markov"
    }

    fn storage_bits(&self) -> u64 {
        // Entry: 36-bit tag + successors x 32-bit lines + valid/count.
        (36 + self.cfg.successors as u64 * 32 + 4) * self.cfg.entries as u64
    }

    fn on_access(&mut self, ctx: &PrefetchContext, out: &mut Vec<LineAddr>) {
        if !ctx.llc_miss() {
            return;
        }
        let line = ctx.addr.line();
        if let Some(prev) = self.last_miss {
            if prev != line {
                self.train(prev, line);
            }
        }
        self.last_miss = Some(line);
        self.predict(line, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_trace::{Addr, Pc};

    fn miss(line: u64) -> PrefetchContext {
        PrefetchContext::demand_miss(Pc(0x40), Addr(line * 64))
    }

    fn drive(pf: &mut MarkovPrefetcher, lines: &[u64]) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for &l in lines {
            out.clear();
            pf.on_access(&miss(l), &mut out);
        }
        out
    }

    #[test]
    fn learns_pair_correlation() {
        let mut pf = MarkovPrefetcher::default();
        // Sequence A B ... A: on the second A, predict B.
        let out = drive(&mut pf, &[100, 200, 300, 100]);
        assert_eq!(out, vec![LineAddr(200)]);
    }

    #[test]
    fn remembers_two_successors_mru_first() {
        let mut pf = MarkovPrefetcher::default();
        // A->B then A->C: both remembered, C most recent.
        let out = drive(&mut pf, &[100, 200, 100, 300, 100]);
        assert_eq!(out, vec![LineAddr(300), LineAddr(200)]);
    }

    #[test]
    fn repeated_successor_does_not_duplicate() {
        let mut pf = MarkovPrefetcher::default();
        let out = drive(&mut pf, &[100, 200, 100, 200, 100]);
        assert_eq!(out, vec![LineAddr(200)]);
    }

    #[test]
    fn cold_misses_silent() {
        let mut pf = MarkovPrefetcher::default();
        let out = drive(&mut pf, &[1, 2, 3, 4, 5]);
        assert!(out.is_empty());
    }

    #[test]
    fn hits_do_not_train() {
        let mut pf = MarkovPrefetcher::default();
        let mut out = Vec::new();
        for l in [100u64, 200, 100] {
            let mut c = miss(l);
            c.l2_hit = true;
            pf.on_access(&c, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn direct_mapped_aliasing_replaces() {
        let cfg = MarkovConfig {
            entries: 2,
            successors: 2,
        };
        let mut pf = MarkovPrefetcher::new(cfg);
        // Lines 100 and 102 alias (entries=2, both even): later training
        // evicts the earlier tag.
        drive(&mut pf, &[100, 1, 102, 3]);
        let out = drive(&mut pf, &[100]);
        assert!(out.is_empty(), "aliased entry must not mispredict: {out:?}");
    }

    #[test]
    fn storage_accounting() {
        let pf = MarkovPrefetcher::default();
        // 4096 x (36 + 64 + 4) bits = 52 KB.
        assert_eq!(pf.storage_bits(), 4096 * 104);
    }
}
