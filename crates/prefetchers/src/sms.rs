//! Spatial Memory Streaming (Somogyi et al., ISCA 2006), as configured by
//! the paper: 32-entry accumulation (AGT) table, 32-entry filter table,
//! 512-entry pattern history table (PHT), 2 KB regions.
//!
//! Pattern bits are tracked at 128-byte granularity (16 granules of 2 lines
//! per 2 KB region), which is what makes Table III's 16-bit pattern field
//! consistent with the 2 KB region size.
//!
//! Lifecycle: the first access to an untracked region is its *trigger*; it
//! consults the PHT (keyed by trigger PC + in-region offset) and, on a hit,
//! streams the recorded spatial pattern into the L2. The region then sits in
//! the filter table until a second distinct granule is touched, at which
//! point it becomes an active *generation* in the AGT accumulating its
//! spatial pattern. A generation ends when its AGT entry is evicted (LRU),
//! storing the accumulated pattern into the PHT. In the original hardware a
//! generation also ends on eviction of its lines from the cache; LRU
//! eviction from a 32-entry AGT approximates that lifetime.

use crate::{PrefetchContext, Prefetcher};
use cbws_describe::{ComponentDescription, ComponentKind, Describe, ParamSpec};
use cbws_trace::{Addr, LineAddr, Pc};

/// SMS parameters (Table II defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmsConfig {
    /// Spatial region size in bytes (power of two).
    pub region_bytes: u64,
    /// Pattern granule size in bytes (power of two, ≥ line size).
    pub granule_bytes: u64,
    /// Active-generation table entries.
    pub agt_entries: usize,
    /// Filter-table entries.
    pub filter_entries: usize,
    /// Pattern-history-table entries.
    pub pht_entries: usize,
    /// A generation also ends after this many trained accesses without a
    /// touch. The original hardware ends a generation when the region's
    /// lines are evicted from the cache; an idle window is the trace-level
    /// proxy for that lifetime.
    pub idle_window: u64,
}

impl Default for SmsConfig {
    fn default() -> Self {
        SmsConfig {
            region_bytes: 2048,
            granule_bytes: 128,
            agt_entries: 32,
            filter_entries: 32,
            pht_entries: 512,
            idle_window: 256,
        }
    }
}

impl SmsConfig {
    /// Granules per region (pattern width in bits).
    pub fn granules(&self) -> u32 {
        (self.region_bytes / self.granule_bytes) as u32
    }

    /// Lines per granule.
    pub fn granule_lines(&self) -> u64 {
        self.granule_bytes / cbws_trace::LINE_BYTES
    }

    /// Bits to encode an in-region *line* offset (Table III stores 5-bit
    /// offsets for 2 KB regions of 32 lines).
    pub fn offset_bits(&self) -> u32 {
        ((self.region_bytes / cbws_trace::LINE_BYTES) as u32)
            .next_power_of_two()
            .trailing_zeros()
    }
}

#[derive(Debug, Clone, Copy)]
struct Generation {
    region: u64,
    trigger_pc: Pc,
    trigger_offset: u32,
    pattern: u32,
    lru: u64,
}

#[derive(Debug, Clone, Copy)]
struct FilterEntry {
    region: u64,
    trigger_pc: Pc,
    trigger_offset: u32,
    lru: u64,
}

#[derive(Debug, Clone, Copy)]
struct PhtEntry {
    key: u64,
    pattern: u32,
    lru: u64,
}

/// The SMS prefetcher. Observes demand accesses that reach the L2.
#[derive(Debug, Clone)]
pub struct SmsPrefetcher {
    cfg: SmsConfig,
    /// `log2(region_bytes)` and `log2(granule_bytes)`: the region and the
    /// in-region granule are bit fields of the address.
    region_shift: u32,
    granule_shift: u32,
    agt: Vec<Generation>,
    /// A lower bound on every AGT generation's `lru`: while `stamp` is
    /// within `idle_window` of it, no generation can be idle, and the
    /// retirement sweep would find nothing.
    agt_oldest: u64,
    filter: Vec<FilterEntry>,
    pht: Vec<PhtEntry>,
    stamp: u64,
}

impl SmsPrefetcher {
    /// Creates an SMS prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero-entry tables, granule
    /// smaller than a line, or non-power-of-two sizes).
    pub fn new(cfg: SmsConfig) -> Self {
        assert!(
            cfg.region_bytes.is_power_of_two(),
            "region size must be a power of two"
        );
        assert!(
            cfg.granule_bytes.is_power_of_two(),
            "granule size must be a power of two"
        );
        assert!(
            cfg.granule_bytes >= cbws_trace::LINE_BYTES,
            "granule smaller than a line"
        );
        assert!(
            cfg.region_bytes >= cfg.granule_bytes,
            "region smaller than a granule"
        );
        assert!(
            cfg.granules() <= 32,
            "pattern wider than 32 bits is unsupported"
        );
        assert!(
            cfg.agt_entries > 0 && cfg.filter_entries > 0 && cfg.pht_entries > 0,
            "tables need at least one entry"
        );
        SmsPrefetcher {
            cfg,
            region_shift: cfg.region_bytes.trailing_zeros(),
            granule_shift: cfg.granule_bytes.trailing_zeros(),
            agt: Vec::new(),
            agt_oldest: 0,
            filter: Vec::new(),
            pht: Vec::new(),
            stamp: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SmsConfig {
        &self.cfg
    }

    fn region_of(&self, addr: Addr) -> u64 {
        addr.0 >> self.region_shift
    }

    fn offset_of(&self, addr: Addr) -> u32 {
        ((addr.0 & (self.cfg.region_bytes - 1)) >> self.granule_shift) as u32
    }

    fn pht_key(pc: Pc, offset: u32) -> u64 {
        (pc.0 << 6) ^ u64::from(offset)
    }

    fn pht_store(&mut self, key: u64, pattern: u32) {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(e) = self.pht.iter_mut().find(|e| e.key == key) {
            e.pattern = pattern;
            e.lru = stamp;
            return;
        }
        let entry = PhtEntry {
            key,
            pattern,
            lru: stamp,
        };
        if self.pht.len() < self.cfg.pht_entries {
            self.pht.push(entry);
        } else if let Some(v) = self.pht.iter_mut().min_by_key(|e| e.lru) {
            *v = entry;
        }
    }

    fn pht_lookup(&self, key: u64) -> Option<u32> {
        self.pht.iter().find(|e| e.key == key).map(|e| e.pattern)
    }

    /// Ends a generation, recording its pattern (only patterns with at least
    /// two granules carry spatial information worth storing).
    fn end_generation(&mut self, g: Generation) {
        if g.pattern.count_ones() >= 2 {
            self.pht_store(Self::pht_key(g.trigger_pc, g.trigger_offset), g.pattern);
        }
    }

    /// Ends, in AGT order, every generation idle for longer than the
    /// window at `stamp`, and tightens the `agt_oldest` bound to the
    /// oldest survivor (to `stamp` when none survive: every later
    /// generation is stamped after it).
    fn retire_idle(&mut self, stamp: u64) {
        let idle = self.cfg.idle_window;
        let mut oldest = stamp;
        let mut i = 0;
        while i < self.agt.len() {
            if stamp.saturating_sub(self.agt[i].lru) > idle {
                let g = self.agt.swap_remove(i);
                self.end_generation(g);
            } else {
                oldest = oldest.min(self.agt[i].lru);
                i += 1;
            }
        }
        self.agt_oldest = oldest;
    }

    /// Emits prefetches for every granule in `pattern` except the trigger's.
    fn stream_pattern(
        &self,
        region: u64,
        trigger_offset: u32,
        pattern: u32,
        out: &mut Vec<LineAddr>,
    ) {
        let region_base_line = region * self.cfg.region_bytes / cbws_trace::LINE_BYTES;
        let gl = self.cfg.granule_lines();
        // Set granules in ascending order: a pattern holds no bit at or
        // past `granules()`.
        let mut granules = pattern & !(1 << trigger_offset);
        while granules != 0 {
            let g = u64::from(granules.trailing_zeros());
            granules &= granules - 1;
            out.extend((0..gl).map(|l| LineAddr(region_base_line + g * gl + l)));
        }
    }
}

impl Default for SmsPrefetcher {
    fn default() -> Self {
        SmsPrefetcher::new(SmsConfig::default())
    }
}

/// The SMS parameter list, shared with the CBWS+SMS hybrid's description
/// (which embeds an SMS engine with the same knobs).
pub(crate) fn sms_params(c: &SmsConfig) -> Vec<ParamSpec> {
    vec![
        ParamSpec::new(
            "region_bytes",
            "spatial region size (paper: 2 KB)",
            c.region_bytes.to_string(),
            "power of two",
        ),
        ParamSpec::new(
            "granule_bytes",
            "pattern granule size; 128 B granularity is what makes Table III's \
             16-bit pattern field consistent with 2 KB regions",
            c.granule_bytes.to_string(),
            "power of two ≥ line size",
        ),
        ParamSpec::new(
            "agt_entries",
            "active generation table entries (paper: 32)",
            c.agt_entries.to_string(),
            "≥ 1",
        ),
        ParamSpec::new(
            "filter_entries",
            "filter table entries (paper: 32)",
            c.filter_entries.to_string(),
            "≥ 1",
        ),
        ParamSpec::new(
            "pht_entries",
            "pattern history table entries (paper: 512)",
            c.pht_entries.to_string(),
            "≥ 1",
        ),
        ParamSpec::new(
            "idle_window",
            "a generation also ends after this many trained accesses without \
             a touch (trace-level proxy for cache-eviction generation end)",
            c.idle_window.to_string(),
            "≥ 1",
        ),
    ]
}

impl Describe for SmsPrefetcher {
    fn describe(&self) -> ComponentDescription {
        let mut d = ComponentDescription::new(
            Prefetcher::name(self),
            ComponentKind::Prefetcher,
            "Spatial Memory Streaming (Somogyi et al., ISCA 2006): learns the \
             spatial footprint each trigger access's region exhibits across a \
             generation, and streams the recorded pattern into the L2 when the \
             same trigger recurs. The paper's strongest baseline and the \
             fallback engine of the CBWS+SMS hybrid.",
        )
        .paper_section("§VII, Tables II-III (baseline)")
        .storage_bits(self.storage_bits())
        .metrics(cbws_describe::prefetcher_hook_metrics());
        for p in sms_params(&self.cfg) {
            d = d.param(p);
        }
        d
    }
}

impl Prefetcher for SmsPrefetcher {
    fn name(&self) -> &'static str {
        "SMS"
    }

    fn storage_bits(&self) -> u64 {
        // Table III accounting: offset 5b, PC 48b, region tag 36b,
        // pattern = granule-count bits.
        let offset = u64::from(self.cfg.offset_bits());
        let pc = 48;
        let tag = 36;
        let pattern = u64::from(self.cfg.granules());
        (offset + pc + tag) * self.cfg.filter_entries as u64
            + (offset + pc + tag + pattern) * self.cfg.agt_entries as u64
            + (pattern + pc + offset) * self.cfg.pht_entries as u64
    }

    fn on_access(&mut self, ctx: &PrefetchContext, out: &mut Vec<LineAddr>) {
        if !ctx.reached_l2() {
            return;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let region = self.region_of(ctx.addr);
        let offset = self.offset_of(ctx.addr);

        // Retire generations idle for longer than the window (the proxy for
        // the region's lines having been evicted). A generation's `lru` only
        // grows, so the sweep runs only once the oldest may have aged out.
        if stamp - self.agt_oldest > self.cfg.idle_window {
            self.retire_idle(stamp);
        }

        // Active generation: accumulate.
        if let Some(g) = self.agt.iter_mut().find(|g| g.region == region) {
            g.pattern |= 1 << offset;
            g.lru = stamp;
            return;
        }

        // Filtered region: second access promotes to a generation.
        if let Some(pos) = self.filter.iter().position(|f| f.region == region) {
            let f = self.filter[pos];
            if f.trigger_offset == offset {
                // Same granule again: stay in the filter.
                self.filter[pos].lru = stamp;
                return;
            }
            self.filter.remove(pos);
            let gen = Generation {
                region,
                trigger_pc: f.trigger_pc,
                trigger_offset: f.trigger_offset,
                pattern: (1 << f.trigger_offset) | (1 << offset),
                lru: stamp,
            };
            if self.agt.len() >= self.cfg.agt_entries {
                let victim_idx = self
                    .agt
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, g)| g.lru)
                    .map(|(i, _)| i)
                    .expect("agt non-empty");
                let victim = self.agt.swap_remove(victim_idx);
                self.end_generation(victim);
            }
            self.agt.push(gen);
            return;
        }

        // Trigger access: predict from the PHT, then start filtering.
        if let Some(pattern) = self.pht_lookup(Self::pht_key(ctx.pc, offset)) {
            self.stream_pattern(region, offset, pattern, out);
        }
        let entry = FilterEntry {
            region,
            trigger_pc: ctx.pc,
            trigger_offset: offset,
            lru: stamp,
        };
        if self.filter.len() < self.cfg.filter_entries {
            self.filter.push(entry);
        } else if let Some(v) = self.filter.iter_mut().min_by_key(|f| f.lru) {
            *v = entry;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(pc: u64, addr: u64) -> PrefetchContext {
        PrefetchContext::demand_miss(Pc(pc), Addr(addr))
    }

    /// Touches granules `offsets` of `region` with trigger PC `pc`.
    fn touch_region(
        pf: &mut SmsPrefetcher,
        pc: u64,
        region: u64,
        offsets: &[u64],
    ) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for (i, &o) in offsets.iter().enumerate() {
            let addr = region * 2048 + o * 128;
            let mut v = Vec::new();
            pf.on_access(&miss(pc, addr), &mut v);
            if i == 0 {
                out = v;
            }
        }
        out
    }

    /// Forces all AGT generations out by touching many fresh regions twice.
    fn flush_agt(pf: &mut SmsPrefetcher, base_region: u64) {
        for r in 0..33u64 {
            touch_region(pf, 0x9999, base_region + r, &[0, 1]);
        }
    }

    #[test]
    fn learned_pattern_streams_on_retrigger() {
        let mut pf = SmsPrefetcher::default();
        // Generation in region 10 touching granules 0, 3, 5.
        touch_region(&mut pf, 0x40, 10, &[0, 3, 5]);
        flush_agt(&mut pf, 1000);
        // Re-trigger with the same PC+offset in a new region.
        let out = touch_region(&mut pf, 0x40, 20, &[0]);
        // Expect granules 3 and 5 prefetched: lines (region base 20*32) + {6,7,10,11}.
        let base = 20 * 32;
        let mut lines: Vec<u64> = out.iter().map(|l| l.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![base + 6, base + 7, base + 10, base + 11]);
    }

    #[test]
    fn trigger_without_history_is_silent() {
        let mut pf = SmsPrefetcher::default();
        let out = touch_region(&mut pf, 0x40, 10, &[0]);
        assert!(out.is_empty());
    }

    #[test]
    fn pattern_is_keyed_by_pc_and_offset() {
        let mut pf = SmsPrefetcher::default();
        touch_region(&mut pf, 0x40, 10, &[0, 3, 5]);
        flush_agt(&mut pf, 1000);
        // Different PC: no prediction.
        let out = touch_region(&mut pf, 0x44, 20, &[0]);
        assert!(out.is_empty());
        // Different offset: no prediction either.
        let out = touch_region(&mut pf, 0x40, 30, &[1]);
        assert!(out.is_empty());
    }

    #[test]
    fn single_granule_generations_not_stored() {
        let mut pf = SmsPrefetcher::default();
        // Region touched in only one granule never leaves the filter, so no
        // pattern is learned.
        touch_region(&mut pf, 0x40, 10, &[2, 2, 2]);
        flush_agt(&mut pf, 1000);
        let out = touch_region(&mut pf, 0x40, 20, &[2]);
        assert!(out.is_empty());
    }

    #[test]
    fn region_size_limits_tracking() {
        let mut pf = SmsPrefetcher::default();
        // Accesses 4 KB apart are different regions: each is its own trigger.
        let mut out = Vec::new();
        pf.on_access(&miss(0x40, 0), &mut out);
        pf.on_access(&miss(0x40, 4096), &mut out);
        pf.on_access(&miss(0x40, 8192), &mut out);
        assert!(out.is_empty());
        assert_eq!(pf.filter.len(), 3);
    }

    #[test]
    fn l1_hits_ignored() {
        let mut pf = SmsPrefetcher::default();
        let mut out = Vec::new();
        let mut c = miss(0x40, 0);
        c.l1_hit = true;
        pf.on_access(&c, &mut out);
        assert!(pf.filter.is_empty() && pf.agt.is_empty());
    }

    #[test]
    fn storage_matches_table3() {
        let pf = SmsPrefetcher::default();
        // Table III: 2848 + 3360 + 35328 = 41536 bits ~= 5KB.
        // (filter has no pattern; AGT does — the formulas in the paper label
        // them the other way round, but the arithmetic matches.)
        assert_eq!(pf.storage_bits(), 2848 + 3360 + 35328);
    }

    #[test]
    fn tables_bounded() {
        let mut pf = SmsPrefetcher::default();
        for r in 0..1000u64 {
            touch_region(&mut pf, r % 7, r, &[0, 1, 2]);
        }
        assert!(pf.agt.len() <= 32);
        assert!(pf.filter.len() <= 32);
        assert!(pf.pht.len() <= 512);
    }

    #[test]
    fn dense_pattern_covers_whole_region() {
        let mut pf = SmsPrefetcher::default();
        let all: Vec<u64> = (0..16).collect();
        touch_region(&mut pf, 0x40, 10, &all);
        flush_agt(&mut pf, 1000);
        let out = touch_region(&mut pf, 0x40, 50, &[0]);
        // 15 granules x 2 lines (trigger granule skipped).
        assert_eq!(out.len(), 30);
    }

    /// The reference SMS: the prefetcher as written before the idle bound
    /// and the address bit fields. It divides the address into region and
    /// granule, keeps each table as one list of records matched by field,
    /// sweeps the whole AGT for idle generations on every access that
    /// reaches the L2, and streams a pattern by testing every granule.
    struct ReferenceSms {
        cfg: SmsConfig,
        /// `(region, trigger pc, trigger offset, pattern, lru)`.
        agt: Vec<(u64, Pc, u32, u32, u64)>,
        /// `(region, trigger pc, trigger offset, lru)`.
        filter: Vec<(u64, Pc, u32, u64)>,
        /// `(key, pattern, lru)`.
        pht: Vec<(u64, u32, u64)>,
        stamp: u64,
    }

    impl ReferenceSms {
        fn end_generation(&mut self, (_, pc, offset, pattern, _): (u64, Pc, u32, u32, u64)) {
            if pattern.count_ones() < 2 {
                return;
            }
            let key = (pc.0 << 6) ^ u64::from(offset);
            self.stamp += 1;
            if let Some(e) = self.pht.iter_mut().find(|e| e.0 == key) {
                *e = (key, pattern, self.stamp);
            } else if self.pht.len() < self.cfg.pht_entries {
                self.pht.push((key, pattern, self.stamp));
            } else if let Some(v) = self.pht.iter_mut().min_by_key(|e| e.2) {
                *v = (key, pattern, self.stamp);
            }
        }

        fn on_access(&mut self, ctx: &PrefetchContext, out: &mut Vec<LineAddr>) {
            if !ctx.reached_l2() {
                return;
            }
            self.stamp += 1;
            let stamp = self.stamp;
            let region = ctx.addr.0 / self.cfg.region_bytes;
            let offset = ((ctx.addr.0 % self.cfg.region_bytes) / self.cfg.granule_bytes) as u32;
            let mut i = 0;
            while i < self.agt.len() {
                if stamp.saturating_sub(self.agt[i].4) > self.cfg.idle_window {
                    let g = self.agt.swap_remove(i);
                    self.end_generation(g);
                } else {
                    i += 1;
                }
            }
            if let Some(g) = self.agt.iter_mut().find(|g| g.0 == region) {
                g.3 |= 1 << offset;
                g.4 = stamp;
                return;
            }
            if let Some(pos) = self.filter.iter().position(|f| f.0 == region) {
                let (_, pc, trigger, _) = self.filter[pos];
                if trigger == offset {
                    self.filter[pos].3 = stamp;
                    return;
                }
                self.filter.remove(pos);
                if self.agt.len() >= self.cfg.agt_entries {
                    let (victim, _) = self
                        .agt
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, g)| g.4)
                        .unwrap();
                    let g = self.agt.swap_remove(victim);
                    self.end_generation(g);
                }
                self.agt
                    .push((region, pc, trigger, (1 << trigger) | (1 << offset), stamp));
                return;
            }
            let key = (ctx.pc.0 << 6) ^ u64::from(offset);
            if let Some(&(_, pattern, _)) = self.pht.iter().find(|e| e.0 == key) {
                let region_base_line = region * self.cfg.region_bytes / cbws_trace::LINE_BYTES;
                let gl = self.cfg.granule_lines();
                for g in 0..self.cfg.granules() {
                    if g != offset && pattern & (1 << g) != 0 {
                        for l in 0..gl {
                            out.push(LineAddr(region_base_line + u64::from(g) * gl + l));
                        }
                    }
                }
            }
            let entry = (region, ctx.pc, offset, stamp);
            if self.filter.len() < self.cfg.filter_entries {
                self.filter.push(entry);
            } else if let Some(v) = self.filter.iter_mut().min_by_key(|f| f.3) {
                *v = entry;
            }
        }
    }

    proptest::proptest! {
        /// The idle bound skips only sweeps that would retire nothing:
        /// call for call, the same candidates as the every-access sweep.
        /// Small tables and a short idle window make idle retirements,
        /// AGT evictions and PHT replacements interleave; regions of 1–4
        /// KB cut into 2–32 granules check the address bit fields.
        fn idle_bound_matches_every_access_sweep(
            tables in (1usize..9, 1usize..9, 1usize..17, 1u64..40),
            shape in (10u32..13, 1u32..6),
            accesses in proptest::collection::vec((0u64..24, 0u64..4096, 0u64..6, 0u8..4), 0..600),
        ) {
            let (agt_entries, filter_entries, pht_entries, idle_window) = tables;
            let cfg = SmsConfig {
                region_bytes: 1 << shape.0,
                granule_bytes: 1 << (shape.0 - shape.1).max(6),
                agt_entries,
                filter_entries,
                pht_entries,
                idle_window,
            };
            let mut pf = SmsPrefetcher::new(cfg);
            let mut reference = ReferenceSms {
                cfg,
                agt: Vec::new(),
                filter: Vec::new(),
                pht: Vec::new(),
                stamp: 0,
            };
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (n, &(region, byte, pc, kind)) in accesses.iter().enumerate() {
                let mut ctx = miss(pc, region * 4096 + byte);
                // One access in four hits the L1 and never reaches SMS.
                ctx.l1_hit = kind == 0;
                got.clear();
                want.clear();
                pf.on_access(&ctx, &mut got);
                reference.on_access(&ctx, &mut want);
                proptest::prop_assert_eq!(&got, &want, "access {}", n);
            }
            // The same regions tracked, in the same order, by both tables.
            let agt: Vec<u64> = pf.agt.iter().map(|g| g.region).collect();
            let want: Vec<u64> = reference.agt.iter().map(|g| g.0).collect();
            proptest::prop_assert_eq!(agt, want);
            let filter: Vec<u64> = pf.filter.iter().map(|f| f.region).collect();
            let want: Vec<u64> = reference.filter.iter().map(|f| f.0).collect();
            proptest::prop_assert_eq!(filter, want);
            proptest::prop_assert_eq!(pf.pht.len(), reference.pht.len());
        }
    }
}
