//! Global History Buffer prefetching with delta correlation
//! (Nesbit & Smith, HPCA 2004), in its G/DC and PC/DC variants.
//!
//! The GHB stores recent *miss* addresses per localization key — the single
//! global stream for G/DC, the PC for PC/DC. On a training miss the
//! prefetcher extracts the key's recent delta stream, searches it for the
//! most recent earlier occurrence of the last `history_len` deltas, and
//! prefetches `degree` lines by replaying the deltas that followed that
//! occurrence.
//!
//! Structural note: hardware GHBs are a single circular buffer with per-key
//! link pointers; we model the equivalent observable behaviour per key with
//! the most recent line plus a bounded window of the deltas between its
//! recent lines (chain truncation ≈ buffer wrap), and an LRU-bounded key
//! index. The window lives in a buffer twice its size, so it is always one
//! contiguous slice that prediction scans in place without allocating.
//! Storage is accounted with Table III's formulas.

use crate::{PrefetchContext, Prefetcher};
use cbws_describe::{ComponentDescription, ComponentKind, Describe, ParamSpec};
use cbws_trace::{LineAddr, Pc};

/// Localization mode of the GHB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhbKind {
    /// One global miss stream (GHB G/DC).
    GlobalDeltaCorrelation,
    /// Per-PC miss streams (GHB PC/DC).
    PcDeltaCorrelation,
}

/// GHB parameters (Table II: 256 entries, history length 3, degree 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhbConfig {
    /// Localization mode.
    pub kind: GhbKind,
    /// Total buffer entries (bounds keys tracked and per-key history).
    pub entries: usize,
    /// Number of most-recent deltas forming the correlation key.
    pub history_len: usize,
    /// Lines prefetched per correlation hit.
    pub degree: usize,
    /// Train on all L2 demand accesses (`false` = misses only, the paper's
    /// conservative configuration discussed in §II).
    pub train_on_hits: bool,
}

impl GhbConfig {
    /// The paper's GHB G/DC configuration.
    pub fn gdc() -> Self {
        GhbConfig {
            kind: GhbKind::GlobalDeltaCorrelation,
            entries: 256,
            history_len: 3,
            degree: 3,
            train_on_hits: false,
        }
    }

    /// The paper's GHB PC/DC configuration.
    pub fn pcdc() -> Self {
        GhbConfig {
            kind: GhbKind::PcDeltaCorrelation,
            ..Self::gdc()
        }
    }
}

/// One key's miss stream: its most recent line and the deltas between its
/// last `per_key_cap` lines.
#[derive(Debug, Clone)]
struct Stream {
    key: u64,
    last: Option<LineAddr>,
    /// The delta window, oldest first, is `buf[end - len..end]`. `buf` is
    /// twice the window's capacity, so the window slides back to the front
    /// only once per `capacity` pushes and is always one contiguous slice.
    buf: Vec<i64>,
    end: usize,
    len: usize,
    lru: u64,
}

impl Stream {
    fn new(key: u64, window: usize) -> Self {
        Stream {
            key,
            last: None,
            buf: vec![0; 2 * window],
            end: 0,
            len: 0,
            lru: 0,
        }
    }

    /// Reassigns this stream to `key` with an empty history, keeping its
    /// buffer.
    fn reset(&mut self, key: u64) {
        self.key = key;
        self.last = None;
        self.end = 0;
        self.len = 0;
    }

    /// The delta window, oldest first.
    fn deltas(&self) -> &[i64] {
        &self.buf[self.end - self.len..self.end]
    }

    /// Appends a miss to `line`, dropping the oldest delta once the window
    /// is full.
    fn push(&mut self, line: LineAddr) {
        let Some(prev) = self.last.replace(line) else {
            return;
        };
        let window = self.buf.len() / 2;
        if window == 0 {
            return;
        }
        if self.end == self.buf.len() {
            let keep = self.len.min(window - 1);
            self.buf.copy_within(self.end - keep..self.end, 0);
            self.end = keep;
            self.len = keep;
        }
        self.buf[self.end] = line.delta(prev);
        self.end += 1;
        self.len = (self.len + 1).min(window);
    }
}

/// The GHB G/DC / PC/DC prefetcher.
#[derive(Debug, Clone)]
pub struct GhbPrefetcher {
    cfg: GhbConfig,
    streams: Vec<Stream>,
    per_key_cap: usize,
    key_cap: usize,
    stamp: u64,
}

impl GhbPrefetcher {
    /// Creates a GHB prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `entries`, `history_len`, or `degree` is zero.
    pub fn new(cfg: GhbConfig) -> Self {
        assert!(cfg.entries > 0, "GHB needs at least one entry");
        assert!(cfg.history_len > 0, "history length must be non-zero");
        assert!(cfg.degree > 0, "degree must be non-zero");
        let (per_key_cap, key_cap) = match cfg.kind {
            GhbKind::GlobalDeltaCorrelation => (cfg.entries, 1),
            // Hardware shares the 256 entries across chains; cap chains at a
            // plausible share and the key index at the entry count.
            GhbKind::PcDeltaCorrelation => (32.min(cfg.entries), cfg.entries),
        };
        GhbPrefetcher {
            cfg,
            streams: Vec::new(),
            per_key_cap,
            key_cap,
            stamp: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GhbConfig {
        &self.cfg
    }

    fn key_of(&self, pc: Pc) -> u64 {
        match self.cfg.kind {
            GhbKind::GlobalDeltaCorrelation => 0,
            GhbKind::PcDeltaCorrelation => pc.0,
        }
    }

    /// Delta-correlation prediction over one stream's delta window (oldest
    /// first) whose most recent line is `line`: pushes `degree` candidates
    /// into `out`.
    fn predict(
        deltas: &[i64],
        line: LineAddr,
        history_len: usize,
        degree: usize,
        out: &mut Vec<LineAddr>,
    ) {
        let m = deltas.len();
        if m < history_len + 1 {
            return;
        }
        let key = &deltas[m - history_len..];
        let newest = key[history_len - 1];
        // Most recent earlier occurrence of the key; testing its newest
        // delta first rejects most windows with one compare.
        let Some(start) = deltas[..m - 1]
            .windows(history_len)
            .rposition(|w| w[history_len - 1] == newest && w == key)
        else {
            return;
        };
        // Replay the deltas that followed the occurrence; if fewer than
        // `degree` exist, cycle through them (periodic-stream assumption).
        let mut cursor = line;
        for &d in deltas[start + history_len..].iter().cycle().take(degree) {
            cursor = cursor.offset(d);
            out.push(cursor);
        }
    }
}

impl Describe for GhbPrefetcher {
    fn describe(&self) -> ComponentDescription {
        let c = &self.cfg;
        let (summary, kind_default) = match c.kind {
            GhbKind::GlobalDeltaCorrelation => (
                "Global History Buffer with global delta correlation \
                 (Nesbit & Smith, HPCA 2004): one global miss stream whose \
                 recent delta sequence is matched against its own history, \
                 replaying the deltas that followed the last occurrence.",
                "G/DC",
            ),
            GhbKind::PcDeltaCorrelation => (
                "Global History Buffer with per-PC delta correlation \
                 (Nesbit & Smith, HPCA 2004): per-PC miss streams whose \
                 recent delta sequence is matched against their own history, \
                 replaying the deltas that followed the last occurrence.",
                "PC/DC",
            ),
        };
        ComponentDescription::new(Prefetcher::name(self), ComponentKind::Prefetcher, summary)
            .paper_section("§VII, Tables II-III (baseline)")
            .storage_bits(self.storage_bits())
            .param(ParamSpec::new(
                "kind",
                "localization mode: one global stream (G/DC) or per-PC streams (PC/DC)",
                kind_default,
                "G/DC | PC/DC",
            ))
            .param(ParamSpec::new(
                "entries",
                "total buffer entries, bounding keys tracked and per-key history (paper: 256)",
                c.entries.to_string(),
                "≥ 1",
            ))
            .param(ParamSpec::new(
                "history_len",
                "most-recent deltas forming the correlation key (paper: 3)",
                c.history_len.to_string(),
                "≥ 1",
            ))
            .param(ParamSpec::new(
                "degree",
                "lines prefetched per correlation hit (paper: 3)",
                c.degree.to_string(),
                "≥ 1",
            ))
            .param(ParamSpec::new(
                "train_on_hits",
                "train on all L2 demand accesses (`false` = misses only, \
                 the paper's conservative configuration)",
                c.train_on_hits.to_string(),
                "bool",
            ))
            .metrics(cbws_describe::prefetcher_hook_metrics())
    }
}

impl Prefetcher for GhbPrefetcher {
    fn name(&self) -> &'static str {
        match self.cfg.kind {
            GhbKind::GlobalDeltaCorrelation => "GHB-G/DC",
            GhbKind::PcDeltaCorrelation => "GHB-PC/DC",
        }
    }

    fn storage_bits(&self) -> u64 {
        let e = self.cfg.entries as u64;
        match self.cfg.kind {
            // Table III: (3 history strides + 3 prefetch strides) x 12b x 256.
            GhbKind::GlobalDeltaCorrelation => 6 * 12 * e,
            // Table III: G/DC + a 48-bit PC per entry.
            GhbKind::PcDeltaCorrelation => (6 * 12 + 48) * e,
        }
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
        let key = self.key_of(ctx.pc);
        let line = ctx.addr.line();

        let stream = match self.streams.iter().position(|s| s.key == key) {
            Some(i) => &mut self.streams[i],
            None if self.streams.len() >= self.key_cap => {
                let victim = self
                    .streams
                    .iter_mut()
                    .min_by_key(|s| s.lru)
                    .expect("key_cap > 0");
                victim.reset(key);
                victim
            }
            None => {
                // `per_key_cap` lines hold `per_key_cap - 1` deltas.
                self.streams.push(Stream::new(key, self.per_key_cap - 1));
                self.streams.last_mut().expect("just pushed")
            }
        };
        stream.lru = stamp;
        stream.push(line);
        Self::predict(
            stream.deltas(),
            line,
            self.cfg.history_len,
            self.cfg.degree,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_trace::Addr;

    fn miss(pc: u64, line: u64) -> PrefetchContext {
        PrefetchContext::demand_miss(Pc(pc), Addr(line * 64))
    }

    fn run(pf: &mut GhbPrefetcher, accesses: &[(u64, u64)]) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for &(pc, line) in accesses {
            out.clear();
            pf.on_access(&miss(pc, line), &mut out);
        }
        out
    }

    #[test]
    fn pcdc_learns_constant_stride() {
        let mut pf = GhbPrefetcher::new(GhbConfig::pcdc());
        // Stride of 16 lines at one PC: after enough history, predict +16s.
        let accs: Vec<(u64, u64)> = (0..8).map(|i| (0x40, 100 + i * 16)).collect();
        let out = run(&mut pf, &accs);
        assert_eq!(out, vec![LineAddr(228), LineAddr(244), LineAddr(260)]);
    }

    #[test]
    fn gdc_learns_interleaved_global_pattern() {
        let mut pf = GhbPrefetcher::new(GhbConfig::gdc());
        // Global periodic delta pattern from two interleaved streams:
        // lines 0, 1000, 4, 1004, 8, 1008, ... => deltas +1000, -996, ...
        let mut accs = Vec::new();
        for i in 0..8u64 {
            accs.push((1, i * 4));
            accs.push((2, 1000 + i * 4));
        }
        let out = run(&mut pf, &accs);
        assert!(!out.is_empty(), "periodic global deltas should correlate");
        // Next predicted deltas continue the period: -996 then +1000...
        assert_eq!(out[0], LineAddr(32));
    }

    #[test]
    fn pcdc_separates_streams_gdc_conflates() {
        // Two PCs with irregular interleaving: PC/DC still sees clean
        // per-PC strides.
        let mut pf = GhbPrefetcher::new(GhbConfig::pcdc());
        let mut accs = Vec::new();
        for i in 0..10u64 {
            accs.push((0x40, i * 7));
            if i % 2 == 0 {
                accs.push((0x80, 100000 + i * 3));
            }
        }
        let out = run(&mut pf, &accs);
        assert!(!out.is_empty());
        assert_eq!(out[0], LineAddr(9 * 7 + 7));
    }

    #[test]
    fn short_history_is_silent() {
        let mut pf = GhbPrefetcher::new(GhbConfig::pcdc());
        let out = run(&mut pf, &[(1, 0), (1, 16), (1, 32)]);
        assert!(out.is_empty(), "needs history_len+1 deltas to correlate");
    }

    #[test]
    fn does_not_train_on_hits_by_default() {
        let mut pf = GhbPrefetcher::new(GhbConfig::pcdc());
        let mut out = Vec::new();
        for i in 0..8u64 {
            let mut c = miss(0x40, i * 16);
            c.l2_hit = true;
            pf.on_access(&c, &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn trains_on_hits_when_configured() {
        let cfg = GhbConfig {
            train_on_hits: true,
            ..GhbConfig::pcdc()
        };
        let mut pf = GhbPrefetcher::new(cfg);
        let mut out = Vec::new();
        for i in 0..8u64 {
            let mut c = miss(0x40, i * 16);
            c.l2_hit = true;
            out.clear();
            pf.on_access(&c, &mut out);
        }
        assert!(!out.is_empty());
    }

    #[test]
    fn irregular_stream_is_silent() {
        let mut pf = GhbPrefetcher::new(GhbConfig::pcdc());
        // No repeating delta triple.
        let accs: Vec<(u64, u64)> = [
            (0u64, 0u64),
            (0, 3),
            (0, 9),
            (0, 11),
            (0, 20),
            (0, 22),
            (0, 31),
            (0, 45),
        ]
        .to_vec();
        let out = run(&mut pf, &accs);
        assert!(out.is_empty());
    }

    #[test]
    fn storage_matches_table3() {
        assert_eq!(GhbPrefetcher::new(GhbConfig::gdc()).storage_bits(), 18432); // 2.25KB
        assert_eq!(GhbPrefetcher::new(GhbConfig::pcdc()).storage_bits(), 30720);
        // 3.75KB
    }

    #[test]
    fn key_table_eviction_bounds_state() {
        let cfg = GhbConfig {
            entries: 4,
            ..GhbConfig::pcdc()
        };
        let mut pf = GhbPrefetcher::new(cfg);
        let mut out = Vec::new();
        for pc in 0..100u64 {
            pf.on_access(&miss(pc, pc * 10), &mut out);
        }
        assert!(pf.streams.len() <= 4);
    }

    #[test]
    fn names() {
        assert_eq!(GhbPrefetcher::new(GhbConfig::gdc()).name(), "GHB-G/DC");
        assert_eq!(GhbPrefetcher::new(GhbConfig::pcdc()).name(), "GHB-PC/DC");
    }
}

#[cfg(test)]
mod oracle {
    //! A deliberately naive reference GHB — per-key line deques, with the
    //! delta stream collected afresh and scanned on every training call —
    //! checked call by call against the delta-window kernel.

    use super::*;
    use cbws_trace::Addr;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    struct ReferenceStream {
        key: u64,
        lines: VecDeque<LineAddr>,
        lru: u64,
    }

    struct ReferenceGhb {
        cfg: GhbConfig,
        streams: Vec<ReferenceStream>,
        per_key_cap: usize,
        key_cap: usize,
        stamp: u64,
    }

    impl ReferenceGhb {
        fn new(cfg: GhbConfig) -> Self {
            let (per_key_cap, key_cap) = match cfg.kind {
                GhbKind::GlobalDeltaCorrelation => (cfg.entries, 1),
                GhbKind::PcDeltaCorrelation => (32.min(cfg.entries), cfg.entries),
            };
            ReferenceGhb {
                cfg,
                streams: Vec::new(),
                per_key_cap,
                key_cap,
                stamp: 0,
            }
        }

        fn on_access(&mut self, ctx: &PrefetchContext) -> Vec<LineAddr> {
            let trains = if self.cfg.train_on_hits {
                ctx.reached_l2()
            } else {
                ctx.llc_miss()
            };
            if !trains {
                return Vec::new();
            }
            self.stamp += 1;
            let key = match self.cfg.kind {
                GhbKind::GlobalDeltaCorrelation => 0,
                GhbKind::PcDeltaCorrelation => ctx.pc.0,
            };
            let i = match self.streams.iter().position(|s| s.key == key) {
                Some(i) => i,
                None if self.streams.len() >= self.key_cap => {
                    let (i, _) = self
                        .streams
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.lru)
                        .expect("key_cap > 0");
                    self.streams[i].key = key;
                    self.streams[i].lines.clear();
                    i
                }
                None => {
                    self.streams.push(ReferenceStream {
                        key,
                        lines: VecDeque::new(),
                        lru: 0,
                    });
                    self.streams.len() - 1
                }
            };
            let stream = &mut self.streams[i];
            stream.lru = self.stamp;
            if stream.lines.len() == self.per_key_cap {
                stream.lines.pop_front();
            }
            let line = ctx.addr.line();
            stream.lines.push_back(line);

            let lines = &stream.lines;
            let deltas: Vec<i64> = (1..lines.len())
                .map(|i| lines[i].delta(lines[i - 1]))
                .collect();
            let (h, m) = (self.cfg.history_len, deltas.len());
            if m < h + 1 {
                return Vec::new();
            }
            let key = &deltas[m - h..];
            for start in (0..m - h).rev() {
                if &deltas[start..start + h] == key {
                    let follow = &deltas[start + h..];
                    let mut cursor = line;
                    return (0..self.cfg.degree)
                        .map(|k| {
                            cursor = cursor.offset(follow[k % follow.len()]);
                            cursor
                        })
                        .collect();
                }
            }
            Vec::new()
        }
    }

    proptest! {
        /// Identical candidates on every call, for both kinds, across the
        /// doubled buffer's wrap (windows of 3 to 255 deltas) and
        /// key-table eviction (up to 48 PCs against as few as 4 keys). PCs
        /// come in runs, so per-PC streams stay regular, and walk either
        /// one shared cursor or their own cursors from one start line; the
        /// latter makes the jump across an evicted key look like a real
        /// delta.
        #[test]
        fn matches_reference_model(
            train_on_hits in any::<bool>(),
            shared in any::<bool>(),
            pcs in 1u64..49,
            accesses in proptest::collection::vec((0u64..256, 0usize..4, 0u8..4, 0u8..4), 0..2500),
        ) {
            // A small delta alphabet, so delta triples recur and correlate.
            const DELTAS: [i64; 4] = [1, -3, 7, 64];
            for kind in [GhbKind::GlobalDeltaCorrelation, GhbKind::PcDeltaCorrelation] {
                for entries in [4, 5, 33, 256] {
                    let cfg = GhbConfig { kind, entries, train_on_hits, ..GhbConfig::gdc() };
                    let mut pf = GhbPrefetcher::new(cfg);
                    let mut reference = ReferenceGhb::new(cfg);
                    let mut lines = [1u64 << 20; 48];
                    let mut pc = 0;
                    let mut out = Vec::new();
                    for (call, &(switch, d, l1, l2)) in accesses.iter().enumerate() {
                        // Switch to a random PC on a quarter of the accesses.
                        if switch % 4 == 0 {
                            pc = switch / 4 % pcs;
                        }
                        let line = &mut lines[if shared { 0 } else { pc as usize }];
                        *line = line.wrapping_add_signed(DELTAS[d]);
                        let ctx = PrefetchContext {
                            pc: Pc(pc),
                            addr: Addr(*line * 64),
                            is_store: false,
                            l1_hit: l1 == 0,
                            l2_hit: l2 == 0,
                            in_block: false,
                        };
                        out.clear();
                        pf.on_access(&ctx, &mut out);
                        prop_assert_eq!(
                            &out,
                            &reference.on_access(&ctx),
                            "{:?}, {} entries, call {}", kind, entries, call
                        );
                    }
                }
            }
        }
    }

    /// An evicted key's last line must not leak into its successor's
    /// stream. PC 9 evicts PC 0, whose last line is 100, and then walks
    /// 101..=104: a leaked +1 delta would complete four +1 deltas and
    /// predict one miss early.
    #[test]
    fn eviction_starts_the_new_stream_afresh() {
        let cfg = GhbConfig {
            entries: 5,
            ..GhbConfig::pcdc()
        };
        let mut pf = GhbPrefetcher::new(cfg);
        let mut reference = ReferenceGhb::new(cfg);
        let mut out = Vec::new();
        let fill = (0..5).map(|pc| (pc, 100 + pc * 1000));
        for (pc, line) in fill.chain((101..=104).map(|line| (9, line))) {
            let ctx = PrefetchContext::demand_miss(Pc(pc), Addr(line * 64));
            out.clear();
            pf.on_access(&ctx, &mut out);
            assert_eq!(out, reference.on_access(&ctx), "pc {pc}, line {line}");
        }
    }
}
