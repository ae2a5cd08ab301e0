//! Deliberately naive reference models of the CBWS schemes, checked event
//! by event against the in-place predictor: the predictor as first written
//! (a fresh `Differential` per step, a cloned CBWS per rotation and a
//! returned prediction `Vec` per `BLOCK_END`), and the hybrid and
//! multi-context prefetchers rebuilt on top of it.

use crate::{
    CbwsConfig, CbwsPredictor, CbwsSmsPrefetcher, CbwsStats, CbwsVec, Differential, HybridStats,
    MultiCbwsPrefetcher, SmsSuppression,
};
use cbws_prefetchers::{PrefetchContext, Prefetcher, SmsConfig, SmsPrefetcher};
use cbws_trace::{Addr, BlockId, LineAddr, Pc};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The pre-rewrite CBWS predictor, minus telemetry.
struct ReferencePredictor {
    cfg: CbwsConfig,
    current_block: Option<BlockId>,
    curr: CbwsVec,
    curr_diffs: Vec<Vec<i64>>,
    last: VecDeque<CbwsVec>,
    /// One history shift register of 12-bit hashes per step distance.
    histories: Vec<VecDeque<u16>>,
    table: Vec<Option<(u16, Differential)>>,
    rng: u32,
    confident: bool,
    last_block_overflowed: bool,
    last_prediction_span: u64,
    stats: CbwsStats,
}

impl ReferencePredictor {
    fn new(cfg: CbwsConfig) -> Self {
        ReferencePredictor {
            cfg,
            current_block: None,
            curr: CbwsVec::new(cfg.max_vector),
            curr_diffs: vec![Vec::new(); cfg.max_step],
            last: VecDeque::new(),
            histories: vec![VecDeque::new(); cfg.max_step],
            table: vec![None; cfg.table_entries],
            rng: 0x2545_F491,
            confident: false,
            last_block_overflowed: false,
            last_prediction_span: 0,
            stats: CbwsStats::default(),
        }
    }

    fn is_warm(&self, step: usize) -> bool {
        self.histories[step].len() == self.cfg.history_depth
    }

    fn tag(&self, step: usize) -> u16 {
        let mut t: u16 = (step as u16).wrapping_mul(0x9E37);
        for (i, &e) in self.histories[step].iter().enumerate() {
            t ^= e.rotate_left((i as u32 * 5) % 16);
        }
        t
    }

    fn lookup(&self, tag: u16) -> Option<&Differential> {
        self.table
            .iter()
            .flatten()
            .find(|(t, _)| *t == tag)
            .map(|(_, d)| d)
    }

    fn insert(&mut self, tag: u16, diff: Differential) {
        if let Some(slot) = self.table.iter_mut().flatten().find(|(t, _)| *t == tag) {
            slot.1 = diff;
            return;
        }
        if let Some(free) = self.table.iter_mut().find(|e| e.is_none()) {
            *free = Some((tag, diff));
            return;
        }
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.rng = x;
        let victim = x as usize % self.table.len();
        self.table[victim] = Some((tag, diff));
    }

    fn block_begin(&mut self, id: BlockId) {
        if self.current_block != Some(id) {
            if self.current_block.is_some() {
                self.stats.block_switches += 1;
            }
            self.current_block = Some(id);
            self.last.clear();
            for h in &mut self.histories {
                h.clear();
            }
            self.confident = false;
        }
        self.curr.clear();
        for d in &mut self.curr_diffs {
            d.clear();
        }
    }

    fn observe(&mut self, line: LineAddr) {
        if self.current_block.is_none() {
            return;
        }
        let before = self.curr.overflowed();
        if !self.curr.observe(line) {
            self.stats.vector_overflows += self.curr.overflowed() - before;
            return;
        }
        let idx = self.curr.len() - 1;
        for (step, diffs) in self.curr_diffs.iter_mut().enumerate() {
            if let Some(prev_line) = self.last.get(step).and_then(|prev| prev.get(idx)) {
                if diffs.len() == idx {
                    diffs.push(line.delta(prev_line));
                }
            }
        }
    }

    fn block_end(&mut self, id: BlockId) -> Vec<LineAddr> {
        if self.current_block != Some(id) {
            return Vec::new();
        }
        self.stats.blocks += 1;
        self.last_block_overflowed = self.curr.overflowed() > 0;
        for step in 0..self.cfg.max_step {
            let diff = Differential::from_strides(self.curr_diffs[step].iter().copied());
            if diff.is_empty() {
                continue;
            }
            if self.is_warm(step) {
                self.insert(self.tag(step), diff.clone());
            }
            let history = &mut self.histories[step];
            if history.len() == self.cfg.history_depth {
                history.pop_front();
            }
            history.push_back(diff.hash12() & 0xFFF);
        }
        if self.last.len() == self.cfg.max_step {
            self.last.pop_back();
        }
        self.last.push_front(self.curr.clone());

        let mut out = Vec::new();
        let mut hit = false;
        let mut span = 0u64;
        for step in 0..self.cfg.prediction_depth {
            if !self.is_warm(step) {
                continue;
            }
            if let Some(pred) = self.lookup(self.tag(step)) {
                hit = true;
                let widest = pred.strides().iter().map(|s| s.unsigned_abs() as u64);
                span = span.max(widest.max().unwrap_or(0));
                if !pred.is_zero() {
                    let base = &self.last[0];
                    out.extend(
                        pred.strides()
                            .iter()
                            .zip(base.iter())
                            .map(|(&s, &b)| b.offset(i64::from(s))),
                    );
                }
            }
        }
        self.confident = hit;
        self.last_prediction_span = span;
        if hit {
            self.stats.prediction_hits += 1;
        } else {
            self.stats.prediction_misses += 1;
        }
        self.curr.clear();
        for d in &mut self.curr_diffs {
            d.clear();
        }
        out
    }
}

/// The pre-rewrite CBWS+SMS arbitration over [`ReferencePredictor`].
struct ReferenceHybrid {
    cbws: ReferencePredictor,
    sms: SmsPrefetcher,
    policy: SmsSuppression,
    in_block: bool,
    stats: HybridStats,
}

impl ReferenceHybrid {
    fn on_access(&mut self, ctx: &PrefetchContext) -> Vec<LineAddr> {
        if self.in_block && (self.cbws.cfg.observe_l1_hits || ctx.reached_l2()) {
            self.cbws.observe(ctx.addr.line());
        }
        let mut sms = Vec::new();
        self.sms.on_access(ctx, &mut sms);
        let region_lines = SmsConfig::default().region_bytes / cbws_trace::LINE_BYTES;
        let suppressing = self.in_block
            && self.cbws.confident
            && match self.policy {
                SmsSuppression::Never => false,
                SmsSuppression::WhenConfident => true,
                SmsSuppression::WhenCovering => {
                    !self.cbws.last_block_overflowed
                        && self.cbws.last_prediction_span >= region_lines
                }
            };
        if suppressing {
            self.stats.sms_suppressed_lines += sms.len() as u64;
            Vec::new()
        } else {
            self.stats.sms_lines += sms.len() as u64;
            sms
        }
    }

    fn on_block_end(&mut self, id: BlockId) -> Vec<LineAddr> {
        self.in_block = false;
        let pred = self.cbws.block_end(id);
        self.stats.cbws_lines += pred.len() as u64;
        pred
    }
}

/// The multi-context prefetcher's LRU context set over
/// [`ReferencePredictor`]s.
struct ReferenceMulti {
    cfg: CbwsConfig,
    capacity: usize,
    contexts: Vec<(BlockId, ReferencePredictor, u64)>,
    active: Option<usize>,
    stamp: u64,
}

impl ReferenceMulti {
    fn on_block_begin(&mut self, id: BlockId) {
        self.stamp += 1;
        let i = match self.contexts.iter().position(|c| c.0 == id) {
            Some(i) => i,
            None if self.contexts.len() < self.capacity => {
                self.contexts
                    .push((id, ReferencePredictor::new(self.cfg), 0));
                self.contexts.len() - 1
            }
            None => {
                let (i, _) = self
                    .contexts
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| c.2)
                    .expect("capacity > 0");
                self.contexts[i] = (id, ReferencePredictor::new(self.cfg), 0);
                i
            }
        };
        self.contexts[i].2 = self.stamp;
        self.contexts[i].1.block_begin(id);
        self.active = Some(i);
    }

    fn on_access(&mut self, ctx: &PrefetchContext) {
        if let Some(i) = self.active {
            if self.cfg.observe_l1_hits || ctx.reached_l2() {
                self.contexts[i].1.observe(ctx.addr.line());
            }
        }
    }

    fn on_block_end(&mut self, id: BlockId) -> Vec<LineAddr> {
        match self.active.take() {
            Some(i) if self.contexts[i].0 == id => self.contexts[i].1.block_end(id),
            _ => Vec::new(),
        }
    }
}

enum Event {
    Begin(BlockId),
    Access(PrefetchContext),
    End(BlockId),
}

/// Per-iteration strides in lines; 40 000 overflows the 16-bit
/// differential registers and so exercises truncation.
const STRIDES: [u64; 5] = [1, 16, 300, 1024, 40_000];

/// Expands `runs` of `(block, iterations, accesses per iteration, variant)`
/// into an event stream over three static blocks whose per-iteration
/// strides are `STRIDES[strides[block]]`. Consecutive runs of different
/// blocks switch context. Variant 0 ends the run's last iteration with a
/// mismatched `BLOCK_END`, 1 skips the first access of every third
/// iteration (branch divergence), 2 jitters the lines (data-dependent
/// working sets); every variant also touches a few lines outside any
/// block and re-touches some lines inside.
fn events(runs: &[(u32, usize, usize, u8)], strides: &[usize]) -> Vec<Event> {
    let access = |pc: u64, line: u64, l1_hit: bool| {
        Event::Access(PrefetchContext {
            pc: Pc(pc),
            addr: Addr(line * 64),
            is_store: false,
            l1_hit,
            l2_hit: false,
            in_block: false,
        })
    };
    let mut iterations = [0u64; 3];
    let mut events = Vec::new();
    for &(block, iters, accesses, variant) in runs {
        for k in 0..u64::from(variant % 4) {
            events.push(access(0x80 + k, (1 << 30) + events.len() as u64 * 2, false));
        }
        let stride = STRIDES[strides[block as usize]];
        for it in 0..iters {
            let i = iterations[block as usize];
            iterations[block as usize] += 1;
            events.push(Event::Begin(BlockId(block)));
            for k in 0..accesses as u64 {
                if variant == 1 && i % 3 == 2 && k == 0 {
                    continue;
                }
                let mut line = (u64::from(block) + 1) * (1 << 24) + i * stride + k * 5;
                if variant == 2 {
                    line += (i * 7 + k * 13) % 11;
                }
                events.push(access(0x40 + k, line, (i + k) % 3 == 0));
                if k % 4 == 3 {
                    events.push(access(0x40 + k, line, true));
                }
            }
            let end = if variant == 0 && it + 1 == iters {
                block + 1
            } else {
                block
            };
            events.push(Event::End(BlockId(end)));
        }
    }
    events
}

fn config(wide: bool, prediction_depth: usize, observe_l1_hits: bool) -> CbwsConfig {
    CbwsConfig {
        max_vector: if wide { 16 } else { 4 },
        prediction_depth,
        observe_l1_hits,
        ..CbwsConfig::default()
    }
}

type Runs = Vec<(u32, usize, usize, u8)>;

fn runs() -> impl Strategy<Value = Runs> {
    proptest::collection::vec((0u32..3, 1usize..14, 0usize..22, 0u8..8), 1..40)
}

proptest! {
    /// After every block: identical predictions, counters, confidence,
    /// prediction span and overflow flag. The outputs accumulate in one
    /// buffer, so each call must append without disturbing earlier lines.
    #[test]
    fn predictor_matches_reference(
        runs in runs(),
        strides in proptest::collection::vec(0usize..5, 3..4),
        wide in any::<bool>(),
        depth in 1usize..5,
    ) {
        let cfg = config(wide, depth, true);
        let mut p = CbwsPredictor::new(cfg);
        let mut reference = ReferencePredictor::new(cfg);
        let mut out = Vec::new();
        for (n, event) in events(&runs, &strides).iter().enumerate() {
            match *event {
                Event::Begin(id) => {
                    p.block_begin(id);
                    reference.block_begin(id);
                }
                Event::Access(ctx) => {
                    p.observe(ctx.addr.line());
                    reference.observe(ctx.addr.line());
                }
                Event::End(id) => {
                    let before = out.len();
                    p.block_end(id, &mut out);
                    prop_assert_eq!(&out[before..], &reference.block_end(id)[..], "event {}", n);
                    prop_assert_eq!(p.stats(), &reference.stats, "event {}", n);
                    prop_assert_eq!(p.is_confident(), reference.confident);
                    prop_assert_eq!(p.last_prediction_span(), reference.last_prediction_span);
                    prop_assert_eq!(p.last_block_overflowed(), reference.last_block_overflowed);
                }
            }
        }
    }

    /// Identical candidates on every call, appended to one accumulating
    /// buffer, and identical arbitration counters after every block, under
    /// each suppression policy.
    #[test]
    fn hybrid_matches_reference(
        runs in runs(),
        strides in proptest::collection::vec(0usize..5, 3..4),
        wide in any::<bool>(),
        depth in 1usize..5,
        observe_l1_hits in any::<bool>(),
    ) {
        let cfg = config(wide, depth, observe_l1_hits);
        let events = events(&runs, &strides);
        for policy in [SmsSuppression::Never, SmsSuppression::WhenConfident, SmsSuppression::WhenCovering] {
            let mut pf = CbwsSmsPrefetcher::with_policy(cfg, SmsConfig::default(), policy);
            let mut reference = ReferenceHybrid {
                cbws: ReferencePredictor::new(cfg),
                sms: SmsPrefetcher::new(SmsConfig::default()),
                policy,
                in_block: false,
                stats: HybridStats::default(),
            };
            let mut out = Vec::new();
            for (n, event) in events.iter().enumerate() {
                let before = out.len();
                match *event {
                    Event::Begin(id) => {
                        pf.on_block_begin(id);
                        reference.in_block = true;
                        reference.cbws.block_begin(id);
                    }
                    Event::Access(ctx) => {
                        pf.on_access(&ctx, &mut out);
                        prop_assert_eq!(&out[before..], &reference.on_access(&ctx)[..], "{:?} event {}", policy, n);
                    }
                    Event::End(id) => {
                        pf.on_block_end(id, &mut out);
                        prop_assert_eq!(&out[before..], &reference.on_block_end(id)[..], "{:?} event {}", policy, n);
                        prop_assert_eq!(pf.hybrid_stats(), &reference.stats, "{:?} event {}", policy, n);
                    }
                }
            }
        }
    }

    /// Identical candidates on every `BLOCK_END` and identical aggregated
    /// counters, with one context (thrashing on every switch) and two.
    #[test]
    fn multi_context_matches_reference(
        runs in runs(),
        strides in proptest::collection::vec(0usize..5, 3..4),
        wide in any::<bool>(),
        depth in 1usize..5,
        observe_l1_hits in any::<bool>(),
    ) {
        let cfg = config(wide, depth, observe_l1_hits);
        let events = events(&runs, &strides);
        for capacity in [1, 2] {
            let mut pf = MultiCbwsPrefetcher::new(cfg, capacity);
            let mut reference = ReferenceMulti {
                cfg,
                capacity,
                contexts: Vec::new(),
                active: None,
                stamp: 0,
            };
            let mut out = Vec::new();
            for (n, event) in events.iter().enumerate() {
                match *event {
                    Event::Begin(id) => {
                        pf.on_block_begin(id);
                        reference.on_block_begin(id);
                    }
                    Event::Access(ctx) => {
                        pf.on_access(&ctx, &mut out);
                        reference.on_access(&ctx);
                    }
                    Event::End(id) => {
                        let before = out.len();
                        pf.on_block_end(id, &mut out);
                        prop_assert_eq!(&out[before..], &reference.on_block_end(id)[..], "{} contexts, event {}", capacity, n);
                    }
                }
            }
            let mut stats = CbwsStats::default();
            for (_, p, _) in &reference.contexts {
                stats.blocks += p.stats.blocks;
                stats.prediction_hits += p.stats.prediction_hits;
                stats.prediction_misses += p.stats.prediction_misses;
                stats.vector_overflows += p.stats.vector_overflows;
                stats.block_switches += p.stats.block_switches;
            }
            prop_assert_eq!(pf.stats(), stats);
        }
    }
}

/// The generated streams must reach the states the equivalence checks are
/// about: confident predictions, overflowing vectors and block switches.
#[test]
fn streams_reach_prediction_overflow_and_switch_states() {
    let runs = [(0, 13, 6, 3), (1, 13, 21, 1), (0, 13, 3, 0), (2, 13, 5, 2)];
    let mut p = CbwsPredictor::new(config(false, 4, true));
    let mut out = Vec::new();
    for event in events(&runs, &[3, 1, 4]) {
        match event {
            Event::Begin(id) => p.block_begin(id),
            Event::Access(ctx) => p.observe(ctx.addr.line()),
            Event::End(id) => p.block_end(id, &mut out),
        }
    }
    let s = p.stats();
    assert!(s.prediction_hits > 0 && !out.is_empty(), "{s:?}");
    assert!(s.vector_overflows > 0 && s.block_switches >= 3, "{s:?}");
    assert!(
        s.blocks < 52,
        "a mismatched BLOCK_END must be ignored: {s:?}"
    );
}
