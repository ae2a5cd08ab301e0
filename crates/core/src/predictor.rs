//! The CBWS prediction hardware (paper §IV-C, §V, Algorithm 1, Fig. 8-11).

use crate::vector::{self, CbwsVec, Differential};
use cbws_describe::{ComponentDescription, ComponentKind, Describe, MetricSpec, ParamSpec};
use cbws_prefetchers::{PrefetchContext, Prefetcher};
use cbws_telemetry::Telemetry;
use cbws_trace::{BlockId, LineAddr};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of the CBWS predictor (defaults per Fig. 8 / Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CbwsConfig {
    /// Maximum distinct lines traced per block ("Max. Vector Members 16").
    pub max_vector: usize,
    /// Predecessor CBWSs stored ("# Last CBWS Stored 4"), which is also the
    /// number of multi-step differentials maintained.
    pub max_step: usize,
    /// How many future iterations to prefetch at each `BLOCK_END` (Fig. 7
    /// illustrates 1-step and 2-step prediction; Algorithm 1 predicts up to
    /// `max_step - 1` steps). Must be ≤ `max_step`.
    pub prediction_depth: usize,
    /// Depth of each history shift register (§V-A: 3-deep).
    pub history_depth: usize,
    /// Differential history table entries (16, fully associative, random
    /// replacement).
    pub table_entries: usize,
    /// Observe L1 hits as well as misses when tracing working sets. The
    /// paper's central claim is that compiler hints make this aggressive
    /// setting safe inside tight loops; `false` is the ablation.
    pub observe_l1_hits: bool,
}

impl Default for CbwsConfig {
    fn default() -> Self {
        CbwsConfig {
            max_vector: 16,
            max_step: 4,
            prediction_depth: 3,
            history_depth: 3,
            table_entries: 16,
            observe_l1_hits: true,
        }
    }
}

impl CbwsConfig {
    /// Storage budget in bits, itemized as in Fig. 8.
    pub fn storage_bits(&self) -> u64 {
        let v = self.max_vector as u64;
        let s = self.max_step as u64;
        let current_cbws = v * 32;
        let last_cbws = s * v * 32;
        let current_diffs = s * v * 16;
        let history_regs = s * self.history_depth as u64 * 12;
        let table = self.table_entries as u64 * (16 + v * 16);
        current_cbws + last_cbws + current_diffs + history_regs + table
    }
}

/// The CBWS parameter list, shared by the standalone, hybrid, and
/// multi-context descriptions (all embed the same Fig. 8 hardware).
pub(crate) fn cbws_params(c: &CbwsConfig) -> Vec<ParamSpec> {
    vec![
        ParamSpec::new(
            "max_vector",
            "maximum distinct lines traced per block (Fig. 8: \"Max. Vector Members 16\")",
            c.max_vector.to_string(),
            "≥ 1",
        ),
        ParamSpec::new(
            "max_step",
            "predecessor CBWSs stored, which is also the number of \
             multi-step differentials maintained (Fig. 8: 4)",
            c.max_step.to_string(),
            "≥ 1",
        ),
        ParamSpec::new(
            "prediction_depth",
            "future iterations prefetched at each BLOCK_END (Algorithm 1 \
             predicts up to max_step - 1 steps)",
            c.prediction_depth.to_string(),
            "1 ≤ depth ≤ max_step",
        ),
        ParamSpec::new(
            "history_depth",
            "depth of each history shift register (§V-A: 3)",
            c.history_depth.to_string(),
            "≥ 1",
        ),
        ParamSpec::new(
            "table_entries",
            "differential history table entries, fully associative with \
             random replacement (§V-A: 16)",
            c.table_entries.to_string(),
            "≥ 1",
        ),
        ParamSpec::new(
            "observe_l1_hits",
            "observe L1 hits as well as misses when tracing working sets — \
             the aggressive setting the paper argues compiler hints make safe",
            c.observe_l1_hits.to_string(),
            "bool",
        ),
    ]
}

/// The metrics the CBWS prediction engine emits, shared by every scheme
/// embedding a [`CbwsPredictor`].
pub(crate) fn cbws_metrics() -> Vec<MetricSpec> {
    vec![
        MetricSpec::counter(
            "cbws.table.hit",
            "differential-history-table lookups that hit",
        ),
        MetricSpec::counter(
            "cbws.table.miss",
            "differential-history-table lookups that missed",
        ),
        MetricSpec::counter(
            "cbws.prediction.hit",
            "BLOCK_END predictions issued (history table confident)",
        ),
        MetricSpec::counter(
            "cbws.prediction.miss",
            "BLOCK_END events with no confident prediction",
        ),
        MetricSpec::histogram(
            "cbws.vector_len",
            "distinct lines per completed CBWS vector",
        ),
    ]
}

/// One history shift register: a BHR-like FIFO of 12-bit differential
/// hashes (§V-A).
#[derive(Debug, Clone, PartialEq, Eq)]
struct HistoryShiftRegister {
    entries: VecDeque<u16>,
    depth: usize,
}

impl HistoryShiftRegister {
    fn new(depth: usize) -> Self {
        HistoryShiftRegister {
            entries: VecDeque::with_capacity(depth),
            depth,
        }
    }

    fn shift(&mut self, hash12: u16) {
        if self.entries.len() == self.depth {
            self.entries.pop_front();
        }
        self.entries.push_back(hash12 & 0xFFF);
    }

    /// Whether the register holds a full history (predictions before that
    /// would index the table with mostly-empty state).
    fn is_warm(&self) -> bool {
        self.entries.len() == self.depth
    }

    /// Folds the register contents into a 16-bit tag, salted by the step
    /// index so different step distances do not alias in the shared table.
    fn tag(&self, step: usize) -> u16 {
        let mut t: u16 = (step as u16).wrapping_mul(0x9E37);
        for (i, &e) in self.entries.iter().enumerate() {
            t ^= e.rotate_left((i as u32 * 5) % 16);
        }
        t
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// The 16-entry, fully-associative differential history table with random
/// replacement (§V-A). Randomness comes from a deterministic xorshift so
/// simulations are reproducible.
#[derive(Debug, Clone)]
struct DiffHistoryTable {
    /// `(tag, differential)` slots; a `None` tag marks a free slot. Inserts
    /// overwrite a slot's differential in place, reusing its allocation.
    slots: Vec<(Option<u16>, Differential)>,
    rng: u32,
}

impl DiffHistoryTable {
    fn new(entries: usize) -> Self {
        DiffHistoryTable {
            slots: vec![(None, Differential::default()); entries],
            rng: 0x2545_F491,
        }
    }

    fn next_random(&mut self) -> u32 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.rng = x;
        x
    }

    fn lookup(&self, tag: u16) -> Option<&Differential> {
        self.slots
            .iter()
            .find(|(t, _)| *t == Some(tag))
            .map(|(_, d)| d)
    }

    /// Stores the differential with full-width `strides` under `tag`: in
    /// the slot already holding `tag`, else a free slot, else a random
    /// victim.
    fn insert(&mut self, tag: u16, strides: &[i64]) {
        let slot = match self
            .slots
            .iter()
            .position(|(t, _)| *t == Some(tag))
            .or_else(|| self.slots.iter().position(|(t, _)| t.is_none()))
        {
            Some(slot) => slot,
            None => self.next_random() as usize % self.slots.len(),
        };
        let (t, diff) = &mut self.slots[slot];
        *t = Some(tag);
        diff.set_strides(strides.iter().copied());
    }

    fn occupancy(&self) -> usize {
        self.slots.iter().filter(|(t, _)| t.is_some()).count()
    }
}

/// Counters exposed by the CBWS predictor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CbwsStats {
    /// Dynamic block instances completed.
    pub blocks: u64,
    /// `BLOCK_END` events where at least one table lookup hit.
    pub prediction_hits: u64,
    /// `BLOCK_END` events where every lookup missed (standalone CBWS stays
    /// silent; the hybrid falls back to SMS).
    pub prediction_misses: u64,
    /// Lines whose tracing was dropped because the vector was full.
    pub vector_overflows: u64,
    /// Context switches between different static blocks.
    pub block_switches: u64,
}

/// The CBWS prediction engine: tracks the current block's working set,
/// maintains multi-step differentials against the last `max_step` CBWSs,
/// and predicts future working sets at each `BLOCK_END` (Algorithm 1).
///
/// This struct is the raw hardware model; [`CbwsPrefetcher`] wraps it in the
/// [`Prefetcher`] trait for the simulation harness.
#[derive(Debug, Clone)]
pub struct CbwsPredictor {
    cfg: CbwsConfig,
    current_block: Option<BlockId>,
    curr: CbwsVec,
    /// Incrementally-built strides against each predecessor CBWS
    /// (`curr_diff[i]` in Algorithm 1; index 0 = 1-step).
    curr_diffs: Vec<Vec<i64>>,
    /// Predecessor CBWS buffers, most recent first (`last_cbws`). All
    /// `max_step` buffers always exist; only the first `predecessors` hold
    /// CBWSs of the current block.
    last: VecDeque<CbwsVec>,
    predecessors: usize,
    /// One history shift register per step distance.
    histories: Vec<HistoryShiftRegister>,
    table: DiffHistoryTable,
    confident: bool,
    last_block_overflowed: bool,
    last_prediction_span: u64,
    stats: CbwsStats,
    telemetry: Telemetry,
}

impl CbwsPredictor {
    /// Creates a predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (`prediction_depth`
    /// exceeding `max_step`, or any zero-sized structure).
    pub fn new(cfg: CbwsConfig) -> Self {
        assert!(cfg.max_vector > 0, "max_vector must be non-zero");
        assert!(cfg.max_step > 0, "max_step must be non-zero");
        assert!(cfg.history_depth > 0, "history_depth must be non-zero");
        assert!(cfg.table_entries > 0, "table_entries must be non-zero");
        assert!(
            cfg.prediction_depth >= 1 && cfg.prediction_depth <= cfg.max_step,
            "prediction_depth must be in 1..=max_step"
        );
        CbwsPredictor {
            curr: CbwsVec::new(cfg.max_vector),
            curr_diffs: vec![Vec::new(); cfg.max_step],
            last: (0..cfg.max_step)
                .map(|_| CbwsVec::new(cfg.max_vector))
                .collect(),
            predecessors: 0,
            histories: (0..cfg.max_step)
                .map(|_| HistoryShiftRegister::new(cfg.history_depth))
                .collect(),
            table: DiffHistoryTable::new(cfg.table_entries),
            cfg,
            current_block: None,
            confident: false,
            last_block_overflowed: false,
            last_prediction_span: 0,
            stats: CbwsStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink: table lookups count as `cbws.table.*`
    /// metrics. The default is a disabled sink.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The configuration in use.
    pub fn config(&self) -> &CbwsConfig {
        &self.cfg
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &CbwsStats {
        &self.stats
    }

    /// Whether the most recent `BLOCK_END` produced a table hit. The hybrid
    /// policy uses this as the CBWS-confidence signal.
    pub fn is_confident(&self) -> bool {
        self.confident
    }

    /// Whether the most recently completed block's working set overflowed
    /// the CBWS capacity (the `bzip2` case, §VII-C): even a confident
    /// prediction then covers only a prefix of the block's footprint, so
    /// the hybrid must not silence its fallback prefetcher.
    pub fn last_block_overflowed(&self) -> bool {
        self.last_block_overflowed
    }

    /// Largest absolute stride (in lines) among the differentials of the
    /// most recent prediction; 0 when the last lookup missed or predicted a
    /// stationary working set. The hybrid compares this against the SMS
    /// region size: working sets that leap across regions are exactly the
    /// patterns SMS cannot follow (§II).
    pub fn last_prediction_span(&self) -> u64 {
        self.last_prediction_span
    }

    /// Current differential-table occupancy (diagnostics).
    pub fn table_occupancy(&self) -> usize {
        self.table.occupancy()
    }

    /// `BLOCK_BEGIN(id)`: clears the current-CBWS tracing (Fig. 9). A
    /// different static block id flushes all cross-iteration state, since
    /// the single hardware context tracks one loop at a time.
    pub fn block_begin(&mut self, id: BlockId) {
        if self.current_block != Some(id) {
            if self.current_block.is_some() {
                self.stats.block_switches += 1;
            }
            self.current_block = Some(id);
            self.predecessors = 0;
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

    /// A committed memory access to `line` inside the current block
    /// (Fig. 10): appends to the current CBWS and extends the multi-step
    /// differentials with one adder per step.
    pub fn observe(&mut self, line: LineAddr) {
        if self.current_block.is_none() {
            return;
        }
        let before = self.curr.overflowed();
        if !self.curr.observe(line) {
            self.stats.vector_overflows += self.curr.overflowed() - before;
            return;
        }
        let idx = self.curr.len() - 1;
        let predecessors = self.last.iter().take(self.predecessors);
        for (diffs, prev) in self.curr_diffs.iter_mut().zip(predecessors) {
            if let Some(prev_line) = prev.get(idx) {
                // Differentials align to the shorter vector, so only
                // extend while still contiguous with the predecessor.
                if diffs.len() == idx {
                    diffs.push(line.delta(prev_line));
                }
            }
        }
    }

    /// `BLOCK_END(id)` (Fig. 11): trains the differential history table,
    /// rotates the predecessor buffers, and appends the predicted working
    /// sets of pending iterations to `out`. A `BLOCK_END` for a block other
    /// than the current one is ignored.
    pub fn block_end(&mut self, id: BlockId, out: &mut Vec<LineAddr>) {
        if self.current_block != Some(id) {
            return;
        }
        self.stats.blocks += 1;
        self.last_block_overflowed = self.curr.overflowed() > 0;
        self.telemetry
            .observe("cbws.vector_len", self.curr.len() as u64);

        // 1-2: store each step's new differential under the *previous*
        // history tag, then shift the history register.
        for (step, strides) in self.curr_diffs.iter().enumerate() {
            if strides.is_empty() {
                continue;
            }
            let history = &mut self.histories[step];
            if history.is_warm() {
                self.table.insert(history.tag(step), strides);
            }
            // The 16-bit truncation `Differential` applies before hashing.
            history.shift(vector::hash12(strides.iter().map(|&s| s as i16)));
        }

        // Rotate the last-CBWSs buffer: the completed CBWS becomes the most
        // recent predecessor, and the oldest buffer becomes the new current
        // CBWS.
        let oldest = self.last.pop_back().expect("max_step > 0 buffers");
        let completed = std::mem::replace(&mut self.curr, oldest);
        self.last.push_front(completed);
        self.predecessors = (self.predecessors + 1).min(self.cfg.max_step);

        // 3-4: look up the updated histories and predict future CBWSs.
        let mut hit = false;
        let mut span: u64 = 0;
        let base = self.last.front().expect("just pushed");
        for step in 0..self.cfg.prediction_depth {
            if !self.histories[step].is_warm() {
                continue;
            }
            let tag = self.histories[step].tag(step);
            let lookup = self.table.lookup(tag);
            self.telemetry.count(
                if lookup.is_some() {
                    "cbws.table.hit"
                } else {
                    "cbws.table.miss"
                },
                1,
            );
            if let Some(pred) = lookup {
                hit = true;
                span = span.max(
                    pred.strides()
                        .iter()
                        .map(|s| s.unsigned_abs() as u64)
                        .max()
                        .unwrap_or(0),
                );
                if !pred.is_zero() {
                    pred.apply(base, out);
                }
            }
        }
        self.confident = hit;
        self.last_prediction_span = span;
        if hit {
            self.stats.prediction_hits += 1;
            self.telemetry.count("cbws.prediction.hit", 1);
        } else {
            self.stats.prediction_misses += 1;
            self.telemetry.count("cbws.prediction.miss", 1);
        }

        self.curr.clear();
        for d in &mut self.curr_diffs {
            d.clear();
        }
    }
}

/// The standalone CBWS prefetcher (§VII evaluation mode "CBWS"): issues
/// prefetches only on a differential-history-table hit; on a miss it stays
/// silent.
#[derive(Debug, Clone)]
pub struct CbwsPrefetcher {
    predictor: CbwsPredictor,
    in_block: bool,
}

impl CbwsPrefetcher {
    /// Creates a standalone CBWS prefetcher.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (see [`CbwsPredictor::new`]).
    pub fn new(cfg: CbwsConfig) -> Self {
        CbwsPrefetcher {
            predictor: CbwsPredictor::new(cfg),
            in_block: false,
        }
    }

    /// The underlying prediction engine.
    pub fn predictor(&self) -> &CbwsPredictor {
        &self.predictor
    }
}

impl Default for CbwsPrefetcher {
    fn default() -> Self {
        CbwsPrefetcher::new(CbwsConfig::default())
    }
}

impl Describe for CbwsPrefetcher {
    fn describe(&self) -> ComponentDescription {
        let mut d = ComponentDescription::new(
            Prefetcher::name(self),
            ComponentKind::Prefetcher,
            "The paper's contribution, standalone: traces each annotated \
             block's working-set vector, learns the differentials between \
             consecutive iterations in a 16-entry history table, and at every \
             BLOCK_END prefetches the complete working sets of the next \
             `prediction_depth` iterations — but only on a history-table hit.",
        )
        .paper_section("§IV-V, Fig. 8, Algorithm 1")
        .storage_bits(self.storage_bits())
        .metrics(cbws_metrics())
        .metrics(cbws_describe::prefetcher_hook_metrics());
        for p in cbws_params(&self.predictor.cfg) {
            d = d.param(p);
        }
        d
    }
}

impl Prefetcher for CbwsPrefetcher {
    fn name(&self) -> &'static str {
        "CBWS"
    }

    fn storage_bits(&self) -> u64 {
        self.predictor.cfg.storage_bits()
    }

    fn on_access(&mut self, ctx: &PrefetchContext, _out: &mut Vec<LineAddr>) {
        if !self.in_block {
            return;
        }
        if self.predictor.cfg.observe_l1_hits || ctx.reached_l2() {
            self.predictor.observe(ctx.addr.line());
        }
    }

    fn on_block_begin(&mut self, id: BlockId) {
        self.in_block = true;
        self.predictor.block_begin(id);
    }

    fn on_block_end(&mut self, id: BlockId, out: &mut Vec<LineAddr>) {
        self.in_block = false;
        self.predictor.block_end(id, out);
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.predictor.set_telemetry(telemetry.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_trace::LineAddr;

    /// Runs `iters` iterations of a synthetic loop whose i-th iteration
    /// touches `base + i * stride + offsets`.
    fn run_strided(
        p: &mut CbwsPredictor,
        id: BlockId,
        iters: u64,
        base: u64,
        stride: u64,
        offsets: &[u64],
    ) -> Vec<Vec<LineAddr>> {
        let mut preds = Vec::new();
        for i in 0..iters {
            p.block_begin(id);
            for &o in offsets {
                p.observe(LineAddr(base + i * stride + o));
            }
            let mut out = Vec::new();
            p.block_end(id, &mut out);
            preds.push(out);
        }
        preds
    }

    #[test]
    fn constant_stride_loop_predicts_next_ws() {
        let mut p = CbwsPredictor::new(CbwsConfig::default());
        let preds = run_strided(&mut p, BlockId(0), 12, 1000, 16, &[0, 3, 7]);
        // After warm-up (history depth 3 + training), predictions appear.
        let last = preds.last().unwrap();
        assert!(!last.is_empty(), "steady-state loop should predict");
        // 1-step prediction of iteration 12: lines 1000+12*16 + {0,3,7}.
        let expect: Vec<LineAddr> = [0u64, 3, 7].map(|o| LineAddr(1000 + 12 * 16 + o)).to_vec();
        assert_eq!(&last[..3], &expect[..]);
        assert!(p.is_confident());
        assert!(p.stats().prediction_hits > 0);
    }

    #[test]
    fn two_step_prediction_reaches_farther() {
        let cfg = CbwsConfig {
            prediction_depth: 2,
            ..CbwsConfig::default()
        };
        let mut p = CbwsPredictor::new(cfg);
        let preds = run_strided(&mut p, BlockId(0), 12, 0, 100, &[0]);
        let last = preds.last().unwrap();
        // Steps 1 and 2 predict iterations 12 and 13.
        assert!(last.contains(&LineAddr(1200)));
        assert!(last.contains(&LineAddr(1300)));
    }

    #[test]
    fn cold_start_is_silent() {
        let mut p = CbwsPredictor::new(CbwsConfig::default());
        let preds = run_strided(&mut p, BlockId(0), 3, 0, 64, &[0, 1]);
        for pred in &preds {
            assert!(pred.is_empty(), "no prediction before the table is trained");
        }
    }

    #[test]
    fn random_walk_never_gains_confidence() {
        let mut p = CbwsPredictor::new(CbwsConfig::default());
        let mut x: u64 = 7;
        for _ in 0..50 {
            p.block_begin(BlockId(0));
            for _ in 0..4 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                p.observe(LineAddr(x >> 40));
            }
            p.block_end(BlockId(0), &mut Vec::new());
        }
        // Data-dependent working sets (the histo case, Fig. 16): hit rate
        // should be negligible.
        let s = p.stats();
        assert!(
            s.prediction_hits * 10 < s.blocks,
            "random differentials predicted too often: {s:?}"
        );
    }

    #[test]
    fn block_switch_flushes_state() {
        let mut p = CbwsPredictor::new(CbwsConfig::default());
        run_strided(&mut p, BlockId(0), 10, 0, 64, &[0]);
        assert!(p.is_confident());
        // A different static block flushes per-loop state and confidence.
        p.block_begin(BlockId(1));
        assert!(!p.is_confident());
        assert_eq!(p.stats().block_switches, 1);
        p.observe(LineAddr(5));
        let mut pred = Vec::new();
        p.block_end(BlockId(1), &mut pred);
        assert!(pred.is_empty());
    }

    #[test]
    fn vector_overflow_counted_and_capped() {
        let cfg = CbwsConfig {
            max_vector: 4,
            ..CbwsConfig::default()
        };
        let mut p = CbwsPredictor::new(cfg);
        p.block_begin(BlockId(0));
        for i in 0..10 {
            p.observe(LineAddr(i));
        }
        p.block_end(BlockId(0), &mut Vec::new());
        assert_eq!(p.stats().vector_overflows, 6);
    }

    #[test]
    fn mismatched_block_end_ignored() {
        let mut p = CbwsPredictor::new(CbwsConfig::default());
        p.block_begin(BlockId(0));
        p.observe(LineAddr(1));
        let mut out = Vec::new();
        p.block_end(BlockId(9), &mut out);
        assert!(out.is_empty());
        assert_eq!(p.stats().blocks, 0);
    }

    #[test]
    fn observe_outside_block_ignored() {
        let mut p = CbwsPredictor::new(CbwsConfig::default());
        p.observe(LineAddr(1));
        assert_eq!(p.stats().blocks, 0);
    }

    #[test]
    fn table_survives_many_distinct_patterns_without_growth() {
        let mut p = CbwsPredictor::new(CbwsConfig::default());
        // Alternate between many differential alphabets (the fft /
        // streamcluster failure mode): the 16-entry table must bound state.
        for phase in 0..40u64 {
            run_strided(
                &mut p,
                BlockId(0),
                6,
                phase * 100_000,
                17 + phase * 3,
                &[0, 2],
            );
        }
        assert!(p.table_occupancy() <= 16);
    }

    #[test]
    fn prediction_depth_validated() {
        let cfg = CbwsConfig {
            prediction_depth: 5,
            max_step: 4,
            ..CbwsConfig::default()
        };
        assert!(std::panic::catch_unwind(|| CbwsPredictor::new(cfg)).is_err());
    }

    #[test]
    fn storage_is_under_1kb() {
        let cfg = CbwsConfig::default();
        let bits = cfg.storage_bits();
        assert!(bits < 8 * 1024, "paper claims < 1KB, got {} bits", bits);
        assert_eq!(bits, 8080);
    }

    #[test]
    fn standalone_prefetcher_trait_flow() {
        use cbws_prefetchers::PrefetchContext;
        use cbws_trace::{Addr, Pc};
        let mut pf = CbwsPrefetcher::default();
        let mut out = Vec::new();
        for i in 0..12u64 {
            pf.on_block_begin(BlockId(0));
            for o in [0u64, 5] {
                let ctx = PrefetchContext {
                    pc: Pc(0x40),
                    addr: Addr((1000 + i * 8 + o) * 64),
                    is_store: false,
                    l1_hit: true, // CBWS observes hits too
                    l2_hit: true,
                    in_block: true,
                };
                pf.on_access(&ctx, &mut out);
            }
            out.clear();
            pf.on_block_end(BlockId(0), &mut out);
        }
        assert!(!out.is_empty(), "steady-state loop should prefetch");
        assert_eq!(pf.name(), "CBWS");
        assert!(pf.storage_bits() < 8192);
    }

    #[test]
    fn misses_only_ablation_ignores_hits() {
        let cfg = CbwsConfig {
            observe_l1_hits: false,
            ..CbwsConfig::default()
        };
        let mut pf = CbwsPrefetcher::new(cfg);
        let mut out = Vec::new();
        use cbws_prefetchers::PrefetchContext;
        use cbws_trace::{Addr, Pc};
        for i in 0..12u64 {
            pf.on_block_begin(BlockId(0));
            let ctx = PrefetchContext {
                pc: Pc(0),
                addr: Addr(i * 64 * 8),
                is_store: false,
                l1_hit: true,
                l2_hit: true,
                in_block: true,
            };
            pf.on_access(&ctx, &mut out);
            pf.on_block_end(BlockId(0), &mut out);
        }
        assert!(out.is_empty(), "hits must be invisible in misses-only mode");
    }
}
