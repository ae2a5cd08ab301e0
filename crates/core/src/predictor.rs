//! The CBWS prediction hardware (paper §IV-C, §V, Algorithm 1, Fig. 8-11).

use crate::vector;
use cbws_describe::{ComponentDescription, ComponentKind, Describe, MetricSpec, ParamSpec};
use cbws_prefetchers::{PrefetchContext, Prefetcher};
use cbws_telemetry::Telemetry;
use cbws_trace::{BlockId, LineAddr};
use serde::{Deserialize, Serialize};

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

/// Table tags compared per probe step, as the lanes of one `u64`; the tag
/// lane is padded to a whole number of groups.
const TAG_GROUP: usize = 4;

/// The per-step bookkeeping: the history shift register's fill level,
/// ring head and folded tag, and the step's table slot hint.
#[derive(Debug, Clone, Copy, Default)]
struct Step {
    /// Hashes held, up to `history_depth`.
    len: usize,
    /// Ring slot of the oldest hash once the register is full.
    head: usize,
    /// The held hashes folded into a tag, oldest first, the one `i`
    /// positions from the oldest rotated left by `5 * i` bits: the XOR of
    /// rotations lets a shift update it in O(1).
    folded: u16,
    /// The slot the step's last insert or lookup found. A steady loop's
    /// histories, and so its tags, repeat, so this is tried before a scan.
    slot_hint: usize,
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
/// forms the multi-step differentials against the last `max_step` CBWSs,
/// and predicts future working sets at each `BLOCK_END` (Algorithm 1).
///
/// The state is Fig. 8's fixed register file, held in lanes sized once
/// from [`CbwsConfig`]: a ring of `1 + max_step` line buffers (the current
/// CBWS and its predecessors), one history shift register per step, and
/// the differential history table as a tag lane beside a flat stride lane.
/// Each step's differential is formed at `BLOCK_END` from the stored
/// vectors. Its values are exactly those Fig. 10's per-access adders
/// accumulate, because a block's predecessors cannot change while it runs.
///
/// This struct is the raw hardware model; [`CbwsPrefetcher`] wraps it in the
/// [`Prefetcher`] trait for the simulation harness.
#[derive(Debug, Clone)]
pub struct CbwsPredictor {
    cfg: CbwsConfig,
    current_block: Option<BlockId>,
    /// `1 + max_step` line buffers of `max_vector` lines, buffer-major.
    /// Buffer `cur` is the current CBWS; the predecessor `s + 1` blocks
    /// back (`last_cbws[s]` in Algorithm 1) is buffer `cur - 1 - s`, modulo
    /// the ring.
    lines: Box<[LineAddr]>,
    /// Lines held by each buffer.
    lens: Box<[usize]>,
    cur: usize,
    /// Accesses the current CBWS dropped because it was full.
    overflowed: u64,
    /// Predecessor buffers holding CBWSs of the current block.
    predecessors: usize,
    /// One `history_depth`-deep shift register of 12-bit differential
    /// hashes per step distance (§V-A), each a ring of `history_depth`
    /// slots, step-major.
    history: Box<[u16]>,
    /// Each step's register bookkeeping and slot hint.
    steps: Box<[Step]>,
    /// The differential history table's tags (16 entries, fully
    /// associative, random replacement). Slots fill in order and are never
    /// freed, so the first `occupied` are the valid ones.
    tags: Box<[u16]>,
    occupied: usize,
    /// Each table slot's 16-bit strides, `max_vector` per slot.
    strides: Box<[i16]>,
    /// Strides held by each table slot.
    stride_lens: Box<[usize]>,
    /// The differential being formed at `BLOCK_END`.
    diff: Box<[i16]>,
    /// Deterministic xorshift state for the table's random replacement, so
    /// simulations are reproducible.
    rng: u32,
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
        let buffers = 1 + cfg.max_step;
        CbwsPredictor {
            lines: vec![LineAddr(0); buffers * cfg.max_vector].into_boxed_slice(),
            lens: vec![0; buffers].into_boxed_slice(),
            cur: 0,
            overflowed: 0,
            predecessors: 0,
            history: vec![0; cfg.max_step * cfg.history_depth].into_boxed_slice(),
            steps: vec![Step::default(); cfg.max_step].into_boxed_slice(),
            tags: vec![0; cfg.table_entries.div_ceil(TAG_GROUP) * TAG_GROUP].into_boxed_slice(),
            occupied: 0,
            strides: vec![0; cfg.table_entries * cfg.max_vector].into_boxed_slice(),
            stride_lens: vec![0; cfg.table_entries].into_boxed_slice(),
            diff: vec![0; cfg.max_vector].into_boxed_slice(),
            rng: 0x2545_F491,
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
        self.occupied
    }

    /// The lines of ring buffer `b`.
    fn buffer(&self, b: usize) -> &[LineAddr] {
        let start = b * self.cfg.max_vector;
        &self.lines[start..start + self.lens[b]]
    }

    /// The ring index of the predecessor `step + 1` blocks back.
    fn predecessor(&self, step: usize) -> usize {
        let b = self.cur + self.lens.len() - 1 - step;
        if b >= self.lens.len() {
            b - self.lens.len()
        } else {
            b
        }
    }

    /// Whether step `step`'s history register is full (predictions before
    /// that would index the table with mostly-empty state).
    fn is_warm(&self, step: usize) -> bool {
        self.steps[step].len == self.cfg.history_depth
    }

    /// Step `step`'s history register folded into a 16-bit tag, salted by
    /// the step index so different step distances do not alias in the
    /// shared table.
    fn tag(&self, step: usize) -> u16 {
        (step as u16).wrapping_mul(0x9E37) ^ self.steps[step].folded
    }

    /// Shifts `hash12` into step `step`'s history register, dropping the
    /// oldest hash when it is full, and refolds the register's tag.
    fn shift_history(&mut self, step: usize, hash12: u16) {
        let depth = self.cfg.history_depth;
        let hash12 = hash12 & 0xFFF;
        let ring = &mut self.history[step * depth..(step + 1) * depth];
        let r = &mut self.steps[step];
        if r.len == depth {
            // Every held hash moves one position down: drop the oldest's
            // term and undo one position's rotation for the rest.
            r.folded = (r.folded ^ ring[r.head]).rotate_right(5);
            ring[r.head] = hash12;
            r.head = if r.head + 1 == depth { 0 } else { r.head + 1 };
        } else {
            ring[r.len] = hash12;
            r.len += 1;
        }
        r.folded ^= hash12.rotate_left((5 * (r.len as u32 - 1)) % 16);
    }

    /// The table slot holding `tag`, if any. Four tags are compared at a
    /// time as the 16-bit lanes of one word: a lane equal to `tag` is a
    /// zero lane of `word ^ want`, and the borrow trick flags the lowest
    /// zero lane exactly (a borrow out of it may flag lanes above it, but
    /// never one below), which is the first match in slot order.
    fn lookup(&self, tag: u16) -> Option<usize> {
        const LANES: u64 = 0x0001_0001_0001_0001;
        let want = LANES * u64::from(tag);
        for (q, quad) in self.tags.chunks_exact(TAG_GROUP).enumerate() {
            if q * TAG_GROUP >= self.occupied {
                break;
            }
            let word = quad.iter().rev().fold(0, |w, &t| w << 16 | u64::from(t));
            let x = word ^ want;
            let zero = x.wrapping_sub(LANES) & !x & LANES << 15;
            if zero != 0 {
                // Valid slots are a prefix, so a first match past it means
                // no valid slot holds `tag`.
                let slot = q * TAG_GROUP + (zero.trailing_zeros() / 16) as usize;
                return (slot < self.occupied).then_some(slot);
            }
        }
        None
    }

    /// The table slot holding step `step`'s tag `tag`, if any, trying the
    /// step's hint first: valid tags are unique, so a valid slot holding
    /// `tag` is the one a scan would find.
    fn find(&mut self, step: usize, tag: u16) -> Option<usize> {
        let hint = self.steps[step].slot_hint;
        let slot = if hint < self.occupied && self.tags[hint] == tag {
            Some(hint)
        } else {
            self.lookup(tag)
        };
        if let Some(slot) = slot {
            self.steps[step].slot_hint = slot;
        }
        slot
    }

    /// The strides table slot `slot` holds.
    fn slot_strides(&self, slot: usize) -> &[i16] {
        let start = slot * self.cfg.max_vector;
        &self.strides[start..start + self.stride_lens[slot]]
    }

    /// Stores the first `len` strides of the differential being formed
    /// under step `step`'s tag `tag`: in the slot already holding `tag`,
    /// else the next free slot, else a random victim.
    fn insert(&mut self, step: usize, tag: u16, len: usize) {
        let slot = match self.find(step, tag) {
            Some(slot) => slot,
            None if self.occupied < self.cfg.table_entries => {
                self.occupied += 1;
                self.occupied - 1
            }
            None => {
                let mut x = self.rng;
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                self.rng = x;
                x as usize % self.cfg.table_entries
            }
        };
        self.tags[slot] = tag;
        self.steps[step].slot_hint = slot;
        let start = slot * self.cfg.max_vector;
        self.strides[start..start + len].copy_from_slice(&self.diff[..len]);
        self.stride_lens[slot] = len;
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
            self.steps.fill(Step::default());
            self.confident = false;
        }
        self.lens[self.cur] = 0;
        self.overflowed = 0;
    }

    /// A committed memory access to `line` inside the current block
    /// (Fig. 10): appends it to the current CBWS unless already traced or
    /// the vector is full.
    pub fn observe(&mut self, line: LineAddr) {
        if self.current_block.is_none() {
            return;
        }
        let len = self.lens[self.cur];
        let start = self.cur * self.cfg.max_vector;
        if self.lines[start..start + len].contains(&line) {
            return;
        }
        if len == self.cfg.max_vector {
            self.overflowed += 1;
            self.stats.vector_overflows += 1;
            return;
        }
        self.lines[start + len] = line;
        self.lens[self.cur] = len + 1;
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
        self.last_block_overflowed = self.overflowed > 0;
        let len = self.lens[self.cur];
        self.telemetry.observe("cbws.vector_len", len as u64);

        // 1-2: form each step's differential against its predecessor,
        // aligned to the shorter vector, store it under the *previous*
        // history tag, then shift the history register.
        for step in 0..self.predecessors {
            let prev = self.predecessor(step);
            let n = len.min(self.lens[prev]);
            if n == 0 {
                continue;
            }
            let (curr, prev) = (self.cur * self.cfg.max_vector, prev * self.cfg.max_vector);
            let pairs = self.lines[curr..curr + n]
                .iter()
                .zip(&self.lines[prev..prev + n]);
            for (d, (&line, &prev_line)) in self.diff.iter_mut().zip(pairs) {
                // The 16-bit truncation of Fig. 8's stride registers.
                *d = line.delta(prev_line) as i16;
            }
            if self.is_warm(step) {
                self.insert(step, self.tag(step), n);
            }
            let hash = vector::hash12(self.diff[..n].iter().copied());
            self.shift_history(step, hash);
        }

        // Rotate the ring: the completed CBWS becomes the most recent
        // predecessor, and the oldest buffer becomes the new current CBWS.
        let base = self.cur;
        self.cur = if self.cur + 1 == self.lens.len() {
            0
        } else {
            self.cur + 1
        };
        self.predecessors = (self.predecessors + 1).min(self.cfg.max_step);

        // 3-4: look up the updated histories and predict future CBWSs.
        let mut hit = false;
        let mut span: u64 = 0;
        for step in 0..self.cfg.prediction_depth {
            if !self.is_warm(step) {
                continue;
            }
            let lookup = self.find(step, self.tag(step));
            self.telemetry.count(
                if lookup.is_some() {
                    "cbws.table.hit"
                } else {
                    "cbws.table.miss"
                },
                1,
            );
            if let Some(slot) = lookup {
                hit = true;
                let pred = self.slot_strides(slot);
                let widest = pred.iter().map(|s| u64::from(s.unsigned_abs())).max();
                span = span.max(widest.unwrap_or(0));
                if pred.iter().any(|&s| s != 0) {
                    out.extend(
                        pred.iter()
                            .zip(self.buffer(base))
                            .map(|(&s, &b)| b.offset(i64::from(s))),
                    );
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

        self.lens[self.cur] = 0;
        self.overflowed = 0;
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
    fn free_and_padding_slots_never_match() {
        // Free slots and the tag lane's padding hold raw zeros, which tag 0
        // would match if the occupancy bound were not applied.
        let mut p = CbwsPredictor::new(CbwsConfig {
            table_entries: 3,
            ..CbwsConfig::default()
        });
        assert_eq!((p.lookup(0), p.find(0, 0)), (None, None));
        p.insert(0, 9, 1);
        assert_eq!(
            (p.lookup(0), p.find(1, 0), p.lookup(9)),
            (None, None, Some(0))
        );
        p.insert(1, 0, 1);
        assert_eq!((p.lookup(0), p.find(0, 0)), (Some(1), Some(1)));
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
