//! The integrated CBWS+SMS policy (§VII): CBWS as an add-on that issues the
//! prefetch when its history table hits, and falls back to SMS otherwise.

use crate::predictor::{cbws_metrics, cbws_params, CbwsConfig, CbwsPredictor};
use cbws_describe::{ComponentDescription, ComponentKind, Describe, ParamSpec};
use cbws_prefetchers::{PrefetchContext, Prefetcher, SmsConfig, SmsPrefetcher};
use cbws_trace::{BlockId, LineAddr};
use serde::{Deserialize, Serialize};

/// When the hybrid silences the SMS side inside annotated blocks. The paper
/// specifies only that CBWS "issues a prefetch only if the current access
/// pattern hits in the history table; otherwise, the SMS prefetcher issues
/// the prefetch" — these policies span the reasonable readings, and the
/// `ablations` bench compares them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SmsSuppression {
    /// Pure union: SMS always runs; CBWS adds its block predictions.
    Never,
    /// Silence SMS inside blocks whenever the CBWS history table hit.
    WhenConfident,
    /// Silence SMS inside blocks when the history table hit *and* the block
    /// fits the CBWS vector (oversized blocks, e.g. bzip2's, keep SMS)
    /// *and* the predicted working set leaps farther than one SMS region
    /// per iteration — the §II patterns SMS cannot follow. Slow-moving
    /// working sets keep SMS, whose whole-region lookahead beats CBWS's
    /// few-iterations lead there. The default.
    #[default]
    WhenCovering,
}

/// Arbitration counters for the hybrid policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HybridStats {
    /// Prefetch candidate lines issued by the CBWS side.
    pub cbws_lines: u64,
    /// Prefetch candidate lines issued by the SMS side.
    pub sms_lines: u64,
    /// SMS candidate lines suppressed because CBWS was confident inside an
    /// annotated block.
    pub sms_suppressed_lines: u64,
}

/// The CBWS+SMS hybrid prefetcher.
///
/// Both engines observe the full access stream. Arbitration follows the
/// paper: "The CBWS prefetcher issues a prefetch only if the current access
/// pattern hits in the history table. Otherwise, the SMS prefetcher issues
/// the prefetch." Concretely, while execution is inside an annotated block
/// and the CBWS predictor's last `BLOCK_END` lookup hit, SMS candidates are
/// suppressed; outside blocks, or when CBWS has no confident prediction,
/// SMS operates normally.
#[derive(Debug, Clone)]
pub struct CbwsSmsPrefetcher {
    cbws: CbwsPredictor,
    sms: SmsPrefetcher,
    policy: SmsSuppression,
    region_lines: u64,
    in_block: bool,
    scratch: Vec<LineAddr>,
    stats: HybridStats,
}

impl CbwsSmsPrefetcher {
    /// Creates the hybrid from both engines' configurations, with the
    /// default arbitration policy.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is degenerate.
    pub fn new(cbws: CbwsConfig, sms: SmsConfig) -> Self {
        Self::with_policy(cbws, sms, SmsSuppression::default())
    }

    /// Creates the hybrid with an explicit arbitration policy.
    ///
    /// # Panics
    ///
    /// Panics if either configuration is degenerate.
    pub fn with_policy(cbws: CbwsConfig, sms: SmsConfig, policy: SmsSuppression) -> Self {
        let region_lines = sms.region_bytes / cbws_trace::LINE_BYTES;
        CbwsSmsPrefetcher {
            cbws: CbwsPredictor::new(cbws),
            sms: SmsPrefetcher::new(sms),
            policy,
            region_lines,
            in_block: false,
            scratch: Vec::new(),
            stats: HybridStats::default(),
        }
    }

    /// Whether SMS candidates are currently silenced.
    fn suppressing(&self) -> bool {
        if !self.in_block || !self.cbws.is_confident() {
            return false;
        }
        match self.policy {
            SmsSuppression::Never => false,
            SmsSuppression::WhenConfident => true,
            SmsSuppression::WhenCovering => {
                !self.cbws.last_block_overflowed()
                    && self.cbws.last_prediction_span() >= self.region_lines
            }
        }
    }

    /// The CBWS prediction engine.
    pub fn cbws(&self) -> &CbwsPredictor {
        &self.cbws
    }

    /// The SMS fallback engine.
    pub fn sms(&self) -> &SmsPrefetcher {
        &self.sms
    }

    /// Arbitration counters.
    pub fn hybrid_stats(&self) -> &HybridStats {
        &self.stats
    }
}

impl Default for CbwsSmsPrefetcher {
    fn default() -> Self {
        CbwsSmsPrefetcher::new(CbwsConfig::default(), SmsConfig::default())
    }
}

impl Describe for CbwsSmsPrefetcher {
    fn describe(&self) -> ComponentDescription {
        let mut d = ComponentDescription::new(
            Prefetcher::name(self),
            ComponentKind::Prefetcher,
            "The headline integrated policy: CBWS issues the prefetch when its \
             differential history table hits; otherwise the SMS engine does. \
             Arbitration is governed by the `suppression` policy — the default \
             silences SMS inside annotated blocks only when CBWS is confident, \
             the block fits the vector, and the predicted working set leaps \
             farther than one SMS region per iteration.",
        )
        .paper_section("§VII (CBWS+SMS)")
        .storage_bits(self.storage_bits())
        .param(ParamSpec::new(
            "suppression",
            "when the hybrid silences SMS inside annotated blocks \
             (Never | WhenConfident | WhenCovering; see the ablations bench)",
            format!("{:?}", self.policy),
            "policy enum",
        ))
        .metrics(cbws_metrics())
        .metrics(cbws_describe::prefetcher_hook_metrics());
        for p in cbws_params(self.cbws.config()) {
            d = d.param(ParamSpec::new(
                format!("cbws.{}", p.name),
                p.doc,
                p.default,
                p.range,
            ));
        }
        for p in self.sms.describe().params {
            d = d.param(ParamSpec::new(
                format!("sms.{}", p.name),
                p.doc,
                p.default,
                p.range,
            ));
        }
        d
    }
}

impl Prefetcher for CbwsSmsPrefetcher {
    fn name(&self) -> &'static str {
        "CBWS+SMS"
    }

    fn storage_bits(&self) -> u64 {
        self.cbws.config().storage_bits() + self.sms.storage_bits()
    }

    fn on_access(&mut self, ctx: &PrefetchContext, out: &mut Vec<LineAddr>) {
        if self.in_block && (self.cbws.config().observe_l1_hits || ctx.reached_l2()) {
            self.cbws.observe(ctx.addr.line());
        }
        self.scratch.clear();
        self.sms.on_access(ctx, &mut self.scratch);
        if self.suppressing() {
            self.stats.sms_suppressed_lines += self.scratch.len() as u64;
        } else {
            self.stats.sms_lines += self.scratch.len() as u64;
            out.append(&mut self.scratch);
        }
    }

    fn on_block_begin(&mut self, id: BlockId) {
        self.in_block = true;
        self.cbws.block_begin(id);
    }

    fn on_block_end(&mut self, id: BlockId, out: &mut Vec<LineAddr>) {
        self.in_block = false;
        let before = out.len();
        self.cbws.block_end(id, out);
        self.stats.cbws_lines += (out.len() - before) as u64;
    }

    fn attach_telemetry(&mut self, telemetry: &cbws_telemetry::Telemetry) {
        self.cbws.set_telemetry(telemetry.clone());
        self.sms.attach_telemetry(telemetry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_trace::{Addr, Pc};

    fn ctx(pc: u64, addr: u64, l1_hit: bool) -> PrefetchContext {
        PrefetchContext {
            pc: Pc(pc),
            addr: Addr(addr),
            is_store: false,
            l1_hit,
            l2_hit: false,
            in_block: false,
        }
    }

    /// Drives a strided annotated loop through the hybrid.
    fn drive_loop(pf: &mut CbwsSmsPrefetcher, iters: u64, stride: u64) -> Vec<LineAddr> {
        let mut all = Vec::new();
        for i in 0..iters {
            pf.on_block_begin(BlockId(0));
            let mut out = Vec::new();
            pf.on_access(&ctx(0x40, i * stride, false), &mut out);
            pf.on_access(&ctx(0x44, 1 << 24 | (i * stride), false), &mut out);
            all.append(&mut out);
            pf.on_block_end(BlockId(0), &mut out);
            all.extend(out);
        }
        all
    }

    #[test]
    fn cbws_side_predicts_in_steady_state() {
        let mut pf = CbwsSmsPrefetcher::default();
        drive_loop(&mut pf, 15, 512);
        assert!(
            pf.hybrid_stats().cbws_lines > 0,
            "CBWS side should contribute"
        );
        assert!(pf.cbws().is_confident());
    }

    #[test]
    fn sms_suppressed_when_cbws_confident() {
        let mut pf = CbwsSmsPrefetcher::with_policy(
            CbwsConfig::default(),
            SmsConfig::default(),
            SmsSuppression::WhenConfident,
        );
        // A dense region walk trains SMS while CBWS also gains confidence:
        // accesses stay within 2KB regions and stride regularly.
        for i in 0..600u64 {
            pf.on_block_begin(BlockId(0));
            let mut out = Vec::new();
            // 2 granules per region; new region every 16 iterations.
            let addr = i * 128;
            pf.on_access(&ctx(0x40, addr, false), &mut out);
            pf.on_access(&ctx(0x44, addr + 64, false), &mut out);
            pf.on_block_end(BlockId(0), &mut out);
        }
        assert!(
            pf.hybrid_stats().sms_suppressed_lines > 0,
            "confident CBWS should suppress SMS inside blocks: {:?}",
            pf.hybrid_stats()
        );
    }

    #[test]
    fn covering_policy_keeps_sms_on_slow_moving_loops() {
        // Same dense region walk under the default policy: the predicted
        // strides (2 lines) are far below the 32-line region span, so SMS
        // keeps running even though CBWS is confident.
        let mut pf = CbwsSmsPrefetcher::default();
        for i in 0..600u64 {
            pf.on_block_begin(BlockId(0));
            let mut out = Vec::new();
            let addr = i * 128;
            pf.on_access(&ctx(0x40, addr, false), &mut out);
            pf.on_access(&ctx(0x44, addr + 64, false), &mut out);
            pf.on_block_end(BlockId(0), &mut out);
        }
        assert!(pf.cbws().is_confident());
        assert_eq!(pf.hybrid_stats().sms_suppressed_lines, 0);
        assert!(pf.hybrid_stats().sms_lines > 0);
    }

    #[test]
    fn covering_policy_suppresses_region_spanning_loops() {
        // A stencil-like loop leaping 64 lines per iteration: the predicted
        // span exceeds the region size, so a trained SMS trigger inside the
        // block is silenced.
        let mut pf = CbwsSmsPrefetcher::default();
        for i in 0..600u64 {
            pf.on_block_begin(BlockId(0));
            let mut out = Vec::new();
            let addr = i * 4096;
            pf.on_access(&ctx(0x40, addr, false), &mut out);
            pf.on_access(&ctx(0x44, addr + 128, false), &mut out);
            pf.on_block_end(BlockId(0), &mut out);
        }
        assert!(pf.cbws().is_confident());
        assert!(pf.cbws().last_prediction_span() >= 32);
        let s = pf.hybrid_stats();
        assert!(
            s.sms_suppressed_lines > 0 || s.sms_lines == 0,
            "SMS must not stream inside region-spanning loops: {s:?}"
        );
    }

    #[test]
    fn sms_operates_outside_blocks() {
        let mut pf = CbwsSmsPrefetcher::default();
        // Train SMS outside any block: region patterns at a fixed PC.
        let mut out = Vec::new();
        for r in 0..40u64 {
            for g in [0u64, 3, 5] {
                pf.on_access(&ctx(0x80, r * 2048 + g * 128, false), &mut out);
            }
        }
        assert!(
            pf.hybrid_stats().sms_lines > 0 || !out.is_empty(),
            "SMS must run outside annotated blocks"
        );
    }

    #[test]
    fn fallback_on_unpredictable_blocks() {
        let mut pf = CbwsSmsPrefetcher::default();
        // Data-dependent (pseudo-random) block working sets: CBWS never
        // gains confidence, so SMS is never suppressed.
        let mut x: u64 = 3;
        for _ in 0..100 {
            pf.on_block_begin(BlockId(0));
            let mut out = Vec::new();
            for _ in 0..3 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                pf.on_access(&ctx(0x40, (x >> 30) & 0xFFFF_FFC0, false), &mut out);
            }
            pf.on_block_end(BlockId(0), &mut out);
        }
        assert_eq!(pf.hybrid_stats().sms_suppressed_lines, 0);
    }

    #[test]
    fn storage_is_sum_of_parts() {
        let pf = CbwsSmsPrefetcher::default();
        assert_eq!(pf.storage_bits(), 8080 + 41536);
        assert_eq!(pf.name(), "CBWS+SMS");
    }
}
