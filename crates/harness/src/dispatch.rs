//! Enum dispatch over the concrete prefetcher types — the one prefetcher
//! path every simulation runs.
//!
//! [`AnyPrefetcher`] carries the twelve configurations as an enum, so
//! `PrefetchedMemory<AnyPrefetcher>` is a concrete type whose `on_access`
//! is a direct (inlinable) match instead of a vtable call per committed
//! access. Storage budgets and self-descriptions go through the same enum.

use crate::runner::{PrefetcherKind, SystemConfig};
use cbws_core::{CbwsPrefetcher, CbwsSmsPrefetcher, MultiCbwsPrefetcher};
use cbws_describe::{ComponentDescription, Describe};
use cbws_prefetchers::{
    AmpmConfig, AmpmPrefetcher, FeedbackDirected, GhbConfig, GhbPrefetcher, MarkovConfig,
    MarkovPrefetcher, NullPrefetcher, PrefetchContext, Prefetcher, SmsPrefetcher, StemsConfig,
    StemsPrefetcher, StrideConfig, StridePrefetcher,
};
use cbws_telemetry::Telemetry;
use cbws_trace::{BlockId, LineAddr};

/// Every prefetcher configuration the harness can run, as one concrete
/// statically-dispatched type. Mirrors [`PrefetcherKind`] variant for
/// variant (both GHB kinds share [`GhbPrefetcher`], configured at build).
#[allow(clippy::large_enum_variant)] // one allocation per *run*, not per access
pub enum AnyPrefetcher {
    /// No prefetching.
    None(NullPrefetcher),
    /// PC-indexed stride.
    Stride(StridePrefetcher),
    /// GHB (PC/DC or G/DC, per its config).
    Ghb(GhbPrefetcher),
    /// Spatial memory streaming.
    Sms(SmsPrefetcher),
    /// Standalone CBWS.
    Cbws(CbwsPrefetcher),
    /// The integrated CBWS+SMS policy.
    CbwsSms(CbwsSmsPrefetcher),
    /// Access Map Pattern Matching.
    Ampm(AmpmPrefetcher),
    /// Feedback-directed throttling around SMS.
    FdpSms(FeedbackDirected<SmsPrefetcher>),
    /// CBWS with four tracking contexts.
    MultiCbws(MultiCbwsPrefetcher),
    /// STeMS-lite.
    Stems(StemsPrefetcher),
    /// Markov pair-correlation.
    Markov(MarkovPrefetcher),
}

impl PrefetcherKind {
    /// Builds the prefetcher with its Table II configuration.
    pub fn build_any(self, cfg: &SystemConfig) -> AnyPrefetcher {
        match self {
            PrefetcherKind::None => AnyPrefetcher::None(NullPrefetcher),
            PrefetcherKind::Stride => {
                AnyPrefetcher::Stride(StridePrefetcher::new(StrideConfig::default()))
            }
            PrefetcherKind::GhbPcDc => AnyPrefetcher::Ghb(GhbPrefetcher::new(GhbConfig::pcdc())),
            PrefetcherKind::GhbGDc => AnyPrefetcher::Ghb(GhbPrefetcher::new(GhbConfig::gdc())),
            PrefetcherKind::Sms => AnyPrefetcher::Sms(SmsPrefetcher::new(cfg.sms())),
            PrefetcherKind::Cbws => AnyPrefetcher::Cbws(CbwsPrefetcher::new(cfg.cbws())),
            PrefetcherKind::CbwsSms => {
                AnyPrefetcher::CbwsSms(CbwsSmsPrefetcher::new(cfg.cbws(), cfg.sms()))
            }
            PrefetcherKind::Ampm => AnyPrefetcher::Ampm(AmpmPrefetcher::new(AmpmConfig::default())),
            PrefetcherKind::FdpSms => {
                AnyPrefetcher::FdpSms(FeedbackDirected::new(SmsPrefetcher::new(cfg.sms())))
            }
            PrefetcherKind::MultiCbws => {
                AnyPrefetcher::MultiCbws(MultiCbwsPrefetcher::new(cfg.cbws(), 4))
            }
            PrefetcherKind::Stems => {
                AnyPrefetcher::Stems(StemsPrefetcher::new(StemsConfig::default()))
            }
            PrefetcherKind::Markov => {
                AnyPrefetcher::Markov(MarkovPrefetcher::new(MarkovConfig::default()))
            }
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $p:ident => $body:expr) => {
        match $self {
            AnyPrefetcher::None($p) => $body,
            AnyPrefetcher::Stride($p) => $body,
            AnyPrefetcher::Ghb($p) => $body,
            AnyPrefetcher::Sms($p) => $body,
            AnyPrefetcher::Cbws($p) => $body,
            AnyPrefetcher::CbwsSms($p) => $body,
            AnyPrefetcher::Ampm($p) => $body,
            AnyPrefetcher::FdpSms($p) => $body,
            AnyPrefetcher::MultiCbws($p) => $body,
            AnyPrefetcher::Stems($p) => $body,
            AnyPrefetcher::Markov($p) => $body,
        }
    };
}

impl Prefetcher for AnyPrefetcher {
    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }

    fn storage_bits(&self) -> u64 {
        dispatch!(self, p => p.storage_bits())
    }

    #[inline]
    fn on_access(&mut self, ctx: &PrefetchContext, out: &mut Vec<LineAddr>) {
        dispatch!(self, p => p.on_access(ctx, out))
    }

    #[inline]
    fn on_block_begin(&mut self, id: BlockId) {
        dispatch!(self, p => p.on_block_begin(id))
    }

    #[inline]
    fn on_block_end(&mut self, id: BlockId, out: &mut Vec<LineAddr>) {
        dispatch!(self, p => p.on_block_end(id, out))
    }

    fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        dispatch!(self, p => p.attach_telemetry(telemetry))
    }
}

impl Describe for AnyPrefetcher {
    fn describe(&self) -> ComponentDescription {
        dispatch!(self, p => p.describe())
    }
}
