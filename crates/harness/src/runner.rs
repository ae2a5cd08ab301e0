//! System configuration (Table II) and the simulation runner.

use crate::prefetched::PrefetchedMemory;
use cbws_core::CbwsConfig;
use cbws_describe::{ComponentDescription, Describe};
use cbws_prefetchers::{Prefetcher, SmsConfig};
use cbws_sim_cpu::{Core, CoreConfig};
use cbws_sim_mem::{HierarchyConfig, MemoryHierarchy};
use cbws_stats::RunRecord;
use cbws_telemetry::Telemetry;
use cbws_trace::EventSource;
use serde::{Deserialize, Serialize};

/// Full simulated-system configuration (Table II defaults).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// Cache hierarchy parameters.
    pub mem: HierarchyConfig,
}

impl SystemConfig {
    /// CBWS predictor parameters (Fig. 8 defaults).
    pub fn cbws(&self) -> CbwsConfig {
        CbwsConfig::default()
    }

    /// SMS parameters (Table II defaults).
    pub fn sms(&self) -> SmsConfig {
        SmsConfig::default()
    }
}

/// The seven prefetcher configurations evaluated in §VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrefetcherKind {
    /// No prefetching.
    None,
    /// 256-entry PC-indexed stride prefetcher.
    Stride,
    /// GHB PC/DC.
    GhbPcDc,
    /// GHB G/DC.
    GhbGDc,
    /// Spatial memory streaming.
    Sms,
    /// Standalone CBWS.
    Cbws,
    /// The integrated CBWS+SMS policy.
    CbwsSms,
    /// Access Map Pattern Matching (extension; §III-A related work).
    Ampm,
    /// Feedback-directed throttling wrapped around SMS (extension;
    /// Srinath et al., whose taxonomy Fig. 13 borrows).
    FdpSms,
    /// CBWS with four per-block tracking contexts (extension).
    MultiCbws,
    /// STeMS-lite: temporally chained, paced spatial footprints
    /// (extension; §III-A's ~640 KB comparator).
    Stems,
    /// Markov pair-correlation prefetching (extension; §III-A).
    Markov,
}

impl PrefetcherKind {
    /// The paper's seven evaluated configurations, in figure order.
    pub const ALL: [PrefetcherKind; 7] = [
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::GhbPcDc,
        PrefetcherKind::GhbGDc,
        PrefetcherKind::Sms,
        PrefetcherKind::Cbws,
        PrefetcherKind::CbwsSms,
    ];

    /// The beyond-paper extension configurations (see EXPERIMENTS.md and
    /// the `ext_comparison` binary).
    pub const EXTENDED: [PrefetcherKind; 5] = [
        PrefetcherKind::Ampm,
        PrefetcherKind::FdpSms,
        PrefetcherKind::MultiCbws,
        PrefetcherKind::Stems,
        PrefetcherKind::Markov,
    ];

    /// Parses a display name (as printed by [`PrefetcherKind::name`],
    /// case-insensitively) back into a kind.
    pub fn from_name(name: &str) -> Option<Self> {
        PrefetcherKind::ALL
            .into_iter()
            .chain(PrefetcherKind::EXTENDED)
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            PrefetcherKind::None => "No-Prefetch",
            PrefetcherKind::Stride => "Stride",
            PrefetcherKind::GhbPcDc => "GHB-PC/DC",
            PrefetcherKind::GhbGDc => "GHB-G/DC",
            PrefetcherKind::Sms => "SMS",
            PrefetcherKind::Cbws => "CBWS",
            PrefetcherKind::CbwsSms => "CBWS+SMS",
            PrefetcherKind::Ampm => "AMPM",
            PrefetcherKind::FdpSms => "FDP(SMS)",
            PrefetcherKind::MultiCbws => "CBWSx4",
            PrefetcherKind::Stems => "STeMS",
            PrefetcherKind::Markov => "Markov",
        }
    }

    /// Storage budget in bits (Table III).
    pub fn storage_bits(self, cfg: &SystemConfig) -> u64 {
        self.build_any(cfg).storage_bits()
    }

    /// Self-description of the prefetcher this kind builds: summary, paper
    /// section, storage budget, tunable parameters with their Table II
    /// defaults, and the telemetry metrics it emits.
    ///
    /// Builds the prefetcher and delegates to [`Describe`], so a prefetcher
    /// without a `Describe` implementation fails to compile (in the
    /// [`crate::AnyPrefetcher`] impl) rather than silently missing from the
    /// generated reference (`cargo run -p docgen`).
    pub fn description(self, cfg: &SystemConfig) -> ComponentDescription {
        self.build_any(cfg).describe()
    }
}

/// Self-descriptions of every component the harness can build: the seven
/// paper configurations ([`PrefetcherKind::ALL`]), the five extensions
/// ([`PrefetcherKind::EXTENDED`]), and the CPU and memory models — in that
/// order. This is the single source the generated reference (`docgen`) and
/// the registry tests walk.
pub fn component_registry(cfg: &SystemConfig) -> Vec<ComponentDescription> {
    let mut out: Vec<ComponentDescription> = PrefetcherKind::ALL
        .into_iter()
        .chain(PrefetcherKind::EXTENDED)
        .map(|k| k.description(cfg))
        .collect();
    out.push(Core::new(cfg.core).describe());
    out.push(MemoryHierarchy::new(cfg.mem).describe());
    out
}

/// Runs full simulations for (workload, prefetcher) pairs.
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    cfg: SystemConfig,
    telemetry: Telemetry,
}

impl Simulator {
    /// Creates a simulator with the given system configuration and
    /// telemetry disabled.
    pub fn new(cfg: SystemConfig) -> Self {
        Simulator {
            cfg,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Creates a simulator whose runs record into `telemetry`: live
    /// `l2.*`/`cbws.*`/`prefetcher.*` counters from every layer and
    /// per-run `run.*` gauges.
    pub fn with_telemetry(cfg: SystemConfig, telemetry: Telemetry) -> Self {
        Simulator { cfg, telemetry }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The attached telemetry sink (disabled unless constructed via
    /// [`Simulator::with_telemetry`]).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Simulates `trace` under `kind` and returns the run record.
    ///
    /// Generic over the trace representation (`Trace` or `PackedTrace`,
    /// via [`EventSource`]). The prefetcher is always the enum-dispatched
    /// [`crate::AnyPrefetcher`], so the per-access path is static and
    /// inlinable; telemetry, when enabled, is counted by the hierarchy,
    /// the prefetcher glue and the predictor at their own hooks, and never
    /// changes the record.
    pub fn run<S: EventSource + ?Sized>(
        &self,
        workload: &str,
        memory_intensive: bool,
        trace: &S,
        kind: PrefetcherKind,
    ) -> RunRecord {
        let mut prefetcher = kind.build_any(&self.cfg);
        prefetcher.attach_telemetry(&self.telemetry);
        let mut hierarchy = MemoryHierarchy::new(self.cfg.mem);
        hierarchy.set_telemetry(self.telemetry.clone());
        let mut mem = PrefetchedMemory::new(hierarchy, prefetcher);
        mem.set_telemetry(self.telemetry.clone());
        let mut core = Core::new(self.cfg.core);
        core.set_telemetry(self.telemetry.clone());
        let cpu = core.run(trace, &mut mem);
        let mem = mem.finish();
        let record = RunRecord {
            workload: workload.to_string(),
            memory_intensive,
            prefetcher: kind.name().to_string(),
            cpu,
            mem,
        };
        record.export_metrics(&self.telemetry);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_workloads::{by_name, Scale};

    #[test]
    fn storage_budgets_match_table3() {
        let cfg = SystemConfig::default();
        let kb = |bits: u64| bits as f64 / 8192.0;
        assert!((kb(PrefetcherKind::Stride.storage_bits(&cfg)) - 2.25).abs() < 0.01);
        assert!((kb(PrefetcherKind::GhbGDc.storage_bits(&cfg)) - 2.25).abs() < 0.01);
        assert!((kb(PrefetcherKind::GhbPcDc.storage_bits(&cfg)) - 3.75).abs() < 0.01);
        assert!((kb(PrefetcherKind::Sms.storage_bits(&cfg)) - 5.07).abs() < 0.05);
        assert!(
            kb(PrefetcherKind::Cbws.storage_bits(&cfg)) < 1.0,
            "CBWS must be under 1KB"
        );
        assert_eq!(PrefetcherKind::None.storage_bits(&cfg), 0);
    }

    #[test]
    fn all_kinds_run_a_tiny_workload() {
        let trace = by_name("sgemm-medium").unwrap().generate(Scale::Tiny);
        let sim = Simulator::default();
        for kind in PrefetcherKind::ALL {
            let r = sim.run("sgemm-medium", true, &trace, kind);
            assert!(r.cpu.instructions > 0, "{}", kind.name());
            assert!(r.mem.classification_is_partition(), "{}", kind.name());
            assert_eq!(r.prefetcher, kind.name());
        }
    }

    #[test]
    fn extended_kinds_run_and_account() {
        let trace = by_name("radix-simlarge").unwrap().generate(Scale::Tiny);
        let sim = Simulator::default();
        let cfg = SystemConfig::default();
        for kind in PrefetcherKind::EXTENDED {
            let r = sim.run("radix-simlarge", true, &trace, kind);
            assert!(r.cpu.instructions > 0, "{}", kind.name());
            assert!(r.mem.classification_is_partition(), "{}", kind.name());
            assert!(kind.storage_bits(&cfg) > 0, "{}", kind.name());
        }
    }

    #[test]
    fn identical_instruction_counts_across_kinds() {
        // Prefetching must never change committed work, only timing.
        let trace = by_name("nw").unwrap().generate(Scale::Tiny);
        let sim = Simulator::default();
        let counts: Vec<u64> = PrefetcherKind::ALL
            .iter()
            .map(|&k| sim.run("nw", true, &trace, k).cpu.instructions)
            .collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    /// Every kind the harness builds, the paper's seven and the five
    /// extensions.
    fn every_kind() -> impl Iterator<Item = PrefetcherKind> {
        PrefetcherKind::ALL
            .into_iter()
            .chain(PrefetcherKind::EXTENDED)
    }

    /// A Tiny workload whose runs overflow the prefetch queue, supersede
    /// queued prefetches by demand (non-timely) and end with requests
    /// still queued, so every lifecycle exit is exercised.
    const LIFECYCLE_WORKLOAD: &str = "433.milc-su3imp";

    /// Runs `kind` with a fresh enabled sink and reads a counter of it
    /// (absent counters read 0).
    fn traced_run(
        trace: &cbws_trace::Trace,
        kind: PrefetcherKind,
    ) -> (RunRecord, impl Fn(&str) -> u64) {
        let t = Telemetry::enabled_default();
        let sim = Simulator::with_telemetry(SystemConfig::default(), t.clone());
        let r = sim.run(LIFECYCLE_WORKLOAD, true, trace, kind);
        let counter = move |path: &str| t.with_metrics(|m| m.counter(path)).unwrap().unwrap_or(0);
        (r, counter)
    }

    #[test]
    fn telemetry_is_transparent_and_counts_every_hook() {
        let trace = by_name(LIFECYCLE_WORKLOAD).unwrap().generate(Scale::Tiny);
        let stats = trace.stats();
        assert!(stats.dynamic_blocks > 0);
        let plain = Simulator::default();
        for kind in every_kind() {
            let (traced, counter) = traced_run(&trace, kind);
            let untraced = plain.run(LIFECYCLE_WORKLOAD, true, &trace, kind);
            assert_eq!(traced, untraced, "{}", kind.name());
            assert_eq!(
                counter("prefetcher.accesses"),
                traced.cpu.mem_accesses,
                "{}",
                kind.name()
            );
            assert_eq!(
                counter("prefetcher.block_begins"),
                stats.dynamic_blocks,
                "{}",
                kind.name()
            );
            assert_eq!(
                counter("prefetcher.block_ends"),
                stats.dynamic_blocks,
                "{}",
                kind.name()
            );
        }
    }

    #[test]
    fn every_prefetch_candidate_is_accounted_for() {
        // A candidate is dropped as a duplicate at enqueue or enters the
        // queue; a queued request is overflowed out, issued, dropped as a
        // duplicate at issue, superseded by its own demand access (exactly
        // one per non-timely demand), or still queued when the run ends.
        let trace = by_name(LIFECYCLE_WORKLOAD).unwrap().generate(Scale::Tiny);
        let mut unissued = 0;
        for kind in every_kind() {
            let (_, counter) = traced_run(&trace, kind);
            let exits = counter("l2.prefetch.issued")
                + counter("l2.prefetch.dropped.duplicate")
                + counter("l2.prefetch.dropped.overflow")
                + counter("l2.prefetch.dropped.unissued")
                + counter("l2.demand.non_timely");
            assert_eq!(counter("prefetcher.candidates"), exits, "{}", kind.name());
            unissued += counter("l2.prefetch.dropped.unissued");
        }
        assert!(unissued > 0, "the workload must end with queued prefetches");
    }
}
