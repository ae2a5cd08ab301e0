//! The two-level, inclusive memory hierarchy with prefetch-into-L2.

use crate::cache::{Cache, PrefetchMeta};
use crate::config::HierarchyConfig;
use crate::dram::MainMemory;
use crate::stats::MemStats;
use cbws_telemetry::Telemetry;
use cbws_trace::{Addr, LineAddr};
use std::collections::VecDeque;

/// How a demand L2 access interacted with prefetching (the paper's Fig. 13
/// taxonomy, minus `wrong`, which is a property of prefetched lines rather
/// than of demand accesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandClass {
    /// Hit on a demand-fetched (or already-referenced) line.
    PlainHit,
    /// First hit on a completed prefetch: miss eliminated.
    Timely,
    /// The prefetch was in flight: latency reduced, not eliminated.
    ShorterWaitingTime,
    /// The line was identified and queued but not yet issued.
    NonTimely,
    /// No prefetch involvement: plain miss.
    Missing,
}

/// Result of one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// End-to-end latency in cycles, from issue to data return.
    pub latency: u64,
    /// Whether the access hit in the L1D.
    pub l1_hit: bool,
    /// Classification of the L2 interaction. `None` when the access hit in
    /// the L1 and never reached the L2.
    pub class: Option<DemandClass>,
}

#[derive(Debug, Clone, Copy)]
struct QueuedPrefetch {
    line: LineAddr,
    enqueue_time: u64,
}

#[derive(Debug, Clone, Copy)]
struct InFlightPrefetch {
    line: LineAddr,
    fill_time: u64,
    /// Set when a demand access arrives while the fill is in flight
    /// (shorter-waiting-time); the filled line is then born referenced.
    demand_hit: bool,
}

/// The simulated memory hierarchy: L1D + inclusive L2 + flat-latency memory,
/// with a prefetch engine that fills into the L2.
///
/// See the crate-level docs for the modelling contract. All methods take the
/// current cycle `now`; callers must present accesses in non-decreasing time
/// order.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    l1d: Cache,
    l2: Cache,
    memory: MainMemory,
    queue: VecDeque<QueuedPrefetch>,
    inflight: Vec<InFlightPrefetch>,
    stats: MemStats,
    telemetry: Telemetry,
}

impl MemoryHierarchy {
    /// Creates an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        MemoryHierarchy {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            memory: MainMemory::new(cfg.memory_model()),
            cfg,
            queue: VecDeque::new(),
            inflight: Vec::new(),
            stats: MemStats::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry sink; subsequent activity emits events under the
    /// `l2.*` metric namespace. The default is a disabled sink. An enabled
    /// sink makes the L2 keep prefetch fill times, which only the
    /// `l2.prefetch.use_distance` histogram reads.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.l2.keep_fill_times(telemetry.is_enabled());
        self.telemetry = telemetry;
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Cache-geometry parameters for one level, prefixed `"l1d."`/`"l2."`.
    fn level_params(prefix: &str, c: &crate::CacheConfig) -> Vec<cbws_describe::ParamSpec> {
        use cbws_describe::ParamSpec;
        vec![
            ParamSpec::new(
                format!("{prefix}.size_bytes"),
                "total capacity in bytes",
                c.size_bytes.to_string(),
                "≥ one set of lines",
            ),
            ParamSpec::new(
                format!("{prefix}.assoc"),
                "set associativity (ways per set)",
                c.assoc.to_string(),
                "≥ 1, power-of-two set count",
            ),
            ParamSpec::new(
                format!("{prefix}.latency"),
                "access latency in cycles",
                c.latency.to_string(),
                "≥ 0",
            ),
            ParamSpec::new(
                format!("{prefix}.mshrs"),
                "miss status holding registers (outstanding-miss limit)",
                c.mshrs.to_string(),
                "≥ 1",
            ),
        ]
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Read-only view of the L2 (for tests and residency queries).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Read-only view of the L1D.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The main-memory timing engine (row-hit statistics, model).
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Requests a prefetch of `line` into the L2.
    ///
    /// Deduplicated against resident, queued, and in-flight lines. If the
    /// queue is full the oldest request is dropped.
    pub fn enqueue_prefetch(&mut self, now: u64, line: LineAddr) {
        self.advance(now);
        let resident = self.l2.probe(line);
        self.enqueue_prefetch_resolved(now, line, resident);
    }

    /// Requests prefetches for a whole candidate batch at cycle `now`.
    ///
    /// Byte-identical to calling [`MemoryHierarchy::enqueue_prefetch`] per
    /// line, but the hierarchy advances once and the L2 residency of the
    /// entire batch is resolved up front through [`Cache::probe_batch`] —
    /// one pass over the tag lanes per batch instead of one per call.
    /// The precomputed residency cannot go stale mid-batch: only
    /// [`MemoryHierarchy::advance`] fills the L2, and it runs before the
    /// first candidate is examined. Queue and in-flight dedup stay
    /// per-line because earlier candidates of the same batch enter the
    /// queue as it drains.
    pub fn enqueue_prefetch_batch(&mut self, now: u64, lines: &[LineAddr]) {
        if lines.is_empty() {
            return;
        }
        self.advance(now);
        for chunk in lines.chunks(64) {
            let resident = self.l2.probe_batch(chunk);
            for (i, &line) in chunk.iter().enumerate() {
                self.enqueue_prefetch_resolved(now, line, resident >> i & 1 == 1);
            }
        }
    }

    /// Shared tail of the enqueue paths, with the L2 probe already done.
    fn enqueue_prefetch_resolved(&mut self, now: u64, line: LineAddr, l2_resident: bool) {
        let covered = l2_resident
            || self.inflight.iter().any(|p| p.line == line)
            || self.queue.iter().any(|q| q.line == line);
        if covered {
            self.stats.prefetch_dedup_dropped += 1;
            self.telemetry.count("l2.prefetch.dropped.duplicate", 1);
            return;
        }
        if self.queue.len() >= self.cfg.prefetch_queue_capacity {
            self.queue.pop_front();
            self.stats.prefetch_overflow_dropped += 1;
            self.telemetry.count("l2.prefetch.dropped.overflow", 1);
        }
        self.queue.push_back(QueuedPrefetch {
            line,
            enqueue_time: now,
        });
        self.stats.prefetch_enqueued += 1;
        self.telemetry.count("l2.prefetch.enqueued", 1);
    }

    /// Performs one demand access at cycle `now` and returns its latency and
    /// prefetch classification.
    pub fn demand_access(&mut self, now: u64, addr: Addr, store: bool) -> AccessOutcome {
        self.advance(now);
        let line = addr.line();
        self.stats.l1_accesses += 1;

        if self.l1d.touch(line, store) {
            self.stats.l1_hits += 1;
            let latency = self.cfg.l1_hit_latency();
            self.note_demand(None, latency);
            return AccessOutcome {
                latency,
                l1_hit: true,
                class: None,
            };
        }

        self.stats.l2_demand_accesses += 1;
        let l2_time = now + self.cfg.l1d.latency;

        // L2 hit path. `demand_touch` fuses the probe, the pre-touch
        // prefetch-state read (the first-reference flag drives
        // classification, the fill time — kept only with telemetry on — the
        // prefetch-to-use distance histogram), and the LRU touch into one
        // set scan.
        if let Some(prior_meta) = self.l2.demand_touch(line, false) {
            let class = if let Some(meta) = prior_meta.filter(|m| !m.referenced) {
                self.stats.timely += 1;
                self.telemetry.observe(
                    "l2.prefetch.use_distance",
                    l2_time.saturating_sub(meta.fill_time),
                );
                DemandClass::Timely
            } else {
                self.stats.plain_hits += 1;
                DemandClass::PlainHit
            };
            self.fill_l1(line, store);
            let latency = self.cfg.l2_hit_latency();
            self.note_demand(Some(class), latency);
            return AccessOutcome {
                latency,
                l1_hit: false,
                class: Some(class),
            };
        }

        // In-flight prefetch: the demand piggybacks on the outstanding
        // fill. The line is installed now (inclusion with the L1 fill
        // below; the full residual latency is charged to this access) while
        // the MSHR slot stays occupied until the fill's completion time.
        if let Some(p) = self.inflight.iter_mut().find(|p| p.line == line) {
            p.demand_hit = true;
            let meta = PrefetchMeta {
                fill_time: p.fill_time,
                referenced: true,
            };
            let remaining = p.fill_time.saturating_sub(l2_time);
            self.stats.shorter_waiting_time += 1;
            self.fill_l2(line, Some(meta));
            self.fill_l1(line, store);
            let latency = self.cfg.l2_hit_latency() + remaining;
            self.note_demand(Some(DemandClass::ShorterWaitingTime), latency);
            return AccessOutcome {
                latency,
                l1_hit: false,
                class: Some(DemandClass::ShorterWaitingTime),
            };
        }

        // Queued but never issued: the prefetcher identified the line but
        // was too late. The demand fetch supersedes the queued request.
        let class = if let Some(pos) = self.queue.iter().position(|q| q.line == line) {
            self.queue.remove(pos);
            self.stats.non_timely += 1;
            DemandClass::NonTimely
        } else {
            self.stats.missing += 1;
            DemandClass::Missing
        };

        let request_time = l2_time + self.cfg.l2.latency;
        let completion = self.memory.access(request_time, line);
        self.fill_l2(line, None);
        self.stats.demand_fills += 1;
        self.fill_l1(line, store);
        let latency = self.cfg.l2_hit_latency() + (completion - request_time);
        self.note_demand(Some(class), latency);
        AccessOutcome {
            latency,
            l1_hit: false,
            class: Some(class),
        }
    }

    /// Counts one classified demand access (`None`: an L1 hit) and samples
    /// the latency of every access that reached the L2.
    fn note_demand(&self, class: Option<DemandClass>, latency: u64) {
        if !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.count(demand_counter(class), 1);
        if class.is_some() {
            self.telemetry.observe("l2.demand.latency", latency);
        }
    }

    /// Completes in-flight prefetch fills due by `now` and issues queued
    /// prefetches into freed MSHR slots. A request that had to wait for a
    /// slot is issued at the completion time of the fill that freed it.
    pub fn advance(&mut self, now: u64) {
        // Fast path for the overwhelmingly common call where nothing can
        // happen: no queued request can issue (queue empty or every MSHR
        // slot busy) and no in-flight fill is due yet. The loop below would
        // conclude the same after strictly more work; `advance` runs on
        // every demand access, so the no-op case must stay cheap.
        if (self.queue.is_empty() || self.inflight.len() >= self.cfg.prefetch_mshrs())
            && !self.inflight.iter().any(|p| p.fill_time <= now)
        {
            return;
        }
        loop {
            // Fill any free slots; these requests never waited, so they
            // issue at their enqueue times.
            while self.inflight.len() < self.cfg.prefetch_mshrs() && self.issue_one(0) {}
            // Complete the earliest due fill, freeing an MSHR slot.
            let due = self
                .inflight
                .iter()
                .enumerate()
                .filter(|(_, p)| p.fill_time <= now)
                .min_by_key(|(_, p)| p.fill_time)
                .map(|(i, _)| i);
            match due {
                Some(i) => {
                    let p = self.inflight.swap_remove(i);
                    let meta = PrefetchMeta {
                        fill_time: p.fill_time,
                        referenced: p.demand_hit,
                    };
                    self.fill_l2(p.line, Some(meta));
                    self.stats.prefetch_fills += 1;
                    self.telemetry.count("l2.prefetch.fills", 1);
                    // The freed slot becomes usable at the fill time.
                    self.issue_one(p.fill_time);
                }
                None => break,
            }
        }
    }

    /// Finalizes the run at cycle `now`: lands all in-flight prefetches and
    /// counts every never-referenced prefetched line (resident or in flight)
    /// as a wrong prefetch. Call exactly once, after the last access.
    pub fn finish(&mut self, now: u64) -> MemStats {
        // Give queued requests one last chance at the free MSHR slots of
        // cycle `now`; whatever still cannot issue is discarded (it consumed
        // no bandwidth and is not counted as wrong).
        self.advance(now);
        if !self.queue.is_empty() {
            self.telemetry
                .count("l2.prefetch.dropped.unissued", self.queue.len() as u64);
        }
        self.queue.clear();
        while let Some(h) = self.inflight.iter().map(|p| p.fill_time).max() {
            self.advance(h + 1);
        }
        let resident_wrong = self
            .l2
            .resident()
            .filter(|(_, meta)| meta.is_some_and(|m| !m.referenced))
            .count() as u64;
        self.stats.wrong += resident_wrong;
        self.stats
    }

    /// Installs `line` into the L1, handling L1 victim write-back into the
    /// L2 (which must hold the line, by inclusion).
    fn fill_l1(&mut self, line: LineAddr, store: bool) {
        if let Some(victim) = self.l1d.insert(line, store, None) {
            self.telemetry.count("l1d.evictions", 1);
            if victim.dirty {
                // Write-back to L2. By inclusion the victim is resident in
                // the L2 unless it was just back-invalidated (in which case
                // it has already been written back to memory).
                if !self.l2.touch(victim.line, true) {
                    self.stats.writebacks += 1;
                }
            }
        }
    }

    /// Installs `line` into the L2, maintaining inclusion and wrong-prefetch
    /// / pollution accounting for the victim.
    fn fill_l2(&mut self, line: LineAddr, meta: Option<PrefetchMeta>) {
        if let Some(victim) = self.l2.insert(line, false, meta) {
            self.telemetry.count("l2.evictions", 1);
            if victim.prefetch.is_some_and(|m| !m.referenced) {
                self.stats.wrong += 1;
                self.telemetry.count("l2.prefetch.wrong", 1);
            }
            if meta.is_some() && victim.prefetch.is_none() {
                self.stats.pollution_evictions += 1;
                self.telemetry.count("l2.prefetch.pollution_evictions", 1);
            }
            let mut dirty = victim.dirty;
            // Inclusive hierarchy: evicting from L2 back-invalidates the L1.
            if let Some(l1_victim) = self.l1d.invalidate(victim.line) {
                dirty |= l1_victim.dirty;
            }
            if dirty {
                self.stats.writebacks += 1;
            }
        }
    }

    /// Issues the next still-relevant queued prefetch at time
    /// `max(enqueue_time, slot_free_time)`. Returns whether one was issued.
    fn issue_one(&mut self, slot_free_time: u64) -> bool {
        while let Some(q) = self.queue.pop_front() {
            if self.l2.probe(q.line) || self.inflight.iter().any(|p| p.line == q.line) {
                self.stats.prefetch_dedup_dropped += 1;
                self.telemetry.count("l2.prefetch.dropped.duplicate", 1);
                continue;
            }
            let issue_at = q.enqueue_time.max(slot_free_time);
            let fill_time = self.memory.access(issue_at, q.line);
            self.inflight.push(InFlightPrefetch {
                line: q.line,
                fill_time,
                demand_hit: false,
            });
            self.stats.prefetch_issued += 1;
            self.telemetry.count("l2.prefetch.issued", 1);
            return true;
        }
        false
    }
}

impl cbws_describe::Describe for MemoryHierarchy {
    fn describe(&self) -> cbws_describe::ComponentDescription {
        use cbws_describe::{ComponentDescription, ComponentKind, MetricSpec, ParamSpec};
        let c = &self.cfg;
        let mut d = ComponentDescription::new(
            "Memory hierarchy",
            ComponentKind::MemoryModel,
            "Two-level inclusive hierarchy with prefetch-into-L2 (Table II): \
             L1D and unified L2 with per-level MSHR limits, a bounded prefetch \
             queue draining into spare L2 MSHRs, and either the paper's flat \
             300-cycle memory or an optional banked-DRAM timing model. Demand \
             accesses are classified with the Fig. 13 taxonomy (timely, \
             shorter-waiting-time, non-timely, missing) and prefetched lines \
             evicted unreferenced count as wrong.",
        )
        .paper_section("§VI, Table II (simulated system); §VII-C, Fig. 13");
        for p in Self::level_params("l1d", &c.l1d) {
            d = d.param(p);
        }
        for p in Self::level_params("l2", &c.l2) {
            d = d.param(p);
        }
        d.param(ParamSpec::new(
            "memory_latency",
            "flat main-memory latency in cycles (ignored when `dram` is set)",
            c.memory_latency.to_string(),
            "≥ 0",
        ))
        .param(ParamSpec::new(
            "dram",
            "optional banked-DRAM timing model below the L2 \
             (row hits/misses, bank queues); `None` keeps the flat model",
            match c.dram {
                Some(d) => format!("{} banks", d.banks),
                None => "None".to_string(),
            },
            "None or a DramConfig",
        ))
        .param(ParamSpec::new(
            "demand_reserved_mshrs",
            "L2 MSHRs reserved for demand misses; prefetches use the rest",
            c.demand_reserved_mshrs.to_string(),
            "0 ..= l2.mshrs",
        ))
        .param(ParamSpec::new(
            "prefetch_queue_capacity",
            "prefetch request queue depth; overflow drops oldest-first",
            c.prefetch_queue_capacity.to_string(),
            "≥ 1",
        ))
        .metric(MetricSpec::counter(
            "l2.demand.plain_hit",
            "demand L2 hits on demand-fetched or already-referenced lines",
        ))
        .metric(MetricSpec::counter(
            "l2.demand.timely",
            "first hits on completed prefetches: miss eliminated (Fig. 13)",
        ))
        .metric(MetricSpec::counter(
            "l2.demand.shorter_waiting_time",
            "demand arrived while the prefetch was in flight (Fig. 13)",
        ))
        .metric(MetricSpec::counter(
            "l2.demand.non_timely",
            "line was queued but not yet issued when demanded (Fig. 13)",
        ))
        .metric(MetricSpec::counter(
            "l2.demand.missing",
            "plain L2 misses with no prefetch involvement (Fig. 13)",
        ))
        .metric(MetricSpec::counter(
            "l2.prefetch.enqueued",
            "prefetch requests accepted into the queue",
        ))
        .metric(MetricSpec::counter(
            "l2.prefetch.issued",
            "prefetches issued to memory (granted an L2 MSHR)",
        ))
        .metric(MetricSpec::counter(
            "l2.prefetch.fills",
            "prefetch fills completing into the L2",
        ))
        .metric(MetricSpec::counter(
            "l2.prefetch.wrong",
            "prefetched lines evicted without ever being referenced",
        ))
        .metric(MetricSpec::counter(
            "l2.prefetch.pollution_evictions",
            "demand-fetched lines evicted by prefetch fills",
        ))
        .metric(MetricSpec::counter(
            "l2.prefetch.dropped.duplicate",
            "prefetch requests dropped as already covered",
        ))
        .metric(MetricSpec::counter(
            "l2.prefetch.dropped.overflow",
            "prefetch requests dropped to queue overflow (oldest first)",
        ))
        .metric(MetricSpec::counter(
            "l2.prefetch.dropped.unissued",
            "prefetch requests still queued, never issued, when the run ended",
        ))
        .metric(MetricSpec::counter("l1d.hits", "demand hits in the L1D"))
        .metric(MetricSpec::counter("l1d.evictions", "L1D line evictions"))
        .metric(MetricSpec::counter("l2.evictions", "L2 line evictions"))
        .metric(MetricSpec::histogram(
            "l2.demand.latency",
            "end-to-end demand latency in cycles, issue to data return",
        ))
        .metric(MetricSpec::histogram(
            "l2.prefetch.use_distance",
            "cycles between a prefetch fill and its first demand use",
        ))
    }
}

/// The metrics path counting demand accesses of `class` (the Fig. 13
/// taxonomy; `None` is an L1 hit).
fn demand_counter(class: Option<DemandClass>) -> &'static str {
    match class {
        None => "l1d.hits",
        Some(DemandClass::PlainHit) => "l2.demand.plain_hit",
        Some(DemandClass::Timely) => "l2.demand.timely",
        Some(DemandClass::ShorterWaitingTime) => "l2.demand.shorter_waiting_time",
        Some(DemandClass::NonTimely) => "l2.demand.non_timely",
        Some(DemandClass::Missing) => "l2.demand.missing",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> HierarchyConfig {
        HierarchyConfig {
            l1d: crate::CacheConfig {
                size_bytes: 4 * 64,
                assoc: 2,
                latency: 2,
                mshrs: 4,
            },
            l2: crate::CacheConfig {
                size_bytes: 16 * 64,
                assoc: 4,
                latency: 30,
                mshrs: 8,
            },
            memory_latency: 300,
            dram: None,
            demand_reserved_mshrs: 4,
            prefetch_queue_capacity: 8,
        }
    }

    fn line(n: u64) -> LineAddr {
        LineAddr(n)
    }

    fn addr(n: u64) -> Addr {
        LineAddr(n).base()
    }

    #[test]
    fn cold_miss_full_latency() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        let out = m.demand_access(0, addr(100), false);
        assert_eq!(out.latency, 332);
        assert_eq!(out.class, Some(DemandClass::Missing));
        assert!(!out.l1_hit);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.demand_access(0, addr(100), false);
        let out = m.demand_access(400, addr(100), false);
        assert!(out.l1_hit);
        assert_eq!(out.latency, 2);
        assert_eq!(out.class, None);
    }

    #[test]
    fn timely_prefetch_eliminates_miss() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.enqueue_prefetch(0, line(5));
        let out = m.demand_access(1000, addr(5), false);
        assert_eq!(out.class, Some(DemandClass::Timely));
        assert_eq!(out.latency, 32);
        assert_eq!(m.stats().timely, 1);
        // Second access to the same line from L2's view is a plain hit
        // (after L1 eviction), but here it hits L1.
        let out2 = m.demand_access(1100, addr(5), false);
        assert!(out2.l1_hit);
    }

    #[test]
    fn inflight_prefetch_shortens_wait() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.enqueue_prefetch(0, line(9));
        // Demand arrives at cycle 100; fill completes at 300.
        let out = m.demand_access(100, addr(9), false);
        assert_eq!(out.class, Some(DemandClass::ShorterWaitingTime));
        // l2_time = 102, remaining = 300 - 102 = 198, total = 32 + 198.
        assert_eq!(out.latency, 230);
        assert!(out.latency < 332);
        // The fill must not later be counted wrong.
        let stats = m.finish(1000);
        assert_eq!(stats.wrong, 0);
        assert_eq!(stats.shorter_waiting_time, 1);
    }

    #[test]
    fn queued_unissued_prefetch_is_non_timely() {
        let mut m = MemoryHierarchy::new(small_cfg());
        // Fill all 4 prefetch MSHRs, then queue one more.
        for i in 0..5 {
            m.enqueue_prefetch(0, line(100 + i));
        }
        // At time 10, lines 100..104 are in flight, 104 is queued.
        let out = m.demand_access(10, addr(104), false);
        assert_eq!(out.class, Some(DemandClass::NonTimely));
        assert_eq!(out.latency, 332);
        assert_eq!(m.stats().non_timely, 1);
    }

    #[test]
    fn wrong_prefetch_counted_at_finish() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.enqueue_prefetch(0, line(42));
        m.enqueue_prefetch(0, line(43));
        m.demand_access(1000, addr(42), false);
        let stats = m.finish(2000);
        assert_eq!(stats.wrong, 1); // line 43 never referenced
        assert_eq!(stats.timely, 1);
    }

    #[test]
    fn wrong_prefetch_counted_at_eviction() {
        let mut m = MemoryHierarchy::new(small_cfg());
        // L2 has 4 sets x 4 ways; lines 0,4,8,... map to set 0.
        m.enqueue_prefetch(0, line(0));
        m.advance(400);
        // Evict it with demand fills to the same set.
        for i in 1..=4 {
            m.demand_access(500 + i * 400, addr(i * 4), false);
        }
        assert_eq!(m.stats().wrong, 1);
    }

    #[test]
    fn dedup_drops_resident_and_duplicate_requests() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.demand_access(0, addr(7), false);
        m.enqueue_prefetch(400, line(7)); // resident in L2 already
        assert_eq!(m.stats().prefetch_dedup_dropped, 1);
        m.enqueue_prefetch(400, line(8));
        m.enqueue_prefetch(401, line(8)); // in flight already
        assert_eq!(m.stats().prefetch_dedup_dropped, 2);
    }

    #[test]
    fn queue_overflow_drops_oldest() {
        let cfg = small_cfg();
        let mut m = MemoryHierarchy::new(cfg);
        // 4 in flight + 8 queue capacity; request 13 evicts the oldest queued.
        for i in 0..13 {
            m.enqueue_prefetch(0, line(200 + i));
        }
        assert_eq!(m.stats().prefetch_overflow_dropped, 1);
    }

    #[test]
    fn inclusion_back_invalidates_l1() {
        let mut m = MemoryHierarchy::new(small_cfg());
        // Bring line 0 into both levels.
        m.demand_access(0, addr(0), false);
        assert!(m.l1d().probe(line(0)));
        // Evict line 0 from L2 set 0 (4 ways): fill lines 4, 8, 12, 16.
        let mut t = 400;
        for l in [4u64, 8, 12, 16] {
            m.demand_access(t, addr(l), false);
            t += 400;
        }
        assert!(!m.l2().probe(line(0)));
        assert!(
            !m.l1d().probe(line(0)),
            "inclusion violated: L1 holds an L2-evicted line"
        );
    }

    #[test]
    fn store_dirty_writeback_chain() {
        let mut m = MemoryHierarchy::new(small_cfg());
        // Dirty a line in L1, evict through both levels, expect a writeback.
        m.demand_access(0, addr(0), true);
        let mut t = 400;
        // L1 has 2 sets x 2 ways; lines 0,2,4.. map to set 0.
        for l in [2u64, 4, 6] {
            m.demand_access(t, addr(l), true);
            t += 400;
        }
        // line 0 evicted from L1 dirty -> merged into L2. Now evict from L2.
        for l in [8u64, 12, 16, 20] {
            m.demand_access(t, addr(l), false);
            t += 400;
        }
        assert!(m.stats().writebacks >= 1);
    }

    #[test]
    fn classification_partitions_demand_accesses() {
        let mut m = MemoryHierarchy::new(small_cfg());
        let mut t = 0;
        for i in 0..200u64 {
            if i % 3 == 0 {
                m.enqueue_prefetch(t, line(i + 1));
            }
            m.demand_access(t, addr(i % 40), i % 7 == 0);
            t += 50;
        }
        let stats = m.finish(t);
        assert!(stats.classification_is_partition());
    }

    #[test]
    fn prefetch_fill_time_respects_memory_latency() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.enqueue_prefetch(100, line(77));
        // At cycle 399 the fill (due 400) has not landed: in-flight hit.
        let out = m.demand_access(399, addr(77), false);
        assert_eq!(out.class, Some(DemandClass::ShorterWaitingTime));
    }

    #[test]
    fn pollution_counted_when_prefetch_evicts_demand_line() {
        let mut m = MemoryHierarchy::new(small_cfg());
        // Demand-fill L2 set 0 (4 ways: lines 0,4,8,12), then prefetch four
        // more lines of the same set: each fill evicts a demand line.
        let mut t = 0;
        for l in [0u64, 4, 8, 12] {
            m.demand_access(t, addr(l), false);
            t += 400;
        }
        for l in [16u64, 20, 24, 28] {
            m.enqueue_prefetch(t, line(l));
        }
        let stats = m.finish(t + 10_000);
        assert_eq!(stats.pollution_evictions, 4);
    }

    #[test]
    fn demand_fills_do_not_count_as_pollution() {
        let mut m = MemoryHierarchy::new(small_cfg());
        let mut t = 0;
        for l in [0u64, 4, 8, 12, 16] {
            m.demand_access(t, addr(l), false);
            t += 400;
        }
        assert_eq!(m.stats().pollution_evictions, 0);
    }

    #[test]
    fn finish_on_empty_hierarchy_is_clean() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        let stats = m.finish(0);
        assert_eq!(stats, MemStats::default());
    }

    #[test]
    fn store_to_prefetched_line_counts_timely_and_dirties() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.enqueue_prefetch(0, line(11));
        let out = m.demand_access(500, addr(11), true);
        assert_eq!(out.class, Some(DemandClass::Timely));
        // Evict it through the L1 (2 sets x ... default L1 is 128 sets x 4
        // ways; lines 11, 11+128, ... share a set) and verify the dirty
        // data eventually writes back through the hierarchy.
        let mut t = 1000;
        for k in 1..=4u64 {
            m.demand_access(t, addr(11 + k * 128), true);
            t += 400;
        }
        // The L1 victim writes back into the resident L2 copy, not memory.
        assert_eq!(m.stats().writebacks, 0);
        assert!(m.l2().probe(line(11)));
    }

    #[test]
    fn demand_then_prefetch_request_is_dedup_dropped_not_wrong() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.demand_access(0, addr(99), false);
        m.enqueue_prefetch(400, line(99));
        let stats = m.finish(1000);
        assert_eq!(stats.wrong, 0);
        assert_eq!(stats.prefetch_dedup_dropped, 1);
        assert_eq!(stats.prefetch_issued, 0);
    }

    #[test]
    fn non_decreasing_time_with_large_gaps() {
        let mut m = MemoryHierarchy::new(HierarchyConfig::default());
        m.enqueue_prefetch(0, line(5));
        // Jump far into the future: the fill must have landed exactly once.
        m.advance(1_000_000);
        assert_eq!(m.stats().prefetch_fills, 1);
        m.advance(2_000_000);
        assert_eq!(m.stats().prefetch_fills, 1);
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let t = Telemetry::enabled_default();
        let mut m = MemoryHierarchy::new(small_cfg());
        m.set_telemetry(t.clone());
        let mut time = 0;
        for i in 0..200u64 {
            if i % 3 == 0 {
                m.enqueue_prefetch(time, line(i + 1));
            }
            m.demand_access(time, addr(i % 40), i % 7 == 0);
            time += 50;
        }
        // One guaranteed-timely access: prefetch, wait out the fill, touch.
        m.enqueue_prefetch(time, line(1000));
        time += 1000;
        m.demand_access(time, addr(1000), false);
        let stats = m.finish(time);

        let counter = |path: &str| t.with_metrics(|r| r.counter(path)).unwrap().unwrap_or(0);
        assert_eq!(counter("l2.demand.timely"), stats.timely);
        assert_eq!(counter("l2.demand.missing"), stats.missing);
        assert_eq!(counter("l2.demand.non_timely"), stats.non_timely);
        assert_eq!(
            counter("l2.demand.shorter_waiting_time"),
            stats.shorter_waiting_time
        );
        assert_eq!(counter("l2.demand.plain_hit"), stats.plain_hits);
        assert_eq!(counter("l1d.hits"), stats.l1_hits);
        assert_eq!(counter("l2.prefetch.enqueued"), stats.prefetch_enqueued);
        assert_eq!(counter("l2.prefetch.issued"), stats.prefetch_issued);
        assert_eq!(counter("l2.prefetch.fills"), stats.prefetch_fills);
        assert_eq!(
            counter("l2.prefetch.dropped.duplicate"),
            stats.prefetch_dedup_dropped
        );

        // The latency histogram sampled every L2-reaching access.
        let l2_samples = t
            .with_metrics(|r| r.histogram("l2.demand.latency").map(|h| h.count()))
            .unwrap()
            .unwrap();
        assert_eq!(l2_samples, stats.l2_demand_accesses);

        // The run exercised both the Fig. 13 timely class and issue.
        assert!(counter("l2.demand.timely") > 0);
        assert!(counter("l2.prefetch.issued") > 0);
    }

    #[test]
    fn disabled_telemetry_changes_nothing() {
        let run = |telemetry: Option<Telemetry>| {
            let mut m = MemoryHierarchy::new(small_cfg());
            if let Some(t) = telemetry {
                m.set_telemetry(t);
            }
            let mut time = 0;
            for i in 0..300u64 {
                if i % 4 == 0 {
                    m.enqueue_prefetch(time, line(i + 2));
                }
                m.demand_access(time, addr(i % 50), false);
                time += 30;
            }
            m.finish(time)
        };
        let plain = run(None);
        let with_enabled = run(Some(Telemetry::enabled_default()));
        assert_eq!(
            plain, with_enabled,
            "telemetry must be observationally transparent"
        );
    }

    #[test]
    fn batch_enqueue_matches_sequential_enqueue() {
        // Drive two hierarchies through the same interleaving of demand
        // accesses and prefetch candidates, one enqueueing per line and
        // one per batch (with intra-batch duplicates and already-resident
        // lines), and require identical stats — the batch path must be
        // observationally equivalent.
        let run = |batched: bool| {
            let mut m = MemoryHierarchy::new(small_cfg());
            let mut time = 0;
            for i in 0..400u64 {
                m.demand_access(time, addr(i % 60), i % 7 == 0);
                if i % 3 == 0 {
                    let cands = [
                        line(i + 1),
                        line(i + 2),
                        line(i + 1), // duplicate within the batch
                        line((i % 60) * 64 / 64),
                    ];
                    if batched {
                        m.enqueue_prefetch_batch(time, &cands);
                    } else {
                        for &l in &cands {
                            m.enqueue_prefetch(time, l);
                        }
                    }
                }
                time += 17;
            }
            m.finish(time)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn mshr_backpressure_limits_inflight() {
        let cfg = small_cfg(); // 4 prefetch MSHRs
        let mut m = MemoryHierarchy::new(cfg);
        for i in 0..8 {
            m.enqueue_prefetch(0, line(300 + i));
        }
        // Only 4 issued immediately.
        assert_eq!(m.stats().prefetch_issued, 4);
        // After one memory latency, the next batch issues.
        m.advance(301);
        assert_eq!(m.stats().prefetch_issued, 8);
        let stats = m.finish(10_000);
        assert_eq!(stats.prefetch_fills, 8);
        assert_eq!(stats.wrong, 8);
    }
}
