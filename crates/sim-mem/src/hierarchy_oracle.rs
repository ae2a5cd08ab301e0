//! The reference [`MemoryHierarchy`] prefetch bookkeeping: the scan-based
//! form the O(1) checks replaced. `advance` scans the in-flight list for a
//! due fill on every call, the enqueue dedup and the demand supersede scan
//! the queue and the in-flight list for every line, and every fill takes
//! the checked [`Cache::insert`]. The property test below drives both
//! hierarchies through the same random call sequence and requires every
//! [`AccessOutcome`] and the [`MemStats`] after every call to agree.

use crate::cache::{Cache, PrefetchMeta};
use crate::config::{CacheConfig, HierarchyConfig};
use crate::dram::{DramConfig, MainMemory};
use crate::hierarchy::{AccessOutcome, DemandClass, MemoryHierarchy};
use crate::stats::MemStats;
use cbws_trace::{Addr, LineAddr};
use proptest::prelude::*;
use std::collections::VecDeque;

struct InFlight {
    line: LineAddr,
    fill_time: u64,
    demand_hit: bool,
}

/// The hierarchy minus telemetry, with every lookup a scan.
struct ReferenceHierarchy {
    cfg: HierarchyConfig,
    l1d: Cache,
    l2: Cache,
    memory: MainMemory,
    /// `(line, enqueue_time)`, oldest first.
    queue: VecDeque<(LineAddr, u64)>,
    inflight: Vec<InFlight>,
    stats: MemStats,
}

impl ReferenceHierarchy {
    fn new(cfg: HierarchyConfig) -> Self {
        ReferenceHierarchy {
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            memory: MainMemory::new(cfg.memory_model()),
            cfg,
            queue: VecDeque::new(),
            inflight: Vec::new(),
            stats: MemStats::default(),
        }
    }

    /// One candidate line, probed and deduplicated on its own: the batch
    /// path's up-front residency pass must be equivalent to this.
    fn enqueue(&mut self, now: u64, line: LineAddr) {
        let covered = self.l2.probe(line)
            || self.inflight.iter().any(|p| p.line == line)
            || self.queue.iter().any(|&(l, _)| l == line);
        if covered {
            self.stats.prefetch_dedup_dropped += 1;
            return;
        }
        if self.queue.len() >= self.cfg.prefetch_queue_capacity {
            self.queue.pop_front();
            self.stats.prefetch_overflow_dropped += 1;
        }
        self.queue.push_back((line, now));
        self.stats.prefetch_enqueued += 1;
    }

    fn enqueue_batch(&mut self, now: u64, lines: &[LineAddr]) {
        if lines.is_empty() {
            return;
        }
        self.advance(now);
        for &line in lines {
            self.enqueue(now, line);
        }
    }

    fn demand_access(&mut self, now: u64, addr: Addr, store: bool) -> AccessOutcome {
        self.advance(now);
        let line = addr.line();
        self.stats.l1_accesses += 1;
        if self.l1d.touch(line, store) {
            self.stats.l1_hits += 1;
            return AccessOutcome {
                latency: self.cfg.l1_hit_latency(),
                l1_hit: true,
                class: None,
            };
        }
        self.stats.l2_demand_accesses += 1;
        let l2_time = now + self.cfg.l1d.latency;
        if let Some(prior) = self.l2.demand_touch(line, false) {
            let class = if prior.is_some_and(|m| !m.referenced) {
                self.stats.timely += 1;
                DemandClass::Timely
            } else {
                self.stats.plain_hits += 1;
                DemandClass::PlainHit
            };
            self.fill_l1(line, store);
            return AccessOutcome {
                latency: self.cfg.l2_hit_latency(),
                l1_hit: false,
                class: Some(class),
            };
        }
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
            return AccessOutcome {
                latency: self.cfg.l2_hit_latency() + remaining,
                l1_hit: false,
                class: Some(DemandClass::ShorterWaitingTime),
            };
        }
        let class = if let Some(pos) = self.queue.iter().position(|&(l, _)| l == line) {
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
        AccessOutcome {
            latency: self.cfg.l2_hit_latency() + (completion - request_time),
            l1_hit: false,
            class: Some(class),
        }
    }

    fn advance(&mut self, now: u64) {
        loop {
            while self.inflight.len() < self.cfg.prefetch_mshrs() && self.issue_one(0) {}
            let due = self
                .inflight
                .iter()
                .enumerate()
                .filter(|(_, p)| p.fill_time <= now)
                .min_by_key(|(_, p)| p.fill_time)
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let p = self.inflight.swap_remove(i);
            let meta = PrefetchMeta {
                fill_time: p.fill_time,
                referenced: p.demand_hit,
            };
            self.fill_l2(p.line, Some(meta));
            self.stats.prefetch_fills += 1;
            self.issue_one(p.fill_time);
        }
    }

    fn issue_one(&mut self, slot_free_time: u64) -> bool {
        while let Some((line, enqueue_time)) = self.queue.pop_front() {
            if self.l2.probe(line) || self.inflight.iter().any(|p| p.line == line) {
                self.stats.prefetch_dedup_dropped += 1;
                continue;
            }
            let fill_time = self.memory.access(enqueue_time.max(slot_free_time), line);
            self.inflight.push(InFlight {
                line,
                fill_time,
                demand_hit: false,
            });
            self.stats.prefetch_issued += 1;
            return true;
        }
        false
    }

    fn finish(&mut self, now: u64) -> MemStats {
        self.advance(now);
        self.queue.clear();
        while let Some(h) = self.inflight.iter().map(|p| p.fill_time).max() {
            self.advance(h + 1);
        }
        self.stats.wrong += self
            .l2
            .resident()
            .filter(|(_, meta)| meta.is_some_and(|m| !m.referenced))
            .count() as u64;
        self.stats
    }

    fn fill_l1(&mut self, line: LineAddr, store: bool) {
        if let Some(victim) = self.l1d.insert(line, store, None) {
            if victim.dirty && !self.l2.touch(victim.line, true) {
                self.stats.writebacks += 1;
            }
        }
    }

    fn fill_l2(&mut self, line: LineAddr, meta: Option<PrefetchMeta>) {
        if let Some(victim) = self.l2.insert(line, false, meta) {
            if victim.prefetch.is_some_and(|m| !m.referenced) {
                self.stats.wrong += 1;
            }
            if meta.is_some() && victim.prefetch.is_none() {
                self.stats.pollution_evictions += 1;
            }
            let mut dirty = victim.dirty;
            if let Some(l1_victim) = self.l1d.invalidate(victim.line) {
                dirty |= l1_victim.dirty;
            }
            if dirty {
                self.stats.writebacks += 1;
            }
        }
    }
}

/// A 2-set, 2-way L1 over a 4-set, 4-way L2 with 4 prefetch MSHRs and an
/// 8-entry queue, so that overflow, supersede and eviction are all common.
fn small() -> HierarchyConfig {
    HierarchyConfig {
        l1d: CacheConfig {
            size_bytes: 4 * 64,
            assoc: 2,
            latency: 2,
            mshrs: 4,
        },
        l2: CacheConfig {
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

#[derive(Debug, Clone)]
enum Op {
    /// A demand access to line `.0` (a store if `.1`), `.2` cycles later.
    Demand(u64, bool, u64),
    /// One candidate through `enqueue_prefetch`, `.1` cycles later.
    Enqueue(u64, u64),
    /// A candidate batch, `.1` cycles later.
    Batch(Vec<u64>, u64),
    /// A bare `advance`, `.0` cycles later.
    Advance(u64),
}

/// One call. Time steps are mostly short, so that fills are in flight
/// when demands arrive, with an occasional long one that lets them land.
fn op() -> impl Strategy<Value = Op> {
    let line = 0u64..1 << 16;
    let dt = || prop_oneof![0u64..8, 0u64..120, 0u64..700];
    prop_oneof![
        (line.clone(), any::<bool>(), dt()).prop_map(|(l, s, t)| Op::Demand(l, s, t)),
        (line.clone(), any::<bool>(), dt()).prop_map(|(l, s, t)| Op::Demand(l, s, t)),
        (line.clone(), dt()).prop_map(|(l, t)| Op::Enqueue(l, t)),
        (proptest::collection::vec(line, 0..24), dt()).prop_map(|(ls, t)| Op::Batch(ls, t)),
        dt().prop_map(Op::Advance),
    ]
}

/// Folds a drawn line number onto `sets` L2 sets, `per_set` lines each:
/// more lines than ways, so both levels evict.
fn fold(l: u64, cfg: &HierarchyConfig, sets: u64, per_set: u64) -> LineAddr {
    let l2_sets = cfg.l2.sets() as u64;
    LineAddr(l % per_set * l2_sets + l / per_set % sets)
}

/// Runs `ops` through both hierarchies, comparing every outcome and the
/// counters after every call and at `finish`.
fn check(cfg: HierarchyConfig, ops: Vec<Op>, sets: u64, per_set: u64) -> Result<(), TestCaseError> {
    let mut fast = MemoryHierarchy::new(cfg);
    let mut reference = ReferenceHierarchy::new(cfg);
    let mut now = 0;
    let line = |l| fold(l, &cfg, sets, per_set);
    for (step, op) in ops.into_iter().enumerate() {
        match op {
            Op::Demand(l, store, dt) => {
                now += dt;
                let addr = line(l).base();
                prop_assert_eq!(
                    fast.demand_access(now, addr, store),
                    reference.demand_access(now, addr, store),
                    "demand at step {}",
                    step
                );
            }
            Op::Enqueue(l, dt) => {
                now += dt;
                fast.enqueue_prefetch(now, line(l));
                reference.advance(now);
                reference.enqueue(now, line(l));
            }
            Op::Batch(ls, dt) => {
                now += dt;
                let lines: Vec<LineAddr> = ls.into_iter().map(line).collect();
                fast.enqueue_prefetch_batch(now, &lines);
                reference.enqueue_batch(now, &lines);
            }
            Op::Advance(dt) => {
                now += dt;
                fast.advance(now);
                reference.advance(now);
            }
        }
        prop_assert_eq!(fast.stats(), &reference.stats, "stats after step {}", step);
    }
    prop_assert_eq!(fast.finish(now + 1), reference.finish(now + 1));
    Ok(())
}

proptest! {
    /// The small geometry over 4 of its sets, flat memory.
    fn small_hierarchy_matches_reference(ops in proptest::collection::vec(op(), 0..400)) {
        check(small(), ops, 4, 12)?;
    }

    /// Table II's geometry (28 prefetch MSHRs, a 64-entry queue) squeezed
    /// onto 3 L2 sets of 20 lines each, with flat memory and with the
    /// banked DRAM model, whose fill times do not follow issue order.
    fn table2_hierarchy_matches_reference(
        ops in proptest::collection::vec(op(), 0..400),
        banked in any::<bool>(),
    ) {
        let cfg = HierarchyConfig {
            dram: banked.then(DramConfig::default),
            ..HierarchyConfig::default()
        };
        check(cfg, ops, 3, 20)?;
    }
}

/// The generated calls must reach the states the checks are about: queue
/// overflow, a demand superseding a queued line, a demand joining an
/// in-flight fill, and duplicate candidates.
#[test]
fn streams_reach_overflow_supersede_and_piggyback() {
    let mut rng = TestRng::deterministic("hierarchy_oracle::reach");
    let ops: Vec<Op> = (0..2000).map(|_| op().sample(&mut rng)).collect();
    let mut m = MemoryHierarchy::new(small());
    let mut now = 0;
    for op in ops {
        match op {
            Op::Demand(l, store, dt) => {
                now += dt;
                m.demand_access(now, fold(l, &small(), 4, 12).base(), store);
            }
            Op::Enqueue(l, dt) => {
                now += dt;
                m.enqueue_prefetch(now, fold(l, &small(), 4, 12));
            }
            Op::Batch(ls, dt) => {
                now += dt;
                let lines: Vec<LineAddr> =
                    ls.into_iter().map(|l| fold(l, &small(), 4, 12)).collect();
                m.enqueue_prefetch_batch(now, &lines);
            }
            Op::Advance(dt) => {
                now += dt;
                m.advance(now);
            }
        }
    }
    let s = m.finish(now + 1);
    assert!(s.prefetch_overflow_dropped > 0, "{s:?}");
    assert!(s.non_timely > 0 && s.shorter_waiting_time > 0, "{s:?}");
    assert!(s.prefetch_dedup_dropped > 0 && s.timely > 0, "{s:?}");
    assert!(s.wrong > 0 && s.pollution_evictions > 0, "{s:?}");
}
