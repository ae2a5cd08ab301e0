//! The reference [`Cache`]: the straightforward layout the packed one
//! replaced — a 64-bit LRU stamp that never wraps and a `WayMeta` record
//! per way holding the dirty bit and the whole [`PrefetchMeta`]. The
//! property test below drives both through the same random call sequence
//! and requires every return value to agree.

use crate::cache::{Cache, EvictedLine, PrefetchMeta, STAMP_MAX};
use crate::config::CacheConfig;
use cbws_trace::LineAddr;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct WayMeta {
    dirty: bool,
    last_use: u64,
    prefetch: Option<PrefetchMeta>,
}

const EMPTY: WayMeta = WayMeta {
    dirty: false,
    last_use: 0,
    prefetch: None,
};

struct ReferenceCache {
    tags: Vec<u64>,
    meta: Vec<WayMeta>,
    assoc: usize,
    set_mask: u64,
    stamp: u64,
    resident: usize,
}

impl ReferenceCache {
    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        ReferenceCache {
            tags: vec![0; sets * cfg.assoc],
            meta: vec![EMPTY; sets * cfg.assoc],
            assoc: cfg.assoc,
            set_mask: sets as u64 - 1,
            stamp: 0,
            resident: 0,
        }
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        let start = (line.0 & self.set_mask) as usize * self.assoc;
        let want = line.0 << 1 | 1;
        self.tags[start..start + self.assoc]
            .iter()
            .position(|&t| t == want)
            .map(|i| start + i)
    }

    fn probe(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    fn demand_touch(&mut self, line: LineAddr, store: bool) -> Option<Option<PrefetchMeta>> {
        self.stamp += 1;
        let i = self.find(line)?;
        let m = &mut self.meta[i];
        m.last_use = self.stamp;
        m.dirty |= store;
        let prior = m.prefetch;
        if let Some(meta) = &mut m.prefetch {
            meta.referenced = true;
        }
        Some(prior)
    }

    fn insert(
        &mut self,
        line: LineAddr,
        dirty: bool,
        prefetch: Option<PrefetchMeta>,
    ) -> Option<EvictedLine> {
        self.stamp += 1;
        let stamp = self.stamp;
        if let Some(i) = self.find(line) {
            let m = &mut self.meta[i];
            m.last_use = stamp;
            m.dirty |= dirty;
            if prefetch.is_some() {
                m.prefetch = prefetch;
            }
            return None;
        }
        let start = (line.0 & self.set_mask) as usize * self.assoc;
        let victim = match self.tags[start..start + self.assoc]
            .iter()
            .position(|&t| t == 0)
        {
            Some(i) => start + i,
            None => {
                let metas = &self.meta[start..start + self.assoc];
                start
                    + (0..self.assoc)
                        .min_by_key(|&i| metas[i].last_use)
                        .expect("assoc > 0")
            }
        };
        let victim_tag = self.tags[victim];
        let evicted = (victim_tag != 0).then(|| EvictedLine {
            line: LineAddr(victim_tag >> 1),
            dirty: self.meta[victim].dirty,
            prefetch: self.meta[victim].prefetch,
        });
        self.tags[victim] = line.0 << 1 | 1;
        self.meta[victim] = WayMeta {
            dirty,
            last_use: stamp,
            prefetch,
        };
        if victim_tag == 0 {
            self.resident += 1;
        }
        evicted
    }

    fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let i = self.find(line)?;
        self.tags[i] = 0;
        self.resident -= 1;
        Some(EvictedLine {
            line,
            dirty: self.meta[i].dirty,
            prefetch: self.meta[i].prefetch,
        })
    }

    fn resident(&self) -> impl Iterator<Item = (LineAddr, Option<PrefetchMeta>)> + '_ {
        self.tags
            .iter()
            .zip(&self.meta)
            .filter(|(&t, _)| t != 0)
            .map(|(&t, m)| (LineAddr(t >> 1), m.prefetch))
    }
}

#[derive(Debug, Clone)]
enum Op {
    Touch(u64, bool),
    DemandTouch(u64, bool),
    Insert(u64, bool, Option<(u64, bool)>),
    Invalidate(u64),
    Probe(u64),
    ProbeBatch(Vec<u64>),
    Resident,
}

/// One call, with line numbers still to be folded into the case's range.
fn op() -> impl Strategy<Value = Op> {
    let l = 0u64..1 << 20;
    prop_oneof![
        (l.clone(), any::<bool>()).prop_map(|(l, s)| Op::Touch(l, s)),
        (l.clone(), any::<bool>()).prop_map(|(l, s)| Op::DemandTouch(l, s)),
        (l.clone(), any::<bool>()).prop_map(|(l, d)| Op::Insert(l, d, None)),
        (l.clone(), any::<bool>(), 0u64..1_000_000, any::<bool>())
            .prop_map(|(l, d, f, r)| Op::Insert(l, d, Some((f, r)))),
        l.clone().prop_map(Op::Invalidate),
        l.clone().prop_map(Op::Probe),
        proptest::collection::vec(l, 0..65).prop_map(Op::ProbeBatch),
        Just(Op::Resident),
    ]
}

/// `op` with every line number taken modulo `lines`.
fn fold(op: Op, lines: u64) -> Op {
    match op {
        Op::Touch(l, s) => Op::Touch(l % lines, s),
        Op::DemandTouch(l, s) => Op::DemandTouch(l % lines, s),
        Op::Insert(l, d, m) => Op::Insert(l % lines, d, m),
        Op::Invalidate(l) => Op::Invalidate(l % lines),
        Op::Probe(l) => Op::Probe(l % lines),
        Op::ProbeBatch(ls) => Op::ProbeBatch(ls.into_iter().map(|l| l % lines).collect()),
        Op::Resident => Op::Resident,
    }
}

proptest! {
    /// The packed cache answers every call exactly as the reference does,
    /// over geometries of 1–16 ways and 1–64 sets, with and without a
    /// fill-time lane (without one, fill times read 0), and — when `wrap`
    /// starts the stamp up to 300 short of its maximum — across a wrap.
    fn packed_cache_matches_reference(
        assoc in 1usize..17,
        log_sets in 0u32..7,
        keep_fills in any::<bool>(),
        wrap in any::<bool>(),
        short_of_max in 0u32..300,
        ops in proptest::collection::vec(op(), 0..400),
    ) {
        let cfg = CacheConfig {
            size_bytes: (assoc << log_sets) as u64 * 64,
            assoc,
            latency: 1,
            mshrs: 1,
        };
        // Three times the capacity: evictions and re-inserts both happen.
        let lines = 3 * (assoc << log_sets) as u64;
        let start = if wrap { STAMP_MAX - short_of_max } else { 0 };
        let mut packed = Cache::new(cfg).with_stamp(start);
        packed.keep_fill_times(keep_fills);
        let mut reference = ReferenceCache::new(cfg);
        let seen = |m: Option<PrefetchMeta>| {
            m.map(|m| PrefetchMeta { fill_time: if keep_fills { m.fill_time } else { 0 }, ..m })
        };
        let seen_evicted = |e: Option<EvictedLine>| e.map(|e| EvictedLine { prefetch: seen(e.prefetch), ..e });
        for (step, op) in ops.into_iter().enumerate() {
            match fold(op, lines) {
                Op::Touch(l, s) => prop_assert_eq!(
                    packed.touch(LineAddr(l), s),
                    reference.demand_touch(LineAddr(l), s).is_some(),
                    "touch at step {}", step
                ),
                Op::DemandTouch(l, s) => prop_assert_eq!(
                    packed.demand_touch(LineAddr(l), s),
                    reference.demand_touch(LineAddr(l), s).map(seen),
                    "demand_touch at step {}", step
                ),
                Op::Insert(l, d, meta) => {
                    let meta = meta.map(|(fill_time, referenced)| PrefetchMeta { fill_time, referenced });
                    prop_assert_eq!(
                        packed.insert(LineAddr(l), d, meta),
                        seen_evicted(reference.insert(LineAddr(l), d, meta)),
                        "insert at step {}", step
                    );
                }
                Op::Invalidate(l) => prop_assert_eq!(
                    packed.invalidate(LineAddr(l)),
                    seen_evicted(reference.invalidate(LineAddr(l))),
                    "invalidate at step {}", step
                ),
                Op::Probe(l) => prop_assert_eq!(
                    packed.probe(LineAddr(l)),
                    reference.probe(LineAddr(l))
                ),
                Op::ProbeBatch(ls) => {
                    let lines: Vec<LineAddr> = ls.into_iter().map(LineAddr).collect();
                    let want = lines
                        .iter()
                        .enumerate()
                        .fold(0u64, |m, (i, &l)| m | u64::from(reference.probe(l)) << i);
                    prop_assert_eq!(packed.probe_batch(&lines), want);
                }
                Op::Resident => {
                    let mut got: Vec<_> = packed.resident().map(|(l, m)| (l.0, m)).collect();
                    let mut want: Vec<_> = reference.resident().map(|(l, m)| (l.0, seen(m))).collect();
                    got.sort_unstable_by_key(|&(l, _)| l);
                    want.sort_unstable_by_key(|&(l, _)| l);
                    prop_assert_eq!(got, want, "resident at step {}", step);
                }
            }
            prop_assert_eq!(packed.resident_lines(), reference.resident);
        }
    }
}
