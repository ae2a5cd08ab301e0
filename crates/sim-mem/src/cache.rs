//! Set-associative cache with true-LRU replacement and per-line prefetch
//! state.

use crate::config::CacheConfig;
use cbws_trace::LineAddr;
use serde::{Deserialize, Serialize};

/// Prefetch state of a line that was installed by a prefetch.
///
/// Drives the paper's Fig. 13 classification: a prefetched line that is
/// evicted (or still resident at the end of simulation) without ever being
/// demand-referenced counts as a *wrong* prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchMeta {
    /// Cycle at which the fill completed. Only a cache that keeps fill
    /// times ([`Cache::keep_fill_times`]) stores it; any other reports 0.
    pub fill_time: u64,
    /// Whether a demand access has referenced the line since the fill.
    pub referenced: bool,
}

/// A line pushed out of the cache by an insertion or invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The victim's line address.
    pub line: LineAddr,
    /// Whether the victim was dirty (requires write-back).
    pub dirty: bool,
    /// Prefetch state if the victim was prefetched.
    pub prefetch: Option<PrefetchMeta>,
}

// A way's state word: its LRU stamp above three flag bits.
const DIRTY: u32 = 1;
const PREFETCHED: u32 = 1 << 1;
/// Demand-referenced since the fill; only read while `PREFETCHED` is set.
const REFERENCED: u32 = 1 << 2;
const FLAG_BITS: u32 = 3;
const FLAGS: u32 = (1 << FLAG_BITS) - 1;
/// The largest stamp a state word holds; handing out the next one first
/// re-ranks every set ([`rerank`]).
pub(crate) const STAMP_MAX: u32 = u32::MAX >> FLAG_BITS;

#[inline]
fn dirty_flag(dirty: bool) -> u32 {
    if dirty {
        DIRTY
    } else {
        0
    }
}

/// A set-associative, true-LRU, write-back cache over line addresses.
///
/// Purely structural: it holds no data, only tags plus the dirty bit and
/// prefetch state needed by the evaluation — 12 bytes per way, plus 8 for
/// a prefetch's fill time while [`Cache::keep_fill_times`] is on.
///
/// ```
/// use cbws_sim_mem::{Cache, CacheConfig};
/// use cbws_trace::LineAddr;
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, assoc: 2, latency: 1, mshrs: 4 });
/// assert!(!c.touch(LineAddr(3), false));
/// c.insert(LineAddr(3), false, None);
/// assert!(c.touch(LineAddr(3), false));
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// One packed tag per way, set-major: set `s` occupies
    /// `tags[s * assoc .. (s + 1) * assoc]`. A valid way stores
    /// `line << 1 | 1`, a free way stores `0`, so a probe is a single
    /// compare per way and an 8-way set scan reads 64 contiguous bytes —
    /// one host cache line — instead of walking interleaved metadata.
    tags: Box<[u64]>,
    /// One state word per way, parallel to `tags`: the way's LRU stamp
    /// shifted above the `DIRTY`, `PREFETCHED` and `REFERENCED` flags. A
    /// hit reads and rewrites this single word; only a victim search scans
    /// the set's words.
    state: Box<[u32]>,
    /// Fill cycle of each way's prefetch, parallel to `tags`. Present only
    /// while fill times are kept: the prefetch-to-use telemetry histogram
    /// is their one reader.
    fill_times: Option<Box<[u64]>>,
    assoc: usize,
    set_mask: u64,
    /// The last stamp handed out. Every hit or insert takes a fresh one,
    /// so the smallest stamp in a full set marks its LRU way.
    stamp: u32,
    resident: usize,
}

/// Replaces each way's stamp by its LRU rank within its set (1 = least
/// recently used; equal stamps keep way order), keeping every flag, and
/// returns `assoc`, the stamp above every rank.
///
/// A free function over the state lane alone, kept out of line: as a
/// `&mut self` method, its never-taken call slowed the inlined hit path in
/// a random-hit microbenchmark, because the hit path could no longer keep
/// the cache's other fields in registers across it.
#[cold]
#[inline(never)]
fn rerank(state: &mut [u32], assoc: usize) -> u32 {
    let mut order: Vec<usize> = Vec::with_capacity(assoc);
    for set in state.chunks_exact_mut(assoc) {
        order.clear();
        order.extend(0..set.len());
        order.sort_by_key(|&i| set[i] >> FLAG_BITS);
        for (rank, &i) in order.iter().enumerate() {
            set[i] = (rank as u32 + 1) << FLAG_BITS | set[i] & FLAGS;
        }
    }
    assoc as u32
}

/// Packed tag of a resident `line` (see `Cache::tags`).
#[inline]
fn valid_tag(line: LineAddr) -> u64 {
    (line.0 << 1) | 1
}

/// Scan of a set's contiguous tag lane for `want` (a packed valid tag, or
/// `0` to find a free way).
#[inline]
fn scan_tags(tags: &[u64], want: u64) -> Option<usize> {
    tags.iter().position(|&t| t == want)
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (see [`CacheConfig::sets`]).
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            tags: vec![0; sets * cfg.assoc].into_boxed_slice(),
            state: vec![0; sets * cfg.assoc].into_boxed_slice(),
            fill_times: None,
            assoc: cfg.assoc,
            set_mask: sets as u64 - 1,
            stamp: 0,
            resident: 0,
        }
    }

    /// A cache whose next stamp is `stamp + 1`, so tests can reach the
    /// stamp wrap without billions of accesses.
    #[cfg(test)]
    pub(crate) fn with_stamp(mut self, stamp: u32) -> Self {
        self.stamp = stamp;
        self
    }

    /// Starts or stops keeping each prefetched line's
    /// [`PrefetchMeta::fill_time`] (8 more bytes per way). Lines
    /// prefetched while it was off report a fill time of 0.
    pub fn keep_fill_times(&mut self, keep: bool) {
        if keep != self.fill_times.is_some() {
            self.fill_times = keep.then(|| vec![0; self.tags.len()].into_boxed_slice());
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.resident
    }

    #[inline]
    fn set_offset(&self, line: LineAddr) -> usize {
        (line.0 & self.set_mask) as usize * self.assoc
    }

    /// Index of the way holding `line`, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let start = self.set_offset(line);
        let want = valid_tag(line);
        scan_tags(&self.tags[start..start + self.assoc], want).map(|i| start + i)
    }

    /// The next LRU stamp, already shifted into place above the flags.
    #[inline]
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == STAMP_MAX {
            self.stamp = rerank(&mut self.state, self.assoc);
        }
        self.stamp += 1;
        self.stamp << FLAG_BITS
    }

    /// The prefetch state way `i` records, given its state word `w`.
    #[inline]
    fn prefetch_of(&self, i: usize, w: u32) -> Option<PrefetchMeta> {
        (w & PREFETCHED != 0).then(|| PrefetchMeta {
            fill_time: self.fill_times.as_ref().map_or(0, |f| f[i]),
            referenced: w & REFERENCED != 0,
        })
    }

    /// Checks residency without updating LRU state or prefetch state.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Probes up to 64 lines in one call, returning a mask with bit `i`
    /// set iff `lines[i]` is resident. Exactly equivalent to calling
    /// [`Cache::probe`] per line (no LRU or state updates); the batch
    /// shape lets the hierarchy resolve a whole candidate column against
    /// the tag lanes before mutating any queue state.
    ///
    /// # Panics
    ///
    /// Panics when given more than 64 lines.
    pub fn probe_batch(&self, lines: &[LineAddr]) -> u64 {
        assert!(lines.len() <= 64, "probe_batch takes at most 64 lines");
        let mut mask = 0u64;
        for (i, &line) in lines.iter().enumerate() {
            mask |= u64::from(self.probe(line)) << i;
        }
        mask
    }

    /// Demand-touches `line`: on hit, updates LRU, sets the dirty bit if
    /// `store`, marks the line referenced, and returns `true`. On miss
    /// returns `false` and changes nothing.
    #[inline]
    pub fn touch(&mut self, line: LineAddr, store: bool) -> bool {
        self.demand_touch(line, store).is_some()
    }

    /// Fused probe + state read + touch: on hit, updates LRU, merges the
    /// dirty bit, marks the line referenced, and returns `Some(meta)` — the
    /// line's prefetch state *as it was before* this touch (so a first
    /// demand hit on a prefetched line reports `referenced == false`). On
    /// miss returns `None` and changes nothing.
    ///
    /// This is the hierarchy's L2 hit path: one set scan of the tag lane,
    /// then one read and one write of the hit way's state word.
    #[inline]
    pub fn demand_touch(&mut self, line: LineAddr, store: bool) -> Option<Option<PrefetchMeta>> {
        let i = self.find(line)?;
        let stamp = self.next_stamp();
        let w = self.state[i];
        let prior = self.prefetch_of(i, w);
        self.state[i] = stamp | w & FLAGS | REFERENCED | dirty_flag(store);
        Some(prior)
    }

    /// Installs `line`, evicting the LRU way of its set if the set is full.
    /// If the line is already resident this behaves like [`Cache::touch`]
    /// plus a prefetch-state overwrite (when `prefetch` is given) and
    /// evicts nothing.
    pub fn insert(
        &mut self,
        line: LineAddr,
        dirty: bool,
        prefetch: Option<PrefetchMeta>,
    ) -> Option<EvictedLine> {
        let stamp = self.next_stamp();
        let flags = dirty_flag(dirty)
            | prefetch.map_or(0, |m| {
                PREFETCHED | if m.referenced { REFERENCED } else { 0 }
            });

        if let Some(i) = self.find(line) {
            let w = self.state[i];
            let kept = if prefetch.is_some() {
                w & DIRTY
            } else {
                w & FLAGS
            };
            self.state[i] = stamp | kept | flags;
            self.set_fill_time(i, prefetch);
            return None;
        }

        let start = self.set_offset(line);
        // Prefer a free way; otherwise evict the set's LRU way (first of
        // the minima, matching way order).
        let victim = match scan_tags(&self.tags[start..start + self.assoc], 0) {
            Some(i) => start + i,
            None => {
                let set = &self.state[start..start + self.assoc];
                start
                    + (0..self.assoc)
                        .min_by_key(|&i| set[i] >> FLAG_BITS)
                        .expect("assoc > 0")
            }
        };

        let victim_tag = self.tags[victim];
        let evicted = (victim_tag != 0).then(|| self.evicted(victim, LineAddr(victim_tag >> 1)));
        self.tags[victim] = valid_tag(line);
        self.state[victim] = stamp | flags;
        self.set_fill_time(victim, prefetch);
        if victim_tag == 0 {
            self.resident += 1;
        }
        evicted
    }

    /// Records a prefetch's fill time for way `i`, if fill times are kept.
    #[inline]
    fn set_fill_time(&mut self, i: usize, prefetch: Option<PrefetchMeta>) {
        if let (Some(meta), Some(fills)) = (prefetch, &mut self.fill_times) {
            fills[i] = meta.fill_time;
        }
    }

    /// The state of way `i`, which holds `line`, as it leaves the cache.
    fn evicted(&self, i: usize, line: LineAddr) -> EvictedLine {
        let w = self.state[i];
        EvictedLine {
            line,
            dirty: w & DIRTY != 0,
            prefetch: self.prefetch_of(i, w),
        }
    }

    /// Removes `line` if resident, returning its state (used for inclusive-L2
    /// back-invalidation of the L1).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let i = self.find(line)?;
        self.tags[i] = 0;
        self.resident -= 1;
        Some(self.evicted(i, line))
    }

    /// Iterates over all resident lines (order unspecified). Used at the end
    /// of a simulation to count never-referenced prefetched lines as wrong.
    pub fn resident(&self) -> impl Iterator<Item = (LineAddr, Option<PrefetchMeta>)> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t != 0)
            .map(|(i, &t)| (LineAddr(t >> 1), self.prefetch_of(i, self.state[i])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways.
        Cache::new(CacheConfig {
            size_bytes: 4 * 64,
            assoc: 2,
            latency: 1,
            mshrs: 1,
        })
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(c.insert(LineAddr(4), false, None).is_none());
        assert!(c.probe(LineAddr(4)));
        assert!(c.touch(LineAddr(4), false));
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn miss_on_empty() {
        let mut c = tiny();
        assert!(!c.touch(LineAddr(4), false));
        assert!(!c.probe(LineAddr(4)));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets).
        c.insert(LineAddr(0), false, None);
        c.insert(LineAddr(2), false, None);
        c.touch(LineAddr(0), false); // 2 is now LRU
        let ev = c.insert(LineAddr(4), false, None).unwrap();
        assert_eq!(ev.line, LineAddr(2));
        assert!(c.probe(LineAddr(0)));
        assert!(c.probe(LineAddr(4)));
    }

    #[test]
    fn dirty_propagates_to_eviction() {
        let mut c = tiny();
        c.insert(LineAddr(0), false, None);
        c.touch(LineAddr(0), true);
        c.insert(LineAddr(2), false, None);
        let ev = c.insert(LineAddr(4), false, None).unwrap();
        assert_eq!(ev.line, LineAddr(0));
        assert!(ev.dirty);
    }

    #[test]
    fn reinsert_does_not_evict_or_duplicate() {
        let mut c = tiny();
        c.insert(LineAddr(0), false, None);
        assert!(c.insert(LineAddr(0), true, None).is_none());
        assert_eq!(c.resident_lines(), 1);
        // Dirty bit merged.
        c.insert(LineAddr(2), false, None);
        let ev = c.insert(LineAddr(4), false, None).unwrap();
        assert!(ev.dirty || ev.line != LineAddr(0), "line 0 should be MRU");
    }

    /// The prefetch state `resident` reports for `line`.
    fn meta_of(c: &Cache, line: u64) -> Option<PrefetchMeta> {
        c.resident()
            .find(|&(l, _)| l.0 == line)
            .and_then(|(_, m)| m)
    }

    #[test]
    fn prefetch_meta_tracked_and_referenced() {
        let mut c = tiny();
        let meta = PrefetchMeta {
            fill_time: 310,
            referenced: false,
        };
        c.insert(LineAddr(6), false, Some(meta));
        assert!(!meta_of(&c, 6).unwrap().referenced);
        c.touch(LineAddr(6), false);
        assert!(meta_of(&c, 6).unwrap().referenced);
    }

    #[test]
    fn fill_times_are_kept_only_on_request() {
        let meta = PrefetchMeta {
            fill_time: 310,
            referenced: false,
        };
        let mut c = tiny();
        c.insert(LineAddr(6), false, Some(meta));
        assert_eq!(meta_of(&c, 6).unwrap().fill_time, 0);
        c.keep_fill_times(true);
        c.insert(LineAddr(8), false, Some(meta));
        assert_eq!(meta_of(&c, 8), Some(meta));
        let ev = c.insert(LineAddr(10), false, None).unwrap();
        assert_eq!(
            (ev.line, ev.prefetch),
            (
                LineAddr(6),
                Some(PrefetchMeta {
                    fill_time: 0,
                    ..meta
                })
            )
        );
    }

    #[test]
    fn stamp_wrap_keeps_lru_order() {
        // Three stamps before the wrap: 0 and 2 fill set 0, 1 fills set 1,
        // and touching 0 after the wrap leaves 2 as set 0's LRU way.
        let mut c = tiny().with_stamp(STAMP_MAX - 3);
        c.insert(LineAddr(0), true, None);
        c.insert(LineAddr(1), false, None);
        c.insert(LineAddr(2), false, None);
        assert!(c.touch(LineAddr(0), false));
        assert_eq!(c.stamp, 3, "re-ranked to assoc, then one more");
        let ev = c.insert(LineAddr(4), false, None).unwrap();
        assert_eq!(ev.line, LineAddr(2));
        // Flags survive the re-rank.
        let ev = c.insert(LineAddr(6), false, None).unwrap();
        assert_eq!((ev.line, ev.dirty), (LineAddr(0), true));
        assert!(c.probe(LineAddr(1)));
    }

    #[test]
    fn demand_touch_reports_prior_meta_once() {
        let mut c = tiny();
        c.keep_fill_times(true);
        let meta = PrefetchMeta {
            fill_time: 310,
            referenced: false,
        };
        c.insert(LineAddr(6), false, Some(meta));
        // Miss: no state change.
        assert_eq!(c.demand_touch(LineAddr(4), false), None);
        // First hit sees the pre-touch (unreferenced) metadata...
        let first = c.demand_touch(LineAddr(6), false).unwrap().unwrap();
        assert!(!first.referenced);
        assert_eq!(first.fill_time, 310);
        // ...the second hit sees it referenced, and a plain line sees None.
        assert!(
            c.demand_touch(LineAddr(6), false)
                .unwrap()
                .unwrap()
                .referenced
        );
        c.insert(LineAddr(1), false, None);
        assert_eq!(c.demand_touch(LineAddr(1), true), Some(None));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.insert(LineAddr(8), true, None);
        let ev = c.invalidate(LineAddr(8)).unwrap();
        assert!(ev.dirty);
        assert!(!c.probe(LineAddr(8)));
        assert!(c.invalidate(LineAddr(8)).is_none());
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for i in 0..100 {
            c.insert(LineAddr(i), false, None);
            assert!(c.resident_lines() <= 4);
        }
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn resident_iterates_valid_lines() {
        let mut c = tiny();
        c.insert(LineAddr(1), false, None);
        c.insert(LineAddr(2), false, None);
        let mut lines: Vec<u64> = c.resident().map(|(l, _)| l.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![1, 2]);
    }

    #[test]
    fn sets_isolated() {
        let mut c = tiny();
        // Set 0: lines 0,2; set 1: lines 1,3. Filling set 0 must not evict set 1.
        c.insert(LineAddr(1), false, None);
        c.insert(LineAddr(0), false, None);
        c.insert(LineAddr(2), false, None);
        c.insert(LineAddr(4), false, None); // evicts within set 0 only
        assert!(c.probe(LineAddr(1)));
    }
}
