//! Set-associative cache with true-LRU replacement and per-line prefetch
//! metadata.

use crate::config::CacheConfig;
use cbws_trace::LineAddr;
use serde::{Deserialize, Serialize};

/// Metadata attached to a line that was installed by a prefetch.
///
/// Drives the paper's Fig. 13 classification: a prefetched line that is
/// evicted (or still resident at the end of simulation) without ever being
/// demand-referenced counts as a *wrong* prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefetchMeta {
    /// Cycle at which the prefetch was issued to memory.
    pub issue_time: u64,
    /// Cycle at which the fill completed.
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
    /// Prefetch metadata if the victim was prefetched.
    pub prefetch: Option<PrefetchMeta>,
}

/// Per-way state that only matters once a probe has hit: LRU stamp, dirty
/// bit, prefetch metadata. Kept out of the tag array so set scans touch
/// none of it.
#[derive(Debug, Clone, Copy)]
struct WayMeta {
    dirty: bool,
    last_use: u64,
    prefetch: Option<PrefetchMeta>,
}

impl WayMeta {
    fn empty() -> Self {
        WayMeta {
            dirty: false,
            last_use: 0,
            prefetch: None,
        }
    }
}

/// A set-associative, true-LRU, write-back cache over line addresses.
///
/// Purely structural: it holds no data, only tags plus the dirty bit and
/// prefetch metadata needed by the evaluation.
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
    /// Hit-path state for each way, parallel to `tags`.
    meta: Box<[WayMeta]>,
    assoc: usize,
    set_mask: u64,
    stamp: u64,
    resident: usize,
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
            meta: vec![WayMeta::empty(); sets * cfg.assoc].into_boxed_slice(),
            assoc: cfg.assoc,
            set_mask: sets as u64 - 1,
            stamp: 0,
            resident: 0,
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

    /// Checks residency without updating LRU state or prefetch metadata.
    #[inline]
    pub fn probe(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Probes up to 64 lines in one call, returning a mask with bit `i`
    /// set iff `lines[i]` is resident. Exactly equivalent to calling
    /// [`Cache::probe`] per line (no LRU or metadata updates); the batch
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
    /// `store`, marks prefetch metadata as referenced, and returns `true`.
    /// On miss returns `false` and changes nothing.
    #[inline]
    pub fn touch(&mut self, line: LineAddr, store: bool) -> bool {
        self.demand_touch(line, store).is_some()
    }

    /// Fused probe + metadata read + touch: on hit, updates LRU, merges the
    /// dirty bit, marks prefetch metadata as referenced, and returns
    /// `Some(meta)` — the line's prefetch metadata *as it was before* this
    /// touch (so a first demand hit on a prefetched line reports
    /// `referenced == false`). On miss returns `None` and changes nothing.
    ///
    /// This is the hierarchy's L2 hit path in a single set scan; the
    /// separate [`Cache::probe`]/[`Cache::prefetch_meta`]/[`Cache::touch`]
    /// entry points would walk the set three times.
    #[inline]
    pub fn demand_touch(&mut self, line: LineAddr, store: bool) -> Option<Option<PrefetchMeta>> {
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

    /// Returns the prefetch metadata of a resident line, if any, without
    /// updating LRU state.
    pub fn prefetch_meta(&self, line: LineAddr) -> Option<PrefetchMeta> {
        self.find(line).and_then(|i| self.meta[i].prefetch)
    }

    /// Installs `line`, evicting the LRU way of its set if the set is full.
    /// If the line is already resident this behaves like [`Cache::touch`]
    /// plus a metadata overwrite and evicts nothing.
    pub fn insert(
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

        let start = self.set_offset(line);
        let set_tags = &self.tags[start..start + self.assoc];
        // Prefer a free way; otherwise evict the set's LRU way (first of
        // the minima, matching way order).
        let victim = match scan_tags(set_tags, 0) {
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
        let evicted = (victim_tag != 0).then(|| {
            let m = &self.meta[victim];
            EvictedLine {
                line: LineAddr(victim_tag >> 1),
                dirty: m.dirty,
                prefetch: m.prefetch,
            }
        });
        self.tags[victim] = valid_tag(line);
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

    /// Removes `line` if resident, returning its state (used for inclusive-L2
    /// back-invalidation of the L1).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine> {
        let i = self.find(line)?;
        self.tags[i] = 0;
        let m = &self.meta[i];
        self.resident -= 1;
        Some(EvictedLine {
            line,
            dirty: m.dirty,
            prefetch: m.prefetch,
        })
    }

    /// Iterates over all resident lines (order unspecified). Used at the end
    /// of a simulation to count never-referenced prefetched lines as wrong.
    pub fn resident(&self) -> impl Iterator<Item = (LineAddr, Option<PrefetchMeta>)> + '_ {
        self.tags
            .iter()
            .zip(self.meta.iter())
            .filter(|(&t, _)| t != 0)
            .map(|(&t, m)| (LineAddr(t >> 1), m.prefetch))
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

    #[test]
    fn prefetch_meta_tracked_and_referenced() {
        let mut c = tiny();
        let meta = PrefetchMeta {
            issue_time: 10,
            fill_time: 310,
            referenced: false,
        };
        c.insert(LineAddr(6), false, Some(meta));
        assert!(!c.prefetch_meta(LineAddr(6)).unwrap().referenced);
        c.touch(LineAddr(6), false);
        assert!(c.prefetch_meta(LineAddr(6)).unwrap().referenced);
    }

    #[test]
    fn demand_touch_reports_prior_meta_once() {
        let mut c = tiny();
        let meta = PrefetchMeta {
            issue_time: 10,
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
