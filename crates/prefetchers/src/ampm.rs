//! Access Map Pattern Matching (Ishii, Inaba, Hiraki — JILP 2011).
//!
//! **Extension beyond the paper's evaluation.** The paper discusses AMPM in
//! its related work (§III-A): a zone-based prefetcher that keeps a cache-
//! line bitmap per concentration zone and pattern-matches strides against
//! it, with no PC involvement — and observes that, applied to loops, it
//! finds patterns *inside* an iteration before patterns *across*
//! iterations. Implementing it lets the extended comparison
//! (`ext_comparison` binary) test that observation against CBWS directly.
//!
//! Model: memory is divided into aligned zones (default 4 KB = 64 lines).
//! The most recent zones are tracked with an accessed-bitmap each. On an
//! access to offset `o`, every stride `k` with both `o-k` and `o-2k`
//! already accessed predicts `o+k` (and symmetrically backwards), up to a
//! configurable degree.

use crate::{PrefetchContext, Prefetcher};
use cbws_describe::{ComponentDescription, ComponentKind, Describe, ParamSpec};
use cbws_trace::{LineAddr, LINE_BYTES};

/// AMPM parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmpmConfig {
    /// Zone size in bytes (power of two, at most 64 lines).
    pub zone_bytes: u64,
    /// Zones tracked simultaneously (LRU).
    pub zones: usize,
    /// Maximum candidate strides matched per access.
    pub degree: usize,
    /// Largest stride magnitude (in lines) considered.
    pub max_stride: u32,
}

impl Default for AmpmConfig {
    fn default() -> Self {
        AmpmConfig {
            zone_bytes: 4096,
            zones: 64,
            degree: 2,
            max_stride: 16,
        }
    }
}

impl AmpmConfig {
    /// Lines per zone.
    pub fn zone_lines(&self) -> u32 {
        (self.zone_bytes / LINE_BYTES) as u32
    }
}

#[derive(Debug, Clone, Copy)]
struct Zone {
    id: u64,
    map: u64,
    lru: u64,
}

/// The AMPM prefetcher. Observes demand accesses that reach the L2.
#[derive(Debug, Clone)]
pub struct AmpmPrefetcher {
    cfg: AmpmConfig,
    zones: Vec<Zone>,
    stamp: u64,
}

impl AmpmPrefetcher {
    /// Creates an AMPM prefetcher.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (zone larger than 64 lines, zero
    /// zones/degree).
    pub fn new(cfg: AmpmConfig) -> Self {
        assert!(
            cfg.zone_bytes.is_power_of_two(),
            "zone size must be a power of two"
        );
        assert!(
            cfg.zone_lines() >= 2 && cfg.zone_lines() <= 64,
            "zone must be 2..=64 lines"
        );
        assert!(
            cfg.zones > 0 && cfg.degree > 0,
            "zones and degree must be non-zero"
        );
        assert!(cfg.max_stride >= 1, "max_stride must be at least 1");
        AmpmPrefetcher {
            cfg,
            zones: Vec::with_capacity(cfg.zones),
            stamp: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AmpmConfig {
        &self.cfg
    }

    fn zone_of(&self, line: LineAddr) -> (u64, u32) {
        let lines = u64::from(self.cfg.zone_lines());
        (line.0 / lines, (line.0 % lines) as u32)
    }
}

impl Default for AmpmPrefetcher {
    fn default() -> Self {
        AmpmPrefetcher::new(AmpmConfig::default())
    }
}

impl Describe for AmpmPrefetcher {
    fn describe(&self) -> ComponentDescription {
        let c = &self.cfg;
        ComponentDescription::new(
            Prefetcher::name(self),
            ComponentKind::Prefetcher,
            "Access Map Pattern Matching (Ishii, Inaba, Hiraki — JILP 2011): \
             keeps a cache-line bitmap per concentration zone and pattern-matches \
             strides against it with no PC involvement. Implemented to test the \
             paper's §III-A observation that AMPM finds patterns inside an \
             iteration before patterns across iterations.",
        )
        .paper_section("§III-A (related work)")
        .extension()
        .storage_bits(self.storage_bits())
        .param(ParamSpec::new(
            "zone_bytes",
            "concentration zone size",
            c.zone_bytes.to_string(),
            "power of two, 2-64 lines",
        ))
        .param(ParamSpec::new(
            "zones",
            "zones tracked simultaneously (LRU)",
            c.zones.to_string(),
            "≥ 1",
        ))
        .param(ParamSpec::new(
            "degree",
            "maximum candidate strides matched per access",
            c.degree.to_string(),
            "≥ 1",
        ))
        .param(ParamSpec::new(
            "max_stride",
            "largest stride magnitude considered, in lines",
            c.max_stride.to_string(),
            "≥ 1",
        ))
        .metrics(cbws_describe::prefetcher_hook_metrics())
    }
}

impl Prefetcher for AmpmPrefetcher {
    fn name(&self) -> &'static str {
        "AMPM"
    }

    fn storage_bits(&self) -> u64 {
        // Per zone: 36-bit tag + per-line map bit + 8-bit LRU counter.
        let per_zone = 36 + u64::from(self.cfg.zone_lines()) + 8;
        per_zone * self.cfg.zones as u64
    }

    fn on_access(&mut self, ctx: &PrefetchContext, out: &mut Vec<LineAddr>) {
        if !ctx.reached_l2() {
            return;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let (zone_id, offset) = self.zone_of(ctx.addr.line());
        let zone_lines = self.cfg.zone_lines();

        let zone = match self.zones.iter_mut().find(|z| z.id == zone_id) {
            Some(z) => z,
            None => {
                if self.zones.len() < self.cfg.zones {
                    self.zones.push(Zone {
                        id: zone_id,
                        map: 0,
                        lru: stamp,
                    });
                    self.zones.last_mut().expect("just pushed")
                } else {
                    let victim = self
                        .zones
                        .iter_mut()
                        .min_by_key(|z| z.lru)
                        .expect("zones non-empty");
                    *victim = Zone {
                        id: zone_id,
                        map: 0,
                        lru: stamp,
                    };
                    victim
                }
            }
        };
        zone.lru = stamp;
        zone.map |= 1 << offset;
        let map = zone.map;
        let zone_base = zone_id * u64::from(zone_lines);

        let set = |o: i64| o >= 0 && o < i64::from(zone_lines) && map & (1 << o) != 0;
        let mut emitted = 0;
        let o = i64::from(offset);
        for k in 1..=i64::from(self.cfg.max_stride) {
            if emitted >= self.cfg.degree {
                break;
            }
            // Forward pattern: o-k and o-2k accessed => prefetch o+k.
            if set(o - k) && set(o - 2 * k) && o + k < i64::from(zone_lines) && !set(o + k) {
                out.push(LineAddr(zone_base + (o + k) as u64));
                emitted += 1;
                continue;
            }
            // Backward pattern: o+k and o+2k accessed => prefetch o-k.
            if set(o + k) && set(o + 2 * k) && o - k >= 0 && !set(o - k) {
                out.push(LineAddr(zone_base + (o - k) as u64));
                emitted += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbws_trace::{Addr, Pc};

    fn miss(line: u64) -> PrefetchContext {
        PrefetchContext::demand_miss(Pc(0x40), Addr(line * 64))
    }

    fn drive(pf: &mut AmpmPrefetcher, lines: &[u64]) -> Vec<LineAddr> {
        let mut out = Vec::new();
        for &l in lines {
            out.clear();
            pf.on_access(&miss(l), &mut out);
        }
        out
    }

    #[test]
    fn unit_stride_forward_pattern() {
        let mut pf = AmpmPrefetcher::default();
        // Lines 100, 101, 102 in one zone (zone 1, offsets 36, 37, 38).
        let out = drive(&mut pf, &[100, 101, 102]);
        assert_eq!(out[0], LineAddr(103));
    }

    #[test]
    fn strided_pattern_within_zone() {
        let mut pf = AmpmPrefetcher::default();
        // Stride 5 within zone 0: offsets 0, 5, 10 => predict 15.
        let out = drive(&mut pf, &[0, 5, 10]);
        assert!(out.contains(&LineAddr(15)), "{out:?}");
    }

    #[test]
    fn backward_stream_detected() {
        let mut pf = AmpmPrefetcher::default();
        let out = drive(&mut pf, &[40, 39, 38]);
        assert!(out.contains(&LineAddr(37)), "{out:?}");
    }

    #[test]
    fn cross_zone_strides_invisible() {
        // The paper's critique: AMPM only sees patterns within a zone, so
        // the stencil's 1024-line strides produce nothing.
        let mut pf = AmpmPrefetcher::default();
        let out = drive(&mut pf, &[0, 1024, 2048, 3072]);
        assert!(out.is_empty());
    }

    #[test]
    fn no_pattern_no_prefetch() {
        let mut pf = AmpmPrefetcher::default();
        let out = drive(&mut pf, &[0, 7, 23, 41]);
        assert!(out.is_empty());
    }

    #[test]
    fn degree_caps_emissions() {
        let cfg = AmpmConfig {
            degree: 1,
            ..AmpmConfig::default()
        };
        let mut pf = AmpmPrefetcher::new(cfg);
        // Dense map matches many strides; only one candidate may be issued.
        let out = drive(&mut pf, &[0, 1, 2, 3, 4, 5, 6]);
        assert!(out.len() <= 1);
    }

    #[test]
    fn zone_capacity_bounded_lru() {
        let cfg = AmpmConfig {
            zones: 4,
            ..AmpmConfig::default()
        };
        let mut pf = AmpmPrefetcher::new(cfg);
        for z in 0..100u64 {
            drive(&mut pf, &[z * 64]);
        }
        assert!(pf.zones.len() <= 4);
    }

    #[test]
    fn l1_hits_ignored() {
        let mut pf = AmpmPrefetcher::default();
        let mut out = Vec::new();
        for l in [100u64, 101, 102] {
            let mut c = miss(l);
            c.l1_hit = true;
            pf.on_access(&c, &mut out);
        }
        assert!(out.is_empty());
        assert!(pf.zones.is_empty());
    }

    #[test]
    fn storage_accounting() {
        let pf = AmpmPrefetcher::default();
        // 64 zones x (36 + 64 + 8) bits = 6912 bits ~ 0.84 KB.
        assert_eq!(pf.storage_bits(), 64 * 108);
    }
}
