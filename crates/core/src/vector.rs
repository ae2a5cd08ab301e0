//! CBWS vectors and CBWS differentials (paper §IV-B, Eq. 1 and Eq. 2).

use cbws_trace::LineAddr;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A code block working set: the time-ordered set of *unique* cache-line
/// addresses accessed by one dynamic instance of an annotated code block
/// (Eq. 1 of the paper).
///
/// Hardware bounds the vector at a configurable capacity (16 in the paper;
/// §IV-A reports that 16 lines map the complete working set of over 98% of
/// dynamic blocks). Accesses beyond the capacity are dropped from tracing,
/// which is exactly what makes the paper's `bzip2` result degrade.
///
/// ```
/// use cbws_core::CbwsVec;
/// use cbws_trace::LineAddr;
///
/// let mut ws = CbwsVec::new(16);
/// assert!(ws.observe(LineAddr(0x120)));
/// assert!(!ws.observe(LineAddr(0x120))); // duplicate: not re-added
/// assert!(ws.observe(LineAddr(0x3F9)));
/// assert_eq!(ws.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CbwsVec {
    lines: Vec<LineAddr>,
    capacity: usize,
    /// Accesses observed after the vector filled (tracing overflow).
    overflowed: u64,
}

impl CbwsVec {
    /// Creates an empty working set bounded at `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a CBWS must hold at least one line");
        CbwsVec {
            lines: Vec::with_capacity(capacity),
            capacity,
            overflowed: 0,
        }
    }

    /// Observes an access to `line`. Returns `true` if the line was newly
    /// appended (first access within the block, with room left).
    pub fn observe(&mut self, line: LineAddr) -> bool {
        if self.lines.contains(&line) {
            return false;
        }
        if self.lines.len() >= self.capacity {
            self.overflowed += 1;
            return false;
        }
        self.lines.push(line);
        true
    }

    /// Number of distinct lines captured.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether no lines have been captured.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct-line observations dropped due to capacity.
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// The `idx`-th line in access order.
    pub fn get(&self, idx: usize) -> Option<LineAddr> {
        self.lines.get(idx).copied()
    }

    /// Lines in access order.
    pub fn lines(&self) -> &[LineAddr] {
        &self.lines
    }

    /// Iterates over the lines in access order.
    pub fn iter(&self) -> std::slice::Iter<'_, LineAddr> {
        self.lines.iter()
    }

    /// Clears the vector for a new block instance (`BLOCK_BEGIN`).
    pub fn clear(&mut self) {
        self.lines.clear();
        self.overflowed = 0;
    }

    /// Computes the CBWS differential `Δ = self − prev` (Eq. 2): the
    /// element-wise line-address subtraction, aligned to the shorter vector
    /// (branch divergence may change working-set size across iterations,
    /// §IV-B).
    pub fn differential(&self, prev: &CbwsVec) -> Differential {
        let n = self.lines.len().min(prev.lines.len());
        Differential::from_strides((0..n).map(|i| self.lines[i].delta(prev.lines[i])))
    }
}

impl fmt::Display for CbwsVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.lines.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{:#x}", l.0)?;
        }
        write!(f, ")")
    }
}

/// A CBWS differential: the stride vector between two CBWS instances of the
/// same static block (Eq. 2).
///
/// Hardware stores each element in 16 bits ("address strides are typically
/// small", §V-A); larger strides truncate, exactly as 16-bit hardware
/// registers would, making such patterns unpredictable rather than erroring.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Differential {
    strides: Vec<i16>,
    /// Set when any source stride did not fit in 16 bits.
    truncated: bool,
}

impl Differential {
    /// Builds a differential from full-width strides, truncating each to
    /// 16 bits as the hardware registers do.
    pub fn from_strides<I: IntoIterator<Item = i64>>(strides: I) -> Self {
        let mut truncated = false;
        let strides = strides
            .into_iter()
            .map(|s| {
                let t = s as i16;
                truncated |= i64::from(t) != s;
                t
            })
            .collect();
        Differential { strides, truncated }
    }

    /// Number of stride elements.
    pub fn len(&self) -> usize {
        self.strides.len()
    }

    /// Whether the differential has no elements.
    pub fn is_empty(&self) -> bool {
        self.strides.is_empty()
    }

    /// The stride elements.
    pub fn strides(&self) -> &[i16] {
        &self.strides
    }

    /// Whether any stride was truncated to fit 16 bits.
    pub fn was_truncated(&self) -> bool {
        self.truncated
    }

    /// The 12-bit bit-select hash stored in the history shift registers
    /// (§V-A: "differentials are represented using 12 bits extracted from
    /// the original differential").
    pub fn hash12(&self) -> u16 {
        hash12(self.strides.iter().copied())
    }

    /// Predicts a future working set by element-wise vector addition onto
    /// `base` (Fig. 11 step 4), appending it to `out`. The result is
    /// aligned to the shorter of the two vectors.
    pub fn apply(&self, base: &CbwsVec, out: &mut Vec<LineAddr>) {
        out.extend(
            self.strides
                .iter()
                .zip(base.iter())
                .map(|(&s, &b)| b.offset(i64::from(s))),
        );
    }

    /// Whether all strides are zero (the next iteration reuses the same
    /// working set — nothing new to prefetch).
    pub fn is_zero(&self) -> bool {
        self.strides.iter().all(|&s| s == 0)
    }
}

/// The 12-bit history hash of a differential given as its 16-bit strides
/// ([`Differential::hash12`]).
pub(crate) fn hash12(strides: impl Iterator<Item = i16>) -> u16 {
    let mut h: u32 = 0x9E5;
    for (i, s) in strides.enumerate() {
        let v = s as u16 as u32;
        h ^= v.rotate_left((i as u32 * 5) % 16);
        h = h.wrapping_mul(0x85);
    }
    (h ^ (h >> 12)) as u16 & 0xFFF
}

impl fmt::Display for Differential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, s) in self.strides.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(lines: &[u64]) -> CbwsVec {
        let mut v = CbwsVec::new(16);
        for &l in lines {
            v.observe(LineAddr(l));
        }
        v
    }

    #[test]
    fn uniqueness_invariant() {
        let mut v = CbwsVec::new(16);
        assert!(v.observe(LineAddr(1)));
        assert!(!v.observe(LineAddr(1)));
        assert!(v.observe(LineAddr(2)));
        assert_eq!(v.lines(), &[LineAddr(1), LineAddr(2)]);
    }

    #[test]
    fn capacity_enforced_with_overflow_count() {
        let mut v = CbwsVec::new(2);
        v.observe(LineAddr(1));
        v.observe(LineAddr(2));
        assert!(!v.observe(LineAddr(3)));
        assert_eq!(v.len(), 2);
        assert_eq!(v.overflowed(), 1);
    }

    #[test]
    fn stencil_differential_is_constant_1024() {
        // Fig. 3 / Fig. 4 of the paper: consecutive Stencil iterations.
        let c0 = ws(&[0x80, 0x81, 6515, 4467, 5499, 5483, 5491]);
        let c1 = ws(&[0x80, 0x81, 7539, 5491, 6523, 6507, 6515]);
        let d = c1.differential(&c0);
        assert_eq!(d.strides(), &[0, 0, 1024, 1024, 1024, 1024, 1024]);
        assert!(!d.was_truncated());
    }

    #[test]
    fn differential_aligns_to_shorter() {
        let a = ws(&[10, 20, 30]);
        let b = ws(&[11, 22]);
        let d = b.differential(&a);
        assert_eq!(d.strides(), &[1, 2]);
    }

    #[test]
    fn differential_antisymmetry() {
        let a = ws(&[100, 200, 300]);
        let b = ws(&[104, 196, 300]);
        let dab = b.differential(&a);
        let dba = a.differential(&b);
        let neg: Vec<i16> = dba.strides().iter().map(|s| -s).collect();
        assert_eq!(dab.strides(), &neg[..]);
    }

    #[test]
    fn apply_recovers_next_ws() {
        let c0 = ws(&[0x80, 0x81, 6515, 4467, 5499, 5483, 5491]);
        let c1 = ws(&[0x80, 0x81, 7539, 5491, 6523, 6507, 6515]);
        let d = c1.differential(&c0);
        let mut predicted = Vec::new();
        d.apply(&c1, &mut predicted);
        // CBWS2 from Fig. 3.
        let expect: Vec<LineAddr> = [0x80u64, 0x81, 8563, 6515, 7547, 7531, 7539]
            .map(LineAddr)
            .to_vec();
        assert_eq!(predicted, expect);
    }

    #[test]
    fn truncation_flagged_and_wraps() {
        let a = ws(&[0]);
        let b = ws(&[1 << 20]);
        let d = b.differential(&a);
        assert!(d.was_truncated());
        assert_eq!(d.strides().len(), 1);
        // The wrapped 16-bit value, as hardware would store.
        assert_eq!(d.strides()[0], (1i64 << 20) as i16);
    }

    #[test]
    fn hash12_in_range_and_discriminates() {
        let d1 = Differential::from_strides([0, 0, 1024, 1024]);
        let d2 = Differential::from_strides([0, 0, 1024, 1025]);
        assert!(d1.hash12() <= 0xFFF);
        assert_ne!(d1.hash12(), d2.hash12(), "nearby vectors should hash apart");
        assert_eq!(d1.hash12(), d1.clone().hash12(), "hash is deterministic");
    }

    #[test]
    fn zero_differential_detected() {
        let a = ws(&[1, 2, 3]);
        let d = a.differential(&a);
        assert!(d.is_zero());
        assert!(!Differential::from_strides([0, 1].into_iter()).is_zero());
    }

    #[test]
    fn clear_resets() {
        let mut v = ws(&[1, 2, 3]);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.overflowed(), 0);
        assert!(v.observe(LineAddr(1)));
    }

    #[test]
    fn display_formats() {
        let v = ws(&[0x80, 0x81]);
        assert_eq!(v.to_string(), "(0x80, 0x81)");
        let d = Differential::from_strides([0, -4]);
        assert_eq!(d.to_string(), "(0, -4)");
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_capacity_rejected() {
        CbwsVec::new(0);
    }

    #[test]
    fn empty_differential_from_empty_vectors() {
        let a = CbwsVec::new(4);
        let b = CbwsVec::new(4);
        assert!(b.differential(&a).is_empty());
    }
}
