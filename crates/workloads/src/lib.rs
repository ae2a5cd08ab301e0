#![warn(missing_docs)]

//! Synthetic benchmark kernels reproducing the memory behaviour of the 30
//! workloads evaluated by the CBWS paper (SPEC CPU2006, PARSEC, SPLASH,
//! Rodinia, Parboil; Table IV and Fig. 14).
//!
//! We do not ship the benchmark binaries or their inputs. Instead, each
//! kernel re-implements the *access-pattern class* of the benchmark's
//! dominant inner loops — the property the paper's per-benchmark results
//! hinge on (see DESIGN.md §2 for the substitution argument):
//!
//! * affine multi-stream loops (stencil, sgemm, milc, mri-q, nw, lu_ncb) →
//!   CBWS differentials are constant and prediction succeeds;
//! * data-dependent indexing (histo, mcf, soplex, lbm) → differentials are
//!   unpredictable and CBWS must stay silent / fall back;
//! * per-iteration working sets larger than 16 lines (bzip2) → the CBWS
//!   vector overflows;
//! * large differential alphabets (fft, streamcluster) → the 16-entry
//!   history table thrashes.
//!
//! Kernels are deterministic (fixed RNG seeds) and are generated at three
//! [`Scale`]s so tests, benches, and the full experiments can share them.
//!
//! # Example
//!
//! ```
//! use cbws_workloads::{by_name, Scale};
//!
//! let spec = by_name("stencil-default").expect("registered");
//! let trace = spec.generate(Scale::Tiny);
//! assert!(trace.stats().dynamic_blocks > 0);
//! ```

pub mod dsl;
mod kernels;
pub mod source_hash;
pub mod trace_cache;
pub mod trace_store;

use cbws_trace::{Trace, TraceBuilder};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Trace size knob shared by every kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// A few thousand instructions — unit tests.
    Tiny,
    /// Around 10⁵ instructions — benches and integration tests.
    Small,
    /// Around 10⁶ instructions — the paper-reproduction experiments
    /// (a scaled-down stand-in for the paper's 10⁹-instruction windows).
    Full,
    /// Roughly 12× [`Scale::Full`] (~10⁷ instructions) — streaming-replay
    /// territory. Traces at this scale are generated frame by frame
    /// through [`WorkloadSpec::emit`] and replayed from disk; nothing
    /// should ever materialize one as a full in-memory `Trace`.
    Huge,
}

impl Scale {
    /// Picks the per-scale value of a size parameter. `Huge` derives from
    /// the `Full` value so every pick-style kernel scales up uniformly.
    pub(crate) fn pick(self, tiny: u64, small: u64, full: u64) -> u64 {
        match self {
            Scale::Tiny => tiny,
            Scale::Small => small,
            Scale::Full => full,
            Scale::Huge => full.saturating_mul(12),
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scale::Tiny => f.write_str("tiny"),
            Scale::Small => f.write_str("small"),
            Scale::Full => f.write_str("full"),
            Scale::Huge => f.write_str("huge"),
        }
    }
}

/// Benchmark suite of origin (for reporting only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// SPEC CPU2006.
    Spec2006,
    /// Parboil.
    Parboil,
    /// PARSEC-hosted SPLASH-2.
    Splash,
    /// PARSEC.
    Parsec,
    /// Rodinia.
    Rodinia,
    /// The `*-linpack` micro-suite of Fig. 14.
    Linpack,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Suite::Spec2006 => f.write_str("SPEC2006"),
            Suite::Parboil => f.write_str("Parboil"),
            Suite::Splash => f.write_str("SPLASH"),
            Suite::Parsec => f.write_str("PARSEC"),
            Suite::Rodinia => f.write_str("Rodinia"),
            Suite::Linpack => f.write_str("Linpack"),
        }
    }
}

/// The paper's MPKI-based partition of the 30 benchmarks (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Group {
    /// The 15 highest-MPKI benchmarks (Table IV).
    MemoryIntensive,
    /// The 15 low-MPKI benchmarks.
    LowMpki,
}

/// A registered workload kernel.
#[derive(Clone, Copy)]
pub struct WorkloadSpec {
    /// Name, matching the paper's figure labels (e.g. `"429.mcf-ref"`).
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// MPKI group.
    pub group: Group,
    /// One-line description of the modelled access pattern.
    pub pattern: &'static str,
    emit: fn(Scale, &mut TraceBuilder),
    kernel_fn: &'static str,
}

impl WorkloadSpec {
    /// Emits the kernel's events at the given scale into `builder`.
    ///
    /// This is the primitive generation interface: the builder may be a
    /// plain in-memory one (then [`generate`](WorkloadSpec::generate) is
    /// the convenience wrapper) or a [`TraceBuilder::streaming`] sink that
    /// flushes fixed-size chunks to disk as they complete, which is how
    /// [`Scale::Huge`] traces are written without ever being resident.
    pub fn emit(&self, scale: Scale, builder: &mut TraceBuilder) {
        (self.emit)(scale, builder)
    }

    /// Generates the kernel's trace at the given scale, fully in memory.
    pub fn generate(&self, scale: Scale) -> Trace {
        let mut builder = TraceBuilder::new();
        (self.emit)(scale, &mut builder);
        builder.finish()
    }

    /// The bare name of the kernel function implementing this workload
    /// (e.g. `"bzip2"`), used by the trace store to hash only the kernel
    /// source a workload actually depends on.
    pub fn kernel_fn(&self) -> &'static str {
        self.kernel_fn
            .rsplit(':')
            .next()
            .map_or(self.kernel_fn, str::trim)
    }
}

impl fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .field("group", &self.group)
            .field("pattern", &self.pattern)
            .finish()
    }
}

macro_rules! spec {
    ($name:literal, $suite:ident, $group:ident, $pattern:literal, $f:path) => {
        WorkloadSpec {
            name: $name,
            suite: Suite::$suite,
            group: Group::$group,
            pattern: $pattern,
            emit: $f,
            kernel_fn: stringify!($f),
        }
    };
}

/// Every registered workload, memory-intensive group first, in the order of
/// the paper's Fig. 14.
pub const ALL: &[WorkloadSpec] = &[
    // --- Memory-intensive group (Table IV) ---
    spec!(
        "401.bzip2-source",
        Spec2006,
        MemoryIntensive,
        "large per-iteration buffer copies (hundreds of lines, overflows the 16-line CBWS)",
        kernels::spec::bzip2
    ),
    spec!(
        "histo-large",
        Parboil,
        MemoryIntensive,
        "data-dependent histogram increments over a multi-MB table (Fig. 16)",
        kernels::parboil::histo
    ),
    spec!(
        "429.mcf-ref",
        Spec2006,
        MemoryIntensive,
        "arc-array streaming with pointer-chased node dereferences",
        kernels::spec::mcf
    ),
    spec!(
        "lbm-long",
        Parboil,
        MemoryIntensive,
        "lattice propagation with obstacle-dependent store divergence",
        kernels::parboil::lbm
    ),
    spec!(
        "mri-q-large",
        Parboil,
        MemoryIntensive,
        "five parallel unit-stride FMA streams over k-space samples",
        kernels::parboil::mri_q
    ),
    spec!(
        "stencil-default",
        Parboil,
        MemoryIntensive,
        "3-D Jacobi: seven 1024-line-strided streams per innermost iteration (Fig. 2-4)",
        kernels::parboil::stencil
    ),
    spec!(
        "fft-simlarge",
        Splash,
        MemoryIntensive,
        "butterfly stages with per-stage stride alphabets plus bit-reversal scatter",
        kernels::splash::fft
    ),
    spec!(
        "nw",
        Rodinia,
        MemoryIntensive,
        "wavefront DP over a 2-D score matrix (three-neighbour reads, one write)",
        kernels::rodinia::nw
    ),
    spec!(
        "462.libquantum-ref",
        Spec2006,
        MemoryIntensive,
        "single long unit-stride gate sweep with data-dependent conditional flips",
        kernels::spec::libquantum
    ),
    spec!(
        "450.soplex-ref",
        Spec2006,
        MemoryIntensive,
        "sparse column updates with branch-divergent iteration bodies",
        kernels::spec::soplex
    ),
    spec!(
        "lu-ncb-simlarge",
        Splash,
        MemoryIntensive,
        "blocked LU over non-contiguous blocks: constant in-block strides, jumpy bases",
        kernels::splash::lu_ncb
    ),
    spec!(
        "radix-simlarge",
        Splash,
        MemoryIntensive,
        "digit histogram + permutation passes over large key arrays",
        kernels::splash::radix
    ),
    spec!(
        "433.milc-su3imp",
        Spec2006,
        MemoryIntensive,
        "SU(3) field loops: three 2-line-strided matrix streams per site",
        kernels::spec::milc
    ),
    spec!(
        "streamcluster-simlarge",
        Parsec,
        MemoryIntensive,
        "vectorized distance loops over randomly-ordered point pairs",
        kernels::parsec::streamcluster
    ),
    spec!(
        "sgemm-medium",
        Parboil,
        MemoryIntensive,
        "triple-loop GEMM: unit-stride A with 64-line-strided B column walks",
        kernels::parboil::sgemm
    ),
    // --- Low-MPKI group (Fig. 14, bottom panel) ---
    spec!(
        "458.sjeng-ref",
        Spec2006,
        LowMpki,
        "random probes of a cache-resident transposition table with noisy branches",
        kernels::spec::sjeng
    ),
    spec!(
        "471.omnetpp-omnetpp",
        Spec2006,
        LowMpki,
        "event-heap sift: short pointer-chased chains in a ~1 MB heap",
        kernels::spec::omnetpp
    ),
    spec!(
        "bfs-1m",
        Rodinia,
        LowMpki,
        "frontier traversal with data-dependent visited-flag probes",
        kernels::rodinia::bfs
    ),
    spec!(
        "canneal-simlarge",
        Parsec,
        LowMpki,
        "random element swaps in a mostly-L2-resident netlist",
        kernels::parsec::canneal
    ),
    spec!(
        "cholesky-tk29",
        Splash,
        LowMpki,
        "supernodal panel updates with medium strides in a resident factor",
        kernels::splash::cholesky
    ),
    spec!(
        "freqmine-simlarge",
        Parsec,
        LowMpki,
        "FP-tree walks: short dependent chains plus counter updates",
        kernels::parsec::freqmine
    ),
    spec!(
        "md-linpack",
        Linpack,
        LowMpki,
        "neighbour-list gathers around each particle (spatially local)",
        kernels::linpack::md
    ),
    spec!(
        "mvx-linpack",
        Linpack,
        LowMpki,
        "matrix-vector product: streaming rows against a resident vector",
        kernels::linpack::mvx
    ),
    spec!(
        "mxm-linpack",
        Linpack,
        LowMpki,
        "small cache-resident matrix multiply",
        kernels::linpack::mxm
    ),
    spec!(
        "ocean-cp-simlarge",
        Splash,
        LowMpki,
        "5-point stencil relaxation on a resident grid",
        kernels::splash::ocean_cp
    ),
    spec!(
        "sad-base-large",
        Parboil,
        LowMpki,
        "16x16 block matching between two resident frames",
        kernels::parboil::sad
    ),
    spec!(
        "spmv-large",
        Parboil,
        LowMpki,
        "CSR SpMV: unit-stride rows with gathered x[col[p]] accesses",
        kernels::parboil::spmv
    ),
    spec!(
        "water-spatial-native",
        Splash,
        LowMpki,
        "cell-list molecular interactions with semi-local gathers",
        kernels::splash::water_spatial
    ),
    spec!(
        "backprop",
        Rodinia,
        LowMpki,
        "layer weight sweeps against resident activations",
        kernels::rodinia::backprop
    ),
    spec!(
        "srad-v1",
        Rodinia,
        LowMpki,
        "4-neighbour image stencil over a ~1 MB image",
        kernels::rodinia::srad_v1
    ),
];

/// The 15 memory-intensive workloads (Table IV), in Fig. 12/14 order.
pub fn mi_suite() -> Vec<&'static WorkloadSpec> {
    ALL.iter()
        .filter(|w| w.group == Group::MemoryIntensive)
        .collect()
}

/// The 15 low-MPKI workloads, in Fig. 14 order.
pub fn low_mpki_suite() -> Vec<&'static WorkloadSpec> {
    ALL.iter().filter(|w| w.group == Group::LowMpki).collect()
}

/// Looks up a workload by its figure label.
pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_30_workloads_in_two_groups_of_15() {
        assert_eq!(ALL.len(), 30);
        assert_eq!(mi_suite().len(), 15);
        assert_eq!(low_mpki_suite().len(), 15);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = ALL.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 30);
    }

    #[test]
    fn by_name_finds_table4_entries() {
        for n in [
            "429.mcf-ref",
            "stencil-default",
            "sgemm-medium",
            "nw",
            "radix-simlarge",
        ] {
            assert!(by_name(n).is_some(), "{n} missing");
        }
        assert!(by_name("not-a-benchmark").is_none());
    }

    #[test]
    fn every_workload_generates_annotated_tiny_traces() {
        for w in ALL {
            let t = w.generate(Scale::Tiny);
            let s = t.stats();
            assert!(
                s.instructions > 500,
                "{}: too few instructions ({})",
                w.name,
                s.instructions
            );
            assert!(s.dynamic_blocks > 0, "{}: no annotated blocks", w.name);
            assert!(s.mem_accesses > 0, "{}: no memory accesses", w.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for w in ALL.iter().take(6) {
            let a = w.generate(Scale::Tiny);
            let b = w.generate(Scale::Tiny);
            assert_eq!(a, b, "{} not deterministic", w.name);
        }
    }

    #[test]
    fn scales_are_ordered() {
        for name in ["429.mcf-ref", "stencil-default", "spmv-large"] {
            let w = by_name(name).unwrap();
            let t = w.generate(Scale::Tiny).stats().instructions;
            let s = w.generate(Scale::Small).stats().instructions;
            let f = w.generate(Scale::Full).stats().instructions;
            assert!(
                t < s && s < f,
                "{name}: scales not increasing ({t}, {s}, {f})"
            );
        }
    }

    #[test]
    fn huge_scale_extends_the_ladder() {
        assert_eq!(Scale::Huge.pick(1, 2, 3), 36);
        assert_eq!(Scale::Huge.to_string(), "huge");
        assert_eq!(Scale::Huge.pick(0, 0, u64::MAX), u64::MAX);
    }

    #[test]
    fn kernel_fn_names_are_bare_identifiers() {
        for w in ALL {
            let f = w.kernel_fn();
            assert!(
                !f.is_empty() && f.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{}: kernel_fn {f:?} is not a bare identifier",
                w.name
            );
        }
    }

    #[test]
    fn streamed_emission_matches_in_memory_generation() {
        use cbws_trace::TraceBuilder;
        // The streaming writer path (frames encoded as events arrive) must
        // decode to exactly the event sequence the in-memory path
        // materializes.
        for w in ALL.iter().take(4) {
            let whole = w.generate(Scale::Tiny);
            let streamed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let sink = std::sync::Arc::clone(&streamed);
            let mut tb = TraceBuilder::streaming(1000, move |frame: cbws_trace::PackedTrace| {
                sink.lock().unwrap().extend(frame.cursor())
            });
            w.emit(Scale::Tiny, &mut tb);
            let total = tb.try_finish_stream().unwrap();
            assert_eq!(total as usize, whole.len(), "{}", w.name);
            assert_eq!(
                streamed.lock().unwrap().as_slice(),
                whole.events(),
                "{} streamed emission diverged",
                w.name
            );
        }
    }

    #[test]
    fn mi_group_spends_most_instructions_in_blocks() {
        // The trace-level analogue of Fig. 1: tight loops dominate.
        for w in mi_suite() {
            let frac = w
                .generate(Scale::Small)
                .stats()
                .block_instruction_fraction();
            assert!(frac > 0.4, "{}: block fraction too low ({frac:.2})", w.name);
        }
    }
}
