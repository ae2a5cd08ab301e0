#![warn(missing_docs)]

//! Memory-hierarchy substrate for the CBWS reproduction.
//!
//! Implements the two-level cache hierarchy of Table II of the paper:
//! a 32 KB 4-way L1D (2-cycle, 4 MSHRs) backed by a 2 MB 8-way *inclusive*
//! L2 (30-cycle, 32 MSHRs) and a flat 300-cycle main memory. Prefetchers
//! fill into the L2, as in the paper (§VI).
//!
//! The hierarchy is *functionally timed*: each demand access is performed at
//! a caller-supplied cycle `now` and returns its latency plus a
//! classification of how prefetching affected it. Overlap between demand
//! misses is the job of the CPU timing model (`cbws-sim-cpu`); the hierarchy
//! itself tracks prefetch in-flight state against the L2 MSHR budget.
//!
//! Per-line prefetch metadata implements the 5-way timeliness/accuracy
//! taxonomy of Srinath et al. used by the paper's Fig. 13:
//! *timely*, *shorter-waiting-time*, *non-timely*, *missing*, and *wrong*.
//!
//! # Example
//!
//! ```
//! use cbws_sim_mem::{MemoryHierarchy, HierarchyConfig};
//! use cbws_trace::{Addr, LineAddr};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
//! // A cold demand miss goes all the way to memory.
//! let out = mem.demand_access(0, Addr(0x10000), false);
//! assert_eq!(out.latency, 2 + 30 + 300);
//! // Prefetch the next line, let it land, then access it: timely hit.
//! mem.enqueue_prefetch(0, Addr(0x10040).line());
//! let out = mem.demand_access(1000, Addr(0x10040), false);
//! assert_eq!(out.latency, 2 + 30);
//! ```

mod cache;
#[cfg(test)]
mod cache_oracle;
mod config;
mod dram;
mod hierarchy;
mod stats;

pub use cache::{Cache, EvictedLine, PrefetchMeta};
pub use config::{CacheConfig, HierarchyConfig};
pub use dram::{DramConfig, MainMemory, MemoryModel};
pub use hierarchy::{AccessOutcome, DemandClass, MemoryHierarchy};
pub use stats::MemStats;
