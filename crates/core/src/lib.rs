#![warn(missing_docs)]

//! The paper's contribution: the **code block working set (CBWS)**
//! prefetcher from *Loop-Aware Memory Prefetching Using Code Block Working
//! Sets* (Fuchs, Mannor, Weiser, Etsion — MICRO 2014).
//!
//! A CBWS is the ordered vector of distinct cache lines accessed by one
//! iteration of a compiler-annotated tight loop ([`CbwsVec`], Eq. 1).
//! Element-wise subtraction of two CBWS vectors gives a CBWS *differential*
//! ([`Differential`], Eq. 2) — a stride vector describing how the loop's
//! footprint evolves across iterations. Because the distribution of distinct
//! differentials is highly skewed (Fig. 5), a tiny (< 1 KB) hardware
//! structure can predict the complete working set of pending iterations and
//! prefetch it in lock-step.
//!
//! The crate provides:
//!
//! * [`CbwsVec`] / [`Differential`] — the formal objects;
//! * [`CbwsPredictor`] — the hardware model of Fig. 8: current-CBWS buffer,
//!   last-4-CBWS buffer, incremental multi-step differentials, history
//!   shift registers, and the 16-entry differential history table
//!   (Algorithm 1);
//! * [`CbwsPrefetcher`] — the standalone policy (prefetch only on a history
//!   table hit);
//! * [`CbwsSmsPrefetcher`] — the headline CBWS+SMS hybrid that falls back
//!   to spatial memory streaming when CBWS has no confident prediction;
//! * [`analysis`] — offline CBWS reconstruction backing Figs. 3-5.
//!
//! # Example
//!
//! ```
//! use cbws_core::{CbwsConfig, CbwsPredictor};
//! use cbws_trace::{BlockId, LineAddr};
//!
//! let mut p = CbwsPredictor::new(CbwsConfig::default());
//! // A tight loop striding 16 lines per iteration over two arrays.
//! let mut predicted = Vec::new();
//! for i in 0..12u64 {
//!     p.block_begin(BlockId(0));
//!     p.observe(LineAddr(0x1000 + i * 16));
//!     p.observe(LineAddr(0x8000 + i * 16));
//!     predicted.clear();
//!     p.block_end(BlockId(0), &mut predicted);
//! }
//! // In steady state the predictor prefetches the next iteration's
//! // complete working set.
//! assert!(predicted.contains(&LineAddr(0x1000 + 12 * 16)));
//! assert!(predicted.contains(&LineAddr(0x8000 + 12 * 16)));
//! ```

pub mod analysis;
mod hybrid;
mod multi;
#[cfg(test)]
mod oracle;
mod predictor;
mod vector;

pub use hybrid::{CbwsSmsPrefetcher, HybridStats, SmsSuppression};
pub use multi::MultiCbwsPrefetcher;
pub use predictor::{CbwsConfig, CbwsPredictor, CbwsPrefetcher, CbwsStats};
pub use vector::{CbwsVec, Differential};
