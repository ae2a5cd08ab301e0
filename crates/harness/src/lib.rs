#![warn(missing_docs)]

//! Experiment harness: wires workload traces, the core timing model, the
//! memory hierarchy, and a prefetcher into full simulations, and provides
//! one regenerator per table/figure of the paper (see the `bin/` targets
//! and [`experiments`]).
//!
//! # Example
//!
//! ```
//! use cbws_harness::{PrefetcherKind, Simulator, SystemConfig};
//! use cbws_workloads::{by_name, Scale};
//!
//! let trace = by_name("stencil-default").unwrap().generate(Scale::Tiny);
//! let sim = Simulator::new(SystemConfig::default());
//! let sms = sim.run("stencil-default", true, &trace, PrefetcherKind::Sms);
//! let hybrid = sim.run("stencil-default", true, &trace, PrefetcherKind::CbwsSms);
//! assert!(hybrid.cpu.instructions == sms.cpu.instructions);
//! ```

pub mod cli;
mod dispatch;
pub mod engine;
pub mod experiments;
mod manifest;
mod prefetched;
pub mod result_store;
mod runner;
pub mod service;

pub use dispatch::AnyPrefetcher;
pub use engine::{
    Engine, EngineConfig, EngineRun, JobObserver, JobUpdate, ResultCache, WorkerStats,
};
pub use manifest::{ManifestWorker, RunManifest};
pub use prefetched::PrefetchedMemory;
pub use runner::{component_registry, PrefetcherKind, Simulator, SystemConfig};
pub use service::{SweepOutcome, SweepSession, SweepSpec};
