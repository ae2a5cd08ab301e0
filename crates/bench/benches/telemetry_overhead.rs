//! Measures the cost of the telemetry layer, at two granularities:
//!
//! * primitive ops — `count`/`observe` with the sink disabled
//!   (the common case: one branch on an `Option`) and enabled;
//! * end-to-end — a full `Simulator::run` of a CBWS+SMS configuration
//!   with telemetry disabled and enabled.
//!
//! The disabled primitives are the interesting numbers: they are the entire
//! per-hook cost every ordinary (non-traced) run pays for the
//! instrumentation, and they must stay negligible (sub-ns per hook, <2% of
//! a reference simulation).

use cbws_harness::{PrefetcherKind, Simulator, SystemConfig};
use cbws_telemetry::Telemetry;
use cbws_workloads::{by_name, Scale};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn primitive_ops(c: &mut Criterion) {
    let disabled = Telemetry::disabled();
    c.bench_function("telemetry/count_disabled", |b| {
        b.iter(|| disabled.count(black_box("l2.prefetch.issued"), 1))
    });
    c.bench_function("telemetry/observe_disabled", |b| {
        b.iter(|| disabled.observe(black_box("l2.demand.latency"), black_box(300)))
    });

    let enabled = Telemetry::enabled_default();
    c.bench_function("telemetry/count_enabled", |b| {
        b.iter(|| enabled.count(black_box("l2.prefetch.issued"), 1))
    });
    c.bench_function("telemetry/observe_enabled", |b| {
        b.iter(|| enabled.observe(black_box("l2.demand.latency"), black_box(300)))
    });
}

fn end_to_end(c: &mut Criterion) {
    let trace = by_name("stencil-default").unwrap().generate(Scale::Tiny);
    let cfg = SystemConfig::default();

    let sim = Simulator::new(cfg);
    c.bench_function("sim/telemetry_disabled", |b| {
        b.iter(|| black_box(sim.run("stencil-default", true, &trace, PrefetcherKind::CbwsSms)))
    });

    let sim = Simulator::with_telemetry(cfg, Telemetry::enabled_default());
    c.bench_function("sim/telemetry_enabled", |b| {
        b.iter(|| black_box(sim.run("stencil-default", true, &trace, PrefetcherKind::CbwsSms)))
    });
}

criterion_group!(benches, primitive_ops, end_to_end);
criterion_main!(benches);
