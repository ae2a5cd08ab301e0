//! Per-figure/table experiment computations (see DESIGN.md §6 for the
//! experiment index). Each `figNN_*` function turns raw [`RunRecord`]s (or
//! traces) into the paper's table/figure data rendered as a [`TextTable`].

use crate::runner::{PrefetcherKind, Simulator, SystemConfig};
use cbws_core::analysis::{collect_block_histories, DifferentialSkew};
use cbws_core::{CbwsConfig, CbwsVec};
use cbws_stats::{
    geomean, mean, GroupedBarChart, LineChart, RunRecord, StackedBarChart, TextTable,
    TimelinessBreakdown,
};
use cbws_telemetry::{detail, status, warn};
use cbws_workloads::{by_name, Scale, WorkloadSpec, ALL};
use std::collections::BTreeMap;
use std::time::Instant;

/// Formats a float with 3 significant digits for tables.
fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a percentage.
fn pct(v: f64) -> String {
    format!("{:.1}", v * 100.0)
}

/// Writes a table to `results/<name>.csv`, creating the directory if
/// needed. Errors are reported to stderr but not fatal (the text table on
/// stdout is the primary artifact).
pub fn save_csv(name: &str, table: &TextTable) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        warn!("cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match std::fs::File::create(&path) {
        Ok(f) => {
            if let Err(e) = cbws_stats::write_csv(f, &table.header(), table.csv_rows()) {
                warn!("cannot write {}: {e}", path.display());
            }
        }
        Err(e) => warn!("cannot create {}: {e}", path.display()),
    }
}

/// Runs the full (workload x prefetcher) sweep serially over AoS traces:
/// the reference the engine's records are checked against. Each trace is
/// generated inline and dropped after its runs, so one is resident at a
/// time. Progress goes to stderr.
pub fn sweep(scale: Scale, workloads: &[&'static WorkloadSpec]) -> Vec<RunRecord> {
    let sim = Simulator::new(SystemConfig::default());
    let mut records = Vec::with_capacity(workloads.len() * PrefetcherKind::ALL.len());
    let (mut generate, mut simulate) = (0.0, 0.0);
    for w in workloads {
        let step = Instant::now();
        let trace = w.generate(scale);
        generate += step.elapsed().as_secs_f64();
        status!(
            "[sweep] {} ({} instructions)",
            w.name,
            trace.stats().instructions
        );
        let step = Instant::now();
        for kind in PrefetcherKind::ALL {
            records.push(sim.run(
                w.name,
                w.group == cbws_workloads::Group::MemoryIntensive,
                &trace,
                kind,
            ));
        }
        simulate += step.elapsed().as_secs_f64();
    }
    let phases = BTreeMap::from([("generate".into(), generate), ("simulate".into(), simulate)]);
    detail!("[sweep] phase timings:\n{}", phase_report(&phases));
    records
}

/// A multi-line human-readable report of per-phase seconds (a manifest's
/// `phases`) with each phase's share of their total.
pub fn phase_report(phases: &BTreeMap<String, f64>) -> String {
    let total = phases.values().sum::<f64>().max(1e-12);
    let mut out = String::new();
    for (name, secs) in phases {
        out.push_str(&format!(
            "  {name:<24} {secs:>9.3} s  ({:>5.1}%)\n",
            secs / total * 100.0
        ));
    }
    out.push_str(&format!("  {:<24} {total:>9.3} s", "total"));
    out
}

/// Writes an SVG figure to `results/<name>.svg` (best-effort, like
/// [`save_csv`]).
pub fn save_svg(name: &str, svg: &str) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        warn!("cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.svg"));
    if let Err(e) = std::fs::write(&path, svg) {
        warn!("cannot write {}: {e}", path.display());
    }
}

/// Builds the grouped-bar SVG shared by Figs. 12/14/15: one category per
/// workload present in `records`, one bar per prefetcher.
fn per_workload_svg<F>(records: &[RunRecord], title: &str, y_label: &str, metric: F) -> String
where
    F: Fn(&RunRecord) -> f64,
{
    let workloads: Vec<&str> = ALL
        .iter()
        .filter(|w| records.iter().any(|r| r.workload == w.name))
        .map(|w| w.name)
        .collect();
    let mut chart =
        GroupedBarChart::new(title, y_label).categories(workloads.iter().map(|w| w.to_string()));
    for kind in PrefetcherKind::ALL {
        let values: Vec<f64> = workloads
            .iter()
            .map(|w| metric(get(records, w, kind.name())))
            .collect();
        chart = chart.series(kind.name(), values);
    }
    chart.render()
}

/// **Fig. 12** as an SVG grouped bar chart.
pub fn fig12_svg(records: &[RunRecord]) -> String {
    per_workload_svg(
        records,
        "Fig. 12 — L2 MPKI (lower is better)",
        "MPKI",
        RunRecord::mpki,
    )
}

/// **Fig. 14** as an SVG grouped bar chart (IPC normalized to SMS).
pub fn fig14_svg(records: &[RunRecord]) -> String {
    per_workload_svg(
        records,
        "Fig. 14 — IPC normalized to SMS (higher is better)",
        "IPC / IPC(SMS)",
        |r| r.ipc() / get(records, &r.workload, "SMS").ipc(),
    )
}

/// **Fig. 15** as an SVG grouped bar chart (perf/cost vs no-prefetch).
pub fn fig15_svg(records: &[RunRecord]) -> String {
    per_workload_svg(
        records,
        "Fig. 15 — IPC per byte read, normalized to no-prefetch",
        "perf/cost ratio",
        |r| r.perf_cost() / get(records, &r.workload, "No-Prefetch").perf_cost(),
    )
}

/// **Fig. 13** as an SVG stacked bar chart of the MI-average breakdown,
/// one stack per prefetcher (the paper's per-benchmark detail remains in
/// the CSV/table form).
pub fn fig13_svg(records: &[RunRecord]) -> String {
    let kinds = PrefetcherKind::ALL;
    let mut per_kind: Vec<TimelinessBreakdown> = Vec::new();
    for kind in kinds {
        let items: Vec<TimelinessBreakdown> = records
            .iter()
            .filter(|r| r.memory_intensive && r.prefetcher == kind.name())
            .map(RunRecord::timeliness)
            .collect();
        per_kind.push(TimelinessBreakdown::mean(items.iter()));
    }
    let mut chart = StackedBarChart::new(
        "Fig. 13 — timeliness/accuracy, MI average (% of demand L2 accesses)",
        "% of demand L2 accesses",
    )
    .categories(kinds.iter().map(|k| k.name().to_string()));
    type Seg = (&'static str, fn(&TimelinessBreakdown) -> f64);
    let segs: [Seg; 5] = [
        ("timely", |b| b.timely),
        ("shorter-waiting", |b| b.shorter_waiting_time),
        ("non-timely", |b| b.non_timely),
        ("missing", |b| b.missing),
        ("wrong", |b| b.wrong),
    ];
    for (name, f) in segs {
        chart = chart.series(name, per_kind.iter().map(|b| f(b) * 100.0).collect());
    }
    chart.render()
}

/// **Fig. 5** as an SVG line chart of the coverage curves.
pub fn fig05_svg(scale: Scale) -> String {
    const BENCHES: [&str; 6] = [
        "450.soplex-ref",
        "433.milc-su3imp",
        "stencil-default",
        "radix-simlarge",
        "sgemm-medium",
        "streamcluster-simlarge",
    ];
    let mut chart = LineChart::new(
        "Fig. 5 — iterations covered vs distinct differential vectors",
        "fraction of distinct vectors",
        "fraction of iterations",
    );
    for name in BENCHES {
        let w = by_name(name).expect("registered");
        let trace = cbws_workloads::trace_store::shared().get(w, scale);
        let h = collect_block_histories(&*trace, CbwsConfig::default().max_vector);
        let skew = DifferentialSkew::from_histories(h.values());
        let pts: Vec<(f64, f64)> = std::iter::once((0.0, 0.0))
            .chain(
                skew.cdf()
                    .into_iter()
                    .map(|p| (p.vector_fraction, p.iteration_fraction)),
            )
            .collect();
        chart = chart.series(name, pts);
    }
    chart.render()
}

/// Looks up one record of a sweep.
pub fn get<'a>(records: &'a [RunRecord], workload: &str, prefetcher: &str) -> &'a RunRecord {
    records
        .iter()
        .find(|r| r.workload == workload && r.prefetcher == prefetcher)
        .unwrap_or_else(|| panic!("no record for ({workload}, {prefetcher})"))
}

/// **Fig. 1** built from existing no-prefetch records (one per
/// memory-intensive benchmark, in suite order).
pub fn fig01_from_records(records: &[RunRecord]) -> TextTable {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "loop %".into(),
        "non-loop %".into(),
    ]);
    let mut fracs = Vec::new();
    for r in records {
        let frac = r.cpu.loop_cycle_fraction();
        fracs.push(frac);
        table.row(vec![r.workload.clone(), pct(frac), pct(1.0 - frac)]);
    }
    let avg = mean(fracs);
    table.row(vec!["average".into(), pct(avg), pct(1.0 - avg)]);
    table
}

/// **Fig. 1**: fraction of runtime spent in tight innermost loops for the
/// memory-intensive benchmarks (no-prefetch configuration). Serial; the
/// `fig01_loop_fraction` binary runs the same simulations through the
/// engine and builds the table with [`fig01_from_records`].
pub fn fig01_loop_fraction(scale: Scale) -> TextTable {
    let sim = Simulator::new(SystemConfig::default());
    let mut records = Vec::new();
    for w in cbws_workloads::mi_suite() {
        let trace = cbws_workloads::trace_store::shared().get(w, scale);
        records.push(sim.run(w.name, true, &*trace, PrefetcherKind::None));
    }
    fig01_from_records(&records)
}

/// **Figs. 3 & 4 / Table I**: the stencil CBWS access matrix and its
/// differential vectors, reconstructed from the real kernel trace.
pub fn fig03_stencil_cbws(iterations: usize) -> String {
    let trace = cbws_workloads::trace_store::shared()
        .get(by_name("stencil-default").expect("registered"), Scale::Tiny);
    let histories = collect_block_histories(&*trace, CbwsConfig::default().max_vector);
    let bh = histories.values().next().expect("stencil has one block");
    let take: Vec<&CbwsVec> = bh.instances.iter().take(iterations).collect();
    let mut out = String::new();
    out.push_str("CBWS vectors (one row per innermost-loop iteration, Fig. 3):\n");
    for (i, ws) in take.iter().enumerate() {
        out.push_str(&format!("  CBWS{i} = {ws}\n"));
    }
    out.push_str("\nCBWS differentials (element-wise deltas, Fig. 4):\n");
    for (i, w) in take.windows(2).enumerate() {
        let d = w[1].differential(w[0]);
        out.push_str(&format!("  CBWS{} - CBWS{} = {d}\n", i + 1, i));
    }
    out
}

/// **Fig. 5**: the cumulative coverage of distinct CBWS differential
/// vectors, sampled at fixed vector-fraction percentiles for the paper's
/// six featured benchmarks.
pub fn fig05_differential_skew(scale: Scale) -> TextTable {
    const BENCHES: [&str; 6] = [
        "450.soplex-ref",
        "433.milc-su3imp",
        "stencil-default",
        "radix-simlarge",
        "sgemm-medium",
        "streamcluster-simlarge",
    ];
    const SAMPLES: [f64; 6] = [0.01, 0.05, 0.10, 0.25, 0.50, 1.00];
    let mut table = TextTable::new(
        std::iter::once("benchmark (distinct vecs)".to_string())
            .chain(SAMPLES.iter().map(|s| format!("{:.0}% vecs", s * 100.0)))
            .collect(),
    );
    for name in BENCHES {
        let w = by_name(name).expect("registered");
        let trace = cbws_workloads::trace_store::shared().get(w, scale);
        let h = collect_block_histories(&*trace, CbwsConfig::default().max_vector);
        let skew = DifferentialSkew::from_histories(h.values());
        let mut row = vec![format!("{name} ({})", skew.distinct())];
        for s in SAMPLES {
            row.push(pct(skew.coverage_at(s)));
        }
        table.row(row);
    }
    table
}

/// **Table II**: the simulation parameters actually in force.
pub fn tab02_parameters(cfg: &SystemConfig) -> TextTable {
    let mut t = TextTable::new(vec!["parameter".into(), "value".into()]);
    let rows: Vec<(&str, String)> = vec![
        ("OoO width", cfg.core.width.to_string()),
        ("ROB entries", cfg.core.rob_entries.to_string()),
        ("LDQ entries", cfg.core.ldq_entries.to_string()),
        ("STQ entries", cfg.core.stq_entries.to_string()),
        ("BP entries", cfg.core.bp_entries.to_string()),
        ("BP history bits", cfg.core.bp_history_bits.to_string()),
        ("L1D size", format!("{} KB", cfg.mem.l1d.size_bytes / 1024)),
        ("L1D assoc", format!("{}-way LRU", cfg.mem.l1d.assoc)),
        ("L1D latency", format!("{} cycles", cfg.mem.l1d.latency)),
        ("L1D MSHRs", cfg.mem.l1d.mshrs.to_string()),
        (
            "L2 size",
            format!("{} MB", cfg.mem.l2.size_bytes / (1024 * 1024)),
        ),
        (
            "L2 assoc",
            format!("{}-way LRU, inclusive", cfg.mem.l2.assoc),
        ),
        ("L2 latency", format!("{} cycles", cfg.mem.l2.latency)),
        ("L2 MSHRs", cfg.mem.l2.mshrs.to_string()),
        (
            "Memory latency",
            format!("{} cycles", cfg.mem.memory_latency),
        ),
        ("Line size", "64 bytes".to_string()),
    ];
    for (k, v) in rows {
        t.row(vec![k.to_string(), v]);
    }
    t
}

/// **Table III**: storage budgets of the evaluated prefetchers.
pub fn tab03_storage(cfg: &SystemConfig) -> TextTable {
    let mut t = TextTable::new(vec!["prefetcher".into(), "bits".into(), "KB".into()]);
    for kind in PrefetcherKind::ALL {
        let bits = kind.storage_bits(cfg);
        t.row(vec![
            kind.name().to_string(),
            bits.to_string(),
            format!("{:.2}", bits as f64 / 8192.0),
        ]);
    }
    t
}

/// Orders the memory-intensive records by the paper's Fig. 12 row order and
/// appends `average-MI` / `average-ALL` rows via `avg`.
fn per_workload_table<F, A>(records: &[RunRecord], metric: F, avg: A) -> TextTable
where
    F: Fn(&RunRecord) -> f64,
    A: Fn(&[f64]) -> f64,
{
    let mut table = TextTable::new(
        std::iter::once("benchmark".to_string())
            .chain(PrefetcherKind::ALL.iter().map(|k| k.name().to_string()))
            .collect(),
    );
    let workloads: Vec<&str> = ALL
        .iter()
        .filter(|w| records.iter().any(|r| r.workload == w.name))
        .map(|w| w.name)
        .collect();
    let mut mi_cols: Vec<Vec<f64>> = vec![Vec::new(); PrefetcherKind::ALL.len()];
    let mut all_cols: Vec<Vec<f64>> = vec![Vec::new(); PrefetcherKind::ALL.len()];
    for name in &workloads {
        let mut row = vec![name.to_string()];
        for (i, kind) in PrefetcherKind::ALL.iter().enumerate() {
            let r = get(records, name, kind.name());
            let v = metric(r);
            row.push(f3(v));
            if r.memory_intensive {
                mi_cols[i].push(v);
            }
            all_cols[i].push(v);
        }
        table.row(row);
    }
    for (label, cols) in [("average-MI", &mi_cols), ("average-ALL", &all_cols)] {
        if cols.iter().all(|c| !c.is_empty()) {
            let mut row = vec![label.to_string()];
            for c in cols {
                row.push(f3(avg(c)));
            }
            table.row(row);
        }
    }
    table
}

/// **Fig. 12**: last-level-cache MPKI per benchmark and prefetcher
/// (lower is better).
pub fn fig12_mpki(records: &[RunRecord]) -> TextTable {
    per_workload_table(records, RunRecord::mpki, |v| mean(v.iter().copied()))
}

/// **Fig. 13**: the 5-way timeliness/accuracy breakdown, in percent of
/// demand L2 accesses, per benchmark and prefetcher.
pub fn fig13_timeliness(records: &[RunRecord]) -> TextTable {
    let mut table = TextTable::new(vec![
        "benchmark".into(),
        "prefetcher".into(),
        "timely %".into(),
        "shorter %".into(),
        "non-timely %".into(),
        "missing %".into(),
        "wrong %".into(),
    ]);
    let workloads: Vec<&str> = ALL
        .iter()
        .filter(|w| records.iter().any(|r| r.workload == w.name))
        .map(|w| w.name)
        .collect();
    let mut mi_acc: Vec<Vec<TimelinessBreakdown>> = vec![Vec::new(); PrefetcherKind::ALL.len()];
    let mut all_acc: Vec<Vec<TimelinessBreakdown>> = vec![Vec::new(); PrefetcherKind::ALL.len()];
    let push_row = |table: &mut TextTable, bench: &str, pf: &str, b: &TimelinessBreakdown| {
        table.row(vec![
            bench.to_string(),
            pf.to_string(),
            pct(b.timely),
            pct(b.shorter_waiting_time),
            pct(b.non_timely),
            pct(b.missing),
            pct(b.wrong),
        ]);
    };
    for name in &workloads {
        for (i, kind) in PrefetcherKind::ALL.iter().enumerate() {
            let r = get(records, name, kind.name());
            let b = r.timeliness();
            push_row(&mut table, name, kind.name(), &b);
            if r.memory_intensive {
                mi_acc[i].push(b);
            }
            all_acc[i].push(b);
        }
    }
    for (label, acc) in [("average-MI", &mi_acc), ("average-ALL", &all_acc)] {
        for (i, kind) in PrefetcherKind::ALL.iter().enumerate() {
            if !acc[i].is_empty() {
                let m = TimelinessBreakdown::mean(acc[i].iter());
                push_row(&mut table, label, kind.name(), &m);
            }
        }
    }
    table
}

/// **Fig. 14**: IPC normalized to SMS (higher is better). Averages are
/// geometric means of the ratios, as is standard for normalized IPC.
pub fn fig14_speedup(records: &[RunRecord]) -> TextTable {
    per_workload_table(
        records,
        |r| {
            let sms = get(records, &r.workload, "SMS");
            r.ipc() / sms.ipc()
        },
        |v| geomean(v.iter().copied()),
    )
}

/// **Fig. 15**: performance/cost — IPC per byte read from memory,
/// normalized to the no-prefetch configuration (higher is better).
pub fn fig15_perf_cost(records: &[RunRecord]) -> TextTable {
    per_workload_table(
        records,
        |r| {
            let base = get(records, &r.workload, "No-Prefetch");
            r.perf_cost() / base.perf_cost()
        },
        |v| geomean(v.iter().copied()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};

    fn tiny_sweep() -> Vec<RunRecord> {
        let picks: Vec<&'static WorkloadSpec> = ["stencil-default", "histo-large", "mxm-linpack"]
            .iter()
            .map(|n| by_name(n).unwrap())
            .collect();
        sweep(Scale::Tiny, &picks)
    }

    #[test]
    fn sweep_produces_full_matrix() {
        let records = tiny_sweep();
        assert_eq!(records.len(), 3 * 7);
        // Every record classification partitions.
        assert!(records.iter().all(|r| r.mem.classification_is_partition()));
    }

    #[test]
    fn fig12_table_shape() {
        let records = tiny_sweep();
        let t = fig12_mpki(&records);
        // 3 workloads + average-MI + average-ALL.
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn fig14_sms_column_is_unity() {
        let records = tiny_sweep();
        let t = fig14_speedup(&records);
        // Column 5 (SMS) must be 1.000 for every workload row.
        for row in t.csv_rows().iter().take(3) {
            assert_eq!(row[5], "1.000", "{row:?}");
        }
    }

    #[test]
    fn fig15_noprefetch_column_is_unity() {
        let records = tiny_sweep();
        let t = fig15_perf_cost(&records);
        for row in t.csv_rows().iter().take(3) {
            assert_eq!(row[1], "1.000", "{row:?}");
        }
    }

    #[test]
    fn svg_figures_render_from_a_sweep() {
        let records = tiny_sweep();
        for svg in [
            fig12_svg(&records),
            fig13_svg(&records),
            fig14_svg(&records),
            fig15_svg(&records),
        ] {
            assert!(svg.starts_with("<svg"));
            assert!(svg.contains("CBWS+SMS"));
            assert!(svg.trim_end().ends_with("</svg>"));
            assert!(!svg.contains("NaN"), "chart contains NaN coordinates");
        }
        let f5 = fig05_svg(Scale::Tiny);
        assert!(f5.contains("<polyline"));
    }

    /// The engine must reproduce the serial sweep byte-for-byte over the
    /// full paper matrix (ALL) and the extension matrix (EXTENDED), for
    /// both a single worker and an oversubscribed worker count.
    #[test]
    fn engine_sweep_is_deterministic_across_worker_counts() {
        let picks: Vec<&'static WorkloadSpec> = ["stencil-default", "histo-large", "mxm-linpack"]
            .iter()
            .map(|n| by_name(n).unwrap())
            .collect();
        for kinds in [&PrefetcherKind::ALL[..], &PrefetcherKind::EXTENDED[..]] {
            let sim = Simulator::new(SystemConfig::default());
            let mut serial = Vec::new();
            for w in &picks {
                let trace = w.generate(Scale::Tiny);
                for &kind in kinds {
                    serial.push(sim.run(
                        w.name,
                        w.group == cbws_workloads::Group::MemoryIntensive,
                        &trace,
                        kind,
                    ));
                }
            }
            for jobs in [1, 8] {
                let engine = Engine::new(EngineConfig {
                    jobs,
                    ..EngineConfig::default()
                });
                let run = engine.run(Scale::Tiny, &picks, kinds);
                assert_eq!(
                    run.records,
                    serial,
                    "engine diverged from serial ({} kinds, jobs = {jobs})",
                    kinds.len()
                );
                assert!(run
                    .records
                    .iter()
                    .all(|r| r.mem.classification_is_partition()));
            }
        }
    }

    #[test]
    fn fig03_prints_constant_differentials() {
        let s = fig03_stencil_cbws(8);
        assert!(s.contains("CBWS0"));
        assert!(
            s.contains("1024"),
            "stencil differential must be 1024 lines:\n{s}"
        );
    }

    #[test]
    fn fig05_table_has_six_benches() {
        let t = fig05_differential_skew(Scale::Tiny);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn tab02_and_tab03_render() {
        let cfg = SystemConfig::default();
        let t2 = tab02_parameters(&cfg);
        assert!(t2.to_string().contains("300 cycles"));
        let t3 = tab03_storage(&cfg);
        let s = t3.to_string();
        assert!(s.contains("CBWS+SMS"));
        assert!(s.contains("0.99") || s.contains("0.98"), "CBWS < 1KB:\n{s}");
    }

    #[test]
    fn fig01_fractions_bounded() {
        // Only shape-check on one benchmark to keep tests quick: the full
        // MI fig01 is exercised by the binary/bench.
        let sim = Simulator::new(SystemConfig::default());
        let w = by_name("stencil-default").unwrap();
        let trace = w.generate(Scale::Tiny);
        let r = sim.run(w.name, true, &trace, PrefetcherKind::None);
        let f = r.cpu.loop_cycle_fraction();
        assert!(f > 0.5 && f <= 1.0, "stencil loop fraction {f}");
    }
}
