//! Lane-decode throughput benchmark: times the packed trace's varint
//! operand lanes through the scalar reference decoder, the batched
//! word-at-a-time decoder, and the density-routed mix the cursor actually
//! runs (batched on ~1 B/entry lanes, scalar on wider ones), plus the
//! full cursor drain (tag dispatch + lane decode + event assembly)
//! against plain AoS slice iteration. Writes the measurements to
//! `BENCH_decode.json` at the repository root.
//!
//! ```text
//! cargo bench -p cbws-bench --bench decode_throughput -- \
//!     [--scale tiny|small|full|huge] [--iters K] [--all]
//! ```
//!
//! Exits non-zero if a cursor drain of any packed trace differs from the
//! AoS events it was packed from.

use cbws_bench::{best_of, write_snapshot, Args};
use cbws_trace::{varint, EventCursor, EventSource, PackedTrace, Trace};
use cbws_workloads::{by_name, Scale, WorkloadSpec, ALL};

/// The four varint operand lanes of a packed trace, with entry counts.
fn operand_lanes(packed: &PackedTrace) -> Vec<(&'static str, &[u8], usize)> {
    packed
        .columns()
        .into_iter()
        .filter(|(name, _)| matches!(*name, "pcs" | "addr_deltas" | "alu_counts" | "block_ids"))
        .map(|(name, lane)| {
            let entries = varint::count_entries(lane)
                .unwrap_or_else(|| panic!("column `{name}` failed validation"));
            (name, lane, entries)
        })
        .collect()
}

fn main() {
    let args = Args::parse("decode_throughput", &["--scale", "--iters", "--all"]);
    let scale = args.scale.unwrap_or(Scale::Tiny);
    let scale_name = scale.to_string();
    let iters = args.iters.unwrap_or(3);
    let workloads: Vec<&'static WorkloadSpec> = if args.all {
        ALL.iter().collect()
    } else {
        ["stencil-default", "histo-large", "mxm-linpack"]
            .iter()
            .map(|n| by_name(n).expect("registered"))
            .collect()
    };
    eprintln!(
        "[decode_throughput] scale = {scale_name}, {} workloads, best of {iters}",
        workloads.len()
    );

    let traces: Vec<Trace> = workloads.iter().map(|w| w.generate(scale)).collect();
    let packed: Vec<PackedTrace> = traces.iter().map(PackedTrace::from_trace).collect();

    // The cursor must replay exactly the events it packed before timing
    // means anything.
    for ((w, t), p) in workloads.iter().zip(&traces).zip(&packed) {
        if !EventSource::cursor(p).eq(t.iter().copied()) {
            eprintln!(
                "[decode_throughput] {}: cursor drain differs from the AoS events",
                w.name
            );
            std::process::exit(1);
        }
    }
    eprintln!("[decode_throughput] determinism: every cursor drain equals its AoS events");
    let total_events: usize = packed.iter().map(PackedTrace::event_count).sum();
    let lanes: Vec<Vec<(&'static str, &[u8], usize)>> = packed.iter().map(operand_lanes).collect();
    let total_entries: usize = lanes
        .iter()
        .flat_map(|ls| ls.iter().map(|&(_, _, n)| n))
        .sum();
    let max_entries = lanes
        .iter()
        .flat_map(|ls| ls.iter().map(|&(_, _, n)| n))
        .max()
        .unwrap_or(0);
    for name in ["pcs", "addr_deltas", "alu_counts", "block_ids"] {
        let (bytes, entries): (usize, usize) = lanes
            .iter()
            .flat_map(|ls| ls.iter().filter(|&&(n, _, _)| n == name))
            .fold((0, 0), |(b, e), &(_, lane, n)| (b + lane.len(), e + n));
        eprintln!(
            "[decode_throughput]   lane {name}: {entries} entries, {bytes} bytes \
             ({:.2} B/entry)",
            bytes as f64 / entries.max(1) as f64
        );
    }
    let mut out = vec![0u64; max_entries];
    let scalar_secs = best_of(iters, || {
        for ls in &lanes {
            for &(_, lane, n) in ls {
                let mut rest = lane;
                varint::decode_batch_scalar(&mut rest, &mut out[..n]);
                std::hint::black_box(&out[..n]);
            }
        }
    });
    let batched_secs = best_of(iters, || {
        for ls in &lanes {
            for &(_, lane, n) in ls {
                let mut rest = lane;
                varint::decode_batch(&mut rest, &mut out[..n]);
                std::hint::black_box(&out[..n]);
            }
        }
    });
    // What the cursor actually runs: the word-at-a-time kernel on dense
    // (~1 B/entry) lanes where its 8-wide fast path fires every probe,
    // the scalar loop on wider lanes (same 9/8 threshold as
    // `PackedTrace::cursor`).
    let routed_secs = best_of(iters, || {
        for ls in &lanes {
            for &(_, lane, n) in ls {
                let mut rest = lane;
                if lane.len() * 8 <= n * 9 {
                    varint::decode_batch(&mut rest, &mut out[..n]);
                } else {
                    varint::decode_batch_scalar(&mut rest, &mut out[..n]);
                }
                std::hint::black_box(&out[..n]);
            }
        }
    });
    eprintln!(
        "[decode_throughput] lanes: scalar {scalar_secs:.4} s, batched {batched_secs:.4} s, \
         routed {routed_secs:.4} s ({:.0} M entries/s routed)",
        total_entries as f64 / routed_secs / 1e6
    );

    // Full cursor drain through the replay loop's chunked interface: tag
    // dispatch + lane decode + event assembly + read-ahead buffer, i.e.
    // what the packed replay pays per event before simulation work.
    let drain_secs = best_of(iters, || {
        for p in &packed {
            let mut n = 0usize;
            let mut cursor = EventSource::cursor(p);
            while let Some(chunk) = cursor.next_batch() {
                for &ev in chunk {
                    std::hint::black_box(&ev);
                    n += 1;
                }
            }
            assert_eq!(n, p.event_count());
        }
    });
    // The AoS equivalent — plain slice iteration over the materialized
    // events — bounds what the packed drain competes against.
    let aos_scan_secs = best_of(iters, || {
        for t in &traces {
            let mut n = 0usize;
            let mut cursor = EventSource::cursor(t);
            while let Some(chunk) = cursor.next_batch() {
                for &ev in chunk {
                    std::hint::black_box(&ev);
                    n += 1;
                }
            }
            assert_eq!(n, t.len());
        }
    });
    eprintln!(
        "[decode_throughput] drain: packed {drain_secs:.4} s ({:.0} M events/s), \
         aos scan {aos_scan_secs:.4} s ({:.0} M events/s)",
        total_events as f64 / drain_secs / 1e6,
        total_events as f64 / aos_scan_secs / 1e6
    );

    let json = format!(
        "{{\n  \"bench\": \"decode_throughput\",\n  \"scale\": \"{scale_name}\",\n  \
         \"workloads\": {},\n  \"iterations\": {iters},\n  \
         \"events\": {total_events},\n  \"lane_entries\": {total_entries},\n  \
         \"decode_scalar_seconds\": {scalar_secs:.6},\n  \
         \"decode_batched_seconds\": {batched_secs:.6},\n  \
         \"decode_routed_seconds\": {routed_secs:.6},\n  \
         \"decode_routed_speedup\": {:.3},\n  \
         \"decode_mentries_per_sec\": {:.1},\n  \
         \"drain_seconds\": {drain_secs:.6},\n  \
         \"drain_mevents_per_sec\": {:.1},\n  \
         \"aos_scan_seconds\": {aos_scan_secs:.6},\n  \"identical_events\": true\n}}\n",
        workloads.len(),
        scalar_secs / routed_secs,
        total_entries as f64 / routed_secs / 1e6,
        total_events as f64 / drain_secs / 1e6
    );
    write_snapshot("decode_throughput", "BENCH_decode.json", &json);
}
