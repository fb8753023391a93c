//! Fidelity guard: the benchmark's search path must reproduce the probe
//! counts `BENCH_dirop.json` records for R-MAT n=60000 k=16 seed 4242 on
//! 8x8 from source 0 (auto wire), top-down and adaptive.

use crate::report::Report;
use crate::search::timed_search;
use bfs_core::BfsConfig;
use bgl_comm::{ProcessorGrid, WirePolicy};
use bgl_graph::{DistGraph, GraphSpec};

/// Probe totals recorded in `BENCH_dirop.json`.
pub const TOP_DOWN_PROBES: u64 = 1_079_265;
/// Probe totals recorded in `BENCH_dirop.json`.
pub const ADAPTIVE_PROBES: u64 = 241_003;

/// Run both searches and record a mismatch as an error.
pub fn check(rep: &mut Report) {
    let graph = DistGraph::build(
        GraphSpec::rmat(60_000, 16.0, 4242),
        ProcessorGrid::new(8, 8),
    );
    let mut probes = [0u64; 2];
    let mut host_ms = 0.0;
    for (slot, config) in probes.iter_mut().zip([
        BfsConfig::paper_optimized(),
        BfsConfig::direction_optimized(),
    ]) {
        match timed_search(&graph, &config, WirePolicy::auto(), 0) {
            Ok((r, dt)) => {
                *slot = r.stats.total_probes();
                host_ms += dt * 1e3;
            }
            Err(e) => rep.tally.error(format!("fidelity search failed: {e}")),
        }
    }
    let ok = probes == [TOP_DOWN_PROBES, ADAPTIVE_PROBES];
    // The same two searches in every run: their host time shows how fast
    // the machine was, next to the run's host metrics.
    rep.line(format!(
        "fidelity: rmat n=60000 k=16 seed=4242 8x8 source 0: probes top-down {} (BENCH_dirop {}), \
         adaptive {} (BENCH_dirop {}): {}; host {host_ms:.1} ms for both",
        probes[0],
        TOP_DOWN_PROBES,
        probes[1],
        ADAPTIVE_PROBES,
        if ok { "ok" } else { "MISMATCH" }
    ));
    if !ok {
        rep.tally.error(format!(
            "fidelity: probes {probes:?} differ from BENCH_dirop.json [{TOP_DOWN_PROBES}, {ADAPTIVE_PROBES}]"
        ));
    }
}
