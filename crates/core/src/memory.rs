//! Per-node memory feasibility analysis.
//!
//! The paper's central engineering constraint is the BlueGene/L node's
//! 512 MB: "it is often impossible to store such large graphs in the
//! main memory of a single computer", and every optimization in §2.4 and
//! §3.1 exists to keep per-processor memory `O(n/P)`. This module turns
//! the §2.4.1/§3.1 expectations into a concrete per-rank budget so a
//! configuration can be checked *before* anyone builds it:
//!
//! * edge entries: `n·k/P` vertex ids;
//! * non-empty partial edge lists (§2.4.1): `(n/C)·γ(n/R)` column ids +
//!   hash slots;
//! * unique row vertices (§2.4.1): `(n/R)·γ(n/C)` ids + hash slots +
//!   one sent-neighbors flag each (§2.4.3);
//! * owned-vertex state: `n/P` level words;
//! * message buffers: fixed chunks (§3.1) or the unbounded worst case.
//!
//! The tests verify the headline claim: the paper's 3.2-billion-vertex
//! graph on 32,768 nodes *fits* in 512 MB/node under this budget, and a
//! single node (P = 1) does not — which is why the distributed
//! algorithm exists.
//!
//! The budget is the paper's layout: global vertex ids in the lists and
//! §2.4.2 hash tables for the column and row mappings. The host graph
//! (`bgl_graph::PartialEdgeLists`) is leaner — row-local `u32` ids and
//! rank queries instead of hash tables, whose index is the only copy of
//! the ids: a span bitmap costs nothing per column id and 4 B per row
//! id, and only sets too sparse for one keep 8 B ids — and
//! `RankGraph::approx_bytes` tracks that layout, plus the registration
//! bitmap and row-block bounds, so the built graph measures below this
//! estimate (0.42 of it on the Poisson 50,000, k=10, 4×8 graph of
//! `estimate_roughly_matches_built_graph`).

use crate::theory::gamma;
use bgl_comm::{ChunkPolicy, ProcessorGrid, VERT_BYTES};
use bgl_graph::GraphSpec;
use bgl_torus::MachineConfig;
use serde::{Deserialize, Serialize};

/// Bytes per hash-map slot beyond the key itself (value + load-factor
/// slack for an open-addressing table at ~2/3 load).
const HASH_SLOT_OVERHEAD: f64 = 10.0;

/// Expected per-rank memory budget for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryEstimate {
    /// Bytes for stored edge entries (CSR rows array).
    pub edge_bytes: f64,
    /// Bytes for the non-empty-column index (§2.4.2 mapping 2).
    pub col_index_bytes: f64,
    /// Bytes for the row-vertex index and sent flags (§2.4.2 mapping 3,
    /// §2.4.3).
    pub row_index_bytes: f64,
    /// Bytes for owned-vertex state (levels, frontier slack).
    pub owned_bytes: f64,
    /// Bytes for communication buffers.
    pub buffer_bytes: f64,
    /// Bytes for the dense-frontier bitmap accumulator the union-fold
    /// switches to at high frontier density (one bit per owned vertex).
    #[serde(default)]
    pub bitmap_bytes: f64,
    /// Per-node capacity of the machine.
    pub capacity_bytes: f64,
}

impl MemoryEstimate {
    /// Total expected bytes per rank.
    pub fn total(&self) -> f64 {
        self.edge_bytes
            + self.col_index_bytes
            + self.row_index_bytes
            + self.owned_bytes
            + self.buffer_bytes
            + self.bitmap_bytes
    }

    /// Whether the configuration fits the machine's per-node memory
    /// (with a 25% headroom for the OS kernel image and slack — the CNK
    /// is tiny, but allocator fragmentation is not).
    pub fn fits(&self) -> bool {
        self.total() <= 0.75 * self.capacity_bytes
    }

    /// Utilization fraction of per-node memory.
    pub fn utilization(&self) -> f64 {
        self.total() / self.capacity_bytes
    }
}

/// Estimate the expected per-rank memory for running the 2D BFS on
/// `spec` over `grid` on `machine`, with the given buffer policy.
pub fn estimate(
    spec: &GraphSpec,
    grid: ProcessorGrid,
    machine: &MachineConfig,
    chunk: ChunkPolicy,
) -> MemoryEstimate {
    let n = spec.n as f64;
    let k = spec.avg_degree;
    let p = grid.len() as f64;
    let r = grid.rows() as f64;
    let c = grid.cols() as f64;
    let w = VERT_BYTES as f64;

    // Stored entries per rank: nk/P, stored once plus CSR offsets.
    let entries = n * k / p;
    let edge_bytes = entries * w;

    // §2.4.1: expected non-empty columns = (n/C) · γ(n/R), capped by
    // both the block-column width and the entry count.
    let cols = (n / c * gamma(n, k, n / r)).min(entries).min(n / c);
    let col_index_bytes =
        cols * (w + std::mem::size_of::<usize>() as f64) + cols * (w + HASH_SLOT_OVERHEAD);

    // §2.4.1 (transposed): unique row vertices = (n/R) · γ(n/C); each
    // carries a hash slot and a sent-neighbors flag.
    let rows = (n / r * gamma(n, k, n / c)).min(entries).min(n / r);
    let row_index_bytes = rows * w + rows * (w + HASH_SLOT_OVERHEAD) + rows;

    // Owned state: one 4-byte level per owned vertex plus frontier slack.
    let owned = n / p;
    let owned_bytes = owned * 4.0 + owned * w * 0.25;

    // Buffers: fixed chunks need capacity × (in + out); unbounded needs
    // the §3.1 worst case n/P·k on each side.
    let buffer_bytes = match chunk {
        ChunkPolicy::Fixed { capacity } => 2.0 * capacity as f64 * w,
        ChunkPolicy::Unbounded => 2.0 * (n / p * k) * w,
    };

    // Dense-frontier bitmap accumulator: the union-fold densifies its
    // per-rank accumulator to a fixed-range bitmap over the owned block,
    // one bit per owned vertex (hysteresis in the policy bounds it to
    // this span).
    let bitmap_bytes = owned / 8.0;

    MemoryEstimate {
        edge_bytes,
        col_index_bytes,
        row_index_bytes,
        owned_bytes,
        buffer_bytes,
        bitmap_bytes,
        capacity_bytes: machine.memory_per_node as f64,
    }
}

/// The largest per-rank |V| (weak-scaling knob) that fits the machine at
/// the given degree and grid shape, by bisection. Returns 0 when even a
/// single vertex per rank does not fit.
pub fn max_per_rank_vertices(
    k: f64,
    grid: ProcessorGrid,
    machine: &MachineConfig,
    chunk: ChunkPolicy,
) -> u64 {
    let p = grid.len() as u64;
    let fits = |per_rank: u64| -> bool {
        if per_rank == 0 {
            return true;
        }
        let n = per_rank * p;
        if k >= n as f64 {
            return false;
        }
        let spec = GraphSpec::poisson(n, k, 0);
        estimate(&spec, grid, machine, chunk).fits()
    };
    let mut lo = 0u64;
    let mut hi = 1u64;
    while fits(hi) && hi < (1 << 40) {
        lo = hi;
        hi *= 2;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_spec() -> GraphSpec {
        // 100000 vertices per processor on 32768 processors, k = 10:
        // the paper's largest graph (3.2768 G vertices, ~32.8 G entries).
        GraphSpec::poisson(100_000 * 32_768, 10.0, 0)
    }

    #[test]
    fn paper_headline_config_fits_bluegene() {
        let spec = paper_spec();
        let grid = ProcessorGrid::new(128, 256);
        let machine = MachineConfig::bluegene_l_half();
        let est = estimate(&spec, grid, &machine, ChunkPolicy::fixed(1 << 16));
        assert!(
            est.fits(),
            "paper's 3.2G-vertex graph must fit 512MB/node: {:.1} MB used",
            est.total() / 1e6
        );
        // And it is a substantial fraction — this was a big machine run.
        assert!(
            est.utilization() > 0.05,
            "utilization {:.3}",
            est.utilization()
        );
    }

    #[test]
    fn single_node_cannot_hold_the_paper_graph() {
        // The motivation sentence of the paper: the graph does not fit
        // one computer's memory.
        let spec = paper_spec();
        let grid = ProcessorGrid::new(1, 1);
        let machine = MachineConfig::bluegene_l_half();
        let est = estimate(&spec, grid, &machine, ChunkPolicy::fixed(1 << 16));
        assert!(!est.fits());
        assert!(est.utilization() > 100.0);
    }

    #[test]
    fn unbounded_buffers_blow_up_at_high_degree() {
        // §3.2: "all-to-all communication may not be used for very large
        // graphs with high average degree, due to the memory constraint"
        // — unbounded buffers scale with k, fixed buffers do not.
        let machine = MachineConfig::bluegene_l_half();
        let grid = ProcessorGrid::new(128, 256);
        let n = 100_000u64 * 32_768;
        let spec_k200 = GraphSpec::poisson(n / 20, 200.0, 0);
        let unbounded = estimate(&spec_k200, grid, &machine, ChunkPolicy::Unbounded);
        let fixed = estimate(&spec_k200, grid, &machine, ChunkPolicy::fixed(1 << 16));
        assert!(unbounded.buffer_bytes > 10.0 * fixed.buffer_bytes);
    }

    #[test]
    fn estimate_is_monotone_in_n() {
        let machine = MachineConfig::bluegene_l_half();
        let grid = ProcessorGrid::new(16, 16);
        let small = estimate(
            &GraphSpec::poisson(1 << 20, 10.0, 0),
            grid,
            &machine,
            ChunkPolicy::Unbounded,
        );
        let large = estimate(
            &GraphSpec::poisson(1 << 24, 10.0, 0),
            grid,
            &machine,
            ChunkPolicy::Unbounded,
        );
        assert!(large.total() > small.total());
    }

    #[test]
    fn max_per_rank_is_consistent_with_estimate() {
        let machine = MachineConfig::bluegene_l_half();
        let grid = ProcessorGrid::new(32, 32);
        let chunk = ChunkPolicy::fixed(1 << 14);
        let cap = max_per_rank_vertices(10.0, grid, &machine, chunk);
        assert!(cap > 0);
        let at_cap = GraphSpec::poisson(cap * 1024, 10.0, 0);
        assert!(estimate(&at_cap, grid, &machine, chunk).fits());
        let over = GraphSpec::poisson((cap + cap / 4) * 1024, 10.0, 0);
        assert!(!estimate(&over, grid, &machine, chunk).fits());
    }

    #[test]
    fn estimate_roughly_matches_built_graph() {
        // The analytic budget should predict the real builder's storage
        // within a small factor on a mid-size graph.
        use bgl_graph::DistGraph;
        let spec = GraphSpec::poisson(50_000, 10.0, 7);
        let grid = ProcessorGrid::new(4, 8);
        let machine = MachineConfig::bluegene_l_half();
        let est = estimate(&spec, grid, &machine, ChunkPolicy::Unbounded);
        let built = DistGraph::build(spec, grid);
        let measured = built.max_rank_bytes() as f64;
        let predicted = est.edge_bytes + est.col_index_bytes + est.row_index_bytes;
        let ratio = measured / predicted;
        assert!(
            (0.2..5.0).contains(&ratio),
            "measured {measured} vs predicted {predicted} (ratio {ratio})"
        );
    }
}
