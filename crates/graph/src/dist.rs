//! The fully built distributed graph.
//!
//! [`DistGraph::build`] routes every adjacency entry to the rank that
//! stores it under the paper's 2D partition, builds each rank's
//! [`PartialEdgeLists`], and derives the **registration bitmap**: for
//! each grid row of the rank's processor-column, one bit per owned
//! vertex, set iff that row's peer holds a non-empty partial edge list
//! for it. The paper (§2.2) relies on this information ("each processor
//! needs to store information about the edge lists of other processors
//! in its processor-column. The storage for this information is
//! proportional to the number of vertices owned by a processor") to
//! send frontier vertices only where they are needed, which is what
//! bounds expand message lengths (§3.1). Laid out row-major, a row's
//! words ANDed with a frontier bitmap over the owned range are that
//! row's expand list.
//!
//! In a real distributed system the bitmap is produced by a
//! construction-time registration exchange; the builder performs that
//! exchange directly since all ranks share the address space.

use crate::csr::PartialEdgeLists;
use crate::gen;
use crate::partition::{EntryRouter, TwoDPartition};
use crate::spec::{GraphFamily, GraphSpec};
use crate::Vertex;
use bgl_comm::ProcessorGrid;
use rayon::prelude::*;

/// One rank's share of the distributed graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankGraph {
    /// The rank id (row-major in the grid).
    pub rank: usize,
    /// Vertices owned by this rank (contiguous block row).
    pub owned: std::ops::Range<Vertex>,
    /// The partial edge lists this rank stores.
    pub edges: PartialEdgeLists,
    /// `row_blocks[m]..row_blocks[m+1]` are the row-local ids whose
    /// vertices lie in block column `m`, i.e. are owned by grid column
    /// `m` of this rank's processor-row. Block columns are contiguous
    /// and ascending in the vertex id, so the `C` ranges tile the
    /// row-local ids in order.
    row_blocks: Vec<u32>,
    /// The §2.2 registration table as a row-major bitmap:
    /// `owned_len.div_ceil(64)` words per grid row `i` of this rank's
    /// processor-column, where bit `off` of row `i` is set iff peer
    /// `(i, j)` stores a non-empty partial edge list for the owned
    /// vertex at offset `off`.
    registration: Vec<u64>,
}

impl RankGraph {
    /// Assemble a rank's share from its edge lists and its registration
    /// bitmap (see [`RankGraph::registration_row`]).
    fn new(
        rank: usize,
        partition: &TwoDPartition,
        edges: PartialEdgeLists,
        registration: Vec<u64>,
    ) -> Self {
        let owned = partition.owned_range(rank);
        let row_ids = edges.row_ids();
        let row_blocks = (0..=partition.cols())
            .map(|m| {
                let start = partition.block_row_start(m * partition.rows());
                row_ids.partition_point(|&u| u < start) as u32
            })
            .collect();
        Self {
            rank,
            owned,
            edges,
            row_blocks,
            registration,
        }
    }

    /// Grid row `i`'s registration words: bit `off` (word `off / 64`,
    /// bit `off % 64`) is set iff peer `(i, j)` of this rank's
    /// processor-column holds a non-empty partial edge list for the
    /// owned vertex at offset `off` from `owned.start`. Bits at and
    /// past `owned_len` are clear.
    #[inline]
    pub fn registration_row(&self, i: usize) -> &[u64] {
        let words = self.owned_len().div_ceil(64);
        &self.registration[i * words..(i + 1) * words]
    }

    /// The `C + 1` bounds that split the row-local ids by block column:
    /// rows `row_blocks()[m]..row_blocks()[m+1]` are owned in grid
    /// column `m` of this rank's processor-row (the fold destination).
    pub fn row_blocks(&self) -> &[u32] {
        &self.row_blocks
    }

    /// The block column of row-local id `rl`: the grid column, within
    /// this rank's processor-row, of the rank owning its vertex.
    pub fn row_block_of(&self, rl: u32) -> usize {
        self.row_blocks.partition_point(|&b| b <= rl) - 1
    }

    /// Number of owned vertices.
    pub fn owned_len(&self) -> usize {
        (self.owned.end - self.owned.start) as usize
    }

    /// Approximate resident bytes of the rank's share: its edge lists
    /// ([`PartialEdgeLists::approx_bytes`]), the registration bitmap and
    /// the row-block bounds.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.edges.approx_bytes()
            + self.registration.len() * size_of::<u64>()
            + self.row_blocks.len() * size_of::<u32>()
    }

    /// Local offset of an owned vertex (the paper's first local-index
    /// mapping; contiguous ownership makes it a subtraction).
    #[inline]
    pub fn owned_local(&self, v: Vertex) -> Option<usize> {
        if self.owned.contains(&v) {
            Some((v - self.owned.start) as usize)
        } else {
            None
        }
    }
}

/// A graph distributed over an `R × C` grid per the paper's 2D
/// partitioning. All ranks live in one address space (the simulation
/// substrate); each rank only ever touches its own `RankGraph`.
///
/// ```
/// use bgl_comm::ProcessorGrid;
/// use bgl_graph::{DistGraph, GraphSpec};
/// let graph = DistGraph::build(GraphSpec::poisson(10_000, 8.0, 1), ProcessorGrid::new(2, 4));
/// assert_eq!(graph.ranks.len(), 8);
/// // Every adjacency entry is stored exactly once, ~ n·k of them:
/// let e = graph.total_entries() as f64;
/// assert!((e - 80_000.0).abs() / 80_000.0 < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct DistGraph {
    /// The generating specification.
    pub spec: GraphSpec,
    /// The partition map.
    pub partition: TwoDPartition,
    /// Per-rank data, indexed by rank.
    pub ranks: Vec<RankGraph>,
}

impl DistGraph {
    /// Build the distributed graph for `spec` on `grid`.
    pub fn build(spec: GraphSpec, grid: ProcessorGrid) -> Self {
        let partition = TwoDPartition::new(spec.n, grid);
        let p = grid.len();

        // 1. Generate entries chunk-parallel and bucket them by storing rank.
        let mut buckets = match spec.family {
            GraphFamily::Poisson => {
                // Each lower cell is sampled once and yields its mirror too.
                let cgrid = gen::ChunkGrid::new(spec.n);
                bucket_by_storer(cgrid.lower_cells(), &partition, |(hi, lo)| {
                    gen::lower_cell_entries(&spec, &cgrid, hi, lo)
                })
            }
            GraphFamily::RMat { .. } => {
                bucket_by_storer(0..gen::rmat_chunks(&spec), &partition, |ci| {
                    gen::rmat_chunk_edges(&spec, ci, gen::RMAT_STRIDE)
                })
            }
            GraphFamily::SmallWorld { .. } => {
                bucket_by_storer(0..gen::sw_chunks(&spec), &partition, |ci| {
                    gen::small_world_chunk_edges(&spec, ci)
                })
            }
        };

        // 2. Per-rank CSR construction on the pool, one contiguous run of
        //    ranks per worker. The CSRs land in the workers' malloc
        //    arenas; measured median peak memory moved by under 1% on
        //    every perfbench workload (DESIGN §5, host memory).
        let edges: Vec<PartialEdgeLists> = buckets
            .par_iter_mut()
            .map(|pieces| PartialEdgeLists::from_pieces(std::mem::take(pieces)))
            .collect();

        // 3. Registration exchange: owners learn which column peers hold
        //    non-empty lists for each owned vertex, one bit per (grid
        //    row, owned vertex) set straight from each peer's sorted
        //    columns.
        let registrations: Vec<Vec<u64>> = (0..p)
            .map(|owner| {
                let owned = partition.owned_range(owner);
                let (_, j) = grid.position_of(owner);
                let words = partition.owned_len(owner).div_ceil(64);
                let mut bits = vec![0u64; grid.rows() * words];
                // A rank that owns no vertex has no words (and no rows).
                for (i, row) in bits.chunks_exact_mut(words.max(1)).enumerate() {
                    let cols = edges[grid.rank_of(i, j)].cols();
                    let from = cols.partition_point(|&v| v < owned.start);
                    let to = cols.partition_point(|&v| v < owned.end);
                    for &v in &cols[from..to] {
                        let off = v - owned.start;
                        row[(off / 64) as usize] |= 1 << (off % 64);
                    }
                }
                bits
            })
            .collect();

        let ranks: Vec<RankGraph> = edges
            .into_iter()
            .zip(registrations)
            .enumerate()
            .map(|(rank, (edges, bits))| RankGraph::new(rank, &partition, edges, bits))
            .collect();

        Self {
            spec,
            partition,
            ranks,
        }
    }

    /// The processor grid.
    pub fn grid(&self) -> ProcessorGrid {
        self.partition.grid()
    }

    /// Total adjacency entries stored across all ranks (≈ n·k).
    pub fn total_entries(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.edges.num_entries() as u64)
            .sum()
    }

    /// Largest per-rank storage footprint in bytes (memory scalability
    /// metric: must stay near the mean for balanced partitions).
    pub fn max_rank_bytes(&self) -> usize {
        self.ranks
            .iter()
            .map(RankGraph::approx_bytes)
            .max()
            .unwrap_or(0)
    }
}

/// Generate every work item's entries in parallel (`chunk_entries`
/// turns one generation chunk into its adjacency entries) and bucket
/// them by the rank that stores them. The work is split into one
/// positional chunk per worker; rank `r` receives one piece per chunk
/// (`result[r][chunk]`), so nothing is concatenated.
///
/// Every piece starts with a small allocation made on the calling
/// thread. A piece then only grows, by `realloc`, which glibc serves
/// from the block's own arena, so the pieces' memory stays reusable by
/// the caller once the CSR build frees them. Pieces first allocated on
/// pool workers would leave it stranded in the workers' arenas and
/// raise peak memory.
fn bucket_by_storer<W, E>(
    work: W,
    partition: &TwoDPartition,
    chunk_entries: impl Fn(W::Item) -> E + Sync,
) -> Vec<Vec<Vec<(Vertex, Vertex)>>>
where
    W: IntoParallelIterator,
    W::Item: Send,
    E: IntoIterator<Item = (Vertex, Vertex)>,
{
    /// Initial capacity of every piece, in entries.
    const PIECE_START: usize = 64;
    let p = partition.grid().len();
    let router = EntryRouter::new(partition);
    let per_chunk: Vec<Vec<Vec<(Vertex, Vertex)>>> = work
        .into_par_iter()
        .fold(
            || (0..p).map(|_| Vec::with_capacity(PIECE_START)).collect(),
            |mut acc: Vec<Vec<(Vertex, Vertex)>>, item| {
                for (u, v) in chunk_entries(item) {
                    acc[router.storer_of_entry(u, v)].push((u, v));
                }
                acc
            },
        )
        .collect();
    let mut per_rank: Vec<Vec<Vec<(Vertex, Vertex)>>> = (0..p)
        .map(|_| Vec::with_capacity(per_chunk.len()))
        .collect();
    for chunk in per_chunk {
        for (pieces, piece) in per_rank.iter_mut().zip(chunk) {
            pieces.push(piece);
        }
    }
    per_rank
}

/// Regenerate a single rank's share of the graph from the spec alone.
///
/// Fault recovery uses this: graphs are seed-generated, so a dead rank's
/// `RankGraph` need not be checkpointed — a spare node replays the
/// deterministic generator, keeping the entries this rank stores and the
/// registration bits of the vertices it owns. Produces a result identical
/// to `DistGraph::build(spec, grid).ranks[rank]`.
pub fn rebuild_rank(spec: &GraphSpec, grid: ProcessorGrid, rank: usize) -> RankGraph {
    let partition = TwoDPartition::new(spec.n, grid);
    let router = EntryRouter::new(&partition);
    let owned = partition.owned_range(rank);
    let words = partition.owned_len(rank).div_ceil(64);
    let mut entries: Vec<(Vertex, Vertex)> = Vec::new();
    let mut registration = vec![0u64; grid.rows() * words];
    gen::for_each_entry(spec, |u, v| {
        let storer = router.storer_of_entry(u, v);
        if storer == rank {
            entries.push((u, v));
        }
        // The registration exchange, replayed locally: any storer of a
        // non-empty list for an owned vertex registers it.
        if owned.contains(&v) {
            let (i, _) = grid.position_of(storer);
            let off = v - owned.start;
            registration[i * words + (off / 64) as usize] |= 1 << (off % 64);
        }
    });
    let edges = PartialEdgeLists::from_entries(entries);
    RankGraph::new(rank, &partition, edges, registration)
}

/// Sequential adjacency oracle: the same graph as `DistGraph::build`
/// on any grid, as plain sorted adjacency lists. Used by the reference
/// BFS for validation. Intended for small `n`.
pub fn adjacency(spec: &GraphSpec) -> Vec<Vec<Vertex>> {
    assert!(
        spec.n <= 50_000_000,
        "adjacency oracle is for validation-scale graphs"
    );
    let mut adj: Vec<Vec<Vertex>> = vec![Vec::new(); spec.n as usize];
    gen::for_each_entry(spec, |u, v| {
        // Entry (row u, col v): u is a neighbor in v's edge list, i.e.
        // edge {u, v}; record on the row side (symmetry covers both).
        adj[u as usize].push(v);
    });
    for list in adj.iter_mut() {
        list.sort_unstable();
        list.dedup();
    }
    adj
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn spec_small() -> GraphSpec {
        GraphSpec::poisson(200, 6.0, 11)
    }

    fn collect_all_entries(g: &DistGraph) -> Vec<(Vertex, Vertex)> {
        let mut all = Vec::new();
        for r in &g.ranks {
            for (c, list) in r.edges.iter_cols() {
                all.extend(list.map(|u| (u, c)));
            }
        }
        all.sort_unstable();
        all
    }

    #[test]
    fn grid_independence() {
        // The same spec distributed over different grids must hold the
        // same global entry set.
        let spec = spec_small();
        let g1 = DistGraph::build(spec, ProcessorGrid::new(1, 1));
        let g4 = DistGraph::build(spec, ProcessorGrid::new(2, 2));
        let g6 = DistGraph::build(spec, ProcessorGrid::new(2, 3));
        let g8 = DistGraph::build(spec, ProcessorGrid::new(8, 1));
        let e1 = collect_all_entries(&g1);
        assert_eq!(e1, collect_all_entries(&g4));
        assert_eq!(e1, collect_all_entries(&g6));
        assert_eq!(e1, collect_all_entries(&g8));
        assert!(!e1.is_empty());
    }

    #[test]
    fn entries_stored_at_correct_rank() {
        let spec = spec_small();
        let g = DistGraph::build(spec, ProcessorGrid::new(3, 2));
        for r in &g.ranks {
            for (c, list) in r.edges.iter_cols() {
                for u in list {
                    assert_eq!(g.partition.storer_of_entry(u, c), r.rank);
                }
            }
        }
    }

    #[test]
    fn matches_adjacency_oracle() {
        let spec = spec_small();
        let adj = adjacency(&spec);
        let g = DistGraph::build(spec, ProcessorGrid::new(2, 3));
        let entries = collect_all_entries(&g);
        let set: HashSet<(Vertex, Vertex)> = entries.into_iter().collect();
        let mut oracle = HashSet::new();
        for (v, list) in adj.iter().enumerate() {
            for &u in list {
                oracle.insert((u, v as Vertex));
            }
        }
        assert_eq!(set, oracle);
    }

    #[test]
    fn expand_targets_complete_and_correct() {
        let spec = spec_small();
        let grid = ProcessorGrid::new(4, 2);
        let g = DistGraph::build(spec, grid);
        for owner in &g.ranks {
            let (_, j) = grid.position_of(owner.rank);
            let words = owner.owned_len().div_ceil(64);
            for i2 in 0..grid.rows() {
                let row = owner.registration_row(i2);
                assert_eq!(row.len(), words);
                // Check against ground truth: peer (i', j) has v in cols
                // iff bit `off` of row i' is set; no bit past the owned
                // range is set.
                let peer = grid.rank_of(i2, j);
                for off in 0..words * 64 {
                    let v = owner.owned.start + off as Vertex;
                    let has = off < owner.owned_len() && g.ranks[peer].edges.col_local(v).is_some();
                    let set = row[off / 64] >> (off % 64) & 1 != 0;
                    assert_eq!(has, set, "v={v} peer row {i2}");
                }
            }
        }
    }

    #[test]
    fn one_d_grid_stores_full_edge_lists_at_owner() {
        // R = 1: every vertex's complete edge list lives at its owner.
        let spec = spec_small();
        let g = DistGraph::build(spec, ProcessorGrid::one_d(4));
        let adj = adjacency(&spec);
        for r in &g.ranks {
            for v in r.owned.clone() {
                assert!(
                    r.edges.neighbors_of(v).eq(adj[v as usize].iter().copied()),
                    "vertex {v}"
                );
            }
        }
    }

    #[test]
    fn nonempty_lists_scale_like_n_over_p() {
        // §2.4.1: expected non-empty edge lists per rank is O(n/P), far
        // below the O(n/C) naive bound when R is large.
        let spec = GraphSpec::poisson(2000, 4.0, 3);
        let g = DistGraph::build(spec, ProcessorGrid::new(8, 2));
        let n_over_p = 2000.0 / 16.0;
        for r in &g.ranks {
            // Expected ~ min(nk/P, ...); assert a generous factor.
            assert!(
                (r.edges.num_cols() as f64) < 6.0 * n_over_p,
                "rank {} indexes {} lists",
                r.rank,
                r.edges.num_cols()
            );
        }
    }

    #[test]
    fn total_entries_close_to_nk() {
        let spec = GraphSpec::poisson(5000, 8.0, 5);
        let g = DistGraph::build(spec, ProcessorGrid::new(2, 2));
        let expect = 5000.0 * 8.0;
        let got = g.total_entries() as f64;
        assert!((got - expect).abs() / expect < 0.1, "got {got}");
    }

    #[test]
    fn rmat_builds_and_balances_poorly() {
        // R-MAT's skew should be visible as imbalance across ranks —
        // a sanity check that the extension actually stresses balance.
        let spec = GraphSpec::rmat(1 << 11, 8.0, 9);
        let g = DistGraph::build(spec, ProcessorGrid::new(4, 4));
        let counts: Vec<usize> = g.ranks.iter().map(|r| r.edges.num_entries()).collect();
        let max = *counts.iter().max().unwrap() as f64;
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(max > 1.5 * mean, "max={max} mean={mean}");
    }

    #[test]
    fn rebuild_rank_matches_build() {
        // Every rank of the pooled build, under 1 worker and under 4,
        // equals its single-rank replay and answers every query as the
        // hash-map CSR oracle does; its row-block bounds split the rows
        // by block column. The Poisson oracle samples every cell of the
        // full chunk grid on its own, one orientation at a time, so it
        // shares no path with the builder's once-per-lower-cell
        // sampling; n = 40,000 spans three generation chunks, the last
        // one partial, so the builder sees off-diagonal and mirrored
        // cells.
        assert_eq!(gen::ChunkGrid::new(40_000).chunks(), 3);
        for spec in [
            GraphSpec::poisson(300, 5.0, 7),
            GraphSpec::poisson(1_500, 6.0, 21),
            GraphSpec::poisson(40_000, 4.0, 29),
            GraphSpec::rmat(1 << 8, 6.0, 3),
            GraphSpec::rmat(1 << 11, 8.0, 22),
            GraphSpec::small_world(1_200, 6.0, 0.2, 23),
        ] {
            for grid in [
                ProcessorGrid::new(3, 2),
                ProcessorGrid::new(3, 5),
                ProcessorGrid::new(8, 8),
            ] {
                let serial = rayon::with_worker_threads(1, || DistGraph::build(spec, grid));
                let pooled = rayon::with_worker_threads(4, || DistGraph::build(spec, grid));
                let mut stored: Vec<Vec<(Vertex, Vertex)>> = vec![Vec::new(); grid.len()];
                let mut store = |u, v| stored[serial.partition.storer_of_entry(u, v)].push((u, v));
                if let GraphFamily::Poisson = spec.family {
                    let cgrid = gen::ChunkGrid::new(spec.n);
                    for (cr, cc) in gen::full_cells(&cgrid) {
                        for (u, v) in gen::cell_entries(&spec, &cgrid, cr, cc) {
                            store(u, v);
                        }
                    }
                } else {
                    gen::for_each_entry(&spec, store);
                }
                for (rank, entries) in stored.into_iter().enumerate() {
                    let what = format!(
                        "{:?} {}x{} rank {rank}",
                        spec.family,
                        grid.rows(),
                        grid.cols()
                    );
                    assert_eq!(pooled.ranks[rank], serial.ranks[rank], "{what}");
                    assert_eq!(
                        pooled.ranks[rank],
                        rebuild_rank(&spec, grid, rank),
                        "{what}"
                    );
                    let rg = &pooled.ranks[rank];
                    crate::csr::tests::Oracle::new(entries).assert_matches(&rg.edges);
                    let blocks = rg.row_blocks();
                    assert_eq!(blocks.len(), grid.cols() + 1, "{what}");
                    assert_eq!(blocks[grid.cols()] as usize, rg.edges.num_row_ids());
                    for rl in 0..rg.edges.num_row_ids() as u32 {
                        let m = rg.row_block_of(rl);
                        assert!(blocks[m] <= rl && rl < blocks[m + 1], "{what}");
                        let u = rg.edges.row_of_local(rl);
                        assert_eq!(serial.partition.block_col_of(u), m, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn owned_local_offsets() {
        let spec = spec_small();
        let g = DistGraph::build(spec, ProcessorGrid::new(2, 2));
        let r = &g.ranks[1];
        assert_eq!(r.owned_local(r.owned.start), Some(0));
        assert_eq!(r.owned_local(r.owned.end - 1), Some(r.owned_len() - 1));
        assert_eq!(r.owned_local(r.owned.end), None);
    }
}
