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
//! exchange directly since all ranks share the address space. Exchange
//! and storage stay inside a processor column, so [`DistGraph::build`]
//! and [`rebuild_rank`] (fault recovery) both build processor columns.

use crate::csr::PartialEdgeLists;
use crate::gen;
use crate::partition::{EntryRouter, TwoDPartition};
use crate::spec::GraphSpec;
use crate::Vertex;
use bgl_comm::ProcessorGrid;
use rayon::prelude::*;
use std::ops::Range;

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
    /// bitmap (see [`RankGraph::registration_row`]). `col_starts` are the
    /// first vertex of each block column, then `n`; the rows below each
    /// are the row-block bounds.
    fn new(
        rank: usize,
        partition: &TwoDPartition,
        col_starts: &[Vertex],
        edges: PartialEdgeLists,
        registration: Vec<u64>,
    ) -> Self {
        let owned = partition.owned_range(rank);
        let row_blocks = edges.rows_below(col_starts);
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
        let ranks = build_columns(&spec, &partition, 0..grid.cols());
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

/// Regenerate a single rank's share of the graph from the spec alone.
///
/// Fault recovery uses this: graphs are seed-generated, so a dead rank's
/// `RankGraph` need not be checkpointed — a spare node replays the
/// deterministic generator and builds the rank's processor column as
/// [`DistGraph::build`] does. Produces a result identical to
/// `DistGraph::build(spec, grid).ranks[rank]`.
pub fn rebuild_rank(spec: &GraphSpec, grid: ProcessorGrid, rank: usize) -> RankGraph {
    let partition = TwoDPartition::new(spec.n, grid);
    let (i, j) = grid.position_of(rank);
    build_columns(spec, &partition, j..j + 1).swap_remove(i)
}

/// Build the ranks of processor columns `cols`, in rank order: bucket
/// their entries ([`bucket_by_storer`]), build their CSRs, then run the
/// registration exchange ([`register_column`]) and assemble the
/// `RankGraph`s, all on the pool. Rank `(i, j)` owns block row `j·R + i`,
/// so the ranks are the owners of block rows `cols.start·R..cols.end·R`,
/// taken in that order until the final sort. The CSRs and bitmaps land
/// in the workers' malloc arenas (DESIGN §5, host memory).
fn build_columns(
    spec: &GraphSpec,
    partition: &TwoDPartition,
    cols: Range<usize>,
) -> Vec<RankGraph> {
    let r = partition.rows();
    // Block column `m` is `col_starts[m]..col_starts[m + 1]`.
    let col_starts: Vec<Vertex> = (0..=partition.cols())
        .map(|m| partition.block_row_start(m * r))
        .collect();
    let mut buckets = bucket_by_storer(spec, partition, cols.start * r..cols.end * r);
    let edges: Vec<PartialEdgeLists> = buckets
        .par_iter_mut()
        .map(|pieces| PartialEdgeLists::from_pieces(std::mem::take(pieces)))
        .collect();
    let mut edges = edges.into_iter();
    let mut columns: Vec<(usize, Vec<PartialEdgeLists>)> = cols
        .map(|j| (j, edges.by_ref().take(r).collect()))
        .collect();
    let by_column: Vec<Vec<RankGraph>> = columns
        .par_iter_mut()
        .map(|(j, column)| {
            let bits = register_column(partition, *j, column);
            let ranks = (0..r).map(|i| partition.grid().rank_of(i, *j));
            ranks
                .zip(std::mem::take(column))
                .zip(bits)
                .map(|((rank, edges), bits)| {
                    RankGraph::new(rank, partition, &col_starts, edges, bits)
                })
                .collect()
        })
        .collect();
    let mut ranks: Vec<RankGraph> = by_column.into_iter().flatten().collect();
    ranks.sort_unstable_by_key(|g| g.rank);
    ranks
}

/// Generate every item of `spec` ([`gen::items`]) in parallel and
/// bucket the entries that the owners of block rows `blocks` store, by
/// that block row, dropping the rest. The items are split into one
/// positional chunk per worker; block row `blocks.start + s` receives
/// one piece per chunk (`result[s][chunk]`), so nothing is concatenated.
///
/// Every piece starts with a small allocation made on the calling
/// thread. A piece then only grows, by `realloc`, which glibc serves
/// from the block's own arena, so the pieces' memory stays reusable by
/// the caller once the CSR build frees them. Pieces first allocated on
/// pool workers would leave it stranded in the workers' arenas and
/// raise peak memory.
fn bucket_by_storer(
    spec: &GraphSpec,
    partition: &TwoDPartition,
    blocks: Range<usize>,
) -> Vec<Vec<Vec<(Vertex, Vertex)>>> {
    /// Initial capacity of every piece, in entries.
    const PIECE_START: usize = 64;
    let router = EntryRouter::new(partition);
    let (items, item_entries) = gen::items(spec);
    let per_chunk: Vec<Vec<Vec<(Vertex, Vertex)>>> = (0..items)
        .into_par_iter()
        .fold(
            || {
                blocks
                    .clone()
                    .map(|_| Vec::with_capacity(PIECE_START))
                    .collect()
            },
            |mut acc: Vec<Vec<(Vertex, Vertex)>>, item| {
                for (u, v) in item_entries(spec, item) {
                    // A storer outside `blocks` lands past the end of
                    // `acc`; one before it, by wrapping.
                    let slot = router.storer_block(u, v).wrapping_sub(blocks.start);
                    if let Some(piece) = acc.get_mut(slot) {
                        piece.push((u, v));
                    }
                }
                acc
            },
        )
        .collect();
    let mut per_block: Vec<Vec<Vec<(Vertex, Vertex)>>> = blocks
        .map(|_| Vec::with_capacity(per_chunk.len()))
        .collect();
    for chunk in per_chunk {
        for (pieces, piece) in per_block.iter_mut().zip(chunk) {
            pieces.push(piece);
        }
    }
    per_block
}

/// The registration exchange of processor column `j`: given the lists
/// `column[i]` that rank `(i, j)` stores, entry `i` of the result is rank
/// `(i, j)`'s bitmap (see [`RankGraph::registration_row`]). A storer's
/// sorted `cols()` lie in block column `j`, which ranks `(0, j)..(R−1, j)`
/// own in ascending order, so one pass over them, stepping to the next
/// owner at each boundary, sets every bit of the storer's row.
fn register_column(
    partition: &TwoDPartition,
    j: usize,
    column: &[PartialEdgeLists],
) -> Vec<Vec<u64>> {
    let r = partition.rows();
    let starts: Vec<Vertex> = (j * r..=(j + 1) * r)
        .map(|b| partition.block_row_start(b))
        .collect();
    let words: Vec<usize> = starts
        .windows(2)
        .map(|w| ((w[1] - w[0]) as usize).div_ceil(64))
        .collect();
    let mut bits: Vec<Vec<u64>> = words.iter().map(|&w| vec![0; r * w]).collect();
    for (row, storer) in column.iter().enumerate() {
        let mut owner = 0;
        for v in storer.cols() {
            while v >= starts[owner + 1] {
                owner += 1;
            }
            let off = (v - starts[owner]) as usize;
            bits[owner][row * words[owner] + off / 64] |= 1 << (off % 64);
        }
    }
    bits
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
    use crate::spec::GraphFamily;
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
        // equals its single-rank rebuild (itself run under 1 worker for
        // even ranks and 4 for odd ones) and answers every query as the
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
            GraphSpec::poisson(40, 4.0, 31),
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
                    let workers = if rank % 2 == 0 { 1 } else { 4 };
                    let rebuilt =
                        rayon::with_worker_threads(workers, || rebuild_rank(&spec, grid, rank));
                    assert_eq!(pooled.ranks[rank], rebuilt, "{what}");
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
