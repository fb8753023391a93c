//! The paper's 2D partition of the adjacency matrix (§2.2).
//!
//! For `P = R × C` processors the symmetric adjacency matrix is divided
//! into `R·C` **block rows** and `C` **block columns**. Processor
//! `(i, j)` owns the vertices of block row `j·R + i` and stores the `C`
//! blocks `(m·R + i, j)` for `m = 0..C` — i.e. the partial edge lists
//! (matrix columns) of every vertex in block column `j`, restricted to
//! its own block rows.
//!
//! Two facts the algorithms rely on (proved in the module tests):
//!
//! 1. a vertex owned by processor `(i, j)` has its matrix column inside
//!    block column `j`, so only the processor-column `j` can hold partial
//!    edge lists for it (this is why *expand* is a column operation);
//! 2. any matrix row stored by processor `(i, j)` belongs to a vertex
//!    owned by some processor `(i, m)` in the same processor-row (this is
//!    why *fold* is a row operation).
//!
//! The conventional 1D partition is the special case `R = 1`; `C = 1`
//! gives the transposed 1D variant of Table 1.
//!
//! Vertex ranges are balanced by rounding: block row `b` covers
//! `[⌊b·n/P⌋, ⌊(b+1)·n/P⌋)`, so `n` need not be a multiple of `P`.

use crate::Vertex;
use bgl_comm::ProcessorGrid;
use serde::{Deserialize, Serialize};

/// The 2D partition map for `n` vertices on an `R × C` grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TwoDPartition {
    n: u64,
    r: usize,
    c: usize,
}

impl TwoDPartition {
    /// Create a partition; panics if the grid has more processors than
    /// there are vertices to own (every block row should be non-empty
    /// for meaningful experiments, though empty block rows are handled).
    pub fn new(n: u64, grid: ProcessorGrid) -> Self {
        assert!(n >= 1, "graph must have at least one vertex");
        Self {
            n,
            r: grid.rows(),
            c: grid.cols(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of processors.
    pub fn p(&self) -> usize {
        self.r * self.c
    }

    /// Grid rows (R).
    pub fn rows(&self) -> usize {
        self.r
    }

    /// Grid columns (C).
    pub fn cols(&self) -> usize {
        self.c
    }

    /// The grid this partition is defined over.
    pub fn grid(&self) -> ProcessorGrid {
        ProcessorGrid::new(self.r, self.c)
    }

    /// Start of block row `b` (`b` ranges over `0..=P`; `start(P) = n`).
    pub fn block_row_start(&self, b: usize) -> Vertex {
        debug_assert!(b <= self.p());
        (b as u128 * self.n as u128 / self.p() as u128) as Vertex
    }

    /// Vertex range `[start, end)` of block row `b`.
    fn block_row_range(&self, b: usize) -> std::ops::Range<Vertex> {
        self.block_row_start(b)..self.block_row_start(b + 1)
    }

    /// Block row containing vertex `v`.
    fn block_row_of(&self, v: Vertex) -> usize {
        debug_assert!(v < self.n);
        let mut b = (v as u128 * self.p() as u128 / self.n as u128) as usize;
        // Rounding can land one off; correct against the true bounds.
        while v < self.block_row_start(b) {
            b -= 1;
        }
        while v >= self.block_row_start(b + 1) {
            b += 1;
        }
        b
    }

    /// The rank owning block row `b`: block row `j·R + i` belongs to
    /// processor `(i, j)`.
    fn owner_of_block_row(&self, b: usize) -> usize {
        debug_assert!(b < self.p());
        let i = b % self.r;
        let j = b / self.r;
        self.grid().rank_of(i, j)
    }

    /// The block row owned by `rank` (inverse of
    /// [`TwoDPartition::owner_of_block_row`]).
    fn block_row_of_rank(&self, rank: usize) -> usize {
        let (i, j) = self.grid().position_of(rank);
        j * self.r + i
    }

    /// The rank owning vertex `v`.
    pub fn owner_of(&self, v: Vertex) -> usize {
        self.owner_of_block_row(self.block_row_of(v))
    }

    /// The vertices owned by `rank`.
    pub fn owned_range(&self, rank: usize) -> std::ops::Range<Vertex> {
        self.block_row_range(self.block_row_of_rank(rank))
    }

    /// Number of vertices owned by `rank`.
    pub fn owned_len(&self, rank: usize) -> usize {
        let r = self.owned_range(rank);
        (r.end - r.start) as usize
    }

    /// Vertex range of block column `j` (the union of block rows
    /// `j·R .. (j+1)·R`, which are contiguous).
    pub fn block_col_range(&self, j: usize) -> std::ops::Range<Vertex> {
        debug_assert!(j < self.c);
        self.block_row_start(j * self.r)..self.block_row_start((j + 1) * self.r)
    }

    /// Block column containing vertex `v` — equals the grid column of
    /// `v`'s owner.
    pub fn block_col_of(&self, v: Vertex) -> usize {
        self.block_row_of(v) / self.r
    }

    /// The grid row of the rank storing matrix entry `(row u, col v)` is
    /// `block_row_of(u) % R`; its grid column is `block_col_of(v)`. This
    /// returns that rank.
    pub fn storer_of_entry(&self, u: Vertex, v: Vertex) -> usize {
        let i = self.block_row_of(u) % self.r;
        let j = self.block_col_of(v);
        self.grid().rank_of(i, j)
    }
}

/// [`TwoDPartition::storer_of_entry`] without division, for routing
/// every generated entry during construction. It names the storer by
/// the block row the storer owns, `j·R + i` for rank `(i, j)`: that is
/// column-major order, so each processor column's storers are `R`
/// consecutive block rows. Vertices are binned by `v >> shift`, with
/// bins no wider than the narrowest non-empty block row, so a bin's
/// first block row is at most a short walk from any of its vertices'
/// block rows. Per-block-row tables then give the storer's grid-row
/// and grid-column terms.
pub(crate) struct EntryRouter {
    shift: u32,
    /// Block row of each bin's first vertex.
    bin_block: Vec<usize>,
    /// `block_row_start(b)` for `b` in `0..=P`.
    starts: Vec<Vertex>,
    /// `b % R`: the grid row of block row `b`.
    row_term: Vec<usize>,
    /// `b − b % R`: the first block row of block row `b`'s block column.
    col_term: Vec<usize>,
}

impl EntryRouter {
    pub(crate) fn new(partition: &TwoDPartition) -> Self {
        let (p, r) = (partition.p(), partition.r);
        let starts: Vec<Vertex> = (0..=p).map(|b| partition.block_row_start(b)).collect();
        let narrowest = starts
            .windows(2)
            .map(|w| w[1] - w[0])
            .filter(|&len| len > 0)
            .min()
            .unwrap_or(1);
        let shift = narrowest.ilog2();
        let bins = partition.n.div_ceil(1 << shift);
        let bin_block = (0..bins)
            .map(|bin| partition.block_row_of(bin << shift))
            .collect();
        Self {
            shift,
            bin_block,
            starts,
            row_term: (0..p).map(|b| b % r).collect(),
            col_term: (0..p).map(|b| b - b % r).collect(),
        }
    }

    fn block_row_of(&self, v: Vertex) -> usize {
        let mut b = self.bin_block[(v >> self.shift) as usize];
        while v >= self.starts[b + 1] {
            b += 1;
        }
        b
    }

    /// The block row owned by the rank storing entry `(row u, col v)`.
    pub(crate) fn storer_block(&self, u: Vertex, v: Vertex) -> usize {
        self.row_term[self.block_row_of(u)] + self.col_term[self.block_row_of(v)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part(n: u64, r: usize, c: usize) -> TwoDPartition {
        TwoDPartition::new(n, ProcessorGrid::new(r, c))
    }

    #[test]
    fn block_rows_tile_vertex_space() {
        for (n, r, c) in [(100, 3, 4), (17, 2, 2), (1000, 1, 8), (64, 8, 1)] {
            let pt = part(n, r, c);
            let mut covered = 0u64;
            for b in 0..pt.p() {
                let range = pt.block_row_range(b);
                assert_eq!(range.start, covered);
                covered = range.end;
                for v in range {
                    assert_eq!(pt.block_row_of(v), b);
                }
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn balanced_within_one() {
        let pt = part(103, 4, 5);
        for rank in 0..20 {
            let len = pt.owned_len(rank);
            assert!(len == 5 || len == 6, "rank {rank} owns {len}");
        }
    }

    #[test]
    fn owner_roundtrip() {
        let pt = part(120, 3, 4);
        for b in 0..12 {
            let rank = pt.owner_of_block_row(b);
            assert_eq!(pt.block_row_of_rank(rank), b);
        }
        for v in 0..120 {
            let owner = pt.owner_of(v);
            assert!(pt.owned_range(owner).contains(&v));
        }
    }

    #[test]
    fn paper_fact_1_owner_column_matches_block_column() {
        // A vertex owned by (i, j) lies in block column j.
        let pt = part(240, 4, 6);
        let grid = pt.grid();
        for v in 0..240 {
            let owner = pt.owner_of(v);
            let (_, j) = grid.position_of(owner);
            assert_eq!(pt.block_col_of(v), j);
        }
    }

    #[test]
    fn paper_fact_2_stored_rows_owned_in_processor_row() {
        // The storer of entry (u, v) shares its grid row with u's owner.
        let pt = part(97, 3, 5);
        let grid = pt.grid();
        for u in (0..97).step_by(7) {
            for v in (0..97).step_by(11) {
                let storer = pt.storer_of_entry(u, v);
                let owner_u = pt.owner_of(u);
                assert_eq!(grid.row_of(storer), grid.row_of(owner_u));
                // And its grid column with v's owner.
                let owner_v = pt.owner_of(v);
                assert_eq!(grid.col_of(storer), grid.col_of(owner_v));
            }
        }
    }

    #[test]
    fn block_columns_are_contiguous_unions() {
        let pt = part(130, 4, 3);
        for j in 0..3 {
            let col = pt.block_col_range(j);
            let first = pt.block_row_range(j * 4);
            let last = pt.block_row_range(j * 4 + 3);
            assert_eq!(col.start, first.start);
            assert_eq!(col.end, last.end);
        }
    }

    #[test]
    fn one_d_degenerate() {
        // R = 1: each processor's block column is exactly its owned range.
        let pt = part(100, 1, 5);
        for rank in 0..5 {
            assert_eq!(pt.owned_range(rank), pt.block_col_range(rank));
        }
    }

    #[test]
    fn more_processors_than_vertices_allowed() {
        let pt = part(3, 2, 3);
        let total: usize = (0..6).map(|r| pt.owned_len(r)).sum();
        assert_eq!(total, 3);
        for v in 0..3 {
            let owner = pt.owner_of(v);
            assert!(pt.owned_range(owner).contains(&v));
        }
    }

    #[test]
    fn entry_router_matches_storer_of_entry() {
        for (n, r, c) in [
            (1, 1, 1),
            (3, 2, 3),
            (17, 4, 1),
            (97, 3, 5),
            (130, 4, 3),
            (1000, 7, 9),
            (4096, 8, 8),
        ] {
            let pt = part(n, r, c);
            let router = EntryRouter::new(&pt);
            for u in 0..n {
                for v in (0..n).step_by(1 + (n / 50) as usize) {
                    assert_eq!(
                        pt.owner_of_block_row(router.storer_block(u, v)),
                        pt.storer_of_entry(u, v),
                        "n={n} grid={r}x{c} entry ({u}, {v})"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn entry_router_matches_on_random_partitions(
            n in 1u64..100_000,
            r in 1usize..17,
            c in 1usize..17,
            picks in proptest::collection::vec((proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>()), 1..200),
        ) {
            let pt = part(n, r, c);
            let router = EntryRouter::new(&pt);
            for (u, v) in picks {
                let (u, v) = (u % n, v % n);
                proptest::prop_assert_eq!(
                    pt.owner_of_block_row(router.storer_block(u, v)),
                    pt.storer_of_entry(u, v)
                );
            }
        }
    }
}
