//! The R×C logical processor grid of the 2D-partitioned BFS.
//!
//! Processes are arranged in `R` rows and `C` columns (paper §2.2).
//! *Expand* communication happens within a **processor-column** (R
//! members), *fold* communication within a **processor-row** (C members).
//! The conventional 1D partitioning is the degenerate grid with `R = 1`
//! (Algorithm 1; only fold communication exists) or `C = 1` (the
//! transposed, "row-wise" 1D variant from Table 1).

use serde::{Deserialize, Serialize};

/// An `R × C` logical processor grid. Rank numbering is row-major:
/// `rank = row * C + col`, matching [`bgl_torus::LogicalArray`].
///
/// ```
/// use bgl_comm::ProcessorGrid;
/// let grid = ProcessorGrid::new(2, 3); // R = 2 rows, C = 3 columns
/// assert_eq!(grid.len(), 6);
/// assert_eq!(grid.rank_of(1, 2), 5);
/// assert_eq!(grid.row_group(0), vec![0, 1, 2]);   // a fold group
/// assert_eq!(grid.column_group(1), vec![1, 4]);   // an expand group
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProcessorGrid {
    rows: usize,
    cols: usize,
}

impl ProcessorGrid {
    /// Create an `R × C` grid; panics on zero extents.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1, "grid extents must be >= 1");
        Self { rows, cols }
    }

    /// A 1D (Algorithm 1) layout for `p` processes: `1 × p`.
    pub fn one_d(p: usize) -> Self {
        Self::new(1, p)
    }

    /// The transposed 1D layout: `p × 1` (Table 1's "32768×1").
    pub fn one_d_transposed(p: usize) -> Self {
        Self::new(p, 1)
    }

    /// The most balanced grid for `p` processes: `R` is the largest
    /// divisor of `p` with `R <= sqrt(p)`, and `C = p / R`.
    pub fn square_ish(p: usize) -> Self {
        assert!(p >= 1);
        let mut best = 1;
        let mut d = 1;
        while d * d <= p {
            if p.is_multiple_of(d) {
                best = d;
            }
            d += 1;
        }
        Self::new(best, p / best)
    }

    /// Number of rows (R).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (C).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of processes (P = R·C).
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Grids are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Rank of grid position `(row, col)`.
    pub fn rank_of(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Grid position `(row, col)` of `rank`.
    pub fn position_of(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.len());
        (rank / self.cols, rank % self.cols)
    }

    /// Row index of `rank`.
    pub fn row_of(&self, rank: usize) -> usize {
        rank / self.cols
    }

    /// Column index of `rank`.
    pub fn col_of(&self, rank: usize) -> usize {
        rank % self.cols
    }

    /// The ranks of processor-column `col` (an expand group), in row order.
    pub fn column_group(&self, col: usize) -> Vec<usize> {
        (0..self.rows).map(|r| self.rank_of(r, col)).collect()
    }

    /// The ranks of processor-row `row` (a fold group), in column order.
    pub fn row_group(&self, row: usize) -> Vec<usize> {
        (0..self.cols).map(|c| self.rank_of(row, c)).collect()
    }

    /// The logical-array view of this grid (for task mapping).
    pub fn logical_array(&self) -> bgl_torus::LogicalArray {
        bgl_torus::LogicalArray::new(self.rows, self.cols)
    }

    /// Factor a group size `g` into an `m × n` subgrid with `m·n = g` and
    /// `m` as close to `sqrt(g)` as possible (used by the two-phase
    /// grouped-ring collectives; a prime `g` degenerates to `1 × g`, a
    /// plain ring).
    pub fn subgrid_factor(g: usize) -> (usize, usize) {
        assert!(g >= 1);
        let mut m = 1;
        let mut d = 1;
        while d * d <= g {
            if g.is_multiple_of(d) {
                m = d;
            }
            d += 1;
        }
        (m, g / m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rank_roundtrip() {
        let g = ProcessorGrid::new(3, 5);
        for r in 0..3 {
            for c in 0..5 {
                let rank = g.rank_of(r, c);
                assert_eq!(g.position_of(rank), (r, c));
                assert_eq!(g.row_of(rank), r);
                assert_eq!(g.col_of(rank), c);
            }
        }
    }

    #[test]
    fn groups_cover_all_ranks_exactly_once() {
        let g = ProcessorGrid::new(4, 6);
        let mut seen = HashSet::new();
        for c in 0..6 {
            for r in g.column_group(c) {
                assert!(seen.insert(r));
            }
        }
        assert_eq!(seen.len(), g.len());
        let mut seen = HashSet::new();
        for r in 0..4 {
            for rank in g.row_group(r) {
                assert!(seen.insert(rank));
            }
        }
        assert_eq!(seen.len(), g.len());
    }

    #[test]
    fn one_d_layouts() {
        assert_eq!(ProcessorGrid::one_d(8).rows(), 1);
        assert_eq!(ProcessorGrid::one_d_transposed(8).cols(), 1);
    }

    #[test]
    fn square_ish_prefers_balance() {
        assert_eq!(ProcessorGrid::square_ish(16), ProcessorGrid::new(4, 4));
        assert_eq!(ProcessorGrid::square_ish(12), ProcessorGrid::new(3, 4));
        assert_eq!(ProcessorGrid::square_ish(7), ProcessorGrid::new(1, 7));
        assert_eq!(ProcessorGrid::square_ish(1), ProcessorGrid::new(1, 1));
        assert_eq!(
            ProcessorGrid::square_ish(32768),
            ProcessorGrid::new(128, 256)
        );
    }

    #[test]
    fn subgrid_factor_properties() {
        for g in 1..200usize {
            let (m, n) = ProcessorGrid::subgrid_factor(g);
            assert_eq!(m * n, g);
            assert!(m <= n);
        }
        assert_eq!(ProcessorGrid::subgrid_factor(6), (2, 3));
        assert_eq!(ProcessorGrid::subgrid_factor(13), (1, 13));
    }

    #[test]
    fn column_group_members_share_column() {
        let g = ProcessorGrid::new(4, 3);
        for c in 0..3 {
            for rank in g.column_group(c) {
                assert_eq!(g.col_of(rank), c);
            }
        }
    }
}
