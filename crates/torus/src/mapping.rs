//! Task mapping: placing the 2D logical processor array on the torus.
//!
//! The BFS algorithm arranges `P = R × C` processes in a logical
//! processor array; *expand* communication happens within logical
//! columns, *fold* communication within logical rows (paper §2.2). How
//! the logical array is laid onto the physical 3D torus determines how
//! many physical hops those group communications traverse.
//!
//! Paper Figure 1 maps an `Lx × Ly` logical array to a `wc × wr × 4`
//! torus by slicing the logical array into `wc × wr` tiles and stacking
//! tiles that share a tile-column on *adjacent physical planes*, so that
//! expand groups (logical columns) stay physically compact.
//!
//! We implement that mapping ([`TaskMappingKind::FoldedPlanes`]), plus a
//! naive row-major mapping and a pseudo-random mapping as ablation
//! baselines, and a hop-cost evaluator used by the mapping ablation
//! bench.

use crate::coord::{Coord3, TorusDims};
use crate::routing::hop_distance;
use serde::{Deserialize, Serialize};

/// Shape of the logical processor array (R rows × C columns).
///
/// Logical rank numbering is row-major: rank = `row * cols + col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LogicalArray {
    /// Number of logical rows (R).
    pub rows: usize,
    /// Number of logical columns (C).
    pub cols: usize,
}

impl LogicalArray {
    /// Create a logical array; panics on zero extent.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1, "logical array extents must be >= 1");
        Self { rows, cols }
    }

    /// Total number of processes.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// True when the array is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Rank of logical position `(row, col)`.
    pub fn rank_of(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols);
        row * self.cols + col
    }

    /// Logical position `(row, col)` of `rank`.
    pub fn position_of(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.len());
        (rank / self.cols, rank % self.cols)
    }

    /// Ranks forming logical column `col` (an expand group), in row order.
    pub fn column_group(&self, col: usize) -> Vec<usize> {
        (0..self.rows).map(|r| self.rank_of(r, col)).collect()
    }

    /// Ranks forming logical row `row` (a fold group), in column order.
    pub fn row_group(&self, row: usize) -> Vec<usize> {
        (0..self.cols).map(|c| self.rank_of(row, c)).collect()
    }
}

/// Available mapping strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskMappingKind {
    /// Logical ranks laid out in linear (x-fastest) node-index order.
    RowMajor,
    /// The paper's Figure 1 mapping: logical array tiled into torus
    /// planes, tiles in the same tile-column on adjacent planes.
    FoldedPlanes,
    /// Deterministic pseudo-random permutation (worst-case ablation).
    Scrambled,
}

/// A concrete assignment of every logical rank to a torus coordinate.
#[derive(Debug, Clone)]
pub struct TaskMapping {
    kind: TaskMappingKind,
    logical: LogicalArray,
    dims: TorusDims,
    coords: Vec<Coord3>,
}

impl TaskMapping {
    /// Build a mapping of the given kind. Panics if the torus has fewer
    /// nodes than the logical array has processes.
    pub fn new(kind: TaskMappingKind, logical: LogicalArray, dims: TorusDims) -> Self {
        assert!(
            logical.len() <= dims.node_count(),
            "logical array has {} processes but torus {:?} has only {} nodes",
            logical.len(),
            dims,
            dims.node_count()
        );
        let coords = match kind {
            TaskMappingKind::RowMajor => Self::row_major_coords(logical, dims),
            TaskMappingKind::FoldedPlanes => Self::folded_coords(logical, dims),
            TaskMappingKind::Scrambled => Self::scrambled_coords(logical, dims),
        };
        Self {
            kind,
            logical,
            dims,
            coords,
        }
    }

    /// Pick torus dimensions shaped like the paper's `wc × wr × 4`
    /// example for a given logical array: a torus with z extent up to 4
    /// whose x–y planes tile the logical array.
    pub fn paper_torus_for(logical: LogicalArray) -> TorusDims {
        let p = logical.len();
        // Plane area = ceil(p / 4), then near-square plane.
        let z = 4usize.min(p).max(1);
        let plane = p.div_ceil(z);
        let mut wx = (plane as f64).sqrt().ceil() as usize;
        wx = wx.max(1);
        let wy = plane.div_ceil(wx).max(1);
        // Round the plane up so every tile fits.
        TorusDims::new(wx.max(1), wy.max(1), z)
    }

    fn row_major_coords(logical: LogicalArray, dims: TorusDims) -> Vec<Coord3> {
        (0..logical.len()).map(|r| dims.delinearize(r)).collect()
    }

    /// Figure 1: slice the logical array into `dims.x × dims.y` tiles
    /// (logical cols along torus x, logical rows along torus y); walk the
    /// tiles in column-major tile order so tiles sharing a tile-column
    /// land on adjacent z planes.
    fn folded_coords(logical: LogicalArray, dims: TorusDims) -> Vec<Coord3> {
        let tiles_down = logical.rows.div_ceil(dims.y); // tile rows
        let mut coords = vec![Coord3::new(0, 0, 0); logical.len()];
        let mut taken = vec![false; dims.node_count()];
        let mut overflow: Vec<usize> = Vec::new();
        for row in 0..logical.rows {
            for col in 0..logical.cols {
                let tile_r = row / dims.y;
                let tile_c = col / dims.x;
                // Column-major tile index: same tile-column => consecutive.
                let tile_idx = tile_c * tiles_down + tile_r;
                let x = col % dims.x;
                let y = row % dims.y;
                // If there are more tiles than z planes, wrap around in z;
                // the wrap preserves adjacency within a tile column as long
                // as tiles_down <= dims.z (true for paper-shaped tori).
                let z = tile_idx % dims.z;
                let rank = logical.rank_of(row, col);
                let desired = Coord3::new(x, y, z);
                let slot = dims.linearize(desired);
                if taken[slot] {
                    // Partially-filled tiles overflowing the z extent can
                    // collide; resolve deterministically afterwards.
                    overflow.push(rank);
                } else {
                    taken[slot] = true;
                    coords[rank] = desired;
                }
            }
        }
        // Place colliding ranks on the free slots in linear order: keeps
        // the mapping total and injective for any array/torus pair.
        let mut cursor = 0usize;
        for rank in overflow {
            while taken[cursor] {
                cursor += 1;
            }
            taken[cursor] = true;
            coords[rank] = dims.delinearize(cursor);
        }
        coords
    }

    /// SplitMix64-based deterministic scramble of linear placement.
    fn scrambled_coords(logical: LogicalArray, dims: TorusDims) -> Vec<Coord3> {
        let n = dims.node_count();
        let mut slots: Vec<usize> = (0..n).collect();
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // Fisher-Yates with the deterministic stream.
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            slots.swap(i, j);
        }
        (0..logical.len())
            .map(|r| dims.delinearize(slots[r]))
            .collect()
    }

    /// The mapping strategy used.
    pub fn kind(&self) -> TaskMappingKind {
        self.kind
    }

    /// The logical array shape.
    pub fn logical(&self) -> LogicalArray {
        self.logical
    }

    /// The torus this mapping targets.
    pub fn dims(&self) -> TorusDims {
        self.dims
    }

    /// Physical coordinate of a logical rank.
    pub fn coord_of(&self, rank: usize) -> Coord3 {
        self.coords[rank]
    }

    /// Physical hop distance between two logical ranks.
    fn rank_distance(&self, a: usize, b: usize) -> usize {
        hop_distance(self.dims, self.coords[a], self.coords[b])
    }

    /// Sum of hop distances around a ring visiting `group` in order (with
    /// wraparound from last back to first). This is the per-step physical
    /// cost of ring collectives on the group.
    pub fn ring_hop_cost(&self, group: &[usize]) -> usize {
        if group.len() < 2 {
            return 0;
        }
        let mut total = 0;
        for i in 0..group.len() {
            let a = group[i];
            let b = group[(i + 1) % group.len()];
            total += self.rank_distance(a, b);
        }
        total
    }

    /// Mean ring hop cost over all expand groups (logical columns).
    pub fn mean_expand_ring_cost(&self) -> f64 {
        let cols = self.logical.cols;
        let total: usize = (0..cols)
            .map(|c| self.ring_hop_cost(&self.logical.column_group(c)))
            .sum();
        total as f64 / cols as f64
    }

    /// Mean ring hop cost over all fold groups (logical rows).
    pub fn mean_fold_ring_cost(&self) -> f64 {
        let rows = self.logical.rows;
        let total: usize = (0..rows)
            .map(|r| self.ring_hop_cost(&self.logical.row_group(r)))
            .sum();
        total as f64 / rows as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn distinct(coords: &[Coord3]) -> bool {
        let set: HashSet<_> = coords.iter().collect();
        set.len() == coords.len()
    }

    #[test]
    fn logical_array_indexing_roundtrip() {
        let la = LogicalArray::new(4, 6);
        for r in 0..4 {
            for c in 0..6 {
                let rank = la.rank_of(r, c);
                assert_eq!(la.position_of(rank), (r, c));
            }
        }
    }

    #[test]
    fn groups_partition_ranks() {
        let la = LogicalArray::new(3, 5);
        let mut seen = HashSet::new();
        for c in 0..5 {
            for r in la.column_group(c) {
                assert!(seen.insert(r));
            }
        }
        assert_eq!(seen.len(), la.len());
    }

    #[test]
    fn row_major_is_injective() {
        let la = LogicalArray::new(8, 8);
        let dims = TorusDims::new(4, 4, 4);
        let m = TaskMapping::new(TaskMappingKind::RowMajor, la, dims);
        let coords: Vec<_> = (0..la.len()).map(|r| m.coord_of(r)).collect();
        assert!(distinct(&coords));
    }

    #[test]
    fn folded_is_injective_when_exact_fit() {
        // 8x8 logical on 4x4x4 torus: tiles are 4x4, 2x2 tile grid = 4 tiles.
        let la = LogicalArray::new(8, 8);
        let dims = TorusDims::new(4, 4, 4);
        let m = TaskMapping::new(TaskMappingKind::FoldedPlanes, la, dims);
        let coords: Vec<_> = (0..la.len()).map(|r| m.coord_of(r)).collect();
        assert!(distinct(&coords));
    }

    #[test]
    fn scrambled_is_injective() {
        let la = LogicalArray::new(8, 8);
        let dims = TorusDims::new(4, 4, 4);
        let m = TaskMapping::new(TaskMappingKind::Scrambled, la, dims);
        let coords: Vec<_> = (0..la.len()).map(|r| m.coord_of(r)).collect();
        assert!(distinct(&coords));
    }

    #[test]
    fn folded_tile_column_adjacent_planes() {
        // Paper property: tiles in the same tile-column are on adjacent
        // physical planes, so a logical column crossing a tile boundary
        // moves exactly one z plane.
        let la = LogicalArray::new(8, 4); // tiles: 2 down, 1 across on 4x4x4
        let dims = TorusDims::new(4, 4, 4);
        let m = TaskMapping::new(TaskMappingKind::FoldedPlanes, la, dims);
        // rank (3, 0) is in tile row 0, rank (4, 0) in tile row 1.
        let a = m.coord_of(la.rank_of(3, 0));
        let b = m.coord_of(la.rank_of(4, 0));
        assert_eq!(a.z + 1, b.z, "consecutive tiles must be adjacent planes");
        // Same (x) column within a plane.
        assert_eq!(a.x, b.x);
    }

    #[test]
    fn folded_beats_scrambled_on_expand_cost() {
        let la = LogicalArray::new(16, 16);
        let dims = TorusDims::new(8, 8, 4);
        let folded = TaskMapping::new(TaskMappingKind::FoldedPlanes, la, dims);
        let scrambled = TaskMapping::new(TaskMappingKind::Scrambled, la, dims);
        assert!(
            folded.mean_expand_ring_cost() < scrambled.mean_expand_ring_cost(),
            "folded {} vs scrambled {}",
            folded.mean_expand_ring_cost(),
            scrambled.mean_expand_ring_cost()
        );
    }

    #[test]
    fn paper_torus_fits_logical() {
        for (r, c) in [(1, 1), (2, 3), (16, 16), (128, 256)] {
            let la = LogicalArray::new(r, c);
            let dims = TaskMapping::paper_torus_for(la);
            assert!(dims.node_count() >= la.len(), "{la:?} -> {dims:?}");
            // And all three mappings construct without panicking.
            for kind in [
                TaskMappingKind::RowMajor,
                TaskMappingKind::FoldedPlanes,
                TaskMappingKind::Scrambled,
            ] {
                let _ = TaskMapping::new(kind, la, dims);
            }
        }
    }

    #[test]
    fn ring_hop_cost_single_member_is_zero() {
        let la = LogicalArray::new(1, 1);
        let dims = TorusDims::new(2, 2, 1);
        let m = TaskMapping::new(TaskMappingKind::RowMajor, la, dims);
        assert_eq!(m.ring_hop_cost(&[0]), 0);
    }

    #[test]
    #[should_panic]
    fn oversubscription_rejected() {
        let la = LogicalArray::new(10, 10);
        let dims = TorusDims::new(2, 2, 2);
        TaskMapping::new(TaskMappingKind::RowMajor, la, dims);
    }
}
