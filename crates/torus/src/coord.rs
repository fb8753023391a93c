//! Torus coordinates and wrap-around arithmetic.
//!
//! A 3D torus of dimensions `x × y × z` connects node `(a, b, c)` to its
//! six nearest neighbours with wrap-around in every dimension. BlueGene/L
//! is a `64 × 32 × 32` torus (65,536 nodes); the paper's experiments run
//! on a 32,768-node half-system partition (`32 × 32 × 32`).

use serde::{Deserialize, Serialize};

/// Dimensions of a 3D torus.
///
/// All dimensions must be at least 1. A dimension of 1 or 2 degenerates:
/// with 1 there is no link in that dimension, with 2 the "two" directions
/// reach the same neighbour (we still count a single hop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TorusDims {
    /// Extent in X.
    pub x: usize,
    /// Extent in Y.
    pub y: usize,
    /// Extent in Z.
    pub z: usize,
}

impl TorusDims {
    /// Create torus dimensions; panics if any dimension is zero.
    pub fn new(x: usize, y: usize, z: usize) -> Self {
        assert!(x >= 1 && y >= 1 && z >= 1, "torus dimensions must be >= 1");
        Self { x, y, z }
    }

    /// Total number of nodes in the torus.
    pub fn node_count(&self) -> usize {
        self.x * self.y * self.z
    }

    /// Extent along dimension `d` (0 = x, 1 = y, 2 = z).
    pub fn extent(&self, d: usize) -> usize {
        match d {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            // bgl-lint: allow(r1, reason = "API contract: dimension indices are the literals 0..3 at every call site")
            _ => panic!("torus dimension index {d} out of range (0..3)"),
        }
    }

    /// Whether `c` is a valid coordinate in this torus.
    pub fn contains(&self, c: Coord3) -> bool {
        c.x < self.x && c.y < self.y && c.z < self.z
    }

    /// Convert a coordinate into a linear node index (x-major, i.e. the
    /// x coordinate varies fastest: `idx = x + dims.x * (y + dims.y * z)`).
    pub fn linearize(&self, c: Coord3) -> usize {
        debug_assert!(self.contains(c), "coordinate {c:?} outside torus {self:?}");
        c.x + self.x * (c.y + self.y * c.z)
    }

    /// Inverse of [`TorusDims::linearize`].
    pub fn delinearize(&self, idx: usize) -> Coord3 {
        debug_assert!(idx < self.node_count(), "node index {idx} out of range");
        let x = idx % self.x;
        let y = (idx / self.x) % self.y;
        let z = idx / (self.x * self.y);
        Coord3 { x, y, z }
    }

    /// Minimal wrap-around distance between positions `a` and `b` along a
    /// single dimension of extent `extent`.
    pub fn axis_distance(extent: usize, a: usize, b: usize) -> usize {
        debug_assert!(a < extent && b < extent);
        let d = a.abs_diff(b);
        d.min(extent - d)
    }

    /// Signed minimal step direction (+1, -1, or 0) to move from `a`
    /// towards `b` along a dimension of extent `extent`, taking the
    /// shorter way around the ring. Ties (exactly half way) go +1.
    pub fn axis_step(extent: usize, a: usize, b: usize) -> isize {
        if a == b {
            return 0;
        }
        let fwd = (b + extent - a) % extent; // steps going +1
        let bwd = (a + extent - b) % extent; // steps going -1
        if fwd <= bwd {
            1
        } else {
            -1
        }
    }

    /// Iterate over every coordinate of the torus in linear-index order.
    pub fn iter(&self) -> impl Iterator<Item = Coord3> + '_ {
        (0..self.node_count()).map(|i| self.delinearize(i))
    }
}

/// A coordinate in a 3D torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Coord3 {
    /// X position.
    pub x: usize,
    /// Y position.
    pub y: usize,
    /// Z position.
    pub z: usize,
}

impl Coord3 {
    /// Create a coordinate.
    pub fn new(x: usize, y: usize, z: usize) -> Self {
        Self { x, y, z }
    }

    /// Component along dimension `d` (0 = x, 1 = y, 2 = z).
    pub fn component(&self, d: usize) -> usize {
        match d {
            0 => self.x,
            1 => self.y,
            2 => self.z,
            // bgl-lint: allow(r1, reason = "API contract: dimension indices are the literals 0..3 at every call site")
            _ => panic!("coordinate dimension index {d} out of range (0..3)"),
        }
    }

    /// Return a copy with dimension `d` set to `v`.
    fn with_component(mut self, d: usize, v: usize) -> Self {
        match d {
            0 => self.x = v,
            1 => self.y = v,
            2 => self.z = v,
            // bgl-lint: allow(r1, reason = "API contract: dimension indices are the literals 0..3 at every call site")
            _ => panic!("coordinate dimension index {d} out of range (0..3)"),
        }
        self
    }

    /// Move one step along dimension `d` in direction `dir` (±1), with
    /// wrap-around in a torus of dimensions `dims`.
    pub fn step(&self, dims: TorusDims, d: usize, dir: isize) -> Coord3 {
        let extent = dims.extent(d);
        let cur = self.component(d);
        let next = match dir {
            1 => (cur + 1) % extent,
            -1 => (cur + extent - 1) % extent,
            // bgl-lint: allow(r1, reason = "API contract: routing only ever passes axis_step's ±1 outputs")
            _ => panic!("step direction must be +1 or -1, got {dir}"),
        };
        self.with_component(d, next)
    }

    /// The six (or fewer, in degenerate tori) nearest neighbours.
    pub fn neighbors(&self, dims: TorusDims) -> Vec<Coord3> {
        let mut out = Vec::with_capacity(6);
        for d in 0..3 {
            if dims.extent(d) > 1 {
                out.push(self.step(dims, d, 1));
                if dims.extent(d) > 2 {
                    out.push(self.step(dims, d, -1));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linearize_roundtrip() {
        let dims = TorusDims::new(4, 3, 2);
        for i in 0..dims.node_count() {
            let c = dims.delinearize(i);
            assert!(dims.contains(c));
            assert_eq!(dims.linearize(c), i);
        }
    }

    #[test]
    fn axis_distance_wraps() {
        assert_eq!(TorusDims::axis_distance(8, 0, 7), 1);
        assert_eq!(TorusDims::axis_distance(8, 1, 5), 4);
        assert_eq!(TorusDims::axis_distance(8, 2, 2), 0);
        assert_eq!(TorusDims::axis_distance(5, 0, 3), 2);
    }

    #[test]
    fn axis_step_takes_shorter_way() {
        assert_eq!(TorusDims::axis_step(8, 0, 7), -1);
        assert_eq!(TorusDims::axis_step(8, 0, 1), 1);
        assert_eq!(TorusDims::axis_step(8, 3, 3), 0);
        // Exactly half way: tie goes +1.
        assert_eq!(TorusDims::axis_step(8, 0, 4), 1);
    }

    #[test]
    fn step_wraps_both_directions() {
        let dims = TorusDims::new(4, 4, 4);
        let c = Coord3::new(3, 0, 2);
        assert_eq!(c.step(dims, 0, 1), Coord3::new(0, 0, 2));
        assert_eq!(c.step(dims, 1, -1), Coord3::new(3, 3, 2));
    }

    #[test]
    fn neighbors_full_torus() {
        let dims = TorusDims::new(4, 4, 4);
        let n = Coord3::new(1, 1, 1).neighbors(dims);
        assert_eq!(n.len(), 6);
        // All at hop distance 1.
        for nb in n {
            let d = TorusDims::axis_distance(4, 1, nb.x)
                + TorusDims::axis_distance(4, 1, nb.y)
                + TorusDims::axis_distance(4, 1, nb.z);
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn neighbors_degenerate_dims() {
        // z extent 1: no z links. y extent 2: single y neighbour.
        let dims = TorusDims::new(4, 2, 1);
        let n = Coord3::new(0, 0, 0).neighbors(dims);
        assert_eq!(n.len(), 3); // +x, -x, +y(==-y)
    }

    #[test]
    fn node_count() {
        assert_eq!(TorusDims::new(64, 32, 32).node_count(), 65536);
        assert_eq!(TorusDims::new(32, 32, 32).node_count(), 32768);
    }

    #[test]
    fn iter_covers_all_nodes() {
        let dims = TorusDims::new(3, 2, 2);
        let all: Vec<_> = dims.iter().collect();
        assert_eq!(all.len(), 12);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 12);
    }

    #[test]
    #[should_panic]
    fn zero_dimension_rejected() {
        TorusDims::new(0, 4, 4);
    }
}
