//! Graph specifications.

use serde::{Deserialize, Serialize};

/// Random-graph family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GraphFamily {
    /// Poisson random graph: every unordered vertex pair is an edge
    /// independently with probability `k / n` (the paper's model).
    Poisson,
    /// R-MAT recursive-matrix graph with the given quadrant weights
    /// (extension; skewed degrees stress the load-balance assumptions the
    /// paper's Poisson analysis makes).
    RMat {
        /// Probability mass of the top-left quadrant.
        a: f64,
        /// Probability mass of the top-right quadrant.
        b: f64,
        /// Probability mass of the bottom-left quadrant.
        c: f64,
    },
    /// Watts–Strogatz small-world graph (extension): a ring lattice with
    /// `k/2` neighbours on each side, each lattice edge rewired to a
    /// random target with probability `rewire`. Semantic graphs — the
    /// paper's motivating workload — are small-world networks; unlike
    /// the Poisson model this family has high clustering and strong
    /// locality in the vertex numbering.
    SmallWorld {
        /// Per-edge rewiring probability (0 = pure lattice, 1 ≈ random).
        rewire: f64,
    },
}

impl GraphFamily {
    /// The Graph500 reference R-MAT parameters (a=0.57, b=c=0.19).
    fn rmat_graph500() -> Self {
        GraphFamily::RMat {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// Full description of a random graph instance: everything the
/// deterministic generator needs.
///
/// ```
/// use bgl_graph::GraphSpec;
/// let spec = GraphSpec::poisson(1_000_000, 10.0, 42);
/// assert!((spec.edge_probability() - 1e-5).abs() < 1e-18);
/// // ~ n·k adjacency entries, the paper's "edges":
/// assert!((spec.expected_nonzeros() - 1e7).abs() < 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GraphSpec {
    /// Number of vertices.
    pub n: u64,
    /// Target average degree `k`; edge probability is `k / n`.
    pub avg_degree: f64,
    /// Generator seed; same spec (including seed) ⇒ same graph,
    /// regardless of how many processors the graph is partitioned over.
    pub seed: u64,
    /// Graph family.
    pub family: GraphFamily,
}

impl GraphSpec {
    /// A Poisson random graph spec.
    pub fn poisson(n: u64, avg_degree: f64, seed: u64) -> Self {
        assert!(n >= 1, "graph must have at least one vertex");
        assert!(avg_degree >= 0.0, "average degree must be non-negative");
        assert!(
            avg_degree < n as f64,
            "average degree {avg_degree} infeasible for n={n}"
        );
        Self {
            n,
            avg_degree,
            seed,
            family: GraphFamily::Poisson,
        }
    }

    /// An R-MAT spec with Graph500 parameters.
    pub fn rmat(n: u64, avg_degree: f64, seed: u64) -> Self {
        let mut s = Self::poisson(n, avg_degree, seed);
        s.family = GraphFamily::rmat_graph500();
        s
    }

    /// A Watts–Strogatz small-world spec. `avg_degree` must be an even
    /// integer ≥ 2 (the lattice has `k/2` neighbours per side).
    pub fn small_world(n: u64, avg_degree: f64, rewire: f64, seed: u64) -> Self {
        assert!(
            avg_degree >= 2.0 && avg_degree.fract() == 0.0 && (avg_degree as u64).is_multiple_of(2),
            "small-world degree must be an even integer >= 2, got {avg_degree}"
        );
        assert!((0.0..=1.0).contains(&rewire), "rewire must be in [0, 1]");
        let mut s = Self::poisson(n, avg_degree, seed);
        s.family = GraphFamily::SmallWorld { rewire };
        s
    }

    /// The per-pair edge probability `k / n` (Poisson family).
    pub fn edge_probability(&self) -> f64 {
        self.avg_degree / self.n as f64
    }

    /// Expected number of adjacency-matrix nonzeros, `≈ n·k` (each
    /// undirected edge appears twice; this is how the paper counts
    /// "edges": 3.2 billion vertices with k = 10 ⇒ "32 billion edges").
    pub fn expected_nonzeros(&self) -> f64 {
        self.n as f64 * self.avg_degree * (self.n as f64 - 1.0) / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_spec_probability() {
        let s = GraphSpec::poisson(1000, 10.0, 42);
        assert!((s.edge_probability() - 0.01).abs() < 1e-12);
        // Expected nonzeros ~ n*k.
        assert!((s.expected_nonzeros() - 9990.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic]
    fn infeasible_degree_rejected() {
        GraphSpec::poisson(10, 10.0, 0);
    }

    #[test]
    fn small_world_spec_validation() {
        let s = GraphSpec::small_world(1000, 8.0, 0.1, 3);
        assert!(matches!(s.family, GraphFamily::SmallWorld { rewire } if rewire == 0.1));
    }

    #[test]
    #[should_panic(expected = "even integer")]
    fn small_world_odd_degree_rejected() {
        GraphSpec::small_world(1000, 7.0, 0.1, 3);
    }

    #[test]
    #[should_panic(expected = "rewire")]
    fn small_world_bad_rewire_rejected() {
        GraphSpec::small_world(1000, 8.0, 1.5, 3);
    }

    #[test]
    fn rmat_uses_graph500_params() {
        let s = GraphSpec::rmat(1 << 10, 16.0, 7);
        match s.family {
            GraphFamily::RMat { a, b, c } => {
                assert!((a - 0.57).abs() < 1e-12);
                assert!((b - 0.19).abs() < 1e-12);
                assert!((c - 0.19).abs() < 1e-12);
            }
            _ => panic!("expected RMat"),
        }
    }
}
