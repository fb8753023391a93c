//! # bgl-graph — distributed graph substrate
//!
//! The SC'05 BFS paper searches **Poisson random graphs** ("the
//! probability of any two vertices being connected is equal" — i.e.
//! Erdős–Rényi G(n, p) with p = k/n for average degree k) distributed
//! over an `R × C` logical processor grid via the paper's 2D edge
//! partitioning. This crate builds those distributed graphs:
//!
//! * [`spec`] — graph specifications (`n`, average degree, seed, family);
//! * [`gen`] — the deterministic, grid-independent edge sampler:
//!   the adjacency matrix is covered by fixed-size *chunk cells*, and
//!   each cell's lower-triangle entries are drawn by geometric
//!   skip-sampling from a stream seeded by `(seed, cell)`; mirroring
//!   makes the matrix exactly symmetric. Any cell can be regenerated
//!   independently, so construction parallelizes and the same `(n, k,
//!   seed)` triple yields the same graph under every partitioning —
//!   which the strong-scaling and topology-comparison experiments rely
//!   on. An R-MAT generator is included as a robustness extension;
//! * [`partition`] — the paper's §2.2 two-dimensional partition:
//!   `R·C` block rows and `C` block columns, processor `(i, j)` owning
//!   block row `j·R + i`; 1D is the degenerate `R = 1` (or `C = 1`) case;
//! * [`csr`] — per-rank storage of **partial edge lists**, indexing only
//!   non-empty lists (§2.4.1), with row-local `u32` adjacency and the
//!   §2.4.2 local index mappings answered by rank queries;
//! * [`dist`] — [`dist::DistGraph`]: the fully built distributed graph,
//!   including the expand-targeting tables (which column peers hold a
//!   non-empty partial list for each owned vertex, §2.2/§3.1) and a
//!   sequential adjacency oracle for validation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod csr;
pub mod dist;
pub mod gen;
pub mod partition;
pub mod spec;
pub mod stats;

pub use csr::PartialEdgeLists;
pub use dist::{rebuild_rank, DistGraph, RankGraph};
pub use gen::{cell_entries, for_each_entry, ChunkGrid};
pub use partition::TwoDPartition;
pub use spec::{GraphFamily, GraphSpec};
pub use stats::{connected_components, degrees, DegreeStats};

/// Global vertex identifier (the paper's global index).
pub type Vertex = u64;
