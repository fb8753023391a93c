//! # bfs-core — scalable distributed-parallel breadth-first search
//!
//! Reproduction of *A Scalable Distributed Parallel Breadth-First Search
//! Algorithm on BlueGene/L* (Yoo, Chow, Henderson, McLendon,
//! Hendrickson, Çatalyürek — SC 2005). The crate implements the paper's
//! algorithms on the simulation substrate provided by `bgl-torus`,
//! `bgl-comm`, and `bgl-graph`:
//!
//! * [`bfs2d`] — Algorithm 2, the 2D (edge) partitioning with *expand*
//!   (processor-column) and *fold* (processor-row) collectives,
//!   configurable across the paper's communication strategies. Run on a
//!   `1 × P` grid it is Algorithm 1, the 1D (vertex) partitioning: every
//!   processor-column is one rank, so the expand sends nothing (§2.2).
//!   Also home of the fault-tolerant engine ([`bfs2d::run_resilient`])
//!   that survives lossy exchanges and rank deaths via level-synchronous
//!   checkpoint/recover with bit-identical recovery;
//! * [`bidir`] — the §2.3 bi-directional search;
//! * [`theory`] — the §3.1 analytic message-length bounds (γ function)
//!   and the Figure 6.b 1D/2D crossover-degree solver;
//! * [`state`] — the per-rank data structures (levels, frontier,
//!   sent-neighbors cache, hash-probe accounting);
//! * [`threaded_run`] — the same BFS on a real one-thread-per-rank
//!   message-passing runtime, for engine cross-validation;
//! * [`mod@reference`] — the sequential oracle every variant is tested
//!   against.
//!
//! ## Quick example
//!
//! ```
//! use bfs_core::{bfs2d, BfsConfig};
//! use bgl_comm::{ProcessorGrid, SimWorld};
//! use bgl_graph::{DistGraph, GraphSpec};
//!
//! // A Poisson random graph with 10,000 vertices, average degree 10,
//! // distributed over a 4 x 8 processor grid (simulated BlueGene/L).
//! let spec = GraphSpec::poisson(10_000, 10.0, 42);
//! let grid = ProcessorGrid::new(4, 8);
//! let graph = DistGraph::build(spec, grid);
//! let mut world = SimWorld::bluegene(grid);
//!
//! let result = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0)?;
//! assert!(result.stats.reached > 9_000); // giant component at k = 10
//! println!(
//!     "levels: {}, simulated time: {:.3} ms",
//!     result.stats.num_levels(),
//!     result.stats.sim_time * 1e3
//! );
//! # Ok::<(), bgl_comm::CommError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bfs2d;
pub mod bidir;
pub mod config;
pub mod memory;
pub mod multi;
pub mod parity;
pub mod path;
pub mod reference;
pub mod state;
pub mod stats;
mod step;
pub mod theory;
pub mod threaded_run;
pub mod validate;

pub use bfs2d::{BfsResult, ResilientBfsResult, ResilientConfig};
pub use bidir::BidirResult;
pub use config::{BfsConfig, DirectionPolicy, ExpandStrategy, FoldStrategy};
pub use multi::{MultiBfsResult, MultiConfig};
pub use parity::{GroupShard, ParityGroups};
pub use path::MultiPathResult;
pub use reference::UNREACHED;
pub use stats::{LevelDirection, LevelStats, RunStats};
pub use threaded_run::ThreadedConfig;
pub use validate::{validate_against_spec, validate_levels, ValidationError, ValidationReport};
