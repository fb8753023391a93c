//! # bgl-bfs — facade crate
//!
//! One-stop re-export of the SC'05 BlueGene/L distributed BFS
//! reproduction:
//!
//! * [`torus`] (`bgl-torus`) — the 3D torus machine model;
//! * [`comm`] (`bgl-comm`) — rank runtimes and collectives;
//! * [`graph`] (`bgl-graph`) — distributed Poisson/R-MAT graphs;
//! * [`core`] (`bfs-core`) — the BFS algorithms and theory;
//! * [`trace`] (`bgl-trace`) — structured tracing: Chrome trace export,
//!   torus link heatmaps, critical-path analysis;
//! * [`server`] (`bgl-server`) — the batched query-serving layer
//!   (multi-source lane-masked BFS, admission queue, result cache).
//!
//! See the workspace README for a tour and `examples/` for runnable
//! entry points (`cargo run --release --example quickstart`).

#![forbid(unsafe_code)]

pub use bfs_core as core;
pub use bgl_comm as comm;
pub use bgl_graph as graph;
pub use bgl_server as server;
pub use bgl_torus as torus;
pub use bgl_trace as trace;

pub use bfs_core::{
    bfs2d, bidir, theory, validate, BfsConfig, DirectionPolicy, ExpandStrategy, FoldStrategy,
    GroupShard, LevelDirection, ParityGroups, ResilientConfig, ValidationError, ValidationReport,
};
pub use bgl_comm::{
    CommError, FaultPlan, ProcessorGrid, SimWorld, WireFormat, WireMode, WirePolicy,
};
pub use bgl_graph::{DistGraph, GraphSpec};
pub use bgl_server::{BglServer, ServerConfig, WorkloadSpec};
pub use bgl_trace::{CriticalPath, LinkHeatmap, TraceDetail};
