//! # bgl-comm — rank-based SPMD message-passing substrate
//!
//! The SC'05 BFS paper runs as an MPI-style SPMD program whose custom
//! collectives are built from point-to-point messages on the BlueGene/L
//! torus. This crate provides that layer for the reproduction, with two
//! interchangeable execution engines:
//!
//! * [`sim::SimWorld`] — a deterministic **superstep simulator**. The BFS
//!   algorithm is level-synchronous, so ranks only interact at collective
//!   boundaries; the simulator executes every rank's compute phase within
//!   one address space and routes messages between supersteps, while an
//!   α–β–hop cost model ([`bgl_torus::CostModel`]) attributes simulated
//!   time. This engine scales to tens of thousands of *simulated* ranks
//!   and is what the benchmark harness uses.
//! * [`threaded::ThreadedWorld`] — a real multi-threaded SPMD runtime
//!   (one OS thread per rank, `std::sync::mpsc` channels) for modest rank
//!   counts; used by the examples and to validate that the simulator and
//!   a real message-passing execution agree.
//!
//! Both engines accept a deterministic [`bgl_torus::FaultPlan`]: lossy
//! exchanges retransmit (charged through the cost model and counted in
//! [`stats::FaultStats`]), routes detour around dead links, and scheduled
//! rank deaths surface as typed [`error::CommError`]s instead of panics,
//! so the BFS layer can checkpoint and recover.
//!
//! On top of the engines, [`collectives`] implements the communication
//! patterns the paper studies:
//!
//! * targeted all-to-all (`alltoallv`) exchanges,
//! * ring all-gather,
//! * reduce-scatter with **set-union** reduction (the "union-fold"),
//! * the §3.2.2 **two-phase grouped-ring** fold and expand, which split a
//!   group into an `m × n` subgrid and pipeline messages in O(m+n) ring
//!   steps while unioning duplicates on the fly.
//!
//! All payloads are vertex indices (`u64`), matching the paper's messages.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod buffer;
pub mod collectives;
pub mod error;
pub mod lane;
pub mod setops;
pub mod sim;
pub mod stats;
pub mod threaded;
pub mod topology;
pub mod vset;
pub mod wire;

pub use buffer::ChunkPolicy;
pub use error::CommError;
pub use lane::{LaneMask, LaneSet, MAX_LANES};
pub use sim::SimWorld;
pub use stats::{CommStats, FaultStats, OpClass, SetOpStats};
pub use threaded::{ThreadedWorld, WireCount};
pub use topology::ProcessorGrid;
pub use vset::{VertSet, VsetPolicy};
pub use wire::{WireFormat, WireMode, WirePolicy};

// Fault plans are authored against the torus model; re-export so BFS
// layers need not depend on `bgl_torus` directly to configure faults.
pub use bgl_torus::{ChaosSpec, FaultPlan, RankDeath};

// Trace types surface on both runtimes' handles; re-export so BFS
// layers can emit spans without depending on `bgl_trace` directly.
pub use bgl_trace::{EventKind, Phase, TraceBuffer, TraceDetail, TraceSink};

/// Vertex index payload type used in all messages (matches the paper's
/// global vertex indices; 64-bit so multi-billion-vertex configurations
/// remain addressable).
pub type Vert = u64;

/// Payload bytes occupied by one vertex index on the wire.
pub const VERT_BYTES: u64 = std::mem::size_of::<Vert>() as u64;
