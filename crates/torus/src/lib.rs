//! # bgl-torus — BlueGene/L-style 3D torus machine model
//!
//! This crate is the hardware substrate for the SC'05 distributed BFS
//! reproduction. The paper (Yoo et al., *A Scalable Distributed Parallel
//! Breadth-First Search Algorithm on BlueGene/L*) evaluates on the
//! 32,768-node BlueGene/L, whose compute nodes are interconnected as a
//! 3D torus with bi-directional nearest-neighbour links. The BFS
//! collectives of the paper (§3.2) are designed specifically around that
//! torus: ring communication within processor groups, and a task mapping
//! that folds the 2D logical processor array onto physical torus planes
//! (paper Figure 1).
//!
//! Since the physical machine is unavailable, this crate models the parts
//! of it the algorithm's performance depends on:
//!
//! * [`coord`] — torus coordinates and wrap-around arithmetic;
//! * [`routing`] — dimension-ordered (e-cube) routing and hop distances;
//! * [`machine`] — machine presets (BlueGene/L full/half system, the MCR
//!   Linux cluster used as the paper's conventional comparison platform);
//! * [`mapping`] — the Figure 1 task mapping from an `Lx × Ly` logical
//!   processor array onto torus planes, plus naive mappings for ablation;
//! * [`cost`] — an α–β–hop communication cost model with per-link
//!   accounting, used by `bgl-comm` to derive simulated times;
//! * [`fault`] — deterministic, seeded fault plans (lossy messaging,
//!   scheduled rank deaths); links are always live, so routes stay
//!   dimension-ordered under every plan.
//!
//! The model is deliberately analytic rather than cycle-accurate: the
//! paper's claims we reproduce are about message counts, sizes, hop
//! structure and their scaling, not absolute wall-clock seconds.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coord;
pub mod cost;
pub mod fault;
pub mod machine;
pub mod mapping;
pub mod routing;

pub use coord::{Coord3, TorusDims};
pub use cost::{CostModel, LinkTraffic, TransferCost};
pub use fault::{Delivery, FaultPlan, RankDeath};
pub use machine::{MachineConfig, MachineKind};
pub use mapping::{LogicalArray, TaskMapping, TaskMappingKind};
pub use routing::{diameter, hop_distance, mean_hop_distance, route_dimension_ordered, RouteStep};
