//! # bgl-server — BFS query serving over a resident distributed graph
//!
//! The paper's BFS is a one-shot kernel; this crate turns it into a
//! *service*: one loaded [`bgl_graph::DistGraph`] plus one simulated
//! runtime serve a stream of BFS queries ([`QueryKind::FullTraversal`],
//! [`QueryKind::Distance`], [`QueryKind::Path`]). The pieces:
//!
//! * [`server::BglServer`] — the serving loop. Pending queries are
//!   packed, up to `B` distinct sources at a time, into one lane-masked
//!   multi-source wave ([`bfs_core::multi`]), so one round of
//!   communication advances every query in the batch;
//! * [`queue::AdmissionQueue`] — bounded FIFO admission with
//!   backpressure (typed [`query::AdmissionError`]) and per-query
//!   deadlines measured on the server's deterministic tick clock;
//! * [`cache::ResultCache`] — cost-aware result cache keyed by
//!   `(graph_id, source)` (GreedyDual-Size: eviction weighs
//!   recomputation cost per resident byte, degenerating to exact LRU
//!   under equal weights); `Distance` hits and repeat traversals are
//!   answered from cached level arrays as a modelled memcpy, and `Path`
//!   hits are grouped into lane-masked batched walks
//!   ([`bfs_core::path::try_multi`]) over the cached arrays;
//! * [`workload::WorkloadSpec`] — seeded Zipfian source-popularity
//!   query generator for benchmarks and the CLI `serve` mode;
//! * [`stats::ServerStats`] — QPS / latency / batch-occupancy /
//!   cache-hit accounting, exported as `SERVER_summary.json`.
//!
//! Everything is deterministic: batch formation reads only the queue
//! order and the tick clock (no wall time in any decision path), the
//! workload is seeded, and the batched engine is bit-identical across
//! serial/rayon hosts — the same submission sequence always produces
//! the same responses, clocks, and summary.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod query;
pub mod queue;
pub mod server;
pub mod stats;
pub mod workload;

pub use cache::ResultCache;
pub use query::{AdmissionError, Outcome, QueryId, QueryKind, Request, Response, ServedBy};
pub use queue::AdmissionQueue;
pub use server::{BglServer, ServerConfig};
pub use stats::ServerStats;
pub use workload::{ArrivalProcess, QueryMix, WorkloadSpec};
