//! # bgl-bench — experiment harness
//!
//! Shared plumbing for the binaries in `src/bin/`: the `fig*`/`table*`
//! binaries regenerate the tables and figures of the paper's evaluation
//! section, and the `bench_*`/`chaos_sweep` binaries write the gated
//! `BENCH_*.json` reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod exp;
pub mod harness;

pub use harness::{Args, Row, Table};
