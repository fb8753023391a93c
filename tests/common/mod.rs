//! Helpers shared by the integration tests: the 1-worker serial
//! reference run and the bit-identity check every parallel run is held
//! to.

#![allow(dead_code)]

use bgl_bfs::core::BfsResult;

/// Worker count of the sequential reference run.
pub const SERIAL: usize = 1;
/// Worker count of the parallel run compared against it (wider than a
/// small host's core count, so chunking is exercised everywhere).
pub const PARALLEL: usize = 4;

/// Run `f` once on [`SERIAL`] and once on [`PARALLEL`] host workers. The
/// override is scoped to this thread, so concurrent tests cannot race.
pub fn serial_and_parallel<R>(f: impl Fn() -> R) -> (R, R) {
    (
        rayon::with_worker_threads(SERIAL, &f),
        rayon::with_worker_threads(PARALLEL, &f),
    )
}

/// Assert two runs are bit-identical: labels, per-level statistics,
/// message counters, and the simulated, communication, compute and codec
/// clocks to the last bit.
pub fn assert_bit_identical(a: &BfsResult, b: &BfsResult, what: &str) {
    assert_eq!(a.levels, b.levels, "{what}: levels");
    assert_eq!(a.stats.levels, b.stats.levels, "{what}: level stats");
    assert_eq!(a.stats.comm, b.stats.comm, "{what}: comm stats");
    for (clock, x, y) in [
        ("sim", a.stats.sim_time, b.stats.sim_time),
        ("comm", a.stats.comm_time, b.stats.comm_time),
        ("compute", a.stats.compute_time, b.stats.compute_time),
        ("codec", a.stats.codec_time, b.stats.codec_time),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {clock} time");
    }
}
