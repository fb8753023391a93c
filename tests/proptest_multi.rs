//! Property-based checks on the batched multi-source BFS engine
//! (`bfs_core::multi`): on random graphs, grids, and source batches
//! (duplicates included), every lane of a batched run is bit-identical
//! to its standalone single-source `bfs2d::try_run`, whether its waves
//! run top-down, adaptively or bottom-up, on one host worker or many
//! and under raw and adaptive wire codecs alike — and the whole batch
//! passes the Graph500-style per-lane validator.

mod common;

use bgl_bfs::core::{bfs2d, multi, BfsConfig, DirectionPolicy};
use bgl_bfs::{DistGraph, GraphSpec, ProcessorGrid, SimWorld, WirePolicy};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Family {
    Poisson,
    Rmat,
}

fn any_workers() -> impl Strategy<Value = usize> {
    prop_oneof![Just(common::SERIAL), Just(2), Just(common::PARALLEL)]
}

fn any_wire() -> impl Strategy<Value = WirePolicy> {
    prop_oneof![Just(WirePolicy::raw()), Just(WirePolicy::auto())]
}

fn any_direction() -> impl Strategy<Value = multi::MultiConfig> {
    prop_oneof![
        Just(DirectionPolicy::TopDown),
        Just(DirectionPolicy::Adaptive),
        Just(DirectionPolicy::BottomUp),
    ]
    .prop_map(|direction| multi::MultiConfig { direction })
}

fn any_family() -> impl Strategy<Value = Family> {
    prop_oneof![Just(Family::Poisson), Just(Family::Rmat)]
}

/// Small random instances: n in the hundreds keeps a proptest case in
/// the low milliseconds while still crossing rank boundaries on every
/// grid shape.
fn instance() -> impl Strategy<Value = (GraphSpec, ProcessorGrid)> {
    (
        any_family(),
        200u64..900,
        2.0f64..8.0,
        0u64..1_000,
        1usize..4,
        1usize..4,
    )
        .prop_map(|(family, n, k, seed, rows, cols)| {
            let spec = match family {
                Family::Poisson => GraphSpec::poisson(n, k, seed),
                Family::Rmat => GraphSpec::rmat(n, k, seed),
            };
            (spec, ProcessorGrid::new(rows, cols))
        })
}

/// 1..=6 sources, drawn with replacement so duplicate-source batches
/// (two lanes racing through identical frontiers) are exercised.
fn sources(n_max: u64) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0..n_max, 1..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched lanes ≡ single-source runs, across worker counts ×
    /// wires × directions.
    #[test]
    fn lanes_equal_single_source_runs(
        (spec, grid) in instance(),
        srcs in sources(200),
        workers in any_workers(),
        wire in any_wire(),
        cfg in any_direction(),
    ) {
        let srcs: Vec<u64> = srcs.into_iter().map(|s| s % spec.n).collect();
        let graph = DistGraph::build(spec, grid);
        let r = rayon::with_worker_threads(workers, || {
            let mut world = SimWorld::bluegene(grid).with_wire_policy(wire);
            multi::try_run(&graph, &mut world, &cfg, &srcs).unwrap()
        });
        prop_assert_eq!(r.lanes(), srcs.len());
        for (lane, &s) in srcs.iter().enumerate() {
            let single = rayon::with_worker_threads(workers, || {
                let mut w = SimWorld::bluegene(grid).with_wire_policy(wire);
                bfs2d::try_run(&graph, &mut w, &BfsConfig::paper_optimized(), s).unwrap()
            });
            prop_assert_eq!(
                &r.lane_levels[lane],
                &single.levels,
                "lane {} (source {}) diverged", lane, s
            );
        }
        multi::validate_lanes(&spec, &r).expect("per-lane Graph500-style validation");
    }

    /// 1-worker and many-worker batched runs are bit-identical down to
    /// the simulated clocks, probe counters and wave directions, under
    /// both wire codecs and every direction policy.
    #[test]
    fn engines_bit_identical(
        (spec, grid) in instance(),
        srcs in sources(200),
        wire in any_wire(),
        cfg in any_direction(),
    ) {
        let srcs: Vec<u64> = srcs.into_iter().map(|s| s % spec.n).collect();
        let graph = DistGraph::build(spec, grid);
        let (serial, parallel) = common::serial_and_parallel(|| {
            let mut world = SimWorld::bluegene(grid).with_wire_policy(wire);
            let r = multi::try_run(&graph, &mut world, &cfg, &srcs).unwrap();
            (
                r.lane_levels,
                r.waves
                    .iter()
                    .map(|w| (w.sim_time.to_bits(), w.direction))
                    .collect::<Vec<_>>(),
                world.time().to_bits(),
                r.sim_time.to_bits(),
                r.comm_time.to_bits(),
                world.compute_time().to_bits(),
                world.codec_time().to_bits(),
                world.stats.clone(),
                r.total_probes,
            )
        });
        prop_assert_eq!(serial, parallel);
    }
}
