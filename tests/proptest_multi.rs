//! Property-based checks on the batched multi-source BFS engine
//! (`bfs_core::multi`): on random graphs, grids, and source batches
//! (duplicates included), every lane of a batched run is bit-identical
//! to its standalone single-source `bfs2d::try_run`, under serial and rayon
//! host engines and raw and adaptive wire codecs alike — and the whole
//! batch passes the Graph500-style per-lane validator.

use bgl_bfs::core::{bfs2d, multi, BfsConfig, ComputeEngine};
use bgl_bfs::{DistGraph, GraphSpec, ProcessorGrid, SimWorld, WirePolicy};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Family {
    Poisson,
    Rmat,
}

fn any_engine() -> impl Strategy<Value = ComputeEngine> {
    prop_oneof![
        Just(ComputeEngine::Serial),
        Just(ComputeEngine::Rayon),
        Just(ComputeEngine::Auto),
    ]
}

fn any_wire() -> impl Strategy<Value = WirePolicy> {
    prop_oneof![Just(WirePolicy::raw()), Just(WirePolicy::auto())]
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

    /// Batched lanes ≡ single-source runs, across engines × wires.
    #[test]
    fn lanes_equal_single_source_runs(
        (spec, grid) in instance(),
        srcs in sources(200),
        engine in any_engine(),
        wire in any_wire(),
    ) {
        let srcs: Vec<u64> = srcs.into_iter().map(|s| s % spec.n).collect();
        let graph = DistGraph::build(spec, grid);
        let cfg = multi::MultiConfig { engine, ..multi::MultiConfig::default() };
        let mut world = SimWorld::bluegene(grid).with_wire_policy(wire);
        let r = multi::try_run(&graph, &mut world, &cfg, &srcs).unwrap();
        prop_assert_eq!(r.lanes(), srcs.len());
        for (lane, &s) in srcs.iter().enumerate() {
            let mut w = SimWorld::bluegene(grid).with_wire_policy(wire);
            let single = bfs2d::try_run(
                &graph,
                &mut w,
                &BfsConfig::paper_optimized().with_engine(engine),
                s,
            ).unwrap();
            prop_assert_eq!(
                &r.lane_levels[lane],
                &single.levels,
                "lane {} (source {}) diverged", lane, s
            );
        }
        multi::validate_lanes(&spec, &r).expect("per-lane Graph500-style validation");
    }

    /// Serial and rayon batched runs are bit-identical down to the
    /// simulated clock and probe counters, under both wire codecs.
    #[test]
    fn engines_bit_identical(
        (spec, grid) in instance(),
        srcs in sources(200),
        wire in any_wire(),
    ) {
        let srcs: Vec<u64> = srcs.into_iter().map(|s| s % spec.n).collect();
        let graph = DistGraph::build(spec, grid);
        let run_with = |engine| {
            let cfg = multi::MultiConfig { engine, ..multi::MultiConfig::default() };
            let mut world = SimWorld::bluegene(grid).with_wire_policy(wire);
            let r = multi::try_run(&graph, &mut world, &cfg, &srcs).unwrap();
            (r.lane_levels, world.time().to_bits(), r.total_probes)
        };
        prop_assert_eq!(
            run_with(ComputeEngine::Serial),
            run_with(ComputeEngine::Rayon)
        );
    }
}
