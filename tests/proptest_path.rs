//! Property-based checks on the lane-masked batched path walk
//! (`bfs_core::path::try_multi`): on random graphs, grids, and target
//! batches (duplicates and unreached targets included), every lane of a
//! batched walk is byte-identical to its standalone `try_extract_path`,
//! whichever host worker count built the level array and whichever wire codec
//! carries the rounds — and lossy control rounds (drops + duplicates)
//! retry without changing a single extracted path.

mod common;

use bgl_bfs::core::{bfs2d, path, BfsConfig};
use bgl_bfs::{DistGraph, FaultPlan, GraphSpec, ProcessorGrid, SimWorld, WirePolicy};
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

fn any_family() -> impl Strategy<Value = Family> {
    prop_oneof![Just(Family::Poisson), Just(Family::Rmat)]
}

/// Small random instances: n in the hundreds keeps a proptest case in
/// the low milliseconds while still crossing rank boundaries on every
/// grid shape. Sparse Poisson families routinely leave vertices
/// unreached, exercising the never-activated lanes.
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

/// 1..=8 targets, drawn with replacement so duplicate-target batches
/// (two lanes walking the same downhill chain) are exercised; the
/// source itself may be drawn, exercising trivial lanes.
fn targets(n_max: u64) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0..n_max, 1..=8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Batched lanes ≡ standalone extractions, across worker counts × wires.
    #[test]
    fn lanes_equal_standalone_extractions(
        (spec, grid) in instance(),
        source in 0u64..200,
        tgts in targets(200),
        workers in any_workers(),
        wire in any_wire(),
    ) {
        let source = source % spec.n;
        let tgts: Vec<u64> = tgts.into_iter().map(|t| t % spec.n).collect();
        let graph = DistGraph::build(spec, grid);
        let (levels, r) = rayon::with_worker_threads(workers, || {
            let mut bfs_world = SimWorld::bluegene(grid).with_wire_policy(wire);
            let levels = bfs2d::try_run(&graph, &mut bfs_world, &BfsConfig::paper_optimized(), source)
                .unwrap()
                .levels;
            let mut world = SimWorld::bluegene(grid).with_wire_policy(wire);
            let r = path::try_multi(&graph, &mut world, &levels, source, &tgts).unwrap();
            (levels, r)
        });
        prop_assert_eq!(r.paths.len(), tgts.len());
        prop_assert_eq!(r.rounds, 3 * u64::from(r.hops), "three rounds per hop");
        for (lane, &t) in tgts.iter().enumerate() {
            let mut w = SimWorld::bluegene(grid).with_wire_policy(wire);
            let single = path::try_extract_path(&graph, &mut w, &levels, source, t).unwrap();
            prop_assert_eq!(
                &r.paths[lane],
                &single,
                "lane {} (target {}) diverged", lane, t
            );
        }
    }

    /// Lossy control rounds (drops and duplicates) are retried away:
    /// the faulty-world walk returns exactly the clean-world paths.
    #[test]
    fn lossy_control_rounds_leave_paths_unchanged(
        (spec, grid) in instance(),
        source in 0u64..200,
        tgts in targets(200),
        fault_seed in 0u64..1_000,
        drop in 0.05f64..0.4,
        dup in 0.0f64..0.2,
    ) {
        let source = source % spec.n;
        let tgts: Vec<u64> = tgts.into_iter().map(|t| t % spec.n).collect();
        let graph = DistGraph::build(spec, grid);
        let mut clean = SimWorld::bluegene(grid);
        let levels = bfs2d::try_run(&graph, &mut clean, &BfsConfig::paper_optimized(), source).unwrap().levels;
        let want = path::try_multi(&graph, &mut clean, &levels, source, &tgts).unwrap().paths;

        let plan = FaultPlan::seeded(fault_seed)
            .with_control_drop_prob(drop)
            .with_control_duplicate_prob(dup);
        let mut faulty = SimWorld::bluegene(grid).with_fault_plan(plan);
        faulty.set_control_faultable(true);
        let got = path::try_multi(&graph, &mut faulty, &levels, source, &tgts)
            .expect("retries ride out lossy control rounds");
        prop_assert_eq!(got.paths, want, "faults must not change extracted paths");
    }
}
