//! Direction-optimizing BFS cross-validation: the adaptive top-down /
//! bottom-up switch must never change the per-vertex levels — only how
//! much work it takes to compute them. Checked across host worker counts,
//! wire codecs, both runtimes, and under injected faults.

mod common;

use bgl_bfs::comm::FaultPlan;
use bgl_bfs::core::{bfs2d, threaded_run, validate, LevelDirection, ThreadedConfig};
use bgl_bfs::{
    BfsConfig, DirectionPolicy, DistGraph, GraphSpec, ProcessorGrid, ResilientConfig, SimWorld,
    WireMode, WirePolicy,
};
use common::{assert_bit_identical, serial_and_parallel, PARALLEL, SERIAL};
use proptest::prelude::*;

/// The tentpole equivalence matrix: direction-optimized levels are
/// bit-identical to the pure top-down run across {1 worker, many} ×
/// {raw, auto, bitmap} wire modes, and the adaptive run really does
/// switch (otherwise the matrix tests nothing).
#[test]
fn adaptive_is_bit_identical_across_engines_and_wire_modes() {
    let spec = GraphSpec::rmat(8_000, 12.0, 99);
    let grid = ProcessorGrid::new(3, 4);
    let graph = DistGraph::build(spec, grid);

    let mut world = SimWorld::bluegene(grid);
    let reference = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0).unwrap();

    for workers in [SERIAL, PARALLEL] {
        for mode in [WireMode::Raw, WireMode::Auto, WireMode::Bitmap] {
            let r = rayon::with_worker_threads(workers, || {
                let config = BfsConfig::direction_optimized();
                let mut world =
                    SimWorld::bluegene(grid).with_wire_policy(WirePolicy::with_mode(mode));
                bfs2d::try_run(&graph, &mut world, &config, 0).unwrap()
            });
            assert_eq!(
                r.levels, reference.levels,
                "levels diverged under {workers} workers / {mode:?}"
            );
            let (_, bu) = r.stats.direction_split();
            assert!(
                bu > 0,
                "adaptive run never went bottom-up ({workers} workers/{mode:?})"
            );
            assert!(
                r.stats.total_probes() < reference.stats.total_probes(),
                "bottom-up levels must reduce hash probes ({workers} workers/{mode:?})"
            );
        }
    }
}

/// The bottom-up discover kernel is bit-identical on one host worker and
/// on many, all the way down: same per-level stats and the same clocks.
#[test]
fn rayon_bottom_up_kernel_is_bit_identical_to_serial() {
    let spec = GraphSpec::rmat(6_000, 10.0, 17);
    let grid = ProcessorGrid::new(2, 4);
    let graph = DistGraph::build(spec, grid);
    let (serial, parallel) = serial_and_parallel(|| {
        let config = BfsConfig::direction_optimized();
        let mut world = SimWorld::bluegene(grid).with_wire_policy(WirePolicy::auto());
        bfs2d::try_run(&graph, &mut world, &config, 0).unwrap()
    });
    assert_bit_identical(&serial, &parallel, "adaptive");
    assert!(serial.stats.direction_split().1 > 0, "never went bottom-up");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bottom-up discover equals top-down discover on arbitrary
    /// frontiers: forcing every level bottom-up walks the same level
    /// sets as pure top-down on arbitrary graphs, grids, and sent-cache
    /// settings (each level of the walk hands the kernel an arbitrary
    /// frontier shape).
    #[test]
    fn forced_bottom_up_equals_top_down(
        n in 60u64..300,
        k in 1u32..10,
        seed in 0u64..500,
        r in 1usize..4,
        c in 1usize..4,
        sent in any::<bool>(),
    ) {
        let spec = GraphSpec::poisson(n, k as f64, seed);
        let grid = ProcessorGrid::new(r, c);
        let graph = DistGraph::build(spec, grid);
        let run = |direction: DirectionPolicy| {
            let config = BfsConfig {
                sent_neighbors: sent,
                ..BfsConfig::paper_optimized()
            }
            .with_direction(direction);
            let mut world = SimWorld::bluegene(grid);
            bfs2d::try_run(&graph, &mut world, &config, 0).unwrap()
        };
        let td = run(DirectionPolicy::TopDown);
        let bu = run(DirectionPolicy::BottomUp);
        let adaptive = run(DirectionPolicy::Adaptive);
        prop_assert_eq!(&td.levels, &bu.levels);
        prop_assert_eq!(&td.levels, &adaptive.levels);
    }

    /// The simulator and the one-thread-per-rank runtime make the same
    /// per-level direction choice and produce the same labels — the
    /// switch is a pure function of the allreduced counts, so neither
    /// runtime can drift.
    #[test]
    fn threaded_and_simulator_switch_identically(
        n in 100u64..400,
        k in 4u32..12,
        seed in 0u64..500,
        r in 1usize..4,
        c in 1usize..4,
    ) {
        let spec = GraphSpec::poisson(n, k as f64, seed);
        let grid = ProcessorGrid::new(r, c);
        let graph = DistGraph::build(spec, grid);

        let threaded_config = ThreadedConfig {
            wire: WirePolicy::auto(),
            direction: DirectionPolicy::Adaptive,
            ..ThreadedConfig::default()
        };
        let outs = threaded_run::run(&graph, 0, &threaded_config);
        let threaded = threaded_run::assemble(&graph, outs).unwrap();
        let (levels, directions) = (threaded.levels, threaded.directions);

        let config = BfsConfig {
            sent_neighbors: true,
            ..BfsConfig::baseline_alltoall()
        }
        .with_direction(DirectionPolicy::Adaptive);
        let mut world = SimWorld::bluegene(grid).with_wire_policy(WirePolicy::auto());
        let sim = bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
        prop_assert_eq!(levels, sim.levels);
        let sim_dirs: Vec<LevelDirection> =
            sim.stats.levels.iter().map(|l| l.direction).collect();
        prop_assert_eq!(directions, sim_dirs);
    }
}

/// Chaos case: a direction-optimized search that loses messages AND a
/// rank mid-run parity-recovers to the exact fault-free labelling and
/// passes the Graph500 validator.
#[test]
fn faulty_direction_optimized_run_recovers_and_validates() {
    let spec = GraphSpec::rmat(6_000, 10.0, 23);
    let grid = ProcessorGrid::new(2, 4);
    let graph = DistGraph::build(spec, grid);

    let mut world = SimWorld::bluegene(grid);
    let clean = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0).unwrap();

    let plan = FaultPlan::seeded(0xd1f)
        .with_drop_prob(0.1)
        .kill_rank_at(5, 3);
    let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
    let config = BfsConfig::direction_optimized();
    let resilient = ResilientConfig {
        parity_group_size: 4,
    };
    let res = bfs2d::run_resilient(&graph, &mut world, &config, 0, &resilient)
        .expect("single death must recover");
    assert_eq!(res.recoveries, 1);
    assert_eq!(res.result.levels, clean.levels);
    let report = validate::validate_against_spec(&graph.spec, &res.result.levels, 0)
        .expect("recovered direction-optimized run must validate");
    assert!(report.reached > 1);
}
