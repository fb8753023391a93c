//! Determinism and reproducibility: every run is a pure function of
//! (spec, grid, config, source) — the property the whole experiment
//! harness rests on.

use bgl_bfs::comm::VsetPolicy;
use bgl_bfs::core::bfs2d;
use bgl_bfs::{BfsConfig, DistGraph, GraphSpec, ProcessorGrid, SimWorld};

#[test]
fn identical_runs_produce_identical_stats() {
    let spec = GraphSpec::poisson(1_000, 8.0, 1234);
    let grid = ProcessorGrid::new(3, 3);
    let run = || {
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 5).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.levels, b.levels);
    assert_eq!(a.stats.levels, b.stats.levels);
    assert_eq!(a.stats.comm, b.stats.comm);
    assert_eq!(a.stats.sim_time.to_bits(), b.stats.sim_time.to_bits());
}

#[test]
fn graph_identical_across_grid_shapes() {
    // The generated graph depends only on the spec: total entries match
    // across every partitioning (cell sampling is grid-independent).
    let spec = GraphSpec::poisson(5_000, 6.0, 99);
    let counts: Vec<u64> = [(1, 1), (2, 2), (4, 8), (32, 1), (1, 32)]
        .iter()
        .map(|&(r, c)| DistGraph::build(spec, ProcessorGrid::new(r, c)).total_entries())
        .collect();
    for w in counts.windows(2) {
        assert_eq!(w[0], w[1], "entry counts differ across grids: {counts:?}");
    }
}

#[test]
fn different_seeds_change_results_same_seed_does_not() {
    let grid = ProcessorGrid::new(2, 2);
    let levels_for = |seed: u64| {
        let spec = GraphSpec::poisson(800, 5.0, seed);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        bfs2d::try_run(&graph, &mut world, &BfsConfig::default(), 0)
            .unwrap()
            .levels
    };
    assert_eq!(levels_for(7), levels_for(7));
    assert_ne!(levels_for(7), levels_for(8));
}

#[test]
fn hybrid_frontier_representation_is_bit_identical_to_list_only() {
    // The bitmap/list hybrid is a pure representation change: on a dense
    // oracle-checked graph the hybrid run must produce the same labels
    // AND the same clock bits as a list-only run, while actually taking
    // the bitmap path.
    let spec = GraphSpec::poisson(1_500, 16.0, 71);
    let adj = bgl_bfs::graph::dist::adjacency(&spec);
    let expect = bgl_bfs::core::reference::bfs_levels(&adj, 0);
    let grid = ProcessorGrid::new(2, 4);
    let graph = DistGraph::build(spec, grid);
    let run = |policy: VsetPolicy| {
        let mut world = SimWorld::bluegene(grid).with_vset_policy(policy);
        bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0).unwrap()
    };
    let hybrid = run(VsetPolicy::hybrid());
    let listy = run(VsetPolicy::list_only());
    assert_eq!(hybrid.levels, expect, "hybrid run matches the oracle");
    assert_eq!(listy.levels, expect, "list-only run matches the oracle");
    assert!(
        hybrid.stats.comm.setops.bitmap_unions > 0,
        "dense graph must exercise the bitmap representation"
    );
    assert_eq!(listy.stats.comm.setops.bitmap_unions, 0);
    assert_eq!(
        hybrid.stats.sim_time.to_bits(),
        listy.stats.sim_time.to_bits(),
        "representation change must not move the simulated clock"
    );
    assert_eq!(
        hybrid.stats.comm_time.to_bits(),
        listy.stats.comm_time.to_bits()
    );
    assert_eq!(
        hybrid.stats.compute_time.to_bits(),
        listy.stats.compute_time.to_bits()
    );
    // Logical message accounting identical too (unions differ only in
    // representation counters).
    assert_eq!(
        hybrid.stats.comm.total_received(),
        listy.stats.comm.total_received()
    );
    assert_eq!(
        hybrid.stats.comm.total_dups_eliminated(),
        listy.stats.comm.total_dups_eliminated()
    );
}

#[test]
fn world_reset_restores_clean_slate() {
    let spec = GraphSpec::poisson(600, 6.0, 11);
    let grid = ProcessorGrid::new(2, 3);
    let graph = DistGraph::build(spec, grid);
    let mut world = SimWorld::bluegene(grid);
    let a = bfs2d::try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
    world.reset();
    let b = bfs2d::try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
    assert_eq!(a.levels, b.levels);
    assert_eq!(a.stats.sim_time.to_bits(), b.stats.sim_time.to_bits());
    assert_eq!(a.stats.comm, b.stats.comm);
}
