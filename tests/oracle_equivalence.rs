//! Property-based oracle equivalence: every distributed BFS variant, on
//! every partitioning and strategy combination, must produce exactly the
//! sequential reference labels on the same generated graph.

use bgl_bfs::core::{bfs2d, bidir, reference};
use bgl_bfs::{
    BfsConfig, DistGraph, ExpandStrategy, FoldStrategy, GraphSpec, ProcessorGrid, SimWorld,
};
use proptest::prelude::*;

fn expand_strategy() -> impl Strategy<Value = ExpandStrategy> {
    prop_oneof![
        Just(ExpandStrategy::Targeted),
        Just(ExpandStrategy::AllGatherRing),
        Just(ExpandStrategy::TwoPhaseRing),
    ]
}

fn fold_strategy() -> impl Strategy<Value = FoldStrategy> {
    prop_oneof![
        Just(FoldStrategy::DirectAllToAll),
        Just(FoldStrategy::ReduceScatterUnion),
        Just(FoldStrategy::TwoPhaseRing),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bfs2d_matches_sequential_oracle(
        n in 50u64..400,
        k in 1u32..12,
        seed in 0u64..1000,
        r in 1usize..5,
        c in 1usize..5,
        source_frac in 0.0f64..1.0,
        expand in expand_strategy(),
        fold in fold_strategy(),
        sent in any::<bool>(),
    ) {
        let spec = GraphSpec::poisson(n, k as f64, seed);
        let source = ((n - 1) as f64 * source_frac) as u64;
        let adj = bgl_bfs::graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, source);

        let grid = ProcessorGrid::new(r, c);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let config = BfsConfig { expand, fold, sent_neighbors: sent, ..BfsConfig::default() };
        let got = bfs2d::try_run(&graph, &mut world, &config, source).unwrap();
        prop_assert_eq!(got.levels, expect);
    }

    #[test]
    fn one_d_grid_matches_sequential_oracle(
        n in 50u64..400,
        k in 1u32..12,
        seed in 0u64..1000,
        p in 1usize..9,
        fold in fold_strategy(),
    ) {
        let spec = GraphSpec::poisson(n, k as f64, seed);
        let adj = bgl_bfs::graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);

        let grid = ProcessorGrid::one_d(p);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let config = BfsConfig { fold, ..BfsConfig::default() };
        let got = bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
        prop_assert_eq!(got.levels, expect);
    }

    #[test]
    fn bidirectional_distance_matches_oracle(
        n in 50u64..300,
        k in 1u32..10,
        seed in 0u64..1000,
        r in 1usize..4,
        c in 1usize..4,
        s_frac in 0.0f64..1.0,
        t_frac in 0.0f64..1.0,
    ) {
        let spec = GraphSpec::poisson(n, k as f64, seed);
        let s = ((n - 1) as f64 * s_frac) as u64;
        let t = ((n - 1) as f64 * t_frac) as u64;
        let adj = bgl_bfs::graph::dist::adjacency(&spec);
        let expect = reference::distance(&adj, s, t);

        let grid = ProcessorGrid::new(r, c);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = bidir::try_run(&graph, &mut world, &BfsConfig::default(), s, t).unwrap();
        prop_assert_eq!(got.distance, expect);
    }

    #[test]
    fn small_world_graphs_also_match_oracle(
        n in 50u64..300,
        half_k in 1u32..5,
        rewire in 0.0f64..=1.0,
        seed in 0u64..500,
        r in 1usize..4,
        c in 1usize..4,
    ) {
        let spec = GraphSpec::small_world(n, (half_k * 2) as f64, rewire, seed);
        let adj = bgl_bfs::graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);

        let grid = ProcessorGrid::new(r, c);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = bfs2d::try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
        prop_assert_eq!(got.levels, expect);
    }

    #[test]
    fn rmat_graphs_also_match_oracle(
        scale in 6u32..9,
        k in 2u32..10,
        seed in 0u64..500,
        r in 1usize..4,
        c in 1usize..4,
    ) {
        let spec = GraphSpec::rmat(1u64 << scale, k as f64, seed);
        let adj = bgl_bfs::graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);

        let grid = ProcessorGrid::new(r, c);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = bfs2d::try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
        prop_assert_eq!(got.levels, expect);
    }
}

#[test]
fn early_exit_target_level_matches_oracle_distance() {
    let spec = GraphSpec::poisson(500, 6.0, 4242);
    let adj = bgl_bfs::graph::dist::adjacency(&spec);
    let grid = ProcessorGrid::new(3, 3);
    let graph = DistGraph::build(spec, grid);
    for t in [1u64, 250, 499, 123] {
        let expect = reference::distance(&adj, 0, t);
        let mut world = SimWorld::bluegene(grid);
        let got =
            bfs2d::try_run(&graph, &mut world, &BfsConfig::default().with_target(t), 0).unwrap();
        assert_eq!(got.target_level, expect, "target {t}");
    }
}
