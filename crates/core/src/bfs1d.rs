//! Distributed breadth-first expansion with 1D partitioning — the
//! paper's Algorithm 1, implemented directly.
//!
//! Under 1D (vertex) partitioning each processor owns a contiguous
//! vertex range *and the complete edge lists* of those vertices, so
//! there is no expand phase: neighbors are discovered locally and sent
//! straight to their owners (the fold; "the communication step in the 1D
//! partitioning is the same as the fold operation in the 2D
//! partitioning", §2.2).
//!
//! What stays independent of [`crate::bfs2d`] is what makes this
//! Algorithm 1: the `1 × P` layout, no expand phase, and discovery
//! straight from each rank's own frontier. The fold, absorb and
//! per-level bookkeeping are the level step the 2D engines share,
//! and the test suite checks this engine against `bfs2d` on the same
//! `1 × P` grid level record by level record (§2.2: 1D is 2D with
//! `R = 1`).

use crate::bfs2d::BfsResult;
use crate::config::BfsConfig;
use crate::state::{gather_levels, RankState};
use crate::stats::{LevelDirection, LevelSnapshot, RunStats};
use crate::step::{charge_probes, fold_absorb};
use bgl_comm::collectives::Groups;
use bgl_comm::{CommError, Phase, SimWorld, Vert};
use bgl_graph::{DistGraph, Vertex};
use rayon::ParallelSliceMut;

/// Run Algorithm 1 from `source`. The graph must be distributed on a
/// `1 × P` grid (the conventional 1D partitioning). Communication
/// faults surface as typed errors.
pub fn try_run(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &BfsConfig,
    source: Vertex,
) -> Result<BfsResult, CommError> {
    let grid = world.grid();
    assert_eq!(grid, graph.grid(), "world and graph grids must match");
    assert_eq!(
        grid.rows(),
        1,
        "Algorithm 1 requires the 1 x P (1D) processor layout"
    );
    assert!(source < graph.spec.n, "source out of range");

    // With R = 1 the only group is the single processor-row: all of P.
    let row_groups = Groups::rows_of(grid);

    let mut states: Vec<RankState<'_>> = graph
        .ranks
        .iter()
        .map(|rg| RankState::new(rg, graph.partition, config.sent_neighbors))
        .collect();
    states[graph.partition.owner_of(source)].init_source(source);

    let mut level_records = Vec::new();
    let mut target_level = None;
    let mut level: u32 = 0;

    loop {
        if config.max_levels > 0 && level >= config.max_levels {
            break;
        }
        let snapshot = LevelSnapshot::take(world);

        let frontier_sizes: Vec<u64> = states.iter().map(|s| s.frontier_len()).collect();
        let global_frontier = world.allreduce_sum(&frontier_sizes);
        world.trace_span(Phase::Termination, level, snapshot.time());
        if global_frontier == 0 {
            break;
        }

        // Local discovery straight from the frontier: N ← neighbors of F
        // (Algorithm 1 step 7). Edge lists are complete at the owner.
        let t_discover = world.time();
        let blocks: Vec<Vec<Vec<Vert>>> = states
            .par_iter_mut()
            .map(|s| {
                let f = std::mem::take(&mut s.frontier);
                let out = s.discover(&[&f]);
                s.frontier = f;
                out
            })
            .collect();
        world.trace_span(Phase::Discover, level, t_discover);

        // Steps 8–16: send N_q to owner q, label new vertices.
        fold_absorb(
            world,
            config.fold,
            &row_groups,
            &mut states,
            blocks,
            level,
            level + 1,
        )?;
        let t_absorb = world.time();
        let probes = charge_probes(world, &mut states);

        if let Some(t) = config.target {
            let flags: Vec<bool> = states.iter().map(|s| s.level_of(t).is_some()).collect();
            if world.allreduce_or(&flags) {
                target_level = Some(level + 1);
            }
        }
        world.trace_span(Phase::Absorb, level, t_absorb);
        world.trace_span(Phase::Level, level, snapshot.time());
        level_records.push(snapshot.finish(
            world,
            level,
            global_frontier,
            LevelDirection::TopDown,
            probes,
        ));

        if target_level.is_some() {
            break;
        }
        level += 1;
    }

    if let Some(t) = config.target {
        if t == source {
            target_level = Some(0);
        }
    }

    let levels = gather_levels(&states, graph.spec.n);
    let reached = states.iter().map(|s| s.reached()).sum();
    Ok(BfsResult {
        stats: RunStats::from_world(world, level_records, reached),
        target_level,
        levels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FoldStrategy;
    use crate::reference;
    use bgl_comm::{OpClass, ProcessorGrid};
    use bgl_graph::GraphSpec;

    #[test]
    fn matches_oracle() {
        let spec = GraphSpec::poisson(300, 6.0, 8);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        for p in [1, 2, 5, 8] {
            let grid = ProcessorGrid::one_d(p);
            let graph = DistGraph::build(spec, grid);
            let mut world = SimWorld::bluegene(grid);
            let got = try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
            assert_eq!(got.levels, expect, "p={p}");
        }
    }

    #[test]
    fn equivalent_to_2d_with_r_equals_1() {
        // Paper §2.2: "The conventional 1D partitioning is equivalent to
        // the 2D partitioning with R = 1". Same labels AND same fold
        // wire volume.
        let spec = GraphSpec::poisson(400, 7.0, 15);
        let grid = ProcessorGrid::one_d(6);
        let graph = DistGraph::build(spec, grid);
        let config = BfsConfig::default();

        let mut w1 = SimWorld::bluegene(grid);
        let one_d = try_run(&graph, &mut w1, &config, 3).unwrap();
        let mut w2 = SimWorld::bluegene(grid);
        let two_d = crate::bfs2d::try_run(&graph, &mut w2, &config, 3).unwrap();

        assert_eq!(one_d.levels, two_d.levels);
        assert_eq!(
            one_d.stats.comm.class(OpClass::Fold).received_verts,
            two_d.stats.comm.class(OpClass::Fold).received_verts,
        );
        // 2D with R = 1 has no expand wire traffic either.
        assert_eq!(two_d.stats.comm.class(OpClass::Expand).received_verts, 0);
        assert_eq!(one_d.stats.comm.class(OpClass::Expand).received_verts, 0);
    }

    #[test]
    fn all_fold_strategies_agree() {
        let spec = GraphSpec::poisson(350, 8.0, 21);
        let grid = ProcessorGrid::one_d(7);
        let graph = DistGraph::build(spec, grid);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 5);
        for fold in [
            FoldStrategy::DirectAllToAll,
            FoldStrategy::ReduceScatterUnion,
            FoldStrategy::TwoPhaseRing,
        ] {
            let mut world = SimWorld::bluegene(grid);
            let config = BfsConfig {
                fold,
                ..BfsConfig::default()
            };
            let got = try_run(&graph, &mut world, &config, 5).unwrap();
            assert_eq!(got.levels, expect, "{fold:?}");
        }
    }

    #[test]
    #[should_panic(expected = "1 x P")]
    fn rejects_2d_grid() {
        let spec = GraphSpec::poisson(100, 4.0, 1);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let _ = try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
    }

    #[test]
    fn single_rank_no_communication() {
        let spec = GraphSpec::poisson(150, 5.0, 4);
        let grid = ProcessorGrid::one_d(1);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
        assert_eq!(got.stats.comm.total_received(), 0);
        assert!(got.stats.reached > 1);
    }
}
