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
//! This is a deliberately independent code path from
//! [`crate::bfs2d`] — the paper notes 1D is equivalent to 2D with
//! `R = 1`, and the test suite *proves* our two implementations agree on
//! labels and on fold wire volume, which cross-validates both.

use crate::bfs2d::{BfsResult, FoldOut};
use crate::config::{BfsConfig, FoldStrategy};
use crate::state::{gather_levels, RankState};
use crate::stats::{LevelStats, RunStats};
use bgl_comm::collectives::{
    alltoall::alltoallv, reduce_scatter::reduce_scatter_union_ring, two_phase::two_phase_fold,
    Groups,
};
use bgl_comm::{CommError, OpClass, Phase, SimWorld, Vert};
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
    let p = grid.len();

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
        let time_at_start = world.time();
        let comm_at_start = world.comm_time();
        let codec_at_start = world.codec_time();
        let comm_snapshot = world.stats.clone();

        let frontier_sizes: Vec<u64> = states.iter().map(|s| s.frontier_len()).collect();
        let global_frontier = world.allreduce_sum(&frontier_sizes);
        world.trace_span(Phase::Termination, level, time_at_start);
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

        // Steps 8–13: send N_q to owner q.
        let t_fold = world.time();
        let nbar: FoldOut = match config.fold {
            FoldStrategy::DirectAllToAll => {
                let sends: Vec<Vec<(usize, Vec<Vert>)>> = blocks
                    .into_iter()
                    .map(|bs| {
                        bs.into_iter()
                            .enumerate()
                            .filter(|(_, b)| !b.is_empty())
                            .collect()
                    })
                    .collect();
                FoldOut::PerSender(
                    alltoallv(world, OpClass::Fold, &row_groups, sends)?
                        .into_iter()
                        .map(|inbox| inbox.into_iter().map(|(_, pl)| pl).collect())
                        .collect(),
                )
            }
            FoldStrategy::ReduceScatterUnion => FoldOut::Union(reduce_scatter_union_ring(
                world,
                OpClass::Fold,
                &row_groups,
                blocks,
            )?),
            FoldStrategy::TwoPhaseRing => {
                FoldOut::Union(two_phase_fold(world, OpClass::Fold, &row_groups, blocks)?)
            }
        };

        world.trace_span(Phase::Fold, level, t_fold);

        // Steps 14–16: label new vertices.
        let t_absorb = world.time();
        match &nbar {
            FoldOut::PerSender(lists) => {
                let _: Vec<u64> = states.par_iter_mut().zip(lists).map_collect(|s, lists| {
                    let refs: Vec<&[Vert]> = lists.iter().map(Vec::as_slice).collect();
                    s.absorb(&refs, level + 1)
                });
            }
            FoldOut::Union(sets) => {
                let _: Vec<u64> = states
                    .par_iter_mut()
                    .zip(sets)
                    .map_collect(|s, set| s.absorb_set(set, level + 1));
            }
        }
        drop(nbar);
        let probes: Vec<u64> = states.iter_mut().map(RankState::take_probes).collect();
        world.hash_phase(&probes);

        if let Some(t) = config.target {
            let flags: Vec<bool> = states.iter().map(|s| s.level_of(t).is_some()).collect();
            if world.allreduce_or(&flags) {
                target_level = Some(level + 1);
            }
        }
        world.trace_span(Phase::Absorb, level, t_absorb);
        world.trace_span(Phase::Level, level, time_at_start);

        let delta = world.stats.minus(&comm_snapshot);
        level_records.push(LevelStats {
            level,
            frontier: global_frontier,
            expand_received: delta.class(OpClass::Expand).received_verts,
            fold_received: delta.class(OpClass::Fold).received_verts,
            dups_eliminated: delta.total_dups_eliminated(),
            sim_time: world.time() - time_at_start,
            comm_time: world.comm_time() - comm_at_start,
            list_unions: delta.setops.list_unions,
            bitmap_unions: delta.setops.bitmap_unions,
            densify_switches: delta.setops.densify_switches,
            logical_bytes: delta.total_logical_bytes(),
            wire_bytes: delta.total_wire_bytes(),
            codec_time: world.codec_time() - codec_at_start,
            // 1D BFS is top-down only.
            ..LevelStats::default()
        });

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
        stats: RunStats {
            levels: level_records,
            sim_time: world.time(),
            comm_time: world.comm_time(),
            compute_time: world.compute_time(),
            codec_time: world.codec_time(),
            reached,
            comm: world.stats.clone(),
            p,
        },
        target_level,
        levels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bgl_comm::ProcessorGrid;
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
