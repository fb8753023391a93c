//! Bi-directional distributed BFS (paper §2.3).
//!
//! Two level-synchronized searches run simultaneously — one from the
//! source, one from the destination — each using the full 2D expand /
//! fold machinery. The loop advances the side with the smaller global
//! frontier (keeping both frontiers small is exactly the advantage the
//! paper cites: "the frontier of the search remains small compared to
//! the uni-directional case. This reduces the communication volume as
//! well as the number of memory accesses").
//!
//! Meet detection: after absorbing a level, each rank checks its *newly
//! labeled* vertices against the other side's labels and tracks the
//! best `d_s(v) + d_t(v)`; an `allreduce_min` publishes the global
//! candidate. The search may not stop at first contact — it continues
//! until `depth_s + depth_t >= candidate`, which guarantees the returned
//! distance is exact (any shorter path would contain a doubly-labeled
//! vertex with a smaller sum).

use crate::bfs2d::FoldOut;
use crate::config::{BfsConfig, ExpandStrategy, FoldStrategy};
use crate::state::RankState;
use crate::stats::{LevelStats, RunStats};
use bgl_comm::collectives::{
    allgather::allgather_ring,
    alltoall::alltoallv,
    reduce_scatter::reduce_scatter_union_ring,
    two_phase::{two_phase_expand, two_phase_fold},
    Groups,
};
use bgl_comm::{CommError, OpClass, Phase, SimWorld, Vert};
use bgl_graph::{DistGraph, Vertex};
use rayon::ParallelSliceMut;

/// Outcome of a bi-directional search.
#[derive(Debug, Clone)]
pub struct BidirResult {
    /// Shortest-path distance between source and target, if connected.
    pub distance: Option<u32>,
    /// Run statistics (levels are the advanced half-steps, in order).
    pub stats: RunStats,
}

/// Which search direction a state vector belongs to.
#[derive(Clone, Copy, PartialEq)]
enum Side {
    Source,
    Target,
}

/// Run a bi-directional search between `source` and `target`.
/// Communication faults surface as typed errors.
pub fn try_run(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &BfsConfig,
    source: Vertex,
    target: Vertex,
) -> Result<BidirResult, CommError> {
    let grid = world.grid();
    assert_eq!(grid, graph.grid(), "world and graph grids must match");
    assert!(source < graph.spec.n && target < graph.spec.n);
    let p = grid.len();

    if source == target {
        return Ok(BidirResult {
            distance: Some(0),
            stats: RunStats {
                levels: Vec::new(),
                sim_time: 0.0,
                comm_time: 0.0,
                compute_time: 0.0,
                codec_time: 0.0,
                reached: 1,
                comm: world.stats.clone(),
                p,
            },
        });
    }

    let row_groups = Groups::rows_of(grid);
    let col_groups = Groups::cols_of(grid);

    let mut st_s: Vec<RankState<'_>> = graph
        .ranks
        .iter()
        .map(|rg| RankState::new(rg, graph.partition, config.sent_neighbors))
        .collect();
    let mut st_t: Vec<RankState<'_>> = graph
        .ranks
        .iter()
        .map(|rg| RankState::new(rg, graph.partition, config.sent_neighbors))
        .collect();
    st_s[graph.partition.owner_of(source)].init_source(source);
    st_t[graph.partition.owner_of(target)].init_source(target);

    // Per-rank best meet sum found so far.
    let mut best_local = vec![u64::MAX; p];
    let mut candidate = u64::MAX;
    let (mut depth_s, mut depth_t) = (0u64, 0u64);
    let mut level_records = Vec::new();
    let mut iter: u32 = 0;

    loop {
        if config.max_levels > 0 && iter >= 2 * config.max_levels {
            break;
        }
        if candidate <= depth_s + depth_t {
            break; // the candidate is provably the shortest distance.
        }
        let fs: Vec<u64> = st_s.iter().map(|s| s.frontier_len()).collect();
        let ft: Vec<u64> = st_t.iter().map(|s| s.frontier_len()).collect();
        let gs = world.allreduce_sum(&fs);
        let gt = world.allreduce_sum(&ft);
        if gs == 0 && gt == 0 {
            break; // both exhausted: disconnected (or candidate found).
        }
        // Advance the smaller live frontier.
        let side = if gs == 0 {
            Side::Target
        } else if gt == 0 || gs <= gt {
            Side::Source
        } else {
            Side::Target
        };

        let time_at_start = world.time();
        let comm_at_start = world.comm_time();
        let codec_at_start = world.codec_time();
        let comm_snapshot = world.stats.clone();

        let (states, other, depth, frontier_size) = match side {
            Side::Source => (&mut st_s, &st_t, &mut depth_s, gs),
            Side::Target => (&mut st_t, &st_s, &mut depth_t, gt),
        };
        let next_level = *depth as u32 + 1;

        // --- one full level of the chosen side (expand/discover/fold).
        let t_expand = world.time();
        let fbar: Vec<Vec<Vec<Vert>>> = match config.expand {
            ExpandStrategy::Targeted => {
                let sends: Vec<Vec<(usize, Vec<Vert>)>> = states
                    .par_iter_mut()
                    .map(RankState::expand_sends_targeted)
                    .collect();
                alltoallv(world, OpClass::Expand, &col_groups, sends)?
                    .into_iter()
                    .map(|inbox| inbox.into_iter().map(|(_, pl)| pl).collect())
                    .collect()
            }
            ExpandStrategy::AllGatherRing => {
                let contributions: Vec<Vec<Vert>> =
                    states.iter().map(|s| s.frontier.clone()).collect();
                allgather_ring(world, OpClass::Expand, &col_groups, contributions)?
                    .into_iter()
                    .map(|parts| parts.into_iter().map(|(_, pl)| pl).collect())
                    .collect()
            }
            ExpandStrategy::TwoPhaseRing => {
                let contributions: Vec<Vec<Vert>> =
                    states.iter().map(|s| s.frontier.clone()).collect();
                two_phase_expand(world, OpClass::Expand, &col_groups, contributions)?
                    .into_iter()
                    .map(|parts| parts.into_iter().map(|(_, pl)| pl).collect())
                    .collect()
            }
        };
        world.trace_span(Phase::Expand, iter, t_expand);
        let t_discover = world.time();
        let blocks: Vec<Vec<Vec<Vert>>> =
            states.par_iter_mut().zip(&fbar).map_collect(|s, lists| {
                let refs: Vec<&[Vert]> = lists.iter().map(Vec::as_slice).collect();
                s.discover(&refs)
            });
        drop(fbar);
        world.trace_span(Phase::Discover, iter, t_discover);
        let t_fold = world.time();
        let nbar: FoldOut = match config.fold {
            FoldStrategy::DirectAllToAll => {
                let sends: Vec<Vec<(usize, Vec<Vert>)>> = blocks
                    .into_iter()
                    .enumerate()
                    .map(|(rank, bs)| {
                        let i = grid.row_of(rank);
                        bs.into_iter()
                            .enumerate()
                            .filter(|(_, b)| !b.is_empty())
                            .map(|(m, b)| (grid.rank_of(i, m), b))
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
        world.trace_span(Phase::Fold, iter, t_fold);
        let t_absorb = world.time();
        match &nbar {
            FoldOut::PerSender(lists) => {
                let _: Vec<u64> = states.par_iter_mut().zip(lists).map_collect(|s, lists| {
                    let refs: Vec<&[Vert]> = lists.iter().map(Vec::as_slice).collect();
                    s.absorb(&refs, next_level)
                });
            }
            FoldOut::Union(sets) => {
                let _: Vec<u64> = states
                    .par_iter_mut()
                    .zip(sets)
                    .map_collect(|s, set| s.absorb_set(set, next_level));
            }
        }
        drop(nbar);

        // --- meet detection on the newly labeled frontier (each rank
        // probes its fresh labels against the other side's labels; the
        // per-rank minima merge into `best_local` in rank order).
        let meets: Vec<u64> = states.par_iter_mut().zip(other).map_collect(|s, o| {
            let mut best = u64::MAX;
            for &v in &s.frontier {
                s.probes += 1;
                if let Some(l_other) = o.level_of(v) {
                    best = best.min(next_level as u64 + l_other as u64);
                }
            }
            best
        });
        for (slot, m) in best_local.iter_mut().zip(&meets) {
            *slot = (*slot).min(*m);
        }
        let probes: Vec<u64> = states.iter_mut().map(RankState::take_probes).collect();
        world.hash_phase(&probes);
        candidate = candidate.min(world.allreduce_min(&best_local));
        // Absorb also covers meet detection and the min-allreduce.
        world.trace_span(Phase::Absorb, iter, t_absorb);
        world.trace_span(Phase::Level, iter, time_at_start);
        *depth += 1;

        let delta = world.stats.minus(&comm_snapshot);
        level_records.push(LevelStats {
            level: iter,
            frontier: frontier_size,
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
            // Bi-directional search alternates sides, not directions.
            ..LevelStats::default()
        });
        iter += 1;
    }

    let reached: u64 = st_s.iter().map(|s| s.reached()).sum::<u64>()
        + st_t.iter().map(|s| s.reached()).sum::<u64>();
    Ok(BidirResult {
        distance: (candidate != u64::MAX).then_some(candidate as u32),
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
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bgl_comm::ProcessorGrid;
    use bgl_graph::GraphSpec;

    fn check_distances(spec: GraphSpec, grid: ProcessorGrid, pairs: &[(u64, u64)]) {
        let adj = bgl_graph::dist::adjacency(&spec);
        let graph = DistGraph::build(spec, grid);
        for &(s, t) in pairs {
            let expect = reference::distance(&adj, s, t);
            let mut world = SimWorld::bluegene(grid);
            let got = try_run(&graph, &mut world, &BfsConfig::default(), s, t).unwrap();
            assert_eq!(got.distance, expect, "s={s} t={t}");
        }
    }

    #[test]
    fn exact_distances_on_random_graph() {
        let spec = GraphSpec::poisson(400, 6.0, 37);
        check_distances(
            spec,
            ProcessorGrid::new(2, 3),
            &[(0, 399), (1, 200), (5, 6), (17, 18), (100, 101)],
        );
    }

    #[test]
    fn exact_distances_sparse_long_paths() {
        // Sparse graph => long shortest paths; stresses the termination
        // condition (candidate vs depth sums).
        let spec = GraphSpec::poisson(600, 2.5, 53);
        check_distances(
            spec,
            ProcessorGrid::new(2, 2),
            &[(0, 599), (3, 300), (10, 550)],
        );
    }

    #[test]
    fn disconnected_returns_none() {
        let spec = GraphSpec::poisson(300, 1.2, 3);
        let adj = bgl_graph::dist::adjacency(&spec);
        let levels = reference::bfs_levels(&adj, 0);
        let t = (0..300u64)
            .find(|&v| levels[v as usize] == reference::UNREACHED)
            .expect("disconnected vertex exists at k=1.2");
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = try_run(&graph, &mut world, &BfsConfig::default(), 0, t).unwrap();
        assert_eq!(got.distance, None);
    }

    #[test]
    fn identical_endpoints() {
        let spec = GraphSpec::poisson(100, 4.0, 2);
        let grid = ProcessorGrid::new(1, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = try_run(&graph, &mut world, &BfsConfig::default(), 42, 42).unwrap();
        assert_eq!(got.distance, Some(0));
        assert!(got.stats.levels.is_empty());
    }

    #[test]
    fn adjacent_endpoints() {
        let spec = GraphSpec::poisson(200, 8.0, 11);
        let adj = bgl_graph::dist::adjacency(&spec);
        // Find an edge.
        let (s, t) = adj
            .iter()
            .enumerate()
            .find_map(|(v, list)| list.first().map(|&u| (v as u64, u)))
            .expect("graph has edges");
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = try_run(&graph, &mut world, &BfsConfig::default(), s, t).unwrap();
        assert_eq!(got.distance, Some(1));
    }

    #[test]
    fn bidirectional_moves_less_volume_than_unidirectional() {
        // Paper Figure 4.c: bi-directional search reduces message volume.
        let spec = GraphSpec::poisson(2000, 8.0, 101);
        let grid = ProcessorGrid::new(2, 4);
        let graph = DistGraph::build(spec, grid);
        let adj = bgl_graph::dist::adjacency(&spec);
        // Pick endpoints at distance >= 3 so both searches do real work.
        let levels = reference::bfs_levels(&adj, 0);
        let t = (0..2000u64)
            .rev()
            .find(|&v| levels[v as usize] >= 3 && levels[v as usize] != reference::UNREACHED)
            .expect("far vertex exists");

        let mut w_uni = SimWorld::bluegene(grid);
        let uni =
            crate::bfs2d::try_run(&graph, &mut w_uni, &BfsConfig::default().with_target(t), 0)
                .unwrap();
        let mut w_bi = SimWorld::bluegene(grid);
        let bi = try_run(&graph, &mut w_bi, &BfsConfig::default(), 0, t).unwrap();

        assert_eq!(bi.distance, Some(uni.target_level.unwrap()));
        assert!(
            bi.stats.total_received() < uni.stats.total_received(),
            "bi {} vs uni {}",
            bi.stats.total_received(),
            uni.stats.total_received()
        );
    }
}
