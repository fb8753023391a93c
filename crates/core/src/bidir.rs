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

use crate::config::BfsConfig;
use crate::state::RankState;
use crate::stats::{LevelDirection, LevelSnapshot, RunStats};
use crate::step::{charge_probes, check_input, expand_discover, fold_absorb};
use bgl_comm::collectives::Groups;
use bgl_comm::{CommError, Phase, SimWorld};
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
/// Communication faults surface as typed errors, and so does bad input
/// ([`CommError::InvalidConfig`]): a world whose grid is not the
/// graph's, or a source or target outside the graph.
pub fn try_run(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &BfsConfig,
    source: Vertex,
    target: Vertex,
) -> Result<BidirResult, CommError> {
    check_input(
        graph,
        world,
        &[
            (source, "the source is out of range"),
            (target, "the target is out of range"),
        ],
    )?;
    let grid = world.grid();
    let p = grid.len();

    if source == target {
        return Ok(BidirResult {
            distance: Some(0),
            stats: RunStats::from_world(world, Vec::new(), 1),
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

        let snapshot = LevelSnapshot::take(world);

        let (states, other, depth, frontier_size) = match side {
            Side::Source => (&mut st_s, &st_t, &mut depth_s, gs),
            Side::Target => (&mut st_t, &st_s, &mut depth_t, gt),
        };
        let next_level = *depth as u32 + 1;

        // --- one full level of the chosen side (expand/discover/fold).
        let blocks = expand_discover(
            world,
            config.expand,
            &col_groups,
            states,
            iter,
            LevelDirection::TopDown,
        )?;
        fold_absorb(
            world,
            config.fold,
            &row_groups,
            states,
            blocks,
            iter,
            next_level,
        )?;
        let t_absorb = world.time();

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
        let probes = charge_probes(world, states.iter_mut());
        candidate = candidate.min(world.allreduce_min(&best_local));
        // Absorb also covers meet detection and the min-allreduce.
        world.trace_span(Phase::Absorb, iter, t_absorb);
        world.trace_span(Phase::Level, iter, snapshot.time());
        *depth += 1;

        // Bi-directional search alternates sides, not directions.
        level_records.push(snapshot.finish(
            world,
            iter,
            frontier_size,
            LevelDirection::TopDown,
            probes,
        ));
        iter += 1;
    }

    let reached: u64 = st_s.iter().map(|s| s.reached()).sum::<u64>()
        + st_t.iter().map(|s| s.reached()).sum::<u64>();
    Ok(BidirResult {
        distance: (candidate != u64::MAX).then_some(candidate as u32),
        stats: RunStats::from_world(world, level_records, reached),
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
            // Every half-step is a top-down level that charged probes.
            assert!(
                got.stats
                    .levels
                    .iter()
                    .all(|l| l.td_probes > 0 && l.bu_probes == 0),
                "s={s} t={t}"
            );
            assert!(got.stats.total_probes() > 0, "s={s} t={t}");
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
        // On a world that has already searched, the early exit reports
        // the world's cumulative clocks and counters like every other
        // exit.
        let spec = GraphSpec::poisson(100, 4.0, 2);
        let grid = ProcessorGrid::new(1, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let _ = try_run(&graph, &mut world, &BfsConfig::default(), 0, 50).unwrap();
        assert!(world.time() > 0.0);
        let got = try_run(&graph, &mut world, &BfsConfig::default(), 42, 42).unwrap();
        assert_eq!(got.distance, Some(0));
        assert!(got.stats.levels.is_empty());
        assert_eq!(got.stats.reached, 1);
        assert_eq!(got.stats.comm, world.stats);
        for (clock, x, y) in [
            ("sim", got.stats.sim_time, world.time()),
            ("comm", got.stats.comm_time, world.comm_time()),
            ("compute", got.stats.compute_time, world.compute_time()),
            ("codec", got.stats.codec_time, world.codec_time()),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{clock} time");
        }
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
