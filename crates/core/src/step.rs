//! The level step the simulated engines share: the paper's Algorithm 2
//! main loop body (expand, discover, fold, absorb), written once, plus
//! the fold routing, probe charge and control-exchange retry they have
//! in common. Both directions run the same expand; only the discover
//! kernel differs. Algorithm 1 (1D) is this step on a `1 × P` grid,
//! where every processor-column is a single rank and the expand sends
//! no message (§2.2). Each engine keeps its own termination round,
//! target or meet detection and Absorb and Level spans, and records its
//! levels through [`crate::stats::LevelSnapshot`].

use crate::config::{ExpandStrategy, FoldStrategy};
use crate::state::RankState;
use crate::stats::LevelDirection;
use bgl_comm::collectives::{
    allgather::allgather_ring,
    alltoall::alltoallv,
    reduce_scatter::reduce_scatter_union_ring,
    two_phase::{two_phase_expand, two_phase_fold},
    Groups,
};
use bgl_comm::{CommError, OpClass, Phase, ProcessorGrid, SimWorld, Vert, VertSet};
use bgl_graph::{DistGraph, Vertex};
use rayon::ParallelSliceMut;

/// Reject input an engine cannot run as [`CommError::InvalidConfig`]: a
/// world whose grid is not the graph's, or a vertex outside the graph
/// (each paired with the reason to report for it).
pub(crate) fn check_input(
    graph: &DistGraph,
    world: &SimWorld,
    vertices: &[(Vertex, &'static str)],
) -> Result<(), CommError> {
    let reason = if world.grid() != graph.grid() {
        "world and graph grids differ"
    } else if let Some(&(_, reason)) = vertices.iter().find(|&&(v, _)| v >= graph.spec.n) {
        reason
    } else {
        return Ok(());
    };
    Err(CommError::InvalidConfig { reason })
}

/// Drop the sender from every received `(sender, payload)` pair.
pub(crate) fn payloads<T>(inboxes: Vec<Vec<(usize, T)>>) -> Vec<Vec<T>> {
    inboxes
        .into_iter()
        .map(|inbox| inbox.into_iter().map(|(_, pl)| pl).collect())
        .collect()
}

/// Address every rank's fold blocks (one per grid column `m`) to the
/// processor-row peer `rank_of(row, m)` that owns block column `m`,
/// skipping empty blocks.
pub(crate) fn route_to_row_peers<T>(
    grid: ProcessorGrid,
    blocks: Vec<Vec<T>>,
    is_empty: impl Fn(&T) -> bool,
) -> Vec<Vec<(usize, T)>> {
    blocks
        .into_iter()
        .enumerate()
        .map(|(rank, bs)| {
            let row = grid.row_of(rank);
            bs.into_iter()
                .enumerate()
                .filter(|(_, b)| !is_empty(b))
                .map(|(m, b)| (grid.rank_of(row, m), b))
                .collect()
        })
        .collect()
}

/// Expand every rank's frontier over its processor-column by `expand`,
/// then discover the fold blocks from the received F̄ with the kernel of
/// `direction`. Emits the Expand span (Gather on a bottom-up level) and
/// the Discover span under `level`.
pub(crate) fn expand_discover(
    world: &mut SimWorld,
    expand: ExpandStrategy,
    col_groups: &Groups,
    states: &mut [RankState<'_>],
    level: u32,
    direction: LevelDirection,
) -> Result<Vec<Vec<Vec<Vert>>>, CommError> {
    let t_expand = world.time();
    let frontiers = |states: &[RankState<'_>]| states.iter().map(|s| s.frontier.clone()).collect();
    let fbar: Vec<Vec<Vec<Vert>>> = payloads(match expand {
        ExpandStrategy::Targeted => {
            let sends = states
                .par_iter_mut()
                .map(RankState::expand_sends_targeted)
                .collect();
            alltoallv(world, OpClass::Expand, col_groups, sends)?
        }
        ExpandStrategy::AllGatherRing => {
            allgather_ring(world, OpClass::Expand, col_groups, frontiers(states))?
        }
        ExpandStrategy::TwoPhaseRing => {
            two_phase_expand(world, OpClass::Expand, col_groups, frontiers(states))?
        }
    });
    let phase = match direction {
        LevelDirection::TopDown => Phase::Expand,
        LevelDirection::BottomUp => Phase::Gather,
    };
    world.trace_span(phase, level, t_expand);

    // Zero-duration span in the simulator: the probe costs are charged
    // with the absorb phase's hash pass.
    let t_discover = world.time();
    let blocks = states.par_iter_mut().zip(&fbar).map_collect(|s, lists| {
        let refs: Vec<&[Vert]> = lists.iter().map(Vec::as_slice).collect();
        match direction {
            LevelDirection::TopDown => s.discover(&refs),
            LevelDirection::BottomUp => s.discover_bottom_up(&refs),
        }
    });
    world.trace_span(Phase::Discover, level, t_discover);
    Ok(blocks)
}

/// Per-rank fold output: either one payload list per sender (direct
/// all-to-all — duplicate elimination happens at the receiver, one probe
/// per *occurrence*) or a single union set per rank (the union-fold
/// collectives, one probe per *element*).
enum FoldOut {
    /// One received list per sending row peer.
    PerSender(Vec<Vec<Vec<Vert>>>),
    /// One deduplicated union set per rank.
    Union(Vec<VertSet>),
}

/// Fold the discovered `blocks` over processor-rows by `fold`, emitting
/// the Fold span under `level`, then absorb the result: unlabeled owned
/// vertices get `next_level` and become each rank's new frontier.
pub(crate) fn fold_absorb(
    world: &mut SimWorld,
    fold: FoldStrategy,
    row_groups: &Groups,
    states: &mut [RankState<'_>],
    blocks: Vec<Vec<Vec<Vert>>>,
    level: u32,
    next_level: u32,
) -> Result<(), CommError> {
    let t_fold = world.time();
    let nbar = match fold {
        FoldStrategy::DirectAllToAll => {
            let sends = route_to_row_peers(world.grid(), blocks, Vec::is_empty);
            FoldOut::PerSender(payloads(alltoallv(
                world,
                OpClass::Fold,
                row_groups,
                sends,
            )?))
        }
        FoldStrategy::ReduceScatterUnion => FoldOut::Union(reduce_scatter_union_ring(
            world,
            OpClass::Fold,
            row_groups,
            blocks,
        )?),
        FoldStrategy::TwoPhaseRing => {
            FoldOut::Union(two_phase_fold(world, OpClass::Fold, row_groups, blocks)?)
        }
    };
    world.trace_span(Phase::Fold, level, t_fold);

    let _: Vec<u64> = match &nbar {
        FoldOut::PerSender(lists) => states.par_iter_mut().zip(lists).map_collect(|s, lists| {
            let refs: Vec<&[Vert]> = lists.iter().map(Vec::as_slice).collect();
            s.absorb(&refs, next_level)
        }),
        FoldOut::Union(sets) => states
            .par_iter_mut()
            .zip(sets)
            .map_collect(|s, set| s.absorb_set(set, next_level)),
    };
    Ok(())
}

/// Take every rank's probe count and charge it to the cost model as
/// the level's hash phase. Returns the probes summed over ranks.
pub(crate) fn charge_probes<'a, 'g: 'a>(
    world: &mut SimWorld,
    states: impl IntoIterator<Item = &'a mut RankState<'g>>,
) -> u64 {
    let probes: Vec<u64> = states.into_iter().map(RankState::take_probes).collect();
    world.hash_phase(&probes);
    probes.iter().sum()
}

/// Run a control-network exchange with bounded retry: transient
/// failures ([`CommError::Unreachable`], [`CommError::Timeout`]) charge
/// exponential backoff and re-roll the control fault schedule (each
/// attempt is a fresh control round); permanent errors propagate
/// immediately. Returns the last transient error once `attempts` (at
/// least one) have failed.
pub(crate) fn with_retry<T>(
    world: &mut SimWorld,
    attempts: u32,
    mut exchange: impl FnMut(&mut SimWorld) -> Result<T, CommError>,
) -> Result<T, CommError> {
    let mut retry = 0;
    loop {
        match exchange(world) {
            Err(e @ (CommError::Unreachable { .. } | CommError::Timeout { .. })) => {
                world.charge_recovery_backoff(retry);
                retry += 1;
                if retry >= attempts {
                    return Err(e);
                }
            }
            done => return done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs2d::{self, ResilientConfig};
    use crate::path::{self, MultiPathConfig};
    use crate::{bidir, BfsConfig};
    use bgl_comm::MAX_LANES;
    use bgl_graph::GraphSpec;

    #[test]
    fn bad_input_is_a_typed_error_in_every_engine() {
        let grid = ProcessorGrid::new(2, 2);
        let g = &DistGraph::build(GraphSpec::rmat(500, 8.0, 3), grid);
        let n = g.spec.n;
        let (cfg, rc) = (&BfsConfig::default(), &ResilientConfig::default());
        let to_n = &BfsConfig::default().with_target(n);
        let pc = &MultiPathConfig::default();
        let mut world = SimWorld::bluegene(grid);
        let full = bfs2d::try_run(g, &mut world, cfg, 3).unwrap().levels;
        let (lv, short) = (&full[..], &full[..full.len() - 1]);
        let wide: Vec<Vertex> = (0..=MAX_LANES as u64).collect();
        let w = &mut world;
        let other = &mut SimWorld::bluegene(ProcessorGrid::new(1, 4));
        let grids = "world and graph grids differ";
        let (src, tgt) = ("the source is out of range", "the target is out of range");
        let (labels, rooted) = ("one label per vertex", "not rooted at the source");
        let (any_tgt, none, many) = ("a target is out", "at least one target", "at most 64");
        for (got, want) in [
            (bfs2d::try_run(g, other, cfg, 3).map(drop), grids),
            (bfs2d::try_run(g, w, cfg, n).map(drop), src),
            (bfs2d::run_resilient(g, other, cfg, 3, rc).map(drop), grids),
            (bfs2d::run_resilient(g, w, cfg, n, rc).map(drop), src),
            (bfs2d::try_run(g, w, to_n, 3).map(drop), tgt),
            (bfs2d::run_resilient(g, w, to_n, 3, rc).map(drop), tgt),
            (bidir::try_run(g, other, cfg, 3, 7).map(drop), grids),
            (bidir::try_run(g, w, cfg, n, 7).map(drop), src),
            (bidir::try_run(g, w, cfg, 3, n).map(drop), tgt),
            (path::try_extract_path(g, other, lv, 3, 7).map(drop), grids),
            (path::try_extract_path(g, w, short, 3, 7).map(drop), labels),
            (path::try_extract_path(g, w, lv, n, 7).map(drop), src),
            (path::try_extract_path(g, w, lv, 3, n).map(drop), tgt),
            (path::try_extract_path(g, w, lv, 7, 3).map(drop), rooted),
            (path::try_multi(g, other, lv, 3, &[7], pc).map(drop), grids),
            (path::try_multi(g, w, short, 3, &[7], pc).map(drop), labels),
            (path::try_multi(g, w, lv, n, &[7], pc).map(drop), src),
            (path::try_multi(g, w, lv, 7, &[3], pc).map(drop), rooted),
            (path::try_multi(g, w, lv, 3, &[7, n], pc).map(drop), any_tgt),
            (path::try_multi(g, w, lv, 3, &[], pc).map(drop), none),
            (path::try_multi(g, w, lv, 3, &wide, pc).map(drop), many),
        ] {
            match got {
                Err(CommError::InvalidConfig { reason }) => {
                    assert!(reason.contains(want), "{reason:?} should say {want:?}")
                }
                other => panic!("expected InvalidConfig ({want}), got {other:?}"),
            }
        }
    }

    #[test]
    fn retry_charges_one_backoff_per_transient_failure() {
        let grid = ProcessorGrid::new(2, 2);
        for failures in 0..4u32 {
            let mut world = SimWorld::bluegene(grid);
            let mut calls = 0;
            let got = with_retry(&mut world, 4, |_| {
                calls += 1;
                if calls <= failures {
                    Err(CommError::Timeout { rank: 0, round: 0 })
                } else {
                    Ok(calls)
                }
            });
            assert_eq!(got, Ok(failures + 1));
            let mut expect = SimWorld::bluegene(grid);
            for retry in 0..failures {
                expect.charge_recovery_backoff(retry);
            }
            assert_eq!(world.time().to_bits(), expect.time().to_bits());
            assert_eq!(world.comm_time().to_bits(), expect.comm_time().to_bits());
        }

        // Every attempt fails: the last failure is charged too, and
        // its error comes back. Zero attempts still run one.
        for (attempts, runs) in [(3u32, 3u32), (0, 1)] {
            let mut world = SimWorld::bluegene(grid);
            let mut calls = 0;
            let got: Result<(), _> = with_retry(&mut world, attempts, |_| {
                calls += 1;
                Err(CommError::Unreachable {
                    from: 0,
                    to: 1,
                    attempts: calls,
                })
            });
            assert_eq!(
                got,
                Err(CommError::Unreachable {
                    from: 0,
                    to: 1,
                    attempts: runs
                })
            );
            let mut expect = SimWorld::bluegene(grid);
            for retry in 0..runs {
                expect.charge_recovery_backoff(retry);
            }
            assert_eq!(world.time().to_bits(), expect.time().to_bits());
        }

        // A permanent error comes back at once, with no backoff.
        let mut world = SimWorld::bluegene(grid);
        let mut calls = 0;
        let got: Result<(), _> = with_retry(&mut world, 5, |_| {
            calls += 1;
            Err(CommError::RankDead { rank: 3 })
        });
        assert_eq!(got, Err(CommError::RankDead { rank: 3 }));
        assert_eq!(calls, 1);
        assert_eq!(world.time(), 0.0);
    }
}
