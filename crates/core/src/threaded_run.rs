//! The 2D BFS on the real multi-threaded SPMD runtime.
//!
//! One OS thread per rank drives the *same* per-rank state machine as
//! the superstep simulator (targeted expand, direct all-to-all fold),
//! with genuine concurrent message passing. Every level makes one
//! expand exchange and one fold exchange; a bottom-up level differs
//! only in its discover kernel, which takes the same received F̄.
//! Exists to validate the simulator against a real parallel execution
//! and to power examples that want actual parallelism; no cost model
//! applies.
//!
//! [`run`] takes one [`ThreadedConfig`]. Under a [`FaultPlan`], lossy
//! exchanges retransmit (counted per rank in [`FaultStats`]), and a
//! scheduled rank death aborts every rank at the same superstep with a
//! typed [`CommError`]. Because both runtimes
//! derive faults from the same pure hash of `(seed, class, round, from,
//! to)`, a run here injects the *same* fault schedule as the simulator —
//! the cross-runtime determinism the fault tests assert.

use crate::config::{DirectionMode, DirectionPolicy};
use crate::reference::UNREACHED;
use crate::state::RankState;
use crate::stats::LevelDirection;
use bgl_comm::threaded::ThreadedWorld;
use bgl_comm::{CommError, FaultPlan, FaultStats, OpClass, Phase, Vert, WireCount, WirePolicy};
use bgl_graph::{DistGraph, Vertex};
use bgl_trace::{TraceBuffer, TraceDetail, DEFAULT_RING_CAPACITY};

/// What one rank of a faulty threaded run produced.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// First global vertex owned by this rank.
    pub owned_start: Vertex,
    /// Level labels for the owned range.
    pub levels: Vec<u32>,
    /// Faults this rank observed on its outgoing messages.
    pub faults: FaultStats,
    /// Sender-side expand byte accounting (logical vs post-codec wire
    /// bytes; identical with the codec off).
    pub expand_wire: WireCount,
    /// Sender-side fold byte accounting.
    pub fold_wire: WireCount,
    /// The direction each executed level ran. Derived from globally
    /// allreduced counts, so every rank's vector is identical — and
    /// must equal the simulator's per-level record for the same
    /// configuration.
    pub directions: Vec<LevelDirection>,
    /// This rank's trace recorder (only for traced runs).
    pub trace: Option<TraceBuffer>,
}

/// Knobs for [`run`]. `Default` is the plain search: sent-neighbors
/// cache on, no faults, raw wire, no trace, always top-down.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Keep the per-rank sent-neighbors cache.
    pub sent_neighbors: bool,
    /// Deterministic fault schedule — the same one the simulator
    /// injects for the same plan.
    pub faults: FaultPlan,
    /// Wire codec: every rank encodes its expand/fold payloads to the
    /// same adaptive frames the simulator charges to its cost model.
    /// Retransmitted messages carry the same encoded frames.
    pub wire: WirePolicy,
    /// Per-rank tracing: wall-clock spans for the same collective phases
    /// the simulator traces, so the two runtimes' traces compare span
    /// set against span set. `None` records nothing.
    pub trace: Option<TraceDetail>,
    /// Top-down/bottom-up switch. Levels decide from the same 3-word
    /// allreduce and integer thresholds as the simulator, so the
    /// per-level direction vector matches the simulator's bit for bit.
    /// Both directions use the targeted expand; bottom-up levels only
    /// swap the discover kernel, so the data rounds (and with them the
    /// fault schedule) line up with the simulator's level for level.
    pub direction: DirectionPolicy,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            sent_neighbors: true,
            faults: FaultPlan::none(),
            wire: WirePolicy::raw(),
            trace: None,
            direction: DirectionPolicy::top_down(),
        }
    }
}

/// A threaded run folded into one result by [`assemble`].
#[derive(Debug, Clone, Default)]
pub struct ThreadedResult {
    /// Global level labels.
    pub levels: Vec<u32>,
    /// Fault counters summed over ranks.
    pub faults: FaultStats,
    /// Expand byte accounting summed over ranks.
    pub expand_wire: WireCount,
    /// Fold byte accounting summed over ranks.
    pub fold_wire: WireCount,
    /// The per-level direction vector every rank agreed on.
    pub directions: Vec<LevelDirection>,
    /// The merged trace, rank `r`'s events on track `r` (traced runs
    /// only).
    pub trace: Option<TraceBuffer>,
}

/// Run a BFS from `source` using one thread per rank. Each rank reports
/// its own outcome: the labels it computed plus its counters, or the
/// typed error that aborted it. [`assemble`] folds them into one result.
pub fn run(
    graph: &DistGraph,
    source: Vertex,
    config: &ThreadedConfig,
) -> Vec<Result<RankOutcome, CommError>> {
    let grid = graph.grid();
    assert!(source < graph.spec.n);

    let direction = config.direction;
    let plan = config.faults.clone();
    ThreadedWorld::run_with(grid, plan, |ctx| -> Result<RankOutcome, CommError> {
        let rank = ctx.rank();
        ctx.set_wire_policy(config.wire);
        if let Some(detail) = config.trace {
            ctx.enable_trace(detail);
        }
        let mut st = RankState::new(&graph.ranks[rank], graph.partition, config.sent_neighbors);
        st.init_source(source);
        let mut directions: Vec<LevelDirection> = Vec::new();

        let mut level: u32 = 0;
        loop {
            let t_level = ctx.trace_now();
            // Termination allreduce; widened to 3 words when direction
            // optimization is on (same single control round).
            let (global_frontier, bottom_up) = if direction.mode == DirectionMode::TopDown {
                (ctx.allreduce_sum(st.frontier_len())?, false)
            } else {
                let [gf, mf, mu] =
                    ctx.allreduce_sums([st.frontier_len(), st.frontier_degree(), st.unexplored()])?;
                let bu = direction.wants_bottom_up(gf, mf, mu, graph.spec.n, grid.rows() as u64);
                (gf, bu)
            };
            ctx.trace_span(Phase::Termination, level, t_level);
            if global_frontier == 0 {
                break;
            }
            let dir = if bottom_up {
                LevelDirection::BottomUp
            } else {
                LevelDirection::TopDown
            };
            directions.push(dir);
            // Expand (targeted) — one world round in either direction,
            // traced as the gather on a bottom-up level.
            let t_expand = ctx.trace_now();
            let sends: Vec<(usize, Vec<Vert>)> = st.expand_sends_targeted();
            let fbar = ctx.exchange(OpClass::Expand, sends)?;
            let phase = match dir {
                LevelDirection::TopDown => Phase::Expand,
                LevelDirection::BottomUp => Phase::Gather,
            };
            ctx.trace_span(phase, level, t_expand);
            let t_discover = ctx.trace_now();
            let fbar_refs: Vec<&[Vert]> = fbar.iter().map(|(_, pl)| pl.as_slice()).collect();
            let blocks = match dir {
                LevelDirection::TopDown => st.discover(&fbar_refs),
                LevelDirection::BottomUp => st.discover_bottom_up(&fbar_refs),
            };
            ctx.trace_span(Phase::Discover, level, t_discover);
            // Fold (direct all-to-all) — one world round.
            let t_fold = ctx.trace_now();
            let i = grid.row_of(rank);
            let sends: Vec<(usize, Vec<Vert>)> = blocks
                .into_iter()
                .enumerate()
                .filter(|(_, b)| !b.is_empty())
                .map(|(m, b)| (grid.rank_of(i, m), b))
                .collect();
            let nbar = ctx.exchange(OpClass::Fold, sends)?;
            ctx.trace_span(Phase::Fold, level, t_fold);
            let t_absorb = ctx.trace_now();
            let nbar_refs: Vec<&[Vert]> = nbar.iter().map(|(_, pl)| pl.as_slice()).collect();
            st.absorb(&nbar_refs, level + 1);
            ctx.trace_span(Phase::Absorb, level, t_absorb);
            ctx.trace_span(Phase::Level, level, t_level);
            level += 1;
        }
        Ok(RankOutcome {
            owned_start: st.rank_graph().owned.start,
            levels: st.levels,
            expand_wire: ctx.wire_count(OpClass::Expand),
            fold_wire: ctx.wire_count(OpClass::Fold),
            directions,
            faults: ctx.faults,
            trace: ctx.take_trace(),
        })
    })
}

/// Fold per-rank outcomes, in rank order as [`run`] returns them, into
/// one [`ThreadedResult`]; the first rank's error aborts the fold.
pub fn assemble(
    graph: &DistGraph,
    outs: Vec<Result<RankOutcome, CommError>>,
) -> Result<ThreadedResult, CommError> {
    let p = outs.len();
    let mut result = ThreadedResult {
        levels: vec![UNREACHED; graph.spec.n as usize],
        ..ThreadedResult::default()
    };
    for (rank, out) in outs.into_iter().enumerate() {
        let out = out?;
        let s = out.owned_start as usize;
        result.levels[s..s + out.levels.len()].copy_from_slice(&out.levels);
        result.faults.merge(&out.faults);
        result.expand_wire.logical_bytes += out.expand_wire.logical_bytes;
        result.expand_wire.wire_bytes += out.expand_wire.wire_bytes;
        result.fold_wire.logical_bytes += out.fold_wire.logical_bytes;
        result.fold_wire.wire_bytes += out.fold_wire.wire_bytes;
        debug_assert!(
            rank == 0 || result.directions == out.directions,
            "ranks disagreed on the direction vector"
        );
        result.directions = out.directions;
        if let Some(buf) = &out.trace {
            result
                .trace
                .get_or_insert_with(|| TraceBuffer::new(p, DEFAULT_RING_CAPACITY))
                .absorb_rank(rank, buf);
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BfsConfig;
    use crate::reference;
    use bgl_comm::{ProcessorGrid, SimWorld};
    use bgl_graph::GraphSpec;

    fn levels_of(graph: &DistGraph, source: Vertex, config: &ThreadedConfig) -> Vec<u32> {
        assemble(graph, run(graph, source, config)).unwrap().levels
    }

    #[test]
    fn threaded_matches_oracle() {
        let spec = GraphSpec::poisson(300, 6.0, 61);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        for (r, c) in [(1, 1), (2, 2), (2, 3), (4, 2)] {
            let graph = DistGraph::build(spec, ProcessorGrid::new(r, c));
            let got = levels_of(&graph, 0, &ThreadedConfig::default());
            assert_eq!(got, expect, "grid {r}x{c}");
        }
    }

    #[test]
    fn threaded_matches_simulator() {
        // Engine cross-validation: identical level labels from the real
        // message-passing runtime and the superstep simulator.
        let spec = GraphSpec::poisson(500, 5.0, 71);
        let grid = ProcessorGrid::new(3, 3);
        let graph = DistGraph::build(spec, grid);
        let threaded = levels_of(&graph, 7, &ThreadedConfig::default());
        let mut world = SimWorld::bluegene(grid);
        let sim =
            crate::bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 7).unwrap();
        assert_eq!(threaded, sim.levels);
    }

    #[test]
    fn threaded_without_sent_cache() {
        let spec = GraphSpec::poisson(200, 5.0, 81);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 3);
        let graph = DistGraph::build(spec, ProcessorGrid::new(2, 2));
        let config = ThreadedConfig {
            sent_neighbors: false,
            ..ThreadedConfig::default()
        };
        assert_eq!(levels_of(&graph, 3, &config), expect);
    }

    #[test]
    fn lossy_threaded_matches_oracle_and_sim_fault_schedule() {
        // Identical (seed, FaultPlan) must produce the same fault
        // schedule — and therefore the same retransmission counters —
        // in the threaded runtime and the simulator, and the lossy run
        // must still produce oracle-exact levels in both.
        let spec = GraphSpec::poisson(300, 6.0, 91);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let plan = FaultPlan::seeded(17)
            .with_drop_prob(0.2)
            .with_truncate_prob(0.05)
            .with_duplicate_prob(0.05);

        let config = ThreadedConfig {
            faults: plan.clone(),
            ..ThreadedConfig::default()
        };
        let threaded = assemble(&graph, run(&graph, 0, &config)).expect("faults are transparent");
        assert_eq!(threaded.levels, expect);
        assert!(threaded.faults.retransmissions > 0);

        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let sim =
            crate::bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 0).unwrap();
        assert_eq!(sim.levels, expect);
        assert_eq!(threaded.faults, sim.stats.comm.faults);
    }

    #[test]
    fn assembler_returns_rank_death_and_sums_lossy_fault_counters() {
        let spec = GraphSpec::poisson(200, 5.0, 21);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);

        // A scheduled death surfaces as the typed error, not a panic.
        let dead = ThreadedConfig {
            faults: FaultPlan::seeded(9).kill_rank_at(2, 3),
            ..ThreadedConfig::default()
        };
        let err = assemble(&graph, run(&graph, 0, &dead)).unwrap_err();
        assert_eq!(err, CommError::RankDead { rank: 2 });

        // Under a lossy plan the summed per-rank counters equal the
        // simulator's world totals for the same schedule.
        let plan = FaultPlan::seeded(17)
            .with_drop_prob(0.2)
            .with_truncate_prob(0.05)
            .with_duplicate_prob(0.05);
        let lossy = ThreadedConfig {
            faults: plan.clone(),
            ..ThreadedConfig::default()
        };
        let threaded = assemble(&graph, run(&graph, 0, &lossy)).unwrap();
        assert!(threaded.faults.drops_injected > 0, "the plan must fire");
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let sim =
            crate::bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 0).unwrap();
        assert_eq!(threaded.faults, sim.stats.comm.faults);
        assert_eq!(threaded.levels, sim.levels);
    }

    #[test]
    fn wire_threaded_matches_simulator_byte_for_byte() {
        // Same graph, same source, same adaptive codec policy: the
        // threaded runtime's summed sender-side logical/wire bytes must
        // equal the simulator's per-class totals exactly (the codec
        // choice is a pure function of each payload), and the labels
        // must still match the oracle.
        let spec = GraphSpec::poisson(400, 6.0, 33);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);

        let config = ThreadedConfig {
            wire: WirePolicy::auto(),
            ..ThreadedConfig::default()
        };
        let threaded = assemble(&graph, run(&graph, 0, &config)).unwrap();
        let (expand, fold) = (threaded.expand_wire, threaded.fold_wire);
        assert_eq!(threaded.levels, expect);

        let mut world = SimWorld::bluegene(grid).with_wire_policy(WirePolicy::auto());
        let sim =
            crate::bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 0).unwrap();
        assert_eq!(sim.levels, expect);
        let se = sim.stats.comm.class(OpClass::Expand);
        let sf = sim.stats.comm.class(OpClass::Fold);
        assert_eq!(expand.logical_bytes, se.logical_bytes);
        assert_eq!(expand.wire_bytes, se.wire_bytes);
        assert_eq!(fold.logical_bytes, sf.logical_bytes);
        assert_eq!(fold.wire_bytes, sf.wire_bytes);
        assert!(
            expand.wire_bytes + fold.wire_bytes < expand.logical_bytes + fold.logical_bytes,
            "the codec should pay on BFS traffic"
        );
    }

    #[test]
    fn threaded_direction_matches_simulator_choice_for_choice() {
        // The per-level direction is a pure function of globally
        // allreduced integers, so the threaded runtime and the
        // simulator must make the identical choice at every level —
        // and land on identical labels.
        let spec = GraphSpec::poisson(500, 8.0, 71);
        let grid = ProcessorGrid::new(3, 2);
        let graph = DistGraph::build(spec, grid);
        let config = BfsConfig {
            direction: crate::config::DirectionPolicy::adaptive(),
            ..BfsConfig::baseline_alltoall()
        };
        let mut world = SimWorld::bluegene(grid);
        let sim = crate::bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
        let sim_dirs: Vec<LevelDirection> = sim.stats.levels.iter().map(|l| l.direction).collect();
        assert!(
            sim_dirs.contains(&LevelDirection::BottomUp),
            "expected at least one bottom-up level"
        );

        let threaded_config = ThreadedConfig {
            direction: config.direction,
            ..ThreadedConfig::default()
        };
        let outs = run(&graph, 0, &threaded_config);
        for out in &outs {
            let dirs = &out.as_ref().unwrap().directions;
            assert_eq!(dirs, &sim_dirs, "per-level direction vector");
        }
        let threaded = assemble(&graph, outs).unwrap();
        assert_eq!(threaded.directions, sim_dirs);
        assert_eq!(threaded.levels, sim.levels);
    }

    #[test]
    fn threaded_rank_death_aborts_all_ranks() {
        let spec = GraphSpec::poisson(200, 5.0, 21);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let config = ThreadedConfig {
            faults: FaultPlan::seeded(9).kill_rank_at(2, 3),
            ..ThreadedConfig::default()
        };
        let outs = run(&graph, 0, &config);
        assert_eq!(outs.len(), 4);
        for out in outs {
            assert_eq!(out.unwrap_err(), CommError::RankDead { rank: 2 });
        }
    }
}
