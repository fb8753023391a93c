//! Distributed level-synchronized BFS with 2D partitioning — the
//! paper's Algorithm 2, on the superstep simulator.
//!
//! Each level runs the five phases of the paper's main loop:
//!
//! 1. frontier formation + global termination check (steps 3–6);
//! 2. **expand** over processor-columns (steps 7–11), by the configured
//!    [`crate::config::ExpandStrategy`];
//! 3. local neighbor discovery over partial edge lists (step 12), with
//!    the sent-neighbors cache;
//! 4. **fold** over processor-rows (steps 13–18), by the configured
//!    [`crate::config::FoldStrategy`];
//! 5. absorb: label unlabeled owned vertices (steps 19–21).
//!
//! Compute time is charged per level from the hash-probe counts; all
//! message accounting happens inside the communication layer.
//!
//! ## Fault tolerance
//!
//! Two entry points share one engine:
//!
//! * [`try_run`] — the plain run, with communication faults surfaced as
//!   typed [`CommError`]s;
//! * [`run_resilient`] — level-synchronous **checkpoint/recover**. Every
//!   [`ResilientConfig::checkpoint_every`] levels the per-rank states are
//!   checkpointed, and after every absorb each rank shares its freshly
//!   labeled vertices with its XOR **parity group** (see
//!   [`crate::parity`]) over the control network — which is *not* fault
//!   exempt here: recovery traffic faces the same lossy fabric as data,
//!   with bounded retry/exponential-backoff at the protocol layer. When
//!   an exchange reports [`CommError::RankDead`], a spare node is
//!   brought in ([`SimWorld::revive`]), the dead rank's graph cells are
//!   **regenerated from the graph seed** (the same property that makes
//!   construction grid-independent), its label history is reconstructed
//!   from the surviving group members' logs plus the checkpointed
//!   parity shard, survivors roll back to the checkpoint, and the
//!   search resumes. A second death in the *same* group (e.g. a former
//!   buddy pair inside one group) exceeds the parity budget: the engine
//!   falls back to a **degraded-mode restart** from the last full
//!   checkpoint, or surfaces [`CommError::RecoveryFailed`] when
//!   [`ResilientConfig::degraded_fallback`] is off or retries are
//!   exhausted. Recovery is exact either way: the recovered run
//!   produces bit-identical level labels to a fault-free run, because
//!   absorb only ever labels unreached vertices.

use crate::config::{BfsConfig, DirectionMode};
use crate::parity::{GroupShard, ParityGroups};
use crate::state::{gather_levels, RankState};
use crate::stats::{LevelDirection, LevelSnapshot, LevelStats, RunStats};
use crate::step::{charge_probes, check_input, expand_discover, fold_absorb, with_retry};
use bgl_comm::collectives::Groups;
use bgl_comm::{CommError, EventKind, OpClass, Phase, SimWorld, Vert};
use bgl_graph::{DistGraph, Vertex};

/// The outcome of one distributed BFS run.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// Global level labels ([`crate::reference::UNREACHED`] where
    /// unreached).
    pub levels: Vec<u32>,
    /// Run statistics (times, volumes, per-level records).
    pub stats: RunStats,
    /// Level of the target, when one was configured and reached.
    pub target_level: Option<u32>,
}

/// Configuration of the checkpoint/recover protocol used by
/// [`run_resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilientConfig {
    /// Checkpoint the per-rank states every this many levels (minimum 1:
    /// a checkpoint at the start of every level). Zero is rejected by
    /// [`ResilientConfig::validate`].
    pub checkpoint_every: u32,
    /// Give up (returning the underlying [`CommError::RankDead`]) after
    /// this many recoveries (parity reconstructions plus degraded
    /// restarts) in one run.
    pub max_recoveries: u32,
    /// XOR parity-group size `g` (see [`crate::parity`]): any one death
    /// per group of `g` consecutive ranks is reconstructed from the
    /// surviving `g - 1` logs plus the group's parity shard. Minimum 2.
    pub parity_group_size: usize,
    /// Bounded retry budget for each recovery/checkpoint exchange over
    /// the faulty control channel; each failed attempt charges
    /// exponential backoff. Minimum 1.
    pub recovery_attempts: u32,
    /// When parity reconstruction is impossible (second death in the
    /// same group) or its exchange exhausts `recovery_attempts`,
    /// restart the level from the last full checkpoint instead of
    /// failing. Off = surface [`CommError::RecoveryFailed`].
    pub degraded_fallback: bool,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        Self {
            checkpoint_every: 1,
            max_recoveries: 8,
            parity_group_size: 4,
            recovery_attempts: 3,
            degraded_fallback: true,
        }
    }
}

impl ResilientConfig {
    /// Reject nonsensical configurations with a typed error instead of
    /// silently clamping (a `checkpoint_every` of 0 used to be bumped
    /// to 1 inside the engine loop). Called by [`run_resilient`] before
    /// any work starts.
    pub fn validate(&self) -> Result<(), CommError> {
        if self.checkpoint_every == 0 {
            return Err(CommError::InvalidConfig {
                reason: "checkpoint_every must be nonzero",
            });
        }
        if self.parity_group_size < 2 {
            return Err(CommError::InvalidConfig {
                reason: "parity_group_size must be at least 2 (a singleton group has no survivors)",
            });
        }
        if self.recovery_attempts == 0 {
            return Err(CommError::InvalidConfig {
                reason: "recovery_attempts must be at least 1",
            });
        }
        Ok(())
    }
}

/// A [`BfsResult`] plus the recovery log of a [`run_resilient`] run.
#[derive(Debug, Clone)]
pub struct ResilientBfsResult {
    /// The search result — bit-identical levels to a fault-free run.
    pub result: BfsResult,
    /// Number of rank deaths recovered from via parity reconstruction.
    pub recoveries: u32,
    /// Times the engine fell back to a degraded-mode restart from the
    /// last full checkpoint (parity budget exceeded or recovery
    /// exchange retries exhausted).
    pub degraded_restarts: u32,
    /// The ranks that died and were rebuilt by parity reconstruction,
    /// in recovery order (degraded restarts are not listed here — they
    /// restore everyone from the checkpoint).
    pub recovered_ranks: Vec<usize>,
    /// Simulated time spent inside recovery itself (graph regeneration
    /// handoff + parity log/shard transfer, including control-channel
    /// retransmissions and backoff); the replayed levels show up in the
    /// ordinary sim time instead.
    pub recovery_time: f64,
}

/// What one level of the main loop decided.
enum LevelOutcome {
    /// Global frontier empty: traversal complete.
    Exhausted,
    /// The configured target was labeled this level.
    TargetFound,
    /// Proceed to the next level.
    Advance,
}

/// Run Algorithm 2 from `source` on `graph` under `config`, inside
/// `world`. A world whose grid is not the graph's, or a source outside
/// the graph, is a [`CommError::InvalidConfig`].
///
/// Communication faults surface as typed errors. Under a
/// plan of message faults only (drops/truncations/duplicates) the
/// retransmission protocol is transparent — the result equals a
/// fault-free run, just slower; a rank death surfaces as
/// [`CommError::RankDead`].
pub fn try_run(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &BfsConfig,
    source: Vertex,
) -> Result<BfsResult, CommError> {
    engine(graph, world, config, source, None).map(|r| r.result)
}

/// Fault-tolerant BFS: [`try_run`] plus checkpoint/recover for rank
/// deaths, per `resilience`. See the module docs for the protocol. Bad
/// input is rejected as by [`try_run`], and so is a `resilience` that
/// fails [`ResilientConfig::validate`].
pub fn run_resilient(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &BfsConfig,
    source: Vertex,
    resilience: &ResilientConfig,
) -> Result<ResilientBfsResult, CommError> {
    engine(graph, world, config, source, Some(resilience))
}

/// One level of the paper's main loop over all simulated ranks. Pushes
/// this level's [`LevelStats`] and sets `target_level` before reporting
/// [`LevelOutcome::TargetFound`].
#[allow(clippy::too_many_arguments)]
fn level_pass(
    world: &mut SimWorld,
    config: &BfsConfig,
    states: &mut [RankState<'_>],
    row_groups: &Groups,
    col_groups: &Groups,
    n: u64,
    level: u32,
    level_records: &mut Vec<LevelStats>,
    target_level: &mut Option<u32>,
) -> Result<LevelOutcome, CommError> {
    let grid = world.grid();
    let snapshot = LevelSnapshot::take(world);

    // -- 1. termination check on global frontier size. With direction
    // optimization on, the same tree round also allreduces the frontier
    // edge mass and the unexplored stored-entry count (a 3-word payload
    // instead of 1 — no extra communication rounds), and every rank
    // derives the level's direction from the identical global sums.
    let frontier_sizes: Vec<u64> = states.iter().map(|s| s.frontier_len()).collect();
    let (global_frontier, bottom_up) = if config.direction.mode == DirectionMode::TopDown {
        (world.allreduce_sum(&frontier_sizes), false)
    } else {
        let mf: Vec<u64> = states.iter().map(|s| s.frontier_degree()).collect();
        let mu: Vec<u64> = states.iter().map(|s| s.unexplored()).collect();
        let [gf, mf_hat, mu_hat] = world.allreduce_sums([&frontier_sizes, &mf, &mu]);
        let bu = config
            .direction
            .wants_bottom_up(gf, mf_hat, mu_hat, n, grid.rows() as u64);
        (gf, bu)
    };
    world.trace_span(Phase::Termination, level, snapshot.time());
    if global_frontier == 0 {
        return Ok(LevelOutcome::Exhausted);
    }

    // -- 2./3. expand + local discovery. Both directions ship the
    // frontier by `config.expand`; a bottom-up level scans stored rows
    // against the received F̄ instead of expanding its columns.
    let direction = if bottom_up {
        LevelDirection::BottomUp
    } else {
        LevelDirection::TopDown
    };
    let blocks = expand_discover(world, config.expand, col_groups, states, level, direction)?;

    // -- 4./5. fold + absorb, then the compute charge.
    fold_absorb(
        world,
        config.fold,
        row_groups,
        states,
        blocks,
        level,
        level + 1,
    )?;
    let t_absorb = world.time();
    let level_probes = charge_probes(world, states.iter_mut());

    // -- target detection.
    if let Some(t) = config.target {
        let flags: Vec<bool> = states.iter().map(|s| s.level_of(t).is_some()).collect();
        if world.allreduce_or(&flags) {
            *target_level = Some(level + 1);
        }
    }
    // The absorb span also covers the target-detection allreduce, so
    // the level's phase spans partition its whole interval.
    world.trace_span(Phase::Absorb, level, t_absorb);
    world.trace_span(Phase::Level, level, snapshot.time());

    level_records.push(snapshot.finish(world, level, global_frontier, direction, level_probes));

    if target_level.is_some() {
        return Ok(LevelOutcome::TargetFound);
    }
    Ok(LevelOutcome::Advance)
}

/// One encoded delta-log entry: `[level, count, verts...]` — the unit
/// [`GroupShard::absorb`] XORs and the framing [`encode_deltas`]
/// flattens, so shard contributions and flattened logs agree word for
/// word.
fn encode_entry(level: u32, verts: &[Vertex]) -> Vec<Vert> {
    let mut entry = Vec::with_capacity(2 + verts.len());
    entry.push(level as Vert);
    entry.push(verts.len() as Vert);
    entry.extend_from_slice(verts);
    entry
}

/// After every absorb, append each rank's freshly labeled vertices (its
/// new frontier, tagged `next_level`) to the delta logs, fold the
/// encoded entry into the rank's group parity shard, and ship it to the
/// `g - 1` group peers over the (faulty, retried) control network.
/// Empty frontiers are absorbed but not shipped — peers synthesize the
/// `[level, 0]` entry locally, it carries no information.
fn parity_update(
    world: &mut SimWorld,
    states: &[RankState<'_>],
    next_level: u32,
    deltas: &mut [Vec<(u32, Vec<Vertex>)>],
    groups: &ParityGroups,
    shards: &mut [GroupShard],
    attempts: u32,
) -> Result<(), CommError> {
    let mut sends = Vec::new();
    for (rank, st) in states.iter().enumerate() {
        deltas[rank].push((next_level, st.frontier.clone()));
        let entry = encode_entry(next_level, &st.frontier);
        shards[groups.group_of(rank)].absorb(groups.member_index(rank), &entry);
        if !st.frontier.is_empty() {
            for peer in groups.peers(rank) {
                sends.push((rank, peer, entry.clone()));
            }
        }
    }
    with_retry(world, attempts, |w| {
        w.exchange(OpClass::Control, sends.clone())
    })?;
    Ok(())
}

/// Flatten the mirrored delta log up to `through_level` into one wire
/// payload: `[level, count, verts...]*`.
fn encode_deltas(deltas: &[(u32, Vec<Vertex>)], through_level: u32) -> Vec<Vert> {
    let mut payload = Vec::new();
    for (lvl, verts) in deltas {
        if *lvl > through_level {
            continue;
        }
        payload.push(*lvl as Vert);
        payload.push(verts.len() as Vert);
        payload.extend_from_slice(verts);
    }
    payload
}

/// Rebuild a revived rank's [`RankState`] from the wire-encoded delta
/// log: labels for every delta level, frontier from the checkpoint
/// level's delta.
fn replay_deltas<'g>(mut st: RankState<'g>, payload: &[Vert], ckpt_level: u32) -> RankState<'g> {
    let owned = st.rank_graph().owned.clone();
    let mut i = 0usize;
    while i < payload.len() {
        let lvl = payload[i] as u32;
        let count = payload[i + 1] as usize;
        let verts = &payload[i + 2..i + 2 + count];
        for &v in verts {
            debug_assert!(owned.contains(&v), "mirrored delta for a non-owned vertex");
            st.levels[(v - owned.start) as usize] = lvl;
        }
        if lvl == ckpt_level {
            st.frontier = verts.to_vec();
        }
        i += 2 + count;
    }
    st
}

/// The shared engine behind [`try_run`] and [`run_resilient`]. With
/// `resilience == None` there are no checkpoints and no mirror traffic.
fn engine(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &BfsConfig,
    source: Vertex,
    resilience: Option<&ResilientConfig>,
) -> Result<ResilientBfsResult, CommError> {
    // Without a target the source stands in for it, checked twice.
    let target = config.target.unwrap_or(source);
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

    let row_groups = Groups::rows_of(grid);
    let col_groups = Groups::cols_of(grid);

    let mut states: Vec<RankState<'_>> = graph
        .ranks
        .iter()
        .map(|rg| RankState::new(rg, graph.partition, config.sent_neighbors))
        .collect();
    let owner = graph.partition.owner_of(source);
    states[owner].init_source(source);

    let mut level_records = Vec::new();
    let mut target_level = None;

    // Checkpoint/recover machinery (inert when `resilience` is None).
    let groups = ParityGroups::new(resilience.map_or(2, |rc| rc.parity_group_size), p.max(1));
    let mut snapshot: Vec<RankState<'_>> = Vec::new();
    let mut ckpt_level: u32 = 0;
    let mut deltas: Vec<Vec<(u32, Vec<Vertex>)>> = vec![Vec::new(); p];
    let mut shards: Vec<GroupShard> = Vec::new();
    let mut shards_ckpt: Vec<GroupShard> = Vec::new();
    if let Some(rc) = resilience {
        rc.validate()?;
        // Recovery traffic is not fault-exempt: control exchanges face
        // the plan (on their own round counter) with retry on top.
        world.set_control_faultable(true);
        shards = (0..groups.count())
            .map(|g| GroupShard::new(groups.members(g).len()))
            .collect();
        // The source label is the level-0 delta, parity included.
        deltas[owner].push((0, vec![source]));
        shards[groups.group_of(owner)]
            .absorb(groups.member_index(owner), &encode_entry(0, &[source]));
    }
    let mut recoveries = 0u32;
    let mut degraded_restarts = 0u32;
    let mut recovered_ranks: Vec<usize> = Vec::new();
    let mut recovery_time = 0.0f64;

    let mut level: u32 = 0;
    loop {
        if config.max_levels > 0 && level >= config.max_levels {
            break;
        }
        if let Some(rc) = resilience {
            if level.is_multiple_of(rc.checkpoint_every) {
                snapshot = states.clone();
                shards_ckpt = shards.clone();
                ckpt_level = level;
                let t = world.time();
                world
                    .trace_mut()
                    .world_event(EventKind::Checkpoint { level }, t, t);
            }
        }

        match level_pass(
            world,
            config,
            &mut states,
            &row_groups,
            &col_groups,
            graph.spec.n,
            level,
            &mut level_records,
            &mut target_level,
        ) {
            Ok(LevelOutcome::Exhausted) | Ok(LevelOutcome::TargetFound) => break,
            Ok(LevelOutcome::Advance) => {
                if let Some(rc) = resilience {
                    parity_update(
                        world,
                        &states,
                        level + 1,
                        &mut deltas,
                        &groups,
                        &mut shards,
                        rc.recovery_attempts,
                    )?;
                }
                level += 1;
            }
            Err(CommError::RankDead { rank }) => {
                let Some(rc) = resilience else {
                    return Err(CommError::RankDead { rank });
                };
                if recoveries + degraded_restarts >= rc.max_recoveries {
                    return Err(CommError::RankDead { rank });
                }
                let t0 = world.time();
                let group = groups.group_of(rank);
                // Deaths fire per data round, so several ranks can be
                // dead at once. One death per group is parity-budget;
                // a second in the *same* group forces degraded mode.
                // Deaths in other groups are handled by later passes
                // through this arm (the next exchange re-reports them).
                let second_in_group = world
                    .dead_ranks()
                    .into_iter()
                    .any(|r| r != rank && groups.group_of(r) == group);

                let mut restored: Option<RankState<'_>> = None;
                if !second_in_group {
                    // A spare node takes over the dead rank's coordinate.
                    world.revive(rank);

                    // Its graph cells are regenerated from the seed — the
                    // same determinism that makes construction
                    // grid-independent makes every cell recomputable.
                    let rebuilt = bgl_graph::rebuild_rank(&graph.spec, grid, rank);
                    assert_eq!(
                        rebuilt, graph.ranks[rank],
                        "seed regeneration must reproduce the dead rank's graph share"
                    );

                    // Surviving group members ship their flattened logs
                    // to the revived rank; the highest survivor also
                    // ships the checkpointed parity shard. All of it
                    // rides the faulty control network with bounded
                    // retry — visible as control retransmits in traces.
                    let mi = groups.member_index(rank);
                    let survivors: Vec<usize> =
                        groups.members(group).filter(|&m| m != rank).collect();
                    let mut sends: Vec<(usize, usize, Vec<Vert>)> = survivors
                        .iter()
                        .map(|&m| (m, rank, encode_deltas(&deltas[m], ckpt_level)))
                        .collect();
                    let shard_holder = survivors.last().copied();
                    if let Some(h) = shard_holder {
                        sends.push((h, rank, shards_ckpt[group].words().to_vec()));
                    }
                    match with_retry(world, rc.recovery_attempts, |w| {
                        w.exchange(OpClass::Control, sends.clone())
                    }) {
                        Ok(inboxes) => {
                            // Split the inbox back into survivor logs and
                            // the shard: inboxes are sorted by sender and
                            // stable, so the shard holder's log precedes
                            // its shard payload.
                            let mut logs: Vec<(usize, Vec<Vert>)> = Vec::new();
                            let mut shard_words: Vec<Vert> = Vec::new();
                            for (from, payload) in inboxes[rank].clone() {
                                if Some(from) == shard_holder
                                    && logs.iter().any(|(m, _)| *m == groups.member_index(from))
                                {
                                    shard_words = payload;
                                } else {
                                    logs.push((groups.member_index(from), payload));
                                }
                            }
                            if shard_holder.is_some() {
                                assert_eq!(
                                    shard_words,
                                    shards_ckpt[group].words(),
                                    "received parity shard must match the checkpointed shard"
                                );
                            }

                            // The parity identity: dead log = shard XOR
                            // survivor logs, truncated to its recorded
                            // length.
                            let survivor_refs: Vec<(usize, &[Vert])> =
                                logs.iter().map(|(m, l)| (*m, l.as_slice())).collect();
                            let reconstructed = shards_ckpt[group].reconstruct(mi, &survivor_refs);
                            assert_eq!(
                                reconstructed,
                                encode_deltas(&deltas[rank], ckpt_level),
                                "parity reconstruction must reproduce the dead rank's log"
                            );

                            // Rebuild the dead rank's state purely from
                            // regenerated graph + reconstructed log
                            // (never from its lost memory), then check
                            // it against the checkpoint it must equal.
                            let fresh = RankState::new(
                                &graph.ranks[rank],
                                graph.partition,
                                config.sent_neighbors,
                            );
                            let replayed = replay_deltas(fresh, &reconstructed, ckpt_level);
                            assert_eq!(
                                replayed.levels, snapshot[rank].levels,
                                "replayed labels must match the checkpointed labels"
                            );
                            assert_eq!(
                                replayed.frontier, snapshot[rank].frontier,
                                "replayed frontier must match the checkpointed frontier"
                            );
                            restored = Some(replayed);
                        }
                        // Retries exhausted against the faulty channel:
                        // fall through to degraded mode (or fail).
                        Err(CommError::Unreachable { .. })
                        | Err(CommError::Timeout { .. })
                        | Err(CommError::NoRoute { .. }) => {}
                        Err(e) => return Err(e),
                    }
                }

                if let Some(restored) = restored {
                    // Parity recovery: survivors roll back to the
                    // checkpoint; the revived rank joins with its
                    // replayed state (its sent-neighbors cache starts
                    // cold — resends are harmless because absorb only
                    // labels unreached vertices).
                    recoveries += 1;
                    recovered_ranks.push(rank);
                    world.note_recovery();
                    states = snapshot.clone();
                    states[rank] = restored;
                } else {
                    // Degraded mode: every rank — dead or alive — is
                    // restored from the last full checkpoint (stable
                    // storage), charged as a memcpy of the state bytes.
                    if !rc.degraded_fallback {
                        return Err(CommError::RecoveryFailed {
                            rank,
                            attempts: rc.recovery_attempts,
                        });
                    }
                    for r in world.dead_ranks() {
                        world.revive(r);
                    }
                    world.revive(rank); // no-op if already revived above
                    degraded_restarts += 1;
                    world.note_recovery();
                    let bytes: Vec<u64> = snapshot
                        .iter()
                        .map(|s| (s.levels.len() * 4 + s.frontier.len() * 8) as u64)
                        .collect();
                    world.memcpy_phase(&bytes);
                    states = snapshot.clone();
                }

                // Common rollback: records, logs and shards return to
                // the checkpoint; the search resumes from there.
                level_records.retain(|r| r.level < ckpt_level);
                for d in deltas.iter_mut() {
                    d.retain(|(l, _)| *l <= ckpt_level);
                }
                shards = shards_ckpt.clone();
                target_level = None;
                level = ckpt_level;
                let t1 = world.time();
                world
                    .trace_mut()
                    .world_event(EventKind::Recovery { rank: rank as u32 }, t0, t1);
                world.trace_span(Phase::Recovery, ckpt_level, t0);
                recovery_time += world.time() - t0;
            }
            Err(e) => return Err(e),
        }
    }

    // The source's own level-0 target case.
    if let Some(t) = config.target {
        if t == source {
            target_level = Some(0);
        }
    }

    let levels = gather_levels(&states, graph.spec.n);
    let reached = states.iter().map(|s| s.reached()).sum();
    Ok(ResilientBfsResult {
        result: BfsResult {
            stats: RunStats::from_world(world, level_records, reached),
            target_level,
            levels,
        },
        recoveries,
        degraded_restarts,
        recovered_ranks,
        recovery_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExpandStrategy, FoldStrategy};
    use crate::reference;
    use bgl_comm::{FaultPlan, ProcessorGrid};
    use bgl_graph::GraphSpec;

    fn check_against_oracle(spec: GraphSpec, grid: ProcessorGrid, config: BfsConfig) {
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = try_run(&graph, &mut world, &config, 0).unwrap();
        assert_eq!(got.levels, expect, "grid {grid:?} config {config:?}");
        assert_eq!(
            got.stats.reached,
            expect
                .iter()
                .filter(|&&l| l != reference::UNREACHED)
                .count() as u64
        );
    }

    #[test]
    fn matches_oracle_all_strategies() {
        let spec = GraphSpec::poisson(300, 6.0, 31);
        let grid = ProcessorGrid::new(3, 4);
        for expand in [
            ExpandStrategy::Targeted,
            ExpandStrategy::AllGatherRing,
            ExpandStrategy::TwoPhaseRing,
        ] {
            for fold in [
                FoldStrategy::DirectAllToAll,
                FoldStrategy::ReduceScatterUnion,
                FoldStrategy::TwoPhaseRing,
            ] {
                let config = BfsConfig {
                    expand,
                    fold,
                    ..BfsConfig::default()
                };
                check_against_oracle(spec, grid, config);
            }
        }
    }

    #[test]
    fn matches_oracle_across_grids() {
        let spec = GraphSpec::poisson(250, 5.0, 77);
        for (r, c) in [(1, 1), (1, 6), (6, 1), (2, 3), (4, 4), (5, 2)] {
            check_against_oracle(spec, ProcessorGrid::new(r, c), BfsConfig::default());
        }
    }

    #[test]
    fn matches_oracle_without_sent_cache() {
        let spec = GraphSpec::poisson(200, 5.0, 13);
        let config = BfsConfig {
            sent_neighbors: false,
            ..BfsConfig::default()
        };
        check_against_oracle(spec, ProcessorGrid::new(2, 2), config);
    }

    #[test]
    fn target_stops_early() {
        let spec = GraphSpec::poisson(400, 8.0, 5);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        // Pick a vertex at distance >= 2.
        let t = (0..400u64)
            .find(|&v| expect[v as usize] >= 2 && expect[v as usize] != reference::UNREACHED)
            .expect("target exists");
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let config = BfsConfig::default().with_target(t);
        let got = try_run(&graph, &mut world, &config, 0).unwrap();
        assert_eq!(got.target_level, Some(expect[t as usize]));
        // Stopped at the target's level, not the full traversal.
        assert_eq!(
            got.stats.num_levels() as u32,
            expect[t as usize],
            "levels executed"
        );
    }

    #[test]
    fn unreachable_target_traverses_component() {
        // A graph so sparse it is disconnected; target in another
        // component => full component traversal (Figure 6 worst case).
        let spec = GraphSpec::poisson(300, 1.5, 3);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        let t = (0..300u64).find(|&v| expect[v as usize] == reference::UNREACHED);
        let Some(t) = t else {
            panic!("expected a disconnected vertex at k=1.5");
        };
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = try_run(&graph, &mut world, &BfsConfig::default().with_target(t), 0).unwrap();
        assert_eq!(got.target_level, None);
        assert_eq!(got.levels, expect);
    }

    #[test]
    fn source_is_target() {
        let spec = GraphSpec::poisson(100, 4.0, 2);
        let grid = ProcessorGrid::new(1, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = try_run(&graph, &mut world, &BfsConfig::default().with_target(7), 7).unwrap();
        assert_eq!(got.target_level, Some(0));
    }

    #[test]
    fn level_stats_reconcile() {
        let spec = GraphSpec::poisson(300, 6.0, 41);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
        // Sum of level sim_time == total sim time (termination check of
        // the final empty level excluded — allow small slack).
        let per_level: f64 = got.stats.levels.iter().map(|l| l.sim_time).sum();
        assert!(per_level <= got.stats.sim_time + 1e-12);
        assert!(got.stats.sim_time > 0.0);
        assert!(got.stats.comm_time > 0.0);
        assert!(got.stats.compute_time > 0.0);
        // Frontier sizes sum to reached count.
        let frontier_sum: u64 = got.stats.levels.iter().map(|l| l.frontier).sum();
        assert_eq!(frontier_sum, got.stats.reached);
        // Expand/fold volumes are recorded per level.
        assert!(got.stats.levels.iter().any(|l| l.fold_received > 0));
    }

    #[test]
    fn union_fold_eliminates_duplicates_on_dense_graph() {
        let spec = GraphSpec::poisson(200, 20.0, 17);
        let grid = ProcessorGrid::new(2, 4);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = try_run(
            &graph,
            &mut world,
            &BfsConfig {
                fold: FoldStrategy::TwoPhaseRing,
                ..BfsConfig::default()
            },
            0,
        )
        .unwrap();
        assert!(
            got.stats.comm.total_dups_eliminated() > 0,
            "dense graph must produce fold duplicates"
        );
        assert!(got.stats.redundancy_ratio_percent() > 0.0);
    }

    #[test]
    fn max_levels_caps_search() {
        let spec = GraphSpec::poisson(500, 3.0, 19);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let config = BfsConfig {
            max_levels: 2,
            ..BfsConfig::default()
        };
        let got = try_run(&graph, &mut world, &config, 0).unwrap();
        assert!(got.stats.num_levels() <= 2);
        // Levels beyond 2 must be unlabeled.
        assert!(got
            .levels
            .iter()
            .all(|&l| l == reference::UNREACHED || l <= 2));
    }

    // ---- direction optimization ----

    #[test]
    fn direction_optimized_matches_top_down_and_switches() {
        let spec = GraphSpec::poisson(600, 8.0, 31);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let mut w_td = SimWorld::bluegene(grid);
        let td = try_run(&graph, &mut w_td, &BfsConfig::paper_optimized(), 0).unwrap();
        let mut w_dir = SimWorld::bluegene(grid);
        let dir = try_run(&graph, &mut w_dir, &BfsConfig::direction_optimized(), 0).unwrap();
        assert_eq!(td.levels, dir.levels, "levels must be bit-identical");
        assert_eq!(td.stats.num_levels(), dir.stats.num_levels());
        for (a, b) in td.stats.levels.iter().zip(&dir.stats.levels) {
            assert_eq!(a.frontier, b.frontier, "level {}", a.level);
        }
        let (_, bu) = dir.stats.direction_split();
        assert!(bu > 0, "a dense low-diameter graph must go bottom-up");
        assert!(
            dir.stats.total_probes() < td.stats.total_probes(),
            "bottom-up levels must save probes: {} vs {}",
            dir.stats.total_probes(),
            td.stats.total_probes()
        );
        // Probe attribution is exclusive per level.
        assert!(dir
            .stats
            .levels
            .iter()
            .all(|l| l.td_probes == 0 || l.bu_probes == 0));
    }

    #[test]
    fn forced_bottom_up_matches_oracle() {
        let spec = GraphSpec::poisson(300, 6.0, 31);
        let grid = ProcessorGrid::new(3, 2);
        for fold in [
            FoldStrategy::DirectAllToAll,
            FoldStrategy::ReduceScatterUnion,
            FoldStrategy::TwoPhaseRing,
        ] {
            let config = BfsConfig {
                fold,
                direction: crate::config::DirectionPolicy::bottom_up(),
                ..BfsConfig::default()
            };
            check_against_oracle(spec, grid, config);
        }
        // Without the sent cache bottom-up re-probes labeled rows but
        // must still land on the oracle labels.
        let config = BfsConfig {
            sent_neighbors: false,
            direction: crate::config::DirectionPolicy::bottom_up(),
            ..BfsConfig::default()
        };
        check_against_oracle(spec, grid, config);
    }

    #[test]
    fn bottom_up_levels_agree_under_every_expand_strategy() {
        // A bottom-up level tests only the columns a rank stores, and
        // every expand strategy delivers all of those, so the levels,
        // the direction vector and the per-level bottom-up probes do not
        // depend on the expand. (Top-down probes do: the all-gather and
        // two-phase expands also deliver columns stored elsewhere.)
        let spec = GraphSpec::rmat(1 << 11, 12.0, 5);
        let grid = ProcessorGrid::new(3, 4);
        let graph = DistGraph::build(spec, grid);
        for direction in [
            crate::config::DirectionPolicy::adaptive(),
            crate::config::DirectionPolicy::bottom_up(),
        ] {
            let runs: Vec<_> = [
                ExpandStrategy::Targeted,
                ExpandStrategy::AllGatherRing,
                ExpandStrategy::TwoPhaseRing,
            ]
            .into_iter()
            .map(|expand| {
                let config = BfsConfig {
                    expand,
                    direction,
                    ..BfsConfig::default()
                };
                let mut world = SimWorld::bluegene(grid);
                let r = try_run(&graph, &mut world, &config, 0).unwrap();
                let dirs: Vec<LevelDirection> =
                    r.stats.levels.iter().map(|l| l.direction).collect();
                let bu: Vec<u64> = r.stats.levels.iter().map(|l| l.bu_probes).collect();
                (expand, r.levels, dirs, bu)
            })
            .collect();
            let (_, levels, dirs, bu) = &runs[0];
            assert!(dirs.contains(&LevelDirection::BottomUp), "{direction:?}");
            for (expand, l, d, b) in &runs[1..] {
                let what = format!("{expand:?} {direction:?}");
                assert_eq!(l, levels, "{what}");
                assert_eq!(d, dirs, "{what}");
                assert_eq!(b, bu, "{what}");
            }
        }
    }

    #[test]
    fn direction_optimized_across_grids() {
        let spec = GraphSpec::poisson(500, 7.0, 77);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        for (r, c) in [(1, 1), (1, 4), (4, 1), (2, 3), (4, 4)] {
            let grid = ProcessorGrid::new(r, c);
            let graph = DistGraph::build(spec, grid);
            let mut world = SimWorld::bluegene(grid);
            let got = try_run(&graph, &mut world, &BfsConfig::direction_optimized(), 0).unwrap();
            assert_eq!(got.levels, expect, "grid {r}x{c}");
        }
    }

    #[test]
    fn direction_optimized_recovery_is_bit_identical() {
        let spec = GraphSpec::poisson(400, 6.0, 31);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let plan = FaultPlan::seeded(5).with_drop_prob(0.1).kill_rank_at(4, 3);
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let got = run_resilient(
            &graph,
            &mut world,
            &BfsConfig::direction_optimized(),
            0,
            &ResilientConfig::default(),
        )
        .unwrap();
        // The revived rank rejoins with a cold sent cache and a reset
        // unexplored counter; that may shift later direction choices
        // but never the labels.
        assert_eq!(got.result.levels, expect);
        assert_eq!(got.recoveries, 1);
    }

    // ---- fault injection and recovery ----

    #[test]
    fn none_fault_plan_is_byte_identical() {
        let spec = GraphSpec::poisson(300, 6.0, 23);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let mut clean = SimWorld::bluegene(grid);
        let a = try_run(&graph, &mut clean, &BfsConfig::default(), 0).unwrap();
        let mut gated = SimWorld::bluegene(grid).with_fault_plan(FaultPlan::none());
        let b = try_run(&graph, &mut gated, &BfsConfig::default(), 0).unwrap();
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.stats.sim_time, b.stats.sim_time);
        assert_eq!(a.stats.comm, b.stats.comm);
    }

    #[test]
    fn lossy_run_is_transparent_but_slower() {
        let spec = GraphSpec::poisson(300, 6.0, 37);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let mut clean = SimWorld::bluegene(grid);
        let a = try_run(&graph, &mut clean, &BfsConfig::default(), 0).unwrap();
        let plan = FaultPlan::seeded(7)
            .with_drop_prob(0.2)
            .with_truncate_prob(0.05)
            .with_duplicate_prob(0.05);
        let mut lossy = SimWorld::bluegene(grid).with_fault_plan(plan);
        let b = try_run(&graph, &mut lossy, &BfsConfig::default(), 0).unwrap();
        assert_eq!(a.levels, b.levels, "retransmission must be transparent");
        assert!(b.stats.sim_time > a.stats.sim_time, "retries cost time");
        assert!(b.stats.comm.faults.retransmissions > 0);
        assert!(b.stats.comm.faults.drops_injected > 0);
        // Logical message accounting is unchanged by the fault protocol.
        assert_eq!(
            a.stats.comm.class(OpClass::Fold).received_verts,
            b.stats.comm.class(OpClass::Fold).received_verts
        );
    }

    #[test]
    fn rank_death_without_resilience_is_typed_error() {
        let spec = GraphSpec::poisson(300, 6.0, 31);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let plan = FaultPlan::seeded(5).kill_rank_at(4, 3);
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let err = try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap_err();
        assert_eq!(err, CommError::RankDead { rank: 4 });
    }

    #[test]
    fn dead_rank_recovery_is_bit_identical() {
        let spec = GraphSpec::poisson(400, 6.0, 31);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        for (r, c, victim, round) in [(2, 3, 4usize, 3u64), (3, 3, 0, 2), (2, 2, 1, 5)] {
            let grid = ProcessorGrid::new(r, c);
            let graph = DistGraph::build(spec, grid);
            let plan = FaultPlan::seeded(5).kill_rank_at(victim, round);
            let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
            let got = run_resilient(
                &graph,
                &mut world,
                &BfsConfig::default(),
                0,
                &ResilientConfig::default(),
            )
            .unwrap();
            assert_eq!(got.result.levels, expect, "grid {r}x{c} victim {victim}");
            assert_eq!(got.recoveries, 1);
            assert_eq!(got.recovered_ranks, vec![victim]);
            assert!(got.recovery_time > 0.0);
            assert_eq!(world.stats.faults.recoveries, 1);
        }
    }

    #[test]
    fn recovery_under_lossy_exchanges_still_exact() {
        let spec = GraphSpec::poisson(350, 5.0, 47);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let plan = FaultPlan::seeded(13)
            .with_drop_prob(0.15)
            .kill_rank_at(2, 4);
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let got = run_resilient(
            &graph,
            &mut world,
            &BfsConfig::default(),
            0,
            &ResilientConfig {
                checkpoint_every: 2,
                max_recoveries: 4,
                ..ResilientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(got.result.levels, expect);
        assert_eq!(got.recoveries, 1);
        assert!(got.result.stats.comm.faults.retransmissions > 0);
    }

    #[test]
    fn max_recoveries_zero_refuses_recovery() {
        let spec = GraphSpec::poisson(200, 5.0, 9);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let plan = FaultPlan::seeded(3).kill_rank_at(1, 2);
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let err = run_resilient(
            &graph,
            &mut world,
            &BfsConfig::default(),
            0,
            &ResilientConfig {
                checkpoint_every: 1,
                max_recoveries: 0,
                ..ResilientConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, CommError::RankDead { rank: 1 });
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let spec = GraphSpec::poisson(100, 4.0, 9);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let err = run_resilient(
            &graph,
            &mut world,
            &BfsConfig::default(),
            0,
            &ResilientConfig {
                checkpoint_every: 0,
                ..ResilientConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            CommError::InvalidConfig {
                reason: "checkpoint_every must be nonzero"
            }
        );
        // Singleton parity groups and zero retry budgets are equally
        // nonsensical.
        for rc in [
            ResilientConfig {
                parity_group_size: 1,
                ..ResilientConfig::default()
            },
            ResilientConfig {
                recovery_attempts: 0,
                ..ResilientConfig::default()
            },
        ] {
            assert!(matches!(
                rc.validate(),
                Err(CommError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn buddy_pair_death_recovers_bit_identically_with_parity_groups() {
        // The single-buddy mirror's fatal case: ranks r and (r+1) % p
        // die in the same level. With g = 3 the pair straddles two
        // parity groups ({0,1,2} and {3,4,5}), so each death is the
        // only one in its group and both reconstruct exactly.
        let spec = GraphSpec::poisson(400, 6.0, 31);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let plan = FaultPlan::seeded(5).kill_rank_at(2, 4).kill_rank_at(3, 4);
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let got = run_resilient(
            &graph,
            &mut world,
            &BfsConfig::default(),
            0,
            &ResilientConfig {
                parity_group_size: 3,
                ..ResilientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(got.result.levels, expect, "buddy pair must recover");
        assert_eq!(got.recoveries, 2);
        assert_eq!(got.degraded_restarts, 0);
        assert_eq!(got.recovered_ranks, vec![2, 3]);
        assert_eq!(world.stats.faults.recoveries, 2);
    }

    #[test]
    fn same_group_double_death_falls_back_to_degraded_restart() {
        // Two deaths inside one parity group exceed the XOR budget:
        // the engine must restart from the last full checkpoint (and
        // still land on the oracle's labels).
        let spec = GraphSpec::poisson(400, 6.0, 31);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let plan = FaultPlan::seeded(5).kill_rank_at(0, 4).kill_rank_at(1, 4);
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan.clone());
        let got = run_resilient(
            &graph,
            &mut world,
            &BfsConfig::default(),
            0,
            &ResilientConfig {
                parity_group_size: 3,
                ..ResilientConfig::default()
            },
        )
        .unwrap();
        assert_eq!(got.result.levels, expect, "degraded restart must recover");
        assert_eq!(got.degraded_restarts, 1);
        assert_eq!(got.recoveries, 0, "parity cannot cover a double death");
        assert!(got.recovery_time > 0.0);

        // With the fallback disabled the same schedule is fatal — and
        // typed, not a panic.
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let err = run_resilient(
            &graph,
            &mut world,
            &BfsConfig::default(),
            0,
            &ResilientConfig {
                parity_group_size: 3,
                degraded_fallback: false,
                ..ResilientConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, CommError::RecoveryFailed { .. }),
            "expected RecoveryFailed, got {err}"
        );
    }

    #[test]
    fn resilient_without_faults_matches_plain_levels() {
        let spec = GraphSpec::poisson(300, 6.0, 61);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let mut w1 = SimWorld::bluegene(grid);
        let plain = try_run(&graph, &mut w1, &BfsConfig::default(), 0).unwrap();
        let mut w2 = SimWorld::bluegene(grid);
        let res = run_resilient(
            &graph,
            &mut w2,
            &BfsConfig::default(),
            0,
            &ResilientConfig::default(),
        )
        .unwrap();
        assert_eq!(res.result.levels, plain.levels);
        assert_eq!(res.recoveries, 0);
        assert!(res.recovered_ranks.is_empty());
        // The mirror traffic rides the control network only.
        assert_eq!(
            res.result.stats.comm.class(OpClass::Expand).received_verts,
            plain.stats.comm.class(OpClass::Expand).received_verts
        );
        assert_eq!(
            res.result.stats.comm.class(OpClass::Fold).received_verts,
            plain.stats.comm.class(OpClass::Fold).received_verts
        );
    }
}
