//! Multi-source (batched) BFS: up to [`MAX_LANES`] sources advance
//! through one lane-masked superstep wave.
//!
//! The serving layer (`bgl-server`) packs pending queries into *lanes*
//! — bit `l` of a [`bgl_comm::LaneMask`] marks membership of lane `l`'s
//! search — and runs them through the same expand → discover → fold →
//! absorb superstep structure as [`crate::bfs2d`], except that every
//! exchanged vertex carries its lane mask ([`bgl_comm::LaneSet`], two
//! wire payloads per message). One round of communication therefore
//! advances *all* lanes by one level, collapsing the per-message α
//! overhead B-fold, and overlapping frontiers (universal on the
//! low-diameter scale-free graphs the paper targets: every search
//! floods the same high-degree core within a hop or two) share both
//! wire bytes and per-edge hash probes — a vertex reached by 16 lanes
//! in the same wave is shipped once and its edge list is scanned once.
//!
//! **Per-lane equivalence.** Lane `l` labels vertex `u` at wave `d+1`
//! iff `u` has a neighbor at lane-`l` distance `d` and is unlabeled in
//! lane `l` — exactly the single-source induction, so every lane's
//! level array is *identical* to its standalone [`crate::bfs2d::try_run`]
//! (asserted per-batch by [`validate_lanes`] against the Graph500-style
//! validator, and property-tested across worker counts × wire policies in
//! `tests/proptest_multi.rs`).
//!
//! **Determinism.** The wave loop follows the same discipline as the
//! single-source engine: per-rank closures are pure, results collect
//! positionally whatever the worker count, lane sets merge by sorted
//! two-pointer unions, and all clock accounting happens in the serial
//! collective layer — 1-worker and many-worker runs are bit-identical.

use crate::reference::UNREACHED;
use crate::state::RowMarks;
use crate::step::route_to_row_peers;
use crate::validate::{self, ValidationError, ValidationReport};
use bgl_comm::collectives::lane::{lane_alltoallv, LaneSendList};
use bgl_comm::collectives::Groups;
use bgl_comm::{CommError, LaneMask, LaneSet, OpClass, Phase, ProcessorGrid, SimWorld, MAX_LANES};
use bgl_graph::{DistGraph, GraphSpec, RankGraph, TwoDPartition, Vertex};
use rayon::ParallelSliceMut;

/// Configuration for a batched multi-source run.
#[derive(Debug, Clone, Copy)]
pub struct MultiConfig {
    /// Keep the §2.4.3 sent-neighbors cache, widened to one lane mask
    /// per row-local vertex: a neighbor is re-sent only for lanes that
    /// have not shipped it yet.
    pub sent_neighbors: bool,
    /// Stop after this many waves (0 = run to exhaustion).
    pub max_waves: u32,
}

impl Default for MultiConfig {
    fn default() -> Self {
        Self {
            sent_neighbors: true,
            max_waves: 0,
        }
    }
}

/// Per-wave accounting for one batched run.
#[derive(Debug, Clone, Copy)]
pub struct WaveStats {
    /// Wave index (= BFS level assigned by this wave's absorb).
    pub wave: u32,
    /// Global `(vertex, lane)` frontier memberships entering the wave.
    pub frontier_pairs: u64,
    /// Distinct frontier vertices entering the wave (across all ranks).
    pub frontier_verts: u64,
    /// Simulated seconds this wave took.
    pub sim_time: f64,
}

/// Result of a batched multi-source run.
#[derive(Debug, Clone)]
pub struct MultiBfsResult {
    /// Per-lane global level arrays, indexed `[lane][vertex]`.
    pub lane_levels: Vec<Vec<u32>>,
    /// The sources, lane `l` searched from `sources[l]`.
    pub sources: Vec<Vertex>,
    /// Per-wave statistics.
    pub waves: Vec<WaveStats>,
    /// Total simulated seconds for the batch.
    pub sim_time: f64,
    /// Simulated seconds spent in communication.
    pub comm_time: f64,
    /// Total hash probes charged across all ranks.
    pub total_probes: u64,
}

impl MultiBfsResult {
    /// Number of lanes in the batch.
    pub fn lanes(&self) -> usize {
        self.sources.len()
    }
}

/// Per-rank state for a batched run: the lane-masked widening of
/// [`crate::state::RankState`].
#[derive(Debug, Clone)]
pub struct MultiRankState<'g> {
    rg: &'g RankGraph,
    grid: ProcessorGrid,
    /// Level labels for owned vertices, indexed `[lane][owned offset]`.
    pub levels: Vec<Vec<u32>>,
    /// Lanes that have labeled each owned vertex (by owned offset).
    visited: Vec<LaneMask>,
    /// Current frontier: owned vertices with the mask of lanes for
    /// which they sit at the current level.
    pub frontier: LaneSet,
    /// Sent-neighbors cache over row-local ids, one lane mask each
    /// (empty when disabled).
    sent: Vec<LaneMask>,
    /// Hash probes since the last [`MultiRankState::take_probes`].
    pub probes: u64,
}

impl<'g> MultiRankState<'g> {
    /// Fresh state for a rank of `graph`, serving `lanes` lanes.
    pub fn new(rg: &'g RankGraph, partition: TwoDPartition, lanes: usize, use_sent: bool) -> Self {
        assert!((1..=MAX_LANES).contains(&lanes), "lanes must be in 1..=64");
        Self {
            rg,
            grid: partition.grid(),
            levels: vec![vec![UNREACHED; rg.owned_len()]; lanes],
            visited: vec![0; rg.owned_len()],
            frontier: LaneSet::new(),
            sent: if use_sent {
                vec![0; rg.edges.num_row_ids()]
            } else {
                Vec::new()
            },
            probes: 0,
        }
    }

    /// Seed every lane whose source this rank owns. Two lanes may share
    /// a source; their bits simply travel together from wave 0.
    pub fn init_sources(&mut self, sources: &[Vertex]) {
        let mut pairs: Vec<(Vertex, LaneMask)> = Vec::new();
        for (lane, &s) in sources.iter().enumerate() {
            if let Some(off) = self.rg.owned_local(s) {
                self.levels[lane][off] = 0;
                self.visited[off] |= 1 << lane;
                pairs.push((s, 1 << lane));
            }
        }
        self.frontier = LaneSet::from_pairs(pairs);
    }

    /// `(vertex, lane)` memberships in the local frontier.
    pub fn frontier_pairs(&self) -> u64 {
        self.frontier.lane_pairs()
    }

    /// Targeted expand sends: each frontier vertex goes — mask and all —
    /// to every processor-column peer whose partial edge list for it is
    /// non-empty (the lane-masked twin of
    /// [`crate::state::RankState::expand_sends_targeted`]).
    pub fn expand_sends(&mut self) -> LaneSendList {
        let (_, j) = self.grid.position_of(self.rg.rank);
        let mut per_row: Vec<LaneSet> = vec![LaneSet::new(); self.grid.rows()];
        for (v, mask) in self.frontier.iter() {
            let off = (v - self.rg.owned.start) as usize;
            for &i2 in self.rg.expand_targets(off) {
                per_row[i2 as usize].push(v, mask);
            }
        }
        per_row
            .into_iter()
            .enumerate()
            .filter(|(_, set)| !set.is_empty())
            .map(|(i2, set)| (self.grid.rank_of(i2, j), set))
            .collect()
    }

    /// Process the received lane-masked frontier F̄ and produce the fold
    /// blocks per processor-row peer (grid column). An edge list is
    /// scanned **once per received frontier vertex regardless of how
    /// many lanes ride it** — the batching win. Probe accounting
    /// mirrors the single-source kernel: one probe per received vertex
    /// plus one per edge entry traversed.
    pub fn discover(&mut self, fbar: &[LaneSet]) -> Vec<LaneSet> {
        let rg = self.rg;
        let mut marks = RowMarks::new(rg.edges.num_row_ids());
        // Lanes found for each marked row this call, OR-merged.
        let mut found: Vec<LaneMask> = vec![0; rg.edges.num_row_ids()];
        for set in fbar {
            for (v, mask) in set.iter() {
                self.probes += 1;
                let Some(ci) = rg.edges.col_local(v) else {
                    continue;
                };
                for &rl in rg.edges.rows_of(ci) {
                    self.probes += 1;
                    let mut emit = mask;
                    if !self.sent.is_empty() {
                        emit = mask & !self.sent[rl as usize];
                        if emit == 0 {
                            continue;
                        }
                        self.sent[rl as usize] |= emit;
                    }
                    marks.mark(rl);
                    found[rl as usize] |= emit;
                }
            }
        }
        let mut blocks: Vec<LaneSet> = vec![LaneSet::new(); self.grid.cols()];
        marks.drain(rg.row_blocks(), |m, rl| {
            blocks[m].push(rg.edges.row_of_local(rl), found[rl as usize]);
        });
        blocks
    }

    /// Absorb folded lane sets: for each delivered `(vertex, mask)`
    /// pair, label the not-yet-visited lanes with `next_level` and put
    /// the fresh memberships on the next frontier. Returns newly
    /// labeled `(vertex, lane)` memberships. One probe per delivered
    /// pair (the owned local-index lookup), as in the single-source
    /// absorb.
    pub fn absorb(&mut self, nbar: &[LaneSet], next_level: u32) -> u64 {
        let mut fresh: Vec<(Vertex, LaneMask)> = Vec::new();
        let mut labeled = 0u64;
        for set in nbar {
            for (v, mask) in set.iter() {
                self.probes += 1;
                let off = self
                    .rg
                    .owned_local(v)
                    .expect("fold delivered a vertex to a non-owner"); // bgl-lint: allow(r1, reason = "fold routes each vertex to the owner of its block column, so delivery to a non-owner is a partitioning bug")
                let new = mask & !self.visited[off];
                if new == 0 {
                    continue;
                }
                self.visited[off] |= new;
                let mut bits = new;
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    self.levels[lane][off] = next_level;
                    bits &= bits - 1;
                }
                labeled += new.count_ones() as u64;
                fresh.push((v, new));
            }
        }
        self.frontier = LaneSet::from_pairs(fresh);
        labeled
    }

    /// Take and reset the probe counter (charged once per wave).
    pub fn take_probes(&mut self) -> u64 {
        std::mem::take(&mut self.probes)
    }

    /// The rank's static graph share.
    pub fn rank_graph(&self) -> &'g RankGraph {
        self.rg
    }
}

/// Gather per-rank lane-major level arrays into per-lane global arrays.
pub fn gather_lane_levels(states: &[MultiRankState<'_>], lanes: usize, n: u64) -> Vec<Vec<u32>> {
    let mut out = vec![vec![UNREACHED; n as usize]; lanes];
    for st in states {
        let start = st.rank_graph().owned.start as usize;
        for (lane, lane_out) in out.iter_mut().enumerate() {
            let src = &st.levels[lane];
            lane_out[start..start + src.len()].copy_from_slice(src);
        }
    }
    out
}

/// Run a batched multi-source BFS. Communication faults surface as
/// typed errors.
pub fn try_run(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &MultiConfig,
    sources: &[Vertex],
) -> Result<MultiBfsResult, CommError> {
    let grid = world.grid();
    assert_eq!(grid, graph.grid(), "world and graph grids must match");
    let lanes = sources.len();
    assert!(
        (1..=MAX_LANES).contains(&lanes),
        "batch must pack 1..=64 sources, got {lanes}"
    );
    for &s in sources {
        assert!(s < graph.spec.n, "source {s} out of range");
    }
    let p = grid.len();

    let row_groups = Groups::rows_of(grid);
    let col_groups = Groups::cols_of(grid);

    let mut states: Vec<MultiRankState<'_>> = graph
        .ranks
        .iter()
        .map(|rg| MultiRankState::new(rg, graph.partition, lanes, config.sent_neighbors))
        .collect();
    for st in states.iter_mut() {
        st.init_sources(sources);
    }

    let time_at_start = world.time();
    let comm_at_start = world.comm_time();
    let mut waves = Vec::new();
    let mut total_probes = 0u64;

    let mut wave: u32 = 0;
    loop {
        if config.max_waves > 0 && wave >= config.max_waves {
            break;
        }
        let t0 = world.time();

        // -- 1. termination on global (vertex, lane) frontier mass. The
        // distinct-vertex count rides the same tree round as a second
        // word (occupancy telemetry, no extra communication).
        let pair_counts: Vec<u64> = states.iter().map(|s| s.frontier_pairs()).collect();
        let vert_counts: Vec<u64> = states.iter().map(|s| s.frontier.len() as u64).collect();
        let zeros = vec![0u64; p];
        let (global_pairs, global_verts, _) =
            world.allreduce_sum3(&pair_counts, &vert_counts, &zeros);
        world.trace_span(Phase::Termination, wave, t0);
        if global_pairs == 0 {
            break;
        }

        // -- 2. expand over processor-columns, masks riding along.
        let t_expand = world.time();
        let sends: Vec<LaneSendList> = states.par_iter_mut().map(|s| s.expand_sends()).collect();
        let fbar = lane_alltoallv(world, OpClass::Expand, &col_groups, sends)?;
        world.trace_span(Phase::Expand, wave, t_expand);

        // -- 3. local discovery (edge scans shared across lanes).
        let t_discover = world.time();
        let blocks: Vec<Vec<LaneSet>> = states
            .par_iter_mut()
            .zip(&fbar)
            .map_collect(|s, lists| s.discover(lists));
        drop(fbar);
        world.trace_span(Phase::Discover, wave, t_discover);

        // -- 4. fold over processor-rows.
        let t_fold = world.time();
        let sends = route_to_row_peers(grid, blocks, LaneSet::is_empty);
        let nbar = lane_alltoallv(world, OpClass::Fold, &row_groups, sends)?;
        world.trace_span(Phase::Fold, wave, t_fold);

        // -- 5. absorb + hash charge.
        let t_absorb = world.time();
        let _: Vec<u64> = states
            .par_iter_mut()
            .zip(&nbar)
            .map_collect(|s, lists| s.absorb(lists, wave + 1));
        drop(nbar);
        let probes: Vec<u64> = states.iter_mut().map(MultiRankState::take_probes).collect();
        total_probes += probes.iter().sum::<u64>();
        world.hash_phase(&probes);
        world.trace_span(Phase::Absorb, wave, t_absorb);
        world.trace_span(Phase::Level, wave, t0);

        waves.push(WaveStats {
            wave,
            frontier_pairs: global_pairs,
            frontier_verts: global_verts,
            sim_time: world.time() - t0,
        });
        wave += 1;
    }

    Ok(MultiBfsResult {
        lane_levels: gather_lane_levels(&states, lanes, graph.spec.n),
        sources: sources.to_vec(),
        waves,
        sim_time: world.time() - time_at_start,
        comm_time: world.comm_time() - comm_at_start,
        total_probes,
    })
}

/// Certify every lane of a batched result with the Graph500-style
/// validator ([`validate::validate_against_spec`]). Returns the
/// per-lane reports, or the first lane's failure.
pub fn validate_lanes(
    spec: &GraphSpec,
    result: &MultiBfsResult,
) -> Result<Vec<ValidationReport>, ValidationError> {
    result
        .sources
        .iter()
        .zip(&result.lane_levels)
        .map(|(&s, levels)| validate::validate_against_spec(spec, levels, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs2d, BfsConfig};

    fn single_levels(graph: &DistGraph, source: Vertex) -> Vec<u32> {
        let mut world = SimWorld::bluegene(graph.grid());
        bfs2d::try_run(graph, &mut world, &BfsConfig::paper_optimized(), source)
            .unwrap()
            .levels
    }

    /// The lane-masked discover as it ran on the hash-mapped layout:
    /// `row_local` per entry, `block_col_of` per row, and a sort and
    /// OR-merge of every block in `LaneSet::from_pairs`.
    fn hashed_discover(
        st: &mut MultiRankState<'_>,
        partition: &TwoDPartition,
        fbar: &[LaneSet],
    ) -> Vec<LaneSet> {
        let edges = &st.rg.edges;
        let mut blocks: Vec<Vec<(Vertex, LaneMask)>> = vec![Vec::new(); partition.cols()];
        for set in fbar {
            for (v, mask) in set.iter() {
                st.probes += 1;
                if edges.col_local(v).is_none() {
                    continue;
                }
                for u in edges.neighbors_of(v) {
                    st.probes += 1;
                    let mut emit = mask;
                    if !st.sent.is_empty() {
                        let rl = edges.row_local(u).unwrap() as usize;
                        emit = mask & !st.sent[rl];
                        if emit == 0 {
                            continue;
                        }
                        st.sent[rl] |= emit;
                    }
                    blocks[partition.block_col_of(u)].push((u, emit));
                }
            }
        }
        blocks.into_iter().map(LaneSet::from_pairs).collect()
    }

    #[test]
    fn discover_matches_hashed_kernel_at_every_wave() {
        // Five lanes (two sharing a source) driven wave by wave: every
        // rank's discover must equal the hashed kernel's blocks, probes
        // and sent cache at every wave.
        let sources = [1u64, 77, 77, 2_900, 1_234];
        for spec in [
            GraphSpec::poisson(3_000, 8.0, 4),
            GraphSpec::rmat(1 << 12, 8.0, 6),
        ] {
            for grid in [ProcessorGrid::new(3, 5), ProcessorGrid::new(8, 8)] {
                let g = DistGraph::build(spec, grid);
                let p = grid.len();
                for use_sent in [true, false] {
                    let mut sts: Vec<MultiRankState<'_>> = g
                        .ranks
                        .iter()
                        .map(|rg| MultiRankState::new(rg, g.partition, sources.len(), use_sent))
                        .collect();
                    for st in sts.iter_mut() {
                        st.init_sources(&sources);
                    }
                    let mut wave = 1;
                    loop {
                        let mut fbar: Vec<Vec<LaneSet>> = vec![Vec::new(); p];
                        for st in sts.iter_mut() {
                            for (peer, set) in st.expand_sends() {
                                fbar[peer].push(set);
                            }
                        }
                        if fbar.iter().all(Vec::is_empty) {
                            break;
                        }
                        let mut nbar: Vec<Vec<LaneSet>> = vec![Vec::new(); p];
                        for (rank, st) in sts.iter_mut().enumerate() {
                            let what = format!(
                                "{:?} {grid:?} sent={use_sent} wave {wave} rank {rank}",
                                spec.family
                            );
                            let mut hashed = st.clone();
                            let want = hashed_discover(&mut hashed, &g.partition, &fbar[rank]);
                            let blocks = st.discover(&fbar[rank]);
                            assert_eq!(blocks, want, "{what}");
                            assert_eq!(st.probes, hashed.probes, "{what}");
                            assert_eq!(st.sent, hashed.sent, "{what}");
                            let row = grid.row_of(rank);
                            for (m, block) in blocks.into_iter().enumerate() {
                                nbar[grid.rank_of(row, m)].push(block);
                            }
                        }
                        for (rank, st) in sts.iter_mut().enumerate() {
                            st.absorb(&nbar[rank], wave);
                        }
                        wave += 1;
                    }
                    assert!(wave > 3, "{:?} {grid:?}", spec.family);
                }
            }
        }
    }

    #[test]
    fn lanes_match_single_source_runs() {
        let spec = GraphSpec::rmat(2_000, 8.0, 7);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let sources = [0u64, 17, 17, 999, 1500];
        let mut world = SimWorld::bluegene(grid);
        let r = try_run(&graph, &mut world, &MultiConfig::default(), &sources).unwrap();
        assert_eq!(r.lanes(), sources.len());
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(
                r.lane_levels[lane],
                single_levels(&graph, s),
                "lane {lane} (source {s}) diverged from its standalone run"
            );
        }
        validate_lanes(&spec, &r).expect("validator");
    }

    #[test]
    fn sent_cache_off_agrees() {
        let spec = GraphSpec::poisson(600, 6.0, 3);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let sources = [5u64, 400];
        let cfg_on = MultiConfig::default();
        let cfg_off = MultiConfig {
            sent_neighbors: false,
            ..MultiConfig::default()
        };
        let mut w1 = SimWorld::bluegene(grid);
        let mut w2 = SimWorld::bluegene(grid);
        let a = try_run(&graph, &mut w1, &cfg_on, &sources).unwrap();
        let b = try_run(&graph, &mut w2, &cfg_off, &sources).unwrap();
        assert_eq!(a.lane_levels, b.lane_levels);
    }

    #[test]
    fn one_worker_and_many_workers_bit_identical() {
        let spec = GraphSpec::rmat(1_500, 8.0, 11);
        let grid = ProcessorGrid::new(4, 4);
        let graph = DistGraph::build(spec, grid);
        let sources: Vec<u64> = (0..16).map(|i| (i * 91) % 1_500).collect();
        let run_with = |workers| {
            rayon::with_worker_threads(workers, || {
                let mut world =
                    SimWorld::bluegene(grid).with_wire_policy(bgl_comm::WirePolicy::auto());
                let r = try_run(&graph, &mut world, &MultiConfig::default(), &sources).unwrap();
                (r.lane_levels, world.time().to_bits(), r.total_probes)
            })
        };
        assert_eq!(run_with(1), run_with(4));
    }

    #[test]
    fn single_lane_batch_equals_single_source() {
        let spec = GraphSpec::rmat(1_000, 8.0, 21);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let r = try_run(&graph, &mut world, &MultiConfig::default(), &[42]).unwrap();
        assert_eq!(r.lane_levels[0], single_levels(&graph, 42));
    }

    #[test]
    fn max_waves_truncates() {
        let spec = GraphSpec::rmat(1_000, 8.0, 21);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let cfg = MultiConfig {
            max_waves: 1,
            ..MultiConfig::default()
        };
        let r = try_run(&graph, &mut world, &cfg, &[42]).unwrap();
        assert!(r.waves.len() <= 1);
        assert!(r.lane_levels[0].iter().all(|&l| l == UNREACHED || l <= 1));
    }
}
