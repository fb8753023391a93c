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
//! validator, and property-tested across worker counts × wire policies
//! × direction policies in `tests/proptest_multi.rs`).
//!
//! **Direction.** Each wave runs top-down or bottom-up for all lanes at
//! once, chosen by [`DirectionPolicy::wants_bottom_up`] exactly as in
//! [`crate::bfs2d`] (adaptive by default). The inputs ride the
//! termination allreduce, widened from three words to four: `(vertex,
//! lane)` pairs, distinct frontier vertices `gf`, the stored entries of
//! each rank's own frontier vertices `mf̂`, and `mû`, the stored entries
//! of rows whose sent mask does not yet hold every lane (kept
//! incrementally by both kernels). A top-down policy keeps the
//! three-word round, so its clock is unchanged. Both directions ship
//! the frontier with the same targeted expand ([`lane_alltoallv`] to
//! the processor-column peers that store each vertex's column, traced
//! as `Phase::Gather` on bottom-up waves). A bottom-up wave then scans
//! every stored row: a row ORs the lane masks of its frontier columns
//! into the lanes it still needs and stops once they are all found — the bit-parallel multi-source BFS of Then et al. ("The More
//! the Merrier", PVLDB 2014) under the distributed direction switch.
//! Fold and absorb are shared by both directions. A bottom-up block is
//! the top-down block minus lanes absorb would drop anyway, so every
//! lane's levels are the same in either direction.
//!
//! **Probe accounting.** Top-down charges one probe per received
//! frontier vertex plus one per stored entry scanned; bottom-up charges
//! one per column tested; absorb charges one per delivered pair. Each
//! wave's probes go to the cost model in one `hash_phase` charge.
//!
//! **Determinism.** The wave loop follows the same discipline as the
//! single-source engine: per-rank closures are pure, results collect
//! positionally whatever the worker count, lane sets merge by sorted
//! two-pointer unions, and all clock accounting happens in the serial
//! collective layer — 1-worker and many-worker runs are bit-identical.

use crate::config::DirectionPolicy;
use crate::reference::UNREACHED;
use crate::state::{targeted_sends, RowMarks};
use crate::stats::LevelDirection;
use crate::step::{check_input, route_to_row_peers};
use crate::validate::{self, ValidationError, ValidationReport};
use bgl_comm::collectives::lane::{lane_alltoallv, LaneSendList};
use bgl_comm::collectives::Groups;
use bgl_comm::{CommError, LaneMask, LaneSet, OpClass, Phase, ProcessorGrid, SimWorld, MAX_LANES};
use bgl_graph::{DistGraph, GraphSpec, RankGraph, TwoDPartition, Vertex};
use rayon::ParallelSliceMut;

/// Configuration for a batched multi-source run. The §2.4.3
/// sent-neighbors cache is always on, widened to one lane mask per
/// row-local vertex: a neighbor is re-sent only for lanes that have not
/// shipped it yet.
#[derive(Debug, Clone, Copy)]
pub struct MultiConfig {
    /// Per-wave direction policy, decided for all lanes at once by the
    /// same α/β rule as [`crate::bfs2d`]. Defaults to adaptive.
    pub direction: DirectionPolicy,
}

impl Default for MultiConfig {
    fn default() -> Self {
        Self {
            direction: DirectionPolicy::Adaptive,
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
    /// The direction the wave ran.
    pub direction: LevelDirection,
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

    /// Waves that ran bottom-up.
    pub fn bu_waves(&self) -> usize {
        self.waves
            .iter()
            .filter(|w| w.direction == LevelDirection::BottomUp)
            .count()
    }
}

/// Per-rank state for a batched run: the lane-masked widening of
/// [`crate::state::RankState`].
#[derive(Debug, Clone)]
struct MultiRankState<'g> {
    rg: &'g RankGraph,
    grid: ProcessorGrid,
    /// Level labels for owned vertices, indexed `[lane][owned offset]`.
    levels: Vec<Vec<u32>>,
    /// Lanes that have labeled each owned vertex (by owned offset).
    visited: Vec<LaneMask>,
    /// Current frontier: owned vertices with the mask of lanes for
    /// which they sit at the current level.
    frontier: LaneSet,
    /// Sent-neighbors cache over row-local ids, one lane mask each.
    sent: Vec<LaneMask>,
    /// Every lane of the batch.
    full: LaneMask,
    /// Stored entries of rows whose sent mask is not yet `full` — the
    /// local share of `mû`. Host-side only: never charged.
    unexplored: u64,
    /// Hash probes since the last [`MultiRankState::take_probes`].
    probes: u64,
}

impl<'g> MultiRankState<'g> {
    /// Fresh state for a rank of `graph`, serving `lanes` lanes.
    fn new(rg: &'g RankGraph, partition: TwoDPartition, lanes: usize) -> Self {
        assert!((1..=MAX_LANES).contains(&lanes), "lanes must be in 1..=64");
        Self {
            rg,
            grid: partition.grid(),
            levels: vec![vec![UNREACHED; rg.owned_len()]; lanes],
            visited: vec![0; rg.owned_len()],
            frontier: LaneSet::new(),
            sent: vec![0; rg.edges.num_row_ids()],
            full: LaneMask::MAX >> (MAX_LANES - lanes),
            unexplored: rg.edges.num_entries() as u64,
            probes: 0,
        }
    }

    /// Seed every lane whose source this rank owns. Two lanes may share
    /// a source; their bits simply travel together from wave 0.
    fn init_sources(&mut self, sources: &[Vertex]) {
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
    fn frontier_pairs(&self) -> u64 {
        self.frontier.lane_pairs()
    }

    /// Targeted expand sends: each frontier vertex goes — mask and all —
    /// to every processor-column peer whose partial edge list for it is
    /// non-empty (the lane-masked twin of
    /// [`crate::state::RankState::expand_sends_targeted`]). The frontier
    /// is marked over the owned range, with each vertex's mask kept by
    /// owned offset, and the rows are walked a word at a time by the
    /// same `targeted_sends`.
    fn expand_sends(&mut self) -> LaneSendList {
        let rg = self.rg;
        let start = rg.owned.start;
        let mut marked = vec![0u64; rg.owned_len().div_ceil(64)];
        let mut mask_at: Vec<LaneMask> = vec![0; rg.owned_len()];
        for (v, mask) in self.frontier.iter() {
            let off = (v - start) as usize;
            marked[off / 64] |= 1 << (off % 64);
            mask_at[off] = mask;
        }
        let lists = |len| (Vec::with_capacity(len), Vec::with_capacity(len));
        let sends = targeted_sends(rg, self.grid, &marked, lists, |(verts, masks), off| {
            verts.push(start + off as Vertex);
            masks.push(mask_at[off]);
        });
        sends
            .into_iter()
            .map(|(peer, (verts, masks))| (peer, LaneSet::from_payloads(verts, masks)))
            .collect()
    }

    /// Process the received lane-masked frontier F̄ and produce the fold
    /// blocks per processor-row peer (grid column). An edge list is
    /// scanned **once per received frontier vertex regardless of how
    /// many lanes ride it** — the batching win. Probe accounting
    /// mirrors the single-source kernel: one probe per received vertex
    /// plus one per edge entry traversed.
    fn discover(&mut self, fbar: &[LaneSet]) -> Vec<LaneSet> {
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
                    let emit = mask & !self.sent[rl as usize];
                    if emit == 0 {
                        continue;
                    }
                    self.mark_sent(rl, emit);
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

    /// Bottom-up discover: scan every stored row for the lanes it still
    /// needs and OR in the lane masks of its frontier columns, stopping
    /// as soon as every needed lane is found. `fbar` is the received
    /// frontier F̄ of the targeted expand, the same input
    /// [`MultiRankState::discover`] takes: every frontier vertex whose
    /// column this rank stores, this rank's own included.
    ///
    /// A row needs the lanes that are live in those columns and not yet
    /// in its sent mask and, when this rank owns the row's vertex, not
    /// yet visited. (A lane with no frontier vertex here cannot be
    /// found here; without that cut a lane that has died out would
    /// defeat every early exit.) Each row emits `(u, found)` into its
    /// block column, so every block is the top-down
    /// [`MultiRankState::discover`]'s block minus, on rows this rank
    /// owns, the lanes already visited. Probes counted: one per column
    /// tested.
    fn discover_bottom_up(&mut self, fbar: &[LaneSet]) -> Vec<LaneSet> {
        let rg = self.rg;
        let edges = &rg.edges;
        let mut col_masks: Vec<LaneMask> = vec![0; edges.num_cols()];
        let mut live: LaneMask = 0;
        for set in fbar {
            for (v, mask) in set.iter() {
                if let Some(ci) = edges.col_local(v) {
                    col_masks[ci as usize] |= mask;
                    live |= mask;
                }
            }
        }
        let mut blocks: Vec<LaneSet> = vec![LaneSet::new(); self.grid.cols()];
        if live == 0 {
            return blocks;
        }
        for (block, range) in blocks.iter_mut().zip(rg.row_blocks().windows(2)) {
            for rl in range[0]..range[1] {
                let mut need = live & !self.sent[rl as usize];
                if need == 0 {
                    continue;
                }
                let u = edges.row_of_local(rl);
                if let Some(off) = rg.owned_local(u) {
                    need &= !self.visited[off];
                    if need == 0 {
                        continue;
                    }
                }
                let mut found: LaneMask = 0;
                for &ci in edges.cols_of_row_local(rl) {
                    self.probes += 1;
                    found |= col_masks[ci as usize] & need;
                    if found == need {
                        break;
                    }
                }
                if found != 0 {
                    self.mark_sent(rl, found);
                    block.push(u, found);
                }
            }
        }
        blocks
    }

    /// Record `lanes` (none of them sent yet) as sent for row `rl`; a
    /// row whose mask fills retires its entries from `unexplored`.
    #[inline]
    fn mark_sent(&mut self, rl: u32, lanes: LaneMask) {
        let sent = &mut self.sent[rl as usize];
        debug_assert!(lanes != 0 && *sent & lanes == 0);
        *sent |= lanes;
        if *sent == self.full {
            self.unexplored -= u64::from(self.rg.edges.row_degree(rl));
        }
    }

    /// Local share of `mf̂`: the stored entries of the rank's own
    /// frontier vertices (heuristic input only, never charged).
    fn frontier_degree(&self) -> u64 {
        self.frontier
            .verts()
            .iter()
            .map(|&v| self.rg.edges.neighbors_of(v).len() as u64)
            .sum()
    }

    /// Local share of `mû` (see the field doc).
    fn unexplored(&self) -> u64 {
        self.unexplored
    }

    /// Absorb folded lane sets: for each delivered `(vertex, mask)`
    /// pair, label the not-yet-visited lanes with `next_level` and put
    /// the fresh memberships on the next frontier. Returns newly
    /// labeled `(vertex, lane)` memberships. One probe per delivered
    /// pair (the owned local-index lookup), as in the single-source
    /// absorb.
    fn absorb(&mut self, nbar: &[LaneSet], next_level: u32) -> u64 {
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
    fn take_probes(&mut self) -> u64 {
        std::mem::take(&mut self.probes)
    }
}

/// Gather per-rank lane-major level arrays into per-lane global arrays.
fn gather_lane_levels(states: &[MultiRankState<'_>], lanes: usize, n: u64) -> Vec<Vec<u32>> {
    let mut out = vec![vec![UNREACHED; n as usize]; lanes];
    for st in states {
        let start = st.rg.owned.start as usize;
        for (lane, lane_out) in out.iter_mut().enumerate() {
            let src = &st.levels[lane];
            lane_out[start..start + src.len()].copy_from_slice(src);
        }
    }
    out
}

/// Run a batched multi-source BFS. Communication faults surface as
/// typed errors, and so does a bad batch
/// ([`CommError::InvalidConfig`]): no sources, more than
/// [`MAX_LANES`], a source outside the graph, or a world whose grid is
/// not the graph's.
pub fn try_run(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &MultiConfig,
    sources: &[Vertex],
) -> Result<MultiBfsResult, CommError> {
    check_input(graph, world, &[])?;
    let grid = world.grid();
    let invalid = |reason| Err(CommError::InvalidConfig { reason });
    if sources.is_empty() {
        return invalid("a batch needs at least one source");
    }
    if sources.len() > MAX_LANES {
        return invalid("a batch packs at most 64 sources");
    }
    if sources.iter().any(|&s| s >= graph.spec.n) {
        return invalid("a source is out of range");
    }
    let lanes = sources.len();
    let p = grid.len();

    let row_groups = Groups::rows_of(grid);
    let col_groups = Groups::cols_of(grid);

    let mut states: Vec<MultiRankState<'_>> = graph
        .ranks
        .iter()
        .map(|rg| MultiRankState::new(rg, graph.partition, lanes))
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
        let t0 = world.time();

        // -- 1. termination on global (vertex, lane) frontier mass. The
        // distinct-vertex count rides the same tree round as a second
        // word, and so do the α/β inputs `mf̂` and `mû` when the
        // direction may switch: every rank decides the wave's direction
        // from the same sums, with no extra round.
        let pair_counts: Vec<u64> = states.iter().map(|s| s.frontier_pairs()).collect();
        let vert_counts: Vec<u64> = states.iter().map(|s| s.frontier.len() as u64).collect();
        let (global_pairs, global_verts, bottom_up) =
            if config.direction == DirectionPolicy::TopDown {
                // The third word pads the round to the width top-down
                // batches have always been charged.
                let zeros = vec![0u64; p];
                let [gp, gv, _] = world.allreduce_sums([&pair_counts, &vert_counts, &zeros]);
                (gp, gv, false)
            } else {
                let mf: Vec<u64> = states.iter().map(|s| s.frontier_degree()).collect();
                let mu: Vec<u64> = states.iter().map(|s| s.unexplored()).collect();
                let [gp, gv, mf_hat, mu_hat] =
                    world.allreduce_sums([&pair_counts, &vert_counts, &mf, &mu]);
                let rows = grid.rows() as u64;
                let bu = config
                    .direction
                    .wants_bottom_up(gv, mf_hat, mu_hat, graph.spec.n, rows);
                (gp, gv, bu)
            };
        world.trace_span(Phase::Termination, wave, t0);
        if global_pairs == 0 {
            break;
        }

        // -- 2. expand over processor-columns, masks riding along
        // (traced as the gather on a bottom-up wave).
        let t_expand = world.time();
        let sends: Vec<LaneSendList> = states.par_iter_mut().map(|s| s.expand_sends()).collect();
        let fbar = lane_alltoallv(world, OpClass::Expand, &col_groups, sends)?;
        let phase = if bottom_up {
            Phase::Gather
        } else {
            Phase::Expand
        };
        world.trace_span(phase, wave, t_expand);

        // -- 3. local discovery: edge scans shared across lanes, or row
        // scans with a per-row early exit.
        let t_discover = world.time();
        let blocks = states.par_iter_mut().zip(&fbar).map_collect(|s, lists| {
            if bottom_up {
                s.discover_bottom_up(lists)
            } else {
                s.discover(lists)
            }
        });
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
            direction: if bottom_up {
                LevelDirection::BottomUp
            } else {
                LevelDirection::TopDown
            },
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

    #[test]
    fn lane_expand_matches_column_lookup_oracle() {
        use crate::state::tests::{expand_frontiers, expand_graphs, expand_oracle};
        for g in expand_graphs() {
            for rg in &g.ranks {
                let mut st = MultiRankState::new(rg, g.partition, 3);
                for frontier in expand_frontiers(rg.owned.clone()) {
                    let what = format!("{:?} rank {} |F|={}", g.grid(), rg.rank, frontier.len());
                    let mask_of = |v: Vertex| 1 + v % 7;
                    st.frontier =
                        LaneSet::from_pairs(frontier.iter().map(|&v| (v, mask_of(v))).collect());
                    let sends: Vec<(usize, Vec<Vertex>, Vec<LaneMask>)> = st
                        .expand_sends()
                        .into_iter()
                        .map(|(peer, set)| (peer, set.verts().to_vec(), set.masks().to_vec()))
                        .collect();
                    let want: Vec<(usize, Vec<Vertex>, Vec<LaneMask>)> =
                        expand_oracle(&g, rg.rank, &frontier)
                            .into_iter()
                            .map(|(peer, list)| {
                                let masks = list.iter().map(|&v| mask_of(v)).collect();
                                (peer, list, masks)
                            })
                            .collect();
                    assert_eq!(sends, want, "{what}");
                }
            }
        }
    }

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
                    let rl = edges.row_local(u).unwrap() as usize;
                    let emit = mask & !st.sent[rl];
                    if emit == 0 {
                        continue;
                    }
                    st.sent[rl] |= emit;
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
                let mut sts: Vec<MultiRankState<'_>> = g
                    .ranks
                    .iter()
                    .map(|rg| MultiRankState::new(rg, g.partition, sources.len()))
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
                        let what = format!("{:?} {grid:?} wave {wave} rank {rank}", spec.family);
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

    /// The bottom-up scan without its early exit or live-lane cut:
    /// every stored column of every row is tested.
    fn exhaustive_bottom_up(st: &MultiRankState<'_>, fbar: &[LaneSet]) -> Vec<LaneSet> {
        let (rg, edges) = (st.rg, &st.rg.edges);
        let mut frontier: Vec<(Vertex, LaneMask)> = Vec::new();
        for set in fbar {
            frontier.extend(set.iter());
        }
        let frontier = LaneSet::from_pairs(frontier);
        let mut blocks: Vec<LaneSet> = vec![LaneSet::new(); st.grid.cols()];
        for (block, range) in blocks.iter_mut().zip(rg.row_blocks().windows(2)) {
            for rl in range[0]..range[1] {
                let u = edges.row_of_local(rl);
                let mut need = st.full & !st.sent[rl as usize];
                if let Some(off) = rg.owned_local(u) {
                    need &= !st.visited[off];
                }
                let mut found = 0;
                for &ci in edges.cols_of_row_local(rl) {
                    let v = edges.col_of_local(ci);
                    if let Ok(i) = frontier.verts().binary_search(&v) {
                        found |= frontier.masks()[i] & need;
                    }
                }
                block.push(u, found);
            }
        }
        blocks
    }

    /// `mû` recomputed from the sent masks.
    fn unexplored_from_scratch(st: &MultiRankState<'_>) -> u64 {
        let edges = &st.rg.edges;
        (0..edges.num_row_ids() as u32)
            .filter(|&rl| st.sent[rl as usize] != st.full)
            .map(|rl| u64::from(edges.row_degree(rl)))
            .sum()
    }

    #[test]
    fn bottom_up_kernel_matches_top_down_at_every_wave() {
        // Five lanes (two sharing a source) driven wave by wave through
        // both kernels from the same state. Every bottom-up block must
        // be the top-down block minus the lanes already visited on rows
        // the rank owns, and equal the scan without early exit; absorb
        // must then leave identical levels, visited masks and
        // frontiers. The walk continues from the top-down states on
        // even waves and from the bottom-up states on odd ones.
        let sources = [1u64, 77, 77, 2_900, 1_234];
        for spec in [
            GraphSpec::poisson(3_000, 8.0, 4),
            GraphSpec::rmat(1 << 12, 8.0, 6),
        ] {
            for grid in [ProcessorGrid::new(3, 5), ProcessorGrid::new(8, 8)] {
                let g = DistGraph::build(spec, grid);
                let p = grid.len();
                let mut sts: Vec<MultiRankState<'_>> = g
                    .ranks
                    .iter()
                    .map(|rg| MultiRankState::new(rg, g.partition, sources.len()))
                    .collect();
                for st in sts.iter_mut() {
                    st.init_sources(&sources);
                }
                let mut wave = 1;
                while sts.iter().any(|st| !st.frontier.is_empty()) {
                    let mut fbar: Vec<Vec<LaneSet>> = vec![Vec::new(); p];
                    for st in sts.iter_mut() {
                        for (peer, set) in st.expand_sends() {
                            fbar[peer].push(set);
                        }
                    }
                    let mut td_sts = sts.clone();
                    let mut bu_sts = sts.clone();
                    let mut td_nbar: Vec<Vec<LaneSet>> = vec![Vec::new(); p];
                    let mut bu_nbar: Vec<Vec<LaneSet>> = vec![Vec::new(); p];
                    for rank in 0..p {
                        let what = format!("{:?} {grid:?} wave {wave} rank {rank}", spec.family);
                        let st = &sts[rank];
                        let td = td_sts[rank].discover(&fbar[rank]);
                        let bu = bu_sts[rank].discover_bottom_up(&fbar[rank]);
                        let want: Vec<LaneSet> = td
                            .iter()
                            .map(|block| {
                                let mut out = LaneSet::new();
                                for (u, mask) in block.iter() {
                                    let seen = st.rg.owned_local(u).map_or(0, |o| st.visited[o]);
                                    out.push(u, mask & !seen);
                                }
                                out
                            })
                            .collect();
                        assert_eq!(bu, want, "{what}");
                        assert_eq!(bu, exhaustive_bottom_up(st, &fbar[rank]), "{what}");
                        for s in [&td_sts[rank], &bu_sts[rank]] {
                            assert_eq!(s.unexplored, unexplored_from_scratch(s), "{what}");
                        }
                        let row = grid.row_of(rank);
                        for (m, (t, b)) in td.into_iter().zip(bu).enumerate() {
                            td_nbar[grid.rank_of(row, m)].push(t);
                            bu_nbar[grid.rank_of(row, m)].push(b);
                        }
                    }
                    for rank in 0..p {
                        td_sts[rank].absorb(&td_nbar[rank], wave);
                        bu_sts[rank].absorb(&bu_nbar[rank], wave);
                        let (t, b) = (&td_sts[rank], &bu_sts[rank]);
                        let what = format!("{:?} {grid:?} wave {wave} rank {rank}", spec.family);
                        assert_eq!(t.levels, b.levels, "{what}");
                        assert_eq!(t.visited, b.visited, "{what}");
                        assert_eq!(t.frontier, b.frontier, "{what}");
                    }
                    sts = if wave % 2 == 0 { td_sts } else { bu_sts };
                    wave += 1;
                }
                assert!(wave > 3, "{:?} {grid:?}", spec.family);
            }
        }
    }

    #[test]
    fn adaptive_waves_switch_and_keep_every_lane() {
        let spec = GraphSpec::rmat(4_000, 16.0, 5);
        let grid = ProcessorGrid::new(4, 4);
        let graph = DistGraph::build(spec, grid);
        let sources: Vec<u64> = (0..16).map(|i| i * 241).collect();
        let run = |direction| {
            let mut world = SimWorld::bluegene(grid);
            let cfg = MultiConfig { direction };
            try_run(&graph, &mut world, &cfg, &sources).unwrap()
        };
        let td = run(DirectionPolicy::TopDown);
        let ad = run(DirectionPolicy::Adaptive);
        let bu = run(DirectionPolicy::BottomUp);
        assert_eq!(td.bu_waves(), 0);
        assert!(ad.bu_waves() > 0 && ad.bu_waves() < ad.waves.len());
        assert_eq!(bu.bu_waves(), bu.waves.len());
        assert_eq!(ad.lane_levels, td.lane_levels);
        assert_eq!(bu.lane_levels, td.lane_levels);
        assert!(ad.total_probes < td.total_probes);
        assert!(ad.sim_time < td.sim_time);
    }

    #[test]
    fn top_down_waves_keep_their_clock() {
        // Pinned from the lane engine before it could run bottom-up:
        // top-down waves charge the same rounds, probes and clock.
        let cfg = MultiConfig {
            direction: DirectionPolicy::TopDown,
        };
        for (spec, grid, sources, wire, pinned) in [
            (
                GraphSpec::rmat(2_000, 8.0, 7),
                ProcessorGrid::new(2, 3),
                vec![0u64, 17, 17, 999, 1500],
                bgl_comm::WirePolicy::raw(),
                (0x3f4b4d4de692c697, 0x3f3465bd9f076cb0, 27_447, 5),
            ),
            (
                GraphSpec::poisson(3_000, 8.0, 4),
                ProcessorGrid::new(3, 5),
                vec![1u64, 77, 2_900],
                bgl_comm::WirePolicy::auto(),
                (0x3f515ed1aefd7dd6, 0x3f42d50d87e55ade, 87_212, 7),
            ),
        ] {
            let graph = DistGraph::build(spec, grid);
            let mut world = SimWorld::bluegene(grid).with_wire_policy(wire);
            let r = try_run(&graph, &mut world, &cfg, &sources).unwrap();
            let got = (
                r.sim_time.to_bits(),
                r.comm_time.to_bits(),
                r.total_probes,
                r.waves.len(),
            );
            assert_eq!(got, pinned, "{:?}", spec.family);
            for (lane, &s) in sources.iter().enumerate() {
                assert_eq!(r.lane_levels[lane], single_levels(&graph, s));
            }
        }
    }

    #[test]
    fn bad_batches_are_typed_errors() {
        let spec = GraphSpec::rmat(500, 8.0, 3);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let cfg = MultiConfig::default();
        let run = |world: &mut SimWorld, sources: &[Vertex]| match try_run(
            &graph, world, &cfg, sources,
        ) {
            Err(CommError::InvalidConfig { reason }) => reason,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        let mut world = SimWorld::bluegene(grid);
        assert!(run(&mut world, &[]).contains("at least one source"));
        let wide: Vec<Vertex> = (0..=MAX_LANES as u64).collect();
        assert!(run(&mut world, &wide).contains("at most 64"));
        assert!(run(&mut world, &[3, 500]).contains("out of range"));
        let mut other = SimWorld::bluegene(ProcessorGrid::new(1, 4));
        assert!(run(&mut other, &[3]).contains("grids differ"));
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
}
