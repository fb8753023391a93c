//! Distributed shortest-path extraction from BFS level labels.
//!
//! The paper's motivating application needs the *path*, not just the
//! distance ("the nature of the relationship between two vertices in a
//! semantic graph ... can be determined by the shortest path between
//! them"). The BFS messages carry bare vertex indices, so parents are
//! not recorded; instead the path is recovered afterwards by walking
//! levels downhill, one distributed query per hop:
//!
//! 1. the current vertex `v` (level `l`) is announced to `v`'s
//!    processor-column — the only ranks that can hold partial edge
//!    lists for it (expand-shaped query);
//! 2. each column peer forwards `v`'s partial neighbor list to the
//!    neighbors' owners, which sit in its processor-row (fold-shaped
//!    query);
//! 3. owners reply with their candidates at level `l − 1`, and the
//!    smallest candidate becomes the next vertex on the path
//!    (deterministic tie-break).
//!
//! Every hop costs three message rounds of small control messages —
//! `O(distance)` rounds total, charged to the cost model like any other
//! communication.

use crate::reference::UNREACHED;
use crate::step::{check_input, with_retry};
use bgl_comm::collectives::lane::lane_exchange;
use bgl_comm::{CommError, LaneMask, LaneSet, OpClass, Phase, SimWorld, Vert, MAX_LANES};
use bgl_graph::{DistGraph, Vertex};
use std::collections::BTreeMap;

/// Reject a level array that is not one label per vertex of `graph`, or
/// not the labels of a search from `source` (an in-range vertex).
fn check_levels(graph: &DistGraph, levels: &[u32], source: Vertex) -> Result<(), CommError> {
    let reason = if levels.len() as u64 != graph.spec.n {
        "the level array does not hold one label per vertex"
    } else if levels[source as usize] != 0 {
        "the levels are not rooted at the source"
    } else {
        return Ok(());
    };
    Err(CommError::InvalidConfig { reason })
}

/// Extract one shortest path `source → target` given the global level
/// array produced by a BFS from `source`. Returns `None` when the
/// target was not reached. The returned path starts at `source`, ends
/// at `target`, and has `levels[target] + 1` vertices. Communication
/// faults surface as typed errors, and so does bad input
/// ([`CommError::InvalidConfig`]): a world whose grid is not the
/// graph's, a source or target outside the graph, or a level array that
/// is not one label per vertex of a search from `source`.
pub fn try_extract_path(
    graph: &DistGraph,
    world: &mut SimWorld,
    levels: &[u32],
    source: Vertex,
    target: Vertex,
) -> Result<Option<Vec<Vertex>>, CommError> {
    check_input(
        graph,
        world,
        &[
            (source, "the source is out of range"),
            (target, "the target is out of range"),
        ],
    )?;
    check_levels(graph, levels, source)?;
    let grid = world.grid();
    if levels[target as usize] == UNREACHED {
        return Ok(None);
    }

    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        let l = levels[cur as usize];
        debug_assert!(l > 0);

        // Round 1 (expand-shaped): announce cur to its processor-column.
        // In a real deployment the owner broadcasts; ranks outside the
        // column stay silent.
        let owner = graph.partition.owner_of(cur);
        let col = grid.col_of(owner);
        let announce: Vec<(usize, usize, Vec<Vert>)> = (0..grid.rows())
            .map(|i| (owner, grid.rank_of(i, col), vec![cur]))
            .collect();
        let inboxes = world.exchange(OpClass::Control, announce)?;

        // Round 2 (fold-shaped): column peers forward cur's partial
        // neighbor lists to the neighbors' owners.
        let mut forwards: Vec<(usize, usize, Vec<Vert>)> = Vec::new();
        for (rank, inbox) in inboxes.iter().enumerate() {
            if inbox.is_empty() {
                continue;
            }
            let rg = &graph.ranks[rank];
            let Some(ci) = rg.edges.col_local(cur) else {
                continue;
            };
            let row = grid.row_of(rank);
            let mut per_dest: Vec<Vec<Vert>> = vec![Vec::new(); grid.cols()];
            for &rl in rg.edges.rows_of(ci) {
                per_dest[rg.row_block_of(rl)].push(rg.edges.row_of_local(rl));
            }
            for (m, list) in per_dest.into_iter().enumerate() {
                if !list.is_empty() {
                    forwards.push((rank, grid.rank_of(row, m), list));
                }
            }
        }
        let inboxes = world.exchange(OpClass::Control, forwards)?;

        // Round 3: owners filter candidates at level l-1 and reply to
        // cur's owner; take the smallest for determinism.
        let mut replies: Vec<(usize, usize, Vec<Vert>)> = Vec::new();
        for (rank, inbox) in inboxes.iter().enumerate() {
            let mut best: Option<Vert> = None;
            for (_, list) in inbox {
                for &u in list {
                    debug_assert_eq!(graph.partition.owner_of(u), rank);
                    if levels[u as usize] == l - 1 {
                        best = Some(best.map_or(u, |b: Vert| b.min(u)));
                    }
                }
            }
            if let Some(u) = best {
                replies.push((rank, owner, vec![u]));
            }
        }
        let inboxes = world.exchange(OpClass::Control, replies)?;
        let parent = inboxes[owner]
            .iter()
            .flat_map(|(_, list)| list.iter().copied())
            .min()
            .expect("a reached vertex at level l must have a parent at level l-1"); // bgl-lint: allow(r1, reason = "a valid BFS labelling guarantees a level l-1 parent for every level l vertex; an empty reply is a labelling bug")

        path.push(parent);
        cur = parent;
    }
    path.reverse();
    Ok(Some(path))
}

/// Attempts per control round of the batched walk ([`try_multi`])
/// before a transient error propagates; each retry charges exponential
/// recovery backoff.
const WALK_ATTEMPTS: u32 = 4;

/// Outcome of one batched walk: per-lane paths plus the wave's shape
/// and its clock deltas over the call.
#[derive(Debug, Clone)]
pub struct MultiPathResult {
    /// Per-lane extracted path, in `targets` order; `None` where the
    /// target was not reached. Byte-identical to what a standalone
    /// [`try_extract_path`] returns for the same target.
    pub paths: Vec<Option<Vec<Vertex>>>,
    /// Walk hops executed — the depth of the deepest reached target.
    pub hops: u32,
    /// Control rounds executed (three per hop, shared by every lane).
    pub rounds: u64,
    /// Simulated seconds this walk added to the world's clock.
    pub sim_time: f64,
    /// Communication seconds this walk added (subset of `sim_time`).
    pub comm_time: f64,
}

/// Extract up to [`MAX_LANES`] shortest paths from one BFS level array
/// in a single lane-masked batched walk: every target is a *lane* (bit
/// `l` of a [`LaneMask`]) and all active lanes share each of the three
/// per-hop control rounds of the [`try_extract_path`] protocol:
///
/// 1. **announce** — each lane's current vertex travels to its owner's
///    processor-column, lanes parked on the same vertex merging into
///    one mask word;
/// 2. **forward** — column peers ship partial neighbor lists (with the
///    query masks attached) to the neighbors' owners in their
///    processor-row;
/// 3. **reply** — owners filter candidates one level below each lane's
///    *own* current level (lanes sit at different depths, but the level
///    array is global, so every rank tracks each lane's level locally),
///    then send per-rank per-lane minima back to the lane's owner.
///
/// The lane's parent is the minimum over replies — the same smallest-
/// parent tie-break as [`try_extract_path`], so every lane's path is
/// byte-identical to its standalone extraction. Lanes whose walks reach
/// the source drop out of later hops; the wave ends when the deepest
/// lane arrives. Rounds are [`OpClass::Control`] (faultable only under
/// [`SimWorld::set_control_faultable`]); transient failures retry with
/// recovery backoff; each hop is bracketed by a [`Phase::PathWalk`]
/// span. Bad input is a [`CommError::InvalidConfig`], as for
/// [`try_extract_path`], and so is a batch of no targets or of more
/// than [`MAX_LANES`].
pub fn try_multi(
    graph: &DistGraph,
    world: &mut SimWorld,
    levels: &[u32],
    source: Vertex,
    targets: &[Vertex],
) -> Result<MultiPathResult, CommError> {
    check_input(graph, world, &[(source, "the source is out of range")])?;
    let invalid = |reason| Err(CommError::InvalidConfig { reason });
    if targets.is_empty() {
        return invalid("a batched walk needs at least one target");
    }
    if targets.len() > MAX_LANES {
        return invalid("a batched walk packs at most 64 targets");
    }
    if targets.iter().any(|&t| t >= graph.spec.n) {
        return invalid("a target is out of range");
    }
    check_levels(graph, levels, source)?;
    let grid = world.grid();

    let t_start = world.time();
    let c_start = world.comm_time();
    let b = targets.len();
    // One control round, retried up to `WALK_ATTEMPTS` times.
    let exchange = |world: &mut SimWorld, sends: Vec<(usize, usize, LaneSet)>| {
        with_retry(world, WALK_ATTEMPTS, |w| {
            lane_exchange(w, OpClass::Control, sends.clone())
        })
    };

    // Lane l walks from targets[l]; unreached targets never activate.
    let mut paths: Vec<Option<Vec<Vertex>>> = targets
        .iter()
        .map(|&t| (levels[t as usize] != UNREACHED).then(|| vec![t]))
        .collect();
    let mut cur: Vec<Vertex> = targets.to_vec();
    let mut active: LaneMask = 0;
    for (l, &t) in targets.iter().enumerate() {
        if levels[t as usize] != UNREACHED && t != source {
            active |= 1 << l;
        }
    }

    let mut hops = 0u32;
    let mut rounds = 0u64;
    while active != 0 {
        let t0 = world.time();

        // Round 1 (expand-shaped): announce each lane's current vertex
        // to its owner's processor-column. Lanes at the same vertex
        // share one wire word; distinct vertices to the same
        // destination share one message.
        let mut announce: BTreeMap<(usize, usize), Vec<(Vert, LaneMask)>> = BTreeMap::new();
        for (l, &v) in cur.iter().enumerate() {
            if active & (1 << l) == 0 {
                continue;
            }
            let owner = graph.partition.owner_of(v);
            let col = grid.col_of(owner);
            for i in 0..grid.rows() {
                announce
                    .entry((owner, grid.rank_of(i, col)))
                    .or_default()
                    .push((v, 1 << l));
            }
        }
        // Each active lane sits one level below its parent; owners
        // filter round-3 candidates against these (lane levels differ,
        // the level array does not).
        let want: Vec<u32> = (0..b)
            .map(|l| {
                if active & (1 << l) != 0 {
                    levels[cur[l] as usize] - 1
                } else {
                    UNREACHED
                }
            })
            .collect();
        let inboxes = exchange(world, assemble(announce))?;
        rounds += 1;

        // Round 2 (fold-shaped): column peers forward each queried
        // vertex's partial neighbor list — masks attached — to the
        // neighbors' owners within their processor-row.
        let mut forwards: BTreeMap<(usize, usize), Vec<(Vert, LaneMask)>> = BTreeMap::new();
        for (rank, sets) in inboxes.iter().enumerate() {
            if sets.is_empty() {
                continue;
            }
            let mut queries = LaneSet::new();
            for s in sets {
                queries.union_in(s);
            }
            let rg = &graph.ranks[rank];
            let row = grid.row_of(rank);
            for (v, mask) in queries.iter() {
                let Some(ci) = rg.edges.col_local(v) else {
                    continue;
                };
                for &rl in rg.edges.rows_of(ci) {
                    forwards
                        .entry((rank, grid.rank_of(row, rg.row_block_of(rl))))
                        .or_default()
                        .push((rg.edges.row_of_local(rl), mask));
                }
            }
        }
        let inboxes = exchange(world, assemble(forwards))?;
        rounds += 1;

        // Round 3: owners keep candidates exactly one level below the
        // asking lane's current vertex and reply the per-rank minimum
        // to that lane's owner.
        let mut replies: BTreeMap<(usize, usize), Vec<(Vert, LaneMask)>> = BTreeMap::new();
        for (rank, sets) in inboxes.iter().enumerate() {
            if sets.is_empty() {
                continue;
            }
            let mut cands = LaneSet::new();
            for s in sets {
                cands.union_in(s);
            }
            let mut best: Vec<Option<Vert>> = vec![None; b];
            for (u, mask) in cands.iter() {
                debug_assert_eq!(graph.partition.owner_of(u), rank);
                debug_assert_eq!(mask & !active, 0, "mask bits for inactive lanes");
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if levels[u as usize] == want[l] {
                        best[l] = Some(best[l].map_or(u, |x: Vert| x.min(u)));
                    }
                }
            }
            for (l, cand) in best.iter().enumerate() {
                if let Some(u) = cand {
                    replies
                        .entry((rank, graph.partition.owner_of(cur[l])))
                        .or_default()
                        .push((*u, 1 << l));
                }
            }
        }
        let inboxes = exchange(world, assemble(replies))?;
        rounds += 1;

        // Resolve every active lane's parent at its owner: the global
        // minimum over per-rank minima — try_extract_path's tie-break.
        let mut next_active = active;
        for l in 0..b {
            if active & (1 << l) == 0 {
                continue;
            }
            let owner = graph.partition.owner_of(cur[l]);
            let parent = inboxes[owner]
                .iter()
                .flat_map(|s| s.iter())
                .filter(|&(_, m)| m & (1 << l) != 0)
                .map(|(u, _)| u)
                .min()
                .expect("a reached vertex at level l must have a parent at level l-1"); // bgl-lint: allow(r1, reason = "a valid BFS labelling guarantees a level l-1 parent for every level l vertex; an empty reply is a labelling bug")
            paths[l]
                .as_mut()
                .expect("active lane has a path") // bgl-lint: allow(r1, reason = "paths[l] is initialized Some for every lane in the active mask")
                .push(parent);
            cur[l] = parent;
            if parent == source {
                next_active &= !(1 << l);
            }
        }
        active = next_active;
        world.trace_span(Phase::PathWalk, hops, t0);
        hops += 1;
    }

    for p in paths.iter_mut().flatten() {
        p.reverse();
    }
    Ok(MultiPathResult {
        paths,
        hops,
        rounds,
        sim_time: world.time() - t_start,
        comm_time: world.comm_time() - c_start,
    })
}

/// Collapse per-destination `(vertex, mask)` accumulators into wire
/// lane sets, in deterministic `(from, to)` order.
fn assemble(map: BTreeMap<(usize, usize), Vec<(Vert, LaneMask)>>) -> Vec<(usize, usize, LaneSet)> {
    map.into_iter()
        .map(|((from, to), pairs)| (from, to, LaneSet::from_pairs(pairs)))
        .collect()
}

/// Validate that `path` is a genuine path in the graph described by
/// `adj` and that it is exactly as short as the level labels promise.
/// Test helper, exposed for the examples.
pub fn validate_path(adj: &[Vec<Vertex>], levels: &[u32], path: &[Vertex]) -> bool {
    if path.is_empty() {
        return false;
    }
    if levels[path[0] as usize] != 0 {
        return false;
    }
    for (i, w) in path.windows(2).enumerate() {
        let (a, b) = (w[0], w[1]);
        if !adj[a as usize].contains(&b) {
            return false;
        }
        if levels[b as usize] != i as u32 + 1 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs2d;
    use crate::config::BfsConfig;
    use crate::reference;
    use bgl_comm::ProcessorGrid;
    use bgl_graph::GraphSpec;

    fn setup(
        n: u64,
        k: f64,
        seed: u64,
        r: usize,
        c: usize,
    ) -> (DistGraph, SimWorld, Vec<u32>, Vec<Vec<Vertex>>) {
        let spec = GraphSpec::poisson(n, k, seed);
        let grid = ProcessorGrid::new(r, c);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let result = bfs2d::try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
        let adj = bgl_graph::dist::adjacency(&spec);
        (graph, world, result.levels, adj)
    }

    /// A batched walk from source 0 under the default retry budget.
    fn walk(
        graph: &DistGraph,
        world: &mut SimWorld,
        levels: &[u32],
        targets: &[Vertex],
    ) -> MultiPathResult {
        try_multi(graph, world, levels, 0, targets).unwrap()
    }

    #[test]
    fn extracted_paths_are_valid_shortest_paths() {
        let (graph, mut world, levels, adj) = setup(400, 6.0, 19, 2, 3);
        for target in [5u64, 100, 250, 399] {
            if levels[target as usize] == UNREACHED {
                continue;
            }
            let path = try_extract_path(&graph, &mut world, &levels, 0, target)
                .unwrap()
                .expect("reached target has a path");
            assert_eq!(path.first(), Some(&0));
            assert_eq!(path.last(), Some(&target));
            assert_eq!(path.len() as u32, levels[target as usize] + 1);
            assert!(validate_path(&adj, &levels, &path), "target {target}");
        }
    }

    #[test]
    fn unreached_target_has_no_path() {
        let (graph, mut world, levels, _) = setup(300, 1.2, 3, 2, 2);
        let t = (0..300u64)
            .find(|&v| levels[v as usize] == UNREACHED)
            .unwrap();
        assert!(try_extract_path(&graph, &mut world, &levels, 0, t)
            .unwrap()
            .is_none());
    }

    #[test]
    fn source_to_source_is_trivial() {
        let (graph, mut world, levels, _) = setup(100, 5.0, 7, 1, 2);
        let path = try_extract_path(&graph, &mut world, &levels, 0, 0)
            .unwrap()
            .unwrap();
        assert_eq!(path, vec![0]);
    }

    #[test]
    fn works_on_one_d_grids() {
        let (graph, mut world, levels, adj) = setup(300, 5.0, 11, 1, 4);
        let target = (0..300u64)
            .rev()
            .find(|&v| levels[v as usize] != UNREACHED && levels[v as usize] >= 2)
            .unwrap();
        let path = try_extract_path(&graph, &mut world, &levels, 0, target)
            .unwrap()
            .unwrap();
        assert!(validate_path(&adj, &levels, &path));
    }

    #[test]
    fn path_matches_reference_distance() {
        let (graph, mut world, levels, adj) = setup(500, 4.0, 23, 3, 2);
        for target in [33u64, 222, 444] {
            let expect = reference::distance(&adj, 0, target);
            let got = try_extract_path(&graph, &mut world, &levels, 0, target)
                .unwrap()
                .map(|p| p.len() as u32 - 1);
            assert_eq!(got, expect, "target {target}");
        }
    }

    #[test]
    fn extraction_charges_communication() {
        let (graph, mut world, levels, _) = setup(400, 6.0, 19, 2, 3);
        let target = (0..400u64)
            .rev()
            .find(|&v| levels[v as usize] != UNREACHED && levels[v as usize] >= 2)
            .unwrap();
        let before = world.comm_time();
        let _ = try_extract_path(&graph, &mut world, &levels, 0, target)
            .unwrap()
            .unwrap();
        assert!(world.comm_time() > before);
        assert!(world.stats.class(OpClass::Control).messages > 0);
    }

    #[test]
    fn validate_path_on_handcrafted_diamond() {
        // 0 — 1 — 3
        //  \— 2 —/     levels from source 0: [0, 1, 1, 2]
        let adj: Vec<Vec<Vertex>> = vec![vec![1, 2], vec![0, 3], vec![0, 3], vec![1, 2]];
        let levels = [0u32, 1, 1, 2];
        // Both arms of the diamond are genuine shortest paths.
        assert!(validate_path(&adj, &levels, &[0, 1, 3]));
        assert!(validate_path(&adj, &levels, &[0, 2, 3]));
        // The trivial s == t path is exactly the source.
        assert!(validate_path(&adj, &levels, &[0]));
        // A non-source singleton is not rooted at level 0.
        assert!(!validate_path(&adj, &levels, &[3]));
        // 0 → 3 skips a level and is not an edge.
        assert!(!validate_path(&adj, &levels, &[0, 3]));
        // 1 → 2 stays at level 1: not downhill-by-one.
        assert!(!validate_path(&adj, &levels, &[0, 1, 2]));
    }

    #[test]
    fn validate_path_rejects_level_skips_on_a_chain() {
        // 0 — 1 — 2 — 3 with an extra chord 0 — 2.
        let adj: Vec<Vec<Vertex>> = vec![vec![1, 2], vec![0, 2], vec![0, 1, 3], vec![2]];
        let levels = [0u32, 1, 1, 2];
        assert!(validate_path(&adj, &levels, &[0, 2, 3]));
        // Real edges, but 0 → 1 → 2 → 3 claims 2 at level 2 ≠ 1.
        assert!(!validate_path(&adj, &levels, &[0, 1, 2, 3]));
        // Disconnected vertex pair: no edge 1 → 3 at all.
        assert!(!validate_path(&adj, &levels, &[0, 1, 3]));
    }

    #[test]
    fn extract_path_tie_breaks_to_smallest_parent() {
        // Every hop must choose the globally smallest neighbor at level
        // l − 1 — the documented deterministic tie-break.
        let (graph, mut world, levels, adj) = setup(400, 6.0, 19, 2, 3);
        let target = (0..400u64)
            .rev()
            .find(|&v| levels[v as usize] != UNREACHED && levels[v as usize] >= 2)
            .unwrap();
        let path = try_extract_path(&graph, &mut world, &levels, 0, target)
            .unwrap()
            .unwrap();
        for w in path.windows(2) {
            let (parent, child) = (w[0], w[1]);
            let min_parent = adj[child as usize]
                .iter()
                .copied()
                .filter(|&u| levels[u as usize] + 1 == levels[child as usize])
                .min()
                .unwrap();
            assert_eq!(parent, min_parent, "hop into {child} broke the tie-break");
        }
    }

    #[test]
    fn multi_is_byte_identical_to_extract_path_lane_by_lane() {
        let (graph, mut world, levels, _) = setup(400, 6.0, 19, 2, 3);
        // Mixed depths, a duplicate lane, the source itself, and the
        // deepest reached vertex.
        let deep = (0..400u64)
            .rev()
            .filter(|&v| levels[v as usize] != UNREACHED)
            .max_by_key(|&v| levels[v as usize])
            .unwrap();
        let targets = vec![5u64, 100, 250, 399, 250, 0, deep];
        let batched = walk(&graph, &mut world, &levels, &targets);
        assert_eq!(batched.paths.len(), targets.len());
        let mut seq = SimWorld::bluegene(world.grid());
        for (l, &t) in targets.iter().enumerate() {
            let solo = try_extract_path(&graph, &mut seq, &levels, 0, t).unwrap();
            assert_eq!(batched.paths[l], solo, "lane {l} target {t}");
        }
        assert_eq!(
            batched.hops, levels[deep as usize],
            "wave runs to the deepest lane"
        );
        assert_eq!(batched.rounds, 3 * batched.hops as u64);
    }

    #[test]
    fn multi_handles_unreached_and_trivial_lanes() {
        let (graph, mut world, levels, _) = setup(300, 1.2, 3, 2, 2);
        let unreached = (0..300u64)
            .find(|&v| levels[v as usize] == UNREACHED)
            .unwrap();
        let reached = (0..300u64)
            .rev()
            .find(|&v| levels[v as usize] != UNREACHED && levels[v as usize] >= 1)
            .unwrap();
        let r = walk(&graph, &mut world, &levels, &[unreached, 0, reached]);
        assert_eq!(r.paths[0], None);
        assert_eq!(r.paths[1], Some(vec![0]));
        assert_eq!(
            r.paths[2].as_ref().map(|p| p.len() as u32),
            Some(levels[reached as usize] + 1)
        );
    }

    #[test]
    fn multi_all_trivial_runs_zero_rounds() {
        let (graph, mut world, levels, _) = setup(100, 5.0, 7, 1, 2);
        let before = world.time();
        let r = walk(&graph, &mut world, &levels, &[0, 0]);
        assert_eq!(r.paths, vec![Some(vec![0]), Some(vec![0])]);
        assert_eq!((r.hops, r.rounds), (0, 0));
        assert_eq!(world.time(), before);
    }

    #[test]
    fn multi_beats_sequential_extraction_on_the_clock() {
        let (graph, mut world, levels, _) = setup(500, 6.0, 23, 2, 3);
        let targets: Vec<u64> = (0..500u64)
            .rev()
            .filter(|&v| levels[v as usize] != UNREACHED && levels[v as usize] >= 2)
            .take(16)
            .collect();
        let batched = walk(&graph, &mut world, &levels, &targets);
        let mut seq = SimWorld::bluegene(world.grid());
        let t0 = seq.time();
        for &t in &targets {
            let _ = try_extract_path(&graph, &mut seq, &levels, 0, t).unwrap();
        }
        let sequential = seq.time() - t0;
        assert!(
            batched.sim_time < sequential,
            "batched {} vs sequential {}",
            batched.sim_time,
            sequential
        );
    }

    #[test]
    fn multi_survives_lossy_control_rounds_unchanged() {
        use bgl_comm::FaultPlan;
        let spec = bgl_graph::GraphSpec::poisson(400, 6.0, 19);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let mut clean = SimWorld::bluegene(grid);
        let result = bfs2d::try_run(&graph, &mut clean, &BfsConfig::default(), 0).unwrap();
        let levels = result.levels;
        let targets = vec![399u64, 250, 100];
        let want = walk(&graph, &mut clean, &levels, &targets).paths;

        let plan = FaultPlan::seeded(29)
            .with_control_drop_prob(0.4)
            .with_control_duplicate_prob(0.2);
        let mut faulty = SimWorld::bluegene(grid).with_fault_plan(plan);
        faulty.set_control_faultable(true);
        let got = try_multi(&graph, &mut faulty, &levels, 0, &targets)
            .expect("retries ride out lossy control rounds");
        assert_eq!(got.paths, want, "faults must not change extracted paths");
    }

    #[test]
    fn multi_emits_path_walk_spans() {
        use bgl_comm::{EventKind, TraceDetail};
        let (graph, _, levels, _) = setup(400, 6.0, 19, 2, 3);
        let mut world = SimWorld::bluegene(ProcessorGrid::new(2, 3));
        world.enable_trace(TraceDetail::Span);
        let target = (0..400u64)
            .rev()
            .find(|&v| levels[v as usize] != UNREACHED && levels[v as usize] >= 2)
            .unwrap();
        let r = walk(&graph, &mut world, &levels, &[target]);
        let trace = world.take_trace().unwrap();
        let spans = trace
            .events()
            .iter()
            .filter(|(_, e)| {
                matches!(
                    e.kind,
                    EventKind::Span {
                        phase: Phase::PathWalk,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(spans as u32, r.hops);
    }

    #[test]
    fn validate_path_rejects_fakes() {
        let (_, _, levels, adj) = setup(200, 6.0, 29, 1, 1);
        // Not starting at the source level.
        assert!(!validate_path(&adj, &levels, &[1]));
        // Teleporting "path".
        let far = (0..200u64)
            .find(|&v| levels[v as usize] != UNREACHED && levels[v as usize] >= 2)
            .unwrap();
        assert!(!validate_path(&adj, &levels, &[0, far]) || adj[0].contains(&far));
        // Empty path.
        assert!(!validate_path(&adj, &levels, &[]));
    }
}
