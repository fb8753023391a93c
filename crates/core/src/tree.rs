//! BFS tree construction: Algorithm 2 with parent tracking.
//!
//! The paper's BFS labels vertices with levels only — its messages are
//! bare vertex indices. Descendant systems (notably Graph500, which
//! grew out of this algorithm) require the **parent array**: for each
//! reached vertex, a neighbor one level closer to the source. This
//! module extends the 2D fold with `(vertex, parent)` pairs:
//!
//! * expand is unchanged (frontier vertices to the processor-column);
//! * discovery emits pairs — the discovering frontier vertex is the
//!   proposed parent;
//! * the fold is a direct targeted all-to-all of pairs (en-route union
//!   would need a keyed reduction; the per-vertex tie-break happens at
//!   the owner, which keeps the smallest proposed parent so results are
//!   deterministic and engine-independent);
//! * absorb labels the vertex and records the winning parent.
//!
//! Message volume doubles relative to the levels-only BFS (two words
//! per discovered vertex) — the cost Graph500 implementations actually
//! pay, measurable here via the usual statistics.

use crate::config::BfsConfig;
use crate::reference::UNREACHED;
use crate::state::{gather_levels, RankState};
use crate::stats::{LevelDirection, LevelSnapshot, RunStats};
use crate::step::{charge_probes, payloads, route_to_row_peers};
use bgl_comm::collectives::{alltoall::alltoallv, Groups};
use bgl_comm::{CommError, OpClass, SimWorld, Vert};
use bgl_graph::{DistGraph, Vertex};

/// Parent label meaning "no parent" (unreached, or the source itself
/// uses its own id).
pub const NO_PARENT: u64 = u64::MAX;

/// Result of a tree-building BFS.
#[derive(Debug, Clone)]
pub struct TreeResult {
    /// Global level labels.
    pub levels: Vec<u32>,
    /// Global parent labels; `parent[source] == source`,
    /// [`NO_PARENT`] where unreached.
    pub parents: Vec<u64>,
    /// Run statistics.
    pub stats: RunStats,
}

/// A rank's levels-only [`RankState`] plus the parent of every owned
/// vertex (by owned offset).
struct TreeRankState<'g> {
    state: RankState<'g>,
    parents: Vec<u64>,
}

impl TreeRankState<'_> {
    /// Discovery emitting `(u, parent)` pairs per destination grid
    /// column, flat-encoded `[u0, p0, u1, p1, …]`. Probes and the
    /// sent-neighbors cache work as in [`RankState::discover`].
    fn discover_pairs(&mut self, fbar_lists: &[&[Vert]], cols: usize) -> Vec<Vec<Vert>> {
        let st = &mut self.state;
        let rg = st.rank_graph();
        let mut blocks: Vec<Vec<Vert>> = vec![Vec::new(); cols];
        for list in fbar_lists {
            for &v in *list {
                st.probes += 1;
                let Some(ci) = rg.edges.col_local(v) else {
                    continue;
                };
                for &rl in rg.edges.rows_of(ci) {
                    st.probes += 1;
                    if st.claim_row(rl) {
                        let block = &mut blocks[rg.row_block_of(rl)];
                        block.push(rg.edges.row_of_local(rl));
                        block.push(v);
                    }
                }
            }
        }
        blocks
    }

    /// Absorb `(u, parent)` pairs; smallest proposed parent wins ties
    /// within a level.
    fn absorb_pairs(&mut self, lists: &[&[Vert]], next_level: u32) {
        let st = &mut self.state;
        let rg = st.rank_graph();
        let mut fresh: Vec<Vertex> = Vec::new();
        for list in lists {
            debug_assert_eq!(list.len() % 2, 0, "pair payload must have even length");
            for pair in list.chunks_exact(2) {
                let (u, parent) = (pair[0], pair[1]);
                st.probes += 1;
                let off = rg
                    .owned_local(u)
                    .expect("fold delivered a vertex to a non-owner"); // bgl-lint: allow(r1, reason = "fold routes each vertex to the owner of its block column, so delivery to a non-owner is a partitioning bug")
                if st.levels[off] == UNREACHED {
                    st.levels[off] = next_level;
                    self.parents[off] = parent;
                    fresh.push(u);
                } else if st.levels[off] == next_level && parent < self.parents[off] {
                    // Same-level duplicate from another discoverer:
                    // deterministic min-parent tie-break.
                    self.parents[off] = parent;
                }
            }
        }
        fresh.sort_unstable();
        fresh.dedup();
        st.frontier = fresh;
    }
}

/// Run a tree-building BFS from `source`. Only the `sent_neighbors` and
/// `max_levels` fields of `config` apply (the fold is always the direct
/// targeted all-to-all — see module docs).
/// Communication faults surface as typed errors.
pub fn try_run_tree(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &BfsConfig,
    source: Vertex,
) -> Result<TreeResult, CommError> {
    let grid = world.grid();
    assert_eq!(grid, graph.grid(), "world and graph grids must match");
    assert!(source < graph.spec.n, "source out of range");
    let row_groups = Groups::rows_of(grid);
    let col_groups = Groups::cols_of(grid);

    let mut states: Vec<TreeRankState<'_>> = graph
        .ranks
        .iter()
        .map(|rg| TreeRankState {
            state: RankState::new(rg, graph.partition, config.sent_neighbors),
            parents: vec![NO_PARENT; rg.owned_len()],
        })
        .collect();
    let owner = &mut states[graph.partition.owner_of(source)];
    owner.state.init_source(source);
    owner.parents[(source - owner.state.rank_graph().owned.start) as usize] = source;

    let mut level_records = Vec::new();
    let mut level: u32 = 0;
    loop {
        if config.max_levels > 0 && level >= config.max_levels {
            break;
        }
        let snapshot = LevelSnapshot::take(world);

        let sizes: Vec<u64> = states.iter().map(|s| s.state.frontier_len()).collect();
        let global_frontier = world.allreduce_sum(&sizes);
        if global_frontier == 0 {
            break;
        }

        // Expand (targeted, unchanged).
        let sends = states
            .iter_mut()
            .map(|s| s.state.expand_sends_targeted())
            .collect();
        let fbar = payloads(alltoallv(world, OpClass::Expand, &col_groups, sends)?);

        // Discover pairs + fold them directly.
        let blocks = states
            .iter_mut()
            .zip(&fbar)
            .map(|(s, lists)| {
                let refs: Vec<&[Vert]> = lists.iter().map(Vec::as_slice).collect();
                s.discover_pairs(&refs, grid.cols())
            })
            .collect();
        let sends = route_to_row_peers(grid, blocks, Vec::is_empty);
        let nbar = payloads(alltoallv(world, OpClass::Fold, &row_groups, sends)?);

        for (s, lists) in states.iter_mut().zip(&nbar) {
            let refs: Vec<&[Vert]> = lists.iter().map(Vec::as_slice).collect();
            s.absorb_pairs(&refs, level + 1);
        }
        let probes = charge_probes(world, states.iter_mut().map(|s| &mut s.state));
        level_records.push(snapshot.finish(
            world,
            level,
            global_frontier,
            LevelDirection::TopDown,
            probes,
        ));
        level += 1;
    }

    let (states, rank_parents): (Vec<RankState<'_>>, Vec<Vec<u64>>) =
        states.into_iter().map(|s| (s.state, s.parents)).unzip();
    let mut parents = vec![NO_PARENT; graph.spec.n as usize];
    for (st, ps) in states.iter().zip(&rank_parents) {
        let start = st.rank_graph().owned.start as usize;
        parents[start..start + ps.len()].copy_from_slice(ps);
    }
    let reached = states.iter().map(RankState::reached).sum();
    Ok(TreeResult {
        levels: gather_levels(&states, graph.spec.n),
        parents,
        stats: RunStats::from_world(world, level_records, reached),
    })
}

/// Graph500-style tree validation: levels are BFS distances, every
/// non-source reached vertex's parent is a neighbor exactly one level
/// up, and the source is its own parent.
pub fn validate_tree(
    adj: &[Vec<Vertex>],
    source: Vertex,
    levels: &[u32],
    parents: &[u64],
) -> Result<(), String> {
    if levels[source as usize] != 0 {
        return Err("source level is not 0".into());
    }
    if parents[source as usize] != source {
        return Err("source is not its own parent".into());
    }
    for v in 0..levels.len() {
        let (l, p) = (levels[v], parents[v]);
        match (l, p) {
            (UNREACHED, NO_PARENT) => {}
            (UNREACHED, _) => return Err(format!("unreached vertex {v} has a parent")),
            (_, NO_PARENT) => return Err(format!("reached vertex {v} lacks a parent")),
            (0, _) => {
                if v as Vertex != source {
                    return Err(format!("non-source vertex {v} at level 0"));
                }
            }
            (l, p) => {
                if levels[p as usize] != l - 1 {
                    return Err(format!(
                        "vertex {v} (level {l}) has parent {p} at level {}",
                        levels[p as usize]
                    ));
                }
                if !adj[v].contains(&p) {
                    return Err(format!("parent {p} of {v} is not a neighbor"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bgl_comm::ProcessorGrid;
    use bgl_graph::GraphSpec;

    fn run_case(n: u64, k: f64, seed: u64, r: usize, c: usize, source: Vertex) {
        let spec = GraphSpec::poisson(n, k, seed);
        let grid = ProcessorGrid::new(r, c);
        let graph = DistGraph::build(spec, grid);
        let adj = bgl_graph::dist::adjacency(&spec);
        let mut world = SimWorld::bluegene(grid);
        let tree = try_run_tree(&graph, &mut world, &BfsConfig::default(), source).unwrap();
        assert_eq!(
            tree.levels,
            reference::bfs_levels(&adj, source),
            "levels must match oracle"
        );
        validate_tree(&adj, source, &tree.levels, &tree.parents)
            .unwrap_or_else(|e| panic!("invalid tree ({r}x{c}): {e}"));
    }

    #[test]
    fn trees_valid_across_grids() {
        for (r, c) in [(1, 1), (1, 4), (4, 1), (2, 3), (3, 3)] {
            run_case(400, 6.0, 17, r, c, 0);
        }
    }

    #[test]
    fn trees_valid_on_sparse_graph() {
        run_case(500, 2.0, 23, 2, 2, 7);
    }

    #[test]
    fn trees_valid_without_sent_cache() {
        let spec = GraphSpec::poisson(300, 8.0, 5);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let adj = bgl_graph::dist::adjacency(&spec);
        let mut world = SimWorld::bluegene(grid);
        let config = BfsConfig {
            sent_neighbors: false,
            ..BfsConfig::default()
        };
        let tree = try_run_tree(&graph, &mut world, &config, 0).unwrap();
        validate_tree(&adj, 0, &tree.levels, &tree.parents).unwrap();
    }

    #[test]
    fn parent_choice_is_deterministic_min() {
        // Running twice gives identical parents; parents are minimal
        // among same-level neighbors actually adjacent to the vertex.
        let spec = GraphSpec::poisson(300, 12.0, 9);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let mut w1 = SimWorld::bluegene(grid);
        let a = try_run_tree(&graph, &mut w1, &BfsConfig::default(), 1).unwrap();
        let mut w2 = SimWorld::bluegene(grid);
        let b = try_run_tree(&graph, &mut w2, &BfsConfig::default(), 1).unwrap();
        assert_eq!(a.parents, b.parents);
    }

    #[test]
    fn pair_messages_double_fold_volume() {
        let spec = GraphSpec::poisson(2000, 8.0, 3);
        for (r, c) in [(2, 3), (4, 4), (3, 5)] {
            let grid = ProcessorGrid::new(r, c);
            let graph = DistGraph::build(spec, grid);

            let mut w_tree = SimWorld::bluegene(grid);
            let tree = try_run_tree(&graph, &mut w_tree, &BfsConfig::default(), 0).unwrap();
            let mut w_plain = SimWorld::bluegene(grid);
            let plain =
                crate::bfs2d::try_run(&graph, &mut w_plain, &BfsConfig::baseline_alltoall(), 0)
                    .unwrap();

            assert_eq!(tree.levels, plain.levels);
            let f_tree = tree.stats.comm.class(OpClass::Fold).received_verts;
            let f_plain = plain.stats.comm.class(OpClass::Fold).received_verts;
            assert_eq!(f_tree, 2 * f_plain, "pairs are exactly two words each");
            // The pair kernels charge the levels-only kernels' probes.
            let probes =
                |s: &RunStats| -> Vec<u64> { s.levels.iter().map(|l| l.td_probes).collect() };
            assert_eq!(probes(&tree.stats), probes(&plain.stats), "{r}x{c}");
            assert!(tree.stats.total_probes() > 0, "{r}x{c}");
        }
    }

    #[test]
    fn validate_tree_rejects_corruption() {
        let spec = GraphSpec::poisson(200, 6.0, 2);
        let grid = ProcessorGrid::new(1, 2);
        let graph = DistGraph::build(spec, grid);
        let adj = bgl_graph::dist::adjacency(&spec);
        let mut world = SimWorld::bluegene(grid);
        let tree = try_run_tree(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
        validate_tree(&adj, 0, &tree.levels, &tree.parents).unwrap();

        // Corrupt a parent pointer.
        let victim = (0..200usize)
            .find(|&v| tree.levels[v] >= 2 && tree.levels[v] != UNREACHED)
            .unwrap();
        let mut bad = tree.parents.clone();
        bad[victim] = 0; // level-0 source is not one level up from level>=2
        assert!(validate_tree(&adj, 0, &tree.levels, &bad).is_err());

        // Corrupt a level.
        let mut bad_levels = tree.levels.clone();
        bad_levels[victim] = 0;
        assert!(validate_tree(&adj, 0, &bad_levels, &tree.parents).is_err());
    }
}
