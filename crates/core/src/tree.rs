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
use crate::stats::{LevelStats, RunStats};
use bgl_comm::collectives::{alltoall::alltoallv, Groups};
use bgl_comm::{CommError, OpClass, SimWorld, Vert};
use bgl_graph::{DistGraph, RankGraph, Vertex};

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

struct TreeRankState<'g> {
    rg: &'g RankGraph,
    levels: Vec<u32>,
    parents: Vec<u64>,
    frontier: Vec<Vertex>,
    sent: Vec<bool>,
    probes: u64,
}

impl<'g> TreeRankState<'g> {
    fn new(rg: &'g RankGraph, use_sent: bool) -> Self {
        Self {
            rg,
            levels: vec![UNREACHED; rg.owned_len()],
            parents: vec![NO_PARENT; rg.owned_len()],
            frontier: Vec::new(),
            sent: if use_sent {
                vec![false; rg.edges.num_row_ids()]
            } else {
                Vec::new()
            },
            probes: 0,
        }
    }

    /// Discovery emitting `(u, parent)` pairs per destination grid
    /// column, flat-encoded `[u0, p0, u1, p1, …]`.
    fn discover_pairs(&mut self, fbar_lists: &[&[Vert]], cols: usize) -> Vec<Vec<Vert>> {
        let mut blocks: Vec<Vec<Vert>> = vec![Vec::new(); cols];
        for list in fbar_lists {
            for &v in *list {
                self.probes += 1;
                let Some(ci) = self.rg.edges.col_local(v) else {
                    continue;
                };
                for &rl in self.rg.edges.rows_of(ci) {
                    self.probes += 1;
                    if !self.sent.is_empty() {
                        if self.sent[rl as usize] {
                            continue;
                        }
                        self.sent[rl as usize] = true;
                    }
                    let block = &mut blocks[self.rg.row_block_of(rl)];
                    block.push(self.rg.edges.row_of_local(rl));
                    block.push(v);
                }
            }
        }
        blocks
    }

    /// Absorb `(u, parent)` pairs; smallest proposed parent wins ties
    /// within a level.
    fn absorb_pairs(&mut self, lists: &[&[Vert]], next_level: u32) {
        let mut fresh: Vec<Vertex> = Vec::new();
        for list in lists {
            debug_assert_eq!(list.len() % 2, 0, "pair payload must have even length");
            for pair in list.chunks_exact(2) {
                let (u, parent) = (pair[0], pair[1]);
                self.probes += 1;
                let off = self
                    .rg
                    .owned_local(u)
                    .expect("fold delivered a vertex to a non-owner"); // bgl-lint: allow(r1, reason = "fold routes each vertex to the owner of its block column, so delivery to a non-owner is a partitioning bug")
                if self.levels[off] == UNREACHED {
                    self.levels[off] = next_level;
                    self.parents[off] = parent;
                    fresh.push(u);
                } else if self.levels[off] == next_level && parent < self.parents[off] {
                    // Same-level duplicate from another discoverer:
                    // deterministic min-parent tie-break.
                    self.parents[off] = parent;
                }
            }
        }
        fresh.sort_unstable();
        fresh.dedup();
        self.frontier = fresh;
    }

    fn expand_sends(&self, grid: bgl_comm::ProcessorGrid) -> Vec<(usize, Vec<Vert>)> {
        let (_, j) = grid.position_of(self.rg.rank);
        let mut per_row: Vec<Vec<Vert>> = vec![Vec::new(); grid.rows()];
        for &v in &self.frontier {
            let off = (v - self.rg.owned.start) as usize;
            for &i2 in self.rg.expand_targets(off) {
                per_row[i2 as usize].push(v);
            }
        }
        per_row
            .into_iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(i2, l)| (grid.rank_of(i2, j), l))
            .collect()
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
    let p = grid.len();
    let row_groups = Groups::rows_of(grid);
    let col_groups = Groups::cols_of(grid);

    let mut states: Vec<TreeRankState<'_>> = graph
        .ranks
        .iter()
        .map(|rg| TreeRankState::new(rg, config.sent_neighbors))
        .collect();
    {
        let owner = graph.partition.owner_of(source);
        let st = &mut states[owner];
        // bgl-lint: allow(r1, reason = "st is states[owner_of(source)], so the owner lookup cannot miss")
        let off = st.rg.owned_local(source).unwrap();
        st.levels[off] = 0;
        st.parents[off] = source;
        st.frontier = vec![source];
    }

    let mut level_records = Vec::new();
    let mut level: u32 = 0;
    loop {
        if config.max_levels > 0 && level >= config.max_levels {
            break;
        }
        let time_at_start = world.time();
        let comm_at_start = world.comm_time();
        let codec_at_start = world.codec_time();
        let comm_snapshot = world.stats.clone();

        let sizes: Vec<u64> = states.iter().map(|s| s.frontier.len() as u64).collect();
        let global_frontier = world.allreduce_sum(&sizes);
        if global_frontier == 0 {
            break;
        }

        // Expand (targeted, unchanged).
        let sends: Vec<Vec<(usize, Vec<Vert>)>> =
            states.iter().map(|s| s.expand_sends(grid)).collect();
        let fbar: Vec<Vec<Vec<Vert>>> = alltoallv(world, OpClass::Expand, &col_groups, sends)?
            .into_iter()
            .map(|inbox| inbox.into_iter().map(|(_, pl)| pl).collect())
            .collect();

        // Discover pairs + fold them directly.
        let blocks: Vec<Vec<Vec<Vert>>> = states
            .iter_mut()
            .zip(&fbar)
            .map(|(s, lists)| {
                let refs: Vec<&[Vert]> = lists.iter().map(Vec::as_slice).collect();
                s.discover_pairs(&refs, grid.cols())
            })
            .collect();
        let fold_sends: Vec<Vec<(usize, Vec<Vert>)>> = blocks
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
        let nbar: Vec<Vec<Vec<Vert>>> = alltoallv(world, OpClass::Fold, &row_groups, fold_sends)?
            .into_iter()
            .map(|inbox| inbox.into_iter().map(|(_, pl)| pl).collect())
            .collect();

        for (s, lists) in states.iter_mut().zip(&nbar) {
            let refs: Vec<&[Vert]> = lists.iter().map(Vec::as_slice).collect();
            s.absorb_pairs(&refs, level + 1);
        }
        let probes: Vec<u64> = states
            .iter_mut()
            .map(|s| std::mem::take(&mut s.probes))
            .collect();
        world.hash_phase(&probes);

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
            // The BFS-tree engine is top-down only.
            ..LevelStats::default()
        });
        level += 1;
    }

    let n = graph.spec.n as usize;
    let mut levels = vec![UNREACHED; n];
    let mut parents = vec![NO_PARENT; n];
    let mut reached = 0u64;
    for st in &states {
        let start = st.rg.owned.start as usize;
        levels[start..start + st.levels.len()].copy_from_slice(&st.levels);
        parents[start..start + st.parents.len()].copy_from_slice(&st.parents);
        reached += st.levels.iter().filter(|&&l| l != UNREACHED).count() as u64;
    }
    Ok(TreeResult {
        levels,
        parents,
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
        let spec = GraphSpec::poisson(600, 8.0, 3);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);

        let mut w_tree = SimWorld::bluegene(grid);
        let tree = try_run_tree(&graph, &mut w_tree, &BfsConfig::default(), 0).unwrap();
        let mut w_plain = SimWorld::bluegene(grid);
        let plain = crate::bfs2d::try_run(&graph, &mut w_plain, &BfsConfig::baseline_alltoall(), 0)
            .unwrap();

        assert_eq!(tree.levels, plain.levels);
        let f_tree = tree.stats.comm.class(OpClass::Fold).received_verts;
        let f_plain = plain.stats.comm.class(OpClass::Fold).received_verts;
        assert_eq!(f_tree, 2 * f_plain, "pairs are exactly two words each");
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
