//! Semantic-graph relationship search — the paper's motivating
//! application ("the nature of the relationship between two vertices in
//! a semantic graph ... can be determined by the shortest path between
//! them using BFS", §1).
//!
//! Two synthetic "entities" are related through a large random semantic
//! graph; we find their relationship distance three ways and compare
//! the work:
//!
//! 1. uni-directional distributed BFS, full traversal;
//! 2. uni-directional BFS that stops at the target;
//! 3. bi-directional BFS (§2.3).
//!
//! ```sh
//! cargo run --release --example semantic_path
//! ```

use bgl_bfs::core::{bfs2d, bidir};
use bgl_bfs::{BfsConfig, DistGraph, GraphSpec, ProcessorGrid, SimWorld};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A semantic graph: 200k entities, ~12 relationships each.
    let spec = GraphSpec::poisson(200_000, 12.0, 7);
    let grid = ProcessorGrid::new(8, 8);
    let graph = DistGraph::build(spec, grid);

    let entity_a = 12_345u64;
    let entity_b = 181_818u64;
    println!(
        "how are entity {entity_a} and entity {entity_b} related in a \
         {}-vertex semantic graph?\n",
        spec.n
    );

    // 1. Full traversal (answers distance to *every* entity).
    let mut world = SimWorld::bluegene(grid);
    let full = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), entity_a)?;
    let d_full = full.levels[entity_b as usize];
    println!(
        "full traversal       : distance {d_full}, {:>9} verts moved, {:.3} ms simulated",
        full.stats.total_received(),
        full.stats.sim_time * 1e3
    );

    // 2. Early-exit uni-directional search.
    let mut world = SimWorld::bluegene(grid);
    let uni = bfs2d::try_run(
        &graph,
        &mut world,
        &BfsConfig::paper_optimized().with_target(entity_b),
        entity_a,
    )?;
    println!(
        "uni-directional      : distance {}, {:>9} verts moved, {:.3} ms simulated",
        uni.target_level.expect("entities are connected"),
        uni.stats.total_received(),
        uni.stats.sim_time * 1e3
    );

    // 3. Bi-directional search from both entities.
    let mut world = SimWorld::bluegene(grid);
    let bi = bidir::try_run(
        &graph,
        &mut world,
        &BfsConfig::paper_optimized(),
        entity_a,
        entity_b,
    )?;
    println!(
        "bi-directional (§2.3): distance {}, {:>9} verts moved, {:.3} ms simulated",
        bi.distance.expect("entities are connected"),
        bi.stats.total_received(),
        bi.stats.sim_time * 1e3
    );

    assert_eq!(Some(d_full), uni.target_level);
    assert_eq!(Some(d_full), bi.distance);

    let saving =
        100.0 * (1.0 - bi.stats.total_received() as f64 / uni.stats.total_received() as f64);
    println!(
        "\nbi-directional search moved {saving:.1}% less volume than the \
         uni-directional search (paper: \"orders of magnitude smaller\" per \
         processor in the worst case)."
    );
    Ok(())
}
