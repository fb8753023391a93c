//! Quickstart: build a distributed Poisson random graph, run the
//! paper's 2D-partitioned BFS on a simulated BlueGene/L partition, and
//! print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use bgl_bfs::core::bfs2d;
use bgl_bfs::{BfsConfig, DistGraph, GraphSpec, ProcessorGrid, SimWorld};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A Poisson random graph: 100k vertices, average degree 10 — the
    // paper's degree-10 workload at laptop scale.
    let spec = GraphSpec::poisson(100_000, 10.0, 42);

    // 64 processes in the paper's 2D layout: an 8x8 processor mesh.
    let grid = ProcessorGrid::new(8, 8);
    println!(
        "building G(n={}, k={}) distributed over a {}x{} processor mesh…",
        spec.n,
        spec.avg_degree,
        grid.rows(),
        grid.cols()
    );
    let graph = DistGraph::build(spec, grid);
    println!(
        "  {} adjacency entries stored, max rank footprint {:.1} MiB",
        graph.total_entries(),
        graph.max_rank_bytes() as f64 / (1024.0 * 1024.0)
    );

    // A simulated BlueGene/L partition sized for the grid, with the
    // paper's folded-planes task mapping.
    let mut world = SimWorld::bluegene(grid);

    // The paper's optimized configuration: targeted expand, two-phase
    // union-fold, sent-neighbors cache.
    let result = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0)?;

    println!("\nBFS from vertex 0:");
    println!("  reached        : {} / {}", result.stats.reached, spec.n);
    println!("  levels         : {}", result.stats.num_levels());
    println!(
        "  simulated time : {:.3} ms  (comm {:.3} ms, compute {:.3} ms)",
        result.stats.sim_time * 1e3,
        result.stats.comm_time * 1e3,
        result.stats.compute_time * 1e3
    );
    println!(
        "  volume         : expand {} verts, fold {} verts, {} duplicates unioned away ({:.1}%)",
        result
            .stats
            .comm
            .class(bgl_bfs::comm::OpClass::Expand)
            .received_verts,
        result
            .stats
            .comm
            .class(bgl_bfs::comm::OpClass::Fold)
            .received_verts,
        result.stats.comm.total_dups_eliminated(),
        result.stats.redundancy_ratio_percent()
    );

    println!("\nper-level frontier / message volume:");
    for l in &result.stats.levels {
        println!(
            "  level {:>2}: frontier {:>7}, expand {:>8}, fold {:>8}",
            l.level, l.frontier, l.expand_received, l.fold_received
        );
    }
    Ok(())
}
