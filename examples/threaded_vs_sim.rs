//! Engine cross-validation demo: the same distributed BFS executed by
//! (a) the deterministic superstep simulator and (b) a real
//! one-thread-per-rank message-passing runtime, producing identical
//! labels.
//!
//! ```sh
//! cargo run --release --example threaded_vs_sim
//! ```

use bgl_bfs::core::{bfs2d, threaded_run, ThreadedConfig, UNREACHED};
use bgl_bfs::{BfsConfig, DistGraph, GraphSpec, ProcessorGrid, SimWorld};
use std::time::Instant;

fn main() -> Result<(), bgl_bfs::CommError> {
    let spec = GraphSpec::poisson(50_000, 8.0, 99);
    let grid = ProcessorGrid::new(4, 4);
    println!(
        "G(n={}, k={}) on a {}x{} grid — 16 ranks\n",
        spec.n,
        spec.avg_degree,
        grid.rows(),
        grid.cols()
    );
    let graph = DistGraph::build(spec, grid);

    let t0 = Instant::now();
    let mut world = SimWorld::bluegene(grid);
    let sim = bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 0)?;
    let sim_wall = t0.elapsed();

    let t0 = Instant::now();
    let outs = threaded_run::run(&graph, 0, &ThreadedConfig::default());
    let threaded = threaded_run::assemble(&graph, outs)?.levels;
    let threaded_wall = t0.elapsed();

    assert_eq!(sim.levels, threaded, "engines must agree exactly");
    let reached = threaded.iter().filter(|&&l| l != UNREACHED).count();
    println!("both engines labeled {reached} vertices identically ✓");
    println!(
        "superstep simulator : {:>8.1?} wall ({:.3} simulated ms on BG/L)",
        sim_wall,
        sim.stats.sim_time * 1e3
    );
    println!("threaded SPMD (16 OS threads): {threaded_wall:>8.1?} wall");
    println!(
        "\nthe simulator executes ranks in one address space and *models* time; \
         the threaded runtime really passes messages between threads. Identical \
         output is the cross-check that the simulation substrate is faithful."
    );
    Ok(())
}
