//! Graph500-style benchmark kernel on the simulated machine.
//!
//! The paper's 2D BFS is a direct ancestor of the Graph500 reference
//! implementations. This example runs the benchmark's shape: build one
//! graph, run BFS from a set of pseudo-random sources, validate each
//! search against the sequential oracle, and report TEPS (traversed
//! edges per second — here per *simulated* BlueGene/L second).
//!
//! Both the benchmark's R-MAT workload and the paper's Poisson workload
//! are run, showing how the skewed degrees hurt the 2D partition's load
//! balance.
//!
//! ```sh
//! cargo run --release --example graph500_style
//! ```

use bgl_bfs::core::{bfs2d, reference};
use bgl_bfs::graph::{degrees, DegreeStats};
use bgl_bfs::{BfsConfig, CommError, DistGraph, GraphSpec, ProcessorGrid, SimWorld};

fn run_kernel(
    name: &str,
    spec: GraphSpec,
    grid: ProcessorGrid,
    num_sources: u64,
) -> Result<(), CommError> {
    println!(
        "— {name}: n = {}, k = {}, grid {}x{}",
        spec.n,
        spec.avg_degree,
        grid.rows(),
        grid.cols()
    );
    let graph = DistGraph::build(spec, grid);
    let adj = bgl_bfs::graph::dist::adjacency(&spec);
    let deg = DegreeStats::from_degrees(&degrees(&graph));
    println!(
        "  degrees: mean {:.1}, max {}, dispersion {:.1}",
        deg.mean,
        deg.max,
        deg.dispersion()
    );

    let mut teps_values = Vec::new();
    for i in 0..num_sources {
        let source = (i * 2 + 1) * spec.n / (2 * num_sources);
        let mut world = SimWorld::bluegene(grid);
        let r = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), source)?;

        // Validation pass (Graph500 requires it).
        let expect = reference::bfs_levels(&adj, source);
        assert_eq!(r.levels, expect, "validation failed for source {source}");

        // Edges traversed = sum of degrees of reached vertices (each
        // adjacency entry scanned once thanks to the sent cache).
        let edges: u64 = r
            .levels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l != reference::UNREACHED)
            .map(|(v, _)| adj[v].len() as u64)
            .sum();
        teps_values.push(r.stats.teps(edges));
    }
    teps_values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let min = teps_values.first().unwrap();
    let med = teps_values[teps_values.len() / 2];
    let max = teps_values.last().unwrap();
    println!(
        "  simulated TEPS over {num_sources} sources: min {:.2e}, median {med:.2e}, max {:.2e}\n",
        min, max
    );
    Ok(())
}

fn main() -> Result<(), CommError> {
    let grid = ProcessorGrid::new(8, 8);
    println!("Graph500-style kernel on a simulated 64-node BlueGene/L partition\n");
    run_kernel(
        "Poisson (the paper's workload)",
        GraphSpec::poisson(1 << 16, 16.0, 42),
        grid,
        8,
    )?;
    run_kernel(
        "R-MAT scale 16 (Graph500 workload)",
        GraphSpec::rmat(1 << 16, 16.0, 42),
        grid,
        8,
    )?;
    println!(
        "R-MAT's skewed degrees concentrate edges on a few block rows, so the same \
         2D partition balances worse — exactly the gap later work (CombBLAS, \
         direction-optimizing BFS) addressed."
    );
    Ok(())
}
