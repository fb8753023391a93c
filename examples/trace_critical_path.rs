//! Trace a BFS on a simulated BlueGene/L partition and analyze it:
//! per-level critical path (which collective phase and rank bound each
//! level) plus the five hottest torus links.
//!
//! ```sh
//! cargo run --release --example trace_critical_path
//! ```
//!
//! The same artifacts are written to `results/trace_example/` —
//! `TRACE_chrome.json` loads in `chrome://tracing` or Perfetto, and
//! `TRACE_summary.json` is the machine-readable critical path.

use bgl_bfs::core::bfs2d;
use bgl_bfs::trace::write_artifacts;
use bgl_bfs::{BfsConfig, DistGraph, GraphSpec, ProcessorGrid, SimWorld, TraceDetail};
use std::path::Path;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's degree-10 workload at laptop scale, on an 8x8
    // processor mesh mapped onto a BlueGene/L torus partition.
    let spec = GraphSpec::poisson(50_000, 10.0, 42);
    let grid = ProcessorGrid::new(8, 8);
    println!(
        "tracing BFS over G(n={}, k={}) on a {}x{} mesh…",
        spec.n,
        spec.avg_degree,
        grid.rows(),
        grid.cols()
    );
    let graph = DistGraph::build(spec, grid);
    let mut world = SimWorld::bluegene(grid);

    // Event-level detail records every point-to-point send, which is
    // what the link heatmap needs; span detail is cheaper when only the
    // critical path matters.
    world.enable_trace(TraceDetail::Event);
    let result = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0)?;
    println!(
        "reached {} vertices in {} levels ({:.3} ms simulated)\n",
        result.stats.reached,
        result.stats.num_levels(),
        result.stats.sim_time * 1e3
    );

    let buf = world.take_trace().expect("tracing was enabled");
    let machine = *world.cost_model().machine();
    let report = write_artifacts(
        &buf,
        world.mapping(),
        &machine,
        Path::new("results/trace_example"),
    )
    .expect("write trace artifacts");

    // Which phase bounds each level? Early sparse levels are latency
    // bound (the termination allreduce); the frontier-peak levels are
    // bound by the absorb phase's hash pass on the bottleneck rank.
    print!("{}", report.critical.render_table());

    // Where did the bytes go on the physical torus? Dimension-ordered
    // routes concentrate fold traffic on row-neighbor links.
    println!(
        "\nhottest links ({} distinct links carried traffic, {} sends replayed):",
        report.heatmap.links_used(),
        report.heatmap.sends()
    );
    print!("{}", report.heatmap.render_table(5));

    println!(
        "\nwrote {} (load in chrome://tracing) and {}",
        report.chrome_path.display(),
        report.summary_path.display()
    );
    Ok(())
}
