//! Topology sweep: how should you factor P = R × C?
//!
//! The paper's Table 1 shows that the processor-mesh shape trades
//! expand volume (grows with R) against fold volume (grows with C), and
//! that 1D layouts pay heavily in collective time. This example sweeps
//! every factorization of P for a fixed graph and prints the metrics,
//! plus the §3.1 analytic prediction next to the measurement.
//!
//! ```sh
//! cargo run --release --example topology_sweep
//! ```

use bgl_bfs::core::{bfs2d, theory};
use bgl_bfs::{BfsConfig, DistGraph, GraphSpec, ProcessorGrid, SimWorld};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let p = 64usize;
    let n = 64_000u64;
    let k = 16.0;
    let spec = GraphSpec::poisson(n, k, 3);

    println!("sweeping factorizations of P = {p} for G(n={n}, k={k}):\n");
    println!(
        "{:>7} {:>11} {:>11} {:>12} {:>12} {:>12} {:>12}",
        "R x C", "exec", "comm", "expand/lvl", "(analytic)", "fold/lvl", "(analytic)"
    );

    let mut best: Option<(f64, usize, usize)> = None;
    for r in 1..=p {
        if !p.is_multiple_of(r) {
            continue;
        }
        let c = p / r;
        let grid = ProcessorGrid::new(r, c);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let res = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 1)?;

        // §3.1 expected lengths are totals over a whole-frontier sweep;
        // divide by the executed level count for a per-level analogue.
        let levels = res.stats.num_levels().max(1) as f64;
        let exp_expand = theory::expected_len_2d_expand(n as f64, k, p as f64, r as f64) / levels;
        let exp_fold = theory::expected_len_2d_fold(n as f64, k, p as f64, c as f64) / levels;

        println!(
            "{:>7} {:>9.3}ms {:>9.3}ms {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            format!("{r}x{c}"),
            res.stats.sim_time * 1e3,
            res.stats.comm_time * 1e3,
            res.stats.avg_expand_len_per_level(),
            exp_expand,
            res.stats.avg_fold_len_per_level(),
            exp_fold
        );
        if best.map(|(t, _, _)| res.stats.sim_time < t).unwrap_or(true) {
            best = Some((res.stats.sim_time, r, c));
        }
    }

    let (t, r, c) = best.unwrap();
    println!(
        "\nbest topology: {r}x{c} at {:.3} ms simulated — balanced meshes minimize the \
         larger of the two collective groups, as the paper's O(√P) argument predicts.",
        t * 1e3
    );
    if let Some(kc) = theory::crossover_degree(n as f64, p as f64, 1e4) {
        println!(
            "analytic 1D/2D crossover degree at P={p}: k ≈ {kc:.1} (this graph has k={k}, \
             so {} should win on volume).",
            if k > kc { "2D" } else { "1D" }
        );
    }
    Ok(())
}
