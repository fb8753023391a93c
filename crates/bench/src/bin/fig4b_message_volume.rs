//! Figure 4.b — total message volume per level of the search.
//!
//! Paper setup: a graph with 12 M vertices and 120 M edges (k = 10);
//! total message volume received, plotted against the level ("length of
//! search path"); the volume "increases quickly as the path length
//! increases until the path length reaches the diameter of the graph".
//!
//! Reproduction: same degree, vertex count scaled (default n = 120 000),
//! on a square processor mesh. The per-level fold + expand received
//! volumes are printed; the shape — exponential ramp-up, then a peak
//! near the diameter `ln n / ln k`, then decay as the component
//! exhausts — is the comparison target.
//!
//! Flags: `--n 120000` `--k 10` `--p 256` `--seed 42` `--source 1`
//! `--csv out.csv`

use bfs_core::{bfs2d, theory, BfsConfig};
use bgl_bench::exp;
use bgl_bench::harness::{Args, Table};
use bgl_comm::ProcessorGrid;
use bgl_graph::GraphSpec;

const HELP: &str = "\
fig4b_message_volume — reproduce paper Figure 4.b (volume per level)
  --n <u64>      vertices (default 120000; paper 12000000)
  --k <f64>      average degree (default 10)
  --p <usize>    processors (default 256)
  --seed <u64>   graph seed (default 42)
  --source <u64> search source (default 1)
  --csv <path>   also write CSV
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let n = args.u64("n", 120_000);
    let k = args.f64("k", 10.0);
    let p = args.usize("p", 256);
    let seed = args.u64("seed", 42);
    let source = args.u64("source", 1).min(n - 1);

    let grid = ProcessorGrid::square_ish(p);
    let spec = GraphSpec::poisson(n, k, seed);
    let (graph, mut world) = exp::build(spec, grid);
    let result = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), source)?;

    let predicted = theory::expected_frontiers(n as f64, k);
    let mut table = Table::new(
        &format!(
            "Figure 4.b — message volume per level (n={n}, k={k}, grid {}x{})",
            grid.rows(),
            grid.cols()
        ),
        &[
            "level",
            "frontier",
            "predicted_frontier",
            "expand_recv",
            "fold_recv",
            "total_recv",
        ],
    );
    let mut peak_level = 0u32;
    let mut peak = 0u64;
    for l in &result.stats.levels {
        let total = l.expand_received + l.fold_received;
        if total > peak {
            peak = total;
            peak_level = l.level;
        }
        table.push(vec![
            l.level.to_string(),
            l.frontier.to_string(),
            predicted
                .get(l.level as usize)
                .map(|f| format!("{f:.0}"))
                .unwrap_or_else(|| "0".into()),
            l.expand_received.to_string(),
            l.fold_received.to_string(),
            total.to_string(),
        ]);
    }
    table.emit(args.str("csv"));

    let diam = theory::diameter_estimate(n as f64, k);
    println!(
        "\npeak volume {peak} vertices at level {peak_level}; random-graph diameter \
         estimate ln n / ln k = {diam:.1}."
    );
    println!(
        "paper claim: volume rises quickly with level until the path length reaches \
         the graph diameter, then stays bounded/declines."
    );
    Ok(())
}
