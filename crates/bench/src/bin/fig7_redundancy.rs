//! Figure 7 — redundancy ratio of the union-fold operation.
//!
//! Paper setup: weak scaling on BlueGene/L with the two-phase union-fold
//! (§3.2.2); metric is the **redundancy ratio** — duplicate vertices
//! eliminated by the union against the total vertices a processor would
//! have received. Findings: up to ~80% of vertices are saved for the
//! k = 100 graph, the high-degree graph saves more than the low-degree
//! one, and the ratio *declines* as P grows (ring communication makes
//! each processor receive more forwarded copies while the duplicate
//! population stays roughly constant).
//!
//! Reproduction: same two weak-scaling series at 1/10 per-rank scale,
//! union-fold via the two-phase grouped ring.
//!
//! Flags: `--ps 16,64,144` `--scale 10` `--seed 42` `--csv out.csv`
//!
//! The per-rank scale matters for this figure: at very small per-rank
//! sizes (scale ≥ 20) the k = 100 series is dominated by a few
//! heavily-shared vertices and the declining trend washes out, so the
//! default scale is 10 (per-rank |V| = 10000 / 1000); P is capped at 144
//! to keep the default run's memory modest (n = 1.44M at k = 10).

use bfs_core::{bfs2d, BfsConfig, FoldStrategy};
use bgl_bench::exp;
use bgl_bench::harness::{Args, Table};
use bgl_comm::ProcessorGrid;
use bgl_graph::GraphSpec;

const HELP: &str = "\
fig7_redundancy — reproduce paper Figure 7 (union-fold redundancy ratio)
  --ps <list>    processor counts (default 16,64,144)
  --scale <u64>  divisor on the paper's per-rank |V| (default 10)
  --seed <u64>   graph seed (default 42)
  --csv <path>   also write CSV
";

const SERIES: [(u64, f64); 2] = [(100_000, 10.0), (10_000, 100.0)];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let ps = args.u64_list("ps", &[16, 64, 144]);
    let scale = args.u64("scale", 10).max(1);
    let seed = args.u64("seed", 42);

    let headers: Vec<String> = SERIES
        .iter()
        .map(|&(v, k)| format!("ratio%(|V|={},k={})", (v / scale).max(1), k))
        .collect();
    let columns = vec!["P", "grid", headers[0].as_str(), headers[1].as_str()];
    let mut table = Table::new("Figure 7 — union-fold redundancy ratio (percent)", &columns);

    let config = BfsConfig {
        fold: FoldStrategy::TwoPhaseRing,
        ..BfsConfig::paper_optimized()
    };

    let mut per_series: Vec<Vec<f64>> = vec![Vec::new(); SERIES.len()];
    for &p in &ps {
        let grid = ProcessorGrid::square_ish(p as usize);
        let mut cells = vec![p.to_string(), format!("{}x{}", grid.rows(), grid.cols())];
        for (i, &(v_full, k)) in SERIES.iter().enumerate() {
            let per_rank = (v_full / scale).max(1);
            let n = per_rank * p;
            let spec = GraphSpec::poisson(n, k.min(n as f64 - 1.0), seed + i as u64);
            let (graph, mut world) = exp::build(spec, grid);
            let r = bfs2d::try_run(&graph, &mut world, &config, 1)?;
            let ratio = r.stats.redundancy_ratio_percent();
            per_series[i].push(ratio);
            cells.push(format!("{ratio:.1}"));
        }
        table.push(cells);
        eprintln!("  … P={p} done");
    }
    table.emit(args.str("csv"));

    for (i, &(v_full, k)) in SERIES.iter().enumerate() {
        let s = &per_series[i];
        if s.len() >= 2 {
            println!(
                "series (|V|={},k={k}): ratio {:.1}% -> {:.1}% as P grows ({})",
                v_full / scale,
                s[0],
                s[s.len() - 1],
                if s[s.len() - 1] < s[0] {
                    "declining, as the paper reports"
                } else {
                    "NOT declining — deviation from the paper"
                }
            );
        }
    }
    println!(
        "paper claims: higher-degree graphs save more (up to ~80%), and the ratio \
         declines with P because ring forwarding multiplies receptions."
    );
    Ok(())
}
