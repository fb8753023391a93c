//! Figure 6 — message volume per level, 1D vs 2D partitioning, and the
//! analytic crossover degree.
//!
//! Paper setup: 40 M-vertex graphs on a 20×20 mesh (P = 400), searched
//! to an unreachable target (worst case, full traversal); per-level
//! message volume received by a processor... compared between 1D and 2D
//! partitionings for k = 10 (1D wins), k = 50 (2D wins), and the
//! crossover degree k = 34 computed from
//!
//! ```text
//! n·γ(n/P)·(P−1)/P = 2·(n/P)·γ(n/√P)·(√P−1)
//! ```
//!
//! where both partitionings move near-identical volume.
//!
//! Reproduction: n scaled to 400 000 by default, same P = 400 mesh.
//! The crossover equation depends only on P (n cancels), so the solver
//! reproduces the paper's constant directly — the exact root is ≈ 31.3
//! (the paper rounds to 34; at k = 34 the sides agree within ~5%).
//!
//! Flags: `--n 400000` `--p 400` `--ks 10,50` `--crossover` (adds the
//! computed crossover-k series) `--seed 42` `--csv out.csv`

use bfs_core::{bfs2d, theory, BfsConfig};
use bgl_bench::exp;
use bgl_bench::harness::{Args, Table};
use bgl_comm::{CommError, ProcessorGrid};
use bgl_graph::GraphSpec;

const HELP: &str = "\
fig6_partition_volume — reproduce paper Figure 6 (1D vs 2D volume per level)
  --n <u64>     vertices (default 400000; paper 40000000)
  --p <usize>   processors (default 400, i.e. a 20x20 mesh / 1x400 line)
  --ks <list>   degrees to compare (default 10,50)
  --crossover   additionally run the computed crossover degree (Fig 6.b)
  --seed <u64>  graph seed (default 42)
  --csv <path>  also write CSV
";

/// Run a full (unreachable-target) traversal and return per-level total
/// received volumes.
fn volumes(n: u64, k: f64, grid: ProcessorGrid, seed: u64) -> Result<Vec<u64>, CommError> {
    let spec = GraphSpec::poisson(n, k, seed);
    let (graph, mut world) = exp::build(spec, grid);
    // Direct all-to-all fold: the figure compares the volume *induced by
    // the partitioning*, matching the §3.1 analytic model, so ring
    // forwarding must not inflate the counts.
    let r = bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 1)?;
    Ok(r.stats
        .levels
        .iter()
        .map(|l| l.expand_received + l.fold_received)
        .collect())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let n = args.u64("n", 400_000);
    let p = args.usize("p", 400);
    let mut ks: Vec<f64> = args
        .u64_list("ks", &[10, 50])
        .into_iter()
        .map(|k| k as f64)
        .collect();
    let seed = args.u64("seed", 42);

    let crossover = theory::crossover_degree(n as f64, p as f64, 1e4);
    if args.bool("crossover", false) {
        if let Some(kc) = crossover {
            ks.push(kc.round());
        }
    }

    let mesh = ProcessorGrid::square_ish(p);
    let line = ProcessorGrid::one_d(p);

    let mut columns: Vec<String> = vec!["level".into()];
    for &k in &ks {
        columns.push(format!("2D(k={k})"));
        columns.push(format!("1D(k={k})"));
    }
    let colrefs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        &format!(
            "Figure 6 — message volume per level, n={n}, 2D {}x{} vs 1D 1x{p}",
            mesh.rows(),
            mesh.cols()
        ),
        &colrefs,
    );

    let mut series: Vec<(Vec<u64>, Vec<u64>)> = Vec::new();
    for &k in &ks {
        eprintln!("  … running k={k} (2D then 1D)");
        let v2 = volumes(n, k, mesh, seed)?;
        let v1 = volumes(n, k, line, seed)?;
        series.push((v2, v1));
    }
    let max_levels = series
        .iter()
        .map(|(a, b)| a.len().max(b.len()))
        .max()
        .unwrap_or(0);
    for l in 0..max_levels {
        let mut cells = vec![l.to_string()];
        for (v2, v1) in &series {
            cells.push(v2.get(l).copied().unwrap_or(0).to_string());
            cells.push(v1.get(l).copied().unwrap_or(0).to_string());
        }
        table.push(cells);
    }
    table.emit(args.str("csv"));

    for (i, &k) in ks.iter().enumerate() {
        let (v2, v1) = &series[i];
        let t2: u64 = v2.iter().sum();
        let t1: u64 = v1.iter().sum();
        println!(
            "k={k}: total 2D volume {t2}, total 1D volume {t1} => {} moves less",
            if t2 < t1 { "2D" } else { "1D" }
        );
    }
    if let Some(kc) = crossover {
        println!(
            "\nanalytic crossover degree for P={p}: k = {kc:.1} (paper reports 34 for \
             P=400; the exact root of the paper's own equation is ≈ 31.3 — the \
             equation depends only on P, so it transfers to the scaled n unchanged)."
        );
    }
    println!(
        "paper claims: volume grows more slowly with 1D at low degree, 2D generates \
         less at high degree, and the two are nearly identical at the crossover."
    );
    Ok(())
}
