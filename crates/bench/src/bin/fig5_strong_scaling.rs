//! Figure 5 — strong scaling of the distributed BFS.
//!
//! Paper setup: graph size fixed while P grows to ~512; "the speedup
//! curves grow in proportion to √P for small P. For larger P, the
//! speedup tapers off as the local problem size becomes very small and
//! the communication overhead becomes dominant."
//!
//! Reproduction: fixed n (default 100 000), P ∈ {1..512}, speedup
//! computed from simulated time against the P = 1 run of the same
//! graph. A √P reference column is printed for comparison, and the
//! taper is visible as speedup/√P collapsing at large P.
//!
//! Flags: `--n 100000` `--ks 10,100` `--ps 1,4,16,64,144,256,400,512`
//! `--sources 2` `--seed 42` `--csv out.csv`

use bfs_core::BfsConfig;
use bgl_bench::exp;
use bgl_bench::harness::{Args, Table};
use bgl_comm::ProcessorGrid;
use bgl_graph::GraphSpec;

const HELP: &str = "\
fig5_strong_scaling — reproduce paper Figure 5 (strong scaling speedup)
  --n <u64>      vertices, fixed across P (default 100000)
  --ks <list>    average degrees (default 10,100)
  --ps <list>    processor counts (default 1,4,16,64,144,256,400,512)
  --sources <n>  searches averaged (default 2)
  --seed <u64>   graph seed (default 42)
  --csv <path>   also write CSV
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let n = args.u64("n", 100_000);
    let ks = args.u64_list("ks", &[10, 100]);
    let ps = args.u64_list("ps", &[1, 4, 16, 64, 144, 256, 400, 512]);
    let n_sources = args.usize("sources", 2);
    let seed = args.u64("seed", 42);

    let mut columns: Vec<String> = vec!["P".into(), "sqrt(P)".into()];
    for &k in &ks {
        columns.push(format!("speedup(k={k})"));
        columns.push(format!("time(k={k})"));
    }
    let colrefs: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut table = Table::new(
        &format!("Figure 5 — strong scaling speedup, n={n} fixed"),
        &colrefs,
    );

    // Baseline (P = 1) per degree.
    let mut base: Vec<f64> = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        let spec = GraphSpec::poisson(n, k as f64, seed + i as u64);
        let grid = ProcessorGrid::new(1, 1);
        let (graph, mut world) = exp::build(spec, grid);
        let m = exp::mean_search(
            &graph,
            &mut world,
            &BfsConfig::paper_optimized(),
            &exp::sources(n, n_sources),
        )?;
        base.push(m.exec);
    }

    for &p in &ps {
        let grid = ProcessorGrid::square_ish(p as usize);
        let mut cells = vec![p.to_string(), format!("{:.1}", (p as f64).sqrt())];
        for (i, &k) in ks.iter().enumerate() {
            let spec = GraphSpec::poisson(n, k as f64, seed + i as u64);
            let (graph, mut world) = exp::build(spec, grid);
            let m = exp::mean_search(
                &graph,
                &mut world,
                &BfsConfig::paper_optimized(),
                &exp::sources(n, n_sources),
            )?;
            cells.push(format!("{:.1}", base[i] / m.exec));
            cells.push(format!("{:.2}ms", m.exec * 1e3));
        }
        table.push(cells);
        eprintln!("  … P={p} done");
    }
    table.emit(args.str("csv"));
    println!(
        "\npaper claim: speedup grows ∝ √P for small P, then tapers as per-rank work \
         shrinks and communication dominates."
    );
    Ok(())
}
