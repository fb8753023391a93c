//! Figure 4.a — weak-scaling of the distributed BFS.
//!
//! Paper setup: 32,768-node BlueGene/L; per-processor graph size fixed
//! at |V| ∈ {100000, 20000, 10000, 5000} vertices with average degree
//! k ∈ {10, 50, 100, 200} (|V|·k = 10⁶ per processor); mean search time
//! grows ∝ log P, and communication time is a small fraction of the
//! total. Largest graph: 3.2 G vertices / 32 G edges.
//!
//! Reproduction: identical shape at 1/100 per-rank scale (|V|·k = 10⁴
//! per rank) on the simulated torus, P up to 1024 by default. The log-P
//! regression slope and the comm/total ratio are printed alongside.
//!
//! Flags: `--ps 1,4,16,64,256,1024` `--scale 100` (divisor applied to
//! paper's per-rank |V|) `--sources 3` `--csv out.csv`

use bfs_core::BfsConfig;
use bgl_bench::exp;
use bgl_bench::harness::{fmt_secs, Args, Table};
use bgl_comm::ProcessorGrid;
use bgl_graph::GraphSpec;

const HELP: &str = "\
fig4a_weak_scaling — reproduce paper Figure 4.a (weak scaling)
  --ps <list>     processor counts (default 1,4,16,64,256,1024)
  --scale <u64>   divisor on the paper's per-rank |V| (default 100)
  --sources <n>   searches averaged per point (default 3)
  --seed <u64>    graph seed (default 42)
  --csv <path>    also write CSV
  --trace-out <dir>  after the sweep, run one traced search at the largest
                     P (k=10 series) and write TRACE_chrome.json +
                     TRACE_summary.json there, printing the critical path
";

/// The paper's four weak-scaling series: (per-rank |V| at scale 1, k).
const SERIES: [(u64, f64); 4] = [
    (100_000, 10.0),
    (20_000, 50.0),
    (10_000, 100.0),
    (5_000, 200.0),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let ps = args.u64_list("ps", &[1, 4, 16, 64, 256, 1024]);
    let scale = args.u64("scale", 100).max(1);
    let n_sources = args.usize("sources", 3);
    let seed = args.u64("seed", 42);

    let headers: Vec<String> = SERIES
        .iter()
        .map(|&(v, k)| format!("|V|={},k={}", (v / scale).max(1), k))
        .collect();
    let columns: Vec<&str> = vec![
        "P",
        "grid",
        &headers[0],
        "comm(k=10)",
        &headers[1],
        &headers[2],
        &headers[3],
    ];
    let mut table = Table::new(
        "Figure 4.a — weak scaling, mean search time (simulated BG/L seconds)",
        &columns,
    );
    let mut comm_ratio_largest = 0.0;

    let mut k10_times: Vec<(f64, f64)> = Vec::new();
    for &p in &ps {
        let grid = ProcessorGrid::square_ish(p as usize);
        let mut cells: Vec<String> =
            vec![p.to_string(), format!("{}x{}", grid.rows(), grid.cols())];
        let mut comm_cell = String::new();
        for (idx, &(v_full, k)) in SERIES.iter().enumerate() {
            let per_rank = (v_full / scale).max(1);
            let n = per_rank * p;
            let spec = GraphSpec::poisson(n, k.min(n as f64 - 1.0), seed + idx as u64);
            let (graph, mut world) = exp::build(spec, grid);
            let m = exp::mean_search(
                &graph,
                &mut world,
                &BfsConfig::paper_optimized(),
                &exp::sources(n, n_sources),
            )?;
            if idx == 0 {
                comm_cell = fmt_secs(m.comm);
                k10_times.push((p as f64, m.exec));
                comm_ratio_largest = m.comm / m.exec;
            }
            cells.push(fmt_secs(m.exec));
            if idx == 0 {
                cells.push(comm_cell.clone());
            }
        }
        table.push(cells);
        eprintln!("  … P={p} done");
    }
    table.emit(args.str("csv"));

    if k10_times.len() >= 3 {
        let xs: Vec<f64> = k10_times.iter().map(|&(p, _)| p).collect();
        let ys: Vec<f64> = k10_times.iter().map(|&(_, t)| t).collect();
        let (a, b, r2) = exp::fit_log(&xs, &ys);
        println!("\nlog-P regression (k=10 series): time ≈ {a:.4} + {b:.4}·log2(P), R² = {r2:.3}");
        println!("paper claim: execution time grows ∝ log P (diameter of the random graph).");
        println!(
            "comm/total at largest P: {:.0}% — the paper observes a small fraction at \
             per-rank |V| = 100000; the ratio shrinks as --scale approaches 1 \
             (per-rank compute grows ~linearly while per-message overhead is fixed).",
            comm_ratio_largest * 100.0
        );
    }

    if let Some(dir) = args.str("trace-out") {
        let &p = ps.last().expect("at least one processor count");
        let (v_full, k) = SERIES[0];
        let per_rank = (v_full / scale).max(1);
        let n = per_rank * p;
        let grid = ProcessorGrid::square_ish(p as usize);
        let spec = GraphSpec::poisson(n, k.min(n as f64 - 1.0), seed);
        let (graph, mut world) = exp::build(spec, grid);
        let source = exp::sources(n, 1)[0];
        let report = exp::traced_search(
            &graph,
            &mut world,
            &BfsConfig::paper_optimized(),
            source,
            std::path::Path::new(dir),
        )
        .map_err(|e| format!("--trace-out {dir:?}: {e}"))?;
        println!(
            "\ntraced search at P={p}: wrote {} and {}",
            report.chrome_path.display(),
            report.summary_path.display()
        );
        print!("{}", report.critical.render_table());
    }
    Ok(())
}
