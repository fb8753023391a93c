//! Table 1 — performance across processor topologies (2D vs 1D).
//!
//! Paper setup: P = 32768; topologies 128×256, 256×128, 32768×1,
//! 1×32768; graphs (|V|,k) = (100000, 10) and (10000, 100); metrics:
//! execution time, communication time, and average expand/fold message
//! length received per processor per level. Findings: 1D communication
//! time is far higher (all P processors in one collective); 1D can still
//! win end-to-end at low degree (cheaper memory access on short expand
//! messages); 2D wins at high degree.
//!
//! Reproduction: same four topology *shapes* at P = 1024 by default
//! (16×64, 64×16, 1024×1, 1×1024), per-rank sizes scaled ÷100.
//!
//! Note on the paper's 1D rows: its 32768×1 entry reports a small
//! non-zero fold length (9032) and 1×32768 a small expand length (6379)
//! — residual node-local hand-off their implementation counts. Our
//! accounting never counts node-local copies as messages, so the
//! degenerate direction reads exactly 0.
//!
//! Flags: `--p 1024` `--scale 100` `--sources 2` `--seed 42` `--csv out.csv`

use bfs_core::{bfs2d, BfsConfig};
use bgl_bench::exp;
use bgl_bench::harness::{fmt_secs, Args, Table};
use bgl_comm::ProcessorGrid;
use bgl_graph::GraphSpec;

const HELP: &str = "\
table1_topologies — reproduce paper Table 1 (2D vs 1D topologies)
  --p <usize>    total processors (default 1024; paper 32768)
  --scale <u64>  divisor on the paper's per-rank |V| (default 100)
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
    let p = args.usize("p", 1024);
    let scale = args.u64("scale", 100).max(1);
    let n_sources = args.usize("sources", 2);
    let seed = args.u64("seed", 42);

    // The paper's two graphs, scaled.
    let graphs: [(u64, f64); 2] = [(100_000 / scale, 10.0), (10_000 / scale, 100.0)];
    // The paper's four topology shapes, transplanted to P: a 1:2-ish
    // rectangle both ways (paper: 128x256 / 256x128), then the two 1D
    // extremes. When the balanced grid is square (e.g. 32x32 at P=1024),
    // halve one side to recover the paper's rectangle.
    let square = ProcessorGrid::square_ish(p);
    let (mut r0, mut c0) = (square.rows(), square.cols());
    if r0 == c0 && r0 % 2 == 0 {
        r0 /= 2;
        c0 *= 2;
    }
    let topologies: Vec<ProcessorGrid> = vec![
        ProcessorGrid::new(r0, c0),
        ProcessorGrid::new(c0, r0),
        ProcessorGrid::one_d_transposed(p), // P x 1
        ProcessorGrid::one_d(p),            // 1 x P
    ];

    let mut table = Table::new(
        &format!("Table 1 — topology comparison at P = {p} (simulated BG/L)"),
        &[
            "(|V|,k)",
            "R x C",
            "exec_time",
            "comm_time",
            "expand_comm",
            "fold_comm",
            "expand_len/level",
            "fold_len/level",
        ],
    );

    for (gi, &(per_rank, k)) in graphs.iter().enumerate() {
        let n = per_rank.max(1) * p as u64;
        let spec = GraphSpec::poisson(n, k, seed + gi as u64);
        for grid in &topologies {
            let (graph, mut world) = exp::build(spec, *grid);
            let mut exec = 0.0;
            let mut comm = 0.0;
            let mut expand_comm = 0.0;
            let mut fold_comm = 0.0;
            let mut expand_len = 0.0;
            let mut fold_len = 0.0;
            let srcs = exp::sources(n, n_sources);
            for &s in &srcs {
                world.reset();
                let r = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), s)?;
                exec += r.stats.sim_time;
                comm += r.stats.comm_time;
                expand_comm += world.comm_time_for(bgl_comm::OpClass::Expand);
                fold_comm += world.comm_time_for(bgl_comm::OpClass::Fold);
                expand_len += r.stats.avg_expand_len_per_level();
                fold_len += r.stats.avg_fold_len_per_level();
            }
            let c = srcs.len() as f64;
            table.push(vec![
                format!("({},{k})", per_rank.max(1)),
                format!("{}x{}", grid.rows(), grid.cols()),
                fmt_secs(exec / c),
                fmt_secs(comm / c),
                fmt_secs(expand_comm / c),
                fmt_secs(fold_comm / c),
                format!("{:.1}", expand_len / c),
                format!("{:.1}", fold_len / c),
            ]);
            eprintln!(
                "  … ({per_rank},{k}) on {}x{} done",
                grid.rows(),
                grid.cols()
            );
        }
    }
    table.emit(args.str("csv"));
    println!(
        "\npaper claims: (1) 1D comm time is much higher than 2D (all P processors \
         collectivize); (2) expand/fold lengths swap roles between P x 1 and 1 x P; \
         (3) 2D wins for high degree, 1D can win end-to-end at low degree."
    );
    Ok(())
}
