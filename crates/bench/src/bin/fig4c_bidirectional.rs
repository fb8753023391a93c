//! Figure 4.c — bi-directional vs uni-directional search, weak scaling.
//!
//! Paper setup: weak scaling at k = 10, P = 100..10000; bi-directional
//! search scales ∝ log P like the uni-directional one but is faster —
//! "the search time of the bi-directional BFS in the worst case is only
//! 33% of that of the uni-directional BFS", because it walks a shorter
//! distance and moves "orders of magnitude" less volume per processor.
//!
//! Reproduction: same comparison on the simulated machine, default
//! per-rank |V| = 1000 (paper 100000), endpoints drawn far apart. Both
//! mean simulated time and the received-volume ratio are reported.
//!
//! Flags: `--ps 16,64,256,1024` `--per-rank 1000` `--k 10` `--pairs 3`
//! `--seed 42` `--csv out.csv` `--wire auto|raw|delta|bitmap`
//! `--engine-threads N`

use bfs_core::{bfs2d, bidir, BfsConfig};
use bgl_bench::exp;
use bgl_bench::harness::{fmt_secs, Args, Table};
use bgl_comm::ProcessorGrid;
use bgl_graph::GraphSpec;

const HELP: &str = "\
fig4c_bidirectional — reproduce paper Figure 4.c (bi- vs uni-directional)
  --ps <list>       processor counts (default 16,64,256,1024)
  --per-rank <u64>  vertices per rank (default 1000; paper 100000)
  --k <f64>         average degree (default 10)
  --pairs <n>       source/target pairs averaged (default 3)
  --seed <u64>      graph seed (default 42)
  --csv <path>      also write CSV
  --wire <mode>     wire codec: auto|raw|delta|bitmap (default raw)
  --engine-threads <n>  rayon worker threads (default: one per core)
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let ps = args.u64_list("ps", &[16, 64, 256, 1024]);
    let per_rank = args.u64("per-rank", 1000);
    let k = args.f64("k", 10.0);
    let n_pairs = args.usize("pairs", 3);
    let seed = args.u64("seed", 42);
    let wire = exp::wire_policy(&args);
    exp::apply_engine_threads(&args);
    let config = BfsConfig::paper_optimized();

    let mut table = Table::new(
        "Figure 4.c — bi-directional vs uni-directional BFS (simulated seconds)",
        &[
            "P",
            "uni_time",
            "bidi_time",
            "bidi/uni",
            "uni_recv",
            "bidi_recv",
            "vol_ratio",
        ],
    );

    let mut worst_ratio = 0.0f64;
    for &p in &ps {
        let n = per_rank * p;
        let grid = ProcessorGrid::square_ish(p as usize);
        let spec = GraphSpec::poisson(n, k, seed);
        let (graph, mut world) = exp::build(spec, grid);
        world = world.with_wire_policy(wire);

        // Endpoint pairs spread across the vertex space.
        let srcs = exp::sources(n, n_pairs);
        let pairs: Vec<(u64, u64)> = srcs.iter().map(|&s| (s, (s + n / 2 + 1) % n)).collect();

        let mut uni_time = 0.0;
        let mut uni_recv = 0u64;
        for &(s, t) in &pairs {
            world.reset();
            let r = bfs2d::try_run(&graph, &mut world, &config.with_target(t), s)?;
            uni_time += r.stats.sim_time;
            uni_recv += r.stats.total_received();
        }
        let mut bidi_time = 0.0;
        let mut bidi_recv = 0u64;
        for &(s, t) in &pairs {
            world.reset();
            let r = bidir::try_run(&graph, &mut world, &config, s, t)?;
            bidi_time += r.stats.sim_time;
            bidi_recv += r.stats.total_received();
        }
        uni_time /= pairs.len() as f64;
        bidi_time /= pairs.len() as f64;
        let ratio = bidi_time / uni_time;
        worst_ratio = worst_ratio.max(ratio);
        let vol_ratio = bidi_recv as f64 / uni_recv.max(1) as f64;
        table.push(vec![
            p.to_string(),
            fmt_secs(uni_time),
            fmt_secs(bidi_time),
            format!("{ratio:.2}"),
            uni_recv.to_string(),
            bidi_recv.to_string(),
            format!("{vol_ratio:.3}"),
        ]);
        eprintln!("  … P={p} done");
    }
    table.emit(args.str("csv"));
    println!(
        "\nworst bidi/uni time ratio observed: {worst_ratio:.2} \
         (paper: bi-directional worst case is 33% of uni-directional)."
    );
    Ok(())
}
