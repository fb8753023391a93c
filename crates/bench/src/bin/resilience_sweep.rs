//! Resilience sweep — BFS under injected faults, drop rate × dead ranks.
//!
//! The robustness extension's headline experiment: the same search is
//! run fault-free and then under a grid of deterministic
//! [`FaultPlan`]s — message drop probabilities crossed with scheduled
//! rank deaths — through the checkpoint/recover engine
//! ([`bfs_core::bfs2d::run_resilient`]). Every faulty run is checked
//! bit-identical to the fault-free levels, then the table reports what
//! the faults cost:
//!
//! * **slowdown** — simulated time relative to the fault-free run
//!   (retransmissions, backoff, rollback + replayed levels);
//! * **retransmissions / drops** — protocol work injected by the plan;
//! * **recoveries / recovery time** — rank deaths survived and the
//!   simulated time spent inside recovery itself.
//!
//! Flags: `--n 20000` `--k 6` `--rows 4` `--cols 4`
//! `--drops 0,5,10,20` (percent) `--deaths 0,1,2` `--seed 42`
//! `--fault-seed 7` `--csv out.csv`

use bfs_core::{bfs2d, BfsConfig, ResilientConfig};
use bgl_bench::exp;
use bgl_bench::harness::{Args, Table};
use bgl_comm::{FaultPlan, ProcessorGrid, SimWorld};
use bgl_graph::GraphSpec;

const HELP: &str = "\
resilience_sweep — BFS slowdown under injected faults (drop rate x dead ranks)
  --n <u64>        vertices (default 20000)
  --k <f64>        average degree (default 6)
  --rows <usize>   grid rows (default 4)
  --cols <usize>   grid cols (default 4)
  --drops <list>   message drop probabilities in percent (default 0,5,10,20)
  --deaths <list>  scheduled rank-death counts (default 0,1,2)
  --seed <u64>     graph seed (default 42)
  --fault-seed <u64>  fault schedule seed (default 7)
  --csv <path>     also write CSV
";

/// A fault plan with `deaths` rank deaths spread over ranks and rounds,
/// on top of a uniform drop probability.
fn plan_for(fault_seed: u64, drop_pct: u64, deaths: u64, p: usize) -> FaultPlan {
    let mut plan = FaultPlan::seeded(fault_seed).with_drop_prob(drop_pct as f64 / 100.0);
    for i in 0..deaths {
        // Distinct victims, staggered rounds: deaths hit different
        // levels of the search.
        let victim = ((i * 2 + 1) * p as u64 / (deaths * 2)) as usize % p;
        plan = plan.kill_rank_at(victim, 2 + 3 * i);
    }
    plan
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let n = args.u64("n", 20_000);
    let k = args.f64("k", 6.0);
    let grid = ProcessorGrid::new(args.usize("rows", 4), args.usize("cols", 4));
    let drops = args.u64_list("drops", &[0, 5, 10, 20]);
    let deaths = args.u64_list("deaths", &[0, 1, 2]);
    let seed = args.u64("seed", 42);
    let fault_seed = args.u64("fault-seed", 7);
    let source = 1u64.min(n - 1);

    let spec = GraphSpec::poisson(n, k, seed);
    let (graph, mut world) = exp::build(spec, grid);
    let config = BfsConfig::paper_optimized();
    let baseline = bfs2d::try_run(&graph, &mut world, &config, source)?;
    println!(
        "baseline: n = {n}, k = {k}, {}x{} grid — {:.3} ms simulated, {} levels\n",
        grid.rows(),
        grid.cols(),
        baseline.stats.sim_time * 1e3,
        baseline.stats.num_levels()
    );

    let mut table = Table::new(
        "resilience sweep (every cell verified bit-identical to the fault-free levels)",
        &[
            "drop%",
            "deaths",
            "sim ms",
            "slowdown",
            "retrans",
            "drops",
            "recoveries",
            "recovery ms",
        ],
    );

    for &drop_pct in &drops {
        for &death_count in &deaths {
            let plan = plan_for(fault_seed, drop_pct, death_count, grid.len());
            let mut w = SimWorld::bluegene(grid).with_fault_plan(plan);
            let got =
                bfs2d::run_resilient(&graph, &mut w, &config, source, &ResilientConfig::default())
                    .expect("sweep cell must recover");
            assert_eq!(
                got.result.levels, baseline.levels,
                "faulty run must be bit-identical (drop {drop_pct}%, deaths {death_count})"
            );
            let f = &got.result.stats.comm.faults;
            table.push(vec![
                drop_pct.to_string(),
                death_count.to_string(),
                format!("{:.3}", got.result.stats.sim_time * 1e3),
                format!(
                    "{:.2}x",
                    got.result.stats.sim_time / baseline.stats.sim_time
                ),
                f.retransmissions.to_string(),
                f.drops_injected.to_string(),
                got.recoveries.to_string(),
                format!("{:.3}", got.recovery_time * 1e3),
            ]);
        }
    }

    table.emit(args.str("csv"));
    Ok(())
}
