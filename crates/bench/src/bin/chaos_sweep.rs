//! Chaos sweep — randomized fault schedules fuzzed across the
//! wire-codec matrix, with differential and Graph500-style checks.
//!
//! Each cell draws a deterministic [`ChaosSpec`] from a fault seed
//! (scheduled rank deaths — at most one per parity group — plus
//! randomized drop/truncate/duplicate probabilities), then runs the
//! parity-group checkpoint/recover engine
//! ([`bfs_core::bfs2d::run_resilient`]) under every requested wire
//! codec. Every surviving run is checked three ways:
//!
//! * **differential** — levels bit-identical to the fault-free
//!   reference run (and therefore to every sibling cell);
//! * **validated** — the Graph500-style invariants of
//!   [`bfs_core::validate`] hold (rooted tree, tree edges exist,
//!   neighbor levels differ by at most one, unreached means
//!   disconnected);
//! * **parity-recovered** — with at most one death per group the
//!   engine must reconstruct from parity, never fall back to a
//!   degraded full restart.
//!
//! Writes `BENCH_resilience.json`. With `--check` the binary exits
//! non-zero when any cell dies, diverges, fails validation, or
//! degrades (CI gate).
//!
//! ```text
//! cargo run --release -p bgl-bench --bin chaos_sweep [-- --check]
//! ```

use bfs_core::{bfs2d, validate, BfsConfig, ResilientConfig};
use bgl_bench::harness::{write_report, Args, Table};
use bgl_comm::{ChaosSpec, FaultPlan, ProcessorGrid, SimWorld, WireMode, WirePolicy};
use bgl_graph::{DistGraph, GraphSpec};
use bgl_trace::json::{self, Fixed};

const HELP: &str = "\
chaos_sweep — randomized fault schedules x {wire codec}, differentially checked

Writes BENCH_resilience.json (override with --out).

Flags:
  --n N            vertices in the sweep graph (default 8000)
  --k K            mean degree (default 6)
  --rows R         processor grid rows (default 2)
  --cols C         processor grid cols (default 4)
  --seed S         graph seed (default 42)
  --group G        parity-group size (default 4)
  --fault-seeds L  comma-separated chaos seeds (default 1,2,3,4,5)
  --wires L        comma-separated wire modes (default raw,auto)
  --out PATH       output path (default BENCH_resilience.json)
  --check          exit non-zero unless every cell recovers bit-identically,
                   validates, and never needs a degraded restart (CI)
";

/// One sweep cell's outcome, ready for the table and the JSON dump.
struct Cell {
    fault_seed: u64,
    wire: WireMode,
    deaths: usize,
    outcome: Result<CellStats, String>,
}

/// Counters recorded for a surviving cell.
struct CellStats {
    recoveries: u32,
    degraded_restarts: u32,
    retransmissions: u64,
    drops: u64,
    sim_ms: f64,
    recovery_ms: f64,
    bit_identical: bool,
    validated: bool,
}

impl Cell {
    /// Whether this cell clears the `--check` gate.
    fn passes(&self) -> bool {
        match &self.outcome {
            Ok(s) => s.bit_identical && s.validated && s.degraded_restarts == 0,
            Err(_) => false,
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let n = args.u64("n", 8_000);
    let k = args.f64("k", 6.0);
    let grid = ProcessorGrid::new(args.usize("rows", 2), args.usize("cols", 4));
    let seed = args.u64("seed", 42);
    let group = args.usize("group", 4);
    let fault_seeds = args.u64_list("fault-seeds", &[1, 2, 3, 4, 5]);
    let wires: Vec<WireMode> = args
        .str("wires")
        .unwrap_or("raw,auto")
        .split(',')
        .map(|s| {
            WireMode::parse(s.trim())
                .unwrap_or_else(|| panic!("--wires: {s:?} (expected auto, raw, delta, or bitmap)"))
        })
        .collect();
    let out = args
        .str("out")
        .unwrap_or("BENCH_resilience.json")
        .to_string();
    let check = args.bool("check", false);
    let source = 0u64;

    let spec = GraphSpec::poisson(n, k, seed);
    let graph = DistGraph::build(spec, grid);
    let mut world = SimWorld::bluegene(grid);
    let config = BfsConfig::paper_optimized();
    let baseline = bfs2d::try_run(&graph, &mut world, &config, source)?;
    println!(
        "chaos sweep: n = {n}, k = {k}, {}x{} grid, parity groups of {group} — \
         fault-free reference: {} levels, {:.3} ms simulated",
        grid.rows(),
        grid.cols(),
        baseline.stats.num_levels(),
        baseline.stats.sim_time * 1e3
    );

    let resilient = ResilientConfig {
        parity_group_size: group,
        ..ResilientConfig::default()
    };
    let mut cells: Vec<Cell> = Vec::new();
    for &fault_seed in &fault_seeds {
        let chaos = ChaosSpec::moderate(fault_seed, grid.len(), group);
        let plan = FaultPlan::chaos(&chaos);
        let deaths = plan.deaths().len();
        for &wire in &wires {
            let mut w = SimWorld::bluegene(grid)
                .with_fault_plan(plan.clone())
                .with_wire_policy(WirePolicy::with_mode(wire));
            let outcome = match bfs2d::run_resilient(&graph, &mut w, &config, source, &resilient) {
                Ok(res) => {
                    let f = &res.result.stats.comm.faults;
                    Ok(CellStats {
                        recoveries: res.recoveries,
                        degraded_restarts: res.degraded_restarts,
                        retransmissions: f.retransmissions,
                        drops: f.drops_injected,
                        sim_ms: res.result.stats.sim_time * 1e3,
                        recovery_ms: res.recovery_time * 1e3,
                        bit_identical: res.result.levels == baseline.levels,
                        validated: validate::validate_against_spec(
                            &spec,
                            &res.result.levels,
                            source,
                        )
                        .is_ok(),
                    })
                }
                Err(e) => Err(e.to_string()),
            };
            cells.push(Cell {
                fault_seed,
                wire,
                deaths,
                outcome,
            });
        }
    }

    let mut table = Table::new(
        "chaos sweep (differential vs fault-free + Graph500-style validation)",
        &[
            "fseed", "wire", "deaths", "recov", "degrade", "retrans", "sim ms", "status",
        ],
    );
    for c in &cells {
        let (recov, degrade, retrans, sim_ms, status) = match &c.outcome {
            Ok(s) => (
                s.recoveries.to_string(),
                s.degraded_restarts.to_string(),
                s.retransmissions.to_string(),
                format!("{:.3}", s.sim_ms),
                match (s.bit_identical, s.validated) {
                    (true, true) => "ok".to_string(),
                    (false, _) => "DIVERGED".to_string(),
                    (_, false) => "INVALID".to_string(),
                },
            ),
            Err(e) => (
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                format!("ERR {e}"),
            ),
        };
        table.push(vec![
            c.fault_seed.to_string(),
            c.wire.name().to_string(),
            c.deaths.to_string(),
            recov,
            degrade,
            retrans,
            sim_ms,
            status,
        ]);
    }
    table.emit(args.str("csv"));

    let failures = cells.iter().filter(|c| !c.passes()).count();

    let doc = json::pretty(|w| {
        w.key("graph").obj(|w| {
            w.field("n", n)
                .field("degree", k)
                .field("grid", format!("{}x{}", grid.rows(), grid.cols()))
                .field("seed", seed);
        });
        w.field("parity_group_size", group)
            .field("baseline_sim_ms", Fixed(baseline.stats.sim_time * 1e3, 3))
            .key("cells")
            .arr(|w| {
                for c in &cells {
                    w.obj(|w| {
                        w.field("fault_seed", c.fault_seed)
                            .field("wire", c.wire.name())
                            .field("deaths", c.deaths);
                        match &c.outcome {
                            Ok(s) => {
                                w.field("recoveries", s.recoveries)
                                    .field("degraded_restarts", s.degraded_restarts)
                                    .field("retransmissions", s.retransmissions)
                                    .field("drops", s.drops)
                                    .field("sim_ms", Fixed(s.sim_ms, 3))
                                    .field("recovery_ms", Fixed(s.recovery_ms, 3))
                                    .field("bit_identical", s.bit_identical)
                                    .field("validated", s.validated);
                            }
                            Err(e) => {
                                w.field("error", e);
                            }
                        }
                    });
                }
            })
            .field("cells_total", cells.len())
            .field("failures", failures);
    });
    write_report(&out, &doc)?;

    if check {
        if failures > 0 {
            eprintln!(
                "FAIL: {failures} of {} chaos cells died, diverged, failed validation, \
                 or needed a degraded restart",
                cells.len()
            );
            std::process::exit(1);
        }
        println!(
            "check passed: {} cells recovered bit-identically",
            cells.len()
        );
    }
    Ok(())
}
