//! Evidence for the direction-optimizing BFS PR: runs the same search
//! pure top-down and with the adaptive Beamer-style direction switch,
//! and reports the hash-probe and simulated-time savings. Writes
//! `BENCH_dirop.json`.
//!
//! With `--check` the binary exits non-zero when the numbers miss the
//! PR's acceptance floors (CI smoke; every gate is deterministic — no
//! wall-clock is measured, so the step is stable on slow runners):
//!
//! * per-vertex levels bit-identical between the two modes and the
//!   Graph500 validator passes on both;
//! * at least one level actually runs bottom-up;
//! * total hash probes reduced ≥ 2×;
//! * simulated time reduced (ratio > 1).
//!
//! ```text
//! cargo run --release -p bgl-bench --bin bench_dirop [-- --check]
//! ```

use bfs_core::{bfs2d, validate, BfsConfig};
use bgl_bench::harness::{write_report, Args};
use bgl_comm::{CommError, ProcessorGrid, SimWorld, WirePolicy};
use bgl_graph::{DistGraph, GraphSpec};
use bgl_trace::json::{self, Fixed};

const HELP: &str = "\
bench_dirop — direction-optimizing BFS probe/time savings benchmark

Writes BENCH_dirop.json (override with --out).

Flags:
  --n N          vertices in the benchmark graph (default 60000)
  --degree K     mean degree (default 16)
  --graph G      rmat | poisson (default rmat — the low-diameter
                 scale-free shape the direction switch targets)
  --seed S       generator seed (default 4242)
  --rows R       processor grid rows (default 8)
  --cols C       processor grid cols (default 8)
  --source V     BFS source vertex (default 0)
  --out PATH     output path (default BENCH_dirop.json)
  --check        exit non-zero if acceptance floors are missed (CI)
";

/// Probe-reduction floor checked by `--check` (deterministic).
const MIN_PROBE_RATIO: f64 = 2.0;

struct ModeRun {
    name: &'static str,
    probes: u64,
    sim_s: f64,
    comm_s: f64,
    bu_levels: usize,
    levels: Vec<u32>,
    stats: bfs_core::RunStats,
}

/// One simulated run; both modes go through the auto wire codec so the
/// bottom-up frontier gather rides bitmap frames where dense.
fn mode_run(
    graph: &DistGraph,
    config: &BfsConfig,
    name: &'static str,
    source: u64,
) -> Result<ModeRun, CommError> {
    let mut world = SimWorld::bluegene(graph.grid()).with_wire_policy(WirePolicy::auto());
    let r = bfs2d::try_run(graph, &mut world, config, source)?;
    let (_, bu) = r.stats.direction_split();
    Ok(ModeRun {
        name,
        probes: r.stats.total_probes(),
        sim_s: r.stats.sim_time,
        comm_s: r.stats.comm_time,
        bu_levels: bu,
        levels: r.levels,
        stats: r.stats,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let n = args.u64("n", 60_000);
    let degree = args.f64("degree", 16.0);
    let seed = args.u64("seed", 4242);
    let rows = args.u64("rows", 8) as usize;
    let cols = args.u64("cols", 8) as usize;
    let source = args.u64("source", 0).min(n - 1);
    let out = args.str("out").unwrap_or("BENCH_dirop.json").to_string();
    let check = args.bool("check", false);
    let kind = args.str("graph").unwrap_or("rmat");

    let spec = match kind {
        "rmat" => GraphSpec::rmat(n, degree, seed),
        "poisson" => GraphSpec::poisson(n, degree, seed),
        other => panic!("--graph: {other:?} (expected rmat or poisson)"),
    };
    let grid = ProcessorGrid::new(rows, cols);
    eprintln!("direction-optimizing BFS: {kind} n={n} degree={degree} grid {rows}x{cols}");
    let graph = DistGraph::build(spec, grid);

    let td = mode_run(&graph, &BfsConfig::paper_optimized(), "top_down", source)?;
    let adaptive = mode_run(
        &graph,
        &BfsConfig::direction_optimized(),
        "adaptive",
        source,
    )?;

    let levels_identical = td.levels == adaptive.levels;
    let probe_ratio = if adaptive.probes == 0 {
        f64::INFINITY
    } else {
        td.probes as f64 / adaptive.probes as f64
    };
    let sim_ratio = if adaptive.sim_s == 0.0 {
        f64::INFINITY
    } else {
        td.sim_s / adaptive.sim_s
    };
    let validated: Vec<(&str, bool)> = [&td, &adaptive]
        .iter()
        .map(|m| {
            (
                m.name,
                validate::validate_against_spec(&spec, &m.levels, source).is_ok(),
            )
        })
        .collect();

    for m in [&td, &adaptive] {
        eprintln!(
            "  {:<9} {:>12} probes, sim {:>7.3} ms ({:>6.3} ms comm), {} bottom-up levels",
            m.name,
            m.probes,
            m.sim_s * 1e3,
            m.comm_s * 1e3,
            m.bu_levels
        );
    }
    eprintln!(
        "  probes {probe_ratio:.2}x fewer, sim time {sim_ratio:.2}x faster, levels identical: \
         {levels_identical}"
    );
    eprintln!("  per-level directions (adaptive):");
    for l in &adaptive.stats.levels {
        eprintln!(
            "    level {:>2} {:<2} frontier {:>8}  td_probes {:>10}  bu_probes {:>10}",
            l.level,
            l.direction.label(),
            l.frontier,
            l.td_probes,
            l.bu_probes
        );
    }

    let doc = json::pretty(|w| {
        w.key("graph").obj(|w| {
            w.field("kind", kind)
                .field("n", n)
                .field("degree", degree)
                .field("seed", seed)
                .field("grid", format!("{rows}x{cols}"));
        });
        for (m, (_, ok)) in [&td, &adaptive].iter().zip(&validated) {
            w.key(m.name).obj(|w| {
                w.field("total_probes", m.probes)
                    .field("sim_ms", Fixed(m.sim_s * 1e3, 3))
                    .field("comm_ms", Fixed(m.comm_s * 1e3, 3))
                    .field("bottom_up_levels", m.bu_levels)
                    .field("validated", *ok)
                    .key("directions")
                    .values(m.stats.levels.iter().map(|l| l.direction.label()))
                    .key("frontiers")
                    .values(m.stats.levels.iter().map(|l| l.frontier));
            });
        }
        w.field("probe_ratio", Fixed(probe_ratio, 3))
            .field("sim_time_ratio", Fixed(sim_ratio, 3))
            .field("levels_identical", levels_identical);
    });
    write_report(&out, &doc)?;

    if check {
        let mut failed = false;
        if !levels_identical {
            eprintln!("FAIL: adaptive levels differ from pure top-down");
            failed = true;
        }
        for (name, ok) in &validated {
            if !ok {
                eprintln!("FAIL: {name} levels failed Graph500-style validation");
                failed = true;
            }
        }
        if adaptive.bu_levels == 0 {
            eprintln!("FAIL: the adaptive run never switched to bottom-up");
            failed = true;
        }
        if probe_ratio < MIN_PROBE_RATIO {
            eprintln!("FAIL: probe reduction {probe_ratio:.2}x below the {MIN_PROBE_RATIO}x floor");
            failed = true;
        }
        if sim_ratio <= 1.0 {
            eprintln!("FAIL: adaptive simulated time is not faster ({sim_ratio:.2}x)");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed");
    }
    Ok(())
}
