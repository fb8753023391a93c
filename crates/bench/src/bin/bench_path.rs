//! Evidence for the lane-masked batched path walk: runs one BFS to get
//! a level array, then extracts batches of shortest paths two ways —
//! the batched `path::try_multi` wave versus one standalone `try_extract_path`
//! per target on fresh worlds — across a sweep of batch widths. Writes
//! `BENCH_path.json`.
//!
//! With `--check` the binary exits non-zero when the numbers miss the
//! PR's acceptance floors (CI smoke; the gates read simulated clocks
//! and deterministic counters — no wall time, so the step is stable on
//! slow runners):
//!
//! * every lane of the B=16 batched walk is byte-identical to its
//!   standalone `try_extract_path`;
//! * the batched walk's simulated time at B=16 is ≥ 2× cheaper than the
//!   16 sequential extractions it replaces;
//! * the walk executes exactly three control rounds per hop, and hop
//!   count equals the deepest target's level.
//!
//! ```text
//! cargo run --release -p bgl-bench --bin bench_path [-- --check]
//! ```

use bfs_core::{bfs2d, path, BfsConfig};
use bgl_bench::harness::{write_report, Args};
use bgl_comm::{ProcessorGrid, SimWorld, WirePolicy};
use bgl_graph::{DistGraph, GraphSpec, Vertex};
use bgl_trace::json::{self, Fixed};

const HELP: &str = "\
bench_path — batched shortest-path extraction benchmark

Writes BENCH_path.json (override with --out).

Flags:
  --n N           vertices in the benchmark graph (default 60000)
  --degree K      mean degree (default 16)
  --graph G       rmat | poisson (default rmat)
  --seed S        generator seed (default 4242)
  --rows R        processor grid rows (default 8)
  --cols C        processor grid cols (default 8)
  --source V      BFS root the level array is built from (default 0)
  --widths LIST   batch widths to sweep (default 1,4,16,64)
  --out PATH      output path (default BENCH_path.json)
  --check         exit non-zero if acceptance floors are missed (CI)
";

/// Batched-over-sequential simulated-time floor checked by `--check`.
const MIN_SPEEDUP: f64 = 2.0;
/// The sweep width the gates read.
const GATE_WIDTH: usize = 16;

struct SweepRun {
    width: usize,
    hops: u32,
    rounds: u64,
    batched_sim_s: f64,
    sequential_sim_s: f64,
    speedup: f64,
    identical: bool,
}

/// Deterministic target pool: reached vertices at strictly positive
/// level, deepest first (ties by id), then strided so a small batch
/// still spans a range of depths and owner columns.
fn target_pool(levels: &[u32], want: usize) -> Vec<Vertex> {
    let unreached = u32::MAX;
    let mut reached: Vec<Vertex> = (0..levels.len() as u64)
        .filter(|&v| levels[v as usize] != unreached && levels[v as usize] > 0)
        .collect();
    reached.sort_by_key(|&v| (std::cmp::Reverse(levels[v as usize]), v));
    let stride = (reached.len() / want.max(1)).max(1);
    reached.into_iter().step_by(stride).take(want).collect()
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
    let source = args.u64("source", 0);
    let widths: Vec<usize> = args
        .u64_list("widths", &[1, 4, 16, 64])
        .into_iter()
        .map(|w| w as usize)
        .collect();
    let out = args.str("out").unwrap_or("BENCH_path.json").to_string();
    let check = args.bool("check", false);
    let kind = args.str("graph").unwrap_or("rmat");

    let spec = match kind {
        "rmat" => GraphSpec::rmat(n, degree, seed),
        "poisson" => GraphSpec::poisson(n, degree, seed),
        other => panic!("--graph: {other:?} (expected rmat or poisson)"),
    };
    let grid = ProcessorGrid::new(rows, cols);
    eprintln!("path workload: {kind} n={n} degree={degree} grid {rows}x{cols} source {source}");
    let graph = DistGraph::build(spec, grid);
    let wire = WirePolicy::auto();

    // One BFS supplies the level array every extraction reads — the
    // serving-layer shape, where Path queries hit a cached array.
    let mut bfs_world = SimWorld::bluegene(grid).with_wire_policy(wire);
    let bfs = bfs2d::try_run(
        &graph,
        &mut bfs_world,
        &BfsConfig::paper_optimized(),
        source,
    )?;
    let levels = &bfs.levels;
    let max_width = widths.iter().copied().max().unwrap_or(GATE_WIDTH);
    let pool = target_pool(levels, max_width.max(GATE_WIDTH));
    assert!(
        !pool.is_empty(),
        "BFS from {source} reached nothing; pick a connected source"
    );
    let deepest = levels[pool[0] as usize];
    eprintln!(
        "  level array ready: {} candidate targets, deepest at level {deepest}",
        pool.len()
    );

    let mut sweep: Vec<SweepRun> = Vec::new();
    for &width in &widths {
        let targets: Vec<Vertex> = pool.iter().copied().take(width).collect();
        if targets.is_empty() {
            continue;
        }

        // Batched: one wave, all targets as lanes, one shared world.
        let mut bworld = SimWorld::bluegene(grid).with_wire_policy(wire);
        let batched = path::try_multi(&graph, &mut bworld, levels, source, &targets)?;

        // Sequential baseline: one fresh world per target, the
        // pre-batching serving cost of the same queries.
        let mut sequential_sim_s = 0.0;
        let mut identical = true;
        for (lane, &t) in targets.iter().enumerate() {
            let mut sworld = SimWorld::bluegene(grid).with_wire_policy(wire);
            let single = path::try_extract_path(&graph, &mut sworld, levels, source, t)?;
            sequential_sim_s += sworld.time();
            if batched.paths[lane] != single {
                eprintln!("  lane {lane} (target {t}) diverged from try_extract_path");
                identical = false;
            }
        }
        let speedup = if batched.sim_time > 0.0 {
            sequential_sim_s / batched.sim_time
        } else {
            0.0
        };
        eprintln!(
            "  B={width:<3} {} hops, {} rounds, batched {:>8.3} ms vs sequential {:>8.3} ms \
             ({speedup:.2}x), identical: {identical}",
            batched.hops,
            batched.rounds,
            batched.sim_time * 1e3,
            sequential_sim_s * 1e3
        );
        sweep.push(SweepRun {
            width: targets.len(),
            hops: batched.hops,
            rounds: batched.rounds,
            batched_sim_s: batched.sim_time,
            sequential_sim_s,
            speedup,
            identical,
        });
    }

    let gate = sweep.iter().find(|r| r.width == GATE_WIDTH);
    let gate_speedup = gate.map_or(0.0, |r| r.speedup);
    let gate_identical = gate.is_some_and(|r| r.identical);
    let gate_rounds_ok = gate.is_some_and(|r| r.rounds == 3 * u64::from(r.hops));
    let gate_depth_ok = gate.is_some_and(|r| {
        let deepest_in_batch = pool
            .iter()
            .take(GATE_WIDTH)
            .map(|&t| levels[t as usize])
            .max()
            .unwrap_or(0);
        r.hops == deepest_in_batch
    });
    eprintln!("  batched B={GATE_WIDTH} vs sequential simulated time: {gate_speedup:.2}x");

    let doc = json::pretty(|w| {
        w.key("graph").obj(|w| {
            w.field("kind", kind)
                .field("n", n)
                .field("degree", degree)
                .field("seed", seed)
                .field("grid", format!("{rows}x{cols}"));
        });
        w.field("source", source)
            .field("deepest_target_level", deepest)
            .key("sweep")
            .arr(|w| {
                for r in &sweep {
                    w.obj(|w| {
                        w.field("batch_width", r.width)
                            .field("hops", r.hops)
                            .field("rounds", r.rounds)
                            .field("batched_sim_ms", Fixed(r.batched_sim_s * 1e3, 6))
                            .field("sequential_sim_ms", Fixed(r.sequential_sim_s * 1e3, 6))
                            .field("speedup", Fixed(r.speedup, 3))
                            .field("identical", r.identical);
                    });
                }
            })
            .field("gate_width", GATE_WIDTH)
            .field("gate_speedup", Fixed(gate_speedup, 3))
            .field("gate_identical", gate_identical);
    });
    write_report(&out, &doc)?;

    if check {
        let mut failed = false;
        if gate.is_none() {
            eprintln!("FAIL: the sweep never ran B={GATE_WIDTH} (check --widths)");
            failed = true;
        }
        if !gate_identical {
            eprintln!("FAIL: a batched lane differs from its standalone try_extract_path");
            failed = true;
        }
        if gate_speedup < MIN_SPEEDUP {
            eprintln!(
                "FAIL: B={GATE_WIDTH} batched walk {gate_speedup:.2}x over sequential is below \
                 the {MIN_SPEEDUP}x floor"
            );
            failed = true;
        }
        if !gate_rounds_ok {
            eprintln!("FAIL: walk did not spend exactly three control rounds per hop");
            failed = true;
        }
        if !gate_depth_ok {
            eprintln!("FAIL: hop count does not match the deepest target's level");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed");
    }
    Ok(())
}
