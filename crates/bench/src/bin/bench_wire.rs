//! Host-side evidence for the wire-codec PR: measures how many bytes
//! the adaptive codec takes off the simulated torus links, what that
//! does to simulated BFS time, and what the rayon-parallel superstep
//! scheduler does to host wall-clock. Writes `BENCH_wire.json`.
//!
//! With `--check` the binary exits non-zero when the numbers miss the
//! PR's acceptance floors (CI smoke):
//!
//! * wire compression ratio on the default Poisson graph ≥ 1.5× —
//!   deterministic, checked unconditionally;
//! * N-worker over 1-worker superstep speedup ≥ 1.2× — wall-clock, only checked when
//!   the host really has ≥ 4 cores (a 1-core runner cannot speed up).
//!
//! ```text
//! cargo run --release -p bgl-bench --bin bench_wire [-- --check]
//! ```

use bfs_core::{bfs2d, BfsConfig};
use bgl_bench::exp;
use bgl_bench::harness::{write_report, Args};
use bgl_comm::{CommError, ProcessorGrid, SimWorld, WireMode, WirePolicy};
use bgl_graph::{DistGraph, GraphSpec};
use bgl_trace::json::{self, Fixed};
use std::time::Instant;

const HELP: &str = "\
bench_wire — wire-codec compression and parallel-superstep benchmark

Writes BENCH_wire.json (override with --out).

Flags:
  --n N          vertices in the benchmark graph (default 60000)
  --degree K     mean degree (default 10)
  --rows R       processor grid rows (default 8)
  --cols C       processor grid cols (default 8)
  --reps N       wall-clock timing repetitions, best-of (default 5)
  --engine-threads N  rayon worker threads (default: max(4, host cores))
  --out PATH     output path (default BENCH_wire.json)
  --check        exit non-zero if acceptance floors are missed (CI)
";

/// Compression floor checked unconditionally (deterministic).
const MIN_COMPRESSION: f64 = 1.5;
/// Speedup floor checked only on hosts with at least this many cores.
const MIN_SPEEDUP: f64 = 1.2;
const SPEEDUP_MIN_CORES: usize = 4;

/// One simulated run under `mode`; returns (logical, wire, sim_time,
/// codec_time).
fn coded_run(graph: &DistGraph, mode: WireMode) -> Result<(u64, u64, f64, f64), CommError> {
    let mut world = SimWorld::bluegene(graph.grid()).with_wire_policy(WirePolicy::with_mode(mode));
    let r = bfs2d::try_run(graph, &mut world, &BfsConfig::paper_optimized(), 0)?;
    Ok((
        r.stats.comm.total_logical_bytes(),
        r.stats.comm.total_wire_bytes(),
        r.stats.sim_time,
        r.stats.codec_time,
    ))
}

/// Best-of-`reps` host wall-clock seconds for a full coded run on
/// `workers` host threads (1 = the sequential reference).
fn time_engine(graph: &DistGraph, workers: usize, reps: u64) -> Result<f64, CommError> {
    let config = BfsConfig::paper_optimized();
    rayon::with_worker_threads(workers, || {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let mut world = SimWorld::bluegene(graph.grid()).with_wire_policy(WirePolicy::auto());
            let start = Instant::now();
            let r = bfs2d::try_run(graph, &mut world, &config, 0)?;
            best = best.min(start.elapsed().as_secs_f64());
            std::hint::black_box(r.stats.sim_time);
        }
        Ok(best)
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let n = args.u64("n", 60_000);
    let degree = args.f64("degree", 10.0);
    let rows = args.u64("rows", 8) as usize;
    let cols = args.u64("cols", 8) as usize;
    let reps = args.u64("reps", 5).max(1);
    let out = args.str("out").unwrap_or("BENCH_wire.json").to_string();
    let check = args.bool("check", false);

    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    if args.str("engine-threads").is_some() {
        exp::apply_engine_threads(&args);
    } else {
        rayon::set_worker_threads(host_threads.max(4));
    }
    let engine_threads = rayon::current_num_threads();

    let grid = ProcessorGrid::new(rows, cols);
    let spec = GraphSpec::poisson(n, degree, 4242);
    let graph = DistGraph::build(spec, grid);

    // --- Compression: every codec mode over the same search. ----------
    eprintln!("wire codec: n={n} degree={degree} grid {rows}x{cols}");
    let modes = [
        WireMode::Raw,
        WireMode::Delta,
        WireMode::Bitmap,
        WireMode::Auto,
    ];
    let mut per_mode = Vec::new();
    for mode in modes {
        let (logical, wire, sim_s, codec_s) = coded_run(&graph, mode)?;
        let ratio = if wire == 0 {
            1.0
        } else {
            logical as f64 / wire as f64
        };
        eprintln!(
            "  {:<6} {:>8.2} MB on the wire ({ratio:>5.2}x), sim {:>7.3} ms ({:.3} ms codec)",
            mode.name(),
            wire as f64 / 1e6,
            sim_s * 1e3,
            codec_s * 1e3
        );
        per_mode.push((mode, logical, wire, ratio, sim_s, codec_s));
    }
    let auto = per_mode[3];
    let raw = per_mode[0];
    let compression = auto.3;
    let sim_speedup = raw.4 / auto.4;
    eprintln!("  auto codec: {compression:.2}x fewer bytes, {sim_speedup:.2}x simulated speedup");

    // --- Superstep scheduler: 1 worker vs N workers, host wall-clock. -
    eprintln!("engine: {host_threads} host cores, {engine_threads} worker threads");
    let serial_s = time_engine(&graph, 1, reps)?;
    let rayon_s = time_engine(&graph, engine_threads, reps)?;
    let engine_speedup = serial_s / rayon_s;
    eprintln!("  1 worker   {:>9.1} ms", serial_s * 1e3);
    eprintln!(
        "  {engine_threads} workers  {:>9.1} ms   ({engine_speedup:.2}x)",
        rayon_s * 1e3
    );

    let doc = json::pretty(|w| {
        w.key("graph").obj(|w| {
            w.field("n", n)
                .field("degree", degree)
                .field("grid", format!("{rows}x{cols}"));
        });
        w.key("wire").obj(|w| {
            for (mode, logical, wire, ratio, sim_s, codec_s) in &per_mode {
                w.key(mode.name()).obj(|w| {
                    w.field("logical_bytes", *logical)
                        .field("wire_bytes", *wire)
                        .field("compression_ratio", Fixed(*ratio, 3))
                        .field("sim_ms", Fixed(sim_s * 1e3, 3))
                        .field("codec_ms", Fixed(codec_s * 1e3, 3));
                });
            }
        });
        w.field("compression_ratio", Fixed(compression, 3))
            .field("sim_speedup_auto_vs_raw", Fixed(sim_speedup, 3));
        w.key("superstep_engine").obj(|w| {
            w.field("host_threads", host_threads)
                .field("engine_threads", engine_threads)
                .field("serial_ms", Fixed(serial_s * 1e3, 3))
                .field("rayon_ms", Fixed(rayon_s * 1e3, 3))
                .field("rayon_speedup", Fixed(engine_speedup, 3));
        });
    });
    write_report(&out, &doc)?;

    if check {
        let mut failed = false;
        if compression < MIN_COMPRESSION {
            eprintln!(
                "FAIL: wire compression {compression:.2}x below the {MIN_COMPRESSION}x floor"
            );
            failed = true;
        }
        if host_threads >= SPEEDUP_MIN_CORES {
            if engine_speedup < MIN_SPEEDUP {
                eprintln!(
                    "FAIL: rayon speedup {engine_speedup:.2}x below the {MIN_SPEEDUP}x floor \
                     on a {host_threads}-core host"
                );
                failed = true;
            }
        } else {
            eprintln!(
                "note: speedup gate skipped ({host_threads} host cores < {SPEEDUP_MIN_CORES})"
            );
        }
        if failed {
            std::process::exit(1);
        }
        println!("check passed");
    }
    Ok(())
}
