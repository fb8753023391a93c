//! Host-side performance check for the hybrid-frontier PR: measures
//! list vs bitmap union-fold throughput and 1-worker vs N-worker
//! superstep wall-clock, and writes the numbers to `BENCH_setops.json`.
//!
//! Unlike the figure binaries this measures *host* wall-clock, not
//! simulated BlueGene/L time — it is the evidence that the hybrid
//! representation and the parallel engine actually pay for themselves
//! on the machine running the simulator.
//!
//! ```text
//! cargo run --release -p bgl-bench --bin bench_setops
//! ```

use bfs_core::{bfs2d, BfsConfig};
use bgl_bench::exp;
use bgl_bench::harness::Args;
use bgl_comm::{CommError, ProcessorGrid, SimWorld, Vert, VertSet, VsetPolicy};
use bgl_graph::{DistGraph, GraphSpec};
use std::fmt::Write as _;
use std::time::Instant;

const HELP: &str = "\
bench_setops — hybrid set-kernel and engine wall-clock benchmark

Writes BENCH_setops.json (override with --out).

Flags:
  --span N       slot range of the synthetic union payloads (default 65536)
  --blocks N     overlapping blocks accumulated per union run (default 16)
  --reps N       timing repetitions, best-of (default 5)
  --n N          vertices in the engine benchmark graph (default 60000)
  --degree K     mean degree of the engine benchmark graph (default 8)
  --rows R       processor grid rows (default 8)
  --cols C       processor grid cols (default 8)
  --engine-threads N  rayon worker threads (default: max(4, host cores))
  --out PATH     output path (default BENCH_setops.json)
";

/// Overlapping sorted payloads: block `b` takes every third slot of the
/// span at phase `b % 3`, so consecutive unions are duplicate-heavy —
/// the shape the reduce-scatter fold sees on dense BFS levels.
fn dense_blocks(blocks: u64, span: u64) -> Vec<Vec<Vert>> {
    (0..blocks)
        .map(|b| (0..span).filter(|v| (v + b) % 3 == 0).collect())
        .collect()
}

/// Best-of-`reps` seconds to accumulate every block into one set.
fn time_union(blocks: &[Vec<Vert>], policy: &VsetPolicy, reps: u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        let mut acc = VertSet::new();
        for b in blocks {
            std::hint::black_box(acc.union_in(b, policy));
        }
        std::hint::black_box(acc.len());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Best-of-`reps` wall-clock seconds for a full bfs2d run on `workers`
/// host threads (1 = the sequential reference).
fn time_engine(graph: &DistGraph, workers: usize, reps: u64) -> Result<f64, CommError> {
    let config = BfsConfig::paper_optimized();
    rayon::with_worker_threads(workers, || {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let mut world = SimWorld::bluegene(graph.grid());
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
    let span = args.u64("span", 1 << 16);
    let blocks = args.u64("blocks", 16);
    let reps = args.u64("reps", 5).max(1);
    let n = args.u64("n", 60_000);
    let degree = args.f64("degree", 8.0);
    let rows = args.u64("rows", 8) as usize;
    let cols = args.u64("cols", 8) as usize;
    let out = args.str("out").unwrap_or("BENCH_setops.json").to_string();

    // The engine benchmark needs real worker threads to mean anything:
    // default to at least 4 even on skinny hosts (the JSON records the
    // true core count separately so consumers can judge the speedup).
    let host_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    if args.str("engine-threads").is_some() {
        exp::apply_engine_threads(&args);
    } else {
        rayon::set_worker_threads(host_threads.max(4));
    }
    let engine_threads = rayon::current_num_threads();

    // --- Union kernels: list vs bitmap accumulator. -------------------
    let payload = dense_blocks(blocks, span);
    let elems: u64 = payload.iter().map(|b| b.len() as u64).sum();
    eprintln!("union kernels: {blocks} blocks x span {span} ({elems} elements)");
    let list_s = time_union(&payload, &VsetPolicy::list_only(), reps);
    let bitmap_s = time_union(&payload, &VsetPolicy::hybrid(), reps);
    let list_meps = elems as f64 / list_s / 1e6;
    let bitmap_meps = elems as f64 / bitmap_s / 1e6;
    let union_speedup = list_s / bitmap_s;
    eprintln!("  list    {list_meps:>9.1} Melem/s");
    eprintln!("  bitmap  {bitmap_meps:>9.1} Melem/s   ({union_speedup:.2}x)");
    if union_speedup < 2.0 {
        eprintln!("warning: bitmap union speedup below the 2x target");
    }

    // --- Superstep engine: 1 worker vs N workers, wall-clock. ---------
    let grid = ProcessorGrid::new(rows, cols);
    let spec = GraphSpec::poisson(n, degree, 4242);
    let graph = DistGraph::build(spec, grid);
    eprintln!(
        "engine: n={n} degree={degree} grid {rows}x{cols} \
         ({host_threads} host cores, {engine_threads} worker threads)"
    );
    let serial_s = time_engine(&graph, 1, reps)?;
    let rayon_s = time_engine(&graph, engine_threads, reps)?;
    let engine_speedup = serial_s / rayon_s;
    eprintln!("  1 worker   {:>9.1} ms", serial_s * 1e3);
    eprintln!(
        "  {engine_threads} workers  {:>9.1} ms   ({engine_speedup:.2}x)",
        rayon_s * 1e3
    );

    // --- Emit (hand-formatted: the bench crate carries no serde). -----
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"union_kernels\": {{");
    let _ = writeln!(json, "    \"span\": {span},");
    let _ = writeln!(json, "    \"blocks\": {blocks},");
    let _ = writeln!(json, "    \"elements\": {elems},");
    let _ = writeln!(json, "    \"list_melem_per_s\": {list_meps:.3},");
    let _ = writeln!(json, "    \"bitmap_melem_per_s\": {bitmap_meps:.3},");
    let _ = writeln!(json, "    \"bitmap_speedup\": {union_speedup:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"superstep_engine\": {{");
    let _ = writeln!(json, "    \"n\": {n},");
    let _ = writeln!(json, "    \"degree\": {degree},");
    let _ = writeln!(json, "    \"grid\": \"{rows}x{cols}\",");
    let _ = writeln!(json, "    \"host_threads\": {host_threads},");
    let _ = writeln!(json, "    \"engine_threads\": {engine_threads},");
    let _ = writeln!(json, "    \"serial_ms\": {:.3},", serial_s * 1e3);
    let _ = writeln!(json, "    \"rayon_ms\": {:.3},", rayon_s * 1e3);
    let _ = writeln!(json, "    \"rayon_speedup\": {engine_speedup:.3}");
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("writing {out}: {e}"));
    println!("wrote {out}");
    Ok(())
}
