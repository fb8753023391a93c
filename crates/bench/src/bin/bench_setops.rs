//! Host-side performance check for the hybrid-frontier PR: measures
//! list vs bitmap union-fold throughput and writes the numbers to
//! `BENCH_setops.json`.
//!
//! Unlike the figure binaries this measures *host* wall-clock, not
//! simulated BlueGene/L time — it is the evidence that the hybrid
//! representation pays for itself on the machine running the
//! simulator. The 1-worker vs N-worker engine timing lives in
//! `bench_wire`, which gates it.
//!
//! ```text
//! cargo run --release -p bgl-bench --bin bench_setops
//! ```

use bgl_bench::harness::{write_report, Args};
use bgl_comm::{Vert, VertSet, VsetPolicy};
use bgl_trace::json::{self, Fixed};
use std::time::Instant;

const HELP: &str = "\
bench_setops — hybrid set-kernel wall-clock benchmark

Writes BENCH_setops.json (override with --out).

Flags:
  --span N       slot range of the synthetic union payloads (default 65536)
  --blocks N     overlapping blocks accumulated per union run (default 16)
  --reps N       timing repetitions, best-of (default 5)
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let span = args.u64("span", 1 << 16);
    let blocks = args.u64("blocks", 16);
    let reps = args.u64("reps", 5).max(1);
    let out = args.str("out").unwrap_or("BENCH_setops.json").to_string();

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

    let doc = json::pretty(|w| {
        w.key("union_kernels").obj(|w| {
            w.field("span", span)
                .field("blocks", blocks)
                .field("elements", elems)
                .field("list_melem_per_s", Fixed(list_meps, 3))
                .field("bitmap_melem_per_s", Fixed(bitmap_meps, 3))
                .field("bitmap_speedup", Fixed(union_speedup, 3));
        });
    });
    write_report(&out, &doc)?;
    Ok(())
}
