//! Host-side performance check of the set kernels: list vs bitmap
//! union-fold throughput, and, over one whole top-down search, the
//! probe rate of `RankState::discover` and the vertex rate of the
//! targeted expand `RankState::expand_sends_targeted`. Writes the
//! numbers to `BENCH_setops.json`.
//!
//! Unlike the figure binaries this measures *host* wall-clock, not
//! simulated BlueGene/L time — it is the evidence that the hybrid
//! representation pays for itself on the machine running the
//! simulator. The 1-worker vs N-worker engine timing lives in
//! `bench_wire`, which gates it.
//!
//! With `--check` the binary exits non-zero when the discover search
//! counted a different number of probes than [`DISCOVER_PROBES`], or
//! its expand sent a different number of vertices than
//! [`EXPAND_VERTS`]: both counts are deterministic, so a kernel rewrite
//! that moves one would move the simulated clock. Levels that fail
//! validation exit non-zero with or without `--check`. The timings are
//! recorded, never gated.
//!
//! ```text
//! cargo run --release -p bgl-bench --bin bench_setops [-- --check]
//! ```

use bfs_core::validate_against_spec;
use bgl_bench::exp;
use bgl_bench::harness::{write_report, Args};
use bgl_comm::{ProcessorGrid, Vert, VertSet, VsetPolicy};
use bgl_graph::{DistGraph, GraphSpec, Vertex};
use bgl_trace::json::{self, Fixed};
use std::time::Instant;

const HELP: &str = "\
bench_setops — hybrid set-kernel wall-clock benchmark

Times list vs bitmap union folds, and RankState::discover and
RankState::expand_sends_targeted over one whole top-down Poisson n=2^18,
k=16 search on 8x8. Writes BENCH_setops.json (override with --out).

Flags:
  --span N       slot range of the synthetic union payloads (default 65536)
  --blocks N     overlapping blocks accumulated per union run (default 16)
  --reps N       timing repetitions, best-of (default 5)
  --out PATH     output path (default BENCH_setops.json)
  --check        exit non-zero if the discover probe count or the expand
                 vertex count moved (CI)
";

/// Probes `RankState::discover` counts over the whole discover search
/// (Poisson n=2^18, k=16, seed 1, 8x8, source 1), checked by `--check`.
const DISCOVER_PROBES: u64 = 6_013_575;

/// Vertices `RankState::expand_sends_targeted` sends over the same
/// search, checked by `--check`.
const EXPAND_VERTS: u64 = 1_814_373;

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

/// Host seconds one kernel took over a search, and the work it did
/// (probes counted or vertices sent).
#[derive(Debug, Clone, Copy)]
struct Timed {
    secs: f64,
    work: u64,
}

impl Timed {
    /// No run yet: the identity of [`Timed::best`].
    const NONE: Timed = Timed {
        secs: f64::INFINITY,
        work: 0,
    };

    /// The faster of two runs of the same deterministic work.
    fn best(self, run: Timed) -> Timed {
        Timed {
            secs: self.secs.min(run.secs),
            work: run.work,
        }
    }

    /// Work per second, in millions.
    fn mrate(&self) -> f64 {
        self.work as f64 / self.secs / 1e6
    }
}

/// One whole top-down search from `source` ([`exp::top_down_levels`]):
/// the time in and the vertices sent by
/// [`RankState::expand_sends_targeted`](bfs_core::state::RankState::expand_sends_targeted),
/// the time in and the probes counted by
/// [`RankState::discover`](bfs_core::state::RankState::discover), and
/// the final global level array.
fn time_search(graph: &DistGraph, source: Vertex) -> (Timed, Timed, Vec<u32>) {
    let zero = Timed { secs: 0.0, work: 0 };
    let (mut expand, mut discover) = (zero, zero);
    let levels = exp::top_down_levels(
        graph,
        source,
        |st| {
            let start = Instant::now();
            let sends = std::hint::black_box(st.expand_sends_targeted());
            expand.secs += start.elapsed().as_secs_f64();
            expand.work += sends.iter().map(|(_, list)| list.len() as u64).sum::<u64>();
            sends
        },
        |states, fbar| {
            states
                .iter_mut()
                .zip(fbar)
                .map(|(st, lists)| {
                    let lists: Vec<&[Vertex]> = lists.iter().map(Vec::as_slice).collect();
                    let before = st.probes;
                    let start = Instant::now();
                    let blocks = std::hint::black_box(st.discover(&lists));
                    discover.secs += start.elapsed().as_secs_f64();
                    discover.work += st.probes - before;
                    blocks
                })
                .collect()
        },
    );
    (expand, discover, levels)
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
    let check = args.bool("check", false);

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

    // --- Top-down expand and discover over one whole search. ---------
    let discover_n = 1 << 18;
    let spec = GraphSpec::poisson(discover_n, 16.0, 1);
    let graph = DistGraph::build(spec, ProcessorGrid::new(8, 8));
    let source = 1;
    let (mut expand, mut discover) = (Timed::NONE, Timed::NONE);
    for _ in 0..reps {
        let (e, d, levels) = time_search(&graph, source);
        validate_against_spec(&spec, &levels, source)?;
        expand = expand.best(e);
        discover = discover.best(d);
    }
    eprintln!(
        "search: Poisson n={discover_n} k=16 on 8x8, {} probes, {} expand vertices",
        discover.work, expand.work
    );
    eprintln!(
        "  top-down {:>9.1} Mprobe/s   ({:.1} ms)",
        discover.mrate(),
        discover.secs * 1e3
    );
    eprintln!(
        "  expand   {:>9.1} Mvert/s    ({:.1} ms)",
        expand.mrate(),
        expand.secs * 1e3
    );

    let doc = json::pretty(|w| {
        w.key("union_kernels").obj(|w| {
            w.field("span", span)
                .field("blocks", blocks)
                .field("elements", elems)
                .field("list_melem_per_s", Fixed(list_meps, 3))
                .field("bitmap_melem_per_s", Fixed(bitmap_meps, 3))
                .field("bitmap_speedup", Fixed(union_speedup, 3));
        });
        w.key("discover").obj(|w| {
            w.field("n", discover_n)
                .field("avg_degree", 16u64)
                .field("grid", "8x8")
                .field("probes", discover.work)
                .field("seconds", Fixed(discover.secs, 6))
                .field("mprobe_per_s", Fixed(discover.mrate(), 3));
        });
        w.key("expand").obj(|w| {
            w.field("n", discover_n)
                .field("avg_degree", 16u64)
                .field("grid", "8x8")
                .field("verts", expand.work)
                .field("seconds", Fixed(expand.secs, 6))
                .field("mvert_per_s", Fixed(expand.mrate(), 3));
        });
    });
    write_report(&out, &doc)?;

    if check {
        if discover.work != DISCOVER_PROBES {
            eprintln!(
                "FAIL: discover counted {} probes, not the pinned {DISCOVER_PROBES}",
                discover.work
            );
            std::process::exit(1);
        }
        if expand.work != EXPAND_VERTS {
            eprintln!(
                "FAIL: expand sent {} vertices, not the pinned {EXPAND_VERTS}",
                expand.work
            );
            std::process::exit(1);
        }
        println!("check passed");
    }
    Ok(())
}
