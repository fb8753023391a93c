//! Host-side performance check of the set kernels: list vs bitmap
//! union-fold throughput, and, over one whole top-down search, the
//! probe rate of `RankState::discover` and the vertex rate of the
//! targeted expand `RankState::expand_sends_targeted`; plus the host
//! time of `DistGraph::build` for a Poisson and an R-MAT graph on 8×8
//! and a Poisson graph on the paper's 128×256 grid; plus the
//! ChaCha8 keystream per `next_u64` draw, and `gen::rmat_chunk_edges`
//! per level of the R-MAT quadrant descent it spends the draws on. Writes
//! the numbers to `BENCH_setops.json`.
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
//! that moves one would move the simulated clock. It also exits
//! non-zero when any built graph's total entries or digest (FNV-1a
//! over every rank's columns, partial edge lists and registration rows)
//! moved: a builder rewrite must produce the same `RankGraph`s. Its
//! per-rank bytes (`RankGraph::approx_bytes`: the largest rank's and
//! the sum over ranks) are pinned beside them, so a layout change that
//! moves them updates the pins on purpose. Levels
//! that fail validation exit non-zero with or without `--check`. The
//! timings are recorded, never gated.
//!
//! ```text
//! cargo run --release -p bgl-bench --bin bench_setops [-- --check]
//! ```

use bfs_core::validate_against_spec;
use bgl_bench::exp;
use bgl_bench::harness::{write_report, Args};
use bgl_comm::{ProcessorGrid, Vert, VertSet, VsetPolicy};
use bgl_graph::{gen, DistGraph, GraphSpec, Vertex};
use bgl_trace::json::{self, Fixed};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const HELP: &str = "\
bench_setops — hybrid set-kernel wall-clock benchmark

Times list vs bitmap union folds, RankState::discover and
RankState::expand_sends_targeted over one whole top-down Poisson n=2^18,
k=16 search on 8x8, and DistGraph::build for that graph, for an
R-MAT n=2^17, k=16 graph on 8x8 and for a Poisson n=327680, k=10 graph
on 128x256, the ChaCha8 keystream per u64 draw,
and that R-MAT graph's edge generation per descent level. Writes
BENCH_setops.json (override with --out).

Flags:
  --span N       slot range of the synthetic union payloads (default 65536)
  --blocks N     overlapping blocks accumulated per union run (default 16)
  --reps N       timing repetitions, best-of (default 5)
  --out PATH     output path (default BENCH_setops.json)
  --check        exit non-zero if the discover probe count, the expand
                 vertex count, or any built graph's entry count, digest
                 or per-rank bytes moved (CI)
";

/// Probes `RankState::discover` counts over the whole discover search
/// (Poisson n=2^18, k=16, seed 1, 8x8, source 1), checked by `--check`.
const DISCOVER_PROBES: u64 = 6_013_575;

/// Vertices `RankState::expand_sends_targeted` sends over the same
/// search, checked by `--check`.
const EXPAND_VERTS: u64 = 1_814_373;

/// What `--check` expects of a built graph: its total entries, its
/// digest ([`graph_digest`]), and its per-rank bytes
/// (`RankGraph::approx_bytes`), the largest rank's and the sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    entries: u64,
    digest: u64,
    max_rank_bytes: u64,
    sum_rank_bytes: u64,
}

/// The Poisson n=2^18, k=16, seed 1 graph on 8x8.
const POISSON_PIN: Pin = Pin {
    entries: 4_199_202,
    digest: 0x8875_a173_7cb2_c06d,
    max_rank_bytes: 924_140,
    sum_rank_bytes: 58_824_460,
};

/// The R-MAT n=2^17, k=16, seed 1 graph on 8x8.
const RMAT_PIN: Pin = Pin {
    entries: 1_942_906,
    digest: 0x4213_cb19_e2be_23c1,
    max_rank_bytes: 2_893_936,
    sum_rank_bytes: 20_302_856,
};

/// The Poisson n=327,680, k=10, seed 1 graph on 128x256, where each
/// rank owns 10 vertices.
const WIDE_PIN: Pin = Pin {
    entries: 3_278_310,
    digest: 0xf25a_e8c7_59f3_2a47,
    max_rank_bytes: 5_652,
    sum_rank_bytes: 152_771_064,
};

/// Draws of the seed-1 ChaCha8 keystream that the keystream row times.
const KEYSTREAM_DRAWS: u64 = 1 << 20;

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

/// 64-bit FNV-1a over the little-endian bytes of `words`, from `hash`.
fn fnv_words(mut hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Digest of a built graph through its public API: in rank order, each
/// rank's non-empty columns, then every column's partial edge list,
/// then its registration rows.
fn graph_digest(graph: &DistGraph) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for r in &graph.ranks {
        hash = fnv_words(hash, r.edges.cols());
        for (_, list) in r.edges.iter_cols() {
            hash = fnv_words(hash, list);
        }
        for i in 0..graph.grid().rows() {
            hash = fnv_words(hash, r.registration_row(i).iter().copied());
        }
    }
    hash
}

/// One row of the build benchmark: what the built graph measures, what
/// `--check` expects, and the best build time.
struct Built {
    name: &'static str,
    n: u64,
    avg_degree: f64,
    grid: ProcessorGrid,
    got: Pin,
    pin: Pin,
    secs: f64,
}

/// Time `DistGraph::build(spec, grid)` best-of-`reps` and return its row
/// with the last graph built. Each build starts after the previous
/// graph is dropped, so one graph is resident at a time.
fn time_build(
    name: &'static str,
    spec: GraphSpec,
    grid: ProcessorGrid,
    reps: u64,
    pin: Pin,
) -> (Built, DistGraph) {
    let mut secs = f64::INFINITY;
    let mut graph = None;
    for _ in 0..reps {
        drop(graph.take());
        let start = Instant::now();
        graph = Some(DistGraph::build(spec, grid));
        secs = secs.min(start.elapsed().as_secs_f64());
    }
    let graph = graph.expect("reps is positive");
    let built = Built {
        name,
        n: spec.n,
        avg_degree: spec.avg_degree,
        grid,
        got: Pin {
            entries: graph.total_entries(),
            digest: graph_digest(&graph),
            max_rank_bytes: graph.max_rank_bytes() as u64,
            sum_rank_bytes: graph.ranks.iter().map(|r| r.approx_bytes() as u64).sum(),
        },
        pin,
        secs,
    };
    eprintln!(
        "  {name:<15} n={:<7} {:>9} entries  digest {:016x}  {:>9} B max rank  {:>10} B all ranks  ({:.1} ms)",
        built.n,
        built.got.entries,
        built.got.digest,
        built.got.max_rank_bytes,
        built.got.sum_rank_bytes,
        secs * 1e3
    );
    (built, graph)
}

/// The keystream row, best of `reps` each: host time per `next_u64`
/// draw, and the whole of `gen::rmat_chunk_edges` (descent, self-loop
/// filter and output vector) divided by the descent levels it ran.
struct Keystream {
    ns_per_draw: f64,
    rmat_n: u64,
    levels: u64,
    chunk_ns_per_level: f64,
}

/// Time [`KEYSTREAM_DRAWS`] draws of seed 1, and every chunk of the
/// R-MAT edge stream of `spec` (`n` a power of two, so each draw
/// descends `log2 n` levels), best of `reps` each.
fn time_keystream(spec: &GraphSpec, reps: u64) -> Keystream {
    let levels = gen::rmat_draws(spec) * u64::from(spec.n.ilog2());
    let (mut draw_s, mut level_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let start = Instant::now();
        let fold = (0..KEYSTREAM_DRAWS).fold(0, |acc, _| acc ^ rng.next_u64());
        std::hint::black_box(fold);
        draw_s = draw_s.min(start.elapsed().as_secs_f64());

        let (chunks, chunk_edges) = gen::items(spec);
        let start = Instant::now();
        for ci in 0..chunks {
            std::hint::black_box(chunk_edges(spec, ci));
        }
        level_s = level_s.min(start.elapsed().as_secs_f64());
    }
    Keystream {
        ns_per_draw: draw_s / KEYSTREAM_DRAWS as f64 * 1e9,
        rmat_n: spec.n,
        levels,
        chunk_ns_per_level: level_s / levels as f64 * 1e9,
    }
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

    // --- Keystream: draws, and the descent of the R-MAT build's graph.
    let rmat_spec = GraphSpec::rmat(1 << 17, 16.0, 1);
    let keystream = time_keystream(&rmat_spec, reps);
    eprintln!("keystream: ChaCha8 seed 1, {KEYSTREAM_DRAWS} draws, best of {reps}");
    eprintln!("  next_u64 {:>9.2} ns/draw", keystream.ns_per_draw);
    eprintln!(
        "  rmat     {:>9.2} ns/level   (n={}, {} levels, whole chunks)",
        keystream.chunk_ns_per_level, keystream.rmat_n, keystream.levels
    );

    // --- Graph builds; the Poisson graph is the search's. ------------
    let discover_n = 1 << 18;
    let grid = ProcessorGrid::new(8, 8);
    eprintln!("build: DistGraph::build, seed 1, best of {reps}");
    let wide_spec = GraphSpec::poisson(327_680, 10.0, 1);
    let wide_grid = ProcessorGrid::new(128, 256);
    let (wide, _) = time_build("poisson_128x256", wide_spec, wide_grid, reps, WIDE_PIN);
    let (rmat, _) = time_build("rmat", rmat_spec, grid, reps, RMAT_PIN);
    let spec = GraphSpec::poisson(discover_n, 16.0, 1);
    let (poisson, graph) = time_build("poisson", spec, grid, reps, POISSON_PIN);
    let builds = [poisson, rmat, wide];

    // --- Top-down expand and discover over one whole search. ---------
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
        w.key("keystream").obj(|w| {
            w.field("draws", KEYSTREAM_DRAWS)
                .field("ns_per_draw", Fixed(keystream.ns_per_draw, 3))
                .field("rmat_n", keystream.rmat_n)
                .field("rmat_levels", keystream.levels)
                .field("chunk_ns_per_level", Fixed(keystream.chunk_ns_per_level, 3));
        });
        w.key("build").obj(|w| {
            for b in &builds {
                w.key(b.name).obj(|w| {
                    w.field("n", b.n)
                        .field("avg_degree", b.avg_degree as u64)
                        .field("grid", format!("{}x{}", b.grid.rows(), b.grid.cols()))
                        .field("entries", b.got.entries)
                        .field("digest", format!("{:016x}", b.got.digest))
                        .field("max_rank_bytes", b.got.max_rank_bytes)
                        .field("sum_rank_bytes", b.got.sum_rank_bytes)
                        .field("ms", Fixed(b.secs * 1e3, 3));
                });
            }
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
        for b in &builds {
            if b.got != b.pin {
                eprintln!(
                    "FAIL: {} graph measured {:?}, not the pinned {:?}",
                    b.name, b.got, b.pin
                );
                std::process::exit(1);
            }
        }
        println!("check passed");
    }
    Ok(())
}
