//! The paper's design ablations on the simulated BlueGene/L clock: the
//! §3.2.2 union-fold against a plain all-to-all fold, the
//! sent-neighbors cache, the Figure 1 folded task mapping against naive
//! mappings, §3.1's fixed message buffers, and the congestion-aware
//! round cost. Every variant of an ablation searches the same graph
//! from the same source. Writes `BENCH_ablations.json`.
//!
//! With `--check` the binary exits non-zero when a gated relation
//! fails. Simulated times are deterministic, so the gates are exact:
//!
//! * sent-neighbors cache: on is faster than off;
//! * task mapping: folded ≤ row-major ≤ scrambled;
//! * chunk policy: 256-vertex chunks cap the peak buffer at 256
//!   vertices and cost at least the unbounded time;
//! * congestion model: congestion-aware ≥ α–β only.
//!
//! The fold ablation is recorded as found and not gated: at its config
//! the two-phase union-fold is about 1.5% slower than the direct
//! all-to-all in simulated time.
//!
//! ```text
//! cargo run --release -p bgl-bench --bin bench_ablations [-- --check]
//! ```

use bfs_core::{bfs2d, BfsConfig, ExpandStrategy, FoldStrategy};
use bgl_bench::harness::{write_report, Args};
use bgl_comm::{ChunkPolicy, CommError, ProcessorGrid, SimWorld};
use bgl_graph::{DistGraph, GraphSpec};
use bgl_torus::{MachineConfig, TaskMappingKind};
use bgl_trace::json::{self, Fixed};

const HELP: &str = "\
bench_ablations — simulated-time ablations of the paper's design choices

Writes BENCH_ablations.json (override with --out).

Flags:
  --out PATH     output path (default BENCH_ablations.json)
  --check        exit non-zero if a gated relation fails (CI)
";

/// Search source shared by every run.
const SOURCE: u64 = 1;

/// Builds a variant's world on the ablation's grid.
type MakeWorld = fn(ProcessorGrid) -> SimWorld;

/// One ablation: a graph and grid, the variants compared on them, and
/// the relation `--check` gates (`None`: recorded as found).
struct Ablation {
    name: &'static str,
    spec: GraphSpec,
    grid: ProcessorGrid,
    variants: Vec<(&'static str, MakeWorld, BfsConfig)>,
    gate: Option<(&'static str, fn(&[Measured]) -> bool)>,
}

/// One variant's simulated search.
struct Measured {
    name: &'static str,
    sim_s: f64,
    peak_buffer_verts: usize,
}

impl Ablation {
    fn measure(&self) -> Result<Vec<Measured>, CommError> {
        let graph = DistGraph::build(self.spec, self.grid);
        self.variants
            .iter()
            .map(|&(name, make_world, config)| {
                let mut world = make_world(self.grid);
                let r = bfs2d::try_run(&graph, &mut world, &config, SOURCE)?;
                Ok(Measured {
                    name,
                    sim_s: r.stats.sim_time,
                    peak_buffer_verts: world.stats.peak_buffer_verts,
                })
            })
            .collect()
    }
}

fn with_mapping(grid: ProcessorGrid, mapping: TaskMappingKind, chunk: ChunkPolicy) -> SimWorld {
    let dims = MachineConfig::fit_partition(grid.len());
    SimWorld::new(
        grid,
        MachineConfig::bluegene_l_partition(dims),
        mapping,
        chunk,
    )
}

/// The ablations, with the graphs, grids and seeds they have always used.
fn ablations() -> [Ablation; 5] {
    let paper = BfsConfig::paper_optimized();
    let alltoall = BfsConfig::baseline_alltoall();
    let two_phase = BfsConfig {
        expand: ExpandStrategy::TwoPhaseRing,
        fold: FoldStrategy::TwoPhaseRing,
        ..paper
    };
    let bluegene: MakeWorld = SimWorld::bluegene;
    [
        Ablation {
            name: "fold_strategy",
            spec: GraphSpec::poisson(32_000, 20.0, 42),
            grid: ProcessorGrid::new(4, 8),
            variants: vec![
                (
                    "two_phase_union",
                    bluegene,
                    BfsConfig {
                        fold: FoldStrategy::TwoPhaseRing,
                        ..paper
                    },
                ),
                ("direct_alltoall", bluegene, alltoall),
            ],
            gate: None,
        },
        Ablation {
            name: "sent_neighbors_cache",
            spec: GraphSpec::poisson(20_000, 16.0, 7),
            grid: ProcessorGrid::new(4, 4),
            variants: vec![
                ("cache_on", bluegene, paper),
                (
                    "cache_off",
                    bluegene,
                    BfsConfig {
                        sent_neighbors: false,
                        ..paper
                    },
                ),
            ],
            gate: Some(("cache_on < cache_off", |m| m[0].sim_s < m[1].sim_s)),
        },
        Ablation {
            name: "task_mapping",
            spec: GraphSpec::poisson(16_000, 10.0, 9),
            grid: ProcessorGrid::new(8, 8),
            variants: vec![
                ("folded_planes", bluegene, two_phase),
                (
                    "row_major",
                    |g| with_mapping(g, TaskMappingKind::RowMajor, ChunkPolicy::Unbounded),
                    two_phase,
                ),
                (
                    "scrambled",
                    |g| with_mapping(g, TaskMappingKind::Scrambled, ChunkPolicy::Unbounded),
                    two_phase,
                ),
            ],
            gate: Some(("folded_planes <= row_major <= scrambled", |m| {
                m[0].sim_s <= m[1].sim_s && m[1].sim_s <= m[2].sim_s
            })),
        },
        Ablation {
            name: "chunk_policy",
            spec: GraphSpec::poisson(24_000, 12.0, 21),
            grid: ProcessorGrid::new(4, 4),
            variants: vec![
                ("unbounded", bluegene, alltoall),
                (
                    "chunk_4096",
                    |g| with_mapping(g, TaskMappingKind::FoldedPlanes, ChunkPolicy::fixed(4096)),
                    alltoall,
                ),
                (
                    "chunk_256",
                    |g| with_mapping(g, TaskMappingKind::FoldedPlanes, ChunkPolicy::fixed(256)),
                    alltoall,
                ),
            ],
            gate: Some((
                "chunk_256 peak_buffer_verts <= 256 and chunk_256 >= unbounded",
                |m| m[2].peak_buffer_verts <= 256 && m[2].sim_s >= m[0].sim_s,
            )),
        },
        Ablation {
            name: "congestion_model",
            spec: GraphSpec::poisson(16_000, 10.0, 33),
            grid: ProcessorGrid::new(4, 8),
            variants: vec![
                ("alpha_beta_only", bluegene, paper),
                (
                    "congestion_aware",
                    |g| {
                        let mut w = SimWorld::bluegene(g);
                        w.enable_congestion_model();
                        w
                    },
                    paper,
                ),
            ],
            gate: Some(("congestion_aware >= alpha_beta_only", |m| {
                m[1].sim_s >= m[0].sim_s
            })),
        },
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    if args.wants_help() {
        print!("{HELP}");
        return Ok(());
    }
    let out = args
        .str("out")
        .unwrap_or("BENCH_ablations.json")
        .to_string();
    let check = args.bool("check", false);

    let mut measured = Vec::new();
    for a in ablations() {
        let m = a.measure()?;
        eprintln!("{}", a.name);
        for v in &m {
            eprintln!(
                "  {:<17} sim {:>9.6} ms, peak buffer {:>6} verts",
                v.name,
                v.sim_s * 1e3,
                v.peak_buffer_verts
            );
        }
        let holds = a.gate.map(|(relation, gate)| {
            let holds = gate(&m);
            eprintln!("  {relation}: {}", if holds { "holds" } else { "FAILS" });
            holds
        });
        measured.push((a, m, holds));
    }
    let failed: Vec<&Ablation> = measured
        .iter()
        .filter(|(_, _, holds)| *holds == Some(false))
        .map(|(a, ..)| a)
        .collect();

    let doc = json::pretty(|w| {
        w.field("source", SOURCE);
        for (a, m, holds) in &measured {
            w.key(a.name).obj(|w| {
                w.key("graph").obj(|w| {
                    w.field("kind", "poisson")
                        .field("n", a.spec.n)
                        .field("degree", a.spec.avg_degree)
                        .field("seed", a.spec.seed)
                        .field("grid", format!("{}x{}", a.grid.rows(), a.grid.cols()));
                });
                w.key("variants").arr(|w| {
                    for v in m {
                        w.obj(|w| {
                            w.field("name", v.name)
                                .field("sim_ms", Fixed(v.sim_s * 1e3, 6))
                                .field("peak_buffer_verts", v.peak_buffer_verts);
                        });
                    }
                });
                w.field("gate", a.gate.map(|(relation, _)| relation))
                    .field("holds", *holds);
            });
        }
        w.field("gates_failed", failed.len());
    });
    write_report(&out, &doc)?;

    if check {
        for a in &failed {
            if let Some((relation, _)) = a.gate {
                eprintln!("FAIL: {}: {relation} does not hold", a.name);
            }
        }
        if !failed.is_empty() {
            std::process::exit(1);
        }
        println!("check passed");
    }
    Ok(())
}
