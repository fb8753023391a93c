//! Ablation benches for the design choices DESIGN.md calls out, measured
//! in *simulated BlueGene/L seconds* (printed) and wall time (criterion):
//!
//! * union-fold vs plain all-to-all fold,
//! * sent-neighbors cache on vs off,
//! * two-phase grouped ring vs full union ring,
//! * Figure 1 folded task mapping vs naive/scrambled mappings.

use bfs_core::{bfs2d, BfsConfig, ExpandStrategy, FoldStrategy};
use bgl_comm::{ChunkPolicy, ProcessorGrid, SimWorld};
use bgl_graph::{DistGraph, GraphSpec};
use bgl_torus::{MachineConfig, TaskMappingKind};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn world_with_mapping(grid: ProcessorGrid, kind: TaskMappingKind) -> SimWorld {
    let dims = MachineConfig::fit_partition(grid.len());
    SimWorld::new(
        grid,
        MachineConfig::bluegene_l_partition(dims),
        kind,
        ChunkPolicy::Unbounded,
    )
}

fn run_once(graph: &DistGraph, world: &mut SimWorld, config: &BfsConfig) -> f64 {
    world.reset();
    let r = bfs2d::try_run(graph, world, config, 1).unwrap();
    r.stats.sim_time
}

fn bench_fold_ablation(c: &mut Criterion) {
    let grid = ProcessorGrid::new(4, 8);
    let spec = GraphSpec::poisson(32_000, 20.0, 42);
    let graph = DistGraph::build(spec, grid);
    let mut world = SimWorld::bluegene(grid);

    // Print simulated-time comparison once.
    let t_union = run_once(
        &graph,
        &mut world,
        &BfsConfig {
            fold: FoldStrategy::TwoPhaseRing,
            ..BfsConfig::paper_optimized()
        },
    );
    let t_a2a = run_once(&graph, &mut world, &BfsConfig::baseline_alltoall());
    println!("[ablation] simulated time: union-fold {t_union:.6}s vs all-to-all {t_a2a:.6}s");

    let mut group = c.benchmark_group("ablation_fold_strategy");
    group.sample_size(15);
    group.bench_function("two_phase_union", |b| {
        b.iter(|| {
            black_box(run_once(
                &graph,
                &mut world,
                &BfsConfig {
                    fold: FoldStrategy::TwoPhaseRing,
                    ..BfsConfig::paper_optimized()
                },
            ))
        })
    });
    group.bench_function("direct_alltoall", |b| {
        b.iter(|| {
            black_box(run_once(
                &graph,
                &mut world,
                &BfsConfig::baseline_alltoall(),
            ))
        })
    });
    group.finish();
}

fn bench_sent_neighbors_ablation(c: &mut Criterion) {
    let grid = ProcessorGrid::new(4, 4);
    let spec = GraphSpec::poisson(20_000, 16.0, 7);
    let graph = DistGraph::build(spec, grid);
    let mut world = SimWorld::bluegene(grid);

    let on = BfsConfig::paper_optimized();
    let off = BfsConfig {
        sent_neighbors: false,
        ..on
    };
    let (t_on, t_off) = (
        run_once(&graph, &mut world, &on),
        run_once(&graph, &mut world, &off),
    );
    println!("[ablation] simulated time: sent-cache on {t_on:.6}s vs off {t_off:.6}s");

    let mut group = c.benchmark_group("ablation_sent_neighbors");
    group.sample_size(15);
    group.bench_function("cache_on", |b| {
        b.iter(|| black_box(run_once(&graph, &mut world, &on)))
    });
    group.bench_function("cache_off", |b| {
        b.iter(|| black_box(run_once(&graph, &mut world, &off)))
    });
    group.finish();
}

fn bench_mapping_ablation(c: &mut Criterion) {
    let grid = ProcessorGrid::new(8, 8);
    let spec = GraphSpec::poisson(16_000, 10.0, 9);
    let graph = DistGraph::build(spec, grid);

    let config = BfsConfig {
        expand: ExpandStrategy::TwoPhaseRing,
        fold: FoldStrategy::TwoPhaseRing,
        ..BfsConfig::paper_optimized()
    };
    let mut sims: Vec<(&str, f64)> = Vec::new();
    for (name, kind) in [
        ("folded_planes", TaskMappingKind::FoldedPlanes),
        ("row_major", TaskMappingKind::RowMajor),
        ("scrambled", TaskMappingKind::Scrambled),
    ] {
        let mut world = world_with_mapping(grid, kind);
        sims.push((name, run_once(&graph, &mut world, &config)));
    }
    println!("[ablation] simulated time by task mapping: {sims:?}");

    let mut group = c.benchmark_group("ablation_task_mapping");
    group.sample_size(15);
    for (name, kind) in [
        ("folded_planes", TaskMappingKind::FoldedPlanes),
        ("scrambled", TaskMappingKind::Scrambled),
    ] {
        let mut world = world_with_mapping(grid, kind);
        group.bench_function(name, |b| {
            b.iter(|| black_box(run_once(&graph, &mut world, &config)))
        });
    }
    group.finish();
}

fn bench_chunk_policy_ablation(c: &mut Criterion) {
    // §3.1: fixed buffers trade extra per-message overhead (more α) for
    // a P-independent memory footprint. Simulated time quantifies the
    // price of different chunk sizes.
    let grid = ProcessorGrid::new(4, 4);
    let spec = GraphSpec::poisson(24_000, 12.0, 21);
    let graph = DistGraph::build(spec, grid);
    let dims = MachineConfig::fit_partition(grid.len());

    let mut sims: Vec<(String, f64, usize)> = Vec::new();
    for (name, policy) in [
        ("unbounded".to_string(), ChunkPolicy::Unbounded),
        ("chunk_4096".to_string(), ChunkPolicy::fixed(4096)),
        ("chunk_256".to_string(), ChunkPolicy::fixed(256)),
    ] {
        let mut world = SimWorld::new(
            grid,
            MachineConfig::bluegene_l_partition(dims),
            TaskMappingKind::FoldedPlanes,
            policy,
        );
        let t = run_once(&graph, &mut world, &BfsConfig::baseline_alltoall());
        sims.push((name, t, world.stats.peak_buffer_verts));
    }
    println!("[ablation] chunk policy (simulated time, peak buffer verts): {sims:?}");

    let mut group = c.benchmark_group("ablation_chunk_policy");
    group.sample_size(15);
    for (name, policy) in [
        ("unbounded", ChunkPolicy::Unbounded),
        ("chunk_256", ChunkPolicy::fixed(256)),
    ] {
        let mut world = SimWorld::new(
            grid,
            MachineConfig::bluegene_l_partition(dims),
            TaskMappingKind::FoldedPlanes,
            policy,
        );
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(run_once(
                    &graph,
                    &mut world,
                    &BfsConfig::baseline_alltoall(),
                ))
            })
        });
    }
    group.finish();
}

fn bench_congestion_model_ablation(c: &mut Criterion) {
    // The congestion-aware round cost is strictly more work per round;
    // measure both its wall cost and how much simulated time it adds.
    let grid = ProcessorGrid::new(4, 8);
    let spec = GraphSpec::poisson(16_000, 10.0, 33);
    let graph = DistGraph::build(spec, grid);

    let mut plain = SimWorld::bluegene(grid);
    let t_plain = run_once(&graph, &mut plain, &BfsConfig::paper_optimized());
    let mut congested = SimWorld::bluegene(grid);
    congested.enable_congestion_model();
    let t_cong = run_once(&graph, &mut congested, &BfsConfig::paper_optimized());
    println!(
        "[ablation] simulated time: plain alpha-beta {t_plain:.6}s vs congestion-aware {t_cong:.6}s"
    );

    let mut group = c.benchmark_group("ablation_congestion_model");
    group.sample_size(15);
    group.bench_function("alpha_beta_only", |b| {
        b.iter(|| black_box(run_once(&graph, &mut plain, &BfsConfig::paper_optimized())))
    });
    group.bench_function("congestion_aware", |b| {
        b.iter(|| {
            black_box(run_once(
                &graph,
                &mut congested,
                &BfsConfig::paper_optimized(),
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fold_ablation,
    bench_sent_neighbors_ablation,
    bench_mapping_ablation,
    bench_chunk_policy_ablation,
    bench_congestion_model_ablation
);
criterion_main!(benches);
