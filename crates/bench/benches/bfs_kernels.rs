//! Criterion micro-benchmarks of the BFS kernels: 1D vs 2D algorithm,
//! wall-clock cost of a full simulated search at fixed problem size.
//!
//! (These measure the *simulator's* real execution speed; the simulated
//! BlueGene/L times come from the experiment binaries.)

use bfs_core::{bfs1d, bfs2d, BfsConfig};
use bgl_comm::{ProcessorGrid, SimWorld};
use bgl_graph::{DistGraph, GraphSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_bfs_2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs2d_full_search");
    group.sample_size(20);
    for &p in &[4usize, 16, 64] {
        let grid = ProcessorGrid::square_ish(p);
        let spec = GraphSpec::poisson(20_000, 10.0, 42);
        let graph = DistGraph::build(spec, grid);
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, _| {
            b.iter(|| {
                let mut world = SimWorld::bluegene(grid);
                let r = bfs2d::try_run(
                    &graph,
                    &mut world,
                    &BfsConfig::paper_optimized(),
                    black_box(1),
                )
                .unwrap();
                black_box(r.stats.reached)
            })
        });
    }
    group.finish();
}

fn bench_bfs_1d_vs_2d(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs_1d_vs_2d_p16");
    group.sample_size(20);
    let spec = GraphSpec::poisson(20_000, 10.0, 42);

    let grid_1d = ProcessorGrid::one_d(16);
    let graph_1d = DistGraph::build(spec, grid_1d);
    group.bench_function("algorithm1_1d", |b| {
        b.iter(|| {
            let mut world = SimWorld::bluegene(grid_1d);
            let r =
                bfs1d::try_run(&graph_1d, &mut world, &BfsConfig::paper_optimized(), 1).unwrap();
            black_box(r.stats.reached)
        })
    });

    let grid_2d = ProcessorGrid::new(4, 4);
    let graph_2d = DistGraph::build(spec, grid_2d);
    group.bench_function("algorithm2_2d", |b| {
        b.iter(|| {
            let mut world = SimWorld::bluegene(grid_2d);
            let r =
                bfs2d::try_run(&graph_2d, &mut world, &BfsConfig::paper_optimized(), 1).unwrap();
            black_box(r.stats.reached)
        })
    });
    group.finish();
}

fn bench_degree_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs2d_by_degree");
    group.sample_size(20);
    for &k in &[5u64, 10, 50] {
        let grid = ProcessorGrid::new(4, 4);
        let spec = GraphSpec::poisson(10_000, k as f64, 7);
        let graph = DistGraph::build(spec, grid);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                let mut world = SimWorld::bluegene(grid);
                let r =
                    bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 1).unwrap();
                black_box(r.stats.reached)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bfs_2d,
    bench_bfs_1d_vs_2d,
    bench_degree_sweep
);
criterion_main!(benches);
