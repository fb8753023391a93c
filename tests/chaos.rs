//! Chaos fuzzing of the parity-group recovery engine: seeded
//! randomized fault schedules ([`FaultPlan::chaos`]) crossed with the
//! wire codec and host worker count. Every surviving run must be
//! bit-identical to the fault-free reference and pass the
//! Graph500-style validator; runs that cannot survive must fail with
//! a typed [`CommError`], never a panic.

mod common;

use bgl_bfs::core::{bfs2d, validate};
use bgl_bfs::{
    BfsConfig, DistGraph, FaultPlan, GraphSpec, ProcessorGrid, ResilientConfig, SimWorld, WireMode,
    WirePolicy,
};

const GROUP: usize = 3;

fn build(n: u64, grid: ProcessorGrid) -> (GraphSpec, DistGraph) {
    let spec = GraphSpec::poisson(n, 6.0, 42);
    (spec, DistGraph::build(spec, grid))
}

fn reference(graph: &DistGraph) -> Vec<u32> {
    let mut world = SimWorld::bluegene(graph.grid());
    bfs2d::try_run(graph, &mut world, &BfsConfig::paper_optimized(), 0)
        .unwrap()
        .levels
}

/// Seeded chaos schedules (deaths + lossy messaging) across
/// {raw, auto} × {1 worker, many}: every cell recovers through parity
/// reconstruction (no degraded restarts — chaos schedules at most one
/// death per group), lands bit-identical to the fault-free reference,
/// and passes Graph500-style validation.
#[test]
fn chaos_matrix_recovers_bit_identically_and_validates() {
    let grid = ProcessorGrid::new(2, 3);
    let (spec, graph) = build(4_000, grid);
    let want = reference(&graph);
    let resilient = ResilientConfig {
        parity_group_size: GROUP,
    };
    for fault_seed in [11u64, 12, 13] {
        let plan = FaultPlan::chaos(fault_seed, grid.len(), GROUP);
        for wire in [WireMode::Raw, WireMode::Auto] {
            for workers in [common::SERIAL, common::PARALLEL] {
                let got = rayon::with_worker_threads(workers, || {
                    let mut world = SimWorld::bluegene(grid)
                        .with_fault_plan(plan.clone())
                        .with_wire_policy(WirePolicy::with_mode(wire));
                    let config = BfsConfig::paper_optimized();
                    bfs2d::run_resilient(&graph, &mut world, &config, 0, &resilient).unwrap_or_else(
                        |e| {
                            panic!("seed {fault_seed} {wire:?}/{workers} workers must survive: {e}")
                        },
                    )
                });
                assert_eq!(
                    got.result.levels, want,
                    "seed {fault_seed} {wire:?}/{workers} workers diverged"
                );
                assert_eq!(
                    got.degraded_restarts, 0,
                    "single-death-per-group schedules must parity-recover \
                     (seed {fault_seed} {wire:?}/{workers} workers)"
                );
                assert_eq!(got.recoveries as usize, plan.deaths().len());
                let report = validate::validate_against_spec(&spec, &got.result.levels, 0)
                    .unwrap_or_else(|e| panic!("seed {fault_seed}: validation failed: {e}"));
                assert_eq!(report.reached, got.result.stats.reached);
            }
        }
    }
}

/// The validator is load-bearing: corrupting a single level in an
/// otherwise-correct labelling is caught.
#[test]
fn validator_rejects_a_corrupted_labelling() {
    let grid = ProcessorGrid::new(2, 2);
    let (spec, graph) = build(2_000, grid);
    let mut levels = reference(&graph);
    validate::validate_against_spec(&spec, &levels, 0).expect("reference must validate");
    let victim = levels
        .iter()
        .position(|&l| l != bgl_bfs::core::UNREACHED && l > 1)
        .expect("graph has depth > 1");
    levels[victim] += 2;
    assert!(validate::validate_against_spec(&spec, &levels, 0).is_err());
}
