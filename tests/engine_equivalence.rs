//! Engine cross-validation: the superstep simulator and the real
//! one-thread-per-rank message-passing runtime must produce identical
//! BFS labels — the evidence that simulated message routing is faithful.
//! The simulator itself must be bit-identical on one host worker and on
//! many.

mod common;

use bgl_bfs::comm::{FaultPlan, OpClass};
use bgl_bfs::core::{bfs2d, bidir, threaded_run, ThreadedConfig};
use bgl_bfs::{BfsConfig, DistGraph, GraphSpec, ProcessorGrid, SimWorld, WirePolicy};
use common::{assert_bit_identical, serial_and_parallel};
use proptest::prelude::*;

/// Run the threaded runtime and fold its per-rank outcomes.
fn run_threads(
    graph: &DistGraph,
    source: u64,
    config: &ThreadedConfig,
) -> threaded_run::ThreadedResult {
    threaded_run::assemble(graph, threaded_run::run(graph, source, config)).unwrap()
}

fn sent_cache(sent: bool) -> ThreadedConfig {
    ThreadedConfig {
        sent_neighbors: sent,
        ..ThreadedConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn simulator_and_threads_agree(
        n in 60u64..300,
        k in 1u32..10,
        seed in 0u64..500,
        r in 1usize..4,
        c in 1usize..4,
        sent in any::<bool>(),
    ) {
        let spec = GraphSpec::poisson(n, k as f64, seed);
        let grid = ProcessorGrid::new(r, c);
        let graph = DistGraph::build(spec, grid);

        let threaded = run_threads(&graph, 0, &sent_cache(sent)).levels;
        let mut world = SimWorld::bluegene(grid);
        let config = BfsConfig {
            sent_neighbors: sent,
            ..BfsConfig::baseline_alltoall()
        };
        let sim = bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
        prop_assert_eq!(threaded, sim.levels);
    }
}

#[test]
fn engines_agree_on_wide_grid() {
    // More ranks than a proptest case would spawn: 24 threads.
    let spec = GraphSpec::poisson(2_000, 8.0, 77);
    let grid = ProcessorGrid::new(4, 6);
    let graph = DistGraph::build(spec, grid);
    let threaded = run_threads(&graph, 19, &ThreadedConfig::default()).levels;
    let mut world = SimWorld::bluegene(grid);
    let sim = bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 19).unwrap();
    assert_eq!(threaded, sim.levels);
}

#[test]
fn rayon_compute_engine_is_bit_identical_to_serial() {
    // The host-side fan-out must never leak into results: labels,
    // per-level stats, message counters, and every simulated clock are
    // bit-for-bit those of the 1-worker run, for every strategy.
    use bgl_bfs::core::{ExpandStrategy, FoldStrategy};
    let spec = GraphSpec::poisson(1_200, 8.0, 29);
    let grid = ProcessorGrid::new(3, 4);
    let graph = DistGraph::build(spec, grid);
    for fold in [
        FoldStrategy::DirectAllToAll,
        FoldStrategy::ReduceScatterUnion,
        FoldStrategy::TwoPhaseRing,
    ] {
        let config = BfsConfig {
            expand: ExpandStrategy::Targeted,
            fold,
            ..BfsConfig::paper_optimized()
        };
        let (serial, parallel) = serial_and_parallel(|| {
            let mut world = SimWorld::bluegene(grid);
            bfs2d::try_run(&graph, &mut world, &config, 0).unwrap()
        });
        assert_bit_identical(&serial, &parallel, &format!("{fold:?}"));
    }
}

#[test]
fn rayon_engine_bit_identical_on_bidirectional_search() {
    let spec = GraphSpec::poisson(900, 6.0, 47);
    let grid = ProcessorGrid::new(2, 3);
    let graph = DistGraph::build(spec, grid);
    let (serial, parallel) = serial_and_parallel(|| {
        let mut world = SimWorld::bluegene(grid);
        bidir::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0, 899).unwrap()
    });
    assert_eq!(serial.distance, parallel.distance);
    assert_eq!(serial.stats.levels, parallel.stats.levels);
    assert_eq!(serial.stats.comm, parallel.stats.comm);
    for (s, p) in [
        (serial.stats.sim_time, parallel.stats.sim_time),
        (serial.stats.comm_time, parallel.stats.comm_time),
        (serial.stats.compute_time, parallel.stats.compute_time),
        (serial.stats.codec_time, parallel.stats.codec_time),
    ] {
        assert_eq!(s.to_bits(), p.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// With the adaptive wire codec on, the simulator and the threaded
    /// runtime still agree on the BFS tree AND on every sender-side
    /// byte: summed per-rank logical/wire counters equal the sim's
    /// per-class totals exactly (the codec choice is a pure function of
    /// each payload, so both runtimes must frame identically).
    #[test]
    fn wire_codec_sim_and_threads_agree_byte_for_byte(
        n in 80u64..400,
        k in 2u32..10,
        seed in 0u64..500,
        r in 1usize..4,
        c in 1usize..4,
        sent in any::<bool>(),
    ) {
        let spec = GraphSpec::poisson(n, k as f64, seed);
        let grid = ProcessorGrid::new(r, c);
        let graph = DistGraph::build(spec, grid);

        let config = ThreadedConfig { wire: WirePolicy::auto(), ..sent_cache(sent) };
        let t = run_threads(&graph, 0, &config);
        let (levels, expand, fold) = (t.levels, t.expand_wire, t.fold_wire);

        let mut world = SimWorld::bluegene(grid).with_wire_policy(WirePolicy::auto());
        let config = BfsConfig { sent_neighbors: sent, ..BfsConfig::baseline_alltoall() };
        let sim = bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
        prop_assert_eq!(levels, sim.levels);

        let se = sim.stats.comm.class(OpClass::Expand);
        let sf = sim.stats.comm.class(OpClass::Fold);
        prop_assert_eq!(expand.logical_bytes, se.logical_bytes);
        prop_assert_eq!(expand.wire_bytes, se.wire_bytes);
        prop_assert_eq!(fold.logical_bytes, sf.logical_bytes);
        prop_assert_eq!(fold.wire_bytes, sf.wire_bytes);
    }
}

#[test]
fn rayon_engine_bit_identical_with_wire_codec_on() {
    // The superstep scheduler precomputes every send (codec included)
    // on the host workers; with compression on, labels, comm stats
    // (which now carry wire bytes), and all four simulated clocks must
    // still be bit-for-bit those of the 1-worker run.
    let spec = GraphSpec::poisson(1_500, 9.0, 61);
    let grid = ProcessorGrid::new(3, 4);
    let graph = DistGraph::build(spec, grid);
    let (serial, parallel) = serial_and_parallel(|| {
        let mut world = SimWorld::bluegene(grid).with_wire_policy(WirePolicy::auto());
        bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0).unwrap()
    });
    assert_bit_identical(&serial, &parallel, "auto wire");
    assert!(serial.stats.comm.total_wire_bytes() < serial.stats.comm.total_logical_bytes());
    assert!(serial.stats.codec_time > 0.0, "codec time must be charged");
}

#[test]
fn repeated_threaded_runs_are_deterministic() {
    // Thread scheduling must not leak into results.
    let spec = GraphSpec::poisson(800, 6.0, 13);
    let grid = ProcessorGrid::new(3, 3);
    let graph = DistGraph::build(spec, grid);
    let first = run_threads(&graph, 0, &ThreadedConfig::default()).levels;
    for _ in 0..5 {
        assert_eq!(
            run_threads(&graph, 0, &ThreadedConfig::default()).levels,
            first
        );
    }
}

/// The resilient engine (parity checkpoints, rank death, rollback and
/// replay) is bit-identical on one host worker and on many: same
/// labels, same comm stats, same simulated and recovery times to the
/// last bit.
#[test]
fn rayon_engine_bit_identical_on_resilient_recovery() {
    use bgl_bfs::ResilientConfig;

    let spec = GraphSpec::poisson(6_000, 8.0, 19);
    let grid = ProcessorGrid::new(2, 4);
    let graph = DistGraph::build(spec, grid);
    let plan = FaultPlan::seeded(0xbee)
        .with_drop_prob(0.1)
        .kill_rank_at(5, 3);
    let resilient = ResilientConfig {
        parity_group_size: 4,
    };

    let (a, b) = serial_and_parallel(|| {
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan.clone());
        let config = BfsConfig::paper_optimized();
        bfs2d::run_resilient(&graph, &mut world, &config, 0, &resilient)
            .expect("single death must recover")
    });

    assert_bit_identical(&a.result, &b.result, "resilient");
    assert_eq!(a.recoveries, 1);
    assert_eq!(b.recoveries, 1);
    assert_eq!(a.recovered_ranks, b.recovered_ranks);
    assert_eq!(a.degraded_restarts, 0);
    assert_eq!(b.degraded_restarts, 0);
    assert_eq!(a.recovery_time.to_bits(), b.recovery_time.to_bits());
}
