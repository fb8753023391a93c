//! Fault tolerance: BFS under deterministic fault injection must be
//! *transparent* — lossy links and dead ranks change cost, never the
//! answer — and the fault machinery itself must be a strict no-op when
//! disabled.

mod common;

use bgl_bfs::comm::OpClass;
use bgl_bfs::core::{bfs2d, reference, threaded_run, ThreadedConfig};
use bgl_bfs::{
    BfsConfig, CommError, DistGraph, FaultPlan, GraphSpec, ProcessorGrid, ResilientConfig,
    SimWorld, WirePolicy,
};

/// A `FaultPlan::none()` world is byte-identical to a plain world:
/// same levels, same per-class communication stats, same simulated
/// time to the last bit. The fault layer costs nothing when off.
#[test]
fn none_plan_is_byte_identical_to_no_plan() {
    for (rows, cols, seed) in [(2, 3, 7u64), (4, 4, 42), (1, 4, 9)] {
        let spec = GraphSpec::poisson(4_000, 8.0, seed);
        let grid = ProcessorGrid::new(rows, cols);
        let graph = DistGraph::build(spec, grid);
        let config = BfsConfig::paper_optimized();

        let mut plain = SimWorld::bluegene(grid);
        let a = bfs2d::try_run(&graph, &mut plain, &config, 1).unwrap();

        let mut faulty = SimWorld::bluegene(grid).with_fault_plan(FaultPlan::none());
        let b = bfs2d::try_run(&graph, &mut faulty, &config, 1).unwrap();

        assert_eq!(a.levels, b.levels);
        assert_eq!(a.stats.comm, b.stats.comm);
        assert_eq!(a.stats.sim_time.to_bits(), b.stats.sim_time.to_bits());
        assert!(!b.stats.comm.faults.any(), "no faults may be counted");
    }
}

/// Lossy exchanges (drops + truncations + duplicates at up to 20%)
/// and a scheduled rank death: the resilient engine still produces the
/// sequential oracle's labels, across seeds and grid shapes.
#[test]
fn recovery_matches_oracle_across_seeds_and_topologies() {
    for (n, k, seed, rows, cols, victim, at) in [
        (3_000u64, 6.0, 11u64, 2usize, 2usize, 3usize, 2u64),
        (3_000, 6.0, 23, 2, 3, 0, 5),
        (5_000, 10.0, 5, 4, 2, 6, 8),
        (2_000, 4.0, 77, 3, 3, 4, 2),
    ] {
        let spec = GraphSpec::poisson(n, k, seed);
        let grid = ProcessorGrid::new(rows, cols);
        let graph = DistGraph::build(spec, grid);
        let adj = bgl_bfs::graph::dist::adjacency(&spec);
        let oracle = reference::bfs_levels(&adj, 1);

        let plan = FaultPlan::seeded(seed ^ 0x5eed)
            .with_drop_prob(0.2)
            .with_truncate_prob(0.05)
            .with_duplicate_prob(0.05)
            .kill_rank_at(victim, at);
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let got = bfs2d::run_resilient(
            &graph,
            &mut world,
            &BfsConfig::baseline_alltoall(),
            1,
            &ResilientConfig::default(),
        )
        .expect("resilient run must survive one death");

        assert_eq!(got.result.levels, oracle, "seed {seed} on {rows}x{cols}");
        assert_eq!(got.recoveries, 1);
        assert_eq!(got.recovered_ranks, vec![victim]);
        assert!(got.recovery_time > 0.0);
        assert!(got.result.stats.comm.faults.drops_injected > 0);
    }
}

/// Without a resilient configuration a rank death is a typed error,
/// not a panic, and it names the dead rank.
#[test]
fn rank_death_surfaces_as_typed_error() {
    let spec = GraphSpec::poisson(2_000, 6.0, 3);
    let grid = ProcessorGrid::new(2, 2);
    let graph = DistGraph::build(spec, grid);
    let plan = FaultPlan::seeded(1).kill_rank_at(2, 3);
    let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
    let err = bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 1)
        .expect_err("death must abort the non-resilient run");
    assert_eq!(err, CommError::RankDead { rank: 2 });
}

/// Cross-runtime fault determinism: the superstep simulator and the
/// real one-thread-per-rank runtime see the *same* fault schedule —
/// identical drop/truncation/duplication/retransmission counts — and
/// both still match the sequential oracle.
#[test]
fn sim_and_threaded_runtimes_share_the_fault_schedule() {
    for (seed, fault_seed, rows, cols) in [(31u64, 5u64, 2usize, 2usize), (8, 19, 2, 3)] {
        let spec = GraphSpec::poisson(2_500, 6.0, seed);
        let grid = ProcessorGrid::new(rows, cols);
        let graph = DistGraph::build(spec, grid);
        let adj = bgl_bfs::graph::dist::adjacency(&spec);
        let oracle = reference::bfs_levels(&adj, 1);
        let plan = FaultPlan::seeded(fault_seed)
            .with_drop_prob(0.15)
            .with_truncate_prob(0.05)
            .with_duplicate_prob(0.05);

        // Threaded runtime: per-rank fault counters, summed.
        let config = ThreadedConfig {
            faults: plan.clone(),
            ..ThreadedConfig::default()
        };
        let threaded = threaded_run::assemble(&graph, threaded_run::run(&graph, 1, &config))
            .expect("lossy-but-alive run must complete");
        assert_eq!(threaded.levels, oracle);

        // Simulator on the same plan: identical schedule, same counts.
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let r = bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 1)
            .expect("lossy sim run must complete");
        assert_eq!(r.levels, oracle);
        let f = &r.stats.comm.faults;
        assert_eq!(*f, threaded.faults, "seed {seed}");
        assert!(f.drops_injected > 0, "the plan must actually fire");
    }
}

/// Wire compression composes with fault injection: under a lossy plan
/// both runtimes still match the oracle, they count the *same* faults,
/// and their sender-side byte accounting is identical — retransmission
/// charges extra time, never extra bytes, so logical and wire totals
/// stay a pure function of the payloads.
#[test]
fn wire_codec_composes_with_lossy_links() {
    for (seed, fault_seed, rows, cols) in [(31u64, 5u64, 2usize, 2usize), (8, 19, 2, 3)] {
        let spec = GraphSpec::poisson(2_500, 6.0, seed);
        let grid = ProcessorGrid::new(rows, cols);
        let graph = DistGraph::build(spec, grid);
        let adj = bgl_bfs::graph::dist::adjacency(&spec);
        let oracle = reference::bfs_levels(&adj, 1);
        let plan = FaultPlan::seeded(fault_seed)
            .with_drop_prob(0.15)
            .with_truncate_prob(0.05)
            .with_duplicate_prob(0.05);

        let config = ThreadedConfig {
            faults: plan.clone(),
            wire: WirePolicy::auto(),
            ..ThreadedConfig::default()
        };
        let threaded = threaded_run::assemble(&graph, threaded_run::run(&graph, 1, &config))
            .expect("lossy-but-alive run must complete");
        let (expand, fold) = (threaded.expand_wire, threaded.fold_wire);
        let retrans = threaded.faults.retransmissions;
        assert_eq!(threaded.levels, oracle);

        let mut world = SimWorld::bluegene(grid)
            .with_fault_plan(plan)
            .with_wire_policy(WirePolicy::auto());
        let r = bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 1)
            .expect("lossy sim run must complete");
        assert_eq!(r.levels, oracle);
        assert_eq!(r.stats.comm.faults.retransmissions, retrans, "seed {seed}");
        assert!(retrans > 0, "the plan must actually fire");

        let se = r.stats.comm.class(OpClass::Expand);
        let sf = r.stats.comm.class(OpClass::Fold);
        assert_eq!(expand.logical_bytes, se.logical_bytes, "seed {seed}");
        assert_eq!(expand.wire_bytes, se.wire_bytes, "seed {seed}");
        assert_eq!(fold.logical_bytes, sf.logical_bytes, "seed {seed}");
        assert_eq!(fold.wire_bytes, sf.wire_bytes, "seed {seed}");
        assert!(
            expand.wire_bytes + fold.wire_bytes < expand.logical_bytes + fold.logical_bytes,
            "the codec must still pay under faults"
        );
    }
}

/// Wire compression composes with checkpoint/recovery: a rank death
/// under a lossy plan with the codec on still recovers to the oracle's
/// labels, and the surviving run's traffic is genuinely compressed.
#[test]
fn recovery_with_wire_codec_matches_oracle() {
    let spec = GraphSpec::poisson(3_000, 6.0, 23);
    let grid = ProcessorGrid::new(2, 3);
    let graph = DistGraph::build(spec, grid);
    let adj = bgl_bfs::graph::dist::adjacency(&spec);
    let oracle = reference::bfs_levels(&adj, 1);

    let plan = FaultPlan::seeded(0x5eed)
        .with_drop_prob(0.2)
        .with_truncate_prob(0.05)
        .with_duplicate_prob(0.05)
        .kill_rank_at(0, 5);
    let mut world = SimWorld::bluegene(grid)
        .with_fault_plan(plan)
        .with_wire_policy(WirePolicy::auto());
    let got = bfs2d::run_resilient(
        &graph,
        &mut world,
        &BfsConfig::baseline_alltoall(),
        1,
        &ResilientConfig::default(),
    )
    .expect("resilient run must survive one death with the codec on");

    assert_eq!(got.result.levels, oracle);
    assert_eq!(got.recoveries, 1);
    assert!(got.result.stats.comm.faults.drops_injected > 0);
    let comm = &got.result.stats.comm;
    assert!(comm.total_wire_bytes() < comm.total_logical_bytes());
    assert!(comm.compression_ratio() > 1.5, "expected real compression");
}

/// Checkpointing is behaviour-neutral: a recovery from the
/// every-level checkpoint lands on the plain engine's labels, and a
/// fault-free resilient run matches the plain engine exactly.
#[test]
fn checkpoint_cadence_does_not_change_the_answer() {
    let spec = GraphSpec::poisson(3_000, 8.0, 13);
    let grid = ProcessorGrid::new(2, 3);
    let graph = DistGraph::build(spec, grid);
    let config = BfsConfig::baseline_alltoall();
    let mut plain_world = SimWorld::bluegene(grid);
    let plain = bfs2d::try_run(&graph, &mut plain_world, &config, 1).unwrap();

    let plan = FaultPlan::seeded(9).kill_rank_at(5, 7);
    let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
    let got = bfs2d::run_resilient(&graph, &mut world, &config, 1, &ResilientConfig::default())
        .expect("must recover from the last checkpoint");
    assert_eq!(got.result.levels, plain.levels);
    assert_eq!(got.recoveries, 1);

    // Fault-free resilient run: same labels, zero recoveries.
    let mut world = SimWorld::bluegene(grid);
    let got = bfs2d::run_resilient(&graph, &mut world, &config, 1, &ResilientConfig::default())
        .expect("fault-free resilient run cannot fail");
    assert_eq!(got.result.levels, plain.levels);
    assert_eq!(got.recoveries, 0);
    assert_eq!(got.recovery_time, 0.0);
}

/// The same fault plan (lossy links + a buddy-pair death split across
/// parity groups) under every wire codec × host worker count (1 and
/// many): all eight cells recover through parity reconstruction and land
/// bit-identical to the sequential oracle, with identical fault
/// counters — the delivery hash is payload-independent, so the codec
/// cannot perturb the fault schedule. Within a wire mode, the 1-worker
/// and many-worker runs agree to the last bit of every clock.
#[test]
fn resilient_runs_are_bit_identical_across_wires_and_engines() {
    use bgl_bfs::WireMode;
    use common::{assert_bit_identical, PARALLEL, SERIAL};

    let spec = GraphSpec::poisson(4_000, 6.0, 31);
    let grid = ProcessorGrid::new(2, 3);
    let graph = DistGraph::build(spec, grid);
    let adj = bgl_bfs::graph::dist::adjacency(&spec);
    let oracle = reference::bfs_levels(&adj, 0);
    let plan = FaultPlan::seeded(0xfade)
        .with_drop_prob(0.15)
        .kill_rank_at(2, 4)
        .kill_rank_at(3, 4);
    let resilient = ResilientConfig {
        // ranks 2 and 3 straddle the group boundary
        parity_group_size: 3,
    };

    let mut cells = Vec::new();
    for wire in [
        WireMode::Raw,
        WireMode::Auto,
        WireMode::Delta,
        WireMode::Bitmap,
    ] {
        for workers in [SERIAL, PARALLEL] {
            let got = rayon::with_worker_threads(workers, || {
                let mut world = SimWorld::bluegene(grid)
                    .with_fault_plan(plan.clone())
                    .with_wire_policy(WirePolicy::with_mode(wire));
                let config = BfsConfig::paper_optimized();
                bfs2d::run_resilient(&graph, &mut world, &config, 0, &resilient)
                    .unwrap_or_else(|e| panic!("{wire:?}/{workers} workers must survive: {e}"))
            });
            assert_eq!(got.result.levels, oracle, "{wire:?}/{workers} workers");
            assert_eq!(got.recoveries, 2, "{wire:?}/{workers} workers");
            assert_eq!(got.degraded_restarts, 0, "{wire:?}/{workers} workers");
            assert_eq!(
                got.recovered_ranks,
                vec![2, 3],
                "{wire:?}/{workers} workers"
            );
            cells.push((wire, got));
        }
    }

    // Fault counters agree across every cell (payload-independent hash).
    let f0 = cells[0].1.result.stats.comm.faults;
    for (wire, got) in &cells {
        assert_eq!(got.result.stats.comm.faults, f0, "{wire:?}");
    }
    // Within a wire mode, worker counts are fully bit-identical.
    for pair in cells.chunks(2) {
        let (w, a) = &pair[0];
        let (_, b) = &pair[1];
        assert_bit_identical(&a.result, &b.result, &format!("{w:?}"));
        assert_eq!(
            a.recovery_time.to_bits(),
            b.recovery_time.to_bits(),
            "{w:?}"
        );
    }
}

/// Recovery traffic is not exempt from faults: making the control
/// channel lossy leaves the answer and the data-fault schedule intact
/// but adds control-class retransmissions and communication time —
/// the recovery protocol pays for its own redelivery.
#[test]
fn recovery_traffic_pays_for_faults_on_the_control_channel() {
    let spec = GraphSpec::poisson(4_000, 6.0, 13);
    let grid = ProcessorGrid::new(2, 3);
    let graph = DistGraph::build(spec, grid);
    let adj = bgl_bfs::graph::dist::adjacency(&spec);
    let oracle = reference::bfs_levels(&adj, 0);
    let resilient = ResilientConfig {
        parity_group_size: 3,
    };

    let run = |plan: FaultPlan| {
        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let got = bfs2d::run_resilient(
            &graph,
            &mut world,
            &BfsConfig::paper_optimized(),
            0,
            &resilient,
        )
        .expect("one death per group must recover");
        let control_time = world.comm_time_for(OpClass::Control);
        (got, control_time)
    };

    let clean = FaultPlan::seeded(0xc0de).kill_rank_at(1, 4);
    let lossy = FaultPlan::seeded(0xc0de)
        .kill_rank_at(1, 4)
        .with_control_drop_prob(0.5)
        .with_control_duplicate_prob(0.2);

    let (a, a_control) = run(clean);
    let (b, b_control) = run(lossy);

    assert_eq!(a.result.levels, oracle);
    assert_eq!(b.result.levels, oracle);
    assert_eq!(a.recoveries, 1);
    assert_eq!(b.recoveries, 1);
    // Recovery shipped parity logs over the control class in both runs.
    assert!(
        a_control > 0.0,
        "recovery traffic must be charged to Control"
    );
    // The lossy control channel forced retransmissions the clean one
    // did not need, and they cost simulated time.
    let fa = a.result.stats.comm.faults;
    let fb = b.result.stats.comm.faults;
    assert!(
        fb.retransmissions > fa.retransmissions,
        "control drops must surface as retransmissions ({} vs {})",
        fb.retransmissions,
        fa.retransmissions
    );
    assert!(
        b_control > a_control,
        "redelivery must be charged to Control time"
    );
    // The data exchanges are untouched: the control channel has its own
    // round counter, so the vertices moved per rank are identical.
    assert_eq!(
        a.result.stats.comm.received_per_rank,
        b.result.stats.comm.received_per_rank
    );
}
