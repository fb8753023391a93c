//! Tier-1 acceptance tests for the tracing subsystem: golden
//! determinism, zero-cost-when-disabled, cross-runtime span agreement,
//! heatmap/cost-model reconciliation, and critical-path fidelity.

use bgl_bfs::core::{bfs2d, threaded_run, BfsConfig, ResilientConfig, ThreadedConfig};
use bgl_bfs::trace::{chrome::chrome_trace, json, CriticalPath, EventKind, LinkHeatmap, Phase};
use bgl_bfs::{DistGraph, FaultPlan, GraphSpec, ProcessorGrid, SimWorld, TraceDetail};
use std::collections::BTreeSet;

fn setup(n: u64, k: f64, seed: u64, rows: usize, cols: usize) -> (DistGraph, ProcessorGrid) {
    let spec = GraphSpec::poisson(n, k, seed);
    let grid = ProcessorGrid::new(rows, cols);
    (DistGraph::build(spec, grid), grid)
}

/// Golden-trace determinism: the same seed and config must produce a
/// byte-identical Chrome trace, twice.
#[test]
fn chrome_trace_is_deterministic() {
    let (graph, grid) = setup(3_000, 6.0, 11, 2, 3);
    let render = || {
        let mut world = SimWorld::bluegene(grid);
        world.enable_trace(TraceDetail::Event);
        let _ = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0).unwrap();
        chrome_trace(&world.take_trace().unwrap())
    };
    let a = render();
    let b = render();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed/config must trace byte-identically");
    // And the export is valid JSON by our own parser.
    let doc = json::parse(&a).expect("chrome trace must parse");
    assert!(doc.get("traceEvents").and_then(|v| v.as_arr()).is_some());
}

/// The disabled sink allocates nothing and tracing never perturbs the
/// simulated clock: a traced run and an untraced run of the same search
/// report bit-identical times.
#[test]
fn disabled_tracing_is_free_and_never_perturbs_the_clock() {
    let (graph, grid) = setup(3_000, 6.0, 13, 2, 2);

    let mut untraced = SimWorld::bluegene(grid);
    let plain = bfs2d::try_run(&graph, &mut untraced, &BfsConfig::paper_optimized(), 0).unwrap();
    assert!(!untraced.trace().is_enabled());
    assert_eq!(
        untraced.trace().allocated(),
        0,
        "no-op sink must not allocate"
    );

    let mut traced = SimWorld::bluegene(grid);
    traced.enable_trace(TraceDetail::Event);
    let r = bfs2d::try_run(&graph, &mut traced, &BfsConfig::paper_optimized(), 0).unwrap();
    assert_eq!(plain.levels, r.levels);
    assert_eq!(
        plain.stats.sim_time.to_bits(),
        r.stats.sim_time.to_bits(),
        "recording events must not change simulated time"
    );
    assert!(!traced.take_trace().unwrap().is_empty());
}

/// Both runtimes trace the same collective phases: the deduplicated
/// (phase, level) span key set of a simulator run equals that of a
/// threaded run of the same search (order-insensitive — wall-clock
/// interleaving differs, the structure must not).
#[test]
fn sim_and_threaded_runs_trace_identical_span_sets() {
    let (graph, grid) = setup(2_000, 5.0, 17, 2, 2);
    // The threaded runtime hard-codes targeted expand + direct fold.
    let config = BfsConfig::baseline_alltoall();

    let mut world = SimWorld::bluegene(grid);
    world.enable_trace(TraceDetail::Span);
    let sim = bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
    let sim_buf = world.take_trace().unwrap();

    let threaded_config = ThreadedConfig {
        sent_neighbors: config.sent_neighbors,
        trace: Some(TraceDetail::Span),
        ..ThreadedConfig::default()
    };
    let outs = threaded_run::run(&graph, 0, &threaded_config);
    let threaded = threaded_run::assemble(&graph, outs).unwrap();
    assert_eq!(sim.levels, threaded.levels);

    let span_keys = |events: Vec<(usize, bgl_bfs::trace::TraceEvent)>| -> BTreeSet<(Phase, u32)> {
        events
            .into_iter()
            .filter_map(|(_, ev)| match ev.kind {
                EventKind::Span { phase, level } => Some((phase, level)),
                _ => None,
            })
            .collect()
    };
    let sim_keys = span_keys(sim_buf.events());
    let thr_keys = span_keys(threaded.trace.unwrap().events());
    assert!(!sim_keys.is_empty());
    assert_eq!(sim_keys, thr_keys, "runtimes must trace the same phases");
}

/// The heatmap's Σ bytes × hops, replayed purely from recorded send
/// events, equals the cost model's own per-link accounting for the same
/// run — the trace is a faithful record of the wire.
#[test]
fn heatmap_reconciles_with_cost_model_link_accounting() {
    let (graph, grid) = setup(4_000, 8.0, 23, 3, 3);
    let mut world = SimWorld::bluegene(grid);
    world.enable_traffic_accounting();
    world.enable_trace(TraceDetail::Event);
    let _ = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0).unwrap();

    let traffic_total = world.traffic().unwrap().sum_link_bytes();
    let buf = world.take_trace().unwrap();
    let events: Vec<_> = buf.events().into_iter().map(|(_, ev)| ev).collect();
    let machine = *world.cost_model().machine();
    let hm = LinkHeatmap::from_events(events.iter(), world.mapping(), &machine);
    assert!(hm.sends() > 0);
    assert_eq!(
        hm.total_bytes_hops(),
        traffic_total,
        "heatmap must reproduce the α–β–hop Σ bytes × hops exactly"
    );
    assert_eq!(hm.total_bytes(), world.traffic().unwrap().total_bytes());
}

/// With the adaptive wire codec on, the trace still reconciles with the
/// cost model: Send events carry *encoded* frame sizes, so the heatmap's
/// byte totals equal `LinkTraffic`'s, both equal the stats' wire-byte
/// counters, and the summary's wire object reports the same compression
/// the stats do — the golden trace documents the codec's effect.
#[test]
fn compressed_send_bytes_reconcile_trace_traffic_and_stats() {
    use bgl_bfs::trace::WireSummary;
    use bgl_bfs::WirePolicy;
    let (graph, grid) = setup(4_000, 8.0, 23, 3, 3);
    let mut world = SimWorld::bluegene(grid).with_wire_policy(WirePolicy::auto());
    world.enable_traffic_accounting();
    world.enable_trace(TraceDetail::Event);
    let r = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0).unwrap();

    let (traffic_hops, traffic_bytes) = {
        let traffic = world.traffic().unwrap();
        (traffic.sum_link_bytes(), traffic.total_bytes())
    };
    let buf = world.take_trace().unwrap();
    let events: Vec<_> = buf.events().into_iter().map(|(_, ev)| ev).collect();
    let machine = *world.cost_model().machine();
    let hm = LinkHeatmap::from_events(events.iter(), world.mapping(), &machine);
    assert_eq!(hm.total_bytes_hops(), traffic_hops);
    assert_eq!(hm.total_bytes(), traffic_bytes);
    assert_eq!(hm.total_bytes(), r.stats.comm.total_wire_bytes());

    let wire = WireSummary::from_events(events.iter());
    assert_eq!(wire.wire_bytes, r.stats.comm.total_wire_bytes());
    assert_eq!(wire.logical_bytes(), r.stats.comm.total_logical_bytes());
    assert!(
        wire.compression_ratio() > 1.5,
        "codec must pay on the trace"
    );
    assert!(
        (wire.codec_time - r.stats.codec_time).abs() <= 1e-12 * r.stats.codec_time,
        "traced codec compute must reconcile with the stats clock"
    );
}

/// Critical-path fidelity: every level's bounding span is the level span
/// itself, whose duration equals the recorded LevelStats sim_time
/// bit-for-bit; phase slices partition the level; coverage is ≥ 90%.
#[test]
fn critical_path_matches_level_stats() {
    let (graph, grid) = setup(5_000, 8.0, 29, 2, 3);
    let mut world = SimWorld::bluegene(grid);
    world.enable_trace(TraceDetail::Span);
    let r = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0).unwrap();
    let buf = world.take_trace().unwrap();

    let cp = CriticalPath::analyze(&buf);
    assert_eq!(cp.levels.len(), r.stats.levels.len());
    for (lvl, rec) in cp.levels.iter().zip(&r.stats.levels) {
        assert_eq!(lvl.level, rec.level);
        assert_eq!(
            lvl.duration().to_bits(),
            rec.sim_time.to_bits(),
            "level {} span must equal its LevelStats sim_time",
            rec.level
        );
        // The phase slices cover the level exactly (max-over-ranks BSP
        // accounting: phases are serial on the simulated clock).
        let phase_sum: f64 = lvl.phases.iter().map(|p| p.duration).sum();
        assert!(
            (phase_sum - lvl.duration()).abs() <= 1e-12 * lvl.duration().max(1.0),
            "phase slices must partition level {}",
            rec.level
        );
        assert!(lvl.bounding().is_some());
    }
    assert!(
        cp.coverage() >= 0.9,
        "level spans must cover >=90% of traced time, got {}",
        cp.coverage()
    );
    // The summary export round-trips through our JSON parser.
    let doc = json::parse(&cp.to_summary_json()).expect("summary must parse");
    assert!(doc.get("coverage").and_then(|v| v.as_f64()).unwrap() >= 0.9);
}

/// Resilient runs leave a fault-visible trace: the scheduled death, the
/// checkpoints, and the recovery all appear as events.
#[test]
fn resilient_trace_records_death_checkpoint_and_recovery() {
    let (graph, grid) = setup(3_000, 6.0, 31, 2, 3);
    let plan = FaultPlan::seeded(5).kill_rank_at(4, 3);
    let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
    world.enable_trace(TraceDetail::Span);
    let got = bfs2d::run_resilient(
        &graph,
        &mut world,
        &BfsConfig::paper_optimized(),
        0,
        &ResilientConfig::default(),
    )
    .unwrap();
    assert_eq!(got.recoveries, 1);

    let buf = world.take_trace().unwrap();
    let events: Vec<_> = buf.events().into_iter().map(|(_, ev)| ev.kind).collect();
    assert!(events
        .iter()
        .any(|k| matches!(k, EventKind::RankDeath { rank: 4, .. })));
    assert!(events
        .iter()
        .any(|k| matches!(k, EventKind::Recovery { rank: 4 })));
    assert!(events
        .iter()
        .any(|k| matches!(k, EventKind::Checkpoint { .. })));
    assert!(events.iter().any(|k| matches!(
        k,
        EventKind::Span {
            phase: Phase::Recovery,
            ..
        }
    )));
}

/// Lossy exchanges surface as retransmit events carrying the retry
/// count, in both runtimes' traces.
#[test]
fn retransmits_are_traced() {
    let (graph, grid) = setup(2_000, 6.0, 37, 2, 2);
    let plan = FaultPlan::seeded(7).with_drop_prob(0.3);
    let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
    world.enable_trace(TraceDetail::Event);
    let r = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0).unwrap();
    assert!(r.stats.comm.faults.retransmissions > 0);
    let buf = world.take_trace().unwrap();
    let retries: u64 = buf
        .events()
        .into_iter()
        .filter_map(|(_, ev)| match ev.kind {
            EventKind::Retransmit { retries, .. } => Some(retries as u64),
            _ => None,
        })
        .sum();
    assert_eq!(
        retries, r.stats.comm.faults.retransmissions,
        "traced retries must reconcile with the fault counters"
    );
}

/// Regression (stat-accumulation audit): a checkpoint/recover run under
/// a death-only plan replays the rolled-back levels exactly — its
/// per-level records, totals and label output match a fault-free run of
/// the same search, with nothing double-counted.
#[test]
fn resilient_level_records_are_not_double_counted() {
    let (graph, grid) = setup(4_000, 6.0, 41, 2, 3);

    let mut clean = SimWorld::bluegene(grid);
    let plain = bfs2d::try_run(&graph, &mut clean, &BfsConfig::paper_optimized(), 0).unwrap();

    let plan = FaultPlan::seeded(5).kill_rank_at(2, 4);
    let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
    let got = bfs2d::run_resilient(
        &graph,
        &mut world,
        &BfsConfig::paper_optimized(),
        0,
        &ResilientConfig::default(),
    )
    .unwrap();
    assert_eq!(got.recoveries, 1);
    assert_eq!(got.result.levels, plain.levels);

    // One record per level — the rolled-back attempts must not linger.
    let recs = &got.result.stats.levels;
    assert_eq!(recs.len(), plain.stats.levels.len());
    for (a, b) in recs.iter().zip(&plain.stats.levels) {
        assert_eq!(a.level, b.level);
        assert_eq!(a.frontier, b.frontier, "level {}", a.level);
        assert_eq!(a.expand_received, b.expand_received, "level {}", a.level);
        assert_eq!(a.fold_received, b.fold_received, "level {}", a.level);
        assert_eq!(a.dups_eliminated, b.dups_eliminated, "level {}", a.level);
    }
    // Frontier sizes still sum to the reached count (counted once).
    let frontier_sum: u64 = recs.iter().map(|l| l.frontier).sum();
    assert_eq!(frontier_sum, got.result.stats.reached);
    assert_eq!(got.result.stats.reached, plain.stats.reached);
}
