//! The paper's scalability invariants, checked empirically end-to-end:
//! fixed message buffers (§3.1), O(n/P) storage (§2.4.1), strategy
//! equivalence, and the 1D ≡ 2D(R=1) degeneracy (§2.2).

use bgl_bfs::comm::{ChunkPolicy, OpClass};
use bgl_bfs::core::{bfs2d, reference, theory};
use bgl_bfs::torus::{MachineConfig, TaskMappingKind};
use bgl_bfs::{
    BfsConfig, DirectionPolicy, DistGraph, FoldStrategy, GraphSpec, ProcessorGrid, SimWorld,
    WirePolicy,
};

/// §3.1: with fixed-length message buffers, the peak single-message
/// buffer a run needs is capped by the chunk capacity regardless of P.
#[test]
fn fixed_buffers_bound_peak_message_independent_of_p() {
    let chunk = 64usize;
    let mut peaks = Vec::new();
    for p in [4usize, 16, 64] {
        let per_rank = 500u64;
        let n = per_rank * p as u64;
        let spec = GraphSpec::poisson(n, 10.0, 5);
        let grid = ProcessorGrid::square_ish(p);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::new(
            grid,
            MachineConfig::bluegene_l_partition(MachineConfig::fit_partition(p)),
            TaskMappingKind::FoldedPlanes,
            ChunkPolicy::fixed(chunk),
        );
        let _ = bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 1).unwrap();
        peaks.push(world.stats.peak_buffer_verts);
    }
    for &peak in &peaks {
        assert!(peak <= chunk, "peak {peak} exceeds fixed buffer {chunk}");
    }
}

/// §3.1: without chunking, the unbounded peak grows with the problem —
/// the contrast that motivates fixed buffers.
#[test]
fn unbounded_buffers_grow_with_problem_size() {
    let mut peaks = Vec::new();
    for n in [2_000u64, 8_000, 32_000] {
        let spec = GraphSpec::poisson(n, 10.0, 5);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let _ = bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 1).unwrap();
        peaks.push(world.stats.peak_buffer_verts);
    }
    assert!(
        peaks[0] < peaks[1] && peaks[1] < peaks[2],
        "peaks {peaks:?}"
    );
}

/// §2.4.1: per-rank storage (non-empty lists, unique row ids) stays
/// near n/P as P grows at fixed n — the memory-scalability claim.
#[test]
fn per_rank_index_storage_scales_as_n_over_p() {
    let n = 20_000u64;
    let spec = GraphSpec::poisson(n, 8.0, 9);
    for p in [4usize, 16, 64] {
        let grid = ProcessorGrid::square_ish(p);
        let graph = DistGraph::build(spec, grid);
        let bound = 8.0 * 8.0 * n as f64 / p as f64; // ~ k * n/P with slack
        for r in &graph.ranks {
            assert!(
                (r.edges.num_cols() as f64) < bound,
                "P={p}: rank {} indexes {} columns",
                r.rank,
                r.edges.num_cols()
            );
            assert!(
                (r.edges.num_row_ids() as f64) < bound,
                "P={p}: rank {} indexes {} row ids",
                r.rank,
                r.edges.num_row_ids()
            );
        }
    }
}

/// All nine expand × fold strategy combinations move the frontier to the
/// same labels AND report the same reached count.
#[test]
fn all_strategy_combinations_equivalent() {
    use bgl_bfs::{ExpandStrategy, FoldStrategy};
    let spec = GraphSpec::poisson(600, 7.0, 33);
    let grid = ProcessorGrid::new(3, 4);
    let graph = DistGraph::build(spec, grid);
    let mut reference: Option<Vec<u32>> = None;
    for expand in [
        ExpandStrategy::Targeted,
        ExpandStrategy::AllGatherRing,
        ExpandStrategy::TwoPhaseRing,
    ] {
        for fold in [
            FoldStrategy::DirectAllToAll,
            FoldStrategy::ReduceScatterUnion,
            FoldStrategy::TwoPhaseRing,
        ] {
            let mut world = SimWorld::bluegene(grid);
            let config = BfsConfig {
                expand,
                fold,
                ..BfsConfig::default()
            };
            let got = bfs2d::try_run(&graph, &mut world, &config, 2).unwrap();
            match &reference {
                None => reference = Some(got.levels),
                Some(r) => assert_eq!(&got.levels, r, "{expand:?}/{fold:?}"),
            }
        }
    }
}

/// §2.2: Algorithm 1 is Algorithm 2 at R = 1. On a `1 × P` grid every
/// processor-column is a single rank, so the expand sends nothing on any
/// level, in either direction and under every fold strategy, and the
/// labels are still the sequential oracle's.
#[test]
fn one_d_is_degenerate_two_d() {
    let spec = GraphSpec::poisson(700, 9.0, 17);
    let adj = bgl_bfs::graph::dist::adjacency(&spec);
    let expect = reference::bfs_levels(&adj, 0);
    for p in [1usize, 2, 5, 8] {
        let grid = ProcessorGrid::one_d(p);
        let graph = DistGraph::build(spec, grid);
        for fold in [
            FoldStrategy::DirectAllToAll,
            FoldStrategy::ReduceScatterUnion,
            FoldStrategy::TwoPhaseRing,
        ] {
            for direction in [DirectionPolicy::TopDown, DirectionPolicy::Adaptive] {
                let what = format!("p={p} {fold:?} {direction:?}");
                let config = BfsConfig {
                    fold,
                    direction,
                    ..BfsConfig::default()
                };
                let mut world = SimWorld::bluegene(grid).with_wire_policy(WirePolicy::auto());
                let r = bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
                assert_eq!(r.levels, expect, "{what}");
                assert!(r.stats.total_probes() > 0, "{what}");
                assert!(
                    r.stats.levels.iter().all(|l| l.expand_received == 0),
                    "{what}: a level received expand vertices"
                );
                // The class counters only grow, so zero totals mean zero
                // on every level.
                let expand = r.stats.comm.class(OpClass::Expand);
                assert_eq!(expand.messages, 0, "{what}");
                assert_eq!(expand.logical_bytes, 0, "{what}");
                assert_eq!(expand.wire_bytes, 0, "{what}");
                if p > 1 {
                    assert!(r.stats.comm.class(OpClass::Fold).messages > 0, "{what}");
                }
            }
        }
    }
}

/// §3.1: measured expand volume under the targeted strategy respects the
/// analytic worst-case bound n/P·k per processor (whole search, with
/// slack for variance).
#[test]
fn targeted_expand_respects_analytic_bound() {
    let n = 10_000u64;
    let k = 12.0;
    let spec = GraphSpec::poisson(n, k, 21);
    let grid = ProcessorGrid::new(4, 4);
    let graph = DistGraph::build(spec, grid);
    let mut world = SimWorld::bluegene(grid);
    let r = bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 1).unwrap();
    let per_proc = r.stats.comm.class(OpClass::Expand).received_verts as f64 / grid.len() as f64;
    let bound = theory::worst_case_len(n as f64, k, grid.len() as f64);
    assert!(
        per_proc <= 1.5 * bound,
        "measured per-proc expand {per_proc} vs bound {bound}"
    );
    // And the analytic expectation is a good predictor (within 2x).
    let expect = theory::expected_len_2d_expand(n as f64, k, 16.0, 4.0);
    assert!(
        per_proc < 2.0 * expect && per_proc > 0.3 * expect,
        "measured {per_proc} vs expected {expect}"
    );
}

/// The mean-field frontier model (branching process) predicts the
/// simulator's measured per-level frontier sizes through the growth
/// phase, and the giant-component fixed point predicts the reached
/// count — the analytic backbone of the Figure 4.b claim.
#[test]
fn measured_frontiers_track_mean_field_model() {
    let n = 50_000u64;
    let k = 10.0;
    // The branching-process model predicts frontiers for a *typical*
    // source; early levels scale with the actual source degree, so the
    // fixed seed must give the source a degree close to k (seed 2 does:
    // the level-1 frontier is 11 with k = 10).
    let spec = GraphSpec::poisson(n, k, 2);
    let grid = ProcessorGrid::new(4, 4);
    let graph = DistGraph::build(spec, grid);
    let mut world = SimWorld::bluegene(grid);
    let r = bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 1).unwrap();

    let predicted = theory::expected_frontiers(n as f64, k);
    let measured: Vec<f64> = r.stats.levels.iter().map(|l| l.frontier as f64).collect();
    // Same level count within one.
    assert!(
        (predicted.len() as i64 - measured.len() as i64).abs() <= 1,
        "levels: predicted {} measured {}",
        predicted.len(),
        measured.len()
    );
    // Through the growth phase (frontiers > 20 and < n/10) the model is
    // accurate to ~30%.
    for (l, (&m, &p)) in measured.iter().zip(&predicted).enumerate() {
        if m > 20.0 && m < n as f64 / 10.0 {
            assert!(
                (m - p).abs() / p < 0.3,
                "level {l}: measured {m} vs predicted {p}"
            );
        }
    }
    // Reached count matches the giant-component prediction within 1%.
    let giant = theory::giant_component_fraction(k) * n as f64;
    assert!(
        (r.stats.reached as f64 - giant).abs() / giant < 0.01,
        "reached {} vs giant {giant}",
        r.stats.reached
    );
}

/// The sent-neighbors cache (§2.4.3) strictly reduces fold traffic.
#[test]
fn sent_neighbors_cache_reduces_fold_volume() {
    let spec = GraphSpec::poisson(3_000, 15.0, 8);
    let grid = ProcessorGrid::new(2, 4);
    let graph = DistGraph::build(spec, grid);

    let run = |sent: bool| {
        let mut world = SimWorld::bluegene(grid);
        let config = BfsConfig {
            sent_neighbors: sent,
            ..BfsConfig::baseline_alltoall()
        };
        let r = bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
        (r.levels, r.stats.comm.class(OpClass::Fold).received_verts)
    };
    let (levels_on, fold_on) = run(true);
    let (levels_off, fold_off) = run(false);
    assert_eq!(levels_on, levels_off);
    assert!(
        fold_on < fold_off,
        "cache on {fold_on} must be < cache off {fold_off}"
    );
}

/// The union-fold does real duplicate elimination at high degree: the
/// vertices it unions away en route are comparable in volume to the
/// vertices it actually delivers (Figure 7's premise), and the §3.2.2
/// two-phase grouping makes the union ring cheaper than the full ring
/// in modeled time without changing results.
#[test]
fn union_fold_eliminates_heavily_and_two_phase_is_cheaper() {
    use bgl_bfs::FoldStrategy;
    let spec = GraphSpec::poisson(1_000, 100.0, 3);
    let grid = ProcessorGrid::new(2, 6);
    let graph = DistGraph::build(spec, grid);

    let run_fold = |fold| {
        let mut world = SimWorld::bluegene(grid);
        let config = BfsConfig {
            fold,
            sent_neighbors: false, // maximize duplicates in flight
            ..BfsConfig::default()
        };
        let r = bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
        (
            r.levels,
            world.stats.class(OpClass::Fold).wire_verts,
            world.stats.total_dups_eliminated(),
            world.comm_time(),
        )
    };
    let (lv_direct, _, dups_direct, _) = run_fold(FoldStrategy::DirectAllToAll);
    let (lv_ring, wire_ring, dups_ring, t_ring) = run_fold(FoldStrategy::ReduceScatterUnion);
    let (lv_two, _, dups_two, t_two) = run_fold(FoldStrategy::TwoPhaseRing);

    assert_eq!(lv_direct, lv_ring);
    assert_eq!(lv_direct, lv_two);
    assert_eq!(dups_direct, 0, "direct fold performs no en-route unions");
    assert_eq!(
        dups_ring, dups_two,
        "both union strategies remove the same set"
    );
    // At k=100 the duplicate volume rivals the delivered volume.
    assert!(
        dups_ring as f64 > 0.5 * wire_ring as f64,
        "dups {dups_ring} vs wire {wire_ring}"
    );
    assert!(
        t_two < t_ring,
        "two-phase {t_two} should model cheaper than full ring {t_ring}"
    );
}
