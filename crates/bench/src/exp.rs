//! Shared experiment plumbing for the figure/table binaries.

use crate::harness::Args;
use bfs_core::state::{gather_levels, RankState};
use bfs_core::{bfs2d, BfsConfig};
use bgl_comm::{CommError, ProcessorGrid, SimWorld, Vert, WireMode, WirePolicy};
use bgl_graph::{DistGraph, GraphSpec};

/// Deterministic per-experiment source vertices: spread across the
/// vertex space, avoiding trivial 0.
pub fn sources(n: u64, count: usize) -> Vec<u64> {
    (0..count as u64)
        .map(|i| (i * 2 + 1) * n / (2 * count as u64))
        .collect()
}

/// Build the distributed graph and a matching simulated BlueGene/L
/// partition.
pub fn build(spec: GraphSpec, grid: ProcessorGrid) -> (DistGraph, SimWorld) {
    let graph = DistGraph::build(spec, grid);
    let world = SimWorld::bluegene(grid);
    (graph, world)
}

/// Parse the shared `--wire auto|raw|delta|bitmap` flag: the wire-codec
/// policy applied to every exchange (raw = codec off, the default, so
/// existing experiment outputs are unchanged unless asked for).
pub fn wire_policy(args: &Args) -> WirePolicy {
    match args.str("wire") {
        None => WirePolicy::raw(),
        Some(s) => WirePolicy::with_mode(
            WireMode::parse(s)
                .unwrap_or_else(|| panic!("--wire expects auto, raw, delta, or bitmap; got {s:?}")),
        ),
    }
}

/// Apply the shared `--engine-threads N` flag: overrides how many host
/// worker threads run the per-rank compute and exchange precompute (0 or
/// absent = one per available core; 1 = sequential). Call once at binary start, before any searches.
pub fn apply_engine_threads(args: &Args) {
    if let Some(n) = args.str("engine-threads") {
        let n: usize = n
            .parse()
            .unwrap_or_else(|_| panic!("--engine-threads expects an integer, got {n:?}"));
        rayon::set_worker_threads(n);
    }
}

/// Drive a top-down search of `graph` from `source` level by level on
/// the calling thread, with the sent-neighbors cache on: targeted
/// expand (`expand`, one rank's `(peer, frontier list)` sends),
/// `discover` (every rank's fold blocks from the F̄ lists it received),
/// direct fold to the processor-row peers, absorb. Returns the final
/// global level array.
pub fn top_down_levels(
    graph: &DistGraph,
    source: Vert,
    mut expand: impl FnMut(&mut RankState<'_>) -> Vec<(usize, Vec<Vert>)>,
    mut discover: impl FnMut(&mut [RankState<'_>], &[Vec<Vec<Vert>>]) -> Vec<Vec<Vec<Vert>>>,
) -> Vec<u32> {
    let grid = graph.grid();
    let mut states: Vec<RankState<'_>> = graph
        .ranks
        .iter()
        .map(|rg| RankState::new(rg, graph.partition, true))
        .collect();
    for st in states.iter_mut() {
        st.init_source(source);
    }
    for level in 1.. {
        let mut fbar: Vec<Vec<Vec<Vert>>> = vec![Vec::new(); grid.len()];
        for st in states.iter_mut() {
            for (peer, list) in expand(st) {
                fbar[peer].push(list);
            }
        }
        if fbar.iter().all(Vec::is_empty) {
            break;
        }
        let blocks = discover(&mut states, &fbar);
        let mut nbar: Vec<Vec<&[Vert]>> = vec![Vec::new(); grid.len()];
        for (rank, own) in blocks.iter().enumerate() {
            for (m, block) in own.iter().enumerate() {
                nbar[grid.rank_of(grid.row_of(rank), m)].push(block);
            }
        }
        for (st, lists) in states.iter_mut().zip(&nbar) {
            st.absorb(lists, level);
        }
    }
    gather_levels(&states, graph.spec.n)
}

/// Outcome of averaging several searches.
#[derive(Debug, Clone, Copy)]
pub struct MeanTimes {
    /// Mean simulated execution time per search (seconds).
    pub exec: f64,
    /// Mean simulated communication time per search (seconds).
    pub comm: f64,
    /// Mean number of levels per search.
    pub levels: f64,
}

/// Run a full-component BFS from each source and average the simulated
/// times. The world is reset between searches.
pub fn mean_search(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &BfsConfig,
    srcs: &[u64],
) -> Result<MeanTimes, CommError> {
    let mut exec = 0.0;
    let mut comm = 0.0;
    let mut levels = 0.0;
    for &s in srcs {
        world.reset();
        let r = bfs2d::try_run(graph, world, config, s)?;
        exec += r.stats.sim_time;
        comm += r.stats.comm_time;
        levels += r.stats.num_levels() as f64;
    }
    let c = srcs.len() as f64;
    Ok(MeanTimes {
        exec: exec / c,
        comm: comm / c,
        levels: levels / c,
    })
}

/// Run one traced search and write the trace artifacts
/// (`TRACE_chrome.json` + `TRACE_summary.json`) into `dir`. Returns the
/// report so callers can print the critical path. The world's trace is
/// drained afterwards, so subsequent measured runs are untraced.
pub fn traced_search(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &BfsConfig,
    source: u64,
    dir: &std::path::Path,
) -> Result<bgl_trace::TraceReport, Box<dyn std::error::Error>> {
    world.reset();
    world.enable_trace(bgl_trace::TraceDetail::Event);
    bfs2d::try_run(graph, world, config, source)?;
    let buf = world.take_trace().expect("trace was just enabled");
    let machine = *world.cost_model().machine();
    bgl_trace::write_artifacts(&buf, world.mapping(), &machine, dir).map_err(Into::into)
}

/// Fit `y ≈ a + b·log2(x)` by least squares and return `(a, b, r2)` —
/// used to confirm the paper's "execution time increases in proportion
/// to log P" regression claim.
pub fn fit_log(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2);
    let lx: Vec<f64> = xs.iter().map(|&x| x.log2()).collect();
    let n = xs.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxy: f64 = lx.iter().zip(ys).map(|(&x, &y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = lx.iter().map(|&x| (x - mx) * (x - mx)).sum();
    let b = if sxx == 0.0 { 0.0 } else { sxy / sxx };
    let a = my - b * mx;
    let ss_tot: f64 = ys.iter().map(|&y| (y - my) * (y - my)).sum();
    let ss_res: f64 = lx
        .iter()
        .zip(ys)
        .map(|(&x, &y)| {
            let e = y - (a + b * x);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    (a, b, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_in_range_distinct() {
        let s = sources(1000, 4);
        assert_eq!(s.len(), 4);
        for &v in &s {
            assert!(v < 1000);
        }
        let mut d = s.clone();
        d.dedup();
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn fit_log_recovers_exact_relation() {
        let xs: Vec<f64> = vec![1.0, 2.0, 4.0, 8.0, 16.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 0.5 * x.log2()).collect();
        let (a, b, r2) = fit_log(&xs, &ys);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 0.5).abs() < 1e-9);
        assert!(r2 > 0.999999);
    }

    #[test]
    fn mean_search_runs() {
        let spec = GraphSpec::poisson(500, 8.0, 3);
        let grid = ProcessorGrid::new(2, 2);
        let (graph, mut world) = build(spec, grid);
        let m = mean_search(
            &graph,
            &mut world,
            &BfsConfig::paper_optimized(),
            &sources(500, 2),
        )
        .unwrap();
        assert!(m.exec > 0.0);
        assert!(m.comm > 0.0);
        assert!(m.levels >= 2.0);
        assert!(m.exec >= m.comm);
    }
}
