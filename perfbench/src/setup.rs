//! Graph inputs: seeded specs and sources, timed set-up, and the
//! construction pipeline timed step by step for the traced run.

use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, Fnv};
use bgl_comm::ProcessorGrid;
use bgl_graph::{gen, DistGraph, GraphFamily, GraphSpec, PartialEdgeLists, TwoDPartition, Vertex};
use std::time::Instant;

/// Graph family of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's Poisson random graph.
    Poisson,
    /// Graph500 R-MAT (a = .57, b = c = .19).
    RMat,
}

/// The graph a workload searches.
#[derive(Debug, Clone, Copy)]
pub struct GraphParams {
    /// Generator family.
    pub family: Family,
    /// `n = 2^log_n` vertices.
    pub log_n: u32,
    /// Average degree.
    pub k: f64,
    /// Processor-grid rows.
    pub rows: usize,
    /// Processor-grid columns.
    pub cols: usize,
}

impl GraphParams {
    /// The generator spec for graph seed `seed`.
    pub fn spec(&self, seed: u64) -> GraphSpec {
        let n = 1u64 << self.log_n;
        match self.family {
            Family::Poisson => GraphSpec::poisson(n, self.k, seed),
            Family::RMat => GraphSpec::rmat(n, self.k, seed),
        }
    }

    /// The simulated processor grid.
    pub fn grid(&self) -> ProcessorGrid {
        ProcessorGrid::new(self.rows, self.cols)
    }

    /// One-line description.
    pub fn describe(&self) -> String {
        let family = match self.family {
            Family::Poisson => "poisson",
            Family::RMat => "rmat(.57,.19,.19)",
        };
        format!(
            "{family} n=2^{} k={} grid={}x{} ({} simulated ranks)",
            self.log_n,
            self.k,
            self.rows,
            self.cols,
            self.rows * self.cols
        )
    }
}

/// SplitMix64 step.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of one input stream (`"graph"`, `"sources"`, `"queries"`,
/// `"arrivals"`) derived from the workload seed.
pub fn derive(seed: u64, stream: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(stream.as_bytes());
    let mut s = seed ^ h.0;
    splitmix(&mut s)
}

/// `count` distinct vertices of degree at least one, drawn from `seed`
/// (the Graph500 source rule).
pub fn choose_sources(adj: &[Vec<Vertex>], seed: u64, count: usize) -> Vec<Vertex> {
    let n = adj.len() as u64;
    let eligible = adj.iter().filter(|a| !a.is_empty()).count();
    assert!(
        eligible >= count,
        "graph has only {eligible} vertices of degree >= 1"
    );
    let mut state = seed;
    let mut out: Vec<Vertex> = Vec::with_capacity(count);
    while out.len() < count {
        let v = splitmix(&mut state) % n;
        if !adj[v as usize].is_empty() && !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Set-ups per untraced run; their median is `setup_s`.
const SETUP_REPS: usize = 3;

/// Run `build` [`SETUP_REPS`] times, report the median wall time as
/// `setup_s`, and return the last result. The previous result is dropped
/// before the next build starts, so peak memory holds one.
pub fn timed_setup<T>(rep: &mut Report, what: &str, mut build: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<T> = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    rep.set(
        "setup_s",
        median(&times),
        format!("median of {SETUP_REPS} set-ups: {what}"),
    );
    last.expect("SETUP_REPS is positive")
}

/// Set up the graph the way `DistGraph::build` does, one step at a time
/// under spans (generate, bucket by storing rank, per-rank CSR), then
/// time `DistGraph::build` whole and check that both produce the same
/// partial edge lists. Sets the `graph.*` metrics.
pub fn decomposed_build(
    spec: GraphSpec,
    grid: ProcessorGrid,
    sp: &mut Spans,
    rep: &mut Report,
) -> DistGraph {
    let partition = TwoDPartition::new(spec.n, grid);
    let mut buckets: Vec<Vec<(Vertex, Vertex)>> = vec![Vec::new(); grid.len()];
    let mut bucket = |sp: &mut Spans, entries: Vec<(Vertex, Vertex)>, op: u64| {
        let id = sp.enter("graph.bucket", Some(op));
        for (u, v) in entries {
            buckets[partition.storer_of_entry(u, v)].push((u, v));
        }
        sp.exit(id);
    };
    let decomposed = sp.enter("graph.decomposed", None);
    match spec.family {
        GraphFamily::Poisson => {
            let cgrid = gen::ChunkGrid::new(spec.n);
            for (i, (cr, cc)) in gen::full_cells(&cgrid).into_iter().enumerate() {
                let entries = sp.time("graph.gen", Some(i as u64), || {
                    gen::cell_entries(&spec, &cgrid, cr, cc)
                });
                bucket(sp, entries, i as u64);
            }
        }
        GraphFamily::RMat { .. } => {
            let stride = 1 << 16;
            let chunks = gen::rmat_draws(&spec).div_ceil(stride).max(1);
            for ci in 0..chunks {
                let entries = sp.time("graph.gen", Some(ci), || {
                    gen::rmat_chunk_edges(&spec, ci, stride)
                });
                bucket(sp, entries, ci);
            }
        }
        GraphFamily::SmallWorld { .. } => unreachable!("no workload uses the small-world family"),
    }
    let csr: Vec<PartialEdgeLists> = buckets
        .into_iter()
        .enumerate()
        .map(|(rank, b)| {
            sp.time("graph.csr", Some(rank as u64), || {
                PartialEdgeLists::from_entries(b)
            })
        })
        .collect();
    sp.exit(decomposed);
    let graph = sp.time("graph.build", None, || DistGraph::build(spec, grid));

    if graph.ranks.iter().zip(&csr).any(|(r, c)| r.edges != *c) {
        rep.tally
            .error("decomposed construction differs from DistGraph::build".to_string());
    }
    let (gen_s, bucket_s, csr_s) = (
        sp.total("graph.gen"),
        sp.total("graph.bucket"),
        sp.total("graph.csr"),
    );
    let build_s = sp.total("graph.build");
    rep.set(
        "graph.gen_s",
        gen_s,
        "generator calls (cell_entries / rmat_chunk_edges)",
    );
    rep.set("graph.bucket_s", bucket_s, "storer_of_entry bucketing");
    rep.set(
        "graph.csr_s",
        csr_s,
        "PartialEdgeLists::from_entries, summed over ranks",
    );
    rep.set(
        "graph.csr_max_rank_s",
        sp.max("graph.csr"),
        "slowest rank's from_entries",
    );
    rep.set("graph.build_s", build_s, "DistGraph::build, whole");
    rep.set(
        "graph.other_s",
        build_s - gen_s - bucket_s - csr_s,
        "build - gen - bucket - csr: registration plus vendored-rayon overhead",
    );
    rep.set(
        "graph.entries",
        graph.total_entries() as f64,
        "adjacency entries stored",
    );
    let max_entries = graph
        .ranks
        .iter()
        .map(|r| r.edges.num_entries())
        .max()
        .unwrap_or(0);
    rep.set("graph.max_rank_entries", max_entries as f64, "");
    rep.set("graph.max_rank_bytes", graph.max_rank_bytes() as f64, "");
    graph
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_streams_differ_and_repeat() {
        assert_eq!(derive(1, "graph"), derive(1, "graph"));
        assert_ne!(derive(1, "graph"), derive(1, "sources"));
        assert_ne!(derive(1, "graph"), derive(2, "graph"));
    }

    #[test]
    fn sources_are_distinct_and_have_neighbours() {
        let spec = GraphSpec::rmat(1 << 10, 4.0, 3);
        let adj = bgl_graph::dist::adjacency(&spec);
        let s = choose_sources(&adj, 9, 40);
        assert_eq!(s, choose_sources(&adj, 9, 40));
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 40);
        assert!(s.iter().all(|&v| !adj[v as usize].is_empty()));
    }

    #[test]
    fn decomposed_build_matches_and_sets_graph_metrics() {
        for params in [
            GraphParams {
                family: Family::Poisson,
                log_n: 11,
                k: 6.0,
                rows: 2,
                cols: 3,
            },
            GraphParams {
                family: Family::RMat,
                log_n: 11,
                k: 6.0,
                rows: 2,
                cols: 2,
            },
        ] {
            let mut sp = Spans::new(true);
            let mut rep = Report::new(crate::report::PER_LAYER);
            rep.tally.record(Ok(()));
            let g = decomposed_build(params.spec(5), params.grid(), &mut sp, &mut rep);
            assert!(rep.tally.correct(), "{:?}", rep.tally.errors);
            assert_eq!(g.ranks.len(), params.rows * params.cols);
            assert!(sp.total("graph.gen") > 0.0);
            assert_eq!(
                sp.totals()
                    .iter()
                    .find(|t| t.name == "graph.csr")
                    .map(|t| t.calls),
                Some(g.ranks.len())
            );
        }
    }
}
