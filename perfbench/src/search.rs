//! The single-source search workloads: every source runs
//! `bfs2d::try_run` on a fresh simulated world.

use crate::layers::{zero_bypassed, LayerSums};
use crate::report::Report;
use crate::setup::{choose_sources, decomposed_build, derive, timed_setup, Family, GraphParams};
use crate::spans::Spans;
use crate::stats::{mean, median, tail, Fnv};
use bfs_core::{bfs2d, validate_levels, BfsConfig, BfsResult};
use bgl_comm::{CommError, SimWorld, TraceDetail, WirePolicy};
use bgl_graph::{dist::adjacency, DistGraph, Vertex};
use std::hint::black_box;
use std::time::Instant;

/// A single-source search workload.
#[derive(Debug, Clone, Copy)]
pub struct SearchWorkload {
    /// The graph.
    pub graph: GraphParams,
    /// Engine configuration.
    pub config: BfsConfig,
    /// Name of the configuration, for the report.
    pub config_name: &'static str,
    /// Wire codec policy of every world.
    pub wire: WirePolicy,
    /// Distinct sources per run; the timed loop cycles through them.
    pub sources: usize,
    /// How many of them a traced run searches.
    pub traced_sources: usize,
}

/// `search-poisson`: the paper's model, top-down, raw wire.
pub fn poisson() -> SearchWorkload {
    SearchWorkload {
        graph: GraphParams {
            family: Family::Poisson,
            log_n: 20,
            k: 16.0,
            rows: 8,
            cols: 8,
        },
        config: BfsConfig::paper_optimized(),
        config_name: "paper_optimized (top-down)",
        wire: WirePolicy::raw(),
        sources: 8,
        traced_sources: 8,
    }
}

/// `search-rmat`: Graph500 R-MAT, adaptive direction, auto wire.
pub fn rmat() -> SearchWorkload {
    SearchWorkload {
        graph: GraphParams {
            family: Family::RMat,
            log_n: 19,
            k: 16.0,
            rows: 16,
            cols: 16,
        },
        config: BfsConfig::direction_optimized(),
        config_name: "direction_optimized (adaptive)",
        wire: WirePolicy::auto(),
        sources: 96,
        traced_sources: 32,
    }
}

/// One `bfs2d::try_run` from `source` on a fresh world. Returns the
/// result and the wall seconds of the `try_run` call alone.
pub fn timed_search(
    graph: &DistGraph,
    config: &BfsConfig,
    wire: WirePolicy,
    source: Vertex,
) -> Result<(BfsResult, f64), CommError> {
    let mut world = SimWorld::bluegene(graph.grid()).with_wire_policy(wire);
    let t0 = Instant::now();
    let r = bfs2d::try_run(graph, &mut world, config, source);
    let dt = t0.elapsed().as_secs_f64();
    r.map(|r| (black_box(r), dt))
}

/// The deterministic identity of one search: simulated clocks, probes
/// and the level array.
fn search_fingerprint(r: &BfsResult) -> u64 {
    let mut h = Fnv::default();
    h.f64(r.stats.sim_time);
    h.f64(r.stats.comm_time);
    h.u64(r.stats.total_probes());
    h.u64(r.stats.reached);
    h.levels(&r.levels);
    h.0
}

/// Run the workload: untraced (end-to-end metrics) or traced (per-layer
/// metrics).
pub fn run(
    w: &SearchWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    rep: &mut Report,
    sp: &mut Spans,
) {
    let spec = w.graph.spec(derive(seed, "graph"));
    let grid = w.graph.grid();
    rep.line(format!(
        "workload: {} config={} wire={} sources={} (degree >= 1, from the seed) graph_seed={}",
        w.graph.describe(),
        w.config_name,
        w.wire.mode.name(),
        w.sources,
        spec.seed
    ));

    let graph = if traced {
        let g = decomposed_build(spec, grid, sp, rep);
        sp.time("SimWorld::bluegene", None, || {
            black_box(SimWorld::bluegene(grid).with_wire_policy(w.wire))
        });
        g
    } else {
        timed_setup(rep, "DistGraph::build + SimWorld::bluegene", || {
            let g = DistGraph::build(spec, grid);
            black_box(SimWorld::bluegene(grid).with_wire_policy(w.wire));
            g
        })
    };
    let adj = sp.time("oracle.adjacency", None, || adjacency(&spec));
    let mut sources = choose_sources(&adj, derive(seed, "sources"), w.sources);
    if traced {
        sources.truncate(w.traced_sources);
    }

    // First pass: one search per source, validated outside the timed
    // region. Untraced runs then repeat the sources until `seconds` of
    // search time are measured; a repeat must match its first run bit
    // for bit.
    let mut host_s: Vec<f64> = Vec::new();
    let mut first: Vec<Option<(f64, u64)>> = Vec::new();
    let mut validation_s = 0.0;
    let mut i = 0usize;
    while i < sources.len() || (!traced && host_s.iter().sum::<f64>() < seconds) {
        let (k, first_pass) = (i % sources.len(), i < sources.len());
        let s = sources[k];
        let (done, verdict) = match timed_search(&graph, &w.config, w.wire, s) {
            Err(e) => (None, Err(format!("search from {s} failed: {e}"))),
            Ok((r, dt)) => {
                host_s.push(dt);
                let fp = search_fingerprint(&r);
                let verdict = if first_pass {
                    rep.detail.u64(fp);
                    let t0 = Instant::now();
                    let valid = validate_levels(&adj, &r.levels, s);
                    validation_s += t0.elapsed().as_secs_f64();
                    valid
                        .map(|_| ())
                        .map_err(|e| format!("search from {s} failed validation: {e:?}"))
                } else if first[k].is_some_and(|(_, f)| f == fp) {
                    Ok(())
                } else {
                    rep.tally.error(format!(
                        "determinism: repeat of source {s} differs from its first run"
                    ));
                    Err(format!("search from {s} drifted"))
                };
                (Some((r.stats.sim_time, fp)), verdict)
            }
        };
        if first_pass {
            first.push(done);
        }
        rep.tally.record(verdict);
        i += 1;
    }

    let sims: Vec<f64> = first.iter().flatten().map(|&(t, _)| t * 1e3).collect();
    let per_source: Vec<String> = sims.iter().map(|t| format!("{t:.2}")).collect();
    rep.line(format!("simulated ms per source: {}", per_source.join(" ")));
    let per_search: Vec<String> = host_s.iter().map(|t| format!("{:.1}", t * 1e3)).collect();
    rep.line(format!(
        "host ms per search, in run order: {}",
        per_search.join(" ")
    ));
    rep.line(format!(
        "validation: {validation_s:.3} s for {} searches, untimed",
        first.len()
    ));
    if traced {
        traced_pass(
            w,
            &graph,
            &adj,
            &sources,
            &first,
            host_s.iter().sum(),
            rep,
            sp,
        );
        return;
    }
    let n = host_s.len();
    rep.set(
        "search_host_ms",
        median(&host_s) * 1e3,
        format!(
            "median of {n} bfs2d::try_run calls over {} sources",
            sources.len()
        ),
    );
    rep.set(
        "host_qps",
        n as f64 / host_s.iter().sum::<f64>(),
        "searches per host second of try_run",
    );
    rep.set(
        "search_sim_ms",
        mean(&sims),
        format!("mean over {} sources", sims.len()),
    );
    rep.set(
        "sim_qps",
        sims.len() as f64 / (sims.iter().sum::<f64>() / 1e3),
        "searches per simulated second, back to back",
    );
    rep.set(
        "query_sim_ms.p50",
        median(&sims),
        format!("median search of {}", sims.len()),
    );
    let t = tail(&sims, 99);
    rep.set("query_sim_ms.p99", t.value, t.describe());
}

/// The traced pass: each source again, now with the simulated-clock
/// trace on and spans around every call, for the per-layer metrics.
/// `first` holds the untraced pass's results, which took `untraced`
/// seconds of `try_run`; tracing must not change a simulated bit.
#[allow(clippy::too_many_arguments)]
fn traced_pass(
    w: &SearchWorkload,
    graph: &DistGraph,
    adj: &[Vec<Vertex>],
    sources: &[Vertex],
    first: &[Option<(f64, u64)>],
    untraced: f64,
    rep: &mut Report,
    sp: &mut Spans,
) {
    let mut sums = LayerSums::default();
    let mut traced_s = 0.0;
    for (i, &s) in sources.iter().enumerate() {
        let op = Some(i as u64);
        let outer = sp.enter("search", op);
        let mut world = sp.time("SimWorld::bluegene", op, || {
            SimWorld::bluegene(graph.grid()).with_wire_policy(w.wire)
        });
        world.enable_trace(TraceDetail::Event);
        let t0 = Instant::now();
        let r = sp.time("bfs2d::try_run", op, || {
            bfs2d::try_run(graph, &mut world, &w.config, s)
        });
        traced_s += t0.elapsed().as_secs_f64();
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                rep.tally
                    .record(Err(format!("traced search from {s} failed: {e}")));
                sp.exit(outer);
                continue;
            }
        };
        let buf = world.take_trace().expect("the trace was enabled above");
        sp.time("trace.analyze", op, || sums.add_trace(&buf, &world));
        let valid = sp.time("validate_levels", op, || validate_levels(adj, &r.levels, s));
        rep.tally.record(
            valid
                .map(|_| ())
                .map_err(|e| format!("traced search from {s}: {e:?}")),
        );
        sp.exit(outer);

        let st = &r.stats;
        let (_, bu) = st.direction_split();
        sums.add("bfs.levels", st.num_levels() as f64);
        sums.add("bfs.bu_levels", bu as f64);
        sums.add(
            "bfs.td_probes",
            st.levels.iter().map(|l| l.td_probes).sum::<u64>() as f64,
        );
        sums.add(
            "bfs.bu_probes",
            st.levels.iter().map(|l| l.bu_probes).sum::<u64>() as f64,
        );
        sums.add("bfs.sim_compute_ms", st.compute_time * 1e3);
        sums.add("bfs.sim_comm_ms", st.comm_time * 1e3);
        sums.add("bfs.sim_codec_ms", st.codec_time * 1e3);
        sums.add_comm(&st.comm);
        let fp = search_fingerprint(&r);
        rep.detail.u64(fp);
        if first[i].is_some_and(|(_, f)| f != fp) {
            rep.tally
                .error(format!("determinism: tracing changed the search from {s}"));
        }
    }
    sums.report(rep, sources.len(), "search", &["trace.dropped_events"]);
    rep.set(
        "trace.overhead_frac",
        traced_s / untraced - 1.0,
        format!(
            "traced {:.3} s vs untraced {:.3} s of try_run over {} searches",
            traced_s,
            untraced,
            sources.len()
        ),
    );
    rep.set(
        "trace.host_spans",
        sp.spans().len() as f64,
        "spans recorded by the benchmark",
    );
    zero_bypassed(
        rep,
        &["multi.", "path.", "server.", "cache.", "phase.path_walk"],
        "bypassed: no server, lanes or path walks in a search workload",
    );
}
