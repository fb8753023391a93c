//! The serving workload: an open-loop Zipf query stream through
//! `BglServer`, every answer checked against the sequential reference.

use crate::layers::{zero_bypassed, LayerSums};
use crate::report::Report;
use crate::setup::{choose_sources, decomposed_build, derive, timed_setup, Family, GraphParams};
use crate::spans::Spans;
use crate::stats::{median, tail, Fnv, LatencyBook};
use bfs_core::reference::{bfs_levels, UNREACHED};
use bfs_core::{multi, path};
use bgl_comm::{SimWorld, TraceDetail, WirePolicy};
use bgl_graph::{dist::adjacency, DistGraph, Vertex};
use bgl_server::{
    ArrivalProcess, BglServer, Outcome, QueryKind, QueryMix, ServedBy, ServerConfig, ServerStats,
    WorkloadSpec,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// An open-loop serving workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    /// The resident graph.
    pub graph: GraphParams,
    /// Distinct sources per batch.
    pub batch_width: usize,
    /// Result-cache capacity (level arrays).
    pub cache_capacity: usize,
    /// Queries per session.
    pub queries: usize,
    /// Zipf source-pool size.
    pub pool: usize,
    /// Zipf exponent.
    pub theta: f64,
    /// Mean Poisson arrivals per server tick.
    pub arrivals_mean: f64,
    /// Query streams per run, one session each, from the same seed.
    pub sessions: usize,
}

/// `serve-zipf`.
pub fn zipf() -> ServeWorkload {
    ServeWorkload {
        graph: GraphParams {
            family: Family::RMat,
            log_n: 17,
            k: 16.0,
            rows: 8,
            cols: 8,
        },
        batch_width: 16,
        cache_capacity: 64,
        queries: 1024,
        pool: 1024,
        theta: 1.0,
        arrivals_mean: 16.0,
        sessions: 2,
    }
}

impl ServeWorkload {
    fn config(&self) -> ServerConfig {
        ServerConfig {
            batch_width: self.batch_width,
            // Room for every query: nothing is refused.
            queue_capacity: self.queries,
            deadline_ticks: None,
            cache_capacity: self.cache_capacity,
            multi: multi::MultiConfig::default(),
            validate_batches: false,
        }
    }

    fn world(&self) -> SimWorld {
        SimWorld::bluegene(self.graph.grid()).with_wire_policy(WirePolicy::auto())
    }

    fn server(&self, graph: DistGraph) -> BglServer {
        BglServer::new(graph, self.world(), self.config())
    }

    /// Query stream `stream` (Zipf over a pool of degree >= 1 sources
    /// shared by every stream) and its arrival schedule.
    fn inputs(
        &self,
        adj: &[Vec<Vertex>],
        seed: u64,
        stream: usize,
    ) -> (Vec<QueryKind>, Vec<usize>) {
        let n = adj.len() as u64;
        let spec = WorkloadSpec {
            queries: self.queries,
            hot_sources: self.pool,
            theta: self.theta,
            mix: QueryMix::default(),
            seed: derive(seed, &format!("queries{stream}")),
        };
        // The generator draws pool ranks; map each rank's vertex onto a
        // seeded source of degree >= 1.
        let pool = choose_sources(adj, derive(seed, "sources"), self.pool);
        let rank: BTreeMap<Vertex, Vertex> = spec.source_pool(n).into_iter().zip(pool).collect();
        let remap = |s: Vertex| rank[&s];
        let queries = spec
            .generate(n)
            .into_iter()
            .map(|q| match q {
                QueryKind::FullTraversal { source } => QueryKind::FullTraversal {
                    source: remap(source),
                },
                QueryKind::Distance { source, target } => QueryKind::Distance {
                    source: remap(source),
                    target,
                },
                QueryKind::Path { source, target } => QueryKind::Path {
                    source: remap(source),
                    target,
                },
            })
            .collect();
        let schedule = ArrivalProcess::Poisson {
            mean: self.arrivals_mean,
        }
        .schedule(self.queries, derive(seed, &format!("arrivals{stream}")));
        (queries, schedule)
    }
}

/// One answered query.
#[derive(Debug, Clone)]
struct Answer {
    kind: QueryKind,
    served_by: ServedBy,
    /// Simulated seconds from arrival to the answering pump's end.
    latency: f64,
    /// The response's `sim_service_time`.
    service: f64,
    /// Deterministic identity of the answer, its route and its clocks.
    fp: u64,
}

/// One serving session from a fresh server.
struct Session {
    answers: Vec<Answer>,
    /// The answers' payloads, kept until they are validated.
    outcomes: Vec<Outcome>,
    rejected: usize,
    unanswered: usize,
    pump_s: Vec<f64>,
    batch_pump_s: Vec<f64>,
    host_s: f64,
    stats: ServerStats,
}

fn answer_fp(id: u64, a: &Answer, outcome: &Outcome) -> u64 {
    let mut h = Fnv::default();
    h.u64(id);
    h.f64(a.latency);
    h.f64(a.service);
    match a.served_by {
        ServedBy::Batch { batch, lane } => h.u64((u64::from(batch) << 8) | u64::from(lane)),
        ServedBy::Cache => h.u64(u64::MAX),
        ServedBy::Expired => h.u64(u64::MAX - 1),
    }
    match outcome {
        Outcome::Levels(l) => h.levels(l),
        Outcome::Distance(d) => h.u64(d.map_or(u64::MAX, u64::from)),
        Outcome::Path(p) => p.iter().flatten().for_each(|&v| h.u64(v)),
        Outcome::Expired => h.u64(u64::MAX - 2),
    }
    h.0
}

/// Drive the open loop: at each tick submit that tick's arrivals, then
/// pump once; after the schedule, pump until the queue drains. Returns
/// the session and the drained server.
fn session(
    mut srv: BglServer,
    queries: &[QueryKind],
    schedule: &[usize],
    sp: &mut Spans,
) -> (Session, BglServer) {
    let mut book = LatencyBook::default();
    let mut answers = Vec::with_capacity(queries.len());
    let mut outcomes = Vec::with_capacity(queries.len());
    let (mut pump_s, mut batch_pump_s) = (Vec::new(), Vec::new());
    let mut rejected = 0;
    let mut next = queries.iter().enumerate();
    let mut pump = |srv: &mut BglServer, sp: &mut Spans, book: &mut LatencyBook, tick: u64| {
        let before = srv.stats().batches;
        let id = sp.enter("BglServer::pump", Some(tick));
        let t0 = Instant::now();
        let responses = srv.pump();
        let dt = t0.elapsed().as_secs_f64();
        sp.exit(id);
        pump_s.push(dt);
        if srv.stats().batches > before {
            batch_pump_s.push(dt);
        }
        let done = srv.world().time();
        for r in responses {
            let mut a = Answer {
                kind: r.kind,
                served_by: r.served_by,
                latency: book.complete(r.id, done).unwrap_or(f64::NAN),
                service: r.sim_service_time,
                fp: 0,
            };
            a.fp = answer_fp(r.id, &a, &r.outcome);
            answers.push(a);
            outcomes.push(r.outcome);
        }
    };

    let start = Instant::now();
    let mut tick = 0u64;
    for &count in schedule {
        let arrived = srv.world().time();
        for (qi, &q) in next.by_ref().take(count) {
            let id = sp.enter("BglServer::submit", Some(qi as u64));
            let admitted = srv.submit(q);
            sp.exit(id);
            match admitted {
                Ok(qid) => book.arrive(qid, arrived),
                Err(_) => rejected += 1,
            }
        }
        pump(&mut srv, sp, &mut book, tick);
        tick += 1;
    }
    while srv.pending() > 0 {
        pump(&mut srv, sp, &mut book, tick);
        tick += 1;
    }
    let host_s = start.elapsed().as_secs_f64();
    let s = Session {
        unanswered: book.outstanding(),
        stats: srv.stats().clone(),
        answers,
        outcomes,
        rejected,
        pump_s,
        batch_pump_s,
        host_s,
    };
    (s, srv)
}

/// Check every answer of `s` against the sequential reference BFS, one
/// source at a time, then drop the payloads.
fn validate(s: &mut Session, adj: &[Vec<Vertex>], rep: &mut Report) {
    let mut by_source: BTreeMap<Vertex, Vec<usize>> = BTreeMap::new();
    for (i, a) in s.answers.iter().enumerate() {
        by_source.entry(a.kind.source()).or_default().push(i);
    }
    for (source, idx) in by_source {
        let reference = bfs_levels(adj, source);
        for i in idx {
            rep.tally
                .record(check_answer(&s.answers[i], &s.outcomes[i], adj, &reference));
        }
    }
    for _ in 0..s.rejected {
        rep.tally
            .record(Err("query rejected by admission".to_string()));
    }
    for _ in 0..s.unanswered {
        rep.tally
            .record(Err("query admitted but never answered".to_string()));
    }
    s.outcomes = Vec::new();
}

fn check_answer(
    a: &Answer,
    outcome: &Outcome,
    adj: &[Vec<Vertex>],
    reference: &[u32],
) -> Result<(), String> {
    let level = |t: Vertex| Some(reference[t as usize]).filter(|&l| l != UNREACHED);
    let ok = match (&a.kind, outcome) {
        (QueryKind::FullTraversal { .. }, Outcome::Levels(l)) => l.as_slice() == reference,
        (QueryKind::Distance { target, .. }, Outcome::Distance(d)) => *d == level(*target),
        (QueryKind::Path { target, .. }, Outcome::Path(p)) => match (p, level(*target)) {
            (None, None) => true,
            (Some(p), Some(l)) => {
                p.last() == Some(target)
                    && p.len() == l as usize + 1
                    && path::validate_path(adj, reference, p)
            }
            _ => false,
        },
        _ => false,
    };
    if !a.latency.is_finite() || a.latency < a.service {
        return Err(format!(
            "{:?}: latency {} below its service time {}",
            a.kind, a.latency, a.service
        ));
    }
    if ok {
        Ok(())
    } else {
        Err(format!("{:?} answered wrongly ({:?})", a.kind, a.served_by))
    }
}

/// Report a determinism error unless `again` answered exactly as
/// `first` did.
fn compare(first: &Session, again: &Session, what: &str, rep: &mut Report) {
    let same = first.answers.len() == again.answers.len()
        && first
            .answers
            .iter()
            .zip(&again.answers)
            .all(|(a, b)| a.fp == b.fp);
    if !same {
        rep.tally.error(format!(
            "determinism: {what} answered differently from the first run of its stream"
        ));
    }
}

/// Run the workload: untraced (end-to-end metrics) or traced (per-layer
/// metrics).
pub fn run(
    w: &ServeWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    rep: &mut Report,
    sp: &mut Spans,
) {
    let spec = w.graph.spec(derive(seed, "graph"));
    let grid = w.graph.grid();
    rep.line(format!(
        "workload: {} wire=auto batch_width={} cache={} streams={} of {} queries, zipf(theta={}) \
         over {} sources (degree >= 1, from the seed), mix 10% full / 60% distance / 30% path, \
         open loop: Poisson arrivals mean {}/tick, queue {} (nothing refused) graph_seed={}",
        w.graph.describe(),
        w.batch_width,
        w.cache_capacity,
        w.sessions,
        w.queries,
        w.theta,
        w.pool,
        w.arrivals_mean,
        w.queries,
        spec.seed
    ));
    let graph = if traced {
        let g = decomposed_build(spec, grid, sp, rep);
        let srv = sp.time("BglServer::new", None, || w.server(g.clone()));
        drop(black_box(srv));
        g
    } else {
        let what = "DistGraph::build + SimWorld::bluegene + BglServer::new";
        let srv = timed_setup(rep, what, || w.server(DistGraph::build(spec, grid)));
        srv.graph().clone()
    };
    let adj = sp.time("oracle.adjacency", None, || adjacency(&spec));
    let streams: Vec<(Vec<QueryKind>, Vec<usize>)> =
        (0..w.sessions).map(|k| w.inputs(&adj, seed, k)).collect();
    let ticks: Vec<String> = streams.iter().map(|(_, s)| s.len().to_string()).collect();
    rep.line(format!(
        "streams: {} of {} queries, arrival ticks {}",
        streams.len(),
        w.queries,
        ticks.join(" ")
    ));

    // One session per stream from a fresh server (only the first stream
    // in a traced run), each validated. Untraced runs then repeat the
    // streams until `seconds` are measured; a repeat must answer exactly
    // as the stream's first session did.
    let mut quiet = Spans::new(false);
    let mut firsts: Vec<Session> = Vec::new();
    for (queries, schedule) in streams.iter().take(if traced { 1 } else { w.sessions }) {
        let (mut s, _) = session(w.server(graph.clone()), queries, schedule, &mut quiet);
        validate(&mut s, &adj, rep);
        s.answers.iter().for_each(|a| rep.detail.u64(a.fp));
        firsts.push(s);
    }
    if traced {
        let (queries, schedule) = &streams[0];
        traced_pass(w, &graph, queries, schedule, &firsts[0], rep, sp);
        return;
    }
    let (mut answered, mut host_s) = (0usize, 0.0f64);
    let mut batch_pump_s: Vec<f64> = Vec::new();
    for s in &firsts {
        answered += s.answers.len();
        host_s += s.host_s;
        batch_pump_s.extend_from_slice(&s.batch_pump_s);
    }
    let mut k = 0;
    while host_s < seconds {
        let (queries, schedule) = &streams[k % w.sessions];
        let (again, _) = session(w.server(graph.clone()), queries, schedule, &mut quiet);
        compare(&firsts[k % w.sessions], &again, "a repeat session", rep);
        answered += again.answers.len();
        host_s += again.host_s;
        batch_pump_s.extend_from_slice(&again.batch_pump_s);
        k += 1;
    }

    let sessions = firsts.len() + k;
    let sum = |f: fn(&ServerStats) -> f64| firsts.iter().map(|s| f(&s.stats)).sum::<f64>();
    let batches = sum(|st| st.batches as f64);
    let served = sum(|st| st.served_total() as f64);
    let serving_sim = sum(|st| st.engine_sim_time + st.cache_sim_time + st.path_walk_sim_time);
    let latencies: Vec<f64> = firsts
        .iter()
        .flat_map(|s| s.answers.iter().map(|a| a.latency * 1e3))
        .collect();
    rep.set(
        "search_host_ms",
        median(&batch_pump_s) * 1e3,
        format!(
            "median of {} BglServer::pump calls that ran an engine batch",
            batch_pump_s.len()
        ),
    );
    rep.set(
        "search_sim_ms",
        sum(|st| st.engine_sim_time) * 1e3 / batches.max(1.0),
        format!("mean simulated time of {batches} engine batches"),
    );
    rep.set(
        "host_qps",
        answered as f64 / host_s,
        format!("{answered} answered / {host_s:.3} host s from first submit to drain, {sessions} sessions"),
    );
    rep.set(
        "sim_qps",
        served / serving_sim,
        format!("ServerStats::qps over the {} streams", firsts.len()),
    );
    rep.set(
        "query_sim_ms.p50",
        median(&latencies),
        format!("median of {} queries, arrival to answer", latencies.len()),
    );
    let t = tail(&latencies, 99);
    rep.set("query_sim_ms.p99", t.value, t.describe());
}

/// The traced pass: the untraced session's layer counters, a second
/// session with spans and the simulated trace on, and a replay of every
/// batch through `multi::try_run`.
fn traced_pass(
    w: &ServeWorkload,
    graph: &DistGraph,
    queries: &[QueryKind],
    schedule: &[usize],
    first: &Session,
    rep: &mut Report,
    sp: &mut Spans,
) {
    let st = &first.stats;
    let pump = tail(&first.pump_s, 90);
    rep.set(
        "server.pump_host_ms.p50",
        median(&first.pump_s) * 1e3,
        format!("median of {} pumps", first.pump_s.len()),
    );
    rep.set("server.pump_host_ms.p90", pump.value * 1e3, pump.describe());
    let waits: Vec<f64> = first
        .answers
        .iter()
        .map(|a| (a.latency - a.service) * 1e3)
        .collect();
    let wait = tail(&waits, 99);
    rep.set(
        "server.wait_sim_ms.p50",
        median(&waits),
        "latency - sim_service_time, median",
    );
    rep.set("server.wait_sim_ms.p99", wait.value, wait.describe());
    rep.set("server.batches", st.batches as f64, "");
    rep.set(
        "server.occupancy_mean",
        st.occupancy_mean(),
        "lanes per batch",
    );

    rep.set("path.walks", st.path_walks as f64, "lane-masked walk waves");
    rep.set("path.hops", st.path_walk_hops as f64, "");
    rep.set("path.rounds", st.path_walk_rounds as f64, "");
    rep.set("path.sim_ms", st.path_walk_sim_time * 1e3, "");

    // Traced session.
    let mut srv = w.server(graph.clone());
    srv.world_mut().enable_trace(TraceDetail::Event);
    let (traced, mut srv) = session(srv, queries, schedule, sp);
    compare(first, &traced, "the traced session", rep);
    let cache = srv.cache();
    let lookups = cache.hits + cache.misses;
    rep.set(
        "cache.hit_ratio",
        cache.hits as f64 / lookups.max(1) as f64,
        format!("{} hits of {lookups} lookups", cache.hits),
    );
    rep.set("cache.evictions", cache.evictions as f64, "");
    rep.set(
        "cache.resident_bytes",
        cache.resident_bytes() as f64,
        "at drain",
    );
    let mut sums = LayerSums::default();
    let buf = srv
        .world_mut()
        .take_trace()
        .expect("the trace was enabled above");
    sp.time("trace.analyze", None, || sums.add_trace(&buf, srv.world()));
    sums.add_comm(&srv.world().stats);
    let batches = st.batches as usize;
    // Link load is a whole-session property: the busiest link and the
    // links touched are not additive over batches.
    sums.report(
        rep,
        batches,
        "engine batch",
        &[
            "trace.dropped_events",
            "torus.max_link_bytes",
            "torus.links_used",
        ],
    );
    rep.set(
        "trace.overhead_frac",
        traced.host_s / first.host_s - 1.0,
        format!(
            "traced session {:.3} s vs untraced {:.3} s",
            traced.host_s, first.host_s
        ),
    );

    // Replay every batch's sources, recovered from the responses.
    let mut lanes: BTreeMap<u32, BTreeMap<u8, Vertex>> = BTreeMap::new();
    for a in &first.answers {
        if let ServedBy::Batch { batch, lane } = a.served_by {
            lanes
                .entry(batch)
                .or_default()
                .insert(lane, a.kind.source());
        }
    }
    let (mut host_ms, mut sim_ms) = (Vec::new(), Vec::new());
    let (mut waves, mut probes) = (0usize, 0u64);
    for (batch, sources) in &lanes {
        let sources: Vec<Vertex> = sources.values().copied().collect();
        let mut world = w.world();
        let t0 = Instant::now();
        let r = sp.time("multi::try_run", Some(u64::from(*batch)), || {
            multi::try_run(graph, &mut world, &w.config().multi, &sources)
        });
        host_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        match r {
            Ok(r) => {
                sim_ms.push(r.sim_time * 1e3);
                waves += r.waves.len();
                probes += r.total_probes;
            }
            Err(e) => rep
                .tally
                .error(format!("replay of batch {batch} failed: {e}")),
        }
    }
    if waves as u64 != st.waves_total || lanes.len() as u64 != st.batches {
        rep.tally.error(format!(
            "replayed {} batches / {waves} waves, the server ran {} / {}",
            lanes.len(),
            st.batches,
            st.waves_total
        ));
    }
    rep.set(
        "multi.host_ms.p50",
        median(&host_ms),
        format!("median of {} replayed batches", host_ms.len()),
    );
    rep.set(
        "multi.sim_ms.p50",
        median(&sim_ms),
        format!("median of {} replayed batches", sim_ms.len()),
    );
    rep.set("multi.waves", waves as f64, "run total");
    rep.set("multi.probes", probes as f64, "run total");
    rep.set(
        "trace.host_spans",
        sp.spans().len() as f64,
        "spans recorded by the benchmark",
    );
    zero_bypassed(
        rep,
        &["bfs."],
        "bypassed: the server runs lanes, not the single-source engine",
    );
}
