//! The serving loop: deterministic batch formation over the admission
//! queue, lane-masked multi-source execution, cache fills and hits,
//! per-batch tracing, and the `SERVER_summary.json` export.
//!
//! ## Batch wave
//!
//! Each call to [`BglServer::pump`] advances the tick clock by one and
//! forms at most one batch: requests pop in FIFO order; expired ones
//! answer immediately; cache hits are served without a lane; the rest
//! group by source into lanes until `batch_width` distinct sources are
//! packed (queries sharing a source share a lane for free). The batch
//! runs as one [`bfs_core::multi`] wave sequence — every lane advances
//! per communication round — and each lane's level array answers all of
//! its queries and refills the cache. Batch formation reads only the
//! queue order and the tick clock: no wall time exists in any decision
//! path, so a submission sequence fully determines every response and
//! every clock.
//!
//! ## Deadlines
//!
//! A query's deadline is an absolute tick; it expires iff the batch
//! forming tick is strictly past it. Expiry is checked at formation
//! (lazy), costs no engine work, and produces an
//! [`Outcome::Expired`] response.
//!
//! ## Cache semantics
//!
//! Keyed `(graph_id, source)` where `graph_id` fingerprints the loaded
//! spec; admission and eviction weigh each entry by its recomputation
//! cost per resident byte (see [`crate::cache`]). A hit serves
//! `FullTraversal` by handing out the shared level array and `Distance`
//! by one array read — both charged as a modelled memcpy of the
//! response bytes at the source's owner rank. `Path` hits (and `Path`
//! queries answered by a fresh batch lane) are grouped by source and
//! served by the distributed lane-masked batched walk
//! ([`bfs_core::path::try_multi`]): up to 64 targets against one level
//! array share each of the three per-hop control rounds, charged to the
//! α–β–hop model and bracketed by `Phase::PathWalk` spans — and every
//! lane is byte-identical to a standalone `try_extract_path`.

use crate::cache::{CacheKey, ResultCache};
use crate::query::{AdmissionError, Outcome, QueryId, QueryKind, Request, Response, ServedBy};
use crate::queue::AdmissionQueue;
use crate::stats::ServerStats;
use bfs_core::multi::{self, MultiConfig};
use bfs_core::path::{self, MultiPathConfig};
use bfs_core::reference::UNREACHED;
use bgl_comm::{SimWorld, MAX_LANES};
use bgl_graph::{DistGraph, GraphFamily, GraphSpec, Vertex};
use bgl_trace::json::{self, Fixed};
use bgl_trace::EventKind;
use std::sync::Arc;

/// Serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum distinct sources packed into one batch (1..=64).
    pub batch_width: usize,
    /// Admission queue capacity (backpressure beyond this).
    pub queue_capacity: usize,
    /// Default deadline in ticks granted to every query (`None` =
    /// queries never expire).
    pub deadline_ticks: Option<u64>,
    /// Result-cache capacity in level arrays (0 = cache off).
    pub cache_capacity: usize,
    /// Engine configuration for the batched executor.
    pub multi: MultiConfig,
    /// Certify every batch lane with the Graph500-style validator
    /// (panics on failure — a failed certification is an engine bug,
    /// never a data condition).
    pub validate_batches: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            batch_width: 16,
            queue_capacity: 1024,
            deadline_ticks: None,
            cache_capacity: 64,
            multi: MultiConfig::default(),
            validate_batches: false,
        }
    }
}

/// A BFS query server owning one resident graph and one simulated
/// runtime.
pub struct BglServer {
    graph: DistGraph,
    world: SimWorld,
    config: ServerConfig,
    queue: AdmissionQueue,
    cache: ResultCache,
    graph_id: u64,
    tick: u64,
    batch_seq: u32,
    stats: ServerStats,
}

impl BglServer {
    /// Take ownership of a loaded graph and runtime and start serving.
    pub fn new(graph: DistGraph, world: SimWorld, config: ServerConfig) -> Self {
        assert!(
            (1..=bgl_comm::MAX_LANES).contains(&config.batch_width),
            "batch width must be in 1..=64"
        );
        assert_eq!(
            world.grid(),
            graph.grid(),
            "world and graph grids must match"
        );
        let graph_id = graph_fingerprint(&graph.spec);
        Self {
            queue: AdmissionQueue::new(config.queue_capacity),
            cache: ResultCache::new(config.cache_capacity),
            graph_id,
            tick: 0,
            batch_seq: 0,
            stats: ServerStats::default(),
            graph,
            world,
            config,
        }
    }

    /// The graph fingerprint used in cache keys.
    pub fn graph_id(&self) -> u64 {
        self.graph_id
    }

    /// The current logical tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Aggregate serving statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The result cache (hit/miss counters live here).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The simulated runtime (clocks, traces, comm stats).
    pub fn world(&self) -> &SimWorld {
        &self.world
    }

    /// Mutable runtime access (e.g. to enable tracing before serving).
    pub fn world_mut(&mut self) -> &mut SimWorld {
        &mut self.world
    }

    /// The resident graph.
    pub fn graph(&self) -> &DistGraph {
        &self.graph
    }

    /// Pending queries in the admission queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Admit a query; `Err` is backpressure (queue full).
    pub fn submit(&mut self, kind: QueryKind) -> Result<QueryId, AdmissionError> {
        match self
            .queue
            .submit(kind, self.tick, self.config.deadline_ticks)
        {
            Ok(id) => {
                self.stats.submitted += 1;
                Ok(id)
            }
            Err(e) => {
                self.stats.rejected += 1;
                Err(e)
            }
        }
    }

    /// Advance one tick and serve at most one batch. Returns every
    /// response completed this tick: expirations and non-path cache
    /// hits in queue order, then cache-hit path walks (grouped by
    /// source), then batch-served responses lane by lane.
    ///
    /// # Panics
    ///
    /// If the batch wave or a path walk returns a `CommError`, which a
    /// world carrying a fault plan can. Answering those queries with a
    /// typed failure instead is ROADMAP item 3 (`Outcome::Failed`).
    pub fn pump(&mut self) -> Vec<Response> {
        self.tick += 1;
        let now = self.tick;
        let depth = self.queue.len() as u64;
        self.stats.queue_depth_sum += depth;
        self.stats.queue_depth_samples += 1;
        self.stats.queue_depth_max = self.stats.queue_depth_max.max(depth);
        let mut responses: Vec<Response> = Vec::new();

        // -- batch formation: FIFO pops; expiries and cache hits are
        // served en route and never consume a lane. Cache-hit Path
        // queries group by source into lane waves of the batched walk
        // instead of being answered one by one.
        let mut lanes: Vec<(Vertex, Vec<Request>)> = Vec::new();
        let mut cached_walks: Vec<(Vertex, Arc<Vec<u32>>, Vec<Request>)> = Vec::new();
        while let Some(req) = self.queue.pop() {
            if req.deadline_tick.is_some_and(|d| now > d) {
                self.stats.expired += 1;
                self.note_latency(&req, now);
                responses.push(Response {
                    id: req.id,
                    kind: req.kind,
                    outcome: Outcome::Expired,
                    served_by: ServedBy::Expired,
                    submitted_tick: req.submitted_tick,
                    completed_tick: now,
                    sim_service_time: 0.0,
                });
                continue;
            }
            let source = req.kind.source();
            if self.cache.enabled() {
                let key = CacheKey {
                    graph_id: self.graph_id,
                    source,
                };
                if let Some(levels) = self.cache.get(key) {
                    if matches!(req.kind, QueryKind::Path { .. }) {
                        match cached_walks.iter_mut().find(|(s, _, _)| *s == source) {
                            Some(group) => group.2.push(req),
                            None => cached_walks.push((source, levels, vec![req])),
                        }
                    } else {
                        let r = self.serve_from_cache(req, &levels, now);
                        responses.push(r);
                    }
                    continue;
                }
            }
            if let Some(lane) = lanes.iter_mut().find(|(s, _)| *s == source) {
                lane.1.push(req);
            } else if lanes.len() < self.config.batch_width {
                lanes.push((source, vec![req]));
            } else {
                self.queue.push_front(req);
                break;
            }
        }

        // -- cache-hit path walks: one batched wave sequence per cached
        // level array, all targets sharing the per-hop control rounds.
        for (source, levels, reqs) in cached_walks {
            self.serve_path_walks(
                source,
                &levels,
                reqs,
                ServedBy::Cache,
                0.0,
                now,
                &mut responses,
            );
        }
        if lanes.is_empty() {
            return responses;
        }

        // -- one lane-masked wave advances every query in the batch.
        let sources: Vec<Vertex> = lanes.iter().map(|(s, _)| *s).collect();
        let t0 = self.world.time();
        let result = multi::try_run(&self.graph, &mut self.world, &self.config.multi, &sources)
            // bgl-lint: allow(r1, reason = "pump() has no error channel until Outcome::Failed lands (ROADMAP item 3); documented under # Panics")
            .unwrap_or_else(|e| panic!("communication fault during batched BFS: {e}"));
        let t1 = self.world.time();
        let batch = self.batch_seq;
        self.batch_seq += 1;
        self.world.trace_mut().world_event(
            EventKind::Batch {
                batch,
                lanes: u32::try_from(sources.len()).unwrap_or(u32::MAX),
            },
            t0,
            t1,
        );
        if self.config.validate_batches {
            multi::validate_lanes(&self.graph.spec, &result)
                .unwrap_or_else(|e| panic!("batch {batch} failed Graph500 validation: {e:?}")); // bgl-lint: allow(r1, reason = "opt-in validate_batches exists to abort loudly on a correctness violation")
            self.stats.validated_batches += 1;
        }
        let batch_sim = t1 - t0;
        self.stats.batches += 1;
        self.stats.lanes_total += sources.len() as u64;
        self.stats.max_occupancy = self.stats.max_occupancy.max(sources.len() as u64);
        self.stats.waves_total += result.waves.len() as u64;
        self.stats.engine_sim_time += batch_sim;

        // Each lane's recomputation cost is its share of the wave: the
        // cache's eviction weight for the level array it deposited.
        let lane_cost = batch_sim / sources.len() as f64;
        let mut lane_levels = result.lane_levels;
        for (lane, (source, reqs)) in lanes.into_iter().enumerate() {
            let levels = Arc::new(std::mem::take(&mut lane_levels[lane]));
            self.cache.insert(
                CacheKey {
                    graph_id: self.graph_id,
                    source,
                },
                levels.clone(),
                lane_cost,
            );
            let served_by = ServedBy::Batch {
                batch,
                lane: lane as u8,
            };
            let mut path_reqs: Vec<Request> = Vec::new();
            for req in reqs {
                if matches!(req.kind, QueryKind::Path { .. }) {
                    path_reqs.push(req);
                    continue;
                }
                self.stats.served_engine += 1;
                self.note_kind(&req.kind);
                self.note_latency(&req, now);
                let outcome = self.answer(&req.kind, &levels);
                responses.push(Response {
                    id: req.id,
                    kind: req.kind,
                    outcome,
                    served_by,
                    submitted_tick: req.submitted_tick,
                    completed_tick: now,
                    sim_service_time: batch_sim,
                });
            }
            if !path_reqs.is_empty() {
                self.serve_path_walks(
                    source,
                    &levels,
                    path_reqs,
                    served_by,
                    batch_sim,
                    now,
                    &mut responses,
                );
            }
        }
        responses
    }

    /// Pump until the queue drains; returns all responses in completion
    /// order.
    pub fn run_to_completion(&mut self) -> Vec<Response> {
        let mut out = Vec::new();
        while !self.queue.is_empty() {
            out.extend(self.pump());
        }
        out
    }

    /// Produce an outcome from a level array. `Path` queries never come
    /// through here — they are grouped into batched walk waves
    /// ([`BglServer::serve_path_walks`]).
    fn answer(&self, kind: &QueryKind, levels: &Arc<Vec<u32>>) -> Outcome {
        match *kind {
            QueryKind::FullTraversal { .. } => Outcome::Levels(levels.clone()),
            QueryKind::Distance { target, .. } => Outcome::Distance(level_of(levels, target)),
            QueryKind::Path { .. } => unreachable!("path queries are served by batched walks"),
        }
    }

    /// Serve a group of `Path` requests sharing one `(source, levels)`
    /// pair with the distributed lane-masked batched walk: up to
    /// [`MAX_LANES`] targets per wave share each per-hop control round.
    /// `base_sim` is simulated time the requests already waited on (the
    /// engine wave that produced `levels`, zero for cache hits).
    #[allow(clippy::too_many_arguments)]
    fn serve_path_walks(
        &mut self,
        source: Vertex,
        levels: &Arc<Vec<u32>>,
        reqs: Vec<Request>,
        served_by: ServedBy,
        base_sim: f64,
        now: u64,
        responses: &mut Vec<Response>,
    ) {
        for chunk in reqs.chunks(MAX_LANES) {
            let targets: Vec<Vertex> = chunk
                .iter()
                .map(|r| match r.kind {
                    QueryKind::Path { target, .. } => target,
                    _ => unreachable!("walk groups hold only path queries"),
                })
                .collect();
            let result = path::try_multi(
                &self.graph,
                &mut self.world,
                levels,
                source,
                &targets,
                &MultiPathConfig::default(),
            )
            // bgl-lint: allow(r1, reason = "pump() has no error channel until Outcome::Failed lands (ROADMAP item 3); documented under # Panics")
            .unwrap_or_else(|e| panic!("control traffic retries exhausted: {e}"));
            self.stats.path_walks += 1;
            self.stats.path_walk_lanes += targets.len() as u64;
            self.stats.path_walk_hops += u64::from(result.hops);
            self.stats.path_walk_rounds += result.rounds;
            self.stats.path_walk_sim_time += result.sim_time;
            for (req, p) in chunk.iter().zip(result.paths) {
                if served_by == ServedBy::Cache {
                    self.stats.served_cache += 1;
                    self.stats.cache_hit_path += 1;
                    self.stats.cache_bytes_path += 8 * p.as_ref().map_or(1, Vec::len) as u64;
                } else {
                    self.stats.served_engine += 1;
                }
                self.note_kind(&req.kind);
                self.note_latency(req, now);
                responses.push(Response {
                    id: req.id,
                    kind: req.kind,
                    outcome: Outcome::Path(p),
                    served_by,
                    submitted_tick: req.submitted_tick,
                    completed_tick: now,
                    sim_service_time: base_sim + result.sim_time,
                });
            }
        }
    }

    /// Serve one `FullTraversal`/`Distance` request from a cached level
    /// array, charging a modelled memcpy of the response bytes at the
    /// source owner's rank.
    fn serve_from_cache(&mut self, req: Request, levels: &Arc<Vec<u32>>, now: u64) -> Response {
        let t0 = self.world.time();
        let outcome = self.answer(&req.kind, levels);
        let bytes = match &outcome {
            Outcome::Levels(l) => 4 * l.len() as u64,
            Outcome::Distance(_) => 8,
            Outcome::Path(_) => unreachable!("path hits go through the batched walk"),
            Outcome::Expired => unreachable!("cache cannot expire a query"),
        };
        match &req.kind {
            QueryKind::FullTraversal { .. } => {
                self.stats.cache_hit_full += 1;
                self.stats.cache_bytes_full += bytes;
            }
            QueryKind::Distance { .. } => {
                self.stats.cache_hit_distance += 1;
                self.stats.cache_bytes_distance += bytes;
            }
            QueryKind::Path { .. } => unreachable!("path hits go through the batched walk"),
        }
        let owner = self.graph.partition.owner_of(req.kind.source());
        let mut per_rank = vec![0u64; self.world.p()];
        per_rank[owner] = bytes;
        self.world.memcpy_phase(&per_rank);
        let dt = self.world.time() - t0;
        self.stats.served_cache += 1;
        self.stats.cache_sim_time += dt;
        self.note_kind(&req.kind);
        self.note_latency(&req, now);
        Response {
            id: req.id,
            kind: req.kind,
            outcome,
            served_by: ServedBy::Cache,
            submitted_tick: req.submitted_tick,
            completed_tick: now,
            sim_service_time: dt,
        }
    }

    fn note_kind(&mut self, kind: &QueryKind) {
        match kind {
            QueryKind::FullTraversal { .. } => self.stats.kind_full += 1,
            QueryKind::Distance { .. } => self.stats.kind_distance += 1,
            QueryKind::Path { .. } => self.stats.kind_path += 1,
        }
    }

    fn note_latency(&mut self, req: &Request, now: u64) {
        let lat = now - req.submitted_tick;
        self.stats.latency_ticks_sum += lat;
        self.stats.latency_ticks_max = self.stats.latency_ticks_max.max(lat);
    }

    /// The `SERVER_summary.json` document.
    pub fn summary_json(&self) -> String {
        let s = &self.stats;
        json::pretty(|w| {
            w.key("graph").obj(|w| {
                w.field("n", self.graph.spec.n)
                    .field("graph_id", self.graph_id)
                    .field(
                        "grid",
                        format!("{}x{}", self.graph.grid().rows(), self.graph.grid().cols()),
                    );
            });
            w.key("config").obj(|w| {
                w.field("batch_width", self.config.batch_width)
                    .field("queue_capacity", self.config.queue_capacity)
                    .field("deadline_ticks", self.config.deadline_ticks)
                    .field("cache_capacity", self.config.cache_capacity);
            });
            w.field("ticks", self.tick)
                .field("submitted", s.submitted)
                .field("rejected", s.rejected)
                .field("served_engine", s.served_engine)
                .field("served_cache", s.served_cache)
                .field("expired", s.expired);
            w.key("kinds").obj(|w| {
                w.field("full", s.kind_full)
                    .field("distance", s.kind_distance)
                    .field("path", s.kind_path);
            });
            w.field("batches", s.batches)
                .field("validated_batches", s.validated_batches)
                .field("waves_total", s.waves_total)
                .field("occupancy_mean", Fixed(s.occupancy_mean(), 3))
                .field("occupancy_max", s.max_occupancy)
                .field("queue_depth_mean", Fixed(s.queue_depth_mean(), 3))
                .field("queue_depth_max", s.queue_depth_max);
            w.key("path_walk").obj(|w| {
                w.field("waves", s.path_walks)
                    .field("lanes", s.path_walk_lanes)
                    .field("occupancy_mean", Fixed(s.path_walk_occupancy_mean(), 3))
                    .field("hops", s.path_walk_hops)
                    .field("rounds", s.path_walk_rounds)
                    .field("sim_s", Fixed(s.path_walk_sim_time, 9));
            });
            w.key("cache").obj(|w| {
                w.field("hits", self.cache.hits)
                    .field("misses", self.cache.misses)
                    .field("evictions", self.cache.evictions)
                    .field("resident", self.cache.len())
                    .field("resident_bytes", self.cache.resident_bytes())
                    .key("by_class")
                    .obj(|w| {
                        for (class, hits, bytes) in [
                            ("full", s.cache_hit_full, s.cache_bytes_full),
                            ("distance", s.cache_hit_distance, s.cache_bytes_distance),
                            ("path", s.cache_hit_path, s.cache_bytes_path),
                        ] {
                            w.key(class).obj(|w| {
                                w.field("hits", hits).field("bytes", bytes);
                            });
                        }
                    });
            });
            w.field("engine_sim_s", Fixed(s.engine_sim_time, 9))
                .field("cache_sim_s", Fixed(s.cache_sim_time, 9))
                .field("path_walk_sim_s", Fixed(s.path_walk_sim_time, 9))
                .field("qps_simulated", Fixed(s.qps(), 3))
                .field("engine_s_per_query", Fixed(s.engine_time_per_query(), 9))
                .field("cache_s_per_query", Fixed(s.cache_time_per_query(), 9))
                .field("latency_ticks_mean", Fixed(s.latency_ticks_mean(), 3))
                .field("latency_ticks_max", s.latency_ticks_max);
        })
    }
}

/// FNV-1a fingerprint of a graph spec: stable across runs, sensitive to
/// every generator input, so cache keys from a different resident graph
/// can never collide into service.
pub fn graph_fingerprint(spec: &GraphSpec) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(spec.n);
    eat(spec.avg_degree.to_bits());
    eat(spec.seed);
    match spec.family {
        GraphFamily::Poisson => eat(1),
        GraphFamily::RMat { a, b, c } => {
            eat(2);
            eat(a.to_bits());
            eat(b.to_bits());
            eat(c.to_bits());
        }
        GraphFamily::SmallWorld { rewire } => {
            eat(3);
            eat(rewire.to_bits());
        }
    }
    h
}

/// Read a distance out of a level array (`None` = unreached).
fn level_of(levels: &[u32], v: Vertex) -> Option<u32> {
    let l = levels[v as usize];
    (l != UNREACHED).then_some(l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfs_core::{bfs2d, BfsConfig};
    use bgl_comm::ProcessorGrid;

    fn build(n: u64, seed: u64) -> (DistGraph, SimWorld) {
        let spec = GraphSpec::rmat(n, 8.0, seed);
        let grid = ProcessorGrid::new(2, 3);
        (DistGraph::build(spec, grid), SimWorld::bluegene(grid))
    }

    fn server(config: ServerConfig) -> BglServer {
        let (graph, world) = build(2_000, 5);
        BglServer::new(graph, world, config)
    }

    #[test]
    fn batch_serving_matches_single_source() {
        let mut srv = server(ServerConfig {
            cache_capacity: 0,
            validate_batches: true,
            ..ServerConfig::default()
        });
        let (graph, _) = build(2_000, 5);
        for s in [0u64, 33, 500, 1999] {
            srv.submit(QueryKind::FullTraversal { source: s }).unwrap();
        }
        let responses = srv.run_to_completion();
        assert_eq!(responses.len(), 4);
        assert_eq!(srv.stats().batches, 1);
        for r in &responses {
            let Outcome::Levels(levels) = &r.outcome else {
                panic!("expected levels");
            };
            let mut w = SimWorld::bluegene(graph.grid());
            let single = bfs2d::try_run(
                &graph,
                &mut w,
                &BfsConfig::paper_optimized(),
                r.kind.source(),
            )
            .unwrap();
            assert_eq!(**levels, single.levels, "source {}", r.kind.source());
        }
    }

    #[test]
    fn cache_hits_skip_the_engines_and_agree() {
        let mut srv = server(ServerConfig::default());
        let s = 42u64;
        srv.submit(QueryKind::Distance {
            source: s,
            target: 7,
        })
        .unwrap();
        let first = srv.run_to_completion();
        assert_eq!(srv.stats().batches, 1);
        // Same source again: no new batch may run.
        srv.submit(QueryKind::Distance {
            source: s,
            target: 7,
        })
        .unwrap();
        srv.submit(QueryKind::Path {
            source: s,
            target: 7,
        })
        .unwrap();
        let again = srv.run_to_completion();
        assert_eq!(srv.stats().batches, 1, "cache hit must not re-run engines");
        assert_eq!(srv.stats().served_cache, 2);
        assert_eq!(again[0].served_by, ServedBy::Cache);
        assert_eq!(first[0].outcome, again[0].outcome);
        // The cached path agrees with the engine-extracted one.
        let mut srv2 = server(ServerConfig {
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        srv2.submit(QueryKind::Path {
            source: s,
            target: 7,
        })
        .unwrap();
        let engine = srv2.run_to_completion();
        assert_eq!(engine[0].outcome, again[1].outcome);
    }

    #[test]
    fn shared_sources_share_a_lane() {
        let mut srv = server(ServerConfig {
            batch_width: 2,
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        srv.submit(QueryKind::Distance {
            source: 1,
            target: 9,
        })
        .unwrap();
        srv.submit(QueryKind::Distance {
            source: 1,
            target: 10,
        })
        .unwrap();
        srv.submit(QueryKind::Distance {
            source: 2,
            target: 9,
        })
        .unwrap();
        let rs = srv.pump();
        assert_eq!(rs.len(), 3, "three queries fit two lanes");
        assert_eq!(srv.stats().batches, 1);
        assert_eq!(srv.stats().lanes_total, 2);
    }

    #[test]
    fn overflow_waits_for_the_next_tick() {
        let mut srv = server(ServerConfig {
            batch_width: 2,
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        for s in [1u64, 2, 3] {
            srv.submit(QueryKind::Distance {
                source: s,
                target: 0,
            })
            .unwrap();
        }
        let first = srv.pump();
        assert_eq!(first.len(), 2);
        assert_eq!(srv.pending(), 1);
        let second = srv.pump();
        assert_eq!(second.len(), 1);
        assert_eq!(srv.stats().batches, 2);
    }

    #[test]
    fn deadlines_expire_lazily() {
        let mut srv = server(ServerConfig {
            deadline_ticks: Some(0),
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        srv.submit(QueryKind::Distance {
            source: 1,
            target: 2,
        })
        .unwrap();
        // Deadline is tick 0; the first pump runs at tick 1 > 0.
        let rs = srv.pump();
        assert_eq!(rs[0].outcome, Outcome::Expired);
        assert_eq!(srv.stats().expired, 1);
        assert_eq!(srv.stats().batches, 0);
    }

    #[test]
    fn backpressure_counts_rejections() {
        let mut srv = server(ServerConfig {
            queue_capacity: 1,
            ..ServerConfig::default()
        });
        srv.submit(QueryKind::Distance {
            source: 1,
            target: 2,
        })
        .unwrap();
        assert!(srv
            .submit(QueryKind::Distance {
                source: 2,
                target: 3
            })
            .is_err());
        assert_eq!(srv.stats().rejected, 1);
    }

    #[test]
    fn path_misses_share_one_batched_walk_wave() {
        let mut srv = server(ServerConfig {
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        let s = 11u64;
        for t in [7u64, 900, 1500, 42] {
            srv.submit(QueryKind::Path {
                source: s,
                target: t,
            })
            .unwrap();
        }
        let rs = srv.run_to_completion();
        assert_eq!(rs.len(), 4);
        assert_eq!(srv.stats().batches, 1, "one lane serves all four");
        assert_eq!(
            srv.stats().path_walks,
            1,
            "four targets share one walk wave"
        );
        assert_eq!(srv.stats().path_walk_lanes, 4);
        assert_eq!(
            srv.stats().path_walk_rounds,
            3 * srv.stats().path_walk_hops,
            "three control rounds per hop, shared by every lane"
        );
        // Each batched-walk path is byte-identical to a standalone
        // extraction over the same levels.
        let (graph, mut w) = build(2_000, 5);
        let single = bfs2d::try_run(&graph, &mut w, &BfsConfig::paper_optimized(), s).unwrap();
        for r in &rs {
            let QueryKind::Path { target, .. } = r.kind else {
                panic!("expected path kind");
            };
            let mut pw = SimWorld::bluegene(graph.grid());
            let want = bfs_core::path::try_extract_path(&graph, &mut pw, &single.levels, s, target)
                .unwrap();
            assert_eq!(r.outcome, Outcome::Path(want), "target {target}");
        }
    }

    #[test]
    fn cached_path_hits_walk_distributedly_without_a_batch() {
        let mut srv = server(ServerConfig::default());
        let s = 42u64;
        srv.submit(QueryKind::FullTraversal { source: s }).unwrap();
        srv.run_to_completion();
        assert_eq!(srv.stats().batches, 1);
        let walks_before = srv.stats().path_walks;
        for t in [7u64, 1999, 300] {
            srv.submit(QueryKind::Path {
                source: s,
                target: t,
            })
            .unwrap();
        }
        let rs = srv.run_to_completion();
        assert_eq!(srv.stats().batches, 1, "cache hits must not re-run engines");
        assert_eq!(srv.stats().path_walks, walks_before + 1);
        assert_eq!(srv.stats().cache_hit_path, 3);
        assert!(srv.stats().cache_bytes_path > 0);
        for r in &rs {
            assert_eq!(r.served_by, ServedBy::Cache);
            assert!(matches!(r.outcome, Outcome::Path(_)));
        }
    }

    #[test]
    fn queue_depth_is_sampled_per_pump() {
        let mut srv = server(ServerConfig {
            batch_width: 1,
            cache_capacity: 0,
            ..ServerConfig::default()
        });
        for s in [1u64, 2, 3] {
            srv.submit(QueryKind::Distance {
                source: s,
                target: 0,
            })
            .unwrap();
        }
        srv.run_to_completion();
        assert_eq!(srv.stats().queue_depth_max, 3);
        assert_eq!(srv.stats().queue_depth_samples, 3);
    }

    #[test]
    fn fingerprint_separates_specs() {
        let a = graph_fingerprint(&GraphSpec::rmat(1000, 8.0, 1));
        let b = graph_fingerprint(&GraphSpec::rmat(1000, 8.0, 2));
        let c = graph_fingerprint(&GraphSpec::poisson(1000, 8.0, 1));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, graph_fingerprint(&GraphSpec::rmat(1000, 8.0, 1)));
    }

    #[test]
    fn summary_json_parses() {
        let mut srv = server(ServerConfig::default());
        srv.submit(QueryKind::FullTraversal { source: 3 }).unwrap();
        srv.run_to_completion();
        let j = srv.summary_json();
        bgl_trace::json::parse(&j).expect("summary must be valid JSON");
        assert!(j.contains("\"qps_simulated\""));
        assert!(j.contains("\"occupancy_mean\""));
    }
}
