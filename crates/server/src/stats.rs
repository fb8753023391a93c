//! Serving-side accounting: QPS, latency, batch occupancy, cache
//! effectiveness. All counters are exact and deterministic (driven by
//! the tick clock and simulated time, never wall time).

/// Aggregate counters for one server lifetime.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Queries admitted to the queue.
    pub submitted: u64,
    /// Submissions refused with backpressure.
    pub rejected: u64,
    /// Queries answered by a batched engine wave.
    pub served_engine: u64,
    /// Queries answered from the result cache.
    pub served_cache: u64,
    /// Queries whose deadline passed in the queue.
    pub expired: u64,
    /// Multi-source batches executed.
    pub batches: u64,
    /// Sum of batch occupancies (lanes actually used).
    pub lanes_total: u64,
    /// Largest batch occupancy seen.
    pub max_occupancy: u64,
    /// Total BFS waves (levels) across all batches.
    pub waves_total: u64,
    /// Waves that ran bottom-up (a subset of `waves_total`).
    pub bu_waves: u64,
    /// Batches whose every lane passed Graph500-style validation.
    pub validated_batches: u64,
    /// Simulated seconds spent in batched engine waves.
    pub engine_sim_time: f64,
    /// Simulated seconds spent serving cache hits (modelled response
    /// copies).
    pub cache_sim_time: f64,
    /// Lane-masked batched path-walk waves executed.
    pub path_walks: u64,
    /// Path lanes advanced across all walk waves.
    pub path_walk_lanes: u64,
    /// Walk hops executed (each shared by every active lane).
    pub path_walk_hops: u64,
    /// Control rounds spent in walk waves (three per hop).
    pub path_walk_rounds: u64,
    /// Simulated seconds spent in batched path walks.
    pub path_walk_sim_time: f64,
    /// Cache hits that served a `FullTraversal`.
    pub cache_hit_full: u64,
    /// Cache hits that served a `Distance`.
    pub cache_hit_distance: u64,
    /// Cache hits that served a `Path`.
    pub cache_hit_path: u64,
    /// Response bytes served from cache to `FullTraversal` queries.
    pub cache_bytes_full: u64,
    /// Response bytes served from cache to `Distance` queries.
    pub cache_bytes_distance: u64,
    /// Response bytes served from cache to `Path` queries.
    pub cache_bytes_path: u64,
    /// Sum of queue depths sampled at each pump (open-loop pressure).
    pub queue_depth_sum: u64,
    /// Pumps that sampled the queue depth.
    pub queue_depth_samples: u64,
    /// Deepest queue seen at a pump.
    pub queue_depth_max: u64,
    /// Sum of per-query latencies in ticks (admission → completion).
    pub latency_ticks_sum: u64,
    /// Largest per-query latency in ticks.
    pub latency_ticks_max: u64,
    /// Served `FullTraversal` queries.
    pub kind_full: u64,
    /// Served `Distance` queries.
    pub kind_distance: u64,
    /// Served `Path` queries.
    pub kind_path: u64,
}

impl ServerStats {
    /// Queries answered (engine + cache; excludes expirations).
    pub fn served_total(&self) -> u64 {
        self.served_engine + self.served_cache
    }

    /// Mean lanes per batch.
    pub fn occupancy_mean(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.lanes_total as f64 / self.batches as f64
        }
    }

    /// Served queries per simulated second of total serving time
    /// (engine waves + cache copies + batched path walks).
    pub fn qps(&self) -> f64 {
        let t = self.engine_sim_time + self.cache_sim_time + self.path_walk_sim_time;
        if t == 0.0 {
            0.0
        } else {
            self.served_total() as f64 / t
        }
    }

    /// Mean path lanes per walk wave (batching effectiveness).
    pub fn path_walk_occupancy_mean(&self) -> f64 {
        if self.path_walks == 0 {
            0.0
        } else {
            self.path_walk_lanes as f64 / self.path_walks as f64
        }
    }

    /// Mean queue depth over all pump samples.
    pub fn queue_depth_mean(&self) -> f64 {
        if self.queue_depth_samples == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_depth_samples as f64
        }
    }

    /// Mean simulated seconds of engine time per engine-served query.
    pub fn engine_time_per_query(&self) -> f64 {
        if self.served_engine == 0 {
            0.0
        } else {
            self.engine_sim_time / self.served_engine as f64
        }
    }

    /// Mean simulated seconds per cache-served query.
    pub fn cache_time_per_query(&self) -> f64 {
        if self.served_cache == 0 {
            0.0
        } else {
            self.cache_sim_time / self.served_cache as f64
        }
    }

    /// Mean per-query latency in ticks.
    pub fn latency_ticks_mean(&self) -> f64 {
        let done = self.served_total() + self.expired;
        if done == 0 {
            0.0
        } else {
            self.latency_ticks_sum as f64 / done as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let s = ServerStats {
            served_engine: 8,
            served_cache: 2,
            batches: 4,
            lanes_total: 10,
            engine_sim_time: 2.0,
            cache_sim_time: 0.5,
            latency_ticks_sum: 30,
            ..ServerStats::default()
        };
        assert_eq!(s.served_total(), 10);
        assert!((s.occupancy_mean() - 2.5).abs() < 1e-12);
        assert!((s.qps() - 4.0).abs() < 1e-12);
        assert!((s.engine_time_per_query() - 0.25).abs() < 1e-12);
        assert!((s.cache_time_per_query() - 0.25).abs() < 1e-12);
        assert!((s.latency_ticks_mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_zero() {
        let s = ServerStats::default();
        assert_eq!(s.qps(), 0.0);
        assert_eq!(s.occupancy_mean(), 0.0);
        assert_eq!(s.engine_time_per_query(), 0.0);
        assert_eq!(s.cache_time_per_query(), 0.0);
        assert_eq!(s.latency_ticks_mean(), 0.0);
        assert_eq!(s.path_walk_occupancy_mean(), 0.0);
        assert_eq!(s.queue_depth_mean(), 0.0);
    }

    #[test]
    fn walk_time_feeds_qps() {
        let s = ServerStats {
            served_engine: 4,
            engine_sim_time: 1.0,
            path_walk_sim_time: 1.0,
            path_walks: 2,
            path_walk_lanes: 7,
            queue_depth_sum: 9,
            queue_depth_samples: 3,
            ..ServerStats::default()
        };
        assert!((s.qps() - 2.0).abs() < 1e-12);
        assert!((s.path_walk_occupancy_mean() - 3.5).abs() < 1e-12);
        assert!((s.queue_depth_mean() - 3.0).abs() < 1e-12);
    }
}
