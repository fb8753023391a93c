//! Metric declarations, the text report, the final JSON line, and the
//! cross-run determinism check.

use crate::stats::{Fnv, Tally};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Which clock a metric reads. Host and simulated numbers are never
/// combined in one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall-clock time or memory of this process.
    Host,
    /// The simulated BlueGene/L clock: deterministic for a seed.
    Sim,
    /// An exact count: deterministic for a seed.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }

    /// Whether values must repeat bit for bit under one seed.
    pub fn deterministic(self) -> bool {
        self != Clock::Host
    }
}

/// A declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Stable name: a letter or digit, then `[A-Za-z0-9_.-]`, at most 64.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Clock.
    pub clock: Clock,
}

const fn d(name: &'static str, unit: &'static str, clock: Clock) -> Def {
    Def { name, unit, clock }
}

use Clock::{Count, Host, Sim};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Def] = &[
    d("setup_s", "s", Host),
    d("search_host_ms", "ms", Host),
    d("search_sim_ms", "ms", Sim),
    d("host_qps", "1/s", Host),
    d("sim_qps", "1/s", Sim),
    d("query_sim_ms.p50", "ms", Sim),
    d("query_sim_ms.p99", "ms", Sim),
    d("peak_rss_mb", "MB", Host),
];

/// Per-layer metrics, printed by every traced run. A metric whose layer
/// a workload bypasses reads 0 there.
pub const PER_LAYER: &[Def] = &[
    // bgl-graph (construction, host clock; sizes are counts)
    d("graph.gen_s", "s", Host),
    d("graph.bucket_s", "s", Host),
    d("graph.csr_s", "s", Host),
    d("graph.csr_max_rank_s", "s", Host),
    d("graph.build_s", "s", Host),
    d("graph.other_s", "s", Host),
    d("graph.entries", "count", Count),
    d("graph.max_rank_entries", "count", Count),
    d("graph.max_rank_bytes", "B", Count),
    // bfs-core single source (per search)
    d("bfs.levels", "count", Count),
    d("bfs.bu_levels", "count", Count),
    d("bfs.td_probes", "count", Count),
    d("bfs.bu_probes", "count", Count),
    d("bfs.sim_compute_ms", "ms", Sim),
    d("bfs.sim_comm_ms", "ms", Sim),
    d("bfs.sim_codec_ms", "ms", Sim),
    // simulated phase spans (per search or per engine batch)
    d("phase.termination.sim_ms", "ms", Sim),
    d("phase.expand.sim_ms", "ms", Sim),
    d("phase.gather.sim_ms", "ms", Sim),
    d("phase.discover.sim_ms", "ms", Sim),
    d("phase.fold.sim_ms", "ms", Sim),
    d("phase.absorb.sim_ms", "ms", Sim),
    d("phase.path_walk.sim_ms", "ms", Sim),
    // bgl-comm (per search or per engine batch)
    d("comm.messages", "count", Count),
    d("comm.expand_verts", "count", Count),
    d("comm.fold_verts", "count", Count),
    d("comm.dups_eliminated", "count", Count),
    d("comm.logical_bytes", "B", Count),
    d("comm.wire_bytes", "B", Count),
    d("comm.list_unions", "count", Count),
    d("comm.bitmap_unions", "count", Count),
    // bgl-torus (per search or per engine batch)
    d("torus.max_link_bytes", "B", Count),
    d("torus.links_used", "count", Count),
    // bfs-core lanes, replayed per served batch
    d("multi.host_ms.p50", "ms", Host),
    d("multi.sim_ms.p50", "ms", Sim),
    d("multi.waves", "count", Count),
    d("multi.probes", "count", Count),
    // bfs-core path walks in the server
    d("path.walks", "count", Count),
    d("path.hops", "count", Count),
    d("path.rounds", "count", Count),
    d("path.sim_ms", "ms", Sim),
    // bgl-server
    d("server.pump_host_ms.p50", "ms", Host),
    d("server.pump_host_ms.p90", "ms", Host),
    d("server.wait_sim_ms.p50", "ms", Sim),
    d("server.wait_sim_ms.p99", "ms", Sim),
    d("server.batches", "count", Count),
    d("server.occupancy_mean", "count", Count),
    d("cache.hit_ratio", "frac", Count),
    d("cache.evictions", "count", Count),
    d("cache.resident_bytes", "B", Count),
    // the tracing itself
    d("trace.overhead_frac", "frac", Host),
    d("trace.host_spans", "count", Count),
    d("trace.dropped_events", "count", Count),
];

/// The metrics of one run, with notes and the correctness tally.
#[derive(Debug)]
pub struct Report {
    defs: &'static [Def],
    values: BTreeMap<&'static str, (f64, String)>,
    /// Header lines (host metadata, workload parameters, checks).
    pub lines: Vec<String>,
    /// Operations and errors.
    pub tally: Tally,
    /// Extra deterministic state (level hashes, per-query answers)
    /// mixed into the run's fingerprint beside the sim/count metrics.
    pub detail: Fnv,
}

impl Report {
    /// A report that must set every metric of `defs`.
    pub fn new(defs: &'static [Def]) -> Self {
        Self {
            defs,
            values: BTreeMap::new(),
            lines: Vec::new(),
            tally: Tally::default(),
            detail: Fnv::default(),
        }
    }

    /// Whether `name` has been set.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// Set a declared metric; setting an undeclared one is an error.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        if self.defs.iter().any(|d| d.name == name) {
            self.values.insert(name, (value, note.into()));
        } else {
            self.tally
                .error(format!("metric {name} is not declared for this run"));
        }
    }

    /// Add a header line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Fingerprint of every deterministic metric plus `detail`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = self.detail;
        for def in self.defs.iter().filter(|d| d.clock.deterministic()) {
            h.bytes(def.name.as_bytes());
            h.f64(self.values.get(def.name).map_or(f64::NAN, |v| v.0));
        }
        h.0
    }

    /// Check completeness and print the text report followed by the
    /// one-line JSON result. Returns whether the run is correct.
    pub fn print(&mut self) -> bool {
        for def in self.defs {
            match self.values.get(def.name) {
                None => self
                    .tally
                    .error(format!("metric {} was not measured", def.name)),
                Some((v, _)) if !v.is_finite() => self
                    .tally
                    .error(format!("metric {} is not finite ({v})", def.name)),
                Some(_) => {}
            }
        }
        for l in &self.lines {
            println!("{l}");
        }
        for def in self.defs {
            if let Some((v, note)) = self.values.get(def.name) {
                let sep = if note.is_empty() { "" } else { "  # " };
                println!(
                    "metric {:<26} = {:>14.6} {:<5} [{}]{sep}{note}",
                    def.name,
                    v,
                    def.unit,
                    def.clock.label()
                );
            }
        }
        let t = &self.tally;
        println!(
            "metric {:<26} = {:>14.6} {:<5} [count]  # {} failed of {} attempted",
            "failed_frac",
            t.failed_frac(),
            "frac",
            t.failed,
            t.attempted
        );
        for e in &t.errors {
            println!("error: {e}");
        }
        let correct = t.correct();
        let mut j = String::new();
        let _ = write!(
            j,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            t.attempted.max(1),
            t.failed
        );
        for (i, def) in self.defs.iter().enumerate() {
            let v = self.values.get(def.name).map_or(0.0, |v| v.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                j,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                def.name, def.unit
            );
        }
        j.push_str("}}");
        println!("{j}");
        correct
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Fingerprint of this executable's bytes: two runs compare their
/// results only when they ran the same build.
pub fn build_id() -> u64 {
    let mut h = Fnv::default();
    if let Ok(bytes) = std::env::current_exe().and_then(std::fs::read) {
        h.bytes(&bytes);
    }
    h.0
}

/// Compare this run's deterministic fingerprint with the one an earlier
/// run of the same build, workload, seed and mode left in `dir`, and
/// record it for later runs. A mismatch is a determinism error.
pub fn check_across_runs(dir: &Path, key: &str, fingerprint: u64) -> Result<(), String> {
    let path: PathBuf = dir.join(format!("{key}.fp"));
    let now = format!("{fingerprint:016x}");
    match std::fs::read_to_string(&path) {
        Ok(before) if before.trim() != now => Err(format!(
            "determinism: sim/count results of {key} differ from an earlier run of the same build \
             ({} vs {now})",
            before.trim()
        )),
        Ok(_) => Ok(()),
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            std::fs::write(&path, now).map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for n in &all {
            assert!(valid_metric_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric names");
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn fingerprint_ignores_host_metrics_only() {
        let mut a = Report::new(END_TO_END);
        a.set("setup_s", 1.0, "");
        a.set("search_sim_ms", 2.0, "");
        let fa = a.fingerprint();
        a.set("setup_s", 9.0, "");
        assert_eq!(a.fingerprint(), fa, "host metrics are noise, not drift");
        a.set("search_sim_ms", 2.0000001, "");
        assert_ne!(a.fingerprint(), fa);
    }

    #[test]
    fn cross_run_check_flags_drift() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-fp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(check_across_runs(&dir, "w-1", 7).is_ok());
        assert!(check_across_runs(&dir, "w-1", 7).is_ok());
        assert!(check_across_runs(&dir, "w-1", 8).is_err());
        assert!(check_across_runs(&dir, "w-2", 8).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
