//! Per-run and per-level BFS statistics — the quantities the paper's
//! evaluation section plots and tabulates.

use bgl_comm::{CommStats, OpClass, SimWorld};
use serde::{Deserialize, Serialize};

/// Which traversal direction a level actually ran (the
/// direction-optimizing engine's per-level choice; pure top-down runs
/// record `TopDown` everywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum LevelDirection {
    /// Expand → discover → fold (the paper's algorithm).
    #[default]
    TopDown,
    /// Expand → bottom-up discover (a row scan) → fold.
    BottomUp,
}

impl LevelDirection {
    /// Short label for tables (`td` / `bu`).
    pub fn label(self) -> &'static str {
        match self {
            LevelDirection::TopDown => "td",
            LevelDirection::BottomUp => "bu",
        }
    }
}

/// Statistics for one BFS level (one iteration of the main loop).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct LevelStats {
    /// The level index `l` (frontier at distance `l` was expanded).
    pub level: u32,
    /// Global frontier size at this level.
    pub frontier: u64,
    /// Vertices received in expand messages, summed over ranks
    /// (Figure 6 / Table 1 expand volume).
    pub expand_received: u64,
    /// Vertices received in fold messages, summed over ranks
    /// (Figure 4.b / Figure 6 fold volume).
    pub fold_received: u64,
    /// Duplicates eliminated by union operations this level (Figure 7
    /// numerator).
    pub dups_eliminated: u64,
    /// Simulated seconds this level took.
    pub sim_time: f64,
    /// Communication component of `sim_time`.
    pub comm_time: f64,
    /// Union-fold merges this level that ran on the sorted-list
    /// representation.
    #[serde(default)]
    pub list_unions: u64,
    /// Union-fold merges this level that ran on the bitmap
    /// representation (word-wise OR).
    #[serde(default)]
    pub bitmap_unions: u64,
    /// List→bitmap densification switches this level (the accumulator
    /// crossed the density threshold).
    #[serde(default)]
    pub densify_switches: u64,
    /// Uncompressed payload bytes sent this level (all classes,
    /// excluding self-sends).
    #[serde(default)]
    pub logical_bytes: u64,
    /// Bytes actually placed on the wire this level after the codec
    /// (equals `logical_bytes` with the codec off).
    #[serde(default)]
    pub wire_bytes: u64,
    /// Simulated seconds this level spent encoding/decoding wire
    /// frames (a component of compute time; 0 with the codec off).
    #[serde(default)]
    pub codec_time: f64,
    /// The direction this level ran (always `TopDown` without the
    /// direction-optimizing engine).
    #[serde(default)]
    pub direction: LevelDirection,
    /// Hash probes charged on this level when it ran top-down
    /// (discover + absorb, summed over ranks; 0 on bottom-up levels).
    #[serde(default)]
    pub td_probes: u64,
    /// Hash probes charged on this level when it ran bottom-up
    /// (frontier membership tests + absorb, summed over ranks; 0 on
    /// top-down levels).
    #[serde(default)]
    pub bu_probes: u64,
}

/// The world's clocks and message counters when a level starts. Every
/// engine takes one per level and turns it into that level's
/// [`LevelStats`] with [`LevelSnapshot::finish`].
pub(crate) struct LevelSnapshot {
    time: f64,
    comm_time: f64,
    codec_time: f64,
    comm: CommStats,
}

impl LevelSnapshot {
    /// Snapshot `world` now.
    pub(crate) fn take(world: &SimWorld) -> Self {
        Self {
            time: world.time(),
            comm_time: world.comm_time(),
            codec_time: world.codec_time(),
            comm: world.stats.clone(),
        }
    }

    /// Simulated time at the snapshot (the level's start).
    pub(crate) fn time(&self) -> f64 {
        self.time
    }

    /// The level's record: everything `world` did since the snapshot,
    /// with the level's hash `probes` attributed to its `direction`.
    pub(crate) fn finish(
        self,
        world: &SimWorld,
        level: u32,
        frontier: u64,
        direction: LevelDirection,
        probes: u64,
    ) -> LevelStats {
        let delta = world.stats.minus(&self.comm);
        let bottom_up = direction == LevelDirection::BottomUp;
        LevelStats {
            level,
            frontier,
            expand_received: delta.class(OpClass::Expand).received_verts,
            fold_received: delta.class(OpClass::Fold).received_verts,
            dups_eliminated: delta.total_dups_eliminated(),
            sim_time: world.time() - self.time,
            comm_time: world.comm_time() - self.comm_time,
            list_unions: delta.setops.list_unions,
            bitmap_unions: delta.setops.bitmap_unions,
            densify_switches: delta.setops.densify_switches,
            logical_bytes: delta.total_logical_bytes(),
            wire_bytes: delta.total_wire_bytes(),
            codec_time: world.codec_time() - self.codec_time,
            direction,
            td_probes: if bottom_up { 0 } else { probes },
            bu_probes: if bottom_up { probes } else { 0 },
        }
    }
}

/// Statistics for one whole BFS run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Per-level records, in level order.
    pub levels: Vec<LevelStats>,
    /// Total simulated seconds.
    pub sim_time: f64,
    /// Communication component of `sim_time`.
    pub comm_time: f64,
    /// Computation component of `sim_time`.
    pub compute_time: f64,
    /// Wire-codec component of `compute_time` (0 with the codec off).
    #[serde(default)]
    pub codec_time: f64,
    /// Number of vertices reached (labeled), including the source.
    pub reached: u64,
    /// Final cumulative communication statistics.
    pub comm: CommStats,
    /// Number of ranks.
    pub p: usize,
}

impl RunStats {
    /// A run's statistics: its per-level `levels` and `reached` count
    /// plus the world's cumulative clocks and message counters.
    pub(crate) fn from_world(world: &SimWorld, levels: Vec<LevelStats>, reached: u64) -> Self {
        Self {
            levels,
            sim_time: world.time(),
            comm_time: world.comm_time(),
            compute_time: world.compute_time(),
            codec_time: world.codec_time(),
            reached,
            comm: world.stats.clone(),
            p: world.p(),
        }
    }

    /// Number of levels executed.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Table 1 metric: average expand message volume received per
    /// processor per level (vertices).
    pub fn avg_expand_len_per_level(&self) -> f64 {
        self.avg_len_per_level(OpClass::Expand)
    }

    /// Table 1 metric: average fold message volume received per
    /// processor per level (vertices).
    pub fn avg_fold_len_per_level(&self) -> f64 {
        self.avg_len_per_level(OpClass::Fold)
    }

    fn avg_len_per_level(&self, class: OpClass) -> f64 {
        if self.levels.is_empty() || self.p == 0 {
            return 0.0;
        }
        self.comm.class(class).received_verts as f64 / self.p as f64 / self.levels.len() as f64
    }

    /// Figure 7 metric: the redundancy ratio in percent.
    pub fn redundancy_ratio_percent(&self) -> f64 {
        self.comm.redundancy_ratio_percent()
    }

    /// Fraction of union-fold merges that ran on the bitmap
    /// representation (0 when no unions ran — e.g. direct all-to-all
    /// folds).
    pub fn bitmap_union_fraction(&self) -> f64 {
        let s = self.comm.setops;
        let total = s.list_unions + s.bitmap_unions;
        if total == 0 {
            0.0
        } else {
            s.bitmap_unions as f64 / total as f64
        }
    }

    /// Total message volume received (all classes), in vertices.
    pub fn total_received(&self) -> u64 {
        self.comm.total_received()
    }

    /// Wire compression ratio `logical / wire` over the whole run (1.0
    /// with the codec off).
    pub fn compression_ratio(&self) -> f64 {
        self.comm.compression_ratio()
    }

    /// How many levels ran top-down and bottom-up, respectively.
    pub fn direction_split(&self) -> (usize, usize) {
        let bu = self
            .levels
            .iter()
            .filter(|l| l.direction == LevelDirection::BottomUp)
            .count();
        (self.levels.len() - bu, bu)
    }

    /// Total hash probes charged over the run, both directions. This is
    /// the work metric the direction-optimizing engine minimizes (the
    /// paper profiles BFS as hash-dominated).
    pub fn total_probes(&self) -> u64 {
        self.levels.iter().map(|l| l.td_probes + l.bu_probes).sum()
    }

    /// Traversed edges per simulated second (the Graph500 metric), given
    /// the number of edges the search touched. Returns 0 for a zero-time
    /// run (e.g. single rank with modelled-free local work).
    pub fn teps(&self, edges_traversed: u64) -> f64 {
        if self.sim_time <= 0.0 {
            0.0
        } else {
            edges_traversed as f64 / self.sim_time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(levels: usize, p: usize, expand: u64, fold: u64) -> RunStats {
        let mut comm = CommStats::new(p);
        for _ in 0..expand {
            comm.note_message(OpClass::Expand, 0, 1, 1);
        }
        for _ in 0..fold {
            comm.note_message(OpClass::Fold, 0, 1, 1);
        }
        RunStats {
            levels: (0..levels)
                .map(|l| LevelStats {
                    level: l as u32,
                    frontier: 1,
                    expand_received: 0,
                    fold_received: 0,
                    dups_eliminated: 0,
                    sim_time: 0.0,
                    comm_time: 0.0,
                    list_unions: 0,
                    bitmap_unions: 0,
                    densify_switches: 0,
                    logical_bytes: 0,
                    wire_bytes: 0,
                    codec_time: 0.0,
                    direction: LevelDirection::TopDown,
                    td_probes: 0,
                    bu_probes: 0,
                })
                .collect(),
            sim_time: 0.0,
            comm_time: 0.0,
            compute_time: 0.0,
            codec_time: 0.0,
            reached: 1,
            comm,
            p,
        }
    }

    #[test]
    fn per_level_averages() {
        let s = mk(4, 2, 80, 160);
        assert!((s.avg_expand_len_per_level() - 10.0).abs() < 1e-12);
        assert!((s.avg_fold_len_per_level() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_is_zero() {
        let s = mk(0, 2, 0, 0);
        assert_eq!(s.avg_expand_len_per_level(), 0.0);
        assert_eq!(s.num_levels(), 0);
    }
}
