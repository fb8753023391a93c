//! BFS run configuration: which of the paper's strategies to use.

use bgl_graph::Vertex;
use serde::{Deserialize, Serialize};

/// How the expand operation (frontier → processor-column) communicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExpandStrategy {
    /// Targeted all-to-all: a frontier vertex is sent only to the column
    /// peers that hold a non-empty partial edge list for it (§2.2/§3.1 —
    /// the strategy whose message length is bounded by
    /// `n/P · γ(n/R) · (R−1)`). Requires the expand-targeting tables.
    Targeted,
    /// Ring all-gather of whole frontiers: every column peer receives
    /// every frontier vertex (`n/P · (R−1)` worst case — the
    /// non-scalable baseline the paper calls out).
    AllGatherRing,
    /// The §3.2.2 two-phase grouped-ring broadcast.
    TwoPhaseRing,
}

/// How the fold operation (neighbors → owners in the processor-row)
/// communicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FoldStrategy {
    /// Direct targeted all-to-all; duplicate elimination happens only at
    /// the receiver (Algorithm 2 line 18).
    DirectAllToAll,
    /// Ring reduce-scatter with set-union reduction (§2.2's
    /// reduce-scatter alternative).
    ReduceScatterUnion,
    /// The §3.2.2 two-phase grouped-ring union-fold (the paper's
    /// BlueGene/L-optimized collective, Figure 2).
    TwoPhaseRing,
}

/// Which traversal direction the engine may use per level.
///
/// The adaptive decision is computed from three globally-allreduced
/// `u64`s — frontier size `gf`, local-degree frontier mass `mf̂` (≈
/// `m_f / R`), and unexplored stored entries `mû` — using pure integer
/// arithmetic, so every rank (and both runtimes) makes the identical
/// choice: go bottom-up iff `ALPHA · R · mf̂ > mû` **and**
/// `BETA · gf > n`, with Beamer's published α = 14 and β = 24.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DirectionPolicy {
    /// Always top-down (expand → discover → fold) — the paper's
    /// algorithm, and the default: existing runs stay byte-identical.
    #[default]
    TopDown,
    /// Beamer-style adaptive switching: each level deterministically
    /// picks top-down or bottom-up from globally-allreduced frontier
    /// and unexplored-edge counts (no extra communication rounds —
    /// the counts ride the termination allreduce widened to 3 words).
    Adaptive,
    /// Force bottom-up on every non-empty level (testing/ablation).
    BottomUp,
}

/// Top-down→bottom-up edge-mass threshold (Beamer's α): the frontier
/// must touch more than `mû / α` of the unexplored edges.
const ALPHA: u64 = 14;

/// Frontier-size floor (Beamer's β, reciprocal form): bottom-up only
/// while `gf > n / β`.
const BETA: u64 = 24;

impl DirectionPolicy {
    /// The switch decision, given the three allreduced global counts,
    /// the graph's vertex count `n`, and the grid's row count `r`.
    /// Integer-only, hence bit-reproducible across ranks and runtimes.
    pub fn wants_bottom_up(self, gf: u64, mf_hat: u64, mu_hat: u64, n: u64, r: u64) -> bool {
        match self {
            Self::TopDown => false,
            Self::BottomUp => gf > 0,
            Self::Adaptive => {
                gf > 0
                    && ALPHA.saturating_mul(r).saturating_mul(mf_hat) > mu_hat
                    && BETA.saturating_mul(gf) > n
            }
        }
    }
}

/// Full configuration of one BFS run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BfsConfig {
    /// Expand strategy.
    pub expand: ExpandStrategy,
    /// Fold strategy.
    pub fold: FoldStrategy,
    /// Enable the §2.4.3 sent-neighbors cache (a vertex already sent to
    /// its owner is never sent again by the same rank).
    pub sent_neighbors: bool,
    /// Optional search target: the run stops at the level where the
    /// target is labeled. `None` (or an unreachable target) traverses
    /// the whole component — the paper's Figure 6 worst case.
    pub target: Option<Vertex>,
    /// Direction-optimization policy. Defaults to pure top-down, which
    /// keeps the single-word termination allreduce and every existing
    /// run bit-identical.
    #[serde(default)]
    pub direction: DirectionPolicy,
}

impl BfsConfig {
    /// The paper's optimized BlueGene/L configuration: targeted expand,
    /// two-phase union-fold, sent-neighbors cache on.
    pub fn paper_optimized() -> Self {
        Self {
            expand: ExpandStrategy::Targeted,
            fold: FoldStrategy::TwoPhaseRing,
            sent_neighbors: true,
            target: None,
            direction: DirectionPolicy::TopDown,
        }
    }

    /// The unoptimized baseline: direct all-to-all everywhere, no
    /// en-route union.
    pub fn baseline_alltoall() -> Self {
        Self {
            expand: ExpandStrategy::Targeted,
            fold: FoldStrategy::DirectAllToAll,
            sent_neighbors: true,
            target: None,
            direction: DirectionPolicy::TopDown,
        }
    }

    /// The paper-optimized configuration plus adaptive direction
    /// switching. The sent-neighbors cache stays on: bottom-up relies
    /// on it to skip already-emitted rows, and it is what keeps the
    /// adaptive run's levels bit-equal to pure top-down.
    pub fn direction_optimized() -> Self {
        Self {
            direction: DirectionPolicy::Adaptive,
            ..Self::paper_optimized()
        }
    }

    /// Set a search target.
    pub fn with_target(mut self, target: Vertex) -> Self {
        self.target = Some(target);
        self
    }

    /// Set the direction-optimization policy.
    pub fn with_direction(mut self, direction: DirectionPolicy) -> Self {
        self.direction = direction;
        self
    }
}

impl Default for BfsConfig {
    fn default() -> Self {
        Self::paper_optimized()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_optimized() {
        let c = BfsConfig::default();
        assert_eq!(c.expand, ExpandStrategy::Targeted);
        assert_eq!(c.fold, FoldStrategy::TwoPhaseRing);
        assert!(c.sent_neighbors);
        assert!(c.target.is_none());
    }

    #[test]
    fn with_target_sets_target() {
        let c = BfsConfig::default().with_target(42);
        assert_eq!(c.target, Some(42));
    }

    #[test]
    fn default_direction_is_top_down() {
        // The serde default (what a pre-direction config deserializes
        // to) and the constructor default must both be pure top-down.
        assert_eq!(BfsConfig::default().direction, DirectionPolicy::TopDown);
        assert_eq!(DirectionPolicy::default(), DirectionPolicy::TopDown);
        assert_eq!(
            BfsConfig::direction_optimized().direction,
            DirectionPolicy::Adaptive
        );
    }

    #[test]
    fn adaptive_decision_is_integer_and_thresholded() {
        let p = DirectionPolicy::Adaptive;
        let (n, r) = (1000, 4);
        // Tiny frontier with little edge mass: stay top-down.
        assert!(!p.wants_bottom_up(2, 1, 100_000, n, r));
        // Heavy frontier: both conditions hold.
        assert!(p.wants_bottom_up(300, 5_000, 20_000, n, r));
        // Edge mass alone is not enough when the frontier is tiny
        // relative to n (β gate).
        assert!(!p.wants_bottom_up(10, 5_000, 20_000, n, r));
        // Empty frontier never goes bottom-up, in any mode.
        assert!(!DirectionPolicy::BottomUp.wants_bottom_up(0, 0, 0, n, r));
        assert!(DirectionPolicy::BottomUp.wants_bottom_up(1, 0, 0, n, r));
        assert!(!DirectionPolicy::TopDown.wants_bottom_up(300, 5_000, 0, n, r));
        // α gate is strict: 14·R·mf̂ == mû stays top-down, one more unit
        // of mf̂ goes bottom-up.
        assert!(!p.wants_bottom_up(300, 1_000, 14 * 4 * 1_000, n, r));
        assert!(p.wants_bottom_up(300, 1_001, 14 * 4 * 1_000, n, r));
        // β gate is strict: 24·gf == n stays top-down, one more frontier
        // vertex goes bottom-up.
        let n = 24 * 50;
        assert!(!p.wants_bottom_up(50, 5_000, 20_000, n, r));
        assert!(p.wants_bottom_up(51, 5_000, 20_000, n, r));
        // u64::MAX inputs saturate instead of wrapping: a wrapped product
        // would land below u64::MAX - 1 and stay top-down.
        let max = u64::MAX;
        assert!(p.wants_bottom_up(max, max, max - 1, max - 1, max));
        assert!(!p.wants_bottom_up(max, max, max, max - 1, max));
        assert!(!p.wants_bottom_up(max, max, max - 1, max, max));
    }
}
