//! Deterministic fault model for the torus substrate.
//!
//! At 32,768 nodes, component failure is an operating condition, not an
//! exception. A [`FaultPlan`] describes, *reproducibly*, everything that
//! goes wrong during a run:
//!
//! * **dead links** — bi-directional torus links that carry no traffic;
//!   routes must detour around them ([`route_with_faults`]);
//! * **message faults** — per-attempt drop / duplicate / truncate
//!   probabilities, decided by a pure hash of
//!   `(seed, class, round, from, to, attempt)` so both the superstep
//!   simulator and the threaded runtime compute the *same* fault
//!   schedule with no shared RNG stream; a message that fails 16
//!   attempts is undeliverable;
//! * **rank deaths** — ranks scheduled to die at a given exchange round,
//!   driving the checkpoint/recovery path in `bfs-core`.
//!
//! Everything is a pure function of the plan: two runs with the same
//! `(seed, FaultPlan)` observe identical faults, which is what makes the
//! recovery path testable bit-for-bit against a fault-free oracle.

use crate::coord::{Coord3, TorusDims};
use crate::routing::{hop_distance, route_dimension_ordered, RouteStep};
use std::collections::VecDeque;

/// SplitMix64 finalizer: the same mixer `bgl-graph` uses for per-cell
/// seeds, reused here so fault decisions are cheap, stateless hashes.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to a uniform `f64` in `[0, 1)`.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

const SALT_DROP: u64 = 0xD509;
const SALT_DUP: u64 = 0xD0B1;
const SALT_TRUNC: u64 = 0x7A0C;
const SALT_CHAOS_DEATH: u64 = 0xDEAD;
const SALT_CHAOS_PROB: u64 = 0xC405;
const SALT_CHAOS_LINK: u64 = 0x11CC;

/// Delivery attempts per message before the link is declared
/// unreachable.
const MAX_ATTEMPTS: u32 = 16;

/// The message-class index the communication layer assigns to control
/// traffic (checkpoint parity updates, recovery transfers). Fault
/// decisions are keyed by class, so control faults — when a runtime
/// opts in to a faulty control channel — draw from an independent
/// hash stream and can carry their own probabilities.
pub const CONTROL_CLASS: u8 = 2;

/// Normalize an undirected link so `(a, b)` and `(b, a)` compare equal.
fn norm_link(a: Coord3, b: Coord3) -> (Coord3, Coord3) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A scheduled rank death: the rank stops participating at the start of
/// exchange round `at_round` (counted per message class by the runtime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankDeath {
    /// The rank that dies.
    pub rank: usize,
    /// The global data-exchange round at which it dies.
    pub at_round: u64,
}

/// A deterministic, seeded description of every fault in a run.
///
/// `FaultPlan::none()` (also `Default`) injects nothing and is guaranteed
/// zero-overhead: runtimes skip all fault bookkeeping when
/// [`FaultPlan::is_active`] is false.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for all probabilistic fault decisions.
    pub seed: u64,
    /// Per-attempt probability that a message is dropped in transit.
    pub drop_prob: f64,
    /// Per-attempt probability that a delivered message is duplicated
    /// (the duplicate is detected and discarded by the receiver, but is
    /// counted and, in the simulator, charged).
    pub duplicate_prob: f64,
    /// Per-attempt probability that a message arrives truncated (the
    /// receiver detects the short payload and the sender retransmits).
    /// Control-class traffic uses it too; it has no control override.
    pub truncate_prob: f64,
    /// Per-attempt drop probability for control-class traffic
    /// ([`CONTROL_CLASS`]), when a runtime routes control messages
    /// through the fault model. `None` falls back to [`drop_prob`]: a
    /// lossy fabric is lossy for recovery traffic too.
    ///
    /// [`drop_prob`]: FaultPlan::drop_prob
    pub control_drop_prob: Option<f64>,
    /// Control-class duplicate probability override (see
    /// [`control_drop_prob`]).
    ///
    /// [`control_drop_prob`]: FaultPlan::control_drop_prob
    pub control_duplicate_prob: Option<f64>,
    dead_links: Vec<(Coord3, Coord3)>,
    deaths: Vec<RankDeath>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// The fault-free plan: injects nothing, costs nothing.
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            truncate_prob: 0.0,
            control_drop_prob: None,
            control_duplicate_prob: None,
            dead_links: Vec::new(),
            deaths: Vec::new(),
        }
    }

    /// An empty plan carrying a seed for subsequent probabilistic knobs.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::none()
        }
    }

    /// Set the per-attempt message drop probability (builder style).
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0,1]"
        );
        self.drop_prob = p;
        self
    }

    /// Set the per-attempt duplicate probability (builder style).
    pub fn with_duplicate_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability must be in [0,1]"
        );
        self.duplicate_prob = p;
        self
    }

    /// Set the per-attempt truncation probability (builder style).
    pub fn with_truncate_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "truncate probability must be in [0,1]"
        );
        self.truncate_prob = p;
        self
    }

    /// Override the per-attempt drop probability for control-class
    /// traffic only (builder style). Lets tests make the recovery
    /// channel lossy while the data fabric stays clean, or vice versa.
    pub fn with_control_drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "control drop probability must be in [0,1]"
        );
        self.control_drop_prob = Some(p);
        self
    }

    /// Override the control-class duplicate probability (builder style).
    pub fn with_control_duplicate_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "control duplicate probability must be in [0,1]"
        );
        self.control_duplicate_prob = Some(p);
        self
    }

    /// Kill the bi-directional link between two (adjacent) nodes.
    pub fn kill_link(mut self, a: Coord3, b: Coord3) -> Self {
        let l = norm_link(a, b);
        if !self.dead_links.contains(&l) {
            self.dead_links.push(l);
        }
        self
    }

    /// Schedule `rank` to die at data-exchange round `at_round`.
    pub fn kill_rank_at(mut self, rank: usize, at_round: u64) -> Self {
        self.deaths.push(RankDeath { rank, at_round });
        self.deaths.sort_by_key(|d| (d.at_round, d.rank));
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.has_message_faults() || self.has_topology_faults() || self.has_deaths()
    }

    /// Whether any per-message probabilistic fault is enabled, on
    /// either the data or the control channel.
    pub fn has_message_faults(&self) -> bool {
        self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.truncate_prob > 0.0
            || self.control_drop_prob.unwrap_or(0.0) > 0.0
            || self.control_duplicate_prob.unwrap_or(0.0) > 0.0
    }

    /// The effective probability for `class`: the control override when
    /// the class is control traffic and one is set, the base otherwise.
    #[inline]
    fn class_prob(&self, class: u8, base: f64, control: Option<f64>) -> f64 {
        if class == CONTROL_CLASS {
            control.unwrap_or(base)
        } else {
            base
        }
    }

    /// Whether any link is dead.
    pub fn has_topology_faults(&self) -> bool {
        !self.dead_links.is_empty()
    }

    /// Whether any rank death is scheduled.
    pub fn has_deaths(&self) -> bool {
        !self.deaths.is_empty()
    }

    /// The scheduled rank deaths, ordered by round.
    pub fn deaths(&self) -> &[RankDeath] {
        &self.deaths
    }

    /// Ranks scheduled to die at exactly round `round`.
    pub fn deaths_at(&self, round: u64) -> impl Iterator<Item = usize> + '_ {
        self.deaths
            .iter()
            .filter(move |d| d.at_round == round)
            .map(|d| d.rank)
    }

    /// Whether the (undirected) link between `a` and `b` is dead.
    fn link_is_dead(&self, a: Coord3, b: Coord3) -> bool {
        self.dead_links.contains(&norm_link(a, b))
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn decide(
        &self,
        salt: u64,
        class: u8,
        round: u64,
        from: u64,
        to: u64,
        attempt: u32,
        p: f64,
    ) -> bool {
        if p <= 0.0 {
            return false;
        }
        let mut h = mix(self.seed ^ salt);
        h = mix(h ^ (class as u64) ^ round.rotate_left(17));
        h = mix(h ^ from.rotate_left(31) ^ to);
        h = mix(h ^ attempt as u64);
        unit(h) < p
    }

    /// Whether delivery attempt `attempt` of the message `(class, round,
    /// from, to)` is dropped in transit. Pure: any runtime evaluating
    /// this for the same plan sees the same answer.
    pub fn drops(&self, class: u8, round: u64, from: usize, to: usize, attempt: u32) -> bool {
        self.decide(
            SALT_DROP,
            class,
            round,
            from as u64,
            to as u64,
            attempt,
            self.class_prob(class, self.drop_prob, self.control_drop_prob),
        )
    }

    /// Whether the (delivered) attempt also produces a spurious duplicate.
    pub fn duplicates(&self, class: u8, round: u64, from: usize, to: usize, attempt: u32) -> bool {
        self.decide(
            SALT_DUP,
            class,
            round,
            from as u64,
            to as u64,
            attempt,
            self.class_prob(class, self.duplicate_prob, self.control_duplicate_prob),
        )
    }

    /// Whether the attempt arrives truncated (detected; forces a
    /// retransmission like a drop, but the garbled bytes did transit).
    pub fn truncates(&self, class: u8, round: u64, from: usize, to: usize, attempt: u32) -> bool {
        self.decide(
            SALT_TRUNC,
            class,
            round,
            from as u64,
            to as u64,
            attempt,
            self.truncate_prob,
        )
    }

    /// The delivery schedule for one message under the ack/retransmit
    /// protocol: returns `(attempts, duplicated)` where `attempts` is the
    /// 1-based index of the first attempt that transits intact (an
    /// `Err` holds `MAX_ATTEMPTS` if none does), and `duplicated` is
    /// whether the successful attempt spawned a spurious duplicate.
    ///
    /// Attempt `k` fails if it is dropped or truncated. Every failed
    /// attempt costs a retransmission; the runtimes charge those through
    /// the cost model and count them in `CommStats`.
    pub fn delivery(&self, class: u8, round: u64, from: usize, to: usize) -> Result<Delivery, u32> {
        if !self.has_message_faults() {
            return Ok(Delivery {
                attempts: 1,
                truncated_attempts: 0,
                duplicated: false,
            });
        }
        let mut truncated = 0;
        for attempt in 1..=MAX_ATTEMPTS {
            let dropped = self.drops(class, round, from, to, attempt);
            let trunc = !dropped && self.truncates(class, round, from, to, attempt);
            if trunc {
                truncated += 1;
            }
            if !dropped && !trunc {
                return Ok(Delivery {
                    attempts: attempt,
                    truncated_attempts: truncated,
                    duplicated: self.duplicates(class, round, from, to, attempt),
                });
            }
        }
        Err(MAX_ATTEMPTS)
    }

    /// Build a seeded randomized plan for chaos testing: at most one
    /// scheduled rank death per parity group of `group_size` consecutive
    /// ranks, hash-derived drop/truncate/duplicate probabilities below
    /// the spec's caps, and (optionally) one dead torus link. Pure in
    /// `(spec.seed, spec)` — the same spec always yields the same plan,
    /// so every chaos failure reproduces from its seed alone.
    pub fn chaos(spec: &ChaosSpec) -> FaultPlan {
        let s = spec.seed;
        let frac = |salt: u64, idx: u64| unit(mix(mix(s ^ salt) ^ idx));
        let mut plan = FaultPlan::seeded(s)
            .with_drop_prob(frac(SALT_CHAOS_PROB, 1) * spec.drop_prob_max)
            .with_truncate_prob(frac(SALT_CHAOS_PROB, 2) * spec.truncate_prob_max)
            .with_duplicate_prob(frac(SALT_CHAOS_PROB, 3) * spec.duplicate_prob_max);

        // One candidate death per parity group. Groups mirror
        // `bfs-core`'s layout: consecutive ranks, the remainder merged
        // into the last group, so a single death per group is always
        // reconstructible from the surviving members plus the shard.
        let g = spec.group_size.max(2);
        let groups = (spec.ranks / g).max(1);
        for group in 0..groups {
            if frac(SALT_CHAOS_DEATH, group as u64) >= spec.death_prob {
                continue;
            }
            let start = group * g;
            let end = if group + 1 == groups {
                spec.ranks
            } else {
                start + g
            };
            let h = mix(mix(s ^ SALT_CHAOS_DEATH) ^ (group as u64).rotate_left(23));
            let victim = start + (h as usize % (end - start));
            let round = 1 + (h >> 32) % spec.max_round.max(1);
            plan = plan.kill_rank_at(victim, round);
        }

        // Optionally kill one torus link; BFS detour routing absorbs it
        // unless the machine is degenerate (then the run surfaces a
        // typed `NoRoute`, which chaos consumers treat as an outcome).
        if let Some(dims) = spec.dims {
            if frac(SALT_CHAOS_LINK, 0) < spec.dead_link_prob {
                let h = mix(mix(s ^ SALT_CHAOS_LINK) ^ 1);
                let a = dims.delinearize(h as usize % dims.node_count());
                for d in 0..3 {
                    if dims.extent(d) > 1 {
                        let b = a.step(dims, d, 1);
                        plan = plan.kill_link(a, b);
                        break;
                    }
                }
            }
        }
        plan
    }
}

/// Parameters for [`FaultPlan::chaos`]: the randomized-fault envelope a
/// chaos sweep draws plans from.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Seed for every hash-derived choice below.
    pub seed: u64,
    /// World size (ranks eligible to die).
    pub ranks: usize,
    /// Parity-group size the death schedule respects (at most one death
    /// per group of consecutive ranks).
    pub group_size: usize,
    /// Per-group probability that a death is scheduled.
    pub death_prob: f64,
    /// Death rounds are drawn from `1..=max_round`.
    pub max_round: u64,
    /// Upper bound on the hash-derived per-attempt drop probability.
    pub drop_prob_max: f64,
    /// Upper bound on the truncation probability.
    pub truncate_prob_max: f64,
    /// Upper bound on the duplicate probability.
    pub duplicate_prob_max: f64,
    /// Probability of killing one torus link (needs `dims`).
    pub dead_link_prob: f64,
    /// Torus dimensions for link faults (`None` = no link faults).
    pub dims: Option<TorusDims>,
}

impl ChaosSpec {
    /// A moderate envelope: one death per group likely, lossy links up
    /// to 20% drop, occasional dead link.
    pub fn moderate(seed: u64, ranks: usize, group_size: usize) -> Self {
        Self {
            seed,
            ranks,
            group_size,
            death_prob: 0.75,
            max_round: 8,
            drop_prob_max: 0.2,
            truncate_prob_max: 0.05,
            duplicate_prob_max: 0.05,
            dead_link_prob: 0.0,
            dims: None,
        }
    }

    /// Builder-style: enable dead-link faults on a machine of `dims`.
    pub fn with_link_faults(mut self, dims: TorusDims, prob: f64) -> Self {
        self.dims = Some(dims);
        self.dead_link_prob = prob;
        self
    }
}

/// Outcome of [`FaultPlan::delivery`] for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// 1-based index of the successful attempt (1 = no retransmission).
    pub attempts: u32,
    /// How many of the failed attempts were truncations (bytes that
    /// transited the wire before being rejected).
    pub truncated_attempts: u32,
    /// Whether the successful attempt spawned a spurious duplicate.
    pub duplicated: bool,
}

/// Routing failed: no live path exists between the endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isolated {
    /// Route source.
    pub from: Coord3,
    /// Route destination.
    pub to: Coord3,
}

impl std::fmt::Display for Isolated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no live route from {:?} to {:?}: dead links isolate the endpoints",
            self.from, self.to
        )
    }
}

impl std::error::Error for Isolated {}

/// Route from `a` to `b` avoiding dead links.
///
/// With no topology faults this is exactly dimension-ordered routing.
/// Otherwise a breadth-first search over live links finds a *shortest
/// detour* (deterministic tie-breaking by dimension order), so the extra
/// cost charged for the fault is minimal, mirroring the torus hardware's
/// adaptive routing around failed links. Returns [`Isolated`] when the
/// fault set disconnects the endpoints.
pub fn route_with_faults(
    dims: TorusDims,
    a: Coord3,
    b: Coord3,
    plan: &FaultPlan,
) -> Result<Vec<RouteStep>, Isolated> {
    if !plan.has_topology_faults() {
        return Ok(route_dimension_ordered(dims, a, b));
    }
    if a == b {
        return Ok(Vec::new());
    }
    // Fast path: if the dimension-ordered route is entirely live, use it.
    let dor = route_dimension_ordered(dims, a, b);
    if dor.iter().all(|s| !plan.link_is_dead(s.from, s.to)) {
        return Ok(dor);
    }

    // Shortest detour: BFS over live links, neighbours visited in
    // (dimension, +1 before -1) order for determinism.
    let n = dims.node_count();
    let mut prev: Vec<Option<(usize, usize, isize)>> = vec![None; n]; // (pred idx, dim, dir)
    let mut seen = vec![false; n];
    let start = dims.linearize(a);
    let goal = dims.linearize(b);
    seen[start] = true;
    let mut queue = VecDeque::new();
    queue.push_back(start);
    while let Some(ci) = queue.pop_front() {
        if ci == goal {
            break;
        }
        let cur = dims.delinearize(ci);
        for d in 0..3 {
            let extent = dims.extent(d);
            if extent <= 1 {
                continue;
            }
            for dir in [1isize, -1] {
                if dir == -1 && extent <= 2 {
                    continue; // +1 already reaches the only neighbour
                }
                let nb = cur.step(dims, d, dir);
                let ni = dims.linearize(nb);
                if seen[ni] || plan.link_is_dead(cur, nb) {
                    continue;
                }
                seen[ni] = true;
                prev[ni] = Some((ci, d, dir));
                queue.push_back(ni);
            }
        }
    }
    if !seen[goal] {
        return Err(Isolated { from: a, to: b });
    }
    let mut steps = Vec::new();
    let mut ci = goal;
    while ci != start {
        // bgl-lint: allow(r1, reason = "seen[goal] above proves BFS reached goal, so every node on the chain has a recorded parent")
        let (pi, dim, dir) = prev[ci].expect("BFS parent chain broken");
        steps.push(RouteStep {
            from: dims.delinearize(pi),
            to: dims.delinearize(ci),
            dim,
            dir,
        });
        ci = pi;
    }
    steps.reverse();
    Ok(steps)
}

/// Extra hops a faulty route takes beyond the minimal distance.
pub fn detour_hops(dims: TorusDims, route: &[RouteStep]) -> usize {
    if route.is_empty() {
        return 0;
    }
    let a = route[0].from;
    let b = route[route.len() - 1].to;
    route.len().saturating_sub(hop_distance(dims, a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims4() -> TorusDims {
        TorusDims::new(4, 4, 4)
    }

    #[test]
    fn none_is_inactive_and_free() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        assert_eq!(
            p.delivery(0, 0, 1, 2),
            Ok(Delivery {
                attempts: 1,
                truncated_attempts: 0,
                duplicated: false
            })
        );
        assert!(!p.drops(0, 0, 1, 2, 1));
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::seeded(7).with_drop_prob(0.5);
        let b = FaultPlan::seeded(7).with_drop_prob(0.5);
        let c = FaultPlan::seeded(8).with_drop_prob(0.5);
        let mut same_ab = 0;
        let mut same_ac = 0;
        let total = 2000;
        for i in 0..total {
            let x = a.drops(1, i, 3, 5, 1);
            if x == b.drops(1, i, 3, 5, 1) {
                same_ab += 1;
            }
            if x == c.drops(1, i, 3, 5, 1) {
                same_ac += 1;
            }
        }
        assert_eq!(same_ab, total, "same seed must agree everywhere");
        assert!(same_ac < total, "different seeds must diverge somewhere");
    }

    #[test]
    fn drop_rate_close_to_probability() {
        let p = FaultPlan::seeded(42).with_drop_prob(0.2);
        let total = 20_000;
        let dropped = (0..total).filter(|&i| p.drops(0, i, 0, 1, 1)).count();
        let rate = dropped as f64 / total as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn delivery_counts_failed_attempts() {
        let p = FaultPlan::seeded(11).with_drop_prob(0.5);
        let mut retransmissions = 0u32;
        let mut failures = 0u32;
        for round in 0..500 {
            match p.delivery(0, round, 2, 3) {
                Ok(d) => retransmissions += d.attempts - 1,
                Err(_) => failures += 1,
            }
        }
        assert!(retransmissions > 100, "retransmissions={retransmissions}");
        // With MAX_ATTEMPTS = 16 and p = 0.5, total failure is ~1.5e-5 per
        // message; 500 messages should essentially never exhaust.
        assert_eq!(failures, 0);
    }

    #[test]
    fn delivery_exhausts_at_probability_one() {
        let p = FaultPlan::seeded(1).with_drop_prob(1.0);
        assert_eq!(p.delivery(0, 0, 0, 1), Err(MAX_ATTEMPTS));
    }

    #[test]
    fn dead_link_forces_detour() {
        let dims = dims4();
        let a = Coord3::new(0, 0, 0);
        let b = Coord3::new(1, 0, 0);
        let plan = FaultPlan::none().kill_link(a, b);
        let route = route_with_faults(dims, a, b, &plan).unwrap();
        // Direct link is dead: shortest detour is 3 hops (e.g. via y).
        assert_eq!(route.len(), 3);
        assert_eq!(detour_hops(dims, &route), 2);
        assert_eq!(route[0].from, a);
        assert_eq!(route[route.len() - 1].to, b);
        for s in &route {
            assert!(!plan.link_is_dead(s.from, s.to));
            assert_eq!(hop_distance(dims, s.from, s.to), 1);
        }
    }

    #[test]
    fn isolated_endpoint_reported() {
        // 1D ring of 4 in x: killing both links around node 1 isolates it.
        let dims = TorusDims::new(4, 1, 1);
        let n1 = Coord3::new(1, 0, 0);
        let plan = FaultPlan::none()
            .kill_link(Coord3::new(0, 0, 0), n1)
            .kill_link(n1, Coord3::new(2, 0, 0));
        let err = route_with_faults(dims, Coord3::new(0, 0, 0), n1, &plan).unwrap_err();
        assert_eq!(err.from, Coord3::new(0, 0, 0));
        assert_eq!(err.to, n1);
    }

    #[test]
    fn no_topology_faults_matches_dimension_ordered() {
        let dims = dims4();
        let plan = FaultPlan::seeded(3).with_drop_prob(0.1); // message faults only
        for (ai, bi) in [(0usize, 63usize), (5, 40), (17, 17)] {
            let a = dims.delinearize(ai);
            let b = dims.delinearize(bi);
            assert_eq!(
                route_with_faults(dims, a, b, &plan).unwrap(),
                route_dimension_ordered(dims, a, b)
            );
        }
    }

    #[test]
    fn deaths_are_ordered_and_queryable() {
        let plan = FaultPlan::none().kill_rank_at(3, 10).kill_rank_at(1, 4);
        assert_eq!(
            plan.deaths(),
            &[
                RankDeath {
                    rank: 1,
                    at_round: 4
                },
                RankDeath {
                    rank: 3,
                    at_round: 10
                }
            ]
        );
        assert_eq!(plan.deaths_at(4).collect::<Vec<_>>(), vec![1]);
        assert_eq!(plan.deaths_at(5).count(), 0);
        assert!(plan.has_deaths() && plan.is_active());
    }

    #[test]
    fn detour_route_is_shortest_available() {
        // Kill the whole +x/-x first column of links out of the origin's
        // x-line and verify BFS still finds a minimal live path.
        let dims = dims4();
        let a = Coord3::new(0, 0, 0);
        let b = Coord3::new(3, 0, 0); // 1 hop the short way (wrap)
        let plan = FaultPlan::none().kill_link(a, b);
        let route = route_with_faults(dims, a, b, &plan).unwrap();
        // Short way dead: either 3 hops through x, or 3 via a side step.
        assert_eq!(route.len(), 3);
    }

    #[test]
    fn control_probabilities_default_to_data_probabilities() {
        // Without overrides the control class sees the same lossiness as
        // data traffic: a fully lossy fabric is lossy for everyone.
        let plan = FaultPlan::seeded(9).with_drop_prob(1.0);
        assert!(plan.drops(2, 0, 0, 1, 0));
        // An override decouples them.
        let clean = plan.clone().with_control_drop_prob(0.0);
        assert!(!clean.drops(2, 0, 0, 1, 0));
        assert!(clean.drops(0, 0, 0, 1, 0), "data class still lossy");
        // Control-only faults make the plan active.
        let ctl = FaultPlan::seeded(9).with_control_drop_prob(0.5);
        assert!(ctl.has_message_faults() && ctl.is_active());
        assert!(!ctl.drops(0, 0, 0, 1, 0), "data class stays clean");
    }

    #[test]
    fn chaos_plans_are_deterministic_and_group_disjoint() {
        let spec = ChaosSpec::moderate(41, 12, 3);
        let a = FaultPlan::chaos(&spec);
        let b = FaultPlan::chaos(&spec);
        assert_eq!(a, b, "same spec must yield the same plan");
        assert!(a.drop_prob <= spec.drop_prob_max);
        assert!(a.truncate_prob <= spec.truncate_prob_max);
        // At most one death per group of 3 consecutive ranks.
        for group in 0..4 {
            let in_group = a.deaths().iter().filter(|d| d.rank / 3 == group).count();
            assert!(in_group <= 1, "group {group} has {in_group} deaths");
        }
        // Different seeds explore different schedules.
        let c = FaultPlan::chaos(&ChaosSpec::moderate(42, 12, 3));
        assert_ne!(a, c);
    }

    #[test]
    fn chaos_link_faults_target_live_links() {
        let dims = dims4();
        let spec = ChaosSpec {
            dead_link_prob: 1.0,
            dims: Some(dims),
            ..ChaosSpec::moderate(7, 8, 4)
        };
        let plan = FaultPlan::chaos(&spec);
        assert!(plan.has_topology_faults());
        // Routing still detours around the single dead link.
        let a = Coord3::new(0, 0, 0);
        let b = Coord3::new(2, 1, 1);
        assert!(route_with_faults(dims, a, b, &plan).is_ok());
    }
}
