//! Deterministic fault model for the torus substrate.
//!
//! At 32,768 nodes, component failure is an operating condition, not an
//! exception. A [`FaultPlan`] describes, *reproducibly*, everything that
//! goes wrong during a run:
//!
//! * **message faults** — per-attempt drop / duplicate / truncate
//!   probabilities, decided by a pure hash of
//!   `(seed, class, round, from, to, attempt)` so both the superstep
//!   simulator and the threaded runtime compute the *same* fault
//!   schedule with no shared RNG stream; a message that fails 16
//!   attempts is undeliverable;
//! * **rank deaths** — ranks scheduled to die at a given exchange round,
//!   driving the checkpoint/recovery path in `bfs-core`.
//!
//! Links are always live: a message's route is the dimension-ordered
//! route between the nodes the task mapping places its ranks on,
//! whatever the plan.
//!
//! Everything is a pure function of the plan: two runs with the same
//! `(seed, FaultPlan)` observe identical faults, which is what makes the
//! recovery path testable bit-for-bit against a fault-free oracle.

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

// The envelope `FaultPlan::chaos` draws plans from: the per-group
// death probability, the last round a death may fire at, and caps on
// the drop, truncate and duplicate probabilities.
const CHAOS_DEATH_PROB: f64 = 0.75;
const CHAOS_MAX_ROUND: u64 = 8;
const CHAOS_DROP_MAX: f64 = 0.2;
const CHAOS_TRUNCATE_MAX: f64 = 0.05;
const CHAOS_DUPLICATE_MAX: f64 = 0.05;

/// Delivery attempts per message before the link is declared
/// unreachable.
const MAX_ATTEMPTS: u32 = 16;

/// The message-class index the communication layer assigns to control
/// traffic (checkpoint parity updates, recovery transfers). Fault
/// decisions are keyed by class, so control faults — when a runtime
/// opts in to a faulty control channel — draw from an independent
/// hash stream and can carry their own probabilities.
pub const CONTROL_CLASS: u8 = 2;

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

    /// Schedule `rank` to die at data-exchange round `at_round`.
    pub fn kill_rank_at(mut self, rank: usize, at_round: u64) -> Self {
        self.deaths.push(RankDeath { rank, at_round });
        self.deaths.sort_by_key(|d| (d.at_round, d.rank));
        self
    }

    /// Whether the plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.has_message_faults() || self.has_deaths()
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
    fn drops(&self, class: u8, round: u64, from: usize, to: usize, attempt: u32) -> bool {
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
    fn duplicates(&self, class: u8, round: u64, from: usize, to: usize, attempt: u32) -> bool {
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
    fn truncates(&self, class: u8, round: u64, from: usize, to: usize, attempt: u32) -> bool {
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

    /// Build a seeded randomized plan for chaos testing on `ranks`
    /// ranks: at most one scheduled rank death per parity group of
    /// `group_size` consecutive ranks, and hash-derived
    /// drop/truncate/duplicate probabilities below the envelope's caps.
    /// Pure in its arguments — the same seed always yields the same
    /// plan, so every chaos failure reproduces from its seed alone.
    pub fn chaos(seed: u64, ranks: usize, group_size: usize) -> FaultPlan {
        let frac = |salt: u64, idx: u64| unit(mix(mix(seed ^ salt) ^ idx));
        let mut plan = FaultPlan::seeded(seed)
            .with_drop_prob(frac(SALT_CHAOS_PROB, 1) * CHAOS_DROP_MAX)
            .with_truncate_prob(frac(SALT_CHAOS_PROB, 2) * CHAOS_TRUNCATE_MAX)
            .with_duplicate_prob(frac(SALT_CHAOS_PROB, 3) * CHAOS_DUPLICATE_MAX);

        // One candidate death per parity group. Groups mirror
        // `bfs-core`'s layout: consecutive ranks, the remainder merged
        // into the last group, so a single death per group is always
        // reconstructible from the surviving members plus the shard.
        let g = group_size.max(2);
        let groups = (ranks / g).max(1);
        for group in 0..groups {
            if frac(SALT_CHAOS_DEATH, group as u64) >= CHAOS_DEATH_PROB {
                continue;
            }
            let start = group * g;
            let end = if group + 1 == groups {
                ranks
            } else {
                start + g
            };
            let h = mix(mix(seed ^ SALT_CHAOS_DEATH) ^ (group as u64).rotate_left(23));
            let victim = start + (h as usize % (end - start));
            let round = 1 + (h >> 32) % CHAOS_MAX_ROUND;
            plan = plan.kill_rank_at(victim, round);
        }
        plan
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

#[cfg(test)]
mod tests {
    use super::*;

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
        let a = FaultPlan::chaos(41, 12, 3);
        let b = FaultPlan::chaos(41, 12, 3);
        assert_eq!(a, b, "same seed must yield the same plan");
        assert!(a.drop_prob <= CHAOS_DROP_MAX);
        assert!(a.truncate_prob <= CHAOS_TRUNCATE_MAX);
        // At most one death per group of 3 consecutive ranks.
        for group in 0..4 {
            let in_group = a.deaths().iter().filter(|d| d.rank / 3 == group).count();
            assert!(in_group <= 1, "group {group} has {in_group} deaths");
        }
        // Different seeds explore different schedules.
        let c = FaultPlan::chaos(42, 12, 3);
        assert_ne!(a, c);
    }

    #[test]
    fn chaos_plans_are_pinned() {
        // FNV-1a over each plan's seed, the bits of its three
        // probabilities and its deaths list, so any change to how
        // `chaos` draws a plan moves the digest.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |w: u64| {
            for b in w.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for seed in 0..256 {
            for (ranks, group) in [(12, 3), (8, 4), (6, 4)] {
                let plan = FaultPlan::chaos(seed, ranks, group);
                eat(plan.seed);
                eat(plan.drop_prob.to_bits());
                eat(plan.truncate_prob.to_bits());
                eat(plan.duplicate_prob.to_bits());
                eat(plan.deaths().len() as u64);
                for d in plan.deaths() {
                    eat(d.rank as u64);
                    eat(d.at_round);
                }
            }
        }
        assert_eq!(h, 0xce44_ccc6_5057_db85);
    }
}
