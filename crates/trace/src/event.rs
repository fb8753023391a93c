//! The trace event model.
//!
//! Everything the recorder stores is one fixed-size [`TraceEvent`]: an
//! [`EventKind`] plus a `[t0, t1]` interval on the run's clock. In the
//! superstep simulator the clock is the simulated α–β–hop time (seconds,
//! deterministic bit-for-bit); in the threaded runtime it is wall-clock
//! seconds since the rank context was created. Spans emitted by the BFS
//! loops bracket the collective phases; events emitted by the runtimes
//! (message rounds, point-to-point sends, retransmits, deaths) land
//! inside them, so consumers attribute events to phases purely by time
//! containment — the simulator's clock is monotone and phases never
//! overlap.

/// A collective phase of the level-synchronous loop, used by span events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// One whole level of the main loop (brackets all other phases).
    Level,
    /// Global frontier-size allreduce (termination detection).
    Termination,
    /// Frontier expand over processor-columns.
    Expand,
    /// The expand of a bottom-up level or wave: the same frontier
    /// exchange over processor-columns, labelled apart so traces show
    /// the direction switch.
    Gather,
    /// Local neighbor discovery (zero-duration in the simulator: its
    /// probes are charged in the absorb phase's hash pass).
    Discover,
    /// Fold over processor-rows.
    Fold,
    /// Absorb newly labeled vertices + the level's hash-probe charge.
    Absorb,
    /// A checkpoint of the per-rank states (resilient runs).
    Checkpoint,
    /// A checkpoint recovery: revive, regenerate, replay (resilient runs).
    Recovery,
    /// One hop of the lane-masked batched path walk: the three control
    /// rounds (announce / forward / reply) that advance every active
    /// path-extraction lane one step toward the source.
    PathWalk,
}

impl Phase {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Level => "level",
            Phase::Termination => "termination",
            Phase::Expand => "expand",
            Phase::Gather => "gather",
            Phase::Discover => "discover",
            Phase::Fold => "fold",
            Phase::Absorb => "absorb",
            Phase::Checkpoint => "checkpoint",
            Phase::Recovery => "recovery",
            Phase::PathWalk => "path_walk",
        }
    }
}

/// Operation class of a message round, mirroring the communication
/// layer's expand/fold/control split (kept separate so this crate does
/// not depend on `bgl-comm`, which depends on us).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Frontier expand traffic.
    Expand,
    /// Fold (neighbor-set return) traffic.
    Fold,
    /// Control traffic (tree network: allreduces, mirrors, recovery).
    Control,
}

impl OpKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Expand => "expand",
            OpKind::Fold => "fold",
            OpKind::Control => "control",
        }
    }

    /// Map from the communication layer's class index (0 = expand,
    /// 1 = fold, 2 = control).
    pub fn from_index(i: usize) -> Self {
        match i {
            0 => OpKind::Expand,
            1 => OpKind::Fold,
            _ => OpKind::Control,
        }
    }

    /// Inverse of [`OpKind::from_index`].
    pub fn index(self) -> usize {
        match self {
            OpKind::Expand => 0,
            OpKind::Fold => 1,
            OpKind::Control => 2,
        }
    }
}

/// Which modelled compute pass a [`EventKind::Compute`] event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputeKind {
    /// Hash-probe pass (discovery/absorb lookups).
    Hash,
    /// Buffer-copy pass (union merge traffic).
    Memcpy,
    /// Wire-codec pass (payload encode/decode around an exchange).
    Codec,
}

impl ComputeKind {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            ComputeKind::Hash => "hash",
            ComputeKind::Memcpy => "memcpy",
            ComputeKind::Codec => "codec",
        }
    }
}

/// What one trace record describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A named span over the interval: one collective phase (or whole
    /// level) of the BFS loop. `level` is the loop's level counter.
    Span { phase: Phase, level: u32 },
    /// One synchronous message round: `messages` point-to-point sends
    /// moving `verts` wire vertices; the round's elapsed time is bounded
    /// by `bottleneck` (the argmax rank of per-rank send/receive time).
    Round {
        op: OpKind,
        messages: u32,
        verts: u64,
        bottleneck: u32,
    },
    /// One point-to-point send inside a round (event-level detail only).
    Send {
        from: u32,
        to: u32,
        bytes: u64,
        hops: u32,
    },
    /// A send that needed `retries` ack-timeout retransmissions (with
    /// exponential backoff) before it was delivered.
    Retransmit { from: u32, to: u32, retries: u32 },
    /// A modelled synchronous compute pass, bounded by `bottleneck`.
    Compute { comp: ComputeKind, bottleneck: u32 },
    /// One tree-network allreduce (termination checks, meet detection).
    TreeAllreduce,
    /// The per-rank states were checkpointed before `level` ran.
    Checkpoint { level: u32 },
    /// A scheduled rank death fired at data round `round`.
    RankDeath { rank: u32, round: u64 },
    /// Rank `rank` was revived and replayed, either reconstructed from
    /// its parity group's surviving logs + shard or (degraded mode)
    /// restored wholesale from the last full checkpoint.
    Recovery { rank: u32 },
    /// One multi-source batch served by `bgl-server`: `lanes` sources
    /// advanced together through the wave whose phase spans this event
    /// encloses. `batch` is the server's batch sequence number.
    Batch { batch: u32, lanes: u32 },
}

/// One recorded event: a kind over `[t0, t1]` (seconds on the run's
/// clock; instantaneous events have `t0 == t1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    pub kind: EventKind,
    pub t0: f64,
    pub t1: f64,
}

impl TraceEvent {
    /// Interval length in seconds.
    pub fn duration(&self) -> f64 {
        self.t1 - self.t0
    }

    /// Whether this is a span event.
    pub fn is_span(&self) -> bool {
        matches!(self.kind, EventKind::Span { .. })
    }

    /// Whether `self` lies inside `outer`'s interval (inclusive). Both
    /// runtimes read interval endpoints from one monotone clock, so
    /// nesting is exact — no epsilon needed.
    pub fn within(&self, outer: &TraceEvent) -> bool {
        self.t0 >= outer.t0 && self.t1 <= outer.t1
    }
}
