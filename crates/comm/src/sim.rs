//! The superstep simulator.
//!
//! Level-synchronous BFS only lets ranks interact at collective
//! boundaries, so a faithful execution needs no real concurrency: run
//! every rank's compute phase, exchange messages, repeat. [`SimWorld`]
//! does exactly that while keeping three clocks — total simulated time,
//! its communication component, and its computation component — derived
//! from the [`bgl_torus::CostModel`] (α–β–hop transfers, hash-probe
//! compute, memcpy for union buffer copying).
//!
//! Time composition rule: each global phase (a compute pass or one
//! message round) is synchronous across ranks, so its elapsed time is the
//! **maximum** over ranks of that rank's phase time. This is the standard
//! BSP accounting and matches how the paper's level-synchronized
//! algorithm actually behaves on a machine with barrier-style collectives.
//!
//! Message rounds also feed [`CommStats`] (volumes, per-rank receptions,
//! duplicate eliminations, peak buffer size) and, optionally, a per-link
//! [`LinkTraffic`] accumulator for congestion analysis.

use crate::buffer::ChunkPolicy;
use crate::error::CommError;
use crate::stats::{CommStats, OpClass};
use crate::topology::ProcessorGrid;
use crate::vset::VsetPolicy;
use crate::wire::{self, WireMeasure, WirePolicy};
use crate::{Vert, VERT_BYTES};
use bgl_torus::{CostModel, FaultPlan, LinkTraffic, MachineConfig, TaskMapping, TaskMappingKind};
use bgl_trace::{ComputeKind, EventKind, OpKind, Phase, TraceBuffer, TraceDetail, TraceSink};
use rayon::prelude::*;

/// One point-to-point message in a round: `(from, to, payload)`.
pub type Send = (usize, usize, Vec<Vert>);

/// A rank's inbox after a round: `(from, payload)` pairs, sorted by
/// sender for determinism.
pub type Inbox = Vec<(usize, Vec<Vert>)>;

/// Fault counters one send contributes (applied during the merge).
#[derive(Debug, Clone, Copy, Default)]
struct FaultDelta {
    dropped: u64,
    truncated: u64,
    duplicated: bool,
}

/// Precomputed outcome of one send: everything
/// [`SimWorld::exchange`]'s serial merge needs, derived purely from the
/// immutable world state so the precompute can fan out over host
/// threads without changing any result.
enum SendMeta {
    /// `from == to`: delivered locally, free, uncounted.
    SelfSend,
    /// A rank index outside the grid.
    OutOfRange,
    /// The fault schedule exhausted the retry budget.
    Unreachable { attempts: u32 },
    /// A normal wire transfer.
    Wire(WireSendMeta),
}

/// Per-send precompute results for a delivered message.
struct WireSendMeta {
    verts: usize,
    logical: u64,
    wire_bytes: u64,
    chunks: u64,
    hops: usize,
    t: f64,
    retries: u32,
    fault: FaultDelta,
}

/// Deterministic superstep simulation world for an `R × C` grid of ranks
/// placed on a modelled machine.
///
/// ```
/// use bgl_comm::{OpClass, ProcessorGrid, SimWorld};
/// let mut world = SimWorld::bluegene(ProcessorGrid::new(2, 2));
/// // rank 0 sends three vertices to rank 3:
/// let inboxes = world.exchange(OpClass::Fold, vec![(0, 3, vec![7, 8, 9])]).unwrap();
/// assert_eq!(inboxes[3], vec![(0, vec![7, 8, 9])]);
/// assert!(world.time() > 0.0); // α–β–hop cost was charged
/// ```
#[derive(Debug, Clone)]
pub struct SimWorld {
    grid: ProcessorGrid,
    mapping: TaskMapping,
    cost: CostModel,
    chunk: ChunkPolicy,
    /// Cumulative communication statistics (public for snapshotting).
    pub stats: CommStats,
    traffic: Option<LinkTraffic>,
    congestion: bool,
    sim_time: f64,
    comm_time: f64,
    comm_time_by_class: [f64; 3],
    compute_time: f64,
    hash_time: f64,
    memcpy_time: f64,
    codec_time: f64,
    /// The fault plan in effect (`FaultPlan::none()` by default, in which
    /// case every fault path below is skipped entirely).
    plan: FaultPlan,
    /// Ranks currently dead (scheduled deaths that have fired and not
    /// been revived by recovery).
    dead: Vec<bool>,
    /// Data-exchange round counter driving the fault schedule. Control
    /// traffic (BlueGene/L's separate reliable tree network) neither
    /// advances it nor suffers faults by default, so both runtimes
    /// number the expand/fold rounds identically.
    data_round: u64,
    /// Opt in to faulting [`OpClass::Control`] traffic (the recovery
    /// channel). Off by default: the seed behavior treated control as a
    /// separate reliable network. Resilient BFS turns this on so
    /// checkpoint mirroring and recovery exchanges face the same lossy
    /// fabric as data — with bounded retry at the protocol layer.
    control_faultable: bool,
    /// Separate round counter for faultable control exchanges. Control
    /// faults are hashed off this counter, never `data_round`, so
    /// enabling control faults cannot perturb the expand/fold fault
    /// schedule.
    control_round: u64,
    /// When hybrid vertex sets switch representation (see
    /// [`crate::vset`]).
    vset_policy: VsetPolicy,
    /// Wire codec applied to exchange payloads (see [`crate::wire`];
    /// [`WirePolicy::raw`] = codec off, the pre-codec behavior).
    wire_policy: WirePolicy,
    /// Structured event recorder (disabled by default: a single `None`
    /// word, no buffers — see [`SimWorld::enable_trace`]).
    trace: TraceSink,
}

impl SimWorld {
    /// Create a world for `grid` on `machine` with an explicit task
    /// mapping kind and chunking policy. Panics if the machine has fewer
    /// nodes than the grid has ranks.
    pub fn new(
        grid: ProcessorGrid,
        machine: MachineConfig,
        mapping_kind: TaskMappingKind,
        chunk: ChunkPolicy,
    ) -> Self {
        let mapping = TaskMapping::new(mapping_kind, grid.logical_array(), machine.dims);
        Self {
            grid,
            mapping,
            cost: CostModel::new(machine),
            chunk,
            stats: CommStats::new(grid.len()),
            traffic: None,
            congestion: false,
            sim_time: 0.0,
            comm_time: 0.0,
            comm_time_by_class: [0.0; 3],
            compute_time: 0.0,
            hash_time: 0.0,
            memcpy_time: 0.0,
            codec_time: 0.0,
            plan: FaultPlan::none(),
            dead: vec![false; grid.len()],
            data_round: 0,
            control_faultable: false,
            control_round: 0,
            vset_policy: VsetPolicy::default(),
            wire_policy: WirePolicy::default(),
            trace: TraceSink::disabled(),
        }
    }

    /// Convenience constructor: a BlueGene/L partition just large enough
    /// for the grid, with the paper's folded-planes task mapping and
    /// unbounded buffers.
    pub fn bluegene(grid: ProcessorGrid) -> Self {
        let dims = MachineConfig::fit_partition(grid.len());
        Self::new(
            grid,
            MachineConfig::bluegene_l_partition(dims),
            TaskMappingKind::FoldedPlanes,
            ChunkPolicy::Unbounded,
        )
    }

    /// Builder-style: attach a fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// Install a fault plan. Resets the fault schedule clocks and
    /// revives every rank, but not the time/statistics clocks.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.dead = vec![false; self.grid.len()];
        self.data_round = 0;
        self.control_round = 0;
    }

    /// Opt [`OpClass::Control`] traffic in to (or out of) the fault
    /// plan. See the `control_faultable` field: off by default, turned
    /// on by resilient BFS so recovery traffic shares the lossy fabric.
    pub fn set_control_faultable(&mut self, on: bool) {
        self.control_faultable = on;
    }

    /// Charge the modelled ack-timeout backoff for one failed recovery
    /// exchange attempt: `software_overhead * 2^min(retry, 6)`, the same
    /// bounded exponential the per-message retransmission model uses,
    /// billed to control-class communication time.
    pub fn charge_recovery_backoff(&mut self, retry: u32) {
        let elapsed = self.cost.machine().software_overhead * (1u64 << retry.min(6)) as f64;
        self.sim_time += elapsed;
        self.comm_time += elapsed;
        self.comm_time_by_class[OpClass::Control.index()] += elapsed;
    }

    /// Ranks currently dead (scheduled deaths that have fired).
    pub fn dead_ranks(&self) -> Vec<usize> {
        (0..self.dead.len()).filter(|&r| self.dead[r]).collect()
    }

    /// Bring a dead rank back (models activating a spare node during
    /// checkpoint recovery). A revived rank will not re-die: scheduled
    /// deaths fire on an exact round match, and the round has advanced.
    pub fn revive(&mut self, rank: usize) {
        self.dead[rank] = false;
    }

    /// Record one completed checkpoint recovery in the fault counters.
    pub fn note_recovery(&mut self) {
        self.stats.faults.recoveries += 1;
    }

    /// Enable per-link traffic accounting (off by default — it costs a
    /// hash map update per route hop per message).
    pub fn enable_traffic_accounting(&mut self) {
        if self.traffic.is_none() {
            self.traffic = Some(LinkTraffic::new());
        }
    }

    /// The per-link traffic accumulator, if enabled.
    pub fn traffic(&self) -> Option<&LinkTraffic> {
        self.traffic.as_ref()
    }

    /// Enable the congestion-aware round cost: each message round is
    /// additionally lower-bounded by the busiest physical link's drain
    /// time along dimension-ordered routes. Off by default (the pure
    /// α–β–hop model); turning it on models a contended torus.
    pub fn enable_congestion_model(&mut self) {
        self.congestion = true;
    }

    /// Whether the congestion-aware cost is active.
    pub fn congestion_model(&self) -> bool {
        self.congestion
    }

    /// The processor grid.
    pub fn grid(&self) -> ProcessorGrid {
        self.grid
    }

    /// Number of ranks.
    pub fn p(&self) -> usize {
        self.grid.len()
    }

    /// The task mapping in effect.
    pub fn mapping(&self) -> &TaskMapping {
        &self.mapping
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The chunking policy in effect.
    pub fn chunk_policy(&self) -> ChunkPolicy {
        self.chunk
    }

    /// Total simulated elapsed time in seconds.
    pub fn time(&self) -> f64 {
        self.sim_time
    }

    /// Communication component of [`SimWorld::time`].
    pub fn comm_time(&self) -> f64 {
        self.comm_time
    }

    /// Computation component of [`SimWorld::time`].
    pub fn compute_time(&self) -> f64 {
        self.compute_time
    }

    /// Communication time attributed to one operation class (expand,
    /// fold, or control). Sums to [`SimWorld::comm_time`].
    pub fn comm_time_for(&self, class: OpClass) -> f64 {
        self.comm_time_by_class[class.index()]
    }

    /// Compute time spent in modelled hash probes.
    pub fn hash_time(&self) -> f64 {
        self.hash_time
    }

    /// Compute time spent in modelled buffer copies (union merges).
    pub fn memcpy_time(&self) -> f64 {
        self.memcpy_time
    }

    /// Compute time spent in modelled wire-codec encode/decode passes
    /// (zero with the codec off).
    pub fn codec_time(&self) -> f64 {
        self.codec_time
    }

    /// Enable structured tracing at `detail`: per-rank ring recorders
    /// plus a world track, keyed to the simulated clock. Replaces any
    /// previously recorded trace.
    pub fn enable_trace(&mut self, detail: TraceDetail) {
        self.trace = TraceSink::enabled(self.p(), detail);
    }

    /// The trace sink (disabled unless [`SimWorld::enable_trace`] ran).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable trace sink access (the BFS loops emit phase spans).
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Take the recorded trace buffer out, leaving tracing disabled.
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take_buffer()
    }

    /// Record a phase span from `t0` (an earlier [`SimWorld::time`]
    /// reading) to the current simulated time. No-op when disabled.
    pub fn trace_span(&mut self, phase: Phase, level: u32, t0: f64) {
        let t1 = self.sim_time;
        self.trace.span(phase, level, t0, t1);
    }

    /// Reset clocks and statistics (keeps topology and model; an
    /// enabled trace sink stays enabled but drops its recorded events).
    pub fn reset(&mut self) {
        self.stats = CommStats::new(self.grid.len());
        if let Some(t) = &mut self.traffic {
            t.clear();
        }
        self.trace.clear_events();
        self.sim_time = 0.0;
        self.comm_time = 0.0;
        self.comm_time_by_class = [0.0; 3];
        self.compute_time = 0.0;
        self.hash_time = 0.0;
        self.memcpy_time = 0.0;
        self.codec_time = 0.0;
        self.dead = vec![false; self.grid.len()];
        self.data_round = 0;
        self.control_round = 0;
    }

    /// The hybrid vertex-set representation policy collectives consult.
    pub fn vset_policy(&self) -> VsetPolicy {
        self.vset_policy
    }

    /// Override the hybrid vertex-set policy (e.g.
    /// [`VsetPolicy::list_only`] for A/B determinism checks).
    pub fn with_vset_policy(mut self, policy: VsetPolicy) -> Self {
        self.vset_policy = policy;
        self
    }

    /// The wire-codec policy exchanges apply to payloads.
    pub fn wire_policy(&self) -> WirePolicy {
        self.wire_policy
    }

    /// Set the wire-codec policy ([`WirePolicy::raw`] disables the
    /// codec entirely; [`WirePolicy::auto`] picks per-message formats
    /// by density).
    pub fn set_wire_policy(&mut self, policy: WirePolicy) {
        self.wire_policy = policy;
    }

    /// Builder-style [`SimWorld::set_wire_policy`].
    pub fn with_wire_policy(mut self, policy: WirePolicy) -> Self {
        self.wire_policy = policy;
        self
    }

    /// Execute one message round: deliver every `(from, to, payload)`,
    /// charge communication time, and return per-rank inboxes.
    ///
    /// Self-sends are delivered for free and excluded from wire
    /// statistics (they never leave the node). Empty payloads are legal
    /// and cost one chunk of software overhead (an explicit empty
    /// message); callers that can skip empties should not emit them.
    ///
    /// With an active fault plan, [`OpClass::Expand`]/[`OpClass::Fold`]
    /// rounds advance the fault schedule clock and are subject to
    /// injected faults: drops/truncations trigger modelled ack-timeout
    /// retransmission with bounded exponential backoff (charged as extra
    /// simulated time and counted in `stats.faults`), and scheduled
    /// rank deaths surface as [`CommError::RankDead`] before anything is
    /// charged. [`OpClass::Control`] traffic rides BlueGene/L's separate
    /// reliable tree network by default: never faulted, never advances
    /// the clock. With [`SimWorld::set_control_faultable`] on, control
    /// rounds draw message faults from their own round counter (so the
    /// data schedule is untouched) and only reject sends whose endpoints
    /// are dead — a death elsewhere must not block recovery traffic
    /// among survivors.
    pub fn exchange(&mut self, class: OpClass, sends: Vec<Send>) -> Result<Vec<Inbox>, CommError> {
        let measures = vec![None; sends.len()];
        self.exchange_measured(class, sends, measures)
    }

    /// [`SimWorld::exchange`] with wire measures the caller already
    /// holds. `measures[i]`, when `Some`, must equal
    /// [`wire::measure`] of `sends[i]`'s payload under the world's
    /// [`SimWorld::wire_policy`] (checked in debug builds); a `None` is
    /// measured in the per-send precompute. The ring collectives measure
    /// a piece once at its origin and supply that measure at every hop
    /// that forwards it unchanged.
    ///
    /// A send whose payload is empty but whose supplied measure counts
    /// `N` vertices is *out of band*: the caller moves the data itself,
    /// and the send is charged exactly like the `N`-vertex message (its
    /// vertex count comes from the measure). The receiver gets the empty
    /// payload. The union-fold rings move their bundles this way.
    pub(crate) fn exchange_measured(
        &mut self,
        class: OpClass,
        sends: Vec<Send>,
        measures: Vec<Option<WireMeasure>>,
    ) -> Result<Vec<Inbox>, CommError> {
        assert_eq!(measures.len(), sends.len(), "one measure slot per send");
        let p = self.p();
        let traced = self.trace.is_enabled();
        let trace_sends = self.trace.wants_sends();
        let control = class == OpClass::Control;
        let faultable = self.plan.is_active() && (!control || self.control_faultable);
        let mut fault_round = 0u64;
        if faultable && control {
            fault_round = self.control_round;
            self.control_round += 1;
            // Scheduled deaths fire only on data rounds; here we just
            // refuse traffic that names an already-dead endpoint.
            for &(from, to, _) in &sends {
                for r in [from, to] {
                    if r < p && self.dead[r] {
                        return Err(CommError::RankDead { rank: r });
                    }
                }
            }
        } else if faultable {
            fault_round = self.data_round;
            self.data_round += 1;
            if self.plan.has_deaths() {
                let newly: Vec<usize> = self.plan.deaths_at(fault_round).collect();
                for r in newly {
                    if r < p {
                        self.dead[r] = true;
                    }
                }
            }
            if let Some(r) = self.dead.iter().position(|&d| d) {
                self.trace.world_event(
                    EventKind::RankDeath {
                        rank: r as u32,
                        round: fault_round,
                    },
                    self.sim_time,
                    self.sim_time,
                );
                return Err(CommError::RankDead { rank: r });
            }
        }
        let msg_faults = faultable && self.plan.has_message_faults();

        // --- Phase 1: per-send precompute. Wire measurement (of the
        // sends without a supplied measure), routing, α–β–hop
        // arithmetic and the fault schedule are pure functions of the
        // immutable world state, so this is the part that fans out over
        // rayon workers (one worker runs it sequentially).
        // Results are positional either way, so the serial merge below
        // is bit-identical to the old fused loop.
        let codec_on = !self.wire_policy.is_raw();
        let mut sends = sends;
        let metas: Vec<SendMeta> = {
            let cost = &self.cost;
            let mapping = &self.mapping;
            let chunk = self.chunk;
            let plan = &self.plan;
            let policy = self.wire_policy;
            let machine = *self.cost.machine();
            let pre = |s: &Send, supplied: &Option<WireMeasure>| -> SendMeta {
                let (from, to, ref payload) = *s;
                if from >= p || to >= p {
                    return SendMeta::OutOfRange;
                }
                if from == to {
                    return SendMeta::SelfSend;
                }
                let w = match *supplied {
                    Some(w) => {
                        debug_assert!(
                            payload.is_empty() || w == wire::measure(payload, &policy),
                            "supplied wire measure of {from} -> {to} disagrees with its payload"
                        );
                        w
                    }
                    None => wire::measure(payload, &policy),
                };
                let verts = (w.logical_bytes / VERT_BYTES) as usize;
                let chunks = chunk.message_count(verts) as u64;
                let hops = cost.hops(mapping.coord_of(from), mapping.coord_of(to));
                let base = chunks as f64 * machine.software_overhead
                    + hops as f64 * machine.hop_latency
                    + w.wire_bytes as f64 / machine.link_bandwidth;
                let mut t = base;
                let mut retries = 0u32;
                let mut fault = FaultDelta::default();
                if msg_faults {
                    match plan.delivery(class.index() as u8, fault_round, from, to) {
                        Ok(d) => {
                            let failed = d.attempts - 1;
                            let dropped = failed - d.truncated_attempts;
                            // A dropped attempt loses the payload in
                            // transit: the header went out, the ack
                            // timer expired.
                            t += dropped as f64
                                * (machine.software_overhead + hops as f64 * machine.hop_latency);
                            // A truncated attempt transits fully before
                            // the receiver rejects the short payload.
                            t += d.truncated_attempts as f64 * base;
                            // Bounded exponential backoff per retry.
                            for k in 0..failed {
                                t += machine.software_overhead * (1u64 << k.min(6)) as f64;
                            }
                            if d.duplicated {
                                t += base;
                                fault.duplicated = true;
                            }
                            fault.dropped = dropped as u64;
                            fault.truncated = d.truncated_attempts as u64;
                            retries = failed;
                        }
                        Err(attempts) => return SendMeta::Unreachable { attempts },
                    }
                }
                SendMeta::Wire(WireSendMeta {
                    verts,
                    logical: w.logical_bytes,
                    wire_bytes: w.wire_bytes,
                    chunks,
                    hops,
                    t,
                    retries,
                    fault,
                })
            };
            sends
                .par_iter_mut()
                .zip(&measures)
                .map_collect(|s, m| pre(s, m))
        };

        // Encode phase: every rank packs its outgoing payloads before
        // anything enters the wire (BSP rule: elapsed = max over ranks).
        // Charged even if a later send errors out — the encode happened.
        let mut dec_units = vec![0u64; p];
        if codec_on {
            let mut enc_units = vec![0u64; p];
            for (s, meta) in sends.iter().zip(&metas) {
                if let SendMeta::Wire(w) = meta {
                    enc_units[s.0] += w.logical;
                    dec_units[s.1] += w.logical;
                }
            }
            self.codec_phase(&enc_units);
        }
        let t_round0 = self.sim_time;

        let mut out_time = vec![0.0f64; p];
        let mut in_time = vec![0.0f64; p];
        let mut inboxes: Vec<Inbox> = vec![Vec::new(); p];
        let mut round_traffic = if self.congestion {
            Some(LinkTraffic::new())
        } else {
            None
        };

        // --- Phase 2: serial in-order merge of the precomputed sends
        // into clocks, statistics, traces, traffic and inboxes.
        let mut round_messages = 0u32;
        let mut round_verts = 0u64;
        for ((from, to, payload), meta) in sends.into_iter().zip(metas) {
            let w = match meta {
                SendMeta::OutOfRange => {
                    return Err(CommError::DestinationOutOfRange {
                        dest: from.max(to),
                        p,
                    });
                }
                SendMeta::SelfSend => {
                    inboxes[to].push((from, payload));
                    continue;
                }
                SendMeta::Unreachable { attempts } => {
                    return Err(CommError::Unreachable { from, to, attempts });
                }
                SendMeta::Wire(w) => w,
            };
            if w.fault.duplicated {
                self.stats.faults.duplicates_injected += 1;
            }
            self.stats.faults.drops_injected += w.fault.dropped;
            self.stats.faults.truncations_injected += w.fault.truncated;
            self.stats.faults.retransmissions += u64::from(w.retries);
            if traced {
                if trace_sends {
                    self.trace.rank_event(
                        from,
                        EventKind::Send {
                            from: from as u32,
                            to: to as u32,
                            bytes: w.wire_bytes,
                            hops: w.hops as u32,
                        },
                        t_round0,
                        t_round0 + w.t,
                    );
                }
                if w.retries > 0 {
                    self.trace.rank_event(
                        from,
                        EventKind::Retransmit {
                            from: from as u32,
                            to: to as u32,
                            retries: w.retries,
                        },
                        t_round0,
                        t_round0 + w.t,
                    );
                }
            }
            out_time[from] += w.t;
            in_time[to] += w.t;
            round_messages += 1;
            round_verts += w.verts as u64;

            self.stats.note_message(class, to, w.verts, w.chunks);
            self.stats.note_wire_bytes(class, w.logical, w.wire_bytes);
            // Peak buffer is per wire message, i.e. per chunk.
            self.stats.note_peak(self.chunk.peak_message_len(w.verts));
            for tr in [&mut self.traffic, &mut round_traffic]
                .into_iter()
                .flatten()
            {
                tr.record(
                    self.cost.machine(),
                    self.mapping.coord_of(from),
                    self.mapping.coord_of(to),
                    w.wire_bytes,
                );
            }
            inboxes[to].push((from, payload));
        }

        let mut elapsed = (0..p)
            .map(|r| out_time[r].max(in_time[r]))
            .fold(0.0f64, f64::max);
        if let Some(rt) = &round_traffic {
            elapsed = elapsed.max(rt.congestion_time(self.cost.machine()));
        }
        self.sim_time += elapsed;
        self.comm_time += elapsed;
        self.comm_time_by_class[class.index()] += elapsed;

        if traced {
            let mut bottleneck = 0usize;
            for r in 0..p {
                if out_time[r].max(in_time[r]) > out_time[bottleneck].max(in_time[bottleneck]) {
                    bottleneck = r;
                }
            }
            // Skip the all-empty round (a free no-op, e.g. a barrier
            // with nothing to say): it carries no information.
            if round_messages > 0 || elapsed > 0.0 {
                self.trace.world_event(
                    EventKind::Round {
                        op: OpKind::from_index(class.index()),
                        messages: round_messages,
                        verts: round_verts,
                        bottleneck: bottleneck as u32,
                    },
                    t_round0,
                    self.sim_time,
                );
            }
        }

        // Decode phase: receivers unpack after the round completes.
        if codec_on {
            self.codec_phase(&dec_units);
        }

        for inbox in &mut inboxes {
            inbox.sort_by_key(|(from, _)| *from);
        }
        Ok(inboxes)
    }

    /// Charge a wire-codec pass (payload bytes pushed through the codec
    /// per rank), following the same max-over-ranks BSP rule as the
    /// other compute phases.
    fn codec_phase(&mut self, bytes_per_rank: &[u64]) {
        let t0 = self.sim_time;
        let elapsed = bytes_per_rank
            .iter()
            .map(|&b| self.cost.codec_time(b))
            .fold(0.0f64, f64::max);
        self.sim_time += elapsed;
        self.compute_time += elapsed;
        self.codec_time += elapsed;
        if self.trace.is_enabled() && elapsed > 0.0 {
            self.trace_compute(ComputeKind::Codec, bytes_per_rank, t0);
        }
    }

    /// Charge a compute phase expressed in hash probes per rank (the
    /// paper's dominant compute cost).
    pub fn hash_phase(&mut self, probes_per_rank: &[u64]) {
        debug_assert_eq!(probes_per_rank.len(), self.p());
        let t0 = self.sim_time;
        let elapsed = probes_per_rank
            .iter()
            .map(|&n| self.cost.hash_time(n))
            .fold(0.0f64, f64::max);
        self.sim_time += elapsed;
        self.compute_time += elapsed;
        self.hash_time += elapsed;
        if self.trace.is_enabled() && elapsed > 0.0 {
            self.trace_compute(ComputeKind::Hash, probes_per_rank, t0);
        }
    }

    /// Charge a compute phase expressed in copied bytes per rank (buffer
    /// copying during union operations, §4.2).
    pub fn memcpy_phase(&mut self, bytes_per_rank: &[u64]) {
        debug_assert_eq!(bytes_per_rank.len(), self.p());
        let t0 = self.sim_time;
        let elapsed = bytes_per_rank
            .iter()
            .map(|&b| self.cost.memcpy_time(b))
            .fold(0.0f64, f64::max);
        self.sim_time += elapsed;
        self.compute_time += elapsed;
        self.memcpy_time += elapsed;
        if self.trace.is_enabled() && elapsed > 0.0 {
            self.trace_compute(ComputeKind::Memcpy, bytes_per_rank, t0);
        }
    }

    /// Emit a compute-pass event bounded by the argmax rank. Both
    /// modelled compute costs are monotone in their per-rank unit
    /// counts, so the largest count names the bottleneck.
    fn trace_compute(&mut self, comp: ComputeKind, units_per_rank: &[u64], t0: f64) {
        let mut bottleneck = 0usize;
        for (r, &u) in units_per_rank.iter().enumerate() {
            if u > units_per_rank[bottleneck] {
                bottleneck = r;
            }
        }
        self.trace.world_event(
            EventKind::Compute {
                comp,
                bottleneck: bottleneck as u32,
            },
            t0,
            self.sim_time,
        );
    }

    /// Record duplicates eliminated by a union performed at `rank`.
    pub fn note_dups(&mut self, rank: usize, n: usize) {
        self.stats.note_dups(rank, n);
    }

    /// Global OR over per-rank flags (termination detection). BlueGene/L
    /// performs this on its dedicated tree network; modelled as a
    /// log₂(P)-depth combining tree of tiny control messages.
    pub fn allreduce_or(&mut self, flags: &[bool]) -> bool {
        debug_assert_eq!(flags.len(), self.p());
        self.charge_tree_allreduce();
        flags.iter().any(|&f| f)
    }

    /// Global sum over per-rank values, same tree-network model.
    pub fn allreduce_sum(&mut self, vals: &[u64]) -> u64 {
        debug_assert_eq!(vals.len(), self.p());
        self.charge_tree_allreduce();
        vals.iter().sum()
    }

    /// Global minimum over per-rank values, same tree-network model.
    pub fn allreduce_min(&mut self, vals: &[u64]) -> u64 {
        debug_assert_eq!(vals.len(), self.p());
        self.charge_tree_allreduce();
        vals.iter().copied().min().unwrap_or(u64::MAX)
    }

    /// `W` global sums in one tree traversal: a single allreduce round
    /// carrying a `W`-word payload instead of one word. The
    /// direction-optimizing engines ride their α/β inputs (frontier
    /// size, frontier-edge and unexplored-edge counts) on the
    /// termination check this way — same round count as
    /// [`SimWorld::allreduce_sum`], just a wider message.
    pub fn allreduce_sums<const W: usize>(&mut self, vals: [&[u64]; W]) -> [u64; W] {
        debug_assert!(vals.iter().all(|v| v.len() == self.p()));
        self.charge_tree_allreduce_words(W as u32);
        vals.map(|v| v.iter().sum())
    }

    fn charge_tree_allreduce(&mut self) {
        self.charge_tree_allreduce_words(1);
    }

    fn charge_tree_allreduce_words(&mut self, words: u32) {
        let p = self.p();
        if p <= 1 {
            return;
        }
        let depth = (usize::BITS - (p - 1).leading_zeros()) as f64;
        let m = self.cost.machine();
        // Up-sweep + down-sweep of `words`-word messages.
        let elapsed = 2.0
            * depth
            * (m.software_overhead + m.hop_latency + (8.0 * words as f64) / m.link_bandwidth);
        let t0 = self.sim_time;
        self.sim_time += elapsed;
        self.comm_time += elapsed;
        self.comm_time_by_class[OpClass::Control.index()] += elapsed;
        self.trace
            .world_event(EventKind::TreeAllreduce, t0, self.sim_time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(p: usize) -> SimWorld {
        SimWorld::bluegene(ProcessorGrid::square_ish(p))
    }

    #[test]
    fn exchange_delivers_sorted_by_sender() {
        let mut w = world(4);
        let inboxes = w
            .exchange(
                OpClass::Fold,
                vec![(3, 0, vec![30]), (1, 0, vec![10]), (2, 0, vec![20])],
            )
            .unwrap();
        assert_eq!(
            inboxes[0],
            vec![(1, vec![10]), (2, vec![20]), (3, vec![30])]
        );
        assert!(inboxes[1].is_empty());
    }

    #[test]
    fn exchange_charges_time_and_stats() {
        let mut w = world(4);
        assert_eq!(w.time(), 0.0);
        w.exchange(OpClass::Expand, vec![(0, 1, vec![1, 2, 3])])
            .unwrap();
        assert!(w.time() > 0.0);
        assert_eq!(w.comm_time(), w.time());
        assert_eq!(w.stats.class(OpClass::Expand).received_verts, 3);
        assert_eq!(w.stats.received_per_rank[1], 3);
    }

    #[test]
    fn self_sends_are_free_and_uncounted() {
        let mut w = world(4);
        let inboxes = w.exchange(OpClass::Fold, vec![(2, 2, vec![7, 8])]).unwrap();
        assert_eq!(inboxes[2], vec![(2, vec![7, 8])]);
        assert_eq!(w.time(), 0.0);
        assert_eq!(w.stats.total_received(), 0);
    }

    #[test]
    fn round_elapsed_is_max_not_sum() {
        // Two disjoint transfers of equal size: elapsed equals one
        // transfer, not two.
        let mut w = world(4);
        w.exchange(OpClass::Fold, vec![(0, 1, vec![0; 100])])
            .unwrap();
        let t1 = w.time();
        w.reset();
        w.exchange(
            OpClass::Fold,
            vec![(0, 1, vec![0; 100]), (2, 3, vec![0; 100])],
        )
        .unwrap();
        let t2 = w.time();
        // Hop counts may differ between the pairs; allow a small slack.
        assert!(t2 < 1.5 * t1, "t1={t1} t2={t2}");
    }

    #[test]
    fn chunking_multiplies_software_overhead() {
        let grid = ProcessorGrid::square_ish(2);
        let dims = MachineConfig::fit_partition(2);
        let machine = MachineConfig::bluegene_l_partition(dims);
        let mut unbounded = SimWorld::new(
            grid,
            machine,
            TaskMappingKind::FoldedPlanes,
            ChunkPolicy::Unbounded,
        );
        let mut chunked = SimWorld::new(
            grid,
            machine,
            TaskMappingKind::FoldedPlanes,
            ChunkPolicy::fixed(10),
        );
        unbounded
            .exchange(OpClass::Fold, vec![(0, 1, vec![0; 1000])])
            .unwrap();
        chunked
            .exchange(OpClass::Fold, vec![(0, 1, vec![0; 1000])])
            .unwrap();
        assert!(chunked.time() > unbounded.time());
        assert_eq!(chunked.stats.class(OpClass::Fold).messages, 100);
        assert_eq!(chunked.stats.peak_buffer_verts, 10);
        assert_eq!(unbounded.stats.peak_buffer_verts, 1000);
    }

    #[test]
    fn compute_phase_is_max() {
        let mut w = world(2);
        let rate = w.cost_model().machine().hash_rate;
        w.hash_phase(&[1_000_000, 3_000_000]);
        let slowest = 3_000_000.0 / rate;
        assert_eq!(w.time(), slowest);
        assert_eq!(w.compute_time(), slowest);
        assert_eq!(w.hash_time(), slowest);
        assert_eq!(w.comm_time(), 0.0);
    }

    #[test]
    fn hash_phase_uses_machine_rate() {
        let mut w = world(1);
        let rate = w.cost_model().machine().hash_rate;
        w.hash_phase(&[1_000_000]);
        assert!((w.time() - 1_000_000.0 / rate).abs() < 1e-12);
    }

    #[test]
    fn allreduce_or_and_sum() {
        let mut w = world(8);
        assert!(!w.allreduce_or(&[false; 8]));
        assert!(w.allreduce_or(&[false, false, true, false, false, false, false, false]));
        assert_eq!(w.allreduce_sum(&[1, 2, 3, 4, 5, 6, 7, 8]), 36);
        assert!(w.comm_time() > 0.0);
    }

    #[test]
    fn allreduce_free_on_single_rank() {
        let mut w = world(1);
        w.allreduce_or(&[true]);
        assert_eq!(w.time(), 0.0);
    }

    #[test]
    fn empty_round_is_free() {
        let mut w = world(4);
        let inboxes = w.exchange(OpClass::Control, Vec::new()).unwrap();
        assert!(inboxes.iter().all(Vec::is_empty));
        assert_eq!(w.time(), 0.0);
        assert_eq!(w.stats.total_received(), 0);
    }

    #[test]
    fn empty_payload_still_costs_alpha() {
        let mut w = world(2);
        w.exchange(OpClass::Control, vec![(0, 1, Vec::new())])
            .unwrap();
        assert!(w.time() > 0.0, "explicit empty message pays overhead");
        assert_eq!(w.stats.class(OpClass::Control).messages, 1);
        assert_eq!(w.stats.class(OpClass::Control).received_verts, 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut w = world(4);
        w.exchange(OpClass::Fold, vec![(0, 1, vec![1])]).unwrap();
        w.hash_phase(&[1_000_000; 4]);
        assert!(w.compute_time() > 0.0);
        w.reset();
        assert_eq!(w.time(), 0.0);
        assert_eq!(w.stats.total_received(), 0);
    }

    #[test]
    fn congestion_model_penalizes_shared_links() {
        // Build a world where several senders funnel through one link:
        // on a small torus, many ranks sending to rank 0 share its
        // incident links. With the congestion model the round is at
        // least the busiest link's drain time.
        let grid = ProcessorGrid::square_ish(16);
        let mut plain = SimWorld::bluegene(grid);
        let mut congested = SimWorld::bluegene(grid);
        congested.enable_congestion_model();
        assert!(congested.congestion_model());
        let sends: Vec<Send> = (1..16).map(|r| (r, 0, vec![0u64; 50_000])).collect();
        plain.exchange(OpClass::Fold, sends.clone()).unwrap();
        congested.exchange(OpClass::Fold, sends).unwrap();
        // Deliveries are identical; only time differs (>= plain).
        assert!(congested.time() >= plain.time());
        // rank 0 has at most 6 incident links on the torus, so 15 large
        // messages must queue: the congestion bound exceeds a single
        // message's bandwidth term.
        let m = *plain.cost_model().machine();
        let one_msg = 50_000.0 * 8.0 / m.link_bandwidth;
        assert!(congested.time() > 2.0 * one_msg);
    }

    #[test]
    fn congestion_model_no_penalty_for_disjoint_neighbors() {
        // Nearest-neighbour disjoint transfers have no shared links, so
        // both models agree.
        let grid = ProcessorGrid::square_ish(4);
        let mut plain = SimWorld::bluegene(grid);
        let mut congested = SimWorld::bluegene(grid);
        congested.enable_congestion_model();
        // Find two rank pairs with disjoint single-hop routes.
        let sends: Vec<Send> = vec![(0, 1, vec![1; 100]), (2, 3, vec![2; 100])];
        plain.exchange(OpClass::Fold, sends.clone()).unwrap();
        congested.exchange(OpClass::Fold, sends).unwrap();
        // Congestion bound is bytes/bandwidth for the busiest link,
        // which is at most the endpoint cost: no slowdown.
        assert!((congested.time() - plain.time()).abs() < plain.time() * 0.5 + 1e-12);
    }

    #[test]
    fn time_breakdown_sums_to_totals() {
        let mut w = world(4);
        w.exchange(OpClass::Expand, vec![(0, 1, vec![1; 100])])
            .unwrap();
        w.exchange(OpClass::Fold, vec![(1, 2, vec![2; 200])])
            .unwrap();
        w.allreduce_or(&[false; 4]);
        w.hash_phase(&[500, 100, 0, 0]);
        w.memcpy_phase(&[4096, 0, 0, 0]);
        let by_class = w.comm_time_for(OpClass::Expand)
            + w.comm_time_for(OpClass::Fold)
            + w.comm_time_for(OpClass::Control);
        assert!((by_class - w.comm_time()).abs() < 1e-15);
        assert!(
            (w.hash_time() + w.memcpy_time() + w.codec_time() - w.compute_time()).abs() < 1e-15
        );
        assert!((w.comm_time() + w.compute_time() - w.time()).abs() < 1e-15);
        assert!(w.comm_time_for(OpClass::Fold) > w.comm_time_for(OpClass::Expand));
        assert_eq!(w.codec_time(), 0.0, "codec off by default");
    }

    #[test]
    fn wire_codec_shrinks_rounds_and_charges_codec_time() {
        // A dense sorted payload: delta/bitmap framing beats raw 8-byte
        // words by far more than the encode/decode compute it costs.
        let payload: Vec<Vert> = (10_000..20_000).collect();
        let mut raw = world(4);
        let mut coded = world(4).with_wire_policy(WirePolicy::auto());
        raw.exchange(OpClass::Fold, vec![(0, 1, payload.clone())])
            .unwrap();
        coded
            .exchange(OpClass::Fold, vec![(0, 1, payload.clone())])
            .unwrap();
        let rc = raw.stats.class(OpClass::Fold);
        let cc = coded.stats.class(OpClass::Fold);
        assert_eq!(rc.logical_bytes, payload.len() as u64 * 8);
        assert_eq!(rc.wire_bytes, rc.logical_bytes, "codec off: wire = logical");
        assert_eq!(cc.logical_bytes, rc.logical_bytes);
        assert!(
            cc.wire_bytes * 10 < cc.logical_bytes,
            "a contiguous range must compress >=10x, got {} of {}",
            cc.wire_bytes,
            cc.logical_bytes
        );
        assert!(coded.codec_time() > 0.0);
        assert!(
            coded.time() < raw.time(),
            "compressed round must be faster: {} vs {}",
            coded.time(),
            raw.time()
        );
        // Logical accounting (verts, messages) is codec-invariant.
        assert_eq!(cc.messages, rc.messages);
        assert_eq!(cc.received_verts, rc.received_verts);
    }

    #[test]
    fn wire_codec_charges_compressed_bytes_to_links() {
        let payload: Vec<Vert> = (0..4096).collect();
        let mut w = world(4).with_wire_policy(WirePolicy::auto());
        w.enable_traffic_accounting();
        w.exchange(OpClass::Fold, vec![(0, 3, payload)]).unwrap();
        let cc = w.stats.class(OpClass::Fold);
        assert_eq!(
            w.traffic().unwrap().total_bytes(),
            cc.wire_bytes,
            "link accounting must carry post-codec bytes"
        );
    }

    #[test]
    fn exchange_is_bit_identical_across_worker_counts() {
        let payloads: Vec<Send> = (0..16)
            .flat_map(|i| {
                (0..16).filter(move |&j| j != i).map(move |j| {
                    let base = (i * 131 + j) as Vert * 1000;
                    (i, j, (base..base + 200 + (i as Vert * 7)).collect())
                })
            })
            .collect();
        let run = |workers: usize| {
            rayon::with_worker_threads(workers, || {
                let mut w = SimWorld::bluegene(ProcessorGrid::new(4, 4))
                    .with_wire_policy(WirePolicy::auto());
                w.enable_traffic_accounting();
                let inboxes = w.exchange(OpClass::Expand, payloads.clone()).unwrap();
                (
                    inboxes,
                    w.time().to_bits(),
                    w.codec_time().to_bits(),
                    w.stats.clone(),
                    w.traffic().unwrap().sum_link_bytes(),
                )
            })
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.0, parallel.0);
        assert_eq!(serial.1, parallel.1, "sim clock must be bit-identical");
        assert_eq!(serial.2, parallel.2);
        assert_eq!(serial.3, parallel.3);
        assert_eq!(serial.4, parallel.4);
    }

    /// One round of 15 sends under auto wire: sparse, dense and empty
    /// payloads.
    fn measured_round() -> Vec<Send> {
        (0..15)
            .map(|i| {
                let base = i as Vert * 4096;
                let payload = match i % 3 {
                    0 => (base..base + 2000).collect(),
                    1 => (base..base + 2000).step_by(97).collect(),
                    _ => Vec::new(),
                };
                (i, (i + 1) % 16, payload)
            })
            .collect()
    }

    #[test]
    fn supplied_measures_charge_as_measured_sends() {
        let sends = measured_round();
        let policy = WirePolicy::auto();
        let mut measured = SimWorld::bluegene(ProcessorGrid::new(4, 4)).with_wire_policy(policy);
        let got = measured.exchange(OpClass::Expand, sends.clone()).unwrap();
        // Supply every other measure; the rest are measured in the
        // exchange.
        let measures = sends
            .iter()
            .enumerate()
            .map(|(i, s)| (i % 2 == 0).then(|| wire::measure(&s.2, &policy)))
            .collect();
        let mut supplied = SimWorld::bluegene(ProcessorGrid::new(4, 4)).with_wire_policy(policy);
        let got_supplied = supplied
            .exchange_measured(OpClass::Expand, sends, measures)
            .unwrap();
        assert_eq!(got, got_supplied);
        assert_eq!(measured.time().to_bits(), supplied.time().to_bits());
        assert_eq!(
            measured.codec_time().to_bits(),
            supplied.codec_time().to_bits()
        );
        assert_eq!(measured.stats, supplied.stats);
    }

    #[test]
    fn out_of_band_sends_charge_as_their_payload() {
        let sends = measured_round();
        let policy = WirePolicy::auto();
        let lossy = FaultPlan::seeded(5)
            .with_drop_prob(0.3)
            .with_truncate_prob(0.2)
            .with_duplicate_prob(0.2);
        for plan in [FaultPlan::none(), lossy] {
            let run = |out_of_band: bool| {
                let mut w = SimWorld::bluegene(ProcessorGrid::new(4, 4))
                    .with_wire_policy(policy)
                    .with_fault_plan(plan.clone());
                w.enable_trace(TraceDetail::Event);
                for _ in 0..4 {
                    let round = sends.clone();
                    if out_of_band {
                        // Every payload stays with its sender; only its
                        // measure rides the exchange.
                        let measures = round
                            .iter()
                            .map(|s| Some(wire::measure(&s.2, &policy)))
                            .collect();
                        let round = round.into_iter().map(|(f, t, _)| (f, t, Vec::new()));
                        let inboxes = w
                            .exchange_measured(OpClass::Fold, round.collect(), measures)
                            .unwrap();
                        assert!(inboxes.iter().flatten().all(|(_, p)| p.is_empty()));
                    } else {
                        w.exchange(OpClass::Fold, round).unwrap();
                    }
                }
                let trace = w.take_trace().unwrap();
                (
                    w.time().to_bits(),
                    w.codec_time().to_bits(),
                    w.stats.clone(),
                    format!("{:?}", trace.events()),
                )
            };
            let (with_payload, out_of_band) = (run(false), run(true));
            assert_eq!(with_payload.0, out_of_band.0, "sim clock");
            assert_eq!(with_payload.1, out_of_band.1, "codec clock");
            assert_eq!(with_payload.2, out_of_band.2, "CommStats and fault charges");
            assert_eq!(with_payload.3, out_of_band.3, "trace events");
            assert_eq!(plan.is_active(), with_payload.2.faults.any());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "supplied wire measure of 3 -> 4 disagrees with its payload")]
    fn a_wrong_supplied_measure_is_caught_in_debug_builds() {
        let sends = measured_round();
        let policy = WirePolicy::auto();
        // Rank 3's dense payload, charged as if it were rank 4's sparse
        // one.
        let mut measures: Vec<Option<WireMeasure>> = vec![None; sends.len()];
        measures[3] = Some(wire::measure(&sends[4].2, &policy));
        let mut w = SimWorld::bluegene(ProcessorGrid::new(4, 4)).with_wire_policy(policy);
        let _ = w.exchange_measured(OpClass::Expand, sends, measures);
    }

    #[test]
    fn worker_count_preserves_fault_schedule() {
        let plan = FaultPlan::seeded(11).with_drop_prob(0.3);
        let sends: Vec<Send> = (1..4).map(|r| (0, r, vec![5; 500])).collect();
        let run = |workers: usize| {
            rayon::with_worker_threads(workers, || {
                let mut w = world(4).with_fault_plan(plan.clone());
                for _ in 0..6 {
                    w.exchange(OpClass::Fold, sends.clone()).unwrap();
                }
                (w.time().to_bits(), w.stats.clone())
            })
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a, b);
        assert!(b.1.faults.retransmissions > 0, "plan must actually fire");
    }

    #[test]
    fn traffic_accounting_optional() {
        let mut w = world(4);
        assert!(w.traffic().is_none());
        w.enable_traffic_accounting();
        w.exchange(OpClass::Fold, vec![(0, 1, vec![1, 2])]).unwrap();
        assert!(w.traffic().unwrap().total_bytes() > 0);
    }

    #[test]
    fn out_of_range_destination_is_typed_error() {
        let mut w = world(4);
        let err = w
            .exchange(OpClass::Fold, vec![(0, 9, vec![1])])
            .unwrap_err();
        assert_eq!(err, CommError::DestinationOutOfRange { dest: 9, p: 4 });
    }

    #[test]
    fn none_plan_is_byte_identical_to_fault_free() {
        let mut a = world(4);
        let mut b = world(4).with_fault_plan(FaultPlan::none());
        let sends: Vec<Send> = vec![(0, 1, vec![1, 2, 3]), (2, 3, vec![4; 100])];
        let ia = a.exchange(OpClass::Expand, sends.clone()).unwrap();
        let ib = b.exchange(OpClass::Expand, sends).unwrap();
        assert_eq!(ia, ib);
        assert_eq!(a.time(), b.time());
        assert_eq!(a.stats, b.stats);
        assert!(!b.stats.faults.any());
    }

    #[test]
    fn drops_slow_the_round_and_count_retransmissions() {
        let plan = FaultPlan::seeded(7).with_drop_prob(0.4);
        let mut faulty = world(4).with_fault_plan(plan);
        let mut clean = world(4);
        // Enough messages that a 40% drop rate certainly fires.
        let sends: Vec<Send> = (1..4).map(|r| (0, r, vec![0u64; 1000])).collect();
        for _ in 0..8 {
            let ia = faulty.exchange(OpClass::Fold, sends.clone()).unwrap();
            let ib = clean.exchange(OpClass::Fold, sends.clone()).unwrap();
            assert_eq!(ia, ib, "faults delay but never change deliveries");
        }
        assert!(faulty.stats.faults.drops_injected > 0);
        assert!(faulty.stats.faults.retransmissions >= faulty.stats.faults.drops_injected);
        assert!(faulty.time() > clean.time(), "retries cost simulated time");
        // Logical message accounting is unchanged by retransmission.
        assert_eq!(
            faulty.stats.class(OpClass::Fold).messages,
            clean.stats.class(OpClass::Fold).messages
        );
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let mk = || world(4).with_fault_plan(FaultPlan::seeded(42).with_drop_prob(0.3));
        let run = |w: &mut SimWorld| {
            for _ in 0..10 {
                w.exchange(
                    OpClass::Expand,
                    vec![(0, 1, vec![0; 64]), (2, 3, vec![0; 64])],
                )
                .unwrap();
            }
            (w.stats.faults, w.time())
        };
        let (f1, t1) = run(&mut mk());
        let (f2, t2) = run(&mut mk());
        assert_eq!(f1, f2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn control_class_is_exempt_from_faults() {
        let plan = FaultPlan::seeded(3).with_drop_prob(1.0);
        let mut w = world(4).with_fault_plan(plan);
        // drop_prob 1.0 would make any data message unreachable; control
        // traffic sails through and does not advance the fault clock.
        w.exchange(OpClass::Control, vec![(0, 1, vec![9])]).unwrap();
        assert_eq!(w.data_round, 0);
        assert!(!w.stats.faults.any());
        let err = w
            .exchange(OpClass::Fold, vec![(0, 1, vec![9])])
            .unwrap_err();
        assert!(matches!(err, CommError::Unreachable { .. }));
    }

    #[test]
    fn faulty_control_channel_retransmits_without_touching_data_schedule() {
        // Opting control traffic in to a lossy plan produces control
        // retransmissions hashed off a separate round counter: the data
        // fault schedule (and thus the BFS answer) is untouched.
        let plan = FaultPlan::seeded(11).with_drop_prob(0.6);
        let reference = {
            let mut w = world(4).with_fault_plan(plan.clone());
            w.exchange(OpClass::Expand, vec![(0, 1, vec![1, 2, 3])])
                .map(|_| (w.stats.faults, w.data_round))
        };
        let mut w = world(4).with_fault_plan(plan);
        w.set_control_faultable(true);
        assert!(w.control_faultable);
        // Burn several control rounds first; with the old shared clock
        // this would shift the data schedule.
        let mut control_retries = 0;
        for _ in 0..6 {
            if w.exchange(OpClass::Control, vec![(0, 1, vec![9])]).is_err() {
                // Unreachable is a legal outcome at drop 0.6; callers
                // retry at the protocol layer.
            }
            control_retries = w.stats.faults.retransmissions;
        }
        assert_eq!(w.control_round, 6);
        assert_eq!(w.data_round, 0, "control rounds must not advance data");
        assert!(
            control_retries > 0,
            "drop 0.6 over 6 control rounds must retransmit"
        );
        let before = w.stats.faults;
        let got = w
            .exchange(OpClass::Expand, vec![(0, 1, vec![1, 2, 3])])
            .map(|_| {
                let mut f = w.stats.faults;
                f.drops_injected -= before.drops_injected;
                f.truncations_injected -= before.truncations_injected;
                f.duplicates_injected -= before.duplicates_injected;
                f.retransmissions -= before.retransmissions;
                (f, w.data_round)
            });
        match (reference, got) {
            (Ok((rf, rr)), Ok((gf, gr))) => {
                assert_eq!(rf, gf, "data-round fault deltas must match");
                assert_eq!(rr, gr);
            }
            (Err(re), Err(ge)) => assert_eq!(re, ge),
            (r, g) => panic!("outcomes diverged: {r:?} vs {g:?}"),
        }
    }

    #[test]
    fn faulty_control_rejects_dead_endpoints_only() {
        let plan = FaultPlan::seeded(5).kill_rank_at(2, 0);
        let mut w = world(4).with_fault_plan(plan);
        w.set_control_faultable(true);
        // Round 0 fires the death.
        let err = w
            .exchange(OpClass::Expand, vec![(0, 1, vec![5])])
            .unwrap_err();
        assert_eq!(err, CommError::RankDead { rank: 2 });
        // Control among survivors flows despite the dead rank...
        w.exchange(OpClass::Control, vec![(0, 1, vec![7])]).unwrap();
        // ...but naming the corpse as an endpoint is refused.
        let err = w
            .exchange(OpClass::Control, vec![(0, 2, vec![7])])
            .unwrap_err();
        assert_eq!(err, CommError::RankDead { rank: 2 });
    }

    #[test]
    fn recovery_backoff_is_charged_to_control_time() {
        let mut w = world(4);
        let t0 = w.time();
        w.charge_recovery_backoff(0);
        w.charge_recovery_backoff(3);
        w.charge_recovery_backoff(40); // exponent capped at 6
        let elapsed = w.time() - t0;
        let overhead = w.cost_model().machine().software_overhead;
        assert!((elapsed - overhead * (1.0 + 8.0 + 64.0)).abs() < 1e-12);
        assert!((w.comm_time_for(OpClass::Control) - elapsed).abs() < 1e-12);
    }

    #[test]
    fn scheduled_death_fires_and_revive_recovers() {
        let plan = FaultPlan::seeded(1).kill_rank_at(2, 1);
        let mut w = world(4).with_fault_plan(plan);
        let sends = vec![(0, 1, vec![5u64])];
        w.exchange(OpClass::Expand, sends.clone()).unwrap(); // round 0: fine
        let err = w.exchange(OpClass::Fold, sends.clone()).unwrap_err();
        assert_eq!(err, CommError::RankDead { rank: 2 });
        assert_eq!(w.dead_ranks(), vec![2]);
        // The failed round charged nothing and delivered nothing, but did
        // advance the clock; revival makes the next round succeed and the
        // death never refires.
        w.revive(2);
        assert!(w.dead_ranks().is_empty());
        for _ in 0..4 {
            w.exchange(OpClass::Fold, sends.clone()).unwrap();
        }
        w.note_recovery();
        assert_eq!(w.stats.faults.recoveries, 1);
    }
}
