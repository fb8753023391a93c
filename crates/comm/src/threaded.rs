//! Real multi-threaded SPMD runtime.
//!
//! One OS thread per rank, communicating through `std::sync::mpsc`
//! channels. This runtime executes the *same* per-rank BFS logic as the
//! superstep simulator, but with genuine concurrency — it exists to
//! demonstrate the algorithms on a real parallel substrate and to
//! validate that the simulator's message routing is faithful
//! (integration tests assert identical BFS results from both engines).
//!
//! The communication primitive is a bulk-synchronous `exchange`: each
//! round, every rank posts at most one packet to every other rank and
//! then collects exactly one packet from every other rank. Rounds are
//! tagged so fast senders can run ahead without corrupting slow
//! receivers' views. No cost model applies here — wall-clock time is
//! real.
//!
//! A shared [`FaultPlan`] injects the *same* deterministic fault
//! schedule as the simulator: sender-side `delivery` decisions count
//! drops/truncations/duplicates/retransmissions per rank (payloads
//! still arrive — the ack/retransmit protocol eventually succeeds
//! unless the budget is exhausted), and scheduled rank deaths surface
//! as [`CommError::RankDead`] at the same data round in every rank.
//! Receives use bounded timeouts instead of indefinite blocking, so a
//! rank that stops participating yields a typed error, not a hang.

// Parallel index loops over per-rank arrays are intentional here.
#![allow(clippy::needless_range_loop)]

use crate::error::CommError;
use crate::stats::{FaultStats, OpClass};
use crate::topology::ProcessorGrid;
use crate::wire::{self, WirePolicy};
use crate::{Vert, VERT_BYTES};
use bgl_torus::FaultPlan;
use bgl_trace::{EventKind, OpKind, Phase, TraceBuffer, TraceDetail, TraceSink};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a rank waits on a round before giving up with
/// [`CommError::Timeout`]. Generous: only reached if a peer hangs
/// without flagging itself dead.
const EXCHANGE_DEADLINE: Duration = Duration::from_secs(5);

/// Poll tick while waiting: each expiry re-checks peer liveness flags.
const POLL_TICK: Duration = Duration::from_millis(2);

/// A packet between ranks: all payloads `from` has for the receiver in
/// one round.
struct Packet {
    round: u64,
    from: usize,
    body: Body,
}

/// What one packet carries. With the wire codec off (the default
/// [`WirePolicy::raw`]) vertex lists travel untouched, byte-identical
/// to a codec-free build. With a codec policy set, every payload is
/// encoded to a wire frame on the sending rank and decoded on the
/// receiving rank — the same frames the superstep simulator charges to
/// its cost model, so wire-byte accounting agrees across runtimes.
enum Body {
    Verts(Vec<Vec<Vert>>),
    Wire(Vec<Vec<u8>>),
}

/// Sender-side byte accounting for one op class on one rank: payload
/// bytes before the codec and frame bytes actually shipped. Summing
/// either counter over all ranks reproduces the simulator's per-class
/// world totals (self-sends are excluded on both sides).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireCount {
    /// Uncompressed payload bytes (vertex count × 8).
    pub logical_bytes: u64,
    /// Bytes placed on the wire (equals `logical_bytes` with the codec
    /// off).
    pub wire_bytes: u64,
}

/// Handle used inside a rank's closure to communicate.
pub struct RankCtx {
    rank: usize,
    grid: ProcessorGrid,
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    round: u64,
    /// Packets that arrived early for future rounds.
    stash: BTreeMap<u64, Vec<Packet>>,
    plan: Arc<FaultPlan>,
    /// Liveness flags shared by all ranks; a rank that dies (scheduled
    /// death or unrecoverable send) clears its own flag so peers stop
    /// waiting for its packets.
    alive: Arc<Vec<AtomicBool>>,
    /// Data-exchange round counter driving the fault schedule. Control
    /// traffic neither advances it nor suffers faults by default,
    /// mirroring the simulator (BlueGene/L's separate reliable tree
    /// network).
    data_round: u64,
    /// Opt control traffic in to the fault plan (see
    /// [`SimWorld::set_control_faultable`](crate::SimWorld::set_control_faultable)).
    control_faultable: bool,
    /// Separate round counter for faultable control exchanges, so the
    /// data-round fault schedule is never perturbed.
    control_round: u64,
    /// Faults this rank injected on its sends (sender-side accounting;
    /// summing over ranks matches the simulator's world totals).
    pub faults: FaultStats,
    /// Wire-codec policy for outbound payloads (raw = codec off).
    wire_policy: WirePolicy,
    /// Per-class sender-side logical/wire byte counters, indexed by
    /// [`OpClass::index`].
    wire_counts: [WireCount; 3],
    /// Per-rank trace recorder (disabled by default; one word, no heap).
    trace: TraceSink,
    /// Wall-clock origin for trace timestamps: every rank's events are
    /// keyed to seconds since the world was spawned, so per-rank tracks
    /// share one timeline.
    epoch: Instant,
}

impl RankCtx {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The processor grid.
    pub fn grid(&self) -> ProcessorGrid {
        self.grid
    }

    /// Opt [`OpClass::Control`] traffic in to the fault plan, mirroring
    /// the simulator's faultable recovery channel. Control faults are
    /// hashed off a separate round counter, so the data schedule (and
    /// the sim/threaded schedule agreement) is untouched.
    pub fn set_control_faultable(&mut self, on: bool) {
        self.control_faultable = on;
    }

    /// Set the wire-codec policy for this rank's outbound payloads.
    /// Every rank must use the same policy or receivers would misparse
    /// frames; callers set it once at the top of the rank body.
    pub fn set_wire_policy(&mut self, policy: WirePolicy) {
        self.wire_policy = policy;
    }

    /// The wire-codec policy in effect.
    pub fn wire_policy(&self) -> WirePolicy {
        self.wire_policy
    }

    /// Sender-side byte accounting for `class` on this rank.
    pub fn wire_count(&self, class: OpClass) -> WireCount {
        self.wire_counts[class.index()]
    }

    /// Enable structured tracing on this rank. Events land in a
    /// single-track buffer; the caller merges per-rank buffers (see
    /// [`TraceBuffer::absorb_rank`]) after the world joins.
    pub fn enable_trace(&mut self, detail: TraceDetail) {
        self.trace = TraceSink::enabled(0, detail);
    }

    /// This rank's trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Seconds since the world was spawned (the trace clock). Only
    /// meaningful while tracing; returns 0.0 when the sink is disabled
    /// so disabled runs never touch the OS clock.
    pub fn trace_now(&self) -> f64 {
        if self.trace.is_enabled() {
            self.epoch.elapsed().as_secs_f64()
        } else {
            0.0
        }
    }

    /// Record a phase span `[t0, now]` on this rank's track.
    pub fn trace_span(&mut self, phase: Phase, level: u32, t0: f64) {
        if self.trace.is_enabled() {
            let t1 = self.epoch.elapsed().as_secs_f64();
            self.trace.span(phase, level, t0, t1);
        }
    }

    /// Detach this rank's trace buffer (None when tracing is disabled).
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.trace.take_buffer()
    }

    /// Mark this rank dead (peers stop waiting for it) and return `e`.
    fn fail(&self, e: CommError) -> CommError {
        self.alive[self.rank].store(false, Ordering::SeqCst);
        e
    }

    /// One bulk-synchronous message round. `sends` lists `(dest,
    /// payload)` pairs (multiple payloads to one destination are
    /// allowed). Returns every non-empty payload addressed to this rank,
    /// as `(from, payload)` sorted by sender. Acts as a world barrier.
    ///
    /// With an active fault plan, [`OpClass::Expand`]/[`OpClass::Fold`]
    /// rounds advance the fault schedule clock, injected message faults
    /// are counted in [`RankCtx::faults`], and scheduled rank deaths
    /// surface as [`CommError::RankDead`] in *every* rank at the same
    /// round (the plan is shared, so survivors detect deaths without
    /// waiting for silence).
    pub fn exchange(
        &mut self,
        class: OpClass,
        sends: Vec<(usize, Vec<Vert>)>,
    ) -> Result<Vec<(usize, Vec<Vert>)>, CommError> {
        let p = self.grid.len();
        let control = class == OpClass::Control;
        let faultable = self.plan.is_active() && (!control || self.control_faultable);
        let mut fault_round = 0u64;
        if faultable && control {
            // Control faults draw from their own round counter;
            // scheduled deaths stay a data-round phenomenon.
            fault_round = self.control_round;
            self.control_round += 1;
        } else if faultable {
            fault_round = self.data_round;
            self.data_round += 1;
            if self.plan.has_deaths() {
                for r in self.plan.deaths_at(fault_round) {
                    if r < p {
                        self.alive[r].store(false, Ordering::SeqCst);
                    }
                }
                // Deterministic death check: every rank computes the same
                // schedule, so the whole world aborts this round together.
                let mut doomed = None;
                for d in self.plan.deaths() {
                    if d.at_round <= fault_round && d.rank < p {
                        doomed = match doomed {
                            Some(r) if r <= d.rank => Some(r),
                            _ => Some(d.rank),
                        };
                    }
                }
                if let Some(rank) = doomed {
                    if self.trace.is_enabled() {
                        let t = self.epoch.elapsed().as_secs_f64();
                        self.trace.world_event(
                            EventKind::RankDeath {
                                rank: rank as u32,
                                round: fault_round,
                            },
                            t,
                            t,
                        );
                    }
                    return Err(self.fail(CommError::RankDead { rank }));
                }
            }
        }
        let round = self.round;
        self.round += 1;

        let traced = self.trace.is_enabled();
        let trace_sends = self.trace.wants_sends();
        let t_round0 = if traced {
            self.epoch.elapsed().as_secs_f64()
        } else {
            0.0
        };
        let mut round_msgs = 0u64;
        let mut round_verts = 0u64;

        // Aggregate per destination, injecting sender-side faults and
        // (with a codec policy set) encoding each payload to a wire
        // frame. Self-sends never touch the codec, mirroring the
        // simulator's free local delivery.
        let codec_on = !self.wire_policy.is_raw();
        let mut per_dest: Vec<Vec<Vec<Vert>>> = vec![Vec::new(); p];
        let mut per_dest_wire: Vec<Vec<Vec<u8>>> = if codec_on {
            vec![Vec::new(); p]
        } else {
            Vec::new()
        };
        let mut self_payloads = Vec::new();
        let msg_faults = faultable && self.plan.has_message_faults();
        for (dest, payload) in sends {
            if dest >= p {
                return Err(self.fail(CommError::DestinationOutOfRange { dest, p }));
            }
            if dest == self.rank {
                if !payload.is_empty() {
                    self_payloads.push(payload);
                }
                continue;
            }
            let mut retries = 0u32;
            if msg_faults {
                match self
                    .plan
                    .delivery(class.index() as u8, fault_round, self.rank, dest)
                {
                    Ok(d) => {
                        let failed = d.attempts - 1;
                        let dropped = failed - d.truncated_attempts;
                        self.faults.drops_injected += dropped as u64;
                        self.faults.truncations_injected += d.truncated_attempts as u64;
                        self.faults.retransmissions += failed as u64;
                        if d.duplicated {
                            // Receiver-side sequence check discards the
                            // duplicate; only the counter observes it.
                            self.faults.duplicates_injected += 1;
                        }
                        retries = failed;
                    }
                    Err(attempts) => {
                        return Err(self.fail(CommError::Unreachable {
                            from: self.rank,
                            to: dest,
                            attempts,
                        }))
                    }
                }
            }
            let logical = payload.len() as u64 * VERT_BYTES;
            let frame = if codec_on {
                Some(wire::encode(&payload, &self.wire_policy))
            } else {
                None
            };
            let wire_bytes = frame.as_ref().map_or(logical, |f| f.len() as u64);
            let wc = &mut self.wire_counts[class.index()];
            wc.logical_bytes += logical;
            wc.wire_bytes += wire_bytes;
            if traced {
                round_msgs += 1;
                round_verts += payload.len() as u64;
                let t = self.epoch.elapsed().as_secs_f64();
                if trace_sends {
                    // No cost model on real threads: sends are recorded
                    // as instants; hop counts are the exporter's to
                    // derive from the task mapping if it wants them.
                    // Bytes are post-codec, matching the simulator.
                    self.trace.rank_event(
                        0,
                        EventKind::Send {
                            from: self.rank as u32,
                            to: dest as u32,
                            bytes: wire_bytes,
                            hops: 0,
                        },
                        t,
                        t,
                    );
                }
                if retries > 0 {
                    self.trace.rank_event(
                        0,
                        EventKind::Retransmit {
                            from: self.rank as u32,
                            to: dest as u32,
                            retries,
                        },
                        t,
                        t,
                    );
                }
            }
            match frame {
                Some(f) => per_dest_wire[dest].push(f),
                None => per_dest[dest].push(payload),
            }
        }

        // Post exactly one packet to every peer (possibly empty): this is
        // what lets receivers detect round completion. Send errors mean
        // the peer already exited; its dead flag covers it below.
        for dest in 0..p {
            if dest == self.rank {
                continue;
            }
            let body = if codec_on {
                Body::Wire(std::mem::take(&mut per_dest_wire[dest]))
            } else {
                Body::Verts(std::mem::take(&mut per_dest[dest]))
            };
            let _ = self.senders[dest].send(Packet {
                round,
                from: self.rank,
                body,
            });
        }

        // Collect one packet per peer for this round, with a bounded
        // wait: each poll tick re-checks liveness so a dead peer turns
        // into a typed error instead of a hang.
        // bgl-lint: allow(d2, reason = "threaded backend deadline is real wall-clock liveness detection, not simulated time")
        let deadline = Instant::now() + EXCHANGE_DEADLINE;
        let mut got: Vec<Packet> = self.stash.remove(&round).unwrap_or_default();
        let mut heard = vec![false; p];
        heard[self.rank] = true;
        for pkt in &got {
            heard[pkt.from] = true;
        }
        while got.len() < p - 1 {
            match self.receiver.recv_timeout(POLL_TICK) {
                Ok(pkt) => {
                    if pkt.round == round {
                        heard[pkt.from] = true;
                        got.push(pkt);
                    } else {
                        debug_assert!(pkt.round > round, "stale packet from a past round");
                        self.stash.entry(pkt.round).or_default().push(pkt);
                    }
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    for peer in 0..p {
                        if !heard[peer] && !self.alive[peer].load(Ordering::SeqCst) {
                            return Err(self.fail(CommError::RankDead { rank: peer }));
                        }
                    }
                    // bgl-lint: allow(d2, reason = "wall-clock re-check of the liveness deadline above")
                    if Instant::now() >= deadline {
                        return Err(self.fail(CommError::Timeout {
                            rank: self.rank,
                            round,
                        }));
                    }
                }
            }
        }

        let mut out: Vec<(usize, Vec<Vert>)> = Vec::new();
        for payload in self_payloads {
            out.push((self.rank, payload));
        }
        for pkt in got {
            let Packet { from, body, .. } = pkt;
            match body {
                Body::Verts(payloads) => {
                    for payload in payloads {
                        if !payload.is_empty() {
                            out.push((from, payload));
                        }
                    }
                }
                Body::Wire(frames) => {
                    for f in frames {
                        // Frames travel in-process over a channel, so a
                        // parse failure can only mean a codec bug — a
                        // panic (surfaced by the world join) beats
                        // silently dropping BFS traffic.
                        let payload =
                            // bgl-lint: allow(r1, reason = "in-process frames cannot corrupt; a decode failure is a codec bug, so aborting beats dropping traffic")
                            wire::decode(&f).expect("undecodable wire frame between ranks");
                        if !payload.is_empty() {
                            out.push((from, payload));
                        }
                    }
                }
            }
        }
        out.sort_by_key(|a| a.0);
        if traced && (round_msgs > 0 || class != OpClass::Control) {
            // Sender-side accounting: each rank's track records its own
            // outbound rounds (the world-total view comes from merging).
            self.trace.world_event(
                EventKind::Round {
                    op: OpKind::from_index(class.index()),
                    messages: round_msgs as u32,
                    verts: round_verts,
                    bottleneck: self.rank as u32,
                },
                t_round0,
                self.epoch.elapsed().as_secs_f64(),
            );
        }
        Ok(out)
    }

    /// Global OR across all ranks (one control round).
    pub fn allreduce_or(&mut self, flag: bool) -> Result<bool, CommError> {
        Ok(self.allreduce_sum(flag as u64)? > 0)
    }

    /// Global sum across all ranks (one control round).
    pub fn allreduce_sum(&mut self, value: u64) -> Result<u64, CommError> {
        let [total] = self.allreduce_sums([value])?;
        Ok(total)
    }

    /// `W` global sums in one control round, carrying a `W`-word payload
    /// instead of one word — the threaded mirror of
    /// [`crate::SimWorld::allreduce_sums`]. The direction-optimizing BFS
    /// rides its α/β inputs on the termination check this way.
    pub fn allreduce_sums<const W: usize>(
        &mut self,
        vals: [u64; W],
    ) -> Result<[u64; W], CommError> {
        let p = self.grid.len();
        let sends: Vec<(usize, Vec<Vert>)> = (0..p)
            .filter(|&d| d != self.rank)
            // +1 shift per word lets zero values survive the
            // empty-payload filter.
            .map(|d| (d, vals.iter().map(|v| v + 1).collect()))
            .collect();
        let got = self.exchange(OpClass::Control, sends)?;
        let mut totals = vals;
        for (_, payload) in got {
            for (t, w) in totals.iter_mut().zip(&payload) {
                *t += w - 1;
            }
        }
        Ok(totals)
    }
}

/// The threaded SPMD world: spawns one thread per rank and runs `body`
/// in each, returning the per-rank results in rank order.
pub struct ThreadedWorld;

impl ThreadedWorld {
    /// Run `body` on every rank of `grid` concurrently, fault-free.
    pub fn run<F, T>(grid: ProcessorGrid, body: F) -> Vec<T>
    where
        F: Fn(&mut RankCtx) -> T + Sync,
        T: Send,
    {
        Self::run_with(grid, FaultPlan::none(), body)
    }

    /// Run `body` on every rank of `grid` concurrently under `plan`.
    pub fn run_with<F, T>(grid: ProcessorGrid, plan: FaultPlan, body: F) -> Vec<T>
    where
        F: Fn(&mut RankCtx) -> T + Sync,
        T: Send,
    {
        let p = grid.len();
        let mut senders = Vec::with_capacity(p);
        let mut receivers = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let plan = Arc::new(plan);
        let alive: Arc<Vec<AtomicBool>> = Arc::new((0..p).map(|_| AtomicBool::new(true)).collect());
        // One shared origin so all ranks' trace timestamps align.
        // bgl-lint: allow(d2, reason = "trace timestamp origin for real threads; sim paths use the modelled clock")
        let epoch = Instant::now();

        let body = &body;
        let senders_ref = &senders;
        let mut results: Vec<Option<T>> = (0..p).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(p);
            for (rank, receiver) in receivers.into_iter().enumerate() {
                let plan = Arc::clone(&plan);
                let alive = Arc::clone(&alive);
                handles.push(scope.spawn(move || {
                    let mut ctx = RankCtx {
                        rank,
                        grid,
                        senders: senders_ref.to_vec(),
                        receiver,
                        round: 0,
                        stash: BTreeMap::new(),
                        plan,
                        alive,
                        data_round: 0,
                        control_faultable: false,
                        control_round: 0,
                        faults: FaultStats::default(),
                        wire_policy: WirePolicy::raw(),
                        wire_counts: [WireCount::default(); 3],
                        trace: TraceSink::disabled(),
                        epoch,
                    };
                    body(&mut ctx)
                }));
            }
            for (rank, h) in handles.into_iter().enumerate() {
                // bgl-lint: allow(r1, reason = "join fails only if the rank thread panicked; re-raising the panic is the contract")
                results[rank] = Some(h.join().expect("rank thread panicked"));
            }
        });
        results.into_iter().map(Option::unwrap).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_routes_payloads() {
        let grid = ProcessorGrid::new(2, 2);
        let results = ThreadedWorld::run(grid, |ctx| {
            // Every rank sends its id to rank 0.
            let sends = if ctx.rank() == 0 {
                Vec::new()
            } else {
                vec![(0, vec![ctx.rank() as Vert])]
            };
            ctx.exchange(OpClass::Fold, sends).unwrap()
        });
        assert_eq!(results[0], vec![(1, vec![1]), (2, vec![2]), (3, vec![3])]);
        assert!(results[1].is_empty());
    }

    #[test]
    fn self_sends_are_delivered() {
        let grid = ProcessorGrid::new(1, 2);
        let results = ThreadedWorld::run(grid, |ctx| {
            ctx.exchange(OpClass::Fold, vec![(ctx.rank(), vec![42])])
                .unwrap()
        });
        for (rank, inbox) in results.iter().enumerate() {
            assert_eq!(inbox, &vec![(rank, vec![42])]);
        }
    }

    #[test]
    fn multiple_rounds_do_not_cross() {
        let grid = ProcessorGrid::new(1, 4);
        let results = ThreadedWorld::run(grid, |ctx| {
            let mut seen = Vec::new();
            for round in 0..10u64 {
                let next = (ctx.rank() + 1) % 4;
                let got = ctx
                    .exchange(
                        OpClass::Expand,
                        vec![(next, vec![round * 100 + ctx.rank() as u64])],
                    )
                    .unwrap();
                assert_eq!(got.len(), 1);
                seen.push(got[0].1[0]);
            }
            seen
        });
        let prev = 3usize; // rank 0's predecessor
        for (round, &v) in results[0].iter().enumerate() {
            assert_eq!(v, round as u64 * 100 + prev as u64);
        }
    }

    #[test]
    fn allreduce_sum_and_or() {
        let grid = ProcessorGrid::new(2, 3);
        let sums = ThreadedWorld::run(grid, |ctx| ctx.allreduce_sum(ctx.rank() as u64).unwrap());
        assert!(sums.iter().all(|&s| s == 15));
        let ors = ThreadedWorld::run(grid, |ctx| ctx.allreduce_or(ctx.rank() == 3).unwrap());
        assert!(ors.iter().all(|&o| o));
        let ors = ThreadedWorld::run(grid, |ctx| ctx.allreduce_or(false).unwrap());
        assert!(ors.iter().all(|&o| !o));
    }

    #[test]
    fn allreduce_sums_adds_every_word_in_one_round() {
        let grid = ProcessorGrid::new(2, 3);
        let out = ThreadedWorld::run(grid, |ctx| {
            let r = ctx.rank() as u64;
            let sums = ctx.allreduce_sums([r, 0, 10 * r + 1]).unwrap();
            (sums, ctx.wire_count(OpClass::Control).logical_bytes)
        });
        for (sums, bytes) in out {
            assert_eq!(sums, [15, 0, 156]);
            // One round: a three-word payload to each of the five peers.
            assert_eq!(bytes, 5 * 3 * VERT_BYTES);
        }
    }

    #[test]
    fn allreduce_sum_of_zeros() {
        let grid = ProcessorGrid::new(1, 3);
        let sums = ThreadedWorld::run(grid, |ctx| {
            let _ = ctx.rank();
            ctx.allreduce_sum(0).unwrap()
        });
        assert!(sums.iter().all(|&s| s == 0));
    }

    #[test]
    fn single_rank_world() {
        let grid = ProcessorGrid::new(1, 1);
        let results = ThreadedWorld::run(grid, |ctx| {
            ctx.exchange(OpClass::Control, Vec::new()).unwrap();
            ctx.allreduce_sum(7).unwrap()
        });
        assert_eq!(results, vec![7]);
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn rank_panic_propagates_to_caller() {
        // Failure injection: a crashing rank must not hang the world —
        // the scoped join surfaces the panic.
        let grid = ProcessorGrid::new(1, 2);
        let _ = ThreadedWorld::run(grid, |ctx| {
            if ctx.rank() == 1 {
                panic!("injected rank failure");
            }
            // Rank 0 does not communicate, so it finishes regardless.
            ctx.rank()
        });
    }

    #[test]
    fn empty_payloads_filtered() {
        let grid = ProcessorGrid::new(1, 2);
        let results = ThreadedWorld::run(grid, |ctx| {
            let other = 1 - ctx.rank();
            ctx.exchange(OpClass::Fold, vec![(other, Vec::new())])
                .unwrap()
        });
        assert!(results[0].is_empty());
        assert!(results[1].is_empty());
    }

    #[test]
    fn out_of_range_destination_is_typed_error() {
        let grid = ProcessorGrid::new(1, 2);
        let results = ThreadedWorld::run(grid, |ctx| {
            if ctx.rank() == 0 {
                ctx.exchange(OpClass::Fold, vec![(7, vec![1])])
            } else {
                // The peer sees rank 0 flag itself dead instead of hanging.
                ctx.exchange(OpClass::Fold, Vec::new())
            }
        });
        assert_eq!(
            results[0],
            Err(CommError::DestinationOutOfRange { dest: 7, p: 2 })
        );
        assert_eq!(results[1], Err(CommError::RankDead { rank: 0 }));
    }

    #[test]
    fn scheduled_death_aborts_world_at_same_round() {
        let grid = ProcessorGrid::new(2, 2);
        let plan = FaultPlan::seeded(5).kill_rank_at(2, 3);
        let results = ThreadedWorld::run_with(grid, plan, |ctx| {
            let mut rounds_done = 0u64;
            for i in 0..10u64 {
                let next = (ctx.rank() + 1) % 4;
                match ctx.exchange(OpClass::Expand, vec![(next, vec![i])]) {
                    Ok(_) => rounds_done += 1,
                    Err(e) => return (rounds_done, Some(e)),
                }
            }
            (rounds_done, None)
        });
        for (rounds_done, err) in results {
            assert_eq!(rounds_done, 3, "all ranks abort at the death round");
            assert_eq!(err, Some(CommError::RankDead { rank: 2 }));
        }
    }

    #[test]
    fn wire_codec_roundtrips_payloads() {
        // With a codec policy every payload travels as an encoded frame;
        // receivers must see exactly the vertices that were sent, and
        // the sender-side counters must show real compression on
        // BFS-shaped (sorted, dense-ish) payloads.
        let grid = ProcessorGrid::new(2, 2);
        let results = ThreadedWorld::run(grid, |ctx| {
            ctx.set_wire_policy(WirePolicy::auto());
            let next = (ctx.rank() + 1) % 4;
            let payload: Vec<Vert> = (0..512u64)
                .map(|k| ctx.rank() as u64 * 10_000 + k)
                .collect();
            let got = ctx
                .exchange(OpClass::Expand, vec![(next, payload)])
                .unwrap();
            (got, ctx.wire_count(OpClass::Expand))
        });
        for (rank, (inbox, count)) in results.iter().enumerate() {
            let prev = (rank + 3) % 4;
            let expect: Vec<Vert> = (0..512u64).map(|k| prev as u64 * 10_000 + k).collect();
            assert_eq!(inbox, &vec![(prev, expect)]);
            assert_eq!(count.logical_bytes, 512 * VERT_BYTES);
            assert!(
                count.wire_bytes * 4 < count.logical_bytes,
                "dense sorted run should compress >4x, got {} -> {}",
                count.logical_bytes,
                count.wire_bytes
            );
        }
    }

    #[test]
    fn raw_policy_ships_plain_vertex_lists() {
        // The default policy must count wire == logical and deliver the
        // exact same results as always (codec fully bypassed).
        let grid = ProcessorGrid::new(1, 2);
        let results = ThreadedWorld::run(grid, |ctx| {
            let other = 1 - ctx.rank();
            let got = ctx
                .exchange(OpClass::Fold, vec![(other, vec![5, 6, 7])])
                .unwrap();
            (got, ctx.wire_count(OpClass::Fold))
        });
        for (rank, (inbox, count)) in results.iter().enumerate() {
            assert_eq!(inbox, &vec![(1 - rank, vec![5, 6, 7])]);
            assert_eq!(count.logical_bytes, 3 * VERT_BYTES);
            assert_eq!(count.wire_bytes, 3 * VERT_BYTES);
        }
    }

    #[test]
    fn wire_totals_match_simulator() {
        // Same payload pattern, same codec policy, both runtimes:
        // identical world-total logical and wire byte counts (the codec
        // choice is a pure function of each payload).
        use crate::buffer::ChunkPolicy;
        use crate::sim::SimWorld;
        use bgl_torus::{MachineConfig, TaskMappingKind};

        let grid = ProcessorGrid::new(2, 2);
        let rounds = 4u64;
        let payload_for = |rank: usize, i: u64| -> Vec<Vert> {
            // Mix of shapes: dense runs, strided, and one empty payload.
            match (rank as u64 + i) % 3 {
                0 => (0..200u64).map(|k| i * 1000 + k).collect(),
                1 => (0..50u64).map(|k| i * 1000 + k * 97).collect(),
                _ => Vec::new(),
            }
        };

        let mut sim = SimWorld::new(
            grid,
            MachineConfig::bluegene_l_partition(MachineConfig::fit_partition(4)),
            TaskMappingKind::FoldedPlanes,
            ChunkPolicy::Unbounded,
        )
        .with_wire_policy(WirePolicy::auto());
        for i in 0..rounds {
            let sends = (0..4)
                .map(|r| (r, (r + 1) % 4, payload_for(r, i)))
                .collect::<Vec<_>>();
            sim.exchange(OpClass::Expand, sends).unwrap();
        }

        let per_rank = ThreadedWorld::run(grid, |ctx| {
            ctx.set_wire_policy(WirePolicy::auto());
            for i in 0..rounds {
                let next = (ctx.rank() + 1) % 4;
                ctx.exchange(OpClass::Expand, vec![(next, payload_for(ctx.rank(), i))])
                    .unwrap();
            }
            ctx.wire_count(OpClass::Expand)
        });
        let logical: u64 = per_rank.iter().map(|c| c.logical_bytes).sum();
        let wire: u64 = per_rank.iter().map(|c| c.wire_bytes).sum();
        let cls = sim.stats.class(OpClass::Expand);
        assert_eq!(logical, cls.logical_bytes);
        assert_eq!(wire, cls.wire_bytes);
        assert!(wire < logical, "mixed payloads should still compress");
    }

    #[test]
    fn fault_counters_match_simulator() {
        // Same plan, same message pattern, both runtimes: identical
        // world-total fault counters (pure-hash decisions).
        use crate::buffer::ChunkPolicy;
        use crate::sim::SimWorld;
        use bgl_torus::{MachineConfig, TaskMappingKind};

        let grid = ProcessorGrid::new(2, 2);
        let mk_plan = || {
            FaultPlan::seeded(99)
                .with_drop_prob(0.3)
                .with_truncate_prob(0.1)
                .with_duplicate_prob(0.1)
        };
        let rounds = 6u64;

        let mut sim = SimWorld::new(
            grid,
            MachineConfig::bluegene_l_partition(MachineConfig::fit_partition(4)),
            TaskMappingKind::FoldedPlanes,
            ChunkPolicy::Unbounded,
        )
        .with_fault_plan(mk_plan());
        for i in 0..rounds {
            let sends = (0..4)
                .map(|r| (r, (r + 1) % 4, vec![i; 8]))
                .collect::<Vec<_>>();
            sim.exchange(OpClass::Expand, sends).unwrap();
        }

        let per_rank = ThreadedWorld::run_with(grid, mk_plan(), |ctx| {
            for i in 0..rounds {
                let next = (ctx.rank() + 1) % 4;
                ctx.exchange(OpClass::Expand, vec![(next, vec![i; 8])])
                    .unwrap();
            }
            ctx.faults
        });
        let mut total = FaultStats::default();
        for f in &per_rank {
            total.drops_injected += f.drops_injected;
            total.truncations_injected += f.truncations_injected;
            total.duplicates_injected += f.duplicates_injected;
            total.retransmissions += f.retransmissions;
        }
        assert!(total.retransmissions > 0, "plan should actually fire");
        assert_eq!(total.drops_injected, sim.stats.faults.drops_injected);
        assert_eq!(
            total.truncations_injected,
            sim.stats.faults.truncations_injected
        );
        assert_eq!(
            total.duplicates_injected,
            sim.stats.faults.duplicates_injected
        );
        assert_eq!(total.retransmissions, sim.stats.faults.retransmissions);
    }
}
