//! Collective communication operations.
//!
//! The paper's BFS needs two group collectives per level:
//!
//! * **expand** — every member of a processor-column makes its frontier
//!   known to the column;
//! * **fold** — neighbor sets are delivered to their owners within a
//!   processor-row, ideally with duplicate elimination en route.
//!
//! Each operation comes in several strategies, which the evaluation
//! compares (Table 1, Figure 7, and the ablation benches):
//!
//! | op     | strategy | module |
//! |--------|----------|--------|
//! | any    | direct all-to-all (`alltoallv`) | [`alltoall`] |
//! | any    | lane-masked all-to-all for multi-source waves | [`lane`] |
//! | expand | ring all-gather (send everything to everyone) | [`allgather`] |
//! | fold   | ring reduce-scatter with set-union | [`reduce_scatter`] |
//! | both   | §3.2.2 two-phase grouped ring | [`two_phase`] |
//!
//! All collectives operate on a **partition of the world's ranks into
//! groups** and advance every group simultaneously, one global message
//! round per algorithm step, so that simulated time reflects the fact
//! that all processor-rows (or columns) communicate concurrently.
//!
//! Both BFS directions use the same expand: a bottom-up level needs
//! exactly the frontier vertices whose columns a rank stores, which is
//! what the targeted expand delivers, so there is no separate
//! bottom-up collective.
//!
//! The ring collectives share crate-private pieces, so every ring
//! sends, unions and charges the same way: [`ring_step`] (one lockstep
//! step of a ring inside every group), [`UnionTally`] (a set union's
//! merge traffic and set-kernel counters, tallied wherever the union
//! ran and recorded into the world in rank order by [`record_unions`])
//! and [`into_payload`] (a hybrid set as a wire payload; [`into_payloads`]
//! expands many on the worker pool). A ring piece
//! carries an optional wire measure: the all-gather, whose pieces
//! travel unchanged, measures each contribution once at its origin
//! ([`measure_all`]) and moves the piece and its measure from hop to
//! hop. The two-phase fold measures each bundle where it sits at every
//! hop and sends only that measure: the bundle itself moves out of
//! band. The reduce-scatter ring, whose pieces are plain payloads,
//! leaves the measure to the exchange. The two-phase collectives run
//! their rings over the subgrid rows, which are themselves a
//! [`Groups`].

pub mod allgather;
pub mod alltoall;
pub mod lane;
pub mod reduce_scatter;
pub mod two_phase;

use crate::error::CommError;
use crate::sim::SimWorld;
use crate::stats::OpClass;
use crate::topology::ProcessorGrid;
use crate::vset::{VertSet, VsetPolicy};
use crate::wire::{WireMeasure, WirePolicy};
use crate::{Vert, VERT_BYTES};
use rayon::prelude::*;

/// A partition of ranks `0..p` into disjoint groups, with O(1) member
/// lookup. Collectives take this instead of a bare `Vec<Vec<usize>>` so
/// the partition invariant is checked once.
#[derive(Debug, Clone)]
pub struct Groups {
    groups: Vec<Vec<usize>>,
    /// rank -> (group index, position within group)
    member: Vec<(usize, usize)>,
}

impl Groups {
    /// Build from explicit groups; panics unless the groups are disjoint,
    /// non-empty, and cover exactly `0..p`.
    pub fn new(p: usize, groups: Vec<Vec<usize>>) -> Self {
        let mut member = vec![(usize::MAX, usize::MAX); p];
        let mut covered = 0;
        for (gi, g) in groups.iter().enumerate() {
            assert!(!g.is_empty(), "group {gi} is empty");
            for (pos, &r) in g.iter().enumerate() {
                assert!(r < p, "rank {r} out of range 0..{p}");
                assert_eq!(
                    member[r],
                    (usize::MAX, usize::MAX),
                    "rank {r} appears in more than one group"
                );
                member[r] = (gi, pos);
                covered += 1;
            }
        }
        assert_eq!(covered, p, "groups must cover every rank exactly once");
        Self { groups, member }
    }

    /// The processor-rows of a grid (fold groups).
    pub fn rows_of(grid: ProcessorGrid) -> Self {
        Self::new(
            grid.len(),
            (0..grid.rows()).map(|r| grid.row_group(r)).collect(),
        )
    }

    /// The processor-columns of a grid (expand groups).
    pub fn cols_of(grid: ProcessorGrid) -> Self {
        Self::new(
            grid.len(),
            (0..grid.cols()).map(|c| grid.column_group(c)).collect(),
        )
    }

    /// One group containing every rank.
    pub fn world(p: usize) -> Self {
        Self::new(p, vec![(0..p).collect()])
    }

    /// The groups themselves.
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// Total ranks covered.
    pub fn ranks(&self) -> usize {
        self.member.len()
    }

    /// `(group index, position)` of a rank.
    pub fn locate(&self, rank: usize) -> (usize, usize) {
        self.member[rank]
    }

    /// The group a rank belongs to.
    pub fn group_of(&self, rank: usize) -> &[usize] {
        &self.groups[self.member[rank].0]
    }

    /// Size of the largest group.
    fn max_group_len(&self) -> usize {
        self.groups.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Steps a ring inside every group takes: `g − 1` for the largest
    /// group of `g` members.
    pub(crate) fn ring_steps(&self) -> usize {
        self.max_group_len().saturating_sub(1)
    }

    /// The position `k` places behind `rank` on its group's ring.
    pub(crate) fn ring_back(&self, rank: usize, k: usize) -> usize {
        let (gi, pos) = self.member[rank];
        let glen = self.groups[gi].len();
        (pos + glen - k % glen) % glen
    }
}

/// A ring piece: its payload and, when the sender already holds it, the
/// payload's wire measure under the world's wire policy. An empty payload
/// with a measure is an out-of-band piece: the measure is charged, and
/// the data moves outside the exchange.
pub(crate) type Piece = (Vec<Vert>, Option<WireMeasure>);

/// Step `s` of a ring inside every group, all groups in lockstep as one
/// message round. A group of `g` members rings for its first `g − 1`
/// steps and idles afterwards while larger groups finish. Every member
/// of a ringing group, in group then position order, sends
/// `payload(world, rank)` to its ring successor (`None` sends nothing).
/// A supplied measure is charged as it is; a piece without one is
/// measured in the exchange. Returns the piece each rank received, if
/// any, with the measure it travelled with, so a piece forwarded
/// unchanged is measured once.
pub(crate) fn ring_step(
    world: &mut SimWorld,
    class: OpClass,
    rings: &Groups,
    s: usize,
    mut payload: impl FnMut(&mut SimWorld, usize) -> Option<Piece>,
) -> Result<Vec<Option<Piece>>, CommError> {
    let mut sends = Vec::with_capacity(world.p());
    let mut measures = Vec::with_capacity(world.p());
    let mut arriving = vec![None; world.p()];
    for g in rings.groups() {
        if s + 1 >= g.len() {
            continue;
        }
        for (pos, &rank) in g.iter().enumerate() {
            if let Some((piece, measure)) = payload(world, rank) {
                let to = g[(pos + 1) % g.len()];
                sends.push((rank, to, piece));
                measures.push(measure);
                arriving[to] = measure;
            }
        }
    }
    let inboxes = world.exchange_measured(class, sends, measures)?;
    Ok(inboxes
        .into_iter()
        .zip(arriving)
        .map(|(mut inbox, measure)| {
            debug_assert!(inbox.len() <= 1, "ring delivers at most one piece per step");
            inbox.pop().map(|(_, piece)| (piece, measure))
        })
        .collect())
}

/// Every item's wire measure under the world's wire policy, taken by
/// `measure`. Raw measures are a length product, so only the codec's
/// scans fan out over the worker pool (whose slice iterator is the
/// mutable one; nothing is modified).
pub(crate) fn measure_all<T: Send>(
    world: &SimWorld,
    items: &mut [T],
    measure: impl Fn(&T, &WirePolicy) -> WireMeasure + Sync,
) -> Vec<WireMeasure> {
    let policy = world.wire_policy();
    if policy.is_raw() {
        return items.iter().map(|t| measure(t, &policy)).collect();
    }
    items.par_iter_mut().map(|t| measure(t, &policy)).collect()
}

/// The accounting of set unions run away from the world, on a pool
/// worker: merge bytes, eliminated duplicates and the set-kernel
/// counters. [`UnionTally::record`] adds it to the world afterwards, so
/// the counting rule exists once whichever thread ran the unions.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct UnionTally {
    merge_bytes: u64,
    dups: usize,
    list_unions: u64,
    bitmap_unions: u64,
    densify_switches: u64,
}

impl UnionTally {
    /// Union `piece` into the accumulator `acc` under `policy`. Tallies
    /// both operands as merge traffic, the eliminated duplicates, the
    /// union and any densify switch.
    pub(crate) fn union(&mut self, acc: &mut VertSet, piece: &[Vert], policy: &VsetPolicy) {
        self.merge_bytes += (acc.len() + piece.len()) as u64 * VERT_BYTES;
        let was_bitmap = acc.is_bitmap();
        self.dups += acc.union_in(piece, policy);
        if acc.is_bitmap() {
            self.bitmap_unions += 1;
            self.densify_switches += u64::from(!was_bitmap);
        } else {
            self.list_unions += 1;
        }
    }

    /// Record the tallied unions as performed at `rank`; returns their
    /// merge bytes.
    pub(crate) fn record(self, world: &mut SimWorld, rank: usize) -> u64 {
        world.note_dups(rank, self.dups);
        let setops = &mut world.stats.setops;
        setops.list_unions += self.list_unions;
        setops.bitmap_unions += self.bitmap_unions;
        setops.densify_switches += self.densify_switches;
        self.merge_bytes
    }
}

/// Record one tally per rank, in rank order, and charge their merge
/// bytes as one memcpy phase.
pub(crate) fn record_unions(world: &mut SimWorld, tallies: Vec<UnionTally>) {
    let merge_bytes: Vec<u64> = tallies
        .into_iter()
        .enumerate()
        .map(|(rank, tally)| tally.record(world, rank))
        .collect();
    world.memcpy_phase(&merge_bytes);
}

/// A set as a wire payload: a list moves as it is, a bitmap is expanded
/// into a pooled scratch buffer.
pub(crate) fn into_payload(world: &mut SimWorld, set: VertSet) -> Vec<Vert> {
    match set {
        VertSet::List(v) => v,
        bitmap => {
            let mut buf = world.scratch_take();
            bitmap.append_to(&mut buf);
            buf
        }
    }
}

/// Sets as wire payloads, in order, as [`into_payload`] makes them,
/// with the bitmaps expanded on the worker pool. Their scratch buffers
/// are taken in order and grown on the calling thread, doubling as
/// pushing would, so the pool's counters, the buffers' capacities (and
/// with them the pool's high-water mark) and their malloc arena are
/// those of a serial expansion.
pub(crate) fn into_payloads(world: &mut SimWorld, sets: Vec<VertSet>) -> Vec<Vec<Vert>> {
    let mut pending: Vec<(VertSet, Vec<Vert>)> = sets
        .into_iter()
        .map(|set| match set {
            VertSet::List(v) => (VertSet::new(), v),
            bitmap => {
                let mut buf = world.scratch_take();
                while buf.capacity() < bitmap.len() {
                    buf.reserve(buf.capacity() + 1);
                }
                (bitmap, buf)
            }
        })
        .collect();
    let _: Vec<()> = pending
        .par_iter_mut()
        .map(|(bitmap, buf)| bitmap.append_to(buf))
        .collect();
    pending.into_iter().map(|(_, buf)| buf).collect()
}

/// Flatten per-rank `(destination, payload)` lists into `(from, to,
/// payload)` sends in sender order, checking in debug builds that every
/// destination is in its sender's group.
pub(crate) fn group_sends<T>(
    groups: &Groups,
    sends: Vec<Vec<(usize, T)>>,
) -> Vec<(usize, usize, T)> {
    debug_assert_eq!(sends.len(), groups.ranks());
    let mut flat = Vec::new();
    for (from, list) in sends.into_iter().enumerate() {
        for (to, payload) in list {
            debug_assert_eq!(
                groups.locate(from).0,
                groups.locate(to).0,
                "all-to-all destination {to} is outside {from}'s group"
            );
            flat.push((from, to, payload));
        }
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_and_cols_partition() {
        let grid = ProcessorGrid::new(3, 4);
        let rows = Groups::rows_of(grid);
        assert_eq!(rows.groups().len(), 3);
        assert_eq!(rows.max_group_len(), 4);
        let cols = Groups::cols_of(grid);
        assert_eq!(cols.groups().len(), 4);
        assert_eq!(cols.max_group_len(), 3);
        // locate is consistent.
        for rank in 0..grid.len() {
            let (gi, pos) = rows.locate(rank);
            assert_eq!(rows.groups()[gi][pos], rank);
            let (gi, pos) = cols.locate(rank);
            assert_eq!(cols.groups()[gi][pos], rank);
        }
    }

    #[test]
    #[should_panic(expected = "appears in more than one group")]
    fn overlapping_groups_rejected() {
        Groups::new(3, vec![vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "cover every rank")]
    fn incomplete_groups_rejected() {
        Groups::new(3, vec![vec![0, 1]]);
    }

    /// Run the ring all-gather on seeded disjoint contributions (every
    /// third one dense) under auto wire with `workers` pool workers.
    fn ring_gather(workers: usize) -> (String, u64, crate::CommStats) {
        rayon::with_worker_threads(workers, || {
            let grid = ProcessorGrid::new(6, 4);
            let groups = Groups::cols_of(grid);
            let contribution: Vec<Vec<Vert>> = (0..grid.len() as Vert)
                .map(|r| {
                    let lo = r * 1000;
                    if r % 3 == 0 {
                        (lo..lo + 900).filter(|v| v % 4 != 0).collect()
                    } else {
                        (lo..lo + 900).step_by(37 + r as usize).collect()
                    }
                })
                .collect();
            let mut world = SimWorld::bluegene(grid).with_wire_policy(crate::WirePolicy::auto());
            let inboxes =
                allgather::allgather_ring(&mut world, OpClass::Expand, &groups, contribution)
                    .unwrap();
            (
                format!("{inboxes:?}"),
                world.time().to_bits(),
                world.stats.clone(),
            )
        })
    }

    #[test]
    fn allgather_ring_is_bit_identical_across_worker_counts() {
        let serial = ring_gather(1);
        let parallel = ring_gather(4);
        let expand = serial.2.class(OpClass::Expand);
        assert!(
            expand.wire_bytes < expand.logical_bytes,
            "the codec must pay"
        );
        assert_eq!(serial.0, parallel.0, "allgather_ring inboxes");
        assert_eq!(serial.1, parallel.1, "sim clock must be bit-identical");
        assert_eq!(serial.2, parallel.2, "CommStats");
    }

    #[test]
    fn world_group() {
        let g = Groups::world(5);
        assert_eq!(g.groups().len(), 1);
        assert_eq!(g.group_of(3), &[0, 1, 2, 3, 4]);
    }
}
