//! Ring frontier gather: the bottom-up direction's group collective.
//!
//! A bottom-up superstep (Beamer-style direction optimization over the
//! paper's 2D partition) needs every rank to hold the *whole* frontier
//! slice covering its edge block's columns. The owners of those
//! vertices are exactly the rank's processor-column peers — the block
//! rows tiling block column `j` are owned by ranks `(0..R, j)` — so the
//! collective is an all-gather **with set union** within each group:
//! every member contributes its own (sorted) frontier, and every member
//! ends with one deduplicated [`VertSet`] covering the group.
//!
//! Implementation: the same `g−1`-step neighbour-only ring as
//! [`crate::collectives::allgather`], but the received pieces fold into
//! a hybrid [`VertSet`] accumulator under the world's
//! [`crate::vset::VsetPolicy`] — a dense frontier densifies into a
//! fixed-range bitmap, and (under the auto/bitmap wire modes) travels
//! as fixed-range bitmap wire frames. Contributions are disjoint
//! (owned ranges do not overlap), so the unions eliminate no
//! duplicates; they are charged as merge memcpy traffic exactly like
//! the union-fold rings. Empty pieces are not sent — absence of a ring
//! message *is* the empty piece, identically in both runtimes, so the
//! data-round fault schedule stays aligned with the threaded mirror.
//!
//! Host work: each contribution is copied and measured once at its
//! origin and then moved around the ring with its measure, so no hop
//! clones or re-measures a piece. The piece a rank receives at step `s`
//! is the unchanged contribution of the member `s + 1` places back, so
//! each step charges its merge traffic from set lengths alone, and the
//! unions themselves run after the ring, on the worker pool, over the
//! shared contribution slices in ring-arrival order. Their set-kernel
//! counters are recorded in rank order, so clocks, traces and
//! [`crate::CommStats`] equal those of unions done step by step.

use super::{measure_all, ring_step, Groups, Piece, Union};
use crate::error::CommError;
use crate::sim::SimWorld;
use crate::stats::OpClass;
use crate::vset::VertSet;
use crate::{Vert, VERT_BYTES};
use rayon::prelude::*;

/// Run a union frontier gather in every group simultaneously.
///
/// `contribution[rank]` is the rank's own frontier (sorted,
/// deduplicated). Returns, for every rank, the union of its whole
/// group's contributions (its own included) as a [`VertSet`].
pub fn frontier_gather(
    world: &mut SimWorld,
    class: OpClass,
    groups: &Groups,
    mut contribution: Vec<Vec<Vert>>,
) -> Result<Vec<VertSet>, CommError> {
    debug_assert_eq!(contribution.len(), world.p());
    let p = world.p();
    // in_flight[rank] is the piece this rank forwards at the next step:
    // initially a copy of its own contribution, measured here once.
    let measures = measure_all(world, &mut contribution);
    let mut in_flight: Vec<Option<Piece>> = contribution
        .iter()
        .zip(measures)
        .map(|(c, m)| (!c.is_empty()).then(|| (c.clone(), Some(m))))
        .collect();
    // Owned frontiers are disjoint, so every union grows the accumulator
    // by the whole piece and the merge traffic follows from lengths.
    let mut acc_len: Vec<usize> = contribution.iter().map(Vec::len).collect();
    let mut steps = 0;
    let mut failed = None;
    for s in 0..groups.ring_steps() {
        // No message means the predecessor's piece was empty, so the
        // empty piece moves on as `None`.
        let arrived = match ring_step(world, class, groups, s, |_, rank| in_flight[rank].take()) {
            Ok(arrived) => arrived,
            Err(e) => {
                failed = Some(e);
                break;
            }
        };
        let mut merge_bytes = vec![0u64; p];
        for (rank, piece) in arrived.iter().enumerate() {
            if let Some((piece, _)) = piece {
                merge_bytes[rank] = (acc_len[rank] + piece.len()) as u64 * VERT_BYTES;
                acc_len[rank] += piece.len();
            }
        }
        in_flight = arrived;
        world.memcpy_phase(&merge_bytes);
        steps = s + 1;
    }

    // Every rank unions the contributions that reached it, in ring
    // arrival order, on the worker pool; the counters are recorded in
    // rank order afterwards. A failed step still records the unions of
    // the steps before it. The forwarded copies are spent; free them
    // before the accumulators grow.
    drop(in_flight);
    let mut gathered: Vec<VertSet> = contribution
        .iter()
        .map(|own| VertSet::from_sorted(own.clone()))
        .collect();
    let policy = world.vset_policy();
    let ranks: Vec<usize> = (0..p).collect();
    let unions: Vec<Vec<Union>> = gathered
        .par_iter_mut()
        .zip(&ranks)
        .map_collect(|acc, &rank| {
            let group = groups.group_of(rank);
            (1..=steps.min(group.len() - 1))
                .map(|k| &contribution[group[groups.ring_back(rank, k)]])
                .filter(|piece| !piece.is_empty())
                .map(|piece| Union::run(acc, piece, &policy))
                .collect()
        });
    for (rank, unions) in unions.into_iter().enumerate() {
        for union in unions {
            debug_assert_eq!(union.dups, 0, "owned frontiers are disjoint");
            union.note(world, rank);
        }
    }
    match failed {
        Some(e) => Err(e),
        None => Ok(gathered),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ProcessorGrid;
    use crate::vset::VsetPolicy;

    fn reference(groups: &Groups, contribution: &[Vec<Vert>]) -> Vec<Vec<Vert>> {
        (0..contribution.len())
            .map(|rank| {
                let mut all: Vec<Vert> = groups
                    .group_of(rank)
                    .iter()
                    .flat_map(|&m| contribution[m].iter().copied())
                    .collect();
                all.sort_unstable();
                all.dedup();
                all
            })
            .collect()
    }

    #[test]
    fn every_member_holds_the_group_union() {
        let grid = ProcessorGrid::new(4, 2); // columns of 4
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::cols_of(grid);
        let contribution: Vec<Vec<Vert>> = (0..8u64).map(|r| vec![r * 10, r * 10 + 1]).collect();
        let expect = reference(&groups, &contribution);
        let got = frontier_gather(&mut w, OpClass::Expand, &groups, contribution).unwrap();
        for (rank, set) in got.iter().enumerate() {
            assert_eq!(set.to_vec(), expect[rank], "rank {rank}");
        }
        assert!(w.time() > 0.0);
    }

    #[test]
    fn empty_contributions_send_nothing() {
        // Only rank 0 of a 3-member column has a frontier: the ring
        // moves exactly its piece — two messages, no empty frames.
        let grid = ProcessorGrid::new(3, 1);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::cols_of(grid);
        let contribution = vec![vec![5, 9], Vec::new(), Vec::new()];
        let got = frontier_gather(&mut w, OpClass::Expand, &groups, contribution).unwrap();
        for set in &got {
            assert_eq!(set.to_vec(), vec![5, 9]);
        }
        assert_eq!(w.stats.class(OpClass::Expand).messages, 2);
    }

    #[test]
    fn all_empty_is_free_of_messages() {
        let grid = ProcessorGrid::new(4, 1);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::cols_of(grid);
        let got = frontier_gather(&mut w, OpClass::Expand, &groups, vec![Vec::new(); 4]).unwrap();
        assert!(got.iter().all(VertSet::is_empty));
        assert_eq!(w.stats.class(OpClass::Expand).messages, 0);
    }

    #[test]
    fn singleton_group_no_communication() {
        let grid = ProcessorGrid::new(1, 3); // columns of 1
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::cols_of(grid);
        let got = frontier_gather(
            &mut w,
            OpClass::Expand,
            &groups,
            vec![vec![1], vec![2], vec![3]],
        )
        .unwrap();
        assert_eq!(got[0].to_vec(), vec![1]);
        assert_eq!(got[2].to_vec(), vec![3]);
        assert_eq!(w.time(), 0.0);
        assert_eq!(w.stats.total_received(), 0);
    }

    #[test]
    fn hybrid_policy_matches_list_only_bit_for_bit() {
        // Dense disjoint ranges densify into bitmaps; results and
        // simulated clocks must match the list-only run exactly.
        let grid = ProcessorGrid::new(6, 1);
        let groups = Groups::cols_of(grid);
        let mk = || -> Vec<Vec<Vert>> {
            (0..6u64)
                .map(|r| (r * 500..r * 500 + 480).collect())
                .collect()
        };
        let mut hybrid = SimWorld::bluegene(grid);
        let got_h = frontier_gather(&mut hybrid, OpClass::Expand, &groups, mk()).unwrap();
        let mut listy = SimWorld::bluegene(grid).with_vset_policy(VsetPolicy::list_only());
        let got_l = frontier_gather(&mut listy, OpClass::Expand, &groups, mk()).unwrap();
        assert!(got_h.iter().any(VertSet::is_bitmap));
        assert!(got_l.iter().all(|s| !s.is_bitmap()));
        for (h, l) in got_h.iter().zip(&got_l) {
            assert_eq!(h.to_vec(), l.to_vec());
        }
        assert_eq!(hybrid.time().to_bits(), listy.time().to_bits());
        assert_eq!(hybrid.stats.total_dups_eliminated(), 0);
    }

    #[test]
    fn a_failed_step_records_the_unions_before_it() {
        // A 5-member column whose rank 3 dies at data round 2: steps 0
        // and 1 deliver, so each rank unions two pieces before the
        // gather fails.
        let grid = ProcessorGrid::new(5, 1);
        let groups = Groups::cols_of(grid);
        let plan = crate::FaultPlan::seeded(1).kill_rank_at(3, 2);
        let mut w = SimWorld::bluegene(grid).with_fault_plan(plan);
        let contribution: Vec<Vec<Vert>> = (0..5u64).map(|r| vec![r * 10, r * 10 + 1]).collect();
        let err = frontier_gather(&mut w, OpClass::Expand, &groups, contribution).unwrap_err();
        assert_eq!(err, CommError::RankDead { rank: 3 });
        assert_eq!(w.stats.setops.list_unions, 10);
        assert_eq!(w.stats.setops.bitmap_unions, 0);
        assert_eq!(w.stats.class(OpClass::Expand).messages, 10);
    }

    #[test]
    fn mixed_group_sizes() {
        let grid = ProcessorGrid::new(1, 5);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::new(5, vec![vec![0, 1, 2], vec![3, 4]]);
        let contribution: Vec<Vec<Vert>> = (0..5u64).map(|r| vec![r]).collect();
        let expect = reference(&groups, &contribution);
        let got = frontier_gather(&mut w, OpClass::Expand, &groups, contribution).unwrap();
        for (rank, set) in got.iter().enumerate() {
            assert_eq!(set.to_vec(), expect[rank], "rank {rank}");
        }
    }
}
