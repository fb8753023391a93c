//! Ring reduce-scatter with set-union reduction.
//!
//! The paper (§2.2): "An alternative is to implement the fold operation
//! as a reduce-scatter operation. In this case, each processor receives
//! N̄ directly ... The reduction operation ... is a set-union and
//! eliminates all the duplicate vertices."
//!
//! Implementation: the classic ring reduce-scatter. Each member starts
//! with `g` blocks — block `j` holds the vertices it wants delivered to
//! the group member at position `j`. At step `s` (of `g−1`), the member
//! at position `i` sends its current copy of block `(i − s − 1) mod g` to
//! its ring successor, which unions the incoming block into its own copy
//! (counting the duplicates the union eliminates). After `g−1` steps the
//! member at position `i` holds the fully reduced block `i`.
//!
//! Unions cost real work: the simulator is charged memcpy time for the
//! merge traffic, reflecting the paper's note that "the proposed union
//! operation requires copying of received messages incurring additional
//! overhead". Accumulators are hybrid [`VertSet`]s: once a block crosses
//! the world's [`crate::vset::VsetPolicy`] density threshold it unions
//! as a bitmap in `O(span/64)` word ORs. All modelled time charges are
//! functions of set *cardinalities*, which are representation-invariant,
//! so the clocks are bit-identical to the sorted-list implementation.

use super::{record_unions, ring_step, Groups, UnionTally};
use crate::error::CommError;
use crate::setops;
use crate::sim::SimWorld;
use crate::stats::OpClass;
use crate::vset::VertSet;
use crate::Vert;

/// Run a union reduce-scatter in every group simultaneously.
///
/// `blocks[rank][j]` is the **normalized** (sorted, deduplicated) set of
/// vertices rank wants delivered to the member at position `j` of its own
/// group; `blocks[rank].len()` must equal the rank's group size. Returns,
/// for every rank, the unioned set destined to it.
pub fn reduce_scatter_union_ring(
    world: &mut SimWorld,
    class: OpClass,
    groups: &Groups,
    blocks: Vec<Vec<Vec<Vert>>>,
) -> Result<Vec<VertSet>, CommError> {
    debug_assert_eq!(blocks.len(), world.p());
    for (rank, own) in blocks.iter().enumerate() {
        debug_assert_eq!(
            own.len(),
            groups.group_of(rank).len(),
            "rank {rank} must provide one block per group member"
        );
        debug_assert!(
            own.iter().all(|b| setops::is_normalized(b)),
            "blocks must be normalized sets"
        );
    }

    let mut blocks: Vec<Vec<VertSet>> = blocks
        .into_iter()
        .map(|bs| bs.into_iter().map(VertSet::from_sorted).collect())
        .collect();
    let policy = world.vset_policy();
    for s in 0..groups.ring_steps() {
        // The member at position i sends block (i − s − 1) mod g; its
        // successor unions it into its own copy of that block.
        let pieces = ring_step(world, class, groups, s, |rank| {
            let set = std::mem::take(&mut blocks[rank][groups.ring_back(rank, s + 1)]);
            Some((set.into_vec(), None))
        })?;
        let mut tallies = vec![UnionTally::default(); world.p()];
        for (rank, piece) in pieces.into_iter().enumerate() {
            if let Some((piece, _)) = piece {
                let own = &mut blocks[rank][groups.ring_back(rank, s + 2)];
                tallies[rank].union(own, &piece, &policy);
            }
        }
        record_unions(world, tallies);
    }

    // Member at position i now holds fully reduced block i.
    Ok(blocks
        .iter_mut()
        .enumerate()
        .map(|(rank, own)| std::mem::take(&mut own[groups.locate(rank).1]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ProcessorGrid;
    use crate::vset::VsetPolicy;

    /// Reference: direct union of everyone's block for each destination.
    fn reference(groups: &Groups, blocks: &[Vec<Vec<Vert>>]) -> Vec<Vec<Vert>> {
        (0..blocks.len())
            .map(|rank| {
                let (gi, pos) = groups.locate(rank);
                let g = &groups.groups()[gi];
                let sets: Vec<Vec<Vert>> = g.iter().map(|&m| blocks[m][pos].clone()).collect();
                setops::union_many(&sets).0
            })
            .collect()
    }

    fn run(grid: ProcessorGrid, groups: &Groups, blocks: Vec<Vec<Vec<Vert>>>) {
        let mut w = SimWorld::bluegene(grid);
        let expect = reference(groups, &blocks);
        let got = reduce_scatter_union_ring(&mut w, OpClass::Fold, groups, blocks).unwrap();
        let got: Vec<Vec<Vert>> = got.into_iter().map(VertSet::into_vec).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn matches_reference_small() {
        let grid = ProcessorGrid::new(1, 3);
        let groups = Groups::rows_of(grid);
        // blocks[rank][dest_pos]
        let blocks = vec![
            vec![vec![0, 1], vec![10, 11], vec![20]],
            vec![vec![1, 2], vec![11], vec![]],
            vec![vec![0, 2], vec![12], vec![20, 21]],
        ];
        run(grid, &groups, blocks);
    }

    #[test]
    fn matches_reference_various_sizes() {
        for c in [1usize, 2, 3, 4, 5, 7, 8] {
            let grid = ProcessorGrid::new(1, c);
            let groups = Groups::rows_of(grid);
            // Deterministic pseudo-data: rank r sends {r, r+dest, 100+dest}.
            let blocks: Vec<Vec<Vec<Vert>>> = (0..c)
                .map(|r| {
                    (0..c)
                        .map(|d| {
                            let mut v = vec![r as Vert, (r + d) as Vert, 100 + d as Vert];
                            crate::setops::normalize(&mut v);
                            v
                        })
                        .collect()
                })
                .collect();
            run(grid, &groups, blocks);
        }
    }

    #[test]
    fn counts_eliminated_duplicates() {
        let grid = ProcessorGrid::new(1, 3);
        let groups = Groups::rows_of(grid);
        let mut w = SimWorld::bluegene(grid);
        // Everyone sends {42} to destination position 0: two duplicates
        // are eliminated along the way (union of three singletons).
        let blocks = vec![
            vec![vec![42], vec![], vec![]],
            vec![vec![42], vec![], vec![]],
            vec![vec![42], vec![], vec![]],
        ];
        let got = reduce_scatter_union_ring(&mut w, OpClass::Fold, &groups, blocks).unwrap();
        assert_eq!(got[0].to_vec(), vec![42]);
        assert_eq!(w.stats.total_dups_eliminated(), 2);
    }

    #[test]
    fn union_reduces_wire_volume_vs_alltoall() {
        // With heavy duplication, the ring's en-route union moves fewer
        // vertices than a direct all-to-all would (3 senders x 100 verts
        // each to one dest = 200 on the wire for a2a from non-owners;
        // ring caps each hop at 100).
        let grid = ProcessorGrid::new(1, 4);
        let groups = Groups::rows_of(grid);
        let mut w = SimWorld::bluegene(grid);
        let common: Vec<Vert> = (0..100).collect();
        let blocks: Vec<Vec<Vec<Vert>>> = (0..4)
            .map(|_| vec![common.clone(), vec![], vec![], vec![]])
            .collect();
        reduce_scatter_union_ring(&mut w, OpClass::Fold, &groups, blocks).unwrap();
        // Each of the 3 ring steps moves at most 100 verts into the next
        // holder for block 0 (plus zero-size blocks skipped as empty...
        // empty payloads still sent: ring always forwards). Upper bound:
        let wire = w.stats.class(OpClass::Fold).wire_verts;
        assert!(wire <= 3 * 100, "wire={wire}");
        assert_eq!(w.stats.total_dups_eliminated(), 300);
    }

    #[test]
    fn singleton_groups_are_identity() {
        let grid = ProcessorGrid::new(2, 1); // rows of 1 member each
        let groups = Groups::rows_of(grid);
        let mut w = SimWorld::bluegene(grid);
        let blocks = vec![vec![vec![1, 2, 3]], vec![vec![4]]];
        let got = reduce_scatter_union_ring(&mut w, OpClass::Fold, &groups, blocks).unwrap();
        let got: Vec<Vec<Vert>> = got.into_iter().map(VertSet::into_vec).collect();
        assert_eq!(got, vec![vec![1, 2, 3], vec![4]]);
        assert_eq!(w.time(), 0.0);
    }

    #[test]
    fn hybrid_policy_matches_list_only_bit_for_bit() {
        // A/B determinism: dense blocks densify to bitmaps under the
        // hybrid policy, yet results, duplicate counts, and simulated
        // clocks stay bit-identical to the list-only run.
        let grid = ProcessorGrid::new(1, 6);
        let groups = Groups::rows_of(grid);
        let mk_blocks = || -> Vec<Vec<Vec<Vert>>> {
            (0..6)
                .map(|r| {
                    (0..6)
                        .map(|d| {
                            // Dense overlapping ranges: ripe for bitmaps.
                            ((r * 40) as Vert..(r * 40 + 400 + d as u64)).collect()
                        })
                        .collect()
                })
                .collect()
        };
        let mut hybrid = SimWorld::bluegene(grid);
        let got_h =
            reduce_scatter_union_ring(&mut hybrid, OpClass::Fold, &groups, mk_blocks()).unwrap();
        let mut listy = SimWorld::bluegene(grid).with_vset_policy(VsetPolicy::list_only());
        let got_l =
            reduce_scatter_union_ring(&mut listy, OpClass::Fold, &groups, mk_blocks()).unwrap();
        assert!(
            hybrid.stats.setops.bitmap_unions > 0,
            "dense blocks must actually exercise the bitmap path"
        );
        assert_eq!(listy.stats.setops.bitmap_unions, 0);
        assert!(got_h.iter().any(VertSet::is_bitmap));
        for (h, l) in got_h.iter().zip(&got_l) {
            assert_eq!(h.to_vec(), l.to_vec());
        }
        assert_eq!(hybrid.time().to_bits(), listy.time().to_bits());
        assert_eq!(
            hybrid.memcpy_time().to_bits(),
            listy.memcpy_time().to_bits()
        );
        assert_eq!(
            hybrid.stats.total_dups_eliminated(),
            listy.stats.total_dups_eliminated()
        );
    }
}
