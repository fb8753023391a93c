//! Ring all-gather within groups.
//!
//! Every member contributes one payload; afterwards every member holds
//! every contribution. This is the unoptimized expand ("all-gather
//! collective communication ... equivalent to the case where all vertices
//! are on the frontier", §2.2): simple, torus-friendly (neighbour-only
//! traffic), but its received volume grows with the group size, which is
//! exactly the non-scalability the paper's targeted expand avoids.
//!
//! Implementation: the classic `g−1`-step ring. At each step every member
//! forwards to its ring successor the piece it received in the previous
//! step (initially its own contribution). The originator of a received
//! piece is inferred from the step number — at step `s`, the piece
//! arriving at position `i` originated at position `(i − 1 − s) mod g` —
//! so no header words pollute the vertex accounting. All groups step in
//! lockstep, so a world-wide step is one message round.
//!
//! A piece travels unchanged, so it is measured once at its origin and
//! moved, with that measure, from hop to hop; a receiver keeps a copy
//! for its result, except at the last hop of its ring, where it keeps
//! the piece itself.

use super::{measure_all, ring_step, Groups, Piece};
use crate::error::CommError;
use crate::sim::{Inbox, SimWorld};
use crate::stats::OpClass;
use crate::wire;
use crate::Vert;

/// Run a ring all-gather in every group simultaneously.
///
/// `contribution[rank]` is what each rank offers. Returns, for every
/// rank, the list `(source rank, payload)` covering the rank's whole
/// group (including itself), sorted by source rank.
pub fn allgather_ring(
    world: &mut SimWorld,
    class: OpClass,
    groups: &Groups,
    mut contribution: Vec<Vec<Vert>>,
) -> Result<Vec<Inbox>, CommError> {
    debug_assert_eq!(contribution.len(), world.p());
    // gathered[rank] accumulates (source, payload); in_flight[rank] is
    // the piece this rank forwards at the next step, with the measure
    // taken once at its origin.
    let measures = measure_all(world, &mut contribution, |c, policy| {
        wire::measure(c, policy)
    });
    let mut gathered: Vec<Inbox> = contribution
        .iter()
        .enumerate()
        .map(|(rank, c)| vec![(rank, c.clone())])
        .collect();
    let mut in_flight: Vec<Option<Piece>> = contribution
        .into_iter()
        .zip(measures)
        .map(|(c, m)| Some((c, Some(m))))
        .collect();
    for s in 0..groups.ring_steps() {
        let arrived = ring_step(world, class, groups, s, |_, rank| in_flight[rank].take())?;
        for (rank, piece) in arrived.into_iter().enumerate() {
            let Some((piece, measure)) = piece else {
                continue;
            };
            let group = groups.group_of(rank);
            let origin = group[groups.ring_back(rank, s + 1)];
            // The last hop of a group's ring keeps the piece it received.
            if s + 2 < group.len() {
                gathered[rank].push((origin, piece.clone()));
                in_flight[rank] = Some((piece, measure));
            } else {
                gathered[rank].push((origin, piece));
            }
        }
    }

    for g in gathered.iter_mut() {
        g.sort_by_key(|(src, _)| *src);
    }
    Ok(gathered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ProcessorGrid;

    #[test]
    fn everyone_gets_everything() {
        let grid = ProcessorGrid::new(4, 2); // columns of 4
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::cols_of(grid);
        let contribution: Vec<Vec<Vert>> = (0..8).map(|r| vec![r as Vert * 100]).collect();
        let out = allgather_ring(&mut w, OpClass::Expand, &groups, contribution).unwrap();
        for (rank, inbox) in out.iter().enumerate() {
            let group = groups.group_of(rank);
            assert_eq!(inbox.len(), group.len());
            for &(src, ref payload) in inbox {
                assert!(group.contains(&src));
                assert_eq!(payload, &vec![src as Vert * 100], "rank {rank} src {src}");
            }
        }
    }

    #[test]
    fn mixed_group_sizes() {
        // Rows of a 2x3 grid have 3 members; also exercise a world group
        // partitioned as {0..3} and {3..6}? Instead: columns of 3x2 grid
        // (size 3) run alongside nothing smaller; use explicit groups of
        // different sizes.
        let grid = ProcessorGrid::new(1, 5);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::new(5, vec![vec![0, 1, 2], vec![3, 4]]);
        let contribution: Vec<Vec<Vert>> = (0..5).map(|r| vec![r as Vert]).collect();
        let out = allgather_ring(&mut w, OpClass::Expand, &groups, contribution).unwrap();
        assert_eq!(out[0], vec![(0, vec![0]), (1, vec![1]), (2, vec![2])]);
        assert_eq!(out[4], vec![(3, vec![3]), (4, vec![4])]);
    }

    #[test]
    fn singleton_group_no_communication() {
        let grid = ProcessorGrid::new(1, 3); // columns of 1
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::cols_of(grid);
        let out = allgather_ring(
            &mut w,
            OpClass::Expand,
            &groups,
            vec![vec![1], vec![2], vec![3]],
        )
        .unwrap();
        assert_eq!(out[0], vec![(0, vec![1])]);
        assert_eq!(w.time(), 0.0);
        assert_eq!(w.stats.total_received(), 0);
    }

    #[test]
    fn received_volume_scales_with_group_size() {
        // Each rank contributes 10 vertices; in a group of g, each rank
        // receives g-1 pieces of 10 vertices.
        let grid = ProcessorGrid::new(4, 1);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::cols_of(grid);
        let contribution = vec![vec![0; 10]; 4];
        allgather_ring(&mut w, OpClass::Expand, &groups, contribution).unwrap();
        for &r in &w.stats.received_per_rank {
            assert_eq!(r, 30);
        }
    }

    #[test]
    fn ring_takes_g_minus_1_rounds_of_messages() {
        let grid = ProcessorGrid::new(5, 1);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::cols_of(grid);
        allgather_ring(&mut w, OpClass::Expand, &groups, vec![vec![7]; 5]).unwrap();
        // 4 rounds x 5 members = 20 wire messages.
        assert_eq!(w.stats.class(OpClass::Expand).messages, 20);
    }
}
