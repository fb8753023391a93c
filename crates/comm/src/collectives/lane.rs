//! Lane-masked targeted all-to-all for multi-source BFS waves.
//!
//! The batched executor exchanges [`LaneSet`]s — sorted vertex lists
//! with one lane-mask word per vertex — over the same exchange
//! machinery as every other collective. Each non-empty set travels as
//! **two payloads to the same destination in one round**: first the
//! sorted vertex list (rides the adaptive codec's delta/bitmap frames),
//! then the mask words (arbitrary `u64`s, so the codec's sortedness
//! scan falls back to raw frames — correct under every `WirePolicy`).
//! Inbox entries are sorted by sender and *stable* for multiple
//! payloads from one sender, so the receiver re-pairs the two payloads
//! positionally. Faults, retransmits, α–β–hop charges, and wire-byte
//! accounting all apply unchanged because the payloads are ordinary
//! exchange messages.

use super::{group_sends, Groups};
use crate::error::CommError;
use crate::lane::LaneSet;
use crate::sim::SimWorld;
use crate::stats::OpClass;

/// Per-rank send list: `(destination rank, lane set)`. Destinations
/// must be in the sender's group. Empty sets are skipped entirely (no
/// message, matching [`super::alltoall::alltoallv`]).
pub type LaneSendList = Vec<(usize, LaneSet)>;

/// Execute a lane-masked targeted all-to-all within every group
/// simultaneously. Returns per-rank inboxes of reassembled lane sets in
/// sender order.
pub fn lane_alltoallv(
    world: &mut SimWorld,
    class: OpClass,
    groups: &Groups,
    sends: Vec<LaneSendList>,
) -> Result<Vec<Vec<LaneSet>>, CommError> {
    lane_exchange(world, class, group_sends(groups, sends))
}

/// Execute one round of lane-set point-to-point sends with no group
/// structure — the control-shaped twin of [`lane_alltoallv`], used by
/// the batched path walk whose reply round crosses both rows and
/// columns (candidate owners answer the walked vertex's owner wherever
/// it sits on the grid). Each non-empty set still travels as two
/// payloads (sorted vertex list on the codec frames, mask words raw),
/// and faults, retransmits, and α–β–hop charges apply unchanged.
pub fn lane_exchange(
    world: &mut SimWorld,
    class: OpClass,
    sends: Vec<(usize, usize, LaneSet)>,
) -> Result<Vec<Vec<LaneSet>>, CommError> {
    let mut flat = Vec::new();
    for (from, to, set) in sends {
        if set.is_empty() {
            continue;
        }
        let (verts, masks) = set.into_payloads();
        flat.push((from, to, verts));
        flat.push((from, to, masks));
    }
    let inboxes = world.exchange(class, flat)?;
    Ok(inboxes
        .into_iter()
        .map(|inbox| {
            debug_assert!(
                inbox.len().is_multiple_of(2),
                "lane framing: odd payload count in inbox"
            );
            let mut payloads = inbox.into_iter();
            std::iter::from_fn(|| Some((payloads.next()?, payloads.next()?)))
                .map(|((s0, verts), (s1, masks))| {
                    assert_eq!(
                        s0, s1,
                        "lane framing: vertex and mask payloads from different senders"
                    );
                    LaneSet::from_payloads(verts, masks)
                })
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ProcessorGrid;
    use crate::wire::WirePolicy;

    fn set(pairs: &[(u64, u64)]) -> LaneSet {
        LaneSet::from_pairs(pairs.to_vec())
    }

    #[test]
    fn delivers_lane_sets_within_rows() {
        let grid = ProcessorGrid::new(2, 2);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::rows_of(grid);
        let mut sends: Vec<LaneSendList> = vec![Vec::new(); 4];
        sends[0] = vec![(1, set(&[(10, 0b01), (12, 0b11)]))];
        sends[1] = vec![(0, set(&[(3, 0b10)])), (1, set(&[(7, 0b100)]))];
        sends[3] = vec![(2, LaneSet::new())]; // empty: no message
        let inboxes = lane_alltoallv(&mut w, OpClass::Fold, &groups, sends).unwrap();
        assert_eq!(inboxes[0], vec![set(&[(3, 0b10)])]);
        assert_eq!(
            inboxes[1],
            vec![set(&[(10, 0b01), (12, 0b11)]), set(&[(7, 0b100)])]
        );
        assert!(inboxes[2].is_empty());
        assert!(inboxes[3].is_empty());
    }

    #[test]
    fn survives_every_wire_policy() {
        // The mask payload is unsorted; the codec must fall back to raw
        // frames rather than corrupt it, under every policy.
        for mode in [
            crate::wire::WireMode::Raw,
            crate::wire::WireMode::Auto,
            crate::wire::WireMode::Delta,
            crate::wire::WireMode::Bitmap,
        ] {
            let policy = WirePolicy::with_mode(mode);
            let grid = ProcessorGrid::new(1, 2);
            let mut w = SimWorld::bluegene(grid).with_wire_policy(policy);
            let groups = Groups::rows_of(grid);
            let payload = set(&[(2, u64::MAX), (5, 1), (9, 0x8000_0000_0000_0000)]);
            let sends: Vec<LaneSendList> = vec![vec![(1, payload.clone())], Vec::new()];
            let inboxes = lane_alltoallv(&mut w, OpClass::Expand, &groups, sends).unwrap();
            assert_eq!(inboxes[1], vec![payload.clone()]);
        }
    }
}
