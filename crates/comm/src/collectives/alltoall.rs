//! Direct (targeted) all-to-all exchange within groups.
//!
//! This is the paper's baseline implementation of both expand and fold:
//! every rank sends each peer exactly the vertices that peer needs, in a
//! single message round. Message lengths follow the §3.1 bounds
//! (`(n/P)·γ(·)·(group−1)` in expectation), but every rank pays one
//! software-overhead α per peer, and no en-route duplicate elimination
//! happens.

use super::{group_sends, Groups};
use crate::error::CommError;
use crate::sim::{Inbox, SimWorld};
use crate::stats::OpClass;
use crate::Vert;

/// Per-rank send list: `(destination rank, payload)`. Destinations must
/// be in the sender's group. Empty payloads are skipped (no message).
pub type SendList = Vec<(usize, Vec<Vert>)>;

/// Execute a targeted all-to-all within every group simultaneously.
///
/// `sends[rank]` lists that rank's outgoing messages. Returns per-rank
/// inboxes sorted by sender.
pub fn alltoallv(
    world: &mut SimWorld,
    class: OpClass,
    groups: &Groups,
    sends: Vec<SendList>,
) -> Result<Vec<Inbox>, CommError> {
    let mut flat = group_sends(groups, sends);
    flat.retain(|(_, _, payload)| !payload.is_empty());
    world.exchange(class, flat)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ProcessorGrid;

    #[test]
    fn delivers_within_rows() {
        let grid = ProcessorGrid::new(2, 3);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::rows_of(grid);
        // Rank 0 (row 0) sends to ranks 1 and 2; rank 4 (row 1) to rank 5.
        let mut sends: Vec<SendList> = vec![Vec::new(); 6];
        sends[0] = vec![(1, vec![10]), (2, vec![20, 21])];
        sends[4] = vec![(5, vec![50])];
        let inboxes = alltoallv(&mut w, OpClass::Fold, &groups, sends).unwrap();
        assert_eq!(inboxes[1], vec![(0, vec![10])]);
        assert_eq!(inboxes[2], vec![(0, vec![20, 21])]);
        assert_eq!(inboxes[5], vec![(4, vec![50])]);
        assert_eq!(w.stats.class(OpClass::Fold).received_verts, 4);
    }

    #[test]
    fn empty_payloads_send_nothing() {
        let grid = ProcessorGrid::new(1, 2);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::rows_of(grid);
        let sends: Vec<SendList> = vec![vec![(1, vec![])], Vec::new()];
        let inboxes = alltoallv(&mut w, OpClass::Fold, &groups, sends).unwrap();
        assert!(inboxes[1].is_empty());
        assert_eq!(w.stats.class(OpClass::Fold).messages, 0);
        assert_eq!(w.time(), 0.0);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn cross_group_send_rejected() {
        let grid = ProcessorGrid::new(2, 2);
        let mut w = SimWorld::bluegene(grid);
        let groups = Groups::rows_of(grid);
        // Rank 0 is in row 0; rank 2 is in row 1.
        let mut sends: Vec<SendList> = vec![Vec::new(); 4];
        sends[0] = vec![(2, vec![1])];
        let _ = alltoallv(&mut w, OpClass::Fold, &groups, sends);
    }
}
