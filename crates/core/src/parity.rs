//! XOR parity-group checkpoints for multi-failure recovery.
//!
//! PR 1's resilience mirrored each rank's label deltas to a single buddy
//! `(rank + 1) % p` — one extra copy, so a rank and its buddy dying in
//! the same level lost the history irrecoverably. This module replaces
//! the mirror with **parity groups**: ranks are grouped into blocks of
//! `g` consecutive ranks, and each group maintains one XOR parity shard
//! over its members' append-only encoded delta logs. Any *one* death per
//! group is reconstructed exactly:
//!
//! ```text
//! log(dead) = shard ⊕ log(m₁) ⊕ log(m₂) ⊕ … ⊕ log(m_{g-1})
//! ```
//!
//! where the survivor logs come over the (faulty, retried) control
//! network and the shard comes from the last checkpoint. Storage
//! overhead is `1/g` of the mirrored state instead of a full copy, the
//! classic RAID-5 trade, and a former buddy pair dying together is
//! survivable whenever the two ranks land in different groups — or in
//! the same group through a degraded-mode restart.
//!
//! Logs are XOR-aligned at word 0: the shard's word `i` is the XOR of
//! every member's `i`-th log word, with shorter logs implicitly
//! zero-padded. [`GroupShard::absorb`] appends one encoded delta entry
//! (`[level, count, verts...]`, the exact wire framing of the recovery
//! payload) at the member's current length, so absorbing entries in
//! order makes the member's contribution equal its flattened log —
//! reconstruction then XORs survivor logs back out and truncates to the
//! dead member's recorded length.

use bgl_comm::Vert;

/// The static layout of parity groups over `p` ranks: blocks of `g`
/// consecutive ranks, with the remainder merged into the last group so
/// no group is ever smaller than `g` (a singleton group would have no
/// survivors to reconstruct from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityGroups {
    g: usize,
    p: usize,
    count: usize,
}

impl ParityGroups {
    /// Group `p` ranks into blocks of `group_size` (clamped to ≥ 2)
    /// consecutive ranks. With `p < 2 * group_size` there is a single
    /// group covering every rank.
    pub fn new(group_size: usize, p: usize) -> Self {
        let g = group_size.max(2);
        Self {
            g,
            p,
            count: (p / g).max(1),
        }
    }

    /// The nominal group size `g` (the last group may be larger).
    pub fn group_size(&self) -> usize {
        self.g
    }

    /// Number of groups.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Which group `rank` belongs to.
    pub fn group_of(&self, rank: usize) -> usize {
        (rank / self.g).min(self.count - 1)
    }

    /// The ranks of `group`, as a contiguous range.
    pub fn members(&self, group: usize) -> std::ops::Range<usize> {
        let start = group * self.g;
        let end = if group + 1 == self.count {
            self.p
        } else {
            start + self.g
        };
        start..end
    }

    /// `rank`'s index within its group (the member slot its log occupies
    /// in the group's [`GroupShard`]).
    pub fn member_index(&self, rank: usize) -> usize {
        rank - self.members(self.group_of(rank)).start
    }

    /// The other members of `rank`'s group, in rank order.
    pub fn peers(&self, rank: usize) -> impl Iterator<Item = usize> + '_ {
        self.members(self.group_of(rank))
            .filter(move |&r| r != rank)
    }
}

/// One group's XOR parity shard: the running XOR of its members'
/// append-only encoded delta logs (zero-padded to the longest), plus
/// each member's current log length in words.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GroupShard {
    words: Vec<Vert>,
    member_lens: Vec<usize>,
}

impl GroupShard {
    /// An empty shard for a group of `members` ranks.
    pub fn new(members: usize) -> Self {
        Self {
            words: Vec::new(),
            member_lens: vec![0; members],
        }
    }

    /// XOR one encoded delta entry (`[level, count, verts...]`) into
    /// `member`'s log at its current append position. Entries absorbed
    /// in order make the member's total contribution equal its
    /// flattened log, i.e. `encode_deltas` of its delta history.
    pub fn absorb(&mut self, member: usize, entry: &[Vert]) {
        let at = self.member_lens[member];
        let end = at + entry.len();
        if self.words.len() < end {
            self.words.resize(end, 0);
        }
        for (w, &e) in self.words[at..end].iter_mut().zip(entry) {
            *w ^= e;
        }
        self.member_lens[member] = end;
    }

    /// The raw parity words (what a checkpoint persists and recovery
    /// ships to the revived rank).
    pub fn words(&self) -> &[Vert] {
        &self.words
    }

    /// Reconstruct `member`'s full encoded log from this shard plus
    /// every *other* member's log (`survivors` maps member index →
    /// encoded log). Panics if a survivor log's length disagrees with
    /// the length this shard recorded for it — that would mean the
    /// survivor's history and the shard are from different checkpoints.
    pub fn reconstruct(&self, member: usize, survivors: &[(usize, &[Vert])]) -> Vec<Vert> {
        let mut out = self.words.clone();
        let mut seen = 1usize; // the dead member itself
        for &(m, log) in survivors {
            assert_ne!(m, member, "the dead member cannot survive itself");
            assert_eq!(
                log.len(),
                self.member_lens[m],
                "survivor {m}'s log length disagrees with the shard"
            );
            for (w, &e) in out.iter_mut().zip(log) {
                *w ^= e;
            }
            seen += 1;
        }
        assert_eq!(
            seen,
            self.member_lens.len(),
            "reconstruction needs every surviving member's log"
        );
        out.truncate(self.member_lens[member]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_cover_all_ranks_without_singletons() {
        for p in 2..40 {
            for g in 2..8 {
                let pg = ParityGroups::new(g, p);
                let mut covered = vec![false; p];
                for group in 0..pg.count() {
                    let m = pg.members(group);
                    assert!(
                        m.len() >= 2.min(p),
                        "group {group} too small for p={p} g={g}"
                    );
                    for r in m {
                        assert!(!covered[r], "rank {r} in two groups");
                        covered[r] = true;
                        assert_eq!(pg.group_of(r), group);
                    }
                }
                assert!(
                    covered.iter().all(|&c| c),
                    "p={p} g={g} leaves ranks uncovered"
                );
            }
        }
    }

    #[test]
    fn last_group_absorbs_remainder() {
        let pg = ParityGroups::new(3, 8);
        assert_eq!(pg.count(), 2);
        assert_eq!(pg.members(0), 0..3);
        assert_eq!(pg.members(1), 3..8);
        assert_eq!(pg.group_of(7), 1);
        assert_eq!(pg.member_index(5), 2);
        assert_eq!(pg.peers(4).collect::<Vec<_>>(), vec![3, 5, 6, 7]);
    }

    #[test]
    fn shard_reconstructs_any_single_member() {
        // Three members with logs of different lengths, absorbed as
        // interleaved entries (the order groups see them level by level).
        let logs: [Vec<Vert>; 3] = [
            vec![0, 1, 7, 1, 2, 99],
            vec![0, 2, 8, 9],
            vec![1, 3, 10, 11, 12, 2, 1, 13],
        ];
        let mut shard = GroupShard::new(3);
        // Absorb in entry-sized chunks, interleaved across members.
        shard.absorb(0, &logs[0][..3]);
        shard.absorb(1, &logs[1][..]);
        shard.absorb(2, &logs[2][..5]);
        shard.absorb(0, &logs[0][3..]);
        shard.absorb(2, &logs[2][5..]);
        for dead in 0..3 {
            let survivors: Vec<(usize, &[Vert])> = (0..3)
                .filter(|&m| m != dead)
                .map(|m| (m, logs[m].as_slice()))
                .collect();
            assert_eq!(
                shard.reconstruct(dead, &survivors),
                logs[dead],
                "member {dead}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "disagrees with the shard")]
    fn stale_survivor_log_is_rejected() {
        let mut shard = GroupShard::new(2);
        shard.absorb(0, &[0, 1, 5]);
        shard.absorb(1, &[0, 1, 6]);
        // Survivor 1 offers a log longer than the shard recorded.
        let long: Vec<Vert> = vec![0, 1, 6, 1, 1, 7];
        shard.reconstruct(0, &[(1, long.as_slice())]);
    }
}
