//! Property-based equivalence of every collective against its direct
//! reference semantics, over random group partitions and payloads.

use bgl_comm::collectives::{
    allgather::allgather_ring,
    alltoall::alltoallv,
    reduce_scatter::reduce_scatter_union_ring,
    two_phase::{two_phase_expand, two_phase_fold},
    Groups,
};
use bgl_comm::{setops, OpClass, ProcessorGrid, SimWorld, Vert, VertSet};
use proptest::prelude::*;

/// A random partition of `0..p` into contiguous groups.
fn groups_strategy(p: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(1usize..=p, 1..=p).prop_map(move |cuts| {
        let mut groups = Vec::new();
        let mut start = 0usize;
        for c in cuts {
            if start >= p {
                break;
            }
            let end = (start + c).min(p);
            groups.push((start..end).collect::<Vec<_>>());
            start = end;
        }
        if start < p {
            groups.push((start..p).collect());
        }
        groups
    })
}

/// Random normalized vertex sets, one per (member, destination) pair.
fn blocks_for(groups: &[Vec<usize>], p: usize, seed: u64) -> Vec<Vec<Vec<Vert>>> {
    let member_group: Vec<usize> = {
        let mut mg = vec![0; p];
        for (gi, g) in groups.iter().enumerate() {
            for &r in g {
                mg[r] = gi;
            }
        }
        mg
    };
    (0..p)
        .map(|rank| {
            let g = &groups[member_group[rank]];
            (0..g.len())
                .map(|d| {
                    let mut v: Vec<Vert> = (0..(seed % 7 + 1))
                        .map(|i| (rank as u64 * 13 + d as u64 * 5 + i * 3 + seed) % 50)
                        .collect();
                    setops::normalize(&mut v);
                    v
                })
                .collect()
        })
        .collect()
}

fn fold_reference(groups: &Groups, blocks: &[Vec<Vec<Vert>>]) -> Vec<Vec<Vert>> {
    (0..blocks.len())
        .map(|rank| {
            let (gi, pos) = groups.locate(rank);
            let g = &groups.groups()[gi];
            let sets: Vec<Vec<Vert>> = g.iter().map(|&m| blocks[m][pos].clone()).collect();
            setops::union_many(&sets).0
        })
        .collect()
}

/// Both union folds reproduce the direct union and conserve vertices:
/// every input vertex is either delivered or counted as a duplicate.
fn check_union_folds(groups: &Groups, seed: u64) {
    let p = groups.ranks();
    let blocks = blocks_for(groups.groups(), p, seed);
    let expect = fold_reference(groups, &blocks);
    let sent: usize = blocks.iter().flatten().map(Vec::len).sum();
    let delivered: usize = expect.iter().map(Vec::len).sum();

    let grid = ProcessorGrid::one_d(p);
    let mut w1 = SimWorld::bluegene(grid);
    let ring = reduce_scatter_union_ring(&mut w1, OpClass::Fold, groups, blocks.clone()).unwrap();
    let ring: Vec<Vec<Vert>> = ring.into_iter().map(VertSet::into_vec).collect();
    prop_assert_eq!(&ring, &expect);
    prop_assert_eq!(w1.stats.total_dups_eliminated() as usize, sent - delivered);

    let mut w2 = SimWorld::bluegene(grid);
    let two = two_phase_fold(&mut w2, OpClass::Fold, groups, blocks).unwrap();
    let two: Vec<Vec<Vert>> = two.into_iter().map(VertSet::into_vec).collect();
    prop_assert_eq!(&two, &expect);
    prop_assert_eq!(w2.stats.total_dups_eliminated() as usize, sent - delivered);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn union_fold_strategies_match_reference(
        (p, groups_vec) in (1usize..14).prop_flat_map(|p| (Just(p), groups_strategy(p))),
        seed in any::<u64>(),
    ) {
        check_union_folds(&Groups::new(p, groups_vec), seed);
    }

    #[test]
    fn union_fold_strategies_match_reference_on_strided_columns(
        rows in 1usize..6,
        cols in 1usize..5,
        seed in any::<u64>(),
    ) {
        check_union_folds(&Groups::cols_of(ProcessorGrid::new(rows, cols)), seed);
    }

    #[test]
    fn expand_strategies_deliver_everything(
        p in 1usize..14,
        seed in any::<u64>(),
    ) {
        let groups_vec = {
            let mut v = Vec::new();
            let mut start = 0usize;
            let mut size = (seed % 3 + 1) as usize;
            while start < p {
                let end = (start + size).min(p);
                v.push((start..end).collect::<Vec<_>>());
                start = end;
                size = size % 4 + 2;
            }
            v
        };
        let groups = Groups::new(p, groups_vec);
        let contribution: Vec<Vec<Vert>> = (0..p)
            .map(|r| (0..(r as u64 % 4)).map(|i| r as u64 * 10 + i).collect())
            .collect();

        let grid = ProcessorGrid::one_d(p);
        let mut w1 = SimWorld::bluegene(grid);
        let ring = allgather_ring(&mut w1, OpClass::Expand, &groups, contribution.clone()).unwrap();
        let mut w2 = SimWorld::bluegene(grid);
        let two =
            two_phase_expand(&mut w2, OpClass::Expand, &groups, contribution.clone()).unwrap();

        for rank in 0..p {
            let group = groups.group_of(rank);
            // Both must hold exactly one entry per group member, equal to
            // that member's contribution.
            prop_assert_eq!(ring[rank].len(), group.len());
            prop_assert_eq!(two[rank].len(), group.len());
            for &(src, ref payload) in &ring[rank] {
                prop_assert_eq!(payload, &contribution[src]);
            }
            for &(src, ref payload) in &two[rank] {
                prop_assert_eq!(payload, &contribution[src]);
            }
        }
    }

    #[test]
    fn alltoallv_routes_exactly(
        p in 2usize..12,
        seed in any::<u64>(),
    ) {
        let groups = Groups::world(p);
        let grid = ProcessorGrid::one_d(p);
        let mut w = SimWorld::bluegene(grid);
        // Every rank sends a tagged payload to (rank + offset) % p.
        let offset = (seed as usize % (p - 1)) + 1;
        let sends: Vec<Vec<(usize, Vec<Vert>)>> = (0..p)
            .map(|r| vec![((r + offset) % p, vec![r as Vert + 1000])])
            .collect();
        let inboxes = alltoallv(&mut w, OpClass::Fold, &groups, sends).unwrap();
        for (rank, inbox) in inboxes.iter().enumerate() {
            let src = (rank + p - offset) % p;
            prop_assert_eq!(inbox.clone(), vec![(src, vec![src as Vert + 1000])]);
        }
    }

    #[test]
    fn setops_union_is_correct_set_union(
        mut a in prop::collection::vec(0u64..100, 0..30),
        mut b in prop::collection::vec(0u64..100, 0..30),
    ) {
        setops::normalize(&mut a);
        setops::normalize(&mut b);
        let (u, dups) = setops::union(&a, &b);
        let mut expect: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let total = expect.len();
        setops::normalize(&mut expect);
        prop_assert_eq!(&u, &expect);
        prop_assert_eq!(dups, total - expect.len());
        prop_assert!(setops::is_normalized(&u));
    }
}
