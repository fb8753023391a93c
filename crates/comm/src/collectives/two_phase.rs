//! The §3.2.2 two-phase grouped-ring collectives ("union-fold" and the
//! matching expand), the paper's BlueGene/L-specific optimization.
//!
//! A group of `g` processors is arranged as an `m × n` subgrid
//! (`m·n = g`, position `pos` ↦ `(pos / n, pos % n)`), shortening the
//! communication from one `g`-ring into rows/columns of the subgrid —
//! "the idea is to divide the processors in the ring into several groups
//! and perform the ring communication within each group in parallel".
//! Both operations finish in `O(m + n)` ring steps.
//!
//! **Fold** (paper Figure 2): phase 1 circulates, within each subgrid
//! row, one *bundle per target subgrid-column*; every holder unions its
//! own contributions into the bundle ("when a process adds its vertices
//! to a received message, it only adds those that are not already in the
//! message"), eliminating duplicates en route. Phase 2 scatters each
//! bundle's per-destination sets down the target column with direct
//! point-to-point sends, and destinations union the `m` arriving sets.
//!
//! **Expand** (paper Figure 3): phase 1 exchanges frontier contributions
//! within each subgrid *column* (all-to-all, one round); phase 2
//! circulates the resulting column-bundles around each subgrid row ring
//! so every member ends with every contribution. That ring is
//! [`allgather_ring`] over the subgrid rows.
//!
//! Both collectives build the subgrid rows once per call, as a
//! [`Groups`] partition of the world, and run their rings over it.
//!
//! Wire accounting: a bundle is charged as one message whose payload is
//! the concatenation of its sets, but the simulator never builds it. The
//! bundle moves out of band from the receiver's ring predecessor, and
//! only its wire measure rides the exchange, taken where the sets sit
//! (on the worker pool under a codec). The per-set boundaries (≤ `m`
//! small header words in a real implementation) are excluded from
//! vertex-volume statistics. Every union (the seeding, the per-hop
//! folding-in and the final per-destination unions) runs on the worker
//! pool and is recorded into the world afterwards, in rank order.

use super::allgather::allgather_ring;
use super::{into_payloads, measure_all, record_unions, ring_step, Groups, UnionTally};
use crate::error::CommError;
use crate::setops;
use crate::sim::{Inbox, SimWorld};
use crate::stats::OpClass;
use crate::topology::ProcessorGrid;
use crate::vset::{VertSet, VsetPolicy};
use crate::wire::{self, WireMeasure, WirePolicy};
use crate::Vert;
use rayon::prelude::*;

/// The subgrid rows of every group, as one partition of the world: the
/// rings both phases run. Member `pos` of an `m × n` group sits at row
/// `pos / n`, column `pos % n`.
fn subgrid_rows(groups: &Groups) -> Groups {
    let rows = groups
        .groups()
        .iter()
        .flat_map(|g| g.chunks(ProcessorGrid::subgrid_factor(g.len()).1))
        .map(<[usize]>::to_vec)
        .collect();
    Groups::new(groups.ranks(), rows)
}

/// The members of `rank`'s subgrid column, top row first.
fn column<'a>(groups: &'a Groups, rows: &Groups, rank: usize) -> impl Iterator<Item = usize> + 'a {
    let n = rows.group_of(rank).len();
    groups.group_of(rank)[rows.locate(rank).1..]
        .iter()
        .step_by(n)
        .copied()
}

/// A fold bundle in flight: per-destination sets for the members of one
/// target subgrid column, top row first, held as hybrid [`VertSet`]s so
/// dense bundles union word-wise.
#[derive(Debug, Default)]
struct FoldBundle {
    sets: Vec<VertSet>,
}

impl FoldBundle {
    /// The wire measure of the bundle's message, the concatenation of
    /// its sets in order, taken where the sets sit.
    fn measure(&self, policy: &WirePolicy) -> WireMeasure {
        let count = self.sets.iter().map(VertSet::len).sum();
        wire::measure_iter(count, self.sets.iter().flat_map(VertSet::iter), policy)
    }

    /// Union the holder's own blocks for the bundle's target column
    /// (`own`, top row first) into the bundle.
    fn seed<'a>(
        &mut self,
        own: impl Iterator<Item = &'a Vec<Vert>>,
        policy: &VsetPolicy,
    ) -> UnionTally {
        let mut tally = UnionTally::default();
        for (set, own) in self.sets.iter_mut().zip(own) {
            if !own.is_empty() {
                tally.union(set, own, policy);
            }
        }
        tally
    }
}

/// Run the two-phase union-fold in every group simultaneously.
///
/// `blocks[rank][j]` is the normalized set of vertices `rank` wants
/// delivered to the member at position `j` of its group. Returns the
/// unioned set destined to each rank.
pub fn two_phase_fold(
    world: &mut SimWorld,
    class: OpClass,
    groups: &Groups,
    blocks: Vec<Vec<Vec<Vert>>>,
) -> Result<Vec<VertSet>, CommError> {
    debug_assert_eq!(blocks.len(), world.p());
    let p = world.p();
    for (rank, own) in blocks.iter().enumerate() {
        debug_assert_eq!(own.len(), groups.group_of(rank).len());
        debug_assert!(own.iter().all(|b| setops::is_normalized(b)));
    }
    let rows = subgrid_rows(groups);
    let policy = world.vset_policy();
    // rank's own blocks for the members of subgrid column `tc`.
    let own = |rank: usize, tc: usize| blocks[rank][tc..].iter().step_by(rows.group_of(rank).len());
    // Union every holder's own blocks into its bundle, where
    // `targets[rank]` is `(rank, target column)` (`None`: nothing to
    // union). The unions run on the worker pool and are recorded
    // afterwards in rank order.
    let seed_all =
        |world: &mut SimWorld, held: &mut [FoldBundle], targets: Vec<Option<(usize, usize)>>| {
            let tallies = held
                .par_iter_mut()
                .zip(&targets)
                .map_collect(|bundle, target| match *target {
                    Some((rank, tc)) => bundle.seed(own(rank, tc), &policy),
                    None => UnionTally::default(),
                });
            record_unions(world, tallies);
        };

    // ---- Phase 1: row-wise rings, one bundle per target column. ----
    // Member at subgrid (sr, c) initially holds the bundle for target
    // column (c - 1) mod n, seeded with its own contributions; each
    // holder's contributions are folded in upon arrival.
    let mut held: Vec<FoldBundle> = (0..p)
        .map(|rank| FoldBundle {
            sets: vec![VertSet::new(); groups.group_of(rank).len() / rows.group_of(rank).len()],
        })
        .collect();
    let targets = (0..p).map(|rank| Some((rank, rows.ring_back(rank, 1))));
    seed_all(world, &mut held, targets.collect());

    for s in 0..rows.ring_steps() {
        // A bundle moves out of band from the receiver's ring
        // predecessor; only its measure, taken where it sits, rides the
        // exchange. The bundle arriving at step s targets column
        // (c - 2 - s) mod n.
        let measures = measure_all(world, &mut held, FoldBundle::measure);
        let arrived = ring_step(world, class, &rows, s, |rank| {
            Some((Vec::new(), Some(measures[rank])))
        })?;
        let mut sent = std::mem::take(&mut held);
        let mut targets = Vec::with_capacity(p);
        for (rank, piece) in arrived.iter().enumerate() {
            let from = match piece {
                Some(_) => rows.group_of(rank)[rows.ring_back(rank, 1)],
                None => rank,
            };
            held.push(std::mem::take(&mut sent[from]));
            targets.push(piece.as_ref().map(|_| (rank, rows.ring_back(rank, s + 2))));
        }
        seed_all(world, &mut held, targets);
    }

    // Every member (sr, c) now holds the bundle for its own column c.
    // ---- Phase 2: point-to-point scatter down each target column. ----
    // The payloads are built on the pool, in send order.
    let (mut routes, mut sets) = (Vec::new(), Vec::new());
    let mut keep: Vec<VertSet> = vec![VertSet::new(); p];
    for &rank in groups.groups().iter().flatten() {
        let bundle = std::mem::take(&mut held[rank]);
        for (dst, set) in column(groups, &rows, rank).zip(bundle.sets) {
            if dst == rank {
                keep[rank] = set;
            } else if !set.is_empty() {
                routes.push((rank, dst));
                sets.push(set);
            }
        }
    }
    let sends = routes
        .into_iter()
        .zip(into_payloads(sets))
        .map(|((from, to), payload)| (from, to, payload))
        .collect();
    let inboxes = world.exchange(class, sends)?;

    // Final union at each destination, on the pool.
    let mut arrived: Vec<(VertSet, Inbox)> = keep.into_iter().zip(inboxes).collect();
    let tallies = arrived
        .par_iter_mut()
        .map(|(acc, inbox)| {
            let mut tally = UnionTally::default();
            for (_, set) in inbox.iter() {
                tally.union(acc, set, &policy);
            }
            tally
        })
        .collect();
    record_unions(world, tallies);
    Ok(arrived.into_iter().map(|(acc, _)| acc).collect())
}

/// Run the two-phase expand in every group simultaneously.
///
/// `contribution[rank]` is the rank's frontier message (the same payload
/// goes to every group member). Returns, per rank, `(source, payload)`
/// for every member of its group, sorted by source rank.
pub fn two_phase_expand(
    world: &mut SimWorld,
    class: OpClass,
    groups: &Groups,
    contribution: Vec<Vec<Vert>>,
) -> Result<Vec<Inbox>, CommError> {
    debug_assert_eq!(contribution.len(), world.p());
    let rows = subgrid_rows(groups);

    // ---- Phase 1: all-to-all within each subgrid column. ----
    let mut sends = Vec::new();
    for &rank in groups.groups().iter().flatten() {
        for dst in column(groups, &rows, rank).filter(|&dst| dst != rank) {
            sends.push((rank, dst, contribution[rank].clone()));
        }
    }
    let inboxes = world.exchange(class, sends)?;

    // ---- Phase 2: ring all-gather of the column bundles around each
    // subgrid row. A bundle is its column's contributions, top row
    // first, concatenated into one payload.
    let bundles = inboxes
        .iter()
        .enumerate()
        .map(|(rank, inbox)| {
            // A rank's own contribution is the one part not in its inbox.
            column(groups, &rows, rank)
                .flat_map(|src| {
                    let received = inbox.iter().find(|(from, _)| *from == src);
                    received.map_or(&contribution[rank], |(_, payload)| payload)
                })
                .copied()
                .collect()
        })
        .collect();
    let gathered = allgather_ring(world, class, &rows, bundles)?;

    // Unpack every bundle along the contribution lengths (the set
    // boundaries a real implementation sends as header words).
    Ok(gathered
        .into_iter()
        .map(|row_bundles| {
            let mut parts: Inbox = Vec::new();
            for (origin, bundle) in row_bundles {
                let mut rest = &bundle[..];
                for src in column(groups, &rows, origin) {
                    let (part, tail) = rest.split_at(contribution[src].len());
                    parts.push((src, part.to_vec()));
                    rest = tail;
                }
            }
            parts.sort_by_key(|(src, _)| *src);
            parts
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold_reference(groups: &Groups, blocks: &[Vec<Vec<Vert>>]) -> Vec<Vec<Vert>> {
        (0..blocks.len())
            .map(|rank| {
                let (gi, pos) = groups.locate(rank);
                let g = &groups.groups()[gi];
                let sets: Vec<Vec<Vert>> = g.iter().map(|&mbr| blocks[mbr][pos].clone()).collect();
                setops::union_many(&sets).0
            })
            .collect()
    }

    fn pseudo_blocks(g: usize, salt: u64) -> Vec<Vec<Vec<Vert>>> {
        (0..g)
            .map(|r| {
                (0..g)
                    .map(|d| {
                        let mut v: Vec<Vert> = (0..5)
                            .map(|i| (r as u64 * 31 + d as u64 * 17 + i * 7 + salt) % 40)
                            .collect();
                        setops::normalize(&mut v);
                        v
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fold_matches_reference_across_group_sizes() {
        for g in [1usize, 2, 3, 4, 5, 6, 7, 8, 9, 12] {
            let grid = ProcessorGrid::new(1, g);
            let groups = Groups::rows_of(grid);
            let blocks = pseudo_blocks(g, 3);
            let expect = fold_reference(&groups, &blocks);
            let mut w = SimWorld::bluegene(grid);
            let got = two_phase_fold(&mut w, OpClass::Fold, &groups, blocks).unwrap();
            let got: Vec<Vec<Vert>> = got.into_iter().map(VertSet::into_vec).collect();
            assert_eq!(got, expect, "group size {g}");
        }
    }

    #[test]
    fn fold_works_on_multiple_groups_simultaneously() {
        // 3 rows of 6 processors each fold at once.
        let grid = ProcessorGrid::new(3, 6);
        let groups = Groups::rows_of(grid);
        let p = grid.len();
        let blocks: Vec<Vec<Vec<Vert>>> = (0..p)
            .map(|rank| {
                (0..6)
                    .map(|d| {
                        let mut v: Vec<Vert> =
                            vec![(rank * 3 + d) as Vert % 20, (rank + d * 5) as Vert % 20];
                        setops::normalize(&mut v);
                        v
                    })
                    .collect()
            })
            .collect();
        let expect = fold_reference(&groups, &blocks);
        let mut w = SimWorld::bluegene(grid);
        let got = two_phase_fold(&mut w, OpClass::Fold, &groups, blocks).unwrap();
        let got: Vec<Vec<Vert>> = got.into_iter().map(VertSet::into_vec).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn fold_eliminates_duplicates_en_route() {
        let g = 6;
        let grid = ProcessorGrid::new(1, g);
        let groups = Groups::rows_of(grid);
        // All members want the same 50 vertices delivered to member 0.
        let common: Vec<Vert> = (0..50).collect();
        let blocks: Vec<Vec<Vec<Vert>>> = (0..g)
            .map(|_| {
                let mut b = vec![Vec::new(); g];
                b[0] = common.clone();
                b
            })
            .collect();
        let mut w = SimWorld::bluegene(grid);
        let got = two_phase_fold(&mut w, OpClass::Fold, &groups, blocks).unwrap();
        assert_eq!(got[0].to_vec(), common);
        // 6 copies collapse to 1: five eliminated, each of 50 vertices.
        assert_eq!(w.stats.total_dups_eliminated(), 250);
        // And the wire never carried anywhere near 6x50 to one dest:
        // phase-1 ring keeps one deduped copy per bundle.
        let wire = w.stats.class(OpClass::Fold).wire_verts;
        assert!(wire < 300, "wire={wire}");
    }

    #[test]
    fn expand_everyone_hears_everyone() {
        for g in [1usize, 2, 3, 4, 6, 8, 9, 12] {
            let grid = ProcessorGrid::new(g, 1);
            let groups = Groups::cols_of(grid);
            let contribution: Vec<Vec<Vert>> =
                (0..g).map(|r| vec![r as Vert, 100 + r as Vert]).collect();
            let mut w = SimWorld::bluegene(grid);
            let got =
                two_phase_expand(&mut w, OpClass::Expand, &groups, contribution.clone()).unwrap();
            for (rank, inbox) in got.iter().enumerate() {
                assert_eq!(inbox.len(), g, "g={g} rank={rank}");
                for (src, payload) in inbox {
                    assert_eq!(payload, &contribution[*src], "g={g}");
                }
            }
        }
    }

    #[test]
    fn expand_multiple_groups() {
        let grid = ProcessorGrid::new(4, 3); // 3 columns of 4
        let groups = Groups::cols_of(grid);
        let p = grid.len();
        let contribution: Vec<Vec<Vert>> = (0..p).map(|r| vec![r as Vert * 2]).collect();
        let mut w = SimWorld::bluegene(grid);
        let got = two_phase_expand(&mut w, OpClass::Expand, &groups, contribution.clone()).unwrap();
        for (rank, inbox) in got.iter().enumerate() {
            let group = groups.group_of(rank);
            assert_eq!(inbox.len(), group.len());
            for (src, payload) in inbox {
                assert!(group.contains(src));
                assert_eq!(payload, &contribution[*src]);
            }
        }
    }

    #[test]
    fn bundle_measure_is_the_measure_of_its_concatenation() {
        let policy = VsetPolicy::hybrid();
        let mut dense = VertSet::from_sorted((5000..5800).filter(|v| v % 3 != 0).collect());
        assert!(
            dense.maybe_densify(&policy),
            "the dense set must be a bitmap"
        );
        let bundle = FoldBundle {
            sets: vec![
                VertSet::from_sorted(vec![3, 90, 4000]),
                dense,
                VertSet::new(),
                VertSet::from_sorted((6000..9000).step_by(41).collect()),
                // Below the previous set's values: a decrease at a
                // set boundary.
                VertSet::from_sorted(vec![10, 11, 12]),
            ],
        };
        let mut concatenated = Vec::new();
        for set in &bundle.sets {
            set.append_to(&mut concatenated);
        }
        for mode in [
            wire::WireMode::Raw,
            wire::WireMode::Delta,
            wire::WireMode::Bitmap,
            wire::WireMode::Auto,
        ] {
            let policy = WirePolicy::with_mode(mode);
            assert_eq!(
                bundle.measure(&policy),
                wire::measure(&concatenated, &policy),
                "{mode:?}"
            );
            // Without the last set the concatenation is sorted, so the
            // codec's sorted-payload formats are exercised too.
            let sorted = FoldBundle {
                sets: bundle.sets[..4].to_vec(),
            };
            let prefix = &concatenated[..concatenated.len() - 3];
            assert_eq!(sorted.measure(&policy), wire::measure(prefix, &policy));
        }
    }

    /// Fold seeded blocks on 4×4 rows (2×2 subgrids) under auto wire
    /// with `workers` pool workers; block 0 of every rank is dense
    /// enough to densify its accumulators.
    fn traced_fold(workers: usize) -> (Vec<Vec<Vert>>, u64, crate::CommStats, u64) {
        rayon::with_worker_threads(workers, || {
            let grid = ProcessorGrid::new(4, 4);
            let groups = Groups::rows_of(grid);
            let blocks: Vec<Vec<Vec<Vert>>> = (0..grid.len() as Vert)
                .map(|r| {
                    (0..4)
                        .map(|d| {
                            if d == 0 {
                                (0..2048).filter(|v| (v * 7 + r) % 5 != 0).collect()
                            } else {
                                (0..60)
                                    .map(|i| d * 10_000 + (i * 13 + r * 29) % 700)
                                    .collect()
                            }
                        })
                        .map(|mut v: Vec<Vert>| {
                            setops::normalize(&mut v);
                            v
                        })
                        .collect()
                })
                .collect();
            let mut world = SimWorld::bluegene(grid).with_wire_policy(crate::WirePolicy::auto());
            world.enable_trace(crate::TraceDetail::Event);
            let out = two_phase_fold(&mut world, OpClass::Fold, &groups, blocks).unwrap();
            let trace = world.take_trace().unwrap();
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            std::hash::Hash::hash(&format!("{:?}", trace.events()), &mut hasher);
            (
                out.into_iter().map(VertSet::into_vec).collect(),
                world.time().to_bits(),
                world.stats.clone(),
                std::hash::Hasher::finish(&hasher),
            )
        })
    }

    #[test]
    fn fold_is_bit_identical_across_worker_counts() {
        let serial = traced_fold(1);
        let parallel = traced_fold(4);
        assert!(serial.2.setops.densify_switches > 0, "a union must densify");
        let fold = serial.2.class(OpClass::Fold);
        assert!(fold.wire_bytes < fold.logical_bytes, "the codec must pay");
        assert_eq!(serial.0, parallel.0, "folded sets");
        assert_eq!(serial.1, parallel.1, "sim clock must be bit-identical");
        assert_eq!(serial.2, parallel.2, "CommStats");
        assert_eq!(serial.3, parallel.3, "trace hash");
    }

    #[test]
    fn fold_on_subgrid_uses_fewer_rounds_than_full_ring() {
        // For g=16 (4x4 subgrid): phase1 = 3 ring steps + 1 scatter round
        // vs 15 ring steps for a full union ring. Compare simulated time.
        let g = 16;
        let grid = ProcessorGrid::new(1, g);
        let groups = Groups::rows_of(grid);
        let blocks = pseudo_blocks(g, 11);

        let mut w_two = SimWorld::bluegene(grid);
        let a = two_phase_fold(&mut w_two, OpClass::Fold, &groups, blocks.clone()).unwrap();
        let mut w_ring = SimWorld::bluegene(grid);
        let b = super::super::reduce_scatter::reduce_scatter_union_ring(
            &mut w_ring,
            OpClass::Fold,
            &groups,
            blocks,
        )
        .unwrap();
        assert_eq!(a, b, "both strategies must produce identical folds");
        assert!(
            w_two.time() < w_ring.time(),
            "two-phase {} vs ring {}",
            w_two.time(),
            w_ring.time()
        );
    }
}
