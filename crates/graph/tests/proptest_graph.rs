//! Property-based invariants of the graph substrate: generator symmetry
//! and determinism, partition algebra, storage placement.

use bgl_comm::ProcessorGrid;
use bgl_graph::{dist, DistGraph, GraphSpec, TwoDPartition, Vertex};
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_graph_is_symmetric_loop_free(
        n in 20u64..250,
        k in 0u32..12,
        seed in any::<u64>(),
    ) {
        let k = (k as f64).min(n as f64 - 1.0);
        let spec = GraphSpec::poisson(n, k, seed);
        let adj = dist::adjacency(&spec);
        for (v, list) in adj.iter().enumerate() {
            let v = v as Vertex;
            for &u in list {
                prop_assert_ne!(u, v, "self loop at {}", v);
                prop_assert!(adj[u as usize].contains(&v), "asymmetric edge ({},{})", u, v);
            }
            // Sorted and unique.
            prop_assert!(list.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn build_is_grid_invariant(
        n in 30u64..200,
        k in 1u32..8,
        seed in any::<u64>(),
        r1 in 1usize..5, c1 in 1usize..5,
        r2 in 1usize..5, c2 in 1usize..5,
    ) {
        let spec = GraphSpec::poisson(n, k as f64, seed);
        let collect = |g: &DistGraph| {
            let mut all: Vec<(Vertex, Vertex)> = Vec::new();
            for rg in &g.ranks {
                for (c, list) in rg.edges.iter_cols() {
                    all.extend(list.map(|u| (u, c)));
                }
            }
            all.sort_unstable();
            all
        };
        let a = DistGraph::build(spec, ProcessorGrid::new(r1, c1));
        let b = DistGraph::build(spec, ProcessorGrid::new(r2, c2));
        prop_assert_eq!(collect(&a), collect(&b));
    }

    #[test]
    fn partition_owner_and_ranges_consistent(
        n in 1u64..500,
        r in 1usize..8,
        c in 1usize..8,
    ) {
        let part = TwoDPartition::new(n, ProcessorGrid::new(r, c));
        // Owned ranges tile 0..n disjointly.
        let mut covered: HashSet<Vertex> = HashSet::new();
        for rank in 0..part.p() {
            for v in part.owned_range(rank) {
                prop_assert!(covered.insert(v), "vertex {} owned twice", v);
                prop_assert_eq!(part.owner_of(v), rank);
            }
        }
        prop_assert_eq!(covered.len() as u64, n);
        // Block columns tile 0..n as well.
        let mut col_covered = 0u64;
        for j in 0..c {
            let range = part.block_col_range(j);
            prop_assert_eq!(range.start, col_covered);
            col_covered = range.end;
            for v in range {
                prop_assert_eq!(part.block_col_of(v), j);
            }
        }
        prop_assert_eq!(col_covered, n);
    }

    #[test]
    fn storer_shares_row_with_row_owner_and_col_with_col_owner(
        n in 10u64..300,
        r in 1usize..6,
        c in 1usize..6,
        seed in any::<u64>(),
    ) {
        let part = TwoDPartition::new(n, ProcessorGrid::new(r, c));
        let grid = part.grid();
        let u = seed % n;
        let v = (seed >> 24) % n;
        let storer = part.storer_of_entry(u, v);
        prop_assert_eq!(grid.row_of(storer), grid.row_of(part.owner_of(u)));
        prop_assert_eq!(grid.col_of(storer), grid.col_of(part.owner_of(v)));
    }

    #[test]
    fn expand_targets_sound_and_complete(
        n in 30u64..150,
        k in 1u32..8,
        seed in any::<u64>(),
        r in 1usize..5,
        c in 1usize..4,
    ) {
        let spec = GraphSpec::poisson(n, k as f64, seed);
        let grid = ProcessorGrid::new(r, c);
        let g = DistGraph::build(spec, grid);
        for owner in &g.ranks {
            let (_, j) = grid.position_of(owner.rank);
            for i2 in 0..r {
                let row = owner.registration_row(i2);
                let peer = grid.rank_of(i2, j);
                prop_assert_eq!(row.len(), owner.owned_len().div_ceil(64));
                for off in 0..row.len() * 64 {
                    let v = owner.owned.start + off as Vertex;
                    let has = off < owner.owned_len()
                        && g.ranks[peer].edges.neighbors_of(v).len() > 0;
                    prop_assert_eq!(
                        row[off / 64] >> (off % 64) & 1 != 0,
                        has,
                        "v={} peer={}", v, peer
                    );
                }
            }
        }
    }
}
