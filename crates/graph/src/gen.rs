//! Deterministic, partition-independent edge generation.
//!
//! The adjacency matrix of a Poisson random graph is sampled cell by
//! cell: the vertex space is cut into fixed-size chunks (independent of
//! any processor grid), and each *cell* — a chunk-row × chunk-column
//! rectangle of the matrix — draws its nonzeros with **geometric
//! skip-sampling** (expected cost proportional to the number of edges,
//! not matrix area) from a ChaCha8 stream seeded by `(graph seed,
//! canonical cell id)`. Only the lower triangle is sampled; the upper
//! triangle mirrors it, so the matrix is exactly symmetric and the graph
//! undirected.
//!
//! Because a cell's edges depend only on the spec, any subset of cells
//! can be regenerated anywhere, in any order, in parallel — this is what
//! lets the same graph be rebuilt identically under every `R × C`
//! partitioning (strong scaling, Table 1 topology comparisons) and lets
//! a distributed builder route each cell to the rank that stores it.
//!
//! The R-MAT extension draws a fixed number of directed edge samples by
//! recursive quadrant descent, also chunked into independently seeded
//! streams.

use crate::spec::{GraphFamily, GraphSpec};
use crate::Vertex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Default chunk edge length (vertices per chunk): cells are at most
/// `16384 × 16384` slots, small enough for cheap parallel work items and
/// large enough that stream-setup cost is negligible.
pub const DEFAULT_CHUNK: u64 = 1 << 14;

/// The fixed chunking of the vertex space used by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkGrid {
    n: u64,
    chunk: u64,
}

impl ChunkGrid {
    /// Chunking for `n` vertices with the default chunk size.
    pub fn new(n: u64) -> Self {
        Self::with_chunk(n, DEFAULT_CHUNK)
    }

    /// Chunking with an explicit chunk size (tests use small chunks to
    /// exercise many cells on small graphs).
    fn with_chunk(n: u64, chunk: u64) -> Self {
        assert!(n >= 1 && chunk >= 1);
        Self { n, chunk }
    }

    /// Number of chunks.
    pub fn chunks(&self) -> u64 {
        self.n.div_ceil(self.chunk)
    }

    /// Vertex range of chunk `c`.
    pub fn range(&self, c: u64) -> std::ops::Range<Vertex> {
        debug_assert!(c < self.chunks());
        (c * self.chunk)..((c + 1) * self.chunk).min(self.n)
    }

    /// All cells of the lower triangle (including the diagonal), i.e.
    /// the independent generation work items: `(chunk_row, chunk_col)`
    /// with `chunk_row >= chunk_col`.
    pub(crate) fn lower_cells(&self) -> Vec<(u64, u64)> {
        let k = self.chunks();
        let mut cells = Vec::with_capacity((k * (k + 1) / 2) as usize);
        for cr in 0..k {
            for cc in 0..=cr {
                cells.push((cr, cc));
            }
        }
        cells
    }
}

/// SplitMix64 finalizer for deriving independent stream seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn cell_seed(seed: u64, lo: u64, hi: u64) -> u64 {
    mix(mix(mix(seed) ^ lo) ^ hi)
}

/// Geometric skip sampler: visits each of `area` slots independently
/// with probability `p`, in expected `p·area` draws.
struct SkipSampler {
    rng: ChaCha8Rng,
    ln_q: f64, // ln(1 - p)
    all: bool, // p >= 1: every slot
}

impl SkipSampler {
    fn new(seed: u64, p: f64) -> Self {
        debug_assert!(p >= 0.0);
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
            ln_q: (1.0 - p).ln(),
            all: p >= 1.0,
        }
    }

    /// Number of slots to skip before the next hit.
    fn skip(&mut self) -> u64 {
        if self.all {
            return 0;
        }
        let u: f64 = self.rng.gen();
        let s = ((1.0 - u).ln() / self.ln_q).floor();
        if s >= u64::MAX as f64 {
            u64::MAX
        } else {
            s as u64
        }
    }

    /// Iterate the hit positions in `0..area`.
    fn positions(mut self, area: u64) -> impl Iterator<Item = u64> {
        let mut cur = 0u64;
        std::iter::from_fn(move || {
            let (next, overflow) = cur.overflowing_add(self.skip());
            if overflow || next >= area {
                return None;
            }
            cur = next + 1;
            Some(next)
        })
    }
}

/// Map a linear slot index of a strict lower triangle (`u > v`, local
/// coordinates in `0..len`) back to `(u_local, v_local)`.
fn triangle_coords(t: u64) -> (u64, u64) {
    // u is the largest integer with u(u-1)/2 <= t.
    let mut u = ((1.0 + (1.0 + 8.0 * t as f64).sqrt()) / 2.0) as u64;
    while u * (u.saturating_sub(1)) / 2 > t {
        u -= 1;
    }
    while (u + 1) * u / 2 <= t {
        u += 1;
    }
    let v = t - u * (u - 1) / 2;
    debug_assert!(v < u);
    (u, v)
}

/// Skip-sample lower cell `(hi, lo)` (`hi >= lo`) of a **Poisson** spec
/// and visit each sampled slot once, in its canonical lower-triangle
/// orientation `(u, v)` with `u > v`. A diagonal cell samples the strict
/// lower triangle of its chunk; an off-diagonal cell samples rows of
/// chunk `hi` × columns of chunk `lo`. Every generator of Poisson
/// entries goes through here, so the graph is defined in one place.
fn sample_lower_cell(
    spec: &GraphSpec,
    grid: &ChunkGrid,
    hi: u64,
    lo: u64,
    mut f: impl FnMut(Vertex, Vertex),
) {
    debug_assert!(hi >= lo);
    let p = spec.edge_probability();
    if p <= 0.0 {
        return;
    }
    let sampler = SkipSampler::new(cell_seed(spec.seed, lo, hi), p);
    if lo == hi {
        let range = grid.range(lo);
        let len = range.end - range.start;
        if len < 2 {
            return;
        }
        for t in sampler.positions(len * (len - 1) / 2) {
            let (ul, vl) = triangle_coords(t);
            f(range.start + ul, range.start + vl);
        }
    } else {
        let rows = grid.range(hi);
        let cols = grid.range(lo);
        let width = cols.end - cols.start;
        for t in sampler.positions((rows.end - rows.start) * width) {
            f(rows.start + t / width, cols.start + t % width);
        }
    }
}

/// Generate every adjacency-matrix entry `(row u, col v)` of cell
/// `(chunk_row, chunk_col)` for a **Poisson** spec. Both triangle sides
/// are covered: ask for cell `(a, b)` and you get exactly the entries
/// whose row lies in chunk `a` and column in chunk `b`.
pub fn cell_entries(
    spec: &GraphSpec,
    grid: &ChunkGrid,
    chunk_row: u64,
    chunk_col: u64,
) -> Vec<(Vertex, Vertex)> {
    assert!(
        matches!(spec.family, GraphFamily::Poisson),
        "cell_entries applies to the Poisson family; use rmat_chunk_edges for R-MAT"
    );
    let (lo, hi) = (chunk_row.min(chunk_col), chunk_row.max(chunk_col));
    let mut out = Vec::new();
    sample_lower_cell(spec, grid, hi, lo, |u, v| {
        if lo == hi {
            // Diagonal cell: the strict lower triangle, mirrored.
            out.push((u, v));
            out.push((v, u));
        } else if chunk_row == lo {
            out.push((v, u));
        } else {
            out.push((u, v));
        }
    });
    out
}

/// Every adjacency entry of lower cell `(hi, lo)` and of its mirror
/// `(lo, hi)` for a Poisson spec, sampled once: each sampled slot is
/// emitted in both orientations. The same multiset as
/// [`cell_entries`] of both cells (of the one cell when `hi == lo`), in
/// a different order.
pub(crate) fn lower_cell_entries(
    spec: &GraphSpec,
    grid: &ChunkGrid,
    hi: u64,
    lo: u64,
) -> Vec<(Vertex, Vertex)> {
    let mut out = Vec::new();
    sample_lower_cell(spec, grid, hi, lo, |u, v| {
        out.push((u, v));
        out.push((v, u));
    });
    out
}

/// Every cell `(chunk_row, chunk_col)` of the chunk grid, both triangle
/// sides. Each off-diagonal cell is the mirror of another, so walking
/// these through [`cell_entries`] samples every off-diagonal cell twice;
/// the builder and [`for_each_entry`] walk the lower cells once instead.
/// Kept for callers that want the entries one orientation at a time,
/// such as perfbench's replay of the build.
pub fn full_cells(grid: &ChunkGrid) -> Vec<(u64, u64)> {
    let k = grid.chunks();
    let mut cells = Vec::with_capacity((k * k) as usize);
    for cr in 0..k {
        for cc in 0..k {
            cells.push((cr, cc));
        }
    }
    cells
}

/// Number of directed R-MAT draws for a spec (`n·k / 2` undirected
/// samples, each emitted in both directions).
pub fn rmat_draws(spec: &GraphSpec) -> u64 {
    (spec.n as f64 * spec.avg_degree / 2.0).round() as u64
}

/// R-MAT draws per generation chunk (shared by the distributed builder
/// and the sequential visitor so both see the same stream).
pub const RMAT_STRIDE: u64 = 1 << 16;

/// Number of [`RMAT_STRIDE`]-draw generation chunks for an R-MAT spec.
pub fn rmat_chunks(spec: &GraphSpec) -> u64 {
    rmat_draws(spec).div_ceil(RMAT_STRIDE).max(1)
}

/// Draw chunk `chunk_idx` of the R-MAT edge stream (draw indices
/// `[chunk_idx·stride, min((chunk_idx+1)·stride, total))`), emitting
/// both directions of each sampled edge. Self-loops are skipped.
pub fn rmat_chunk_edges(spec: &GraphSpec, chunk_idx: u64, stride: u64) -> Vec<(Vertex, Vertex)> {
    let GraphFamily::RMat { a, b, c } = spec.family else {
        // bgl-lint: allow(r1, reason = "API contract: the builder dispatches on spec.family before calling the family-specific generator")
        panic!("rmat_chunk_edges requires an R-MAT spec");
    };
    let total = rmat_draws(spec);
    let start = chunk_idx * stride;
    if start >= total {
        return Vec::new();
    }
    let count = stride.min(total - start);
    let scale = 64 - (spec.n - 1).leading_zeros().min(63);
    let scale = scale.max(1);
    let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(spec.seed, R_MAT_SALT, chunk_idx));
    let (ab, abc) = (a + b, a + b + c);
    let mut out = Vec::with_capacity(2 * count as usize);
    for _ in 0..count {
        let (mut u, mut v) = (0u64, 0u64);
        for _ in 0..scale {
            let (du, dv) = rmat_quadrant(rng.gen(), a, ab, abc);
            u = u << 1 | du;
            v = v << 1 | dv;
        }
        if u == v || u >= spec.n || v >= spec.n {
            continue;
        }
        out.push((u, v));
        out.push((v, u));
    }
    out
}

/// One level of the R-MAT descent: the `(row, col)` bits of the
/// quadrant that `r` in `[0, 1)` falls in, given the cumulative masses
/// `a`, `ab = a + b` and `abc = a + b + c` (top-left, top-right,
/// bottom-left, bottom-right in that order). Computed from the
/// comparisons alone, without a branch on the random draw.
#[inline]
fn rmat_quadrant(r: f64, a: f64, ab: f64, abc: f64) -> (u64, u64) {
    let row = r >= ab;
    let col = (a <= r) & (r < ab) | (r >= abc);
    (u64::from(row), u64::from(col))
}

const R_MAT_SALT: u64 = 0x524D_4154; // "RMAT"
const SW_SALT: u64 = 0x5357_4154; // "SWAT"

/// Vertices per small-world generation chunk (shared by the distributed
/// builder and the sequential visitor so both see the same stream).
pub const SW_STRIDE: u64 = 1 << 14;

/// Generate the Watts–Strogatz edges whose *source lattice vertex* lies
/// in chunk `chunk_idx` (vertices `[chunk_idx·SW_STRIDE, …)`), emitting
/// both directions of each edge.
///
/// Each vertex `u` contributes lattice edges `(u, (u+j) mod n)` for
/// `j = 1..=k/2`; with probability `rewire` an edge is redirected to a
/// uniform random target (self-loops keep the lattice target instead).
/// Multi-edges can arise and are collapsed by the CSR layer, so the
/// realized degree is marginally below `k` at high rewiring.
pub fn small_world_chunk_edges(spec: &GraphSpec, chunk_idx: u64) -> Vec<(Vertex, Vertex)> {
    let GraphFamily::SmallWorld { rewire } = spec.family else {
        // bgl-lint: allow(r1, reason = "API contract: the builder dispatches on spec.family before calling the family-specific generator")
        panic!("small_world_chunk_edges requires a SmallWorld spec");
    };
    let n = spec.n;
    let half_k = (spec.avg_degree as u64) / 2;
    let start = chunk_idx * SW_STRIDE;
    if start >= n {
        return Vec::new();
    }
    let end = (start + SW_STRIDE).min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(spec.seed, SW_SALT, chunk_idx));
    let mut out = Vec::with_capacity(((end - start) * half_k * 2) as usize);
    for u in start..end {
        for j in 1..=half_k {
            let lattice = (u + j) % n;
            if lattice == u {
                continue; // n <= k/2 degenerate wrap
            }
            let r: f64 = rng.gen();
            let target = if r < rewire {
                let w = rng.gen_range(0..n);
                if w == u {
                    lattice
                } else {
                    w
                }
            } else {
                lattice
            };
            out.push((u, target));
            out.push((target, u));
        }
    }
    out
}

/// Number of generation chunks for a small-world spec.
pub fn sw_chunks(spec: &GraphSpec) -> u64 {
    spec.n.div_ceil(SW_STRIDE).max(1)
}

/// Visit every adjacency entry `(row, col)` of the graph, sequentially.
/// Convenience for oracles and small tests; builders iterate cells in
/// parallel instead.
pub fn for_each_entry<F: FnMut(Vertex, Vertex)>(spec: &GraphSpec, mut f: F) {
    match spec.family {
        GraphFamily::Poisson => {
            let grid = ChunkGrid::new(spec.n);
            for (cr, cc) in grid.lower_cells() {
                sample_lower_cell(spec, &grid, cr, cc, |u, v| {
                    f(u, v);
                    f(v, u);
                });
            }
        }
        GraphFamily::RMat { .. } => {
            for ci in 0..rmat_chunks(spec) {
                for (u, v) in rmat_chunk_edges(spec, ci, RMAT_STRIDE) {
                    f(u, v);
                }
            }
        }
        GraphFamily::SmallWorld { .. } => {
            for ci in 0..sw_chunks(spec) {
                for (u, v) in small_world_chunk_edges(spec, ci) {
                    f(u, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn all_entries(spec: &GraphSpec) -> Vec<(Vertex, Vertex)> {
        let mut v = Vec::new();
        for_each_entry(spec, |a, b| v.push((a, b)));
        v
    }

    #[test]
    fn symmetric_and_loop_free() {
        let spec = GraphSpec::poisson(500, 8.0, 42);
        let entries = all_entries(&spec);
        let set: HashSet<_> = entries.iter().copied().collect();
        assert_eq!(set.len(), entries.len(), "no duplicate entries");
        for &(u, v) in &set {
            assert_ne!(u, v, "no self loops");
            assert!(set.contains(&(v, u)), "mirror of ({u},{v}) missing");
            assert!(u < 500 && v < 500);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = GraphSpec::poisson(300, 5.0, 7);
        assert_eq!(all_entries(&spec), all_entries(&spec));
    }

    #[test]
    fn different_seeds_differ() {
        let a = all_entries(&GraphSpec::poisson(300, 5.0, 1));
        let b = all_entries(&GraphSpec::poisson(300, 5.0, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn chunking_does_not_change_the_graph() {
        // The same spec sampled under different chunk sizes gives
        // *statistically identical* but not bit-identical graphs — the
        // chunk size is part of the generator definition, which is why it
        // is a crate constant rather than a parameter. What MUST hold is
        // that cell regeneration is order- and subset-independent:
        let spec = GraphSpec::poisson(400, 6.0, 99);
        let grid = ChunkGrid::with_chunk(400, 64);
        let mut forward = Vec::new();
        let mut backward = Vec::new();
        let cells = grid.lower_cells();
        for &(cr, cc) in &cells {
            forward.extend(cell_entries(&spec, &grid, cr, cc));
        }
        for &(cr, cc) in cells.iter().rev() {
            backward.extend(cell_entries(&spec, &grid, cr, cc));
        }
        let mut f = forward.clone();
        let mut b = backward.clone();
        f.sort_unstable();
        b.sort_unstable();
        assert_eq!(f, b);
    }

    #[test]
    fn mirror_cells_transpose_exactly() {
        let spec = GraphSpec::poisson(300, 6.0, 5);
        let grid = ChunkGrid::with_chunk(300, 50);
        for cr in 0..grid.chunks() {
            for cc in 0..cr {
                let mut fwd = cell_entries(&spec, &grid, cr, cc);
                let mut mir: Vec<_> = cell_entries(&spec, &grid, cc, cr)
                    .into_iter()
                    .map(|(u, v)| (v, u))
                    .collect();
                fwd.sort_unstable();
                mir.sort_unstable();
                assert_eq!(fwd, mir);
            }
        }
    }

    #[test]
    fn entries_stay_in_cell_bounds() {
        let spec = GraphSpec::poisson(250, 10.0, 3);
        let grid = ChunkGrid::with_chunk(250, 60);
        for cr in 0..grid.chunks() {
            for cc in 0..grid.chunks() {
                let rows = grid.range(cr);
                let cols = grid.range(cc);
                for (u, v) in cell_entries(&spec, &grid, cr, cc) {
                    assert!(rows.contains(&u), "row {u} outside chunk {cr}");
                    assert!(cols.contains(&v), "col {v} outside chunk {cc}");
                }
            }
        }
    }

    #[test]
    fn average_degree_close_to_k() {
        let n = 20_000u64;
        let k = 12.0;
        let spec = GraphSpec::poisson(n, k, 12345);
        let entries = all_entries(&spec);
        let measured = entries.len() as f64 / n as f64;
        // Binomial concentration: within 5% for nk = 240k entries.
        assert!(
            (measured - k).abs() / k < 0.05,
            "measured degree {measured}, expected ~{k}"
        );
    }

    #[test]
    fn zero_degree_graph_is_empty() {
        let spec = GraphSpec::poisson(100, 0.0, 1);
        assert!(all_entries(&spec).is_empty());
    }

    #[test]
    fn dense_probability_one() {
        // k = n-1 => p ~ 1: nearly complete graph. With p >= 1 the skip
        // sampler emits every slot.
        let n = 40u64;
        let spec = GraphSpec::poisson(n, (n - 1) as f64, 0);
        let entries = all_entries(&spec);
        // p = (n-1)/n < 1 so not exactly complete, but dense.
        assert!(entries.len() as u64 > n * (n - 1) * 9 / 10);
    }

    #[test]
    fn triangle_coords_roundtrip() {
        let mut t = 0u64;
        for u in 1..60u64 {
            for v in 0..u {
                assert_eq!(triangle_coords(t), (u, v), "t={t}");
                t += 1;
            }
        }
    }

    #[test]
    fn rmat_entries_symmetric_and_deterministic() {
        let spec = GraphSpec::rmat(1 << 10, 8.0, 21);
        let a = all_entries(&spec);
        let b = all_entries(&spec);
        assert_eq!(a, b);
        let set: HashSet<_> = a.iter().copied().collect();
        for &(u, v) in &set {
            assert!(set.contains(&(v, u)));
            assert_ne!(u, v);
            assert!(u < 1 << 10);
        }
        // Skew: R-MAT should concentrate degree on low vertex ids.
        let low: usize = a.iter().filter(|&&(u, _)| u < 128).count();
        let high: usize = a.iter().filter(|&&(u, _)| u >= 896).count();
        assert!(low > 3 * high, "low={low} high={high}");
    }

    #[test]
    fn small_world_symmetric_deterministic_and_local() {
        let spec = GraphSpec::small_world(2000, 8.0, 0.1, 33);
        let a = all_entries(&spec);
        let b = all_entries(&spec);
        assert_eq!(a, b, "deterministic");
        let set: HashSet<_> = a.iter().copied().collect();
        for &(u, v) in &set {
            assert_ne!(u, v, "no self loops");
            assert!(set.contains(&(v, u)), "mirror of ({u},{v}) missing");
            assert!(u < 2000 && v < 2000);
        }
        // ~90% of edges stay lattice-local (distance <= k/2 on the ring).
        let local = a
            .iter()
            .filter(|&&(u, v)| {
                let d = u.abs_diff(v);
                d.min(2000 - d) <= 4
            })
            .count();
        assert!(
            local as f64 > 0.8 * a.len() as f64,
            "local {} of {}",
            local,
            a.len()
        );
    }

    #[test]
    fn small_world_rewiring_shrinks_distances() {
        // The WS phenomenon: a little rewiring collapses the lattice's
        // O(n/k) distances. Compare reachability depth via a crude BFS.
        let bfs_depth = |spec: &GraphSpec| -> u32 {
            let mut adj: Vec<Vec<Vertex>> = vec![Vec::new(); spec.n as usize];
            for_each_entry(spec, |u, v| adj[u as usize].push(v));
            let mut level = vec![u32::MAX; spec.n as usize];
            let mut q = std::collections::VecDeque::new();
            level[0] = 0;
            q.push_back(0u64);
            let mut max = 0;
            while let Some(x) = q.pop_front() {
                for &y in &adj[x as usize] {
                    if level[y as usize] == u32::MAX {
                        level[y as usize] = level[x as usize] + 1;
                        max = max.max(level[y as usize]);
                        q.push_back(y);
                    }
                }
            }
            max
        };
        let lattice = bfs_depth(&GraphSpec::small_world(1000, 6.0, 0.0, 1));
        let rewired = bfs_depth(&GraphSpec::small_world(1000, 6.0, 0.2, 1));
        assert!(
            rewired * 3 < lattice,
            "lattice depth {lattice}, rewired depth {rewired}"
        );
    }

    #[test]
    fn small_world_degree_close_to_k() {
        let spec = GraphSpec::small_world(5000, 10.0, 0.3, 7);
        let mut deg = vec![0u32; 5000];
        let mut seen = HashSet::new();
        for_each_entry(&spec, |u, v| {
            if seen.insert((u, v)) {
                deg[u as usize] += 1;
            }
        });
        let mean = deg.iter().map(|&d| d as f64).sum::<f64>() / 5000.0;
        assert!((mean - 10.0).abs() < 0.5, "mean degree {mean}");
    }

    #[test]
    fn lower_cell_sampling_matches_both_orientations() {
        // Each lower cell sampled once gives the multiset of its two
        // per-orientation `cell_entries` calls (the one call on the
        // diagonal), on full chunks and on grids whose last chunk is
        // partial (20 vertices) or a single vertex.
        let spec = GraphSpec::poisson(300, 6.0, 5);
        for chunk in [50, 70, 299] {
            let grid = ChunkGrid::with_chunk(300, chunk);
            let mut sampled = 0;
            for (hi, lo) in grid.lower_cells() {
                let mut once = lower_cell_entries(&spec, &grid, hi, lo);
                let mut twice = cell_entries(&spec, &grid, hi, lo);
                if hi != lo {
                    twice.extend(cell_entries(&spec, &grid, lo, hi));
                }
                once.sort_unstable();
                twice.sort_unstable();
                assert_eq!(once, twice, "chunk {chunk} cell ({hi}, {lo})");
                sampled += once.len();
            }
            assert!(sampled > 1_500, "chunk {chunk}: {sampled} entries");
        }
    }

    /// The R-MAT descent step as an if-chain on the draw, the form the
    /// branch-free [`rmat_quadrant`] replaced.
    fn quadrant_chain(r: f64, a: f64, b: f64, c: f64) -> (u64, u64) {
        if r < a {
            (0, 0)
        } else if r < a + b {
            (0, 1)
        } else if r < a + b + c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// Quadrant masses: the Graph500 defaults, and masses with an empty
    /// top-right or bottom-left quadrant (or both), where two of the
    /// cumulative bounds coincide.
    const MASSES: [(f64, f64, f64); 5] = [
        (0.57, 0.19, 0.19),
        (0.6, 0.0, 0.2),
        (0.5, 0.3, 0.0),
        (0.7, 0.0, 0.0),
        (0.25, 0.25, 0.25),
    ];

    #[test]
    fn rmat_quadrant_matches_the_if_chain() {
        // The largest f64 below `x`, for positive `x`.
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        for (a, b, c) in MASSES {
            let (ab, abc) = (a + b, a + b + c);
            let mut draws = vec![0.0, 1.0 - f64::EPSILON, below(1.0)];
            for bound in [a, ab, abc] {
                draws.extend([bound, below(bound)]);
            }
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            draws.extend((0..100_000).map(|_| rng.gen::<f64>()));
            for r in draws {
                assert_eq!(
                    rmat_quadrant(r, a, ab, abc),
                    quadrant_chain(r, a, b, c),
                    "r={r:e} masses ({a}, {b}, {c})"
                );
            }
        }
    }

    #[test]
    fn rmat_chunk_edges_match_the_if_chain() {
        // The old generator, descending through `quadrant_chain`, over
        // every chunk (the last one partial) of power-of-two and other
        // vertex counts.
        let chain_chunk = |spec: &GraphSpec, chunk_idx: u64, stride: u64| {
            let GraphFamily::RMat { a, b, c } = spec.family else {
                unreachable!()
            };
            let total = rmat_draws(spec);
            let start = chunk_idx * stride;
            let count = stride.min(total - start);
            let scale = (64 - (spec.n - 1).leading_zeros().min(63)).max(1);
            let mut rng = ChaCha8Rng::seed_from_u64(cell_seed(spec.seed, R_MAT_SALT, chunk_idx));
            let mut out = Vec::new();
            for _ in 0..count {
                let (mut u, mut v) = (0u64, 0u64);
                for _ in 0..scale {
                    let (du, dv) = quadrant_chain(rng.gen(), a, b, c);
                    u = u << 1 | du;
                    v = v << 1 | dv;
                }
                if u != v && u < spec.n && v < spec.n {
                    out.push((u, v));
                    out.push((v, u));
                }
            }
            out
        };
        for (a, b, c) in MASSES {
            for n in [1 << 12, 3_000] {
                let mut spec = GraphSpec::rmat(n, 8.0, 5);
                spec.family = GraphFamily::RMat { a, b, c };
                let stride = 1_000;
                let chunks = rmat_draws(&spec).div_ceil(stride);
                assert!(chunks > 10);
                for ci in 0..chunks {
                    assert_eq!(
                        rmat_chunk_edges(&spec, ci, stride),
                        chain_chunk(&spec, ci, stride),
                        "n={n} masses ({a}, {b}, {c}) chunk {ci}"
                    );
                }
            }
        }
    }

    #[test]
    fn rmat_chunks_partition_the_stream() {
        let spec = GraphSpec::rmat(1 << 9, 6.0, 77);
        let total = rmat_draws(&spec);
        let stride = 100;
        let mut by_chunks = Vec::new();
        for ci in 0..total.div_ceil(stride) {
            by_chunks.extend(rmat_chunk_edges(&spec, ci, stride));
        }
        let mut whole = Vec::new();
        for_each_entry(&spec, |u, v| whole.push((u, v)));
        // Different stride chunking => different streams is allowed; but
        // the same stride must reproduce.
        let mut again = Vec::new();
        for ci in 0..total.div_ceil(stride) {
            again.extend(rmat_chunk_edges(&spec, ci, stride));
        }
        assert_eq!(by_chunks, again);
        assert!(!whole.is_empty());
    }
}
