//! Per-rank BFS state and the pure per-rank transition functions.
//!
//! Both execution engines (the superstep simulator and the threaded SPMD
//! runtime) drive the *same* code here; engines differ only in how the
//! produced messages move. The state holds the paper's per-processor
//! data structures:
//!
//! * the level array `L` over owned vertices (contiguous ownership makes
//!   the first §2.4.2 local-index mapping a subtraction);
//! * the current frontier `F`;
//! * the §2.4.3 **sent-neighbors** cache — one bit per unique vertex
//!   appearing in this rank's edge lists (`O(n/P)` expected, §2.4.1),
//!   packed 64 rows to a word over row-local ids —
//!   "once a neighbor vertex is sent, it may be encountered again, but
//!   it never needs to be sent again";
//! * a hash-probe counter feeding the cost model (the paper profiles the
//!   algorithm as spending "most of its time in a hashing function").
//!
//! Top-down [`RankState::discover`] runs in three passes: **scan**
//! marks each received column's stored rows in a byte per row
//! (`RowBytes`) with a fixed-width step of four, clamped to the last
//! row, so a short column takes no data-dependent exit (only columns
//! longer than four run a tail loop), then packs the bytes into a
//! `RowMarks` bitmap; **mask** applies the cache a word at a time
//! (`marks &= !sent; sent |= marks`); **drain** walks the marks one
//! block column at a time, sizes each block by popcounting its word
//! range, fills it in ascending order and retires the emitted rows'
//! degrees from the unexplored count once per call. The probe count is
//! still one per received vertex plus one per stored entry, added from
//! list and column lengths, so the simulated clock does not see the
//! change.
//!
//! Bottom-up [`RankState::discover_bottom_up`] takes the same received
//! F̄, so both directions share one expand. It marks the stored columns
//! F̄ names in a per-call column bitmap (uncharged) and scans the
//! unsent stored rows against it, one probe per column tested.

use crate::reference::UNREACHED;
use bgl_comm::{ProcessorGrid, VertSet};
use bgl_graph::{RankGraph, TwoDPartition, Vertex};

/// Mutable BFS state for one rank.
#[derive(Debug, Clone)]
pub struct RankState<'g> {
    rg: &'g RankGraph,
    grid: ProcessorGrid,
    /// Level labels for owned vertices, indexed by owned offset.
    pub levels: Vec<u32>,
    /// Current frontier (owned vertices at the current level), sorted.
    pub frontier: Vec<Vertex>,
    /// Sent-neighbors cache: bit `rl` set once row-local id `rl` has
    /// been sent (empty when disabled).
    sent: Vec<u64>,
    /// Hash probes performed since the last [`RankState::take_probes`].
    pub probes: u64,
    /// Stored adjacency entries whose row has not been emitted yet —
    /// the local share of Beamer's `m_u` (unexplored edge mass). Kept
    /// incrementally by the discover kernels when the sent-neighbors
    /// cache is on; static at `num_entries` when the cache is off (the
    /// adaptive heuristic then sees an over-estimate and stays
    /// top-down, which is safe). Host-side only: never charged.
    unexplored: u64,
}

impl<'g> RankState<'g> {
    /// Fresh state for a rank of `graph`.
    pub fn new(rg: &'g RankGraph, partition: TwoDPartition, use_sent: bool) -> Self {
        Self {
            rg,
            grid: partition.grid(),
            levels: vec![UNREACHED; rg.owned_len()],
            frontier: Vec::new(),
            sent: if use_sent {
                vec![0; rg.edges.num_row_ids().div_ceil(64)]
            } else {
                Vec::new()
            },
            probes: 0,
            unexplored: rg.edges.num_entries() as u64,
        }
    }

    /// The rank's static graph share.
    pub fn rank_graph(&self) -> &'g RankGraph {
        self.rg
    }

    /// Label the source if this rank owns it and seed the frontier.
    pub fn init_source(&mut self, source: Vertex) {
        if let Some(off) = self.rg.owned_local(source) {
            self.levels[off] = 0;
            self.frontier = vec![source];
        }
    }

    /// Current local frontier size.
    pub fn frontier_len(&self) -> u64 {
        self.frontier.len() as u64
    }

    /// The level of an owned vertex, if labeled (`None` too when this
    /// rank does not own `v`). Counts no probe: a caller charging the
    /// lookup adds it to [`RankState::probes`] itself.
    pub fn level_of(&self, v: Vertex) -> Option<u32> {
        self.rg.owned_local(v).and_then(|off| {
            let l = self.levels[off];
            (l != UNREACHED).then_some(l)
        })
    }

    /// Build the **targeted** expand sends: for each frontier vertex,
    /// one copy to each processor-column peer whose partial edge list
    /// for it is non-empty (§2.2). Returns `(peer rank, vertices)` with
    /// sorted vertex lists; includes a self entry when this rank stores
    /// a list for its own vertex.
    ///
    /// The frontier is marked in a word array over the owned range. For
    /// each grid row, that array ANDed with the row's registration words
    /// ([`RankGraph::registration_row`]) is the row's list: popcounted to
    /// size it, then walked bit by bit in ascending order, with no sort
    /// (`targeted_sends`). A row with no hit sends nothing.
    pub fn expand_sends_targeted(&mut self) -> Vec<(usize, Vec<Vertex>)> {
        let rg = self.rg;
        let start = rg.owned.start;
        let mut marked = vec![0u64; rg.owned_len().div_ceil(64)];
        for &v in &self.frontier {
            let off = v - start;
            marked[(off / 64) as usize] |= 1 << (off % 64);
        }
        targeted_sends(rg, self.grid, &marked, Vec::with_capacity, |list, off| {
            list.push(start + off as Vertex)
        })
    }

    /// Process the received frontier F̄ and produce the fold blocks: for
    /// each processor-row peer position `m` (grid column), the sorted,
    /// deduplicated set of neighbor vertices owned by that peer.
    ///
    /// Hash probes counted: one per F̄ vertex (partial-edge-list lookup)
    /// plus one per edge entry traversed (sent-neighbors lookup), added
    /// per list and per column from their lengths. These are the
    /// paper's hash-table costs. On the host the lists hold row-local
    /// ids, so a column's rows are stored into a byte per row in a
    /// fixed-width step (`RowBytes::mark_rows`), the bytes are packed
    /// into a bitmap, the cache is applied to it a word at a time, and
    /// each block is drained from its own word range.
    pub fn discover(&mut self, fbar_lists: &[&[Vertex]]) -> Vec<Vec<Vertex>> {
        let edges = &self.rg.edges;
        // Scan: every stored row of every received column.
        let mut reached = RowBytes::new(edges.num_row_ids());
        for list in fbar_lists {
            self.probes += list.len() as u64;
            for &v in *list {
                if let Some(ci) = edges.col_local(v) {
                    let rows = edges.rows_of(ci);
                    self.probes += rows.len() as u64;
                    reached.mark_rows(rows);
                }
            }
        }
        let mut marks = reached.pack();
        // Mask: drop rows already sent, record the rest.
        let caching = !self.sent.is_empty();
        if caching {
            marks.claim(&mut self.sent);
        }
        // Drain, block column by block column: emitted rows leave the
        // unexplored edge mass.
        let bounds = self.rg.row_blocks();
        let mut blocks = Vec::with_capacity(bounds.len() - 1);
        let mut retired = 0;
        for b in bounds.windows(2) {
            let mut block = Vec::with_capacity(marks.count(b[0], b[1]));
            marks.rows_in(b[0], b[1], |rl| {
                if caching {
                    retired += u64::from(edges.row_degree(rl));
                }
                block.push(edges.row_of_local(rl));
            });
            blocks.push(block);
        }
        self.unexplored -= retired;
        blocks
    }

    /// Whether row-local id `rl` is to be sent now. With the
    /// sent-neighbors cache on, the first call for a row records it (and
    /// retires its entries from [`RankState::unexplored`]) and every
    /// later call says no; with the cache off every call says yes.
    #[inline]
    fn claim_row(&mut self, rl: u32) -> bool {
        if self.sent.is_empty() {
            return true;
        }
        let (word, bit) = (&mut self.sent[rl as usize / 64], 1u64 << (rl % 64));
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.unexplored -= u64::from(self.rg.edges.row_degree(rl));
        true
    }

    /// Whether row-local id `rl` is in the sent-neighbors cache (never,
    /// with the cache off).
    fn is_sent(&self, rl: u32) -> bool {
        self.sent
            .get(rl as usize / 64)
            .is_some_and(|w| w >> (rl % 64) & 1 != 0)
    }

    /// Absorb received neighbor sets: label unlabeled owned vertices with
    /// `next_level` and make them the new frontier. Returns the number of
    /// newly labeled vertices. One probe per received vertex (the owned
    /// local-index lookup).
    pub fn absorb(&mut self, nbar_lists: &[&[Vertex]], next_level: u32) -> u64 {
        let mut fresh: Vec<Vertex> = Vec::new();
        for list in nbar_lists {
            for &v in *list {
                self.probes += 1;
                let off = self
                    .rg
                    .owned_local(v)
                    .expect("fold delivered a vertex to a non-owner"); // bgl-lint: allow(r1, reason = "fold routes each vertex to the owner of its block column, so delivery to a non-owner is a partitioning bug")
                if self.levels[off] == UNREACHED {
                    self.levels[off] = next_level;
                    fresh.push(v);
                }
            }
        }
        fresh.sort_unstable();
        self.frontier = fresh;
        self.frontier.len() as u64
    }

    /// [`RankState::absorb`] for a single already-deduplicated
    /// [`VertSet`] (the output of a union-fold). Probe accounting is
    /// identical — one probe per set element — and the set iterates in
    /// ascending order, so the resulting frontier equals the one
    /// `absorb(&[&set.to_vec()], ..)` would produce, without the
    /// intermediate list materialization.
    pub fn absorb_set(&mut self, nbar: &VertSet, next_level: u32) -> u64 {
        let mut fresh: Vec<Vertex> = Vec::new();
        for v in nbar.iter() {
            self.probes += 1;
            let off = self
                .rg
                .owned_local(v)
                .expect("fold delivered a vertex to a non-owner"); // bgl-lint: allow(r1, reason = "fold routes each vertex to the owner of its block column, so delivery to a non-owner is a partitioning bug")
            if self.levels[off] == UNREACHED {
                self.levels[off] = next_level;
                fresh.push(v);
            }
        }
        debug_assert!(fresh.windows(2).all(|w| w[0] < w[1]));
        self.frontier = fresh;
        self.frontier.len() as u64
    }

    /// Bottom-up discover: instead of expanding the frontier along
    /// stored columns, scan every not-yet-emitted stored *row* and ask
    /// whether any of its columns is in the received frontier,
    /// early-exiting on the first hit. Emits the same fold blocks as
    /// [`RankState::discover`] would for this level — each block sorted
    /// and duplicate-free — because rows are visited in ascending id
    /// order, block column by block column, and each row is emitted at
    /// most once.
    ///
    /// `fbar_lists` is the received F̄ of the level's expand, the same
    /// input [`RankState::discover`] takes. It holds every frontier
    /// vertex whose column this rank stores (the targeted expand sends
    /// exactly those; the all-gather and two-phase expands send the
    /// whole column's frontier, and columns stored elsewhere are
    /// skipped). This rank stores *all* edges `(u, f)` with `u` in its
    /// row set and `f` in its block column, so between the column peers
    /// every unlabeled vertex with a frontier parent is found by
    /// exactly the ranks that store such an edge.
    ///
    /// Probes counted: one per column tested. Marking F̄'s columns in
    /// a per-call bitmap is not charged, and the row scan itself is
    /// sequential array access over the row-major index — not hash
    /// work — whereas top-down is charged a sent-neighbors probe for
    /// *every* stored entry of every received frontier vertex. The
    /// early exit plus the free skip of already-sent rows is where
    /// bottom-up wins.
    pub fn discover_bottom_up(&mut self, fbar_lists: &[&[Vertex]]) -> Vec<Vec<Vertex>> {
        let rg = self.rg;
        let edges = &rg.edges;
        let mut in_frontier = vec![0u64; edges.num_cols().div_ceil(64)];
        for list in fbar_lists {
            for &v in *list {
                if let Some(ci) = edges.col_local(v) {
                    in_frontier[ci as usize / 64] |= 1 << (ci % 64);
                }
            }
        }
        let bounds = rg.row_blocks();
        let mut blocks: Vec<Vec<Vertex>> = vec![Vec::new(); self.grid.cols()];
        for (block, range) in blocks.iter_mut().zip(bounds.windows(2)) {
            for rl in range[0]..range[1] {
                if self.is_sent(rl) {
                    continue;
                }
                let u = edges.row_of_local(rl);
                if let Some(off) = rg.owned_local(u) {
                    if self.levels[off] != UNREACHED {
                        continue;
                    }
                }
                let mut parented = false;
                for &ci in edges.cols_of_row_local(rl) {
                    self.probes += 1;
                    if in_frontier[ci as usize / 64] >> (ci % 64) & 1 != 0 {
                        parented = true;
                        break;
                    }
                }
                if parented {
                    self.claim_row(rl);
                    block.push(u);
                }
            }
        }
        debug_assert!(blocks.iter().all(|b| b.windows(2).all(|w| w[0] < w[1])));
        blocks
    }

    /// Local share of the frontier's edge mass: the stored-entry count
    /// of every own frontier vertex's partial edge list. Summed over a
    /// processor column this approximates `m_f / R` (each frontier
    /// vertex's adjacency column is split across the `R` grid rows).
    /// Heuristic input only — not charged as hash probes.
    pub fn frontier_degree(&self) -> u64 {
        self.frontier
            .iter()
            .map(|&v| self.rg.edges.neighbors_of(v).len() as u64)
            .sum()
    }

    /// Stored entries whose row has not been emitted yet (see the field
    /// doc for the cache-off caveat).
    pub fn unexplored(&self) -> u64 {
        self.unexplored
    }

    /// Take and reset the probe counter (charged to the cost model once
    /// per level).
    pub fn take_probes(&mut self) -> u64 {
        std::mem::take(&mut self.probes)
    }

    /// Count of labeled owned vertices.
    pub fn reached(&self) -> u64 {
        self.levels.iter().filter(|&&l| l != UNREACHED).count() as u64
    }
}

/// The rows one top-down scan reaches, one byte per row-local id.
/// Marking a row is a plain store, with no load, so the stores of one
/// column's rows do not wait on each other, even when the fixed-width
/// step stores the same row more than once. [`RowBytes::pack`] turns the
/// bytes into the [`RowMarks`] the mask and drain passes work on.
#[derive(Debug)]
pub(crate) struct RowBytes(Vec<u8>);

impl RowBytes {
    /// No rows marked, out of `rows` row-local ids (padded to whole
    /// 64-row words).
    pub(crate) fn new(rows: usize) -> Self {
        Self(vec![0; rows.next_multiple_of(64)])
    }

    /// Mark every row of `rows`. The first four are stored in a fixed
    /// step of four, clamped to the last row: a short column repeats its
    /// last row instead of taking a data-dependent exit. Only columns
    /// longer than four run a loop.
    fn mark_rows(&mut self, rows: &[u32]) {
        let Some(last) = rows.len().checked_sub(1) else {
            return;
        };
        for k in 0..4 {
            self.0[rows[k.min(last)] as usize] = 1;
        }
        if last >= 4 {
            for &rl in &rows[4..] {
                self.0[rl as usize] = 1;
            }
        }
    }

    /// The marked rows as a bitmap. Every byte is 0 or 1, so multiplying
    /// eight of them by `0x0102_0408_1020_4080` gathers byte `i` into
    /// bit `56 + i`, with no carries between the partial products.
    pub(crate) fn pack(&self) -> RowMarks {
        let words = self.0.chunks_exact(64).map(|chunk| {
            chunk
                .chunks_exact(8)
                .enumerate()
                .fold(0, |word, (i, eight)| {
                    let mut bytes = [0; 8];
                    bytes.copy_from_slice(eight);
                    let bits = u64::from_le_bytes(bytes).wrapping_mul(0x0102_0408_1020_4080) >> 56;
                    word | bits << (8 * i)
                })
        });
        RowMarks(words.collect())
    }
}

/// The rows one discover call emits, as a bitmap over row-local ids.
/// Row-local ids ascend with the vertex id and the rank's row-block
/// bounds cut them into block columns, so draining the bitmap block by
/// block yields every fold block sorted and duplicate-free, with no sort
/// and no per-row partition arithmetic.
#[derive(Debug)]
pub(crate) struct RowMarks(Vec<u64>);

impl RowMarks {
    /// No rows marked, out of `rows` row-local ids.
    pub(crate) fn new(rows: usize) -> Self {
        Self(vec![0; rows.div_ceil(64)])
    }

    /// Mark row-local id `rl` (idempotent).
    pub(crate) fn mark(&mut self, rl: u32) {
        self.0[rl as usize / 64] |= 1u64 << (rl % 64);
    }

    /// Apply a sent-neighbors cache of the same length, a word at a
    /// time: unmark every row already in `sent`, then add the rest to it.
    pub(crate) fn claim(&mut self, sent: &mut [u64]) {
        for (marks, sent) in self.0.iter_mut().zip(sent) {
            *marks &= !*sent;
            *sent |= *marks;
        }
    }

    /// The marked bits of the rows `lo..hi`, word by word, as `(row-local
    /// id of bit 0, bits)`. Only the first and last words are masked.
    fn words_in(&self, lo: u32, hi: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let first = lo as usize / 64;
        let words = &self.0[first..(hi as usize).div_ceil(64)];
        words.iter().enumerate().map(move |(i, &word)| {
            let base = ((first + i) * 64) as u32;
            let mut bits = word;
            if lo > base {
                bits &= !0u64 << (lo - base);
            }
            if hi - base < 64 {
                bits &= (1u64 << (hi - base)) - 1;
            }
            (base, bits)
        })
    }

    /// Number of marked rows in `lo..hi`.
    pub(crate) fn count(&self, lo: u32, hi: u32) -> usize {
        self.words_in(lo, hi)
            .map(|(_, bits)| bits.count_ones() as usize)
            .sum()
    }

    /// Visit the marked rows of `lo..hi` in ascending order.
    fn rows_in(&self, lo: u32, hi: u32, mut visit: impl FnMut(u32)) {
        for (base, mut bits) in self.words_in(lo, hi) {
            while bits != 0 {
                visit(base + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
    }

    /// Visit the marked rows in ascending order as `(block column,
    /// row-local id)`, where `bounds` are the rank's row-block bounds
    /// ([`RankGraph::row_blocks`]).
    pub(crate) fn drain(&self, bounds: &[u32], mut visit: impl FnMut(usize, u32)) {
        for (m, b) in bounds.windows(2).enumerate() {
            self.rows_in(b[0], b[1], |rl| visit(m, rl));
        }
    }
}

/// The targeted expand's sends, one list per grid row of `rg`'s
/// processor-column, built from the registration bitmap (§2.2).
/// `marked` is the frontier as bits over the owned range. For each grid
/// row, `marked` ANDed with the row's words
/// ([`RankGraph::registration_row`]) holds the row's frontier vertices:
/// `list(len)` opens a list for the `len` of them (a popcount), and
/// `push(list, off)` appends each one's owned offset, ascending. A row
/// with no hit sends nothing. Returns `(peer rank, list)` pairs.
pub(crate) fn targeted_sends<L>(
    rg: &RankGraph,
    grid: ProcessorGrid,
    marked: &[u64],
    mut list: impl FnMut(usize) -> L,
    mut push: impl FnMut(&mut L, usize),
) -> Vec<(usize, L)> {
    let (_, j) = grid.position_of(rg.rank);
    let mut sends = Vec::new();
    for i in 0..grid.rows() {
        let reg = rg.registration_row(i);
        let words = || marked.iter().zip(reg).map(|(&f, &r)| f & r);
        let len: u32 = words().map(u64::count_ones).sum();
        if len == 0 {
            continue;
        }
        let mut out = list(len as usize);
        for (w, mut bits) in words().enumerate() {
            while bits != 0 {
                push(&mut out, w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        sends.push((grid.rank_of(i, j), out));
    }
    sends
}

/// Gather per-rank level arrays into one global array indexed by vertex.
pub fn gather_levels(states: &[RankState<'_>], n: u64) -> Vec<u32> {
    let mut levels = vec![UNREACHED; n as usize];
    for st in states {
        let start = st.rank_graph().owned.start as usize;
        levels[start..start + st.levels.len()].copy_from_slice(&st.levels);
    }
    levels
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bgl_graph::{DistGraph, GraphSpec};

    fn setup(r: usize, c: usize) -> DistGraph {
        DistGraph::build(GraphSpec::poisson(120, 5.0, 9), ProcessorGrid::new(r, c))
    }

    fn states(g: &DistGraph, use_sent: bool) -> Vec<RankState<'_>> {
        g.ranks
            .iter()
            .map(|rg| RankState::new(rg, g.partition, use_sent))
            .collect()
    }

    #[test]
    fn init_source_only_at_owner() {
        let g = setup(2, 3);
        let mut sts = states(&g, true);
        let source = 63u64;
        let owner = g.partition.owner_of(source);
        for st in sts.iter_mut() {
            st.init_source(source);
        }
        for (rank, st) in sts.iter().enumerate() {
            if rank == owner {
                assert_eq!(st.frontier, vec![source]);
                assert_eq!(st.level_of(source), Some(0));
                assert_eq!(st.reached(), 1);
            } else {
                assert!(st.frontier.is_empty());
                assert_eq!(st.reached(), 0);
            }
        }
    }

    /// Graphs for the expand oracle: R ∈ {1, 3, 8, 70}, with owned
    /// ranges below, above and across whole 64-vertex words.
    pub(crate) fn expand_graphs() -> Vec<DistGraph> {
        [(1, 3, 605), (3, 2, 907), (8, 2, 2_083), (70, 2, 12_611)]
            .into_iter()
            .map(|(r, c, n)| {
                DistGraph::build(GraphSpec::poisson(n, 6.0, 5), ProcessorGrid::new(r, c))
            })
            .collect()
    }

    /// Frontiers over `owned`: empty, full, every third vertex, and the
    /// vertices at both ends of every 64-vertex word.
    pub(crate) fn expand_frontiers(owned: std::ops::Range<Vertex>) -> Vec<Vec<Vertex>> {
        let ends = owned
            .clone()
            .filter(|v| matches!((v - owned.start) % 64, 0 | 63) || v + 1 == owned.end);
        vec![
            Vec::new(),
            owned.clone().collect(),
            owned.clone().step_by(3).collect(),
            ends.collect(),
        ]
    }

    /// The targeted expand of `frontier` from `rank`, from the peers'
    /// column lookups alone: grid row `i` of the rank's processor-column
    /// receives the frontier vertices peer `(i, j)` stores a list for,
    /// in frontier order; rows receiving none are left out.
    pub(crate) fn expand_oracle(
        g: &DistGraph,
        rank: usize,
        frontier: &[Vertex],
    ) -> Vec<(usize, Vec<Vertex>)> {
        let grid = g.grid();
        (0..grid.rows())
            .map(|i| grid.rank_of(i, grid.col_of(rank)))
            .map(|peer| {
                let edges = &g.ranks[peer].edges;
                let list = frontier
                    .iter()
                    .copied()
                    .filter(|&v| edges.col_local(v).is_some());
                (peer, list.collect::<Vec<_>>())
            })
            .filter(|(_, list)| !list.is_empty())
            .collect()
    }

    #[test]
    fn targeted_expand_matches_column_lookup_oracle() {
        let mut partial_words = 0;
        for g in expand_graphs() {
            for rg in &g.ranks {
                partial_words += usize::from(rg.owned_len() % 64 != 0 && rg.owned_len() > 64);
                let mut st = RankState::new(rg, g.partition, true);
                for frontier in expand_frontiers(rg.owned.clone()) {
                    let what = format!("{:?} rank {} |F|={}", g.grid(), rg.rank, frontier.len());
                    let want = expand_oracle(&g, rg.rank, &frontier);
                    st.frontier = frontier;
                    let sends = st.expand_sends_targeted();
                    assert_eq!(sends, want, "{what}");
                    assert!(sends.iter().all(|(_, l)| l.capacity() == l.len()), "{what}");
                }
            }
        }
        assert!(
            partial_words > 0,
            "no owned range ends in a partial word past the first"
        );
    }

    #[test]
    fn discover_routes_to_owner_columns() {
        let g = setup(2, 2);
        let grid = g.grid();
        let mut sts = states(&g, true);
        // Feed rank 0 a frontier list of every column it stores.
        let cols: Vec<Vertex> = g.ranks[0].edges.cols().collect();
        let blocks = sts[0].discover(&[&cols]);
        assert_eq!(blocks.len(), grid.cols());
        for (m, block) in blocks.iter().enumerate() {
            for &u in block {
                assert_eq!(g.partition.block_col_of(u), m);
                // Fold destination shares the grid row with rank 0.
                let dest = grid.rank_of(grid.row_of(0), m);
                assert!(g.partition.owned_range(dest).contains(&u));
            }
        }
        // Probes counted: at least one per input vertex.
        assert!(sts[0].probes >= cols.len() as u64);
    }

    #[test]
    fn sent_neighbors_suppresses_resends() {
        let g = setup(1, 2);
        let mut sts = states(&g, true);
        let cols: Vec<Vertex> = g.ranks[0].edges.cols().collect();
        let first = sts[0].discover(&[&cols]);
        let second = sts[0].discover(&[&cols]);
        let count = |bs: &[Vec<Vertex>]| bs.iter().map(Vec::len).sum::<usize>();
        assert!(count(&first) > 0);
        assert_eq!(count(&second), 0, "resends must be suppressed");

        // Without the cache the same neighbors are produced again.
        let mut no_cache = states(&g, false);
        let a = no_cache[0].discover(&[&cols]);
        let b = no_cache[0].discover(&[&cols]);
        assert_eq!(a, b);
        assert_eq!(a, first, "first pass matches cached first pass");

        // A later call over more columns emits every row of an earlier
        // call again without the cache, and none of them with it.
        let head = &cols[..cols.len() / 2];
        for use_sent in [false, true] {
            let mut st = states(&g, use_sent);
            let earlier = st[0].discover(&[head]);
            assert!(count(&earlier) > 0);
            let later = st[0].discover(&[&cols]);
            for (a, b) in earlier.iter().zip(&later) {
                assert!(a.iter().all(|u| b.binary_search(u).is_ok() != use_sent));
            }
        }
    }

    /// Rows of `lo..hi` in `marked`, the drain's expected block.
    fn marked_in(marked: &[u32], lo: u32, hi: u32) -> Vec<u32> {
        marked
            .iter()
            .copied()
            .filter(|rl| (lo..hi).contains(rl))
            .collect()
    }

    #[test]
    fn counted_drain_at_word_boundaries() {
        const ROWS: u32 = 150; // three words, the last one partial
        let patterns: [Vec<u32>; 4] = [
            (0..ROWS).collect(),
            Vec::new(),
            (0..ROWS).filter(|rl| rl % 3 == 0).collect(),
            vec![0, 2, 3, 63, 64, 69, 70, 127, 128, 133, 134, 149],
        ];
        let bounds_sets: [&[u32]; 4] = [
            // Mid-word ends and starts, an empty block, exactly 64
            // rows across a word boundary, a partial last word.
            &[0, 3, 70, 70, 134, ROWS],
            // Word-aligned blocks of exactly 64 rows.
            &[0, 64, 128, ROWS],
            // Empty first and last blocks.
            &[0, 0, 1, 149, ROWS, ROWS],
            &[0, ROWS],
        ];
        for marked in &patterns {
            let mut marks = RowMarks::new(ROWS as usize);
            for &rl in marked {
                marks.mark(rl);
            }
            for bounds in bounds_sets {
                let mut drained = vec![Vec::new(); bounds.len() - 1];
                marks.drain(bounds, |m, rl| drained[m].push(rl));
                for (m, b) in bounds.windows(2).enumerate() {
                    let want = marked_in(marked, b[0], b[1]);
                    let mut walked = Vec::new();
                    marks.rows_in(b[0], b[1], |rl| walked.push(rl));
                    assert_eq!(walked, want, "block {m} of {bounds:?}");
                    assert_eq!(
                        marks.count(b[0], b[1]),
                        want.len(),
                        "count {m} of {bounds:?}"
                    );
                    assert_eq!(drained[m], want, "drain block {m} of {bounds:?}");
                }
            }
        }
    }

    #[test]
    fn fixed_width_marking_packs_to_row_by_row_marks() {
        // Columns shorter than, exactly and longer than the fixed step,
        // and one crossing three word boundaries; 300 rows end mid-word.
        let long: Vec<u32> = (0..140).map(|k| k * 2 + 1).collect();
        let columns: [&[u32]; 9] = [
            &[],
            &[5],
            &[5, 70],
            &[0, 63, 64],
            &[1, 2, 3, 200],
            &[7, 8, 64, 128, 255],
            &[9, 10, 11, 12, 13, 250],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 56, 57, 63, 299],
            &long,
        ];
        for rows in columns {
            let (mut bytes, mut bits) = (RowBytes::new(300), RowMarks::new(300));
            bytes.mark_rows(rows);
            for &rl in rows {
                bits.mark(rl);
            }
            assert_eq!(bytes.pack().0, bits.0, "{rows:?}");
        }
    }

    #[test]
    fn claim_keeps_unsent_rows_and_records_them() {
        let mut sent = RowMarks::new(130);
        for rl in [1, 64, 129] {
            sent.mark(rl);
        }
        let mut marks = RowMarks::new(130);
        for rl in [0, 1, 63, 64, 128, 129] {
            marks.mark(rl);
        }
        marks.claim(&mut sent.0);
        let mut left = Vec::new();
        marks.drain(&[0, 130], |_, rl| left.push(rl));
        assert_eq!(left, [0, 63, 128]);
        let mut now_sent = Vec::new();
        sent.drain(&[0, 130], |_, rl| now_sent.push(rl));
        assert_eq!(now_sent, [0, 1, 63, 64, 128, 129]);
    }

    #[test]
    fn absorb_labels_once() {
        let g = setup(2, 2);
        let mut sts = states(&g, true);
        let range = g.ranks[0].owned.clone();
        let vs: Vec<Vertex> = range.clone().take(4).collect();
        let newly = sts[0].absorb(&[&vs], 3);
        assert_eq!(newly, 4);
        assert_eq!(sts[0].frontier, vs);
        // Absorbing again labels nothing new.
        let again = sts[0].absorb(&[&vs], 4);
        assert_eq!(again, 0);
        assert!(sts[0].frontier.is_empty());
        for &v in &vs {
            assert_eq!(sts[0].level_of(v), Some(3));
        }
    }

    #[test]
    fn absorb_set_matches_absorb_list() {
        let g = setup(2, 2);
        let range = g.ranks[0].owned.clone();
        let vs: Vec<Vertex> = range.clone().step_by(2).collect();
        for set in [VertSet::from_sorted(vs.clone()), {
            let mut s = VertSet::from_sorted(vs.clone());
            s.maybe_densify(&bgl_comm::VsetPolicy::hybrid());
            s
        }] {
            let mut by_list = states(&g, true);
            let mut by_set = states(&g, true);
            let a = by_list[0].absorb(&[&vs], 2);
            let b = by_set[0].absorb_set(&set, 2);
            assert_eq!(a, b);
            assert_eq!(by_list[0].levels, by_set[0].levels);
            assert_eq!(by_list[0].frontier, by_set[0].frontier);
            assert_eq!(by_list[0].probes, by_set[0].probes);
        }
    }

    #[test]
    fn gather_levels_reassembles() {
        let g = setup(2, 3);
        let mut sts = states(&g, true);
        for st in sts.iter_mut() {
            let vs: Vec<Vertex> = st.rank_graph().owned.clone().collect();
            st.absorb(&[&vs], 7);
        }
        let levels = gather_levels(&sts, g.spec.n);
        assert_eq!(levels.len(), 120);
        assert!(levels.iter().all(|&l| l == 7));
    }

    #[test]
    fn bottom_up_matches_top_down_full_walk() {
        // On a single rank F̄ is the rank's own frontier, so the two
        // kernels can be walked side by side:
        // every level must produce the identical next frontier and the
        // identical final level array, with and without the sent cache.
        for use_sent in [true, false] {
            let g = setup(1, 1);
            let mut td = states(&g, use_sent);
            let mut bu = states(&g, use_sent);
            td[0].init_source(5);
            bu[0].init_source(5);
            for level in 1..=64 {
                if td[0].frontier.is_empty() {
                    break;
                }
                let f = td[0].frontier.clone();
                let td_blocks = td[0].discover(&[&f]);
                td[0].absorb(&[&td_blocks[0]], level);
                let f = bu[0].frontier.clone();
                let bu_blocks = bu[0].discover_bottom_up(&[&f]);
                bu[0].absorb(&[&bu_blocks[0]], level);
                assert_eq!(td[0].frontier, bu[0].frontier, "level {level}");
            }
            assert!(td[0].frontier.is_empty());
            assert_eq!(td[0].levels, bu[0].levels, "use_sent={use_sent}");
            assert!(td[0].reached() > 1);
        }
    }

    #[test]
    fn bottom_up_emits_each_row_once_with_cache() {
        let g = setup(2, 2);
        let mut sts = states(&g, true);
        let all: Vec<Vertex> = g.ranks[0].edges.cols().collect();
        let first = sts[0].discover_bottom_up(&[&all]);
        let count = |bs: &[Vec<Vertex>]| bs.iter().map(Vec::len).sum::<usize>();
        assert!(count(&first) > 0);
        // Every stored row has some stored column, and every stored
        // column is in the probe set, so the first pass emits every row
        // and the second pass finds nothing left.
        assert_eq!(count(&first), g.ranks[0].edges.num_row_ids());
        let second = sts[0].discover_bottom_up(&[&all]);
        assert_eq!(count(&second), 0);
        assert_eq!(sts[0].unexplored(), 0);
    }

    #[test]
    fn unexplored_tracks_sent_rows() {
        let g = setup(1, 2);
        let entries = g.ranks[0].edges.num_entries() as u64;
        let mut sts = states(&g, true);
        assert_eq!(sts[0].unexplored(), entries);
        let cols: Vec<Vertex> = g.ranks[0].edges.cols().collect();
        let blocks = sts[0].discover(&[&cols]);
        let emitted: u64 = blocks
            .iter()
            .flatten()
            .map(|&u| {
                let rl = g.ranks[0].edges.row_local(u).unwrap();
                u64::from(g.ranks[0].edges.row_degree(rl))
            })
            .sum();
        assert_eq!(sts[0].unexplored(), entries - emitted);

        // With the cache off the counter stays put (documented
        // over-estimate; the adaptive heuristic then never switches).
        let mut off = states(&g, false);
        let _ = off[0].discover(&[&cols]);
        assert_eq!(off[0].unexplored(), entries);
    }

    #[test]
    fn frontier_degree_sums_stored_lists() {
        let g = setup(2, 2);
        let mut sts = states(&g, true);
        let vs: Vec<Vertex> = g.ranks[0].owned.clone().take(6).collect();
        sts[0].absorb(&[&vs], 1);
        let expect: u64 = vs
            .iter()
            .map(|&v| g.ranks[0].edges.neighbors_of(v).len() as u64)
            .sum();
        assert_eq!(sts[0].frontier_degree(), expect);
        let probes_before = sts[0].probes;
        let _ = sts[0].frontier_degree();
        assert_eq!(sts[0].probes, probes_before, "heuristic is uncharged");
    }

    /// Record row-local id `rl` in the sent cache and retire its entries
    /// from the unexplored count.
    fn set_sent(st: &mut RankState<'_>, rl: u32) {
        st.sent[rl as usize / 64] |= 1 << (rl % 64);
        st.unexplored -= u64::from(st.rg.edges.row_degree(rl));
    }

    /// Top-down discover as it ran on the hash-mapped layout: look each
    /// entry's row up with `row_local`, route it with `block_col_of`,
    /// then sort and deduplicate every block.
    fn hashed_discover(
        st: &mut RankState<'_>,
        partition: &TwoDPartition,
        fbar_lists: &[&[Vertex]],
    ) -> Vec<Vec<Vertex>> {
        let edges = &st.rg.edges;
        let mut blocks: Vec<Vec<Vertex>> = vec![Vec::new(); partition.cols()];
        for list in fbar_lists {
            for &v in *list {
                st.probes += 1;
                if edges.col_local(v).is_none() {
                    continue;
                }
                for u in edges.neighbors_of(v) {
                    st.probes += 1;
                    if !st.sent.is_empty() {
                        let rl = edges.row_local(u).unwrap();
                        if st.is_sent(rl) {
                            continue;
                        }
                        set_sent(st, rl);
                    }
                    blocks[partition.block_col_of(u)].push(u);
                }
            }
        }
        for b in blocks.iter_mut() {
            b.sort_unstable();
            b.dedup();
        }
        blocks
    }

    /// Bottom-up discover routing every emitted row with `block_col_of`.
    fn hashed_bottom_up(
        st: &mut RankState<'_>,
        partition: &TwoDPartition,
        frontier: &VertSet,
    ) -> Vec<Vec<Vertex>> {
        let edges = &st.rg.edges;
        let mut blocks: Vec<Vec<Vertex>> = vec![Vec::new(); partition.cols()];
        for rl in 0..edges.num_row_ids() as u32 {
            if st.is_sent(rl) {
                continue;
            }
            let u = edges.row_of_local(rl);
            if st.level_of(u).is_some() {
                continue;
            }
            let mut parented = false;
            for &ci in edges.cols_of_row_local(rl) {
                st.probes += 1;
                if frontier.contains(edges.col_of_local(ci)) {
                    parented = true;
                    break;
                }
            }
            if parented {
                if !st.sent.is_empty() {
                    set_sent(st, rl);
                }
                blocks[partition.block_col_of(u)].push(u);
            }
        }
        blocks
    }

    fn assert_same_state(a: &RankState<'_>, b: &RankState<'_>, what: &str) {
        assert_eq!(a.probes, b.probes, "{what}");
        assert_eq!(a.sent, b.sent, "{what}");
        assert_eq!(a.unexplored, b.unexplored, "{what}");
    }

    #[test]
    fn discover_matches_hashed_discover_on_chosen_columns() {
        // An R-MAT rank stores short columns, hub columns of well over
        // 130 entries and, within its block column, vertices it stores
        // no list for (the all-gather expands deliver those too).
        let g = DistGraph::build(GraphSpec::rmat(1 << 12, 16.0, 3), ProcessorGrid::new(2, 2));
        let rg = &g.ranks[0];
        let edges = &rg.edges;
        let len_of = |v: Vertex| edges.col_local(v).map_or(0, |ci| edges.rows_of(ci).len());
        let by_len = |want: usize| {
            let v = edges.cols().find(|&v| len_of(v) == want);
            v.unwrap_or_else(|| panic!("no stored column of length {want}"))
        };
        let short: Vec<Vertex> = (1..=5).map(by_len).collect();
        let hub = edges.cols().max_by_key(|&v| len_of(v)).unwrap();
        let hub_rows = edges.rows_of(edges.col_local(hub).unwrap());
        assert!(hub_rows.len() >= 130, "hub column of {}", hub_rows.len());
        assert!(hub_rows[hub_rows.len() - 1] / 64 > hub_rows[0] / 64 + 1);
        let (j, cols) = (g.grid().col_of(0), g.grid().cols());
        let unstored: Vec<Vertex> = (0..g.spec.n)
            .filter(|&v| g.partition.block_col_of(v) == j && edges.col_local(v).is_none())
            .take(3)
            .collect();
        assert!(!unstored.is_empty() && cols > 1);
        // A later call overlaps the earlier ones, so the cache drops rows.
        let mut all = short.clone();
        all.extend([hub]);
        all.extend(&unstored);
        all.sort_unstable();
        let calls: [Vec<&[Vertex]>; 6] = [
            vec![],
            vec![&[]],
            vec![&short, &[], &unstored],
            vec![std::slice::from_ref(&hub)],
            vec![&unstored],
            vec![&all, &short],
        ];
        for use_sent in [true, false] {
            let mut st = RankState::new(rg, g.partition, use_sent);
            let mut hashed = st.clone();
            for (k, lists) in calls.iter().enumerate() {
                let what = format!("call {k} sent={use_sent}");
                let blocks = st.discover(lists);
                assert_eq!(
                    blocks,
                    hashed_discover(&mut hashed, &g.partition, lists),
                    "{what}"
                );
                assert_same_state(&st, &hashed, &what);
                assert!(
                    blocks.iter().all(|b| b.capacity() == b.len()),
                    "{what}: exact size"
                );
            }
            // One probe per F̄ vertex plus one per stored entry.
            let stored = |vs: &[Vertex]| vs.iter().map(|&v| 1 + len_of(v) as u64).sum::<u64>();
            let want = 3 * stored(&short) + 3 * stored(&unstored) + 2 * stored(&[hub]);
            assert_eq!(st.probes, want, "sent={use_sent}");
        }
    }

    #[test]
    fn discover_kernels_match_hashed_kernels_at_every_level() {
        // A whole search driven level by level: at every level every
        // rank's top-down and bottom-up discover must equal the hashed
        // kernels' blocks, probes, sent cache and unexplored count.
        for spec in [
            GraphSpec::poisson(3_000, 8.0, 4),
            GraphSpec::rmat(1 << 12, 8.0, 6),
        ] {
            // One block column, many block columns, then both axes.
            for grid in [
                ProcessorGrid::new(1, 1),
                ProcessorGrid::new(1, 8),
                ProcessorGrid::new(3, 5),
                ProcessorGrid::new(8, 8),
            ] {
                let g = DistGraph::build(spec, grid);
                for use_sent in [true, false] {
                    let what = format!("{:?} {grid:?} sent={use_sent}", spec.family);
                    assert!(walk_levels(&g, use_sent, 1) > 2, "{what}");
                }
            }
        }
    }

    /// Drive a search from `source` by hand, checking the kernels at
    /// every level; returns the number of levels. Both kernels take the
    /// rank's targeted F̄; the bottom-up oracle tests membership in the
    /// whole column frontier instead.
    fn walk_levels(g: &DistGraph, use_sent: bool, source: Vertex) -> u32 {
        let grid = g.grid();
        let p = grid.len();
        let mut sts = states(g, use_sent);
        for st in sts.iter_mut() {
            st.init_source(source);
        }
        let mut level = 1;
        loop {
            let mut fbar: Vec<Vec<Vec<Vertex>>> = vec![Vec::new(); p];
            for st in sts.iter_mut() {
                for (peer, list) in st.expand_sends_targeted() {
                    fbar[peer].push(list);
                }
            }
            if fbar.iter().all(Vec::is_empty) {
                return level;
            }
            let mut column_frontier: Vec<Vec<Vertex>> = vec![Vec::new(); grid.cols()];
            for (rank, st) in sts.iter().enumerate() {
                column_frontier[grid.col_of(rank)].extend(&st.frontier);
            }
            let mut nbar: Vec<Vec<Vec<Vertex>>> = vec![Vec::new(); p];
            for (rank, st) in sts.iter_mut().enumerate() {
                let what = format!("level {level} rank {rank}");
                let lists: Vec<&[Vertex]> = fbar[rank].iter().map(Vec::as_slice).collect();
                let mut frontier = column_frontier[grid.col_of(rank)].clone();
                frontier.sort_unstable();
                let frontier = VertSet::from_sorted(frontier);
                let (mut bu, mut bu_hashed) = (st.clone(), st.clone());
                let bu_blocks = bu.discover_bottom_up(&lists);
                assert_eq!(
                    bu_blocks,
                    hashed_bottom_up(&mut bu_hashed, &g.partition, &frontier),
                    "bottom-up {what}"
                );
                assert_same_state(&bu, &bu_hashed, &what);

                let mut hashed = st.clone();
                let want = hashed_discover(&mut hashed, &g.partition, &lists);
                let blocks = st.discover(&lists);
                assert_eq!(blocks, want, "top-down {what}");
                assert_same_state(st, &hashed, &what);
                let row = grid.row_of(rank);
                for (m, block) in blocks.into_iter().enumerate() {
                    nbar[grid.rank_of(row, m)].push(block);
                }
            }
            for (rank, st) in sts.iter_mut().enumerate() {
                let lists: Vec<&[Vertex]> = nbar[rank].iter().map(Vec::as_slice).collect();
                st.absorb(&lists, level);
            }
            level += 1;
        }
    }

    #[test]
    fn probes_taken_and_reset() {
        let g = setup(1, 1);
        let mut sts = states(&g, true);
        let cols: Vec<Vertex> = g.ranks[0].edges.cols().collect();
        let _ = sts[0].discover(&[&cols]);
        assert!(sts[0].probes > 0);
        let p = sts[0].take_probes();
        assert!(p > 0);
        assert_eq!(sts[0].probes, 0);
    }
}
