//! Per-rank storage of partial edge lists (paper §2.4.1–§2.4.2).
//!
//! A rank in the 2D partition holds, for each vertex `v` of its block
//! column, the *partial edge list* of `v` — the rows of its stored
//! adjacency-matrix blocks where column `v` is nonzero. Two observations
//! from the paper shape the data structure:
//!
//! * §2.4.1 — although a rank's block column spans `O(n/C)` vertices,
//!   only `O(n/P)` of the partial edge lists are non-empty, so "it is
//!   necessary not to index all edge lists, but only the non-empty ones":
//!   the storage is a CSR over the non-empty columns only — the `JC`/`CP`
//!   arrays of Buluç & Madduri's doubly compressed sparse columns (DCSC)
//!   for hypersparse blocks;
//! * §2.4.2 — global vertex indices are mapped to dense local indices.
//!   Two of the paper's three mappings live here: columns with non-empty
//!   lists, and the unique vertices appearing *in* lists (both `O(n/P)`
//!   in expectation, §2.4.1). The third mapping (owned vertices) lives
//!   with the BFS state, where owned ranges are contiguous.
//!
//! The paper implements the mappings as hash tables. Here both are rank
//! queries over the sorted ids — a bitmap over the ids' span with a
//! popcount prefix per word, or a bisection of the sorted ids when they
//! are too sparse for a bitmap — and the lists store *row-local* `u32`
//! ids, so walking a list needs no lookup at all. The column and row
//! offsets are `u32` as well, so each index costs four bytes per
//! non-empty column or row vertex. The simulated clock
//! still charges the paper's hash probes (`SimWorld::hash_phase` in
//! `bgl-comm`); only the host layout differs.

use crate::Vertex;

/// CSR-like storage of the non-empty partial edge lists on one rank.
/// Local ids are `u32`: a rank holds fewer than 2^32 distinct columns
/// and rows. Offsets are `u32` too: a rank stores fewer than 2^32
/// entries, which the builder checks before it counts them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartialEdgeLists {
    /// Non-empty columns (global vertex ids), sorted ascending.
    cols: Vec<Vertex>,
    /// `offsets[i]..offsets[i+1]` indexes `rows` for `cols[i]`.
    offsets: Vec<u32>,
    /// Row-local ids of each column's entries, ascending within a column.
    rows: Vec<u32>,
    /// §2.4.2 mapping: global column id → column-local index in `cols`.
    col_rank: DenseIds,
    /// Unique vertices appearing in any edge list, sorted ascending:
    /// row-local id `rl` is vertex `row_ids[rl]`.
    row_ids: Vec<Vertex>,
    /// §2.4.2 mapping: global row id → row-local index in `row_ids`.
    row_rank: DenseIds,
    /// Row-major (transposed) view: `row_offsets[rl]..row_offsets[rl+1]`
    /// indexes `row_cols` for row-local id `rl`. Lets a bottom-up
    /// traversal scan a stored row's columns without probing the
    /// column-major CSR once per entry.
    row_offsets: Vec<u32>,
    /// Column-local ids of each row's entries, ascending within a row.
    row_cols: Vec<u32>,
}

impl PartialEdgeLists {
    /// Build from raw adjacency entries `(row, col)`, in any order.
    /// Duplicates (e.g. R-MAT multi-edges) are collapsed. The one-piece
    /// form of the builder's `from_pieces`.
    pub fn from_entries(entries: Vec<(Vertex, Vertex)>) -> Self {
        Self::from_pieces(vec![entries])
    }

    /// Build from adjacency entries `(row, col)` handed over in pieces
    /// (the builder passes one per generation chunk), in any order and
    /// with duplicates allowed. Each piece is freed once it is placed.
    ///
    /// The CSR is column-major because edge lists are matrix columns
    /// (§2.2). A counting sort over the entries' column span places
    /// every row in its column's slot; each non-empty column's rows are
    /// then sorted and deduplicated in place. Row-local ids come from a
    /// rank query over the distinct rows, so the transposed index needs
    /// neither a sort nor a hash probe.
    pub(crate) fn from_pieces(pieces: Vec<Vec<(Vertex, Vertex)>>) -> Self {
        let total: usize = pieces.iter().map(Vec::len).sum();
        assert!(
            u32::try_from(total).is_ok(),
            "a rank stores fewer than 2^32 adjacency entries"
        );
        let keys = ColumnKeys::new(pieces.iter().flatten().map(|&(_, c)| c));

        // Counting sort by column key: count, prefix-sum, scatter. The
        // scatter advances `ends[k]` from the start to the end of key
        // `k`'s slot.
        let mut ends = vec![0u32; keys.len() + 1];
        for &(_, c) in pieces.iter().flatten() {
            ends[keys.key(c) + 1] += 1;
        }
        for i in 1..ends.len() {
            ends[i] += ends[i - 1];
        }
        let num_cols = ends.windows(2).filter(|w| w[1] > w[0]).count();
        let mut global_rows: Vec<Vertex> = vec![0; total];
        for piece in pieces {
            for (u, c) in piece {
                let k = keys.key(c);
                global_rows[ends[k] as usize] = u;
                ends[k] += 1;
            }
        }

        // Sort and deduplicate each non-empty column's rows, compacting
        // in place.
        let mut cols: Vec<Vertex> = Vec::with_capacity(num_cols);
        let mut offsets: Vec<u32> = Vec::with_capacity(num_cols + 1);
        offsets.push(0);
        let (mut start, mut kept) = (0, 0u32);
        for (k, &end) in ends[..keys.len()].iter().enumerate() {
            let end = end as usize;
            if end > start {
                global_rows[start..end].sort_unstable();
                for i in start..end {
                    if i == start || global_rows[i] != global_rows[i - 1] {
                        global_rows[kept as usize] = global_rows[i];
                        kept += 1;
                    }
                }
                cols.push(keys.column(k));
                offsets.push(kept);
            }
            start = end;
        }
        debug_assert_eq!(cols.len(), num_cols);
        drop(ends);
        drop(keys);
        global_rows.truncate(kept as usize);
        let col_rank = DenseIds::new(cols.iter().copied());

        let row_rank = DenseIds::new(global_rows.iter().copied());
        let row_ids = row_rank.members(global_rows.iter().copied());
        let rows: Vec<u32> = global_rows
            .iter()
            .map(|&u| row_rank.rank(&row_ids, u))
            .collect();
        drop(global_rows);

        // Transposed index by count / prefix-sum / fill. Columns are
        // visited in ascending order, so each row's column list comes
        // out ascending without a sort.
        let mut row_offsets = vec![0u32; row_ids.len() + 1];
        for &rl in &rows {
            row_offsets[rl as usize + 1] += 1;
        }
        for i in 1..row_offsets.len() {
            row_offsets[i] += row_offsets[i - 1];
        }
        let mut row_cols = vec![0u32; rows.len()];
        let mut cursor = row_offsets.clone();
        for (ci, w) in (0u32..).zip(offsets.windows(2)) {
            for &rl in &rows[w[0] as usize..w[1] as usize] {
                row_cols[cursor[rl as usize] as usize] = ci;
                cursor[rl as usize] += 1;
            }
        }

        Self {
            cols,
            offsets,
            rows,
            col_rank,
            row_ids,
            row_rank,
            row_offsets,
            row_cols,
        }
    }

    /// Number of non-empty columns (partial edge lists) stored.
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Number of stored adjacency entries.
    pub fn num_entries(&self) -> usize {
        self.rows.len()
    }

    /// Number of unique vertices appearing in edge lists.
    pub fn num_row_ids(&self) -> usize {
        self.row_ids.len()
    }

    /// The non-empty columns, sorted ascending.
    pub fn cols(&self) -> &[Vertex] {
        &self.cols
    }

    /// The unique row vertices, sorted ascending.
    pub fn row_ids(&self) -> &[Vertex] {
        &self.row_ids
    }

    /// Dense local index of column `v`, if its list is non-empty (the
    /// lookup the paper's profile is made of, answered by a rank query).
    #[inline]
    pub fn col_local(&self, v: Vertex) -> Option<u32> {
        self.col_rank.get(&self.cols, v)
    }

    /// Dense local index of a row vertex `u`, if it appears in any list.
    #[inline]
    pub fn row_local(&self, u: Vertex) -> Option<u32> {
        self.row_rank.get(&self.row_ids, u)
    }

    /// Row-local ids of column-local index `ci`'s entries, ascending.
    #[inline]
    pub fn rows_of(&self, ci: u32) -> &[u32] {
        let ci = ci as usize;
        &self.rows[self.offsets[ci] as usize..self.offsets[ci + 1] as usize]
    }

    /// The partial edge list of global vertex `v`, as ascending global
    /// row ids (empty if none).
    pub fn neighbors_of(&self, v: Vertex) -> impl ExactSizeIterator<Item = Vertex> + '_ {
        let rows = self.col_local(v).map_or(&[][..], |ci| self.rows_of(ci));
        self.globals(rows)
    }

    /// Column-local ids stored for row-local id `rl`, ascending — the
    /// row-major access a bottom-up discover scans (§2.4.2's third view:
    /// "which of my columns can parent this row").
    #[inline]
    pub fn cols_of_row_local(&self, rl: u32) -> &[u32] {
        let rl = rl as usize;
        &self.row_cols[self.row_offsets[rl] as usize..self.row_offsets[rl + 1] as usize]
    }

    /// Number of stored entries in row-local id `rl` (its local degree).
    #[inline]
    pub fn row_degree(&self, rl: u32) -> u32 {
        let rl = rl as usize;
        self.row_offsets[rl + 1] - self.row_offsets[rl]
    }

    /// Global column id of column-local index `ci`.
    #[inline]
    pub fn col_of_local(&self, ci: u32) -> Vertex {
        self.cols[ci as usize]
    }

    /// Global row id of row-local index `rl`.
    #[inline]
    pub fn row_of_local(&self, rl: u32) -> Vertex {
        self.row_ids[rl as usize]
    }

    /// Iterate `(column, partial edge list)` pairs in column order, each
    /// list as ascending global row ids.
    pub fn iter_cols(
        &self,
    ) -> impl Iterator<Item = (Vertex, impl ExactSizeIterator<Item = Vertex> + '_)> + '_ {
        self.cols
            .iter()
            .zip(self.offsets.windows(2))
            .map(move |(&c, w)| (c, self.globals(&self.rows[w[0] as usize..w[1] as usize])))
    }

    /// Global ids of row-local ids.
    fn globals<'a>(&'a self, rows: &'a [u32]) -> impl ExactSizeIterator<Item = Vertex> + 'a {
        rows.iter().map(|&rl| self.row_ids[rl as usize])
    }

    /// Approximate resident bytes of the host layout (entries, indexes
    /// and the rank-query bitmaps), for the memory scalability checks.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.rows.len() + self.row_cols.len()) * size_of::<u32>()
            + (self.cols.len() + self.row_ids.len()) * (size_of::<Vertex>() + size_of::<u32>())
            + self.col_rank.approx_bytes()
            + self.row_rank.approx_bytes()
    }
}

/// The keys `from_pieces` counting-sorts columns by, in column order.
enum ColumnKeys {
    /// `c - lo` over the column span: every builder caller's span is at
    /// most ⌈n/C⌉, a rank's block column. The key space includes the
    /// span's empty columns.
    Span { lo: Vertex, len: usize },
    /// Position among the sorted distinct columns, for spans too wide
    /// to count over.
    Sorted(Vec<Vertex>),
}

impl ColumnKeys {
    fn new(cols: impl Iterator<Item = Vertex> + Clone) -> Self {
        match span_of(cols.clone()) {
            Some((lo, len, count)) if len <= 4 * count + 4096 => Self::Span {
                lo,
                len: len as usize,
            },
            _ => Self::Sorted(sorted_distinct(cols)),
        }
    }

    /// Size of the key space.
    fn len(&self) -> usize {
        match self {
            Self::Span { len, .. } => *len,
            Self::Sorted(cols) => cols.len(),
        }
    }

    fn key(&self, c: Vertex) -> usize {
        match self {
            Self::Span { lo, .. } => (c - lo) as usize,
            Self::Sorted(cols) => cols.partition_point(|&m| m < c),
        }
    }

    /// The column with key `k`.
    fn column(&self, k: usize) -> Vertex {
        match self {
            Self::Span { lo, .. } => lo + k as Vertex,
            Self::Sorted(cols) => cols[k],
        }
    }
}

/// `(min, max - min + 1, count)` of a non-empty sequence.
fn span_of(values: impl Iterator<Item = Vertex>) -> Option<(Vertex, u64, u64)> {
    let (mut lo, mut hi, mut count) = (Vertex::MAX, 0, 0u64);
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
        count += 1;
    }
    (count > 0).then(|| (lo, (hi - lo).saturating_add(1), count))
}

fn sorted_distinct(values: impl Iterator<Item = Vertex>) -> Vec<Vertex> {
    let mut out: Vec<Vertex> = values.collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Dense, order-preserving ids for a set of vertices (the §2.4.2
/// mappings): a member's id is the number of smaller members. When the
/// members' span needs at most about one 64-bit word per value, a
/// bitmap over the span answers with a per-word popcount prefix; wider
/// spans (sparse or far-apart values) bisect the sorted members, which
/// the owner keeps anyway, so no second copy is stored.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
enum DenseIds {
    Bitmap {
        lo: Vertex,
        words: Vec<u64>,
        /// Members in all earlier words.
        before: Vec<u32>,
    },
    #[default]
    Sorted,
}

impl DenseIds {
    /// Index the distinct values of `values` (which may repeat).
    fn new(values: impl Iterator<Item = Vertex> + Clone) -> Self {
        let Some((lo, span, count)) = span_of(values.clone()) else {
            return Self::Sorted;
        };
        let num_words = span.div_ceil(64);
        if num_words > count + 64 {
            return Self::Sorted;
        }
        let mut words = vec![0u64; num_words as usize];
        for v in values {
            let d = v - lo;
            words[(d / 64) as usize] |= 1u64 << (d % 64);
        }
        let mut before = Vec::with_capacity(words.len());
        let mut total = 0;
        for w in &words {
            before.push(total);
            total += w.count_ones();
        }
        Self::Bitmap { lo, words, before }
    }

    /// The distinct values of `values` ascending: the members of the
    /// index `DenseIds::new(values)` built.
    fn members(&self, values: impl Iterator<Item = Vertex>) -> Vec<Vertex> {
        match self {
            Self::Bitmap { lo, words, before } => {
                let len = before.last().zip(words.last());
                let len = len.map_or(0, |(&b, w)| (b + w.count_ones()) as usize);
                let mut out = Vec::with_capacity(len);
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        out.push(lo + (w as u64) * 64 + Vertex::from(bits.trailing_zeros()));
                        bits &= bits - 1;
                    }
                }
                out
            }
            Self::Sorted => sorted_distinct(values),
        }
    }

    /// Dense id of member `v` of `members` (meaningless for non-members).
    fn rank(&self, members: &[Vertex], v: Vertex) -> u32 {
        match self {
            Self::Bitmap { lo, words, before } => {
                let d = v - lo;
                let w = (d / 64) as usize;
                let below = words[w] & ((1u64 << (d % 64)) - 1);
                before[w] + below.count_ones()
            }
            Self::Sorted => members.partition_point(|&m| m < v) as u32,
        }
    }

    /// Dense id of `v` if it is one of `members`.
    #[inline]
    fn get(&self, members: &[Vertex], v: Vertex) -> Option<u32> {
        match self {
            Self::Bitmap { lo, words, before } => {
                let d = v.checked_sub(*lo)?;
                let w = usize::try_from(d / 64).ok()?;
                let bit = 1u64 << (d % 64);
                let word = *words.get(w)?;
                (word & bit != 0).then(|| before[w] + (word & (bit - 1)).count_ones())
            }
            Self::Sorted => members.binary_search(&v).ok().map(|i| i as u32),
        }
    }

    /// Resident bytes of the index beyond the members themselves.
    fn approx_bytes(&self) -> usize {
        match self {
            Self::Bitmap { words, before, .. } => {
                words.len() * std::mem::size_of::<u64>() + before.len() * std::mem::size_of::<u32>()
            }
            Self::Sorted => 0,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The sort-plus-hash-map layout the rank queries replaced, kept as
    /// a query-level oracle: sort `(col, row)` tuples, deduplicate, cut
    /// columns, index the sorted distinct rows, and map both id sets
    /// with hash maps.
    pub(crate) struct Oracle {
        cols: Vec<Vertex>,
        offsets: Vec<usize>,
        rows: Vec<Vertex>,
        col_index: HashMap<Vertex, u32>,
        row_ids: Vec<Vertex>,
        row_index: HashMap<Vertex, u32>,
        row_offsets: Vec<usize>,
        row_cols: Vec<u32>,
    }

    impl Oracle {
        pub(crate) fn new(mut entries: Vec<(Vertex, Vertex)>) -> Self {
            entries.sort_unstable_by_key(|a| (a.1, a.0));
            entries.dedup();
            let mut cols: Vec<Vertex> = Vec::new();
            let mut offsets: Vec<usize> = vec![0];
            let mut rows: Vec<Vertex> = Vec::with_capacity(entries.len());
            for (row, col) in entries {
                if cols.last() != Some(&col) {
                    if !cols.is_empty() {
                        offsets.push(rows.len());
                    }
                    cols.push(col);
                }
                rows.push(row);
            }
            if !cols.is_empty() {
                offsets.push(rows.len());
            }
            let col_index: HashMap<Vertex, u32> = cols
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i as u32))
                .collect();
            let row_ids = sorted_distinct(rows.iter().copied());
            let row_index: HashMap<Vertex, u32> = row_ids
                .iter()
                .enumerate()
                .map(|(i, &r)| (r, i as u32))
                .collect();
            let mut row_offsets = vec![0usize; row_ids.len() + 1];
            for &u in &rows {
                row_offsets[row_index[&u] as usize + 1] += 1;
            }
            for i in 1..row_offsets.len() {
                row_offsets[i] += row_offsets[i - 1];
            }
            let mut row_cols = vec![0u32; rows.len()];
            let mut cursor = row_offsets.clone();
            for ci in 0..cols.len() {
                for &u in &rows[offsets[ci]..offsets[ci + 1]] {
                    let rl = row_index[&u] as usize;
                    row_cols[cursor[rl]] = ci as u32;
                    cursor[rl] += 1;
                }
            }
            Self {
                cols,
                offsets,
                rows,
                col_index,
                row_ids,
                row_index,
                row_offsets,
                row_cols,
            }
        }

        /// Assert that every query of `e` answers as the oracle does:
        /// column lists (by lookup, by local id and by iteration), the
        /// two id mappings for members and for non-members around
        /// every member and at the extremes, and the row-major view.
        pub(crate) fn assert_matches(&self, e: &PartialEdgeLists) {
            assert_eq!(e.cols(), self.cols.as_slice());
            assert_eq!(e.row_ids(), self.row_ids.as_slice());
            assert_eq!(e.num_cols(), self.cols.len());
            assert_eq!(e.num_row_ids(), self.row_ids.len());
            assert_eq!(e.num_entries(), self.rows.len());
            let lists: Vec<&[Vertex]> = self
                .offsets
                .windows(2)
                .map(|w| &self.rows[w[0]..w[1]])
                .collect();
            for (ci, (&c, &list)) in self.cols.iter().zip(&lists).enumerate() {
                assert!(e.neighbors_of(c).eq(list.iter().copied()), "column {c}");
                assert_eq!(e.col_of_local(ci as u32), c);
                let via_local = e.rows_of(ci as u32).iter().map(|&rl| e.row_of_local(rl));
                assert!(via_local.eq(list.iter().copied()), "column {c}");
            }
            assert!(e
                .iter_cols()
                .map(|(c, list)| (c, list.collect::<Vec<_>>()))
                .eq(self.cols.iter().zip(&lists).map(|(&c, l)| (c, l.to_vec()))));
            for probe in probes(&self.cols) {
                let want = self.col_index.get(&probe).copied();
                assert_eq!(e.col_local(probe), want, "col_local({probe})");
                if want.is_none() {
                    assert_eq!(e.neighbors_of(probe).len(), 0);
                }
            }
            for probe in probes(&self.row_ids) {
                let want = self.row_index.get(&probe).copied();
                assert_eq!(e.row_local(probe), want, "row_local({probe})");
            }
            for (rl, w) in self.row_offsets.windows(2).enumerate() {
                let rl = rl as u32;
                assert_eq!(e.cols_of_row_local(rl), &self.row_cols[w[0]..w[1]]);
                assert_eq!(e.row_degree(rl) as usize, w[1] - w[0]);
            }
        }
    }

    /// Every member, its neighbours at distance 1 and 64 (gaps and both
    /// ends of the span), and the extremes of the id space.
    fn probes(members: &[Vertex]) -> Vec<Vertex> {
        let mut out = vec![0, 1, Vertex::MAX - 1, Vertex::MAX];
        for &m in members {
            out.extend([m, m.wrapping_sub(1), m.wrapping_add(1)]);
            out.extend([m.wrapping_sub(64), m.wrapping_add(64)]);
        }
        out
    }

    /// Entries whose rows and columns are drawn from a window of `span`
    /// values starting at `base`, `len` of them (duplicates likely when
    /// the window is small).
    fn entries_in(base: u64, span: u64, len: usize, seed: u64) -> Vec<(Vertex, Vertex)> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 11
        };
        (0..len)
            .map(|_| {
                (
                    base.wrapping_add(next() % span),
                    base.wrapping_add(next() % span),
                )
            })
            .collect()
    }

    fn check(entries: Vec<(Vertex, Vertex)>) {
        Oracle::new(entries.clone()).assert_matches(&PartialEdgeLists::from_entries(entries));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn queries_match_hash_map_oracle(
            entries in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..40),
            small in proptest::collection::vec((0u64..6, 0u64..6), 0..60),
            one_col in proptest::collection::vec(0u64..1000, 0..50),
            col in any::<u64>(),
            span_log in 0u32..40,
            len in 0usize..400,
            base in any::<u64>(),
            seed in any::<u64>(),
            cut in 0usize..400,
        ) {
            // Arbitrary u64s: spans far too wide for a bitmap.
            check(entries);
            // A tiny window: heavy duplication.
            check(small);
            // Every entry in one column.
            check(one_col.iter().map(|&u| (u, col)).collect());
            // Windows from dense to sparse around an arbitrary base, split
            // into two pieces at an arbitrary point.
            let mixed = entries_in(base, 1u64 << span_log, len, seed);
            let (a, b) = mixed.split_at(cut.min(mixed.len()));
            let pieces = PartialEdgeLists::from_pieces(vec![a.to_vec(), Vec::new(), b.to_vec()]);
            Oracle::new(mixed.clone()).assert_matches(&pieces);
            prop_assert_eq!(pieces, PartialEdgeLists::from_entries(mixed));
        }

        #[test]
        fn dense_ids_get_matches_binary_search(
            values in proptest::collection::vec(0u64..3000, 0..200),
            base in any::<u64>(),
            stretch_log in 0u32..24,
            probe_values in proptest::collection::vec(any::<u64>(), 0..20),
        ) {
            // The same shape dense (a bitmap) and stretched apart (often
            // too sparse for one), shifted to an arbitrary base.
            for stretch in [1u64, 1 << stretch_log] {
                let vs: Vec<Vertex> = values
                    .iter()
                    .map(|&v| base.saturating_add(v * stretch))
                    .collect();
                let ids = DenseIds::new(vs.iter().copied());
                let members = ids.members(vs.iter().copied());
                prop_assert_eq!(&members, &sorted_distinct(vs.iter().copied()));
                let mut all = probes(&members);
                all.extend(&probe_values);
                for v in all {
                    let want = members.binary_search(&v).ok().map(|i| i as u32);
                    prop_assert_eq!(ids.get(&members, v), want, "get({})", v);
                    if let Some(i) = want {
                        prop_assert_eq!(ids.rank(&members, v), i);
                    }
                }
            }
        }
    }

    #[test]
    fn dense_ids_pick_both_representations() {
        let values = [9u64, 3, 3, 70, 200, 64, 9, 130];
        let bitmap = DenseIds::new(values.iter().copied());
        assert!(matches!(bitmap, DenseIds::Bitmap { .. }));
        let far = DenseIds::new(values.iter().map(|v| v * (1 << 40)));
        assert_eq!(far, DenseIds::Sorted);
        assert_eq!(far.approx_bytes(), 0);
        assert_eq!(DenseIds::new(std::iter::empty()), DenseIds::Sorted);
        assert_eq!(
            bitmap.members(values.iter().copied()),
            sorted_distinct(values.iter().copied())
        );
    }

    fn sample() -> PartialEdgeLists {
        // cols: 2 -> {5, 7}, 9 -> {1}, 4 -> {0, 1, 8}
        PartialEdgeLists::from_entries(vec![(7, 2), (5, 2), (1, 9), (0, 4), (8, 4), (1, 4)])
    }

    fn neighbors(e: &PartialEdgeLists, v: Vertex) -> Vec<Vertex> {
        e.neighbors_of(v).collect()
    }

    #[test]
    fn builds_sorted_csr() {
        let e = sample();
        assert_eq!(e.cols(), &[2, 4, 9]);
        assert_eq!(neighbors(&e, 2), [5, 7]);
        assert_eq!(neighbors(&e, 4), [0, 1, 8]);
        assert_eq!(neighbors(&e, 9), [1]);
        assert_eq!(e.rows_of(1), &[0, 1, 4]);
        assert_eq!(e.num_entries(), 6);
        assert_eq!(e.num_cols(), 3);
    }

    #[test]
    fn empty_columns_not_indexed() {
        let e = sample();
        assert_eq!(e.col_local(3), None);
        assert_eq!(e.neighbors_of(3).len(), 0);
        assert_eq!(e.col_local(2), Some(0));
        assert_eq!(e.col_local(4), Some(1));
    }

    #[test]
    fn row_ids_unique_sorted() {
        let e = sample();
        assert_eq!(e.row_ids(), &[0, 1, 5, 7, 8]);
        assert_eq!(e.num_row_ids(), 5);
        assert_eq!(e.row_local(1), Some(1));
        assert_eq!(e.row_local(6), None);
    }

    #[test]
    fn duplicates_collapsed() {
        let e = PartialEdgeLists::from_entries(vec![(1, 2), (1, 2), (1, 2), (3, 2)]);
        assert_eq!(neighbors(&e, 2), [1, 3]);
        assert_eq!(e.num_entries(), 2);
    }

    #[test]
    fn empty_input() {
        let e = PartialEdgeLists::from_entries(Vec::new());
        assert_eq!(e.num_cols(), 0);
        assert_eq!(e.num_entries(), 0);
        assert_eq!(e.neighbors_of(0).len(), 0);
        assert_eq!(e.row_local(0), None);
    }

    #[test]
    fn approx_bytes_positive_and_monotone() {
        let small = PartialEdgeLists::from_entries(vec![(1, 2)]);
        let big = sample();
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
