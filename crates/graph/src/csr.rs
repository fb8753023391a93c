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
//!   the storage is a CSR over the non-empty columns only;
//! * §2.4.2 — global vertex indices are mapped to dense local indices by
//!   hashing. Two of the paper's three hash mappings live here: columns
//!   with non-empty lists, and the unique vertices appearing *in* lists
//!   (both `O(n/P)` in expectation, §2.4.1). The third mapping (owned
//!   vertices) lives with the BFS state, where owned ranges are
//!   contiguous.
//!
//! The maps use FxHash — the paper profiles BFS as hash-dominated, and
//! the fast integer hasher is the guide-recommended choice.

use crate::Vertex;
use rustc_hash::FxHashMap;

/// CSR-like storage of the non-empty partial edge lists on one rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartialEdgeLists {
    /// Non-empty columns (global vertex ids), sorted ascending.
    cols: Vec<Vertex>,
    /// `offsets[i]..offsets[i+1]` indexes `rows` for `cols[i]`.
    offsets: Vec<usize>,
    /// Neighbor rows (global vertex ids), sorted within each column.
    rows: Vec<Vertex>,
    /// §2.4.2 mapping: global column id → dense local column index.
    col_index: FxHashMap<Vertex, u32>,
    /// Unique vertices appearing in any edge list, sorted ascending.
    row_ids: Vec<Vertex>,
    /// §2.4.2 mapping: global row id → dense local row index.
    row_index: FxHashMap<Vertex, u32>,
    /// Row-major (transposed) view: `row_offsets[rl]..row_offsets[rl+1]`
    /// indexes `row_cols` for row-local id `rl`. Lets a bottom-up
    /// traversal scan a stored row's columns without probing the
    /// column-major CSR once per entry.
    row_offsets: Vec<usize>,
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
    /// bitmap rank over the distinct rows, so the transposed index needs
    /// neither a sort nor a hash probe.
    pub(crate) fn from_pieces(pieces: Vec<Vec<(Vertex, Vertex)>>) -> Self {
        let keys = ColumnKeys::new(pieces.iter().flatten().map(|&(_, c)| c));

        // Counting sort by column key: count, prefix-sum, scatter. The
        // scatter advances `ends[k]` from the start to the end of key
        // `k`'s slot.
        let mut ends = vec![0usize; keys.len() + 1];
        for &(_, c) in pieces.iter().flatten() {
            ends[keys.key(c) + 1] += 1;
        }
        for i in 1..ends.len() {
            ends[i] += ends[i - 1];
        }
        let num_cols = ends.windows(2).filter(|w| w[1] > w[0]).count();
        let mut rows: Vec<Vertex> = vec![0; ends[keys.len()]];
        for piece in pieces {
            for (u, c) in piece {
                let k = keys.key(c);
                rows[ends[k]] = u;
                ends[k] += 1;
            }
        }

        // Sort and deduplicate each non-empty column's rows, compacting
        // in place.
        let mut cols: Vec<Vertex> = Vec::with_capacity(num_cols);
        let mut offsets: Vec<usize> = Vec::with_capacity(num_cols + 1);
        offsets.push(0);
        let (mut start, mut kept) = (0, 0);
        for (k, &end) in ends[..keys.len()].iter().enumerate() {
            if end > start {
                rows[start..end].sort_unstable();
                for i in start..end {
                    if i == start || rows[i] != rows[i - 1] {
                        rows[kept] = rows[i];
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
        rows.truncate(kept);
        rows.shrink_to_fit();

        let col_index: FxHashMap<Vertex, u32> = cols
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();

        let row_dense = DenseIds::new(rows.iter().copied());
        let row_ids = row_dense.members();
        let row_index: FxHashMap<Vertex, u32> = row_ids
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i as u32))
            .collect();

        // Transposed index by count / prefix-sum / fill. Columns are
        // visited in ascending order, so each row's column list comes
        // out ascending without a sort.
        let row_local: Vec<u32> = rows.iter().map(|&u| row_dense.rank(u) as u32).collect();
        let mut row_offsets = vec![0usize; row_ids.len() + 1];
        for &rl in &row_local {
            row_offsets[rl as usize + 1] += 1;
        }
        for i in 1..row_offsets.len() {
            row_offsets[i] += row_offsets[i - 1];
        }
        let mut row_cols = vec![0u32; rows.len()];
        let mut cursor = row_offsets.clone();
        for ci in 0..num_cols {
            for &rl in &row_local[offsets[ci]..offsets[ci + 1]] {
                row_cols[cursor[rl as usize]] = ci as u32;
                cursor[rl as usize] += 1;
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

    /// Dense local index of column `v`, if its list is non-empty
    /// (one hash probe — the operation the paper's profile is made of).
    pub fn col_local(&self, v: Vertex) -> Option<u32> {
        self.col_index.get(&v).copied()
    }

    /// Dense local index of a row vertex `u`, if it appears in any list.
    pub fn row_local(&self, u: Vertex) -> Option<u32> {
        self.row_index.get(&u).copied()
    }

    /// Neighbor rows of column local index `ci`.
    pub fn neighbors_by_local(&self, ci: u32) -> &[Vertex] {
        let ci = ci as usize;
        &self.rows[self.offsets[ci]..self.offsets[ci + 1]]
    }

    /// The partial edge list of global vertex `v` (empty slice if none).
    pub fn neighbors_of(&self, v: Vertex) -> &[Vertex] {
        match self.col_local(v) {
            Some(ci) => self.neighbors_by_local(ci),
            None => &[],
        }
    }

    /// Column-local ids stored for row-local id `rl`, ascending — the
    /// row-major access a bottom-up discover scans (§2.4.2's third view:
    /// "which of my columns can parent this row").
    pub fn cols_of_row_local(&self, rl: u32) -> &[u32] {
        let rl = rl as usize;
        &self.row_cols[self.row_offsets[rl]..self.row_offsets[rl + 1]]
    }

    /// Number of stored entries in row-local id `rl` (its local degree).
    pub fn row_degree(&self, rl: u32) -> usize {
        let rl = rl as usize;
        self.row_offsets[rl + 1] - self.row_offsets[rl]
    }

    /// Global column id of column-local index `ci`.
    pub fn col_of_local(&self, ci: u32) -> Vertex {
        self.cols[ci as usize]
    }

    /// Global row id of row-local index `rl`.
    pub fn row_of_local(&self, rl: u32) -> Vertex {
        self.row_ids[rl as usize]
    }

    /// Iterate `(column, partial edge list)` pairs in column order.
    pub fn iter_cols(&self) -> impl Iterator<Item = (Vertex, &[Vertex])> + '_ {
        self.cols
            .iter()
            .enumerate()
            .map(move |(i, &c)| (c, &self.rows[self.offsets[i]..self.offsets[i + 1]]))
    }

    /// Approximate resident bytes (entries + indexes), for the memory
    /// scalability checks.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.len() * size_of::<Vertex>()
            + self.cols.len() * (size_of::<Vertex>() + size_of::<usize>())
            + self.row_ids.len() * (size_of::<Vertex>() + size_of::<usize>())
            + self.row_cols.len() * size_of::<u32>()
            // FxHashMap overhead approx: ~1.5 slots of (K, V) per entry.
            + (self.col_index.len() + self.row_index.len())
                * (size_of::<Vertex>() + size_of::<u32>())
                * 3
                / 2
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

/// Dense, order-preserving ids for a set of vertices: a member's id is
/// the number of smaller members. When the members' span needs at most
/// about one 64-bit word per value, a bitmap over the span answers with
/// a per-word popcount prefix; wider spans (sparse or far-apart values)
/// fall back to the sorted members and a bisection.
enum DenseIds {
    Bitmap {
        lo: Vertex,
        words: Vec<u64>,
        /// Members in all earlier words.
        before: Vec<usize>,
    },
    Sorted(Vec<Vertex>),
}

impl DenseIds {
    /// Rank the distinct values of `values` (which may repeat).
    fn new(values: impl Iterator<Item = Vertex> + Clone) -> Self {
        let Some((lo, span, count)) = span_of(values.clone()) else {
            return Self::Sorted(Vec::new());
        };
        let num_words = span.div_ceil(64);
        if num_words > count + 64 {
            return Self::Sorted(sorted_distinct(values));
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
            total += w.count_ones() as usize;
        }
        Self::Bitmap { lo, words, before }
    }

    /// Number of distinct members.
    fn len(&self) -> usize {
        match self {
            Self::Bitmap { words, before, .. } => match (words.last(), before.last()) {
                (Some(w), Some(b)) => b + w.count_ones() as usize,
                _ => 0,
            },
            Self::Sorted(members) => members.len(),
        }
    }

    /// Dense id of member `v` (meaningless for non-members).
    fn rank(&self, v: Vertex) -> usize {
        match self {
            Self::Bitmap { lo, words, before } => {
                let d = v - lo;
                let w = (d / 64) as usize;
                let below = words[w] & ((1u64 << (d % 64)) - 1);
                before[w] + below.count_ones() as usize
            }
            Self::Sorted(members) => members.partition_point(|&m| m < v),
        }
    }

    /// The members, ascending.
    fn members(&self) -> Vec<Vertex> {
        match self {
            Self::Bitmap { lo, words, .. } => {
                let mut out = Vec::with_capacity(self.len());
                for (w, &word) in words.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        out.push(lo + (w as u64) * 64 + Vertex::from(bits.trailing_zeros()));
                        bits &= bits - 1;
                    }
                }
                out
            }
            Self::Sorted(members) => members.clone(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The sort-based construction the counting sort replaced, kept as
    /// the oracle: sort `(col, row)` tuples, deduplicate, cut columns,
    /// then index the sorted distinct rows.
    pub(crate) fn oracle(mut entries: Vec<(Vertex, Vertex)>) -> PartialEdgeLists {
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
        let col_index: FxHashMap<Vertex, u32> = cols
            .iter()
            .enumerate()
            .map(|(i, &c)| (c, i as u32))
            .collect();
        let mut row_ids: Vec<Vertex> = rows.clone();
        row_ids.sort_unstable();
        row_ids.dedup();
        let row_index: FxHashMap<Vertex, u32> = row_ids
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
        PartialEdgeLists {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn counting_sort_matches_sort_oracle(
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
            prop_assert_eq!(PartialEdgeLists::from_entries(entries.clone()), oracle(entries));
            // A tiny window: heavy duplication.
            prop_assert_eq!(PartialEdgeLists::from_entries(small.clone()), oracle(small));
            // Every entry in one column.
            let single: Vec<(Vertex, Vertex)> = one_col.iter().map(|&u| (u, col)).collect();
            prop_assert_eq!(PartialEdgeLists::from_entries(single.clone()), oracle(single));
            // Windows from dense to sparse around an arbitrary base, split
            // into two pieces at an arbitrary point.
            let mixed = entries_in(base, 1u64 << span_log, len, seed);
            let (a, b) = mixed.split_at(cut.min(mixed.len()));
            prop_assert_eq!(
                PartialEdgeLists::from_pieces(vec![a.to_vec(), Vec::new(), b.to_vec()]),
                oracle(mixed.clone())
            );
        }
    }

    #[test]
    fn dense_ids_agree_on_both_representations() {
        let values = [9u64, 3, 3, 70, 200, 64, 9, 130];
        let bitmap = DenseIds::new(values.iter().copied());
        assert!(matches!(bitmap, DenseIds::Bitmap { .. }));
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(bitmap.members(), sorted);
        assert_eq!(bitmap.len(), sorted.len());
        let far = DenseIds::new(values.iter().map(|v| v * (1 << 40)));
        assert!(matches!(far, DenseIds::Sorted(_)));
        for (i, &v) in sorted.iter().enumerate() {
            assert_eq!(bitmap.rank(v), i);
            assert_eq!(far.rank(v * (1 << 40)), i);
        }
        assert_eq!(DenseIds::new(std::iter::empty()).len(), 0);
    }

    fn sample() -> PartialEdgeLists {
        // cols: 2 -> {5, 7}, 9 -> {1}, 4 -> {0, 1, 8}
        PartialEdgeLists::from_entries(vec![(7, 2), (5, 2), (1, 9), (0, 4), (8, 4), (1, 4)])
    }

    #[test]
    fn builds_sorted_csr() {
        let e = sample();
        assert_eq!(e.cols(), &[2, 4, 9]);
        assert_eq!(e.neighbors_of(2), &[5, 7]);
        assert_eq!(e.neighbors_of(4), &[0, 1, 8]);
        assert_eq!(e.neighbors_of(9), &[1]);
        assert_eq!(e.num_entries(), 6);
        assert_eq!(e.num_cols(), 3);
    }

    #[test]
    fn empty_columns_not_indexed() {
        let e = sample();
        assert_eq!(e.col_local(3), None);
        assert!(e.neighbors_of(3).is_empty());
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
        assert_eq!(e.neighbors_of(2), &[1, 3]);
        assert_eq!(e.num_entries(), 2);
    }

    #[test]
    fn empty_input() {
        let e = PartialEdgeLists::from_entries(Vec::new());
        assert_eq!(e.num_cols(), 0);
        assert_eq!(e.num_entries(), 0);
        assert!(e.neighbors_of(0).is_empty());
    }

    #[test]
    fn iter_cols_matches_lookup() {
        let e = sample();
        for (c, list) in e.iter_cols() {
            assert_eq!(e.neighbors_of(c), list);
        }
        assert_eq!(e.iter_cols().count(), 3);
    }

    #[test]
    fn row_major_index_matches_column_major() {
        // Every (row, col) entry reachable column-major must appear
        // exactly once row-major, with ascending column-local ids.
        let e = sample();
        let mut by_rows: Vec<(Vertex, Vertex)> = Vec::new();
        for rl in 0..e.num_row_ids() as u32 {
            let u = e.row_of_local(rl);
            assert_eq!(e.row_degree(rl), e.cols_of_row_local(rl).len());
            let cis = e.cols_of_row_local(rl);
            assert!(cis.windows(2).all(|w| w[0] < w[1]), "row {u} not sorted");
            for &ci in cis {
                by_rows.push((u, e.col_of_local(ci)));
            }
        }
        let mut by_cols: Vec<(Vertex, Vertex)> = e
            .iter_cols()
            .flat_map(|(c, list)| list.iter().map(move |&u| (u, c)))
            .collect();
        by_rows.sort_unstable();
        by_cols.sort_unstable();
        assert_eq!(by_rows, by_cols);
        let total: usize = (0..e.num_row_ids() as u32).map(|rl| e.row_degree(rl)).sum();
        assert_eq!(total, e.num_entries());
    }

    #[test]
    fn approx_bytes_positive_and_monotone() {
        let small = PartialEdgeLists::from_entries(vec![(1, 2)]);
        let big = sample();
        assert!(big.approx_bytes() > small.approx_bytes());
    }
}
