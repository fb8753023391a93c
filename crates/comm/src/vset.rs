//! Hybrid vertex-set representation: sorted list or fixed-range bitmap.
//!
//! The union-fold collectives spend their compute budget merging sorted
//! vertex lists. On dense BFS levels (the bulk of total work on Poisson
//! graphs — see Buluç & Madduri, and Lv et al.'s "Compression and
//! Sieve") the accumulated set covers most of a rank's owned range, so a
//! fixed-range bitmap unions in `O(span/64)` word ORs instead of `O(n)`
//! element compares. [`VertSet`] starts as a sorted list and switches to
//! a bitmap once a [`VsetPolicy`] density threshold is crossed; it
//! switches back if later unions would stretch the range too thin.
//!
//! Determinism: a `VertSet` is a *set* — cardinalities, duplicate
//! counts, and ascending iteration order are identical for both
//! representations (the proptest suite in `tests/proptest_vset.rs`
//! asserts this). All simulator time charges are functions of
//! cardinalities only, so swapping representations never perturbs the
//! modelled clocks.

use crate::setops;
use crate::Vert;

/// When to switch a [`VertSet`] between representations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VsetPolicy {
    /// Master switch: when false, sets stay sorted lists forever (the
    /// seed behaviour; used by A/B determinism tests).
    pub bitmap_enabled: bool,
    /// Minimum cardinality before a bitmap is considered — tiny sets
    /// are cheaper as lists regardless of density.
    pub min_bitmap_len: usize,
    /// Density threshold exponent: densify when
    /// `count << density_shift >= span` (i.e. density ≥ 2^-shift).
    /// The default 6 makes the bitmap (1 bit/slot) no larger than the
    /// list (64 bits/element) at the switch point.
    pub density_shift: u32,
}

impl VsetPolicy {
    /// The default hybrid policy: densify at density ≥ 1/64 once a set
    /// holds at least 64 vertices.
    pub fn hybrid() -> Self {
        VsetPolicy {
            bitmap_enabled: true,
            min_bitmap_len: 64,
            density_shift: 6,
        }
    }

    /// Sorted lists only — the pre-hybrid seed behaviour.
    pub fn list_only() -> Self {
        VsetPolicy {
            bitmap_enabled: false,
            ..Self::hybrid()
        }
    }

    /// Whether a set of `count` elements spanning `span` slots should
    /// become (or be built as) a bitmap.
    fn prefers_bitmap(&self, count: usize, span: u64) -> bool {
        self.bitmap_enabled
            && count >= self.min_bitmap_len
            && (count as u64).checked_shl(self.density_shift) >= Some(span)
    }

    /// Whether an existing bitmap should *stay* a bitmap after growing
    /// to `span` slots with `count` elements. 4× hysteresis below the
    /// densify threshold prevents representation thrash and bounds
    /// bitmap memory at 4× the densify point.
    fn keeps_bitmap(&self, count: usize, span: u64) -> bool {
        self.bitmap_enabled && (count as u64).checked_shl(self.density_shift + 2) >= Some(span)
    }
}

impl Default for VsetPolicy {
    fn default() -> Self {
        Self::hybrid()
    }
}

/// Word-wise OR of `src` into `dst` (the dense union kernel). Returns
/// the number of bits already set in `dst` — the duplicates a sorted
/// merge would have eliminated. Slices must be equal length.
fn or_words(dst: &mut [u64], src: &[u64]) -> u64 {
    debug_assert_eq!(dst.len(), src.len());
    let mut dups = 0u64;
    for (d, s) in dst.iter_mut().zip(src) {
        dups += (*d & *s).count_ones() as u64;
        *d |= *s;
    }
    dups
}

/// Word-wise AND of two equal-length word slices (the dense intersect
/// kernel). Returns the popcount of the result.
fn and_words(dst: &mut [u64], src: &[u64]) -> u64 {
    debug_assert_eq!(dst.len(), src.len());
    let mut count = 0u64;
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= *s;
        count += d.count_ones() as u64;
    }
    count
}

/// Fixed-range bitmap over vertex ids: bit `v - base` of the word array
/// is set iff `v` is in the set. `base` is 64-aligned so word offsets
/// between two bitmaps line up for word-wise unions.
#[derive(Debug, Clone)]
pub struct Bitmap {
    /// First representable vertex (multiple of 64).
    base: Vert,
    /// Bit words covering `base .. base + 64 * words.len()`.
    words: Vec<u64>,
    /// Number of set bits (maintained incrementally).
    count: usize,
}

impl Bitmap {
    /// Build from a non-empty sorted deduplicated slice.
    fn from_sorted(vs: &[Vert]) -> Bitmap {
        let base = vs[0] & !63;
        let span_words = ((vs[vs.len() - 1] - base) >> 6) as usize + 1;
        let mut bm = Bitmap {
            base,
            words: vec![0u64; span_words],
            count: 0,
        };
        for &v in vs {
            bm.insert(v);
        }
        bm
    }

    /// Slots this bitmap currently covers.
    fn span(&self) -> u64 {
        (self.words.len() as u64) << 6
    }

    /// Grow coverage to include `lo..=hi` (ids, not word indices).
    fn ensure(&mut self, lo: Vert, hi: Vert) {
        let new_base = self.base.min(lo & !63);
        if new_base < self.base {
            let extra = ((self.base - new_base) >> 6) as usize;
            let mut grown = vec![0u64; extra + self.words.len()];
            grown[extra..].copy_from_slice(&self.words);
            self.words = grown;
            self.base = new_base;
        }
        let needed = ((hi - self.base) >> 6) as usize + 1;
        if self.words.len() < needed {
            self.words.resize(needed, 0);
        }
    }

    /// Set bit `v` (must be in coverage). Returns false if already set.
    fn insert(&mut self, v: Vert) -> bool {
        let off = v - self.base;
        let mask = 1u64 << (off & 63);
        let w = &mut self.words[(off >> 6) as usize];
        if *w & mask != 0 {
            false
        } else {
            *w |= mask;
            self.count += 1;
            true
        }
    }

    /// Whether bit `v` is set.
    fn contains(&self, v: Vert) -> bool {
        if v < self.base {
            return false;
        }
        let off = v - self.base;
        let wi = (off >> 6) as usize;
        wi < self.words.len() && self.words[wi] & (1u64 << (off & 63)) != 0
    }
}

/// A set of vertex ids with a hybrid physical representation: sorted
/// `Vec<Vert>` when sparse, fixed-range bitmap when dense. All
/// operations preserve set semantics exactly — see the module docs for
/// the determinism argument.
#[derive(Debug, Clone)]
pub enum VertSet {
    /// Sorted, strictly ascending vertex list.
    List(Vec<Vert>),
    /// Dense fixed-range bitmap.
    Bitmap(Bitmap),
}

impl Default for VertSet {
    fn default() -> Self {
        VertSet::List(Vec::new())
    }
}

impl VertSet {
    /// The empty set (list representation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an already-sorted, deduplicated vector without copying.
    pub fn from_sorted(v: Vec<Vert>) -> Self {
        debug_assert!(setops::is_normalized(&v));
        VertSet::List(v)
    }

    /// Number of vertices in the set.
    pub fn len(&self) -> usize {
        match self {
            VertSet::List(v) => v.len(),
            VertSet::Bitmap(b) => b.count,
        }
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the set currently uses the bitmap representation.
    pub fn is_bitmap(&self) -> bool {
        matches!(self, VertSet::Bitmap(_))
    }

    /// Membership test.
    pub fn contains(&self, v: Vert) -> bool {
        match self {
            VertSet::List(l) => l.binary_search(&v).is_ok(),
            VertSet::Bitmap(b) => b.contains(v),
        }
    }

    /// Iterate the members in ascending order (both representations).
    pub fn iter(&self) -> VertSetIter<'_> {
        match self {
            VertSet::List(l) => VertSetIter::List(l.iter()),
            VertSet::Bitmap(b) => VertSetIter::Bitmap {
                base: b.base,
                words: &b.words,
                wi: 0,
                cur: b.words.first().copied().unwrap_or(0),
            },
        }
    }

    /// Append the members, ascending, to `out` (for expanding a bitmap
    /// into a payload buffer the caller sized).
    pub fn append_to(&self, out: &mut Vec<Vert>) {
        match self {
            VertSet::List(l) => out.extend_from_slice(l),
            VertSet::Bitmap(_) => out.extend(self.iter()),
        }
    }

    /// The members as a fresh sorted vector.
    pub fn to_vec(&self) -> Vec<Vert> {
        let mut out = Vec::with_capacity(self.len());
        self.append_to(&mut out);
        out
    }

    /// Consume the set into a sorted vector (free for lists).
    pub fn into_vec(self) -> Vec<Vert> {
        match self {
            VertSet::List(l) => l,
            VertSet::Bitmap(_) => self.to_vec(),
        }
    }

    /// Switch a list that crossed the density threshold to a bitmap.
    /// Returns true if the representation changed.
    pub fn maybe_densify(&mut self, policy: &VsetPolicy) -> bool {
        if let VertSet::List(l) = self {
            if !l.is_empty() {
                let span = l[l.len() - 1] - l[0] + 1;
                if policy.prefers_bitmap(l.len(), span) {
                    *self = VertSet::Bitmap(Bitmap::from_sorted(l));
                    return true;
                }
            }
        }
        false
    }

    /// Force the list representation (used when a union would stretch a
    /// bitmap past the policy's span budget).
    fn listify(&mut self) {
        if self.is_bitmap() {
            *self = VertSet::List(self.to_vec());
        }
    }

    /// Union a sorted, deduplicated slice into the set. Returns the
    /// number of duplicates eliminated (elements already present),
    /// matching [`setops::union_into`] on the list path exactly.
    pub fn union_in(&mut self, other: &[Vert], policy: &VsetPolicy) -> usize {
        if other.is_empty() {
            return 0;
        }
        debug_assert!(setops::is_normalized(other));
        match self {
            VertSet::List(a) => {
                let dups = setops::union_into(a, other);
                self.maybe_densify(policy);
                dups
            }
            VertSet::Bitmap(bm) => {
                let lo = bm.base.min(other[0]);
                let hi = (bm.base + bm.span() - 1).max(other[other.len() - 1]);
                let span = hi - (lo & !63) + 1;
                if !policy.keeps_bitmap(bm.count + other.len(), span) {
                    self.listify();
                    return self.union_in(other, policy);
                }
                bm.ensure(lo, hi);
                let mut dups = 0;
                for &v in other {
                    if !bm.insert(v) {
                        dups += 1;
                    }
                }
                dups
            }
        }
    }

    /// Union another `VertSet` into this one. Returns the duplicate
    /// count, identical to the list-merge result for the same two sets.
    pub fn union_set(&mut self, other: &VertSet, policy: &VsetPolicy) -> usize {
        match other {
            VertSet::List(l) => self.union_in(l, policy),
            VertSet::Bitmap(ob) => {
                if ob.count == 0 {
                    return 0;
                }
                if let VertSet::List(a) = self {
                    // Adopt the dense side as the accumulator, then fold
                    // the (sparser) list in; union is symmetric so the
                    // duplicate count is unchanged.
                    let list = std::mem::take(a);
                    *self = other.clone();
                    return self.union_in(&list, policy);
                }
                let VertSet::Bitmap(bm) = self else {
                    unreachable!()
                };
                let lo = bm.base.min(ob.base);
                let hi = (bm.base + bm.span() - 1).max(ob.base + ob.span() - 1);
                if !policy.keeps_bitmap(bm.count + ob.count, hi - lo + 1) {
                    self.listify();
                    return self.union_in(&other.to_vec(), policy);
                }
                bm.ensure(lo, hi);
                let off = ((ob.base - bm.base) >> 6) as usize;
                let dups = or_words(&mut bm.words[off..off + ob.words.len()], &ob.words);
                bm.count += ob.count - dups as usize;
                dups as usize
            }
        }
    }

    /// Intersection with another set, as a sorted vector. Uses the
    /// word-wise AND kernel when both sides are bitmaps.
    pub fn intersect_to_vec(&self, other: &VertSet) -> Vec<Vert> {
        match (self, other) {
            (VertSet::List(a), VertSet::List(b)) => setops::intersect(a, b),
            (VertSet::Bitmap(a), VertSet::Bitmap(b)) => {
                // Intersect over the overlapping word range only.
                let lo = a.base.max(b.base);
                let hi = (a.base + a.span()).min(b.base + b.span());
                if lo >= hi {
                    return Vec::new();
                }
                let words = ((hi - lo) >> 6) as usize;
                let ao = ((lo - a.base) >> 6) as usize;
                let bo = ((lo - b.base) >> 6) as usize;
                let mut acc = a.words[ao..ao + words].to_vec();
                and_words(&mut acc, &b.words[bo..bo + words]);
                let mut out = Vec::new();
                for (wi, &w) in acc.iter().enumerate() {
                    let mut w = w;
                    while w != 0 {
                        out.push(lo + ((wi as u64) << 6) + w.trailing_zeros() as u64);
                        w &= w - 1;
                    }
                }
                out
            }
            // Mixed: probe the bitmap for each list element.
            (VertSet::List(l), bm) | (bm, VertSet::List(l)) => {
                l.iter().copied().filter(|&v| bm.contains(v)).collect()
            }
        }
    }
}

impl PartialEq for VertSet {
    /// Semantic set equality — a list and a bitmap holding the same
    /// members compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl Eq for VertSet {}

/// Ascending iterator over a [`VertSet`]'s members.
pub enum VertSetIter<'a> {
    /// Iterating a sorted list.
    List(std::slice::Iter<'a, Vert>),
    /// Scanning bitmap words with `trailing_zeros`.
    Bitmap {
        /// First representable vertex of the bitmap.
        base: Vert,
        /// The word array.
        words: &'a [u64],
        /// Current word index.
        wi: usize,
        /// Remaining bits of the current word.
        cur: u64,
    },
}

impl Iterator for VertSetIter<'_> {
    type Item = Vert;

    fn next(&mut self) -> Option<Vert> {
        match self {
            VertSetIter::List(it) => it.next().copied(),
            VertSetIter::Bitmap {
                base,
                words,
                wi,
                cur,
            } => loop {
                if *cur != 0 {
                    let bit = cur.trailing_zeros() as u64;
                    *cur &= *cur - 1;
                    return Some(*base + ((*wi as u64) << 6) + bit);
                }
                *wi += 1;
                if *wi >= words.len() {
                    return None;
                }
                *cur = words[*wi];
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hybrid() -> VsetPolicy {
        VsetPolicy::hybrid()
    }

    #[test]
    fn dense_list_densifies_and_round_trips() {
        let v: Vec<Vert> = (100..400).collect();
        let mut s = VertSet::from_sorted(v.clone());
        assert!(s.maybe_densify(&hybrid()));
        assert!(s.is_bitmap());
        assert_eq!(s.len(), v.len());
        assert_eq!(s.to_vec(), v);
        assert_eq!(s.iter().collect::<Vec<_>>(), v);
    }

    #[test]
    fn sparse_list_stays_a_list() {
        let v: Vec<Vert> = (0..100).map(|i| i * 1000).collect();
        let mut s = VertSet::from_sorted(v.clone());
        assert!(!s.maybe_densify(&hybrid()));
        assert!(!s.is_bitmap());
        assert_eq!(s.into_vec(), v);
    }

    #[test]
    fn union_dup_counts_match_across_representations() {
        let a: Vec<Vert> = (0..300).map(|i| i * 2).collect();
        let b: Vec<Vert> = (0..300).map(|i| i * 3).collect();
        let (reference, dups_ref) = setops::union(&a, &b);

        let mut list = VertSet::from_sorted(a.clone());
        let dups_list = list.union_in(&b, &VsetPolicy::list_only());
        assert!(!list.is_bitmap());
        assert_eq!(list.to_vec(), reference);
        assert_eq!(dups_list, dups_ref);

        let mut bm = VertSet::from_sorted(a);
        bm.maybe_densify(&hybrid());
        assert!(bm.is_bitmap());
        let dups_bm = bm.union_in(&b, &hybrid());
        assert_eq!(bm.to_vec(), reference);
        assert_eq!(dups_bm, dups_ref);
    }

    #[test]
    fn union_set_bitmap_bitmap_uses_word_kernel() {
        let a: Vec<Vert> = (64..640).collect();
        let b: Vec<Vert> = (320..960).collect();
        let mut sa = VertSet::from_sorted(a.clone());
        let mut sb = VertSet::from_sorted(b.clone());
        sa.maybe_densify(&hybrid());
        sb.maybe_densify(&hybrid());
        assert!(sa.is_bitmap() && sb.is_bitmap());
        let dups = sa.union_set(&sb, &hybrid());
        let (reference, dups_ref) = setops::union(&a, &b);
        assert_eq!(dups, dups_ref);
        assert_eq!(sa.to_vec(), reference);
    }

    #[test]
    fn list_adopts_bitmap_on_union_set() {
        let sparse = VertSet::from_sorted(vec![1, 500, 999]);
        let mut dense = VertSet::from_sorted((0..1000).collect());
        dense.maybe_densify(&hybrid());
        let mut acc = sparse;
        let dups = acc.union_set(&dense, &hybrid());
        assert_eq!(dups, 3);
        assert_eq!(acc.len(), 1000);
    }

    #[test]
    fn span_blowup_falls_back_to_list() {
        let mut s = VertSet::from_sorted((0..1000).collect());
        s.maybe_densify(&hybrid());
        assert!(s.is_bitmap());
        // A far-away element would stretch the bitmap over ~2^40 slots;
        // the policy falls back to the list representation instead.
        let dups = s.union_in(&[1 << 40], &hybrid());
        assert_eq!(dups, 0);
        assert!(!s.is_bitmap());
        assert_eq!(s.len(), 1001);
        assert!(s.contains(1 << 40));
    }

    #[test]
    fn contains_and_eq_are_representation_independent() {
        let v: Vec<Vert> = (128..512).collect();
        let list = VertSet::from_sorted(v.clone());
        let mut bm = VertSet::from_sorted(v);
        bm.maybe_densify(&hybrid());
        assert_eq!(list, bm);
        assert!(bm.contains(128) && bm.contains(511));
        assert!(!bm.contains(127) && !bm.contains(512) && !bm.contains(1 << 50));
    }

    #[test]
    fn intersect_matches_across_representations() {
        let a: Vec<Vert> = (0..600).map(|i| i * 2).collect();
        let b: Vec<Vert> = (0..400).map(|i| i * 3).collect();
        let expect = setops::intersect(&a, &b);
        let la = VertSet::from_sorted(a.clone());
        let lb = VertSet::from_sorted(b.clone());
        let mut ba = la.clone();
        let mut bb = lb.clone();
        ba.maybe_densify(&hybrid());
        bb.maybe_densify(&hybrid());
        assert!(ba.is_bitmap() && bb.is_bitmap());
        assert_eq!(la.intersect_to_vec(&lb), expect);
        assert_eq!(ba.intersect_to_vec(&bb), expect);
        assert_eq!(la.intersect_to_vec(&bb), expect);
        assert_eq!(ba.intersect_to_vec(&lb), expect);
    }

    #[test]
    fn or_words_counts_overlap() {
        let mut d = [0b1010u64, u64::MAX];
        let s = [0b0110u64, 1];
        let dups = or_words(&mut d, &s);
        assert_eq!(dups, 1 + 1);
        assert_eq!(d, [0b1110, u64::MAX]);
    }

    #[test]
    fn empty_set_operations() {
        let mut s = VertSet::new();
        assert!(s.is_empty());
        assert_eq!(s.union_in(&[], &hybrid()), 0);
        assert_eq!(s.union_set(&VertSet::new(), &hybrid()), 0);
        assert_eq!(s.iter().count(), 0);
        assert!(s.intersect_to_vec(&VertSet::new()).is_empty());
    }
}
