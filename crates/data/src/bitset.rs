//! A dense, fixed-capacity bitset used for predicate sets and hitting sets.
//!
//! The evidence set stores, for every tuple pair, the set of satisfied
//! predicates; the enumeration algorithms manipulate sets of predicates (and,
//! in the generic hitting-set formulation, sets of elements). Both are
//! naturally represented as dense bitsets over a small universe (typically a
//! few dozen to a few hundred predicates), so all the hot operations —
//! intersection emptiness, subset tests, union, iteration — are word-wise.

use std::fmt;
use std::hash::{Hash, Hasher};

const WORD_BITS: usize = 64;

/// A fixed-capacity bitset over the universe `0..capacity`.
///
/// Unlike `Vec<bool>`, all set operations work a word (64 bits) at a time.
/// Equality and hashing consider only the bit contents up to `capacity`,
/// so interning evidence bitsets in a hash map behaves as expected.
#[derive(Clone, Eq)]
pub struct FixedBitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl FixedBitSet {
    /// Create an empty bitset able to hold bits `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let words = vec![0u64; capacity.div_ceil(WORD_BITS)];
        FixedBitSet { words, capacity }
    }

    /// Create a bitset with every bit in `0..capacity` set.
    pub fn full(capacity: usize) -> Self {
        let mut s = FixedBitSet {
            words: vec![!0u64; capacity.div_ceil(WORD_BITS)],
            capacity,
        };
        s.mask_tail();
        s
    }

    /// Create a bitset directly from raw words (little-endian bit order).
    ///
    /// Bits at positions `>= capacity` are masked off. Missing words are
    /// treated as zero; excess words are ignored.
    pub fn from_words(capacity: usize, words: &[u64]) -> Self {
        let mut s = Self::new(capacity);
        let n = s.words.len().min(words.len());
        s.words[..n].copy_from_slice(&words[..n]);
        s.mask_tail();
        s
    }

    /// Create a bitset from an iterator of bit indexes.
    ///
    /// # Panics
    /// Panics if any index is `>= capacity`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(capacity: usize, indices: I) -> Self {
        let mut s = Self::new(capacity);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Number of addressable bits.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Set bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "bit index {i} out of range 0..{}",
            self.capacity
        );
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clear bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        assert!(
            i < self.capacity,
            "bit index {i} out of range 0..{}",
            self.capacity
        );
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Test bit `i`. Out-of-range indexes are reported as unset.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Number of set bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no bit is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove all bits.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// `true` if `self` and `other` share at least one set bit.
    #[inline]
    pub fn intersects(&self, other: &FixedBitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// `true` if every bit set in `self` is also set in `other`.
    #[inline]
    pub fn is_subset(&self, other: &FixedBitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` if `self` is a subset of `other` and the two differ.
    #[inline]
    pub fn is_proper_subset(&self, other: &FixedBitSet) -> bool {
        self.is_subset(other) && self != other
    }

    /// Number of bits set in both `self` and `other`.
    #[inline]
    pub fn intersection_count(&self, other: &FixedBitSet) -> usize {
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// In-place union: `self |= other`.
    pub fn union_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection: `self &= other`.
    pub fn intersect_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: `self &= !other`.
    pub fn difference_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Return a new bitset equal to `self | other`.
    pub fn union(&self, other: &FixedBitSet) -> FixedBitSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Return a new bitset equal to `self & other`.
    pub fn intersection(&self, other: &FixedBitSet) -> FixedBitSet {
        let mut out = self.clone();
        out.intersect_with(other);
        out
    }

    /// Return a new bitset equal to `self & !other`.
    pub fn difference(&self, other: &FixedBitSet) -> FixedBitSet {
        let mut out = self.clone();
        out.difference_with(other);
        out
    }

    /// Complement within the capacity: every bit `< capacity` is flipped.
    pub fn complement(&self) -> FixedBitSet {
        let mut out = FixedBitSet::new(self.capacity);
        for (o, w) in out.words.iter_mut().zip(&self.words) {
            *o = !w;
        }
        out.mask_tail();
        out
    }

    /// Iterate over the indexes of set bits in ascending order.
    pub fn iter(&self) -> Ones<'_> {
        Ones {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collect the set-bit indexes into a vector (ascending order).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    /// Index of the lowest set bit, if any.
    pub fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Zero out bits above `capacity` (needed after complement).
    fn mask_tail(&mut self) {
        let rem = self.capacity % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Raw word view (read-only), useful for hashing or debugging.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

impl PartialEq for FixedBitSet {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.words == other.words
    }
}

impl Hash for FixedBitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for w in &self.words {
            state.write_u64(*w);
        }
    }
}

impl fmt::Debug for FixedBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (k, i) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{i}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over the set bits of a [`FixedBitSet`].
pub struct Ones<'a> {
    set: &'a FixedBitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let tz = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + tz);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = FixedBitSet::new(130);
        assert!(s.is_empty());
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert!(s.contains(0));
        assert!(s.contains(64));
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert_eq!(s.len(), 3);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn full_equals_every_index_with_clear_tail() {
        for cap in [0, 1, 63, 64, 65, 130] {
            let full = FixedBitSet::full(cap);
            assert_eq!(
                full,
                FixedBitSet::from_indices(cap, 0..cap),
                "capacity {cap}"
            );
            assert_eq!(full.len(), cap);
            let rem = cap % 64;
            if rem != 0 {
                let last = *full.as_words().last().unwrap();
                assert_eq!(last >> rem, 0, "tail bits set at capacity {cap}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = FixedBitSet::new(10);
        s.insert(10);
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = FixedBitSet::new(10);
        assert!(!s.contains(1000));
    }

    #[test]
    fn full_and_complement() {
        let s = FixedBitSet::full(70);
        assert_eq!(s.len(), 70);
        let c = s.complement();
        assert!(c.is_empty());
        let e = FixedBitSet::new(70);
        assert_eq!(e.complement().len(), 70);
    }

    #[test]
    fn set_algebra() {
        let a = FixedBitSet::from_indices(100, [1, 5, 64, 70]);
        let b = FixedBitSet::from_indices(100, [5, 70, 99]);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b).to_vec(), vec![5, 70]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 5, 64, 70, 99]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 64]);
        assert_eq!(a.intersection_count(&b), 2);
        assert!(!a.is_subset(&b));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.intersection(&b).is_proper_subset(&a));
        assert!(a.is_subset(&a));
        assert!(!a.is_proper_subset(&a));
    }

    #[test]
    fn iteration_order_is_ascending() {
        let s = FixedBitSet::from_indices(200, [150, 3, 64, 65, 199, 0]);
        assert_eq!(s.to_vec(), vec![0, 3, 64, 65, 150, 199]);
        assert_eq!(s.first(), Some(0));
        assert_eq!(FixedBitSet::new(5).first(), None);
    }

    #[test]
    fn equality_and_hash_are_content_based() {
        use std::collections::HashSet;
        let a = FixedBitSet::from_indices(100, [1, 2, 3]);
        let mut b = FixedBitSet::new(100);
        b.insert(3);
        b.insert(2);
        b.insert(1);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn debug_format() {
        let s = FixedBitSet::from_indices(10, [1, 3]);
        assert_eq!(format!("{s:?}"), "{1, 3}");
    }

    #[test]
    fn zero_capacity_is_fine() {
        let s = FixedBitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.complement().len(), 0);
        assert_eq!(s.iter().count(), 0);
    }

    proptest! {
        #[test]
        fn prop_from_indices_roundtrip(mut idx in proptest::collection::vec(0usize..500, 0..60)) {
            let s = FixedBitSet::from_indices(500, idx.iter().copied());
            idx.sort_unstable();
            idx.dedup();
            prop_assert_eq!(s.to_vec(), idx.clone());
            prop_assert_eq!(s.len(), idx.len());
        }

        #[test]
        fn prop_union_contains_both(a in proptest::collection::vec(0usize..300, 0..40),
                                    b in proptest::collection::vec(0usize..300, 0..40)) {
            let sa = FixedBitSet::from_indices(300, a.iter().copied());
            let sb = FixedBitSet::from_indices(300, b.iter().copied());
            let u = sa.union(&sb);
            prop_assert!(sa.is_subset(&u));
            prop_assert!(sb.is_subset(&u));
            prop_assert_eq!(u.len(), sa.len() + sb.len() - sa.intersection_count(&sb));
        }

        #[test]
        fn prop_complement_involution(a in proptest::collection::vec(0usize..300, 0..40)) {
            let sa = FixedBitSet::from_indices(300, a.iter().copied());
            prop_assert_eq!(sa.complement().complement(), sa.clone());
            prop_assert_eq!(sa.complement().len(), 300 - sa.len());
            prop_assert!(!sa.intersects(&sa.complement()));
        }

        #[test]
        fn prop_intersects_iff_nonempty_intersection(
            a in proptest::collection::vec(0usize..128, 0..20),
            b in proptest::collection::vec(0usize..128, 0..20),
        ) {
            let sa = FixedBitSet::from_indices(128, a.iter().copied());
            let sb = FixedBitSet::from_indices(128, b.iter().copied());
            prop_assert_eq!(sa.intersects(&sb), !sa.intersection(&sb).is_empty());
        }

        #[test]
        fn prop_subset_definition(
            a in proptest::collection::vec(0usize..128, 0..20),
            b in proptest::collection::vec(0usize..128, 0..20),
        ) {
            let sa = FixedBitSet::from_indices(128, a.iter().copied());
            let sb = FixedBitSet::from_indices(128, b.iter().copied());
            let expected = sa.iter().all(|i| sb.contains(i));
            prop_assert_eq!(sa.is_subset(&sb), expected);
        }
    }
}
