//! The interned evidence multiset `Evi(D)`.

#![doc = "conformance: ordered-output"]

use adc_data::fx::FxHashMap;
use adc_data::FixedBitSet;

/// One distinct evidence set together with its multiplicity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceEntry {
    /// The set of predicate ids satisfied by every pair counted in `count`.
    pub set: FixedBitSet,
    /// Number of ordered tuple pairs whose satisfied-predicate set equals `set`.
    pub count: u64,
}

/// The evidence set `Evi(D)` with bag semantics, stored interned: every
/// distinct predicate set appears once along with its multiplicity
/// (exactly the representation the paper prescribes in Section 3).
///
/// Equality compares entry **order** as well as contents, so asserting two
/// evidence sets equal proves the builders that produced them interned pairs
/// in the same traversal order (the sweep's parallel-merge determinism
/// guarantee).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvidenceSet {
    entries: Vec<EvidenceEntry>,
    total_pairs: u64,
    num_tuples: usize,
    num_predicates: usize,
}

impl EvidenceSet {
    /// Create an empty evidence set for a space of `num_predicates` predicates
    /// over a relation of `num_tuples` tuples.
    pub fn new(num_predicates: usize, num_tuples: usize) -> Self {
        EvidenceSet {
            entries: Vec::new(),
            total_pairs: 0,
            num_tuples,
            num_predicates,
        }
    }

    /// Number of distinct evidence sets (the paper's `n`, which drives the
    /// per-iteration cost of the enumeration algorithms).
    pub fn distinct_count(&self) -> usize {
        self.entries.len()
    }

    /// Total multiplicity, i.e. the number of ordered tuple pairs `n·(n−1)`.
    pub fn total_pairs(&self) -> u64 {
        self.total_pairs
    }

    /// Number of tuples of the underlying relation.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples
    }

    /// Number of predicates in the underlying predicate space.
    pub fn num_predicates(&self) -> usize {
        self.num_predicates
    }

    /// The distinct entries.
    pub fn entries(&self) -> &[EvidenceEntry] {
        &self.entries
    }

    /// Entry at index `idx`.
    pub fn entry(&self, idx: usize) -> &EvidenceEntry {
        &self.entries[idx]
    }

    /// Sum of `|set| · count` over all entries — the paper's `‖M‖` bound that
    /// governs MMCS per-iteration complexity.
    pub fn total_size(&self) -> u64 {
        self.entries
            .iter()
            .map(|e| e.set.len() as u64 * e.count)
            .sum()
    }

    /// Number of ordered pairs **violating** the DC whose complement set is
    /// `hitting_set`: the total multiplicity of entries disjoint from it.
    pub fn violation_count(&self, hitting_set: &FixedBitSet) -> u64 {
        self.entries
            .iter()
            .filter(|e| !e.set.intersects(hitting_set))
            .map(|e| e.count)
            .sum()
    }

    /// Number of ordered pairs **satisfying** the DC whose complement set is
    /// `hitting_set`.
    pub fn satisfaction_count(&self, hitting_set: &FixedBitSet) -> u64 {
        self.total_pairs - self.violation_count(hitting_set)
    }

    /// Indexes of the entries disjoint from `hitting_set` (the "uncovered"
    /// evidence sets, i.e. the violating pair classes), ascending.
    pub fn uncovered<'a>(
        &'a self,
        hitting_set: &'a FixedBitSet,
    ) -> impl Iterator<Item = usize> + 'a {
        self.entries
            .iter()
            .enumerate()
            .filter(move |(_, e)| !e.set.intersects(hitting_set))
            .map(|(i, _)| i)
    }

    /// `true` if `hitting_set` intersects every evidence set (the
    /// corresponding DC is exactly valid).
    pub fn is_hitting_set(&self, hitting_set: &FixedBitSet) -> bool {
        self.entries.iter().all(|e| e.set.intersects(hitting_set))
    }

    /// Fraction of ordered pairs violating the DC with complement set
    /// `hitting_set` (`1 − f1` in the paper's notation). Zero for an empty
    /// relation.
    pub fn violation_fraction(&self, hitting_set: &FixedBitSet) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.violation_count(hitting_set) as f64 / self.total_pairs as f64
        }
    }

    /// Sort the entries into the canonical builder-independent order
    /// (lexicographic by predicate-set bit words) and return the permutation
    /// `remap[old_index] = new_index`.
    ///
    /// Builders intern entries in *first-encounter* order, which depends on
    /// the traversal: the pairwise kernels scan pairs row-major, while the
    /// sweep kernel interns one entry per (left class, block), and its
    /// parallel merge reproduces the single-threaded order bit for bit.
    /// Canonicalizing both sides turns the order-sensitive `PartialEq` into
    /// the multiset equality the kernels actually guarantee — this is the
    /// normalization behind every cross-kernel equality test. Entry sets are unique (interning
    /// invariant), so the canonical order is total and needs no tie-break.
    pub fn canonicalize(&mut self) -> Vec<usize> {
        let mut indexed: Vec<(usize, EvidenceEntry)> = std::mem::take(&mut self.entries)
            .into_iter()
            .enumerate()
            .collect();
        indexed.sort_by(|(_, a), (_, b)| a.set.as_words().cmp(b.set.as_words()));
        let mut remap = vec![0usize; indexed.len()];
        self.entries = indexed
            .into_iter()
            .enumerate()
            .map(|(new, (old, entry))| {
                remap[old] = new;
                entry
            })
            .collect();
        remap
    }
}

/// Incremental interner used by the builders.
#[derive(Debug, Default, Clone)]
pub struct EvidenceAccumulator {
    index: FxHashMap<FixedBitSet, usize>,
    set: EvidenceSet,
}

impl EvidenceAccumulator {
    /// Create an accumulator for a predicate space of `num_predicates`
    /// predicates and a relation of `num_tuples` tuples.
    pub fn new(num_predicates: usize, num_tuples: usize) -> Self {
        EvidenceAccumulator {
            index: FxHashMap::default(),
            set: EvidenceSet::new(num_predicates, num_tuples),
        }
    }

    /// Record one ordered pair with the given satisfied-predicate set and
    /// return the index of its (possibly newly created) entry.
    pub fn add(&mut self, satisfied: FixedBitSet) -> usize {
        self.set.total_pairs += 1;
        match self.index.get(&satisfied) {
            Some(&idx) => {
                self.set.entries[idx].count += 1;
                idx
            }
            None => {
                let idx = self.set.entries.len();
                self.index.insert(satisfied.clone(), idx);
                self.set.entries.push(EvidenceEntry {
                    set: satisfied,
                    count: 1,
                });
                idx
            }
        }
    }

    /// Record `count` pairs sharing the same satisfied-predicate set.
    ///
    /// Counts saturate at `u64::MAX` instead of wrapping (and overflow trips
    /// a `debug_assert`): a count that large is unreachable from real data
    /// (`n·(n−1)` pairs of a `usize`-indexed relation), so saturation only
    /// defends against corrupted or adversarial inputs without putting a
    /// checked branch on the per-pair hot path of [`EvidenceAccumulator::add`].
    pub fn add_many(&mut self, satisfied: FixedBitSet, count: u64) -> usize {
        if count == 0 {
            return self.add_lookup_only(satisfied);
        }
        let idx = self.add(satisfied);
        let entry = &mut self.set.entries[idx];
        debug_assert!(
            entry.count.checked_add(count - 1).is_some(),
            "evidence entry count overflows u64"
        );
        entry.count = entry.count.saturating_add(count - 1);
        debug_assert!(
            self.set.total_pairs.checked_add(count - 1).is_some(),
            "evidence total_pairs overflows u64"
        );
        self.set.total_pairs = self.set.total_pairs.saturating_add(count - 1);
        idx
    }

    /// Retract one previously recorded pair with the given satisfied-predicate
    /// set, decrementing its entry's multiplicity (possibly to zero — the
    /// entry stays in place, tombstone-free, until [`EvidenceAccumulator::compact`]
    /// sweeps zero-count entries out). Returns the entry index.
    ///
    /// This is the Z-set `−1` half of differential evidence maintenance: a
    /// deleted tuple's pairs are retracted with exactly the evidence sets
    /// they were recorded with.
    ///
    /// # Panics
    /// Panics if no pair with this evidence set is currently recorded — that
    /// means the caller's delta bookkeeping has diverged from the batch state.
    pub fn retract(&mut self, satisfied: &FixedBitSet) -> usize {
        self.retract_many(satisfied, 1)
    }

    /// Retract `count` previously recorded pairs sharing the same
    /// satisfied-predicate set in one step: the `−count` row of a
    /// consolidated Z-set batch. Equivalent to `count` calls of
    /// [`EvidenceAccumulator::retract`], and panics in exactly the cases
    /// those calls would.
    ///
    /// # Panics
    /// Panics if no pair with this evidence set is currently recorded, or if
    /// the entry holds fewer than `count` pairs (its count would go below
    /// zero).
    pub fn retract_many(&mut self, satisfied: &FixedBitSet, count: u64) -> usize {
        let idx = *self
            .index
            .get(satisfied)
            // conformance: allow(panic) — documented panic: firing means the caller's delta bookkeeping diverged from the batch state
            .expect("retracting a pair whose evidence set was never recorded");
        let entry = &mut self.set.entries[idx];
        assert!(
            entry.count >= count,
            "retracting {count} pair(s) from an evidence entry holding {}: its count is already zero before the last",
            entry.count
        );
        entry.count -= count;
        self.set.total_pairs -= count;
        idx
    }

    /// Sweep out zero-count entries, compacting the remaining entries while
    /// preserving their relative (first-encounter) order, and rebuild the
    /// intern index. Returns the stable remap log
    /// `remap[old_index] = Some(new_index)` (`None` for swept entries), which
    /// callers use to re-target per-entry side indexes such as
    /// [`crate::Vios`] (via [`crate::Vios::remap_entries`]).
    pub fn compact(&mut self) -> Vec<Option<usize>> {
        let mut next = 0usize;
        let remap: Vec<Option<usize>> = self
            .set
            .entries
            .iter()
            .map(|e| {
                if e.count > 0 {
                    let idx = next;
                    next += 1;
                    Some(idx)
                } else {
                    None
                }
            })
            .collect();
        if next < self.set.entries.len() {
            self.set.entries.retain(|e| e.count > 0);
            self.index.clear();
            for (idx, entry) in self.set.entries.iter().enumerate() {
                self.index.insert(entry.set.clone(), idx);
            }
        }
        remap
    }

    /// Update the recorded tuple count of the underlying relation (the
    /// differential builder calls this after applying a tuple batch).
    pub fn set_num_tuples(&mut self, num_tuples: usize) {
        self.set.num_tuples = num_tuples;
    }

    /// Read access to the evidence set under construction (the differential
    /// builder keeps the accumulator alive across its whole life instead of
    /// calling [`EvidenceAccumulator::finish`]).
    pub fn current(&self) -> &EvidenceSet {
        &self.set
    }

    /// Rebuild an accumulator (with its intern index) around an existing
    /// evidence set, so differential maintenance can take over evidence that
    /// was built by a batch builder.
    ///
    /// # Panics
    /// Panics if the set contains duplicate entries (a corrupted interning
    /// invariant).
    pub fn from_set(set: EvidenceSet) -> Self {
        let mut index = FxHashMap::default();
        for (idx, entry) in set.entries.iter().enumerate() {
            let previous = index.insert(entry.set.clone(), idx);
            assert!(
                previous.is_none(),
                "evidence set holds duplicate entries; interning invariant broken"
            );
        }
        EvidenceAccumulator { index, set }
    }

    fn add_lookup_only(&mut self, satisfied: FixedBitSet) -> usize {
        match self.index.get(&satisfied) {
            Some(&idx) => idx,
            None => {
                let idx = self.set.entries.len();
                self.index.insert(satisfied.clone(), idx);
                self.set.entries.push(EvidenceEntry {
                    set: satisfied,
                    count: 0,
                });
                idx
            }
        }
    }

    /// Merge a finished shard into this accumulator, preserving
    /// first-encounter entry order: shard entries already present keep their
    /// existing index, new ones are appended in the shard's own order.
    ///
    /// Returns the index translation `mapping[shard_idx] = merged_idx`, which
    /// callers use to re-target per-entry side indexes such as
    /// [`crate::Vios`] (via [`crate::Vios::merge_mapped`]).
    ///
    /// Merging the sweep's chunk shards in ascending class order therefore
    /// reproduces *bit for bit* the evidence set a single-threaded sweep
    /// would intern.
    pub fn merge_set(&mut self, shard: &EvidenceSet) -> Vec<usize> {
        let mut mapping = Vec::with_capacity(shard.entries.len());
        for entry in &shard.entries {
            mapping.push(self.add_many(entry.set.clone(), entry.count));
        }
        mapping
    }

    /// Finish and return the interned evidence set.
    pub fn finish(self) -> EvidenceSet {
        self.set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(cap: usize, bits: &[usize]) -> FixedBitSet {
        FixedBitSet::from_indices(cap, bits.iter().copied())
    }

    #[test]
    fn interning_merges_equal_sets() {
        let mut acc = EvidenceAccumulator::new(8, 3);
        let a = acc.add(bs(8, &[0, 1]));
        let b = acc.add(bs(8, &[0, 1]));
        let c = acc.add(bs(8, &[2]));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let e = acc.finish();
        assert_eq!(e.distinct_count(), 2);
        assert_eq!(e.total_pairs(), 3);
        assert_eq!(e.entry(0).count, 2);
        assert_eq!(e.entry(1).count, 1);
        assert_eq!(e.num_predicates(), 8);
        assert_eq!(e.num_tuples(), 3);
    }

    #[test]
    fn add_many_counts_correctly() {
        let mut acc = EvidenceAccumulator::new(4, 10);
        acc.add_many(bs(4, &[1]), 5);
        acc.add_many(bs(4, &[1]), 2);
        acc.add_many(bs(4, &[2]), 0);
        let e = acc.finish();
        assert_eq!(e.total_pairs(), 7);
        assert_eq!(e.distinct_count(), 2);
        assert_eq!(e.entry(0).count, 7);
        assert_eq!(e.entry(1).count, 0);
    }

    #[test]
    fn add_many_saturates_instead_of_wrapping() {
        // Release-mode behaviour: a count that would overflow u64 saturates
        // instead of silently wrapping (debug builds additionally assert).
        let check = std::panic::catch_unwind(|| {
            let mut acc = EvidenceAccumulator::new(4, 10);
            acc.add_many(bs(4, &[1]), u64::MAX - 1);
            acc.add_many(bs(4, &[1]), u64::MAX - 1);
            acc.finish()
        });
        if cfg!(debug_assertions) {
            assert!(check.is_err(), "debug build must assert on overflow");
        } else {
            let e = check.unwrap();
            assert_eq!(e.entry(0).count, u64::MAX);
            assert_eq!(e.total_pairs(), u64::MAX);
        }
    }

    #[test]
    fn retract_decrements_to_zero_and_compact_sweeps() {
        let mut acc = EvidenceAccumulator::new(4, 5);
        acc.add_many(bs(4, &[0]), 2);
        acc.add_many(bs(4, &[1]), 1);
        acc.add_many(bs(4, &[2]), 3);
        assert_eq!(acc.retract(&bs(4, &[1])), 1);
        assert_eq!(acc.retract(&bs(4, &[0])), 0);
        // Zero-count entry stays in place until compaction (tombstone-free
        // multiset cell, not a hole).
        assert_eq!(acc.current().distinct_count(), 3);
        assert_eq!(acc.current().entry(1).count, 0);
        assert_eq!(acc.current().total_pairs(), 4);

        let remap = acc.compact();
        assert_eq!(remap, vec![Some(0), None, Some(1)]);
        let e = acc.current();
        assert_eq!(e.distinct_count(), 2);
        assert_eq!(e.entry(0).set, bs(4, &[0]));
        assert_eq!(e.entry(1).set, bs(4, &[2]));
        assert_eq!(e.total_pairs(), 4);

        // The rebuilt index interns correctly after compaction: re-adding the
        // swept set creates a fresh entry, re-adding a survivor reuses it.
        assert_eq!(acc.add(bs(4, &[2])), 1);
        assert_eq!(acc.add(bs(4, &[1])), 2);
    }

    #[test]
    fn compact_without_zero_counts_is_identity() {
        let mut acc = EvidenceAccumulator::new(4, 3);
        acc.add(bs(4, &[0]));
        acc.add(bs(4, &[1, 2]));
        let remap = acc.compact();
        assert_eq!(remap, vec![Some(0), Some(1)]);
        assert_eq!(acc.current().distinct_count(), 2);
    }

    #[test]
    #[should_panic(expected = "never recorded")]
    fn retract_of_unknown_evidence_panics() {
        let mut acc = EvidenceAccumulator::new(4, 2);
        acc.add(bs(4, &[0]));
        acc.retract(&bs(4, &[3]));
    }

    #[test]
    #[should_panic(expected = "already zero")]
    fn retract_below_zero_panics() {
        let mut acc = EvidenceAccumulator::new(4, 2);
        acc.add(bs(4, &[0]));
        acc.retract(&bs(4, &[0]));
        acc.retract(&bs(4, &[0]));
    }

    #[test]
    fn retract_many_equals_repeated_retract() {
        let mut one = EvidenceAccumulator::new(4, 5);
        one.add_many(bs(4, &[0]), 4);
        one.add_many(bs(4, &[1]), 2);
        let mut many = one.clone();
        for _ in 0..3 {
            one.retract(&bs(4, &[0]));
        }
        assert_eq!(many.retract_many(&bs(4, &[0]), 3), 0);
        assert_eq!(many.retract_many(&bs(4, &[1]), 2), 1);
        one.retract(&bs(4, &[1]));
        one.retract(&bs(4, &[1]));
        assert_eq!(one.current(), many.current());
        assert_eq!(many.current().entry(1).count, 0);
    }

    #[test]
    #[should_panic(expected = "already zero")]
    fn retract_many_below_zero_panics() {
        let mut acc = EvidenceAccumulator::new(4, 2);
        acc.add_many(bs(4, &[0]), 2);
        acc.retract_many(&bs(4, &[0]), 3);
    }

    #[test]
    #[should_panic(expected = "never recorded")]
    fn retract_many_of_unknown_evidence_panics() {
        let mut acc = EvidenceAccumulator::new(4, 2);
        acc.add(bs(4, &[0]));
        acc.retract_many(&bs(4, &[3]), 1);
    }

    #[test]
    fn from_set_round_trips_the_intern_index() {
        let mut acc = EvidenceAccumulator::new(4, 3);
        acc.add_many(bs(4, &[0]), 2);
        acc.add(bs(4, &[1]));
        let set = acc.finish();
        let mut rebuilt = EvidenceAccumulator::from_set(set.clone());
        assert_eq!(*rebuilt.current(), set);
        // The rebuilt index finds existing entries instead of duplicating.
        assert_eq!(rebuilt.add(bs(4, &[1])), 1);
        assert_eq!(rebuilt.retract(&bs(4, &[0])), 0);
    }

    #[test]
    fn violation_counting_against_hitting_sets() {
        let mut acc = EvidenceAccumulator::new(6, 4);
        acc.add_many(bs(6, &[0, 2]), 4);
        acc.add_many(bs(6, &[1]), 3);
        acc.add_many(bs(6, &[3, 4]), 5);
        let e = acc.finish();
        assert_eq!(e.total_pairs(), 12);

        // Hitting set {0,1} misses only the {3,4} entry.
        let h = bs(6, &[0, 1]);
        assert_eq!(e.violation_count(&h), 5);
        assert_eq!(e.satisfaction_count(&h), 7);
        assert!((e.violation_fraction(&h) - 5.0 / 12.0).abs() < 1e-12);
        assert_eq!(e.uncovered(&h).collect::<Vec<_>>(), vec![2]);
        assert!(!e.is_hitting_set(&h));

        // Hitting set {2,1,4} hits everything.
        let h2 = bs(6, &[1, 2, 4]);
        assert_eq!(e.violation_count(&h2), 0);
        assert!(e.is_hitting_set(&h2));

        // Empty hitting set misses everything.
        let h3 = bs(6, &[]);
        assert_eq!(e.violation_count(&h3), 12);
        assert_eq!(e.uncovered(&h3).count(), 3);
    }

    #[test]
    fn total_size_sums_weighted_cardinality() {
        let mut acc = EvidenceAccumulator::new(6, 3);
        acc.add_many(bs(6, &[0, 2]), 4); // 2 * 4
        acc.add_many(bs(6, &[1]), 3); // 1 * 3
        let e = acc.finish();
        assert_eq!(e.total_size(), 11);
    }

    #[test]
    fn empty_evidence_set() {
        let e = EvidenceSet::new(5, 0);
        assert_eq!(e.distinct_count(), 0);
        assert_eq!(e.total_pairs(), 0);
        assert_eq!(e.violation_fraction(&bs(5, &[])), 0.0);
        assert!(e.is_hitting_set(&bs(5, &[])));
    }
}
