//! The `vios` index: per-evidence-entry, per-tuple violation counts.
//!
//! The greedy replacement for the `f3` approximation function (Figure 2 of
//! the paper) needs, for every distinct evidence set `S` and tuple `t`, the
//! number of ordered pairs with `Sat(t₁,t₂) = S` in which `t` participates.
//! The `f2` function needs the set of tuples participating in each entry;
//! it reads them from [`ParticipantRows`], derived once from the index (a
//! bitset row for an entry that touches many tuples, a sorted id list for
//! one that touches few), so a score is a union of the uncovered entries'
//! rows into one bitset and a popcount.
//! Storing per-(entry, tuple) counts costs `O(distinct · tuples)` in the
//! worst case but is tiny in practice because the number of distinct
//! evidence sets is orders of magnitude smaller than the number of pairs
//! (the paper makes the same observation in Section 5).

#![doc = "conformance: ordered-output"]

use adc_data::fx::FxHashMap;

/// Per-evidence-entry, per-tuple pair-participation counts.
///
/// Equality compares the per-entry count maps by content (hash maps are
/// order-insensitive), so two indexes are equal exactly when every
/// `(entry, tuple)` pair carries the same count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Vios {
    /// `per_entry[e][t]` = number of ordered pairs with evidence entry `e`
    /// in which tuple `t` participates (as either element of the pair).
    per_entry: Vec<FxHashMap<u32, u32>>,
    num_tuples: usize,
}

impl Vios {
    /// Create an empty index for `num_entries` evidence entries over
    /// `num_tuples` tuples.
    pub fn new(num_entries: usize, num_tuples: usize) -> Self {
        Vios {
            per_entry: vec![FxHashMap::default(); num_entries],
            num_tuples,
        }
    }

    /// Record the ordered pair `(t, t_prime)` as having evidence entry `entry`.
    pub fn record_pair(&mut self, entry: usize, t: u32, t_prime: u32) {
        if entry >= self.per_entry.len() {
            self.per_entry.resize(entry + 1, FxHashMap::default());
        }
        let m = &mut self.per_entry[entry];
        *m.entry(t).or_insert(0) += 1;
        *m.entry(t_prime).or_insert(0) += 1;
    }

    /// Record `count` ordered pairs of entry `entry` that all involve tuple
    /// `t` — the closed-form bulk credit used by the sweep kernel, which
    /// knows from partition arithmetic how many pairs a tuple participates
    /// in without materialising them. Equivalent to `t` appearing in `count`
    /// separate [`Vios::record_pair`] calls for this entry (the partner
    /// tuples receive their own bulk credits). A zero `count` is a no-op and
    /// leaves no residue key.
    pub fn record_bulk(&mut self, entry: usize, t: u32, count: u32) {
        if count == 0 {
            return;
        }
        if entry >= self.per_entry.len() {
            self.per_entry.resize(entry + 1, FxHashMap::default());
        }
        *self.per_entry[entry].entry(t).or_insert(0) += count;
    }

    /// Retract a previously recorded ordered pair `(t, t_prime)` from entry
    /// `entry`, decrementing both tuples' participation counts and dropping
    /// keys that reach zero (so a fully retracted tuple leaves no residue).
    ///
    /// This is the delta-maintenance inverse of [`Vios::record_pair`].
    ///
    /// # Panics
    /// Panics if the pair was not recorded against this entry — the caller's
    /// delta bookkeeping has diverged from the batch state.
    pub fn retract_pair(&mut self, entry: usize, t: u32, t_prime: u32) {
        let m = self
            .per_entry
            .get_mut(entry)
            // conformance: allow(panic) — documented panic: firing means the caller's delta bookkeeping diverged from the batch state
            .unwrap_or_else(|| panic!("retracting a pair from unknown vios entry {entry}"));
        for tuple in [t, t_prime] {
            let count = m
                .get_mut(&tuple)
                // conformance: allow(panic) — documented panic: firing means the caller's delta bookkeeping diverged from the batch state
                .unwrap_or_else(|| panic!("retracting unrecorded pair ({t},{t_prime}) from vios"));
            *count -= 1;
            if *count == 0 {
                m.remove(&tuple);
            }
        }
    }

    /// Re-target the per-entry maps through a compaction remap log (as
    /// returned by [`crate::evidence::EvidenceAccumulator::compact`]):
    /// entry `e` moves to `remap[e]`; swept entries (`None`) must already be
    /// empty — every pair of a zero-count evidence entry has been retracted.
    ///
    /// # Panics
    /// Panics if this index tracks more entries than `remap` covers, or if a
    /// swept entry still holds participation counts.
    pub fn remap_entries(&mut self, remap: &[Option<usize>]) {
        assert!(
            self.per_entry.len() <= remap.len(),
            "vios tracks {} entries but the remap log covers only {}",
            self.per_entry.len(),
            remap.len()
        );
        let kept = remap[..self.per_entry.len()]
            .iter()
            .filter(|m| m.is_some())
            .count();
        let mut new_per: Vec<FxHashMap<u32, u32>> = vec![FxHashMap::default(); kept];
        for (old, counts) in std::mem::take(&mut self.per_entry).into_iter().enumerate() {
            match remap[old] {
                Some(new) => new_per[new] = counts,
                None => assert!(
                    counts.is_empty(),
                    "compaction swept vios entry {old} which still holds pair counts"
                ),
            }
        }
        self.per_entry = new_per;
    }

    /// Renumber tuple ids after a deletion batch: tuple `t` becomes
    /// `old_to_new[t]` (`None` = deleted; such tuples must already carry no
    /// counts, i.e. every pair involving them has been retracted), and the
    /// tracked tuple count becomes `num_tuples`.
    ///
    /// # Panics
    /// Panics if a deleted tuple still participates in a recorded pair.
    pub fn renumber_tuples(&mut self, old_to_new: &[Option<u32>], num_tuples: usize) {
        for counts in &mut self.per_entry {
            *counts = std::mem::take(counts)
                .into_iter()
                .map(|(t, c)| {
                    let new = old_to_new
                        .get(t as usize)
                        .copied()
                        .flatten()
                        .unwrap_or_else(|| {
                            // conformance: allow(panic) — delete-contract violation: the monitor retracts all of a tuple's pairs before dropping it
                            panic!("deleted tuple {t} still participates in recorded pairs")
                        });
                    (new, c)
                })
                .collect();
        }
        self.num_tuples = num_tuples;
    }

    /// Update the tracked tuple count (after an insert-only batch, where no
    /// renumbering is needed).
    pub fn set_num_tuples(&mut self, num_tuples: usize) {
        self.num_tuples = num_tuples;
    }

    /// Grow the entry list to `num_entries` (no-op if already that large), so
    /// an index stays aligned with an accumulator that interned new entries
    /// the index has not seen pairs for yet.
    pub fn ensure_entries(&mut self, num_entries: usize) {
        if self.per_entry.len() < num_entries {
            self.per_entry.resize(num_entries, FxHashMap::default());
        }
    }

    /// Merge a shard index whose entry ids are *local* to the shard's own
    /// accumulator, translating them through `mapping` (as returned by
    /// [`crate::evidence::EvidenceAccumulator::merge_set`] for that shard):
    /// shard entry `e` contributes its counts to entry `mapping[e]` here.
    ///
    /// # Panics
    /// Panics if the shard tracks more entries than `mapping` covers.
    pub fn merge_mapped(&mut self, shard: &Vios, mapping: &[usize]) {
        assert!(
            shard.per_entry.len() <= mapping.len(),
            "shard has {} entries but mapping covers only {}",
            shard.per_entry.len(),
            mapping.len()
        );
        for (local, counts) in shard.per_entry.iter().enumerate() {
            let global = mapping[local];
            if global >= self.per_entry.len() {
                self.per_entry.resize(global + 1, FxHashMap::default());
            }
            let m = &mut self.per_entry[global];
            // conformance: allow(unordered) — feeds a commutative additive merge; the target map's content is order-independent
            for (&t, &c) in counts {
                *m.entry(t).or_insert(0) += c;
            }
        }
    }

    /// Number of evidence entries tracked.
    pub fn num_entries(&self) -> usize {
        self.per_entry.len()
    }

    /// Number of tuples of the underlying relation.
    pub fn num_tuples(&self) -> usize {
        self.num_tuples
    }

    /// Tuples participating in at least one pair of entry `entry`, with their
    /// participation counts. The iteration order is **unspecified** — callers
    /// that surface the tuples must sort; the in-tree consumers either sort a
    /// collected copy or fold commutatively.
    pub fn entry_tuples(&self, entry: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        // conformance: allow(unordered) — order documented unspecified; every consumer sorts a collected copy or folds commutatively
        self.per_entry[entry].iter().map(|(&t, &c)| (t, c))
    }

    /// Participation count of tuple `t` in entry `entry`.
    pub fn count(&self, entry: usize, t: u32) -> u32 {
        self.per_entry
            .get(entry)
            .and_then(|m| m.get(&t).copied())
            .unwrap_or(0)
    }

    /// Accumulate, over the given entries, the per-tuple participation counts
    /// (the `v(t)` values computed by `SortTuples` in Figure 2 of the paper).
    pub fn accumulate_counts(&self, entries: &[usize]) -> FxHashMap<u32, u64> {
        let mut counts: FxHashMap<u32, u64> = FxHashMap::default();
        for &e in entries {
            for (&t, &c) in &self.per_entry[e] {
                *counts.entry(t).or_insert(0) += c as u64;
            }
        }
        counts
    }

    /// The participant rows of this index: for every entry, the tuples
    /// that take part in one of its pairs (see [`ParticipantRows`]).
    pub fn participant_rows(&self) -> ParticipantRows {
        // conformance: allow(unordered) — a max over the keys; the order cannot escape
        let max_id = self.per_entry.iter().flat_map(|m| m.keys()).max();
        let bits = max_id.map_or(self.num_tuples, |&t| self.num_tuples.max(t as usize + 1));
        let words_per_row = bits.div_ceil(64);
        let mut rows = Vec::with_capacity(self.per_entry.len());
        let (mut words, mut ids) = (Vec::new(), Vec::new());
        for counts in &self.per_entry {
            // A bitset row costs `words_per_row` words of memory and ORs per
            // score, an id list one `u32` and one bit store per participant:
            // take the bitset once it is no larger than the list.
            if 2 * words_per_row <= counts.len() {
                let start = words.len();
                words.resize(start + words_per_row, 0u64);
                // conformance: allow(unordered) — sets bits; the result is order-independent
                for &t in counts.keys() {
                    words[start + t as usize / 64] |= 1 << (t % 64);
                }
                rows.push(Row::Bits(start));
            } else {
                let start = ids.len();
                // conformance: allow(unordered) — the ids are sorted right below
                ids.extend(counts.keys().copied());
                ids[start..].sort_unstable();
                rows.push(Row::Ids(start, ids.len()));
            }
        }
        ParticipantRows {
            words_per_row,
            rows,
            words,
            ids,
        }
    }
}

/// Where one entry's participants live in [`ParticipantRows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    /// A bitset row: `words[start..start + words_per_row]`.
    Bits(usize),
    /// A sorted id list: `ids[start..end]`.
    Ids(usize, usize),
}

/// Which tuples each evidence entry's pairs touch (see
/// [`Vios::participant_rows`]). An entry with at least `2⌈n/64⌉`
/// participants (`n` the tuple count) holds them as a row of `⌈n/64⌉` bits,
/// any other entry as a sorted list of tuple ids. So the rows never take
/// more than four bytes per (entry, participant), and besides clearing and
/// counting its `⌈n/64⌉`-word union a score does at most one operation per
/// participant of its entries. The `f2` approximation function unions the
/// rows of a DC's uncovered entries into one `n`-bit set and counts its
/// bits: the number of problematic tuples, without hashing a single tuple
/// id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParticipantRows {
    words_per_row: usize,
    rows: Vec<Row>,
    /// The bitset rows, `words_per_row` words each.
    words: Vec<u64>,
    /// The id lists, one after another.
    ids: Vec<u32>,
}

impl ParticipantRows {
    /// Number of distinct tuples participating in at least one pair of the
    /// given entries.
    ///
    /// # Panics
    /// Panics if an entry lies beyond the index the rows came from.
    pub fn distinct_tuples(&self, entries: impl IntoIterator<Item = usize>) -> usize {
        let mut union = vec![0u64; self.words_per_row];
        for e in entries {
            match self.rows[e] {
                Row::Bits(start) => {
                    let row = &self.words[start..start + self.words_per_row];
                    for (u, w) in union.iter_mut().zip(row) {
                        *u |= w;
                    }
                }
                Row::Ids(start, end) => {
                    for &t in &self.ids[start..end] {
                        union[t as usize / 64] |= 1 << (t % 64);
                    }
                }
            }
        }
        union.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut v = Vios::new(2, 4);
        v.record_pair(0, 0, 1);
        v.record_pair(0, 1, 2);
        v.record_pair(1, 3, 0);
        assert_eq!(v.count(0, 1), 2);
        assert_eq!(v.count(0, 0), 1);
        assert_eq!(v.count(0, 3), 0);
        assert_eq!(v.count(1, 3), 1);
        assert_eq!(v.num_entries(), 2);
        assert_eq!(v.num_tuples(), 4);
    }

    #[test]
    fn entry_growth_on_demand() {
        let mut v = Vios::new(0, 2);
        v.record_pair(3, 0, 1);
        assert_eq!(v.num_entries(), 4);
        assert_eq!(v.count(3, 0), 1);
        assert_eq!(v.count(2, 0), 0);
    }

    #[test]
    fn retract_pair_inverts_record_pair() {
        let mut v = Vios::new(2, 4);
        v.record_pair(0, 0, 1);
        v.record_pair(0, 1, 2);
        v.retract_pair(0, 0, 1);
        assert_eq!(v.count(0, 0), 0);
        assert_eq!(v.count(0, 1), 1);
        assert_eq!(v.count(0, 2), 1);
        // Fully retracted tuples leave no residue keys.
        v.retract_pair(0, 1, 2);
        assert_eq!(v.entry_tuples(0).count(), 0);
        assert_eq!(v, {
            let mut fresh = Vios::new(2, 4);
            fresh.record_pair(0, 5, 6); // make entry 0 non-trivially compared
            fresh.retract_pair(0, 5, 6);
            fresh
        });
    }

    #[test]
    #[should_panic(expected = "unrecorded pair")]
    fn retract_unrecorded_pair_panics() {
        let mut v = Vios::new(1, 3);
        v.record_pair(0, 0, 1);
        v.retract_pair(0, 0, 2);
    }

    #[test]
    fn remap_entries_follows_compaction() {
        let mut v = Vios::new(3, 4);
        v.record_pair(0, 0, 1);
        v.record_pair(2, 2, 3);
        // Entry 1 was swept (it is empty), entries 0 and 2 slide down.
        v.remap_entries(&[Some(0), None, Some(1)]);
        assert_eq!(v.num_entries(), 2);
        assert_eq!(v.count(0, 0), 1);
        assert_eq!(v.count(1, 2), 1);
    }

    #[test]
    #[should_panic(expected = "still holds pair counts")]
    fn remap_refuses_to_sweep_live_entries() {
        let mut v = Vios::new(2, 3);
        v.record_pair(1, 0, 1);
        v.remap_entries(&[Some(0), None]);
    }

    #[test]
    fn renumber_tuples_after_deletion() {
        let mut v = Vios::new(1, 4);
        v.record_pair(0, 0, 2);
        v.record_pair(0, 2, 3);
        // Delete tuple 1: 0→0, 2→1, 3→2.
        v.renumber_tuples(&[Some(0), None, Some(1), Some(2)], 3);
        assert_eq!(v.num_tuples(), 3);
        assert_eq!(v.count(0, 0), 1);
        assert_eq!(v.count(0, 1), 2);
        assert_eq!(v.count(0, 2), 1);
    }

    #[test]
    #[should_panic(expected = "still participates")]
    fn renumber_refuses_to_drop_live_tuples() {
        let mut v = Vios::new(1, 2);
        v.record_pair(0, 0, 1);
        v.renumber_tuples(&[Some(0), None], 1);
    }

    #[test]
    fn accumulate_counts_over_entries() {
        let mut v = Vios::new(3, 5);
        v.record_pair(0, 0, 1);
        v.record_pair(1, 0, 2);
        v.record_pair(2, 3, 4);
        let counts = v.accumulate_counts(&[0, 1]);
        assert_eq!(counts.get(&0).copied(), Some(2));
        assert_eq!(counts.get(&1).copied(), Some(1));
        assert_eq!(counts.get(&2).copied(), Some(1));
        assert_eq!(counts.get(&3), None);
    }

    #[test]
    fn distinct_tuples_over_entries() {
        let mut v = Vios::new(3, 6);
        v.record_pair(0, 0, 1);
        v.record_pair(1, 1, 2);
        v.record_pair(2, 4, 5);
        let rows = v.participant_rows();
        assert_eq!(rows.words_per_row, 1);
        assert_eq!(rows.rows[0], Row::Bits(0));
        assert_eq!(rows.words[0], 0b11);
        assert_eq!(rows.distinct_tuples([0, 1]), 3);
        assert_eq!(rows.distinct_tuples([2]), 2);
        assert_eq!(rows.distinct_tuples([]), 0);
        assert_eq!(rows.distinct_tuples([0, 1, 2]), 5);
    }

    #[test]
    fn participant_rows_take_bitsets_only_for_entries_touching_many_tuples() {
        // 130 tuples: a bitset row is 3 words, worth it from 6 participants.
        let mut v = Vios::new(3, 130);
        v.record_pair(0, 129, 0);
        v.record_pair(0, 64, 1);
        for t in 0..4 {
            v.record_pair(1, t, t + 64);
        }
        let rows = v.participant_rows();
        assert_eq!(
            rows.rows,
            vec![Row::Ids(0, 4), Row::Bits(0), Row::Ids(4, 4)]
        );
        assert_eq!(rows.ids, vec![0, 1, 64, 129]);
        assert_eq!(rows.words, vec![0b1111, 0b1111, 0]);
        assert_eq!(rows.distinct_tuples([0]), 4);
        assert_eq!(rows.distinct_tuples([1]), 8);
        assert_eq!(rows.distinct_tuples([0, 1, 2]), 9);
        assert_eq!(rows.distinct_tuples([2]), 0);
    }

    #[test]
    fn entry_tuples_iteration() {
        let mut v = Vios::new(1, 3);
        v.record_pair(0, 0, 1);
        v.record_pair(0, 0, 2);
        let mut pairs: Vec<(u32, u32)> = v.entry_tuples(0).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 2), (1, 1), (2, 1)]);
    }

    /// The replaced hash-set count of the tuples the given entries touch.
    fn reference_distinct_tuples(v: &Vios, entries: &[usize]) -> usize {
        let mut tuples = adc_data::fx::FxHashSet::default();
        for &e in entries {
            tuples.extend(v.entry_tuples(e).map(|(t, _)| t));
        }
        tuples.len()
    }

    /// Every subset of up to 8 entries, or 64 random subsets beyond that.
    fn entry_subsets(num_entries: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
        if num_entries <= 8 {
            (0u32..1 << num_entries)
                .map(|mask| (0..num_entries).filter(|&e| mask >> e & 1 == 1).collect())
                .collect()
        } else {
            (0..64)
                .map(|_| (0..num_entries).filter(|_| rng.gen_bool(0.3)).collect())
                .collect()
        }
    }

    fn assert_rows_match_reference(v: &Vios, rng: &mut StdRng) {
        let rows = v.participant_rows();
        assert_eq!(rows.words_per_row, v.num_tuples().div_ceil(64));
        for subset in entry_subsets(v.num_entries(), rng) {
            assert_eq!(
                rows.distinct_tuples(subset.iter().copied()),
                reference_distinct_tuples(v, &subset),
                "entries {subset:?} over {} tuples",
                v.num_tuples()
            );
        }
    }

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    proptest! {
        /// The participant-bitset count equals the hash-set count on random
        /// indexes — word-boundary tuple counts, entries without
        /// participants — and after retractions, compaction and tuple
        /// renumbering.
        #[test]
        fn participant_rows_match_the_hash_set_count(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            for n in [0usize, 1, 63, 64, 65, 130] {
                let entries = rng.gen_range(0..12);
                let mut v = Vios::new(entries, n);
                let mut recorded = Vec::new();
                if n > 0 && entries > 0 {
                    for _ in 0..rng.gen_range(0..3 * n) {
                        // Entry 0 stays empty when there are spare entries.
                        let e = rng.gen_range(usize::from(entries > 1)..entries);
                        let (t, u) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                        v.record_pair(e, t, u);
                        recorded.push((e, t, u));
                    }
                }
                assert_rows_match_reference(&v, &mut rng);

                // Retract a random half of the recorded pairs.
                for &(e, t, u) in &recorded {
                    if rng.gen_bool(0.5) {
                        v.retract_pair(e, t, u);
                    }
                }
                assert_rows_match_reference(&v, &mut rng);

                // Compact away the entries that are now empty.
                let mut next = 0;
                let remap: Vec<Option<usize>> = (0..v.num_entries())
                    .map(|e| {
                        (v.entry_tuples(e).count() > 0 || rng.gen_bool(0.3)).then(|| {
                            next += 1;
                            next - 1
                        })
                    })
                    .collect();
                v.remap_entries(&remap);
                assert_rows_match_reference(&v, &mut rng);

                // Delete the tuples that no longer participate anywhere.
                let live: Vec<bool> = (0..n as u32)
                    .map(|t| (0..v.num_entries()).any(|e| v.count(e, t) > 0) || rng.gen_bool(0.5))
                    .collect();
                let mut kept = 0u32;
                let old_to_new: Vec<Option<u32>> = live
                    .iter()
                    .map(|&l| {
                        l.then(|| {
                            kept += 1;
                            kept - 1
                        })
                    })
                    .collect();
                v.renumber_tuples(&old_to_new, kept as usize);
                assert_rows_match_reference(&v, &mut rng);
            }
        }
    }
}
