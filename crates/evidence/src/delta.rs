//! Differential (Z-set style) evidence maintenance.
//!
//! A batch evidence build scans all `n·(n−1)` ordered tuple pairs. Under
//! tuple churn that is wasteful: inserting a tuple only creates pairs that
//! involve it (`2·(n−1)` of them — an `O(n)` delta), and deleting a tuple
//! only retracts the pairs it participated in. [`DeltaEvidenceBuilder`]
//! maintains the interned evidence multiset (and optionally the [`Vios`]
//! index) under insert/delete batches by scanning exactly those affected
//! pairs with the same cluster kernel
//! ([`column_codes`](crate::builder) / group masks / `fill_pair`) the batch
//! builders use, annotating each pair `+1` on insert and `−1` on delete —
//! the DBSP/DVM discipline applied to evidence multisets.
//!
//! After every [`DeltaEvidenceBuilder::apply`] the maintained state equals a
//! from-scratch [`ClusterEvidenceBuilder`](crate::ClusterEvidenceBuilder)
//! rebuild of the patched relation *as a multiset* — entry counts, total
//! pairs, and per-entry `Vios` counts all match; only the first-encounter
//! entry **order** may differ, because surviving entries keep their original
//! discovery order instead of the rebuilt scan order. The property suite in
//! `tests/streaming.rs` pins this equivalence under random insert/delete
//! interleavings.

#![doc = "conformance: ordered-output"]

use crate::builder::{column_codes, fill_pair, group_masks, ColumnCodes, GroupMasks};
use crate::evidence::{EvidenceAccumulator, EvidenceSet};
use crate::vios::Vios;
use crate::{Evidence, EvidenceBuilder};
use adc_data::fx::FxHashMap;
use adc_data::{DataError, FixedBitSet, Relation, Value};
use adc_predicates::PredicateSpace;

/// What one [`DeltaEvidenceBuilder::apply`] did to the evidence multiset, in
/// terms of **post-compaction** entry indexes (except for removals, whose
/// entries no longer exist and are therefore reported by bitmask).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvidenceDelta {
    /// Indexes of entries that did not exist before this apply.
    pub added: Vec<usize>,
    /// Bitmasks of entries whose multiplicity dropped to zero and were swept
    /// out by compaction.
    pub removed: Vec<FixedBitSet>,
    /// Indexes of pre-existing entries whose multiplicity changed but stayed
    /// positive.
    pub count_changed: Vec<usize>,
    /// The stable entry-id remap log of this apply's compaction:
    /// `remap[old] = Some(new)` for surviving entries, `None` for swept ones.
    /// Identity (all `Some`, in order) when nothing was removed.
    pub remap: Vec<Option<usize>>,
    /// Ordered tuple pairs this apply actually scanned (retractions plus
    /// insertions) — the `O(n·batch)` figure to compare against the
    /// `n·(n−1)` pairs a batch rebuild would scan.
    pub pairs_scanned: u64,
}

impl EvidenceDelta {
    /// `true` when the apply changed nothing (empty batch, or a batch whose
    /// net effect cancelled out).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty() && self.count_changed.is_empty()
    }

    /// Total number of entries this delta touched (added + removed +
    /// count-changed).
    pub fn entries_touched(&self) -> usize {
        self.added.len() + self.removed.len() + self.count_changed.len()
    }

    /// The survivor/added split point of the post-compaction entry list.
    ///
    /// Apply keeps a layout invariant the incremental cover-repair path
    /// depends on: entries that survived this apply keep their relative
    /// order (compaction is stable) and precede every entry first created by
    /// it (new entries are appended, and phase 1 retractions all happen
    /// before phase 3 recordings, so a new entry can never hit count zero
    /// within the same apply). `added` is therefore always the contiguous
    /// index suffix `[total − |added|, total)`, and the prefix below the
    /// returned split is exactly the old entries minus `removed` — the shape
    /// `repair_covers_removal` (prefix) + `repair_covers` (suffix) consume.
    ///
    /// `total_entries` is the post-compaction entry count
    /// (`evidence_set().distinct_count()`).
    ///
    /// # Panics
    /// Panics (in debug builds) if `added` is not that suffix — i.e. the
    /// caller passed a count from a different apply.
    pub fn survivor_split(&self, total_entries: usize) -> usize {
        let split = total_entries - self.added.len();
        debug_assert!(
            self.added
                .iter()
                .all(|&i| (split..total_entries).contains(&i)),
            "added entries are not the post-compaction suffix"
        );
        split
    }
}

/// Maintains the evidence state of one relation under tuple insert/delete
/// batches, scanning only affected pairs.
///
/// The builder owns the current relation (callers read it back via
/// [`DeltaEvidenceBuilder::relation`]) because retractions must be evaluated
/// against the *pre-delete* column codes and insertions against the
/// *post-insert* ones — owning the relation makes that sequencing
/// impossible to get wrong from outside.
///
/// The predicate space is fixed at construction: predicate-space generation
/// depends on whole-relation statistics (the 30 % shared-values rule), so a
/// space rebuilt mid-stream could change the predicate universe under the
/// search. Callers that want the space to track the data must rebuild both
/// from scratch.
#[derive(Debug, Clone)]
pub struct DeltaEvidenceBuilder {
    relation: Relation,
    acc: EvidenceAccumulator,
    vios: Option<Vios>,
    /// Cached kernel state: group masks depend only on the (frozen) space;
    /// column codes must be recomputed whenever rows change, so they are not
    /// cached here.
    groups: Vec<GroupMasks>,
    num_predicates: usize,
}

impl DeltaEvidenceBuilder {
    /// Build the initial evidence state with one full cluster-kernel scan of
    /// `relation` (the last `O(n²)` scan this builder will ever do).
    pub fn new(relation: &Relation, space: &PredicateSpace, track_vios: bool) -> Self {
        Self::new_with(relation, space, track_vios, &crate::ClusterEvidenceBuilder)
    }

    /// Build the initial evidence state with an explicit batch builder —
    /// e.g. [`SweepEvidenceBuilder`](crate::SweepEvidenceBuilder) to make the
    /// one-off seeding scan sub-quadratic and multi-threaded. All batch
    /// builders produce canonically equal evidence, so the maintained state
    /// is the same multiset regardless of the seeding kernel (only the
    /// initial entry order can differ; see `Evidence::canonicalize`).
    pub fn new_with(
        relation: &Relation,
        space: &PredicateSpace,
        track_vios: bool,
        builder: &dyn EvidenceBuilder,
    ) -> Self {
        let evidence = builder.build(relation, space, track_vios);
        Self::from_parts(relation.clone(), space, evidence)
    }

    /// Take over evidence that was already built for `relation` by one of the
    /// batch builders (all of which produce identical output), without
    /// rescanning.
    ///
    /// # Panics
    /// Panics if the evidence does not match the relation/space shape
    /// (tuple count, predicate count) or contains zero-count entries.
    pub fn from_parts(relation: Relation, space: &PredicateSpace, evidence: Evidence) -> Self {
        let Evidence { evidence_set, vios } = evidence;
        assert_eq!(
            evidence_set.num_tuples(),
            relation.len(),
            "evidence was built over a different relation"
        );
        assert_eq!(
            evidence_set.num_predicates(),
            space.len(),
            "evidence was built over a different predicate space"
        );
        assert!(
            evidence_set.entries().iter().all(|e| e.count > 0),
            "differential maintenance requires compacted evidence (no zero-count entries)"
        );
        DeltaEvidenceBuilder {
            relation,
            acc: EvidenceAccumulator::from_set(evidence_set),
            vios,
            groups: group_masks(space),
            num_predicates: space.len(),
        }
    }

    /// The current (post-all-applies) relation.
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// The current evidence multiset.
    pub fn evidence_set(&self) -> &EvidenceSet {
        self.acc.current()
    }

    /// The current `Vios` index, if tracked.
    pub fn vios(&self) -> Option<&Vios> {
        self.vios.as_ref()
    }

    /// Clone the current state into a standalone [`Evidence`] value (what the
    /// enumeration layer consumes).
    pub fn snapshot(&self) -> Evidence {
        Evidence {
            evidence_set: self.acc.current().clone(),
            vios: self.vios.clone(),
        }
    }

    /// Apply one tuple batch: delete the rows at `deletes` (indexes into the
    /// current relation; duplicates and order don't matter), then append
    /// `inserts`, scanning only the ordered pairs that involve a deleted or
    /// inserted tuple. Surviving rows are renumbered exactly like
    /// [`Relation::project_rows`] (kept rows slide down, inserts go to the
    /// end), and the [`Vios`] index follows.
    ///
    /// Returns the [`EvidenceDelta`] classifying every touched entry.
    ///
    /// # Errors
    /// [`DataError`] if an insert row does not fit the schema or a delete
    /// index is out of bounds; the state is untouched in that case.
    pub fn apply(
        &mut self,
        deletes: &[usize],
        inserts: Vec<Vec<Value>>,
    ) -> Result<EvidenceDelta, DataError> {
        let n_old = self.relation.len();
        let mut deletes: Vec<usize> = deletes.to_vec();
        deletes.sort_unstable();
        deletes.dedup();
        if let Some(&bad) = deletes.iter().find(|&&d| d >= n_old) {
            return Err(DataError::RowOutOfBounds {
                row: bad,
                rows: n_old,
            });
        }
        // Validate the inserts before phase 1 mutates anything — phase 3's
        // `append_rows` re-checks, but by then retractions have already
        // landed, and an error must leave the whole state untouched.
        self.relation.check_rows(&inserts)?;

        let entries_before = self.acc.current().distinct_count();
        let mut net_change: FxHashMap<usize, i64> = FxHashMap::default();
        let mut pairs_scanned = 0u64;
        let words = self.num_predicates.div_ceil(64);
        let mut buffer = vec![0u64; words];
        let mut deleted = vec![false; n_old];
        for &d in &deletes {
            deleted[d] = true;
        }

        // Phase 1 — retract every ordered pair involving a deleted row,
        // against the *old* relation's codes (each affected pair exactly
        // once: all pairs whose first element is deleted, plus pairs whose
        // second element is deleted but first is not).
        if !deletes.is_empty() && self.num_predicates > 0 {
            let codes = column_codes(&self.relation);
            for &d in &deletes {
                for (other, &other_deleted) in deleted.iter().enumerate() {
                    if other == d {
                        continue;
                    }
                    self.retract_one(&codes, d, other, &mut buffer, &mut net_change);
                    pairs_scanned += 1;
                    if !other_deleted {
                        self.retract_one(&codes, other, d, &mut buffer, &mut net_change);
                        pairs_scanned += 1;
                    }
                }
            }
        }

        // Phase 2 — drop the deleted rows, renumbering survivors.
        if !deletes.is_empty() {
            let kept: Vec<usize> = (0..n_old).filter(|&r| !deleted[r]).collect();
            let mut old_to_new: Vec<Option<u32>> = vec![None; n_old];
            for (new, &old) in kept.iter().enumerate() {
                old_to_new[old] = Some(new as u32);
            }
            self.relation = self.relation.project_rows(&kept);
            if let Some(v) = self.vios.as_mut() {
                v.renumber_tuples(&old_to_new, kept.len());
            }
        }

        // Phase 3 — append the inserts and record every ordered pair
        // involving a new row, against the *new* relation's codes (pair
        // (a, b) with at least one new row is handled at i = max(a, b),
        // which is always an inserted index because inserts sit at the end).
        let n_mid = self.relation.len();
        self.relation.append_rows(inserts)?;
        let n_new = self.relation.len();
        if n_new > n_mid && self.num_predicates > 0 {
            let codes = column_codes(&self.relation);
            for i in n_mid..n_new {
                for j in 0..i {
                    self.record_one(&codes, i, j, &mut buffer, &mut net_change, entries_before);
                    self.record_one(&codes, j, i, &mut buffer, &mut net_change, entries_before);
                    pairs_scanned += 2;
                }
            }
        }
        debug_assert_eq!(
            self.acc.current().total_pairs(),
            self.relation.ordered_pair_count()
        );

        // Phase 4 — classify touched entries, sweep zero-count ones, and
        // re-target the side index through the remap log.
        let removed: Vec<FixedBitSet> = self
            .acc
            .current()
            .entries()
            .iter()
            .filter(|e| e.count == 0)
            .map(|e| e.set.clone())
            .collect();
        let remap = self.acc.compact();
        self.acc.set_num_tuples(n_new);
        if let Some(v) = self.vios.as_mut() {
            v.ensure_entries(remap.len());
            v.remap_entries(&remap);
            v.set_num_tuples(n_new);
        }

        let mut touched: Vec<(usize, i64)> = net_change.into_iter().collect();
        touched.sort_unstable_by_key(|&(idx, _)| idx);
        let mut added = Vec::new();
        let mut count_changed = Vec::new();
        for (old_idx, net) in touched {
            if let Some(new_idx) = remap[old_idx] {
                if old_idx >= entries_before {
                    added.push(new_idx);
                } else if net != 0 {
                    count_changed.push(new_idx);
                }
            }
        }

        Ok(EvidenceDelta {
            added,
            removed,
            count_changed,
            remap,
            pairs_scanned,
        })
    }

    fn retract_one(
        &mut self,
        codes: &[ColumnCodes],
        t: usize,
        t_prime: usize,
        buffer: &mut [u64],
        net_change: &mut FxHashMap<usize, i64>,
    ) {
        fill_pair(codes, &self.groups, t, t_prime, buffer);
        let set = FixedBitSet::from_words(self.num_predicates, buffer);
        let entry = self.acc.retract(&set);
        *net_change.entry(entry).or_insert(0) -= 1;
        if let Some(v) = self.vios.as_mut() {
            v.retract_pair(entry, t as u32, t_prime as u32);
        }
    }

    fn record_one(
        &mut self,
        codes: &[ColumnCodes],
        t: usize,
        t_prime: usize,
        buffer: &mut [u64],
        net_change: &mut FxHashMap<usize, i64>,
        entries_before: usize,
    ) {
        fill_pair(codes, &self.groups, t, t_prime, buffer);
        let entry = self
            .acc
            .add(FixedBitSet::from_words(self.num_predicates, buffer));
        *net_change.entry(entry).or_insert(0) += 1;
        if let Some(v) = self.vios.as_mut() {
            // A brand-new entry index may be past what the index has seen.
            let _ = entries_before;
            v.ensure_entries(entry + 1);
            v.record_pair(entry, t as u32, t_prime as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::{random_relation, small_relation};
    use crate::{ClusterEvidenceBuilder, EvidenceBuilder};
    use adc_data::fx::FxHashMap;
    use adc_predicates::SpaceConfig;

    /// Multiset view of an evidence set (entry order is the one thing delta
    /// maintenance does not preserve).
    fn as_multiset(e: &EvidenceSet) -> FxHashMap<Vec<usize>, u64> {
        let mut m = FxHashMap::default();
        for entry in e.entries() {
            *m.entry(entry.set.to_vec()).or_insert(0) += entry.count;
        }
        m
    }

    /// `Vios` keyed by entry bitmask instead of entry index, as sorted pairs.
    fn vios_by_mask(e: &EvidenceSet, v: &Vios) -> FxHashMap<Vec<usize>, Vec<(u32, u32)>> {
        let mut m = FxHashMap::default();
        for (idx, entry) in e.entries().iter().enumerate() {
            let mut tuples: Vec<(u32, u32)> = v.entry_tuples(idx).collect();
            tuples.sort_unstable();
            m.insert(entry.set.to_vec(), tuples);
        }
        m
    }

    fn assert_matches_batch_rebuild(builder: &DeltaEvidenceBuilder, space: &PredicateSpace) {
        let rebuilt = ClusterEvidenceBuilder.build(builder.relation(), space, true);
        let maintained = builder.evidence_set();
        assert_eq!(as_multiset(maintained), as_multiset(&rebuilt.evidence_set));
        assert_eq!(maintained.total_pairs(), rebuilt.evidence_set.total_pairs());
        assert_eq!(maintained.num_tuples(), rebuilt.evidence_set.num_tuples());
        assert_eq!(
            vios_by_mask(maintained, builder.vios().unwrap()),
            vios_by_mask(&rebuilt.evidence_set, rebuilt.vios.as_ref().unwrap())
        );
    }

    #[test]
    fn insert_batch_matches_batch_rebuild() {
        let r = small_relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let mut builder = DeltaEvidenceBuilder::new(&r, &space, true);
        let n = r.len() as u64;
        let delta = builder
            .apply(
                &[],
                vec![vec![
                    "Zoe".into(),
                    "NY".into(),
                    Value::Int(33_000),
                    Value::Int(3_100),
                ]],
            )
            .unwrap();
        // One insert scans 2·n pairs, not (n+1)·n.
        assert_eq!(delta.pairs_scanned, 2 * n);
        assert!(!delta.is_empty());
        assert!(delta.removed.is_empty());
        assert_matches_batch_rebuild(&builder, &space);
    }

    #[test]
    fn delete_batch_matches_batch_rebuild() {
        let r = small_relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let mut builder = DeltaEvidenceBuilder::new(&r, &space, true);
        let delta = builder.apply(&[1, 3], vec![]).unwrap();
        // Two deletes among 5 rows: all pairs touching {1,3} = 2·2·4 − 2.
        assert_eq!(delta.pairs_scanned, 14);
        assert_eq!(builder.relation().len(), 3);
        assert_matches_batch_rebuild(&builder, &space);
        // Removed entries really are gone from the maintained state.
        for mask in &delta.removed {
            assert!(builder
                .evidence_set()
                .entries()
                .iter()
                .all(|e| e.set != *mask));
        }
    }

    #[test]
    fn mixed_batches_round_trip() {
        let r = random_relation(20, 7);
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let mut builder = DeltaEvidenceBuilder::new(&r, &space, true);
        // A churn sequence: delete some, insert some, repeat.
        let donor = random_relation(12, 8);
        let mut donor_rows = (0..donor.len()).map(|i| donor.row(i));
        builder
            .apply(&[0, 5, 5, 19], vec![donor_rows.next().unwrap()])
            .unwrap();
        assert_matches_batch_rebuild(&builder, &space);
        builder
            .apply(&[2], donor_rows.by_ref().take(4).collect())
            .unwrap();
        assert_matches_batch_rebuild(&builder, &space);
        builder.apply(&[], vec![]).unwrap();
        assert_matches_batch_rebuild(&builder, &space);
        // Delete everything, then refill.
        let all: Vec<usize> = (0..builder.relation().len()).collect();
        builder.apply(&all, donor_rows.collect()).unwrap();
        assert_eq!(builder.relation().len(), 7);
        assert_matches_batch_rebuild(&builder, &space);
    }

    #[test]
    fn delta_classification_is_consistent() {
        let r = small_relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let mut builder = DeltaEvidenceBuilder::new(&r, &space, true);
        let before = as_multiset(builder.evidence_set());
        let delta = builder
            .apply(
                &[0],
                vec![vec![
                    "Pat".into(),
                    "IL".into(),
                    Value::Int(40_000),
                    Value::Int(4_000),
                ]],
            )
            .unwrap();
        let after_set = builder.evidence_set().clone();
        let after = as_multiset(&after_set);
        // `added` entries did not exist before; `removed` existed and are gone;
        // `count_changed` exist on both sides with different counts.
        for &idx in &delta.added {
            assert!(!before.contains_key(&after_set.entry(idx).set.to_vec()));
        }
        for mask in &delta.removed {
            assert!(before.contains_key(&mask.to_vec()));
            assert!(!after.contains_key(&mask.to_vec()));
        }
        for &idx in &delta.count_changed {
            let key = after_set.entry(idx).set.to_vec();
            assert_ne!(before[&key], after[&key]);
        }
        assert_eq!(
            delta.remap.iter().flatten().count(),
            after_set.distinct_count()
        );
    }

    #[test]
    fn survivors_precede_added_entries_after_every_apply() {
        // The survivor_split invariant under mixed churn: surviving entries
        // keep their pre-apply relative order and every added entry sits in
        // the contiguous suffix.
        let r = random_relation(18, 11);
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let mut builder = DeltaEvidenceBuilder::new(&r, &space, false);
        let donor = random_relation(12, 5);
        let mut donor_rows = (0..donor.len()).map(|i| donor.row(i));
        let batches: Vec<(Vec<usize>, usize)> = vec![
            (vec![0, 3, 7], 2),
            (vec![], 3),
            (vec![1, 2, 4, 5], 0),
            (vec![0], 4),
        ];
        for (deletes, n_inserts) in batches {
            let before: Vec<Vec<usize>> = builder
                .evidence_set()
                .entries()
                .iter()
                .map(|e| e.set.to_vec())
                .collect();
            let delta = builder
                .apply(&deletes, donor_rows.by_ref().take(n_inserts).collect())
                .unwrap();
            let after = builder.evidence_set();
            let split = delta.survivor_split(after.distinct_count());
            assert_eq!(split, after.distinct_count() - delta.added.len());
            for &idx in &delta.added {
                assert!(idx >= split, "added entry {idx} below split {split}");
            }
            // The prefix is the old entry list minus the removed masks, in
            // the old order.
            let removed: Vec<Vec<usize>> = delta.removed.iter().map(|m| m.to_vec()).collect();
            let expected_prefix: Vec<Vec<usize>> = before
                .iter()
                .filter(|mask| !removed.contains(mask))
                .cloned()
                .collect();
            let actual_prefix: Vec<Vec<usize>> = after.entries()[..split]
                .iter()
                .map(|e| e.set.to_vec())
                .collect();
            assert_eq!(actual_prefix, expected_prefix);
        }
    }

    #[test]
    fn bad_batches_are_rejected_and_leave_state_unchanged() {
        let r = small_relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let mut builder = DeltaEvidenceBuilder::new(&r, &space, true);
        let snapshot = builder.snapshot();
        assert!(builder.apply(&[99], vec![]).is_err());
        assert!(builder.apply(&[], vec![vec![Value::Int(1)]]).is_err());
        // A bad insert must be rejected *before* the valid deletes of the
        // same batch retract anything: failure is all-or-nothing.
        assert!(builder.apply(&[0, 2], vec![vec![Value::Int(1)]]).is_err());
        assert_eq!(builder.snapshot(), snapshot);
        assert_eq!(builder.relation().len(), 5);
    }

    #[test]
    fn evidence_without_vios_is_maintained_too() {
        let r = random_relation(15, 3);
        let space = PredicateSpace::build(&r, SpaceConfig::same_column_only());
        let mut builder = DeltaEvidenceBuilder::new(&r, &space, false);
        assert!(builder.vios().is_none());
        builder
            .apply(&[3, 4], vec![random_relation(2, 9).row(0)])
            .unwrap();
        let rebuilt = ClusterEvidenceBuilder.build(builder.relation(), &space, false);
        assert_eq!(
            as_multiset(builder.evidence_set()),
            as_multiset(&rebuilt.evidence_set)
        );
    }
}
