//! Differential (Z-set style) evidence maintenance.
//!
//! A batch evidence build scans all `n·(n−1)` ordered tuple pairs. Under
//! tuple churn that is wasteful: inserting a tuple only creates pairs that
//! involve it (`2·(n−1)` of them — an `O(n)` delta), and deleting a tuple
//! only retracts the pairs it participated in. [`DeltaEvidenceBuilder`]
//! maintains the interned evidence multiset (and optionally the [`Vios`]
//! index) under insert/delete batches by scanning exactly those affected
//! pairs — the DBSP/DVM discipline applied to evidence multisets. One batch
//! is two Z-sets, applied in order: the `−1` pairs of the deleted rows
//! against the old relation, then the `+1` pairs of the inserted rows
//! against the patched one.
//!
//! * **Maintained codes.** The builder keeps the relation's
//!   [`column_codes`](crate::builder) and the one global text dictionary
//!   that call numbered them with. A delete drops the deleted rows' codes;
//!   an insert codes the new rows' values, giving a string without a code
//!   the next global code. Nothing is recomputed from the whole relation
//!   per batch.
//! * **Column-at-a-time fill.** The fill is the batch cluster kernel's
//!   (`RowFiller` in [`crate::builder`]). For each deleted or inserted row
//!   `i`, one buffer receives `Sat(i, j)` and another `Sat(j, i)` for every
//!   other row `j`, one structure group at a time: row `i`'s operand is
//!   fixed and the loop runs down the other column. `Same`-role masks are
//!   computed once per side. Outcomes are `group_outcome`'s: nulls and NaN
//!   satisfy nothing, −0.0 equals 0.0. Debug builds check every filled pair
//!   against `fill_pair`.
//! * **Consolidation.** The filled words are consolidated into
//!   (distinct `Sat`, multiplicity) in first-occurrence scan order, and the
//!   accumulator is touched once per distinct `Sat`
//!   ([`EvidenceAccumulator::retract_many`] / [`EvidenceAccumulator::add_many`])
//!   — a few hundred touches where there are thousands of pairs. Only the
//!   `Vios` path keeps a per-pair step: each pair credits its two tuples on
//!   the entry its consolidated `Sat` resolved to.
//!
//! The result is exactly what applying each pair on its own, in scan
//! order, would give — entry order included — because entries are created
//! in first-occurrence order and a retraction can only fail when the same
//! retractions one at a time would. The `tests` module pins this against a
//! per-pair reference.
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

use crate::builder::{column_codes, ColumnCodes, RowFiller, SatCounts};
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

/// Pairs the `Vios` path logs before it applies the consolidated `Sat`s
/// gathered so far, which bounds the per-pair log on large batches.
const VIOS_FLUSH_PAIRS: usize = 1 << 16;

/// Drop the rows marked in `deleted`, keeping the order of the rest.
fn retain_rows<T>(values: &mut Vec<T>, deleted: &[bool]) {
    // `retain` visits every element once, in order.
    let mut deleted = deleted.iter();
    values.retain(|_| deleted.next() == Some(&false));
}

/// The reused buffers of one row's column-at-a-time fill: for row `i` and
/// every other row `j`, `Sat(i, j)` in `fwd` and `Sat(j, i)` in `rev`, each
/// `words` words per `j`.
#[derive(Debug, Default)]
struct RowFill {
    fwd: Vec<u64>,
    rev: Vec<u64>,
}

impl RowFill {
    /// `(Sat(i, j), Sat(j, i))` for `j = 0, 1, …`.
    fn pairs(&self, words: usize) -> impl Iterator<Item = (&[u64], &[u64])> {
        self.fwd
            .chunks_exact(words)
            .zip(self.rev.chunks_exact(words))
    }
}

/// Which half of a batch a [`ZSet`] holds.
#[derive(Debug, Clone, Copy)]
enum Side {
    /// The deleted rows' pairs, each with multiplicity −1.
    Retract,
    /// The inserted rows' pairs, each with multiplicity +1.
    Record,
}

/// One side of a batch as a Z-set under construction: every distinct `Sat`
/// once, in first-occurrence order, with its multiplicity.
#[derive(Debug, Default)]
struct ZSet {
    sats: SatCounts,
    /// `(distinct Sat, t, t')` per scanned pair; logged only with `Vios`.
    pairs: Vec<(u32, u32, u32)>,
}

impl ZSet {
    #[inline]
    fn push(&mut self, sat: &[u64], t: usize, t_prime: usize, log_pair: bool) {
        let class = self.sats.push(sat);
        if log_pair {
            self.pairs.push((class, t as u32, t_prime as u32));
        }
    }

    fn clear(&mut self) {
        self.sats.clear();
        self.pairs.clear();
    }
}

/// Maintains the evidence state of one relation under tuple insert/delete
/// batches, scanning only affected pairs.
///
/// The builder owns the current relation (callers read it back via
/// [`DeltaEvidenceBuilder::relation`]) and its column codes, because
/// retractions must be evaluated against the *pre-delete* codes and
/// insertions against the *post-insert* ones — owning both makes that
/// sequencing impossible to get wrong from outside.
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
    /// Column codes of `relation`, maintained under every delete and insert.
    codes: Vec<ColumnCodes>,
    /// The global text dictionary behind the `Text` codes.
    dictionary: FxHashMap<String, u32>,
    /// The space's groups, reduced for the row fill.
    filler: RowFiller,
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
        let (codes, dictionary) = column_codes(&relation);
        let dictionary = dictionary
            // conformance: allow(unordered) — collected into a hash map keyed by string; no order escapes
            .into_iter()
            .map(|(s, code)| (s.to_owned(), code))
            .collect();
        let filler = RowFiller::new(space, &codes);
        DeltaEvidenceBuilder {
            relation,
            acc: EvidenceAccumulator::from_set(evidence_set),
            vios,
            codes,
            dictionary,
            filler,
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
        let words = self.filler.words();
        let mut fill = RowFill::default();
        let mut zset = ZSet::default();
        let log_pairs = self.vios.is_some();
        let mut deleted = vec![false; n_old];
        for &d in &deletes {
            deleted[d] = true;
        }

        // Phase 1 — retract every ordered pair involving a deleted row,
        // against the *old* codes (each affected pair exactly once: all
        // pairs whose first element is deleted, plus pairs whose second
        // element is deleted but first is not).
        if !deletes.is_empty() && self.num_predicates > 0 {
            let same = self.filler.same_masks(&self.codes, n_old);
            for &d in &deletes {
                self.fill_row(d, n_old, &same, &mut fill);
                for (other, (sat_fwd, sat_rev)) in fill.pairs(words).enumerate() {
                    if other == d {
                        continue;
                    }
                    zset.push(sat_fwd, d, other, log_pairs);
                    pairs_scanned += 1;
                    if !deleted[other] {
                        zset.push(sat_rev, other, d, log_pairs);
                        pairs_scanned += 1;
                    }
                }
                if zset.pairs.len() >= VIOS_FLUSH_PAIRS {
                    self.apply_zset(&mut zset, Side::Retract, &mut net_change);
                }
            }
            self.apply_zset(&mut zset, Side::Retract, &mut net_change);
        }

        // Phase 2 — drop the deleted rows, renumbering survivors.
        if !deletes.is_empty() {
            let kept: Vec<usize> = (0..n_old).filter(|&r| !deleted[r]).collect();
            let mut old_to_new: Vec<Option<u32>> = vec![None; n_old];
            for (new, &old) in kept.iter().enumerate() {
                old_to_new[old] = Some(new as u32);
            }
            self.relation = self.relation.project_rows(&kept);
            for codes in &mut self.codes {
                match codes {
                    ColumnCodes::Numeric(v) => retain_rows(v, &deleted),
                    ColumnCodes::Text(v) => retain_rows(v, &deleted),
                }
            }
            if let Some(v) = self.vios.as_mut() {
                v.renumber_tuples(&old_to_new, kept.len());
            }
        }

        // Phase 3 — append the inserts and record every ordered pair
        // involving a new row, against the *new* codes (pair (a, b) with at
        // least one new row is handled at i = max(a, b), which is always an
        // inserted index because inserts sit at the end).
        let n_mid = self.relation.len();
        self.push_codes(&inserts);
        self.relation.append_rows(inserts)?;
        let n_new = self.relation.len();
        if n_new > n_mid && self.num_predicates > 0 {
            let same = self.filler.same_masks(&self.codes, n_new);
            for i in n_mid..n_new {
                self.fill_row(i, i, &same, &mut fill);
                for (j, (sat_fwd, sat_rev)) in fill.pairs(words).enumerate() {
                    zset.push(sat_fwd, i, j, log_pairs);
                    zset.push(sat_rev, j, i, log_pairs);
                    pairs_scanned += 2;
                }
                if zset.pairs.len() >= VIOS_FLUSH_PAIRS {
                    self.apply_zset(&mut zset, Side::Record, &mut net_change);
                }
            }
            self.apply_zset(&mut zset, Side::Record, &mut net_change);
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

    /// Fill `fill.fwd` with `Sat(i, j)` and `fill.rev` with `Sat(j, i)` for
    /// every `j < rows`. Row `j = i` is filled but meaningless.
    fn fill_row(&self, i: usize, rows: usize, same: &[u64], fill: &mut RowFill) {
        let codes = &self.codes;
        self.filler.fill_left(codes, same, i, rows, &mut fill.fwd);
        self.filler.fill_right(codes, same, i, rows, &mut fill.rev);
    }

    /// Append the codes of `rows` (already checked against the schema); a
    /// string not seen before gets the next global text code.
    fn push_codes(&mut self, rows: &[Vec<Value>]) {
        for row in rows {
            for (codes, value) in self.codes.iter_mut().zip(row) {
                match (codes, value) {
                    (ColumnCodes::Numeric(v), &Value::Int(x)) => v.push(Some(x as f64)),
                    (ColumnCodes::Numeric(v), &Value::Float(x)) => v.push(Some(x)),
                    (ColumnCodes::Numeric(v), Value::Null) => v.push(None),
                    (ColumnCodes::Text(v), Value::Str(s)) => {
                        let next = self.dictionary.len() as u32;
                        let code = match self.dictionary.get(s.as_str()) {
                            Some(&code) => code,
                            None => {
                                self.dictionary.insert(s.clone(), next);
                                next
                            }
                        };
                        v.push(Some(code));
                    }
                    (ColumnCodes::Text(v), Value::Null) => v.push(None),
                    // conformance: allow(panic) — `apply` ran `check_rows` on these rows, so no other column/value pairing survives
                    _ => unreachable!("insert rows are schema-checked before they are coded"),
                }
            }
        }
    }

    /// Apply one consolidated side of a batch: one accumulator touch and one
    /// `net_change` update per distinct `Sat`, then the per-pair `Vios`
    /// credits on the entries those `Sat`s resolved to. Leaves `zset` empty.
    fn apply_zset(&mut self, zset: &mut ZSet, side: Side, net_change: &mut FxHashMap<usize, i64>) {
        let words = self.filler.words();
        let mut entries = Vec::with_capacity(zset.sats.len());
        for (sat, count) in zset.sats.iter(words) {
            let set = FixedBitSet::from_words(self.num_predicates, sat);
            let (entry, net) = match side {
                Side::Retract => (self.acc.retract_many(&set, count), -(count as i64)),
                Side::Record => (self.acc.add_many(set, count), count as i64),
            };
            *net_change.entry(entry).or_insert(0) += net;
            entries.push(entry);
        }
        if let Some(v) = self.vios.as_mut() {
            v.ensure_entries(self.acc.current().distinct_count());
            for &(class, t, t_prime) in &zset.pairs {
                let entry = entries[class as usize];
                match side {
                    Side::Retract => v.retract_pair(entry, t, t_prime),
                    Side::Record => v.record_pair(entry, t, t_prime),
                }
            }
        }
        zset.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::{edge_row, random_relation, small_relation};
    use crate::builder::{fill_pair, group_masks, GroupMasks};
    use crate::{ClusterEvidenceBuilder, EvidenceBuilder};
    use adc_data::fx::FxHashMap;
    use adc_data::{AttributeType, Schema};
    use adc_predicates::SpaceConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
    fn inserts_of_strings_the_seed_left_uncoded_match_batch_rebuild() {
        // Julia, Jimmy and Sam: the projected dictionaries still hold
        // "Alice", "Mark" and "NY", but no row uses them, so none has a code.
        let r = small_relation().project_rows(&[4, 2, 3]);
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let mut builder = DeltaEvidenceBuilder::new(&r, &space, true);
        assert_eq!(builder.dictionary.len(), 4);
        builder
            .apply(
                &[1],
                vec![
                    vec![
                        "Mark".into(),
                        "NY".into(),
                        Value::Int(42_000),
                        Value::Int(4_700),
                    ],
                    vec![
                        "Sam".into(),
                        "NY".into(),
                        Value::Int(30_000),
                        Value::Int(2_000),
                    ],
                ],
            )
            .unwrap();
        assert_matches_batch_rebuild(&builder, &space);
        builder
            .apply(&[], vec![r.row(0), small_relation().row(0)])
            .unwrap();
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

    /// The per-pair delta scan `apply` replaced, kept as its reference:
    /// fresh `column_codes` per side, then one `fill_pair`, one accumulator
    /// `add`/`retract`, one `net_change` update and one `Vios` credit per
    /// pair, in scan order.
    struct PerPair {
        relation: Relation,
        acc: EvidenceAccumulator,
        vios: Option<Vios>,
        groups: Vec<GroupMasks>,
        num_predicates: usize,
    }

    impl PerPair {
        fn new(relation: &Relation, space: &PredicateSpace, track_vios: bool) -> Self {
            let Evidence { evidence_set, vios } =
                ClusterEvidenceBuilder.build(relation, space, track_vios);
            PerPair {
                relation: relation.clone(),
                acc: EvidenceAccumulator::from_set(evidence_set),
                vios,
                groups: group_masks(space),
                num_predicates: space.len(),
            }
        }

        fn pair(
            &mut self,
            codes: &[ColumnCodes],
            (t, t_prime): (usize, usize),
            side: Side,
            net_change: &mut FxHashMap<usize, i64>,
        ) {
            let mut buffer = vec![0u64; self.num_predicates.div_ceil(64)];
            fill_pair(codes, &self.groups, t, t_prime, &mut buffer);
            let set = FixedBitSet::from_words(self.num_predicates, &buffer);
            let (entry, net) = match side {
                Side::Retract => (self.acc.retract(&set), -1),
                Side::Record => (self.acc.add(set), 1),
            };
            *net_change.entry(entry).or_insert(0) += net;
            if let Some(v) = self.vios.as_mut() {
                v.ensure_entries(entry + 1);
                match side {
                    Side::Retract => v.retract_pair(entry, t as u32, t_prime as u32),
                    Side::Record => v.record_pair(entry, t as u32, t_prime as u32),
                }
            }
        }

        fn apply(&mut self, deletes: &[usize], inserts: Vec<Vec<Value>>) -> EvidenceDelta {
            let n_old = self.relation.len();
            let mut deletes = deletes.to_vec();
            deletes.sort_unstable();
            deletes.dedup();
            let entries_before = self.acc.current().distinct_count();
            let mut net_change = FxHashMap::default();
            let mut pairs_scanned = 0u64;
            let mut deleted = vec![false; n_old];
            for &d in &deletes {
                deleted[d] = true;
            }
            if !deletes.is_empty() && self.num_predicates > 0 {
                let (codes, _) = column_codes(&self.relation);
                for &d in &deletes {
                    for other in (0..n_old).filter(|&o| o != d) {
                        self.pair(&codes, (d, other), Side::Retract, &mut net_change);
                        pairs_scanned += 1;
                        if !deleted[other] {
                            self.pair(&codes, (other, d), Side::Retract, &mut net_change);
                            pairs_scanned += 1;
                        }
                    }
                }
            }
            if !deletes.is_empty() {
                let kept: Vec<usize> = (0..n_old).filter(|&r| !deleted[r]).collect();
                let mut old_to_new = vec![None; n_old];
                for (new, &old) in kept.iter().enumerate() {
                    old_to_new[old] = Some(new as u32);
                }
                self.relation = self.relation.project_rows(&kept);
                if let Some(v) = self.vios.as_mut() {
                    v.renumber_tuples(&old_to_new, kept.len());
                }
            }
            let n_mid = self.relation.len();
            self.relation.append_rows(inserts).unwrap();
            let n_new = self.relation.len();
            if n_new > n_mid && self.num_predicates > 0 {
                let (codes, _) = column_codes(&self.relation);
                for i in n_mid..n_new {
                    for j in 0..i {
                        self.pair(&codes, (i, j), Side::Record, &mut net_change);
                        self.pair(&codes, (j, i), Side::Record, &mut net_change);
                        pairs_scanned += 2;
                    }
                }
            }
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
            EvidenceDelta {
                added,
                removed,
                count_changed,
                remap,
                pairs_scanned,
            }
        }
    }

    /// `maintained` equals `fresh` cell for cell: numeric codes bit for bit
    /// (NaN and −0.0 included), text codes up to one renumbering shared by
    /// every text column.
    fn assert_codes_match(maintained: &[ColumnCodes], fresh: &[ColumnCodes]) {
        assert_eq!(maintained.len(), fresh.len());
        let mut to_fresh: FxHashMap<u32, u32> = FxHashMap::default();
        let mut to_maintained: FxHashMap<u32, u32> = FxHashMap::default();
        for (m, f) in maintained.iter().zip(fresh) {
            match (m, f) {
                (ColumnCodes::Numeric(m), ColumnCodes::Numeric(f)) => {
                    let bits = |v: &[Option<f64>]| -> Vec<Option<u64>> {
                        v.iter().map(|x| x.map(f64::to_bits)).collect()
                    };
                    assert_eq!(bits(m), bits(f));
                }
                (ColumnCodes::Text(m), ColumnCodes::Text(f)) => {
                    assert_eq!(m.len(), f.len());
                    for (&a, &b) in m.iter().zip(f) {
                        match (a, b) {
                            (Some(a), Some(b)) => {
                                assert_eq!(*to_fresh.entry(a).or_insert(b), b);
                                assert_eq!(*to_maintained.entry(b).or_insert(a), a);
                            }
                            (a, b) => assert_eq!(a.is_none(), b.is_none()),
                        }
                    }
                }
                _ => panic!("maintained codes changed kind"),
            }
        }
    }

    proptest! {
        /// The consolidated `apply` is the per-pair scan it replaced: same
        /// evidence set (entry order included), same `Vios`, same delta, on
        /// random relations with nulls, NaN, −0.0, cross-column and
        /// cross-type groups, one- and multi-word `Sat`s, and batch
        /// sequences with empty batches, duplicate delete indexes, deletes
        /// of every row and inserts into an empty relation.
        #[test]
        fn apply_matches_the_per_pair_reference(
            seed in any::<u64>(),
            rows in 0usize..9,
            wide in any::<bool>(),
            track_vios in any::<bool>(),
            batches in 1usize..6,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut columns = vec![
                ("S", AttributeType::Text),
                ("T", AttributeType::Text),
                ("I", AttributeType::Integer),
                ("F", AttributeType::Float),
            ];
            if wide {
                columns.extend([("J", AttributeType::Integer), ("G", AttributeType::Float)]);
            }
            let schema = Schema::of(&columns);
            let mut b = Relation::builder(schema.clone());
            for _ in 0..rows {
                b.push_row(edge_row(&schema, &mut rng)).unwrap();
            }
            let relation = b.build();
            let space = PredicateSpace::build(&relation, SpaceConfig::default());
            let mut builder = DeltaEvidenceBuilder::new(&relation, &space, track_vios);
            let mut reference = PerPair::new(&relation, &space, track_vios);
            for _ in 0..batches {
                let n = builder.relation().len();
                let deletes: Vec<usize> = if n > 0 && rng.gen_bool(0.2) {
                    (0..n).rev().collect()
                } else if n > 0 {
                    (0..rng.gen_range(0..4)).map(|_| rng.gen_range(0..n)).collect()
                } else {
                    Vec::new()
                };
                let inserts: Vec<Vec<Value>> = (0..rng.gen_range(0..4))
                    .map(|_| edge_row(&schema, &mut rng))
                    .collect();
                let delta = builder.apply(&deletes, inserts.clone()).unwrap();
                let expected = reference.apply(&deletes, inserts);
                prop_assert_eq!(&delta, &expected);
                prop_assert_eq!(builder.evidence_set(), reference.acc.current());
                prop_assert_eq!(builder.vios(), reference.vios.as_ref());
                assert_codes_match(&builder.codes, &column_codes(builder.relation()).0);
            }
        }
    }

    #[test]
    fn vios_batches_past_the_flush_size_match_the_per_pair_reference() {
        // 200 of 300 rows out: ~80 000 retracted pairs, so the `Vios` path
        // applies its consolidated `Sat`s in more than one chunk.
        let r = random_relation(300, 21);
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let mut builder = DeltaEvidenceBuilder::new(&r, &space, true);
        let mut reference = PerPair::new(&r, &space, true);
        let deletes: Vec<usize> = (0..300).filter(|i| i % 3 != 0).collect();
        let inserts: Vec<Vec<Value>> = (0..5).map(|i| r.row(i)).collect();
        let delta = builder.apply(&deletes, inserts.clone()).unwrap();
        assert!(delta.pairs_scanned > VIOS_FLUSH_PAIRS as u64);
        assert_eq!(delta, reference.apply(&deletes, inserts));
        assert_eq!(builder.evidence_set(), reference.acc.current());
        assert_eq!(builder.vios(), reference.vios.as_ref());
    }

    #[test]
    fn the_reference_relations_reach_multi_word_sats() {
        let mut rng = StdRng::seed_from_u64(5);
        let schema = Schema::of(&[
            ("S", AttributeType::Text),
            ("T", AttributeType::Text),
            ("I", AttributeType::Integer),
            ("F", AttributeType::Float),
            ("J", AttributeType::Integer),
            ("G", AttributeType::Float),
        ]);
        let mut b = Relation::builder(schema.clone());
        for _ in 0..8 {
            b.push_row(edge_row(&schema, &mut rng)).unwrap();
        }
        let space = PredicateSpace::build(&b.build(), SpaceConfig::default());
        assert!(space.len() > 64, "{} predicates", space.len());
    }
}
