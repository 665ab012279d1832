//! Predicate-space drift detection for streaming relations.
//!
//! A [`crate::PredicateSpace`] is frozen at construction: the ≥30 %
//! shared-values rule ([`SpaceConfig::min_shared_fraction`]) is evaluated
//! against the rows present *then*, and the admitted cross-column predicate
//! structures never change afterwards. Under row churn the shared-value
//! fractions move, and once one crosses the threshold the frozen space is
//! answering a stale question: a cross-column predicate that *would* now be
//! admitted is missing (silently weakening every mined constraint), or an
//! admitted one would no longer qualify.
//!
//! [`SpaceDriftTracker`] maintains the per-column distinct-value
//! multiplicities and per-pair common-value counts incrementally —
//! `O(arity + pairs touched)` per row instead of a full recount — using the
//! [`ValueKey`] normalisation of the shared-values statistic. It is seeded
//! from the same [`SharedValues`] pass `PredicateSpace::build` reads its
//! verdicts from (per-pair common counts, the baseline, and each column's
//! value multiplicities, which that pass counts per dictionary code rather
//! than per cell), and every fraction it reports goes through the one
//! [`shared_fraction`](adc_data::stats::shared_fraction) formula. Its
//! fractions are therefore bit-for-bit the ones `PredicateSpace::build`
//! would compute on the current rows by construction: equal counts, one
//! formula. [`SpaceDriftTracker::drift`] compares the current
//! admission verdicts against the frozen baseline and reports every flipped
//! column pair; the streaming monitor in `adc-core` surfaces that as a
//! rebuild-required error instead of silently answering from the stale
//! space.

#![doc = "conformance: ordered-output"]

use crate::space::SpaceConfig;
use adc_data::fx::FxHashMap;
use adc_data::stats::shared_fraction;
use adc_data::{value_key, Relation, SharedValues, Value, ValueKey};
use std::fmt;

/// One column pair whose shared-values admission verdict flipped relative
/// to the frozen predicate space.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftFlip {
    /// Left column index (always `< right`; the rule is symmetric).
    pub left: usize,
    /// Right column index.
    pub right: usize,
    /// Verdict at space-construction time: `true` if cross-column
    /// predicates over this pair were admitted.
    pub was_admitted: bool,
    /// Current shared-values fraction over the live rows.
    pub fraction: f64,
    /// The admission threshold the space was built with.
    pub threshold: f64,
}

/// The set of column pairs whose admission verdict has drifted.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceDrift {
    /// Every flipped pair, in ascending `(left, right)` order.
    pub flips: Vec<DriftFlip>,
}

impl fmt::Display for SpaceDrift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "predicate space drifted on {} column pair(s):",
            self.flips.len()
        )?;
        for flip in &self.flips {
            write!(
                f,
                " ({}, {}) now {:.3} vs threshold {:.3} ({})",
                flip.left,
                flip.right,
                flip.fraction,
                flip.threshold,
                if flip.was_admitted {
                    "was admitted"
                } else {
                    "was rejected"
                }
            )?;
        }
        Ok(())
    }
}

/// Incremental tracker of the 30 % shared-values rule over row churn.
///
/// Construct it from the same relation and [`SpaceConfig`] the predicate
/// space was built from, feed it every inserted row via
/// [`record_row`](Self::record_row) and every deleted row via
/// [`retract_row`](Self::retract_row), and poll [`drift`](Self::drift)
/// after each batch.
#[derive(Debug, Clone)]
pub struct SpaceDriftTracker {
    threshold: f64,
    /// Comparable column pairs `(a, b)` with `a < b`. Empty (tracker
    /// inert) when no pair can ever be admitted — e.g.
    /// [`SpaceConfig::same_column_only`], whose threshold exceeds 1.0.
    pairs: Vec<(usize, usize)>,
    /// `pairs_of[c]` = indices into `pairs` involving column `c`.
    pairs_of: Vec<Vec<usize>>,
    /// Per column, multiplicity of each distinct non-null value.
    counts: Vec<FxHashMap<ValueKey, usize>>,
    /// Per pair, number of distinct values present in both columns.
    common: Vec<usize>,
    /// Per pair, the admission verdict frozen at construction.
    baseline: Vec<bool>,
}

impl SpaceDriftTracker {
    /// Seed the tracker from the relation the predicate space was frozen
    /// on. The baseline admission verdicts recorded here come from the
    /// same [`SharedValues`] pass `PredicateSpace::build(relation, config)`
    /// applies.
    pub fn new(relation: &Relation, config: &SpaceConfig) -> Self {
        let arity = relation.arity();
        let mut tracker = SpaceDriftTracker {
            threshold: config.min_shared_fraction,
            pairs: Vec::new(),
            pairs_of: vec![Vec::new(); arity],
            counts: vec![FxHashMap::default(); arity],
            common: Vec::new(),
            baseline: Vec::new(),
        };
        // A fraction is at most 1.0, so a threshold above that (the
        // same-column-only config) can never admit — nothing to track.
        if config.min_shared_fraction > 1.0 {
            return tracker;
        }
        let shared = SharedValues::of(relation);
        for pair in shared.pairs() {
            let p = tracker.pairs.len();
            tracker.pairs_of[pair.left].push(p);
            tracker.pairs_of[pair.right].push(p);
            tracker.pairs.push((pair.left, pair.right));
            tracker.common.push(pair.common);
            tracker
                .baseline
                .push(shared.pair_fraction(pair) >= config.min_shared_fraction);
        }
        if tracker.pairs.is_empty() {
            return tracker;
        }
        for (col, counts) in tracker.counts.iter_mut().enumerate() {
            *counts = shared.value_counts(col).collect();
        }
        tracker
    }

    /// `true` if at least one column pair is subject to the rule (an inert
    /// tracker never drifts and skips all bookkeeping).
    pub fn is_active(&self) -> bool {
        !self.pairs.is_empty()
    }

    /// Account for one inserted row (values in schema column order).
    pub fn record_row(&mut self, row: &[Value]) {
        if self.pairs.is_empty() {
            return;
        }
        debug_assert_eq!(row.len(), self.counts.len());
        for (col, value) in row.iter().enumerate() {
            self.record_cell(col, value);
        }
    }

    /// Account for one deleted row (values as they were before deletion).
    pub fn retract_row(&mut self, row: &[Value]) {
        if self.pairs.is_empty() {
            return;
        }
        debug_assert_eq!(row.len(), self.counts.len());
        for (col, value) in row.iter().enumerate() {
            self.retract_cell(col, value);
        }
    }

    /// Column pairs whose admission verdict differs from the frozen
    /// baseline, or `None` while the baseline still describes the live
    /// rows. Drift is a property of the current state, not an event: it
    /// keeps being reported on every poll until the fractions recover or
    /// the space is rebuilt.
    pub fn drift(&self) -> Option<SpaceDrift> {
        let flips: Vec<DriftFlip> = (0..self.pairs.len())
            .filter(|&p| self.admitted(p) != self.baseline[p])
            .map(|p| DriftFlip {
                left: self.pairs[p].0,
                right: self.pairs[p].1,
                was_admitted: self.baseline[p],
                fraction: self.fraction(p),
                threshold: self.threshold,
            })
            .collect();
        if flips.is_empty() {
            None
        } else {
            Some(SpaceDrift { flips })
        }
    }

    /// Current shared-values fraction of tracked pair `p`, matching
    /// `shared_value_fraction` on the live rows exactly: `|common|` over
    /// the smaller distinct set, 0.0 when either side has no non-null
    /// values.
    fn fraction(&self, p: usize) -> f64 {
        let (a, b) = self.pairs[p];
        shared_fraction(self.common[p], self.counts[a].len(), self.counts[b].len())
    }

    fn admitted(&self, p: usize) -> bool {
        self.fraction(p) >= self.threshold
    }

    fn record_cell(&mut self, col: usize, value: &Value) {
        let Some(key) = value_key(value) else {
            return;
        };
        let count = self.counts[col].entry(key.clone()).or_insert(0);
        *count += 1;
        if *count == 1 {
            // The value became distinct in `col`: every pair whose other
            // side already has it gains a common value.
            for &p in &self.pairs_of[col] {
                let (a, b) = self.pairs[p];
                let other = if a == col { b } else { a };
                if self.counts[other].contains_key(&key) {
                    self.common[p] += 1;
                }
            }
        }
    }

    fn retract_cell(&mut self, col: usize, value: &Value) {
        let Some(key) = value_key(value) else {
            return;
        };
        let count = self.counts[col]
            .get_mut(&key)
            // conformance: allow(panic) — retract mirrors a prior record call one-for-one; firing means drift bookkeeping diverged
            .expect("retracted a value that was never recorded");
        *count -= 1;
        if *count == 0 {
            self.counts[col].remove(&key);
            for &p in &self.pairs_of[col] {
                let (a, b) = self.pairs[p];
                let other = if a == col { b } else { a };
                if self.counts[other].contains_key(&key) {
                    self.common[p] -= 1;
                }
            }
        }
    }
}

#[cfg(test)]
impl SpaceDriftTracker {
    /// Every tracked pair `(left, right)` with its current fraction and its
    /// frozen admission verdict, in pair order.
    pub(crate) fn tracked(&self) -> Vec<((usize, usize), f64, bool)> {
        (0..self.pairs.len())
            .map(|p| (self.pairs[p], self.fraction(p), self.baseline[p]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PredicateSpace, SpaceConfig, TupleRole};
    use adc_data::{AttributeType, Relation, Schema, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_int_columns(rows: &[(i64, i64)]) -> Relation {
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Integer)]);
        let mut b = Relation::builder(schema);
        for &(x, y) in rows {
            b.push_row(vec![Value::Int(x), Value::Int(y)]).unwrap();
        }
        b.build()
    }

    #[test]
    fn baseline_matches_the_built_space() {
        // A and B share 2 of 3 distinct values: fraction 2/3 ≥ 0.3 → admitted.
        let r = two_int_columns(&[(1, 1), (2, 2), (3, 7)]);
        let config = SpaceConfig::default();
        let space = PredicateSpace::build(&r, config);
        assert!(space.find("A", "=", TupleRole::Other, "B").is_some());
        let tracker = SpaceDriftTracker::new(&r, &config);
        assert!(tracker.is_active());
        assert!(tracker.drift().is_none());
        assert!((tracker.fraction(0) - r.shared_value_fraction(0, 1)).abs() == 0.0);
    }

    #[test]
    fn same_column_only_config_is_inert() {
        let r = two_int_columns(&[(1, 1), (2, 2)]);
        let tracker = SpaceDriftTracker::new(&r, &SpaceConfig::same_column_only());
        assert!(!tracker.is_active());
        assert!(tracker.drift().is_none());
    }

    #[test]
    fn incomparable_columns_are_not_tracked() {
        let schema = Schema::of(&[("A", AttributeType::Integer), ("S", AttributeType::Text)]);
        let mut b = Relation::builder(schema);
        b.push_row(vec![Value::Int(1), "x".into()]).unwrap();
        let r = b.build();
        let tracker = SpaceDriftTracker::new(&r, &SpaceConfig::default());
        assert!(!tracker.is_active());
    }

    #[test]
    fn churn_flips_the_verdict_and_recovery_clears_it() {
        // Start admitted: values identical, fraction 1.0.
        let r = two_int_columns(&[(1, 1), (2, 2), (3, 3)]);
        let config = SpaceConfig::default();
        let mut tracker = SpaceDriftTracker::new(&r, &config);
        assert!(tracker.drift().is_none());
        // Flood B with values A never takes: fraction sinks below 0.3.
        for v in 100..110 {
            tracker.record_row(&[Value::Int(v + 1000), Value::Int(v)]);
        }
        let drift = tracker.drift().expect("fraction fell below the threshold");
        assert_eq!(drift.flips.len(), 1);
        assert_eq!((drift.flips[0].left, drift.flips[0].right), (0, 1));
        assert!(drift.flips[0].was_admitted);
        assert!(drift.flips[0].fraction < 0.3);
        // Retract the same rows: the verdict recovers and drift clears.
        for v in 100..110 {
            tracker.retract_row(&[Value::Int(v + 1000), Value::Int(v)]);
        }
        assert!(tracker.drift().is_none());
    }

    #[test]
    fn nulls_never_count_as_shared_values() {
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Integer)]);
        let mut b = Relation::builder(schema);
        b.push_row(vec![Value::Int(1), Value::Int(1)]).unwrap();
        let r = b.build();
        let mut tracker = SpaceDriftTracker::new(&r, &SpaceConfig::default());
        tracker.record_row(&[Value::Null, Value::Null]);
        tracker.retract_row(&[Value::Null, Value::Null]);
        assert!(tracker.drift().is_none());
        assert_eq!(tracker.fraction(0), 1.0);
    }

    /// The incremental fractions equal the batch recomputation bit-for-bit
    /// after arbitrary insert/delete interleavings.
    #[test]
    fn incremental_fractions_match_batch_recomputation_under_churn() {
        let mut rng = StdRng::seed_from_u64(30);
        let schema = Schema::of(&[
            ("A", AttributeType::Integer),
            ("B", AttributeType::Float),
            ("C", AttributeType::Text),
            ("D", AttributeType::Integer),
        ]);
        let config = SpaceConfig::default();
        let random_row = |rng: &mut StdRng| -> Vec<Value> {
            let int = |rng: &mut StdRng| {
                if rng.gen_bool(0.1) {
                    Value::Null
                } else {
                    Value::Int(rng.gen_range(0..6))
                }
            };
            vec![
                int(rng),
                if rng.gen_bool(0.1) {
                    Value::Null
                } else {
                    Value::Float(rng.gen_range(0..6) as f64)
                },
                if rng.gen_bool(0.5) {
                    "x".into()
                } else {
                    "y".into()
                },
                int(rng),
            ]
        };
        for _ in 0..30 {
            let mut rows: Vec<Vec<Value>> = (0..rng.gen_range(1..6))
                .map(|_| random_row(&mut rng))
                .collect();
            let build = |rows: &[Vec<Value>]| -> Relation {
                let mut b = Relation::builder(schema.clone());
                for row in rows {
                    b.push_row(row.clone()).unwrap();
                }
                b.build()
            };
            let mut tracker = SpaceDriftTracker::new(&build(&rows), &config);
            for _ in 0..40 {
                if !rows.is_empty() && rng.gen_bool(0.5) {
                    let victim = rng.gen_range(0..rows.len());
                    let row = rows.remove(victim);
                    tracker.retract_row(&row);
                } else {
                    let row = random_row(&mut rng);
                    tracker.record_row(&row);
                    rows.push(row);
                }
                let live = build(&rows);
                for (p, &(a, b)) in tracker.pairs.iter().enumerate() {
                    let batch = live.shared_value_fraction(a, b);
                    let incremental = tracker.fraction(p);
                    assert!(
                        batch == incremental,
                        "pair ({a},{b}): batch {batch} vs incremental {incremental}"
                    );
                }
            }
        }
    }
}
