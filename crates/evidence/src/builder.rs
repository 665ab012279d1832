//! Evidence set builders.
//!
//! Constructing `Evi(D)` is the dominant cost of DC discovery (the paper
//! reports hours for the larger datasets). The two builders here reproduce
//! the two strategies the paper compares:
//!
//! * [`NaiveEvidenceBuilder`]: the straightforward AFASTDC-style approach —
//!   materialise both cell values and evaluate each predicate dynamically for
//!   every ordered pair of tuples.
//! * [`ClusterEvidenceBuilder`]: the BFASTDC/DCFinder-style approach — each
//!   column is reduced to integer codes or floats once, predicates with the
//!   same operands are grouped so only one comparison per group per pair is
//!   executed, and the satisfied-predicate bits are assembled with
//!   precomputed word masks.
//!
//! The multi-threaded, sub-quadratic builder lives in [`crate::sweep`]; it
//! reuses `fill_pair` to assemble each block's evidence bitset.

#![doc = "conformance: ordered-output"]

use crate::evidence::EvidenceAccumulator;
use crate::vios::Vios;
use crate::Evidence;
use adc_data::fx::FxHashMap;
use adc_data::{Column, FixedBitSet, Relation};
use adc_predicates::{Operator, PredicateSpace, TupleRole};
use std::cmp::Ordering;

/// A strategy for building the evidence set of a relation.
pub trait EvidenceBuilder {
    /// Human-readable name (used in benchmark reports).
    fn name(&self) -> &'static str;

    /// Build the evidence set; when `track_vios` is set, also build the
    /// per-tuple violation index needed by the `f2`/`f3` approximation
    /// functions.
    fn build(&self, relation: &Relation, space: &PredicateSpace, track_vios: bool) -> Evidence;
}

/// Reference builder: evaluates every predicate on every ordered pair.
#[derive(Debug, Default, Clone, Copy)]
pub struct NaiveEvidenceBuilder;

impl EvidenceBuilder for NaiveEvidenceBuilder {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn build(&self, relation: &Relation, space: &PredicateSpace, track_vios: bool) -> Evidence {
        let n = relation.len();
        let mut acc = EvidenceAccumulator::new(space.len(), n);
        let mut vios = track_vios.then(|| Vios::new(0, n));
        for t in 0..n {
            for t_prime in 0..n {
                if t == t_prime {
                    continue;
                }
                let sat = space.satisfied_set(relation, t, t_prime);
                let entry = acc.add(sat);
                if let Some(v) = vios.as_mut() {
                    v.record_pair(entry, t as u32, t_prime as u32);
                }
            }
        }
        Evidence {
            evidence_set: acc.finish(),
            vios,
        }
    }
}

/// Per-column data reduced to comparison-friendly primitives.
pub(crate) enum ColumnCodes {
    /// Numeric cell values (`None` = null).
    Numeric(Vec<Option<f64>>),
    /// Text cell values mapped to a *global* dictionary shared by all text
    /// columns, so equality across columns is a `u32` comparison.
    Text(Vec<Option<u32>>),
}

/// Word-level masks to set for each comparison outcome of one structure group.
///
/// Fields are `pub(crate)` because [`crate::sweep`] plans its region
/// decomposition from the group structure (which column is compared against
/// which, and with which tuple role) instead of evaluating groups per pair.
#[derive(Debug, Clone)]
pub(crate) struct GroupMasks {
    pub(crate) left_col: usize,
    pub(crate) right_col: usize,
    pub(crate) right_role: TupleRole,
    pub(crate) numeric: bool,
    /// Masks applied when the comparison outcome is `Less` / `Equal` / `Greater`.
    /// For text groups only `Equal` and `Greater` (used as "not equal") apply.
    pub(crate) less: Vec<(usize, u64)>,
    pub(crate) equal: Vec<(usize, u64)>,
    pub(crate) greater: Vec<(usize, u64)>,
}

/// Reduce every column to comparison-friendly primitive codes.
pub(crate) fn column_codes(relation: &Relation) -> Vec<ColumnCodes> {
    // Global text dictionary so that codes are comparable across columns.
    let mut global: FxHashMap<&str, u32> = FxHashMap::default();
    for col in relation.columns() {
        if let Column::Text { dict, .. } = col {
            for s in dict {
                let next = global.len() as u32;
                global.entry(s.as_str()).or_insert(next);
            }
        }
    }
    relation
        .columns()
        .iter()
        .map(|col| match col {
            Column::Int(v) => ColumnCodes::Numeric(v.iter().map(|x| x.map(|i| i as f64)).collect()),
            Column::Float(v) => ColumnCodes::Numeric(v.clone()),
            Column::Text { codes, dict } => ColumnCodes::Text(
                codes
                    .iter()
                    .map(|c| c.map(|c| global[dict[c as usize].as_str()]))
                    .collect(),
            ),
        })
        .collect()
}

/// Assemble `Sat(t, t_prime)` into `buffer` (one `u64` word per 64 predicate
/// ids, zeroed by this function) using precomputed codes and group masks.
///
/// This is the shared inner kernel of [`ClusterEvidenceBuilder`], the sweep
/// kernel and the delta builder — keeping it in one place is what
/// guarantees they agree on every individual evidence bitset.
pub(crate) fn fill_pair(
    codes: &[ColumnCodes],
    groups: &[GroupMasks],
    t: usize,
    t_prime: usize,
    buffer: &mut [u64],
) {
    buffer.iter_mut().for_each(|w| *w = 0);
    for g in groups {
        let masks = match group_outcome(codes, g, t, t_prime) {
            Some(Ordering::Less) => &g.less,
            Some(Ordering::Equal) => &g.equal,
            Some(Ordering::Greater) => &g.greater,
            None => continue,
        };
        for &(w, m) in masks {
            buffer[w] |= m;
        }
    }
}

/// Comparison outcome of one structure group for the ordered row pair
/// `(t, t_prime)` (`None` = a null or type-mismatched operand, which
/// satisfies no predicate of the group). Shared by [`fill_pair`] and the
/// block assembly of [`crate::sweep`], so both paths agree by construction.
pub(crate) fn group_outcome(
    codes: &[ColumnCodes],
    g: &GroupMasks,
    t: usize,
    t_prime: usize,
) -> Option<Ordering> {
    let right_row = match g.right_role {
        TupleRole::Same => t,
        TupleRole::Other => t_prime,
    };
    if g.numeric {
        match (&codes[g.left_col], &codes[g.right_col]) {
            (ColumnCodes::Numeric(l), ColumnCodes::Numeric(r)) => match (l[t], r[right_row]) {
                (Some(a), Some(b)) => a.partial_cmp(&b),
                _ => None,
            },
            _ => None,
        }
    } else {
        match (&codes[g.left_col], &codes[g.right_col]) {
            (ColumnCodes::Text(l), ColumnCodes::Text(r)) => match (l[t], r[right_row]) {
                // Text outcomes reuse Equal / Greater ("not equal").
                (Some(a), Some(b)) if a == b => Some(Ordering::Equal),
                (Some(_), Some(_)) => Some(Ordering::Greater),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Group every predicate of the space by operand structure and precompute,
/// per group, the word-level masks to OR in for each comparison outcome.
pub(crate) fn group_masks(space: &PredicateSpace) -> Vec<GroupMasks> {
    let mut groups = Vec::with_capacity(space.group_count());
    for g in 0..space.group_count() {
        let members = space.group_members(g);
        let first = space.predicate(members[0]);
        let numeric = members.len() > 2;
        let mut masks = GroupMasks {
            left_col: first.left_col,
            right_col: first.right_col,
            right_role: first.right_role,
            numeric,
            less: Vec::new(),
            equal: Vec::new(),
            greater: Vec::new(),
        };
        for &id in members {
            let op = space.predicate(id).op;
            let word = id / 64;
            let bit = 1u64 << (id % 64);
            let add = |target: &mut Vec<(usize, u64)>| {
                if let Some(entry) = target.iter_mut().find(|(w, _)| *w == word) {
                    entry.1 |= bit;
                } else {
                    target.push((word, bit));
                }
            };
            // Which outcomes satisfy this operator?
            let satisfied_on: &[Ordering] = match op {
                Operator::Eq => &[Ordering::Equal],
                Operator::Neq => &[Ordering::Less, Ordering::Greater],
                Operator::Lt => &[Ordering::Less],
                Operator::Leq => &[Ordering::Less, Ordering::Equal],
                Operator::Gt => &[Ordering::Greater],
                Operator::Geq => &[Ordering::Greater, Ordering::Equal],
            };
            for &o in satisfied_on {
                match o {
                    Ordering::Less => add(&mut masks.less),
                    Ordering::Equal => add(&mut masks.equal),
                    Ordering::Greater => add(&mut masks.greater),
                }
            }
        }
        groups.push(masks);
    }
    groups
}

/// Optimised builder: integer codes + per-group outcome masks.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClusterEvidenceBuilder;

impl EvidenceBuilder for ClusterEvidenceBuilder {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn build(&self, relation: &Relation, space: &PredicateSpace, track_vios: bool) -> Evidence {
        let n = relation.len();
        let mut acc = EvidenceAccumulator::new(space.len(), n);
        let mut vios = track_vios.then(|| Vios::new(0, n));
        if n == 0 || space.is_empty() {
            return Evidence {
                evidence_set: acc.finish(),
                vios,
            };
        }

        let codes = column_codes(relation);
        let groups = group_masks(space);
        let words = space.len().div_ceil(64);
        let mut buffer = vec![0u64; words];

        for t in 0..n {
            for t_prime in 0..n {
                if t == t_prime {
                    continue;
                }
                fill_pair(&codes, &groups, t, t_prime, &mut buffer);
                let entry = acc.add(FixedBitSet::from_words(space.len(), &buffer));
                if let Some(v) = vios.as_mut() {
                    v.record_pair(entry, t as u32, t_prime as u32);
                }
            }
        }
        Evidence {
            evidence_set: acc.finish(),
            vios,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use adc_data::{AttributeType, Schema, Value};
    use adc_predicates::SpaceConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The paper's Table-1-style 5-row fixture (shared with `sweep.rs` and `delta.rs`).
    pub(crate) fn small_relation() -> Relation {
        let schema = Schema::of(&[
            ("Name", AttributeType::Text),
            ("State", AttributeType::Text),
            ("Income", AttributeType::Integer),
            ("Tax", AttributeType::Integer),
        ]);
        let rows: [(&str, &str, i64, i64); 5] = [
            ("Alice", "NY", 28_000, 2_400),
            ("Mark", "NY", 42_000, 4_700),
            ("Julia", "WA", 27_000, 1_400),
            ("Jimmy", "WA", 24_000, 1_600),
            ("Sam", "WA", 49_000, 6_800),
        ];
        let mut b = Relation::builder(schema);
        for (n, s, i, t) in rows {
            b.push_row(vec![n.into(), s.into(), Value::Int(i), Value::Int(t)])
                .unwrap();
        }
        b.build()
    }

    /// A noisy 4-column relation with ~10 % nulls (shared with `sweep.rs` and `delta.rs`).
    pub(crate) fn random_relation(rows: usize, seed: u64) -> Relation {
        let schema = Schema::of(&[
            ("A", AttributeType::Text),
            ("B", AttributeType::Integer),
            ("C", AttributeType::Integer),
            ("D", AttributeType::Float),
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let cats = ["x", "y", "z"];
        let mut b = Relation::builder(schema);
        for _ in 0..rows {
            let a = if rng.gen_bool(0.1) {
                Value::Null
            } else {
                Value::from(cats[rng.gen_range(0..cats.len())])
            };
            let bval = if rng.gen_bool(0.1) {
                Value::Null
            } else {
                Value::Int(rng.gen_range(0..5))
            };
            let c = Value::Int(rng.gen_range(0..5));
            let d = Value::Float(rng.gen_range(0..4) as f64 / 2.0);
            b.push_row(vec![a, bval, c, d]).unwrap();
        }
        b.build()
    }

    fn assert_same_evidence(r: &Relation, space: &PredicateSpace) {
        let naive = NaiveEvidenceBuilder.build(r, space, false).evidence_set;
        let cluster = ClusterEvidenceBuilder.build(r, space, false).evidence_set;
        assert_eq!(naive.total_pairs(), cluster.total_pairs());
        assert_eq!(naive.distinct_count(), cluster.distinct_count());
        // Compare as multisets of (bitset, count).
        let to_map = |e: &crate::EvidenceSet| {
            let mut m: FxHashMap<Vec<usize>, u64> = FxHashMap::default();
            for entry in e.entries() {
                *m.entry(entry.set.to_vec()).or_insert(0) += entry.count;
            }
            m
        };
        assert_eq!(to_map(&naive), to_map(&cluster));
    }

    #[test]
    fn builders_agree_on_running_example() {
        let r = small_relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        assert_same_evidence(&r, &space);
    }

    #[test]
    fn builders_agree_on_random_relations_with_nulls() {
        for seed in 0..5 {
            let r = random_relation(30, seed);
            let space = PredicateSpace::build(&r, SpaceConfig::default());
            assert_same_evidence(&r, &space);
        }
    }

    #[test]
    fn builders_agree_same_column_only_config() {
        let r = random_relation(25, 99);
        let space = PredicateSpace::build(&r, SpaceConfig::same_column_only());
        assert_same_evidence(&r, &space);
    }

    #[test]
    fn total_pairs_is_n_times_n_minus_one() {
        let r = small_relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let e = ClusterEvidenceBuilder.build(&r, &space, false).evidence_set;
        assert_eq!(e.total_pairs(), 20);
        assert_eq!(e.num_tuples(), 5);
    }

    #[test]
    fn evidence_entries_match_reference_satisfied_sets() {
        let r = small_relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let e = ClusterEvidenceBuilder.build(&r, &space, false).evidence_set;
        // Every pair's reference Sat(t,t') must appear in the evidence set.
        for t in 0..r.len() {
            for tp in 0..r.len() {
                if t == tp {
                    continue;
                }
                let sat = space.satisfied_set(&r, t, tp);
                assert!(
                    e.entries().iter().any(|entry| entry.set == sat),
                    "missing evidence for pair ({t},{tp})"
                );
            }
        }
    }

    #[test]
    fn vios_counts_sum_to_twice_total_pairs() {
        let r = small_relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        for builder in [
            &NaiveEvidenceBuilder as &dyn EvidenceBuilder,
            &ClusterEvidenceBuilder,
        ] {
            let ev = builder.build(&r, &space, true);
            let vios = ev.vios();
            let all_entries: Vec<usize> = (0..ev.evidence_set.distinct_count()).collect();
            let total: u64 = vios.accumulate_counts(&all_entries).values().sum();
            assert_eq!(
                total,
                2 * ev.evidence_set.total_pairs(),
                "{}",
                builder.name()
            );
            // Every tuple participates in 2*(n-1) ordered pairs.
            let counts = vios.accumulate_counts(&all_entries);
            for t in 0..r.len() as u32 {
                assert_eq!(counts[&t], 2 * (r.len() as u64 - 1));
            }
        }
    }

    #[test]
    fn empty_relation_produces_empty_evidence() {
        let schema = Schema::of(&[("A", AttributeType::Integer)]);
        let r = Relation::empty(schema);
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let e = ClusterEvidenceBuilder.build(&r, &space, true);
        assert_eq!(e.evidence_set.total_pairs(), 0);
        assert_eq!(e.evidence_set.distinct_count(), 0);
    }

    #[test]
    fn single_tuple_relation_has_no_pairs() {
        let schema = Schema::of(&[("A", AttributeType::Integer)]);
        let mut b = Relation::builder(schema);
        b.push_row(vec![Value::Int(1)]).unwrap();
        let r = b.build();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let e = NaiveEvidenceBuilder.build(&r, &space, false);
        assert_eq!(e.evidence_set.total_pairs(), 0);
    }

    #[test]
    fn cross_column_text_equality_uses_global_codes() {
        // Two text columns holding overlapping city names; cross-column
        // equality must hold exactly when the strings match.
        let schema = Schema::of(&[
            ("Origin", AttributeType::Text),
            ("Dest", AttributeType::Text),
        ]);
        let mut b = Relation::builder(schema);
        for (o, d) in [
            ("JFK", "SEA"),
            ("SEA", "JFK"),
            ("JFK", "JFK"),
            ("ORD", "SEA"),
        ] {
            b.push_row(vec![o.into(), d.into()]).unwrap();
        }
        let r = b.build();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let eq_id = space
            .find("Origin", "=", TupleRole::Same, "Dest")
            .expect("cross-column single-tuple predicate generated");
        let e = ClusterEvidenceBuilder.build(&r, &space, false).evidence_set;
        // Pairs whose first tuple is t3 ("JFK","JFK") satisfy Origin = Dest.
        let satisfying: u64 = e
            .entries()
            .iter()
            .filter(|en| en.set.contains(eq_id))
            .map(|en| en.count)
            .sum();
        assert_eq!(
            satisfying, 3,
            "t3 appears as first element of 3 ordered pairs"
        );
    }
}
