//! The predicate space `P_R` for a relation.
//!
//! Component (1) of ADCMiner: the *predicate space generator*. Following the
//! paper (Section 4.2) and Chu et al., the space contains predicates of three
//! shapes — `t[A] ρ t'[A]`, `t[A] ρ t[B]`, and `t[A] ρ t'[B]` — where:
//!
//! * order operators are used only for numeric attributes,
//! * only attributes of comparable types are compared,
//! * two *different* attributes are compared only if they share at least 30 %
//!   of their distinct values (configurable via [`SpaceConfig`]).
//!
//! The shared-values fractions come from one [`SharedValues`] pass over the
//! relation: each column's distinct keys once, each unordered comparable
//! pair intersected once by merge (`adc_data::stats`). `build` skips that
//! pass altogether when no cross-column shape can be admitted (both
//! cross-column flags off, or a threshold above 1.0 such as
//! [`SpaceConfig::same_column_only`]).
//!
//! Every predicate gets a dense id (`0..len`); sets of predicates are
//! [`FixedBitSet`]s over that id range. Ids follow the candidate-structure
//! order: same-attribute structures by column, then the admitted
//! cross-column structures by ordered column pair.

#![doc = "conformance: ordered-output"]

use crate::operator::Operator;
use crate::predicate::{Predicate, TupleRole};
use adc_data::fx::FxHashMap;
use adc_data::{FixedBitSet, Relation, Schema, SharedValues};

/// Configuration for predicate-space generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceConfig {
    /// Minimum fraction of shared distinct values required to compare two
    /// *different* attributes (the paper and Chu et al. use 0.3).
    pub min_shared_fraction: f64,
    /// Generate cross-column, cross-tuple predicates `t[A] ρ t'[B]`.
    pub cross_column_cross_tuple: bool,
    /// Generate cross-column, single-tuple predicates `t[A] ρ t[B]`.
    pub single_tuple: bool,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            min_shared_fraction: 0.3,
            cross_column_cross_tuple: true,
            single_tuple: true,
        }
    }
}

impl SpaceConfig {
    /// A configuration that only generates same-attribute cross-tuple
    /// predicates `t[A] ρ t'[A]` — the fragment corresponding to classic
    /// FD-style constraints plus order comparisons.
    pub fn same_column_only() -> Self {
        SpaceConfig {
            min_shared_fraction: 1.1, // nothing passes the cross-column filter
            cross_column_cross_tuple: false,
            single_tuple: false,
        }
    }
}

/// The predicate space for one relation.
#[derive(Debug, Clone)]
pub struct PredicateSpace {
    schema: Schema,
    predicates: Vec<Predicate>,
    /// `complement_of[i]` = id of the complement predicate of `i`.
    complement_of: Vec<usize>,
    /// `group_of[i]` = structure-group id of predicate `i`.
    group_of: Vec<usize>,
    /// Structure groups: predicates sharing operands and differing only in operator.
    groups: Vec<Vec<usize>>,
    /// Reverse index for lookup by value.
    index: FxHashMap<Predicate, usize>,
    config: SpaceConfig,
}

/// The operand structures `(left, right, role)` of the space, in id order:
/// every same-attribute cross-tuple structure, then for each ordered pair of
/// different comparable attributes whose shared-values fraction passes the
/// threshold its cross-tuple structure and, once per unordered pair, its
/// single-tuple structure.
fn candidate_structures(
    relation: &Relation,
    config: &SpaceConfig,
) -> Vec<(usize, usize, TupleRole)> {
    let schema = relation.schema();
    // Same attribute, cross tuple: always admissible.
    let mut structures: Vec<(usize, usize, TupleRole)> = (0..schema.arity())
        .map(|col| (col, col, TupleRole::Other))
        .collect();
    // A fraction is at most 1.0, so no pair passes a threshold above that
    // (the same-column-only config), and with both cross-column shapes off a
    // passing pair adds nothing: skip the statistic altogether.
    let any_shape = config.cross_column_cross_tuple || config.single_tuple;
    if !any_shape || config.min_shared_fraction > 1.0 {
        return structures;
    }
    // Different attributes: admissible when types are comparable and the
    // shared-values fraction passes the threshold.
    let shared = SharedValues::of(relation);
    for a in 0..schema.arity() {
        for b in 0..schema.arity() {
            if a == b {
                continue;
            }
            let ta = schema.attribute(a).ty();
            let tb = schema.attribute(b).ty();
            if !ta.comparable_with(tb) || shared.fraction(a, b) < config.min_shared_fraction {
                continue;
            }
            if config.cross_column_cross_tuple {
                structures.push((a, b, TupleRole::Other));
            }
            // Single-tuple predicates are symmetric in (a, b) up to the
            // symmetric operator, so generate each unordered pair once.
            if config.single_tuple && a < b {
                structures.push((a, b, TupleRole::Same));
            }
        }
    }
    structures
}

impl PredicateSpace {
    /// Build the predicate space for a relation.
    pub fn build(relation: &Relation, config: SpaceConfig) -> Self {
        let structures = candidate_structures(relation, &config);
        Self::from_structures(relation.schema().clone(), structures, config)
    }

    /// Expand candidate structures `(left, right, role)`, in order, into
    /// their operator groups; predicate ids follow the structure order.
    fn from_structures(
        schema: Schema,
        candidate_structures: Vec<(usize, usize, TupleRole)>,
        config: SpaceConfig,
    ) -> Self {
        let mut predicates = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of = Vec::new();
        for (left, right, role) in candidate_structures {
            let numeric = schema.attribute(left).ty().is_numeric()
                && schema.attribute(right).ty().is_numeric();
            let ops: &[Operator] = if numeric {
                &Operator::ALL
            } else {
                &Operator::EQUALITY
            };
            let group_id = groups.len();
            let mut group = Vec::with_capacity(ops.len());
            for &op in ops {
                let p = Predicate {
                    left_col: left,
                    right_col: right,
                    right_role: role,
                    op,
                };
                debug_assert!(!p.is_degenerate());
                group.push(predicates.len());
                group_of.push(group_id);
                predicates.push(p);
            }
            groups.push(group);
        }

        let mut index = FxHashMap::default();
        for (i, p) in predicates.iter().enumerate() {
            index.insert(*p, i);
        }
        let complement_of = predicates
            .iter()
            .map(|p| {
                *index
                    .get(&p.complement())
                    // conformance: allow(panic) — the generator emits predicates in complement-closed pairs, so the lookup always hits
                    .expect("complement of every generated predicate is generated")
            })
            .collect();

        PredicateSpace {
            schema,
            predicates,
            complement_of,
            group_of,
            groups,
            index,
            config,
        }
    }

    /// The schema the space was built for.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The configuration the space was built with.
    pub fn config(&self) -> &SpaceConfig {
        &self.config
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// `true` if the space contains no predicates.
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Predicate with id `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn predicate(&self, id: usize) -> &Predicate {
        &self.predicates[id]
    }

    /// All predicates in id order.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Id of the complement predicate of `id`.
    pub fn complement_of(&self, id: usize) -> usize {
        self.complement_of[id]
    }

    /// Map a set of predicate ids to the set of their complements.
    pub fn complement_set(&self, set: &FixedBitSet) -> FixedBitSet {
        FixedBitSet::from_indices(self.len(), set.iter().map(|i| self.complement_of[i]))
    }

    /// Structure-group id of predicate `id` (predicates in the same group
    /// share operands and differ only by operator).
    pub fn group_of(&self, id: usize) -> usize {
        self.group_of[id]
    }

    /// Members of structure group `group`.
    pub fn group_members(&self, group: usize) -> &[usize] {
        &self.groups[group]
    }

    /// Number of structure groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Look up the id of a predicate by value.
    pub fn id_of(&self, predicate: &Predicate) -> Option<usize> {
        self.index.get(predicate).copied()
    }

    /// Look up a predicate by attribute names, operator symbol, and role.
    ///
    /// `find("Income", ">", TupleRole::Other, "Tax")` resolves
    /// `t.Income > t'.Tax`. Returns `None` if the attribute names are unknown
    /// or the predicate is not part of the space (e.g. filtered by the
    /// shared-values rule).
    pub fn find(&self, left: &str, op: &str, role: TupleRole, right: &str) -> Option<usize> {
        let left_col = self.schema.index_of(left)?;
        let right_col = self.schema.index_of(right)?;
        let op = Operator::parse(op)?;
        self.id_of(&Predicate {
            left_col,
            right_col,
            right_role: role,
            op,
        })
    }

    /// Compute `Sat(t, t')`: the set of predicates satisfied by the ordered
    /// tuple pair. This is the reference (naive) implementation; the
    /// evidence builders in `adc-evidence` compute the same sets column-wise.
    pub fn satisfied_set(&self, relation: &Relation, t: usize, t_prime: usize) -> FixedBitSet {
        let mut set = FixedBitSet::new(self.len());
        for (i, p) in self.predicates.iter().enumerate() {
            if p.eval(relation, t, t_prime) {
                set.insert(i);
            }
        }
        set
    }

    /// Render a predicate set (e.g. a DC body) as text.
    pub fn render_set(&self, set: &FixedBitSet) -> String {
        let parts: Vec<String> = set
            .iter()
            .map(|i| self.predicates[i].display(&self.schema).to_string())
            .collect();
        parts.join(" ∧ ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_data::{AttributeType, Schema, Value};

    /// Running-example-like relation: Name, State (text), Income, Tax (numeric).
    fn relation() -> Relation {
        let schema = Schema::of(&[
            ("Name", AttributeType::Text),
            ("State", AttributeType::Text),
            ("Income", AttributeType::Integer),
            ("Tax", AttributeType::Integer),
        ]);
        let mut b = Relation::builder(schema);
        let rows: [(&str, &str, i64, i64); 4] = [
            ("Alice", "NY", 28_000, 2_400),
            ("Mark", "NY", 42_000, 4_700),
            ("Julia", "WA", 27_000, 1_400),
            ("Jimmy", "WA", 24_000, 1_600),
        ];
        for (n, s, i, t) in rows {
            b.push_row(vec![n.into(), s.into(), Value::Int(i), Value::Int(t)])
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn same_column_predicates_always_present() {
        let r = relation();
        let space = PredicateSpace::build(&r, SpaceConfig::same_column_only());
        // Name, State: 2 ops each; Income, Tax: 6 ops each.
        assert_eq!(space.len(), 2 + 2 + 6 + 6);
        assert!(space
            .find("State", "=", TupleRole::Other, "State")
            .is_some());
        assert!(space
            .find("Income", "<", TupleRole::Other, "Income")
            .is_some());
        // No order predicates on text attributes.
        assert!(space
            .find("State", "<", TupleRole::Other, "State")
            .is_none());
        // No cross-column predicates in this config.
        assert!(space.find("Income", ">", TupleRole::Other, "Tax").is_none());
    }

    #[test]
    fn shared_value_rule_filters_cross_column() {
        let r = relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        // Income and Tax values do not overlap at all -> no Income/Tax predicates.
        assert!(space.find("Income", ">", TupleRole::Other, "Tax").is_none());
        assert!(space.find("Income", ">", TupleRole::Same, "Tax").is_none());
        // Name and State do not overlap either.
        assert!(space.find("Name", "=", TupleRole::Other, "State").is_none());
    }

    #[test]
    fn cross_column_predicates_appear_when_values_overlap() {
        // Two numeric columns with identical value sets.
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Integer)]);
        let mut b = Relation::builder(schema);
        for i in 0..10i64 {
            b.push_row(vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
        let r = b.build();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        // Same-column: 2 * 6. Cross-column cross-tuple: A/B and B/A -> 2 * 6.
        // Single-tuple: unordered {A,B} -> 6.
        assert_eq!(space.len(), 12 + 12 + 6);
        assert!(space.find("A", "≤", TupleRole::Other, "B").is_some());
        assert!(space.find("B", "≥", TupleRole::Other, "A").is_some());
        assert!(space.find("A", "<", TupleRole::Same, "B").is_some());
        // Single-tuple pairs are generated once (A,B), not twice.
        assert!(space.find("B", "<", TupleRole::Same, "A").is_none());
    }

    #[test]
    fn complement_map_is_involutive_and_consistent() {
        let r = relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        for id in 0..space.len() {
            let c = space.complement_of(id);
            assert_eq!(space.complement_of(c), id);
            assert_eq!(*space.predicate(c), space.predicate(id).complement());
        }
    }

    #[test]
    fn complement_set_maps_elementwise() {
        let r = relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let a = space.find("State", "=", TupleRole::Other, "State").unwrap();
        let b = space
            .find("Income", "<", TupleRole::Other, "Income")
            .unwrap();
        let set = FixedBitSet::from_indices(space.len(), [a, b]);
        let comp = space.complement_set(&set);
        assert!(comp.contains(space.find("State", "≠", TupleRole::Other, "State").unwrap()));
        assert!(comp.contains(
            space
                .find("Income", "≥", TupleRole::Other, "Income")
                .unwrap()
        ));
        assert_eq!(comp.len(), 2);
    }

    #[test]
    fn structure_groups_partition_the_space() {
        let r = relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let mut seen = vec![false; space.len()];
        for g in 0..space.group_count() {
            for &id in space.group_members(g) {
                assert_eq!(space.group_of(id), g);
                assert!(!seen[id], "predicate {id} in two groups");
                seen[id] = true;
            }
            // All members share the structure key.
            let key = space.predicate(space.group_members(g)[0]).structure_key();
            for &id in space.group_members(g) {
                assert_eq!(space.predicate(id).structure_key(), key);
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn satisfied_set_matches_example_3_1_style_expectations() {
        let r = relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        // Pair (Mark, Alice): same state, Mark earns and pays more.
        let sat = space.satisfied_set(&r, 1, 0);
        let id = |l: &str, op: &str, r_: &str| space.find(l, op, TupleRole::Other, r_).unwrap();
        assert!(sat.contains(id("State", "=", "State")));
        assert!(sat.contains(id("Name", "≠", "Name")));
        assert!(sat.contains(id("Income", ">", "Income")));
        assert!(sat.contains(id("Income", "≥", "Income")));
        assert!(sat.contains(id("Tax", ">", "Tax")));
        assert!(!sat.contains(id("Income", "<", "Income")));
        assert!(!sat.contains(id("State", "≠", "State")));
        // Reversed pair flips the order predicates.
        let sat_rev = space.satisfied_set(&r, 0, 1);
        assert!(sat_rev.contains(id("Income", "<", "Income")));
        assert!(!sat_rev.contains(id("Income", ">", "Income")));
    }

    #[test]
    fn exactly_one_of_predicate_and_complement_holds_per_pair() {
        let r = relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        for t in 0..r.len() {
            for tp in 0..r.len() {
                if t == tp {
                    continue;
                }
                let sat = space.satisfied_set(&r, t, tp);
                for id in 0..space.len() {
                    let c = space.complement_of(id);
                    assert_ne!(
                        sat.contains(id),
                        sat.contains(c),
                        "pair ({t},{tp}) predicate {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn render_set_is_readable() {
        let r = relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let a = space.find("State", "=", TupleRole::Other, "State").unwrap();
        let b = space
            .find("Income", ">", TupleRole::Other, "Income")
            .unwrap();
        let set = FixedBitSet::from_indices(space.len(), [a, b]);
        let s = space.render_set(&set);
        assert!(s.contains("t.State = t'.State"));
        assert!(s.contains("t.Income > t'.Income"));
        assert!(s.contains(" ∧ "));
    }

    #[test]
    fn lookup_unknown_names_returns_none() {
        let r = relation();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        assert!(space.find("Nope", "=", TupleRole::Other, "State").is_none());
        assert!(space.find("State", "=", TupleRole::Other, "Nope").is_none());
        assert!(space
            .find("State", "??", TupleRole::Other, "State")
            .is_none());
    }
}

/// Differential check of the one-pass shared-values statistic against the
/// per-ordered-pair hash-set computation it replaced.
#[cfg(test)]
mod shared_values_differential {
    use super::*;
    use crate::SpaceDriftTracker;
    use adc_data::fx::FxHashSet;
    use adc_data::{AttributeType, Column, Value, ValueKey};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The distinct keys of one column, rebuilt per call (the replaced form).
    fn reference_keys(col: &Column) -> FxHashSet<ValueKey> {
        let mut out = FxHashSet::default();
        match col {
            Column::Int(v) => {
                for x in v.iter().flatten() {
                    out.insert(ValueKey::Num((*x as f64).to_bits()));
                }
            }
            Column::Float(v) => {
                for x in v.iter().flatten() {
                    out.insert(ValueKey::Num(x.to_bits()));
                }
            }
            Column::Text { codes, dict } => {
                for c in codes.iter().flatten() {
                    out.insert(ValueKey::Text(dict[*c as usize].clone()));
                }
            }
        }
        out
    }

    /// The replaced per-pair fraction: two fresh hash sets per call.
    fn reference_fraction(r: &Relation, a: usize, b: usize) -> f64 {
        let (ca, cb) = (r.column(a), r.column(b));
        if !ca.ty().comparable_with(cb.ty()) {
            return 0.0;
        }
        let ka = reference_keys(ca);
        let kb = reference_keys(cb);
        if ka.is_empty() || kb.is_empty() {
            return 0.0;
        }
        let (small, large) = if ka.len() <= kb.len() {
            (&ka, &kb)
        } else {
            (&kb, &ka)
        };
        let common = small.iter().filter(|k| large.contains(*k)).count();
        common as f64 / small.len() as f64
    }

    /// The replaced candidate loop: one reference fraction per ordered pair.
    fn reference_structures(r: &Relation, config: &SpaceConfig) -> Vec<(usize, usize, TupleRole)> {
        let schema = r.schema();
        let mut out: Vec<(usize, usize, TupleRole)> = (0..schema.arity())
            .map(|col| (col, col, TupleRole::Other))
            .collect();
        for a in 0..schema.arity() {
            for b in 0..schema.arity() {
                if a == b {
                    continue;
                }
                let ta = schema.attribute(a).ty();
                let tb = schema.attribute(b).ty();
                if !ta.comparable_with(tb) {
                    continue;
                }
                if reference_fraction(r, a, b) < config.min_shared_fraction {
                    continue;
                }
                if config.cross_column_cross_tuple {
                    out.push((a, b, TupleRole::Other));
                }
                if config.single_tuple && a < b {
                    out.push((a, b, TupleRole::Same));
                }
            }
        }
        out
    }

    /// Assert the built space, its fractions and the drift tracker's
    /// baseline all match the reference computation on `r`.
    fn assert_matches_reference(r: &Relation, config: SpaceConfig) {
        let built = PredicateSpace::build(r, config);
        let reference = PredicateSpace::from_structures(
            r.schema().clone(),
            reference_structures(r, &config),
            config,
        );
        assert_eq!(built.predicates, reference.predicates, "{config:?}");
        assert_eq!(built.groups, reference.groups);
        assert_eq!(built.group_of, reference.group_of);
        assert_eq!(built.complement_of, reference.complement_of);

        let shared = SharedValues::of(r);
        for a in 0..r.arity() {
            for b in 0..r.arity() {
                if a == b {
                    continue;
                }
                let expected = reference_fraction(r, a, b).to_bits();
                assert_eq!(shared.fraction(a, b).to_bits(), expected, "pair ({a}, {b})");
                assert_eq!(r.shared_value_fraction(a, b).to_bits(), expected);
            }
        }

        let tracker = SpaceDriftTracker::new(r, &config);
        assert!(tracker.drift().is_none());
        let tracked = tracker.tracked();
        if config.min_shared_fraction > 1.0 {
            assert!(tracked.is_empty());
            return;
        }
        assert_eq!(tracked.len(), shared.pairs().len());
        for ((a, b), fraction, admitted) in tracked {
            let expected = reference_fraction(r, a, b);
            assert_eq!(fraction.to_bits(), expected.to_bits(), "pair ({a}, {b})");
            assert_eq!(admitted, expected >= config.min_shared_fraction);
            let in_space = |right_role| {
                built
                    .id_of(&Predicate {
                        left_col: a,
                        right_col: b,
                        right_role,
                        op: Operator::Eq,
                    })
                    .is_some()
            };
            if config.cross_column_cross_tuple {
                assert_eq!(admitted, in_space(TupleRole::Other), "pair ({a}, {b})");
            }
            if config.single_tuple {
                assert_eq!(admitted, in_space(TupleRole::Same), "pair ({a}, {b})");
            }
        }
    }

    /// A cell drawn from small pools, so columns overlap: nulls, ±0.0, two
    /// NaN payloads, integers above 2⁵³ (two of which widen to one float),
    /// and strings shared across columns.
    fn random_value(rng: &mut StdRng, ty: AttributeType) -> Value {
        if rng.gen_bool(0.15) {
            return Value::Null;
        }
        const BIG: i64 = 1 << 53;
        match ty {
            AttributeType::Integer => {
                let pool = [0, 1, 2, 3, 5, -1, BIG, BIG + 1, BIG + 2, i64::MAX];
                Value::Int(pool[rng.gen_range(0..pool.len())])
            }
            AttributeType::Float => {
                let pool = [
                    0.0,
                    -0.0,
                    1.0,
                    2.0,
                    0.5,
                    f64::NAN,
                    f64::from_bits(0x7ff8_0000_0000_0001),
                    BIG as f64,
                    (BIG + 2) as f64,
                    i64::MAX as f64,
                ];
                Value::Float(pool[rng.gen_range(0..pool.len())])
            }
            AttributeType::Text => {
                let pool = ["a", "b", "c", "d", "e", "NY", "WA", ""];
                pool[rng.gen_range(0..pool.len())].into()
            }
        }
    }

    fn random_row(rng: &mut StdRng, schema: &Schema) -> Vec<Value> {
        (0..schema.arity())
            .map(|c| random_value(rng, schema.attribute(c).ty()))
            .collect()
    }

    /// A random relation of 1–5 columns and 0–24 rows. Its text
    /// dictionaries may hold strings no row uses: some cases keep a subset
    /// of the rows (as a delete does), and some then append fresh rows.
    fn random_relation(rng: &mut StdRng) -> Relation {
        let types = [
            AttributeType::Integer,
            AttributeType::Float,
            AttributeType::Text,
        ];
        let names = ["A", "B", "C", "D", "E"];
        let arity = rng.gen_range(1..=names.len());
        let columns: Vec<(&str, AttributeType)> = names[..arity]
            .iter()
            .map(|&n| (n, types[rng.gen_range(0..types.len())]))
            .collect();
        let schema = Schema::of(&columns);
        let mut b = Relation::builder(schema.clone());
        for _ in 0..rng.gen_range(0..25) {
            b.push_row(random_row(rng, &schema)).unwrap();
        }
        let mut r = b.build();
        if rng.gen_bool(0.5) {
            let kept: Vec<usize> = (0..r.len()).filter(|_| rng.gen_bool(0.5)).collect();
            r = r.project_rows(&kept);
            if rng.gen_bool(0.5) {
                let rows = (0..rng.gen_range(0..6))
                    .map(|_| random_row(rng, &schema))
                    .collect();
                r.append_rows(rows).unwrap();
            }
        }
        r
    }

    fn random_config(rng: &mut StdRng) -> SpaceConfig {
        let thresholds = [0.0, 0.3, 0.5, 2.0 / 3.0, 1.0, 1.1];
        SpaceConfig {
            min_shared_fraction: thresholds[rng.gen_range(0..thresholds.len())],
            cross_column_cross_tuple: rng.gen_bool(0.7),
            single_tuple: rng.gen_bool(0.7),
        }
    }

    proptest! {
        #[test]
        fn one_pass_space_matches_the_hash_set_reference(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = random_relation(&mut rng);
            for config in [SpaceConfig::default(), SpaceConfig::same_column_only(), random_config(&mut rng)] {
                assert_matches_reference(&r, config);
            }
        }
    }

    #[test]
    fn unused_dictionary_strings_and_local_codes_do_not_count() {
        let schema = Schema::of(&[("A", AttributeType::Text), ("B", AttributeType::Text)]);
        let mut b = Relation::builder(schema);
        b.push_row(vec!["q".into(), "z".into()]).unwrap();
        b.push_row(vec!["z".into(), Value::Null]).unwrap();
        b.push_row(vec!["x".into(), Value::Null]).unwrap();
        // After the projection A holds "z" and "x" and B nothing, yet B's
        // dictionary still holds "z" (a dictionary-based count would read 1.0).
        let mut r = b.build().project_rows(&[1, 2]);
        assert_eq!(SharedValues::of(&r).fraction(0, 1), 0.0);
        assert_matches_reference(&r, SpaceConfig::default());
        // "x" enters B under B's local code 1 and A's code 2.
        r.append_rows(vec![vec![Value::Null, "x".into()]]).unwrap();
        assert_eq!(SharedValues::of(&r).fraction(0, 1), 1.0);
        assert_matches_reference(&r, SpaceConfig::default());
    }
}
