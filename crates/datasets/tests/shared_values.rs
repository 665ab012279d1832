//! The predicate space of every dataset generator's relation against the
//! per-ordered-pair hash-set computation of the shared-values rule (two
//! fresh `FxHashSet<ValueKey>` per pair), through the public space API.

use adc_data::fx::FxHashSet;
use adc_data::{value_key, Relation, ValueKey};
use adc_datasets::Dataset;
use adc_predicates::{PredicateSpace, SpaceConfig, SpaceDriftTracker, TupleRole};

/// The distinct non-null keys of column `col`, one [`value_key`] per cell.
fn reference_keys(r: &Relation, col: usize) -> FxHashSet<ValueKey> {
    (0..r.len())
        .filter_map(|row| value_key(&r.value(row, col)))
        .collect()
}

/// The shared-values fraction of columns `a` and `b` from two hash sets.
fn reference_fraction(r: &Relation, a: usize, b: usize) -> f64 {
    let schema = r.schema();
    if !schema
        .attribute(a)
        .ty()
        .comparable_with(schema.attribute(b).ty())
    {
        return 0.0;
    }
    let (ka, kb) = (reference_keys(r, a), reference_keys(r, b));
    if ka.is_empty() || kb.is_empty() {
        return 0.0;
    }
    let common = ka.intersection(&kb).count();
    common as f64 / ka.len().min(kb.len()) as f64
}

/// The operand structures the space must hold, in id order: every
/// same-attribute structure, then for each ordered pair of different
/// attributes whose reference fraction passes the threshold its
/// cross-tuple structure and, once per unordered pair, its single-tuple one.
fn reference_structures(r: &Relation, config: &SpaceConfig) -> Vec<(usize, usize, TupleRole)> {
    let arity = r.arity();
    let mut out: Vec<(usize, usize, TupleRole)> =
        (0..arity).map(|col| (col, col, TupleRole::Other)).collect();
    for a in 0..arity {
        for b in 0..arity {
            if a == b || reference_fraction(r, a, b) < config.min_shared_fraction {
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

/// The operand structures of `space`, in id order (a structure's
/// predicates are contiguous and differ only in operator).
fn built_structures(space: &PredicateSpace) -> Vec<(usize, usize, TupleRole)> {
    let mut out: Vec<(usize, usize, TupleRole)> = Vec::new();
    for p in space.predicates() {
        let structure = (p.left_col, p.right_col, p.right_role);
        if out.last() != Some(&structure) {
            out.push(structure);
        }
    }
    out
}

#[test]
fn every_dataset_generator_matches_the_reference() {
    for dataset in Dataset::ALL {
        let r = dataset.generator().generate(40, 5);
        for a in 0..r.arity() {
            for b in 0..r.arity() {
                if a != b {
                    assert_eq!(
                        r.shared_value_fraction(a, b).to_bits(),
                        reference_fraction(&r, a, b).to_bits(),
                        "{} columns ({a}, {b})",
                        dataset.name()
                    );
                }
            }
        }
        for config in [
            SpaceConfig::default(),
            SpaceConfig::same_column_only(),
            SpaceConfig {
                min_shared_fraction: 0.05,
                ..SpaceConfig::default()
            },
        ] {
            let space = PredicateSpace::build(&r, config);
            assert_eq!(
                built_structures(&space),
                reference_structures(&r, &config),
                "{} under {config:?}",
                dataset.name()
            );
            // The drift tracker's baseline is the built space's verdicts.
            assert!(SpaceDriftTracker::new(&r, &config).drift().is_none());
        }
    }
}
