//! Per-column and cross-column statistics used by the predicate-space
//! generator (notably the ≥30 % shared-values rule).
//!
//! [`SharedValues::of`] is the one implementation of that rule's statistic.
//! It computes each column's distinct non-null keys once, with the number
//! of cells holding each — numeric columns as a sorted list of `f64` bit
//! patterns (integers widen first), text columns as the sorted ids of the
//! strings their rows use, under one string → id interning shared by every
//! text column of the relation — and intersects each unordered comparable
//! column pair once, by merge. Text keys come from the row codes, never
//! from the dictionary: a dictionary may hold strings no row uses
//! ([`Column::project`] clones the whole dictionary and appends never
//! shrink it).

use crate::column::Column;
use crate::fx::FxHashMap;
use crate::relation::Relation;
use crate::value::Value;

/// One non-null cell value, normalised for cross-column comparison: numeric
/// values are compared by their `f64` bit pattern after widening, text
/// values by dictionary string.
///
/// This is the equality [`SharedValues`] counts with, exposed so
/// incremental trackers (the predicate-space drift detector) can maintain
/// the same distinct-value sets under row churn: `−0.0 ≠ 0.0`, each NaN
/// payload is its own value, integers equal the floats they widen to, and
/// nulls have no key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueKey {
    /// Numeric value, widened to `f64` and keyed by bit pattern.
    Num(u64),
    /// Text value, keyed by dictionary string.
    Text(String),
}

/// The [`ValueKey`] of one cell value, or `None` for nulls (nulls never
/// count as shared values).
pub fn value_key(value: &Value) -> Option<ValueKey> {
    match value {
        Value::Null => None,
        Value::Int(x) => Some(ValueKey::Num((*x as f64).to_bits())),
        Value::Float(x) => Some(ValueKey::Num(x.to_bits())),
        Value::Str(s) => Some(ValueKey::Text(s.clone())),
    }
}

/// The shared-values fraction of two columns with `distinct_a` and
/// `distinct_b` distinct non-null values, `common` of which they share:
/// `common / min(distinct_a, distinct_b)`, and 0.0 when either side has no
/// non-null value. Every producer of the fraction goes through this
/// function, so equal counts give bit-identical fractions.
pub fn shared_fraction(common: usize, distinct_a: usize, distinct_b: usize) -> f64 {
    if distinct_a == 0 || distinct_b == 0 {
        return 0.0;
    }
    common as f64 / distinct_a.min(distinct_b) as f64
}

/// One column's distinct non-null keys in ascending order, each with the
/// number of cells holding it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct KeyRuns {
    /// `true` for a text column, whose keys are interned string ids.
    text: bool,
    /// `(key, multiplicity)`, strictly ascending by key.
    runs: Vec<(u64, usize)>,
}

/// The [`KeyRuns`] of each column, numeric keys as `f64` bit patterns and
/// text keys as ids under one interning of the strings the columns' rows
/// use, returned with the interned strings in id order. Keys of a numeric
/// and a text column are never compared with each other.
fn column_keys<'a>(columns: impl IntoIterator<Item = &'a Column>) -> (Vec<KeyRuns>, Vec<&'a str>) {
    let mut ids: FxHashMap<&'a str, u64> = FxHashMap::default();
    let mut strings: Vec<&'a str> = Vec::new();
    let mut per_code: Vec<usize> = Vec::new();
    let keys = columns
        .into_iter()
        .map(|col| match col {
            Column::Int(v) => numeric_runs(v.iter().flatten().map(|&x| (x as f64).to_bits())),
            Column::Float(v) => numeric_runs(v.iter().flatten().map(|x| x.to_bits())),
            Column::Text { codes, dict } => {
                per_code.clear();
                per_code.resize(dict.len(), 0);
                for &c in codes.iter().flatten() {
                    per_code[c as usize] += 1;
                }
                // A dictionary holds each string once, so the ids of one
                // column are distinct.
                let mut runs: Vec<(u64, usize)> = dict
                    .iter()
                    .zip(&per_code)
                    .filter(|&(_, &n)| n > 0)
                    .map(|(s, &n)| {
                        let id = *ids.entry(s.as_str()).or_insert_with(|| {
                            strings.push(s.as_str());
                            strings.len() as u64 - 1
                        });
                        (id, n)
                    })
                    .collect();
                runs.sort_unstable_by_key(|&(id, _)| id);
                KeyRuns { text: true, runs }
            }
        })
        .collect();
    (keys, strings)
}

/// The [`KeyRuns`] of a numeric column's non-null cell bit patterns.
fn numeric_runs(bits: impl Iterator<Item = u64>) -> KeyRuns {
    let mut bits: Vec<u64> = bits.collect();
    bits.sort_unstable();
    KeyRuns {
        text: false,
        runs: bits
            .chunk_by(|x, y| x == y)
            .map(|run| (run[0], run.len()))
            .collect(),
    }
}

/// Number of keys two strictly ascending key runs share.
fn common_keys(a: &[(u64, usize)], b: &[(u64, usize)]) -> usize {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    common
}

/// One comparable column pair and the distinct values its columns share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedPair {
    /// Left column index (always `< right`; the statistic is symmetric).
    pub left: usize,
    /// Right column index.
    pub right: usize,
    /// Number of distinct non-null values present in both columns.
    pub common: usize,
}

/// The shared-values statistic of every comparable column pair of one
/// relation, computed in one pass (see the module docs), together with each
/// column's distinct values and their multiplicities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedValues<'a> {
    /// Per column, its distinct keys and their multiplicities.
    columns: Vec<KeyRuns>,
    /// The interned text keys' strings, in id order.
    strings: Vec<&'a str>,
    /// Comparable pairs `left < right` in ascending `(left, right)` order.
    pairs: Vec<SharedPair>,
}

impl<'a> SharedValues<'a> {
    /// Compute the statistic for every comparable column pair of `relation`.
    pub fn of(relation: &'a Relation) -> Self {
        let (columns, strings) = column_keys(relation.columns());
        let schema = relation.schema();
        let mut pairs = Vec::new();
        for a in 0..columns.len() {
            for b in (a + 1)..columns.len() {
                if schema
                    .attribute(a)
                    .ty()
                    .comparable_with(schema.attribute(b).ty())
                {
                    pairs.push(SharedPair {
                        left: a,
                        right: b,
                        common: common_keys(&columns[a].runs, &columns[b].runs),
                    });
                }
            }
        }
        SharedValues {
            columns,
            strings,
            pairs,
        }
    }

    /// Number of distinct non-null values of column `col`.
    pub fn distinct(&self, col: usize) -> usize {
        self.columns[col].runs.len()
    }

    /// Each distinct non-null value of column `col` as its [`ValueKey`],
    /// with the number of cells holding it, in an order that depends only
    /// on the relation.
    pub fn value_counts(&self, col: usize) -> impl Iterator<Item = (ValueKey, usize)> + '_ {
        let keys = &self.columns[col];
        keys.runs.iter().map(move |&(key, n)| {
            let key = if keys.text {
                ValueKey::Text(self.strings[key as usize].to_owned())
            } else {
                ValueKey::Num(key)
            };
            (key, n)
        })
    }

    /// Every comparable pair `left < right`, in ascending `(left, right)`
    /// order.
    pub fn pairs(&self) -> &[SharedPair] {
        &self.pairs
    }

    /// The shared-values fraction of `pair`.
    pub fn pair_fraction(&self, pair: &SharedPair) -> f64 {
        shared_fraction(
            pair.common,
            self.distinct(pair.left),
            self.distinct(pair.right),
        )
    }

    /// The shared-values fraction of two different columns `a` and `b`, in
    /// either order; 0.0 when they are incomparable.
    pub fn fraction(&self, a: usize, b: usize) -> f64 {
        debug_assert_ne!(a, b, "a column's fraction with itself is not tracked");
        let key = (a.min(b), a.max(b));
        self.pairs
            .binary_search_by(|p| (p.left, p.right).cmp(&key))
            .map_or(0.0, |i| self.pair_fraction(&self.pairs[i]))
    }
}

/// Fraction of shared distinct values between two columns, relative to the
/// smaller distinct set. Returns 0.0 when either column has no non-null
/// values or the column types are not comparable (numeric vs text).
///
/// The one-pair form of [`SharedValues`], over the same keys and merge.
pub fn shared_value_fraction(a: &Column, b: &Column) -> f64 {
    if !a.ty().comparable_with(b.ty()) {
        return 0.0;
    }
    let (keys, _) = column_keys([a, b]);
    shared_fraction(
        common_keys(&keys[0].runs, &keys[1].runs),
        keys[0].runs.len(),
        keys[1].runs.len(),
    )
}

/// Summary statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Attribute name.
    pub name: String,
    /// Number of distinct non-null values.
    pub distinct: usize,
    /// Number of null cells.
    pub nulls: usize,
    /// Minimum numeric value (numeric columns only).
    pub min: Option<f64>,
    /// Maximum numeric value (numeric columns only).
    pub max: Option<f64>,
}

/// Compute summary statistics for every column of a relation.
pub fn column_stats(relation: &Relation) -> Vec<ColumnStats> {
    relation
        .schema()
        .iter()
        .map(|(i, attr)| {
            let col = relation.column(i);
            let (mut min, mut max) = (None::<f64>, None::<f64>);
            if attr.ty().is_numeric() {
                for row in 0..col.len() {
                    if let Some(x) = col.numeric(row) {
                        min = Some(min.map_or(x, |m: f64| m.min(x)));
                        max = Some(max.map_or(x, |m: f64| m.max(x)));
                    }
                }
            }
            ColumnStats {
                name: attr.name().to_string(),
                distinct: col.distinct_count(),
                nulls: col.null_count(),
                min,
                max,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttributeType, Schema};
    use crate::value::Value;

    fn rel() -> Relation {
        let schema = Schema::of(&[
            ("Zip", AttributeType::Integer),
            ("AltZip", AttributeType::Integer),
            ("State", AttributeType::Text),
            ("Income", AttributeType::Float),
        ]);
        let mut b = Relation::builder(schema);
        for (zip, alt, state, inc) in [
            (10001, 10001, "NY", 30.0),
            (10002, 10002, "NY", 40.0),
            (98112, 98112, "WA", 50.0),
            (98113, 77777, "WA", 60.0),
        ] {
            b.push_row(vec![
                Value::Int(zip),
                Value::Int(alt),
                state.into(),
                Value::Float(inc),
            ])
            .unwrap();
        }
        b.build()
    }

    #[test]
    fn shared_fraction_identical_columns() {
        let r = rel();
        assert!((r.shared_value_fraction(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shared_fraction_partial_overlap() {
        let r = rel();
        // AltZip shares 3 of 4 distinct values with Zip.
        assert!((r.shared_value_fraction(0, 1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn incomparable_types_share_nothing() {
        let r = rel();
        assert_eq!(r.shared_value_fraction(0, 2), 0.0);
        assert_eq!(r.shared_value_fraction(2, 3), 0.0);
    }

    #[test]
    fn int_float_columns_compare_numerically() {
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Float)]);
        let mut b = Relation::builder(schema);
        b.push_row(vec![Value::Int(1), Value::Float(1.0)]).unwrap();
        b.push_row(vec![Value::Int(2), Value::Float(3.0)]).unwrap();
        let r = b.build();
        assert!((r.shared_value_fraction(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_column_shares_nothing() {
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Integer)]);
        let mut b = Relation::builder(schema);
        b.push_row(vec![Value::Null, Value::Int(1)]).unwrap();
        let r = b.build();
        assert_eq!(r.shared_value_fraction(0, 1), 0.0);
    }

    /// Per-cell [`value_key`] counts of one column: the reference for the
    /// one-pass keys and multiplicities.
    fn reference_counts(col: &Column) -> FxHashMap<ValueKey, usize> {
        let mut counts = FxHashMap::default();
        for row in 0..col.len() {
            if let Some(k) = value_key(&col.value(row)) {
                *counts.entry(k).or_insert(0) += 1;
            }
        }
        counts
    }

    #[test]
    fn value_key_matches_the_distinct_key_normalisation() {
        // Int and Float widen to the same numeric key; nulls key to nothing.
        assert_eq!(value_key(&Value::Int(1)), value_key(&Value::Float(1.0)));
        assert_eq!(value_key(&Value::Null), None);
        // Per-cell keys reproduce exactly the per-column distinct values, and
        // their multiplicities, that the shared-values statistic is computed
        // from — also after a projection leaves a dictionary string ("NY")
        // that no row uses.
        let r = rel();
        let mut projected = r.project_rows(&[3, 2]);
        projected
            .append_rows(vec![vec![
                Value::Int(1),
                Value::Null,
                "CA".into(),
                Value::Float(-0.0),
            ]])
            .unwrap();
        for r in [r, projected] {
            let shared = SharedValues::of(&r);
            for col in 0..r.arity() {
                let reference = reference_counts(r.column(col));
                let counts: FxHashMap<ValueKey, usize> = shared.value_counts(col).collect();
                assert_eq!(counts, reference, "column {col}");
                assert_eq!(shared.distinct(col), reference.len(), "column {col}");
            }
        }
    }

    #[test]
    fn shared_values_cover_each_comparable_pair_once() {
        let r = rel();
        let shared = SharedValues::of(&r);
        // Zip, AltZip and Income are numeric; State is the only text column.
        let pairs: Vec<(usize, usize)> = shared.pairs().iter().map(|p| (p.left, p.right)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 3), (1, 3)]);
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    assert_eq!(
                        shared.fraction(a, b).to_bits(),
                        r.shared_value_fraction(a, b).to_bits(),
                        "({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn column_stats_summary() {
        let r = rel();
        let stats = column_stats(&r);
        assert_eq!(stats.len(), 4);
        assert_eq!(stats[0].distinct, 4);
        assert_eq!(stats[2].distinct, 2);
        assert_eq!(stats[2].min, None);
        assert_eq!(stats[3].min, Some(30.0));
        assert_eq!(stats[3].max, Some(60.0));
        assert_eq!(stats[0].nulls, 0);
    }
}
