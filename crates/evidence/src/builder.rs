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
//!   same operands are grouped into one comparison with precomputed word
//!   masks per outcome, and the `Sat`s are filled a row at a time.
//!
//! **Row fill.** [`RowFiller`] fills `Sat(t, j)` for one left row `t` and
//! every right row `j` into one flat word buffer: it copies `t`'s
//! `Same`-group words (bits that depend on `t` alone) into every slot, then
//! ORs in each `Other` group's outcome masks down the right column with
//! `t`'s operand fixed. Each group is matched once per row, not once per
//! pair. Outcomes are [`group_outcome`]'s: nulls and NaN satisfy nothing,
//! −0.0 equals 0.0. The same filler gives the delta builder
//! ([`crate::delta`]) its `Sat(i, j)` and `Sat(j, i)` rows, and debug builds
//! check every filled `Sat` against [`fill_pair`].
//!
//! **Slice interning.** [`SatCounts`] interns each filled word slice by
//! `&[u64]`, with no bitset allocated per pair, and counts multiplicities.
//! The distinct `Sat`s reach the accumulator once each, in first-occurrence
//! order, so the evidence set is the per-pair scan's, entry order included.
//! With `Vios` tracked, each pair credits its right tuple and each
//! (row, entry) credits the left tuple once with its row count.
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
#[derive(Debug, Clone)]
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

/// Reduce every column to comparison-friendly primitive codes, and return
/// the global text dictionary behind the [`ColumnCodes::Text`] codes.
///
/// Only strings that some row uses get a code: each text column remaps its
/// dictionary codes as its rows first use them, so a relation projected
/// from a larger one (whose dictionaries keep every string of the parent)
/// hashes only the strings it holds. Codes are numbered in first-use order,
/// columns in schema order and rows in order within a column, which makes
/// them comparable across columns.
pub(crate) fn column_codes(relation: &Relation) -> (Vec<ColumnCodes>, FxHashMap<&str, u32>) {
    let mut global: FxHashMap<&str, u32> = FxHashMap::default();
    let mut columns = Vec::with_capacity(relation.arity());
    for col in relation.columns() {
        columns.push(match col {
            Column::Int(v) => ColumnCodes::Numeric(v.iter().map(|x| x.map(|i| i as f64)).collect()),
            Column::Float(v) => ColumnCodes::Numeric(v.clone()),
            Column::Text { codes, dict } => {
                let mut remap: Vec<Option<u32>> = vec![None; dict.len()];
                let mut global_code = |c: u32| {
                    *remap[c as usize].get_or_insert_with(|| {
                        let next = global.len() as u32;
                        *global.entry(dict[c as usize].as_str()).or_insert(next)
                    })
                };
                ColumnCodes::Text(codes.iter().map(|c| c.map(&mut global_code)).collect())
            }
        });
    }
    (columns, global)
}

/// Assemble `Sat(t, t_prime)` into `buffer` (one `u64` word per 64 predicate
/// ids, zeroed by this function) using precomputed codes and group masks.
///
/// The per-pair kernel the sweep assembles its blocks with. The row fill of
/// [`RowFiller`] computes the same `Sat`s a row at a time, and debug builds
/// check each one against this.
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

/// Outcome index of a comparison that satisfies nothing (a null operand or
/// a NaN), the fourth column of every [`FillGroup`] mask table.
const NO_OUTCOME: usize = 3;

/// One structure group reduced for the row fill.
#[derive(Debug, Clone)]
struct FillGroup {
    left_col: usize,
    right_col: usize,
    /// `(word, masks)` for every `Sat` word the group writes; `masks` is
    /// indexed by outcome: `Less`, `Equal`, `Greater`, [`NO_OUTCOME`].
    words: Vec<(usize, [u64; 4])>,
}

impl FillGroup {
    fn new(g: &GroupMasks) -> Self {
        let mut words: Vec<(usize, [u64; 4])> = Vec::new();
        for (outcome, masks) in [&g.less, &g.equal, &g.greater].into_iter().enumerate() {
            for &(w, m) in masks {
                match words.iter_mut().find(|(word, _)| *word == w) {
                    Some((_, table)) => table[outcome] |= m,
                    None => {
                        let mut table = [0; 4];
                        table[outcome] = m;
                        words.push((w, table));
                    }
                }
            }
        }
        FillGroup {
            left_col: g.left_col,
            right_col: g.right_col,
            words,
        }
    }
}

/// `cmp(a, b)` as a [`FillGroup`] outcome index; NaN compares as nothing
/// and −0.0 equals 0.0, exactly as `f64::partial_cmp`.
#[inline]
fn numeric_outcome(a: f64, b: f64) -> usize {
    NO_OUTCOME - 3 * usize::from(a < b) - 2 * usize::from(a == b) - usize::from(a > b)
}

/// Text groups reuse `Equal` and `Greater` ("not equal").
#[inline]
fn text_outcome(a: u32, b: u32) -> usize {
    2 - usize::from(a == b)
}

/// OR the masks of each row's outcome into that row's `Sat` words
/// (`words` per row, rows back to back in `sats`).
#[inline]
fn or_outcomes(
    sats: &mut [u64],
    words: usize,
    table: &[(usize, [u64; 4])],
    outcomes: impl Iterator<Item = usize>,
) {
    match table {
        // The usual shape: all of a group's predicates share one word.
        [(_, masks)] if words == 1 => {
            for (word, k) in sats.iter_mut().zip(outcomes) {
                *word |= masks[k & 3];
            }
        }
        _ => {
            for (sat, k) in sats.chunks_exact_mut(words).zip(outcomes) {
                for (w, masks) in table {
                    sat[*w] |= masks[k & 3];
                }
            }
        }
    }
}

/// The column-at-a-time `Sat` fill shared by [`ClusterEvidenceBuilder`] and
/// the delta builder: one row's `Sat`s against every other row, one
/// structure group at a time down the other column.
#[derive(Debug, Clone)]
pub(crate) struct RowFiller {
    /// `TupleRole::Same` groups, whose bits depend on the pair's `t` alone.
    same: Vec<FillGroup>,
    /// `TupleRole::Other` groups.
    other: Vec<FillGroup>,
    words: usize,
    /// The space's structure groups, for the `fill_pair` reference debug
    /// builds check every filled `Sat` against.
    #[cfg(debug_assertions)]
    groups: Vec<GroupMasks>,
}

impl RowFiller {
    /// Reduce `space`'s groups for the fill over columns coded as `codes`. A
    /// group whose columns do not hold its comparison's kind of codes
    /// satisfies nothing on any pair (`group_outcome` answers `None`) and is
    /// dropped.
    pub(crate) fn new(space: &PredicateSpace, codes: &[ColumnCodes]) -> Self {
        let groups = group_masks(space);
        let live = groups.iter().filter(|g| {
            matches!(
                (g.numeric, &codes[g.left_col], &codes[g.right_col]),
                (true, ColumnCodes::Numeric(_), ColumnCodes::Numeric(_))
                    | (false, ColumnCodes::Text(_), ColumnCodes::Text(_))
            )
        });
        let (same, other): (Vec<&GroupMasks>, Vec<&GroupMasks>) =
            live.partition(|g| g.right_role == TupleRole::Same);
        RowFiller {
            same: same.into_iter().map(FillGroup::new).collect(),
            other: other.into_iter().map(FillGroup::new).collect(),
            words: space.len().div_ceil(64),
            #[cfg(debug_assertions)]
            groups,
        }
    }

    /// `u64` words per `Sat`.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Each of the first `rows` rows' `Same`-group words, one row after
    /// another.
    pub(crate) fn same_masks(&self, codes: &[ColumnCodes], rows: usize) -> Vec<u64> {
        let words = self.words;
        let mut same = vec![0u64; rows * words];
        for g in &self.same {
            match (&codes[g.left_col], &codes[g.right_col]) {
                (ColumnCodes::Numeric(l), ColumnCodes::Numeric(r)) => {
                    let outcomes = l[..rows].iter().zip(r).map(|pair| match pair {
                        (&Some(a), &Some(b)) => numeric_outcome(a, b),
                        _ => NO_OUTCOME,
                    });
                    or_outcomes(&mut same, words, &g.words, outcomes);
                }
                (ColumnCodes::Text(l), ColumnCodes::Text(r)) => {
                    let outcomes = l[..rows].iter().zip(r).map(|pair| match pair {
                        (&Some(a), &Some(b)) => text_outcome(a, b),
                        _ => NO_OUTCOME,
                    });
                    or_outcomes(&mut same, words, &g.words, outcomes);
                }
                _ => {}
            }
        }
        same
    }

    /// Fill `out` with `Sat(i, j)` for every `j < rows`, `words` words per
    /// `j`; `same` is [`RowFiller::same_masks`] over at least `rows` rows.
    /// Slot `j = i` is filled but meaningless.
    pub(crate) fn fill_left(
        &self,
        codes: &[ColumnCodes],
        same: &[u64],
        i: usize,
        rows: usize,
        out: &mut Vec<u64>,
    ) {
        let words = self.words;
        let own = &same[i * words..(i + 1) * words];
        out.clear();
        for _ in 0..rows {
            out.extend_from_slice(own);
        }
        for g in &self.other {
            match (&codes[g.left_col], &codes[g.right_col]) {
                (ColumnCodes::Numeric(l), ColumnCodes::Numeric(r)) => {
                    if let Some(a) = l[i] {
                        let outcomes = r[..rows]
                            .iter()
                            .map(|b| b.map_or(NO_OUTCOME, |b| numeric_outcome(a, b)));
                        or_outcomes(out, words, &g.words, outcomes);
                    }
                }
                (ColumnCodes::Text(l), ColumnCodes::Text(r)) => {
                    if let Some(a) = l[i] {
                        let outcomes = r[..rows]
                            .iter()
                            .map(|b| b.map_or(NO_OUTCOME, |b| text_outcome(a, b)));
                        or_outcomes(out, words, &g.words, outcomes);
                    }
                }
                _ => {}
            }
        }
        #[cfg(debug_assertions)]
        self.check(codes, out, |j| (i, j), i);
    }

    /// Fill `out` with `Sat(j, i)` for every `j < rows`, `words` words per
    /// `j`; `same` is [`RowFiller::same_masks`] over at least `rows` rows.
    /// Slot `j = i` is filled but meaningless.
    pub(crate) fn fill_right(
        &self,
        codes: &[ColumnCodes],
        same: &[u64],
        i: usize,
        rows: usize,
        out: &mut Vec<u64>,
    ) {
        let words = self.words;
        out.clear();
        out.extend_from_slice(&same[..rows * words]);
        for g in &self.other {
            match (&codes[g.left_col], &codes[g.right_col]) {
                (ColumnCodes::Numeric(l), ColumnCodes::Numeric(r)) => {
                    if let Some(b) = r[i] {
                        let outcomes = l[..rows]
                            .iter()
                            .map(|a| a.map_or(NO_OUTCOME, |a| numeric_outcome(a, b)));
                        or_outcomes(out, words, &g.words, outcomes);
                    }
                }
                (ColumnCodes::Text(l), ColumnCodes::Text(r)) => {
                    if let Some(b) = r[i] {
                        let outcomes = l[..rows]
                            .iter()
                            .map(|a| a.map_or(NO_OUTCOME, |a| text_outcome(a, b)));
                        or_outcomes(out, words, &g.words, outcomes);
                    }
                }
                _ => {}
            }
        }
        #[cfg(debug_assertions)]
        self.check(codes, out, |j| (j, i), i);
    }

    /// Debug check: every filled slot but `skip` equals `fill_pair` on the
    /// pair `pair(j)`.
    #[cfg(debug_assertions)]
    fn check(
        &self,
        codes: &[ColumnCodes],
        filled: &[u64],
        pair: impl Fn(usize) -> (usize, usize),
        skip: usize,
    ) {
        let mut expected = vec![0u64; self.words];
        for (j, sat) in filled.chunks_exact(self.words).enumerate() {
            if j != skip {
                let (t, t_prime) = pair(j);
                fill_pair(codes, &self.groups, t, t_prime, &mut expected);
                debug_assert_eq!(sat, expected, "row fill diverged on Sat({t}, {t_prime})");
            }
        }
    }
}

/// Distinct `Sat`s, interned by their words, in first-occurrence order with
/// their multiplicities.
#[derive(Debug, Default)]
pub(crate) struct SatCounts {
    index: FxHashMap<Vec<u64>, u32>,
    /// The distinct `Sat`s' words, back to back, in first-occurrence order.
    sats: Vec<u64>,
    counts: Vec<u64>,
}

impl SatCounts {
    /// Count one occurrence of `sat` and return its class: the number of
    /// distinct `Sat`s seen before its first occurrence.
    #[inline]
    pub(crate) fn push(&mut self, sat: &[u64]) -> u32 {
        match self.index.get(sat) {
            Some(&class) => {
                self.counts[class as usize] += 1;
                class
            }
            None => {
                let class = self.counts.len() as u32;
                self.index.insert(sat.to_vec(), class);
                self.sats.extend_from_slice(sat);
                self.counts.push(1);
                class
            }
        }
    }

    /// Number of distinct `Sat`s.
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// `(words, multiplicity)` of every distinct `Sat`, in class order.
    pub(crate) fn iter(&self, words: usize) -> impl Iterator<Item = (&[u64], u64)> {
        self.sats
            .chunks_exact(words)
            .zip(self.counts.iter().copied())
    }

    pub(crate) fn clear(&mut self) {
        self.index.clear();
        self.sats.clear();
        self.counts.clear();
    }
}

/// Optimised builder: integer codes, per-group outcome masks, a row-at-a-time
/// fill and slice interning (see the module docs).
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

        let (codes, _) = column_codes(relation);
        let filler = RowFiller::new(space, &codes);
        let words = filler.words();
        let same = filler.same_masks(&codes, n);
        let mut row = Vec::with_capacity(n * words);
        let mut sats = SatCounts::default();
        // Vios only: row `t`'s pair count per class, and the classes it hit.
        let mut row_counts: Vec<u32> = Vec::new();
        let mut row_classes: Vec<u32> = Vec::new();

        for t in 0..n {
            filler.fill_left(&codes, &same, t, n, &mut row);
            for (t_prime, sat) in row.chunks_exact(words).enumerate() {
                if t_prime == t {
                    continue;
                }
                let class = sats.push(sat);
                if let Some(v) = vios.as_mut() {
                    v.record_bulk(class as usize, t_prime as u32, 1);
                    if class as usize == row_counts.len() {
                        row_counts.push(0);
                    }
                    let count = &mut row_counts[class as usize];
                    if *count == 0 {
                        row_classes.push(class);
                    }
                    *count += 1;
                }
            }
            if let Some(v) = vios.as_mut() {
                for class in row_classes.drain(..) {
                    let count = std::mem::take(&mut row_counts[class as usize]);
                    v.record_bulk(class as usize, t as u32, count);
                }
            }
        }
        // Classes are numbered in first-occurrence order and the accumulator
        // starts empty, so class `c` becomes entry `c`: the `Vios` credits
        // above already sit on the right entries.
        for (class, (sat, count)) in sats.iter(words).enumerate() {
            let entry = acc.add_many(FixedBitSet::from_words(space.len(), sat), count);
            debug_assert_eq!(entry, class);
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
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

    /// One random cell: nulls everywhere, two NaN payloads and ±0.0 in float
    /// columns, and small domains shared across columns (so cross-column and
    /// Int/Float cross-type groups are generated and `Sat`s collide). Shared
    /// with `delta.rs`.
    pub(crate) fn edge_value(ty: AttributeType, rng: &mut StdRng) -> Value {
        if rng.gen_bool(0.15) {
            return Value::Null;
        }
        match ty {
            AttributeType::Text => ["a", "b", "c", "d"][rng.gen_range(0..4)].into(),
            AttributeType::Integer => Value::Int(rng.gen_range(-1..3)),
            AttributeType::Float => match rng.gen_range(0..7) {
                0 => Value::Float(f64::NAN),
                1 => Value::Float(f64::from_bits(f64::NAN.to_bits() | 1)),
                2 => Value::Float(-0.0),
                3 => Value::Float(0.0),
                4 => Value::Float(0.5),
                _ => Value::Int(rng.gen_range(-1..3)),
            },
        }
    }

    pub(crate) fn edge_row(schema: &Schema, rng: &mut StdRng) -> Vec<Value> {
        (0..schema.arity())
            .map(|c| edge_value(schema.attribute(c).ty(), rng))
            .collect()
    }

    /// `rows` edge rows whose text dictionaries also hold strings no row
    /// uses. The rows are drawn interleaved with spare rows that carry
    /// strings of their own, and `project_rows` keeps the edge rows in
    /// shuffled order. The last few kept rows go back in through
    /// `append_rows`, some of their text cells swapped for a spare string
    /// (one the dictionary holds but no row uses).
    fn relation_with_unused_strings(schema: &Schema, rows: usize, rng: &mut StdRng) -> Relation {
        let mut b = Relation::builder(schema.clone());
        let mut keep = Vec::with_capacity(rows);
        let mut spares = 0usize;
        for _ in 0..rows {
            while rng.gen_bool(0.3) {
                let spare = (0..schema.arity())
                    .map(|c| match schema.attribute(c).ty() {
                        AttributeType::Text => Value::from(format!("spare{spares}").as_str()),
                        ty => edge_value(ty, rng),
                    })
                    .collect();
                b.push_row(spare).unwrap();
                spares += 1;
            }
            keep.push(b.len());
            b.push_row(edge_row(schema, rng)).unwrap();
        }
        let full = b.build();
        keep.shuffle(rng);
        let appended = keep.split_off(keep.len() - rng.gen_range(0..=keep.len().min(4)));
        let mut r = full.project_rows(&keep);
        let appended = appended
            .into_iter()
            .map(|row| {
                let mut values = full.row(row);
                for (c, v) in values.iter_mut().enumerate() {
                    let text = schema.attribute(c).ty() == AttributeType::Text;
                    if text && spares > 0 && rng.gen_bool(0.3) {
                        *v = format!("spare{}", rng.gen_range(0..spares)).as_str().into();
                    }
                }
                values
            })
            .collect();
        r.append_rows(appended).unwrap();
        r
    }

    /// The per-pair cluster scan the row fill replaced, kept as its
    /// reference: one `fill_pair`, one accumulator `add` and one `Vios`
    /// `record_pair` per ordered pair, in row-major order.
    fn per_pair_reference(
        relation: &Relation,
        space: &PredicateSpace,
        track_vios: bool,
    ) -> Evidence {
        let n = relation.len();
        let mut acc = EvidenceAccumulator::new(space.len(), n);
        let mut vios = track_vios.then(|| Vios::new(0, n));
        if n > 0 && !space.is_empty() {
            let (codes, _) = column_codes(relation);
            let groups = group_masks(space);
            let mut buffer = vec![0u64; space.len().div_ceil(64)];
            for t in 0..n {
                for t_prime in (0..n).filter(|&t_prime| t_prime != t) {
                    fill_pair(&codes, &groups, t, t_prime, &mut buffer);
                    let entry = acc.add(FixedBitSet::from_words(space.len(), &buffer));
                    if let Some(v) = vios.as_mut() {
                        v.record_pair(entry, t as u32, t_prime as u32);
                    }
                }
            }
        }
        Evidence {
            evidence_set: acc.finish(),
            vios,
        }
    }

    proptest! {
        /// The row fill with slice interning is the per-pair scan it
        /// replaced: the same evidence set, entry order included, and the
        /// same `Vios`, on relations with nulls, two NaN payloads, ±0.0,
        /// Int/Float cross-type pairs, cross-column and `Same`-role groups,
        /// one- and multi-word `Sat`s and unused dictionary strings, under
        /// the default, the same-column-only and a random space config.
        #[test]
        fn cluster_matches_the_per_pair_reference(
            seed in any::<u64>(),
            rows in 0usize..131,
            wide in any::<bool>(),
            config in 0usize..3,
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
            let relation = relation_with_unused_strings(&schema, rows, &mut rng);
            let config = match config {
                0 => SpaceConfig::default(),
                1 => SpaceConfig::same_column_only(),
                _ => SpaceConfig {
                    min_shared_fraction: rng.gen_range(0.0..1.0),
                    cross_column_cross_tuple: rng.gen_bool(0.5),
                    single_tuple: rng.gen_bool(0.5),
                },
            };
            let space = PredicateSpace::build(&relation, config);
            for track_vios in [false, true] {
                prop_assert_eq!(
                    ClusterEvidenceBuilder.build(&relation, &space, track_vios),
                    per_pair_reference(&relation, &space, track_vios)
                );
            }
        }
    }

    #[test]
    fn the_reference_relations_reach_multi_word_sats_and_unused_strings() {
        let schema = Schema::of(&[
            ("S", AttributeType::Text),
            ("T", AttributeType::Text),
            ("I", AttributeType::Integer),
            ("F", AttributeType::Float),
            ("J", AttributeType::Integer),
            ("G", AttributeType::Float),
        ]);
        let r = relation_with_unused_strings(&schema, 40, &mut StdRng::seed_from_u64(3));
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        assert!(space.len() > 64, "{} predicates", space.len());
        let dictionary_strings: usize = r.columns().iter().map(|c| c.dictionary().len()).sum();
        assert!(column_codes(&r).1.len() < dictionary_strings);
    }

    #[test]
    fn column_codes_number_only_the_strings_rows_use() {
        // Julia, Jimmy and Sam: "Alice", "Mark" and "NY" stay in the
        // projected dictionaries without a row that uses them.
        let r = small_relation().project_rows(&[4, 2, 3]);
        let (codes, dictionary) = column_codes(&r);
        let mut strings: Vec<(&str, u32)> = dictionary.into_iter().collect();
        strings.sort_unstable_by_key(|&(_, code)| code);
        assert_eq!(strings, [("Sam", 0), ("Julia", 1), ("Jimmy", 2), ("WA", 3)]);
        let ColumnCodes::Text(names) = &codes[0] else {
            panic!("Name is a text column")
        };
        assert_eq!(names, &[Some(0), Some(1), Some(2)]);
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
