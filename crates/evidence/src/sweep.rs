//! The parallel sort/PLI sweep evidence kernel.
//!
//! The pairwise kernels ([`crate::ClusterEvidenceBuilder`] and
//! [`crate::NaiveEvidenceBuilder`]) materialise `Sat(t, t′)` once per ordered tuple pair — `n·(n−1)`
//! evidence assemblies no matter how redundant the relation is. This module
//! exploits the two redundancies real relations have:
//!
//! 1. **Row duplication (PLI/hash grouping).** Rows are grouped into
//!    *classes* of identical [`column_codes`](crate::builder) vectors. Two
//!    rows of the same class are indistinguishable to every predicate, so
//!    one representative pair stands in for the whole class pair and
//!    contributes a closed-form count: `kᵢ·kⱼ` ordered pairs across classes
//!    `i ≠ j`, and `k·(k−1)` within a class (the diagonal).
//! 2. **Outcome coherence (region sweep).** Fix a left class `i`. For every
//!    structure group, the comparison outcome against a right class `j`
//!    depends only on where `j`'s code falls relative to `i`'s value in the
//!    group's right column — sorted by that column, the outcome is constant
//!    on contiguous *Gt / Eq / Lt* runs (order groups) or *Eq / Neq* runs
//!    (text groups), plus a trailing null run.
//!
//! # Sub-quadratic refinement: order families and interval events
//!
//! Earlier revisions of this kernel refined the classes with a per-class
//! token scan — `O(m)` work per left class per active column, `O(m²)` total
//! in the class count `m`, so class-incompressible datasets stayed
//! quadratic. The sweep now sorts each column's class codes **once** up
//! front and groups columns into **order families**: columns whose sorted
//! class permutation is identical share one `order`/`rank`/`prefix`-sum
//! triple. Per left class, each cross-tuple group locates its *region
//! boundaries* (`lb`/`ub` of the left value, plus the null boundary) by
//! binary search over the right column's sorted codes — `O(log m)` instead
//! of `O(m)` — and contributes at most three *events* (positions where its
//! outcome changes).
//!
//! * **Interval fast path.** When every event-bearing group lives in a
//!   single order family, the merged event positions partition the family's
//!   rank space into intervals of constant `Sat`. Interval weights come
//!   from the family's prefix sums, the diagonal interval is the one
//!   containing `rank[i]`, and the evidence bitset is maintained
//!   **incrementally**: one `fill_pair` seeds the buffer at rank 0, and
//!   each boundary clears the crossing groups' old outcome masks and sets
//!   the new ones — word-at-a-time mask surgery, no per-predicate branches.
//!   Per-class cost is `O(groups·log m + events·log events)`, collapsing
//!   the all-distinct worst case from `m·(m−1)` toward `O(m log m)` total.
//! * **Hosted text columns.** A null-free text column whose label blocks
//!   are *contiguous* along an existing family's order (a band-structured
//!   key: each label owns a disjoint numeric range, as Stock's ticker does
//!   over its price columns) is **hosted** on that family instead of
//!   fragmenting into a family of its own: its per-label rank runs are
//!   recorded at plan time, and a left label's equality region becomes an
//!   ordinary `lb`/`ub` interval of the host — no extra family, no
//!   fallback.
//! * **Two-family rectangle path.** When the planned groups' right columns
//!   span exactly **two** families globally (and vios are not tracked),
//!   the plan builds one succinct wavelet matrix over the weight-expanded
//!   cross-order permutation σ (family-A position ↦ family-B position).
//!   Per left class whose events span both families, the events cut each
//!   family's rank space into a handful of segments; every refined block
//!   is then an (A-segment × B-segment) *rectangle*, whose row weight is
//!   one `O(log n)` wavelet range-count — never a scan over the classes.
//!   The cell bitset is assembled as `base | A-part | B-part`: one
//!   `fill_pair` seed minus the evented groups' outcomes, OR-ed with
//!   per-segment outcome masks precomputed per side. This is what carries
//!   class-incompressible two-family datasets (Stock at 10⁶ rows) in
//!   seconds.
//! * **Rank-token fallback.** When event-bearing groups span three or more
//!   families (columns sorted in genuinely different orders), the classes
//!   are refined by per-column rank tokens (`O(m)` per *active* column —
//!   only columns that actually produced events) and one bitset is
//!   assembled per refined block, exactly as before. [`SweepStats`] reports
//!   how many classes took each path.
//!
//! Refining to intervals can split one equal-`Sat` region into several
//! (e.g. the two `Neq` flanks of a text equality), which is canonically
//! invisible: the accumulator interns by bitset and merges the closed-form
//! counts, so only `materializations` grows slightly.
//!
//! # Parallel sweep
//!
//! This is the workspace's one multi-threaded evidence kernel. Per-left-class
//! work is embarrassingly parallel. Workers pull contiguous *chunks* of left
//! classes from a [`ChunkSource`] — a shared atomic counter in production,
//! so chunks over skewed classes balance dynamically — each filling its own
//! [`EvidenceAccumulator`] + optional [`Vios`] shard with a reused flat
//! scratch.
//!
//! ## Deterministic merge
//!
//! A single-threaded sweep interns entries in first-encounter order while
//! visiting left classes `0..m`. To reproduce that order *exactly*, the
//! shards are merged **in ascending chunk order** after all workers finish,
//! whatever order they arrived in: [`EvidenceAccumulator::merge_set`]
//! appends each shard's entries in the shard's own first-encounter order
//! (keeping the existing index when the set was already seen), and the
//! returned index mapping re-targets the shard's violation counts via
//! [`Vios::merge_mapped`]. Ascending-chunk concatenation replays the class
//! order a sequential scan would visit, so the output is **bit-for-bit
//! identical for any thread count, chunk size and schedule** — same entry
//! order, same counts, same vios — by construction, not by accident of
//! scheduling. [`SweepEvidenceBuilder::build_scheduled`] replays chosen
//! schedules and shuffled arrival orders through the same merge, and
//! `crates/evidence/tests/schedule_audit.rs` checks every ≤3-worker
//! schedule of a small input against the single-threaded build. Work
//! counters are order-independent sums.
//!
//! # Output contract
//!
//! The produced evidence is **canonically equal** to the sequential
//! builder's: same entry set, same multiplicities, same total pairs, same
//! `Vios` content. Only the first-encounter entry *order* differs (the sweep
//! interns per left class and interval, not per row-major pair); comparing
//! kernels therefore goes through [`crate::Evidence::canonicalize`], which
//! sorts entries into a builder-independent order. The incremental mask
//! assembly is checked against a fresh `fill_pair` at every interval in
//! debug builds, so the sweep cannot disagree with the pairwise kernels
//! about any individual evidence bitset — only the partition arithmetic
//! (event refinement and closed-form counts) is new.
//!
//! # Vios
//!
//! The per-tuple violation index is inherently pair-proportional: every
//! member tuple of every class pair must be credited. When `track_vios` is
//! requested the sweep still avoids materialising pairs (it credits each
//! tuple with closed-form counts per interval), but it does touch every
//! (left class, member) combination — `O(classes · rows)` work, against
//! `O(intervals)` without vios. The miner only requests vios for the
//! `f2`/`f3` approximation functions. The rectangle path is likewise only
//! planned when vios are off (its cells have no per-class member walk to
//! piggyback on); tracked builds keep the interval/fallback paths, whose
//! outputs are canonically identical. Even so, the vios-on sweep beats the
//! sequential cluster kernel with vios on in every cell of
//! `BENCH_kernels.json` (2 threads, 2-core VM): 2.0×–6.0× at 10³ rows and
//! 8.5×–108× at 10⁴ rows (Stock 4.26 s against 36.2 s, Hospital 7.81 s
//! against 67.5 s, Adult 0.68 s against 73.2 s). Vios still cost: Stock at
//! 10⁴ rows takes 0.08 s without them and 4.26 s with them, because it
//! loses the rectangle path.

#![doc = "conformance: ordered-output"]

use crate::builder::{column_codes, fill_pair, group_masks, ColumnCodes, GroupMasks};
use crate::evidence::EvidenceAccumulator;
use crate::sync::{shuffle_arrival, AtomicChunkSource, ChunkSource, Schedule, ScriptedChunkSource};
use crate::vios::Vios;
use crate::wavelet::WaveletMatrix;
use crate::{Evidence, EvidenceBuilder, EvidenceSet};
use adc_data::fx::FxHashMap;
use adc_data::{FixedBitSet, Relation};
use adc_predicates::{PredicateSpace, TupleRole};
use std::cmp::Ordering;
use std::thread;

/// Work counters of one sweep build, for benchmark reports and the
/// kernel-comparison CI smoke.
///
/// All counters are order-independent sums, so a parallel build reports
/// exactly the same stats as a sequential one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Rows of the relation (`n`).
    pub rows: usize,
    /// Distinct row classes after PLI/hash grouping (`m`).
    pub classes: usize,
    /// Evidence assemblies actually performed (`Σᵢ intervalsᵢ` or
    /// `Σᵢ blocksᵢ`): the sweep's *pair-equivalent work* — the number of
    /// `Sat` materialisation + interning operations, which a pairwise
    /// kernel performs `n·(n−1)` times.
    pub materializations: u64,
    /// Refinement work: binary-search region locations, boundary events,
    /// and intervals on the fast path; `m` per active column on the
    /// fallback path. This is the counter the sub-quadratic acceptance
    /// check measures against `class_grid`.
    pub refine_steps: u64,
    /// Left classes refined on the single-family interval fast path.
    pub interval_classes: u64,
    /// Left classes refined on the two-family rectangle path (wavelet
    /// range-count queries instead of a class scan).
    pub pair_classes: u64,
    /// Left classes refined on the multi-family rank-token fallback.
    pub fallback_classes: u64,
    /// Ordered class-grid size `m·(m−1)`: the quadratic bound the interval
    /// path undercuts, and the pair count a pairwise kernel over class
    /// representatives would still have to materialise.
    pub class_grid: u64,
    /// Ordered pair count `n·(n−1)` a pairwise kernel scans.
    pub pairwise_pairs: u64,
}

impl SweepStats {
    /// How many times fewer evidence materialisations the sweep performed
    /// than a pairwise kernel (`n·(n−1) / materializations`). Always
    /// finite: degenerate builds (empty relation, zero work) report `1.0`
    /// or the raw pair count, never `NaN`/`inf`, so JSON bench reports
    /// stay machine-readable.
    pub fn materialization_ratio(&self) -> f64 {
        ratio(self.pairwise_pairs, self.materializations)
    }

    /// How many times smaller the class grid is than the pair grid
    /// (`n·(n−1) / (m·(m−1))`) — the closed-form win from row duplication
    /// alone. Always finite (see [`Self::materialization_ratio`]).
    pub fn grid_ratio(&self) -> f64 {
        ratio(self.pairwise_pairs, self.class_grid)
    }

    /// Fold another build's work counters into this one (shard merge).
    fn absorb_work(&mut self, other: &SweepStats) {
        self.materializations += other.materializations;
        self.refine_steps += other.refine_steps;
        self.interval_classes += other.interval_classes;
        self.pair_classes += other.pair_classes;
        self.fallback_classes += other.fallback_classes;
    }
}

/// `pairs / work`, clamped to stay finite on degenerate inputs: an empty
/// build reports `1.0` (no speedup, no penalty) and a zero-work build with
/// pairs reports the raw pair count instead of `inf`.
fn ratio(pairs: u64, work: u64) -> f64 {
    if pairs == 0 && work == 0 {
        1.0
    } else {
        pairs as f64 / work.max(1) as f64
    }
}

/// Parallel sub-quadratic sort/PLI sweep builder (see the module docs).
///
/// Output is canonically equal to the sequential cluster kernel and
/// **bit-for-bit identical across every `{threads, chunk_classes}` shape**,
/// so thread count is purely a wall-clock knob.
///
/// ```
/// use adc_evidence::{ClusterEvidenceBuilder, EvidenceBuilder, SweepEvidenceBuilder};
/// # use adc_data::{AttributeType, Relation, Schema, Value};
/// # use adc_predicates::{PredicateSpace, SpaceConfig};
/// # let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Integer)]);
/// # let mut b = Relation::builder(schema);
/// # for i in 0..20i64 { b.push_row(vec![Value::Int(i % 4), Value::Int(i % 3)]).unwrap(); }
/// # let relation = b.build();
/// # let space = PredicateSpace::build(&relation, SpaceConfig::default());
/// let sweep = SweepEvidenceBuilder::new(4).build(&relation, &space, true);
/// let sequential = ClusterEvidenceBuilder.build(&relation, &space, true);
/// assert_eq!(sweep.canonicalized(), sequential.canonicalized());
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SweepEvidenceBuilder {
    /// Worker thread count; `0` uses [`std::thread::available_parallelism`].
    pub threads: usize,
    /// Left classes per work chunk; `0` picks a size yielding ~4 chunks per
    /// thread so the dynamic scheduler can absorb per-class cost skew.
    pub chunk_classes: usize,
}

impl SweepEvidenceBuilder {
    /// Builder with the given thread count (`0` = all available cores) and
    /// automatic chunk sizing.
    pub fn new(threads: usize) -> Self {
        SweepEvidenceBuilder {
            threads,
            chunk_classes: 0,
        }
    }

    /// Override the number of left classes per work chunk.
    pub fn with_chunk_classes(mut self, chunk_classes: usize) -> Self {
        self.chunk_classes = chunk_classes;
        self
    }

    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            thread::available_parallelism().map_or(1, |p| p.get())
        }
    }

    /// Chunk height: explicit override, or enough chunks for ~4 work units
    /// per thread.
    fn resolved_chunk_classes(&self, m: usize, threads: usize) -> usize {
        if self.chunk_classes > 0 {
            self.chunk_classes
        } else {
            m.div_ceil(threads * 4).max(1)
        }
    }
}

/// Null sentinel in the per-class per-column code table. Safe because parsed
/// values are never NaN (see `adc_data::Value`), and a true NaN would
/// produce the same all-`None` outcomes as a null anyway.
const NULL_CODE: f64 = f64::NAN;

/// One cross-tuple structure group surviving the type-compatibility plan;
/// indexes into [`SweepPlan::groups`].
#[derive(Clone, Copy)]
struct PlannedGroup {
    group: u32,
}

/// Shared sort structure of all columns whose class codes sort into the
/// same permutation.
struct Family {
    /// Class ids sorted by (code, class id); null classes appended in class
    /// id order.
    order: Vec<u32>,
    /// Inverse permutation: `rank[class] = position in order`.
    rank: Vec<u32>,
    /// `prefix[p]` = total row weight of `order[..p]`; length `m + 1`.
    prefix: Vec<u64>,
}

/// Per-column view onto its [`Family`]: the sorted non-null codes used for
/// the boundary binary searches, plus where the null run starts.
struct ColumnOrder {
    family: usize,
    /// Class codes in family order, nulls excluded (length `null_start`).
    /// Empty for hosted text columns (see `runs`).
    sorted_codes: Vec<f64>,
    null_start: u32,
    /// *Hosted text column*: `runs[label] = (start, end)` rank interval of
    /// the label's classes in the **host family's** order. Present when the
    /// column is text, null-free, and its label blocks are contiguous along
    /// an existing family's order — its equality events then live in the
    /// host family instead of fragmenting into a family of their own.
    /// Labels absent from the column map to the empty run `(0, 0)`.
    runs: Option<Vec<(u32, u32)>>,
}

/// The global two-family rectangle plan: built when the planned groups'
/// right columns span **exactly two** order families (and vios are not
/// tracked). `sigma` maps each *weight-expanded* position of family `a`'s
/// order to the corresponding expanded position in family `b`'s order, so a
/// rectangle weight is one wavelet range-count query.
struct PairPlan {
    fam_a: usize,
    fam_b: usize,
    sigma: WaveletMatrix,
}

/// Everything the per-class workers share read-only: codes, masks, the PLI
/// grouping, per-column sort structure, and the planned cross groups.
struct SweepPlan {
    m: usize,
    space_len: usize,
    track_vios: bool,
    codes: Vec<ColumnCodes>,
    groups: Vec<GroupMasks>,
    /// First row of each class.
    rep: Vec<u32>,
    /// Class sizes `k`.
    weight: Vec<u64>,
    /// Class member rows (populated only when `track_vios`).
    members: Vec<Vec<u32>>,
    /// `cls_codes[c][j]` = class `j`'s code in column `c` (`NULL_CODE` = null).
    cls_codes: Vec<Vec<f64>>,
    cols: Vec<ColumnOrder>,
    families: Vec<Family>,
    planned: Vec<PlannedGroup>,
    pair: Option<PairPlan>,
}

impl SweepPlan {
    /// Group rows into classes, sort every column's class codes, deduplicate
    /// the sort permutations into order families, and plan the cross-tuple
    /// groups. Everything here is done once per build and shared read-only
    /// by all workers.
    fn prepare(relation: &Relation, space: &PredicateSpace, track_vios: bool) -> SweepPlan {
        let n = relation.len();
        let codes = column_codes(relation);
        let groups = group_masks(space);
        let num_cols = codes.len();

        // ── 1. PLI/hash grouping: rows → classes of identical code vectors.
        let mut class_of_key: FxHashMap<Vec<u64>, u32> = FxHashMap::default();
        let mut rep: Vec<u32> = Vec::new();
        let mut weight: Vec<u64> = Vec::new();
        let mut class_of_row: Vec<u32> = Vec::with_capacity(n);
        let mut key = Vec::with_capacity(num_cols);
        for t in 0..n {
            key.clear();
            for col in &codes {
                key.push(match col {
                    // Normalise -0.0 to 0.0 so rows that compare equal on
                    // every predicate land in the same class.
                    ColumnCodes::Numeric(v) => v[t]
                        .map(|f| (if f == 0.0 { 0.0f64 } else { f }).to_bits())
                        .unwrap_or(u64::MAX),
                    ColumnCodes::Text(v) => v[t].map(|c| c as u64).unwrap_or(u64::MAX),
                });
            }
            let class = match class_of_key.get(key.as_slice()) {
                Some(&c) => {
                    weight[c as usize] += 1;
                    c
                }
                None => {
                    let c = rep.len() as u32;
                    class_of_key.insert(key.clone(), c);
                    rep.push(t as u32);
                    weight.push(1);
                    c
                }
            };
            class_of_row.push(class);
        }
        let m = rep.len();
        // Class members, needed only for the pair-proportional vios credits.
        let members: Vec<Vec<u32>> = if track_vios {
            let mut members = vec![Vec::new(); m];
            for (t, &c) in class_of_row.iter().enumerate() {
                members[c as usize].push(t as u32);
            }
            members
        } else {
            Vec::new()
        };

        // ── 2. Per-class column codes; text dictionary codes are u32 and
        // therefore exact as f64.
        let col_is_text: Vec<bool> = codes
            .iter()
            .map(|c| matches!(c, ColumnCodes::Text(_)))
            .collect();
        let cls_codes: Vec<Vec<f64>> = codes
            .iter()
            .map(|col| {
                rep.iter()
                    .map(|&r| match col {
                        ColumnCodes::Numeric(v) => v[r as usize].unwrap_or(NULL_CODE),
                        ColumnCodes::Text(v) => {
                            v[r as usize].map(|c| c as f64).unwrap_or(NULL_CODE)
                        }
                    })
                    .collect()
            })
            .collect();

        // ── 3. One sort per column, deduplicated into order families.
        // Ties break by class id and nulls sort last (by class id), so the
        // permutation — and with it the whole sweep — is deterministic.
        //
        // Two passes: numeric columns first (they create the candidate
        // families), then text columns. A null-free text column whose label
        // blocks are *contiguous* along an existing family's order is
        // **hosted** there — its equality events become rank intervals of
        // the host family instead of fragmenting into a family of its own,
        // which is what lets band-structured relations (a text key whose
        // groups own disjoint numeric ranges) stay on the interval or
        // rectangle path.
        let mut family_of_order: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        let mut families: Vec<Family> = Vec::new();
        let mut cols: Vec<ColumnOrder> = Vec::with_capacity(num_cols);
        let add_family = |order: Vec<u32>,
                          families: &mut Vec<Family>,
                          family_of_order: &mut FxHashMap<Vec<u32>, usize>|
         -> usize {
            match family_of_order.get(order.as_slice()) {
                Some(&f) => f,
                None => {
                    let mut rank = vec![0u32; m];
                    for (p, &j) in order.iter().enumerate() {
                        rank[j as usize] = p as u32;
                    }
                    let mut prefix = Vec::with_capacity(m + 1);
                    let mut acc = 0u64;
                    prefix.push(0);
                    for &j in &order {
                        acc += weight[j as usize];
                        prefix.push(acc);
                    }
                    family_of_order.insert(order.clone(), families.len());
                    families.push(Family {
                        order,
                        rank,
                        prefix,
                    });
                    families.len() - 1
                }
            }
        };
        let sorted_order = |col: &[f64]| -> Vec<u32> {
            let mut order: Vec<u32> = (0..m as u32).collect();
            order.sort_by(|&a, &b| {
                let (ca, cb) = (col[a as usize], col[b as usize]);
                match (ca.is_nan(), cb.is_nan()) {
                    (true, true) => a.cmp(&b),
                    (true, false) => Ordering::Greater,
                    (false, true) => Ordering::Less,
                    // conformance: allow(panic) — both sides were just checked non-NaN, so partial_cmp is total here
                    (false, false) => ca.partial_cmp(&cb).expect("non-NaN codes").then(a.cmp(&b)),
                }
            });
            order
        };
        let mut col_slots: Vec<Option<ColumnOrder>> = (0..num_cols).map(|_| None).collect();
        for c in 0..num_cols {
            if col_is_text[c] {
                continue;
            }
            let col = &cls_codes[c];
            let order = sorted_order(col);
            let null_start = order
                .iter()
                .position(|&j| col[j as usize].is_nan())
                .unwrap_or(m) as u32;
            let sorted_codes: Vec<f64> = order[..null_start as usize]
                .iter()
                .map(|&j| col[j as usize])
                .collect();
            let family = add_family(order, &mut families, &mut family_of_order);
            col_slots[c] = Some(ColumnOrder {
                family,
                sorted_codes,
                null_start,
                runs: None,
            });
        }
        for c in 0..num_cols {
            if !col_is_text[c] {
                continue;
            }
            let col = &cls_codes[c];
            let null_free = col.iter().all(|v| !v.is_nan());
            let hosted = if null_free {
                // Try each existing family in creation order; the first
                // whose order keeps every label in one contiguous run hosts
                // the column (deterministic).
                families.iter().enumerate().find_map(|(f, fam)| {
                    let mut runs: Vec<(u32, u32)> = Vec::new();
                    let mut prev: Option<usize> = None;
                    for (p, &j) in fam.order.iter().enumerate() {
                        let label = col[j as usize] as usize;
                        if prev == Some(label) {
                            runs[label].1 = p as u32 + 1;
                            continue;
                        }
                        if runs.len() <= label {
                            runs.resize(label + 1, (0, 0));
                        }
                        // `(0, 0)` is the unseen sentinel (a real run always
                        // has `end > start ≥ 0`, so `(0, p)` with `p ≥ 1`
                        // never collides with it).
                        if runs[label] != (0, 0) {
                            return None; // label resurfaced: not contiguous
                        }
                        runs[label] = (p as u32, p as u32 + 1);
                        prev = Some(label);
                    }
                    Some((f, runs))
                })
            } else {
                None
            };
            col_slots[c] = Some(match hosted {
                Some((family, runs)) => ColumnOrder {
                    family,
                    sorted_codes: Vec::new(),
                    null_start: m as u32,
                    runs: Some(runs),
                },
                None => {
                    let order = sorted_order(col);
                    let null_start = order
                        .iter()
                        .position(|&j| col[j as usize].is_nan())
                        .unwrap_or(m) as u32;
                    let sorted_codes: Vec<f64> = order[..null_start as usize]
                        .iter()
                        .map(|&j| col[j as usize])
                        .collect();
                    let family = add_family(order, &mut families, &mut family_of_order);
                    ColumnOrder {
                        family,
                        sorted_codes,
                        null_start,
                        runs: None,
                    }
                }
            });
        }
        cols.extend(
            col_slots
                .into_iter()
                // conformance: allow(panic) — the planning loop above fills one slot per column unconditionally
                .map(|s| s.expect("every column planned")),
        );

        // ── 4. Plan the cross-tuple groups. Groups whose operand types
        // cannot produce an outcome are dropped (they satisfy nothing for
        // any pair, exactly as in `fill_pair`); single-tuple groups depend
        // on the left row only and are covered by the representative fills.
        let mut planned: Vec<PlannedGroup> = Vec::new();
        for (g_idx, g) in groups.iter().enumerate() {
            if g.right_role != TupleRole::Other {
                continue;
            }
            let types_match = if g.numeric {
                !col_is_text[g.left_col] && !col_is_text[g.right_col]
            } else {
                col_is_text[g.left_col] && col_is_text[g.right_col]
            };
            if types_match {
                planned.push(PlannedGroup {
                    group: g_idx as u32,
                });
            }
        }

        // ── 5. Two-family rectangle plan. When the planned groups' right
        // columns span exactly two order families, every multi-family class
        // can be refined by (A-interval × B-interval) rectangle weights:
        // build the weight-expanded cross-order permutation `σ` once and
        // answer each rectangle with an `O(log n)` wavelet count. The vios
        // path is pair-proportional anyway and keeps the token fallback.
        let pair = if !track_vios {
            let mut fams: Vec<usize> = planned
                .iter()
                .map(|pg| cols[groups[pg.group as usize].right_col].family)
                .collect();
            fams.sort_unstable();
            fams.dedup();
            if let [fam_a, fam_b] = fams[..] {
                let (a, b) = (&families[fam_a], &families[fam_b]);
                debug_assert!(n <= u32::MAX as usize, "expanded positions must fit u32");
                let mut sigma = Vec::with_capacity(n);
                for &j in &a.order {
                    let start = b.prefix[b.rank[j as usize] as usize];
                    for k in 0..weight[j as usize] {
                        sigma.push((start + k) as u32);
                    }
                }
                Some(PairPlan {
                    fam_a,
                    fam_b,
                    sigma: WaveletMatrix::new(sigma, n.saturating_sub(1) as u32),
                })
            } else {
                None
            }
        } else {
            None
        };

        SweepPlan {
            m,
            space_len: space.len(),
            track_vios,
            codes,
            groups,
            rep,
            weight,
            members,
            cls_codes,
            cols,
            families,
            planned,
            pair,
        }
    }
}

/// One cross-tuple group's region boundaries for the current left class,
/// expressed as rank positions in the right column's family order:
/// `[0, lb)` codes below the left value, `[lb, ub)` equal, `[ub,
/// null_start)` above, `[null_start, m)` null.
#[derive(Clone, Copy)]
struct LiveGroup {
    group: u32,
    lb: u32,
    ub: u32,
    null_start: u32,
    text: bool,
    /// Order family of the group's right column (hosted text columns carry
    /// their host family).
    family: u32,
    /// Whether this group produced interior outcome-change events for the
    /// current left class; event-free groups are constant across all ranks.
    evented: bool,
}

impl LiveGroup {
    /// Comparison outcome (left value vs the class at rank `p`), matching
    /// [`crate::builder::group_outcome`] by construction: a right code
    /// below the left value means the *left* operand is greater.
    fn classify(&self, p: u32) -> Option<Ordering> {
        if p >= self.null_start {
            return None;
        }
        if self.text {
            if self.lb <= p && p < self.ub {
                Some(Ordering::Equal)
            } else {
                Some(Ordering::Greater) // text "not equal" channel
            }
        } else if p < self.lb {
            Some(Ordering::Greater)
        } else if p < self.ub {
            Some(Ordering::Equal)
        } else {
            Some(Ordering::Less)
        }
    }
}

/// Set (`set = true`) or clear one group's outcome masks in the evidence
/// buffer. Each predicate belongs to exactly one group, so clearing a
/// group's old outcome then setting its new one touches no other group's
/// bits; within the group, clear-before-set handles predicates whose bit
/// appears in both outcomes (e.g. `≤` spans Less and Equal).
fn apply_masks(buffer: &mut [u64], g: &GroupMasks, outcome: Option<Ordering>, set: bool) {
    let masks = outcome_masks(g, outcome);
    if set {
        for &(w, mask) in masks {
            buffer[w] |= mask;
        }
    } else {
        for &(w, mask) in masks {
            buffer[w] &= !mask;
        }
    }
}

/// The `(word, mask)` pairs one group contributes for an outcome (empty for
/// the null outcome — null pairs satisfy none of the group's predicates).
fn outcome_masks(g: &GroupMasks, outcome: Option<Ordering>) -> &[(usize, u64)] {
    match outcome {
        Some(Ordering::Less) => &g.less,
        Some(Ordering::Equal) => &g.equal,
        Some(Ordering::Greater) => &g.greater,
        None => &[],
    }
}

/// One constant-`Sat` rank interval of the fast path, kept only for the
/// vios credit pass.
struct Interval {
    start: u32,
    end: u32,
    entry: Option<usize>,
    diag: bool,
}

/// Flat per-worker scratch, allocated once and reused across all of the
/// worker's left classes (no per-class allocation on the hot path).
struct Scratch {
    buffer: Vec<u64>,
    #[cfg(debug_assertions)]
    check: Vec<u64>,
    live: Vec<LiveGroup>,
    /// `(rank position, index into live)` outcome-change events.
    events: Vec<(u32, u32)>,
    intervals: Vec<Interval>,
    labels: Vec<u32>,
    table: Vec<u32>,
    col_bounds: Vec<Vec<u32>>,
    active_cols: Vec<usize>,
    block_first: Vec<u32>,
    block_weight: Vec<u64>,
    block_entry: Vec<Option<usize>>,
    /// Rectangle-path segment boundaries per side (`0, cuts…, m`).
    segs_a: Vec<u32>,
    segs_b: Vec<u32>,
    /// Rectangle-path per-segment OR masks (`segments × words`).
    parts_a: Vec<u64>,
    parts_b: Vec<u64>,
    /// Rectangle-path per-cell bitset assembly buffer.
    cell: Vec<u64>,
}

impl Scratch {
    fn new(plan: &SweepPlan) -> Scratch {
        let words = plan.space_len.div_ceil(64);
        Scratch {
            buffer: vec![0u64; words],
            #[cfg(debug_assertions)]
            check: vec![0u64; words],
            live: Vec::new(),
            events: Vec::new(),
            intervals: Vec::new(),
            labels: vec![0; plan.m],
            table: Vec::new(),
            col_bounds: vec![Vec::new(); plan.cols.len()],
            active_cols: Vec::new(),
            block_first: Vec::new(),
            block_weight: Vec::new(),
            block_entry: Vec::new(),
            segs_a: Vec::new(),
            segs_b: Vec::new(),
            parts_a: Vec::new(),
            parts_b: Vec::new(),
            cell: vec![0u64; words],
        }
    }
}

/// Process one left class: locate every planned group's region boundaries
/// by binary search, then intern one evidence bitset per constant-`Sat`
/// interval (single-family fast path) or per rank-token block
/// (multi-family fallback), with closed-form pair counts.
fn process_class(
    plan: &SweepPlan,
    i: usize,
    acc: &mut EvidenceAccumulator,
    vios: Option<&mut Vios>,
    scratch: &mut Scratch,
    stats: &mut SweepStats,
) {
    let m = plan.m;
    let m_u32 = m as u32;
    let k_i = plan.weight[i];

    // ── Boundary location: per planned group, binary-search the left
    // value into the right column's sorted codes and emit the interior
    // outcome-change events. Groups with a null left operand are `None`
    // everywhere; groups without interior events are constant across all
    // classes — both are fully covered by the representative fills.
    scratch.live.clear();
    scratch.events.clear();
    let mut fam_a: Option<usize> = None;
    let mut fam_b: Option<usize> = None;
    let mut many_families = false;
    for pg in &plan.planned {
        let g = &plan.groups[pg.group as usize];
        let v = plan.cls_codes[g.left_col][i];
        if v.is_nan() {
            continue;
        }
        let col = &plan.cols[g.right_col];
        let ns = col.null_start;
        let (lb, ub) = match &col.runs {
            // Hosted text column: the label's run in the host family's
            // order (missing labels map to the empty run).
            Some(runs) => runs.get(v as usize).copied().unwrap_or((0, 0)),
            None => (
                col.sorted_codes.partition_point(|&c| c < v) as u32,
                col.sorted_codes.partition_point(|&c| c <= v) as u32,
            ),
        };
        let text = !g.numeric;
        let live_idx = scratch.live.len();
        scratch.live.push(LiveGroup {
            group: pg.group,
            lb,
            ub,
            null_start: ns,
            text,
            family: col.family as u32,
            evented: false,
        });
        // Candidate transition positions, nondecreasing. A text group with
        // no equal region only changes outcome at the null boundary.
        let candidates: [u32; 3] = if text && lb == ub {
            [ns, m_u32, m_u32]
        } else {
            [lb, ub, ns]
        };
        let mut prev = u32::MAX;
        let mut pushed = false;
        for &p in &candidates {
            if p != prev && p > 0 && p < m_u32 {
                scratch.events.push((p, live_idx as u32));
                pushed = true;
            }
            prev = p;
        }
        if pushed {
            scratch.live[live_idx].evented = true;
            match (fam_a, fam_b) {
                (None, _) => fam_a = Some(col.family),
                (Some(a), _) if a == col.family => {}
                (_, None) => fam_b = Some(col.family),
                (_, Some(b)) if b == col.family => {}
                _ => many_families = true,
            }
        }
    }
    stats.refine_steps += scratch.live.len() as u64;

    let pair_eligible = !many_families
        && fam_b.is_some()
        && plan.pair.as_ref().is_some_and(|pp| {
            let (x, y) = (
                // conformance: allow(panic) — the family scan assigns fam_a before it can ever assign fam_b
                fam_a.expect("fam_a set before fam_b"),
                // conformance: allow(panic) — guarded by the `fam_b.is_some()` arm of this conjunction
                fam_b.expect("checked"),
            );
            (pp.fam_a == x && pp.fam_b == y) || (pp.fam_a == y && pp.fam_b == x)
        });

    if fam_b.is_none() {
        // ── Interval fast path: all event-bearing groups share one family,
        // so the merged events partition its rank space into constant-`Sat`
        // intervals. The bitset is maintained incrementally across
        // boundaries.
        stats.interval_classes += 1;
        scratch.events.sort_unstable();
        let fam_idx = fam_a.unwrap_or_else(|| plan.cols[0].family);
        let fam = &plan.families[fam_idx];
        let rank_i = fam.rank[i] as usize;
        fill_pair(
            &plan.codes,
            &plan.groups,
            plan.rep[i] as usize,
            plan.rep[fam.order[0] as usize] as usize,
            &mut scratch.buffer,
        );
        scratch.intervals.clear();
        let mut nintervals = 0u64;
        let mut s = 0usize;
        let mut e_idx = 0usize;
        loop {
            let next = scratch.events.get(e_idx).map_or(m, |&(p, _)| p as usize);
            // Interval [s, next): constant Sat, closed-form weight.
            #[cfg(debug_assertions)]
            {
                fill_pair(
                    &plan.codes,
                    &plan.groups,
                    plan.rep[i] as usize,
                    plan.rep[fam.order[s] as usize] as usize,
                    &mut scratch.check,
                );
                debug_assert_eq!(
                    scratch.buffer, scratch.check,
                    "incremental Sat assembly diverged at class {i}, interval start {s}"
                );
            }
            let w = fam.prefix[next] - fam.prefix[s];
            let diag = s <= rank_i && rank_i < next;
            let count = k_i * w - if diag { k_i } else { 0 };
            nintervals += 1;
            let entry = (count > 0).then(|| {
                acc.add_many(
                    FixedBitSet::from_words(plan.space_len, &scratch.buffer),
                    count,
                )
            });
            if plan.track_vios {
                scratch.intervals.push(Interval {
                    start: s as u32,
                    end: next as u32,
                    entry,
                    diag,
                });
            }
            if next == m {
                break;
            }
            // Cross the boundary: each crossing group clears its old
            // outcome's masks and sets its new one's.
            while scratch
                .events
                .get(e_idx)
                .is_some_and(|&(p, _)| p as usize == next)
            {
                let lg = scratch.live[scratch.events[e_idx].1 as usize];
                let g = &plan.groups[lg.group as usize];
                apply_masks(&mut scratch.buffer, g, lg.classify(next as u32 - 1), false);
                apply_masks(&mut scratch.buffer, g, lg.classify(next as u32), true);
                e_idx += 1;
            }
            s = next;
        }
        stats.materializations += nintervals;
        stats.refine_steps += scratch.events.len() as u64 + nintervals;

        if let Some(v) = vios {
            for iv in &scratch.intervals {
                let Some(entry) = iv.entry else { continue };
                let w = fam.prefix[iv.end as usize] - fam.prefix[iv.start as usize];
                let as_left = w - if iv.diag { 1 } else { 0 };
                for &t in &plan.members[i] {
                    v.record_bulk(entry, t, as_left as u32);
                }
                for p in iv.start..iv.end {
                    let j = fam.order[p as usize] as usize;
                    let as_right = k_i - if j == i { 1 } else { 0 };
                    for &t in &plan.members[j] {
                        v.record_bulk(entry, t, as_right as u32);
                    }
                }
            }
        }
    } else if pair_eligible {
        // ── Two-family rectangle path: event-bearing groups span exactly
        // the plan's two global families, so every refined block is an
        // (A-segment × B-segment) rectangle in the cross-order space. The
        // precomputed wavelet matrix counts each rectangle's row weight in
        // `O(log n)` — no per-class scan over the classes. (Only planned
        // when `track_vios` is off, so `vios` is always `None` here.)
        stats.pair_classes += 1;
        // conformance: allow(panic) — `pair_eligible` above is false whenever `plan.pair` is None
        let pp = plan.pair.as_ref().expect("pair eligibility checked");
        let fa = &plan.families[pp.fam_a];
        let fb = &plan.families[pp.fam_b];

        // Per-side segment boundaries: 0, the side's interior cuts, m.
        scratch.segs_a.clear();
        scratch.segs_b.clear();
        scratch.segs_a.push(0);
        scratch.segs_b.push(0);
        for &(p, li) in &scratch.events {
            if scratch.live[li as usize].family as usize == pp.fam_a {
                scratch.segs_a.push(p);
            } else {
                scratch.segs_b.push(p);
            }
        }
        scratch.segs_a.push(m_u32);
        scratch.segs_b.push(m_u32);
        scratch.segs_a.sort_unstable();
        scratch.segs_a.dedup();
        scratch.segs_b.sort_unstable();
        scratch.segs_b.dedup();
        let na = scratch.segs_a.len() - 1;
        let nb = scratch.segs_b.len() - 1;

        // Base bitset: the full pair evidence vs the class at A-rank 0,
        // minus the evented groups' outcomes there. Event-free groups are
        // constant over every rank, so their contribution survives in the
        // base; each cell then ORs in only the per-segment outcomes.
        let j0 = fa.order[0] as usize;
        fill_pair(
            &plan.codes,
            &plan.groups,
            plan.rep[i] as usize,
            plan.rep[j0] as usize,
            &mut scratch.buffer,
        );
        for lg in &scratch.live {
            if !lg.evented {
                continue;
            }
            let g = &plan.groups[lg.group as usize];
            let p0 = if lg.family as usize == pp.fam_a {
                0
            } else {
                fb.rank[j0]
            };
            apply_masks(&mut scratch.buffer, g, lg.classify(p0), false);
        }

        // Per-segment OR masks for each side: `parts[s]` is what the side's
        // evented groups contribute throughout segment `s`.
        let words = scratch.buffer.len();
        scratch.parts_a.clear();
        scratch.parts_a.resize(na * words, 0);
        scratch.parts_b.clear();
        scratch.parts_b.resize(nb * words, 0);
        for lg in &scratch.live {
            if !lg.evented {
                continue;
            }
            let g = &plan.groups[lg.group as usize];
            let (segs, parts) = if lg.family as usize == pp.fam_a {
                (&scratch.segs_a, &mut scratch.parts_a)
            } else {
                (&scratch.segs_b, &mut scratch.parts_b)
            };
            for s in 0..segs.len() - 1 {
                for &(w, mask) in outcome_masks(g, lg.classify(segs[s])) {
                    parts[s * words + w] |= mask;
                }
            }
        }

        // Segments holding the diagonal (the left class itself).
        let da = scratch.segs_a.partition_point(|&b| b <= fa.rank[i]) - 1;
        let db = scratch.segs_b.partition_point(|&b| b <= fb.rank[i]) - 1;

        let mut covered = 0u64;
        let mut emitted = 0u64;
        for sa in 0..na {
            let al = fa.prefix[scratch.segs_a[sa] as usize] as usize;
            let ar = fa.prefix[scratch.segs_a[sa + 1] as usize] as usize;
            if al == ar {
                continue;
            }
            for sb in 0..nb {
                let bl = fb.prefix[scratch.segs_b[sb] as usize] as u32;
                let br = fb.prefix[scratch.segs_b[sb + 1] as usize] as u32;
                let w = pp.sigma.count_in(al, ar, bl, br);
                if w == 0 {
                    continue;
                }
                covered += w;
                emitted += 1;
                let diag = sa == da && sb == db;
                let count = k_i * w - if diag { k_i } else { 0 };
                for wd in 0..words {
                    scratch.cell[wd] = scratch.buffer[wd]
                        | scratch.parts_a[sa * words + wd]
                        | scratch.parts_b[sb * words + wd];
                }
                #[cfg(debug_assertions)]
                if m <= 512 {
                    // Brute-force the rectangle: its weight and the first
                    // member's full pair bitset must match the assembly.
                    let mut bw = 0u64;
                    let mut first = None;
                    for j in 0..m {
                        let ra = fa.rank[j];
                        let rb = fb.rank[j];
                        if scratch.segs_a[sa] <= ra
                            && ra < scratch.segs_a[sa + 1]
                            && scratch.segs_b[sb] <= rb
                            && rb < scratch.segs_b[sb + 1]
                        {
                            bw += plan.weight[j];
                            first.get_or_insert(j);
                        }
                    }
                    debug_assert_eq!(bw, w, "rectangle weight diverged at class {i}");
                    if let Some(j) = first {
                        fill_pair(
                            &plan.codes,
                            &plan.groups,
                            plan.rep[i] as usize,
                            plan.rep[j] as usize,
                            &mut scratch.check,
                        );
                        debug_assert_eq!(
                            scratch.cell, scratch.check,
                            "rectangle Sat assembly diverged at class {i}, cell ({sa},{sb})"
                        );
                    }
                }
                if count > 0 {
                    acc.add_many(
                        FixedBitSet::from_words(plan.space_len, &scratch.cell),
                        count,
                    );
                }
            }
        }
        debug_assert_eq!(
            covered, fa.prefix[m],
            "rectangle weights must tile the whole relation at class {i}"
        );
        stats.materializations += emitted;
        stats.refine_steps += scratch.events.len() as u64 + (na * nb) as u64;
    } else {
        // ── Rank-token fallback: event-bearing groups span several order
        // families. Refine the classes by per-active-column rank tokens
        // (segment index between the column's event bounds) and assemble
        // one bitset per refined block — `O(m)` per active column, still
        // confined to columns that actually produced events.
        stats.fallback_classes += 1;
        scratch.active_cols.clear();
        for &(p, li) in &scratch.events {
            let c = plan.groups[scratch.live[li as usize].group as usize].right_col;
            if scratch.col_bounds[c].is_empty() {
                scratch.active_cols.push(c);
            }
            scratch.col_bounds[c].push(p);
        }
        scratch.active_cols.sort_unstable();
        for idx in 0..scratch.active_cols.len() {
            let c = scratch.active_cols[idx];
            scratch.col_bounds[c].sort_unstable();
            scratch.col_bounds[c].dedup();
        }

        scratch.labels.iter_mut().for_each(|l| *l = 0);
        let mut nlabels: u32 = 1;
        for idx in 0..scratch.active_cols.len() {
            let c = scratch.active_cols[idx];
            let rank = &plan.families[plan.cols[c].family].rank;
            let ntokens = scratch.col_bounds[c].len() as u32 + 1;
            scratch.table.clear();
            scratch.table.resize((nlabels * ntokens) as usize, u32::MAX);
            let mut next: u32 = 0;
            for (j, &rank_j) in rank.iter().enumerate().take(m) {
                let token = scratch.col_bounds[c].partition_point(|&b| b <= rank_j) as u32;
                let slot = (scratch.labels[j] * ntokens + token) as usize;
                if scratch.table[slot] == u32::MAX {
                    scratch.table[slot] = next;
                    next += 1;
                }
                scratch.labels[j] = scratch.table[slot];
            }
            nlabels = next;
        }
        stats.refine_steps += (scratch.active_cols.len() * m) as u64;

        scratch.block_first.clear();
        scratch.block_first.resize(nlabels as usize, u32::MAX);
        scratch.block_weight.clear();
        scratch.block_weight.resize(nlabels as usize, 0);
        for j in 0..m {
            let label = scratch.labels[j] as usize;
            if scratch.block_first[label] == u32::MAX {
                scratch.block_first[label] = j as u32;
            }
            scratch.block_weight[label] += plan.weight[j];
        }
        let diag_label = scratch.labels[i] as usize;
        stats.materializations += nlabels as u64;
        scratch.block_entry.clear();
        for b in 0..nlabels as usize {
            let j = scratch.block_first[b] as usize;
            let count = k_i * scratch.block_weight[b] - if b == diag_label { k_i } else { 0 };
            if count == 0 {
                scratch.block_entry.push(None);
                continue;
            }
            fill_pair(
                &plan.codes,
                &plan.groups,
                plan.rep[i] as usize,
                plan.rep[j] as usize,
                &mut scratch.buffer,
            );
            let entry = acc.add_many(
                FixedBitSet::from_words(plan.space_len, &scratch.buffer),
                count,
            );
            scratch.block_entry.push(Some(entry));
        }

        if let Some(v) = vios {
            for &t in &plan.members[i] {
                for (b, entry) in scratch.block_entry.iter().enumerate() {
                    let Some(e) = *entry else { continue };
                    let as_left = scratch.block_weight[b] - if b == diag_label { 1 } else { 0 };
                    v.record_bulk(e, t, as_left as u32);
                }
            }
            for j in 0..m {
                let Some(e) = scratch.block_entry[scratch.labels[j] as usize] else {
                    continue;
                };
                let as_right = k_i - if j == i { 1 } else { 0 };
                for &t in &plan.members[j] {
                    v.record_bulk(e, t, as_right as u32);
                }
            }
        }

        for idx in 0..scratch.active_cols.len() {
            let c = scratch.active_cols[idx];
            scratch.col_bounds[c].clear();
        }
    }
}

/// Evidence of one contiguous chunk of left classes, with entry ids local
/// to the chunk.
struct ChunkShard {
    /// Chunk index; merge order key.
    chunk: usize,
    set: EvidenceSet,
    vios: Option<Vios>,
    work: SweepStats,
}

impl SweepEvidenceBuilder {
    /// Build the evidence set and return the sweep's work counters alongside
    /// it (the [`EvidenceBuilder::build`] impl discards the stats).
    pub fn build_with_stats(
        &self,
        relation: &Relation,
        space: &PredicateSpace,
        track_vios: bool,
    ) -> (Evidence, SweepStats) {
        let n = relation.len();
        let mut stats = SweepStats {
            rows: n,
            pairwise_pairs: n as u64 * n.saturating_sub(1) as u64,
            ..SweepStats::default()
        };
        if n == 0 || space.is_empty() {
            // Mirror the cluster kernel exactly: an empty space produces an
            // empty evidence set (no pairs are scanned at all).
            return (
                Evidence {
                    evidence_set: EvidenceAccumulator::new(space.len(), n).finish(),
                    vios: track_vios.then(|| Vios::new(0, n)),
                },
                stats,
            );
        }

        let plan = SweepPlan::prepare(relation, space, track_vios);
        let m = plan.m;
        stats.classes = m;
        stats.class_grid = m as u64 * m.saturating_sub(1) as u64;

        let threads = self.resolved_threads();
        let chunk_classes = self.resolved_chunk_classes(m, threads);
        let num_chunks = m.div_ceil(chunk_classes);
        let workers = threads.min(num_chunks);

        let (set, vios) = if workers <= 1 {
            let mut acc = EvidenceAccumulator::new(plan.space_len, n);
            let mut vios = track_vios.then(|| Vios::new(0, n));
            let mut scratch = Scratch::new(&plan);
            for i in 0..m {
                process_class(&plan, i, &mut acc, vios.as_mut(), &mut scratch, &mut stats);
            }
            (acc.finish(), vios)
        } else {
            let source = AtomicChunkSource::new(num_chunks);
            sweep_threaded(
                &plan,
                n,
                track_vios,
                workers,
                chunk_classes,
                num_chunks,
                &source,
                None,
                &mut stats,
            )
        };

        debug_assert_eq!(set.total_pairs(), stats.pairwise_pairs);
        (
            Evidence {
                evidence_set: set,
                vios,
            },
            stats,
        )
    }

    /// Audited build: same kernel as [`SweepEvidenceBuilder::build_with_stats`],
    /// but the threaded path is forced (even at one worker), workers pull
    /// class chunks from the given [`Schedule`]'s script, and shard arrival
    /// is shuffled by its seed before the deterministic merge. Requires
    /// `schedule.pulls` to cover every chunk index (extra pulls are
    /// skipped). Used by the schedule auditor to prove output is
    /// schedule-independent.
    pub fn build_scheduled(
        &self,
        relation: &Relation,
        space: &PredicateSpace,
        track_vios: bool,
        schedule: &Schedule,
    ) -> (Evidence, SweepStats) {
        let n = relation.len();
        let mut stats = SweepStats {
            rows: n,
            pairwise_pairs: n as u64 * n.saturating_sub(1) as u64,
            ..SweepStats::default()
        };
        if n == 0 || space.is_empty() {
            return (
                Evidence {
                    evidence_set: EvidenceAccumulator::new(space.len(), n).finish(),
                    vios: track_vios.then(|| Vios::new(0, n)),
                },
                stats,
            );
        }

        let plan = SweepPlan::prepare(relation, space, track_vios);
        let m = plan.m;
        stats.classes = m;
        stats.class_grid = m as u64 * m.saturating_sub(1) as u64;

        let chunk_classes = self.resolved_chunk_classes(m, schedule.workers.max(1));
        let num_chunks = m.div_ceil(chunk_classes);
        assert!(
            schedule.pulls.len() >= num_chunks,
            "schedule has {} pulls but the build needs {num_chunks} chunks",
            schedule.pulls.len(),
        );
        let source = ScriptedChunkSource::new(schedule.pulls.clone(), schedule.workers);
        let (set, vios) = sweep_threaded(
            &plan,
            n,
            track_vios,
            schedule.workers,
            chunk_classes,
            num_chunks,
            &source,
            Some(schedule.arrival_seed),
            &mut stats,
        );

        debug_assert_eq!(set.total_pairs(), stats.pairwise_pairs);
        (
            Evidence {
                evidence_set: set,
                vios,
            },
            stats,
        )
    }
}

/// Threaded sweep kernel shared by the production and audited builds: spawn
/// `workers` threads, drain chunk indexes from `source` (skipping any index
/// past the real chunk count), and merge shards deterministically. When
/// `arrival_seed` is set, shards are shuffled into that arrival order first —
/// the merge's ascending-chunk sort must undo it.
#[allow(clippy::too_many_arguments)]
fn sweep_threaded(
    plan: &SweepPlan,
    n: usize,
    track_vios: bool,
    workers: usize,
    chunk_classes: usize,
    num_chunks: usize,
    source: &dyn ChunkSource,
    arrival_seed: Option<u64>,
    stats: &mut SweepStats,
) -> (EvidenceSet, Option<Vios>) {
    let m = plan.m;
    // Each worker drains chunks from the source and returns its shards; no
    // locks beyond the source itself and the final joins.
    let mut shards: Vec<ChunkShard> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut scratch = Scratch::new(plan);
                    while let Some(chunk) = source.next_chunk(w) {
                        if chunk >= num_chunks {
                            continue;
                        }
                        let start = chunk * chunk_classes;
                        let end = (start + chunk_classes).min(m);
                        let mut acc = EvidenceAccumulator::new(plan.space_len, n);
                        let mut vios = track_vios.then(|| Vios::new(0, n));
                        let mut work = SweepStats::default();
                        for i in start..end {
                            process_class(
                                plan,
                                i,
                                &mut acc,
                                vios.as_mut(),
                                &mut scratch,
                                &mut work,
                            );
                        }
                        out.push(ChunkShard {
                            chunk,
                            set: acc.finish(),
                            vios,
                            work,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            // conformance: allow(panic) — join only fails if a worker already panicked; rethrowing on the coordinator is the intended propagation
            .flat_map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    // Audit hook: present the shards in an adversarial arrival order so the
    // sort below is load-bearing, not decorative.
    if let Some(seed) = arrival_seed {
        shuffle_arrival(&mut shards, seed);
    }

    // Deterministic merge: ascending chunk order replays the sequential
    // left-class scan, so entry order, counts, and vios are bit-for-bit
    // identical to a single-threaded build.
    shards.sort_unstable_by_key(|s| s.chunk);
    let mut acc = EvidenceAccumulator::new(plan.space_len, n);
    let mut vios = track_vios.then(|| Vios::new(0, n));
    for shard in &shards {
        let mapping = acc.merge_set(&shard.set);
        if let (Some(v), Some(sv)) = (vios.as_mut(), shard.vios.as_ref()) {
            v.merge_mapped(sv, &mapping);
        }
        stats.absorb_work(&shard.work);
    }
    (acc.finish(), vios)
}

impl EvidenceBuilder for SweepEvidenceBuilder {
    fn name(&self) -> &'static str {
        "sweep"
    }

    fn build(&self, relation: &Relation, space: &PredicateSpace, track_vios: bool) -> Evidence {
        self.build_with_stats(relation, space, track_vios).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::{random_relation, small_relation};
    use crate::builder::ClusterEvidenceBuilder;
    use adc_data::{AttributeType, Schema, Value};
    use adc_predicates::SpaceConfig;

    /// The cross-kernel oracle: the sweep must agree with the sequential
    /// cluster kernel after canonicalization, with and without vios, and
    /// must reproduce itself bit for bit across thread/chunk shapes.
    fn assert_sweep_matches(r: &Relation, space: &PredicateSpace) -> SweepStats {
        let mut stats = SweepStats::default();
        for track_vios in [false, true] {
            let cluster = ClusterEvidenceBuilder.build(r, space, track_vios);
            let (sweep, s) = SweepEvidenceBuilder::default().build_with_stats(r, space, track_vios);
            assert_eq!(
                cluster.clone().canonicalized(),
                sweep.clone().canonicalized(),
                "sweep disagrees with cluster (track_vios={track_vios})"
            );
            // Determinism: any thread/chunk shape reproduces the default
            // build bit for bit, stats included.
            for builder in [
                SweepEvidenceBuilder::new(1),
                SweepEvidenceBuilder::new(3).with_chunk_classes(2),
                SweepEvidenceBuilder::new(8).with_chunk_classes(1),
            ] {
                let (other, os) = builder.build_with_stats(r, space, track_vios);
                assert_eq!(sweep, other, "sweep not bit-identical for {builder:?}");
                assert_eq!(s, os, "sweep stats diverged for {builder:?}");
            }
            assert_eq!(
                s.interval_classes + s.pair_classes + s.fallback_classes,
                s.classes as u64,
                "every class takes exactly one refinement path (track_vios={track_vios})"
            );
            if track_vios {
                assert_eq!(
                    s.pair_classes, 0,
                    "vios-tracking builds never plan the rectangle path"
                );
            }
            stats = s;
        }
        assert_eq!(stats.rows, r.len());
        assert_eq!(
            stats.pairwise_pairs,
            r.len() as u64 * r.len().saturating_sub(1) as u64
        );
        assert!(stats.classes <= r.len());
        stats
    }

    fn space_of(r: &Relation) -> PredicateSpace {
        PredicateSpace::build(r, SpaceConfig::default())
    }

    #[test]
    fn matches_cluster_on_running_example() {
        let r = small_relation();
        let space = space_of(&r);
        let stats = assert_sweep_matches(&r, &space);
        assert_eq!(stats.classes, 5); // all five rows distinct
    }

    #[test]
    fn matches_cluster_on_random_relations_with_nulls() {
        for seed in 0..8 {
            let r = random_relation(40, seed);
            let space = space_of(&r);
            assert_sweep_matches(&r, &space);
        }
    }

    #[test]
    fn empty_relation() {
        let schema = Schema::of(&[("A", AttributeType::Integer)]);
        let r = Relation::empty(schema);
        let space = space_of(&r);
        let stats = assert_sweep_matches(&r, &space);
        assert_eq!(stats.classes, 0);
        assert_eq!(stats.materializations, 0);
    }

    #[test]
    fn single_row() {
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Text)]);
        let mut b = Relation::builder(schema);
        b.push_row(vec![Value::Int(7), "only".into()]).unwrap();
        let r = b.build();
        let space = space_of(&r);
        let stats = assert_sweep_matches(&r, &space);
        assert_eq!(stats.classes, 1);
        assert_eq!(stats.pairwise_pairs, 0);
    }

    #[test]
    fn all_rows_identical_collapse_to_one_class() {
        let schema = Schema::of(&[
            ("A", AttributeType::Integer),
            ("B", AttributeType::Text),
            ("C", AttributeType::Float),
        ]);
        let mut b = Relation::builder(schema);
        for _ in 0..50 {
            b.push_row(vec![Value::Int(3), "same".into(), Value::Float(1.5)])
                .unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        let stats = assert_sweep_matches(&r, &space);
        assert_eq!(stats.classes, 1);
        // One left class, one (diagonal) interval: a single materialization
        // covers all 50·49 pairs.
        assert_eq!(stats.materializations, 1);
        assert!(stats.materialization_ratio() >= 1000.0);
    }

    #[test]
    fn all_distinct_columns_stay_sub_quadratic() {
        // Both columns sort the classes in the same (identity) order, so
        // every class takes the single-family interval path: at most three
        // intervals per class instead of the m·(m−1) class grid the token
        // scan used to degrade to.
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Float)]);
        let mut b = Relation::builder(schema);
        for i in 0..20i64 {
            b.push_row(vec![Value::Int(i), Value::Float(i as f64 * 0.5 + 0.25)])
                .unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        let stats = assert_sweep_matches(&r, &space);
        assert_eq!(stats.classes, 20);
        assert_eq!(stats.interval_classes, 20);
        assert_eq!(stats.fallback_classes, 0);
        assert!(
            stats.materializations <= 3 * stats.classes as u64,
            "interval path should emit ≤3 intervals per all-distinct class, got {}",
            stats.materializations
        );
        assert!(
            stats.refine_steps < stats.class_grid / 2,
            "refinement work {} not sub-quadratic vs class grid {}",
            stats.refine_steps,
            stats.class_grid
        );
    }

    #[test]
    fn opposed_sort_orders_take_the_rectangle_path() {
        // Column A ascends while column B descends: two order families with
        // events in both. Untracked builds refine every class through the
        // two-family rectangle path; vios-tracking builds never plan the
        // rectangle and keep the rank-token fallback — both agree with the
        // cluster kernel.
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Integer)]);
        let mut b = Relation::builder(schema);
        for i in 0..12i64 {
            b.push_row(vec![Value::Int(i), Value::Int(100 - i)])
                .unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        // Tracked stats (the last iteration of the oracle loop).
        let stats = assert_sweep_matches(&r, &space);
        assert_eq!(stats.classes, 12);
        assert_eq!(stats.fallback_classes, 12);
        assert_eq!(stats.interval_classes, 0);
        assert_eq!(stats.pair_classes, 0);
        // Untracked build: the same classes ride the rectangle path.
        let (_, untracked) = SweepEvidenceBuilder::default().build_with_stats(&r, &space, false);
        assert_eq!(untracked.pair_classes, 12);
        assert_eq!(untracked.fallback_classes, 0);
        assert_eq!(untracked.interval_classes, 0);
    }

    #[test]
    fn banded_text_key_is_hosted_and_rides_the_rectangle_path() {
        // Stock-shaped fixture: a text key whose groups own disjoint numeric
        // bands (Ticker/Open) plus a second order family shared across the
        // bands (Date). The ticker's label blocks are contiguous along the
        // price family's order, so it is *hosted* there instead of forming a
        // third family — leaving exactly two families, which is what makes
        // the rectangle path eligible for every class.
        let schema = Schema::of(&[
            ("Ticker", AttributeType::Text),
            ("Open", AttributeType::Integer),
            ("Date", AttributeType::Integer),
        ]);
        let mut b = Relation::builder(schema);
        for t in 0..3i64 {
            for i in 0..8i64 {
                b.push_row(vec![
                    ["aa", "bb", "cc"][t as usize].into(),
                    Value::Int(100 * t + i),
                    Value::Int(20_180_000 + i),
                ])
                .unwrap();
            }
        }
        let r = b.build();
        let space = space_of(&r);
        let stats = assert_sweep_matches(&r, &space);
        assert_eq!(stats.classes, 24);
        let (_, untracked) = SweepEvidenceBuilder::default().build_with_stats(&r, &space, false);
        // Hosting is observable: an unhosted ticker would be a third family
        // and force the quadratic fallback.
        assert_eq!(untracked.fallback_classes, 0, "ticker was not hosted");
        assert_eq!(untracked.pair_classes, 24);
        assert!(
            untracked.materializations < untracked.class_grid / 2,
            "rectangle cells {} not sub-quadratic vs class grid {}",
            untracked.materializations,
            untracked.class_grid
        );
    }

    #[test]
    fn hosted_text_on_a_single_family_takes_the_interval_path() {
        // A text column whose labels are contiguous along the only numeric
        // family folds into it entirely: no second family, so every class
        // stays on the interval fast path even though the relation mixes
        // text and numeric groups.
        let schema = Schema::of(&[("A", AttributeType::Integer), ("L", AttributeType::Text)]);
        let mut b = Relation::builder(schema);
        for i in 0..10i64 {
            b.push_row(vec![Value::Int(i), if i < 5 { "x" } else { "y" }.into()])
                .unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        let stats = assert_sweep_matches(&r, &space);
        assert_eq!(stats.classes, 10);
        assert_eq!(stats.interval_classes, 10);
        assert_eq!(stats.fallback_classes, 0);
        assert_eq!(stats.pair_classes, 0);
    }

    #[test]
    fn rectangle_path_weights_duplicate_rows() {
        // Opposed orders with heavy duplication: 4 classes of weight 5. The
        // σ permutation is weight-expanded, so each rectangle's wavelet
        // count must reproduce the closed-form duplicate pair counts.
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Integer)]);
        let mut b = Relation::builder(schema);
        for i in 0..20i64 {
            b.push_row(vec![Value::Int(i % 4), Value::Int(100 - i % 4)])
                .unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        let stats = assert_sweep_matches(&r, &space);
        assert_eq!(stats.classes, 4);
        assert_eq!(stats.pairwise_pairs, 20 * 19);
        let (_, untracked) = SweepEvidenceBuilder::default().build_with_stats(&r, &space, false);
        assert_eq!(untracked.pair_classes, 4);
    }

    #[test]
    fn rectangle_path_handles_nulls() {
        // Nulls in the descending column sit past `null_start` in its
        // family order; rectangle cells overlapping the null tail must
        // classify those groups as satisfying nothing.
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Integer)]);
        let mut b = Relation::builder(schema);
        for i in 0..12i64 {
            let bv = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(100 - i)
            };
            b.push_row(vec![Value::Int(i), bv]).unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        assert_sweep_matches(&r, &space);
        let (_, untracked) = SweepEvidenceBuilder::default().build_with_stats(&r, &space, false);
        assert!(
            untracked.pair_classes > 0,
            "fixture should exercise the rectangle path"
        );
    }

    #[test]
    fn duplicate_rows_contribute_closed_form_counts() {
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Text)]);
        let mut b = Relation::builder(schema);
        for i in 0..30i64 {
            // Three distinct row classes, 10 duplicates each.
            let class = i % 3;
            b.push_row(vec![
                Value::Int(class),
                ["p", "q", "r"][class as usize].into(),
            ])
            .unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        let stats = assert_sweep_matches(&r, &space);
        assert_eq!(stats.classes, 3);
        assert_eq!(stats.pairwise_pairs, 30 * 29);
        // At most 3 left classes × 3 intervals of work.
        assert!(stats.materializations <= 9);
    }

    #[test]
    fn signed_zero_rows_share_a_class() {
        let schema = Schema::of(&[("A", AttributeType::Float)]);
        let mut b = Relation::builder(schema);
        for v in [0.0f64, -0.0, 1.0, -0.0, 0.0] {
            b.push_row(vec![Value::Float(v)]).unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        let stats = assert_sweep_matches(&r, &space);
        // 0.0 and −0.0 compare equal on every predicate → one class.
        assert_eq!(stats.classes, 2);
    }

    #[test]
    fn null_heavy_columns() {
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Text)]);
        let mut b = Relation::builder(schema);
        for i in 0..12i64 {
            let a = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(i % 4)
            };
            let t = if i % 4 == 0 { Value::Null } else { "v".into() };
            b.push_row(vec![a, t]).unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        assert_sweep_matches(&r, &space);

        // And a column that is entirely null.
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Integer)]);
        let mut b = Relation::builder(schema);
        for i in 0..6i64 {
            b.push_row(vec![Value::Int(i % 2), Value::Null]).unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        assert_sweep_matches(&r, &space);
    }

    #[test]
    fn cross_column_predicates_from_shared_values() {
        // Two integer columns sharing well over 30 % of their values: the
        // space generator emits cross-column order predicates, so the sweep
        // must fold foreign boundaries into each column's region partition.
        let schema = Schema::of(&[
            ("Income", AttributeType::Integer),
            ("Bonus", AttributeType::Integer),
        ]);
        let mut b = Relation::builder(schema);
        for i in 0..15i64 {
            b.push_row(vec![Value::Int(i % 5), Value::Int((i + 1) % 5)])
                .unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        // The fixture only makes sense if cross predicates actually exist.
        assert!(
            space.predicates().iter().any(|p| p.left_col != p.right_col),
            "fixture failed to trigger the 30% shared-values rule"
        );
        assert_sweep_matches(&r, &space);
    }

    #[test]
    fn text_only_relation() {
        let schema = Schema::of(&[("A", AttributeType::Text), ("B", AttributeType::Text)]);
        let mut b = Relation::builder(schema);
        for (a, x) in [("u", "m"), ("v", "m"), ("u", "n"), ("w", "m"), ("u", "m")] {
            b.push_row(vec![a.into(), x.into()]).unwrap();
        }
        let r = b.build();
        let space = space_of(&r);
        assert_sweep_matches(&r, &space);
    }

    #[test]
    fn stats_ratios_are_always_finite() {
        let zero = SweepStats::default();
        assert_eq!(zero.materialization_ratio(), 1.0);
        assert_eq!(zero.grid_ratio(), 1.0);
        // Pairs with zero recorded work must not emit inf into reports.
        let degenerate = SweepStats {
            pairwise_pairs: 90,
            ..SweepStats::default()
        };
        assert!(degenerate.materialization_ratio().is_finite());
        assert!(degenerate.grid_ratio().is_finite());
        let s = SweepStats {
            rows: 10,
            classes: 2,
            materializations: 3,
            class_grid: 2,
            pairwise_pairs: 90,
            ..SweepStats::default()
        };
        assert_eq!(s.materialization_ratio(), 30.0);
        assert_eq!(s.grid_ratio(), 45.0);
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let builder = SweepEvidenceBuilder::default();
        assert!(builder.resolved_threads() >= 1);
    }

    #[test]
    fn chunk_sizing_targets_four_chunks_per_thread() {
        let b = SweepEvidenceBuilder::new(4);
        assert_eq!(b.resolved_chunk_classes(1000, 4), 63);
        assert_eq!(b.resolved_chunk_classes(3, 4), 1);
        assert_eq!(b.with_chunk_classes(10).resolved_chunk_classes(1000, 4), 10);
    }
}
