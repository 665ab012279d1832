//! `AdcMonitor`: the streaming face of the miner.
//!
//! A monitor wraps the batch pipeline of [`AdcMiner`] around a
//! differentially-maintained evidence state
//! ([`adc_evidence::DeltaEvidenceBuilder`]): tuple inserts and deletes are
//! queued, and each [`AdcMonitor::refresh`] folds the queued batch into the
//! evidence multiset by scanning **only the affected ordered pairs** —
//! `O(batch · n)` instead of the `O(n²)` scan a re-mine would pay — and then
//! brings the minimal-ADC answer set up to date.
//!
//! Three answer-update paths exist, chosen per refresh:
//!
//! - **Append repair** ([`RefreshPath::Repair`]): when the run is exact
//!   (`ε = 0`), the previous refresh produced the *complete* answer set, and
//!   the batch only *added* evidence entries, the cached raw covers are
//!   repaired in place with [`adc_hitting::repair_covers`] — no enumeration
//!   restart. This is exact: every minimal transversal of a grown system is
//!   an old transversal extended by a transversal of the subsets it misses.
//! - **Removal repair** ([`RefreshPath::RemovalRepair`]): when entries were
//!   *removed* (an entry's multiplicity dropped to zero) under the same
//!   exact-uncapped conditions, the answer is still repaired, in two local
//!   stages. Removal can create minimal covers unreachable from the old
//!   answer (witness: `F = {{1,3},{2,3},{3}}` has `T(F) = {{3}}`, but
//!   dropping `{3}` adds the brand-new cover `{1,2}`) — yet every such
//!   cover misses some removed entry `R` and therefore lives inside
//!   `complement(R)`, so [`adc_hitting::repair_covers_removal`] recovers
//!   them with one search per removed entry *confined to that complement*
//!   plus a greedy re-minimalisation of the surviving covers. Appended
//!   entries (the post-compaction suffix, see
//!   [`adc_evidence::EvidenceDelta::survivor_split`]) are then folded in by
//!   the ordinary append repair.
//! - **Restart**: in every other case (`ε > 0`, a result cap, or the
//!   previous answer was truncated) the enumeration is restarted on the
//!   *maintained* evidence — at `ε > 0` multiplicity changes move
//!   approximation scores non-monotonically, so no repair from the old
//!   answer is sound. The `O(n²)` evidence scan is still skipped; only the
//!   enumeration reruns.
//!
//! Either way the answer is **canonicalised** — covers sorted by size, then
//! lexicographically by predicate index — so a refresh and a from-scratch
//! re-mine of the patched relation are byte-comparable regardless of which
//! path produced the answer or in which order the engine emitted it.
//!
//! The predicate space stays **frozen**, but staleness is loud instead of
//! silent: a [`SpaceDriftTracker`] maintains the per-column shared-value
//! ratios incrementally, and the moment churn would flip the 30 % rule's
//! verdict for some column pair, [`AdcMonitor::refresh`] returns
//! [`MonitorError::RebuildRequired`] instead of answering a question the
//! live data no longer asks.

use crate::enumeration::{cover_to_dc, run_adcs, TruncationInfo};
use crate::miner::{AdcMiner, MinerConfig, MiningResult, MiningResume, Timings};
use adc_data::{DataError, FixedBitSet, Relation, Value};
use adc_evidence::DeltaEvidenceBuilder;
use adc_hitting::{
    repair_covers, repair_covers_removal, ApproxEnumStats, SetSystem, SuspendedSearch,
};
use adc_predicates::{PredicateSpace, SpaceDrift, SpaceDriftTracker};
use std::fmt;
use std::time::Instant;

/// Which answer-update path one [`AdcMonitor::refresh`] took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RefreshPath {
    /// Exact append-only fast path: the cached answer was patched with
    /// [`adc_hitting::repair_covers`].
    Repair,
    /// Exact fast path with removed entries: surviving covers were
    /// re-minimalised and the newly-reachable covers enumerated locally with
    /// [`adc_hitting::repair_covers_removal`], then appended entries folded
    /// in by append repair.
    RemovalRepair,
    /// The enumeration was restarted on the maintained evidence.
    #[default]
    Restart,
}

/// Per-refresh differential counters: what one [`AdcMonitor::refresh`]
/// actually did, to compare against the cost of a batch re-mine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Ordered tuple pairs scanned to fold the batch into the evidence
    /// multiset (`O(batch · n)`; a re-mine scans all `n·(n−1)` pairs).
    pub pairs_scanned: u64,
    /// Evidence entries the batch touched (added + removed + count-changed).
    pub entries_touched: usize,
    /// Covers re-examined by the answer-update path: on the repair paths,
    /// the old covers that were re-opened (missed an appended entry, or
    /// shrank / were rediscovered under removal); on the restart path, every
    /// cover the fresh enumeration emitted.
    pub covers_reopened: usize,
    /// Search-tree nodes the answer-update path expanded: the repair paths'
    /// confined sub-enumerations, or the restarted enumeration's full walk —
    /// the like-for-like figure behind the "repair beats restart" claim.
    pub enum_nodes: u64,
    /// Which answer-update path this refresh took.
    pub path: RefreshPath,
}

impl DeltaStats {
    /// `true` when the refresh patched the cached answer (either repair
    /// path) instead of restarting the enumeration.
    pub fn repaired(&self) -> bool {
        self.path != RefreshPath::Restart
    }
}

/// Why an [`AdcMonitor`] operation could not produce an answer.
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorError {
    /// A queued batch was invalid: an insert row does not conform to the
    /// schema, or a delete index is out of bounds. State and queue are left
    /// untouched.
    Data(DataError),
    /// A delete index addresses past the last-refresh relation but *within*
    /// the range the relation will cover once the queued inserts land.
    /// Delete indexes always refer to [`AdcMonitor::relation`] — the rows as
    /// of the last refresh; rows queued for insertion in the same batch have
    /// no index yet and cannot be deleted before they are refreshed in.
    PendingInsertUnaddressable {
        /// The offending queued delete index.
        row: usize,
        /// Rows in the last-refresh relation (valid indexes are `0..rows`).
        rows: usize,
        /// Inserts queued at the time (the range `rows..rows + pending`
        /// that the index presumably meant to address).
        pending: usize,
    },
    /// Churn has flipped the ≥30 % shared-values verdict for at least one
    /// column pair: the frozen predicate space no longer matches the live
    /// rows, and refreshing would silently answer a stale question. The
    /// batch *was* folded into the evidence state (the monitor's data is
    /// current); rebuild the monitor from [`AdcMonitor::relation`] to mine
    /// over the space the data now implies. The error repeats on every
    /// refresh until the ratios recover or the monitor is rebuilt.
    RebuildRequired(SpaceDrift),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::Data(e) => write!(f, "{e}"),
            MonitorError::PendingInsertUnaddressable { row, rows, pending } => write!(
                f,
                "delete index {row} addresses past the refreshed relation \
                 ({rows} rows): rows queued for insertion ({pending} pending) \
                 cannot be deleted until a refresh assigns them indexes"
            ),
            MonitorError::RebuildRequired(drift) => {
                write!(f, "{drift}; rebuild the monitor over the current relation")
            }
        }
    }
}

impl std::error::Error for MonitorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MonitorError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for MonitorError {
    fn from(e: DataError) -> Self {
        MonitorError::Data(e)
    }
}

/// The complete raw transversal family of the last refresh — including the
/// empty cover and covers whose DC is trivial, which [`MiningResult::dcs`]
/// filters out but [`adc_hitting::repair_covers`] needs (it is exact only
/// when handed the *whole* answer, and a trivial cover can graft into a
/// non-trivial one as the system grows).
#[derive(Debug, Clone)]
struct CoverCache {
    covers: Vec<FixedBitSet>,
    /// Number of evidence entries (= subsets) the covers were computed over;
    /// entries appended since then form the suffix `entries..` of the grown
    /// system.
    entries: usize,
}

/// A continuously-monitored relation: queue tuple inserts/deletes, call
/// [`AdcMonitor::refresh`] to get the up-to-date minimal ADCs without ever
/// re-scanning the unchanged part of the data.
///
/// ```
/// use adc_core::{AdcMonitor, MinerConfig};
/// # use adc_data::{AttributeType, Relation, Schema, Value};
/// # let schema = Schema::of(&[("A", AttributeType::Integer)]);
/// # let mut b = Relation::builder(schema);
/// # for i in 0..4 { b.push_row(vec![Value::Int(i)]).unwrap(); }
/// # let relation = b.build();
/// let mut monitor = AdcMonitor::new(MinerConfig::new(0.0), &relation);
/// let (initial, _) = monitor.refresh().unwrap(); // first answer
/// monitor.insert_tuples(vec![vec![Value::Int(9)]]);
/// monitor.delete_tuples(&[0]).unwrap();
/// let (updated, stats) = monitor.refresh().unwrap(); // differential update
/// # let _ = (initial, updated, stats);
/// ```
///
/// The predicate space is **frozen** at construction (space generation
/// depends on whole-relation statistics, so a drifting space would change
/// the answer universe mid-stream). Staleness is detected, not ignored: the
/// shared-value ratios behind the 30 % rule are tracked incrementally, and
/// a refresh whose churn flips an admission verdict returns
/// [`MonitorError::RebuildRequired`]. Sampling is not supported
/// (`sample_fraction` must be `1.0` — a monitor maintains the exact
/// evidence of the full relation).
#[derive(Debug, Clone)]
pub struct AdcMonitor {
    miner: AdcMiner,
    space: PredicateSpace,
    builder: DeltaEvidenceBuilder,
    pending_deletes: Vec<usize>,
    pending_inserts: Vec<Vec<Value>>,
    cache: Option<CoverCache>,
    drift: SpaceDriftTracker,
}

impl AdcMonitor {
    /// Create a monitor over `relation`, paying the one full evidence scan
    /// this monitor will ever do — with the batch kernel `config.evidence`
    /// selects, so seeding with [`EvidenceStrategy::Sweep`] makes even that
    /// scan sub-quadratic (all kernels seed canonically equal evidence; see
    /// `tests/evidence_kernels.rs`). No enumeration happens here; the first
    /// [`AdcMonitor::refresh`] (possibly with an empty queue) returns the
    /// initial answer.
    ///
    /// [`EvidenceStrategy::Sweep`]: crate::EvidenceStrategy::Sweep
    ///
    /// # Panics
    /// Panics if `config.sample_fraction < 1.0` — differential maintenance
    /// is defined over the full relation, not a sample.
    pub fn new(config: MinerConfig, relation: &Relation) -> Self {
        assert!(
            config.sample_fraction >= 1.0,
            "AdcMonitor requires sample_fraction == 1.0: differential \
             maintenance tracks the exact evidence of the full relation"
        );
        let space = PredicateSpace::build(relation, config.space);
        let track_vios = config.approx.instantiate().requires_vios();
        let builder = DeltaEvidenceBuilder::new_with(
            relation,
            &space,
            track_vios,
            &*config.evidence.builder(),
        );
        let drift = SpaceDriftTracker::new(relation, &config.space);
        AdcMonitor {
            miner: AdcMiner::new(config),
            space,
            builder,
            pending_deletes: Vec::new(),
            pending_inserts: Vec::new(),
            cache: None,
            drift,
        }
    }

    /// The monitor's configuration.
    pub fn config(&self) -> &MinerConfig {
        self.miner.config()
    }

    /// The frozen predicate space every answer refers to.
    pub fn space(&self) -> &PredicateSpace {
        &self.space
    }

    /// The current relation (as of the last refresh; queued batches are not
    /// yet folded in).
    pub fn relation(&self) -> &Relation {
        self.builder.relation()
    }

    /// The current evidence multiset (as of the last refresh).
    pub fn evidence_set(&self) -> &adc_evidence::EvidenceSet {
        self.builder.evidence_set()
    }

    /// The maintained `Vios` side index (entry → violating tuples), present
    /// when the configured approximation function needs it (`f2`, `f3`).
    /// Lets callers show *which tuples* participate in the violations of a
    /// discovered DC without any extra scan.
    pub fn vios(&self) -> Option<&adc_evidence::Vios> {
        self.builder.vios()
    }

    /// Number of queued, not-yet-refreshed inserts and deletes.
    pub fn pending(&self) -> (usize, usize) {
        (self.pending_inserts.len(), self.pending_deletes.len())
    }

    /// Drop every queued insert and delete without applying them.
    pub fn clear_pending(&mut self) {
        self.pending_inserts.clear();
        self.pending_deletes.clear();
    }

    /// Queue rows for insertion at the next refresh. Schema conformance is
    /// checked when the batch is applied.
    pub fn insert_tuples(&mut self, rows: Vec<Vec<Value>>) {
        self.pending_inserts.extend(rows);
    }

    /// Queue rows for deletion at the next refresh. Indexes refer to
    /// [`AdcMonitor::relation`] — the relation as of the last refresh.
    /// Duplicates are allowed; rows queued for insertion in the same batch
    /// have no index yet and **cannot** be addressed (the apply interleaves
    /// deletes-then-inserts, so "delete the row I just queued" is
    /// out-of-contract and rejected here, before it can silently delete a
    /// different row after the refresh renumbers).
    ///
    /// # Errors
    /// - [`MonitorError::PendingInsertUnaddressable`] if an index lands in
    ///   the range the queued inserts will occupy after the refresh.
    /// - [`MonitorError::Data`] ([`DataError::RowOutOfBounds`]) if an index
    ///   is beyond even that.
    ///
    /// Nothing is queued in either case.
    pub fn delete_tuples(&mut self, rows: &[usize]) -> Result<(), MonitorError> {
        let n = self.builder.relation().len();
        if let Some(&bad) = rows.iter().find(|&&r| r >= n) {
            return Err(if bad < n + self.pending_inserts.len() {
                MonitorError::PendingInsertUnaddressable {
                    row: bad,
                    rows: n,
                    pending: self.pending_inserts.len(),
                }
            } else {
                DataError::RowOutOfBounds { row: bad, rows: n }.into()
            });
        }
        self.pending_deletes.extend_from_slice(rows);
        Ok(())
    }

    /// Fold the queued batch into the evidence state (scanning only affected
    /// pairs) and return the up-to-date answer plus what the refresh cost.
    ///
    /// The returned [`MiningResult`] is equivalent to mining the patched
    /// relation from scratch with the same configuration, except that
    /// [`MiningResult::dcs`] is in **canonical order** (nondecreasing size,
    /// then lexicographic by predicate index) rather than emission order,
    /// and [`MiningResult::timings`] only covers work this refresh did.
    ///
    /// # Errors
    /// - [`MonitorError::Data`] if an insert row does not conform to the
    ///   schema; the evidence state *and* the queued batch are left
    ///   untouched, so the caller can inspect [`AdcMonitor::clear_pending`]
    ///   or fix the queue and retry.
    /// - [`MonitorError::RebuildRequired`] if the batch drifted the
    ///   predicate space out from under the frozen one. The batch **was**
    ///   applied (the queue is consumed and [`AdcMonitor::relation`] is
    ///   current) — only the answer is withheld, because it would be mined
    ///   over a predicate universe the live rows no longer justify. Rebuild
    ///   the monitor from the current relation to continue.
    pub fn refresh(&mut self) -> Result<(MiningResult, DeltaStats), MonitorError> {
        let deletes = std::mem::take(&mut self.pending_deletes);
        let inserts = std::mem::take(&mut self.pending_inserts);

        // Capture the doomed rows' values before apply renumbers them, so
        // the drift tracker can retract exactly what apply deletes (sorted,
        // deduplicated).
        let deleted_rows: Vec<Vec<Value>> = if self.drift.is_active() && !deletes.is_empty() {
            let mut unique = deletes.clone();
            unique.sort_unstable();
            unique.dedup();
            let relation = self.builder.relation();
            unique
                .iter()
                .filter(|&&d| d < relation.len())
                .map(|&d| relation.row(d))
                .collect()
        } else {
            Vec::new()
        };

        let t0 = Instant::now();
        let delta = match self.builder.apply(&deletes, inserts.clone()) {
            Ok(delta) => delta,
            Err(e) => {
                // `apply` left the evidence untouched; restore the queue too.
                self.pending_deletes = deletes;
                self.pending_inserts = inserts;
                return Err(e.into());
            }
        };
        let evidence_time = t0.elapsed();

        // Fold the applied churn into the shared-value ratios and bail out
        // loudly if the 30 % rule's verdict flipped for any column pair: the
        // frozen space is now answering a stale question, and a cached
        // answer over it cannot seed any future repair either.
        if self.drift.is_active() {
            for row in &deleted_rows {
                self.drift.retract_row(row);
            }
            for row in &inserts {
                self.drift.record_row(row);
            }
            if let Some(drift) = self.drift.drift() {
                self.cache = None;
                return Err(MonitorError::RebuildRequired(drift));
            }
        }

        let cfg = *self.miner.config();
        let options = self.miner.enumeration_options();
        let t1 = Instant::now();

        // The repair paths are sound only under exact semantics (at ε = 0 a
        // set is an answer iff it hits every entry — multiplicities are
        // irrelevant), a complete cached answer to repair, and no result cap
        // (repair yields the complete answer; a cap would make the cached
        // set a prefix next time). Removed entries no longer force a
        // restart: the covers they unlock all live inside the removed
        // entries' complements and are enumerated locally there.
        let fast = cfg.is_exact() && cfg.max_dcs.is_none() && self.cache.is_some();

        let (covers, covers_reopened, path, enum_nodes, truncation, enum_stats, resume_parts) =
            if fast {
                // conformance: allow(panic) — `fast` is only true when `self.cache.is_some()` two lines up
                let cache = self.cache.take().expect("checked above");
                let system = self.current_system();
                let split = delta.survivor_split(system.len());
                let (mut covers, reopened, path, nodes) = if delta.removed.is_empty() {
                    debug_assert_eq!(
                        cache.entries, split,
                        "with no removals, added entries must be exactly the appended suffix"
                    );
                    let (covers, repair) = repair_covers(
                        &cache.covers,
                        &system,
                        split..system.len(),
                        options.strategy,
                    );
                    (
                        covers,
                        repair.reopened,
                        RefreshPath::Repair,
                        repair.nodes_expanded,
                    )
                } else {
                    // Stage 1 — complete answer of the survivor prefix: the
                    // old system minus the removed entries is exactly
                    // `system[..split]` (apply keeps survivors in order,
                    // ahead of appended entries).
                    debug_assert_eq!(
                        cache.entries,
                        split + delta.removed.len(),
                        "survivors + removed must account for every old entry"
                    );
                    let prefix =
                        SetSystem::new(system.num_elements(), system.subsets()[..split].to_vec());
                    let (survivor_covers, removal) = repair_covers_removal(
                        &cache.covers,
                        &prefix,
                        &delta.removed,
                        options.strategy,
                    );
                    // Stage 2 — fold the appended suffix in by append repair
                    // (exact, because stage 1 produced the complete T of the
                    // prefix).
                    let (covers, append) = repair_covers(
                        &survivor_covers,
                        &system,
                        split..system.len(),
                        options.strategy,
                    );
                    (
                        covers,
                        removal.shrunk + removal.discovered + append.reopened,
                        RefreshPath::RemovalRepair,
                        removal.nodes_expanded + append.nodes_expanded,
                    )
                };
                canonical_sort(&mut covers);
                (
                    covers,
                    reopened,
                    path,
                    nodes,
                    None,
                    ApproxEnumStats::default(),
                    None,
                )
            } else {
                let function = self.miner.approximation_function();
                let evidence = self.builder.snapshot();
                let mut covers = Vec::new();
                let outcome = run_adcs(
                    &self.space,
                    &evidence,
                    function.as_ref(),
                    &options,
                    None,
                    Some(&mut covers),
                );
                canonical_sort(&mut covers);
                let reopened = covers.len();
                let resume_parts = outcome.resume.map(|enumeration| (evidence, enumeration));
                (
                    covers,
                    reopened,
                    RefreshPath::Restart,
                    outcome.stats.recursive_calls,
                    outcome.truncation,
                    outcome.stats,
                    resume_parts,
                )
            };

        // Cache the raw covers only when they are the *complete* answer —
        // a truncated prefix cannot seed a sound repair.
        let exhaustive = truncation.is_none();
        let entries = self.builder.evidence_set().distinct_count();
        self.cache = exhaustive.then(|| CoverCache {
            covers: covers.clone(),
            entries,
        });

        let result = self.assemble_result(
            covers,
            truncation,
            enum_stats,
            resume_parts,
            evidence_time,
            t1.elapsed(),
        );
        let stats = DeltaStats {
            pairs_scanned: delta.pairs_scanned,
            entries_touched: delta.entries_touched(),
            covers_reopened,
            enum_nodes,
            path,
        };
        Ok((result, stats))
    }

    /// The hitting-set instance of the current evidence state (subsets in
    /// entry order, so it extends the instance of any earlier, smaller
    /// state entry-for-entry).
    fn current_system(&self) -> SetSystem {
        let set = self.builder.evidence_set();
        SetSystem::new(
            set.num_predicates(),
            set.entries().iter().map(|e| e.set.clone()).collect(),
        )
    }

    fn assemble_result(
        &self,
        covers: Vec<FixedBitSet>,
        truncation: Option<TruncationInfo>,
        enum_stats: ApproxEnumStats,
        resume_parts: Option<(adc_evidence::Evidence, SuspendedSearch)>,
        evidence_time: std::time::Duration,
        enumeration_time: std::time::Duration,
    ) -> MiningResult {
        let set = self.builder.evidence_set();
        let mined_tuples = self.builder.relation().len();
        let dcs = covers
            .iter()
            .filter_map(|cover| cover_to_dc(&self.space, cover))
            .collect();
        MiningResult {
            dcs,
            space: self.space.clone(),
            mined_tuples,
            distinct_evidence: set.distinct_count(),
            total_pairs: set.total_pairs(),
            timings: Timings {
                evidence: evidence_time,
                enumeration: enumeration_time,
                ..Timings::default()
            },
            enum_stats,
            truncation,
            resume: resume_parts.map(|(evidence, enumeration)| {
                MiningResume::from_parts(self.space.clone(), evidence, mined_tuples, enumeration)
            }),
        }
    }
}

/// Sort covers into the monitor's canonical order: nondecreasing size, ties
/// broken lexicographically by ascending predicate index.
fn canonical_sort(covers: &mut [FixedBitSet]) {
    covers.sort_unstable_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.iter().cmp(b.iter())));
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_approx::ApproxKind;
    use adc_data::{AttributeType, Schema};
    use adc_predicates::SpaceConfig;

    /// State/Zip/Income/Tax rows with a planted FD-style structure and
    /// `exceptions` violating rows — the miner test fixture, reused so the
    /// monitor is exercised on data where both exact and approximate
    /// mining produce non-trivial answers.
    fn tax_relation(n: usize, exceptions: usize, seed: u64) -> Relation {
        let schema = Schema::of(&[
            ("State", AttributeType::Text),
            ("Zip", AttributeType::Integer),
            ("Income", AttributeType::Integer),
            ("Tax", AttributeType::Integer),
        ]);
        let states = ["NY", "WA", "IL", "TX"];
        let mut x = seed.max(1);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut b = Relation::builder(schema);
        for i in 0..n {
            let s = (next() % states.len() as u64) as usize;
            let zip = 10_000 + 100 * s as i64 + (next() % 40) as i64;
            let income = 20_000 + (next() % 80_000) as i64;
            let tax = if i < exceptions {
                income / 5 + 40_000 // deliberately out of line
            } else {
                income / 10 + 1_000 * s as i64
            };
            b.push_row(vec![
                states[s].into(),
                Value::Int(zip),
                Value::Int(income),
                Value::Int(tax),
            ])
            .unwrap();
        }
        b.build()
    }

    fn rows_of(relation: &Relation, idx: impl IntoIterator<Item = usize>) -> Vec<Vec<Value>> {
        idx.into_iter().map(|i| relation.row(i)).collect()
    }

    /// Mine `relation` from scratch with `config` and return the DCs in the
    /// monitor's canonical order (as rendered strings, for comparison). The
    /// monitor sorts raw covers — i.e. DC *complement* sets — by size then
    /// element index, so the re-mine is keyed the same way.
    fn canonical_remine(config: MinerConfig, relation: &Relation) -> Vec<String> {
        let result = AdcMiner::new(config).mine(relation);
        let space = &result.space;
        let mut keyed: Vec<_> = result
            .dcs
            .iter()
            .map(|dc| {
                let cover = dc.complement_set(space).to_vec();
                (cover.len(), cover, dc.display(space).to_string())
            })
            .collect();
        keyed.sort();
        keyed.into_iter().map(|(_, _, s)| s).collect()
    }

    fn rendered(result: &MiningResult) -> Vec<String> {
        result
            .dcs
            .iter()
            .map(|dc| dc.display(&result.space).to_string())
            .collect()
    }

    #[test]
    fn insert_only_stream_takes_the_repair_path_and_matches_remine() {
        let base = tax_relation(40, 2, 7);
        let donor = tax_relation(60, 6, 1234);
        let config = MinerConfig::new(0.0);
        let mut monitor = AdcMonitor::new(config, &base);

        let (initial, stats0) = monitor.refresh().unwrap();
        assert!(!stats0.repaired(), "first refresh has no cache to repair");
        assert_eq!(stats0.path, RefreshPath::Restart);
        assert!(stats0.enum_nodes > 0, "the restart path reports its walk");
        assert_eq!(rendered(&initial), canonical_remine(config, &base));

        for step in 0..3 {
            monitor.insert_tuples(rows_of(&donor, 40 + 3 * step..40 + 3 * (step + 1)));
            let (result, stats) = monitor.refresh().unwrap();
            assert_eq!(
                stats.path,
                RefreshPath::Repair,
                "insert-only exact refresh must repair"
            );
            assert!(stats.pairs_scanned > 0);
            // Differential scan cost: 3 new rows against n_old rows, both
            // directions, plus the pairs among the 3 — far below n·(n−1).
            let n = monitor.relation().len() as u64;
            assert!(stats.pairs_scanned < n * (n - 1) / 2);
            let expected = canonical_remine(config, monitor.relation());
            assert_eq!(rendered(&result), expected, "step {step}");
            assert!(result.truncation.is_none());
        }
    }

    #[test]
    fn deletes_match_remine_whichever_path_fires() {
        // At ε = 0 the answer depends only on the *set* of evidence masks, so
        // a delete whose retractions never zero an entry still repairs; the
        // restart is forced exactly when an entry count drops to zero.
        let base = tax_relation(45, 3, 99);
        let config = MinerConfig::new(0.0);
        let mut monitor = AdcMonitor::new(config, &base);
        monitor.refresh().unwrap();

        monitor.delete_tuples(&[0, 7, 19]).unwrap();
        let (result, _) = monitor.refresh().unwrap();
        assert_eq!(
            rendered(&result),
            canonical_remine(config, monitor.relation())
        );
        assert_eq!(monitor.relation().len(), 42);
    }

    #[test]
    fn deletes_that_remove_entries_take_the_removal_repair_path_and_match_remine() {
        let base = tax_relation(40, 3, 99);
        let config = MinerConfig::new(0.0);
        let mut monitor = AdcMonitor::new(config, &base);
        monitor.refresh().unwrap();

        // Deleting 35 of 40 rows wipes out most of the pair population —
        // entries whose every supporting pair involved a deleted row vanish.
        // Zeroed entries used to force a restart; now the covers they unlock
        // are enumerated locally inside the removed entries' complements.
        monitor.delete_tuples(&(0..35).collect::<Vec<_>>()).unwrap();
        let (result, stats) = monitor.refresh().unwrap();
        assert_eq!(
            stats.path,
            RefreshPath::RemovalRepair,
            "exact uncapped refreshes with removals must repair locally"
        );
        assert!(stats.repaired());
        assert_eq!(
            rendered(&result),
            canonical_remine(config, monitor.relation())
        );
        assert_eq!(monitor.relation().len(), 5);

        // The repaired answer seeds further repairs: a follow-up delete that
        // removes more entries stays on the removal path and stays correct.
        monitor.delete_tuples(&[0, 1]).unwrap();
        let (result, stats) = monitor.refresh().unwrap();
        assert!(stats.repaired());
        assert_eq!(
            rendered(&result),
            canonical_remine(config, monitor.relation())
        );
    }

    #[test]
    fn removal_repair_handles_mixed_delete_insert_batches() {
        // Removals and additions in one refresh: removal repair completes
        // the survivor answer, then append repair folds the new entries in.
        let base = tax_relation(40, 3, 17);
        let donor = tax_relation(30, 5, 5151);
        let config = MinerConfig::new(0.0);
        let mut monitor = AdcMonitor::new(config, &base);
        monitor.refresh().unwrap();

        monitor.delete_tuples(&(0..30).collect::<Vec<_>>()).unwrap();
        monitor.insert_tuples(rows_of(&donor, 0..6));
        let (result, stats) = monitor.refresh().unwrap();
        assert_eq!(
            rendered(&result),
            canonical_remine(config, monitor.relation())
        );
        if stats.path == RefreshPath::RemovalRepair {
            assert!(stats.enum_nodes > 0 || stats.covers_reopened == 0);
        } else {
            // If no entry actually hit zero the batch repairs on the
            // append-only path — also fine, but the heavy delete should
            // normally zero entries.
            assert_eq!(stats.path, RefreshPath::Repair);
        }
    }

    #[test]
    fn mixed_batches_match_remine_for_exact_and_approximate_configs() {
        let base = tax_relation(36, 4, 5);
        let donor = tax_relation(50, 0, 4242);
        for config in [
            MinerConfig::new(0.0),
            MinerConfig::new(0.05),
            MinerConfig::new(0.08).with_approx(ApproxKind::F3),
        ] {
            let mut monitor = AdcMonitor::new(config, &base);
            monitor.refresh().unwrap();
            monitor.insert_tuples(rows_of(&donor, 0..4));
            monitor.delete_tuples(&[1, 2]).unwrap();
            let (result, stats) = monitor.refresh().unwrap();
            assert_eq!(
                rendered(&result),
                canonical_remine(config, monitor.relation()),
                "ε = {}",
                config.epsilon
            );
            assert!(stats.entries_touched > 0);
        }
    }

    #[test]
    fn empty_refresh_on_a_cached_answer_is_a_noop_repair() {
        let base = tax_relation(30, 2, 11);
        let mut monitor = AdcMonitor::new(MinerConfig::new(0.0), &base);
        let (first, _) = monitor.refresh().unwrap();
        let (second, stats) = monitor.refresh().unwrap();
        assert_eq!(stats.path, RefreshPath::Repair);
        assert_eq!(stats.pairs_scanned, 0);
        assert_eq!(stats.entries_touched, 0);
        assert_eq!(
            stats.covers_reopened, 0,
            "nothing appended, nothing reopened"
        );
        assert_eq!(stats.enum_nodes, 0, "a no-op repair expands no nodes");
        assert_eq!(rendered(&first), rendered(&second));
    }

    #[test]
    fn approximate_monitor_never_takes_the_repair_path() {
        let base = tax_relation(30, 3, 21);
        let donor = tax_relation(40, 0, 77);
        let mut monitor = AdcMonitor::new(MinerConfig::new(0.05), &base);
        monitor.refresh().unwrap();
        monitor.insert_tuples(rows_of(&donor, 0..2));
        let (_, stats) = monitor.refresh().unwrap();
        assert_eq!(
            stats.path,
            RefreshPath::Restart,
            "ε > 0 scores shift non-monotonically under count changes"
        );
    }

    #[test]
    fn truncated_answers_are_not_cached_for_repair() {
        let base = tax_relation(40, 3, 3);
        let donor = tax_relation(50, 0, 31);
        let config = MinerConfig::new(0.0).with_max_dcs(2);
        let mut monitor = AdcMonitor::new(config, &base);
        let (first, _) = monitor.refresh().unwrap();
        assert!(first.truncation.is_some());
        assert!(
            first.resume.is_some(),
            "truncated refresh hands out a resume token"
        );
        monitor.insert_tuples(rows_of(&donor, 0..2));
        let (_, stats) = monitor.refresh().unwrap();
        assert!(
            !stats.repaired(),
            "a capped config must never repair a prefix"
        );
    }

    #[test]
    fn bad_batches_leave_the_monitor_intact() {
        let base = tax_relation(20, 1, 13);
        let mut monitor = AdcMonitor::new(MinerConfig::new(0.0), &base);
        monitor.refresh().unwrap();

        assert!(monitor.delete_tuples(&[99]).is_err());
        assert_eq!(monitor.pending(), (0, 0));

        // Wrong arity: rejected at apply time, queue restored.
        monitor.insert_tuples(vec![vec![Value::Int(1)]]);
        monitor.delete_tuples(&[0]).unwrap();
        assert!(monitor.refresh().is_err());
        assert_eq!(
            monitor.pending(),
            (1, 1),
            "failed refresh restores the queue"
        );
        assert_eq!(monitor.relation().len(), 20);

        monitor.clear_pending();
        assert_eq!(monitor.pending(), (0, 0));
        let (result, stats) = monitor.refresh().unwrap();
        assert!(stats.repaired());
        assert_eq!(
            rendered(&result),
            canonical_remine(*monitor.config(), monitor.relation())
        );
    }

    #[test]
    #[should_panic(expected = "sample_fraction")]
    fn sampling_configs_are_rejected() {
        let base = tax_relation(10, 0, 1);
        AdcMonitor::new(MinerConfig::new(0.0).with_sample(0.5, 1), &base);
    }

    #[test]
    fn deleting_a_pending_insert_index_is_rejected_with_a_clear_error() {
        // The delete/insert contract: delete indexes refer to the relation
        // as of the last refresh; rows queued for insertion in the same
        // batch have no index yet. An index in the range the inserts will
        // occupy is out-of-contract and must fail loudly at queue time, not
        // silently delete whatever lands there after the refresh.
        let base = tax_relation(20, 1, 3);
        let mut monitor = AdcMonitor::new(MinerConfig::new(0.0), &base);
        monitor.refresh().unwrap();
        monitor.insert_tuples(rows_of(&base, 0..2));

        let err = monitor.delete_tuples(&[20]).unwrap_err();
        assert_eq!(
            err,
            MonitorError::PendingInsertUnaddressable {
                row: 20,
                rows: 20,
                pending: 2,
            }
        );
        assert!(err.to_string().contains("queued for insertion"));
        // Past even the pending range: a plain out-of-bounds data error.
        let err = monitor.delete_tuples(&[22]).unwrap_err();
        assert!(matches!(
            err,
            MonitorError::Data(DataError::RowOutOfBounds { row: 22, rows: 20 })
        ));
        // Failed calls queued nothing; the in-contract parts of the batch
        // still refresh correctly (deletes hit pre-refresh indexes, inserts
        // append after).
        assert_eq!(monitor.pending(), (2, 0));
        monitor.delete_tuples(&[19]).unwrap();
        let (result, _) = monitor.refresh().unwrap();
        assert_eq!(monitor.relation().len(), 21);
        assert_eq!(
            rendered(&result),
            canonical_remine(*monitor.config(), monitor.relation())
        );
    }

    /// Two integer columns with identical value sets: the default space
    /// admits the cross-column predicates at construction.
    fn overlapping_pair_relation(n: i64) -> Relation {
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Integer)]);
        let mut b = Relation::builder(schema);
        for i in 0..n {
            b.push_row(vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
        b.build()
    }

    #[test]
    fn drift_surfaces_rebuild_required_until_rebuilt_or_recovered() {
        let base = overlapping_pair_relation(5);
        let config = MinerConfig::new(0.0);
        let mut monitor = AdcMonitor::new(config, &base);
        monitor.refresh().unwrap();

        // Flood both columns with disjoint fresh values: the shared
        // fraction sinks to 5/25 = 0.2 < 0.3, flipping the admission.
        let flood: Vec<Vec<Value>> = (0..20)
            .map(|v| vec![Value::Int(1000 + v), Value::Int(100 + v)])
            .collect();
        monitor.insert_tuples(flood);
        let err = monitor.refresh().unwrap_err();
        let MonitorError::RebuildRequired(drift) = &err else {
            panic!("expected RebuildRequired, got {err:?}");
        };
        assert_eq!(drift.flips.len(), 1);
        assert_eq!((drift.flips[0].left, drift.flips[0].right), (0, 1));
        assert!(drift.flips[0].was_admitted);
        assert!(drift.flips[0].fraction < 0.3);
        assert!(err.to_string().contains("rebuild"));

        // The batch itself was applied — only the answer is withheld — and
        // the frozen space genuinely no longer matches a fresh build.
        assert_eq!(monitor.relation().len(), 25);
        assert_eq!(monitor.pending(), (0, 0));
        let fresh = PredicateSpace::build(monitor.relation(), config.space);
        assert!(
            fresh.len() < monitor.space().len(),
            "a fresh space must drop the no-longer-admitted cross predicates"
        );

        // Drift is persistent state, not an event: an empty refresh reports
        // it again.
        assert!(matches!(
            monitor.refresh(),
            Err(MonitorError::RebuildRequired(_))
        ));

        // A rebuilt monitor answers over the space the data now implies.
        let mut rebuilt = AdcMonitor::new(config, monitor.relation());
        let (result, _) = rebuilt.refresh().unwrap();
        assert_eq!(
            rendered(&result),
            canonical_remine(config, rebuilt.relation())
        );

        // Retracting the flood restores the ratios; the original monitor
        // answers again — via a restart, because drift dropped its cache.
        monitor.delete_tuples(&(5..25).collect::<Vec<_>>()).unwrap();
        let (result, stats) = monitor.refresh().unwrap();
        assert_eq!(stats.path, RefreshPath::Restart, "drift dropped the cache");
        assert_eq!(
            rendered(&result),
            canonical_remine(config, monitor.relation())
        );
        // And the cache works again afterwards.
        let (_, stats) = monitor.refresh().unwrap();
        assert!(stats.repaired());
    }

    #[test]
    fn same_column_only_monitors_never_report_drift() {
        // The same-column-only fragment has no cross-column predicates, so
        // no churn can flip anything; the tracker is inert and refreshes
        // never fail with RebuildRequired.
        let base = overlapping_pair_relation(4);
        let config = MinerConfig::new(0.0).with_space(SpaceConfig::same_column_only());
        let mut monitor = AdcMonitor::new(config, &base);
        monitor.refresh().unwrap();
        let flood: Vec<Vec<Value>> = (0..30)
            .map(|v| vec![Value::Int(500 + v), Value::Int(900 + v)])
            .collect();
        monitor.insert_tuples(flood);
        let (result, _) = monitor.refresh().unwrap();
        assert_eq!(
            rendered(&result),
            canonical_remine(config, monitor.relation())
        );
    }
}
