//! The end-to-end `ADCMiner` pipeline (Figure 1 of the paper).

use crate::enumeration::{enumerate_adcs, run_adcs, EnumerationOptions, TruncationInfo};
use crate::sampling;
use adc_approx::{ApproxKind, ApproximationFunction, SampleAdjustedF1};
use adc_data::Relation;
use adc_evidence::{
    ClusterEvidenceBuilder, Evidence, EvidenceBuilder, NaiveEvidenceBuilder,
    ParallelEvidenceBuilder, SweepEvidenceBuilder,
};
use adc_hitting::{ApproxEnumStats, BranchStrategy, SearchBudget, SearchOrder, SuspendedSearch};
use adc_predicates::{DenialConstraint, PredicateSpace, SpaceConfig};
use std::time::{Duration, Instant};

/// Which evidence-set builder the miner uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvidenceStrategy {
    /// The optimised cluster/bitmask builder (DCFinder-style, default).
    #[default]
    Cluster,
    /// The naive per-pair per-predicate builder (AFASTDC-style).
    Naive,
    /// The tiled multi-threaded cluster builder; produces output identical
    /// to [`EvidenceStrategy::Cluster`] (deterministic merge), only faster
    /// on multi-core machines.
    Parallel {
        /// Worker threads (`0` = all available cores).
        threads: usize,
        /// Outer rows per tile (`0` = automatic sizing).
        tile_rows: usize,
    },
    /// The parallel sub-quadratic sort/PLI sweep builder: identical-row
    /// classes with closed-form pair counts, refined per left class into
    /// equal-outcome intervals via per-column sorted class codes, with
    /// per-class work distributed over worker threads (see
    /// `adc_evidence::sweep`). Produces evidence **canonically** equal to
    /// [`EvidenceStrategy::Cluster`] — same multiset, possibly different
    /// entry order (normalized by `Evidence::canonicalize`) — and
    /// bit-for-bit identical across thread counts.
    Sweep {
        /// Worker threads (`0` = all available cores).
        threads: usize,
    },
}

impl EvidenceStrategy {
    /// Instantiate the evidence builder this strategy selects.
    pub fn builder(&self) -> Box<dyn EvidenceBuilder> {
        match *self {
            EvidenceStrategy::Cluster => Box::new(ClusterEvidenceBuilder),
            EvidenceStrategy::Naive => Box::new(NaiveEvidenceBuilder),
            EvidenceStrategy::Parallel { threads, tile_rows } => {
                Box::new(ParallelEvidenceBuilder { threads, tile_rows })
            }
            EvidenceStrategy::Sweep { threads } => Box::new(SweepEvidenceBuilder::new(threads)),
        }
    }
}

/// Configuration of one mining run.
#[derive(Debug, Clone, Copy)]
pub struct MinerConfig {
    /// Approximation threshold ε ≥ 0.
    pub epsilon: f64,
    /// Which approximation function to use (f1, f2, or f3).
    pub approx: ApproxKind,
    /// Predicate-space generation options.
    pub space: SpaceConfig,
    /// Fraction of tuples to sample (1.0 mines the full relation).
    pub sample_fraction: f64,
    /// RNG seed for the sampler.
    pub seed: u64,
    /// Evidence builder selection.
    pub evidence: EvidenceStrategy,
    /// Branching strategy of the enumeration algorithm.
    pub strategy: BranchStrategy,
    /// When sampling with `f1`, adjust the acceptance threshold with the
    /// confidence margin of Section 7 (`f₁'`) at this α. `None` uses the raw
    /// function on the sample.
    pub confidence_alpha: Option<f64>,
    /// Optional cap on the number of returned DCs.
    pub max_dcs: Option<usize>,
    /// Frontier order of the enumeration engine. With
    /// [`SearchOrder::ShortestFirst`], DCs are mined in nondecreasing
    /// predicate count, so `max_dcs` (and any budget) keeps the entire
    /// shortest part of the minimal frontier instead of a DFS-order prefix.
    pub order: SearchOrder,
    /// Anytime budget (search nodes, wall-clock deadline, emitted covers).
    /// Exceeding it ends the run early and is reported in
    /// [`MiningResult::truncation`].
    pub budget: SearchBudget,
}

impl MinerConfig {
    /// Default configuration for a threshold: `f1`, full data, optimised
    /// evidence builder, max-intersection branching.
    pub fn new(epsilon: f64) -> Self {
        MinerConfig {
            epsilon,
            approx: ApproxKind::F1,
            space: SpaceConfig::default(),
            sample_fraction: 1.0,
            seed: 0,
            evidence: EvidenceStrategy::Cluster,
            strategy: BranchStrategy::MaxIntersection,
            confidence_alpha: None,
            max_dcs: None,
            order: SearchOrder::default(),
            budget: SearchBudget::default(),
        }
    }

    /// `true` when this configuration mines with **exact** semantics: at
    /// ε = 0 a predicate set is an answer iff it hits every evidence entry,
    /// so multiplicities (and hence the `ε·n(n−1)` violation budget) are
    /// irrelevant. This is the flag differential paths branch on — exactness
    /// is a semantic property of the ε = 0 configuration, not a float
    /// comparison that happens to work: any ε > 0 puts answers on a moving
    /// count threshold and forces a restart per refresh.
    pub fn is_exact(&self) -> bool {
        self.epsilon == 0.0
    }

    /// Select the approximation function.
    pub fn with_approx(mut self, approx: ApproxKind) -> Self {
        self.approx = approx;
        self
    }

    /// Mine from a uniform sample of the given fraction of tuples.
    pub fn with_sample(mut self, fraction: f64, seed: u64) -> Self {
        self.sample_fraction = fraction;
        self.seed = seed;
        self
    }

    /// Select the predicate-space configuration.
    pub fn with_space(mut self, space: SpaceConfig) -> Self {
        self.space = space;
        self
    }

    /// Select the evidence builder.
    pub fn with_evidence(mut self, evidence: EvidenceStrategy) -> Self {
        self.evidence = evidence;
        self
    }

    /// Build the evidence set on `threads` worker threads (`0` = all
    /// available cores) with automatic tile sizing. Shorthand for
    /// [`EvidenceStrategy::Parallel`].
    pub fn with_parallel_evidence(mut self, threads: usize) -> Self {
        self.evidence = EvidenceStrategy::Parallel {
            threads,
            tile_rows: 0,
        };
        self
    }

    /// Build the evidence set with the parallel sub-quadratic sort/PLI
    /// sweep kernel on all available cores. Shorthand for
    /// [`EvidenceStrategy::Sweep`] with `threads: 0`.
    pub fn with_sweep_evidence(mut self) -> Self {
        self.evidence = EvidenceStrategy::Sweep { threads: 0 };
        self
    }

    /// Select the enumeration branch strategy.
    pub fn with_strategy(mut self, strategy: BranchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Use the sample-adjusted acceptance rule (`f₁'`) at confidence `1 − α`.
    pub fn with_confidence(mut self, alpha: f64) -> Self {
        self.confidence_alpha = Some(alpha);
        self
    }

    /// Cap the number of returned DCs.
    pub fn with_max_dcs(mut self, max: usize) -> Self {
        self.max_dcs = Some(max);
        self
    }

    /// Select the enumeration frontier order (shortest-first makes capped
    /// and budgeted runs keep the shortest minimal ADCs).
    pub fn with_order(mut self, order: SearchOrder) -> Self {
        self.order = order;
        self
    }

    /// Bound the enumeration by nodes, wall-clock time, and/or emitted
    /// covers — the anytime-mining knob. Truncated runs are flagged in
    /// [`MiningResult::truncation`].
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Wall-clock breakdown of one mining run, matching the decomposition the
/// paper reports in Figure 8 (evidence-set construction vs enumeration).
#[derive(Debug, Clone, Copy, Default)]
pub struct Timings {
    /// Predicate-space generation.
    pub predicate_space: Duration,
    /// Sampling.
    pub sampling: Duration,
    /// Evidence-set construction.
    pub evidence: Duration,
    /// ADC enumeration.
    pub enumeration: Duration,
}

impl Timings {
    /// Total pipeline time.
    pub fn total(&self) -> Duration {
        self.predicate_space + self.sampling + self.evidence + self.enumeration
    }
}

/// Opaque resume token of a budget-cut mining run: the suspended search
/// frontier together with the predicate space and the already-built evidence
/// set, so [`AdcMiner::resume`] continues the enumeration **without**
/// redoing the `O(n²)` evidence scan. Resuming with the same miner
/// configuration replays the identical deterministic traversal — the DC
/// sequences of the slices concatenate to the single-run sequence.
#[derive(Debug, Clone)]
pub struct MiningResume {
    space: PredicateSpace,
    evidence: Evidence,
    mined_tuples: usize,
    enumeration: SuspendedSearch,
}

impl MiningResume {
    /// Assemble a token from parts the caller already holds (the monitor's
    /// refresh path, which maintains the evidence differentially instead of
    /// scanning for it).
    pub(crate) fn from_parts(
        space: PredicateSpace,
        evidence: Evidence,
        mined_tuples: usize,
        enumeration: SuspendedSearch,
    ) -> Self {
        MiningResume {
            space,
            evidence,
            mined_tuples,
            enumeration,
        }
    }

    /// Number of pending search nodes the token holds (a proxy for its
    /// memory footprint; bound it with
    /// [`SearchBudget::with_max_frontier_nodes`]).
    pub fn frontier_len(&self) -> usize {
        self.enumeration.frontier_len()
    }

    /// Search nodes expanded so far across every slice.
    pub fn total_nodes_expanded(&self) -> u64 {
        self.enumeration.total_nodes_expanded()
    }
}

/// The output of [`AdcMiner::mine`].
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// The discovered minimal ADCs.
    pub dcs: Vec<DenialConstraint>,
    /// The predicate space the DCs refer to.
    pub space: PredicateSpace,
    /// Number of tuples actually mined (after sampling).
    pub mined_tuples: usize,
    /// Number of distinct evidence sets.
    pub distinct_evidence: usize,
    /// Total ordered tuple pairs in the mined relation.
    pub total_pairs: u64,
    /// Wall-clock breakdown.
    pub timings: Timings,
    /// Enumeration counters.
    pub enum_stats: ApproxEnumStats,
    /// `None` when the enumeration was exhaustive (the DCs are the complete
    /// answer set); `Some` when the DC cap or the search budget cut the run
    /// short (the DCs are an anytime prefix — under shortest-first order,
    /// the shortest part of the minimal frontier).
    pub truncation: Option<TruncationInfo>,
    /// Present exactly when the run was truncated: hand it to
    /// [`AdcMiner::resume`] to continue mining where this run stopped.
    pub resume: Option<MiningResume>,
}

impl MiningResult {
    /// Render every discovered DC as text (one per line).
    pub fn render(&self) -> String {
        self.dcs
            .iter()
            .map(|dc| dc.display(&self.space).to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// The ADCMiner pipeline: predicate space → sample → evidence → enumeration.
#[derive(Debug, Clone, Copy)]
pub struct AdcMiner {
    config: MinerConfig,
}

impl AdcMiner {
    /// Create a miner with the given configuration.
    pub fn new(config: MinerConfig) -> Self {
        AdcMiner { config }
    }

    /// The miner's configuration.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Run the full pipeline on a relation.
    pub fn mine(&self, relation: &Relation) -> MiningResult {
        let cfg = &self.config;

        // 1. Predicate space (always built on the full relation so that the
        //    30% shared-values statistics are not distorted by sampling).
        let t0 = Instant::now();
        let space = PredicateSpace::build(relation, cfg.space);
        let predicate_space_time = t0.elapsed();

        // 2. Sample.
        let t1 = Instant::now();
        let mined: Relation = if cfg.sample_fraction >= 1.0 {
            relation.clone()
        } else {
            sampling::draw_sample(relation, cfg.sample_fraction, cfg.seed)
        };
        let sampling_time = t1.elapsed();

        // 3. Evidence set.
        let t2 = Instant::now();
        let track_vios = cfg.approx.instantiate().requires_vios();
        let evidence: Evidence = cfg.evidence.builder().build(&mined, &space, track_vios);
        let evidence_time = t2.elapsed();

        // 4. Enumeration.
        let t3 = Instant::now();
        let function = self.approximation_function();
        let options = self.enumeration_options();
        let outcome = enumerate_adcs(&space, &evidence, function.as_ref(), &options);
        let enumeration_time = t3.elapsed();

        let mined_tuples = mined.len();
        let distinct_evidence = evidence.evidence_set.distinct_count();
        let total_pairs = evidence.evidence_set.total_pairs();
        MiningResult {
            dcs: outcome.dcs,
            mined_tuples,
            distinct_evidence,
            total_pairs,
            resume: outcome.resume.map(|enumeration| MiningResume {
                space: space.clone(),
                evidence,
                mined_tuples,
                enumeration,
            }),
            space,
            timings: Timings {
                predicate_space: predicate_space_time,
                sampling: sampling_time,
                evidence: evidence_time,
                enumeration: enumeration_time,
            },
            enum_stats: outcome.stats,
            truncation: outcome.truncation,
        }
    }

    /// Continue a budget-cut mining run from the token carried by
    /// [`MiningResult::resume`]. The evidence set stored in the token is
    /// reused — no sampling and no `O(n²)` evidence scan happens here — and
    /// the enumeration picks up exactly where the previous slice stopped.
    ///
    /// The miner configuration must be the one that produced the token
    /// (same ε, approximation function, strategy, and order); the budget
    /// and `max_dcs` apply per slice, so a caller can mine in fixed-size
    /// slices by resuming in a loop until [`MiningResult::resume`] is
    /// `None`. The concatenated DC sequence across slices is identical to a
    /// single uncut run's.
    pub fn resume(&self, resume: MiningResume) -> MiningResult {
        let MiningResume {
            space,
            evidence,
            mined_tuples,
            enumeration,
        } = resume;
        let t = Instant::now();
        let function = self.approximation_function();
        let options = self.enumeration_options();
        let outcome = run_adcs(
            &space,
            &evidence,
            function.as_ref(),
            &options,
            Some(enumeration),
            None,
        );
        let enumeration_time = t.elapsed();

        let distinct_evidence = evidence.evidence_set.distinct_count();
        let total_pairs = evidence.evidence_set.total_pairs();
        MiningResult {
            dcs: outcome.dcs,
            mined_tuples,
            distinct_evidence,
            total_pairs,
            resume: outcome.resume.map(|enumeration| MiningResume {
                space: space.clone(),
                evidence,
                mined_tuples,
                enumeration,
            }),
            space,
            timings: Timings {
                enumeration: enumeration_time,
                ..Timings::default()
            },
            enum_stats: outcome.stats,
            truncation: outcome.truncation,
        }
    }

    /// The approximation function the configuration selects (shared by
    /// [`AdcMiner::mine`], [`AdcMiner::resume`], and
    /// [`crate::monitor::AdcMonitor`] so every refresh scores identically).
    pub(crate) fn approximation_function(&self) -> Box<dyn ApproximationFunction> {
        let cfg = &self.config;
        match (cfg.approx, cfg.confidence_alpha) {
            (ApproxKind::F1, Some(alpha)) if cfg.sample_fraction < 1.0 => {
                Box::new(SampleAdjustedF1::with_alpha(alpha))
            }
            (kind, _) => kind.instantiate(),
        }
    }

    /// The enumeration options the configuration selects.
    pub(crate) fn enumeration_options(&self) -> EnumerationOptions {
        let cfg = &self.config;
        let mut options = EnumerationOptions::new(cfg.epsilon);
        options.strategy = cfg.strategy;
        options.max_dcs = cfg.max_dcs;
        options.order = cfg.order;
        options.budget = cfg.budget;
        options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use adc_data::{AttributeType, Schema, Value};
    use adc_predicates::TupleRole;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A synthetic income/tax relation where the income→tax monotonicity rule
    /// holds except for a small number of planted exceptions.
    fn tax_relation(n: usize, exceptions: usize, seed: u64) -> Relation {
        let schema = Schema::of(&[
            ("State", AttributeType::Text),
            ("Zip", AttributeType::Integer),
            ("Income", AttributeType::Integer),
            ("Tax", AttributeType::Integer),
        ]);
        let mut rng = StdRng::seed_from_u64(seed);
        let states = ["NY", "WA", "IL"];
        let mut b = Relation::builder(schema);
        for i in 0..n {
            let state_idx = rng.gen_range(0..states.len());
            let income = rng.gen_range(20..100) * 1000;
            let tax = if i < exceptions { 0 } else { income / 10 };
            b.push_row(vec![
                Value::from(states[state_idx]),
                Value::Int(10_000 + state_idx as i64),
                Value::Int(income),
                Value::Int(tax),
            ])
            .unwrap();
        }
        b.build()
    }

    #[test]
    fn full_pipeline_discovers_planted_rules() {
        let r = tax_relation(60, 2, 5);
        let result = AdcMiner::new(MinerConfig::new(0.05)).mine(&r);
        assert!(!result.dcs.is_empty());
        assert_eq!(result.mined_tuples, 60);
        assert!(result.total_pairs == 60 * 59);
        assert!(result.distinct_evidence > 0);
        // The zip/state consistency rule has no exceptions, so a DC implying
        // it must be found: ¬(Zip = Zip' ∧ State ≠ State').
        let space = &result.space;
        let golden = DenialConstraint::new(vec![
            space.find("Zip", "=", TupleRole::Other, "Zip").unwrap(),
            space.find("State", "≠", TupleRole::Other, "State").unwrap(),
        ]);
        assert!(
            result.dcs.iter().any(|d| metrics::implies(d, &golden)),
            "zip→state rule not implied by any of:\n{}",
            result.render()
        );
        // The income/tax rule holds up to the 2 planted exceptions.
        let tax_rule = DenialConstraint::new(vec![
            space.find("State", "=", TupleRole::Other, "State").unwrap(),
            space
                .find("Income", ">", TupleRole::Other, "Income")
                .unwrap(),
            space.find("Tax", "≤", TupleRole::Other, "Tax").unwrap(),
        ]);
        assert!(
            result.dcs.iter().any(|d| metrics::implies(d, &tax_rule)),
            "income/tax rule not implied by any of:\n{}",
            result.render()
        );
    }

    #[test]
    fn sampling_reduces_work_and_preserves_most_rules() {
        let r = tax_relation(120, 3, 11);
        let full = AdcMiner::new(MinerConfig::new(0.05)).mine(&r);
        let sampled = AdcMiner::new(MinerConfig::new(0.05).with_sample(0.4, 3)).mine(&r);
        assert_eq!(sampled.mined_tuples, 48);
        assert!(sampled.total_pairs < full.total_pairs);
        let f1 = metrics::f1_score(&sampled.dcs, &full.dcs);
        assert!(f1 > 0.3, "sample-vs-full F1 too low: {f1}");
    }

    #[test]
    fn all_functions_and_builders_work_end_to_end() {
        let r = tax_relation(30, 1, 2);
        for kind in ApproxKind::ALL {
            for evidence in [
                EvidenceStrategy::Cluster,
                EvidenceStrategy::Naive,
                EvidenceStrategy::Parallel {
                    threads: 4,
                    tile_rows: 0,
                },
                EvidenceStrategy::Sweep { threads: 2 },
            ] {
                let cfg = MinerConfig::new(0.1)
                    .with_approx(kind)
                    .with_evidence(evidence);
                let result = AdcMiner::new(cfg).mine(&r);
                assert!(
                    !result.dcs.is_empty(),
                    "{kind:?}/{evidence:?} found nothing"
                );
                assert!(result.timings.total() > Duration::ZERO);
            }
        }
    }

    #[test]
    fn confidence_adjusted_sampling_is_more_conservative() {
        let epsilon = 0.02;
        let r = tax_relation(100, 4, 17);
        let plain = AdcMiner::new(MinerConfig::new(epsilon).with_sample(0.3, 1)).mine(&r);
        let adjusted = AdcMiner::new(
            MinerConfig::new(epsilon)
                .with_sample(0.3, 1)
                .with_confidence(0.05),
        )
        .mine(&r);
        assert!(!plain.dcs.is_empty());
        // The adjusted rule demands a margin below ε, so every DC it accepts
        // must also be ε-acceptable under the raw rule on the same sample.
        // (Counting DCs would be wrong: tightening the acceptance threshold
        // can *increase* the number of minimal covers, as each rejected short
        // DC may be replaced by several longer specialisations.)
        let sample = crate::sampling::draw_sample(&r, 0.3, 1);
        let total = sample.ordered_pair_count() as f64;
        for dc in &adjusted.dcs {
            let rate = dc.count_violations(&adjusted.space, &sample) as f64 / total;
            assert!(
                rate <= epsilon + 1e-12,
                "adjusted-accepted DC {} has sample violation rate {rate} > ε",
                dc.display(&adjusted.space)
            );
        }
    }

    #[test]
    fn max_dcs_is_respected() {
        let r = tax_relation(40, 1, 9);
        let result = AdcMiner::new(MinerConfig::new(0.1).with_max_dcs(2)).mine(&r);
        assert_eq!(result.dcs.len(), 2);
    }

    #[test]
    fn uncapped_mining_is_exhaustive_and_capped_mining_reports_truncation() {
        let r = tax_relation(40, 1, 9);
        let full = AdcMiner::new(MinerConfig::new(0.1)).mine(&r);
        assert!(full.truncation.is_none(), "uncapped run must be exhaustive");
        assert!(full.dcs.len() > 2);
        let capped = AdcMiner::new(
            MinerConfig::new(0.1)
                .with_max_dcs(2)
                .with_order(SearchOrder::ShortestFirst),
        )
        .mine(&r);
        assert_eq!(capped.dcs.len(), 2);
        assert!(
            capped.truncation.is_some(),
            "capped run must flag truncation"
        );
    }

    #[test]
    fn shortest_first_order_mines_the_same_dcs_sorted_by_length() {
        let r = tax_relation(40, 1, 9);
        let dfs = AdcMiner::new(MinerConfig::new(0.05)).mine(&r);
        let sf =
            AdcMiner::new(MinerConfig::new(0.05).with_order(SearchOrder::ShortestFirst)).mine(&r);
        let canon = |m: &MiningResult| {
            let mut v: Vec<_> = m.dcs.iter().map(|d| d.predicate_ids().to_vec()).collect();
            v.sort();
            v
        };
        assert_eq!(canon(&dfs), canon(&sf));
        let lengths: Vec<usize> = sf.dcs.iter().map(|d| d.len()).collect();
        let mut sorted = lengths.clone();
        sorted.sort_unstable();
        assert_eq!(lengths, sorted);
    }

    #[test]
    fn deadline_budget_bounds_enumeration_time() {
        use adc_hitting::TruncationReason;
        let r = tax_relation(80, 2, 21);
        let budget = SearchBudget::unlimited().with_deadline(Duration::ZERO);
        let result = AdcMiner::new(
            MinerConfig::new(0.1)
                .with_order(SearchOrder::ShortestFirst)
                .with_budget(budget),
        )
        .mine(&r);
        // A zero deadline admits no expansion at all: nothing mined, and the
        // truncation is attributed to the deadline.
        assert!(result.dcs.is_empty());
        assert_eq!(
            result.truncation.map(|t| t.reason),
            Some(TruncationReason::Deadline)
        );
    }

    #[test]
    fn budget_cut_mining_resumes_in_slices_to_the_single_run_result() {
        let r = tax_relation(60, 2, 5);
        let config = MinerConfig::new(0.05).with_order(SearchOrder::ShortestFirst);
        let reference = AdcMiner::new(config).mine(&r);
        assert!(reference.truncation.is_none());
        assert!(reference.resume.is_none());

        let sliced_config = config.with_budget(SearchBudget::unlimited().with_max_nodes(40));
        let miner = AdcMiner::new(sliced_config);
        let mut result = miner.mine(&r);
        let mut dcs = std::mem::take(&mut result.dcs);
        let mut slices = 1;
        while let Some(token) = result.resume.take() {
            slices += 1;
            assert!(slices < 10_000, "runaway resume loop");
            result = miner.resume(token);
            // Resumed slices reuse the stored evidence: no new evidence scan.
            assert_eq!(result.timings.evidence, Duration::ZERO);
            dcs.extend(std::mem::take(&mut result.dcs));
        }
        assert!(slices > 2, "the slice budget never fired");
        assert!(
            result.truncation.is_none(),
            "final slice must be exhaustive"
        );
        let ids = |dcs: &[DenialConstraint]| {
            dcs.iter()
                .map(|d| d.predicate_ids().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&dcs), ids(&reference.dcs));
        assert_eq!(result.mined_tuples, reference.mined_tuples);
        assert_eq!(result.distinct_evidence, reference.distinct_evidence);
    }

    #[test]
    fn builder_strategies_agree_on_results() {
        let r = tax_relation(30, 1, 4);
        let a =
            AdcMiner::new(MinerConfig::new(0.05).with_evidence(EvidenceStrategy::Cluster)).mine(&r);
        let b =
            AdcMiner::new(MinerConfig::new(0.05).with_evidence(EvidenceStrategy::Naive)).mine(&r);
        let c = AdcMiner::new(MinerConfig::new(0.05).with_parallel_evidence(3)).mine(&r);
        let d = AdcMiner::new(MinerConfig::new(0.05).with_sweep_evidence()).mine(&r);
        let ids = |m: &MiningResult| {
            let mut v: Vec<_> = m.dcs.iter().map(|d| d.predicate_ids().to_vec()).collect();
            v.sort();
            v
        };
        assert_eq!(ids(&a), ids(&d));
        assert_eq!(ids(&a), ids(&b));
        // The parallel builder's merge is deterministic, so its results match
        // the sequential cluster builder's *without* sorting normalisation.
        let ids_c: Vec<_> = c.dcs.iter().map(|d| d.predicate_ids().to_vec()).collect();
        let ids_a_raw: Vec<_> = a.dcs.iter().map(|d| d.predicate_ids().to_vec()).collect();
        assert_eq!(ids_a_raw, ids_c);
    }

    #[test]
    fn render_lists_one_dc_per_line() {
        let r = tax_relation(20, 1, 8);
        let result = AdcMiner::new(MinerConfig::new(0.1).with_max_dcs(3)).mine(&r);
        let text = result.render();
        assert_eq!(text.lines().count(), result.dcs.len());
        assert!(text.contains("∀t,t'"));
    }
}
