//! `ADCEnum` at the DC level: mapping between evidence sets / hitting sets
//! and denial constraints.
//!
//! The reduction (Section 6 of the paper): a DC `ϕ` is (approximately)
//! satisfied exactly when its **complement set** `Ŝ_ϕ` (approximately) hits
//! every evidence set. The generic enumerator of `adc-hitting` therefore
//! enumerates minimal approximate hitting sets `X` over the predicate
//! universe; this module turns each `X` into the DC whose predicate set is
//! the element-wise complement of `X`. Structure-group suppression inside the
//! search keeps trivially valid constraints from being emitted at all; only
//! the uninformative empty constraint is dropped here.

use adc_approx::{ApproxContext, ApproximationFunction};
use adc_data::FixedBitSet;
use adc_evidence::Evidence;
use adc_hitting::{
    ApproxEnumConfig, ApproxEnumStats, BranchStrategy, Search, SearchBudget, SearchOrder,
    SetSystem, SuspendedSearch, TruncationReason,
};
use adc_predicates::{DenialConstraint, PredicateSpace};
use std::fmt;

/// How and where a non-exhaustive enumeration was cut short. Attached to
/// [`EnumerationOutcome`] and `MiningResult` so callers can tell an exact
/// (complete) answer set from an anytime prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncationInfo {
    /// What stopped the search: a node or deadline budget, or the result
    /// cap ([`TruncationReason::MaxEmitted`]) — the smaller of `max_dcs` and
    /// `budget.max_emitted`. Every emitted cover is one returned DC (see
    /// [`enumerate_adcs`]), so a run cut by the result cap holds exactly
    /// that many DCs.
    pub reason: TruncationReason,
    /// Under [`SearchOrder::ShortestFirst`]: every minimal ADC with strictly
    /// fewer predicates than this was emitted — the returned DCs contain the
    /// *entire* frontier below that size. `None` under DFS order, where the
    /// kept prefix is arbitrary.
    pub complete_below_size: Option<usize>,
}

impl fmt::Display for TruncationInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let reason = match self.reason {
            TruncationReason::MaxNodes => "node budget",
            TruncationReason::Deadline => "deadline",
            TruncationReason::MaxEmitted => "result cap",
            TruncationReason::Callback => "caller stop",
        };
        match self.complete_below_size {
            Some(size) => write!(f, "truncated by {reason}; complete below size {size}"),
            None => write!(f, "truncated by {reason}"),
        }
    }
}

/// Result of one enumeration run.
#[derive(Debug, Clone)]
pub struct EnumerationOutcome {
    /// The discovered minimal ADCs (non-trivial, non-empty), in emission order.
    pub dcs: Vec<DenialConstraint>,
    /// Counters from the underlying hitting-set enumeration.
    pub stats: ApproxEnumStats,
    /// `None` when the enumeration was exhaustive; `Some` when the DC cap or
    /// the search budget cut it short.
    pub truncation: Option<TruncationInfo>,
    /// Present exactly when the run was truncated: the engine's pending
    /// frontier, which [`run_adcs`] continues from (with the same space,
    /// evidence, function, and options). Callers reach it through
    /// `AdcMiner::resume`, which keeps the evidence the token belongs to.
    pub(crate) resume: Option<SuspendedSearch>,
}

/// Options for [`enumerate_adcs`].
#[derive(Debug, Clone, Copy)]
pub struct EnumerationOptions {
    /// Approximation threshold ε.
    pub epsilon: f64,
    /// Branching strategy (the paper defaults to max-intersection).
    pub strategy: BranchStrategy,
    /// Enable the `WillCover` pruning (disable only for ablations).
    pub will_cover_pruning: bool,
    /// Stop after this many DCs (`None` = exhaustive).
    pub max_dcs: Option<usize>,
    /// Frontier order of the search engine. Under
    /// [`SearchOrder::ShortestFirst`] DCs are emitted in nondecreasing
    /// predicate count, so `max_dcs` keeps the shortest minimal ADCs instead
    /// of an arbitrary DFS prefix.
    pub order: SearchOrder,
    /// Anytime budget (nodes, wall-clock deadline, emitted covers) for the
    /// search engine; exceeding it is reported via
    /// [`EnumerationOutcome::truncation`].
    pub budget: SearchBudget,
}

impl EnumerationOptions {
    /// Default options for a threshold.
    pub fn new(epsilon: f64) -> Self {
        EnumerationOptions {
            epsilon,
            strategy: BranchStrategy::default(),
            will_cover_pruning: true,
            max_dcs: None,
            order: SearchOrder::default(),
            budget: SearchBudget::default(),
        }
    }

    /// Select the frontier order.
    pub fn with_order(mut self, order: SearchOrder) -> Self {
        self.order = order;
        self
    }

    /// Bound the search by nodes, wall-clock time, and/or emitted covers.
    pub fn with_budget(mut self, budget: SearchBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Enumerate the minimal ADCs of the database summarised by `evidence`,
/// w.r.t. the approximation function `f` and threshold `options.epsilon`.
///
/// `evidence` must have been built over `space` (same predicate universe).
/// If `f` requires the `vios` index (`f2`, `f3`), the evidence must have been
/// built with `track_vios = true`.
///
/// Every cover the search emits is returned as one DC, so `max_dcs` is an
/// exact cap: a capped run returns the first `min(max_dcs, |answer|)` DCs of
/// the uncapped run's emission sequence. Budget-cut runs resume through
/// `AdcMiner::resume`.
pub fn enumerate_adcs(
    space: &PredicateSpace,
    evidence: &Evidence,
    f: &dyn ApproximationFunction,
    options: &EnumerationOptions,
) -> EnumerationOutcome {
    run_adcs(space, evidence, f, options, None, None)
}

/// Convert one raw hitting-set cover into its denial constraint: `None` for
/// the empty cover (the uninformative `¬true`) and for covers whose
/// complement DC is trivially valid. The grouped enumeration never emits the
/// latter, but the monitor's cover repair runs without structure groups and
/// does.
pub(crate) fn cover_to_dc(space: &PredicateSpace, cover: &FixedBitSet) -> Option<DenialConstraint> {
    if cover.is_empty() {
        return None;
    }
    let dc = DenialConstraint::new(cover.iter().map(|e| space.complement_of(e)).collect());
    if dc.is_trivial(space) {
        None
    } else {
        Some(dc)
    }
}

/// The enumeration behind [`enumerate_adcs`], `AdcMiner::resume`, and the
/// monitor's restart path. Continues the run `resume` was cut from when
/// given (`options.budget` and `options.max_dcs` then apply to this slice
/// alone), and copies every raw cover the engine emits into `capture` when
/// given: the monitor's cover repair is exact only when handed the complete
/// transversal family, the empty cover included.
pub(crate) fn run_adcs(
    space: &PredicateSpace,
    evidence: &Evidence,
    f: &dyn ApproximationFunction,
    options: &EnumerationOptions,
    resume: Option<SuspendedSearch>,
    mut capture: Option<&mut Vec<FixedBitSet>>,
) -> EnumerationOutcome {
    let evidence_set = &evidence.evidence_set;
    assert_eq!(
        evidence_set.num_predicates(),
        space.len(),
        "evidence was built over a different predicate space"
    );

    let subsets: Vec<FixedBitSet> = evidence_set
        .entries()
        .iter()
        .map(|e| e.set.clone())
        .collect();
    let system = SetSystem::new(space.len(), subsets);

    let ctx = match (f.requires_vios(), evidence.vios.as_ref()) {
        (true, Some(vios)) => ApproxContext::with_vios(evidence_set, vios),
        // conformance: allow(panic) — configuration precondition with an explanatory message; a typed error here would just be rethrown by every harness caller
        (true, None) => panic!(
            "approximation function `{}` requires the vios index; build evidence with track_vios = true",
            f.name()
        ),
        (false, _) => ApproxContext::new(evidence_set),
    };
    let score = |hitting_set: &FixedBitSet| f.score(&ctx, hitting_set);
    let groups: Vec<usize> = (0..space.len()).map(|i| space.group_of(i)).collect();
    let config = ApproxEnumConfig::new(options.epsilon)
        .with_will_cover_pruning(options.will_cover_pruning)
        .with_element_groups(&groups);
    let search = Search::approx(&score, config)
        .with_strategy(options.strategy)
        .with_order(options.order);
    let search = match resume {
        Some(token) => search.with_resume(token),
        None => search,
    };

    // The DC cap is the engine's emission cap, exactly. Group suppression
    // lets at most one predicate of each structure group into a cover, and
    // a DC is trivial only through two predicates of one group, so no
    // emitted cover maps to a trivial DC. The empty cover is emitted only as
    // the root's sole answer (every other node with `S = ∅` scores like the
    // root), so no later DC is ever displaced by it.
    let mut budget = options.budget;
    if let Some(max) = options.max_dcs {
        budget.max_emitted = Some(budget.max_emitted.map_or(max, |cap| cap.min(max)));
    }
    let mut dcs = Vec::new();
    let (outcome, next) = search.run(&system, budget, |cover| {
        if let Some(covers) = capture.as_deref_mut() {
            covers.push(cover.clone());
        }
        let dc = cover_to_dc(space, cover);
        debug_assert!(
            dc.is_some() || cover.is_empty(),
            "group suppression let a trivial cover through"
        );
        dcs.extend(dc);
        true
    });

    EnumerationOutcome {
        dcs,
        stats: outcome.into(),
        truncation: outcome.truncation.map(|t| TruncationInfo {
            reason: t.reason,
            complete_below_size: t.complete_below,
        }),
        resume: next,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_approx::{ApproxKind, F1ViolationRate};
    use adc_data::{AttributeType, Relation, Schema, Value};
    use adc_evidence::{ClusterEvidenceBuilder, EvidenceBuilder};
    use adc_predicates::{SpaceConfig, TupleRole};

    /// The full 15-tuple running example of the paper (Table 1).
    pub(crate) fn running_example() -> Relation {
        let schema = Schema::of(&[
            ("Name", AttributeType::Text),
            ("State", AttributeType::Text),
            ("Zip", AttributeType::Integer),
            ("Income", AttributeType::Integer),
            ("Tax", AttributeType::Integer),
        ]);
        let rows: [(&str, &str, i64, i64, i64); 15] = [
            ("Alice", "NY", 11803, 28_000, 2_400),
            ("Mark", "NY", 10102, 42_000, 4_700),
            ("Bob", "NY", 13914, 93_000, 11_800),
            ("Mary", "NY", 10437, 58_000, 6_700),
            ("Alice", "NY", 10437, 26_000, 2_100),
            ("Julia", "WA", 98112, 27_000, 1_400),
            ("Jimmy", "WA", 98112, 24_000, 1_600),
            ("Sam", "WA", 98112, 49_000, 6_800),
            ("Jeff", "WA", 98112, 56_000, 7_800),
            ("Gary", "WA", 98112, 50_000, 7_200),
            ("Ron", "WA", 98112, 58_000, 8_000),
            ("Jennifer", "WA", 98112, 61_000, 8_500),
            ("Adam", "WA", 98112, 20_000, 1_000),
            ("Tim", "IL", 62078, 39_000, 5_000),
            ("Sarah", "IL", 98112, 54_000, 5_000),
        ];
        let mut b = Relation::builder(schema);
        for (n, s, z, i, t) in rows {
            b.push_row(vec![
                n.into(),
                s.into(),
                Value::Int(z),
                Value::Int(i),
                Value::Int(t),
            ])
            .unwrap();
        }
        b.build()
    }

    fn setup(config: SpaceConfig) -> (Relation, PredicateSpace, Evidence) {
        let r = running_example();
        let space = PredicateSpace::build(&r, config);
        let evidence = ClusterEvidenceBuilder.build(&r, &space, true);
        (r, space, evidence)
    }

    #[test]
    fn every_emitted_dc_is_a_minimal_adc() {
        let (r, space, evidence) = setup(SpaceConfig::same_column_only());
        let epsilon = 0.05;
        let out = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(epsilon),
        );
        assert!(!out.dcs.is_empty());
        let total = r.ordered_pair_count() as f64;
        for dc in &out.dcs {
            let violations = dc.count_violations(&space, &r) as f64;
            assert!(
                violations / total <= epsilon + 1e-12,
                "{} violates threshold",
                dc.display(&space)
            );
            // Minimality: removing any predicate must push the DC above ε.
            for &p in dc.predicate_ids() {
                let smaller = DenialConstraint::new(
                    dc.predicate_ids()
                        .iter()
                        .copied()
                        .filter(|&q| q != p)
                        .collect(),
                );
                if smaller.is_empty() {
                    continue;
                }
                let v = smaller.count_violations(&space, &r) as f64;
                assert!(
                    v / total > epsilon,
                    "{} is not minimal (drop {p})",
                    dc.display(&space)
                );
            }
        }
    }

    #[test]
    fn discovers_the_income_tax_rule_at_five_percent() {
        // The motivating constraint ϕ₁ of Example 1.1 is an ADC for f1 at ε = 0.05.
        let (_, space, evidence) = setup(SpaceConfig::default());
        let out = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(0.05),
        );
        let state_eq = space.find("State", "=", TupleRole::Other, "State").unwrap();
        let income_gt = space
            .find("Income", ">", TupleRole::Other, "Income")
            .unwrap();
        let tax_leq = space.find("Tax", "≤", TupleRole::Other, "Tax").unwrap();
        let phi1 = DenialConstraint::new(vec![state_eq, income_gt, tax_leq]);
        let found = out
            .dcs
            .iter()
            .any(|dc| dc.predicate_ids().iter().all(|p| phi1.contains(*p)) && !dc.is_empty());
        assert!(
            found,
            "expected a generalisation of ϕ₁ among {} DCs",
            out.dcs.len()
        );
    }

    #[test]
    fn epsilon_zero_returns_only_valid_dcs() {
        let (r, space, evidence) = setup(SpaceConfig::same_column_only());
        let out = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(0.0),
        );
        for dc in &out.dcs {
            assert!(
                dc.is_valid(&space, &r),
                "{} is not valid",
                dc.display(&space)
            );
        }
        assert!(!out.dcs.is_empty());
    }

    #[test]
    fn no_trivial_or_empty_dcs_are_emitted() {
        let (_, space, evidence) = setup(SpaceConfig::default());
        for epsilon in [0.0, 0.01, 0.1, 0.5] {
            let out = enumerate_adcs(
                &space,
                &evidence,
                &F1ViolationRate,
                &EnumerationOptions::new(epsilon),
            );
            for dc in &out.dcs {
                assert!(!dc.is_empty());
                assert!(!dc.is_trivial(&space), "trivial DC {}", dc.display(&space));
            }
        }
    }

    #[test]
    fn larger_epsilon_never_yields_longer_minimal_dcs_on_average() {
        // Sanity check of the qualitative claim that higher thresholds give
        // more general (shorter) constraints.
        let (_, space, evidence) = setup(SpaceConfig::same_column_only());
        let avg_len = |eps: f64| {
            let out = enumerate_adcs(
                &space,
                &evidence,
                &F1ViolationRate,
                &EnumerationOptions::new(eps),
            );
            let total: usize = out.dcs.iter().map(|d| d.len()).sum();
            total as f64 / out.dcs.len().max(1) as f64
        };
        assert!(avg_len(0.1) <= avg_len(0.0) + 1e-9);
    }

    #[test]
    fn all_approximation_functions_run_end_to_end() {
        let (r, space, evidence) = setup(SpaceConfig::same_column_only());
        for kind in ApproxKind::ALL {
            let f = kind.instantiate();
            let out = enumerate_adcs(&space, &evidence, f.as_ref(), &EnumerationOptions::new(0.1));
            assert!(!out.dcs.is_empty(), "{} produced no DCs", kind);
            assert!(out.stats.recursive_calls > 0);
            // All emitted DCs respect the threshold under their own function.
            let ctx = adc_approx::ApproxContext::with_vios(&evidence.evidence_set, evidence.vios());
            for dc in &out.dcs {
                let cset = dc.complement_set(&space);
                assert!(
                    1.0 - f.score(&ctx, &cset) <= 0.1 + 1e-9,
                    "{} fails {} threshold on {} tuples",
                    dc.display(&space),
                    kind,
                    r.len()
                );
            }
        }
    }

    #[test]
    fn branch_strategies_agree_on_the_result_set() {
        let (_, space, evidence) = setup(SpaceConfig::same_column_only());
        let run = |strategy| {
            let mut opts = EnumerationOptions::new(0.05);
            opts.strategy = strategy;
            let mut dcs: Vec<Vec<usize>> =
                enumerate_adcs(&space, &evidence, &F1ViolationRate, &opts)
                    .dcs
                    .iter()
                    .map(|d| d.predicate_ids().to_vec())
                    .collect();
            dcs.sort();
            dcs
        };
        assert_eq!(
            run(BranchStrategy::MaxIntersection),
            run(BranchStrategy::MinIntersection)
        );
    }

    #[test]
    fn max_dcs_limits_output() {
        let (_, space, evidence) = setup(SpaceConfig::default());
        let mut opts = EnumerationOptions::new(0.1);
        opts.max_dcs = Some(3);
        let out = enumerate_adcs(&space, &evidence, &F1ViolationRate, &opts);
        assert!(out.dcs.len() <= 3);
        assert!(!out.dcs.is_empty());
    }

    #[test]
    fn exhaustive_runs_report_no_truncation() {
        let (_, space, evidence) = setup(SpaceConfig::same_column_only());
        let out = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(0.05),
        );
        assert!(out.truncation.is_none());
    }

    #[test]
    fn shortest_first_emits_shortest_dcs_first_and_same_family() {
        let (_, space, evidence) = setup(SpaceConfig::same_column_only());
        let dfs = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(0.05),
        );
        let sf = enumerate_adcs(
            &space,
            &evidence,
            &F1ViolationRate,
            &EnumerationOptions::new(0.05).with_order(SearchOrder::ShortestFirst),
        );
        let canon = |dcs: &[DenialConstraint]| {
            let mut v: Vec<Vec<usize>> = dcs.iter().map(|d| d.predicate_ids().to_vec()).collect();
            v.sort();
            v
        };
        assert_eq!(canon(&dfs.dcs), canon(&sf.dcs));
        let lengths: Vec<usize> = sf.dcs.iter().map(|d| d.len()).collect();
        let mut sorted = lengths.clone();
        sorted.sort_unstable();
        assert_eq!(
            lengths, sorted,
            "shortest-first DCs must come shortest first"
        );
    }

    #[test]
    fn dc_cap_is_reported_as_result_cap_truncation() {
        let (_, space, evidence) = setup(SpaceConfig::default());
        let options = EnumerationOptions::new(0.1).with_order(SearchOrder::ShortestFirst);
        let full = enumerate_adcs(&space, &evidence, &F1ViolationRate, &options);
        assert!(full.truncation.is_none());
        assert!(full.dcs.len() > 3);

        let mut capped_options = options;
        capped_options.max_dcs = Some(3);
        let capped = enumerate_adcs(&space, &evidence, &F1ViolationRate, &capped_options);
        assert_eq!(capped.dcs.len(), 3);
        let truncation = capped.truncation.expect("capped run must be truncated");
        assert_eq!(truncation.reason, adc_hitting::TruncationReason::MaxEmitted);
        // Shortest-first: the capped run holds exactly the first 3 DCs of the
        // uncapped emission sequence, i.e. the 3 shortest (ties deterministic).
        let prefix: Vec<Vec<usize>> = full.dcs[..3]
            .iter()
            .map(|d| d.predicate_ids().to_vec())
            .collect();
        let capped_ids: Vec<Vec<usize>> = capped
            .dcs
            .iter()
            .map(|d| d.predicate_ids().to_vec())
            .collect();
        assert_eq!(capped_ids, prefix);
        if let Some(size) = truncation.complete_below_size {
            for dc in &full.dcs {
                if dc.len() < size {
                    assert!(
                        capped_ids.contains(&dc.predicate_ids().to_vec()),
                        "DC below the complete-frontier size missing from capped run"
                    );
                }
            }
        }
    }

    #[test]
    fn node_budget_truncates_and_is_reported() {
        let (_, space, evidence) = setup(SpaceConfig::default());
        let options = EnumerationOptions::new(0.1)
            .with_order(SearchOrder::ShortestFirst)
            .with_budget(SearchBudget::unlimited().with_max_nodes(5));
        let out = enumerate_adcs(&space, &evidence, &F1ViolationRate, &options);
        let truncation = out.truncation.expect("tiny node budget must truncate");
        assert_eq!(truncation.reason, adc_hitting::TruncationReason::MaxNodes);
        assert!(out.stats.recursive_calls <= 5);
    }

    #[test]
    fn budget_cut_enumeration_resumes_to_the_uncut_sequence() {
        let (_, space, evidence) = setup(SpaceConfig::default());
        for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
            let reference = enumerate_adcs(
                &space,
                &evidence,
                &F1ViolationRate,
                &EnumerationOptions::new(0.1).with_order(order),
            );
            assert!(reference.truncation.is_none());
            assert!(reference.resume.is_none());

            let slice_options = EnumerationOptions::new(0.1)
                .with_order(order)
                .with_budget(SearchBudget::unlimited().with_max_nodes(25));
            let mut sliced = enumerate_adcs(&space, &evidence, &F1ViolationRate, &slice_options);
            let mut dcs = std::mem::take(&mut sliced.dcs);
            let mut slices = 1;
            while let Some(token) = sliced.resume.take() {
                slices += 1;
                assert!(slices < 10_000, "runaway resume loop");
                sliced = run_adcs(
                    &space,
                    &evidence,
                    &F1ViolationRate,
                    &slice_options,
                    Some(token),
                    None,
                );
                dcs.extend(std::mem::take(&mut sliced.dcs));
            }
            assert!(slices > 2, "the slice budget never fired ({order:?})");
            assert!(sliced.truncation.is_none());
            let ids = |dcs: &[DenialConstraint]| {
                dcs.iter()
                    .map(|d| d.predicate_ids().to_vec())
                    .collect::<Vec<_>>()
            };
            assert_eq!(ids(&dcs), ids(&reference.dcs), "order {order:?}");
        }
    }

    #[test]
    #[should_panic(expected = "requires the vios index")]
    fn vios_requirement_is_enforced() {
        let r = running_example();
        let space = PredicateSpace::build(&r, SpaceConfig::same_column_only());
        let evidence = ClusterEvidenceBuilder.build(&r, &space, false);
        let f = ApproxKind::F3.instantiate();
        let _ = enumerate_adcs(&space, &evidence, f.as_ref(), &EnumerationOptions::new(0.1));
    }
}
