//! Approximate minimal hitting-set enumeration — the generic core of
//! `ADCEnum` (Figures 4 and 5 of the VLDB 2020 ADC paper).
//!
//! Compared to MMCS, three things change:
//!
//! 1. **Base case.** A partial solution is emitted as soon as
//!    `1 − f(S) ≤ ε` *and* removing any single element breaks that bound
//!    (the explicit `IsMinimal` check — criticality alone no longer implies
//!    minimality because an approximate hitting set may leave subsets
//!    uncovered).
//! 2. **A second branch per step** that *does not* hit the chosen subset
//!    `F`. To keep the search finite, every subset that can no longer be
//!    hit by the remaining candidates is marked `canHit = false`
//!    (`UpdateCanCover`) and is never selected again; the branch is only
//!    explored if adding the whole candidate list would reach the threshold
//!    (`WillCover` pruning, justified by monotonicity).
//! 3. **Redundant-element suppression.** When element groups are supplied
//!    (predicates differing only by operator), adding one element removes the
//!    rest of its group from the candidate list for that branch, suppressing
//!    trivial constraints.
//!
//! All three are plugged into the shared [`search engine`](crate::search) as
//! the driver behind [`Search::approx`](crate::Search::approx): this module
//! holds no tree walk of its own, so the approximate enumerator inherits the
//! engine's frontier orders (shortest-first emits in nondecreasing size),
//! anytime budgets, resume tokens, and the in-place walk of fresh
//! unbudgeted depth-first runs unchanged.
//!
//! The scoring function is supplied by the caller and must satisfy the
//! monotonicity and indifference-to-redundancy axioms for the enumeration to
//! be complete (see `adc-approx`).

use crate::search::{NodeDisposition, NodeView, SearchDriver, SearchOutcome};
use crate::SetSystem;
use adc_data::FixedBitSet;

/// The problem an approximate [`Search`](crate::Search) solves: the
/// threshold and the two optional tree rules of `ADCEnum`. The traversal
/// itself (strategy, order, budget, resume) belongs to the search value.
#[derive(Debug, Clone)]
pub struct ApproxEnumConfig<'a> {
    /// Approximation threshold ε ≥ 0: emit `S` when `1 − f(S) ≤ ε`.
    pub epsilon: f64,
    /// Optional structure-group id per element; when an element enters the
    /// partial solution, the rest of its group leaves the candidate list for
    /// that branch (the paper's `RemoveRedundantPreds`).
    pub element_groups: Option<&'a [usize]>,
    /// Enable the `WillCover` pruning of the non-hitting branch (line 9 of
    /// Figure 4). Disabling it is only useful for ablation studies.
    pub will_cover_pruning: bool,
}

impl<'a> ApproxEnumConfig<'a> {
    /// Default configuration for a given threshold.
    pub fn new(epsilon: f64) -> Self {
        ApproxEnumConfig {
            epsilon,
            element_groups: None,
            will_cover_pruning: true,
        }
    }

    /// Provide element structure groups.
    pub fn with_element_groups(mut self, groups: &'a [usize]) -> Self {
        self.element_groups = Some(groups);
        self
    }

    /// Enable or disable the `WillCover` pruning.
    pub fn with_will_cover_pruning(mut self, enabled: bool) -> Self {
        self.will_cover_pruning = enabled;
        self
    }
}

/// Counters describing one enumeration run (used by the benchmark harness
/// and the ablation studies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApproxEnumStats {
    /// Number of search nodes visited (one per recursive call in the paper's
    /// formulation).
    pub recursive_calls: u64,
    /// Number of scoring-function evaluations.
    pub score_evaluations: u64,
    /// Number of emitted minimal approximate hitting sets.
    pub emitted: u64,
    /// High-water mark of simultaneously held frontier nodes — the memory
    /// footprint the `max_frontier_nodes` budget bounds — or, for a run that
    /// took the in-place walk, its maximum depth (see
    /// [`SearchOutcome::peak_frontier`]).
    pub peak_frontier: u64,
    /// Memory-bound frontier contractions performed (non-zero only when
    /// [`SearchBudget::max_frontier_nodes`](crate::SearchBudget::max_frontier_nodes)
    /// fired).
    pub frontier_contractions: u64,
}

impl From<SearchOutcome> for ApproxEnumStats {
    fn from(outcome: SearchOutcome) -> Self {
        ApproxEnumStats {
            recursive_calls: outcome.nodes_expanded,
            score_evaluations: outcome.score_evaluations,
            emitted: outcome.emitted as u64,
            peak_frontier: outcome.peak_frontier as u64,
            frontier_contractions: outcome.contractions,
        }
    }
}

/// The `ADCEnum` configuration of the search engine: ε-acceptance base case
/// with the explicit `IsMinimal` check, the non-hitting branch guarded by
/// `WillCover`, and redundant-group suppression. Both walks call it, and
/// none of its checks allocates.
pub(crate) struct ApproxDriver<'a> {
    score: &'a dyn Fn(&FixedBitSet) -> f64,
    epsilon: f64,
    will_cover_pruning: bool,
    score_evaluations: u64,
    /// The elements sorted by structure group (ascending within a group);
    /// empty without groups.
    group_members: Vec<usize>,
    /// Per element, the `group_members` range of its group.
    group_span: Vec<(u32, u32)>,
    /// `S ∪ cand` for the `WillCover` probe.
    will_cover_set: FixedBitSet,
}

impl<'a> ApproxDriver<'a> {
    /// # Panics
    /// Panics on a negative ε or element groups not covering `system`'s
    /// element universe exactly.
    pub(crate) fn new(
        score: &'a dyn Fn(&FixedBitSet) -> f64,
        config: &ApproxEnumConfig<'a>,
        system: &SetSystem,
    ) -> Self {
        assert!(config.epsilon >= 0.0, "epsilon must be non-negative");
        let mut group_members = Vec::new();
        let mut group_span = Vec::new();
        if let Some(groups) = config.element_groups {
            assert_eq!(
                groups.len(),
                system.num_elements(),
                "element_groups length must equal the number of elements"
            );
            group_members = (0..groups.len()).collect();
            group_members.sort_by_key(|&e| groups[e]);
            group_span = vec![(0, 0); groups.len()];
            let mut start = 0;
            for members in group_members.chunk_by(|&a, &b| groups[a] == groups[b]) {
                let end = start + members.len();
                for &e in members {
                    group_span[e] = (start as u32, end as u32);
                }
                start = end;
            }
        }
        ApproxDriver {
            score,
            epsilon: config.epsilon,
            will_cover_pruning: config.will_cover_pruning,
            score_evaluations: 0,
            group_members,
            group_span,
            will_cover_set: FixedBitSet::new(system.num_elements()),
        }
    }

    pub(crate) fn score_evaluations(&self) -> u64 {
        self.score_evaluations
    }

    #[inline]
    fn meets_threshold(&mut self, set: &FixedBitSet) -> bool {
        self.score_evaluations += 1;
        1.0 - (self.score)(set) <= self.epsilon
    }
}

// `#[inline]` throughout: the engine loop that calls these is instantiated
// in the caller's crate (it is generic over the callback), and these small
// per-node decisions must inline into it as they did when the driver was
// generic over the score type.
impl SearchDriver for ApproxDriver<'_> {
    #[inline]
    fn classify(&mut self, _system: &SetSystem, node: NodeView<'_>) -> NodeDisposition {
        // Base case: once the threshold is met, no strict superset can be
        // minimal (monotonicity), so the node is terminal either way.
        if !self.meets_threshold(node.solution) {
            return NodeDisposition::Expand;
        }
        // `IsMinimal` of Figure 5: no single-element removal stays within ε.
        // Each probe takes the element out of the node's own solution and
        // puts it back.
        for &e in node.elements {
            node.solution.remove(e);
            let still_within = self.meets_threshold(node.solution);
            node.solution.insert(e);
            if still_within {
                return NodeDisposition::Discard;
            }
        }
        NodeDisposition::Emit
    }

    #[inline]
    fn wants_skip_branch(&self) -> bool {
        true
    }

    #[inline]
    fn explore_skip_branch(
        &mut self,
        _system: &SetSystem,
        solution: &FixedBitSet,
        cand: &FixedBitSet,
    ) -> bool {
        // `WillCover` of Figure 5: could adding every remaining candidate
        // reach ε? (Skippable only for ablation studies.)
        if !self.will_cover_pruning {
            return true;
        }
        self.will_cover_set.clear();
        self.will_cover_set.union_with(solution);
        self.will_cover_set.union_with(cand);
        self.score_evaluations += 1;
        1.0 - (self.score)(&self.will_cover_set) <= self.epsilon
    }

    #[inline]
    fn group_mates(&self, element: usize) -> &[usize] {
        match self.group_span.get(element) {
            Some(&(start, end)) => &self.group_members[start as usize..end as usize],
            None => &[],
        }
    }

    #[inline]
    fn unhittable_is_fatal(&self) -> bool {
        false
    }

    // The default `lower_bound` of 0 is deliberate: an approximate cover may
    // leave subsets uncovered, so the disjoint-uncovered bound of the exact
    // problem is NOT admissible here. `|S|` alone still orders emissions by
    // size under shortest-first.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::{brute_force_minimal_approx_hitting_sets, brute_force_minimal_hitting_sets};
    use crate::{BranchStrategy, Search, SearchBudget, SearchOrder};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Run `search` unbudgeted, collecting every emission.
    fn collect(search: Search<'_>, system: &SetSystem) -> (Vec<FixedBitSet>, SearchOutcome) {
        let mut out = Vec::new();
        let (outcome, _) = search.run(system, SearchBudget::unlimited(), |s| {
            out.push(s.clone());
            true
        });
        (out, outcome)
    }

    fn approx_minimal_hitting_sets(
        system: &SetSystem,
        score: &dyn Fn(&FixedBitSet) -> f64,
        config: &ApproxEnumConfig<'_>,
    ) -> Vec<FixedBitSet> {
        collect(Search::approx(score, config.clone()), system).0
    }

    fn as_sorted_vecs(sets: &[FixedBitSet]) -> Vec<Vec<usize>> {
        let mut v: Vec<Vec<usize>> = sets.iter().map(|s| s.to_vec()).collect();
        v.sort();
        v
    }

    /// A weighted coverage score: fraction of subset weight hit. Monotone and
    /// indifferent to redundancy by construction — the same family `f1`
    /// belongs to.
    fn coverage_score(system: &SetSystem, weights: Vec<u64>) -> impl Fn(&FixedBitSet) -> f64 + '_ {
        let total: u64 = weights.iter().sum();
        move |set: &FixedBitSet| {
            if total == 0 {
                return 1.0;
            }
            let hit: u64 = system
                .subsets()
                .iter()
                .zip(&weights)
                .filter(|(f, _)| f.intersects(set))
                .map(|(_, w)| *w)
                .sum();
            hit as f64 / total as f64
        }
    }

    #[test]
    fn epsilon_zero_matches_exact_mmcs() {
        let sys = SetSystem::from_indices(5, &[&[0, 1], &[1, 2], &[2, 3], &[3, 4]]);
        let weights = vec![1u64; sys.len()];
        let score = coverage_score(&sys, weights);
        let cfg = ApproxEnumConfig::new(0.0);
        let approx = approx_minimal_hitting_sets(&sys, &score, &cfg);
        let exact = brute_force_minimal_hitting_sets(&sys);
        assert_eq!(as_sorted_vecs(&approx), as_sorted_vecs(&exact));
    }

    #[test]
    fn allows_missing_low_weight_subsets() {
        // Subsets: {0} (weight 9), {1} (weight 1). With ε = 0.2 we may miss {1}.
        let sys = SetSystem::from_indices(2, &[&[0], &[1]]);
        let score = coverage_score(&sys, vec![9, 1]);
        let cfg = ApproxEnumConfig::new(0.2);
        let found = approx_minimal_hitting_sets(&sys, &score, &cfg);
        // {0} misses only 10% of the weight -> approximate and minimal.
        assert_eq!(as_sorted_vecs(&found), vec![vec![0]]);
    }

    #[test]
    fn empty_set_emitted_when_threshold_is_loose() {
        let sys = SetSystem::from_indices(3, &[&[0], &[1], &[2]]);
        let score = coverage_score(&sys, vec![1, 1, 1]);
        let cfg = ApproxEnumConfig::new(1.0);
        let found = approx_minimal_hitting_sets(&sys, &score, &cfg);
        assert_eq!(found.len(), 1);
        assert!(found[0].is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_instances_all_strategies() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..25 {
            let m = rng.gen_range(3..8);
            let k = rng.gen_range(1..7);
            let mut subsets = Vec::new();
            let mut weights = Vec::new();
            for _ in 0..k {
                let mut s = FixedBitSet::new(m);
                for e in 0..m {
                    if rng.gen_bool(0.4) {
                        s.insert(e);
                    }
                }
                if s.is_empty() {
                    s.insert(rng.gen_range(0..m));
                }
                subsets.push(s);
                weights.push(rng.gen_range(1..5) as u64);
            }
            let sys = SetSystem::new(m, subsets);
            let score = coverage_score(&sys, weights);
            let epsilon = [0.0, 0.1, 0.25, 0.5][trial % 4];
            let expected = brute_force_minimal_approx_hitting_sets(m, &score, epsilon);
            for strategy in [
                BranchStrategy::MaxIntersection,
                BranchStrategy::MinIntersection,
                BranchStrategy::First,
            ] {
                let search = Search::approx(&score, ApproxEnumConfig::new(epsilon));
                let (found, _) = collect(search.with_strategy(strategy), &sys);
                assert_eq!(
                    as_sorted_vecs(&found),
                    as_sorted_vecs(&expected),
                    "trial {trial}, ε={epsilon}, strategy {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn will_cover_pruning_does_not_change_results() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..10 {
            let m = rng.gen_range(3..7);
            let k = rng.gen_range(2..6);
            let mut subsets = Vec::new();
            for _ in 0..k {
                let mut s = FixedBitSet::new(m);
                for e in 0..m {
                    if rng.gen_bool(0.5) {
                        s.insert(e);
                    }
                }
                if s.is_empty() {
                    s.insert(0);
                }
                subsets.push(s);
            }
            let sys = SetSystem::new(m, subsets);
            let score = coverage_score(&sys, vec![1; sys.len()]);
            let on = approx_minimal_hitting_sets(
                &sys,
                &score,
                &ApproxEnumConfig::new(0.3).with_will_cover_pruning(true),
            );
            let off = approx_minimal_hitting_sets(
                &sys,
                &score,
                &ApproxEnumConfig::new(0.3).with_will_cover_pruning(false),
            );
            assert_eq!(as_sorted_vecs(&on), as_sorted_vecs(&off));
        }
    }

    #[test]
    fn element_groups_suppress_same_group_pairs() {
        // Elements 0 and 1 are in the same group; subsets force hitting both
        // {0,1}-ish structures. Without groups the pair {0,1} could appear;
        // with groups it must not.
        let sys = SetSystem::from_indices(4, &[&[0, 2], &[1, 3]]);
        let score = coverage_score(&sys, vec![1, 1]);
        let groups = vec![0, 0, 1, 2];
        let cfg = ApproxEnumConfig::new(0.0).with_element_groups(&groups);
        let found = approx_minimal_hitting_sets(&sys, &score, &cfg);
        for s in &found {
            let v = s.to_vec();
            assert!(
                !(v.contains(&0) && v.contains(&1)),
                "same-group elements 0 and 1 must not co-occur: {v:?}"
            );
        }
        // The group-free solutions {0,1} is replaced by solutions using 2/3.
        assert!(found.iter().any(|s| s.to_vec() == vec![0, 3]));
        assert!(found.iter().any(|s| s.to_vec() == vec![1, 2]));
        assert!(found.iter().any(|s| s.to_vec() == vec![2, 3]));
    }

    #[test]
    fn max_results_stops_early() {
        let sys = SetSystem::from_indices(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let score = coverage_score(&sys, vec![1, 1, 1]);
        let budget = SearchBudget::unlimited().with_max_emitted(3);
        let mut seen = 0usize;
        let (outcome, _) =
            Search::approx(&score, ApproxEnumConfig::new(0.0)).run(&sys, budget, |_| {
                seen += 1;
                true
            });
        let stats = ApproxEnumStats::from(outcome);
        assert_eq!(seen, 3);
        assert_eq!(stats.emitted, 3);
    }

    #[test]
    fn max_results_reports_truncation_via_outcome() {
        use crate::search::TruncationReason;
        let sys = SetSystem::from_indices(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let score = coverage_score(&sys, vec![1, 1, 1]);
        let budget = SearchBudget::unlimited().with_max_emitted(3);
        let (outcome, _) = Search::approx(&score, ApproxEnumConfig::new(0.0))
            .with_order(SearchOrder::ShortestFirst)
            .run(&sys, budget, |_| true);
        let stats = ApproxEnumStats::from(outcome);
        assert_eq!(stats.emitted, 3);
        assert_eq!(
            outcome.truncation.map(|t| t.reason),
            Some(TruncationReason::MaxEmitted)
        );
    }

    #[test]
    fn shortest_first_returns_the_same_family() {
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..10 {
            let m = rng.gen_range(4..8);
            let k = rng.gen_range(2..6);
            let mut subsets = Vec::new();
            for _ in 0..k {
                let mut s = FixedBitSet::new(m);
                for e in 0..m {
                    if rng.gen_bool(0.4) {
                        s.insert(e);
                    }
                }
                if s.is_empty() {
                    s.insert(rng.gen_range(0..m));
                }
                subsets.push(s);
            }
            let sys = SetSystem::new(m, subsets);
            let score = coverage_score(&sys, vec![1; sys.len()]);
            let dfs = approx_minimal_hitting_sets(&sys, &score, &ApproxEnumConfig::new(0.2));
            let (sf, _) = collect(
                Search::approx(&score, ApproxEnumConfig::new(0.2))
                    .with_order(SearchOrder::ShortestFirst),
                &sys,
            );
            assert_eq!(as_sorted_vecs(&dfs), as_sorted_vecs(&sf));
            let sizes: Vec<usize> = sf.iter().map(|s| s.len()).collect();
            let mut sorted = sizes.clone();
            sorted.sort_unstable();
            assert_eq!(sizes, sorted, "shortest-first emission must be sorted");
        }
    }

    #[test]
    fn stats_are_populated() {
        let sys = SetSystem::from_indices(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let score = coverage_score(&sys, vec![1, 1, 1]);
        let (_, outcome) = collect(Search::approx(&score, ApproxEnumConfig::new(0.0)), &sys);
        let stats = ApproxEnumStats::from(outcome);
        assert!(stats.recursive_calls > 0);
        assert!(stats.score_evaluations > 0);
        assert_eq!(stats.emitted, 3);
    }

    #[test]
    fn emits_each_result_exactly_once() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..15 {
            let m = rng.gen_range(4..8);
            let k = rng.gen_range(2..6);
            let mut subsets = Vec::new();
            for _ in 0..k {
                let mut s = FixedBitSet::new(m);
                for e in 0..m {
                    if rng.gen_bool(0.45) {
                        s.insert(e);
                    }
                }
                if s.is_empty() {
                    s.insert(rng.gen_range(0..m));
                }
                subsets.push(s);
            }
            let sys = SetSystem::new(m, subsets);
            let score = coverage_score(&sys, vec![1; sys.len()]);
            let cfg = ApproxEnumConfig::new(0.2);
            let found = approx_minimal_hitting_sets(&sys, &score, &cfg);
            let mut sorted = as_sorted_vecs(&found);
            let before = sorted.len();
            sorted.dedup();
            assert_eq!(sorted.len(), before, "duplicate outputs detected");
        }
    }

    #[test]
    #[should_panic(expected = "epsilon must be non-negative")]
    fn negative_epsilon_rejected() {
        let sys = SetSystem::from_indices(2, &[&[0]]);
        let score = coverage_score(&sys, vec![1]);
        approx_minimal_hitting_sets(&sys, &score, &ApproxEnumConfig::new(-0.1));
    }

    #[test]
    #[should_panic(expected = "element_groups length")]
    fn wrong_group_length_rejected() {
        let sys = SetSystem::from_indices(3, &[&[0]]);
        let score = coverage_score(&sys, vec![1]);
        let groups = vec![0, 1];
        approx_minimal_hitting_sets(
            &sys,
            &score,
            &ApproxEnumConfig::new(0.1).with_element_groups(&groups),
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_matches_brute_force(
            subsets in proptest::collection::vec(proptest::collection::vec(0usize..6, 1..4), 1..5),
            eps_percent in 0u32..60,
        ) {
            let m = 6;
            let refs: Vec<&[usize]> = subsets.iter().map(|s| s.as_slice()).collect();
            let sys = SetSystem::from_indices(m, &refs);
            let score = coverage_score(&sys, vec![1; sys.len()]);
            let epsilon = eps_percent as f64 / 100.0;
            let expected = brute_force_minimal_approx_hitting_sets(m, &score, epsilon);
            let found = approx_minimal_hitting_sets(&sys, &score, &ApproxEnumConfig::new(epsilon));
            prop_assert_eq!(as_sorted_vecs(&found), as_sorted_vecs(&expected));
        }
    }
}
