//! MMCS: exact minimal hitting-set enumeration (Murakami & Uno 2014).
//!
//! This is the algorithm of Figure 3 of the ADC paper. The tree walk itself —
//! `uncov` (subsets not yet intersected by the partial solution `S`), `cand`
//! (elements still allowed into `S`), `crit` (for each element of `S`, the
//! subsets for which it is the only hitter), and the pruning of any branch in
//! which some element of `S` stops being critical — lives in the shared
//! [`search engine`](crate::search). This module is the *exact* configuration
//! of that engine: a node is terminal exactly when `uncov` is empty, there is
//! no non-hitting branch, and an uncovered subset no candidate can hit kills
//! the branch outright.
//!
//! Because it is engine-backed, exact enumeration gets the anytime features
//! for free: [`Search::exact`](crate::Search::exact) accepts a
//! [`SearchOrder`](crate::SearchOrder) (shortest-first emission uses a
//! greedy family of disjoint uncovered subsets as an admissible frontier
//! key) and a [`SearchBudget`](crate::SearchBudget), reports a
//! [`SearchOutcome`](crate::SearchOutcome) that distinguishes exhaustive from
//! truncated runs, and resumes budget-cut runs from their
//! [`SuspendedSearch`](crate::SuspendedSearch) token. Fresh unbudgeted
//! depth-first runs take the engine's in-place undo walk, which skips
//! per-child node snapshots entirely — the classic recursive MMCS cost
//! profile.

use crate::search::{
    greedy_disjoint_lower_bound, NodeDisposition, NodeView, SearchDriver, SearchNode,
};
use crate::SetSystem;

/// The exact MMCS configuration of the search engine.
pub(crate) struct ExactDriver;

impl SearchDriver for ExactDriver {
    fn classify(&mut self, _system: &SetSystem, node: NodeView<'_>) -> NodeDisposition {
        if node.uncov.is_empty() {
            // Criticality is maintained along every path, so a full cover is
            // automatically minimal.
            NodeDisposition::Emit
        } else {
            NodeDisposition::Expand
        }
    }

    fn lower_bound(&mut self, system: &SetSystem, node: &SearchNode) -> usize {
        greedy_disjoint_lower_bound(system, node.uncov(), node.cand())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_minimal_hitting_sets;
    use crate::{BranchStrategy, Search, SearchBudget, SearchOrder, SearchOutcome};
    use adc_data::FixedBitSet;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Run `search` to the end of its budget, collecting every emission.
    fn collect(
        search: Search<'_>,
        system: &SetSystem,
        budget: SearchBudget,
    ) -> (Vec<FixedBitSet>, SearchOutcome) {
        let mut out = Vec::new();
        let (outcome, _) = search.run(system, budget, |s| {
            out.push(s.clone());
            true
        });
        (out, outcome)
    }

    fn minimal_hitting_sets(system: &SetSystem, strategy: BranchStrategy) -> Vec<FixedBitSet> {
        collect(
            Search::exact().with_strategy(strategy),
            system,
            SearchBudget::unlimited(),
        )
        .0
    }

    fn as_sorted_vecs(mut sets: Vec<FixedBitSet>) -> Vec<Vec<usize>> {
        let mut v: Vec<Vec<usize>> = sets.drain(..).map(|s| s.to_vec()).collect();
        v.sort();
        v
    }

    fn shortest_first(system: &SetSystem, strategy: BranchStrategy) -> Vec<FixedBitSet> {
        let (out, outcome) = collect(
            Search::exact()
                .with_strategy(strategy)
                .with_order(SearchOrder::ShortestFirst),
            system,
            SearchBudget::unlimited(),
        );
        assert!(outcome.is_exhaustive());
        assert_eq!(outcome.emitted, out.len());
        out
    }

    #[test]
    fn simple_instance_all_strategies() {
        // Subsets {0,1}, {1,2}, {2,3}: minimal hitting sets {1,2}, {1,3}, {0,2}.
        let sys = SetSystem::from_indices(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        let expected = vec![vec![0, 2], vec![1, 2], vec![1, 3]];
        for strategy in [
            BranchStrategy::MaxIntersection,
            BranchStrategy::MinIntersection,
            BranchStrategy::First,
        ] {
            let found = as_sorted_vecs(minimal_hitting_sets(&sys, strategy));
            assert_eq!(found, expected, "strategy {strategy:?}");
            let found = as_sorted_vecs(shortest_first(&sys, strategy));
            assert_eq!(found, expected, "shortest-first, strategy {strategy:?}");
        }
    }

    #[test]
    fn empty_family_yields_empty_set() {
        let sys = SetSystem::from_indices(3, &[]);
        let found = minimal_hitting_sets(&sys, BranchStrategy::default());
        assert_eq!(found.len(), 1);
        assert!(found[0].is_empty());
    }

    #[test]
    fn unhittable_subset_yields_nothing() {
        let sys = SetSystem::new(3, vec![FixedBitSet::new(3)]);
        assert!(minimal_hitting_sets(&sys, BranchStrategy::default()).is_empty());
    }

    #[test]
    fn disjoint_subsets_need_one_element_each() {
        let sys = SetSystem::from_indices(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let found = minimal_hitting_sets(&sys, BranchStrategy::default());
        assert_eq!(found.len(), 8);
        for hs in &found {
            assert_eq!(hs.len(), 3);
            assert!(sys.is_minimal_hitting_set(hs));
        }
    }

    #[test]
    fn duplicate_subsets_are_harmless() {
        let sys = SetSystem::from_indices(3, &[&[0, 1], &[0, 1], &[2]]);
        let found = as_sorted_vecs(minimal_hitting_sets(&sys, BranchStrategy::default()));
        assert_eq!(found, vec![vec![0, 2], vec![1, 2]]);
    }

    #[test]
    fn early_stop_via_callback() {
        let sys = SetSystem::from_indices(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let mut seen = 0;
        let (outcome, _) = Search::exact().run(&sys, SearchBudget::unlimited(), |_| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3);
        assert_eq!(outcome.emitted, 3);
    }

    #[test]
    fn callback_stop_reports_truncation() {
        use crate::search::TruncationReason;
        let sys = SetSystem::from_indices(6, &[&[0, 1], &[2, 3], &[4, 5]]);
        let mut seen = 0;
        let (outcome, _) = Search::exact().with_order(SearchOrder::ShortestFirst).run(
            &sys,
            SearchBudget::unlimited(),
            |_| {
                seen += 1;
                seen < 3
            },
        );
        assert_eq!(outcome.emitted, 3);
        let truncation = outcome.truncation.expect("run was cut short");
        assert_eq!(truncation.reason, TruncationReason::Callback);
        // All 8 covers have size 3, so nothing below size 3 is pending.
        assert_eq!(truncation.complete_below, Some(3));
    }

    #[test]
    fn shortest_first_emits_in_nondecreasing_size() {
        // Mixed cover sizes: {4} hits the last subset alone, the chain needs 2.
        let sys = SetSystem::from_indices(5, &[&[0, 1, 4], &[1, 2, 4], &[2, 3, 4], &[4]]);
        let found = shortest_first(&sys, BranchStrategy::default());
        let sizes: Vec<usize> = found.iter().map(|s| s.len()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        assert_eq!(sizes, sorted, "emission must be nondecreasing in size");
        assert_eq!(
            found[0].to_vec(),
            vec![4],
            "the singleton cover comes first"
        );
    }

    #[test]
    fn max_nodes_budget_truncates() {
        use crate::search::TruncationReason;
        let sys = SetSystem::from_indices(8, &[&[0, 1], &[2, 3], &[4, 5], &[6, 7]]);
        let (_, outcome) = collect(
            Search::exact().with_order(SearchOrder::ShortestFirst),
            &sys,
            SearchBudget::unlimited().with_max_nodes(3),
        );
        assert!(!outcome.is_exhaustive());
        assert_eq!(outcome.nodes_expanded, 3);
        assert_eq!(
            outcome.truncation.unwrap().reason,
            TruncationReason::MaxNodes
        );
    }

    #[test]
    fn inplace_dfs_matches_the_explicit_engine_order() {
        // An unbudgeted DFS run takes the in-place undo walk; forcing any
        // budget falls back to the explicit frontier. Both must emit the
        // identical sequence, not just set.
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..20 {
            let m = rng.gen_range(3..9);
            let k = rng.gen_range(1..7);
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
            for strategy in [
                BranchStrategy::MaxIntersection,
                BranchStrategy::MinIntersection,
                BranchStrategy::First,
            ] {
                let search = Search::exact().with_strategy(strategy);
                let (inplace, fast) = collect(search.clone(), &sys, SearchBudget::unlimited());
                let (explicit, slow) = collect(
                    search,
                    &sys,
                    SearchBudget::unlimited().with_max_nodes(u64::MAX),
                );
                assert_eq!(inplace, explicit, "strategy {strategy:?}");
                assert_eq!(fast.emitted, slow.emitted);
                assert_eq!(fast.nodes_expanded, slow.nodes_expanded);
                assert!(fast.is_exhaustive() && slow.is_exhaustive());
            }
        }
    }

    #[test]
    fn budget_cut_exact_run_resumes_to_the_uncapped_sequence() {
        let sys = SetSystem::from_indices(8, &[&[0, 1], &[2, 3], &[4, 5], &[6, 7]]);
        for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
            let search = Search::exact().with_order(order);
            let (reference, outcome) = collect(search.clone(), &sys, SearchBudget::unlimited());
            assert!(outcome.is_exhaustive());
            assert_eq!(reference.len(), 16);

            let slice = SearchBudget::unlimited().with_max_nodes(5);
            let mut covers = Vec::new();
            let mut push = |s: &FixedBitSet| {
                covers.push(s.clone());
                true
            };
            let (_, mut suspended) = search.run(&sys, slice, &mut push);
            let mut slices = 1;
            while let Some(token) = suspended.take() {
                slices += 1;
                assert!(slices < 100, "runaway resume loop");
                suspended = Search::exact()
                    .with_resume(token)
                    .run(&sys, slice, &mut push)
                    .1;
            }
            assert!(slices > 2, "the slice budget never fired ({order:?})");
            assert_eq!(covers, reference, "order {order:?}");
        }
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..30 {
            let m = rng.gen_range(3..9);
            let k = rng.gen_range(1..7);
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
            let expected = as_sorted_vecs(brute_force_minimal_hitting_sets(&sys));
            for strategy in [
                BranchStrategy::MaxIntersection,
                BranchStrategy::MinIntersection,
            ] {
                let found = as_sorted_vecs(minimal_hitting_sets(&sys, strategy));
                assert_eq!(found, expected, "strategy {strategy:?}");
            }
        }
    }

    fn within(system: &SetSystem, allowed: &FixedBitSet) -> Vec<FixedBitSet> {
        let (out, outcome) = collect(
            Search::exact().within(allowed),
            system,
            SearchBudget::unlimited(),
        );
        assert!(outcome.is_exhaustive());
        assert_eq!(outcome.emitted, out.len());
        out
    }

    #[test]
    fn confined_enumeration_keeps_exactly_the_contained_covers() {
        // T = {{0,2}, {1,2}, {1,3}} for subsets {0,1},{1,2},{2,3}.
        let sys = SetSystem::from_indices(4, &[&[0, 1], &[1, 2], &[2, 3]]);
        // allowed = {0,1,2}: drops {1,3}, keeps {0,2} and {1,2}.
        let allowed = FixedBitSet::from_indices(4, [0, 1, 2]);
        let found = as_sorted_vecs(within(&sys, &allowed));
        assert_eq!(found, vec![vec![0, 2], vec![1, 2]]);
        // allowed = {3}: no confined cover exists ({3} misses subset {0,1}).
        let only3 = FixedBitSet::from_indices(4, [3]);
        assert!(within(&sys, &only3).is_empty());
        // allowed = everything behaves like the unrestricted run.
        let all = FixedBitSet::full(4);
        assert_eq!(
            as_sorted_vecs(within(&sys, &all)),
            as_sorted_vecs(minimal_hitting_sets(&sys, BranchStrategy::default()))
        );
    }

    #[test]
    fn confined_enumeration_of_the_empty_system_emits_the_empty_cover() {
        let sys = SetSystem::new(3, Vec::new());
        let allowed = FixedBitSet::new(3); // even an empty restriction
        let found = within(&sys, &allowed);
        assert_eq!(found.len(), 1);
        assert!(found[0].is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The confined run equals the brute-force answer filtered to
        /// subsets of `allowed`, on random systems and random restrictions.
        #[test]
        fn prop_confined_equals_filtered_brute_force(
            subsets in proptest::collection::vec(proptest::collection::vec(0usize..7, 1..5), 0..6),
            allowed_bits in proptest::collection::vec(any::<bool>(), 7..8),
        ) {
            let m = 7;
            let refs: Vec<&[usize]> = subsets.iter().map(|s| s.as_slice()).collect();
            let sys = SetSystem::from_indices(m, &refs);
            let allowed = FixedBitSet::from_indices(
                m,
                allowed_bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| i),
            );
            let found = as_sorted_vecs(within(&sys, &allowed));
            let expected: Vec<Vec<usize>> = as_sorted_vecs(brute_force_minimal_hitting_sets(&sys))
                .into_iter()
                .filter(|cover| cover.iter().all(|&e| allowed.contains(e)))
                .collect();
            prop_assert_eq!(found, expected);
        }

        #[test]
        fn prop_outputs_are_exactly_the_minimal_hitting_sets(
            subsets in proptest::collection::vec(proptest::collection::vec(0usize..7, 1..5), 0..6)
        ) {
            let m = 7;
            let refs: Vec<&[usize]> = subsets.iter().map(|s| s.as_slice()).collect();
            let sys = SetSystem::from_indices(m, &refs);
            let found = as_sorted_vecs(minimal_hitting_sets(&sys, BranchStrategy::default()));
            let expected = as_sorted_vecs(brute_force_minimal_hitting_sets(&sys));
            prop_assert_eq!(found, expected);
        }
    }
}
