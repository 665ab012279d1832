//! Property-based differential tests for the hitting-set enumerators, in the
//! spirit of black-box cross-implementation checking: on random set systems,
//! the brute-force reference, MMCS (under every branch strategy), and the
//! approximate enumerator at ε = 0 must all enumerate exactly the same
//! family, and every returned set must be a *minimal* hitting set. The
//! frontier orders of the shared search engine are differentials too:
//! `ShortestFirst` and `Dfs` must emit identical cover sets, and the
//! `ShortestFirst` emission sequence must be nondecreasing in cover size.
//!
//! Case count is controlled by `PROPTEST_CASES` (default 256); CI runs the
//! suite with a raised count.

use adc_data::FixedBitSet;
use adc_hitting::brute::{
    brute_force_minimal_approx_hitting_sets, brute_force_minimal_hitting_sets,
};
use adc_hitting::{
    repair_covers, shrink_covers, ApproxEnumConfig, BranchStrategy, Search, SearchBudget,
    SearchOrder, SearchOutcome, SetSystem, SuspendedSearch,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Build a set system over `3 + universe_seed % 8` elements from raw index
/// lists (indices are folded into the universe, so every subset is non-empty
/// and in range).
fn build_system(universe_seed: usize, raw_subsets: &[Vec<usize>]) -> SetSystem {
    let num_elements = 3 + universe_seed % 8;
    let subsets: Vec<&[usize]> = raw_subsets.iter().map(|s| s.as_slice()).collect();
    let folded: Vec<Vec<usize>> = subsets
        .iter()
        .map(|s| s.iter().map(|&e| e % num_elements).collect())
        .collect();
    let folded_refs: Vec<&[usize]> = folded.iter().map(|s| s.as_slice()).collect();
    SetSystem::from_indices(num_elements, &folded_refs)
}

/// Run `search` under `budget`, collecting every emission.
fn collect(
    search: Search<'_>,
    system: &SetSystem,
    budget: SearchBudget,
) -> (Vec<FixedBitSet>, SearchOutcome, Option<SuspendedSearch>) {
    let mut out = Vec::new();
    let (outcome, token) = search.run(system, budget, |s| {
        out.push(s.clone());
        true
    });
    (out, outcome, token)
}

/// Collect MMCS results for a strategy.
fn mmcs(system: &SetSystem, strategy: BranchStrategy) -> Vec<FixedBitSet> {
    collect(
        Search::exact().with_strategy(strategy),
        system,
        SearchBudget::unlimited(),
    )
    .0
}

/// Collect exact MMCS results under the shortest-first frontier, asserting
/// the run reports itself exhaustive.
fn mmcs_shortest_first(system: &SetSystem, strategy: BranchStrategy) -> Vec<FixedBitSet> {
    let (out, outcome, _) = collect(
        Search::exact()
            .with_strategy(strategy)
            .with_order(SearchOrder::ShortestFirst),
        system,
        SearchBudget::unlimited(),
    );
    assert!(outcome.is_exhaustive());
    out
}

/// Collect approximate results under `config`.
fn approx_minimal_hitting_sets(
    system: &SetSystem,
    score: impl Fn(&FixedBitSet) -> f64,
    config: &ApproxEnumConfig<'_>,
    strategy: BranchStrategy,
) -> Vec<FixedBitSet> {
    let search = Search::approx(&score, config.clone()).with_strategy(strategy);
    collect(search, system, SearchBudget::unlimited()).0
}

/// Assert an emission sequence is nondecreasing in cover size.
fn assert_nondecreasing_sizes(sets: &[FixedBitSet], context: &str) {
    for window in sets.windows(2) {
        assert!(
            window[0].len() <= window[1].len(),
            "{context}: cover of size {} emitted after size {}",
            window[1].len(),
            window[0].len()
        );
    }
}

/// The exact-cover score used to drive the approximate enumerator at ε = 0:
/// the fraction of subsets hit (monotone, 1 exactly on hitting sets).
fn coverage_score(system: &SetSystem) -> impl Fn(&FixedBitSet) -> f64 + '_ {
    move |set: &FixedBitSet| {
        if system.is_empty() {
            return 1.0;
        }
        system
            .subsets()
            .iter()
            .filter(|s| s.intersects(set))
            .count() as f64
            / system.len() as f64
    }
}

/// Normalise a family for comparison.
fn canon(mut sets: Vec<FixedBitSet>) -> Vec<Vec<usize>> {
    let mut v: Vec<Vec<usize>> = sets.drain(..).map(|s| s.to_vec()).collect();
    v.sort();
    v
}

/// Run `search` as a sequence of `slice_budget` slices, resuming from the
/// suspend token until exhaustion. `fresh` rebuilds the search value (same
/// driver) for each resumed slice. Returns the concatenated emission
/// sequence and the number of slices run.
fn sliced<'a>(
    system: &SetSystem,
    fresh: impl Fn() -> Search<'a>,
    search: Search<'a>,
    slice_budget: SearchBudget,
) -> (Vec<Vec<usize>>, usize) {
    let mut covers: Vec<Vec<usize>> = Vec::new();
    let mut push = |s: &FixedBitSet| {
        covers.push(s.to_vec());
        true
    };
    let (_, mut suspended) = search.run(system, slice_budget, &mut push);
    let mut slices = 1;
    while let Some(token) = suspended.take() {
        slices += 1;
        assert!(slices < 100_000, "runaway resume loop");
        suspended = fresh()
            .with_resume(token)
            .run(system, slice_budget, &mut push)
            .1;
    }
    (covers, slices)
}

/// Collect the exact enumeration as a sequence of budget slices.
fn mmcs_sliced(
    system: &SetSystem,
    strategy: BranchStrategy,
    order: SearchOrder,
    slice_budget: SearchBudget,
) -> (Vec<Vec<usize>>, usize) {
    let search = Search::exact().with_strategy(strategy).with_order(order);
    sliced(system, Search::exact, search, slice_budget)
}

/// Run `search` on both walks: unbudgeted (the in-place walk) and under a
/// `u64::MAX` node budget (the explicit engine). Exhaustive runs must emit
/// the same sequence with the same counters; runs whose callback stops after
/// `stop_after` emissions must emit the same prefix and report the same
/// truncation (`Some` iff the explicit frontier still held a node).
fn assert_walks_agree(system: &SetSystem, search: Search<'_>, stop_after: usize, label: &str) {
    let explicit = SearchBudget::unlimited().with_max_nodes(u64::MAX);
    let run = |budget: SearchBudget, stop_after: usize| {
        let mut out = Vec::new();
        let (outcome, token) = search.clone().run(system, budget, |s| {
            out.push(s.to_vec());
            out.len() < stop_after
        });
        (out, outcome, token)
    };
    let counters = |o: &SearchOutcome| (o.emitted, o.nodes_expanded, o.score_evaluations);

    let (walked, walk, token) = run(SearchBudget::unlimited(), usize::MAX);
    let (engine_out, engine, _) = run(explicit, usize::MAX);
    assert!(
        token.is_none(),
        "{label}: the in-place walk yields no token"
    );
    assert!(walk.is_exhaustive() && engine.is_exhaustive(), "{label}");
    assert_eq!(walked, engine_out, "{label}: emission sequence");
    assert_eq!(counters(&walk), counters(&engine), "{label}: counters");

    let (walked, walk, _) = run(SearchBudget::unlimited(), stop_after);
    let (engine_out, engine, _) = run(explicit, stop_after);
    assert_eq!(walked, engine_out, "{label}: stopped prefix");
    assert_eq!(
        walk.truncation, engine.truncation,
        "{label}: stopped truncation"
    );
    assert_eq!(
        counters(&walk),
        counters(&engine),
        "{label}: stopped counters"
    );
}

proptest! {
    #[test]
    fn brute_mmcs_and_approx_agree_on_random_systems(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
    ) {
        let system = build_system(universe_seed, &raw_subsets);
        let reference = canon(brute_force_minimal_hitting_sets(&system));

        for strategy in [
            BranchStrategy::MaxIntersection,
            BranchStrategy::MinIntersection,
            BranchStrategy::First,
        ] {
            let found = canon(mmcs(&system, strategy));
            prop_assert_eq!(
                &found, &reference,
                "MMCS/{:?} diverged from brute force", strategy
            );

            let config = ApproxEnumConfig::new(0.0);
            let approx = canon(approx_minimal_hitting_sets(
                &system,
                coverage_score(&system),
                &config,
                strategy,
            ));
            prop_assert_eq!(
                &approx, &reference,
                "approx(ε=0)/{:?} diverged from brute force", strategy
            );
        }
    }

    #[test]
    fn every_enumerated_set_is_a_minimal_cover(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
    ) {
        let system = build_system(universe_seed, &raw_subsets);
        for set in mmcs(&system, BranchStrategy::MaxIntersection) {
            prop_assert!(
                system.is_minimal_hitting_set(&set),
                "MMCS emitted a non-minimal cover {:?}", set.to_vec()
            );
        }
        let config = ApproxEnumConfig::new(0.0);
        let found = approx_minimal_hitting_sets(
            &system,
            coverage_score(&system),
            &config,
            BranchStrategy::MaxIntersection,
        );
        for set in found {
            prop_assert!(
                system.is_minimal_hitting_set(&set),
                "approx(ε=0) emitted a non-minimal cover {:?}", set.to_vec()
            );
        }
    }

    #[test]
    fn shortest_first_and_dfs_agree_and_shortest_first_is_sorted(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
    ) {
        let system = build_system(universe_seed, &raw_subsets);
        for strategy in [
            BranchStrategy::MaxIntersection,
            BranchStrategy::MinIntersection,
            BranchStrategy::First,
        ] {
            // Exact enumeration: both orders emit identical cover *sets*,
            // and shortest-first emission is nondecreasing in cover size.
            let dfs = mmcs(&system, strategy);
            let sf = mmcs_shortest_first(&system, strategy);
            assert_nondecreasing_sizes(&sf, &format!("exact/{strategy:?}"));
            prop_assert_eq!(
                canon(dfs), canon(sf),
                "exact ShortestFirst/{:?} changed the cover set", strategy
            );
        }
    }

    #[test]
    fn approx_shortest_first_agrees_with_dfs_at_any_epsilon(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..8),
        epsilon_mil in 0usize..500,
    ) {
        // The same differential for the approximate enumerator, at ε = 0 and
        // at the (boundary-offset) positive ε, under every strategy.
        let epsilon = epsilon_mil as f64 / 1_000.0 + 0.000_5;
        let system = build_system(universe_seed, &raw_subsets);
        let score = coverage_score(&system);
        for eps in [0.0, epsilon] {
            for strategy in [
                BranchStrategy::MaxIntersection,
                BranchStrategy::MinIntersection,
                BranchStrategy::First,
            ] {
                let dfs = Search::approx(&score, ApproxEnumConfig::new(eps))
                    .with_strategy(strategy);
                let sf = dfs.clone().with_order(SearchOrder::ShortestFirst);
                let (dfs, _, _) = collect(dfs, &system, SearchBudget::unlimited());
                let (sf, _, _) = collect(sf, &system, SearchBudget::unlimited());
                assert_nondecreasing_sizes(&sf, &format!("approx ε={eps}/{strategy:?}"));
                prop_assert_eq!(
                    canon(dfs), canon(sf),
                    "approx(ε={}) ShortestFirst/{:?} changed the cover set", eps, strategy
                );
            }
        }
    }

    #[test]
    fn budget_cut_exact_runs_resume_to_the_uncapped_sequence(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
        node_slice in 1u64..12,
        emit_slice in 1usize..4,
    ) {
        // Cut at arbitrary points (node budget, emission budget), resume to
        // completion: the concatenated emission must equal the single
        // uncapped run's *sequence* (not just its set), for both orders.
        let system = build_system(universe_seed, &raw_subsets);
        for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
            let (reference, outcome, _) = collect(
                Search::exact()
                    .with_strategy(BranchStrategy::MaxIntersection)
                    .with_order(order),
                &system,
                SearchBudget::unlimited(),
            );
            let reference: Vec<Vec<usize>> = reference.iter().map(|s| s.to_vec()).collect();
            prop_assert!(outcome.is_exhaustive());

            let (by_nodes, _) = mmcs_sliced(
                &system,
                BranchStrategy::MaxIntersection,
                order,
                SearchBudget::unlimited().with_max_nodes(node_slice),
            );
            prop_assert_eq!(&by_nodes, &reference, "node-sliced {:?}", order);

            let (by_emitted, _) = mmcs_sliced(
                &system,
                BranchStrategy::MaxIntersection,
                order,
                SearchBudget::unlimited().with_max_emitted(emit_slice),
            );
            prop_assert_eq!(&by_emitted, &reference, "emission-sliced {:?}", order);
        }
    }

    #[test]
    fn budget_cut_approx_runs_resume_to_the_uncapped_sequence(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..8),
        epsilon_mil in 0usize..400,
        node_slice in 1u64..12,
    ) {
        let epsilon = epsilon_mil as f64 / 1_000.0 + 0.000_5;
        let system = build_system(universe_seed, &raw_subsets);
        let score = coverage_score(&system);
        for eps in [0.0, epsilon] {
            for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
                let fresh = || Search::approx(&score, ApproxEnumConfig::new(eps));
                let uncapped = fresh().with_order(order);
                let (reference, outcome, token) =
                    collect(uncapped.clone(), &system, SearchBudget::unlimited());
                let reference: Vec<Vec<usize>> = reference.iter().map(|s| s.to_vec()).collect();
                prop_assert!(outcome.is_exhaustive());
                prop_assert!(token.is_none());

                let slice_budget = SearchBudget::unlimited().with_max_nodes(node_slice);
                let (covers, _) = sliced(&system, fresh, uncapped, slice_budget);
                prop_assert_eq!(&covers, &reference, "ε={} {:?}", eps, order);
            }
        }
    }

    #[test]
    fn memory_bounded_shortest_first_resumes_and_keeps_the_answer_set(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
        cap in 1usize..8,
        node_slice in 1u64..12,
    ) {
        // The frontier cap perturbs only the emission *order*: the answer
        // set must match the unbounded run, and a cut memory-bounded run
        // resumed to completion must replay the single memory-bounded run's
        // sequence exactly.
        let system = build_system(universe_seed, &raw_subsets);
        let unbounded = canon(mmcs(&system, BranchStrategy::MaxIntersection));

        let bounded_budget = SearchBudget::unlimited().with_max_frontier_nodes(cap);
        let (bounded, outcome, _) = collect(
            Search::exact()
                .with_strategy(BranchStrategy::MaxIntersection)
                .with_order(SearchOrder::ShortestFirst),
            &system,
            bounded_budget,
        );
        let bounded: Vec<Vec<usize>> = bounded.iter().map(|s| s.to_vec()).collect();
        prop_assert!(outcome.is_exhaustive());
        let mut bounded_set = bounded.clone();
        bounded_set.sort();
        prop_assert_eq!(&bounded_set, &unbounded, "the cap changed the answer set");

        let (sliced, _) = mmcs_sliced(
            &system,
            BranchStrategy::MaxIntersection,
            SearchOrder::ShortestFirst,
            bounded_budget.with_max_nodes(node_slice),
        );
        prop_assert_eq!(&sliced, &bounded, "memory-bounded cut+resume diverged");
    }

    #[test]
    fn inplace_dfs_walk_matches_the_explicit_engine_sequence(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
        raw_groups in vec(0usize..4, 16..17),
        allowed_bits in vec(any::<bool>(), 16..17),
        stop_after in 1usize..4,
    ) {
        // Unbudgeted DFS takes the in-place walk; any budget forces the
        // explicit snapshot frontier. Same tree, same order, for both
        // drivers: exact (whole universe and confined by `within`) and
        // approximate over an ε grid off every coverage-fraction boundary
        // (fractions j/n with n ≤ 9), with groups and `WillCover` on and off.
        let system = build_system(universe_seed, &raw_subsets);
        let m = system.num_elements();
        let groups = &raw_groups[..m];
        let allowed = FixedBitSet::from_indices(m, (0..m).filter(|&e| allowed_bits[e]));
        let score = coverage_score(&system);
        for strategy in [
            BranchStrategy::MaxIntersection,
            BranchStrategy::MinIntersection,
            BranchStrategy::First,
        ] {
            let exact = Search::exact().with_strategy(strategy);
            let label = format!("exact {strategy:?}");
            assert_walks_agree(&system, exact.clone(), stop_after, &label);
            let label = format!("exact within {strategy:?}");
            assert_walks_agree(&system, exact.within(&allowed), stop_after, &label);
            for epsilon in [0.0, 0.050_5, 0.150_5, 0.330_5] {
                for grouped in [false, true] {
                    for will_cover in [false, true] {
                        let mut config =
                            ApproxEnumConfig::new(epsilon).with_will_cover_pruning(will_cover);
                        if grouped {
                            config = config.with_element_groups(groups);
                        }
                        let search = Search::approx(&score, config).with_strategy(strategy);
                        let label = format!(
                            "approx ε={epsilon} groups={grouped} will_cover={will_cover} {strategy:?}"
                        );
                        assert_walks_agree(&system, search, stop_after, &label);
                    }
                }
            }
        }
    }

    #[test]
    fn approx_brute_force_agrees_at_positive_epsilon(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..8),
        epsilon_mil in 0usize..500,
    ) {
        // At ε > 0 the approximate enumerator must match the brute-force
        // approximate reference (same score, same threshold). ε is kept off
        // exact coverage-fraction boundaries by a +1/2000 offset so
        // floating-point comparisons at the boundary cannot flip.
        let epsilon = epsilon_mil as f64 / 1_000.0 + 0.000_5;
        let system = build_system(universe_seed, &raw_subsets);
        let score = coverage_score(&system);
        let reference = canon(brute_force_minimal_approx_hitting_sets(
            system.num_elements(),
            &score,
            epsilon,
        ));
        let config = ApproxEnumConfig::new(epsilon);
        let found = canon(approx_minimal_hitting_sets(
            &system,
            &score,
            &config,
            BranchStrategy::MaxIntersection,
        ));
        prop_assert_eq!(found, reference);
    }
}

// ---------------------------------------------------------------------------
// Differential repair: grown systems (appended subsets)
// ---------------------------------------------------------------------------

/// Fold raw index lists into `num_elements` and append them to a clone of
/// `system`, returning the grown system and the append start index.
fn grow_system(system: &SetSystem, raw_appended: &[Vec<usize>]) -> (SetSystem, usize) {
    let m = system.num_elements();
    let mut grown = system.clone();
    let appended_from = grown.len();
    for raw in raw_appended {
        let folded: Vec<usize> = raw.iter().map(|&e| e % m).collect();
        grown.push_subset(FixedBitSet::from_indices(m, folded.iter().copied()));
    }
    (grown, appended_from)
}

proptest! {
    #[test]
    fn repair_of_a_complete_answer_equals_full_reenumeration(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 0..8),
        raw_appended in vec(vec(0usize..16, 1..5), 1..5),
    ) {
        // The tentpole guarantee of `repair_covers`: starting from the
        // complete T(F), grafting per-cover repairs of the appended subsets
        // reproduces T(F ∪ A) exactly — for any appended batch.
        let system = build_system(universe_seed, &raw_subsets);
        let (grown, appended_from) = grow_system(&system, &raw_appended);
        let old_covers = mmcs(&system, BranchStrategy::MaxIntersection);
        for strategy in [
            BranchStrategy::MaxIntersection,
            BranchStrategy::MinIntersection,
            BranchStrategy::First,
        ] {
            let (repaired, stats) =
                repair_covers(&old_covers, &grown, appended_from..grown.len(), strategy);
            let reference = canon(brute_force_minimal_hitting_sets(&grown));
            prop_assert_eq!(
                canon(repaired),
                reference,
                "repair/{:?} diverged from re-enumeration",
                strategy
            );
            prop_assert_eq!(stats.kept + stats.reopened, old_covers.len());
        }
    }

    #[test]
    fn shrink_covers_is_sound_on_shrunk_systems(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 2..8),
        keep in 1usize..8,
    ) {
        // Drop a suffix of the subsets and greedily re-minimise the old
        // answer: every output must be a genuine minimal hitting set of the
        // shrunk system and appear in its full answer. (Completeness is
        // impossible from old covers alone — see `adc_hitting::repair`.)
        let system = build_system(universe_seed, &raw_subsets);
        let keep = keep.min(system.len());
        let shrunk_sys = SetSystem::new(
            system.num_elements(),
            system.subsets()[..keep].to_vec(),
        );
        let old_covers = mmcs(&system, BranchStrategy::MaxIntersection);
        let shrunk = shrink_covers(&old_covers, &shrunk_sys);
        let full: std::collections::HashSet<Vec<usize>> =
            canon(brute_force_minimal_hitting_sets(&shrunk_sys))
                .into_iter()
                .collect();
        for s in &shrunk {
            prop_assert!(
                shrunk_sys.is_minimal_hitting_set(s),
                "shrink emitted a non-minimal cover {:?}",
                s.to_vec()
            );
            prop_assert!(full.contains(&s.to_vec()));
        }
    }

    #[test]
    fn patched_exact_frontier_resumes_soundly(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..10),
        raw_appended in vec(vec(0usize..16, 1..5), 1..4),
        budget_nodes in 1u64..24,
    ) {
        // Cut an exact shortest-first run mid-flight, append subsets, patch
        // the frontier, and resume against the grown system. Soundness: every
        // post-patch emission is a minimal hitting set of the grown system
        // (and hence appears in its full answer), and no cover — pre- or
        // post-patch — is ever emitted twice.
        let system = build_system(universe_seed, &raw_subsets);
        let (mut covers, _, suspended) = collect(
            Search::exact()
                .with_strategy(BranchStrategy::MaxIntersection)
                .with_order(SearchOrder::ShortestFirst),
            &system,
            SearchBudget::unlimited().with_max_nodes(budget_nodes),
        );
        let Some(mut token) = suspended else { continue };
        let pre_patch = covers.len();
        let (grown, appended_from) = grow_system(&system, &raw_appended);
        token.patch(&grown, appended_from);
        let mut next = Some(token);
        while let Some(t) = next.take() {
            let (mut more, _, again) =
                collect(Search::exact().with_resume(t), &grown, SearchBudget::unlimited());
            covers.append(&mut more);
            next = again;
        }
        let full: std::collections::HashSet<Vec<usize>> =
            canon(brute_force_minimal_hitting_sets(&grown))
                .into_iter()
                .collect();
        for s in &covers[pre_patch..] {
            prop_assert!(
                grown.is_minimal_hitting_set(s),
                "patched resume emitted a non-minimal cover {:?}",
                s.to_vec()
            );
            prop_assert!(full.contains(&s.to_vec()));
        }
        let mut seen = std::collections::HashSet::new();
        for s in &covers {
            prop_assert!(seen.insert(s.to_vec()), "duplicate emission {:?}", s.to_vec());
        }
    }

    #[test]
    fn patched_approx_frontier_resumes_soundly_at_epsilon_zero(
        universe_seed in 0usize..1_000,
        raw_subsets in vec(vec(0usize..16, 1..5), 1..8),
        raw_appended in vec(vec(0usize..16, 1..5), 1..4),
        budget_nodes in 1u64..24,
    ) {
        let system = build_system(universe_seed, &raw_subsets);
        let score = coverage_score(&system);
        let (mut covers, _, suspended) = collect(
            Search::approx(&score, ApproxEnumConfig::new(0.0))
                .with_order(SearchOrder::ShortestFirst),
            &system,
            SearchBudget::unlimited().with_max_nodes(budget_nodes),
        );
        let Some(mut token) = suspended else { continue };
        let pre_patch = covers.len();
        let (grown, appended_from) = grow_system(&system, &raw_appended);
        token.patch(&grown, appended_from);
        let grown_score = coverage_score(&grown);
        // ε > 0 must refuse the patched frontier; ε = 0 must accept it.
        let reject_probe = token.clone();
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Search::approx(&grown_score, ApproxEnumConfig::new(0.25))
                .with_resume(reject_probe)
                .run(&grown, SearchBudget::unlimited(), |_| true)
        }));
        prop_assert!(refused.is_err());
        let mut next = Some(token);
        while let Some(t) = next.take() {
            let (mut more, _, again) = collect(
                Search::approx(&grown_score, ApproxEnumConfig::new(0.0)).with_resume(t),
                &grown,
                SearchBudget::unlimited(),
            );
            covers.append(&mut more);
            next = again;
        }
        for s in &covers[pre_patch..] {
            prop_assert!(
                grown.is_minimal_hitting_set(s),
                "patched approx resume emitted a non-minimal cover {:?}",
                s.to_vec()
            );
        }
    }
}
