//! Cover repair: rebuild the minimal-hitting-set answer of a *grown* or
//! *shrunk* set system from the previous answer instead of re-enumerating
//! from scratch.
//!
//! # Appended subsets — exact repair ([`repair_covers`])
//!
//! Let `F` be the old subsets, `T(F)` its complete set of minimal hitting
//! sets, and `A` the appended subsets. Every `τ ∈ T(F ∪ A)` decomposes as
//! `τ = σ ∪ ρ` where `σ ∈ T(F)` and `ρ ∈ T(A_σ)` for
//! `A_σ = { a ∈ A : a ∩ σ = ∅ }` (the appended subsets `σ` misses):
//! pick `σ ⊆ τ` minimal among the subsets of `τ` hitting `F`; then `τ \ σ`
//! hits `A_σ`, shrink it to a minimal `ρ`; `σ ∪ ρ ⊆ τ` hits `F ∪ A`, and
//! minimality of `τ` forces equality. So enumerating `T(A_σ)` per old cover
//! and keeping the candidates that are minimal for the grown system
//! re-creates `T(F ∪ A)` exactly — touching only the covers that actually
//! miss an appended subset. Old covers with `A_σ = ∅` are *provably* still
//! minimal (appending subsets never un-minimalises a set that still hits
//! everything) and are kept without a check.
//!
//! This is **exact only when the input is the complete `T(F)`** — a cover
//! missing from the input can be missing from the output. Truncated runs
//! must restart instead (or continue via [`crate::SuspendedSearch::patch`],
//! which is sound but inherits the truncation).
//!
//! # Removed subsets — exact repair by locality ([`repair_covers_removal`])
//!
//! Removing subsets can create minimal covers that are **not** unions or
//! subsets of old ones. Witness `F = {{1,3}, {2,3}, {3}}` with
//! `T(F) = {{3}}`: removing `{3}` gives `T(F') = {{3}, {1,2}}`, and `{1,2}`
//! is not derivable from `{3}` by shrinking. [`shrink_covers`] alone is
//! therefore only *sound* (every output is a minimal hitting set of the new
//! system), never complete.
//!
//! But the covers shrinking cannot reach are **localisable**. Let `F'` be
//! the surviving subsets and `R₁,…,Rₖ` the removed ones, and take any
//! `τ ∈ T(F')`:
//!
//! - if `τ` still hits *every* removed `Rᵢ`, it hits all of `F = F' ∪ {Rᵢ}`,
//!   so it contains some `σ ∈ T(F)`; `σ` hits `F' ⊆ F`, and minimality of
//!   `τ` for `F'` forces `τ = σ` — the cover was already in the old answer
//!   and survives re-minimalisation unchanged;
//! - otherwise `τ ∩ Rᵢ = ∅` for some removed `Rᵢ`, i.e.
//!   `τ ⊆ complement(Rᵢ)` — exactly what one search run confined to
//!   `complement(Rᵢ)` ([`Search::within`]) enumerates.
//!
//! So `T(F')` = {re-minimalised old covers} ∪ ⋃ᵢ {confined run for `Rᵢ`},
//! and [`repair_covers_removal`] recovers the complete new answer with one
//! greedy shrink pass plus `k` *local* enumerations whose roots already
//! exclude every element of the corresponding removed entry — no
//! full-frontier restart. In the witness above, the confined run for
//! `R = {3}` searches within `{0,1,2}` and recovers precisely `{1,2}`.
//!
//! Like append repair, this is **exact only when the input is the complete
//! `T(F)`** — truncated runs must restart.

#![doc = "conformance: ordered-output"]

use crate::{BranchStrategy, Search, SearchBudget, SetSystem};
use adc_data::fx::FxHashSet;
use adc_data::FixedBitSet;
use std::ops::Range;

/// Statistics of one [`repair_covers`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverRepair {
    /// Old covers that hit every appended subset and were kept as-is.
    pub kept: usize,
    /// Old covers that missed at least one appended subset and were
    /// re-opened (their `T(A_σ)` enumerated).
    pub reopened: usize,
    /// Surviving covers that are proper extensions of a re-opened old cover
    /// (i.e. genuinely new answers).
    pub discovered: usize,
    /// Candidate extensions discarded by the minimality filter.
    pub rejected: usize,
    /// Search-tree nodes expanded across all per-cover sub-enumerations —
    /// directly comparable with [`SearchOutcome::nodes_expanded`] of a
    /// from-scratch restart.
    ///
    /// [`SearchOutcome::nodes_expanded`]: crate::SearchOutcome::nodes_expanded
    pub nodes_expanded: u64,
}

/// Statistics of one [`repair_covers_removal`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RemovalRepair {
    /// Old covers that were still minimal for the shrunk system and were
    /// kept unchanged.
    pub survivors: usize,
    /// Old covers that stopped being minimal and were re-minimalised to a
    /// proper subset by the greedy shrink pass.
    pub shrunk: usize,
    /// Confined enumeration runs performed (one per removed subset).
    pub scopes: usize,
    /// Covers found by the confined runs that were not reachable by
    /// shrinking an old cover (genuinely new answers).
    pub discovered: usize,
    /// Confined-run emissions discarded as duplicates of an already-known
    /// cover.
    pub rejected: usize,
    /// Search-tree nodes expanded across all confined runs — directly
    /// comparable with [`SearchOutcome::nodes_expanded`] of a from-scratch
    /// restart.
    ///
    /// [`SearchOutcome::nodes_expanded`]: crate::SearchOutcome::nodes_expanded
    pub nodes_expanded: u64,
}

/// Repair a **complete** minimal-hitting-set answer after subsets were
/// appended to the system.
///
/// `old_covers` must be *all* minimal hitting sets of the system made of
/// `system.subsets()[..appended.start]`; `appended` is the index range of
/// the subsets appended since (`appended.end == system.len()`). Returns the
/// complete answer for the grown system, deduplicated, in a deterministic
/// order (kept/extended covers in `old_covers` order, extensions of one
/// cover in enumeration order), plus repair statistics.
///
/// # Panics
/// Panics if `appended` is not a suffix of the system's subset range.
pub fn repair_covers(
    old_covers: &[FixedBitSet],
    system: &SetSystem,
    appended: Range<usize>,
    strategy: BranchStrategy,
) -> (Vec<FixedBitSet>, CoverRepair) {
    assert!(
        appended.start <= appended.end && appended.end == system.len(),
        "appended range {appended:?} is not a suffix of the {}-subset system",
        system.len()
    );
    let m = system.num_elements();
    let mut out: Vec<FixedBitSet> = Vec::new();
    let mut seen: FxHashSet<FixedBitSet> = FxHashSet::default();
    let mut stats = CoverRepair::default();

    for sigma in old_covers {
        let missed: Vec<&FixedBitSet> = system.subsets()[appended.clone()]
            .iter()
            .filter(|a| !a.intersects(sigma))
            .collect();
        if missed.is_empty() {
            // σ still hits everything, and appending subsets cannot make a
            // minimal cover non-minimal: removing any element un-hits some
            // old subset, which is still in the system.
            debug_assert!(system.is_minimal_hitting_set(sigma));
            stats.kept += 1;
            if seen.insert(sigma.clone()) {
                out.push(sigma.clone());
            }
            continue;
        }
        stats.reopened += 1;
        // Enumerate T(A_σ) over the same element universe and graft each ρ
        // onto σ; the minimality filter against the *full* grown system
        // rejects the grafts that some other σ' already covers more cheaply.
        let sub = SetSystem::new(m, missed.into_iter().cloned().collect());
        let (outcome, _) =
            Search::exact()
                .with_strategy(strategy)
                .run(&sub, SearchBudget::unlimited(), |rho| {
                    let mut candidate = sigma.clone();
                    candidate.union_with(rho);
                    if system.is_minimal_hitting_set(&candidate) {
                        stats.discovered += 1;
                        if seen.insert(candidate.clone()) {
                            out.push(candidate);
                        }
                    } else {
                        stats.rejected += 1;
                    }
                    true
                });
        stats.nodes_expanded += outcome.nodes_expanded;
    }
    (out, stats)
}

/// Repair a **complete** minimal-hitting-set answer after subsets were
/// removed from the system.
///
/// `old_covers` must be *all* minimal hitting sets of the system that
/// consisted of `system.subsets()` **plus** the subsets in `removed` (each a
/// bitmask over the same element universe). Returns the complete answer for
/// the shrunk system, deduplicated, in a deterministic order (re-minimalised
/// old covers in `old_covers` order, then discoveries per removed subset in
/// `removed` order and enumeration order within each), plus repair
/// statistics.
///
/// The repair is *local*: beyond the greedy shrink pass, it runs one search
/// confined to `complement(Rᵢ)` per removed subset `Rᵢ` — see the module
/// docs for why those confined runs recover exactly the covers shrinking
/// cannot reach. Removed subsets whose complement is everything (empty
/// masks) still get a scope; callers should drop masks that are no longer
/// genuinely absent from the system before calling.
///
/// # Panics
/// Panics (in debug builds) if a removed mask's capacity differs from the
/// system's element count.
pub fn repair_covers_removal(
    old_covers: &[FixedBitSet],
    system: &SetSystem,
    removed: &[FixedBitSet],
    strategy: BranchStrategy,
) -> (Vec<FixedBitSet>, RemovalRepair) {
    let mut out: Vec<FixedBitSet> = Vec::new();
    let mut seen: FxHashSet<FixedBitSet> = FxHashSet::default();
    let mut stats = RemovalRepair::default();

    // Phase 1: re-minimalise the survivors. Under a pure shrink every old
    // cover still hits the remaining subsets; what it can lose is
    // *minimality* (an element kept only to hit a removed subset becomes
    // droppable).
    for cover in old_covers {
        debug_assert!(
            system.is_hitting_set(cover),
            "old cover stopped hitting a shrunk system — the input was not \
             the answer of a superset family"
        );
        let mut shrunk = cover.clone();
        for e in cover.iter() {
            shrunk.remove(e);
            if !system.is_hitting_set(&shrunk) {
                shrunk.insert(e);
            }
        }
        debug_assert!(system.is_minimal_hitting_set(&shrunk));
        if shrunk.len() == cover.len() {
            stats.survivors += 1;
        } else {
            stats.shrunk += 1;
        }
        if seen.insert(shrunk.clone()) {
            out.push(shrunk);
        }
    }

    // Phase 2: one confined enumeration per removed subset. Every new
    // minimal cover misses some removed R (else it would contain — hence
    // equal — an old cover), so searching within complement(R) per R
    // recovers all of them.
    for mask in removed {
        debug_assert_eq!(mask.capacity(), system.num_elements());
        stats.scopes += 1;
        let allowed = mask.complement();
        let (outcome, _) = Search::exact()
            .with_strategy(strategy)
            .within(&allowed)
            .run(system, SearchBudget::unlimited(), |tau| {
                if seen.insert(tau.clone()) {
                    stats.discovered += 1;
                    out.push(tau.clone());
                } else {
                    stats.rejected += 1;
                }
                true
            });
        stats.nodes_expanded += outcome.nodes_expanded;
    }
    (out, stats)
}

/// Greedily re-minimise covers after subsets were removed from the system.
///
/// Every returned set is a minimal hitting set of `system` (elements are
/// dropped in ascending order while the set keeps hitting everything — a
/// single ascending pass suffices: an element kept because its removal broke
/// coverage stays necessary as the set only shrinks further). Duplicates
/// produced by different inputs shrinking to the same cover are removed,
/// first occurrence wins.
///
/// **Sound, not complete**: see the module docs for why no repair from old
/// covers can be complete under removals.
pub fn shrink_covers(covers: &[FixedBitSet], system: &SetSystem) -> Vec<FixedBitSet> {
    let mut out: Vec<FixedBitSet> = Vec::new();
    let mut seen: FxHashSet<FixedBitSet> = FxHashSet::default();
    for cover in covers {
        if !system.is_hitting_set(cover) {
            // A cover can stop hitting only if the caller's system is not a
            // pure shrink of the one the cover was mined on; skip it.
            continue;
        }
        let mut shrunk = cover.clone();
        for e in cover.iter() {
            shrunk.remove(e);
            if !system.is_hitting_set(&shrunk) {
                shrunk.insert(e);
            }
        }
        debug_assert!(system.is_minimal_hitting_set(&shrunk));
        if seen.insert(shrunk.clone()) {
            out.push(shrunk);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_minimal_hitting_sets;

    fn minimal_hitting_sets(system: &SetSystem, strategy: BranchStrategy) -> Vec<FixedBitSet> {
        let mut out = Vec::new();
        Search::exact()
            .with_strategy(strategy)
            .run(system, SearchBudget::unlimited(), |s| {
                out.push(s.clone());
                true
            });
        out
    }

    fn as_sorted_vecs(sets: &[FixedBitSet]) -> Vec<Vec<usize>> {
        let mut v: Vec<Vec<usize>> = sets.iter().map(|s| s.to_vec()).collect();
        v.sort();
        v
    }

    #[test]
    fn repair_matches_full_reenumeration() {
        let old = SetSystem::from_indices(5, &[&[0, 1], &[1, 2]]);
        let covers = minimal_hitting_sets(&old, BranchStrategy::default());
        let mut grown = old.clone();
        grown.push_subset(FixedBitSet::from_indices(5, [3, 4]));
        grown.push_subset(FixedBitSet::from_indices(5, [1, 4]));
        let (repaired, stats) = repair_covers(&covers, &grown, 2..4, BranchStrategy::default());
        let expected = brute_force_minimal_hitting_sets(&grown);
        assert_eq!(as_sorted_vecs(&repaired), as_sorted_vecs(&expected));
        assert_eq!(stats.kept + stats.reopened, covers.len());
        assert!(stats.reopened > 0);
    }

    #[test]
    fn repair_with_no_appended_subsets_is_identity() {
        let sys = SetSystem::from_indices(4, &[&[0, 1], &[2, 3]]);
        let covers = minimal_hitting_sets(&sys, BranchStrategy::default());
        let n = sys.len();
        let (repaired, stats) = repair_covers(&covers, &sys, n..n, BranchStrategy::default());
        assert_eq!(as_sorted_vecs(&repaired), as_sorted_vecs(&covers));
        assert_eq!(stats.kept, covers.len());
        assert_eq!(stats.reopened, 0);
        assert_eq!(stats.discovered, 0);
    }

    #[test]
    fn repair_from_empty_system() {
        // T(∅) = {∅}: growing from nothing behaves like a fresh enumeration.
        let mut sys = SetSystem::new(3, Vec::new());
        let covers = minimal_hitting_sets(&sys, BranchStrategy::default());
        assert_eq!(covers.len(), 1);
        assert!(covers[0].is_empty());
        sys.push_subset(FixedBitSet::from_indices(3, [0, 2]));
        let (repaired, _) = repair_covers(&covers, &sys, 0..1, BranchStrategy::default());
        assert_eq!(as_sorted_vecs(&repaired), vec![vec![0], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "not a suffix")]
    fn repair_rejects_non_suffix_range() {
        let sys = SetSystem::from_indices(3, &[&[0], &[1]]);
        repair_covers(&[], &sys, 0..1, BranchStrategy::default());
    }

    #[test]
    fn shrink_is_sound_and_shows_the_incompleteness_witness() {
        // F = {{1,3},{2,3},{3}} over elements 0..4 → T(F) = {{3}}.
        let old = SetSystem::from_indices(4, &[&[1, 3], &[2, 3], &[3]]);
        let covers = minimal_hitting_sets(&old, BranchStrategy::default());
        assert_eq!(as_sorted_vecs(&covers), vec![vec![3]]);
        // Remove {3}: the true answer gains {1,2}, which no shrink of {3}
        // can produce — shrink stays sound but incomplete.
        let shrunk_sys = SetSystem::from_indices(4, &[&[1, 3], &[2, 3]]);
        let shrunk = shrink_covers(&covers, &shrunk_sys);
        for s in &shrunk {
            assert!(shrunk_sys.is_minimal_hitting_set(s));
        }
        assert_eq!(as_sorted_vecs(&shrunk), vec![vec![3]]);
        let full = as_sorted_vecs(&brute_force_minimal_hitting_sets(&shrunk_sys));
        assert_eq!(full, vec![vec![1, 2], vec![3]]);
    }

    #[test]
    fn shrink_reminimises_and_dedups() {
        let sys = SetSystem::from_indices(4, &[&[0, 1]]);
        let fat = vec![
            FixedBitSet::from_indices(4, [0, 2]),
            FixedBitSet::from_indices(4, [0, 3]),
            FixedBitSet::from_indices(4, [1]),
        ];
        let shrunk = shrink_covers(&fat, &sys);
        assert_eq!(as_sorted_vecs(&shrunk), vec![vec![0], vec![1]]);
    }

    #[test]
    fn removal_repair_recovers_the_incompleteness_witness() {
        // Same witness as above: removing {3} from F = {{1,3},{2,3},{3}}
        // creates {1,2}, unreachable by shrinking {3}. The confined run for
        // the removed mask searches within {0,1,2} and recovers it.
        let old = SetSystem::from_indices(4, &[&[1, 3], &[2, 3], &[3]]);
        let covers = minimal_hitting_sets(&old, BranchStrategy::default());
        let shrunk_sys = SetSystem::from_indices(4, &[&[1, 3], &[2, 3]]);
        let removed = vec![FixedBitSet::from_indices(4, [3])];
        let (repaired, stats) =
            repair_covers_removal(&covers, &shrunk_sys, &removed, BranchStrategy::default());
        assert_eq!(as_sorted_vecs(&repaired), vec![vec![1, 2], vec![3]]);
        assert_eq!(stats.survivors, 1); // {3} is still minimal
        assert_eq!(stats.shrunk, 0);
        assert_eq!(stats.scopes, 1);
        assert_eq!(stats.discovered, 1); // {1,2}
        assert!(stats.nodes_expanded > 0);
    }

    #[test]
    fn removal_repair_reminimalises_covers_that_lost_their_reason() {
        // F = {{0},{1,2}} → T = {{0,1},{0,2}}. Removing {0} makes both
        // non-minimal; they shrink to {1} and {2}, and the confined run for
        // {0}'s complement {1,2,3} rediscovers only those same covers.
        let old = SetSystem::from_indices(4, &[&[0], &[1, 2]]);
        let covers = minimal_hitting_sets(&old, BranchStrategy::default());
        assert_eq!(as_sorted_vecs(&covers), vec![vec![0, 1], vec![0, 2]]);
        let shrunk_sys = SetSystem::from_indices(4, &[&[1, 2]]);
        let removed = vec![FixedBitSet::from_indices(4, [0])];
        let (repaired, stats) =
            repair_covers_removal(&covers, &shrunk_sys, &removed, BranchStrategy::default());
        assert_eq!(as_sorted_vecs(&repaired), vec![vec![1], vec![2]]);
        assert_eq!(stats.survivors, 0);
        assert_eq!(stats.shrunk, 2);
        assert_eq!(stats.discovered, 0);
        assert_eq!(stats.rejected, 2);
    }

    #[test]
    fn removal_repair_with_no_removals_is_the_identity() {
        let sys = SetSystem::from_indices(4, &[&[0, 1], &[2, 3]]);
        let covers = minimal_hitting_sets(&sys, BranchStrategy::default());
        let (repaired, stats) =
            repair_covers_removal(&covers, &sys, &[], BranchStrategy::default());
        assert_eq!(as_sorted_vecs(&repaired), as_sorted_vecs(&covers));
        assert_eq!(stats.survivors, covers.len());
        assert_eq!(stats.shrunk, 0);
        assert_eq!(stats.scopes, 0);
        assert_eq!(stats.nodes_expanded, 0);
    }

    #[test]
    fn removal_repair_down_to_the_empty_system_yields_the_empty_cover() {
        // T(∅) = {∅}: every old cover shrinks all the way to ∅.
        let old = SetSystem::from_indices(3, &[&[0, 1]]);
        let covers = minimal_hitting_sets(&old, BranchStrategy::default());
        let empty_sys = SetSystem::new(3, Vec::new());
        let removed = vec![FixedBitSet::from_indices(3, [0, 1])];
        let (repaired, _) =
            repair_covers_removal(&covers, &empty_sys, &removed, BranchStrategy::default());
        assert_eq!(repaired.len(), 1);
        assert!(repaired[0].is_empty());
    }

    #[test]
    fn removal_repair_matches_brute_force_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2020);
        for round in 0..60 {
            let m = rng.gen_range(3..9);
            let k = rng.gen_range(1..8);
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
            let old_sys = SetSystem::new(m, subsets.clone());
            let old_covers = minimal_hitting_sets(&old_sys, BranchStrategy::default());
            // Remove a random (sometimes total) slice of the family.
            let keep: Vec<bool> = (0..k).map(|_| rng.gen_bool(0.5)).collect();
            let survivors: Vec<FixedBitSet> = subsets
                .iter()
                .zip(&keep)
                .filter(|(_, &kept)| kept)
                .map(|(s, _)| s.clone())
                .collect();
            let removed: Vec<FixedBitSet> = subsets
                .iter()
                .zip(&keep)
                .filter(|(_, &kept)| !kept)
                .map(|(s, _)| s.clone())
                .collect();
            let new_sys = SetSystem::new(m, survivors);
            let (repaired, stats) =
                repair_covers_removal(&old_covers, &new_sys, &removed, BranchStrategy::default());
            let expected = brute_force_minimal_hitting_sets(&new_sys);
            assert_eq!(
                as_sorted_vecs(&repaired),
                as_sorted_vecs(&expected),
                "round {round}: repair diverged from brute force"
            );
            assert_eq!(stats.survivors + stats.shrunk, old_covers.len());
            assert_eq!(stats.scopes, removed.len());
        }
    }
}
