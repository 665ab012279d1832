//! # adc-hitting
//!
//! Minimal hitting-set enumeration (MMCS, Murakami & Uno 2014) and the
//! *approximate* minimal hitting-set enumeration at the core of `ADCEnum`
//! (Section 6 of the VLDB 2020 ADC paper).
//!
//! The hitting-set problem: given elements `0..m` and a family of subsets,
//! find all inclusion-minimal element sets intersecting every subset. The
//! approximate variant replaces "intersects every subset" with a threshold
//! on an arbitrary scoring function `f` supplied by the caller: a set `X` is
//! an *approximate hitting set* when `1 − f(X) ≤ ε`, and the goal is to
//! enumerate all the minimal ones.
//!
//! The paper reduces ADC discovery to exactly this problem (elements =
//! predicates, subsets = distinct evidence sets, `f` = approximation
//! function), but as the paper notes the algorithm is independent of that
//! application — this crate depends only on `adc-data` for its bitset and can
//! be used for any hypergraph-transversal-style workload.
//!
//! Every enumeration — exact or approximate, budgeted, resumed, or confined
//! to a subset of the elements — is one [`Search`] value and one call to
//! [`Search::run`]:
//!
//! ```
//! use adc_hitting::{ApproxEnumConfig, BranchStrategy, Search, SearchBudget, SetSystem};
//!
//! // The path hypergraph {0,1}, {1,2}, {2,3} has three minimal transversals.
//! let system = SetSystem::from_indices(4, &[&[0, 1], &[1, 2], &[2, 3]]);
//! let mut found = Vec::new();
//! Search::exact()
//!     .with_strategy(BranchStrategy::MinIntersection)
//!     .run(&system, SearchBudget::unlimited(), |hs| {
//!         found.push(hs.to_vec());
//!         true // keep enumerating
//!     });
//! found.sort();
//! assert_eq!(found, vec![vec![0, 2], vec![1, 2], vec![1, 3]]);
//!
//! // Approximately (up to ε ≈ 1/3 of the subsets may stay unhit), any
//! // minimal set hitting two of the three subsets is an answer.
//! let score = |set: &adc_data::FixedBitSet| {
//!     system.subsets().iter().filter(|s| s.intersects(set)).count() as f64 / 3.0
//! };
//! let mut approx = Vec::new();
//! Search::approx(&score, ApproxEnumConfig::new(0.34)).run(
//!     &system,
//!     SearchBudget::unlimited(),
//!     |hs| {
//!         approx.push(hs.to_vec());
//!         true
//!     },
//! );
//! approx.sort();
//! assert_eq!(approx, vec![vec![0, 3], vec![1], vec![2]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod approx;
pub mod brute;
pub mod mmcs;
pub mod repair;
pub mod search;

pub use approx::{ApproxEnumConfig, ApproxEnumStats};
pub use repair::{repair_covers, repair_covers_removal, shrink_covers, CoverRepair, RemovalRepair};
pub use search::{
    Search, SearchBudget, SearchOrder, SearchOutcome, SuspendedSearch, Truncation, TruncationReason,
};

use adc_data::FixedBitSet;

/// How the next uncovered subset to "hit" is selected.
///
/// Murakami & Uno suggest the subset with the **minimum** intersection with
/// the candidate list; the ADC paper found the **maximum** intersection to be
/// faster for approximate enumeration (Figure 10) because it shrinks the
/// candidate list faster for the non-hitting branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BranchStrategy {
    /// Select the uncovered subset maximising `|F ∩ cand|` (paper default).
    #[default]
    MaxIntersection,
    /// Select the uncovered subset minimising `|F ∩ cand|` (Murakami & Uno).
    MinIntersection,
    /// Select the first selectable uncovered subset (baseline for ablations).
    First,
}

impl BranchStrategy {
    /// Short label used in benchmark reports.
    pub fn label(self) -> &'static str {
        match self {
            BranchStrategy::MaxIntersection => "max-intersection",
            BranchStrategy::MinIntersection => "min-intersection",
            BranchStrategy::First => "first",
        }
    }
}

/// A hitting-set problem instance: subsets over the element universe
/// `0..num_elements`.
#[derive(Debug, Clone)]
pub struct SetSystem {
    num_elements: usize,
    subsets: Vec<FixedBitSet>,
}

impl SetSystem {
    /// Create a set system.
    ///
    /// # Panics
    /// Panics if any subset's capacity differs from `num_elements`.
    pub fn new(num_elements: usize, subsets: Vec<FixedBitSet>) -> Self {
        for s in &subsets {
            assert_eq!(s.capacity(), num_elements, "subset capacity mismatch");
        }
        SetSystem {
            num_elements,
            subsets,
        }
    }

    /// Build from explicit index lists (convenient in tests).
    pub fn from_indices(num_elements: usize, subsets: &[&[usize]]) -> Self {
        Self::new(
            num_elements,
            subsets
                .iter()
                .map(|s| FixedBitSet::from_indices(num_elements, s.iter().copied()))
                .collect(),
        )
    }

    /// Number of elements in the universe.
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// The subsets.
    pub fn subsets(&self) -> &[FixedBitSet] {
        &self.subsets
    }

    /// Number of subsets.
    pub fn len(&self) -> usize {
        self.subsets.len()
    }

    /// `true` if there are no subsets (every set, including ∅, is a hitting set).
    pub fn is_empty(&self) -> bool {
        self.subsets.is_empty()
    }

    /// Append one subset, returning its index.
    ///
    /// Appending (rather than inserting) keeps every existing subset index
    /// stable, which is what lets differential callers describe a grown
    /// system as "the old one plus `appended_from..len()`" — the contract
    /// [`crate::repair`] and [`SuspendedSearch::patch`] are built on.
    ///
    /// # Panics
    /// Panics if the subset's capacity differs from `num_elements`.
    pub fn push_subset(&mut self, subset: FixedBitSet) -> usize {
        assert_eq!(
            subset.capacity(),
            self.num_elements,
            "subset capacity mismatch"
        );
        self.subsets.push(subset);
        self.subsets.len() - 1
    }

    /// `true` if `set` intersects every subset.
    pub fn is_hitting_set(&self, set: &FixedBitSet) -> bool {
        self.subsets.iter().all(|s| s.intersects(set))
    }

    /// `true` if `set` is a hitting set and no proper subset of it is.
    pub fn is_minimal_hitting_set(&self, set: &FixedBitSet) -> bool {
        if !self.is_hitting_set(set) {
            return false;
        }
        set.iter().all(|e| {
            let mut smaller = set.clone();
            smaller.remove(e);
            !self.is_hitting_set(&smaller)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_system_basics() {
        let sys = SetSystem::from_indices(4, &[&[0, 1], &[1, 2], &[3]]);
        assert_eq!(sys.num_elements(), 4);
        assert_eq!(sys.len(), 3);
        assert!(!sys.is_empty());
        let hs = FixedBitSet::from_indices(4, [1, 3]);
        assert!(sys.is_hitting_set(&hs));
        assert!(sys.is_minimal_hitting_set(&hs));
        let non_min = FixedBitSet::from_indices(4, [0, 1, 3]);
        assert!(sys.is_hitting_set(&non_min));
        assert!(!sys.is_minimal_hitting_set(&non_min));
        let not_hs = FixedBitSet::from_indices(4, [0, 3]);
        assert!(!sys.is_hitting_set(&not_hs));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn capacity_mismatch_rejected() {
        SetSystem::new(4, vec![FixedBitSet::new(5)]);
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(BranchStrategy::default(), BranchStrategy::MaxIntersection);
        assert_eq!(BranchStrategy::MaxIntersection.label(), "max-intersection");
        assert_eq!(BranchStrategy::MinIntersection.label(), "min-intersection");
        assert_eq!(BranchStrategy::First.label(), "first");
    }
}
