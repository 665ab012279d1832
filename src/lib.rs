//! # adc — Approximate Denial Constraint mining
//!
//! A Rust implementation of **ADCMiner** from *"Approximate Denial
//! Constraints"* (Livshits, Heidari, Ilyas, Kimelfeld — VLDB 2020),
//! together with every substrate the system needs: a typed relational data
//! layer, predicate-space generation, evidence-set construction, a family of
//! approximation functions, generic (approximate) minimal hitting-set
//! enumeration, baselines from prior work, synthetic evaluation datasets,
//! and a benchmark harness reproducing the paper's tables and figures.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names and provides a [`prelude`] for the common path.
//!
//! ## Quick start
//!
//! ```
//! use adc::prelude::*;
//!
//! // Table 1 of the paper: 15 tax records with a couple of inconsistencies.
//! let relation = adc::datasets::running_example();
//!
//! // Mine minimal approximate DCs under f1 with a 5% exception budget.
//! let result = AdcMiner::new(MinerConfig::new(0.05)).mine(&relation);
//!
//! // The income/tax rule of Example 1.1 is (a generalisation of) one of them.
//! assert!(!result.dcs.is_empty());
//! println!("{}", result.render());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Typed relational data substrate (values, schemas, relations, CSV, PLIs).
pub mod data {
    pub use adc_data::*;
}

/// Predicates, predicate spaces, and denial constraints.
pub mod predicates {
    pub use adc_predicates::*;
}

/// Evidence-set construction.
pub mod evidence {
    pub use adc_evidence::*;
}

/// Approximation functions and their axioms.
pub mod approx {
    pub use adc_approx::*;
}

/// Generic (approximate) minimal hitting-set enumeration.
pub mod hitting {
    pub use adc_hitting::*;
}

/// The ADCMiner pipeline, baselines, sampling theory, and metrics.
pub mod core {
    pub use adc_core::*;
}

/// Synthetic evaluation datasets, golden DCs, and noise models.
pub mod datasets {
    pub use adc_datasets::*;
}

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use adc_approx::{ApproxKind, ApproximationFunction};
    pub use adc_core::{
        baseline::{AFastDcPipeline, DcFinderPipeline, SearchMinimalCovers},
        enumerate_adcs, f1_score, g_recall, AdcMiner, AdcMonitor, BranchStrategy, DeltaStats,
        DenialConstraint, EnumerationOptions, EvidenceStrategy, MinerConfig, MiningResult,
        MiningResume, MonitorError, PredicateSpace, RefreshPath, SampleThreshold, SearchBudget,
        SearchOrder, SpaceConfig, TruncationInfo, TruncationReason, TupleRole,
    };
    pub use adc_data::{AttributeType, Relation, Schema, Value};
    pub use adc_datasets::{CorrelationSpec, Dataset, DatasetGenerator, NoiseConfig};
    pub use adc_evidence::{
        ClusterEvidenceBuilder, DeltaEvidenceBuilder, EvidenceBuilder, EvidenceDelta,
        NaiveEvidenceBuilder, SweepEvidenceBuilder, SweepStats,
    };
    pub use adc_predicates::{DriftFlip, SpaceDrift, SpaceDriftTracker};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let relation = crate::datasets::running_example();
        let result = AdcMiner::new(MinerConfig::new(0.05)).mine(&relation);
        assert!(!result.dcs.is_empty());
        assert_eq!(result.mined_tuples, 15);
    }
}
