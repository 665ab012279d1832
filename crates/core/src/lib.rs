//! # adc-core
//!
//! `ADCMiner` — approximate denial constraint discovery, reproducing the
//! system of *"Approximate Denial Constraints"* (Livshits, Heidari, Ilyas,
//! Kimelfeld — VLDB 2020).
//!
//! The miner is composed of the four components of Figure 1 of the paper:
//!
//! 1. a **predicate space generator** (`adc-predicates`),
//! 2. a **sampler** drawing a uniform subset of the tuples ([`sampling`]),
//! 3. an **evidence set constructor** (`adc-evidence`),
//! 4. an **enumeration algorithm** ([`enumeration::enumerate_adcs`], built on
//!    the approximate minimal-hitting-set enumerator of `adc-hitting`),
//!    parameterised by any valid approximation function (`adc-approx`).
//!
//! The crate also ships the baselines the paper compares against
//! ([`baseline::SearchMinimalCovers`] and the AFASTDC / DCFinder pipeline
//! wrappers) and the quality metrics of the evaluation section
//! ([`metrics`]): precision/recall/F1 between DC sets and G-recall against
//! golden DCs.
//!
//! ```
//! use adc_core::{AdcMiner, MinerConfig};
//! use adc_data::{AttributeType, Relation, Schema, Value};
//!
//! // A tiny income/tax relation with one suspicious tuple pair.
//! let schema = Schema::of(&[
//!     ("State", AttributeType::Text),
//!     ("Income", AttributeType::Integer),
//!     ("Tax", AttributeType::Integer),
//! ]);
//! let mut b = Relation::builder(schema);
//! for (s, i, t) in [("NY", 30, 3), ("NY", 40, 4), ("NY", 50, 5), ("NY", 45, 1)] {
//!     b.push_row(vec![s.into(), Value::Int(i), Value::Int(t)]).unwrap();
//! }
//! let relation = b.build();
//!
//! let result = AdcMiner::new(MinerConfig::new(0.2)).mine(&relation);
//! assert!(!result.dcs.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod enumeration;
pub mod metrics;
pub mod miner;
pub mod monitor;
pub mod sampling;

pub use enumeration::{enumerate_adcs, EnumerationOptions, EnumerationOutcome, TruncationInfo};
pub use metrics::{f1_score, g_recall, DcSetComparison};
pub use miner::{AdcMiner, EvidenceStrategy, MinerConfig, MiningResult, MiningResume, Timings};
pub use monitor::{AdcMonitor, DeltaStats, MonitorError, RefreshPath};
pub use sampling::SampleThreshold;

// Re-export the pieces users need to drive the miner without importing every crate.
pub use adc_approx::{ApproxKind, ApproximationFunction};
pub use adc_hitting::{BranchStrategy, SearchBudget, SearchOrder, TruncationReason};
pub use adc_predicates::{DenialConstraint, PredicateSpace, SpaceConfig, TupleRole};
