//! Smoke tests for the `adc` facade crate: every re-exported module path must
//! resolve, and the prelude must cover the quick-start flow on its own.

use adc::prelude::*;

/// Each stable module re-exports the workspace crate it fronts; referencing
/// one representative item per module keeps the facade honest.
#[test]
fn every_reexported_module_path_resolves() {
    // adc::data
    let _schema: adc::data::Schema =
        adc::data::Schema::of(&[("A", adc::data::AttributeType::Integer)]);
    let _bits = adc::data::FixedBitSet::new(8);
    let _rel: fn(&str) -> Result<adc::data::Relation, adc::data::DataError> =
        adc::data::csv::parse_csv;

    // adc::predicates
    let _op = adc::predicates::Operator::parse("=");
    let _cfg = adc::predicates::SpaceConfig::same_column_only();
    let _dc: adc::predicates::DenialConstraint = adc::predicates::DenialConstraint::new(vec![]);
    let _role = adc::predicates::TupleRole::Other;

    // adc::evidence
    let _set = adc::evidence::EvidenceSet::new(4, 2);
    let _naive = adc::evidence::NaiveEvidenceBuilder;
    let _cluster = adc::evidence::ClusterEvidenceBuilder;

    // adc::approx
    let _kind = adc::approx::ApproxKind::F1;
    let _f1 = adc::approx::F1ViolationRate;
    let _f2 = adc::approx::F2ProblematicTuples;
    let _f3 = adc::approx::F3GreedyRepair;

    // adc::hitting
    let _strategy = adc::hitting::BranchStrategy::default();
    let _sys = adc::hitting::SetSystem::from_indices(3, &[&[0, 1]]);
    let _search = adc::hitting::Search::exact();
    let _config = adc::hitting::ApproxEnumConfig::new(0.1);
    let _budget = adc::hitting::SearchBudget::unlimited();

    // adc::core
    let _miner = adc::core::AdcMiner::new(adc::core::MinerConfig::new(0.1));
    let _opts = adc::core::EnumerationOptions::new(0.1);
    let _threshold = adc::core::SampleThreshold::new(0.1, 0.05);

    // adc::datasets
    let _ds = adc::datasets::Dataset::Tax;
    let _noise = adc::datasets::NoiseConfig::with_rate(0.01);
    let _rel = adc::datasets::running_example();
}

/// The prelude alone supports the quick-start path from the crate docs.
#[test]
fn prelude_covers_the_quick_start_path() {
    let relation = adc::datasets::running_example();
    assert_eq!(relation.len(), 15);
    assert_eq!(relation.arity(), 5);

    let result = AdcMiner::new(MinerConfig::new(0.05)).mine(&relation);
    assert!(!result.dcs.is_empty());
    assert_eq!(result.mined_tuples, 15);
    assert!(!result.render().is_empty());

    // Prelude items beyond the quick-start flow resolve without `adc::` paths.
    let _kinds = [ApproxKind::F1, ApproxKind::F2, ApproxKind::F3];
    let _strategy = BranchStrategy::default();
    let _evidence = EvidenceStrategy::Cluster;
    let _value: Value = Value::Int(1);
    let _ty = AttributeType::Integer;
    let _recall = g_recall(&result.dcs, &result.dcs);
    let _f1 = f1_score(&result.dcs, &result.dcs);
}
