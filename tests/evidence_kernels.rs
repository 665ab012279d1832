//! Cross-kernel differential acceptance suite for the evidence builders.
//!
//! Two production kernels construct `Evi(D)`: the sequential cluster kernel
//! and the sub-quadratic, multi-threaded sort/PLI sweep kernel. Their
//! contracts differ in strength, and this suite pins both:
//!
//! * **sweep ≡ sequential, canonically** — the same evidence multiset and
//!   `vios` content, normalized through `Evidence::canonicalize()` because
//!   the sweep interns entries per (left class, block) instead of per
//!   row-major pair;
//! * **threaded sweep ≡ single-threaded sweep, bit for bit** — entry order,
//!   counts, and the `vios` index are identical for every
//!   `{threads, chunk_classes}` shape (the deterministic-merge guarantee).
//!
//! Fixtures cover the paper's running example, noisy synthetic data, and
//! all eight evaluation datasets; the property suite generalises over
//! random schema shapes, values, null placement, sweep shapes, and
//! `track_vios`. Case count scales with `PROPTEST_CASES` (default 256;
//! raised in the CI `kernels` job).

use adc::prelude::*;
use adc_datasets::{spread_noise, NoiseConfig};
use adc_evidence::Evidence;

/// Build with the sequential reference, the single-threaded sweep and the
/// given threaded sweep shape, requiring canonical equality between the
/// sweep and the sequential kernel, and bit-for-bit equality between the
/// two sweeps (the sweep's deterministic chunk-merge guarantee).
fn assert_kernels_agree(relation: &Relation, shape: SweepEvidenceBuilder, track_vios: bool) {
    let space = PredicateSpace::build(relation, SpaceConfig::default());
    let sequential: Evidence = ClusterEvidenceBuilder.build(relation, &space, track_vios);

    let sweep: Evidence = SweepEvidenceBuilder::new(1).build(relation, &space, track_vios);
    assert_eq!(
        sweep.clone().canonicalized(),
        sequential.canonicalized(),
        "sweep evidence diverged canonically from sequential (track_vios={track_vios})"
    );

    let sweep_par: Evidence = shape.build(relation, &space, track_vios);
    assert_eq!(
        sweep_par, sweep,
        "threaded sweep diverged from sequential sweep with {shape:?} (track_vios={track_vios})"
    );
}

#[test]
fn identical_on_the_running_example() {
    let relation = adc::datasets::running_example();
    for track_vios in [false, true] {
        for threads in [2, 4, 7] {
            assert_kernels_agree(&relation, SweepEvidenceBuilder::new(threads), track_vios);
        }
        // Chunk shapes that don't divide the class count evenly, and
        // degenerate ones.
        for chunk_classes in [1, 4, 13, 100] {
            assert_kernels_agree(
                &relation,
                SweepEvidenceBuilder::new(4).with_chunk_classes(chunk_classes),
                track_vios,
            );
        }
    }
}

#[test]
fn identical_on_noisy_stock() {
    let clean = Dataset::Stock.generator().generate(80, 21);
    let (dirty, changed) = spread_noise(&clean, &NoiseConfig::with_rate(0.01), 22);
    assert!(!changed.is_empty(), "noise injector changed nothing");
    for track_vios in [false, true] {
        assert_kernels_agree(&dirty, SweepEvidenceBuilder::new(4), track_vios);
    }
}

#[test]
fn identical_on_noisy_tax() {
    let clean = Dataset::Tax.generator().generate(70, 33);
    let (dirty, changed) = spread_noise(&clean, &NoiseConfig::with_rate(0.02), 34);
    assert!(!changed.is_empty(), "noise injector changed nothing");
    for track_vios in [false, true] {
        assert_kernels_agree(
            &dirty,
            SweepEvidenceBuilder::new(3).with_chunk_classes(9),
            track_vios,
        );
    }
}

#[test]
fn kernels_agree_on_all_eight_datasets() {
    // The acceptance grid in miniature: every evaluation dataset, clean,
    // with and without the vios index.
    for (i, dataset) in Dataset::ALL.iter().enumerate() {
        let relation = dataset.generator().generate(60, 0xADC0 + i as u64);
        for track_vios in [false, true] {
            assert_kernels_agree(&relation, SweepEvidenceBuilder::new(4), track_vios);
        }
    }
}

#[test]
fn canonicalize_is_idempotent_and_order_independent() {
    let relation = Dataset::Hospital.generator().generate(50, 5);
    let space = PredicateSpace::build(&relation, SpaceConfig::default());
    let sequential = ClusterEvidenceBuilder.build(&relation, &space, true);
    let sweep = SweepEvidenceBuilder::default().build(&relation, &space, true);
    // The kernels intern in different orders…
    assert_ne!(
        sequential.evidence_set.entries(),
        sweep.evidence_set.entries(),
        "fixture no longer distinguishes the kernels' intern orders"
    );
    // …canonicalization folds both to one fixed point.
    let canon = sequential.canonicalized();
    assert_eq!(canon, sweep.canonicalized());
    assert_eq!(canon.clone().canonicalized(), canon);
}

mod properties {
    //! Property-based generalisation of the fixture tests above: on *random*
    //! relations (random schema shapes, values, and null placement) and
    //! random sweep shapes, the sweep must match the sequential kernel
    //! canonically and the single-threaded sweep bit for bit.

    use super::*;
    use adc::data::{AttributeType, Schema, Value};
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Build a relation with a schema shape derived from `arity_seed` and
    /// cell values folded from `cells` (column type cycles through integer /
    /// text / float; an occasional value becomes NULL).
    fn random_relation(arity_seed: usize, cells: &[Vec<u8>]) -> Relation {
        let arity = 1 + arity_seed % 5;
        let attrs: Vec<(String, AttributeType)> = (0..arity)
            .map(|c| {
                let ty = match c % 3 {
                    0 => AttributeType::Integer,
                    1 => AttributeType::Text,
                    _ => AttributeType::Float,
                };
                (format!("A{c}"), ty)
            })
            .collect();
        let attr_refs: Vec<(&str, AttributeType)> =
            attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        let mut b = Relation::builder(Schema::of(&attr_refs));
        for row in cells {
            let cells: Vec<Value> = (0..arity)
                .map(|c| {
                    let v = row[c % row.len()] as i64;
                    if v % 13 == 0 {
                        return Value::Null;
                    }
                    match c % 3 {
                        0 => Value::Int(v % 9),
                        1 => Value::from(["x", "y", "z", "w"][(v as usize) % 4]),
                        _ => Value::Float((v % 5) as f64 / 2.0),
                    }
                })
                .collect();
            b.push_row(cells).unwrap();
        }
        b.build()
    }

    proptest! {
        #[test]
        fn kernels_agree_on_random_relations(
            arity_seed in 0usize..1_000,
            cells in vec(vec(0u8..255, 1..6), 2..40),
            threads in 1usize..8,
            chunk_classes in 0usize..40,
            track_vios in any::<bool>(),
        ) {
            let relation = random_relation(arity_seed, &cells);
            let space = PredicateSpace::build(&relation, SpaceConfig::default());
            let sequential: Evidence = ClusterEvidenceBuilder.build(&relation, &space, track_vios);

            let sweep: Evidence = SweepEvidenceBuilder::new(1).build(&relation, &space, track_vios);
            prop_assert_eq!(
                sweep.clone().canonicalized(),
                sequential.canonicalized(),
                "sweep diverged canonically on {} rows × {} cols (track_vios={})",
                relation.len(), relation.arity(), track_vios
            );

            // The threaded sweep must match the sequential sweep bit for bit
            // across the thread/chunk grid.
            let sweep_par: Evidence = SweepEvidenceBuilder::new(threads)
                .with_chunk_classes(chunk_classes)
                .build(&relation, &space, track_vios);
            prop_assert_eq!(
                &sweep_par, &sweep,
                "threaded sweep diverged on {} rows × {} cols, {} threads, {} chunk classes",
                relation.len(), relation.arity(), threads, chunk_classes
            );
        }

        #[test]
        fn kernels_agree_on_random_noisy_datasets(
            dataset_idx in 0usize..8,
            rows in 10usize..60,
            seed in any::<u64>(),
            noise_mil in 0usize..40,
            threads in 1usize..8,
            chunk_classes in 0usize..30,
            track_vios in any::<bool>(),
        ) {
            let dataset = Dataset::ALL[dataset_idx];
            let clean = dataset.generator().generate(rows, seed);
            let (dirty, _) =
                spread_noise(&clean, &NoiseConfig::with_rate(noise_mil as f64 / 1_000.0), seed ^ 1);
            assert_kernels_agree(
                &dirty,
                SweepEvidenceBuilder::new(threads).with_chunk_classes(chunk_classes),
                track_vios,
            );
        }
    }
}

#[test]
fn monitor_seeded_with_sweep_matches_pairwise_monitor() {
    // End-to-end streaming pin: `AdcMonitor` builds its *initial* evidence
    // with the configured kernel, then maintains it differentially. A monitor
    // seeded through `EvidenceStrategy::Sweep` must refresh to the same
    // answers as a pairwise-seeded monitor through an identical churn
    // sequence, under exact and approximate drivers alike.
    let canonical = |result: &MiningResult| -> Vec<String> {
        let mut keyed: Vec<(usize, Vec<usize>, String)> = result
            .dcs
            .iter()
            .map(|dc| {
                let cover = dc.complement_set(&result.space).to_vec();
                (cover.len(), cover, dc.display(&result.space).to_string())
            })
            .collect();
        keyed.sort();
        keyed.into_iter().map(|(_, _, s)| s).collect()
    };

    let base = Dataset::Tax.generator().generate(60, 7);
    let donor = Dataset::Tax.generator().generate(30, 1707);
    for config in [
        MinerConfig::new(0.0),
        MinerConfig::new(0.05),
        MinerConfig::new(0.08).with_approx(ApproxKind::F3),
    ] {
        let mut pairwise = AdcMonitor::new(config, &base);
        let mut sweep = AdcMonitor::new(config.with_sweep_evidence(), &base);
        assert_eq!(pairwise.space().predicates(), sweep.space().predicates());

        for step in 0..3usize {
            let (a, _) = pairwise.refresh().unwrap();
            let (b, _) = sweep.refresh().unwrap();
            assert_eq!(a.total_pairs, b.total_pairs, "step {step}");
            assert_eq!(a.distinct_evidence, b.distinct_evidence, "step {step}");
            assert_eq!(canonical(&a), canonical(&b), "step {step}");

            let n = pairwise.relation().len();
            let deletes: Vec<usize> = (0..4).map(|k| (step * 11 + k * 5) % n).collect();
            pairwise.delete_tuples(&deletes).unwrap();
            sweep.delete_tuples(&deletes).unwrap();
            let inserts: Vec<Vec<Value>> = (0..5)
                .map(|k| donor.row((step * 5 + k) % donor.len()))
                .collect();
            pairwise.insert_tuples(inserts.clone());
            sweep.insert_tuples(inserts);
        }
        let (a, _) = pairwise.refresh().unwrap();
        let (b, _) = sweep.refresh().unwrap();
        assert_eq!(canonical(&a), canonical(&b), "post-churn answers diverged");
    }
}

#[test]
fn all_distinct_columns_refine_sub_quadratically() {
    // Adversarial class-incompressible input: every row is its own class
    // (m = n), the worst case that used to degrade the sweep's refinement
    // to the full m·(m−1) class grid. All columns sort the classes in the
    // same order, so the interval fast path must hold the refinement work
    // to o(m²) — checked here at two sizes: work must grow ~linearly, not
    // quadratically, in m.
    use adc::data::{AttributeType, Schema, Value};

    let build = |n: i64| {
        let schema = Schema::of(&[("A", AttributeType::Integer), ("B", AttributeType::Float)]);
        let mut b = Relation::builder(schema);
        for i in 0..n {
            b.push_row(vec![Value::Int(i), Value::Float(i as f64 * 0.5 + 0.25)])
                .unwrap();
        }
        b.build()
    };

    let mut work = Vec::new();
    for n in [100usize, 400] {
        let relation = build(n as i64);
        let space = PredicateSpace::build(&relation, SpaceConfig::default());
        let sequential: Evidence = ClusterEvidenceBuilder.build(&relation, &space, false);
        let (sweep, stats) =
            SweepEvidenceBuilder::new(2).build_with_stats(&relation, &space, false);
        assert_eq!(sweep.canonicalized(), sequential.canonicalized());
        assert_eq!(stats.classes, n, "all rows must be distinct classes");
        assert_eq!(stats.interval_classes, n as u64);
        assert!(
            stats.refine_steps < stats.class_grid / 4,
            "refinement work {} is not o(m²) against class grid {} at m={n}",
            stats.refine_steps,
            stats.class_grid
        );
        work.push(stats.refine_steps);
    }
    // Quadrupling m quadruples a linear-in-m cost but ×16s a quadratic one;
    // allow generous slack over linear while excluding the quadratic regime.
    assert!(
        work[1] < work[0] * 8,
        "refinement work scaled super-linearly: {} → {}",
        work[0],
        work[1]
    );
}

#[test]
fn miner_results_identical_under_every_kernel() {
    // End-to-end: the full pipeline must emit the same DCs whichever kernel
    // constructed the evidence (same set for the sweep kernel, and the same
    // order at every sweep thread count, whose evidence is bit-for-bit
    // identical).
    let relation = adc::datasets::running_example();
    let sequential = AdcMiner::new(MinerConfig::new(0.05)).mine(&relation);
    let sweep4 =
        AdcMiner::new(MinerConfig::new(0.05).with_evidence(EvidenceStrategy::Sweep { threads: 4 }))
            .mine(&relation);
    let sweep = AdcMiner::new(MinerConfig::new(0.05).with_sweep_evidence()).mine(&relation);
    let ids = |r: &MiningResult| -> Vec<Vec<usize>> {
        r.dcs.iter().map(|d| d.predicate_ids().to_vec()).collect()
    };
    let sorted_ids = |r: &MiningResult| -> Vec<Vec<usize>> {
        let mut v = ids(r);
        v.sort();
        v
    };
    assert_eq!(sorted_ids(&sequential), sorted_ids(&sweep4));
    assert_eq!(sorted_ids(&sequential), sorted_ids(&sweep));
    assert_eq!(ids(&sweep4), ids(&sweep));
    assert_eq!(sequential.distinct_evidence, sweep4.distinct_evidence);
    assert_eq!(sequential.distinct_evidence, sweep.distinct_evidence);
    assert_eq!(sequential.total_pairs, sweep4.total_pairs);
    assert_eq!(sequential.total_pairs, sweep.total_pairs);
}
