//! Criterion benchmark: naive vs cluster/bitmask vs sweep evidence-set
//! construction (the ablation behind the AFASTDC vs DCFinder gap in
//! Figure 7, plus the thread scaling of the sweep kernel).
//!
//! The `sweep/*` entries produce output canonically equal to `cluster` and
//! bit-identical to each other at every thread count; they differ only in
//! wall-clock time. See `crates/bench/README.md` for a recorded run.

use adc_datasets::Dataset;
use adc_evidence::{
    ClusterEvidenceBuilder, EvidenceBuilder, NaiveEvidenceBuilder, SweepEvidenceBuilder,
};
use adc_predicates::{PredicateSpace, SpaceConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("evidence_builders");
    group.sample_size(10);
    for dataset in [Dataset::Stock, Dataset::Tax] {
        let relation = dataset.generator().generate(300, 2);
        let space = PredicateSpace::build(&relation, SpaceConfig::default());
        for (label, track_vios) in [("", false), ("+vios", true)] {
            group.bench_function(format!("naive{label}/{}", dataset.name()), |b| {
                b.iter(|| {
                    NaiveEvidenceBuilder
                        .build(&relation, &space, track_vios)
                        .evidence_set
                        .distinct_count()
                })
            });
            group.bench_function(format!("cluster{label}/{}", dataset.name()), |b| {
                b.iter(|| {
                    ClusterEvidenceBuilder
                        .build(&relation, &space, track_vios)
                        .evidence_set
                        .distinct_count()
                })
            });
            group.bench_function(format!("sweep/t2{label}/{}", dataset.name()), |b| {
                b.iter(|| {
                    SweepEvidenceBuilder::new(2)
                        .build(&relation, &space, track_vios)
                        .evidence_set
                        .distinct_count()
                })
            });
        }
    }
    group.finish();

    // Thread scaling: a 1k-row relation, the sequential cluster kernel
    // against the sweep on 1/2/4 worker threads.
    let relation = Dataset::Tax.generator().generate(1000, 3);
    let space = PredicateSpace::build(&relation, SpaceConfig::default());
    let mut scaling = c.benchmark_group("evidence_scaling_1k");
    scaling.sample_size(10);
    scaling.bench_function("cluster", |b| {
        b.iter(|| {
            ClusterEvidenceBuilder
                .build(&relation, &space, false)
                .evidence_set
                .distinct_count()
        })
    });
    for threads in [1, 2, 4] {
        scaling.bench_function(format!("sweep/t{threads}"), |b| {
            b.iter(|| {
                SweepEvidenceBuilder::new(threads)
                    .build(&relation, &space, false)
                    .evidence_set
                    .distinct_count()
            })
        });
    }
    scaling.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
