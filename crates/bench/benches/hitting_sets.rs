//! Criterion benchmark: the generic hitting-set layer on synthetic set
//! systems — exact MMCS vs the approximate enumerator at several thresholds.
//! This isolates the enumeration machinery from the DC-specific plumbing.

use adc_data::FixedBitSet;
use adc_hitting::{ApproxEnumConfig, BranchStrategy, Search, SearchBudget, SetSystem};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_system(elements: usize, subsets: usize, density: f64, seed: u64) -> SetSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sets = Vec::with_capacity(subsets);
    for _ in 0..subsets {
        let mut s = FixedBitSet::new(elements);
        for e in 0..elements {
            if rng.gen_bool(density) {
                s.insert(e);
            }
        }
        if s.is_empty() {
            s.insert(rng.gen_range(0..elements));
        }
        sets.push(s);
    }
    SetSystem::new(elements, sets)
}

fn coverage_score(system: &SetSystem) -> impl Fn(&FixedBitSet) -> f64 + '_ {
    move |set: &FixedBitSet| {
        if system.is_empty() {
            return 1.0;
        }
        system
            .subsets()
            .iter()
            .filter(|f| f.intersects(set))
            .count() as f64
            / system.len() as f64
    }
}

/// Run `search` under `budget` and count the emitted sets.
fn count(search: Search<'_>, system: &SetSystem, budget: SearchBudget) -> usize {
    search.run(system, budget, |_| true).0.emitted
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("hitting_sets");
    group.sample_size(10);
    let system = random_system(24, 120, 0.2, 99);

    // Unbudgeted DFS takes the in-place undo walk (the recursive kernel's
    // cost profile); forcing any budget falls back to the explicit snapshot
    // frontier, so each `_engine` row measures exactly what the walk
    // reclaims on the same tree.
    let forced = SearchBudget::unlimited().with_max_nodes(u64::MAX);
    let exact = Search::exact().with_strategy(BranchStrategy::MinIntersection);
    group.bench_function("mmcs_exact", |b| {
        b.iter(|| count(exact.clone(), &system, SearchBudget::unlimited()))
    });
    group.bench_function("mmcs_exact_engine", |b| {
        b.iter(|| count(exact.clone(), &system, forced))
    });
    // The approximate rows scan every subset per score evaluation, so they
    // get a smaller system of their own: on the 24 × 120 one each of their
    // iterations took seconds.
    let small = random_system(20, 60, 0.2, 99);
    let score = coverage_score(&small);
    for epsilon in [0.0, 0.05, 0.15] {
        let search = Search::approx(&score, ApproxEnumConfig::new(epsilon));
        group.bench_function(format!("approx_eps_{epsilon}"), |b| {
            b.iter(|| count(search.clone(), &small, SearchBudget::unlimited()))
        });
        group.bench_function(format!("approx_eps_{epsilon}_engine"), |b| {
            b.iter(|| count(search.clone(), &small, forced))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
