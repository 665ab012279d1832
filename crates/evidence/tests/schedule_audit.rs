//! Schedule auditor: the parallel sweep kernel is schedule-independent.
//!
//! [`SweepEvidenceBuilder`] claims its output is bit-for-bit identical to
//! the single-threaded build at *any* thread count. On a normal test run
//! that claim is only exercised against whatever interleavings the OS
//! scheduler happens to produce. This suite replays *chosen* schedules
//! through the [`adc_evidence::sync`] shim instead:
//!
//! - **exhaustive grid** — every chunk→worker assignment over 1..=3
//!   workers on a fixed small input (1 + 16 + 81 = 98 schedules, each with
//!   its own shard-arrival shuffle seed), with and without `vios`;
//! - **seeded random schedules** — ≥256 random (workers, pulls, arrival)
//!   triples, with and without `vios`; raise with `ADC_SCHEDULE_SEEDS=<n>` (the CI conformance job
//!   does).
//!
//! Every scheduled build must equal the single-threaded baseline exactly:
//! evidence entry order, multiplicities, and the `vios` index. The arrival
//! shuffle additionally proves the deterministic merge's ascending-chunk
//! sort is load-bearing — remove it and these tests go red.

use adc_data::{AttributeType, Relation, Schema, Value};
use adc_evidence::{Evidence, Schedule, SweepEvidenceBuilder};
use adc_predicates::{PredicateSpace, SpaceConfig};

/// Fixed 8-row relation. Rows are pairwise distinct (the sweep then has
/// m = 8 left classes), but share plenty of values column-wise so evidence
/// entries recur across chunks and the merge's interning dedup is exercised.
fn audit_relation() -> Relation {
    let schema = Schema::of(&[
        ("A", AttributeType::Integer),
        ("B", AttributeType::Integer),
        ("C", AttributeType::Text),
    ]);
    let rows: [(i64, i64, &str); 8] = [
        (1, 10, "x"),
        (1, 20, "y"),
        (2, 10, "y"),
        (2, 20, "x"),
        (3, 10, "x"),
        (3, 30, "z"),
        (1, 30, "x"),
        (2, 30, "z"),
    ];
    let mut b = Relation::builder(schema);
    for (a, bv, c) in rows {
        b.push_row(vec![Value::Int(a), Value::Int(bv), c.into()])
            .expect("audit row");
    }
    b.build()
}

/// Number of random schedules to replay; `ADC_SCHEDULE_SEEDS` raises it
/// (the CI conformance job runs at 1024).
fn schedule_seeds() -> u64 {
    std::env::var("ADC_SCHEDULE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
        .max(256)
}

/// The sweep chunks the audit input into exactly 4 work units
/// (`chunk_classes = 2` over 8 classes).
const CHUNKS: usize = 4;

fn sweep_baseline(r: &Relation, space: &PredicateSpace, track_vios: bool) -> Evidence {
    // `new(1)` takes the sequential (non-threaded) path.
    SweepEvidenceBuilder::new(1)
        .build_with_stats(r, space, track_vios)
        .0
}

fn check_sweep(
    r: &Relation,
    space: &PredicateSpace,
    track_vios: bool,
    baseline: &Evidence,
    s: &Schedule,
) {
    let (audited, _stats) = SweepEvidenceBuilder::new(s.workers)
        .with_chunk_classes(2)
        .build_scheduled(r, space, track_vios, s);
    assert_eq!(
        &audited, baseline,
        "sweep kernel output depends on the schedule: workers={} pulls={:?} \
         arrival_seed={} track_vios={track_vios}",
        s.workers, s.pulls, s.arrival_seed
    );
}

#[test]
fn sweep_kernel_is_schedule_independent_exhaustive() {
    let r = audit_relation();
    let space = PredicateSpace::build(&r, SpaceConfig::default());
    for track_vios in [true, false] {
        let baseline = sweep_baseline(&r, &space, track_vios);
        let mut replayed = 0usize;
        for workers in 1..=3 {
            for schedule in Schedule::exhaustive(workers, CHUNKS) {
                check_sweep(&r, &space, track_vios, &baseline, &schedule);
                replayed += 1;
            }
        }
        assert_eq!(replayed, 1 + 16 + 81, "exhaustive grid shrank");
    }
}

#[test]
fn sweep_kernel_is_schedule_independent_random() {
    let r = audit_relation();
    let space = PredicateSpace::build(&r, SpaceConfig::default());
    for track_vios in [true, false] {
        let baseline = sweep_baseline(&r, &space, track_vios);
        for seed in 0..schedule_seeds() {
            let workers = 2 + (seed % 3) as usize; // 2..=4
            let schedule = Schedule::random(workers, CHUNKS, seed);
            check_sweep(&r, &space, track_vios, &baseline, &schedule);
        }
    }
}

#[test]
fn audited_builds_match_production_builds() {
    // The audited entry point runs the same kernel as production — a
    // scheduled build and a production build at the same shape agree, and
    // both agree with the sequential baseline.
    let r = audit_relation();
    let space = PredicateSpace::build(&r, SpaceConfig::default());
    let baseline = sweep_baseline(&r, &space, true);
    let (production, _) = SweepEvidenceBuilder::new(3)
        .with_chunk_classes(2)
        .build_with_stats(&r, &space, true);
    assert_eq!(production, baseline);
    let schedule = Schedule::random(3, CHUNKS, 7);
    check_sweep(&r, &space, true, &production, &schedule);
}

#[test]
fn schedule_longer_than_chunk_count_is_tolerated() {
    // Extra pulls hand out chunk indexes ≥ num_chunks; the kernel skips them.
    let r = audit_relation();
    let space = PredicateSpace::build(&r, SpaceConfig::default());
    let baseline = sweep_baseline(&r, &space, true);
    let schedule = Schedule {
        workers: 2,
        pulls: vec![0, 1, 0, 1, 0, 1, 0, 1], // 8 pulls, 4 real chunks
        arrival_seed: 99,
    };
    check_sweep(&r, &space, true, &baseline, &schedule);
}

#[test]
#[should_panic(expected = "pulls")]
fn schedule_shorter_than_chunk_count_is_rejected() {
    let r = audit_relation();
    let space = PredicateSpace::build(&r, SpaceConfig::default());
    let schedule = Schedule {
        workers: 2,
        pulls: vec![0, 1], // 4 chunks need ≥4 pulls
        arrival_seed: 0,
    };
    SweepEvidenceBuilder::new(2)
        .with_chunk_classes(2)
        .build_scheduled(&r, &space, true, &schedule);
}
