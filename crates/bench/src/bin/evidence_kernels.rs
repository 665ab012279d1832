//! Cross-kernel evidence benchmark: **sequential cluster vs sweep** at
//! 10³–10⁵ rows, with and without the `vios` index.
//!
//! For every grid cell (dataset × scale) the harness builds the evidence set
//! with each kernel that is feasible at that scale, checks the outputs are
//! canonically equal (a speedup over a wrong answer is not a speedup), and
//! records wall-clock seconds plus the *pair-equivalent work* counters of
//! the sweep kernel ([`adc_evidence::SweepStats`]). Cells small enough to
//! run pairwise are built a second time with `vios` tracked by both kernels
//! (`sequential_vios_s`, `sweep_vios_s`) — the `f2`/`f3` regime, where the
//! sweep gives up its rectangle path — and checked for equality again.
//!
//! * `pairs` — `n·(n−1)`, the number of `Sat` materialise+intern operations
//!   every pairwise kernel performs;
//! * `sweep_materializations` — the same operation count for the sweep
//!   (`Σ` blocks over left classes);
//! * `class_grid` — `m·(m−1)` over the `m` distinct row classes: the win
//!   from PLI row-grouping alone, and the upper bound on the sweep's token
//!   scans.
//!
//! The pairwise kernels run only up to 10⁴ rows (at 10⁵ a pairwise scan is
//! `10¹⁰` materialisations — many minutes of pure redundancy; its work
//! figure is analytic anyway). The default grid runs all eight datasets at
//! 10³, a three-dataset spread at 10⁴, and the two class-compressible
//! datasets (Adult, Hospital) sweep-only at 10⁵ — the cells behind the
//! headline claim that the sweep does ≥10× less pair-equivalent work than
//! pairwise at 10⁵ rows.
//!
//! Results go to stdout and `BENCH_kernels.json`. Environment variables:
//! `ADC_BENCH_DATASETS` filters the grid by dataset, `ADC_BENCH_ROWS`
//! replaces the scale list with a single scale, `ADC_BENCH_THREADS` sizes
//! the sweep kernel, and `ADC_BENCH_ASSERT_RATIO` (used by the CI
//! `kernels` smoke) makes any cell whose sweep work ratio falls below the
//! given factor a hard error.

use adc_bench::{bench_threads, object, parsed_env, raw_env, secs, write_report, Json, Table};
use adc_datasets::Dataset;
use adc_evidence::{ClusterEvidenceBuilder, Evidence, EvidenceBuilder, SweepEvidenceBuilder};
use adc_predicates::{PredicateSpace, SpaceConfig};
use std::time::{Duration, Instant};

/// Largest scale at which the pairwise kernels still run (one pairwise scan
/// at the next decade is ~10¹⁰ materialisations).
const PAIRWISE_MAX_ROWS: usize = 10_000;

/// Run `build` once and return its output with the elapsed wall clock.
fn timed(build: impl FnOnce() -> Evidence) -> (Evidence, Duration) {
    let t = Instant::now();
    let evidence = build();
    (evidence, t.elapsed())
}

/// The default (dataset, scale) grid: breadth at 10³, a spread at 10⁴, and
/// the headline 10⁵ sweep cells.
fn in_default_grid(dataset: Dataset, rows: usize) -> bool {
    match rows {
        1_000 => true,
        10_000 => matches!(dataset, Dataset::Adult | Dataset::Hospital | Dataset::Stock),
        100_000 => matches!(dataset, Dataset::Adult | Dataset::Hospital),
        _ => false,
    }
}

fn main() {
    let scales: Vec<usize> = match parsed_env::<usize>("ADC_BENCH_ROWS") {
        Some(rows) => vec![rows.max(10)],
        None => vec![1_000, 10_000, 100_000],
    };
    let explicit =
        parsed_env::<usize>("ADC_BENCH_ROWS").is_some() || raw_env("ADC_BENCH_DATASETS").is_some();
    let datasets = adc_bench::bench_datasets();
    let assert_ratio: Option<f64> = parsed_env("ADC_BENCH_ASSERT_RATIO");
    let threads = bench_threads();

    let mut table = Table::new(vec![
        "Dataset",
        "Rows",
        "Pairs",
        "Classes",
        "Sweep work",
        "Work ratio",
        "Seq (s)",
        "Sweep (s)",
        "Seq+vios (s)",
        "Sweep+vios (s)",
    ]);
    let mut cells: Vec<Json> = Vec::new();

    for &rows in &scales {
        for &dataset in &datasets {
            // An explicit dataset/rows selection overrides the default grid.
            if !explicit && !in_default_grid(dataset, rows) {
                continue;
            }
            let relation = dataset.generator().generate(rows, 0xADC0 + dataset as u64);
            let space = PredicateSpace::build(&relation, SpaceConfig::default());

            let sweep_builder = SweepEvidenceBuilder::new(threads);
            let t = Instant::now();
            let (sweep, stats) = sweep_builder.build_with_stats(&relation, &space, false);
            let sweep_time = t.elapsed();

            let run_pairwise = relation.len() <= PAIRWISE_MAX_ROWS;
            // Wall clocks of [sequential, sequential + vios, sweep + vios].
            let pairwise_times = if run_pairwise {
                // Correctness gate: the sweep must agree canonically with the
                // cluster kernel, the vios index included.
                let check = |sequential: Evidence, sweep: Evidence, track_vios: bool| {
                    assert_eq!(
                        sequential.canonicalized(),
                        sweep.canonicalized(),
                        "{} @ {rows}: sweep kernel diverged (track_vios={track_vios})",
                        dataset.name()
                    );
                };
                let (sequential, seq_time) =
                    timed(|| ClusterEvidenceBuilder.build(&relation, &space, false));
                check(sequential, sweep, false);
                let (sequential, seq_vios_time) =
                    timed(|| ClusterEvidenceBuilder.build(&relation, &space, true));
                let (sweep, sweep_vios_time) =
                    timed(|| sweep_builder.build(&relation, &space, true));
                check(sequential, sweep, true);
                Some([seq_time, seq_vios_time, sweep_vios_time])
            } else {
                // The total-multiplicity invariant still pins the sweep's
                // closed-form counts against the analytic pair count.
                assert_eq!(
                    sweep.evidence_set.total_pairs(),
                    stats.pairwise_pairs,
                    "{} @ {rows}: sweep pair accounting diverged",
                    dataset.name()
                );
                None
            };

            let ratio = stats.materialization_ratio();
            if let Some(min_ratio) = assert_ratio {
                assert!(
                    ratio >= min_ratio,
                    "{} @ {rows}: sweep work ratio {ratio:.1} below the \
                     required {min_ratio}× (materializations {} of {} pairs)",
                    dataset.name(),
                    stats.materializations,
                    stats.pairwise_pairs
                );
            }

            let pairwise_time = |slot: usize| pairwise_times.map(|times| times[slot]);
            let fmt_opt = |t: Option<Duration>| t.map(secs).unwrap_or_else(|| "-".to_string());
            let json_opt =
                |t: Option<Duration>| t.map(|t| Json::from(t.as_secs_f64())).unwrap_or(Json::Null);
            table.add_row(vec![
                dataset.name().to_string(),
                rows.to_string(),
                stats.pairwise_pairs.to_string(),
                stats.classes.to_string(),
                stats.materializations.to_string(),
                format!("{ratio:.1}"),
                fmt_opt(pairwise_time(0)),
                secs(sweep_time),
                fmt_opt(pairwise_time(1)),
                fmt_opt(pairwise_time(2)),
            ]);
            cells.push(object(vec![
                ("dataset", Json::from(dataset.name())),
                ("rows", Json::from(rows)),
                ("pairs", Json::from(stats.pairwise_pairs)),
                ("classes", Json::from(stats.classes)),
                ("class_grid", Json::from(stats.class_grid)),
                ("sweep_materializations", Json::from(stats.materializations)),
                ("work_ratio", Json::from(ratio)),
                ("grid_ratio", Json::from(stats.grid_ratio())),
                ("sequential_s", json_opt(pairwise_time(0))),
                ("sweep_s", Json::from(sweep_time.as_secs_f64())),
                ("sequential_vios_s", json_opt(pairwise_time(1))),
                ("sweep_vios_s", json_opt(pairwise_time(2))),
                ("verified_against_sequential", Json::from(run_pairwise)),
            ]));
        }
    }

    table.print("Evidence kernels: pair-equivalent work and wall clock");
    let report = object(vec![
        ("bench", Json::from("evidence_kernels")),
        ("threads", Json::from(threads)),
        ("pairwise_max_rows", Json::from(PAIRWISE_MAX_ROWS)),
        ("cells", Json::Array(cells)),
    ]);
    let path = write_report("kernels", &report);
    println!("\nrecorded {}", path.display());
}
