//! Anytime-mining smoke: a dirty paper-scale mine under an explicit
//! [`SearchBudget`] must terminate within that budget, report the cut via
//! `truncation`, and — since the engine became resumable — a cut run
//! continued in **resume-in-slices** mode must replay exactly the DCs of a
//! single run with the same limits. CI runs this in release mode at
//! `ADC_BENCH_ROWS=10000` so neither behaviour can silently regress.
//!
//! Three mining runs per dataset:
//!
//! 1. **Deadline smoke** — node budget + wall-clock deadline + DC cap; the
//!    process exits non-zero if the enumeration overruns the deadline or the
//!    truncation report is missing everywhere.
//! 2. **Reference** — the same limits minus the deadline (wall-clock cuts
//!    are not reproducible), run once.
//! 3. **Sliced** — the same limits executed as node-budget slices
//!    (`max_nodes / 4` each) resumed through `AdcMiner::resume`
//!    ([`run_miner_sliced`]) until the node budget, the DC cap, or
//!    exhaustion. The concatenated DCs must be byte-identical to the
//!    reference's, and when the reference finished exhaustively the final
//!    slice must report no truncation.
//!
//! Environment variables: the usual `ADC_BENCH_ROWS` / `ADC_BENCH_DATASETS` /
//! `ADC_BENCH_THREADS`, plus `ADC_BUDGET_NODES` (default 100 000),
//! `ADC_BUDGET_MILLIS` (default 30 000), `ADC_BUDGET_DCS` (default 500),
//! `ADC_BUDGET_EPSILON` (default 1e-3), `ADC_BUDGET_SLICE_NODES` (nodes per
//! resume slice; default `max_nodes / 4` — set it *below* the node count
//! the DC cap needs, as CI does, to force several genuine cut/resume
//! round-trips), and `ADC_BUDGET_REQUIRE_COMPLETE` (when `1`, a reference
//! run that does *not* exhaust its frontier within the node budget is an
//! error — used by CI on a small-space dataset to guarantee the
//! truncation-free completion path is exercised).

use adc_bench::{
    bench_config, bench_datasets, bench_relation, parsed_env, run_miner_sliced, secs, write_report,
    Json, Table,
};
use adc_core::{AdcMiner, SearchBudget, SearchOrder};
use adc_datasets::{targeted_spread_noise, NoiseConfig};
use adc_predicates::DenialConstraint;
use std::time::Duration;

fn ids(dcs: &[DenialConstraint]) -> Vec<Vec<usize>> {
    dcs.iter().map(|d| d.predicate_ids().to_vec()).collect()
}

fn main() {
    let max_nodes: u64 = parsed_env("ADC_BUDGET_NODES").unwrap_or(100_000);
    let deadline = Duration::from_millis(parsed_env("ADC_BUDGET_MILLIS").unwrap_or(30_000));
    let max_dcs: usize = parsed_env("ADC_BUDGET_DCS").unwrap_or(500);
    let epsilon: f64 = parsed_env("ADC_BUDGET_EPSILON").unwrap_or(1e-3);
    let require_complete = parsed_env::<u8>("ADC_BUDGET_REQUIRE_COMPLETE").unwrap_or(0) == 1;

    let mut table = Table::new(vec![
        "Dataset",
        "DCs",
        "Nodes",
        "Enum (s)",
        "Truncation",
        "Sliced",
    ]);
    let mut overruns = 0usize;
    let mut truncated_runs = 0usize;
    let mut slice_mismatches = 0usize;
    let mut incomplete_refs = 0usize;
    for dataset in bench_datasets() {
        let generator = dataset.generator();
        let clean = bench_relation(dataset);
        let (dirty, _) = targeted_spread_noise(
            &clean,
            &generator.correlation(),
            &NoiseConfig::with_rate(0.002),
            0xBAD,
        );
        let base = bench_config(epsilon)
            .with_order(SearchOrder::ShortestFirst)
            .with_max_dcs(max_dcs);

        // 1. Deadline smoke: everything budgeted at once.
        let smoke = AdcMiner::new(
            base.with_budget(
                SearchBudget::unlimited()
                    .with_max_nodes(max_nodes)
                    .with_deadline(deadline),
            ),
        )
        .mine(&dirty);
        let smoke_time = smoke.timings.enumeration;
        // The deadline is checked per node pop *and* inside wide expansions,
        // so allow a generous constant for one in-flight step.
        let overran = smoke_time > deadline + Duration::from_secs(10);
        if overran {
            overruns += 1;
        }
        if smoke.truncation.is_some() {
            truncated_runs += 1;
        }

        // 2. Reference: same limits, no deadline (not reproducible), one run.
        let reference_config =
            base.with_budget(SearchBudget::unlimited().with_max_nodes(max_nodes));
        let reference = AdcMiner::new(reference_config).mine(&dirty);
        if reference.truncation.is_some() && require_complete {
            incomplete_refs += 1;
        }

        // 3. Resume-in-slices: cut every `slice_nodes` nodes, resume from
        //    the token, stop at the same overall limits.
        let slice_nodes: u64 =
            parsed_env("ADC_BUDGET_SLICE_NODES").unwrap_or((max_nodes / 4).max(1));
        let (sliced, slices) = run_miner_sliced(&dirty, reference_config, slice_nodes);
        let last_truncation = sliced.truncation;
        let dcs = sliced.dcs;

        let reference_ids = ids(&reference.dcs);
        let sliced_ids = ids(&dcs);
        let identical = sliced_ids == reference_ids;
        let complete_ok = reference.truncation.is_some() || last_truncation.is_none();
        if !identical || !complete_ok {
            slice_mismatches += 1;
        }
        let sliced_cell = format!(
            "{slices} slice(s): {}{}",
            if identical { "identical" } else { "MISMATCH" },
            if reference.truncation.is_none() {
                if last_truncation.is_none() {
                    ", complete"
                } else {
                    ", NOT COMPLETE"
                }
            } else {
                ""
            }
        );

        let truncation = match smoke.truncation {
            Some(t) => t.to_string(),
            None => "none (exhaustive)".to_string(),
        };
        table.add_row(vec![
            generator.name().to_string(),
            smoke.dcs.len().to_string(),
            smoke.enum_stats.recursive_calls.to_string(),
            secs(smoke_time),
            if overran {
                format!("{truncation} — DEADLINE OVERRUN")
            } else {
                truncation
            },
            sliced_cell,
        ]);
    }
    table.print(&format!(
        "Anytime smoke — dirty enumeration at ε={epsilon}, budget: {max_nodes} nodes / {deadline:?} / {max_dcs} DCs"
    ));
    // Record before the pass/fail gates so a failing CI run still leaves
    // its table behind for diagnosis.
    let mut report = table.report("search_budget");
    if let Json::Object(pairs) = &mut report {
        pairs.push(("overruns".to_string(), Json::from(overruns)));
        pairs.push(("truncated_runs".to_string(), Json::from(truncated_runs)));
        pairs.push(("slice_mismatches".to_string(), Json::from(slice_mismatches)));
        pairs.push(("incomplete_refs".to_string(), Json::from(incomplete_refs)));
    }
    let path = write_report("search_budget", &report);
    println!("recorded {}", path.display());
    // Regressions this smoke exists to catch: an enumeration that blows
    // through its deadline, a budget-cut run that fails to say so, and a
    // sliced (cut + resume) replay that diverges from the single run. Dirty
    // mining at this ε has a frontier far beyond the DC cap on the large
    // datasets, so at least one run must report truncation unless the
    // completion mode is on (small-space datasets legitimately exhaust).
    if overruns > 0 {
        eprintln!("search_budget smoke: {overruns} run(s) overran the deadline");
        std::process::exit(1);
    }
    if slice_mismatches > 0 {
        eprintln!(
            "search_budget smoke: {slice_mismatches} sliced run(s) diverged from the single run"
        );
        std::process::exit(1);
    }
    if require_complete {
        if incomplete_refs > 0 {
            eprintln!(
                "search_budget smoke: {incomplete_refs} reference run(s) failed to exhaust \
                 within the node budget (ADC_BUDGET_REQUIRE_COMPLETE=1)"
            );
            std::process::exit(1);
        }
        println!("all sliced runs replayed their reference identically and completed");
    } else {
        if truncated_runs == 0 {
            eprintln!(
                "search_budget smoke: no run reported truncation — budget reporting regressed?"
            );
            std::process::exit(1);
        }
        println!(
            "all runs terminated within budget; {truncated_runs} reported truncation; \
             all sliced runs replayed their reference identically"
        );
    }
}
