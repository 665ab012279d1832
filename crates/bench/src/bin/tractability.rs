//! Tractability probe: mines every dataset over its **unprojected** predicate
//! space (the full `SpaceConfig::default()` space — same-column, cross-column,
//! and single-tuple predicates) at the generator's default row count and
//! reports how large the output is.
//!
//! This is the gate for running the fig/table binaries at paper-scale rows:
//! the generators must keep the minimal-ADC count of their *clean* relations
//! in the hundreds-to-thousands, not the hundreds of thousands. The recorded
//! before/after table lives in this crate's `README.md`.
//!
//! Environment variables: the usual `ADC_BENCH_ROWS` / `ADC_BENCH_DATASETS` /
//! `ADC_BENCH_THREADS`, plus `ADC_TRACT_CAP` (default 20000) — the cap on
//! emitted DCs so a still-intractable generator terminates with `>cap`
//! instead of hanging.

use adc_bench::{
    bench_datasets, bench_relation, bench_rows, bench_shortest_first_config, object, parsed_env,
    secs, write_report, Json, Table,
};
use adc_core::metrics::g_recall;
use adc_core::AdcMiner;

fn main() {
    // `parsed_env` upgrades a malformed ADC_TRACT_CAP from a silent default
    // to the harness-wide hard-error contract.
    let cap: usize = parsed_env("ADC_TRACT_CAP").unwrap_or(20_000);
    let epsilon = 1e-6;
    let mut table = Table::new(vec![
        "Dataset",
        "Rows",
        "|Space|",
        "Distinct evidence",
        "Minimal ADCs",
        "Golden recall",
        "Time (s)",
    ]);
    let mut rows_json: Vec<Json> = Vec::new();
    for dataset in bench_datasets() {
        let generator = dataset.generator();
        let rows = bench_rows(dataset);
        let relation = bench_relation(dataset);
        let start = std::time::Instant::now();
        // Shortest-first so a still-intractable generator's `>cap` row shows
        // the shortest frontier, and the truncation flag is authoritative.
        let result =
            AdcMiner::new(bench_shortest_first_config(epsilon).with_max_dcs(cap)).mine(&relation);
        let elapsed = start.elapsed();
        let golden = generator.golden_dcs(&result.space);
        let recall = g_recall(&result.dcs, &golden);
        let count = match result.truncation {
            // The (exact) cap filled: the true frontier is larger than shown.
            Some(_) => format!(">{cap}"),
            None => result.dcs.len().to_string(),
        };
        rows_json.push(object(vec![
            ("dataset", Json::from(generator.name())),
            ("rows", Json::from(rows)),
            ("space", Json::from(result.space.len())),
            ("distinct_evidence", Json::from(result.distinct_evidence)),
            ("minimal_adcs", Json::from(result.dcs.len())),
            ("truncated", Json::from(result.truncation.is_some())),
            ("golden_recall", Json::from(recall)),
            ("golden_total", Json::from(golden.len())),
            ("seconds", Json::from(elapsed.as_secs_f64())),
        ]));
        table.add_row(vec![
            generator.name().to_string(),
            rows.to_string(),
            result.space.len().to_string(),
            result.distinct_evidence.to_string(),
            count,
            format!(
                "{:.2} ({}/{})",
                recall,
                (recall * golden.len() as f64).round(),
                golden.len()
            ),
            secs(elapsed),
        ]);
    }
    table.print("Tractability — unprojected predicate space, clean data");
    let report = object(vec![
        ("report", Json::from("tractability")),
        ("epsilon", Json::from(epsilon)),
        ("cap", Json::from(cap)),
        ("datasets", Json::Array(rows_json)),
    ]);
    let path = write_report("tractability", &report);
    println!("recorded {}", path.display());
}
