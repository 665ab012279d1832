//! Run every table/figure binary in sequence (the full evaluation sweep).
//!
//! Equivalent to running `table4`, `fig6` … `fig14`, and `table5` one after
//! another. Set `ADC_BENCH_ROWS` / `ADC_BENCH_DATASETS` /
//! `ADC_BENCH_STRATEGY` / `ADC_BENCH_THREADS` to trade fidelity for time; see `crates/bench/README.md` for the
//! experiment index.

use adc_bench::{object, report_dir, write_report, Json};
use std::process::Command;

fn main() {
    let binaries = [
        "table4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
        "table5",
    ];
    // conformance: allow(panic) — launcher binary: no own-path means nothing can be launched, abort with the OS error
    let exe = std::env::current_exe().expect("current executable path");
    // conformance: allow(panic) — an executable path always has a parent directory
    let dir = exe.parent().expect("binary directory");
    for binary in binaries {
        println!("\n================ {binary} ================");
        let path = dir.join(binary);
        if !path.exists() {
            eprintln!(
                "{} not found — build the full harness first: cargo build --release -p adc-bench",
                path.display()
            );
            std::process::exit(1);
        }
        let status = Command::new(&path)
            .status()
            // conformance: allow(panic) — launcher binary: a spawn failure must abort the sweep with the failing path
            .unwrap_or_else(|e| panic!("failed to launch {}: {e}", path.display()));
        if !status.success() {
            eprintln!("{binary} exited with {status}");
            std::process::exit(1);
        }
    }
    // Each binary wrote its own `BENCH_<name>.json`; record the sweep's
    // manifest so downstream tooling knows which artifacts belong together.
    let report = object(vec![
        ("bench", Json::from("all_experiments")),
        (
            "artifacts",
            Json::Array(
                binaries
                    .iter()
                    .map(|b| Json::from(format!("BENCH_{b}.json")))
                    .collect(),
            ),
        ),
        ("report_dir", Json::from(report_dir().display().to_string())),
    ]);
    let path = write_report("all_experiments", &report);
    println!("recorded {}", path.display());
    println!("\nAll experiments completed.");
}
