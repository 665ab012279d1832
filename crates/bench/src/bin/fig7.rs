//! Figure 7: total pipeline runtime of ADCMiner vs DCFinder vs AFASTDC
//! (predicate space + evidence construction + enumeration), f1, ε = 0.1.
//!
//! ADCMiner builds its evidence with the harness kernel — by default the
//! sequential cluster builder, like the two baseline pipelines, so the gap
//! is the algorithmic one the paper's Figure 7 reports. Set
//! `ADC_BENCH_STRATEGY=sweep` to give ADCMiner the sub-quadratic,
//! multi-threaded sweep kernel instead; part of its margin is then thread
//! count, not algorithm.

use adc_bench::{
    bench_config, bench_datasets, bench_relation, run_miner, secs, write_report, Table,
};
use adc_core::baseline::{AFastDcPipeline, DcFinderPipeline};

fn main() {
    let epsilon = 0.1;
    let mut table = Table::new(vec![
        "Dataset",
        "Rows",
        "ADCMiner (s)",
        "DCFinder (s)",
        "AFASTDC (s)",
        "ADCMiner #DCs",
    ]);
    for dataset in bench_datasets() {
        let relation = bench_relation(dataset);

        let miner = run_miner(&relation, bench_config(epsilon));
        let dcfinder = DcFinderPipeline::new(epsilon).run(&relation);
        let afastdc = AFastDcPipeline::new(epsilon).run(&relation);

        table.add_row(vec![
            dataset.name().to_string(),
            relation.len().to_string(),
            secs(miner.timings.total()),
            secs(dcfinder.timings.total()),
            secs(afastdc.timings.total()),
            miner.dcs.len().to_string(),
        ]);
    }
    table.print("Figure 7 — total runtime: ADCMiner vs DCFinder vs AFASTDC (f1, ε = 0.1)");
    let path = write_report("fig7", &table.report("fig7"));
    println!("recorded {}", path.display());
}
