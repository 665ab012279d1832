//! End-to-end and per-layer benchmark of the ADC miner and monitor.
//!
//! ```text
//! cargo run --release --offline --manifest-path adcbench/Cargo.toml -- \
//!     --workload mine-enum --seed 1 --seconds 5 --trace 0
//! ```
//!
//! Every workload is a closed loop: one client in one process, one op at a
//! time, through the public API only. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of the traced run
//! (`--trace 1`). See `README.md` for the workloads and the metrics.

mod mine;
mod monitor;
mod scale;
mod script;
mod stats;
mod trace;

use mine::MineKind;
use stats::PerOp;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Minimum passes over the whole script per run. Each pass sets up afresh
/// (timed: `setup_s` is the median over passes) and executes every op; an
/// op's time is its median over passes. All durations are scaled to the
/// reference speed (see `scale`).
const PASSES: usize = 4;

/// End-to-end metrics: name and unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics of the traced run: name and unit. `_ms` figures are
/// per-op medians; counts are per-run totals (`hitting.peak_frontier` is
/// the largest frontier of any op).
const PER_LAYER: &[(&str, &str)] = &[
    ("hitting.self_ms", "ms"),
    ("hitting.nodes", "count"),
    ("hitting.emitted", "count"),
    ("hitting.peak_frontier", "count"),
    ("hitting.emit_ratio", "ratio"),
    ("approx.score_ms", "ms"),
    ("approx.evals", "count"),
    ("approx.ns_per_eval", "ns"),
    ("evidence.build_ms", "ms"),
    ("evidence.distinct", "count"),
    ("evidence.pairs", "count"),
    ("predicates.build_ms", "ms"),
    ("predicates.count", "count"),
    ("sampling.draw_ms", "ms"),
    ("sampling.rows", "count"),
    ("delta.apply_ms", "ms"),
    ("delta.pairs_scanned", "count"),
    ("delta.entries_touched", "count"),
    ("monitor.update_ms", "ms"),
    ("monitor.enum_nodes", "count"),
    ("monitor.covers_reopened", "count"),
    ("monitor.removal_repairs", "count"),
    ("monitor.restarts", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer figures by metric name; a layer a workload does not load
/// reports zero.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set a figure.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.0.insert(name, value);
    }

    /// Add to a count.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.set(name, self.get(name) + value);
    }

    /// Raise a high-water mark.
    pub fn max(&mut self, name: &'static str, value: f64) {
        self.set(name, self.get(name).max(value));
    }

    /// A figure (zero when unset).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Per-pass counts of a traced run: every pass must repeat the first
/// pass's counts exactly.
#[derive(Debug, Default)]
pub struct PassCounts {
    /// Counts of the pass in progress.
    pub current: Layers,
    first: Option<Layers>,
}

impl PassCounts {
    /// End a pass: `true` when its counts equal the first pass's.
    pub fn end_pass(&mut self) -> bool {
        let counts = std::mem::take(&mut self.current);
        *self.first.get_or_insert_with(|| counts.clone()) == counts
    }

    /// The first pass's counts.
    pub fn first(&self) -> Layers {
        self.first.clone().unwrap_or_default()
    }
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Op executions attempted, over all passes.
    pub attempted: u64,
    /// Op executions that returned an error or failed their check.
    pub failed: u64,
    /// Scaled duration of each pass's set-up, in seconds.
    pub setup_s: Vec<f64>,
    /// Scaled duration of every op execution, in milliseconds.
    pub op_ms: PerOp,
    /// Raw duration of every op execution, in milliseconds (printed for
    /// reference, not reported).
    pub raw_op_ms: PerOp,
    /// Per-layer figures (traced runs only).
    pub layers: Layers,
}

impl Outcome {
    /// An empty outcome for a script of `ops` ops.
    pub fn new(ops: usize) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            setup_s: Vec::new(),
            op_ms: PerOp::new(ops),
            raw_op_ms: PerOp::new(ops),
            layers: Layers::default(),
        }
    }

    /// Record op `op`'s raw duration and the scale factor measured after it.
    pub fn record_op(&mut self, op: usize, raw_ms: f64, factor: f64) {
        self.raw_op_ms.push(op, raw_ms);
        self.op_ms.push(op, raw_ms * factor);
    }
}

/// The command line.
#[derive(Debug)]
pub struct RunOptions {
    workload: String,
    /// Script seed.
    pub seed: u64,
    /// A run makes passes until it has made `passes` and measured for at
    /// least this many seconds.
    pub seconds: f64,
    /// Run the traced pipeline and report per-layer metrics.
    pub trace: bool,
    /// Minimum passes over the script per run.
    pub passes: usize,
    /// Where the traced run writes its spans (`None`: nowhere).
    pub trace_out: Option<PathBuf>,
}

impl RunOptions {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let (mut seed, mut seconds, mut trace) = (None, None, None);
        let mut args = args.skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(format!(
                "--seconds {seconds}: expected a non-negative number"
            ));
        }
        let workload = workload.ok_or("missing --workload")?;
        let seed = seed.ok_or("missing --seed")?;
        Ok(RunOptions {
            trace_out: Some(
                PathBuf::from(".bench_out").join(format!("trace-{workload}-{seed}.json")),
            ),
            workload,
            seed,
            seconds,
            trace: trace.ok_or("missing --trace")?,
            passes: PASSES,
        })
    }

    /// `true` once `passes` passes, begun at `started`, end the run.
    pub fn finished(&self, passes: usize, started: Instant) -> bool {
        passes >= self.passes && started.elapsed().as_secs_f64() >= self.seconds
    }

    /// Write the traced run's spans to `trace_out` (by default
    /// `.bench_out/trace-<workload>-<seed>.json` under the working
    /// directory).
    pub fn write_trace(&self, tracer: &Tracer) {
        let Some(path) = &self.trace_out else {
            return;
        };
        match tracer.write_json(path) {
            Ok(()) => eprintln!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("spans: could not write {}: {e}", path.display()),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(outcome: &Outcome) -> Result<Vec<f64>, String> {
    let op_ms = outcome.op_ms.medians();
    if op_ms.iter().any(|ms| !ms.is_finite()) {
        return Err("an op of the script never completed".into());
    }
    let p90 = stats::tail(&op_ms, 900).ok_or(format!(
        "{} ops are too few for a p90 with {} samples beyond it",
        op_ms.len(),
        stats::MIN_BEYOND
    ))?;
    let busy_s: f64 = op_ms.iter().sum::<f64>() / 1e3;
    let ok = outcome.attempted - outcome.failed;
    println!(
        "op executions: {} ({} failed); p50 and p90 over {} ops ({} beyond the p90); \
         {} set-ups; raw (unscaled) op p50 {:.4} ms",
        outcome.attempted,
        outcome.failed,
        p90.samples,
        p90.beyond,
        outcome.setup_s.len(),
        outcome.raw_op_ms.median(),
    );
    Ok(vec![
        stats::median(&outcome.setup_s),
        stats::median(&op_ms),
        p90.value,
        op_ms.len() as f64 / busy_s,
        peak_rss_mb()?,
        ok as f64 / outcome.attempted as f64,
    ])
}

fn json_metrics(table: &[(&str, &str)], values: &[f64]) -> Result<String, String> {
    if let Some(((name, _), _)) = table.iter().zip(values).find(|(_, v)| !v.is_finite()) {
        return Err(format!("{name} has no finite value"));
    }
    let fields: Vec<String> = table
        .iter()
        .zip(values)
        .map(|((name, unit), v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    Ok(format!("{{{}}}", fields.join(", ")))
}

fn run() -> Result<(), String> {
    let opts = RunOptions::parse(std::env::args())?;
    let outcome = match opts.workload.as_str() {
        "mine-enum" => mine::run(MineKind::Enum, MineKind::Enum.sizes(), &opts),
        "mine-sampled" => mine::run(MineKind::Sampled, MineKind::Sampled.sizes(), &opts),
        "monitor-churn" => monitor::run(monitor::SIZES, &opts),
        other => return Err(format!("unknown workload {other}")),
    };
    if outcome.attempted == 0 {
        return Err("no op was attempted".into());
    }
    let metrics = if opts.trace {
        let values: Vec<f64> = PER_LAYER
            .iter()
            .map(|(n, _)| outcome.layers.get(n))
            .collect();
        for ((name, unit), v) in PER_LAYER.iter().zip(&values) {
            println!("{name:>24} {v:>16.4} {unit}");
        }
        json_metrics(PER_LAYER, &values)?
    } else {
        let values = end_to_end(&outcome)?;
        for ((name, unit), v) in END_TO_END.iter().zip(&values) {
            println!("{name:>24} {v:>16.4} {unit}");
        }
        json_metrics(END_TO_END, &values)?
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("adcbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use script::{MineSizes, MonitorSizes};

    fn traced(seed: u64) -> RunOptions {
        RunOptions {
            workload: "self-test".into(),
            seed,
            seconds: 0.0,
            trace: true,
            passes: 2,
            trace_out: None,
        }
    }

    const MINE: MineSizes = MineSizes {
        relations: 2,
        rows: 40,
        ops: 3,
    };
    const MONITOR: MonitorSizes = MonitorSizes {
        window: 60,
        churn: 2,
        refreshes: 12,
        check_every: 5,
    };

    /// The figures whose unit is `count`: the ones that must repeat exactly
    /// across runs with one seed.
    fn counts(layers: &Layers) -> Vec<(&'static str, f64)> {
        PER_LAYER
            .iter()
            .filter(|(_, unit)| *unit == "count")
            .map(|(name, _)| (*name, layers.get(name)))
            .collect()
    }

    fn assert_counts_repeat(run: impl Fn(&RunOptions) -> Outcome) {
        let first = run(&traced(11));
        let again = run(&traced(11));
        assert!(first.attempted > 0);
        assert_eq!(first.failed, 0, "a self-test op failed its check");
        assert_eq!(counts(&first.layers), counts(&again.layers));
        assert!(counts(&first.layers).iter().any(|&(_, v)| v > 0.0));
    }

    #[test]
    fn mine_counts_repeat_for_one_seed() {
        for kind in [MineKind::Enum, MineKind::Sampled] {
            assert_counts_repeat(|opts| mine::run(kind, MINE, opts));
        }
    }

    #[test]
    fn monitor_counts_repeat_for_one_seed() {
        assert_counts_repeat(|opts| monitor::run(MONITOR, opts));
    }

    #[test]
    fn inputs_repeat_for_one_seed_and_differ_across_seeds() {
        let rows = |r: &adc_data::Relation| (0..r.len()).map(|i| r.row(i)).collect::<Vec<_>>();
        for kind in [MineKind::Enum, MineKind::Sampled] {
            let a = mine::setup(kind, MINE, 11);
            let b = mine::setup(kind, MINE, 11);
            let c = mine::setup(kind, MINE, 12);
            assert_eq!(a.script, b.script);
            assert_eq!(rows(&a.relations[0]), rows(&b.relations[0]));
            assert_ne!(rows(&a.relations[0]), rows(&c.relations[0]));
        }
        let a = monitor::inputs(MONITOR, 11);
        let b = monitor::inputs(MONITOR, 11);
        let c = monitor::inputs(MONITOR, 12);
        assert_eq!((rows(&a.window), &a.pool), (rows(&b.window), &b.pool));
        assert_ne!(rows(&a.window), rows(&c.window));
        assert_ne!(a.pool, c.pool);
    }

    #[test]
    fn command_line_is_checked() {
        let parse = |s: &str| RunOptions::parse(s.split(' ').map(String::from));
        let ok = parse("b --workload mine-enum --seed 3 --seconds 2 --trace 1").expect("valid");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 2.0, true));
        assert!(parse("b --workload mine-enum --seed 3 --seconds 2 --trace 2").is_err());
        assert!(parse("b --workload mine-enum --seed x --seconds 2 --trace 0").is_err());
        assert!(parse("b --workload mine-enum --seconds 2 --trace 0").is_err());
        assert!(parse("b --workload mine-enum --seed 3 --seconds -1 --trace 0").is_err());
    }
}
