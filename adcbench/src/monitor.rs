//! The `monitor-churn` workload: an exact `AdcMonitor` over a sliding
//! window of Tax rows.

use crate::scale;
use crate::script::{MonitorScript, MonitorSizes};
use crate::stats::PerOp;
use crate::trace::Tracer;
use crate::{Layers, Outcome, PassCounts, RunOptions};
use adc_core::{AdcMiner, AdcMonitor, MinerConfig, MiningResult, MonitorError, RefreshPath};
use adc_data::{Relation, Value};
use adc_datasets::Dataset;
use adc_evidence::DeltaEvidenceBuilder;
use std::time::Instant;

/// Script sizes of the benchmark proper.
pub const SIZES: MonitorSizes = MonitorSizes {
    window: 400,
    churn: 4,
    refreshes: 2000,
    check_every: 1000,
};

/// Exact semantics (ε = 0) over the full predicate space, so both the
/// append-repair and the removal-repair paths are live.
fn config() -> MinerConfig {
    MinerConfig::new(0.0)
}

/// The generated inputs of a script.
pub struct MonitorInputs {
    /// The initial window.
    pub window: Relation,
    /// Rows to insert, in order.
    pub pool: Vec<Vec<Value>>,
}

/// Generate the window and the insert pool of the script `seed` selects.
/// Every chunk of the pool comes from the generator that made the window,
/// so inserted rows are in distribution (and the predicate space does not
/// drift).
pub fn inputs(sizes: MonitorSizes, seed: u64) -> MonitorInputs {
    let script = MonitorScript::new(sizes, seed);
    let generator = Dataset::Tax.generator();
    let window = generator.generate(sizes.window, script.window_seed);
    let pool = script
        .pool_seeds
        .iter()
        .flat_map(|&s| {
            let chunk = generator.generate(sizes.window, s);
            (0..chunk.len()).map(move |r| chunk.row(r))
        })
        .collect();
    MonitorInputs { window, pool }
}

/// Set-up proper: the inputs, the monitor's seed scan, and its first answer.
fn setup(sizes: MonitorSizes, seed: u64) -> Result<(MonitorInputs, AdcMonitor), MonitorError> {
    let inputs = inputs(sizes, seed);
    let mut monitor = AdcMonitor::new(config(), &inputs.window);
    monitor.refresh()?;
    Ok((inputs, monitor))
}

/// Queue one op (delete the oldest rows, insert the next pool rows) and
/// refresh. Surviving rows slide down on delete and inserts go to the end,
/// so the oldest rows are always the first `churn` indexes.
fn churn(
    monitor: &mut AdcMonitor,
    oldest: &[usize],
    rows: Vec<Vec<Value>>,
) -> Result<MiningResult, MonitorError> {
    monitor.delete_tuples(oldest)?;
    monitor.insert_tuples(rows);
    monitor.refresh().map(|(result, _)| result)
}

fn pool_rows(inputs: &MonitorInputs, sizes: MonitorSizes, op: usize) -> Vec<Vec<Value>> {
    inputs.pool[op * sizes.churn..(op + 1) * sizes.churn].to_vec()
}

fn is_checkpoint(sizes: MonitorSizes, op: usize) -> bool {
    (op + 1).is_multiple_of(sizes.check_every) || op + 1 == sizes.refreshes
}

/// The answer as a sorted list of rendered DCs: what the monitor and a
/// from-scratch mine are compared on.
fn rendered(result: &MiningResult) -> Vec<String> {
    let mut dcs: Vec<String> = result
        .dcs
        .iter()
        .map(|dc| dc.display(&result.space).to_string())
        .collect();
    dcs.sort();
    dcs
}

/// `true` when `answer` equals a from-scratch mine of the monitor's rows.
fn matches_remine(monitor: &AdcMonitor, answer: &MiningResult) -> bool {
    let remined = AdcMiner::new(*monitor.config()).mine(monitor.relation());
    rendered(answer) == rendered(&remined)
}

/// Refreshes timed between two runs of the reference kernel (a refresh is
/// too short to be followed by one each).
const BLOCK: usize = 25;

/// Run the workload in passes. Each pass sets up afresh (timed) and
/// executes every refresh of the script; checks run outside the timed ops.
pub fn run(sizes: MonitorSizes, opts: &RunOptions) -> Outcome {
    let mut outcome = Outcome::new(sizes.refreshes);
    let mut traced = Traced::new(sizes.refreshes);
    let oldest: Vec<usize> = (0..sizes.churn).collect();
    let mut block = Vec::with_capacity(BLOCK);
    let started = Instant::now();
    let mut passes = 0;
    while !opts.finished(passes, started) {
        let start = Instant::now();
        let ready = setup(sizes, opts.seed);
        let setup_s = start.elapsed().as_secs_f64();
        outcome.setup_s.push(setup_s * scale::steady_factor());
        let Ok((inputs, mut monitor)) = ready else {
            outcome.attempted += 1;
            outcome.failed += 1;
            break;
        };
        let mut shadow = opts.trace.then(|| Shadow::new(&inputs.window));
        for op in 0..sizes.refreshes {
            let rows = pool_rows(&inputs, sizes, op);
            let traced_answer = shadow
                .as_mut()
                .map(|shadow| traced.op(shadow, op, passes, &oldest, rows.clone()));
            let start = Instant::now();
            let result = churn(&mut monitor, &oldest, rows);
            block.push((op, start.elapsed().as_secs_f64() * 1e3));
            outcome.attempted += 1;
            let ok = result.is_ok_and(|answer| {
                traced_answer.is_none_or(|t| t.is_some_and(|t| rendered(&t) == rendered(&answer)))
                    && (!is_checkpoint(sizes, op) || matches_remine(&monitor, &answer))
            });
            if !ok {
                outcome.failed += 1;
            }
            if block.len() == BLOCK || op + 1 == sizes.refreshes {
                let factor = scale::factor();
                for (op, ms) in block.drain(..) {
                    outcome.record_op(op, ms, factor);
                }
                traced.scale_pending(factor);
            }
        }
        if opts.trace && !traced.counts.end_pass() {
            outcome.failed += 1;
        }
        passes += 1;
    }
    if opts.trace {
        outcome.layers = traced.layers(&outcome.op_ms);
        opts.write_trace(&traced.tracer);
    }
    outcome
}

/// The traced replay of one pass: a second monitor that runs the script
/// beside the untraced one, and a standalone `DeltaEvidenceBuilder` that
/// replays each batch first, so a refresh splits into the delta scan and
/// the answer update.
struct Shadow {
    monitor: AdcMonitor,
    delta: DeltaEvidenceBuilder,
    seeded: bool,
}

impl Shadow {
    fn new(window: &Relation) -> Self {
        let cfg = config();
        let mut monitor = AdcMonitor::new(cfg, window);
        let delta = DeltaEvidenceBuilder::new_with(
            window,
            monitor.space(),
            cfg.approx.instantiate().requires_vios(),
            &*cfg.evidence.builder(),
        );
        let seeded = monitor.refresh().is_ok();
        Shadow {
            monitor,
            delta,
            seeded,
        }
    }
}

/// State of the traced run: spans, each refresh's scaled split over
/// passes, and the per-pass counts.
struct Traced {
    tracer: Tracer,
    ops: usize,
    /// Raw (op, apply, refresh) times awaiting the block's scale factor.
    pending: Vec<(usize, f64, f64)>,
    apply: PerOp,
    update: PerOp,
    refresh: PerOp,
    counts: PassCounts,
}

impl Traced {
    fn new(ops: usize) -> Self {
        Traced {
            tracer: Tracer::default(),
            ops,
            pending: Vec::new(),
            apply: PerOp::new(ops),
            update: PerOp::new(ops),
            refresh: PerOp::new(ops),
            counts: PassCounts::default(),
        }
    }

    /// Replay op `op` of pass `pass` on the shadow; returns the traced
    /// monitor's answer, or `None` if any call failed or the two delta
    /// scans disagree.
    fn op(
        &mut self,
        shadow: &mut Shadow,
        op: usize,
        pass: usize,
        oldest: &[usize],
        rows: Vec<Vec<Value>>,
    ) -> Option<MiningResult> {
        let id = (pass * self.ops + op) as u64;
        let root = self.tracer.open(id, None, "op");
        let (applied, apply) = self.tracer.span(id, Some(root), "delta.apply", || {
            shadow.delta.apply(oldest, rows.clone())
        });
        let (refreshed, refresh) = self.tracer.span(id, Some(root), "monitor.refresh", || {
            shadow.monitor.delete_tuples(oldest)?;
            shadow.monitor.insert_tuples(rows);
            shadow.monitor.refresh()
        });
        self.tracer.close(root);
        self.pending.push((op, apply.ms(), refresh.ms()));

        let (Ok(applied), Ok((answer, stats)), true) = (applied, refreshed, shadow.seeded) else {
            return None;
        };
        let counts = &mut self.counts.current;
        counts.add("delta.pairs_scanned", applied.pairs_scanned as f64);
        counts.add("delta.entries_touched", applied.entries_touched() as f64);
        counts.add("monitor.enum_nodes", stats.enum_nodes as f64);
        counts.add("monitor.covers_reopened", stats.covers_reopened as f64);
        let path = |p| f64::from(u8::from(stats.path == p));
        counts.add("monitor.removal_repairs", path(RefreshPath::RemovalRepair));
        counts.add("monitor.restarts", path(RefreshPath::Restart));
        (applied.pairs_scanned == stats.pairs_scanned).then_some(answer)
    }

    /// Record the pending times, scaled by the block's `factor`.
    fn scale_pending(&mut self, factor: f64) {
        for (op, apply, refresh) in self.pending.drain(..) {
            self.apply.push(op, apply * factor);
            self.update.push(op, (refresh - apply) * factor);
            self.refresh.push(op, refresh * factor);
        }
    }

    /// The per-layer figures: medians over refreshes of each refresh's
    /// median scaled time, the first pass's counts, and the tracing overhead
    /// against `untraced` (the untraced monitor's refreshes).
    fn layers(&self, untraced: &PerOp) -> Layers {
        let mut layers = self.counts.first();
        layers.set("delta.apply_ms", self.apply.median());
        layers.set("monitor.update_ms", self.update.median());
        layers.set(
            "trace.overhead_ratio",
            self.refresh.median() / untraced.median(),
        );
        layers
    }
}
