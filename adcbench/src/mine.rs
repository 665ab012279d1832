//! The two mining workloads: `mine-enum` (enumeration-bound) and
//! `mine-sampled` (sampled tall tables, tuple-based scoring).

use crate::scale;
use crate::script::{MineScript, MineSizes};
use crate::stats::PerOp;
use crate::trace::{TimedApprox, Tracer};
use crate::{Layers, Outcome, PassCounts, RunOptions};
use adc_core::sampling::draw_sample;
use adc_core::{
    enumerate_adcs, g_recall, AdcMiner, ApproxKind, ApproximationFunction, DenialConstraint,
    EnumerationOptions, MinerConfig, MiningResult, PredicateSpace, SpaceConfig,
};
use adc_data::Relation;
use adc_datasets::Dataset;
use std::time::Instant;

/// Which mining workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MineKind {
    /// Clean Flight relations over the same-column space, `f1`: the
    /// enumeration carries the op.
    Enum,
    /// Clean tall Airport relations mined from a 10 % sample with `f2`: the
    /// predicate space, evidence and tuple-based scoring carry the op.
    Sampled,
}

/// Approximation threshold of both mining workloads.
const EPSILON: f64 = 1e-3;
/// Fraction of the tuples `mine-sampled` mines.
const SAMPLE_FRACTION: f64 = 0.1;

impl MineKind {
    fn dataset(self) -> Dataset {
        match self {
            MineKind::Enum => Dataset::Flight,
            MineKind::Sampled => Dataset::Airport,
        }
    }

    /// Script sizes of the benchmark proper.
    pub fn sizes(self) -> MineSizes {
        match self {
            MineKind::Enum => MineSizes {
                relations: 100,
                rows: 60,
                ops: 100,
            },
            MineKind::Sampled => MineSizes {
                relations: 8,
                rows: 3_000,
                ops: 100,
            },
        }
    }

    /// The miner configuration of one op; everything the workload does not
    /// define is the library default.
    pub fn config(self, sample_seed: u64) -> MinerConfig {
        match self {
            MineKind::Enum => MinerConfig::new(EPSILON).with_space(SpaceConfig::same_column_only()),
            MineKind::Sampled => MinerConfig::new(EPSILON)
                .with_approx(ApproxKind::F2)
                .with_sample(SAMPLE_FRACTION, sample_seed),
        }
    }
}

/// A set-up mining workload: the script and the relations it mines.
pub struct MineInputs {
    /// The op script.
    pub script: MineScript,
    /// The rotation of relations, indexed like `script.relation_seeds`.
    pub relations: Vec<Relation>,
}

/// Build the script and generate its relations.
pub fn setup(kind: MineKind, sizes: MineSizes, seed: u64) -> MineInputs {
    let script = MineScript::new(sizes, seed);
    let generator = kind.dataset().generator();
    let relations = script
        .relation_seeds
        .iter()
        .map(|&s| generator.generate(sizes.rows, s))
        .collect();
    MineInputs { script, relations }
}

/// Run a mining workload in passes. Each pass sets up afresh (timed) and
/// mines every op of the script; checks run outside the timed calls.
pub fn run(kind: MineKind, sizes: MineSizes, opts: &RunOptions) -> Outcome {
    let mut outcome = Outcome::new(sizes.ops);
    let mut traced = Traced::new(sizes.ops);
    let started = Instant::now();
    let mut passes = 0;
    while !opts.finished(passes, started) {
        let start = Instant::now();
        let inputs = setup(kind, sizes, opts.seed);
        let setup_s = start.elapsed().as_secs_f64();
        outcome.setup_s.push(setup_s * scale::steady_factor());
        for (i, op) in inputs.script.ops.iter().enumerate() {
            let relation = &inputs.relations[op.relation];
            let cfg = kind.config(op.sample_seed);
            let traced_dcs = opts.trace.then(|| traced.op(i, passes, cfg, relation));
            let start = Instant::now();
            let result = AdcMiner::new(cfg).mine(relation);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            outcome.record_op(i, ms, scale::factor());
            outcome.attempted += 1;
            let same = traced_dcs.is_none_or(|dcs| ids(&dcs) == ids(&result.dcs));
            if !same || !answer_is_correct(kind, &result) {
                outcome.failed += 1;
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

/// The per-op check: the run is exhaustive and, the inputs being clean,
/// every golden DC that resolves in the op's space is recovered.
fn answer_is_correct(kind: MineKind, result: &MiningResult) -> bool {
    let golden = kind.dataset().generator().golden_dcs(&result.space);
    result.truncation.is_none() && !golden.is_empty() && g_recall(&result.dcs, &golden) == 1.0
}

/// One op's raw layer times in the traced pipeline, in milliseconds.
#[derive(Debug, Clone, Copy)]
struct OpLayers {
    predicates: f64,
    sampling: f64,
    evidence: f64,
    enumerate: f64,
    score: f64,
    op: f64,
}

/// State of the traced run: spans, each op's scaled layer times over
/// passes, and the per-pass counts.
struct Traced {
    tracer: Tracer,
    ops: usize,
    predicates: PerOp,
    sampling: PerOp,
    evidence: PerOp,
    hitting_self: PerOp,
    score: PerOp,
    op: PerOp,
    counts: PassCounts,
}

impl Traced {
    fn new(ops: usize) -> Self {
        Traced {
            tracer: Tracer::default(),
            ops,
            predicates: PerOp::new(ops),
            sampling: PerOp::new(ops),
            evidence: PerOp::new(ops),
            hitting_self: PerOp::new(ops),
            score: PerOp::new(ops),
            op: PerOp::new(ops),
            counts: PassCounts::default(),
        }
    }

    /// Run op `i` of pass `pass` through the traced pipeline; returns its
    /// answer.
    fn op(
        &mut self,
        i: usize,
        pass: usize,
        cfg: MinerConfig,
        relation: &Relation,
    ) -> Vec<DenialConstraint> {
        let id = (pass * self.ops + i) as u64;
        let (dcs, t) = traced_mine(
            &mut self.tracer,
            id,
            cfg,
            relation,
            &mut self.counts.current,
        );
        let f = scale::factor();
        self.predicates.push(i, t.predicates * f);
        self.sampling.push(i, t.sampling * f);
        self.evidence.push(i, t.evidence * f);
        self.hitting_self.push(i, (t.enumerate - t.score) * f);
        self.score.push(i, t.score * f);
        self.op.push(i, t.op * f);
        dcs
    }

    /// The per-layer figures: medians over ops of each op's median scaled
    /// time, the first pass's counts, and the tracing overhead against
    /// `untraced` (the untraced `AdcMiner::mine` of the same ops).
    fn layers(&self, untraced: &PerOp) -> Layers {
        let mut layers = self.counts.first();
        layers.set("predicates.build_ms", self.predicates.median());
        layers.set("sampling.draw_ms", self.sampling.median());
        layers.set("evidence.build_ms", self.evidence.median());
        layers.set("hitting.self_ms", self.hitting_self.median());
        layers.set("approx.score_ms", self.score.median());
        let score_ns: f64 = self.score.medians().iter().sum::<f64>() * 1e6;
        let evals = layers.get("approx.evals");
        layers.set("approx.ns_per_eval", ratio(score_ns, evals));
        let emit_ratio = ratio(layers.get("hitting.emitted"), layers.get("hitting.nodes"));
        layers.set("hitting.emit_ratio", emit_ratio);
        layers.set("trace.overhead_ratio", self.op.median() / untraced.median());
        layers
    }
}

/// `num / den`, or 0 when the layer did no work.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `AdcMiner::mine`'s pipeline, one layer call at a time: predicate space
/// (over all rows) → sample → evidence → enumeration, with the scoring
/// calls timed through a [`TimedApprox`] adapter.
fn traced_mine(
    tracer: &mut Tracer,
    op: u64,
    cfg: MinerConfig,
    relation: &Relation,
    counts: &mut Layers,
) -> (Vec<DenialConstraint>, OpLayers) {
    let root = tracer.open(op, None, "op");
    let (space, predicates) = tracer.span(op, Some(root), "predicates.build", || {
        PredicateSpace::build(relation, cfg.space)
    });
    let (mined, sampling) = tracer.span(op, Some(root), "sampling.draw", || {
        if cfg.sample_fraction >= 1.0 {
            relation.clone()
        } else {
            draw_sample(relation, cfg.sample_fraction, cfg.seed)
        }
    });
    let function = TimedApprox::new(cfg.approx.instantiate());
    let (evidence, evidence_span) = tracer.span(op, Some(root), "evidence.build", || {
        let track_vios = function.requires_vios();
        cfg.evidence.builder().build(&mined, &space, track_vios)
    });
    let mut options = EnumerationOptions::new(cfg.epsilon);
    options.strategy = cfg.strategy;
    options.max_dcs = cfg.max_dcs;
    options.order = cfg.order;
    options.budget = cfg.budget;
    let (outcome, enumerate) = tracer.span(op, Some(root), "hitting.enumerate", || {
        enumerate_adcs(&space, &evidence, &function, &options)
    });
    let score = tracer.aggregate(
        op,
        &enumerate,
        "approx.score",
        function.busy(),
        function.calls(),
    );
    let op_span = tracer.close(root);

    let stats = &outcome.stats;
    counts.add("predicates.count", space.len() as f64);
    counts.add("sampling.rows", mined.len() as f64);
    counts.add(
        "evidence.distinct",
        evidence.evidence_set.distinct_count() as f64,
    );
    counts.add("evidence.pairs", evidence.evidence_set.total_pairs() as f64);
    counts.add("hitting.nodes", stats.recursive_calls as f64);
    counts.add("hitting.emitted", stats.emitted as f64);
    counts.max("hitting.peak_frontier", stats.peak_frontier as f64);
    counts.add("approx.evals", function.calls() as f64);
    let layers = OpLayers {
        predicates: predicates.ms(),
        sampling: sampling.ms(),
        evidence: evidence_span.ms(),
        enumerate: enumerate.ms(),
        score: score.ms(),
        op: op_span.ms(),
    };
    (outcome.dcs, layers)
}

fn ids(dcs: &[DenialConstraint]) -> Vec<Vec<usize>> {
    dcs.iter().map(|d| d.predicate_ids().to_vec()).collect()
}
