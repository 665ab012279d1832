//! Shared infrastructure for the experiment harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section (see this crate's `README.md` for the experiment index
//! and recorded results). The binaries print plain-text tables; absolute
//! numbers depend on the machine and on the scaled-down dataset sizes, but
//! the *shapes* (who wins, by roughly what factor, where crossovers fall)
//! are the reproduction target.
//!
//! Environment variables understood by every binary:
//!
//! * `ADC_BENCH_ROWS` — override the number of generated tuples per dataset.
//! * `ADC_BENCH_DATASETS` — comma-separated subset of dataset names to run.
//! * `ADC_BENCH_THREADS` — evidence-builder worker threads (default: all
//!   available cores; `1` forces the sequential cluster builder).
//! * `ADC_BENCH_STRATEGY` — evidence kernel: `parallel` (default; honours
//!   `ADC_BENCH_THREADS`), `sequential` (the cluster kernel), or `sweep`
//!   (the sub-quadratic sort/PLI kernel). An unknown name is a hard error.
//! * `ADC_BENCH_SLICE_NODES` — when set (> 0), every harness mining run
//!   executes in **resume-in-slices** mode: node-budget slices of that size,
//!   resumed until the run's own budget/cap/exhaustion point. By the
//!   engine's determinism guarantee this changes *nothing* about the mined
//!   DCs — it exists to exercise suspend/resume at paper scale.
//!
//! A malformed value in any numeric variable is a **hard error** with an
//! explanatory panic — a typo must never silently fall back to a default
//! and masquerade as a real measurement.
//!
//! ```
//! use adc_bench::Table;
//!
//! let mut table = Table::new(vec!["dataset", "time (s)"]);
//! table.add_row(vec!["Tax", "0.132"]);
//! assert!(table.render().lines().count() == 3); // header + rule + 1 row
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json_report;

pub use json_report::{object, report_dir, write_report, Json};

use adc_core::{
    AdcMiner, EvidenceStrategy, MinerConfig, MiningResult, SearchBudget, SearchOrder, Timings,
};
use adc_data::Relation;
use adc_datasets::Dataset;
use adc_evidence::Evidence;
use adc_predicates::PredicateSpace;
use std::time::{Duration, Instant};

/// Parse the value of an environment variable, treating a malformed value
/// as a hard, explanatory error rather than silently falling back to a
/// default (a typo in `ADC_BENCH_ROWS=10k` must not quietly benchmark the
/// default row count). Returns `None` when the variable is unset or empty.
pub fn parsed_env<T: std::str::FromStr>(name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let value = raw_env(name)?;
    Some(parse_env_value(name, &value))
}

/// Read an environment variable as a plain string, treating unset and
/// empty/whitespace-only values uniformly as `None`. This is the blessed
/// raw accessor the `env/parsed-env` conformance rule points everything at:
/// string-valued knobs go through here, numeric/enum knobs through
/// [`parsed_env`], and nothing else in the workspace touches
/// `std::env::var` directly.
pub fn raw_env(name: &str) -> Option<String> {
    // conformance: allow(env) — this IS the blessed accessor the rule routes every reader through
    let value = std::env::var(name).ok()?;
    if value.trim().is_empty() {
        return None;
    }
    Some(value)
}

/// Comma-separated list variable with the same hard-error contract as
/// [`parsed_env`]: a malformed element aborts with an explanation, and an
/// unset/empty variable yields the given default.
pub fn parsed_env_list<T>(name: &str, default: &[T]) -> Vec<T>
where
    T: std::str::FromStr + Copy,
    T::Err: std::fmt::Display,
{
    match raw_env(name) {
        Some(value) => value
            .split(',')
            .map(|item| match item.trim().parse() {
                Ok(parsed) => parsed,
                // conformance: allow(panic) — the documented hard-error contract: a typo must abort, not silently benchmark a default
                Err(err) => panic!(
                    "{name}={value:?} contains invalid element {item:?} ({err}); \
                     fix or unset {name} instead of relying on a silent default"
                ),
            })
            .collect(),
        None => default.to_vec(),
    }
}

/// The parsing half of [`parsed_env`], split out so the hard-error contract
/// is unit-testable without touching the process environment.
fn parse_env_value<T: std::str::FromStr>(name: &str, value: &str) -> T
where
    T::Err: std::fmt::Display,
{
    match value.trim().parse() {
        Ok(parsed) => parsed,
        // conformance: allow(panic) — the documented hard-error contract: a typo must abort, not silently benchmark a default
        Err(err) => panic!(
            "{name}={value:?} is not a valid value ({err}); \
             fix or unset {name} instead of relying on a silent default"
        ),
    }
}

/// Number of rows to generate for a dataset in the harness: the generator's
/// scaled-down default (full, no cap — the correlated generators keep the
/// unprojected space tractable at 10³-scale rows, see the `tractability`
/// binary), overridable via `ADC_BENCH_ROWS` for paper-scale runs.
pub fn bench_rows(dataset: Dataset) -> usize {
    match parsed_env::<usize>("ADC_BENCH_ROWS") {
        Some(rows) => rows.max(10),
        None => dataset.generator().default_rows(),
    }
}

/// The datasets to run, honouring `ADC_BENCH_DATASETS`. An unknown dataset
/// name is a hard error (same contract as the numeric variables).
pub fn bench_datasets() -> Vec<Dataset> {
    match raw_env("ADC_BENCH_DATASETS") {
        Some(value) => value
            .split(',')
            .map(|name| {
                Dataset::parse(name).unwrap_or_else(|| {
                    // conformance: allow(panic) — the documented hard-error contract: an unknown dataset name must abort, not silently run the full set
                    panic!(
                        "ADC_BENCH_DATASETS contains unknown dataset {name:?}; \
                         known names: {:?}",
                        Dataset::ALL.iter().map(|d| d.name()).collect::<Vec<_>>()
                    )
                })
            })
            .collect(),
        None => Dataset::ALL.to_vec(),
    }
}

/// Generate the harness relation for a dataset (fixed seed for comparability).
pub fn bench_relation(dataset: Dataset) -> Relation {
    dataset
        .generator()
        .generate(bench_rows(dataset), 0xADC0 + dataset as u64)
}

/// Evidence-builder worker threads, honouring `ADC_BENCH_THREADS`
/// (`0` = let the builder use all available cores, which is the default).
pub fn bench_threads() -> usize {
    parsed_env("ADC_BENCH_THREADS").unwrap_or(0)
}

/// Evidence-kernel selection of the harness (`ADC_BENCH_STRATEGY`).
///
/// The default keeps the PR-6 behaviour: the tiled parallel kernel on
/// [`bench_threads`] workers, with `ADC_BENCH_THREADS=1` degrading to the
/// sequential cluster kernel for apples-to-apples single-threaded baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BenchStrategy {
    /// Tiled multi-threaded cluster kernel (default), honouring
    /// `ADC_BENCH_THREADS` (`1` ⇒ plain sequential cluster kernel).
    #[default]
    Parallel,
    /// The sequential cluster kernel. Requesting it together with
    /// `ADC_BENCH_THREADS ≥ 2` is a hard error (the strategy would silently
    /// ignore the thread count).
    Sequential,
    /// The parallel sub-quadratic sort/PLI sweep kernel, honouring
    /// `ADC_BENCH_THREADS` (`0` = all available cores).
    Sweep,
}

impl std::str::FromStr for BenchStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "parallel" => Ok(BenchStrategy::Parallel),
            "sequential" | "cluster" => Ok(BenchStrategy::Sequential),
            "sweep" => Ok(BenchStrategy::Sweep),
            other => Err(format!(
                "unknown evidence strategy {other:?}; known strategies: \
                 parallel, sequential (alias: cluster), sweep"
            )),
        }
    }
}

impl BenchStrategy {
    /// The [`EvidenceStrategy`] this harness selection maps to, resolving
    /// [`bench_threads`] uniformly for every thread-capable kernel (same
    /// `=1` ⇒ sequential rule as always for the parallel kernel).
    pub fn evidence_strategy(self) -> EvidenceStrategy {
        self.evidence_strategy_with_threads(bench_threads())
    }

    /// [`Self::evidence_strategy`] with an explicit thread count: the
    /// parallel and sweep kernels honour it, and combining a kernel that
    /// *ignores* threads with an explicit multi-thread request is a hard
    /// explanatory error instead of a silently single-threaded run.
    pub fn evidence_strategy_with_threads(self, threads: usize) -> EvidenceStrategy {
        match self {
            BenchStrategy::Parallel => match threads {
                1 => EvidenceStrategy::Cluster,
                t => EvidenceStrategy::Parallel {
                    threads: t,
                    tile_rows: 0,
                },
            },
            BenchStrategy::Sequential => {
                assert!(
                    threads <= 1,
                    "ADC_BENCH_STRATEGY=sequential ignores thread counts, but \
                     ADC_BENCH_THREADS={threads} was requested; use the parallel \
                     or sweep strategy for multi-threaded builds"
                );
                EvidenceStrategy::Cluster
            }
            BenchStrategy::Sweep => EvidenceStrategy::Sweep { threads },
        }
    }
}

/// The evidence kernel to use, honouring `ADC_BENCH_STRATEGY` (default:
/// [`BenchStrategy::Parallel`]). A malformed value is a hard explanatory
/// error via [`parsed_env`] — same contract as the numeric variables.
pub fn bench_strategy() -> BenchStrategy {
    parsed_env("ADC_BENCH_STRATEGY").unwrap_or_default()
}

/// Node budget per slice for resume-in-slices mode, honouring
/// `ADC_BENCH_SLICE_NODES` (`None` = single-run mode, the default; `0` is
/// treated as unset).
pub fn bench_slice_nodes() -> Option<u64> {
    parsed_env::<u64>("ADC_BENCH_SLICE_NODES").filter(|&nodes| nodes > 0)
}

/// The harness miner configuration: like [`MinerConfig::new`] but building
/// evidence with the kernel [`bench_strategy`] selects — by default the
/// tiled parallel builder on [`bench_threads`] workers, which is what makes
/// paper-scale row counts tractable end-to-end. `ADC_BENCH_THREADS=1`
/// selects the plain sequential cluster builder (no thread spawn, no
/// tiling/merge overhead) so single-threaded baselines are a true
/// apples-to-apples reference, and `ADC_BENCH_STRATEGY=sweep` runs the
/// whole harness on the sub-quadratic kernel.
pub fn bench_config(epsilon: f64) -> MinerConfig {
    MinerConfig::new(epsilon)
        .with_evidence(bench_strategy().evidence_strategy())
        .with_max_dcs(bench_max_dcs())
}

/// The harness configuration for runs whose emission cap is expected to
/// *bite* — the dirty-data experiments (fig14, table5) and the tractability
/// gate: [`bench_config`] plus shortest-first enumeration, so the
/// `ADC_BENCH_MAX_DCS` cap keeps the K **shortest** minimal ADCs (the entire
/// shortest frontier, ties broken deterministically) instead of whichever
/// covers the DFS recursion happens to reach first. This is what makes
/// capped dirty runs representative; `MiningResult::truncation` says whether
/// the cap actually fired.
pub fn bench_shortest_first_config(epsilon: f64) -> MinerConfig {
    bench_config(epsilon).with_order(SearchOrder::ShortestFirst)
}

/// Cap on DCs emitted per mining run (`ADC_BENCH_MAX_DCS`, default 50 000).
/// Clean relations stay far below it (< 10⁴ minimal ADCs each, see the
/// `tractability` binary); the cap is what keeps the *dirty*-data
/// experiments (fig14, table5) terminating, since approximate enumeration
/// over a noisy relation can have a combinatorially larger minimal frontier.
pub fn bench_max_dcs() -> usize {
    parsed_env("ADC_BENCH_MAX_DCS").unwrap_or(50_000)
}

/// Build the evidence set with the harness builder ([`bench_strategy`] —
/// by default parallel, honouring `ADC_BENCH_THREADS` with the same `=1` ⇒
/// sequential rule as [`bench_config`]) for binaries that time enumeration
/// in isolation.
pub fn build_evidence(relation: &Relation, space: &PredicateSpace, track_vios: bool) -> Evidence {
    bench_strategy()
        .evidence_strategy()
        .builder()
        .build(relation, space, track_vios)
}

/// Run the ADCMiner pipeline with a given configuration. When
/// `ADC_BENCH_SLICE_NODES` is set, the run executes in resume-in-slices
/// mode ([`run_miner_sliced`]) — same DCs, same truncation semantics, but
/// the enumeration suspends and resumes between node-budget slices.
pub fn run_miner(relation: &Relation, config: MinerConfig) -> MiningResult {
    match bench_slice_nodes() {
        Some(slice_nodes) => run_miner_sliced(relation, config, slice_nodes).0,
        None => AdcMiner::new(config).mine(relation),
    }
}

/// Run the ADCMiner pipeline as a sequence of node-budget slices, resuming
/// the suspended enumeration between slices, and merge the slices into one
/// [`MiningResult`]. Returns the merged result and the number of slices.
/// `slice_nodes` is clamped to at least 1 (a zero-node slice would make no
/// progress).
///
/// The merged result is — by the engine's cut-and-resume determinism
/// guarantee — identical in DCs to a single run with the same
/// configuration: `config.max_dcs` is enforced on the *accumulated* DC
/// count, `config.budget.max_nodes` on the accumulated node count,
/// `config.budget.max_emitted` on the accumulated raw-cover count, and
/// `config.budget.deadline` on the wall clock across all slices (each
/// slice otherwise runs node-bounded, so the deadline can only be overshot
/// by one slice — wall-clock cuts are the one knob that is inherently not
/// reproducible between a sliced and a single run).
pub fn run_miner_sliced(
    relation: &Relation,
    config: MinerConfig,
    slice_nodes: u64,
) -> (MiningResult, usize) {
    let clock = Instant::now();
    let slice_nodes = slice_nodes.max(1);
    let overall = config.budget;
    // Every limit is enforced on the accumulated count, so a sliced run
    // cannot outrun the single run it replays: each resumed slice would
    // otherwise get a fresh allowance.
    let emitted_cap: Option<u64> = overall.max_emitted.map(|cap| cap as u64);
    let slice_budget = |nodes_used: u64, covers_emitted: u64| {
        let remaining = overall
            .max_nodes
            .map(|max| max.saturating_sub(nodes_used))
            .unwrap_or(u64::MAX)
            .min(slice_nodes);
        let mut budget = SearchBudget::unlimited().with_max_nodes(remaining);
        budget.max_emitted = emitted_cap.map(|cap| cap.saturating_sub(covers_emitted) as usize);
        budget.max_frontier_nodes = overall.max_frontier_nodes;
        budget
    };
    let slice_config = |dcs_mined: usize, nodes_used: u64, covers_emitted: u64| {
        let mut cfg = config.with_budget(slice_budget(nodes_used, covers_emitted));
        cfg.max_dcs = config.max_dcs.map(|max| max.saturating_sub(dcs_mined));
        cfg
    };

    let mut result = AdcMiner::new(slice_config(0, 0, 0)).mine(relation);
    let mut dcs = std::mem::take(&mut result.dcs);
    let mut stats = result.enum_stats;
    let pipeline_timings = result.timings;
    let mut enumeration_time = result.timings.enumeration;
    let mut slices = 1;
    loop {
        let out_of_nodes = overall
            .max_nodes
            .is_some_and(|max| stats.recursive_calls >= max);
        let out_of_dcs = config.max_dcs.is_some_and(|max| dcs.len() >= max);
        let out_of_covers = emitted_cap.is_some_and(|cap| stats.emitted >= cap);
        let out_of_time = overall
            .deadline
            .is_some_and(|limit| clock.elapsed() >= limit);
        if out_of_nodes || out_of_dcs || out_of_covers || out_of_time {
            break;
        }
        let Some(token) = result.resume.take() else {
            break;
        };
        let miner = AdcMiner::new(slice_config(
            dcs.len(),
            stats.recursive_calls,
            stats.emitted,
        ));
        result = miner.resume(token);
        slices += 1;
        dcs.extend(std::mem::take(&mut result.dcs));
        stats.recursive_calls += result.enum_stats.recursive_calls;
        stats.score_evaluations += result.enum_stats.score_evaluations;
        stats.emitted += result.enum_stats.emitted;
        stats.peak_frontier = stats.peak_frontier.max(result.enum_stats.peak_frontier);
        stats.frontier_contractions += result.enum_stats.frontier_contractions;
        enumeration_time += result.timings.enumeration;
    }
    result.dcs = dcs;
    result.enum_stats = stats;
    // Resumed slices carry zeroed pipeline stages (they reuse the stored
    // evidence); the merged result reports slice 1's real pipeline costs
    // plus the summed enumeration time.
    result.timings = Timings {
        enumeration: enumeration_time,
        ..pipeline_timings
    };
    (result, slices)
}

/// Render a duration in seconds with three decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// A minimal fixed-width table printer for harness output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must have the same number of cells as there are headers).
    pub fn add_row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render the table as text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&line(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// Print the table with a title.
    pub fn print(&self, title: &str) {
        println!("\n## {title}\n");
        println!("{}", self.render());
    }

    /// The table as a machine-readable report: each row becomes an object
    /// keyed by the column headers, under a `"rows"` array, tagged with the
    /// bench name — the uniform payload the figure/table binaries record
    /// through [`write_report`].
    pub fn report(&self, bench: &str) -> Json {
        object(vec![
            ("bench", Json::from(bench)),
            (
                "rows",
                Json::Array(
                    self.rows
                        .iter()
                        .map(|row| {
                            object(
                                self.headers
                                    .iter()
                                    .zip(row)
                                    .map(|(h, c)| (h.clone(), Json::from(c.clone())))
                                    .collect(),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = Table::new(vec!["dataset", "time"]);
        t.add_row(vec!["Tax", "1.0"]);
        t.add_row(vec!["Hospital", "2.25"]);
        let text = t.render();
        assert!(text.contains("dataset"));
        assert!(text.lines().count() == 4);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[2].find("1.0"), lines[3].find("2.25"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.add_row(vec!["only one"]);
    }

    #[test]
    fn bench_rows_defaults_to_the_generator_default() {
        // The env var is unset in the test environment.
        if std::env::var("ADC_BENCH_ROWS").is_err() {
            for d in Dataset::ALL {
                assert_eq!(bench_rows(d), d.generator().default_rows());
            }
        }
    }

    #[test]
    fn bench_config_caps_emitted_dcs() {
        if std::env::var("ADC_BENCH_MAX_DCS").is_err() {
            assert_eq!(bench_config(0.1).max_dcs, Some(50_000));
        }
    }

    #[test]
    fn shortest_first_config_changes_only_the_order() {
        let plain = bench_config(0.1);
        let sf = bench_shortest_first_config(0.1);
        assert_eq!(plain.order, SearchOrder::Dfs);
        assert_eq!(sf.order, SearchOrder::ShortestFirst);
        assert_eq!(plain.max_dcs, sf.max_dcs);
        assert_eq!(plain.evidence, sf.evidence);
    }

    #[test]
    fn bench_config_maps_one_thread_to_sequential_builder() {
        use adc_core::EvidenceStrategy;
        // The env var is unset in the test environment, so bench_threads()
        // is 0 and the parallel builder is selected with all cores.
        if std::env::var("ADC_BENCH_THREADS").is_err() {
            assert_eq!(
                bench_config(0.1).evidence,
                EvidenceStrategy::Parallel {
                    threads: 0,
                    tile_rows: 0
                }
            );
        }
    }

    #[test]
    fn bench_datasets_defaults_to_all() {
        // The environment variable is not set in the test environment.
        if std::env::var("ADC_BENCH_DATASETS").is_err() {
            assert_eq!(bench_datasets().len(), 8);
        }
    }

    #[test]
    fn env_values_parse_when_well_formed() {
        assert_eq!(parse_env_value::<usize>("ADC_BENCH_ROWS", " 1500 "), 1500);
        assert_eq!(parse_env_value::<u64>("ADC_BUDGET_NODES", "100000"), 100000);
    }

    #[test]
    #[should_panic(expected = "ADC_BENCH_ROWS=\"10k\" is not a valid value")]
    fn malformed_rows_value_is_a_hard_error() {
        // A typo like `ADC_BENCH_ROWS=10k` must abort with an explanation,
        // not silently benchmark the default row count.
        let _: usize = parse_env_value("ADC_BENCH_ROWS", "10k");
    }

    #[test]
    #[should_panic(expected = "ADC_BENCH_THREADS=\"two\" is not a valid value")]
    fn malformed_threads_value_is_a_hard_error() {
        let _: usize = parse_env_value("ADC_BENCH_THREADS", "two");
    }

    #[test]
    fn strategy_names_parse_case_insensitively() {
        for (name, expected) in [
            ("parallel", BenchStrategy::Parallel),
            ("Sequential", BenchStrategy::Sequential),
            ("cluster", BenchStrategy::Sequential),
            (" SWEEP ", BenchStrategy::Sweep),
        ] {
            assert_eq!(
                parse_env_value::<BenchStrategy>("ADC_BENCH_STRATEGY", name),
                expected
            );
        }
    }

    #[test]
    fn bench_strategy_defaults_to_parallel() {
        if std::env::var("ADC_BENCH_STRATEGY").is_err() {
            assert_eq!(bench_strategy(), BenchStrategy::Parallel);
        }
    }

    #[test]
    fn strategies_map_to_evidence_strategies() {
        assert_eq!(
            BenchStrategy::Sequential.evidence_strategy_with_threads(0),
            EvidenceStrategy::Cluster
        );
        // The sweep kernel honours the thread count uniformly.
        assert_eq!(
            BenchStrategy::Sweep.evidence_strategy_with_threads(0),
            EvidenceStrategy::Sweep { threads: 0 }
        );
        assert_eq!(
            BenchStrategy::Sweep.evidence_strategy_with_threads(4),
            EvidenceStrategy::Sweep { threads: 4 }
        );
        assert_eq!(
            BenchStrategy::Parallel.evidence_strategy_with_threads(0),
            EvidenceStrategy::Parallel {
                threads: 0,
                tile_rows: 0
            }
        );
        if std::env::var("ADC_BENCH_THREADS").is_err() {
            assert_eq!(
                BenchStrategy::Sweep.evidence_strategy(),
                EvidenceStrategy::Sweep { threads: 0 }
            );
        }
    }

    #[test]
    #[should_panic(expected = "ignores thread counts")]
    fn sequential_strategy_rejects_explicit_threads() {
        // `ADC_BENCH_STRATEGY=sequential ADC_BENCH_THREADS=4` is a
        // contradiction: erroring beats silently running single-threaded.
        let _ = BenchStrategy::Sequential.evidence_strategy_with_threads(4);
    }

    #[test]
    #[should_panic(expected = "ADC_BENCH_STRATEGY=\"swep\" is not a valid value")]
    fn malformed_strategy_value_is_a_hard_error() {
        // A typo like `ADC_BENCH_STRATEGY=swep` must abort with an
        // explanation, not silently benchmark the default parallel kernel.
        let _: BenchStrategy = parse_env_value("ADC_BENCH_STRATEGY", "swep");
    }

    #[test]
    fn unset_env_parses_to_none() {
        assert_eq!(
            parsed_env::<usize>("ADC_BENCH_THIS_VARIABLE_DOES_NOT_EXIST"),
            None
        );
    }

    #[test]
    fn sliced_mining_matches_the_single_run() {
        let relation = Dataset::Airport.generator().generate(120, 7);
        let config = MinerConfig::new(0.01).with_order(SearchOrder::ShortestFirst);
        let single = AdcMiner::new(config).mine(&relation);
        assert!(single.truncation.is_none());
        let (sliced, slices) = run_miner_sliced(&relation, config, 50);
        assert!(slices > 1, "the slice budget never fired");
        assert!(sliced.truncation.is_none());
        let ids = |m: &MiningResult| {
            m.dcs
                .iter()
                .map(|d| d.predicate_ids().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&sliced), ids(&single));
        // Slice 1's real pipeline costs survive the merge (resumed slices
        // reuse the evidence and report zero for those stages).
        assert!(sliced.timings.evidence > Duration::ZERO);
        assert!(sliced.timings.predicate_space > Duration::ZERO);

        // A raw-cover emission budget must bind on the accumulated count,
        // not per slice: the sliced run may not outrun the single run.
        let capped = config.with_budget(SearchBudget::unlimited().with_max_emitted(40));
        let single_capped = AdcMiner::new(capped).mine(&relation);
        let (sliced_capped, capped_slices) = run_miner_sliced(&relation, capped, 7);
        assert!(capped_slices > 1);
        assert_eq!(ids(&sliced_capped), ids(&single_capped));
        assert_eq!(sliced_capped.enum_stats.emitted, 40);

        // A zero slice size must clamp to 1 and terminate, not spin.
        let (clamped, _) = run_miner_sliced(&relation, config, 0);
        assert_eq!(ids(&clamped), ids(&single));
    }
}
