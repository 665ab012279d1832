//! Anytime-mining integration tests: the truncation-representativeness
//! guarantee that fig14/table5 now depend on, plus budget reporting.
//!
//! The central claim: under `SearchOrder::ShortestFirst`, a run capped at K
//! DCs returns exactly the K shortest minimal ADCs of the uncapped run (ties
//! broken deterministically by discovery order) — the cap keeps the entire
//! shortest frontier, not whichever covers a DFS happens to reach first. The
//! test mines a **targeted-noise dirty** dataset, the regime the
//! `ADC_BENCH_MAX_DCS` cap exists for, with a cap strictly smaller than the
//! total minimal frontier.

use adc::datasets::{targeted_spread_noise, NoiseConfig};
use adc::prelude::*;
use std::time::Duration;

/// A dirty Airport relation: small enough to mine its full dirty frontier
/// exhaustively (the uncapped reference), noisy enough that the frontier
/// comfortably exceeds the caps used below.
fn dirty_airport() -> Relation {
    let generator = Dataset::Airport.generator();
    let clean = generator.generate(400, 5);
    let (dirty, changed) = targeted_spread_noise(
        &clean,
        &generator.correlation(),
        &NoiseConfig::with_rate(0.004),
        41,
    );
    assert!(!changed.is_empty());
    dirty
}

fn miner(epsilon: f64) -> MinerConfig {
    MinerConfig::new(epsilon).with_order(SearchOrder::ShortestFirst)
}

fn ids(result: &MiningResult) -> Vec<Vec<usize>> {
    result
        .dcs
        .iter()
        .map(|d| d.predicate_ids().to_vec())
        .collect()
}

#[test]
fn capped_shortest_first_run_returns_the_k_shortest_covers() {
    let dirty = dirty_airport();
    let epsilon = 0.01;

    let full = AdcMiner::new(miner(epsilon).with_max_dcs(50_000)).mine(&dirty);
    assert!(
        full.truncation.is_none(),
        "reference run must be exhaustive, got {:?}",
        full.truncation
    );
    let full_ids = ids(&full);
    // Shortest-first reference: emission is nondecreasing in DC length.
    let lengths: Vec<usize> = full.dcs.iter().map(|d| d.len()).collect();
    let mut sorted_lengths = lengths.clone();
    sorted_lengths.sort_unstable();
    assert_eq!(lengths, sorted_lengths, "reference emission must be sorted");

    let k = full.dcs.len() / 3;
    assert!(k >= 5, "dirty frontier too small for the test to mean much");

    let capped = AdcMiner::new(miner(epsilon).with_max_dcs(k)).mine(&dirty);
    assert_eq!(capped.dcs.len(), k);

    // The capped result is exactly the K shortest covers of the uncapped
    // run, ties broken deterministically — i.e. its first K emissions.
    assert_eq!(ids(&capped), full_ids[..k].to_vec());
    // Equivalently, in pure size terms: the capped multiset of lengths is
    // the K smallest lengths of the full frontier.
    let capped_lengths: Vec<usize> = capped.dcs.iter().map(|d| d.len()).collect();
    assert_eq!(capped_lengths, sorted_lengths[..k].to_vec());

    // The truncation report carries the frontier-completeness guarantee:
    // every minimal ADC strictly shorter than `complete_below_size` is in
    // the capped result.
    let truncation = capped.truncation.expect("capped run must be truncated");
    assert_eq!(truncation.reason, TruncationReason::MaxEmitted);
    let complete_below = truncation
        .complete_below_size
        .expect("shortest-first truncation must bound the complete frontier");
    let capped_ids = ids(&capped);
    for (dc_ids, len) in full_ids.iter().zip(&lengths) {
        if *len < complete_below {
            assert!(
                capped_ids.contains(dc_ids),
                "ADC of length {len} < complete_below {complete_below} missing from capped run"
            );
        }
    }
}

#[test]
fn dfs_capped_runs_are_not_the_shortest_frontier_on_this_data() {
    // Documentation by contrast, pinned on this fixed, deterministic dirty
    // dataset: the DFS cap keeps an emission-order prefix that is *not* the
    // shortest frontier here — DFS dives into long-cover subtrees and keeps
    // covers strictly longer than the K-th shortest. If either assertion
    // ever fails, the orders have stopped differing (e.g. shortest-first
    // silently became the default, or the DFS traversal changed shape) and
    // the representativeness claim above lost its contrast.
    let dirty = dirty_airport();
    let epsilon = 0.01;
    let full = AdcMiner::new(miner(epsilon).with_max_dcs(50_000)).mine(&dirty);
    let k = full.dcs.len() / 3;
    let dfs_capped = AdcMiner::new(MinerConfig::new(epsilon).with_max_dcs(k)).mine(&dirty);
    let sf_capped = AdcMiner::new(miner(epsilon).with_max_dcs(k)).mine(&dirty);
    assert_eq!(dfs_capped.dcs.len(), sf_capped.dcs.len());
    assert_ne!(
        ids(&dfs_capped),
        ids(&sf_capped),
        "DFS and shortest-first caps kept identical sequences — the contrast is gone"
    );
    let total_len = |r: &MiningResult| r.dcs.iter().map(|d| d.len()).sum::<usize>();
    assert!(
        total_len(&dfs_capped) > total_len(&sf_capped),
        "on this data the DFS prefix must keep strictly longer covers overall \
         (DFS total {}, shortest-first total {})",
        total_len(&dfs_capped),
        total_len(&sf_capped)
    );
}

#[test]
fn node_and_deadline_budgets_report_their_reason() {
    let dirty = dirty_airport();

    let node_cut =
        AdcMiner::new(miner(0.01).with_budget(SearchBudget::unlimited().with_max_nodes(50)))
            .mine(&dirty);
    assert_eq!(
        node_cut.truncation.map(|t| t.reason),
        Some(TruncationReason::MaxNodes)
    );
    assert!(node_cut.enum_stats.recursive_calls <= 50);

    let deadline_cut = AdcMiner::new(
        miner(0.01).with_budget(SearchBudget::unlimited().with_deadline(Duration::ZERO)),
    )
    .mine(&dirty);
    assert_eq!(
        deadline_cut.truncation.map(|t| t.reason),
        Some(TruncationReason::Deadline)
    );
    assert!(deadline_cut.dcs.is_empty());
}

/// Run a miner in resume-in-slices mode until completion, returning the
/// concatenated DC id sequence, the slice count, and the final result.
fn mine_in_slices(
    config: MinerConfig,
    relation: &Relation,
) -> (Vec<Vec<usize>>, usize, MiningResult) {
    let miner = AdcMiner::new(config);
    let mut result = miner.mine(relation);
    let mut dcs = ids(&result);
    let mut slices = 1;
    while let Some(token) = result.resume.take() {
        slices += 1;
        assert!(slices < 100_000, "runaway resume loop");
        result = miner.resume(token);
        dcs.extend(ids(&result));
    }
    (dcs, slices, result)
}

#[test]
fn resume_in_slices_replays_the_single_run_at_every_budget_point() {
    // The tentpole determinism guarantee, at miner level: suspend at each
    // budget dimension (node budget, deadline, result cap, memory bound),
    // resume to completion, and the concatenated DC sequence must equal the
    // single uncapped run's, with a truncation-free final report.
    let dirty = dirty_airport();
    let epsilon = 0.01;
    let reference = AdcMiner::new(miner(epsilon)).mine(&dirty);
    assert!(reference.truncation.is_none());
    assert!(reference.resume.is_none());
    let reference_ids = ids(&reference);
    assert!(
        reference_ids.len() >= 15,
        "frontier too small to be meaningful"
    );

    // Node-budget slices.
    let (dcs, slices, last) = mine_in_slices(
        miner(epsilon).with_budget(SearchBudget::unlimited().with_max_nodes(500)),
        &dirty,
    );
    assert!(slices > 2, "node slice budget never fired");
    assert!(last.truncation.is_none(), "final slice must be exhaustive");
    assert_eq!(dcs, reference_ids, "node-budget slices diverged");

    // Result-cap slices (each slice stops after 5 DCs, then resumes).
    let (dcs, slices, _) = mine_in_slices(miner(epsilon).with_max_dcs(5), &dirty);
    assert!(slices > 2, "DC cap slices never fired");
    assert_eq!(dcs, reference_ids, "result-cap slices diverged");

    // Deadline cut: a zero deadline suspends before any expansion; resuming
    // without the deadline must still replay the full sequence.
    let zero_deadline =
        miner(epsilon).with_budget(SearchBudget::unlimited().with_deadline(Duration::ZERO));
    let cut = AdcMiner::new(zero_deadline).mine(&dirty);
    assert_eq!(
        cut.truncation.map(|t| t.reason),
        Some(TruncationReason::Deadline)
    );
    let token = cut.resume.expect("deadline cut must be resumable");
    let resumed = AdcMiner::new(miner(epsilon)).resume(token);
    assert!(resumed.truncation.is_none());
    assert_eq!(
        ids(&resumed),
        reference_ids,
        "deadline cut + resume diverged"
    );

    // Memory bound: the frontier cap may permute emission order, so the
    // sliced memory-bounded run is compared against the *single*
    // memory-bounded run (sequence) and the unbounded one (set).
    let bounded_budget = SearchBudget::unlimited().with_max_frontier_nodes(64);
    let bounded = AdcMiner::new(miner(epsilon).with_budget(bounded_budget)).mine(&dirty);
    assert!(bounded.truncation.is_none());
    let (dcs, slices, _) = mine_in_slices(
        miner(epsilon).with_budget(bounded_budget.with_max_nodes(500)),
        &dirty,
    );
    assert!(slices > 2, "memory-bounded slices never fired");
    assert_eq!(dcs, ids(&bounded), "memory-bounded slices diverged");
    let canon = |mut v: Vec<Vec<usize>>| {
        v.sort();
        v
    };
    assert_eq!(
        canon(ids(&bounded)),
        canon(reference_ids.clone()),
        "the memory bound changed the answer set"
    );
}

#[test]
fn resume_tokens_report_cumulative_progress() {
    let dirty = dirty_airport();
    let cut = AdcMiner::new(miner(0.01).with_budget(SearchBudget::unlimited().with_max_nodes(300)))
        .mine(&dirty);
    let token = cut.resume.as_ref().expect("node cut must be resumable");
    assert_eq!(token.total_nodes_expanded(), 300);
    assert!(token.frontier_len() > 0);
}

#[test]
fn budgeted_prefix_is_a_prefix_of_the_unbudgeted_emission() {
    // Anytime soundness: cutting the same deterministic traversal earlier
    // can only shorten the output, never change what comes before the cut.
    let dirty = dirty_airport();
    let full = AdcMiner::new(miner(0.01).with_max_dcs(50_000)).mine(&dirty);
    let budgeted =
        AdcMiner::new(miner(0.01).with_budget(SearchBudget::unlimited().with_max_nodes(2_000)))
            .mine(&dirty);
    let full_ids = ids(&full);
    let budgeted_ids = ids(&budgeted);
    assert!(budgeted_ids.len() < full_ids.len());
    assert_eq!(budgeted_ids[..], full_ids[..budgeted_ids.len()]);
}

#[test]
fn dfs_capped_run_is_the_uncapped_prefix_and_cap_slices_replay_it() {
    // The DC cap is exact under DFS order too: a run capped at K returns
    // exactly the first K DCs of the uncapped DFS emission and says the
    // result cap stopped it, and K-sized resume slices concatenate to the
    // uncapped sequence.
    let dirty = dirty_airport();
    let epsilon = 0.01;
    let dfs = |max_dcs: Option<usize>| {
        let mut config = MinerConfig::new(epsilon);
        config.max_dcs = max_dcs;
        config
    };
    let full = AdcMiner::new(dfs(None)).mine(&dirty);
    assert!(full.truncation.is_none());
    let full_ids = ids(&full);
    let k = full.dcs.len() / 3;
    assert!(k >= 5, "dirty frontier too small for the test to mean much");

    let capped = AdcMiner::new(dfs(Some(k))).mine(&dirty);
    assert_eq!(ids(&capped), full_ids[..k].to_vec());
    let truncation = capped.truncation.expect("capped run must be truncated");
    assert_eq!(truncation.reason, TruncationReason::MaxEmitted);
    assert_eq!(truncation.complete_below_size, None);

    let (dcs, slices, last) = mine_in_slices(dfs(Some(k)), &dirty);
    assert!(slices > 2, "the DC cap never fired");
    assert!(last.truncation.is_none(), "final slice must be exhaustive");
    assert_eq!(dcs, full_ids, "cap-sized DFS slices diverged");
}

#[test]
fn a_cap_at_or_above_the_answer_returns_all_of_it() {
    // `min(max_dcs, |answer|)` DCs in both orders, and a cap of zero mines
    // nothing but still hands back a resumable token.
    let dirty = dirty_airport();
    for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
        let config = MinerConfig::new(0.01).with_order(order);
        let full = AdcMiner::new(config).mine(&dirty);
        let n = full.dcs.len();
        for cap in [n, n + 1] {
            let capped = AdcMiner::new(config.with_max_dcs(cap)).mine(&dirty);
            assert_eq!(ids(&capped), ids(&full), "{order:?} cap {cap}");
        }
        let zero = AdcMiner::new(config.with_max_dcs(0)).mine(&dirty);
        assert!(zero.dcs.is_empty(), "{order:?}: a zero cap mined DCs");
        assert_eq!(
            zero.truncation.map(|t| t.reason),
            Some(TruncationReason::MaxEmitted)
        );
        let resumed = AdcMiner::new(config).resume(zero.resume.expect("zero cap must suspend"));
        assert_eq!(ids(&resumed), ids(&full), "{order:?}: zero-cap resume");
    }
}

#[test]
fn every_raw_cover_of_the_grouped_enumeration_is_a_returned_dc() {
    // The invariant the exact DC cap rests on. Group suppression lets at
    // most one predicate per structure group into a cover, so no cover's DC
    // is trivial, and the empty cover is only ever the root's sole answer.
    // Hence the raw covers the engine emitted (`enum_stats.emitted`) are
    // exactly the returned DCs, apart from a sole empty cover.
    for dataset in Dataset::ALL {
        let relation = dataset.generator().generate(24, 3);
        for approx in [ApproxKind::F1, ApproxKind::F2, ApproxKind::F3] {
            for epsilon in [0.0, 0.02, 0.2, 1.0] {
                for order in [SearchOrder::Dfs, SearchOrder::ShortestFirst] {
                    let config = MinerConfig::new(epsilon)
                        .with_approx(approx)
                        .with_order(order)
                        .with_budget(SearchBudget::unlimited().with_max_nodes(5_000));
                    let result = AdcMiner::new(config).mine(&relation);
                    let emitted = result.enum_stats.emitted as usize;
                    let context = format!("{dataset:?} {approx:?} ε={epsilon} {order:?}");
                    if result.dcs.is_empty() && emitted == 1 {
                        // The sole empty cover: emitted at the root, which
                        // then has nothing left to expand.
                        assert_eq!(result.enum_stats.recursive_calls, 1, "{context}");
                        assert!(result.truncation.is_none(), "{context}");
                    } else {
                        assert_eq!(emitted, result.dcs.len(), "{context}");
                    }
                }
            }
        }
    }
}
