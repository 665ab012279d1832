//! The approximation-function trait and the concrete functions of the paper.

use crate::normal;
use adc_data::FixedBitSet;
use adc_evidence::{EvidenceSet, ParticipantRows, Vios};
use std::cell::OnceCell;

/// Everything an approximation function may consult: the interned evidence
/// set and (for tuple-level measures) the `vios` participation index.
///
/// The context deliberately excludes the raw relation — mirroring the paper,
/// all three functions are computable from `Evi(D)` plus `vios`, which is
/// what makes them cheap enough to evaluate `|S| + 2` times per enumeration
/// step.
///
/// `f2` scores from the index's [`ParticipantRows`], which the context
/// derives from `vios` on the first `f2` score and keeps for every later one;
/// contexts that never score `f2` never build it.
#[derive(Clone)]
pub struct ApproxContext<'a> {
    /// The evidence multiset of the (sampled) database.
    pub evidence: &'a EvidenceSet,
    /// Per-entry per-tuple participation counts; required by `f2` and `f3`.
    pub vios: Option<&'a Vios>,
    participants: OnceCell<ParticipantRows>,
}

impl<'a> ApproxContext<'a> {
    /// Build a context from an evidence set alone (sufficient for `f1`).
    pub fn new(evidence: &'a EvidenceSet) -> Self {
        ApproxContext {
            evidence,
            vios: None,
            participants: OnceCell::new(),
        }
    }

    /// Build a context with the `vios` index (required for `f2` / `f3`).
    pub fn with_vios(evidence: &'a EvidenceSet, vios: &'a Vios) -> Self {
        ApproxContext {
            evidence,
            vios: Some(vios),
            participants: OnceCell::new(),
        }
    }

    fn vios(&self) -> &'a Vios {
        self.vios
            // conformance: allow(panic) — documented precondition of f2/f3; the miner front-end re-checks it with an explanatory error before enumeration
            .expect("this approximation function requires the vios index; build evidence with track_vios = true")
    }

    /// The participant rows of the `vios` index, built on first use.
    fn participants(&self) -> &ParticipantRows {
        self.participants
            .get_or_init(|| self.vios().participant_rows())
    }
}

/// A valid approximation function `f : (D, S_ϕ) → [0, 1]`.
///
/// Implementations receive the DC through its **complement set** `Ŝ_ϕ` (the
/// hitting set over the predicate space): an evidence entry disjoint from
/// `Ŝ_ϕ` is a class of violating pairs. This is exactly the representation
/// the enumeration algorithm maintains, so no translation is needed in the
/// hot path.
pub trait ApproximationFunction {
    /// Short name used in reports ("f1", "f2", ...).
    fn name(&self) -> &'static str;

    /// The score `f(D, S_ϕ) ∈ [0, 1]`; the DC is an ε-ADC iff `1 − score ≤ ε`.
    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64;

    /// `true` if [`ApproximationFunction::score`] consults the `vios` index.
    fn requires_vios(&self) -> bool {
        false
    }

    /// Convenience: `1 − score`, the "exception rate" compared against ε.
    fn exception_rate(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        1.0 - self.score(ctx, complement_set)
    }
}

/// `f1`: the fraction of ordered tuple pairs satisfying the DC
/// (`g₁ = 1 − f₁` is the violating-pair rate used by AFASTDC/DCFinder).
#[derive(Debug, Default, Clone, Copy)]
pub struct F1ViolationRate;

impl ApproximationFunction for F1ViolationRate {
    fn name(&self) -> &'static str {
        "f1"
    }

    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        1.0 - ctx.evidence.violation_fraction(complement_set)
    }
}

/// `f2`: the fraction of tuples that are **not** involved in any violating
/// pair ("problematic tuples" measure of Kivinen & Mannila, lifted to DCs).
#[derive(Debug, Default, Clone, Copy)]
pub struct F2ProblematicTuples;

impl ApproximationFunction for F2ProblematicTuples {
    fn name(&self) -> &'static str {
        "f2"
    }

    fn requires_vios(&self) -> bool {
        true
    }

    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        let n = ctx.evidence.num_tuples();
        if n == 0 {
            return 1.0;
        }
        let uncovered = ctx.evidence.uncovered(complement_set);
        let problematic = ctx.participants().distinct_tuples(uncovered);
        (n - problematic) as f64 / n as f64
    }
}

/// `f3`: the greedy replacement for the cardinality-repair measure
/// (Figure 2 of the paper). The exact measure — the largest sub-instance
/// satisfying the DC — is NP-hard for DCs, so the paper (and we) greedily
/// remove the tuples participating in the most violations until every
/// violation is covered, and report `1 − |R|/|D|` where `R` is the removed
/// set.
#[derive(Debug, Default, Clone, Copy)]
pub struct F3GreedyRepair;

impl F3GreedyRepair {
    /// Size of the greedy repair set `R` for the DC with complement set
    /// `complement_set` (the loop of Figure 2).
    pub fn greedy_repair_size(
        &self,
        ctx: &ApproxContext<'_>,
        complement_set: &FixedBitSet,
    ) -> usize {
        let evidence = ctx.evidence;
        let uncovered: Vec<usize> = evidence.uncovered(complement_set).collect();
        // u = total number of violating pairs (bag semantics).
        let u: u64 = uncovered.iter().map(|&i| evidence.entry(i).count).sum();
        if u == 0 {
            return 0;
        }
        let vios = ctx.vios();
        // SortTuples: v(t) = Σ_{uncovered S} vios[S][t], descending.
        let counts = vios.accumulate_counts(&uncovered);
        let mut sorted: Vec<(u32, u64)> = counts.into_iter().collect();
        sorted.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut covered = 0u64;
        let mut removed = 0usize;
        for (_, v) in sorted {
            if covered >= u {
                break;
            }
            covered += v;
            removed += 1;
        }
        removed
    }
}

impl ApproximationFunction for F3GreedyRepair {
    fn name(&self) -> &'static str {
        "f3"
    }

    fn requires_vios(&self) -> bool {
        true
    }

    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        let n = ctx.evidence.num_tuples();
        if n == 0 {
            return 1.0;
        }
        let removed = self.greedy_repair_size(ctx, complement_set);
        (n - removed) as f64 / n as f64
    }
}

/// `f₁'`: the sample-adjusted violation-rate function of Section 7.2.
///
/// When mining from a uniform sample `J`, accepting a DC iff
/// `1 − p̂ ≥ z·√(p̂(1−p̂)/n) + (1 − ε)` guarantees (under the normal
/// approximation) that with probability at least `1 − α` the DC is an ε-ADC
/// on the full database. Equivalently, the DC is accepted on the sample iff
/// it is an ε-ADC w.r.t. `f₁' = (1 − p̂) − z·√(p̂(1−p̂)/n)`.
#[derive(Debug, Clone, Copy)]
pub struct SampleAdjustedF1 {
    /// The normal quantile `z₁₋₂α` for the requested confidence level.
    pub z: f64,
}

impl SampleAdjustedF1 {
    /// Build from the error bound `α` of the paper (confidence `1 − α` that an
    /// accepted DC is an ε-ADC on the full database).
    pub fn with_alpha(alpha: f64) -> Self {
        SampleAdjustedF1 {
            z: normal::z_for_alpha(alpha),
        }
    }
}

impl Default for SampleAdjustedF1 {
    /// Defaults to α = 0.05 (95 % one-sided confidence).
    fn default() -> Self {
        Self::with_alpha(0.05)
    }
}

impl ApproximationFunction for SampleAdjustedF1 {
    fn name(&self) -> &'static str {
        "f1'"
    }

    fn score(&self, ctx: &ApproxContext<'_>, complement_set: &FixedBitSet) -> f64 {
        let n = ctx.evidence.total_pairs() as f64;
        if n == 0.0 {
            return 1.0;
        }
        let p_hat = ctx.evidence.violation_fraction(complement_set);
        let margin = self.z * (p_hat * (1.0 - p_hat) / n).sqrt();
        ((1.0 - p_hat) - margin).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adc_data::{AttributeType, Relation, Schema, Value};
    use adc_evidence::{ClusterEvidenceBuilder, Evidence, EvidenceBuilder};
    use adc_predicates::{DenialConstraint, PredicateSpace, SpaceConfig, TupleRole};

    /// The full running example of the paper (Table 1), 15 tuples.
    pub(crate) fn running_example() -> Relation {
        let schema = Schema::of(&[
            ("Name", AttributeType::Text),
            ("State", AttributeType::Text),
            ("Zip", AttributeType::Integer),
            ("Income", AttributeType::Integer),
            ("Tax", AttributeType::Integer),
        ]);
        let rows: [(&str, &str, i64, i64, i64); 15] = [
            ("Alice", "NY", 11803, 28_000, 2_400),
            ("Mark", "NY", 10102, 42_000, 4_700),
            ("Bob", "NY", 13914, 93_000, 11_800),
            ("Mary", "NY", 10437, 58_000, 6_700),
            ("Alice", "NY", 10437, 26_000, 2_100),
            ("Julia", "WA", 98112, 27_000, 1_400),
            ("Jimmy", "WA", 98112, 24_000, 1_600),
            ("Sam", "WA", 98112, 49_000, 6_800),
            ("Jeff", "WA", 98112, 56_000, 7_800),
            ("Gary", "WA", 98112, 50_000, 7_200),
            ("Ron", "WA", 98112, 58_000, 8_000),
            ("Jennifer", "WA", 98112, 61_000, 8_500),
            ("Adam", "WA", 98112, 20_000, 1_000),
            ("Tim", "IL", 62078, 39_000, 5_000),
            ("Sarah", "IL", 98112, 54_000, 5_000),
        ];
        let mut b = Relation::builder(schema);
        for (n, s, z, i, t) in rows {
            b.push_row(vec![
                n.into(),
                s.into(),
                Value::Int(z),
                Value::Int(i),
                Value::Int(t),
            ])
            .unwrap();
        }
        b.build()
    }

    struct Fixture {
        space: PredicateSpace,
        evidence: Evidence,
    }

    fn fixture() -> Fixture {
        let r = running_example();
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let evidence = ClusterEvidenceBuilder.build(&r, &space, true);
        Fixture { space, evidence }
    }

    /// ϕ₁ = ¬(State = State' ∧ Income > Income' ∧ Tax ≤ Tax').
    fn phi1(space: &PredicateSpace) -> DenialConstraint {
        DenialConstraint::new(vec![
            space.find("State", "=", TupleRole::Other, "State").unwrap(),
            space
                .find("Income", ">", TupleRole::Other, "Income")
                .unwrap(),
            space.find("Tax", "≤", TupleRole::Other, "Tax").unwrap(),
        ])
    }

    /// ϕ₂ = ¬(Zip = Zip' ∧ State ≠ State').
    fn phi2(space: &PredicateSpace) -> DenialConstraint {
        DenialConstraint::new(vec![
            space.find("Zip", "=", TupleRole::Other, "Zip").unwrap(),
            space.find("State", "≠", TupleRole::Other, "State").unwrap(),
        ])
    }

    #[test]
    fn f1_matches_example_1_2_for_phi1() {
        // The paper: 2 of 210 ordered pairs violate ϕ₁ (≈0.95 %).
        let fx = fixture();
        let ctx = ApproxContext::new(&fx.evidence.evidence_set);
        let dc = phi1(&fx.space);
        let cset = dc.complement_set(&fx.space);
        let f1 = F1ViolationRate;
        let rate = f1.exception_rate(&ctx, &cset);
        assert!((rate - 2.0 / 210.0).abs() < 1e-12, "violation rate {rate}");
        assert!(f1.score(&ctx, &cset) > 0.99);
    }

    #[test]
    fn f1_matches_example_1_2_for_phi2() {
        // The paper: 16 of 210 ordered pairs violate ϕ₂ (≈7.62 %).
        let fx = fixture();
        let ctx = ApproxContext::new(&fx.evidence.evidence_set);
        let cset = phi2(&fx.space).complement_set(&fx.space);
        let rate = F1ViolationRate.exception_rate(&ctx, &cset);
        assert!((rate - 16.0 / 210.0).abs() < 1e-12, "violation rate {rate}");
    }

    #[test]
    fn f3_matches_example_1_2_removal_counts() {
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        // ϕ₁: remove one of {t6,t7} and one of {t14,t15} -> 2 tuples (13.3% of 15).
        let cset1 = phi1(&fx.space).complement_set(&fx.space);
        assert_eq!(F3GreedyRepair.greedy_repair_size(&ctx, &cset1), 2);
        assert!((F3GreedyRepair.exception_rate(&ctx, &cset1) - 2.0 / 15.0).abs() < 1e-12);
        // ϕ₂: removing t15 alone suffices -> 1 tuple (6.67%).
        let cset2 = phi2(&fx.space).complement_set(&fx.space);
        assert_eq!(F3GreedyRepair.greedy_repair_size(&ctx, &cset2), 1);
        assert!((F3GreedyRepair.exception_rate(&ctx, &cset2) - 1.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn example_1_2_threshold_crossover() {
        // With ε = 0.05: ϕ₁ is an ADC under f1 but not under f3;
        // with ε = 0.07: ϕ₂ is an ADC under f3 but not under f1.
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        let cset1 = phi1(&fx.space).complement_set(&fx.space);
        let cset2 = phi2(&fx.space).complement_set(&fx.space);
        assert!(F1ViolationRate.exception_rate(&ctx, &cset1) <= 0.05);
        assert!(F3GreedyRepair.exception_rate(&ctx, &cset1) > 0.05);
        assert!(F3GreedyRepair.exception_rate(&ctx, &cset2) <= 0.07);
        assert!(F1ViolationRate.exception_rate(&ctx, &cset2) > 0.07);
    }

    #[test]
    fn f2_counts_problematic_tuples() {
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        // ϕ₁ violations involve tuples {t6,t7} and {t14,t15}: 4 problematic tuples.
        let cset1 = phi1(&fx.space).complement_set(&fx.space);
        let f2 = F2ProblematicTuples;
        assert!((f2.exception_rate(&ctx, &cset1) - 4.0 / 15.0).abs() < 1e-12);
        // ϕ₂ violations involve t15 and each of t6..t13: 9 problematic tuples.
        let cset2 = phi2(&fx.space).complement_set(&fx.space);
        assert!((f2.exception_rate(&ctx, &cset2) - 9.0 / 15.0).abs() < 1e-12);
    }

    /// f2 over participant rows equals the replaced hash-set count bit for
    /// bit, on relations on both sides of the 64-tuple word boundary and for
    /// random complement sets of every size.
    #[test]
    fn f2_matches_the_hash_set_count() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(19);
        for rows in [0usize, 1, 2, 15, 63, 64, 65, 130] {
            let schema = Schema::of(&[
                ("A", AttributeType::Text),
                ("B", AttributeType::Integer),
                ("C", AttributeType::Integer),
            ]);
            let mut b = Relation::builder(schema);
            for _ in 0..rows {
                b.push_row(vec![
                    Value::from(["x", "y", "z"][rng.gen_range(0..3)]),
                    Value::Int(rng.gen_range(0..8)),
                    Value::Int(rng.gen_range(0..8)),
                ])
                .unwrap();
            }
            let r = b.build();
            let space = PredicateSpace::build(&r, SpaceConfig::default());
            let ev = ClusterEvidenceBuilder.build(&r, &space, true);
            let ctx = ApproxContext::with_vios(&ev.evidence_set, ev.vios());
            let n = ev.evidence_set.num_tuples();
            for _ in 0..200 {
                let keep = rng.gen_range(0.0..0.3);
                let set = FixedBitSet::from_indices(
                    space.len(),
                    (0..space.len()).filter(|_| rng.gen_bool(keep)),
                );
                let mut tuples = adc_data::fx::FxHashSet::default();
                for e in ev.evidence_set.uncovered(&set) {
                    tuples.extend(ev.vios().entry_tuples(e).map(|(t, _)| t));
                }
                let expected = if n == 0 {
                    1.0
                } else {
                    (n - tuples.len()) as f64 / n as f64
                };
                assert_eq!(
                    F2ProblematicTuples.score(&ctx, &set).to_bits(),
                    expected.to_bits(),
                    "{rows} rows"
                );
            }
        }
    }

    #[test]
    fn proposition_5_3_bound_holds_on_running_example() {
        // If 1 − f_i ≤ ε (i ∈ {2,3}) then 1 − f1 ≤ 2ε.
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        for dc in [phi1(&fx.space), phi2(&fx.space)] {
            let cset = dc.complement_set(&fx.space);
            let e1 = F1ViolationRate.exception_rate(&ctx, &cset);
            let e2 = F2ProblematicTuples.exception_rate(&ctx, &cset);
            let e3 = F3GreedyRepair.exception_rate(&ctx, &cset);
            assert!(e1 <= 2.0 * e2 + 1e-12);
            // f3-greedy over-approximates the optimal repair, so the bound of
            // Proposition 5.3 (stated for the exact f3) still holds a fortiori.
            assert!(e1 <= 2.0 * e3 + 1e-12);
        }
    }

    #[test]
    fn valid_dc_scores_one_under_all_functions() {
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        // Name ≠ Name' ∨ Zip ≠ Zip' ... pick a DC with full predicate set: the
        // complement set of ALL predicates hits every non-empty evidence entry.
        let all = FixedBitSet::full(fx.space.len());
        for kind in crate::ApproxKind::ALL {
            let f = kind.instantiate();
            assert!(
                f.score(&ctx, &all) >= 1.0 - 1e-12,
                "{} should be 1.0 for the all-predicates hitting set",
                f.name()
            );
        }
    }

    #[test]
    fn empty_complement_set_scores_zero_under_f1() {
        let fx = fixture();
        let ctx = ApproxContext::with_vios(&fx.evidence.evidence_set, fx.evidence.vios());
        let empty = FixedBitSet::new(fx.space.len());
        assert!(F1ViolationRate.score(&ctx, &empty) < 1e-12);
        assert!(F2ProblematicTuples.score(&ctx, &empty) < 1e-12);
        // Greedy repair must remove roughly half the tuples to cover all pairs,
        // so the score is well below 1.
        assert!(F3GreedyRepair.score(&ctx, &empty) < 0.7);
    }

    #[test]
    fn sample_adjusted_f1_is_bounded_by_f1() {
        let fx = fixture();
        let ctx = ApproxContext::new(&fx.evidence.evidence_set);
        let f1 = F1ViolationRate;
        let f1p = SampleAdjustedF1::default();
        assert!(f1p.z > 1.64 && f1p.z < 1.65);
        for dc in [phi1(&fx.space), phi2(&fx.space)] {
            let cset = dc.complement_set(&fx.space);
            let plain = f1.score(&ctx, &cset);
            let adjusted = f1p.score(&ctx, &cset);
            assert!(adjusted <= plain + 1e-12);
            // The margin shrinks as n grows; with 210 pairs it is small but positive.
            assert!(plain - adjusted < 0.05);
        }
    }

    #[test]
    fn requires_vios_flags() {
        assert!(!F1ViolationRate.requires_vios());
        assert!(F2ProblematicTuples.requires_vios());
        assert!(F3GreedyRepair.requires_vios());
        assert!(!SampleAdjustedF1::default().requires_vios());
    }

    #[test]
    #[should_panic(expected = "requires the vios index")]
    fn f2_without_vios_panics() {
        let fx = fixture();
        let ctx = ApproxContext::new(&fx.evidence.evidence_set);
        let empty = FixedBitSet::new(fx.space.len());
        let _ = F2ProblematicTuples.score(&ctx, &empty);
    }

    #[test]
    fn empty_database_scores_one() {
        let schema = Schema::of(&[("A", AttributeType::Integer)]);
        let r = Relation::empty(schema);
        let space = PredicateSpace::build(&r, SpaceConfig::default());
        let ev = ClusterEvidenceBuilder.build(&r, &space, true);
        let ctx = ApproxContext::with_vios(&ev.evidence_set, ev.vios());
        let empty = FixedBitSet::new(space.len());
        for kind in crate::ApproxKind::ALL {
            assert!((kind.instantiate().score(&ctx, &empty) - 1.0).abs() < 1e-12);
        }
        assert!((SampleAdjustedF1::default().score(&ctx, &empty) - 1.0).abs() < 1e-12);
    }
}
