//! # adc-evidence
//!
//! Evidence-set construction for denial constraint mining.
//!
//! The *evidence set* `Evi(D)` (Chu et al. 2013) is the multiset
//! `{ Sat(t, t') | t, t' ∈ D, t ≠ t' }` where `Sat(t, t')` is the set of
//! predicates satisfied by the ordered tuple pair. All (approximate) DC
//! discovery in this workspace happens against the evidence set: a DC `ϕ` is
//! valid iff the complement set `Ŝ_ϕ` intersects every evidence set, and the
//! number of violating pairs of `ϕ` is the total multiplicity of evidence
//! sets missed by `Ŝ_ϕ`.
//!
//! Three builders are provided:
//!
//! * [`NaiveEvidenceBuilder`] — the reference implementation (AFASTDC-style):
//!   evaluates every predicate on every ordered pair through the dynamic
//!   [`adc_predicates::Predicate::eval`] path.
//! * [`ClusterEvidenceBuilder`] — the optimised builder in the spirit of
//!   BFASTDC / DCFinder: per-column integer codes (PLI ranks / global
//!   dictionary codes), per-structure-group bit masks, and word-level
//!   assembly of each pair's evidence bitset.
//! * [`SweepEvidenceBuilder`] — the sub-quadratic, multi-threaded sort/PLI
//!   sweep: rows are
//!   grouped into identical-code classes and, per left class, refined into
//!   equal-outcome blocks whose pair counts are closed-form — via
//!   single-family interval events, a two-family wavelet rectangle path
//!   (with band-structured text columns hosted on their numeric family),
//!   or the multi-family rank-token fallback. Left classes are spread over
//!   worker threads and merged deterministically (see [`sweep`]).
//!
//! The two pairwise builders produce identical [`EvidenceSet`]s bit for bit;
//! the sweep builder produces the same evidence *multiset* in a different
//! entry order, normalized by [`Evidence::canonicalize`] (tested by the
//! cross-kernel differential suite), and the same bits at every thread
//! count. They differ only in construction time.
//!
//! ```
//! use adc_data::{AttributeType, Relation, Schema, Value};
//! use adc_evidence::{ClusterEvidenceBuilder, EvidenceBuilder, SweepEvidenceBuilder};
//! use adc_predicates::{PredicateSpace, SpaceConfig};
//!
//! let schema = Schema::of(&[("City", AttributeType::Text), ("Pop", AttributeType::Integer)]);
//! let mut b = Relation::builder(schema);
//! for (c, p) in [("Oslo", 700), ("Bergen", 280), ("Oslo", 700)] {
//!     b.push_row(vec![c.into(), Value::Int(p)]).unwrap();
//! }
//! let relation = b.build();
//! let space = PredicateSpace::build(&relation, SpaceConfig::default());
//!
//! // 3 tuples → 6 ordered pairs; the two identical "Oslo" tuples collapse
//! // into shared evidence entries, and every builder agrees up to entry order.
//! let evidence = ClusterEvidenceBuilder.build(&relation, &space, true);
//! assert_eq!(evidence.evidence_set.total_pairs(), 6);
//! let sweep = SweepEvidenceBuilder::new(2).build(&relation, &space, true);
//! assert_eq!(evidence.canonicalized(), sweep.canonicalized());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod delta;
pub mod evidence;
pub mod sweep;
pub mod sync;
pub mod vios;
mod wavelet;

pub use builder::{ClusterEvidenceBuilder, EvidenceBuilder, NaiveEvidenceBuilder};
pub use delta::{DeltaEvidenceBuilder, EvidenceDelta};
pub use evidence::{EvidenceEntry, EvidenceSet};
pub use sweep::{SweepEvidenceBuilder, SweepStats};
// conformance: allow(concurrency) — re-export of the adc_sync audit seam; no primitive is used here
pub use sync::{AtomicChunkSource, ChunkSource, Schedule, ScriptedChunkSource};
pub use vios::{ParticipantRows, Vios};

use adc_data::Relation;
use adc_predicates::PredicateSpace;

/// Evidence data produced by a builder: the interned evidence set and,
/// optionally, the per-tuple violation index (`vios`) needed by the `f2` and
/// `f3` approximation functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// The interned evidence multiset.
    pub evidence_set: EvidenceSet,
    /// Per-evidence-entry, per-tuple pair counts (present when requested).
    pub vios: Option<Vios>,
}

impl Evidence {
    /// Build evidence with the default (optimised) builder, tracking `vios`.
    pub fn build(relation: &Relation, space: &PredicateSpace) -> Evidence {
        ClusterEvidenceBuilder.build(relation, space, true)
    }

    /// The `vios` index.
    ///
    /// # Panics
    /// Panics if the evidence was built without `vios` tracking.
    pub fn vios(&self) -> &Vios {
        self.vios
            .as_ref()
            // conformance: allow(panic) — documented panicking accessor; callers needing fallibility match on the Option field directly
            .expect("evidence was built without the vios index")
    }

    /// Normalize into the canonical builder-independent form: entries sorted
    /// by [`EvidenceSet::canonicalize`], with the `vios` index re-targeted
    /// through the same permutation. Two kernels agree exactly when their
    /// canonicalized `Evidence` values are `==` — this is the comparison
    /// every cross-kernel equality test goes through.
    pub fn canonicalize(&mut self) {
        let remap = self.evidence_set.canonicalize();
        if let Some(vios) = self.vios.as_mut() {
            // `remap_entries` expects the index and the remap log to cover
            // the same entry range; a builder may not have grown the index
            // up to the last interned entry.
            vios.ensure_entries(remap.len());
            let permutation: Vec<Option<usize>> = remap.iter().map(|&n| Some(n)).collect();
            vios.remap_entries(&permutation);
        }
    }

    /// Owning variant of [`Evidence::canonicalize`], for assertion chains.
    pub fn canonicalized(mut self) -> Self {
        self.canonicalize();
        self
    }
}
