//! The shared tree-search engine behind every hitting-set enumeration, and
//! its one entry point, [`Search::run`].
//!
//! Both the exact MMCS enumeration ([`crate::mmcs`]) and the approximate
//! `ADCEnum` core ([`crate::approx`]) explore the same search tree: a node is
//! a partial solution `S` together with the bookkeeping MMCS maintains —
//! `cand` (elements still allowed into `S`), `uncov` (subsets not yet hit),
//! and `crit` (per element of `S`, the subsets it alone hits — the minimality
//! invariant). The two algorithms differ only in *local* decisions: when a
//! node is terminal, whether a non-hitting branch exists, and how candidate
//! lists are thinned. This module owns the tree walk; the algorithms supply
//! those decisions through a driver, which a [`Search`] value selects
//! ([`Search::exact`] or [`Search::approx`]).
//!
//! The walk is an **explicit frontier**, not recursion, which buys four
//! things the recursive implementations could not offer:
//!
//! * **Pluggable order** ([`SearchOrder`]): a LIFO stack reproduces the
//!   classic depth-first traversal; [`SearchOrder::ShortestFirst`] is a
//!   best-first priority queue keyed by `|S|` plus an admissible lower bound
//!   on the elements still needed (a greedy family of disjoint uncovered
//!   subsets), which guarantees covers are emitted in nondecreasing size — so
//!   any output cap keeps the entire shortest frontier instead of an
//!   arbitrary DFS prefix.
//! * **Anytime budgets** ([`SearchBudget`]): node, wall-clock, and emission
//!   limits checked at every step, with a [`SearchOutcome`] reporting whether
//!   the run was exhaustive and, under shortest-first, up to which cover size
//!   the emitted frontier is provably complete.
//! * **Suspend / resume** ([`SuspendedSearch`]): a budget-cut run hands back
//!   its live frontier as an opaque token; [`Search::with_resume`] continues
//!   the traversal exactly where it stopped, and a cut-then-resumed run emits
//!   **the same cover sequence** as a single uncapped run.
//! * **Bounded memory** ([`SearchBudget::max_frontier_nodes`]): when the
//!   best-first frontier outgrows the cap, the deepest tail of the heap is
//!   spilled to a DFS lane and expanded in place, so the frontier never
//!   holds more than ~1.5× the cap while the nondecreasing-size emission
//!   guarantee degrades gracefully (the [`Truncation::complete_below`] bound
//!   stays honest throughout).
//!
//! A run that needs none of these — fresh, unbudgeted, depth-first, which is
//! every default mine — takes the **in-place undo walk** instead, for either
//! driver: it visits the identical tree in the identical order, with the same
//! driver calls, while mutating one node's state (the `uncov`/`crit` lists in
//! a `u32` arena, undo stacks for `cand`, `can_hit` and group-suppressed
//! elements) instead of snapshotting a node per child, so no node allocates.
//! [`Search::run`] is the one place that picks it.

#![doc = "conformance: ordered-output"]

use crate::approx::{ApproxDriver, ApproxEnumConfig};
use crate::mmcs::ExactDriver;
use crate::{BranchStrategy, SetSystem};
use adc_data::fx::FxHashMap;
use adc_data::FixedBitSet;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The order in which frontier nodes are expanded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SearchOrder {
    /// Classic depth-first traversal (a LIFO stack): children are explored in
    /// the order the recursive algorithms visit them. Cheapest per node, but
    /// emission order is arbitrary, so truncated runs keep an arbitrary
    /// prefix of the answer set.
    #[default]
    Dfs,
    /// Best-first traversal keyed by `|S| +` an admissible lower bound on the
    /// elements still needed. Covers are emitted in nondecreasing size, and
    /// ties are broken by insertion order, so truncated runs keep exactly the
    /// shortest part of the minimal frontier, deterministically.
    ShortestFirst,
}

/// Resource limits for one search run (one *slice*, when resuming). The
/// default is unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchBudget {
    /// Stop after expanding this many nodes.
    pub max_nodes: Option<u64>,
    /// Stop once this much wall-clock time has elapsed since the search
    /// started (checked before each node expansion *and* periodically inside
    /// wide expansions, so a single huge subset-selection loop cannot
    /// overshoot the deadline unboundedly).
    pub deadline: Option<Duration>,
    /// Stop after emitting this many results.
    pub max_emitted: Option<usize>,
    /// Memory bound: maximum number of nodes the best-first frontier may
    /// hold. Exceeding it triggers a *contraction* — the deepest (largest
    /// key) half of the heap is spilled to a DFS lane and expanded in place
    /// before best-first popping resumes — so total held nodes stay within
    /// ~1.5× this cap plus transient DFS depth. Contractions trade the
    /// global nondecreasing-size emission guarantee for bounded memory;
    /// [`Truncation::complete_below`] remains a correct bound either way,
    /// and [`SearchOutcome::contractions`] reports how often it happened.
    /// Ignored under [`SearchOrder::Dfs`], whose stack is inherently bounded
    /// by tree depth × branching.
    pub max_frontier_nodes: Option<usize>,
}

impl SearchBudget {
    /// No limits (same as `Default`).
    pub fn unlimited() -> Self {
        SearchBudget::default()
    }

    /// Limit the number of expanded nodes.
    pub fn with_max_nodes(mut self, max_nodes: u64) -> Self {
        self.max_nodes = Some(max_nodes);
        self
    }

    /// Limit the wall-clock time, measured from the start of the search.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Limit the number of emitted results.
    pub fn with_max_emitted(mut self, max_emitted: usize) -> Self {
        self.max_emitted = Some(max_emitted);
        self
    }

    /// Bound the number of nodes the best-first frontier may hold (see
    /// [`SearchBudget::max_frontier_nodes`] for the contraction policy).
    pub fn with_max_frontier_nodes(mut self, max_frontier_nodes: usize) -> Self {
        self.max_frontier_nodes = Some(max_frontier_nodes);
        self
    }

    /// `true` when no limit is set.
    pub fn is_unlimited(&self) -> bool {
        self.max_nodes.is_none()
            && self.deadline.is_none()
            && self.max_emitted.is_none()
            && self.max_frontier_nodes.is_none()
    }
}

/// Why a search stopped before exhausting its frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruncationReason {
    /// [`SearchBudget::max_nodes`] was reached.
    MaxNodes,
    /// [`SearchBudget::deadline`] passed.
    Deadline,
    /// [`SearchBudget::max_emitted`] was reached.
    MaxEmitted,
    /// The caller's callback returned `false`.
    Callback,
}

/// Description of a truncated (non-exhaustive) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// What cut the search short.
    pub reason: TruncationReason,
    /// Under [`SearchOrder::ShortestFirst`]: every cover of size *strictly
    /// below* this was emitted before the cut — the frontier is complete up
    /// to (but excluding) this size. The bound is the minimum admissible key
    /// over **every** pending node (heap, DFS spill lane, and any expansion
    /// aborted mid-flight), so it stays correct even after memory-bound
    /// contractions have perturbed the emission order. `None` under
    /// [`SearchOrder::Dfs`], where frontier priorities carry no admissible
    /// completeness information and no such guarantee exists.
    pub complete_below: Option<usize>,
}

/// What one search run (slice) did and whether it finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Number of results handed to the callback *by this run*. When
    /// resuming, the per-slice counters add up across slices;
    /// [`SuspendedSearch::total_emitted`] carries the running total.
    pub emitted: usize,
    /// Number of frontier nodes expanded by this run (the explicit-stack
    /// equivalent of the recursive call count).
    pub nodes_expanded: u64,
    /// `None` when the frontier was exhausted — the enumeration is complete.
    /// `Some` when a budget or the callback cut the run short.
    pub truncation: Option<Truncation>,
    /// High-water mark of simultaneously held frontier nodes (heap + spill
    /// lane + any in-flight node). Under the in-place undo walk (a fresh,
    /// unbudgeted depth-first run of either driver), where pending siblings
    /// are implicit, this reports the maximum walk depth instead.
    pub peak_frontier: usize,
    /// Number of memory-bound frontier contractions performed by this run
    /// (always 0 unless [`SearchBudget::max_frontier_nodes`] is set). Any
    /// non-zero value means the nondecreasing-size emission guarantee of
    /// [`SearchOrder::ShortestFirst`] was locally relaxed to stay within
    /// the memory bound.
    pub contractions: u64,
    /// Scoring-function evaluations made by this run (always 0 under
    /// [`Search::exact`], whose classification needs no score).
    pub score_evaluations: u64,
}

impl SearchOutcome {
    /// `true` when the whole search space was explored.
    pub fn is_exhaustive(&self) -> bool {
        self.truncation.is_none()
    }
}

/// Compact storage for a node's `uncov` and `crit` lists: one shared `u32`
/// buffer addressed by region bounds, instead of one heap allocation per
/// list. Region 0 is `uncov`; region `i + 1` is `crit[i]`. The whole thing
/// sits behind an `Rc` so children that keep the lists unchanged (the
/// non-hitting branch) share them for free — this is what makes wide
/// frontiers cheap enough to hold and suspend.
#[derive(Debug)]
struct NodeLists {
    buf: Box<[u32]>,
    /// `bounds[i]..bounds[i + 1]` delimits region `i`.
    bounds: Box<[u32]>,
}

impl NodeLists {
    fn root(num_subsets: usize) -> Self {
        NodeLists {
            buf: (0..num_subsets as u32).collect(),
            bounds: vec![0, num_subsets as u32].into_boxed_slice(),
        }
    }

    fn region(&self, i: usize) -> &[u32] {
        &self.buf[self.bounds[i] as usize..self.bounds[i + 1] as usize]
    }

    /// Number of criticality regions (equals `|S|`).
    fn crit_regions(&self) -> usize {
        self.bounds.len() - 2
    }
}

/// A frontier node: a partial solution plus the MMCS bookkeeping needed to
/// expand it independently of every other node.
#[derive(Debug, Clone)]
pub(crate) struct SearchNode {
    /// Elements of the partial solution, in insertion order.
    s: Vec<usize>,
    /// The partial solution as a bitset.
    s_set: FixedBitSet,
    /// Elements still allowed into the solution.
    cand: FixedBitSet,
    /// `uncov` (subsets not yet hit, stable ascending order) and `crit[i]`
    /// (subsets for which `s[i]` is the only hitter; every region non-empty —
    /// the MMCS minimality invariant), interned in one compact buffer.
    lists: Rc<NodeLists>,
    /// Subsets still reachable by some candidate (only thinned by drivers
    /// that take the non-hitting branch; shared untouched otherwise).
    can_hit: Rc<FixedBitSet>,
}

impl SearchNode {
    /// Root node whose candidate set is confined to `allowed` (when given):
    /// the search then visits exactly the solutions contained in `allowed` —
    /// elements outside it can never enter a partial solution, and an
    /// uncovered subset none of whose elements are allowed kills the branch
    /// through the ordinary unhittable check.
    fn root_within(system: &SetSystem, allowed: Option<&FixedBitSet>) -> Self {
        let m = system.num_elements();
        SearchNode {
            s: Vec::new(),
            s_set: FixedBitSet::new(m),
            cand: allowed.cloned().unwrap_or_else(|| FixedBitSet::full(m)),
            lists: Rc::new(NodeLists::root(system.len())),
            can_hit: Rc::new(FixedBitSet::full(system.len())),
        }
    }

    /// Candidate elements still allowed into the solution.
    pub fn cand(&self) -> &FixedBitSet {
        &self.cand
    }

    /// Indexes of the subsets not yet hit by the partial solution, in stable
    /// ascending order.
    pub fn uncov(&self) -> &[u32] {
        self.lists.region(0)
    }

    /// `crit[i]`: the subsets for which `s[i]` is the only hitter.
    fn crit(&self, i: usize) -> &[u32] {
        self.lists.region(i + 1)
    }

    /// The borrowed view a driver classifies.
    fn view(&mut self) -> NodeView<'_> {
        NodeView {
            elements: &self.s,
            solution: &mut self.s_set,
            uncov: self.lists.region(0),
        }
    }
}

/// The part of a search node a driver's classification reads, borrowed from
/// whichever walk holds the node: a popped [`SearchNode`] of the explicit
/// engine, or the live state of the in-place walk. `solution` is mutable so
/// that a probe can remove an element, score, and re-insert it instead of
/// cloning the set; a driver must hand it back unchanged.
pub(crate) struct NodeView<'n> {
    /// Elements of the partial solution, in insertion order.
    pub(crate) elements: &'n [usize],
    /// The partial solution as a bitset.
    pub(crate) solution: &'n mut FixedBitSet,
    /// Subsets not yet hit by the partial solution, in stable ascending
    /// order.
    pub(crate) uncov: &'n [u32],
}

/// What the engine should do with a freshly popped node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeDisposition {
    /// Terminal: hand the solution to the callback; do not expand.
    Emit,
    /// Terminal: neither emit nor expand (e.g. threshold met but not minimal).
    Discard,
    /// Interior: expand by branching on an uncovered subset.
    Expand,
}

/// The algorithm-specific decisions a [`Search`] plugs into the engine.
///
/// The engine owns node expansion (candidate thinning, the criticality /
/// minimality invariant, subset selection, frontier discipline, budgets);
/// the driver decides when a node is terminal and which optional rules —
/// non-hitting branch, redundant-group suppression, lower bounds — apply.
pub(crate) trait SearchDriver {
    /// Classify a node: emit, discard, or expand.
    fn classify(&mut self, system: &SetSystem, node: NodeView<'_>) -> NodeDisposition;

    /// Whether expansion also produces the branch that does *not* hit the
    /// chosen subset (`ADCEnum`'s second branch). Defaults to `false` (exact
    /// MMCS: every hitting set must hit every subset).
    fn wants_skip_branch(&self) -> bool {
        false
    }

    /// Given the reduced candidate list of the non-hitting branch, decide
    /// whether that branch is worth exploring (the `WillCover` pruning).
    /// Only called when [`Self::wants_skip_branch`] is `true`.
    fn explore_skip_branch(
        &mut self,
        _system: &SetSystem,
        _solution: &FixedBitSet,
        _cand: &FixedBitSet,
    ) -> bool {
        true
    }

    /// The members of an element's structure group (the element included),
    /// if redundant-group suppression applies: when an element enters the
    /// solution, the rest of its group leaves the candidate list for that
    /// branch. Defaults to no group.
    fn group_mates(&self, _element: usize) -> &[usize] {
        &[]
    }

    /// Admissible lower bound on how many more elements any solution emitted
    /// below `node` must add. Used by [`SearchOrder::ShortestFirst`] to order
    /// the frontier; must never overestimate. Defaults to 0 (always safe).
    fn lower_bound(&mut self, _system: &SetSystem, _node: &SearchNode) -> usize {
        0
    }

    /// Whether an uncovered subset that no candidate can hit makes the whole
    /// branch hopeless. `true` for exact enumeration (the subset can never be
    /// hit); `false` for approximate enumeration, where such subsets are
    /// tracked as unhittable and simply never branched on again.
    fn unhittable_is_fatal(&self) -> bool {
        true
    }
}

/// Engine configuration of one run: branching strategy, frontier order,
/// budget.
#[derive(Debug, Clone, Copy, Default)]
struct SearchConfig {
    strategy: BranchStrategy,
    order: SearchOrder,
    budget: SearchBudget,
}

/// Which lane of the frontier a node came from / its children go to.
///
/// `Best` is the configured discipline (heap or DFS stack); `Spill` is the
/// DFS lane holding memory-bound contraction victims, whose whole subtrees
/// are expanded depth-first in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Best,
    Spill,
}

/// The live state of a budget-cut search: the entire pending frontier plus
/// the cumulative emission/node counters. Returned by [`Search::run`] when a
/// [`SearchBudget`] (or the callback) cuts a run short, and handed to
/// [`Search::with_resume`] to continue the traversal.
///
/// Resuming with the same system and driver continues the *identical*
/// deterministic traversal: the concatenation of the cover sequences emitted
/// by the slices equals the sequence a single uncapped run emits. The token
/// records the order and strategy it was cut under, and a resumed run takes
/// both from it; it is deliberately opaque otherwise.
#[derive(Debug, Clone)]
pub struct SuspendedSearch {
    order: SearchOrder,
    strategy: BranchStrategy,
    /// Set by [`SuspendedSearch::patch`]: the frontier was grown in place
    /// after subsets were appended, which only the exact driver and the
    /// approximate driver at `ε = 0` may continue.
    patched: bool,
    /// Best-lane entries: heap content as `(node, priority, seq)` (sorted by
    /// key for determinism of the stored form), or the DFS stack bottom→top
    /// with `seq = 0`.
    entries: Vec<FrontierEntry>,
    /// The DFS spill lane, bottom→top (always empty under [`SearchOrder::Dfs`]).
    spill: Vec<SpillEntry>,
    /// A node that was popped but whose expansion was aborted mid-flight by
    /// the deadline; it is re-expanded (from scratch, deterministically)
    /// before the frontier is popped again.
    pending: Option<(SearchNode, usize, bool)>,
    next_seq: u64,
    total_nodes_expanded: u64,
    total_emitted: usize,
    total_contractions: u64,
}

impl SuspendedSearch {
    /// Number of pending frontier nodes held by the token.
    pub fn frontier_len(&self) -> usize {
        self.entries.len() + self.spill.len() + usize::from(self.pending.is_some())
    }

    /// Results emitted so far across every slice of this search.
    pub fn total_emitted(&self) -> usize {
        self.total_emitted
    }

    /// Nodes expanded so far across every slice of this search.
    pub fn total_nodes_expanded(&self) -> u64 {
        self.total_nodes_expanded
    }

    /// Memory-bound frontier contractions performed so far across every
    /// slice of this search.
    pub fn total_contractions(&self) -> u64 {
        self.total_contractions
    }

    /// Patch the suspended frontier in place after subsets were appended to
    /// the system (indexes `appended_from..system.len()`; existing subset
    /// indexes must be unchanged — see [`SetSystem::push_subset`]).
    ///
    /// Every pending node classifies each appended subset against its
    /// partial solution `S`: a subset `S` misses joins the node's `uncov`
    /// list, a subset hit by exactly one `s ∈ S` joins `s`'s criticality
    /// list, and a subset hit twice or more needs no bookkeeping. Appended
    /// indexes are larger than every existing one, so appending them keeps
    /// each list's stable ascending order, and node priorities stay
    /// admissible under [`SearchOrder::ShortestFirst`] (new subsets only
    /// increase the elements a branch still needs). Returns the number of
    /// pending nodes that gained at least one uncovered subset.
    ///
    /// Resuming the patched token is **sound**: every emission still passes
    /// the driver's classification against the grown system. It is **not
    /// complete** relative to a from-scratch run of the grown system —
    /// branches the original run pruned (criticality or candidate-discipline
    /// prunes justified by the *old* subsets only) are not re-opened, and
    /// covers emitted *before* the patch are not revisited. Callers wanting
    /// the exact grown answer must repair the emitted prefix separately
    /// ([`crate::repair::repair_covers`], which requires the previous run to
    /// have been exhaustive) or restart.
    ///
    /// A patched token may be resumed by [`Search::exact`], or by
    /// [`Search::approx`] only at `ε = 0`, where the threshold test
    /// degenerates to "hits every subset" for any approximation function
    /// satisfying the paper's axioms, so the frontier's past pruning
    /// decisions stay valid against the grown system. For `ε > 0` the
    /// scores of already-classified nodes may shift under a delta, so
    /// [`Search::run`] refuses the token — restart instead.
    ///
    /// # Panics
    /// Panics if `appended_from > system.len()` or the token's element
    /// universe does not match `system`'s.
    pub fn patch(&mut self, system: &SetSystem, appended_from: usize) -> usize {
        assert!(
            appended_from <= system.len(),
            "patch: appended_from {appended_from} exceeds the {}-subset system",
            system.len()
        );
        self.assert_universe(
            system,
            "patch: the token was produced over a different element universe",
        );
        self.patched = true;
        if appended_from == system.len() {
            return 0;
        }
        let appended: Vec<u32> = (appended_from..system.len()).map(|i| i as u32).collect();
        // Nodes share `lists` only along skip-branch chains, which keep the
        // partial solution unchanged — so every sharer classifies the
        // appended subsets identically and the patched lists can be shared
        // again. `can_hit` carries no per-solution state at all. Caching by
        // the old Rc pointer preserves both sharing structures.
        let mut lists_cache: FxHashMap<usize, (Rc<NodeLists>, bool)> = FxHashMap::default();
        let mut can_hit_cache: FxHashMap<usize, Rc<FixedBitSet>> = FxHashMap::default();
        let mut reopened = 0usize;
        let num_subsets = system.len();

        let mut patch_node = |node: &mut SearchNode| {
            let can_hit_key = Rc::as_ptr(&node.can_hit) as usize;
            let patched_can_hit = can_hit_cache
                .entry(can_hit_key)
                .or_insert_with(|| {
                    let mut grown = FixedBitSet::new(num_subsets);
                    for fi in node.can_hit.iter() {
                        grown.insert(fi);
                    }
                    for &fi in &appended {
                        grown.insert(fi as usize);
                    }
                    Rc::new(grown)
                })
                .clone();
            node.can_hit = patched_can_hit;

            let lists_key = Rc::as_ptr(&node.lists) as usize;
            let (patched_lists, gained_uncov) = lists_cache
                .entry(lists_key)
                .or_insert_with(|| {
                    let mut extra_uncov: Vec<u32> = Vec::new();
                    let mut extra_crit: Vec<Vec<u32>> = vec![Vec::new(); node.lists.crit_regions()];
                    for &fi in &appended {
                        let subset = &system.subsets()[fi as usize];
                        match subset.intersection_count(&node.s_set) {
                            0 => extra_uncov.push(fi),
                            1 => {
                                let i = node
                                    .s
                                    .iter()
                                    .position(|&e| subset.contains(e))
                                    // conformance: allow(panic) — intersection_count == 1 guarantees exactly one such element exists
                                    .expect("intersection element must be in the solution");
                                extra_crit[i].push(fi);
                            }
                            _ => {}
                        }
                    }
                    let gained = !extra_uncov.is_empty();
                    if !gained && extra_crit.iter().all(|c| c.is_empty()) {
                        (Rc::clone(&node.lists), false)
                    } else {
                        let old = &node.lists;
                        let extra_total: usize =
                            extra_uncov.len() + extra_crit.iter().map(|c| c.len()).sum::<usize>();
                        let mut buf = Vec::with_capacity(old.buf.len() + extra_total);
                        let mut bounds = Vec::with_capacity(old.bounds.len());
                        bounds.push(0u32);
                        buf.extend_from_slice(old.region(0));
                        buf.extend_from_slice(&extra_uncov);
                        bounds.push(buf.len() as u32);
                        for (i, extra) in extra_crit.iter().enumerate() {
                            buf.extend_from_slice(old.region(i + 1));
                            buf.extend_from_slice(extra);
                            bounds.push(buf.len() as u32);
                        }
                        (
                            Rc::new(NodeLists {
                                buf: buf.into_boxed_slice(),
                                bounds: bounds.into_boxed_slice(),
                            }),
                            gained,
                        )
                    }
                })
                .clone();
            node.lists = patched_lists;
            if gained_uncov {
                reopened += 1;
            }
        };

        for (node, _, _) in &mut self.entries {
            patch_node(node);
        }
        for (node, _) in &mut self.spill {
            patch_node(node);
        }
        if let Some((node, _, _)) = &mut self.pending {
            patch_node(node);
        }
        reopened
    }

    /// Panic with `message` unless the token's nodes are over `system`'s
    /// element universe.
    fn assert_universe(&self, system: &SetSystem, message: &str) {
        let sample = self
            .entries
            .first()
            .map(|(n, _, _)| n)
            .or_else(|| self.spill.first().map(|(n, _)| n))
            .or_else(|| self.pending.as_ref().map(|(n, _, _)| n));
        if let Some(node) = sample {
            assert_eq!(node.cand.capacity(), system.num_elements(), "{message}");
        }
    }
}

/// Wall-clock deadline shared by the main loop and the expansion internals.
struct DeadlineGuard {
    start: Instant,
    limit: Duration,
}

impl DeadlineGuard {
    fn expired(&self) -> bool {
        self.start.elapsed() >= self.limit
    }
}

/// The algorithm a [`Search`] runs.
#[derive(Clone)]
enum Driver<'a> {
    Exact,
    Approx {
        score: &'a dyn Fn(&FixedBitSet) -> f64,
        config: ApproxEnumConfig<'a>,
    },
}

/// One hitting-set enumeration: which algorithm, how to walk its tree, and
/// where to start. The single entry point of the crate — build the value,
/// then [`Search::run`] it under a [`SearchBudget`].
///
/// * [`Search::exact`] enumerates the minimal hitting sets (MMCS, Figure 3
///   of the ADC paper); [`Search::approx`] the minimal *approximate* ones
///   w.r.t. a scoring function (`ADCEnum`, Figures 4–5).
/// * [`Search::with_strategy`] / [`Search::with_order`] pick the subset to
///   branch on and the frontier discipline.
/// * [`Search::with_resume`] continues a budget-cut run from its
///   [`SuspendedSearch`] token.
/// * [`Search::within`] confines the root's candidate set, so the run
///   enumerates exactly the solutions contained in the given element set.
///
/// ```
/// use adc_hitting::{Search, SearchBudget, SearchOrder, SetSystem};
///
/// let system = SetSystem::from_indices(4, &[&[0, 1], &[1, 2], &[2, 3]]);
/// let mut found = Vec::new();
/// let (outcome, token) = Search::exact()
///     .with_order(SearchOrder::ShortestFirst)
///     .run(&system, SearchBudget::unlimited(), |cover| {
///         found.push(cover.to_vec());
///         true // keep enumerating
///     });
/// assert!(outcome.is_exhaustive() && token.is_none());
/// found.sort();
/// assert_eq!(found, vec![vec![0, 2], vec![1, 2], vec![1, 3]]);
/// ```
#[derive(Clone)]
pub struct Search<'a> {
    driver: Driver<'a>,
    strategy: BranchStrategy,
    order: SearchOrder,
    resume: Option<SuspendedSearch>,
    within: Option<&'a FixedBitSet>,
}

impl<'a> Search<'a> {
    fn new(driver: Driver<'a>) -> Self {
        Search {
            driver,
            strategy: BranchStrategy::default(),
            order: SearchOrder::default(),
            resume: None,
            within: None,
        }
    }

    /// Exact minimal hitting-set enumeration: a node is terminal exactly
    /// when it hits every subset, and a subset no candidate can hit kills
    /// the branch.
    pub fn exact() -> Self {
        Search::new(Driver::Exact)
    }

    /// Approximate minimal hitting-set enumeration: emit `S` when
    /// `1 − score(S) ≤ config.epsilon` and no single-element removal stays
    /// within the threshold. `score(X)` must return `f(X) ∈ [0, 1]` and
    /// satisfy the monotonicity and indifference-to-redundancy axioms for
    /// the enumeration to be complete (see [`crate::approx`]).
    pub fn approx(score: &'a dyn Fn(&FixedBitSet) -> f64, config: ApproxEnumConfig<'a>) -> Self {
        Search::new(Driver::Approx { score, config })
    }

    /// Select the branch strategy (default: [`BranchStrategy::MaxIntersection`]).
    pub fn with_strategy(mut self, strategy: BranchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Select the frontier order (default: [`SearchOrder::Dfs`]).
    pub fn with_order(mut self, order: SearchOrder) -> Self {
        self.order = order;
        self
    }

    /// Continue the run `token` was cut from instead of starting at the
    /// root. The order and strategy come from the token; the system and the
    /// driver must be the original run's, and the traversal then continues
    /// byte-identically.
    pub fn with_resume(mut self, token: SuspendedSearch) -> Self {
        self.resume = Some(token);
        self
    }

    /// Restrict the root's candidate set to `allowed`: the run enumerates
    /// exactly the solutions **contained in** `allowed`. Restricting the
    /// root candidates is equivalent to running the unrestricted search on
    /// the system whose subsets are intersected with `allowed` — for the
    /// exact driver that means exactly the minimal hitting sets
    /// `τ ⊆ allowed` (a set `τ ⊆ allowed` hits `S` iff it hits
    /// `S ∩ allowed`, and minimality among subsets of `allowed` coincides
    /// with global minimality because every proper subset of a subset of
    /// `allowed` is itself a subset of `allowed`).
    ///
    /// This is the local-enumeration primitive behind
    /// [`crate::repair::repair_covers_removal`], where `allowed` is a removed
    /// subset's complement.
    pub fn within(mut self, allowed: &'a FixedBitSet) -> Self {
        self.within = Some(allowed);
        self
    }

    /// Run the search over `system`, invoking `callback` once per emitted
    /// solution; the callback may return `false` to stop early. `budget`
    /// applies to this run alone (each resumed slice gets its own limits).
    ///
    /// Returns the run's [`SearchOutcome`] and, when a budget or the
    /// callback cut it short, the [`SuspendedSearch`] token to resume from.
    /// The token is `Some` exactly when [`SearchOutcome::truncation`] is
    /// `Some`, with one exception: a fresh, unbudgeted depth-first run (exact
    /// or approximate) takes the in-place undo walk, which materialises no
    /// frontier, so a callback stop there yields no token. Its emissions,
    /// counters and truncation report are those of the explicit engine.
    ///
    /// # Panics
    /// Panics when the token or the root restriction is not over `system`'s
    /// element universe, when both are given (a resumed frontier already
    /// carries its restriction), when a patched token is resumed by the
    /// approximate driver at `ε > 0` (see [`SuspendedSearch::patch`]), and
    /// on an invalid [`ApproxEnumConfig`] (negative ε, or element groups of
    /// the wrong length).
    pub fn run<F>(
        self,
        system: &SetSystem,
        budget: SearchBudget,
        mut callback: F,
    ) -> (SearchOutcome, Option<SuspendedSearch>)
    where
        F: FnMut(&FixedBitSet) -> bool,
    {
        let Search {
            driver,
            strategy,
            order,
            resume,
            within,
        } = self;
        if let Some(allowed) = within {
            assert_eq!(
                allowed.capacity(),
                system.num_elements(),
                "Search::within: the restriction must be over the system's element universe"
            );
            assert!(
                resume.is_none(),
                "Search::within: a resumed frontier already carries its root restriction"
            );
        }
        let config = match &resume {
            Some(token) => {
                token.assert_universe(
                    system,
                    "Search::with_resume: the token was produced over a different set system",
                );
                SearchConfig {
                    strategy: token.strategy,
                    order: token.order,
                    budget,
                }
            }
            None => SearchConfig {
                strategy,
                order,
                budget,
            },
        };
        match driver {
            Driver::Exact => run_driver(
                system,
                &mut ExactDriver,
                &config,
                resume,
                within,
                &mut callback,
            ),
            Driver::Approx {
                score,
                config: approx,
            } => {
                assert!(
                    !resume.as_ref().is_some_and(|token| token.patched) || approx.epsilon == 0.0,
                    "Search::with_resume: a patched frontier resumes soundly only at ε = 0"
                );
                let mut driver = ApproxDriver::new(score, &approx, system);
                let (mut outcome, next) =
                    run_driver(system, &mut driver, &config, resume, within, &mut callback);
                outcome.score_evaluations = driver.score_evaluations();
                (outcome, next)
            }
        }
    }
}

/// Pick the walk for one run: a fresh, unbudgeted depth-first run needs no
/// frontier and takes the in-place walk; every other run (resumed, budgeted,
/// or shortest-first) takes the explicit-frontier engine.
fn run_driver<D, F>(
    system: &SetSystem,
    driver: &mut D,
    config: &SearchConfig,
    resume: Option<SuspendedSearch>,
    restrict: Option<&FixedBitSet>,
    callback: &mut F,
) -> (SearchOutcome, Option<SuspendedSearch>)
where
    D: SearchDriver,
    F: FnMut(&FixedBitSet) -> bool,
{
    if resume.is_none() && config.order == SearchOrder::Dfs && config.budget.is_unlimited() {
        let outcome = walk_in_place(system, driver, config.strategy, restrict, callback);
        return (outcome, None);
    }
    drive(system, driver, config, resume, restrict, callback)
}

/// The explicit-frontier engine shared by fresh and resumed runs.
/// `restrict` confines the root's candidate set (fresh runs only; a resumed
/// frontier already carries its restriction in every node's `cand`).
fn drive<D, F>(
    system: &SetSystem,
    driver: &mut D,
    config: &SearchConfig,
    resume: Option<SuspendedSearch>,
    restrict: Option<&FixedBitSet>,
    callback: &mut F,
) -> (SearchOutcome, Option<SuspendedSearch>)
where
    D: SearchDriver,
    F: FnMut(&FixedBitSet) -> bool,
{
    let guard = config.budget.deadline.map(|limit| DeadlineGuard {
        start: Instant::now(),
        limit,
    });

    let mut patched = false;
    let (mut frontier, mut pending, prior_nodes, prior_emitted, prior_contractions) = match resume {
        Some(token) => {
            let SuspendedSearch {
                entries,
                spill,
                pending,
                next_seq,
                total_nodes_expanded,
                total_emitted,
                total_contractions,
                patched: token_patched,
                ..
            } = token;
            patched = token_patched;
            let frontier = Frontier::restore(config, entries, spill, next_seq);
            let pending = pending.map(|(node, priority, spilled)| {
                (
                    node,
                    priority,
                    if spilled { Lane::Spill } else { Lane::Best },
                )
            });
            (
                frontier,
                pending,
                total_nodes_expanded,
                total_emitted,
                total_contractions,
            )
        }
        None => {
            let mut frontier = Frontier::new(config);
            let root = SearchNode::root_within(system, restrict);
            let root_priority = match config.order {
                SearchOrder::Dfs => 0,
                SearchOrder::ShortestFirst => driver.lower_bound(system, &root),
            };
            frontier.push_best(root, root_priority);
            (frontier, None, 0, 0, 0)
        }
    };

    let mut nodes_expanded: u64 = 0;
    let mut emitted: usize = 0;
    let mut stop: Option<TruncationReason> = None;
    let mut peak = frontier.len() + usize::from(pending.is_some());

    loop {
        if let Some(max) = config.budget.max_emitted {
            if emitted >= max {
                stop = Some(TruncationReason::MaxEmitted);
                break;
            }
        }
        if let Some(max) = config.budget.max_nodes {
            if nodes_expanded >= max {
                stop = Some(TruncationReason::MaxNodes);
                break;
            }
        }
        if let Some(guard) = &guard {
            if guard.expired() {
                stop = Some(TruncationReason::Deadline);
                break;
            }
        }
        let Some((mut node, priority, lane)) = pending.take().or_else(|| frontier.pop()) else {
            break;
        };
        nodes_expanded += 1;
        match driver.classify(system, node.view()) {
            NodeDisposition::Emit => {
                emitted += 1;
                if !callback(&node.s_set) {
                    stop = Some(TruncationReason::Callback);
                    break;
                }
            }
            NodeDisposition::Discard => {}
            NodeDisposition::Expand => {
                match expand(
                    system,
                    driver,
                    config,
                    &node,
                    priority,
                    lane,
                    guard.as_ref(),
                    &mut frontier,
                ) {
                    ExpandOutcome::Done => peak = peak.max(frontier.len()),
                    ExpandOutcome::DeadlineAborted => {
                        // Nothing was pushed: undo the node count and park
                        // the in-flight node so the resumed slice re-expands
                        // it from scratch, deterministically.
                        nodes_expanded -= 1;
                        pending = Some((node, priority, lane));
                        stop = Some(TruncationReason::Deadline);
                        break;
                    }
                }
            }
        }
    }

    let contractions = frontier.contractions();
    let has_pending_work = pending.is_some() || !frontier.is_empty();
    let truncation = match stop {
        Some(reason) if has_pending_work => Some(Truncation {
            reason,
            complete_below: match config.order {
                SearchOrder::Dfs => None,
                SearchOrder::ShortestFirst => {
                    let frontier_min = frontier.min_priority();
                    let pending_min = pending.as_ref().map(|(_, p, _)| *p);
                    match (frontier_min, pending_min) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (Some(a), None) => Some(a),
                        (None, b) => b,
                    }
                }
            },
        }),
        // The frontier drained on the same step the cut fired: the
        // enumeration is in fact complete, so report it as exhaustive.
        _ => None,
    };

    let suspended = truncation.map(|_| {
        let (entries, spill, next_seq) = frontier.into_parts();
        SuspendedSearch {
            order: config.order,
            strategy: config.strategy,
            patched,
            entries,
            spill,
            pending: pending.map(|(node, priority, lane)| (node, priority, lane == Lane::Spill)),
            next_seq,
            total_nodes_expanded: prior_nodes + nodes_expanded,
            total_emitted: prior_emitted + emitted,
            total_contractions: prior_contractions + contractions,
        }
    });

    (
        SearchOutcome {
            emitted,
            nodes_expanded,
            truncation,
            peak_frontier: peak,
            contractions,
            score_evaluations: 0,
        },
        suspended,
    )
}

enum ExpandOutcome {
    /// Children generated and pushed.
    Done,
    /// The deadline fired mid-expansion; nothing was pushed.
    DeadlineAborted,
}

/// Expand one interior node: pick the subset to branch on, generate the
/// optional non-hitting child and one child per admissible hitting element
/// (enforcing the criticality invariant), and push them onto the frontier —
/// the spill lane when the node came from it, the configured discipline
/// otherwise. The deadline guard is consulted periodically so a wide
/// expansion aborts (atomically — no partial children) instead of
/// overshooting the budget.
#[allow(clippy::too_many_arguments)]
fn expand<D: SearchDriver>(
    system: &SetSystem,
    driver: &mut D,
    config: &SearchConfig,
    node: &SearchNode,
    node_priority: usize,
    lane: Lane,
    guard: Option<&DeadlineGuard>,
    frontier: &mut Frontier,
) -> ExpandOutcome {
    let chosen = match choose_branch_subset(
        system,
        node.uncov(),
        &node.cand,
        Some(&node.can_hit),
        config.strategy,
        driver.unhittable_is_fatal(),
        guard,
    ) {
        Ok(Some(fi)) => fi,
        Ok(None) => return ExpandOutcome::Done,
        Err(DeadlineHit) => return ExpandOutcome::DeadlineAborted,
    };
    let subset = &system.subsets()[chosen as usize];

    // Children are generated in the order the recursive algorithms visit
    // them: the non-hitting branch first, then each hitting element in
    // ascending order. The frontier restores that order for DFS.
    let mut children: Vec<SearchNode> = Vec::new();

    if driver.wants_skip_branch() {
        // Branch that does NOT hit the chosen subset: every element of the
        // subset leaves the candidate list, and any uncovered subset left
        // without candidates is marked unhittable (`UpdateCanCover`).
        let mut skip_cand = node.cand.clone();
        skip_cand.difference_with(subset);
        let mut skip_can_hit = node.can_hit.as_ref().clone();
        for &fi in node.uncov() {
            if skip_can_hit.contains(fi as usize)
                && !system.subsets()[fi as usize].intersects(&skip_cand)
            {
                skip_can_hit.remove(fi as usize);
            }
        }
        if driver.explore_skip_branch(system, &node.s_set, &skip_cand) {
            children.push(SearchNode {
                s: node.s.clone(),
                s_set: node.s_set.clone(),
                cand: skip_cand,
                // The partial solution is unchanged, so uncov and every
                // criticality list are too: share them.
                lists: Rc::clone(&node.lists),
                can_hit: Rc::new(skip_can_hit),
            });
        }
    }

    // Hitting children. `base_cand` reproduces the sequential candidate
    // discipline of MMCS: all of `C = cand ∩ F` leaves the pool first, and an
    // element re-enters it for *later* siblings only after passing the
    // criticality test (a non-critical element can never become critical for
    // a superset of S).
    let c: Vec<usize> = node.cand.intersection(subset).to_vec();
    let mut base_cand = node.cand.clone();
    for &e in &c {
        base_cand.remove(e);
    }
    // Scratch buffers reused across children; the surviving child copies
    // them into one exact-size interned buffer.
    let mut crit_scratch: Vec<u32> = Vec::new();
    let mut crit_bounds: Vec<u32> = Vec::new();
    let mut kept: Vec<u32> = Vec::new();
    let mut covered: Vec<u32> = Vec::new();
    'next_element: for &e in &c {
        if let Some(guard) = guard {
            if guard.expired() {
                return ExpandOutcome::DeadlineAborted;
            }
        }
        crit_scratch.clear();
        crit_bounds.clear();
        for i in 0..node.lists.crit_regions() {
            crit_bounds.push(crit_scratch.len() as u32);
            let before = crit_scratch.len();
            crit_scratch.extend(
                node.crit(i)
                    .iter()
                    .copied()
                    .filter(|&fi| !system.subsets()[fi as usize].contains(e)),
            );
            if crit_scratch.len() == before {
                // Some current element would stop being critical: no minimal
                // solution extends S ∪ {e}. The element does not return to
                // `base_cand` either.
                continue 'next_element;
            }
        }
        crit_bounds.push(crit_scratch.len() as u32);
        kept.clear();
        covered.clear();
        for &fi in node.uncov() {
            if system.subsets()[fi as usize].contains(e) {
                covered.push(fi);
            } else {
                kept.push(fi);
            }
        }

        // Assemble the child's interned lists: [kept][crit…][covered].
        let total = kept.len() + crit_scratch.len() + covered.len();
        let mut buf = Vec::with_capacity(total);
        buf.extend_from_slice(&kept);
        buf.extend_from_slice(&crit_scratch);
        buf.extend_from_slice(&covered);
        let mut bounds = Vec::with_capacity(crit_bounds.len() + 2);
        bounds.push(0u32);
        let crit_base = kept.len() as u32;
        for &b in &crit_bounds {
            bounds.push(crit_base + b);
        }
        bounds.push(total as u32);
        let lists = Rc::new(NodeLists {
            buf: buf.into_boxed_slice(),
            bounds: bounds.into_boxed_slice(),
        });

        let mut cand = base_cand.clone();
        // RemoveRedundantPreds: same-group elements leave the candidate list
        // for this branch only.
        for &other in driver.group_mates(e) {
            if other != e {
                cand.remove(other);
            }
        }
        let mut s = node.s.clone();
        s.push(e);
        let mut s_set = node.s_set.clone();
        s_set.insert(e);
        children.push(SearchNode {
            s,
            s_set,
            cand,
            lists,
            can_hit: Rc::clone(&node.can_hit),
        });
        base_cand.insert(e);
    }

    let scored: Vec<(SearchNode, usize)> = children
        .into_iter()
        .map(|child| {
            let priority = match config.order {
                SearchOrder::Dfs => 0,
                // Clamping to the parent's priority keeps the key monotone
                // along every path even if a driver's bound weakens as the
                // candidate pool shrinks — the best-first invariant needs
                // child keys ≥ parent keys.
                SearchOrder::ShortestFirst => {
                    node_priority.max(child.s.len() + driver.lower_bound(system, &child))
                }
            };
            (child, priority)
        })
        .collect();
    frontier.extend(scored, lane);
    ExpandOutcome::Done
}

/// Marker error: the deadline fired inside a wide loop.
struct DeadlineHit;

/// Select the next uncovered subset to branch on.
///
/// Shared by every driver; `strategy` picks among the still-hittable
/// uncovered subsets (iterated in the node's stable order):
///
/// * `MaxIntersection` / `MinIntersection` — extremal `|F ∩ cand|`;
/// * `First` — the first subset considered. When an unhittable subset is
///   fatal (exact enumeration) the scan still continues past the chosen
///   subset, because a later subset with an empty candidate intersection
///   proves the whole branch hopeless; otherwise the scan stops at the first
///   subset, since nothing later can change the choice.
///
/// Subsets outside `can_hit` (the ones the approximate skip branch marked
/// unhittable) are passed over; `None` means every subset is still live,
/// as it always is for the exact driver.
///
/// Returns `Ok(None)` when there is nothing to branch on: either some subset
/// is unhittable and that is fatal, or (non-fatal mode) every uncovered
/// subset has already been marked unhittable. Returns `Err(DeadlineHit)`
/// when the guard expires mid-scan (checked every 128 subsets, so a huge
/// selection loop cannot overshoot the deadline unboundedly).
fn choose_branch_subset(
    system: &SetSystem,
    uncov: &[u32],
    cand: &FixedBitSet,
    can_hit: Option<&FixedBitSet>,
    strategy: BranchStrategy,
    unhittable_is_fatal: bool,
    guard: Option<&DeadlineGuard>,
) -> Result<Option<u32>, DeadlineHit> {
    let mut best: Option<(u32, usize)> = None;
    for (step, &fi) in uncov.iter().enumerate() {
        if step % 128 == 127 {
            if let Some(guard) = guard {
                if guard.expired() {
                    return Err(DeadlineHit);
                }
            }
        }
        if can_hit.is_some_and(|live| !live.contains(fi as usize)) {
            continue;
        }
        let inter = system.subsets()[fi as usize].intersection_count(cand);
        if inter == 0 && unhittable_is_fatal {
            return Ok(None);
        }
        best = match (best, strategy) {
            (None, _) => Some((fi, inter)),
            (Some((_, b)), BranchStrategy::MaxIntersection) if inter > b => Some((fi, inter)),
            (Some((_, b)), BranchStrategy::MinIntersection) if inter < b => Some((fi, inter)),
            // `First` (and losing Max/Min comparisons) keep the incumbent.
            (prev, _) => prev,
        };
        if strategy == BranchStrategy::First && !unhittable_is_fatal {
            break;
        }
    }
    Ok(best.map(|(fi, _)| fi))
}

/// Admissible lower bound on the elements any cover below a node must still
/// add: the size of a greedily-built family of pairwise-disjoint uncovered
/// subsets (restricted to candidate elements). Each member of a disjoint
/// family needs its own element, and one element can hit at most one member,
/// so the bound never overestimates and decreases by at most 1 per added
/// element — exactly what best-first ordering requires.
pub(crate) fn greedy_disjoint_lower_bound(
    system: &SetSystem,
    uncov: &[u32],
    cand: &FixedBitSet,
) -> usize {
    let mut used = FixedBitSet::new(system.num_elements());
    let mut bound = 0;
    for &fi in uncov {
        let reachable = system.subsets()[fi as usize].intersection(cand);
        // A subset with no remaining candidates is a dead branch, not an
        // element demand; expansion prunes it.
        if reachable.is_empty() || reachable.intersects(&used) {
            continue;
        }
        used.union_with(&reachable);
        bound += 1;
    }
    bound
}

// ---------------------------------------------------------------------------
// In-place undo walk (fresh, unbudgeted DFS)
// ---------------------------------------------------------------------------

/// The state of the in-place walk: one node's bookkeeping, mutated on the
/// way down and restored on the way back up, plus the run's counters.
///
/// The `uncov` and `crit[i]` lists of every node on the current path live in
/// one `u32` arena: a hitting child pushes its filtered lists and truncates
/// them on return, and a skip child reuses its parent's lists unchanged.
/// Every other change (`cand`, `can_hit`, group suppression) is recorded on
/// an undo stack, so once the buffers have grown to the deepest path no
/// node allocates.
struct Walk<'a, D, F> {
    system: &'a SetSystem,
    driver: &'a mut D,
    callback: &'a mut F,
    strategy: BranchStrategy,
    /// The driver takes the non-hitting branch (and so thins `can_hit`).
    skip_branch: bool,
    unhittable_is_fatal: bool,
    s: Vec<usize>,
    s_set: FixedBitSet,
    cand: FixedBitSet,
    /// Subsets still reachable by some candidate; only thinned, and only
    /// consulted, when `skip_branch` is set (empty otherwise).
    can_hit: FixedBitSet,
    arena: Vec<u32>,
    /// `(start, end)` of each list in `arena`. A node's lists are the
    /// `|S| + 1` entries from its base index: `uncov`, then `crit[i]`.
    regions: Vec<(u32, u32)>,
    /// `cand ∩ F` of every node on the path, in ascending order: the
    /// elements its hitting children add.
    branch: Vec<usize>,
    /// Undo log: `can_hit` bits cleared for a skip child, or elements a
    /// group suppressed for a hitting child.
    undo: Vec<usize>,
    /// Subsets a hitting child covers, gathered while its kept `uncov` is
    /// written to the arena.
    covered: Vec<u32>,
    nodes_expanded: u64,
    emitted: usize,
    stopped: bool,
    /// Whether, at stop time, the explicit engine's frontier would still
    /// hold a node: some not-yet-visited sibling on the path survives the
    /// criticality check (pruned siblings are never materialised).
    unexplored: bool,
    peak_depth: usize,
}

/// The in-place fast path for fresh, unbudgeted DFS runs of any driver:
/// the explicit engine's tree, visited in the same order with the same
/// prunes and the same driver calls, but without a `SearchNode` snapshot per
/// child. The same emissions, node count and score evaluations come out, and
/// a callback stop reports the same truncation (without a resume token).
/// The walk recurses once per tree level; every child drops at least one
/// candidate element (a hitting child its own element, a skip child
/// `cand ∩ F`) or, when `cand ∩ F` is empty, the live subset `F`, so the
/// depth stays below elements + subsets + 1.
fn walk_in_place<D, F>(
    system: &SetSystem,
    driver: &mut D,
    strategy: BranchStrategy,
    restrict: Option<&FixedBitSet>,
    callback: &mut F,
) -> SearchOutcome
where
    D: SearchDriver,
    F: FnMut(&FixedBitSet) -> bool,
{
    let m = system.num_elements();
    let skip_branch = driver.wants_skip_branch();
    let mut walk = Walk {
        system,
        skip_branch,
        unhittable_is_fatal: driver.unhittable_is_fatal(),
        driver,
        callback,
        strategy,
        s: Vec::new(),
        s_set: FixedBitSet::new(m),
        cand: restrict.cloned().unwrap_or_else(|| FixedBitSet::full(m)),
        can_hit: FixedBitSet::full(if skip_branch { system.len() } else { 0 }),
        arena: (0..system.len() as u32).collect(),
        regions: vec![(0, system.len() as u32)],
        branch: Vec::new(),
        undo: Vec::new(),
        covered: Vec::new(),
        nodes_expanded: 0,
        emitted: 0,
        stopped: false,
        unexplored: false,
        peak_depth: 0,
    };
    walk.visit(0, 1);
    SearchOutcome {
        emitted: walk.emitted,
        nodes_expanded: walk.nodes_expanded,
        truncation: (walk.stopped && walk.unexplored).then_some(Truncation {
            reason: TruncationReason::Callback,
            complete_below: None,
        }),
        peak_frontier: walk.peak_depth,
        contractions: 0,
        score_evaluations: 0,
    }
}

impl<D, F> Walk<'_, D, F>
where
    D: SearchDriver,
    F: FnMut(&FixedBitSet) -> bool,
{
    fn list(&self, region: usize) -> &[u32] {
        let (start, end) = self.regions[region];
        &self.arena[start as usize..end as usize]
    }

    /// Visit the node whose lists start at `regions[base]`: classify it,
    /// then expand it as [`expand`] does — skip child first, then one
    /// hitting child per element of `cand ∩ F` in ascending order.
    fn visit(&mut self, base: usize, depth: usize) {
        self.nodes_expanded += 1;
        self.peak_depth = self.peak_depth.max(depth);
        let (start, end) = self.regions[base];
        let view = NodeView {
            elements: &self.s,
            solution: &mut self.s_set,
            uncov: &self.arena[start as usize..end as usize],
        };
        match self.driver.classify(self.system, view) {
            NodeDisposition::Emit => {
                self.emitted += 1;
                self.stopped = !(self.callback)(&self.s_set);
                return;
            }
            NodeDisposition::Discard => return,
            NodeDisposition::Expand => {}
        }
        let live = self.skip_branch.then_some(&self.can_hit);
        let chosen = match choose_branch_subset(
            self.system,
            self.list(base),
            &self.cand,
            live,
            self.strategy,
            self.unhittable_is_fatal,
            None,
        ) {
            Ok(Some(fi)) => fi,
            _ => return,
        };
        let subset = &self.system.subsets()[chosen as usize];

        // `cand ∩ F` leaves the pool: what remains is both the skip child's
        // `cand − F` and the hitting children's `base_cand`.
        let branch_start = self.branch.len();
        for e in subset.iter() {
            if self.cand.contains(e) {
                self.cand.remove(e);
                self.branch.push(e);
            }
        }
        let branch_end = self.branch.len();

        if self.skip_branch {
            self.visit_skip_child(base, depth);
        }
        for idx in branch_start..branch_end {
            if self.stopped {
                if !self.unexplored {
                    self.unexplored = self.branch[idx..branch_end]
                        .iter()
                        .any(|&e| self.survives_criticality(base, e));
                }
                break;
            }
            let e = self.branch[idx];
            // The element re-enters the pool for later siblings only if it
            // passed the criticality test (`base_cand`).
            if self.visit_hitting_child(base, e, depth) {
                self.cand.insert(e);
            }
        }
        for &e in &self.branch[branch_start..branch_end] {
            self.cand.insert(e);
        }
        self.branch.truncate(branch_start);
    }

    /// The branch that does not hit the chosen subset: `cand` is already
    /// `cand − F`; every uncovered subset left without candidates leaves
    /// `can_hit` (`UpdateCanCover`) until the child returns.
    fn visit_skip_child(&mut self, base: usize, depth: usize) {
        let mark = self.undo.len();
        let (start, end) = self.regions[base];
        for &fi in &self.arena[start as usize..end as usize] {
            if self.can_hit.contains(fi as usize)
                && !self.system.subsets()[fi as usize].intersects(&self.cand)
            {
                self.can_hit.remove(fi as usize);
                self.undo.push(fi as usize);
            }
        }
        if self
            .driver
            .explore_skip_branch(self.system, &self.s_set, &self.cand)
        {
            // The partial solution is unchanged, so are its lists.
            self.visit(base, depth + 1);
        }
        for &fi in &self.undo[mark..] {
            self.can_hit.insert(fi);
        }
        self.undo.truncate(mark);
    }

    /// The child `S ∪ {e}`, unless some element of `S` would stop being
    /// critical; returns whether it was visited. Its lists go to the arena
    /// in the order `crit[0..|S|]` (checked first, so a pruned child writes
    /// little), kept `uncov`, and the covered subsets as the new `crit[|S|]`.
    fn visit_hitting_child(&mut self, base: usize, e: usize, depth: usize) -> bool {
        let subsets = self.system.subsets();
        let arena_mark = self.arena.len();
        let child = self.regions.len();
        self.regions.push((0, 0));
        for i in 0..self.s.len() {
            let (start, end) = self.regions[base + 1 + i];
            let from = self.arena.len();
            for j in start as usize..end as usize {
                let fi = self.arena[j];
                if !subsets[fi as usize].contains(e) {
                    self.arena.push(fi);
                }
            }
            if self.arena.len() == from {
                self.arena.truncate(arena_mark);
                self.regions.truncate(child);
                return false;
            }
            self.regions.push((from as u32, self.arena.len() as u32));
        }
        let (start, end) = self.regions[base];
        let kept_from = self.arena.len();
        self.covered.clear();
        for j in start as usize..end as usize {
            let fi = self.arena[j];
            if subsets[fi as usize].contains(e) {
                self.covered.push(fi);
            } else {
                self.arena.push(fi);
            }
        }
        self.regions[child] = (kept_from as u32, self.arena.len() as u32);
        let covered_from = self.arena.len();
        self.arena.extend_from_slice(&self.covered);
        self.regions
            .push((covered_from as u32, self.arena.len() as u32));

        // RemoveRedundantPreds: same-group elements leave the candidate list
        // for this branch only.
        let mark = self.undo.len();
        for &other in self.driver.group_mates(e) {
            if other != e && self.cand.contains(other) {
                self.cand.remove(other);
                self.undo.push(other);
            }
        }
        self.s.push(e);
        self.s_set.insert(e);
        self.visit(child, depth + 1);
        self.s.pop();
        self.s_set.remove(e);
        for &other in &self.undo[mark..] {
            self.cand.insert(other);
        }
        self.undo.truncate(mark);
        self.arena.truncate(arena_mark);
        self.regions.truncate(child);
        true
    }

    /// Whether `S ∪ {e}` keeps every element of `S` critical, for the node
    /// whose lists start at `regions[base]`.
    fn survives_criticality(&self, base: usize, e: usize) -> bool {
        (0..self.s.len()).all(|i| {
            self.list(base + 1 + i)
                .iter()
                .any(|&fi| !self.system.subsets()[fi as usize].contains(e))
        })
    }
}

// ---------------------------------------------------------------------------
// Frontier
// ---------------------------------------------------------------------------

/// A best-lane frontier entry in suspended form: node, priority key, and
/// (shortest-first only) the heap insertion sequence number.
type FrontierEntry = (SearchNode, usize, u64);
/// A spill-lane entry: node plus its (still admissible) priority key.
type SpillEntry = (SearchNode, usize);

/// Heap entry for the best-first frontier: ordered by `(priority, seq)`, so
/// ties pop in insertion order and the traversal is deterministic.
struct HeapEntry {
    priority: usize,
    seq: u64,
    node: SearchNode,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.priority, self.seq).cmp(&(other.priority, other.seq))
    }
}

/// The frontier disciplines behind one push/pop interface.
enum Frontier {
    /// LIFO stack (priorities are carried but ignored).
    Dfs(Vec<(SearchNode, usize)>),
    /// Min-heap on `(priority, insertion seq)` plus the memory-bound DFS
    /// spill lane, which is drained (LIFO) before the heap is popped.
    Shortest {
        heap: BinaryHeap<Reverse<HeapEntry>>,
        spill: Vec<(SearchNode, usize)>,
        next_seq: u64,
        cap: Option<usize>,
        contractions: u64,
    },
}

impl Frontier {
    fn new(config: &SearchConfig) -> Self {
        match config.order {
            SearchOrder::Dfs => Frontier::Dfs(Vec::new()),
            SearchOrder::ShortestFirst => Frontier::Shortest {
                heap: BinaryHeap::new(),
                spill: Vec::new(),
                next_seq: 0,
                cap: config.budget.max_frontier_nodes,
                contractions: 0,
            },
        }
    }

    /// Rebuild a frontier from a suspended run's parts. The memory cap comes
    /// from the *resuming* config; keep it identical across slices for the
    /// cut-and-resume determinism guarantee to hold.
    fn restore(
        config: &SearchConfig,
        entries: Vec<FrontierEntry>,
        spill: Vec<SpillEntry>,
        next_seq: u64,
    ) -> Self {
        match config.order {
            SearchOrder::Dfs => {
                Frontier::Dfs(entries.into_iter().map(|(n, p, _)| (n, p)).collect())
            }
            SearchOrder::ShortestFirst => {
                let heap = entries
                    .into_iter()
                    .map(|(node, priority, seq)| {
                        Reverse(HeapEntry {
                            priority,
                            seq,
                            node,
                        })
                    })
                    .collect();
                Frontier::Shortest {
                    heap,
                    spill,
                    next_seq,
                    cap: config.budget.max_frontier_nodes,
                    contractions: 0,
                }
            }
        }
    }

    /// Push a single node on the best lane (used for the root).
    fn push_best(&mut self, node: SearchNode, priority: usize) {
        match self {
            Frontier::Dfs(stack) => stack.push((node, priority)),
            Frontier::Shortest { heap, next_seq, .. } => {
                heap.push(Reverse(HeapEntry {
                    priority,
                    seq: *next_seq,
                    node,
                }));
                *next_seq += 1;
            }
        }
    }

    /// Add a sibling group in its natural processing order: DFS lanes get
    /// them reversed (so the first sibling pops first), the heap in order
    /// (so equal-priority siblings pop FIFO). Children of spill-lane nodes
    /// stay on the spill lane — their subtrees are expanded depth-first in
    /// place, which is what keeps memory bounded after a contraction.
    fn extend(&mut self, scored: Vec<(SearchNode, usize)>, lane: Lane) {
        match self {
            Frontier::Dfs(stack) => stack.extend(scored.into_iter().rev()),
            Frontier::Shortest { spill, .. } if lane == Lane::Spill => {
                spill.extend(scored.into_iter().rev());
            }
            Frontier::Shortest { .. } => {
                for (node, priority) in scored {
                    self.push_best(node, priority);
                }
                self.contract_if_needed();
            }
        }
    }

    /// Memory-bound contraction: when the heap outgrows the cap, keep the
    /// best half and spill the deepest tail to the DFS lane (smallest key on
    /// top, so the least-bad spilled subtree is expanded first). Halving —
    /// rather than trimming to the cap — amortises the `O(n log n)` drain
    /// over many pushes.
    fn contract_if_needed(&mut self) {
        let Frontier::Shortest {
            heap,
            spill,
            cap: Some(cap),
            contractions,
            ..
        } = self
        else {
            return;
        };
        if heap.len() <= *cap {
            return;
        }
        let keep = (*cap / 2).max(1);
        let mut entries: Vec<HeapEntry> = std::mem::take(heap)
            .into_iter()
            .map(|Reverse(e)| e)
            .collect();
        entries.sort_unstable_by_key(|entry| (entry.priority, entry.seq));
        let tail = entries.split_off(keep);
        *heap = entries.into_iter().map(Reverse).collect();
        // Deepest first onto the LIFO lane, so the shallowest spilled node
        // is processed first.
        spill.extend(tail.into_iter().rev().map(|e| (e.node, e.priority)));
        *contractions += 1;
    }

    fn pop(&mut self) -> Option<(SearchNode, usize, Lane)> {
        match self {
            Frontier::Dfs(stack) => stack.pop().map(|(n, p)| (n, p, Lane::Best)),
            Frontier::Shortest { heap, spill, .. } => {
                if let Some((node, priority)) = spill.pop() {
                    return Some((node, priority, Lane::Spill));
                }
                heap.pop()
                    .map(|Reverse(entry)| (entry.node, entry.priority, Lane::Best))
            }
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn len(&self) -> usize {
        match self {
            Frontier::Dfs(stack) => stack.len(),
            Frontier::Shortest { heap, spill, .. } => heap.len() + spill.len(),
        }
    }

    fn contractions(&self) -> u64 {
        match self {
            Frontier::Dfs(_) => 0,
            Frontier::Shortest { contractions, .. } => *contractions,
        }
    }

    /// Smallest priority still pending — only meaningful for the best-first
    /// frontier, where it bounds the size of every not-yet-emitted cover
    /// (the spill lane is included: its keys are admissible too).
    fn min_priority(&self) -> Option<usize> {
        match self {
            Frontier::Dfs(_) => None,
            Frontier::Shortest { heap, spill, .. } => {
                let heap_min = heap.peek().map(|Reverse(entry)| entry.priority);
                let spill_min = spill.iter().map(|(_, p)| *p).min();
                match (heap_min, spill_min) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, None) => a,
                    (None, b) => b,
                }
            }
        }
    }

    /// Decompose into suspendable parts: best-lane entries (heap sorted by
    /// key for a deterministic stored form; DFS stack bottom→top), the spill
    /// lane, and the sequence counter.
    fn into_parts(self) -> (Vec<FrontierEntry>, Vec<SpillEntry>, u64) {
        match self {
            Frontier::Dfs(stack) => (
                stack.into_iter().map(|(n, p)| (n, p, 0)).collect(),
                Vec::new(),
                0,
            ),
            Frontier::Shortest {
                heap,
                spill,
                next_seq,
                ..
            } => {
                let mut entries: Vec<FrontierEntry> = heap
                    .into_iter()
                    .map(|Reverse(e)| (e.node, e.priority, e.seq))
                    .collect();
                entries.sort_unstable_by_key(|&(_, priority, seq)| (priority, seq));
                (entries, spill, next_seq)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(m: usize) -> FixedBitSet {
        FixedBitSet::full(m)
    }

    fn choose(
        system: &SetSystem,
        uncov: &[u32],
        cand: &FixedBitSet,
        can_hit: &FixedBitSet,
        strategy: BranchStrategy,
        fatal: bool,
    ) -> Option<u32> {
        choose_branch_subset(system, uncov, cand, Some(can_hit), strategy, fatal, None)
            .ok()
            .unwrap()
    }

    fn collect_resumable(
        system: &SetSystem,
        config: &SearchConfig,
    ) -> (Vec<Vec<usize>>, SearchOutcome, Option<SuspendedSearch>) {
        let mut out = Vec::new();
        let (outcome, suspended) = Search::exact()
            .with_strategy(config.strategy)
            .with_order(config.order)
            .run(system, config.budget, |s| {
                out.push(s.to_vec());
                true
            });
        (out, outcome, suspended)
    }

    #[test]
    fn first_strategy_picks_the_first_uncovered_subset() {
        // Pin the `BranchStrategy::First` semantics that the old MMCS
        // implementation obscured behind a shadowed match arm: the *first*
        // subset in `uncov` order wins regardless of intersection sizes.
        let sys = SetSystem::from_indices(5, &[&[0, 1, 2, 3], &[4], &[0, 4]]);
        let cand = full(5);
        let can_hit = full(3);
        let chosen = choose(
            &sys,
            &[0, 1, 2],
            &cand,
            &can_hit,
            BranchStrategy::First,
            true,
        );
        assert_eq!(chosen, Some(0));
        // A different uncov order changes the choice: First is order-driven.
        let chosen = choose(
            &sys,
            &[2, 1, 0],
            &cand,
            &can_hit,
            BranchStrategy::First,
            true,
        );
        assert_eq!(chosen, Some(2));
    }

    #[test]
    fn first_strategy_still_detects_fatal_unhittable_subsets() {
        // Exact enumeration must keep scanning past the chosen subset: an
        // unhittable subset later in the list kills the branch.
        let sys = SetSystem::from_indices(3, &[&[0, 1], &[2]]);
        let mut cand = full(3);
        cand.remove(2); // subset {2} can no longer be hit
        let chosen = choose(&sys, &[0, 1], &cand, &full(2), BranchStrategy::First, true);
        assert_eq!(chosen, None, "fatal unhittable subset must kill the branch");
    }

    #[test]
    fn first_strategy_non_fatal_stops_at_the_first_selectable_subset() {
        // Approximate enumeration: unhittable subsets are skipped via
        // `can_hit`, and the scan stops at the first live subset.
        let sys = SetSystem::from_indices(3, &[&[0], &[1], &[2]]);
        let mut can_hit = full(3);
        can_hit.remove(0);
        let chosen = choose(
            &sys,
            &[0, 1, 2],
            &full(3),
            &can_hit,
            BranchStrategy::First,
            false,
        );
        assert_eq!(chosen, Some(1), "first *live* subset wins");
    }

    #[test]
    fn non_fatal_mode_accepts_subsets_with_empty_intersection() {
        // The approximate enumerator may select a subset no candidate hits —
        // its skip branch then marks the subset unhittable. Preserved here.
        let sys = SetSystem::from_indices(2, &[&[0]]);
        let cand = FixedBitSet::new(2); // nothing left
        let chosen = choose(
            &sys,
            &[0],
            &cand,
            &full(1),
            BranchStrategy::MaxIntersection,
            false,
        );
        assert_eq!(chosen, Some(0));
    }

    #[test]
    fn max_and_min_strategies_pick_extremal_intersections() {
        let sys = SetSystem::from_indices(4, &[&[0], &[0, 1, 2], &[2, 3]]);
        let cand = full(4);
        let can_hit = full(3);
        let max = choose(
            &sys,
            &[0, 1, 2],
            &cand,
            &can_hit,
            BranchStrategy::MaxIntersection,
            true,
        );
        assert_eq!(max, Some(1));
        let min = choose(
            &sys,
            &[0, 1, 2],
            &cand,
            &can_hit,
            BranchStrategy::MinIntersection,
            true,
        );
        assert_eq!(min, Some(0));
    }

    #[test]
    fn disjoint_lower_bound_counts_a_disjoint_family() {
        let sys = SetSystem::from_indices(6, &[&[0, 1], &[1, 2], &[3], &[4, 5]]);
        let uncov: Vec<u32> = (0..4).collect();
        // {0,1}, {3}, {4,5} are pairwise disjoint; {1,2} overlaps the first.
        assert_eq!(greedy_disjoint_lower_bound(&sys, &uncov, &full(6)), 3);
        // Restricting candidates merges demands: without element 1 the first
        // two subsets reduce to {0} and {2}, still disjoint — bound 4.
        let mut cand = full(6);
        cand.remove(1);
        assert_eq!(greedy_disjoint_lower_bound(&sys, &uncov, &cand), 4);
        // A subset with no remaining candidates contributes nothing.
        let mut cand = full(6);
        cand.remove(3);
        assert_eq!(greedy_disjoint_lower_bound(&sys, &uncov, &cand), 2);
    }

    #[test]
    fn budget_default_is_unlimited() {
        let budget = SearchBudget::default();
        assert!(budget.is_unlimited());
        let budget = budget
            .with_max_nodes(10)
            .with_deadline(Duration::from_secs(1))
            .with_max_emitted(5)
            .with_max_frontier_nodes(1000);
        assert!(!budget.is_unlimited());
        assert_eq!(budget.max_nodes, Some(10));
        assert_eq!(budget.max_emitted, Some(5));
        assert_eq!(budget.max_frontier_nodes, Some(1000));
        assert!(!SearchBudget::unlimited()
            .with_max_frontier_nodes(7)
            .is_unlimited());
    }

    #[test]
    fn dfs_truncation_reports_no_complete_below() {
        // Under DFS the frontier priorities are all zero — not an admissible
        // completeness bound — so a truncated DFS run must never claim a
        // "provably complete below k" size.
        let sys = SetSystem::from_indices(8, &[&[0, 1], &[2, 3], &[4, 5], &[6, 7]]);
        let config = SearchConfig {
            strategy: BranchStrategy::default(),
            order: SearchOrder::Dfs,
            budget: SearchBudget::unlimited().with_max_nodes(3),
        };
        let (_, outcome, suspended) = collect_resumable(&sys, &config);
        let truncation = outcome.truncation.expect("run must be truncated");
        assert_eq!(truncation.reason, TruncationReason::MaxNodes);
        assert_eq!(
            truncation.complete_below, None,
            "DFS must not report a completeness bound"
        );
        assert!(suspended.is_some(), "budget cut must yield a resume token");
    }

    #[test]
    fn mid_expansion_deadline_aborts_atomically() {
        // A deadline that is already expired when `expand` runs must abort
        // the expansion before pushing any child — the in-flight node is
        // parked and re-expanded on resume, so no child is lost or doubled.
        let indices: Vec<usize> = (0..512).collect();
        let sys = SetSystem::from_indices(512, &[&indices]);
        let node = SearchNode::root_within(&sys, None);
        let config = SearchConfig {
            strategy: BranchStrategy::default(),
            order: SearchOrder::ShortestFirst,
            budget: SearchBudget::unlimited().with_deadline(Duration::ZERO),
        };
        let mut frontier = Frontier::new(&config);
        let guard = DeadlineGuard {
            start: Instant::now(),
            limit: Duration::ZERO,
        };
        let outcome = expand(
            &sys,
            &mut ExactDriver,
            &config,
            &node,
            0,
            Lane::Best,
            Some(&guard),
            &mut frontier,
        );
        assert!(matches!(outcome, ExpandOutcome::DeadlineAborted));
        assert!(frontier.is_empty(), "no partial children may be pushed");
    }

    #[test]
    fn wide_expansion_deadline_overshoot_is_bounded_and_resumable() {
        // One subset with 3000 elements: a single expansion generates 3000
        // children. A tiny deadline must cut the run (at the loop top or
        // mid-expansion) well before the full expansion would complete, and
        // resuming to completion must emit exactly the uncapped sequence.
        let indices: Vec<usize> = (0..3000).collect();
        let sys = SetSystem::from_indices(3000, &[&indices]);
        let config = SearchConfig {
            strategy: BranchStrategy::default(),
            order: SearchOrder::ShortestFirst,
            budget: SearchBudget::unlimited(),
        };
        let (uncapped, outcome, _) = collect_resumable(&sys, &config);
        assert!(outcome.is_exhaustive());
        assert_eq!(uncapped.len(), 3000);

        let cut_config = SearchConfig {
            budget: SearchBudget::unlimited().with_deadline(Duration::from_nanos(1)),
            ..config
        };
        let clock = Instant::now();
        let (mut covers, outcome, mut suspended) = collect_resumable(&sys, &cut_config);
        assert!(
            clock.elapsed() < Duration::from_secs(2),
            "deadline overshoot must stay bounded"
        );
        assert_eq!(
            outcome.truncation.map(|t| t.reason),
            Some(TruncationReason::Deadline)
        );
        let mut guard_iters = 0;
        while let Some(token) = suspended.take() {
            guard_iters += 1;
            assert!(guard_iters < 10, "resume failed to make progress");
            let (_, next) = Search::exact()
                .with_resume(token)
                .run(&sys, config.budget, |s| {
                    covers.push(s.to_vec());
                    true
                });
            suspended = next;
        }
        assert_eq!(covers, uncapped, "cut + resume must replay the sequence");
    }

    #[test]
    fn memory_bound_contracts_and_preserves_the_answer_set() {
        // 8 disjoint pairs: 2^8 = 256 covers; the unbounded shortest-first
        // frontier grows into the hundreds. With a 16-node cap the frontier
        // must stay within cap + spilled half + transient DFS depth, the
        // run must report contractions, and the emitted family must be
        // unchanged (only its order may degrade).
        let pairs: Vec<Vec<usize>> = (0..8).map(|i| vec![2 * i, 2 * i + 1]).collect();
        let refs: Vec<&[usize]> = pairs.iter().map(|p| p.as_slice()).collect();
        let sys = SetSystem::from_indices(16, &refs);
        let config = SearchConfig {
            strategy: BranchStrategy::default(),
            order: SearchOrder::ShortestFirst,
            budget: SearchBudget::unlimited(),
        };
        let (unbounded, outcome, _) = collect_resumable(&sys, &config);
        assert_eq!(unbounded.len(), 256);
        assert!(outcome.contractions == 0);
        assert!(
            outcome.peak_frontier > 48,
            "test instance too small to exercise the bound (peak {})",
            outcome.peak_frontier
        );

        let cap = 16;
        let bounded_config = SearchConfig {
            budget: SearchBudget::unlimited().with_max_frontier_nodes(cap),
            ..config
        };
        let (bounded, outcome, suspended) = collect_resumable(&sys, &bounded_config);
        assert!(suspended.is_none());
        assert!(outcome.is_exhaustive());
        assert!(outcome.contractions > 0, "the cap must have fired");
        assert!(
            outcome.peak_frontier <= 3 * cap,
            "peak frontier {} exceeds the documented bound for cap {cap}",
            outcome.peak_frontier
        );
        let canon = |mut v: Vec<Vec<usize>>| {
            v.sort();
            v
        };
        assert_eq!(canon(bounded), canon(unbounded));
    }

    #[test]
    fn memory_bounded_run_is_still_resumable_deterministically() {
        let pairs: Vec<Vec<usize>> = (0..7).map(|i| vec![2 * i, 2 * i + 1]).collect();
        let refs: Vec<&[usize]> = pairs.iter().map(|p| p.as_slice()).collect();
        let sys = SetSystem::from_indices(14, &refs);
        let config = SearchConfig {
            strategy: BranchStrategy::default(),
            order: SearchOrder::ShortestFirst,
            budget: SearchBudget::unlimited().with_max_frontier_nodes(8),
        };
        let (reference, outcome, _) = collect_resumable(&sys, &config);
        assert!(outcome.is_exhaustive());

        let slice_config = SearchConfig {
            budget: config.budget.with_max_nodes(13),
            ..config
        };
        let (mut covers, _, mut suspended) = collect_resumable(&sys, &slice_config);
        let mut slices = 1;
        while let Some(token) = suspended.take() {
            slices += 1;
            assert!(slices < 10_000, "runaway resume loop");
            assert_eq!(token.total_emitted(), covers.len());
            let (_, next) =
                Search::exact()
                    .with_resume(token)
                    .run(&sys, slice_config.budget, |s| {
                        covers.push(s.to_vec());
                        true
                    });
            suspended = next;
        }
        assert!(slices > 2, "the slice budget never fired");
        assert_eq!(
            covers, reference,
            "sliced memory-bounded run must replay the single-run sequence"
        );
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        // A resumed run takes its order and strategy from the token, so a
        // search value configured differently still replays the suspended
        // traversal; a token from another element universe is rejected.
        let sys = SetSystem::from_indices(4, &[&[0, 1], &[2, 3]]);
        let config = SearchConfig {
            strategy: BranchStrategy::default(),
            order: SearchOrder::ShortestFirst,
            budget: SearchBudget::unlimited().with_max_nodes(1),
        };
        let (reference, _, _) = collect_resumable(
            &sys,
            &SearchConfig {
                budget: SearchBudget::unlimited(),
                ..config
            },
        );
        let (mut covers, _, suspended) = collect_resumable(&sys, &config);
        let token = suspended.expect("one-node budget must suspend");
        let (outcome, _) = Search::exact()
            .with_order(SearchOrder::Dfs)
            .with_strategy(BranchStrategy::First)
            .with_resume(token.clone())
            .run(&sys, SearchBudget::unlimited(), |s| {
                covers.push(s.to_vec());
                true
            });
        assert!(outcome.is_exhaustive());
        assert_eq!(covers, reference, "the token's order must win");

        let other = SetSystem::from_indices(5, &[&[0, 1], &[2, 3]]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Search::exact()
                .with_resume(token)
                .run(&other, SearchBudget::unlimited(), |_| true)
        }));
        assert!(result.is_err(), "universe mismatch must be rejected");
    }
}
