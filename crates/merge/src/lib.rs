//! Index-merge: top-k with ad-hoc ranking functions over multiple
//! hierarchical indices (Chapter 5).
//!
//! High ranking dimensionality defeats any single partition; instead, each
//! attribute (or attribute group) keeps its own index and queries search
//! the space of **joint states** — Cartesian combinations of one node per
//! index. This crate provides
//!
//! * the basic index-merge of Algorithm 4 ([`MergeAlgo::Basic`]): full
//!   child expansion, type-I optimal in examined states but generating up
//!   to `Π Mi` candidates per expansion;
//! * the progressive double-heap of Algorithm 5
//!   ([`MergeAlgo::Progressive`]): lazy `get_next` generation via
//!   neighborhood or threshold expansion ([`expand`]);
//! * join-signatures ([`joinsig`]) pruning provably empty joint states
//!   toward type-II optimality (Lemma 8).

pub mod bloom;
pub mod expand;
pub mod joinsig;
pub mod state;

pub use bloom::BloomFilter;
pub use joinsig::{JoinSigCursor, JoinSignature};
pub use state::JointState;

use std::collections::{BinaryHeap, HashMap, HashSet};

use rcube_core::query::{MinScored, ProgressiveSearch, QueryPlan, RankedSource, TopKCursor};
use rcube_core::QueryStats;
use rcube_func::RankFn;
use rcube_index::{HierIndex, NodeHandle};
use rcube_storage::{DiskSim, IoSnapshot, StorageError};
use rcube_table::Tid;

use expand::{ExpandCounters, Machine, NeighborhoodMachine, ThresholdMachine};
use state::StateItem;

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeAlgo {
    /// Algorithm 4: full expansion (`BL` in the evaluation).
    Basic,
    /// Algorithm 5: double-heap progressive expansion (`PE`).
    Progressive,
}

/// Which expansion strategy `Progressive` uses per state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expansion {
    /// Neighborhood for monotone/semi-monotone over 1-d indices, threshold
    /// otherwise.
    Auto,
    /// Always threshold expansion.
    Threshold,
    /// Always neighborhood expansion (caller must ensure applicability).
    Neighborhood,
}

/// Query configuration.
#[derive(Debug, Clone, Copy)]
pub struct MergeConfig {
    pub algo: MergeAlgo,
    pub expansion: Expansion,
}

impl Default for MergeConfig {
    fn default() -> Self {
        Self { algo: MergeAlgo::Progressive, expansion: Expansion::Auto }
    }
}

/// An index-merge engine over `m` hierarchical indices.
///
/// The ranking function's argument order is the concatenation of the
/// indices' dimensions (index 0's dims first, then index 1's, …).
pub struct IndexMerge<'a> {
    indices: Vec<&'a dyn HierIndex>,
    signatures: Vec<JoinSignature>,
}

impl<'a> std::fmt::Debug for IndexMerge<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexMerge")
            .field("num_indices", &self.indices.len())
            .field("num_signatures", &self.signatures.len())
            .finish()
    }
}

impl<'a> IndexMerge<'a> {
    /// An engine without join-signatures (`BL`/`PE`).
    pub fn new(indices: Vec<&'a dyn HierIndex>) -> Self {
        assert!(!indices.is_empty(), "need at least one index");
        assert!(indices.len() <= 32, "combination masks limited to 32 indices");
        Self { indices, signatures: Vec::new() }
    }

    /// Materializes the full `m`-way join-signature (`PE+SIG`).
    pub fn with_full_signature(mut self, disk: &DiskSim) -> Self {
        let paths = joinsig::collect_tuple_paths(&self.indices);
        self.signatures = vec![JoinSignature::build(&self.indices, &paths, disk)];
        self
    }

    /// Materializes all pairwise join-signatures (`PE+2dSIG`).
    pub fn with_pairwise_signatures(mut self, disk: &DiskSim) -> Self {
        let paths = joinsig::collect_tuple_paths(&self.indices);
        let mut sigs = Vec::new();
        for a in 0..self.indices.len() {
            for b in (a + 1)..self.indices.len() {
                sigs.push(JoinSignature::build_pair(&self.indices, &paths, a, b, disk));
            }
        }
        self.signatures = sigs;
        self
    }

    /// The merged indices.
    pub fn indices(&self) -> &[&'a dyn HierIndex] {
        &self.indices
    }

    /// Attached join-signatures.
    pub fn signatures(&self) -> &[JoinSignature] {
        &self.signatures
    }

    /// Total signature bytes (Figure 5.22).
    pub fn signature_bytes(&self) -> usize {
        self.signatures.iter().map(|s| s.total_bytes()).sum()
    }

    /// Per-index dimension offsets into the joint point.
    pub fn dim_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.indices.len());
        let mut acc = 0;
        for i in &self.indices {
            offsets.push(acc);
            acc += i.dims();
        }
        offsets
    }

    /// Total joint dimensionality.
    pub fn total_dims(&self) -> usize {
        self.indices.iter().map(|i| i.dims()).sum()
    }

    /// Binds this engine to a metering device (and an algorithm choice) as
    /// a [`rcube_core::query::RankedSource`].
    pub fn source<'b>(&'b self, config: MergeConfig, disk: &'b DiskSim) -> MergeSource<'b>
    where
        'a: 'b,
    {
        MergeSource { merge: self, config, disk }
    }
}

/// An [`IndexMerge`] bound to its metering device and algorithm choice:
/// the merge engine's `RankedSource`. Index-merge ranks the *whole*
/// relation (Chapter 5 has no Boolean selections), so plans routed here
/// must carry an empty selection, and the ranking function's arity must
/// cover every merged dimension.
#[derive(Debug, Clone, Copy)]
pub struct MergeSource<'a> {
    merge: &'a IndexMerge<'a>,
    config: MergeConfig,
    disk: &'a DiskSim,
}

impl<'a> RankedSource<'a> for MergeSource<'a> {
    fn open(&self, plan: &QueryPlan<'a>) -> Result<TopKCursor<'a>, StorageError> {
        assert!(
            plan.selection.is_empty(),
            "index-merge ranks the whole relation; Boolean selections are not supported"
        );
        assert_eq!(
            plan.func.arity(),
            self.merge.total_dims(),
            "function arity must cover all merged dims"
        );
        let search = MergeSearch::new(self.merge, plan.func, &self.config, self.disk);
        Ok(TopKCursor::new(Box::new(search), plan.k))
    }
}

/// A pending progressive-expansion entry: a leaf state ready for
/// retrieval, or an inner state with its (lazily created) `get_next`
/// machine.
enum GEntry {
    Leaf(JointState),
    Expand(JointState, Option<Machine>),
}

/// The per-algorithm frontier.
enum Frontier<'a> {
    /// Algorithm 4: full expansion (`BL`).
    Basic { heap: BinaryHeap<StateItem<JointState>> },
    /// Algorithm 5: double-heap progressive expansion (`PE` / `PE+SIG`).
    Progressive {
        heap: BinaryHeap<StateItem<GEntry>>,
        sig: JoinSigCursor<'a>,
        expansion: Expansion,
    },
}

/// Algorithms 4/5 as one resumable state machine. Joint states pop from
/// the frontier heap in lower-bound order; leaf retrievals hash-merge
/// partially seen tuples and fully merged ones enter a `(score, tid)`
/// candidate heap. [`ProgressiveSearch::advance`] emits the cheapest
/// candidate once its score is strictly below the frontier's best
/// remaining bound — no state still pending (or any of its descendants,
/// whose bounds only grow) can produce anything cheaper, and strictly
/// because a state whose bound *equals* the score may hold an equal-score
/// tuple with a smaller tid (answers are `(score, tid)`-ordered, like
/// `TableScan`'s). Pausing keeps both heaps, the
/// redundant-leaf set and the partial-merge table alive, so `extend_k`
/// resumes mid-merge.
struct MergeSearch<'a> {
    state: MergeState<'a>,
    frontier: Frontier<'a>,
    counters: ExpandCounters,
    seq: u64,
    before: IoSnapshot,
}

/// The merge half of [`MergeSearch`] — leaf retrieval with redundancy
/// tracking and the hash-merge of partially seen tuples — split from the
/// frontier so [`MergeSearch::step`] can retrieve leaves while holding a
/// mutable borrow of the frontier heap.
struct MergeState<'a> {
    indices: Vec<&'a dyn HierIndex>,
    offsets: Vec<usize>,
    total_dims: usize,
    f: &'a dyn RankFn,
    disk: &'a DiskSim,
    read_leaves: HashSet<(usize, NodeHandle)>,
    partial: HashMap<Tid, (u32, Vec<f64>)>,
    full_mask: u32,
    /// Fully merged tuples not yet certified/emitted, cheapest first.
    candidates: BinaryHeap<MinScored>,
    stats: QueryStats,
}

impl MergeState<'_> {
    /// Reads the leaf nodes of a leaf state (skipping redundant nodes) and
    /// merges their tuples; fully merged tuples are scored and pushed into
    /// the candidate heap.
    fn retrieve_leaf_state(&mut self, s: &JointState) {
        for (i, &node) in s.nodes.iter().enumerate() {
            if !self.read_leaves.insert((i, node)) {
                continue; // redundant node
            }
            self.indices[i].read_node(self.disk, node);
            self.stats.blocks_read += 1;
            for (tid, values) in self.indices[i].leaf_entries(node) {
                let (mask, point) =
                    self.partial.entry(tid).or_insert_with(|| (0, vec![0.0; self.total_dims]));
                for (d, v) in values.iter().enumerate() {
                    point[self.offsets[i] + d] = *v;
                }
                *mask |= 1 << i;
                if *mask == self.full_mask {
                    let score = self.f.score(point);
                    self.candidates.push(MinScored(score, tid));
                    self.stats.tuples_scored += 1;
                    self.partial.remove(&tid);
                }
            }
        }
    }
}

impl<'a> MergeSearch<'a> {
    fn new(
        merge: &'a IndexMerge<'a>,
        f: &'a dyn RankFn,
        config: &MergeConfig,
        disk: &'a DiskSim,
    ) -> Self {
        let indices = merge.indices.clone();
        let offsets = merge.dim_offsets();
        let total_dims = merge.total_dims();
        let before = disk.stats().snapshot();
        let root = JointState::root(&indices);
        let root_bound = root.lower_bound(&indices, f);
        let frontier = match config.algo {
            MergeAlgo::Basic => {
                let mut heap = BinaryHeap::new();
                heap.push(StateItem { bound: root_bound, seq: 0, payload: root });
                Frontier::Basic { heap }
            }
            MergeAlgo::Progressive => {
                let mut heap = BinaryHeap::new();
                let entry = if root.is_leaf(&indices) {
                    GEntry::Leaf(root)
                } else {
                    GEntry::Expand(root, None)
                };
                heap.push(StateItem { bound: root_bound, seq: 0, payload: entry });
                Frontier::Progressive {
                    heap,
                    sig: JoinSigCursor::new(merge.signatures.iter().collect(), disk),
                    expansion: config.expansion,
                }
            }
        };
        let full_mask = (1u32 << indices.len()) - 1;
        Self {
            state: MergeState {
                indices,
                offsets,
                total_dims,
                f,
                disk,
                read_leaves: HashSet::new(),
                partial: HashMap::new(),
                full_mask,
                candidates: BinaryHeap::new(),
                stats: QueryStats::default(),
            },
            frontier,
            counters: ExpandCounters::default(),
            seq: 0,
            before,
        }
    }

    /// Lower bound of the best state still pending, if any.
    fn frontier_bound(&self) -> Option<f64> {
        match &self.frontier {
            Frontier::Basic { heap } => heap.peek().map(|i| i.bound),
            Frontier::Progressive { heap, .. } => heap.peek().map(|i| i.bound),
        }
    }

    /// Pops and processes one frontier state; `false` when the frontier is
    /// exhausted. A join-signature page that does not read back is a typed
    /// error.
    fn step(&mut self) -> Result<bool, StorageError> {
        let state = &mut self.state;
        match &mut self.frontier {
            Frontier::Basic { heap } => {
                let Some(StateItem { payload: s, .. }) = heap.pop() else {
                    return Ok(false);
                };
                if s.is_leaf(&state.indices) {
                    state.retrieve_leaf_state(&s);
                } else {
                    let entries = s.child_entries(&state.indices);
                    let mut picks = vec![0usize; entries.len()];
                    loop {
                        let child = JointState {
                            nodes: picks.iter().zip(&entries).map(|(&p, e)| e[p]).collect(),
                        };
                        self.seq += 1;
                        heap.push(StateItem {
                            bound: child.lower_bound(&state.indices, state.f),
                            seq: self.seq,
                            payload: child,
                        });
                        state.stats.states_generated += 1;
                        // Odometer.
                        let mut j = 0;
                        while j < picks.len() {
                            picks[j] += 1;
                            if picks[j] < entries[j].len() {
                                break;
                            }
                            picks[j] = 0;
                            j += 1;
                        }
                        if j == picks.len() {
                            break;
                        }
                    }
                }
                state.stats.peak_heap = state.stats.peak_heap.max(heap.len() as u64);
            }
            Frontier::Progressive { heap, sig, expansion } => {
                let Some(StateItem { bound, payload, .. }) = heap.pop() else {
                    return Ok(false);
                };
                match payload {
                    GEntry::Leaf(s) => state.retrieve_leaf_state(&s),
                    GEntry::Expand(s, machine) => {
                        let mut machine = match machine {
                            Some(m) => m,
                            None => {
                                // First expansion: bloom false positives are
                                // corrected here — a state absent from the
                                // signature is empty (Section 5.3.3).
                                if !sig.is_empty() && !sig.check_state(&s.key(&state.indices))? {
                                    return Ok(true);
                                }
                                make_machine(
                                    &state.indices,
                                    &s,
                                    state.f,
                                    *expansion,
                                    sig,
                                    &mut self.counters,
                                )?
                            }
                        };
                        if let Some(child) =
                            machine.get_next(&state.indices, state.f, sig, &mut self.counters)?
                        {
                            let cb = child.lower_bound(&state.indices, state.f);
                            self.seq += 1;
                            let centry = if child.is_leaf(&state.indices) {
                                GEntry::Leaf(child)
                            } else {
                                GEntry::Expand(child, None)
                            };
                            heap.push(StateItem {
                                bound: cb.max(bound),
                                seq: self.seq,
                                payload: centry,
                            });
                            let rb = machine.remaining_bound();
                            if rb.is_finite() {
                                self.seq += 1;
                                heap.push(StateItem {
                                    bound: rb,
                                    seq: self.seq,
                                    payload: GEntry::Expand(s, Some(machine)),
                                });
                            }
                        }
                    }
                }
                state.stats.states_generated = self.counters.states_generated;
                let live = heap.len() as i64 + self.counters.local_items;
                state.stats.peak_heap = state.stats.peak_heap.max(live.max(0) as u64);
            }
        }
        Ok(true)
    }
}

impl ProgressiveSearch for MergeSearch<'_> {
    fn advance(&mut self) -> Result<Option<(Tid, f64)>, StorageError> {
        loop {
            // Certify: a merged tuple is an answer once every pending
            // state's bound is above it (descendant bounds only grow, and
            // every not-yet-merged tuple is covered by a pending state).
            if let Some(MinScored(score, _)) = self.state.candidates.peek() {
                if self.frontier_bound().is_none_or(|b| *score < b) {
                    let MinScored(score, tid) = self.state.candidates.pop().unwrap();
                    return Ok(Some((tid, score)));
                }
            }
            if !self.step()? {
                return Ok(self.state.candidates.pop().map(|MinScored(s, t)| (t, s)));
            }
        }
    }

    fn stats(&self) -> QueryStats {
        let mut stats = self.state.stats;
        if let Frontier::Progressive { sig, .. } = &self.frontier {
            stats.sig_loads = sig.loads;
            stats.sig_bytes_decoded = sig.bytes_loaded;
        }
        stats.io = self.before.delta(&self.state.disk.stats().snapshot());
        stats
    }
}

fn make_machine(
    indices: &[&dyn HierIndex],
    s: &JointState,
    f: &dyn RankFn,
    expansion: Expansion,
    sig: &mut JoinSigCursor<'_>,
    counters: &mut ExpandCounters,
) -> Result<Machine, StorageError> {
    let use_neighborhood = match expansion {
        Expansion::Neighborhood => true,
        Expansion::Threshold => false,
        Expansion::Auto => NeighborhoodMachine::applicable(indices, f),
    };
    Ok(if use_neighborhood {
        Machine::Neighborhood(NeighborhoodMachine::new(indices, s, f, counters))
    } else {
        Machine::Threshold(ThresholdMachine::new(indices, s, f, sig, counters)?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_core::query::Query;
    use rcube_func::{Constrained, Expr, GeneralSq, Linear, SqDist};
    use rcube_index::BPlusTree;
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::Relation;

    fn build_trees(rel: &Relation, disk: &DiskSim, fanout: usize) -> Vec<BPlusTree> {
        (0..rel.schema().num_ranking())
            .map(|d| {
                BPlusTree::bulk_load_with_fanout(
                    disk,
                    rel.ranking_column(d).iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
                    fanout,
                )
            })
            .collect()
    }

    fn naive(rel: &Relation, f: &dyn RankFn, k: usize) -> Vec<f64> {
        let mut v: Vec<f64> = rel.tids().map(|t| f.score(&rel.ranking_point(t))).collect();
        v.sort_by(f64::total_cmp);
        v.truncate(k);
        v
    }

    fn check_config(
        rel: &Relation,
        merge: &IndexMerge<'_>,
        disk: &DiskSim,
        q: &Query,
        cfg: MergeConfig,
    ) {
        let got = merge.source(cfg, disk).query(&q.plan()).unwrap();
        let want = naive(rel, q.plan().func, q.k());
        assert_eq!(got.items.len(), want.len(), "{cfg:?}");
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "{cfg:?}: {g} vs {w}");
        }
    }

    #[test]
    fn all_algorithms_agree_with_naive_scan() {
        let rel = SyntheticSpec { tuples: 800, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let trees = build_trees(&rel, &disk, 8);
        let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
        let plain = IndexMerge::new(idx.clone());
        let with_sig = IndexMerge::new(idx).with_full_signature(&disk);

        let queries = [
            Query::all().rank(Linear::new(vec![1.0, 2.0])).top(10),
            Query::all().rank(SqDist::new(vec![0.3, 0.7])).top(10),
            Query::all().rank(GeneralSq::fg()).top(10),
            Query::all().rank(Constrained::new(Linear::uniform(2), 1, 0.2, 0.6)).top(10),
            Query::all().rank(Expr::var(0).sub(Expr::var(1).square()).square()).top(10),
        ];
        for q in &queries {
            for algo in [MergeAlgo::Basic, MergeAlgo::Progressive] {
                let cfg = MergeConfig { algo, expansion: Expansion::Auto };
                check_config(&rel, &plain, &disk, q, cfg);
                check_config(&rel, &with_sig, &disk, q, cfg);
            }
            // Forced threshold expansion.
            let cfg = MergeConfig { algo: MergeAlgo::Progressive, expansion: Expansion::Threshold };
            check_config(&rel, &plain, &disk, q, cfg);
            check_config(&rel, &with_sig, &disk, q, cfg);
        }
    }

    #[test]
    fn neighborhood_applies_to_monotone_over_btrees() {
        let rel = SyntheticSpec { tuples: 600, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let trees = build_trees(&rel, &disk, 8);
        let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
        let f = Linear::new(vec![1.0, 3.0]);
        assert!(NeighborhoodMachine::applicable(&idx, &f));
        let merge = IndexMerge::new(idx);
        let cfg = MergeConfig { algo: MergeAlgo::Progressive, expansion: Expansion::Neighborhood };
        check_config(&rel, &merge, &disk, &Query::all().rank(f).top(10), cfg);
    }

    #[test]
    fn progressive_generates_far_fewer_states_than_basic() {
        // Table 5.1's headline claim.
        let rel = SyntheticSpec { tuples: 3_000, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let trees = build_trees(&rel, &disk, 16);
        let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
        let merge = IndexMerge::new(idx);
        let q = Query::all().rank(GeneralSq::fg()).top(50);
        let basic = merge
            .source(MergeConfig { algo: MergeAlgo::Basic, expansion: Expansion::Auto }, &disk)
            .query(&q.plan())
            .unwrap();
        let prog = merge.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap();
        assert!(
            prog.stats.states_generated * 2 < basic.stats.states_generated,
            "progressive {} vs basic {}",
            prog.stats.states_generated,
            basic.stats.states_generated
        );
        assert!(prog.stats.peak_heap < basic.stats.peak_heap);
    }

    #[test]
    fn signature_pruning_reduces_disk_access_on_general_functions() {
        let rel = SyntheticSpec { tuples: 3_000, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let trees = build_trees(&rel, &disk, 16);
        let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
        let plain = IndexMerge::new(idx.clone());
        let with_sig = IndexMerge::new(idx).with_full_signature(&disk);
        let q = Query::all().rank(GeneralSq::fg()).top(100);
        let cfg = MergeConfig::default();
        let pe = plain.source(cfg, &disk).query(&q.plan()).unwrap();
        let sig = with_sig.source(cfg, &disk).query(&q.plan()).unwrap();
        assert!(
            sig.stats.blocks_read < pe.stats.blocks_read,
            "PE+SIG {} vs PE {} leaf reads",
            sig.stats.blocks_read,
            pe.stats.blocks_read
        );
    }

    #[test]
    fn three_way_merge_with_pairwise_signatures() {
        let rel = SyntheticSpec { tuples: 500, ranking_dims: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let trees = build_trees(&rel, &disk, 8);
        let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
        let merge2d = IndexMerge::new(idx.clone()).with_pairwise_signatures(&disk);
        let merge3d = IndexMerge::new(idx).with_full_signature(&disk);
        let q = Query::all().rank(SqDist::new(vec![0.2, 0.5, 0.8])).top(10);
        check_config(&rel, &merge2d, &disk, &q, MergeConfig::default());
        check_config(&rel, &merge3d, &disk, &q, MergeConfig::default());
        assert_eq!(merge2d.signatures().len(), 3);
    }

    #[test]
    fn rtree_and_btree_mix_merges() {
        // One 2-d R-tree + one B+-tree: 3 joint dims (Section 5.4.2's
        // grouped-attribute setting).
        use rcube_index::rtree::{RTree, RTreeConfig};
        let rel = SyntheticSpec { tuples: 600, ranking_dims: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rt = RTree::over_relation(&disk, &rel, &[0, 1], RTreeConfig::small(8));
        let bt = BPlusTree::bulk_load_with_fanout(
            &disk,
            rel.ranking_column(2).iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
            8,
        );
        let idx: Vec<&dyn HierIndex> = vec![&rt, &bt];
        let merge = IndexMerge::new(idx).with_full_signature(&disk);
        let q = Query::all().rank(SqDist::new(vec![0.5, 0.5, 0.5])).top(10);
        check_config(&rel, &merge, &disk, &q, MergeConfig::default());
    }

    #[test]
    fn table_5_1_shape_holds() {
        // Improved (PE+SIG) must dominate basic on states, I/O and heap for
        // f = (A − B²)² (the thesis' Table 5.1 setting, scaled down; the
        // full-scale ratios are regenerated by `repro_ch5 table5_1`).
        let rel = SyntheticSpec { tuples: 20_000, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let trees = build_trees(&rel, &disk, 64);
        let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
        let basic_engine = IndexMerge::new(idx.clone());
        let improved = IndexMerge::new(idx).with_full_signature(&disk);
        let q = Query::all().rank(GeneralSq::fg()).top(100);
        let b = basic_engine
            .source(MergeConfig { algo: MergeAlgo::Basic, expansion: Expansion::Auto }, &disk)
            .query(&q.plan())
            .unwrap();
        let i = improved.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap();
        assert!(i.stats.states_generated < b.stats.states_generated / 2);
        assert!(i.stats.blocks_read < b.stats.blocks_read);
        assert!(i.stats.peak_heap * 4 < b.stats.peak_heap);
    }
}
