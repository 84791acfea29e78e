//! Branch-and-bound top-k with simultaneous ranking and Boolean pruning —
//! Algorithm 3 (Section 4.3).
//!
//! The candidate heap orders entries by the ranking function's lower bound
//! over their region; a popped entry is first checked against the
//! signature cursors (Boolean pruning) and then either reported (tuple) or
//! expanded (node). The search halts when the best remaining bound cannot
//! beat the current kth score — at which point Lemma 3's I/O optimality
//! holds: only R-tree blocks passing both prunes were retrieved.

use rcube_func::RankFn;
use rcube_index::rtree::RTree;
use rcube_index::{HierIndex, NodeHandle};
use rcube_storage::{DiskSim, IoSnapshot, StorageError};
use rcube_table::Tid;

use crate::query::{ProgressiveSearch, QueryPlan, RankedSource, TopKCursor};
use crate::sigcube::{Pruner, SignatureCube};
use crate::{QueryStats, TopKQuery, TopKResult};

#[derive(Debug)]
enum Entry {
    Node(NodeHandle, Vec<u16>),
    /// A leaf's tuple: its path is the leaf's (kept once per expanded
    /// leaf in [`SigSearch::leaf_paths`]) plus `slot` — materialized only
    /// if the tuple is ever popped.
    Tuple {
        tid: Tid,
        leaf: usize,
        slot: u16,
        score: f64,
    },
}

#[derive(Debug)]
struct HeapItem {
    bound: f64,
    entry: Entry,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by bound; tuples before nodes at equal bound so exact
        // results surface as early as possible.
        other.bound.total_cmp(&self.bound).then_with(|| {
            let rank = |e: &Entry| match e {
                Entry::Tuple { .. } => 0,
                Entry::Node(..) => 1,
            };
            rank(&other.entry).cmp(&rank(&self.entry))
        })
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Answers a top-k query over `rtree` with Boolean pruning from `cube` —
/// a thin batch wrapper: open a progressive cursor, drain `k` answers.
///
/// `query.ranking_dims` indexes into the *relation's* ranking dimensions;
/// they must be covered by the R-tree (which is built over all of them by
/// default).
pub fn topk_signature<F: RankFn>(
    rtree: &RTree,
    cube: &SignatureCube,
    query: &TopKQuery<F>,
    disk: &DiskSim,
) -> TopKResult {
    cube.source(rtree, disk)
        .query(&query.plan())
        .unwrap_or_else(|e| panic!("storage error during query: {e}"))
}

/// [`topk_signature`] driven by the eager assembled pruner — the
/// pre-refactor baseline kept for benchmarks (`BENCH_sigcube.json`) and
/// lazy-vs-eager equivalence tests. Answers are identical; only the
/// signature-load profile differs.
pub fn topk_signature_assembled<F: RankFn>(
    rtree: &RTree,
    cube: &SignatureCube,
    query: &TopKQuery<F>,
    disk: &DiskSim,
) -> TopKResult {
    // Snapshot I/O before pruner construction so assembly reads are part
    // of the reported query cost.
    let before = disk.stats().snapshot();
    let pruner = cube.eager_pruner_for(&query.selection, disk);
    let plan = query.plan();
    let search = SigSearch::new(rtree, disk, &plan, pruner, before);
    TopKCursor::new(Box::new(search), plan.k).drain()
}

/// A `(SignatureCube, RTree)` pair bound to a metering device: the
/// signature engine's [`RankedSource`]. Constructed per query via
/// [`SignatureCube::source`]; opening a cursor builds the lazy
/// [`crate::sigcube::LazyIntersection`] pruner (consulting the cube's
/// shared cross-query node cache) and charges its root probe to the
/// cursor's stats.
#[derive(Debug, Clone, Copy)]
pub struct SigSource<'a> {
    rtree: &'a RTree,
    cube: &'a SignatureCube,
    disk: &'a DiskSim,
}

impl SignatureCube {
    /// Binds this cube and its R-tree partition to a metering device as a
    /// [`RankedSource`].
    pub fn source<'a>(&'a self, rtree: &'a RTree, disk: &'a DiskSim) -> SigSource<'a> {
        SigSource { rtree, cube: self, disk }
    }

    /// True when this cube can answer the plan: every selection dimension
    /// resolves against a materialized cuboid and the R-tree covers the
    /// ranking dimensions. The `Engine` facade routes on this.
    pub fn can_answer(
        &self,
        rtree: &RTree,
        selection: &rcube_table::Selection,
        ranking_dims: &[usize],
    ) -> bool {
        ranking_dims.iter().all(|&d| d < rtree.point_dims())
            && selection
                .conds()
                .iter()
                .all(|&(d, _)| self.cuboid_dims().iter().any(|dims| dims.contains(&d)))
    }
}

impl<'a> RankedSource<'a> for SigSource<'a> {
    fn open(&self, plan: &QueryPlan<'a>) -> Result<TopKCursor<'a>, StorageError> {
        // Snapshot I/O before pruner construction so root-probe reads are
        // part of the reported query cost.
        let before = self.disk.stats().snapshot();
        let pruner = self.cube.try_pruner_for(plan.selection, self.disk)?;
        let search = SigSearch::new(self.rtree, self.disk, plan, pruner, before);
        Ok(TopKCursor::new(Box::new(search), plan.k))
    }
}

/// Algorithm 3 as a resumable state machine. The branch-and-bound heap
/// already certifies answers on pop — a tuple entry's bound *is* its exact
/// score, so when one surfaces at the top of the min-heap no unexplored
/// subtree can beat it. [`Self::advance`] therefore pops until a tuple
/// passes the Boolean pruner and emits it; pausing keeps the heap and the
/// pruner's decoded-node memos alive, so `extend_k` resumes mid-descent.
struct SigSearch<'a> {
    rtree: &'a RTree,
    disk: &'a DiskSim,
    func: &'a dyn RankFn,
    /// Projection of R-tree dimensions onto the query's ranking dims.
    proj: Vec<usize>,
    /// `None`: some predicate selects an empty cell (or an empty
    /// intersection) — no tuple qualifies, the search never starts.
    pruner: Option<Pruner<'a>>,
    heap: std::collections::BinaryHeap<HeapItem>,
    /// Paths of the leaves expanded so far, indexed by `Entry::Tuple::leaf`.
    leaf_paths: Vec<Vec<u16>>,
    stats: QueryStats,
    before: IoSnapshot,
}

impl<'a> SigSearch<'a> {
    fn new(
        rtree: &'a RTree,
        disk: &'a DiskSim,
        plan: &QueryPlan<'a>,
        pruner: Option<Pruner<'a>>,
        before: IoSnapshot,
    ) -> Self {
        let proj: Vec<usize> = plan.ranking_dims.to_vec();
        assert!(
            proj.iter().all(|&d| d < rtree.point_dims()),
            "query ranking dimension outside the R-tree"
        );
        let mut heap = std::collections::BinaryHeap::new();
        if pruner.is_some() {
            let root = rtree.root();
            let bound = plan.func.lower_bound(&rtree.region(root).project(&proj));
            heap.push(HeapItem { bound, entry: Entry::Node(root, Vec::new()) });
        }
        Self {
            rtree,
            disk,
            func: plan.func,
            proj,
            pruner,
            heap,
            leaf_paths: Vec::new(),
            stats: QueryStats::default(),
            before,
        }
    }
}

impl ProgressiveSearch for SigSearch<'_> {
    fn advance(&mut self) -> Result<Option<(Tid, f64)>, StorageError> {
        let Some(pruner) = self.pruner.as_mut() else {
            return Ok(None);
        };
        let mut probe: Vec<u16> = Vec::new();
        while let Some(HeapItem { bound: _, entry }) = self.heap.pop() {
            // Boolean pruning: the entry's path must pass every cursor.
            let (n, path) = match entry {
                Entry::Tuple { tid, leaf, slot, score } => {
                    probe.clear();
                    probe.extend_from_slice(&self.leaf_paths[leaf]);
                    probe.push(slot);
                    if !pruner.try_check_path(&probe)? {
                        continue;
                    }
                    self.stats.tuples_scored += 1;
                    self.stats.peak_heap = self.stats.peak_heap.max(self.heap.len() as u64);
                    return Ok(Some((tid, score)));
                }
                Entry::Node(n, path) => (n, path),
            };
            if !path.is_empty() && !pruner.try_check_path(&path)? {
                continue;
            }
            self.rtree.read_node(self.disk, n);
            self.stats.blocks_read += 1;
            if self.rtree.is_leaf(n) {
                // Borrowed entries, one projection buffer and one path per
                // leaf: a leaf holds up to `M` tuples and most never leave
                // the heap, so per-entry clones dominated the query.
                let leaf = self.leaf_paths.len();
                self.leaf_paths.push(path);
                let mut values: Vec<f64> = Vec::with_capacity(self.proj.len());
                for (slot, &(tid, ref point)) in self.rtree.leaf_slice(n).iter().enumerate() {
                    values.clear();
                    values.extend(self.proj.iter().map(|&d| point[d]));
                    let score = self.func.score(&values);
                    let entry = Entry::Tuple { tid, leaf, slot: slot as u16, score };
                    self.heap.push(HeapItem { bound: score, entry });
                    self.stats.states_generated += 1;
                }
            } else {
                for (pos, child) in self.rtree.children(n).into_iter().enumerate() {
                    let bound =
                        self.func.lower_bound(&self.rtree.region(child).project(&self.proj));
                    let mut cpath = path.clone();
                    cpath.push(pos as u16);
                    self.heap.push(HeapItem { bound, entry: Entry::Node(child, cpath) });
                    self.stats.states_generated += 1;
                }
            }
            self.stats.peak_heap = self.stats.peak_heap.max(self.heap.len() as u64);
        }
        Ok(None)
    }

    fn stats(&self) -> QueryStats {
        let mut stats = self.stats;
        if let Some(pruner) = &self.pruner {
            stats.sig_loads = pruner.loads();
            stats.sig_bytes_decoded = pruner.bytes_decoded();
            stats.sig_nodes_decoded = pruner.nodes_decoded();
            stats.shared_node_hits = pruner.shared_node_hits();
        }
        stats.io = self.before.delta(&self.disk.stats().snapshot());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_func::{GeneralSq, Linear, RankFn, SqDist};
    use rcube_index::rtree::RTreeConfig;
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::workload::{QueryGen, WorkloadParams};
    use rcube_table::{Relation, Selection};

    use crate::sigcube::SignatureCubeConfig;

    fn setup(tuples: usize) -> (Relation, DiskSim, RTree, SignatureCube) {
        let rel = SyntheticSpec { tuples, cardinality: 5, ranking_dims: 3, ..Default::default() }
            .generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
        let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
        (rel, disk, rtree, cube)
    }

    fn naive(
        rel: &Relation,
        sel: &Selection,
        f: &impl RankFn,
        dims: &[usize],
        k: usize,
    ) -> Vec<f64> {
        let mut v: Vec<f64> = rel
            .tids()
            .filter(|&t| sel.matches(rel, t))
            .map(|t| f.score(&rel.ranking_point_proj(t, dims)))
            .collect();
        v.sort_by(f64::total_cmp);
        v.truncate(k);
        v
    }

    #[test]
    fn linear_queries_match_naive() {
        let (rel, disk, rtree, cube) = setup(2_000);
        let mut qg = QueryGen::new(WorkloadParams { num_ranking: 3, ..Default::default() });
        for spec in qg.batch(&rel, 8) {
            let f = Linear::new(spec.weights.clone());
            let q = TopKQuery::with_ranking_dims(
                spec.selection.conds().to_vec(),
                f,
                spec.ranking_dims.clone(),
                10,
            );
            let got = topk_signature(&rtree, &cube, &q, &disk);
            let want = naive(
                &rel,
                &spec.selection,
                &Linear::new(spec.weights.clone()),
                &spec.ranking_dims,
                10,
            );
            assert_eq!(got.items.len(), want.len());
            for (g, w) in got.scores().iter().zip(&want) {
                assert!((g - w).abs() < 1e-9);
            }
            for t in got.tids() {
                assert!(spec.selection.matches(&rel, t));
            }
        }
    }

    #[test]
    fn distance_and_general_functions_match_naive() {
        let (rel, disk, rtree, cube) = setup(1_500);
        let sel = vec![(0usize, 2u32)];
        // fd: nearest neighbour.
        let fd = SqDist::new(vec![0.4, 0.6, 0.1]);
        let q = TopKQuery::new(sel.clone(), fd, 10);
        let got = topk_signature(&rtree, &cube, &q, &disk);
        let want = naive(&rel, &q.selection, &SqDist::new(vec![0.4, 0.6, 0.1]), &[0, 1, 2], 10);
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
        // fg: (2X − Y − Z)² — non-monotone, non-convex.
        let fg = GeneralSq::mse3();
        let q = TopKQuery::new(sel, fg, 10);
        let got = topk_signature(&rtree, &cube, &q, &disk);
        let want = naive(&rel, &q.selection, &GeneralSq::mse3(), &[0, 1, 2], 10);
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_predicate_cell_returns_no_answers() {
        let (_, disk, rtree, cube) = setup(200);
        let q = TopKQuery::new(vec![(0, 99)], Linear::uniform(3), 10);
        let got = topk_signature(&rtree, &cube, &q, &disk);
        assert!(got.items.is_empty());
        assert_eq!(got.stats.blocks_read, 0, "nothing should be fetched");
    }

    #[test]
    fn boolean_pruning_reduces_block_reads() {
        let (rel, disk, rtree, cube) = setup(3_000);
        // Highly selective conjunction.
        let q = TopKQuery::new(vec![(0, 1), (1, 2), (2, 3)], Linear::uniform(3), 10);
        let with_sig = topk_signature(&rtree, &cube, &q, &disk);
        // Same search without Boolean pruning: empty selection, then filter.
        let q_nosel = TopKQuery::new(vec![], Linear::uniform(3), rel.len());
        let all = topk_signature(&rtree, &cube, &q_nosel, &disk);
        assert!(with_sig.stats.blocks_read < all.stats.blocks_read);
    }

    #[test]
    fn multidim_selection_via_lazy_intersection() {
        let (rel, disk, rtree, cube) = setup(1_000);
        let q = TopKQuery::new(vec![(0, 0), (2, 1)], Linear::uniform(3), 5);
        let got = topk_signature(&rtree, &cube, &q, &disk);
        let want = naive(&rel, &q.selection, &Linear::uniform(3), &[0, 1, 2], 5);
        assert_eq!(got.items.len(), want.len());
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn lazy_pruner_beats_eager_on_sig_loads_with_identical_answers() {
        // A small alpha forces real decomposition so "fewer partials
        // loaded" is observable, not vacuously equal.
        let rel =
            SyntheticSpec { tuples: 4_000, cardinality: 5, ranking_dims: 3, ..Default::default() }
                .generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
        let cube = SignatureCube::build(
            &rel,
            &rtree,
            &disk,
            SignatureCubeConfig { alpha: 0.02, ..Default::default() },
        );
        // Multi-dimensional predicates, no exact cuboid materialized.
        for conds in [vec![(0usize, 1u32), (1, 2)], vec![(0, 0), (1, 1), (2, 2)]] {
            let q = TopKQuery::new(conds.clone(), Linear::uniform(3), 10);
            let lazy = topk_signature(&rtree, &cube, &q, &disk);
            let eager = topk_signature_assembled(&rtree, &cube, &q, &disk);
            assert_eq!(lazy.items, eager.items, "answers diverged for {conds:?}");
            assert!(
                lazy.stats.sig_loads < eager.stats.sig_loads,
                "{conds:?}: lazy {} loads must undercut eager {}",
                lazy.stats.sig_loads,
                eager.stats.sig_loads
            );
            assert!(
                lazy.stats.sig_bytes_decoded < eager.stats.sig_bytes_decoded,
                "{conds:?}: lazy {} bytes must undercut eager {}",
                lazy.stats.sig_bytes_decoded,
                eager.stats.sig_bytes_decoded
            );
        }
    }

    proptest::proptest! {
        /// Top-k answers are identical between the lazy pruner and the
        /// eager assembled baseline over random workloads.
        #[test]
        fn proptest_lazy_topk_equals_eager_topk(
            tuples in 200usize..900,
            cardinality in 2u32..5,
            k in 1usize..15,
            seed in 0u64..1_000,
        ) {
            let rel = SyntheticSpec {
                tuples, cardinality, ranking_dims: 3, seed, ..Default::default()
            }.generate();
            let disk = DiskSim::with_defaults();
            let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
            let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
            let conds = vec![
                (0usize, seed as u32 % cardinality),
                (1, (seed as u32 / 7) % cardinality),
            ];
            let q = TopKQuery::new(conds, Linear::uniform(3), k);
            let lazy = topk_signature(&rtree, &cube, &q, &disk);
            let eager = topk_signature_assembled(&rtree, &cube, &q, &disk);
            proptest::prop_assert_eq!(lazy.items, eager.items);
        }
    }

    #[test]
    fn shared_node_cache_absorbs_repeat_queries() {
        let rel =
            SyntheticSpec { tuples: 3_000, cardinality: 5, ranking_dims: 3, ..Default::default() }
                .generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
        let mut cube = SignatureCube::build(
            &rel,
            &rtree,
            &disk,
            SignatureCubeConfig { alpha: 0.02, ..Default::default() },
        );
        let q = TopKQuery::new(vec![(0, 1), (1, 2)], Linear::uniform(3), 10);

        // Warm pass decodes and populates; repeat pass is served by the
        // shared cache — strictly fewer nodes decoded, identical answers.
        let cold = topk_signature(&rtree, &cube, &q, &disk);
        assert!(cold.stats.sig_nodes_decoded > 0, "cold query must decode");
        let warm = topk_signature(&rtree, &cube, &q, &disk);
        assert_eq!(warm.items, cold.items);
        assert!(
            warm.stats.sig_nodes_decoded < cold.stats.sig_nodes_decoded,
            "warm {} must decode fewer nodes than cold {}",
            warm.stats.sig_nodes_decoded,
            cold.stats.sig_nodes_decoded
        );
        assert!(warm.stats.shared_node_hits > 0, "repeat probes come from the shared cache");
        assert!(
            warm.stats.sig_loads < cold.stats.sig_loads || cold.stats.sig_loads == 0,
            "shared hits skip partial loads"
        );
        assert!(cube.node_cache().stats().hits >= warm.stats.shared_node_hits);

        // Budget 0 disables cross-query caching: every pass decodes like
        // the first, with identical answers.
        cube.set_node_cache_budget(0);
        let off1 = topk_signature(&rtree, &cube, &q, &disk);
        let off2 = topk_signature(&rtree, &cube, &q, &disk);
        assert_eq!(off1.items, cold.items);
        assert_eq!(off2.items, cold.items);
        assert_eq!(off1.stats.sig_nodes_decoded, cold.stats.sig_nodes_decoded);
        assert_eq!(off2.stats.sig_nodes_decoded, cold.stats.sig_nodes_decoded);
        assert_eq!(off2.stats.shared_node_hits, 0);
    }

    #[test]
    fn projected_ranking_dims_work() {
        let (rel, disk, rtree, cube) = setup(800);
        // Rank on dimension 2 only.
        let q = TopKQuery::with_ranking_dims(vec![(1, 1)], Linear::uniform(1), vec![2], 5);
        let got = topk_signature(&rtree, &cube, &q, &disk);
        let want = naive(&rel, &q.selection, &Linear::uniform(1), &[2], 5);
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }
}
