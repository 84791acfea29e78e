//! Branch-and-bound top-k with simultaneous ranking and Boolean pruning —
//! Algorithm 3 (Section 4.3).
//!
//! The candidate heap orders entries by the ranking function's lower bound
//! over their region. The paper pops an entry, *then* probes its path
//! against the signature; this search prunes one step earlier, when a node
//! is **expanded**. The signature node mirroring the R-tree node just read
//! holds one bit per entry, so one word-AND across the predicate's cursors
//! ([`crate::sigcube::Pruner::try_node_mask`]) names every entry that can
//! qualify, and only those are scored and pushed:
//!
//! * a leaf pushes its qualifying tuples as **certified** entries. A
//!   tuple entry's bound is its exact score and its Boolean verdict was
//!   the mask bit, so popping one is emitting it — no probe, no path;
//! * an internal node pushes the children whose bit survives, addressed
//!   by SID (`child = sid·(M+1) + pos + 1`). For a single stored signature
//!   (or no predicate at all) the parent's bit *was* the child's verdict;
//!   under a multi-predicate intersection a surviving bit is only a
//!   candidate and the child is admitted at pop by the memoized subtree
//!   verdict ([`crate::sigcube::Pruner::try_admit_node`]), which keeps
//!   signature loads as lazy as the paper's pop-time probe.
//!
//! # Why the answers and Lemma 3 are untouched
//!
//! An entry withheld at expansion is exactly one whose pop-time probe
//! would have failed (a clear bit on its path fails every probe through
//! it), and a failed probe's only effect was `continue`. The survivors
//! carry the same bounds, so they pop in the same order (equal bounds
//! aside: see the tie rule), and a block is read — `blocks_read` counted
//! — at the same point as before: after a node pops and is admitted.
//! Hence only R-tree blocks passing both prunes are retrieved, and the
//! search still halts once the best remaining bound cannot beat the kth
//! score (Lemma 3). What does change is when a signature node is first
//! loaded: at its partition node's expansion rather than at the first pop
//! of one of that node's entries — one extra load for a node none of whose
//! entries ever pops, none at all for a child the mask withheld.
//!
//! # Tie rule
//!
//! The cursor emits ascending `(score, tid)`, the order `TableScan` and
//! the delta merge use. The heap therefore orders by bound, then
//! node-before-tuple — a node whose bound equals a pending tuple's score
//! may still hold an equal-score tuple with a smaller tid, so it is
//! expanded first — then by tid (by SID between nodes, for a total order
//! `==` agrees with).

use rcube_func::{RankFn, Rect};
use rcube_index::rtree::RTree;
use rcube_index::{HierIndex, NodeHandle};
use rcube_storage::{iter_ones, DiskSim, IoSnapshot, StorageError};
use rcube_table::Tid;

use crate::query::{ProgressiveSearch, QueryPlan, RankedSource, TopKCursor};
use crate::sigcube::{PruneState, SignatureCube};
use crate::QueryStats;

#[derive(Debug)]
enum Entry {
    /// An R-tree node and the signature node mirroring it (`level`:
    /// root = 0), not yet read.
    Node { n: NodeHandle, sid: u64, level: u16 },
    /// A certified tuple: it qualifies and the item's bound is its score.
    Tuple { tid: Tid },
}

#[derive(Debug)]
struct HeapItem {
    bound: f64,
    entry: Entry,
}

impl HeapItem {
    /// `(node-before-tuple, tid or SID)`: the order within one bound.
    fn tie_key(&self) -> (u8, u64) {
        match self.entry {
            Entry::Node { sid, .. } => (0, sid),
            Entry::Tuple { tid } => (1, tid as u64),
        }
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the search wants the
        // smallest `(bound, tie_key)` first (see the module's tie rule).
        other.bound.total_cmp(&self.bound).then_with(|| other.tie_key().cmp(&self.tie_key()))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// This search with nothing to prune by: best-first descent over `rtree`
/// alone, every entry qualifying, in the order and at the block counts of
/// the signature route under an empty selection. **`plan.selection` is
/// ignored** — the ranking-first baseline opens this and verifies the
/// predicates itself, one popped tuple at a time.
pub fn open_unpruned<'a>(
    rtree: &'a RTree,
    disk: &'a DiskSim,
    plan: &QueryPlan<'a>,
) -> TopKCursor<'a> {
    let before = disk.stats().snapshot();
    let state = SigState::new(rtree, plan, Some(PruneState::over(Vec::new())), before);
    TopKCursor::new(Box::new(SigSearch { cube: None, rtree, disk, state }), plan.k)
}

/// A `(SignatureCube, RTree)` pair bound to a metering device: the
/// signature engine's [`RankedSource`]. Constructed per query via
/// [`SignatureCube::source`]; opening a cursor builds the lazy pruner
/// (consulting the cube's shared cross-query node cache) and charges its
/// root probe to the cursor's stats.
#[derive(Debug, Clone, Copy)]
pub struct SigSource<'a> {
    rtree: &'a RTree,
    cube: &'a SignatureCube,
    disk: &'a DiskSim,
}

impl SignatureCube {
    /// Binds this cube and its R-tree partition to a metering device as a
    /// [`RankedSource`]. `plan.ranking_dims` index the *relation's*
    /// ranking dimensions; the R-tree must cover them (it is built over all
    /// of them by default).
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
        let SigSource { rtree, cube, disk } = *self;
        let state = SigState::open(cube, rtree, disk, plan)?;
        Ok(TopKCursor::new(Box::new(SigSearch { cube: Some(cube), rtree, disk, state }), plan.k))
    }
}

/// A [`SigState`] bundled with the borrowed cube (`None`: nothing to prune
/// by), tree and device it steps over.
struct SigSearch<'a> {
    cube: Option<&'a SignatureCube>,
    rtree: &'a RTree,
    disk: &'a DiskSim,
    state: SigState<'a>,
}

impl ProgressiveSearch for SigSearch<'_> {
    fn advance(&mut self) -> Result<Option<(Tid, f64)>, StorageError> {
        self.state.advance(self.cube, self.rtree, self.disk)
    }

    fn stats(&self) -> QueryStats {
        self.state.stats(self.disk)
    }
}

/// Algorithm 3 as a resumable state machine. The branch-and-bound heap
/// already certifies answers on pop — a tuple entry's bound *is* its exact
/// score, so when one surfaces at the top of the min-heap no unexplored
/// subtree can beat it. [`Self::advance`] therefore pops and expands nodes
/// until a tuple surfaces and emits it; pausing keeps the heap and the
/// pruner's decoded-node memos alive, so `extend_k` resumes mid-descent.
///
/// The state borrows nothing of the cube or the tree it searches: each
/// step is handed them. So a cursor that owns the generation it serves
/// (the delta layer's) holds this beside it, and a borrowing one
/// ([`SigSource`]) holds it beside its references.
pub(crate) struct SigState<'f> {
    func: &'f dyn RankFn,
    /// Projection of R-tree dimensions onto the query's ranking dims.
    proj: Vec<usize>,
    /// `None`: some predicate selects an empty cell (or an empty
    /// intersection) — no tuple qualifies, the search never starts.
    pruner: Option<PruneState>,
    heap: std::collections::BinaryHeap<HeapItem>,
    /// `M + 1`, the base of SID arithmetic.
    sid_base: u64,
    /// Qualifying-entry mask of the node being expanded.
    mask: Vec<u64>,
    /// Projection scratch: one child region, then one tuple point, at a
    /// time — an expansion allocates nothing per entry.
    region: Rect,
    point: Vec<f64>,
    stats: QueryStats,
    before: IoSnapshot,
}

impl<'f> SigState<'f> {
    /// The search of `plan` over `cube` and `rtree`: its pruner built —
    /// the root probe charged to the search, I/O counted from here.
    pub(crate) fn open(
        cube: &SignatureCube,
        rtree: &RTree,
        disk: &DiskSim,
        plan: &QueryPlan<'f>,
    ) -> Result<Self, StorageError> {
        let before = disk.stats().snapshot();
        let pruner = cube.try_prune_state(plan.selection, disk)?;
        Ok(Self::new(rtree, plan, pruner, before))
    }

    fn new(
        rtree: &RTree,
        plan: &QueryPlan<'f>,
        pruner: Option<PruneState>,
        before: IoSnapshot,
    ) -> Self {
        let proj: Vec<usize> = plan.ranking_dims.to_vec();
        assert!(
            proj.iter().all(|&d| d < rtree.point_dims()),
            "query ranking dimension outside the R-tree"
        );
        let mut region = Rect::unit(proj.len());
        let mut heap = std::collections::BinaryHeap::new();
        if pruner.is_some() {
            let root = rtree.root();
            rtree.mbr(root).project_into(&proj, &mut region);
            let bound = plan.func.lower_bound(&region);
            heap.push(HeapItem { bound, entry: Entry::Node { n: root, sid: 0, level: 0 } });
        }
        Self {
            func: plan.func,
            point: Vec::with_capacity(proj.len()),
            proj,
            pruner,
            heap,
            sid_base: rtree.max_fanout() as u64 + 1,
            mask: Vec::new(),
            region,
            stats: QueryStats::default(),
            before,
        }
    }

    /// The next certified answer, over the `rtree` this search was opened
    /// on and — unless the search prunes by nothing — its `cube`.
    pub(crate) fn advance(
        &mut self,
        cube: Option<&SignatureCube>,
        rtree: &RTree,
        disk: &DiskSim,
    ) -> Result<Option<(Tid, f64)>, StorageError> {
        let Some(pruner) = self.pruner.as_mut() else {
            return Ok(None);
        };
        let at = cube.map(|cube| cube.probe(disk));
        while let Some(HeapItem { bound, entry }) = self.heap.pop() {
            let (n, sid, level) = match entry {
                Entry::Tuple { tid } => {
                    self.stats.tuples_scored += 1;
                    self.stats.peak_heap = self.stats.peak_heap.max(self.heap.len() as u64);
                    return Ok(Some((tid, bound)));
                }
                Entry::Node { n, sid, level } => (n, sid, level),
            };
            if let Some(at) = at {
                if !pruner.try_admit_node(at, sid, level)? {
                    continue;
                }
            }
            rtree.read_node(disk, n);
            self.stats.blocks_read += 1;
            let tuples = rtree.leaf_slice(n);
            let children = rtree.child_ids(n);
            let entries = tuples.len().max(children.len());
            let filtered = match at {
                Some(at) => pruner.try_node_mask(at, sid, &mut self.mask)?,
                None => false,
            };
            if !filtered {
                // No predicate: every entry qualifies.
                self.mask.clear();
                self.mask.resize(entries.div_ceil(64), u64::MAX);
            }
            // A bit at or past the entry count (the fill's last word, or a
            // corrupt signature) addresses nothing and ends the scan.
            for pos in iter_ones(&self.mask).take_while(|&pos| pos < entries) {
                let item = if let Some(&child) = children.get(pos) {
                    let child = NodeHandle(child);
                    rtree.mbr(child).project_into(&self.proj, &mut self.region);
                    let sid = sid * self.sid_base + pos as u64 + 1;
                    HeapItem {
                        bound: self.func.lower_bound(&self.region),
                        entry: Entry::Node { n: child, sid, level: level + 1 },
                    }
                } else {
                    let (tid, ref point) = tuples[pos];
                    self.point.clear();
                    self.point.extend(self.proj.iter().map(|&d| point[d]));
                    HeapItem { bound: self.func.score(&self.point), entry: Entry::Tuple { tid } }
                };
                self.heap.push(item);
                self.stats.states_generated += 1;
            }
            self.stats.peak_heap = self.stats.peak_heap.max(self.heap.len() as u64);
        }
        Ok(None)
    }

    /// Counters so far, I/O read off `disk` since open.
    pub(crate) fn stats(&self, disk: &DiskSim) -> QueryStats {
        let mut stats = self.stats;
        if let Some(pruner) = &self.pruner {
            stats.sig_loads = pruner.loads();
            stats.sig_bytes_decoded = pruner.bytes_decoded();
            stats.sig_nodes_decoded = pruner.nodes_decoded();
            stats.shared_node_hits = pruner.shared_node_hits();
        }
        stats.io = self.before.delta(&disk.stats().snapshot());
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
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

    /// Scores of [`scan`] over the whole relation.
    fn naive(
        rel: &Relation,
        sel: &Selection,
        f: &impl RankFn,
        dims: &[usize],
        k: usize,
    ) -> Vec<f64> {
        scan(rel, &|_| true, sel, f, dims, k).into_iter().map(|(_, s)| s).collect()
    }

    /// What `TableScan` answers: every live tuple matching `sel`, ascending
    /// `(score, tid)`, cut at `k`.
    fn scan(
        rel: &Relation,
        live: &dyn Fn(Tid) -> bool,
        sel: &Selection,
        f: &dyn RankFn,
        dims: &[usize],
        k: usize,
    ) -> Vec<(Tid, f64)> {
        let mut v: Vec<(Tid, f64)> = rel
            .tids()
            .filter(|&t| live(t) && sel.matches(rel, t))
            .map(|t| (t, f.score(&rel.ranking_point_proj(t, dims))))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    #[test]
    fn linear_queries_match_naive() {
        let (rel, disk, rtree, cube) = setup(2_000);
        let mut qg = QueryGen::new(WorkloadParams { num_ranking: 3, ..Default::default() });
        for spec in qg.batch(&rel, 8) {
            let f = Linear::new(spec.weights.clone());
            let q = Query::select(spec.selection.conds().to_vec())
                .rank_on(spec.ranking_dims.clone(), f)
                .top(10);
            let got = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
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
        let q = Query::select(sel.clone()).rank(fd).top(10);
        let got = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
        let want = naive(&rel, q.selection(), &SqDist::new(vec![0.4, 0.6, 0.1]), &[0, 1, 2], 10);
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
        // fg: (2X − Y − Z)² — non-monotone, non-convex.
        let fg = GeneralSq::mse3();
        let q = Query::select(sel).rank(fg).top(10);
        let got = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
        let want = naive(&rel, q.selection(), &GeneralSq::mse3(), &[0, 1, 2], 10);
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_predicate_cell_returns_no_answers() {
        let (_, disk, rtree, cube) = setup(200);
        let q = Query::select([(0, 99)]).rank(Linear::uniform(3)).top(10);
        let got = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
        assert!(got.items.is_empty());
        assert_eq!(got.stats.blocks_read, 0, "nothing should be fetched");
    }

    #[test]
    fn boolean_pruning_reduces_block_reads() {
        let (rel, disk, rtree, cube) = setup(3_000);
        // Highly selective conjunction.
        let q = Query::select([(0, 1), (1, 2), (2, 3)]).rank(Linear::uniform(3)).top(10);
        let with_sig = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
        // Same search without Boolean pruning: empty selection, then filter.
        let q_nosel = Query::all().rank(Linear::uniform(3)).top(rel.len());
        let all = cube.source(&rtree, &disk).query(&q_nosel.plan()).unwrap();
        assert!(with_sig.stats.blocks_read < all.stats.blocks_read);
    }

    #[test]
    fn multidim_selection_via_lazy_intersection() {
        let (rel, disk, rtree, cube) = setup(1_000);
        let q = Query::select([(0, 0), (2, 1)]).rank(Linear::uniform(3)).top(5);
        let got = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
        let want = naive(&rel, q.selection(), &Linear::uniform(3), &[0, 1, 2], 5);
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
            let q = Query::select(conds.clone()).rank(Linear::uniform(3)).top(10);
            let lazy = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
            let want =
                scan(&rel, &|_| true, q.selection(), q.plan().func, q.plan().ranking_dims, 10);
            assert_eq!(bits(&lazy.items), bits(&want), "answers diverged for {conds:?}");
            // What assembling the predicate would cost, off the catalog:
            // every partial of every cell loaded, every coded byte decoded.
            let cells = conds.iter().map(|&(d, v)| cube.cell_signature(&[d], &[v]).unwrap());
            let (eager_loads, eager_bytes) = cells.fold((0, 0), |(loads, bytes), stored| {
                (loads + stored.num_partials() as u64, bytes + stored.total_bits.div_ceil(8) as u64)
            });
            assert!(
                lazy.stats.sig_loads < eager_loads,
                "{conds:?}: lazy {} loads must undercut eager {eager_loads}",
                lazy.stats.sig_loads
            );
            assert!(
                lazy.stats.sig_bytes_decoded < eager_bytes,
                "{conds:?}: lazy {} bytes must undercut eager {eager_bytes}",
                lazy.stats.sig_bytes_decoded
            );
        }
    }

    proptest::proptest! {
        /// Top-k answers under the lazy intersection are the table scan's
        /// — what a search over the eagerly assembled signature answered —
        /// over random workloads.
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
            let q = Query::select(conds).rank(Linear::uniform(3)).top(k);
            let lazy = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
            let want = scan(&rel, &|_| true, q.selection(), q.plan().func, q.plan().ranking_dims, k);
            proptest::prop_assert_eq!(bits(&lazy.items), bits(&want));
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
        let q = Query::select([(0, 1), (1, 2)]).rank(Linear::uniform(3)).top(10);

        // Warm pass decodes and populates; repeat pass is served by the
        // shared cache — strictly fewer nodes decoded, identical answers.
        let cold = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
        assert!(cold.stats.sig_nodes_decoded > 0, "cold query must decode");
        let warm = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
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
        let off1 = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
        let off2 = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
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
        let q = Query::select([(1, 1)]).rank_on(vec![2], Linear::uniform(1)).top(5);
        let got = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
        let want = naive(&rel, q.selection(), &Linear::uniform(1), &[2], 5);
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }
    // ---- mask-driven search ≡ scan, Lemma 3, tie order --------------------

    /// Tids and score bits: equality is byte-identity of the answer.
    fn bits(items: &[(Tid, f64)]) -> Vec<(Tid, u64)> {
        items.iter().map(|&(t, s)| (t, s.to_bits())).collect()
    }

    /// `rel` with every ranking value rounded to a multiple of `1/steps`,
    /// so scores tie — between tuples and between a tuple and a node bound.
    fn quantized(rel: &Relation, steps: f64) -> Relation {
        let mut b = rcube_table::RelationBuilder::new(rel.schema().clone());
        for t in rel.tids() {
            let sel: Vec<u32> =
                (0..rel.schema().num_selection()).map(|d| rel.selection_value(t, d)).collect();
            let point: Vec<f64> =
                rel.ranking_point(t).iter().map(|v| (v * steps).round() / steps).collect();
            b.push(&sel, &point);
        }
        b.finish()
    }

    /// One `(rtree, cube)` pair and the tuples it is supposed to hold.
    struct Served<'a> {
        what: &'a str,
        rel: &'a Relation,
        live: &'a dyn Fn(Tid) -> bool,
        rtree: &'a RTree,
        cube: &'a SignatureCube,
        disk: &'a DiskSim,
    }

    impl Served<'_> {
        /// Every pruner shape against the scan: the serving pruner (no,
        /// one or several cursors by predicate count), and a cursor split
        /// at `k / 2` then extended.
        fn assert_search_equals_scan(&self, conds: &[(usize, u32)], f: &Linear, k: usize) {
            let Served { what, rel, live, rtree, cube, disk } = *self;
            for preds in 0..=conds.len() {
                let q = Query::select(conds[..preds].to_vec()).rank(f.clone()).top(k);
                let plan = q.plan();
                let want = bits(&scan(rel, live, plan.selection, f, plan.ranking_dims, k));
                let served = cube.source(rtree, disk).query(&plan).unwrap();
                assert_eq!(bits(&served.items), want, "{what}: serving pruner, {preds} predicates");
                let half = QueryPlan { k: k / 2, ..plan };
                let mut cursor = cube.source(rtree, disk).open(&half).unwrap();
                let mut paged = cursor.try_drain().unwrap().items;
                cursor.extend_k(k - k / 2);
                paged.extend(cursor.try_drain().unwrap().items);
                assert_eq!(bits(&paged), want, "{what}: split + extend_k, {preds} predicates");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(40))]

        /// The mask-driven search answers what a scan answers — tids and
        /// score bits — under every pruner kind, paged or not: in memory,
        /// reopened from a file, and after deletes spliced nodes out of
        /// the cell signatures (a missing SID is an empty mask). Fanouts
        /// put leaves on either side of one mask word, the small alphas
        /// cut every cell into many partials, and the quantized half of
        /// the cases is nothing but ties.
        #[test]
        fn proptest_mask_driven_search_equals_scan(
            tuples in 150usize..700,
            cardinality in 2u32..5,
            fanout in 0usize..5,
            alpha in 0usize..3,
            weights in proptest::collection::vec(-1.0f64..2.0, 3),
            k in 1usize..40,
            seed in 0u64..10_000,
        ) {
            let fanout = [5, 16, 40, 100, 130][fanout];
            let alpha = [0.01, 0.05, 0.75][alpha];
            let mut rel = SyntheticSpec {
                tuples, cardinality, ranking_dims: 3, seed, ..Default::default()
            }.generate();
            if seed.is_multiple_of(2) {
                rel = quantized(&rel, 8.0);
            }
            let f = Linear::new(weights);
            let conds: Vec<(usize, u32)> =
                (0..3).map(|d| (d, (seed >> (2 * d)) as u32 % cardinality)).collect();
            let disk = DiskSim::with_defaults();
            let mut rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(fanout));
            let mut cube = SignatureCube::build(
                &rel, &rtree, &disk, SignatureCubeConfig { alpha, ..Default::default() },
            );
            let all = |_: Tid| true;
            Served { what: "in memory", rel: &rel, live: &all, rtree: &rtree, cube: &cube, disk: &disk }
                .assert_search_equals_scan(&conds, &f, k);

            let mut path = std::env::temp_dir();
            path.push(format!("rcube_sigsearch_{}_{seed}_{tuples}", std::process::id()));
            cube.save_to(&rtree, &path).unwrap();
            {
                let (file_cube, file_rtree) = SignatureCube::open_from(&path).unwrap();
                let file_disk = DiskSim::with_defaults();
                Served {
                    what: "reopened",
                    rel: &rel,
                    live: &all,
                    rtree: &file_rtree,
                    cube: &file_cube,
                    disk: &file_disk,
                }
                .assert_search_equals_scan(&conds, &f, k);
            }
            std::fs::remove_file(&path).ok();

            // A third of the tuples go: leaves underflow, whole subtrees
            // leave some cells, their signature nodes are dropped.
            let gone = |t: Tid| (t as u64 * 7 + seed).is_multiple_of(3);
            for t in rel.tids().filter(|&t| gone(t)) {
                let updates = rtree.delete(&disk, t);
                crate::maintain::apply_path_updates(
                    &mut cube,
                    &updates,
                    |t| {
                        (0..rel.schema().num_selection())
                            .map(|d| rel.selection_value(t, d))
                            .collect()
                    },
                    &disk,
                ).unwrap();
            }
            let live = |t: Tid| !gone(t);
            Served { what: "spliced", rel: &rel, live: &live, rtree: &rtree, cube: &cube, disk: &disk }
                .assert_search_equals_scan(&conds, &f, k);
        }
    }

    /// What a brute-force walk of the tree says the search may touch.
    #[derive(Debug, Default)]
    struct TreeCount {
        /// Nodes passing the Boolean prune with `bound < s_k` / `≤ s_k`.
        below: u64,
        at_or_below: u64,
        /// Every node passing the Boolean prune.
        passing: u64,
        /// Entries a full drain pushes: qualifying tuples, plus — under
        /// passing internal nodes — children holding, for each predicate
        /// on its own, some matching tuple (the mask's candidate bit).
        pushed: u64,
    }

    /// Walks `n`'s subtree; returns, per predicate, whether some tuple
    /// under `n` matches it, and whether some tuple matches all of them.
    fn count_tree(
        rel: &Relation,
        rtree: &RTree,
        n: NodeHandle,
        sel: &Selection,
        f: &dyn RankFn,
        s_k: f64,
        out: &mut TreeCount,
    ) -> (Vec<bool>, bool) {
        let conds = sel.conds();
        let mut each = vec![false; conds.len()];
        let mut all = false;
        let mut pushed = 0;
        for &(tid, _) in rtree.leaf_slice(n) {
            let hits: Vec<bool> =
                conds.iter().map(|&(d, v)| rel.selection_value(tid, d) == v).collect();
            let qualifies = hits.iter().all(|&h| h);
            pushed += qualifies as u64;
            all |= qualifies;
            each.iter_mut().zip(hits).for_each(|(e, h)| *e |= h);
        }
        for child in rtree.children(n) {
            let (child_each, child_all) = count_tree(rel, rtree, child, sel, f, s_k, out);
            pushed += child_each.iter().all(|&e| e) as u64;
            all |= child_all;
            each.iter_mut().zip(child_each).for_each(|(e, c)| *e |= c);
        }
        if all {
            let bound = f.lower_bound(&rtree.region(n));
            out.passing += 1;
            out.below += (bound < s_k) as u64;
            out.at_or_below += (bound <= s_k) as u64;
            out.pushed += pushed;
        }
        (each, all)
    }

    /// Lemma 3 by brute force: the blocks read are the nodes passing both
    /// prunes, up to the ones whose bound ties the kth score; and nothing
    /// is pushed that the signature had ruled out.
    #[test]
    fn lemma_3_brackets_blocks_read_and_bounds_states_generated() {
        let fns: [(&str, Box<dyn RankFn>); 3] = [
            ("linear", Box::new(Linear::new(vec![1.0, 0.5, 2.0]))),
            ("sqdist", Box::new(SqDist::new(vec![0.4, 0.6, 0.1]))),
            ("general", Box::new(GeneralSq::mse3())),
        ];
        for (data, quantize) in [("continuous", false), ("quantized", true)] {
            let (rel, disk, rtree, cube) = setup(2_500);
            let (rel, rtree, cube) = if quantize {
                let rel = quantized(&rel, 8.0);
                let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
                let cube =
                    SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
                (rel, rtree, cube)
            } else {
                (rel, rtree, cube)
            };
            for conds in [vec![], vec![(0, 1)], vec![(0, 1), (1, 2)], vec![(0, 1), (1, 2), (2, 3)]]
            {
                for (name, f) in &fns {
                    for k in [1, 10, 60, rel.len()] {
                        let sel = Selection::new(conds.clone());
                        let plan = QueryPlan {
                            selection: &sel,
                            func: f.as_ref(),
                            ranking_dims: &[0, 1, 2],
                            k,
                            cuboids: None,
                        };
                        let got = cube.source(&rtree, &disk).query(&plan).unwrap();
                        let what = format!("{data} {name} {conds:?} k={k}");
                        let s_k = match got.items.last() {
                            Some(&(_, s)) if got.items.len() == k => s,
                            _ => f64::INFINITY, // ran dry: every passing node was read
                        };
                        let mut tree = TreeCount::default();
                        count_tree(&rel, &rtree, rtree.root(), &sel, f.as_ref(), s_k, &mut tree);
                        let blocks = got.stats.blocks_read;
                        assert!(
                            tree.below <= blocks && blocks <= tree.at_or_below,
                            "{what}: {} ≤ {blocks} ≤ {} broken",
                            tree.below,
                            tree.at_or_below
                        );
                        assert!(
                            got.stats.states_generated <= tree.pushed,
                            "{what}: pushed {} of at most {}",
                            got.stats.states_generated,
                            tree.pushed
                        );
                        if got.items.len() < k {
                            assert_eq!(blocks, tree.passing, "{what}: full drain");
                            assert_eq!(got.stats.states_generated, tree.pushed, "{what}");
                        }
                    }
                }
            }
        }
    }

    /// `blocks_read` on this module's fixed fixtures, as read at the commit
    /// before pruning moved to expansion: the move must not cost a block.
    #[test]
    fn blocks_read_on_fixed_fixtures_is_what_pop_time_pruning_read() {
        let (_, disk, rtree, cube) = setup(3_000);
        let q = Query::select([(0, 1), (1, 2), (2, 3)]).rank(Linear::uniform(3)).top(10);
        assert_eq!(cube.source(&rtree, &disk).query(&q.plan()).unwrap().stats.blocks_read, 31);
        let q = Query::all().rank(Linear::uniform(3)).top(10);
        assert_eq!(cube.source(&rtree, &disk).query(&q.plan()).unwrap().stats.blocks_read, 13);

        let (_, disk, rtree, cube) = setup(1_500);
        let q = Query::select([(0, 2)]).rank(SqDist::new(vec![0.4, 0.6, 0.1])).top(10);
        assert_eq!(cube.source(&rtree, &disk).query(&q.plan()).unwrap().stats.blocks_read, 13);
        let q = Query::select([(0, 2)]).rank(GeneralSq::mse3()).top(10);
        assert_eq!(cube.source(&rtree, &disk).query(&q.plan()).unwrap().stats.blocks_read, 53);

        let (_, disk, rtree, cube) = setup(1_000);
        let q = Query::select([(0, 0), (2, 1)]).rank(Linear::uniform(3)).top(5);
        assert_eq!(cube.source(&rtree, &disk).query(&q.plan()).unwrap().stats.blocks_read, 22);

        let (_, disk, rtree, cube) = setup(800);
        let q = Query::select([(1, 1)]).rank_on(vec![2], Linear::uniform(1)).top(5);
        assert_eq!(cube.source(&rtree, &disk).query(&q.plan()).unwrap().stats.blocks_read, 21);
    }

    /// A signature bit at or past the partition node's entry count — only
    /// a corrupt file has one — addresses nothing: the scan stops at the
    /// node's last entry instead of indexing past the leaf. A signature
    /// gone stale against its tree is that shape: deletes the cube never
    /// heard of shift a leaf's entries down and leave bits set behind them.
    #[test]
    fn mask_bits_past_the_entry_count_are_ignored() {
        let (rel, disk, mut rtree, cube) = setup(600);
        let mut live: std::collections::HashSet<Tid> = rel.tids().collect();
        for t in rel.tids().filter(|t| t % 2 == 0) {
            rtree.delete(&disk, t);
            live.remove(&t);
        }
        for conds in [vec![], vec![(0, 1)], vec![(0, 1), (1, 2)]] {
            let q = Query::select(conds).rank(Linear::uniform(3)).top(rel.len());
            let got = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
            assert!(got.tids().iter().all(|t| live.contains(t)), "an entry the tree holds");
        }
    }
}
