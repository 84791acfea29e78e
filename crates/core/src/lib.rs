//! The ranking cube: rank-aware semi-offline materialization plus
//! semi-online top-k computation (Chapters 3 and 4 of the thesis).
//!
//! Two interchangeable implementations of the same framework
//! (Section 4.1.2):
//!
//! * **Grid partition + neighborhood search** — [`gridcube::GridRankingCube`]
//!   materializes tid/bid lists per cuboid cell over an equi-depth grid
//!   (Chapter 3). Which cuboids it materializes is a configuration:
//!   [`gridcube::CuboidSpec::Fragments`] is the linear-space
//!   semi-materialization for high selection dimensionality (Section 3.4),
//!   answered by the same cube through a covering set of cuboids.
//! * **Hierarchical partition + top-down search** —
//!   [`sigcube::SignatureCube`] materializes compressed bit-tree
//!   *signatures* over an R-tree (Chapter 4) and answers queries with
//!   branch-and-bound search under simultaneous ranking and Boolean
//!   pruning.
//!
//! The grid engines store their cell measures through [`idlist`] — the
//! compressed posting lists (zero-copy views, delta varints or a bitmap
//! by size, streaming k-way intersection) that back the grid cube's
//! retrieve step and the covering-set merge.
//!
//! Every engine answers queries through one operator surface: the
//! [`query::RankedSource`] trait opens a resumable, pull-based
//! [`query::TopKCursor`] from a [`query::QueryPlan`] (built ergonomically
//! via [`query::Query`]`::select(...).rank(...).top(k)`), making the
//! paper's progressive, semi-online computation visible in the API —
//! answers stream in score order, and `extend_k` paginates by resuming the
//! bound-driven frontier instead of re-running.
//! [`query::RankedSource::query`] drains a cursor into a batch
//! [`TopKResult`]. The [`query`] module documents the full ordering /
//! stats / resume contract.
//!
//! Cubes persist: `save_to` writes a cube into a single checksummed file
//! (`rcube_storage::format` describes the layout) and `open_from` reopens
//! it read-only in a fresh process with identical top-k answers — the
//! same query code running over buffer-pool frames instead of in-memory
//! maps. See [`gridcube::GridRankingCube::save_to`] and
//! [`sigcube::SignatureCube::save_to`].

pub mod coding;
pub mod delta;
pub mod gridcube;
pub mod idlist;
pub mod maintain;
pub mod nodecache;
pub mod query;
pub mod scheduler;
pub mod shard;
pub mod sigcube;
pub mod signature;
pub mod sigquery;
mod tuples;

pub use delta::{DeltaCube, DeltaOptions, DeltaSource, DeltaStats, FlushReport, ReplayReport};
pub use gridcube::{GridCubeConfig, GridRankingCube};
pub use nodecache::{NodeCacheStats, SharedNodeCache};
pub use query::{ProgressiveSearch, Query, QueryPlan, RankedSource, TopKCursor};
pub use scheduler::{vacuum_into_place, MaintenanceConfig, MaintenanceScheduler, VacuumReport};
pub use shard::{FanoutReport, Shard, ShardFanout, ShardedCube, ShardedCubeConfig, ShardedSource};
pub use sigcube::{ScrubOutcome, SignatureCube, SignatureCubeConfig};

use rcube_storage::IoSnapshot;
use rcube_table::Tid;

/// Execution counters every engine reports alongside its answers, mirroring
/// the cost metrics plotted in the evaluation chapters.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// I/O charged to the cursor's device between its open and this
    /// reading: the delta of a meter every cursor on that `DiskSim`
    /// shares. Exact for a client alone on its device; with concurrent
    /// clients it also holds what they charged in the same window (the
    /// other counters here are the cursor's own).
    pub io: IoSnapshot,
    /// Blocks / index nodes retrieved.
    pub blocks_read: u64,
    /// Tuples whose exact score was evaluated.
    pub tuples_scored: u64,
    /// Peak size of the candidate heap (Chapters 5/7 plots).
    pub peak_heap: u64,
    /// Search states generated (Chapter 5 plots).
    pub states_generated: u64,
    /// Partial-signature loads (Figure 7.12's loading-time breakdown).
    pub sig_loads: u64,
    /// Bytes of signature codings actually decoded, node by node — what
    /// `BENCH_sigcube.json` tracks against decoding whole cells.
    pub sig_bytes_decoded: u64,
    /// Individual signature nodes decoded on demand by the lazy read path
    /// (the per-query work a shared cache removes on repeat traffic).
    pub sig_nodes_decoded: u64,
    /// Probes answered by the cube's *shared* cross-query node cache —
    /// attributed separately from per-query memo hits: a shared hit skips
    /// the partial load and the decode entirely, charging no I/O
    /// (`BENCH_concurrency.json` tracks the resulting `nodes_decoded`
    /// reduction on repeated workloads).
    pub shared_node_hits: u64,
    /// Transient storage faults absorbed by bounded-backoff retry on the
    /// engine's open path: the query still succeeded, it just took extra
    /// attempts (`BENCH_recovery.json` tracks degradation visibility).
    pub path_retries: u64,
    /// Routes abandoned for the next-best one after a persistent storage
    /// fault (signature → grid → scan). Non-zero means the
    /// answer is correct but was computed by a degraded, usually slower
    /// access path.
    pub path_fallbacks: u64,
    /// Total nanoseconds the engine's retry ladder slept in backoff
    /// before this query succeeded — zero on the fast path, bounded by
    /// the engine's per-query backoff budget otherwise, so tail-latency
    /// spikes from transient-fault absorption are attributable.
    pub backoff_ns: u64,
    /// Shards whose cursor the scatter-gather merge actually opened —
    /// zero on unsharded paths, the fan-out width on sharded ones
    /// (`BENCH_shard.json` gates the per-shard pull bound against it).
    pub shards_opened: u64,
    /// Shards currently paused *above* the global threshold: their
    /// certified next answer scored worse than everything the merge still
    /// needs, so the bound pruned further pulls from them. Point-in-time,
    /// like every other counter here.
    pub shards_pruned: u64,
    /// Answers served from the delta layer's in-memory overlay (pending
    /// inserts not yet flushed into the base cube). Zero off the delta
    /// route.
    pub delta_mem_answers: u64,
    /// Answers served from the delta layer's pinned base generation.
    pub delta_base_answers: u64,
    /// Base answers suppressed by the delta merge because the tuple was
    /// deleted or superseded in the overlay — work the LSM split pays to
    /// stay byte-identical with a rebuilt cube.
    pub delta_masked: u64,
}

/// An answered top-k query: `(tid, score)` pairs in ascending score order.
#[derive(Debug, Clone)]
pub struct TopKResult {
    pub items: Vec<(Tid, f64)>,
    pub stats: QueryStats,
}

impl TopKResult {
    /// The answer tids in rank order.
    pub fn tids(&self) -> Vec<Tid> {
        self.items.iter().map(|&(t, _)| t).collect()
    }

    /// The answer scores in ascending order.
    pub fn scores(&self) -> Vec<f64> {
        self.items.iter().map(|&(_, s)| s).collect()
    }
}

/// Bounded max-heap that keeps the best (lowest-score) `k` tuples; the
/// `TopK` list of Algorithms 3–5.
#[derive(Debug)]
pub struct TopKHeap {
    k: usize,
    // Max-heap on score: the worst retained tuple sits at the root.
    heap: std::collections::BinaryHeap<ScoredTid>,
}

#[derive(Debug, PartialEq)]
struct ScoredTid(f64, Tid);

impl Eq for ScoredTid {}

impl Ord for ScoredTid {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl PartialOrd for ScoredTid {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl TopKHeap {
    pub fn new(k: usize) -> Self {
        Self { k, heap: std::collections::BinaryHeap::with_capacity(k + 1) }
    }

    /// Offers a scored tuple; keeps only the best `k`.
    pub fn offer(&mut self, tid: Tid, score: f64) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(ScoredTid(score, tid));
        } else if score < self.heap.peek().unwrap().0 {
            self.heap.pop();
            self.heap.push(ScoredTid(score, tid));
        }
    }

    /// The current kth-best score (`S_k`), or `+∞` while under-filled —
    /// the threshold against `S_unseen` in the stop condition.
    pub fn kth_score(&self) -> f64 {
        if self.heap.len() < self.k {
            f64::INFINITY
        } else {
            self.heap.peek().map_or(f64::INFINITY, |s| s.0)
        }
    }

    /// Number of retained tuples.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no tuple has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Extracts the answers in ascending score order.
    pub fn into_sorted(self) -> Vec<(Tid, f64)> {
        let mut v: Vec<(Tid, f64)> = self.heap.into_iter().map(|s| (s.1, s.0)).collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_func::Linear;

    #[test]
    fn topk_heap_keeps_best_k() {
        let mut h = TopKHeap::new(3);
        for (tid, s) in [(0, 5.0), (1, 1.0), (2, 3.0), (3, 0.5), (4, 4.0)] {
            h.offer(tid, s);
        }
        assert_eq!(h.kth_score(), 3.0);
        let sorted = h.into_sorted();
        assert_eq!(sorted, vec![(3, 0.5), (1, 1.0), (2, 3.0)]);
    }

    #[test]
    fn underfilled_heap_reports_infinite_threshold() {
        let mut h = TopKHeap::new(5);
        h.offer(0, 1.0);
        assert!(h.kth_score().is_infinite());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn ties_keep_first_seen() {
        // Equal scores do not evict retained tuples: any k of the ties is a
        // valid top-k, and we keep the earliest offers.
        let mut h = TopKHeap::new(2);
        h.offer(5, 1.0);
        h.offer(3, 1.0);
        h.offer(4, 1.0);
        let sorted = h.into_sorted();
        assert_eq!(sorted, vec![(3, 1.0), (5, 1.0)]);
    }

    #[test]
    fn zero_k_heap_accepts_nothing() {
        let mut h = TopKHeap::new(0);
        h.offer(0, 1.0);
        assert!(h.is_empty());
        assert_eq!(h.kth_score(), f64::INFINITY);
    }

    #[test]
    fn query_defaults_ranking_dims_from_arity() {
        let q = Query::select([(0, 1)]).rank(Linear::uniform(3)).top(10);
        assert_eq!(q.plan().ranking_dims, vec![0, 1, 2]);
        assert_eq!(q.k(), 10);
    }

    #[test]
    #[should_panic(expected = "arity must match")]
    fn mismatched_ranking_dims_panics() {
        let _ = Query::all().rank_on(vec![0], Linear::uniform(2)).top(5);
    }
}

/// Section 3.4's claims about ranking fragments, held on what a fragment
/// set is: a [`GridRankingCube`] built with
/// [`gridcube::CuboidSpec::Fragments`].
#[cfg(test)]
mod fragments {
    mod tests {
        use rcube_func::Linear;
        use rcube_storage::DiskSim;
        use rcube_table::gen::SyntheticSpec;
        use rcube_table::{Relation, Selection};

        use crate::gridcube::{CuboidSpec, GridCubeConfig, GridRankingCube};
        use crate::query::{Query, RankedSource};

        fn build(s: usize, f: usize, t: usize) -> (Relation, DiskSim, GridRankingCube) {
            let rel = SyntheticSpec {
                tuples: t,
                selection_dims: s,
                cardinality: 5,
                ..Default::default()
            }
            .generate();
            let disk = DiskSim::with_defaults();
            let config = GridCubeConfig {
                block_size: 64,
                cuboids: CuboidSpec::Fragments(f),
                ..Default::default()
            };
            let cube = GridRankingCube::build(&rel, &disk, config);
            (rel, disk, cube)
        }

        /// Fragments a selection touches (Figure 3.12's x-axis): the size
        /// of its covering cuboid set.
        fn covering_fragments(cube: &GridRankingCube, conds: &[(usize, u32)]) -> usize {
            cube.covering_cuboids(&Selection::new(conds.to_vec())).map_or(0, |c| c.len())
        }

        /// `⌈S/F⌉`, read off the cube: a selection on every dimension is
        /// covered by each fragment's top cuboid.
        fn num_fragments(cube: &GridRankingCube, s: usize) -> usize {
            covering_fragments(cube, &(0..s).map(|d| (d, 0)).collect::<Vec<_>>())
        }

        /// The scores a scan of `rel` ranks first under `x + y`.
        fn naive_sum_topk(rel: &Relation, sel: &Selection, k: usize) -> Vec<f64> {
            let mut want: Vec<f64> = rel
                .tids()
                .filter(|&t| sel.matches(rel, t))
                .map(|t| rel.ranking_value(t, 0) + rel.ranking_value(t, 1))
                .collect();
            want.sort_by(f64::total_cmp);
            want.truncate(k);
            want
        }

        fn assert_matches_naive(rel: &Relation, disk: &DiskSim, cube: &GridRankingCube, q: &Query) {
            let got = cube.source(disk).query(&q.plan()).unwrap();
            let want = naive_sum_topk(rel, q.selection(), q.k());
            assert_eq!(got.items.len(), want.len());
            for (g, w) in got.scores().iter().zip(&want) {
                assert!((g - w).abs() < 1e-9);
            }
        }

        #[test]
        fn fragment_count() {
            // (S, F) → ⌈S/F⌉ fragments of 2^|chunk| − 1 cuboids each.
            for (s, f, fragments, cuboids) in [(12, 2, 6, 18), (12, 3, 4, 28), (5, 2, 3, 7)] {
                let (_, _, cube) = build(s, f, 200);
                assert_eq!(num_fragments(&cube, s), fragments);
                assert_eq!(cube.cuboid_dims().len(), cuboids);
            }
        }

        #[test]
        fn covering_fragment_counts() {
            let (_, _, cube) = build(6, 2, 300);
            // Dims 0,1 share a fragment: 1 covering cuboid.
            assert_eq!(covering_fragments(&cube, &[(0, 1), (1, 2)]), 1);
            // Dims 0,2 span two fragments.
            assert_eq!(covering_fragments(&cube, &[(0, 1), (2, 2)]), 2);
            // Dims 1,2,4 span three fragments.
            assert_eq!(covering_fragments(&cube, &[(1, 0), (2, 2), (4, 1)]), 3);
        }

        #[test]
        fn space_grows_linearly_with_dimensions() {
            // Lemma 2: fixed F ⇒ space linear in S.
            let sizes: Vec<usize> = [3usize, 6, 9, 12]
                .iter()
                .map(|&s| build(s, 2, 1_000).2.materialized_bytes())
                .collect();
            // Consecutive increments should be roughly equal (within 2×), far
            // from the exponential growth of a full cube.
            let d1 = sizes[1] as f64 - sizes[0] as f64;
            let d3 = sizes[3] as f64 - sizes[2] as f64;
            assert!(d1 > 0.0 && d3 > 0.0);
            assert!(d3 / d1 < 2.0, "increments {d1} vs {d3} suggest super-linear growth");
        }

        #[test]
        fn wide_fan_intersection_matches_naive() {
            // Six fragments of size 1: every multi-condition query leapfrogs a
            // 3+-cursor fan through the streaming intersector.
            let (rel, disk, cube) = build(6, 1, 1_500);
            assert_eq!(num_fragments(&cube, 6), 6);
            let conds = [(0, 1), (1, 2), (2, 0), (3, 3), (4, 1)];
            assert_eq!(covering_fragments(&cube, &conds), 5);
            let q = Query::select(conds).rank(Linear::uniform(2)).top(10);
            assert_matches_naive(&rel, &disk, &cube, &q);
        }

        #[test]
        fn impossible_selection_returns_empty() {
            // A value outside every cell: the covering intersection must
            // short-circuit on the absent cell, not panic or over-read.
            let (rel, disk, cube) = build(4, 2, 400);
            let q = Query::select([(0, 4), (2, 4), (3, 4)]).rank(Linear::uniform(2)).top(5);
            let got = cube.source(&disk).query(&q.plan()).unwrap();
            let matching = rel.tids().filter(|&t| q.selection().matches(&rel, t)).count();
            assert_eq!(got.items.len(), matching.min(5));
        }

        #[test]
        fn fragments_survive_save_and_reopen() {
            let (_, disk, cube) = build(6, 2, 1_200);
            let mut path = std::env::temp_dir();
            path.push(format!("rcube_fragments_{}", std::process::id()));
            cube.save_to_with(&path, 1024, 64).expect("save");
            let reopened = GridRankingCube::open_from_with(&path, 64).expect("open");
            assert_eq!(reopened.cuboid_dims(), cube.cuboid_dims());
            assert_eq!(num_fragments(&reopened, 6), 3);
            let q = Query::select([(0, 1), (3, 2), (5, 0)]).rank(Linear::uniform(2)).top(10);
            let mem = cube.source(&disk).query(&q.plan()).unwrap();
            let file = reopened.source(&DiskSim::with_defaults()).query(&q.plan()).unwrap();
            assert_eq!(mem.items.len(), file.items.len());
            for ((t1, s1), (t2, s2)) in mem.items.iter().zip(&file.items) {
                assert_eq!(t1, t2);
                assert_eq!(s1.to_bits(), s2.to_bits());
            }
            std::fs::remove_file(&path).ok();
        }

        #[test]
        fn cross_fragment_query_matches_naive() {
            let (rel, disk, cube) = build(6, 2, 2_000);
            let q = Query::select([(0, 1), (3, 2), (5, 0)]).rank(Linear::uniform(2)).top(10);
            assert_matches_naive(&rel, &disk, &cube, &q);
        }
    }
}
