//! The unified progressive query surface: [`QueryPlan`], the [`Query`]
//! builder, the [`RankedSource`] operator and resumable [`TopKCursor`]s.
//!
//! The paper's defining trait is *semi-online* computation: top-k answers
//! are produced progressively, block by block, in bound-driven order. This
//! module makes that property visible in the API instead of burying it in
//! the executors. Every engine in the workspace — the grid cube (under any
//! cuboid choice, ranking fragments included), the signature cube, the
//! sharded and delta layers, index-merge and the evaluation baselines —
//! implements one operator, and it is the only way to ask any of them
//! anything:
//!
//! ```text
//! RankedSource::open(&self, plan: &QueryPlan) -> Result<TopKCursor, StorageError>
//! ```
//!
//! # The `RankedSource` contract
//!
//! * **Ordering.** [`TopKCursor::next`] emits `(tid, score)` pairs in
//!   ascending score order. An answer is emitted only once the engine has
//!   *certified* it: its score is no larger than the lower bound of every
//!   unexplored region of the search frontier, so no cheaper tuple can
//!   surface later. Ties on score may emit in any deterministic order.
//! * **Stats.** Each cursor carries its own [`QueryStats`]
//!   ([`TopKCursor::stats`]): the engine counters (`blocks_read`,
//!   `tuples_scored`, …) are strictly per-cursor and grow monotonically as
//!   it advances, so snapshotting them between pulls attributes cost to
//!   answer prefixes — the progressive bench (`BENCH_progressive.json`)
//!   gates time-to-first-answer and pagination I/O exactly this way. The
//!   `io` field follows the workspace's established metering semantics
//!   instead: it is a delta of the *shared* `DiskSim` counters since open
//!   (including pruner/plan setup), so on a device serving several
//!   concurrent queries it reflects device traffic over the cursor's
//!   window, not this cursor alone — use the engine counters for
//!   per-cursor attribution there.
//! * **Resume.** A cursor opened with `k` stops after `k` answers but
//!   *retains its frontier*. [`TopKCursor::extend_k`] raises the limit by
//!   `Δ` and the next pull resumes the bound-driven search from where it
//!   paused — pagination from `k` to `k + Δ` never re-reads the blocks the
//!   first `k` answers already paid for. For every engine,
//!   `take(j) + extend_k + take(k − j)` yields exactly the items of a fresh
//!   `take(k)` (proven per engine by `tests/progressive_cursor.rs`), and
//!   for the bound-driven engines the extension charges strictly less I/O
//!   than a fresh top-`(k + Δ)` query. (The rank-mapping baseline is the
//!   deliberate counterexample: its bound oracle depends on `k`, so an
//!   extension re-plans and re-reads — the order-sensitivity the paper
//!   criticizes.)
//!
//! A batch answer is the same operator drained: [`RankedSource::query`]
//! opens a cursor, pulls `k` answers and returns a [`TopKResult`].

use std::sync::Arc;

use rcube_func::RankFn;
use rcube_obs::QueryTrace;
use rcube_storage::StorageError;
use rcube_table::{Selection, Tid};

use crate::shard::FanoutReport;
use crate::{QueryStats, TopKResult};

/// A fully-specified top-k request, ready to hand to any [`RankedSource`].
///
/// Every field is a cheap borrow (a `Copy` view of a [`Query`], or a
/// literal over parts the caller already holds): engines clone the
/// selection and ranking-dimension list at [`RankedSource::open`] but keep
/// borrowing the ranking function, so the plan value itself may be dropped
/// once a cursor is open — only the function (and the source) must outlive
/// the cursor.
#[derive(Clone, Copy)]
pub struct QueryPlan<'q> {
    /// The Boolean selection (conjunction of equality predicates).
    pub selection: &'q Selection,
    /// The ad-hoc ranking function (scores are minimized).
    pub func: &'q dyn RankFn,
    /// Relation ranking dimensions the function reads, in argument order.
    pub ranking_dims: &'q [usize],
    /// Number of answers requested up front ([`TopKCursor::extend_k`]
    /// raises it later).
    pub k: usize,
    /// Explicit covering cuboid set (grid engines only). `None` lets the
    /// engine pick its own cover.
    pub cuboids: Option<&'q [Vec<usize>]>,
}

impl std::fmt::Debug for QueryPlan<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryPlan")
            .field("selection", &self.selection)
            .field("ranking_dims", &self.ranking_dims)
            .field("k", &self.k)
            .field("cuboids", &self.cuboids)
            .finish()
    }
}

/// The query-builder front door:
/// `Query::select([(0, 1)]).rank(Linear::uniform(2)).top(10)`.
///
/// A [`Query`] owns everything a [`QueryPlan`] borrows, so examples and
/// servers can build, store and reuse queries without wrestling with
/// lifetimes; [`Query::plan`] lends the plan out per execution.
pub struct Query {
    selection: Selection,
    func: Option<Box<dyn RankFn>>,
    ranking_dims: Vec<usize>,
    k: usize,
    cuboids: Option<Vec<Vec<usize>>>,
}

impl std::fmt::Debug for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Query")
            .field("selection", &self.selection)
            .field("ranking_dims", &self.ranking_dims)
            .field("k", &self.k)
            .field("cuboids", &self.cuboids)
            .finish()
    }
}

impl Query {
    /// Starts a query with the given `(dimension, value)` selection
    /// predicates. Panics on duplicate dimensions (malformed query).
    pub fn select(conds: impl IntoIterator<Item = (usize, u32)>) -> Self {
        Self {
            selection: Selection::new(conds.into_iter().collect()),
            func: None,
            ranking_dims: Vec::new(),
            k: 10,
            cuboids: None,
        }
    }

    /// Starts an unselective query (rank the whole relation).
    pub fn all() -> Self {
        Self::select([])
    }

    /// Adds one more equality predicate (the drill-down idiom).
    pub fn and(mut self, dim: usize, value: u32) -> Self {
        self.selection = self.selection.drill_down(dim, value);
        self
    }

    /// Sets the ranking function; ranking dimensions default to
    /// `0..f.arity()` in argument order.
    pub fn rank(mut self, f: impl RankFn + 'static) -> Self {
        self.ranking_dims = (0..f.arity()).collect();
        self.func = Some(Box::new(f));
        self
    }

    /// Sets the ranking function over an explicit subset of the relation's
    /// ranking dimensions (function arity must match).
    pub fn rank_on(mut self, dims: impl Into<Vec<usize>>, f: impl RankFn + 'static) -> Self {
        let dims = dims.into();
        assert_eq!(f.arity(), dims.len(), "function arity must match ranking dims");
        self.ranking_dims = dims;
        self.func = Some(Box::new(f));
        self
    }

    /// Sets the number of answers to produce up front (pagination can
    /// extend it later via [`TopKCursor::extend_k`]).
    pub fn top(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Forces an explicit covering cuboid set on grid engines.
    pub fn via_cuboids(mut self, cuboids: Vec<Vec<usize>>) -> Self {
        self.cuboids = Some(cuboids);
        self
    }

    /// The selection built so far.
    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// Requested answer count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Lends this query out as a [`QueryPlan`]. Panics when no ranking
    /// function was set (`rank` / `rank_on` are mandatory).
    pub fn plan(&self) -> QueryPlan<'_> {
        QueryPlan {
            selection: &self.selection,
            func: self.func.as_deref().expect("Query needs a ranking function: call .rank(...)"),
            ranking_dims: &self.ranking_dims,
            k: self.k,
            cuboids: self.cuboids.as_deref(),
        }
    }
}

/// The engine-side half of a [`TopKCursor`]: a paused, bound-driven search
/// that produces one certified answer per [`ProgressiveSearch::advance`]
/// call and can be resumed at any time.
///
/// Implementations must emit answers in ascending score order and keep
/// their frontier (heaps, buffers, memos) alive between calls so that
/// resuming is strictly cheaper than re-running.
pub trait ProgressiveSearch {
    /// Produces the next certified answer, advancing the frontier only as
    /// far as needed; `Ok(None)` once no qualifying tuple remains.
    fn advance(&mut self) -> Result<Option<(Tid, f64)>, StorageError>;

    /// Point-in-time execution counters (I/O measured since open).
    fn stats(&self) -> QueryStats;

    /// Tells the engine the cursor's current answer target. Bound-driven
    /// engines ignore this (their frontier already resumes); engines whose
    /// plan depends on `k` up front (rank-mapping's bound oracle) re-plan
    /// here.
    fn reserve(&mut self, _k: usize) {}

    /// What the search's scatter did per shard so far; `None` for every
    /// engine that is not a shard set.
    fn fanout(&self) -> Option<FanoutReport> {
        None
    }
}

/// A pull-based, resumable top-k cursor (see the module docs for the
/// ordering / stats / resume contract).
pub struct TopKCursor<'a> {
    search: Box<dyn ProgressiveSearch + Send + 'a>,
    limit: usize,
    emitted: usize,
    exhausted: bool,
    /// Attached query trace ([`Self::attach_trace`]); untraced cursors
    /// pay one branch per pull.
    trace: Option<Arc<QueryTrace>>,
    /// Stats at the previous trace event, so each event carries counter
    /// *deltas* — summing a field over the trace reconciles exactly with
    /// the final [`QueryStats`].
    traced_stats: QueryStats,
}

impl std::fmt::Debug for TopKCursor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopKCursor")
            .field("limit", &self.limit)
            .field("emitted", &self.emitted)
            .field("exhausted", &self.exhausted)
            .finish()
    }
}

impl<'a> TopKCursor<'a> {
    /// Wraps an engine search with an answer limit of `k`.
    pub fn new(mut search: Box<dyn ProgressiveSearch + Send + 'a>, k: usize) -> Self {
        search.reserve(k);
        Self {
            search,
            limit: k,
            emitted: 0,
            exhausted: false,
            trace: None,
            traced_stats: QueryStats::default(),
        }
    }

    /// Attaches a [`QueryTrace`]: every subsequent pull and extension
    /// records an ordered event carrying counter deltas since the
    /// previous one. The attach itself records a `cursor.attach` event
    /// holding the cost already sunk at open (pruner construction, plan
    /// setup), so `attach + Σ pull deltas = ` final [`Self::stats`].
    pub fn attach_trace(&mut self, trace: Arc<QueryTrace>) {
        let stats = self.search.stats();
        trace.event(
            "cursor.attach",
            &[
                ("k", self.limit as f64),
                ("blocks_read", stats.blocks_read as f64),
                ("tuples_scored", stats.tuples_scored as f64),
            ],
        );
        self.traced_stats = stats;
        self.trace = Some(trace);
    }

    /// The attached trace, if any.
    pub fn trace(&self) -> Option<&Arc<QueryTrace>> {
        self.trace.as_ref()
    }

    /// The next certified answer, or `None` once the limit is reached or
    /// the source has no more qualifying tuples. The limit keeps the
    /// frontier paused: [`Self::extend_k`] resumes it.
    pub fn try_next(&mut self) -> Result<Option<(Tid, f64)>, StorageError> {
        if self.emitted >= self.limit || self.exhausted {
            return Ok(None);
        }
        match self.search.advance()? {
            Some(item) => {
                self.emitted += 1;
                if self.trace.is_some() {
                    self.trace_pull("cursor.next", Some(item));
                }
                Ok(Some(item))
            }
            None => {
                self.exhausted = true;
                if self.trace.is_some() {
                    self.trace_pull("cursor.exhausted", None);
                }
                Ok(None)
            }
        }
    }

    /// Records one pull event with counter deltas since the last event.
    fn trace_pull(&mut self, name: &'static str, item: Option<(Tid, f64)>) {
        let stats = self.search.stats();
        let prev = self.traced_stats;
        let mut fields = vec![
            ("emitted", self.emitted as f64),
            ("blocks_read", (stats.blocks_read - prev.blocks_read) as f64),
            ("tuples_scored", (stats.tuples_scored - prev.tuples_scored) as f64),
        ];
        let nodes = stats.sig_nodes_decoded - prev.sig_nodes_decoded;
        if nodes > 0 {
            fields.push(("sig_nodes_decoded", nodes as f64));
        }
        let shared = stats.shared_node_hits - prev.shared_node_hits;
        if shared > 0 {
            fields.push(("shared_node_hits", shared as f64));
        }
        if let Some((tid, score)) = item {
            fields.push(("tid", tid as f64));
            fields.push(("score", score));
        }
        if let Some(trace) = &self.trace {
            trace.event(name, &fields);
        }
        self.traced_stats = stats;
    }

    /// Raises the answer limit by `delta`: the next pull resumes the
    /// bound-driven search from its paused frontier instead of re-running
    /// the query.
    pub fn extend_k(&mut self, delta: usize) {
        self.limit += delta;
        if let Some(trace) = &self.trace {
            trace.event("cursor.extend_k", &[("delta", delta as f64), ("k", self.limit as f64)]);
        }
        // Engines that plan for a fixed k (rank-mapping) re-plan here; a
        // source that had genuinely run dry may find more under the new
        // target, so the latch is cleared and advance() re-checks.
        self.search.reserve(self.limit);
        if delta > 0 {
            self.exhausted = false;
        }
    }

    /// Current answer limit (`k` plus every extension so far).
    pub fn k(&self) -> usize {
        self.limit
    }

    /// Answers emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Point-in-time execution counters: I/O since open plus the engine
    /// counters accumulated by the answers pulled so far.
    pub fn stats(&self) -> QueryStats {
        self.search.stats()
    }

    /// The per-shard fan-out of *this* cursor's query so far (sharded
    /// sources only) — unlike `ShardedCube::last_fanout`, never another
    /// client's.
    pub fn fanout(&self) -> Option<FanoutReport> {
        self.search.fanout()
    }

    /// Drains up to the current limit into a batch [`TopKResult`].
    pub fn try_drain(&mut self) -> Result<TopKResult, StorageError> {
        let mut items = Vec::with_capacity(self.limit.saturating_sub(self.emitted).min(1 << 20));
        while let Some(item) = self.try_next()? {
            items.push(item);
        }
        Ok(TopKResult { items, stats: self.stats() })
    }

    /// Panicking [`Self::try_drain`] (storage corruption is a
    /// `StorageError` on the `try_` path, a panic here).
    pub fn drain(&mut self) -> TopKResult {
        self.try_drain().unwrap_or_else(|e| panic!("storage error during query: {e}"))
    }
}

/// Iterating a cursor yields certified `(tid, score)` answers in ascending
/// score order up to the current limit. Storage corruption panics; use
/// [`TopKCursor::try_next`] on possibly-corrupt file-backed cubes.
impl Iterator for TopKCursor<'_> {
    type Item = (Tid, f64);

    fn next(&mut self) -> Option<(Tid, f64)> {
        self.try_next().unwrap_or_else(|e| panic!("storage error during query: {e}"))
    }
}

/// The single query operator every engine implements (A Formal Algebra for
/// OLAP argues for exactly this: a small closed operator set over cube
/// implementations). Sources are cheap bindings of an engine to its
/// metering device — `Copy` handles constructed per query, e.g.
/// [`crate::gridcube::GridRankingCube::source`].
pub trait RankedSource<'a> {
    /// Opens a resumable cursor over this source for `plan`. Any plan
    /// setup cost (pruner construction, oracle passes) is charged to the
    /// cursor's stats.
    fn open(&self, plan: &QueryPlan<'a>) -> Result<TopKCursor<'a>, StorageError>;

    /// Batch convenience: `open(plan)` drained to `plan.k` answers.
    fn query(&self, plan: &QueryPlan<'a>) -> Result<TopKResult, StorageError> {
        self.open(plan)?.try_drain()
    }
}

/// Min-heap adapter for `std::collections::BinaryHeap`: orders by
/// `(score, tid)` ascending, so `pop` yields the cheapest pending answer.
/// Shared by every engine's candidate buffer.
#[derive(Debug, PartialEq)]
pub struct MinScored(pub f64, pub Tid);

impl Eq for MinScored {}

impl Ord for MinScored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the minimum first.
        other.0.total_cmp(&self.0).then(other.1.cmp(&self.1))
    }
}

impl PartialOrd for MinScored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A trivially progressive search over a fully-computed, score-sorted
/// answer list — how the batch-natured baselines (table scan, Boolean
/// first, rank mapping) satisfy the [`RankedSource`] contract: all work
/// happens at open, `advance` just drains. Time-to-first-answer equals
/// full-query time, which is exactly the contrast the progressive bench
/// plots against the cubes.
#[derive(Debug)]
pub struct SortedDrain {
    items: Vec<(Tid, f64)>,
    pos: usize,
    stats: QueryStats,
}

impl SortedDrain {
    /// Wraps `items` (will be sorted by `(score, tid)` ascending) computed
    /// by a batch pass whose counters are `stats`.
    pub fn new(mut items: Vec<(Tid, f64)>, stats: QueryStats) -> Self {
        items.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        Self { items, pos: 0, stats }
    }
}

impl ProgressiveSearch for SortedDrain {
    fn advance(&mut self) -> Result<Option<(Tid, f64)>, StorageError> {
        let item = self.items.get(self.pos).copied();
        self.pos += item.is_some() as usize;
        Ok(item)
    }

    fn stats(&self) -> QueryStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_func::Linear;

    #[test]
    fn builder_assembles_plan() {
        let q = Query::select([(1, 2)]).and(0, 3).rank(Linear::uniform(2)).top(7);
        let plan = q.plan();
        assert_eq!(plan.selection.conds(), &[(0, 3), (1, 2)]);
        assert_eq!(plan.ranking_dims, &[0, 1]);
        assert_eq!(plan.k, 7);
        assert!(plan.cuboids.is_none());
    }

    #[test]
    fn builder_rank_on_projects_dims() {
        let q = Query::all().rank_on(vec![2], Linear::uniform(1)).top(3);
        assert_eq!(q.plan().ranking_dims, &[2]);
    }

    #[test]
    #[should_panic(expected = "needs a ranking function")]
    fn builder_without_rank_panics() {
        let _ = Query::all().plan();
    }

    #[test]
    #[should_panic(expected = "arity must match")]
    fn builder_rank_on_arity_mismatch_panics() {
        let _ = Query::all().rank_on(vec![0, 1], Linear::uniform(1));
    }

    #[test]
    fn sorted_drain_emits_in_score_order_and_resumes() {
        let drain = SortedDrain::new(vec![(3, 0.5), (1, 0.1), (2, 0.3)], QueryStats::default());
        let mut cursor = TopKCursor::new(Box::new(drain), 2);
        assert_eq!(cursor.try_next().unwrap(), Some((1, 0.1)));
        assert_eq!(cursor.try_next().unwrap(), Some((2, 0.3)));
        assert_eq!(cursor.try_next().unwrap(), None, "limit reached");
        cursor.extend_k(5);
        assert_eq!(cursor.try_next().unwrap(), Some((3, 0.5)));
        assert_eq!(cursor.try_next().unwrap(), None, "source dry");
        assert_eq!(cursor.emitted(), 3);
        assert_eq!(cursor.k(), 7);
    }

    #[test]
    fn zero_k_cursor_yields_nothing_until_extended() {
        let drain = SortedDrain::new(vec![(0, 1.0)], QueryStats::default());
        let mut cursor = TopKCursor::new(Box::new(drain), 0);
        assert_eq!(cursor.next(), None);
        cursor.extend_k(1);
        assert_eq!(cursor.next(), Some((0, 1.0)));
    }

    #[test]
    fn min_scored_orders_by_score_then_tid() {
        let mut h = std::collections::BinaryHeap::new();
        h.push(MinScored(2.0, 5));
        h.push(MinScored(1.0, 9));
        h.push(MinScored(1.0, 3));
        assert_eq!(h.pop().unwrap().1, 3);
        assert_eq!(h.pop().unwrap().1, 9);
        assert_eq!(h.pop().unwrap().1, 5);
    }
}
