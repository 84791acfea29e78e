//! The rank-mapping baseline (Section 3.5.1, after [14]).
//!
//! A top-k query `ORDER BY f` maps to a *range query* `N1 ≤ n1 ∧ …` whose
//! bounds are chosen so that the true top-k answers fall inside the range.
//! The thesis makes the comparison "extremely conservative" by feeding the
//! approach **optimal** bounds — derived from the true kth score — which is
//! the best any workload-adaptive mapping could achieve; we do the same
//! (the oracle pass is not charged).
//!
//! Execution model: a clustered composite index on
//! `(A1, …, AS, bin(N1), …, bin(NR))`. Matching tuples form contiguous runs
//! in index order; the engine charges one B-tree descent plus the pages of
//! each run. Queries that bind a prefix of the index dimensions touch few
//! runs; queries skipping leading dimensions fragment into many runs —
//! reproducing the order-sensitivity reported in Figures 3.7/3.9.

use rcube_core::query::{ProgressiveSearch, QueryPlan, RankedSource, TopKCursor};
use rcube_core::{QueryStats, TopKHeap};
use rcube_func::{Linear, RankFn};
use rcube_storage::{DiskSim, IoSnapshot, StorageError};
use rcube_table::{Relation, Selection, Tid};

use crate::rows_per_page;

/// Bins per ranking dimension in the composite key.
const RANK_BINS: u32 = 64;

/// The rank-mapping evaluator.
#[derive(Debug)]
pub struct RankMapping {
    /// Tids in composite-key order (the clustered index).
    order: Vec<Tid>,
    /// tid → position in `order`.
    position: Vec<u32>,
    /// Simulated B-tree descent cost (pages per probe).
    descent: u64,
    rows_per_page: usize,
}

impl RankMapping {
    /// Builds the clustered composite index.
    pub fn build(rel: &Relation, disk: &DiskSim) -> Self {
        let mut order: Vec<Tid> = rel.tids().collect();
        order.sort_by_cached_key(|&t| composite_key(rel, t));
        let mut position = vec![0u32; rel.len()];
        for (pos, &t) in order.iter().enumerate() {
            position[t as usize] = pos as u32;
        }
        let rpp = rows_per_page(rel, disk.page_size());
        let leaves = rel.len().div_ceil(rpp).max(1);
        // Charge construction writes.
        for _ in 0..leaves {
            disk.write(disk.alloc_page());
        }
        let descent = ((leaves as f64).log(64.0).ceil() as u64).max(1);
        Self { order, position, descent, rows_per_page: rpp }
    }

    /// Binds the mapping to its relation and metering device as a
    /// [`RankedSource`] answering with **optimal** range bounds for a
    /// linear function. The bound oracle depends on `k`, so this source
    /// is the workspace's deliberate *non*-resumable engine: `extend_k`
    /// re-plans with wider bounds and re-reads the matching runs — the
    /// top-k → range-query transformation cannot paginate, exactly the
    /// order-sensitivity the paper criticizes (and the progressive bench
    /// records as the contrast to the cubes).
    ///
    /// Plans routed here must carry a linear ranking function.
    pub fn source<'a>(&'a self, rel: &'a Relation, disk: &'a DiskSim) -> RankMappingSource<'a> {
        RankMappingSource { rm: self, rel, disk }
    }

    /// One range-query execution planned for `k` answers: computes the
    /// optimal bounds via the uncharged oracle pass (as the thesis grants
    /// this baseline), charges descent + run pages, and returns every
    /// retrieved scored tuple. Only the first `k` of the sorted result are
    /// certified answers — tuples beyond the kth may lose to out-of-bounds
    /// tuples the range query never retrieved.
    #[allow(clippy::too_many_arguments)]
    fn run_range_query(
        &self,
        rel: &Relation,
        disk: &DiskSim,
        selection: &Selection,
        func: &Linear,
        ranking_dims: &[usize],
        k: usize,
        stats: &mut QueryStats,
    ) -> Vec<(Tid, f64)> {
        // Oracle: the true kth score (not charged).
        let mut oracle = TopKHeap::new(k);
        for t in rel.tids() {
            if selection.matches(rel, t) {
                oracle.offer(t, func.score(&rel.ranking_point_proj(t, ranking_dims)));
            }
        }
        let s_star = if oracle.len() < k { f64::INFINITY } else { oracle.kth_score() };

        // Optimal per-dimension bounds: wi·Ni ≤ s* − Σ_{j≠i} wj·min_j ⇒ for
        // the unit domain with non-negative weights, ni = s*/wi.
        let bounds: Vec<f64> = func
            .weights()
            .iter()
            .map(|&w| if w > 0.0 { (s_star / w).min(1.0) } else { 1.0 })
            .collect();

        // Range query: selection ∧ Ni ≤ ni over the clustered index.
        let matches: Vec<u32> = rel
            .tids()
            .filter(|&t| {
                selection.matches(rel, t)
                    && ranking_dims.iter().zip(&bounds).all(|(&d, &b)| rel.ranking_value(t, d) <= b)
            })
            .map(|t| self.position[t as usize])
            .collect();

        // Charge I/O: runs of consecutive index positions.
        let mut sorted = matches.clone();
        sorted.sort_unstable();
        let mut runs = 0u64;
        let mut pages = 0u64;
        let mut i = 0usize;
        while i < sorted.len() {
            let start = sorted[i];
            let mut end = start;
            while i + 1 < sorted.len() && sorted[i + 1] <= end + self.rows_per_page as u32 {
                i += 1;
                end = sorted[i];
            }
            runs += 1;
            pages += u64::from(end - start) / self.rows_per_page as u64 + 1;
            i += 1;
        }
        for _ in 0..runs * self.descent + pages {
            disk.read(disk.alloc_page()); // distinct pages: always misses
        }
        stats.blocks_read += runs * self.descent + pages;

        // Score the retrieved tuples.
        let mut items = Vec::with_capacity(sorted.len());
        for &pos in &sorted {
            let tid = self.order[pos as usize];
            let score = func.score(&rel.ranking_point_proj(tid, ranking_dims));
            items.push((tid, score));
            stats.tuples_scored += 1;
        }
        items.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        items
    }
}

/// A [`RankMapping`] bound to its relation and metering device: the
/// rank-mapping baseline's [`RankedSource`].
#[derive(Debug, Clone, Copy)]
pub struct RankMappingSource<'a> {
    rm: &'a RankMapping,
    rel: &'a Relation,
    disk: &'a DiskSim,
}

impl<'a> RankedSource<'a> for RankMappingSource<'a> {
    fn open(&self, plan: &QueryPlan<'a>) -> Result<TopKCursor<'a>, StorageError> {
        let weights = plan
            .func
            .linear_weights()
            .expect("rank-mapping supports linear ranking functions only")
            .to_vec();
        let search = RankMapSearch {
            rm: self.rm,
            rel: self.rel,
            disk: self.disk,
            selection: plan.selection.clone(),
            func: Linear::new(weights),
            ranking_dims: plan.ranking_dims.to_vec(),
            planned: None,
            items: Vec::new(),
            pos: 0,
            stats: QueryStats::default(),
            before: self.disk.stats().snapshot(),
        };
        Ok(TopKCursor::new(Box::new(search), plan.k))
    }
}

/// Rank-mapping's drain: executes the range query for the cursor's current
/// target `k` and re-executes with wider bounds whenever
/// [`ProgressiveSearch::reserve`] raises the target past what the bounds
/// certified — accumulating fresh descent/run I/O each time.
struct RankMapSearch<'a> {
    rm: &'a RankMapping,
    rel: &'a Relation,
    disk: &'a DiskSim,
    selection: Selection,
    func: Linear,
    ranking_dims: Vec<usize>,
    /// The `k` the current bounds were derived for (`None`: not run yet).
    planned: Option<usize>,
    /// All retrieved tuples, `(score, tid)`-sorted; only the first
    /// `planned` are certified answers.
    items: Vec<(Tid, f64)>,
    pos: usize,
    stats: QueryStats,
    before: IoSnapshot,
}

impl ProgressiveSearch for RankMapSearch<'_> {
    fn advance(&mut self) -> Result<Option<(Tid, f64)>, StorageError> {
        let certified = self.planned.unwrap_or(0).min(self.items.len());
        if self.pos >= certified {
            return Ok(None);
        }
        let item = self.items[self.pos];
        self.pos += 1;
        Ok(Some(item))
    }

    fn stats(&self) -> QueryStats {
        let mut stats = self.stats;
        stats.io = self.before.delta(&self.disk.stats().snapshot());
        stats
    }

    fn reserve(&mut self, k: usize) {
        if self.planned.is_some_and(|p| p >= k) {
            return;
        }
        if k == 0 {
            // Nothing certifiable: don't run the oracle + range scan
            // (k = 0 collapses the bounds to the whole domain).
            self.planned = Some(0);
            return;
        }
        // Re-plan: wider bounds for the larger k, a fresh descent and a
        // fresh run scan. The sorted prefix already emitted is stable (it
        // is the true top-`pos`), so emission continues in place.
        self.planned = Some(k);
        self.items = self.rm.run_range_query(
            self.rel,
            self.disk,
            &self.selection,
            &self.func,
            &self.ranking_dims,
            k,
            &mut self.stats,
        );
    }
}

fn composite_key(rel: &Relation, t: Tid) -> Vec<u32> {
    let mut key = Vec::with_capacity(rel.schema().num_selection() + rel.schema().num_ranking());
    for d in 0..rel.schema().num_selection() {
        key.push(rel.selection_value(t, d));
    }
    for d in 0..rel.schema().num_ranking() {
        let v = rel.ranking_value(t, d).clamp(0.0, 1.0);
        key.push(((v * RANK_BINS as f64) as u32).min(RANK_BINS - 1));
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_core::query::Query;
    use rcube_table::gen::SyntheticSpec;

    #[test]
    fn optimal_bounds_recover_exact_topk() {
        let rel = SyntheticSpec { tuples: 2_000, cardinality: 6, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rm = RankMapping::build(&rel, &disk);
        let q = Query::select([(0, 2)]).rank(Linear::new(vec![1.0, 2.0])).top(10);
        let res = rm.source(&rel, &disk).query(&q.plan()).unwrap();
        let mut want: Vec<f64> = rel
            .tids()
            .filter(|&t| q.selection().matches(&rel, t))
            .map(|t| rel.ranking_value(t, 0) + 2.0 * rel.ranking_value(t, 1))
            .collect();
        want.sort_by(f64::total_cmp);
        want.truncate(10);
        assert_eq!(res.scores().len(), want.len());
        for (g, w) in res.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn larger_k_reads_more() {
        let rel = SyntheticSpec { tuples: 5_000, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rm = RankMapping::build(&rel, &disk);
        let top = |k| Query::select([(0, 1)]).rank(Linear::uniform(2)).top(k);
        let small = rm.source(&rel, &disk).query(&top(5).plan()).unwrap();
        let large = rm.source(&rel, &disk).query(&top(50).plan()).unwrap();
        assert!(large.stats.blocks_read >= small.stats.blocks_read);
    }

    #[test]
    fn prefix_bound_queries_touch_fewer_runs() {
        // Binding the leading index dimension (A1) clusters matches;
        // binding only a later dimension fragments them.
        let rel = SyntheticSpec { tuples: 4_000, cardinality: 10, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rm = RankMapping::build(&rel, &disk);
        let on = |dim| Query::select([(dim, 3)]).rank(Linear::uniform(2)).top(10);
        let lead = rm.source(&rel, &disk).query(&on(0).plan()).unwrap();
        let trail = rm.source(&rel, &disk).query(&on(2).plan()).unwrap();
        assert!(
            trail.stats.blocks_read > lead.stats.blocks_read,
            "non-prefix selections must fragment the range scan ({} vs {})",
            trail.stats.blocks_read,
            lead.stats.blocks_read
        );
    }

    #[test]
    fn underfull_answer_sets_widen_bounds() {
        let rel = SyntheticSpec { tuples: 300, cardinality: 40, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rm = RankMapping::build(&rel, &disk);
        // Very selective: likely fewer than k matches — bounds become the
        // whole domain and the query still returns every match.
        let q = Query::select([(0, 5), (1, 5)]).rank(Linear::uniform(2)).top(10);
        let res = rm.source(&rel, &disk).query(&q.plan()).unwrap();
        let matching = rel.tids().filter(|&t| q.selection().matches(&rel, t)).count();
        assert_eq!(res.items.len(), matching.min(10));
    }
}
