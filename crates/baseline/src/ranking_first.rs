//! The ranking-first strategy ("Ranking" in Section 4.4).
//!
//! The engine's own Algorithm 3 ([`rcube_core::sigquery`]) run with **no**
//! Boolean pruning — so the search order, the blocks read and the
//! `(score, tid)` tie rule are the signature method's by construction —
//! behind a filter that verifies the predicates tuple-at-a-time by random
//! access, and only for tuples already certified as the next candidate
//! (popped from the heap), which provably minimizes the number of
//! verifications.

use rcube_core::query::{ProgressiveSearch, QueryPlan, RankedSource, TopKCursor};
use rcube_core::sigquery::open_unpruned;
use rcube_core::QueryStats;
use rcube_index::rtree::RTree;
use rcube_storage::{DiskSim, StorageError};
use rcube_table::{Relation, Selection, Tid};

/// Ranking-first evaluator over an R-tree.
#[derive(Debug)]
pub struct RankingFirst;

impl RankingFirst {
    /// Binds an R-tree, relation and metering device as a
    /// [`RankedSource`]: progressive R-tree retrieval + late Boolean
    /// verification. Unlike the other baselines this one is genuinely
    /// progressive — the branch-and-bound heap certifies each tuple on
    /// pop, verification happens lazily, and `extend_k` resumes
    /// mid-descent — it just lacks Boolean pruning, paying one random
    /// access per candidate the signature cube would have pruned.
    pub fn source<'a>(
        rtree: &'a RTree,
        rel: &'a Relation,
        disk: &'a DiskSim,
    ) -> RankingFirstSource<'a> {
        RankingFirstSource { rtree, rel, disk }
    }
}

/// The `Ranking` baseline's [`RankedSource`].
#[derive(Debug, Clone, Copy)]
pub struct RankingFirstSource<'a> {
    rtree: &'a RTree,
    rel: &'a Relation,
    disk: &'a DiskSim,
}

impl<'a> RankedSource<'a> for RankingFirstSource<'a> {
    fn open(&self, plan: &QueryPlan<'a>) -> Result<TopKCursor<'a>, StorageError> {
        // The unpruned search has no answer limit of its own: how far it
        // runs is decided by how many of its tuples verify.
        let ranked = open_unpruned(self.rtree, self.disk, &QueryPlan { k: usize::MAX, ..*plan });
        let search = VerifyOnPop {
            ranked,
            rel: self.rel,
            disk: self.disk,
            selection: plan.selection.clone(),
        };
        Ok(TopKCursor::new(Box::new(search), plan.k))
    }
}

/// Late Boolean verification: each tuple the unpruned search certifies
/// costs one random access, and is emitted only when it matches.
struct VerifyOnPop<'a> {
    ranked: TopKCursor<'a>,
    rel: &'a Relation,
    disk: &'a DiskSim,
    selection: Selection,
}

impl ProgressiveSearch for VerifyOnPop<'_> {
    fn advance(&mut self) -> Result<Option<(Tid, f64)>, StorageError> {
        while let Some((tid, score)) = self.ranked.try_next()? {
            self.disk.random_access();
            if self.selection.matches(self.rel, tid) {
                return Ok(Some((tid, score)));
            }
        }
        Ok(None)
    }

    /// The search's counters; `tuples_scored` is every tuple it certified,
    /// that is, every verification paid for. Its I/O window spans the
    /// random accesses charged here (same device, opened before them).
    fn stats(&self) -> QueryStats {
        self.ranked.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_core::query::Query;
    use rcube_func::{Linear, RankFn, SqDist};
    use rcube_index::rtree::RTreeConfig;
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::Selection;

    fn naive(rel: &Relation, sel: &Selection, f: &impl RankFn, k: usize) -> Vec<f64> {
        let mut v: Vec<f64> = rel
            .tids()
            .filter(|&t| sel.matches(rel, t))
            .map(|t| f.score(&rel.ranking_point(t)))
            .collect();
        v.sort_by(f64::total_cmp);
        v.truncate(k);
        v
    }

    #[test]
    fn matches_naive() {
        let rel = SyntheticSpec { tuples: 2_000, cardinality: 5, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
        for f in [Linear::new(vec![1.0, 2.0]), Linear::new(vec![0.5, 0.1])] {
            let q = Query::select([(0, 2), (1, 3)]).rank(f.clone()).top(10);
            let got = RankingFirst::source(&rtree, &rel, &disk).query(&q.plan()).unwrap();
            let want = naive(&rel, q.selection(), &f, 10);
            assert_eq!(got.items.len(), want.len());
            for (g, w) in got.scores().iter().zip(&want) {
                assert!((g - w).abs() < 1e-9);
            }
        }
    }

    /// `blocks_read` / random accesses on this module's fixtures, as read
    /// at the commit whose ranking-first kept its own copy of the search
    /// loop: running the engine's search instead costs not a block and not
    /// a verification more.
    #[test]
    fn blocks_and_verifications_are_what_the_bespoke_search_read() {
        let disk = DiskSim::with_defaults();
        let cost = |rtree: &RTree, rel: &Relation, q: &Query| {
            let r = RankingFirst::source(rtree, rel, &disk).query(&q.plan()).unwrap();
            (r.stats.blocks_read, r.stats.io.random_accesses)
        };
        let rel = SyntheticSpec { tuples: 2_000, cardinality: 5, ..Default::default() }.generate();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
        let q = Query::select([(0, 2), (1, 3)]).rank(Linear::new(vec![1.0, 2.0])).top(10);
        assert_eq!(cost(&rtree, &rel, &q), (43, 206));
        let q = Query::select([(0, 2), (1, 3)]).rank(Linear::new(vec![0.5, 0.1])).top(10);
        assert_eq!(cost(&rtree, &rel, &q), (30, 187));

        let rel = SyntheticSpec { tuples: 3_000, cardinality: 10, ..Default::default() }.generate();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
        let f = SqDist::new(vec![0.5, 0.5]);
        let q = Query::select([(0, 1)]).rank(f.clone()).top(10);
        assert_eq!(cost(&rtree, &rel, &q), (34, 148));
        let q = Query::select([(0, 1), (1, 1), (2, 1)]).rank(f).top(10);
        assert_eq!(cost(&rtree, &rel, &q), (274, 3_000));
    }

    #[test]
    fn verification_count_grows_with_selectivity() {
        let rel = SyntheticSpec { tuples: 3_000, cardinality: 10, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
        let f = SqDist::new(vec![0.5, 0.5]);
        // Loose predicate: few wasted verifications. Tight: many.
        let loose = Query::select([(0, 1)]).rank(f.clone()).top(10);
        let tight = Query::select([(0, 1), (1, 1), (2, 1)]).rank(f).top(10);
        let rl = RankingFirst::source(&rtree, &rel, &disk).query(&loose.plan()).unwrap();
        let rt = RankingFirst::source(&rtree, &rel, &disk).query(&tight.plan()).unwrap();
        assert!(
            rt.stats.io.random_accesses > rl.stats.io.random_accesses,
            "tighter predicates force more wasted verifications ({} vs {})",
            rt.stats.io.random_accesses,
            rl.stats.io.random_accesses
        );
    }
}
