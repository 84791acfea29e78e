//! The Boolean-first strategy ("Boolean" in Section 4.4; the DBMS baseline
//! of Section 3.5).
//!
//! One non-clustered B+-tree per selection dimension. A query resolves its
//! most selective predicate through the index (or falls back to a table
//! scan when the optimizer predicts the index is worse), verifies the
//! remaining predicates and fetches ranking values by random access, then
//! buffers and sorts every match so the cursor can drain and `extend_k`
//! without touching storage again — memory is O(matches), the price a
//! filter-first plan pays for resumable pagination.

use rcube_core::query::{QueryPlan, RankedSource, SortedDrain, TopKCursor};
use rcube_core::QueryStats;
use rcube_index::BPlusTree;
use rcube_storage::{DiskSim, StorageError};
use rcube_table::{Relation, Tid};

use crate::{rows_per_page, scan::TableScan};

/// Boolean-first evaluator with per-dimension B+-tree indexes.
#[derive(Debug)]
pub struct BooleanFirst {
    indexes: Vec<BPlusTree>,
    scan: TableScan,
}

impl BooleanFirst {
    /// Builds one B+-tree per selection dimension plus the heap file.
    pub fn build(rel: &Relation, disk: &DiskSim) -> Self {
        let indexes = (0..rel.schema().num_selection())
            .map(|d| {
                let entries = rel.tids().map(|t| (rel.selection_value(t, d) as f64, t)).collect();
                BPlusTree::bulk_load(disk, entries)
            })
            .collect();
        Self { indexes, scan: TableScan::new(rel, disk) }
    }

    /// Binds the evaluator to its relation and metering device as a
    /// [`RankedSource`] — trivially progressive: filter-then-rank runs
    /// fully at open (index scan on the most selective predicate, estimated
    /// via dimension cardinality, then verify + rank via random accesses;
    /// or a plain table scan when predicted cheaper), the cursor drains the
    /// sorted answers.
    pub fn source<'a>(&'a self, rel: &'a Relation, disk: &'a DiskSim) -> BooleanFirstSource<'a> {
        BooleanFirstSource { bf: self, rel, disk }
    }
}

/// A [`BooleanFirst`] bound to its relation and metering device: the
/// `Boolean` baseline's [`RankedSource`].
#[derive(Debug, Clone, Copy)]
pub struct BooleanFirstSource<'a> {
    bf: &'a BooleanFirst,
    rel: &'a Relation,
    disk: &'a DiskSim,
}

impl<'a> RankedSource<'a> for BooleanFirstSource<'a> {
    fn open(&self, plan: &QueryPlan<'a>) -> Result<TopKCursor<'a>, StorageError> {
        let (rel, disk) = (self.rel, self.disk);
        if plan.selection.is_empty() {
            return self.bf.scan.source(rel, disk).open(plan);
        }
        // Cost model: index plan ≈ expected matches (random accesses);
        // scan plan ≈ page count. Pick the cheaper (Section 4.4.1 reports
        // the best of the two).
        let best = plan
            .selection
            .conds()
            .iter()
            .max_by_key(|&&(d, _)| rel.schema().selection_dim(d).cardinality())
            .copied()
            .expect("non-empty selection");
        let expected = rel.len() as f64 / rel.schema().selection_dim(best.0).cardinality() as f64;
        let scan_pages = rel.len().div_ceil(rows_per_page(rel, disk.page_size())) as f64;
        if expected >= scan_pages {
            return self.bf.scan.source(rel, disk).open(plan);
        }

        let before = disk.stats().snapshot();
        let mut stats = QueryStats::default();
        let tids: Vec<Tid> = self.bf.indexes[best.0].lookup(disk, best.1 as f64);
        let mut items = Vec::new();
        for tid in tids {
            // Random access to fetch the full row for residual predicates
            // and ranking values.
            disk.random_access();
            if !plan.selection.matches(rel, tid) {
                continue;
            }
            let score = plan.func.score(&rel.ranking_point_proj(tid, plan.ranking_dims));
            items.push((tid, score));
            stats.tuples_scored += 1;
        }
        stats.io = before.delta(&disk.stats().snapshot());
        Ok(TopKCursor::new(Box::new(SortedDrain::new(items, stats)), plan.k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_core::query::Query;
    use rcube_func::Linear;
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::Selection;

    fn naive(rel: &Relation, sel: &Selection, k: usize) -> Vec<f64> {
        let mut v: Vec<f64> = rel
            .tids()
            .filter(|&t| sel.matches(rel, t))
            .map(|t| rel.ranking_value(t, 0) + rel.ranking_value(t, 1))
            .collect();
        v.sort_by(f64::total_cmp);
        v.truncate(k);
        v
    }

    #[test]
    fn matches_naive_on_conjunctions() {
        let rel = SyntheticSpec { tuples: 2_000, cardinality: 8, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let bf = BooleanFirst::build(&rel, &disk);
        for conds in [vec![(0, 3)], vec![(0, 1), (1, 2)], vec![(0, 0), (1, 0), (2, 0)]] {
            let q = Query::select(conds.clone()).rank(Linear::uniform(2)).top(10);
            let res = bf.source(&rel, &disk).query(&q.plan()).unwrap();
            let want = naive(&rel, q.selection(), 10);
            assert_eq!(res.scores().len(), want.len(), "conds {conds:?}");
            for (g, w) in res.scores().iter().zip(&want) {
                assert!((g - w).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn index_plan_charges_random_accesses() {
        let rel =
            SyntheticSpec { tuples: 4_000, cardinality: 200, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let bf = BooleanFirst::build(&rel, &disk);
        let q = Query::select([(0, 7)]).rank(Linear::uniform(2)).top(10);
        let res = bf.source(&rel, &disk).query(&q.plan()).unwrap();
        assert!(res.stats.io.random_accesses > 0, "index plan must random-access rows");
        // Roughly T/C matches expected.
        let expect = 4_000 / 200;
        assert!((res.stats.io.random_accesses as i64 - expect).abs() < expect);
    }

    #[test]
    fn low_cardinality_falls_back_to_scan() {
        let rel = SyntheticSpec { tuples: 3_000, cardinality: 2, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let bf = BooleanFirst::build(&rel, &disk);
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(10);
        let res = bf.source(&rel, &disk).query(&q.plan()).unwrap();
        // Scan plan: no random accesses.
        assert_eq!(res.stats.io.random_accesses, 0);
        assert!(!res.items.is_empty());
    }
}
