//! Sequential table scan (`TS`).

use rcube_core::query::{QueryPlan, RankedSource, SortedDrain, TopKCursor};
use rcube_core::QueryStats;
use rcube_storage::{DiskSim, StorageError};
use rcube_table::Relation;

use crate::rows_per_page;

/// Full-scan evaluation: reads every page, filters, ranks in a k-heap.
#[derive(Debug)]
pub struct TableScan {
    pages: Vec<rcube_storage::PageId>,
    rows_per_page: usize,
}

impl TableScan {
    /// Lays the relation out on consecutive pages.
    pub fn new(rel: &Relation, disk: &DiskSim) -> Self {
        let rpp = rows_per_page(rel, disk.page_size());
        let pages = disk.alloc_pages(rel.len().div_ceil(rpp).max(1));
        for &p in &pages {
            disk.write(p);
        }
        Self { pages, rows_per_page: rpp }
    }

    /// Binds the scan to its relation and metering device as a
    /// [`RankedSource`] — trivially progressive: the whole scan happens at
    /// open, the cursor just drains the sorted answers (time-to-first-
    /// answer equals full-query time; `extend_k` reveals more at no I/O).
    pub fn source<'a>(&'a self, rel: &'a Relation, disk: &'a DiskSim) -> ScanSource<'a> {
        ScanSource { scan: self, rel, disk }
    }

    /// Number of data pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }
}

/// A [`TableScan`] bound to its relation and metering device: the `TS`
/// baseline's [`RankedSource`].
#[derive(Debug, Clone, Copy)]
pub struct ScanSource<'a> {
    scan: &'a TableScan,
    rel: &'a Relation,
    disk: &'a DiskSim,
}

impl<'a> RankedSource<'a> for ScanSource<'a> {
    fn open(&self, plan: &QueryPlan<'a>) -> Result<TopKCursor<'a>, StorageError> {
        let before = self.disk.stats().snapshot();
        let mut stats = QueryStats::default();
        let mut items = Vec::new();
        for (pi, &page) in self.scan.pages.iter().enumerate() {
            self.disk.read(page);
            stats.blocks_read += 1;
            let start = pi * self.scan.rows_per_page;
            let end = ((pi + 1) * self.scan.rows_per_page).min(self.rel.len());
            for tid in start as u32..end as u32 {
                if !plan.selection.matches(self.rel, tid) {
                    continue;
                }
                let score = plan.func.score(&self.rel.ranking_point_proj(tid, plan.ranking_dims));
                items.push((tid, score));
                stats.tuples_scored += 1;
            }
        }
        stats.io = before.delta(&self.disk.stats().snapshot());
        Ok(TopKCursor::new(Box::new(SortedDrain::new(items, stats)), plan.k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_core::query::Query;
    use rcube_func::Linear;
    use rcube_table::gen::SyntheticSpec;

    #[test]
    fn scan_finds_exact_topk() {
        let rel = SyntheticSpec { tuples: 1_000, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let ts = TableScan::new(&rel, &disk);
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(5);
        let res = ts.source(&rel, &disk).query(&q.plan()).unwrap();
        let mut want: Vec<f64> = rel
            .tids()
            .filter(|&t| q.selection().matches(&rel, t))
            .map(|t| rel.ranking_value(t, 0) + rel.ranking_value(t, 1))
            .collect();
        want.sort_by(f64::total_cmp);
        want.truncate(5);
        assert_eq!(res.scores().len(), want.len());
        for (g, w) in res.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn scan_reads_every_page_regardless_of_k() {
        let rel = SyntheticSpec { tuples: 5_000, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let ts = TableScan::new(&rel, &disk);
        let top = |k| Query::all().rank(Linear::uniform(2)).top(k);
        let r1 = ts.source(&rel, &disk).query(&top(1).plan()).unwrap();
        let r2 = ts.source(&rel, &disk).query(&top(100).plan()).unwrap();
        assert_eq!(r1.stats.blocks_read, r2.stats.blocks_read);
        assert_eq!(r1.stats.blocks_read as usize, ts.num_pages());
    }
}
