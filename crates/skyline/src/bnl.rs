//! Block-nested-loop skyline — the reference implementation and the core
//! of the Boolean-first baseline (filter by predicates, then BNL).

use rcube_core::QueryStats;
use rcube_storage::DiskSim;
use rcube_table::{Relation, Tid};

use crate::dominance::{dominates, transform_point};
use crate::{SkylineQuery, SkylineResult};

/// Computes the exact skyline by a window-based nested loop over the
/// qualifying tuples. `O(n·|skyline|)`; used as ground truth and as the
/// second phase of the Boolean-first baseline.
pub fn bnl_skyline(rel: &Relation, query: &SkylineQuery) -> Vec<Tid> {
    let mut window: Vec<(Tid, Vec<f64>)> = Vec::new();
    for tid in rel.tids() {
        if !query.selection.matches(rel, tid) {
            continue;
        }
        let raw = rel.ranking_point_proj(tid, &query.pref_dims);
        let p = transform_point(&raw, query.dynamic_point.as_deref());
        if window.iter().any(|(_, w)| dominates(w, &p)) {
            continue;
        }
        window.retain(|(_, w)| !dominates(&p, w));
        window.push((tid, p));
    }
    let mut tids: Vec<Tid> = window.into_iter().map(|(t, _)| t).collect();
    tids.sort_unstable();
    tids
}

/// Boolean-first skyline baseline: sequential scan with predicate filter
/// (charged per page), then BNL over the survivors.
pub fn boolean_first_skyline(
    rel: &Relation,
    disk: &DiskSim,
    query: &SkylineQuery,
    rows_per_page: usize,
) -> SkylineResult {
    let before = disk.stats().snapshot();
    let mut stats = QueryStats::default();
    let pages = rel.len().div_ceil(rows_per_page.max(1));
    for _ in 0..pages {
        disk.read(disk.alloc_page());
        stats.blocks_read += 1;
    }
    let tids = bnl_skyline(rel, query);
    stats.tuples_scored = rel.tids().filter(|&t| query.selection.matches(rel, t)).count() as u64;
    stats.io = before.delta(&disk.stats().snapshot());
    SkylineResult { tids, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_table::gen::SyntheticSpec;

    #[test]
    fn skyline_members_are_mutually_incomparable() {
        let rel = SyntheticSpec { tuples: 500, ..Default::default() }.generate();
        let q = SkylineQuery::new(vec![], vec![0, 1]);
        let sky = bnl_skyline(&rel, &q);
        assert!(!sky.is_empty());
        for &a in &sky {
            for &b in &sky {
                if a != b {
                    assert!(!dominates(&rel.ranking_point(a), &rel.ranking_point(b)));
                }
            }
        }
        // Every non-member is dominated by some member.
        for t in rel.tids() {
            if !sky.contains(&t) {
                let p = rel.ranking_point(t);
                assert!(
                    sky.iter().any(|&s| dominates(&rel.ranking_point(s), &p)),
                    "tuple {t} is neither dominated nor in the skyline"
                );
            }
        }
    }

    #[test]
    fn selection_restricts_the_skyline_domain() {
        let rel = SyntheticSpec { tuples: 500, cardinality: 3, ..Default::default() }.generate();
        let q = SkylineQuery::new(vec![(0, 1)], vec![0, 1]);
        let sky = bnl_skyline(&rel, &q);
        assert!(sky.iter().all(|&t| rel.selection_value(t, 0) == 1));
    }

    #[test]
    fn dynamic_skyline_differs_from_static() {
        let rel = SyntheticSpec { tuples: 800, ..Default::default() }.generate();
        let stat = bnl_skyline(&rel, &SkylineQuery::new(vec![], vec![0, 1]));
        let dynq = SkylineQuery::dynamic(vec![], vec![0, 1], vec![0.5, 0.5]);
        let dynamic = bnl_skyline(&rel, &dynq);
        assert_ne!(stat, dynamic, "dynamic dominance should change the answer");
    }
}
