//! OLAP navigation over skyline queries: drill-down and roll-up with
//! candidate-heap re-construction (Section 7.2.4, Figures 7.13/7.14).
//!
//! A finished query's [`SkylineSession`] retains every discarded heap entry
//! plus the accepted skyline — a frontier covering the whole data set. A
//! drill-down (adding a predicate) or roll-up (removing one) re-seeds the
//! branch-and-bound search from that frontier: regions already expanded and
//! pruned stay pruned, so the navigation query touches far fewer nodes than
//! a fresh search from the R-tree root.

use rcube_storage::{DiskSim, StorageError};

use crate::bbs::{SkylineEngine, SkylineSession};
use crate::{SkylineQuery, SkylineResult};

impl<'a> SkylineEngine<'a> {
    /// Drill-down: adds the predicate `dim = value` to the session's query
    /// and resumes from its frontier.
    pub fn drill_down(
        &self,
        session: &SkylineSession,
        dim: usize,
        value: u32,
        disk: &DiskSim,
    ) -> Result<(SkylineResult, SkylineSession), StorageError> {
        let q = session.query();
        let query = SkylineQuery {
            selection: q.selection.drill_down(dim, value),
            pref_dims: q.pref_dims.clone(),
            dynamic_point: q.dynamic_point.clone(),
        };
        self.resume(session, &query, disk)
    }

    /// Roll-up: removes the predicate on `dim` and resumes from the
    /// session's frontier.
    pub fn roll_up(
        &self,
        session: &SkylineSession,
        dim: usize,
        disk: &DiskSim,
    ) -> Result<(SkylineResult, SkylineSession), StorageError> {
        let q = session.query();
        let query = SkylineQuery {
            selection: q.selection.roll_up(dim),
            pref_dims: q.pref_dims.clone(),
            dynamic_point: q.dynamic_point.clone(),
        };
        self.resume(session, &query, disk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
    use rcube_index::rtree::{RTree, RTreeConfig};
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::Relation;

    fn setup(tuples: usize) -> (Relation, DiskSim, RTree, SignatureCube) {
        let rel = SyntheticSpec { tuples, cardinality: 4, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(12));
        let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
        (rel, disk, rtree, cube)
    }

    fn sorted(mut v: Vec<u32>) -> Vec<u32> {
        v.sort_unstable();
        v
    }

    #[test]
    fn drill_down_matches_fresh_query() {
        let (rel, disk, rtree, cube) = setup(1_500);
        let engine = SkylineEngine::new(&rtree, &cube);
        let base = SkylineQuery::new(vec![(0, 1)], vec![0, 1]);
        let (_, session) = engine.skyline(&base, &disk).unwrap();
        let (dd, _) = engine.drill_down(&session, 1, 2, &disk).unwrap();
        let fresh_q = SkylineQuery::new(vec![(0, 1), (1, 2)], vec![0, 1]);
        assert_eq!(sorted(dd.tids), crate::bnl_skyline(&rel, &fresh_q));
    }

    #[test]
    fn roll_up_matches_fresh_query() {
        let (rel, disk, rtree, cube) = setup(1_500);
        let engine = SkylineEngine::new(&rtree, &cube);
        let base = SkylineQuery::new(vec![(0, 1), (1, 2)], vec![0, 1]);
        let (_, session) = engine.skyline(&base, &disk).unwrap();
        let (ru, _) = engine.roll_up(&session, 1, &disk).unwrap();
        let fresh_q = SkylineQuery::new(vec![(0, 1)], vec![0, 1]);
        assert_eq!(sorted(ru.tids), crate::bnl_skyline(&rel, &fresh_q));
    }

    #[test]
    fn drill_down_reads_fewer_blocks_than_fresh() {
        let (_rel, disk, rtree, cube) = setup(4_000);
        let engine = SkylineEngine::new(&rtree, &cube);
        let base = SkylineQuery::new(vec![(0, 1)], vec![0, 1]);
        let (_, session) = engine.skyline(&base, &disk).unwrap();
        let (dd, _) = engine.drill_down(&session, 1, 2, &disk).unwrap();
        let fresh_q = SkylineQuery::new(vec![(0, 1), (1, 2)], vec![0, 1]);
        let (fresh, _) = engine.skyline(&fresh_q, &disk).unwrap();
        assert_eq!(sorted(dd.tids.clone()), sorted(fresh.tids));
        assert!(
            dd.stats.blocks_read <= fresh.stats.blocks_read,
            "drill-down {} vs fresh {}",
            dd.stats.blocks_read,
            fresh.stats.blocks_read
        );
    }

    #[test]
    fn chained_navigation_stays_correct() {
        let (rel, disk, rtree, cube) = setup(1_000);
        let engine = SkylineEngine::new(&rtree, &cube);
        let base = SkylineQuery::new(vec![], vec![0, 1]);
        let (_, s0) = engine.skyline(&base, &disk).unwrap();
        let s1 = {
            let (r, s) = engine.drill_down(&s0, 0, 1, &disk).unwrap();
            let q = SkylineQuery::new(vec![(0, 1)], vec![0, 1]);
            assert_eq!(sorted(r.tids), crate::bnl_skyline(&rel, &q));
            s
        };
        let (r2, s2) = engine.drill_down(&s1, 2, 3, &disk).unwrap();
        let q2 = SkylineQuery::new(vec![(0, 1), (2, 3)], vec![0, 1]);
        assert_eq!(sorted(r2.tids), crate::bnl_skyline(&rel, &q2));
        let (r3, _) = engine.roll_up(&s2, 0, &disk).unwrap();
        let q3 = SkylineQuery::new(vec![(2, 3)], vec![0, 1]);
        assert_eq!(sorted(r3.tids), crate::bnl_skyline(&rel, &q3));
    }

    /// What SID-addressed entries log and read along a chain of navigation
    /// steps, against the values the path-addressed search read on the
    /// same fixture (hard-coded from the commit before the switch): the
    /// session is entry for entry the one paths produced.
    #[test]
    fn sid_addressed_sessions_log_what_path_addressed_ones_logged() {
        let (rel, disk, rtree, cube) = setup(1_500);
        let engine = SkylineEngine::new(&rtree, &cube);
        let mut seen = Vec::new();
        let mut note = |(r, s): (SkylineResult, SkylineSession)| {
            assert_eq!(sorted(r.tids.clone()), crate::bnl_skyline(&rel, s.query()));
            seen.push((s.frontier_len(), r.stats.blocks_read, r.tids.len()));
            s
        };
        let s = note(engine.skyline(&SkylineQuery::new(vec![], vec![0, 1]), &disk).unwrap());
        let s = note(engine.drill_down(&s, 0, 1, &disk).unwrap());
        let s = note(engine.drill_down(&s, 2, 3, &disk).unwrap());
        let s = note(engine.roll_up(&s, 0, &disk).unwrap());
        let s = note(engine.drill_down(&s, 1, 99, &disk).unwrap()); // an empty cell keeps the seeds
        note(engine.roll_up(&s, 1, &disk).unwrap());
        let q = SkylineQuery::dynamic(vec![(0, 1), (1, 2)], vec![0, 1], vec![0.4, 0.6]);
        let s = note(engine.skyline(&q, &disk).unwrap());
        note(engine.roll_up(&s, 1, &disk).unwrap());
        assert_eq!(
            seen,
            [
                (85, 14, 9),
                (231, 21, 10),
                (277, 6, 6),
                (278, 0, 5),
                (283, 0, 0),
                (278, 0, 5),
                (283, 42, 7),
                (396, 16, 6)
            ]
        );
    }

    #[test]
    fn dynamic_navigation_supported() {
        let (rel, disk, rtree, cube) = setup(800);
        let engine = SkylineEngine::new(&rtree, &cube);
        let base = SkylineQuery::dynamic(vec![(0, 1)], vec![0, 1], vec![0.5, 0.5]);
        let (_, session) = engine.skyline(&base, &disk).unwrap();
        let (dd, _) = engine.drill_down(&session, 1, 0, &disk).unwrap();
        let fresh = SkylineQuery::dynamic(vec![(0, 1), (1, 0)], vec![0, 1], vec![0.5, 0.5]);
        assert_eq!(sorted(dd.tids), crate::bnl_skyline(&rel, &fresh));
    }
}
