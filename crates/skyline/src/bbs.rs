//! Branch-and-bound skyline with signature Boolean pruning (Section 7.2).
//!
//! The candidate heap orders entries by `mindist` in preference space; a
//! popped entry is Boolean-checked against the signature and
//! dominance-checked against the accepted skyline (a node is pruned when
//! its transformed minimum corner is dominated — Figure 7.1). Every
//! discarded entry is logged into a [`SkylineSession`] so drill-down and
//! roll-up queries can re-construct the candidate heap (Section 7.2.4)
//! instead of restarting from the root.
//!
//! Entries are addressed the way the top-k search addresses them
//! ([`rcube_core::sigquery`]): by the SID of the signature node mirroring
//! them, `child = sid·(M+1) + pos + 1`, a tuple taking the SID its leaf
//! slot would have as a child. Unlike the top-k search the Boolean check
//! stays at *pop* ([`rcube_core::sigcube::Pruner::try_admit_entry`]): a
//! logged entry is replayed under whatever selection the next navigation
//! step asks for, so no verdict taken when it was pushed would still hold.

use std::collections::BinaryHeap;

use rcube_core::sigcube::SignatureCube;
use rcube_core::QueryStats;
use rcube_index::rtree::RTree;
use rcube_index::{HierIndex, NodeHandle};
use rcube_storage::{DiskSim, IoSnapshot, StorageError};
use rcube_table::{Relation, Tid};

use crate::dominance::{dominates, mindist, transform_point, transform_rect_min};
use crate::{SkylineQuery, SkylineResult};

/// A replayable heap entry.
#[derive(Debug, Clone)]
pub(crate) enum SEntry {
    /// R-tree node, its SID and its level (root = 0).
    Node(NodeHandle, u64, u16),
    /// Tuple: tid, SID, transformed preference coordinates.
    Tuple(Tid, u64, Vec<f64>),
}

#[derive(Debug)]
struct Item {
    key: f64,
    seq: u64,
    entry: SEntry,
}

impl PartialEq for Item {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl Eq for Item {}
impl Ord for Item {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.total_cmp(&self.key).then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The candidate heap, the skyline accepted so far and the one way entries
/// get onto the heap — what the signature search and the ranking-first
/// baseline share.
struct Search<'q> {
    rtree: &'q RTree,
    query: &'q SkylineQuery,
    disk: &'q DiskSim,
    heap: BinaryHeap<Item>,
    seq: u64,
    skyline: Vec<(Tid, Vec<f64>)>,
    stats: QueryStats,
    before: IoSnapshot,
}

impl<'q> Search<'q> {
    fn new(rtree: &'q RTree, query: &'q SkylineQuery, disk: &'q DiskSim) -> Self {
        Self {
            rtree,
            query,
            disk,
            heap: BinaryHeap::new(),
            seq: 0,
            skyline: Vec::new(),
            stats: QueryStats::default(),
            before: disk.stats().snapshot(),
        }
    }

    fn push(&mut self, key: f64, entry: SEntry) {
        self.seq += 1;
        self.heap.push(Item { key, seq: self.seq, entry });
        self.stats.peak_heap = self.stats.peak_heap.max(self.heap.len() as u64);
    }

    fn pop(&mut self) -> Option<(f64, SEntry)> {
        self.heap.pop().map(|Item { key, entry, .. }| (key, entry))
    }

    /// A search from scratch: the frontier is the root, SID 0.
    fn from_root(rtree: &'q RTree, query: &'q SkylineQuery, disk: &'q DiskSim) -> Self {
        let mut search = Self::new(rtree, query, disk);
        let root = rtree.root();
        search.push(mindist(&search.corner(root)), SEntry::Node(root, 0, 0));
        search
    }

    /// Transformed minimum corner of `n`'s region in preference space.
    fn corner(&self, n: NodeHandle) -> Vec<f64> {
        let region = self.rtree.mbr(n).project(&self.query.pref_dims);
        transform_rect_min(&region, self.query.dynamic_point.as_deref())
    }

    /// Dominance pruning: a tuple by its coordinates, a node by its
    /// transformed minimum corner.
    fn dominated(&self, entry: &SEntry) -> bool {
        let corner;
        let coords = match entry {
            SEntry::Tuple(_, _, coords) => coords,
            SEntry::Node(n, ..) => {
                corner = self.corner(*n);
                &corner
            }
        };
        self.skyline.iter().any(|(_, s)| dominates(s, coords))
    }

    /// Reads node `n` and pushes every entry of it.
    fn expand(&mut self, n: NodeHandle, sid: u64, level: u16) {
        let rtree = self.rtree;
        rtree.read_node(self.disk, n);
        self.stats.blocks_read += 1;
        let first_child = sid * (rtree.max_fanout() as u64 + 1) + 1;
        for (slot, (tid, point)) in rtree.leaf_slice(n).iter().enumerate() {
            let raw: Vec<f64> = self.query.pref_dims.iter().map(|&d| point[d]).collect();
            let coords = transform_point(&raw, self.query.dynamic_point.as_deref());
            self.push(mindist(&coords), SEntry::Tuple(*tid, first_child + slot as u64, coords));
            self.stats.states_generated += 1;
        }
        for (pos, &child) in rtree.child_ids(n).iter().enumerate() {
            let child = NodeHandle(child);
            let key = mindist(&self.corner(child));
            self.push(key, SEntry::Node(child, first_child + pos as u64, level + 1));
            self.stats.states_generated += 1;
        }
    }

    fn accept(&mut self, tid: Tid, coords: Vec<f64>) {
        self.skyline.push((tid, coords));
        self.stats.tuples_scored += 1;
    }

    fn finish(mut self) -> SkylineResult {
        self.stats.io = self.before.delta(&self.disk.stats().snapshot());
        SkylineResult {
            tids: self.skyline.into_iter().map(|(t, _)| t).collect(),
            stats: self.stats,
        }
    }
}

/// The frontier left behind by a finished skyline query: everything the
/// search discarded (Boolean- or dominance-pruned) plus the accepted
/// skyline. Together these cover the whole data set, which is what makes
/// heap re-construction sound for both drill-down and roll-up.
#[derive(Debug)]
pub struct SkylineSession {
    pub(crate) pruned: Vec<(f64, SEntry)>,
    pub(crate) accepted: Vec<(f64, SEntry)>,
    pub(crate) query: SkylineQuery,
}

impl SkylineSession {
    /// The query that produced this session.
    pub fn query(&self) -> &SkylineQuery {
        &self.query
    }

    /// Number of logged (pruned) frontier entries.
    pub fn frontier_len(&self) -> usize {
        self.pruned.len()
    }
}

/// The signature-based skyline engine over an R-tree partition.
#[derive(Debug)]
pub struct SkylineEngine<'a> {
    rtree: &'a RTree,
    cube: &'a SignatureCube,
}

impl<'a> SkylineEngine<'a> {
    pub fn new(rtree: &'a RTree, cube: &'a SignatureCube) -> Self {
        Self { rtree, cube }
    }

    /// Answers a skyline query from scratch. A signature read that fails
    /// comes back typed.
    pub fn skyline(
        &self,
        query: &SkylineQuery,
        disk: &DiskSim,
    ) -> Result<(SkylineResult, SkylineSession), StorageError> {
        self.run(Search::from_root(self.rtree, query, disk))
    }

    /// Resumes from a previous session's frontier with a modified Boolean
    /// selection (drill-down / roll-up). Preference dimensions and the
    /// dynamic point must match the original query.
    pub fn resume(
        &self,
        session: &SkylineSession,
        query: &SkylineQuery,
        disk: &DiskSim,
    ) -> Result<(SkylineResult, SkylineSession), StorageError> {
        assert_eq!(session.query.pref_dims, query.pref_dims, "preference dims must match");
        assert_eq!(session.query.dynamic_point, query.dynamic_point, "dynamic point must match");
        let mut search = Search::new(self.rtree, query, disk);
        for (key, entry) in session.pruned.iter().chain(&session.accepted) {
            search.push(*key, entry.clone());
        }
        self.run(search)
    }

    /// Drains `search`'s frontier under its query's selection.
    fn run(&self, mut search: Search<'_>) -> Result<(SkylineResult, SkylineSession), StorageError> {
        let query = search.query;
        let mut session =
            SkylineSession { pruned: Vec::new(), accepted: Vec::new(), query: query.clone() };

        let Some(mut pruner) = self.cube.pruner_for(&query.selection, search.disk)? else {
            // Some predicate selects an empty cell: no answers; keep the
            // seeds, in the order they came, so a later roll-up can still
            // resume.
            let mut seeds = std::mem::take(&mut search.heap).into_vec();
            seeds.sort_by_key(|item| item.seq);
            session.pruned = seeds.into_iter().map(|item| (item.key, item.entry)).collect();
            return Ok((search.finish(), session));
        };
        let mut mask = Vec::new();

        while let Some((key, entry)) = search.pop() {
            // Boolean pruning first, dominance only on what it let through.
            let (sid, node_level) = match entry {
                SEntry::Node(_, sid, level) => (sid, Some(level)),
                SEntry::Tuple(_, sid, _) => (sid, None),
            };
            if !pruner.try_admit_entry(sid, node_level, &mut mask)? || search.dominated(&entry) {
                session.pruned.push((key, entry));
                continue;
            }
            match entry {
                SEntry::Node(n, sid, level) => search.expand(n, sid, level),
                SEntry::Tuple(tid, _, ref coords) => {
                    search.accept(tid, coords.clone());
                    session.accepted.push((key, entry));
                }
            }
        }

        search.stats.sig_loads = pruner.loads();
        search.stats.sig_bytes_decoded = pruner.bytes_decoded();
        Ok((search.finish(), session))
    }
}

/// Ranking-first skyline baseline: BBS without Boolean pruning; popped
/// tuples are verified against the predicates by random access.
pub fn skyline_ranking_first(
    rtree: &RTree,
    rel: &Relation,
    query: &SkylineQuery,
    disk: &DiskSim,
) -> SkylineResult {
    let mut search = Search::from_root(rtree, query, disk);
    while let Some((_, entry)) = search.pop() {
        if search.dominated(&entry) {
            continue;
        }
        match entry {
            SEntry::Node(n, sid, level) => search.expand(n, sid, level),
            SEntry::Tuple(tid, _, coords) => {
                disk.random_access();
                if query.selection.matches(rel, tid) {
                    search.accept(tid, coords);
                }
            }
        }
    }
    search.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_core::sigcube::SignatureCubeConfig;
    use rcube_index::rtree::RTreeConfig;
    use rcube_table::gen::SyntheticSpec;

    fn setup(tuples: usize) -> (Relation, DiskSim, RTree, SignatureCube) {
        let rel = SyntheticSpec { tuples, cardinality: 4, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(12));
        let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
        (rel, disk, rtree, cube)
    }

    fn sorted(mut v: Vec<Tid>) -> Vec<Tid> {
        v.sort_unstable();
        v
    }

    #[test]
    fn signature_skyline_matches_bnl() {
        let (rel, disk, rtree, cube) = setup(1_200);
        let engine = SkylineEngine::new(&rtree, &cube);
        for conds in [vec![], vec![(0usize, 1u32)], vec![(0, 2), (1, 3)]] {
            let q = SkylineQuery::new(conds, vec![0, 1]);
            let (res, _) = engine.skyline(&q, &disk).unwrap();
            assert_eq!(sorted(res.tids), crate::bnl_skyline(&rel, &q), "query {:?}", q.selection);
        }
    }

    #[test]
    fn dynamic_skyline_matches_bnl() {
        let (rel, disk, rtree, cube) = setup(1_000);
        let engine = SkylineEngine::new(&rtree, &cube);
        let q = SkylineQuery::dynamic(vec![(1, 1)], vec![0, 1], vec![0.4, 0.6]);
        let (res, _) = engine.skyline(&q, &disk).unwrap();
        assert_eq!(sorted(res.tids), crate::bnl_skyline(&rel, &q));
    }

    #[test]
    fn ranking_first_matches_bnl() {
        let (rel, disk, rtree, _) = setup(900);
        let q = SkylineQuery::new(vec![(0, 1)], vec![0, 1]);
        let res = skyline_ranking_first(&rtree, &rel, &q, &disk);
        assert_eq!(sorted(res.tids), crate::bnl_skyline(&rel, &q));
        assert!(res.stats.io.random_accesses > 0);
    }

    #[test]
    fn signature_reads_fewer_blocks_than_ranking_first() {
        let (rel, disk, rtree, cube) = setup(3_000);
        let engine = SkylineEngine::new(&rtree, &cube);
        let q = SkylineQuery::new(vec![(0, 1), (1, 2)], vec![0, 1]);
        let (sig, _) = engine.skyline(&q, &disk).unwrap();
        let rf = skyline_ranking_first(&rtree, &rel, &q, &disk);
        assert_eq!(sorted(sig.tids.clone()), sorted(rf.tids));
        assert!(
            sig.stats.blocks_read <= rf.stats.blocks_read,
            "signature {} vs ranking-first {}",
            sig.stats.blocks_read,
            rf.stats.blocks_read
        );
    }

    #[test]
    fn empty_cell_yields_empty_skyline_with_resumable_session() {
        let (_rel, disk, rtree, cube) = setup(300);
        let engine = SkylineEngine::new(&rtree, &cube);
        let q = SkylineQuery::new(vec![(0, 99)], vec![0, 1]);
        let (res, session) = engine.skyline(&q, &disk).unwrap();
        assert!(res.tids.is_empty());
        assert!(session.frontier_len() > 0, "session must keep the seeds");
    }
}
