//! Rank-aware selection (Section 6.3.1): a per-relation operator producing
//! qualifying tuples one at a time in ascending partial-score order.
//!
//! A [`RankedStream`] is the relation's own top-k cursor with no answer
//! limit — Algorithm 3 as the signature route runs it
//! ([`rcube_core::sigquery`]), not a copy of it — behind the join-key
//! filter of list pruning. The optimizer may instead materialize the
//! qualifying tuples upfront (Boolean-first access); that is the same
//! cursor type over a sorted buffer ([`SortedDrain`]), so the executor sees
//! one stream type either way.

use std::collections::HashSet;

use rcube_core::query::{QueryPlan, RankedSource, SortedDrain, TopKCursor};
use rcube_core::QueryStats;
use rcube_func::{Linear, RankFn};
use rcube_storage::DiskSim;
use rcube_table::{Selection, Tid};

use crate::relation::JoinRelation;

/// A stream of `(tid, partial score)` over a [`JoinRelation`], ascending by
/// `(score, tid)`.
#[derive(Debug)]
pub struct RankedStream<'a> {
    cursor: TopKCursor<'a>,
    relation: &'a JoinRelation,
    /// Keys that can possibly join (list pruning); `None` disables.
    key_filter: Option<HashSet<u32>>,
    /// Score of the tuple returned last; `+∞` once the stream ran dry.
    last: f64,
}

impl<'a> RankedStream<'a> {
    /// Rank-aware access: progressive search over the relation's ranking
    /// cube, `func` reading the ranking dimensions `dims`. Signature
    /// probes and node reads charge `disk`, keeping pruning I/O inside the
    /// executor's query stats.
    pub fn open(
        relation: &'a JoinRelation,
        selection: &'a Selection,
        func: &'a Linear,
        dims: &'a [usize],
        key_filter: Option<HashSet<u32>>,
        disk: &'a DiskSim,
    ) -> Self {
        let plan = QueryPlan { selection, func, ranking_dims: dims, k: usize::MAX, cuboids: None };
        let cursor = relation
            .cube()
            .source(relation.rtree(), disk)
            .open(&plan)
            .expect("in-memory join relation cannot fail");
        Self { cursor, relation, key_filter, last: f64::NEG_INFINITY }
    }

    /// Boolean-first access: qualifying, joinable tuples fetched by random
    /// access and sorted upfront (chosen by the optimizer for very
    /// selective predicates).
    pub fn materialized(
        relation: &'a JoinRelation,
        selection: &Selection,
        func: &Linear,
        key_filter: Option<&HashSet<u32>>,
        disk: &DiskSim,
    ) -> Self {
        let rel = relation.relation();
        let items = rel
            .tids()
            .filter(|&t| selection.matches(rel, t))
            .filter(|&t| key_filter.is_none_or(|f| f.contains(&relation.key_of(t))))
            .map(|t| {
                disk.random_access();
                (t, func.score(&rel.ranking_point(t)))
            })
            .collect();
        let drain = SortedDrain::new(items, QueryStats::default());
        let cursor = TopKCursor::new(Box::new(drain), usize::MAX);
        Self { cursor, relation, key_filter: None, last: f64::NEG_INFINITY }
    }

    /// Lower bound for every not-yet-returned tuple — the `last_i` of the
    /// rank-join threshold: the cursor certifies ascending order, so
    /// nothing still to come scores below what was returned last.
    pub fn bound(&self) -> f64 {
        self.last
    }

    /// Blocks read so far.
    pub fn blocks_read(&self) -> u64 {
        self.cursor.stats().blocks_read
    }
}

/// The next qualifying tuple whose key can join, charging I/O as needed.
impl Iterator for RankedStream<'_> {
    type Item = (Tid, f64);

    fn next(&mut self) -> Option<(Tid, f64)> {
        for (tid, score) in self.cursor.by_ref() {
            if self.key_filter.as_ref().is_none_or(|f| f.contains(&self.relation.key_of(tid))) {
                self.last = score;
                return Some((tid, score));
            }
        }
        self.last = f64::INFINITY;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_table::gen::SyntheticSpec;

    const DIMS: [usize; 2] = [0, 1];

    fn setup() -> (DiskSim, JoinRelation) {
        let rel = SyntheticSpec { tuples: 800, cardinality: 4, ..Default::default() }.generate();
        let keys: Vec<u32> = (0..800).map(|i| i * 7 % 40).collect();
        let disk = DiskSim::with_defaults();
        (DiskSim::with_defaults(), JoinRelation::build(rel, keys, &disk))
    }

    #[test]
    fn stream_yields_ascending_qualifying_tuples() {
        let (disk, jr) = setup();
        let sel = Selection::new(vec![(0, 1)]);
        let f = Linear::new(vec![1.0, 1.0]);
        let s = RankedStream::open(&jr, &sel, &f, &DIMS, None, &disk);
        let mut prev = f64::NEG_INFINITY;
        let mut count = 0;
        for (tid, score) in s {
            assert!(score >= prev - 1e-12, "stream must be sorted");
            assert!(sel.matches(jr.relation(), tid));
            prev = score;
            count += 1;
        }
        let expect = jr.relation().tids().filter(|&t| sel.matches(jr.relation(), t)).count();
        assert_eq!(count, expect);
    }

    #[test]
    fn key_filter_prunes_streams() {
        let (disk, jr) = setup();
        let sel = Selection::all();
        let f = Linear::new(vec![1.0, 1.0]);
        let filter: HashSet<u32> = [0u32, 7, 14].into_iter().collect();
        let s = RankedStream::open(&jr, &sel, &f, &DIMS, Some(filter.clone()), &disk);
        for (tid, _) in s {
            assert!(filter.contains(&jr.key_of(tid)));
        }
    }

    /// Both access paths are one filtered scan in `(score, tid)` order —
    /// tids and score bits, with and without list pruning — and the bound
    /// a stream reports never exceeds what it returns next.
    #[test]
    fn materialized_stream_equals_ranked_stream() {
        let (disk, jr) = setup();
        let rel = jr.relation();
        let f = Linear::new(vec![2.0, 0.5]);
        let keys: HashSet<u32> = (0..40).filter(|k| k % 3 == 0).collect();
        for (conds, filter) in [
            (vec![(1, 2)], None),
            (vec![(1, 2)], Some(&keys)),
            (vec![], Some(&keys)),
            (vec![(0, 1), (2, 3)], Some(&keys)),
            (vec![(0, 99)], None),
        ] {
            let sel = Selection::new(conds);
            let mut want: Vec<(Tid, f64)> = rel
                .tids()
                .filter(|&t| sel.matches(rel, t))
                .filter(|&t| filter.is_none_or(|f| f.contains(&jr.key_of(t))))
                .map(|t| (t, f.score(&rel.ranking_point(t))))
                .collect();
            want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let bits = |v: &[(Tid, f64)]| -> Vec<(Tid, u64)> {
                v.iter().map(|&(t, s)| (t, s.to_bits())).collect()
            };
            for mut stream in [
                RankedStream::open(&jr, &sel, &f, &DIMS, filter.cloned(), &disk),
                RankedStream::materialized(&jr, &sel, &f, filter, &disk),
            ] {
                let mut got = Vec::new();
                loop {
                    let bound = stream.bound();
                    let Some(item) = stream.next() else { break };
                    assert!(bound <= item.1, "bound {bound} above the next score {}", item.1);
                    got.push(item);
                }
                assert_eq!(stream.bound(), f64::INFINITY, "a dry stream bounds nothing");
                assert_eq!(bits(&got), bits(&want), "{:?} filter {}", sel, filter.is_some());
            }
        }
    }

    #[test]
    fn bound_tracks_progress() {
        let (disk, jr) = setup();
        let sel = Selection::all();
        let f = Linear::new(vec![1.0, 1.0]);
        let mut s = RankedStream::open(&jr, &sel, &f, &DIMS, None, &disk);
        let b0 = s.bound();
        let (_, s1) = s.next().unwrap();
        assert!(s.bound() >= b0 - 1e-12);
        assert!(s.bound() >= s1 - 1e-12);
        assert!(s.blocks_read() > 0, "the first answer read the root at least");
    }
}
