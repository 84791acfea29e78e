//! The query executer (Section 6.3): multi-way rank join with threshold
//! termination, plus the join-then-rank baseline.
//!
//! The rank join pulls from the per-relation streams in plan order, probes
//! the other relations' seen-tables on the join key, and emits a joined
//! result once its total score is no larger than the HRJN threshold
//! `T = max_i (last_i + Σ_{j≠i} first_j)` — at which point no future pull
//! can produce a better combination.

use std::collections::HashMap;

use rcube_core::QueryStats;
use rcube_func::{Linear, RankFn};
use rcube_storage::DiskSim;
use rcube_table::Tid;

use crate::optimizer::{Access, Plan};
use crate::relation::JoinRelation;
use crate::stream::RankedStream;
use crate::SpjrQuery;

/// A joined answer: one tid per relation plus the combined score.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinedTuple {
    pub tids: Vec<Tid>,
    pub score: f64,
}

/// The result of an SPJR query.
#[derive(Debug)]
pub struct JoinResult {
    /// Ascending combined score.
    pub items: Vec<JoinedTuple>,
    pub stats: QueryStats,
}

/// The multi-way rank-join executor.
#[derive(Debug)]
pub struct RankJoin;

impl RankJoin {
    /// Runs `query` over `relations` under `plan`.
    pub fn run(
        relations: &[&JoinRelation],
        query: &SpjrQuery,
        plan: &Plan,
        disk: &DiskSim,
    ) -> JoinResult {
        let m = relations.len();
        assert!(m >= 2, "rank join needs at least two relations");
        let before = disk.stats().snapshot();
        let mut stats = QueryStats::default();

        // Open streams with list pruning: each stream skips join keys
        // absent from every other relation (Section 6.3.3). The functions
        // and dimension list outlive the cursors that borrow them.
        let funcs: Vec<Linear> =
            query.relations.iter().map(|rq| Linear::new(rq.weights.clone())).collect();
        let dims: Vec<usize> = (0..funcs.iter().map(Linear::arity).max().unwrap_or(0)).collect();
        let mut streams: Vec<RankedStream<'_>> = Vec::with_capacity(m);
        for (i, ((jr, rq), func)) in relations.iter().zip(&query.relations).zip(&funcs).enumerate()
        {
            let mut filter = jr.key_set().clone();
            for (j, other) in relations.iter().enumerate() {
                if j != i {
                    filter.retain(|k| other.key_set().contains(k));
                }
            }
            streams.push(match plan.access[i] {
                Access::RankAware => RankedStream::open(
                    jr,
                    &rq.selection,
                    func,
                    &dims[..func.arity()],
                    Some(filter),
                    disk,
                ),
                Access::BooleanFirst => {
                    RankedStream::materialized(jr, &rq.selection, func, Some(&filter), disk)
                }
            });
        }

        // Seen tables: per relation, key → [(tid, score)].
        let mut seen: Vec<HashMap<u32, Vec<(Tid, f64)>>> = vec![HashMap::new(); m];
        let mut first: Vec<Option<f64>> = vec![None; m];
        let mut last: Vec<f64> = vec![f64::NEG_INFINITY; m];
        let mut exhausted = vec![false; m];

        // Candidate joined results awaiting threshold clearance.
        let mut pending = std::collections::BinaryHeap::new();
        #[derive(Debug)]
        struct Pending(f64, Vec<Tid>);
        impl PartialEq for Pending {
            fn eq(&self, o: &Self) -> bool {
                self.0 == o.0 && self.1 == o.1
            }
        }
        impl Eq for Pending {}
        impl Ord for Pending {
            fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                o.0.total_cmp(&self.0).then_with(|| o.1.cmp(&self.1))
            }
        }
        impl PartialOrd for Pending {
            fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(o))
            }
        }

        let mut emitted: Vec<JoinedTuple> = Vec::with_capacity(query.k);

        'outer: loop {
            if exhausted.iter().all(|&e| e) {
                break;
            }
            for &i in &plan.pull_order {
                if exhausted[i] {
                    continue;
                }
                match streams[i].next() {
                    None => {
                        exhausted[i] = true;
                        continue;
                    }
                    Some((tid, score)) => {
                        if first[i].is_none() {
                            first[i] = Some(score);
                        }
                        last[i] = score;
                        let key = relations[i].key_of(tid);
                        // Probe the other relations' seen tables: the
                        // Cartesian product of matches forms new joined
                        // candidates, assembled in relation order.
                        let mut combos: Vec<(Vec<Tid>, f64)> = vec![(Vec::with_capacity(m), score)];
                        let mut ok = true;
                        for (j, s) in seen.iter().enumerate() {
                            if j == i {
                                for (tids, _) in &mut combos {
                                    tids.push(tid);
                                }
                                continue;
                            }
                            let Some(matches) = s.get(&key) else {
                                ok = false;
                                break;
                            };
                            let mut next = Vec::with_capacity(combos.len() * matches.len());
                            for (tids, acc) in &combos {
                                for &(mt, ms) in matches {
                                    let mut t2 = tids.clone();
                                    t2.push(mt);
                                    next.push((t2, acc + ms));
                                }
                            }
                            combos = next;
                        }
                        if ok {
                            for (tids, total) in combos {
                                pending.push(Pending(total, tids));
                                stats.states_generated += 1;
                            }
                        }
                        seen[i].entry(key).or_default().push((tid, score));
                        stats.tuples_scored += 1;

                        // Emit cleared candidates: a future result must use
                        // an unreturned tuple from some stream i, so its
                        // score is at least
                        // `min_i (bound_i + Σ_{j≠i} low_j)` where `bound_i`
                        // lower-bounds stream i's unreturned tuples and
                        // `low_j` lower-bounds any tuple of stream j.
                        let low: Vec<f64> = (0..m)
                            .map(|j| first[j].unwrap_or_else(|| streams[j].bound()))
                            .collect();
                        let t = (0..m)
                            .map(|i| {
                                streams[i].bound()
                                    + low
                                        .iter()
                                        .enumerate()
                                        .filter(|&(j, _)| j != i)
                                        .map(|(_, v)| v)
                                        .sum::<f64>()
                            })
                            .fold(f64::INFINITY, f64::min);
                        while let Some(p) = pending.peek() {
                            if p.0 <= t {
                                let Pending(score, tids) = pending.pop().unwrap();
                                emitted.push(JoinedTuple { tids, score });
                                if emitted.len() >= query.k {
                                    break 'outer;
                                }
                            } else {
                                break;
                            }
                        }
                        stats.peak_heap = stats.peak_heap.max(pending.len() as u64);
                    }
                }
            }
        }
        // Drain remaining candidates if under k.
        while emitted.len() < query.k {
            match pending.pop() {
                Some(Pending(score, tids)) => emitted.push(JoinedTuple { tids, score }),
                None => break,
            }
        }

        stats.blocks_read = streams.iter().map(|s| s.blocks_read()).sum();
        stats.io = before.delta(&disk.stats().snapshot());
        emitted.sort_by(|a, b| a.score.total_cmp(&b.score).then_with(|| a.tids.cmp(&b.tids)));
        emitted.truncate(query.k);
        JoinResult { items: emitted, stats }
    }
}

/// The join-then-rank baseline: full hash join with predicates applied,
/// sort by combined score, truncate to k. Charges a full scan per relation.
pub fn full_join_topk(
    relations: &[&JoinRelation],
    query: &SpjrQuery,
    disk: &DiskSim,
) -> JoinResult {
    let before = disk.stats().snapshot();
    let mut stats = QueryStats::default();
    let m = relations.len();

    // Per relation: qualifying tuples grouped by key, with partial scores.
    let mut by_key: Vec<HashMap<u32, Vec<(Tid, f64)>>> = Vec::with_capacity(m);
    for (jr, rq) in relations.iter().zip(&query.relations) {
        let rel = jr.relation();
        let rows_per_page = (disk.page_size()
            / (4 * rel.schema().num_selection() + 8 * rel.schema().num_ranking() + 8))
            .max(1);
        for _ in 0..rel.len().div_ceil(rows_per_page) {
            disk.read(disk.alloc_page());
            stats.blocks_read += 1;
        }
        let f = rcube_func::Linear::new(rq.weights.clone());
        let mut map: HashMap<u32, Vec<(Tid, f64)>> = HashMap::new();
        for t in rel.tids() {
            if rq.selection.matches(rel, t) {
                map.entry(jr.key_of(t))
                    .or_default()
                    .push((t, rcube_func::RankFn::score(&f, &rel.ranking_point(t))));
            }
        }
        by_key.push(map);
    }

    // Join: expand combinations key by key.
    let mut results: Vec<JoinedTuple> = Vec::new();
    for (key, base) in &by_key[0] {
        let mut combos: Vec<(Vec<Tid>, f64)> = base.iter().map(|&(t, s)| (vec![t], s)).collect();
        let mut ok = true;
        for other in &by_key[1..] {
            let Some(matches) = other.get(key) else {
                ok = false;
                break;
            };
            let mut next = Vec::with_capacity(combos.len() * matches.len());
            for (tids, acc) in &combos {
                for &(mt, ms) in matches {
                    let mut t2 = tids.clone();
                    t2.push(mt);
                    next.push((t2, acc + ms));
                }
            }
            combos = next;
        }
        if ok {
            results.extend(combos.into_iter().map(|(tids, score)| JoinedTuple { tids, score }));
        }
    }
    results.sort_by(|a, b| a.score.total_cmp(&b.score).then_with(|| a.tids.cmp(&b.tids)));
    results.truncate(query.k);
    stats.io = before.delta(&disk.stats().snapshot());
    JoinResult { items: results, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use crate::{RelQuery, SpjrQuery};
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::Selection;

    fn setup(tuples: usize, key_card: u32, seed: u64) -> JoinRelation {
        let rel = SyntheticSpec { tuples, cardinality: 4, seed, ..Default::default() }.generate();
        let keys: Vec<u32> = {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed + 1000);
            (0..tuples).map(|_| rng.gen_range(0..key_card)).collect()
        };
        let disk = DiskSim::with_defaults();
        JoinRelation::build(rel, keys, &disk)
    }

    fn two_way_query(k: usize) -> SpjrQuery {
        SpjrQuery {
            relations: vec![
                RelQuery { selection: Selection::new(vec![(0, 1)]), weights: vec![1.0, 0.5] },
                RelQuery { selection: Selection::new(vec![(1, 2)]), weights: vec![2.0, 1.0] },
            ],
            k,
        }
    }

    #[test]
    fn rank_join_matches_full_join_two_way() {
        let r1 = setup(400, 30, 1);
        let r2 = setup(300, 30, 2);
        let disk = DiskSim::with_defaults();
        let q = two_way_query(10);
        let rels = [&r1, &r2];
        let plan = optimize(&rels, &q);
        let fast = RankJoin::run(&rels, &q, &plan, &disk);
        let slow = full_join_topk(&rels, &q, &disk);
        assert_eq!(fast.items.len(), slow.items.len());
        for (a, b) in fast.items.iter().zip(&slow.items) {
            assert!((a.score - b.score).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn rank_join_matches_full_join_three_way() {
        let r1 = setup(200, 12, 3);
        let r2 = setup(180, 12, 4);
        let r3 = setup(150, 12, 5);
        let disk = DiskSim::with_defaults();
        let q = SpjrQuery {
            relations: vec![
                RelQuery { selection: Selection::all(), weights: vec![1.0, 0.0] },
                RelQuery { selection: Selection::new(vec![(0, 1)]), weights: vec![0.0, 1.0] },
                RelQuery { selection: Selection::all(), weights: vec![0.5, 0.5] },
            ],
            k: 8,
        };
        let rels = [&r1, &r2, &r3];
        let plan = optimize(&rels, &q);
        let fast = RankJoin::run(&rels, &q, &plan, &disk);
        let slow = full_join_topk(&rels, &q, &disk);
        assert_eq!(fast.items.len(), slow.items.len());
        for (a, b) in fast.items.iter().zip(&slow.items) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn joined_tids_reference_matching_keys() {
        let r1 = setup(300, 15, 6);
        let r2 = setup(250, 15, 7);
        let disk = DiskSim::with_defaults();
        let q = two_way_query(10);
        let rels = [&r1, &r2];
        let plan = optimize(&rels, &q);
        let res = RankJoin::run(&rels, &q, &plan, &disk);
        for item in &res.items {
            assert_eq!(r1.key_of(item.tids[0]), r2.key_of(item.tids[1]));
            assert!(q.relations[0].selection.matches(r1.relation(), item.tids[0]));
            assert!(q.relations[1].selection.matches(r2.relation(), item.tids[1]));
        }
    }

    #[test]
    fn rank_join_stops_early_for_small_k() {
        let r1 = setup(2_000, 100, 8);
        let r2 = setup(2_000, 100, 9);
        let disk = DiskSim::with_defaults();
        let q = SpjrQuery {
            relations: vec![
                RelQuery { selection: Selection::all(), weights: vec![1.0, 1.0] },
                RelQuery { selection: Selection::all(), weights: vec![1.0, 1.0] },
            ],
            k: 5,
        };
        let rels = [&r1, &r2];
        let plan = optimize(&rels, &q);
        let fast = RankJoin::run(&rels, &q, &plan, &disk);
        let slow = full_join_topk(&rels, &q, &disk);
        for (a, b) in fast.items.iter().zip(&slow.items) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
        assert!(
            fast.stats.tuples_scored < 2_000,
            "rank join should not consume whole inputs (pulled {})",
            fast.stats.tuples_scored
        );
    }

    #[test]
    fn empty_join_results_handled() {
        // Disjoint key domains: no joined rows.
        let rel1 = SyntheticSpec { tuples: 50, ..Default::default() }.generate();
        let rel2 = SyntheticSpec { tuples: 50, seed: 9, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let r1 = JoinRelation::build(rel1, vec![1; 50], &disk);
        let r2 = JoinRelation::build(rel2, vec![2; 50], &disk);
        let q = SpjrQuery {
            relations: vec![
                RelQuery { selection: Selection::all(), weights: vec![1.0, 0.0] },
                RelQuery { selection: Selection::all(), weights: vec![1.0, 0.0] },
            ],
            k: 5,
        };
        let rels = [&r1, &r2];
        let plan = optimize(&rels, &q);
        let res = RankJoin::run(&rels, &q, &plan, &disk);
        assert!(res.items.is_empty());
    }
}
