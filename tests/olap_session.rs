//! End-to-end OLAP sessions: incremental maintenance followed by queries,
//! skyline navigation chains, and multi-relation ranked joins — spanning
//! every crate in the workspace.

use ranking_cube::cube::maintain::{apply_path_updates, PathUpdateBatch};
use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::sigcube::{SignatureCube, SignatureCubeConfig};
use ranking_cube::func::{Linear, RankFn};
use ranking_cube::index::rtree::{RTree, RTreeConfig};
use ranking_cube::join::{full_join_topk, optimize, JoinRelation, RankJoin, RelQuery, SpjrQuery};
use ranking_cube::skyline::{bnl_skyline, SkylineEngine, SkylineQuery};
use ranking_cube::storage::DiskSim;
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::{Relation, Selection};

/// Grow the data incrementally, querying after every batch: the maintained
/// cube must stay equivalent to a naive scan at each step.
#[test]
fn maintained_cube_answers_stay_correct() {
    let full = SyntheticSpec { tuples: 1_200, cardinality: 4, ..Default::default() }.generate();
    let base = full.prefix(1_000);
    let disk = DiskSim::with_defaults();
    let mut rtree = RTree::over_relation(&disk, &base, &[], RTreeConfig::small(8));
    let mut cube = SignatureCube::build(&base, &rtree, &disk, SignatureCubeConfig::default());

    let f = Linear::new(vec![1.0, 2.0]);
    let sel = Selection::new(vec![(0, 1)]);
    for step in 0..4 {
        let lo = 1_000 + step * 50;
        let mut updates = PathUpdateBatch::new();
        for tid in lo as u32..(lo + 50) as u32 {
            updates.extend(rtree.insert(&disk, tid, full.ranking_point(tid)));
        }
        apply_path_updates(
            &mut cube,
            &updates.into_updates(),
            |t| (0..3).map(|d| full.selection_value(t, d)).collect(),
            &disk,
        )
        .unwrap();
        // The live prefix after this batch:
        let live = full.prefix(lo + 50);
        let q = Query::select(sel.conds().to_vec()).rank(f.clone()).top(10);
        let got = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
        let want = naive(&live, &sel, &f, 10);
        assert_eq!(got.scores().len(), want.len());
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9, "step {step}");
        }
    }
}

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

/// A long navigation chain over skylines: every step must equal the
/// from-scratch answer.
#[test]
fn skyline_navigation_chain() {
    let rel = SyntheticSpec { tuples: 2_000, cardinality: 3, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(12));
    let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    let engine = SkylineEngine::new(&rtree, &cube);

    let q0 = SkylineQuery::new(vec![], vec![0, 1]);
    let (_, s0) = engine.skyline(&q0, &disk);
    // Drill 0=1 → drill 1=2 → roll 0 → drill 2=0 → roll 1.
    let (r1, s1) = engine.drill_down(&s0, 0, 1, &disk);
    check(&rel, &r1.tids, vec![(0, 1)]);
    let (r2, s2) = engine.drill_down(&s1, 1, 2, &disk);
    check(&rel, &r2.tids, vec![(0, 1), (1, 2)]);
    let (r3, s3) = engine.roll_up(&s2, 0, &disk);
    check(&rel, &r3.tids, vec![(1, 2)]);
    let (r4, s4) = engine.drill_down(&s3, 2, 0, &disk);
    check(&rel, &r4.tids, vec![(1, 2), (2, 0)]);
    let (r5, _) = engine.roll_up(&s4, 1, &disk);
    check(&rel, &r5.tids, vec![(2, 0)]);
}

fn check(rel: &Relation, got: &[u32], conds: Vec<(usize, u32)>) {
    let mut got = got.to_vec();
    got.sort_unstable();
    let want = bnl_skyline(rel, &SkylineQuery::new(conds, vec![0, 1]));
    assert_eq!(got, want);
}

/// The full SPJR pipeline: optimizer → rank join ≡ join-then-rank.
#[test]
fn spjr_pipeline_agrees_with_baseline() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let disk = DiskSim::with_defaults();
    let mk = |seed: u64, t: usize| {
        let rel =
            SyntheticSpec { tuples: t, cardinality: 6, seed, ..Default::default() }.generate();
        let mut rng = StdRng::seed_from_u64(seed * 31);
        let keys: Vec<u32> = (0..t).map(|_| rng.gen_range(0..25)).collect();
        JoinRelation::build(rel, keys, &disk)
    };
    let r1 = mk(1, 600);
    let r2 = mk(2, 500);
    let r3 = mk(3, 400);
    let q = SpjrQuery {
        relations: vec![
            RelQuery { selection: Selection::new(vec![(0, 1)]), weights: vec![1.0, 0.3] },
            RelQuery { selection: Selection::all(), weights: vec![0.5, 0.5] },
            RelQuery { selection: Selection::new(vec![(2, 3)]), weights: vec![0.0, 2.0] },
        ],
        k: 12,
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

/// Buffer-pool sanity: repeated identical queries get cheaper (warm cache)
/// but never change their answers.
#[test]
fn warm_buffer_reduces_physical_io() {
    let rel = SyntheticSpec { tuples: 3_000, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(10);
    disk.clear_buffer();
    let cold = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
    let warm = cube.source(&rtree, &disk).query(&q.plan()).unwrap();
    assert_eq!(cold.tids(), warm.tids());
    assert!(
        warm.stats.io.disk_reads < cold.stats.io.disk_reads,
        "warm run should hit the buffer: {} vs {}",
        warm.stats.io.disk_reads,
        cold.stats.io.disk_reads
    );
}
