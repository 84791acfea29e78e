//! Criterion micro-benchmarks for skyline queries (Chapter 7) and the
//! multi-relation rank join (Chapter 6).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_join::{full_join_topk, optimize, JoinRelation, RankJoin, RelQuery, SpjrQuery};
use rcube_skyline::bbs::skyline_ranking_first;
use rcube_skyline::bnl::bnl_skyline;
use rcube_skyline::{SkylineEngine, SkylineQuery};
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;
use rcube_table::Selection;

const T: usize = 20_000;

fn bench_skyline(c: &mut Criterion) {
    let rel = SyntheticSpec { tuples: T, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::for_page(4096, 2));
    let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    let engine = SkylineEngine::new(&rtree, &cube);
    let q = SkylineQuery::new(vec![(0, 1)], vec![0, 1]);

    let mut g = c.benchmark_group("skyline");
    g.sample_size(10);
    g.bench_function("signature_bbs", |b| b.iter(|| engine.skyline(&q, &disk).unwrap()));
    g.bench_function("ranking_first", |b| {
        b.iter(|| skyline_ranking_first(&rtree, &rel, &q, &disk))
    });
    g.bench_function("bnl", |b| b.iter(|| bnl_skyline(&rel, &q)));
    g.bench_function("drill_down_reuse", |b| {
        let (_, session) = engine.skyline(&q, &disk).unwrap();
        b.iter(|| engine.drill_down(&session, 1, 2, &disk).unwrap())
    });
    g.finish();
}

fn bench_rank_join(c: &mut Criterion) {
    let disk = DiskSim::with_defaults();
    let mk = |seed: u64| {
        let rel =
            SyntheticSpec { tuples: T / 4, cardinality: 10, seed, ..Default::default() }.generate();
        let mut rng = StdRng::seed_from_u64(seed + 7);
        let keys: Vec<u32> = (0..rel.len()).map(|_| rng.gen_range(0..100)).collect();
        JoinRelation::build(rel, keys, &disk)
    };
    let r1 = mk(91);
    let r2 = mk(92);
    let q = SpjrQuery {
        relations: vec![
            RelQuery { selection: Selection::new(vec![(0, 1)]), weights: vec![1.0, 0.5] },
            RelQuery { selection: Selection::new(vec![(1, 2)]), weights: vec![0.8, 1.2] },
        ],
        k: 10,
    };
    let rels = [&r1, &r2];
    let plan = optimize(&rels, &q);

    let mut g = c.benchmark_group("rank_join");
    g.sample_size(10);
    g.bench_function("rank_join_top10", |b| b.iter(|| RankJoin::run(&rels, &q, &plan, &disk)));
    g.bench_function("join_then_rank", |b| b.iter(|| full_join_topk(&rels, &q, &disk)));
    g.finish();
}

criterion_group!(benches, bench_skyline, bench_rank_join);
criterion_main!(benches);
