//! Criterion micro-benchmarks for index-merge (Chapter 5): basic vs
//! progressive vs signature-pruned search under the three controlled
//! function families.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcube_core::query::{Query, RankedSource};
use rcube_func::{Constrained, GeneralSq, Linear, SqDist};
use rcube_index::bptree::BPlusTree;
use rcube_index::HierIndex;
use rcube_merge::{Expansion, IndexMerge, MergeAlgo, MergeConfig};
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;

const T: usize = 20_000;

fn queries() -> [(&'static str, Query); 3] {
    [
        ("fs", Query::all().rank(SqDist::new(vec![0.35, 0.65])).top(100)),
        ("fg", Query::all().rank(GeneralSq::fg()).top(100)),
        ("fc", Query::all().rank(Constrained::new(Linear::uniform(2), 1, 0.25, 0.55)).top(100)),
    ]
}

fn bench_merge(c: &mut Criterion) {
    let rel = SyntheticSpec { tuples: T, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let trees: Vec<BPlusTree> = (0..2)
        .map(|d| {
            BPlusTree::bulk_load_with_fanout(
                &disk,
                rel.ranking_column(d).iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
                64,
            )
        })
        .collect();
    let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
    let plain = IndexMerge::new(idx.clone());
    let with_sig = IndexMerge::new(idx).with_full_signature(&disk);

    let mut g = c.benchmark_group("index_merge_top100");
    g.sample_size(10);
    for (name, q) in &queries() {
        g.bench_with_input(BenchmarkId::new("basic", name), q, |b, q| {
            let cfg = MergeConfig { algo: MergeAlgo::Basic, expansion: Expansion::Auto };
            b.iter(|| plain.source(cfg, &disk).query(&q.plan()).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("progressive", name), q, |b, q| {
            b.iter(|| plain.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("progressive_sig", name), q, |b, q| {
            b.iter(|| with_sig.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap())
        });
    }
    g.finish();
}

fn bench_joinsig_build(c: &mut Criterion) {
    let rel = SyntheticSpec { tuples: T, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let trees: Vec<BPlusTree> = (0..2)
        .map(|d| {
            BPlusTree::bulk_load_with_fanout(
                &disk,
                rel.ranking_column(d).iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
                64,
            )
        })
        .collect();
    let mut g = c.benchmark_group("joinsig");
    g.sample_size(10);
    g.bench_function("build_full", |b| {
        b.iter(|| {
            let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
            IndexMerge::new(idx).with_full_signature(&disk)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_merge, bench_joinsig_build);
criterion_main!(benches);
