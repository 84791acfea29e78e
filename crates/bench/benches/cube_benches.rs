//! Criterion micro-benchmarks for the ranking-cube core: cube
//! construction, grid-cube queries, signature-cube queries, signature
//! coding and incremental maintenance.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rcube_baseline::{BooleanFirst, RankMapping, TableScan};
use rcube_core::gridcube::{CuboidSpec, GridCubeConfig, GridRankingCube};
use rcube_core::query::{Query, RankedSource};
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_func::Linear;
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;
use rcube_table::Selection;

const T: usize = 20_000;

fn bench_construction(c: &mut Criterion) {
    let rel = SyntheticSpec { tuples: T, ..Default::default() }.generate();
    let mut g = c.benchmark_group("construction");
    g.sample_size(10);
    g.bench_function("grid_cube_build", |b| {
        b.iter(|| {
            let disk = DiskSim::with_defaults();
            GridRankingCube::build(&rel, &disk, GridCubeConfig::default())
        })
    });
    g.bench_function("signature_cube_build", |b| {
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::for_page(4096, 2));
        b.iter(|| SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default()))
    });
    g.finish();
}

fn bench_topk_query(c: &mut Criterion) {
    let rel = SyntheticSpec { tuples: T, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let cube = GridRankingCube::build(&rel, &disk, GridCubeConfig::default());
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::for_page(4096, 2));
    let sig = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    let scan = TableScan::new(&rel, &disk);
    let bf = BooleanFirst::build(&rel, &disk);
    let rm = RankMapping::build(&rel, &disk);

    let mut g = c.benchmark_group("topk_query");
    for k in [10usize, 100] {
        let q = Query::select([(0, 1), (1, 2)]).rank(Linear::new(vec![1.0, 2.0])).top(k);
        g.bench_with_input(BenchmarkId::new("grid_cube", k), &q, |b, q| {
            b.iter(|| cube.source(&disk).query(&q.plan()).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("signature_cube", k), &q, |b, q| {
            b.iter(|| sig.source(&rtree, &disk).query(&q.plan()).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("table_scan", k), &q, |b, q| {
            b.iter(|| scan.source(&rel, &disk).query(&q.plan()).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("boolean_first", k), &q, |b, q| {
            b.iter(|| bf.source(&rel, &disk).query(&q.plan()).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("rank_mapping", k), &q, |b, q| {
            b.iter(|| rm.source(&rel, &disk).query(&q.plan()).unwrap())
        });
    }
    g.finish();
}

fn bench_fragments_covering(c: &mut Criterion) {
    // The fragments covering-set query: conditions spanning 1–3 fragments,
    // so the retrieve step streams a k-way posting-list intersection per
    // candidate block.
    let rel = SyntheticSpec { tuples: T, selection_dims: 6, cardinality: 5, ..Default::default() }
        .generate();
    let disk = DiskSim::with_defaults();
    let frags = GridRankingCube::build(
        &rel,
        &disk,
        GridCubeConfig { block_size: 300, cuboids: CuboidSpec::Fragments(2), ..Default::default() },
    );
    let spans: [(usize, Vec<(usize, u32)>); 3] =
        [(1, vec![(0, 1), (1, 2)]), (2, vec![(0, 1), (2, 2)]), (3, vec![(0, 1), (2, 2), (4, 0)])];
    let mut g = c.benchmark_group("fragments_covering_set");
    for (span, conds) in spans {
        let cover = frags.covering_cuboids(&Selection::new(conds.clone())).expect("covered");
        assert_eq!(cover.len(), span);
        g.bench_with_input(BenchmarkId::new("query", span), &conds, |b, conds| {
            let q = Query::select(conds.clone()).rank(Linear::uniform(2)).top(10);
            b.iter(|| frags.source(&disk).query(&q.plan()).unwrap())
        });
    }
    g.finish();
}

fn bench_coding(c: &mut Criterion) {
    use rcube_core::coding::{decode_node, encode_best};
    use rcube_storage::{BitReader, BitWriter};
    let mut sparse = rcube_storage::PackedBits::zeros(204);
    for i in (0..204).step_by(17) {
        sparse.set(i);
    }
    c.bench_function("signature_node_encode_decode", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            encode_best(&sparse, 204, &mut w);
            let mut r = BitReader::new(w.as_bytes(), w.len());
            decode_node(&mut r, 204)
        })
    });
}

fn bench_maintenance(c: &mut Criterion) {
    use rcube_core::maintain::apply_path_updates;
    let pool = 4096;
    let full = SyntheticSpec { tuples: T + pool, ..Default::default() }.generate();
    let rel = full.prefix(T);
    c.bench_function("incremental_insert_one", |b| {
        let disk = DiskSim::with_defaults();
        let mut rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::for_page(4096, 2));
        let mut cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
        let mut next = T as u32;
        b.iter(|| {
            if next >= (T + pool) as u32 {
                return; // pre-generated pool exhausted; later iters no-op
            }
            let ups = rtree.insert(&disk, next, full.ranking_point(next));
            apply_path_updates(
                &mut cube,
                &ups,
                |t| (0..3).map(|d| full.selection_value(t, d)).collect(),
                &disk,
            )
            .expect("apply path updates");
            next += 1;
        })
    });
}

criterion_group!(
    benches,
    bench_construction,
    bench_topk_query,
    bench_fragments_covering,
    bench_coding,
    bench_maintenance
);
criterion_main!(benches);
