//! Cross-engine equivalence: every top-k engine in the workspace must
//! return the same answers as a naive scan, on shared random workloads.

use ranking_cube::baseline::{BooleanFirst, RankMapping, RankingFirst, TableScan};
use ranking_cube::cube::delta::{wal_path_for, DeltaCube, DeltaOptions};
use ranking_cube::cube::gridcube::{CuboidSpec, GridCubeConfig, GridRankingCube};
use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::shard::{ShardedCube, ShardedCubeConfig};
use ranking_cube::cube::sigcube::{SignatureCube, SignatureCubeConfig};
use ranking_cube::func::{Expr, Linear, RankFn};
use ranking_cube::index::rtree::{RTree, RTreeConfig};
use ranking_cube::index::HierIndex;
use ranking_cube::merge::{IndexMerge, MergeConfig};
use ranking_cube::storage::DiskSim;
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::workload::{QueryGen, WorkloadParams};
use ranking_cube::table::{Relation, Selection, Tid};

mod common;
use common::quantized_relation;

fn naive_scores(
    rel: &Relation,
    sel: &Selection,
    f: &impl RankFn,
    dims: &[usize],
    k: usize,
) -> Vec<f64> {
    let mut v: Vec<f64> = rel
        .tids()
        .filter(|&t| sel.matches(rel, t))
        .map(|t| f.score(&rel.ranking_point_proj(t, dims)))
        .collect();
    v.sort_by(f64::total_cmp);
    v.truncate(k);
    v
}

/// Ranking fragments of size `f` (Section 3.4): a grid cube over `rel`
/// materializing each fragment's local cube, in memory and as the same
/// cube saved and reopened from `rcube_e2e_frags_<tag>_<pid>` under the
/// temp dir (the second is what a file-backed engine serves from).
fn fragments(
    rel: &Relation,
    disk: &DiskSim,
    f: usize,
    block_size: usize,
    tag: &str,
) -> (GridRankingCube, GridRankingCube) {
    let config =
        GridCubeConfig { block_size, cuboids: CuboidSpec::Fragments(f), ..Default::default() };
    let mem = GridRankingCube::build(rel, disk, config);
    let mut path = std::env::temp_dir();
    path.push(format!("rcube_e2e_frags_{tag}_{}", std::process::id()));
    mem.save_to(&path).expect("save fragments");
    let file = GridRankingCube::open_from(&path).expect("reopen fragments");
    let _ = std::fs::remove_file(&path);
    (mem, file)
}

fn assert_scores(got: &[f64], want: &[f64], engine: &str) {
    assert_eq!(got.len(), want.len(), "{engine}: answer count");
    for (g, w) in got.iter().zip(want) {
        assert!((g - w).abs() < 1e-9, "{engine}: {g} vs {w}");
    }
}

#[test]
fn five_engines_agree_on_random_workload() {
    let rel = SyntheticSpec { tuples: 4_000, cardinality: 5, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();

    let grid = GridRankingCube::build(
        &rel,
        &disk,
        GridCubeConfig { block_size: 100, ..Default::default() },
    );
    let (frags, _) = fragments(&rel, &disk, 1, 100, "five");
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    let sig = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    let scan = TableScan::new(&rel, &disk);
    let bf = BooleanFirst::build(&rel, &disk);
    let rm = RankMapping::build(&rel, &disk);

    let mut qg = QueryGen::new(WorkloadParams { num_conditions: 2, k: 10, ..Default::default() });
    for spec in qg.batch(&rel, 12) {
        let f = Linear::new(spec.weights.clone());
        let want = naive_scores(&rel, &spec.selection, &f, &spec.ranking_dims, spec.k);
        let q = Query::select(spec.selection.conds().to_vec())
            .rank_on(spec.ranking_dims.clone(), f)
            .top(spec.k);
        assert_scores(&grid.source(&disk).query(&q.plan()).unwrap().scores(), &want, "grid cube");
        assert_scores(&frags.source(&disk).query(&q.plan()).unwrap().scores(), &want, "fragments");
        assert_scores(
            &sig.source(&rtree, &disk).query(&q.plan()).unwrap().scores(),
            &want,
            "signature",
        );
        assert_scores(
            &scan.source(&rel, &disk).query(&q.plan()).unwrap().scores(),
            &want,
            "table scan",
        );
        assert_scores(
            &bf.source(&rel, &disk).query(&q.plan()).unwrap().scores(),
            &want,
            "boolean first",
        );
        assert_scores(
            &rm.source(&rel, &disk).query(&q.plan()).unwrap().scores(),
            &want,
            "rank mapping",
        );
        assert_scores(
            &RankingFirst::source(&rtree, &rel, &disk).query(&q.plan()).unwrap().scores(),
            &want,
            "ranking first",
        );
    }
}

#[test]
fn merge_engines_agree_without_selection() {
    let rel = SyntheticSpec { tuples: 2_000, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let trees: Vec<ranking_cube::index::BPlusTree> = (0..2)
        .map(|d| {
            ranking_cube::index::BPlusTree::bulk_load_with_fanout(
                &disk,
                rel.ranking_column(d).iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
                16,
            )
        })
        .collect();
    let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
    let merge = IndexMerge::new(idx).with_full_signature(&disk);
    for weights in [vec![1.0, 1.0], vec![2.0, -1.0], vec![0.1, 3.0]] {
        let f = Linear::new(weights);
        let q = Query::all().rank(f.clone()).top(15);
        let got = merge.source(MergeConfig::default(), &disk).query(&q.plan()).unwrap();
        let want = naive_scores(&rel, &Selection::all(), &f, &[0, 1], 15);
        assert_scores(&got.scores(), &want, "index merge");
    }
}

#[test]
fn engines_agree_on_skewed_and_correlated_data() {
    use ranking_cube::table::gen::DataDist;
    for dist in [DataDist::Correlated, DataDist::AntiCorrelated] {
        let rel = SyntheticSpec { tuples: 2_000, dist, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let grid = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 64, ..Default::default() },
        );
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
        let sig = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
        let f = Linear::new(vec![1.0, 0.5]);
        let q = Query::select([(0, 1)]).rank(f.clone()).top(10);
        let want = naive_scores(&rel, q.selection(), &f, &[0, 1], 10);
        assert_scores(
            &grid.source(&disk).query(&q.plan()).unwrap().scores(),
            &want,
            "grid cube (skewed)",
        );
        assert_scores(
            &sig.source(&rtree, &disk).query(&q.plan()).unwrap().scores(),
            &want,
            "signature (skewed)",
        );
    }
}

#[test]
fn forest_surrogate_end_to_end() {
    let rel = ranking_cube::table::gen::forest_cover(3_000, 99);
    let disk = DiskSim::with_defaults();
    let (frags, reopened) = fragments(&rel, &disk, 3, 100, "forest");
    let f = Linear::new(vec![1.0, 1.0, 1.0]);
    let q = Query::select([(4, 1), (5, 0)]).rank(f.clone()).top(10);
    let want = naive_scores(&rel, q.selection(), &f, &[0, 1, 2], 10);
    for (cube, what) in
        [(&frags, "fragments on forest"), (&reopened, "reopened fragments on forest")]
    {
        assert_scores(&cube.source(&disk).query(&q.plan()).unwrap().scores(), &want, what);
    }
}

/// A route under test: its name and how it answers a query.
type Route<'a> = (&'a str, &'a dyn Fn(&Query) -> Vec<(Tid, f64)>);

/// The 45 tie queries (5 selections × 3 weightings × 3 values of k), all
/// linear over both ranking dimensions: the one list every source answers.
fn tie_queries() -> Vec<Query> {
    let selections: [&[(usize, u32)]; 5] =
        [&[], &[(0, 0)], &[(0, 1)], &[(1, 3)], &[(0, 0), (1, 0)]];
    let mut queries = Vec::new();
    for conds in selections {
        for weights in [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]] {
            for k in [1, 10, 25] {
                let f = Linear::new(weights.to_vec());
                queries.push(Query::select(conds.iter().copied()).rank(f).top(k));
            }
        }
    }
    queries
}

fn bits(items: &[(Tid, f64)]) -> Vec<(Tid, u64)> {
    items.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

/// Runs `queries` through every `(name, answer)` route and holds each to
/// the scan's `(score, tid)` order bit for bit.
fn assert_routes_break_ties_like_the_scan<'q>(
    rel: &Relation,
    disk: &DiskSim,
    queries: impl IntoIterator<Item = &'q Query>,
    routes: &[Route<'_>],
) {
    let scan = TableScan::new(rel, disk);
    for q in queries {
        let want = scan.source(rel, disk).query(&q.plan()).unwrap().items;
        for (route, answer) in routes {
            let weights = q.plan().func.linear_weights();
            assert_eq!(bits(&answer(q)), bits(&want), "{route}, {q:?} weights {weights:?}");
        }
    }
}

/// The signature route must answer the scan's `(score, tid)` order bit for
/// bit: straight off a cube, and through a delta cube whose memtable holds
/// one more tuple tied with the best of the base.
#[test]
fn quantized_ties_break_by_tid_on_the_signature_route() {
    let rel = quantized_relation();
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    let sig = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());

    let base = rel.prefix(rel.len() - 1);
    let mut path = std::env::temp_dir();
    path.push(format!("rcube_e2e_ties_{}", std::process::id()));
    let base_tree = RTree::over_relation(&disk, &base, &[], RTreeConfig::small(16));
    SignatureCube::build(&base, &base_tree, &disk, SignatureCubeConfig::default())
        .save_to(&base_tree, &path)
        .expect("save base cube");
    let delta = DeltaCube::open(&path, base, DeltaOptions::default()).expect("open delta cube");
    let last = rel.len() as Tid - 1;
    assert_eq!(delta.insert(&[0, 0, 0], &rel.ranking_point(last)).unwrap(), last);

    assert_routes_break_ties_like_the_scan(
        &rel,
        &disk,
        &tie_queries(),
        &[
            ("signature cube", &|q| sig.source(&rtree, &disk).query(&q.plan()).unwrap().items),
            ("delta cube", &|q| delta.source().query(&q.plan()).unwrap().items),
        ],
    );
    drop(delta);
    let _ = std::fs::remove_file(wal_path_for(&path));
    let _ = std::fs::remove_file(&path);
}

/// The same fixture through the routes that certify against *block*
/// bounds — grid cube, fragments in memory and reopened, a sharded grid
/// set — and through the ranking-first baseline: a block or node whose
/// bound ties the best candidate may still hold an equal-score tuple with
/// a smaller tid.
#[test]
fn quantized_ties_break_by_tid_on_the_grid_routes_and_ranking_first() {
    let rel = quantized_relation();
    let disk = DiskSim::with_defaults();
    let grid_cfg = GridCubeConfig { block_size: 100, ..Default::default() };
    let grid = GridRankingCube::build(&rel, &disk, grid_cfg.clone());
    let (frags, reopened) = fragments(&rel, &disk, 1, 100, "ties");
    let sharded = ShardedCube::build_in_memory(
        &rel,
        &ShardedCubeConfig { shards: 3, grid: grid_cfg, ..Default::default() },
    );
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));

    assert_routes_break_ties_like_the_scan(
        &rel,
        &disk,
        &tie_queries(),
        &[
            ("grid cube", &|q| grid.source(&disk).query(&q.plan()).unwrap().items),
            ("fragments", &|q| frags.source(&disk).query(&q.plan()).unwrap().items),
            ("fragments (file)", &|q| reopened.source(&disk).query(&q.plan()).unwrap().items),
            ("sharded grid", &|q| sharded.source().query(&q.plan()).unwrap().items),
            ("ranking-first", &|q| {
                RankingFirst::source(&rtree, &rel, &disk).query(&q.plan()).unwrap().items
            }),
        ],
    );
}

/// And through the sources no tie fixture had reached: Boolean-first and
/// rank-mapping on every query, index-merge (which ranks the whole
/// relation) on the ones without a selection.
#[test]
fn quantized_ties_break_by_tid_on_the_filter_first_baselines_and_index_merge() {
    let rel = quantized_relation();
    let disk = DiskSim::with_defaults();
    let bf = BooleanFirst::build(&rel, &disk);
    let rm = RankMapping::build(&rel, &disk);
    let trees: Vec<ranking_cube::index::BPlusTree> = (0..2)
        .map(|d| {
            ranking_cube::index::BPlusTree::bulk_load_with_fanout(
                &disk,
                rel.ranking_column(d).iter().enumerate().map(|(i, &v)| (v, i as u32)).collect(),
                16,
            )
        })
        .collect();
    let idx: Vec<&dyn HierIndex> = trees.iter().map(|t| t as &dyn HierIndex).collect();
    let merge = IndexMerge::new(idx.clone());
    let merge_sig = IndexMerge::new(idx).with_full_signature(&disk);
    let cfg = MergeConfig::default();

    let queries = tie_queries();
    assert_routes_break_ties_like_the_scan(
        &rel,
        &disk,
        &queries,
        &[
            ("boolean-first", &|q| bf.source(&rel, &disk).query(&q.plan()).unwrap().items),
            ("rank-mapping", &|q| rm.source(&rel, &disk).query(&q.plan()).unwrap().items),
        ],
    );
    assert_routes_break_ties_like_the_scan(
        &rel,
        &disk,
        queries.iter().filter(|q| q.selection().is_empty()),
        &[
            ("index-merge", &|q| merge.source(cfg, &disk).query(&q.plan()).unwrap().items),
            ("index-merge + signature", &|q| {
                merge_sig.source(cfg, &disk).query(&q.plan()).unwrap().items
            }),
        ],
    );
}

/// A ranking function with two basins — `min` of two bowls, the second
/// raised by `off` — through every route that runs the grid search. The
/// second basin's blocks are no neighbours of anything the first basin's
/// search reads, so answers certified against the frontier alone miss them
/// (28 of these 48 queries did on the grid route); the search has to hold
/// its candidates against the blocks it has not reached as well.
#[test]
fn two_basins_are_both_searched_on_the_grid_routes() {
    let rel = SyntheticSpec { tuples: 4_000, cardinality: 3, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let grid_cfg = GridCubeConfig { block_size: 40, ..Default::default() };
    let grid = GridRankingCube::build(&rel, &disk, grid_cfg.clone());
    let (frags, reopened) = fragments(&rel, &disk, 1, 40, "basins");
    let sharded = ShardedCube::build_in_memory(
        &rel,
        &ShardedCubeConfig { shards: 3, grid: grid_cfg, ..Default::default() },
    );
    let routes: [Route<'_>; 4] = [
        ("grid cube", &|q| grid.source(&disk).query(&q.plan()).unwrap().items),
        ("fragments", &|q| frags.source(&disk).query(&q.plan()).unwrap().items),
        ("fragments (file)", &|q| reopened.source(&disk).query(&q.plan()).unwrap().items),
        ("sharded grid", &|q| sharded.source().query(&q.plan()).unwrap().items),
    ];
    let scan = TableScan::new(&rel, &disk);
    let bowl = |x: f64, y: f64| {
        Expr::var(0)
            .sub(Expr::constant(x))
            .square()
            .add(Expr::var(1).sub(Expr::constant(y)).square())
    };
    for off in [0.0, 0.0005, 0.002, 0.01] {
        for k in [1, 5, 20, 50] {
            for v in 0..3 {
                let f = bowl(0.1, 0.15).min(bowl(0.9, 0.85).add(Expr::constant(off)));
                let q = Query::select([(0, v)]).rank(f).top(k);
                let want = scan.source(&rel, &disk).query(&q.plan()).unwrap().items;
                for (route, answer) in &routes {
                    assert_eq!(bits(&answer(&q)), bits(&want), "{route}, off {off} (0,{v}) k={k}");
                }
            }
        }
    }
}
