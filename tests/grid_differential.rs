//! The grid route against the scan, on the inputs its block bounds have to
//! survive: values continuous and quantized to eighths (scores tying tuple
//! against tuple and against bounds), a convex function of every family
//! and a non-convex two-bowl `Expr`, zero to three predicates — on a full
//! cube, where one cuboid covers a query, and on a `Fragments(2)` cube,
//! where two or more covering cuboids intersect their entries' boxes — at
//! k = 1, 10 and everything, and resumed by `extend_k`. Every answer must
//! be the scan's `(score bits, tid)` list, and a cube reopened from its
//! file must read exactly the blocks the in-memory cube reads. The same
//! queries run through the engine twice: over the reopened file — a set
//! of one shard, the grid route, which must read exactly the bare cube's
//! blocks — and over three region shards, the sharded route.

use ranking_cube::baseline::TableScan;
use ranking_cube::cube::gridcube::{CuboidSpec, GridCubeConfig, GridRankingCube};
use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::shard::ShardedCubeConfig;
use ranking_cube::func::{Expr, GeneralSq, L1Dist, Linear, RankFn, SqDist};
use ranking_cube::storage::DiskSim;
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::{Relation, Selection, Tid};
use ranking_cube::{Engine, Route};

mod common;
use common::quantized_relation;

fn bits(items: &[(Tid, f64)]) -> Vec<(Tid, u64)> {
    items.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

/// `min` of two bowls, the second raised a little: a ranking function
/// with two basins, the second out of reach of the first's neighbourhood.
fn two_bowls() -> Expr {
    let bowl = |x: f64, y: f64| {
        Expr::var(0)
            .sub(Expr::constant(x))
            .square()
            .add(Expr::var(1).sub(Expr::constant(y)).square())
    };
    bowl(0.1, 0.15).min(bowl(0.9, 0.85).add(Expr::constant(0.0005)))
}

/// A ranking function of each family, by name; a query takes its own.
type Family = (&'static str, fn() -> Box<dyn RankFn>);

fn functions() -> [Family; 5] {
    [
        ("linear", || Box::new(Linear::new(vec![1.0, -0.5]))),
        ("sqdist", || Box::new(SqDist::new(vec![0.3, 0.7]))),
        ("l1dist", || Box::new(L1Dist::new(vec![0.8, 0.25]))),
        ("generalsq", || Box::new(GeneralSq::fg())),
        ("two bowls", || Box::new(two_bowls())),
    ]
}

/// Zero to three predicates over three selection dimensions. Under
/// `Fragments(2)` (cuboids over {0, 1} and {2}) the last two are covered
/// by two cuboids.
const SELECTIONS: [&[(usize, u32)]; 5] =
    [&[], &[(1, 2)], &[(0, 1), (1, 0)], &[(0, 0), (2, 1)], &[(0, 1), (1, 2), (2, 0)]];

/// A cube over `rel`, in memory and reopened from the file it saves, and
/// two engines over `rel`: one serving a second reopening of that file (the
/// grid route), one serving three region shards of the same shape (the
/// sharded route).
fn cubes(
    rel: &Relation,
    disk: &DiskSim,
    cuboids: CuboidSpec,
    tag: &str,
) -> ([GridRankingCube; 2], [Engine; 2]) {
    let config = GridCubeConfig { block_size: 40, cuboids, ..Default::default() };
    let mem = GridRankingCube::build(rel, disk, config.clone());
    let mut path = std::env::temp_dir();
    path.push(format!("rcube_grid_differential_{tag}_{}", std::process::id()));
    mem.save_to(&path).expect("save");
    let file = GridRankingCube::open_from(&path).expect("reopen");
    let grid =
        Engine::new(rel.clone()).with_prebuilt_grid(GridRankingCube::open_from(&path).unwrap());
    let _ = std::fs::remove_file(&path);
    let shards = ShardedCubeConfig { shards: 3, grid: config, ..Default::default() };
    let sharded = Engine::new(rel.clone()).with_sharded_cube(shards);
    ([mem, file], [grid, sharded])
}

#[test]
fn the_grid_route_answers_as_the_scan_does_in_memory_and_reopened() {
    let continuous =
        SyntheticSpec { tuples: 4_000, cardinality: 5, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    for (data, rel) in [("continuous", continuous), ("quantized", quantized_relation())] {
        assert_eq!(rel.schema().num_selection(), 3, "{data}");
        let scan = TableScan::new(&rel, &disk);
        let shapes = [
            ("full", CuboidSpec::AllSubsets, [0, 1, 1, 1, 1]),
            ("fragments", CuboidSpec::Fragments(2), [0, 1, 1, 2, 2]),
        ];
        for (shape, cuboids, covers) in shapes {
            let ([mem, file], engines) = cubes(&rel, &disk, cuboids, &format!("{data}_{shape}"));
            for (conds, covers) in SELECTIONS.into_iter().zip(covers) {
                let sel = Selection::new(conds.to_vec());
                assert_eq!(mem.covering_cuboids(&sel).map(|c| c.len()), Some(covers), "{conds:?}");
                for (family, f) in functions() {
                    for k in [1, 10, rel.len()] {
                        let q = Query::select(conds.iter().copied()).rank(f()).top(k);
                        let what = format!("{data}, {shape}, {conds:?}, {family}, k={k}");
                        let want = bits(&scan.source(&rel, &disk).query(&q.plan()).unwrap().items);
                        let got =
                            [&mem, &file].map(|cube| cube.source(&disk).query(&q.plan()).unwrap());
                        assert_eq!(bits(&got[0].items), want, "{what}, in memory");
                        assert_eq!(bits(&got[1].items), want, "{what}, reopened");
                        assert_eq!(
                            got[0].stats.blocks_read, got[1].stats.blocks_read,
                            "{what}: blocks"
                        );
                        let [grid, sharded] = &engines;
                        assert_eq!(grid.route(&q), Route::Grid, "{what}");
                        assert_eq!(sharded.route(&q), Route::Sharded, "{what}");
                        let served = [grid, sharded].map(|eng| eng.query(&q).unwrap());
                        assert_eq!(bits(&served[0].items), want, "{what}, grid route");
                        assert_eq!(bits(&served[1].items), want, "{what}, sharded route");
                        assert_eq!(
                            served[0].stats.blocks_read, got[0].stats.blocks_read,
                            "{what}: the grid route reads the bare cube's blocks"
                        );
                    }
                    // Three answers, then seven more from the same cursor.
                    let q = Query::select(conds.iter().copied()).rank(f()).top(3);
                    let fresh = Query::select(conds.iter().copied()).rank(f()).top(10);
                    let want = bits(&scan.source(&rel, &disk).query(&fresh.plan()).unwrap().items);
                    let cursors = [&mem, &file].map(|cube| cube.source(&disk).open(&q.plan()));
                    let served = engines.each_ref().map(|eng| eng.open(&q));
                    for cursor in cursors.into_iter().chain(served) {
                        let mut cursor = cursor.unwrap();
                        let mut resumed = cursor.drain().items;
                        cursor.extend_k(7);
                        resumed.extend(cursor.drain().items);
                        assert_eq!(
                            bits(&resumed),
                            want,
                            "{data}, {shape}, {conds:?}, {family}, extend_k"
                        );
                    }
                }
            }
        }
    }
}
