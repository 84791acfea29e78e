//! The partitioned cube set, proven end to end:
//!
//! * **Sharded ≡ unsharded.** The scatter-gather merge is byte-identical
//!   to one cube over the same relation — full top-k, every cursor
//!   prefix, and `take(j) + extend_k(k−j) + take(k−j)` vs a fresh
//!   `take(k)` — checked by proptest in memory (random relations, shard
//!   counts, queries) and against a set reopened from its manifest and
//!   shard files.
//! * **Shards are regions, opened in bound order.** Every shard a
//!   finished query left unopened has a box bound above its k-th answer,
//!   ties that straddle a cut and functions with two basins answer like
//!   the unsharded grid.
//! * **The shard is the degradation unit.** Corrupting one shard's cube
//!   file surfaces as a typed error naming that shard; the engine
//!   quarantines per shard, keeps answering through the scan fallback
//!   with identical items, and `repair_shard` restores just the repaired
//!   shard's entries.
//! * **The manifest rejects corruption** with a typed error, byte by
//!   byte, like every other file in the repo.

use std::sync::OnceLock;

use ranking_cube::cube::gridcube::{CuboidSpec, GridCubeConfig, GridRankingCube};
use ranking_cube::cube::query::{Query, RankedSource, TopKCursor};
use ranking_cube::cube::shard::{ShardedCube, ShardedCubeConfig};
use ranking_cube::func::{Expr, Linear, SqDist};
use ranking_cube::storage::{DiskSim, FileBackend, ShardManifest, StorageError};
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::{Relation, Tid};
use ranking_cube::{Engine, Route};

mod common;

fn rel(tuples: usize, seed: u64) -> Relation {
    SyntheticSpec { tuples, cardinality: 4, seed, ..Default::default() }.generate()
}

fn take(cursor: &mut TopKCursor<'_>, n: usize) -> Vec<(u32, f64)> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        match cursor.next() {
            Some(item) => out.push(item),
            None => break,
        }
    }
    out
}

/// Full parity check for one (query, k, j): unsharded batch vs sharded
/// batch, every cursor prefix, and split-at-j resume vs fresh run.
fn check_parity(rel: &Relation, cube: &ShardedCube, query: &Query, k: usize, j: usize) {
    let j = j.min(k);
    let disk = DiskSim::with_defaults();
    let unsharded = GridRankingCube::build(rel, &disk, GridCubeConfig::default());
    let mut plan = query.plan();
    plan.k = k;
    let expect = unsharded.source(&disk).query(&plan).expect("unsharded").items;

    let got = cube.source().query(&plan).expect("sharded batch");
    assert_eq!(got.items, expect, "batch answers must be byte-identical");

    // Every prefix of the sharded cursor is a prefix of the answer.
    let mut cursor = cube.source().open(&plan).expect("open sharded");
    let streamed = take(&mut cursor, k);
    assert_eq!(streamed, expect, "streamed answers must equal the batch");
    drop(cursor);

    // Resume ≡ restart, shard-wise: j answers, pause, extend, drain.
    let mut split_plan = query.plan();
    split_plan.k = j;
    let mut split = cube.source().open(&split_plan).expect("open split");
    let mut items = take(&mut split, j);
    split.extend_k(k - j);
    items.extend(take(&mut split, k - j));
    assert_eq!(items, expect, "split at {j} + extend must equal a fresh top-{k}");
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(48))]
    /// In-memory parity over random relations, shard counts and queries.
    #[test]
    fn proptest_sharded_matches_unsharded_in_memory(
        tuples in 150usize..700,
        shards in 1usize..6,
        seed in 0u64..200,
        d0 in 0u32..4,
        k in 1usize..25,
        j in 0usize..25,
    ) {
        let relation = rel(tuples, seed);
        let cfg = ShardedCubeConfig { shards, ..Default::default() };
        let cube = ShardedCube::build_in_memory(&relation, &cfg);
        let query = Query::select([(0, d0)]).rank(Linear::uniform(2)).top(k);
        check_parity(&relation, &cube, &query, k, j);
    }
}

/// The file-backed set every reopened-parity case runs against, built
/// once: relation + manifest + three shard cube files in the temp dir.
fn file_set() -> &'static (Relation, ShardedCube) {
    static SET: OnceLock<(Relation, ShardedCube)> = OnceLock::new();
    SET.get_or_init(|| {
        let relation = rel(900, 77);
        let dir = std::env::temp_dir();
        let manifest = dir.join(format!("rcube_sharded_parity_{}.manifest", std::process::id()));
        let cfg = ShardedCubeConfig { shards: 3, ..Default::default() };
        ShardedCube::build_to(&relation, &manifest, &cfg).expect("build shard set to disk");
        // Reopen from scratch: the parity below runs over buffer-pool
        // frames, not the in-memory build.
        let cube = ShardedCube::open_from(&manifest).expect("reopen from manifest");
        assert_eq!(cube.num_shards(), 3);
        (relation, cube)
    })
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(32))]
    /// The same parity properties against the set reopened from files.
    #[test]
    fn proptest_sharded_matches_unsharded_reopened(
        d0 in 0u32..4,
        d1 in 0u32..4,
        k in 1usize..30,
        j in 0usize..30,
    ) {
        let (relation, cube) = file_set();
        let query = Query::select([(0, d0), (1, d1)]).rank(Linear::uniform(2)).top(k);
        check_parity(relation, cube, &query, k, j);
    }
}

/// Damages a shard file's data pages — every page between the
/// superblocks at the front and the catalog the superblock names, which
/// the writer appends after the data: the file still *opens*, and the page
/// checksums catch the rot only when a query pulls a damaged page.
/// Returns the pristine bytes.
fn damage_data_pages(path: &std::path::Path) -> Vec<u8> {
    let pristine = std::fs::read(path).expect("read shard file");
    let sb = FileBackend::peek_superblock(path).expect("superblock");
    let mut bad = pristine.clone();
    let page = sb.page_size as usize;
    let (lo, hi) = (2 * page, sb.catalog_first.expect("a catalog") as usize * page);
    assert!(lo < hi, "the shard has data pages");
    for b in &mut bad[lo..hi] {
        *b ^= 0x55;
    }
    std::fs::write(path, &bad).expect("write damaged shard");
    pristine
}

#[test]
fn corrupted_shard_degrades_per_shard_and_repairs() {
    let relation = rel(700, 9);
    let dir = std::env::temp_dir().join(format!("rcube_shard_fault_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("set.manifest");
    let cfg = ShardedCubeConfig { shards: 3, ..Default::default() };
    let built = ShardedCube::build_to(&relation, &manifest, &cfg).expect("build to disk");
    let shard1 = &built.shards()[1];
    assert!(!shard1.tids().is_empty() && shard1.tids()[0] > 0, "shard 1's tids start past 0");
    let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(40);
    drop(built.source().query(&q.plan()).expect("pristine set answers"));
    assert!(built.last_fanout().unwrap().shards[1].opened, "the query opens shard 1");
    drop(built);

    let shard1 = dir.join("set.shard1");
    let pristine = damage_data_pages(&shard1);

    let cube = ShardedCube::open_from(&manifest).expect("superblocks still elect");
    let err = cube.verify_integrity().expect_err("scrub must catch the damage");
    assert!(
        matches!(err, StorageError::ChecksumMismatch { .. } | StorageError::Malformed(_)),
        "typed error, got {err:?}"
    );
    let failed = cube.failed_shards();
    assert_eq!(failed.len(), 1, "exactly the damaged shard is condemned");
    assert_eq!(failed[0].0, 1, "the error names shard 1");
    drop(cube);

    // Behind the engine: a *fresh* open knows nothing yet, so the fault
    // surfaces mid-query — the sharded route is quarantined per shard,
    // the scan fallback answers identically, and targeted repair
    // restores it.
    let cube = ShardedCube::open_from(&manifest).expect("reopen for serving");
    let eng = Engine::new(relation.clone()).with_prebuilt_sharded(cube);
    let degraded = eng.query(&q).expect("scan fallback must answer");
    assert_eq!(degraded.stats.path_fallbacks, 1, "one route abandoned");
    let quarantined = eng.quarantined();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].0, Route::Sharded);
    assert!(quarantined[0].1.contains("shard 1"), "reason names the shard: {}", quarantined[0].1);
    assert_eq!(eng.route(&q), Route::Scan, "subsequent queries skip the condemned set");

    // Degradation changed the path, never the answer.
    let scan_only = Engine::new(relation.clone());
    assert_eq!(degraded.items, scan_only.query(&q).unwrap().items);

    // Repair: restore the pristine bytes, reopen just shard 1.
    std::fs::write(&shard1, &pristine).expect("restore shard file");
    let mut eng = eng;
    eng.repair_shard(1).expect("repair reopens the healed shard");
    assert!(eng.quarantined().is_empty(), "the shard's entries are lifted");
    assert_eq!(eng.route(&q), Route::Sharded, "the set serves again");
    let healed = eng.query(&q).unwrap();
    assert_eq!(healed.items, degraded.items, "repair changed the path, not the answer");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_manifest_is_a_typed_error() {
    let relation = rel(300, 5);
    let dir = std::env::temp_dir().join(format!("rcube_manifest_fault_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("set.manifest");
    let cfg =
        ShardedCubeConfig { shards: 2, grid: GridCubeConfig::default(), ..Default::default() };
    drop(ShardedCube::build_to(&relation, &manifest, &cfg).expect("build to disk"));

    let bytes = std::fs::read(&manifest).expect("read manifest");
    for i in (0..bytes.len()).step_by(7) {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        assert!(ShardManifest::decode(&bad).is_err(), "manifest flip at byte {i} went undetected");
    }
    let mut bad = bytes.clone();
    bad[0] ^= 0x40;
    std::fs::write(&manifest, &bad).expect("write damaged manifest");
    let err = ShardedCube::open_from(&manifest).expect_err("open must reject");
    assert!(
        matches!(err, StorageError::ChecksumMismatch { .. }),
        "CRC catches the flip before the magic field, got {err:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `query` on `cube` and checks the stop rule: every shard the
/// finished query left unopened has a box bound strictly greater than the
/// k-th answer's score. Returns how many shards opened.
fn assert_certified(cube: &ShardedCube, query: &Query) -> usize {
    let plan = query.plan();
    let got = cube.source().query(&plan).expect("sharded query");
    let fanout = cube.last_fanout().expect("fan-out recorded on drop");
    assert_eq!(fanout.opened() as u64, got.stats.shards_opened);
    for (shard, row) in cube.shards().iter().zip(&fanout.shards).filter(|(_, row)| !row.opened) {
        let bound = plan.func.lower_bound(&shard.region().project(plan.ranking_dims));
        assert_eq!(got.items.len(), plan.k, "a shard stayed shut on a short answer: {fanout}");
        let kth = got.items[plan.k - 1].1;
        assert!(bound > kth, "shard {} skipped at bound {bound} <= k-th {kth}", row.shard);
    }
    fanout.opened()
}

/// The stop rule holds over a fixed query set on 3 and 5 region shards,
/// in memory and reopened from files, and a query at the low corner of
/// the ranking space opens fewer shards than the set holds.
#[test]
fn unopened_shards_are_certified_by_their_box_bounds() {
    let relation = rel(2_000, 21);
    let dir = std::env::temp_dir().join(format!("rcube_shard_cert_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut queries = Vec::new();
    for sel in [vec![], vec![(0, 1)], vec![(0, 2), (1, 3)]] {
        for k in [1, 10, 40] {
            for w in [[1.0, 1.0], [1.0, 0.0], [0.2, 1.0]] {
                queries.push(Query::select(sel.clone()).rank(Linear::new(w.to_vec())).top(k));
            }
            let near = SqDist::new(vec![0.8, 0.3]);
            queries.push(Query::select(sel.clone()).rank(near).top(k));
        }
    }
    let corner = Query::all().rank(Linear::uniform(2)).top(5);
    for shards in [3, 5] {
        let cfg = ShardedCubeConfig { shards, ..Default::default() };
        let manifest = dir.join(format!("set{shards}.manifest"));
        drop(ShardedCube::build_to(&relation, &manifest, &cfg).expect("build to disk"));
        let sets = [
            ShardedCube::build_in_memory(&relation, &cfg),
            ShardedCube::open_from(&manifest).expect("reopen"),
        ];
        for cube in &sets {
            for q in &queries {
                assert_certified(cube, q);
            }
            assert!(assert_certified(cube, &corner) < shards, "{shards} shards");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn bits(items: &[(Tid, f64)]) -> Vec<(Tid, u64)> {
    items.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

/// Ties across cuts: the quantized relation's values are eighths, so a
/// cut falls inside a run of equal coordinates and equal scores sit on
/// both sides of it. The set still answers the unsharded grid byte for
/// byte, tie order included.
#[test]
fn ties_across_region_cuts_answer_like_the_unsharded_grid() {
    let relation = common::quantized_relation();
    let grid = GridCubeConfig { block_size: 100, ..Default::default() };
    let disk = DiskSim::with_defaults();
    let unsharded = GridRankingCube::build(&relation, &disk, grid.clone());
    let cube = ShardedCube::build_in_memory(
        &relation,
        &ShardedCubeConfig { shards: 4, grid, ..Default::default() },
    );
    let r = |i: usize| cube.shards()[i].region();
    let left = r(0).hi(0).max(r(1).hi(0));
    assert_eq!(left, r(2).lo(0).min(r(3).lo(0)), "the first cut splits a run of equal x");
    for sel in [vec![], vec![(0, 0)], vec![(1, 3)], vec![(0, 0), (1, 0)]] {
        for w in [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]] {
            for k in [1, 10, 25, 60] {
                let q = Query::select(sel.clone()).rank(Linear::new(w.to_vec())).top(k);
                let want = unsharded.source(&disk).query(&q.plan()).unwrap().items;
                let got = cube.source().query(&q.plan()).unwrap().items;
                assert_eq!(bits(&got), bits(&want), "{q:?} weights {w:?}");
            }
        }
    }
}

/// Functions whose minimum is not at a corner: the `min` of two bowls
/// (two basins in opposite shards) and a squared distance to an interior
/// point, through 4 region shards, equal the unsharded grid.
#[test]
fn non_convex_functions_through_region_shards_match_the_unsharded_grid() {
    let relation = rel(3_000, 5);
    let disk = DiskSim::with_defaults();
    let unsharded = GridRankingCube::build(&relation, &disk, GridCubeConfig::default());
    let cube = ShardedCube::build_in_memory(&relation, &ShardedCubeConfig::default());
    let bowl = |x: f64, y: f64| {
        Expr::var(0)
            .sub(Expr::constant(x))
            .square()
            .add(Expr::var(1).sub(Expr::constant(y)).square())
    };
    for k in [1, 5, 20, 50] {
        for v in 0..4 {
            let two_basins = bowl(0.1, 0.15).min(bowl(0.9, 0.85).add(Expr::constant(0.002)));
            let queries = [
                Query::select([(0, v)]).rank(two_basins).top(k),
                Query::select([(0, v)]).rank(SqDist::new(vec![0.45, 0.6])).top(k),
            ];
            for q in &queries {
                let want = unsharded.source(&disk).query(&q.plan()).unwrap().items;
                assert_eq!(bits(&cube.source().query(&q.plan()).unwrap().items), bits(&want));
                assert_certified(&cube, q);
            }
        }
    }
}

/// A manifest whose lists are sound but name files of other sizes — here
/// shards 1 and 2 swapped files — is refused at open, typed: a shard file
/// must hold exactly one tuple per entry of its tid list.
#[test]
fn a_shard_file_that_disagrees_with_its_tid_list_is_malformed() {
    let relation = rel(700, 3);
    let dir = std::env::temp_dir().join(format!("rcube_shard_count_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("set.manifest");
    let cfg = ShardedCubeConfig { shards: 3, ..Default::default() };
    drop(ShardedCube::build_to(&relation, &manifest, &cfg).expect("build to disk"));
    let mut m = ShardManifest::open_from(&manifest).expect("read manifest");
    assert_ne!(m.shards[1].tuples, m.shards[2].tuples, "233 and 234 tuples");
    let (one, two) = m.shards.split_at_mut(2);
    std::mem::swap(&mut one[1].file, &mut two[0].file);
    m.save_to(&manifest).expect("publish the swapped manifest");
    let err = ShardedCube::open_from(&manifest).expect_err("open must refuse");
    assert!(matches!(err, StorageError::Malformed(_)), "got {err:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A set of one is the grid route, and its shard is its unit of repair: a
/// damaged file quarantines `Route::Grid` (the scan answers alike), a
/// scrub of the path is refused as the wrong repair, and `repair_shard(0)`
/// returns the grid to service.
#[test]
fn a_damaged_set_of_one_is_the_grid_route_and_repairs_by_shard() {
    let relation = rel(600, 5);
    let dir = std::env::temp_dir().join(format!("rcube_shard_one_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("set.manifest");
    let cfg = ShardedCubeConfig { shards: 1, ..Default::default() };
    drop(ShardedCube::build_to(&relation, &manifest, &cfg).expect("build to disk"));
    let shard0 = dir.join("set.shard0");
    let pristine = damage_data_pages(&shard0);

    let cube = ShardedCube::open_from(&manifest).expect("superblocks still elect");
    let mut eng = Engine::new(relation.clone()).with_prebuilt_sharded(cube);
    let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(20);
    assert_eq!(eng.route(&q), Route::Grid, "a set of one is the grid");
    let degraded = eng.query(&q).expect("scan fallback must answer");
    assert_eq!(degraded.stats.path_fallbacks, 1);
    let quarantined = eng.quarantined();
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0].0, Route::Grid);
    assert_eq!(degraded.items, Engine::new(relation.clone()).query(&q).unwrap().items);

    let err = eng.repair_path(Route::Grid, &shard0).expect_err("a grid file is not scrubbed");
    assert!(matches!(err, StorageError::Malformed(m) if m.contains("repair_shard")), "{err:?}");
    assert_eq!(eng.quarantined().len(), 1, "a refused repair lifts nothing");

    std::fs::write(&shard0, &pristine).expect("restore shard file");
    eng.repair_shard(0).expect("repair reopens the healed shard");
    assert!(eng.quarantined().is_empty(), "the grid's entries are lifted");
    assert_eq!(eng.route(&q), Route::Grid, "the grid serves again");
    assert_eq!(eng.query(&q).unwrap().items, degraded.items);
    std::fs::remove_dir_all(&dir).ok();
}

/// `repair_shard` swaps in a freshly opened shard, whose pool must keep
/// counting under the names the engine gave the old one: after the repair,
/// queries advance `sharded.shard0.pool.*` on a 2-shard set and
/// `grid.pool.*` on a set of one by exactly the lookups the new pool saw.
#[test]
fn a_repaired_shard_keeps_its_pool_series() {
    let relation = rel(600, 11);
    let dir = std::env::temp_dir().join(format!("rcube_shard_series_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Top-all opens every shard.
    let q = Query::all().rank(Linear::uniform(2)).top(relation.len());
    for (shards, prefix) in [(2, "sharded.shard0"), (1, "grid")] {
        let manifest = dir.join(format!("set{shards}.manifest"));
        let cfg = ShardedCubeConfig { shards, ..Default::default() };
        drop(ShardedCube::build_to(&relation, &manifest, &cfg).expect("build to disk"));
        let cube = ShardedCube::open_from(&manifest).expect("open");
        let mut eng = Engine::new(relation.clone()).with_prebuilt_sharded(cube);
        let series = |eng: &Engine| {
            let snap = eng.metrics().snapshot();
            let get = |what: &str| snap.counter(&format!("{prefix}.pool.{what}")).unwrap_or(0);
            get("hits") + get("misses")
        };
        let lookups = |eng: &Engine| {
            let shard = &eng.sharded_cube().unwrap().shards()[0];
            let pool = shard.cube().pool_stats().expect("file-backed");
            pool.hits() + pool.misses()
        };
        let want = eng.query(&q).expect("answers").items;
        assert!(series(&eng) > 0, "{prefix}: the series counts before the repair");

        eng.repair_shard(0).expect("repair reopens the shard");
        let (series_at, lookups_at) = (series(&eng), lookups(&eng));
        for _ in 0..3 {
            assert_eq!(eng.query(&q).expect("answers").items, want, "{prefix}");
        }
        let counted = series(&eng) - series_at;
        assert!(counted > 0, "{prefix}: the series stopped at the repair");
        assert_eq!(counted, lookups(&eng) - lookups_at, "{prefix}: series vs the new pool");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A set resolves one cover, on shard 0, for every shard, and a set of one
/// answers with global tids unmapped, so both are refused at open, typed:
/// a shard file built under another `CuboidSpec` swapped into a set, and a
/// one-shard manifest whose tids are not `0..n`.
#[test]
fn a_shard_file_that_disagrees_on_cuboids_or_a_one_shard_tid_list_is_malformed() {
    let relation = rel(700, 3);
    let dir = std::env::temp_dir().join(format!("rcube_shard_agree_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let build = |stem: &str, shards: usize, cuboids: CuboidSpec| {
        let grid = GridCubeConfig { cuboids, ..Default::default() };
        let cfg = ShardedCubeConfig { shards, grid, ..Default::default() };
        let manifest = dir.join(format!("{stem}.manifest"));
        drop(ShardedCube::build_to(&relation, &manifest, &cfg).expect("build to disk"));
        manifest
    };
    let malformed = |manifest: &std::path::Path, why: &str| {
        let err = ShardedCube::open_from(manifest).expect_err("open must refuse");
        assert!(matches!(err, StorageError::Malformed(m) if m.contains(why)), "got {err:?}");
    };

    // Same relation and shard count, so shard 1 of either set holds the
    // same tuples; only the cuboids differ.
    let set = build("full", 3, CuboidSpec::AllSubsets);
    build("fragments", 3, CuboidSpec::Fragments(2));
    std::fs::copy(dir.join("fragments.shard1"), dir.join("full.shard1")).expect("swap a file in");
    malformed(&set, "disagree on cuboids");

    let one = build("one", 1, CuboidSpec::AllSubsets);
    ShardedCube::open_from(&one).expect("a built set of one opens");
    let mut m = ShardManifest::open_from(&one).expect("read manifest");
    let last = m.shards[0].tids.len() as Tid;
    *m.shards[0].tids.last_mut().unwrap() = last;
    std::fs::write(&one, m.encode()).expect("write the shifted manifest");
    malformed(&one, "partition 0..N");
    std::fs::remove_dir_all(&dir).ok();
}
