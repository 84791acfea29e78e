//! Concurrency correctness for the serving engine: N threads hammering
//! one shared read-only cube — through the positional-read file backend,
//! the sharded buffer pool and the shared cross-query node cache — must
//! produce answers *byte-identical* to a serial run, and the shared node
//! cache must never change an answer (only how much decode work repeat
//! queries pay).
//!
//! Through the `Engine` front door the same holds route by route — two
//! threads on the same Zipf-hot cells answer exactly as a table scan and
//! lose no count in any thread-striped tally — and the checks the healthy
//! path makes without a lock (the engine's quarantine list, the shard
//! set's health table) still see what another thread condemned before the
//! next query.
//!
//! Run under `cargo test --release` in CI so the race-prone path is
//! exercised with optimizations (and without the debug-build timing that
//! hides interleavings).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};

use ranking_cube::baseline::TableScan;
use ranking_cube::cube::delta::{wal_path_for, DeltaCube, DeltaOptions};
use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::shard::{ShardedCube, ShardedCubeConfig};
use ranking_cube::cube::sigcube::{SignatureCube, SignatureCubeConfig};
use ranking_cube::cube::{GridCubeConfig, GridRankingCube};
use ranking_cube::func::Linear;
use ranking_cube::index::rtree::{RTree, RTreeConfig};
use ranking_cube::storage::{DiskSim, FileBackend, StorageError};
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::workload::{WorkloadParams, ZipfQueryGen};
use ranking_cube::table::Relation;
use ranking_cube::{Engine, Route};

static CASE: AtomicU64 = AtomicU64::new(0);

/// Unique temp path per call (tests in this binary run concurrently).
fn temp_path(tag: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("rcube_concurrent_{tag}_{}_{n}", std::process::id()));
    p
}

/// Answers with exact score bit patterns: equality is byte-identity of
/// the top-k, not approximate agreement.
fn render(items: &[(u32, f64)]) -> String {
    items.iter().map(|(t, s)| format!("{t}:{:016x}", s.to_bits())).collect::<Vec<_>>().join(",")
}

/// The fixed mixed workload of the hammer test: grid top-k over the
/// file-backed cube, signature-pruned multi-dim top-k in memory, and the
/// same signature queries against the reopened-from-file cube.
struct Workload {
    grid_file: GridRankingCube,
    mem_rtree: RTree,
    mem_sig: SignatureCube,
    file_rtree: RTree,
    file_sig: SignatureCube,
    grid_queries: Vec<(Vec<(usize, u32)>, usize)>,
    sig_queries: Vec<(Vec<(usize, u32)>, usize)>,
}

impl Workload {
    fn build(rel: &Relation, grid_path: &std::path::Path, sig_path: &std::path::Path) -> Self {
        let disk = DiskSim::with_defaults();
        let grid_mem = GridRankingCube::build(
            rel,
            &disk,
            GridCubeConfig { block_size: 100, ..Default::default() },
        );
        grid_mem.save_to(grid_path).expect("save grid cube");
        let grid_file = GridRankingCube::open_from(grid_path).expect("reopen grid cube");

        let mem_rtree = RTree::over_relation(&disk, rel, &[], RTreeConfig::small(16));
        // A small alpha forces decomposition, so the node cache and lazy
        // loads are exercised for real.
        let mem_sig = SignatureCube::build(
            rel,
            &mem_rtree,
            &disk,
            SignatureCubeConfig { alpha: 0.02, ..Default::default() },
        );
        mem_sig.save_to(&mem_rtree, sig_path).expect("save signature cube");
        let (file_sig, file_rtree) = SignatureCube::open_from(sig_path).expect("reopen sig cube");

        let grid_queries = vec![
            (vec![(0, 1)], 5),
            (vec![(0, 2), (1, 3)], 10),
            (vec![(2, 0)], 3),
            (vec![], 8),
            (vec![(1, 1), (2, 2)], 7),
        ];
        let sig_queries = vec![
            (vec![(0, 1), (1, 2)], 10),
            (vec![(0, 0), (1, 1), (2, 2)], 5),
            (vec![(2, 3)], 8),
            (vec![(0, 4), (2, 1)], 6),
        ];
        Self { grid_file, mem_rtree, mem_sig, file_rtree, file_sig, grid_queries, sig_queries }
    }

    /// Runs the full workload with a fresh metering device, rendering
    /// every answer. Any thread running this against the shared cubes
    /// must produce exactly these strings.
    fn run(&self) -> Vec<String> {
        let disk = DiskSim::with_defaults();
        let mut out = Vec::new();
        for (conds, k) in &self.grid_queries {
            let q = Query::select(conds.clone()).rank(Linear::uniform(2)).top(*k);
            out.push(render(&self.grid_file.source(&disk).query(&q.plan()).unwrap().items));
        }
        for (conds, k) in &self.sig_queries {
            let q = Query::select(conds.clone()).rank(Linear::uniform(3)).top(*k);
            out.push(render(
                &self.mem_sig.source(&self.mem_rtree, &disk).query(&q.plan()).unwrap().items,
            ));
            let q = Query::select(conds.clone()).rank(Linear::uniform(3)).top(*k);
            out.push(render(
                &self.file_sig.source(&self.file_rtree, &disk).query(&q.plan()).unwrap().items,
            ));
        }
        out
    }
}

#[test]
fn hammer_shared_cubes_across_threads() {
    let rel =
        SyntheticSpec { tuples: 4_000, cardinality: 5, ranking_dims: 3, ..Default::default() }
            .generate();
    let (grid_path, sig_path) = (temp_path("grid"), temp_path("sig"));
    let w = Workload::build(&rel, &grid_path, &sig_path);

    // Serial ground truth — computed before any concurrent access, so the
    // node cache and buffer pools are also exercised warm vs cold.
    let expect = w.run();

    const THREADS: usize = 8;
    const ROUNDS: usize = 6;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let w = &w;
                let expect = &expect;
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let got = w.run();
                        assert_eq!(
                            &got, expect,
                            "thread {t} round {round}: concurrent answers diverged from serial"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("hammer thread panicked");
        }
    });

    // The shared caches were actually in play: the signature cube's node
    // cache and the file cubes' buffer pools served repeat traffic.
    let nc = w.mem_sig.node_cache().stats();
    assert!(nc.hits > 0, "shared node cache must absorb repeat probes");
    let pool = w.grid_file.pool_stats().expect("file-backed cube has a pool");
    assert!(pool.hits() > 0, "sharded buffer pool must absorb repeat reads");

    std::fs::remove_file(&grid_path).ok();
    std::fs::remove_file(&sig_path).ok();
}

#[test]
fn shared_cache_on_equals_off_concurrently() {
    // The same signature workload against two cubes opened from one file —
    // cache enabled vs disabled — hammered by 4 threads each: answers are
    // byte-identical, and only the cache-on cube skips decode work.
    let rel =
        SyntheticSpec { tuples: 3_000, cardinality: 4, ranking_dims: 3, ..Default::default() }
            .generate();
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    let cube = SignatureCube::build(
        &rel,
        &rtree,
        &disk,
        SignatureCubeConfig { alpha: 0.05, ..Default::default() },
    );
    let path = temp_path("cache_onoff");
    cube.save_to(&rtree, &path).expect("save");
    let (on, rtree_on) = SignatureCube::open_from(&path).expect("open cache-on");
    let (mut off, rtree_off) = SignatureCube::open_from(&path).expect("open cache-off");
    off.set_node_cache_budget(0);

    let conds: Vec<Vec<(usize, u32)>> =
        vec![vec![(0, 1), (1, 2)], vec![(0, 0), (1, 1)], vec![(1, 3), (2, 0)], vec![(2, 2)]];
    let run = |cube: &SignatureCube, rtree: &RTree| -> Vec<String> {
        let disk = DiskSim::with_defaults();
        conds
            .iter()
            .map(|c| {
                let q = Query::select(c.clone()).rank(Linear::uniform(3)).top(10);
                render(&cube.source(rtree, &disk).query(&q.plan()).unwrap().items)
            })
            .collect()
    };
    let expect = run(&off, &rtree_off);
    std::thread::scope(|s| {
        for _ in 0..4 {
            let (on, off) = (&on, &off);
            let (rtree_on, rtree_off, expect, run) = (&rtree_on, &rtree_off, &expect, &run);
            s.spawn(move || {
                for _ in 0..4 {
                    assert_eq!(&run(on, rtree_on), expect, "cache-on diverged");
                    assert_eq!(&run(off, rtree_off), expect, "cache-off diverged");
                }
            });
        }
    });
    assert!(on.node_cache().stats().hits > 0, "cache-on cube must register shared hits");
    assert_eq!(off.node_cache().stats().hits, 0, "disabled cache must never hit");
    std::fs::remove_file(&path).ok();
}

/// Zipf-skewed queries (value 0 of every dimension is the hot cell), as
/// the benchmark of record draws them.
fn zipf_queries(rel: &Relation, n: usize) -> Vec<Query> {
    let params = WorkloadParams { num_conditions: 2, k: 10, seed: 11, ..Default::default() };
    let mut gen = ZipfQueryGen::new(params, 1.2);
    gen.batch(rel, n)
        .iter()
        .map(|spec| {
            Query::select(spec.selection.conds().to_vec())
                .rank_on(spec.ranking_dims.clone(), Linear::new(spec.weights.clone()))
                .top(spec.k)
        })
        .collect()
}

/// `(score bits, tid)` per answer: equality is byte-identity.
type Answer = Vec<(u64, u32)>;

fn scan_answers(rel: &Relation, queries: &[Query]) -> Vec<Answer> {
    let disk = DiskSim::with_defaults();
    let scan = TableScan::new(rel, &disk);
    let source = scan.source(rel, &disk);
    let answer = |q: &Query| source.query(&q.plan()).unwrap().items;
    queries.iter().map(|q| answer(q).iter().map(|&(t, s)| (s.to_bits(), t)).collect()).collect()
}

/// One lap over `queries` through `Engine::open`, every answer held to the
/// scan's. Returns the page reads the lap's cursors account for.
fn lap(eng: &Engine, route: Route, queries: &[Query], expected: &[Answer]) -> u64 {
    let mut logical_reads = 0;
    for (q, want) in queries.iter().zip(expected) {
        assert_eq!(eng.route(q), route);
        let mut cursor = eng.open(q).expect("healthy route opens");
        let mut got = Answer::new();
        while let Some((tid, score)) = cursor.try_next().expect("healthy route answers") {
            got.push((score.to_bits(), tid));
        }
        assert_eq!(&got, want, "{route:?} diverged from the table scan on {q:?}");
        logical_reads += cursor.stats().io.logical_reads;
    }
    logical_reads
}

/// Two threads, started together, `LAPS` laps each over the same queries.
const LAPS: u64 = 3;

fn hammer(eng: &Engine, route: Route, queries: &[Query], expected: &[Answer]) {
    let together = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                together.wait();
                for _ in 0..LAPS {
                    lap(eng, route, queries, expected);
                }
            });
        }
    });
}

/// Sum of the named counters in `eng`'s registry.
fn counters(eng: &Engine, names: &[String]) -> u64 {
    let snap = eng.metrics().snapshot();
    names.iter().map(|n| snap.counter(n).unwrap_or_else(|| panic!("no counter {n}"))).sum()
}

#[test]
fn two_clients_on_the_grid_route_lose_no_count() {
    let rel = SyntheticSpec { tuples: 4_000, cardinality: 5, ..Default::default() }.generate();
    let path = temp_path("engine_grid");
    {
        let disk = DiskSim::with_defaults();
        let cfg = GridCubeConfig { block_size: 64, ..Default::default() };
        GridRankingCube::build(&rel, &disk, cfg).save_to(&path).expect("save grid cube");
    }
    let cube = GridRankingCube::open_from(&path).expect("reopen grid cube");
    let eng = Engine::new(rel.clone()).with_prebuilt_grid(cube);
    let queries = zipf_queries(&rel, 48);
    let expected = scan_answers(&rel, &queries);

    let lookups =
        |eng: &Engine| counters(eng, &["grid.pool.hits".to_owned(), "grid.pool.misses".to_owned()]);
    let pool_lookups = |eng: &Engine| {
        let pool = eng.grid_cube().unwrap().pool_stats().expect("file-backed");
        pool.hits() + pool.misses()
    };
    // The pool met the catalog read before the registry was attached.
    let unmirrored = pool_lookups(&eng);

    hammer(&eng, Route::Grid, &queries, &expected);

    // Three tallies striped independently of one another — the registry's
    // pool counters, the pool's own per-shard totals and the device's I/O
    // meter — agree on how many objects (one page each here) were read.
    assert!(lookups(&eng) > 0);
    assert_eq!(lookups(&eng), pool_lookups(&eng) - unmirrored);
    assert_eq!(lookups(&eng), eng.disk().stats().snapshot().logical_reads);
    assert_eq!(counters(&eng, &["query.grid.count".to_owned()]), 2 * LAPS * queries.len() as u64);

    // A client alone on its device: its cursors' I/O deltas are exact, and
    // account for every lookup of the lap.
    let before = lookups(&eng);
    let accounted = lap(&eng, Route::Grid, &queries, &expected);
    assert!(accounted > 0);
    assert_eq!(lookups(&eng) - before, accounted);
    std::fs::remove_file(&path).ok();
}

#[test]
fn two_clients_on_the_sharded_route_lose_no_count() {
    let rel = SyntheticSpec { tuples: 4_000, cardinality: 5, ..Default::default() }.generate();
    let dir = temp_path("engine_sharded");
    std::fs::create_dir_all(&dir).unwrap();
    // Blocks small enough that every stored object is one page.
    let grid = GridCubeConfig { block_size: 64, ..Default::default() };
    let cfg = ShardedCubeConfig { shards: 4, grid, parallelism: 1, ..Default::default() };
    let cube = ShardedCube::build_to(&rel, dir.join("set.manifest"), &cfg).expect("build set");
    let queries = zipf_queries(&rel, 48);
    // The shards each query opens, from a single-threaded lap on a second
    // handle onto the same files (its pools and meters are its own).
    let twin = ShardedCube::open_from(dir.join("set.manifest")).expect("reopen set");
    let opened: u64 = queries
        .iter()
        .map(|q| {
            twin.source().query(&q.plan()).expect("twin answers");
            twin.last_fanout().expect("fan-out").opened() as u64
        })
        .sum();
    let eng = Engine::new(rel.clone()).with_prebuilt_sharded(cube);
    let expected = scan_answers(&rel, &queries);

    hammer(&eng, Route::Sharded, &queries, &expected);

    let per_shard = |series: &str| -> Vec<String> {
        (0..4).map(|i| format!("sharded.shard{i}.{series}")).collect()
    };
    let lookups = |eng: &Engine| {
        counters(eng, &per_shard("pool.hits")) + counters(eng, &per_shard("pool.misses"))
    };
    let shards = eng.sharded_cube().unwrap().shards();
    let device_reads: u64 = shards.iter().map(|s| s.io().logical_reads).sum();
    assert_eq!(lookups(&eng), device_reads, "one-page objects: a lookup is a page read");
    let opens = 2 * LAPS * queries.len() as u64;
    assert_eq!(counters(&eng, &["query.sharded.count".to_owned()]), opens);
    assert_eq!(counters(&eng, &per_shard("opens")), 2 * LAPS * opened);
    // Every answer came out of exactly one shard.
    let answers: u64 = expected.iter().map(|a| a.len() as u64).sum();
    assert_eq!(counters(&eng, &per_shard("answers")), 2 * LAPS * answers);

    let before = lookups(&eng);
    let accounted = lap(&eng, Route::Sharded, &queries, &expected);
    assert_eq!(lookups(&eng) - before, accounted);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn two_clients_on_the_delta_route_lose_no_count() {
    let rel = SyntheticSpec { tuples: 3_000, cardinality: 5, ..Default::default() }.generate();
    let path = temp_path("engine_delta");
    {
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
        let config = SignatureCubeConfig { alpha: 0.02, ..Default::default() };
        let cube = SignatureCube::build(&rel, &rtree, &disk, config);
        cube.save_to_with(&rtree, &path, 512, 64).expect("save base cube");
    }
    let opts = DeltaOptions::default();
    let delta = Arc::new(DeltaCube::open(&path, rel.clone(), opts).expect("open delta"));
    let eng = Engine::new(rel.clone()).with_delta(Arc::clone(&delta));
    let queries = zipf_queries(&rel, 32);
    let expected = scan_answers(&rel, &queries);

    hammer(&eng, Route::Delta, &queries, &expected);
    assert_eq!(counters(&eng, &["query.delta.count".to_owned()]), 2 * LAPS * queries.len() as u64);

    // A pending write changes what every later cursor sees, concurrently
    // opened ones included: the best possible tuple of the hot cell wins
    // each of its queries on both threads.
    let tid = eng.insert(&[0, 0, 0], &[0.0, 0.0]).expect("insert");
    let hot: Vec<Query> =
        (0..8).map(|_| Query::select([(0, 0), (1, 0)]).rank(Linear::uniform(2)).top(3)).collect();
    let together = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                together.wait();
                for q in &hot {
                    let first = eng.open(q).unwrap().try_next().unwrap();
                    assert_eq!(first, Some((tid, 0.0)));
                }
            });
        }
    });
    drop(eng);
    drop(delta);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path_for(&path)).ok();
}

#[test]
fn a_route_condemned_on_one_thread_is_skipped_by_the_next_open_on_another() {
    let rel =
        SyntheticSpec { tuples: 900, cardinality: 4, seed: 9, ..Default::default() }.generate();
    let dir = temp_path("engine_condemned");
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = dir.join("set.manifest");
    let cfg = ShardedCubeConfig { shards: 3, parallelism: 1, ..Default::default() };
    let built = ShardedCube::build_to(&rel, &manifest, &cfg).expect("build set");
    let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(40);
    drop(built.source().query(&q.plan()).expect("pristine set answers"));
    assert!(built.last_fanout().unwrap().shards[1].opened, "the query opens shard 1");
    drop(built);

    // Rot shard 1's data pages (superblocks and catalog spared: the pages
    // between the two slots and the catalog the writer appends after the
    // data): the set opens, and the first query to pull a damaged page
    // meets a checksum.
    let shard1 = dir.join("set.shard1");
    let pristine = std::fs::read(&shard1).expect("read shard file");
    let sb = FileBackend::peek_superblock(&shard1).expect("superblock");
    let mut bad = pristine.clone();
    let page = sb.page_size as usize;
    let (lo, hi) = (2 * page, sb.catalog_first.expect("a catalog") as usize * page);
    bad[lo..hi].iter_mut().for_each(|b| *b ^= 0x55);
    std::fs::write(&shard1, &bad).expect("write damaged shard");

    let cube = ShardedCube::open_from_with(&manifest, 64, 1).expect("superblocks still elect");
    let mut eng = Engine::new(rel.clone()).with_prebuilt_sharded(cube);
    let expected = scan_answers(&rel, std::slice::from_ref(&q));
    assert_eq!(eng.route(&q), Route::Sharded, "nothing is known to be wrong yet");

    let (condemned, next) = mpsc::channel();
    std::thread::scope(|s| {
        let (eng, q, expected) = (&eng, &q, &expected);
        // Thread A runs into the fault: the route is quarantined.
        s.spawn(move || {
            let degraded = eng.query(q).expect("the scan answers");
            assert_eq!(degraded.stats.path_fallbacks, 1);
            condemned.send(()).unwrap();
        });
        // Thread B's *next* open — no lock taken on its way in — routes
        // around it and still answers exactly.
        s.spawn(move || {
            next.recv().unwrap();
            assert_eq!(eng.route(q), Route::Scan);
            lap(eng, Route::Scan, std::slice::from_ref(q), expected);
        });
    });
    let down = eng.quarantined();
    assert_eq!(down.len(), 1);
    assert!(down[0].0 == Route::Sharded && down[0].1.starts_with("shard 1:"), "{down:?}");

    // The set itself refuses, typed, whoever asks and however often.
    let set = eng.sharded_cube().unwrap();
    assert_eq!(set.failed_shards().len(), 1);
    assert!(!set.can_answer(q.selection(), &[0, 1]));
    for _ in 0..2 {
        let refused = set.source().open(&q.plan()).expect_err("a failed shard fails the open");
        assert!(matches!(refused, StorageError::Malformed(m) if m.contains("failed shard")));
    }

    // Lifting the quarantine alone does not help: the shard is still down,
    // so routing (which asks the set) keeps to the scan.
    eng.clear_quarantine();
    assert!(eng.quarantined().is_empty());
    assert_eq!(eng.route(&q), Route::Scan);

    // Repair brings the shard, and with it the route, back.
    std::fs::write(&shard1, &pristine).expect("restore shard file");
    eng.repair_shard(1).expect("repair reopens the healed shard");
    assert!(eng.sharded_cube().unwrap().failed_shards().is_empty());
    assert_eq!(eng.route(&q), Route::Sharded);
    lap(&eng, Route::Sharded, std::slice::from_ref(&q), &expected);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_analyze_reports_its_own_fan_out_under_a_second_client() {
    // `ShardedCube::last_fanout` is whoever finished last; the report must
    // come off the cursor `explain_analyze` itself drained.
    let rel = SyntheticSpec { tuples: 3_000, cardinality: 4, ..Default::default() }.generate();
    let eng = Engine::new(rel).with_sharded_cube(ShardedCubeConfig {
        shards: 4,
        parallelism: 1,
        ..Default::default()
    });
    let mine = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(7);
    // A different shape on purpose: more answers, other blocks.
    let theirs = Query::select([(1, 2)]).rank(Linear::new(vec![0.2, 0.8])).top(40);
    /// Stops the other client when the checking loop ends, panics included
    /// (the scope would otherwise wait on it for ever).
    struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    let running = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            running.wait();
            while !stop.load(Ordering::Relaxed) {
                assert_eq!(eng.query(&theirs).unwrap().items.len(), 40);
            }
        });
        running.wait();
        let _stop = StopOnDrop(&stop);
        for _ in 0..200 {
            let report = eng.explain_analyze(&mine).expect("healthy engine");
            assert_eq!(report.executed, Route::Sharded);
            let fanout = report.fanout.expect("a sharded run reports its fan-out");
            let answers: u64 = fanout.shards.iter().map(|s| s.answers).sum();
            assert_eq!(answers, report.items.len() as u64, "another query's fan-out");
            assert_eq!(fanout.blocks_read(), report.stats.blocks_read);
        }
    });
}

proptest::proptest! {
    /// Shared-cache-on ≡ shared-cache-off over random relations, alphas
    /// and predicates, in memory and reopened from file: the cache is a
    /// pure memo — answers (tids *and* score bit patterns) never change.
    #[test]
    fn proptest_shared_cache_is_answer_invariant(
        tuples in 100usize..500,
        cardinality in 2u32..5,
        alpha_millis in 5usize..400,
        k in 1usize..12,
        seed in 0u64..500,
    ) {
        let rel = SyntheticSpec {
            tuples, cardinality, ranking_dims: 3, seed, ..Default::default()
        }.generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(8));
        let config = SignatureCubeConfig {
            alpha: alpha_millis as f64 / 1000.0,
            ..Default::default()
        };
        let mut cube_on = SignatureCube::build(&rel, &rtree, &disk, config.clone());
        let mut cube_off = SignatureCube::build(&rel, &rtree, &disk, config);
        cube_off.set_node_cache_budget(0);
        // A deliberately tiny budget on a third run exercises eviction
        // pressure mid-query as well.
        let conds = vec![
            vec![(0usize, seed as u32 % cardinality)],
            vec![(0, seed as u32 % cardinality), (1, (seed as u32 / 3) % cardinality)],
            vec![(1, (seed as u32 / 5) % cardinality), (2, (seed as u32 / 7) % cardinality)],
        ];
        for c in conds {
            let q = Query::select(c.clone()).rank(Linear::uniform(3)).top(k);
            // Twice each: the second cache-on run is served from the cache.
            let on1 = cube_on.source(&rtree, &disk).query(&q.plan()).unwrap();
            let on2 = cube_on.source(&rtree, &disk).query(&q.plan()).unwrap();
            let off1 = cube_off.source(&rtree, &disk).query(&q.plan()).unwrap();
            proptest::prop_assert_eq!(render(&on1.items), render(&off1.items),
                "cache-on vs cache-off diverged for {:?}", &c);
            proptest::prop_assert_eq!(render(&on2.items), render(&off1.items),
                "warm cache-on vs cache-off diverged for {:?}", &c);
            proptest::prop_assert_eq!(off1.stats.shared_node_hits, 0);
        }
        cube_on.set_node_cache_budget(2_000);
        let q = Query::select([(0, 0), (1, 1)]).rank(Linear::uniform(3)).top(k);
        let tiny = cube_on.source(&rtree, &disk).query(&q.plan()).unwrap();
        let off = cube_off.source(&rtree, &disk).query(&q.plan()).unwrap();
        proptest::prop_assert_eq!(render(&tiny.items), render(&off.items),
            "tiny-budget cache diverged");
    }
}
