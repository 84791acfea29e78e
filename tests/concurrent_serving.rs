//! Concurrency correctness for the serving engine: N threads hammering
//! one shared read-only cube — through the positional-read file backend,
//! the sharded buffer pool and the shared cross-query node cache — must
//! produce answers *byte-identical* to a serial run, and the shared node
//! cache must never change an answer (only how much decode work repeat
//! queries pay).
//!
//! Run under `cargo test --release` in CI so the race-prone path is
//! exercised with optimizations (and without the debug-build timing that
//! hides interleavings).

use std::sync::atomic::{AtomicU64, Ordering};

use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::sigcube::{SignatureCube, SignatureCubeConfig};
use ranking_cube::cube::{GridCubeConfig, GridRankingCube};
use ranking_cube::func::Linear;
use ranking_cube::index::rtree::{RTree, RTreeConfig};
use ranking_cube::storage::DiskSim;
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::Relation;

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
