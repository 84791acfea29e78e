//! Persistence round-trips: a cube built in memory, saved to a file and
//! reopened — in this process and in a *separate* one — must return
//! byte-identical top-k answers; and no single-byte corruption of the
//! cube file may ever yield a silent wrong answer (open or the integrity
//! scrub must surface a typed checksum/structure error instead).

use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use ranking_cube::baseline::TableScan;
use ranking_cube::cube::gridcube::{CuboidSpec, GridCubeConfig, GridRankingCube};
use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::shard::{ShardedCube, ShardedCubeConfig};
use ranking_cube::cube::sigcube::{SignatureCube, SignatureCubeConfig};
use ranking_cube::cube::signature::Signature;
use ranking_cube::func::Linear;
use ranking_cube::index::rtree::{RTree, RTreeConfig};
use ranking_cube::storage::DiskSim;
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::Selection;

static CASE: AtomicU64 = AtomicU64::new(0);

/// Unique temp path per call (tests in this binary run concurrently).
fn temp_path(tag: &str) -> std::path::PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("rcube_persist_{tag}_{}_{n}", std::process::id()));
    p
}

/// Renders answers with exact score bit patterns: equality here is
/// byte-identity of the top-k, not approximate score agreement.
fn render(items: &[(u32, f64)]) -> String {
    items.iter().map(|(t, s)| format!("{t}:{:016x}", s.to_bits())).collect::<Vec<_>>().join(",")
}

proptest::proptest! {
    /// Random workloads: build → save → reopen → same top-k results and
    /// the same tid-sets as the in-memory cube.
    #[test]
    fn saved_grid_cube_answers_match_in_memory(
        tuples in 150usize..400,
        cardinality in 2u32..6,
        block in 24usize..80,
        dim_a in 0usize..3,
        dim_b in 0usize..3,
        val_a in 0u32..8,
        val_b in 0u32..8,
        k in 1usize..12,
    ) {
        let rel = SyntheticSpec { tuples, cardinality, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: block, ..Default::default() },
        );
        let path = temp_path("prop");
        cube.save_to_with(&path, 512, 64).expect("save");
        let reopened = GridRankingCube::open_from_with(&path, 64).expect("open");
        let disk2 = DiskSim::with_defaults();

        let mut conds = vec![(dim_a, val_a % cardinality)];
        if dim_b != dim_a {
            conds.push((dim_b, val_b % cardinality));
        }
        for conds in [Vec::new(), conds] {
            let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
            let mem = cube.source(&disk).query(&q.plan()).unwrap();
            let file = reopened.source(&disk2).query(&q.plan()).unwrap();
            proptest::prop_assert_eq!(render(&mem.items), render(&file.items));
            // Same tid-set, order included.
            proptest::prop_assert_eq!(mem.tids(), file.tids());
        }
        std::fs::remove_file(&path).ok();
    }
}

/// The fixed workload the corruption properties compare answers under.
fn flip_workload() -> Vec<(Vec<(usize, u32)>, usize)> {
    vec![(vec![], 8), (vec![(0, 1)], 10), (vec![(1, 2), (2, 0)], 6)]
}

fn grid_answers(cube: &GridRankingCube) -> Vec<String> {
    let disk = DiskSim::with_defaults();
    flip_workload()
        .into_iter()
        .map(|(conds, k)| {
            let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
            render(&cube.source(&disk).query(&q.plan()).unwrap().items)
        })
        .collect()
}

/// One saved cube file plus its reference answers, reused by the
/// corruption property below.
fn pristine_file() -> &'static (Vec<u8>, Vec<String>) {
    static FILE: OnceLock<(Vec<u8>, Vec<String>)> = OnceLock::new();
    FILE.get_or_init(|| {
        let rel = SyntheticSpec { tuples: 800, cardinality: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(
            &rel,
            &disk,
            GridCubeConfig { block_size: 64, ..Default::default() },
        );
        let path = temp_path("pristine");
        cube.save_to_with(&path, 512, 16).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        let answers = grid_answers(&cube);
        (bytes, answers)
    })
}

proptest::proptest! {
    /// Flipping any single bit must surface as a typed error — at open
    /// (superblock, allocation map, catalog) or in the integrity scrub
    /// (object pages) — or, when it lands in bytes the elected generation
    /// never reads (the stale superblock slot, dead pages, slack), leave
    /// every answer byte-identical. Never a silent wrong answer.
    #[test]
    fn single_bit_flip_is_always_detected(
        pos_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let (pristine, expected) = pristine_file();
        let offset = ((pos_frac * pristine.len() as f64) as usize).min(pristine.len() - 1);
        let mut tampered = pristine.clone();
        tampered[offset] ^= 1 << bit;

        let path = temp_path("flip");
        std::fs::write(&path, &tampered).expect("write tampered copy");
        match GridRankingCube::open_from_with(&path, 16) {
            Err(_) => {} // superblock / alloc map / catalog rejected the flip
            Ok(cube) => {
                if cube.verify_integrity().is_ok() {
                    proptest::prop_assert_eq!(
                        &grid_answers(&cube),
                        expected,
                        "bit flip at byte {} bit {} passed the scrub but changed answers",
                        offset,
                        bit
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

fn sig_answers(cube: &SignatureCube, rtree: &RTree) -> Vec<String> {
    let disk = DiskSim::with_defaults();
    flip_workload()
        .into_iter()
        .map(|(conds, k)| {
            let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
            render(&cube.source(rtree, &disk).query(&q.plan()).unwrap().items)
        })
        .collect()
}

/// One saved signature-cube file plus its reference answers, reused by
/// the corruption property below.
fn pristine_sig_file() -> &'static (Vec<u8>, Vec<String>) {
    static FILE: OnceLock<(Vec<u8>, Vec<String>)> = OnceLock::new();
    FILE.get_or_init(|| {
        let rel = SyntheticSpec { tuples: 700, cardinality: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(8));
        let cube = SignatureCube::build(
            &rel,
            &rtree,
            &disk,
            // Small alpha => many partial-signature objects, so flips land
            // in signature payloads, not just structure pages.
            SignatureCubeConfig { alpha: 0.05, ..Default::default() },
        );
        let path = temp_path("sig_pristine");
        cube.save_to_with(&rtree, &path, 512, 16).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        let answers = sig_answers(&cube, &rtree);
        (bytes, answers)
    })
}

proptest::proptest! {
    /// Signature-cube files get the same guarantee as grid-cube files:
    /// flipping any single bit must surface as a typed error at open or
    /// in the partial-signature integrity scrub — or leave every answer
    /// byte-identical (flips in the stale superblock slot, dead pages or
    /// slack are harmless). Never a silent wrong answer.
    #[test]
    fn sig_cube_single_bit_flip_is_always_detected(
        pos_frac in 0.0f64..1.0,
        bit in 0usize..8,
    ) {
        let (pristine, expected) = pristine_sig_file();
        let offset = ((pos_frac * pristine.len() as f64) as usize).min(pristine.len() - 1);
        let mut tampered = pristine.clone();
        tampered[offset] ^= 1 << bit;

        let path = temp_path("sig_flip");
        std::fs::write(&path, &tampered).expect("write tampered copy");
        match SignatureCube::open_from_with(&path, 16) {
            Err(_) => {} // superblock / alloc map / catalog rejected the flip
            Ok((cube, rtree)) => {
                if cube.verify_integrity().is_ok() {
                    proptest::prop_assert_eq!(
                        &sig_answers(&cube, &rtree),
                        expected,
                        "bit flip at byte {} bit {} passed the scrub but changed answers",
                        offset,
                        bit
                    );
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

proptest::proptest! {
    /// Reopened signature cubes answer exactly like the in-memory build:
    /// the lazy pruner over the file equals the eagerly assembled
    /// signature equals the naive selection filter, on every node and
    /// tuple path, and the top-k answers are the table scan's, bit for bit.
    #[test]
    fn reopened_sig_cube_lazy_pruning_matches_assembled_and_naive(
        tuples in 120usize..360,
        cardinality in 2u32..5,
        fanout in 4usize..10,
        alpha_millis in 5usize..600,
        nconds in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let rel = SyntheticSpec { tuples, cardinality, ranking_dims: 2, seed, ..Default::default() }
            .generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(fanout));
        let cube = SignatureCube::build(
            &rel,
            &rtree,
            &disk,
            SignatureCubeConfig { alpha: alpha_millis as f64 / 1000.0, cuboids: None },
        );
        let path = temp_path("sig_prop");
        cube.save_to_with(&rtree, &path, 512, 64).expect("save");
        let (reopened, rtree2) = SignatureCube::open_from_with(&path, 64).expect("open");
        let disk2 = DiskSim::with_defaults();

        let conds: Vec<(usize, u32)> = (0..nconds.min(rel.schema().num_selection()))
            .map(|d| (d, (seed as u32 + d as u32) % cardinality))
            .collect();
        let sel = Selection::new(conds.clone());

        // Naive ground truth over tuple-path prefixes.
        let matching: Vec<Vec<u16>> = rel
            .tids()
            .filter(|&t| sel.matches(&rel, t))
            .map(|t| rtree.tuple_path(t).unwrap())
            .collect();
        let naive = |prefix: &[u16]| matching.iter().any(|p| p.starts_with(prefix));

        let assembled = cube.assemble(&sel, &disk).unwrap();
        let lazy_file = reopened.pruner_for(&sel, &disk2).unwrap();
        proptest::prop_assert_eq!(
            lazy_file.is_some(),
            assembled.as_ref().is_some_and(|s| !s.is_empty())
        );
        if let Some(mut pruner) = lazy_file {
            let assembled = assembled.unwrap();
            let mut mask = Vec::new();
            for tid in rel.tids() {
                let p = rtree2.tuple_path(tid).unwrap();
                for l in 1..=p.len() {
                    let want = naive(&p[..l]);
                    proptest::prop_assert_eq!(assembled.contains_path(&p[..l]), want);
                    // Every prefix is probed, so the entry's own bit (and,
                    // for a node, its subtree verdict) is the whole path.
                    let sid = Signature::sid_of(reopened.fanout(), &p[..l]);
                    let node_level = (l < p.len()).then_some(l as u16);
                    proptest::prop_assert_eq!(
                        pruner.try_admit_entry(sid, node_level, &mut mask).unwrap(), want,
                        "reopened lazy pruner diverges at {:?}", &p[..l]);
                }
            }
        }

        // Top-k over the reopened cube is bit-identical to the scan's.
        let q = Query::select(conds).rank(Linear::uniform(2)).top(10);
        let lazy = reopened.source(&rtree2, &disk2).query(&q.plan()).unwrap();
        let scan = TableScan::new(&rel, &disk).source(&rel, &disk).query(&q.plan()).unwrap();
        proptest::prop_assert_eq!(render(&lazy.items), render(&scan.items));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn fragments_roundtrip_across_reopen() {
    let rel =
        SyntheticSpec { tuples: 1_500, selection_dims: 6, cardinality: 5, ..Default::default() }
            .generate();
    let disk = DiskSim::with_defaults();
    let config =
        GridCubeConfig { block_size: 64, cuboids: CuboidSpec::Fragments(2), ..Default::default() };
    let frags = GridRankingCube::build(&rel, &disk, config);
    let path = temp_path("frags");
    frags.save_to(&path).expect("save");
    let reopened = GridRankingCube::open_from(&path).expect("open");
    assert_eq!(reopened.cuboid_dims(), frags.cuboid_dims(), "the same fragments reopen");
    let disk2 = DiskSim::with_defaults();
    for conds in [vec![(0usize, 1u32), (2, 2)], vec![(1, 0), (3, 3), (5, 1)]] {
        let q = Query::select(conds).rank(Linear::uniform(2)).top(10);
        let mem = frags.source(&disk).query(&q.plan()).unwrap();
        let file = reopened.source(&disk2).query(&q.plan()).unwrap();
        assert_eq!(render(&mem.items), render(&file.items));
    }
    std::fs::remove_file(&path).ok();
}

/// A shard set written to its manifest and shard files (every shard's
/// cells packed into segments) and reopened answers byte-identically to
/// the same set built in memory, block for block, and scrubs clean.
#[test]
fn shard_set_roundtrips_across_reopen() {
    let rel = SyntheticSpec { tuples: 2_400, cardinality: 4, ..Default::default() }.generate();
    let cfg = ShardedCubeConfig {
        shards: 4,
        grid: GridCubeConfig { block_size: 40, ..Default::default() },
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!("rcube_persist_shards_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let manifest = dir.join("set.manifest");
    drop(ShardedCube::build_to(&rel, &manifest, &cfg).expect("build to files"));
    let reopened = ShardedCube::open_from(&manifest).expect("reopen");
    reopened.verify_integrity().expect("reopened set scrubs clean");
    let mem = ShardedCube::build_in_memory(&rel, &cfg);
    for (conds, k) in [(vec![], 7), (vec![(0, 1)], 12), (vec![(1, 2), (2, 3)], 9)] {
        let q = Query::select(conds).rank(Linear::new(vec![1.0, 2.0])).top(k);
        let want = mem.source().query(&q.plan()).unwrap();
        let got = reopened.source().query(&q.plan()).unwrap();
        assert_eq!(render(&got.items), render(&want.items));
        assert_eq!(got.stats.blocks_read, want.stats.blocks_read);
    }
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

// --- Separate-process reopen ------------------------------------------------

const CHILD_ENV: &str = "RCUBE_PERSIST_CHILD_FILE";

/// `(selection conditions, linear weights, k)` per query.
type WorkloadSpec = (Vec<(usize, u32)>, Vec<f64>, usize);

/// The fixed workload both processes run (cardinality 4, 3 selection dims).
fn child_workload() -> Vec<WorkloadSpec> {
    vec![
        (vec![], vec![1.0, 1.0], 5),
        (vec![(0, 1)], vec![0.3, 0.7], 10),
        (vec![(1, 2), (2, 0)], vec![1.0, -1.0], 8),
        (vec![(0, 3), (1, 3), (2, 3)], vec![2.0, 0.5], 12),
    ]
}

/// Child half: no-op in a normal test run; under [`CHILD_ENV`] it reopens
/// the cube file written by the parent process and prints its answers.
#[test]
fn child_reopen_and_print() {
    let Ok(path) = std::env::var(CHILD_ENV) else {
        return;
    };
    let cube = GridRankingCube::open_from(&path).expect("child: open cube file");
    assert!(cube.store().read_only(), "child: reopened cube must be read-only");
    let disk = DiskSim::with_defaults();
    for (conds, weights, k) in child_workload() {
        let q = Query::select(conds).rank(Linear::new(weights)).top(k);
        let res = cube.source(&disk).query(&q.plan()).unwrap();
        println!("RESULT {}", render(&res.items));
    }
}

/// Parent half: builds and saves the cube, queries it in memory, then
/// spawns a fresh OS process (this test binary, child test only) to
/// reopen the file and replay the workload. Answers must be
/// byte-identical across the process boundary.
#[test]
fn cube_reopens_in_separate_process_with_identical_answers() {
    let rel = SyntheticSpec { tuples: 3_000, cardinality: 4, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let cube = GridRankingCube::build(
        &rel,
        &disk,
        GridCubeConfig { block_size: 80, ..Default::default() },
    );
    let path = temp_path("subprocess");
    cube.save_to(&path).expect("save");

    let expected: Vec<String> = child_workload()
        .into_iter()
        .map(|(conds, weights, k)| {
            let q = Query::select(conds).rank(Linear::new(weights)).top(k);
            format!("RESULT {}", render(&cube.source(&disk).query(&q.plan()).unwrap().items))
        })
        .collect();

    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["child_reopen_and_print", "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_ENV, &path)
        .output()
        .expect("spawn child process");
    assert!(
        out.status.success(),
        "child process failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // libtest may glue the first println onto its own progress line, so
    // scan for the marker anywhere in each line.
    let got: Vec<&str> =
        stdout.lines().filter_map(|l| l.find("RESULT ").map(|i| &l[i..])).collect();
    assert_eq!(got, expected, "answers changed across the process boundary");
    std::fs::remove_file(&path).ok();
}
