//! Storage-backend benchmarks: the same grid-cube top-k workload served
//! from (a) the in-memory simulator, (b) a reopened cube file with a warm
//! buffer pool, and (c) the same file cache-cold.
//!
//! The run writes `BENCH_storage.json` at the workspace root, extending
//! the perf trajectory started by `BENCH_idlist.json`. Headline numbers
//! are the cold-open and warm-pool penalties relative to in-memory; the
//! warm ratio is the one to keep near 1× — a warm pool serves the same
//! `Arc<[u8]>` frames the in-memory store would.
//!
//! Under the query rows sit the two per-page floors a cold query is made
//! of: `checksum_ns_per_page` (CRC-32 of one 4 KB page, also as MB/s) and
//! `file_miss_ns` (one whole miss — `pread`, verify, frame, pool insert —
//! on a file of one-page objects). The `before` block is what this same
//! emitter read at the parent commit on the same box.
//!
//! Two deterministic fields say what the saved file costs on disk:
//! `grid_file_bytes_per_tuple` and `grid_file_space_amp` (file bytes over
//! the object payload stored in it). The second is a counter gate at
//! ≤ 1.5: a file that spends a whole page on each small cell again —
//! 5.03 before cells were packed into shared one-page segments — fails
//! the run.
//!
//! Beside them, `grid_base_bytes_per_tuple` pins the base block layout:
//! the payload of the file's base blocks over its tuples must be 8 bytes
//! per ranking dimension, a hard counter gate (16 on this two-dimension
//! fixture; 20 while every record also carried its tuple's tid, which the
//! partition in the catalog already holds).
//!
//! A fourth, `grid_blocks_per_query`, is the paper's cost metric: blocks a
//! query reads, cells and base blocks, over a cube of the benchmark of
//! record's shape at this fixture's size (four cardinality-10 selection
//! dimensions, three ranking dimensions) and that benchmark's query shape
//! (two conditions, two ranking dimensions, top 10) — some three tuples of
//! a block qualify. It is a counter gate at ≤ 0.7 × its `before` value,
//! read when a block was bounded by its bin alone, before cell entries
//! carried the box of their tuples.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rcube_bench::{fixed, BenchReport, Bound, Json};
use rcube_core::gridcube::{GridCubeConfig, GridRankingCube};
use rcube_core::query::{Query, RankedSource};
use rcube_func::Linear;
use rcube_storage::format::crc32;
use rcube_storage::{DiskSim, PageId, PageStore, DEFAULT_PAGE_SIZE};
use rcube_table::gen::SyntheticSpec;
use rcube_table::workload::{QueryGen, WorkloadParams};

/// One-page objects in the `file_miss` file; one iteration misses on all.
const MISS_OBJECTS: usize = 1024;

/// What this emitter read at the parent commit (the grid search seeding
/// its frontier by bounding every block, per query), alternated with the
/// committed "after" run on the same box.
const BEFORE: &str = r#"{
    "commit": "PR 18 (dc911de)",
    "storage_query/inmem/sel1": 12999.8,
    "storage_query/file_warm/sel1": 12614.3,
    "storage_query/file_cold/sel1": 21896.8,
    "storage_query/inmem/sel2": 13168.4,
    "storage_query/file_warm/sel2": 13110.3,
    "storage_query/file_cold/sel2": 33212.9,
    "checksum_ns_per_page": 2027.2,
    "file_miss_ns": 3216.8,
    "cold_open_penalty_vs_inmem": 1.68,
    "warm_pool_penalty_vs_inmem": 0.97,
    "buffer_pool_speedup_cold_to_warm": 1.74,
    "grid_file_commit": "7c54deb, one object per cell",
    "grid_file_bytes_per_tuple": 215.4,
    "grid_file_space_amp": 5.033,
    "grid_blocks_commit": "b0d7371, bin bounds only",
    "grid_blocks_per_query": 13.504
  }"#;

/// Tuples in the fixture relation.
const TUPLES: usize = 20_000;

/// The bound the space-amplification counter gate holds.
const MAX_SPACE_AMP: f64 = 1.5;

/// Queries behind `grid_blocks_per_query`, and what they read per query
/// when a block was bounded by its bin alone (the `before` commit).
const BLOCK_QUERIES: usize = 256;
const BLOCKS_BEFORE: f64 = 13.504;

struct Setup {
    mem_cube: GridRankingCube,
    file_cube: GridRankingCube,
    path: std::path::PathBuf,
    file_bytes: u64,
}

fn setup() -> Setup {
    let rel = SyntheticSpec { tuples: TUPLES, cardinality: 5, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    let mem_cube = GridRankingCube::build(
        &rel,
        &disk,
        GridCubeConfig { block_size: 300, ..Default::default() },
    );
    let path = rcube_bench::temp_path("storage", "cube");
    mem_cube.save_to(&path).expect("save cube file");
    let file_cube = GridRankingCube::open_from(&path).expect("reopen cube file");
    let file_bytes = std::fs::metadata(&path).expect("cube file size").len();
    Setup { mem_cube, file_cube, path, file_bytes }
}

fn workload() -> Vec<(&'static str, Vec<(usize, u32)>)> {
    vec![("sel1", vec![(0, 1)]), ("sel2", vec![(0, 1), (2, 3)])]
}

fn bench_backends(c: &mut Criterion) {
    let s = setup();
    let mut g = c.benchmark_group("storage_query");
    for (label, conds) in workload() {
        let q = Query::select(conds.clone()).rank(Linear::uniform(2)).top(10);
        let disk = DiskSim::with_defaults();
        g.bench_function(format!("inmem/{label}"), |b| {
            b.iter(|| s.mem_cube.source(&disk).query(&q.plan()).unwrap())
        });

        let q = Query::select(conds.clone()).rank(Linear::uniform(2)).top(10);
        let disk = DiskSim::with_defaults();
        // Prime the pool once, then measure warm-pool serving.
        s.file_cube.source(&disk).query(&q.plan()).unwrap();
        g.bench_function(format!("file_warm/{label}"), |b| {
            b.iter(|| s.file_cube.source(&disk).query(&q.plan()).unwrap())
        });

        let q = Query::select(conds).rank(Linear::uniform(2)).top(10);
        let disk = DiskSim::with_defaults();
        // Cache-cold: every iteration drops the buffer pool (and the id
        // buffer), so each query re-reads and re-verifies its pages. The
        // OS page cache stays warm — this measures our stack, not the
        // platter.
        g.bench_function(format!("file_cold/{label}"), |b| {
            b.iter(|| {
                s.file_cube.store().clear_cache();
                disk.clear_buffer();
                s.file_cube.source(&disk).query(&q.plan()).unwrap()
            })
        });
    }
    g.finish();
    std::fs::remove_file(&s.path).ok();
    let space_amp = s.file_bytes as f64 / s.file_cube.store().total_bytes() as f64;
    let base_per_tuple =
        s.file_cube.base_block_bytes().expect("read base blocks") as f64 / TUPLES as f64;
    // A base block record: one `f64` per ranking dimension.
    let record = 8 * s.file_cube.ranking_dims().len();

    bench_page_floor(c);
    let blocks = grid_blocks_per_query();
    emit_json(c, s.file_bytes as f64 / TUPLES as f64, space_amp, (base_per_tuple, record), blocks);
}

/// Mean blocks a query reads on the benchmark of record's shape (see the
/// module docs), over [`BLOCK_QUERIES`] queries.
fn grid_blocks_per_query() -> f64 {
    let rel = SyntheticSpec {
        tuples: TUPLES,
        selection_dims: 4,
        cardinality: 10,
        ranking_dims: 3,
        ..Default::default()
    }
    .generate();
    let disk = DiskSim::with_defaults();
    let cube = GridRankingCube::build(&rel, &disk, GridCubeConfig::default());
    let specs = QueryGen::new(WorkloadParams::default()).batch(&rel, BLOCK_QUERIES);
    let blocks: u64 = specs
        .iter()
        .map(|spec| {
            let f = Linear::new(spec.weights.clone());
            let q = Query::select(spec.selection.conds().to_vec())
                .rank_on(spec.ranking_dims.clone(), f)
                .top(spec.k);
            cube.source(&disk).query(&q.plan()).unwrap().stats.blocks_read
        })
        .sum();
    blocks as f64 / BLOCK_QUERIES as f64
}

fn bench_page_floor(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_page");
    // The checksummed span of one page: everything after the CRC field.
    let page: Vec<u8> = (0..DEFAULT_PAGE_SIZE).map(|i| (i * 31 % 251) as u8).collect();
    g.bench_function("checksum", |b| b.iter(|| crc32(black_box(&page[4..]))));

    let path = rcube_bench::temp_path("storage", "pages");
    let disk = DiskSim::with_defaults();
    let ids: Vec<PageId> = {
        let store = PageStore::create_file(&path, DEFAULT_PAGE_SIZE, 0).expect("create page file");
        let ids = (0..MISS_OBJECTS)
            .map(|i| store.put(&disk, vec![(i % 251) as u8; DEFAULT_PAGE_SIZE / 2]))
            .collect();
        store.flush().expect("commit page file");
        ids
    };
    let store = PageStore::open_file(&path, 2 * MISS_OBJECTS).expect("open page file");
    g.bench_function("file_miss_batch", |b| {
        b.iter(|| {
            store.clear_cache();
            for id in &ids {
                black_box(store.get_bytes(&disk, *id));
            }
        })
    });
    g.finish();
    std::fs::remove_file(&path).ok();
}

/// `base` is the base blocks' payload per tuple and the record size it
/// must equal.
fn emit_json(
    c: &mut Criterion,
    bytes_per_tuple: f64,
    space_amp: f64,
    (base_per_tuple, record): (f64, usize),
    blocks: f64,
) {
    let results = c.measurements().iter().map(|m| (m.id.as_str(), m.mean_ns));
    let mut report = BenchReport::criterion("storage", results);
    let cold_penalty = report.ratio("storage_query/file_cold/sel1", "storage_query/inmem/sel1");
    let warm_penalty = report.ratio("storage_query/file_warm/sel1", "storage_query/inmem/sel1");
    let pool_speedup = report.ratio("storage_query/file_cold/sel1", "storage_query/file_warm/sel1");
    let checksum_ns = report.result("storage_page/checksum").unwrap_or(0.0);
    // bytes/ns × 1000 = MB/s (10^6 bytes).
    let checksum_mb_s = (DEFAULT_PAGE_SIZE - 4) as f64 / checksum_ns.max(f64::MIN_POSITIVE) * 1e3;
    let miss_ns =
        report.result("storage_page/file_miss_batch").unwrap_or(0.0) / MISS_OBJECTS as f64;
    println!(
        "storage: cold {cold_penalty:.2}x inmem, warm {warm_penalty:.2}x inmem, pool speedup {pool_speedup:.2}x"
    );
    println!(
        "storage: checksum {checksum_ns:.0} ns/page ({checksum_mb_s:.0} MB/s), file miss {miss_ns:.0} ns"
    );
    println!("storage: grid file {bytes_per_tuple:.1} B/tuple, space amp {space_amp:.3}");
    println!("storage: grid base blocks {base_per_tuple:.1} B/tuple ({record} B a record)");
    println!("storage: grid {blocks:.3} blocks/query ({BLOCKS_BEFORE:.3} before)");
    report
        .set("checksum_ns_per_page", fixed(checksum_ns, 1))
        .set("checksum_mb_per_s", fixed(checksum_mb_s, 0))
        .set("file_miss_ns", fixed(miss_ns, 1))
        .set("cold_open_penalty_vs_inmem", fixed(cold_penalty, 2))
        .set("warm_pool_penalty_vs_inmem", fixed(warm_penalty, 2))
        .set("buffer_pool_speedup_cold_to_warm", fixed(pool_speedup, 2))
        .set("grid_file_bytes_per_tuple", fixed(bytes_per_tuple, 1))
        .set("grid_file_space_amp", fixed(space_amp, 3))
        .set("grid_base_bytes_per_tuple", fixed(base_per_tuple, 1))
        .set("grid_blocks_per_query", fixed(blocks, 3))
        .set("before", Json::Raw(BEFORE));
    assert!(
        space_amp <= MAX_SPACE_AMP,
        "grid_file_space_amp = {space_amp:.2} misses its bound <= {MAX_SPACE_AMP}"
    );
    report.counter_gate(
        "grid_file_space_amp",
        "<= 1.5",
        "file bytes / stored payload: small cells share one-page segments",
    );
    assert!(
        base_per_tuple == record as f64,
        "grid_base_bytes_per_tuple = {base_per_tuple:.2} misses its bound == {record} \
         (8 x ranking dims)"
    );
    report.counter_gate(
        "grid_base_bytes_per_tuple",
        "== 8 x ranking dims",
        "a base block holds ranking values only: its tids live once, in the partition",
    );
    assert!(
        blocks <= 0.7 * BLOCKS_BEFORE,
        "grid_blocks_per_query = {blocks:.3} misses its bound <= 0.7 x {BLOCKS_BEFORE}"
    );
    report.counter_gate(
        "grid_blocks_per_query",
        "<= 0.7 x before",
        "an unread block is bounded by the box of the tuples its cells leave, not by its bin",
    );
    // A warm buffer pool must keep file-backed serving within 3x of
    // in-memory.
    report.clock_gate("warm_pool_penalty_vs_inmem", warm_penalty, Bound::Max(3.0), Some(1));
    report.write();
}

criterion_group!(benches, bench_backends);
criterion_main!(benches);
