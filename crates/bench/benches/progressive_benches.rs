//! Progressive-query benchmarks: the paper's *semi-online* property,
//! measured. Three claims, each gated on deterministic I/O counters (hard
//! even on CI — counters don't jitter; wall-clock ratios are recorded
//! only):
//!
//! 1. **Time-to-first-answer ≪ full-k time.** A bound-driven cursor
//!    certifies its first answer after reading strictly fewer blocks than
//!    draining the full top-k (the table-scan baseline is the recorded
//!    contrast: its first answer costs the whole scan).
//! 2. **`extend_k(Δ)` ≪ fresh top-(k+Δ).** Pagination resumes the paused
//!    frontier: the extension charges strictly fewer block reads than
//!    re-running the query at k+Δ, with identical items (the rank-mapping
//!    baseline is the recorded contrast: its bound oracle depends on k,
//!    so pagination re-plans and re-reads).
//! 3. Both hold identically on a cube reopened from a file.
//!
//! The run writes `BENCH_progressive.json` at the workspace root next to
//! the other `BENCH_*.json` trajectories. Its `before` block is what this
//! same emitter read at the parent commit on the same box.

use criterion::{criterion_group, criterion_main, Criterion};
use rcube_baseline::{RankMapping, TableScan};
use rcube_bench::{fixed, BenchReport, Json, Obj};
use rcube_core::gridcube::{GridCubeConfig, GridRankingCube};
use rcube_core::query::{Query, QueryPlan, RankedSource, TopKCursor};
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_func::Linear;
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;
use rcube_table::Relation;

const K: usize = 50;
const DELTA: usize = 50;

/// What this emitter read at the parent commit (the grid search seeding
/// its frontier by bounding every block, per query), alternated with the
/// committed "after" run on the same box. The block counters are gates,
/// not a trajectory: they read 2 / 7 / 4 / 11 on both sides.
const BEFORE: &str = r#"{
    "commit": "PR 18 (dc911de)",
    "progressive/grid/first_answer": 25479.9,
    "progressive/grid/full_top_k": 32993.2,
    "progressive/grid/extend_after_k": 56310.1,
    "progressive/grid/fresh_k_plus_delta": 39864.9,
    "progressive/scan/first_answer": 316196.1,
    "grid_ttfa_wall_speedup_vs_full_k": 1.29,
    "grid_ttfa_wall_speedup_vs_scan_ttfa": 12.41
  }"#;

struct Setup {
    rel: Relation,
    disk: DiskSim,
    grid: GridRankingCube,
    file_disk: DiskSim,
    file_grid: GridRankingCube,
    rtree: RTree,
    sig: SignatureCube,
    scan: TableScan,
    rank_map: RankMapping,
    path: std::path::PathBuf,
}

fn setup() -> Setup {
    let rel = SyntheticSpec { tuples: 20_000, cardinality: 5, ..Default::default() }.generate();
    let disk = DiskSim::with_defaults();
    // Finer blocks than the §3.5.1 default: more frontier steps between
    // answers, so the progressive profile (first ≪ full ≪ fresh) is
    // visible in whole-block counters at this scale.
    let grid = GridRankingCube::build(
        &rel,
        &disk,
        GridCubeConfig { block_size: 100, ..Default::default() },
    );
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    let sig = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
    let scan = TableScan::new(&rel, &disk);
    let rank_map = RankMapping::build(&rel, &disk);
    let path = rcube_bench::temp_path("prog", "grid");
    grid.save_to(&path).expect("save grid cube");
    let file_grid = GridRankingCube::open_from(&path).expect("reopen grid cube");
    Setup {
        rel,
        disk,
        grid,
        file_disk: DiskSim::with_defaults(),
        file_grid,
        rtree,
        sig,
        scan,
        rank_map,
        path,
    }
}

fn query(k: usize) -> Query {
    Query::select([(0, 1)]).rank(Linear::uniform(2)).top(k)
}

/// Counter profile of one progressive run: blocks charged up to the first
/// answer, up to k, and for an extend_k(Δ) resume, plus the answer stream.
struct Profile {
    blocks_first: u64,
    blocks_at_k: u64,
    blocks_extension: u64,
    items: Vec<(u32, f64)>,
}

fn profile<'a, S: RankedSource<'a>>(source: &S, plan: &QueryPlan<'a>) -> Profile {
    let mut cursor = source.open(plan).expect("open");
    let mut items = Vec::new();
    items.extend(cursor.next());
    let blocks_first = cursor.stats().blocks_read;
    for item in cursor.by_ref() {
        items.push(item);
    }
    let blocks_at_k = cursor.stats().blocks_read;
    cursor.extend_k(DELTA);
    items.extend(cursor.by_ref());
    let blocks_extension = cursor.stats().blocks_read - blocks_at_k;
    Profile { blocks_first, blocks_at_k, blocks_extension, items }
}

fn drain_blocks<'a, S: RankedSource<'a>>(
    source: &S,
    plan: &QueryPlan<'a>,
) -> (u64, Vec<(u32, f64)>) {
    let mut cursor: TopKCursor<'a> = source.open(plan).expect("open");
    let items: Vec<_> = cursor.by_ref().collect();
    (cursor.stats().blocks_read, items)
}

fn bench_progressive(c: &mut Criterion) {
    let s = setup();
    let q_k = query(K);
    let q_ext = query(K + DELTA);

    // --- Deterministic counters (run once, asserted hard) ---------------
    let mut profiles = Vec::new();
    let mut record = |name: &str, p: &Profile, fresh_blocks: u64| {
        println!(
            "{name}: first answer after {} blocks, top-{K} after {}, extend_k({DELTA}) read {} vs fresh top-{} {}",
            p.blocks_first, p.blocks_at_k, p.blocks_extension, K + DELTA, fresh_blocks
        );
        let counts = Obj::new()
            .with("blocks_first_answer", p.blocks_first)
            .with("blocks_top_k", p.blocks_at_k)
            .with("blocks_extension", p.blocks_extension)
            .with("blocks_fresh_k_plus_delta", fresh_blocks)
            .with("k", K)
            .with("delta", DELTA);
        profiles.push((name.to_string(), counts));
    };

    // Grid cube, in memory.
    let grid_src = s.grid.source(&s.disk);
    let p = profile(&grid_src, &q_k.plan());
    let (fresh_blocks, fresh_items) = drain_blocks(&grid_src, &q_ext.plan());
    assert_eq!(p.items, fresh_items, "grid: paginated items must equal a fresh top-(k+Δ)");
    assert!(
        p.blocks_first < p.blocks_at_k,
        "grid: first answer ({} blocks) must undercut the full top-{K} ({} blocks)",
        p.blocks_first,
        p.blocks_at_k
    );
    assert!(
        p.blocks_extension < fresh_blocks,
        "grid: extend_k read {} blocks, fresh top-{} read {} — resume must be strictly cheaper",
        p.blocks_extension,
        K + DELTA,
        fresh_blocks
    );
    record("grid_mem", &p, fresh_blocks);

    // Grid cube, reopened from file: the same profile must hold.
    let file_src = s.file_grid.source(&s.file_disk);
    let pf = profile(&file_src, &q_k.plan());
    let (fresh_file_blocks, fresh_file_items) = drain_blocks(&file_src, &q_ext.plan());
    assert_eq!(pf.items, fresh_file_items, "grid(file): pagination equality");
    assert_eq!(pf.items, p.items, "grid(file): answers must match in-memory");
    assert!(pf.blocks_first < pf.blocks_at_k, "grid(file): progressive first answer");
    assert!(pf.blocks_extension < fresh_file_blocks, "grid(file): resume strictly cheaper");
    record("grid_file", &pf, fresh_file_blocks);

    // Signature cube.
    let sig_src = s.sig.source(&s.rtree, &s.disk);
    let ps = profile(&sig_src, &q_k.plan());
    let (fresh_sig_blocks, fresh_sig_items) = drain_blocks(&sig_src, &q_ext.plan());
    assert_eq!(ps.items, fresh_sig_items, "signature: pagination equality");
    assert!(ps.blocks_first < ps.blocks_at_k, "signature: progressive first answer");
    assert!(ps.blocks_extension < fresh_sig_blocks, "signature: resume strictly cheaper");
    record("signature_mem", &ps, fresh_sig_blocks);

    // Table-scan baseline: the recorded contrast — the first answer costs
    // the entire scan, and extension is free only because all work is
    // front-loaded.
    let scan_src = s.scan.source(&s.rel, &s.disk);
    let pb = profile(&scan_src, &q_k.plan());
    let (fresh_scan_blocks, _) = drain_blocks(&scan_src, &q_ext.plan());
    assert_eq!(
        pb.blocks_first, pb.blocks_at_k,
        "table scan: first answer must cost the whole scan (the contrast)"
    );
    record("table_scan", &pb, fresh_scan_blocks);

    // Rank-mapping baseline: pagination re-plans and re-reads (the
    // order-sensitivity the paper criticizes).
    let rm_src = s.rank_map.source(&s.rel, &s.disk);
    let pr = profile(&rm_src, &q_k.plan());
    let (fresh_rm_blocks, _) = drain_blocks(&rm_src, &q_ext.plan());
    assert!(
        pr.blocks_extension >= fresh_rm_blocks,
        "rank-mapping: extension must re-read at least a fresh run's blocks ({} vs {})",
        pr.blocks_extension,
        fresh_rm_blocks
    );
    record("rank_mapping", &pr, fresh_rm_blocks);

    // --- Wall time -------------------------------------------------------
    let mut g = c.benchmark_group("progressive");
    g.bench_function("grid/first_answer", |b| {
        b.iter(|| {
            let mut cursor = grid_src.open(&q_k.plan()).expect("open");
            cursor.next().expect("at least one answer")
        })
    });
    g.bench_function("grid/full_top_k", |b| {
        b.iter(|| {
            let mut cursor = grid_src.open(&q_k.plan()).expect("open");
            cursor.by_ref().count()
        })
    });
    g.bench_function("grid/extend_after_k", |b| {
        b.iter(|| {
            let mut cursor = grid_src.open(&q_k.plan()).expect("open");
            cursor.by_ref().count();
            cursor.extend_k(DELTA);
            cursor.by_ref().count()
        })
    });
    g.bench_function("grid/fresh_k_plus_delta", |b| {
        b.iter(|| {
            let mut cursor = grid_src.open(&q_ext.plan()).expect("open");
            cursor.by_ref().count()
        })
    });
    g.bench_function("scan/first_answer", |b| {
        b.iter(|| {
            let mut cursor = scan_src.open(&q_k.plan()).expect("open");
            cursor.next().expect("at least one answer")
        })
    });
    g.finish();

    let results = c.measurements().iter().map(|m| (m.id.as_str(), m.mean_ns));
    let mut report = BenchReport::criterion("progressive", results);
    let ttfa_speedup = report.ratio("progressive/grid/full_top_k", "progressive/grid/first_answer");
    let scan_ttfa_vs_grid =
        report.ratio("progressive/scan/first_answer", "progressive/grid/first_answer");
    let first_reduction = p.blocks_at_k as f64 / p.blocks_first.max(1) as f64;
    let extension_vs_fresh = fresh_blocks as f64 / p.blocks_extension.max(1) as f64;
    println!(
        "progressive: first answer {first_reduction:.1}x fewer blocks than full top-{K}, extension {extension_vs_fresh:.1}x fewer than fresh re-query, ttfa {ttfa_speedup:.2}x faster wall"
    );
    for (name, counts) in profiles {
        report.set(&name, counts);
    }
    report
        .set("grid_first_answer_block_reduction", fixed(first_reduction, 2))
        .set("grid_extension_vs_fresh_blocks", fixed(extension_vs_fresh, 2))
        .set("grid_ttfa_wall_speedup_vs_full_k", fixed(ttfa_speedup, 2))
        .set("grid_ttfa_wall_speedup_vs_scan_ttfa", fixed(scan_ttfa_vs_grid, 2))
        .set("scan_first_answer_blocks", pb.blocks_first)
        .set("before", Json::Raw(BEFORE));
    // Asserted above on grid_mem, grid_file and signature_mem alike.
    report.counter_gate("grid_first_answer_block_reduction", "> 1", "first answer < full top-k");
    report.counter_gate("grid_extension_vs_fresh_blocks", "> 1", "extend_k < fresh top-(k+delta)");
    report.write();
    std::fs::remove_file(&s.path).ok();
}

criterion_group!(benches, bench_progressive);
criterion_main!(benches);
