//! LSM delta cube benchmark: ingest-while-serving. Reader threads pin
//! cursors on a quiesced state, then keep draining while the writer
//! runs whole ingest→flush→merge→swap cycles underneath them — WAL
//! appends, memtable folds into the base cube via COW commit, the WAL
//! hand-over by atomic rename, generation swap.
//!
//! The run writes `BENCH_delta.json` at the workspace root. Gates:
//!
//! * **Deterministic (always hard):** every answer a pinned reader
//!   produces across the cycles is byte-identical to the state its
//!   cursor opened on (`inconsistent_answers` must be exactly zero);
//!   at every checked point the merged base+overlay view is
//!   byte-identical to a signature cube built from scratch over the
//!   logical relation (tid-exact on insert-only points, score-exact
//!   once deletes shift tids); a reopen replays the WAL with *exact*
//!   counts (records == pending == appends since the last flush, no torn
//!   tail) and answers identically to the pre-shutdown state; a flush
//!   writes the same WAL bytes at the first flush and the last, whatever
//!   the live delta tuples (`wal_bytes_written_per_flush`: the header of
//!   a WAL with nothing carried); the obs instruments saw every append and
//!   every flush; and the fold is cell-granular — every flush rewrites
//!   at least the distinct cells its ops land in and at most every cell
//!   that exists, once each, which on this workload is strictly fewer
//!   than the ops × cuboids rewrites of an op-by-op fold
//!   (`cells_rewritten` in the JSON, gated per flush). Below the cell the
//!   fold is node-granular: a flush re-encodes at most the nodes on the
//!   old and new paths of its net updates — strictly fewer than the cells
//!   it touched hold — and rewrites at most the partials those cells are
//!   cut into (`nodes_reencoded`, `partials_rewritten`, gated per flush
//!   against the catalogs before and after); and no flush parses the
//!   catalog off the file, the first after an open included: it reuses
//!   the one the open parsed (`cold_opens` is exactly 0).
//!   The **read side of a flush** (`chill` in the JSON): one reader runs
//!   a fixed lap of 64 queries after every one of 8 flushes of 64 writes
//!   (which land away from the lap's answers, so the lap asks for the same
//!   signature nodes every time — what it has to decode again is what the
//!   flush cooled). After every flush, the first included, a lap decodes
//!   **0** nodes and loads **0** partials: the decoded-node cache follows
//!   the file across flushes. The `before` block is what the parent
//!   commit read, which emptied the cache at every swap.
//!   **Retired generations leave** (`retention` below): over 64
//!   flushes with a query between each and no cursor left open, one
//!   generation stays alive (`generations_retained_after_flushes` == 1,
//!   counted by the generations themselves) and the process's open file
//!   descriptors grow by at most 1 (`open_fds_delta_over_64_flushes`,
//!   read off `/proc/self/fd`; skipped where there is no `/proc`).
//! * **Clock (reported, never load-bearing):** ingest ops/sec during
//!   the cycles and mixed read/write ops/sec from the Zipf-skewed
//!   `MixedWorkloadGen` stream; and, in `chill`, the median latency of
//!   the first 8 queries a reader runs after a swap over that of its
//!   queries 128 and later (two readers, the writer flushing every 64
//!   writes) — 1.0 would be a flush nobody downstream can feel. Beside
//!   `flush_duration_us_mean`, what a flush costs the *writers*: over 8
//!   flushes of 64 writes, a second thread appends for as long as each
//!   flush runs (up to 64 appends, 100 µs apart).
//!   `append_max_us_during_flush` is the slowest of those appends,
//!   `writer_hold_us_p50` the median time a flush held the append mutex
//!   (`FlushReport::writer_hold_us`), and `writer_hold_over_flush_p50`
//!   that median over the flushes' median duration (target ≤ 0.2, never
//!   enforced). Beside the retention counts, `rss_kb_per_flush`: the
//!   resident set's growth over those 64 flushes, per flush (a target,
//!   never enforced: the allocator decides what it hands back).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, RwLock};
use std::time::{Duration, Instant};

use ranking_cube::cube::delta::{wal_path_for, DeltaCube, DeltaOptions, FlushReport};
use ranking_cube::cube::query::{Query, RankedSource};
use ranking_cube::cube::sigcube::{SignatureCube, SignatureCubeConfig};
use ranking_cube::func::Linear;
use ranking_cube::index::rtree::{RTree, RTreeConfig};
use ranking_cube::index::HierIndex;
use ranking_cube::obs::Metrics;
use ranking_cube::storage::DiskSim;
use ranking_cube::table::gen::SyntheticSpec;
use ranking_cube::table::workload::{
    MixedWorkloadGen, MixedWorkloadParams, WorkloadOp, WorkloadParams,
};
use ranking_cube::table::{Relation, RelationBuilder, Tid};
use rcube_bench::{
    fixed, percentile, query_of, render, save_signature_cube, BenchReport, Bound, Json, Obj,
};

const POOL: usize = 2048;
const READERS: usize = 4;
const CARDINALITY: u32 = 8;
const BASE: usize = 5_700;
const TOTAL: usize = 6_000;
/// Insert cycles during the pinned-reader storm; each ingests `STEP`
/// tuples and flushes. A fourth round deletes base tuples instead.
const CYCLES: usize = 3;
const STEP: usize = 100;
const ROUNDS: usize = CYCLES + 1;
const DELETED: [Tid; 12] = [5, 40, 77, 123, 250, 391, 512, 777, 1024, 2048, 3000, 4321];
const MIXED_OPS: usize = 600;
/// What this emitter recorded at the parent commit, whose flush rewrote
/// every touched cell whole and parsed the catalog twice a cycle: the
/// "before" of the trajectory the JSON carries.
const BEFORE_INGEST_OPS_PER_SEC: f64 = 3791.2;
const BEFORE_FLUSH_US_MEAN: f64 = 13_825.0;
/// `chill`: generations, writes per flush, queries per lap.
const CHILL_FLUSHES: usize = 8;
const CHILL_WRITES: usize = 64;
const CHILL_LAP: usize = 64;
/// What the `chill` laps read at the parent commit (PR 22), per
/// generation 1..=8: every flush handed queries an empty node cache.
const BEFORE_CHILL_DECODED: [u64; CHILL_FLUSHES] = [2498; CHILL_FLUSHES];
const BEFORE_CHILL_LOADED: [u64; CHILL_FLUSHES] = [114; CHILL_FLUSHES];
/// First 8 queries after a swap 217 µs, queries 128+ 48 µs.
const BEFORE_CHILL_RATIO: f64 = 4.5;
/// Flushes of `CHILL_WRITES` writes each that a second thread appends
/// through.
const OVERLAP_FLUSHES: usize = 8;
/// Target for `writer_hold_over_flush_p50`: a flush keeps appends waiting
/// for at most a fifth of its cycle.
const WRITER_HOLD_SHARE_MAX: f64 = 0.2;
/// Unpinned flushes [`retention`] runs.
const RETENTION_FLUSHES: usize = 64;
/// Target for `rss_kb_per_flush`.
const RSS_KB_PER_FLUSH_MAX: f64 = 16.0;

/// A scratch cube path with no file or WAL left at it.
fn temp_path(tag: &str) -> std::path::PathBuf {
    let p = rcube_bench::temp_path("delta", tag);
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(wal_path_for(&p));
    p
}

fn render_scores(items: &[(Tid, f64)]) -> String {
    items.iter().map(|(_, s)| format!("{:016x}", s.to_bits())).collect::<Vec<_>>().join(",")
}

fn workload() -> Vec<(Vec<(usize, u32)>, usize)> {
    vec![(vec![(0, 1)], 10), (vec![(1, 2)], 8), (vec![(0, 0), (1, 1)], 10), (vec![(2, 3)], 6)]
}

/// Fresh-cursor answers over the shared workload: the quiesced truth.
fn answers(delta: &DeltaCube) -> Vec<String> {
    workload()
        .into_iter()
        .map(|(conds, k)| {
            let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
            let items = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
            render(&items)
        })
        .collect()
}

/// The same workload against a from-scratch in-memory cube over `rel`:
/// `(tid-exact render, score-only render)` per query.
fn rebuilt_answers(rel: &Relation) -> Vec<(String, String)> {
    let disk = DiskSim::with_defaults();
    let rtree = RTree::over_relation(&disk, rel, &[], RTreeConfig::small(16));
    let cube = SignatureCube::build(rel, &rtree, &disk, SignatureCubeConfig::default());
    workload()
        .into_iter()
        .map(|(conds, k)| {
            let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
            let plan = q.plan();
            let items = cube.source(&rtree, &disk).open(&plan).unwrap().try_drain().unwrap().items;
            (render(&items), render_scores(&items))
        })
        .collect()
}

fn sel_of(rel: &Relation, tid: Tid) -> Vec<u32> {
    (0..rel.schema().num_selection()).map(|d| rel.selection_value(tid, d)).collect()
}

/// The cell-granular fold gate for one flush of `ops` memtable ops whose
/// own tuples have the selection values `op_sels`: distinct cells the ops
/// land in ≤ cells rewritten ≤ cells that exist (the Σ-over-cuboids bound
/// on distinct touched cells a caller can compute without the R-tree's
/// split sets), and strictly below the op-by-op fold's `ops × cuboids`.
fn gate_cell_granular(report: &FlushReport, ops: usize, op_sels: &[Vec<u32>], label: &str) {
    let cuboids = op_sels[0].len();
    let landed: std::collections::BTreeSet<(usize, u32)> =
        op_sels.iter().flat_map(|sel| sel.iter().copied().enumerate()).collect();
    assert!(
        report.cells_rewritten >= landed.len(),
        "{label}: {} cells rewritten, the ops alone land in {}",
        report.cells_rewritten,
        landed.len()
    );
    assert!(
        report.cells_rewritten <= cuboids * CARDINALITY as usize,
        "{label}: {} cells rewritten, only {} exist",
        report.cells_rewritten,
        cuboids * CARDINALITY as usize
    );
    assert!(
        report.cells_rewritten <= report.path_updates * cuboids,
        "{label}: a rewrite needs a net update"
    );
    assert!(
        report.cells_rewritten < ops * cuboids,
        "{label}: {} cells rewritten is no better than one per op per cuboid ({})",
        report.cells_rewritten,
        ops * cuboids
    );
    assert!(report.pages_appended > 0, "{label}: a fold that applied ops appends pages");
}

/// Per cell of the cube file as committed: its partials' page ids and
/// how many nodes its signature holds — plus the R-tree's height.
type Catalog = (std::collections::BTreeMap<(usize, u32), (Vec<u64>, usize)>, usize);

fn catalog_of(path: &std::path::Path) -> Catalog {
    let (cube, rtree) = SignatureCube::open_from_with(path, POOL).expect("open committed cube");
    let disk = DiskSim::with_defaults();
    let mut cells = std::collections::BTreeMap::new();
    for dims in cube.cuboid_dims() {
        for v in 0..CARDINALITY {
            if let Some(stored) = cube.cell_signature(&dims, &[v]) {
                let pages = stored.partial_pages().iter().map(|p| p.0).collect();
                let nodes = stored.load_full(&disk, cube.store()).expect("load cell").node_count();
                cells.insert((dims[0], v), (pages, nodes));
            }
        }
    }
    (cells, rtree.height())
}

/// The node-granular fold gate for one flush, against the catalogs it
/// started from and left: the cells it wrote into are the ones whose
/// partial list changed; it re-encoded strictly fewer nodes than those
/// cells hold and at most the nodes on its net updates' paths, and
/// appended at most the partials those cells are now cut into.
fn gate_node_granular(report: &FlushReport, before: &Catalog, after: &Catalog, label: &str) {
    let cuboids = before.0.keys().map(|&(d, _)| d).max().map_or(0, |d| d + 1);
    let touched =
        after.0.iter().filter(|&(cell, shape)| before.0.get(cell).map(|b| &b.0) != Some(&shape.0));
    let (partials, nodes) =
        touched.fold((0, 0), |(p, n), (_, (pages, count))| (p + pages.len(), n + count));
    let on_paths = report.path_updates * cuboids * 2 * before.1.max(after.1);
    assert!(
        report.nodes_reencoded <= on_paths,
        "{label}: {} nodes re-encoded, the net updates' paths hold {on_paths}",
        report.nodes_reencoded
    );
    assert!(
        report.nodes_reencoded < nodes,
        "{label}: {} nodes re-encoded is no better than the {nodes} the touched cells hold",
        report.nodes_reencoded
    );
    assert!(
        report.partials_rewritten <= partials,
        "{label}: {} partials rewritten, the touched cells have {partials}",
        report.partials_rewritten
    );
    assert!(report.partials_rewritten > 0, "{label}: a fold that applied ops rewrites a partial");
}

/// The `chill` block of `BENCH_delta.json` (module docs): what a flush
/// costs the queries that come after it.
fn chill_block(full: &Relation, base_rel: &Relation) -> Obj {
    let path = temp_path("chill");
    // A delta cube over a base file written fresh (and no WAL beside it).
    let open = || {
        std::fs::remove_file(wal_path_for(&path)).ok();
        save_signature_cube(base_rel, Default::default(), &DiskSim::with_defaults(), &path);
        let opts = DeltaOptions { pool_pages: POOL, ..Default::default() };
        DeltaCube::open(&path, base_rel.clone(), opts).expect("open chill delta")
    };
    // The lap: every cell of dimension 0, then pairs across two dimensions,
    // 64 queries, top-8 by the uniform linear function (answers sit near
    // the origin).
    let lap: Vec<Query> = (0..CHILL_LAP as u32)
        .map(|i| {
            let conds = if i < CARDINALITY {
                vec![(0, i)]
            } else {
                vec![(1, i % CARDINALITY), (2, (i / CARDINALITY) % CARDINALITY)]
            };
            Query::select(conds).rank(Linear::uniform(2)).top(8)
        })
        .collect();
    // Writes: the selection values of real tuples (so every lap cell is
    // spliced, sooner or later), points in the far corner.
    let write_burst = |delta: &DeltaCube, burst: usize| {
        for i in 0..CHILL_WRITES {
            let like = BASE + (burst * CHILL_WRITES + i) % (TOTAL - BASE);
            let far = 0.8 + (i % 16) as f64 / 100.0;
            delta.insert(&sel_of(full, like as Tid), &[far, 1.75 - far]).expect("chill insert");
        }
        delta.flush().expect("chill flush")
    };

    // Counters: one reader, one lap per generation.
    let delta = open();
    let run_lap = |delta: &DeltaCube| {
        lap.iter().fold((0u64, 0u64), |(decoded, loaded), q| {
            let stats = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().stats;
            (decoded + stats.sig_nodes_decoded, loaded + stats.sig_loads)
        })
    };
    let (warmup_decoded, _) = run_lap(&delta);
    assert!(warmup_decoded > 0, "the first lap decodes its working set");
    let (mut decoded, mut loaded) = (Vec::new(), Vec::new());
    for generation in 1..=CHILL_FLUSHES {
        let report = write_burst(&delta, generation);
        assert_eq!(report.cold_opens, 0, "generation {generation}: warm");
        let (d, l) = run_lap(&delta);
        decoded.push(d);
        loaded.push(l);
    }
    println!("chill: nodes decoded per lap {decoded:?}, partials loaded per lap {loaded:?}");
    drop(delta);

    // Clock: two readers loop over the lap while the writer cycles.
    let delta = open();
    let done = std::sync::atomic::AtomicBool::new(false);
    let (mut post, mut steady) = (Vec::new(), Vec::new());
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..2usize)
            .map(|r| {
                let (delta, lap, done) = (&delta, &lap, &done);
                s.spawn(move || {
                    let (mut post, mut steady) = (Vec::new(), Vec::new());
                    let (mut generation, mut since) = (delta.flushes_completed(), 0usize);
                    let mut at = r * CHILL_LAP / 2;
                    while !done.load(Ordering::Relaxed) {
                        let now = delta.flushes_completed();
                        if now != generation {
                            (generation, since) = (now, 0);
                        }
                        let plan = lap[at % CHILL_LAP].plan();
                        let t = Instant::now();
                        let got = delta.source().open(&plan).unwrap().try_drain().unwrap();
                        let ns = t.elapsed().as_nanos() as u64;
                        std::hint::black_box(got);
                        match since {
                            0..8 if generation > 0 => post.push(ns),
                            128.. if generation > 0 => steady.push(ns),
                            _ => {}
                        }
                        since += 1;
                        at += 1;
                    }
                    (post, steady)
                })
            })
            .collect();
        // Set however this thread leaves the scope, or the readers spin on.
        struct Done<'a>(&'a std::sync::atomic::AtomicBool);
        impl Drop for Done<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        let writer_done = Done(&done);
        for burst in 0..3 * CHILL_FLUSHES {
            write_burst(&delta, burst);
        }
        drop(writer_done);
        for reader in readers {
            let (p, st) = reader.join().expect("chill reader");
            post.extend(p);
            steady.extend(st);
        }
    });
    let median_us = |v: &mut [u64]| percentile(v, 0.5).map_or(0.0, |ns| ns as f64 / 1e3);
    let (post_us, steady_us) = (median_us(&mut post), median_us(&mut steady));
    let ratio = post_us / steady_us.max(f64::MIN_POSITIVE);
    println!(
        "chill: first 8 queries after a swap p50 {post_us:.1}us ({} samples), queries 128+ p50 \
         {steady_us:.1}us ({}), ratio {ratio:.2} (parent {BEFORE_CHILL_RATIO:.2})",
        post.len(),
        steady.len()
    );
    drop(delta);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path_for(&path)).ok();

    // Hard: from the first generation on the cache came along.
    assert!(
        decoded.iter().chain(&loaded).all(|&n| n == 0),
        "a flush cooled the cube: decoded {decoded:?}, loaded {loaded:?} per lap"
    );
    let before = Obj::new()
        .with("nodes_decoded_per_lap", BEFORE_CHILL_DECODED.to_vec())
        .with("sig_loads_per_lap", BEFORE_CHILL_LOADED.to_vec())
        .with("post_flush_over_steady_p50", fixed(BEFORE_CHILL_RATIO, 2));
    Obj::lines()
        .with("flushes", CHILL_FLUSHES)
        .with("writes_per_flush", CHILL_WRITES)
        .with("lap_queries", CHILL_LAP)
        .with("before", before)
        .with("nodes_decoded_per_lap", decoded)
        .with("sig_loads_per_lap", loaded)
        .with("post_flush_p50_us", fixed(post_us, 1))
        .with("steady_p50_us", fixed(steady_us, 1))
        .with("post_flush_over_steady_p50", fixed(ratio, 2))
}

/// What a flush costs the writers (module docs): the slowest append a
/// second thread made while a flush ran, and the medians of the flushes'
/// append-mutex hold and duration, all in µs.
fn appends_during_flush(full: &Relation, base_rel: &Relation) -> (u64, u64, u64) {
    let path = temp_path("overlap");
    save_signature_cube(base_rel, Default::default(), &DiskSim::with_defaults(), &path);
    let opts = DeltaOptions { pool_pages: POOL, ..Default::default() };
    let delta = DeltaCube::open(&path, base_rel.clone(), opts).expect("open overlap delta");
    let insert_like = |i: usize| {
        let like = (BASE + i % (TOTAL - BASE)) as Tid;
        delta.insert(&sel_of(full, like), &full.ranking_point(like)).expect("overlap insert");
    };
    let (mut append_max_us, mut carried) = (0u64, 0u64);
    let (mut hold_us, mut flush_us) = (Vec::new(), Vec::new());
    for round in 0..OVERLAP_FLUSHES {
        (0..CHILL_WRITES).for_each(|i| insert_like(round * CHILL_WRITES + i));
        let flushing = AtomicBool::new(true);
        let slowest = std::thread::scope(|s| {
            let appender = s.spawn(|| {
                let mut slowest = 0u64;
                for i in 0..CHILL_WRITES {
                    if !flushing.load(Ordering::Acquire) {
                        break;
                    }
                    let t = Instant::now();
                    insert_like(i);
                    slowest = slowest.max(t.elapsed().as_micros() as u64);
                    std::thread::sleep(Duration::from_micros(100));
                }
                slowest
            });
            let report = delta.flush().expect("overlap flush");
            flushing.store(false, Ordering::Release);
            hold_us.push(report.writer_hold_us);
            flush_us.push(report.duration.as_micros() as u64);
            carried += report.carried_ops;
            appender.join().expect("appender")
        });
        append_max_us = append_max_us.max(slowest);
    }
    drop(delta);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path_for(&path)).ok();
    let (hold_p50, flush_p50) =
        (percentile(&mut hold_us, 0.5).unwrap(), percentile(&mut flush_us, 0.5).unwrap());
    println!(
        "appends during flush: slowest {append_max_us}us, {carried} carried over \
         {OVERLAP_FLUSHES} flushes; append mutex held p50 {hold_p50}us of a p50 {flush_p50}us flush"
    );
    (append_max_us, hold_p50, flush_p50)
}

/// Open file descriptors of this process, where `/proc` lists them.
fn open_fds() -> Option<i64> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count() as i64)
}

/// Resident set size of this process in kB, where `/proc` reports it.
fn rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Retired generations leave (module docs): generations alive, and the growth
/// of open descriptors and resident memory, over `RETENTION_FLUSHES`
/// flushes with a query between each and no cursor left open.
fn retention(full: &Relation, base_rel: &Relation) -> (u64, Option<i64>, Option<f64>) {
    let path = temp_path("retention");
    save_signature_cube(base_rel, Default::default(), &DiskSim::with_defaults(), &path);
    let opts = DeltaOptions { pool_pages: POOL, ..Default::default() };
    let delta = DeltaCube::open(&path, base_rel.clone(), opts).expect("open retention delta");
    let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(8);
    let (fds_before, rss_before) = (open_fds(), rss_kb());
    for flush in 0..RETENTION_FLUSHES {
        for i in 0..8 {
            let like = (BASE + (flush * 8 + i) % (TOTAL - BASE)) as Tid;
            delta.insert(&sel_of(full, like), &full.ranking_point(like)).expect("insert");
        }
        delta.source().open(&q.plan()).unwrap().try_drain().unwrap();
        assert_eq!(delta.flush().expect("retention flush").cold_opens, 0);
    }
    let retained = delta.stats().generations_retained;
    let fds = open_fds().zip(fds_before).map(|(after, before)| after - before);
    let rss =
        rss_kb().zip(rss_before).map(|(after, before)| (after - before) / RETENTION_FLUSHES as f64);
    drop(delta);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path_for(&path)).ok();
    println!(
        "retention: {retained} generation(s) alive after {RETENTION_FLUSHES} flushes; open fds \
         grew by {fds:?}, rss by {rss:?} kB per flush (None: no /proc)"
    );
    (retained, fds, rss)
}

fn main() {
    let full =
        SyntheticSpec { tuples: TOTAL, cardinality: CARDINALITY, ..Default::default() }.generate();
    let base_rel = full.prefix(BASE);
    let path = temp_path("live");
    save_signature_cube(&base_rel, Default::default(), &DiskSim::with_defaults(), &path);
    let metrics = Metrics::new();
    let delta = DeltaCube::open(
        &path,
        base_rel.clone(),
        DeltaOptions { pool_pages: POOL, metrics: metrics.clone(), ..Default::default() },
    )
    .expect("open delta");

    let mut appends_total = 0u64;
    let mut identity_checks = 0u64;
    let mut flush_us: Vec<u64> = Vec::new();
    let (mut cells_rewritten, mut path_updates, mut fold_ops) = (0u64, 0u64, 0u64);
    let (mut partials_rewritten, mut nodes_reencoded, mut cold_opens) = (0u64, 0u64, 0u64);
    let mut catalog = catalog_of(&path);
    // The WAL each flush leaves: with no appends during it, every byte of
    // it is what the flush wrote.
    let mut wal_written: Vec<u64> = Vec::new();
    let mut note_fold =
        |report: &FlushReport, delta: &DeltaCube, flush_us: &mut Vec<u64>, label: &str| {
            flush_us.push(report.duration.as_micros() as u64);
            wal_written.push(delta.stats().wal_bytes);
            cells_rewritten += report.cells_rewritten as u64;
            path_updates += report.path_updates as u64;
            fold_ops += report.applied_ops as u64;
            partials_rewritten += report.partials_rewritten as u64;
            nodes_reencoded += report.nodes_reencoded as u64;
            cold_opens += report.cold_opens;
            let after = catalog_of(&path);
            gate_node_granular(report, &catalog, &after, label);
            catalog = after;
        };
    let expected: RwLock<Vec<String>> = RwLock::new(Vec::new());
    let barrier = Barrier::new(READERS + 1);
    let inconsistent = AtomicU64::new(0);
    let pinned_answers = AtomicU64::new(0);
    let mut ingest_secs = 0.0f64;

    // Tid-exact identity on the insert-only checkpoints: the delta
    // allocates tids densely from the base length, so the merged view
    // must match a cube rebuilt over the longer prefix *including* tids.
    let verify_insert_checkpoint = |delta: &DeltaCube, upto: usize, label: &str| {
        let got = answers(delta);
        let want: Vec<String> =
            rebuilt_answers(&full.prefix(upto)).into_iter().map(|(f, _)| f).collect();
        assert_eq!(got, want, "{label}: merged view != rebuilt cube over prefix({upto})");
        got
    };

    std::thread::scope(|s| {
        for _ in 0..READERS {
            let (barrier, expected, inconsistent, pinned_answers) =
                (&barrier, &expected, &inconsistent, &pinned_answers);
            let delta = &delta;
            s.spawn(move || {
                for _round in 0..ROUNDS {
                    barrier.wait(); // A: state quiesced, expected published
                    let exp = expected.read().unwrap().clone();
                    // Pin one cursor per workload query and drain half.
                    // The queries outlive the cursors borrowing them.
                    let queries: Vec<(Query, usize)> = workload()
                        .into_iter()
                        .map(|(conds, k)| (Query::select(conds).rank(Linear::uniform(2)).top(k), k))
                        .collect();
                    let mut pins = Vec::new();
                    for (i, (q, k)) in queries.iter().enumerate() {
                        let mut cursor = delta.source().open(&q.plan()).unwrap();
                        let mut items: Vec<(Tid, f64)> = Vec::new();
                        for _ in 0..k / 2 {
                            if let Some(it) = cursor.try_next().unwrap() {
                                items.push(it);
                            }
                        }
                        pins.push((cursor, items, i));
                    }
                    barrier.wait(); // B: everyone pinned — writer starts mutating
                                    // Finish the drains *while* the ingest+flush cycle
                                    // runs: the cursor must answer its open-time state.
                    for (mut cursor, mut items, i) in pins {
                        while let Some(it) = cursor.try_next().unwrap() {
                            items.push(it);
                        }
                        if render(&items) != exp[i] {
                            inconsistent.fetch_add(1, Ordering::Relaxed);
                        }
                        pinned_answers.fetch_add(items.len() as u64, Ordering::Relaxed);
                    }
                    barrier.wait(); // C: round over
                }
            });
        }

        // Writer: publish the quiesced truth, let readers pin, then run
        // the cycle underneath them.
        for round in 0..ROUNDS {
            let upto = BASE + round * STEP;
            let exp = verify_insert_checkpoint(&delta, upto, &format!("checkpoint {round}"));
            identity_checks += 1;
            *expected.write().unwrap() = exp;
            barrier.wait(); // A
            barrier.wait(); // B
            let t = Instant::now();
            if round < CYCLES {
                for tid in upto as Tid..(upto + STEP) as Tid {
                    let got = delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
                    assert_eq!(got, tid, "dense tid allocation");
                    appends_total += 1;
                }
                let report = delta.flush().expect("cycle flush");
                ingest_secs += t.elapsed().as_secs_f64(); // the gates below are not ingest
                assert_eq!(report.applied_ops, STEP);
                let sels: Vec<Vec<u32>> =
                    (upto as Tid..(upto + STEP) as Tid).map(|t| sel_of(&full, t)).collect();
                gate_cell_granular(&report, STEP, &sels, &format!("insert round {round}"));
                note_fold(&report, &delta, &mut flush_us, &format!("insert round {round}"));
            } else {
                for &tid in &DELETED {
                    delta.delete(tid).unwrap();
                    appends_total += 1;
                }
                let report = delta.flush().expect("delete-round flush");
                ingest_secs += t.elapsed().as_secs_f64();
                assert_eq!(report.applied_ops, DELETED.len());
                let sels: Vec<Vec<u32>> = DELETED.iter().map(|&t| sel_of(&full, t)).collect();
                gate_cell_granular(&report, DELETED.len(), &sels, "delete round");
                note_fold(&report, &delta, &mut flush_us, "delete round");
            }
            barrier.wait(); // C
        }
    });
    let bad = inconsistent.load(Ordering::Relaxed);
    let ingest_ops = (CYCLES * STEP + DELETED.len()) as f64;
    let ingest_ops_per_sec = ingest_ops / ingest_secs.max(f64::MIN_POSITIVE);

    // Once deletes shift tids in the rebuild, identity moves to the score
    // bit patterns: the merged view against a cube rebuilt over the base
    // minus the deleted base tuples, plus `extra` tuples.
    let verify_scores = |delta: &DeltaCube, extra: &[(Tid, Vec<u32>, Vec<f64>)], label: &str| {
        let mut b = RelationBuilder::new(full.schema().clone());
        for t in (0..TOTAL as Tid).filter(|t| !DELETED.contains(t)) {
            b.push(&sel_of(&full, t), &full.ranking_point(t));
        }
        for (_, sel, point) in extra {
            b.push(sel, point);
        }
        let scores = |r: &String| {
            r.split(',').filter_map(|i| i.split(':').nth(1)).collect::<Vec<_>>().join(",")
        };
        let got: Vec<String> = answers(delta).iter().map(scores).collect();
        let want: Vec<String> = rebuilt_answers(&b.finish()).into_iter().map(|(_, s)| s).collect();
        assert_eq!(got, want, "{label}: merged view != rebuilt logical cube");
    };
    verify_scores(&delta, &[], "post-delete");
    identity_checks += 1;

    // Zipf-skewed mixed read/write stream against the quiesced delta:
    // the sustained ingest+serve shape, measured not gated.
    let mut gen = MixedWorkloadGen::new(MixedWorkloadParams {
        query: WorkloadParams { num_conditions: 2, num_ranking: 2, k: 8, skewness: 2.0, seed: 11 },
        value_skew: 1.1,
        insert_fraction: 0.25,
        delete_fraction: 0.05,
    });
    let mut live: Vec<(Tid, Vec<u32>, Vec<f64>)> = Vec::new();
    let mut deleted_delta: Vec<Tid> = Vec::new();
    let t = Instant::now();
    let (mut mixed_done, mut mixed_answers) = (0u64, 0u64);
    for op in gen.stream(&base_rel, MIXED_OPS) {
        match op {
            WorkloadOp::Insert { sel, point } => {
                let tid = delta.insert(&sel, &point).unwrap();
                live.push((tid, sel, point));
                appends_total += 1;
            }
            WorkloadOp::Delete { victim_rank } => {
                if victim_rank < live.len() {
                    let (tid, _, _) = live.remove(live.len() - 1 - victim_rank);
                    delta.delete(tid).unwrap();
                    deleted_delta.push(tid);
                    appends_total += 1;
                }
            }
            WorkloadOp::Query(spec) => {
                let q = query_of(&spec);
                mixed_answers +=
                    delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items.len() as u64;
            }
        }
        mixed_done += 1;
    }
    let mixed_ops_per_sec = mixed_done as f64 / t.elapsed().as_secs_f64();
    let report = delta.flush().expect("post-mixed flush");
    note_fold(&report, &delta, &mut flush_us, "post-mixed flush");

    // Mixed checkpoint: the surviving mixed inserts join the logical
    // relation.
    verify_scores(&delta, &live, "post-mixed");
    identity_checks += 1;

    // Exact replay accounting: a handful of un-flushed appends, then a
    // "crash" (drop) and reopen. The replay must recover precisely the
    // durable tail — counts and answers.
    const TAIL: u64 = 7;
    for i in 0..TAIL {
        let sel = vec![(i % CARDINALITY as u64) as u32; full.schema().num_selection()];
        delta.insert(&sel, &[0.3 + i as f64 * 0.01, 0.4]).unwrap();
        appends_total += 1;
    }
    let stats_before = delta.stats();
    let before = answers(&delta);
    let flushes_done = delta.flushes_completed();
    drop(delta);
    let reopened =
        DeltaCube::open(&path, base_rel.clone(), DeltaOptions::default()).expect("reopen");
    let replay = reopened.last_replay();
    assert_eq!(replay.pending, TAIL, "pending must equal appends since the last flush");
    assert_eq!(replay.records, TAIL, "the WAL holds nothing but what is pending");
    assert!(!replay.torn_tail, "clean shutdown must not classify as torn");
    assert_eq!(answers(&reopened), before, "reopen answers the pre-shutdown state");
    let replay_exact = true;

    // Obs instruments saw everything.
    assert_eq!(metrics.counter("delta.appends").get(), appends_total);
    assert_eq!(metrics.counter("delta.flushes").get(), flushes_done);
    assert_eq!(metrics.histogram("delta.flush_duration_us").count(), flushes_done);
    assert_eq!(metrics.counter("delta.flush.cells_rewritten").get(), cells_rewritten);
    assert_eq!(metrics.counter("delta.flush.path_updates").get(), path_updates);
    assert_eq!(metrics.counter("delta.flush.partials_rewritten").get(), partials_rewritten);
    assert_eq!(metrics.counter("delta.flush.nodes_reencoded").get(), nodes_reencoded);
    assert_eq!(metrics.counter("delta.flush.cold_opens").get(), cold_opens);
    for phase in ["open", "fold", "commit", "wal", "swap"] {
        let recorded = metrics.histogram(&format!("delta.flush.{phase}_us")).count();
        assert_eq!(recorded, flushes_done, "delta.flush.{phase}_us");
    }
    assert_eq!(cold_opens, 0, "the catalog DeltaCube::open parsed served every flush");
    assert_eq!(stats_before.cold_opens, 0);

    // --- Hard deterministic gates ---------------------------------------
    assert_eq!(bad, 0, "a pinned reader observed an answer from a foreign state mid-cycle");
    let wal_per_flush = *wal_written.last().expect("flushes ran");
    assert_eq!(
        wal_written.first(),
        Some(&wal_per_flush),
        "WAL bytes a flush writes must not grow with the live delta tuples: {wal_written:?}"
    );
    assert_eq!(identity_checks, ROUNDS as u64 + 2);

    let mean_flush_us = flush_us.iter().sum::<u64>() as f64 / flush_us.len().max(1) as f64;
    println!(
        "delta: {READERS} pinned readers, {ROUNDS} ingest→flush→swap rounds, {bad} inconsistent \
         of {} pinned answers; {identity_checks} byte-identity checkpoints; ingest \
         {ingest_ops_per_sec:.0} ops/s, mixed {mixed_ops_per_sec:.0} ops/s ({mixed_answers} \
         answers), mean flush {mean_flush_us:.0}us; replay {} records exact; {wal_per_flush} WAL \
         bytes written per flush",
        pinned_answers.load(Ordering::Relaxed),
        replay.records,
    );

    let chill = chill_block(&full, &base_rel);
    let (append_max_us, hold_p50, flush_p50) = appends_during_flush(&full, &base_rel);
    let hold_share = hold_p50 as f64 / flush_p50.max(1) as f64;
    let (retained, fds_grown, rss_per_flush) = retention(&full, &base_rel);
    assert_eq!(retained, 1, "a generation outlived the flush that retired it");
    if let Some(grown) = fds_grown {
        assert!(grown <= 1, "{grown} file descriptors left open by {RETENTION_FLUSHES} flushes");
    }

    // --- BENCH_delta.json ------------------------------------------------
    let per_flush = |n: u64| fixed(n as f64 / flushes_done.max(1) as f64, 1);
    let mut report = BenchReport::new("delta");
    report
        .set("readers", READERS)
        .set("cycles", ROUNDS)
        .set("mixed_ops", MIXED_OPS)
        .set("inconsistent_answers", bad)
        .set("pinned_answers", pinned_answers.load(Ordering::Relaxed))
        .set("byte_identity_checkpoints", identity_checks)
        .set("identity_mismatches", 0u64)
        .set("replay_records", replay.records)
        .set("replay_pending", replay.pending)
        .set("wal_bytes_written_per_flush", wal_per_flush)
        .set("replay_exact", replay_exact)
        .set("torn_tail", replay.torn_tail)
        .set("appends_total", appends_total)
        .set("flushes", flushes_done)
        .set("fold_ops", fold_ops)
        .set("path_updates", path_updates)
        .set("cells_rewritten", cells_rewritten)
        .set("cells_rewritten_per_flush", per_flush(cells_rewritten))
        .set("partials_rewritten_per_flush", per_flush(partials_rewritten))
        .set("nodes_reencoded_per_flush", per_flush(nodes_reencoded))
        .set("cold_opens", cold_opens)
        .set("chill", chill)
        .set("ingest_ops_per_sec_before", fixed(BEFORE_INGEST_OPS_PER_SEC, 1))
        .set("ingest_ops_per_sec", fixed(ingest_ops_per_sec, 1))
        .set("mixed_ops_per_sec", fixed(mixed_ops_per_sec, 1))
        .set("flush_duration_us_mean_before", fixed(BEFORE_FLUSH_US_MEAN, 0))
        .set("flush_duration_us_mean", fixed(mean_flush_us, 0))
        .set("append_max_us_during_flush", append_max_us)
        .set("writer_hold_us_p50", hold_p50)
        .set("writer_hold_over_flush_p50", fixed(hold_share, 3))
        .set("generations_retained_after_flushes", retained)
        .set("open_fds_delta_over_64_flushes", fds_grown.map_or(Json::Raw("null"), Json::from))
        .set("rss_kb_per_flush", fixed(rss_per_flush.unwrap_or(f64::NAN), 1));
    report.counter_gate(
        "wal_bytes_written_per_flush",
        "== at the first flush",
        "independent of live delta tuples",
    );
    report.clock_gate(
        "writer_hold_over_flush_p50",
        hold_share,
        Bound::Max(WRITER_HOLD_SHARE_MAX),
        None,
    );
    report.counter_gate(
        "generations_retained_after_flushes",
        "== 1",
        "a generation nobody reads leaves with the flush that retires it",
    );
    if fds_grown.is_some() {
        report.counter_gate(
            "open_fds_delta_over_64_flushes",
            "<= 1",
            "a retired generation closes its file descriptor",
        );
    }
    if let Some(rss) = rss_per_flush {
        report.clock_gate("rss_kb_per_flush", rss, Bound::Max(RSS_KB_PER_FLUSH_MAX), None);
    }
    report.write();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(wal_path_for(&path)).ok();
}
