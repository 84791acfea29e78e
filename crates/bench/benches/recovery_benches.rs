//! Serving-under-writes benchmark: eight reader threads pinned on the
//! generation they opened stream top-k answers while a writer publishes
//! generational patch commits against the same cube file.
//!
//! The run writes `BENCH_recovery.json` at the workspace root with two
//! gate families:
//!
//! * **Consistency (always hard):** every answer any reader produces
//!   during the commit storm must be byte-identical to its pinned
//!   generation — `inconsistent_answers` must be exactly zero — and the
//!   file must elect the final generation clean afterwards.
//! * **Patch-commit write volume (always hard):** publishing an
//!   incremental maintenance round as a COW patch commit must write
//!   *strictly fewer* pages than rematerializing the cube from scratch
//!   (`pages_written` counted at the raw page-I/O boundary of the
//!   file backend).
//!
//! Reader throughput and tail latency during the commits are recorded in
//! the JSON for trend tracking; they are wall-clock numbers and carry no
//! gate.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rcube_bench::{
    answers, fixed, maintain_and_commit, percentile, reader_queries, render, save_signature_cube,
    BenchReport, Obj,
};
use rcube_core::query::RankedSource;
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_storage::{DiskSim, FileBackend, PageStore};
use rcube_table::gen::SyntheticSpec;

const PAGE: usize = 4096;
const POOL: usize = 4096;
const READERS: usize = 8;
/// Cardinality 32 gives 96 single-dim cells, so a small insert batch
/// patches a *fraction* of the materialization — the regime patch-level
/// COW exists for (with 4 coarse cells per dim every batch would touch
/// everything and a patch commit would degenerate to a rewrite).
const CARDINALITY: u32 = 32;
const BASE: usize = 9_960;
const TOTAL: usize = 10_000;
const ROUNDS: usize = 5;
const CONFIG: SignatureCubeConfig = SignatureCubeConfig { alpha: 0.05, cuboids: None };

/// Opens the cube file writable over a *typed* backend handle, so the
/// raw `pages_written` counter stays readable next to the store.
fn open_writable_counted(path: &Path) -> (Arc<FileBackend>, PageStore) {
    let fb = Arc::new(FileBackend::open_writable(path, POOL).expect("open writable"));
    let store = PageStore::with_backend(Arc::clone(&fb) as _);
    (fb, store)
}

fn main() {
    let rel =
        SyntheticSpec { tuples: TOTAL, cardinality: CARDINALITY, ..Default::default() }.generate();
    let base_rel = rel.prefix(BASE);
    let disk = DiskSim::with_defaults();
    let base_path = rcube_bench::temp_path("recovery", "base");
    save_signature_cube(&base_rel, CONFIG, &disk, &base_path);

    // --- Patch commit vs full rematerialize (hard counter gate) ---------
    // One maintenance batch (the first ROUNDS-th of the delta) published
    // as a COW patch commit, page writes counted at the raw I/O boundary.
    let step = (TOTAL - BASE) / ROUNDS;
    let patch_path = rcube_bench::temp_path("recovery", "patch");
    std::fs::copy(&base_path, &patch_path).expect("copy base file");
    let (patch_fb, patch_store) = open_writable_counted(&patch_path);
    maintain_and_commit(patch_store, &rel, BASE, BASE + step);
    let pages_patch = patch_fb.pages_written();
    let reclaimable = patch_fb.reclaimable_pages();
    drop(patch_fb);
    let (patch_cube, _) = SignatureCube::open_from_with(&patch_path, POOL).expect("open");
    patch_cube.verify_integrity().expect("patched cube verifies");
    drop(patch_cube);

    // Rematerializing the same post-patch state from scratch: every
    // partial plus the catalog goes through the page-write path.
    let gate_rel = rel.prefix(BASE + step);
    let full_path = rcube_bench::temp_path("recovery", "full");
    let mut full_rtree = RTree::over_relation(&disk, &gate_rel, &[], RTreeConfig::small(16));
    let full_fb = Arc::new(FileBackend::create(&full_path, PAGE, POOL).expect("create"));
    let full_store = PageStore::with_backend(Arc::clone(&full_fb) as _);
    let mut full_cube = SignatureCube::build_in(&gate_rel, &full_rtree, &disk, CONFIG, full_store)
        .expect("build into the file");
    full_cube.commit(&mut full_rtree).expect("full commit");
    let pages_full = full_fb.pages_written();
    drop((full_cube, full_fb));

    println!(
        "recovery: patch commit wrote {pages_patch} pages vs {pages_full} full rematerialize \
         ({reclaimable} pages left for vacuum)"
    );
    assert!(
        pages_patch < pages_full,
        "a COW patch commit must write strictly fewer pages than a full rematerialize \
         ({pages_patch} vs {pages_full})"
    );

    // --- Eight pinned readers racing a committing writer ----------------
    // Serial twin of the commit storm first: the deterministic reference
    // for the answers the raced file must converge to.
    let twin_path = rcube_bench::temp_path("recovery", "twin");
    std::fs::copy(&base_path, &twin_path).expect("copy base file");
    for r in 0..ROUNDS {
        let (_fb, store) = open_writable_counted(&twin_path);
        let from = BASE + r * step;
        maintain_and_commit(store, &rel, from, from + step);
    }
    let ans_twin = {
        let (cube, rtree) = SignatureCube::open_from_with(&twin_path, POOL).expect("twin open");
        answers(&cube, &rtree, &disk)
    };

    let race_path = rcube_bench::temp_path("recovery", "race");
    std::fs::copy(&base_path, &race_path).expect("copy base file");
    let (ans_a, gen_a) = {
        let (cube, rtree) = SignatureCube::open_from_with(&race_path, POOL).expect("open");
        (answers(&cube, &rtree, &disk), cube.store().generation().unwrap())
    };

    let done = AtomicBool::new(false);
    // Readers pin the base generation before the first commit lands: a
    // patch commit is quicker than eight thread starts and opens.
    let pinned = std::sync::Barrier::new(READERS + 1);
    let inconsistent = AtomicU64::new(0);
    let queries = AtomicU64::new(0);
    let mut latencies: Vec<u64> = Vec::new();
    let started = Instant::now();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..READERS {
            let (done, inconsistent, queries) = (&done, &inconsistent, &queries);
            let (race_path, ans_a, pinned) = (&race_path, &ans_a, &pinned);
            handles.push(s.spawn(move || {
                let opened = SignatureCube::open_from_with(race_path, 256);
                pinned.wait();
                let (cube, rtree) = opened.expect("reader open");
                assert_eq!(cube.store().generation(), Some(gen_a), "reader must pin base gen");
                let disk = DiskSim::with_defaults();
                let workload = reader_queries();
                let mut local = Vec::new();
                while !done.load(Ordering::Acquire) {
                    for (q, want) in workload.iter().zip(ans_a) {
                        let t0 = Instant::now();
                        let got =
                            render(&cube.source(&rtree, &disk).query(&q.plan()).unwrap().items);
                        local.push(t0.elapsed().as_nanos() as u64);
                        queries.fetch_add(1, Ordering::Relaxed);
                        if got != *want {
                            inconsistent.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                local
            }));
        }
        // Writer: publish ROUNDS patch commits spaced across the window,
        // so readers overlap every phase of a commit.
        pinned.wait();
        for r in 0..ROUNDS {
            let (_fb, store) = open_writable_counted(&race_path);
            let from = BASE + r * step;
            maintain_and_commit(store, &rel, from, from + step);
            std::thread::sleep(Duration::from_millis(60));
        }
        done.store(true, Ordering::Release);
        for h in handles {
            latencies.extend(h.join().expect("reader thread"));
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    let total_queries = queries.load(Ordering::Relaxed);
    let bad = inconsistent.load(Ordering::Relaxed);
    let qps = total_queries as f64 / elapsed;
    let mut latency_us = |q| percentile(&mut latencies, q).map_or(0.0, |ns| ns as f64 / 1e3);
    let (p50, p99) = (latency_us(0.50), latency_us(0.99));
    println!(
        "recovery: {READERS} pinned readers sustained {qps:.0} queries/sec during {ROUNDS} \
         commits (p50 {p50:.1}us, p99 {p99:.1}us, {bad} inconsistent answers)"
    );
    assert_eq!(bad, 0, "a pinned reader observed bytes from a foreign generation");

    // The storm must have actually published every generation, and the
    // final file answers like the single-shot patched one.
    let (cube, rtree) = SignatureCube::open_from_with(&race_path, POOL).expect("final open");
    assert_eq!(cube.store().generation(), Some(gen_a + ROUNDS as u64));
    cube.verify_integrity().expect("final generation verifies");
    assert_eq!(
        answers(&cube, &rtree, &disk),
        ans_twin,
        "the raced commit storm must converge to the serial twin's answers"
    );
    drop((cube, rtree));

    // --- BENCH_recovery.json --------------------------------------------
    let mut report = BenchReport::new("recovery");
    report
        .set("readers", READERS)
        .set("commits_during_window", ROUNDS)
        .set("reader_qps", fixed(qps, 1))
        .set("latency_us", Obj::new().with("p50", fixed(p50, 1)).with("p99", fixed(p99, 1)))
        .set("inconsistent_answers", bad)
        .set("pages_patch_commit", pages_patch)
        .set("pages_full_rematerialize", pages_full)
        .set("write_reduction", fixed(pages_full as f64 / pages_patch.max(1) as f64, 2))
        .set("reclaimable_after_patch", reclaimable);
    report.write();

    for p in [&base_path, &patch_path, &full_path, &twin_path, &race_path] {
        std::fs::remove_file(p).ok();
    }
}
