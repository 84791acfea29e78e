//! Live-vacuum maintenance benchmark: reader threads pinned on the
//! generation they opened keep streaming top-k answers while the
//! maintenance path runs whole compact-and-swap cycles — COW patch
//! commit, vacuum into a sibling temp file, atomic rename-over publish —
//! against the same cube file.
//!
//! The run writes `BENCH_maintenance.json` at the workspace root with two
//! gate families:
//!
//! * **Deterministic (always hard):** every answer any pinned reader
//!   produces during the vacuum storm is byte-identical to its opened
//!   generation (`inconsistent_answers` must be exactly zero); every
//!   cycle reclaims pages (`pages_reclaimed_total > 0`) and ends with a
//!   clean, zero-retired compacted file; the final file answers
//!   byte-identically to a serial maintain-only twin (vacuum is
//!   answer-neutral); and the obs instruments (vacuum counter, duration
//!   histogram, lock-contention counter) saw every cycle.
//! * **Clock:** reader throughput during the vacuum storm must hold at
//!   least 0.8x the steady-state throughput measured on the same pinned
//!   handles just before — compaction is a background maintenance task,
//!   not a stop-the-world event.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ranking_cube::cube::query::RankedSource;
use ranking_cube::cube::scheduler::vacuum_into_place;
use ranking_cube::cube::sigcube::{SignatureCube, SignatureCubeConfig};
use ranking_cube::obs::Metrics;
use ranking_cube::storage::{DiskSim, FileBackend, PageStore};
use ranking_cube::table::gen::SyntheticSpec;
use rcube_bench::{
    answers, fixed, maintain_and_commit, reader_queries, render, save_signature_cube, BenchReport,
    Bound,
};

const POOL: usize = 4096;
const READERS: usize = 4;
/// High cardinality keeps each maintenance batch patching a fraction of
/// the cells, so every cycle retires pages without rewriting the file.
const CARDINALITY: u32 = 32;
const BASE: usize = 9_850;
const TOTAL: usize = 10_000;
/// Full maintain-commit-vacuum-swap cycles run during the storm window.
const CYCLES: usize = 3;
/// Reader phases, indexed by the `phase` atomic.
const PHASE_STEADY: u64 = 0;
const PHASE_STORM: u64 = 1;
const PHASE_DONE: u64 = 2;

fn main() {
    let rel =
        SyntheticSpec { tuples: TOTAL, cardinality: CARDINALITY, ..Default::default() }.generate();
    let base_rel = rel.prefix(BASE);
    let disk = DiskSim::with_defaults();
    let live_path = rcube_bench::temp_path("maint", "live");
    let sig_config = SignatureCubeConfig { alpha: 0.05, ..Default::default() };
    save_signature_cube(&base_rel, sig_config, &disk, &live_path);

    // Every maintenance round opens, and drops, a writable handle and its
    // writer lock.
    let writable = |p: &_| PageStore::open_file_writable(p, POOL).expect("open writable");

    // Serial maintain-only twin: the deterministic reference the
    // vacuumed file must answer identically to — proving every swap was
    // answer-neutral.
    let twin_path = rcube_bench::temp_path("maint", "twin");
    std::fs::copy(&live_path, &twin_path).expect("copy base file");
    let step = (TOTAL - BASE) / CYCLES;
    for c in 0..CYCLES {
        let from = BASE + c * step;
        maintain_and_commit(writable(&twin_path), &rel, from, from + step);
    }
    let ans_twin = {
        let (cube, rtree) = SignatureCube::open_from_with(&twin_path, POOL).expect("twin open");
        answers(&cube, &rtree, &disk)
    };
    std::fs::remove_file(&twin_path).ok();

    let (ans_a, gen_a) = {
        let (cube, rtree) = SignatureCube::open_from_with(&live_path, POOL).expect("open");
        (answers(&cube, &rtree, &disk), cube.store().generation().unwrap())
    };

    let metrics = Metrics::new();
    let phase = AtomicU64::new(PHASE_STEADY);
    let queries_steady = AtomicU64::new(0);
    let queries_storm = AtomicU64::new(0);
    let inconsistent = AtomicU64::new(0);
    let mut reclaimed_total = 0u64;
    let mut vacuum_us: Vec<u64> = Vec::new();
    let (mut steady_secs, mut storm_secs) = (0.0f64, 0.0f64);

    std::thread::scope(|s| {
        for _ in 0..READERS {
            let (phase, queries_steady, queries_storm, inconsistent) =
                (&phase, &queries_steady, &queries_storm, &inconsistent);
            let (live_path, ans_a) = (&live_path, &ans_a);
            s.spawn(move || {
                // Pinned once, before any maintenance: this handle rides
                // the old inode through every rename underneath it.
                let (cube, rtree) =
                    SignatureCube::open_from_with(live_path, 256).expect("reader open");
                assert_eq!(cube.store().generation(), Some(gen_a), "reader must pin base gen");
                let disk = DiskSim::with_defaults();
                let workload = reader_queries();
                loop {
                    let ph = phase.load(Ordering::Acquire);
                    if ph == PHASE_DONE {
                        break;
                    }
                    for (q, want) in workload.iter().zip(ans_a) {
                        let got =
                            render(&cube.source(&rtree, &disk).query(&q.plan()).unwrap().items);
                        if got != *want {
                            inconsistent.fetch_add(1, Ordering::Relaxed);
                        }
                        let counter =
                            if ph == PHASE_STEADY { queries_steady } else { queries_storm };
                        counter.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        // Steady-state window: pinned readers, no maintenance running.
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_millis(400));
        steady_secs = t0.elapsed().as_secs_f64();
        phase.store(PHASE_STORM, Ordering::Release);

        // Storm window: full maintain + commit + vacuum + swap cycles.
        let t1 = Instant::now();
        for c in 0..CYCLES {
            let from = BASE + c * step;
            maintain_and_commit(writable(&live_path), &rel, from, from + step);
            let report = vacuum_into_place(&live_path, &metrics, None).expect("live vacuum cycle");
            assert!(report.reclaimed_pages > 0, "cycle {c} reclaimed nothing");
            reclaimed_total += report.reclaimed_pages;
            vacuum_us.push(report.duration.as_micros() as u64);
            std::thread::sleep(Duration::from_millis(40));
        }
        storm_secs = t1.elapsed().as_secs_f64();
        phase.store(PHASE_DONE, Ordering::Release);
    });

    let qps_steady = queries_steady.load(Ordering::Relaxed) as f64 / steady_secs;
    let qps_storm = queries_storm.load(Ordering::Relaxed) as f64 / storm_secs;
    let ratio = qps_storm / qps_steady.max(f64::MIN_POSITIVE);
    let bad = inconsistent.load(Ordering::Relaxed);
    let mean_vacuum_us = vacuum_us.iter().sum::<u64>() as f64 / vacuum_us.len().max(1) as f64;
    println!(
        "maintenance: {READERS} pinned readers {qps_steady:.0} qps steady vs {qps_storm:.0} qps \
         during {CYCLES} vacuum cycles (ratio {ratio:.2}, {reclaimed_total} pages reclaimed, \
         mean vacuum {mean_vacuum_us:.0}us, {bad} inconsistent answers)"
    );

    // --- Hard deterministic gates ---------------------------------------
    assert_eq!(bad, 0, "a pinned reader observed bytes from a foreign generation mid-swap");
    assert!(reclaimed_total > 0, "the vacuum cycles must reclaim pages");
    let sb = FileBackend::peek_superblock(&live_path).expect("peek compacted file");
    assert_eq!(sb.retired_pages, 0, "the final compacted file must carry no retired pages");
    {
        let (cube, rtree) = SignatureCube::open_from_with(&live_path, POOL).expect("final open");
        cube.verify_integrity().expect("final compacted file verifies clean");
        let ans_final = answers(&cube, &rtree, &disk);
        assert_eq!(ans_final, ans_twin, "vacuum cycles must be answer-neutral");
        assert_ne!(ans_final, ans_a, "maintenance must have changed some answer");
    }
    assert_eq!(metrics.counter("maintenance.vacuums").get(), CYCLES as u64);
    assert_eq!(metrics.counter("maintenance.pages_reclaimed").get(), reclaimed_total);
    assert_eq!(metrics.histogram("maintenance.vacuum_duration_us").count(), CYCLES as u64);
    assert_eq!(metrics.counter("maintenance.lock_contention").get(), 0);

    // --- BENCH_maintenance.json -----------------------------------------
    let mut report = BenchReport::new("maintenance");
    report
        .set("readers", READERS)
        .set("vacuum_cycles", CYCLES)
        .set("reader_qps_steady", fixed(qps_steady, 1))
        .set("reader_qps_during_vacuum", fixed(qps_storm, 1))
        .set("qps_ratio", fixed(ratio, 3))
        .set("inconsistent_answers", bad)
        .set("pages_reclaimed_total", reclaimed_total)
        .set("vacuum_duration_us_mean", fixed(mean_vacuum_us, 0))
        .set("lock_contention", metrics.counter("maintenance.lock_contention").get());
    // Readers must not stall during the storm: each of the READERS needs a
    // hardware thread of its own, and the maintenance path one more.
    report.clock_gate("qps_ratio", ratio, Bound::Min(0.8), Some(READERS + 1));
    report.write();
    std::fs::remove_file(&live_path).ok();
}
