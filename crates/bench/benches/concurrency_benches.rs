//! Concurrent serving benchmarks: 1/2/4/8 query threads hammering one
//! shared file-backed cube pair (grid + signature) through the
//! positional-read file backend, the sharded buffer pool and the shared
//! cross-query node cache.
//!
//! The run writes `BENCH_concurrency.json` at the workspace root with two
//! gate families:
//!
//! * **Throughput scaling** (wall-clock): aggregate queries/sec at 1, 2,
//!   4 and 8 threads, each the best of five interleaved rounds. The
//!   2-thread gate (`SCALING_2T_MIN`) is a clock gate with a floor of 2
//!   hardware threads; the 4-thread target (≥ 2.5× single-thread) is
//!   recorded and never enforced — no box this repo has been measured on
//!   has four cores.
//! * **Deterministic decode counters** (always hard): a repeated
//!   signature workload with the shared node cache must decode *strictly
//!   fewer* nodes than the same workload limited to PR 3's per-query
//!   memo, with byte-identical answers and `shared_node_hits > 0`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rcube_bench::{fixed, BenchReport, Bound, Json, Obj};
use rcube_core::query::{Query, RankedSource};
use rcube_core::sigcube::{SignatureCube, SignatureCubeConfig};
use rcube_core::{GridCubeConfig, GridRankingCube};
use rcube_func::Linear;
use rcube_index::rtree::{RTree, RTreeConfig};
use rcube_storage::DiskSim;
use rcube_table::gen::SyntheticSpec;

struct Setup {
    grid_file: GridRankingCube,
    sig_file: SignatureCube,
    sig_rtree: RTree,
    paths: Vec<std::path::PathBuf>,
}

fn setup() -> Setup {
    let rel =
        SyntheticSpec { tuples: 20_000, cardinality: 5, ranking_dims: 3, ..Default::default() }
            .generate();
    let disk = DiskSim::with_defaults();

    let grid_path = rcube_bench::temp_path("conc", "grid");
    let grid_mem = GridRankingCube::build(
        &rel,
        &disk,
        GridCubeConfig { block_size: 300, ..Default::default() },
    );
    grid_mem.save_to(&grid_path).expect("save grid cube");
    let grid_file = GridRankingCube::open_from(&grid_path).expect("reopen grid cube");

    let sig_path = rcube_bench::temp_path("conc", "sig");
    let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(16));
    let sig_mem = SignatureCube::build(
        &rel,
        &rtree,
        &disk,
        SignatureCubeConfig { alpha: 0.02, ..Default::default() },
    );
    sig_mem.save_to(&rtree, &sig_path).expect("save signature cube");
    let (sig_file, sig_rtree) = SignatureCube::open_from(&sig_path).expect("reopen sig cube");

    Setup { grid_file, sig_file, sig_rtree, paths: vec![grid_path, sig_path] }
}

fn grid_workload() -> Vec<(Vec<(usize, u32)>, usize)> {
    vec![(vec![(0, 1)], 10), (vec![(0, 2), (1, 3)], 10), (vec![(1, 1), (2, 2)], 5)]
}

fn sig_workload() -> Vec<(Vec<(usize, u32)>, usize)> {
    vec![(vec![(0, 1), (1, 2)], 10), (vec![(0, 0), (1, 1), (2, 2)], 5), (vec![(2, 3)], 10)]
}

/// One full pass of the mixed workload; returns queries executed.
fn run_workload_once(s: &Setup, disk: &DiskSim) -> u64 {
    let mut n = 0u64;
    for (conds, k) in grid_workload() {
        let q = Query::select(conds).rank(Linear::uniform(2)).top(k);
        std::hint::black_box(s.grid_file.source(disk).query(&q.plan()).unwrap());
        n += 1;
    }
    for (conds, k) in sig_workload() {
        let q = Query::select(conds).rank(Linear::uniform(3)).top(k);
        std::hint::black_box(s.sig_file.source(&s.sig_rtree, disk).query(&q.plan()).unwrap());
        n += 1;
    }
    n
}

/// Hammers the shared cubes from `threads` workers for `window`, each with
/// its own metering device, and returns aggregate queries/sec.
fn measure_qps(s: &Setup, threads: usize, window: Duration) -> f64 {
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (stop, total) = (&stop, &total);
            scope.spawn(move || {
                let disk = DiskSim::with_defaults();
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    n += run_workload_once(s, &disk);
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = start.elapsed().as_secs_f64();
    total.load(Ordering::Relaxed) as f64 / elapsed
}

/// The deterministic counter gate: the repeated signature workload summed
/// over `rounds`, with the shared cache vs per-query memo only.
fn repeat_decode_counters(path: &std::path::Path, rounds: usize) -> (u64, u64, u64) {
    let (cached, rtree_a) = SignatureCube::open_from(path).expect("open cache-on");
    let (mut memo_only, rtree_b) = SignatureCube::open_from(path).expect("open cache-off");
    memo_only.set_node_cache_budget(0);
    let disk_a = DiskSim::with_defaults();
    let disk_b = DiskSim::with_defaults();
    let (mut with_cache, mut without_cache, mut shared_hits) = (0u64, 0u64, 0u64);
    for _ in 0..rounds {
        for (conds, k) in sig_workload() {
            let q = Query::select(conds.clone()).rank(Linear::uniform(3)).top(k);
            let a = cached.source(&rtree_a, &disk_a).query(&q.plan()).unwrap();
            let q = Query::select(conds).rank(Linear::uniform(3)).top(k);
            let b = memo_only.source(&rtree_b, &disk_b).query(&q.plan()).unwrap();
            assert_eq!(a.items, b.items, "shared cache changed an answer");
            with_cache += a.stats.sig_nodes_decoded;
            without_cache += b.stats.sig_nodes_decoded;
            shared_hits += a.stats.shared_node_hits;
            assert_eq!(b.stats.shared_node_hits, 0, "disabled cache must never hit");
        }
    }
    (with_cache, without_cache, shared_hits)
}

/// The 2-thread bar: the lowest of five runs on the 2-core box (1.30,
/// 1.31, 1.36, 1.38, 1.41) minus 10 %; the commit before thread-striped
/// meters and relink-free cache hits read 1.03–1.07 by the same method.
/// Half the workload is signature queries, whose shared node cache
/// (`RwLock` word, `Arc` refcounts) is the queue that is left.
const SCALING_2T_MIN: f64 = 1.17;

/// What this emitter read at the parent of the commit that set the 2-thread
/// bar.
const BEFORE: &str = r#"{ "commit": "PR 21 (e806c39)", "method": "one 400 ms window per thread count, as committed", "t1": 18414.2, "t2": 21862.6, "scaling_2t_vs_1t": 1.19, "scaling_4t_vs_1t": 1.17, "best_of_5_rounds": { "t1": 20641, "t2": 22189, "scaling_2t_vs_1t": 1.07 } }"#;

fn main() {
    let mut report = BenchReport::new("concurrency");
    let s = setup();

    // --- Deterministic counters (hard gate, no wall clock involved) -----
    let (with_cache, without_cache, shared_hits) = repeat_decode_counters(&s.paths[1], 5);
    println!(
        "concurrency: repeated workload nodes_decoded {with_cache} (shared cache) vs \
         {without_cache} (per-query memo), {shared_hits} shared hits"
    );
    assert!(
        with_cache < without_cache,
        "warm shared-cache serving must decode strictly fewer nodes \
         ({with_cache} vs {without_cache})"
    );
    assert!(shared_hits > 0, "repeat workload must register shared node hits");

    // --- Thread-scaling throughput --------------------------------------
    // Warm the pools and the node cache once so every thread count starts
    // from the same serving state.
    let disk = DiskSim::with_defaults();
    run_workload_once(&s, &disk);
    let window = Duration::from_millis(300);
    let thread_counts = [1usize, 2, 4, 8];
    // Rounds interleave the thread counts, so a noisy stretch of the box
    // lands on all of them, and the best round stands for each: what
    // shares the machine only ever slows a round down.
    let mut qps = vec![0f64; thread_counts.len()];
    for _ in 0..5 {
        for (best, &t) in qps.iter_mut().zip(&thread_counts) {
            *best = best.max(measure_qps(&s, t, window));
        }
    }
    for (v, t) in qps.iter().zip(&thread_counts) {
        println!("concurrency: {t:>2} threads -> {v:>10.0} queries/sec aggregate");
    }
    let scaling_2t = qps[1] / qps[0].max(f64::MIN_POSITIVE);
    let scaling_4t = qps[2] / qps[0].max(f64::MIN_POSITIVE);
    report.clock_gate("scaling_2t_vs_1t", scaling_2t, Bound::Min(SCALING_2T_MIN), Some(2));
    report.clock_gate("scaling_4t_vs_1t", scaling_4t, Bound::Min(2.5), None);

    // --- Cache effectiveness (the pool_stats / node-cache snapshots) ----
    let pool = s.grid_file.pool_stats().expect("file-backed grid cube has a pool");
    println!(
        "concurrency: grid pool {} shards, {}/{} pages, hit rate {:.3}, {} evictions",
        pool.shards.len(),
        pool.used_pages(),
        pool.capacity_pages(),
        pool.hit_rate(),
        pool.evictions()
    );
    for (i, sh) in pool.shards.iter().enumerate() {
        println!(
            "  shard {i}: {}/{} pages, {} frames, {} hits / {} misses",
            sh.used_pages, sh.capacity_pages, sh.frames, sh.hits, sh.misses
        );
    }
    let sig_pool = s.sig_file.pool_stats().expect("file-backed sig cube has a pool");
    let nc = s.sig_file.node_cache().stats();
    println!(
        "concurrency: sig pool hit rate {:.3}; node cache {} entries / {} bytes, \
         {} hits / {} misses / {} evictions",
        sig_pool.hit_rate(),
        nc.entries,
        nc.bytes,
        nc.hits,
        nc.misses,
        nc.evictions
    );
    assert!(pool.hits() > 0, "hammering must hit the sharded pool");

    // --- BENCH_concurrency.json -----------------------------------------
    let aggregate_qps = thread_counts
        .iter()
        .zip(&qps)
        .fold(Obj::lines(), |o, (t, v)| o.with(format!("t{t}"), fixed(*v, 1)));
    let repeat_workload = Obj::new()
        .with("nodes_decoded_shared_cache", with_cache)
        .with("nodes_decoded_memo_only", without_cache)
        .with("shared_node_hits", shared_hits)
        .with("decode_reduction", fixed(without_cache as f64 / with_cache.max(1) as f64, 2));
    let grid_pool = Obj::new()
        .with("shards", pool.shards.len())
        .with("capacity_pages", pool.capacity_pages())
        .with("used_pages", pool.used_pages())
        .with("hit_rate", fixed(pool.hit_rate(), 3))
        .with("evictions", pool.evictions());
    let sig_node_cache = Obj::new()
        .with("entries", nc.entries)
        .with("bytes", nc.bytes)
        .with("hits", nc.hits)
        .with("misses", nc.misses)
        .with("evictions", nc.evictions);
    report
        .set("aggregate_qps", aggregate_qps)
        .set("scaling_2t_vs_1t", fixed(scaling_2t, 2))
        .set("scaling_4t_vs_1t", fixed(scaling_4t, 2))
        .set("before", Json::Raw(BEFORE))
        .set("counters_repeat_workload", repeat_workload)
        .set("grid_pool", grid_pool)
        .set("sig_node_cache", sig_node_cache);
    report.write();

    for p in &s.paths {
        std::fs::remove_file(p).ok();
    }
}
