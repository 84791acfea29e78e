//! Observability overhead + correctness gates.
//!
//! Two engines serve the *same* seeded relation and the *same* mixed
//! workload: one fully instrumented (per-engine metric registry, the
//! default), one with [`Metrics::disabled`] so every instrument is a
//! no-op handle. The run writes `BENCH_observability.json` at the
//! workspace root and enforces three gates:
//!
//! * **answers_identical** (hard, deterministic): the instrumented and
//!   uninstrumented engines return byte-identical answers — same tids,
//!   same scores down to the f64 bit pattern. Instrumentation must
//!   never perturb the result.
//! * **counter_parity** (hard, deterministic): the registry's per-route
//!   query counters and histogram sums, over every route in `Route::ALL`,
//!   reconcile exactly with the `QueryStats` the cursors themselves
//!   reported (`query.<r>.count` totals the queries;
//!   `query.<r>.blocks_read` / `.tuples_scored` histogram sums equal the
//!   accumulated per-query stats).
//! * **overhead_pct ≤ 5** (wall-clock): the instrumented engine's
//!   workload time stays within 5% of the uninstrumented one, a clock
//!   gate under the rule of `rcube_bench::report`. Each round times both
//!   engines back to back, in alternating order, over enough repetitions
//!   of the workload to last [`MIN_ROUND`]; the score is the median of the
//!   rounds' instrumented / bare ratios, so a slow spell of the machine
//!   lands on both sides of a ratio instead of on one engine.

use std::time::{Duration, Instant};

use ranking_cube::obs::Metrics;
use ranking_cube::prelude::*;
use rcube_bench::{fixed, BenchReport, Bound, Obj};
use rcube_core::gridcube::GridCubeConfig;
use rcube_table::gen::DataDist;

const TUPLES: usize = 4_000;
const SEED: u64 = 0xB0B5;
/// Timed rounds, each pairing one run of either engine; the median ratio
/// is scored. Many short rounds rather than a few long ones: a slow spell
/// of a shared machine lasts tens of milliseconds and skews a round's
/// ratio by tens of percent, so only the median over many rounds holds
/// still (15 rounds of 40 ms read −0.8 % to +10 %, 61 of
/// 20 ms +0.6 % to +2.1 %, on a shared 2-thread box).
const ROUNDS: usize = 61;
/// The least time one engine's run in a round lasts: the workload repeats
/// until it does (the workload alone is about half a millisecond).
const MIN_ROUND: Duration = Duration::from_millis(20);

fn build_engine(metrics: Metrics) -> Engine {
    // Same seed on both sides: the relations are identical.
    let rel = rcube_bench::synthetic(TUPLES, 3, 8, 2, DataDist::Uniform, SEED);
    Engine::with_disk_and_metrics(rel, DiskSim::with_defaults(), metrics)
        .with_grid_cube(GridCubeConfig { block_size: 64, ..Default::default() })
}

/// The mixed workload: point selections, roll-ups and a rank on one
/// dimension — all covered by the grid cube.
fn workload() -> Vec<Query> {
    let mut queries = Vec::new();
    for v0 in 0..8u32 {
        for v1 in 0..4u32 {
            queries.push(Query::select([(0, v0), (1, v1)]).rank(Linear::uniform(2)).top(10));
        }
        queries.push(Query::select([(0, v0)]).rank(Linear::new(vec![0.7, 0.3])).top(20));
        queries.push(Query::select([(0, v0)]).rank_on(vec![1], Linear::uniform(1)).top(5));
    }
    queries
}

fn run_workload(eng: &Engine, queries: &[Query]) -> (Vec<(u32, u64)>, QueryStats) {
    let mut answers = Vec::new();
    let mut total = QueryStats::default();
    for q in queries {
        let res = eng.query(q).unwrap();
        for &(tid, score) in &res.items {
            answers.push((tid, score.to_bits()));
        }
        total.blocks_read += res.stats.blocks_read;
        total.tuples_scored += res.stats.tuples_scored;
    }
    (answers, total)
}

fn main() {
    let queries = workload();

    let instrumented = build_engine(Metrics::new());
    let bare = build_engine(Metrics::disabled());

    // --- Gate 1: byte-identical answers ---------------------------------
    let (answers_i, stats_i) = run_workload(&instrumented, &queries);
    let (answers_b, _) = run_workload(&bare, &queries);
    let answers_identical = answers_i == answers_b;
    assert!(answers_identical, "instrumentation must not perturb answers");

    // --- Gate 2: counter parity with QueryStats -------------------------
    // The warm-up pass above ran every query once on each engine.
    let snap = instrumented.metrics().snapshot();
    let count_total: u64 = Route::ALL
        .iter()
        .filter_map(|r| snap.histogram(&format!("query.{}.latency_us", r.name())))
        .map(|h| h.count)
        .sum();
    let counter_total: u64 =
        Route::ALL.iter().filter_map(|r| snap.counter(&format!("query.{}.count", r.name()))).sum();
    let blocks_total: u64 = Route::ALL
        .iter()
        .filter_map(|r| snap.histogram(&format!("query.{}.blocks_read", r.name())))
        .map(|h| h.sum)
        .sum();
    let tuples_total: u64 = Route::ALL
        .iter()
        .filter_map(|r| snap.histogram(&format!("query.{}.tuples_scored", r.name())))
        .map(|h| h.sum)
        .sum();
    let counter_parity = count_total == queries.len() as u64
        && counter_total == queries.len() as u64
        && blocks_total == stats_i.blocks_read
        && tuples_total == stats_i.tuples_scored;
    assert!(
        counter_parity,
        "registry must reconcile with QueryStats: {count_total}/{counter_total} queries \
         (want {}), {blocks_total} blocks (want {}), {tuples_total} tuples (want {})",
        queries.len(),
        stats_i.blocks_read,
        stats_i.tuples_scored
    );

    // --- Gate 3: wall-clock overhead ------------------------------------
    // Milliseconds per workload over `reps` repetitions.
    let time_engine = |eng: &Engine, reps: usize| {
        let start = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(run_workload(eng, &queries));
        }
        start.elapsed().as_secs_f64() * 1e3 / reps as f64
    };
    let mut reps = 1;
    while time_engine(&bare, reps) * (reps as f64) < MIN_ROUND.as_secs_f64() * 1e3 {
        reps *= 2;
    }
    let (mut ratios, mut ms_bare, mut ms_instr) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let (bare_ms, instr_ms) = if round % 2 == 0 {
            let b = time_engine(&bare, reps);
            (b, time_engine(&instrumented, reps))
        } else {
            let i = time_engine(&instrumented, reps);
            (time_engine(&bare, reps), i)
        };
        ratios.push(instr_ms / bare_ms);
        ms_bare.push(bare_ms);
        ms_instr.push(instr_ms);
    }
    let median = |v: &mut [f64]| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let overhead_pct = (median(&mut ratios) - 1.0) * 100.0;
    let (ms_bare, ms_instr) = (median(&mut ms_bare), median(&mut ms_instr));
    println!(
        "observability overhead: instrumented {ms_instr:.3} ms vs bare {ms_bare:.3} ms a \
         workload, median of {ROUNDS} paired rounds of {reps} ({overhead_pct:+.2}%)"
    );

    // --- BENCH_observability.json ---------------------------------------
    let mut report = BenchReport::new("observability");
    let counters = Obj::new()
        .with("queries_counted", counter_total)
        .with("blocks_read", blocks_total)
        .with("tuples_scored", tuples_total);
    let wall_ms =
        Obj::new().with("instrumented", fixed(ms_instr, 3)).with("bare", fixed(ms_bare, 3));
    report
        .set("queries", queries.len())
        .set("answers_identical", answers_identical)
        .set("counter_parity", counter_parity)
        .set("counters", counters)
        .set("wall_ms", wall_ms)
        .set("overhead_pct", fixed(overhead_pct, 2));
    report.clock_gate("overhead_pct", overhead_pct, Bound::Max(5.0), Some(1));
    report.write();
}
