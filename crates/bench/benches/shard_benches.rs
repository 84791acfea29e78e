//! Partitioned cube-set benchmarks: scatter-gather top-k over 1/2/4
//! region shards, measured against one unsharded cube file over the
//! same relation, driven by a Zipf-skewed query mix
//! (`rcube_bench::zipf_query_batch`).
//!
//! The run writes `BENCH_shard.json` at the workspace root with two gate
//! families:
//!
//! * **Deterministic counter gates** (always hard):
//!   - every sharded answer — cursor merge *and* `par_query`, which is
//!     that merge drained — is byte-identical to the unsharded cube's, at
//!     every shard count;
//!   - the bound holds per shard: the merge never pulls a shard more
//!     than `answers_consumed_from_it + 1` times;
//!   - every shard a query leaves unopened has a box bound strictly above
//!     its k-th answer's score;
//!   - the 4-shard set opens fewer than 4 shards a query on average
//!     (`opened_per_query_4s` < 4) and reads at most 1.6× the blocks the
//!     1-shard set reads (`blocks_4s_over_1s` ≤ 1.6);
//!   - the 1-shard set is the grid route: per query it answers and reads
//!     exactly the blocks of the unsharded cube `GridRankingCube::build`
//!     made (`one_shard_reads_the_grid_blocks`) — its cursor is its
//!     shard's own, so its blocks come from that cursor's stats, with no
//!     fan-out to read them from;
//!   - per-shard I/O is reproducible: re-running a query yields
//!     identical per-shard pulls/answers/blocks (pulls are a pure
//!     function of the consumed-answer sequence, not thread timing).
//! * **Throughput scaling** (wall-clock): aggregate queries/sec at 1, 2
//!   and 4 shards through `par_query`. Since the parallel batch drain was
//!   deleted that is the sequential cursor merge (at 1 shard, the shard's
//!   own cursor, merging nothing), which no shard count speeds up: the 4-shard gate (≥ 2.5× one shard, a clock gate with a
//!   floor of 4 hardware threads) was written for the parallel path and
//!   stays until the scaling question is asked of another path.

use std::time::{Duration, Instant};

use rcube_bench::{fixed, query_of, BenchReport, Bound, Json, Obj};
use rcube_core::query::{Query, RankedSource};
use rcube_core::shard::{ShardedCube, ShardedCubeConfig};
use rcube_core::{GridCubeConfig, GridRankingCube};
use rcube_storage::DiskSim;
use rcube_table::workload::QuerySpec;

const TUPLES: usize = 20_000;

/// What this emitter read at the parent commit (every shard's grid search
/// seeding its frontier by bounding every block), alternated with the
/// committed "after" run on the same box. Twelve queries through
/// `par_query`'s per-query thread fan-out: the spread between two runs of
/// one side is as wide as the gap between the sides.
const BEFORE: &str = r#"{
    "commit": "PR 18 (dc911de)",
    "aggregate_qps": { "s1": 8960.9, "s2": 8696.0, "s4": 7966.3 },
    "scaling_4s_vs_1s": 0.89
  }"#;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const QUERIES: usize = 12;

struct Setup {
    unsharded: GridRankingCube,
    disk: DiskSim,
    sets: Vec<(usize, ShardedCube)>,
    dir: std::path::PathBuf,
    queries: Vec<QuerySpec>,
}

fn setup() -> Setup {
    let rel = rcube_bench::synthetic(TUPLES, 4, 5, 2, rcube_table::gen::DataDist::Uniform, 7);
    // Zipf-skewed mix: hot selection values recur, like real workloads.
    let queries = rcube_bench::zipf_query_batch(&rel, 2, 2, 10, 3.0, 1.1, QUERIES, 42);

    let dir = rcube_bench::temp_path("shard", "sets");
    std::fs::create_dir_all(&dir).expect("create bench temp dir");

    let gcfg = GridCubeConfig { block_size: 300, ..Default::default() };
    let disk = DiskSim::with_defaults();
    let unsharded_path = dir.join("base.cube");
    GridRankingCube::build(&rel, &disk, gcfg.clone())
        .save_to(&unsharded_path)
        .expect("save unsharded cube");
    let unsharded = GridRankingCube::open_from(&unsharded_path).expect("reopen unsharded cube");

    let sets = SHARD_COUNTS
        .iter()
        .map(|&n| {
            let cfg = ShardedCubeConfig { shards: n, grid: gcfg.clone(), ..Default::default() };
            let manifest = dir.join(format!("set{n}.manifest"));
            (n, ShardedCube::build_to(&rel, &manifest, &cfg).expect("build sharded set"))
        })
        .collect();

    Setup { unsharded, disk: DiskSim::with_defaults(), sets, dir, queries }
}

fn unsharded(s: &Setup, q: &Query) -> rcube_core::TopKResult {
    s.unsharded.source(&s.disk).query(&q.plan()).expect("unsharded query")
}

/// Aggregate queries/sec pushing the Zipf mix through `par_query` (the
/// sequential cursor merge).
fn measure_qps(cube: &ShardedCube, queries: &[Query], window: Duration) -> f64 {
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < window {
        for q in queries {
            std::hint::black_box(cube.par_query(&q.plan()).expect("par_query"));
            n += 1;
        }
    }
    n as f64 / start.elapsed().as_secs_f64()
}

#[allow(clippy::needless_range_loop)]
fn main() {
    let s = setup();
    let queries: Vec<Query> = s.queries.iter().map(query_of).collect();

    // --- Deterministic gates (hard, no wall clock involved) -------------
    let mut max_pull_slack = 0i64;
    let mut merged_blocks_4s = 0u64;
    // Per shard count: (blocks read, shards opened) over the query set.
    let mut totals = Vec::new();
    // How often the zipf mix opens each of the 4 shards: the load skew.
    let mut opens_by_shard_4s = vec![0u64; 4];
    for (n, cube) in &s.sets {
        let (mut blocks, mut opened) = (0u64, 0usize);
        for (qi, q) in queries.iter().enumerate() {
            let expect = unsharded(&s, q);
            let merged = cube.source().query(&q.plan()).expect("cursor merge");
            assert_eq!(
                merged.items, expect.items,
                "shards={n} query {qi}: merged top-k must be byte-identical to unsharded"
            );
            let batch = cube.par_query(&q.plan()).expect("par_query");
            assert_eq!(
                batch.items, expect.items,
                "shards={n} query {qi}: par_query must match the unsharded answer"
            );
            if *n == 1 {
                // A set of one is its shard's own cursor: no fan-out.
                assert_eq!(
                    merged.stats.blocks_read, expect.stats.blocks_read,
                    "query {qi}: one shard must read the unsharded grid's blocks"
                );
                blocks += merged.stats.blocks_read;
                continue;
            }

            // The stop rule: a shard left unopened has a box bound above
            // the k-th answer.
            let fanout = cube.last_fanout().expect("fan-out recorded");
            let plan = q.plan();
            for (shard, f) in cube.shards().iter().zip(&fanout.shards).filter(|(_, f)| !f.opened) {
                let bound = plan.func.lower_bound(&shard.region().project(plan.ranking_dims));
                let kth = merged.items.get(plan.k - 1).map(|a| a.1);
                assert!(
                    kth.is_some_and(|kth| bound > kth),
                    "shards={n} query {qi}: shard {} skipped at bound {bound}, k-th {kth:?}",
                    f.shard
                );
            }
            blocks += fanout.blocks_read();
            opened += fanout.opened();
            if *n == 4 {
                for f in fanout.shards.iter().filter(|f| f.opened) {
                    opens_by_shard_4s[f.shard] += 1;
                }
            }

            // The bound: a shard is re-pulled only after its head was
            // consumed, so pulls never exceed answers + 1.
            for f in &fanout.shards {
                assert!(
                    f.pulls <= f.answers + 1,
                    "shards={n} query {qi}: shard {} pulled {} for {} answers",
                    f.shard,
                    f.pulls,
                    f.answers
                );
                max_pull_slack = max_pull_slack.max(f.pulls as i64 - f.answers as i64);
            }
            let contributed: u64 = fanout.shards.iter().map(|f| f.answers).sum();
            assert_eq!(contributed as usize, merged.items.len(), "answers all attributed");
            if *n == 4 && qi == 0 {
                merged_blocks_4s = fanout.blocks_read();
            }
        }
        totals.push((*n, blocks, opened));
    }
    let total = |n: usize| *totals.iter().find(|t| t.0 == n).expect("shard count measured");
    let (_, blocks_1s, _) = total(1);
    let (_, blocks_4s, opened_4s) = total(4);
    let blocks_per_query_4s = blocks_4s as f64 / QUERIES as f64;
    let opened_per_query_4s = opened_4s as f64 / QUERIES as f64;
    let blocks_4s_over_1s = blocks_4s as f64 / blocks_1s.max(1) as f64;
    assert!(opened_per_query_4s < 4.0, "opened_per_query_4s {opened_per_query_4s} (bound: < 4)");
    assert!(blocks_4s_over_1s <= 1.6, "blocks_4s_over_1s {blocks_4s_over_1s} (bound: <= 1.6)");

    // Reproducibility: the same query re-run on the (now warm) 4-shard
    // set reports identical per-shard counters — pulls are demand-driven,
    // never a race.
    let four = &s.sets.iter().find(|(n, _)| *n == 4).expect("4-shard set").1;
    let q0 = &queries[0];
    let runs: Vec<Vec<(u64, u64, u64)>> = (0..2)
        .map(|_| {
            let _ = four.source().query(&q0.plan()).expect("repeat run");
            four.last_fanout()
                .expect("fan-out")
                .shards
                .iter()
                .map(|f| (f.pulls, f.answers, f.blocks_read))
                .collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1], "per-shard pulls/answers/blocks must be deterministic");
    println!(
        "shard: {} queries x {:?} shards all byte-identical to unsharded; \
         max per-shard pull slack {max_pull_slack} (bound: 1); \
         4-shard sample query read {merged_blocks_4s} blocks; 4 shards open \
         {opened_per_query_4s:.2} a query and read {blocks_per_query_4s:.2} blocks a query, \
         {blocks_4s_over_1s:.2}x one shard's",
        QUERIES, SHARD_COUNTS
    );

    // --- Aggregate throughput vs shard count (wall clock) ----------------
    let window = Duration::from_millis(400);
    let mut qps = Vec::new();
    for (n, cube) in &s.sets {
        // One warm pass so every shard count starts with warm pools.
        for q in &queries {
            let _ = cube.par_query(&q.plan()).expect("warm pass");
        }
        let v = measure_qps(cube, &queries, window);
        println!("shard: {n} shards -> {v:>10.0} queries/sec aggregate");
        qps.push((*n, v));
    }
    let qps_1 = qps.iter().find(|(n, _)| *n == 1).unwrap().1;
    let qps_4 = qps.iter().find(|(n, _)| *n == 4).unwrap().1;
    let scaling_4s = qps_4 / qps_1.max(f64::MIN_POSITIVE);

    // --- BENCH_shard.json -------------------------------------------------
    let mut report = BenchReport::new("shard");
    report.clock_gate("scaling_4s_vs_1s", scaling_4s, Bound::Min(2.5), Some(4));
    let counters = Obj::new()
        .with("merged_identical_to_unsharded", true)
        .with("par_query_identical_to_unsharded", true)
        .with("max_per_shard_pull_slack", max_pull_slack)
        .with("per_shard_io_deterministic", true)
        .with("sample_query_blocks_4s", merged_blocks_4s)
        .with("blocks_per_query_4s", fixed(blocks_per_query_4s, 4))
        .with("opened_per_query_4s", fixed(opened_per_query_4s, 4))
        .with("blocks_4s_over_1s", fixed(blocks_4s_over_1s, 4))
        .with("opens_by_shard_4s", opens_by_shard_4s)
        .with("one_shard_reads_the_grid_blocks", true);
    report
        .set("tuples", TUPLES)
        .set("queries", QUERIES)
        .set("query_mix", "zipf(1.1)")
        .set(
            "aggregate_qps",
            qps.iter().fold(Obj::lines(), |o, (n, v)| o.with(format!("s{n}"), fixed(*v, 1))),
        )
        .set("scaling_4s_vs_1s", fixed(scaling_4s, 2))
        .set("counters", counters)
        .set("before", Json::Raw(BEFORE));
    report.counter_gate("counters.max_per_shard_pull_slack", "<= 1", "pulls <= answers + 1");
    report.counter_gate(
        "counters.opened_per_query_4s",
        "< 4",
        "a box bound above the k-th answer leaves its shard shut",
    );
    report.counter_gate(
        "counters.blocks_4s_over_1s",
        "<= 1.6",
        "region shards read about what one cube reads",
    );
    report.counter_gate(
        "counters.one_shard_reads_the_grid_blocks",
        "== true",
        "a set of one answers with its shard's own grid cursor",
    );
    report.write();

    std::fs::remove_dir_all(&s.dir).ok();
}
