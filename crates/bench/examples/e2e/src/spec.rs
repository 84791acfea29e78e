//! What the benchmark measures, declared before measuring: sizes, the
//! four workloads and why each exists, every end-to-end metric with its
//! regression bound, and every per-layer metric with the end-to-end
//! metric and workload it is expected to move. `--describe` renders the
//! same tables as the root `BENCHMARK.json`, so the two cannot drift.

/// Tuples behind the read-only workloads (grid file ≈ 16.5k 4 KB pages).
pub const READ_TUPLES: usize = 100_000;
/// Tuples in the signature base `delta_mixed` ingests into.
pub const DELTA_TUPLES: usize = 50_000;
pub const SELECTION_DIMS: usize = 4;
pub const CARDINALITY: u32 = 10;
pub const RANKING_DIMS: usize = 3;
pub const PAGE_SIZE: usize = 4096;

/// Read queries per seed (a Zipf batch: hot cells repeat, as they do in
/// served traffic) and their shape.
pub const QUERIES: usize = 1024;
pub const CONDITIONS: usize = 2;
pub const RANKED_DIMS: usize = 2;
pub const K: usize = 10;
pub const WEIGHT_SKEW: f64 = 3.0;
pub const VALUE_SKEW: f64 = 1.1;

/// `grid_hot`: the whole grid file is resident after warm-up.
pub const HOT_POOL_PAGES: usize = 32_768;
/// `grid_cold`: <0.5 % of the same file fits.
pub const COLD_POOL_PAGES: usize = 64;
pub const SHARDS: usize = 4;
/// Per shard; four of them hold the whole set, like `HOT_POOL_PAGES`.
pub const SHARD_POOL_PAGES: usize = 8_192;
/// Serving pool of the delta cube's base handles.
pub const DELTA_POOL_PAGES: usize = 4_096;

/// `delta_mixed` op mix (the rest are queries).
pub const INSERT_FRACTION: f64 = 0.20;
pub const DELETE_FRACTION: f64 = 0.05;
/// The flush policy: whoever acknowledges every 64th write runs
/// `DeltaCube::flush()` inline. Count-based, no timer.
pub const FLUSH_EVERY: u64 = 64;
/// `bytes_per_tuple` and `peak_rss_mb` on `delta_mixed` are read right
/// after this many flushes, so they do not depend on how many more fit
/// in the window.
pub const SPACE_AFTER_FLUSHES: usize = 4;

/// Equal slices of the measured window; the read-only workloads report
/// the median slice's throughput.
pub const SLICES: usize = 10;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Default `--seconds`, and `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

/// Mixed-stream ops in `delta_mixed`'s traced pass (≈3 flushes).
pub const TRACED_STREAM_OPS: usize = 768;
/// Flush cycles the delta layer probe drives.
pub const PROBE_FLUSHES: u64 = 5;
/// Pending writes under `core.delta.overlay_self_us`.
pub const PROBE_PENDING: usize = 128;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "grid_hot",
        why: "Grid file fully resident in a 32768-page pool, 2 clients: engine, core.grid, func \
              and obs do the work, so routing/cursor gains show here and storage ones must not.",
    },
    Workload {
        name: "grid_cold",
        why: "Same file and queries behind a 64-page pool (<0.5% fits), 2 clients: \
              storage.pool and storage.file (pread, CRC, frame insert, eviction) dominate.",
    },
    Workload {
        name: "shard_scatter",
        why: "Same relation, queries and 2 clients as grid_hot on a 4-shard file-backed grid set \
              (Route::Sharded, scatter on the calling thread): the ratio is the merge cost.",
    },
    Workload {
        name: "delta_mixed",
        why: "2 clients run a 75/20/5 query/insert/delete stream on a 50k signature base with \
              a flush every 64th write: ingest, flush time and file growth show here only.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every metric is defined on every workload and is never 0 there. A
/// failed, fallen-back or oracle-disagreeing op is not a metric: it
/// counts into `failed` and clears `correct`.
///
/// A bound is at least three times the spread (quartile distance ÷
/// median over ten seeds) seen on the noisiest workload, and at most
/// 0.25. The wall-clock rows sit at the cap: on a quiet sandbox they
/// spread 2–10 %, but it has minutes-long episodes in which every
/// latency reads ≈ 35 % higher, and no run length within budget averages
/// those out.
///
/// `query_p99_us` is not here: over ten seeds it spread 16 % on
/// `grid_hot` (380k samples a run — system tails, not sampling) and up to
/// 20 % on `delta_mixed`, against a cap of 25 %. It is printed with every
/// run as an `info` line and kept per layer as `trace.op_p99_us`.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "qps", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "query_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "ttfa_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "blocks_per_query", unit: "count", better: "lower", bound: 0.08 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "bytes_per_tuple", unit: "B", better: "lower", bound: 0.15 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Declared interaction: `end_to_end_metric@workload` it should move.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, moves }
}

const HOT: &str = "qps,query_p50_us,ttfa_p50_us@grid_hot,shard_scatter";
const COLD: &str = "qps,query_p50_us@grid_cold";
const SHARD: &str = "qps,query_p50_us@shard_scatter";
const SIG: &str = "qps,query_p50_us@delta_mixed";
const INGEST: &str = "qps@delta_mixed";
const SPACE: &str = "bytes_per_tuple@all";
const SETUP: &str = "setup_s@all";
const BLOCKS: &str = "blocks_per_query@all";
const NONE: &str = "none (instrument check)";

/// Rows marked *pass* come from the workload's own traced pass through
/// the `Engine`; all others are direct calls into one layer on the
/// full-size fixtures and read the same in every workload's traced run.
pub const PER_LAYER: [PerLayer; 74] = [
    // pass: spans around the Engine calls of this workload
    layer("trace.op_us", "us", "lower", "query_p50_us@this"),
    layer("trace.op_p99_us", "us", "lower", "none (tail of the pass; too unsteady to gate)"),
    layer("trace.overhead_pct", "%", "lower", NONE),
    layer("trace.attributed_share", "ratio", "higher", NONE),
    layer("engine.route_ns", "ns", "lower", HOT),
    layer("engine.open_ns", "ns", "lower", HOT),
    layer("core.query.first_us", "us", "lower", "ttfa_p50_us@this"),
    layer("core.query.rest_us", "us", "lower", "query_p50_us@this"),
    layer("engine.retries", "count", "lower", NONE),
    layer("engine.fallbacks", "count", "lower", NONE),
    layer("storage.pool.hit_rate", "ratio", "higher", COLD),
    layer("storage.pool.misses_per_query", "count", "lower", COLD),
    layer("storage.pool.evictions_per_query", "count", "lower", COLD),
    // engine
    layer("engine.self_us", "us", "lower", HOT),
    // core.grid
    layer("core.grid.query_us", "us", "lower", HOT),
    layer("core.grid.first_us", "us", "lower", HOT),
    layer("core.grid.mem_query_us", "us", "lower", HOT),
    layer("core.grid.blocks_per_query", "count", "lower", BLOCKS),
    layer("core.grid.tuples_scored_per_query", "count", "lower", BLOCKS),
    layer("core.grid.peak_heap", "count", "lower", "peak_rss_mb@grid_hot"),
    // core.idlist
    layer("core.idlist.scan_ns_per_tid", "ns", "lower", HOT),
    layer("core.idlist.seek_ns", "ns", "lower", HOT),
    // func
    layer("func.lower_bound_ns", "ns", "lower", HOT),
    layer("func.score_ns", "ns", "lower", HOT),
    // index
    layer("index.rtree.build_s", "s", "lower", SETUP),
    layer("index.rtree.insert_us", "us", "lower", INGEST),
    layer("index.rtree.bytes", "B", "lower", SPACE),
    layer("index.grid.build_s", "s", "lower", SETUP),
    // core.sig
    layer("core.sig.query_us", "us", "lower", SIG),
    layer("core.sig.loads_per_query", "count", "lower", BLOCKS),
    layer("core.sig.nodes_decoded_per_query", "count", "lower", SIG),
    layer("core.sig.bytes_decoded_per_query", "B", "lower", SIG),
    layer("core.sig.shared_hits_per_query", "count", "higher", SIG),
    layer("core.sig.nodecache_hit_rate", "ratio", "higher", SIG),
    layer("core.sig.decode_node_ns", "ns", "lower", SIG),
    // core.shard
    layer("core.shard.query_us", "us", "lower", SHARD),
    layer("core.shard.merge_self_us", "us", "lower", SHARD),
    layer("core.shard.fanout_self_us", "us", "lower", "none (default parallelism is not served)"),
    layer("core.shard.par_query_us", "us", "lower", "none (default parallelism is not served)"),
    layer("core.shard.pulls_per_answer", "ratio", "lower", SHARD),
    layer("core.shard.blocks_per_query", "count", "lower", BLOCKS),
    layer("core.shard.opened_per_query", "count", "lower", SHARD),
    layer("core.shard.pruned_per_query", "count", "higher", SHARD),
    // core.delta
    layer("core.delta.insert_us", "us", "lower", INGEST),
    layer("core.delta.write_p90_us", "us", "lower", INGEST),
    layer("core.delta.write_ops_per_s", "1/s", "higher", INGEST),
    layer("core.delta.flush_ms", "ms", "lower", INGEST),
    layer("core.delta.flush_max_ms", "ms", "lower", INGEST),
    layer("core.delta.flushes", "count", "higher", NONE),
    layer("core.delta.flush_busy_share", "ratio", "lower", INGEST),
    layer("core.delta.wal_bytes_per_write", "B", "lower", INGEST),
    layer("core.delta.file_growth_bytes_per_flush", "B", "lower", "bytes_per_tuple@delta_mixed"),
    layer("core.delta.overlay_self_us", "us", "lower", SIG),
    layer("core.delta.masked_per_query", "count", "lower", SIG),
    layer("core.delta.mem_answers_per_query", "count", "lower", SIG),
    layer("core.delta.reopen_ms", "ms", "lower", "setup_s@delta_mixed"),
    // storage
    layer("storage.pool.hit_ns", "ns", "lower", HOT),
    layer("storage.file.miss_ns", "ns", "lower", COLD),
    layer("storage.pool.evict_ns", "ns", "lower", COLD),
    layer("storage.warm_self_us", "us", "lower", HOT),
    layer("storage.cold_self_us", "us", "lower", COLD),
    layer("storage.file.open_ms", "ms", "lower", SETUP),
    layer("storage.file.bytes", "B", "lower", SPACE),
    layer("storage.file.space_amp", "ratio", "lower", SPACE),
    // obs
    layer("obs.record_ns", "ns", "lower", HOT),
    layer("obs.overhead_pct", "%", "lower", HOT),
    // baseline
    layer("baseline.scan.query_us", "us", "lower", "setup_s@all (oracle cost)"),
    // setup
    layer("table.gen_s", "s", "lower", SETUP),
    layer("setup.build_s", "s", "lower", SETUP),
    layer("setup.save_s", "s", "lower", SETUP),
    layer("setup.open_s", "s", "lower", SETUP),
    layer("setup.shard_build_s", "s", "lower", "setup_s@shard_scatter"),
    layer("setup.sig_build_s", "s", "lower", "setup_s@delta_mixed"),
    layer("setup.sig_save_s", "s", "lower", "setup_s@delta_mixed"),
];

/// The manifest path `command` names, relative to the repository root.
const MANIFEST: &str = "crates/bench/examples/e2e/Cargo.toml";
const PATHS: &str = "crates/bench/examples/e2e";

/// The root `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"{MANIFEST}\", \"--\"],\n"
    ));
    s.push_str(&format!("  \"paths\": [\"{PATHS}\"],\n"));
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        s.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{why}\"}}{sep}\n", w.name));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}\n",
            m.name, m.unit, m.better
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
