//! The traced run. First the workload's own pass through the `Engine`
//! with a span around every call (`op > engine.route | engine.open |
//! core.query.first | core.query.rest`), single-threaded and fixed-work
//! so counts repeat exactly. Then one probe per layer: direct calls into
//! that layer's public functions on the full-size fixtures, timed as
//! medians, with counts taken at the same boundaries. The probes do not
//! depend on the workload, so a layer reads the same in every workload's
//! traced run; only the pass rows differ.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranking_cube::cube::coding;
use ranking_cube::cube::idlist::{encode_auto, IdListRef};
use ranking_cube::func::RankFn;
use ranking_cube::prelude::*;
use ranking_cube::storage::{BitReader, BitWriter, PackedBits, PageId};
use ranking_cube::table::workload::WorkloadOp;
use ranking_cube::table::Tid;

use crate::fixture::*;
use crate::report::Outcome;
use crate::spec::*;
use crate::stats::{highest_percentile, median_f64, median_sorted, median_u64};
use crate::trace::Tracer;
use crate::workload::{self, Kind, Served, Tally};
use crate::Args;

/// `metric → (value, samples)`, filled by the pass and the probes.
type Rows = BTreeMap<&'static str, (f64, usize)>;

fn put(rows: &mut Rows, name: &'static str, value: f64, samples: usize) {
    let clash = rows.insert(name, (value, samples));
    assert!(clash.is_none(), "{name} measured twice");
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Median nanoseconds of `f` over `inputs`, one stopwatch per call —
/// for calls long enough (tens of µs) that the stopwatch does not show.
fn median_call_ns<I>(inputs: &[I], mut f: impl FnMut(&I)) -> f64 {
    let mut ns: Vec<u64> = inputs
        .iter()
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_nanos() as u64
        })
        .collect();
    median_u64(&mut ns)
}

/// Median over `batches` of the per-item nanoseconds of `batch`, which
/// runs `items` calls — for calls too short to time one by one.
fn median_batch_ns(
    tr: &mut Tracer,
    name: &'static str,
    batches: usize,
    items: usize,
    mut batch: impl FnMut(),
) -> f64 {
    let per_item: Vec<f64> = (0..batches)
        .map(|_| {
            let start = Instant::now();
            tr.span(name, &mut batch);
            start.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median_f64(&per_item)
}

/// What one single-threaded pass of queries over a source measured.
#[derive(Default)]
struct Pass {
    total_ns: Vec<u64>,
    first_ns: Vec<u64>,
    blocks: u64,
    scored: u64,
    peak_heap: u64,
    sig_loads: u64,
    sig_nodes: u64,
    sig_bytes: u64,
    shared_hits: u64,
    masked: u64,
    mem_answers: u64,
}

impl Pass {
    fn n(&self) -> usize {
        self.total_ns.len()
    }

    fn per_query(&self, sum: u64) -> f64 {
        sum as f64 / self.n().max(1) as f64
    }

    fn median_us(&mut self) -> f64 {
        us(median_u64(&mut self.total_ns))
    }
}

/// Opens and drains every query on `source` under a `root` span with
/// `source.open | source.first | source.rest` children; `after` runs
/// once the cursor is dropped (the shard fan-out is written then).
fn drain_pass<'a, S: RankedSource<'a>>(
    tr: &mut Tracer,
    root: &'static str,
    source: &S,
    queries: &'a [Query],
    mut after: impl FnMut(),
) -> Pass {
    let mut pass = Pass::default();
    for q in queries {
        let start = Instant::now();
        tr.begin_op(root);
        let mut cursor = tr.span("source.open", || source.open(&q.plan())).expect("probe opens");
        let first = tr.span("source.first", || cursor.try_next()).expect("probe pulls");
        pass.first_ns.push(start.elapsed().as_nanos() as u64);
        tr.enter("source.rest");
        if first.is_some() {
            while black_box(cursor.try_next().expect("probe pulls")).is_some() {}
        }
        tr.exit();
        tr.exit();
        pass.total_ns.push(start.elapsed().as_nanos() as u64);
        let s = cursor.stats();
        drop(cursor);
        pass.blocks += s.blocks_read;
        pass.scored += s.tuples_scored;
        pass.peak_heap = pass.peak_heap.max(s.peak_heap);
        pass.sig_loads += s.sig_loads;
        pass.sig_nodes += s.sig_nodes_decoded;
        pass.sig_bytes += s.sig_bytes_decoded;
        pass.shared_hits += s.shared_node_hits;
        pass.masked += s.delta_masked;
        pass.mem_answers += s.delta_mem_answers;
        after();
    }
    pass
}

/// One traced query op through the front door.
fn traced_query(tr: &mut Tracer, engine: &Engine, q: &Query, tally: &mut Tally) {
    tally.attempted += 1;
    tr.begin_op("op");
    black_box(tr.span("engine.route", || engine.route(q)));
    let opened = tr.span("engine.open", || engine.open(q));
    let done = opened.and_then(|mut cursor| {
        let first = tr.span("core.query.first", || cursor.try_next())?;
        tr.enter("core.query.rest");
        let mut rest = Ok(());
        if first.is_some() {
            rest = loop {
                match cursor.try_next() {
                    Ok(Some(_)) => {}
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
        }
        tr.exit();
        rest
    });
    tr.exit();
    if done.is_err() {
        tally.failed += 1;
    }
}

/// The workload's own pass: the traced lap, then the same queries
/// untraced for the overhead baseline. Consumes the set-up (`delta_mixed` ends with its
/// reopen check).
fn workload_pass(tr: &mut Tracer, served: Served, seed: u64, rows: &mut Rows) -> Tally {
    let mut tally = Tally::default();
    let kind = served.kind;
    if kind != Kind::DeltaMixed {
        workload::verify_read_only(&served, &mut tally);
    }
    let pool_before = ["hits", "misses", "evictions"].map(|w| served.pool_counter(w) as f64);
    let mut stream_queries = Vec::new();
    let live = if kind == Kind::DeltaMixed {
        let mut gen = mixed_stream(seed, 0);
        let mut live = Vec::new();
        let ingest = workload::Ingest::starting_now();
        for _ in 0..TRACED_STREAM_OPS {
            match gen.next_op(served.engine.relation()) {
                WorkloadOp::Query(spec) => {
                    let q = query_of(&spec);
                    traced_query(tr, &served.engine, &q, &mut tally);
                    stream_queries.push(q);
                }
                write => {
                    tr.begin_op("op");
                    tr.enter("engine.write");
                    workload::apply_write(&served, write, &mut live, &ingest, &mut tally);
                    tr.exit();
                    tr.exit();
                }
            }
        }
        live.into_iter().collect()
    } else {
        for q in &served.queries {
            traced_query(tr, &served.engine, q, &mut tally);
        }
        BTreeMap::new()
    };
    let ran = if kind == Kind::DeltaMixed { &stream_queries } else { &served.queries };
    let [hits, misses, evictions] =
        ["hits", "misses", "evictions"].map(|w| served.pool_counter(w) as f64);
    let [hits, misses, evictions] =
        [hits - pool_before[0], misses - pool_before[1], evictions - pool_before[2]];

    // Query ops only: the traced lap's `op` spans that have a
    // `core.query.first` child.
    let durations = tr.durations();
    let median_of = |name: &str| median_u64(&mut durations.get(name).cloned().unwrap_or_default());
    let mut query_ops: Vec<u64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "core.query.first")
        .map(|s| tr.spans[s.parent.expect("child span") as usize].duration())
        .collect();
    let traced = median_u64(&mut query_ops);
    // The same queries once more without spans: the tracing overhead.
    let untraced = median_call_ns(ran, |q| {
        black_box(served.engine.open(q).and_then(|mut c| c.try_drain()).expect("untraced lap"));
    });
    let n = ran.len();
    // Where the pass's wall time went: each span's self time (duration
    // minus child coverage) as a share of all `op` wall.
    let op_wall: u64 = durations["op"].iter().sum();
    for (name, own) in tr.self_times() {
        let total: u64 = own.iter().sum();
        println!(
            "{} info self_time {name} total_ms={:.3} share_of_op={:.4} spans={}",
            kind.name(),
            total as f64 / 1e6,
            total as f64 / op_wall as f64,
            own.len()
        );
    }
    put(rows, "trace.op_us", us(traced), n);
    put(rows, "trace.op_p99_us", us(highest_percentile(&query_ops).0 as f64), n);
    put(rows, "trace.overhead_pct", (traced - untraced) / untraced * 100.0, n);
    put(rows, "trace.attributed_share", tr.attributed_share("op"), n);
    put(rows, "engine.route_ns", median_of("engine.route"), n);
    put(rows, "engine.open_ns", median_of("engine.open"), n);
    put(rows, "core.query.first_us", us(median_of("core.query.first")), n);
    put(rows, "core.query.rest_us", us(median_of("core.query.rest")), n);
    let m = served.engine.metrics();
    put(rows, "engine.retries", m.counter("query.retries").get() as f64, n);
    put(rows, "engine.fallbacks", m.counter("query.fallbacks").get() as f64, n);
    let lookups = hits + misses;
    put(rows, "storage.pool.hit_rate", if lookups > 0.0 { hits / lookups } else { 0.0 }, n);
    put(rows, "storage.pool.misses_per_query", misses / n.max(1) as f64, n);
    put(rows, "storage.pool.evictions_per_query", evictions / n.max(1) as f64, n);

    tally.failed += workload::engine_degraded(&served.engine);
    if kind == Kind::DeltaMixed {
        workload::verify_delta(served, &live, &mut tally);
    } else {
        served.discard();
    }
    tally
}

/// `core.grid`, `storage` (self times, file shape), `engine.self_us`,
/// `obs.overhead_pct`, `baseline` and the grid set-up stages: everything
/// measured on the 100k-tuple grid file.
fn probe_grid(tr: &mut Tracer, scratch: &Scratch, seed: u64, rows: &mut Rows) -> f64 {
    let start = Instant::now();
    let rel = relation(READ_TUPLES, seed);
    put(rows, "table.gen_s", start.elapsed().as_secs_f64(), 1);
    let queries = read_queries(&rel, seed);
    let n = queries.len();
    let disk = DiskSim::with_defaults();
    let path = scratch.path("probe-grid.cube");
    let (mem, file, times) = grid_file(&rel, &path, HOT_POOL_PAGES);
    put(rows, "setup.build_s", times.build_s, 1);
    put(rows, "setup.save_s", times.save_s, 1);
    put(rows, "setup.open_s", times.open_s, 1);
    put(rows, "storage.file.open_ms", times.open_s * 1e3, 1);
    let bytes = file_len(&path);
    put(rows, "storage.file.bytes", bytes as f64, 1);
    put(rows, "storage.file.space_amp", bytes as f64 / file.store().total_bytes() as f64, 1);

    drain_pass(tr, "core.grid.warmup", &file.source(&disk), &queries, || ());
    let mut warm = drain_pass(tr, "core.grid.query", &file.source(&disk), &queries, || ());
    let warm_us = warm.median_us();
    put(rows, "core.grid.query_us", warm_us, n);
    put(rows, "core.grid.first_us", us(median_u64(&mut warm.first_ns)), n);
    put(rows, "core.grid.blocks_per_query", warm.per_query(warm.blocks), n);
    put(rows, "core.grid.tuples_scored_per_query", warm.per_query(warm.scored), n);
    put(rows, "core.grid.peak_heap", warm.peak_heap as f64, n);
    let mem_us =
        drain_pass(tr, "core.grid.mem_query", &mem.source(&disk), &queries, || ()).median_us();
    put(rows, "core.grid.mem_query_us", mem_us, n);
    put(rows, "storage.warm_self_us", warm_us - mem_us, n);
    drop(mem);
    let cold = GridRankingCube::open_from_with(&path, COLD_POOL_PAGES).expect("reopen cold");
    let cold_us =
        drain_pass(tr, "core.grid.cold_query", &cold.source(&disk), &queries, || ()).median_us();
    put(rows, "storage.cold_self_us", cold_us - warm_us, n);
    drop(cold);

    let scan = TableScan::new(&rel, &disk);
    let scan_us = drain_pass(tr, "baseline.scan.query", &scan.source(&rel, &disk), &queries, || ())
        .median_us();
    put(rows, "baseline.scan.query_us", scan_us, n);

    // The engine's own cost over a direct source call, and what its
    // metric registry costs: same warm file, same queries.
    let direct = median_call_ns(&queries, |q| {
        black_box(file.source(&disk).query(&q.plan()).expect("direct query"));
    });
    let engine_of = |cube, metrics| {
        Engine::with_disk_and_metrics(rel.clone(), DiskSim::with_defaults(), metrics)
            .with_prebuilt_grid(cube)
    };
    let second = GridRankingCube::open_from_with(&path, HOT_POOL_PAGES).expect("reopen grid");
    let timed_engine = |engine: &Engine| {
        for q in &queries {
            engine.try_query(q).expect("warm the engine");
        }
        median_call_ns(&queries, |q| {
            black_box(engine.try_query(q).expect("engine query"));
        })
    };
    let enabled = timed_engine(&engine_of(file, Metrics::new()));
    let disabled = timed_engine(&engine_of(second, Metrics::disabled()));
    put(rows, "engine.self_us", us(enabled - direct), n);
    put(rows, "obs.overhead_pct", (enabled - disabled) / disabled * 100.0, n);
    std::fs::remove_file(&path).ok();
    warm_us
}

/// `func`, `core.idlist`, `obs.record_ns`, `index`: calls too short to
/// time singly, so each figure is a median over batches.
fn probe_micro(tr: &mut Tracer, seed: u64, rows: &mut Rows) {
    const BATCHES: usize = 9;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let f = Linear::new(vec![1.0, WEIGHT_SKEW]);
    let rects: Vec<Rect> = (0..4096)
        .map(|_| {
            let (a, b, c, d): (f64, f64, f64, f64) = (
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            );
            Rect::new(vec![a.min(b), c.min(d)], vec![a.max(b), c.max(d)])
        })
        .collect();
    let points: Vec<[f64; 2]> =
        (0..4096).map(|_| [rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]).collect();
    let lb = median_batch_ns(tr, "func.lower_bound", BATCHES, rects.len(), || {
        for r in &rects {
            black_box(f.lower_bound(black_box(r)));
        }
    });
    put(rows, "func.lower_bound_ns", lb, BATCHES);
    let score = median_batch_ns(tr, "func.score", BATCHES, points.len(), || {
        for p in &points {
            black_box(f.score(black_box(p)));
        }
    });
    put(rows, "func.score_ns", score, BATCHES);

    // Posting lists of the shape a cuboid cell holds per base block:
    // a block's worth of tids out of a 100× wider tid range.
    const LIST_LEN: usize = 300;
    const SEEKS: u32 = 16;
    let universe = (LIST_LEN * 100) as u32;
    let lists: Vec<Vec<u8>> = (0..256)
        .map(|_| {
            let mut tids: Vec<Tid> = (0..LIST_LEN).map(|_| rng.gen_range(0..universe)).collect();
            tids.sort_unstable();
            tids.dedup();
            encode_auto(&tids, universe)
        })
        .collect();
    let tids_total: usize =
        lists.iter().map(|l| IdListRef::parse(l).expect("own encoding").to_vec().len()).sum();
    let scan = median_batch_ns(tr, "core.idlist.scan", BATCHES, tids_total, || {
        for l in &lists {
            let mut c = IdListRef::parse(l).expect("own encoding").cursor();
            while let Some(t) = c.current() {
                black_box(t);
                c.advance();
            }
        }
    });
    put(rows, "core.idlist.scan_ns_per_tid", scan, BATCHES);
    let seek =
        median_batch_ns(tr, "core.idlist.seek", BATCHES, lists.len() * SEEKS as usize, || {
            for l in &lists {
                let mut c = IdListRef::parse(l).expect("own encoding").cursor();
                for i in 1..=SEEKS {
                    c.seek(universe / (SEEKS + 1) * i);
                    black_box(c.current());
                }
            }
        });
    put(rows, "core.idlist.seek_ns", seek, BATCHES);

    let metrics = Metrics::new();
    let (hist, counter) = (metrics.histogram("probe.latency_us"), metrics.counter("probe.count"));
    const RECORDS: u64 = 100_000;
    let record = median_batch_ns(tr, "obs.record", BATCHES, RECORDS as usize, || {
        for v in 0..RECORDS {
            hist.record(black_box(v));
            counter.inc();
        }
    });
    put(rows, "obs.record_ns", record, BATCHES);

    let base = relation(DELTA_TUPLES, seed);
    let disk = DiskSim::with_defaults();
    let start = Instant::now();
    let mut rtree =
        tr.span("index.rtree.build", || RTree::over_relation(&disk, &base, &[], rtree_config()));
    put(rows, "index.rtree.build_s", start.elapsed().as_secs_f64(), 1);
    put(rows, "index.rtree.bytes", rtree.byte_size() as f64, 1);
    let fresh: Vec<(Tid, Vec<f64>)> = (0..256)
        .map(|i| {
            ((base.len() + i) as Tid, (0..RANKING_DIMS).map(|_| rng.gen_range(0.0..1.0)).collect())
        })
        .collect();
    let insert = median_call_ns(&fresh, |(tid, point)| {
        black_box(rtree.insert(&disk, *tid, point.clone()));
    });
    put(rows, "index.rtree.insert_us", us(insert), fresh.len());
    let rel = relation(READ_TUPLES, seed);
    let dims: Vec<usize> = (0..RANKING_DIMS).collect();
    let start = Instant::now();
    black_box(tr.span("index.grid.build", || GridPartition::build(&rel, &dims, 300)));
    put(rows, "index.grid.build_s", start.elapsed().as_secs_f64(), 1);
}

/// `storage.pool` / `storage.file` on a bench-owned file of 4096
/// one-page objects: resident, after `clear_cache()`, and cycling
/// through a 64-page pool.
fn probe_pages(tr: &mut Tracer, scratch: &Scratch, rows: &mut Rows) {
    const OBJECTS: usize = 4096;
    const BATCHES: usize = 5;
    let path = scratch.path("probe-pages.store");
    let disk = DiskSim::with_defaults();
    let ids: Vec<PageId> = {
        let store =
            PageStore::create_file(&path, PAGE_SIZE, 2 * OBJECTS).expect("create page file");
        let ids =
            (0..OBJECTS).map(|i| store.put(&disk, vec![(i % 251) as u8; PAGE_SIZE / 2])).collect();
        store.flush().expect("commit page file");
        ids
    };
    let get_all = |store: &PageStore| {
        for id in &ids {
            black_box(store.get_bytes(&disk, *id));
        }
    };
    let resident = PageStore::open_file(&path, 2 * OBJECTS).expect("open page file");
    let miss = median_batch_ns(tr, "storage.file.miss", BATCHES, OBJECTS, || {
        resident.clear_cache();
        get_all(&resident);
    });
    put(rows, "storage.file.miss_ns", miss, BATCHES);
    let hit = median_batch_ns(tr, "storage.pool.hit", BATCHES, OBJECTS, || get_all(&resident));
    put(rows, "storage.pool.hit_ns", hit, BATCHES);
    drop(resident);
    let tight = PageStore::open_file(&path, COLD_POOL_PAGES).expect("open page file");
    get_all(&tight);
    let evict = median_batch_ns(tr, "storage.pool.evict", BATCHES, OBJECTS, || get_all(&tight));
    put(rows, "storage.pool.evict_ns", evict, BATCHES);
    drop(tight);
    std::fs::remove_file(&path).ok();
}

/// `core.shard` on the 4-shard file-backed set over the 100k relation.
fn probe_shard(tr: &mut Tracer, scratch: &Scratch, seed: u64, grid_us: f64, rows: &mut Rows) {
    let rel = relation(READ_TUPLES, seed);
    let queries = read_queries(&rel, seed);
    let n = queries.len();
    let manifest = scratch.path("probe-set.manifest");
    let start = Instant::now();
    let cube = tr.span("core.shard.build", || {
        ShardedCube::build_to(&rel, &manifest, &shard_config()).expect("build shard set")
    });
    put(rows, "setup.shard_build_s", start.elapsed().as_secs_f64(), 1);
    drain_pass(tr, "core.shard.warmup", &cube.source(), &queries, || ());
    let (mut pulls, mut answers, mut opened, mut pruned, mut blocks) =
        (0u64, 0u64, 0usize, 0usize, 0u64);
    let mut pass = drain_pass(tr, "core.shard.query", &cube.source(), &queries, || {
        let fanout = cube.last_fanout().expect("fan-out of the finished query");
        pulls += fanout.shards.iter().map(|s| s.pulls).sum::<u64>();
        answers += fanout.shards.iter().map(|s| s.answers).sum::<u64>();
        opened += fanout.opened();
        pruned += fanout.pruned();
        blocks += fanout.blocks_read();
    });
    let shard_us = pass.median_us();
    put(rows, "core.shard.query_us", shard_us, n);
    put(rows, "core.shard.merge_self_us", shard_us - grid_us, n);
    put(rows, "core.shard.pulls_per_answer", pulls as f64 / answers.max(1) as f64, n);
    put(rows, "core.shard.blocks_per_query", blocks as f64 / n as f64, n);
    put(rows, "core.shard.opened_per_query", opened as f64 / n as f64, n);
    put(rows, "core.shard.pruned_per_query", pruned as f64 / n as f64, n);
    drop(cube);
    // The same files with the default scatter: one worker per hardware
    // thread, spawned per query.
    let fanned = ShardedCube::open_from_with(&manifest, SHARD_POOL_PAGES, 0).expect("reopen set");
    drain_pass(tr, "core.shard.warmup", &fanned.source(), &queries, || ());
    let fanned_us =
        drain_pass(tr, "core.shard.fanout_query", &fanned.source(), &queries, || ()).median_us();
    put(rows, "core.shard.fanout_self_us", fanned_us - shard_us, n);
    let par = median_call_ns(&queries, |q| {
        black_box(fanned.par_query(&q.plan()).expect("par_query"));
    });
    put(rows, "core.shard.par_query_us", us(par), n);
    drop(fanned);
    for f in shard_set_files(&manifest) {
        std::fs::remove_file(f).ok();
    }
}

/// `core.sig` on the 50k-tuple base file, then `core.delta` on a delta
/// cube opened over it: `PROBE_FLUSHES` flush cycles of the stream's
/// writes, the overlay's cost with `PROBE_PENDING` writes pending, and a
/// reopen with WAL replay.
fn probe_sig_and_delta(tr: &mut Tracer, scratch: &Scratch, seed: u64, rows: &mut Rows) {
    let base = relation(DELTA_TUPLES, seed);
    let queries = read_queries(&base, seed);
    let n = queries.len();
    let disk = DiskSim::with_defaults();
    let path = scratch.path("probe-base.cube");
    let times = sig_file(&base, &path);
    put(rows, "setup.sig_build_s", times.build_s, 1);
    put(rows, "setup.sig_save_s", times.save_s, 1);
    let (cube, rtree) = SignatureCube::open_from_with(&path, DELTA_POOL_PAGES).expect("open base");
    let source = cube.source(&rtree, &disk);
    drain_pass(tr, "core.sig.warmup", &source, &queries, || ());
    let cache_before = cube.node_cache().stats();
    let mut pass = drain_pass(tr, "core.sig.query", &source, &queries, || ());
    let cache = cube.node_cache().stats();
    let (hits, misses) = (cache.hits - cache_before.hits, cache.misses - cache_before.misses);
    put(rows, "core.sig.query_us", pass.median_us(), n);
    put(rows, "core.sig.loads_per_query", pass.per_query(pass.sig_loads), n);
    put(rows, "core.sig.nodes_decoded_per_query", pass.per_query(pass.sig_nodes), n);
    put(rows, "core.sig.bytes_decoded_per_query", pass.per_query(pass.sig_bytes), n);
    put(rows, "core.sig.shared_hits_per_query", pass.per_query(pass.shared_hits), n);
    put(rows, "core.sig.nodecache_hit_rate", hits as f64 / (hits + misses).max(1) as f64, n);

    // Node codings of this cube's fanout, a quarter of the bits set.
    let m = cube.fanout();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
    const NODES: usize = 2048;
    let mut coded = BitWriter::new();
    for _ in 0..NODES {
        let bools: Vec<bool> = (0..m).map(|_| rng.gen_range(0..4) == 0).collect();
        coding::encode_best(&PackedBits::from_bools(&bools), m, &mut coded);
    }
    let (bytes, bit_len) = coded.into_parts();
    let decode = median_batch_ns(tr, "core.sig.decode_node", 9, NODES, || {
        let mut r = BitReader::new(&bytes, bit_len);
        for _ in 0..NODES {
            black_box(coding::decode_node(&mut r, m).expect("own coding"));
        }
    });
    put(rows, "core.sig.decode_node_ns", decode, 9);
    drop((cube, rtree));

    let metrics = Metrics::new();
    let delta = DeltaCube::open(&path, base.clone(), delta_options(&metrics)).expect("open delta");
    let mut gen = mixed_stream(seed, 0);
    let mut next_write = || loop {
        if let WorkloadOp::Insert { sel, point } = gen.next_op(&base) {
            return (sel, point);
        }
    };
    let mut write_ns = Vec::new();
    let mut flush_ns = Vec::new();
    let mut growth = Vec::new();
    let mut flush_total = 0u64;
    let writer = Instant::now();
    for _ in 0..PROBE_FLUSHES {
        for _ in 0..FLUSH_EVERY {
            let (sel, point) = next_write();
            let start = Instant::now();
            tr.span("core.delta.insert", || delta.insert(&sel, &point)).expect("probe insert");
            write_ns.push(start.elapsed().as_nanos() as u64);
        }
        let before = file_len(&path);
        let report = tr.span("core.delta.flush", || delta.flush()).expect("probe flush");
        flush_ns.push(report.duration.as_nanos() as u64);
        flush_total += report.duration.as_nanos() as u64;
        growth.push((file_len(&path) - before) as f64);
    }
    let writer_ns = writer.elapsed().as_nanos() as f64;
    let writes = write_ns.len();
    write_ns.sort_unstable();
    put(rows, "core.delta.insert_us", us(median_sorted(&write_ns)), writes);
    put(rows, "core.delta.write_p90_us", us(highest_percentile(&write_ns).0 as f64), writes);
    put(rows, "core.delta.write_ops_per_s", writes as f64 / (writer_ns / 1e9), writes);
    put(rows, "core.delta.flush_ms", median_u64(&mut flush_ns.clone()) / 1e6, flush_ns.len());
    put(
        rows,
        "core.delta.flush_max_ms",
        *flush_ns.iter().max().expect("flushed") as f64 / 1e6,
        flush_ns.len(),
    );
    put(rows, "core.delta.flushes", delta.flushes_completed() as f64, 1);
    put(rows, "core.delta.flush_busy_share", flush_total as f64 / writer_ns, flush_ns.len());
    let wal = metrics.counter("delta.wal_bytes").get();
    put(rows, "core.delta.wal_bytes_per_write", wal as f64 / writes as f64, writes);
    put(rows, "core.delta.file_growth_bytes_per_flush", median_f64(&growth), growth.len());

    for _ in 0..PROBE_PENDING {
        let (sel, point) = next_write();
        delta.insert(&sel, &point).expect("pending insert");
    }
    drain_pass(tr, "core.delta.warmup", &delta.source(), &queries, || ());
    let mut overlay = drain_pass(tr, "core.delta.query", &delta.source(), &queries, || ());
    let (flushed, flushed_rtree) =
        SignatureCube::open_from_with(&path, DELTA_POOL_PAGES).expect("open flushed base");
    let flushed_source = flushed.source(&flushed_rtree, &disk);
    drain_pass(tr, "core.delta.base_warmup", &flushed_source, &queries, || ());
    let base_us =
        drain_pass(tr, "core.delta.base_query", &flushed_source, &queries, || ()).median_us();
    put(rows, "core.delta.overlay_self_us", overlay.median_us() - base_us, n);
    put(rows, "core.delta.masked_per_query", overlay.per_query(overlay.masked), n);
    put(rows, "core.delta.mem_answers_per_query", overlay.per_query(overlay.mem_answers), n);
    drop((flushed, flushed_rtree, delta));
    let start = Instant::now();
    let reopened = tr.span("core.delta.reopen", || {
        DeltaCube::open(&path, base.clone(), delta_options(&Metrics::disabled()))
    });
    put(rows, "core.delta.reopen_ms", start.elapsed().as_secs_f64() * 1e3, 1);
    assert_eq!(
        reopened.expect("reopen delta").last_replay().pending as usize,
        PROBE_PENDING,
        "replay must find every pending write"
    );
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(ranking_cube::cube::delta::wal_path_for(&path)).ok();
}

/// The traced run of one workload: its pass, then every layer probe.
/// Writes the spans and counts to `<target>/e2e-trace/<workload>.json`.
pub fn run_traced(kind: Kind, args: &Args) -> Outcome {
    let scratch = Scratch::new();
    let mut tr = Tracer::new();
    let mut rows = Rows::new();
    let served = workload::setup(kind, args.seed, &scratch);
    let tally = workload_pass(&mut tr, served, args.seed, &mut rows);
    let grid_us = probe_grid(&mut tr, &scratch, args.seed, &mut rows);
    probe_micro(&mut tr, args.seed, &mut rows);
    probe_pages(&mut tr, &scratch, &mut rows);
    probe_shard(&mut tr, &scratch, args.seed, grid_us, &mut rows);
    probe_sig_and_delta(&mut tr, &scratch, args.seed, &mut rows);

    let mut out = Outcome::new(kind, tally.attempted, tally.failed);
    let mut counts = Vec::new();
    for m in &PER_LAYER {
        let (value, samples) =
            rows.remove(m.name).unwrap_or_else(|| panic!("{} not measured", m.name));
        out.push(m.name, value, samples);
        if matches!(m.unit, "count" | "ratio" | "B") {
            counts.push((m.name, value));
        }
    }
    assert!(rows.is_empty(), "measured but not declared: {:?}", rows.keys());
    let dir = target_dir().join("e2e-trace");
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    let file = dir.join(format!("{}.json", kind.name()));
    std::fs::write(&file, tr.to_json(kind.name(), &counts)).expect("write the trace");
    println!(
        "{} info spans={} trace={} attributed_share_of_op={:.3}",
        kind.name(),
        tr.spans.len(),
        file.display(),
        tr.attributed_share("op")
    );
    out
}
