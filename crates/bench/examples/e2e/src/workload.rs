//! The four workloads: set-up behind the `Engine` front door, the output
//! oracle, and the timed closed loop. One op is `Engine::open` → first
//! `try_next` (time to first answer) → pull until `k` answers.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use ranking_cube::cube::delta::wal_path_for;
use ranking_cube::prelude::*;
use ranking_cube::storage::StorageError;
use ranking_cube::table::workload::WorkloadOp;
use ranking_cube::table::Tid;

use crate::fixture::*;
use crate::spec::*;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    GridHot,
    GridCold,
    ShardScatter,
    DeltaMixed,
}

impl Kind {
    pub const ALL: [Kind; 4] =
        [Kind::GridHot, Kind::GridCold, Kind::ShardScatter, Kind::DeltaMixed];

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    fn route(self) -> Route {
        match self {
            Kind::GridHot | Kind::GridCold => Route::Grid,
            Kind::ShardScatter => Route::Sharded,
            Kind::DeltaMixed => Route::Delta,
        }
    }
}

/// Closed-loop client threads of every workload: two, or one on a
/// one-core machine — never more than the machine has.
pub fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// One set-up of one workload, ready to serve.
pub struct Served {
    pub kind: Kind,
    pub engine: Engine,
    pub queries: Vec<Query>,
    /// Every file of the served cube (shard files and WAL included).
    pub files: Vec<PathBuf>,
}

impl Served {
    pub fn file_bytes(&self) -> u64 {
        self.files.iter().map(|p| file_len(p)).sum()
    }

    /// Drops the engine, then removes its files.
    pub fn discard(self) {
        let files = self.files.clone();
        drop(self);
        for f in files {
            std::fs::remove_file(f).ok();
        }
    }

    /// Sum of the `<path>.pool.<what>` counters in the engine's registry
    /// — the same instruments an operator reads.
    pub fn pool_counter(&self, what: &str) -> u64 {
        let suffix = format!(".pool.{what}");
        let snap = self.engine.metrics().snapshot();
        snap.counters.iter().filter(|(n, _)| n.ends_with(&suffix)).map(|&(_, v)| v).sum()
    }
}

/// Generate + build + save + reopen + warm-up (none on `grid_cold`).
pub fn setup(kind: Kind, seed: u64, scratch: &Scratch) -> Served {
    let metrics = Metrics::new();
    let disk = DiskSim::with_defaults();
    let served = match kind {
        Kind::GridHot | Kind::GridCold => {
            let rel = relation(READ_TUPLES, seed);
            let queries = read_queries(&rel, seed);
            let path = scratch.path("grid.cube");
            let pool = if kind == Kind::GridHot { HOT_POOL_PAGES } else { COLD_POOL_PAGES };
            let (_, file, _) = grid_file(&rel, &path, pool);
            let engine = Engine::with_disk_and_metrics(rel, disk, metrics).with_prebuilt_grid(file);
            Served { kind, engine, queries, files: vec![path] }
        }
        Kind::ShardScatter => {
            let rel = relation(READ_TUPLES, seed);
            let queries = read_queries(&rel, seed);
            let manifest = scratch.path("set.manifest");
            let cube =
                ShardedCube::build_to(&rel, &manifest, &shard_config()).expect("build shard set");
            let files = shard_set_files(&manifest);
            let engine =
                Engine::with_disk_and_metrics(rel, disk, metrics).with_prebuilt_sharded(cube);
            Served { kind, engine, queries, files }
        }
        Kind::DeltaMixed => {
            let base = relation(DELTA_TUPLES, seed);
            let queries = read_queries(&base, seed);
            let path = scratch.path("base.cube");
            sig_file(&base, &path);
            let delta = Arc::new(
                DeltaCube::open(&path, base.clone(), delta_options(&metrics)).expect("open delta"),
            );
            let engine = Engine::with_disk_and_metrics(base, disk, metrics).with_delta(delta);
            let files = vec![wal_path_for(&path), path];
            Served { kind, engine, queries, files }
        }
    };
    if kind != Kind::GridCold {
        for q in &served.queries {
            served.engine.try_query(q).expect("warm-up query");
        }
    }
    served
}

/// What the timed loop and the checks around it counted.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub blocks: u64,
    pub query_ns: Vec<u64>,
    pub ttfa_ns: Vec<u64>,
    pub write_ns: Vec<u64>,
    pub flush_ns: Vec<u64>,
    /// Queries completed in each of the window's `SLICES` equal slices.
    pub per_slice: [u64; SLICES],
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.blocks += other.blocks;
        self.query_ns.extend(other.query_ns);
        self.ttfa_ns.extend(other.ttfa_ns);
        self.write_ns.extend(other.write_ns);
        self.flush_ns.extend(other.flush_ns);
        for (mine, theirs) in self.per_slice.iter_mut().zip(other.per_slice) {
            *mine += theirs;
        }
    }
}

/// The measured window: when it began and how long one slice of it is.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    slice: Duration,
}

impl Window {
    pub fn starting_now(length: Duration) -> Self {
        Self { start: Instant::now(), slice: length / SLICES as u32 }
    }

    fn deadline(&self) -> Instant {
        self.start + self.slice * SLICES as u32
    }

    /// Throughput robust to a stall: the median slice's completions per
    /// second.
    fn median_slice_rate(&self, per_slice: &[u64; SLICES]) -> f64 {
        let rates: Vec<f64> =
            per_slice.iter().map(|&n| n as f64 / self.slice.as_secs_f64()).collect();
        crate::stats::median_f64(&rates)
    }
}

/// One untimed-by-itself op through the front door; the caller owns the
/// stopwatch readings. Returns the answer and the cursor's block count.
fn pull_all(
    engine: &Engine,
    query: &Query,
    start: Instant,
) -> Result<(Answer, u64, u64, u64), StorageError> {
    let mut cursor = engine.open(query)?;
    let mut answer = Answer::with_capacity(query.k());
    let first = cursor.try_next()?;
    let ttfa = start.elapsed().as_nanos() as u64;
    if let Some((tid, score)) = first {
        answer.push((tid, score.to_bits()));
        while let Some((tid, score)) = cursor.try_next()? {
            answer.push((tid, score.to_bits()));
        }
    }
    let total = start.elapsed().as_nanos() as u64;
    Ok((answer, cursor.stats().blocks_read, ttfa, total))
}

/// Times one query op into `tally`; `expected` (when known) is the
/// oracle's answer and a disagreement counts as a failure.
fn timed_query(
    engine: &Engine,
    query: &Query,
    expected: Option<&Answer>,
    window: &Window,
    tally: &mut Tally,
) {
    tally.attempted += 1;
    let start = Instant::now();
    match pull_all(engine, query, start) {
        Ok((answer, blocks, ttfa, total)) => {
            let done = (start - window.start) + Duration::from_nanos(total);
            let slice = (done.as_nanos() / window.slice.as_nanos()) as usize;
            if let Some(count) = tally.per_slice.get_mut(slice) {
                *count += 1;
            }
            tally.blocks += blocks;
            tally.ttfa_ns.push(ttfa);
            tally.query_ns.push(total);
            let sorted =
                answer.windows(2).all(|w| f64::from_bits(w[0].1) <= f64::from_bits(w[1].1));
            if expected.is_some_and(|e| *e != answer) || !sorted {
                tally.failed += 1;
            }
        }
        Err(_) => tally.failed += 1,
    }
}

/// The output oracle for the read-only workloads: every query routes
/// where the workload says and answers exactly as a table scan does.
/// Returns the scan's answers for the timed loop to keep checking, and
/// leaves the pass's block count in `tally` — one lap over the seed's
/// queries, so it repeats exactly.
pub fn verify_read_only(served: &Served, tally: &mut Tally) -> Vec<Answer> {
    let expected = scan_answers(served.engine.relation(), &served.queries);
    for (q, want) in served.queries.iter().zip(&expected) {
        tally.attempted += 1;
        let routed = served.engine.route(q) == served.kind.route();
        let got = served.engine.try_query(q);
        let exact = got.is_ok_and(|r| {
            tally.blocks += r.stats.blocks_read;
            answer_of(&r.items) == *want && r.stats.path_retries == 0 && r.stats.path_fallbacks == 0
        });
        if !(routed && exact) {
            tally.failed += 1;
        }
    }
    if served.kind == Kind::GridCold {
        // The check must not stand in for the warm-up this workload omits.
        served.engine.grid_cube().expect("grid registered").store().clear_cache();
    }
    expected
}

/// Degradations the loop cannot see op by op: anything the engine
/// retried, fell back from or quarantined fails the run.
pub fn engine_degraded(engine: &Engine) -> u64 {
    let m = engine.metrics();
    m.counter("query.retries").get()
        + m.counter("query.fallbacks").get()
        + engine.quarantined().len() as u64
}

/// Closed loop on a read-only workload: each client walks its own seeded
/// shuffle of the queries until the deadline.
pub fn run_read_only(
    served: &Served,
    expected: &[Answer],
    seed: u64,
    length: Duration,
) -> (Tally, f64) {
    let window = Window::starting_now(length);
    let deadline = window.deadline();
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients())
            .map(|client| {
                s.spawn(move || {
                    let mut order: Vec<usize> = (0..served.queries.len()).collect();
                    order.shuffle(&mut StdRng::seed_from_u64(seed ^ (client as u64 + 1) << 32));
                    let mut tally = Tally::default();
                    for &i in order.iter().cycle() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let q = &served.queries[i];
                        timed_query(&served.engine, q, Some(&expected[i]), &window, &mut tally);
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            total.absorb(h.join().expect("client thread"));
        }
    });
    let qps = window.median_slice_rate(&total.per_slice);
    (total, qps)
}

/// A live inserted tuple: selection values and ranking point.
pub type Tuple = (Vec<u32>, Vec<f64>);

/// The state of `delta_mixed` when a flush completed.
#[derive(Debug, Clone, Copy)]
pub struct FlushMark {
    /// Seconds since the window began.
    pub at_s: f64,
    /// Queries all clients had completed.
    pub queries: u64,
    /// Bytes of the cube file and its WAL.
    pub file_bytes: u64,
    /// Base tuples plus acknowledged inserts minus acknowledged deletes.
    pub live_tuples: u64,
    /// `VmHWM` so far: every generation a flush retires stays mapped
    /// until the cube drops, so the peak grows with the flush count.
    pub peak_rss_mb: f64,
}

/// What the clients of `delta_mixed` share.
pub struct Ingest {
    start: Instant,
    acked: AtomicU64,
    inserted: AtomicU64,
    deleted: AtomicU64,
    queries: AtomicU64,
    marks: Mutex<Vec<FlushMark>>,
}

impl Ingest {
    pub fn starting_now() -> Self {
        Self {
            start: Instant::now(),
            acked: AtomicU64::new(0),
            inserted: AtomicU64::new(0),
            deleted: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            marks: Mutex::new(Vec::new()),
        }
    }
}

/// What `delta_mixed` leaves for the post-run checks.
pub struct DeltaOutcome {
    pub tally: Tally,
    pub qps: f64,
    /// Inserted tuples still live at the end, by tid.
    pub live: BTreeMap<Tid, Tuple>,
    pub marks: Vec<FlushMark>,
}

/// Applies one write of the stream; `live` is this client's inserted
/// tuples, newest last, which delete ranks index from the back. After
/// every `FLUSH_EVERY`-th acknowledged write the acknowledging client
/// flushes inline.
pub fn apply_write(
    served: &Served,
    op: WorkloadOp,
    live: &mut Vec<(Tid, Tuple)>,
    ingest: &Ingest,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let done = match op {
        WorkloadOp::Insert { sel, point } => served.engine.insert(&sel, &point).map(|tid| {
            live.push((tid, (sel, point)));
            ingest.inserted.fetch_add(1, Ordering::Relaxed);
        }),
        WorkloadOp::Delete { victim_rank } => {
            if victim_rank >= live.len() {
                return; // nothing of this client's to delete yet
            }
            let (tid, tuple) = live.remove(live.len() - 1 - victim_rank);
            served
                .engine
                .delete(tid)
                .map(|()| {
                    ingest.deleted.fetch_add(1, Ordering::Relaxed);
                })
                .inspect_err(|_| live.push((tid, tuple)))
        }
        WorkloadOp::Query(_) => unreachable!("queries are not writes"),
    };
    tally.attempted += 1;
    if done.is_err() {
        tally.failed += 1;
        return;
    }
    tally.write_ns.push(start.elapsed().as_nanos() as u64);
    let acked = ingest.acked.fetch_add(1, Ordering::SeqCst) + 1;
    if !acked.is_multiple_of(FLUSH_EVERY) {
        return;
    }
    tally.attempted += 1;
    match served.engine.delta_cube().expect("delta registered").flush() {
        Ok(report) => tally.flush_ns.push(report.duration.as_nanos() as u64),
        Err(_) => tally.failed += 1,
    }
    ingest.marks.lock().expect("flush marks").push(FlushMark {
        at_s: ingest.start.elapsed().as_secs_f64(),
        queries: ingest.queries.load(Ordering::Relaxed),
        file_bytes: served.file_bytes(),
        live_tuples: DELTA_TUPLES as u64 + ingest.inserted.load(Ordering::Relaxed)
            - ingest.deleted.load(Ordering::Relaxed),
        peak_rss_mb: crate::stats::peak_rss_mb(),
    });
}

/// Closed loop on `delta_mixed`: every client draws its own 75/20/5
/// stream and runs each op to its acknowledgement. Throughput is taken
/// over whole flush cycles — up to the last flush that completed — so
/// it does not depend on where in a cycle the window ends.
pub fn run_delta_mixed(served: &Served, seed: u64, length: Duration) -> DeltaOutcome {
    let window = Window::starting_now(length);
    let deadline = window.deadline();
    let ingest = Ingest::starting_now();
    let mut tally = Tally::default();
    let mut all_live = BTreeMap::new();
    std::thread::scope(|s| {
        let ingest = &ingest;
        let handles: Vec<_> = (0..clients())
            .map(|client| {
                s.spawn(move || {
                    let mut gen = mixed_stream(seed, client);
                    let mut live = Vec::new();
                    let mut tally = Tally::default();
                    while Instant::now() < deadline {
                        match gen.next_op(served.engine.relation()) {
                            WorkloadOp::Query(spec) => {
                                let q = query_of(&spec);
                                timed_query(&served.engine, &q, None, &window, &mut tally);
                                ingest.queries.fetch_add(1, Ordering::Relaxed);
                            }
                            write => apply_write(served, write, &mut live, ingest, &mut tally),
                        }
                    }
                    (tally, live)
                })
            })
            .collect();
        for h in handles {
            let (t, live) = h.join().expect("client thread");
            tally.absorb(t);
            all_live.extend(live);
        }
    });
    let wall_s = ingest.start.elapsed().as_secs_f64();
    let marks = ingest.marks.into_inner().expect("flush marks");
    let qps = marks
        .last()
        .map_or(tally.query_ns.len() as f64 / wall_s, |last| last.queries as f64 / last.at_s);
    DeltaOutcome { tally, qps, live: all_live, marks }
}

/// The model of `delta_mixed`'s final state — base plus live inserts —
/// as a dense relation, with the tid each of its rows stands for.
fn model_relation(base: &Relation, live: &BTreeMap<Tid, Tuple>) -> (Relation, Vec<Tid>) {
    let mut b = RelationBuilder::with_capacity(base.schema().clone(), base.len() + live.len());
    let mut tids = Vec::with_capacity(base.len() + live.len());
    for tid in base.tids() {
        let sel: Vec<u32> = (0..SELECTION_DIMS).map(|d| base.selection_value(tid, d)).collect();
        b.push(&sel, &base.ranking_point(tid));
        tids.push(tid);
    }
    for (&tid, (sel, point)) in live {
        b.push(sel, point);
        tids.push(tid);
    }
    (b.finish(), tids)
}

/// Checks a delta cube against a scan of the model: every query's
/// answer (tids and score bits), then every live insert by a lookup of
/// its own cell. Returns `(attempted, failed)`.
fn check_against_model<'a>(
    delta: &'a DeltaCube,
    queries: &'a [Query],
    expected: &[Answer],
    cells: &'a [(Tid, Query)],
) -> (u64, u64) {
    let source = delta.source();
    let mut failed = 0;
    for (q, want) in queries.iter().zip(expected) {
        if !source.query(&q.plan()).is_ok_and(|r| answer_of(&r.items) == *want) {
            failed += 1;
        }
    }
    for (tid, cell) in cells {
        if !source.query(&cell.plan()).is_ok_and(|r| r.items.iter().any(|(t, _)| t == tid)) {
            failed += 1;
        }
    }
    ((queries.len() + cells.len()) as u64, failed)
}

/// `delta_mixed`'s output oracle, after the run: final answers exact
/// against a scan of the model, then the engine is dropped, the delta
/// cube reopened (WAL replay) and the same checks repeated, so every
/// acknowledged live write is shown present. Consumes the set-up and
/// returns the served files' bytes at the end of the run.
pub fn verify_delta(served: Served, live: &BTreeMap<Tid, Tuple>, tally: &mut Tally) -> u64 {
    let base = served.engine.relation().clone();
    let (model, tids) = model_relation(&base, live);
    let expected: Vec<Answer> = scan_answers(&model, &served.queries)
        .into_iter()
        .map(|a| a.into_iter().map(|(row, bits)| (tids[row as usize], bits)).collect())
        .collect();
    // A lookup of each live insert's own cell (all four conditions).
    let cells: Vec<(Tid, Query)> = live
        .iter()
        .map(|(&tid, (sel, _))| {
            let q = Query::select(sel.iter().copied().enumerate())
                .rank(Linear::uniform(RANKING_DIMS))
                .top(4096);
            (tid, q)
        })
        .collect();
    let delta = Arc::clone(served.engine.delta_cube().expect("delta registered"));
    let (n, f) = check_against_model(&delta, &served.queries, &expected, &cells);
    tally.attempted += n;
    tally.failed += f + engine_degraded(&served.engine);

    let bytes = served.file_bytes();
    let Served { engine, queries, files, .. } = served;
    let path = delta.path().to_path_buf();
    drop((engine, delta));
    match DeltaCube::open(&path, base, delta_options(&Metrics::disabled())) {
        Ok(reopened) => {
            let (n, f) = check_against_model(&reopened, &queries, &expected, &cells);
            tally.attempted += n;
            tally.failed += f;
        }
        Err(_) => {
            tally.attempted += 1;
            tally.failed += 1;
        }
    }
    for f in files {
        std::fs::remove_file(f).ok();
    }
    bytes
}
