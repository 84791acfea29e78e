//! The serving front door: an [`Engine`] owns the metering device and
//! every materialized access path over one relation, and routes each
//! [`Query`] to the best registered [`RankedSource`].
//!
//! Examples, tests and the concurrent-serving harness all go through this
//! one surface: build an engine, register the access paths you
//! materialized, then [`Engine::open`] a progressive cursor (or
//! [`Engine::query`] for a batch answer). Routing is a static preference
//! order over the paths that can answer the plan:
//!
//! 1. **Delta cube** — the signature cube of Chapter 4 (hierarchical
//!    partition + top-down search) served from its file through the LSM
//!    ingest-while-serving layer (`rcube_core::delta`): base cube +
//!    in-memory overlay of pending writes. It is the one way a signature
//!    cube is registered — with nothing pending it answers what the base
//!    alone would — and it is preferred because it is the only route that
//!    sees un-flushed inserts/deletes ([`Engine::insert`] /
//!    [`Engine::delete`]): every other cube goes stale at the first write;
//! 2. **Partitioned cube set** — grid shards, one per region of the
//!    ranking space, opened in the order of their box bounds and merged
//!    on the calling thread by the bound-driven scatter-gather cursor
//!    (`rcube_core::shard`): a pool and meter per shard, and a failure
//!    unit of one shard (see below);
//! 3. **Grid ranking cube** — covering cuboids over the selection, the
//!    paper's primary engine (materialized in full or as the linear-space
//!    ranking fragments of Section 3.4: a `CuboidSpec`, not a route). It
//!    is the same [`ShardedCube`] holding one shard, which answers with
//!    its shard's own cursor: routes 2 and 3 are one grid-family set, one
//!    per engine, labelled by its shard count;
//! 4. **Table scan** — the always-applicable fallback (built implicitly,
//!    so every well-formed query is answerable).
//!
//! # Graceful degradation
//!
//! Typed [`StorageError`]s from file-backed paths do not abort a batch
//! query ([`Engine::query`]):
//!
//! * **Transient faults** (interrupted/timed-out I/O,
//!   [`StorageError::is_transient`]) are retried on the same route with
//!   bounded exponential backoff, surfaced as
//!   `QueryStats::path_retries`.
//! * **Persistent faults** (checksum mismatches, truncation) abandon the
//!   route for the next candidate (delta → sharded → grid → scan) — down
//!   to the in-memory table scan, which always answers — counted in
//!   `QueryStats::path_fallbacks`.
//! * A route that failed persistently is **quarantined**: subsequent
//!   queries skip it until [`Engine::clear_quarantine`], or until the
//!   targeted repair of its store: [`Engine::repair_path`] for the delta
//!   cube's file, [`Engine::repair_shard`] for the grid-family set. The
//!   scan is never quarantined.
//!   [`Engine::quarantined`] lists the paths taken down and why.
//! * On the sharded route the degradation unit is the **shard**: a
//!   failed shard quarantines the route with one entry *per condemned
//!   shard* (`"shard 2: checksum mismatch…"`), and
//!   [`Engine::repair_shard`] reopens just that shard's cube file and
//!   lifts just its entries — the other shards' warm buffer pools are
//!   untouched, and the route returns to service once no entry remains.
//!
//! Degradation changes *which path* computes the answer, never the
//! answer: every route returns the same certified top-k.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rcube_baseline::TableScan;
use rcube_core::delta::DeltaCube;
use rcube_core::gridcube::{GridCubeConfig, GridRankingCube};
use rcube_core::query::{Query, QueryPlan, RankedSource, TopKCursor};
use rcube_core::shard::{FanoutReport, Shard, ShardedCube, ShardedCubeConfig};
use rcube_core::sigcube::{ScrubOutcome, SignatureCube};
use rcube_core::{MaintenanceConfig, MaintenanceScheduler, TopKResult};
use rcube_obs::{Counter, Histogram, Metrics, QueryTrace};
use rcube_storage::{DiskSim, StorageError};
use rcube_table::Relation;

use crate::observe::{AnalyzeReport, CandidatePlan, EngineStats, PlanReport, SlowQueryRecord};

/// Attempts per route on transient storage faults (1 initial + retries).
const RETRY_ATTEMPTS: u32 = 3;
/// Backoff before the first retry; doubles per subsequent attempt.
const RETRY_BACKOFF: Duration = Duration::from_millis(1);
/// Per-sleep ceiling for the retry ladder: the doubling never exceeds
/// this, so one unlucky route cannot park a query for seconds.
const RETRY_BACKOFF_MAX: Duration = Duration::from_millis(8);
/// Whole-query backoff budget across every route and attempt. Once the
/// accumulated sleep reaches this, remaining retries run back-to-back —
/// latency stays bounded even when every route is flapping.
const RETRY_BACKOFF_BUDGET: Duration = Duration::from_millis(24);
/// Most recent slow queries retained by the bounded slow-query log.
const SLOW_LOG_CAP: usize = 64;
/// Trace events retained per traced query before the ring drops old ones.
const TRACE_CAP: usize = 1024;
/// Sentinel for "slow-query log disabled" in `slow_threshold_ns`.
const SLOW_LOG_OFF: u64 = u64::MAX;

/// Which access path the engine picked for a query (introspection for
/// tests and demos).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The LSM delta cube answered via the base+overlay certified merge.
    Delta,
    /// The grid-family set of two or more shards answered via the
    /// scatter-gather merge.
    Sharded,
    /// The grid ranking cube answered: the grid-family set of one shard,
    /// through that shard's own cursor.
    Grid,
    /// The table-scan fallback answered.
    Scan,
}

impl Route {
    /// Every route, in the engine's preference order.
    pub const ALL: [Route; 4] = [Route::Delta, Route::Sharded, Route::Grid, Route::Scan];

    /// The metric-series name for this route (`query.<name>.…`).
    pub fn name(self) -> &'static str {
        match self {
            Route::Delta => "delta",
            Route::Sharded => "sharded",
            Route::Grid => "grid",
            Route::Scan => "scan",
        }
    }

    /// Position in [`Self::ALL`] (the variants are declared in that order).
    fn index(self) -> usize {
        self as usize
    }
}

/// The route a grid-family set answers on: the grid for a set of one
/// shard, the sharded route for more.
fn label(set: &ShardedCube) -> Route {
    if set.num_shards() == 1 {
        Route::Grid
    } else {
        Route::Sharded
    }
}

/// The sleep before retry `attempt` on `route`: capped exponential
/// backoff plus deterministic jitter so co-scheduled queries hitting the
/// same fault desynchronize without nondeterminism. The jitter is a
/// pure hash of (route, attempt) — identical runs sleep identically,
/// which keeps `QueryStats::backoff_ns` reproducible in tests.
fn retry_backoff(route: Route, attempt: u32) -> Duration {
    let base = RETRY_BACKOFF.saturating_mul(1u32 << (attempt - 1).min(16)).min(RETRY_BACKOFF_MAX);
    // splitmix64-style finalizer over the (route, attempt) pair.
    let mut x = ((route.index() as u64) << 32) | attempt as u64;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    // Up to +25% of the base, in 1/256 steps.
    base + base.mul_f64((x % 256) as f64 / 1024.0)
}

/// Pre-resolved per-route instruments, built once at engine
/// construction so the query path never touches the registry lock.
#[derive(Debug)]
struct RouteMetricSet {
    count: Counter,
    latency_us: Histogram,
    blocks_read: Histogram,
    tuples_scored: Histogram,
}

impl RouteMetricSet {
    fn for_route(metrics: &Metrics, route: Route) -> Self {
        let name = route.name();
        Self {
            count: metrics.counter(&format!("query.{name}.count")),
            latency_us: metrics.histogram(&format!("query.{name}.latency_us")),
            blocks_read: metrics.histogram(&format!("query.{name}.blocks_read")),
            tuples_scored: metrics.histogram(&format!("query.{name}.tuples_scored")),
        }
    }
}

/// Routes taken out of service by a persistent storage fault, with the
/// error that condemned each. The scan is never quarantined.
///
/// Routing reads this on every query, and in the serving state it is empty:
/// `len` mirrors the list's length so a router that loads zero (Acquire)
/// never touches the mutex. Every mutation goes through [`Self::update`],
/// which stores the new length (Release) before it unlocks — a thread that
/// quarantines a route and then signals another has that thread's *next*
/// query route around it.
#[derive(Debug, Default)]
struct Quarantine {
    list: Mutex<Vec<(Route, String)>>,
    len: AtomicUsize,
}

impl Quarantine {
    /// Runs `read` on the current list — without locking while it is empty.
    fn with<R>(&self, read: impl FnOnce(&[(Route, String)]) -> R) -> R {
        if self.len.load(Ordering::Acquire) == 0 {
            return read(&[]);
        }
        read(&self.list.lock().unwrap())
    }

    /// Mutates the list and publishes its new length.
    fn update(&self, change: impl FnOnce(&mut Vec<(Route, String)>)) {
        let mut list = self.list.lock().unwrap();
        change(&mut list);
        self.len.store(list.len(), Ordering::Release);
    }
}

/// One relation, one metering device, every registered access path.
#[derive(Debug)]
pub struct Engine {
    rel: Relation,
    disk: DiskSim,
    delta: Option<Arc<DeltaCube>>,
    /// The grid-family set: `Route::Grid` when it holds one shard,
    /// `Route::Sharded` when it holds more.
    cubes: Option<ShardedCube>,
    scan: TableScan,
    quarantine: Quarantine,
    /// This engine's metric registry; every registered component mirrors
    /// its counters here (pass [`Metrics::disabled`] to
    /// [`Self::with_disk_and_metrics`] to opt out at zero cost).
    metrics: Metrics,
    /// Pre-resolved per-route query instruments, indexed by
    /// [`Route::index`].
    route_metrics: [RouteMetricSet; Route::ALL.len()],
    retries_total: Counter,
    fallbacks_total: Counter,
    quarantines_total: Counter,
    slow_total: Counter,
    /// Slow-query threshold in nanoseconds; [`SLOW_LOG_OFF`] disables
    /// capture (the default).
    slow_threshold_ns: AtomicU64,
    /// Bounded ring of the most recent slow queries.
    slow_log: Mutex<VecDeque<SlowQueryRecord>>,
}

impl Engine {
    /// An engine over `rel` with the thesis-default simulated device and
    /// the table-scan fallback; register cubes with the `with_*` builders.
    pub fn new(rel: Relation) -> Self {
        Self::with_disk(rel, DiskSim::with_defaults())
    }

    /// [`Self::new`] with an explicit device (page size, buffer budget).
    /// Metrics land in a fresh per-engine registry.
    pub fn with_disk(rel: Relation, disk: DiskSim) -> Self {
        Self::with_disk_and_metrics(rel, disk, Metrics::new())
    }

    /// [`Self::with_disk`] with an explicit metric registry: pass
    /// [`Metrics::global`] to aggregate across engines, or
    /// [`Metrics::disabled`] to make every instrument a no-op handle.
    pub fn with_disk_and_metrics(rel: Relation, disk: DiskSim, metrics: Metrics) -> Self {
        disk.attach_metrics(&metrics);
        let scan = TableScan::new(&rel, &disk);
        let route_metrics = Route::ALL.map(|r| RouteMetricSet::for_route(&metrics, r));
        let retries_total = metrics.counter("query.retries");
        let fallbacks_total = metrics.counter("query.fallbacks");
        let quarantines_total = metrics.counter("query.quarantines");
        let slow_total = metrics.counter("query.slow.count");
        Self {
            rel,
            disk,
            delta: None,
            cubes: None,
            scan,
            quarantine: Quarantine::default(),
            metrics,
            route_metrics,
            retries_total,
            fallbacks_total,
            quarantines_total,
            slow_total,
            slow_threshold_ns: AtomicU64::new(SLOW_LOG_OFF),
            slow_log: Mutex::new(VecDeque::new()),
        }
    }

    /// Registers an opened [`DeltaCube`] (the LSM ingest-while-serving
    /// layer over a persistent signature cube file — how a signature cube
    /// is served) as the most-preferred route and enables the writer API
    /// ([`Self::insert`] / [`Self::delete`]). The `Arc` is shared with
    /// whoever drives background flushes — typically the maintenance
    /// scheduler ([`Self::start_maintenance`]).
    pub fn with_delta(mut self, delta: Arc<DeltaCube>) -> Self {
        self.delta = Some(delta);
        self
    }

    /// Builds a grid-family cube set over the relation (`config.shards`
    /// region shards, each with its own pool and meter) and registers it
    /// with [`Self::with_prebuilt_sharded`].
    pub fn with_sharded_cube(self, config: ShardedCubeConfig) -> Self {
        let cube = ShardedCube::build_in_memory(&self.rel, &config);
        self.with_prebuilt_sharded(cube)
    }

    /// Registers an already-materialized grid-family set (e.g. reopened
    /// from its shard manifest via `ShardedCube::open_from`), replacing
    /// any set registered before: an engine serves one. A set of one
    /// shard is the grid route, its pool mirrored under `grid.pool.…`; a
    /// larger one is the sharded route, its per-shard activity under
    /// `sharded.shard<i>.…`.
    pub fn with_prebuilt_sharded(mut self, cube: ShardedCube) -> Self {
        cube.attach_metrics(&self.metrics);
        self.cubes = Some(cube);
        self
    }

    /// Materializes a grid ranking cube — a set of one shard, whose I/O
    /// its own meter counts — and registers it as the grid route.
    pub fn with_grid_cube(self, config: GridCubeConfig) -> Self {
        self.with_sharded_cube(ShardedCubeConfig { shards: 1, grid: config, ..Default::default() })
    }

    /// Registers an already-materialized grid cube over the whole
    /// relation (e.g. reopened from a cube file) as the grid route: the
    /// set of one [`ShardedCube::of_grid`] makes of it.
    pub fn with_prebuilt_grid(self, cube: GridRankingCube) -> Self {
        let cube = ShardedCube::of_grid(&self.rel, cube);
        self.with_prebuilt_sharded(cube)
    }

    /// The relation being served.
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// The metering device (I/O counters, buffer control).
    pub fn disk(&self) -> &DiskSim {
        &self.disk
    }

    /// The registered delta cube, if any.
    pub fn delta_cube(&self) -> Option<&Arc<DeltaCube>> {
        self.delta.as_ref()
    }

    /// Ingests one tuple through the registered delta cube: durable in
    /// its WAL before returning, visible to every query opened
    /// afterwards (cursors already open keep their snapshot). Returns
    /// the allocated tid; fails with a typed error when no delta cube is
    /// registered.
    pub fn insert(&self, sel: &[u32], point: &[f64]) -> Result<rcube_table::Tid, StorageError> {
        self.delta
            .as_ref()
            .ok_or(StorageError::Malformed("no delta cube is registered"))?
            .insert(sel, point)
    }

    /// Deletes a tuple by tid through the registered delta cube — a base
    /// tuple, a flushed delta tuple, or a pending insert. Same
    /// durability/visibility contract as [`Self::insert`].
    pub fn delete(&self, tid: rcube_table::Tid) -> Result<(), StorageError> {
        self.delta
            .as_ref()
            .ok_or(StorageError::Malformed("no delta cube is registered"))?
            .delete(tid)
    }

    /// The registered grid-family set, whatever its shard count.
    pub fn sharded_cube(&self) -> Option<&ShardedCube> {
        self.cubes.as_ref()
    }

    /// The registered grid cube: the only shard's cube when the set holds
    /// one, else `None`.
    pub fn grid_cube(&self) -> Option<&GridRankingCube> {
        match self.cubes.as_ref()?.shards() {
            [shard] => Some(shard.cube()),
            _ => None,
        }
    }

    /// The registered set when `route` is its label (the grid for a set of
    /// one shard, else the sharded route).
    fn set_on(&self, route: Route) -> Option<&ShardedCube> {
        self.cubes.as_ref().filter(|c| label(c) == route)
    }

    /// Whether `query` pins the grid-family set with an explicit
    /// `via_cuboids` cover. A cover only means anything to the grid
    /// engines, so a pin without a registered set — or one whose partition
    /// misses a ranking dimension — panics rather than silently dropping
    /// the cover.
    fn pins_cover(&self, plan: &QueryPlan<'_>) -> bool {
        if plan.cuboids.is_none() {
            return false;
        }
        let set = self.cubes.as_ref().expect("via_cuboids requires a registered grid cube");
        let grid = set.shards()[0].cube();
        assert!(
            plan.ranking_dims.iter().all(|d| grid.ranking_dims().contains(d)),
            "via_cuboids query ranks on dimensions the grid partition does not cover"
        );
        true
    }

    /// One route's standing for `plan`: whether anything is registered on
    /// it, whether that covers the plan's selection and ranking dimensions,
    /// and the fault that quarantined it (`down` is the quarantine list, as
    /// [`Quarantine::with`] lends it). The one place the pin, the sources'
    /// `can_answer` and the quarantine list are combined: the router
    /// filters on it ([`Self::viable`]) and [`Self::consider`] renders it,
    /// so the plan a report shows is the plan the router executes. A pinned
    /// query stands on the grid-family set alone.
    fn standing<'d>(
        &self,
        route: Route,
        plan: &QueryPlan<'_>,
        down: &'d [(Route, String)],
    ) -> (bool, bool, Option<&'d str>) {
        if self.pins_cover(plan) {
            let on = self.set_on(route).is_some();
            return (on, on, None);
        }
        let (sel, dims) = (plan.selection, plan.ranking_dims);
        let covers = match route {
            Route::Delta => self.delta.as_ref().map(|d| d.can_answer(sel, dims)),
            Route::Sharded | Route::Grid => self.set_on(route).map(|c| c.can_answer(sel, dims)),
            Route::Scan => Some(true),
        };
        let why = down.iter().find(|(q, _)| *q == route).map(|(_, why)| why.as_str());
        (covers.is_some(), covers == Some(true), why)
    }

    /// Whether the retry/fallback ladder may try `route` for `plan`.
    fn viable(&self, route: Route, plan: &QueryPlan<'_>, down: &[(Route, String)]) -> bool {
        matches!(self.standing(route, plan, down), (true, true, None))
    }

    /// Every route's standing for `plan`, in preference order: the rows of
    /// [`Self::explain`].
    fn consider(&self, plan: &QueryPlan<'_>) -> Vec<CandidatePlan> {
        let pinned = self.pins_cover(plan);
        let mut chosen_yet = false;
        let rows = self.quarantine.with(|down| {
            Route::ALL.map(|route| {
                let (registered, eligible, why) = self.standing(route, plan, down);
                let quarantined = why.map(str::to_owned);
                let mut row = CandidatePlan {
                    route,
                    registered,
                    eligible,
                    quarantined,
                    chosen: false,
                    pinned,
                };
                row.chosen = row.viable() && !chosen_yet;
                chosen_yet |= row.chosen;
                row
            })
        });
        rows.into()
    }

    /// Candidate routes for `plan`, best first: every registered,
    /// non-quarantined source that can answer it, always ending with the
    /// table scan. An explicit `via_cuboids` pin returns the grid-family
    /// set's route alone — degrading a pinned query to another path would silently
    /// drop its cover.
    fn candidates(&self, plan: &QueryPlan<'_>) -> Vec<Route> {
        self.quarantine.with(|down| {
            Route::ALL.into_iter().filter(|&route| self.viable(route, plan, down)).collect()
        })
    }

    /// The first of [`Self::candidates`], without collecting the rest.
    fn route_for(&self, plan: &QueryPlan<'_>) -> Route {
        self.quarantine
            .with(|down| Route::ALL.into_iter().find(|&r| self.viable(r, plan, down)))
            .expect("the scan is viable")
    }

    /// The access path [`Self::open`] will use for `query` — the first
    /// registered source (in preference order) that can answer its plan,
    /// skipping quarantined paths.
    ///
    /// An explicit cuboid cover (`via_cuboids`) only means anything to the
    /// grid engines, so it pins the route to the grid-family set, whatever
    /// its shard count (panicking when none is registered or its partition
    /// misses a ranking dimension), rather than silently dropping the
    /// cover on another path.
    pub fn route(&self, query: &Query) -> Route {
        self.route_for(&query.plan())
    }

    /// Opens a cursor on one specific route.
    fn open_route<'e>(
        &'e self,
        route: Route,
        plan: &QueryPlan<'e>,
    ) -> Result<TopKCursor<'e>, StorageError> {
        match route {
            Route::Delta => self.delta.as_ref().expect("routed to delta").source().open(plan),
            Route::Sharded | Route::Grid => {
                self.cubes.as_ref().expect("routed to the grid-family set").source().open(plan)
            }
            Route::Scan => self.scan.source(&self.rel, &self.disk).open(plan),
        }
    }

    /// Opens a resumable progressive cursor for `query` on the best
    /// registered source. Answers stream in ascending score order;
    /// `extend_k` paginates without re-running (see
    /// `rcube_core::query` for the full contract). Storage faults during
    /// streaming surface to the caller; [`Self::query`] adds the
    /// retry/fallback orchestration for batch answers.
    pub fn open<'e>(&'e self, query: &'e Query) -> Result<TopKCursor<'e>, StorageError> {
        let plan = query.plan();
        let route = self.route_for(&plan);
        self.route_metrics[route.index()].count.inc();
        self.open_route(route, &plan)
    }

    /// Batch answer: open, drain `k` answers, return the result, with
    /// graceful degradation (module docs): transient faults retry on the
    /// same route with bounded backoff, persistent faults quarantine the
    /// route and fall back to the next candidate, down to the
    /// always-available scan. The downgrade is visible in the result's
    /// `QueryStats` (`path_retries`, `path_fallbacks`); an error escapes
    /// only when the scan itself fails.
    pub fn query(&self, query: &Query) -> Result<TopKResult, StorageError> {
        let threshold = self.slow_threshold_ns.load(Ordering::Relaxed);
        let trace = (threshold != SLOW_LOG_OFF).then(|| Arc::new(QueryTrace::new(TRACE_CAP)));
        let start = Instant::now();
        let (res, route, _) = self.run_traced(query, trace.as_ref())?;
        let wall = start.elapsed();
        self.record_query(route, wall, &res);
        if wall.as_nanos() as u64 >= threshold {
            self.capture_slow(query, route, wall, &res, trace.as_deref());
        }
        Ok(res)
    }

    /// [`Self::query`]; the end-to-end benchmark harness calls it by this
    /// name.
    pub fn try_query(&self, query: &Query) -> Result<TopKResult, StorageError> {
        self.query(query)
    }

    /// The retry/fallback ladder behind [`Self::query`] and
    /// [`Self::explain_analyze`]: runs `query` to completion, attaching
    /// `trace` (when given) to the answering cursor so every pull lands
    /// in the trace ring. Returns the result, the route that actually
    /// answered and — from the answering cursor itself — its fan-out when
    /// that route is the shard set.
    fn run_traced(
        &self,
        query: &Query,
        trace: Option<&Arc<QueryTrace>>,
    ) -> Result<(TopKResult, Route, Option<FanoutReport>), StorageError> {
        let plan = query.plan();
        let mut retries = 0u64;
        let mut fallbacks = 0u64;
        let mut backoff_spent = Duration::ZERO;
        let mut last_err = None;
        for route in self.candidates(&plan) {
            let mut attempt = 1;
            loop {
                let run = self.open_route(route, &plan).and_then(|mut c| {
                    if let Some(t) = trace {
                        c.attach_trace(Arc::clone(t));
                    }
                    let res = c.try_drain()?;
                    Ok((res, c.fanout()))
                });
                match run {
                    Ok((mut res, fanout)) => {
                        res.stats.path_retries = retries;
                        res.stats.path_fallbacks = fallbacks;
                        res.stats.backoff_ns = backoff_spent.as_nanos() as u64;
                        self.retries_total.add(retries);
                        self.fallbacks_total.add(fallbacks);
                        return Ok((res, route, fanout));
                    }
                    Err(e) if e.is_transient() && attempt < RETRY_ATTEMPTS => {
                        // Capped + jittered sleep, charged against the
                        // whole-query budget: past it, retry immediately.
                        let sleep = retry_backoff(route, attempt)
                            .min(RETRY_BACKOFF_BUDGET.saturating_sub(backoff_spent));
                        attempt += 1;
                        retries += 1;
                        if sleep > Duration::ZERO {
                            std::thread::sleep(sleep);
                            backoff_spent += sleep;
                        }
                    }
                    Err(e) => {
                        if route == Route::Scan {
                            return Err(e);
                        }
                        // Persistent (or retry-exhausted) fault: take the
                        // route out of service and degrade to the next.
                        // On the sharded route the condemnation is per
                        // shard — one entry per failed shard, so repair
                        // can lift them one shard at a time.
                        let failed =
                            self.set_on(route).map(|c| c.failed_shards()).unwrap_or_default();
                        self.quarantine.update(|down| {
                            if failed.is_empty() {
                                down.push((route, e.to_string()));
                            } else {
                                for (i, msg) in failed {
                                    down.push((route, format!("shard {i}: {msg}")));
                                }
                            }
                        });
                        self.quarantines_total.inc();
                        fallbacks += 1;
                        last_err = Some(e);
                        break;
                    }
                }
            }
        }
        // Unreachable when candidates end with the scan; a pinned
        // via_cuboids query has no fallback and surfaces its fault.
        Err(last_err.expect("no candidate route"))
    }

    /// Lands one answered query in the per-route instruments.
    fn record_query(&self, route: Route, wall: Duration, res: &TopKResult) {
        let rm = &self.route_metrics[route.index()];
        rm.count.inc();
        rm.latency_us.record(wall.as_micros() as u64);
        rm.blocks_read.record(res.stats.blocks_read);
        rm.tuples_scored.record(res.stats.tuples_scored);
    }

    /// Pushes a slow-query record into the bounded log.
    fn capture_slow(
        &self,
        query: &Query,
        route: Route,
        wall: Duration,
        res: &TopKResult,
        trace: Option<&QueryTrace>,
    ) {
        self.slow_total.inc();
        let record = SlowQueryRecord {
            query: format!("{query:?}"),
            route,
            wall,
            stats: res.stats,
            plan: self.explain(query),
            events: trace.map(|t| t.events()).unwrap_or_default(),
        };
        let mut log = self.slow_log.lock().unwrap();
        if log.len() == SLOW_LOG_CAP {
            log.pop_front();
        }
        log.push_back(record);
    }

    /// Routes currently out of service after a persistent storage fault,
    /// with the error that condemned each.
    pub fn quarantined(&self) -> Vec<(Route, String)> {
        self.quarantine.with(<[_]>::to_vec)
    }

    /// Returns every quarantined route to service (call after repairing
    /// the underlying store, e.g. a scrub/rollback or vacuum).
    pub fn clear_quarantine(&self) {
        self.quarantine.update(Vec::clear);
    }

    /// Repairs the signature cube file backing `route` and returns *that
    /// route alone* to service: runs [`SignatureCube::scrub_path`]
    /// (generation election plus rollback of a torn newest generation),
    /// then clears only `route`'s quarantine entries — other condemned
    /// routes stay down until their own repair. The targeted alternative
    /// to the blanket [`Self::clear_quarantine`]. The grid and sharded
    /// routes are a typed error: their files are grid cubes, repaired by
    /// [`Self::repair_shard`].
    pub fn repair_path(
        &self,
        route: Route,
        path: impl AsRef<std::path::Path>,
    ) -> Result<ScrubOutcome, StorageError> {
        if matches!(route, Route::Grid | Route::Sharded) {
            return Err(StorageError::Malformed("grid routes are repaired by repair_shard"));
        }
        let outcome = SignatureCube::scrub_path(path)?;
        self.quarantine.update(|down| down.retain(|(q, _)| *q != route));
        Ok(outcome)
    }

    /// Repairs one failed shard of the registered grid-family set:
    /// reopens just that shard's cube file (verifying its integrity),
    /// clears its health entry, and lifts *its* quarantine entries under
    /// the set's label — other condemned shards stay down until their own
    /// repair, and the healthy shards' warm buffer pools are untouched.
    /// The route returns to service once no entry remains; a set of one
    /// (the grid route) returns at once.
    pub fn repair_shard(&mut self, shard: usize) -> Result<(), StorageError> {
        let cube = self
            .cubes
            .as_mut()
            .ok_or(StorageError::Malformed("no sharded cube set is registered"))?;
        cube.repair_shard(shard)?;
        let (set, prefix) = (label(cube), format!("shard {shard}:"));
        let healthy = cube.failed_shards().is_empty();
        self.quarantine.update(|down| {
            down.retain(|(route, why)| *route != set || (!healthy && !why.starts_with(&prefix)))
        });
        Ok(())
    }

    /// Starts the background maintenance daemon for the registered delta
    /// cube, recording into this engine's metric registry: it folds pending
    /// writes into the cube file past `config.flush_watermark_ops` (the LSM
    /// background merge) and vacuums the file past
    /// `config.watermark_pages` (`maintenance.vacuums`,
    /// `maintenance.pages_reclaimed`, `maintenance.vacuum_duration_us`,
    /// `maintenance.lock_contention`), after which the delta serves the
    /// compacted file. Stop (or drop) the returned scheduler to join its
    /// thread. Fails with a typed error when no delta cube is registered.
    pub fn start_maintenance(
        &self,
        config: MaintenanceConfig,
    ) -> Result<MaintenanceScheduler, StorageError> {
        let delta =
            self.delta.as_ref().ok_or(StorageError::Malformed("no delta cube is registered"))?;
        Ok(MaintenanceScheduler::start(config, self.metrics.clone(), Arc::clone(delta)))
    }

    /// This engine's metric registry — snapshot it for Prometheus/JSON
    /// export, or hand it to components built outside the engine.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// EXPLAIN: how `query` *would* execute — candidate paths with
    /// elimination reasons, quarantine state, the chosen route, and the
    /// optimizer's cardinality estimate — computed **without running the
    /// query** (no I/O is charged, no cursor is opened).
    pub fn explain(&self, query: &Query) -> PlanReport {
        let plan = query.plan();
        let estimated_selectivity = plan.selection.estimated_selectivity(&self.rel);
        let candidates = self.consider(&plan);
        let route = candidates
            .iter()
            .find(|c| c.chosen)
            .map(|c| c.route)
            .expect("candidates always include the scan");
        PlanReport {
            query: format!("{query:?}"),
            k: plan.k,
            selection: plan.selection.conds().to_vec(),
            ranking_dims: plan.ranking_dims.to_vec(),
            relation_tuples: self.rel.len(),
            estimated_selectivity,
            estimated_matches: estimated_selectivity * self.rel.len() as f64,
            candidates,
            route,
        }
    }

    /// EXPLAIN ANALYZE: [`Self::explain`], then run the query with a
    /// trace attached and join the plan with what actually happened —
    /// the executed route, the answering cursor's exact [`QueryStats`],
    /// wall-clock time, and the full event trace. The report's `stats`
    /// are taken verbatim from the cursor, so its counters reconcile
    /// exactly with the trace deltas (`cursor.attach` + Σ pull deltas) —
    /// and so is the sharded route's fan-out (`TopKCursor::fanout`), which
    /// is therefore this query's under any number of concurrent clients.
    ///
    /// [`QueryStats`]: rcube_core::QueryStats
    pub fn explain_analyze(&self, query: &Query) -> Result<AnalyzeReport, StorageError> {
        let plan = self.explain(query);
        let trace = Arc::new(QueryTrace::new(TRACE_CAP));
        let start = Instant::now();
        let (res, executed, fanout) = self.run_traced(query, Some(&trace))?;
        let wall = start.elapsed();
        self.record_query(executed, wall, &res);
        // The delta cursor's stats carry the memtable-vs-base split.
        let delta = (executed == Route::Delta).then_some(crate::observe::DeltaContribution {
            memtable_answers: res.stats.delta_mem_answers,
            base_answers: res.stats.delta_base_answers,
            masked: res.stats.delta_masked,
        });
        Ok(AnalyzeReport {
            plan,
            executed,
            items: res.items,
            stats: res.stats,
            wall,
            events: trace.events(),
            fanout,
            delta,
        })
    }

    /// Arms the slow-query log: any [`Self::query`] taking at least
    /// `threshold` wall-clock is captured with its full trace and plan
    /// report (bounded to the most recent 64). A zero threshold captures
    /// everything — handy in tests and demos.
    pub fn set_slow_query_log(&self, threshold: Duration) {
        self.slow_threshold_ns.store(threshold.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Disarms the slow-query log (captured records are kept).
    pub fn disable_slow_query_log(&self) {
        self.slow_threshold_ns.store(SLOW_LOG_OFF, Ordering::Relaxed);
    }

    /// The captured slow queries, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQueryRecord> {
        self.slow_log.lock().unwrap().iter().cloned().collect()
    }

    /// Empties the slow-query log.
    pub fn clear_slow_queries(&self) {
        self.slow_log.lock().unwrap().clear();
    }

    /// One aggregated point-in-time view of the engine: device I/O (the
    /// engine's device plus every shard's meter), per-path buffer pools,
    /// the delta's serving signature node cache, quarantine state,
    /// slow-log depth, and a snapshot of every metric series in the
    /// registry.
    pub fn stats_snapshot(&self) -> EngineStats {
        let shards = self.cubes.as_ref().map_or(&[][..], ShardedCube::shards);
        EngineStats {
            io: shards.iter().map(Shard::io).fold(self.disk.stats().snapshot(), |a, b| a + b),
            delta: self.delta.as_ref().map(|d| d.stats()),
            sharded_shards: self.set_on(Route::Sharded).map(ShardedCube::num_shards),
            sharded_failed: self.cubes.as_ref().map(|c| c.failed_shards()).unwrap_or_default(),
            grid_pool: self.grid_cube().and_then(|g| g.pool_stats()),
            signature_pool: self.delta.as_ref().and_then(|d| d.serving_cube().pool_stats()),
            node_cache: self.delta.as_ref().map(|d| d.serving_cube().node_cache().stats()),
            quarantined: self.quarantined(),
            slow_queries: self.slow_log.lock().unwrap().len(),
            metrics: self.metrics.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_core::delta::{wal_path_for, DeltaOptions};
    use rcube_core::query::Query;
    use rcube_core::sigcube::SignatureCubeConfig;
    use rcube_func::Linear;
    use rcube_index::rtree::{RTree, RTreeConfig};
    use rcube_storage::{FaultPlan, FileBackend};
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::Selection;

    fn engine(tuples: usize) -> Engine {
        let rel = SyntheticSpec { tuples, cardinality: 5, ..Default::default() }.generate();
        Engine::new(rel).with_grid_cube(GridCubeConfig { block_size: 64, ..Default::default() })
    }

    /// A signature cube file under the temp dir, removed with its WAL on
    /// drop.
    struct TempCube(std::path::PathBuf);

    impl TempCube {
        /// Saves a signature cube over `rel` to a fresh temp file.
        fn save(rel: &Relation, tag: &str) -> Self {
            static FILES: AtomicUsize = AtomicUsize::new(0);
            let n = FILES.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("rcube_engine_{tag}_{}_{n}", std::process::id()));
            let disk = DiskSim::with_defaults();
            let rtree = RTree::over_relation(&disk, rel, &[], RTreeConfig::small(16));
            let cube = SignatureCube::build(rel, &rtree, &disk, SignatureCubeConfig::default());
            cube.save_to_with(&rtree, &path, 512, 64).expect("save cube file");
            Self(path)
        }
    }

    impl Drop for TempCube {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
            std::fs::remove_file(wal_path_for(&self.0)).ok();
        }
    }

    /// An engine whose only cube is a delta cube over a signature cube
    /// file, every read of which goes through the returned fault plan.
    fn faulted_delta_engine(tuples: usize) -> (Engine, Arc<FaultPlan>, TempCube) {
        let rel = SyntheticSpec { tuples, cardinality: 4, ..Default::default() }.generate();
        let file = TempCube::save(&rel, "faulted");
        let faults = FaultPlan::new();
        let opts = DeltaOptions { faults: Some(Arc::clone(&faults)), ..Default::default() };
        let delta = DeltaCube::open(&file.0, rel.clone(), opts).expect("open delta cube");
        (Engine::new(rel).with_delta(Arc::new(delta)), faults, file)
    }

    /// Flips a byte of every partial of the probed cell `(0 = 1)` as the
    /// media returns it: the delta route fails a checksum on first touch.
    fn corrupt_probed_cell(eng: &Engine, faults: &FaultPlan) {
        let delta = eng.delta_cube().expect("registered");
        let page_size = FileBackend::peek_superblock(delta.path()).expect("peek").page_size;
        let serving = delta.serving_cube();
        let cell = serving.cell_signature(&[0], &[1]).expect("cell");
        for page in cell.partial_pages() {
            faults.corrupt_byte(page.0 * u64::from(page_size) + 16, 0x01);
        }
    }

    #[test]
    fn routes_prefer_grid_then_fall_back_to_scan() {
        let eng = engine(800);
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(5);
        assert_eq!(eng.route(&q), Route::Grid);

        // A grid whose partition covers only ranking dim 0 cannot answer a
        // query ranking on dim 1: the engine must fall through to the scan.
        let rel = SyntheticSpec { tuples: 800, cardinality: 5, ..Default::default() }.generate();
        let narrow = Engine::new(rel).with_grid_cube(GridCubeConfig {
            block_size: 64,
            ranking_dims: vec![0],
            ..Default::default()
        });
        let q1 = Query::select([(0, 1)]).rank_on(vec![1], Linear::uniform(1)).top(5);
        assert_eq!(narrow.route(&q1), Route::Scan);
        let res = narrow.query(&q1).unwrap();
        assert!(!res.items.is_empty(), "scan fallback must still answer");
        let q0 = Query::select([(0, 1)]).rank_on(vec![0], Linear::uniform(1)).top(5);
        assert_eq!(narrow.route(&q0), Route::Grid, "covered dims stay on the cube");

        // An explicit cuboid cover pins the route to the grid engine.
        let qc = Query::select([(0, 1)]).rank(Linear::uniform(2)).via_cuboids(vec![vec![0]]).top(5);
        assert_eq!(eng.route(&qc), Route::Grid);
        assert_eq!(
            eng.query(&qc).unwrap().items,
            eng.query(&q).unwrap().items,
            "cover {{0}} answers identically"
        );
    }

    #[test]
    fn sharded_route_is_preferred_and_answers_identically() {
        use rcube_core::shard::ShardedCubeConfig;

        let rel = SyntheticSpec { tuples: 1_200, cardinality: 5, ..Default::default() }.generate();
        let unsharded = Engine::new(rel.clone())
            .with_grid_cube(GridCubeConfig { block_size: 64, ..Default::default() });
        let three = ShardedCubeConfig { shards: 3, ..Default::default() };
        let eng = Engine::new(rel.clone()).with_sharded_cube(three.clone());

        let q = Query::select([(0, 2)]).rank(Linear::uniform(2)).top(9);
        assert_eq!(unsharded.route(&q), Route::Grid, "a set of one is the grid");
        assert_eq!(eng.route(&q), Route::Sharded, "a set of three is the sharded route");
        assert!(eng.grid_cube().is_none() && unsharded.grid_cube().is_some());
        // An engine serves one grid-family set: a second replaces the first.
        let replaced =
            Engine::new(rel).with_grid_cube(GridCubeConfig::default()).with_sharded_cube(three);
        assert_eq!(replaced.route(&q), Route::Sharded);
        assert!(replaced.grid_cube().is_none());
        let got = eng.query(&q).unwrap();
        assert_eq!(got.items, unsharded.query(&q).unwrap().items, "scatter-gather changes nothing");
        // A shard opens iff its box bound reaches the k-th answer.
        let (plan, kth) = (q.plan(), got.items[8].1);
        let set = eng.sharded_cube().expect("registered");
        let reach = |s: &rcube_core::shard::Shard| {
            plan.func.lower_bound(&s.region().project(plan.ranking_dims)) <= kth
        };
        let predicted = set.shards().iter().filter(|s| reach(s)).count();
        assert_eq!(got.stats.shards_opened, predicted as u64, "fan-out surfaces in the stats");

        // EXPLAIN ANALYZE reports the fan-out alongside the trace.
        let report = eng.explain_analyze(&q).expect("healthy engine");
        assert_eq!(report.executed, Route::Sharded);
        let fanout = report.fanout.as_ref().expect("sharded run records a fan-out");
        assert_eq!(fanout.shards.len(), 3);
        assert_eq!(fanout.opened(), predicted);
        assert!(report.to_string().contains("fan-out"), "Display renders the fan-out");

        // An explicit cuboid cover stands on whichever set is registered.
        let qc = Query::select([(0, 2)]).rank(Linear::uniform(2)).via_cuboids(vec![vec![0]]).top(9);
        assert_eq!(eng.route(&qc), Route::Sharded);
        assert_eq!(unsharded.route(&qc), Route::Grid);
        let pinned = eng.query(&qc).unwrap();
        assert_eq!(pinned.items, unsharded.query(&qc).unwrap().items, "the pin holds per shard");
        assert_eq!(pinned.items, got.items, "cover {{0}} answers identically");
    }

    #[test]
    fn engine_answers_match_naive_scan() {
        let eng = engine(1_500);
        let q = Query::select([(0, 1), (1, 2)]).rank(Linear::uniform(2)).top(10);
        let got = eng.query(&q).unwrap();
        let sel = Selection::new(vec![(0, 1), (1, 2)]);
        let rel = eng.relation();
        let mut want: Vec<f64> = rel
            .tids()
            .filter(|&t| sel.matches(rel, t))
            .map(|t| rel.ranking_value(t, 0) + rel.ranking_value(t, 1))
            .collect();
        want.sort_by(f64::total_cmp);
        want.truncate(10);
        assert_eq!(got.items.len(), want.len());
        for (g, w) in got.scores().iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn cursor_streams_and_extends_through_the_engine() {
        let eng = engine(2_000);
        let q = Query::select([(0, 2)]).rank(Linear::new(vec![0.7, 0.3])).top(5);
        let mut cursor = eng.open(&q).expect("open");
        let first: Vec<_> = cursor.by_ref().collect();
        assert_eq!(first.len(), 5);
        let io_at_5 = cursor.stats().blocks_read;
        cursor.extend_k(5);
        let rest: Vec<_> = cursor.by_ref().collect();
        assert_eq!(rest.len(), 5);
        // Resumed pagination: answers keep ascending across the boundary.
        assert!(first.last().unwrap().1 <= rest.first().unwrap().1);

        // A fresh top-10 run reads at least as much as the extension did.
        let q10 = Query::select([(0, 2)]).rank(Linear::new(vec![0.7, 0.3])).top(10);
        let fresh = eng.query(&q10).unwrap();
        let both: Vec<_> = first.iter().chain(&rest).map(|&(t, s)| (t, s)).collect();
        assert_eq!(fresh.items, both, "split+extend must equal a fresh top-10");
        assert!(
            cursor.stats().blocks_read - io_at_5 <= fresh.stats.blocks_read,
            "resuming must not read more than re-running"
        );
    }

    #[test]
    fn unregistered_paths_fall_back_to_scan() {
        let rel = SyntheticSpec { tuples: 300, ..Default::default() }.generate();
        let eng = Engine::new(rel);
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(4);
        assert_eq!(eng.route(&q), Route::Scan);
        let res = eng.query(&q).unwrap();
        assert!(res.items.len() <= 4);
        assert!(res.stats.blocks_read > 0, "scan charges page reads");
    }

    #[test]
    fn transient_faults_are_retried_not_fatal() {
        let (eng, faults, _file) = faulted_delta_engine(600);
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(5);
        assert_eq!(eng.route(&q), Route::Delta);

        // Two injected transient failures: attempt 1 and 2 die, 3 answers.
        faults.fail_next_reads(2);
        let res = eng.query(&q).expect("transient faults must be absorbed by retry");
        assert_eq!(res.stats.path_retries, 2, "both retries surfaced in stats");
        assert_eq!(res.stats.path_fallbacks, 0, "the route itself recovered");
        assert!(eng.quarantined().is_empty(), "transient faults must not quarantine");

        // Same answers as a fault-free run.
        let clean = eng.query(&q).expect("clean run");
        assert_eq!(res.items, clean.items);
        assert_eq!(clean.stats.path_retries, 0);
    }

    #[test]
    fn persistent_fault_degrades_to_scan_and_quarantines() {
        let (eng, faults, _file) = faulted_delta_engine(700);
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(8);

        // Corrupt every partial of the probed cell: the delta route now
        // fails with a (non-transient) checksum error on first touch.
        corrupt_probed_cell(&eng, &faults);

        let degraded = eng.query(&q).expect("scan fallback must answer");
        assert_eq!(degraded.stats.path_fallbacks, 1, "one route abandoned");
        let quarantined = eng.quarantined();
        assert_eq!(quarantined.len(), 1);
        assert_eq!(quarantined[0].0, Route::Delta);
        assert!(quarantined[0].1.contains("checksum"), "reason recorded: {}", quarantined[0].1);

        // Degradation changed the path, not the answer.
        let scan_only = Engine::new(
            SyntheticSpec { tuples: 700, cardinality: 4, ..Default::default() }.generate(),
        );
        assert_eq!(degraded.items, scan_only.query(&q).unwrap().items);

        // Subsequent queries skip the quarantined route up front, and the
        // plan says why…
        assert_eq!(eng.route(&q), Route::Scan);
        let rows: Vec<String> =
            eng.explain(&q).to_string().lines().skip(3).map(str::to_owned).collect();
        let why = &quarantined[0].1;
        assert_eq!(
            rows,
            [
                format!("     Delta     skipped: quarantined ({why})"),
                "     Sharded   skipped: not registered".to_owned(),
                "     Grid      skipped: not registered".to_owned(),
                "  -> Scan      chosen: always-applicable fallback".to_owned(),
                "  route: Scan".to_owned()
            ]
        );
        // …until the store is healed and the quarantine lifted.
        faults.heal();
        eng.clear_quarantine();
        assert_eq!(eng.route(&q), Route::Delta);
        let healed = eng.query(&q).expect("healed route serves again");
        assert_eq!(healed.items, degraded.items);
        assert_eq!(healed.stats.path_fallbacks, 0);
    }

    #[test]
    fn retry_backoff_is_capped_jittered_and_deterministic() {
        for route in Route::ALL {
            for attempt in 1..=8u32 {
                let a = retry_backoff(route, attempt);
                let b = retry_backoff(route, attempt);
                assert_eq!(a, b, "same (route, attempt) must sleep identically");
                // Jitter adds at most 25% over the capped base.
                assert!(
                    a <= RETRY_BACKOFF_MAX.mul_f64(1.25),
                    "attempt {attempt} on {route:?} slept {a:?}, past the cap"
                );
                assert!(a >= RETRY_BACKOFF, "backoff never shrinks below the base");
            }
        }
        // The jitter actually desynchronizes routes: not every route
        // sleeps the same duration on the same attempt.
        let sleeps: Vec<_> = Route::ALL.iter().map(|&r| retry_backoff(r, 1)).collect();
        assert!(sleeps.windows(2).any(|w| w[0] != w[1]), "jitter must vary by route");
    }

    #[test]
    fn transient_faults_surface_bounded_deterministic_backoff() {
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(5);
        // Fresh engine per run: a warmed buffer pool would absorb the
        // scripted faults without touching the backend.
        let run = || {
            let (eng, faults, _file) = faulted_delta_engine(600);
            faults.fail_next_reads(2);
            eng.query(&q).expect("retries absorb the faults")
        };

        let first = run();
        assert_eq!(first.stats.path_retries, 2);
        assert!(first.stats.backoff_ns > 0, "retried query must report its backoff");
        assert!(
            first.stats.backoff_ns <= RETRY_BACKOFF_BUDGET.as_nanos() as u64,
            "backoff {}ns exceeds the whole-query budget",
            first.stats.backoff_ns
        );

        // Identical fault script → identical reported backoff (the stat
        // records the requested sleeps, not wall-clock noise).
        let second = run();
        assert_eq!(first.stats.backoff_ns, second.stats.backoff_ns);

        // The fast path reports zero.
        let (eng, _, _file) = faulted_delta_engine(600);
        let clean = eng.query(&q).expect("clean run");
        assert_eq!(clean.stats.backoff_ns, 0);
    }

    #[test]
    fn delta_route_serves_writes_and_reports_contribution() {
        let rel = SyntheticSpec { tuples: 400, cardinality: 4, ..Default::default() }.generate();
        let file = TempCube::save(&rel, "delta");
        let delta =
            Arc::new(DeltaCube::open(&file.0, rel.clone(), DeltaOptions::default()).unwrap());
        let eng = Engine::new(rel)
            .with_grid_cube(GridCubeConfig { block_size: 64, ..Default::default() })
            .with_delta(Arc::clone(&delta));

        // The delta outranks every other route: it alone sees writes.
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(5);
        assert_eq!(eng.route(&q), Route::Delta);

        // Writer API: a better-scoring insert shows up at rank 1.
        let tid = eng.insert(&[1, 0, 0], &[0.0001, 0.0001]).expect("insert through engine");
        let res = eng.query(&q).unwrap();
        assert_eq!(res.items[0].0, tid, "fresh insert must win the top-k");
        assert!(res.stats.delta_mem_answers >= 1, "overlay contribution surfaces in stats");

        // EXPLAIN ANALYZE renders the memtable-vs-base split.
        let report = eng.explain_analyze(&q).expect("healthy engine");
        assert_eq!(report.executed, Route::Delta);
        let contrib = report.delta.expect("delta run records its contribution");
        assert!(contrib.memtable_answers >= 1);
        assert!(report.to_string().contains("from memtable"));

        // Deleting the insert removes it again; deleting a *base* tuple
        // that ranks (the current runner-up) must mask it in the merge.
        let base_winner = res.items[1].0;
        eng.delete(tid).expect("delete through engine");
        eng.delete(base_winner).expect("delete base tuple through engine");
        let after = eng.query(&q).unwrap();
        assert!(after.items.iter().all(|&(t, _)| t != tid && t != base_winner));
        assert!(after.stats.delta_masked >= 1, "masked base answers are counted");

        // stats_snapshot surfaces the delta block and Display renders it.
        let stats = eng.stats_snapshot();
        let d = stats.delta.expect("delta registered");
        // Latest op per tid: the insert+delete of `tid` collapse to one
        // entry, plus the base tuple's tombstone.
        assert_eq!(d.memtable_ops, 2);
        assert_eq!(d.flushes, 0);
        assert!(stats.to_string().contains("memtable ops"));

        // A flush shows in the same block: what it rewrote, that even the
        // first one after an open reuses the catalog the open parsed, and
        // that the generation it retired is gone.
        delta.flush().unwrap();
        let d = eng.stats_snapshot().delta.expect("delta registered");
        assert_eq!((d.flushes, d.cold_opens, d.memtable_ops), (1, 0, 0));
        assert_eq!(d.generations_retained, 1);
        assert!(d.partials_rewritten > 0 && d.nodes_reencoded > 0);
    }

    #[test]
    fn writer_api_without_delta_is_a_typed_error() {
        let eng = engine(100);
        assert!(matches!(
            eng.insert(&[0, 0, 0], &[0.5, 0.5]),
            Err(StorageError::Malformed("no delta cube is registered"))
        ));
        assert!(matches!(
            eng.delete(0),
            Err(StorageError::Malformed("no delta cube is registered"))
        ));
        assert!(matches!(
            eng.start_maintenance(MaintenanceConfig::default()),
            Err(StorageError::Malformed("no delta cube is registered"))
        ));
    }

    #[test]
    fn repair_path_restores_only_the_repaired_route() {
        let (eng, faults, file) = faulted_delta_engine(500);
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(6);

        // Condemn the delta route with a persistent checksum fault.
        corrupt_probed_cell(&eng, &faults);
        let degraded = eng.query(&q).expect("scan fallback answers");
        assert_eq!(eng.quarantined().len(), 1);

        // A grid-family route is not repaired by a scrub: a typed error
        // that names its repair, and the delta quarantine stands.
        for route in [Route::Grid, Route::Sharded] {
            let err = eng.repair_path(route, &file.0).expect_err("not a signature route");
            assert!(matches!(err, StorageError::Malformed(m) if m.contains("repair_shard")));
        }
        assert_eq!(eng.quarantined().len(), 1, "unrelated repair must not lift quarantine");
        assert_eq!(eng.route(&q), Route::Scan);

        // Repairing the condemned route (media healed) restores it alone.
        faults.heal();
        let outcome =
            eng.repair_path(Route::Delta, &file.0).expect("scrub + targeted unquarantine");
        assert!(matches!(outcome, ScrubOutcome::Clean { .. }), "the file on disk scrubs clean");
        assert!(eng.quarantined().is_empty());
        assert_eq!(eng.route(&q), Route::Delta);
        let healed = eng.query(&q).expect("restored route serves");
        assert_eq!(healed.items, degraded.items, "repair changed the path, not the answer");
    }
}
