//! Partitioned cube sets with scatter-gather top-k.
//!
//! A [`ShardedCube`] splits a relation at build time by region of its
//! ranking space into N self-contained grid cubes — each shard is an
//! ordinary cube file with its own buffer pool, I/O meter and metrics
//! prefix — bound together by a small CRC-stamped manifest
//! ([`rcube_storage::manifest`]). Because every shard speaks the same
//! [`RankedSource`] operator, the shard set is *itself* just another
//! `RankedSource`: [`ShardedSource`] merges per-shard cursors with a
//! bound-driven k-way selection.
//!
//! # Region shards
//!
//! The build cuts the relation k-d style: ⌈n/2⌉ shards below a cut at
//! that tuple-count quantile of `(coordinate, tid)` order, ⌊n/2⌋ above
//! it, on ranking dimension `depth mod r` of the grid's `r` ranking
//! dimensions, recursively. Each shard records the tight box of its
//! points over every ranking dimension ([`Shard::region`]) and the
//! ascending global tids its local tids stand for ([`Shard::tids`]).
//! Because the map is monotone, a shard's `(score, local tid)` order is
//! the set's `(score, global tid)` order. This is the paper's block
//! partition one level up: a shard, like a block, has a box whose bound
//! says what its best answer can score before anything of it is read.
//!
//! # The merge opens shards in bound order
//!
//! No shard is opened up front. Each step of the merge first opens the
//! unopened shard with the lowest box bound (ties by shard index) while
//! that bound is ≤ the best head the merge holds, or while it holds none;
//! then it emits the best `(score, tid)` head. `≤`, not `<`: a box whose
//! bound ties the head may hold an equal score with a smaller tid. A NaN
//! bound counts as −∞, so its shard opens. A query therefore stops with
//! every unopened shard's bound above its k-th answer; `extend_k` needs no
//! special case, because the rule is re-checked at every step.
//!
//! Per-shard cursors certify ascending score order, so the merger keeps
//! exactly one *head* answer per open shard and re-pulls a shard only
//! after its head was consumed as a global answer. A shard whose head
//! scores worse than everything the query still needs is simply never
//! pulled again — for a no-extension query each shard is pulled at most
//! `answers_consumed_from_it + 1` times, which `BENCH_shard.json` gates
//! as a hard deterministic counter invariant. `extend_k` composes
//! shard-wise: raising the global limit raises each paused shard cursor's
//! limit, and every frontier resumes exactly where it stopped.
//!
//! # The merge runs on the calling thread
//!
//! The cursor opens shards, and refills every consumed frontier, in a
//! fixed order on the thread that pulls it. Which shards open and which
//! answers are pulled is a pure function of the answer sequence, so
//! per-shard I/O counters are deterministic. There is no parallel path:
//! spawning workers per wave, and a batch drain of every shard toward a
//! shared threshold on scoped workers, each cost more than the pulls they
//! spread on every machine they were measured on.
//! [`ShardedCube::par_query`] and [`ShardedCubeConfig::parallelism`]
//! remain for the callers that name them; the first drains the cursor
//! merge, the second is ignored.
//!
//! # Degradation unit: the shard
//!
//! A shard that fails (torn page, checksum mismatch) on a pull is marked
//! in the cube's health table before the error propagates, so the
//! serving layer can quarantine per-(route, shard) and fall back while
//! the other shards stay reopenable;
//! [`ShardedCube::repair_shard`] reopens just the failed file. While no
//! shard is failed — the serving state — the table is never locked:
//! `can_answer` and `open` read one atomic count of failed shards,
//! published (Release) by the writer that marked or repaired one.
//!
//! # What a query shares with its neighbours
//!
//! Two clients on one set write none of each other's cache lines beyond
//! the buffer-pool stripes they both read: per-shard instruments are
//! thread-striped, the cover is resolved once per query, on shard 0, for
//! the whole set (every shard is built from one `CuboidSpec`, and a set
//! whose shard files disagree on cuboids does not open), and the fan-out
//! of a query lives **on its cursor** ([`TopKCursor::fanout`]) — that is
//! what `explain_analyze` reads. [`ShardedCube::last_fanout`] remains as
//! the single-client convenience: a process-wide "most recently finished"
//! slot any concurrent cursor overwrites on drop, rewritten in place.
//!
//! # A set of one is the grid route
//!
//! A grid cube is a set of one shard ([`ShardedCube::of_grid`], or a build
//! with `shards: 1`), and the engine labels it `Route::Grid`. Its local
//! tids are the global ones — a build gives `0..n`, and a one-shard
//! manifest's own validation admits no other list — so the set hands back
//! its shard's own cursor: no frontier, no tid map, no fan-out, no
//! `last_fanout`, and a fault on a pull is the route's, not marked in the
//! health table. Its pool and meter are the grid's:
//! [`ShardedCube::attach_metrics`] names them `grid.pool.…` and `disk.…`
//! and registers no per-shard series.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use rcube_func::Rect;
use rcube_obs::Metrics;
use rcube_storage::{
    DiskSim, IoSnapshot, ShardEntry, ShardManifest, StorageError, DEFAULT_PAGE_SIZE,
    DEFAULT_POOL_PAGES,
};
use rcube_table::{Relation, Selection, Tid};

use crate::gridcube::{GridCubeConfig, GridRankingCube};
use crate::query::{ProgressiveSearch, QueryPlan, RankedSource, TopKCursor};
use crate::{QueryStats, TopKResult};

/// Construction parameters for a partitioned cube set.
#[derive(Debug, Clone)]
pub struct ShardedCubeConfig {
    /// Number of region shards (clamped to `1..=` the relation's rows).
    pub shards: usize,
    /// Grid cube every shard is built with.
    pub grid: GridCubeConfig,
    /// Per-shard buffer-pool capacity (pages) for file-backed sets.
    pub pool_pages: usize,
    /// Ignored: every query merges on the calling thread (module docs).
    /// Kept for callers that set it.
    pub parallelism: usize,
}

impl Default for ShardedCubeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            grid: GridCubeConfig::default(),
            pool_pages: DEFAULT_POOL_PAGES,
            parallelism: 0,
        }
    }
}

/// The k-d region partition (module docs, *Region shards*): `n` clamped
/// to `1..=rows` lists of global tids, each ascending, cut on the
/// relation's ranking dimensions `dims` (empty = all).
fn partition(rel: &Relation, dims: &[usize], n: usize) -> Vec<Vec<Tid>> {
    fn split(cols: &[&[f64]], tids: &mut [Tid], n: usize, depth: usize, out: &mut Vec<Vec<Tid>>) {
        if n <= 1 || cols.is_empty() {
            let mut shard = tids.to_vec();
            shard.sort_unstable();
            out.push(shard);
            return;
        }
        let left = n.div_ceil(2);
        let cut = tids.len() * left / n;
        let col = cols[depth % cols.len()];
        tids.select_nth_unstable_by(cut, |&a, &b| {
            col[a as usize].total_cmp(&col[b as usize]).then(a.cmp(&b))
        });
        let (below, above) = tids.split_at_mut(cut);
        split(cols, below, left, depth + 1, out);
        split(cols, above, n - left, depth + 1, out);
    }
    let cols: Vec<&[f64]> = if dims.is_empty() {
        (0..rel.schema().num_ranking()).map(|d| rel.ranking_column(d)).collect()
    } else {
        dims.iter().map(|&d| rel.ranking_column(d)).collect()
    };
    let mut tids: Vec<Tid> = rel.tids().collect();
    let mut out = Vec::new();
    split(&cols, &mut tids, n.clamp(1, rel.len().max(1)), 0, &mut out);
    out
}

/// The tight box of the points of `tids` over every ranking dimension of
/// `rel` (the origin for an empty shard).
fn region_of(rel: &Relation, tids: &[Tid]) -> Rect {
    let (lo, hi) = (0..rel.schema().num_ranking())
        .map(|d| {
            let col = rel.ranking_column(d);
            let (lo, hi) = tids.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &t| {
                (lo.min(col[t as usize]), hi.max(col[t as usize]))
            });
            if lo <= hi {
                (lo, hi)
            } else {
                (0.0, 0.0)
            }
        })
        .unzip();
    Rect::new(lo, hi)
}

/// One self-contained partition of the relation: a grid cube over the
/// sub-relation of `tids`, with its own I/O meter (and, when file-backed,
/// its own buffer pool). Local tid `i` is global tid `tids[i]`.
#[derive(Debug)]
pub struct Shard {
    cube: GridRankingCube,
    disk: DiskSim,
    tids: Vec<Tid>,
    region: Rect,
    path: Option<PathBuf>,
}

impl Shard {
    /// Builds the shard of `tids` in memory.
    fn build(rel: &Relation, tids: Vec<Tid>, grid: &GridCubeConfig) -> Self {
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(&rel.subset(&tids), &disk, grid.clone());
        Shard { cube, disk, region: region_of(rel, &tids), tids, path: None }
    }

    /// Opens the shard's cube file with a `pool_pages` buffer pool; the
    /// file must hold exactly one tuple per entry of `tids`.
    fn open_file(
        path: PathBuf,
        pool_pages: usize,
        tids: Vec<Tid>,
        region: Rect,
    ) -> Result<Self, StorageError> {
        let cube = GridRankingCube::open_from_with(&path, pool_pages)?;
        if cube.partition().num_tuples() != tids.len() {
            return Err(StorageError::Malformed(
                "shard file's tuple count disagrees with its tids",
            ));
        }
        Ok(Shard { cube, disk: DiskSim::with_defaults(), tids, region, path: Some(path) })
    }

    /// Opens a cursor over this shard's *local* tids on the set-wide
    /// `cover`, resolved on shard 0.
    fn open<'a>(&'a self, plan: &QueryPlan<'a>, cover: &[usize]) -> TopKCursor<'a> {
        self.cube.source(&self.disk).open_covered(plan, cover)
    }

    /// This shard's grid cube.
    pub fn cube(&self) -> &GridRankingCube {
        &self.cube
    }

    /// Cumulative I/O this shard has served (its private meter).
    pub fn io(&self) -> IoSnapshot {
        self.disk.stats().snapshot()
    }

    /// This shard's buffer-pool stats (file-backed shards only).
    pub fn pool_stats(&self) -> Option<rcube_storage::PoolStats> {
        self.cube.pool_stats()
    }

    /// The global tid of each of this shard's local tids, ascending.
    pub fn tids(&self) -> &[Tid] {
        &self.tids
    }

    /// The tight box of this shard's ranking points, over every ranking
    /// dimension of the relation.
    pub fn region(&self) -> &Rect {
        &self.region
    }
}

/// Per-shard instruments on the owning engine's metric registry
/// (`sharded.shard<i>.…` series).
#[derive(Debug)]
struct ShardInstruments {
    opens: rcube_obs::Counter,
    pulls: rcube_obs::Counter,
    answers: rcube_obs::Counter,
    blocks: rcube_obs::Counter,
    pull_us: rcube_obs::Histogram,
}

/// What one query's scatter actually did, per shard — the fan-out view
/// `explain_analyze` reports.
#[derive(Debug, Clone)]
pub struct ShardFanout {
    /// Shard index.
    pub shard: usize,
    /// Whether the merge opened this shard's cursor.
    pub opened: bool,
    /// The ranking function's lower bound over the shard's box — what
    /// the merge ordered and skipped shards by.
    pub bound: f64,
    /// Certified answers pulled from the shard (consumed or held as the
    /// paused head).
    pub pulls: u64,
    /// Answers this shard contributed to the global result.
    pub answers: u64,
    /// Blocks the shard's cursor read.
    pub blocks_read: u64,
    /// True when the query finished with this shard paused above the
    /// global threshold — the bound pruned further pulls from it.
    pub pruned: bool,
    /// True when the shard ran out of qualifying tuples.
    pub exhausted: bool,
}

/// Fan-out summary of one sharded query.
#[derive(Debug, Clone, Default)]
pub struct FanoutReport {
    /// Per-shard rows, in shard order.
    pub shards: Vec<ShardFanout>,
}

impl FanoutReport {
    /// Shards whose cursor was opened.
    pub fn opened(&self) -> usize {
        self.shards.iter().filter(|s| s.opened).count()
    }

    /// Shards the bound pruned (paused above the global threshold).
    pub fn pruned(&self) -> usize {
        self.shards.iter().filter(|s| s.pruned).count()
    }

    /// Total blocks read across shards.
    pub fn blocks_read(&self) -> u64 {
        self.shards.iter().map(|s| s.blocks_read).sum()
    }
}

impl std::fmt::Display for FanoutReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "fan-out: {} shards opened, {} pruned by bound", self.opened(), self.pruned())?;
        for s in &self.shards {
            if !s.opened {
                writeln!(f, "  shard {}: skipped (bound {:.4})", s.shard, s.bound)?;
                continue;
            }
            let state = if s.pruned {
                "pruned"
            } else if s.exhausted {
                "exhausted"
            } else {
                "active"
            };
            writeln!(
                f,
                "  shard {}: {} pulls, {} answers, {} blocks ({state})",
                s.shard, s.pulls, s.answers, s.blocks_read
            )?;
        }
        Ok(())
    }
}

/// A partitioned cube set: N region shards served as one
/// [`RankedSource`] via [`ShardedCube::source`].
#[derive(Debug)]
pub struct ShardedCube {
    shards: Vec<Shard>,
    manifest_path: Option<PathBuf>,
    pool_pages: usize,
    /// Per-shard failure reasons; a `Some` entry takes the whole set out
    /// of routing (`can_answer` → false) until that shard is repaired.
    health: Mutex<Vec<Option<String>>>,
    /// How many `health` entries are `Some`. Written under the `health`
    /// lock with Release; the serving paths load it with Acquire and skip
    /// the lock while it is zero.
    failed: AtomicUsize,
    /// The registry [`Self::attach_metrics`] mirrored the set into, kept so
    /// a repaired shard's fresh pool and meter count under the same names.
    metrics: OnceLock<Metrics>,
    instruments: OnceLock<Vec<ShardInstruments>>,
    last_fanout: Mutex<Option<FanoutReport>>,
}

impl ShardedCube {
    /// Builds an in-memory partitioned set (no files): `cfg.shards`
    /// region shards (module docs, *Region shards*), one cube each.
    pub fn build_in_memory(rel: &Relation, cfg: &ShardedCubeConfig) -> Self {
        let shards = partition(rel, &cfg.grid.ranking_dims, cfg.shards)
            .into_iter()
            .map(|tids| Shard::build(rel, tids, &cfg.grid))
            .collect();
        Self::assemble(shards, None, cfg.pool_pages)
    }

    /// The set of one shard over `cube`, an already-materialized grid cube
    /// of all of `rel` (e.g. reopened from its file): the grid route
    /// (module docs, *A set of one is the grid route*).
    pub fn of_grid(rel: &Relation, cube: GridRankingCube) -> Self {
        let tids: Vec<Tid> = rel.tids().collect();
        let region = region_of(rel, &tids);
        let shard = Shard { cube, disk: DiskSim::with_defaults(), tids, region, path: None };
        Self::assemble(vec![shard], None, DEFAULT_POOL_PAGES)
    }

    /// Binds shards — at least one, every one with the same cuboids — into
    /// a set.
    fn assemble(shards: Vec<Shard>, manifest_path: Option<PathBuf>, pool_pages: usize) -> Self {
        Self {
            health: Mutex::new(vec![None; shards.len()]),
            failed: AtomicUsize::new(0),
            shards,
            manifest_path,
            pool_pages,
            metrics: OnceLock::new(),
            instruments: OnceLock::new(),
            last_fanout: Mutex::new(None),
        }
    }

    /// Builds the partitioned set *to disk*: one self-contained cube file
    /// per shard (`<stem>.shard<i>` beside the manifest) plus the
    /// CRC-stamped manifest at `manifest_path`, then reopens the set from
    /// those files (each shard gets its own buffer pool).
    pub fn build_to(
        rel: &Relation,
        manifest_path: impl AsRef<Path>,
        cfg: &ShardedCubeConfig,
    ) -> Result<Self, StorageError> {
        let manifest_path = manifest_path.as_ref();
        let stem =
            manifest_path.file_stem().and_then(|s| s.to_str()).unwrap_or("cubeset").to_owned();
        let parts = partition(rel, &cfg.grid.ranking_dims, cfg.shards);
        let mut entries = Vec::with_capacity(parts.len());
        for (i, tids) in parts.into_iter().enumerate() {
            let shard = Shard::build(rel, tids, &cfg.grid);
            let file = format!("{stem}.shard{i}");
            let path = manifest_path.with_file_name(&file);
            shard.cube.save_to_with(&path, DEFAULT_PAGE_SIZE, cfg.pool_pages)?;
            let r = &shard.region;
            entries.push(ShardEntry {
                file,
                tuples: shard.tids.len() as u64,
                lo: (0..r.dims()).map(|d| r.lo(d)).collect(),
                hi: (0..r.dims()).map(|d| r.hi(d)).collect(),
                tids: shard.tids,
            });
        }
        let manifest = ShardManifest { shards: entries };
        manifest.save_to(manifest_path)?;
        Self::open_from_with(manifest_path, cfg.pool_pages, cfg.parallelism)
    }

    /// Reopens a partitioned set from its manifest with the default pool.
    pub fn open_from(manifest_path: impl AsRef<Path>) -> Result<Self, StorageError> {
        Self::open_from_with(manifest_path, DEFAULT_POOL_PAGES, 0)
    }

    /// [`Self::open_from`] with explicit per-shard buffer-pool capacity.
    /// `_parallelism` is ignored, like [`ShardedCubeConfig::parallelism`].
    /// A manifest whose shard files disagree on cuboids is `Malformed`: the
    /// set resolves one cover, on shard 0, for every shard. (A one-shard
    /// manifest's tids are `0..n` by [`ShardManifest::validate`].)
    pub fn open_from_with(
        manifest_path: impl AsRef<Path>,
        pool_pages: usize,
        _parallelism: usize,
    ) -> Result<Self, StorageError> {
        let manifest_path = manifest_path.as_ref().to_path_buf();
        let manifest = ShardManifest::open_from(&manifest_path)?;
        let paths: Vec<PathBuf> =
            (0..manifest.shards.len()).map(|i| manifest.shard_path(&manifest_path, i)).collect();
        let mut shards = Vec::with_capacity(paths.len());
        for (path, entry) in paths.into_iter().zip(manifest.shards) {
            let region = Rect::new(entry.lo, entry.hi);
            shards.push(Shard::open_file(path, pool_pages, entry.tids, region)?);
        }
        if !shards.iter().all(|s| s.cube.same_cuboids(&shards[0].cube)) {
            return Err(StorageError::Malformed("shard files disagree on cuboids"));
        }
        Ok(Self::assemble(shards, Some(manifest_path), pool_pages))
    }

    /// Number of shards in the set.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards themselves (I/O meters, pool stats, tids and boxes).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// The manifest path for file-backed sets.
    pub fn manifest_path(&self) -> Option<&Path> {
        self.manifest_path.as_deref()
    }

    /// True when every shard covers the plan *and* no shard is failed.
    pub fn can_answer(&self, selection: &Selection, ranking_dims: &[usize]) -> bool {
        self.is_healthy() && self.shards.iter().all(|s| s.cube.can_answer(selection, ranking_dims))
    }

    /// No shard is marked failed (one Acquire load, no lock).
    fn is_healthy(&self) -> bool {
        self.failed.load(Ordering::Acquire) == 0
    }

    /// Binds the set to its scatter-gather [`RankedSource`].
    pub fn source(&self) -> ShardedSource<'_> {
        ShardedSource { cube: self }
    }

    /// Shards currently failed, with the condemning error message.
    pub fn failed_shards(&self) -> Vec<(usize, String)> {
        if self.is_healthy() {
            return Vec::new();
        }
        self.health
            .lock()
            .unwrap()
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.as_ref().map(|msg| (i, msg.clone())))
            .collect()
    }

    fn mark_failed(&self, shard: usize, msg: String) {
        let mut health = self.health.lock().unwrap();
        if health[shard].is_none() {
            health[shard] = Some(msg);
            self.failed.fetch_add(1, Ordering::Release);
        }
    }

    /// Reopens one failed shard from its file and clears its health
    /// entry. The other shards (and their warm pools) are untouched —
    /// repair is per-shard, not per-set. The fresh shard's pool (and, in a
    /// set of one, its meter) keeps counting under the names
    /// [`Self::attach_metrics`] gave the old one. A file that no longer has
    /// the shard's cuboids is `Malformed`, as at open.
    pub fn repair_shard(&mut self, shard: usize) -> Result<(), StorageError> {
        let s =
            self.shards.get(shard).ok_or(StorageError::Malformed("shard index out of range"))?;
        let path =
            s.path.clone().ok_or(StorageError::Malformed("in-memory shards cannot be reopened"))?;
        let fresh = Shard::open_file(path, self.pool_pages, s.tids.clone(), s.region.clone())?;
        if !fresh.cube.same_cuboids(&s.cube) {
            return Err(StorageError::Malformed("shard files disagree on cuboids"));
        }
        fresh.cube.verify_integrity()?;
        self.shards[shard] = fresh;
        if let Some(metrics) = self.metrics.get() {
            self.attach_shard(shard, metrics);
        }
        if self.health.lock().unwrap()[shard].take().is_some() {
            self.failed.fetch_sub(1, Ordering::Release);
        }
        Ok(())
    }

    /// Scrubs every shard through its validated read path; the first
    /// failing shard is marked failed and its error returned.
    pub fn verify_integrity(&self) -> Result<(), StorageError> {
        for (i, s) in self.shards.iter().enumerate() {
            if let Err(e) = s.cube.verify_integrity() {
                self.mark_failed(i, e.to_string());
                return Err(e);
            }
        }
        Ok(())
    }

    /// Mirrors per-shard activity into `metrics`: pool series under
    /// `sharded.shard<i>.pool.…`, plus per-shard
    /// `opens`/`pulls`/`answers`/`blocks_read` counters and a `pull_us`
    /// latency histogram. Call once at registration. A set of one is the
    /// grid: its pool lands under `grid.pool.…`, its meter under `disk.…`,
    /// and it registers no per-shard series.
    pub fn attach_metrics(&self, metrics: &Metrics) {
        let _ = self.metrics.set(metrics.clone());
        for i in 0..self.shards.len() {
            self.attach_shard(i, metrics);
        }
        if self.shards.len() == 1 {
            return;
        }
        let ins = (0..self.shards.len())
            .map(|i| {
                let prefix = format!("sharded.shard{i}");
                ShardInstruments {
                    opens: metrics.counter(&format!("{prefix}.opens")),
                    pulls: metrics.counter(&format!("{prefix}.pulls")),
                    answers: metrics.counter(&format!("{prefix}.answers")),
                    blocks: metrics.counter(&format!("{prefix}.blocks_read")),
                    pull_us: metrics.histogram(&format!("{prefix}.pull_us")),
                }
            })
            .collect();
        let _ = self.instruments.set(ins);
    }

    /// Mirrors shard `i`'s pool into `metrics` (module docs: `grid.pool.…`
    /// and the meter's `disk.…` for a set of one, else
    /// `sharded.shard<i>.pool.…`).
    fn attach_shard(&self, i: usize, metrics: &Metrics) {
        let shard = &self.shards[i];
        if self.shards.len() == 1 {
            shard.cube.store().attach_metrics(metrics, "grid");
            shard.disk.attach_metrics(metrics);
        } else {
            shard.cube.store().attach_metrics(metrics, &format!("sharded.shard{i}"));
        }
    }

    /// The fan-out of the most recently *finished* sharded query (the
    /// cursor writes it on drop). With one client that is the query just
    /// run; with several it is whoever finished last — read
    /// [`TopKCursor::fanout`] for a query's own.
    pub fn last_fanout(&self) -> Option<FanoutReport> {
        self.last_fanout.lock().unwrap().clone()
    }

    /// Batch top-k: [`Self::source`]'s cursor merge, drained. Kept for
    /// callers that name it (module docs, *The merge runs on the calling
    /// thread*).
    pub fn par_query(&self, plan: &QueryPlan<'_>) -> Result<TopKResult, StorageError> {
        self.source().query(plan)
    }
}

/// Field-wise accumulation of per-shard cursor stats into a roll-up
/// (sums everywhere, max for the heap watermark).
fn merge_stats(acc: &mut QueryStats, s: &QueryStats) {
    acc.io = acc.io + s.io;
    acc.blocks_read += s.blocks_read;
    acc.tuples_scored += s.tuples_scored;
    acc.peak_heap = acc.peak_heap.max(s.peak_heap);
    acc.states_generated += s.states_generated;
    acc.sig_loads += s.sig_loads;
    acc.sig_bytes_decoded += s.sig_bytes_decoded;
    acc.sig_nodes_decoded += s.sig_nodes_decoded;
    acc.shared_node_hits += s.shared_node_hits;
    acc.path_retries += s.path_retries;
    acc.path_fallbacks += s.path_fallbacks;
    acc.backoff_ns += s.backoff_ns;
}

/// The shard set as one [`RankedSource`]: opens a scatter-gather cursor
/// whose answers are byte-identical to an unsharded cube over the same
/// relation — for a set of one, that cube's own cursor.
#[derive(Debug, Clone, Copy)]
pub struct ShardedSource<'a> {
    cube: &'a ShardedCube,
}

impl<'a> RankedSource<'a> for ShardedSource<'a> {
    fn open(&self, plan: &QueryPlan<'a>) -> Result<TopKCursor<'a>, StorageError> {
        let cube = self.cube;
        if !cube.is_healthy() {
            let why = "sharded cube has a failed shard; repair it before querying";
            return Err(StorageError::Malformed(why));
        }
        let cover = cube.shards[0].cube.plan_cover(plan);
        if let [shard] = cube.shards.as_slice() {
            return Ok(shard.open(plan, &cover));
        }
        let frontiers: Vec<Frontier<'a>> = cube
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let bound = plan.func.lower_bound(&shard.region.project(plan.ranking_dims));
                Frontier {
                    shard: i,
                    bound: if bound.is_nan() { f64::NEG_INFINITY } else { bound },
                    cursor: None,
                    head: None,
                    state: FState::Unopened,
                    pulls: 0,
                    answers: 0,
                }
            })
            .collect();
        // A stable sort: equal bounds keep shard order.
        let mut order: Vec<usize> = (0..frontiers.len()).collect();
        order.sort_by(|&a, &b| frontiers[a].bound.total_cmp(&frontiers[b].bound));
        let search =
            ShardedSearch { cube, plan: *plan, cover, frontiers, order, opened: 0, target: plan.k };
        Ok(TopKCursor::new(Box::new(search), plan.k))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FState {
    /// The merge has not opened the shard: no answer of it can beat the
    /// best head yet.
    Unopened,
    /// The shard's head was consumed (or never fetched): pull before the
    /// next merge step.
    NeedsPull,
    /// A certified head is waiting; the shard is paused above it.
    Ready,
    /// The shard ran dry at the current target.
    Done,
}

struct Frontier<'a> {
    shard: usize,
    /// Lower bound of the plan's function over the shard's box (NaN read
    /// as −∞).
    bound: f64,
    cursor: Option<TopKCursor<'a>>,
    /// Certified next answer, already mapped to its global tid; `Some`
    /// exactly while the state is `Ready`.
    head: Option<(Tid, f64)>,
    state: FState,
    pulls: u64,
    answers: u64,
}

fn pull_frontier<'a>(
    cube: &'a ShardedCube,
    f: &mut Frontier<'a>,
    target: usize,
) -> Result<(), StorageError> {
    let cursor = f.cursor.as_mut().expect("frontier pulled before open");
    if cursor.k() < target {
        cursor.extend_k(target - cursor.k());
    }
    let started = Instant::now();
    let pulled = cursor.try_next()?;
    if let Some(ins) = cube.instruments.get() {
        ins[f.shard].pull_us.record(started.elapsed().as_micros() as u64);
    }
    match pulled {
        Some((local, score)) => {
            let tid = *cube.shards[f.shard]
                .tids
                .get(local as usize)
                .ok_or(StorageError::Malformed("shard answered a tid outside its tid list"))?;
            f.head = Some((tid, score));
            f.state = FState::Ready;
            f.pulls += 1;
            if let Some(ins) = cube.instruments.get() {
                ins[f.shard].pulls.inc();
            }
        }
        None => {
            f.head = None;
            f.state = FState::Done;
        }
    }
    Ok(())
}

/// The bound-driven k-way merge behind a sharded [`TopKCursor`].
struct ShardedSearch<'a> {
    cube: &'a ShardedCube,
    plan: QueryPlan<'a>,
    /// The set-wide grid cover, resolved on shard 0.
    cover: Vec<usize>,
    frontiers: Vec<Frontier<'a>>,
    /// Shard indices by ascending `(bound, index)`: the open order.
    order: Vec<usize>,
    /// How many of `order` are open.
    opened: usize,
    /// Current global answer target (raised by `reserve`/`extend_k`).
    target: usize,
}

impl ShardedSearch<'_> {
    /// Refills every consumed frontier, in shard order. Which pulls
    /// happen is a pure function of the consumed-answer sequence, so
    /// per-shard I/O is deterministic.
    fn fill(&mut self) -> Result<(), StorageError> {
        let (cube, target) = (self.cube, self.target);
        for f in self.frontiers.iter_mut().filter(|f| f.state == FState::NeedsPull) {
            let shard = f.shard;
            if let Err(e) = pull_frontier(cube, f, target) {
                cube.mark_failed(shard, e.to_string());
                return Err(e);
            }
        }
        Ok(())
    }

    /// The ready frontier with the best `(score, tid)` head.
    fn best(&self) -> Option<(usize, (Tid, f64))> {
        self.frontiers
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.head.map(|h| (i, h)))
            .min_by(|(_, (at, a)), (_, (bt, b))| a.total_cmp(b).then(at.cmp(bt)))
    }

    /// Opens the next shard of `order`.
    fn open_next(&mut self) {
        let cube = self.cube;
        let f = &mut self.frontiers[self.order[self.opened]];
        self.opened += 1;
        f.cursor = Some(cube.shards[f.shard].open(&self.plan, &self.cover));
        f.state = FState::NeedsPull;
        if let Some(ins) = cube.instruments.get() {
            ins[f.shard].opens.inc();
        }
    }

    /// One row per shard of what the scatter has done so far.
    fn fanout_rows(&self) -> impl Iterator<Item = ShardFanout> + '_ {
        self.frontiers.iter().map(|f| ShardFanout {
            shard: f.shard,
            opened: f.cursor.is_some(),
            bound: f.bound,
            pulls: f.pulls,
            answers: f.answers,
            blocks_read: f.cursor.as_ref().map_or(0, |c| c.stats().blocks_read),
            pruned: f.state == FState::Ready,
            exhausted: f.state == FState::Done,
        })
    }
}

impl ProgressiveSearch for ShardedSearch<'_> {
    fn advance(&mut self) -> Result<Option<(Tid, f64)>, StorageError> {
        let best = loop {
            self.fill()?;
            let best = self.best();
            // Open the lowest-bound unopened shard while its box could
            // hold an answer that beats or ties the best head.
            let next = self.order.get(self.opened).map(|&i| self.frontiers[i].bound);
            match (next, best) {
                (Some(bound), Some((_, (_, score)))) if bound > score => break best,
                (Some(_), _) => self.open_next(),
                (None, _) => break best,
            }
        };
        Ok(best.map(|(i, item)| {
            let f = &mut self.frontiers[i];
            f.head = None;
            f.state = FState::NeedsPull;
            f.answers += 1;
            item
        }))
    }

    fn stats(&self) -> QueryStats {
        let mut acc = QueryStats::default();
        for f in &self.frontiers {
            if let Some(c) = &f.cursor {
                merge_stats(&mut acc, &c.stats());
                acc.shards_opened += 1;
            }
            if f.state == FState::Ready {
                acc.shards_pruned += 1;
            }
        }
        acc
    }

    fn reserve(&mut self, k: usize) {
        if k > self.target {
            self.target = k;
            // A shard that ran dry at the old target gets one re-probe:
            // fixed-k engines may find more answers under the new one.
            for f in &mut self.frontiers {
                if f.state == FState::Done {
                    f.state = FState::NeedsPull;
                }
            }
        }
    }

    fn fanout(&self) -> Option<FanoutReport> {
        Some(FanoutReport { shards: self.fanout_rows().collect() })
    }
}

impl Drop for ShardedSearch<'_> {
    fn drop(&mut self) {
        // The set-wide slot is rewritten in place: after the first query
        // its row vector is never reallocated, so one client's drop neither
        // allocates nor frees what another client's drop allocated.
        let mut slot = self.cube.last_fanout.lock().unwrap();
        let rows = &mut slot.get_or_insert_with(FanoutReport::default).shards;
        rows.clear();
        rows.extend(self.fanout_rows());
        if let Some(ins) = self.cube.instruments.get() {
            for s in rows.iter() {
                ins[s.shard].answers.add(s.answers);
                ins[s.shard].blocks.add(s.blocks_read);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use rcube_func::{Linear, RankFn};
    use rcube_table::gen::SyntheticSpec;

    fn rel() -> Relation {
        SyntheticSpec { tuples: 3000, ..Default::default() }.generate()
    }

    fn unsharded(rel: &Relation, query: &Query, k: usize) -> TopKResult {
        let disk = DiskSim::with_defaults();
        let cube = GridRankingCube::build(rel, &disk, GridCubeConfig::default());
        let plan = query.plan();
        let mut local = plan;
        local.k = k;
        cube.source(&disk).query(&local).unwrap()
    }

    fn unsharded_answers(rel: &Relation, query: &Query, k: usize) -> Vec<(Tid, f64)> {
        unsharded(rel, query, k).items
    }

    /// Every set answers as one cube does; a set of one is that cube's own
    /// cursor (its blocks, no fan-out), a larger set reports its fan-out.
    #[test]
    fn sharded_merge_matches_unsharded() {
        let rel = rel();
        for shards in [1, 2, 3, 4] {
            let cfg = ShardedCubeConfig { shards, ..Default::default() };
            let cube = ShardedCube::build_in_memory(&rel, &cfg);
            for k in [1, 7, 25] {
                let query = Query::select([(0, 3)]).rank(Linear::uniform(2)).top(k);
                let expect = unsharded(&rel, &query, k);
                let mut cursor = cube.source().open(&query.plan()).unwrap();
                let got = cursor.try_drain().unwrap();
                let at = format!("shards={shards} k={k}");
                assert_eq!(got.items, expect.items, "{at}");
                if shards == 1 {
                    assert!(cursor.fanout().is_none(), "{at}");
                    assert_eq!(got.stats.blocks_read, expect.stats.blocks_read, "{at}");
                } else {
                    let fanout = cursor.fanout().expect("a merge reports its fan-out");
                    assert_eq!(got.stats.shards_opened, fanout.opened() as u64, "{at}");
                    assert_eq!(got.stats.blocks_read, fanout.blocks_read(), "{at}");
                }
                assert_eq!(cube.par_query(&query.plan()).unwrap().items, expect.items, "{at}");
            }
        }
    }

    #[test]
    fn extend_composes_shard_wise() {
        let rel = rel();
        let cfg = ShardedCubeConfig { shards: 4, ..Default::default() };
        let cube = ShardedCube::build_in_memory(&rel, &cfg);
        let query = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(4);
        let full = unsharded_answers(&rel, &query, 12);

        let mut cursor = cube.source().open(&query.plan()).unwrap();
        let mut got = Vec::new();
        while let Some(item) = cursor.try_next().unwrap() {
            got.push(item);
        }
        cursor.extend_k(8);
        while let Some(item) = cursor.try_next().unwrap() {
            got.push(item);
        }
        assert_eq!(got, full);
    }

    #[test]
    fn pull_bound_holds_per_shard() {
        let rel = rel();
        let cfg = ShardedCubeConfig { shards: 4, ..Default::default() };
        let cube = ShardedCube::build_in_memory(&rel, &cfg);
        let query = Query::select([(0, 2)]).rank(Linear::uniform(2)).top(10);
        let _ = cube.source().query(&query.plan()).unwrap();
        let fanout = cube.last_fanout().expect("fan-out recorded on drop");
        assert_eq!(fanout.shards.len(), 4);
        for s in &fanout.shards {
            assert!(
                s.pulls <= s.answers + 1,
                "shard {} pulled {} for {} answers",
                s.shard,
                s.pulls,
                s.answers
            );
        }
        let total: u64 = fanout.shards.iter().map(|s| s.answers).sum();
        assert!(total <= 10);
    }

    /// Shard sizes differ by at most one at every cut, every tid lands in
    /// exactly one shard, each list ascends, and each box is the tight box
    /// of its shard's points.
    #[test]
    fn region_partition_is_balanced_and_disjoint() {
        let rel = rel();
        for n in [1, 2, 3, 4, 5, 7] {
            let parts = partition(&rel, &[], n);
            assert_eq!(parts.len(), n);
            let sizes: Vec<usize> = parts.iter().map(Vec::len).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "n={n}: sizes {sizes:?}");
            let mut all: Vec<Tid> = parts.iter().flatten().copied().collect();
            assert!(parts.iter().all(|p| p.windows(2).all(|w| w[0] < w[1])), "n={n}");
            all.sort_unstable();
            assert_eq!(all, rel.tids().collect::<Vec<_>>(), "n={n}");
            for p in &parts {
                let region = region_of(&rel, p);
                let mut tight = Rect::point(&rel.ranking_point(p[0]));
                p.iter().for_each(|&t| tight.expand(&rel.ranking_point(t)));
                assert_eq!(region, tight, "n={n}");
            }
        }
        // Two shards cut dimension 0 at its median; four cut each half on
        // dimension 1 as well.
        let halves = partition(&rel, &[], 2);
        let x = |t: &Tid| rel.ranking_value(*t, 0);
        assert!(
            halves[0].iter().map(x).fold(f64::MIN, f64::max)
                <= halves[1].iter().map(x).fold(f64::MAX, f64::min)
        );
        assert_eq!(partition(&rel, &[], 0).len(), 1);
        assert_eq!(partition(&rel.subset(&[4, 9]), &[], 5).len(), 2);
    }

    /// A function whose bound over one given box is NaN, and exact
    /// everywhere else.
    struct NanOn(Linear, Rect);

    impl RankFn for NanOn {
        fn score(&self, point: &[f64]) -> f64 {
            self.0.score(point)
        }
        fn lower_bound(&self, region: &Rect) -> f64 {
            if *region == self.1 {
                f64::NAN
            } else {
                self.0.lower_bound(region)
            }
        }
        fn arity(&self) -> usize {
            2
        }
    }

    /// A NaN box bound reads as −∞: its shard opens even when every
    /// answer lies elsewhere, and the answers do not change.
    #[test]
    fn a_nan_bound_still_opens_its_shard() {
        let rel = rel();
        let cube = ShardedCube::build_in_memory(&rel, &ShardedCubeConfig::default());
        let query = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(3);
        let expect = unsharded_answers(&rel, &query, 3);
        assert_eq!(cube.source().query(&query.plan()).unwrap().items, expect);
        let far = cube.last_fanout().unwrap().shards.iter().rposition(|s| !s.opened);
        let far = far.expect("a query at the low corner skips a shard");

        let region = cube.shards()[far].region().clone();
        let nan = Query::select([(0, 1)]).rank(NanOn(Linear::uniform(2), region)).top(3);
        assert_eq!(cube.source().query(&nan.plan()).unwrap().items, expect);
        let fanout = cube.last_fanout().unwrap();
        assert!(fanout.shards[far].opened, "{fanout}");
        assert_eq!(fanout.shards[far].answers, 0, "{fanout}");
    }
}
