//! Background maintenance: watermark-triggered live vacuum with atomic
//! file swap.
//!
//! COW maintenance ([`crate::maintain::apply_path_updates`] + `commit`)
//! retires the old copies of patched partials; the pages stay
//! in the file so readers pinned on older generations keep streaming
//! them, and the file grows without bound until someone compacts it.
//! This module makes that compaction a *non-event*:
//!
//! * [`vacuum_into_place`] is one vacuum cycle — writer lock, read-only
//!   snapshot, compaction into a sibling temp file, atomic rename-over
//!   publish (the protocol specified in `rcube_storage::format`
//!   § *Locking & swap protocol*). Live readers survive because the
//!   rename only unlinks the *name*: their descriptors keep the retired
//!   inode byte-identical until their cursors drain, while every open
//!   after the swap elects the compacted file.
//! * [`MaintenanceScheduler`] serves one [`DeltaCube`] from a background
//!   thread — the daemon the `Engine` facade starts via
//!   `start_maintenance`. It folds the memtable into the cube file once
//!   its depth crosses one watermark, and runs those vacuum cycles
//!   whenever the persisted retired-page count (superblock field,
//!   surviving restarts) crosses another; after each vacuum the delta
//!   re-elects the compacted file, so an idle delta serves it too.
//!
//! Writers are excluded for the whole swap window by the advisory lock
//! file; a concurrent writer (or second scheduler) observes a typed
//! `StorageError::WriterLocked` and simply retries a later poll —
//! counted, never fatal. Every swap boundary is crash-scriptable
//! (`rcube_storage::fault::SwapStage`) and swept in
//! `tests/maintenance_vacuum.rs`: any crash reopens to a valid
//! generation, old file or new, never a torn hybrid.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rcube_obs::Metrics;
use rcube_storage::{FaultPlan, FileBackend, FileOptions, StorageError, WriterLock};
use rcube_storage::{SwapStage, DEFAULT_POOL_PAGES};

use crate::delta::DeltaCube;
use crate::sigcube::SignatureCube;

/// Knobs for one maintenance daemon (and for manual vacuum cycles): when
/// to flush and when to vacuum. How is not configurable: a vacuum keeps
/// the page size of the file it compacts and reads its source through a
/// default-sized pool ([`vacuum_into_place`]).
#[derive(Debug, Clone)]
pub struct MaintenanceConfig {
    /// Retired-page watermark: a poll that sees `reclaimable_pages() >=
    /// watermark_pages` triggers a vacuum. Zero vacuums on any retired
    /// page.
    pub watermark_pages: u64,
    /// How often the scheduler polls the superblock (a three-read peek,
    /// no pool, no lock).
    pub poll_interval: Duration,
    /// Memtable-depth watermark: a poll that sees this many pending ops
    /// in the scheduler's delta cube triggers a flush/merge cycle.
    /// Ignored by a manual [`vacuum_into_place`].
    pub flush_watermark_ops: u64,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        Self {
            watermark_pages: 64,
            poll_interval: Duration::from_millis(200),
            flush_watermark_ops: 256,
        }
    }
}

/// What one [`vacuum_into_place`] cycle accomplished.
#[derive(Debug, Clone, Copy)]
pub struct VacuumReport {
    /// Pages the source generation had accounted as reclaimable — all
    /// dropped by the compaction.
    pub reclaimed_pages: u64,
    /// Generation of the compacted file now live under the target path.
    pub generation: u64,
    /// Wall time of the whole cycle (lock to publish).
    pub duration: Duration,
}

/// The sibling temp file a vacuum compacts into: `<path>.vacuum`.
/// Leftovers from a crashed cycle are truncated by the next one.
pub fn vacuum_temp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".vacuum");
    PathBuf::from(os)
}

/// Runs one complete vacuum cycle on the cube file at `path`:
///
/// 1. acquire the writer lock (fail fast with
///    [`StorageError::WriterLocked`] if a live writer holds it — the
///    scheduler counts that as contention and retries a later poll),
/// 2. open the newest generation read-only (pinned readers elsewhere
///    are untouched; new writers are excluded by the lock) through a
///    [`DEFAULT_POOL_PAGES`] pool — the compaction reads each live object
///    once, so the pool never hits,
/// 3. compact live objects into `<path>.vacuum`, in pages the size of the
///    source's (its superblock's `page_size`),
/// 4. publish by fsync + atomic rename over `path`,
/// 5. release the lock.
///
/// `faults` arms the swap-boundary crash points ([`SwapStage`]) and the
/// temp file's page-level write faults for the crash sweep; pass `None`
/// in production.
pub fn vacuum_into_place(
    path: impl AsRef<Path>,
    metrics: &Metrics,
    faults: Option<&Arc<FaultPlan>>,
) -> Result<VacuumReport, StorageError> {
    let path = path.as_ref();
    let start = Instant::now();
    let lock = match WriterLock::acquire_guarded(path, faults.cloned()) {
        Err(e @ StorageError::WriterLocked { .. }) => {
            metrics.counter("maintenance.lock_contention").inc();
            return Err(e);
        }
        other => other?,
    };
    // Read-only snapshot of the newest generation. The persisted
    // retired-page count is the reclaim figure (reads don't retire).
    let page_size = FileBackend::peek_superblock(path)?.page_size as usize;
    let (mut cube, rtree) = SignatureCube::open_from_with(path, DEFAULT_POOL_PAGES)?;
    cube.set_metrics(metrics.clone());
    let temp = vacuum_temp_path(path);
    if let Some(plan) = faults {
        plan.on_swap(SwapStage::TempWrite).map_err(StorageError::Io)?;
    }
    let opts = FileOptions { pool_pages: 0, faults: faults.cloned() };
    let reclaimed_pages = cube.vacuum_to(&rtree, &temp, page_size, opts)?;
    if faults.is_some_and(|p| p.crashed()) {
        // The scripted page-level crash hit inside the temp write: the
        // process "died" before the swap. Surface it so the sweep (and a
        // real caller) never publishes a torn temp file.
        return Err(StorageError::Io(std::io::Error::other(
            "injected crash during vacuum temp write",
        )));
    }
    drop((cube, rtree));
    FileBackend::publish_swap(&temp, path, faults)?;
    let generation = FileBackend::peek_superblock(path)?.generation;
    metrics.histogram("maintenance.vacuum_duration_us").record(start.elapsed().as_micros() as u64);
    if !lock.release() {
        // Scripted LockRelease crash: the lock file stays on disk like a
        // dead writer's would. The swap itself already published.
        return Err(StorageError::Io(std::io::Error::other(
            "injected crash before vacuum lock release",
        )));
    }
    Ok(VacuumReport { reclaimed_pages, generation, duration: start.elapsed() })
}

/// Live counters a running scheduler exposes to its owner.
#[derive(Debug, Default)]
struct SchedulerState {
    vacuums: AtomicU64,
    pages_reclaimed: AtomicU64,
    flushes: AtomicU64,
    lock_conflicts: AtomicU64,
    errors: AtomicU64,
    last_error: Mutex<Option<String>>,
}

/// The background maintenance daemon of one [`DeltaCube`]: polls its
/// memtable depth and flushes past one watermark, polls its file's
/// persisted retired-page count and runs [`vacuum_into_place`] past the
/// other. One scheduler per cube file; stop (or drop) joins the thread.
/// Lock contention with a writer is expected steady-state behavior — the
/// cycle yields and the next poll retries.
#[derive(Debug)]
pub struct MaintenanceScheduler {
    stop: Arc<AtomicBool>,
    state: Arc<SchedulerState>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl SchedulerState {
    /// Books one cycle's outcome: `done` on success, a lock conflict when
    /// a live writer held the file (retried on a later poll), anything
    /// else as an error kept for [`MaintenanceScheduler::last_error`].
    fn book<T>(&self, outcome: Result<T, StorageError>, done: impl FnOnce(T)) {
        match outcome {
            Ok(report) => done(report),
            Err(StorageError::WriterLocked { .. }) => {
                self.lock_conflicts.fetch_add(1, Ordering::SeqCst);
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::SeqCst);
                *self.last_error.lock().expect("nothing panics holding last_error") =
                    Some(e.to_string());
            }
        }
    }
}

impl MaintenanceScheduler {
    /// Starts the daemon for `delta` and the cube file it wraps. Each
    /// poll flushes the memtable once its depth reaches
    /// `config.flush_watermark_ops` (the LSM background merge), then
    /// vacuums the file once its retired pages reach
    /// `config.watermark_pages` and has the delta re-elect the compacted
    /// file, then sleeps out the poll interval. Lock contention between
    /// the two (or with another writer) is counted and retried on a later
    /// poll. Vacuum activity is recorded into `metrics`
    /// (`maintenance.vacuums`, `maintenance.pages_reclaimed`,
    /// `maintenance.vacuum_duration_us`, `maintenance.lock_contention`).
    pub fn start(config: MaintenanceConfig, metrics: Metrics, delta: Arc<DeltaCube>) -> Self {
        let path = delta.path().to_path_buf();
        let stop = Arc::new(AtomicBool::new(false));
        let state = Arc::new(SchedulerState::default());
        let (t_stop, t_state) = (Arc::clone(&stop), Arc::clone(&state));
        let handle = std::thread::Builder::new()
            .name("rcube-maintenance".into())
            .spawn(move || {
                while !t_stop.load(Ordering::SeqCst) {
                    if delta.memtable_len() as u64 >= config.flush_watermark_ops {
                        t_state.book(delta.flush(), |_| {
                            t_state.flushes.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                    // A missing or torn target has nothing to vacuum.
                    let due = FileBackend::peek_superblock(&path)
                        .is_ok_and(|sb| sb.retired_pages >= config.watermark_pages);
                    if due {
                        let cycle = vacuum_into_place(&path, &metrics, None)
                            .and_then(|report| delta.reelect().map(|()| report));
                        t_state.book(cycle, |report| {
                            t_state.vacuums.fetch_add(1, Ordering::SeqCst);
                            t_state
                                .pages_reclaimed
                                .fetch_add(report.reclaimed_pages, Ordering::SeqCst);
                        });
                    }
                    // Sleep in short slices so stop() returns promptly.
                    let mut remaining = config.poll_interval;
                    while !t_stop.load(Ordering::SeqCst) && remaining > Duration::ZERO {
                        let slice = remaining.min(Duration::from_millis(20));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
            })
            .expect("spawn maintenance scheduler thread");
        Self { stop, state, handle: Some(handle) }
    }

    /// Vacuum cycles completed since start.
    pub fn vacuums_completed(&self) -> u64 {
        self.state.vacuums.load(Ordering::SeqCst)
    }

    /// Flush/merge cycles the daemon ran since start (flushes the delta's
    /// other callers ran are in `DeltaCube::flushes_completed`).
    pub fn flushes_completed(&self) -> u64 {
        self.state.flushes.load(Ordering::SeqCst)
    }

    /// Total pages reclaimed across completed cycles.
    pub fn pages_reclaimed(&self) -> u64 {
        self.state.pages_reclaimed.load(Ordering::SeqCst)
    }

    /// Polls that yielded to a live writer holding the lock.
    pub fn lock_conflicts(&self) -> u64 {
        self.state.lock_conflicts.load(Ordering::SeqCst)
    }

    /// Cycles (flush, or vacuum and re-election) that failed for a reason
    /// other than lock contention.
    pub fn errors(&self) -> u64 {
        self.state.errors.load(Ordering::SeqCst)
    }

    /// The most recent non-contention failure, if any.
    pub fn last_error(&self) -> Option<String> {
        self.state.last_error.lock().unwrap().clone()
    }

    /// Signals the daemon to stop and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MaintenanceScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}
