//! Deterministic fault injection for crash-safety and degradation tests.
//!
//! One layer, at the place real systems fail: a [`FaultPlan`] is a
//! *media* plan shared with a [`crate::FileBackend`] through
//! `FileOptions::faults` (and with a delta cube's every handle through
//! `DeltaOptions::faults`). It scripts faults at the raw page-I/O
//! boundary: crash after the Nth page write (torn prefix or fully
//! dropped — everything after the crash point silently fails to persist,
//! like a kernel losing its dirty pages), `ENOSPC` on a scripted write,
//! transient `EIO` on reads, and sticky bit flips applied to read buffers
//! (media corruption without rewriting the file) — the last two are what
//! the engine's retry and quarantine tests drive, and [`FaultPlan::heal`]
//! lifts them.
//!
//! Everything is driven by explicit scripts (atomics set by the test),
//! so a failing run replays exactly. The crash model preserves program
//! order: if write *i* persisted, every write before *i* persisted too —
//! the guarantee `fsync` + a single-disk crash gives, and the one the
//! double-superblock commit protocol is designed for.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rcube_obs::{Counter, Metrics};

/// How the crash point mangles the page write it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashMode {
    /// The write does not persist at all.
    #[default]
    Dropped,
    /// The write persists a prefix of `keep` bytes; the rest of the page
    /// keeps its previous contents (a torn sector write).
    Torn { keep: usize },
}

/// A boundary of the vacuum swap protocol (`format` § *Locking & swap
/// protocol*), each individually crash-scriptable via
/// [`FaultPlan::crash_at_swap`]. Stages run in declaration order; a
/// crash at a stage means the process died *before* performing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapStage {
    /// Before the first page of the sibling temp file is written
    /// (crashes *during* the temp write are scripted page-by-page with
    /// [`FaultPlan::crash_after_page_writes`] on the temp backend).
    TempWrite = 0,
    /// Before the temp file's contents are fsynced.
    TempSync = 1,
    /// Before the temp file is renamed over the target.
    Rename = 2,
    /// Before the writer lock file is removed — the lock file survives
    /// the "death", exercising the stale-lock takeover rule.
    LockRelease = 3,
}

/// What the backend should do with one raw page write (decided by
/// [`FaultPlan::on_write`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Persist the full buffer.
    Persist,
    /// Persist only the first `keep` bytes.
    Prefix(usize),
    /// Persist nothing (but report success to the oblivious writer).
    Drop,
}

/// A scripted, deterministic media-fault plan (see module docs). Share
/// one `Arc<FaultPlan>` between the test and a faulted [`crate::FileBackend`];
/// reprogram it mid-run through the atomics.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Raw page writes observed so far.
    writes: AtomicU64,
    /// Raw page reads observed so far.
    reads: AtomicU64,
    /// Write index at which the simulated crash hits (`u64::MAX` = never).
    crash_after: AtomicU64,
    /// Crash mode for the write at the crash point.
    crash_mode: Mutex<CrashMode>,
    /// Write index that fails with `ENOSPC` (one-shot; `u64::MAX` = never).
    enospc_at: AtomicU64,
    /// Remaining reads to fail with a transient `EIO`.
    transient_reads: AtomicU64,
    /// Sticky corruption: `(file offset, xor mask)` applied to every read
    /// buffer covering that offset.
    corruption: Mutex<Vec<(u64, u8)>>,
    /// Bitmask of [`SwapStage`]s armed to crash (bit = stage discriminant).
    swap_crash: AtomicU64,
    /// Latched once any armed swap-stage crash has fired.
    swap_crashed: AtomicBool,
    /// Live fault-trip counters ([`FaultPlan::attach_metrics`]).
    metrics: OnceLock<FaultMetricSet>,
    /// The action [`FaultPlan::before_page_write`] armed, and its index.
    before_write: Mutex<Option<(u64, Scripted)>>,
}

/// An action a script runs once at a scripted point.
struct Scripted(Box<dyn FnOnce() + Send>);

impl fmt::Debug for Scripted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Scripted")
    }
}

/// Pre-resolved counters for injected-fault trips.
#[derive(Debug)]
struct FaultMetricSet {
    write_trips: Counter,
    read_trips: Counter,
}

impl FaultPlan {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            crash_after: AtomicU64::new(u64::MAX),
            crash_mode: Mutex::new(CrashMode::Dropped),
            enospc_at: AtomicU64::new(u64::MAX),
            ..Self::default()
        })
    }

    /// Crash at page-write index `n` (0-based): that write is mangled per
    /// `mode` and every later write is silently dropped.
    pub fn crash_after_page_writes(&self, n: u64, mode: CrashMode) {
        *self.crash_mode.lock().unwrap() = mode;
        self.crash_after.store(n, Ordering::SeqCst);
    }

    /// Runs `action` once, on the writing thread, just before page write
    /// `n` is classified: what another thread might do between two writes
    /// of one operation (an append landing mid-flush), made deterministic.
    /// The writes `action` issues are numbered first — `n`, `n + 1`, … —
    /// so the crash script covers them like any other, and the write that
    /// triggered it takes the next index.
    pub fn before_page_write(&self, n: u64, action: impl FnOnce() + Send + 'static) {
        *self.before_write.lock().expect("nothing panics holding a scripted action") =
            Some((n, Scripted(Box::new(action))));
    }

    /// Fail the page write at index `n` with `ENOSPC` (one-shot).
    pub fn enospc_at_page_write(&self, n: u64) {
        self.enospc_at.store(n, Ordering::SeqCst);
    }

    /// Fail the next `n` raw page reads with a transient `EIO`
    /// (`ErrorKind::Interrupted`, so [`StorageError::is_transient`] holds).
    pub fn fail_next_reads(&self, n: u64) {
        self.transient_reads.store(n, Ordering::SeqCst);
    }

    /// Sticky media corruption: every read covering file `offset` sees
    /// the byte XORed with `mask`.
    pub fn corrupt_byte(&self, offset: u64, mask: u8) {
        self.corruption.lock().unwrap().push((offset, mask));
    }

    /// Clears the read faults: pending transient `EIO`s and every sticky
    /// corruption — the media is healthy again.
    pub fn heal(&self) {
        self.transient_reads.store(0, Ordering::SeqCst);
        self.corruption.lock().unwrap().clear();
    }

    /// Arm a crash at one vacuum-swap boundary: the process "dies"
    /// immediately before performing `stage`.
    pub fn crash_at_swap(&self, stage: SwapStage) {
        self.swap_crash.fetch_or(1 << stage as u64, Ordering::SeqCst);
    }

    /// Swap-protocol hook: called immediately before each swap stage.
    /// Returns the injected crash as an error when that stage is armed;
    /// the caller must abort the swap without performing the stage.
    pub fn on_swap(&self, stage: SwapStage) -> Result<(), std::io::Error> {
        if self.swap_crash.load(Ordering::SeqCst) & (1 << stage as u64) != 0 {
            self.swap_crashed.store(true, Ordering::SeqCst);
            self.trip_write();
            return Err(std::io::Error::other(format!("injected crash at swap stage {stage:?}")));
        }
        Ok(())
    }

    /// Lock-release hook (see `crate::lock::WriterLock`): when the
    /// [`SwapStage::LockRelease`] crash is armed, latches the crash and
    /// returns true — the caller must leave the lock file on disk.
    pub fn lock_release_crashes(&self) -> bool {
        if self.swap_crash.load(Ordering::SeqCst) & (1 << SwapStage::LockRelease as u64) != 0 {
            self.swap_crashed.store(true, Ordering::SeqCst);
            self.trip_write();
            return true;
        }
        false
    }

    /// Counts fault trips into `metrics` (`{prefix}.fault.write_trips`
    /// for crash/ENOSPC-mangled writes, `{prefix}.fault.read_trips` for
    /// injected read errors and corruption applications).
    pub fn attach_metrics(&self, metrics: &Metrics, prefix: &str) {
        let _ = self.metrics.set(FaultMetricSet {
            write_trips: metrics.counter(&format!("{prefix}.fault.write_trips")),
            read_trips: metrics.counter(&format!("{prefix}.fault.read_trips")),
        });
    }

    fn trip_write(&self) {
        if let Some(ms) = self.metrics.get() {
            ms.write_trips.inc();
        }
    }

    fn trip_read(&self) {
        if let Some(ms) = self.metrics.get() {
            ms.read_trips.inc();
        }
    }

    /// Raw page writes observed so far (counting dropped ones).
    pub fn writes_observed(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    /// Raw page reads observed so far.
    pub fn reads_observed(&self) -> u64 {
        self.reads.load(Ordering::SeqCst)
    }

    /// True once the scripted crash point has been reached (page-write
    /// crash point or any armed swap-stage crash).
    pub fn crashed(&self) -> bool {
        self.writes.load(Ordering::SeqCst) > self.crash_after.load(Ordering::SeqCst)
            || self.swap_crashed.load(Ordering::SeqCst)
    }

    /// Backend hook: classify the next raw page write.
    pub fn on_write(&self) -> Result<WriteOutcome, std::io::Error> {
        let due = {
            let mut armed =
                self.before_write.lock().expect("nothing panics holding a scripted action");
            let next = self.writes.load(Ordering::SeqCst);
            armed.take_if(|(n, _)| *n <= next)
        };
        if let Some((_, Scripted(action))) = due {
            action();
        }
        let idx = self.writes.fetch_add(1, Ordering::SeqCst);
        if idx == self.enospc_at.load(Ordering::SeqCst) {
            self.enospc_at.store(u64::MAX, Ordering::SeqCst);
            self.trip_write();
            // Raw errno 28 (ENOSPC) — `ErrorKind::StorageFull` is not a
            // stable constructor, the raw code is.
            return Err(std::io::Error::from_raw_os_error(28));
        }
        let crash = self.crash_after.load(Ordering::SeqCst);
        if idx > crash {
            self.trip_write();
            return Ok(WriteOutcome::Drop);
        }
        if idx == crash {
            self.trip_write();
            return Ok(match *self.crash_mode.lock().unwrap() {
                CrashMode::Torn { keep } => WriteOutcome::Prefix(keep),
                CrashMode::Dropped => WriteOutcome::Drop,
            });
        }
        Ok(WriteOutcome::Persist)
    }

    /// Backend hook: fault/corrupt one raw page read of `len` bytes at
    /// file `offset`. Mutates `buf` in place for sticky corruption.
    pub fn on_read(&self, offset: u64, buf: &mut [u8]) -> Result<(), std::io::Error> {
        self.reads.fetch_add(1, Ordering::SeqCst);
        // Saturating decrement: fail while the scripted budget lasts.
        let mut remaining = self.transient_reads.load(Ordering::SeqCst);
        while remaining > 0 {
            match self.transient_reads.compare_exchange(
                remaining,
                remaining - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    self.trip_read();
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected transient EIO",
                    ));
                }
                Err(seen) => remaining = seen,
            }
        }
        let corruption = self.corruption.lock().unwrap();
        for &(at, mask) in corruption.iter() {
            if at >= offset && at < offset + buf.len() as u64 {
                buf[(at - offset) as usize] ^= mask;
                self.trip_read();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_script_crashes_then_drops() {
        let plan = FaultPlan::new();
        plan.crash_after_page_writes(2, CrashMode::Torn { keep: 10 });
        assert_eq!(plan.on_write().unwrap(), WriteOutcome::Persist);
        assert_eq!(plan.on_write().unwrap(), WriteOutcome::Persist);
        assert_eq!(plan.on_write().unwrap(), WriteOutcome::Prefix(10));
        assert_eq!(plan.on_write().unwrap(), WriteOutcome::Drop);
        assert!(plan.crashed());
    }

    #[test]
    fn a_scripted_action_runs_before_its_write_and_its_writes_count_first() {
        let plan = FaultPlan::new();
        plan.crash_after_page_writes(2, CrashMode::Dropped);
        let inner = Arc::clone(&plan);
        plan.before_page_write(1, move || {
            assert_eq!(inner.on_write().unwrap(), WriteOutcome::Persist, "write 1");
            assert_eq!(inner.on_write().unwrap(), WriteOutcome::Drop, "write 2");
        });
        assert_eq!(plan.on_write().unwrap(), WriteOutcome::Persist, "write 0");
        assert_eq!(plan.on_write().unwrap(), WriteOutcome::Drop, "write 3, after the action's");
        assert_eq!(plan.writes_observed(), 4);
        assert_eq!(plan.on_write().unwrap(), WriteOutcome::Drop, "the action ran once");
    }

    #[test]
    fn enospc_is_one_shot() {
        let plan = FaultPlan::new();
        plan.enospc_at_page_write(1);
        assert_eq!(plan.on_write().unwrap(), WriteOutcome::Persist);
        let err = plan.on_write().unwrap_err();
        assert_eq!(err.raw_os_error(), Some(28));
        assert_eq!(plan.on_write().unwrap(), WriteOutcome::Persist);
    }

    #[test]
    fn read_faults_flip_and_interrupt() {
        let plan = FaultPlan::new();
        plan.corrupt_byte(105, 0x40);
        let mut buf = vec![0u8; 100];
        plan.on_read(100, &mut buf).unwrap();
        assert_eq!(buf[5], 0x40);
        plan.fail_next_reads(1);
        assert!(plan.on_read(0, &mut buf).is_err());
        plan.on_read(0, &mut buf).unwrap();
        assert_eq!(plan.reads_observed(), 3);
        plan.fail_next_reads(1);
        plan.heal();
        let mut clean = vec![0u8; 100];
        plan.on_read(100, &mut clean).unwrap();
        assert_eq!(clean[5], 0, "healed: neither the flip nor the EIO is left");
    }

    #[test]
    fn swap_stage_crashes_latch() {
        let plan = FaultPlan::new();
        assert!(plan.on_swap(SwapStage::Rename).is_ok());
        assert!(!plan.crashed());
        plan.crash_at_swap(SwapStage::Rename);
        assert!(plan.on_swap(SwapStage::TempSync).is_ok());
        assert!(plan.on_swap(SwapStage::Rename).is_err());
        assert!(plan.crashed());

        let plan = FaultPlan::new();
        assert!(!plan.lock_release_crashes());
        plan.crash_at_swap(SwapStage::LockRelease);
        assert!(plan.lock_release_crashes());
        assert!(plan.crashed());
    }
}
