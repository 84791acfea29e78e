//! Shared I/O counters.
//!
//! The evaluation sections of the thesis plot three cost families:
//! execution time, *number of disk accesses* (Figures 4.13, 5.10, 5.17, 7.4)
//! and in-memory working-set sizes. [`IoStats`] is the single source of truth
//! for the I/O family; every simulated component charges it.

use rcube_obs::Striped;

/// The I/O meter shared between a [`crate::DiskSim`] and its clients.
///
/// Four monotonically increasing counters in one thread-striped cell
/// (`rcube_obs::Striped`): recording is a relaxed atomic add on the
/// recording thread's own stripe, so query threads charging one device do
/// not write each other's cache lines, and [`IoStats::snapshot`] sums the
/// stripes. Use `snapshot` and [`IoSnapshot::delta`] to meter an individual
/// query — exact for a client alone on its device; with several clients
/// the delta also holds whatever the others charged in between.
#[derive(Debug, Default)]
pub struct IoStats {
    counters: Striped<4>,
}

/// Page reads requested by clients (buffer hits included).
const LOGICAL_READS: usize = 0;
/// Page reads that missed the buffer pool and hit the simulated disk.
const DISK_READS: usize = 1;
/// Page writes.
const WRITES: usize = 2;
/// Random (non-clustered) accesses; tracked separately because the
/// baseline approaches of Section 3.5 are dominated by them.
const RANDOM_ACCESSES: usize = 3;

impl IoStats {
    /// Records a logical page read; `hit` tells whether the buffer absorbed it.
    #[inline]
    pub fn record_read(&self, hit: bool) {
        self.record_reads(1, hit);
    }

    /// Records `pages` logical page reads of one object, all hits or all
    /// misses (an object is cached or fetched whole).
    #[inline]
    pub fn record_reads(&self, pages: u64, hit: bool) {
        self.counters.add(LOGICAL_READS, pages);
        if !hit {
            self.counters.add(DISK_READS, pages);
        }
    }

    /// Records `pages` page writes.
    #[inline]
    pub fn record_writes(&self, pages: u64) {
        self.counters.add(WRITES, pages);
    }

    /// Records a random access (tuple-level fetch not served by a scan).
    #[inline]
    pub fn record_random(&self) {
        self.counters.add(RANDOM_ACCESSES, 1);
    }

    /// Captures the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            logical_reads: self.counters.sum(LOGICAL_READS),
            disk_reads: self.counters.sum(DISK_READS),
            writes: self.counters.sum(WRITES),
            random_accesses: self.counters.sum(RANDOM_ACCESSES),
        }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.counters.reset();
    }
}

/// A point-in-time copy of [`IoStats`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub logical_reads: u64,
    pub disk_reads: u64,
    pub writes: u64,
    pub random_accesses: u64,
}

impl IoSnapshot {
    /// Counter increase between `self` (earlier) and `later`.
    pub fn delta(&self, later: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            logical_reads: later.logical_reads - self.logical_reads,
            disk_reads: later.disk_reads - self.disk_reads,
            writes: later.writes - self.writes,
            random_accesses: later.random_accesses - self.random_accesses,
        }
    }

    /// Total I/O operations (reads + writes) that reached the disk.
    pub fn total_disk_ops(&self) -> u64 {
        self.disk_reads + self.writes
    }
}

/// Field-wise sum: the I/O of two meters together.
impl std::ops::Add for IoSnapshot {
    type Output = IoSnapshot;

    fn add(self, o: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            logical_reads: self.logical_reads + o.logical_reads,
            disk_reads: self.disk_reads + o.disk_reads,
            writes: self.writes + o.writes,
            random_accesses: self.random_accesses + o.random_accesses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let stats = IoStats::default();
        stats.record_read(true);
        stats.record_read(false);
        stats.record_writes(1);
        stats.record_random();
        let snap = stats.snapshot();
        assert_eq!(snap.logical_reads, 2);
        assert_eq!(snap.disk_reads, 1);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.random_accesses, 1);
        stats.reset();
        assert_eq!(stats.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn snapshot_delta_subtracts() {
        let stats = IoStats::default();
        stats.record_read(false);
        let before = stats.snapshot();
        stats.record_read(false);
        stats.record_read(true);
        let after = stats.snapshot();
        let d = before.delta(&after);
        assert_eq!(d.logical_reads, 2);
        assert_eq!(d.disk_reads, 1);
        assert_eq!(d.total_disk_ops(), 1);
    }

    #[test]
    fn eight_threads_lose_no_read() {
        let stats = IoStats::default();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let stats = &stats;
                s.spawn(move || {
                    for i in 0..100_000u64 {
                        stats.record_read((i + t) % 4 != 0); // every fourth misses
                        if i % 10 == 0 {
                            stats.record_writes(2);
                            stats.record_random();
                        }
                    }
                });
            }
        });
        assert_eq!(
            stats.snapshot(),
            IoSnapshot {
                logical_reads: 800_000,
                disk_reads: 200_000,
                writes: 160_000,
                random_accesses: 80_000,
            }
        );
    }
}
