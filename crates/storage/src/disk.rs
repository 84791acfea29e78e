//! The metered block device and the byte-addressed page store.
//!
//! [`DiskSim`] is the I/O *meter*: components allocate page ids and charge
//! reads/writes against its shared [`IoStats`], with an id-level exact-LRU
//! buffer deciding hit vs physical read — its misses are the thesis
//! figures' disk accesses. It is fully thread-safe: an atomic allocator,
//! and a buffer ([`crate::buffer::StripedLruBuffer`]) lock-striped and
//! queued the same way the byte-caching `BufferPool` is
//! ([`crate::buffer::Stripes`], [`crate::buffer::QueueMap`]), so
//! cursor-heavy concurrent workloads charging hits against one shared
//! device do not serialize on a single mutex.
//!
//! [`PageStore`] is the handle every cube holds on the bytes it stores:
//! it owns one [`PageBackend`] — the in-memory simulator by default, or a
//! checksummed cube file ([`crate::FileBackend`]) for persistent,
//! reopenable cubes — and derefs to it, so the trait is the whole storage
//! interface.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rcube_obs::{Counter, Metrics};

use crate::backend::{MemBackend, PageBackend, StorageError};
use crate::buffer::StripedLruBuffer;
use crate::file::{FileBackend, FileOptions};
use crate::stats::IoStats;
use crate::DEFAULT_PAGE_SIZE;

/// Identifier of a 4 KB (by default) page on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// A simulated block device with an LRU buffer pool.
///
/// Components (indexes, cuboid stores, signature stores) allocate page ids
/// from the device and *charge* reads/writes against it; the shared
/// [`IoStats`] then report the paper's "number of disk accesses" metric.
///
/// Interior mutability keeps the call sites ergonomic: query processors
/// hold `&DiskSim` and charge I/O without threading `&mut` through every
/// search routine. All interior state is thread-safe (lock-striped buffer
/// + atomics), so `&DiskSim` can be shared across query threads.
#[derive(Debug)]
pub struct DiskSim {
    page_size: usize,
    stats: IoStats,
    buffer: StripedLruBuffer,
    next_page: AtomicU64,
    /// Live I/O counters, resolved once by [`DiskSim::attach_metrics`].
    metrics: OnceLock<DiskMetricSet>,
}

/// Pre-resolved counter handles mirroring [`IoStats`] into a registry.
#[derive(Debug)]
struct DiskMetricSet {
    logical_reads: Counter,
    disk_reads: Counter,
    buffer_hits: Counter,
    writes: Counter,
    random_accesses: Counter,
}

impl DiskSim {
    /// Creates a device with the given page size (bytes) and buffer pool
    /// capacity (pages).
    pub fn new(page_size: usize, buffer_pages: usize) -> Self {
        Self {
            page_size,
            stats: IoStats::default(),
            buffer: StripedLruBuffer::new(buffer_pages),
            next_page: AtomicU64::new(0),
            metrics: OnceLock::new(),
        }
    }

    /// Mirrors the device's I/O activity into `metrics` as live counters
    /// (`disk.logical_reads`, `disk.reads`, `disk.buffer_hits`,
    /// `disk.writes`, `disk.random_accesses`). Resolves handles once; a
    /// second attach is a no-op. Unlike [`Self::reset_stats`], these
    /// counters never reset — they are cumulative device history.
    pub fn attach_metrics(&self, metrics: &Metrics) {
        let _ = self.metrics.set(DiskMetricSet {
            logical_reads: metrics.counter("disk.logical_reads"),
            disk_reads: metrics.counter("disk.reads"),
            buffer_hits: metrics.counter("disk.buffer_hits"),
            writes: metrics.counter("disk.writes"),
            random_accesses: metrics.counter("disk.random_accesses"),
        });
    }

    /// Device with the thesis defaults: 4 KB pages, 256-page buffer (1 MB).
    pub fn with_defaults() -> Self {
        Self::new(DEFAULT_PAGE_SIZE, 256)
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The device's I/O meter, borrowed: every cursor and backend charging
    /// this device records into (and snapshots) the same counters.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Allocates a fresh page id.
    pub fn alloc_page(&self) -> PageId {
        PageId(self.next_page.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocates `n` consecutive page ids (for multi-page objects).
    pub fn alloc_pages(&self, n: usize) -> Vec<PageId> {
        let first = self.next_page.fetch_add(n as u64, Ordering::Relaxed);
        (0..n as u64).map(|i| PageId(first + i)).collect()
    }

    /// Charges a read of `page`; returns `true` if the buffer absorbed it.
    pub fn read(&self, page: PageId) -> bool {
        let hit = self.buffer.touch(page);
        self.stats.record_read(hit);
        if let Some(ms) = self.metrics.get() {
            ms.logical_reads.inc();
            if hit { &ms.buffer_hits } else { &ms.disk_reads }.inc();
        }
        hit
    }

    /// Charges a read of every page covering `bytes` of payload starting at
    /// `first` (objects larger than one page occupy consecutive ids).
    pub fn read_span(&self, first: PageId, bytes: usize) {
        let pages = self.pages_for(bytes);
        for i in 0..pages as u64 {
            self.read(PageId(first.0 + i));
        }
    }

    /// Charges a write of `page` (write-through; also populates the buffer).
    pub fn write(&self, page: PageId) {
        self.buffer.touch(page);
        self.stats.record_writes(1);
        if let Some(ms) = self.metrics.get() {
            ms.writes.inc();
        }
    }

    /// Charges a tuple-level random access (e.g. fetching one row by tid via
    /// a non-clustered index, the dominant cost of the DBMS baseline).
    pub fn random_access(&self) {
        self.stats.record_random();
        if let Some(ms) = self.metrics.get() {
            ms.random_accesses.inc();
        }
    }

    /// Number of pages needed to hold `bytes` of payload (at least one).
    pub fn pages_for(&self, bytes: usize) -> usize {
        bytes.div_ceil(self.page_size).max(1)
    }

    /// Clears the buffer pool (cold-cache measurement point).
    pub fn clear_buffer(&self) {
        self.buffer.clear();
    }

    /// Resets the I/O counters.
    pub fn reset_stats(&self) {
        self.stats.reset();
    }
}

impl Default for DiskSim {
    fn default() -> Self {
        Self::with_defaults()
    }
}

/// A byte-addressed object store: an owning, cloneable handle on a
/// [`PageBackend`] that derefs to it, so every storage operation is the
/// trait method of that name (`store.try_get_bytes(..)`,
/// `store.flush()`, `store.pool_stats()`, …).
///
/// Each stored object owns one or more consecutive pages; reading the
/// object charges one read per covering page against the metering
/// [`DiskSim`]. [`PageStore::new`] yields the in-memory simulator backend;
/// [`PageStore::create_file`] / [`PageStore::open_file`] target a real
/// cube file with checksummed pages and a byte-caching buffer pool.
///
/// Reads and writes are fallible and surface typed [`StorageError`]s.
/// The handle adds only two panicking names, [`PageStore::put`] and
/// [`PageStore::get_bytes`]: no read path of the engine calls
/// `get_bytes`, and `put` writes only the fresh in-memory stores of the
/// grid and join-signature builds; both stay because the end-to-end
/// benchmark harness calls them.
#[derive(Debug, Clone)]
pub struct PageStore(Arc<dyn PageBackend>);

impl Default for PageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for PageStore {
    type Target = dyn PageBackend;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl PageStore {
    /// In-memory store (deterministic simulator backend).
    pub fn new() -> Self {
        Self(Arc::new(MemBackend::new()))
    }

    /// Store over an explicit backend.
    pub fn with_backend(backend: Arc<dyn PageBackend>) -> Self {
        Self(backend)
    }

    /// Creates a fresh cube file at `path` (truncating an existing one)
    /// under `opts`: a bare pool capacity in pages, or [`FileOptions`]
    /// with a fault plan.
    pub fn create_file(
        path: impl AsRef<std::path::Path>,
        page_size: usize,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        Ok(Self(Arc::new(FileBackend::create(path, page_size, opts)?)))
    }

    /// Opens an existing cube file read-only.
    pub fn open_file(
        path: impl AsRef<std::path::Path>,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        Ok(Self(Arc::new(FileBackend::open(path, opts)?)))
    }

    /// Opens an existing cube file for writing: appends land after the
    /// newest committed generation, `flush` commits the next one.
    pub fn open_file_writable(
        path: impl AsRef<std::path::Path>,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        Ok(Self(Arc::new(FileBackend::open_writable(path, opts)?)))
    }

    /// Opens an existing cube file read-only, pinned on its *previous*
    /// generation (scrub verification before a rollback).
    pub fn open_file_previous(
        path: impl AsRef<std::path::Path>,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        Ok(Self(Arc::new(FileBackend::open_previous(path, opts)?)))
    }

    /// [`PageBackend::try_put`] that panics on a storage error.
    pub fn put(&self, disk: &DiskSim, data: Vec<u8>) -> PageId {
        self.try_put(disk, data).unwrap_or_else(|e| panic!("PageStore::put: {e}"))
    }

    /// [`PageBackend::try_get_bytes`] that panics on a storage error (a
    /// missing object is a store-level invariant violation, not a user
    /// error).
    pub fn get_bytes(&self, disk: &DiskSim, first: PageId) -> Arc<[u8]> {
        self.try_get_bytes(disk, first)
            .unwrap_or_else(|e| panic!("PageStore::get_bytes at {first:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_charges_miss_then_hit() {
        let disk = DiskSim::new(4096, 4);
        let p = disk.alloc_page();
        assert!(!disk.read(p));
        assert!(disk.read(p));
        let s = disk.stats().snapshot();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.disk_reads, 1);
    }

    #[test]
    fn span_reads_cover_all_pages() {
        let disk = DiskSim::new(100, 16);
        let first = disk.alloc_page();
        let _rest = disk.alloc_pages(2);
        disk.read_span(first, 250); // 3 pages
        assert_eq!(disk.stats().snapshot().logical_reads, 3);
    }

    #[test]
    fn page_store_round_trips_and_charges() {
        let disk = DiskSim::new(100, 0); // no buffer: all reads physical
        let store = PageStore::new();
        let data: Vec<u8> = (0..=255).collect();
        let id = store.put(&disk, data.clone());
        disk.reset_stats();
        let back = store.try_get_bytes(&disk, id).unwrap();
        assert_eq!(&back[..], &data[..]);
        // 256 bytes over 100-byte pages => 3 physical reads.
        assert_eq!(disk.stats().snapshot().disk_reads, 3);
    }

    #[test]
    fn get_bytes_is_shared_not_copied() {
        let disk = DiskSim::new(100, 0);
        let store = PageStore::new();
        let id = store.put(&disk, vec![7u8; 300]);
        disk.reset_stats();
        let a = store.get_bytes(&disk, id);
        let b = store.get_bytes(&disk, id);
        // Same allocation both times (zero-copy), I/O charged each read.
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()));
        assert_eq!(disk.stats().snapshot().logical_reads, 6); // 2 × 3 pages
        assert_eq!(&a[..], &[7u8; 300][..]);
    }

    #[test]
    fn overwrite_replaces_bytes() {
        let disk = DiskSim::with_defaults();
        let store = PageStore::new();
        let id = store.put(&disk, vec![1, 2, 3]);
        store.overwrite(&disk, id, vec![9]).unwrap();
        assert_eq!(&store.try_get_bytes(&disk, id).unwrap()[..], &[9]);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn pages_for_rounds_up() {
        let disk = DiskSim::new(4096, 0);
        assert_eq!(disk.pages_for(0), 1);
        assert_eq!(disk.pages_for(1), 1);
        assert_eq!(disk.pages_for(4096), 1);
        assert_eq!(disk.pages_for(4097), 2);
    }

    #[test]
    fn alloc_pages_are_consecutive() {
        let disk = DiskSim::with_defaults();
        let ids = disk.alloc_pages(3);
        assert_eq!(ids[1].0, ids[0].0 + 1);
        assert_eq!(ids[2].0, ids[0].0 + 2);
    }

    #[test]
    fn try_get_bytes_reports_missing_object() {
        let disk = DiskSim::with_defaults();
        let store = PageStore::new();
        assert!(matches!(
            store.try_get_bytes(&disk, PageId(3)),
            Err(StorageError::MissingObject(PageId(3)))
        ));
    }

    #[test]
    fn disk_is_shareable_across_threads() {
        let disk = DiskSim::new(4096, 8);
        let store = PageStore::new();
        let ids: Vec<PageId> = (0..8).map(|i| store.put(&disk, vec![i as u8; 64])).collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for &id in &ids {
                        let bytes = store.get_bytes(&disk, id);
                        assert_eq!(bytes.len(), 64);
                    }
                });
            }
        });
        // 4 threads × 8 objects × 1 page each, all charged.
        assert_eq!(disk.stats().snapshot().logical_reads, 32);
    }

    #[test]
    fn file_backed_store_round_trips_via_pagestore() {
        let mut path = std::env::temp_dir();
        path.push(format!("rcube_pagestore_{}", std::process::id()));
        let disk = DiskSim::with_defaults();
        let id = {
            let store = PageStore::create_file(&path, 512, 8).unwrap();
            let id = store.put(&disk, b"persistent bytes".to_vec());
            store.set_catalog(id).unwrap();
            store.flush().unwrap();
            id
        };
        let store = PageStore::open_file(&path, 8).unwrap();
        assert!(store.read_only());
        assert_eq!(store.catalog(), Some(id));
        assert_eq!(&store.try_get_bytes(&disk, id).unwrap()[..], b"persistent bytes");
        std::fs::remove_file(&path).ok();
    }

    /// The shared form keeps the caller's handle: on a file store the
    /// write-through frame *is* the `Arc` handed in (and so is the map
    /// entry of the in-memory one); the bytes on disk are their own copy
    /// and read back equal once the pool is emptied.
    #[test]
    fn put_shared_keeps_the_callers_handle() {
        let mut path = std::env::temp_dir();
        path.push(format!("rcube_pagestore_shared_{}", std::process::id()));
        let disk = DiskSim::with_defaults();
        let data: Arc<[u8]> = (0..1500u32).map(|i| i as u8).collect();
        for store in [PageStore::new(), PageStore::create_file(&path, 512, 8).unwrap()] {
            let id = store.try_put_shared(&disk, Arc::clone(&data)).unwrap();
            assert!(Arc::ptr_eq(&store.peek(id).unwrap(), &data));
            if store.pool_stats().is_some() {
                store.clear_cache();
                let cold = store.peek(id).unwrap();
                assert!(!Arc::ptr_eq(&cold, &data));
                assert_eq!(cold, data);
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
