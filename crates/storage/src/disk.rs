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
//! [`PageStore`] holds real object bytes behind a pluggable
//! [`PageBackend`]: the in-memory simulator by default, or a checksummed
//! cube file ([`crate::FileBackend`]) for persistent, reopenable cubes.

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

/// A byte-addressed object store over a pluggable [`PageBackend`].
///
/// Each stored object owns one or more consecutive pages; reading the
/// object charges one read per covering page against the metering
/// [`DiskSim`]. [`PageStore::new`] yields the in-memory simulator backend;
/// [`PageStore::create_file`] / [`PageStore::open_file`] target a real
/// cube file with checksummed pages and a byte-caching buffer pool.
///
/// Reads and writes are fallible: the `try_*` methods and
/// [`PageStore::overwrite`] surface typed [`StorageError`]s. `put` and
/// `get_bytes` panic instead. No read path of the engine calls
/// `get_bytes`, and `put` writes only the fresh in-memory stores of the
/// grid and join-signature builds; both stay because the end-to-end
/// benchmark harness calls them.
#[derive(Debug, Clone)]
pub struct PageStore {
    backend: Arc<dyn PageBackend>,
}

impl Default for PageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore {
    /// In-memory store (deterministic simulator backend).
    pub fn new() -> Self {
        Self { backend: Arc::new(MemBackend::new()) }
    }

    /// Store over an explicit backend.
    pub fn with_backend(backend: Arc<dyn PageBackend>) -> Self {
        Self { backend }
    }

    /// Creates a fresh cube file at `path` (truncating an existing one)
    /// under `opts`: a bare pool capacity in pages, or [`FileOptions`]
    /// with a fault plan.
    pub fn create_file(
        path: impl AsRef<std::path::Path>,
        page_size: usize,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        Ok(Self { backend: Arc::new(FileBackend::create(path, page_size, opts)?) })
    }

    /// Opens an existing cube file read-only.
    pub fn open_file(
        path: impl AsRef<std::path::Path>,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        Ok(Self { backend: Arc::new(FileBackend::open(path, opts)?) })
    }

    /// Opens an existing cube file for writing: appends land after the
    /// newest committed generation, [`Self::flush`] commits the next one.
    pub fn open_file_writable(
        path: impl AsRef<std::path::Path>,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        Ok(Self { backend: Arc::new(FileBackend::open_writable(path, opts)?) })
    }

    /// Opens an existing cube file read-only, pinned on its *previous*
    /// generation (scrub verification before a rollback).
    pub fn open_file_previous(
        path: impl AsRef<std::path::Path>,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        Ok(Self { backend: Arc::new(FileBackend::open_previous(path, opts)?) })
    }

    /// The backing device.
    pub fn backend(&self) -> &Arc<dyn PageBackend> {
        &self.backend
    }

    /// Stores `data`, charging writes to `disk`; returns the first page id.
    pub fn put(&self, disk: &DiskSim, data: Vec<u8>) -> PageId {
        self.try_put(disk, data).unwrap_or_else(|e| panic!("PageStore::put: {e}"))
    }

    /// Fallible [`PageStore::put`].
    pub fn try_put(&self, disk: &DiskSim, data: Vec<u8>) -> Result<PageId, StorageError> {
        self.backend.put(disk, data)
    }

    /// [`PageStore::try_put`] for bytes already behind a shared handle:
    /// the store keeps that handle instead of copying out of it.
    pub fn try_put_shared(&self, disk: &DiskSim, data: Arc<[u8]>) -> Result<PageId, StorageError> {
        self.backend.put_shared(disk, data)
    }

    /// Replaces the object rooted at `first` (same id, new bytes). Charges
    /// writes for the covering pages; a missing object, or one the backend
    /// cannot rewrite in place, is a typed error.
    pub fn overwrite(
        &self,
        disk: &DiskSim,
        first: PageId,
        data: Vec<u8>,
    ) -> Result<(), StorageError> {
        self.backend.overwrite(disk, first, data)
    }

    /// Zero-copy read: charges I/O for every covering page and hands back
    /// a shared handle to the object bytes. Panics if the object does not
    /// exist (a store-level invariant violation, not a user error).
    /// Over a file backend the handle is a view into a buffer-pool frame;
    /// query processors parse borrowed posting-list views
    /// (`rcube_core::idlist`-style) directly over it.
    pub fn get_bytes(&self, disk: &DiskSim, first: PageId) -> Arc<[u8]> {
        self.try_get_bytes(disk, first)
            .unwrap_or_else(|e| panic!("PageStore::get_bytes at {first:?}: {e}"))
    }

    /// Fallible [`PageStore::get_bytes`]: the hardened read path. Every
    /// page is validated (type, length, CRC) before bytes are handed out;
    /// truncation or corruption comes back as a typed [`StorageError`].
    pub fn try_get_bytes(&self, disk: &DiskSim, first: PageId) -> Result<Arc<[u8]>, StorageError> {
        self.backend.get(disk, first)
    }

    /// Reads an object without charging I/O (catalog/bookkeeping reads).
    pub fn peek(&self, first: PageId) -> Result<Arc<[u8]>, StorageError> {
        self.backend.peek(first)
    }

    /// Object size in bytes without charging I/O (catalog lookup).
    pub fn size_of(&self, first: PageId) -> Option<usize> {
        self.backend.size_of(first)
    }

    /// Total stored bytes across all objects (materialized-size metric).
    pub fn total_bytes(&self) -> usize {
        self.backend.total_bytes()
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.backend.object_count()
    }

    /// True when no objects are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops backend-cached bytes (cold-cache measurement point; no-op for
    /// the in-memory backend, whose hits live in the `DiskSim` buffer).
    pub fn clear_cache(&self) {
        self.backend.clear_cache();
    }

    /// Per-shard buffer-pool occupancy and hit/miss/eviction counters, or
    /// `None` on backends without a byte cache (the in-memory simulator).
    pub fn pool_stats(&self) -> Option<crate::buffer::PoolStats> {
        self.backend.pool_stats()
    }

    /// Mirrors the backend's cache/fault activity into `metrics` under
    /// `{prefix}.…` series (e.g. `grid.pool.hits`). No-op on backends
    /// with nothing to observe (the in-memory simulator).
    pub fn attach_metrics(&self, metrics: &rcube_obs::Metrics, prefix: &str) {
        self.backend.attach_metrics(metrics, prefix);
    }

    /// Commits the backend state (on generational backends: appends the
    /// allocation map and stamps the inactive superblock slot with the
    /// next generation — the crash-atomic publish point).
    pub fn flush(&self) -> Result<(), StorageError> {
        self.backend.flush()
    }

    /// The committed generation this store serves, if the backend has
    /// generational commits (`None` for the in-memory simulator).
    pub fn generation(&self) -> Option<u64> {
        self.backend.generation()
    }

    /// The file and committed generation behind this store
    /// ([`crate::FileStamp`]; `None` on the in-memory backend).
    pub fn file_stamp(&self) -> Option<crate::FileStamp> {
        self.backend.file_stamp()
    }

    /// Marks the object rooted at `first` unreachable from the next
    /// generation (COW maintenance retired it).
    pub fn retire(&self, first: PageId) -> Result<(), StorageError> {
        self.backend.retire(first)
    }

    /// Pages retired by COW maintenance that a vacuum would reclaim.
    pub fn reclaimable_pages(&self) -> u64 {
        self.backend.reclaimable_pages()
    }

    /// True when the backend rejects writes (a reopened cube file).
    pub fn read_only(&self) -> bool {
        self.backend.read_only()
    }

    /// The catalog root recorded on the device, if any.
    pub fn catalog(&self) -> Option<PageId> {
        self.backend.catalog()
    }

    /// Records the catalog root on the device.
    pub fn set_catalog(&self, first: PageId) -> Result<(), StorageError> {
        self.backend.set_catalog(first)
    }

    /// Stores a metadata object the catalog names, uncharged and excluded
    /// from the materialized totals on persistent backends.
    pub fn put_meta(&self, disk: &DiskSim, data: Vec<u8>) -> Result<PageId, StorageError> {
        self.backend.put_meta(disk, data)
    }

    /// Stores the catalog object and records it as the root (excluded
    /// from the materialized totals on persistent backends).
    pub fn put_catalog(&self, disk: &DiskSim, data: Vec<u8>) -> Result<PageId, StorageError> {
        self.backend.put_catalog(disk, data)
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
        assert_eq!(store.size_of(id), Some(256));
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
            assert_eq!(store.size_of(id), Some(1500));
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
