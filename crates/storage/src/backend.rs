//! The page backend: one trait, two devices.
//!
//! Everything above this crate stores *objects* (serialized cells, base
//! blocks, partial signatures) through a [`crate::PageStore`], an owning
//! handle that derefs to the [`PageBackend`] it holds — every storage
//! operation is a trait method, implemented by one of two devices:
//!
//! * [`MemBackend`] — the original in-memory simulator. Bytes live in a
//!   map, the [`crate::DiskSim`] passed to each call decides buffer
//!   hits/misses and charges the shared [`crate::IoStats`]. Deterministic
//!   and allocation-cheap: the default for unit tests and builds.
//! * [`crate::FileBackend`] — a real single-file store with checksummed
//!   pages and a byte-caching buffer pool ([`crate::BufferPool`]). Reads
//!   are charged against the same `IoStats` so metered experiments work
//!   identically over either device.
//!
//! Both backends hand out `Arc<[u8]>` object handles; the zero-copy
//! posting-list cursors of `rcube_core::idlist` parse borrowed views
//! straight off them, whether the bytes came from a map or a cold disk
//! page.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::buffer::PoolStats;
use crate::disk::{DiskSim, PageId};

/// Typed storage failure. The file backend validates magic, version,
/// page type, length and CRC *before* handing bytes out; each rejection
/// names the page so corruption is diagnosable instead of a panic.
#[derive(Debug)]
pub enum StorageError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not start with the cube-file magic.
    BadMagic,
    /// The file's format version is newer/older than this build supports.
    UnsupportedVersion(u16),
    /// A page's CRC-32 did not match its contents.
    ChecksumMismatch { page: u64 },
    /// A page header carried an unknown page-type byte.
    BadPageType { page: u64, found: u8 },
    /// A declared length exceeds what the page / buffer can hold.
    BadLength { page: u64, len: usize, max: usize },
    /// An object's continuation chain ran past the end of the file.
    TruncatedObject { page: u64 },
    /// A page id past the end of the file was requested.
    OutOfBounds { page: u64, page_count: u64 },
    /// No object is rooted at the requested page.
    MissingObject(PageId),
    /// Write attempted on a backend opened read-only.
    ReadOnly,
    /// In-place overwrite attempted on a page belonging to a committed
    /// generation (committed pages are immutable; patch by appending).
    ImmutableGeneration { page: u64 },
    /// A second writable handle was refused: the cube file's advisory
    /// lock file is held by a live writer (`owner_pid`). See
    /// `format` § *Locking & swap protocol* for the takeover rule.
    WriterLocked { owner_pid: u32 },
    /// A catalog or structural blob failed validation.
    Malformed(&'static str),
}

impl StorageError {
    /// True for faults worth retrying with backoff: transient I/O kinds
    /// (interrupted syscalls, timeouts) rather than structural damage.
    pub fn is_transient(&self) -> bool {
        match self {
            Self::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "storage I/O error: {e}"),
            Self::BadMagic => write!(f, "not a ranking-cube file (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported cube-file format version {v}"),
            Self::ChecksumMismatch { page } => write!(f, "checksum mismatch on page {page}"),
            Self::BadPageType { page, found } => {
                write!(f, "invalid page type {found} on page {page}")
            }
            Self::BadLength { page, len, max } => {
                write!(f, "invalid length {len} on page {page} (max {max})")
            }
            Self::TruncatedObject { page } => {
                write!(f, "object truncated: continuation past page {page}")
            }
            Self::OutOfBounds { page, page_count } => {
                write!(f, "page {page} out of bounds (file has {page_count} pages)")
            }
            Self::MissingObject(id) => write!(f, "no object rooted at {id:?}"),
            Self::ReadOnly => write!(f, "store is read-only"),
            Self::ImmutableGeneration { page } => {
                write!(f, "page {page} belongs to a committed generation (immutable)")
            }
            Self::WriterLocked { owner_pid } => {
                write!(f, "cube file writer lock held by live process {owner_pid}")
            }
            Self::Malformed(what) => write!(f, "malformed cube file: {what}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Which file a file-backed handle has open and which committed
/// generation of it the handle stands on: taken at open (the elected
/// superblock) and again after every commit (the superblock just
/// stamped); between a catalog write and its commit the stamp is not
/// meaningful. Two handles with equal stamps read the same catalog and the
/// same pages below `page_count` — what lets a writer that reopens the
/// file it last committed keep its in-memory catalog instead of parsing
/// the stored one again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStamp {
    /// `(st_dev, st_ino)` of the open descriptor. The descriptor pins
    /// the inode, so the pair cannot be reused while the handle lives.
    /// `None` where the platform has no such identity.
    pub file_id: Option<(u64, u64)>,
    /// Committed generation.
    pub generation: u64,
    /// Pages that generation covers.
    pub page_count: u64,
    /// Its catalog object, if one was recorded.
    pub catalog_first: Option<u64>,
}

impl FileStamp {
    /// True when both stamps name the same generation of the same file —
    /// never when either side could not identify its file.
    pub fn same_publication(&self, other: &FileStamp) -> bool {
        self.file_id.is_some() && self == other
    }
}

/// A device that stores byte objects in fixed-size pages: the one storage
/// interface, reached through a [`crate::PageStore`] or a backend handle.
///
/// Object granularity: `try_put` lays an object over one or more
/// consecutive pages and returns the first page id; `try_get_bytes`
/// reassembles it. Every fallible operation returns a typed
/// [`StorageError`]. The
/// [`DiskSim`] argument is the *meter* — backends charge logical/physical
/// reads and writes against its shared [`crate::IoStats`] so the paper's
/// disk-access counts stay comparable across devices. Hit/miss is decided
/// by the backend's own cache (the `DiskSim` buffer for [`MemBackend`],
/// the byte-level [`crate::BufferPool`] for the file store).
pub trait PageBackend: Send + Sync + std::fmt::Debug {
    /// Stores a new object, charging writes; returns its first page id.
    /// The backend keeps the handle it is given — the map entry of
    /// [`MemBackend`], the write-through pool frame of the file store — so
    /// a caller that already holds the bytes shared (a save copying one
    /// store's objects into another) hands them over without a copy.
    fn try_put_shared(&self, disk: &DiskSim, data: Arc<[u8]>) -> Result<PageId, StorageError>;

    /// [`Self::try_put_shared`] for bytes the caller owns outright.
    fn try_put(&self, disk: &DiskSim, data: Vec<u8>) -> Result<PageId, StorageError> {
        self.try_put_shared(disk, data.into())
    }

    /// Replaces the object rooted at `first` (same id, new bytes).
    ///
    /// Legal only on objects the current, still-uncommitted generation
    /// owns: backends with generational commits reject an overwrite of a
    /// committed page with [`StorageError::ImmutableGeneration`] — a
    /// committed generation is an immutable value, patched by appending a
    /// new copy (COW) and publishing a new catalog, never in place.
    fn overwrite(&self, disk: &DiskSim, first: PageId, data: Vec<u8>) -> Result<(), StorageError>;

    /// Zero-copy read: charges one read per covering page and returns a
    /// shared handle to the object's bytes — over a file backend, a view
    /// into a buffer-pool frame that query processors parse borrowed
    /// posting-list views directly over. Every page is validated (type,
    /// length, CRC) before bytes are handed out.
    fn try_get_bytes(&self, disk: &DiskSim, first: PageId) -> Result<Arc<[u8]>, StorageError>;

    /// Reads an object without charging I/O (save/open bookkeeping, not a
    /// metered query path).
    fn peek(&self, first: PageId) -> Result<Arc<[u8]>, StorageError>;

    /// Total stored payload bytes (materialized-size metric).
    fn total_bytes(&self) -> usize;

    /// Number of stored objects.
    fn len(&self) -> usize;

    /// True when no objects are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops cached bytes (cold-cache measurement point). No-op for the
    /// in-memory backend, whose "cache" is the `DiskSim` buffer.
    fn clear_cache(&self);

    /// Durably persists metadata (superblock, allocation map). No-op for
    /// the in-memory backend.
    fn flush(&self) -> Result<(), StorageError> {
        Ok(())
    }

    /// True when mutation is rejected (a reopened cube file).
    fn read_only(&self) -> bool {
        false
    }

    /// Root object recorded in the device's metadata, if any.
    fn catalog(&self) -> Option<PageId>;

    /// Records the root object (the cube catalog) in device metadata.
    fn set_catalog(&self, first: PageId) -> Result<(), StorageError>;

    /// Stores a metadata object: the catalog, or an object only the
    /// catalog names (an R-tree node). Backends with persistent metadata
    /// neither charge it to `disk` nor count it in `total_bytes` /
    /// `len`, keeping those the paper's *materialized cube size*
    /// (cells + base blocks), not file overhead.
    fn put_meta(&self, disk: &DiskSim, data: Vec<u8>) -> Result<PageId, StorageError> {
        self.try_put(disk, data)
    }

    /// Stores the catalog object ([`Self::put_meta`]) and records it as
    /// the root.
    fn put_catalog(&self, disk: &DiskSim, data: Vec<u8>) -> Result<PageId, StorageError> {
        let id = self.put_meta(disk, data)?;
        self.set_catalog(id)?;
        Ok(id)
    }

    /// Snapshot of the backend's byte-caching buffer pool, if it has one.
    /// `None` for the in-memory backend, whose "cache" is the id-level
    /// `DiskSim` buffer.
    fn pool_stats(&self) -> Option<PoolStats> {
        None
    }

    /// The committed generation this handle serves, for backends with
    /// generational commits (`None` for the in-memory simulator).
    fn generation(&self) -> Option<u64> {
        None
    }

    /// The file and committed generation behind this handle (`None` for
    /// backends without generational files).
    fn file_stamp(&self) -> Option<FileStamp> {
        None
    }

    /// Marks the object rooted at `first` unreachable from the next
    /// generation (COW maintenance retired it). The in-memory backend
    /// frees it immediately; the file backend records it for vacuum —
    /// the bytes stay readable by handles pinned on older generations.
    fn retire(&self, first: PageId) -> Result<(), StorageError> {
        let _ = first;
        Ok(())
    }

    /// Pages retired by COW maintenance that a vacuum (compacting
    /// rewrite) would reclaim. Zero on backends that free immediately.
    fn reclaimable_pages(&self) -> u64 {
        0
    }

    /// Mirrors backend activity (buffer pool, fault injections) into
    /// `metrics` under `{prefix}.…` series. Default: nothing to observe.
    fn attach_metrics(&self, metrics: &rcube_obs::Metrics, prefix: &str) {
        let _ = (metrics, prefix);
    }
}

/// The in-memory simulator backend: objects in a map, I/O *charged* but
/// never performed. Thread-safe (`RwLock` map + atomic catalog) so a
/// built cube can be queried from multiple threads.
#[derive(Debug, Default)]
pub struct MemBackend {
    objects: RwLock<HashMap<PageId, Arc<[u8]>>>,
    /// Catalog root + 1; 0 = none (atomic Option<u64> without a lock).
    catalog: AtomicU64,
}

impl MemBackend {
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageBackend for MemBackend {
    fn try_put_shared(&self, disk: &DiskSim, data: Arc<[u8]>) -> Result<PageId, StorageError> {
        let pages = disk.pages_for(data.len());
        let ids = disk.alloc_pages(pages);
        let first = ids[0];
        for id in &ids {
            disk.write(*id);
        }
        self.objects.write().unwrap().insert(first, data);
        Ok(first)
    }

    fn overwrite(&self, disk: &DiskSim, first: PageId, data: Vec<u8>) -> Result<(), StorageError> {
        let pages = disk.pages_for(data.len());
        for i in 0..pages as u64 {
            disk.write(PageId(first.0 + i));
        }
        self.objects.write().unwrap().insert(first, data.into());
        Ok(())
    }

    fn try_get_bytes(&self, disk: &DiskSim, first: PageId) -> Result<Arc<[u8]>, StorageError> {
        let data = self.peek(first)?;
        disk.read_span(first, data.len());
        Ok(data)
    }

    fn peek(&self, first: PageId) -> Result<Arc<[u8]>, StorageError> {
        self.objects.read().unwrap().get(&first).cloned().ok_or(StorageError::MissingObject(first))
    }

    fn total_bytes(&self) -> usize {
        self.objects.read().unwrap().values().map(|d| d.len()).sum()
    }

    fn len(&self) -> usize {
        self.objects.read().unwrap().len()
    }

    fn clear_cache(&self) {}

    fn catalog(&self) -> Option<PageId> {
        match self.catalog.load(Ordering::Acquire) {
            0 => None,
            v => Some(PageId(v - 1)),
        }
    }

    fn set_catalog(&self, first: PageId) -> Result<(), StorageError> {
        self.catalog.store(first.0 + 1, Ordering::Release);
        Ok(())
    }

    fn retire(&self, first: PageId) -> Result<(), StorageError> {
        // Frees the bytes immediately; in-flight readers holding the
        // `Arc` keep their snapshot, matching the COW contract.
        self.objects.write().unwrap().remove(&first);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_round_trips() {
        let disk = DiskSim::new(100, 0);
        let be = MemBackend::new();
        let id = be.try_put(&disk, vec![9u8; 250]).unwrap();
        assert_eq!(be.total_bytes(), 250);
        assert_eq!(be.len(), 1);
        let back = be.try_get_bytes(&disk, id).unwrap();
        assert_eq!(&back[..], &[9u8; 250][..]);
        // 250 bytes over 100-byte pages: 3 physical reads, 3 writes.
        let s = disk.stats().snapshot();
        assert_eq!(s.disk_reads, 3);
        assert_eq!(s.writes, 3);
    }

    #[test]
    fn mem_backend_missing_object_is_typed() {
        let disk = DiskSim::with_defaults();
        let be = MemBackend::new();
        assert!(matches!(
            be.try_get_bytes(&disk, PageId(5)),
            Err(StorageError::MissingObject(PageId(5)))
        ));
    }

    #[test]
    fn mem_backend_catalog_round_trips() {
        let be = MemBackend::new();
        assert_eq!(be.catalog(), None);
        be.set_catalog(PageId(0)).unwrap();
        assert_eq!(be.catalog(), Some(PageId(0)));
        be.set_catalog(PageId(41)).unwrap();
        assert_eq!(be.catalog(), Some(PageId(41)));
    }
}
