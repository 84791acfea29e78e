//! Paged block storage for the ranking-cube reproduction.
//!
//! Every experiment in the paper reports *disk accesses* at page granularity
//! (4 KB pages by default, matching the thesis' R-tree/SQL-Server setup).
//! This crate provides:
//!
//! * [`IoStats`] — shared atomic counters for logical reads, physical
//!   (buffer-miss) reads, writes and random accesses;
//! * [`DiskSim`] — a thread-safe metered block device with an LRU buffer
//!   that charges physical reads only on buffer misses;
//! * [`PageBackend`] — the storage interface: one trait, every object
//!   operation (put, overwrite, metered and unmetered reads, commit,
//!   retire, catalog root, pool statistics), with two implementations:
//!   [`MemBackend`] (the deterministic in-memory simulator) and
//!   [`FileBackend`] (a real single-file store with a superblock,
//!   CRC-checksummed pages, an allocation map, a lock-free positional-read
//!   path and a lock-striped byte-caching [`BufferPool`] — see [`format`]
//!   for the on-disk layout and the concurrency model);
//! * [`PageStore`] — the handle the cubes hold on their serialized
//!   structures (cuboid cells, base blocks, partial signatures): it owns
//!   one backend, in memory or over a reopenable cube file, and derefs to
//!   it, so a store call is the trait call;
//! * [`bits`] — bit-level readers/writers used by the signature coding
//!   schemes of Chapter 4 (`BL`/`RL`/`PI`/`PC` produce real binary strings).
//!
//! The in-memory device preserves the paper's *relative* cost model (who
//! does more I/O); the file device adds real persistence with the same
//! metering, so cold-open, warm-pool and in-memory runs are directly
//! comparable.

pub mod backend;
pub mod bits;
pub mod buffer;
pub mod disk;
pub mod fault;
pub mod file;
pub mod format;
pub mod lock;
pub mod manifest;
pub mod stats;

pub use backend::{FileStamp, MemBackend, PageBackend, StorageError};
pub use bits::{bits_for, iter_ones, BitReader, BitWriter, PackedBits};
pub use buffer::{
    BufferPool, PoolShardStats, PoolStats, QueueMap, StripedLruBuffer, Stripes, DEFAULT_POOL_SHARDS,
};
pub use disk::{DiskSim, PageId, PageStore};
pub use fault::{CrashMode, FaultPlan, SwapStage, WriteOutcome};
pub use file::{FileBackend, FileOptions, DEFAULT_POOL_PAGES};
pub use format::{ByteReader, ByteWriter};
pub use lock::{lock_path_for, WriterLock};
pub use manifest::{ShardEntry, ShardManifest, MANIFEST_VERSION};
pub use stats::{IoSnapshot, IoStats};

/// Default page size used throughout the reproduction (bytes).
///
/// The thesis fixes R-tree / signature pages at 4 KB (Section 4.4.1).
pub const DEFAULT_PAGE_SIZE: usize = 4096;
