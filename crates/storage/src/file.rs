//! The file-backed page store: one cube file, checksummed pages, a real
//! buffer pool, crash-safe generational commits — built to be hammered
//! by concurrent readers while a writer publishes new generations.
//!
//! Layout is defined in [`crate::format`]: two superblock slots on pages
//! 0–1, CRC-checked object pages from page 2, and an allocation bitmap
//! appended with every commit. A commit (`flush`) appends the map, syncs,
//! stamps the *inactive* slot with the next generation number and syncs
//! again; opening elects the valid slot with the highest generation, so a
//! crash at any write boundary reopens on a fully committed generation.
//! Every page is validated (type, length, CRC) *before* its bytes are
//! handed out, so a truncated or bit-flipped file surfaces as a typed
//! [`StorageError`] instead of a wrong answer.
//!
//! # Concurrency
//!
//! The read path holds **no lock on the file handle**: pages are fetched
//! with positional reads (`pread` on unix; elsewhere a mutex around the
//! seek+access pair keeps correctness), metadata lives in atomics, and
//! cached frames sit in a lock-striped sharded [`BufferPool`]. A read-only
//! handle is pinned to the generation it elected at open: later commits
//! append pages past its horizon and stamp the *other* slot, so pinned
//! readers keep streaming their generation byte-identically with no
//! coordination.
//! Writers (`put` / `overwrite` / `flush`) serialize on one writer mutex;
//! committed pages are immutable ([`StorageError::ImmutableGeneration`]
//! guards them), making the file single-writer, many-reader with MVCC
//! page publishing (see the "Generations" section of [`crate::format`]).
//!
//! Reads go through the [`BufferPool`] holding assembled object frames
//! weighted by their covering page count: a pool hit charges only logical
//! reads against the metering [`DiskSim`], a miss reads and verifies the
//! covering pages, charges physical reads, and admits the frame under LRU
//! eviction — the cost model of the in-memory simulator, now with the
//! bytes actually coming off disk. A miss reads every page into one
//! per-thread buffer, verifies it there and copies out only the payload,
//! so its cost is the `pread`s, the checksums and one frame allocation.
//!
//! # Fault injection
//!
//! The `*_faulted` constructors attach a [`FaultPlan`] that scripts
//! faults at the raw page-I/O boundary (torn/dropped writes, `ENOSPC`,
//! transient `EIO`, sticky bit flips); the crash-recovery suite drives
//! every write boundary of a commit through it.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::backend::{FileStamp, PageBackend, StorageError};
use crate::buffer::{BufferPool, PoolStats};
use crate::disk::{DiskSim, PageId};
use crate::fault::{FaultPlan, SwapStage, WriteOutcome};
use crate::format::{
    decode_page, elect_superblock, encode_page, Election, PageType, Superblock, DATA_START,
    FLAG_CONTINUES, MAX_PAGE_SIZE, MIN_PAGE_SIZE, NO_PAGE, PAGE_HEADER, SUPERBLOCK_LEN,
};
use crate::lock::WriterLock;
use crate::stats::IoStats;

thread_local! {
    /// This thread's raw-page read buffer. A miss reads each covering page
    /// into it, verifies it there and copies only the payload out, so the
    /// read path allocates the object's frame and nothing else. Grown (and
    /// zero-filled) once per thread per page size, not once per page.
    static PAGE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Default buffer-pool capacity for file-backed stores (pages), matching
/// the simulator's 256-page (1 MB at 4 KB) default.
pub const DEFAULT_POOL_PAGES: usize = 256;

/// How a [`FileBackend`] performs raw page I/O: positional where the
/// platform has the syscalls, seek-locked elsewhere.
///
/// Both modes are always compiled, and the module's tests run the fallback
/// on unix too, so it is *tested* on every platform instead of assumed on
/// the exotic ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IoMode {
    /// Positional syscalls (`pread`/`pwrite`); no shared cursor, no lock.
    /// Only available on unix.
    Positional,
    /// A mutex around the seek+access pair: serializes raw I/O (but
    /// nothing above it). The only mode off unix.
    SeekLocked,
}

/// A file read/written at absolute offsets, shareable across threads
/// without a handle lock in [`IoMode::Positional`].
#[derive(Debug)]
struct PagedFile {
    file: File,
    mode: IoMode,
    /// Guards seek+access in [`IoMode::SeekLocked`]; unused otherwise.
    cursor: Mutex<()>,
}

impl PagedFile {
    fn new(file: File) -> Self {
        let mode = if cfg!(unix) { IoMode::Positional } else { IoMode::SeekLocked };
        Self { file, mode, cursor: Mutex::new(()) }
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        if self.mode == IoMode::Positional {
            return std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset);
        }
        use std::io::{Read, Seek, SeekFrom};
        let _guard = self.cursor.lock().unwrap();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> std::io::Result<()> {
        #[cfg(unix)]
        if self.mode == IoMode::Positional {
            return std::os::unix::fs::FileExt::write_all_at(&self.file, buf, offset);
        }
        use std::io::{Seek, SeekFrom, Write};
        let _guard = self.cursor.lock().unwrap();
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.write_all(buf)
    }

    fn sync_all(&self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

/// Construction knobs shared by the `create`/`open` families.
#[derive(Debug, Clone, Default)]
pub struct FileOptions {
    /// Buffer-pool capacity in pages (0 = uncached).
    pub pool_pages: usize,
    /// Optional scripted media faults (crash/corruption harnesses).
    pub faults: Option<Arc<FaultPlan>>,
}

/// A bare pool capacity in pages, no fault plan: what most opens pass.
impl From<usize> for FileOptions {
    fn from(pool_pages: usize) -> Self {
        Self { pool_pages, faults: None }
    }
}

/// A single-file page store with generational commits (see module docs).
#[derive(Debug)]
pub struct FileBackend {
    file: PagedFile,
    page_size: usize,
    read_only: bool,
    /// Pages in the file visible to this handle, superblock slots
    /// included. Readers load it lock-free; writers publish (Release)
    /// only after the covered pages are written.
    page_count: AtomicU64,
    /// Pages covered by the last committed generation: everything below
    /// is immutable, patched only by COW appends.
    committed_pages: AtomicU64,
    /// Generation this handle last committed (writable) or elected at
    /// open (read-only).
    generation: AtomicU64,
    /// Total object payload bytes (materialized-size metric).
    total_bytes: AtomicU64,
    /// Stored objects (metadata objects excluded: catalog, R-tree nodes).
    object_count: AtomicU64,
    /// Catalog first page, [`NO_PAGE`] = none.
    catalog_first: AtomicU64,
    /// Metadata changed since the last commit.
    dirty: AtomicBool,
    /// Raw page writes issued by this handle (commit-cost metric: a
    /// patch commit must write strictly fewer pages than a full
    /// rematerialization).
    pages_written: AtomicU64,
    /// Pages retired by COW maintenance — unreachable from the next
    /// generation, reclaimable by a vacuum pass.
    retired_pages: AtomicU64,
    /// Pages of the allocation map the committed generation points at
    /// (0 = none): the next commit appends another and retires this one.
    alloc_pages: AtomicU64,
    /// Sharded frame cache; internally synchronized.
    pool: BufferPool,
    /// Serializes mutators (put / overwrite / flush / retire) and holds
    /// first page → payload length of every object this handle wrote.
    /// Never taken on the read path.
    writer: Mutex<HashMap<u64, u32>>,
    /// Scripted media faults, if attached.
    faults: Option<Arc<FaultPlan>>,
    /// Cross-process writer exclusion: writable handles hold the sibling
    /// `<path>.lock` file until drop ([`crate::lock::WriterLock`]);
    /// read-only handles hold `None`. Pure RAII — never read.
    _lock: Option<WriterLock>,
}

/// Decode outcome for each superblock slot — either may independently
/// be torn or stale, so both results travel together to the election.
type SlotPair = (Result<Superblock, StorageError>, Result<Superblock, StorageError>);

impl FileBackend {
    /// Creates a fresh cube file at `path` (truncating any existing file)
    /// with the given page size, under `opts` (a bare buffer-pool
    /// capacity in pages, or [`FileOptions`] with a fault plan).
    pub fn create(
        path: impl AsRef<Path>,
        page_size: usize,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        let opts = opts.into();
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) {
            return Err(StorageError::BadLength { page: 0, len: page_size, max: MAX_PAGE_SIZE });
        }
        // Writer lock before the truncating open: a second process must
        // fail fast instead of truncating a file someone is writing.
        let lock = WriterLock::acquire(path.as_ref())?;
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let backend = Self {
            file: PagedFile::new(file),
            page_size,
            read_only: false,
            page_count: AtomicU64::new(DATA_START),
            committed_pages: AtomicU64::new(DATA_START),
            generation: AtomicU64::new(0),
            total_bytes: AtomicU64::new(0),
            object_count: AtomicU64::new(0),
            catalog_first: AtomicU64::new(NO_PAGE),
            dirty: AtomicBool::new(true),
            pages_written: AtomicU64::new(0),
            retired_pages: AtomicU64::new(0),
            alloc_pages: AtomicU64::new(0),
            pool: BufferPool::new(opts.pool_pages),
            writer: Mutex::new(HashMap::new()),
            faults: opts.faults,
            _lock: Some(lock),
        };
        // Stamp generation 0 into slot 0 and zero slot 1, so a crash
        // before the first commit still leaves an identifiable file with
        // an unambiguous election.
        let sb = Superblock {
            page_size: page_size as u32,
            page_count: DATA_START,
            catalog_first: None,
            total_bytes: 0,
            object_count: 0,
            alloc_first: None,
            alloc_pages: 0,
            generation: 0,
            retired_pages: 0,
        };
        let mut slot = vec![0u8; page_size];
        sb.encode(&mut slot);
        backend.write_page_raw(0, &slot)?;
        let zeros = vec![0u8; page_size];
        backend.write_page_raw(1, &zeros)?;
        Ok(backend)
    }

    /// Opens an existing cube file read-only on its newest committed
    /// generation, validating the elected superblock slot (magic, CRC,
    /// version, page-size bounds), the file length against the recorded
    /// page count, and the allocation map.
    pub fn open(
        path: impl AsRef<Path>,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        Self::open_impl(path, opts.into(), false, false)
    }

    /// Opens read-only pinned on the *previous* generation (the losing,
    /// still-valid slot) — the scrub path verifies it before rolling the
    /// open pointer back.
    pub fn open_previous(
        path: impl AsRef<Path>,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        Self::open_impl(path, opts.into(), false, true)
    }

    /// Opens an existing cube file for writing: elects the newest
    /// generation and appends after it; [`Self::flush`] commits the next
    /// generation into the inactive slot. Exactly one writable handle
    /// may exist per file, enforced across processes by the sibling
    /// `<path>.lock` file — a second writer fails fast with
    /// [`StorageError::WriterLocked`], and stale locks left by dead
    /// writers are taken over (see [`crate::lock`]).
    pub fn open_writable(
        path: impl AsRef<Path>,
        opts: impl Into<FileOptions>,
    ) -> Result<Self, StorageError> {
        Self::open_impl(path, opts.into(), true, false)
    }

    /// Reads both superblock slot heads. Slot 1 lives at `page_size`
    /// bytes, which normally comes from slot 0; when slot 0 is torn the
    /// page-size field is recovered from its raw bytes (both old and new
    /// images agree on it — it never changes after create) with a
    /// power-of-two scan as the last resort.
    fn read_slots(file: &PagedFile) -> Result<SlotPair, StorageError> {
        let mut head0 = [0u8; SUPERBLOCK_LEN];
        file.read_exact_at(&mut head0, 0).map_err(|_| StorageError::BadMagic)?;
        let c0 = Superblock::decode_slot(&head0, 0);
        let mut candidates: Vec<usize> = Vec::new();
        match &c0 {
            Ok(sb) => candidates.push(sb.page_size as usize),
            Err(_) => {
                let hinted = u32::from_le_bytes(head0[12..16].try_into().unwrap()) as usize;
                if (MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&hinted) {
                    candidates.push(hinted);
                }
                let mut p = MIN_PAGE_SIZE;
                while p <= MAX_PAGE_SIZE {
                    if !candidates.contains(&p) {
                        candidates.push(p);
                    }
                    p *= 2;
                }
            }
        }
        let mut c1: Result<Superblock, StorageError> = Err(StorageError::BadMagic);
        for ps in candidates {
            let mut head1 = [0u8; SUPERBLOCK_LEN];
            if file.read_exact_at(&mut head1, ps as u64).is_ok() {
                if let Ok(sb) = Superblock::decode_slot(&head1, 1) {
                    if sb.page_size as usize == ps {
                        c1 = Ok(sb);
                        break;
                    }
                }
            }
        }
        Ok((c0, c1))
    }

    fn open_impl(
        path: impl AsRef<Path>,
        opts: FileOptions,
        writable: bool,
        previous: bool,
    ) -> Result<Self, StorageError> {
        let lock = if writable { Some(WriterLock::acquire(path.as_ref())?) } else { None };
        let file = OpenOptions::new().read(true).write(writable).open(path)?;
        let file = PagedFile::new(file);
        let (c0, c1) = Self::read_slots(&file)?;
        let elected = elect_superblock(c0, c1)?;
        let (sb, slot) = if previous {
            let older = elected
                .previous
                .ok_or(StorageError::Malformed("no previous generation to open"))?;
            (older, 1 - elected.slot)
        } else {
            (elected.winner, elected.slot)
        };
        let page_size = sb.page_size as usize;
        let file_len = file.file.metadata()?.len();
        let need = sb
            .page_count
            .checked_mul(page_size as u64)
            .ok_or(StorageError::Malformed("page count overflows the file size"))?;
        if file_len < need {
            return Err(StorageError::TruncatedObject { page: sb.page_count });
        }
        // The slot CRC covers its 80 serialized bytes; the rest of the
        // elected slot page is zero padding by construction, so verify it
        // — a bit flip anywhere on the live slot page must be detected
        // like on any other page. (The losing slot may be torn garbage;
        // that is the redundancy the double buffer exists for.)
        let mut slot_page = vec![0u8; page_size];
        file.read_exact_at(&mut slot_page, slot * page_size as u64)
            .map_err(|_| StorageError::TruncatedObject { page: slot })?;
        if slot_page[SUPERBLOCK_LEN..].iter().any(|&b| b != 0) {
            return Err(StorageError::ChecksumMismatch { page: slot });
        }
        let backend = Self {
            file,
            page_size,
            read_only: !writable,
            page_count: AtomicU64::new(sb.page_count),
            committed_pages: AtomicU64::new(sb.page_count),
            generation: AtomicU64::new(sb.generation),
            total_bytes: AtomicU64::new(sb.total_bytes),
            object_count: AtomicU64::new(sb.object_count),
            catalog_first: AtomicU64::new(sb.catalog_first.unwrap_or(NO_PAGE)),
            dirty: AtomicBool::new(false),
            pages_written: AtomicU64::new(0),
            // Seed from the elected slot: the vacuum watermark survives
            // reopen instead of resetting to zero each restart.
            retired_pages: AtomicU64::new(sb.retired_pages),
            alloc_pages: AtomicU64::new(sb.alloc_first.map_or(0, |_| u64::from(sb.alloc_pages))),
            pool: BufferPool::new(opts.pool_pages),
            writer: Mutex::new(HashMap::new()),
            faults: opts.faults,
            _lock: lock,
        };
        backend.verify_alloc_map(&sb)?;
        Ok(backend)
    }

    /// Reads and elects the newest valid superblock without constructing
    /// a backend — no buffer pool, no writer lock, three page-head reads.
    /// The maintenance scheduler's cheap watermark poll.
    pub fn peek_superblock(path: impl AsRef<Path>) -> Result<Superblock, StorageError> {
        let file = OpenOptions::new().read(true).open(path)?;
        let (c0, c1) = Self::read_slots(&PagedFile::new(file))?;
        Ok(elect_superblock(c0, c1)?.winner)
    }

    /// Atomically publishes `temp` — a complete, committed cube file —
    /// over `target`: fsync the temp contents, `rename` it over the
    /// target (the atomic publish point), fsync the parent directory.
    /// Steps 3–5 of the swap protocol in [`crate::format`] § *Locking &
    /// swap protocol*; the caller must hold the target's
    /// [`WriterLock`] for the whole window. Readers pinned on the old
    /// file keep serving it byte-identically through their descriptors;
    /// every open after the rename elects the new file.
    pub fn publish_swap(
        temp: &Path,
        target: &Path,
        faults: Option<&Arc<FaultPlan>>,
    ) -> Result<(), StorageError> {
        Self::swap_in(temp, target, faults)?;
        Self::sync_parent_dir(target)
    }

    /// The first half of [`Self::publish_swap`], up to and including the
    /// rename. An error means `target` still names the old file; `Ok`
    /// means it names `temp`'s inode — a caller that must follow the
    /// rename with in-process state (the WAL hand-over keeps appending
    /// through the descriptor it wrote `temp` with) does so right here,
    /// then calls [`Self::sync_parent_dir`].
    pub fn swap_in(
        temp: &Path,
        target: &Path,
        faults: Option<&Arc<FaultPlan>>,
    ) -> Result<(), StorageError> {
        if let Some(plan) = faults {
            plan.on_swap(SwapStage::TempSync).map_err(StorageError::Io)?;
        }
        File::open(temp)?.sync_all()?;
        if let Some(plan) = faults {
            plan.on_swap(SwapStage::Rename).map_err(StorageError::Io)?;
        }
        std::fs::rename(temp, target)?;
        Ok(())
    }

    /// Makes a rename onto `target` durable where the platform allows
    /// syncing a directory handle (unix); elsewhere the data syncs before
    /// the rename still guarantee a valid file under either name.
    pub fn sync_parent_dir(target: &Path) -> Result<(), StorageError> {
        #[cfg(unix)]
        if let Some(dir) = target.parent() {
            if !dir.as_os_str().is_empty() {
                File::open(dir)?.sync_all()?;
            }
        }
        #[cfg(not(unix))]
        let _ = target;
        Ok(())
    }

    /// Rolls the file back one generation: verifies the previous slot is
    /// valid, then zeroes the newest slot and syncs, so the next open
    /// elects the previous generation. Returns the generation now live.
    /// Fails with [`StorageError::Malformed`] when there is no valid
    /// previous generation to fall back to.
    ///
    /// Call only with no writable handle open on the file.
    pub fn rollback_latest(path: impl AsRef<Path>) -> Result<u64, StorageError> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let file = PagedFile::new(file);
        let (c0, c1) = Self::read_slots(&file)?;
        let Ok(Election { slot: doomed_slot, previous: Some(survivor), .. }) =
            elect_superblock(c0, c1)
        else {
            return Err(StorageError::Malformed("no previous generation to roll back to"));
        };
        let zeros = vec![0u8; survivor.page_size as usize];
        file.write_all_at(&zeros, doomed_slot * survivor.page_size as u64)?;
        file.sync_all()?;
        Ok(survivor.generation)
    }

    /// Page size of this file.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Raw page writes issued by this handle (superblock stamps and
    /// allocation maps included) — the patch-vs-rematerialize commit
    /// cost metric.
    pub fn pages_written(&self) -> u64 {
        self.pages_written.load(Ordering::Relaxed)
    }

    /// Per-page payload capacity.
    fn cap(&self) -> usize {
        self.page_size - PAGE_HEADER
    }

    /// Pages covering an object of `len` payload bytes (the first page
    /// spends 4 payload bytes on the length prefix).
    fn pages_for_object(&self, len: usize) -> usize {
        (len + 4).div_ceil(self.cap()).max(1)
    }

    fn page_offset(&self, page: u64) -> Result<u64, StorageError> {
        page.checked_mul(self.page_size as u64)
            .ok_or(StorageError::OutOfBounds { page, page_count: u64::MAX / self.page_size as u64 })
    }

    /// Fills `buf` (one page long) with page `page` as it sits on disk —
    /// or as the attached [`FaultPlan`] says the media returns it. The
    /// bytes are unverified: callers run [`decode_page`] on them.
    fn read_page_raw(&self, page: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        debug_assert_eq!(buf.len(), self.page_size);
        let offset = self.page_offset(page)?;
        self.file.read_exact_at(buf, offset).map_err(|_| StorageError::TruncatedObject { page })?;
        if let Some(plan) = &self.faults {
            plan.on_read(offset, buf).map_err(StorageError::Io)?;
        }
        Ok(())
    }

    fn write_page_raw(&self, page: u64, buf: &[u8]) -> Result<(), StorageError> {
        debug_assert_eq!(buf.len(), self.page_size);
        let offset = self.page_offset(page)?;
        self.pages_written.fetch_add(1, Ordering::Relaxed);
        match &self.faults {
            None => self.file.write_all_at(buf, offset)?,
            Some(plan) => match plan.on_write().map_err(StorageError::Io)? {
                WriteOutcome::Persist => self.file.write_all_at(buf, offset)?,
                WriteOutcome::Prefix(keep) => {
                    let keep = keep.min(buf.len());
                    self.file.write_all_at(&buf[..keep], offset)?;
                }
                WriteOutcome::Drop => {}
            },
        }
        Ok(())
    }

    /// Writes `data` as an object over `pages` consecutive pages starting
    /// at `first` and returns the covering page count.
    fn write_object_pages(&self, first: u64, data: &[u8]) -> Result<usize, StorageError> {
        let cap = self.cap();
        let pages = self.pages_for_object(data.len());
        let mut page_buf = vec![0u8; self.page_size];
        // First page: [total_len u32][data prefix].
        let head_take = data.len().min(cap - 4);
        let mut payload = Vec::with_capacity(4 + head_take);
        payload.extend_from_slice(&(data.len() as u32).to_le_bytes());
        payload.extend_from_slice(&data[..head_take]);
        let flags = if pages > 1 { FLAG_CONTINUES } else { 0 };
        encode_page(&mut page_buf, PageType::ObjFirst, flags, &payload);
        self.write_page_raw(first, &page_buf)?;
        // Continuation pages: raw payload runs.
        let mut off = head_take;
        for i in 1..pages {
            let take = (data.len() - off).min(cap);
            let flags = if i + 1 < pages { FLAG_CONTINUES } else { 0 };
            encode_page(&mut page_buf, PageType::ObjCont, flags, &data[off..off + take]);
            self.write_page_raw(first + i as u64, &page_buf)?;
            off += take;
        }
        debug_assert_eq!(off, data.len());
        Ok(pages)
    }

    /// Payload length of the object at `first`: as recorded in `sizes`
    /// (the writer's map) when this handle wrote it, read off the file
    /// otherwise.
    fn object_len(&self, sizes: &HashMap<u64, u32>, first: u64) -> Result<usize, StorageError> {
        match sizes.get(&first) {
            Some(&len) => Ok(len as usize),
            None => Ok(self.read_object(first)?.0.len()),
        }
    }

    /// Reads, validates and assembles the object rooted at `first`.
    /// Returns the payload and its covering page count. Lock-free in
    /// positional mode: positional page reads, atomic bounds check.
    ///
    /// Every covering page goes through the thread's scratch buffer and
    /// is verified there (CRC, then type, then length) before a byte of
    /// it is kept; a one-page object's frame is built straight from the
    /// verified payload slice — one allocation and one copy per miss.
    fn read_object(&self, first: u64) -> Result<(Arc<[u8]>, usize), StorageError> {
        let page_count = self.page_count.load(Ordering::Acquire);
        if first < DATA_START || first >= page_count {
            return Err(StorageError::OutOfBounds { page: first, page_count });
        }
        PAGE_SCRATCH.with_borrow_mut(|buf| {
            buf.resize(self.page_size, 0);
            self.assemble(first, page_count, buf)
        })
    }

    /// [`Self::read_object`] past the bounds check, reading through `buf`.
    fn assemble(
        &self,
        first: u64,
        page_count: u64,
        buf: &mut [u8],
    ) -> Result<(Arc<[u8]>, usize), StorageError> {
        self.read_page_raw(first, buf)?;
        let view = decode_page(buf, first)?;
        if view.ptype != PageType::ObjFirst {
            return Err(StorageError::BadPageType { page: first, found: view.ptype as u8 });
        }
        if view.payload.len() < 4 {
            return Err(StorageError::BadLength { page: first, len: view.payload.len(), max: 4 });
        }
        let total_len = u32::from_le_bytes(view.payload[0..4].try_into().unwrap()) as usize;
        let pages = self.pages_for_object(total_len);
        if first + pages as u64 > page_count {
            return Err(StorageError::TruncatedObject { page: first + pages as u64 - 1 });
        }
        let head = &view.payload[4..];
        let mut continues = view.continues;
        let frame: Arc<[u8]> = if pages == 1 {
            Arc::from(head)
        } else {
            let mut data = Vec::with_capacity(total_len);
            data.extend_from_slice(head);
            for page in first + 1..first + pages as u64 {
                if !continues {
                    return Err(StorageError::TruncatedObject { page: page - 1 });
                }
                self.read_page_raw(page, buf)?;
                let v = decode_page(buf, page)?;
                if v.ptype != PageType::ObjCont {
                    return Err(StorageError::BadPageType { page, found: v.ptype as u8 });
                }
                data.extend_from_slice(v.payload);
                continues = v.continues;
            }
            data.into()
        };
        if frame.len() != total_len || continues {
            return Err(StorageError::BadLength { page: first, len: frame.len(), max: total_len });
        }
        Ok((frame, pages))
    }

    /// Pool-aware fetch; charges `stats` (when metering) per covering page.
    fn fetch(&self, first: PageId, stats: Option<&IoStats>) -> Result<Arc<[u8]>, StorageError> {
        if let Some(frame) = self.pool.get(first) {
            if let Some(stats) = stats {
                stats.record_reads(self.pages_for_object(frame.len()) as u64, true);
            }
            return Ok(frame);
        }
        let (frame, pages) = self.read_object(first.0)?;
        if let Some(stats) = stats {
            stats.record_reads(pages as u64, false);
        }
        self.pool.insert(first, Arc::clone(&frame), pages);
        Ok(frame)
    }

    /// Validates the allocation bitmap referenced by the superblock:
    /// every map page passes CRC/type checks and every page below
    /// `page_count` is marked allocated.
    fn verify_alloc_map(&self, sb: &Superblock) -> Result<(), StorageError> {
        let Some(alloc_first) = sb.alloc_first else {
            return Ok(()); // never committed with a map (fresh/empty file)
        };
        let mut bits: Vec<u8> = Vec::new();
        let mut raw = vec![0u8; self.page_size];
        for i in 0..sb.alloc_pages as u64 {
            self.read_page_raw(alloc_first + i, &mut raw)?;
            let v = decode_page(&raw, alloc_first + i)?;
            if v.ptype != PageType::AllocMap {
                return Err(StorageError::BadPageType {
                    page: alloc_first + i,
                    found: v.ptype as u8,
                });
            }
            bits.extend_from_slice(v.payload);
        }
        for page in 0..sb.page_count {
            let (byte, bit) = ((page / 8) as usize, page % 8);
            if byte >= bits.len() || bits[byte] >> bit & 1 == 0 {
                return Err(StorageError::Malformed("allocation map misses a live page"));
            }
        }
        Ok(())
    }
}

impl PageBackend for FileBackend {
    fn try_put_shared(&self, disk: &DiskSim, data: Arc<[u8]>) -> Result<PageId, StorageError> {
        if self.read_only {
            return Err(StorageError::ReadOnly);
        }
        let mut sizes = self.writer.lock().unwrap();
        let first = self.page_count.load(Ordering::Relaxed);
        let pages = self.write_object_pages(first, &data)?;
        // Publish the new bound only after the pages exist on disk, so a
        // concurrent reader racing the append never reads unwritten pages.
        self.page_count.store(first + pages as u64, Ordering::Release);
        self.total_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.object_count.fetch_add(1, Ordering::Relaxed);
        self.dirty.store(true, Ordering::Relaxed);
        sizes.insert(first, data.len() as u32);
        disk.stats().record_writes(pages as u64);
        // Write-through: the caller's handle is the pool frame.
        self.pool.insert(PageId(first), data, pages);
        Ok(PageId(first))
    }

    fn overwrite(&self, disk: &DiskSim, first: PageId, data: Vec<u8>) -> Result<(), StorageError> {
        if self.read_only {
            return Err(StorageError::ReadOnly);
        }
        let mut sizes = self.writer.lock().unwrap();
        // Committed pages are immutable: readers pinned on the committed
        // generation stream them lock-free, so patches must go through
        // COW appends. Only objects appended since the last commit (owned
        // outright by the unpublished generation) may be rewritten.
        if first.0 < self.committed_pages.load(Ordering::Relaxed) {
            return Err(StorageError::ImmutableGeneration { page: first.0 });
        }
        // The new bytes must fit the originally allocated span; shrinking
        // leaves orphaned-but-allocated tail pages, which is fine for the
        // append-only writer.
        let old_len = self.object_len(&sizes, first.0)?;
        let old_pages = self.pages_for_object(old_len);
        let new_pages = self.pages_for_object(data.len());
        if new_pages > old_pages {
            return Err(StorageError::BadLength {
                page: first.0,
                len: data.len(),
                max: old_pages * self.cap() - 4,
            });
        }
        self.write_object_pages(first.0, &data)?;
        disk.stats().record_writes(new_pages as u64);
        self.total_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.total_bytes.fetch_sub(old_len as u64, Ordering::Relaxed);
        self.dirty.store(true, Ordering::Relaxed);
        sizes.insert(first.0, data.len() as u32);
        let frame: Arc<[u8]> = data.into();
        self.pool.insert(first, frame, new_pages);
        Ok(())
    }

    fn try_get_bytes(&self, disk: &DiskSim, first: PageId) -> Result<Arc<[u8]>, StorageError> {
        self.fetch(first, Some(disk.stats()))
    }

    fn peek(&self, first: PageId) -> Result<Arc<[u8]>, StorageError> {
        self.fetch(first, None)
    }

    fn total_bytes(&self) -> usize {
        self.total_bytes.load(Ordering::Relaxed) as usize
    }

    fn len(&self) -> usize {
        self.object_count.load(Ordering::Relaxed) as usize
    }

    fn clear_cache(&self) {
        self.pool.clear();
    }

    /// Commits the current state as the next generation: appends the
    /// allocation map, syncs data durable, stamps the *inactive*
    /// superblock slot with `generation + 1`, syncs again. The single
    /// slot write is the atomic publish point — a crash on either side
    /// of it reopens on a fully committed generation.
    fn flush(&self) -> Result<(), StorageError> {
        if self.read_only {
            return Ok(());
        }
        let _w = self.writer.lock().unwrap();
        if !self.dirty.load(Ordering::Relaxed) {
            return Ok(());
        }
        // Allocation bitmap over all pages including the map itself:
        // find the smallest map that covers `page_count + map_pages` bits.
        let page_count = self.page_count.load(Ordering::Relaxed);
        let cap_bits = self.cap() * 8;
        let mut map_pages = 1usize;
        while (page_count as usize + map_pages) > map_pages * cap_bits {
            map_pages += 1;
        }
        let alloc_first = page_count;
        let final_count = page_count + map_pages as u64;
        let total_bits = final_count as usize;
        let mut bits = vec![0u8; total_bits.div_ceil(8)];
        for page in 0..total_bits {
            bits[page / 8] |= 1 << (page % 8);
        }
        let mut page_buf = vec![0u8; self.page_size];
        for (i, chunk) in bits.chunks(self.cap()).enumerate() {
            encode_page(&mut page_buf, PageType::AllocMap, 0, chunk);
            self.write_page_raw(alloc_first + i as u64, &page_buf)?;
        }
        self.page_count.store(final_count, Ordering::Release);
        // Data and map durable before the publish write: the elected
        // superblock must never describe pages that did not persist.
        self.file.sync_all()?;
        // The map this one replaces is unreachable from the new generation.
        let retired_pages =
            self.retired_pages.load(Ordering::Relaxed) + self.alloc_pages.load(Ordering::Relaxed);
        let generation = self.generation.load(Ordering::Relaxed) + 1;
        let catalog_first = self.catalog_first.load(Ordering::Relaxed);
        let sb = Superblock {
            page_size: self.page_size as u32,
            page_count: final_count,
            catalog_first: (catalog_first != NO_PAGE).then_some(catalog_first),
            total_bytes: self.total_bytes.load(Ordering::Relaxed),
            object_count: self.object_count.load(Ordering::Relaxed),
            alloc_first: Some(alloc_first),
            alloc_pages: map_pages as u32,
            generation,
            retired_pages,
        };
        let mut slot_page = vec![0u8; self.page_size];
        sb.encode(&mut slot_page);
        // Generation g lives in slot g % 2; the live slot stays intact.
        self.write_page_raw(generation % 2, &slot_page)?;
        self.file.sync_all()?;
        self.generation.store(generation, Ordering::Relaxed);
        self.committed_pages.store(final_count, Ordering::Relaxed);
        self.retired_pages.store(retired_pages, Ordering::Relaxed);
        self.alloc_pages.store(map_pages as u64, Ordering::Relaxed);
        self.dirty.store(false, Ordering::Relaxed);
        Ok(())
    }

    fn read_only(&self) -> bool {
        self.read_only
    }

    fn put_meta(&self, _disk: &DiskSim, data: Vec<u8>) -> Result<PageId, StorageError> {
        if self.read_only {
            return Err(StorageError::ReadOnly);
        }
        let mut sizes = self.writer.lock().unwrap();
        // Like `put`, but the object is file metadata: it is neither
        // charged as query I/O nor counted in the materialized totals.
        let first = self.page_count.load(Ordering::Relaxed);
        let pages = self.write_object_pages(first, &data)?;
        self.page_count.store(first + pages as u64, Ordering::Release);
        self.dirty.store(true, Ordering::Relaxed);
        sizes.insert(first, data.len() as u32);
        let frame: Arc<[u8]> = data.into();
        self.pool.insert(PageId(first), frame, pages);
        Ok(PageId(first))
    }

    fn put_catalog(&self, disk: &DiskSim, data: Vec<u8>) -> Result<PageId, StorageError> {
        let first = self.put_meta(disk, data)?;
        // Release: a reader that observes this pointer (Acquire in
        // `catalog`) must also observe the page_count covering it.
        self.catalog_first.store(first.0, Ordering::Release);
        Ok(first)
    }

    fn catalog(&self) -> Option<PageId> {
        match self.catalog_first.load(Ordering::Acquire) {
            NO_PAGE => None,
            v => Some(PageId(v)),
        }
    }

    fn set_catalog(&self, first: PageId) -> Result<(), StorageError> {
        if self.read_only {
            return Err(StorageError::ReadOnly);
        }
        self.catalog_first.store(first.0, Ordering::Release);
        self.dirty.store(true, Ordering::Relaxed);
        Ok(())
    }

    fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.pool.stats())
    }

    fn attach_metrics(&self, metrics: &rcube_obs::Metrics, prefix: &str) {
        self.pool.attach_metrics(metrics, prefix);
    }

    fn generation(&self) -> Option<u64> {
        Some(self.generation.load(Ordering::Relaxed))
    }

    fn file_stamp(&self) -> Option<FileStamp> {
        #[cfg(unix)]
        let file_id = {
            use std::os::unix::fs::MetadataExt;
            self.file.file.metadata().ok().map(|m| (m.dev(), m.ino()))
        };
        #[cfg(not(unix))]
        let file_id = None;
        Some(FileStamp {
            file_id,
            generation: self.generation.load(Ordering::Relaxed),
            page_count: self.committed_pages.load(Ordering::Relaxed),
            catalog_first: self.catalog().map(|p| p.0),
        })
    }

    fn retire(&self, first: PageId) -> Result<(), StorageError> {
        // The bytes stay on disk (readers pinned on older generations
        // still stream them); we only account the pages as reclaimable
        // so a vacuum pass knows what a compacting rewrite would save.
        let sizes = self.writer.lock().unwrap();
        let len = self.object_len(&sizes, first.0)?;
        self.retired_pages.fetch_add(self.pages_for_object(len) as u64, Ordering::Relaxed);
        // The tally is persisted in the next commit's superblock so the
        // vacuum watermark survives reopen.
        self.dirty.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Pages retired by COW maintenance, unreachable from the next
    /// generation — replaced objects, superseded catalogs and allocation
    /// maps: what a vacuum (compacting rewrite) would reclaim.
    fn reclaimable_pages(&self) -> u64 {
        self.retired_pages.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashMode;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rcube_filebackend_{tag}_{}", std::process::id()));
        p
    }

    #[test]
    fn create_write_reopen_read() {
        let path = temp_path("roundtrip");
        let disk = DiskSim::with_defaults();
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let small = vec![7u8; 20];
        let (id_big, id_small) = {
            let be = FileBackend::create(&path, 4096, 16).unwrap();
            let a = be.try_put(&disk, data.clone()).unwrap();
            let b = be.try_put(&disk, small.clone()).unwrap();
            be.set_catalog(b).unwrap();
            be.flush().unwrap();
            (a, b)
        };
        let be = FileBackend::open(&path, 16).unwrap();
        assert!(be.read_only());
        assert_eq!(be.generation(), Some(1));
        assert_eq!(be.catalog(), Some(id_small));
        assert_eq!(be.len(), 2);
        assert_eq!(be.total_bytes(), data.len() + small.len());
        let disk2 = DiskSim::with_defaults();
        assert_eq!(&be.try_get_bytes(&disk2, id_big).unwrap()[..], &data[..]);
        assert_eq!(&be.try_get_bytes(&disk2, id_small).unwrap()[..], &small[..]);
        // Multi-page object: 40 004 bytes over (4096−8)-byte payloads = 10
        // physical reads, then a pool hit charges logical reads only.
        let before = disk2.stats().snapshot();
        be.try_get_bytes(&disk2, id_big).unwrap();
        let d = before.delta(&disk2.stats().snapshot());
        assert_eq!(d.disk_reads, 0);
        assert_eq!(d.logical_reads, 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cold_reads_charge_physical_io() {
        let path = temp_path("cold");
        let disk = DiskSim::with_defaults();
        let be = FileBackend::create(&path, 256, 64).unwrap();
        let id = be.try_put(&disk, vec![1u8; 600]).unwrap(); // 3 pages at 248-byte cap
        be.flush().unwrap();
        be.clear_cache();
        let before = disk.stats().snapshot();
        be.try_get_bytes(&disk, id).unwrap();
        let d = before.delta(&disk.stats().snapshot());
        assert_eq!(d.disk_reads, 3);
        be.try_get_bytes(&disk, id).unwrap();
        let d = before.delta(&disk.stats().snapshot());
        assert_eq!(d.disk_reads, 3, "second read served by the pool");
        assert_eq!(d.logical_reads, 6);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_byte_yields_checksum_error() {
        // Every single-bit flip of either page of a two-page object must
        // surface as a checksum error naming the flipped page.
        let path = temp_path("corrupt");
        let disk = DiskSim::with_defaults();
        let id = {
            let be = FileBackend::create(&path, 128, 0).unwrap();
            let id = be.try_put(&disk, (0..200u8).collect()).unwrap();
            be.flush().unwrap();
            id
        };
        let be = FileBackend::open(&path, 0).unwrap();
        assert_eq!(be.try_get_bytes(&disk, id).unwrap().len(), 200);
        let mut bytes = std::fs::read(&path).unwrap();
        for bit in 0..2 * 128 * 8 {
            let at = 128 * id.0 as usize + bit / 8;
            bytes[at] ^= 1 << (bit % 8);
            std::fs::write(&path, &bytes).unwrap();
            match be.try_get_bytes(&disk, id) {
                Err(StorageError::ChecksumMismatch { page }) => {
                    assert_eq!(page, id.0 + (bit / 8 / 128) as u64, "bit {bit}")
                }
                other => panic!("bit {bit}: expected checksum mismatch, got {other:?}"),
            }
            bytes[at] ^= 1 << (bit % 8);
        }
        std::fs::remove_file(&path).ok();
    }

    /// One raw 256-byte page with a valid checksum.
    fn raw_page(ptype: PageType, flags: u8, payload: &[u8]) -> Vec<u8> {
        let mut page = vec![0u8; 256];
        encode_page(&mut page, ptype, flags, payload);
        page
    }

    /// First-page payload: the object's declared length, then `data`.
    fn first_payload(total_len: u32, data: &[u8]) -> Vec<u8> {
        [&total_len.to_le_bytes()[..], data].concat()
    }

    #[test]
    fn read_object_error_arms_keep_their_variant_and_page() {
        // Structurally wrong objects whose pages all pass their CRC: each
        // arm's typed error and the page it names are part of the read
        // contract — with and without a fault plan attached (which routes
        // every page through `on_read`).
        const CAP: usize = 256 - PAGE_HEADER;
        use PageType::{AllocMap, ObjCont, ObjFirst};
        let full = vec![7u8; CAP];
        let cases: Vec<(&str, Vec<Vec<u8>>, &str)> = vec![
            (
                "continuation page where an object should start",
                vec![raw_page(ObjCont, 0, &first_payload(10, &[1; 10]))],
                "BadPageType { page: 2, found: 2 }",
            ),
            (
                "allocation-map page where an object should start",
                vec![raw_page(AllocMap, 0, &first_payload(10, &[1; 10]))],
                "BadPageType { page: 2, found: 3 }",
            ),
            (
                "first-page type on a continuation",
                vec![
                    raw_page(ObjFirst, FLAG_CONTINUES, &first_payload(300, &full[..CAP - 4])),
                    raw_page(ObjFirst, 0, &[2; 300 - (CAP - 4)]),
                ],
                "BadPageType { page: 3, found: 1 }",
            ),
            (
                "first payload too short for the length prefix",
                vec![raw_page(ObjFirst, 0, &[1, 2, 3])],
                "BadLength { page: 2, len: 3, max: 4 }",
            ),
            (
                "multi-page length but no continuation flag",
                vec![
                    raw_page(ObjFirst, 0, &first_payload(300, &full[..CAP - 4])),
                    raw_page(ObjCont, 0, &[2; 300 - (CAP - 4)]),
                ],
                "TruncatedObject { page: 2 }",
            ),
            (
                "chain broken on a middle page",
                vec![
                    raw_page(ObjFirst, FLAG_CONTINUES, &first_payload(600, &full[..CAP - 4])),
                    raw_page(ObjCont, 0, &full),
                    raw_page(ObjCont, 0, &[2; 600 - (2 * CAP - 4)]),
                ],
                "TruncatedObject { page: 3 }",
            ),
            (
                "continuation flag on a one-page object",
                vec![raw_page(ObjFirst, FLAG_CONTINUES, &first_payload(10, &[1; 10]))],
                "BadLength { page: 2, len: 10, max: 10 }",
            ),
            (
                "continuation flag on the last page",
                vec![
                    raw_page(ObjFirst, FLAG_CONTINUES, &first_payload(300, &full[..CAP - 4])),
                    raw_page(ObjCont, FLAG_CONTINUES, &[2; 300 - (CAP - 4)]),
                ],
                "BadLength { page: 2, len: 300, max: 300 }",
            ),
            (
                "one page carrying fewer bytes than declared",
                vec![raw_page(ObjFirst, 0, &first_payload(10, &[1; 6]))],
                "BadLength { page: 2, len: 6, max: 10 }",
            ),
            (
                "one page carrying more bytes than declared",
                vec![raw_page(ObjFirst, 0, &first_payload(10, &[1; 50]))],
                "BadLength { page: 2, len: 50, max: 10 }",
            ),
            (
                "continuation pages summing short of the declared length",
                vec![
                    raw_page(ObjFirst, FLAG_CONTINUES, &first_payload(300, &full[..CAP - 4])),
                    raw_page(ObjCont, 0, &[2; 5]),
                ],
                "BadLength { page: 2, len: 249, max: 300 }",
            ),
            (
                "declared length running past the end of the file",
                vec![raw_page(ObjFirst, FLAG_CONTINUES, &first_payload(100_000, &full[..CAP - 4]))],
                "TruncatedObject { page: 405 }",
            ),
        ];
        let path = temp_path("error_arms");
        let disk = DiskSim::with_defaults();
        for (what, pages, expected) in cases {
            {
                // A committed file with exactly `pages.len()` data pages…
                let be = FileBackend::create(&path, 256, 0).unwrap();
                be.try_put(&disk, vec![0u8; pages.len() * CAP - 4]).unwrap();
                be.flush().unwrap();
            }
            // …whose contents are then swapped for the crafted ones.
            let mut bytes = std::fs::read(&path).unwrap();
            for (i, page) in pages.iter().enumerate() {
                let at = 256 * (DATA_START as usize + i);
                bytes[at..at + 256].copy_from_slice(page);
            }
            std::fs::write(&path, &bytes).unwrap();
            let plan = FaultPlan::new();
            let faulted = FileOptions { faults: Some(Arc::clone(&plan)), ..Default::default() };
            for opts in [FileOptions::default(), faulted] {
                let be = FileBackend::open(&path, opts).unwrap();
                let err = be.try_get_bytes(&disk, PageId(DATA_START)).unwrap_err();
                assert_eq!(format!("{err:?}"), expected, "{what}");
            }
            assert!(plan.reads_observed() > 0, "{what}: the plan saw the pages read");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fault_plan_sees_each_page_before_verification() {
        // A sticky flip scripted on the *second* page of an object: the
        // first page must verify, the flip must land in the bytes that
        // get checksummed (so it is caught, on that page), and the plan
        // must have been shown both pages.
        let path = temp_path("fault_order");
        let disk = DiskSim::with_defaults();
        let id = {
            let be = FileBackend::create(&path, 256, 0).unwrap();
            let id = be.try_put(&disk, vec![9u8; 400]).unwrap();
            be.flush().unwrap();
            id
        };
        let plan = FaultPlan::new();
        let opts = FileOptions { faults: Some(Arc::clone(&plan)), ..Default::default() };
        let be = FileBackend::open(&path, opts).unwrap();
        let opened = plan.reads_observed();
        assert_eq!(&be.try_get_bytes(&disk, id).unwrap()[..], &[9u8; 400][..]);
        assert_eq!(plan.reads_observed() - opened, 2);
        plan.corrupt_byte(256 * (id.0 + 1) + 100, 0x10);
        match be.try_get_bytes(&disk, id) {
            Err(StorageError::ChecksumMismatch { page }) => assert_eq!(page, id.0 + 1),
            other => panic!("expected checksum mismatch on the continuation, got {other:?}"),
        }
        assert_eq!(plan.reads_observed() - opened, 4);
        // The flip lives in the plan, not in the thread's read buffer: a
        // clean handle on the same thread reads the object intact.
        let clean = FileBackend::open(&path, 0).unwrap();
        assert_eq!(&clean.try_get_bytes(&disk, id).unwrap()[..], &[9u8; 400][..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scratch_buffer_follows_the_page_size() {
        // One thread alternating between files of different page sizes:
        // the shared read buffer must be re-sized per read, never leaking
        // one file's tail bytes into another's checksum.
        let disk = DiskSim::with_defaults();
        let files: Vec<_> = [4096usize, 128, 1024]
            .iter()
            .map(|&size| {
                let path = temp_path(&format!("scratch_{size}"));
                let data: Vec<u8> = (0..3 * size).map(|i| (i % 253) as u8).collect();
                let be = FileBackend::create(&path, size, 0).unwrap();
                let ids = [be.try_put(&disk, data.clone()), be.try_put(&disk, data[..40].to_vec())];
                be.flush().unwrap();
                (path, data, ids.map(Result::unwrap))
            })
            .collect();
        let opened: Vec<_> = files.iter().map(|f| FileBackend::open(&f.0, 0).unwrap()).collect();
        for _ in 0..3 {
            for (be, (_, data, [big, small])) in opened.iter().zip(&files) {
                assert_eq!(&be.try_get_bytes(&disk, *big).unwrap()[..], &data[..]);
                assert_eq!(&be.try_get_bytes(&disk, *small).unwrap()[..], &data[..40]);
            }
        }
        for (path, ..) in &files {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn truncated_file_rejected_on_open() {
        let path = temp_path("truncated");
        {
            let disk = DiskSim::with_defaults();
            let be = FileBackend::create(&path, 256, 0).unwrap();
            be.try_put(&disk, vec![1u8; 2000]).unwrap();
            be.flush().unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 300]).unwrap();
        assert!(matches!(FileBackend::open(&path, 0), Err(StorageError::TruncatedObject { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn superblock_padding_corruption_detected() {
        let path = temp_path("sb_padding");
        {
            let disk = DiskSim::with_defaults();
            let be = FileBackend::create(&path, 256, 0).unwrap();
            be.try_put(&disk, vec![3u8; 50]).unwrap();
            be.flush().unwrap();
        }
        // Flip a byte *past* the 80 serialized superblock bytes in both
        // slot pages: whichever slot wins the election, its zero-padding
        // check must reject the flip like any checksum failure.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[100] ^= 0x04;
        bytes[256 + 100] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FileBackend::open(&path, 0),
            Err(StorageError::ChecksumMismatch { page: 0 | 1 })
        ));
        std::fs::remove_file(&path).ok();
    }

    /// Decode fuzz of the superblock election: arbitrary, bit-flipped and
    /// re-stamped (checksum recomputed over a junk field) heads in either
    /// slot, through `decode_slot` + `elect_superblock` and through an open
    /// of a small committed file whose pages 0–1 carry them. Each case
    /// elects a generation one of the slots holds or fails typed; none
    /// panics or hangs.
    #[test]
    fn superblock_election_decode_fuzz() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const PAGE: usize = 256;
        let (path, fuzzed) = (temp_path("sb_fuzz_src"), temp_path("sb_fuzz"));
        let disk = DiskSim::with_defaults();
        {
            let be = FileBackend::create(&path, PAGE, 4).unwrap();
            for generation in 1..=2u8 {
                let id = be.try_put(&disk, vec![generation; 300]).unwrap();
                be.set_catalog(id).unwrap();
                be.flush().unwrap();
            }
        }
        let clean = std::fs::read(&path).unwrap();
        let mut rng = StdRng::seed_from_u64(46);
        let (mut elected, mut refused, mut opened) = (0, 0, 0);
        for _ in 0..2_000 {
            let mut bytes = clean.clone();
            for slot in bytes.chunks_mut(PAGE).take(2) {
                match rng.gen_range(0..5) {
                    0 => {}
                    1 => {
                        for _ in 0..rng.gen_range(1..4) {
                            let bit = rng.gen_range(0..PAGE * 8);
                            slot[bit / 8] ^= 1 << (bit % 8);
                        }
                    }
                    2 => slot[..SUPERBLOCK_LEN].iter_mut().for_each(|b| *b = rng.gen()),
                    3 => {
                        let (at, width) = [(12, 4), (16, 8), (24, 8), (48, 8), (56, 4), (60, 8)]
                            [rng.gen_range(0..6usize)];
                        let value: u64 = [0, u64::MAX, rng.gen_range(0..16), rng.gen()]
                            [rng.gen_range(0..4usize)];
                        slot[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                        let crc = crate::format::crc32(&slot[..76]);
                        slot[76..80].copy_from_slice(&crc.to_le_bytes());
                    }
                    _ => slot.iter_mut().for_each(|b| *b = rng.gen()),
                }
            }
            let head0 = Superblock::decode_slot(&bytes[..PAGE], 0);
            let head1 = Superblock::decode_slot(&bytes[PAGE..2 * PAGE], 1);
            let generations: Vec<u64> =
                [&head0, &head1].into_iter().flatten().map(|sb| sb.generation).collect();
            match elect_superblock(head0, head1) {
                Ok(e) => {
                    assert!(generations.contains(&e.winner.generation));
                    assert!(e.previous.is_none_or(|p| p.generation <= e.winner.generation));
                    elected += 1;
                }
                Err(_) => {
                    assert!(generations.is_empty());
                    refused += 1;
                }
            }
            std::fs::write(&fuzzed, &bytes).unwrap();
            if let Ok(be) = FileBackend::open(&fuzzed, 4) {
                assert!(generations.contains(&be.generation().unwrap()));
                if let Some(catalog) = be.catalog() {
                    let _ = be.try_get_bytes(&disk, catalog);
                }
                opened += 1;
            }
        }
        assert!(elected > 500 && refused > 100 && opened > 200, "{elected} {refused} {opened}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&fuzzed).ok();
    }

    #[test]
    fn not_a_cube_file_rejected() {
        let path = temp_path("badmagic");
        std::fs::write(&path, vec![0x42u8; 4096]).unwrap();
        assert!(matches!(FileBackend::open(&path, 0), Err(StorageError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn superblock_and_out_of_bounds_reads_rejected() {
        let path = temp_path("oob");
        let disk = DiskSim::with_defaults();
        let be = FileBackend::create(&path, 256, 0).unwrap();
        be.try_put(&disk, vec![1u8; 10]).unwrap();
        assert!(matches!(
            be.try_get_bytes(&disk, PageId(0)),
            Err(StorageError::OutOfBounds { .. })
        ));
        assert!(matches!(
            be.try_get_bytes(&disk, PageId(1)),
            Err(StorageError::OutOfBounds { .. })
        ));
        assert!(matches!(
            be.try_get_bytes(&disk, PageId(99)),
            Err(StorageError::OutOfBounds { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopened_file_rejects_writes() {
        let path = temp_path("readonly");
        let disk = DiskSim::with_defaults();
        {
            let be = FileBackend::create(&path, 256, 0).unwrap();
            be.try_put(&disk, vec![1u8; 10]).unwrap();
            be.flush().unwrap();
        }
        let be = FileBackend::open(&path, 0).unwrap();
        assert!(matches!(be.try_put(&disk, vec![2u8; 5]), Err(StorageError::ReadOnly)));
        assert!(matches!(be.set_catalog(PageId(2)), Err(StorageError::ReadOnly)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overwrite_within_span_round_trips() {
        let path = temp_path("overwrite");
        let disk = DiskSim::with_defaults();
        let be = FileBackend::create(&path, 256, 4).unwrap();
        let id = be.try_put(&disk, vec![1u8; 400]).unwrap();
        be.overwrite(&disk, id, vec![2u8; 300]).unwrap();
        assert_eq!(&be.try_get_bytes(&disk, id).unwrap()[..], &[2u8; 300][..]);
        // Growing past the allocated span is rejected.
        assert!(matches!(
            be.overwrite(&disk, id, vec![3u8; 4000]),
            Err(StorageError::BadLength { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn committed_pages_are_immutable() {
        let path = temp_path("immutable");
        let disk = DiskSim::with_defaults();
        let be = FileBackend::create(&path, 256, 4).unwrap();
        let id = be.try_put(&disk, vec![1u8; 100]).unwrap();
        be.flush().unwrap();
        // The object is committed now: in-place mutation must be refused.
        assert!(matches!(
            be.overwrite(&disk, id, vec![2u8; 100]),
            Err(StorageError::ImmutableGeneration { .. })
        ));
        // A fresh append is still mutable until the next commit.
        let id2 = be.try_put(&disk, vec![3u8; 100]).unwrap();
        be.overwrite(&disk, id2, vec![4u8; 100]).unwrap();
        be.flush().unwrap();
        assert!(matches!(
            be.overwrite(&disk, id2, vec![5u8; 100]),
            Err(StorageError::ImmutableGeneration { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn generations_commit_into_alternating_slots() {
        let path = temp_path("generations");
        let disk = DiskSim::with_defaults();
        let be = FileBackend::create(&path, 256, 4).unwrap();
        let a = be.try_put(&disk, vec![1u8; 50]).unwrap();
        be.set_catalog(a).unwrap();
        be.flush().unwrap();
        assert_eq!(be.generation(), Some(1));

        // A reader pinned on generation 1 while the writer commits 2.
        let reader = FileBackend::open(&path, 4).unwrap();
        assert_eq!(reader.generation(), Some(1));

        let b = be.try_put(&disk, vec![2u8; 50]).unwrap();
        be.set_catalog(b).unwrap();
        be.flush().unwrap();
        assert_eq!(be.generation(), Some(2));

        // The pinned reader still serves generation 1 byte-identically.
        assert_eq!(reader.catalog(), Some(a));
        assert_eq!(&reader.try_get_bytes(&disk, a).unwrap()[..], &[1u8; 50][..]);
        // A fresh open elects generation 2 and sees both objects.
        let fresh = FileBackend::open(&path, 4).unwrap();
        assert_eq!(fresh.generation(), Some(2));
        assert_eq!(fresh.catalog(), Some(b));
        assert_eq!(&fresh.try_get_bytes(&disk, a).unwrap()[..], &[1u8; 50][..]);
        assert_eq!(&fresh.try_get_bytes(&disk, b).unwrap()[..], &[2u8; 50][..]);
        // And the previous generation stays openable for scrubbing.
        let prev = FileBackend::open_previous(&path, 4).unwrap();
        assert_eq!(prev.generation(), Some(1));
        assert_eq!(prev.catalog(), Some(a));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_writable_appends_next_generation() {
        let path = temp_path("reopen_write");
        let disk = DiskSim::with_defaults();
        let a = {
            let be = FileBackend::create(&path, 256, 4).unwrap();
            let a = be.try_put(&disk, vec![1u8; 50]).unwrap();
            be.set_catalog(a).unwrap();
            be.flush().unwrap();
            a
        };
        let be = FileBackend::open_writable(&path, 4).unwrap();
        assert!(!be.read_only());
        assert_eq!(be.generation(), Some(1));
        let b = be.try_put(&disk, vec![2u8; 50]).unwrap();
        be.set_catalog(b).unwrap();
        be.flush().unwrap();
        assert_eq!(be.generation(), Some(2));
        drop(be);
        let fresh = FileBackend::open(&path, 4).unwrap();
        assert_eq!(fresh.generation(), Some(2));
        assert_eq!(fresh.catalog(), Some(b));
        assert_eq!(&fresh.try_get_bytes(&disk, a).unwrap()[..], &[1u8; 50][..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rollback_revives_previous_generation() {
        let path = temp_path("rollback");
        let disk = DiskSim::with_defaults();
        let (a, b) = {
            let be = FileBackend::create(&path, 256, 4).unwrap();
            let a = be.try_put(&disk, vec![1u8; 50]).unwrap();
            be.set_catalog(a).unwrap();
            be.flush().unwrap();
            let b = be.try_put(&disk, vec![2u8; 50]).unwrap();
            be.set_catalog(b).unwrap();
            be.flush().unwrap();
            (a, b)
        };
        assert_eq!(FileBackend::open(&path, 0).unwrap().catalog(), Some(b));
        let live = FileBackend::rollback_latest(&path).unwrap();
        assert_eq!(live, 1);
        let be = FileBackend::open(&path, 0).unwrap();
        assert_eq!(be.generation(), Some(1));
        assert_eq!(be.catalog(), Some(a));
        // One generation of history: a second rollback has nowhere to go.
        assert!(matches!(FileBackend::rollback_latest(&path), Err(StorageError::Malformed(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn crashed_commit_elects_previous_generation() {
        let path = temp_path("crashcommit");
        let disk = DiskSim::with_defaults();
        let a = {
            let be = FileBackend::create(&path, 256, 4).unwrap();
            let a = be.try_put(&disk, vec![1u8; 50]).unwrap();
            be.set_catalog(a).unwrap();
            be.flush().unwrap();
            a
        };
        // Crash on the very first page write of the next generation:
        // nothing of generation 2 persists.
        let plan = FaultPlan::new();
        plan.crash_after_page_writes(0, CrashMode::Dropped);
        {
            let opts = FileOptions { pool_pages: 4, faults: Some(Arc::clone(&plan)) };
            let be = FileBackend::open_writable(&path, opts).unwrap();
            let b = be.try_put(&disk, vec![2u8; 50]).unwrap();
            be.set_catalog(b).unwrap();
            be.flush().unwrap(); // "succeeds" — but nothing persisted
            assert!(plan.crashed());
        }
        let be = FileBackend::open(&path, 4).unwrap();
        assert_eq!(be.generation(), Some(1));
        assert_eq!(be.catalog(), Some(a));
        assert_eq!(&be.try_get_bytes(&disk, a).unwrap()[..], &[1u8; 50][..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writer_lock_excludes_second_writable_handle() {
        let path = temp_path("writerlock");
        let disk = DiskSim::with_defaults();
        let be = FileBackend::create(&path, 256, 0).unwrap();
        be.try_put(&disk, vec![1u8; 20]).unwrap();
        be.flush().unwrap();
        // Held by the live create handle: writable opens and recreates
        // fail typed; read-only opens are never excluded.
        for attempt in [FileBackend::open_writable(&path, 0), FileBackend::create(&path, 256, 0)] {
            match attempt {
                Err(StorageError::WriterLocked { owner_pid }) => {
                    assert_eq!(owner_pid, std::process::id());
                }
                other => panic!("expected WriterLocked, got {:?}", other.map(|_| ())),
            }
        }
        let reader = FileBackend::open(&path, 0).unwrap();
        assert_eq!(reader.generation(), Some(1));
        drop(be);
        // Dropping the writer releases the lock for the next one.
        let be = FileBackend::open_writable(&path, 0).unwrap();
        drop(be);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn retired_pages_survive_reopen_and_peek() {
        let path = temp_path("retired_persist");
        let disk = DiskSim::with_defaults();
        let retired = {
            let be = FileBackend::create(&path, 256, 4).unwrap();
            let a = be.try_put(&disk, vec![1u8; 600]).unwrap();
            let b = be.try_put(&disk, vec![2u8; 600]).unwrap();
            be.set_catalog(b).unwrap();
            be.flush().unwrap();
            be.retire(a).unwrap();
            be.flush().unwrap();
            let r = be.reclaimable_pages();
            assert!(r > 0);
            r
        };
        // The watermark signal survives both read-only and writable
        // reopens, and the lock-free superblock peek agrees.
        assert_eq!(FileBackend::open(&path, 0).unwrap().reclaimable_pages(), retired);
        assert_eq!(FileBackend::open_writable(&path, 0).unwrap().reclaimable_pages(), retired);
        assert_eq!(FileBackend::peek_superblock(&path).unwrap().retired_pages, retired);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_commit_retires_the_allocation_map_it_replaces() {
        let path = temp_path("retired_map");
        let disk = DiskSim::with_defaults();
        let be = FileBackend::create(&path, 256, 4).unwrap();
        be.try_put(&disk, vec![1u8; 600]).unwrap();
        be.flush().unwrap();
        assert_eq!(be.reclaimable_pages(), 0, "the first map replaces none");
        let first_map = FileBackend::peek_superblock(&path).unwrap().alloc_pages;
        be.try_put(&disk, vec![2u8; 600]).unwrap();
        be.flush().unwrap();
        assert_eq!(be.reclaimable_pages(), u64::from(first_map));
        drop(be);
        // A writable reopen knows which map the elected generation points at.
        let be = FileBackend::open_writable(&path, 0).unwrap();
        let second_map = FileBackend::peek_superblock(&path).unwrap().alloc_pages;
        be.try_put(&disk, vec![3u8; 600]).unwrap();
        be.flush().unwrap();
        assert_eq!(be.reclaimable_pages(), u64::from(first_map + second_map));
        drop(be);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn publish_swap_replaces_target_under_pinned_reader() {
        let temp = temp_path("swap_temp");
        let target = temp_path("swap_target");
        let disk = DiskSim::with_defaults();
        let old_id = {
            let be = FileBackend::create(&target, 256, 4).unwrap();
            let id = be.try_put(&disk, vec![1u8; 50]).unwrap();
            be.set_catalog(id).unwrap();
            be.flush().unwrap();
            id
        };
        let new_id = {
            let be = FileBackend::create(&temp, 256, 4).unwrap();
            let id = be.try_put(&disk, vec![2u8; 70]).unwrap();
            be.set_catalog(id).unwrap();
            be.flush().unwrap();
            id
        };
        // A reader pinned on the old file before the swap…
        let pinned = FileBackend::open(&target, 0).unwrap();
        FileBackend::publish_swap(&temp, &target, None).unwrap();
        // …keeps serving the retired inode byte-identically, while a
        // fresh open elects the swapped-in file.
        assert_eq!(&pinned.try_get_bytes(&disk, old_id).unwrap()[..], &[1u8; 50][..]);
        let fresh = FileBackend::open(&target, 0).unwrap();
        assert_eq!(&fresh.try_get_bytes(&disk, new_id).unwrap()[..], &[2u8; 70][..]);
        assert!(!temp.exists());
        std::fs::remove_file(&target).ok();
    }

    #[test]
    fn seek_locked_mode_matches_positional_io() {
        // The non-unix fallback path (mutex around seek+access), forced
        // at runtime so unix CI actually exercises it: byte-identical
        // round trips under the same concurrent hammering.
        let path = temp_path("seeklocked");
        let disk = DiskSim::with_defaults();
        let objects: Vec<Vec<u8>> =
            (0..16u8).map(|i| vec![i; 64 + (i as usize * 53) % 500]).collect();
        let ids: Vec<PageId> = {
            let mut be = FileBackend::create(&path, 256, 8).unwrap();
            be.file.mode = IoMode::SeekLocked;
            let ids = objects.iter().map(|o| be.try_put(&disk, o.clone()).unwrap()).collect();
            be.flush().unwrap();
            ids
        };
        // Reopen in each mode; answers must be byte-identical.
        for mode in [IoMode::SeekLocked, IoMode::Positional] {
            let mut be = FileBackend::open(&path, 0).unwrap();
            be.file.mode = mode;
            std::thread::scope(|s| {
                for t in 0..4usize {
                    let (be, ids, objects) = (&be, &ids, &objects);
                    s.spawn(move || {
                        let disk = DiskSim::with_defaults();
                        for round in 0..25 {
                            let i = (t * 5 + round * 3) % ids.len();
                            let bytes = be.try_get_bytes(&disk, ids[i]).unwrap();
                            assert_eq!(&bytes[..], &objects[i][..], "object {i} in {mode:?}");
                        }
                    });
                }
            });
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_readers_share_one_backend() {
        // 8 threads × many objects against one read-only backend: every
        // read validates and returns the exact stored bytes with no file
        // lock on the path (positional reads + sharded pool).
        let path = temp_path("concurrent");
        let disk = DiskSim::with_defaults();
        let objects: Vec<Vec<u8>> =
            (0..24u8).map(|i| vec![i; 64 + (i as usize * 37) % 700]).collect();
        let ids: Vec<PageId> = {
            let be = FileBackend::create(&path, 256, 64).unwrap();
            let ids = objects.iter().map(|o| be.try_put(&disk, o.clone()).unwrap()).collect();
            be.flush().unwrap();
            ids
        };
        let be = FileBackend::open(&path, 32).unwrap();
        std::thread::scope(|s| {
            for t in 0..8usize {
                let (be, ids, objects) = (&be, &ids, &objects);
                s.spawn(move || {
                    let disk = DiskSim::with_defaults();
                    for round in 0..50 {
                        let i = (t * 7 + round * 11) % ids.len();
                        let bytes = be.try_get_bytes(&disk, ids[i]).unwrap();
                        assert_eq!(&bytes[..], &objects[i][..], "object {i}");
                    }
                });
            }
        });
        let stats = be.pool_stats().unwrap();
        assert_eq!(stats.hits() + stats.misses(), 8 * 50);
        assert!(stats.hits() > 0, "warm pool must absorb repeat reads");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pool_stats_expose_shard_counters() {
        let path = temp_path("poolstats");
        let disk = DiskSim::with_defaults();
        let be = FileBackend::create(&path, 256, 16).unwrap();
        let ids: Vec<PageId> =
            (0..6).map(|i| be.try_put(&disk, vec![i as u8; 100]).unwrap()).collect();
        be.clear_cache();
        for &id in &ids {
            be.try_get_bytes(&disk, id).unwrap(); // miss
            be.try_get_bytes(&disk, id).unwrap(); // hit
        }
        let stats = be.pool_stats().unwrap();
        assert_eq!(stats.hits(), 6);
        assert_eq!(stats.misses(), 6);
        assert_eq!(stats.frames(), 6);
        assert!(stats.hit_rate() > 0.49 && stats.hit_rate() < 0.51);
        assert!(!stats.shards.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
