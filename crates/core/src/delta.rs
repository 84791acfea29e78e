//! The LSM delta cube: ingest-while-serving over a persistent base cube.
//!
//! The paper materializes its ranking cube offline; the ROADMAP's
//! production north star needs one process to **ingest tuples and answer
//! certified top-k queries at the same time**. [`DeltaCube`] closes that
//! gap with a classic LSM split, built entirely from primitives the
//! workspace already ships:
//!
//! * **Memtable** — an in-memory overlay of inserted/deleted tuples
//!   (latest op per tid), readable concurrently with appends. At query
//!   time the matching overlay tuples are scored and drained in
//!   ascending `(score, tid)` order, so the overlay is itself a
//!   certified answer stream.
//! * **WAL** — a crash-safe append-only sibling file (`<cube>.wal`) of
//!   CRC-framed upserts and deletes the cube file does not hold yet,
//!   replayed on open. A torn tail (a crash mid append) replays the clean
//!   prefix and truncates; corruption *inside* the valid body surfaces as
//!   a typed [`StorageError`] — never a wrong answer. Every append and
//!   flush boundary is crash-scriptable through the same
//!   [`rcube_storage::fault`] machinery the vacuum sweep uses.
//! * **Flush/merge** — [`DeltaCube::flush`] folds the memtable into the
//!   base cube through the incremental-maintenance path as one *batch*:
//!   every R-tree insert/delete of the snapshot runs first, their update
//!   sets coalesce per tid (first `old_path`, last `new_path`, no-ops
//!   dropped — [`crate::maintain::PathUpdateBatch`]), and a single
//!   [`crate::maintain::apply_path_updates`] splices each touched cell
//!   once, node-granular: only the nodes whose bits changed are
//!   re-encoded and only the partials holding one are COW-appended, so
//!   the signature side of a flush costs what it changed, not the cells
//!   it landed in. A cell signature is a pure function of the set of
//!   tuple paths in the cell, which is why the coalesced set lands on
//!   exactly the signatures the op-by-op application would. One
//!   crash-atomic `commit` publishes the result, then the WAL drops the
//!   frames the commit folded, via the fsync + atomic-rename protocol the
//!   vacuum uses ([`rcube_storage::FileBackend::swap_in`]). The fold and
//!   the commit run under the cube file's advisory writer lock. Appends
//!   keep landing in the memtable and the WAL while a flush runs (*Crash
//!   safety* below says when they wait). Readers are never blocked: each
//!   cursor owns a clone of the generation it opened on (an `Arc`, taken
//!   under the memtable lock with the overlay it pins) and serves it until
//!   it drops. At the swap the superseded generation drops its buffer-pool
//!   frames (a cursor still pinned on it keeps the frames it holds and
//!   re-reads the rest on demand), and it is freed — directory, R-tree
//!   copy, pool, file descriptor — by the flush itself when no cursor pins
//!   it, else by its last cursor. So a delta cube holds one generation plus
//!   the ones its open cursors read ([`DeltaStats::generations_retained`]),
//!   however many flushes it has run. The decoded-node cache is *not*
//!   dropped: it follows the file to the next generation (below).
//!
//! # The cube file owns its tuples
//!
//! A fold whose R-tree operations move a tuple — a split, a condense, a
//! delete — re-derives that tuple's cells, so it needs the tuple's
//! selection values. The cube file records them (`crate::tuples`): the
//! selection schema, the tuple count, one column of selection values by
//! tid, and `flushed_seq`, the last WAL seq folded into the file. A fold
//! takes a moved tuple's values from the snapshot's upsert or from that
//! column, and each commit writes the column chunks its inserts changed
//! (one or two: delta tids ascend). So the WAL holds only what is
//! pending, and a flush rewrites none of what earlier flushes folded.
//! Tids of inserted tuples are allocated from the file's tuple count
//! upward; the `Relation` [`DeltaCube::open`] takes is only checked
//! against the file.
//!
//! # The warm path: the serving generation is the writer's cache
//!
//! A flush patches the newest committed generation, so it needs that
//! generation's cuboid directory and R-tree. The serving handle a
//! previous flush published *is* those, in memory: it was built from the
//! very values that flush serialized into the catalog. Each published
//! handle therefore keeps the [`FileStamp`] of its commit — and the handle
//! [`DeltaCube::open`] parsed keeps the stamp of the generation it parsed,
//! whose catalog it is just as exactly — and a flush — with the writer
//! lock held — compares it with the stamp of the file it has just opened
//! for writing: same device and inode (the serving handle's descriptor
//! pins the inode, so the pair cannot be a recycled number), same elected
//! generation, page count and catalog page. On a
//! match the stored catalog is, byte for byte, the serialization of what
//! the handle holds, nobody can change it under the lock, and the flush
//! clones the directory and the R-tree — copy-on-write, one pointer per
//! node, so the fold copies only the nodes it edits and consecutive
//! generations share the rest — instead of reading the catalog and every
//! R-tree node object back (≈ 440 of them on the benchmark's 50k base).
//! The clone also keeps, per node, the object that stores it, and an edit
//! forgets it (`rcube_index::rtree`), so the commit appends exactly the
//! nodes the fold changed — a median of 57 a flush there — and the
//! catalog names the rest where earlier generations wrote them. After the
//! commit the folded directory and tree *move* into the next serving
//! handle over a read-only store opened before the lock is released (and
//! stamp-checked the same way); nothing is parsed there either.
//!
//! **The decoded-node cache takes the same road.** A generation used to
//! live ≈ 190 queries on the benchmark's stream and hand the next an empty
//! cache, so the signature route never served at its warm speed (first
//! queries after a swap 194 µs, steady state 69 µs). Now the cache
//! ([`crate::nodecache`]) belongs to the file: the warm path's writable
//! handle *shares* the serving handle's cache
//! (`SignatureCube::clone_onto`), and so does the handle published after
//! the commit. What is handed over, per flush:
//!
//! * the ≈ ⅓ of the partials the fold did not touch keep their page ids,
//!   hence their node tables — no work at all;
//! * every partial the fold rewrote gets its table *made by the splice*
//!   that wrote it, from its own piece list: nodes copied as stored reach
//!   the decoded bits (and the reference bits) of the old table's slots,
//!   shared slab-wise, not copied node by node; re-encoded nodes enter
//!   decoded; dropped nodes are simply not listed. A cell written fresh
//!   (a root split) hands nothing over;
//! * the old tables stay one more generation, off the cache's books, for
//!   the cursors that opened just before the swap, and leave at the
//!   following one. A cursor pinned longer re-reads its generation's
//!   partials, which stay on the file until a vacuum.
//!
//! *When it becomes visible.* The tables are keyed by the page ids the
//! fold appended, and those are not committed while the flush can still
//! fail — a failed flush leaves the file as it was, and the retry appends
//! other bytes under the very same ids. So the writable handle *stages*
//! them, the stage moves into the next serving handle, and the last step
//! of the flush (3 under *Crash safety*) publishes it: after the WAL
//! rename, where nothing can fail any more. *What a failed flush
//! discards:* the stage, with the handle — nothing of it was ever
//! visible; the serving generation keeps the cache exactly as its queries
//! left it.
//!
//! The buffer pool needs no such hand-off: with the node cache warm a
//! serving generation reads next to no partials (the pool misses a flush
//! shows are the fold's own reads, `delta.flush.pool.misses`), so each
//! generation's pool simply starts empty and the superseded one is
//! cleared.
//!
//! Everything else takes the cold path, `SignatureCube::open_store`'s
//! catalog parse, which stays the only one — and starts a fresh node
//! cache, for the same reason it distrusts the catalog in memory: the
//! keys of the old one may name another file's pages. That is a vacuum
//! swap (another inode under the path), the first flush after a
//! re-election (its handle is left unstamped), another writer's commit
//! (another generation), a flush of this process that committed and then
//! failed before the swap (the file is a generation ahead of the serving
//! handle), a platform without file identity. The first flush after
//! [`DeltaCube::open`] is not on the list: it reuses the catalog the open
//! parsed instead of parsing a second full copy beside it, and still
//! writes only the R-tree nodes it changed (the parse recorded each
//! node's object). There is no option to force either path;
//! `FlushReport::cold_opens` and `delta.flush.cold_opens` say which ran.
//!
//! # Reading a flush
//!
//! Every cycle records `delta.flush.{open,fold,commit,wal,swap}_us`
//! histograms (writable handle + catalog; R-tree ops + splice; changed
//! R-tree nodes and column chunks + catalog write + superblock publish;
//! the WAL hand-over; read-handle open + in-process swap), the
//! `delta.flush.writer_hold_us` histogram (how long the cycle kept appends
//! waiting), `delta.flush.{path_updates, cells_rewritten,
//! partials_rewritten, nodes_reencoded, rtree_nodes_written, cold_opens}`
//! counters, and one structured `delta.flush` event
//! ([`DeltaCube::flush_events`]) carrying all of them with the generation
//! and `carried_ops`, the appends that landed mid-cycle. [`FlushReport`]
//! and [`DeltaStats`] carry the counts for callers without a registry.
//!
//! `wal_us` is the hand-over alone: waiting for the append mutex, then
//! writing, fsyncing and renaming a WAL of the header and the frames
//! appended since the snapshot. It follows the appends a flush carries,
//! not the tuples earlier flushes folded — a quiet flush writes the
//! 16-byte header and nothing else.
//!
//! # Serving: the three-way certified merge
//!
//! [`DeltaCube`] implements [`RankedSource`]. An open cursor k-way
//! merges two certified ascending streams — the base cube's
//! bound-driven search and the memtable overlay drain — while **masking**
//! every base answer whose tid has a memtable op (deleted tuples vanish,
//! updated tuples are answered from the overlay). The merged stream is
//! byte-identical to a cube rebuilt from scratch over the current
//! logical relation at any point between flushes, and
//! [`TopKCursor::extend_k`] composes across a flush that happens
//! mid-session: the cursor pins the base generation and the memtable
//! snapshot it opened with (the same contract pinned readers get from
//! the vacuum swap), so pagination keeps answering the state it started
//! from. The signature search it runs over its generation borrows
//! nothing of it (`crate::sigquery`'s search state is handed the cube
//! and the tree at each step), which is what lets the cursor own the
//! generation instead of borrowing it from the [`DeltaCube`].
//!
//! # Crash safety
//!
//! Two mutexes split the writer. The *append mutex* serializes inserts
//! and deletes; it guards the WAL handle, the WAL's end and the next seq
//! and tid. The *flush mutex* serializes [`DeltaCube::flush`] with
//! re-election. Every memtable op carries the WAL seq it was logged
//! under, and every generation of the cube file records the last seq
//! folded into it. One rule makes every boundary safe: **an op at or
//! below the file's `flushed_seq` is in the file** — replay skips its
//! frame, and a fold skips it. A flush takes the append mutex twice,
//! briefly: once to snapshot the memtable, its last seq and the WAL's
//! end, and once to hand the WAL over (step 3).
//!
//! 1. fold the snapshot's ops above the file's `flushed_seq` into a
//!    writable base handle as one batch, and `commit` it with the
//!    snapshot's last seq as its `flushed_seq` (crash-atomic superblock
//!    publish — a crash before it leaves the old generation, and the
//!    untouched WAL replays everything, appends made since the snapshot
//!    included);
//! 2. open the next read handle — the last step that can fail for a
//!    reason other than the WAL itself;
//! 3. under the append mutex, write a new WAL to a temp file: the header,
//!    then the frames appended since the snapshot, byte for byte (their
//!    seqs all follow the snapshot's). Fsync it, rename it over the WAL
//!    and fsync the directory. A crash before the rename leaves the old
//!    WAL beside the new generation: replay skips the frames it folded,
//!    and the reopen holds exactly the ops appended since the snapshot.
//!    The directory fsync stays inside the mutex: the next append lands
//!    in the new inode, and once acknowledged it must not be lost to a
//!    crash that undoes the rename. Then, with no fallible call in
//!    between, move the append handle to the descriptor the new WAL was
//!    written through (it follows its inode across the rename — the path
//!    is never opened again, so no later append can land in the unlinked
//!    old WAL), publish the node tables the fold staged, swap the serving
//!    handle and prune the memtable of the ops at or below the snapshot's
//!    seq, atomic under the memtable lock, so a concurrent open sees
//!    either (old generation + full overlay) or (new generation + the ops
//!    appended since) — the same logical relation either way. A directory
//!    fsync that fails gates only the flush's own `Ok`.
//!
//! A flush that fails before its commit leaves the process as it was. One
//! that fails after it leaves the file a generation ahead, with the WAL
//! and the memtable still holding the snapshot: the next flush takes the
//! cold path, reads the newer `flushed_seq` and folds only the ops above
//! it. Writes acknowledged during or after a failed flush are in the WAL
//! a restart reads. Appends wait for a flush only while it holds the
//! append mutex (`delta.flush.writer_hold_us`): two short holds, not the
//! fold or the commit. Readers never wait.

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use rcube_index::rtree::RTree;
use rcube_obs::{Counter, Gauge, Histogram, Metrics, QueryTrace, TraceEvent};
use rcube_storage::format::{crc32, ByteReader};
use rcube_storage::{
    DiskSim, FaultPlan, FileBackend, FileOptions, FileStamp, PageStore, StorageError, SwapStage,
    WriteOutcome, DEFAULT_POOL_PAGES,
};
use rcube_table::{Dim, Relation, Tid};

use crate::maintain::{apply_path_updates, PathUpdateBatch};
use crate::query::{ProgressiveSearch, QueryPlan, RankedSource, TopKCursor};
use crate::sigcube::{Committed, SignatureCube};
use crate::sigquery::SigState;
use crate::QueryStats;

/// WAL file magic (8 bytes, distinct from the cube-file magic).
const WAL_MAGIC: &[u8; 8] = b"RCUBWAL1";
/// WAL format version this build reads and writes.
const WAL_VERSION: u16 = 2;
/// Header bytes: magic + version + flags + crc.
const WAL_HEADER_LEN: usize = 8 + 2 + 2 + 4;
/// Upper bound on one record's payload; a parsed length past this is
/// structural damage, not a big tuple.
const MAX_RECORD_LEN: usize = 1 << 20;

/// Record kinds inside the WAL.
const KIND_UPSERT: u8 = 1;
const KIND_DELETE: u8 = 2;

/// `path` with `suffix` appended to its last component.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(suffix);
    PathBuf::from(os)
}

/// The sibling WAL path for a cube file: `<path>.wal`.
pub fn wal_path_for(path: &Path) -> PathBuf {
    sibling(path, ".wal")
}

/// Knobs for [`DeltaCube::open`].
#[derive(Debug, Clone)]
pub struct DeltaOptions {
    /// Buffer-pool capacity (pages) for the serving base handles.
    pub pool_pages: usize,
    /// Metric registry the delta instruments land in.
    pub metrics: Metrics,
    /// Fault script armed on WAL appends (write-level), the flush
    /// boundaries (page writes + swap stages) and the reads of every handle
    /// on the cube file, the serving generations' included (transient
    /// `EIO`, sticky bit flips). `None` in production.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for DeltaOptions {
    fn default() -> Self {
        Self { pool_pages: DEFAULT_POOL_PAGES, metrics: Metrics::disabled(), faults: None }
    }
}

/// One logical write against the delta layer: the latest op per tid.
#[derive(Debug, Clone)]
enum MemOp {
    /// Insert of a delta tuple.
    Upsert { sel: Vec<u32>, point: Vec<f64> },
    /// Tombstone: masks a base (or previously flushed delta) tuple.
    Delete,
}

impl MemOp {
    fn bytes(&self) -> usize {
        16 + match self {
            MemOp::Upsert { sel, point } => sel.len() * 4 + point.len() * 8,
            MemOp::Delete => 0,
        }
    }
}

/// A memtable entry: the latest op on its tid and the WAL seq it was
/// logged under, which tells a flush the ops it folded (at or below its
/// snapshot's seq) from the ones appended while it ran.
#[derive(Debug, Clone)]
struct Logged {
    seq: u64,
    op: MemOp,
}

/// The memtable's ops: latest op per tid.
type MemOps = BTreeMap<Tid, Logged>;

/// The concurrently-readable overlay: latest op per tid plus a byte
/// tally for the depth gauge. The ops sit behind an `Arc` a cursor (and a
/// flush) pins instead of copying: a write clones them — at most a flush
/// interval's worth — only while some cursor or flush still holds the
/// last state.
#[derive(Debug, Default)]
struct Memtable {
    ops: Arc<MemOps>,
    bytes: usize,
}

impl Memtable {
    fn put(&mut self, tid: Tid, seq: u64, op: MemOp) {
        self.bytes += op.bytes();
        if let Some(old) = Arc::make_mut(&mut self.ops).insert(tid, Logged { seq, op }) {
            self.bytes -= old.op.bytes();
        }
    }

    /// Drops the ops a flush folded — those logged at or below
    /// `flushed_seq` — and keeps every later one as it is.
    fn prune(&mut self, flushed_seq: u64) {
        Arc::make_mut(&mut self.ops).retain(|_, e| e.seq > flushed_seq);
        self.bytes = self.ops.values().map(|e| e.op.bytes()).sum();
    }
}

/// What replaying the WAL on open found.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayReport {
    /// Valid frames decoded.
    pub records: u64,
    /// Ops re-entered into the memtable: the frames above the cube
    /// file's `flushed_seq` (those at or below it are in the file).
    pub pending: u64,
    /// Whether a torn tail (crash mid-append) was truncated away.
    pub torn_tail: bool,
    /// Bytes dropped by the torn-tail truncation.
    pub truncated_bytes: u64,
}

/// One decoded WAL record.
struct WalRecord {
    seq: u64,
    tid: Tid,
    op: MemOp,
}

fn encode_upsert(buf: &mut Vec<u8>, seq: u64, tid: Tid, sel: &[u32], point: &[f64]) {
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(KIND_UPSERT);
    buf.extend_from_slice(&tid.to_le_bytes());
    buf.extend_from_slice(&(sel.len() as u16).to_le_bytes());
    for v in sel {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.extend_from_slice(&(point.len() as u16).to_le_bytes());
    for p in point {
        buf.extend_from_slice(&p.to_bits().to_le_bytes());
    }
}

fn encode_delete(buf: &mut Vec<u8>, seq: u64, tid: Tid) {
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.push(KIND_DELETE);
    buf.extend_from_slice(&tid.to_le_bytes());
}

/// Frames a payload: `[len u32][crc u32][payload]`, CRC over the payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(8 + payload.len());
    f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    f.extend_from_slice(&crc32(payload).to_le_bytes());
    f.extend_from_slice(payload);
    f
}

fn wal_header() -> [u8; WAL_HEADER_LEN] {
    let mut h = [0u8; WAL_HEADER_LEN];
    h[0..8].copy_from_slice(WAL_MAGIC);
    h[8..10].copy_from_slice(&WAL_VERSION.to_le_bytes());
    // bytes 10..12: flags, reserved zero.
    let crc = crc32(&h[0..12]);
    h[12..16].copy_from_slice(&crc.to_le_bytes());
    h
}

fn read_record(r: &mut ByteReader<'_>) -> Result<WalRecord, StorageError> {
    let seq = r.u64()?;
    let kind = r.u8()?;
    let tid = r.u32()?;
    let op = match kind {
        KIND_DELETE => MemOp::Delete,
        KIND_UPSERT => {
            let nsel = r.u16()?;
            let sel = (0..nsel).map(|_| r.u32()).collect::<Result<_, _>>()?;
            let npt = r.u16()?;
            let point = (0..npt).map(|_| r.f64()).collect::<Result<_, _>>()?;
            MemOp::Upsert { sel, point }
        }
        _ => return Err(StorageError::Malformed("unknown WAL record kind")),
    };
    Ok(WalRecord { seq, tid, op })
}

/// Everything replay reconstructs from the WAL bytes.
struct WalState {
    mem: Memtable,
    /// Past every frame's seq and the cube file's `flushed_seq`.
    next_seq: u64,
    /// Past every frame's tid.
    next_tid: Tid,
    valid_len: u64,
    report: ReplayReport,
}

/// Replays WAL `bytes`: a clean prefix plus, possibly, a torn tail. Frames
/// at or below `flushed_seq` are decoded and skipped: the cube file holds
/// them.
///
/// Classification: a frame that *extends to or past end-of-file*, or
/// whose CRC fails *at* end-of-file, is a torn tail — the crash-mid-append
/// case — and replay succeeds with the prefix (`valid_len` marks the
/// truncation point). A CRC/structure failure with more data *behind* it
/// cannot be a torn append and surfaces as a typed error instead: that is
/// body corruption, and serving a guess would be a wrong answer.
fn replay_wal(bytes: &[u8], flushed_seq: u64) -> Result<WalState, StorageError> {
    let mut s = WalState {
        mem: Memtable::default(),
        next_seq: flushed_seq + 1,
        next_tid: 0,
        valid_len: WAL_HEADER_LEN as u64,
        report: ReplayReport::default(),
    };
    if bytes.len() < WAL_HEADER_LEN {
        // Crash during WAL creation: nothing was ever logged. Treat the
        // stub as a torn tail and start fresh.
        s.report.torn_tail = true;
        s.report.truncated_bytes = bytes.len() as u64;
        s.valid_len = 0;
        return Ok(s);
    }
    let mut header = ByteReader::new(&bytes[..WAL_HEADER_LEN]);
    if header.take(8)? != WAL_MAGIC {
        return Err(StorageError::BadMagic);
    }
    let version = header.u16()?;
    if version != WAL_VERSION {
        return Err(StorageError::UnsupportedVersion(version));
    }
    let _flags = header.u16()?;
    if crc32(&bytes[0..12]) != header.u32()? {
        return Err(StorageError::ChecksumMismatch { page: 0 });
    }

    let mut pos = WAL_HEADER_LEN;
    while pos < bytes.len() {
        let (rest, frame) = (&bytes[pos..], s.report.records + 1);
        let mut head = ByteReader::new(rest);
        // A frame head or body reaching past EOF is a torn append — or a
        // corrupted length field: indistinguishable, but both leave no
        // decodable data behind, so the prefix is all there is.
        let (Ok(len), Ok(crc)) = (head.u32(), head.u32()) else { break };
        let len = len as usize;
        if len > rest.len() - 8 {
            break;
        }
        if len > MAX_RECORD_LEN {
            return Err(StorageError::BadLength { page: frame, len, max: MAX_RECORD_LEN });
        }
        // A CRC or structure failure on the final frame is a torn append
        // (a structure failure there, a CRC collision landing on a torn
        // write): truncate rather than guess. Anywhere else it is body
        // corruption.
        let payload = &rest[8..8 + len];
        let record = (crc32(payload) == crc).then(|| read_record(&mut ByteReader::new(payload)));
        let Some(Ok(WalRecord { seq, tid, op })) = record else {
            if 8 + len == rest.len() {
                break;
            }
            return Err(StorageError::ChecksumMismatch { page: frame });
        };
        s.report.records += 1;
        s.next_seq = s.next_seq.max(seq + 1);
        s.next_tid = s.next_tid.max(tid + 1);
        if seq > flushed_seq {
            s.report.pending += 1;
            s.mem.put(tid, seq, op);
        }
        pos += 8 + len;
    }
    s.valid_len = pos as u64;
    s.report.truncated_bytes = (bytes.len() - pos) as u64;
    s.report.torn_tail = pos < bytes.len();
    Ok(s)
}

/// The append side, serialized by the append mutex: the WAL handle, its
/// valid end, the next seq and tid. Inserts and deletes hold the mutex
/// for one append; a flush takes it only to snapshot and to hand the WAL
/// over (module docs, *Crash safety*).
struct DeltaWriter {
    file: File,
    /// Valid end of the WAL file (appends land here).
    offset: u64,
    next_seq: u64,
    next_tid: Tid,
}

impl DeltaWriter {
    /// Appends one framed record, honoring the fault script: `Persist`
    /// writes and syncs the whole frame, `Prefix` tears it (the bytes a
    /// dying kernel got to flush), `Drop` loses it entirely. Torn and
    /// dropped appends still advance the in-process sequence — the
    /// "process" only discovers the loss when the crash sweep reopens.
    fn append(
        &mut self,
        payload: &[u8],
        faults: Option<&Arc<FaultPlan>>,
    ) -> Result<u64, StorageError> {
        let framed = frame(payload);
        let outcome = match faults {
            Some(plan) => plan.on_write().map_err(StorageError::Io)?,
            None => WriteOutcome::Persist,
        };
        let keep = match outcome {
            WriteOutcome::Persist => framed.len(),
            WriteOutcome::Prefix(frac) => frac.min(framed.len()),
            WriteOutcome::Drop => 0,
        };
        if keep > 0 {
            self.file.seek(SeekFrom::Start(self.offset))?;
            self.file.write_all(&framed[..keep])?;
            self.file.sync_data()?;
            self.offset += keep as u64;
        }
        Ok(framed.len() as u64)
    }
}

/// One base generation: a read-only cube handle plus its R-tree. The
/// [`DeltaCube`] keeps the one it serves beside the memtable, and every
/// cursor opened on it holds a clone of the `Arc` — so a generation lives
/// while it serves or a cursor still reads it, and leaves with the last of
/// them: its directory, R-tree copy, pool and file descriptor go with it.
///
/// Consecutive generations share every R-tree node the flush between
/// them left alone (the tree is copy-on-write, `rcube_index::rtree`), and
/// every cell signature it left alone.
struct Generation {
    cube: SignatureCube,
    rtree: RTree,
    generation: u64,
    /// The stamp of the file generation whose catalog is, byte for byte,
    /// the serialization of `cube`'s directory and `rtree` — what the
    /// flush that built this handle committed, or what [`DeltaCube::open`]
    /// parsed. `None` on the handle a re-election parsed, and on one a
    /// flush had to parse for want of file identity.
    published: Option<FileStamp>,
    /// The delta cube's count of live generations; this one leaves it on
    /// drop ([`DeltaStats::generations_retained`]).
    live: Arc<AtomicU64>,
}

impl Generation {
    /// The handle over `cube` and `rtree`, counted into `live`.
    fn new(
        cube: SignatureCube,
        rtree: RTree,
        generation: u64,
        published: Option<FileStamp>,
        live: &Arc<AtomicU64>,
    ) -> Self {
        live.fetch_add(1, Ordering::Relaxed);
        Self { cube, rtree, generation, published, live: Arc::clone(live) }
    }

    /// Parses the newest generation of the file at `path` into a serving
    /// handle — `SignatureCube::open_store`, the one catalog parse — over a
    /// read-only store under `opts` (its fault plan included), unstamped.
    /// The handle starts a fresh node cache; it and the pool report as
    /// `signature.*`.
    fn open(
        path: &Path,
        opts: FileOptions,
        metrics: &Metrics,
        live: &Arc<AtomicU64>,
    ) -> Result<Self, StorageError> {
        let store = PageStore::open_file(path, opts)?;
        let generation = store.generation().unwrap_or(0);
        let (mut cube, rtree) = SignatureCube::open_store(store)?;
        cube.set_metrics(metrics.clone());
        Ok(Self::new(cube, rtree, generation, None, live))
    }
}

impl Drop for Generation {
    fn drop(&mut self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The serving base cube a caller reads, pinned for as long as it holds
/// this ([`DeltaCube::serving_cube`]).
struct ServingCube(Arc<Generation>);

impl std::ops::Deref for ServingCube {
    type Target = SignatureCube;

    fn deref(&self) -> &SignatureCube {
        &self.0.cube
    }
}

/// What one [`DeltaCube::flush`] cycle accomplished.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlushReport {
    /// Memtable ops folded into the base cube.
    pub applied_ops: usize,
    /// Base-cube generation now serving.
    pub generation: u64,
    /// Wall time of the whole cycle.
    pub duration: Duration,
    /// Net tuple-path changes the fold applied, after coalescing every
    /// R-tree operation's update set per tid.
    pub path_updates: usize,
    /// Cell signatures rewritten: one per touched cell per cuboid, however
    /// many ops hit the cell.
    pub cells_rewritten: usize,
    /// Pages the cycle appended to the cube file (rewritten partials,
    /// changed R-tree nodes, catalog, allocation map).
    pub pages_appended: u64,
    /// Partial signatures appended in place of the ones holding a changed
    /// node (at most the partials of the touched cells).
    pub partials_rewritten: usize,
    /// Signature nodes re-encoded; the other nodes of the rewritten
    /// partials were copied as stored bits.
    pub nodes_reencoded: usize,
    /// R-tree nodes the commit wrote: the ones the fold changed (or
    /// created); every other node keeps the object it had.
    pub rtree_nodes_written: usize,
    /// 1 when the cycle had to parse the catalog off the file (module
    /// docs, *The warm path*), 0 when it reused the serving generation's.
    pub cold_opens: u64,
    /// Microseconds the cycle held the append mutex — the longest an
    /// insert or delete could wait for it (module docs, *Crash safety*).
    pub writer_hold_us: u64,
    /// Ops appended while the cycle ran: their frames moved to the new
    /// WAL, and they stay in the memtable for the next flush.
    pub carried_ops: u64,
}

/// A cycle's phase times, each a `delta.flush.<name>` histogram and a
/// field of its `delta.flush` event.
const FLUSH_PHASES: [&str; 6] =
    ["open_us", "fold_us", "commit_us", "wal_us", "swap_us", "writer_hold_us"];
/// A cycle's counts, each a `delta.flush.<name>` counter and a field of its
/// `delta.flush` event.
const FLUSH_COUNTS: [&str; 6] = [
    "path_updates",
    "cells_rewritten",
    "partials_rewritten",
    "nodes_reencoded",
    "rtree_nodes_written",
    "cold_opens",
];

/// The `delta.flush*` instruments, resolved once at open.
struct FlushInstruments {
    duration: Histogram,
    flushes: Counter,
    phases: [Histogram; 6],
    counts: [Counter; 6],
}

impl FlushInstruments {
    fn new(metrics: &Metrics) -> Self {
        Self {
            duration: metrics.histogram("delta.flush_duration_us"),
            flushes: metrics.counter("delta.flushes"),
            phases: FLUSH_PHASES.map(|name| metrics.histogram(&format!("delta.flush.{name}"))),
            counts: FLUSH_COUNTS.map(|name| metrics.counter(&format!("delta.flush.{name}"))),
        }
    }
}

/// Flush events [`DeltaCube::flush_events`] retains.
const FLUSH_LOG_EVENTS: usize = 64;

/// Point-in-time delta-layer state for `Engine::stats_snapshot`.
#[derive(Debug, Clone, Copy)]
pub struct DeltaStats {
    /// Distinct tids with a pending memtable op.
    pub memtable_ops: usize,
    /// Approximate memtable bytes.
    pub memtable_bytes: usize,
    /// Valid WAL bytes on disk.
    pub wal_bytes: u64,
    /// Flush cycles completed since open.
    pub flushes: u64,
    /// Base-cube generation new cursors serve.
    pub serving_generation: u64,
    /// Partial signatures the flushes since open rewrote.
    pub partials_rewritten: u64,
    /// Signature nodes the flushes since open re-encoded.
    pub nodes_reencoded: u64,
    /// Flushes since open that parsed the catalog off the file.
    pub cold_opens: u64,
    /// Base generations alive: the serving one, plus each superseded one
    /// an open cursor still reads. Counted by the generations themselves,
    /// so one that lingered with nothing pinning it would show here.
    pub generations_retained: u64,
    /// What replay found when this handle opened.
    pub last_replay: ReplayReport,
}

/// What the memtable lock guards: the overlay and the base generation it
/// sits on. A flush swaps both in one write section, so a cursor's open
/// pins a consistent pair.
struct Served {
    mem: Memtable,
    base: Arc<Generation>,
}

/// An ingest-while-serving wrapper over a persistent signature cube
/// file: memtable + WAL + background-mergeable base (module docs).
///
/// The cube file holds its tuples' selection values and schema, so
/// inserts are validated against the file and tids for inserted tuples
/// are allocated from the file's tuple count upward (past any tid the WAL
/// names).
pub struct DeltaCube {
    path: PathBuf,
    wal_path: PathBuf,
    pool_pages: usize,
    disk: DiskSim,
    served: RwLock<Served>,
    /// Live [`Generation`]s, counted by their constructor and `Drop`.
    generations: Arc<AtomicU64>,
    /// The append mutex (module docs, *Crash safety*).
    append: Mutex<DeltaWriter>,
    /// The flush mutex: held by a flush for its whole cycle and by
    /// [`Self::reelect`].
    flush_lock: Mutex<()>,
    faults: Option<Arc<FaultPlan>>,
    metrics: Metrics,
    last_replay: ReplayReport,
    flushes: AtomicU64,
    partials_rewritten: AtomicU64,
    nodes_reencoded: AtomicU64,
    cold_opens: AtomicU64,
    /// Mirror of the WAL's end for lock-free stats.
    wal_len: AtomicU64,
    mem_depth: Gauge,
    wal_bytes_ctr: Counter,
    appends_ctr: Counter,
    flush_instruments: FlushInstruments,
    /// One `delta.flush` event per cycle (see [`Self::flush_events`]).
    flush_log: QueryTrace,
}

impl std::fmt::Debug for DeltaCube {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaCube")
            .field("path", &self.path)
            .field("serving_generation", &self.serving_generation())
            .field("memtable_ops", &self.memtable_len())
            .finish()
    }
}

impl DeltaCube {
    /// Opens the delta layer over the cube file at `path` (which must
    /// already hold a committed signature cube, e.g. via
    /// [`SignatureCube::save_to_with`]). Replays `<path>.wal` — creating
    /// it when absent, truncating a torn tail, surfacing body corruption
    /// as a typed error — and begins serving the merged view.
    ///
    /// `base_rel` is the relation the file was built over. Nothing is
    /// read from it: a relation whose selection or ranking schema differs
    /// from the file's, or that holds more tuples than the file, is
    /// [`StorageError::Malformed`].
    pub fn open(
        path: impl AsRef<Path>,
        base_rel: Relation,
        opts: DeltaOptions,
    ) -> Result<Self, StorageError> {
        let path = path.as_ref().to_path_buf();
        let wal_path = wal_path_for(&path);
        let file_opts = FileOptions { pool_pages: opts.pool_pages, faults: opts.faults.clone() };
        let generations = Arc::new(AtomicU64::new(0));
        let mut opened = Generation::open(&path, file_opts, &opts.metrics, &generations)?;
        // The catalog just parsed is, byte for byte, this stamp's: the
        // first flush may take the warm path like every later one.
        opened.published = opened.cube.store().file_stamp();
        let tuples = &opened.cube.tuples;
        let cards = base_rel.schema().selection_dims().iter().map(Dim::cardinality);
        if !cards.eq(tuples.cards().iter().copied())
            || base_rel.schema().num_ranking() != opened.rtree.point_dims()
            || base_rel.len() > tuples.len()
        {
            return Err(StorageError::Malformed("delta open: the relation is not the file's base"));
        }
        let (flushed_seq, file_tuples) = (tuples.flushed_seq, tuples.len() as Tid);

        // Replay the WAL, creating it when absent (the first append's
        // fsync makes the header durable with it).
        if !wal_path.exists() {
            std::fs::write(&wal_path, wal_header())?;
        }
        let mut state = replay_wal(&std::fs::read(&wal_path)?, flushed_seq)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&wal_path)?;
        if state.valid_len < WAL_HEADER_LEN as u64 {
            // Fresh (or torn-at-creation) WAL: stamp a clean header.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&wal_header())?;
            file.sync_data()?;
            state.valid_len = WAL_HEADER_LEN as u64;
        } else if state.report.torn_tail {
            // Drop the torn tail so future appends extend a clean prefix.
            file.set_len(state.valid_len)?;
            file.sync_data()?;
        }

        let metrics = opts.metrics;
        metrics.counter("delta.replay.records").add(state.report.records);
        metrics.counter("delta.replay.pending").add(state.report.pending);
        if state.report.torn_tail {
            metrics.counter("delta.replay.torn_tails").inc();
        }
        let mem_depth = metrics.gauge("delta.memtable_depth");
        mem_depth.set(state.mem.ops.len() as u64);

        let next_tid = state.next_tid.max(file_tuples);
        let writer =
            DeltaWriter { file, offset: state.valid_len, next_seq: state.next_seq, next_tid };
        Ok(Self {
            wal_len: AtomicU64::new(writer.offset),
            path,
            wal_path,
            pool_pages: opts.pool_pages,
            disk: DiskSim::with_defaults(),
            served: RwLock::new(Served { mem: state.mem, base: Arc::new(opened) }),
            generations,
            append: Mutex::new(writer),
            flush_lock: Mutex::new(()),
            faults: opts.faults,
            last_replay: state.report,
            flushes: AtomicU64::new(0),
            partials_rewritten: AtomicU64::new(0),
            nodes_reencoded: AtomicU64::new(0),
            cold_opens: AtomicU64::new(0),
            mem_depth,
            wal_bytes_ctr: metrics.counter("delta.wal_bytes"),
            appends_ctr: metrics.counter("delta.appends"),
            flush_instruments: FlushInstruments::new(&metrics),
            flush_log: QueryTrace::new(FLUSH_LOG_EVENTS),
            metrics,
        })
    }

    /// The cube file this delta layer wraps.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The WAL sibling file.
    pub fn wal_path(&self) -> &Path {
        &self.wal_path
    }

    /// The metering device serving cursors charge.
    pub fn disk(&self) -> &DiskSim {
        &self.disk
    }

    /// What replaying the WAL found when this handle opened.
    pub fn last_replay(&self) -> ReplayReport {
        self.last_replay
    }

    /// Distinct tids with a pending memtable op.
    pub fn memtable_len(&self) -> usize {
        self.served.read().unwrap().mem.ops.len()
    }

    /// Flush cycles completed by this handle.
    pub fn flushes_completed(&self) -> u64 {
        self.flushes.load(Ordering::SeqCst)
    }

    /// The base-cube generation new cursors serve.
    pub fn serving_generation(&self) -> u64 {
        self.served.read().unwrap().base.generation
    }

    /// The base cube new cursors read: the serving generation, with its
    /// buffer pool and the node cache of its lineage — pinned, like a
    /// cursor pins it, until the returned handle drops.
    pub fn serving_cube(&self) -> impl std::ops::Deref<Target = SignatureCube> {
        ServingCube(self.current())
    }

    /// The most recent flush cycles, one `delta.flush` event each, oldest
    /// first: its duration, and as fields the generation it published,
    /// the five phase times (`open_us` … `swap_us`), `writer_hold_us`
    /// (how long it held the append mutex, which inserts and deletes
    /// wait on), `carried_ops` (ops appended while it ran, whose frames
    /// moved to the new WAL), what the fold touched (`applied_ops`,
    /// `path_updates`, `cells_rewritten`, `partials_rewritten`,
    /// `nodes_reencoded`, `rtree_nodes_written`, `pages_appended`),
    /// `cold_opens` and `warm` (1 when it reused the serving generation's
    /// catalog). A cycle that failed leaves the bare event, duration only.
    pub fn flush_events(&self) -> Vec<TraceEvent> {
        self.flush_log.events()
    }

    /// Point-in-time delta-layer state.
    pub fn stats(&self) -> DeltaStats {
        let served = self.served.read().unwrap();
        DeltaStats {
            memtable_ops: served.mem.ops.len(),
            memtable_bytes: served.mem.bytes,
            wal_bytes: self.wal_len.load(Ordering::SeqCst),
            flushes: self.flushes.load(Ordering::SeqCst),
            serving_generation: served.base.generation,
            partials_rewritten: self.partials_rewritten.load(Ordering::Relaxed),
            nodes_reencoded: self.nodes_reencoded.load(Ordering::Relaxed),
            cold_opens: self.cold_opens.load(Ordering::Relaxed),
            generations_retained: self.generations.load(Ordering::Relaxed),
            last_replay: self.last_replay,
        }
    }

    /// The serving generation, pinned.
    fn current(&self) -> Arc<Generation> {
        Arc::clone(&self.served.read().unwrap().base)
    }

    /// Serves the file now under [`Self::path`] from the next query on:
    /// what follows a vacuum that swapped a compacted file in (the
    /// maintenance scheduler calls it after each vacuum it completes). A
    /// flush would elect the new file too, but an idle delta runs none.
    /// The generation is parsed off the file, so the next flush takes the
    /// cold path; the superseded one keeps its pinned cursors, minus its
    /// pool frames and node tables, whose page ids name the old file, and
    /// is freed here when no cursor pins it.
    pub(crate) fn reelect(&self) -> Result<(), StorageError> {
        let _flush = self.flush_lock.lock().expect("no flush panicked holding the flush mutex");
        let next =
            Generation::open(&self.path, self.file_options(), &self.metrics, &self.generations);
        let serving = std::mem::replace(&mut self.served.write().unwrap().base, Arc::new(next?));
        serving.cube.store().clear_cache();
        serving.cube.node_cache().clear();
        Ok(())
    }

    /// The append mutex's guard.
    fn appender(&self) -> std::sync::MutexGuard<'_, DeltaWriter> {
        self.append.lock().expect("no append or flush panicked holding the append mutex")
    }

    /// How every handle on the cube file opens: the serving pool size and
    /// the fault plan.
    fn file_options(&self) -> FileOptions {
        FileOptions { pool_pages: self.pool_pages, faults: self.faults.clone() }
    }

    /// True when the merged view can answer the plan — delegated to the
    /// serving base cube (the memtable overlay answers anything the base
    /// can).
    pub fn can_answer(&self, selection: &rcube_table::Selection, ranking_dims: &[usize]) -> bool {
        let base = &self.served.read().unwrap().base;
        base.cube.can_answer(&base.rtree, selection, ranking_dims)
    }

    /// Binds the merged view as a [`RankedSource`].
    pub fn source(&self) -> DeltaSource<'_> {
        DeltaSource { delta: self }
    }

    /// Inserts a tuple (selection values + full ranking point), returning
    /// its allocated tid. Durable in the WAL before it is visible to new
    /// cursors; visible to every cursor opened afterwards, invisible to
    /// cursors already open (they pin their snapshot). Values the cube
    /// file's schema does not admit, and a ranking value that is NaN or
    /// infinite (it has no place in the ascending score order), are
    /// [`StorageError::Malformed`] and append nothing.
    pub fn insert(&self, sel: &[u32], point: &[f64]) -> Result<Tid, StorageError> {
        let base = self.current();
        let cards = base.cube.tuples.cards();
        if sel.len() != cards.len() {
            return Err(StorageError::Malformed("insert: wrong selection arity"));
        }
        if point.len() != base.rtree.point_dims() {
            return Err(StorageError::Malformed("insert: wrong ranking arity"));
        }
        if sel.iter().zip(cards).any(|(&v, &c)| v >= c) {
            return Err(StorageError::Malformed("insert: selection value out of domain"));
        }
        if !point.iter().all(|p| p.is_finite()) {
            return Err(StorageError::Malformed("insert: ranking value not finite"));
        }
        let mut w = self.appender();
        let seq = w.next_seq;
        let tid = w.next_tid;
        let mut payload = Vec::new();
        encode_upsert(&mut payload, seq, tid, sel, point);
        let appended = w.append(&payload, self.faults.as_ref())?;
        w.next_seq += 1;
        w.next_tid += 1;
        self.wal_len.store(w.offset, Ordering::SeqCst);
        self.wal_bytes_ctr.add(appended);
        self.appends_ctr.inc();
        let mem = &mut self.served.write().unwrap().mem;
        mem.put(tid, seq, MemOp::Upsert { sel: sel.to_vec(), point: point.to_vec() });
        self.mem_depth.set(mem.ops.len() as u64);
        Ok(tid)
    }

    /// Deletes a tuple by tid — a base tuple, a flushed delta tuple, or
    /// a pending insert. Idempotent; deleting a tid that was never
    /// allocated is a typed error.
    pub fn delete(&self, tid: Tid) -> Result<(), StorageError> {
        let mut w = self.appender();
        if tid >= w.next_tid {
            return Err(StorageError::Malformed("delete: tid was never allocated"));
        }
        let seq = w.next_seq;
        let mut payload = Vec::new();
        encode_delete(&mut payload, seq, tid);
        let appended = w.append(&payload, self.faults.as_ref())?;
        w.next_seq += 1;
        self.wal_len.store(w.offset, Ordering::SeqCst);
        self.wal_bytes_ctr.add(appended);
        self.appends_ctr.inc();
        let mem = &mut self.served.write().unwrap().mem;
        mem.put(tid, seq, MemOp::Delete);
        self.mem_depth.set(mem.ops.len() as u64);
        Ok(())
    }

    /// Folds `snapshot`'s ops above the file's `flushed_seq` into the
    /// writable base handle: every R-tree insert/delete first, their update
    /// sets coalesced per tid, then one [`apply_path_updates`] over the net
    /// set — each touched cell is rewritten once ([`crate::maintain`]
    /// argues why that equals the per-op application), and each inserted
    /// tuple's selection values enter the file's column. Returns the
    /// report's fold counts (`applied_ops` … `nodes_reencoded`).
    fn fold_snapshot(
        &self,
        cube: &mut SignatureCube,
        rtree: &mut RTree,
        snapshot: &MemOps,
    ) -> Result<FlushReport, StorageError> {
        // Ops at or below it are in the file already: a flush committed
        // them and failed before it could prune the memtable.
        let folded = cube.tuples.flushed_seq;
        let mut batch = PathUpdateBatch::new();
        let mut applied_ops = 0usize;
        for (&tid, Logged { seq, op }) in snapshot {
            if *seq <= folded {
                continue;
            }
            let updates = match op {
                MemOp::Upsert { point, .. } => {
                    if rtree.tuple_path(tid).is_some() {
                        return Err(StorageError::Malformed("delta flush: insert of a stored tid"));
                    }
                    rtree.insert(&self.disk, tid, point.clone())
                }
                // Deleting a tuple the base never held is a no-op.
                MemOp::Delete => rtree.delete(&self.disk, tid),
            };
            if !updates.is_empty() {
                applied_ops += 1;
                batch.extend(updates);
            }
        }
        let updates = batch.into_updates();
        // Resolve each moved tuple's selection values once, up front — the
        // snapshot's upsert, else the file's column — so a tid with neither
        // fails typed before any cell is rewritten.
        let mut selections: HashMap<Tid, Vec<u32>> = HashMap::with_capacity(updates.len());
        for u in &updates {
            let sel = match snapshot.get(&u.tid) {
                Some(Logged { op: MemOp::Upsert { sel, .. }, .. }) => Some(sel.clone()),
                _ => cube.tuples.get(u.tid),
            };
            let sel = sel.ok_or(StorageError::Malformed(
                "delta flush: no selection values for a moved tuple",
            ))?;
            selections.insert(u.tid, sel);
        }
        let spliced = apply_path_updates(cube, &updates, |t| selections[&t].clone(), &self.disk)?;
        Ok(FlushReport {
            applied_ops,
            path_updates: updates.len(),
            cells_rewritten: spliced.cells_rewritten,
            partials_rewritten: spliced.partials_rewritten,
            nodes_reencoded: spliced.nodes_reencoded,
            ..FlushReport::default()
        })
    }

    /// Folds the memtable into the base cube and drops the folded frames
    /// from the WAL — one LSM merge cycle (module docs list the
    /// crash-ordering argument).
    /// Inserts and deletes go on while it runs: they wait only while the
    /// cycle snapshots the memtable and while it hands the WAL over
    /// ([`FlushReport::writer_hold_us`]), and what they append mid-cycle
    /// stays in the memtable for the next flush. Readers never wait, and
    /// cursors already open keep serving the generation they pinned.
    ///
    /// Fails with [`StorageError::WriterLocked`] when another writer
    /// (e.g. a concurrent vacuum) holds the cube file's advisory lock —
    /// the scheduler counts that as contention and retries later.
    pub fn flush(&self) -> Result<FlushReport, StorageError> {
        let start = Instant::now();
        let _flush = self.flush_lock.lock().expect("no flush panicked holding the flush mutex");
        // The snapshot: every op logged at or below `snapshot_seq` is in
        // it, and every WAL byte past `tail_from` was appended after it.
        let (snapshot, snapshot_seq, tail_from, mut writer_hold) = {
            let w = self.appender();
            let held = Instant::now();
            let ops = Arc::clone(&self.served.read().unwrap().mem.ops);
            (ops, w.next_seq - 1, w.offset, held.elapsed())
        };
        if snapshot.is_empty() {
            return Ok(FlushReport {
                generation: self.serving_generation(),
                duration: start.elapsed(),
                writer_hold_us: writer_hold.as_micros() as u64,
                ..FlushReport::default()
            });
        }
        let event = self.flush_log.span("delta.flush");
        let mut mark = Instant::now();
        let mut lap = || {
            let now = Instant::now();
            let us = now.duration_since(mark).as_micros() as u64;
            mark = now;
            us
        };

        // 1. A writable handle on the base (acquires the advisory writer
        //    lock). When the file under the lock is the very file and
        //    generation the serving handle was published at, that handle's
        //    directory and R-tree *are* the stored catalog: clone them (one
        //    pointer per R-tree node) instead of parsing it, and write
        //    through its node cache, staging what the fold hands over.
        let store = PageStore::open_file_writable(&self.path, self.file_options())?;
        // The fold's own partial reads, apart from what queries read
        // (attachment is once per store: `set_metrics` below leaves it).
        store.attach_metrics(&self.metrics, "delta.flush");
        let opened = store.file_stamp();
        let serving = self.current();
        let warm = matches!(
            (&serving.published, &opened),
            (Some(published), Some(opened)) if published.same_publication(opened)
        );
        let (mut cube, mut rtree) = if warm {
            (serving.cube.clone_onto(store), serving.rtree.clone())
        } else {
            SignatureCube::open_store(store)?
        };
        cube.set_metrics(self.metrics.clone());
        let open_us = lap();

        // 2. Fold the snapshot in via incremental maintenance, commit it
        //    as folded up to its last seq.
        let fold = self.fold_snapshot(&mut cube, &mut rtree, &snapshot)?;
        let fold_us = lap();
        cube.tuples.flushed_seq = snapshot_seq;
        let Committed { generation, rtree_nodes_written } = cube.commit(&mut rtree)?;
        // A scripted page-level crash hit during the fold, the commit or an
        // append made since the snapshot: the in-process state is a lie,
        // and the disk kept the old WAL.
        self.die_if_crashed()?;
        let committed = cube.store().file_stamp();
        let pages_appended = (opened.as_ref().zip(committed.as_ref()))
            .map_or(0, |(before, after)| after.page_count.saturating_sub(before.page_count));
        let commit_us = lap();

        // 3. The next serving handle: a fresh read-only store, opened while
        //    the writer lock is still held, under the directory and R-tree
        //    just committed. Everything that can fail on the way to the
        //    swap fails here, before the WAL moves. (Dropping the writable
        //    store inside `move_onto` releases the lock.)
        let read_store = PageStore::open_file(&self.path, self.file_options())?;
        let (mut cube, rtree, published) = match (committed, read_store.file_stamp()) {
            (Some(committed), Some(reopened)) if committed.same_publication(&reopened) => {
                (cube.move_onto(read_store), rtree, Some(committed))
            }
            // No file identity on this platform: parse what was committed.
            _ => {
                drop((cube, rtree));
                let (cube, rtree) = SignatureCube::open_store(read_store)?;
                (cube, rtree, None)
            }
        };
        cube.set_metrics(self.metrics.clone());
        let mut next = Generation::new(cube, rtree, generation, published, &self.generations);
        let mut swap_us = lap();

        // 4. The hand-over, under the append mutex: a new WAL of the
        //    header and the frames appended since the snapshot — their seqs
        //    all follow it — written to a temp file, fsynced and renamed
        //    over the old one.
        let mut w = self.appender();
        let held = Instant::now();
        // A crash scripted on an append made since the commit: the
        // process is dead, so it renames nothing.
        self.die_if_crashed()?;
        if let Some(plan) = &self.faults {
            plan.on_swap(SwapStage::TempWrite).map_err(StorageError::Io)?;
        }
        let mut image = wal_header().to_vec();
        image.resize(WAL_HEADER_LEN + (w.offset - tail_from) as usize, 0);
        w.file.seek(SeekFrom::Start(tail_from))?;
        w.file.read_exact(&mut image[WAL_HEADER_LEN..])?;
        let temp = sibling(&self.wal_path, ".new");
        // Opened read+write: once renamed over the WAL this descriptor *is*
        // the WAL (it follows the inode), so it becomes the append handle
        // without the path being opened again.
        let mut temp_file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(&temp)?;
        temp_file.write_all(&image)?;
        // fsync + atomic rename, with the scripted TempSync/Rename crash
        // points — the vacuum's publish protocol up to the rename.
        FileBackend::swap_in(&temp, &self.wal_path, self.faults.as_ref())?;

        // 5. The rename happened. Nothing from here to the end of the
        //    in-process swap can fail. The directory fsync is done before an
        //    append can land in the new inode; its failure only gates the
        //    report. Appends go to the new WAL, and the serving generation
        //    and the memtable change in one critical section — a concurrent
        //    open sees old+full or new+carried, never a mix. Open cursors
        //    ride their pinned generation. The node tables the fold staged become
        //    visible here and no earlier: until now the commit could still
        //    have been abandoned, and the next attempt writes other bytes
        //    under the same page ids.
        let dir_synced = FileBackend::sync_parent_dir(&self.wal_path);
        w.file = temp_file;
        w.offset = image.len() as u64;
        let carried_ops = w.next_seq - 1 - snapshot_seq;
        let wal_us = lap();
        next.cube.publish_hand_over();
        let cache_moved_on = std::ptr::eq(serving.cube.node_cache(), next.cube.node_cache());
        {
            let mut served = self.served.write().unwrap();
            served.base = Arc::new(next);
            served.mem.prune(snapshot_seq);
            self.mem_depth.set(served.mem.ops.len() as u64);
        }
        self.wal_len.store(w.offset, Ordering::SeqCst);
        drop(w);
        writer_hold += held.elapsed();
        // The superseded generation lives on only in the cursors still
        // pinning it. Its pool stops holding frames nobody new will read
        // (cursors keep the `Arc` frames they hold and re-read the rest on
        // demand). Its node cache goes the same way only when the new
        // generation started one of its own (a cold flush); on the warm
        // path both serve out of the same one. Unpinned, it is freed here,
        // outside both mutexes: directory, R-tree copy, pool, descriptor.
        serving.cube.store().clear_cache();
        if !cache_moved_on {
            serving.cube.node_cache().clear();
        }
        drop(serving);
        swap_us += lap();

        let report = FlushReport {
            generation,
            duration: start.elapsed(),
            pages_appended,
            rtree_nodes_written,
            cold_opens: u64::from(!warm),
            writer_hold_us: writer_hold.as_micros() as u64,
            carried_ops,
            ..fold
        };
        self.flushes.fetch_add(1, Ordering::SeqCst);
        self.partials_rewritten.fetch_add(report.partials_rewritten as u64, Ordering::Relaxed);
        self.nodes_reencoded.fetch_add(report.nodes_reencoded as u64, Ordering::Relaxed);
        self.cold_opens.fetch_add(report.cold_opens, Ordering::Relaxed);
        let ins = &self.flush_instruments;
        ins.flushes.inc();
        ins.duration.record(report.duration.as_micros() as u64);
        let mut event = event
            .record("generation", generation as f64)
            .record("warm", f64::from(u8::from(warm)))
            .record("applied_ops", report.applied_ops as f64)
            .record("carried_ops", carried_ops as f64)
            .record("pages_appended", pages_appended as f64);
        let phases = [open_us, fold_us, commit_us, wal_us, swap_us, report.writer_hold_us];
        for ((name, hist), us) in FLUSH_PHASES.into_iter().zip(&ins.phases).zip(phases) {
            hist.record(us);
            event = event.record(name, us as f64);
        }
        let counts = [
            report.path_updates,
            report.cells_rewritten,
            report.partials_rewritten,
            report.nodes_reencoded,
            rtree_nodes_written,
            report.cold_opens as usize,
        ];
        for ((name, counter), n) in FLUSH_COUNTS.into_iter().zip(&ins.counts).zip(counts) {
            counter.add(n as u64);
            event = event.record(name, n as f64);
        }
        event.finish();
        // The state above matches the namespace whether or not the rename
        // is durable yet; only the report waits on the directory.
        dir_synced?;
        Ok(report)
    }

    /// Dies like the process would once the fault script's crash point has
    /// passed: everything it did since is a lie the disk never saw.
    fn die_if_crashed(&self) -> Result<(), StorageError> {
        if self.faults.as_ref().is_some_and(|p| p.crashed()) {
            return Err(StorageError::Io(std::io::Error::other(
                "injected crash during delta flush",
            )));
        }
        Ok(())
    }
}

/// The merged base+overlay view bound as a [`RankedSource`] — `Copy`
/// per-query handle, like every other engine's source.
#[derive(Clone, Copy)]
pub struct DeltaSource<'a> {
    delta: &'a DeltaCube,
}

impl std::fmt::Debug for DeltaSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaSource").finish()
    }
}

impl<'a> RankedSource<'a> for DeltaSource<'a> {
    fn open(&self, plan: &QueryPlan<'a>) -> Result<TopKCursor<'a>, StorageError> {
        let delta = self.delta;
        // Pin overlay + generation under the memtable read lock: flush
        // swaps both inside the write lock, so the pair is consistent — the
        // pin this cursor keeps for its lifetime.
        let (ops, generation) = {
            let served = delta.served.read().unwrap();
            (Arc::clone(&served.mem.ops), Arc::clone(&served.base))
        };
        let conds = plan.selection.conds();
        let mut mem_items: Vec<(Tid, f64)> = Vec::new();
        let mut pt = Vec::new(); // grown by the first matching upsert, if any
        for (&tid, Logged { op, .. }) in ops.iter() {
            if let MemOp::Upsert { sel, point } = op {
                if conds.iter().all(|&(d, v)| sel.get(d) == Some(&v)) {
                    pt.clear();
                    pt.extend(plan.ranking_dims.iter().map(|&d| point[d]));
                    mem_items.push((tid, plan.func.score(&pt)));
                }
            }
        }
        mem_items.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let base = SigState::open(&generation.cube, &generation.rtree, &delta.disk, plan)?;
        let mem_scored = mem_items.len() as u64;
        let search = DeltaSearch {
            generation,
            disk: &delta.disk,
            base,
            base_done: false,
            pending_base: None,
            mem: mem_items,
            mem_pos: 0,
            ops,
            mem_scored,
            mem_emitted: 0,
            base_emitted: 0,
            masked: 0,
        };
        Ok(TopKCursor::new(Box::new(search), plan.k))
    }
}

/// The three-way certified merge: base search + overlay drain, masking
/// deleted/superseded base tids. Both inputs emit ascending `(score,
/// tid)`, so the merge emits certified answers in the same order — and
/// because the overlay snapshot and the base generation are pinned at
/// open, `extend_k` keeps answering the open-time state across flushes.
struct DeltaSearch<'a> {
    /// The base generation pinned at open. The search owns this clone, so
    /// the generation outlives the flush that supersedes it for as long as
    /// the cursor does, and no longer.
    generation: Arc<Generation>,
    disk: &'a DiskSim,
    /// The signature search over `generation`, handed it at every step.
    base: SigState<'a>,
    base_done: bool,
    pending_base: Option<(Tid, f64)>,
    mem: Vec<(Tid, f64)>,
    mem_pos: usize,
    /// The memtable as pinned at open: a base answer whose tid has an op
    /// here is superseded (updated or deleted) and must not surface.
    ops: Arc<MemOps>,
    mem_scored: u64,
    mem_emitted: u64,
    base_emitted: u64,
    masked: u64,
}

impl DeltaSearch<'_> {
    /// Refills the one-answer base lookahead, skipping masked tids.
    fn refill_base(&mut self) -> Result<(), StorageError> {
        while self.pending_base.is_none() && !self.base_done {
            let base = &*self.generation;
            match self.base.advance(Some(&base.cube), &base.rtree, self.disk)? {
                Some((tid, score)) => {
                    if self.ops.contains_key(&tid) {
                        self.masked += 1;
                    } else {
                        self.pending_base = Some((tid, score));
                    }
                }
                None => self.base_done = true,
            }
        }
        Ok(())
    }
}

impl ProgressiveSearch for DeltaSearch<'_> {
    fn advance(&mut self) -> Result<Option<(Tid, f64)>, StorageError> {
        self.refill_base()?;
        let mem_head = self.mem.get(self.mem_pos).copied();
        match (self.pending_base, mem_head) {
            (Some((bt, bs)), Some((mt, ms))) => {
                if bs.total_cmp(&ms).then(bt.cmp(&mt)).is_le() {
                    self.pending_base = None;
                    self.base_emitted += 1;
                    Ok(Some((bt, bs)))
                } else {
                    self.mem_pos += 1;
                    self.mem_emitted += 1;
                    Ok(Some((mt, ms)))
                }
            }
            (Some((bt, bs)), None) => {
                self.pending_base = None;
                self.base_emitted += 1;
                Ok(Some((bt, bs)))
            }
            (None, Some((mt, ms))) => {
                self.mem_pos += 1;
                self.mem_emitted += 1;
                Ok(Some((mt, ms)))
            }
            (None, None) => Ok(None),
        }
    }

    fn stats(&self) -> QueryStats {
        let mut s = self.base.stats(self.disk);
        s.tuples_scored += self.mem_scored;
        s.delta_mem_answers = self.mem_emitted;
        s.delta_base_answers = self.base_emitted;
        s.delta_masked = self.masked;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use crate::sigcube::SignatureCubeConfig;
    use rcube_func::Linear;
    use rcube_index::rtree::RTreeConfig;
    use rcube_index::HierIndex;
    use rcube_table::gen::SyntheticSpec;
    use rcube_table::RelationBuilder;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rcube_delta_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(wal_path_for(&p));
        p
    }

    fn cleanup(p: &Path) {
        let _ = std::fs::remove_file(p);
        let _ = std::fs::remove_file(wal_path_for(p));
    }

    fn build_base(rel: &Relation, path: &Path) {
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, rel, &[], RTreeConfig::small(16));
        let cube = SignatureCube::build(rel, &rtree, &disk, SignatureCubeConfig::default());
        cube.save_to_with(&rtree, path, 512, 64).expect("save base cube");
    }

    fn render(items: &[(Tid, f64)]) -> Vec<String> {
        items.iter().map(|(t, s)| format!("{t}:{:016x}", s.to_bits())).collect()
    }

    /// Top-k answers from a from-scratch signature cube over `rel`.
    fn rebuilt_answers(rel: &Relation, q: &Query) -> Vec<(Tid, f64)> {
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, rel, &[], RTreeConfig::small(16));
        let cube = SignatureCube::build(rel, &rtree, &disk, SignatureCubeConfig::default());
        let plan = q.plan();
        let items = cube.source(&rtree, &disk).open(&plan).unwrap().try_drain().unwrap().items;
        items
    }

    #[test]
    fn merged_view_matches_rebuilt_cube() {
        let full = SyntheticSpec { tuples: 360, cardinality: 4, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("merge");
        build_base(&base, &path);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();

        // Insert the remaining 60 tuples and delete 10 base tuples.
        for tid in 300..360u32 {
            let sel: Vec<u32> =
                (0..full.schema().num_selection()).map(|d| full.selection_value(tid, d)).collect();
            let got = delta.insert(&sel, &full.ranking_point(tid)).unwrap();
            assert_eq!(got, tid, "tids allocate densely from the base length");
        }
        for tid in 0..10u32 {
            delta.delete(tid).unwrap();
        }

        // Logical relation after the ops: tuples 10..360.
        let logical = {
            let mut b = rcube_table::RelationBuilder::new(full.schema().clone());
            for t in 0..360u32 {
                if t >= 10 {
                    let sel: Vec<u32> = (0..full.schema().num_selection())
                        .map(|d| full.selection_value(t, d))
                        .collect();
                    b.push(&sel, &full.ranking_point(t));
                }
            }
            b.finish()
        };
        // Tids shift in the rebuilt relation; compare scores only (the
        // full tid-level identity is covered by the masked-set check).
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(15);
        let merged = delta.source().open(&q.plan()).unwrap().try_drain().unwrap();
        let rebuilt = rebuilt_answers(&logical, &q);
        let ms: Vec<u64> = merged.items.iter().map(|(_, s)| s.to_bits()).collect();
        let rs: Vec<u64> = rebuilt.iter().map(|(_, s)| s.to_bits()).collect();
        assert_eq!(ms, rs, "merged scores must be byte-identical to a rebuilt cube");
        // No deleted tid may surface anywhere in a deep drain.
        let deep = Query::select([]).rank(Linear::uniform(2)).top(400);
        let all = delta.source().open(&deep.plan()).unwrap().try_drain().unwrap();
        assert_eq!(all.items.len(), 350);
        assert!(all.items.iter().all(|&(t, _)| t >= 10), "deleted tids masked");
        cleanup(&path);
    }

    #[test]
    fn flush_preserves_answers_and_empties_memtable() {
        let full = SyntheticSpec { tuples: 340, cardinality: 4, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("flush");
        build_base(&base, &path);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        for tid in 300..340u32 {
            let sel: Vec<u32> =
                (0..full.schema().num_selection()).map(|d| full.selection_value(tid, d)).collect();
            delta.insert(&sel, &full.ranking_point(tid)).unwrap();
        }
        delta.delete(5).unwrap();
        let q = Query::select([(0, 2)]).rank(Linear::uniform(2)).top(12);
        let before = delta.source().open(&q.plan()).unwrap().try_drain().unwrap();

        let report = delta.flush().unwrap();
        assert_eq!(report.applied_ops, 41);
        assert_eq!(delta.memtable_len(), 0, "flush empties the memtable");
        assert_eq!(delta.flushes_completed(), 1);

        let after = delta.source().open(&q.plan()).unwrap().try_drain().unwrap();
        assert_eq!(render(&before.items), render(&after.items), "flush is answer-neutral");
        // All answers now come from the base, none from the overlay.
        assert_eq!(after.stats.delta_mem_answers, 0);
        assert!(after.stats.delta_base_answers > 0);
        cleanup(&path);
    }

    #[test]
    fn cursor_pins_its_generation_across_a_flush() {
        let full = SyntheticSpec { tuples: 390, cardinality: 4, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("pin");
        build_base(&base, &path);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        for tid in 300..330u32 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        // A selective query, so the cursor probes signatures through the
        // generation's buffer pool and the node cache.
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(6);
        let q12 = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(400);
        let fresh = delta.source().open(&q12.plan()).unwrap().try_drain().unwrap().items;

        let mut cursor = delta.source().open(&q.plan()).unwrap();
        let mut got: Vec<_> = std::iter::from_fn(|| cursor.try_next().unwrap()).collect();
        assert_eq!(got.len(), 6);

        // Three flushes mid-session (same thread: all shared borrows), each
        // followed by more ingest — the paused cursor must see none of it,
        // and keeps streaming its generation a few answers at a time.
        let pinned = delta.serving_cube();
        assert!(pinned.pool_stats().unwrap().used_pages() > 0, "the cursor warmed its pool");
        assert!(pinned.node_cache().stats().entries > 0);
        for round in 0..3u32 {
            delta.flush().unwrap();
            // A superseded generation drops its pool frames at the swap; the
            // pinned cursor re-reads what it still needs.
            assert_eq!(pinned.pool_stats().unwrap().used_pages(), 0, "retired pool holds no pages");
            for tid in round * 3..round * 3 + 3 {
                delta.delete(tid).unwrap();
            }
            for tid in 330 + round * 20..350 + round * 20 {
                delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
            }
            cursor.extend_k(4);
            got.extend(std::iter::from_fn(|| cursor.try_next().unwrap()));
            delta.current().cube.assert_node_cache_matches_file();
        }
        cursor.extend_k(400);
        got.extend(std::iter::from_fn(|| cursor.try_next().unwrap()));
        assert_eq!(
            render(&got),
            render(&fresh),
            "extend_k across flushes answers the open-time state"
        );
        drop(cursor);
        cleanup(&path);
    }

    #[test]
    fn a_generation_leaves_with_its_last_cursor() {
        let full = SyntheticSpec { tuples: 420, cardinality: 4, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("retained");
        build_base(&base, &path);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        let retained = || delta.stats().generations_retained;
        let mut next: Tid = 300;
        let mut ingest_and_flush = |n: Tid| {
            for tid in next..next + n {
                delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
            }
            next += n;
            delta.flush().unwrap()
        };
        assert_eq!(retained(), 1);
        let q = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(5);
        let deep = Query::select([(0, 1)]).rank(Linear::uniform(2)).top(400);
        let open_time = delta.source().open(&deep.plan()).unwrap().try_drain().unwrap().items;

        // A cursor on generation g, paused after five answers.
        let mut first = delta.source().open(&q.plan()).unwrap();
        let mut got: Vec<_> = first.by_ref().collect();
        assert_eq!(got.len(), 5);
        ingest_and_flush(10);
        assert_eq!(retained(), 2, "g pinned, g + 1 serving");
        // Two cursors on g + 1: one more generation pinned, not two.
        let second = delta.source().open(&q.plan()).unwrap();
        let third = delta.source().open(&q.plan()).unwrap();
        ingest_and_flush(10);
        assert_eq!(retained(), 3, "g and g + 1 pinned, g + 2 serving");
        // A third flush: the generation it retires is pinned by nobody.
        ingest_and_flush(10);
        assert_eq!(retained(), 3, "g and g + 1 pinned, g + 3 serving");
        drop(second);
        assert_eq!(retained(), 3, "g + 1 is still pinned by the third cursor");
        drop(third);
        assert_eq!(retained(), 2, "g + 1 left with its last cursor");

        // Three flushes retired g from the slot; its cursor drains on.
        first.extend_k(400);
        got.extend(first.by_ref());
        assert_eq!(render(&got), render(&open_time), "the open-time answer, byte for byte");
        drop(first);
        assert_eq!(retained(), 1, "only the serving generation is left");
        assert_eq!(ingest_and_flush(10).cold_opens, 0);
        assert_eq!(retained(), 1);
        drop(delta);
        cleanup(&path);
    }

    #[test]
    fn the_node_cache_stays_bounded_over_fifty_flushes() {
        // No cursor pinned: what the cache holds after any number of warm
        // flushes is the partials the directory serves plus the ones the
        // last flush retired — never a trail of old generations; and the
        // only generation alive is the one serving.
        let full = SyntheticSpec { tuples: 500, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("bounded");
        build_base(&base, &path);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        let (mut retired_by_last, mut stored_before) = (0, 0);
        for round in 0..50u32 {
            for tid in 300 + round * 4..304 + round * 4 {
                delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
            }
            delta.delete(round * 2).unwrap();
            for q in fold_queries() {
                delta.source().open(&q.plan()).unwrap().try_drain().unwrap();
            }
            let report = delta.flush().unwrap();
            assert_eq!(report.cold_opens, 0, "round {round}: warm from the first flush on");
            assert_eq!(delta.stats().generations_retained, 1, "round {round}");
            let cube = &delta.current().cube;
            let (tables, nodes) = cube.assert_node_cache_matches_file();
            let served: usize = cube
                .cuboid_dims()
                .iter()
                .flat_map(|dims| (0..3).filter_map(|v| cube.cell_signature(dims, &[v])))
                .map(|stored| stored.num_partials())
                .sum();
            assert!(
                tables <= served + retired_by_last.max(report.partials_rewritten),
                "round {round}: {tables} tables for {served} served partials"
            );
            let stored_nodes: usize = cell_nodes(cube).values().map(|cell| cell.len()).sum();
            // Entries: the nodes stored now, plus — in the retired tables,
            // mostly the same `Arc`s — the ones stored a generation ago.
            assert!(nodes <= stored_nodes + stored_before, "round {round}: {nodes} entries");
            assert!(cube.node_cache().stats().entries <= stored_nodes, "round {round}");
            (retired_by_last, stored_before) = (report.partials_rewritten, stored_nodes);
        }
        let dropped: Vec<Tid> = (0..50).map(|round| round * 2).collect();
        assert_answers_like_logical(&delta, &full, 500, &dropped);
        drop(delta);
        cleanup(&path);
    }

    #[test]
    fn wal_replay_restores_the_memtable() {
        let full = SyntheticSpec { tuples: 320, cardinality: 4, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("replay");
        build_base(&base, &path);
        let q = Query::select([]).rank(Linear::uniform(2)).top(10);
        let before = {
            let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
            for tid in 300..320u32 {
                let sel: Vec<u32> = (0..full.schema().num_selection())
                    .map(|d| full.selection_value(tid, d))
                    .collect();
                delta.insert(&sel, &full.ranking_point(tid)).unwrap();
            }
            delta.delete(7).unwrap();
            let items = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
            items
        };
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        let replay = delta.last_replay();
        assert_eq!(replay.pending, 21, "every append replays");
        assert!(!replay.torn_tail);
        assert_eq!(delta.memtable_len(), 21);
        let after = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
        assert_eq!(render(&before), render(&after), "replay restores the merged view");

        // Flush, reopen: the cube file holds what was pending, the WAL
        // nothing but its header.
        delta.flush().unwrap();
        drop(delta);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        let replay = delta.last_replay();
        assert_eq!((replay.records, replay.pending), (0, 0));
        assert_eq!(delta.stats().wal_bytes, WAL_HEADER_LEN as u64);
        assert_eq!(delta.memtable_len(), 0);
        let final_items = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
        assert_eq!(render(&before), render(&final_items));
        cleanup(&path);
    }

    #[test]
    fn torn_tail_truncates_and_body_corruption_errors() {
        let full = SyntheticSpec { tuples: 310, cardinality: 4, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("torn");
        build_base(&base, &path);
        {
            let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
            for tid in 300..310u32 {
                let sel: Vec<u32> = (0..full.schema().num_selection())
                    .map(|d| full.selection_value(tid, d))
                    .collect();
                delta.insert(&sel, &full.ranking_point(tid)).unwrap();
            }
        }
        let wal = wal_path_for(&path);
        let bytes = std::fs::read(&wal).unwrap();

        // Torn tail: drop the last 5 bytes — replay keeps 9 of 10 ops.
        std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        assert!(delta.last_replay().torn_tail);
        assert_eq!(delta.last_replay().pending, 9);
        assert_eq!(delta.memtable_len(), 9);
        drop(delta);

        // Body corruption: flip a byte inside the *first* record's
        // payload (more data follows) — typed error, never a guess.
        let mut corrupt = bytes.clone();
        corrupt[WAL_HEADER_LEN + 12] ^= 0x40;
        std::fs::write(&wal, &corrupt).unwrap();
        match DeltaCube::open(&path, base.clone(), DeltaOptions::default()) {
            Err(StorageError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        cleanup(&path);
    }

    // ---- fold equivalence: spliced ≡ whole-cell ≡ per-op ≡ rebuilt -------

    /// One step of a generated ingest history. Delete indices are taken
    /// modulo the respective population, so every generated step is valid.
    #[derive(Debug, Clone)]
    enum Step {
        Insert {
            sel: Vec<u32>,
            point: Vec<f64>,
        },
        DeleteBase(usize),
        DeleteFlushed(usize),
        DeletePending(usize),
        /// Deletes every live tuple whose selection dimension `.0` holds
        /// value `.1`: the next flush empties that cell.
        DeleteWhere(usize, u32),
        Flush,
        /// A flush that dies between the cube commit and the WAL hand-over,
        /// then a reopen: replay skips every frame the commit folded.
        CrashedFlush,
    }

    const FOLD_BASE: usize = 48;
    const FOLD_CARD: u32 = 3;

    /// `alpha` cuts the cells: the default leaves one partial each, a tiny
    /// one a node or two per partial, so node drops empty whole partials.
    fn fold_base_file(path: &Path, alpha: f64) -> Relation {
        let rel = SyntheticSpec { tuples: FOLD_BASE, cardinality: FOLD_CARD, ..Default::default() }
            .generate();
        let disk = DiskSim::with_defaults();
        // Fanout 6 / min 2: a handful of inserts cascades splits up to a
        // new root, a handful of deletes underflows a leaf.
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(6));
        let config = SignatureCubeConfig { alpha, cuboids: None };
        let cube = SignatureCube::build(&rel, &rtree, &disk, config);
        cube.save_to_with(&rtree, path, 512, 64).expect("save base cube");
        rel
    }

    /// The model's `Memtable::put` of a tombstone.
    fn tombstone(pending: &mut BTreeMap<Tid, MemOp>, tid: Tid) {
        pending.insert(tid, MemOp::Delete);
    }

    /// Selection values as the model knows them: the snapshot's own, then a
    /// flushed delta tuple's, then the base relation's.
    fn model_selection<'a>(
        base: &'a Relation,
        snapshot: &'a BTreeMap<Tid, MemOp>,
        applied: &'a BTreeMap<Tid, Vec<u32>>,
    ) -> impl Fn(Tid) -> Vec<u32> + Copy + 'a {
        move |t| match (snapshot.get(&t), applied.get(&t)) {
            (Some(MemOp::Upsert { sel, .. }), _) | (_, Some(sel)) => sel.clone(),
            _ => (0..base.schema().num_selection()).map(|d| base.selection_value(t, d)).collect(),
        }
    }

    /// The per-op fold `DeltaCube::flush` replaced, kept as the reference:
    /// one `apply_path_updates` per R-tree operation, in snapshot order,
    /// straight onto the twin cube file.
    fn fold_per_op(
        path: &Path,
        base: &Relation,
        snapshot: &BTreeMap<Tid, MemOp>,
        applied: &BTreeMap<Tid, Vec<u32>>,
    ) {
        let disk = DiskSim::with_defaults();
        let (mut cube, mut rtree) = SignatureCube::open_writable(path, 64).unwrap();
        let sel_of = model_selection(base, snapshot, applied);
        for (&tid, op) in snapshot {
            let updates = rtree.delete(&disk, tid);
            apply_path_updates(&mut cube, &updates, sel_of, &disk).unwrap();
            if let MemOp::Upsert { point, .. } = op {
                let updates = rtree.insert(&disk, tid, point.clone());
                apply_path_updates(&mut cube, &updates, sel_of, &disk).unwrap();
            }
        }
        cube.commit(&mut rtree).unwrap();
    }

    /// The fold `DeltaCube::flush` runs, with the whole-cell Algorithm 2 in
    /// place of the splice: the same R-tree operations, the same net update
    /// set, every touched cell loaded, edited and re-encoded whole.
    fn fold_whole_cell(
        path: &Path,
        base: &Relation,
        snapshot: &BTreeMap<Tid, MemOp>,
        applied: &BTreeMap<Tid, Vec<u32>>,
    ) {
        let disk = DiskSim::with_defaults();
        let (mut cube, mut rtree) = SignatureCube::open_writable(path, 64).unwrap();
        let sel_of = model_selection(base, snapshot, applied);
        let mut batch = PathUpdateBatch::new();
        for (&tid, op) in snapshot {
            let mut updates = rtree.delete(&disk, tid);
            if let MemOp::Upsert { point, .. } = op {
                updates.extend(rtree.insert(&disk, tid, point.clone()));
            }
            batch.extend(updates);
        }
        let updates = batch.into_updates();
        crate::maintain::apply_path_updates_whole_cell(&mut cube, &updates, sel_of, &disk).unwrap();
        cube.commit(&mut rtree).unwrap();
    }

    /// Every cell's stored nodes (`SignatureCube::cell_nodes`), after
    /// checking the catalog invariants the splice must leave.
    type CellNodes = BTreeMap<(Vec<usize>, u32), crate::sigcube::StoredNodes>;

    fn cell_nodes(cube: &SignatureCube) -> CellNodes {
        let page = DiskSim::with_defaults().page_size();
        let mut out = BTreeMap::new();
        for dims in cube.cuboid_dims() {
            for v in 0..FOLD_CARD {
                if cube.cell_signature(&dims, &[v]).is_some() {
                    cube.assert_cell_wellformed(&dims, &[v], Some(page));
                    out.insert((dims.clone(), v), cube.cell_nodes(&dims, &[v]));
                }
            }
        }
        out
    }

    /// `(cuboid dims, cell values)` → the cell's tuple paths, sorted.
    type CellPathSets = BTreeMap<(Vec<usize>, Vec<u32>), Vec<Vec<u16>>>;

    /// Every cell of every cuboid as a sorted path set.
    ///
    /// Compared on path sets, not on partial bytes: a node's
    /// `PackedBits::len` keeps trailing zeros from whichever slot was once
    /// set and later cleared, so two folds that reach the same cell by
    /// different op orders may encode a different recorded length for the
    /// same set bits.
    fn cell_path_sets(cube: &SignatureCube) -> CellPathSets {
        let disk = DiskSim::with_defaults();
        let mut out = BTreeMap::new();
        for dims in cube.cuboid_dims() {
            for v in 0..FOLD_CARD {
                // Atomic cuboids only (the default config).
                let vals = vec![v];
                if let Some(stored) = cube.cell_signature(&dims, &vals) {
                    let mut paths = stored.load_full(&disk, cube.store()).unwrap().paths();
                    paths.sort();
                    out.insert((dims.clone(), vals), paths);
                }
            }
        }
        out
    }

    fn fold_queries() -> Vec<Query> {
        vec![
            Query::select([(0, 1)]).rank(Linear::uniform(2)).top(12),
            Query::select([(1, 2)]).rank(Linear::uniform(2)).top(9),
            Query::select([(0, 0), (2, 1)]).rank(Linear::uniform(2)).top(15),
            Query::select([]).rank(Linear::uniform(2)).top(400),
        ]
    }

    /// [`fold_queries`] through the live merged view.
    fn served_answers(delta: &DeltaCube) -> Vec<Vec<String>> {
        let drained = |q: &Query| delta.source().open(&q.plan()).unwrap().try_drain().unwrap();
        fold_queries().iter().map(|q| render(&drained(q).items)).collect()
    }

    fn cube_answers(cube: &SignatureCube, rtree: &RTree) -> Vec<Vec<String>> {
        let disk = DiskSim::with_defaults();
        fold_queries()
            .iter()
            .map(|q| {
                let items = cube.source(rtree, &disk).open(&q.plan()).unwrap().try_drain().unwrap();
                render(&items.items)
            })
            .collect()
    }

    /// Drives `steps` through a real `DeltaCube` (batched, spliced fold),
    /// through the whole-cell reference and through the per-op reference on
    /// twin files, then checks all three against each other and against a
    /// cube built from scratch over the final R-tree. After every flush the
    /// spliced cube and the whole-cell twin must hold the same nodes, bits
    /// and codings, in a well-formed catalog; every flush must be warm, the
    /// first after an open included. Returns the tallest R-tree any flush
    /// served and the ops they applied.
    fn check_history(tag: &str, steps: &[Step], alpha: f64) -> (usize, usize) {
        let [path_a, path_b, path_c] = ["a", "b", "c"].map(|t| temp_path(&format!("{tag}_{t}")));
        let base = fold_base_file(&path_a, alpha);
        std::fs::copy(&path_a, &path_b).unwrap();
        std::fs::copy(&path_a, &path_c).unwrap();
        let cuboids = base.schema().num_selection();

        // The model the reference folds from: pending ops, live flushed
        // delta tuples, and the latest row under every tid (a reopen may
        // hand out again the tids of tuples that were inserted and deleted
        // without a trace).
        let mut pending: BTreeMap<Tid, MemOp> = BTreeMap::new();
        let mut flushed: BTreeMap<Tid, Vec<u32>> = BTreeMap::new();
        let mut rows: Vec<(Vec<u32>, Vec<f64>)> = base
            .tids()
            .map(|t| {
                ((0..cuboids).map(|d| base.selection_value(t, d)).collect(), base.ranking_point(t))
            })
            .collect();
        let mut live_base: Vec<Tid> = base.tids().collect();
        let mut applied_ops = 0usize;

        let mut delta = DeltaCube::open(&path_a, base.clone(), DeltaOptions::default()).unwrap();
        let mut max_height = delta.current().rtree.height();
        let settle = |pending: &mut BTreeMap<Tid, MemOp>, flushed: &mut BTreeMap<Tid, Vec<u32>>| {
            for (tid, op) in std::mem::take(pending) {
                match op {
                    MemOp::Upsert { sel, .. } => flushed.insert(tid, sel),
                    MemOp::Delete => flushed.remove(&tid),
                };
            }
        };
        for step in steps.iter().chain([&Step::Flush]) {
            match step {
                Step::Insert { sel, point } => {
                    let tid = delta.insert(sel, point).unwrap();
                    assert!(tid as usize >= FOLD_BASE && tid as usize <= rows.len());
                    rows.truncate(tid as usize);
                    rows.push((sel.clone(), point.clone()));
                    pending.insert(tid, MemOp::Upsert { sel: sel.clone(), point: point.clone() });
                }
                Step::DeleteBase(i) if !live_base.is_empty() => {
                    let tid = live_base.swap_remove(i % live_base.len());
                    delta.delete(tid).unwrap();
                    tombstone(&mut pending, tid);
                }
                Step::DeleteFlushed(i) if !flushed.is_empty() => {
                    let tid = *flushed.keys().nth(i % flushed.len()).unwrap();
                    delta.delete(tid).unwrap();
                    tombstone(&mut pending, tid);
                }
                Step::DeletePending(i) if !pending.is_empty() => {
                    let tid = *pending.keys().nth(i % pending.len()).unwrap();
                    delta.delete(tid).unwrap();
                    tombstone(&mut pending, tid);
                }
                Step::DeleteWhere(dim, v) => {
                    let upserts = pending
                        .iter()
                        .filter(|(_, op)| matches!(op, MemOp::Upsert { .. }))
                        .map(|(&tid, _)| tid);
                    let live: Vec<Tid> = live_base
                        .iter()
                        .copied()
                        .chain(flushed.keys().copied())
                        .chain(upserts)
                        .filter(|t| !matches!(pending.get(t), Some(MemOp::Delete)))
                        .collect();
                    let (doomed, kept): (Vec<Tid>, Vec<Tid>) =
                        live.into_iter().partition(|&t| rows[t as usize].0[*dim] == *v);
                    // An R-tree with no tuple left does not serialize.
                    if kept.len() >= 4 {
                        for tid in doomed {
                            delta.delete(tid).unwrap();
                            tombstone(&mut pending, tid);
                        }
                        live_base.retain(|&t| rows[t as usize].0[*dim] != *v);
                    }
                }
                Step::Flush => {
                    // Queries on both sides of the swap: what they decode
                    // before it is what the fold hands over, what they read
                    // after it is what the hand-over published — held to the
                    // file by the oracle, and to a handle with no cache.
                    served_answers(&delta);
                    let report = delta.flush().unwrap();
                    let served = served_answers(&delta);
                    delta.current().cube.assert_node_cache_matches_file();
                    let (mut uncached, its_rtree) =
                        SignatureCube::open_from_with(&path_a, 64).unwrap();
                    uncached.set_node_cache_budget(0);
                    assert_eq!(served, cube_answers(&uncached, &its_rtree), "cached != uncached");
                    fold_per_op(&path_b, &base, &pending, &flushed);
                    if !pending.is_empty() {
                        fold_whole_cell(&path_c, &base, &pending, &flushed);
                        let (cube_c, _) = SignatureCube::open_from_with(&path_c, 64).unwrap();
                        assert_eq!(
                            cell_nodes(&delta.current().cube),
                            cell_nodes(&cube_c),
                            "spliced fold != whole-cell fold"
                        );
                        assert_eq!(report.cold_opens, 0, "warm, just opened or not");
                    }
                    max_height = max_height.max(delta.current().rtree.height());
                    assert!(
                        report.nodes_reencoded <= report.path_updates * cuboids * 2 * max_height,
                        "only nodes on an old or a new path are re-encoded"
                    );
                    settle(&mut pending, &mut flushed);
                    applied_ops += report.applied_ops;
                    assert!(
                        report.cells_rewritten <= (report.path_updates * cuboids),
                        "a net path update touches one cell per cuboid"
                    );
                    assert!(report.cells_rewritten <= cuboids * FOLD_CARD as usize);
                    assert!(report.pages_appended > 0 || report.applied_ops == 0);
                }
                Step::CrashedFlush => {
                    drop(delta);
                    let plan = FaultPlan::new();
                    plan.crash_at_swap(SwapStage::TempWrite);
                    let faulted = DeltaOptions { faults: Some(plan), ..Default::default() };
                    let dying = DeltaCube::open(&path_a, base.clone(), faulted).unwrap();
                    let crashed = dying.flush();
                    assert_eq!(crashed.is_err(), !pending.is_empty(), "the swap stage is reached");
                    drop(dying);
                    // The cube committed, the WAL did not move: the twins
                    // fold the same ops, and the reopen holds none of them.
                    fold_per_op(&path_b, &base, &pending, &flushed);
                    if !pending.is_empty() {
                        fold_whole_cell(&path_c, &base, &pending, &flushed);
                    }
                    settle(&mut pending, &mut flushed);
                    delta =
                        DeltaCube::open(&path_a, base.clone(), DeltaOptions::default()).unwrap();
                    max_height = max_height.max(delta.current().rtree.height());
                    assert_eq!(delta.memtable_len(), 0, "replay skips every folded frame");
                }
                _ => {} // a delete with nothing of its kind to delete
            }
        }

        let full = {
            let mut b = RelationBuilder::new(base.schema().clone());
            for (sel, point) in &rows {
                b.push(sel, point);
            }
            b.finish()
        };
        let (cube_a, rtree_a) = SignatureCube::open_from_with(&path_a, 64).unwrap();
        let (cube_b, rtree_b) = SignatureCube::open_from_with(&path_b, 64).unwrap();
        let (cube_c, rtree_c) = SignatureCube::open_from_with(&path_c, 64).unwrap();
        let (mut paths_a, mut paths_b) = (rtree_a.tuple_paths(), rtree_b.tuple_paths());
        paths_a.sort();
        paths_b.sort();
        assert_eq!(paths_a, paths_b, "both folds drive the R-tree through the same operations");
        let mut paths_c = rtree_c.tuple_paths();
        paths_c.sort();
        assert_eq!(paths_a, paths_c, "the whole-cell twin ran the same operations");
        let disk = DiskSim::with_defaults();
        let config = SignatureCubeConfig { alpha, cuboids: None };
        let rebuilt = SignatureCube::build(&full, &rtree_a, &disk, config);

        let cells = cell_path_sets(&cube_a);
        assert_eq!(cells, cell_path_sets(&cube_b), "batched fold != per-op fold");
        assert_eq!(cells, cell_path_sets(&cube_c), "spliced fold != whole-cell fold");
        assert_eq!(cells, cell_path_sets(&rebuilt), "batched fold != cube built from scratch");
        // Node by node: the whole-cell twin to the bit and the coding, the
        // rebuild on the set bits (a recorded length remembers a slot that
        // was once set, which a from-scratch build never saw).
        let nodes = cell_nodes(&cube_a);
        assert_eq!(nodes, cell_nodes(&cube_c), "spliced nodes != whole-cell nodes");
        let ones =
            |cells: &CellNodes| cells.values().map(crate::sigcube::set_bits).collect::<Vec<_>>();
        assert_eq!(ones(&nodes), ones(&cell_nodes(&rebuilt)), "spliced nodes != rebuilt nodes");
        let answers = cube_answers(&cube_a, &rtree_a);
        assert_eq!(answers, cube_answers(&cube_b, &rtree_b), "answers: batched != per-op");
        assert_eq!(answers, cube_answers(&rebuilt, &rtree_a), "answers: batched != rebuilt");
        // The live DeltaCube (memtable drained by the closing flush) agrees.
        assert_eq!(served_answers(&delta), answers, "answers: served merged view != reopened base");
        assert_eq!(answers[3].len(), paths_a.len(), "the unfiltered drain sees every live tuple");

        drop(delta);
        for path in [&path_a, &path_b, &path_c] {
            cleanup(path);
        }
        (max_height, applied_ops)
    }

    fn insert_step(i: u32) -> Step {
        // A tight cluster, so consecutive inserts pile into the same
        // leaves: splits cascade and the root grows.
        let f = f64::from(i % 17) / 400.0;
        Step::Insert { sel: vec![i % 3, (i / 3) % 3, (i / 9) % 3], point: vec![0.31 + f, 0.62 - f] }
    }

    #[test]
    fn scripted_history_folds_like_per_op_and_rebuild() {
        let mut steps = Vec::new();
        // Delete-then-insert around one flush: the freed leaf slots are
        // reused by the inserts of the same snapshot.
        steps.extend((0..6).map(Step::DeleteBase));
        steps.extend((0..8).map(insert_step));
        steps.push(Step::Flush);
        // Enough clustered inserts to split leaves all the way to a new root.
        steps.extend((8..72).map(insert_step));
        steps.push(Step::DeletePending(3));
        steps.push(Step::CrashedFlush);
        // Tombstone an insert only the crashed flush folded (the 14th
        // flushed tid; the first flush folded 8): the next flush clears it
        // from its cells with the values the crashed commit wrote.
        steps.push(Step::DeleteFlushed(13));
        steps.extend((0..4).map(Step::DeleteFlushed));
        steps.push(Step::Flush);
        // Drain the base until leaves underflow and condense re-inserts.
        steps.extend((0..36).map(Step::DeleteBase));
        steps.extend((0..30).map(|i| Step::DeleteFlushed(i * 5)));
        // A cell emptied by one flush and filled again by the next…
        steps.push(Step::Flush);
        steps.push(Step::DeleteWhere(0, 1));
        steps.push(Step::Flush);
        steps.extend((100..130).map(insert_step));
        steps.push(Step::Flush);
        // …and one emptied and filled again inside a single snapshot.
        steps.push(Step::DeleteWhere(1, 2));
        steps.extend((130..150).map(insert_step));
        let (height, applied_ops) = check_history("script", &steps, 0.75);
        // Cut a node or two per partial: drops empty whole partials.
        check_history("script_small", &steps, 1e-6);
        let built = RTree::over_relation(
            &DiskSim::with_defaults(),
            &SyntheticSpec { tuples: FOLD_BASE, cardinality: FOLD_CARD, ..Default::default() }
                .generate(),
            &[],
            RTreeConfig::small(6),
        );
        assert!(height > built.height(), "the inserts grew the root ({height})");
        assert!(applied_ops > 120, "every phase folded ({applied_ops} ops)");
    }

    fn step_strategy() -> impl proptest::Strategy<Value = Step> {
        use proptest::Strategy;
        (0u32..21, 0u32..27, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(kind, n, x, y)| match kind {
            0..=9 => Step::Insert { sel: vec![n % 3, (n / 3) % 3, n / 9], point: vec![x, y] },
            10..=12 => Step::DeleteBase(n as usize),
            13..=14 => Step::DeleteFlushed(n as usize),
            15..=16 => Step::DeletePending(n as usize),
            17..=18 => Step::Flush,
            19 => Step::CrashedFlush,
            _ => Step::DeleteWhere(n as usize % 3, (n / 3) % 3),
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(24))]
        #[test]
        fn proptest_batched_fold_equals_per_op_fold_and_rebuild(
            steps in proptest::collection::vec(step_strategy(), 1..90),
            small_alpha in proptest::bool::ANY,
        ) {
            check_history("prop", &steps, if small_alpha { 1e-6 } else { 0.75 });
        }
    }

    // ---- warm flush ≡ cold flush, and when warm is not allowed -----------

    fn sel_of(rel: &Relation, tid: Tid) -> Vec<u32> {
        (0..rel.schema().num_selection()).map(|d| rel.selection_value(tid, d)).collect()
    }

    /// How a run of [`run_rounds`] treats the cube file before each flush.
    #[derive(Clone, Copy, PartialEq)]
    enum Before {
        /// Nothing: every flush after the first reuses the serving handle.
        Nothing,
        /// Puts a byte-identical copy under the path — another inode, so
        /// the flush must not trust what it holds in memory.
        SwapInCopy,
        /// Drops the delta cube and opens it again.
        Reopen,
    }

    /// Six rounds of clustered inserts (leaf splits up to a new root) and
    /// deletes over `path`, a flush after each; returns every flush's
    /// `cold_opens` and `rtree_nodes_written`.
    fn run_rounds(
        path: &Path,
        full: &Relation,
        base: &Relation,
        before: Before,
    ) -> (Vec<u64>, Vec<usize>) {
        let mut delta = DeltaCube::open(path, base.clone(), DeltaOptions::default()).unwrap();
        let (mut cold, mut written) = (Vec::new(), Vec::new());
        for round in 0..6u32 {
            for tid in 300 + round * 20..320 + round * 20 {
                let f = f64::from(tid % 13) / 300.0;
                delta.insert(&sel_of(full, tid), &[0.4 + f, 0.5 - f]).unwrap();
            }
            for tid in round * 7..round * 7 + 5 {
                delta.delete(tid).unwrap();
            }
            delta.delete(300 + round * 20).unwrap();
            match before {
                Before::Nothing => {}
                Before::SwapInCopy => {
                    let copy = temp_path("swap_copy");
                    std::fs::copy(path, &copy).unwrap();
                    std::fs::rename(&copy, path).unwrap();
                }
                Before::Reopen => {
                    drop(delta);
                    delta = DeltaCube::open(path, base.clone(), DeltaOptions::default()).unwrap();
                }
            }
            let report = delta.flush().unwrap();
            cold.push(report.cold_opens);
            written.push(report.rtree_nodes_written);
        }
        (cold, written)
    }

    #[test]
    fn warm_flushes_leave_the_file_cold_flushes_would() {
        let full = SyntheticSpec { tuples: 420, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let paths = ["warm", "cold", "reopened"].map(temp_path);
        build_base(&base, &paths[0]);
        std::fs::copy(&paths[0], &paths[1]).unwrap();
        std::fs::copy(&paths[0], &paths[2]).unwrap();

        // Every flush after an open is warm, the first included; one over a
        // copy swapped in is cold — and writes the very R-tree nodes the
        // warm one does: the stamped parse recorded each node's object.
        let (warm, warm_written) = run_rounds(&paths[0], &full, &base, Before::Nothing);
        let (cold, cold_written) = run_rounds(&paths[1], &full, &base, Before::SwapInCopy);
        let (reopened, reopened_written) = run_rounds(&paths[2], &full, &base, Before::Reopen);
        assert_eq!((warm, cold, reopened), (vec![0; 6], vec![1; 6], vec![0; 6]));
        assert_eq!(warm_written, cold_written, "the first flush after an open included");
        assert_eq!(reopened_written, cold_written);

        // Same process, same R-tree page allocator: the warm file and the
        // always-cold file are the same bytes — every partial, every
        // catalog, both superblock slots.
        let catalog = |path: &Path| {
            let store = PageStore::open_file(path, 64).unwrap();
            store.peek(store.catalog().unwrap()).unwrap()
        };
        let opened = paths.each_ref().map(|p| SignatureCube::open_from_with(p, 64).unwrap());
        let nodes = |t: &RTree| (0..t.node_slots()).map(|n| t.encode_node(n)).collect::<Vec<_>>();
        assert!(nodes(&opened[0].1) == nodes(&opened[1].1), "R-trees differ");
        assert!(catalog(&paths[0]) == catalog(&paths[1]), "catalogs differ");
        assert!(std::fs::read(&paths[0]).unwrap() == std::fs::read(&paths[1]).unwrap());
        // A reopened delta cube numbers the R-tree nodes it allocates from
        // zero again, so its file differs in those ids — and in nothing a
        // query or a later fold can see.
        for (cube, rtree) in &opened[1..] {
            let (mut got, mut want) = (rtree.tuple_paths(), opened[0].1.tuple_paths());
            got.sort();
            want.sort();
            assert_eq!(got, want);
            assert_eq!(cell_path_sets(cube), cell_path_sets(&opened[0].0));
            assert_eq!(cell_nodes(cube), cell_nodes(&opened[0].0));
            assert_eq!(cube_answers(cube, rtree), cube_answers(&opened[0].0, &opened[0].1));
        }
        drop(opened);
        paths.iter().for_each(|p| cleanup(p));
    }

    /// Inserts `tids` of `full` and flushes; returns the flush's `cold_opens`.
    fn ingest_and_flush(delta: &DeltaCube, full: &Relation, tids: std::ops::Range<Tid>) -> u64 {
        for tid in tids {
            assert_eq!(delta.insert(&sel_of(full, tid), &full.ranking_point(tid)).unwrap(), tid);
        }
        delta.flush().unwrap().cold_opens
    }

    /// The merged view must answer like a cube built over `rel` from scratch.
    fn assert_answers_like_rebuilt(delta: &DeltaCube, rel: &Relation, what: &str) {
        for q in fold_queries() {
            let got = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
            assert_eq!(render(&got), render(&rebuilt_answers(rel, &q)), "{what}: {q:?}");
        }
    }

    #[test]
    fn a_file_the_writer_did_not_publish_forces_the_cold_path() {
        let full = SyntheticSpec { tuples: 400, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("forced_cold");
        build_base(&base, &path);
        let metrics = Metrics::new();
        let opts = DeltaOptions { metrics: metrics.clone(), ..Default::default() };
        let delta = DeltaCube::open(&path, base.clone(), opts).unwrap();
        // Flushes between two warm-ups, and whether the generation after
        // them serves out of the node cache of the one before: a warm flush
        // hands the cache on, warm; a cold one starts another, holding
        // nothing but what its own fold wrote.
        let flush_keeps_cache = |tids: std::ops::Range<Tid>, what: &str| {
            served_answers(&delta);
            let before = delta.current();
            assert!(before.cube.node_cache().stats().entries > 0, "{what}: warmed");
            let cold = ingest_and_flush(&delta, &full, tids);
            let after = delta.current();
            let kept = std::ptr::eq(before.cube.node_cache(), after.cube.node_cache());
            assert_eq!(
                kept,
                cold == 0,
                "{what}: a cache is handed on exactly when the flush is warm"
            );
            if !kept {
                assert_eq!(before.cube.node_cache().stats().entries, 0, "{what}: old cache let go");
                let (nodes, fresh) =
                    (delta.stats().nodes_reencoded, after.cube.node_cache().stats());
                assert!(fresh.entries as u64 <= nodes, "{what}: only what this fold wrote");
                assert_eq!((fresh.hits, fresh.misses), (0, 0), "{what}: nobody read it yet");
            }
            after.cube.assert_node_cache_matches_file();
            cold
        };
        assert_eq!(flush_keeps_cache(300..310, "first flush"), 0, "the file it opened, as it was");
        assert_eq!(flush_keeps_cache(310..320, "second flush"), 0, "its own file, as it left it");

        // A vacuum swaps another file under the path.
        crate::vacuum_into_place(&path, &Metrics::disabled(), None).unwrap();
        assert_eq!(flush_keeps_cache(320..330, "vacuum swap"), 1, "after a vacuum swap");
        assert_answers_like_rebuilt(&delta, &full.prefix(330), "after a vacuum swap");
        assert_eq!(flush_keeps_cache(330..340, "after the vacuum"), 0);

        // Another writer commits a generation of its own.
        {
            let (mut cube, mut rtree) = SignatureCube::open_writable(&path, 64).unwrap();
            cube.commit(&mut rtree).unwrap();
        }
        assert_eq!(flush_keeps_cache(340..350, "foreign commit"), 1, "after a foreign commit");
        assert_answers_like_rebuilt(&delta, &full.prefix(350), "after a foreign commit");
        assert_eq!(flush_keeps_cache(350..360, "after the foreign commit"), 0);

        // A flush of its own that committed and then failed before the swap
        // (a directory sits where the new WAL is written): the file is one
        // generation ahead of the serving handle.
        let blocker = {
            let mut os = wal_path_for(&path).into_os_string();
            os.push(".new");
            PathBuf::from(os)
        };
        std::fs::create_dir(&blocker).unwrap();
        for tid in 360..370 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        let generation = delta.serving_generation();
        assert!(matches!(delta.flush(), Err(StorageError::Io(_))));
        assert_eq!(delta.serving_generation(), generation, "nothing was swapped");
        assert_eq!(delta.memtable_len(), 10, "nothing was pruned");
        std::fs::remove_dir(&blocker).unwrap();
        // Writes acknowledged after the failed flush go to the WAL a restart
        // reads. The retry is cold, and folds only the ten ops above the
        // `flushed_seq` the failed flush committed.
        delta.current().cube.assert_node_cache_matches_file();
        assert_eq!(flush_keeps_cache(370..380, "half-done flush"), 1, "after a half-done flush");
        let retry = delta.flush_events().pop().unwrap();
        let applied = retry.fields.iter().find(|(k, _)| *k == "applied_ops").unwrap().1;
        assert_eq!(applied, 10.0, "the retry skips what the failed flush committed");
        assert_answers_like_rebuilt(&delta, &full.prefix(380), "after a half-done flush");
        assert_eq!(delta.stats().cold_opens, 3);
        assert_eq!(metrics.counter("delta.flush.cold_opens").get(), 3);

        for tid in 380..385 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        drop(delta);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        assert_eq!(delta.last_replay().pending, 5);
        assert_answers_like_rebuilt(&delta, &full.prefix(385), "reopened");
        drop(delta);
        cleanup(&path);
    }

    #[test]
    fn an_idle_delta_reelects_the_vacuumed_file() {
        let full = SyntheticSpec { tuples: 330, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("reelect");
        build_base(&base, &path);
        let delta = DeltaCube::open(&path, base, DeltaOptions::default()).unwrap();
        assert_eq!(ingest_and_flush(&delta, &full, 300..310), 0);
        assert_eq!(ingest_and_flush(&delta, &full, 310..320), 0);
        let answers = served_answers(&delta);
        let q = &fold_queries()[3];
        let mut pinned = delta.source().open(&q.plan()).unwrap();
        let head = pinned.next().unwrap();
        let old = delta.current();

        crate::vacuum_into_place(&path, &Metrics::disabled(), None).unwrap();
        delta.reelect().unwrap();
        let sb = FileBackend::peek_superblock(&path).unwrap();
        assert_eq!((delta.serving_generation(), sb.retired_pages), (sb.generation, 0));
        assert_eq!(delta.serving_cube().store().reclaimable_pages(), 0, "the compacted file");
        assert_eq!(old.cube.node_cache().stats().entries, 0, "the old file's tables let go");
        let mut rest = vec![head];
        rest.extend(pinned.by_ref());
        assert_eq!(render(&rest), answers[3], "a cursor pinned before the vacuum drains as it was");
        assert_eq!(served_answers(&delta), answers);
        assert_eq!(ingest_and_flush(&delta, &full, 320..330), 1, "parsed off the file: cold");
        assert_answers_like_rebuilt(&delta, &full, "after the re-election");
        drop(pinned);
        drop(delta);
        cleanup(&path);
    }

    /// `full`'s tuples `0..n` minus `dropped`, and each kept tuple's tid.
    fn logical_relation(full: &Relation, n: Tid, dropped: &[Tid]) -> (Relation, Vec<Tid>) {
        let mut b = RelationBuilder::new(full.schema().clone());
        let kept: Vec<Tid> = (0..n).filter(|t| !dropped.contains(t)).collect();
        for &tid in &kept {
            b.push(&sel_of(full, tid), &full.ranking_point(tid));
        }
        (b.finish(), kept)
    }

    /// The merged view must answer like a cube built from scratch over the
    /// tuples `0..n` of `full` minus `dropped` — tid for tid.
    fn assert_answers_like_logical(delta: &DeltaCube, full: &Relation, n: Tid, dropped: &[Tid]) {
        let (logical, kept) = logical_relation(full, n, dropped);
        for q in fold_queries() {
            let got = delta.source().open(&q.plan()).unwrap().try_drain().unwrap().items;
            let want: Vec<(Tid, f64)> = rebuilt_answers(&logical, &q)
                .into_iter()
                .map(|(t, score)| (kept[t as usize], score))
                .collect();
            // Ties between equal scores order by tid on both sides, and
            // `kept` is increasing, so the renumbering keeps the order.
            assert_eq!(render(&got), render(&want), "{n} tuples, {} dropped: {q:?}", dropped.len());
        }
    }

    #[test]
    fn a_failed_flush_publishes_nothing() {
        // A warm flush that fails — at every page write it issues, and
        // between its commit and its swap — leaves the node cache exactly
        // what the serving generation's file backs: the retry appends
        // *other* bytes under the page ids the failed attempt used, so one
        // table published early would be a wrong answer, not a slow one.
        let full = SyntheticSpec { tuples: 420, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let pristine = temp_path("nopublish_base");
        build_base(&base, &pristine);

        // One process: a first flush, a warm-up, writes, the flush under
        // test (which `arm` makes fail), more writes, the retry.
        // Arms the failure; what it returns disarms it.
        type Arm<'a> = &'a dyn Fn(&Path, &FaultPlan) -> Box<dyn FnOnce()>;
        let session = |arm: Arm| {
            let path = temp_path("nopublish");
            std::fs::copy(&pristine, &path).unwrap();
            let plan = FaultPlan::new();
            let opts = DeltaOptions { faults: Some(Arc::clone(&plan)), ..Default::default() };
            let delta = DeltaCube::open(&path, base.clone(), opts).unwrap();
            assert_eq!(ingest_and_flush(&delta, &full, 300..330), 0);
            served_answers(&delta);
            for tid in 330..360 {
                delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
            }
            let dropped = [7, 301, 150];
            dropped.iter().for_each(|&tid| delta.delete(tid).unwrap());
            let before = plan.writes_observed();
            let disarm = arm(&path, &plan);
            let failed = delta.flush();
            let writes = plan.writes_observed() - before;
            disarm();
            if failed.is_err() {
                let serving = delta.current();
                serving.cube.assert_node_cache_matches_file();
                served_answers(&delta);
                assert_answers_like_logical(&delta, &full, 360, &dropped);
                // What the retry folds is not what the failed attempt folded.
                for tid in 360..380 {
                    delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
                }
                delta.flush().expect("the retry goes through");
            }
            let (tables, _) = delta.current().cube.assert_node_cache_matches_file();
            assert!(tables > 0, "the hand-over left the cache warm");
            let n = if failed.is_err() { 380 } else { 360 };
            assert_answers_like_logical(&delta, &full, n, &dropped);
            delta.current().cube.assert_node_cache_matches_file();
            drop(delta);
            cleanup(&path);
            (failed.map(|report| report.cold_opens), writes)
        };

        let (clean, writes) = session(&|_, _| Box::new(|| ()));
        assert_eq!(clean.unwrap(), 0, "the flush under test is a warm one");
        assert!(writes > 3, "data, catalog, allocation map, superblock: {writes} page writes");
        for n in 0..writes {
            let (failed, _) = session(&|_, plan| {
                plan.enospc_at_page_write(plan.writes_observed() + n);
                Box::new(|| ())
            });
            assert!(matches!(failed, Err(StorageError::Io(_))), "page write {n}: {failed:?}");
        }
        // Committed, then failed before the swap: a directory sits where the
        // new WAL is written.
        let (failed, _) = session(&|path, _| {
            let mut blocker = wal_path_for(path).into_os_string();
            blocker.push(".new");
            let blocker = PathBuf::from(blocker);
            std::fs::create_dir(&blocker).unwrap();
            Box::new(move || std::fs::remove_dir(&blocker).unwrap())
        });
        assert!(matches!(failed, Err(StorageError::Io(_))), "{failed:?}");
        cleanup(&pristine);
    }

    #[test]
    fn two_readers_stream_while_the_writer_hands_over() {
        // Inserts, deletes of base / flushed / pending tuples, clustered
        // inserts that split leaves up to a new root (whole cells written
        // fresh), a cell emptied and refilled — a flush after each burst,
        // and two readers querying throughout, each answer held to the
        // rows it may contain. After every flush: the cache oracle, and the
        // merged view against a cube built from scratch.
        let full = SyntheticSpec { tuples: 700, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("readers");
        build_base(&base, &path);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let answered = AtomicU64::new(0);
        std::thread::scope(|s| {
            for reader in 0..2usize {
                let (delta, full, stop, answered) = (&delta, &full, &stop, &answered);
                s.spawn(move || {
                    let queries = fold_queries();
                    let mut at = reader;
                    while !stop.load(Ordering::Relaxed) {
                        let q = &queries[at % queries.len()];
                        at += 1;
                        let plan = q.plan();
                        let items = delta.source().open(&plan).unwrap().try_drain().unwrap().items;
                        for pair in items.windows(2) {
                            let order =
                                pair[0].1.total_cmp(&pair[1].1).then(pair[0].0.cmp(&pair[1].0));
                            assert!(
                                order.is_lt(),
                                "ascending (score, tid), no tuple twice: {pair:?}"
                            );
                        }
                        for &(tid, score) in &items {
                            // Tids are allocated densely: tuple `tid` is row
                            // `tid` of `full`, whenever it was inserted.
                            let sel = sel_of(full, tid);
                            assert!(plan.selection.conds().iter().all(|&(d, v)| sel[d] == v));
                            let point = full.ranking_point(tid);
                            let pt: Vec<f64> =
                                plan.ranking_dims.iter().map(|&d| point[d]).collect();
                            assert_eq!(
                                score.to_bits(),
                                plan.func.score(&pt).to_bits(),
                                "tid {tid}"
                            );
                        }
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Releases the readers when this thread leaves the scope —
            // done, or unwinding from a failed assertion.
            struct Release<'a>(&'a std::sync::atomic::AtomicBool);
            impl Drop for Release<'_> {
                fn drop(&mut self) {
                    self.0.store(true, Ordering::Relaxed);
                }
            }
            let _release = Release(&stop);
            let next = std::cell::Cell::new(300 as Tid);
            let dropped = std::cell::RefCell::new(Vec::<Tid>::new());
            let live = |tid: &Tid| !dropped.borrow().contains(tid);
            let burst = |inserts: u32, deletes: &[Tid]| {
                for _ in 0..inserts {
                    let tid = next.replace(next.get() + 1);
                    let got = delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
                    assert_eq!(got, tid);
                }
                for &tid in deletes {
                    delta.delete(tid).unwrap();
                    dropped.borrow_mut().push(tid);
                }
                let seen = answered.load(Ordering::Relaxed);
                let report = delta.flush().unwrap();
                delta.current().cube.assert_node_cache_matches_file();
                assert_answers_like_logical(&delta, &full, next.get(), &dropped.borrow());
                delta.current().cube.assert_node_cache_matches_file();
                // Let the readers in on this generation before the next.
                let waiting = Instant::now();
                while answered.load(Ordering::Relaxed) < seen + 8 {
                    assert!(waiting.elapsed() < Duration::from_secs(60), "the readers stopped");
                    std::thread::yield_now();
                }
                report
            };
            assert_eq!(burst(40, &[3, 11, 42]).cold_opens, 0);
            // A base tuple, a flushed one, and — deleted before its flush —
            // a pending one.
            assert_eq!(burst(30, &[77, 305, 365]).cold_opens, 0);
            // Empty cell (0, 1), then refill it.
            let cell: Vec<Tid> =
                (0..next.get()).filter(|&t| full.selection_value(t, 0) == 1 && live(&t)).collect();
            burst(0, &cell);
            burst(120, &[]);
            for round in 0..4 {
                let victims: Vec<Tid> =
                    (0..6).map(|i| 100 + round * 13 + i * 2).filter(live).collect();
                assert_eq!(burst(40, &victims).cold_opens, 0);
            }
        });
        assert!(
            delta.current().cube.node_cache().stats().hits > 0,
            "the readers were cache-served"
        );
        assert!(delta.current().rtree.height() >= 2);
        drop(delta);
        cleanup(&path);
    }

    #[test]
    fn writes_acknowledged_after_a_failed_flush_survive_a_restart() {
        let full = SyntheticSpec { tuples: 340, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("failed_flush");
        build_base(&base, &path);
        let plan = FaultPlan::new();
        let opts = DeltaOptions { faults: Some(Arc::clone(&plan)), ..Default::default() };
        let delta = DeltaCube::open(&path, base.clone(), opts).unwrap();
        for tid in 300..320 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        // The disk fills up under the second page the fold appends: a typed
        // error, no panic, and the process lives on.
        plan.enospc_at_page_write(plan.writes_observed() + 1);
        assert!(matches!(delta.flush(), Err(StorageError::Io(_))));
        assert_eq!(delta.memtable_len(), 20);
        for tid in 320..330 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        // So does a flush that works, and what is acknowledged after it.
        assert_eq!(delta.flush().unwrap().applied_ops, 30);
        for tid in 330..340 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        drop(delta);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        assert_eq!((delta.last_replay().records, delta.last_replay().pending), (10, 10));
        assert_answers_like_rebuilt(&delta, &full, "reopened");
        drop(delta);
        cleanup(&path);
    }

    #[test]
    fn appends_land_in_the_memtable_while_a_flush_runs() {
        // Inserts and deletes issued just before the flush's first page
        // write — the snapshot is taken, the WAL not handed over yet — go
        // through, stay in the memtable past the flush, and move to the
        // new WAL byte for byte. A flush that held the append mutex
        // through its cycle would deadlock in the scripted action: the
        // flush runs on a thread with a timeout, so that fails instead of
        // hanging.
        let full = SyntheticSpec { tuples: 340, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("mid_flush");
        build_base(&base, &path);
        let plan = FaultPlan::new();
        let opts = DeltaOptions { faults: Some(Arc::clone(&plan)), ..Default::default() };
        let delta = Arc::new(DeltaCube::open(&path, base.clone(), opts).unwrap());
        for tid in 300..330 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        // A base tuple, and a pending insert the tombstone replaces.
        delta.delete(4).unwrap();
        delta.delete(310).unwrap();
        // Mid-cycle: ten inserts, then deletes of a tuple the flush is
        // folding, of a base tuple and of one of the ten.
        const HOOK_OPS: u64 = 13;
        let (during, hook_full) = (Arc::downgrade(&delta), full.clone());
        let ran = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let hook_ran = Arc::clone(&ran);
        plan.before_page_write(plan.writes_observed(), move || {
            let d = during.upgrade().unwrap();
            for tid in 330..340 {
                d.insert(&sel_of(&hook_full, tid), &hook_full.ranking_point(tid)).unwrap();
            }
            for tid in [320, 9, 333] {
                d.delete(tid).unwrap();
            }
            hook_ran.store(true, Ordering::SeqCst);
        });
        let (done, flushed) = std::sync::mpsc::channel();
        let flusher = Arc::clone(&delta);
        let flushing = std::thread::spawn(move || done.send(flusher.flush()).unwrap());
        let report = flushed
            .recv_timeout(Duration::from_secs(60))
            .expect("appends made mid-flush must not wait for the whole flush")
            .unwrap();
        flushing.join().unwrap();
        assert_eq!(report.carried_ops, HOOK_OPS);
        assert!(ran.load(Ordering::SeqCst), "the hook ran");

        // The memtable holds exactly the hook's ops.
        let kinds: Vec<(Tid, bool)> = delta
            .served
            .read()
            .unwrap()
            .mem
            .ops
            .iter()
            .map(|(&tid, e)| (tid, matches!(e.op, MemOp::Upsert { .. })))
            .collect();
        let mut want: Vec<(Tid, bool)> =
            (330..340).map(|tid| (tid, tid != 333)).chain([(9, false), (320, false)]).collect();
        want.sort_unstable();
        assert_eq!(kinds, want);
        let dropped = [4, 310, 320, 9, 333];
        assert_answers_like_logical(&delta, &full, 340, &dropped);
        let wal_len = std::fs::metadata(wal_path_for(&path)).unwrap().len();
        assert_eq!(delta.stats().wal_bytes, wal_len, "the append handle is the file on disk");
        let served = served_answers(&delta);

        drop(delta);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        assert_eq!(delta.last_replay().pending, HOOK_OPS, "the carried frames replay");
        assert!(!delta.last_replay().torn_tail);
        assert_eq!(served_answers(&delta), served, "reopened answers byte for byte");
        // The next flush folds what was carried — the delete of a tuple the
        // first flush folded included.
        assert_eq!(delta.flush().unwrap().carried_ops, 0);
        assert_eq!(delta.memtable_len(), 0);
        assert_answers_like_logical(&delta, &full, 340, &dropped);
        drop(delta);
        cleanup(&path);
    }

    #[test]
    fn flush_phases_land_in_the_registry_and_the_event_log() {
        let full = SyntheticSpec { tuples: 330, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("instruments");
        build_base(&base, &path);
        let metrics = Metrics::new();
        let opts = DeltaOptions { metrics: metrics.clone(), ..Default::default() };
        let delta = DeltaCube::open(&path, base.clone(), opts).unwrap();
        assert_eq!(delta.flush().unwrap().applied_ops, 0, "an empty flush is not a cycle");
        assert!(delta.flush_events().is_empty());
        let mut reports = Vec::new();
        for round in 0..3u32 {
            for tid in 300 + round * 10..310 + round * 10 {
                delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
            }
            reports.push(delta.flush().unwrap());
        }

        let snap = metrics.snapshot();
        for phase in ["open", "fold", "commit", "wal", "swap"] {
            let hist = snap.histogram(&format!("delta.flush.{phase}_us")).expect(phase);
            assert_eq!(hist.count, 3, "{phase}");
        }
        let sum = |f: fn(&FlushReport) -> usize| reports.iter().map(f).sum::<usize>() as u64;
        let (partials, nodes) = (sum(|r| r.partials_rewritten), sum(|r| r.nodes_reencoded));
        assert!(partials > 0 && nodes >= partials);
        assert_eq!(snap.counter("delta.flush.partials_rewritten"), Some(partials));
        assert_eq!(snap.counter("delta.flush.nodes_reencoded"), Some(nodes));
        assert_eq!(snap.counter("delta.flush.cold_opens"), Some(0), "warm from the first flush");
        let written = sum(|r| r.rtree_nodes_written);
        assert!(written > 0);
        assert_eq!(snap.counter("delta.flush.rtree_nodes_written"), Some(written));
        let stats = delta.stats();
        assert_eq!(
            (stats.partials_rewritten, stats.nodes_reencoded, stats.cold_opens),
            (partials, nodes, 0)
        );

        let events = delta.flush_events();
        assert_eq!(events.len(), 3);
        for (event, report) in events.iter().zip(&reports) {
            assert_eq!(event.name, "delta.flush");
            let field = |key: &str| {
                event.fields.iter().find(|(k, _)| *k == key).unwrap_or_else(|| panic!("{key}")).1
            };
            assert_eq!(field("generation"), report.generation as f64);
            assert_eq!(field("warm"), 1.0 - report.cold_opens as f64);
            assert_eq!(field("nodes_reencoded"), report.nodes_reencoded as f64);
            assert_eq!(field("rtree_nodes_written"), report.rtree_nodes_written as f64);
            assert_eq!(field("pages_appended"), report.pages_appended as f64);
            let phases: f64 =
                ["open_us", "fold_us", "commit_us", "wal_us", "swap_us"].map(field).iter().sum();
            assert!(phases <= event.dur_us.unwrap() as f64 + 5.0, "phases fit in the cycle");
            assert_eq!(field("writer_hold_us"), report.writer_hold_us as f64);
            assert!(field("writer_hold_us") <= event.dur_us.unwrap() as f64);
            assert_eq!(field("carried_ops"), 0.0, "nothing appended mid-cycle");
        }
        let hold = snap.histogram("delta.flush.writer_hold_us").expect("writer_hold_us");
        assert_eq!(hold.count, 3);
        drop(delta);
        cleanup(&path);
    }

    #[test]
    fn stats_and_validation() {
        let rel = SyntheticSpec { tuples: 100, cardinality: 4, ..Default::default() }.generate();
        let path = temp_path("stats");
        build_base(&rel, &path);
        let delta = DeltaCube::open(&path, rel.clone(), DeltaOptions::default()).unwrap();
        assert!(matches!(
            delta.insert(&[0], &[0.1, 0.2]),
            Err(StorageError::Malformed("insert: wrong selection arity"))
        ));
        assert!(matches!(
            delta.insert(&[0, 0, 0], &[0.1]),
            Err(StorageError::Malformed("insert: wrong ranking arity"))
        ));
        assert!(matches!(delta.delete(500), Err(StorageError::Malformed(_))));
        delta.insert(&[1, 2, 3], &[0.5, 0.5]).unwrap();
        let stats = delta.stats();
        assert_eq!(stats.memtable_ops, 1);
        assert!(stats.wal_bytes > WAL_HEADER_LEN as u64);
        assert_eq!(stats.flushes, 0);
        cleanup(&path);
    }

    #[test]
    fn a_vacuum_reclaims_exactly_what_the_flushes_retired() {
        let full = SyntheticSpec { tuples: 460, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("watermark");
        build_base(&base, &path);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        for round in 0..8u32 {
            for tid in 300 + round * 20..320 + round * 20 {
                delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
            }
            for tid in round * 9..round * 9 + 4 {
                delta.delete(tid).unwrap();
            }
            let report = delta.flush().unwrap();
            assert!(report.rtree_nodes_written > 0 && report.pages_appended > 0);
        }
        drop(delta);
        // Everything the eight commits left behind is on the books: the
        // partials they replaced, the catalogs, R-tree nodes and allocation
        // maps they superseded. The compacted file holds the live rest and
        // one map of its own.
        let before = FileBackend::peek_superblock(&path).unwrap();
        assert!(before.retired_pages > 0);
        let report = crate::vacuum_into_place(&path, &Metrics::disabled(), None).unwrap();
        assert_eq!(report.reclaimed_pages, before.retired_pages);
        let after = FileBackend::peek_superblock(&path).unwrap();
        let maps = u64::from(before.alloc_pages) - u64::from(after.alloc_pages);
        assert_eq!(
            before.page_count - after.page_count,
            before.retired_pages + maps,
            "a vacuum drops the retired pages and nothing else"
        );
        let delta = DeltaCube::open(&path, base, DeltaOptions::default()).unwrap();
        let dropped: Vec<Tid> = (0..8).flat_map(|r| r * 9..r * 9 + 4).collect();
        assert_answers_like_logical(&delta, &full, 460, &dropped);
        drop(delta);
        cleanup(&path);
    }

    #[test]
    fn a_one_insert_flush_writes_one_root_to_leaf_path_of_nodes() {
        for tuples in [5_000, 50_000] {
            let full = SyntheticSpec { tuples: tuples + 1, ..Default::default() }.generate();
            let base = full.prefix(tuples);
            let path = temp_path(&format!("one_insert_{tuples}"));
            let disk = DiskSim::with_defaults();
            let config = RTreeConfig::for_page(4096, base.schema().num_ranking());
            let rtree = RTree::over_relation(&disk, &base, &[], config);
            let cube = SignatureCube::build(&base, &rtree, &disk, SignatureCubeConfig::default());
            cube.save_to(&rtree, &path).unwrap();
            let (height, slots) = (rtree.height(), rtree.node_slots() as usize);
            drop((cube, rtree));

            let metrics = Metrics::new();
            let opts = DeltaOptions { metrics: metrics.clone(), ..Default::default() };
            let delta = DeltaCube::open(&path, base, opts).unwrap();
            let tid = tuples as Tid;
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
            let report = delta.flush().unwrap();
            let written = report.rtree_nodes_written;
            assert!((1..=height + 1).contains(&written), "{tuples}: {written} of {slots} nodes");
            assert_eq!(metrics.counter("delta.flush.rtree_nodes_written").get(), written as u64);
            drop(delta);
            cleanup(&path);
        }
    }

    #[test]
    fn an_insert_with_a_ranking_value_that_is_not_finite_is_refused() {
        let full = SyntheticSpec { tuples: 330, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("not_finite");
        build_base(&base, &path);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        ingest_and_flush(&delta, &full, 300..310);
        for tid in 310..320 {
            delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
        }
        let (wal, answers) = (delta.stats().wal_bytes, served_answers(&delta));
        let sel = sel_of(&full, 320);
        for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for point in [[bad, 0.5], [0.5, bad]] {
                assert!(
                    matches!(
                        delta.insert(&sel, &point),
                        Err(StorageError::Malformed("insert: ranking value not finite"))
                    ),
                    "{point:?}"
                );
            }
        }
        assert_eq!(delta.stats().wal_bytes, wal, "nothing appended");
        assert_eq!(served_answers(&delta), answers, "nothing visible");
        assert_eq!(delta.flush().unwrap().applied_ops, 10);
        assert_answers_like_rebuilt(&delta, &full.prefix(320), "after the flush");
        drop(delta);
        cleanup(&path);
    }

    #[test]
    fn a_quiet_flush_leaves_the_wal_its_header_whatever_the_live_delta_tuples() {
        let full = SyntheticSpec { tuples: 5300, cardinality: 4, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("quiet_wal");
        build_base(&base, &path);
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        let wal_len = || std::fs::metadata(wal_path_for(&path)).unwrap().len();
        // No delta tuple: a flush of base deletes.
        for tid in 0..5 {
            delta.delete(tid).unwrap();
        }
        delta.flush().unwrap();
        assert_eq!(wal_len(), WAL_HEADER_LEN as u64, "0 live delta tuples");
        for (from, to) in [(300, 1300), (1300, 5300)] {
            for tid in from..to {
                delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap();
            }
            assert!(wal_len() > (to - from) as u64 * 40, "the inserts are pending");
            delta.flush().unwrap();
            assert_eq!(wal_len(), WAL_HEADER_LEN as u64, "{} live delta tuples", to - 300);
            assert_eq!(delta.stats().wal_bytes, WAL_HEADER_LEN as u64);
        }
        assert_eq!(delta.serving_cube().tuples.len(), 5300, "the file holds them");
        drop(delta);
        let delta = DeltaCube::open(&path, base, DeltaOptions::default()).unwrap();
        assert_eq!((delta.last_replay().records, delta.memtable_len()), (0, 0));
        assert_answers_like_logical(&delta, &full, 5300, &[0, 1, 2, 3, 4]);
        drop(delta);
        cleanup(&path);
    }

    #[test]
    fn a_v5_cube_file_and_a_v1_wal_are_refused() {
        let rel = SyntheticSpec { tuples: 200, cardinality: 3, ..Default::default() }.generate();
        let path = temp_path("old_formats");
        build_base(&rel, &path);
        let pristine = std::fs::read(&path).unwrap();

        // A v5 file: the layout whose catalog held no selection column.
        let mut bytes = pristine.clone();
        for slot in bytes.chunks_mut(512).take(2) {
            if slot[..8] == rcube_storage::format::MAGIC {
                slot[8..10].copy_from_slice(&5u16.to_le_bytes());
                let crc = crc32(&slot[..76]);
                slot[76..80].copy_from_slice(&crc.to_le_bytes());
            }
        }
        std::fs::write(&path, bytes).unwrap();
        let refused = SignatureCube::open_from_with(&path, 64).map(|_| ());
        assert!(matches!(refused, Err(StorageError::UnsupportedVersion(5))), "{refused:?}");
        let refused = DeltaCube::open(&path, rel.clone(), DeltaOptions::default()).map(|_| ());
        assert!(matches!(refused, Err(StorageError::UnsupportedVersion(5))), "{refused:?}");

        // A v1 WAL: the header that carried `flushed_seq`, and applied
        // records behind it.
        std::fs::write(&path, &pristine).unwrap();
        let mut wal = Vec::new();
        wal.extend_from_slice(WAL_MAGIC);
        wal.extend_from_slice(&1u16.to_le_bytes());
        wal.extend_from_slice(&[0, 0]);
        wal.extend_from_slice(&7u64.to_le_bytes());
        let crc = crc32(&wal);
        wal.extend_from_slice(&crc.to_le_bytes());
        std::fs::write(wal_path_for(&path), &wal).unwrap();
        let refused = DeltaCube::open(&path, rel, DeltaOptions::default()).map(|_| ());
        assert!(matches!(refused, Err(StorageError::UnsupportedVersion(1))), "{refused:?}");
        assert_eq!(std::fs::read(wal_path_for(&path)).unwrap(), wal, "the WAL is left alone");
        cleanup(&path);
    }

    #[test]
    fn a_relation_that_is_not_the_files_base_is_malformed() {
        let full = SyntheticSpec { tuples: 320, cardinality: 3, ..Default::default() }.generate();
        let base = full.prefix(300);
        let path = temp_path("foreign_base");
        build_base(&base, &path);
        let malformed = |rel: Relation| {
            matches!(
                DeltaCube::open(&path, rel, DeltaOptions::default()),
                Err(StorageError::Malformed(_))
            )
        };
        let other_cards =
            SyntheticSpec { tuples: 300, cardinality: 4, ..Default::default() }.generate();
        let other_dims =
            SyntheticSpec { tuples: 300, cardinality: 3, selection_dims: 2, ..Default::default() }
                .generate();
        let other_ranking =
            SyntheticSpec { tuples: 300, cardinality: 3, ranking_dims: 3, ..Default::default() }
                .generate();
        assert!(malformed(other_cards), "another cardinality");
        assert!(malformed(other_dims), "another selection arity");
        assert!(malformed(other_ranking), "another ranking arity");
        assert!(malformed(full.prefix(301)), "more tuples than the file");
        // The file's own base, or a prefix of it, opens; tids come from the
        // file and the WAL, not from the relation.
        for (rel, tid) in [(base.clone(), 300), (full.prefix(100), 301)] {
            let delta = DeltaCube::open(&path, rel, DeltaOptions::default()).unwrap();
            assert_eq!(delta.insert(&sel_of(&full, tid), &full.ranking_point(tid)).unwrap(), tid);
        }
        // Once the file holds the inserted tuples, so may the relation.
        let delta = DeltaCube::open(&path, base, DeltaOptions::default()).unwrap();
        assert_eq!(delta.flush().unwrap().applied_ops, 2);
        drop(delta);
        assert!(DeltaCube::open(&path, full.prefix(302), DeltaOptions::default()).is_ok());
        cleanup(&path);
    }

    #[test]
    fn after_a_vacuum_and_a_reopen_a_split_moves_flushed_delta_tuples() {
        let full = SyntheticSpec { tuples: 300, cardinality: 3, ..Default::default() }.generate();
        let path = temp_path("vacuumed_split");
        fold_base_file(&path, 0.75);
        let base = full.prefix(FOLD_BASE);
        // Every insert lands in one tight cluster, so the second round's
        // leaf splits carry the first round's tuples with them.
        let mut rows: Vec<(Vec<u32>, Vec<f64>)> =
            base.tids().map(|t| (sel_of(&base, t), base.ranking_point(t))).collect();
        let mut ingest = |delta: &DeltaCube, n: u32| {
            for i in 0..n {
                let f = f64::from(i % 13) / 500.0;
                let row = (vec![i % 3, (i / 3) % 3, (i / 9) % 3], vec![0.45 + f, 0.55 - f]);
                assert_eq!(delta.insert(&row.0, &row.1).unwrap() as usize, rows.len());
                rows.push(row);
            }
            delta.flush().unwrap()
        };
        let delta = DeltaCube::open(&path, base.clone(), DeltaOptions::default()).unwrap();
        ingest(&delta, 12);
        let flushed: Vec<Tid> = (FOLD_BASE as Tid..FOLD_BASE as Tid + 12).collect();
        drop(delta);
        crate::vacuum_into_place(&path, &Metrics::disabled(), None).unwrap();

        let delta = DeltaCube::open(&path, base, DeltaOptions::default()).unwrap();
        let path_of = |delta: &DeltaCube, t: Tid| delta.current().rtree.tuple_path(t).unwrap();
        let before: Vec<Vec<u16>> = flushed.iter().map(|&t| path_of(&delta, t)).collect();
        let report = ingest(&delta, 40);
        let moved = flushed.iter().zip(&before).filter(|&(&t, p)| path_of(&delta, t) != *p);
        assert!(moved.count() > 0, "a split moved a flushed delta tuple");
        assert!(report.path_updates > 40);
        let mut b = RelationBuilder::new(full.schema().clone());
        for (sel, point) in &rows {
            b.push(sel, point);
        }
        assert_answers_like_rebuilt(&delta, &b.finish(), "after the split");
        drop(delta);
        cleanup(&path);
    }
}
