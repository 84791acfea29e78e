//! The on-disk cube file format (v6: crash-safe generational commits,
//! persisted vacuum accounting, cross-process writer exclusion, a
//! signature cube's R-tree stored one object per node, and its tuples'
//! selection values in a column of their own).
//!
//! A cube file is a single file of fixed-size pages. Pages 0 and 1 are
//! the two **superblock slots**; every other page carries an 8-byte
//! header followed by payload. All integers are little-endian.
//!
//! # Double-buffered superblock (pages 0–1, first 80 bytes of each slot)
//!
//! Each slot holds one serialized superblock describing a **generation**
//! — a complete, immutable snapshot of the cube. A commit never touches
//! the slot the current generation lives in: the writer appends the new
//! generation's pages, syncs them, then stamps the *inactive* slot with a
//! generation number one higher and syncs again. [`elect_superblock`]
//! picks the winner at open: the CRC-valid slot with the highest
//! generation. A crash anywhere in a commit therefore leaves either the
//! old generation (new slot torn or unwritten → its CRC fails → the old
//! slot wins) or the new one (both syncs landed) — never a mix.
//!
//! | offset | size | field                                             |
//! |--------|------|---------------------------------------------------|
//! | 0      | 8    | magic `b"RCUBEFS1"`                               |
//! | 8      | 2    | format version ([`FORMAT_VERSION`])               |
//! | 10     | 2    | flags (reserved, zero)                            |
//! | 12     | 4    | page size in bytes                                |
//! | 16     | 8    | page count (including both superblock slots)      |
//! | 24     | 8    | catalog object first page (`u64::MAX` = none)     |
//! | 32     | 8    | total object payload bytes                        |
//! | 40     | 8    | object count                                      |
//! | 48     | 8    | allocation-map first page (`u64::MAX` = none)     |
//! | 56     | 4    | allocation-map page count                         |
//! | 60     | 8    | generation number (monotonically increasing)      |
//! | 68     | 8    | retired (vacuum-reclaimable) page count           |
//! | 76     | 4    | CRC-32 over bytes 0..76                           |
//!
//! The version field is the compatibility gate: readers reject files with
//! an unknown version instead of guessing at the layout. Files written by
//! the v1 single-superblock layout, the v3 72-byte superblock (no
//! retired-page field), v4 (a signature cube's whole R-tree serialized
//! inside its catalog) or v5 (a signature catalog with no tuple tail)
//! fail the version gate with [`StorageError::UnsupportedVersion`] and
//! must be re-saved; there is no reader for an older layout.
//!
//! The retired-page count is the background scheduler's watermark
//! signal: a commit retires what the new generation no longer reaches —
//! the old copies of patched objects (partials, R-tree nodes), the
//! catalog it supersedes and the allocation map it replaces — and
//! persisting the tally per generation means `reclaimable_pages()` — and
//! therefore the vacuum trigger — survives a process restart instead of
//! resetting to zero. A vacuum shrinks the file by exactly that count,
//! less the difference between the two files' allocation maps.
//!
//! **Observability.** Every maintenance transition over this format is
//! mirrored into the `rcube_obs` metrics registry: `SignatureCube::commit`
//! records `maintenance.commits` and the `maintenance.generation` gauge
//! (the generation field above), COW patches record
//! `maintenance.cells_replaced` / `maintenance.pages_appended`,
//! `vacuum_to` records `maintenance.pages_reclaimed`, `scrub_path`
//! records clean vs rolled-back outcomes, and scripted fault injections
//! trip `*.fault.write_trips` / `*.fault.read_trips` (see
//! `crate::fault`). The buffer pool serving these pages exports live
//! `{prefix}.pool.hits/misses/evictions` counters.
//!
//! # Page header (every page except the superblock, 8 bytes)
//!
//! | offset | size | field                                              |
//! |--------|------|----------------------------------------------------|
//! | 0      | 4    | CRC-32 over bytes 4..page_size (header + payload + padding) |
//! | 4      | 1    | page type ([`PageType`])                           |
//! | 5      | 1    | flags (bit 0: a continuation page follows)         |
//! | 6      | 2    | payload length in this page                        |
//!
//! Unused tail bytes are written as zero and covered by the checksum, so a
//! bit flip anywhere in the page — header, payload or padding — fails
//! verification.
//!
//! # Objects
//!
//! A stored object occupies one [`PageType::ObjFirst`] page followed by
//! zero or more consecutive [`PageType::ObjCont`] pages. The first page's
//! payload starts with the object's total length as a `u32`, then the data;
//! continuation pages are pure data. The continuation flag chains the
//! covering pages, and the length prefix bounds the read — a truncated
//! chain surfaces as [`StorageError::TruncatedObject`], never as a short
//! silent read.
//!
//! # Allocation map
//!
//! [`PageType::AllocMap`] pages hold a bitmap with one bit per page
//! (bit set = allocated). The writer allocates append-only, so the map is
//! dense per generation; it exists so the vacuum pass can account for
//! pages unreachable from the live generation, and it gives `open` a
//! cheap structural check: every page below the elected generation's
//! `page_count` must be marked allocated.
//!
//! # Catalogs
//!
//! The superblock's catalog pointer names one ordinary object whose first
//! byte is a *kind tag* interpreted by the cube layer (`rcube_core`):
//! `7` grid cube (whatever cuboids it materializes, ranking fragments
//! included), `4` signature cube. Readers reject a mismatched tag with a
//! typed error, so a catalog-, cell- or block-layout change is shipped as
//! a new tag rather than a silent reinterpretation. Retired tags fail to
//! open with the kind-mismatch error, and their files must be re-saved:
//! tag `6` (base blocks of `[tid u32][f64 × R]` records, the tids
//! repeating the partition's), tag `5` (packed cells whose directory
//! entries were a fixed `[bid u32][base u32][end u32]` with no box, and a
//! partition table of `u64` counts and `u32` tids), tag `1` (a grid
//! catalog naming one object per cell, each cell with its own value
//! count, before cells were packed into shared segments) and tag `2` (a
//! fragments-configured grid cube behind two extra integers). Tag `3`
//! (the original signature-cube catalog) is retired too: it carried a
//! per-node `sid → partial` pair list per cell; tag `4` stores, per cell,
//! the signature depth plus one *first-SID* entry per partial — BFS write
//! order makes SIDs strictly increasing, so that sorted array replaces
//! the map (binary search) and shrinks the catalog from O(nodes) to
//! O(partials). Files written with tag 3 fail to open with a
//! kind-mismatch error and must be re-saved.
//!
//! **Grid catalog (tag 7).** All integers little-endian:
//!
//! | field                  | encoding                                        |
//! |------------------------|-------------------------------------------------|
//! | kind tag               | `u8` = 7                                        |
//! | block size `P`         | `u64`                                           |
//! | ranking dimensions     | count `u64`, then each `u64`                    |
//! | partition              | byte length `u64`, then bins, dims and bin edges (`u64` / `f64`), block count `u64`, and per block a LEB128 tid count and LEB128 gaps between its ascending tids, the first from 0 (`rcube_index::grid`) |
//! | base-block table       | block count `u64`, then one `u64` object id per block (`u64::MAX` exactly for a block with no tids) |
//! | cuboid directory       | cuboid count `u64`; per cuboid: dims (count `u64`, each `u64`), scale factor `u64`, cell count `u64`, then per cell its values (`u32` per dim), pid `u32`, object `u64`, start `u32`, length `u32` |
//!
//! A cell is `length` bytes from `start` in the object it names. The
//! writer packs consecutive small cells, in directory order, into one
//! *segment* object for as long as they fit one page's payload
//! (`page_size − 8 − 4`); a cell too big for a page alone is an object of
//! its own (start 0). A segment never spans two pages, so fetching a cell
//! reads the pages it would read alone. A reference that runs past its
//! object's end is a malformed file, reported by the first read of it.
//!
//! **Grid base block.** `n × R` little-endian `f64`s, row-major: the
//! ranking values, over the catalog's ranking dimensions, of the block's
//! `n` tids in the partition's (ascending) order — record `i` belongs to
//! the block's `i`-th tid, and no tid is stored in the block. An object
//! of any other length is a malformed file.
//!
//! **Grid cell** (`rcube_core::gridcube::encode_cell`). One entry per base
//! block the cell has tuples in, sorted by bid, then the entries' posting
//! lists (`rcube_core::idlist`, relative to the entry's `base`):
//!
//! | field        | encoding                                                  |
//! |--------------|-----------------------------------------------------------|
//! | entry count  | `u32`                                                     |
//! | widths       | `u16`: bytes of `bid`, `base` and `end` in nibbles 0–2, each 0..=4; nibble 3 is 0 |
//! | entries      | per entry: `bid`, `base` (the block's smallest tid in the cell) and `end` (the cumulative list offset), each little-endian in its width, then one box byte per ranking dimension of the partition |
//! | lists        | the concatenated posting lists                            |
//!
//! An entry whose `end` equals the one before (0 for the first) has no
//! list: it is a *singleton*, its one tuple `base`. A box byte holds the
//! first (low nibble) and last (high nibble) sixteenth of the block's bin,
//! on that dimension, that the entry's tuples occupy, rounded outward: the
//! box `[edge(first), edge(last + 1)]`, with `edge(j) = min(lo + (hi − lo)
//! · j / 16, hi)` and `edge(16) = hi`, holds every one of them. A width
//! above 4, a directory running past the cell, an `end` below the one
//! before it or past the lists, and a box whose first sixteenth lies above
//! its last are malformed files, reported by the read that meets them.
//!
//! **Signature catalog (tag 4, v6).** All integers little-endian:
//!
//! | field                  | encoding                                        |
//! |------------------------|-------------------------------------------------|
//! | kind tag               | `u8` = 4                                        |
//! | fanout `m`, `α`        | `u64`, `f64`                                    |
//! | cuboid directory       | per cuboid: dims, then per cell its values, `total_bits`, depth, partial page ids and first SIDs |
//! | R-tree header          | dims `u64` · root `u32` · height `u64` · `M` `u64` · `m` `u64` · bulk fill `f64` |
//! | R-tree node table      | node count `u64`, then one `u64` object id per node id |
//! | selection schema       | dimension count `u64`, then each cardinality `C_d` `u32` |
//! | tuple count            | `u64`: tids `0..count` have a column entry      |
//! | `flushed_seq`          | `u64`: the last WAL seq folded into this generation |
//! | chunk size             | `u64`: tuples per column chunk                  |
//! | column chunk table     | chunk count `u64`, then one `u64` object id per chunk |
//!
//! The R-tree is stored **one object per node** (`rcube_index::rtree`):
//! node id `u32` (checked against its table slot) · modelled page id
//! `u64` · parent `u32` (`u32::MAX` = none) · MBR (`lo`, `hi` `f64` per
//! dimension) · kind `u8` (0 internal, 1 leaf) · entry count `u32` ·
//! child ids `u32` each, or per leaf entry tid `u32` + point `f64` per
//! dimension. A commit appends only the nodes maintenance changed; every
//! other table entry names the object an earlier generation wrote, so
//! consecutive generations share them the way they share untouched
//! partials. A node larger than one page spans several through the
//! ordinary object framing.
//!
//! The **selection column** stores each tuple's selection values,
//! ⌈log₂ C_d⌉ bits per dimension, dimension after dimension, tid after
//! tid, MSB-first. It is cut by tid range into chunks of as many tuples as
//! one page's payload holds (`(page_size − 8 − 4) · 8 / Σ⌈log₂ C_d⌉`, the
//! length prefix taking 4 bytes); chunk *i* holds tids `i·size ..` and is
//! exactly as many bytes as its tuples' bits need. A commit appends only
//! the chunks it changed — new tids land in the last one or two — and
//! shares the rest, like node objects. A tid below the tuple count that no
//! tuple of the R-tree carries (allocated, then deleted before it was
//! folded) holds zeros. Node objects, column chunks and the catalog are
//! metadata: never charged as query I/O, never counted in `total_bytes` /
//! `object_count`.
//!
//! # Generations, commits and copy-on-write
//!
//! Every committed generation is an immutable value — the cube-algebra
//! view of OLAP instances as values that operators map between. The rules:
//!
//! * **Pages of a committed generation are immutable.** A writer patches
//!   an object by appending a *new* copy (new page ids) and publishing a
//!   catalog that points at it; the untouched objects keep their pages,
//!   shared byte-identically across generations. In-place `overwrite` is
//!   legal only on pages appended after the last commit (an object the
//!   current, still-unpublished generation owns outright); overwriting a
//!   committed page is rejected with
//!   [`StorageError::ImmutableGeneration`].
//! * **Commit protocol.** Append data pages → append the allocation map →
//!   `fsync` → stamp the inactive superblock slot with `generation + 1` →
//!   `fsync`. The single slot write is the publish point; everything
//!   before it is invisible to an election.
//! * **Readers pin their generation at open.** A read-only handle loads
//!   the elected slot's metadata once into atomics and never reads past
//!   that generation's `page_count`; later commits only append pages and
//!   flip the *other* slot, so a pinned reader keeps streaming its
//!   generation byte-identically with no coordination whatsoever — there
//!   is no reader-quiescence requirement anywhere in the format.
//! * **Rollback.** Because the previous generation's slot is intact until
//!   the commit after next, a scrub that finds the newest generation
//!   corrupt can zero its slot and the file reopens on the previous one.
//!
//! # Concurrency model
//!
//! The format is **single-writer, many-reader**:
//!
//! * **Who may write.** One writable handle (`create` or
//!   `open_writable`); `put`/`overwrite`/`flush` serialize on one writer
//!   mutex inside [`crate::FileBackend`]. A file opened with `open` is
//!   *read-only*: every mutator returns [`StorageError::ReadOnly`], and
//!   nothing in the open path ever writes. Readers race appends and
//!   commits freely — see the generation rules above.
//! * **What read-only means.** A read-only handle's pages are immutable
//!   (its generation is committed), so readers need no coordination at
//!   all: each page fetch is an independent positional read (`pread`)
//!   validated against its CRC, and file metadata (page count, catalog
//!   pointer, totals) is loaded once from the elected slot into atomics.
//!   Any number of threads may share one [`crate::FileBackend`] /
//!   [`crate::PageStore`] handle.
//! * **Buffer-pool shards.** Cached object frames live in a lock-striped
//!   [`crate::BufferPool`]: frames are immutable `Arc<[u8]>` snapshots
//!   keyed by first page id, each shard an independent page-weighted LRU
//!   under its own mutex. A frame handed out stays valid (readers hold the
//!   `Arc`) even if its shard evicts it concurrently.
//! * **Node-cache invalidation.** Decoded-signature caches layered above
//!   this format (`rcube_core`'s shared node cache) key entries by
//!   `(first page id of the partial, SID)`. Page ids are never reused —
//!   the writer appends, and COW gives a patched object fresh ids — so a
//!   key uniquely names immutable bytes across generations. Maintenance
//!   invalidates only the page ids it retired; entries for untouched
//!   partials stay valid through a commit.
//!
//! # Locking & swap protocol
//!
//! The single-writer rule above is enforced *across processes* by an
//! advisory lock file, and page reclamation is published by an atomic
//! whole-file swap. Both are implemented in `crate::lock` and the
//! vacuum path of `rcube_core`; this section is the normative spec.
//!
//! **Lock file.** A writable handle on `<path>` owns `<path>.lock`:
//!
//! * *Layout*: the owner's PID in ASCII decimal, nothing else.
//! * *Acquisition*: `O_CREAT | O_EXCL` creation (the one primitive every
//!   target filesystem makes atomic; no `flock` binding is used — this
//!   workspace is dependency-free). Creation failure means the lock is
//!   held: the owner PID is read and probed for liveness (`/proc/<pid>`
//!   on Linux; elsewhere there is no portable probe, so owners are
//!   conservatively presumed alive and stale locks need manual removal).
//!   A live owner → typed `StorageError::WriterLocked { owner_pid }`,
//!   fail-fast, never blocks. A dead or unparseable owner → *stale
//!   takeover*: remove the file and retry (bounded), so a crashed
//!   writer's lock heals itself on the next open.
//! * *Release*: unlink on drop of the writable handle. A writer that
//!   dies without unlinking is exactly the stale case above.
//!
//! **Vacuum swap.** Compaction rewrites the live generation into a
//! sibling temp file (`<path>.vacuum`) and publishes it atomically:
//!
//! 1. acquire `<path>.lock` (writers and other vacuums excluded for the
//!    whole window; readers are never excluded),
//! 2. open the source read-only and copy its live objects into the temp
//!    file (a complete v6 cube file with a fresh generation history),
//! 3. `fsync` the temp file,
//! 4. `rename(2)` it over `<path>` — the atomic publish point,
//! 5. `fsync` the parent directory, release the lock.
//!
//! **Crash model.** A crash before the rename leaves `<path>` untouched
//! (temp garbage is overwritten by the next vacuum); a crash after it
//! leaves the fully-synced compacted file. Every boundary is
//! fault-scriptable (`crate::fault::SwapStage`) and swept in tests: any
//! crash reopens to a valid generation — old file or new, never a torn
//! hybrid. Readers survive the swap because rename only unlinks the
//! *name*: a pinned reader's file descriptor keeps the retired inode
//! alive and byte-identical until the handle drops, while every open
//! after the rename elects the compacted file. The compacted file's
//! page ids are all fresh, so caches keyed by first page id are
//! invalidated wholesale by swapping the cube handle.
//!
//! # Shard manifest
//!
//! A *partitioned* cube set is N ordinary cube files — each one a
//! complete, self-checksummed unit in the format above, with its own
//! buffer pool and generation history — plus one small manifest file
//! binding them into a set (see [`crate::manifest`] for the exact
//! layout). Every shard is a grid cube: the manifest's engine byte is
//! always 1, and one naming anything else is a typed
//! [`StorageError::Malformed`]. Per shard it records the cube file name
//! (relative, so the whole directory relocates), its tuple count, the
//! tight box of its ranking points and the ascending global tids its
//! local tids stand for (delta + LEB128 coded); the lists together hold
//! every tid `0..N` once. A trailing CRC-32 stamps the whole thing.
//!
//! * **Versioning.** The manifest carries its own version field
//!   ([`crate::manifest::MANIFEST_VERSION`]), gated at open exactly like
//!   cube-file versions: unknown versions are a typed
//!   [`StorageError::UnsupportedVersion`], never a layout guess.
//! * **Open election.** Publication is temp-file + `fsync` + atomic
//!   `rename(2)` — the same single-candidate election as the vacuum
//!   swap: a crash mid-publish leaves the old manifest, a crash after
//!   leaves the new one, and the CRC rejects torn or bit-flipped bytes.
//!   Each shard file then runs its *own* double-buffered superblock
//!   election at open, so manifest durability and shard durability
//!   compose without coordination.
//! * **Degradation unit.** Because shards share nothing, a corrupted
//!   shard file fails its own open/verify with a typed error while the
//!   remaining shards keep serving — the serving layer quarantines
//!   per-(route, shard), not per-route.
//!
//! # WAL & delta merge protocol
//!
//! The LSM delta layer (`rcube_core::delta`) pairs a cube file with an
//! append-only write-ahead log at the sibling path `<path>.wal`. The WAL
//! is *not* a paged file: it is a flat CRC-framed record stream, because
//! appends must be cheap (one write + `fdatasync`) and torn tails must
//! be distinguishable from body corruption.
//!
//! **Header** (16 bytes, WAL v2): magic `b"RCUBWAL1"` (8) · version
//! `u16` LE · flags `u16` (reserved zero) · CRC-32 over bytes 0..12. Bad
//! magic, unknown version (a v1 WAL, whose 24-byte header carried
//! `flushed_seq`, included), or a header CRC mismatch are typed errors
//! ([`StorageError::BadMagic`], [`StorageError::UnsupportedVersion`],
//! [`StorageError::ChecksumMismatch`]).
//!
//! **Records**: each frame is `[len u32][crc u32][payload]`, CRC-32 over
//! the payload. Payloads start `seq u64 · kind u8 · tid u32`; kinds are
//! *upsert* (1, followed by `nsel u16 · u32×nsel · npt u16 · f64-bits
//! u64×npt`) and *delete* (2). Nothing else: the cube file holds every
//! tuple a flush folded, selection values included (the column above),
//! and records the last seq it folded (`flushed_seq` in the catalog).
//! Replay skips every frame at or below the elected generation's
//! `flushed_seq` — the file holds it — and re-enters the rest.
//!
//! **Replay classification** (the single load-bearing rule): a frame
//! whose declared body runs to or past end-of-file, or whose CRC fails
//! on the *last* frame, is a **torn tail** — the crash-mid-append case —
//! and replay succeeds with the clean prefix (the writable open
//! truncates the tail). A CRC or structure failure with more valid data
//! *behind* it cannot be a torn append and surfaces as a typed error
//! instead: that is body corruption, and the delta layer refuses to
//! serve a guess.
//!
//! **Flush fold**: the pending section folds into the cube file as one
//! batch, not op by op. Every R-tree insert/delete of the snapshot runs
//! first; their path-update sets are coalesced per tid — keep the *first*
//! old path and the *last* new path, drop a tuple that ends where it
//! started — and the net set is applied once, so each touched cell is
//! spliced exactly once per flush: only the partials holding a node on a
//! changed path are read, only the nodes whose bits changed are
//! re-encoded, and only the partials holding one of those are
//! COW-appended — the other nodes of a rewritten partial are copied as
//! the bit ranges they occupied, the other partials of the cell keep
//! their pages (`rcube_core::maintain`). The order of the ops inside
//! the batch cannot matter to the bytes that count: a cell signature is
//! a pure function of the *set* of tuple paths in the cell, first old
//! paths are distinct (they coexisted before the batch) and last new
//! paths are distinct (they coexist after it), and all clears run before
//! any set. Nothing about the on-disk format changes.
//!
//! **The warm path.** A flush needs the catalog — cuboid directory and
//! R-tree — of the generation it patches. A process that flushed before
//! already holds it: the handle it serves from was built from the very
//! directory and tree its last commit serialized — and a process that
//! just opened the file holds the catalog it parsed. So each published
//! handle remembers the [`crate::FileStamp`] of that commit, and the
//! handle the open parsed the stamp of what it parsed (device and inode
//! of the descriptor, generation, page count, catalog page), and
//! the next flush, *after* taking the writer lock, compares it with the
//! stamp of the file it just opened for writing. Equal stamps mean the
//! same inode (the serving handle's open descriptor pins it, so the
//! number cannot have been recycled) electing the same superblock; under
//! the lock nobody else can commit or swap, so the stored catalog is the
//! bytes this process wrote from, or parsed into, what it holds in
//! memory, and parsing them would rebuild exactly that. The flush then clones the directory
//! and the R-tree (copy-on-write: one pointer per node) instead of
//! reading the catalog and every R-tree node object back — the clone
//! also remembers which object stores each node, so the commit appends
//! only the nodes the fold changed — and after the commit hands both to
//! the next serving handle over a freshly opened read-only store —
//! opened before the lock is released and checked against the commit's
//! stamp the same way. Anything else is **cold** and parses the catalog
//! as before: a vacuum swap (another inode), a foreign commit
//! (another generation), a flush of its own that committed and then
//! failed before swapping (the file is ahead of the serving handle), or
//! a platform without file identity. The decision reads nothing but
//! those stamps.
//!
//! **The WAL hand-over** reuses the vacuum's publish protocol to drop the
//! frames a commit folded: under the append mutex, a new WAL image — the
//! header, then the frames appended since the flush's snapshot, byte for
//! byte — is written to `<path>.wal.new`, fsynced, and renamed over
//! `<path>.wal`, crash-scriptable at the same
//! [`crate::fault::SwapStage`] boundaries. It costs what the flush
//! carries, not what earlier flushes folded: a quiet flush writes the
//! 16-byte header. The temp file is opened read+write and *that
//! descriptor* becomes the append handle: a descriptor follows its inode
//! through the rename, so once [`crate::FileBackend::swap_in`] returns
//! there is nothing left to open and nothing that can fail between the
//! rename and the in-process swap (append handle, serving generation,
//! memtable). The parent-directory fsync runs after the append handle
//! has moved and only gates the flush's own success report. The flush
//! orders cube commit *before* WAL hand-over, and the commit stamps the
//! snapshot's last seq as `flushed_seq`, so every crash point reopens to
//! the acknowledged ops: before the commit the old generation plus the
//! full WAL; between commit and rename the new generation, whose
//! `flushed_seq` makes replay skip the frames it folded; after the
//! rename both files agree. A flush of this process that committed and
//! then failed leaves the same pair, and the next flush folds only the
//! ops above the file's `flushed_seq`.

use crate::backend::StorageError;

/// File magic, bytes 0..8 of the superblock.
pub const MAGIC: [u8; 8] = *b"RCUBEFS1";

/// Current format version (superblock bytes 8..10).
pub const FORMAT_VERSION: u16 = 6;

/// Bytes of per-page header preceding the payload.
pub const PAGE_HEADER: usize = 8;

/// Serialized superblock length (the rest of a slot page is zero padding).
pub const SUPERBLOCK_LEN: usize = 80;

/// Number of superblock slot pages at the head of the file.
pub const SUPERBLOCK_SLOTS: u64 = 2;

/// First data page (pages 0..[`SUPERBLOCK_SLOTS`] are the slots).
pub const DATA_START: u64 = SUPERBLOCK_SLOTS;

/// Smallest supported page size (must hold the superblock).
pub const MIN_PAGE_SIZE: usize = 128;

/// Largest supported page size (payload length is a `u16`).
pub const MAX_PAGE_SIZE: usize = 65_536;

/// Sentinel for "no page" in superblock pointers.
pub const NO_PAGE: u64 = u64::MAX;

/// Page type byte (header offset 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum PageType {
    /// First page of a stored object (payload begins with the total length).
    ObjFirst = 1,
    /// Continuation page of a multi-page object.
    ObjCont = 2,
    /// Allocation-bitmap page.
    AllocMap = 3,
}

impl PageType {
    /// Decodes a type byte, reporting the offending page on failure.
    pub fn decode(byte: u8, page: u64) -> Result<Self, StorageError> {
        match byte {
            1 => Ok(Self::ObjFirst),
            2 => Ok(Self::ObjCont),
            3 => Ok(Self::AllocMap),
            other => Err(StorageError::BadPageType { page, found: other }),
        }
    }
}

/// Continuation flag (header offset 5, bit 0): more pages of this object
/// follow on the next page id.
pub const FLAG_CONTINUES: u8 = 0b0000_0001;

// --- CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) -----------------------
//
// The single checksum of the storage layer: page headers, superblock
// slots, WAL headers and frames, and the shard manifest all call
// [`crc32`], so every miss, every page `flush` writes and every WAL append
// pays for it — it is the floor under cold-read latency.
//
// The kernel is slice-by-16 (Kounavis & Berry's slicing, four words per
// step): sixteen `const`-generated 256-entry tables, where
// `CRC_TABLES[k][b]` is the CRC state after byte `b` followed by `k` zero
// bytes. One step folds the 32-bit state into the first of four
// little-endian words and looks the sixteen bytes up independently, so the
// loop-carried dependency is one table load and an XOR tree per 16 bytes
// instead of one load per byte. Words are assembled with `from_le_bytes`,
// so the input needs no alignment; the tail shorter than a step takes the
// classic bytewise step on table 0. Slice-by-8 was measured too: on the
// `grid_cold` workload of the benchmark of record the 16 KB of tables
// still pay (≈ +12 % qps over slice-by-8), so 16 it is. The bytewise loop
// this replaced is kept under `#[cfg(test)]` as the reference the kernel
// is proven against.
//
// The polynomial stays IEEE: values are bit-identical to what every
// existing file, WAL and manifest carries, so nothing about the format
// moves. CRC-32C has a hardware instruction (SSE4.2 `crc32`), but using it
// would need a format-version bump for a different polynomial *and*
// `unsafe` intrinsics; PCLMUL folding of the IEEE polynomial needs the
// latter too. This workspace has zero `unsafe` and keeps it so.

/// Bytes folded per step of the kernel (= table count).
const CRC_SLICES: usize = 16;

const fn crc32_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut tables = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // Table k advances table k-1 by one more (zero) byte.
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; CRC_SLICES] = crc32_tables();

/// CRC-32 of `data` (IEEE polynomial, as used by zip/png).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(CRC_SLICES);
    for w in &mut words {
        let w0 = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let w1 = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        let w2 = u32::from_le_bytes([w[8], w[9], w[10], w[11]]);
        let w3 = u32::from_le_bytes([w[12], w[13], w[14], w[15]]);
        // Byte i of the step has 15 - i bytes after it: table 15 - i.
        c = t[15][(w0 & 0xFF) as usize]
            ^ t[14][(w0 >> 8 & 0xFF) as usize]
            ^ t[13][(w0 >> 16 & 0xFF) as usize]
            ^ t[12][(w0 >> 24) as usize]
            ^ t[11][(w1 & 0xFF) as usize]
            ^ t[10][(w1 >> 8 & 0xFF) as usize]
            ^ t[9][(w1 >> 16 & 0xFF) as usize]
            ^ t[8][(w1 >> 24) as usize]
            ^ t[7][(w2 & 0xFF) as usize]
            ^ t[6][(w2 >> 8 & 0xFF) as usize]
            ^ t[5][(w2 >> 16 & 0xFF) as usize]
            ^ t[4][(w2 >> 24) as usize]
            ^ t[3][(w3 & 0xFF) as usize]
            ^ t[2][(w3 >> 8 & 0xFF) as usize]
            ^ t[1][(w3 >> 16 & 0xFF) as usize]
            ^ t[0][(w3 >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --- Page encode / verify ---------------------------------------------------

/// Fills `page` (a zeroed `page_size` buffer) with a header + payload and
/// stamps the checksum. `payload` must fit `page.len() - PAGE_HEADER`.
pub fn encode_page(page: &mut [u8], ptype: PageType, flags: u8, payload: &[u8]) {
    debug_assert!(payload.len() <= page.len() - PAGE_HEADER);
    page[4] = ptype as u8;
    page[5] = flags;
    page[6..8].copy_from_slice(&(payload.len() as u16).to_le_bytes());
    page[PAGE_HEADER..PAGE_HEADER + payload.len()].copy_from_slice(payload);
    // Zero the tail so the checksum covers deterministic padding.
    for b in &mut page[PAGE_HEADER + payload.len()..] {
        *b = 0;
    }
    let crc = crc32(&page[4..]);
    page[0..4].copy_from_slice(&crc.to_le_bytes());
}

/// Verified view of a page: its type, continuation flag and payload slice.
#[derive(Debug)]
pub struct PageView<'a> {
    pub ptype: PageType,
    pub continues: bool,
    pub payload: &'a [u8],
}

/// Validates a raw page (CRC first, then type and length) and returns the
/// payload view. `page_id` only labels the error.
pub fn decode_page(page: &[u8], page_id: u64) -> Result<PageView<'_>, StorageError> {
    if page.len() < PAGE_HEADER {
        return Err(StorageError::BadLength { page: page_id, len: page.len(), max: PAGE_HEADER });
    }
    let stored = u32::from_le_bytes(page[0..4].try_into().unwrap());
    if crc32(&page[4..]) != stored {
        return Err(StorageError::ChecksumMismatch { page: page_id });
    }
    let ptype = PageType::decode(page[4], page_id)?;
    let len = u16::from_le_bytes(page[6..8].try_into().unwrap()) as usize;
    let max = page.len() - PAGE_HEADER;
    if len > max {
        return Err(StorageError::BadLength { page: page_id, len, max });
    }
    Ok(PageView {
        ptype,
        continues: page[5] & FLAG_CONTINUES != 0,
        payload: &page[PAGE_HEADER..PAGE_HEADER + len],
    })
}

// --- Superblock -------------------------------------------------------------

/// Decoded superblock fields (one slot = one committed generation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    pub page_size: u32,
    pub page_count: u64,
    /// First page of the catalog object, if one was recorded.
    pub catalog_first: Option<u64>,
    pub total_bytes: u64,
    pub object_count: u64,
    /// First page of the allocation bitmap, if flushed.
    pub alloc_first: Option<u64>,
    pub alloc_pages: u32,
    /// Monotonically increasing commit number; the valid slot with the
    /// highest generation wins the election at open.
    pub generation: u64,
    /// Pages retired by COW maintenance as of this generation — the
    /// vacuum scheduler's persisted watermark signal.
    pub retired_pages: u64,
}

impl Superblock {
    /// Encodes into the first [`SUPERBLOCK_LEN`] bytes of `page` (a slot
    /// page), zeroing the rest.
    pub fn encode(&self, page: &mut [u8]) {
        for b in page.iter_mut() {
            *b = 0;
        }
        page[0..8].copy_from_slice(&MAGIC);
        page[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        // 10..12 flags: zero.
        page[12..16].copy_from_slice(&self.page_size.to_le_bytes());
        page[16..24].copy_from_slice(&self.page_count.to_le_bytes());
        page[24..32].copy_from_slice(&self.catalog_first.unwrap_or(NO_PAGE).to_le_bytes());
        page[32..40].copy_from_slice(&self.total_bytes.to_le_bytes());
        page[40..48].copy_from_slice(&self.object_count.to_le_bytes());
        page[48..56].copy_from_slice(&self.alloc_first.unwrap_or(NO_PAGE).to_le_bytes());
        page[56..60].copy_from_slice(&self.alloc_pages.to_le_bytes());
        page[60..68].copy_from_slice(&self.generation.to_le_bytes());
        page[68..76].copy_from_slice(&self.retired_pages.to_le_bytes());
        let crc = crc32(&page[0..76]);
        page[76..80].copy_from_slice(&crc.to_le_bytes());
    }

    /// Decodes and validates one slot: magic, checksum, version, page-size
    /// bounds. `slot_page` labels errors (0 or 1).
    pub fn decode_slot(page: &[u8], slot_page: u64) -> Result<Self, StorageError> {
        if page.len() < SUPERBLOCK_LEN {
            return Err(StorageError::BadLength {
                page: slot_page,
                len: page.len(),
                max: SUPERBLOCK_LEN,
            });
        }
        if page[0..8] != MAGIC {
            return Err(StorageError::BadMagic);
        }
        let stored = u32::from_le_bytes(page[76..80].try_into().unwrap());
        if crc32(&page[0..76]) != stored {
            return Err(StorageError::ChecksumMismatch { page: slot_page });
        }
        let version = u16::from_le_bytes(page[8..10].try_into().unwrap());
        if version != FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion(version));
        }
        let page_size = u32::from_le_bytes(page[12..16].try_into().unwrap());
        if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&(page_size as usize)) {
            return Err(StorageError::BadLength {
                page: slot_page,
                len: page_size as usize,
                max: MAX_PAGE_SIZE,
            });
        }
        let word = |o: usize| u64::from_le_bytes(page[o..o + 8].try_into().unwrap());
        let optional = |v: u64| if v == NO_PAGE { None } else { Some(v) };
        Ok(Self {
            page_size,
            page_count: word(16),
            catalog_first: optional(word(24)),
            total_bytes: word(32),
            object_count: word(40),
            alloc_first: optional(word(48)),
            alloc_pages: u32::from_le_bytes(page[56..60].try_into().unwrap()),
            generation: word(60),
            retired_pages: word(68),
        })
    }

    /// [`Self::decode_slot`] for slot 0 (compat helper for tests).
    pub fn decode(page: &[u8]) -> Result<Self, StorageError> {
        Self::decode_slot(page, 0)
    }
}

/// The outcome of [`elect_superblock`].
#[derive(Debug, Clone, Copy)]
pub struct Election {
    /// The live generation's superblock.
    pub winner: Superblock,
    /// The slot (0 or 1) holding it; the loser's is the other one.
    pub slot: u64,
    /// The losing slot's superblock when it is valid too — the previous
    /// generation, still whole.
    pub previous: Option<Superblock>,
}

/// Elects the live generation from the two decoded slots
/// ([`Superblock::decode_slot`] of slot 0 and slot 1): the valid slot
/// with the highest generation wins (ties cannot happen — a commit always
/// increments). An invalid slot is a *candidate rejection*, not an error:
/// a crash mid-commit legitimately leaves one slot torn. Only when both
/// slots fail does the election fail, reporting slot 0's error (a foreign
/// file surfaces as [`StorageError::BadMagic`], a corrupt one as a
/// checksum mismatch).
pub fn elect_superblock(
    slot0: Result<Superblock, StorageError>,
    slot1: Result<Superblock, StorageError>,
) -> Result<Election, StorageError> {
    match (slot0, slot1) {
        (Ok(a), Ok(b)) if a.generation >= b.generation => {
            Ok(Election { winner: a, slot: 0, previous: Some(b) })
        }
        (Ok(a), Ok(b)) => Ok(Election { winner: b, slot: 1, previous: Some(a) }),
        (Ok(a), Err(_)) => Ok(Election { winner: a, slot: 0, previous: None }),
        (Err(_), Ok(b)) => Ok(Election { winner: b, slot: 1, previous: None }),
        (Err(e0), Err(_)) => Err(e0),
    }
}

// --- Bounded byte reader / writer (catalog serialization) -------------------

/// Append-only byte writer used for cube catalogs.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer whose buffer already holds room for `bytes`.
    pub fn with_capacity(bytes: usize) -> Self {
        Self { buf: Vec::with_capacity(bytes) }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed (u64) byte run.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Raw byte run, no length prefix (fixed-size fields like magics).
    pub fn put_bytes_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// LEB128: 7 value bits per byte, low group first, high continuation bit.
    pub fn put_varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }
}

/// Bounded reader over catalog, manifest and WAL bytes: every read is
/// checked, so truncated or garbled input surfaces as
/// [`StorageError::Malformed`] instead of a panic.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(StorageError::Malformed("catalog truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], StorageError> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    pub fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, StorageError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    pub fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    pub fn f64(&mut self) -> Result<f64, StorageError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// Checked u64 → usize for counts; rejects absurd values early so a
    /// corrupted count cannot drive a huge allocation.
    pub fn count(&mut self, limit: usize) -> Result<usize, StorageError> {
        let v = self.u64()?;
        if v > limit as u64 {
            return Err(StorageError::Malformed("catalog count out of range"));
        }
        Ok(v as usize)
    }

    /// Length-prefixed byte run written by [`ByteWriter::put_bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], StorageError> {
        let n = self.count(self.remaining())?;
        self.take(n)
    }

    /// A value written by [`ByteWriter::put_varint`]; one that runs past
    /// 64 bits is malformed.
    pub fn varint(&mut self) -> Result<u64, StorageError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                break;
            }
            v |= u64::from(b & 0x7F) << shift;
            if b < 0x80 {
                return Ok(v);
            }
        }
        Err(StorageError::Malformed("varint runs past 64 bits"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop the word-at-a-time kernel replaced:
    /// the reference every kernel test compares against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
        }
        // A second published vector, long enough to cross word steps.
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_kernel_equals_bytewise_at_every_length_and_offset() {
        // Two pages and a ragged tail of non-repeating bytes; every start
        // offset within a word × every length, so each combination of
        // pointer alignment, word count and tail length is hit.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..2 * 4096 + 17 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=2 * 4096 + 17 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start}, len {len}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn crc32_kernel_equals_bytewise_on_random_buffers(
            data in proptest::collection::vec(0u32..256, 0..3000),
            start in 0usize..16,
        ) {
            let data: Vec<u8> = data.into_iter().map(|b| b as u8).collect();
            let data = &data[start.min(data.len())..];
            proptest::prop_assert_eq!(crc32(data), crc32_bytewise(data));
        }
    }

    #[test]
    fn encode_page_stamps_the_reference_checksum() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 7 + 3) as u8).collect();
        for size in [128usize, 256, 4096] {
            let payload = &payload[..payload.len().min(size - PAGE_HEADER)];
            // A dirty buffer: the stamp must cover the zeroed tail, not
            // whatever the buffer held.
            let mut page = vec![0xEEu8; size];
            encode_page(&mut page, PageType::ObjFirst, FLAG_CONTINUES, payload);
            assert_eq!(page[0..4], crc32_bytewise(&page[4..]).to_le_bytes(), "page size {size}");
        }
        // A value computed outside this crate (zlib): the stamp every
        // build of this format has written for these bytes.
        let mut page = vec![0u8; 128];
        encode_page(&mut page, PageType::ObjCont, 0, b"ranking cube");
        assert_eq!(page[0..4], 0x552C_5380u32.to_le_bytes());
    }

    #[test]
    fn page_round_trips() {
        let mut page = vec![0u8; 256];
        encode_page(&mut page, PageType::ObjFirst, FLAG_CONTINUES, b"hello world");
        let v = decode_page(&page, 7).unwrap();
        assert_eq!(v.ptype, PageType::ObjFirst);
        assert!(v.continues);
        assert_eq!(v.payload, b"hello world");
    }

    #[test]
    fn flipped_bit_fails_checksum() {
        // CRC-32 detects every single-bit error: header, payload, padding
        // and the stored checksum itself.
        let mut page = vec![0u8; 4096];
        let payload: Vec<u8> = (0..3000u32).map(|i| (i % 251) as u8).collect();
        encode_page(&mut page, PageType::ObjCont, 0, &payload);
        assert!(decode_page(&page, 3).is_ok());
        for bit in 0..page.len() * 8 {
            page[bit / 8] ^= 1 << (bit % 8);
            match decode_page(&page, 3) {
                Err(StorageError::ChecksumMismatch { page: 3 }) => {}
                other => panic!("bit {bit}: expected checksum error, got {other:?}"),
            }
            page[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn corrupt_crc_field_detected() {
        let mut page = vec![0u8; 128];
        encode_page(&mut page, PageType::ObjFirst, 0, b"x");
        page[1] ^= 0xFF;
        assert!(matches!(decode_page(&page, 0), Err(StorageError::ChecksumMismatch { .. })));
    }

    fn sample_sb(generation: u64) -> Superblock {
        Superblock {
            page_size: 4096,
            page_count: 42,
            catalog_first: Some(41),
            total_bytes: 123_456,
            object_count: 17,
            alloc_first: None,
            alloc_pages: 0,
            generation,
            retired_pages: 9,
        }
    }

    #[test]
    fn superblock_round_trips() {
        let sb = sample_sb(7);
        let mut page = vec![0u8; SUPERBLOCK_LEN];
        sb.encode(&mut page);
        assert_eq!(Superblock::decode(&page).unwrap(), sb);
    }

    #[test]
    fn superblock_rejects_bad_magic_and_version() {
        let sb = Superblock {
            page_size: 4096,
            page_count: 2,
            catalog_first: None,
            total_bytes: 0,
            object_count: 0,
            alloc_first: None,
            alloc_pages: 0,
            generation: 1,
            retired_pages: 0,
        };
        let mut page = vec![0u8; SUPERBLOCK_LEN];
        sb.encode(&mut page);

        let mut bad = page.clone();
        bad[0] = b'X';
        assert!(matches!(Superblock::decode(&bad), Err(StorageError::BadMagic)));

        let mut bad = page.clone();
        bad[8] = 99; // version bump without re-stamping the CRC…
        assert!(matches!(Superblock::decode(&bad), Err(StorageError::ChecksumMismatch { .. })));
        // …and with a valid CRC it must fail the version gate instead.
        let crc = crc32(&bad[0..76]);
        bad[76..80].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(Superblock::decode(&bad), Err(StorageError::UnsupportedVersion(99))));
    }

    #[test]
    fn election_picks_highest_valid_generation() {
        let elect = |s0: &[u8], s1: &[u8]| {
            elect_superblock(Superblock::decode_slot(s0, 0), Superblock::decode_slot(s1, 1))
        };
        let mut s0 = vec![0u8; SUPERBLOCK_LEN];
        let mut s1 = vec![0u8; SUPERBLOCK_LEN];
        sample_sb(4).encode(&mut s0);
        sample_sb(5).encode(&mut s1);
        let e = elect(&s0, &s1).unwrap();
        assert_eq!((e.winner.generation, e.slot), (5, 1));
        assert_eq!(e.previous.map(|sb| sb.generation), Some(4));

        // Newer slot torn mid-commit: the older generation must win, and
        // there is no previous one to fall back to.
        let mut torn = s1.clone();
        torn[30] ^= 0xFF;
        let e = elect(&s0, &torn).unwrap();
        assert_eq!((e.winner.generation, e.slot), (4, 0));
        assert!(e.previous.is_none());

        // Slot 0 newer after the next commit flips sides.
        sample_sb(6).encode(&mut s0);
        let e = elect(&s0, &s1).unwrap();
        assert_eq!((e.winner.generation, e.slot), (6, 0));
        assert_eq!(e.previous.map(|sb| sb.generation), Some(5));

        // Both invalid: slot 0's error surfaces (BadMagic for foreign files).
        let garbage = vec![0x42u8; SUPERBLOCK_LEN];
        assert!(matches!(elect(&garbage, &garbage), Err(StorageError::BadMagic)));
    }

    #[test]
    fn byte_reader_bounds_checked() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        w.put_u16(0xBEEF);
        w.put_bytes(b"abc");
        w.put_u8(9);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert!(matches!(r.u16(), Err(StorageError::Malformed(_))));
        assert!(matches!(r.u64(), Err(StorageError::Malformed(_))));
    }
}
