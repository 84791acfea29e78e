//! The signature-based ranking cube (Sections 4.2.3–4.2.4).
//!
//! Signatures are compressed node-by-node ([`crate::coding`]), decomposed
//! into *partial signatures* of roughly `α · page` bytes, and stored as
//! paged objects.
//!
//! # Lazy zero-copy read path
//!
//! Queries probe signatures through per-signature cursors (`SigCursor`,
//! held by the query's [`Pruner`]) that never materialize a partial:
//!
//! * **Zero-copy partial views.** On first touch of a partial the cursor
//!   takes the shared page handle from `PageStore::try_get_bytes` (a view
//!   into a buffer-pool frame on file-backed cubes) and header-scans it
//!   into a per-partial *node directory* — a sorted `(SID, bit offset)`
//!   array.
//!   The scan reads only each node's `[CS][Len]` header
//!   ([`coding::skip_node`]); no node payload is decoded.
//! * **On-demand node decode.** Probes address one node at a time, by
//!   SID: the top-k search asks for the mask of the node it is expanding
//!   ([`Pruner::try_node_mask`]); a search that must decide at pop asks
//!   for one entry's bit in its parent's mask
//!   ([`Pruner::try_admit_entry`]). Nobody carries a path: *individual*
//!   nodes are decoded at their directory offsets into packed-`u64`-word
//!   bit arrays ([`rcube_storage::PackedBits`]) and memoized. A probe that
//!   fails at the root decodes exactly one node, not a partial.
//! * **Partial lookup without a catalog map.** BFS write order emits
//!   strictly increasing SIDs, so each stored signature only records the
//!   *first SID per partial*; the partial holding any SID is a binary
//!   search over that array ([`StoredSignature::partial_of`]) — the
//!   per-node `sid → partial` hash map of earlier revisions is gone from
//!   the catalog.
//!
//! Multi-dimensional predicates without an exact cuboid are answered by
//! one cursor per predicate under the same [`Pruner`]: it ANDs node
//! bit-words across the atomic cursors on demand, memoizes a per-SID
//! *subtree non-empty* verdict, and descends only into subtrees the search
//! actually visits — equivalent to the eagerly assembled intersection of
//! Section 4.3.3 (a bit survives only if its child intersection is
//! non-empty) without ever materializing an intermediate tree.
//! [`SignatureCube::assemble`] builds that intersection eagerly: it is the
//! reference the equivalence tests hold the lazy answers to, and
//! `BENCH_sigcube.json` prints beside the lazy counters what a query that
//! assembled first would load and decode, read off the catalog.
//!
//! # Shared cross-query node cache
//!
//! The memos above are per-query; the cube additionally holds a
//! [`crate::nodecache::SharedNodeCache`] consulted by every cursor
//! *before* loading a partial: on a repeat query over a hot cuboid the
//! cursor skips both the partial load and the node decode (metered as
//! `shared_node_hits`, never as I/O). The cache maps a partial's first
//! page id to that partial's node table — its header-scan directory plus a
//! slot per decoded node — which a cursor resolves once per partial it
//! visits; a hit after that is a binary search, no lock. Page ids of
//! committed partials are never reused within a file (commits append, COW
//! maintenance retires), so an untouched partial keeps its table across a
//! maintenance commit with no work at all, and a replaced one **hands its
//! table over**: [`SignatureCube::splice_cell`] knows, node by node, what
//! it copied and what it re-encoded, and builds the table of every partial
//! it writes — copied nodes keep the slots, hence the decoded bits, the old
//! table held for them, re-encoded nodes enter decoded, dropped nodes
//! simply are not there. The old partials'
//! tables go ([`crate::nodecache::SharedNodeCache::invalidate_partial`] —
//! one removal each). A cell written fresh carries nothing.
//!
//! The cache sits behind an `Arc` because it belongs to the *file*, not to
//! a handle: [`crate::delta::DeltaCube`] serves one file through a chain
//! of handles and gives each the cache of its predecessor (only where it
//! has checked that the file is the one it last committed). The handle
//! its flush writes through then *stages* the tables it builds and hands
//! them over once the commit stands — pages a failed commit appended are
//! reused by the next attempt for other bytes, so nothing keyed by an
//! uncommitted page id may become visible to readers.
//! [`SignatureCube::set_node_cache_budget`] resizes or (with zero)
//! disables the cache; answers are identical either way.
//!
//! Each stored node is prefixed with its SID (Section 4.2.1), making
//! partials self-describing — a small space overhead relative to the
//! thesis' BFS-implicit addressing, recorded in EXPERIMENTS.md.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use rcube_index::rtree::RTree;
use rcube_index::HierIndex;
use rcube_obs::Metrics;
use rcube_storage::{
    iter_ones, BitReader, BitWriter, ByteReader, ByteWriter, DiskSim, FileBackend, FileOptions,
    PackedBits, PageId, PageStore, StorageError, DEFAULT_PAGE_SIZE, DEFAULT_POOL_PAGES,
};
use rcube_table::{Relation, Selection};

use crate::coding;
use crate::gridcube::{finish_catalog, read_catalog, CATALOG_SIG};
use crate::nodecache::{DirEntry, HandOver, PartialTable, SharedNodeCache, TableBuilder};
use crate::signature::{SigNode, Signature};
use crate::tuples::Tuples;

/// Construction parameters for the signature cube.
#[derive(Debug, Clone)]
pub struct SignatureCubeConfig {
    /// Partial-signature fill target as a fraction of the page size
    /// (`α < 1`, Section 4.2.3).
    pub alpha: f64,
    /// Cuboids to materialize; `None` = all atomic (one-dimensional)
    /// cuboids, the default of Section 4.4.1.
    pub cuboids: Option<Vec<Vec<usize>>>,
}

impl Default for SignatureCubeConfig {
    fn default() -> Self {
        Self { alpha: 0.75, cuboids: None }
    }
}

/// A compressed, decomposed, paged signature.
#[derive(Debug, Clone)]
pub struct StoredSignature {
    /// Fanout of the mirrored partition.
    m: usize,
    /// Node levels (root = 1); tuple paths have exactly this many
    /// components. Lets cursors tell leaf-level nodes apart without
    /// probing for children.
    depth: u16,
    /// Partial-signature objects in creation (BFS) order.
    partials: Vec<PageId>,
    /// First SID stored in each partial. BFS emits strictly increasing
    /// SIDs, so this sorted array replaces a per-node `sid → partial` map:
    /// the partial that *could* hold a SID is one binary search away.
    first_sid: Vec<u64>,
    /// Total compressed bits (space accounting).
    pub total_bits: usize,
}

impl StoredSignature {
    /// Serializes, compresses, decomposes and stores `sig`; a failed
    /// append comes back typed.
    pub fn write(
        sig: &Signature,
        disk: &DiskSim,
        store: &PageStore,
        alpha: f64,
    ) -> Result<StoredSignature, StorageError> {
        let m = sig.fanout();
        let depth = sig.depth();
        let target_bits = partial_target_bits(disk, alpha);

        // BFS over the signature tree, emitting (sid, node) codings.
        let mut partials = Vec::new();
        let mut first_sid = Vec::new();
        let mut cur = BitWriter::new();
        let mut total_bits = 0usize;
        let mut queue: std::collections::VecDeque<(u64, &SigNode)> =
            std::collections::VecDeque::new();
        if let Some(root) = sig.root() {
            queue.push_back((0, root));
        }
        while let Some((sid, node)) = queue.pop_front() {
            if cur.is_empty() {
                first_sid.push(sid);
            }
            push_varint(&mut cur, sid);
            coding::encode_best(&node.bits, m, &mut cur);
            for &(pos, ref child) in &node.children {
                let child_sid = sid * (m as u64 + 1) + pos as u64 + 1;
                queue.push_back((child_sid, child));
            }
            if cur.len() >= target_bits {
                total_bits += cur.len();
                partials.push(flush_partial(&mut cur, disk, store)?);
            }
        }
        if !cur.is_empty() {
            total_bits += cur.len();
            partials.push(flush_partial(&mut cur, disk, store)?);
        }
        debug_assert_eq!(partials.len(), first_sid.len());
        Ok(StoredSignature { m, depth, partials, first_sid, total_bits })
    }

    /// Number of partial signatures.
    pub fn num_partials(&self) -> usize {
        self.partials.len()
    }

    /// Node levels (root = 1).
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// First page id of every partial, in BFS order (fault-injection
    /// tests poison specific partials through this).
    pub fn partial_pages(&self) -> &[PageId] {
        &self.partials
    }

    /// Index of the partial that could hold `sid` (the SID may still be
    /// absent — partials only store existing nodes).
    pub fn partial_of(&self, sid: u64) -> Option<usize> {
        match self.first_sid.binary_search(&sid) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }

    /// Loads and decodes every partial, reconstructing the full signature
    /// (used by incremental maintenance and tests); corrupt or truncated
    /// partials surface as typed [`StorageError`]s.
    pub fn load_full(&self, disk: &DiskSim, store: &PageStore) -> Result<Signature, StorageError> {
        let mut nodes: HashMap<u64, PackedBits> = HashMap::new();
        for &page in &self.partials {
            let payload = store.try_get_bytes(disk, page)?;
            try_decode_partial(&payload, self.m, &mut nodes)?;
        }
        Ok(rebuild_signature(self.m, &nodes))
    }
}

/// Bits of node codings after which [`StoredSignature::write`] closes a
/// partial: `α · page` (Section 4.2.3), the rest of the page being the
/// slack incremental maintenance grows into.
fn partial_target_bits(disk: &DiskSim, alpha: f64) -> usize {
    ((disk.page_size() as f64) * alpha * 8.0).max(64.0) as usize
}

fn flush_partial(
    cur: &mut BitWriter,
    disk: &DiskSim,
    store: &PageStore,
) -> Result<PageId, StorageError> {
    let taken = std::mem::take(cur);
    let (bytes, bit_len) = taken.into_parts();
    let mut payload = Vec::with_capacity(4 + bytes.len());
    payload.extend_from_slice(&(bit_len as u32).to_le_bytes());
    payload.extend_from_slice(&bytes);
    store.try_put(disk, payload)
}

/// SID varint: 7 value bits per group, MSB-first, high continuation bit.
fn push_varint(w: &mut BitWriter, mut v: u64) {
    let mut groups = Vec::new();
    loop {
        groups.push((v & 0x7f) as u8);
        v >>= 7;
        if v == 0 {
            break;
        }
    }
    while let Some(g) = groups.pop() {
        let cont = !groups.is_empty();
        w.push(cont);
        w.push_bits(g as u64, 7);
    }
}

/// Bits [`push_varint`] spends on `v`.
fn varint_bits(v: u64) -> usize {
    8 * (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
}

fn read_varint(r: &mut BitReader) -> Option<u64> {
    let mut v = 0u64;
    let mut groups = 0;
    loop {
        let cont = r.next_bit()?;
        v = (v << 7) | r.read_bits(7)?;
        groups += 1;
        if !cont {
            return Some(v);
        }
        if groups > 10 {
            return None; // corrupt: longer than any u64 varint
        }
    }
}

const CORRUPT_PARTIAL: StorageError = StorageError::Malformed("corrupt partial signature");

/// Validates a partial's payload frame and returns `(bit stream, bit len)`.
fn partial_stream(payload: &[u8]) -> Result<(&[u8], usize), StorageError> {
    if payload.len() < 4 {
        return Err(StorageError::Malformed("partial signature shorter than its length header"));
    }
    let bit_len = u32::from_le_bytes(payload[0..4].try_into().unwrap()) as usize;
    if bit_len > (payload.len() - 4) * 8 {
        return Err(StorageError::Malformed("partial signature bit length exceeds payload"));
    }
    Ok((&payload[4..], bit_len))
}

/// Decodes every node of a partial into `nodes` (the eager path used by
/// [`StoredSignature::load_full`]).
fn try_decode_partial(
    payload: &[u8],
    m: usize,
    nodes: &mut HashMap<u64, PackedBits>,
) -> Result<(), StorageError> {
    let (bytes, bit_len) = partial_stream(payload)?;
    let mut r = BitReader::new(bytes, bit_len);
    while r.remaining() > 0 {
        let sid = read_varint(&mut r).ok_or(CORRUPT_PARTIAL)?;
        let bits = coding::decode_node(&mut r, m).ok_or(CORRUPT_PARTIAL)?;
        nodes.insert(sid, bits);
    }
    Ok(())
}

/// Rebuilds a [`Signature`] from a flat sid → bits map.
fn rebuild_signature(m: usize, nodes: &HashMap<u64, PackedBits>) -> Signature {
    fn build(m: usize, sid: u64, nodes: &HashMap<u64, PackedBits>) -> SigNode {
        let bits = nodes.get(&sid).cloned().unwrap_or_default();
        let mut children = Vec::new();
        for pos in bits.iter_ones() {
            let child_sid = sid * (m as u64 + 1) + pos as u64 + 1;
            if nodes.contains_key(&child_sid) {
                children.push((pos as u16, build(m, child_sid, nodes)));
            }
        }
        SigNode { bits, children }
    }
    if nodes.is_empty() {
        return Signature::empty(m);
    }
    let root = build(m, 0, nodes);
    Signature::from_node(m, root)
}

/// A zero-copy view over one loaded partial: the shared page handle (a
/// buffer-pool frame view on file backends) plus its node table — the
/// `(sid, bit offset)` directory a header-only scan builds, shared with
/// every other reader of the partial when it came out of the node cache.
#[derive(Debug)]
struct PartialView {
    bytes: Arc<[u8]>,
    table: Arc<PartialTable>,
}

/// Header-scans a partial into its node table without decoding any node
/// payload, validating the BFS strictly-increasing SID invariant. `shared`:
/// the table gets slots for decoded nodes — one nobody else will see needs
/// none.
fn scan_partial(bytes: &[u8], m: usize, shared: bool) -> Result<PartialTable, StorageError> {
    let (stream, bit_len) = partial_stream(bytes)?;
    let mut dir = Vec::new();
    let mut r = BitReader::new(stream, bit_len);
    let mut prev: Option<u64> = None;
    while r.remaining() > 0 {
        let sid = read_varint(&mut r).ok_or(CORRUPT_PARTIAL)?;
        if prev.is_some_and(|p| p >= sid) {
            return Err(StorageError::Malformed("partial signature SIDs not increasing"));
        }
        prev = Some(sid);
        let off = r.position() as u32;
        coding::skip_node(&mut r, m).ok_or(CORRUPT_PARTIAL)?;
        dir.push(DirEntry::scanned(sid, off, dir.len()));
    }
    Ok(if shared {
        PartialTable::new(bit_len, dir)
    } else {
        PartialTable::directory_only(bit_len, dir)
    })
}

/// Cross-checks the table of partial `pi` of `stored` against the
/// catalog's first-SID directory: a disagreement would silently route
/// SIDs to the wrong partial (nodes "absent", wrong pruning) — surface it
/// as corruption instead.
fn check_first_sid(
    table: &PartialTable,
    stored: &StoredSignature,
    pi: usize,
) -> Result<(), StorageError> {
    if table.dir().first().map(|e| e.sid) != Some(stored.first_sid[pi]) {
        return Err(StorageError::Malformed(
            "partial signature disagrees with catalog first-SID directory",
        ));
    }
    Ok(())
}

/// [`scan_partial`] of partial `pi` of `stored`, held to the catalog
/// ([`check_first_sid`]).
fn scan_checked(
    bytes: Arc<[u8]>,
    stored: &StoredSignature,
    pi: usize,
    shared: bool,
) -> Result<PartialView, StorageError> {
    let table = scan_partial(&bytes, stored.m, shared)?;
    check_first_sid(&table, stored, pi)?;
    Ok(PartialView { bytes, table: Arc::new(table) })
}

/// Decodes the node at directory slot `di` of `table` out of the
/// partial's `bytes`; also returns the bits its coding spans.
fn decode_at(
    bytes: &[u8],
    table: &PartialTable,
    di: usize,
    m: usize,
) -> Result<(PackedBits, usize), StorageError> {
    let mut r = BitReader::new(&bytes[4..], table.bit_len());
    r.skip(table.dir()[di].off as usize);
    let start = r.position();
    let bits = coding::decode_node(&mut r, m)
        .ok_or(StorageError::Malformed("corrupt partial signature node"))?;
    Ok((bits, r.position() - start))
}

/// Holds `bytes` just read to a `table` an earlier scan of the same partial
/// built: the frame must still say what the table says.
fn check_frame(bytes: &[u8], table: &PartialTable) -> Result<(), StorageError> {
    if partial_stream(bytes)?.1 != table.bit_len() {
        return Err(StorageError::Malformed("partial signature disagrees with its node table"));
    }
    Ok(())
}

impl PartialView {
    /// A view of `bytes` under a `table` taken from the node cache.
    fn under(
        bytes: Arc<[u8]>,
        table: Arc<PartialTable>,
        stored: &StoredSignature,
        pi: usize,
    ) -> Result<Self, StorageError> {
        check_frame(&bytes, &table)?;
        check_first_sid(&table, stored, pi)?;
        Ok(Self { bytes, table })
    }

    fn dir(&self) -> &[DirEntry] {
        self.table.dir()
    }

    fn decode_at(&self, di: usize, m: usize) -> Result<(PackedBits, usize), StorageError> {
        decode_at(&self.bytes, &self.table, di, m)
    }

    /// The bit range slot `di` occupies in the stream, SID prefix included.
    fn entry_span(&self, di: usize) -> (usize, usize) {
        let dir = self.dir();
        let end = dir
            .get(di + 1)
            .map_or(self.table.bit_len(), |next| next.off as usize - varint_bits(next.sid));
        (dir[di].off as usize - varint_bits(dir[di].sid), end)
    }
}

/// What one [`SignatureCube::splice_cell`] wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CellSplice {
    /// Partial objects appended.
    pub partials: usize,
    /// Node codings produced by [`coding::encode_best`] (every other node
    /// of a rewritten partial was copied as stored bits).
    pub nodes: usize,
}

/// One node under a splice: its bits as stored (`None` — the cell has no
/// such node) and as the edits leave them (`None` — dropped, or absent).
struct NodeEdit {
    stored: Option<PackedBits>,
    now: Option<PackedBits>,
}

/// The edit phase of a splice: the nodes on the updated paths, decoded on
/// first touch out of header-scanned partials. Nothing is written here.
struct CellEdit<'a> {
    stored: &'a StoredSignature,
    store: &'a PageStore,
    disk: &'a DiskSim,
    /// Where a partial's node table may already sit — the handle's staged
    /// hand-over, then its cache: a view starts from it (no header scan)
    /// and the splice carries its decoded nodes over.
    staged: Option<&'a HandOver>,
    cache: &'a SharedNodeCache,
    /// Partials some touched SID routes to, by index.
    views: BTreeMap<usize, PartialView>,
    nodes: BTreeMap<u64, NodeEdit>,
}

/// SID of the node holding each component of `path` (root first).
fn sids_along(m: usize, path: &[u16]) -> Vec<u64> {
    let mut sid = 0u64;
    let mut out = Vec::with_capacity(path.len());
    for &p in path {
        out.push(sid);
        sid = sid * (m as u64 + 1) + p as u64 + 1;
    }
    out
}

impl CellEdit<'_> {
    fn node(&mut self, sid: u64) -> Result<&mut NodeEdit, StorageError> {
        if !self.nodes.contains_key(&sid) {
            let mut stored = None;
            if let Some(pi) = self.stored.partial_of(sid) {
                if !self.views.contains_key(&pi) {
                    let page = self.stored.partials[pi];
                    let bytes = self.store.try_get_bytes(self.disk, page)?;
                    let staged = self.staged.and_then(|s| s.tables.get(&page.0).cloned());
                    let view = match staged.or_else(|| self.cache.table(page.0)) {
                        Some(table) => PartialView::under(bytes, table, self.stored, pi)?,
                        None => scan_checked(bytes, self.stored, pi, !self.cache.is_disabled())?,
                    };
                    self.views.insert(pi, view);
                }
                let view = &self.views[&pi];
                if let Some(di) = view.table.slot_of(sid) {
                    stored = Some(view.decode_at(di, self.stored.m)?.0);
                }
            }
            self.nodes.insert(sid, NodeEdit { now: stored.clone(), stored });
        }
        Ok(self.nodes.get_mut(&sid).expect("just inserted"))
    }

    /// [`Signature::clear_path`] on the stored nodes: clears the leaf bit
    /// and drops every node that empties, clearing its bit in the parent.
    /// A path the cell does not hold is a no-op.
    fn clear_path(&mut self, path: &[u16]) -> Result<(), StorageError> {
        let sids = sids_along(self.stored.m, path);
        for &sid in &sids {
            if self.node(sid)?.now.is_none() {
                return Ok(());
            }
        }
        for (&sid, &p) in sids.iter().zip(path).rev() {
            let node = self.nodes.get_mut(&sid).expect("loaded above");
            let bits = node.now.as_mut().expect("present above");
            bits.clear(p as usize);
            if bits.any() {
                break;
            }
            node.now = None;
        }
        Ok(())
    }

    /// [`Signature::set_path`] on the stored nodes, creating the missing.
    fn set_path(&mut self, path: &[u16]) -> Result<(), StorageError> {
        for (sid, &p) in sids_along(self.stored.m, path).into_iter().zip(path) {
            self.node(sid)?.now.get_or_insert_with(PackedBits::default).set(p as usize);
        }
        Ok(())
    }
}

/// One node of a partial being rebuilt.
enum Piece<'a> {
    /// Bits `[from, to)` of the old stream — the SID prefix and coding of
    /// the untouched node in old directory slot `di`, copied as they are.
    Kept { di: usize, from: usize, to: usize },
    /// A changed or new node, SID prefix and coding freshly written, and
    /// the bits that coding decodes to.
    Coded(BitWriter, &'a PackedBits),
}

impl Piece<'_> {
    fn bits(&self) -> usize {
        match self {
            Piece::Kept { from, to, .. } => to - from,
            Piece::Coded(w, _) => w.len(),
        }
    }
}

/// The node sequence of `view` after `changes` (SID-ascending; `None`
/// drops the node): untouched nodes as bit ranges of the old stream,
/// changed and created ones re-encoded, all in SID order.
fn rebuilt_pieces<'a>(
    view: &PartialView,
    changes: &[(u64, Option<&'a PackedBits>)],
    m: usize,
) -> Vec<(u64, Piece<'a>)> {
    let coded = |sid: u64, bits: &'a PackedBits| {
        let mut w = BitWriter::new();
        push_varint(&mut w, sid);
        coding::encode_best(bits, m, &mut w);
        (sid, Piece::Coded(w, bits))
    };
    let mut out = Vec::with_capacity(view.dir().len() + changes.len());
    let mut changes = changes.iter().peekable();
    for (di, &DirEntry { sid, .. }) in view.dir().iter().enumerate() {
        while let Some(&(at, bits)) = changes.next_if(|c| c.0 < sid) {
            out.extend(bits.map(|b| coded(at, b)));
        }
        match changes.next_if(|c| c.0 == sid) {
            Some(&(_, bits)) => out.extend(bits.map(|b| coded(sid, b))),
            None => {
                let (from, to) = view.entry_span(di);
                out.push((sid, Piece::Kept { di, from, to }));
            }
        }
    }
    for &(at, bits) in changes {
        out.extend(bits.map(|b| coded(at, b)));
    }
    out
}

/// Appends bits `[from, to)` of `stream` to `w`, a word at a time.
fn copy_bits(w: &mut BitWriter, stream: &[u8], from: usize, to: usize) {
    let mut r = BitReader::new(stream, to);
    r.skip(from);
    while r.remaining() > 0 {
        let take = r.remaining().min(64);
        w.push_bits(r.read_bits(take).expect("within the stream"), take);
    }
}

/// Lazily-loading view of a [`StoredSignature`] used during query
/// processing: partials are fetched (and charged) only when a requested
/// node lives in a not-yet-loaded partial, and only the requested *nodes*
/// are decoded from the shared page bytes.
///
/// The cursor is per-query state and borrows nothing: it shares the
/// stored signature's directory and is handed, at every probe, the
/// [`Probe`] it reads through — so probing is the same call for in-memory
/// and reopened file-backed cubes, and a cursor can live beside the
/// generation it reads instead of borrowing it. Probes go through the
/// [`PruneState`] holding it.
#[derive(Debug)]
pub(crate) struct SigCursor {
    loader: NodeLoader,
    /// Decoded nodes (`None` = SID proven absent), keyed by SID. Shared
    /// `Arc`s so shared-cache hits never copy word vectors.
    nodes: HashMap<u64, Option<Arc<PackedBits>>>,
}

/// What a probe reads through: the cube's page store, its shared
/// cross-query node cache (`None` = per-query memoization only) and the
/// metering device. [`SignatureCube::probe`] makes the serving one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe<'c> {
    store: &'c PageStore,
    disk: &'c DiskSim,
    cache: Option<&'c SharedNodeCache>,
}

/// The storage half of a [`SigCursor`] — everything a node decode touches
/// except the per-query memo, so the memo's entry can stay borrowed across
/// the decode (one hash probe per node, hit or miss).
#[derive(Debug)]
struct NodeLoader {
    stored: Arc<StoredSignature>,
    /// Per partial, once a probe routed there: its node table and — only
    /// if a node had to be decoded — its bytes.
    parts: Vec<Option<Part>>,
    /// Partial loads performed (the `C_sig` cost of Section 4.3.3).
    loads: u64,
    /// Individual nodes decoded on demand.
    nodes_decoded: u64,
    /// Bytes of node codings actually decoded (directory header scans and
    /// untouched nodes excluded) — the metric `BENCH_sigcube.json` tracks
    /// against whole-cell decoding.
    bytes_decoded: u64,
    /// Probes answered by the shared node cache (neither loaded nor
    /// decoded by this query).
    shared_hits: u64,
}

/// One partial as a cursor holds it. The table is resolved once per
/// query — out of the shared cache, or by this cursor's own header scan —
/// and every later probe of the partial is a search of it.
#[derive(Debug)]
struct Part {
    table: Arc<PartialTable>,
    /// The partial's bytes, loaded when the first node had to be decoded.
    bytes: Option<Arc<[u8]>>,
    /// The table is this cursor's own scan: what it proves absent cost a
    /// partial load, and is metered as a miss.
    scanned: bool,
}

impl SigCursor {
    /// A cursor over `stored`, nothing loaded yet.
    pub(crate) fn new(stored: Arc<StoredSignature>) -> Self {
        let parts = (0..stored.partials.len()).map(|_| None).collect();
        let loader = NodeLoader {
            stored,
            parts,
            loads: 0,
            nodes_decoded: 0,
            bytes_decoded: 0,
            shared_hits: 0,
        };
        Self { loader, nodes: HashMap::new() }
    }

    /// The packed bit-words of node `sid`, decoding it on demand through
    /// `at`; `Ok(None)` when the node does not exist.
    fn node_bits(&mut self, at: Probe<'_>, sid: u64) -> Result<Option<&PackedBits>, StorageError> {
        use std::collections::hash_map::Entry;
        Ok(match self.nodes.entry(sid) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(self.loader.decode_sid(at, sid)?),
        }
        .as_deref())
    }
}

impl NodeLoader {
    fn decode_sid(
        &mut self,
        at: Probe<'_>,
        sid: u64,
    ) -> Result<Option<Arc<PackedBits>>, StorageError> {
        let stored = &*self.stored;
        let Some(pi) = stored.partial_of(sid) else {
            return Ok(None);
        };
        let page = stored.partials[pi];
        if self.parts[pi].is_none() {
            // Shared cache first: with the partial's table resident, a
            // decoded node *or* a proven absence skips the partial load and
            // the decode — no I/O is charged, the bytes never left memory.
            let part = match at.cache.and_then(|c| c.table(page.0)) {
                Some(table) => {
                    check_first_sid(&table, stored, pi)?;
                    Part { table, bytes: None, scanned: false }
                }
                None => {
                    let bytes = at.store.try_get_bytes(at.disk, page)?;
                    self.loads += 1;
                    let shared = at.cache.is_some();
                    let PartialView { bytes, table } = scan_checked(bytes, stored, pi, shared)?;
                    let table = at.cache.map_or(Arc::clone(&table), |c| c.admit(page.0, table));
                    Part { table, bytes: Some(bytes), scanned: true }
                }
            };
            self.parts[pi] = Some(part);
        }
        let part = self.parts[pi].as_mut().expect("resolved above");
        let Some(di) = part.table.slot_of(sid) else {
            match at.cache {
                Some(cache) if part.scanned => cache.record_miss(true),
                Some(cache) => {
                    self.shared_hits += 1;
                    cache.record_hit(true);
                }
                None => {}
            }
            return Ok(None);
        };
        // Only a shared table can hold a node this query did not decode.
        if let (Some(cache), Some(node)) = (at.cache, part.table.node(di)) {
            self.shared_hits += 1;
            cache.record_hit(false);
            return Ok(Some(Arc::clone(node)));
        }
        let bytes = match &part.bytes {
            Some(bytes) => bytes,
            None => {
                // The table spares the header scan, not the read.
                let bytes = at.store.try_get_bytes(at.disk, page)?;
                self.loads += 1;
                check_frame(&bytes, &part.table)?;
                part.bytes.insert(bytes)
            }
        };
        let (bits, coded_bits) = decode_at(bytes, &part.table, di, stored.m)?;
        let bits = Arc::new(bits);
        self.nodes_decoded += 1;
        self.bytes_decoded += coded_bits.div_ceil(8) as u64;
        Ok(Some(match at.cache {
            Some(cache) => {
                cache.record_miss(false);
                Arc::clone(cache.fill(page.0, &part.table, di, bits))
            }
            None => bits,
        }))
    }
}

/// A query-time Boolean pruner (see [`SignatureCube::pruner_for`]): one
/// lazy cursor per stored signature the selection resolved to, bound to
/// the cube and device it probes through. The per-query half (the
/// crate's `PruneState`) borrows nothing; a search that owns the
/// generation it reads holds that half alone and hands it the cube at
/// each step.
///
/// * **None** (the empty selection): everything passes.
/// * **One** (an exact cuboid, or a single predicate): a set bit is exact.
/// * **Several** (one atomic signature per predicate): the lazy
///   intersection of Section 4.3.3, without the assembly. Node bit-words
///   are ANDed across the cursors on demand and a per-SID *subtree
///   non-empty* verdict is memoized — equivalent to probing the assembled
///   signature ([`SignatureCube::assemble`]: a bit survives only if its
///   child intersection is non-empty), but no intermediate tree is ever
///   built and only subtrees the search visits are descended.
#[derive(Debug)]
pub struct Pruner<'a> {
    at: Probe<'a>,
    state: PruneState,
}

impl Pruner<'_> {
    /// Which entries of the partition node mirrored by signature node
    /// `sid` may qualify, as LSB-first words in `out` (bit `i` = entry
    /// `i`): the node's bits, ANDed word-parallel across the operands;
    /// empty as soon as one operand has no such node (later operands are
    /// then not probed). Returns `false`, leaving `out` alone, when
    /// nothing is filtered (the empty selection). Bits past the partition
    /// node's entry count cannot occur on a well-formed file and are the
    /// caller's to ignore.
    ///
    /// A set bit of a leaf-level node is exact: that tuple qualifies. On
    /// an internal node it is exact too, except under several operands,
    /// where the child must also pass [`Self::try_admit_node`].
    pub fn try_node_mask(&mut self, sid: u64, out: &mut Vec<u64>) -> Result<bool, StorageError> {
        self.state.try_node_mask(self.at, sid, out)
    }

    /// The verdict on a node whose bit survived its parent's
    /// [`Self::try_node_mask`] (`level`: root = 0). Only several operands
    /// leave anything to decide — whether their subtrees under `sid` share
    /// a tuple, memoized per SID; otherwise the parent's bit was the
    /// verdict, and nothing is descended.
    pub fn try_admit_node(&mut self, sid: u64, level: u16) -> Result<bool, StorageError> {
        self.state.try_admit_node(self.at, sid, level)
    }

    /// The two calls above taken at *pop*, for a search whose entries
    /// outlive the pruner they were pushed under (the skyline resumes a
    /// logged frontier under another selection, so nothing can be decided
    /// at expansion): entry `sid` qualifies when its bit survives its
    /// parent's [`Self::try_node_mask`] and — for a node, `node_level` its
    /// level — it passes [`Self::try_admit_node`]. A tuple slot is
    /// addressed like a child, `leaf·(M+1) + slot + 1`, with no level. The
    /// root has no parent: the pruner's existence admitted it. On a
    /// well-formed signature this is "every bit along the entry's path is
    /// set", since a node exists only under a set bit.
    pub fn try_admit_entry(
        &mut self,
        sid: u64,
        node_level: Option<u16>,
        mask: &mut Vec<u64>,
    ) -> Result<bool, StorageError> {
        if self.state.cursors.is_empty() || sid == 0 {
            return Ok(true);
        }
        let base = self.state.m + 1;
        let (parent, pos) = ((sid - 1) / base, ((sid - 1) % base) as usize);
        self.try_node_mask(parent, mask)?;
        if mask.get(pos / 64).is_none_or(|w| w >> (pos % 64) & 1 == 0) {
            return Ok(false);
        }
        node_level.map_or(Ok(true), |level| self.try_admit_node(sid, level))
    }

    /// Partial-signature loads performed.
    pub fn loads(&self) -> u64 {
        self.state.loads()
    }

    /// Bytes of node codings decoded so far.
    pub fn bytes_decoded(&self) -> u64 {
        self.state.bytes_decoded()
    }

    /// Individual nodes decoded by this query.
    pub fn nodes_decoded(&self) -> u64 {
        self.state.nodes_decoded()
    }

    /// Probes answered by the shared cross-query node cache.
    pub fn shared_node_hits(&self) -> u64 {
        self.state.shared_node_hits()
    }
}

/// A [`Pruner`]'s per-query state — its cursors, verdict memo and
/// scratch — handed the [`Probe`] it reads through at every call.
#[derive(Debug)]
pub(crate) struct PruneState {
    cursors: Vec<SigCursor>,
    /// sid → subtree-intersection-non-empty verdict.
    verdicts: HashMap<u64, bool>,
    /// One word accumulator per level, lent to the
    /// [`Self::subtree_non_empty`] call descending through that level.
    scratch: Vec<Vec<u64>>,
    m: u64,
    depth: u16,
}

impl PruneState {
    /// The state deciding by the conjunction of `cursors`, which must
    /// mirror the same partition; none decides nothing (everything passes).
    pub(crate) fn over(cursors: Vec<SigCursor>) -> Self {
        let (m, depth) =
            cursors.first().map_or((0, 0), |c| (c.loader.stored.m as u64, c.loader.stored.depth));
        debug_assert!(
            cursors.iter().all(|c| c.loader.stored.depth == depth && c.loader.stored.m as u64 == m),
            "operands must mirror the same partition"
        );
        // Only an intersection descends; one cursor or none never borrows
        // an accumulator, and a query should not allocate what it cannot use.
        let levels = if cursors.len() > 1 { depth.max(1) as usize } else { 0 };
        Self { cursors, verdicts: HashMap::new(), scratch: vec![Vec::new(); levels], m, depth }
    }

    /// [`Pruner::try_node_mask`], probing through `at`.
    pub(crate) fn try_node_mask(
        &mut self,
        at: Probe<'_>,
        sid: u64,
        out: &mut Vec<u64>,
    ) -> Result<bool, StorageError> {
        if self.cursors.is_empty() {
            return Ok(false);
        }
        out.clear();
        for (i, c) in self.cursors.iter_mut().enumerate() {
            let Some(bits) = c.node_bits(at, sid)? else {
                out.clear();
                break;
            };
            if i == 0 {
                out.extend_from_slice(bits.words());
            } else {
                out.truncate(bits.words().len());
                for (w, &o) in out.iter_mut().zip(bits.words()) {
                    *w &= o;
                }
            }
        }
        Ok(true)
    }

    /// [`Pruner::try_admit_node`], probing through `at`.
    pub(crate) fn try_admit_node(
        &mut self,
        at: Probe<'_>,
        sid: u64,
        level: u16,
    ) -> Result<bool, StorageError> {
        if self.cursors.len() < 2 {
            return Ok(true);
        }
        self.subtree_non_empty(at, sid, level)
    }

    /// Does the intersection of the subtrees rooted at `sid` (a node at
    /// `level`, root = 0) contain any common tuple slot? Memoized;
    /// short-circuits on the first witness.
    fn subtree_non_empty(
        &mut self,
        at: Probe<'_>,
        sid: u64,
        level: u16,
    ) -> Result<bool, StorageError> {
        if let Some(&v) = self.verdicts.get(&sid) {
            return Ok(v);
        }
        // The level's accumulator leaves `self` for the call so the
        // descent can re-borrow the cursors; a level at or past the leaf
        // level never recurses, so those may share the last slot.
        let slot = (level as usize).min(self.scratch.len() - 1);
        let mut acc = std::mem::take(&mut self.scratch[slot]);
        let verdict = self.witness_under(at, sid, level, &mut acc);
        self.scratch[slot] = acc;
        let verdict = verdict?;
        self.verdicts.insert(sid, verdict);
        Ok(verdict)
    }

    /// [`Self::subtree_non_empty`] without the memo, `acc` holding the
    /// node's mask for the duration.
    fn witness_under(
        &mut self,
        at: Probe<'_>,
        sid: u64,
        level: u16,
        acc: &mut Vec<u64>,
    ) -> Result<bool, StorageError> {
        self.try_node_mask(at, sid, acc)?;
        if level + 1 >= self.depth {
            // Leaf-level node: any surviving slot bit is a common tuple.
            return Ok(acc.iter().any(|&w| w != 0));
        }
        for p in iter_ones(acc) {
            let child = sid * (self.m + 1) + p as u64 + 1;
            if self.subtree_non_empty(at, child, level + 1)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn sum(&self, counter: impl Fn(&NodeLoader) -> u64) -> u64 {
        self.cursors.iter().map(|c| counter(&c.loader)).sum()
    }

    /// [`Pruner::loads`].
    pub(crate) fn loads(&self) -> u64 {
        self.sum(|l| l.loads)
    }

    /// [`Pruner::bytes_decoded`].
    pub(crate) fn bytes_decoded(&self) -> u64 {
        self.sum(|l| l.bytes_decoded)
    }

    /// [`Pruner::nodes_decoded`].
    pub(crate) fn nodes_decoded(&self) -> u64 {
        self.sum(|l| l.nodes_decoded)
    }

    /// [`Pruner::shared_node_hits`].
    pub(crate) fn shared_node_hits(&self) -> u64 {
        self.sum(|l| l.shared_hits)
    }
}

/// The signature-based ranking cube over an R-tree partition.
#[derive(Debug)]
pub struct SignatureCube {
    store: PageStore,
    /// cuboid dims → (cell values → stored signature). The signatures are
    /// shared: a handle cloned onto the next generation shares every cell
    /// its splices leave alone, and a query's cursors share the cells they
    /// probe instead of borrowing the handle.
    cuboids: BTreeMap<Vec<usize>, HashMap<Vec<u32>, Arc<StoredSignature>>>,
    m: usize,
    alpha: f64,
    /// Shared cross-query decoded-node cache (see the module docs). One
    /// per file: [`Self::clone_onto`] / [`Self::move_onto`] share it.
    node_cache: Arc<SharedNodeCache>,
    /// `Some` on a handle that writes through a cache the serving
    /// generation reads ([`Self::clone_onto`]): the tables its splices
    /// build wait here, under page ids that are not committed yet, until
    /// [`Self::publish_hand_over`]; dropping the handle drops them.
    /// `None`: the cache is this handle's alone and splices publish as
    /// they go.
    staged: Option<HandOver>,
    /// Registry receiving maintenance events (commit / patch / vacuum).
    /// Defaults to the process-wide registry; [`Self::set_metrics`]
    /// points it at an engine's own.
    metrics: Metrics,
    /// The R-tree node table of the catalog this handle last read or
    /// committed (node id → the object holding that node): what
    /// [`Self::commit`] may reuse, and retires what it replaces. Empty on
    /// a cube not yet committed.
    rtree_nodes: Vec<PageId>,
    /// The selection schema, every tuple's selection values and the last
    /// WAL seq folded in ([`crate::tuples`]).
    pub(crate) tuples: Tuples,
}

/// What [`SignatureCube::commit`] published.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Committed {
    /// The generation now committed.
    pub generation: u64,
    /// R-tree nodes written: the ones changed since the catalog this
    /// handle last read or committed (every node on a first commit).
    pub rtree_nodes_written: usize,
}

impl SignatureCube {
    /// Algorithm 1: partition (already done by `rtree`), generate per-cell
    /// signatures from tuple paths, compress, decompose, store.
    pub fn build(
        rel: &Relation,
        rtree: &RTree,
        disk: &DiskSim,
        config: SignatureCubeConfig,
    ) -> Self {
        Self::build_in(rel, rtree, disk, config, PageStore::new())
            .expect("an in-memory store accepts every write")
    }

    /// [`Self::build`] into an explicit page store. Passing a writable
    /// file-backed store ([`PageStore::create_file`]) builds the partials
    /// directly into a cube file; publish with [`Self::commit`] instead of
    /// copying the finished cube through [`Self::save_to`]. A write the
    /// store rejects comes back typed.
    pub fn build_in(
        rel: &Relation,
        rtree: &RTree,
        disk: &DiskSim,
        config: SignatureCubeConfig,
        store: PageStore,
    ) -> Result<Self, StorageError> {
        let m = rtree.max_fanout();
        let dim_sets: Vec<Vec<usize>> = config
            .cuboids
            .clone()
            .unwrap_or_else(|| (0..rel.schema().num_selection()).map(|d| vec![d]).collect());

        let paths = rtree.tuple_paths();
        let mut cuboids = BTreeMap::new();
        for dims in dim_sets {
            // Group tuple paths by cell value vector (the recursive sort of
            // Section 4.2.1, realised as a hash group-by).
            let mut cells: HashMap<Vec<u32>, Vec<&[u16]>> = HashMap::new();
            for (tid, path) in &paths {
                let vals: Vec<u32> = dims.iter().map(|&d| rel.selection_value(*tid, d)).collect();
                cells.entry(vals).or_default().push(path.as_slice());
            }
            let mut stored = HashMap::with_capacity(cells.len());
            for (vals, cell_paths) in cells {
                let sig = Signature::from_paths(m, cell_paths.iter().copied());
                let sig = StoredSignature::write(&sig, disk, &store, config.alpha)?;
                stored.insert(vals, Arc::new(sig));
            }
            cuboids.insert(dims, stored);
        }
        let tuples = Tuples::of_relation(rel, DEFAULT_PAGE_SIZE);
        Ok(Self::over(store, cuboids, m, config.alpha, Vec::new(), tuples))
    }

    /// Partition fanout `M`.
    pub fn fanout(&self) -> usize {
        self.m
    }

    /// Partial-signature fill target.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Total compressed bytes across all signatures (Figure 4.9 metric).
    pub fn materialized_bytes(&self) -> usize {
        self.store.total_bytes()
    }

    /// The page store backing the signatures.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// The shared cross-query node cache (counter snapshots via
    /// [`SharedNodeCache::stats`]).
    pub fn node_cache(&self) -> &SharedNodeCache {
        &self.node_cache
    }

    /// Per-shard buffer-pool counters of the backing store (`None` on the
    /// in-memory backend).
    pub fn pool_stats(&self) -> Option<rcube_storage::PoolStats> {
        self.store.pool_stats()
    }

    /// Routes this cube's maintenance events (`maintenance.commits`,
    /// `.pages_appended`, `.pages_reclaimed`, generation gauge) into
    /// `metrics` instead of the process-wide default, and attaches the
    /// backing store's buffer pool and the shared node cache under the
    /// `signature` prefix. Call before serving (handle attachment is
    /// once-only for the store/cache lifetime).
    pub fn set_metrics(&mut self, metrics: Metrics) {
        self.store.attach_metrics(&metrics, "signature");
        self.node_cache.attach_metrics(&metrics, "signature");
        self.metrics = metrics;
    }

    /// Replaces the shared node cache with one bounded by `bytes`
    /// (`0` disables cross-query caching; per-query memoization remains).
    /// Answers are identical at any setting — only repeat-decode work
    /// changes.
    pub fn set_node_cache_budget(&mut self, bytes: usize) {
        self.node_cache = Arc::new(SharedNodeCache::new(bytes));
    }

    /// Materialized cuboid dimension sets.
    pub fn cuboid_dims(&self) -> Vec<Vec<usize>> {
        self.cuboids.keys().cloned().collect()
    }

    /// The stored signature of a cell, if that cell has any tuple.
    pub fn cell_signature(&self, dims: &[usize], vals: &[u32]) -> Option<&StoredSignature> {
        self.cuboids.get(dims)?.get(vals).map(Arc::as_ref)
    }

    /// Resolves a selection against the materialized cuboids to the stored
    /// signatures whose conjunction decides it: none for the empty
    /// selection, one for an exact cuboid match or a single predicate,
    /// else one atomic signature per predicate. `None` when some
    /// predicate's cell has no tuples — nothing qualifies.
    fn resolve_selection(&self, selection: &Selection) -> Option<Vec<&Arc<StoredSignature>>> {
        if selection.is_empty() {
            return Some(Vec::new());
        }
        if let Some(cells) = self.cuboids.get(&selection.dims()) {
            let vals: Vec<u32> = selection.conds().iter().map(|&(_, v)| v).collect();
            return cells.get(&vals).map(|stored| vec![stored]);
        }
        let cell = |d: usize, v: u32| self.cuboids.get([d].as_slice())?.get([v].as_slice());
        selection.conds().iter().map(|&(d, v)| cell(d, v)).collect()
    }

    /// The Boolean pruner for a selection: a lazy cursor over the stored
    /// signature that decides the predicate, or one per predicate — their
    /// lazy intersection — for multi-dimensional predicates without an
    /// exact cuboid, probing exactly what the assembled signature of
    /// Section 4.3.3 ([`Self::assemble`]) would answer without
    /// materializing it. Returns `None` when some predicate's cell is
    /// empty or the intersection is provably empty at the root. The
    /// root-emptiness probe touches storage, so corruption on a
    /// file-backed cube comes back typed.
    pub fn pruner_for<'a>(
        &'a self,
        selection: &Selection,
        disk: &'a DiskSim,
    ) -> Result<Option<Pruner<'a>>, StorageError> {
        let state = self.try_prune_state(selection, disk)?;
        Ok(state.map(|state| Pruner { at: self.probe(disk), state }))
    }

    /// [`Self::pruner_for`]'s per-query state alone, for a search
    /// that hands it this cube's [`Self::probe`] at every step.
    pub(crate) fn try_prune_state(
        &self,
        selection: &Selection,
        disk: &DiskSim,
    ) -> Result<Option<PruneState>, StorageError> {
        let Some(cells) = self.resolve_selection(selection) else {
            return Ok(None);
        };
        let cursors = cells.into_iter().map(|s| SigCursor::new(Arc::clone(s))).collect();
        let mut state = PruneState::over(cursors);
        // Root emptiness mirrors the assembled form's `is_empty` check: an
        // empty intersection means no tuple qualifies — signal it up front
        // so searches skip entirely. (One stored signature is never empty.)
        if !state.try_admit_node(self.probe(disk), 0, 0)? {
            return Ok(None);
        }
        Ok(Some(state))
    }

    /// What this cube's queries probe through: its store, its node cache
    /// (unless disabled) and `disk`.
    pub(crate) fn probe<'c>(&'c self, disk: &'c DiskSim) -> Probe<'c> {
        let cache = Some(&*self.node_cache).filter(|c| !c.is_disabled());
        Probe { store: &self.store, disk, cache }
    }

    /// Fully assembles the signature of an arbitrary Boolean predicate by
    /// intersecting atomic signatures (Figure 4.7's offline counterpart).
    /// `None` when some predicate's cell is empty.
    pub fn assemble(
        &self,
        selection: &Selection,
        disk: &DiskSim,
    ) -> Result<Option<Signature>, StorageError> {
        let mut acc: Option<Signature> = None;
        for &(d, v) in selection.conds() {
            let Some(stored) = self.cell_signature(&[d], &[v]) else {
                return Ok(None);
            };
            let sig = stored.load_full(disk, &self.store)?;
            acc = Some(match acc {
                None => sig,
                Some(prev) => prev.intersect(&sig),
            });
        }
        Ok(acc)
    }

    /// Scrubs every partial signature through the validated read path,
    /// cache-cold: page checksums, the length frame, the SID/header
    /// directory structure (including agreement with the catalog's
    /// first-SID directory) and every node coding must decode clean.
    pub fn verify_integrity(&self) -> Result<(), StorageError> {
        self.store.clear_cache();
        let mut nodes = HashMap::new();
        for cells in self.cuboids.values() {
            for stored in cells.values() {
                for (pi, &page) in stored.partials.iter().enumerate() {
                    let bytes = self.store.peek(page)?;
                    scan_checked(Arc::clone(&bytes), stored, pi, false)?;
                    nodes.clear();
                    try_decode_partial(&bytes, self.m, &mut nodes)?;
                }
            }
        }
        Ok(())
    }

    /// Saves the signature cube *and* its R-tree partition into a single
    /// cube file: every partial-signature object is copied page-by-page,
    /// every R-tree node is written as an object of its own, the selection
    /// column is cut for the file's pages, and the catalog records the
    /// cuboid directory, the tree's header and node table and the column's
    /// tail, so [`Self::open_from`] restores a fully queryable pair.
    pub fn save_to(
        &self,
        rtree: &RTree,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), StorageError> {
        self.save_to_with(rtree, path, DEFAULT_PAGE_SIZE, DEFAULT_POOL_PAGES)
    }

    /// [`Self::save_to`] with an explicit page size and file options (a
    /// bare pool capacity, or [`FileOptions`] with the scripted crash plan
    /// the vacuum swap threads into its temp file).
    pub fn save_to_with(
        &self,
        rtree: &RTree,
        path: impl AsRef<std::path::Path>,
        page_size: usize,
        opts: impl Into<FileOptions>,
    ) -> Result<(), StorageError> {
        let file = PageStore::create_file(path, page_size, opts)?;
        let scratch = DiskSim::new(page_size, 0);
        let (mut w, _) = self.encode_catalog(
            rtree,
            |old| Ok(file.try_put_shared(&scratch, self.store.peek(old)?)?.0),
            |n| file.put_meta(&scratch, rtree.encode_node(n)),
        )?;
        self.tuples.cut_for(page_size).write_changed(&file, &scratch, &mut w)?;
        finish_catalog(&file, w)
    }

    /// Serializes the catalog: the cuboid directory, then the R-tree's
    /// header and node table. Each partial's page id passes through
    /// `map_partial` (identity for an in-place [`Self::commit`], a
    /// page-by-page copy for [`Self::save_to`] / [`Self::vacuum_to`] into
    /// another file), and each node id through `node_object`, which names
    /// the object holding that node — after the partials, so a save lays
    /// them out where they always were. Returns the catalog and the node
    /// table it records.
    fn encode_catalog(
        &self,
        rtree: &RTree,
        mut map_partial: impl FnMut(PageId) -> Result<u64, StorageError>,
        node_object: impl FnMut(u32) -> Result<PageId, StorageError>,
    ) -> Result<(ByteWriter, Vec<PageId>), StorageError> {
        let directory_len: usize = self
            .cuboids
            .iter()
            .map(|(dims, cells)| {
                let cell = |s: &Arc<StoredSignature>| 32 + 4 * dims.len() + 16 * s.partials.len();
                16 + 8 * dims.len() + cells.values().map(cell).sum::<usize>()
            })
            .sum();
        // The tree's header is 52 bytes, its node table 8 a node.
        let tree_len = 52 + 8 * rtree.node_slots() as usize;
        let mut w = ByteWriter::with_capacity(1 + 8 + 8 + 8 + directory_len + tree_len);
        w.put_u8(CATALOG_SIG);
        w.put_u64(self.m as u64);
        w.put_f64(self.alpha);
        w.put_u64(self.cuboids.len() as u64);
        for (dims, cells) in &self.cuboids {
            w.put_u64(dims.len() as u64);
            for &d in dims {
                w.put_u64(d as u64);
            }
            let mut keys: Vec<&Vec<u32>> = cells.keys().collect();
            keys.sort();
            w.put_u64(keys.len() as u64);
            for vals in keys {
                w.put_u64(vals.len() as u64);
                for &v in vals {
                    w.put_u32(v);
                }
                let stored = &cells[vals];
                w.put_u64(stored.total_bits as u64);
                w.put_u64(stored.depth as u64);
                w.put_u64(stored.partials.len() as u64);
                for &old in &stored.partials {
                    w.put_u64(map_partial(old)?);
                }
                // The per-partial first-SID directory (sorted ascending)
                // replaces the old per-node sid → partial map, shrinking
                // the catalog to O(partials) per cell.
                for &sid in &stored.first_sid {
                    w.put_u64(sid);
                }
            }
        }
        let objects = (0..rtree.node_slots()).map(node_object).collect::<Result<Vec<_>, _>>()?;
        rtree.write_paged(&mut w, &objects);
        Ok((w, objects))
    }

    /// Publishes the cube's current state as the *next generation* of its
    /// own writable file-backed store: the R-tree nodes changed since the
    /// catalog this handle last read or committed are appended (every node
    /// on a first commit), then the selection column chunks changed since
    /// then, then the catalog, with identity-mapped partial ids and the
    /// column's `flushed_seq`, and the inactive superblock slot is stamped
    /// (`rcube_storage::format`'s crash-atomic publish point). A node is
    /// reused when the tree still names, for it, the object this handle's
    /// node table does — an edit forgets the object (`RTree::node_mut`),
    /// and a tree paired with another cube's store names other objects.
    ///
    /// Partials appended since the last commit become durable. What the
    /// new generation no longer reaches is retired for [`Self::vacuum_to`]
    /// — partials replaced by maintenance (as they were), the catalog it
    /// supersedes, every node object and column chunk it replaces, and (in
    /// the file backend's commit) the allocation map — and stays on disk
    /// for readers pinned on older generations. Only once the commit
    /// stands do `rtree` and the column learn where their written objects
    /// live.
    pub fn commit(&mut self, rtree: &mut RTree) -> Result<Committed, StorageError> {
        let scratch = DiskSim::new(DEFAULT_PAGE_SIZE, 0);
        let mut written = 0;
        let (mut w, table) = self.encode_catalog(
            rtree,
            |p| Ok(p.0),
            |n| match rtree.stored_node(n) {
                Some(object) if self.rtree_nodes.get(n as usize) == Some(&object) => Ok(object),
                _ => {
                    written += 1;
                    self.store.put_meta(&scratch, rtree.encode_node(n))
                }
            },
        )?;
        let (chunks, replaced_chunks) = self.tuples.write_changed(&self.store, &scratch, &mut w)?;
        let superseded = self.store.catalog();
        self.store.put_catalog(&scratch, w.into_bytes())?;
        let replaced =
            self.rtree_nodes.iter().enumerate().filter(|&(n, old)| table.get(n) != Some(old));
        let replaced = replaced.map(|(_, &old)| old).chain(replaced_chunks);
        for page in superseded.into_iter().chain(replaced) {
            self.store.retire(page)?;
        }
        self.store.flush()?;
        for (n, &object) in table.iter().enumerate() {
            rtree.set_stored_node(n as u32, object);
        }
        self.rtree_nodes = table;
        self.tuples.committed(&chunks);
        let generation = self.store.generation().unwrap_or(0);
        self.metrics.counter("maintenance.commits").inc();
        self.metrics.gauge("maintenance.generation").set(generation);
        Ok(Committed { generation, rtree_nodes_written: written })
    }

    /// Copy-compacts the cube into a fresh file at `path`: only live
    /// partials and the current catalog are written, dropping pages
    /// retired by COW maintenance and the catalogs of superseded
    /// generations. Returns the number of pages the source store had
    /// accounted as reclaimable (zero on in-memory stores, which free
    /// retired objects immediately). `opts` are the destination file's (a
    /// fault plan for the swap crash sweep).
    pub fn vacuum_to(
        &self,
        rtree: &RTree,
        path: impl AsRef<std::path::Path>,
        page_size: usize,
        opts: impl Into<FileOptions>,
    ) -> Result<u64, StorageError> {
        self.save_to_with(rtree, path, page_size, opts)?;
        let reclaimed = self.store.reclaimable_pages();
        self.metrics.counter("maintenance.vacuums").inc();
        self.metrics.counter("maintenance.pages_reclaimed").add(reclaimed);
        Ok(reclaimed)
    }

    /// Reopens a `(SignatureCube, RTree)` pair saved by [`Self::save_to`],
    /// read-only.
    pub fn open_from(path: impl AsRef<std::path::Path>) -> Result<(Self, RTree), StorageError> {
        Self::open_from_with(path, DEFAULT_POOL_PAGES)
    }

    /// [`Self::open_from`] with an explicit buffer-pool capacity (pages).
    pub fn open_from_with(
        path: impl AsRef<std::path::Path>,
        pool_pages: usize,
    ) -> Result<(Self, RTree), StorageError> {
        Self::open_store(PageStore::open_file(path, pool_pages)?)
    }

    /// Reopens a cube file *writable* under `opts` (a bare pool capacity,
    /// or [`FileOptions`] with a fault plan): the newest committed
    /// generation is served as usual, appends land after it, and
    /// [`Self::commit`] publishes the next generation — incremental
    /// maintenance without a full rewrite.
    pub fn open_writable(
        path: impl AsRef<std::path::Path>,
        opts: impl Into<FileOptions>,
    ) -> Result<(Self, RTree), StorageError> {
        Self::open_store(PageStore::open_file_writable(path, opts)?)
    }

    /// Decodes the catalog of an already-opened store into a queryable
    /// `(SignatureCube, RTree)` pair. Every count in the catalog is
    /// bounded by the bytes left to hold it before anything is sized by
    /// it, so a malformed catalog is a typed error, not an allocation.
    pub fn open_store(store: PageStore) -> Result<(Self, RTree), StorageError> {
        const LIMIT: usize = 1 << 30;
        let catalog = read_catalog(&store, CATALOG_SIG)?;
        let mut r = ByteReader::new(&catalog[1..]);
        let m = r.count(LIMIT)?;
        let alpha = r.f64()?;
        // A cuboid takes at least its dimension and cell counts, a cell its
        // value, bit, depth and partial counts, a partial its page id and
        // first SID.
        let ncuboids = r.count(r.remaining() / 16)?;
        let mut cuboids = BTreeMap::new();
        for _ in 0..ncuboids {
            let ndims = r.count(64)?;
            let mut dims = Vec::with_capacity(ndims);
            for _ in 0..ndims {
                dims.push(r.count(LIMIT)?);
            }
            let ncells = r.count(r.remaining() / 32)?;
            let mut cells = HashMap::with_capacity(ncells);
            for _ in 0..ncells {
                let nvals = r.count(64)?;
                let mut vals = Vec::with_capacity(nvals);
                for _ in 0..nvals {
                    vals.push(r.u32()?);
                }
                let total_bits = r.count(LIMIT)?;
                let depth = r.count(u16::MAX as usize)? as u16;
                let npartials = r.count(r.remaining() / 16)?;
                let mut partials = Vec::with_capacity(npartials);
                for _ in 0..npartials {
                    partials.push(PageId(r.u64()?));
                }
                let mut first_sid = Vec::with_capacity(npartials);
                for _ in 0..npartials {
                    first_sid.push(r.u64()?);
                }
                if first_sid.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(StorageError::Malformed(
                        "signature catalog first-SID directory not increasing",
                    ));
                }
                let stored = StoredSignature { m, depth, partials, first_sid, total_bits };
                cells.insert(vals, Arc::new(stored));
            }
            cuboids.insert(dims, cells);
        }
        let rtree = RTree::read_paged(&mut r, |object| store.peek(object))?;
        if m != rtree.max_fanout() {
            return Err(StorageError::Malformed("signature fanout is not its R-tree's"));
        }
        let rtree_nodes = (0..rtree.node_slots()).filter_map(|n| rtree.stored_node(n)).collect();
        let tuples = Tuples::read(&mut r, &store)?;
        Ok((Self::over(store, cuboids, m, alpha, rtree_nodes, tuples), rtree))
    }

    /// A handle serving `cuboids` out of `store`, caches cold.
    fn over(
        store: PageStore,
        cuboids: BTreeMap<Vec<usize>, HashMap<Vec<u32>, Arc<StoredSignature>>>,
        m: usize,
        alpha: f64,
        rtree_nodes: Vec<PageId>,
        tuples: Tuples,
    ) -> Self {
        Self {
            store,
            cuboids,
            m,
            alpha,
            node_cache: Arc::new(SharedNodeCache::with_default_budget()),
            staged: None,
            metrics: Metrics::global().clone(),
            rtree_nodes,
            tuples,
        }
    }

    /// A second handle with this cube's cuboid directory over `store` — for
    /// a store opened on the file generation this directory was committed
    /// as (the caller checks: equal [`rcube_storage::FileStamp`]s), where
    /// parsing the catalog would only rebuild what is already here. It
    /// shares this handle's node cache — same file, same committed bytes
    /// under every key — and, being the handle a writer edits while this
    /// one serves, stages what its splices hand over
    /// ([`Self::publish_hand_over`]).
    pub(crate) fn clone_onto(&self, store: PageStore) -> Self {
        Self {
            store,
            cuboids: self.cuboids.clone(),
            m: self.m,
            alpha: self.alpha,
            node_cache: Arc::clone(&self.node_cache),
            staged: Some(HandOver::default()),
            metrics: Metrics::global().clone(),
            rtree_nodes: self.rtree_nodes.clone(),
            tuples: self.tuples.clone(),
        }
    }

    /// [`Self::clone_onto`] by value: the directory, the node cache and
    /// whatever is staged move, this handle's store (and the writer lock it
    /// may hold) is dropped.
    pub(crate) fn move_onto(self, store: PageStore) -> Self {
        Self { store, metrics: Metrics::global().clone(), ..self }
    }

    /// Makes what this handle's splices staged visible in the node cache
    /// it shares, and schedules the partials they retired to leave it at
    /// the next hand-over. For the moment the commit those splices were
    /// part of can no longer fail; a no-op on a handle that stages nothing.
    pub(crate) fn publish_hand_over(&mut self) {
        if let Some(commit) = self.staged.take() {
            self.node_cache.hand_over(commit);
        }
    }

    /// What a splice did to the node cache: `tables` for the partials it
    /// wrote, `replaced` retired — staged or applied at once, by the kind
    /// of handle this is.
    fn hand_over(&mut self, tables: HashMap<u64, Arc<PartialTable>>, replaced: &[PageId]) {
        match &mut self.staged {
            Some(staged) => {
                for page in replaced {
                    // A partial this very commit wrote was never visible.
                    if staged.tables.remove(&page.0).is_none() {
                        staged.retired.push(page.0);
                    }
                }
                staged.tables.extend(tables);
            }
            None => {
                for page in replaced {
                    self.node_cache.invalidate_partial(page.0);
                }
                for (page, table) in tables {
                    self.node_cache.admit(page, table);
                }
            }
        }
    }

    /// Node-granular Algorithm 2 on one cell (the rules and why they are
    /// exact: [`crate::maintain`]): clears every path of `olds`, then sets
    /// every path of `news`, decoding only the nodes on those paths, and
    /// rewrites only the partials that hold a node the edits changed —
    /// untouched node codings are copied bit for bit, changed ones
    /// re-encoded, in SID order. Untouched partials keep their page ids
    /// (hence their pool frames and node-cache tables); replaced ones are
    /// retired for vacuum, and each partial written in their place gets
    /// its node table made here, from the very piece list it was written
    /// from: a copied node keeps the slot — the decoded bits, if any — the
    /// old table held for it; a re-encoded node enters decoded.
    ///
    /// Nothing is written before every edit has been applied to decoded
    /// copies, so a corrupt partial or an ill-formed path fails typed with
    /// the cell as it was.
    pub(crate) fn splice_cell(
        &mut self,
        dims: &[usize],
        vals: Vec<u32>,
        olds: &[&[u16]],
        news: &[&[u16]],
        disk: &DiskSim,
    ) -> Result<CellSplice, StorageError> {
        let m = self.m;
        if olds.iter().chain(news).any(|p| p.is_empty() || p.iter().any(|&c| c as usize >= m)) {
            return Err(StorageError::Malformed("tuple path empty or beyond the partition fanout"));
        }
        self.metrics.counter("maintenance.cells_replaced").inc();
        let cells = self.cuboids.get_mut(dims).expect("cuboid not materialized");

        // Edit phase, on decoded copies of the nodes the paths run through.
        let Some(stored) = cells.get(&vals).map(Arc::as_ref) else {
            return self.rewrite_cell(dims, vals, news, disk);
        };
        let mut edit = CellEdit {
            stored,
            store: &self.store,
            disk,
            staged: self.staged.as_ref(),
            cache: &self.node_cache,
            views: BTreeMap::new(),
            nodes: BTreeMap::new(),
        };
        // Clear every old path before setting any new one (Algorithm 2,
        // lines 6–7): updates may swap slot positions between tuples, and
        // a late clear would erase an earlier set.
        for old in olds {
            edit.clear_path(old)?;
        }
        if edit.nodes.get(&0).is_some_and(|root| root.now.is_none()) {
            // The clears emptied the cell, so what it becomes is a function
            // of `news` alone — the one case the depth may change (a root
            // split or shrink moves every tuple of every cell).
            return self.rewrite_cell(dims, vals, news, disk);
        }
        if news.iter().any(|p| p.len() != stored.depth as usize) {
            return Err(StorageError::Malformed("tuple path length is not the signature's depth"));
        }
        for new in news {
            edit.set_path(new)?;
        }

        // Which partials hold a node that changed, and how.
        let mut dirty: BTreeMap<usize, Vec<(u64, Option<&PackedBits>)>> = BTreeMap::new();
        for (&sid, node) in edit.nodes.iter().filter(|(_, n)| n.now != n.stored) {
            let pi = stored.partial_of(sid).ok_or(CORRUPT_PARTIAL)?;
            dirty.entry(pi).or_default().push((sid, node.now.as_ref()));
        }

        // Rebuild each of them. A stream that still fits a page stays one
        // partial — the slack `α` left is there to be used; one that does
        // not is re-cut by `StoredSignature::write`'s rule (close a piece
        // at `α · page`), so every piece gets its slack back.
        let page_bits = disk.page_size().saturating_sub(4) * 8;
        let target_bits = partial_target_bits(disk, self.alpha);
        let mut done = CellSplice::default();
        let mut rebuilt: Vec<(usize, Vec<(PageId, u64)>)> = Vec::with_capacity(dirty.len());
        let (mut bits_gone, mut bits_new) = (0usize, 0usize);
        let store = &self.store;
        // The node table of each partial written, unless nobody would read it.
        let tabled = !self.node_cache.is_disabled();
        let mut tables: HashMap<u64, Arc<PartialTable>> = HashMap::new();
        let mut close = |cur: &mut BitWriter, first: u64, table: &mut Option<TableBuilder>| {
            let bit_len = cur.len();
            bits_new += bit_len;
            let page = flush_partial(cur, disk, store)?;
            if let Some(table) = table {
                tables.insert(page.0, Arc::new(table.finish(bit_len)));
            }
            Ok::<_, StorageError>((page, first))
        };
        for (&pi, changes) in &dirty {
            let view = &edit.views[&pi];
            let pieces = rebuilt_pieces(view, changes, m);
            let whole = pieces.iter().map(|(_, p)| p.bits()).sum::<usize>() <= page_bits;
            let mut table = tabled.then(|| TableBuilder::succeeding(&view.table));
            let mut parts = Vec::new();
            let mut cur = BitWriter::new();
            let mut first = 0u64;
            for (sid, piece) in &pieces {
                if !cur.is_empty() && cur.len() + piece.bits() > page_bits {
                    parts.push(close(&mut cur, first, &mut table)?);
                }
                if cur.is_empty() {
                    first = *sid;
                }
                let off = (cur.len() + varint_bits(*sid)) as u32;
                match piece {
                    Piece::Kept { di, from, to } => {
                        copy_bits(&mut cur, &view.bytes[4..], *from, *to);
                        if let Some(table) = &mut table {
                            table.keep(*sid, off, *di);
                        }
                    }
                    Piece::Coded(w, bits) => {
                        cur.extend(w);
                        done.nodes += 1;
                        if let Some(table) = &mut table {
                            table.fresh(*sid, off, Arc::new((*bits).clone()));
                        }
                    }
                }
                if !whole && cur.len() >= target_bits {
                    parts.push(close(&mut cur, first, &mut table)?);
                }
            }
            if !cur.is_empty() {
                parts.push(close(&mut cur, first, &mut table)?);
            }
            bits_gone += view.table.bit_len();
            done.partials += parts.len();
            rebuilt.push((pi, parts));
        }
        drop(edit);

        // Patch the directory, back to front so indices hold — a copy of
        // the cell's, when another generation still serves it.
        let stored = Arc::make_mut(cells.get_mut(&vals).expect("edited above"));
        let mut replaced = Vec::with_capacity(rebuilt.len());
        let mut appended = Vec::with_capacity(done.partials);
        for (pi, parts) in rebuilt.into_iter().rev() {
            replaced.push(stored.partials[pi]);
            appended.extend(parts.iter().map(|&(page, _)| page));
            stored.partials.splice(pi..=pi, parts.iter().map(|&(page, _)| page));
            stored.first_sid.splice(pi..=pi, parts.iter().map(|&(_, sid)| sid));
        }
        stored.total_bits = stored.total_bits - bits_gone + bits_new;
        debug_assert!(stored.first_sid.windows(2).all(|w| w[0] < w[1]));
        self.count_appended(&appended, disk);
        self.hand_over(tables, &replaced);
        self.retire_partials(&replaced)?;
        Ok(done)
    }

    /// Makes the cell the signature of exactly `paths`, written fresh — or
    /// no cell at all, with no path — and retires what it was.
    fn rewrite_cell(
        &mut self,
        dims: &[usize],
        vals: Vec<u32>,
        paths: &[&[u16]],
        disk: &DiskSim,
    ) -> Result<CellSplice, StorageError> {
        let mut done = CellSplice::default();
        let fresh = if paths.is_empty() {
            None
        } else {
            let sig = Signature::from_paths(self.m, paths.iter().copied());
            let stored = StoredSignature::write(&sig, disk, &self.store, self.alpha)?;
            self.count_appended(&stored.partials, disk);
            done = CellSplice { partials: stored.partials.len(), nodes: sig.node_count() };
            Some(stored)
        };
        let cells = self.cuboids.get_mut(dims).expect("cuboid not materialized");
        let old = match fresh {
            Some(stored) => cells.insert(vals, Arc::new(stored)),
            None => cells.remove(&vals),
        };
        // Written fresh, the cell hands nothing over: its old tables go.
        let replaced = old.map_or(Vec::new(), |o| o.partials.clone());
        self.hand_over(HashMap::new(), &replaced);
        self.retire_partials(&replaced)?;
        Ok(done)
    }

    fn count_appended(&self, partials: &[PageId], disk: &DiskSim) {
        let pages: u64 = partials
            .iter()
            .map(|&p| self.store.size_of(p).map_or(1, |len| disk.pages_for(len) as u64))
            .sum();
        self.metrics.counter("maintenance.pages_appended").add(pages);
    }

    /// COW retirement: replaced partials leave the *next* generation
    /// (readers pinned on committed ones keep streaming their bytes). Their
    /// node tables are [`Self::hand_over`]'s business.
    fn retire_partials(&self, pages: &[PageId]) -> Result<(), StorageError> {
        pages.iter().try_for_each(|&page| self.store.retire(page))
    }

    /// The whole-cell write-back the splice replaced — load everything,
    /// edit, re-encode everything under fresh page ids — kept as the
    /// reference the splice is tested against.
    #[cfg(test)]
    pub(crate) fn replace_cell(
        &mut self,
        dims: &[usize],
        vals: Vec<u32>,
        sig: &Signature,
        disk: &DiskSim,
    ) -> Result<(), StorageError> {
        let cells = self.cuboids.get_mut(dims).expect("cuboid not materialized");
        let old = if sig.is_empty() {
            cells.remove(&vals)
        } else {
            let stored = StoredSignature::write(sig, disk, &self.store, self.alpha)?;
            cells.insert(vals, Arc::new(stored))
        };
        let replaced = old.map_or(Vec::new(), |o| o.partials.clone());
        self.hand_over(HashMap::new(), &replaced);
        self.retire_partials(&replaced)
    }

    /// Deep-verifies the cube file at `path`, repairing by rollback when
    /// possible: the newest committed generation is opened and scrubbed
    /// (full catalog decode plus [`Self::verify_integrity`]); on damage
    /// the *previous* generation is scrubbed the same way, and if it is
    /// clean the newest superblock slot is zeroed
    /// ([`FileBackend::rollback_latest`]) so every subsequent open serves
    /// the last good generation. Errors when neither generation verifies
    /// (the file is left untouched). Call with no writable handle open.
    pub fn scrub_path(path: impl AsRef<std::path::Path>) -> Result<ScrubOutcome, StorageError> {
        let path = path.as_ref();
        let latest = Self::open_from_with(path, DEFAULT_POOL_PAGES).and_then(|(cube, _)| {
            cube.verify_integrity()?;
            Ok(cube.store.generation().unwrap_or(0))
        });
        match latest {
            Ok(generation) => {
                // A static entry point has no engine registry in reach;
                // scrub outcomes land in the process-wide one.
                Metrics::global().counter("maintenance.scrubs_clean").inc();
                Ok(ScrubOutcome::Clean { generation })
            }
            Err(_damage) => {
                let store = PageStore::open_file_previous(path, DEFAULT_POOL_PAGES)?;
                let (prev, _) = Self::open_store(store)?;
                prev.verify_integrity()?;
                let to = FileBackend::rollback_latest(path)?;
                Metrics::global().counter("maintenance.scrubs_rolled_back").inc();
                // Generations alternate superblock slots strictly, so the
                // doomed generation was the survivor's direct successor.
                Ok(ScrubOutcome::RolledBack { from: to + 1, to })
            }
        }
    }
}

/// Outcome of [`SignatureCube::scrub_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubOutcome {
    /// The newest committed generation verified clean; nothing changed.
    Clean {
        /// The generation that verified.
        generation: u64,
    },
    /// The newest generation failed verification; the previous one
    /// verified clean and the open pointer was rolled back to it.
    RolledBack {
        /// The damaged generation that was abandoned.
        from: u64,
        /// The generation now served by every subsequent open.
        to: u64,
    },
}

/// A stored cell node by node: `sid → (decoded bits, the node's coding as
/// a bit string)`.
#[cfg(test)]
pub(crate) type StoredNodes = BTreeMap<u64, (PackedBits, String)>;

/// `nodes` reduced to each node's set positions — what a cube built from
/// scratch must share with a maintained one (a recorded length remembers a
/// slot that was once set; a from-scratch build never saw it).
#[cfg(test)]
pub(crate) fn set_bits(nodes: &StoredNodes) -> Vec<(u64, Vec<usize>)> {
    nodes.iter().map(|(&sid, (bits, _))| (sid, bits.iter_ones().collect())).collect()
}

/// What the maintenance tests read off a stored cell.
#[cfg(test)]
impl SignatureCube {
    /// Every stored node of the cell, read partial by partial off the store.
    pub(crate) fn cell_nodes(&self, dims: &[usize], vals: &[u32]) -> StoredNodes {
        let mut out = BTreeMap::new();
        let Some(stored) = self.cell_signature(dims, vals) else {
            return out;
        };
        for (pi, &page) in stored.partials.iter().enumerate() {
            let view = scan_checked(self.store.peek(page).unwrap(), stored, pi, false).unwrap();
            for (di, &DirEntry { sid, off, .. }) in view.dir().iter().enumerate() {
                let (bits, coded) = view.decode_at(di, self.m).unwrap();
                let mut r = BitReader::new(&view.bytes[4..], view.table.bit_len());
                r.skip(off as usize);
                let coding = (0..coded).map(|_| if r.next_bit().unwrap() { '1' } else { '0' });
                assert!(out.insert(sid, (bits, coding.collect())).is_none(), "SID {sid} twice");
            }
        }
        out
    }

    /// The cache-content oracle: every table resident in the node cache is
    /// what a header scan of its partial's bytes *on the file* builds, and
    /// every decoded node it holds is the node those bytes decode to, bit
    /// for bit and length for length. Holds for the retired partials the
    /// cache still keeps (their bytes stay on disk until a vacuum) and
    /// fails for a table under a page id the file does not back, or backs
    /// with other bytes — an early-published entry of an abandoned commit.
    /// Every partial the directory serves must agree with its table, if it
    /// has one. Returns `(tables, decoded nodes)` resident.
    pub(crate) fn assert_node_cache_matches_file(&self) -> (usize, usize) {
        let tables = self.node_cache.resident_tables();
        let mut nodes = 0;
        for (page, table) in &tables {
            let bytes = self
                .store
                .peek(PageId(*page))
                .unwrap_or_else(|e| panic!("cached partial {page} is not on the file: {e}"));
            let scanned = scan_partial(&bytes, self.m, false).expect("cached partial scans clean");
            let listed =
                |t: &PartialTable| t.dir().iter().map(|e| (e.sid, e.off)).collect::<Vec<_>>();
            assert_eq!(listed(table), listed(&scanned), "partial {page}: directory");
            assert_eq!(table.bit_len(), scanned.bit_len(), "partial {page}: stream length");
            for (sid, cached) in table.resident_nodes() {
                let di = scanned.slot_of(sid).expect("listed above");
                let (decoded, _) = decode_at(&bytes, &scanned, di, self.m).unwrap();
                assert!(*cached == decoded, "partial {page}, SID {sid}: {cached:?} != {decoded:?}");
                nodes += 1;
            }
        }
        for stored in self.cuboids.values().flat_map(|cells| cells.values()) {
            for (pi, page) in stored.partials.iter().enumerate() {
                if let Some(table) = self.node_cache.table(page.0) {
                    check_first_sid(&table, stored, pi).expect("table agrees with the catalog");
                }
            }
        }
        (tables.len(), nodes)
    }

    /// The catalog invariants a splice must leave: `first_sid` strictly
    /// increasing and naming each partial's first node, SIDs increasing
    /// across the whole cell, `total_bits` the sum of the streams, and —
    /// with `page` given — every partial's payload within that many bytes.
    pub(crate) fn assert_cell_wellformed(&self, dims: &[usize], vals: &[u32], page: Option<usize>) {
        let stored = self.cell_signature(dims, vals).expect("cell exists");
        assert_eq!(stored.partials.len(), stored.first_sid.len());
        assert!(!stored.partials.is_empty(), "a stored cell holds at least its root");
        assert_eq!(stored.first_sid[0], 0, "the root leads the first partial");
        assert!(stored.first_sid.windows(2).all(|w| w[0] < w[1]), "{:?}", stored.first_sid);
        let (mut last, mut bits) = (None, 0usize);
        for (pi, &p) in stored.partials.iter().enumerate() {
            let bytes = self.store.peek(p).unwrap();
            if let Some(page) = page {
                assert!(bytes.len() <= page, "partial {pi} spans {} > {page} bytes", bytes.len());
            }
            let view =
                scan_checked(bytes, stored, pi, false).expect("directory agrees with the partial");
            for &DirEntry { sid, .. } in view.dir() {
                assert!(last < Some(sid), "SIDs increase across partials");
                last = Some(sid);
            }
            bits += view.table.bit_len();
        }
        assert_eq!(stored.total_bits, bits, "total_bits is the sum of the partial streams");
        let sig = stored.load_full(&DiskSim::with_defaults(), &self.store).unwrap();
        assert_eq!(stored.depth(), sig.depth());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcube_index::rtree::RTreeConfig;
    use rcube_storage::FaultPlan;
    use rcube_table::gen::SyntheticSpec;

    fn setup(tuples: usize) -> (Relation, DiskSim, RTree, SignatureCube) {
        let rel = SyntheticSpec { tuples, cardinality: 4, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(8));
        let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
        (rel, disk, rtree, cube)
    }

    /// A pruner over `stored` alone that reads through `store` and `disk`
    /// with no shared node cache: per-query memos only.
    fn uncached<'a>(
        stored: &StoredSignature,
        store: &'a PageStore,
        disk: &'a DiskSim,
    ) -> Pruner<'a> {
        let state = PruneState::over(vec![SigCursor::new(Arc::new(stored.clone()))]);
        Pruner { at: Probe { store, disk, cache: None }, state }
    }

    /// What the path probe the searches used to carry answered, as a walk
    /// over the SID-addressed probes that replaced it: every bit along
    /// `path` set in its node's mask and, for a node path (shorter than the
    /// tree's `height`), the node admitted. The pop-time form of the same
    /// question, [`Pruner::try_admit_entry`], must agree.
    fn walk(pruner: &mut Pruner<'_>, rtree: &RTree, path: &[u16]) -> bool {
        let base = rtree.max_fanout() as u64 + 1;
        let node_level = (path.len() < rtree.height()).then_some(path.len() as u16);
        let (mut sid, mut mask) = (0u64, Vec::new());
        let mut set = true;
        for &p in path {
            let filtered = pruner.try_node_mask(sid, &mut mask).unwrap();
            set = !filtered || mask.get(p as usize / 64).is_some_and(|w| w >> (p % 64) & 1 == 1);
            if !set {
                break;
            }
            sid = sid * base + p as u64 + 1;
        }
        let verdict = set && node_level.is_none_or(|l| pruner.try_admit_node(sid, l).unwrap());
        let sid = Signature::sid_of(rtree.max_fanout(), path);
        assert_eq!(
            pruner.try_admit_entry(sid, node_level, &mut mask).unwrap(),
            verdict,
            "{path:?}"
        );
        verdict
    }

    #[test]
    fn stored_signature_round_trips() {
        let (rel, disk, rtree, cube) = setup(800);
        for d in 0..rel.schema().num_selection() {
            for v in 0..4u32 {
                let Some(stored) = cube.cell_signature(&[d], &[v]) else {
                    continue;
                };
                let sig = stored.load_full(&disk, cube.store()).unwrap();
                assert_eq!(sig.depth(), stored.depth());
                // The reloaded signature must contain exactly the tuples of
                // the cell.
                for tid in rel.tids() {
                    let path = rtree.tuple_path(tid).unwrap();
                    let expect = rel.selection_value(tid, d) == v;
                    assert_eq!(sig.contains_path(&path), expect, "tid {tid} dim {d} val {v}");
                }
            }
        }
    }

    #[test]
    fn cursor_answers_match_full_load() {
        let (rel, disk, rtree, cube) = setup(600);
        let stored = cube.cell_signature(&[0], &[1]).expect("cell exists");
        let full = stored.load_full(&disk, cube.store()).unwrap();
        let mut cursor = uncached(stored, cube.store(), &disk);
        // Tuple paths and every prefix (node path) of them.
        for tid in rel.tids() {
            let path = rtree.tuple_path(tid).unwrap();
            for l in 1..=path.len() {
                assert_eq!(walk(&mut cursor, &rtree, &path[..l]), full.contains_path(&path[..l]));
            }
        }
    }

    #[test]
    fn cursor_loads_lazily_and_per_partial() {
        // A tiny alpha forces decomposition (64-bit partials), so the
        // lazy-loading assertions always run.
        let rel = SyntheticSpec { tuples: 4_000, cardinality: 4, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(8));
        let cube = SignatureCube::build(
            &rel,
            &rtree,
            &disk,
            SignatureCubeConfig { alpha: 1e-6, ..Default::default() },
        );
        let stored = cube.cell_signature(&[0], &[0]).expect("cell exists");
        assert!(
            stored.num_partials() >= 2,
            "tiny alpha must decompose ({} partials)",
            stored.num_partials()
        );

        // Checking only the root bit loads exactly the root's partial and
        // decodes exactly one node.
        let mut cursor = uncached(stored, cube.store(), &disk);
        let _ = walk(&mut cursor, &rtree, &[0]);
        assert_eq!(cursor.loads(), 1);
        assert_eq!(cursor.nodes_decoded(), 1);

        // Find two depth-2 prefixes in different subtrees whose level-1
        // nodes live in different partials: probing the second one must
        // load exactly one more partial.
        let m = cube.fanout() as u64;
        let mut probe: Option<(Vec<u16>, usize)> = None;
        let mut second: Option<Vec<u16>> = None;
        for tid in rel.tids() {
            if rel.selection_value(tid, 0) != 0 {
                continue;
            }
            let path = rtree.tuple_path(tid).unwrap();
            if path.len() < 2 {
                continue;
            }
            let sid = path[0] as u64 + 1; // level-1 node under the root
            let part = stored.partial_of(sid).unwrap();
            match &probe {
                None => probe = Some((path[..2].to_vec(), part)),
                Some((first, fpart)) => {
                    if first[0] != path[0] && *fpart != part {
                        second = Some(path[..2].to_vec());
                        break;
                    }
                }
            }
        }
        let (first, _) = probe.expect("cell has deep tuples");
        let second = second.expect("two subtrees in distinct partials");
        let mut cursor = uncached(stored, cube.store(), &disk);
        assert!(walk(&mut cursor, &rtree, &first), "tuple prefix must pass its own cell");
        let after_first = cursor.loads();
        assert!(walk(&mut cursor, &rtree, &second));
        assert_eq!(
            cursor.loads(),
            after_first + 1,
            "probing a second subtree must load exactly one more partial"
        );
        let _ = m;
    }

    #[test]
    fn empty_cell_reports_none() {
        let rel = SyntheticSpec { tuples: 50, cardinality: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(8));
        let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
        // Value 2 may exist; an out-of-range value certainly has no cell.
        assert!(cube.cell_signature(&[0], &[99]).is_none());
        let sel = Selection::new(vec![(0, 99)]);
        assert!(cube.resolve_selection(&sel).is_none());
        assert!(cube.pruner_for(&sel, &disk).unwrap().is_none());
    }

    #[test]
    fn assembled_signature_equals_conjunction() {
        let (rel, disk, rtree, cube) = setup(500);
        let sel = Selection::new(vec![(0, 1), (1, 2)]);
        let Some(sig) = cube.assemble(&sel, &disk).unwrap() else {
            panic!("assembly failed");
        };
        for tid in rel.tids() {
            let path = rtree.tuple_path(tid).unwrap();
            assert_eq!(sig.contains_path(&path), sel.matches(&rel, tid), "tid {tid}");
        }
    }

    #[test]
    fn lazy_pruner_matches_eager_assembly_everywhere() {
        let (rel, disk, rtree, cube) = setup(900);
        for conds in [vec![(0usize, 1u32), (1, 2)], vec![(0, 0), (1, 1), (2, 2)]] {
            let sel = Selection::new(conds);
            let assembled = cube.assemble(&sel, &disk).unwrap();
            let lazy = cube.pruner_for(&sel, &disk).unwrap();
            match (&assembled, &lazy) {
                (Some(sig), None) => assert!(sig.is_empty(), "lazy None ⇒ assembled empty"),
                (None, Some(_)) => panic!("lazy pruner exists but assembly failed"),
                _ => {}
            }
            let (Some(sig), Some(mut pruner)) = (assembled, lazy) else {
                continue;
            };
            for tid in rel.tids() {
                let path = rtree.tuple_path(tid).unwrap();
                for l in 1..=path.len() {
                    let want = sig.contains_path(&path[..l]);
                    let what = format!("tid {tid} prefix {l} sel {:?}", sel.conds());
                    assert_eq!(walk(&mut pruner, &rtree, &path[..l]), want, "lazy, {what}");
                }
            }
        }
    }

    /// What assembling the predicate costs, read off the catalog: every
    /// partial of every predicate cell loaded, every coded byte decoded.
    fn assembly_cost(cube: &SignatureCube, sel: &Selection) -> (u64, u64) {
        let cells = sel.conds().iter().map(|&(d, v)| cube.cell_signature(&[d], &[v]).unwrap());
        cells.fold((0, 0), |(loads, bytes), stored| {
            (loads + stored.num_partials() as u64, bytes + stored.total_bits.div_ceil(8) as u64)
        })
    }

    #[test]
    fn lazy_pruner_loads_fewer_partials_than_eager() {
        let (rel, disk, rtree, cube) = setup(3_000);
        let sel = Selection::new(vec![(0, 1), (1, 2)]);
        let mut lazy = cube.pruner_for(&sel, &disk).unwrap().expect("non-empty intersection");
        let assembled = cube.assemble(&sel, &disk).unwrap().expect("both cells exist");
        // Drive it over every tuple's probe (a top-k search touches fewer).
        for tid in rel.tids() {
            let path = rtree.tuple_path(tid).unwrap();
            assert_eq!(walk(&mut lazy, &rtree, &path), assembled.contains_path(&path), "tid {tid}");
        }
        let (eager_loads, eager_bytes) = assembly_cost(&cube, &sel);
        assert!(lazy.loads() <= eager_loads, "lazy {} vs eager {eager_loads} loads", lazy.loads());
        assert!(
            lazy.bytes_decoded() < eager_bytes,
            "lazy {} vs eager {eager_bytes} bytes decoded",
            lazy.bytes_decoded()
        );
    }

    #[test]
    fn multi_dim_cuboid_used_when_materialized() {
        let rel = SyntheticSpec { tuples: 300, cardinality: 3, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(8));
        let cube = SignatureCube::build(
            &rel,
            &rtree,
            &disk,
            SignatureCubeConfig {
                cuboids: Some(vec![vec![0], vec![1], vec![0, 1]]),
                ..Default::default()
            },
        );
        let sel = Selection::new(vec![(0, 1), (1, 1)]);
        assert!(
            cube.resolve_selection(&sel).is_some_and(|cells| cells.len() == 1),
            "exact cuboid match should resolve to a single stored signature"
        );
        let _ = disk;
    }

    #[test]
    fn corrupt_partial_surfaces_typed_error_not_panic() {
        let (_rel, disk, _rtree, cube) = setup(400);
        let stored = cube.cell_signature(&[0], &[1]).expect("cell exists");

        // Garbage payloads of assorted shapes, pushed through every try_
        // read path.
        for garbage in [
            Vec::new(),                     // shorter than the length frame
            vec![0xFFu8, 0xFF, 0xFF, 0xFF], // bit length far beyond payload
            {
                let mut p = 200u32.to_le_bytes().to_vec();
                p.extend_from_slice(&[0xAB; 25]); // valid frame, garbage stream
                p
            },
        ] {
            let mut nodes = HashMap::new();
            assert!(
                try_decode_partial(&garbage, cube.fanout(), &mut nodes).is_err(),
                "garbage {garbage:?} must be rejected"
            );
            assert!(scan_partial(&garbage, cube.fanout(), false).is_err());
        }

        // Overwrite a real partial with garbage: the cursor's try_ probe
        // reports the error instead of panicking.
        let page = stored.partials[0];
        let mut p = 200u32.to_le_bytes().to_vec();
        p.extend_from_slice(&[0xAB; 25]);
        cube.store().overwrite(&disk, page, p).unwrap();
        let mut cursor = uncached(stored, cube.store(), &disk);
        assert!(cursor.try_node_mask(0, &mut Vec::new()).is_err());
        assert!(cursor.try_admit_entry(1, None, &mut Vec::new()).is_err());
        assert!(stored.load_full(&disk, cube.store()).is_err());
        assert!(cube.verify_integrity().is_err());
    }

    #[test]
    fn saved_cube_and_rtree_reopen_with_identical_pruning() {
        let (rel, disk, rtree, cube) = setup(900);
        let mut path = std::env::temp_dir();
        path.push(format!("rcube_sigcube_{}", std::process::id()));
        cube.save_to_with(&rtree, &path, 1024, 64).expect("save");

        let (reopened, rtree2) = SignatureCube::open_from_with(&path, 64).expect("open");
        assert!(reopened.store().read_only());
        assert_eq!(reopened.fanout(), cube.fanout());
        assert_eq!(reopened.cuboid_dims(), cube.cuboid_dims());
        assert_eq!(reopened.materialized_bytes(), cube.materialized_bytes());
        reopened.verify_integrity().expect("clean scrub");

        let disk2 = DiskSim::with_defaults();
        for tid in rel.tids() {
            assert_eq!(rtree2.tuple_path(tid), rtree.tuple_path(tid));
        }
        for d in 0..rel.schema().num_selection() {
            for v in 0..4u32 {
                let (mem_cell, file_cell) =
                    (cube.cell_signature(&[d], &[v]), reopened.cell_signature(&[d], &[v]));
                assert_eq!(mem_cell.is_some(), file_cell.is_some(), "cell ({d},{v}) presence");
                let (Some(mem_cell), Some(file_cell)) = (mem_cell, file_cell) else {
                    continue;
                };
                // The probe is the same call for both backends: the
                // pruner carries its store and metering device.
                let mut mem_cur = uncached(mem_cell, cube.store(), &disk);
                let mut file_cur = uncached(file_cell, reopened.store(), &disk2);
                for tid in rel.tids() {
                    let p = rtree.tuple_path(tid).unwrap();
                    let in_cell = rel.selection_value(tid, d) == v;
                    for l in 1..=p.len() {
                        // A prefix of a cell tuple's path is in the cell;
                        // for the others only the two backends must agree.
                        let (mem, file) = (
                            walk(&mut mem_cur, &rtree, &p[..l]),
                            walk(&mut file_cur, &rtree2, &p[..l]),
                        );
                        assert_eq!(mem, file, "tid {tid} dim {d} val {v} prefix {l}");
                        assert!(mem || !in_cell, "tid {tid} dim {d} val {v} prefix {l}");
                    }
                    assert_eq!(walk(&mut file_cur, &rtree2, &p), in_cell, "tid {tid}");
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn maintenance_invalidates_only_touched_partials() {
        // A tiny alpha cuts every cell into many partials. Warm the shared
        // node cache over two cells, splice one tuple into one of them, and
        // prove that exactly the partials holding a changed node were
        // replaced: every other partial — of the spliced cell too — keeps
        // its page id and its node table, the replaced ones lose theirs,
        // and the partials written in their place got tables from the
        // splice itself — the next query over the cell reads nothing.
        let rel = SyntheticSpec { tuples: 900, cardinality: 4, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let mut rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(8));
        let config = SignatureCubeConfig { alpha: 1e-6, ..Default::default() };
        let mut cube = SignatureCube::build(&rel, &rtree, &disk, config);
        let warm = |cube: &SignatureCube, rtree: &RTree, d: usize, v: u32| {
            let sel = Selection::new(vec![(d, v)]);
            let mut p = cube.pruner_for(&sel, &disk).unwrap().expect("cell exists");
            for tid in rel.tids() {
                let _ = walk(&mut p, rtree, &rtree.tuple_path(tid).unwrap());
            }
            (p.loads(), p.shared_node_hits())
        };
        warm(&cube, &rtree, 0, 1);
        warm(&cube, &rtree, 1, 2);
        let (loads, hits) = warm(&cube, &rtree, 0, 1);
        assert_eq!(loads, 0, "warm cell must not reload partials");
        assert!(hits > 0);

        // One no-split insert: a single new path, set in cell (0, 1).
        let before = cube.cell_signature(&[0], &[1]).unwrap().partial_pages().to_vec();
        assert!(before.len() > 8, "tiny alpha must decompose ({} partials)", before.len());
        let updates = rtree.insert(&disk, 9_000, vec![0.4, 0.6]);
        assert_eq!(updates.len(), 1, "room in the leaf: only the new tuple moves");
        let path = updates[0].new_path.clone().unwrap();
        let done = cube.splice_cell(&[0], vec![1], &[], &[&path], &disk).unwrap();
        cube.assert_cell_wellformed(&[0], &[1], Some(disk.page_size()));

        let after = cube.cell_signature(&[0], &[1]).unwrap().partial_pages().to_vec();
        let kept = before.iter().filter(|p| after.contains(p)).count();
        let replaced = before.len() - kept;
        assert!((1..=path.len()).contains(&replaced), "one partial per changed node at most");
        assert_eq!(done.partials, after.len() - kept);
        assert!(done.nodes <= path.len(), "only nodes on the path are re-encoded");

        // The untouched cell is still fully cache-served…
        let (loads, hits) = warm(&cube, &rtree, 1, 2);
        assert_eq!(loads, 0, "maintenance on (0,1) must not evict (1,2) nodes");
        assert!(hits > 0);
        // …no table is left under a retired page id, every partial of the
        // spliced cell has one…
        for page in &before {
            assert_eq!(cube.node_cache().table(page.0).is_some(), after.contains(page), "{page:?}");
        }
        assert!(after.iter().all(|page| cube.node_cache().table(page.0).is_some()));
        cube.assert_node_cache_matches_file();
        // …and the spliced cell answers out of them: the nodes the splice
        // copied were handed over decoded, the ones it re-encoded entered
        // decoded, so nothing is loaded and nothing decoded again.
        let sel = Selection::new(vec![(0usize, 1u32)]);
        let mut p = cube.pruner_for(&sel, &disk).unwrap().expect("spliced cell exists");
        for tid in rel.tids().chain([9_000]) {
            let in_cell = tid == 9_000 || rel.selection_value(tid, 0) == 1;
            assert_eq!(walk(&mut p, &rtree, &rtree.tuple_path(tid).unwrap()), in_cell, "tid {tid}");
        }
        assert_eq!((p.loads(), p.nodes_decoded()), (0, 0), "the hand-over left nothing to read");

        // With the cache off the same splice hands nothing over and answers
        // the same.
        cube.set_node_cache_budget(0);
        let updates = rtree.insert(&disk, 9_001, vec![0.41, 0.61]);
        let path = updates.iter().find(|u| u.tid == 9_001).unwrap().new_path.clone().unwrap();
        let olds: Vec<_> = updates.iter().filter(|u| u.tid != 9_001).collect();
        assert!(olds.is_empty(), "room in the leaf");
        cube.splice_cell(&[0], vec![1], &[], &[&path], &disk).unwrap();
        assert_eq!(cube.assert_node_cache_matches_file(), (0, 0));
        let mut p = cube.pruner_for(&sel, &disk).unwrap().expect("spliced cell exists");
        assert!(walk(&mut p, &rtree, &rtree.tuple_path(9_001).unwrap()));
        assert!(p.loads() > 0 && p.shared_node_hits() == 0);
    }

    #[test]
    fn corrupt_partial_mid_splice_fails_typed_and_leaves_the_cell() {
        let (rel, disk, rtree, mut cube) = setup(400);
        let tid = rel.tids().find(|&t| rel.selection_value(t, 0) == 1).unwrap();
        let path = rtree.tuple_path(tid).unwrap();
        let stored = cube.cell_signature(&[0], &[1]).expect("cell exists");
        let (pages, bits) = (stored.partial_pages().to_vec(), stored.total_bits);
        let mut garbage = 200u32.to_le_bytes().to_vec();
        garbage.extend_from_slice(&[0xAB; 25]);
        cube.store().overwrite(&disk, pages[0], garbage).unwrap();

        let err = cube.splice_cell(&[0], vec![1], &[&path], &[], &disk).unwrap_err();
        assert!(matches!(err, StorageError::Malformed(_)), "{err:?}");
        let stored = cube.cell_signature(&[0], &[1]).expect("the cell is still catalogued");
        assert_eq!((stored.partial_pages(), stored.total_bits), (&pages[..], bits));

        // Ill-formed paths are refused before anything is read.
        for bad in [&[][..], &[cube.fanout() as u16][..]] {
            let err = cube.splice_cell(&[0], vec![2], &[], &[bad], &disk).unwrap_err();
            assert!(matches!(err, StorageError::Malformed(_)), "{err:?}");
        }
        let short = &path[..path.len() - 1];
        let err = cube.splice_cell(&[0], vec![2], &[], &[short], &disk).unwrap_err();
        assert!(matches!(err, StorageError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn a_v4_file_is_refused_not_misread() {
        let (_, _, rtree, cube) = setup(300);
        let path = std::env::temp_dir().join(format!("rcube_sig_v4_{}", std::process::id()));
        cube.save_to_with(&rtree, &path, 1024, 64).expect("save");
        assert!(SignatureCube::open_from_with(&path, 64).is_ok());
        // Stamp both superblock slots as v4 (checksums kept valid): the
        // layout that kept the whole R-tree inside the catalog.
        let mut bytes = std::fs::read(&path).unwrap();
        for slot in bytes.chunks_mut(1024).take(2) {
            if slot[..8] == rcube_storage::format::MAGIC {
                slot[8..10].copy_from_slice(&4u16.to_le_bytes());
                let crc = rcube_storage::format::crc32(&slot[..76]);
                slot[76..80].copy_from_slice(&crc.to_le_bytes());
            }
        }
        std::fs::write(&path, bytes).unwrap();
        let refused = SignatureCube::open_from_with(&path, 64).map(|_| ());
        assert!(matches!(refused, Err(StorageError::UnsupportedVersion(4))), "{refused:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_commit_writes_the_nodes_that_changed_and_retires_what_they_replace() {
        let (rel, disk, rtree, cube) = setup(700);
        let path = std::env::temp_dir().join(format!("rcube_sig_nodes_{}", std::process::id()));
        cube.save_to_with(&rtree, &path, 1024, 64).expect("save");
        let (mut wcube, mut wtree) = SignatureCube::open_writable(&path, 64).expect("open");
        let reclaimable = |c: &SignatureCube| c.store().reclaimable_pages();

        // Nothing changed: no node is written, the old catalog and map retire.
        assert_eq!(wcube.commit(&mut wtree).unwrap().rtree_nodes_written, 0);
        let retired = reclaimable(&wcube);
        assert!(retired >= 2, "catalog and allocation map: {retired}");

        // One insert: its leaf and the ancestors whose box grew, no more;
        // each replaced node object retires.
        let schema = rel.schema();
        let updates = wtree.insert(&disk, 700, vec![0.5; schema.num_ranking()]);
        let sel = |t| {
            let value = |d| if t == 700 { 1 } else { rel.selection_value(t, d) };
            (0..schema.num_selection()).map(value).collect()
        };
        crate::maintain::apply_path_updates(&mut wcube, &updates, sel, &disk).unwrap();
        let committed = wcube.commit(&mut wtree).unwrap();
        assert!((1..=wtree.height() + 1).contains(&committed.rtree_nodes_written));
        assert!(reclaimable(&wcube) >= retired + 2 + committed.rtree_nodes_written as u64 - 1);
        drop(wcube);
        let (reopened, rtree2) = SignatureCube::open_from_with(&path, 64).expect("reopen");
        reopened.verify_integrity().expect("clean scrub");
        assert_eq!(rtree2.tuple_paths(), wtree.tuple_paths());

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_tree_paired_with_another_file_writes_every_node_there() {
        let (rel, disk, rtree, cube) = setup(300);
        let path = std::env::temp_dir().join(format!("rcube_sig_pair_{}", std::process::id()));
        cube.save_to_with(&rtree, &path, 1024, 64).expect("save");
        // The tree remembers objects of *that* file; a cube built into
        // another has none of them.
        let (_, mut tree) = SignatureCube::open_from_with(&path, 64).expect("open");
        let other = std::env::temp_dir().join(format!("rcube_sig_other_{}", std::process::id()));
        let store = PageStore::create_file(&other, 1024, 64).unwrap();
        let mut fresh =
            SignatureCube::build_in(&rel, &tree, &disk, Default::default(), store).unwrap();
        let written = fresh.commit(&mut tree).unwrap().rtree_nodes_written;
        assert_eq!(written, tree.node_slots() as usize);
        drop(fresh);
        let (reopened, _) = SignatureCube::open_from_with(&other, 64).expect("reopen");
        reopened.verify_integrity().expect("clean scrub");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&other).ok();
    }

    /// A build into a file store whose disk fills up mid-build returns the
    /// failed write typed.
    #[test]
    fn a_build_into_a_full_file_store_is_a_typed_error() {
        let (rel, disk, rtree, _) = setup(300);
        let path = std::env::temp_dir().join(format!("rcube_sig_enospc_{}", std::process::id()));
        let plan = FaultPlan::new();
        let opts = FileOptions { pool_pages: 64, faults: Some(Arc::clone(&plan)) };
        let store = PageStore::create_file(&path, 1024, opts).unwrap();
        plan.enospc_at_page_write(plan.writes_observed() + 3);
        let built = SignatureCube::build_in(&rel, &rtree, &disk, Default::default(), store);
        match built {
            Err(StorageError::Io(e)) => assert_eq!(e.raw_os_error(), Some(28), "{e}"),
            other => panic!("expected the ENOSPC write back typed, got {:?}", other.err()),
        }
        std::fs::remove_file(&path).ok();
    }

    /// The signature catalog decodes any bytes to a cube or a typed error,
    /// never a panic, a hang or an allocation its bytes cannot back: the
    /// committed catalog, each of its truncations, every single-bit flip,
    /// a cuboid, cell and partial count each just past the bytes left to
    /// hold it, and arbitrary bodies. A cube that does come back scrubs to
    /// `Ok` or a typed error as well.
    #[test]
    fn any_signature_catalog_bytes_give_a_cube_or_a_typed_error() {
        let (_, _, rtree, cube) = setup(300);
        let path = std::env::temp_dir().join(format!("rcube_sig_catalog_{}", std::process::id()));
        cube.save_to_with(&rtree, &path, 1024, 64).unwrap();
        let store = PageStore::open_file_writable(&path, 64).unwrap();
        let body = store.peek(store.catalog().unwrap()).unwrap()[1..].to_vec();
        let scratch = DiskSim::new(1024, 0);
        let decode = |bytes: &[u8]| {
            store.put_catalog(&scratch, [&[CATALOG_SIG][..], bytes].concat()).unwrap();
            SignatureCube::open_store(store.clone()).map(|(cube, _)| cube.verify_integrity())
        };
        let whole = decode(&body);
        assert!(matches!(whole, Ok(Ok(()))), "the committed catalog decodes and scrubs: {whole:?}");
        for n in 0..body.len() {
            assert!(decode(&body[..n]).is_err(), "a {n}-byte prefix decoded");
        }
        let mut flipped = body.clone();
        for bit in 0..body.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }

        // The first cuboid's counts: `m`, `alpha`, then the cuboid count,
        // its dimensions, its cell count, and its first cell's values,
        // bits and depth before that cell's partial count.
        let mut r = ByteReader::new(&body);
        let word = |r: &mut ByteReader<'_>| r.u64().unwrap() as usize;
        let at = |r: &ByteReader<'_>| body.len() - r.remaining();
        r.take(16).unwrap();
        let ncuboids_at = at(&r);
        word(&mut r);
        let ndims = word(&mut r);
        r.take(8 * ndims).unwrap();
        let ncells_at = at(&r);
        word(&mut r);
        let nvals = word(&mut r);
        r.take(4 * nvals + 16).unwrap();
        let npartials_at = at(&r);
        for (offset, per) in [(ncuboids_at, 16), (ncells_at, 32), (npartials_at, 16)] {
            let past = (body.len() - offset) / per + 1;
            let mut crafted = body.clone();
            crafted[offset..offset + 8].copy_from_slice(&(past as u64).to_le_bytes());
            match decode(&crafted) {
                Err(StorageError::Malformed(why)) => {
                    assert_eq!(why, "catalog count out of range", "count at byte {offset}")
                }
                other => panic!("count at byte {offset}: {:?}", other.map(|_| ())),
            }
        }

        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for len in (0..4 * body.len()).step_by(13) {
            let arbitrary: Vec<u8> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    // Mostly small words, so counts often pass their bounds.
                    if state.is_multiple_of(4) {
                        state as u8
                    } else {
                        (state % 3) as u8
                    }
                })
                .collect();
            let _ = decode(&arbitrary);
        }
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writable_reopen_commit_publishes_next_generation() {
        let (rel, disk, rtree, cube) = setup(700);
        let mut path = std::env::temp_dir();
        path.push(format!("rcube_sigcommit_{}", std::process::id()));
        cube.save_to_with(&rtree, &path, 1024, 64).expect("save");

        // Reopen writable: same answers, generation 1 (save_to committed
        // once), appends allowed.
        let (mut wcube, mut wtree) = SignatureCube::open_writable(&path, 64).expect("open");
        assert!(!wcube.store().read_only());
        assert_eq!(wcube.store().generation(), Some(1));

        // Patch one cell and commit generation 2.
        let keep: Vec<Vec<u16>> = rel
            .tids()
            .filter(|&t| rel.selection_value(t, 0) == 1)
            .take(2)
            .map(|t| rtree.tuple_path(t).unwrap())
            .collect();
        let sig = Signature::from_paths(wcube.fanout(), keep.iter().map(|p| p.as_slice()));
        wcube.replace_cell(&[0], vec![1], &sig, &disk).unwrap();
        assert!(wcube.store().reclaimable_pages() > 0, "replaced partials must be retired");
        assert_eq!(wcube.commit(&mut wtree).expect("commit").generation, 2);

        // A fresh open serves the patched generation.
        let (reopened, rtree2) = SignatureCube::open_from_with(&path, 64).expect("reopen");
        assert_eq!(reopened.store().generation(), Some(2));
        reopened.verify_integrity().expect("clean scrub");
        let disk2 = DiskSim::with_defaults();
        let cell = reopened.cell_signature(&[0], &[1]).expect("patched cell");
        let mut cur = uncached(cell, reopened.store(), &disk2);
        for tid in rel.tids() {
            let p = rtree2.tuple_path(tid).unwrap();
            assert_eq!(walk(&mut cur, &rtree2, &p), keep.contains(&p), "tid {tid}");
        }

        // Vacuum drops the retired pages; the compacted file is clean and
        // answers identically.
        let mut vpath = std::env::temp_dir();
        vpath.push(format!("rcube_sigvacuum_{}", std::process::id()));
        let reclaimed = wcube.vacuum_to(&wtree, &vpath, 1024, 64).expect("vacuum");
        assert!(reclaimed > 0);
        let (vac, _) = SignatureCube::open_from_with(&vpath, 64).expect("open vacuumed");
        vac.verify_integrity().expect("vacuumed scrub");
        assert!(
            std::fs::metadata(&vpath).unwrap().len() < std::fs::metadata(&path).unwrap().len(),
            "compaction must shrink the file"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&vpath).ok();
    }

    #[test]
    fn compression_beats_raw_bitmaps() {
        // Thesis-scale fanout: per-node arrays are long enough for the
        // sparse codings to pay off against full bitmaps.
        let rel = SyntheticSpec { tuples: 5_000, cardinality: 20, ..Default::default() }.generate();
        let disk = DiskSim::with_defaults();
        let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::for_page(4096, 2));
        let cube = SignatureCube::build(&rel, &rtree, &disk, SignatureCubeConfig::default());
        let raw_bits_per_sig = rtree.node_count() * rtree.max_fanout();
        let cells: usize = (0..rel.schema().num_selection())
            .map(|d| (0..20u32).filter(|&v| cube.cell_signature(&[d], &[v]).is_some()).count())
            .sum();
        let raw_bytes = raw_bits_per_sig * cells / 8;
        assert!(
            cube.materialized_bytes() < raw_bytes,
            "compressed {} should undercut raw {}",
            cube.materialized_bytes(),
            raw_bytes
        );
    }

    proptest::proptest! {
        /// The lazy-intersection pruner, the eagerly assembled signature
        /// and the naive selection filter agree on every node and tuple
        /// path, over random relations, fanouts, alphas and 1–3-d
        /// predicates.
        #[test]
        fn proptest_lazy_equals_assembled_equals_naive(
            tuples in 60usize..260,
            cardinality in 2u32..5,
            fanout in 4usize..12,
            alpha_millis in 1usize..800,
            nconds in 1usize..4,
            seed in 0u64..1_000,
        ) {
            let rel = SyntheticSpec { tuples, cardinality, seed, ..Default::default() }.generate();
            let disk = DiskSim::with_defaults();
            let rtree = RTree::over_relation(&disk, &rel, &[], RTreeConfig::small(fanout));
            let cube = SignatureCube::build(
                &rel,
                &rtree,
                &disk,
                SignatureCubeConfig { alpha: alpha_millis as f64 / 1000.0, cuboids: None },
            );
            let conds: Vec<(usize, u32)> =
                (0..nconds.min(rel.schema().num_selection())).map(|d| (d, (seed as u32 + d as u32) % cardinality)).collect();
            let sel = Selection::new(conds);

            // Naive ground truth: a prefix qualifies iff some matching
            // tuple's path runs through it.
            let matching: Vec<Vec<u16>> = rel
                .tids()
                .filter(|&t| sel.matches(&rel, t))
                .map(|t| rtree.tuple_path(t).unwrap())
                .collect();
            let naive = |prefix: &[u16]| matching.iter().any(|p| p.starts_with(prefix));

            let assembled = cube.assemble(&sel, &disk).unwrap();
            let lazy = cube.pruner_for(&sel, &disk).unwrap();
            proptest::prop_assert_eq!(lazy.is_some(), assembled.as_ref().is_some_and(|s| !s.is_empty()));
            let Some(mut lazy) = lazy else { return; };
            let assembled = assembled.unwrap();

            for tid in rel.tids() {
                let path = rtree.tuple_path(tid).unwrap();
                for l in 1..=path.len() {
                    let want = naive(&path[..l]);
                    proptest::prop_assert_eq!(assembled.contains_path(&path[..l]), want,
                        "assembled diverges from naive at {:?}", &path[..l]);
                    proptest::prop_assert_eq!(walk(&mut lazy, &rtree, &path[..l]), want,
                        "lazy diverges from naive at {:?}", &path[..l]);
                }
            }
        }
    }
}
