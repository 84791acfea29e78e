//! Shared cross-query decoded-signature-node cache, indexed by partial.
//!
//! PR 3's lazy read path memoizes decoded nodes *per query* (inside each
//! cursor of a [`crate::sigcube::Pruner`]), so two queries hitting the same
//! hot cuboid both pay the first decode of every node they touch. For an
//! online serving workload — many concurrent top-k queries over a
//! read-mostly cube — that first decode dominates repeat traffic. The
//! [`SharedNodeCache`] sits between the per-query memo and storage, shared
//! by every cursor of every generation a cube file is served through.
//!
//! # Layout: page id → that partial's node table
//!
//! The cache is a directory from *partial first page id* to a
//! [`PartialTable`], striped by page id. A table is what one header scan
//! of the partial learns — the sorted `(SID, bit offset)` directory and
//! the stream's bit length — plus one write-once slot per stored node for
//! its decoded bits. What is measured to live here is partials, handed
//! over 68 at a time by a flush (Kaser & Lemire pick a chunk's
//! representation from what it is measured to hold), so the partial is the
//! unit of everything but a hit:
//!
//! * **A cursor resolves a table once per (query, partial)** — one stripe
//!   read lock, one hash, one `Arc` clone — and keeps it for the query.
//! * **A hit takes no lock and hashes nothing**: a binary search of the
//!   table's directory and an acquire load of the slot. A SID the
//!   directory does not list is *proven* absent — the proof is the
//!   directory itself, so an absence is never stored on its own.
//! * **A miss** (the table is missing, or the slot is vacant) reads the
//!   partial's bytes, decodes the one node and fills the slot; with the
//!   table resident not even the header scan is repeated.
//! * **Invalidation is a removal**: retiring a partial drops its table —
//!   one map removal, not a scan of every entry.
//! * **Hand-over is one walk of the old table**: a maintenance splice
//!   that rewrites a partial builds the successor's table from its own
//!   piece list — untouched nodes carry the same `Arc<PackedBits>` and
//!   their reference bit, re-encoded nodes enter decoded — and
//!   [`SharedNodeCache::hand_over`] publishes the tables of one commit
//!   together. What ages a node out is the budget's clock, nothing else:
//!   a rule that carried only what the outgoing generation had looked up
//!   was measured to re-decode 7 % of all lookups on the benchmark's
//!   ingest-while-serving stream (a generation lives ≈ 190 queries, too
//!   few to touch every node the next 190 will want).
//!
//! # Concurrency and invalidation
//!
//! * **Keys name immutable committed bytes.** The append-only page
//!   allocator never reuses the first page id of a *committed* partial
//!   within one file, so a key identifies one partial's bytes and cached
//!   values never go stale under concurrent reads (see the "Concurrency
//!   model" section of `rcube_storage::format`). Pages appended by a
//!   commit that then failed *are* reused by the next attempt, for other
//!   bytes: a writer that shares this cache with the generation being
//!   served therefore stages its tables and publishes them only once its
//!   commit stands ([`crate::delta`], *The warm path*).
//! * **Retired keys leave one hand-over late.** Readers opened just
//!   before a swap finish on the tables of the generation they pinned;
//!   [`SharedNodeCache::hand_over`] drops the tables of the partials the
//!   *previous* hand-over retired and sets its own aside for the next —
//!   outside the budget (they share nearly every node with their
//!   successors) and bounded by what one commit rewrites.
//! * **Bounded budget, second-chance eviction.** Every table carries its
//!   weight (directory skeleton + decoded nodes). Each stripe keeps its
//!   tables in one [`QueueMap`], the queue the storage crate's page caches
//!   evict through. Past the budget a clock sweeps a stripe's tables oldest
//!   first: nodes referenced since the last sweep survive with their bit
//!   cleared, the others are dropped — the table is queued again (replaced
//!   by its survivors if it lost any), or removed when none is left.
//!   Cursors holding the old table keep reading it. Eviction is advisory:
//!   an evicted node is re-decoded and re-admitted; correctness never
//!   depends on residency.
//!
//! A shared hit skips the partial load *and* the node decode, so it is
//! metered separately (`shared_node_hits` in `rcube_core::QueryStats`)
//! from per-query memo hits and charged no I/O: the node never left
//! memory.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use rcube_obs::{Counter, Metrics, Striped};
use rcube_storage::{PackedBits, QueueMap, Stripes};

/// Default cache budget: 4 MiB of tables and packed node words — a few
/// thousand hot cuboid cells at typical node sizes.
pub const DEFAULT_NODE_CACHE_BYTES: usize = 4 << 20;

/// Lock stripes of the page directory; a query takes one per partial it
/// touches, a hand-over one per partial it rewrote.
const SHARDS: usize = 16;

/// Point-in-time counters of a [`SharedNodeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCacheStats {
    /// Lookups answered from the shared cache.
    pub hits: u64,
    /// Lookups that fell through to the per-query decode path.
    pub misses: u64,
    /// Entries evicted under budget pressure.
    pub evictions: u64,
    /// Resident decoded nodes.
    pub entries: usize,
    /// Approximate resident bytes (tables and nodes).
    pub bytes: usize,
}

/// One stored node's slot: its decoded bits once somebody decoded them,
/// and the reference bit the eviction clock reads. Lookups set the bit only
/// when they find it clear, so a hot node's line stays shared between
/// readers; a sweep clears it. A node enters unreferenced: the query that
/// decoded it has it already, only the next one makes it *shared*.
#[derive(Debug, Default)]
struct Slot {
    bits: OnceLock<Arc<PackedBits>>,
    referenced: AtomicBool,
}

impl Slot {
    fn holding(bits: Arc<PackedBits>, referenced: bool) -> Self {
        Self { bits: OnceLock::from(bits), referenced: AtomicBool::new(referenced) }
    }
}

/// Weight of an empty table, and of each directory entry with its slot.
const TABLE_BYTES: usize = 96;
const SLOT_BYTES: usize = 40;

/// Resident weight of one decoded node: the `Arc` allocation + its words.
fn node_weight(bits: &PackedBits) -> usize {
    48 + bits.words().len() * 8
}

/// Slot arrays a table may reach through before its successor copies the
/// slots it keeps into one of its own ([`TableBuilder`]): a copy reads
/// every slot it keeps and bumps a reference count per decoded node, so it
/// is what a hand-over avoids fifteen times out of sixteen.
const MAX_SLABS: usize = 16;

/// One stored node as a table lists it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DirEntry {
    pub(crate) sid: u64,
    /// Bit offset of the node's coding in the partial's stream.
    pub(crate) off: u32,
    /// Where the node's slot is: slab index in the top byte, index within
    /// the slab below it.
    slot: u32,
}

impl DirEntry {
    /// The `ix`th node a header scan found: SID, coding offset, and the
    /// slot of that rank in the table's first slab.
    pub(crate) fn scanned(sid: u64, off: u32, ix: usize) -> Self {
        Self { sid, off, slot: slot_ref(0, ix) }
    }
}

fn slot_ref(slab: usize, ix: usize) -> u32 {
    debug_assert!(slab < 1 << 8 && ix < 1 << 24);
    (slab as u32) << 24 | ix as u32
}

/// The node table of one partial signature (module docs): the header
/// scan's directory and one write-once slot per stored node. Immutable
/// but for the slots, so cursors share it behind an `Arc` without a lock.
///
/// The slots sit in *slabs* — arrays shared, whole, with the table of the
/// partial this one was rewritten from: a rewrite leaves most nodes where
/// they were, and its table reaches their slots through the predecessor's
/// slabs instead of copying them one reference count at a time, adding one
/// slab of its own for the nodes it re-encoded. So what a reader decodes
/// through either table is there for both, a retired table costs its
/// directory to drop, and a slot a rewrite dropped lingers, unreachable,
/// until the [`MAX_SLABS`]th successor copies what it keeps.
#[derive(Debug)]
pub struct PartialTable {
    /// Bits of the partial's coding stream.
    bit_len: usize,
    /// Ascending by SID.
    dir: Vec<DirEntry>,
    slabs: Vec<Arc<[Slot]>>,
    /// Weight of the nodes resident in the slots — exact for a table with
    /// a slab of its own only, else what the predecessor counted plus what
    /// was added since (a little high: it still counts what a rewrite
    /// dropped or gave to a sibling).
    node_bytes: AtomicUsize,
}

impl PartialTable {
    /// A table over the directory of a header scan
    /// ([`DirEntry::scanned`]), every slot vacant.
    pub(crate) fn new(bit_len: usize, dir: Vec<DirEntry>) -> Self {
        let slab = (0..dir.len()).map(|_| Slot::default()).collect();
        Self { bit_len, dir, slabs: vec![slab], node_bytes: AtomicUsize::new(0) }
    }

    /// The directory alone, for a cursor that shares nothing: no slots —
    /// every [`Self::node`] is vacant, and stays so.
    pub(crate) fn directory_only(bit_len: usize, dir: Vec<DirEntry>) -> Self {
        Self { bit_len, dir, slabs: Vec::new(), node_bytes: AtomicUsize::new(0) }
    }

    /// Bits of the partial's coding stream.
    pub(crate) fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// The node directory, ascending by SID.
    pub(crate) fn dir(&self) -> &[DirEntry] {
        &self.dir
    }

    /// Directory slot of `sid`; `None` proves the partial stores no such
    /// node.
    pub(crate) fn slot_of(&self, sid: u64) -> Option<usize> {
        self.dir.binary_search_by_key(&sid, |e| e.sid).ok()
    }

    fn slot(&self, di: usize) -> &Slot {
        let at = self.dir[di].slot;
        &self.slabs[(at >> 24) as usize][(at & 0x00FF_FFFF) as usize]
    }

    /// The decoded node in slot `di`, if resident — marking it referenced.
    pub(crate) fn node(&self, di: usize) -> Option<&Arc<PackedBits>> {
        if self.slabs.is_empty() {
            return None;
        }
        let slot = self.slot(di);
        let bits = slot.bits.get()?;
        if !slot.referenced.load(Ordering::Relaxed) {
            slot.referenced.store(true, Ordering::Relaxed);
        }
        Some(bits)
    }

    /// Sets slot `di` unless it is set already (the first decode wins; any
    /// two are equal); returns the weight that made resident.
    fn set(&self, di: usize, bits: Arc<PackedBits>) -> usize {
        let weight = node_weight(&bits);
        if self.slot(di).bits.set(bits).is_err() {
            return 0;
        }
        self.node_bytes.fetch_add(weight, Ordering::Relaxed);
        weight
    }

    /// Resident weight: directory skeleton plus decoded nodes.
    fn weight(&self) -> usize {
        TABLE_BYTES + self.dir.len() * SLOT_BYTES + self.node_bytes.load(Ordering::Relaxed)
    }

    /// Decoded nodes resident.
    fn resident(&self) -> usize {
        (0..self.dir.len()).filter(|&di| self.slot(di).bits.get().is_some()).count()
    }

    /// One pass of the eviction clock over this table: every resident
    /// node loses its reference bit; the ones that had none are dropped.
    fn sweep(&self) -> Swept {
        let (mut kept, mut dropped) = (Vec::new(), 0);
        for di in 0..self.dir.len() {
            let slot = self.slot(di);
            if slot.bits.get().is_some() {
                if slot.referenced.swap(false, Ordering::Relaxed) {
                    kept.push(di);
                } else {
                    dropped += 1;
                }
            }
        }
        if kept.is_empty() {
            return Swept::Empty { dropped };
        }
        if dropped == 0 {
            return Swept::Intact;
        }
        let mut survivors = TableBuilder::copying(self);
        let mut kept = kept.into_iter().peekable();
        for (di, e) in self.dir.iter().enumerate() {
            match kept.next_if_eq(&di).and_then(|_| self.slot(di).bits.get()) {
                Some(bits) => survivors.fresh(e.sid, e.off, Arc::clone(bits)),
                None => survivors.vacant(e.sid, e.off),
            }
        }
        Swept::Shrunk { table: survivors.finish(self.bit_len), dropped }
    }

    /// `(sid, decoded bits)` of every resident node, for the tests that
    /// hold the cache to the file.
    #[cfg(test)]
    pub(crate) fn resident_nodes(&self) -> Vec<(u64, Arc<PackedBits>)> {
        let nodes = self.dir.iter().enumerate();
        nodes.filter_map(|(di, e)| Some((e.sid, self.slot(di).bits.get()?.clone()))).collect()
    }
}

/// Builds the tables of the partials one partial was rewritten into, node
/// by node in SID order: [`Self::keep`] for a node copied as stored,
/// [`Self::fresh`] for one re-encoded, [`Self::finish`] where the writer
/// closes a partial (the builder then starts the next one).
#[derive(Debug)]
pub(crate) struct TableBuilder<'o> {
    old: &'o PartialTable,
    /// The predecessor has reached [`MAX_SLABS`] (or is being swept): kept
    /// nodes are copied into this table's own slab, none is inherited.
    copy: bool,
    dir: Vec<DirEntry>,
    own: Vec<Slot>,
    own_bytes: usize,
}

impl<'o> TableBuilder<'o> {
    /// For the partials `old`'s partial is rewritten into.
    pub(crate) fn succeeding(old: &'o PartialTable) -> Self {
        let copy = old.slabs.len() >= MAX_SLABS;
        let dir = Vec::with_capacity(old.dir.len() + 8); // most rewrites change a few nodes
        Self { old, copy, dir, own: Vec::new(), own_bytes: 0 }
    }

    fn copying(old: &'o PartialTable) -> Self {
        Self { copy: true, ..Self::succeeding(old) }
    }

    fn own_slab(&self) -> usize {
        if self.copy {
            0
        } else {
            self.old.slabs.len()
        }
    }

    fn push_own(&mut self, sid: u64, off: u32, slot: Slot) {
        let at = slot_ref(self.own_slab(), self.own.len());
        self.own.push(slot);
        self.dir.push(DirEntry { sid, off, slot: at });
    }

    /// The node in slot `old_di` of the predecessor, stored again as it
    /// was: whatever is — or will be — decoded for it stays shared, with
    /// the reference bit as it stands (what the eviction clock knows of a
    /// node does not change because its partial was rewritten around it).
    pub(crate) fn keep(&mut self, sid: u64, off: u32, old_di: usize) {
        if !self.copy {
            self.dir.push(DirEntry { sid, off, slot: self.old.dir[old_di].slot });
            return;
        }
        let slot = self.old.slot(old_di);
        let copied = match slot.bits.get() {
            Some(bits) => {
                self.own_bytes += node_weight(bits);
                Slot::holding(Arc::clone(bits), slot.referenced.load(Ordering::Relaxed))
            }
            None => Slot::default(),
        };
        self.push_own(sid, off, copied);
    }

    /// A node the writer has decoded — re-encoded or new; no query has
    /// looked it up yet.
    pub(crate) fn fresh(&mut self, sid: u64, off: u32, bits: Arc<PackedBits>) {
        self.own_bytes += node_weight(&bits);
        self.push_own(sid, off, Slot::holding(bits, false));
    }

    fn vacant(&mut self, sid: u64, off: u32) {
        self.push_own(sid, off, Slot::default());
    }

    /// The table of the partial just closed, `bit_len` bits long.
    pub(crate) fn finish(&mut self, bit_len: usize) -> PartialTable {
        debug_assert!(self.dir.windows(2).all(|w| w[0].sid < w[1].sid), "SIDs ascend");
        let mut slabs = if self.copy { Vec::new() } else { self.old.slabs.clone() };
        let inherited = if self.copy { 0 } else { self.old.node_bytes.load(Ordering::Relaxed) };
        if !self.own.is_empty() || slabs.is_empty() {
            slabs.push(self.own.drain(..).collect());
        }
        let bytes = inherited + std::mem::take(&mut self.own_bytes);
        let dir = std::mem::take(&mut self.dir);
        PartialTable { bit_len, dir, slabs, node_bytes: AtomicUsize::new(bytes) }
    }
}

/// What [`PartialTable::sweep`] left of a table.
enum Swept {
    /// Every resident node had been referenced: second chance for all.
    Intact,
    /// The survivors, reference bits clear; `dropped` nodes went.
    Shrunk { table: PartialTable, dropped: usize },
    /// No resident node survived: the table goes, skeleton included.
    Empty { dropped: usize },
}

/// The tables of one maintenance commit, and the partials it retired —
/// collected by a writer that may not publish before its commit stands,
/// handed to [`SharedNodeCache::hand_over`] once it does, dropped with the
/// writer when it does not.
#[derive(Debug, Default)]
pub(crate) struct HandOver {
    /// New partial first page id → its table.
    pub(crate) tables: HashMap<u64, Arc<PartialTable>>,
    /// First page ids of the partials the commit replaced.
    pub(crate) retired: Vec<u64>,
}

/// The shared decoded-node cache (see module docs). All methods take
/// `&self`; synchronization is internal (striped `RwLock`s + atomics).
#[derive(Debug)]
pub struct SharedNodeCache {
    shards: Stripes<RwLock<Shard>>,
    /// Byte budget over all stripes; 0 disables the cache entirely.
    budget: usize,
    /// Weight of every resident table.
    bytes: AtomicUsize,
    /// `[hits, misses]`, striped by looking-up thread.
    lookups: Striped<2>,
    evictions: AtomicU64,
    /// Live registry counters ([`SharedNodeCache::attach_metrics`]).
    metrics: OnceLock<NodeCacheMetricSet>,
}

/// Pre-resolved counters mirroring the cache's atomics into a registry,
/// with absences broken out on both sides: an absent hit skips the partial
/// load *and* proves no decode is needed (a different cost class than a
/// node hit); an absent miss read the partial and decoded nothing, so
/// `misses - absent_misses` is exactly the nodes queries decoded.
#[derive(Debug)]
struct NodeCacheMetricSet {
    hits: Counter,
    absent_hits: Counter,
    misses: Counter,
    absent_misses: Counter,
    evictions: Counter,
}

const HITS: usize = 0;
const MISSES: usize = 1;

#[derive(Debug, Default)]
struct Shard {
    /// Resident tables in clock order: one live queue slot per resident
    /// page id.
    tables: QueueMap<u64, Arc<PartialTable>>,
    /// Tables of the partials the last [`SharedNodeCache::hand_over`]
    /// retired, kept for the readers of the generation it superseded and
    /// dropped by the next one. Outside the budget and the clock: nearly
    /// all they hold is shared with the tables that replaced them, and
    /// there is at most one commit's worth.
    leaving: HashMap<u64, Arc<PartialTable>>,
}

impl SharedNodeCache {
    /// Cache bounded by `budget_bytes` across all stripes. A budget of zero
    /// disables caching: no table is ever resident.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            budget: budget_bytes,
            bytes: AtomicUsize::new(0),
            lookups: Striped::default(),
            evictions: AtomicU64::new(0),
            metrics: OnceLock::new(),
        }
    }

    /// Mirrors cache activity into `metrics` as live counters
    /// (`{prefix}.nodecache.hits` / `.absent_hits` / `.misses` /
    /// `.absent_misses` / `.evictions`). Resolves handles once; a second
    /// attach is a no-op.
    pub fn attach_metrics(&self, metrics: &Metrics, prefix: &str) {
        let _ = self.metrics.set(NodeCacheMetricSet {
            hits: metrics.counter(&format!("{prefix}.nodecache.hits")),
            absent_hits: metrics.counter(&format!("{prefix}.nodecache.absent_hits")),
            misses: metrics.counter(&format!("{prefix}.nodecache.misses")),
            absent_misses: metrics.counter(&format!("{prefix}.nodecache.absent_misses")),
            evictions: metrics.counter(&format!("{prefix}.nodecache.evictions")),
        });
    }

    /// Cache with the default budget ([`DEFAULT_NODE_CACHE_BYTES`]).
    pub fn with_default_budget() -> Self {
        Self::new(DEFAULT_NODE_CACHE_BYTES)
    }

    /// True when the budget is zero and the cache never stores anything.
    pub fn is_disabled(&self) -> bool {
        self.budget == 0
    }

    /// The table of the partial rooted at `page`, if resident — the one
    /// locked step of a query's visit to that partial.
    pub(crate) fn table(&self, page: u64) -> Option<Arc<PartialTable>> {
        if self.is_disabled() {
            return None;
        }
        let shard = self.shards.of(page).read().unwrap();
        shard.tables.get(&page).or_else(|| shard.leaving.get(&page)).cloned()
    }

    /// Admits the table of the partial rooted at `page` and returns the
    /// resident one — the caller's, or the one another query admitted
    /// first (they describe the same bytes). A table heavier than the
    /// whole budget is handed back unadmitted.
    pub(crate) fn admit(&self, page: u64, table: Arc<PartialTable>) -> Arc<PartialTable> {
        if table.weight() > self.budget {
            return table;
        }
        let idx = self.shards.index_of(page);
        let resident = {
            let mut shard = self.shards[idx].write().unwrap();
            if let Some(first) = shard.tables.get(&page) {
                return Arc::clone(first);
            }
            self.bytes.fetch_add(table.weight(), Ordering::Relaxed);
            shard.tables.insert(page, Arc::clone(&table));
            table
        };
        self.enforce_budget(idx);
        resident
    }

    /// Fills slot `di` of `table` with a node just decoded and returns the
    /// resident node. Weighed against the budget when `table` is the one
    /// resident under `page` (under the stripe's read lock, so a removal
    /// cannot tear the tally); a table already replaced is filled for its
    /// holders alone.
    pub(crate) fn fill<'t>(
        &self,
        page: u64,
        table: &'t Arc<PartialTable>,
        di: usize,
        bits: Arc<PackedBits>,
    ) -> &'t Arc<PackedBits> {
        let idx = self.shards.index_of(page);
        {
            let shard = self.shards[idx].read().unwrap();
            let grown = table.set(di, bits);
            if shard.tables.get(&page).is_some_and(|t| Arc::ptr_eq(t, table)) {
                self.bytes.fetch_add(grown, Ordering::Relaxed);
            }
        }
        self.enforce_budget(idx);
        table.slot(di).bits.get().expect("set above, or before")
    }

    /// Tallies one lookup answered from a shared table — a resident node,
    /// or (`absent`) a SID the directory proves the partial does not hold.
    pub(crate) fn record_hit(&self, absent: bool) {
        self.lookups.add(HITS, 1);
        if let Some(ms) = self.metrics.get() {
            ms.hits.inc();
            if absent {
                ms.absent_hits.inc();
            }
        }
    }

    /// Tallies one lookup that had to read the partial — to decode the
    /// node, or (`absent`) to learn from its own scan that there is none.
    pub(crate) fn record_miss(&self, absent: bool) {
        self.lookups.add(MISSES, 1);
        if let Some(ms) = self.metrics.get() {
            ms.misses.inc();
            if absent {
                ms.absent_misses.inc();
            }
        }
    }

    /// Sweeps stripes, starting at `from`, until the resident weight fits
    /// the budget (module docs, *second-chance eviction*). Two rounds
    /// suffice: the first clears every reference bit it spares.
    fn enforce_budget(&self, from: usize) {
        for step in 0..2 * SHARDS {
            if self.bytes.load(Ordering::Relaxed) <= self.budget {
                return;
            }
            let mut shard = self.shards[(from + step) % SHARDS].write().unwrap();
            // One turn of the hand: every table resident now, oldest first.
            for _ in 0..shard.tables.len() {
                if self.bytes.load(Ordering::Relaxed) <= self.budget {
                    return;
                }
                let Some((page, table)) = shard.tables.pop_oldest() else {
                    break;
                };
                let before = table.weight();
                let dropped = match table.sweep() {
                    Swept::Intact => {
                        shard.tables.insert(page, table); // second chance
                        continue;
                    }
                    Swept::Shrunk { table, dropped } => {
                        self.bytes.fetch_add(table.weight(), Ordering::Relaxed);
                        shard.tables.insert(page, Arc::new(table));
                        dropped
                    }
                    Swept::Empty { dropped } => dropped,
                };
                self.bytes.fetch_sub(before, Ordering::Relaxed);
                self.evictions.fetch_add(dropped as u64, Ordering::Relaxed);
                if let Some(ms) = self.metrics.get() {
                    ms.evictions.add(dropped as u64);
                }
            }
        }
    }

    /// Drops every table and resets occupancy (a full epoch bump; COW
    /// maintenance prefers [`Self::invalidate_partial`]). Hit/miss/
    /// eviction counters keep accumulating.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut s = shard.write().unwrap();
            let gone: usize = s.tables.values().map(|t| t.weight()).sum();
            self.bytes.fetch_sub(gone, Ordering::Relaxed);
            s.tables.clear();
            s.leaving.clear();
        }
    }

    /// Drops the table of the partial rooted at `partial_page` — the
    /// per-partial invalidation COW maintenance needs: a replaced cell's
    /// old partials are retired (their page ids never come back), so only
    /// their tables go; untouched partials stay resident across the
    /// commit. One removal.
    pub fn invalidate_partial(&self, partial_page: u64) {
        let mut shard = self.shards.of(partial_page).write().unwrap();
        shard.leaving.remove(&partial_page);
        if let Some(table) = shard.tables.remove(&partial_page) {
            self.bytes.fetch_sub(table.weight(), Ordering::Relaxed);
        }
    }

    /// Publishes what one maintenance commit did to the cube: the tables
    /// of the partials it wrote become visible (a writer's table replaces
    /// whatever sat under its page id); the partials it retired keep their
    /// tables, off the books, for the readers still on the generation it
    /// supersedes; and the ones the *previous* hand-over retired lose
    /// theirs — cursors that opened just before that swap have drained by
    /// now, and a straggler re-reads its partial.
    pub(crate) fn hand_over(&self, commit: HandOver) {
        if self.is_disabled() {
            return;
        }
        for shard in self.shards.iter() {
            shard.write().unwrap().leaving.clear();
        }
        for page in commit.retired {
            let mut shard = self.shards.of(page).write().unwrap();
            if let Some(table) = shard.tables.remove(&page) {
                self.bytes.fetch_sub(table.weight(), Ordering::Relaxed);
                shard.leaving.insert(page, table);
            }
        }
        for (page, table) in commit.tables {
            self.invalidate_partial(page);
            self.admit(page, table);
        }
    }

    /// Counter and occupancy snapshot.
    pub fn stats(&self) -> NodeCacheStats {
        let mut entries = 0usize;
        for shard in self.shards.iter() {
            entries += shard.read().unwrap().tables.values().map(|t| t.resident()).sum::<usize>();
        }
        NodeCacheStats {
            hits: self.lookups.sum(HITS),
            misses: self.lookups.sum(MISSES),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Every resident `(page id, table)`, for the tests that hold the
    /// cache to the file.
    #[cfg(test)]
    pub(crate) fn resident_tables(&self) -> Vec<(u64, Arc<PartialTable>)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            let s = shard.read().unwrap();
            out.extend(s.tables.iter().chain(&s.leaving).map(|(&page, t)| (page, Arc::clone(t))));
        }
        out.sort_by_key(|&(page, _)| page);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(n: usize) -> Arc<PackedBits> {
        let mut b = PackedBits::zeros(n);
        b.set(n.saturating_sub(1));
        Arc::new(b)
    }

    /// A table over SIDs `sids`, every slot vacant.
    fn table(sids: &[u64]) -> Arc<PartialTable> {
        let entry = |(i, &sid)| DirEntry::scanned(sid, 16 * i as u32 + 8, i);
        Arc::new(PartialTable::new(16 * sids.len(), sids.iter().enumerate().map(entry).collect()))
    }

    /// What a cursor does for one SID of the partial at `page`: resolve
    /// the table (admitting `fresh` on a miss), then the slot.
    fn lookup(
        cache: &SharedNodeCache,
        page: u64,
        sid: u64,
        fresh: &[u64],
        decoded: usize,
    ) -> Option<Arc<PackedBits>> {
        let (table, scanned) = match cache.table(page) {
            Some(t) => (t, false),
            None => (cache.admit(page, table(fresh)), true),
        };
        let Some(di) = table.slot_of(sid) else {
            if scanned {
                cache.record_miss(true);
            } else {
                cache.record_hit(true);
            }
            return None;
        };
        if let Some(node) = table.node(di) {
            cache.record_hit(false);
            return Some(Arc::clone(node));
        }
        cache.record_miss(false);
        Some(Arc::clone(cache.fill(page, &table, di, bits(decoded))))
    }

    #[test]
    fn miss_insert_hit_round_trip() {
        let cache = SharedNodeCache::new(1 << 20);
        assert!(cache.table(7).is_none());
        assert!(lookup(&cache, 7, 3, &[1, 3, 9], 100).unwrap().get(99));
        let got = lookup(&cache, 7, 3, &[], 0).expect("cached");
        assert!(got.get(99), "the resident node, not a fresh decode");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn absence_is_cached_distinctly() {
        let cache = SharedNodeCache::new(1 << 20);
        cache.admit(1, table(&[2, 4]));
        assert!(lookup(&cache, 1, 9, &[], 0).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 0), "known-absent, not a miss");
        assert_eq!(s.entries, 0, "the directory is the proof; nothing is stored for it");
    }

    #[test]
    fn zero_budget_disables() {
        let cache = SharedNodeCache::new(0);
        assert!(cache.is_disabled());
        let mine = table(&[1]);
        assert!(Arc::ptr_eq(&cache.admit(1, Arc::clone(&mine)), &mine), "handed back");
        assert!(cache.table(1).is_none());
        cache.hand_over(HandOver { tables: HashMap::from([(2, table(&[1]))]), retired: vec![] });
        assert!(cache.table(2).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn budget_bounds_occupancy() {
        let budget = 64 << 10;
        let cache = SharedNodeCache::new(budget);
        for i in 0..10_000u64 {
            lookup(&cache, i, i, &[i], 512);
        }
        let s = cache.stats();
        assert!(s.bytes <= budget, "resident {} must respect budget {budget}", s.bytes);
        assert!(s.evictions > 0, "pressure must evict");
        assert!(s.entries > 0, "evictions must leave room for newcomers");
        let weighed: usize = cache.resident_tables().iter().map(|(_, t)| t.weight()).sum();
        assert_eq!(s.bytes, weighed, "the tally is the sum of the resident tables");
    }

    #[test]
    fn hot_nodes_survive_a_cold_scan() {
        // The clock must give recently-probed nodes a second chance: park
        // a hot working set, keep probing it the way repeat queries do,
        // and pour a cold scan (every key touched once, never again)
        // through the cache. The cold entries — unreferenced when the
        // hand reaches them — must be the victims.
        let cache = SharedNodeCache::new(256 << 10);
        let hot: Vec<u64> = (0..32).map(|i| 1_000_000 + i).collect();
        for &k in &hot {
            lookup(&cache, k, k, &[k, k + 1], 64);
        }
        let touch_hot = |cache: &SharedNodeCache| {
            for &k in &hot {
                let t = cache.table(k).unwrap_or_else(|| panic!("hot partial {k} must stay"));
                assert!(t.node(0).is_some(), "hot node {k} must stay resident");
            }
        };
        touch_hot(&cache);
        for i in 0..3_200u64 {
            lookup(&cache, i, i, &[i, i + 1], 64);
            if i % 400 == 399 {
                touch_hot(&cache); // the hot set stays hot while serving
            }
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "the cold scan must create real pressure");
        touch_hot(&cache);
        assert!(s.bytes <= 256 << 10, "budget holds under the scan");
    }

    #[test]
    fn a_sweep_keeps_the_referenced_nodes_of_a_table() {
        let t = table(&[1, 2, 3, 4]);
        for di in 0..4 {
            t.set(di, bits(64));
        }
        t.node(1);
        t.node(3);
        let Swept::Shrunk { table: kept, dropped } = t.sweep() else {
            panic!("two of four were referenced");
        };
        assert_eq!(dropped, 2);
        let listed = |t: &PartialTable| t.dir().iter().map(|e| (e.sid, e.off)).collect::<Vec<_>>();
        assert_eq!(listed(&kept), listed(&t), "the directory — and every absence proof — stays");
        let sids: Vec<u64> = kept.resident_nodes().iter().map(|&(sid, _)| sid).collect();
        assert_eq!(sids, [2, 4]);
        assert_eq!(kept.weight(), t.weight() - 2 * node_weight(&bits(64)));
        assert!(
            matches!(kept.sweep(), Swept::Empty { dropped: 2 }),
            "survivors start unreferenced"
        );
        assert!(
            matches!(t.sweep(), Swept::Empty { dropped: 4 }),
            "the first sweep cleared the bits"
        );
    }

    #[test]
    fn a_successor_shares_slots_until_it_has_to_copy_them() {
        // Rewrite a partial over and over, one node re-encoded each time:
        // the kept nodes' slots are the predecessor's — a decode through
        // either table serves both — until the slab chain is cut.
        let first = table(&[1, 2, 3]);
        first.set(0, bits(64));
        let mut tables = vec![first];
        for round in 0..2 * MAX_SLABS {
            let old = tables.last().unwrap();
            let mut b = TableBuilder::succeeding(old);
            b.keep(1, 8, 0);
            b.keep(2, 24, 1);
            b.fresh(3, 40, bits(round + 1));
            let next = Arc::new(b.finish(56));
            assert!(next.slabs.len() <= MAX_SLABS, "round {round}: {}", next.slabs.len());
            assert!(Arc::ptr_eq(next.node(0).unwrap(), tables[0].node(0).unwrap()));
            assert_eq!(
                next.node(2).unwrap().len(),
                round + 1,
                "the re-encoded node is the new one"
            );
            tables.push(next);
        }
        // Node 2 was never decoded: whoever decodes it, through a table
        // that still shares its slot, decodes it for that whole run.
        let last = tables.last().unwrap();
        last.set(1, bits(7));
        let shares = tables.iter().filter(|t| t.node(1).is_some()).count();
        assert!((1..tables.len()).contains(&shares), "{shares}");
        assert_eq!(last.resident(), 3);
        assert_eq!(
            last.weight(),
            TABLE_BYTES + 3 * SLOT_BYTES + last.node_bytes.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = SharedNodeCache::new(1 << 20);
        lookup(&cache, 1, 1, &[1], 64);
        lookup(&cache, 1, 1, &[], 0);
        cache.clear();
        let s = cache.stats();
        assert_eq!((s.entries, s.bytes), (0, 0));
        assert_eq!(s.hits, 1);
        assert!(cache.table(1).is_none(), "cleared tables are gone");
    }

    #[test]
    fn invalidate_partial_is_surgical() {
        let cache = SharedNodeCache::new(1 << 20);
        // Three partials, several SIDs each.
        let sids: Vec<u64> = (0..5).collect();
        for partial in [10u64, 20, 30] {
            for &sid in &sids {
                lookup(&cache, partial, sid, &sids, 64);
            }
        }
        let before = cache.stats();
        cache.invalidate_partial(20);
        let after = cache.stats();
        assert_eq!(after.entries, before.entries - 5, "only the touched partial goes");
        assert!(after.bytes < before.bytes);
        assert!(cache.table(20).is_none(), "retired partial fully invalidated");
        for partial in [10, 30] {
            let t = cache.table(partial).expect("untouched partial survives");
            assert_eq!(t.resident_nodes().len(), 5);
        }
        // The removed table's stale queue slot must not break subsequent
        // admission.
        for i in 0..100u64 {
            lookup(&cache, 40 + i, i, &[i], 64);
        }
        assert!(cache.table(139).is_some());
    }

    #[test]
    fn hand_over_publishes_together_and_retires_one_swap_late() {
        let cache = SharedNodeCache::new(1 << 20);
        lookup(&cache, 10, 1, &[1, 2], 64);
        lookup(&cache, 11, 5, &[5], 64);
        // Commit A rewrote partial 10 into 20 (node 1 carried, node 2 new).
        let old = cache.table(10).unwrap();
        let mut next = TableBuilder::succeeding(&old);
        next.keep(1, 8, 0);
        next.fresh(2, 24, bits(64));
        cache.hand_over(HandOver {
            tables: HashMap::from([(20, Arc::new(next.finish(32)))]),
            retired: vec![10],
        });
        assert_eq!(cache.table(20).unwrap().resident_nodes().len(), 2);
        assert!(cache.table(10).is_some(), "readers of the last generation still hit");
        assert!(cache.table(11).is_some(), "untouched partials take no part");
        assert_eq!(cache.stats().entries, 3, "a leaving table is off the books");
        // Commit B retires 20's sibling 11; 10 goes now.
        cache.hand_over(HandOver { tables: HashMap::new(), retired: vec![11] });
        assert!(cache.table(10).is_none());
        assert!(cache.table(11).is_some() && cache.table(20).is_some());
        cache.hand_over(HandOver::default());
        assert!(cache.table(11).is_none());
        let weighed: usize = cache.resident_tables().iter().map(|(_, t)| t.weight()).sum();
        assert_eq!(cache.stats().bytes, weighed);
    }

    #[test]
    fn hand_overs_under_budget_keep_the_queue_bounded() {
        // Each hand-over retires one partial and admits its successor under
        // a fresh page id, the way a flush does. Nothing is evicted under
        // budget, so only the queue's compaction bounds the slots the
        // retired tables leave behind.
        let cache = SharedNodeCache::new(1 << 20);
        for page in 0..32u64 {
            cache.admit(page, table(&[page]));
        }
        for cycle in 0..10_000u64 {
            let next = cycle + 32;
            let tables = HashMap::from([(next, table(&[next]))]);
            cache.hand_over(HandOver { tables, retired: vec![cycle] });
            for shard in cache.shards.iter() {
                let tables = &shard.read().unwrap().tables;
                let (slots, live) = (tables.slots(), tables.len());
                assert!(slots <= 2 * live + 8, "cycle {cycle}: {slots} slots, {live} live");
            }
        }
        assert_eq!(cache.stats().evictions, 0);
        let live: usize = cache.shards.iter().map(|s| s.read().unwrap().tables.len()).sum();
        assert_eq!(live, 32, "one table per partial in service");
    }

    #[test]
    fn concurrent_mixed_use_is_safe() {
        let cache = std::sync::Arc::new(SharedNodeCache::new(256 << 10));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let key = (i * 13 + t) % 500;
                        let base = key & !3;
                        let got = lookup(&cache, key / 4, key, &[base, base + 1, base + 3], 64);
                        match got {
                            Some(b) => assert!(b.get(63)),
                            None => assert_eq!(key % 4, 2, "only the unlisted SID is absent"),
                        }
                        if i % 97 == 0 {
                            cache.invalidate_partial(key / 4);
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert!(s.hits > 0 && s.entries > 0);
        let weighed: usize = cache.resident_tables().iter().map(|(_, t)| t.weight()).sum();
        assert_eq!(s.bytes, weighed, "fills racing removals leave the tally exact");
    }
}
