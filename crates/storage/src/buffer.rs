//! Buffer pools: id-only LRU accounting and real byte frames.
//!
//! Two pools live here, both O(1) intrusive lists with capacity expressed
//! in pages:
//!
//! * [`LruBuffer`] — page *identifiers* only, exact LRU. The simulated
//!   device ([`crate::DiskSim`]) does not move bytes on hit/miss; this
//!   buffer just decides whether a logical read is charged as a physical
//!   one, and its miss counts are the disk-access columns of the thesis
//!   figures — its policy never changes.
//! * [`BufferPool`] — real frames, **sharded for concurrency**. The file
//!   backend caches each object's assembled payload as an `Arc<[u8]>`
//!   frame weighted by its covering page count; `get_bytes` handles are
//!   shared views into these frames, so a hit serves the zero-copy
//!   posting-list cursors without touching the file. The pool is split
//!   into N lock-striped shards keyed by first page id, each with its own
//!   page-weighted budget and hit/miss/eviction counters.
//!   [`BufferPool::stats`] snapshots every shard for observability
//!   ([`PoolStats`] / [`PoolShardStats`]).
//!
//! # Replacement: second chance
//!
//! A shard is a list in admission order plus one `referenced` flag per
//! frame — the policy `rcube_core`'s shared node cache runs, on pages. A
//! miss admits at the head. Eviction looks at the tail: a referenced tail
//! has its flag cleared and goes back to the head, an unreferenced one is
//! evicted, so a frame hit since it was last considered survives one more
//! trip around and a cold scan evicts itself.
//!
//! **What a hit writes.** Under the shard's mutex a hit looks the key up,
//! sets the flag *if it is clear* and clones the frame handle: the lock
//! word, the frame's reference count, and (once per trip around the list)
//! the flag. It relinks nothing — exact LRU moved the frame to the head on
//! every hit, four list nodes written per lookup on lines every client of a
//! hot shard shares. Hit and miss totals are thread-striped cells beside
//! the mutex, not fields under it, so counting a hit writes only the
//! counting thread's own line.
//!
//! **What did not change.** The budget invariant (`used_pages ≤
//! max(capacity_pages, weight of the largest resident frame)` after any
//! insert), page-weighted budgets per shard, the oversized-alone rule and
//! the cross-shard reclaim after it, and the meaning of every counter. A
//! shard's critical section never frees: frames it evicts or replaces are
//! handed back to the caller (`Victims`) and dropped *after* the shard
//! mutex is released, so a cold reader never waits on another thread's
//! `free`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rcube_obs::{Counter, Metrics, Striped};

use crate::disk::PageId;

/// Intrusive doubly-linked LRU list backed by a slab of nodes.
#[derive(Debug)]
pub struct LruBuffer {
    capacity: usize,
    map: HashMap<PageId, usize>,
    nodes: Vec<Node>,
    head: usize, // most-recently used
    tail: usize, // least-recently used
    free: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    page: PageId,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl LruBuffer {
    /// Creates a buffer holding at most `capacity` pages. A capacity of zero
    /// disables caching entirely (every read is a physical read).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
        }
    }

    /// Number of pages currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Touches `page`; returns `true` on a hit. On a miss the page is
    /// admitted, evicting the least-recently-used page if at capacity.
    pub fn touch(&mut self, page: PageId) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(&idx) = self.map.get(&page) {
            self.unlink(idx);
            self.push_front(idx);
            return true;
        }
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let victim_page = self.nodes[victim].page;
            self.unlink(victim);
            self.map.remove(&victim_page);
            self.free.push(victim);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = Node { page, prev: NIL, next: NIL };
                i
            }
            None => {
                self.nodes.push(Node { page, prev: NIL, next: NIL });
                self.nodes.len() - 1
            }
        };
        self.map.insert(page, idx);
        self.push_front(idx);
        false
    }

    /// True when `page` is cached (without promoting it).
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    /// Drops `page` from the buffer (e.g. after a structural delete).
    pub fn invalidate(&mut self, page: PageId) {
        if let Some(idx) = self.map.remove(&page) {
            self.unlink(idx);
            self.free.push(idx);
        }
    }

    /// Empties the buffer (used between metered query runs for cold-cache
    /// measurements).
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Default shard count for [`BufferPool`]: enough stripes that concurrent
/// query threads rarely collide, few enough that per-shard budgets stay
/// meaningfully large at the default 256-page capacity.
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// An id-level LRU buffer split into lock stripes — [`LruBuffer`] sharded
/// the same way [`BufferPool`] was in the concurrent-serving PR, so the
/// simulated device's hit/miss accounting stops serializing cursor-heavy
/// concurrent workloads on one mutex. Pages hash to stripes by id
/// (Fibonacci multiplicative hash, like the pool); each stripe runs its
/// own LRU over an even slice of the capacity. Per-stripe LRU is an
/// approximation of global LRU — hit rates differ slightly at tiny
/// capacities, deterministically for any fixed access sequence.
#[derive(Debug)]
pub struct StripedLruBuffer {
    shards: Vec<Mutex<LruBuffer>>,
}

impl StripedLruBuffer {
    /// Buffer holding at most `capacity` pages across
    /// [`DEFAULT_POOL_SHARDS`] stripes. Zero disables caching (every read
    /// is a physical read). The stripe count is clamped so no stripe
    /// starts with zero capacity unless the whole buffer is disabled.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_POOL_SHARDS)
    }

    /// Buffer with an explicit stripe count (clamped to `capacity`).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let n = shards.max(1).min(capacity.max(1));
        let (per, extra) = (capacity / n, capacity % n);
        let shards =
            (0..n).map(|i| Mutex::new(LruBuffer::new(per + usize::from(i < extra)))).collect();
        Self { shards }
    }

    fn shard(&self, page: PageId) -> &Mutex<LruBuffer> {
        let h = page.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Number of lock stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Touches `page` in its stripe; returns `true` on a hit.
    pub fn touch(&self, page: PageId) -> bool {
        self.shard(page).lock().unwrap().touch(page)
    }

    /// True when `page` is cached (without promoting it).
    pub fn contains(&self, page: PageId) -> bool {
        self.shard(page).lock().unwrap().contains(page)
    }

    /// Pages currently cached across stripes.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured capacity across stripes.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().capacity()).sum()
    }

    /// Empties every stripe (cold-cache measurement point).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
    }
}

/// Point-in-time counters of one buffer-pool shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolShardStats {
    /// Lookups served from this shard.
    pub hits: u64,
    /// Lookups that missed this shard.
    pub misses: u64,
    /// Frames evicted under budget pressure (replacements excluded).
    pub evictions: u64,
    /// Pages currently held by cached frames.
    pub used_pages: usize,
    /// This shard's slice of the pool budget, in pages.
    pub capacity_pages: usize,
    /// Number of cached frames.
    pub frames: usize,
}

/// Point-in-time snapshot of a whole [`BufferPool`]: one entry per shard
/// plus aggregate helpers — the observability surface benches print as
/// "cache effectiveness".
#[derive(Debug, Clone, Default)]
pub struct PoolStats {
    pub shards: Vec<PoolShardStats>,
}

impl PoolStats {
    /// Total hits across shards.
    pub fn hits(&self) -> u64 {
        self.shards.iter().map(|s| s.hits).sum()
    }

    /// Total misses across shards.
    pub fn misses(&self) -> u64 {
        self.shards.iter().map(|s| s.misses).sum()
    }

    /// Total evictions across shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.evictions).sum()
    }

    /// Pages currently cached across shards.
    pub fn used_pages(&self) -> usize {
        self.shards.iter().map(|s| s.used_pages).sum()
    }

    /// Configured capacity across shards.
    pub fn capacity_pages(&self) -> usize {
        self.shards.iter().map(|s| s.capacity_pages).sum()
    }

    /// Cached frames across shards.
    pub fn frames(&self) -> usize {
        self.shards.iter().map(|s| s.frames).sum()
    }

    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// A byte-caching buffer pool: object frames under page-weighted second
/// chance, sharded by first page id (see the module docs).
///
/// All methods take `&self`; synchronization is internal and per-shard, so
/// any number of reader threads can hit disjoint shards in parallel.
/// Frames are keyed by the object's first page id and weigh as many pages
/// as the object covers on disk. Inserting past a shard's budget evicts
/// that shard's oldest unreferenced frames until the new one fits; a
/// frame heavier than its whole shard's slice is admitted alone in that
/// shard (so huge objects still benefit from back-to-back reads) and the
/// pool then reclaims pages from the *other* shards until the global
/// budget holds again. The pool-wide invariant matches the pre-sharding
/// LRU: after any insert, `used_pages ≤ max(capacity_pages, weight of
/// the largest resident frame)`. Two over-slice frames hashing to the
/// same shard still evict each other (a frame never spans shards) — the
/// one sharding trade-off, visible in the eviction counters.
#[derive(Debug)]
pub struct BufferPool {
    shards: Vec<PoolStripe>,
    /// Pool-wide budget (the sum of the shard slices), cached so the
    /// post-insert rebalance check doesn't re-lock every shard.
    capacity_pages: usize,
    /// Live hit/miss/eviction counters, resolved once by
    /// [`BufferPool::attach_metrics`]. Unattached pools pay one branch.
    metrics: OnceLock<PoolMetricSet>,
}

/// One lock stripe: the frame list behind its mutex, and the stripe's
/// lookup totals beside it.
#[derive(Debug)]
struct PoolStripe {
    list: Mutex<PoolShard>,
    /// `[hits, misses]`, thread-striped: counted outside the mutex.
    lookups: Striped<2>,
}

const HITS: usize = 0;
const MISSES: usize = 1;

impl PoolStripe {
    fn new(capacity_pages: usize) -> Self {
        Self { list: Mutex::new(PoolShard::new(capacity_pages)), lookups: Striped::default() }
    }

    fn stats(&self) -> PoolShardStats {
        let list = self.list.lock().unwrap();
        PoolShardStats {
            hits: self.lookups.sum(HITS),
            misses: self.lookups.sum(MISSES),
            evictions: list.evictions,
            used_pages: list.used_pages,
            capacity_pages: list.capacity_pages,
            frames: list.map.len(),
        }
    }
}

/// Pre-resolved counter handles for the pool hot paths (the per-shard
/// totals stay authoritative for [`PoolStats`]; these mirror them into a
/// live registry without locking a shard to observe).
#[derive(Debug)]
struct PoolMetricSet {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl BufferPool {
    /// Pool holding at most `capacity_pages` pages' worth of frames across
    /// [`DEFAULT_POOL_SHARDS`] lock-striped shards. Zero disables caching
    /// (every read is a physical read).
    pub fn new(capacity_pages: usize) -> Self {
        Self::with_shards(capacity_pages, DEFAULT_POOL_SHARDS)
    }

    /// Pool with an explicit shard count. The budget is split evenly
    /// (earlier shards absorb the remainder); the effective shard count is
    /// clamped so no shard starts with a zero budget unless the whole pool
    /// is disabled.
    pub fn with_shards(capacity_pages: usize, shards: usize) -> Self {
        let n = shards.max(1).min(capacity_pages.max(1));
        let (per, extra) = (capacity_pages / n, capacity_pages % n);
        let shards = (0..n).map(|i| PoolStripe::new(per + usize::from(i < extra))).collect();
        Self { shards, capacity_pages, metrics: OnceLock::new() }
    }

    /// Mirrors hit/miss/eviction counts into `metrics` as live counters
    /// named `{prefix}.pool.hits` / `.misses` / `.evictions`. Resolves
    /// the handles once; a second attach is a no-op (handles are
    /// permanent for the pool's lifetime).
    pub fn attach_metrics(&self, metrics: &Metrics, prefix: &str) {
        let _ = self.metrics.set(PoolMetricSet {
            hits: metrics.counter(&format!("{prefix}.pool.hits")),
            misses: metrics.counter(&format!("{prefix}.pool.misses")),
            evictions: metrics.counter(&format!("{prefix}.pool.evictions")),
        });
    }

    /// Number of lock stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_index(&self, key: PageId) -> usize {
        // Fibonacci multiplicative hash: consecutive first-page ids (the
        // append-only allocator's pattern) spread across stripes.
        let h = key.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h as usize) % self.shards.len()
    }

    fn shard(&self, key: PageId) -> &PoolStripe {
        &self.shards[self.shard_index(key)]
    }

    /// Configured capacity in pages (sum over shards).
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Pages currently held by cached frames.
    pub fn used_pages(&self) -> usize {
        self.shards.iter().map(|s| s.list.lock().unwrap().used_pages).sum()
    }

    /// Number of cached frames.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.list.lock().unwrap().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate `(hits, misses)` since creation or the last
    /// [`BufferPool::clear`].
    pub fn hit_stats(&self) -> (u64, u64) {
        let s = self.stats();
        (s.hits(), s.misses())
    }

    /// Per-shard occupancy and hit/miss/eviction counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats { shards: self.shards.iter().map(PoolStripe::stats).collect() }
    }

    /// Looks up the frame rooted at `key`; a hit marks it referenced (its
    /// second chance at the next eviction) and moves nothing.
    pub fn get(&self, key: PageId) -> Option<Arc<[u8]>> {
        let stripe = self.shard(key);
        let frame = stripe.list.lock().unwrap().get(key);
        stripe.lookups.add(if frame.is_some() { HITS } else { MISSES }, 1);
        if let Some(ms) = self.metrics.get() {
            if frame.is_some() { &ms.hits } else { &ms.misses }.inc();
        }
        frame
    }

    /// Admits a frame weighing `weight_pages`, evicting unreferenced frames
    /// from the tail of its shard until it fits (a frame heavier than the whole shard is
    /// admitted alone). Replaces any existing frame under the same key.
    /// If the admission pushed the shard past its slice, pages are
    /// reclaimed from the other shards so the pool-wide budget holds (see
    /// the type docs for the exact invariant).
    pub fn insert(&self, key: PageId, frame: Arc<[u8]>, weight_pages: usize) {
        let idx = self.shard_index(key);
        let mut victims = Victims::default();
        let (over_slice, evicted) = {
            let mut shard = self.shards[idx].list.lock().unwrap();
            let before = shard.evictions;
            shard.insert(key, frame, weight_pages, &mut victims);
            (shard.used_pages > shard.capacity_pages, shard.evictions - before)
        };
        drop(victims); // freed here, with the shard unlocked
        if evicted > 0 {
            if let Some(ms) = self.metrics.get() {
                ms.evictions.add(evicted);
            }
        }
        // Every shard within its slice ⇒ the global budget holds, so the
        // cross-shard reclaim only runs after an oversized-alone admission.
        if over_slice {
            self.rebalance(idx);
        }
    }

    /// Evicts tail frames from shards other than `keep` until the pool is
    /// back within its global budget (or only `keep`'s frames remain —
    /// the single-oversized-frame case, where occupancy equals that
    /// frame's weight, exactly like the pre-sharding pool).
    fn rebalance(&self, keep: usize) {
        loop {
            if self.used_pages() <= self.capacity_pages {
                return;
            }
            let mut evicted = false;
            for (i, shard) in self.shards.iter().enumerate() {
                if i == keep {
                    continue;
                }
                let victim = shard.list.lock().unwrap().evict_tail();
                if victim.is_some() {
                    if let Some(ms) = self.metrics.get() {
                        ms.evictions.inc();
                    }
                    evicted = true;
                    if self.used_pages() <= self.capacity_pages {
                        return;
                    }
                }
            }
            if !evicted {
                return;
            }
        }
    }

    /// Drops the frame rooted at `key`, if cached.
    pub fn invalidate(&self, key: PageId) {
        let removed = self.shard(key).list.lock().unwrap().invalidate(key);
        drop(removed);
    }

    /// Empties every shard (cold-cache measurement point) and resets the
    /// counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.list.lock().unwrap().clear();
            shard.lookups.reset();
        }
    }
}

/// The list of one lock stripe: frames in admission order (head = newest),
/// page-weighted, evicted from the tail with a second chance.
#[derive(Debug)]
struct PoolShard {
    capacity_pages: usize,
    used_pages: usize,
    map: HashMap<PageId, usize>,
    nodes: Vec<FrameNode>,
    head: usize,
    tail: usize,
    free: Vec<usize>,
    evictions: u64,
    /// Writes a hit-only workload must not make: list relinks and
    /// `referenced` stores (`a_repeat_hit_moves_nothing`).
    #[cfg(test)]
    relinks: u64,
    #[cfg(test)]
    flag_writes: u64,
}

#[derive(Debug)]
struct FrameNode {
    key: PageId,
    weight: usize,
    /// `None` while the node sits on the free list.
    frame: Option<Arc<[u8]>>,
    /// Hit since admission or since eviction last passed over it.
    referenced: bool,
    prev: usize,
    next: usize,
}

/// Frames a shard let go of during one insert, carried out of the
/// critical section so the last reference drops (and the allocator runs)
/// without the shard mutex. The first victim — the common case, one
/// one-page frame out per frame in — is held inline; only a heavier
/// admission that evicts several spills to the heap.
#[derive(Debug, Default)]
struct Victims {
    first: Option<Arc<[u8]>>,
    rest: Vec<Arc<[u8]>>,
}

impl Victims {
    fn push(&mut self, frame: Arc<[u8]>) {
        match self.first {
            None => self.first = Some(frame),
            Some(_) => self.rest.push(frame),
        }
    }
}

impl PoolShard {
    fn new(capacity_pages: usize) -> Self {
        Self {
            capacity_pages,
            used_pages: 0,
            map: HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            evictions: 0,
            #[cfg(test)]
            relinks: 0,
            #[cfg(test)]
            flag_writes: 0,
        }
    }

    fn get(&mut self, key: PageId) -> Option<Arc<[u8]>> {
        let node = &mut self.nodes[*self.map.get(&key)?];
        // Test before set: a frame that is already marked stays a read.
        if !node.referenced {
            node.referenced = true;
            #[cfg(test)]
            {
                self.flag_writes += 1;
            }
        }
        node.frame.clone()
    }

    /// Admits `frame`; every frame this displaces (the one it replaces
    /// under `key`, and the tail frames evicted to make room) goes into
    /// `victims` for the caller to drop once the shard is unlocked.
    fn insert(
        &mut self,
        key: PageId,
        frame: Arc<[u8]>,
        weight_pages: usize,
        victims: &mut Victims,
    ) {
        if self.capacity_pages == 0 {
            return;
        }
        if let Some(replaced) = self.invalidate(key) {
            victims.push(replaced);
        }
        let weight = weight_pages.max(1);
        while self.used_pages + weight > self.capacity_pages {
            match self.evict_tail() {
                Some(victim) => victims.push(victim),
                None => break,
            }
        }
        let node =
            FrameNode { key, weight, frame: Some(frame), referenced: false, prev: NIL, next: NIL };
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        self.used_pages += weight;
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Unmaps `key` and returns its frame (for the caller to drop outside
    /// the lock); the node goes back on the free list.
    fn invalidate(&mut self, key: PageId) -> Option<Arc<[u8]>> {
        let idx = self.map.remove(&key)?;
        self.used_pages -= self.nodes[idx].weight;
        self.unlink(idx);
        self.free.push(idx);
        self.nodes[idx].frame.take()
    }

    /// Evicts the frame nearest the tail that has not been hit since
    /// eviction last passed it, and returns it; referenced frames on the
    /// way lose their flag and go back to the head (each pass clears a
    /// flag, so the walk ends). `None` when the shard is empty.
    fn evict_tail(&mut self) -> Option<Arc<[u8]>> {
        loop {
            let tail = self.tail;
            if tail == NIL {
                return None;
            }
            if !self.nodes[tail].referenced {
                let victim = self.invalidate(self.nodes[tail].key);
                self.evictions += 1;
                return victim;
            }
            self.nodes[tail].referenced = false;
            self.unlink(tail);
            self.push_front(tail);
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used_pages = 0;
        self.evictions = 0;
    }

    fn unlink(&mut self, idx: usize) {
        #[cfg(test)]
        {
            self.relinks += 1;
        }
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u64) -> PageId {
        PageId(n)
    }

    #[test]
    fn miss_then_hit() {
        let mut lru = LruBuffer::new(2);
        assert!(!lru.touch(p(1)));
        assert!(lru.touch(p(1)));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = LruBuffer::new(2);
        lru.touch(p(1));
        lru.touch(p(2));
        lru.touch(p(1)); // 2 is now LRU
        lru.touch(p(3)); // evicts 2
        assert!(lru.contains(p(1)));
        assert!(!lru.contains(p(2)));
        assert!(lru.contains(p(3)));
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut lru = LruBuffer::new(0);
        assert!(!lru.touch(p(7)));
        assert!(!lru.touch(p(7)));
        assert!(lru.is_empty());
    }

    #[test]
    fn invalidate_frees_slot() {
        let mut lru = LruBuffer::new(1);
        lru.touch(p(1));
        lru.invalidate(p(1));
        assert!(lru.is_empty());
        assert!(!lru.touch(p(2)));
        assert!(lru.contains(p(2)));
    }

    #[test]
    fn heavy_churn_preserves_capacity_invariant() {
        let mut lru = LruBuffer::new(8);
        for i in 0..1000u64 {
            lru.touch(p(i % 13));
            assert!(lru.len() <= 8);
        }
        assert_eq!(lru.len(), 8);
    }

    #[test]
    fn clear_resets() {
        let mut lru = LruBuffer::new(4);
        for i in 0..4 {
            lru.touch(p(i));
        }
        lru.clear();
        assert!(lru.is_empty());
        assert!(!lru.touch(p(0)));
    }

    #[test]
    fn striped_miss_then_hit_and_clear() {
        let buf = StripedLruBuffer::new(16);
        assert!(!buf.touch(p(3)));
        assert!(buf.touch(p(3)));
        assert!(buf.contains(p(3)));
        assert_eq!(buf.len(), 1);
        buf.clear();
        assert!(buf.is_empty());
        assert!(!buf.touch(p(3)));
    }

    #[test]
    fn striped_capacity_splits_and_clamps() {
        let buf = StripedLruBuffer::new(256);
        assert_eq!(buf.num_shards(), DEFAULT_POOL_SHARDS);
        assert_eq!(buf.capacity(), 256);
        // Fewer pages than stripes: clamp so no stripe starts at zero.
        let tiny = StripedLruBuffer::new(3);
        assert_eq!(tiny.num_shards(), 3);
        assert_eq!(tiny.capacity(), 3);
        // Zero capacity disables caching entirely.
        let off = StripedLruBuffer::new(0);
        assert_eq!(off.num_shards(), 1);
        assert!(!off.touch(p(1)));
        assert!(!off.touch(p(1)));
    }

    #[test]
    fn striped_churn_respects_total_capacity() {
        let buf = StripedLruBuffer::with_shards(8, 4);
        for i in 0..1000u64 {
            buf.touch(p(i % 23));
            assert!(buf.len() <= 8);
        }
        assert!(buf.len() >= 4, "stripes should hold pages after churn");
    }

    #[test]
    fn striped_concurrent_touches_are_safe() {
        let buf = std::sync::Arc::new(StripedLruBuffer::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let buf = std::sync::Arc::clone(&buf);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        buf.touch(p((i * 7 + t) % 100));
                    }
                });
            }
        });
        assert!(buf.len() <= 64);
    }

    fn frame(n: usize) -> Arc<[u8]> {
        vec![0xABu8; n].into()
    }

    #[test]
    fn pool_hits_after_insert() {
        let pool = BufferPool::new(4);
        assert!(pool.get(p(1)).is_none());
        pool.insert(p(1), frame(10), 1);
        let f = pool.get(p(1)).expect("cached");
        assert_eq!(f.len(), 10);
        assert_eq!(pool.hit_stats(), (1, 1));
    }

    #[test]
    fn pool_evicts_by_weight_single_shard() {
        let pool = BufferPool::with_shards(4, 1);
        pool.insert(p(1), frame(1), 2);
        pool.insert(p(2), frame(1), 2);
        assert_eq!(pool.used_pages(), 4);
        // A 3-page frame forces both residents out (LRU order).
        pool.insert(p(3), frame(1), 3);
        assert!(pool.get(p(1)).is_none());
        assert!(pool.get(p(2)).is_none());
        assert!(pool.get(p(3)).is_some());
        assert_eq!(pool.used_pages(), 3);
        assert_eq!(pool.stats().evictions(), 2);
    }

    #[test]
    fn pool_promotes_on_get() {
        let pool = BufferPool::with_shards(2, 1);
        pool.insert(p(1), frame(1), 1);
        pool.insert(p(2), frame(1), 1);
        pool.get(p(1)); // 2 becomes LRU
        pool.insert(p(3), frame(1), 1);
        assert!(pool.get(p(1)).is_some());
        assert!(pool.get(p(2)).is_none());
    }

    #[test]
    fn hot_frames_survive_a_cold_scan() {
        // The node cache's test of this name, on pages: a working set that
        // is hit between scans outlives a scan twice the pool's size,
        // because every cold frame reaches the tail unreferenced.
        let pool = BufferPool::with_shards(64, 1);
        let hot: Vec<u64> = (0..16).map(|i| 1_000_000 + i).collect();
        for &k in &hot {
            pool.insert(p(k), frame(8), 1);
        }
        let touch_hot = |pool: &BufferPool| {
            for &k in &hot {
                assert!(pool.get(p(k)).is_some(), "hot frame {k} must stay resident");
            }
        };
        touch_hot(&pool);
        for i in 0..128u64 {
            pool.insert(p(i), frame(8), 1);
            if i % 32 == 31 {
                touch_hot(&pool); // the working set stays hot while serving
            }
        }
        assert!(pool.stats().evictions() >= 128 - 48, "the scan must create real pressure");
        touch_hot(&pool);
        assert!(pool.used_pages() <= 64, "budget holds under the scan");
    }

    #[test]
    fn a_repeat_hit_moves_nothing() {
        let pool = BufferPool::with_shards(4, 1);
        pool.insert(p(1), frame(8), 1);
        pool.insert(p(2), frame(8), 1);
        let writes = |pool: &BufferPool| {
            let list = pool.shards[0].list.lock().unwrap();
            (list.relinks, list.flag_writes)
        };
        let before = writes(&pool);
        for _ in 0..1_000 {
            assert!(pool.get(p(1)).is_some());
        }
        let after = writes(&pool);
        assert_eq!(after.0, before.0, "a hit relinks no list node");
        assert_eq!(after.1, before.1 + 1, "the referenced flag is written once, then only read");
        assert_eq!(pool.hit_stats(), (1_000, 0));
    }

    #[test]
    fn oversized_frame_still_admitted_alone() {
        let pool = BufferPool::with_shards(2, 1);
        pool.insert(p(1), frame(1), 1);
        pool.insert(p(9), frame(100), 10);
        assert!(pool.get(p(9)).is_some(), "oversized frame admitted after clearing shard");
        assert!(pool.get(p(1)).is_none());
    }

    #[test]
    fn displaced_frames_are_released_not_parked() {
        // Evicted, replaced and invalidated frames must leave the pool
        // entirely (no copy parked in a free-listed node): the caller's
        // handle ends up the only reference.
        let pool = BufferPool::with_shards(2, 1);
        let (a, b, c) = (frame(8), frame(8), frame(8));
        pool.insert(p(1), Arc::clone(&a), 1);
        pool.insert(p(2), Arc::clone(&b), 1);
        pool.insert(p(2), frame(8), 1); // replaces b
        assert_eq!(Arc::strong_count(&b), 1);
        pool.insert(p(3), Arc::clone(&c), 2); // evicts a and the new 2
        assert_eq!(Arc::strong_count(&a), 1);
        assert_eq!(pool.stats().evictions(), 2);
        pool.invalidate(p(3));
        assert_eq!(Arc::strong_count(&c), 1);
        assert_eq!(pool.used_pages(), 0);
        // Freed nodes are reused and serve hits again.
        pool.insert(p(4), Arc::clone(&a), 1);
        assert_eq!(pool.get(p(4)).map(|f| f.len()), Some(8));
    }

    #[test]
    fn zero_capacity_pool_caches_nothing() {
        let pool = BufferPool::new(0);
        pool.insert(p(1), frame(4), 1);
        assert!(pool.get(p(1)).is_none());
        assert!(pool.is_empty());
    }

    #[test]
    fn pool_invalidate_and_clear() {
        let pool = BufferPool::new(8);
        pool.insert(p(1), frame(4), 2);
        pool.invalidate(p(1));
        assert_eq!(pool.used_pages(), 0);
        pool.insert(p(2), frame(4), 2);
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.hit_stats(), (0, 0));
    }

    #[test]
    fn pool_churn_respects_shard_budgets() {
        // Weights never exceed a shard budget, so the global capacity
        // invariant holds exactly (oversized-alone admission never fires).
        let pool = BufferPool::with_shards(8, 2);
        for i in 0..500u64 {
            pool.insert(p(i % 13), frame(8), (i % 3) as usize + 1);
            assert!(pool.used_pages() <= 8);
        }
    }

    #[test]
    fn over_slice_frame_reclaims_from_other_shards() {
        // 8 pages over 2 shards (4 + 4). Fill the pool with weight-1
        // frames, then admit a frame heavier than any single shard's
        // slice: it must be resident and the pool must reclaim from the
        // other shards back under the *global* budget — the pre-sharding
        // invariant `used ≤ max(capacity, heaviest frame)`.
        let pool = BufferPool::with_shards(8, 2);
        for i in 0..16u64 {
            pool.insert(p(i), frame(1), 1);
        }
        assert!(pool.used_pages() <= 8, "weight-1 churn stays within budget");
        assert!(pool.used_pages() >= 6, "both shards are populated");
        pool.insert(p(100), frame(1), 6);
        assert!(pool.get(p(100)).is_some(), "over-slice frame admitted");
        assert!(pool.used_pages() <= 8, "global budget restored, got {}", pool.used_pages());
        // Heavier than the whole pool: admitted alone, occupancy equals
        // its weight (exactly like the old single-LRU pool).
        pool.insert(p(200), frame(1), 11);
        assert!(pool.get(p(200)).is_some());
        assert!(pool.used_pages() <= 11);
        // The next within-budget churn drains back under capacity.
        for i in 0..8u64 {
            pool.insert(p(i), frame(1), 1);
        }
        assert!(pool.used_pages() <= 8);
    }

    #[test]
    fn shards_split_budget_and_count_clamps() {
        let pool = BufferPool::with_shards(10, 4);
        assert_eq!(pool.num_shards(), 4);
        assert_eq!(pool.capacity_pages(), 10);
        // More shards than pages: clamp so no shard starts at zero budget.
        let tiny = BufferPool::with_shards(3, 8);
        assert_eq!(tiny.num_shards(), 3);
        assert_eq!(tiny.capacity_pages(), 3);
        // Disabled pool still has one (empty) stripe.
        let off = BufferPool::with_shards(0, 8);
        assert_eq!(off.num_shards(), 1);
        assert_eq!(off.capacity_pages(), 0);
    }

    #[test]
    fn stats_snapshot_aggregates_shards() {
        let pool = BufferPool::new(64);
        for i in 0..16u64 {
            pool.insert(p(i), frame(8), 1);
        }
        for i in 0..16u64 {
            assert!(pool.get(p(i)).is_some());
        }
        pool.get(p(999));
        let s = pool.stats();
        assert_eq!(s.shards.len(), pool.num_shards());
        assert_eq!(s.hits(), 16);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.frames(), 16);
        assert_eq!(s.used_pages(), 16);
        assert!((s.hit_rate() - 16.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_gets_and_inserts_are_safe() {
        let pool = std::sync::Arc::new(BufferPool::new(64));
        for i in 0..32u64 {
            pool.insert(p(i), frame(16), 1);
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = std::sync::Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..200u64 {
                        let k = (round * 7 + t) % 40;
                        match pool.get(p(k)) {
                            Some(f) => assert_eq!(f.len(), 16),
                            None => pool.insert(p(k), frame(16), 1),
                        }
                    }
                });
            }
        });
        assert!(pool.used_pages() <= pool.capacity_pages());
    }
}
