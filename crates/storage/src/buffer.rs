//! Page caches: the id-level LRU of the simulated device and the byte
//! frames of the file backend, both evicting through one queue.
//!
//! * [`QueueMap`] — the replacement queue: a map that remembers in which
//!   order its keys were last queued. Both caches below and `rcube_core`'s
//!   shared node cache keep their entries in one.
//! * [`StripedLruBuffer`] — page *identifiers* only, exact LRU per lock
//!   stripe. The simulated device ([`crate::DiskSim`]) does not move bytes
//!   on hit/miss; this buffer just decides whether a logical read is
//!   charged as a physical one, and its miss counts are the disk-access
//!   columns of the thesis figures — its policy never changes.
//! * [`BufferPool`] — real frames, **sharded for concurrency**. The file
//!   backend caches each object's assembled payload as an `Arc<[u8]>`
//!   frame weighted by its covering page count; `get_bytes` handles are
//!   shared views into these frames, so a hit serves the zero-copy
//!   posting-list cursors without touching the file. The pool is split
//!   into N lock-striped shards keyed by first page id, each with its own
//!   page-weighted budget and hit/miss/eviction counters.
//!   [`BufferPool::stats`] snapshots every shard for observability
//!   ([`PoolStats`] / [`PoolShardStats`]).
//! * [`Stripes`] — the page-id hash and the clamped capacity split every
//!   striped cache shares.
//!
//! # One queue, three policies
//!
//! A [`QueueMap`] is a hash map plus a queue of `(key, stamp)` slots,
//! oldest first. Inserting or requeueing a key stamps it afresh and pushes
//! a slot at the back; the slot it had stays behind, stale, and so does the
//! slot of a removed key. [`QueueMap::pop_oldest`] drops stale slots as it
//! meets them, and the queue is compacted once stale slots outnumber live
//! entries, so it never holds more than `2·len + 8` slots. Each cache's
//! policy is a few lines over it:
//!
//! * **Exact LRU** (a [`StripedLruBuffer`] stripe): a hit requeues the
//!   page; a miss at capacity pops the oldest page.
//! * **Second chance** (a [`BufferPool`] shard): a hit marks its frame
//!   referenced and queues nothing. Eviction pops the oldest frame: a
//!   referenced one has its flag cleared and is queued again, an
//!   unreferenced one is evicted — so a frame hit since it was last
//!   considered survives one more trip around and a cold scan evicts
//!   itself.
//! * **The table clock** (`rcube_core::nodecache`): a swept table that
//!   kept nodes is queued again, one that kept none is removed.
//!
//! **What a hit writes.** Under the shard's mutex a pool hit looks the key
//! up, sets the flag *if it is clear* and clones the frame handle: the lock
//! word, the frame's reference count, and (once per trip around the queue)
//! the flag. It queues nothing: requeueing on every hit, as exact LRU does,
//! would write lines every client of a hot shard shares. Hit and miss totals
//! are thread-striped cells beside the mutex, not fields under it, so
//! counting a hit writes only the counting thread's own line.
//!
//! **The pool's invariants.** The budget invariant (`used_pages ≤
//! max(capacity_pages, weight of the largest resident frame)` after any
//! insert), page-weighted budgets per shard, the oversized-alone rule and
//! the cross-shard reclaim after it. A shard's critical section never
//! frees: frames it evicts or replaces are handed back to the caller
//! (`Victims`) and dropped *after* the shard mutex is released, so a cold
//! reader never waits on another thread's `free`.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::VecDeque;
use std::hash::Hash;
use std::ops::Deref;
use std::sync::{Arc, Mutex, OnceLock};

use rcube_obs::{Counter, Metrics, Striped};

use crate::disk::PageId;

/// Stale slots a [`QueueMap`] tolerates beyond one per live entry.
const QUEUE_SLACK: usize = 8;

/// An insertion-ordered map: each key remembers when it was last inserted
/// or requeued, and [`Self::pop_oldest`] hands back the one queued longest
/// ago (module docs, *One queue, three policies*).
#[derive(Debug)]
pub struct QueueMap<K, V> {
    entries: HashMap<K, (V, u64)>,
    /// Keys oldest first, each with the stamp it was queued under; a slot
    /// whose stamp is not its key's current one is stale.
    slots: VecDeque<(K, u64)>,
    stamp: u64,
}

impl<K: Copy + Eq + Hash, V> Default for QueueMap<K, V> {
    fn default() -> Self {
        Self { entries: HashMap::new(), slots: VecDeque::new(), stamp: 0 }
    }
}

impl<K: Copy + Eq + Hash, V> QueueMap<K, V> {
    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Queue slots, stale ones included: never more than `2·len + 8`.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// The value under `key`, without requeueing it.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(value, _)| value)
    }

    /// The value under `key`, mutably, without requeueing it.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.entries.get_mut(key).map(|(value, _)| value)
    }

    /// Every live entry, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(key, (value, _))| (key, value))
    }

    /// Every live value, in no particular order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().map(|(value, _)| value)
    }

    /// Makes `key` the newest entry, holding `value`; returns the value it
    /// replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.stamp += 1;
        self.slots.push_back((key, self.stamp));
        let replaced = self.entries.insert(key, (value, self.stamp)).map(|(value, _)| value);
        self.bound();
        replaced
    }

    /// Makes `key` the newest entry; false when it is not live.
    pub fn requeue(&mut self, key: &K) -> bool {
        let Some((_, stamp)) = self.entries.get_mut(key) else {
            return false;
        };
        if self.slots.back() != Some(&(*key, *stamp)) {
            self.stamp += 1;
            *stamp = self.stamp;
            self.slots.push_back((*key, self.stamp));
            self.bound();
        }
        true
    }

    /// Drops `key` and returns its value; its slot goes stale.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (value, _) = self.entries.remove(key)?;
        self.bound();
        Some(value)
    }

    /// Removes and returns the entry queued longest ago.
    pub fn pop_oldest(&mut self) -> Option<(K, V)> {
        while let Some((key, stamp)) = self.slots.pop_front() {
            if let Entry::Occupied(entry) = self.entries.entry(key) {
                if entry.get().1 == stamp {
                    let (value, _) = entry.remove();
                    self.bound();
                    return Some((key, value));
                }
            }
        }
        None
    }

    /// Drops every entry, and the map's buckets with them: compaction
    /// walks the buckets, so a map emptied by a cold-cache reset must not
    /// keep the size it had when full.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Compacts the queue once stale slots outnumber live entries (by more
    /// than [`QUEUE_SLACK`]): the live slots are the entries' current
    /// stamps, so the queue is rebuilt from the map in stamp order — a sort
    /// in place, no hashing and no allocation — and the work is amortized
    /// over the operations that left the stale slots.
    fn bound(&mut self) {
        if self.slots.len() > 2 * self.entries.len() + QUEUE_SLACK {
            self.slots.clear();
            self.slots.extend(self.entries.iter().map(|(&key, &(_, stamp))| (key, stamp)));
            self.slots.make_contiguous().sort_unstable_by_key(|&(_, stamp)| stamp);
        }
    }
}

/// Lock stripes of a page cache, keyed by page id.
#[derive(Debug)]
pub struct Stripes<T>(Vec<T>);

impl<T> Stripes<T> {
    /// Up to `n` stripes sharing `capacity` evenly, earlier stripes
    /// absorbing the remainder; `stripe` builds one from its slice. The
    /// count is clamped so no stripe starts with zero capacity unless the
    /// whole cache is disabled (then there is one).
    pub fn split(capacity: usize, n: usize, stripe: impl Fn(usize) -> T) -> Self {
        let n = n.max(1).min(capacity.max(1));
        let (per, extra) = (capacity / n, capacity % n);
        (0..n).map(|i| stripe(per + usize::from(i < extra))).collect()
    }

    /// The stripe `key` lives in. A Fibonacci multiplicative hash, so
    /// consecutive page ids (the append-only allocator's pattern) spread
    /// across stripes.
    pub fn index_of(&self, key: u64) -> usize {
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) % self.0.len()
    }

    /// The stripe of `key`.
    pub fn of(&self, key: u64) -> &T {
        &self.0[self.index_of(key)]
    }
}

impl<T> FromIterator<T> for Stripes<T> {
    fn from_iter<I: IntoIterator<Item = T>>(stripes: I) -> Self {
        Self(stripes.into_iter().collect())
    }
}

impl<T> Deref for Stripes<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

/// One stripe of a [`StripedLruBuffer`]: page identifiers under exact LRU.
#[derive(Debug)]
struct LruBuffer {
    capacity: usize,
    pages: QueueMap<PageId, ()>,
}

impl LruBuffer {
    /// A buffer holding at most `capacity` pages. A capacity of zero
    /// disables caching entirely (every read is a physical read).
    fn new(capacity: usize) -> Self {
        Self { capacity, pages: QueueMap::default() }
    }

    fn len(&self) -> usize {
        self.pages.len()
    }

    /// Touches `page`; returns `true` on a hit. On a miss the page is
    /// admitted, evicting the least-recently-used page if at capacity.
    fn touch(&mut self, page: PageId) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if self.pages.requeue(&page) {
            return true;
        }
        if self.pages.len() >= self.capacity {
            self.pages.pop_oldest();
        }
        self.pages.insert(page, ());
        false
    }

    fn contains(&self, page: PageId) -> bool {
        self.pages.get(&page).is_some()
    }

    fn clear(&mut self) {
        self.pages.clear();
    }
}

/// Default shard count for [`BufferPool`]: enough stripes that concurrent
/// query threads rarely collide, few enough that per-shard budgets stay
/// meaningfully large at the default 256-page capacity.
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// An id-level LRU buffer split into lock stripes, the same way
/// [`BufferPool`] is, so the simulated device's hit/miss accounting does
/// not serialize cursor-heavy concurrent workloads on one mutex. Pages
/// hash to stripes by id ([`Stripes`]); each stripe runs its own exact
/// LRU over an even slice of the capacity. Per-stripe LRU is an
/// approximation of global LRU — hit rates differ slightly at tiny
/// capacities, deterministically for any fixed access sequence.
#[derive(Debug)]
pub struct StripedLruBuffer {
    shards: Stripes<Mutex<LruBuffer>>,
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
    pub(crate) fn with_shards(capacity: usize, shards: usize) -> Self {
        Self { shards: Stripes::split(capacity, shards, |c| Mutex::new(LruBuffer::new(c))) }
    }

    /// Touches `page` in its stripe; returns `true` on a hit.
    pub fn touch(&self, page: PageId) -> bool {
        self.shards.of(page.0).lock().unwrap().touch(page)
    }

    /// True when `page` is cached (without promoting it).
    pub fn contains(&self, page: PageId) -> bool {
        self.shards.of(page.0).lock().unwrap().contains(page)
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
        self.shards.iter().map(|s| s.lock().unwrap().capacity).sum()
    }

    /// Empties every stripe (cold-cache measurement point).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
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
    shards: Stripes<PoolStripe>,
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
            frames: list.frames.len(),
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

    /// Pool with an explicit shard count, the budget split by
    /// [`Stripes::split`].
    pub(crate) fn with_shards(capacity_pages: usize, shards: usize) -> Self {
        let shards = Stripes::split(capacity_pages, shards, PoolStripe::new);
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
        self.shards.iter().map(|s| s.list.lock().unwrap().frames.len()).sum()
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
        let stripe = self.shards.of(key.0);
        let frame = stripe.list.lock().unwrap().get(key);
        stripe.lookups.add(if frame.is_some() { HITS } else { MISSES }, 1);
        if let Some(ms) = self.metrics.get() {
            if frame.is_some() { &ms.hits } else { &ms.misses }.inc();
        }
        frame
    }

    /// Admits a frame weighing `weight_pages`, evicting its shard's oldest
    /// unreferenced frames until it fits (a frame heavier than the whole shard is
    /// admitted alone). Replaces any existing frame under the same key.
    /// If the admission pushed the shard past its slice, pages are
    /// reclaimed from the other shards so the pool-wide budget holds (see
    /// the type docs for the exact invariant).
    pub fn insert(&self, key: PageId, frame: Arc<[u8]>, weight_pages: usize) {
        let idx = self.shards.index_of(key.0);
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

    /// Evicts the oldest unreferenced frames of shards other than `keep` until the pool is
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
                let victim = shard.list.lock().unwrap().evict_oldest();
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
        let removed = self.shards.of(key.0).list.lock().unwrap().invalidate(key);
        drop(removed);
    }

    /// Empties every shard (cold-cache measurement point) and resets the
    /// counters.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.list.lock().unwrap().clear();
            shard.lookups.reset();
        }
    }
}

/// The frames of one lock stripe, page-weighted, in second-chance order.
#[derive(Debug)]
struct PoolShard {
    capacity_pages: usize,
    used_pages: usize,
    frames: QueueMap<PageId, Frame>,
    evictions: u64,
    /// `referenced` stores, which a hit-only workload makes once per frame
    /// (`a_repeat_hit_moves_nothing`).
    #[cfg(test)]
    flag_writes: u64,
}

#[derive(Debug)]
struct Frame {
    bytes: Arc<[u8]>,
    weight: usize,
    /// Hit since admission or since eviction last passed over it.
    referenced: bool,
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
            frames: QueueMap::default(),
            evictions: 0,
            #[cfg(test)]
            flag_writes: 0,
        }
    }

    fn get(&mut self, key: PageId) -> Option<Arc<[u8]>> {
        let frame = self.frames.get_mut(&key)?;
        // Test before set: a frame that is already marked stays a read.
        if !frame.referenced {
            frame.referenced = true;
            #[cfg(test)]
            {
                self.flag_writes += 1;
            }
        }
        Some(Arc::clone(&frame.bytes))
    }

    /// Admits `bytes`; every frame this displaces (the one it replaces
    /// under `key`, and the frames evicted to make room) goes into
    /// `victims` for the caller to drop once the shard is unlocked.
    fn insert(&mut self, key: PageId, bytes: Arc<[u8]>, weight: usize, victims: &mut Victims) {
        if self.capacity_pages == 0 {
            return;
        }
        if let Some(replaced) = self.invalidate(key) {
            victims.push(replaced);
        }
        let weight = weight.max(1);
        while self.used_pages + weight > self.capacity_pages {
            match self.evict_oldest() {
                Some(victim) => victims.push(victim),
                None => break,
            }
        }
        self.used_pages += weight;
        self.frames.insert(key, Frame { bytes, weight, referenced: false });
    }

    /// Unmaps `key` and returns its frame (for the caller to drop outside
    /// the lock).
    fn invalidate(&mut self, key: PageId) -> Option<Arc<[u8]>> {
        let frame = self.frames.remove(&key)?;
        self.used_pages -= frame.weight;
        Some(frame.bytes)
    }

    /// Evicts the oldest frame that has not been hit since eviction last
    /// passed it, and returns it; referenced frames on the way lose their
    /// flag and are queued again (each pass clears a flag, so the walk
    /// ends). `None` when the shard is empty.
    fn evict_oldest(&mut self) -> Option<Arc<[u8]>> {
        loop {
            let (key, mut frame) = self.frames.pop_oldest()?;
            if !frame.referenced {
                self.used_pages -= frame.weight;
                self.evictions += 1;
                return Some(frame.bytes);
            }
            frame.referenced = false;
            self.frames.insert(key, frame);
        }
    }

    fn clear(&mut self) {
        self.frames.clear();
        self.used_pages = 0;
        self.evictions = 0;
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
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn invalidate_frees_slot() {
        let mut lru = LruBuffer::new(1);
        lru.touch(p(1));
        lru.pages.remove(&p(1));
        assert_eq!(lru.len(), 0);
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
        assert_eq!(lru.len(), 0);
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
        assert_eq!(buf.shards.len(), DEFAULT_POOL_SHARDS);
        assert_eq!(buf.capacity(), 256);
        // Fewer pages than stripes: clamp so no stripe starts at zero.
        let tiny = StripedLruBuffer::new(3);
        assert_eq!(tiny.shards.len(), 3);
        assert_eq!(tiny.capacity(), 3);
        // Zero capacity disables caching entirely.
        let off = StripedLruBuffer::new(0);
        assert_eq!(off.shards.len(), 1);
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
            (list.frames.slots(), list.flag_writes)
        };
        let before = writes(&pool);
        for _ in 0..1_000 {
            assert!(pool.get(p(1)).is_some());
        }
        let after = writes(&pool);
        assert_eq!(after.0, before.0, "a hit adds no queue slot");
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
        // entirely (no copy parked in the queue): the caller's
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
        // The emptied shard admits and serves hits again.
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
        assert_eq!(pool.shards.len(), 4);
        assert_eq!(pool.capacity_pages(), 10);
        // More shards than pages: clamp so no shard starts at zero budget.
        let tiny = BufferPool::with_shards(3, 8);
        assert_eq!(tiny.shards.len(), 3);
        assert_eq!(tiny.capacity_pages(), 3);
        // Disabled pool still has one (empty) stripe.
        let off = BufferPool::with_shards(0, 8);
        assert_eq!(off.shards.len(), 1);
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
        assert_eq!(s.shards.len(), pool.shards.len());
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

    /// A naive exact LRU per stripe, most recent first, over the same
    /// stripes and capacities as `buf`.
    struct ModelLru {
        stripes: Stripes<(usize, Vec<u64>)>,
    }

    impl ModelLru {
        fn touch(&mut self, page: u64) -> bool {
            let i = self.stripes.index_of(page);
            let (capacity, pages) = &mut self.stripes.0[i];
            if *capacity == 0 {
                return false;
            }
            let hit = match pages.iter().position(|&q| q == page) {
                Some(at) => {
                    pages.remove(at);
                    true
                }
                None => {
                    pages.truncate(*capacity - 1);
                    false
                }
            };
            pages.insert(0, page);
            hit
        }

        fn contains(&self, page: u64) -> bool {
            self.stripes.of(page).1.contains(&page)
        }
    }

    #[test]
    fn striped_lru_matches_a_move_to_front_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for stripes in [1, DEFAULT_POOL_SHARDS] {
            for capacity in 0..=9 {
                let mut rng = StdRng::seed_from_u64(capacity as u64 * 31 + stripes as u64);
                let buf = StripedLruBuffer::with_shards(capacity, stripes);
                let mut model =
                    ModelLru { stripes: Stripes::split(capacity, stripes, |c| (c, Vec::new())) };
                for step in 0..4_000 {
                    let page = rng.gen_range(0..16u64);
                    let what = format!("{stripes} stripes, capacity {capacity}, step {step}");
                    match rng.gen_range(0..20) {
                        0 => {
                            buf.clear();
                            model.stripes.0.iter_mut().for_each(|s| s.1.clear());
                        }
                        1..=3 => {
                            assert_eq!(buf.contains(p(page)), model.contains(page), "{what}")
                        }
                        _ => assert_eq!(buf.touch(p(page)), model.touch(page), "{what}"),
                    }
                    let resident: usize = model.stripes.iter().map(|s| s.1.len()).sum();
                    assert_eq!(buf.len(), resident, "{what}");
                }
            }
        }
    }

    /// A naive second-chance shard: `(key, weight, referenced, tag)`,
    /// oldest first, and the counters a pool stripe keeps.
    #[derive(Default)]
    struct ModelPool {
        capacity: usize,
        queue: VecDeque<(u64, usize, bool, u8)>,
        used: usize,
        hits: u64,
        misses: u64,
        evictions: u64,
    }

    impl ModelPool {
        fn get(&mut self, key: u64) -> Option<u8> {
            let found = self.queue.iter_mut().find(|f| f.0 == key);
            match found {
                Some(f) => {
                    f.2 = true;
                    self.hits += 1;
                    Some(f.3)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn invalidate(&mut self, key: u64) {
            if let Some(at) = self.queue.iter().position(|f| f.0 == key) {
                self.used -= self.queue.remove(at).unwrap().1;
            }
        }

        fn insert(&mut self, key: u64, weight: usize, tag: u8) {
            if self.capacity == 0 {
                return;
            }
            self.invalidate(key);
            while self.used + weight > self.capacity {
                let Some(mut oldest) = self.queue.pop_front() else {
                    break;
                };
                if oldest.2 {
                    oldest.2 = false;
                    self.queue.push_back(oldest);
                } else {
                    self.used -= oldest.1;
                    self.evictions += 1;
                }
            }
            self.queue.push_back((key, weight, false, tag));
            self.used += weight;
        }
    }

    #[test]
    fn one_stripe_pool_matches_a_second_chance_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for capacity in 0..=9 {
            let mut rng = StdRng::seed_from_u64(capacity as u64);
            let pool = BufferPool::with_shards(capacity, 1);
            let mut model = ModelPool { capacity, ..ModelPool::default() };
            for step in 0..4_000u32 {
                let key = rng.gen_range(0..12u64);
                let what = format!("capacity {capacity}, step {step}");
                match rng.gen_range(0..20) {
                    0 => {
                        pool.clear();
                        model = ModelPool { capacity, ..ModelPool::default() };
                    }
                    1..=2 => {
                        pool.invalidate(p(key));
                        model.invalidate(key);
                    }
                    3..=9 => {
                        let (weight, tag) = (rng.gen_range(1..=3usize), step as u8);
                        pool.insert(p(key), vec![tag].into(), weight);
                        model.insert(key, weight, tag);
                    }
                    _ => assert_eq!(pool.get(p(key)).map(|f| f[0]), model.get(key), "{what}"),
                }
                let s = pool.stats();
                assert_eq!(
                    (s.hits(), s.misses(), s.evictions(), s.used_pages(), s.frames()),
                    (model.hits, model.misses, model.evictions, model.used, model.queue.len()),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn queue_slots_stay_bounded_under_churn() {
        // Under budget nothing is evicted, so only the queue's own
        // compaction bounds the stale slots invalidations and hits leave.
        let pool = BufferPool::with_shards(64, 1);
        let lru = StripedLruBuffer::with_shards(64, 1);
        for i in 0..32u64 {
            pool.insert(p(i), frame(8), 1);
            lru.touch(p(i));
        }
        for cycle in 0..10_000u64 {
            let key = p(cycle % 32);
            pool.invalidate(key);
            pool.insert(key, frame(8), 1);
            assert!(lru.touch(p(cycle * 7 % 32)), "a hit under budget");
            let shard = pool.shards[0].list.lock().unwrap();
            let stripe = lru.shards[0].lock().unwrap();
            for (slots, live) in
                [(shard.frames.slots(), shard.frames.len()), (stripe.pages.slots(), stripe.len())]
            {
                assert!(
                    slots <= 2 * live + QUEUE_SLACK,
                    "cycle {cycle}: {slots} slots, {live} live"
                );
            }
        }
        assert_eq!(pool.stats().evictions(), 0);
        assert_eq!(pool.len(), 32);
    }
}
