//! Shared cross-query decoded-signature-node cache.
//!
//! PR 3's lazy read path memoizes decoded nodes *per query* (inside each
//! cursor of a [`crate::sigcube::Pruner`]), so two queries hitting the same
//! hot cuboid both pay the first decode of every node they touch. For an
//! online serving workload — many concurrent top-k queries over a
//! read-mostly cube — that first decode dominates repeat traffic. The
//! [`SharedNodeCache`] sits between the per-query memo and storage: a
//! read-mostly, lock-striped map from `(partial first page id, SID)` to
//! the node's packed bit-words (or its proven absence), shared by every
//! cursor of one [`crate::sigcube::SignatureCube`].
//!
//! # Concurrency and invalidation
//!
//! * **Keys name immutable bytes.** The append-only page allocator never
//!   reuses a first page id within one store lifetime, so a key uniquely
//!   identifies one partial's bytes; cached values never go stale under
//!   concurrent *reads* (see the "Concurrency model" section of
//!   `rcube_storage::format`).
//! * **Per-partial invalidation on mutation.** Incremental maintenance
//!   replaces whole cell signatures copy-on-write: the new partials get
//!   fresh page ids and the old ones are retired, never reused, so
//!   [`crate::sigcube::SignatureCube`] calls
//!   [`SharedNodeCache::invalidate_partial`] for exactly the retired
//!   pages. Entries for untouched partials stay resident across a
//!   maintenance commit; [`SharedNodeCache::clear`] remains for full
//!   epoch bumps (reopen, scrub rollback).
//! * **Bounded budget, clock eviction.** Each shard tracks its
//!   approximate byte weight; inserts past the budget run a per-shard
//!   *clock* (second-chance) sweep: every entry carries an atomic
//!   reference bit set by lookups under the read lock, and the sweep
//!   evicts the first unreferenced entry in ring order, clearing bits as
//!   it passes. Hot nodes — ones probed since the last sweep — survive
//!   cold scans instead of being arbitrary victims. Eviction is still
//!   advisory: an evicted node is simply re-decoded and re-admitted —
//!   correctness never depends on residency.
//!
//! A shared hit skips the partial load *and* the node decode, so it is
//! metered separately (`shared_node_hits` in `rcube_core::QueryStats`)
//! from per-query memo hits and charged no I/O: the node never left
//! memory.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use rcube_obs::{Counter, Metrics, Striped};
use rcube_storage::PackedBits;

/// Default cache budget: 4 MiB of packed node words — a few thousand hot
/// cuboid cells at typical node sizes.
pub const DEFAULT_NODE_CACHE_BYTES: usize = 4 << 20;

/// Lock stripes; node keys hash across them so concurrent queries rarely
/// contend even when all of them write through on a cold cache.
const SHARDS: usize = 16;

/// `(first page id of the partial holding the node, SID)`.
type Key = (u64, u64);

/// Point-in-time counters of a [`SharedNodeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCacheStats {
    /// Lookups answered from the shared cache.
    pub hits: u64,
    /// Lookups that fell through to the per-query decode path.
    pub misses: u64,
    /// Entries evicted under budget pressure.
    pub evictions: u64,
    /// Resident entries.
    pub entries: usize,
    /// Approximate resident bytes.
    pub bytes: usize,
}

/// The shared decoded-node cache (see module docs). All methods take
/// `&self`; synchronization is internal (sharded `RwLock`s + atomics).
#[derive(Debug)]
pub struct SharedNodeCache {
    shards: Vec<RwLock<Shard>>,
    /// Byte budget per shard; 0 disables the cache entirely.
    shard_budget: usize,
    /// `[hits, misses]`, striped by looking-up thread.
    lookups: Striped<2>,
    evictions: AtomicU64,
    /// Live registry counters ([`SharedNodeCache::attach_metrics`]).
    metrics: OnceLock<NodeCacheMetricSet>,
}

/// Pre-resolved counters mirroring the cache's atomics into a registry,
/// with known-absence hits broken out (they skip the partial load *and*
/// prove no decode is needed — a different cost class than a node hit).
#[derive(Debug)]
struct NodeCacheMetricSet {
    hits: Counter,
    absent_hits: Counter,
    misses: Counter,
    evictions: Counter,
}

const HITS: usize = 0;
const MISSES: usize = 1;

/// One resident node (or proven absence) plus its clock reference bit.
/// The bit is set by lookups under the shard's *read* lock (it is atomic;
/// a lookup that finds it set leaves it alone, so a hot node's line stays
/// shared between readers), and swept/cleared by the eviction clock under
/// the write lock.
#[derive(Debug)]
struct CacheEntry {
    /// `None` = SID proven absent from its partial. Nodes are shared
    /// `Arc`s: a hit is a refcount bump, never a word-vector copy.
    value: Option<Arc<PackedBits>>,
    referenced: AtomicBool,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<Key, CacheEntry>,
    /// Clock ring in admission order. May hold stale keys of entries the
    /// sweep already removed; those are discarded when the hand reaches
    /// them. Every resident key appears exactly once.
    ring: VecDeque<Key>,
    bytes: usize,
}

/// Approximate resident weight of one entry: key + map overhead + words.
fn weight_of(value: &Option<Arc<PackedBits>>) -> usize {
    48 + value.as_ref().map_or(0, |b| b.words().len() * 8)
}

impl SharedNodeCache {
    /// Cache bounded by `budget_bytes` across all shards. A budget of zero
    /// disables caching: every lookup misses, inserts are dropped.
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| RwLock::new(Shard::default())).collect(),
            shard_budget: budget_bytes / SHARDS,
            lookups: Striped::default(),
            evictions: AtomicU64::new(0),
            metrics: OnceLock::new(),
        }
    }

    /// Mirrors cache activity into `metrics` as live counters
    /// (`{prefix}.nodecache.hits` / `.absent_hits` / `.misses` /
    /// `.evictions`). Resolves handles once; a second attach is a no-op.
    pub fn attach_metrics(&self, metrics: &Metrics, prefix: &str) {
        let _ = self.metrics.set(NodeCacheMetricSet {
            hits: metrics.counter(&format!("{prefix}.nodecache.hits")),
            absent_hits: metrics.counter(&format!("{prefix}.nodecache.absent_hits")),
            misses: metrics.counter(&format!("{prefix}.nodecache.misses")),
            evictions: metrics.counter(&format!("{prefix}.nodecache.evictions")),
        });
    }

    /// Cache with the default budget ([`DEFAULT_NODE_CACHE_BYTES`]).
    pub fn with_default_budget() -> Self {
        Self::new(DEFAULT_NODE_CACHE_BYTES)
    }

    /// True when the budget is zero and the cache never stores anything.
    pub fn is_disabled(&self) -> bool {
        self.shard_budget == 0
    }

    fn shard(&self, key: Key) -> &RwLock<Shard> {
        let h = (key.0 ^ key.1.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Looks up a decoded node. `Some(None)` means the cache *knows* the
    /// SID is absent from its partial; `None` is a plain miss. Hits hand
    /// back a shared `Arc` — no allocation inside the read lock — and set
    /// the entry's clock reference bit, which is what lets hot nodes
    /// survive a cold scan's eviction pressure.
    pub fn get(&self, partial_page: u64, sid: u64) -> Option<Option<Arc<PackedBits>>> {
        if self.is_disabled() {
            return None;
        }
        let key = (partial_page, sid);
        let found = {
            let shard = self.shard(key).read().unwrap();
            shard.map.get(&key).map(|e| {
                if !e.referenced.load(Ordering::Relaxed) {
                    e.referenced.store(true, Ordering::Relaxed);
                }
                e.value.clone()
            })
        };
        match found {
            Some(v) => {
                self.lookups.add(HITS, 1);
                if let Some(ms) = self.metrics.get() {
                    ms.hits.inc();
                    if v.is_none() {
                        ms.absent_hits.inc();
                    }
                }
                Some(v)
            }
            None => {
                self.lookups.add(MISSES, 1);
                if let Some(ms) = self.metrics.get() {
                    ms.misses.inc();
                }
                None
            }
        }
    }

    /// Admits a decoded node (or a proven absence). Entries heavier than a
    /// whole shard budget are not cached; under pressure the shard's clock
    /// sweeps its ring — entries referenced since the last sweep get a
    /// second chance (bit cleared, moved behind the hand), unreferenced
    /// ones are evicted — until the newcomer fits.
    pub fn insert(&self, partial_page: u64, sid: u64, value: Option<Arc<PackedBits>>) {
        if self.is_disabled() {
            return;
        }
        let key = (partial_page, sid);
        let w = weight_of(&value);
        if w > self.shard_budget {
            return;
        }
        let mut shard = self.shard(key).write().unwrap();
        if shard.map.contains_key(&key) {
            return; // another query decoded it first; values are identical
        }
        while shard.bytes + w > self.shard_budget {
            let Some(hand) = shard.ring.pop_front() else {
                break; // ring empty: nothing left to evict
            };
            let Some(entry) = shard.map.get(&hand) else {
                continue; // stale ring slot of an already-removed entry
            };
            if entry.referenced.swap(false, Ordering::Relaxed) {
                shard.ring.push_back(hand); // second chance
                continue;
            }
            let old = shard.map.remove(&hand).expect("entry checked present");
            shard.bytes -= weight_of(&old.value);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(ms) = self.metrics.get() {
                ms.evictions.inc();
            }
        }
        shard.bytes += w;
        shard.ring.push_back(key);
        shard.map.insert(key, CacheEntry { value, referenced: AtomicBool::new(false) });
    }

    /// Drops every entry and resets occupancy (a full epoch bump; COW
    /// maintenance prefers [`Self::invalidate_partial`]). Hit/miss/
    /// eviction counters keep accumulating.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.write().unwrap();
            s.map.clear();
            s.ring.clear();
            s.bytes = 0;
        }
    }

    /// Drops every node cached from the partial rooted at `partial_page`
    /// — the per-partial invalidation COW maintenance needs: a replaced
    /// cell's old partials are retired (their page ids never come back),
    /// so only their entries go; nodes of untouched partials stay
    /// resident across the commit. Stale ring slots are left for the
    /// clock hand to discard, exactly like eviction does.
    pub fn invalidate_partial(&self, partial_page: u64) {
        for shard in &self.shards {
            let mut s = shard.write().unwrap();
            let doomed: Vec<Key> = s.map.keys().filter(|k| k.0 == partial_page).copied().collect();
            for key in doomed {
                if let Some(entry) = s.map.remove(&key) {
                    s.bytes -= weight_of(&entry.value);
                }
            }
        }
    }

    /// Counter and occupancy snapshot.
    pub fn stats(&self) -> NodeCacheStats {
        let (mut entries, mut bytes) = (0usize, 0usize);
        for shard in &self.shards {
            let s = shard.read().unwrap();
            entries += s.map.len();
            bytes += s.bytes;
        }
        NodeCacheStats {
            hits: self.lookups.sum(HITS),
            misses: self.lookups.sum(MISSES),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
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

    #[test]
    fn miss_insert_hit_round_trip() {
        let cache = SharedNodeCache::new(1 << 20);
        assert_eq!(cache.get(7, 3), None);
        cache.insert(7, 3, Some(bits(100)));
        let got = cache.get(7, 3).expect("cached");
        assert!(got.unwrap().get(99));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn absence_is_cached_distinctly() {
        let cache = SharedNodeCache::new(1 << 20);
        cache.insert(1, 9, None);
        assert_eq!(cache.get(1, 9), Some(None), "known-absent, not a miss");
    }

    #[test]
    fn zero_budget_disables() {
        let cache = SharedNodeCache::new(0);
        assert!(cache.is_disabled());
        cache.insert(1, 1, Some(bits(64)));
        assert_eq!(cache.get(1, 1), None);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn budget_bounds_occupancy() {
        let budget = 64 << 10;
        let cache = SharedNodeCache::new(budget);
        for i in 0..10_000u64 {
            cache.insert(i, i, Some(bits(512)));
        }
        let s = cache.stats();
        assert!(s.bytes <= budget, "resident {} must respect budget {budget}", s.bytes);
        assert!(s.evictions > 0, "pressure must evict");
        assert!(s.entries > 0, "evictions must leave room for newcomers");
    }

    #[test]
    fn hot_nodes_survive_a_cold_scan() {
        // The clock must give recently-probed nodes a second chance: park
        // a hot working set, keep probing it the way repeat queries do,
        // and pour a cold scan (every key touched once, never again)
        // through the cache. The cold entries — unreferenced when the
        // hand reaches them — must be the victims.
        let cache = SharedNodeCache::new(64 << 10);
        let hot: Vec<u64> = (0..32).map(|i| 1_000_000 + i).collect();
        for &k in &hot {
            cache.insert(k, k, Some(bits(64)));
        }
        let touch_hot = |cache: &SharedNodeCache| {
            for &k in &hot {
                assert!(cache.get(k, k).is_some(), "hot node {k} must stay resident");
            }
        };
        touch_hot(&cache);
        for i in 0..1_600u64 {
            cache.insert(i, i, Some(bits(64)));
            if i % 400 == 399 {
                touch_hot(&cache); // the hot set stays hot while serving
            }
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "the cold scan must create real pressure");
        touch_hot(&cache);
        assert!(s.bytes <= 64 << 10, "budget holds under the scan");
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = SharedNodeCache::new(1 << 20);
        cache.insert(1, 1, Some(bits(64)));
        cache.get(1, 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.get(1, 1), None, "cleared entries are gone");
    }

    #[test]
    fn invalidate_partial_is_surgical() {
        let cache = SharedNodeCache::new(1 << 20);
        // Three partials, several SIDs each.
        for partial in [10u64, 20, 30] {
            for sid in 0..5u64 {
                cache.insert(partial, sid, Some(bits(64)));
            }
        }
        let before = cache.stats();
        cache.invalidate_partial(20);
        let after = cache.stats();
        assert_eq!(after.entries, before.entries - 5, "only the touched partial goes");
        assert!(after.bytes < before.bytes);
        for sid in 0..5u64 {
            assert_eq!(cache.get(20, sid), None, "retired partial fully invalidated");
            assert!(cache.get(10, sid).is_some(), "untouched partial survives");
            assert!(cache.get(30, sid).is_some(), "untouched partial survives");
        }
        // The ring's stale slots must not break subsequent admission.
        for i in 0..100u64 {
            cache.insert(40, i, Some(bits(64)));
        }
        assert!(cache.get(40, 99).is_some());
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
                        match cache.get(key, key) {
                            Some(Some(b)) => assert!(b.get(63)),
                            Some(None) => panic!("never inserted as absent"),
                            None => cache.insert(key, key, Some(bits(64))),
                        }
                    }
                });
            }
        });
        let s = cache.stats();
        assert!(s.hits > 0 && s.entries > 0);
    }
}
