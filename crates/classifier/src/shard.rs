//! Per-worker sharding for the flow cache: the multi-core EMFC model.
//!
//! Netronome's exact-match flow caches are *per-island* structures — each
//! cluster of micro-engines owns its own lookup memory. A single shared
//! [`FlowCache`] misrepresents that on two axes: worker threads contend on
//! one clock hand and one probe array (false sharing on the hot hit path),
//! and one worker's scan traffic can evict another worker's active flows.
//!
//! [`ShardedFlowCache`] fixes both. The configured flow capacity is split
//! across [`SHARDS`] cache-line-aligned tables, one per worker stripe, and
//! every operation takes an explicit stripe index (masked internally, so
//! any worker id is valid). A worker only ever touches its own shard, so
//! the hit path is contention-free by construction and eviction pressure
//! is isolated per worker — exactly the partitioned-island behavior of the
//! hardware.
//!
//! Stripe indices come from whatever worker identity the caller has —
//! the NIC model's micro-engine index, or `fv_telemetry`'s thread stripe
//! on the wall-clock path. Single-threaded callers pass stripe 0 and see
//! an ordinary (smaller) flow cache.
//!
//! Statistics merge exactly: [`ShardedFlowCache::stats`] sums the
//! per-shard counters, so hit/miss/eviction totals are conserved however
//! the workload was striped.

use crate::cache::{CacheResult, CacheStats, FlowCache};
use netstack::flow::FlowKey;

/// Number of shards. Power of two; matches the telemetry stripe count so
/// one worker identity indexes both structures consistently.
pub const SHARDS: usize = 8;

const SHARD_MASK: usize = SHARDS - 1;

/// A shard on its own cache line(s): neighbouring shards' clock hands,
/// length counters, and stats never share a line, so workers hammering
/// adjacent shards do not invalidate each other's caches.
#[repr(align(64))]
#[derive(Debug, Clone)]
struct Shard<V>(FlowCache<V>);

/// [`SHARDS`] independent flow caches indexed by worker stripe.
///
/// The requested capacity is divided across the shards (minimum one flow
/// each), so the total memory footprint matches a monolithic
/// [`FlowCache`] of the same capacity.
///
/// # Example
///
/// ```
/// use classifier::cache::CacheResult;
/// use classifier::shard::ShardedFlowCache;
/// use netstack::flow::FlowKey;
///
/// let mut cache = ShardedFlowCache::new(1024);
/// let flow = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 5001);
/// cache.insert_at(0, flow, "kvs");
/// // Shards are independent tables: worker 1 does not see worker 0's fill.
/// assert_eq!(cache.lookup_at(0, &flow).1, CacheResult::Hit);
/// assert_eq!(cache.lookup_at(1, &flow).1, CacheResult::Miss);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedFlowCache<V> {
    shards: Box<[Shard<V>]>,
}

impl<V> ShardedFlowCache<V> {
    /// Creates a sharded cache holding at most `capacity` flows in total.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let per_shard = (capacity / SHARDS).max(1);
        ShardedFlowCache {
            shards: (0..SHARDS)
                .map(|_| Shard(FlowCache::new(per_shard)))
                .collect(),
        }
    }

    #[inline]
    fn shard(&mut self, stripe: usize) -> &mut FlowCache<V> {
        &mut self.shards[stripe & SHARD_MASK].0
    }

    /// Looks up `flow` in the shard owned by worker `stripe`.
    #[inline]
    pub fn lookup_at(&mut self, stripe: usize, flow: &FlowKey) -> (Option<&V>, CacheResult) {
        self.shard(stripe).lookup(flow)
    }

    /// Inserts into the shard owned by worker `stripe`.
    #[inline]
    pub fn insert_at(&mut self, stripe: usize, flow: FlowKey, verdict: V) {
        self.shard(stripe).insert(flow, verdict);
    }

    /// [`FlowCache::get_or_insert_with`] on the shard owned by worker
    /// `stripe`: the packet path's one cache call.
    #[inline]
    pub fn get_or_insert_with_at(
        &mut self,
        stripe: usize,
        flow: &FlowKey,
        walk: impl FnOnce() -> V,
    ) -> (&V, CacheResult) {
        self.shard(stripe).get_or_insert_with(flow, walk)
    }

    /// Drops every entry in every shard (rule reloads re-classify all
    /// flows, whichever worker cached them).
    pub fn invalidate_all(&mut self) {
        for s in self.shards.iter_mut() {
            s.0.invalidate_all();
        }
    }

    /// Total flow capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.0.capacity()).sum()
    }

    /// Cached flows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.0.len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact merge of the per-shard counters: hits, misses, and evictions
    /// sum across shards, so totals are conserved however the workload
    /// was striped.
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |acc, s| {
            let st = s.0.stats();
            CacheStats {
                hits: acc.hits + st.hits,
                misses: acc.misses + st.misses,
                evictions: acc.evictions + st.evictions,
            }
        })
    }

    /// Mutable access to every shard at once, for callers that split the
    /// cache across worker threads (`std::thread::scope` + one shard per
    /// worker). Shards are independent, so this is safe parallelism with
    /// no interior locking.
    pub fn shards_mut(&mut self) -> impl Iterator<Item = &mut FlowCache<V>> {
        self.shards.iter_mut().map(|s| &mut s.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(port: u16) -> FlowKey {
        FlowKey::tcp([10, 0, 0, 1], port, [10, 0, 0, 2], 5001)
    }

    #[test]
    fn shards_are_padded_to_cache_lines() {
        assert_eq!(std::mem::align_of::<Shard<u32>>() % 64, 0);
        assert_eq!(std::mem::size_of::<Shard<u32>>() % 64, 0);
    }

    #[test]
    fn shards_are_isolated_tables() {
        let mut c: ShardedFlowCache<u32> = ShardedFlowCache::new(64);
        c.insert_at(0, flow(1), 7);
        assert_eq!(c.lookup_at(0, &flow(1)), (Some(&7), CacheResult::Hit));
        assert_eq!(c.lookup_at(1, &flow(1)), (None, CacheResult::Miss));
        // Stripe indices wrap: SHARDS aliases stripe 0.
        assert_eq!(c.lookup_at(SHARDS, &flow(1)), (Some(&7), CacheResult::Hit));
        // The single-call fill sees the same isolation.
        let fill = c.get_or_insert_with_at(0, &flow(1), || unreachable!("cached"));
        assert_eq!(fill, (&7, CacheResult::Hit));
        assert_eq!(
            c.get_or_insert_with_at(1, &flow(1), || 8),
            (&8, CacheResult::Miss)
        );
    }

    #[test]
    fn capacity_splits_across_shards() {
        let c: ShardedFlowCache<u32> = ShardedFlowCache::new(1024);
        assert_eq!(c.capacity(), 1024);
        // Tiny capacities still give every shard at least one flow.
        let c: ShardedFlowCache<u32> = ShardedFlowCache::new(1);
        assert_eq!(c.capacity(), SHARDS);
    }

    #[test]
    fn stats_merge_exactly_across_shards() {
        let mut c: ShardedFlowCache<u32> = ShardedFlowCache::new(64);
        for stripe in 0..SHARDS {
            let _ = c.lookup_at(stripe, &flow(stripe as u16)); // miss
            c.insert_at(stripe, flow(stripe as u16), stripe as u32);
            let _ = c.lookup_at(stripe, &flow(stripe as u16)); // hit
            let _ = c.lookup_at(stripe, &flow(stripe as u16)); // hit
        }
        let s = c.stats();
        assert_eq!(
            (s.hits, s.misses),
            (2 * SHARDS as u64, SHARDS as u64),
            "merged stats must equal the sum of per-shard traffic"
        );
        assert_eq!(c.len(), SHARDS);
    }

    #[test]
    fn invalidate_all_clears_every_shard() {
        let mut c: ShardedFlowCache<u32> = ShardedFlowCache::new(64);
        for stripe in 0..SHARDS {
            c.insert_at(stripe, flow(stripe as u16), 1);
        }
        c.invalidate_all();
        assert!(c.is_empty());
        for stripe in 0..SHARDS {
            assert_eq!(
                c.lookup_at(stripe, &flow(stripe as u16)).1,
                CacheResult::Miss
            );
        }
    }

    /// Each worker thread owns one shard outright and hammers it; the
    /// merged stats must equal the sequential sum of what every thread
    /// did — nothing lost to striping, nothing double-counted.
    #[test]
    fn parallel_shard_traffic_merges_exactly() {
        const PER_THREAD: u64 = 10_000;
        let mut c: ShardedFlowCache<u64> = ShardedFlowCache::new(64 * SHARDS);
        std::thread::scope(|s| {
            for (k, shard) in c.shards_mut().enumerate() {
                s.spawn(move || {
                    let f = flow(k as u16);
                    for i in 0..PER_THREAD {
                        if shard.lookup(&f).1 == CacheResult::Miss {
                            shard.insert(f, i);
                        }
                    }
                });
            }
        });
        let st = c.stats();
        assert_eq!(st.misses, SHARDS as u64, "one cold miss per worker");
        assert_eq!(
            st.hits,
            SHARDS as u64 * (PER_THREAD - 1),
            "every later lookup hits the worker's own shard"
        );
        assert_eq!(st.evictions, 0);
    }
}
