//! Per-island flow caches: the EMFC model.
//!
//! Netronome's exact-match flow caches are *per-island* structures — each
//! cluster of micro-engines owns its own lookup memory. One shared
//! [`FlowCache`] misrepresents that: a flow seen by workers of two islands
//! would miss once instead of once per island, and one island's scan
//! traffic could evict another island's active flows.
//!
//! [`ShardedFlowCache`] splits the configured flow capacity across
//! [`SHARDS`] independent tables and every packet-path call names the
//! table by a stripe index (masked internally, so any worker id is
//! valid): the NIC model passes the micro-engine index of the worker the
//! packet was dispatched to. A caller that always passes stripe 0 sees an
//! ordinary flow cache of an eighth of the capacity.
//!
//! This is a model, not a concurrency structure: the cache sits behind
//! `&mut self` and no second thread ever reaches it. What rests on it is
//! `results/ablation_flow_cache.json` (4 096 flows that fit the default
//! cache: 97.2 % hits, 19.64 Mpps, behind the driver's warm-up of every
//! flow × island pair) and the benchmark's `flow_churn` hit ratio (0.03).
//!
//! Statistics merge exactly: [`ShardedFlowCache::stats`] sums the
//! per-shard counters, so hit/miss/eviction totals are conserved however
//! the workload was striped.

use crate::cache::{CacheResult, CacheStats, FlowCache, MAX_CAPACITY};
use netstack::flow::FlowKey;

/// Number of shards: the model's island count, each island owning one
/// exact-match flow cache (worker `w` looks up in table `w % SHARDS`).
/// Power of two, so stripe indices are masked. The committed
/// `results/ablation_flow_cache.json` is a function of it.
pub const SHARDS: usize = 8;

const SHARD_MASK: usize = SHARDS - 1;

/// A shard on its own cache line(s): neighbouring shards' clock hands,
/// length counters, and stats never share a line, so workers hammering
/// adjacent shards do not invalidate each other's caches. `None` until
/// its island sees a packet: a table is half a megabyte of empty slots at
/// the default capacity, and writing all eight up front would be nine
/// tenths of building a NIC.
#[repr(align(64))]
#[derive(Debug, Clone)]
struct Shard<V>(Option<FlowCache<V>>);

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
/// assert_eq!(cache.get_or_insert_with_at(0, &flow, || "kvs").1, CacheResult::Miss);
/// // Shards are independent tables: worker 1 does not see worker 0's fill.
/// assert_eq!(cache.get_or_insert_with_at(0, &flow, || "kvs").1, CacheResult::Hit);
/// assert_eq!(cache.get_or_insert_with_at(1, &flow, || "kvs").1, CacheResult::Miss);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedFlowCache<V> {
    shards: Box<[Shard<V>]>,
    /// Flow capacity of each shard's table.
    per_shard: usize,
}

impl<V> ShardedFlowCache<V> {
    /// Creates a sharded cache holding at most `capacity` flows in total.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        ShardedFlowCache {
            shards: (0..SHARDS).map(|_| Shard(None)).collect(),
            per_shard: (capacity / SHARDS).clamp(1, MAX_CAPACITY),
        }
    }

    #[inline]
    fn shard(&mut self, stripe: usize) -> &mut FlowCache<V> {
        let per_shard = self.per_shard;
        self.shards[stripe & SHARD_MASK]
            .0
            .get_or_insert_with(|| FlowCache::new(per_shard))
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
        for table in self.shards.iter_mut().filter_map(|s| s.0.as_mut()) {
            table.invalidate_all();
        }
    }

    /// Total flow capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.per_shard * SHARDS
    }

    /// Exact merge of the per-shard counters: hits, misses, and evictions
    /// sum across shards, so totals are conserved however the workload
    /// was striped.
    pub fn stats(&self) -> CacheStats {
        let tables = self.shards.iter().filter_map(|s| s.0.as_ref());
        tables.fold(CacheStats::default(), |acc, table| {
            let st = table.stats();
            CacheStats {
                hits: acc.hits + st.hits,
                misses: acc.misses + st.misses,
                evictions: acc.evictions + st.evictions,
            }
        })
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
        assert_eq!(
            c.get_or_insert_with_at(0, &flow(1), || 7),
            (&7, CacheResult::Miss)
        );
        // Copies the verdict out: a hit must not run the walk.
        let mut cached = |stripe| {
            let (v, result) = c.get_or_insert_with_at(stripe, &flow(1), || unreachable!("cached"));
            (*v, result)
        };
        assert_eq!(cached(0), (7, CacheResult::Hit));
        // Stripe indices wrap: SHARDS aliases stripe 0.
        assert_eq!(cached(SHARDS), (7, CacheResult::Hit));
        // Worker 1's table never saw the flow and runs its own walk.
        assert_eq!(
            c.get_or_insert_with_at(1, &flow(1), || 8),
            (&8, CacheResult::Miss)
        );
        assert_eq!(
            c.get_or_insert_with_at(0, &flow(1), || unreachable!("cached")),
            (&7, CacheResult::Hit)
        );
    }

    #[test]
    fn a_shard_is_built_when_its_island_sees_a_packet() {
        let mut c: ShardedFlowCache<u32> = ShardedFlowCache::new(1024);
        // Nothing allocated, and everything a caller can ask still answers.
        assert!(c.shards.iter().all(|s| s.0.is_none()));
        assert_eq!(c.capacity(), 1024);
        assert_eq!(c.stats(), CacheStats::default());
        c.invalidate_all();
        c.get_or_insert_with_at(3, &flow(1), || 7);
        let built: Vec<usize> = (0..SHARDS).filter(|&i| c.shards[i].0.is_some()).collect();
        assert_eq!(built, [3]);
        assert_eq!(c.stats().misses, 1);
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
            let f = flow(stripe as u16);
            for want in [CacheResult::Miss, CacheResult::Hit, CacheResult::Hit] {
                assert_eq!(
                    c.get_or_insert_with_at(stripe, &f, || stripe as u32).1,
                    want
                );
            }
        }
        let s = c.stats();
        assert_eq!(
            (s.hits, s.misses, s.evictions),
            (2 * SHARDS as u64, SHARDS as u64, 0),
            "merged stats must equal the sum of per-shard traffic"
        );
    }

    #[test]
    fn invalidate_all_clears_every_shard() {
        let mut c: ShardedFlowCache<u32> = ShardedFlowCache::new(64);
        for stripe in 0..SHARDS {
            c.get_or_insert_with_at(stripe, &flow(stripe as u16), || 1);
        }
        c.invalidate_all();
        for stripe in 0..SHARDS {
            assert_eq!(
                c.get_or_insert_with_at(stripe, &flow(stripe as u16), || 2),
                (&2, CacheResult::Miss),
                "shard {stripe} kept its entry"
            );
        }
    }
}
