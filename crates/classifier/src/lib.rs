//! Packet classification for the FlowValve reproduction: filter rules, an
//! ordered filter table, and an exact-match flow cache modeling Netronome's
//! EMFC accelerator.
//!
//! The paper's labeling function "essentially performs table lookups to
//! match packets against filter rules" (§IV-A). This crate supplies that
//! substrate: [`FilterTable`] is the slow first-match walk, [`FlowCache`]
//! is the accelerated exact-match fast path, and [`Classifier`] composes
//! them with the standard miss-fill discipline.
//!
//! # Example
//!
//! ```
//! use classifier::{Classifier, FilterRule, FlowMatch};
//! use classifier::cache::CacheResult;
//! use netstack::flow::FlowKey;
//! use netstack::packet::VfPort;
//!
//! let mut cls = Classifier::new("default", 1024);
//! cls.add_rule(FilterRule::new(10, FlowMatch { dst_port: Some(5001), ..FlowMatch::any() }, "kvs"));
//!
//! let flow = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 5001);
//! // First packet of the flow misses the cache and walks the table...
//! let (verdict, result) = cls.classify(&flow, VfPort(0));
//! assert_eq!((verdict, result), (&"kvs", CacheResult::Miss));
//! // ...subsequent packets hit.
//! let (verdict, result) = cls.classify(&flow, VfPort(0));
//! assert_eq!((verdict, result), (&"kvs", CacheResult::Hit));
//! ```

pub mod cache;
pub mod rule;
pub mod shard;
pub mod table;

pub use cache::{CacheResult, CacheStats, FlowCache};
pub use rule::{Cidr, FilterRule, FlowMatch};
pub use shard::ShardedFlowCache;
pub use table::FilterTable;

use netstack::flow::FlowKey;
use netstack::packet::VfPort;

/// Filter table + flow cache, composed with miss-fill: one hash of the flow
/// key and one probe per packet, the table walk only on a miss.
///
/// Verdicts are `Clone` because a table verdict is copied into the cache on
/// a miss (mirroring how the hardware cache stores flattened actions).
///
/// The cache is sharded per worker stripe ([`shard::SHARDS`] tables,
/// modeling per-island EMFCs): the NIC model calls
/// [`Classifier::classify_at`] with the worker index of each packet, so a
/// flow misses once per island it visits; [`Classifier::classify`] is the
/// single-worker form (stripe 0).
#[derive(Debug, Clone)]
pub struct Classifier<V> {
    table: FilterTable<V>,
    cache: ShardedFlowCache<V>,
}

impl<V: Clone> Classifier<V> {
    /// Creates a classifier with a default verdict and cache capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero.
    pub fn new(default: V, cache_capacity: usize) -> Self {
        Self::from_table(FilterTable::new(default), cache_capacity)
    }

    /// Creates a classifier over a finished rule table (see
    /// [`FilterTable::from_rules`]): the table is indexed once and the
    /// cache allocated once, however many rules there are.
    ///
    /// # Panics
    ///
    /// Panics if `cache_capacity` is zero.
    pub fn from_table(table: FilterTable<V>, cache_capacity: usize) -> Self {
        Classifier {
            table,
            cache: ShardedFlowCache::new(cache_capacity),
        }
    }

    /// Takes the classifier apart into its rule table and flow-cache
    /// capacity, dropping the cached flows.
    pub fn into_parts(self) -> (FilterTable<V>, usize) {
        (self.table, self.cache.capacity())
    }

    /// Adds a filter rule and invalidates the cache (rule changes can
    /// re-classify existing flows, exactly like hardware rule updates).
    pub fn add_rule(&mut self, rule: FilterRule<V>) {
        self.table.add(rule);
        self.cache.invalidate_all();
    }

    /// Classifies a flow, reporting whether the fast path was taken.
    ///
    /// On a miss the verdict is computed from the table and installed in
    /// the cache before returning. Single-worker form of
    /// [`Classifier::classify_at`] (stripe 0).
    // Kept public for the benchmark's test
    // `flow_churn::tests::flows_are_distinct_and_classify_where_predicted`.
    #[allow(dead_code)]
    pub fn classify(&mut self, flow: &FlowKey, vf: VfPort) -> (&V, CacheResult) {
        self.classify_at(0, flow, vf)
    }

    /// Classifies a flow on worker `stripe`'s cache shard.
    ///
    /// The stripe is masked internally, so any worker id is valid. Each
    /// worker fills and hits its own shard: a flow migrating across
    /// workers re-misses once per shard it lands on, exactly like a flow
    /// migrating across hardware islands.
    #[inline]
    pub fn classify_at(&mut self, stripe: usize, flow: &FlowKey, vf: VfPort) -> (&V, CacheResult) {
        let table = &self.table;
        self.cache
            .get_or_insert_with_at(stripe, flow, || table.lookup(flow, vf).clone())
    }

    /// Flow-cache statistics, merged exactly across all worker shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

#[cfg(test)]
mod classifier_tests {
    use super::*;

    fn flow(port: u16) -> FlowKey {
        FlowKey::tcp([10, 0, 0, 1], port, [10, 0, 0, 2], 5001)
    }

    #[test]
    fn default_verdict_for_unmatched() {
        let mut c: Classifier<u32> = Classifier::new(0, 16);
        let (v, r) = c.classify(&flow(1), VfPort(0));
        assert_eq!((*v, r), (0, CacheResult::Miss));
    }

    #[test]
    fn rule_change_invalidates_cache() {
        let mut c: Classifier<u32> = Classifier::new(0, 16);
        let _ = c.classify(&flow(1), VfPort(0));
        c.add_rule(FilterRule::new(1, FlowMatch::any(), 7));
        let (v, r) = c.classify(&flow(1), VfPort(0));
        assert_eq!((*v, r), (7, CacheResult::Miss));
        let (v, r) = c.classify(&flow(1), VfPort(0));
        assert_eq!((*v, r), (7, CacheResult::Hit));
    }

    #[test]
    fn bulk_built_classifier_matches_rule_by_rule() {
        let rules = vec![
            FilterRule::new(2, FlowMatch::any(), 1),
            FilterRule::new(
                1,
                FlowMatch {
                    dst_port: Some(5001),
                    ..FlowMatch::any()
                },
                2,
            ),
        ];
        let mut one_by_one: Classifier<u32> = Classifier::new(0, 64);
        for r in &rules {
            one_by_one.add_rule(r.clone());
        }
        let mut bulk = Classifier::from_table(FilterTable::from_rules(0, rules), 64);
        let other = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 0, 2], 80);
        for (f, verdict) in [(flow(1), 2), (flow(2), 2), (other, 1)] {
            assert_eq!(bulk.classify(&f, VfPort(0)), (&verdict, CacheResult::Miss));
            assert_eq!(one_by_one.classify(&f, VfPort(0)).0, &verdict);
            assert_eq!(bulk.classify(&f, VfPort(0)), (&verdict, CacheResult::Hit));
        }
        // Taking it apart keeps rules and capacity, not the cached flows.
        let (table, capacity) = bulk.into_parts();
        assert_eq!((table.iter().count(), capacity), (2, 64));
        let mut again = Classifier::from_table(table, capacity);
        assert_eq!(again.classify(&flow(1), VfPort(0)).1, CacheResult::Miss);
    }

    #[test]
    fn worker_stripes_fill_independent_shards() {
        let mut c: Classifier<u32> = Classifier::new(0, 64);
        c.add_rule(FilterRule::new(1, FlowMatch::any(), 9));
        // Worker 0 fills its shard; worker 1 re-misses (its own island is
        // cold) but still gets the same verdict from the table.
        let (v, r) = c.classify_at(0, &flow(1), VfPort(0));
        assert_eq!((*v, r), (9, CacheResult::Miss));
        let (v, r) = c.classify_at(1, &flow(1), VfPort(0));
        assert_eq!((*v, r), (9, CacheResult::Miss));
        // Both shards are now warm.
        assert_eq!(c.classify_at(0, &flow(1), VfPort(0)).1, CacheResult::Hit);
        assert_eq!(c.classify_at(1, &flow(1), VfPort(0)).1, CacheResult::Hit);
        let s = c.cache_stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    #[test]
    fn stats_count_each_packet_once() {
        let mut c: Classifier<u32> = Classifier::new(0, 16);
        let _ = c.classify(&flow(1), VfPort(0)); // miss
        let _ = c.classify(&flow(1), VfPort(0)); // hit
        let _ = c.classify(&flow(1), VfPort(0)); // hit
        let s = c.cache_stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }
}
