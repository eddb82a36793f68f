//! Exact-match flow cache: the model of Netronome's EMFC accelerator.
//!
//! The paper's Observation 2 credits dedicated lookup engines with a ~10×
//! speedup over the kernel's flow-table path. Functionally the cache is an
//! exact-match `FlowKey → verdict` map with bounded capacity; the *cost*
//! difference between hit and miss is charged by the NIC cost model, keyed
//! on the [`CacheResult`] this module reports.
//!
//! Structurally it mirrors a hardware CAM line-up rather than a software
//! map: a fixed-capacity, power-of-two, open-addressed table with inline
//! keys probed linearly from the key's [FNV] home slot — no per-lookup
//! allocation, no SipHash, no pointer chasing — and clock (second-chance)
//! eviction, the constant-time stand-in for LRU that real TCAMs/EMFCs use.
//! Deletions backward-shift the probe chain, so no tombstones accumulate
//! and lookups stay O(probe length) forever. The table is sized at twice
//! the flow capacity, capping the load factor at 50%.
//!
//! A packet hashes its flow key once and probes once:
//! [`FlowCache::get_or_insert_with`] is the whole miss-fill discipline in
//! one call, and every entry keeps the low 32 bits of its hash — compared
//! before the 13-byte key on the way down a probe chain, and read back
//! (instead of re-hashing the key) when a deletion shifts the chain.
//!
//! [FNV]: netstack::flow::FlowKey::stable_hash

use netstack::flow::FlowKey;

/// Hard upper bound on [`FlowCache`] capacity, in flows.
///
/// The slot array is `2 × capacity` rounded up to a power of two, so this
/// bound caps the table at 2^21 slots — matching the size class of the
/// hardware exact-match tables the cache models (hundreds of thousands of
/// entries), and keeping a misconfigured constructor from attempting a
/// multi-gigabyte allocation. [`FlowCache::new`] clamps requests above it.
pub const MAX_CAPACITY: usize = 1 << 20;

/// Whether a lookup hit the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheResult {
    /// Found in the cache (fast path).
    Hit,
    /// Absent; the caller must walk the filter table and insert.
    Miss,
}

/// Cache occupancy and traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

#[derive(Debug, Clone, PartialEq)]
struct Entry<V> {
    key: FlowKey,
    value: V,
    /// Low 32 bits of `key.stable_hash()`. The slot array never exceeds
    /// 2^21 slots, so the tag also yields the home slot.
    tag: u32,
    /// Second-chance reference bit: set on hit, cleared by the clock hand.
    referenced: bool,
}

/// A bounded exact-match flow cache: open-addressed, inline keys, clock
/// (second-chance) eviction.
///
/// New entries start *unreferenced* and earn their reference bit on the
/// first hit, so a one-packet scan flow cannot displace an active flow —
/// the clock hand always finds the scan entries first.
///
/// # Example
///
/// ```
/// use classifier::cache::{CacheResult, FlowCache};
/// use netstack::flow::FlowKey;
///
/// let mut cache = FlowCache::new(1024);
/// let flow = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 5001);
/// // A miss runs the table walk and installs its verdict...
/// assert_eq!(cache.get_or_insert_with(&flow, || "kvs"), (&"kvs", CacheResult::Miss));
/// // ...which the next packet of the flow hits without walking.
/// assert_eq!(cache.get_or_insert_with(&flow, || "walked"), (&"kvs", CacheResult::Hit));
/// ```
#[derive(Debug, Clone)]
pub struct FlowCache<V> {
    slots: Vec<Option<Entry<V>>>,
    mask: usize,
    capacity: usize,
    len: usize,
    /// Clock hand for second-chance eviction.
    hand: usize,
    stats: CacheStats,
}

impl<V> FlowCache<V> {
    /// Creates a cache holding at most `capacity` flows; capacities above
    /// [`MAX_CAPACITY`] are clamped to it.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let capacity = capacity.min(MAX_CAPACITY);
        let slots = (capacity * 2).next_power_of_two();
        FlowCache {
            slots: (0..slots).map(|_| None).collect(),
            mask: slots - 1,
            capacity,
            len: 0,
            hand: 0,
            stats: CacheStats::default(),
        }
    }

    /// Probes linearly from the home slot of `hash` (`flow.stable_hash()`);
    /// returns `Ok(slot)` on a key match or `Err(first_empty_slot)` on a
    /// miss. Always terminates: the load factor never exceeds 50%.
    #[inline]
    fn probe(&self, flow: &FlowKey, hash: u64) -> Result<usize, usize> {
        let tag = hash as u32;
        let mut i = hash as usize & self.mask;
        loop {
            match &self.slots[i] {
                Some(e) if e.tag == tag && e.key == *flow => return Ok(i),
                Some(_) => i = (i + 1) & self.mask,
                None => return Err(i),
            }
        }
    }

    /// Marks the entry at `i` referenced and counts the hit.
    #[inline]
    fn hit(&mut self, i: usize) -> &mut Entry<V> {
        self.stats.hits += 1;
        let e = self.slots[i].as_mut().expect("probed occupied slot");
        e.referenced = true;
        e
    }

    /// Installs an *unreferenced* entry for an absent `flow` whose probe
    /// ended at `empty`, clock-evicting a victim first if at capacity.
    fn fill(&mut self, flow: FlowKey, hash: u64, mut empty: usize, value: V) -> &V {
        if self.len >= self.capacity {
            // The eviction's backward shift leaves exactly one new hole.
            // The first empty slot on this flow's probe chain is whichever
            // of the old one and the hole comes first from the home slot.
            let hole = self.evict_one();
            let home = hash as usize & self.mask;
            if (hole.wrapping_sub(home) & self.mask) < (empty.wrapping_sub(home) & self.mask) {
                empty = hole;
            }
        }
        self.len += 1;
        let entry = self.slots[empty].insert(Entry {
            key: flow,
            value,
            tag: hash as u32,
            referenced: false,
        });
        &entry.value
    }

    /// The miss-fill discipline in one hash and one probe: a hit sets the
    /// entry's reference bit; a miss runs `walk` (the table walk), evicts
    /// if at capacity, and installs the verdict unreferenced. Counters,
    /// slot placement and victims are exactly those of a lookup followed,
    /// on a miss, by an insert (the test-only `lookup` and `insert` this
    /// is held to).
    #[inline]
    pub fn get_or_insert_with(
        &mut self,
        flow: &FlowKey,
        walk: impl FnOnce() -> V,
    ) -> (&V, CacheResult) {
        let hash = flow.stable_hash();
        match self.probe(flow, hash) {
            Ok(i) => (&self.hit(i).value, CacheResult::Hit),
            Err(empty) => {
                self.stats.misses += 1;
                (self.fill(*flow, hash, empty, walk()), CacheResult::Miss)
            }
        }
    }

    /// Looks up `flow`, refreshing its recency on a hit. With `insert` and
    /// `peek`, the two-probe discipline `get_or_insert_with` is tested
    /// against.
    #[cfg(test)]
    fn lookup(&mut self, flow: &FlowKey) -> (Option<&V>, CacheResult) {
        match self.probe(flow, flow.stable_hash()) {
            Ok(i) => (Some(&self.hit(i).value), CacheResult::Hit),
            Err(_) => {
                self.stats.misses += 1;
                (None, CacheResult::Miss)
            }
        }
    }

    /// Inserts (or replaces) an entry, clock-evicting a victim if at
    /// capacity.
    #[cfg(test)]
    fn insert(&mut self, flow: FlowKey, verdict: V) {
        let hash = flow.stable_hash();
        match self.probe(&flow, hash) {
            Ok(i) => {
                let e = self.slots[i].as_mut().expect("probed occupied slot");
                e.value = verdict;
                e.referenced = true;
            }
            Err(empty) => {
                self.fill(flow, hash, empty, verdict);
            }
        }
    }

    /// Second-chance scan: clears reference bits until an unreferenced
    /// entry comes under the hand, then removes it. Returns the slot the
    /// removal left empty.
    fn evict_one(&mut self) -> usize {
        debug_assert!(self.len > 0);
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) & self.mask;
            match &mut self.slots[i] {
                Some(e) if e.referenced => e.referenced = false,
                Some(_) => {
                    self.stats.evictions += 1;
                    return self.remove_slot(i).1;
                }
                None => {}
            }
        }
    }

    /// Removes the entry at `i`, backward-shifting the rest of the probe
    /// chain so no tombstone is left behind. Returns the entry and the
    /// slot that ended up empty.
    fn remove_slot(&mut self, i: usize) -> (Entry<V>, usize) {
        let e = self.slots[i].take().expect("remove_slot on empty slot");
        self.len -= 1;
        (e, self.backward_shift_from(i))
    }

    /// Reads an entry without touching recency or statistics.
    #[cfg(test)]
    fn peek(&self, flow: &FlowKey) -> Option<&V> {
        match self.probe(flow, flow.stable_hash()) {
            Ok(i) => self.slots[i].as_ref().map(|e| &e.value),
            Err(_) => None,
        }
    }

    /// Removes a flow, returning its verdict: the tests' way to open a
    /// hole anywhere in a probe chain for `backward_shift_from` to close.
    #[cfg(test)]
    fn invalidate(&mut self, flow: &FlowKey) -> Option<V> {
        match self.probe(flow, flow.stable_hash()) {
            Ok(i) => Some(self.remove_slot(i).0.value),
            Err(_) => None,
        }
    }

    /// Refills the hole at `i` by walking the probe chain and shifting
    /// back every entry whose home precedes the hole in circular probe
    /// order — shifting any other entry would detach it from its chain.
    /// Returns where the hole ended up.
    fn backward_shift_from(&mut self, mut i: usize) -> usize {
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let Some(e) = &self.slots[j] else { return i };
            let home = e.tag as usize & self.mask;
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(i) & self.mask) {
                self.slots[i] = self.slots[j].take();
                i = j;
            }
        }
    }

    /// Drops every entry (full policy reload).
    pub fn invalidate_all(&mut self) {
        // An empty table has nothing to wipe: loading N rules into a fresh
        // classifier must not cost N sweeps of the slot array.
        if self.len > 0 {
            self.slots.fill_with(|| None);
        }
        self.len = 0;
        self.hand = 0;
    }

    /// Traffic counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn flow(port: u16) -> FlowKey {
        FlowKey::tcp([10, 0, 0, 1], port, [10, 0, 0, 2], 5001)
    }

    #[test]
    fn slot_sizes_stay_within_budget() {
        use std::mem::size_of;
        // A 36-byte, 2-aligned verdict (an optional QoS label) and the
        // pipeline's 12-byte compiled verdict, each with key, tag and
        // reference bit; the empty-slot marker costs nothing extra.
        assert!(size_of::<Option<Entry<[u16; 18]>>>() <= 56);
        assert!(size_of::<Option<Entry<[u32; 3]>>>() <= 40);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = FlowCache::new(4);
        assert_eq!(c.lookup(&flow(1)).1, CacheResult::Miss);
        c.insert(flow(1), 10u32);
        assert_eq!(c.lookup(&flow(1)), (Some(&10), CacheResult::Hit));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn clock_evicts_unreferenced_before_touched() {
        let mut c = FlowCache::new(2);
        c.insert(flow(1), 1u32);
        c.insert(flow(2), 2u32);
        // Touch flow 1: its reference bit protects it; untouched flow 2 is
        // the victim wherever the hand starts.
        c.lookup(&flow(1));
        c.insert(flow(3), 3u32);
        assert_eq!(c.lookup(&flow(2)).1, CacheResult::Miss);
        assert_eq!(c.lookup(&flow(1)).1, CacheResult::Hit);
        assert_eq!(c.lookup(&flow(3)).1, CacheResult::Hit);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len, 2);
    }

    #[test]
    fn hot_entry_survives_a_scan() {
        // One flow is hit every round while a sweep of one-packet flows
        // churns through: the hot flow must never be evicted (the scan
        // entries are unreferenced and go first).
        let mut c = FlowCache::new(16);
        let hot = flow(9_999);
        c.insert(hot, 0u32);
        c.lookup(&hot);
        for p in 0..1_000u16 {
            c.insert(flow(p), 1);
            assert_eq!(c.lookup(&hot).1, CacheResult::Hit, "scan evicted hot");
        }
        assert!(c.stats().evictions > 0);
    }

    #[test]
    fn replace_does_not_evict() {
        let mut c = FlowCache::new(1);
        c.insert(flow(1), 1u32);
        c.insert(flow(1), 2u32);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.lookup(&flow(1)).0, Some(&2));
    }

    #[test]
    fn invalidate_single_and_all() {
        let mut c = FlowCache::new(8);
        c.insert(flow(1), 1u32);
        c.insert(flow(2), 2u32);
        assert_eq!(c.invalidate(&flow(1)), Some(1));
        assert_eq!(c.invalidate(&flow(1)), None);
        c.invalidate_all();
        assert_eq!(c.len, 0);
        assert_eq!(c.lookup(&flow(2)).1, CacheResult::Miss);
        assert_eq!(c.capacity, 8);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _: FlowCache<u8> = FlowCache::new(0);
    }

    #[test]
    fn capacity_clamp_is_reported() {
        let c: FlowCache<u8> = FlowCache::new(MAX_CAPACITY + 1);
        assert_eq!(c.capacity, MAX_CAPACITY);
        assert_eq!(c.slots.len(), 2 * MAX_CAPACITY);
        let c: FlowCache<u8> = FlowCache::new(64);
        assert_eq!((c.capacity, c.slots.len()), (64, 128));
    }

    #[test]
    fn steady_state_hit_ratio_high() {
        let mut c = FlowCache::new(64);
        // 32 active flows, 100 rounds: after warmup everything hits.
        for round in 0..100 {
            for p in 0..32u16 {
                let f = flow(p);
                if c.lookup(&f).1 == CacheResult::Miss {
                    assert_eq!(round, 0, "miss after warmup");
                    c.insert(f, p);
                }
            }
        }
        assert_eq!((c.stats().hits, c.stats().misses), (99 * 32, 32));
    }

    #[test]
    fn matches_hashmap_model_below_capacity() {
        // Below eviction pressure the cache must behave exactly like a
        // map: drive a deterministic random op mix against both.
        let mut c = FlowCache::new(256);
        let mut model: HashMap<FlowKey, u32> = HashMap::new();
        let mut x = 0x243f6a8885a308d3u64;
        for step in 0..20_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = flow((x % 200) as u16);
            match x % 5 {
                0 => {
                    c.insert(f, step);
                    model.insert(f, step);
                }
                1 => assert_eq!(c.invalidate(&f), model.remove(&f), "step {step}"),
                2 => assert_eq!(c.peek(&f), model.get(&f), "step {step}"),
                _ => {
                    let (got, r) = c.lookup(&f);
                    assert_eq!(got, model.get(&f), "step {step}");
                    assert_eq!(
                        r,
                        if model.contains_key(&f) {
                            CacheResult::Hit
                        } else {
                            CacheResult::Miss
                        },
                        "step {step}"
                    );
                }
            }
            assert_eq!(c.len, model.len(), "step {step}");
        }
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn over_capacity_invariants_hold() {
        // Under heavy churn: len is pinned at capacity, a fresh insert is
        // always immediately visible, and every displaced entry counts as
        // an eviction.
        let cap = 32;
        let mut c = FlowCache::new(cap);
        let mut x = 0xb5297a4d3f84d5b5u64;
        for step in 0..10_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = flow((x % 4_096) as u16);
            if c.lookup(&f).1 == CacheResult::Miss {
                c.insert(f, step);
                assert_eq!(c.peek(&f), Some(&step), "insert not visible");
            }
            assert!(c.len <= cap, "over capacity at step {step}");
        }
        assert_eq!(c.len, cap);
        assert!(c.stats().evictions > 0);
    }

    /// The single-probe fill against the primitives it replaced on the
    /// packet path (`lookup`, then on a miss `insert`, then `peek`), and
    /// both against a fill that finds its slot the old way — evict, then
    /// probe again — on seeded churn traffic whose working set is at, and
    /// well over, capacity: same verdict and result for every packet, same
    /// counters, same victim on every eviction, same slot array and hand.
    #[test]
    fn single_probe_fill_matches_lookup_insert_peek() {
        type Classify = fn(&mut FlowCache<u32>, &FlowKey, u32) -> (u32, CacheResult);
        fn single(c: &mut FlowCache<u32>, f: &FlowKey, v: u32) -> (u32, CacheResult) {
            let (v, r) = c.get_or_insert_with(f, || v);
            (*v, r)
        }
        fn primitives(c: &mut FlowCache<u32>, f: &FlowKey, v: u32) -> (u32, CacheResult) {
            let r = c.lookup(f).1;
            if r == CacheResult::Miss {
                c.insert(*f, v);
            }
            (*c.peek(f).expect("present after fill"), r)
        }
        fn reprobing(c: &mut FlowCache<u32>, f: &FlowKey, v: u32) -> (u32, CacheResult) {
            let r = c.lookup(f).1;
            if r == CacheResult::Miss {
                if c.len >= c.capacity {
                    c.evict_one();
                }
                let hash = f.stable_hash();
                let empty = c.probe(f, hash).expect_err("absent after a miss");
                c.slots[empty] = Some(Entry {
                    key: *f,
                    value: v,
                    tag: hash as u32,
                    referenced: false,
                });
                c.len += 1;
            }
            (*c.peek(f).expect("present after fill"), r)
        }
        fn resident(c: &FlowCache<u32>) -> Vec<FlowKey> {
            c.slots.iter().flatten().map(|e| e.key).collect()
        }
        /// Outcomes per packet, victims in order, and the cache at the end.
        fn run(
            classify: Classify,
            cap: usize,
            working_set: u64,
        ) -> (Vec<(u32, CacheResult)>, Vec<FlowKey>, FlowCache<u32>) {
            let mut c = FlowCache::new(cap);
            let (mut outcomes, mut victims) = (Vec::new(), Vec::new());
            let mut x = 0x2545_f491_4f6c_dd1du64 ^ (cap as u64 * working_set);
            for step in 0..20_000u32 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // One packet in four goes to a handful of hot flows, so
                // reference bits are set and the clock hand passes over
                // live entries; the rest sweep the working set.
                let port = (x >> 8)
                    % if x & 3 == 0 {
                        4.min(working_set)
                    } else {
                        working_set
                    };
                let before = resident(&c);
                let evictions = c.stats().evictions;
                outcomes.push(classify(&mut c, &flow(port as u16), step));
                if c.stats().evictions > evictions {
                    let after = resident(&c);
                    victims.extend(before.iter().filter(|k| !after.contains(k)));
                }
            }
            (outcomes, victims, c)
        }
        for (cap, working_set) in [(1, 5), (2, 2), (32, 32), (32, 128), (100, 1_600)] {
            let (outcomes, victims, c) = run(single, cap, working_set);
            assert_eq!(c.len, cap.min(working_set as usize));
            assert_eq!(victims.len() as u64, c.stats().evictions);
            assert_eq!(victims.is_empty(), working_set as usize <= cap, "cap {cap}");
            for reference in [primitives as Classify, reprobing] {
                let (want, want_victims, r) = run(reference, cap, working_set);
                assert!(
                    outcomes == want,
                    "cap {cap}: a packet classified differently"
                );
                assert_eq!(victims, want_victims, "cap {cap}");
                assert_eq!(c.stats(), r.stats(), "cap {cap}");
                assert_eq!(c.hand, r.hand, "cap {cap}");
                assert!(c.slots == r.slots, "cap {cap}: slot arrays differ");
            }
        }
    }
}
