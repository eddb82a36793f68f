//! Wait-free metric primitives.
//!
//! No operation here takes a lock or retries a CAS, so the same
//! instrumentation can sit inside the simulated micro-engine pipeline
//! (virtual time, one recording thread) and be read from another thread
//! while it runs, without perturbing what is being measured. What a write
//! costs depends on who else writes the cell:
//!
//! * A [`Counter`] whose owner holds `&mut self` on every write — the
//!   NIC's, lock table's, FIFO's and pipeline's exact tallies — takes
//!   [`Counter::add_single_writer`]: a relaxed load and a relaxed store,
//!   the price of a plain `+= 1`.
//! * A cell several threads may write ([`Counter::add`], [`Gauge::set`]
//!   on a new maximum, [`Histogram::record`]) pays relaxed atomic
//!   read-modify-writes and stays exact under concurrent writers — two
//!   `record`s collide on a histogram's header line and, when they land in
//!   the same log-linear bucket, on that bucket, and each collision is one
//!   relaxed `fetch_add`.
//!
//! Nothing here is striped per thread: every front end records from one
//! thread, and striping the counters and the histogram header measured
//! level on the benchmark's `demo_observed`, `tcp_closed_loop` and
//! `wallclock_2t` (DESIGN.md §8.2).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use sim_core::time::Nanos;

/// A monotonically increasing counter: one atomic word.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n`: one atomic read-modify-write, exact under any number of
    /// concurrent writers.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Adds `n` as a relaxed load and a relaxed store: no `lock`-prefixed
    /// instruction, the price of a plain integer add.
    ///
    /// Contract: one writing thread at a time, any number of readers. The
    /// owner of the cell upholds it by writing only from behind its own
    /// `&mut self`. Readers see a value that never decreases; a second
    /// thread writing concurrently (by either method) can lose updates,
    /// which is why cells with several writers keep [`Counter::add`].
    #[inline]
    pub fn add_single_writer(&self, n: u64) {
        self.0.store(self.0.load(Relaxed).wrapping_add(n), Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value. Not linearizable with concurrent writers.
    pub fn total(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("total", &self.total())
            .finish()
    }
}

/// A point-in-time value with a high-water mark.
///
/// Gauges model occupancy (FIFO backlog, queue depth): `set` stores the
/// latest observation and folds it into the maximum seen.
#[derive(Default)]
pub struct Gauge {
    value: AtomicU64,
    max: AtomicU64,
}

impl Gauge {
    /// Records the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Relaxed);
        raise(&self.max, v);
    }

    /// The most recently recorded value.
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    /// The largest value ever recorded.
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge")
            .field("value", &self.get())
            .field("max", &self.max())
            .finish()
    }
}

/// Folds `v` into a running maximum. `fetch_max` is a `lock cmpxchg` loop
/// on x86, so it runs only when `v` would actually raise the cell; the
/// cell never decreases, so a sample at or below any value it has held
/// cannot change the final maximum and skipping it is exact under every
/// interleaving.
#[inline]
fn raise(cell: &AtomicU64, v: u64) {
    if v > cell.load(Relaxed) {
        cell.fetch_max(v, Relaxed);
    }
}

/// Folds `v` into a running minimum; the mirror image of [`raise`].
#[inline]
fn lower(cell: &AtomicU64, v: u64) {
    if v < cell.load(Relaxed) {
        cell.fetch_min(v, Relaxed);
    }
}

/// Log-linear histogram geometry: values below `2^LINEAR_BITS` get exact
/// buckets; above that, each power of two is split into `2^SUB_BITS`
/// sub-buckets (≈ 6% relative error), like HDR histograms and the kernel's
/// blk-iolatency buckets.
const LINEAR_BITS: u32 = 5;
const SUB_BITS: u32 = 4;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
const LINEAR_BUCKETS: usize = 1 << LINEAR_BITS;
/// Decades above the linear region for a full u64 range (decades
/// `LINEAR_BITS..=63`).
const DECADES: usize = 64 - LINEAR_BITS as usize;
const BUCKETS: usize = LINEAR_BUCKETS + DECADES * SUB_BUCKETS;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        return v as usize;
    }
    let decade = 63 - v.leading_zeros(); // >= LINEAR_BITS
    let sub = ((v >> (decade - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
    LINEAR_BUCKETS + (decade - LINEAR_BITS) as usize * SUB_BUCKETS + sub
}

/// Lower bound of the value range covered by bucket `idx`.
fn bucket_floor(idx: usize) -> u64 {
    if idx < LINEAR_BUCKETS {
        return idx as u64;
    }
    let rel = idx - LINEAR_BUCKETS;
    let decade = LINEAR_BITS + (rel / SUB_BUCKETS) as u32;
    let sub = (rel % SUB_BUCKETS) as u64;
    (1u64 << decade) + (sub << (decade - SUB_BITS))
}

/// A wait-free log-linear histogram of `u64` samples (typically nanoseconds).
///
/// Besides the bucket it lands in, a `record` writes the scalar header:
/// four words that fill half a cache line of the histogram itself.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let buckets: Box<[AtomicU64; BUCKETS]> =
            buckets.into_boxed_slice().try_into().expect("bucket count");
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. Wait-free: three relaxed RMWs (bucket, count,
    /// sum) plus two relaxed loads of the extremes, which turn into RMWs
    /// only for a new extreme.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        lower(&self.min, v);
        raise(&self.max, v);
    }

    /// Records a duration sample in nanoseconds.
    #[inline]
    pub fn record_nanos(&self, d: Nanos) {
        self.record(d.as_nanos());
    }

    /// The scalar header as `(count, sum, min, max)`. Snapshot-path only;
    /// not linearizable with writers (like [`Counter::total`]).
    fn header(&self) -> (u64, u64, u64, u64) {
        (
            self.count.load(Relaxed),
            self.sum.load(Relaxed),
            self.min.load(Relaxed),
            self.max.load(Relaxed),
        )
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Immutable summary of the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let (count, sum, min, max) = self.header();
        if count == 0 {
            return HistogramSnapshot::default();
        }
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        HistogramSnapshot {
            count,
            sum,
            min,
            max,
            p50: quantile_from(&counts, min, max, 0.50).unwrap_or(0),
            p90: quantile_from(&counts, min, max, 0.90).unwrap_or(0),
            p99: quantile_from(&counts, min, max, 0.99).unwrap_or(0),
            p999: quantile_from(&counts, min, max, 0.999).unwrap_or(0),
        }
    }

    /// The `q`-quantile of the recorded samples (bucket lower bound,
    /// clamped into `[min, max]`), or `None` when the histogram is empty
    /// or `q` is outside `[0, 1]` — never a garbage value. The kernel
    /// behind [`Histogram::snapshot`]'s quantiles, at any `q`: how the
    /// tests reach its edge cases.
    #[cfg(test)]
    fn quantile(&self, q: f64) -> Option<u64> {
        let (count, _, min, max) = self.header();
        if count == 0 {
            return None;
        }
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        quantile_from(&counts, min, max, q)
    }
}

/// Shared quantile kernel: walks the bucket counts to the target rank and
/// clamps the bucket floor into the observed `[min, max]` range.
///
/// The clamp fixes two edge cases of the raw bucket walk: a single sample
/// (or any narrow distribution) used to report the *floor* of its bucket —
/// up to ≈6% below the only value ever recorded — and a sample landing in
/// the final overflow bucket used to report that bucket's enormous floor
/// rather than anything observed. Returns `None` when `q` is outside
/// `[0, 1]` or no bucketed samples are visible yet (concurrent writers can
/// make the per-bucket view lag `count`; quantiles are computed against the
/// per-bucket total for coherence).
fn quantile_from(counts: &[u64], min: u64, max: u64, q: f64) -> Option<u64> {
    if !(0.0..=1.0).contains(&q) {
        return None;
    }
    let in_buckets: u64 = counts.iter().sum();
    if in_buckets == 0 {
        return None;
    }
    let target = ((q * in_buckets as f64).ceil() as u64).clamp(1, in_buckets);
    let mut seen = 0u64;
    for (idx, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            return Some(bucket_floor(idx).clamp(min, max));
        }
    }
    Some(bucket_floor(BUCKETS - 1).clamp(min, max))
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

/// Summary statistics extracted from a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median (bucket lower bound, ≈6% resolution).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A counter is one word: anything wider is memory no recorder writes.
    #[test]
    fn counter_is_one_word() {
        assert_eq!(std::mem::size_of::<Counter>(), 8);
    }

    /// Eight threads released together onto the one word, with mixed
    /// amounts: the total is the sequential sum, nothing lost or minted.
    #[test]
    fn counter_is_thread_safe() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 25_000;
        let c = Counter::new();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for i in 0..PER_THREAD {
                        c.add(1 + (i & 3));
                    }
                    c.incr();
                });
            }
        });
        let per_thread: u64 = (0..PER_THREAD).map(|i| 1 + (i & 3)).sum();
        assert_eq!(c.total(), THREADS * (per_thread + 1));
    }

    /// The single-writer contract: one thread adds 10^6 times without a
    /// read-modify-write while a second reads. The reader never sees the
    /// total go backwards, and the final total is exact.
    #[test]
    fn single_writer_add_is_exact_and_monotone_for_a_concurrent_reader() {
        const ADDS: u64 = 1_000_000;
        let c = Counter::new();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 0..ADDS {
                    c.add_single_writer(1 + (i & 1));
                }
            });
            s.spawn(|| {
                start.wait();
                let mut last = 0;
                while last < ADDS + ADDS / 2 {
                    let now = c.total();
                    assert!(now >= last, "total went from {last} back to {now}");
                    last = now;
                }
            });
        });
        assert_eq!(c.total(), ADDS + ADDS / 2);
    }

    /// Both adds write the one word: from one thread they sum.
    #[test]
    fn single_writer_add_and_add_sum_from_one_thread() {
        let c = Counter::new();
        c.add(39);
        c.add_single_writer(2);
        c.incr();
        assert_eq!(c.total(), 42);
    }

    #[test]
    fn gauge_tracks_value_and_high_water() {
        let g = Gauge::default();
        g.set(10);
        g.set(50);
        g.set(5);
        assert_eq!(g.get(), 5);
        assert_eq!(g.max(), 50);
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        for shift in 0u32..64 {
            for off in [0u64, 1, 3] {
                let v = (1u64 << shift).saturating_add(off << shift.saturating_sub(3));
                let idx = bucket_index(v);
                assert!(idx < BUCKETS, "v={v} idx={idx}");
                assert!(idx >= last || v < LINEAR_BUCKETS as u64);
                last = idx.max(last);
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_floor_inverts_index() {
        for v in [0u64, 1, 31, 32, 33, 100, 1_000, 123_456, u32::MAX as u64] {
            let idx = bucket_index(v);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor({idx})={floor} > v={v}");
            // Relative error bound of the log-linear geometry.
            assert!(v - floor <= (v >> SUB_BITS) + 1, "v={v} floor={floor}");
        }
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 5);
        assert_eq!(s.p50, 3);
        assert_eq!(s.sum, 15);
        assert!((s.mean() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_within_geometry_error() {
        let h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let within = |got: u64, want: u64| {
            let err = (got as f64 - want as f64).abs() / want as f64;
            assert!(err < 0.08, "got {got} want {want} err {err}");
        };
        within(s.p50, 5_000);
        within(s.p90, 9_000);
        within(s.p99, 9_900);
    }

    #[test]
    fn histogram_empty_snapshot_is_zeroed() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn empty_histogram_quantile_is_none_not_garbage() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.99), None);
    }

    #[test]
    fn out_of_range_q_is_none() {
        let h = Histogram::new();
        h.record(100);
        assert_eq!(h.quantile(-0.1), None);
        assert_eq!(h.quantile(1.5), None);
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn single_sample_quantiles_report_the_sample() {
        // 1000 lands in a bucket whose floor is 992; the raw bucket walk
        // used to report that floor for every quantile. Clamping to the
        // observed [min, max] pins all quantiles to the only sample.
        let h = Histogram::new();
        h.record(1_000);
        assert_eq!(h.quantile(0.0), Some(1_000));
        assert_eq!(h.quantile(0.5), Some(1_000));
        assert_eq!(h.quantile(1.0), Some(1_000));
        let s = h.snapshot();
        assert_eq!((s.p50, s.p99, s.p999), (1_000, 1_000, 1_000));
    }

    #[test]
    fn overflow_bucket_quantile_clamps_to_observed_max() {
        let h = Histogram::new();
        h.record(10);
        h.record(u64::MAX); // lands in the final overflow bucket
        let s = h.snapshot();
        assert!(s.p999 <= s.max, "p999 {} above max {}", s.p999, s.max);
        // The top quantile is a bucket lower bound (≈6% resolution) but
        // never exceeds the observed max — previously it could also sit
        // *below* min for narrow distributions; both are now impossible.
        let top = h.quantile(1.0).unwrap();
        assert!(top <= s.max && top >= s.max / 2, "top {top}");
        assert_eq!(h.quantile(0.25), Some(10));
        // All quantiles stay within the observed range.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((10..=u64::MAX).contains(&v), "q={q} v={v}");
        }
    }

    #[test]
    fn histogram_concurrent_recording() {
        let h = Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for v in 0..5_000u64 {
                        h.record(v);
                    }
                });
            }
        });
        assert_eq!(h.count(), 20_000);
    }

    /// The extremes are guarded by a relaxed load before their RMW. Eight
    /// threads released together onto the one header (and one gauge), with
    /// unordered samples so new extremes keep arriving mid-run, must still
    /// read exactly the sequential fold's snapshot and quantiles.
    #[test]
    fn guarded_extremes_match_sequential_fold_on_a_shared_stripe() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 20_000;
        let samples = |t: u64| {
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (t + 1);
            (0..PER_THREAD).map(move |_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1_000_000
            })
        };
        let h = Histogram::new();
        let g = Gauge::default();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (h, g, start) = (&h, &g, &start);
                s.spawn(move || {
                    start.wait();
                    for v in samples(t) {
                        h.record(v);
                        g.set(v);
                    }
                });
            }
        });
        let all: Vec<u64> = (0..THREADS).flat_map(samples).collect();
        let snap = h.snapshot();
        assert_eq!(snap.count, all.len() as u64);
        assert_eq!(snap.sum, all.iter().sum::<u64>());
        assert_eq!(Some(snap.min), all.iter().copied().min());
        assert_eq!(Some(snap.max), all.iter().copied().max());
        assert_eq!(Some(g.max()), all.iter().copied().max());
        let seq = Histogram::new();
        all.iter().for_each(|&v| seq.record(v));
        assert_eq!(
            snap,
            seq.snapshot(),
            "concurrent fill diverged from sequential"
        );
        assert_eq!(h.quantile(0.5), seq.quantile(0.5));
    }
}
