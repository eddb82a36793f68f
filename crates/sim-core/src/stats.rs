//! Summary statistics: running moments and latency histograms.

use core::fmt;
use std::sync::OnceLock;

/// Online mean/variance accumulator (Welford's algorithm).
///
/// # Example
///
/// ```
/// use sim_core::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(v);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.std_dev(), 2.0); // population standard deviation
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(0.0),
            self.max().unwrap_or(0.0)
        )
    }
}

/// The first bucket's upper bound: values below it land in bucket 0.
const BASE: f64 = 100.0;
/// The ratio of consecutive bucket bounds.
const GROWTH: f64 = 1.05;
/// Buckets of a histogram, the last one open-ended: bounds from 100 ns to
/// 100·1.05^378 ns ≈ 10.2 s.
const BUCKETS: usize = 380;

/// A logarithmically bucketed histogram of nanosecond latencies.
///
/// Bucket 0 holds values below 100 ns and bucket `i ≥ 1` those of
/// `⌊ln(v/100) / ln 1.05⌋ = i − 1`, the last bucket everything from about
/// 10.2 s up: bounded relative quantile error over eight decades, the usual
/// choice for one-way-delay measurements (the paper's Figure 14 reports
/// mean and variation of microsecond-scale delays). The mean and standard
/// deviation are exact ([`RunningStats`]).
///
/// [`Histogram::record`] runs for every delivered packet, so it finds the
/// bucket without a logarithm: from a table of the least value of each
/// bucket that the formula itself picks, built once per process (see
/// `Thresholds`), with one leading-zeros count and one compare.
///
/// # Example
///
/// ```
/// use sim_core::stats::Histogram;
///
/// let mut h = Histogram::new_latency_ns();
/// for v in 1..=1000u64 {
///     h.record(v * 1000); // 1..1000 us in ns
/// }
/// let p50 = h.quantile(0.50);
/// assert!(p50 >= 400_000 && p50 <= 600_000);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    stats: RunningStats,
}

impl Histogram {
    /// A histogram for nanosecond latencies: 100 ns base, 5% growth,
    /// covering ~100 ns to ~10 s in 380 buckets.
    pub fn new_latency_ns() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            stats: RunningStats::new(),
        }
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        self.counts[Thresholds::get().bucket_of(v)] += 1;
        self.total += 1;
        self.stats.record(v as f64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact mean of all recorded observations.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Exact standard deviation of all recorded observations.
    pub fn std_dev(&self) -> f64 {
        self.stats.std_dev()
    }

    /// Approximate quantile (bucket upper bound), `q` in `[0, 1]`.
    ///
    /// Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return 0;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return upper_bound(i);
            }
        }
        self.stats.max().unwrap_or(0.0) as u64
    }
}

/// The bound [`Histogram::quantile`] reports for bucket `i`.
fn upper_bound(i: usize) -> u64 {
    if i == 0 {
        BASE as u64
    } else {
        (BASE * GROWTH.powi(i as i32)) as u64
    }
}

/// The bucket of `v` by its definition, `⌊ln(v/100) / ln 1.05⌋ + 1` capped
/// at the last bucket: what [`Thresholds`] is built from and tested
/// against.
fn bucket_by_formula(v: u64) -> usize {
    let v = v as f64;
    if v < BASE {
        return 0;
    }
    let idx = (v / BASE).ln() / GROWTH.ln();
    (idx as usize + 1).min(BUCKETS - 1)
}

/// Bits below the leading one that pick a value's cell.
const CELL_BITS: u32 = 5;

/// [`bucket_by_formula`] as a table: where each bucket starts, and a cell
/// per octave and per `1/32` of an octave saying which bucket the cell's
/// least value is in.
///
/// *Why a table gives the formula's answer.* Over the integers the formula
/// is nondecreasing. `v as f64`, the division by 100 and by `ln 1.05` and
/// the truncation are each monotone; `ln` is accurate to within an ulp, so
/// it could reorder two values only where their true logarithms lie within
/// a few ulps (~10⁻¹⁵ relative) of each other, and two distinct integers
/// below 2^35 differ in logarithm by more than 2^-35 ≈ 3·10⁻¹¹. Every
/// bucket starts below 2^34 (the last at about 1.02·10¹⁰), and above the
/// last start the cap holds the answer. So the formula's bucket of `v` is
/// the number of bucket starts `≤ v`, which a binary search over the
/// formula finds once per bucket.
///
/// *Why one compare per cell.* A cell spans a ratio of at most 33/32 <
/// 1.05 between its least and greatest values, so at most one bucket
/// starts inside it: `v` is in the cell's bucket or the next.
///
/// The tests hold the lookup to the formula exhaustively below 2^22, at
/// and around every bucket start and every cell boundary, and on 10⁶
/// seeded values up to `u64::MAX`.
struct Thresholds {
    /// The bucket of each cell's least value, by cell index `(octave << 5)
    /// | the five bits below the leading one`.
    cell: [u16; 64 << CELL_BITS],
    /// `last[i]`: the greatest value of bucket `i − 1` (one below where
    /// bucket `i` starts), `u64::MAX` past the last bucket; `last[0]` is 0,
    /// below every cell's least value.
    last: [u64; BUCKETS + 1],
}

impl Thresholds {
    /// The table, built on first use.
    fn get() -> &'static Thresholds {
        static TABLE: OnceLock<Thresholds> = OnceLock::new();
        TABLE.get_or_init(Thresholds::build)
    }

    #[cold]
    fn build() -> Thresholds {
        let mut last = [u64::MAX; BUCKETS + 1];
        last[0] = 0;
        for (i, last) in last.iter_mut().enumerate().take(BUCKETS).skip(1) {
            // The least v with bucket_by_formula(v) >= i lies in (lo, hi].
            let (mut lo, mut hi) = (0u64, 1u64 << 40);
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if bucket_by_formula(mid) >= i {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            *last = lo;
        }
        let mut cell = [0u16; 64 << CELL_BITS];
        for (c, bucket) in cell.iter_mut().enumerate() {
            let least = Self::least_of_cell(c);
            *bucket = (last.partition_point(|&l| l < least) - 1) as u16;
            // At most one bucket starts after the cell's least value and
            // at or before its greatest.
            let next = Self::least_of_cell(c + 1).wrapping_sub(1);
            let b = *bucket as usize;
            assert!(
                b + 2 > BUCKETS || last[b + 2] >= next,
                "cell {c} spans two bucket starts"
            );
        }
        Thresholds { cell, last }
    }

    /// The least value whose cell is `c` (any value below 32 for the cells
    /// of the first five octaves, all of which are in bucket 0); `0` past
    /// the last cell.
    fn least_of_cell(c: usize) -> u64 {
        let (octave, bits) = ((c >> CELL_BITS) as u32, (c & 31) as u64);
        match octave {
            64.. => 0,
            0..CELL_BITS => 1 << octave,
            _ => (32 | bits) << (octave - CELL_BITS),
        }
    }

    /// `v`'s cell: its octave and the five bits below its leading one
    /// (`v | 1` gives 0 the cell of 1; both are in bucket 0).
    #[inline]
    fn cell_of(v: u64) -> usize {
        let v = v | 1;
        let lz = v.leading_zeros();
        let top = (v << lz) >> (63 - CELL_BITS);
        (((63 - lz) as usize) << CELL_BITS) | (top as usize & 31)
    }

    /// [`bucket_by_formula`]`(v)`.
    #[inline]
    fn bucket_of(&self, v: u64) -> usize {
        let b = self.cell[Self::cell_of(v)] as usize;
        b + (v > self.last[b + 1]) as usize
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} sd={:.1} p50={} p99={}",
            self.total,
            self.mean(),
            self.std_dev(),
            self.quantile(0.5),
            self.quantile(0.99)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        s.record(1.0);
        s.record(3.0);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.variance(), 1.0);
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let mut h = Histogram::new_latency_ns();
        for v in (1..10_000u64).map(|v| v * 97 % 1_000_000 + 100) {
            h.record(v);
        }
        let p10 = h.quantile(0.10);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!(p10 <= p50 && p50 <= p99, "{p10} {p50} {p99}");
    }

    #[test]
    fn cached_log_buckets_match_the_uncached_formula() {
        let t = Thresholds::get();
        let check = |v: u64| assert_eq!(t.bucket_of(v), bucket_by_formula(v), "value {v}");
        // Every value below 2^22 (bucket 163, ~300 us).
        (0..1u64 << 22).for_each(check);
        // Three either side of every bucket start, and of the greatest
        // value below it.
        for &last in &t.last[1..BUCKETS] {
            (last - 3..=last + 4).for_each(check);
        }
        // One either side of every cell boundary.
        for c in 1..64 << CELL_BITS {
            let least = Thresholds::least_of_cell(c);
            (least - 1..=least.saturating_add(1)).for_each(check);
        }
        // 10^6 seeded values, log-uniform over every magnitude.
        let mut rng = crate::rng::SimRng::seed(18);
        (0..1_000_000).for_each(|_| check(rng.next_u64() >> rng.range(0, 64)));
        check(u64::MAX);
    }

    #[test]
    fn buckets_start_at_100_ns_and_below_2_pow_34() {
        let t = Thresholds::get();
        assert_eq!(t.last[1], 99, "values from 100 ns up leave bucket 0");
        assert!(t.last[1..BUCKETS].windows(2).all(|w| w[0] < w[1]));
        assert!(t.last[BUCKETS - 1] < 1 << 34 && t.last[BUCKETS] == u64::MAX);
    }

    #[test]
    fn quantiles_are_the_bounds_of_the_ranked_samples_buckets() {
        let t = Thresholds::get();
        let mut rng = crate::rng::SimRng::seed(45);
        // Every magnitude; the values at and around bucket starts; the
        // extremes.
        let magnitudes: Vec<u64> = (0..20_000)
            .map(|_| rng.next_u64() >> rng.range(0, 64))
            .collect();
        let starts: Vec<u64> = t.last[1..BUCKETS]
            .iter()
            .flat_map(|&l| [l, l + 1, l + 2])
            .collect();
        let extremes = vec![0, 1, 99, 100, u64::MAX, u64::MAX, u64::MAX - 1];
        let narrow: Vec<u64> = (0..5_000).map(|_| rng.range(40_000, 60_000)).collect();
        for stream in [magnitudes, starts, extremes, narrow] {
            let mut h = Histogram::new_latency_ns();
            let mut exact = RunningStats::new();
            for &v in &stream {
                h.record(v);
                exact.record(v as f64);
            }
            assert_eq!(h.count(), stream.len() as u64);
            assert_eq!(h.mean().to_bits(), exact.mean().to_bits());
            assert_eq!(h.std_dev().to_bits(), exact.std_dev().to_bits());
            let mut sorted = stream.clone();
            sorted.sort_unstable();
            let n = sorted.len();
            let qs = (0..=1_000)
                .map(|k| k as f64 / 1_000.0)
                .chain([0.5, 0.9, 0.99, 0.999, 1e-9]);
            for q in qs {
                let rank = ((q * n as f64).ceil() as usize).max(1);
                let want = upper_bound(bucket_by_formula(sorted[rank - 1]));
                assert_eq!(h.quantile(q), want, "q {q} of {n} samples");
            }
        }
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::new_latency_ns();
        h.record(100);
        h.record(300);
        assert_eq!(h.mean(), 200.0);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn histogram_empty_quantile_zero() {
        let h = Histogram::new_latency_ns();
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = Histogram::new_latency_ns();
        for _ in 0..1000 {
            h.record(50_000);
        }
        let p50 = h.quantile(0.5) as f64;
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.06, "p50 {p50}");
    }
}
