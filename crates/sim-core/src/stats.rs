//! Summary statistics: running moments and latency histograms.

use core::fmt;

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

/// A logarithmically bucketed histogram for latency-like positive values.
///
/// Buckets grow geometrically from `base` with ratio `growth`, giving
/// bounded relative quantile error over many decades — the usual choice for
/// one-way-delay measurements (the paper's Figure 14 reports mean and
/// variation of microsecond-scale delays).
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
    base: f64,
    growth: f64,
    /// `growth.ln()`, the divisor of every bucket lookup.
    ln_growth: f64,
    counts: Vec<u64>,
    total: u64,
    stats: RunningStats,
}

impl Histogram {
    /// Creates a histogram with the given base bucket width and growth ratio.
    ///
    /// # Panics
    ///
    /// Panics if `base <= 0`, `growth <= 1`, or `buckets == 0`.
    pub fn new(base: f64, growth: f64, buckets: usize) -> Self {
        assert!(base > 0.0, "base must be positive");
        assert!(growth > 1.0, "growth must exceed 1");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            base,
            growth,
            ln_growth: growth.ln(),
            counts: vec![0; buckets],
            total: 0,
            stats: RunningStats::new(),
        }
    }

    /// A histogram tuned for nanosecond latencies: 100 ns base, 5% growth,
    /// covering ~100 ns to ~10 s in 380 buckets.
    pub fn new_latency_ns() -> Self {
        Self::new(100.0, 1.05, 380)
    }

    fn bucket_of(&self, v: u64) -> usize {
        let v = v as f64;
        if v < self.base {
            return 0;
        }
        let idx = (v / self.base).ln() / self.ln_growth;
        (idx as usize + 1).min(self.counts.len() - 1)
    }

    /// Records one observation.
    pub fn record(&mut self, v: u64) {
        let b = self.bucket_of(v);
        self.counts[b] += 1;
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
                return if i == 0 {
                    self.base as u64
                } else {
                    (self.base * self.growth.powi(i as i32)) as u64
                };
            }
        }
        self.stats.max().unwrap_or(0.0) as u64
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
        // 10^5 seeded samples spread log-uniformly from below the base to
        // beyond the last bucket, plus every bucket's own lower edge.
        let h = Histogram::new_latency_ns();
        let uncached = |v: u64| {
            let v = v as f64;
            if v < h.base {
                return 0;
            }
            let idx = (v / h.base).ln() / h.growth.ln();
            (idx as usize + 1).min(h.counts.len() - 1)
        };
        let mut rng = crate::rng::SimRng::seed(18);
        let edges = (0..h.counts.len() as i32).map(|i| (h.base * h.growth.powi(i)) as u64);
        let sweep = (0..100_000).map(|_| {
            let hi = 1u64 << rng.range(1, 40);
            rng.range(1, hi)
        });
        for v in edges.chain(sweep) {
            assert_eq!(h.bucket_of(v), uncached(v), "value {v}");
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
