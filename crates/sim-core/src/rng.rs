//! Seeded deterministic randomness for reproducible experiments.
//!
//! Every experiment driver takes an explicit seed; all stochastic choices
//! (packet interarrival jitter, flow hash placement, connection counts) flow
//! through [`SimRng`] so that the same seed regenerates the same figure
//! row-for-row.
//!
//! The generator is a self-contained xoshiro256\*\* (Blackman & Vigna)
//! seeded through SplitMix64 — the same construction the `rand` crate's
//! small RNG uses — so the workspace needs no external randomness crate
//! (the build environment has no crates.io access; see README "Offline
//! builds").

/// A deterministic simulation RNG.
///
/// # Example
///
/// ```
/// use sim_core::rng::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// SplitMix64 step, used to expand the 64-bit seed into generator state.
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            state: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// The next raw 64-bit value (xoshiro256\*\*).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut s2 = s2 ^ s0;
        let s3 = s3 ^ s1;
        let s1 = s1 ^ s2;
        let s0 = s0 ^ s3;
        s2 ^= t;
        self.state = [s0, s1, s2, s3.rotate_left(45)];
        result
    }

    /// A uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits give the full double mantissa; [0, 1) exactly.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        let span = hi - lo;
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return lo + v % span;
            }
        }
    }

    /// An exponentially distributed value with the given mean, for Poisson
    /// interarrival processes.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite and positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean.is_finite() && mean > 0.0, "mean must be positive");
        let u = self.uniform().max(f64::EPSILON);
        -mean * u.ln()
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot index an empty slice");
        self.range(0, len as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::seed(5);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(10.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = SimRng::seed(11);
        for _ in 0..1000 {
            let v = r.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = SimRng::seed(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.index(8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::seed(17);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let mut r = SimRng::seed(19);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
