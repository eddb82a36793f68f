//! Traffic generators: arrival processes for open-loop workloads.
//!
//! TCP experiments are closed-loop (the [`crate::tcp`] model reacts to the
//! network); the maximum-throughput and latency experiments (Figures 13/14)
//! are open-loop — fixed-size packets injected at a target or unlimited
//! rate. [`ArrivalProcess`] abstracts over those patterns.

use sim_core::rng::SimRng;
use sim_core::time::Nanos;
use sim_core::units::{BitRate, WireFraming};

/// An open-loop packet arrival process.
///
/// Implementations return, for each packet in turn, the gap since the
/// previous arrival and the frame length in bytes.
pub trait ArrivalProcess {
    /// The gap to the next arrival and that packet's frame length.
    fn next_arrival(&mut self, rng: &mut SimRng) -> (Nanos, u32);
}

/// Constant bit rate: fixed-size frames at exact intervals.
///
/// # Example
///
/// ```
/// use netstack::gen::{ArrivalProcess, CbrProcess};
/// use sim_core::rng::SimRng;
/// use sim_core::units::BitRate;
///
/// let mut cbr = CbrProcess::new(BitRate::from_gbps(1.0), 1250);
/// let mut rng = SimRng::seed(0);
/// let (gap, len) = cbr.next_arrival(&mut rng);
/// assert_eq!(len, 1250);
/// assert_eq!(gap.as_nanos(), 10_000); // 10_000 bits at 1 Gbps
/// ```
#[derive(Debug, Clone)]
pub struct CbrProcess {
    gap: Nanos,
    frame_len: u32,
}

impl CbrProcess {
    /// Creates a CBR process sending `frame_len`-byte frames at `rate`
    /// (payload rate, excluding wire framing overhead).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn new(rate: BitRate, frame_len: u32) -> Self {
        assert!(rate > BitRate::ZERO, "rate must be positive");
        CbrProcess {
            gap: rate.serialization_time(frame_len as u64 * 8),
            frame_len,
        }
    }

    /// The inter-packet gap.
    pub fn gap(&self) -> Nanos {
        self.gap
    }
}

impl ArrivalProcess for CbrProcess {
    fn next_arrival(&mut self, _rng: &mut SimRng) -> (Nanos, u32) {
        (self.gap, self.frame_len)
    }
}

/// Poisson arrivals: exponentially distributed gaps around a mean rate.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    mean_gap_ns: f64,
    frame_len: u32,
}

impl PoissonProcess {
    /// Creates a Poisson process with the given mean rate and frame length.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    // Kept public as a stimulus for other crates' tests:
    // `np_sim::harness::tests::drive_matches_the_reference_merge` and
    // `tests/baseline_references.rs`.
    #[allow(dead_code)]
    pub fn new(rate: BitRate, frame_len: u32) -> Self {
        assert!(rate > BitRate::ZERO, "rate must be positive");
        let pps = rate.as_bps() as f64 / (frame_len as f64 * 8.0);
        PoissonProcess {
            mean_gap_ns: 1e9 / pps,
            frame_len,
        }
    }
}

impl ArrivalProcess for PoissonProcess {
    fn next_arrival(&mut self, rng: &mut SimRng) -> (Nanos, u32) {
        let gap = rng.exponential(self.mean_gap_ns);
        (Nanos::from_nanos(gap.round() as u64), self.frame_len)
    }
}

/// On/off bursting: alternates between a sending period at `peak` rate and
/// a silent period, with exponentially distributed period lengths.
#[derive(Debug, Clone)]
pub struct OnOffProcess {
    on_gap: Nanos,
    frame_len: u32,
    mean_on_ns: f64,
    mean_off_ns: f64,
    remaining_on: f64,
}

impl OnOffProcess {
    /// Creates an on/off process bursting at `peak` with the given mean
    /// on/off durations.
    ///
    /// # Panics
    ///
    /// Panics if `peak` is zero or either duration is zero.
    // Kept public as a stimulus for
    // `np_sim::harness::tests::drive_matches_the_reference_merge`.
    #[allow(dead_code)]
    pub fn new(peak: BitRate, frame_len: u32, mean_on: Nanos, mean_off: Nanos) -> Self {
        assert!(peak > BitRate::ZERO, "peak rate must be positive");
        assert!(
            mean_on > Nanos::ZERO && mean_off > Nanos::ZERO,
            "durations must be positive"
        );
        OnOffProcess {
            on_gap: peak.serialization_time(frame_len as u64 * 8),
            frame_len,
            mean_on_ns: mean_on.as_nanos() as f64,
            mean_off_ns: mean_off.as_nanos() as f64,
            remaining_on: 0.0,
        }
    }
}

impl ArrivalProcess for OnOffProcess {
    fn next_arrival(&mut self, rng: &mut SimRng) -> (Nanos, u32) {
        if self.remaining_on <= 0.0 {
            // Burst exhausted: idle for an off period, then start a new burst.
            let off = rng.exponential(self.mean_off_ns);
            self.remaining_on = rng.exponential(self.mean_on_ns);
            (
                Nanos::from_nanos((off + self.on_gap.as_nanos() as f64).round() as u64),
                self.frame_len,
            )
        } else {
            self.remaining_on -= self.on_gap.as_nanos() as f64;
            (self.on_gap, self.frame_len)
        }
    }
}

/// Full-speed injection: back-to-back fixed-size frames at the line rate of
/// the ingress link — the stress pattern of Figure 13.
///
/// Gaps are emitted from a cumulative schedule so integer-nanosecond
/// rounding never drifts: over N packets the total elapsed time is exact to
/// within one nanosecond, even for 17-ns-per-packet 40 GbE minimum frames.
#[derive(Debug, Clone)]
pub struct LineRateProcess {
    wire_bits: u64,
    rate_bps: u64,
    frame_len: u32,
    sent: u64,
    last_t_ns: u64,
}

impl LineRateProcess {
    /// Creates a generator saturating `link` with `frame_len`-byte frames
    /// (accounting for `framing` overhead between frames).
    ///
    /// # Panics
    ///
    /// Panics if `link` is zero.
    pub fn new(link: BitRate, frame_len: u32, framing: WireFraming) -> Self {
        assert!(link > BitRate::ZERO, "link rate must be positive");
        LineRateProcess {
            wire_bits: framing.wire_bits(frame_len as u64),
            rate_bps: link.as_bps(),
            frame_len,
            sent: 0,
            last_t_ns: 0,
        }
    }
}

impl ArrivalProcess for LineRateProcess {
    fn next_arrival(&mut self, _rng: &mut SimRng) -> (Nanos, u32) {
        self.sent += 1;
        let t_ns = (self.sent as u128 * self.wire_bits as u128 * 1_000_000_000u128
            / self.rate_bps as u128) as u64;
        let gap = t_ns - self.last_t_ns;
        self.last_t_ns = t_ns;
        (Nanos::from_nanos(gap), self.frame_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cbr_rate_is_exact() {
        let mut p = CbrProcess::new(BitRate::from_gbps(10.0), 1250);
        let mut rng = SimRng::seed(1);
        let (gap, len) = p.next_arrival(&mut rng);
        // 10_000 bits at 10 Gbps = 1 us.
        assert_eq!(gap, Nanos::from_micros(1));
        assert_eq!(len, 1250);
    }

    #[test]
    fn poisson_mean_rate_close() {
        let mut p = PoissonProcess::new(BitRate::from_gbps(1.0), 1250);
        let mut rng = SimRng::seed(2);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| p.next_arrival(&mut rng).0.as_nanos()).sum();
        let mean = total as f64 / n as f64;
        // Expected gap: 10_000 bits at 1 Gbps = 10_000 ns.
        assert!((mean - 10_000.0).abs() < 300.0, "mean gap {mean}");
    }

    #[test]
    fn onoff_long_run_rate_below_peak() {
        let mut p = OnOffProcess::new(
            BitRate::from_gbps(10.0),
            1250,
            Nanos::from_micros(100),
            Nanos::from_micros(100),
        );
        let mut rng = SimRng::seed(3);
        let n = 50_000;
        let mut t = 0u64;
        for _ in 0..n {
            t += p.next_arrival(&mut rng).0.as_nanos();
        }
        let bits = n as f64 * 1250.0 * 8.0;
        let rate_gbps = bits / t as f64;
        // 50% duty cycle of a 10 Gbps burst ≈ 5 Gbps.
        assert!((rate_gbps - 5.0).abs() < 1.0, "rate {rate_gbps}");
    }

    #[test]
    fn line_rate_pps_matches_framing_math() {
        let mut p = LineRateProcess::new(BitRate::from_gbps(40.0), 64, WireFraming::ETHERNET);
        let expect = WireFraming::ETHERNET.line_rate_pps(BitRate::from_gbps(40.0), 64);
        let mut rng = SimRng::seed(5);
        let n = 100_000u64;
        let elapsed: u64 = (0..n).map(|_| p.next_arrival(&mut rng).0.as_nanos()).sum();
        let pps = n as f64 * 1e9 / elapsed as f64;
        assert!(
            (pps - expect).abs() / expect < 1e-6,
            "{pps} against {expect}"
        );
    }

    #[test]
    fn processes_are_object_safe() {
        let mut rng = SimRng::seed(4);
        let mut procs: Vec<Box<dyn ArrivalProcess>> = vec![
            Box::new(CbrProcess::new(BitRate::from_mbps(100), 500)),
            Box::new(PoissonProcess::new(BitRate::from_mbps(100), 500)),
        ];
        for p in &mut procs {
            let (gap, len) = p.next_arrival(&mut rng);
            assert!(gap > Nanos::ZERO);
            assert_eq!(len, 500);
        }
    }
}
