//! Bit-rate and size units, plus Ethernet wire-framing arithmetic.
//!
//! Line-rate ceilings in the paper's Figure 13 are pure framing arithmetic:
//! a 40 GbE link carries at most `40e9 / ((size + 24) * 8)` packets per
//! second, where 24 bytes is preamble (8) + FCS (4) + inter-frame gap (12).
//! [`WireFraming`] encodes exactly that.

use core::fmt;

use crate::scale::Scale;
use crate::time::Nanos;

/// A bandwidth in bits per second.
///
/// # Example
///
/// ```
/// use sim_core::units::BitRate;
///
/// let r = BitRate::from_gbps(40.0);
/// assert_eq!(r.as_bps(), 40_000_000_000);
/// assert_eq!(r.to_string(), "40.00Gbps");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BitRate(u64);

impl BitRate {
    /// Zero bandwidth.
    pub const ZERO: BitRate = BitRate(0);

    /// Creates a rate from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        BitRate(bps)
    }

    /// Creates a rate from megabits per second.
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        BitRate(mbps * 1_000_000)
    }

    /// Creates a rate from gigabits per second.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is negative or not finite.
    pub fn from_gbps(gbps: f64) -> Self {
        assert!(
            gbps.is_finite() && gbps >= 0.0,
            "rate must be finite and non-negative"
        );
        BitRate((gbps * 1e9).round() as u64)
    }

    /// Rate in bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Rate in fractional gigabits per second.
    #[inline]
    pub fn as_gbps(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Rate in fractional megabits per second.
    #[inline]
    pub fn as_mbps(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time to serialize `bits` at this rate, rounded up to whole nanoseconds.
    ///
    /// Returns [`Nanos::MAX`] for a zero rate (nothing ever serializes).
    pub fn serialization_time(self, bits: u64) -> Nanos {
        if self.0 == 0 {
            return Nanos::MAX;
        }
        let ns = (bits as u128 * 1_000_000_000u128).div_ceil(self.0 as u128);
        Nanos::from_nanos(ns as u64)
    }

    /// How many bits can be sent in `dt` at this rate.
    pub fn bits_in(self, dt: Nanos) -> u64 {
        (self.0 as u128 * dt.as_nanos() as u128 / 1_000_000_000u128) as u64
    }

    /// Splits this rate by an integer weight pair, returning the share for
    /// `numer / denom`.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn scaled(self, numer: u64, denom: u64) -> BitRate {
        assert!(denom > 0, "denominator must be positive");
        BitRate((self.0 as u128 * numer as u128 / denom as u128) as u64)
    }

    /// Sum of two rates.
    #[inline]
    pub fn saturating_add(self, rhs: BitRate) -> BitRate {
        BitRate(self.0.saturating_add(rhs.0))
    }
}

/// [`BitRate::serialization_time`] and [`BitRate::bits_in`] at one
/// positive rate, their divisions precomputed: the conversions of a wire
/// that times every frame it sends.
///
/// Each returns exactly what the `BitRate` method returns for every
/// argument: `⌈b·10⁹ / R⌉` and `⌊R·t / 10⁹⌋` go through a `Scale`, which
/// takes the `u128` arithmetic only when the reduced product overflows
/// `u64` (at 40 Gbps the fractions reduce to `⌊(b + 39) / 40⌋` and
/// `40·t`: the first overflows for no frame, the second past 14 years).
///
/// # Example
///
/// ```
/// use sim_core::time::Nanos;
/// use sim_core::units::{BitRate, WireTime};
///
/// let rate = BitRate::from_gbps(40.0);
/// let wire = WireTime::new(rate);
/// assert_eq!(wire.serialization_time(672), Nanos::from_nanos(17)); // ⌈16.8⌉
/// assert_eq!(wire.bits_in(Nanos::from_micros(1)), rate.bits_in(Nanos::from_micros(1)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct WireTime {
    serialization: Scale,
    bits: Scale,
}

impl WireTime {
    /// The conversions at `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn new(rate: BitRate) -> Self {
        assert!(rate > BitRate::ZERO, "wire rate must be positive");
        WireTime {
            serialization: Scale::new(1_000_000_000, rate.0 - 1, rate.0),
            bits: Scale::new(rate.0, 0, 1_000_000_000),
        }
    }

    /// Time to serialize `bits`, rounded up to whole nanoseconds.
    #[inline]
    pub fn serialization_time(&self, bits: u64) -> Nanos {
        Nanos::from_nanos(self.serialization.apply(bits))
    }

    /// How many bits can be sent in `dt`.
    #[inline]
    pub fn bits_in(&self, dt: Nanos) -> u64 {
        self.bits.apply(dt.as_nanos())
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", self.as_gbps())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mbps", self.as_mbps())
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}Kbps", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

/// A size in bytes.
///
/// # Example
///
/// ```
/// use sim_core::units::ByteSize;
///
/// let buffer = ByteSize::from_kib(64);
/// assert_eq!(buffer.as_bits(), 524_288);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size from kibibytes (1024 bytes).
    #[inline]
    pub const fn from_kib(k: u64) -> Self {
        ByteSize(k * 1024)
    }

    /// Size in bits.
    #[inline]
    pub const fn as_bits(self) -> u64 {
        self.0 * 8
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.2}MiB", self.0 as f64 / (1024.0 * 1024.0))
        } else if self.0 >= 1024 {
            write!(f, "{:.2}KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// Ethernet framing overhead model used for line-rate arithmetic.
///
/// `frame_len` below is the layer-2 frame length *including* the 4-byte FCS
/// (so a "1518-byte packet" in the paper's Figure 13 sense), and the
/// additional per-packet wire overhead is preamble + start-frame delimiter
/// (8 bytes) plus the inter-frame gap (12 bytes).
///
/// # Example
///
/// ```
/// use sim_core::units::{BitRate, WireFraming};
///
/// let wire = WireFraming::ETHERNET;
/// let mpps = wire.line_rate_pps(BitRate::from_gbps(40.0), 1518) / 1e6;
/// assert!((mpps - 3.25).abs() < 0.03); // ~3.25 Mpps at 40 GbE
/// let mpps64 = wire.line_rate_pps(BitRate::from_gbps(40.0), 64) / 1e6;
/// assert!((mpps64 - 59.5).abs() < 0.1); // ~59.5 Mpps at 40 GbE
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireFraming {
    /// Per-packet overhead bytes on the wire beyond the frame itself
    /// (preamble + SFD + inter-frame gap).
    pub overhead_bytes: u64,
    /// Minimum legal frame length in bytes (64 for Ethernet).
    pub min_frame: u64,
}

impl WireFraming {
    /// Standard Ethernet: 20 bytes of overhead (8 preamble/SFD + 12 IFG),
    /// 64-byte minimum frame.
    pub const ETHERNET: WireFraming = WireFraming {
        overhead_bytes: 20,
        min_frame: 64,
    };

    /// No framing overhead at all (useful in unit tests).
    pub const NONE: WireFraming = WireFraming {
        overhead_bytes: 0,
        min_frame: 0,
    };

    /// Bits occupied on the wire by one frame of `frame_len` bytes.
    pub fn wire_bits(&self, frame_len: u64) -> u64 {
        (frame_len.max(self.min_frame) + self.overhead_bytes) * 8
    }

    /// The maximum packets-per-second a link of rate `rate` can carry for
    /// frames of `frame_len` bytes.
    pub fn line_rate_pps(&self, rate: BitRate, frame_len: u64) -> f64 {
        let bits = self.wire_bits(frame_len);
        if bits == 0 {
            return f64::INFINITY;
        }
        rate.as_bps() as f64 / bits as f64
    }

    /// Time to put one frame of `frame_len` bytes on a wire of rate `rate`.
    pub fn serialization_time(&self, rate: BitRate, frame_len: u64) -> Nanos {
        rate.serialization_time(self.wire_bits(frame_len))
    }
}

impl Default for WireFraming {
    fn default() -> Self {
        WireFraming::ETHERNET
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitrate_constructors() {
        assert_eq!(BitRate::from_gbps(10.0), BitRate::from_mbps(10_000));
        assert_eq!(BitRate::from_mbps(1), BitRate::from_bps(1_000_000));
    }

    #[test]
    fn serialization_time_rounds_up() {
        let r = BitRate::from_bps(1_000_000_000); // 1 bit per ns
        assert_eq!(r.serialization_time(100), Nanos::from_nanos(100));
        let r2 = BitRate::from_bps(3_000_000_000); // 3 bits per ns
        assert_eq!(r2.serialization_time(10), Nanos::from_nanos(4)); // ceil(10/3)
    }

    #[test]
    fn zero_rate_never_serializes() {
        assert_eq!(BitRate::ZERO.serialization_time(1), Nanos::MAX);
    }

    #[test]
    fn bits_in_window() {
        let r = BitRate::from_gbps(40.0);
        assert_eq!(r.bits_in(Nanos::from_micros(1)), 40_000);
    }

    #[test]
    fn wire_time_is_the_rate_arithmetic_for_every_argument() {
        let mut rng = crate::rng::SimRng::seed(45);
        let rates = [1, 3, 999, 1_000_000_000, 7_777_777_777, 10_000_000_000];
        let rates = rates
            .into_iter()
            .chain([40_000_000_000, 100_000_000_000, u64::MAX]);
        for bps in rates {
            let rate = BitRate::from_bps(bps);
            let wire = WireTime::new(rate);
            let edges = [
                0,
                1,
                2,
                511,
                512,
                672,
                12_304,
                1_000_000_000,
                bps - 1,
                bps,
                bps.saturating_add(1),
            ];
            // Past 2^64 / 10⁹ bits (or 2^64 / R ns) the product overflows:
            // the fallback.
            let wide = [
                u64::MAX / 1_000_000_000 + 1,
                u64::MAX / 40 + 1,
                u64::MAX - 1,
                u64::MAX,
            ];
            let seeded = (0..2_000).map(|_| rng.next_u64() >> rng.range(0, 64));
            for x in edges.into_iter().chain(wide).chain(seeded) {
                let dt = Nanos::from_nanos(x);
                assert_eq!(
                    wire.serialization_time(x),
                    rate.serialization_time(x),
                    "{x} bits at {rate}"
                );
                assert_eq!(wire.bits_in(dt), rate.bits_in(dt), "{dt} at {rate}");
            }
        }
    }

    #[test]
    fn scaled_shares() {
        let r = BitRate::from_gbps(9.0);
        assert_eq!(r.scaled(2, 3), BitRate::from_gbps(6.0));
        assert_eq!(r.scaled(1, 3), BitRate::from_gbps(3.0));
    }

    #[test]
    fn ethernet_line_rates_match_published_values() {
        let w = WireFraming::ETHERNET;
        // 10 GbE @ 64B = 14.88 Mpps, the classic figure.
        let pps = w.line_rate_pps(BitRate::from_gbps(10.0), 64);
        assert!((pps / 1e6 - 14.88).abs() < 0.01, "got {pps}");
        // 40 GbE @ 1518B ≈ 3.25 Mpps.
        let pps = w.line_rate_pps(BitRate::from_gbps(40.0), 1518);
        assert!((pps / 1e6 - 3.25).abs() < 0.01, "got {pps}");
    }

    #[test]
    fn min_frame_padding_applies() {
        let w = WireFraming::ETHERNET;
        assert_eq!(w.wire_bits(10), w.wire_bits(64));
    }

    #[test]
    fn bytesize_units() {
        assert_eq!(ByteSize::from_kib(2).as_bits(), 2048 * 8);
        assert_eq!(ByteSize::ZERO.as_bits(), 0);
    }

    #[test]
    fn displays() {
        assert_eq!(BitRate::from_gbps(40.0).to_string(), "40.00Gbps");
        assert_eq!(BitRate::from_mbps(100).to_string(), "100.00Mbps");
        assert_eq!(ByteSize::ZERO.to_string(), "0B");
        assert_eq!(ByteSize::from_kib(4).to_string(), "4.00KiB");
    }
}
