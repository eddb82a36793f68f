//! Fixed-point token arithmetic shared by every token bucket in the
//! workspace.
//!
//! The paper's token buckets operate in *bits per cycle* (Equation 2:
//! θ = b / f), which for multi-gigabit rates and nanosecond update intervals
//! requires sub-bit precision. We represent token quantities as
//! **bits × 2¹⁶** ([`Tokens`]) and fill rates as **bits/ns × 2¹⁶**
//! ([`TokenRate`]). With 16 fractional bits, a 100 Gbps rate over a 1 ns
//! interval still resolves to 6.55 million fixed-point units, and a 1 Kbps
//! rate resolves to ~65 units per millisecond — ample headroom at both ends.
//!
//! A `u64` holds 2⁴⁷ whole bits, i.e. ~17.6 terabits ≈ 7 minutes of queued
//! tokens at 40 Gbps, far beyond any configured burst.

use core::fmt;

/// Number of fractional bits in the token fixed-point representation.
pub const FRAC_BITS: u32 = 16;

/// The token fixed-point scale factor (2¹⁶).
pub const SCALE: u64 = 1 << FRAC_BITS;

/// Number of fractional bits in the rate fixed-point representation.
///
/// Rates get more fractional precision than token quantities so that
/// kilobit-per-second rates survive the bits/s → bits/ns conversion
/// (1 Kbps is only 10⁻⁶ bits/ns) without large relative error.
pub const RATE_FRAC_BITS: u32 = 32;

/// The rate fixed-point scale factor (2³²).
pub const RATE_SCALE: u64 = 1 << RATE_FRAC_BITS;

/// A fixed-point token quantity (bits × 2¹⁶).
///
/// # Example
///
/// ```
/// use sim_core::fixed::Tokens;
///
/// let t = Tokens::from_bits(1500 * 8);
/// assert_eq!(t.as_bits_f64(), 12_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tokens(u64);

impl Tokens {
    /// Zero tokens.
    pub const ZERO: Tokens = Tokens(0);

    /// Creates a token quantity from whole bits.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        Tokens(bits << FRAC_BITS)
    }

    /// Creates a token quantity from whole bytes.
    #[inline]
    pub const fn from_bytes(bytes: u64) -> Self {
        Self::from_bits(bytes * 8)
    }

    /// The raw fixed-point value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Token quantity as fractional bits.
    #[inline]
    pub fn as_bits_f64(self) -> f64 {
        self.0 as f64 / SCALE as f64
    }
}

impl fmt::Display for Tokens {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}bit", self.as_bits_f64())
    }
}

impl core::ops::Add for Tokens {
    type Output = Tokens;
    #[inline]
    fn add(self, rhs: Tokens) -> Tokens {
        Tokens(self.0 + rhs.0)
    }
}

impl core::ops::Sub for Tokens {
    type Output = Tokens;
    #[inline]
    fn sub(self, rhs: Tokens) -> Tokens {
        Tokens(self.0 - rhs.0)
    }
}

/// A fixed-point token fill rate (bits per nanosecond × 2¹⁶).
///
/// # Example
///
/// ```
/// use sim_core::fixed::TokenRate;
/// use sim_core::time::Nanos;
/// use sim_core::units::BitRate;
///
/// let r = TokenRate::from_bit_rate(BitRate::from_gbps(10.0));
/// // 10 Gbps for 1 us = 10_000 bits.
/// assert_eq!(r.accrued(Nanos::from_micros(1)).as_bits_f64().round(), 10_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TokenRate(u64);

impl TokenRate {
    /// Converts a bandwidth into a token fill rate.
    ///
    /// This is the paper's Equation 2 with the clock normalized to
    /// nanoseconds instead of micro-engine cycles: θ [bits/ns] = b [bits/s] / 1e9.
    pub fn from_bit_rate(rate: crate::units::BitRate) -> Self {
        // bits/s × 2^32 / 1e9 = bits/ns × 2^32; u128 to avoid overflow at Tbps.
        TokenRate((rate.as_bps() as u128 * RATE_SCALE as u128 / 1_000_000_000u128) as u64)
    }

    /// Creates a rate from a raw fixed-point bits-per-ns value.
    #[inline]
    pub const fn from_raw(raw: u64) -> Self {
        TokenRate(raw)
    }

    /// The raw fixed-point value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Converts back to a bandwidth (rounding to whole bits/s).
    pub fn to_bit_rate(self) -> crate::units::BitRate {
        crate::units::BitRate::from_bps(
            ((self.0 as u128 * 1_000_000_000u128 + RATE_SCALE as u128 / 2) / RATE_SCALE as u128)
                as u64,
        )
    }

    /// Tokens accrued over `dt` at this rate, rounded to the nearest token
    /// fixed-point unit so tiny rate × interval products don't vanish.
    pub fn accrued(self, dt: crate::time::Nanos) -> Tokens {
        let shift = RATE_FRAC_BITS - FRAC_BITS;
        let raw = (self.0 as u128 * dt.as_nanos() as u128 + (1u128 << (shift - 1))) >> shift;
        Tokens(raw.min(u64::MAX as u128) as u64)
    }
}

impl fmt::Display for TokenRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_bit_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Nanos;
    use crate::units::BitRate;

    #[test]
    fn tokens_roundtrip_bits() {
        assert_eq!(Tokens::from_bits(123).as_bits_f64(), 123.0);
        assert_eq!(Tokens::from_bytes(10), Tokens::from_bits(80));
    }

    #[test]
    fn rate_conversion_roundtrips() {
        for gbps in [0.001, 0.1, 1.0, 10.0, 40.0, 100.0] {
            let r = BitRate::from_gbps(gbps);
            let tr = TokenRate::from_bit_rate(r);
            let back = tr.to_bit_rate();
            let err = (back.as_bps() as f64 - r.as_bps() as f64).abs() / r.as_bps() as f64;
            assert!(err < 1e-4, "{gbps} Gbps roundtrip error {err}");
        }
    }

    #[test]
    fn accrual_matches_bandwidth() {
        let tr = TokenRate::from_bit_rate(BitRate::from_gbps(40.0));
        let t = tr.accrued(Nanos::from_millis(1));
        // 40 Gbps × 1 ms = 40 Mbit.
        let bits = t.raw() >> FRAC_BITS;
        assert!(
            (bits as i64 - 40_000_000).unsigned_abs() < 1_000,
            "got {bits}"
        );
    }

    #[test]
    fn small_rate_small_interval_still_resolves() {
        // 1 Mbps over 1 us = 1 bit: must not vanish to zero.
        let tr = TokenRate::from_bit_rate(BitRate::from_mbps(1));
        let t = tr.accrued(Nanos::from_micros(1));
        assert!(t > Tokens::ZERO);
        assert_eq!(t.raw() >> FRAC_BITS, 1);
    }
}
