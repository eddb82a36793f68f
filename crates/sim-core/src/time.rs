//! Simulation time in integer nanoseconds and processor cycles.
//!
//! All simulation timing in the workspace uses [`Nanos`], an unsigned
//! 64-bit nanosecond count since simulation start (enough for ~584 years).
//! Processor work is expressed in [`Cycles`] and converted through an
//! explicit [`Freq`], mirroring the paper's cycle-denominated token rates
//! (Equation 2: θ = b / f).

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in nanoseconds.
///
/// `Nanos` is deliberately a thin newtype over `u64` so it is free to copy
/// and trivially ordered. Arithmetic is checked in debug builds via the
/// underlying integer semantics; subtraction panics on underflow, which in a
/// simulation always indicates a causality bug worth catching loudly.
///
/// # Example
///
/// ```
/// use sim_core::time::Nanos;
///
/// let t = Nanos::from_micros(3) + Nanos::from_nanos(500);
/// assert_eq!(t.as_nanos(), 3_500);
/// assert!(t < Nanos::from_millis(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero instant (simulation start).
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction: returns [`Nanos::ZERO`] instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

/// Plain integer subtraction: an underflow panics in debug builds and
/// *wraps* in release builds. A caller whose operands can be out of order
/// uses [`Nanos::saturating_sub`].
impl Sub for Nanos {
    type Output = Nanos;
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// A processor frequency in hertz.
///
/// # Example
///
/// ```
/// use sim_core::time::{Cycles, Freq, Nanos};
///
/// let f = Freq::from_mhz(1_200); // the paper's 1.2 GHz micro-engine clock
/// assert_eq!(f.cycles_in(Nanos::from_micros(1)), Cycles::new(1_200));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Freq(u64);

impl Freq {
    /// Creates a frequency from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero; a zero-frequency processor cannot make progress.
    pub fn from_hz(hz: u64) -> Self {
        assert!(hz > 0, "frequency must be positive");
        Freq(hz)
    }

    /// Creates a frequency from megahertz.
    pub fn from_mhz(mhz: u64) -> Self {
        Self::from_hz(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz (fractional allowed).
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not finite and positive.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be positive");
        Self::from_hz((ghz * 1e9).round() as u64)
    }

    /// Frequency in hertz.
    #[inline]
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// The duration of `cycles` at this frequency, rounded to the nearest
    /// nanosecond (with a 1 ns floor for non-zero cycle counts so work is
    /// never free).
    pub fn duration_of(self, cycles: Cycles) -> Nanos {
        if cycles.0 == 0 {
            return Nanos::ZERO;
        }
        let ns = (cycles.0 as u128 * 1_000_000_000u128 + self.0 as u128 / 2) / self.0 as u128;
        Nanos::from_nanos((ns as u64).max(1))
    }

    /// How many whole cycles elapse in `dt` at this frequency.
    pub fn cycles_in(self, dt: Nanos) -> Cycles {
        Cycles::new((dt.as_nanos() as u128 * self.0 as u128 / 1_000_000_000u128) as u64)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}GHz", self.0 as f64 / 1e9)
        } else {
            write!(f, "{:.1}MHz", self.0 as f64 / 1e6)
        }
    }
}

/// A count of processor cycles.
///
/// # Example
///
/// ```
/// use sim_core::time::Cycles;
///
/// let c = Cycles::new(100) + Cycles::new(20);
/// assert_eq!(c.get(), 120);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[inline]
    pub const fn new(c: u64) -> Self {
        Cycles(c)
    }

    /// Raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanos_constructors_agree() {
        assert_eq!(Nanos::from_millis(1), Nanos::from_micros(1_000));
        assert_eq!(Nanos::from_micros(1), Nanos::from_nanos(1_000));
    }

    #[test]
    fn nanos_arithmetic() {
        let a = Nanos::from_nanos(100);
        let b = Nanos::from_nanos(40);
        assert_eq!(a + b, Nanos::from_nanos(140));
        assert_eq!(a - b, Nanos::from_nanos(60));
        assert_eq!(a * 3, Nanos::from_nanos(300));
        assert_eq!(a / 4, Nanos::from_nanos(25));
        assert_eq!(b.saturating_sub(a), Nanos::ZERO);
    }

    // Release builds have no overflow checks: there the subtraction wraps.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic]
    fn nanos_sub_underflow_panics() {
        let _ = Nanos::from_nanos(1) - Nanos::from_nanos(2);
    }

    #[test]
    fn nanos_display_scales() {
        assert_eq!(Nanos::from_nanos(5).to_string(), "5ns");
        assert_eq!(Nanos::from_micros(5).to_string(), "5.000us");
        assert_eq!(Nanos::from_millis(5).to_string(), "5.000ms");
        assert_eq!(Nanos::from_millis(5_000).to_string(), "5.000s");
    }

    #[test]
    fn freq_cycle_conversions_roundtrip() {
        let f = Freq::from_ghz(1.2);
        // 1200 cycles at 1.2 GHz == 1 us.
        assert_eq!(f.duration_of(Cycles::new(1_200)), Nanos::from_micros(1));
        assert_eq!(f.cycles_in(Nanos::from_micros(1)), Cycles::new(1_200));
    }

    #[test]
    fn freq_duration_has_one_ns_floor() {
        let f = Freq::from_ghz(2.0);
        // A single cycle at 2 GHz is 0.5 ns; we floor to 1 ns so work is never free.
        assert_eq!(f.duration_of(Cycles::new(1)), Nanos::from_nanos(1));
        assert_eq!(f.duration_of(Cycles::ZERO), Nanos::ZERO);
    }

    #[test]
    #[should_panic]
    fn freq_zero_rejected() {
        let _ = Freq::from_hz(0);
    }

    #[test]
    fn cycles_sum() {
        let total: Cycles = [Cycles::new(1), Cycles::new(2), Cycles::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Cycles::new(6));
    }

    #[test]
    fn nanos_sum() {
        let total: Nanos = (1..=4).map(Nanos::from_nanos).sum();
        assert_eq!(total, Nanos::from_nanos(10));
    }
}
