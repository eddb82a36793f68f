//! Clock abstraction: virtual simulation time and wall-clock time.
//!
//! The FlowValve scheduling tree is timestamp-driven (token refill intervals
//! are computed from "now minus last update"). By programming against
//! [`Clock`], the identical scheduling code runs inside the discrete-event
//! simulator (where *the simulator* advances time) and on real OS threads
//! (where the hardware clock advances time), which is how we exercise true
//! multi-core parallelism without SmartNIC hardware.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::time::Nanos;

/// A monotonic nanosecond clock.
///
/// Implementations must be cheap to query and monotonically non-decreasing.
///
/// # Example
///
/// ```
/// use sim_core::clock::{Clock, VirtualClock};
/// use sim_core::time::Nanos;
///
/// let clock = VirtualClock::new();
/// assert_eq!(clock.now(), Nanos::ZERO);
/// clock.advance_to(Nanos::from_micros(7));
/// assert_eq!(clock.now(), Nanos::from_micros(7));
/// ```
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Nanos;
}

/// A simulation-controlled clock.
///
/// The discrete-event loop advances this clock to each event's timestamp
/// before dispatching it. The clock is atomic so worker models running on the
/// simulated data plane can read it without coordination, matching how NFP
/// micro-engines read the free-running timestamp CSR.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock to `t`.
    ///
    /// Calls with `t` earlier than the current time are ignored rather than
    /// moving time backwards, so concurrent advancement is safe.
    pub fn advance_to(&self, t: Nanos) {
        self.now_ns.fetch_max(t.as_nanos(), Ordering::Release);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Nanos {
        Nanos::from_nanos(self.now_ns.load(Ordering::Acquire))
    }
}

/// A wall-clock backed by [`std::time::Instant`], anchored at construction.
///
/// Used by the benchmark's `wallclock_2t` workload so the same token-bucket
/// code that runs under virtual time is measured under real time.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Creates a wall clock whose zero is "now".
    pub fn new() -> Self {
        WallClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Nanos {
        Nanos::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_starts_at_zero() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Nanos::ZERO);
    }

    #[test]
    fn virtual_clock_advances_monotonically() {
        let c = VirtualClock::new();
        c.advance_to(Nanos::from_nanos(10));
        c.advance_to(Nanos::from_nanos(5)); // ignored: would move backwards
        assert_eq!(c.now(), Nanos::from_nanos(10));
        c.advance_to(Nanos::from_nanos(20));
        assert_eq!(c.now(), Nanos::from_nanos(20));
    }

    #[test]
    fn wall_clock_monotone() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn clock_is_object_safe() {
        let c: Box<dyn Clock> = Box::new(VirtualClock::new());
        assert_eq!(c.now(), Nanos::ZERO);
    }
}
