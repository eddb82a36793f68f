//! Clock abstraction for wall-clock time.
//!
//! The FlowValve scheduling tree is timestamp-driven (token refill intervals
//! are computed from "now minus last update"). Inside the discrete-event
//! simulator the caller passes each event's timestamp; on real OS threads
//! the timestamp comes from a [`Clock`], which is how we exercise true
//! multi-core parallelism without SmartNIC hardware.

use std::time::Instant;

use crate::time::Nanos;

/// A monotonic nanosecond clock.
///
/// Implementations must be cheap to query and monotonically non-decreasing.
///
/// # Example
///
/// ```
/// use sim_core::clock::{Clock, WallClock};
///
/// let clock = WallClock::new();
/// let a = clock.now();
/// assert!(clock.now() >= a);
/// ```
pub trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Nanos;
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
    fn wall_clock_monotone() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn clock_is_object_safe() {
        let c: Box<dyn Clock> = Box::new(WallClock::new());
        assert!(c.now() < Nanos::from_millis(60_000));
    }
}
