//! A periodic virtual-time tick source for samplers.
//!
//! Discrete-event simulations have no "timer interrupt": time only moves
//! when an event fires. Anything that wants to act *periodically* — like
//! fv-scope's time-series sampler — must be advanced from the event loop.
//! [`Ticker`] owns that bookkeeping: tell it how far time has moved and it
//! yields every interval boundary that was crossed, in order, exactly once.
//!
//! Ticks fire at the *end* of each interval (`interval`, `2*interval`, …),
//! so a consumer sampling counter deltas on each tick sees the amount
//! accumulated over the whole covered interval.

use crate::time::Nanos;

/// Yields each multiple of `interval` as time advances past it.
///
/// # Example
///
/// ```
/// use sim_core::tick::Ticker;
/// use sim_core::time::Nanos;
///
/// let mut ticker = Ticker::new(Nanos::from_micros(10));
/// // Nothing due before the first boundary.
/// assert_eq!(ticker.due(Nanos::from_micros(9)).count(), 0);
/// // Advancing to 25 us crosses the 10 us and 20 us boundaries.
/// let fired: Vec<Nanos> = ticker.due(Nanos::from_micros(25)).collect();
/// assert_eq!(fired, [Nanos::from_micros(10), Nanos::from_micros(20)]);
/// // Each boundary fires exactly once.
/// assert_eq!(ticker.due(Nanos::from_micros(25)).count(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Ticker {
    interval: Nanos,
    next: Nanos,
}

impl Ticker {
    /// Creates a ticker whose first tick is at `interval`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(interval: Nanos) -> Ticker {
        assert!(interval > Nanos::ZERO, "tick interval must be positive");
        Ticker {
            interval,
            next: interval,
        }
    }

    /// The next boundary that will fire.
    pub fn next_tick(&self) -> Nanos {
        self.next
    }

    /// Iterates over every boundary `<= now` not yet yielded, oldest
    /// first, consuming them. A boundary exactly at `now` fires (the
    /// interval it closes is complete).
    pub fn due(&mut self, now: Nanos) -> Due<'_> {
        Due { ticker: self, now }
    }
}

/// Iterator over due tick boundaries; see [`Ticker::due`].
#[derive(Debug)]
pub struct Due<'a> {
    ticker: &'a mut Ticker,
    now: Nanos,
}

impl Iterator for Due<'_> {
    type Item = Nanos;

    fn next(&mut self) -> Option<Nanos> {
        if self.ticker.next > self.now {
            return None;
        }
        let fired = self.ticker.next;
        self.ticker.next = fired + self.ticker.interval;
        Some(fired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_fire_once_in_order() {
        let mut t = Ticker::new(Nanos::from_nanos(100));
        assert_eq!(t.next_tick(), Nanos::from_nanos(100));
        let fired: Vec<u64> = t
            .due(Nanos::from_nanos(350))
            .map(|n| n.as_nanos())
            .collect();
        assert_eq!(fired, [100, 200, 300]);
        assert_eq!(t.due(Nanos::from_nanos(350)).count(), 0);
        assert_eq!(t.next_tick(), Nanos::from_nanos(400));
    }

    #[test]
    fn boundary_exactly_at_now_fires() {
        let mut t = Ticker::new(Nanos::from_nanos(100));
        assert_eq!(
            t.due(Nanos::from_nanos(100)).collect::<Vec<_>>(),
            [Nanos::from_nanos(100)]
        );
    }

    #[test]
    fn time_standing_still_yields_nothing() {
        let mut t = Ticker::new(Nanos::from_nanos(100));
        assert_eq!(t.due(Nanos::from_nanos(250)).count(), 2);
        assert_eq!(t.due(Nanos::from_nanos(250)).count(), 0);
        assert_eq!(t.due(Nanos::from_nanos(299)).count(), 0);
    }

    #[test]
    fn partial_consumption_resumes() {
        let mut t = Ticker::new(Nanos::from_nanos(10));
        let first = t.due(Nanos::from_nanos(50)).next();
        assert_eq!(first, Some(Nanos::from_nanos(10)));
        // Dropping the iterator mid-way loses nothing.
        let rest: Vec<u64> = t.due(Nanos::from_nanos(50)).map(|n| n.as_nanos()).collect();
        assert_eq!(rest, [20, 30, 40, 50]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = Ticker::new(Nanos::ZERO);
    }
}
