//! Fault-injection hook points: the one interface every injected fault
//! goes through.
//!
//! The fv-chaos subsystem perturbs the simulation through this trait: the
//! NIC, worker pool, traffic manager and lock table each consult an
//! installed [`FaultInjector`] on their hot paths and degrade accordingly,
//! and the FlowValve pipeline, which runs as the NIC's decider, asks the
//! same injector how far its scheduling clock is skewed. Every method takes
//! the *current virtual time* and is expected to be a pure function of it
//! (a fault window `[at, at + dur)` either contains `now` or it does not),
//! which is what makes a faulted run replayable: the same packet arrivals
//! against the same plan observe the same faults.
//!
//! All methods default to "no fault", so a blanket injector only overrides
//! what it perturbs, and a component without an injector pays nothing
//! beyond an `Option` check.

use sim_core::time::Nanos;

/// A traffic-manager fault verdict for one enqueue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TmFault {
    /// No fault: enqueue proceeds normally.
    #[default]
    None,
    /// The serializer is paused: nothing starts on the wire before `until`.
    /// Arrivals still enqueue, so the backlog grows and tail drops follow
    /// naturally once the pause outlasts the buffer.
    Paused {
        /// When the serializer resumes.
        until: Nanos,
    },
    /// The frame is corrupted inside the TM and dropped.
    CorruptDrop,
}

/// Deterministic fault source consulted by the NIC model's components.
///
/// Implementations must answer from the supplied timestamp (plus their own
/// deterministic state), never from wall-clock time or unseeded randomness.
pub trait FaultInjector: std::fmt::Debug + Send + Sync {
    /// Wire rate scale in permille at `now` (1000 = nominal). Values below
    /// 1000 stretch serialization times; values ≤ 0 are clamped to 1 by
    /// the traffic manager.
    fn wire_rate_permille(&self, _now: Nanos) -> u64 {
        1000
    }

    /// Number of micro-engines offline at `now`, and when they return.
    /// Engines `0..n` cannot *start* new work before the returned instant;
    /// work already dispatched runs to completion.
    fn stalled_engines(&self, _now: Nanos) -> Option<(usize, Nanos)> {
        None
    }

    /// Extra instruction cycles charged to every packet processed at `now`
    /// (models firmware slow paths under stress).
    fn extra_cycles(&self, _now: Nanos) -> u64 {
        0
    }

    /// Traffic-manager verdict for a frame offered at `now`.
    fn tm_fault(&self, _now: Nanos) -> TmFault {
        TmFault::None
    }

    /// Lock hold-time scale in permille at `now` (1000 = nominal). Values
    /// above 1000 inflate critical sections, driving up try-lock failures
    /// and blocking waits.
    fn lock_hold_permille(&self, _now: Nanos) -> u64 {
        1000
    }

    /// How far *ahead* of the NIC clock the scheduling function's clock
    /// runs at `now` (the dual-clock-skew fault). Zero means the clocks
    /// agree; the pipeline keeps the skewed clock monotonic, so epochs
    /// never rewind when a skew window clears.
    fn sched_clock_skew(&self, _now: Nanos) -> Nanos {
        Nanos::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Noop;
    impl FaultInjector for Noop {}

    #[test]
    fn defaults_are_neutral() {
        let f = Noop;
        let t = Nanos::from_micros(5);
        assert_eq!(f.wire_rate_permille(t), 1000);
        assert_eq!(f.stalled_engines(t), None);
        assert_eq!(f.extra_cycles(t), 0);
        assert_eq!(f.tm_fault(t), TmFault::None);
        assert_eq!(f.lock_hold_permille(t), 1000);
        assert_eq!(f.sched_clock_skew(t), Nanos::ZERO);
    }
}
