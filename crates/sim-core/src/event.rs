//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] is a time-ordered priority queue with a stable tiebreak:
//! events scheduled for the same instant pop in the order they were pushed.
//! Determinism matters here — every experiment in the benchmark harness is
//! reproducible row-for-row given a seed, and an unstable heap order would
//! silently break that.
//!
//! The queue is `std`'s binary heap over `(time, sequence number)`: on the
//! one workload that runs on it (`tcp_closed_loop`, ≈ 1 K pending events)
//! a radix calendar could not be told apart from it (DESIGN.md §7).

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// An entry in the queue; ordered by `(time, seq)` ascending.
#[derive(Debug)]
struct Scheduled<E> {
    time: Nanos,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed so the BinaryHeap (a max-heap) pops the earliest entry.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// # Example
///
/// ```
/// use sim_core::event::EventQueue;
/// use sim_core::time::Nanos;
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { PacketArrival(u64), TimerFire }
///
/// let mut q = EventQueue::new();
/// q.schedule(Nanos::from_nanos(200), Ev::TimerFire);
/// q.schedule(Nanos::from_nanos(100), Ev::PacketArrival(1));
/// q.schedule(Nanos::from_nanos(100), Ev::PacketArrival(2));
///
/// assert_eq!(q.pop(), Some((Nanos::from_nanos(100), Ev::PacketArrival(1))));
/// assert_eq!(q.pop(), Some((Nanos::from_nanos(100), Ev::PacketArrival(2))));
/// assert_eq!(q.pop(), Some((Nanos::from_nanos(200), Ev::TimerFire)));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events at equal times fire in insertion order.
    pub fn schedule(&mut self, time: Nanos, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let s = self.heap.pop()?;
        Some((s.time, s.event))
    }

    /// Whether the queue holds no pending events.
    #[cfg(test)] // staged: only its test calls it (DESIGN.md §17)
    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event.
    #[cfg(test)] // staged: only its test calls it (DESIGN.md §17)
    fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Extend<(Nanos, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (Nanos, E)>>(&mut self, iter: I) {
        for (t, e) in iter {
            self.schedule(t, e);
        }
    }
}

impl<E> FromIterator<(Nanos, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (Nanos, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(30), "c");
        q.schedule(Nanos::from_nanos(10), "a");
        q.schedule(Nanos::from_nanos(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(Nanos::from_nanos(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut q: EventQueue<u8> = vec![(Nanos::from_nanos(2), 2u8), (Nanos::from_nanos(1), 1u8)]
            .into_iter()
            .collect();
        q.extend([(Nanos::from_nanos(3), 3u8)]);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::ZERO, ());
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_rewinds_calendar_epoch() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(1_000_000), 1u64);
        q.pop();
        q.clear();
        // A fresh run may start before the previous run's last timestamp.
        q.schedule(Nanos::from_nanos(7), 2u64);
        assert_eq!(q.pop(), Some((Nanos::from_nanos(7), 2)));
    }

    #[test]
    fn push_between_last_popped_and_pending_min() {
        // Scheduling later than the last pop but *earlier* than everything
        // pending is legal and must pop first.
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(10), 1u64);
        q.schedule(Nanos::from_nanos(50), 2u64);
        assert_eq!(q.pop(), Some((Nanos::from_nanos(10), 1)));
        q.schedule(Nanos::from_nanos(20), 3u64);
        assert_eq!(q.pop(), Some((Nanos::from_nanos(20), 3)));
        assert_eq!(q.pop(), Some((Nanos::from_nanos(50), 2)));
    }

    #[test]
    fn interleaved_monotonic_schedule_and_pop() {
        // A self-clocking pattern like the NIC model: each pop schedules
        // two follow-ups slightly in the future.
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(1), 0);
        let mut expect_time = Nanos::ZERO;
        let mut popped = 0u64;
        while let Some((t, v)) = q.pop() {
            assert!(t >= expect_time, "time went backwards");
            expect_time = t;
            popped += 1;
            if popped < 500 {
                q.schedule(t + Nanos::from_nanos(v % 7), popped * 2);
                q.schedule(t + Nanos::from_nanos(13 + v % 11), popped * 2 + 1);
            }
        }
        assert_eq!(popped, 999);
    }
}
