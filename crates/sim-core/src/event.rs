//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] is a time-ordered priority queue with a stable tiebreak:
//! events scheduled for the same instant pop in the order they were pushed.
//! Determinism matters here — every experiment in the benchmark harness is
//! reproducible row-for-row given a seed, and an unstable heap order would
//! silently break that.
//!
//! The queue is `std`'s binary heap over `(time, sequence number)` plus a
//! FIFO *run* beside it. [`EventQueue::schedule_monotone`] is for a stream
//! the caller knows to be in time order, like the closed loop's ACKs (each
//! is a delivery plus a constant delay): such an event is appended to the
//! run in O(1) whenever it is no earlier than the run's last entry, and
//! goes to the heap otherwise. The run is therefore sorted, and `pop`
//! takes the smaller of its head and the heap's top by `(time, sequence
//! number)`, so the pop order is the heap's alone, ties included. On
//! `tcp_closed_loop` this leaves the heap ≈ 17 events where it held ≈ 870
//! (DESIGN.md §4).

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, VecDeque};

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
///
/// A stream in time order can skip the heap and still pop in place:
///
/// ```
/// use sim_core::event::EventQueue;
/// use sim_core::time::Nanos;
///
/// let mut q = EventQueue::new();
/// q.schedule_monotone(Nanos::from_nanos(10), "ack 1");
/// q.schedule_monotone(Nanos::from_nanos(30), "ack 2");
/// q.schedule(Nanos::from_nanos(20), "timer");
/// // Earlier than the run's last entry: it takes the heap, exactly.
/// q.schedule_monotone(Nanos::from_nanos(25), "late ack");
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["ack 1", "timer", "late ack", "ack 2"]);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    /// Entries of [`EventQueue::schedule_monotone`], sorted by `(time,
    /// seq)`: each was appended at or after the time of the one before.
    run: VecDeque<Scheduled<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacities(0, 0)
    }

    /// Creates an empty queue with room for `cap` events in its heap.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacities(cap, 0)
    }

    /// Creates an empty queue with room for `heap` events scheduled by
    /// [`schedule`](Self::schedule) and `run` by
    /// [`schedule_monotone`](Self::schedule_monotone).
    pub fn with_capacities(heap: usize, run: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(heap),
            run: VecDeque::with_capacity(run),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events at equal times fire in insertion order.
    pub fn schedule(&mut self, time: Nanos, event: E) {
        let entry = self.entry(time, event);
        self.heap.push(entry);
    }

    /// Schedules `event` to fire at `time`, for a stream whose times never
    /// decrease. It pops exactly as [`schedule`](Self::schedule)'s would;
    /// the stream's order only makes it cheaper. An event no earlier than
    /// the last one still pending from this entry point is appended to the
    /// FIFO run in O(1), an earlier one goes to the heap.
    pub fn schedule_monotone(&mut self, time: Nanos, event: E) {
        let entry = self.entry(time, event);
        match self.run.back() {
            Some(last) if time < last.time => self.heap.push(entry),
            _ => self.run.push_back(entry),
        }
    }

    fn entry(&mut self, time: Nanos, event: E) -> Scheduled<E> {
        let seq = self.seq;
        self.seq += 1;
        Scheduled { time, seq, event }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let from_run = match (self.run.front(), self.heap.peek()) {
            (Some(r), Some(h)) => (r.time, r.seq) < (h.time, h.seq),
            (run, _) => run.is_some(),
        };
        let s = if from_run {
            self.run.pop_front()
        } else {
            self.heap.pop()
        }?;
        Some((s.time, s.event))
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

    /// Pops everything left, recording each pop as `(time, event)`.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(u64, E)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, e)| (t.as_nanos(), e))
            .collect()
    }

    #[test]
    fn a_nondecreasing_stream_never_touches_the_heap() {
        // Equal times and pops that sometimes empty the run included.
        let mut q = EventQueue::new();
        let (mut t, mut popped) = (0, Vec::new());
        for i in 0..1_000u64 {
            t += i % 3;
            q.schedule_monotone(Nanos::from_nanos(t), i);
            if i % 4 == 3 {
                popped.extend(q.pop().map(|(_, e)| e));
                popped.extend(q.pop().map(|(_, e)| e));
            }
            assert!(q.heap.is_empty(), "entry {i} took the heap");
        }
        assert_eq!(q.run.len(), 500);
        popped.extend(drain(&mut q).into_iter().map(|(_, e)| e));
        assert_eq!(popped, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn a_backward_step_lands_in_the_heap_and_pops_in_place() {
        let mut q = EventQueue::new();
        for t in [10, 20, 30] {
            q.schedule_monotone(Nanos::from_nanos(t), t);
        }
        q.schedule_monotone(Nanos::from_nanos(15), 15);
        assert_eq!((q.run.len(), q.heap.len()), (3, 1));
        // Back at the run's last time: the run again.
        q.schedule_monotone(Nanos::from_nanos(30), 31);
        assert_eq!((q.run.len(), q.heap.len()), (4, 1));
        assert_eq!(
            drain(&mut q),
            [(10, 10), (15, 15), (20, 20), (30, 30), (30, 31)]
        );
    }

    #[test]
    fn a_run_entry_and_a_heap_entry_at_one_time_pop_in_insertion_order() {
        let at = Nanos::from_nanos(5);
        let mut q = EventQueue::new();
        q.schedule(at, "heap 1");
        q.schedule_monotone(at, "run 1");
        q.schedule(at, "heap 2");
        q.schedule_monotone(at, "run 2");
        q.schedule_monotone(at, "run 3");
        q.schedule(at, "heap 3");
        assert_eq!((q.run.len(), q.heap.len()), (3, 3));
        let order: Vec<_> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(
            order,
            ["heap 1", "run 1", "heap 2", "run 2", "run 3", "heap 3"]
        );
    }
}
