//! Deterministic discrete-event queue.
//!
//! [`EventQueue`] is a time-ordered priority queue with a stable tiebreak:
//! events scheduled for the same instant pop in the order they were pushed.
//! Determinism matters here — every experiment in the benchmark harness is
//! reproducible row-for-row given a seed, and an unstable heap order would
//! silently break that.
//!
//! # Backends
//!
//! Two interchangeable backends implement the same `(time, seq)` ordering:
//!
//! * [`QueueBackend::Calendar`] (the default) — a hierarchical radix-bucket
//!   calendar queue that exploits the simulator's *monotonicity*: a
//!   discrete-event loop never schedules an event earlier than the
//!   timestamp it most recently popped. Under that contract, scheduling is
//!   O(1) and each entry migrates through at most 64 buckets over its whole
//!   lifetime, so pops are amortized O(1) — versus the O(log n) sift of a
//!   binary heap whose branchy comparisons dominate the simulator hot loop.
//! * [`QueueBackend::BinaryHeap`] — the original `std::collections`
//!   max-heap, retained as the differential-testing oracle. Property tests
//!   drive both backends with identical randomized schedules and assert
//!   pop-for-pop equality, FIFO ties included.

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

/// Which internal data structure an [`EventQueue`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueBackend {
    /// Radix-bucket calendar queue (amortized O(1) under monotonic use).
    #[default]
    Calendar,
    /// The original binary heap — kept as a differential-testing oracle.
    BinaryHeap,
}

/// Radix buckets above the ready lane: one per possible position of the
/// highest bit in which a pending key differs from the current epoch.
const RADIX_BUCKETS: usize = 64;

/// The calendar backend: a radix heap over `u64` nanosecond keys.
///
/// `epoch` is the timestamp of the most recently popped entry (initially
/// 0). Entries whose key equals the epoch sit in `ready`, a FIFO lane
/// popped from the front; an entry with key `k > epoch` sits in radix
/// bucket `msb(k ^ epoch)` (1-indexed bit position, stored at
/// `buckets[b - 1]`). Bucket key ranges are disjoint and increasing with
/// `b`, so the queue minimum always lives in the ready lane or, failing
/// that, the lowest non-empty bucket.
///
/// Two invariants make this both fast and deterministic:
///
/// * **Monotonicity** — `schedule` never runs with `time < epoch` (debug
///   assertion; release builds clamp to the epoch, degrading a violation
///   to "fires as soon as possible" instead of corrupting the order).
///   The epoch advances only inside [`CalendarQueue::pop`], to the key of
///   the entry being popped, so redistribution only ever moves entries to
///   *strictly lower* buckets: every key spilled from bucket `b` shares
///   bit `b` with the new epoch (the spill's minimum), so their XOR has
///   its top bit below `b`. Each entry therefore migrates at most 64
///   times regardless of queue length — amortized O(1) pops.
/// * **FIFO ties** — the bucket index is a function of only the key and
///   the current epoch, and epoch advances keep stale placements valid
///   (keys in buckets above the spilled one still differ from the new
///   epoch at the same top bit). Equal keys thus always cohabit a single
///   bucket, appended in `seq` order and respilled in iteration order, so
///   same-timestamp events pop in exactly insertion order.
///
/// Two caches keep the per-pop bookkeeping O(1) instead of O(64 + bucket):
///
/// * `bucket_min[b]` is the exact minimum key in `buckets[b]` (`u64::MAX`
///   when empty). It is exact because buckets only ever gain entries one at
///   a time and lose them all at once (the spill), so a running `min` on
///   insert never goes stale. `min`-refresh on pop and the epoch advance in
///   [`CalendarQueue::redistribute`] become array reads rather than scans
///   of the bucket's entries.
/// * `cursor` is a lazy lane-sweep position: every bucket below it is
///   empty. Finding the lowest non-empty bucket resumes from the cursor
///   instead of lane 0; pushes into a lower lane simply pull the cursor
///   back down. Sweep steps are amortized against the pushes that lowered
///   the cursor, so the small-N churn pattern (push one, pop one) no
///   longer pays a 64-lane header walk per pop.
///
/// `min` caches the earliest pending timestamp overall so
/// [`peek_time`] stays a borrow-only O(1) read.
///
/// [`peek_time`]: CalendarQueue::peek_time
#[derive(Debug)]
struct CalendarQueue<E> {
    ready: VecDeque<Scheduled<E>>,
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Exact minimum key per bucket; `u64::MAX` for empty buckets.
    bucket_min: [u64; RADIX_BUCKETS],
    /// Lane-sweep cursor: `buckets[i]` is empty for all `i < cursor`.
    cursor: usize,
    /// Timestamp of the most recently popped entry.
    epoch: u64,
    /// Cached earliest pending timestamp; `None` iff the queue is empty.
    min: Option<Nanos>,
    /// Pending entries in `buckets` (excludes `ready`).
    deferred: usize,
    /// Recycled spill buffer: [`CalendarQueue::redistribute`] swaps this
    /// with the bucket it drains, so the steady churn pattern (every pop
    /// spills a small bucket) reuses one allocation instead of paying a
    /// malloc/free per spill.
    scratch: Vec<Scheduled<E>>,
}

impl<E> CalendarQueue<E> {
    fn with_capacity(cap: usize) -> Self {
        CalendarQueue {
            ready: VecDeque::with_capacity(cap),
            buckets: (0..RADIX_BUCKETS).map(|_| Vec::new()).collect(),
            bucket_min: [u64::MAX; RADIX_BUCKETS],
            cursor: 0,
            epoch: 0,
            min: None,
            deferred: 0,
            scratch: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.ready.len() + self.deferred
    }

    /// 1-indexed position of the highest bit where `time` differs from the
    /// epoch; 0 means "equal" (the ready lane).
    #[inline]
    fn lane_of(&self, time: u64) -> usize {
        (64 - (time ^ self.epoch).leading_zeros()) as usize
    }

    fn push(&mut self, mut time: Nanos, seq: u64, event: E) {
        debug_assert!(
            time.as_nanos() >= self.epoch,
            "scheduled into the past: {} < epoch {}",
            time.as_nanos(),
            self.epoch
        );
        if time.as_nanos() < self.epoch {
            time = Nanos::from_nanos(self.epoch);
        }
        if self.min.map(|m| time < m).unwrap_or(true) {
            self.min = Some(time);
        }
        let lane = self.lane_of(time.as_nanos());
        if lane == 0 {
            self.ready.push_back(Scheduled { time, seq, event });
        } else {
            self.defer(lane - 1, Scheduled { time, seq, event });
        }
    }

    /// Appends an entry to bucket `b`, maintaining the cached bucket
    /// minimum and pulling the lane-sweep cursor down if needed.
    #[inline]
    fn defer(&mut self, b: usize, s: Scheduled<E>) {
        self.bucket_min[b] = self.bucket_min[b].min(s.time.as_nanos());
        self.buckets[b].push(s);
        self.deferred += 1;
        self.cursor = self.cursor.min(b);
    }

    /// The lowest non-empty bucket, resuming the sweep from the cursor.
    /// Callers must hold `deferred > 0`.
    #[inline]
    fn first_bucket(&mut self) -> usize {
        while self.buckets[self.cursor].is_empty() {
            self.cursor += 1;
        }
        self.cursor
    }

    /// Spills the lowest non-empty bucket into lower lanes, advancing the
    /// epoch to its minimum key (which the caller is about to pop).
    /// Entries matching the new epoch land in `ready` in preserved
    /// insertion order.
    fn redistribute(&mut self) {
        debug_assert!(self.ready.is_empty() && self.deferred > 0);
        let b = self.first_bucket();
        // Swap the bucket with the recycled scratch buffer instead of
        // `mem::take`-ing it: every entry migrates to a *strictly lower*
        // lane, so bucket `b` gains nothing while we drain, and handing
        // its allocation back to `scratch` afterwards means steady-state
        // churn never touches the allocator.
        let mut spill = std::mem::replace(&mut self.buckets[b], std::mem::take(&mut self.scratch));
        self.deferred -= spill.len();
        self.epoch = self.bucket_min[b];
        self.bucket_min[b] = u64::MAX;
        for s in spill.drain(..) {
            let lane = self.lane_of(s.time.as_nanos());
            debug_assert!(lane <= b, "entry failed to migrate downward");
            if lane == 0 {
                self.ready.push_back(s);
            } else {
                self.defer(lane - 1, s);
            }
        }
        self.scratch = spill;
        debug_assert!(!self.ready.is_empty(), "spill minimum must become ready");
    }

    fn pop(&mut self) -> Option<(Nanos, E)> {
        if self.ready.is_empty() {
            if self.deferred == 0 {
                return None;
            }
            self.redistribute();
        }
        let s = self.ready.pop_front().expect("ready lane refilled");
        // Refresh the cached minimum: the remaining ready entries share the
        // epoch key; otherwise the lowest bucket's cached minimum is exact.
        self.min = if !self.ready.is_empty() {
            Some(Nanos::from_nanos(self.epoch))
        } else if self.deferred == 0 {
            None
        } else {
            let b = self.first_bucket();
            Some(Nanos::from_nanos(self.bucket_min[b]))
        };
        Some((s.time, s.event))
    }

    fn peek_time(&self) -> Option<Nanos> {
        self.min
    }

    fn clear(&mut self) {
        self.ready.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.bucket_min = [u64::MAX; RADIX_BUCKETS];
        self.cursor = 0;
        self.epoch = 0;
        self.min = None;
        self.deferred = 0;
    }
}

#[derive(Debug)]
enum Backend<E> {
    // Boxed: the calendar's per-bucket min cache is a 64-entry inline
    // array, and the queue should not bloat every `EventQueue` embedder.
    Calendar(Box<CalendarQueue<E>>),
    Heap(BinaryHeap<Scheduled<E>>),
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
    backend: Backend<E>,
    seq: u64,
    popped: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue on the default (calendar) backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::Calendar)
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            backend: Backend::Calendar(Box::new(CalendarQueue::with_capacity(cap))),
            seq: 0,
            popped: 0,
        }
    }

    /// Creates an empty queue on an explicit backend. The heap backend is
    /// the differential-testing oracle; prefer [`EventQueue::new`].
    pub fn with_backend(backend: QueueBackend) -> Self {
        let backend = match backend {
            QueueBackend::Calendar => Backend::Calendar(Box::new(CalendarQueue::with_capacity(0))),
            QueueBackend::BinaryHeap => Backend::Heap(BinaryHeap::new()),
        };
        EventQueue {
            backend,
            seq: 0,
            popped: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match &self.backend {
            Backend::Calendar(_) => QueueBackend::Calendar,
            Backend::Heap(_) => QueueBackend::BinaryHeap,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events at equal times fire in insertion order. The calendar backend
    /// additionally requires `time` to be no earlier than the timestamp of
    /// the last popped event (simulators are monotonic); violations panic
    /// in debug builds and clamp to that timestamp in release builds.
    pub fn schedule(&mut self, time: Nanos, event: E) {
        let seq = self.seq;
        self.seq += 1;
        match &mut self.backend {
            Backend::Calendar(q) => q.push(time, seq, event),
            Backend::Heap(h) => h.push(Scheduled { time, seq, event }),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let popped = match &mut self.backend {
            Backend::Calendar(q) => q.pop(),
            Backend::Heap(h) => h.pop().map(|s| (s.time, s.event)),
        };
        if popped.is_some() {
            self.popped += 1;
        }
        popped
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Nanos> {
        match &self.backend {
            Backend::Calendar(q) => q.peek_time(),
            Backend::Heap(h) => h.peek().map(|s| s.time),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Calendar(q) => q.len(),
            Backend::Heap(h) => h.len(),
        }
    }

    /// Whether the queue holds no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events dispatched so far (popped).
    pub fn dispatched(&self) -> u64 {
        self.popped
    }

    /// Drops every pending event (and, on the calendar backend, rewinds
    /// the monotonicity epoch so a fresh run may start at time zero).
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Calendar(q) => q.clear(),
            Backend::Heap(h) => h.clear(),
        }
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

    fn both_backends(test: impl Fn(EventQueue<u64>)) {
        test(EventQueue::with_backend(QueueBackend::Calendar));
        test(EventQueue::with_backend(QueueBackend::BinaryHeap));
    }

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
        both_backends(|mut q| {
            for i in 0..100u64 {
                q.schedule(Nanos::from_nanos(5), i);
            }
            let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_nanos(42), ());
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(42)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn dispatched_counts_pops() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::ZERO, 1);
        q.schedule(Nanos::ZERO, 2);
        q.pop();
        assert_eq!(q.dispatched(), 1);
        q.pop();
        q.pop();
        assert_eq!(q.dispatched(), 2);
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
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(50)));
        q.schedule(Nanos::from_nanos(20), 3u64);
        assert_eq!(q.peek_time(), Some(Nanos::from_nanos(20)));
        assert_eq!(q.pop(), Some((Nanos::from_nanos(20), 3)));
        assert_eq!(q.pop(), Some((Nanos::from_nanos(50), 2)));
    }

    #[test]
    fn interleaved_monotonic_schedule_and_pop() {
        both_backends(|mut q| {
            // A self-clocking pattern like the NIC model: each pop schedules
            // two follow-ups slightly in the future.
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
            assert_eq!(q.dispatched(), 999);
        });
    }

    #[test]
    fn calendar_matches_heap_on_mixed_schedule() {
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        // Deterministic pseudo-random times with plenty of collisions.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut now = 0u64;
        for i in 0..2_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = Nanos::from_nanos(now + x % 16);
            cal.schedule(t, i);
            heap.schedule(t, i);
            assert_eq!(cal.peek_time(), heap.peek_time());
            if x.is_multiple_of(3) {
                let (a, b) = (cal.pop(), heap.pop());
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t.as_nanos();
                }
            }
        }
        loop {
            assert_eq!(cal.peek_time(), heap.peek_time());
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn calendar_matches_heap_under_sparse_churn() {
        // The small-N churn regime: ~1024 pending
        // entries with keys packed into a narrow (8 µs) horizon, then
        // steady push-one-pop-one churn. Nearly every pop spills a small
        // bucket, which is exactly the path that recycles the scratch
        // buffer — every pop and peek is checked against the heap oracle.
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut now = 0u64;
        let step = |x: &mut u64| {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x
        };
        for i in 0..1_024u64 {
            let t = Nanos::from_nanos(now + 1 + step(&mut x) % 8_192);
            cal.schedule(t, i);
            heap.schedule(t, i);
        }
        for i in 1_024..9_216u64 {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            now = a.expect("queue holds 1024 entries").0.as_nanos();
            let t = Nanos::from_nanos(now + 1 + step(&mut x) % 8_192);
            cal.schedule(t, i);
            heap.schedule(t, i);
            assert_eq!(cal.peek_time(), heap.peek_time());
            assert_eq!(cal.len(), heap.len());
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn calendar_matches_heap_across_bursty_spills() {
        // Large time jumps land entries in high radix lanes; near-epoch
        // pushes immediately refill low lanes afterwards, forcing the
        // lane-sweep cursor to rewind. Every pop is checked pop-for-pop
        // against the heap oracle.
        let mut cal = EventQueue::with_backend(QueueBackend::Calendar);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut x = 0xdeadbeefcafef00du64;
        let mut now = 0u64;
        for i in 0..3_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mix tiny offsets with jumps spanning up to 2^40 ns.
            let jump = if x.is_multiple_of(5) {
                x % (1u64 << 40)
            } else {
                x % 32
            };
            let t = Nanos::from_nanos(now + jump);
            cal.schedule(t, i);
            heap.schedule(t, i);
            assert_eq!(cal.peek_time(), heap.peek_time());
            if x.is_multiple_of(2) {
                let (a, b) = (cal.pop(), heap.pop());
                assert_eq!(a, b);
                if let Some((t, _)) = a {
                    now = t.as_nanos();
                }
            }
        }
        loop {
            assert_eq!(cal.peek_time(), heap.peek_time());
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.dispatched(), 3_000);
    }
}
