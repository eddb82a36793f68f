//! The one overwrite-oldest ring, and the trace events it carries.
//!
//! A [`Ring`] keeps the newest `capacity` records it is offered, whatever
//! their type: the registry's [`EventRing`] holds [`TraceEvent`]s — the
//! scheduler's verdicts, token-bucket refills, tail drops, fault windows,
//! each stamped with a [`Nanos`] timestamp from whichever clock (virtual
//! or wall) drives the caller — and `fv_audit`'s provenance ring holds
//! decision records. A writer takes a ticket with one relaxed `fetch_add`
//! and *tries* the lock of the slot the ticket names; if another thread
//! holds it the record is dropped, as a core of the paper's Algorithm 1
//! moves on from a class lock it cannot take, so recording never blocks
//! the data path. A reader asks for tickets and skips a slot that holds
//! any other, so it sees whole records in the order they were written.
//!
//! The ring keeps what it is offered. Which events are offered is decided
//! by kind: the ones about a single packet — the three `Sched*` verdicts,
//! `RxDrop`, `TailDrop` and the five spans — reach it through
//! [`SpanRecorder`](crate::span::SpanRecorder) (or behind the registry's
//! [`Sampler`](crate::Sampler)) for sampled packets only, so a packet's
//! events are all here or all absent; `TokenRefill`, `ShadowRefill`,
//! `FaultInject` and `FaultClear` are not about one packet and are
//! recorded every time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, TryLockError};

use sim_core::time::Nanos;

/// What happened. The two payload words `a`/`b` are event-specific
/// (typically a class id, queue index or duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Scheduler verdict: packet passed on its own guarantee. `a` = class.
    SchedForward,
    /// Scheduler verdict: passed by borrowing. `a` = class, `b` = lender.
    SchedBorrow,
    /// Scheduler verdict: early drop. `a` = class.
    SchedDrop,
    /// Token-bucket refill during a class update. `a` = class, `b` = bits.
    TokenRefill,
    /// Shadow-bucket refresh. `a` = class.
    ShadowRefill,
    /// Tail drop at a queue. `a` = queue index (0 at the NIC's single
    /// transmit FIFO), `b` = packet id.
    TailDrop,
    /// Packet dropped before scheduling (dispatch overload). `a` = packet
    /// id, `b` = VF.
    RxDrop,
    /// Span: ingress dispatch wait (arrival to worker start).
    /// For every span kind `at` = span start, `a` = packet id, `b` =
    /// duration in nanoseconds.
    SpanIngress,
    /// Span: labeling function (flow classification).
    SpanClassify,
    /// Span: scheduling function (token grab / verdict).
    SpanSched,
    /// Span: wait in the traffic-manager FIFO before serialization.
    SpanTmQueue,
    /// Span: serialization onto the wire.
    SpanWire,
    /// A fault window opened (fv-chaos). `a` = fault kind code, `b` =
    /// fault index within the plan.
    FaultInject,
    /// A fault window closed (fv-chaos). `a` = fault kind code, `b` =
    /// fault index within the plan.
    FaultClear,
}

impl TraceKind {
    /// Stable lowercase name, used in JSON exports.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::SchedForward => "sched_forward",
            TraceKind::SchedBorrow => "sched_borrow",
            TraceKind::SchedDrop => "sched_drop",
            TraceKind::TokenRefill => "token_refill",
            TraceKind::ShadowRefill => "shadow_refill",
            TraceKind::TailDrop => "tail_drop",
            TraceKind::RxDrop => "rx_drop",
            TraceKind::SpanIngress => "span_ingress",
            TraceKind::SpanClassify => "span_classify",
            TraceKind::SpanSched => "span_sched",
            TraceKind::SpanTmQueue => "span_tm_queue",
            TraceKind::SpanWire => "span_wire",
            TraceKind::FaultInject => "fault_inject",
            TraceKind::FaultClear => "fault_clear",
        }
    }

    /// Whether this kind is a stage span (`at` = start, `a` = packet id,
    /// `b` = duration in nanoseconds).
    pub fn is_span(&self) -> bool {
        matches!(
            self,
            TraceKind::SpanIngress
                | TraceKind::SpanClassify
                | TraceKind::SpanSched
                | TraceKind::SpanTmQueue
                | TraceKind::SpanWire
        )
    }
}

/// One traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it happened (virtual or wall nanoseconds).
    pub at: Nanos,
    /// What happened.
    pub kind: TraceKind,
    /// First payload word (see [`TraceKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// A bounded multi-producer buffer that keeps the newest `capacity`
/// records it is offered.
///
/// It has no switch and no sampler of its own: a component writes to a
/// ring only once a caller attached one to it.
pub struct Ring<T> {
    /// Slot `ticket & (len - 1)` holds the record written under `ticket`.
    slots: Box<[Stamped<T>]>,
    /// The next ticket. Relaxed: it publishes nothing; a slot's mutex orders
    /// the record in it, and a reader checks the ticket stored beside it.
    head: AtomicU64,
}

/// A slot of a [`Ring`]: the last record written to it, with its ticket.
type Stamped<T> = Mutex<Option<(u64, T)>>;

impl<T> Ring<T> {
    /// A ring of `capacity` slots (rounded up to a power of two, minimum
    /// 8).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records offered since creation (not capped at capacity).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Writes `record` over the oldest one, or drops it if another thread
    /// holds its slot: a write never blocks. A slot whose lock a panicking
    /// thread poisoned is written all the same: every write is one
    /// assignment, so the slot holds a whole record whatever panicked.
    #[inline]
    pub fn push(&self, record: T) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let mut slot = match self.slot(ticket).try_lock() {
            Ok(slot) => slot,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        *slot = Some((ticket, record));
    }

    fn slot(&self, ticket: u64) -> &Stamped<T> {
        &self.slots[ticket as usize & (self.slots.len() - 1)]
    }
}

impl<T: Clone> Ring<T> {
    /// Up to `max` of the newest records, oldest first. A slot that holds
    /// another ticket than the one asked for — overwritten by a later lap,
    /// or never written because its record was dropped — is skipped.
    pub fn recent(&self, max: usize) -> Vec<T> {
        let head = self.recorded();
        let take = (max.min(self.capacity()) as u64).min(head);
        (head - take..head)
            .filter_map(|ticket| self.read(ticket, |_| true))
            .collect()
    }

    /// The newest resident record `pred` accepts. Scans newest-first and
    /// clones only the record it returns.
    pub fn newest(&self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let head = self.recorded();
        let oldest = head.saturating_sub(self.capacity() as u64);
        (oldest..head)
            .rev()
            .find_map(|ticket| self.read(ticket, &mut pred))
    }

    /// The record written under `ticket`, if its slot still holds it and
    /// `pred` accepts it.
    fn read(&self, ticket: u64, pred: impl FnOnce(&T) -> bool) -> Option<T> {
        let slot = self
            .slot(ticket)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match &*slot {
            Some((written, record)) if *written == ticket && pred(record) => Some(record.clone()),
            _ => None,
        }
    }
}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

/// The registry's trace ring.
pub type EventRing = Ring<TraceEvent>;

impl EventRing {
    /// Records one event.
    #[inline]
    pub fn record(&self, at: Nanos, kind: TraceKind, a: u64, b: u64) {
        self.push(TraceEvent { at, kind, a, b });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_reads_in_order() {
        let ring = EventRing::new(16);
        for i in 0..5u64 {
            ring.record(Nanos::from_nanos(i), TraceKind::SchedForward, i, 0);
        }
        let events = ring.recent(16);
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].a, 0);
        assert_eq!(events[4].a, 4);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let ring = EventRing::new(8);
        for i in 0..20u64 {
            ring.record(Nanos::from_nanos(i), TraceKind::TailDrop, i, 0);
        }
        let events = ring.recent(100);
        assert_eq!(events.len(), 8);
        assert_eq!(events.first().map(|e| e.a), Some(12));
        assert_eq!(events.last().map(|e| e.a), Some(19));
        assert_eq!(ring.recorded(), 20);
    }

    #[test]
    fn recent_caps_at_max() {
        let ring = EventRing::new(8);
        for i in 0..8u64 {
            ring.record(Nanos::from_nanos(i), TraceKind::TokenRefill, 0, i);
        }
        assert_eq!(ring.recent(3).len(), 3);
        assert_eq!(ring.recent(3)[0].b, 5);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_kinds() {
        // Writer `t`'s `i`-th event carries `t` in `a` and in the top half
        // of `b`, `i` in `at` and in the bottom half: a record assembled
        // from two writes disagrees with itself somewhere.
        const WRITERS: u64 = 4;
        const EACH: u64 = 10_000;
        let ring = EventRing::new(64);
        std::thread::scope(|s| {
            for t in 0..WRITERS {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..EACH {
                        ring.record(
                            Nanos::from_nanos(i),
                            TraceKind::SchedForward,
                            t,
                            t << 32 | i,
                        );
                    }
                });
            }
            for _ in 0..100 {
                // A reader racing the writers: every surfaced event is one
                // whole write, and one writer's events surface in the order
                // it wrote them.
                let mut last = [None; WRITERS as usize];
                for e in ring.recent(64) {
                    assert_eq!(e.kind, TraceKind::SchedForward);
                    assert!(e.a < WRITERS, "torn record {e:?}");
                    assert_eq!(e.b >> 32, e.a, "torn record {e:?}");
                    let i = e.b & 0xffff_ffff;
                    assert_eq!(e.at.as_nanos(), i, "torn record {e:?}");
                    let before = last[e.a as usize].replace(i);
                    assert!(before < Some(i), "writer {}: {i} after {before:?}", e.a);
                }
            }
        });
        assert_eq!(ring.recorded(), WRITERS * EACH);
    }

    #[test]
    fn a_poisoned_slot_is_read_and_written_without_a_panic() {
        /// A record whose clone panics, poisoning the slot lock its reader
        /// holds.
        #[derive(Debug, PartialEq)]
        struct Fragile(u64);
        impl Clone for Fragile {
            fn clone(&self) -> Self {
                assert_ne!(self.0, 0, "cloned the fragile record");
                Fragile(self.0)
            }
        }
        let ring = Ring::new(8);
        ring.push(Fragile(0));
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ring.recent(1)));
        assert!(read.is_err());
        for i in 1..=8 {
            ring.push(Fragile(i));
        }
        assert_eq!(ring.recent(1), [Fragile(8)]);
        assert_eq!(ring.newest(|r| r.0 < 5), Some(Fragile(4)));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(EventRing::new(0).capacity(), 8);
        assert_eq!(EventRing::new(100).capacity(), 128);
    }

    #[test]
    fn span_kinds_roundtrip_through_the_ring() {
        let ring = EventRing::new(16);
        let kinds = [
            TraceKind::SpanIngress,
            TraceKind::SpanClassify,
            TraceKind::SpanSched,
            TraceKind::SpanTmQueue,
            TraceKind::SpanWire,
        ];
        for (i, k) in kinds.iter().enumerate() {
            assert!(k.is_span());
            assert!(k.name().starts_with("span_"));
            ring.record(Nanos::from_nanos(i as u64), *k, 42, 100 + i as u64);
        }
        assert!(!TraceKind::TokenRefill.is_span());
        let events = ring.recent(16);
        assert_eq!(events.len(), kinds.len());
        for (e, k) in events.iter().zip(kinds) {
            assert_eq!(e.kind, k);
            assert_eq!(e.a, 42);
        }
    }
}
