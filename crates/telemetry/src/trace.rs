//! A fixed-capacity, lock-free event-trace ring.
//!
//! Records the scheduler's individual decisions — forward / borrow / drop
//! verdicts, token-bucket refills, lock waits, tail drops — each stamped
//! with a [`Nanos`] timestamp from whichever clock (virtual or wall) drives
//! the caller. Writers claim a slot with one relaxed `fetch_add` and publish
//! through a per-slot sequence word (a seqlock): readers that race a writer
//! simply skip the torn slot, so tracing never blocks the data path.
//!
//! The ring keeps what it is offered. Which events are offered is decided
//! by kind: the ones about a single packet — the three `Sched*` verdicts,
//! `RxDrop`, `TailDrop` and the five spans — reach it through
//! [`SpanRecorder`](crate::span::SpanRecorder) (or behind the registry's
//! [`Sampler`](crate::Sampler)) for sampled packets only, so a packet's
//! events are all here or all absent; `TokenRefill`, `ShadowRefill`,
//! `LockWait`, `FaultInject` and `FaultClear` are not about one packet and
//! are recorded every time.

use std::sync::atomic::{AtomicU64, Ordering};

use sim_core::time::Nanos;

/// What happened. The two payload words `a`/`b` are event-specific
/// (typically a class id, queue index or duration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// Scheduler verdict: packet passed on its own guarantee. `a` = class.
    SchedForward = 0,
    /// Scheduler verdict: passed by borrowing. `a` = class, `b` = lender.
    SchedBorrow = 1,
    /// Scheduler verdict: early drop. `a` = class.
    SchedDrop = 2,
    /// Token-bucket refill during a class update. `a` = class, `b` = bits.
    TokenRefill = 3,
    /// Shadow-bucket refresh. `a` = class.
    ShadowRefill = 4,
    /// Blocking lock wait. `a` = lock id, `b` = wait in nanoseconds.
    LockWait = 5,
    /// Tail drop at a queue. `a` = queue index (0 at the NIC's single
    /// transmit FIFO), `b` = packet id.
    TailDrop = 6,
    /// Packet dropped before scheduling (dispatch overload). `a` = packet
    /// id, `b` = VF.
    RxDrop = 7,
    /// Span: ingress dispatch wait (arrival to worker start).
    /// For every span kind `at` = span start, `a` = packet id, `b` =
    /// duration in nanoseconds.
    SpanIngress = 8,
    /// Span: labeling function (flow classification).
    SpanClassify = 9,
    /// Span: scheduling function (token grab / verdict).
    SpanSched = 10,
    /// Span: wait in the traffic-manager FIFO before serialization.
    SpanTmQueue = 11,
    /// Span: serialization onto the wire.
    SpanWire = 12,
    /// A fault window opened (fv-chaos). `a` = fault kind code, `b` =
    /// fault index within the plan.
    FaultInject = 13,
    /// A fault window closed (fv-chaos). `a` = fault kind code, `b` =
    /// fault index within the plan.
    FaultClear = 14,
}

impl TraceKind {
    fn from_u64(v: u64) -> Option<TraceKind> {
        Some(match v {
            0 => TraceKind::SchedForward,
            1 => TraceKind::SchedBorrow,
            2 => TraceKind::SchedDrop,
            3 => TraceKind::TokenRefill,
            4 => TraceKind::ShadowRefill,
            5 => TraceKind::LockWait,
            6 => TraceKind::TailDrop,
            7 => TraceKind::RxDrop,
            8 => TraceKind::SpanIngress,
            9 => TraceKind::SpanClassify,
            10 => TraceKind::SpanSched,
            11 => TraceKind::SpanTmQueue,
            12 => TraceKind::SpanWire,
            13 => TraceKind::FaultInject,
            14 => TraceKind::FaultClear,
            _ => return None,
        })
    }

    /// Stable lowercase name, used in JSON exports.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::SchedForward => "sched_forward",
            TraceKind::SchedBorrow => "sched_borrow",
            TraceKind::SchedDrop => "sched_drop",
            TraceKind::TokenRefill => "token_refill",
            TraceKind::ShadowRefill => "shadow_refill",
            TraceKind::LockWait => "lock_wait",
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

struct Slot {
    /// Seqlock word: odd while a writer owns the slot, even when stable.
    seq: AtomicU64,
    at: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            at: AtomicU64::new(0),
            kind: AtomicU64::new(u64::MAX),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// A bounded multi-producer trace buffer that overwrites oldest entries.
///
/// The ring records every event it is offered and keeps the newest
/// `capacity` of them: it has no switch and no sampler of its own (the
/// module docs say which kinds are offered for sampled packets only). A
/// component records here only once a caller attached a registry to it.
pub struct EventRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
}

impl EventRing {
    /// Creates a ring holding `capacity` events (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> EventRing {
        let capacity = capacity.max(8).next_power_of_two();
        EventRing {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded since creation (not capped at capacity).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one event.
    #[inline]
    pub fn record(&self, at: Nanos, kind: TraceKind, a: u64, b: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        // Claim: bump to odd. Writers lapping each other on the same slot is
        // only possible when one writer stalls for a whole ring revolution;
        // the seqlock then yields a torn-but-skipped slot, never a torn read.
        let seq = slot.seq.load(Ordering::Relaxed) | 1;
        slot.seq.store(seq, Ordering::Release);
        slot.at.store(at.as_nanos(), Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(seq.wrapping_add(1), Ordering::Release);
    }

    /// Copies out up to `max` most recent events, oldest first. Slots being
    /// concurrently written are skipped.
    pub fn recent(&self, max: usize) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let len = self.slots.len() as u64;
        let available = head.min(len);
        let take = (max as u64).min(available);
        let mut out = Vec::with_capacity(take as usize);
        for ticket in head - take..head {
            let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
            let before = slot.seq.load(Ordering::Acquire);
            if before & 1 == 1 {
                continue; // mid-write
            }
            let at = slot.at.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != before {
                continue; // torn
            }
            let Some(kind) = TraceKind::from_u64(kind) else {
                continue; // never written
            };
            out.push(TraceEvent {
                at: Nanos::from_nanos(at),
                kind,
                a,
                b,
            });
        }
        out
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.capacity())
            .field("recorded", &self.recorded())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
            ring.record(Nanos::from_nanos(i), TraceKind::LockWait, 0, i);
        }
        assert_eq!(ring.recent(3).len(), 3);
        assert_eq!(ring.recent(3)[0].b, 5);
    }

    #[test]
    fn concurrent_writers_never_produce_torn_kinds() {
        let ring = Arc::new(EventRing::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        ring.record(Nanos::from_nanos(i), TraceKind::SchedForward, t, i);
                    }
                });
            }
            for _ in 0..100 {
                // Readers racing writers: every surfaced event is coherent.
                for e in ring.recent(64) {
                    assert!(e.a < 4);
                    assert_eq!(e.kind, TraceKind::SchedForward);
                }
            }
        });
        assert_eq!(ring.recorded(), 40_000);
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
        assert!(!TraceKind::LockWait.is_span());
        let events = ring.recent(16);
        assert_eq!(events.len(), kinds.len());
        for (e, k) in events.iter().zip(kinds) {
            assert_eq!(e.kind, k);
            assert_eq!(e.a, 42);
        }
    }
}
