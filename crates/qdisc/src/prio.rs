//! The PRIO qdisc: strict-priority bands.
//!
//! The classic classful priority scheduler FlowValve offloads (paper §I):
//! N FIFO bands, dequeue always serves the highest-priority (lowest-index)
//! non-empty band.

use std::sync::Arc;

use fv_telemetry::metrics::{Counter, Gauge};
use fv_telemetry::span::{SpanRecorder, Stage};
use fv_telemetry::trace::TraceKind;
use fv_telemetry::Registry;
use netstack::packet::Packet;
use sim_core::time::Nanos;

use crate::fifo::{PacketFifo, QueueDrop};

/// Registry handles mirroring the PRIO counters. Attached via
/// [`Prio::attach_telemetry`].
#[derive(Debug, Clone)]
struct PrioTelemetry {
    enqueued: Arc<Counter>,
    dequeued: Arc<Counter>,
    drops: Arc<Counter>,
    drops_overpkts: Arc<Counter>,
    drops_overbytes: Arc<Counter>,
    band_drops: Vec<Arc<Counter>>,
    backlog_pkts: Arc<Gauge>,
    spans: SpanRecorder,
}

/// A strict-priority qdisc with `N` bands.
///
/// # Example
///
/// ```
/// use netstack::flow::FlowKey;
/// use netstack::packet::{AppId, Packet, VfPort};
/// use qdisc::prio::Prio;
/// use sim_core::time::Nanos;
///
/// let mut prio = Prio::new(3, 1 << 20, 1_000);
/// let flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 0, 2], 2);
/// let mk = |id| Packet::new(id, flow, 100, AppId(0), VfPort(0), Nanos::ZERO);
/// prio.enqueue(2, mk(0))?; // low priority first...
/// prio.enqueue(0, mk(1))?; // ...then high priority
/// assert_eq!(prio.dequeue().map(|p| p.id), Some(1)); // high pops first
/// # Ok::<(), qdisc::fifo::QueueDrop>(())
/// ```
#[derive(Debug)]
pub struct Prio {
    bands: Vec<PacketFifo>,
    enqueued: u64,
    dequeued: u64,
    telemetry: Option<PrioTelemetry>,
}

impl Prio {
    /// Creates a PRIO qdisc with `bands` bands, each bounded by the given
    /// byte and packet limits.
    ///
    /// # Panics
    ///
    /// Panics if `bands` is zero.
    pub fn new(bands: usize, byte_limit: u64, pkt_limit: usize) -> Self {
        assert!(bands > 0, "need at least one band");
        Prio {
            bands: (0..bands)
                .map(|_| PacketFifo::new(byte_limit, pkt_limit))
                .collect(),
            enqueued: 0,
            dequeued: 0,
            telemetry: None,
        }
    }

    /// Mirrors this qdisc's counters into `registry` under `prio.*` —
    /// band overflows of sampled packets additionally trace
    /// [`TraceKind::TailDrop`] events.
    /// Drops are broken out by cause (`prio.drops_overpkts` /
    /// `prio.drops_overbytes`) and by band (`prio.band<i>.drops`)
    /// alongside the aggregate `prio.drops`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(PrioTelemetry {
            enqueued: registry.counter("prio.enqueued"),
            dequeued: registry.counter("prio.dequeued"),
            drops: registry.counter("prio.drops"),
            drops_overpkts: registry.counter("prio.drops_overpkts"),
            drops_overbytes: registry.counter("prio.drops_overbytes"),
            band_drops: (0..self.bands.len())
                .map(|i| registry.counter(&format!("prio.band{i}.drops")))
                .collect(),
            backlog_pkts: registry.gauge("prio.backlog_pkts"),
            spans: SpanRecorder::new(registry),
        });
    }

    /// Number of bands.
    pub fn num_bands(&self) -> usize {
        self.bands.len()
    }

    /// Enqueues a packet into `band` (0 = highest priority).
    ///
    /// # Errors
    ///
    /// [`QueueDrop::OverPkts`] / [`QueueDrop::OverBytes`] when the band
    /// is full, naming which limit refused the packet.
    ///
    /// # Panics
    ///
    /// Panics if `band` is out of range.
    pub fn enqueue(&mut self, band: usize, pkt: Packet) -> Result<(), QueueDrop> {
        let (at, id) = (pkt.created_at, pkt.id);
        let r = self.bands[band].push(pkt);
        match &r {
            Ok(()) => {
                self.enqueued += 1;
                if let Some(t) = &self.telemetry {
                    t.enqueued.incr();
                    t.backlog_pkts.set(self.backlog_pkts() as u64);
                }
            }
            Err(cause) => {
                if let Some(t) = &self.telemetry {
                    t.drops.incr();
                    match cause {
                        QueueDrop::OverPkts => t.drops_overpkts.incr(),
                        QueueDrop::OverBytes => t.drops_overbytes.incr(),
                        // A FIFO never produces the scheduler/TM causes.
                        _ => {}
                    }
                    t.band_drops[band].incr();
                    t.spans.event(at, TraceKind::TailDrop, id, band as u64, id);
                }
            }
        }
        r
    }

    /// Dequeues from the highest-priority non-empty band.
    pub fn dequeue(&mut self) -> Option<Packet> {
        self.dequeue_inner(None)
    }

    /// [`Prio::dequeue`] with the dequeue instant threaded through, so the
    /// packet's queue sojourn (`now - created_at`) is stamped as a `queue`
    /// stage span when telemetry is attached.
    pub fn dequeue_at(&mut self, now: Nanos) -> Option<Packet> {
        self.dequeue_inner(Some(now))
    }

    fn dequeue_inner(&mut self, now: Option<Nanos>) -> Option<Packet> {
        for band in 0..self.bands.len() {
            if let Some(p) = self.bands[band].pop() {
                self.dequeued += 1;
                if let Some(t) = &self.telemetry {
                    t.dequeued.incr();
                    t.backlog_pkts.set(self.backlog_pkts() as u64);
                    if let Some(now) = now {
                        let sojourn = now.saturating_sub(p.created_at);
                        t.spans.record(Stage::Queue, p.created_at, p.id, sojourn);
                    }
                }
                return Some(p);
            }
        }
        None
    }

    /// Total queued packets.
    pub fn backlog_pkts(&self) -> usize {
        self.bands.iter().map(PacketFifo::len).sum()
    }

    /// Packets accepted so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Packets dequeued so far.
    pub fn dequeued(&self) -> u64 {
        self.dequeued
    }

    /// Drops across all bands.
    pub fn drops(&self) -> u64 {
        self.bands.iter().map(PacketFifo::drops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::flow::FlowKey;
    use netstack::packet::{AppId, VfPort};
    use sim_core::time::Nanos;

    fn pkt(id: u64) -> Packet {
        let flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 0, 2], 2);
        Packet::new(id, flow, 100, AppId(0), VfPort(0), Nanos::ZERO)
    }

    #[test]
    fn strict_priority_order() {
        let mut q = Prio::new(3, 1 << 20, 100);
        q.enqueue(2, pkt(0)).unwrap();
        q.enqueue(1, pkt(1)).unwrap();
        q.enqueue(0, pkt(2)).unwrap();
        q.enqueue(0, pkt(3)).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.dequeue()).map(|p| p.id).collect();
        assert_eq!(order, vec![2, 3, 1, 0]);
    }

    #[test]
    fn starvation_is_total() {
        // As long as band 0 is backlogged, band 2 never dequeues.
        let mut q = Prio::new(3, 1 << 20, 100);
        q.enqueue(2, pkt(99)).unwrap();
        for i in 0..50 {
            q.enqueue(0, pkt(i)).unwrap();
        }
        for _ in 0..50 {
            assert_ne!(q.dequeue().unwrap().id, 99);
        }
        assert_eq!(q.dequeue().unwrap().id, 99);
    }

    #[test]
    fn per_band_limits() {
        let mut q = Prio::new(2, 1 << 20, 1);
        q.enqueue(0, pkt(0)).unwrap();
        assert!(q.enqueue(0, pkt(1)).is_err());
        // Other band unaffected.
        q.enqueue(1, pkt(2)).unwrap();
        assert_eq!(q.drops(), 1);
        assert_eq!(q.backlog_pkts(), 2);
        assert_eq!(q.enqueued(), 2);
    }

    #[test]
    fn empty_dequeues_none() {
        let mut q = Prio::new(2, 1 << 20, 10);
        assert!(q.dequeue().is_none());
        assert_eq!(q.dequeued(), 0);
        assert_eq!(q.num_bands(), 2);
    }

    #[test]
    #[should_panic]
    fn zero_bands_rejected() {
        let _ = Prio::new(0, 1, 1);
    }

    #[test]
    fn telemetry_mirrors_counters() {
        let mut q = Prio::new(2, 1 << 20, 1);
        let registry = Registry::with_sampler(1024, fv_telemetry::Sampler::one_in_pow2(0));
        q.attach_telemetry(&registry);
        q.enqueue(0, pkt(0)).unwrap();
        assert!(q.enqueue(0, pkt(1)).is_err());
        q.enqueue(1, pkt(2)).unwrap();
        assert!(q.dequeue().is_some());
        let snap = registry.snapshot(Nanos::ZERO);
        assert_eq!(snap.counter("prio.enqueued"), 2);
        assert_eq!(snap.counter("prio.drops"), 1);
        assert_eq!(snap.counter("prio.dequeued"), 1);
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == TraceKind::TailDrop && e.a == 0 && e.b == 1));
    }

    #[test]
    fn drops_are_attributed_by_cause_and_band() {
        fn sized(id: u64, len: u32) -> Packet {
            let flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 0, 2], 2);
            Packet::new(id, flow, len, AppId(0), VfPort(0), Nanos::ZERO)
        }
        // Shared limits: 250 bytes, 2 packets per band. Band 0 fills the
        // packet slots with small frames → OverPkts; band 1 blows the byte
        // budget with one large frame → OverBytes.
        let mut q = Prio::new(2, 250, 2);
        let registry = Registry::new();
        q.attach_telemetry(&registry);
        q.enqueue(0, sized(0, 64)).unwrap();
        q.enqueue(0, sized(1, 64)).unwrap();
        assert_eq!(q.enqueue(0, sized(2, 64)), Err(QueueDrop::OverPkts));
        q.enqueue(1, sized(3, 200)).unwrap();
        assert_eq!(q.enqueue(1, sized(4, 100)), Err(QueueDrop::OverBytes));
        let snap = registry.snapshot(Nanos::ZERO);
        assert_eq!(snap.counter("prio.drops"), 2);
        assert_eq!(snap.counter("prio.drops_overpkts"), 1);
        assert_eq!(snap.counter("prio.drops_overbytes"), 1);
        assert_eq!(snap.counter("prio.band0.drops"), 1);
        assert_eq!(snap.counter("prio.band1.drops"), 1);
    }

    #[test]
    fn dequeue_at_stamps_queue_sojourn_spans() {
        let mut q = Prio::new(2, 1 << 20, 10);
        let registry = Registry::with_sampler(1024, fv_telemetry::Sampler::one_in_pow2(0));
        q.attach_telemetry(&registry);
        q.enqueue(0, pkt(5)).unwrap(); // created_at = 0
        let now = Nanos::from_micros(3);
        assert_eq!(q.dequeue_at(now).map(|p| p.id), Some(5));
        let snap = registry.snapshot(now);
        let h = snap.histogram("span.queue_ns").expect("queue span hist");
        assert_eq!(h.count, 1);
        assert_eq!(h.min, now.as_nanos());
        assert!(registry
            .ring()
            .recent(8)
            .iter()
            .any(|e| e.kind == TraceKind::SpanQueue && e.a == 5 && e.b == now.as_nanos()));
    }
}
