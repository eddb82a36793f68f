//! Traffic manager: the wire-side FIFO queue and serializer.
//!
//! FlowValve's key abstraction (paper §III-D) is to treat the transmit
//! buffer plus the traffic manager's hardware queues as **one FIFO draining
//! at line rate**, with no per-class queues and no user control over
//! ordering. For a FIFO in front of a fixed-rate serializer, the queue
//! occupancy at any instant is exactly `(wire_free_at − now) × rate`, so the
//! whole traffic manager reduces to a single "next free" timestamp — both
//! faithful and O(1).
//!
//! Tail drop happens when the backlog would exceed the configured byte
//! capacity; this is the *un*-specialized tail drop that FlowValve's
//! early-drop decisions are designed to pre-empt.
//!
//! The FIFO counts nothing: the caller that owns the packet's fate (the
//! NIC's `nic.*` tallies) counts what [`TxFifo::enqueue_pkt`] returns. An
//! observed FIFO records only what it alone knows the time of: its
//! backlog, the `tm_queue`/`wire` spans and the `TailDrop` event.

use std::sync::Arc;

use fv_telemetry::metrics::Gauge;
use fv_telemetry::span::{SpanRecorder, Stage};
use fv_telemetry::trace::TraceKind;
use fv_telemetry::Registry;
use sim_core::time::Nanos;
use sim_core::units::{BitRate, ByteSize, WireFraming};

use crate::fault::{FaultInjector, TmFault};

/// Why the traffic manager refused a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TmDrop {
    /// The backlog would exceed the FIFO's capacity.
    TailDrop,
    /// An injected fault corrupted the frame.
    CorruptDrop,
}

/// What only an observed FIFO records: its occupancy and, for sampled
/// packets, `TailDrop` trace events and `tm_queue`/`wire` spans.
#[derive(Debug)]
struct FifoTelemetry {
    backlog_bytes: Arc<Gauge>,
    spans: SpanRecorder,
}

/// A FIFO transmit queue in front of a fixed-rate wire.
///
/// # Example
///
/// ```
/// use np_sim::tm::TxFifo;
/// use sim_core::time::Nanos;
/// use sim_core::units::{BitRate, ByteSize, WireFraming};
///
/// let mut fifo = TxFifo::new(
///     BitRate::from_gbps(10.0),
///     WireFraming::ETHERNET,
///     ByteSize::from_kib(64),
/// );
/// let done = fifo.enqueue_pkt(1518, Nanos::ZERO, 0).expect("queue is empty");
/// // (1518 + 20) bytes at 10 Gbps ≈ 1.23 us.
/// assert_eq!(done.as_nanos(), 1_231);
/// ```
#[derive(Debug)]
pub struct TxFifo {
    rate: BitRate,
    framing: WireFraming,
    /// Maximum backlog expressed as drain time (capacity / rate).
    max_backlog: Nanos,
    /// When the wire finishes everything currently queued.
    free_at: Nanos,
    /// Latest enqueue timestamp seen, to keep internal time monotonic.
    last_t: Nanos,
    telemetry: Option<FifoTelemetry>,
    injector: Option<Arc<dyn FaultInjector>>,
}

impl TxFifo {
    /// Creates a FIFO draining at `rate` with `capacity` bytes of buffer.
    ///
    /// # Panics
    ///
    /// Panics if `rate` or `capacity` is zero.
    pub fn new(rate: BitRate, framing: WireFraming, capacity: ByteSize) -> Self {
        assert!(rate > BitRate::ZERO, "wire rate must be positive");
        assert!(capacity > ByteSize::ZERO, "capacity must be positive");
        TxFifo {
            rate,
            framing,
            max_backlog: rate.serialization_time(capacity.as_bits()),
            free_at: Nanos::ZERO,
            last_t: Nanos::ZERO,
            telemetry: None,
            injector: None,
        }
    }

    /// Installs a fault injector consulted on every enqueue (wire-rate
    /// degradation, serializer pauses, corruption drops).
    pub fn set_fault_injector(&mut self, injector: Arc<dyn FaultInjector>) {
        self.injector = Some(injector);
    }

    /// Starts recording what only an observed FIFO keeps: the
    /// `tm.fifo.backlog_bytes` occupancy gauge (whose high-water mark
    /// survives drains), exact, and — for the packets the registry's
    /// sampler selects — `TailDrop` trace events and `tm_queue`/`wire`
    /// stage spans.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.telemetry = Some(FifoTelemetry {
            backlog_bytes: registry.gauge("tm.fifo.backlog_bytes"),
            spans: SpanRecorder::new(registry),
        });
    }

    /// Offers packet `pkt_id`, a frame of `frame_len` bytes, to the FIFO at
    /// time `t`. The id keys the FIFO wait (`tm_queue`) and serialization
    /// (`wire`) spans, the `TailDrop` event and the fault injector.
    ///
    /// On success, returns the instant the frame's last bit leaves the wire.
    /// Slightly out-of-order timestamps (from parallel workers completing
    /// out of order) are clamped to the last seen time, mirroring the
    /// reorder system's behaviour at the transmit ring.
    ///
    /// # Errors
    ///
    /// [`TmDrop::TailDrop`] when the backlog would exceed capacity,
    /// [`TmDrop::CorruptDrop`] when an injected fault consumes the frame.
    pub fn enqueue_pkt(&mut self, frame_len: u32, t: Nanos, pkt_id: u64) -> Result<Nanos, TmDrop> {
        let t = t.max(self.last_t);
        self.last_t = t;
        let mut paused_until = Nanos::ZERO;
        if let Some(inj) = &self.injector {
            match inj.tm_fault(t) {
                TmFault::None => {}
                TmFault::Paused { until } => paused_until = until,
                TmFault::CorruptDrop => return Err(TmDrop::CorruptDrop),
            }
        }
        let backlog = self.free_at.saturating_sub(t);
        if backlog > self.max_backlog {
            if let Some(tel) = &self.telemetry {
                tel.spans.event(t, TraceKind::TailDrop, pkt_id, 0, pkt_id);
            }
            return Err(TmDrop::TailDrop);
        }
        let mut ser = self.framing.serialization_time(self.rate, frame_len as u64);
        if let Some(inj) = &self.injector {
            let permille = inj.wire_rate_permille(t).max(1);
            if permille != 1000 {
                // A degraded wire stretches serialization proportionally.
                ser = Nanos::from_nanos(ser.as_nanos().saturating_mul(1000) / permille);
            }
        }
        let wire_start = self.free_at.max(t).max(paused_until);
        self.free_at = wire_start + ser;
        if let Some(tel) = &self.telemetry {
            let occupancy = self.rate.bits_in(self.free_at - t) / 8;
            tel.backlog_bytes.set(occupancy);
            tel.spans.record(Stage::TmQueue, t, pkt_id, wire_start - t);
            tel.spans.record(Stage::Wire, wire_start, pkt_id, ser);
        }
        Ok(self.free_at)
    }

    /// Current queue backlog in bytes at time `t`.
    pub fn backlog_bytes(&self, t: Nanos) -> u64 {
        let backlog = self.free_at.saturating_sub(t.max(self.last_t));
        self.rate.bits_in(backlog) / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fifo_1g() -> TxFifo {
        // 1 Gbps, no framing overhead, 10 KiB buffer => 81.92 us max backlog.
        TxFifo::new(
            BitRate::from_bps(1_000_000_000),
            WireFraming::NONE,
            ByteSize::from_kib(10),
        )
    }

    #[test]
    fn empty_fifo_serializes_immediately() {
        let mut f = fifo_1g();
        // 1000 bytes = 8000 bits at 1 bit/ns.
        let done = f.enqueue_pkt(1_000, Nanos::ZERO, 0).unwrap();
        assert_eq!(done, Nanos::from_nanos(8_000));
    }

    #[test]
    fn backlog_accumulates_fifo_order() {
        let mut f = fifo_1g();
        let d1 = f.enqueue_pkt(1_000, Nanos::ZERO, 0).unwrap();
        let d2 = f.enqueue_pkt(1_000, Nanos::ZERO, 1).unwrap();
        assert_eq!(d2, d1 + Nanos::from_nanos(8_000));
        assert_eq!(f.backlog_bytes(Nanos::ZERO), 2_000);
    }

    #[test]
    fn wire_drains_over_time() {
        let mut f = fifo_1g();
        f.enqueue_pkt(1_000, Nanos::ZERO, 0).unwrap();
        assert_eq!(f.backlog_bytes(Nanos::from_nanos(4_000)), 500);
        assert_eq!(f.backlog_bytes(Nanos::from_nanos(8_000)), 0);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut f = fifo_1g();
        // Fill past 10 KiB: each enqueue is 1 KB; at t=0, the 11th packet
        // sees 80 us of backlog => allowed; the 12th sees 88 us > 81.92 us
        // => drop.
        for id in 0..11 {
            assert!(f.enqueue_pkt(1_000, Nanos::ZERO, id).is_ok());
        }
        assert_eq!(f.enqueue_pkt(1_000, Nanos::ZERO, 11), Err(TmDrop::TailDrop));
    }

    #[test]
    fn out_of_order_timestamps_clamped() {
        let mut f = fifo_1g();
        f.enqueue_pkt(1_000, Nanos::from_nanos(100), 0).unwrap();
        // Enqueue "at 50 ns" after one at 100 ns: treated as 100 ns.
        let done = f.enqueue_pkt(1_000, Nanos::from_nanos(50), 1).unwrap();
        assert_eq!(done, Nanos::from_nanos(100 + 16_000));
    }

    #[test]
    fn framing_overhead_charged_on_wire_only() {
        let mut f = TxFifo::new(
            BitRate::from_bps(1_000_000_000),
            WireFraming::ETHERNET,
            ByteSize::from_kib(64),
        );
        let done = f.enqueue_pkt(64, Nanos::ZERO, 0).unwrap();
        // (64 + 20) * 8 = 672 ns on the wire.
        assert_eq!(done, Nanos::from_nanos(672));
    }

    #[test]
    fn telemetry_mirrors_fifo_stats() {
        use fv_telemetry::MetricValue;
        let reg = Registry::with_sampler(64, fv_telemetry::Sampler::one_in_pow2(0));
        let mut f = fifo_1g();
        f.attach_telemetry(&reg);
        // 10 KiB buffer, 1 KB frames: 11 accepted, the 12th tail-drops.
        for id in 0..12 {
            let _ = f.enqueue_pkt(1_000, Nanos::ZERO, id);
        }
        let snap = reg.snapshot(Nanos::ZERO);
        match snap.get("tm.fifo.backlog_bytes") {
            Some(MetricValue::Gauge { max, .. }) => assert_eq!(*max, 11_000),
            other => panic!("unexpected {other:?}"),
        }
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == TraceKind::TailDrop && (e.a, e.b) == (0, 11)));
        assert_eq!(snap.histogram("span.wire_ns").unwrap().count, 11);
    }

    #[derive(Debug)]
    struct FaultAt {
        from: Nanos,
        to: Nanos,
        fault: TmFault,
        permille: u64,
    }

    impl FaultInjector for FaultAt {
        fn wire_rate_permille(&self, now: Nanos) -> u64 {
            if now >= self.from && now < self.to {
                self.permille
            } else {
                1000
            }
        }
        fn tm_fault(&self, now: Nanos) -> TmFault {
            if now >= self.from && now < self.to {
                self.fault
            } else {
                TmFault::None
            }
        }
    }

    #[test]
    fn degraded_wire_stretches_serialization() {
        let mut f = fifo_1g();
        f.set_fault_injector(Arc::new(FaultAt {
            from: Nanos::ZERO,
            to: Nanos::from_micros(1),
            fault: TmFault::None,
            permille: 250,
        }));
        // 8000 bits at a quarter of 1 Gbps take 4x as long.
        let done = f.enqueue_pkt(1_000, Nanos::ZERO, 0).unwrap();
        assert_eq!(done, Nanos::from_nanos(32_000));
        // Outside the window the wire is back to nominal.
        let done = f.enqueue_pkt(1_000, Nanos::from_micros(40), 1).unwrap();
        assert_eq!(done, Nanos::from_nanos(48_000));
    }

    #[test]
    fn paused_serializer_defers_wire_start() {
        let mut f = fifo_1g();
        let until = Nanos::from_micros(10);
        f.set_fault_injector(Arc::new(FaultAt {
            from: Nanos::ZERO,
            to: Nanos::from_micros(1),
            fault: TmFault::Paused { until },
            permille: 1000,
        }));
        let done = f.enqueue_pkt(1_000, Nanos::ZERO, 0).unwrap();
        assert_eq!(done, until + Nanos::from_nanos(8_000));
    }

    #[test]
    fn corruption_fault_drops_and_counts() {
        let mut f = fifo_1g();
        f.set_fault_injector(Arc::new(FaultAt {
            from: Nanos::ZERO,
            to: Nanos::from_micros(1),
            fault: TmFault::CorruptDrop,
            permille: 1000,
        }));
        assert_eq!(
            f.enqueue_pkt(1_000, Nanos::ZERO, 0),
            Err(TmDrop::CorruptDrop)
        );
        // The dropped frame never occupied the wire.
        let done = f.enqueue_pkt(1_000, Nanos::from_micros(5), 1).unwrap();
        assert_eq!(done, Nanos::from_nanos(5_000 + 8_000));
    }
}
