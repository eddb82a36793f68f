//! The assembled SmartNIC: ingress dispatch, run-to-completion processing,
//! an egress decision hook, per-VF reordering, and the wire-side FIFO.
//!
//! The egress decision hook ([`EgressDecider`]) is where schedulers plug
//! in: FlowValve's labeling + scheduling functions implement it in the
//! `flowvalve` crate, and [`PassthroughDecider`] provides the
//! scheduler-disabled baseline the paper uses to isolate pipeline latency.

use std::sync::Arc;

use fv_telemetry::metrics::{Counter, Histogram};
use fv_telemetry::span::{SpanRecorder, Stage};
use fv_telemetry::trace::TraceKind;
use fv_telemetry::Registry;
use netstack::packet::Packet;
use sim_core::time::{Cycles, Nanos};

use crate::config::NicConfig;
use crate::cost::{AttrStage, CostMeter, CycleAttr, Op};
use crate::engine::{Dispatch, WorkerPool};
use crate::fault::FaultInjector;
use crate::lock::LockTable;
use crate::tm::{TmDrop, TxFifo};

/// A scheduling verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Transmit the packet to the wire.
    Forward,
    /// Drop the packet now (FlowValve's specialized early tail drop).
    Drop,
}

/// The pluggable egress scheduling function.
///
/// Implementations run inside a worker's run-to-completion routine: they
/// must charge every operation they perform to the [`CostMeter`] and model
/// inter-core serialization through the [`LockTable`].
pub trait EgressDecider: std::any::Any {
    /// Decides the fate of `pkt` processed at time `now`.
    fn decide(
        &mut self,
        pkt: &Packet,
        now: Nanos,
        meter: &mut CostMeter,
        locks: &mut LockTable,
    ) -> Decision;

    /// Human-readable name for experiment output.
    fn name(&self) -> &str {
        "decider"
    }

    /// Downcast support, so owners of a boxed decider can reach
    /// implementation-specific control interfaces (e.g. FlowValve's
    /// policy hot-reload).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Forwards every packet without scheduling (the paper's "FlowValve
/// disabled" configuration).
#[derive(Debug, Clone, Copy, Default)]
pub struct PassthroughDecider;

impl EgressDecider for PassthroughDecider {
    fn decide(
        &mut self,
        _pkt: &Packet,
        _now: Nanos,
        _meter: &mut CostMeter,
        _locks: &mut LockTable,
    ) -> Decision {
        Decision::Forward
    }

    fn name(&self) -> &str {
        "passthrough"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// What happened to a packet offered to the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxOutcome {
    /// Dropped at ingress: no worker freed up within the receive budget.
    RxDrop,
    /// The scheduling function dropped the packet at time `at`.
    SchedDrop {
        /// When the decision completed.
        at: Nanos,
    },
    /// The traffic-manager FIFO was full at time `at`.
    TailDrop {
        /// When the enqueue attempt failed.
        at: Nanos,
    },
    /// Dropped by an injected fault (e.g. a TM corruption burst) at `at`.
    FaultDrop {
        /// When the fault consumed the packet.
        at: Nanos,
    },
    /// The packet was transmitted.
    Transmit {
        /// When the last bit left the wire.
        wire_done: Nanos,
        /// When the receiver sees the packet (wire + fixed pipeline latency).
        delivered: Nanos,
    },
}

/// Aggregate NIC counters.
///
/// A *snapshot view*: the live accounting is seven `fv-telemetry` counters,
/// the single count of each event, and [`SmartNic::stats`] materializes this
/// struct from their totals on demand. [`SmartNic::with_registry`] registers
/// them as `nic.*`; under [`SmartNic::new`] they belong to the NIC alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicStats {
    /// Packets offered to the NIC.
    pub offered: u64,
    /// Ingress (receive-ring) drops.
    pub rx_drops: u64,
    /// Scheduling-function drops.
    pub sched_drops: u64,
    /// Traffic-manager tail drops.
    pub tail_drops: u64,
    /// Drops caused by injected faults.
    pub fault_drops: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Frame bits transmitted.
    pub tx_bits: u64,
}

/// The NIC's seven tallies, written only from `rx(&mut self)`, plus what
/// only an observed NIC records.
struct NicTelemetry {
    offered: Arc<Counter>,
    rx_drops: Arc<Counter>,
    sched_drops: Arc<Counter>,
    tail_drops: Arc<Counter>,
    fault_drops: Arc<Counter>,
    tx_packets: Arc<Counter>,
    tx_bits: Arc<Counter>,
    observer: Option<NicObserver>,
}

/// What [`SmartNic::with_registry`] adds to the tallies.
struct NicObserver {
    registry: Registry,
    latency: Arc<Histogram>,
    spans: SpanRecorder,
}

/// A simulated NP-based SmartNIC.
///
/// Observers are attached, never ambient: a NIC records into a registry
/// only when its builder handed it one. [`SmartNic::new`] keeps the seven
/// [`NicStats`] tallies and nothing else; [`SmartNic::with_registry`] is
/// the one constructor that wires lock, FIFO, span, latency and
/// trace-event recording, and neither changes what the NIC does. Of
/// those, what is keyed by a packet id (the stage spans, `RxDrop` and
/// `TailDrop` events) is kept for the packets the registry's sampler
/// selects; every counter and `nic.latency_ns` are exact.
///
/// # Example
///
/// ```
/// use netstack::flow::FlowKey;
/// use netstack::packet::{AppId, Packet, VfPort};
/// use np_sim::config::NicConfig;
/// use np_sim::nic::{PassthroughDecider, RxOutcome, SmartNic};
/// use sim_core::time::Nanos;
///
/// let mut nic = SmartNic::new(NicConfig::agilio_cx_40g(), Box::new(PassthroughDecider));
/// let flow = FlowKey::tcp([10, 0, 0, 1], 4000, [10, 0, 0, 2], 5001);
/// let pkt = Packet::new(0, flow, 1518, AppId(0), VfPort(0), Nanos::ZERO);
/// match nic.rx(&pkt, Nanos::ZERO) {
///     RxOutcome::Transmit { delivered, .. } => assert!(delivered > Nanos::ZERO),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub struct SmartNic {
    config: NicConfig,
    workers: WorkerPool,
    locks: LockTable,
    fifo: TxFifo,
    decider: Box<dyn EgressDecider>,
    meter: CostMeter,
    /// Per-VF last release time into the transmit ring: the reorder system
    /// guarantees packets of one VF enter the FIFO in arrival order.
    vf_release: Vec<Nanos>,
    telemetry: NicTelemetry,
    fault: Option<Arc<dyn FaultInjector>>,
}

impl core::fmt::Debug for SmartNic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SmartNic")
            .field("config", &self.config)
            .field("decider", &self.decider.name())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl SmartNic {
    /// Builds an unobserved NIC from a validated configuration and an
    /// egress decider: it keeps its [`NicStats`] tallies and records
    /// nothing else.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NicConfig::validate`].
    pub fn new(config: NicConfig, decider: Box<dyn EgressDecider>) -> Self {
        Self::build(config, decider, None)
    }

    /// Builds a NIC whose counters, gauges, and trace events live in
    /// `registry` (namespaces `nic.*`, `lock.*`, `tm.fifo.*`). Every
    /// component of the pipeline records into the same event ring, so a
    /// single [`Registry::snapshot`] shows drops by cause alongside lock
    /// contention and FIFO occupancy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`NicConfig::validate`].
    pub fn with_registry(
        config: NicConfig,
        decider: Box<dyn EgressDecider>,
        registry: &Registry,
    ) -> Self {
        Self::build(config, decider, Some(registry))
    }

    fn build(
        config: NicConfig,
        decider: Box<dyn EgressDecider>,
        registry: Option<&Registry>,
    ) -> Self {
        config.validate().expect("invalid NIC configuration");
        let mut locks = LockTable::new(64);
        let mut fifo = TxFifo::new(config.line_rate, config.framing, config.tm_queue_capacity);
        if let Some(registry) = registry {
            locks.attach_telemetry(registry);
            fifo.attach_telemetry(registry);
        }
        let counter = |name| match registry {
            Some(registry) => registry.counter(name),
            None => Arc::new(Counter::new()),
        };
        let telemetry = NicTelemetry {
            offered: counter("nic.offered"),
            rx_drops: counter("nic.rx_drops"),
            sched_drops: counter("nic.sched_drops"),
            tail_drops: counter("nic.tail_drops"),
            // Detached until a fault injector exists: fault-free runs keep
            // their snapshot schema free of fault counters.
            fault_drops: Arc::new(Counter::new()),
            tx_packets: counter("nic.tx_packets"),
            tx_bits: counter("nic.tx_bits"),
            observer: registry.map(|registry| NicObserver {
                registry: registry.clone(),
                latency: registry.histogram("nic.latency_ns"),
                spans: SpanRecorder::new(registry),
            }),
        };
        SmartNic {
            workers: WorkerPool::new(config.num_mes, config.freq, config.rx_max_wait),
            locks,
            fifo,
            meter: CostMeter::new(config.costs),
            vf_release: vec![Nanos::ZERO; 256],
            decider,
            config,
            telemetry,
            fault: None,
        }
    }

    /// Installs a fault injector across the whole pipeline: worker
    /// dispatch (micro-engine stalls), the per-packet cost meter (extra
    /// cycles), the traffic manager (wire degradation, pauses, corruption
    /// drops), and the lock table (hold-time inflation). The same
    /// scheduler code runs faulted or clean — only these hook points
    /// consult the injector.
    pub fn install_fault_injector(&mut self, injector: Arc<dyn FaultInjector>) {
        // Faults are now possible, so an observed NIC's fault-drop counters
        // join the registry; fault-free NICs keep their snapshot schema
        // unchanged. Unobserved, `stats()` counts them all the same.
        if let Some(obs) = &self.telemetry.observer {
            self.telemetry.fault_drops = obs.registry.counter("nic.fault_drops");
            self.fifo.attach_fault_telemetry(&obs.registry);
        }
        self.fifo.set_fault_injector(Arc::clone(&injector));
        self.locks.set_fault_injector(Arc::clone(&injector));
        self.fault = Some(injector);
    }

    /// The NIC configuration.
    pub fn config(&self) -> &NicConfig {
        &self.config
    }

    /// Offers one packet arriving from the host at time `now`.
    ///
    /// Resolves the entire run-to-completion pipeline: worker dispatch,
    /// parse, the egress decision (with its cycle and lock costs), per-VF
    /// reorder, and the wire-side FIFO.
    pub fn rx(&mut self, pkt: &Packet, now: Nanos) -> RxOutcome {
        self.telemetry.offered.add_single_writer(1);
        let stall = self.fault.as_ref().and_then(|f| f.stalled_engines(now));
        let start = match self.workers.dispatch_with(now, stall) {
            Dispatch::RxOverflow => {
                self.telemetry.rx_drops.add_single_writer(1);
                if let Some(obs) = &self.telemetry.observer {
                    obs.spans
                        .event(now, TraceKind::RxDrop, pkt.id, pkt.id, pkt.vf.0 as u64);
                }
                return RxOutcome::RxDrop;
            }
            Dispatch::Started { start } => start,
        };

        self.meter.reset();
        if let Some(engine) = self.workers.pending_engine() {
            self.meter.set_worker(engine);
        }
        self.meter.charge(Op::Parse);
        self.meter.charge(Op::ForwardBase);
        if let Some(f) = &self.fault {
            let extra = f.extra_cycles(start);
            if extra > 0 {
                self.meter
                    .charge_cycles(AttrStage::Fault, Cycles::new(extra));
            }
        }
        let decision = self
            .decider
            .decide(pkt, start, &mut self.meter, &mut self.locks);
        if decision == Decision::Forward {
            self.meter.charge(Op::TxEnqueue);
        }
        let done = self.workers.complete(start, self.meter.total());
        // Ingress span: time spent waiting for a free worker. Recorded even
        // when zero so the span count equals the count of sampled packets
        // dispatched. Stamped after the decider ran so an attribution sink
        // has already seen this packet's classification verdict.
        if let Some(obs) = &self.telemetry.observer {
            obs.spans.record(Stage::Ingress, now, pkt.id, start - now);
        }

        match decision {
            Decision::Drop => {
                self.telemetry.sched_drops.add_single_writer(1);
                RxOutcome::SchedDrop { at: done }
            }
            Decision::Forward => {
                let slot = &mut self.vf_release[pkt.vf.0 as usize];
                let release = done.max(*slot);
                *slot = release;
                match self.fifo.enqueue_pkt(pkt.frame_len, release, pkt.id) {
                    Ok(wire_done) => {
                        let delivered = wire_done + self.config.base_pipeline_latency;
                        self.telemetry.tx_packets.add_single_writer(1);
                        self.telemetry.tx_bits.add_single_writer(pkt.frame_bits());
                        if let Some(obs) = &self.telemetry.observer {
                            obs.latency.record_nanos(delivered - now);
                        }
                        RxOutcome::Transmit {
                            wire_done,
                            delivered,
                        }
                    }
                    Err(TmDrop::TailDrop) => {
                        self.telemetry.tail_drops.add_single_writer(1);
                        RxOutcome::TailDrop { at: release }
                    }
                    Err(TmDrop::CorruptDrop) => {
                        self.telemetry.fault_drops.add_single_writer(1);
                        RxOutcome::FaultDrop { at: release }
                    }
                    // The TM only ever refuses with the two causes above;
                    // the scheduler/queue causes cannot reach this FIFO.
                    Err(_) => RxOutcome::TailDrop { at: release },
                }
            }
        }
    }

    /// Aggregate counters, materialized from the tallies' totals.
    pub fn stats(&self) -> NicStats {
        NicStats {
            offered: self.telemetry.offered.total(),
            rx_drops: self.telemetry.rx_drops.total(),
            sched_drops: self.telemetry.sched_drops.total(),
            tail_drops: self.telemetry.tail_drops.total(),
            fault_drops: self.telemetry.fault_drops.total(),
            tx_packets: self.telemetry.tx_packets.total(),
            tx_bits: self.telemetry.tx_bits.total(),
        }
    }

    /// Publishes point-in-time gauges — per-micro-engine utilization over
    /// `[0, horizon]`, in permille — into the registry; nothing on an
    /// unobserved NIC. Call right before taking a snapshot; it is a
    /// cold-path operation.
    pub fn sync_gauges(&self, horizon: Nanos) {
        let Some(obs) = &self.telemetry.observer else {
            return;
        };
        for (i, u) in self.workers.engine_utilization(horizon).iter().enumerate() {
            obs.registry
                .gauge(&format!("nic.me{i}.busy_permille"))
                .set((u * 1000.0).round() as u64);
        }
    }

    /// Bytes still waiting in (or on) the TM serializer at `t` — the
    /// fault-recovery harness asserts this drains after a wire fault.
    pub fn tm_backlog_bytes(&self, t: Nanos) -> u64 {
        self.fifo.backlog_bytes(t)
    }

    /// Attaches a shared cycle-attribution array to the per-packet cost
    /// meter: every subsequent charge folds into it under a
    /// `(phase, op, worker)` context. Size it for `config.num_mes`
    /// workers (one row per modeled micro-engine).
    pub fn attach_probe(&mut self, attr: Arc<CycleAttr>) {
        self.meter.attach_attr(attr);
    }

    /// Lock contention statistics from the decider's lock usage.
    pub fn lock_stats(&self) -> crate::lock::LockStats {
        self.locks.stats()
    }

    /// Per-lock attribution rows from the decider's lock usage, indexed by
    /// [`crate::lock::LockId`].
    pub fn per_lock_stats(&self) -> &[crate::lock::PerLockStats] {
        self.locks.per_lock_stats()
    }

    /// Worker-pool utilization over `[0, horizon]`.
    pub fn worker_utilization(&self, horizon: Nanos) -> f64 {
        self.workers.utilization(horizon)
    }

    /// Downcasts the decider to a concrete type, for control interfaces
    /// like FlowValve's policy hot-reload.
    pub fn decider_as<T: 'static>(&mut self) -> Option<&mut T> {
        self.decider.as_any_mut().downcast_mut::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TmFault;
    use netstack::flow::FlowKey;
    use netstack::packet::{AppId, VfPort};

    fn pkt(id: u64, vf: u8, len: u32) -> Packet {
        let flow = FlowKey::tcp([10, 0, 0, 1], 4000 + vf as u16, [10, 0, 0, 2], 5001);
        Packet::new(id, flow, len, AppId(vf as u16), VfPort(vf), Nanos::ZERO)
    }

    /// Drops every packet of VF 1.
    struct DropVf1;
    impl EgressDecider for DropVf1 {
        fn decide(
            &mut self,
            pkt: &Packet,
            _now: Nanos,
            _meter: &mut CostMeter,
            _locks: &mut LockTable,
        ) -> Decision {
            if pkt.vf.0 == 1 {
                Decision::Drop
            } else {
                Decision::Forward
            }
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn passthrough_transmits() {
        let mut nic = SmartNic::new(NicConfig::agilio_cx_40g(), Box::new(PassthroughDecider));
        match nic.rx(&pkt(0, 0, 1518), Nanos::ZERO) {
            RxOutcome::Transmit {
                wire_done,
                delivered,
            } => {
                assert!(wire_done > Nanos::ZERO);
                assert_eq!(delivered, wire_done + nic.config().base_pipeline_latency);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(nic.stats().tx_packets, 1);
        assert_eq!(nic.stats().offered, 1);
    }

    #[test]
    fn decider_drops_are_counted() {
        let mut nic = SmartNic::new(NicConfig::agilio_cx_40g(), Box::new(DropVf1));
        assert!(matches!(
            nic.rx(&pkt(0, 1, 64), Nanos::ZERO),
            RxOutcome::SchedDrop { .. }
        ));
        assert!(matches!(
            nic.rx(&pkt(1, 0, 64), Nanos::ZERO),
            RxOutcome::Transmit { .. }
        ));
        let s = nic.stats();
        assert_eq!(s.sched_drops, 1);
        assert_eq!(s.tx_packets, 1);
        assert_eq!(s.offered, 2);
    }

    #[test]
    fn per_vf_release_is_monotonic() {
        let mut nic = SmartNic::new(NicConfig::agilio_cx_40g(), Box::new(PassthroughDecider));
        let mut last = Nanos::ZERO;
        for i in 0..20 {
            if let RxOutcome::Transmit { wire_done, .. } =
                nic.rx(&pkt(i, 0, 1518), Nanos::from_nanos(i * 10))
            {
                assert!(wire_done > last, "packet {i} reordered");
                last = wire_done;
            } else {
                panic!("packet {i} not transmitted");
            }
        }
    }

    #[test]
    fn overload_causes_drops() {
        // 64B packets at far beyond compute capacity must shed load
        // (via rx overflow and/or TM tail drop) but keep the wire busy.
        let mut nic = SmartNic::new(NicConfig::agilio_cx_40g(), Box::new(PassthroughDecider));
        let horizon = Nanos::from_micros(200);
        let mut t = Nanos::ZERO;
        let mut i = 0u64;
        while t < horizon {
            let _ = nic.rx(&pkt(i, (i % 4) as u8, 64), t);
            i += 1;
            t += Nanos::from_nanos(8); // 125 Mpps offered: hopeless overload
        }
        let s = nic.stats();
        assert!(s.rx_drops + s.tail_drops > 0, "{s:?}");
        assert!(s.tx_packets > 0);
        assert!(s.tx_packets < s.offered);
    }

    #[test]
    fn line_rate_sustained_for_mtu_frames() {
        // 1518B at exactly line rate: the pipeline must not be the bottleneck.
        let cfg = NicConfig::agilio_cx_40g();
        let gap = cfg.framing.serialization_time(cfg.line_rate, 1518);
        let mut nic = SmartNic::new(cfg, Box::new(PassthroughDecider));
        let horizon = Nanos::from_millis(2);
        let mut t = Nanos::ZERO;
        let mut i = 0u64;
        let mut sent = 0u64;
        while t < horizon {
            if matches!(nic.rx(&pkt(i, 0, 1518), t), RxOutcome::Transmit { .. }) {
                sent += 1;
            }
            i += 1;
            t += gap;
        }
        assert_eq!(sent, i, "dropped {} of {} at line rate", i - sent, i);
        let gbps = nic.stats().tx_bits as f64 / horizon.as_secs_f64() / 1e9;
        assert!(gbps > 38.0, "throughput {gbps} Gbps");
    }

    #[test]
    fn registry_is_the_source_of_truth() {
        let reg = Registry::new();
        let mut nic = SmartNic::with_registry(NicConfig::agilio_cx_40g(), Box::new(DropVf1), &reg);
        nic.rx(&pkt(0, 1, 64), Nanos::ZERO); // sched drop
        nic.rx(&pkt(1, 0, 1518), Nanos::ZERO); // transmit
        let snap = reg.snapshot(Nanos::from_micros(10));
        assert_eq!(snap.counter("nic.offered"), 2);
        assert_eq!(snap.counter("nic.sched_drops"), 1);
        assert_eq!(snap.counter("nic.tx_packets"), 1);
        // The wire-side FIFO recorded the same packet under its namespace.
        assert_eq!(snap.counter("tm.fifo.tx_packets"), 1);
        // NicStats is a view over the same counters.
        let s = nic.stats();
        assert_eq!(s.offered, snap.counter("nic.offered"));
        assert_eq!(s.tx_bits, snap.counter("nic.tx_bits"));
        let lat = snap.histogram("nic.latency_ns").expect("latency histogram");
        assert_eq!(lat.count, 1);
        assert!(lat.min > 0);
    }

    #[test]
    fn sync_gauges_publishes_per_engine_utilization() {
        let reg = Registry::new();
        let mut nic = SmartNic::with_registry(
            NicConfig::agilio_cx_40g(),
            Box::new(PassthroughDecider),
            &reg,
        );
        for i in 0..50 {
            let _ = nic.rx(&pkt(i, 0, 1518), Nanos::from_nanos(i * 300));
        }
        let horizon = Nanos::from_micros(20);
        nic.sync_gauges(horizon);
        let snap = reg.snapshot(horizon);
        let engines: Vec<_> = snap
            .entries
            .iter()
            .filter(|e| e.name.starts_with("nic.me"))
            .collect();
        assert_eq!(engines.len(), nic.config().num_mes);
        assert!(
            engines
                .iter()
                .any(|e| !matches!(e.value, fv_telemetry::MetricValue::Gauge { value: 0, .. })),
            "no engine showed utilization"
        );
    }

    #[test]
    fn transmit_path_stamps_stage_spans() {
        let reg = Registry::with_sampler(1024, fv_telemetry::Sampler::one_in_pow2(0));
        let mut nic = SmartNic::with_registry(
            NicConfig::agilio_cx_40g(),
            Box::new(PassthroughDecider),
            &reg,
        );
        // Two back-to-back MTU frames: the second waits in the TM FIFO.
        assert!(matches!(
            nic.rx(&pkt(7, 0, 1518), Nanos::ZERO),
            RxOutcome::Transmit { .. }
        ));
        assert!(matches!(
            nic.rx(&pkt(8, 0, 1518), Nanos::from_nanos(1)),
            RxOutcome::Transmit { .. }
        ));
        let snap = reg.snapshot(Nanos::from_micros(10));
        for metric in ["span.ingress_ns", "span.tm_queue_ns", "span.wire_ns"] {
            let h = snap.histogram(metric).unwrap_or_else(|| panic!("{metric}"));
            assert_eq!(h.count, 2, "{metric}");
        }
        // Wire spans carry the serialization time; the second packet's
        // tm_queue span is nonzero (it queued behind the first).
        let wire = snap.histogram("span.wire_ns").unwrap();
        assert!(wire.min > 0);
        let events = reg.ring().recent(64);
        assert!(events
            .iter()
            .any(|e| e.kind == TraceKind::SpanWire && e.a == 8 && e.b > 0));
        assert!(events
            .iter()
            .any(|e| e.kind == TraceKind::SpanTmQueue && e.a == 8 && e.b > 0));
    }

    /// Corrupts every TM enqueue inside `[2us, 4us)`; clean elsewhere.
    #[derive(Debug)]
    struct Window;
    impl FaultInjector for Window {
        fn tm_fault(&self, now: Nanos, _pkt_id: u64) -> TmFault {
            if now >= Nanos::from_micros(2) && now < Nanos::from_micros(4) {
                TmFault::CorruptDrop
            } else {
                TmFault::None
            }
        }
    }

    #[test]
    fn installed_injector_perturbs_and_then_clears() {
        let reg = Registry::new();
        let mut nic = SmartNic::with_registry(
            NicConfig::agilio_cx_40g(),
            Box::new(PassthroughDecider),
            &reg,
        );
        nic.install_fault_injector(Arc::new(Window));
        let gap = Nanos::from_micros(1);
        let mut fault_drops = 0;
        let mut transmitted = 0;
        for i in 0..8u64 {
            match nic.rx(&pkt(i, 0, 1518), gap * i) {
                RxOutcome::FaultDrop { .. } => fault_drops += 1,
                RxOutcome::Transmit { .. } => transmitted += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(fault_drops, 2); // t = 2us, 3us
        assert_eq!(transmitted, 6);
        let s = nic.stats();
        assert_eq!(s.fault_drops, 2);
        assert_eq!(reg.snapshot(Nanos::ZERO).counter("nic.fault_drops"), 2);
        assert_eq!(reg.snapshot(Nanos::ZERO).counter("tm.fifo.fault_drops"), 2);
    }

    #[test]
    fn unobserved_nic_counts_fault_drops_and_conserves_packets() {
        let mut nic = SmartNic::new(NicConfig::agilio_cx_40g(), Box::new(DropVf1));
        nic.install_fault_injector(Arc::new(Window));
        // 64 B at 125 Mpps over both VFs for 200 us: past the fault window and
        // the 50 us receive budget.
        for i in 0..25_000u64 {
            let _ = nic.rx(&pkt(i, (i % 2) as u8, 64), Nanos::from_nanos(i * 8));
        }
        let s = nic.stats();
        assert!(
            s.fault_drops > 0 && s.rx_drops > 0 && s.sched_drops > 0,
            "{s:?}"
        );
        assert_eq!(
            s.offered,
            s.rx_drops + s.sched_drops + s.tail_drops + s.fault_drops + s.tx_packets
        );
        // Nothing to publish into: a no-op, not a panic.
        nic.sync_gauges(Nanos::from_micros(8));
    }

    /// Drops every packet of VF 1; VF 0 contends for one lock, blocking on
    /// every eighth packet.
    struct LockingDropVf1;
    impl EgressDecider for LockingDropVf1 {
        fn decide(
            &mut self,
            pkt: &Packet,
            now: Nanos,
            meter: &mut CostMeter,
            locks: &mut LockTable,
        ) -> Decision {
            if pkt.vf.0 == 1 {
                return Decision::Drop;
            }
            let hold = Nanos::from_nanos(120);
            meter.charge(Op::LockOp);
            if pkt.id.is_multiple_of(8) {
                locks.acquire(crate::lock::LockId(0), now, hold);
            } else if locks.try_acquire(crate::lock::LockId(0), now, hold) {
                meter.charge(Op::ClassUpdate);
            }
            Decision::Forward
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn observing_a_nic_does_not_change_what_it_does() {
        use sim_core::rng::SimRng;

        // 12 000 packets over two VFs: MTU frames at ~3x line rate (the TM
        // FIFO fills and tail-drops), then 64 B frames at ~5x the compute
        // bound (the receive ring overflows), then a trickle.
        let mut rng = SimRng::seed(0x0b5e_77ed);
        let mut t = Nanos::ZERO;
        let stream: Vec<(Packet, Nanos)> = (0..12_000u64)
            .map(|id| {
                let (len, gap) = match id {
                    0..=3_999 => (1518, rng.range(40, 160)),
                    4_000..=9_999 => (64, rng.range(2, 18)),
                    _ => (1518, rng.range(200, 2_000)),
                };
                t += Nanos::from_nanos(gap);
                let vf = u8::from(rng.uniform() < 0.25);
                (pkt(id, vf, len), t)
            })
            .collect();
        let horizon = t;
        let drive = |mut nic: SmartNic| {
            let outcomes: Vec<RxOutcome> = stream.iter().map(|(p, at)| nic.rx(p, *at)).collect();
            (outcomes, nic)
        };

        let cfg = NicConfig::agilio_cx_40g();
        let (bare_out, bare) = drive(SmartNic::new(cfg.clone(), Box::new(LockingDropVf1)));
        let reg = Registry::new();
        let (seen_out, seen) = drive(SmartNic::with_registry(cfg, Box::new(LockingDropVf1), &reg));

        let s = bare.stats();
        assert!(
            s.rx_drops > 0 && s.sched_drops > 0 && s.tail_drops > 0 && s.tx_packets > 0,
            "the stream must reach every outcome: {s:?}"
        );
        let l = bare.lock_stats();
        assert!(l.try_failed > 0 && l.contended > 0, "{l:?}");

        assert_eq!(bare_out, seen_out);
        assert_eq!(s, seen.stats());
        assert_eq!(l, seen.lock_stats());
        assert_eq!(bare.per_lock_stats(), seen.per_lock_stats());
        assert_eq!(
            bare.worker_utilization(horizon).to_bits(),
            seen.worker_utilization(horizon).to_bits()
        );

        // The observed NIC's registry carries the same tallies (fault
        // drops join it only with an injector).
        let snap = reg.snapshot(horizon);
        for (name, tally) in [
            ("nic.offered", s.offered),
            ("nic.rx_drops", s.rx_drops),
            ("nic.sched_drops", s.sched_drops),
            ("nic.tail_drops", s.tail_drops),
            ("nic.tx_packets", s.tx_packets),
            ("nic.tx_bits", s.tx_bits),
            ("tm.fifo.tx_packets", s.tx_packets),
            ("tm.fifo.tx_bits", s.tx_bits),
            ("tm.fifo.tail_drops", s.tail_drops),
        ] {
            assert_eq!(snap.counter(name), tally, "{name}");
        }
        // So do the lock tallies: the registry and the sums over the
        // per-lock rows are `lock_stats()` (equal on both NICs, above).
        let rows = seen.per_lock_stats();
        let summed = crate::lock::LockStats {
            try_acquired: rows.iter().map(|r| r.acquires).sum(),
            try_failed: rows.iter().map(|r| r.try_failed).sum(),
            contended: rows.iter().map(|r| r.contended).sum(),
            wait_total: rows.iter().map(|r| r.wait_total).sum(),
        };
        let registered = crate::lock::LockStats {
            try_acquired: snap.counter("lock.try_acquired"),
            try_failed: snap.counter("lock.try_failed"),
            contended: snap.counter("lock.contended"),
            wait_total: Nanos::from_nanos(snap.counter("lock.wait_ns")),
        };
        assert_eq!(summed, l);
        assert_eq!(registered, l);
        assert_eq!(s.fault_drops, 0);
        assert_eq!(
            s.offered,
            s.rx_drops + s.sched_drops + s.tail_drops + s.tx_packets
        );
    }

    #[test]
    fn debug_impl_mentions_decider() {
        let nic = SmartNic::new(NicConfig::agilio_cx_40g(), Box::new(PassthroughDecider));
        assert!(format!("{nic:?}").contains("passthrough"));
    }
}
