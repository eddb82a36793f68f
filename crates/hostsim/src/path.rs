//! Egress paths: how an application's packets reach the wire.
//!
//! Three paths mirror the paper's three systems under test:
//!
//! * [`EgressPath::FlowValve`] — SR-IOV VFs straight into the SmartNIC
//!   model; scheduling happens on the NIC (the offload path).
//! * [`EgressPath::Kernel`] — the kernel qdisc path: every enqueue and
//!   dequeue serializes on the qdisc lock before an HTB hierarchy drains
//!   onto the wire.
//! * [`EgressPath::Dpdk`] — the DPDK QoS scheduler: enqueue is cheap
//!   (poll-mode), but dequeue throughput is bounded by the dedicated
//!   scheduler cores.

use std::collections::HashMap;

use netstack::packet::{AppId, Packet};
use np_sim::nic::{RxOutcome, SmartNic};
use np_sim::tm::TxFifo;
use qdisc::costmodel::{DpdkCpuModel, KernelCpuModel};
use qdisc::dpdk::DpdkQos;
use qdisc::htb::{Handle, Htb};
use sim_core::time::Nanos;
use sim_core::units::{BitRate, ByteSize, WireFraming};

/// The fate of a packet offered to an egress path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The packet reached the receiver at `at`.
    Delivered {
        /// The packet.
        pkt: Packet,
        /// Delivery instant.
        at: Nanos,
    },
    /// The packet was dropped at `at`.
    Dropped {
        /// The packet.
        pkt: Packet,
        /// Drop instant.
        at: Nanos,
    },
}

impl Outcome {
    /// The packet inside, regardless of fate.
    pub fn packet(&self) -> &Packet {
        match self {
            Outcome::Delivered { pkt, .. } | Outcome::Dropped { pkt, .. } => pkt,
        }
    }
}

/// The wire behind a software path: the NIC's transmit FIFO.
fn host_wire(link: BitRate) -> TxFifo {
    TxFifo::new(link, WireFraming::ETHERNET, ByteSize::from_kib(1024))
}

/// Serializes `pkt` starting no earlier than `start`; returns the
/// completion time. A path polls again only once the wire is idle, so the
/// FIFO never holds a backlog and never tail-drops.
fn transmit(wire: &mut TxFifo, pkt: &Packet, start: Nanos) -> Nanos {
    wire.enqueue_pkt(pkt.frame_len, start, pkt.id)
        .expect("a software path hands the wire a frame only when it is idle")
}

/// An egress path under test.
//
// One value exists per simulation run, so the size spread between the
// SmartNic-carrying variant and the others is irrelevant; boxing would
// only add indirection on the per-packet path.
#[allow(clippy::large_enum_variant)]
pub enum EgressPath {
    /// Offloaded scheduling on the SmartNIC model.
    FlowValve {
        /// The NIC (with a FlowValve pipeline installed as its decider).
        nic: SmartNic,
    },
    /// Kernel qdisc path: qdisc lock + HTB + wire.
    Kernel {
        /// The HTB hierarchy.
        htb: Htb,
        /// App → leaf class routing (the `tc filter` outcome).
        class_of: HashMap<AppId, Handle>,
        /// Qdisc lock and CPU cost model.
        cpu: KernelCpuModel,
        /// Last time each app's sender touched the qdisc (drives the
        /// dynamic contention count: only recently-active senders spin).
        last_seen: HashMap<AppId, Nanos>,
        /// The qdisc lock's next-free time.
        lock_free: Nanos,
        /// The wire behind the qdisc.
        wire: TxFifo,
        /// Fixed NIC forwarding latency after the wire.
        nic_latency: Nanos,
    },
    /// DPDK QoS scheduler path.
    Dpdk {
        /// The hierarchical scheduler.
        sched: DpdkQos,
        /// App → (pipe, traffic class) routing.
        pipe_of: HashMap<AppId, (usize, usize)>,
        /// CPU cost model bounding dequeue throughput.
        cpu: DpdkCpuModel,
        /// Dedicated scheduler cores.
        cores: usize,
        /// Next instant the scheduler cores can process another packet.
        core_free: Nanos,
        /// The wire behind the scheduler.
        wire: TxFifo,
        /// Fixed NIC forwarding latency after the wire.
        nic_latency: Nanos,
    },
}

impl core::fmt::Debug for EgressPath {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "EgressPath::{}", self.name())
    }
}

impl EgressPath {
    /// A FlowValve offload path. Like the other two constructors it
    /// attaches no observer: a caller that wants the run observed builds
    /// the NIC `with_registry` and calls `attach_telemetry` on the
    /// pipeline before handing it over, and snapshots the registry it
    /// kept. (The software baselines have no observer to attach.)
    pub fn flowvalve(nic: SmartNic) -> Self {
        EgressPath::FlowValve { nic }
    }

    /// A kernel HTB path on `link`. The contention count adapts to how
    /// many distinct apps sent within the last millisecond.
    pub fn kernel(htb: Htb, class_of: HashMap<AppId, Handle>, link: BitRate) -> Self {
        EgressPath::Kernel {
            htb,
            class_of,
            cpu: KernelCpuModel::default(),
            last_seen: HashMap::new(),
            lock_free: Nanos::ZERO,
            wire: host_wire(link),
            nic_latency: Nanos::from_micros(25),
        }
    }

    /// A DPDK QoS path on `link` with `cores` scheduler cores.
    pub fn dpdk(
        sched: DpdkQos,
        pipe_of: HashMap<AppId, (usize, usize)>,
        link: BitRate,
        cores: usize,
    ) -> Self {
        EgressPath::Dpdk {
            sched,
            pipe_of,
            cpu: DpdkCpuModel::default(),
            cores,
            core_free: Nanos::ZERO,
            wire: host_wire(link),
            nic_latency: Nanos::from_micros(25),
        }
    }

    /// Short path name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            EgressPath::FlowValve { .. } => "flowvalve",
            EgressPath::Kernel { .. } => "kernel-htb",
            EgressPath::Dpdk { .. } => "dpdk-qos",
        }
    }

    /// Offers one packet at `now`. Returns the synchronous outcome (the
    /// offload path resolves immediately; software paths queue and return
    /// `None` unless the packet is dropped at enqueue) and whether the
    /// caller should (re)arm polling.
    pub fn send(&mut self, pkt: Packet, now: Nanos) -> (Option<Outcome>, bool) {
        match self {
            EgressPath::FlowValve { nic } => {
                let out = match nic.rx(&pkt, now) {
                    RxOutcome::Transmit { delivered, .. } => {
                        Outcome::Delivered { pkt, at: delivered }
                    }
                    RxOutcome::RxDrop => Outcome::Dropped { pkt, at: now },
                    RxOutcome::SchedDrop { at }
                    | RxOutcome::TailDrop { at }
                    | RxOutcome::FaultDrop { at } => Outcome::Dropped { pkt, at },
                };
                (Some(out), false)
            }
            EgressPath::Kernel {
                htb,
                class_of,
                cpu,
                last_seen,
                lock_free,
                ..
            } => {
                // Enqueue serializes on the qdisc lock; contention scales
                // with the senders active within the last millisecond.
                last_seen.insert(pkt.app, now);
                let active = last_seen
                    .values()
                    .filter(|&&t| now.saturating_sub(t) < Nanos::from_millis(1))
                    .count()
                    .max(1);
                let start = (*lock_free).max(now);
                *lock_free = start + cpu.per_packet(active);
                let class = class_of[&pkt.app];
                match htb.enqueue(class, pkt).expect("valid class mapping") {
                    Ok(()) => (None, true),
                    Err(_) => (Some(Outcome::Dropped { pkt, at: start }), false),
                }
            }
            EgressPath::Dpdk { sched, pipe_of, .. } => {
                let (pipe, tc) = pipe_of[&pkt.app];
                match sched.enqueue(pipe, tc, pkt) {
                    Ok(()) => (None, true),
                    Err(_) => (Some(Outcome::Dropped { pkt, at: now }), false),
                }
            }
        }
    }

    /// Attempts one dequeue at `now`. Returns a delivery (if the scheduler
    /// released a packet) and the next instant to poll (`None` = go idle
    /// until the next send re-arms polling).
    pub fn poll(&mut self, now: Nanos) -> (Option<Outcome>, Option<Nanos>) {
        match self {
            EgressPath::FlowValve { .. } => (None, None),
            EgressPath::Kernel {
                htb,
                cpu,
                lock_free,
                wire,
                nic_latency,
                ..
            } => match htb.dequeue(now) {
                Some(pkt) => {
                    // Dequeue also runs under the qdisc lock (uncontended
                    // softirq half-cost); the DMA handoff overlaps with the
                    // previous packet's serialization.
                    let start = (*lock_free).max(now);
                    *lock_free = start + cpu.per_packet(1) / 2;
                    let done = transmit(wire, &pkt, start);
                    let at = done + *nic_latency;
                    (
                        Some(Outcome::Delivered { pkt, at }),
                        Some(done.max(*lock_free)),
                    )
                }
                None => (None, htb.next_ready(now)),
            },
            EgressPath::Dpdk {
                sched,
                cpu,
                cores,
                core_free,
                wire,
                nic_latency,
                ..
            } => {
                // Scheduler cores bound the dequeue rate.
                let service = Nanos::from_nanos((1e9 / cpu.max_pps(*cores)) as u64);
                let start = (*core_free).max(now);
                match sched.dequeue(start) {
                    Some(pkt) => {
                        *core_free = start + service;
                        let done = transmit(wire, &pkt, start);
                        let at = done + *nic_latency;
                        (
                            Some(Outcome::Delivered { pkt, at }),
                            Some(done.max(*core_free)),
                        )
                    }
                    None => (None, sched.next_ready(now)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::flow::FlowKey;
    use netstack::packet::VfPort;
    use np_sim::config::NicConfig;
    use np_sim::nic::PassthroughDecider;
    use qdisc::dpdk::DpdkQosConfig;
    use qdisc::htb::{HtbClassSpec, KernelModel};

    fn pkt(id: u64, app: u16) -> Packet {
        let flow = FlowKey::tcp([10, 0, 0, 1], 1000 + app, [10, 0, 0, 2], 5001);
        Packet::new(id, flow, 1518, AppId(app), VfPort(0), Nanos::ZERO)
    }

    fn kernel_path() -> EgressPath {
        let htb = Htb::new(
            vec![
                HtbClassSpec::new(Handle(1), None, BitRate::from_gbps(10.0)),
                HtbClassSpec::new(Handle(10), Some(Handle(1)), BitRate::from_gbps(10.0)),
            ],
            KernelModel::ideal(),
        )
        .unwrap();
        let mut map = HashMap::new();
        map.insert(AppId(0), Handle(10));
        EgressPath::kernel(htb, map, BitRate::from_gbps(10.0))
    }

    #[test]
    fn flowvalve_path_resolves_synchronously() {
        let nic = SmartNic::new(NicConfig::agilio_cx_40g(), Box::new(PassthroughDecider));
        let mut path = EgressPath::flowvalve(nic);
        let (out, arm) = path.send(pkt(0, 0), Nanos::ZERO);
        assert!(matches!(out, Some(Outcome::Delivered { .. })));
        assert!(!arm);
        assert_eq!(path.name(), "flowvalve");
        // Poll is a no-op.
        assert_eq!(path.poll(Nanos::ZERO), (None, None));
    }

    #[test]
    fn kernel_path_queues_then_delivers_on_poll() {
        let mut path = kernel_path();
        let (out, arm) = path.send(pkt(0, 0), Nanos::ZERO);
        assert!(out.is_none());
        assert!(arm);
        let (out, next) = path.poll(Nanos::from_micros(10));
        match out {
            Some(Outcome::Delivered { pkt: p, at }) => {
                assert_eq!(p.id, 0);
                assert!(at > Nanos::from_micros(10));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(next.is_some());
        // Queue now empty: poll goes idle.
        let (out, next) = path.poll(Nanos::from_millis(1));
        assert!(out.is_none());
        assert!(next.is_none());
    }

    #[test]
    fn kernel_lock_serializes_sends() {
        let mut path = kernel_path();
        for i in 0..10 {
            let _ = path.send(pkt(i, 0), Nanos::ZERO);
        }
        let EgressPath::Kernel { lock_free, cpu, .. } = &path else {
            panic!()
        };
        // Ten enqueues back-to-back from one app hold the lock for 10
        // single-sender per-packet costs.
        assert_eq!(*lock_free, Nanos::ZERO + cpu.per_packet(1) * 10);
    }

    #[test]
    fn dpdk_path_round_trips() {
        let sched = DpdkQos::new(DpdkQosConfig::equal_pipes(BitRate::from_gbps(10.0), 1));
        let mut map = HashMap::new();
        map.insert(AppId(0), (0usize, 0usize));
        let mut path = EgressPath::dpdk(sched, map, BitRate::from_gbps(10.0), 2);
        let (out, arm) = path.send(pkt(0, 0), Nanos::ZERO);
        assert!(out.is_none() && arm);
        let (out, _) = path.poll(Nanos::ZERO);
        assert!(matches!(out, Some(Outcome::Delivered { .. })));
        assert_eq!(path.name(), "dpdk-qos");
    }

    #[test]
    fn outcome_accessor() {
        let o = Outcome::Dropped {
            pkt: pkt(3, 0),
            at: Nanos::ZERO,
        };
        assert_eq!(o.packet().id, 3);
    }
}
