//! Baseline software schedulers for the FlowValve reproduction.
//!
//! The paper evaluates FlowValve against two widely deployed software
//! schedulers; this crate models both, plus the building blocks they share:
//!
//! * [`htb`] — a kernel-style Hierarchy Token Bucket with the measured
//!   CentOS 7 behaviours behind explicit knobs (GSO undercharging that
//!   overruns ceilings, quantum-only borrowing that ignores leaf priority,
//!   coarse watchdog timers). These are the artifacts of the paper's
//!   Figure 3.
//! * [`prio`] — strict-priority bands (the kernel PRIO qdisc) and
//!   [`tbf`] — a token-bucket *shaper*: the two reference implementations
//!   `tests/baseline_references.rs` compares a FlowValve policy against.
//!   `prio` is also the fixed-function NIC traffic manager of the §II-B
//!   ablation; no figure builds `tbf`. Nothing observes either.
//! * [`dpdk`] — a DPDK QoS Scheduler model (subport → pipe → strict-prio
//!   traffic classes) with exact conformance.
//! * [`costmodel`] — the CPU cost side of Figure 13: cores-per-Mpps for
//!   DPDK and the kernel qdisc lock.
//! * [`fifo`] — the byte/packet-bounded FIFO underlying all of the above.

pub mod costmodel;
pub mod dpdk;
pub mod fifo;
pub mod htb;
pub mod prio;
pub mod tbf;

pub use costmodel::{DpdkCpuModel, KernelCpuModel};
pub use dpdk::{DpdkQos, DpdkQosConfig, PipeConfig};
pub use fifo::{PacketFifo, QueueDrop};
pub use htb::{Handle, Htb, HtbClassSpec, HtbError, KernelModel};
pub use prio::Prio;
pub use tbf::Tbf;
