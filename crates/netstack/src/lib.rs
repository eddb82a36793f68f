//! Packet, flow and TCP-model substrate for the FlowValve reproduction.
//!
//! This crate provides everything packet-shaped that the rest of the
//! workspace consumes:
//!
//! * [`flow`] — IPv4 5-tuples ([`FlowKey`]) with stable hashing for
//!   RSS-style placement.
//! * [`packet`] — the simulation [`Packet`] (flow key + frame length +
//!   provenance), deliberately payload-free for 40 Gbps-scale simulation.
//! * [`tcp`] — a NewReno-style AIMD window model; the congestion-responsive
//!   senders behind the paper's Figure 3 / Figure 11 throughput plots.
//! * [`gen`] — open-loop arrival processes (CBR, Poisson, on/off,
//!   line-rate injection) for the Figure 13/14 stress experiments.
//!
//! # Example
//!
//! ```
//! use netstack::flow::FlowKey;
//! use netstack::packet::{AppId, Packet, VfPort};
//! use sim_core::time::Nanos;
//!
//! let flow = FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 5001);
//! let pkt = Packet::new(0, flow, 1518, AppId(0), VfPort(0), Nanos::ZERO);
//! assert_eq!(pkt.frame_bits(), 12_144);
//! ```

pub mod flow;
pub mod gen;
pub mod packet;
pub mod tcp;

pub use flow::{FlowKey, IpProto};
pub use packet::{AppId, Packet, PacketIdGen, VfPort};
pub use tcp::TcpConn;
