//! Simulation packet representation.
//!
//! Simulated packets carry their flow key and frame length rather than full
//! payload bytes (payloads would only burn memory at 40 Gbps simulation
//! scale): the classifier works on the flow key.

use core::fmt;

use sim_core::time::Nanos;

use crate::flow::FlowKey;

/// Identifies the application (or tenant) that produced a packet.
///
/// Only used for accounting in experiment output; the data plane never
/// consults it (classification works on the flow key, as on real hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(pub u16);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// The SR-IOV virtual function a packet entered the NIC through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VfPort(pub u8);

impl fmt::Display for VfPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vf{}", self.0)
    }
}

/// A simulated packet.
///
/// `frame_len` is the layer-2 frame length in bytes including the FCS (the
/// "packet size" axis of the paper's Figure 13); wire overhead (preamble +
/// IFG) is added by the wire model, not stored here.
///
/// # Example
///
/// ```
/// use netstack::flow::FlowKey;
/// use netstack::packet::{AppId, Packet, VfPort};
/// use sim_core::time::Nanos;
///
/// let p = Packet::new(
///     1,
///     FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 5001),
///     1518,
///     AppId(0),
///     VfPort(0),
///     Nanos::ZERO,
/// );
/// assert_eq!(p.frame_bits(), 1518 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Globally unique packet id (monotonic per experiment).
    pub id: u64,
    /// The 5-tuple this packet belongs to.
    pub flow: FlowKey,
    /// Layer-2 frame length in bytes, including FCS.
    pub frame_len: u32,
    /// Producing application, for accounting.
    pub app: AppId,
    /// Virtual function the packet entered through.
    pub vf: VfPort,
    /// When the sender created the packet.
    pub created_at: Nanos,
    /// Per-flow sequence number (for reorder detection).
    pub seq: u64,
}

impl Packet {
    /// Creates a packet with sequence number zero.
    ///
    /// # Panics
    ///
    /// Panics if `frame_len` is smaller than the 64-byte Ethernet minimum.
    pub fn new(
        id: u64,
        flow: FlowKey,
        frame_len: u32,
        app: AppId,
        vf: VfPort,
        created_at: Nanos,
    ) -> Self {
        assert!(frame_len >= 64, "frame below Ethernet minimum: {frame_len}");
        Packet {
            id,
            flow,
            frame_len,
            app,
            vf,
            created_at,
            seq: 0,
        }
    }

    /// Sets the per-flow sequence number (builder-style).
    pub fn with_seq(mut self, seq: u64) -> Self {
        self.seq = seq;
        self
    }

    /// Frame length in bits.
    pub fn frame_bits(&self) -> u64 {
        self.frame_len as u64 * 8
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pkt#{} [{}B {} {} seq={}]",
            self.id, self.frame_len, self.app, self.flow, self.seq
        )
    }
}

/// Allocates unique packet ids.
#[derive(Debug, Default, Clone)]
pub struct PacketIdGen {
    next: u64,
}

impl PacketIdGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the next unique id.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// How many ids have been handed out.
    pub fn issued(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowKey {
        FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], 5001)
    }

    #[test]
    fn packet_bits() {
        let p = Packet::new(0, flow(), 64, AppId(1), VfPort(2), Nanos::ZERO);
        assert_eq!(p.frame_bits(), 512);
    }

    #[test]
    #[should_panic]
    fn runt_frames_rejected() {
        let _ = Packet::new(0, flow(), 32, AppId(0), VfPort(0), Nanos::ZERO);
    }

    #[test]
    fn with_seq_builder() {
        let p = Packet::new(0, flow(), 64, AppId(0), VfPort(0), Nanos::ZERO).with_seq(9);
        assert_eq!(p.seq, 9);
    }

    #[test]
    fn id_gen_is_monotonic_unique() {
        let mut g = PacketIdGen::new();
        let a = g.next_id();
        let b = g.next_id();
        assert_ne!(a, b);
        assert_eq!(g.issued(), 2);
    }

    #[test]
    fn display_contains_key_fields() {
        let p = Packet::new(7, flow(), 128, AppId(3), VfPort(1), Nanos::ZERO);
        let s = p.to_string();
        assert!(s.contains("pkt#7") && s.contains("128B") && s.contains("app3"));
    }
}
