//! The PRIO qdisc: strict-priority bands.
//!
//! The classic classful priority scheduler FlowValve offloads (paper §I):
//! N FIFO bands, dequeue always serves the highest-priority (lowest-index)
//! non-empty band.

use netstack::packet::Packet;

use crate::fifo::{PacketFifo, QueueDrop};

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
}

// Kept public, and every method with it, as the reference
// `tests/baseline_references.rs` holds FlowValve to.
#[allow(dead_code)]
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
        }
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
        let r = self.bands[band].push(pkt);
        if r.is_ok() {
            self.enqueued += 1;
        }
        r
    }

    /// Dequeues from the highest-priority non-empty band.
    pub fn dequeue(&mut self) -> Option<Packet> {
        let p = self.bands.iter_mut().find_map(PacketFifo::pop)?;
        self.dequeued += 1;
        Some(p)
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
    }

    #[test]
    #[should_panic]
    fn zero_bands_rejected() {
        let _ = Prio::new(0, 1, 1);
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
        q.enqueue(0, sized(0, 64)).unwrap();
        q.enqueue(0, sized(1, 64)).unwrap();
        assert_eq!(q.enqueue(0, sized(2, 64)), Err(QueueDrop::OverPkts));
        q.enqueue(1, sized(3, 200)).unwrap();
        assert_eq!(q.enqueue(1, sized(4, 100)), Err(QueueDrop::OverBytes));
        assert_eq!(q.drops(), 2);
        assert_eq!((q.enqueued(), q.backlog_pkts()), (3, 3));
    }
}
