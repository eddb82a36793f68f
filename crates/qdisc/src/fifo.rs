//! A byte-bounded packet FIFO: the building block of every software qdisc.

use std::collections::VecDeque;

use netstack::packet::Packet;

pub use fv_telemetry::DropCause;

/// Why an enqueue was refused. Since the drop-cause unification this is
/// the shared [`fv_telemetry::DropCause`]; software qdiscs only ever produce
/// the [`DropCause::OverPkts`] / [`DropCause::OverBytes`] variants.
pub type QueueDrop = DropCause;

/// A FIFO with byte and packet limits.
///
/// # Example
///
/// ```
/// use netstack::flow::FlowKey;
/// use netstack::packet::{AppId, Packet, VfPort};
/// use qdisc::fifo::PacketFifo;
/// use sim_core::time::Nanos;
///
/// let mut q = PacketFifo::new(10_000, 100);
/// let flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 0, 2], 2);
/// let pkt = Packet::new(0, flow, 1500, AppId(0), VfPort(0), Nanos::ZERO);
/// q.push(pkt)?;
/// assert_eq!(q.len(), 1);
/// assert_eq!(q.pop().map(|p| p.id), Some(0));
/// # Ok::<(), qdisc::fifo::QueueDrop>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct PacketFifo {
    queue: VecDeque<Packet>,
    bytes: u64,
    byte_limit: u64,
    pkt_limit: usize,
    drops: u64,
}

impl PacketFifo {
    /// Creates a FIFO bounded by bytes and packet count.
    pub fn new(byte_limit: u64, pkt_limit: usize) -> Self {
        PacketFifo {
            queue: VecDeque::new(),
            bytes: 0,
            byte_limit,
            pkt_limit,
            drops: 0,
        }
    }

    /// Appends a packet.
    ///
    /// # Errors
    ///
    /// [`QueueDrop::OverPkts`] when the packet-count limit is reached,
    /// [`QueueDrop::OverBytes`] when the byte limit would be exceeded
    /// (packet limit checked first).
    pub fn push(&mut self, pkt: Packet) -> Result<(), QueueDrop> {
        if self.queue.len() >= self.pkt_limit {
            self.drops += 1;
            return Err(QueueDrop::OverPkts);
        }
        if self.bytes + pkt.frame_len as u64 > self.byte_limit {
            self.drops += 1;
            return Err(QueueDrop::OverBytes);
        }
        self.bytes += pkt.frame_len as u64;
        self.queue.push_back(pkt);
        Ok(())
    }

    /// Removes the head packet.
    pub fn pop(&mut self) -> Option<Packet> {
        let pkt = self.queue.pop_front()?;
        self.bytes -= pkt.frame_len as u64;
        Some(pkt)
    }

    /// The head packet without removing it.
    pub fn peek(&self) -> Option<&Packet> {
        self.queue.front()
    }

    /// Queued packet count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Packets refused so far.
    pub fn drops(&self) -> u64 {
        self.drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::flow::FlowKey;
    use netstack::packet::{AppId, VfPort};
    use sim_core::time::Nanos;

    fn pkt(id: u64, len: u32) -> Packet {
        let flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 0, 2], 2);
        Packet::new(id, flow, len, AppId(0), VfPort(0), Nanos::ZERO)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = PacketFifo::new(1 << 20, 1024);
        for i in 0..5 {
            q.push(pkt(i, 100)).unwrap();
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|p| p.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn byte_limit_enforced() {
        let mut q = PacketFifo::new(250, 1024);
        q.push(pkt(0, 100)).unwrap();
        q.push(pkt(1, 100)).unwrap();
        assert_eq!(q.push(pkt(2, 100)), Err(QueueDrop::OverBytes));
        assert_eq!(q.drops(), 1);
        assert_eq!(q.bytes, 200);
    }

    #[test]
    fn pkt_limit_enforced() {
        let mut q = PacketFifo::new(1 << 20, 2);
        q.push(pkt(0, 64)).unwrap();
        q.push(pkt(1, 64)).unwrap();
        assert_eq!(q.push(pkt(2, 64)), Err(QueueDrop::OverPkts));
        // Popping frees a slot.
        q.pop();
        assert!(q.push(pkt(3, 64)).is_ok());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = PacketFifo::new(1 << 20, 8);
        q.push(pkt(7, 64)).unwrap();
        assert_eq!(q.peek().map(|p| p.id), Some(7));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn bytes_track_pop() {
        let mut q = PacketFifo::new(1 << 20, 8);
        q.push(pkt(0, 100)).unwrap();
        q.push(pkt(1, 200)).unwrap();
        q.pop();
        assert_eq!(q.bytes, 200);
    }
}
