//! The Token Bucket Filter (TBF) qdisc: a single-class shaper.
//!
//! TBF is the textbook *shaper* FlowValve contrasts itself against: it
//! buffers non-conforming packets and releases them when tokens accrue,
//! which requires exactly the queue control NP hardware lacks. It serves
//! as the reference shaper for rate-conformance comparisons.

use netstack::packet::Packet;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

use crate::fifo::{PacketFifo, QueueDrop};

/// A token bucket filter.
///
/// # Example
///
/// ```
/// use netstack::flow::FlowKey;
/// use netstack::packet::{AppId, Packet, VfPort};
/// use qdisc::tbf::Tbf;
/// use sim_core::time::Nanos;
/// use sim_core::units::BitRate;
///
/// // 1 Gbps with a 10 KB burst.
/// let mut tbf = Tbf::new(BitRate::from_gbps(1.0), 10_000, 1 << 20, 1_000);
/// let flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 0, 2], 2);
/// let pkt = Packet::new(0, flow, 1250, AppId(0), VfPort(0), Nanos::ZERO);
/// tbf.enqueue(pkt)?;
/// // Within the burst: releases immediately.
/// assert!(tbf.dequeue(Nanos::ZERO).is_some());
/// # Ok::<(), qdisc::fifo::QueueDrop>(())
/// ```
#[derive(Debug)]
pub struct Tbf {
    rate: BitRate,
    burst_bits: i64,
    tokens: i64,
    last: Nanos,
    queue: PacketFifo,
}

// Kept public, and every method with it, as the reference
// `tests/baseline_references.rs` holds FlowValve to.
#[allow(dead_code)]
impl Tbf {
    /// Creates a TBF shaping to `rate` with `burst_bytes` of burst and the
    /// given queue limits.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero or `burst_bytes` is zero.
    pub fn new(rate: BitRate, burst_bytes: u64, queue_bytes: u64, queue_pkts: usize) -> Self {
        assert!(rate > BitRate::ZERO, "rate must be positive");
        assert!(burst_bytes > 0, "burst must be positive");
        let burst_bits = (burst_bytes * 8) as i64;
        Tbf {
            rate,
            burst_bits,
            tokens: burst_bits,
            last: Nanos::ZERO,
            queue: PacketFifo::new(queue_bytes, queue_pkts),
        }
    }

    /// Queues a packet for shaping.
    ///
    /// # Errors
    ///
    /// [`QueueDrop::OverPkts`] / [`QueueDrop::OverBytes`] when the backlog
    /// is full, naming which limit refused the packet.
    pub fn enqueue(&mut self, pkt: Packet) -> Result<(), QueueDrop> {
        self.queue.push(pkt)
    }

    fn refill(&mut self, now: Nanos) {
        let dt = now.saturating_sub(self.last);
        if dt > Nanos::ZERO {
            self.last = now;
            self.tokens = (self.tokens + self.rate.bits_in(dt) as i64).min(self.burst_bits);
        }
    }

    /// Releases the head packet if tokens cover it.
    pub fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.refill(now);
        let bits = self.queue.peek()?.frame_bits() as i64;
        if self.tokens >= bits {
            self.tokens -= bits;
            self.queue.pop()
        } else {
            None
        }
    }

    /// When the head packet will conform, or `None` if the queue is empty.
    pub fn next_ready(&self, now: Nanos) -> Option<Nanos> {
        let bits = self.queue.peek()?.frame_bits() as i64;
        let deficit = bits - self.tokens;
        if deficit <= 0 {
            return Some(now);
        }
        Some(now + self.rate.serialization_time(deficit as u64))
    }

    /// Queued packets.
    pub fn backlog_pkts(&self) -> usize {
        self.queue.len()
    }

    /// Packets refused at enqueue.
    pub fn drops(&self) -> u64 {
        self.queue.drops()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::flow::FlowKey;
    use netstack::packet::{AppId, VfPort};

    fn pkt(id: u64, len: u32) -> Packet {
        let flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 0, 2], 2);
        Packet::new(id, flow, len, AppId(0), VfPort(0), Nanos::ZERO)
    }

    #[test]
    fn burst_releases_immediately_then_throttles() {
        // 1 Gbps, 2500 B burst: two 1250 B packets pass, the third waits.
        let mut tbf = Tbf::new(BitRate::from_gbps(1.0), 2_500, 1 << 20, 100);
        for i in 0..3 {
            tbf.enqueue(pkt(i, 1250)).unwrap();
        }
        assert!(tbf.dequeue(Nanos::ZERO).is_some());
        assert!(tbf.dequeue(Nanos::ZERO).is_some());
        assert!(tbf.dequeue(Nanos::ZERO).is_none());
        // 10_000 bits at 1 Gbps = 10 us until the third conforms.
        assert_eq!(tbf.next_ready(Nanos::ZERO), Some(Nanos::from_micros(10)));
        assert!(tbf.dequeue(Nanos::from_micros(10)).is_some());
    }

    #[test]
    fn long_run_rate_matches_configuration() {
        let rate = BitRate::from_gbps(2.0);
        let mut tbf = Tbf::new(rate, 5_000, 10 << 20, 10_000);
        let mut t = Nanos::ZERO;
        let mut sent_bits = 0u64;
        let horizon = Nanos::from_millis(5);
        let mut id = 0;
        while t < horizon {
            while tbf.backlog_pkts() < 100 {
                let _ = tbf.enqueue(pkt(id, 1250));
                id += 1;
            }
            match tbf.dequeue(t) {
                Some(p) => sent_bits += p.frame_bits(),
                None => t = tbf.next_ready(t).unwrap().max(t + Nanos::from_nanos(1)),
            }
        }
        let gbps = sent_bits as f64 / horizon.as_secs_f64() / 1e9;
        assert!((gbps - 2.0).abs() < 0.1, "rate {gbps}");
    }

    #[test]
    fn empty_queue_has_no_ready_time() {
        let tbf = Tbf::new(BitRate::from_mbps(10), 1_000, 1 << 20, 10);
        assert_eq!(tbf.next_ready(Nanos::ZERO), None);
    }

    #[test]
    fn queue_limits_drop() {
        let mut tbf = Tbf::new(BitRate::from_mbps(1), 1_000, 1 << 20, 1);
        tbf.enqueue(pkt(0, 1250)).unwrap();
        assert!(tbf.enqueue(pkt(1, 1250)).is_err());
        assert_eq!(tbf.drops(), 1);
        assert_eq!(tbf.backlog_pkts(), 1);
    }

    #[test]
    fn byte_limit_drops_are_attributed() {
        // 2000-byte backlog: one 1250 B packet fits, the second overflows
        // the byte limit (packet limit is generous).
        let mut tbf = Tbf::new(BitRate::from_gbps(1.0), 10_000, 2_000, 100);
        tbf.enqueue(pkt(0, 1250)).unwrap();
        assert_eq!(tbf.enqueue(pkt(1, 1250)), Err(QueueDrop::OverBytes));
        assert_eq!((tbf.drops(), tbf.backlog_pkts()), (1, 1));
    }
}
