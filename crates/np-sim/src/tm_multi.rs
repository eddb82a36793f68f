//! The *inflexible* NIC traffic manager (paper §II-B): multiple FIFO
//! queues served by a fixed scheme — strict priorities between levels,
//! weighted round-robin within a level — with no runtime reconfiguration.
//!
//! This is the on-NIC queueing system FlowValve refuses to rely on: it can
//! express per-queue fairness and static priorities, but *conditional*
//! policies ("give ML 2 Gbps only when the total exceeds 4 Gbps",
//! "NC's residual goes to S1") need runtime rate recomputation that a
//! fixed scheme cannot do. The `ablation_nic_scheduler` bench demonstrates
//! exactly that failure.

use std::collections::VecDeque;

use netstack::packet::Packet;
use sim_core::time::Nanos;
use sim_core::units::{BitRate, WireFraming};

/// Static configuration of one hardware queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HwQueueConfig {
    /// Strict priority level (lower served first).
    pub prio: u8,
    /// WRR weight within the priority level.
    pub weight: u32,
    /// Queue capacity in packets.
    pub capacity: usize,
}

impl Default for HwQueueConfig {
    fn default() -> Self {
        HwQueueConfig {
            prio: 0,
            weight: 1,
            capacity: 512,
        }
    }
}

struct HwQueue {
    cfg: HwQueueConfig,
    queue: VecDeque<Packet>,
    /// WRR deficit in bytes.
    deficit: i64,
}

/// A fixed-function multi-queue traffic manager in front of a wire.
///
/// # Example
///
/// ```
/// use netstack::flow::FlowKey;
/// use netstack::packet::{AppId, Packet, VfPort};
/// use np_sim::tm_multi::{HwQueueConfig, MultiQueueTm};
/// use sim_core::time::Nanos;
/// use sim_core::units::{BitRate, WireFraming};
///
/// let mut tm = MultiQueueTm::new(
///     BitRate::from_gbps(10.0),
///     WireFraming::ETHERNET,
///     vec![
///         HwQueueConfig { prio: 0, ..Default::default() }, // latency queue
///         HwQueueConfig { prio: 1, ..Default::default() }, // bulk queue
///     ],
/// );
/// let flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 0, 2], 2);
/// tm.enqueue(1, Packet::new(0, flow, 1518, AppId(0), VfPort(0), Nanos::ZERO));
/// tm.enqueue(0, Packet::new(1, flow, 64, AppId(1), VfPort(0), Nanos::ZERO));
/// // Strict priority: queue 0 dequeues first.
/// assert_eq!(tm.dequeue(Nanos::ZERO).map(|(p, _)| p.id), Some(1));
/// ```
pub struct MultiQueueTm {
    queues: Vec<HwQueue>,
    rate: BitRate,
    framing: WireFraming,
    wire_free: Nanos,
    rr_cursor: usize,
}

impl core::fmt::Debug for MultiQueueTm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MultiQueueTm")
            .field("queues", &self.queues.len())
            .finish_non_exhaustive()
    }
}

impl MultiQueueTm {
    /// Creates a traffic manager with the given fixed queue scheme.
    ///
    /// # Panics
    ///
    /// Panics if `queues` is empty or `rate` is zero.
    pub fn new(rate: BitRate, framing: WireFraming, queues: Vec<HwQueueConfig>) -> Self {
        assert!(!queues.is_empty(), "need at least one queue");
        assert!(rate > BitRate::ZERO, "wire rate must be positive");
        MultiQueueTm {
            queues: queues
                .into_iter()
                .map(|cfg| HwQueue {
                    cfg,
                    queue: VecDeque::new(),
                    deficit: 0,
                })
                .collect(),
            rate,
            framing,
            wire_free: Nanos::ZERO,
            rr_cursor: 0,
        }
    }

    /// Offers a packet to queue `q`; returns whether it was accepted
    /// (tail drop otherwise).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn enqueue(&mut self, q: usize, pkt: Packet) -> bool {
        let hq = &mut self.queues[q];
        let accepted = hq.queue.len() < hq.cfg.capacity;
        if accepted {
            hq.queue.push_back(pkt);
        }
        accepted
    }

    /// Dequeues per the fixed scheme at `now`, returning the packet and
    /// its wire-completion time. Returns `None` when every queue is empty
    /// or the wire is still busy at `now`.
    pub fn dequeue(&mut self, now: Nanos) -> Option<(Packet, Nanos)> {
        if self.wire_free > now {
            return None;
        }
        // Highest-priority non-empty level.
        let best_prio = self
            .queues
            .iter()
            .filter(|q| !q.queue.is_empty())
            .map(|q| q.cfg.prio)
            .min()?;
        let candidates: Vec<usize> = (0..self.queues.len())
            .filter(|&i| self.queues[i].cfg.prio == best_prio && !self.queues[i].queue.is_empty())
            .collect();
        // WRR within the level: quantum = weight × MTU.
        let n = candidates.len();
        for pass in 0..2 {
            for k in 0..n {
                let i = candidates[(self.rr_cursor + k) % n];
                let head_len = self.queues[i]
                    .queue
                    .front()
                    .map(|p| p.frame_len as i64)
                    .expect("candidate is non-empty");
                if self.queues[i].deficit >= head_len {
                    self.queues[i].deficit -= head_len;
                    self.rr_cursor = (self.rr_cursor + k) % n;
                    let pkt = self.queues[i].queue.pop_front().expect("non-empty");
                    let start = self.wire_free.max(now);
                    self.wire_free = start
                        + self
                            .framing
                            .serialization_time(self.rate, pkt.frame_len as u64);
                    return Some((pkt, self.wire_free));
                }
                if pass == 0 {
                    self.queues[i].deficit += (self.queues[i].cfg.weight as i64) * 1_518;
                }
            }
        }
        unreachable!("WRR quantum covers at least one MTU");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::flow::FlowKey;
    use netstack::packet::{AppId, VfPort};

    fn pkt(id: u64, app: u16, len: u32) -> Packet {
        let flow = FlowKey::tcp([10, 0, 0, 1], 1000 + app, [10, 0, 0, 2], 80);
        Packet::new(id, flow, len, AppId(app), VfPort(0), Nanos::ZERO)
    }

    fn drain_all(tm: &mut MultiQueueTm) -> Vec<u64> {
        let mut out = Vec::new();
        let mut now = Nanos::ZERO;
        while let Some((p, done)) = tm.dequeue(now) {
            out.push(p.id);
            now = done;
        }
        out
    }

    #[test]
    fn strict_priority_between_levels() {
        let mut tm = MultiQueueTm::new(
            BitRate::from_gbps(10.0),
            WireFraming::ETHERNET,
            vec![
                HwQueueConfig {
                    prio: 0,
                    ..Default::default()
                },
                HwQueueConfig {
                    prio: 1,
                    ..Default::default()
                },
            ],
        );
        tm.enqueue(1, pkt(0, 1, 1518));
        tm.enqueue(1, pkt(1, 1, 1518));
        tm.enqueue(0, pkt(2, 0, 64));
        let order = drain_all(&mut tm);
        assert_eq!(order[0], 2, "priority queue not served first");
    }

    #[test]
    fn wrr_within_a_level_follows_weights() {
        let mut tm = MultiQueueTm::new(
            BitRate::from_gbps(10.0),
            WireFraming::ETHERNET,
            vec![
                HwQueueConfig {
                    prio: 0,
                    weight: 3,
                    capacity: 4_096,
                },
                HwQueueConfig {
                    prio: 0,
                    weight: 1,
                    capacity: 4_096,
                },
            ],
        );
        for i in 0..2_000u64 {
            tm.enqueue((i % 2) as usize, pkt(i, (i % 2) as u16, 1_518));
        }
        let mut counts = [0u64; 2];
        let mut now = Nanos::ZERO;
        for _ in 0..1_000 {
            let (p, done) = tm.dequeue(now).expect("backlogged");
            counts[p.app.0 as usize] += 1;
            now = done;
        }
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((2.4..3.6).contains(&ratio), "WRR ratio {ratio}, want ~3");
    }

    #[test]
    fn wire_paces_dequeues() {
        let mut tm = MultiQueueTm::new(
            BitRate::from_gbps(10.0),
            WireFraming::NONE,
            vec![HwQueueConfig::default()],
        );
        tm.enqueue(0, pkt(0, 0, 1_250));
        tm.enqueue(0, pkt(1, 0, 1_250));
        let (_, done) = tm.dequeue(Nanos::ZERO).expect("queued");
        // Wire busy until `done`: a dequeue before that returns None.
        assert!(tm.dequeue(done - Nanos::from_nanos(1)).is_none());
        assert!(tm.dequeue(done).is_some());
    }

    #[test]
    fn tail_drop_when_queue_full() {
        let mut tm = MultiQueueTm::new(
            BitRate::from_gbps(10.0),
            WireFraming::ETHERNET,
            vec![HwQueueConfig {
                capacity: 1,
                ..Default::default()
            }],
        );
        assert!(tm.enqueue(0, pkt(0, 0, 64)));
        assert!(!tm.enqueue(0, pkt(1, 0, 64)));
        assert_eq!(tm.queues[0].queue.len(), 1);
    }

    #[test]
    fn empty_tm_dequeues_none() {
        let mut tm = MultiQueueTm::new(
            BitRate::from_gbps(1.0),
            WireFraming::ETHERNET,
            vec![HwQueueConfig::default()],
        );
        assert!(tm.dequeue(Nanos::ZERO).is_none());
    }
}
