//! Stochastic Fairness Queueing (SFQ).
//!
//! The classic classless fair qdisc: flows hash into a fixed set of
//! buckets served round-robin with a byte quantum, and the hash is
//! perturbed periodically so colliding flows do not share fate forever.
//! Included as the software fair-queueing reference next to HTB and the
//! DPDK scheduler — per-flow fair without configuration, but with hash
//! collisions and no hierarchy or guarantees (which is why the paper's
//! policies need classful scheduling).

use std::sync::Arc;

use fv_telemetry::metrics::Gauge;
use fv_telemetry::CauseCounters;
use fv_telemetry::Registry;
use netstack::packet::Packet;
use sim_core::time::Nanos;

use crate::fifo::{PacketFifo, QueueDrop};

/// SFQ configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SfqConfig {
    /// Number of hash buckets (127 in the kernel's classic SFQ).
    pub buckets: usize,
    /// DRR quantum in bytes (one MTU by default).
    pub quantum: u32,
    /// Per-bucket packet limit.
    pub bucket_limit: usize,
    /// Hash perturbation period (0 = never, like `perturb 0`).
    pub perturb: Nanos,
}

impl Default for SfqConfig {
    fn default() -> Self {
        SfqConfig {
            buckets: 127,
            quantum: 1_518,
            bucket_limit: 127,
            perturb: Nanos::from_secs(10),
        }
    }
}

/// The SFQ qdisc.
///
/// # Example
///
/// ```
/// use netstack::flow::FlowKey;
/// use netstack::packet::{AppId, Packet, VfPort};
/// use qdisc::sfq::{Sfq, SfqConfig};
/// use sim_core::time::Nanos;
///
/// let mut sfq = Sfq::new(SfqConfig::default());
/// let flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 0, 2], 2);
/// sfq.enqueue(Packet::new(0, flow, 1000, AppId(0), VfPort(0), Nanos::ZERO), Nanos::ZERO)?;
/// assert_eq!(sfq.dequeue(Nanos::ZERO).map(|p| p.id), Some(0));
/// # Ok::<(), qdisc::fifo::QueueDrop>(())
/// ```
#[derive(Debug)]
pub struct Sfq {
    cfg: SfqConfig,
    buckets: Vec<PacketFifo>,
    deficits: Vec<i64>,
    rr_cursor: usize,
    perturbation: u64,
    next_perturb: Nanos,
    enqueued: u64,
    dequeued: u64,
    backlog_gauge: Option<Arc<Gauge>>,
    /// Per-bucket drop-cause split (`sfq.bucket.<i>.drop.<cause>`); each
    /// cause's counter registers on the first drop it counts.
    cause_counters: Option<Vec<CauseCounters>>,
}

impl Sfq {
    /// Creates an SFQ instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero buckets or a zero quantum.
    pub fn new(cfg: SfqConfig) -> Self {
        assert!(cfg.buckets > 0, "need at least one bucket");
        assert!(cfg.quantum > 0, "quantum must be positive");
        Sfq {
            buckets: (0..cfg.buckets)
                .map(|_| PacketFifo::new(u64::MAX, cfg.bucket_limit))
                .collect(),
            deficits: vec![0; cfg.buckets],
            rr_cursor: 0,
            perturbation: 0x9E37_79B9,
            next_perturb: if cfg.perturb == Nanos::ZERO {
                Nanos::MAX
            } else {
                cfg.perturb
            },
            enqueued: 0,
            dequeued: 0,
            backlog_gauge: None,
            cause_counters: None,
            cfg,
        }
    }

    /// Mirrors the total backlog into a `sfq.backlog_pkts` gauge; its
    /// high-water mark is the waterline `fv profile` reports. Also arms
    /// the per-bucket drop-cause split (`sfq.bucket.<i>.drop.<cause>`),
    /// whose counters register lazily on first drop.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.backlog_gauge = Some(registry.gauge("sfq.backlog_pkts"));
        self.cause_counters = Some(
            (0..self.buckets.len())
                .map(|i| CauseCounters::new(registry, format!("sfq.bucket.{i}")))
                .collect(),
        );
    }

    fn bucket_of(&self, pkt: &Packet) -> usize {
        ((pkt.flow.stable_hash() ^ self.perturbation) % self.buckets.len() as u64) as usize
    }

    fn maybe_perturb(&mut self, now: Nanos) {
        if now >= self.next_perturb {
            // Splitmix-style step decorrelates successive perturbations.
            self.perturbation = self
                .perturbation
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(0x1656_67B1);
            self.next_perturb = now + self.cfg.perturb;
        }
    }

    /// Enqueues a packet at time `now`.
    ///
    /// # Errors
    ///
    /// [`QueueDrop::OverPkts`] / [`QueueDrop::OverBytes`] if the flow's bucket is full.
    pub fn enqueue(&mut self, pkt: Packet, now: Nanos) -> Result<(), QueueDrop> {
        self.maybe_perturb(now);
        let b = self.bucket_of(&pkt);
        let r = self.buckets[b].push(pkt);
        match r {
            Ok(()) => {
                self.enqueued += 1;
                if let Some(g) = &self.backlog_gauge {
                    g.set(self.backlog_pkts() as u64);
                }
            }
            Err(cause) => {
                if let Some(cc) = &self.cause_counters {
                    cc[b].incr(cause);
                }
            }
        }
        r
    }

    /// Dequeues the next packet per DRR over non-empty buckets.
    pub fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.maybe_perturb(now);
        let n = self.buckets.len();
        if self.backlog_pkts() == 0 {
            return None;
        }
        for pass in 0..2 {
            for k in 0..n {
                let i = (self.rr_cursor + k) % n;
                let Some(head_len) = self.buckets[i].peek().map(|p| p.frame_len as i64) else {
                    continue;
                };
                if self.deficits[i] >= head_len {
                    self.deficits[i] -= head_len;
                    self.rr_cursor = i;
                    self.dequeued += 1;
                    let p = self.buckets[i].pop();
                    if let Some(g) = &self.backlog_gauge {
                        g.set(self.backlog_pkts() as u64);
                    }
                    return p;
                }
                if pass == 0 {
                    self.deficits[i] += self.cfg.quantum as i64;
                }
            }
        }
        unreachable!("quantum covers at least one MTU");
    }

    /// Total queued packets.
    pub fn backlog_pkts(&self) -> usize {
        self.buckets.iter().map(PacketFifo::len).sum()
    }

    /// Packets accepted so far.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Packets dequeued so far.
    pub fn dequeued(&self) -> u64 {
        self.dequeued
    }

    /// Drops across all buckets.
    pub fn drops(&self) -> u64 {
        self.buckets.iter().map(PacketFifo::drops).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::flow::FlowKey;
    use netstack::packet::{AppId, VfPort};

    fn pkt(id: u64, sport: u16) -> Packet {
        let flow = FlowKey::tcp([10, 0, 0, 1], sport, [10, 0, 0, 2], 80);
        Packet::new(id, flow, 1_000, AppId(0), VfPort(0), Nanos::ZERO)
    }

    #[test]
    fn single_flow_is_fifo() {
        let mut q = Sfq::new(SfqConfig::default());
        for i in 0..10 {
            q.enqueue(pkt(i, 1000), Nanos::ZERO).unwrap();
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.dequeue(Nanos::ZERO))
            .map(|p| p.id)
            .collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn competing_flows_share_roughly_equally() {
        let mut q = Sfq::new(SfqConfig::default());
        // Two flows, one enqueues 3x the packets of the other; over a fixed
        // service budget, each gets a near-equal share while both are
        // backlogged.
        let mut id = 0;
        for _ in 0..200 {
            for _ in 0..3 {
                let _ = q.enqueue(pkt(id, 1111), Nanos::ZERO);
                id += 1;
            }
            let _ = q.enqueue(pkt(id, 2222), Nanos::ZERO);
            id += 1;
        }
        let mut counts = [0u64; 2];
        for _ in 0..100 {
            let p = q.dequeue(Nanos::ZERO).expect("backlogged");
            counts[if p.flow.src_port == 1111 { 0 } else { 1 }] += 1;
        }
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!((0.6..1.7).contains(&ratio), "unfair: {counts:?}");
    }

    #[test]
    fn perturbation_changes_the_hash() {
        let cfg = SfqConfig {
            perturb: Nanos::from_millis(1),
            ..SfqConfig::default()
        };
        let mut q = Sfq::new(cfg);
        let p = pkt(0, 1234);
        let before = q.bucket_of(&p);
        q.maybe_perturb(Nanos::from_millis(2));
        // Not guaranteed to differ for *one* flow, but the perturbation
        // value itself must have changed.
        let after_perturbation = q.perturbation;
        assert_ne!(after_perturbation, 0x9E37_79B9);
        let _ = before;
    }

    #[test]
    fn bucket_limit_drops() {
        let cfg = SfqConfig {
            bucket_limit: 2,
            ..SfqConfig::default()
        };
        let mut q = Sfq::new(cfg);
        assert!(q.enqueue(pkt(0, 1), Nanos::ZERO).is_ok());
        assert!(q.enqueue(pkt(1, 1), Nanos::ZERO).is_ok());
        assert!(q.enqueue(pkt(2, 1), Nanos::ZERO).is_err());
        assert_eq!(q.drops(), 1);
        assert_eq!(q.enqueued(), 2);
    }

    #[test]
    fn bucket_drop_cause_counters_register_lazily() {
        let reg = Registry::new();
        let cfg = SfqConfig {
            bucket_limit: 2,
            ..SfqConfig::default()
        };
        let mut q = Sfq::new(cfg);
        q.attach_telemetry(&reg);
        let b = q.bucket_of(&pkt(0, 1));
        assert!(reg
            .snapshot(Nanos::ZERO)
            .get(&format!("sfq.bucket.{b}.drop.over_pkts"))
            .is_none());
        assert!(q.enqueue(pkt(0, 1), Nanos::ZERO).is_ok());
        assert!(q.enqueue(pkt(1, 1), Nanos::ZERO).is_ok());
        assert_eq!(q.enqueue(pkt(2, 1), Nanos::ZERO), Err(QueueDrop::OverPkts));
        let snap = reg.snapshot(Nanos::ZERO);
        assert_eq!(snap.counter(&format!("sfq.bucket.{b}.drop.over_pkts")), 1);
        assert!(snap
            .get(&format!("sfq.bucket.{b}.drop.over_bytes"))
            .is_none());
    }

    #[test]
    fn empty_dequeues_none() {
        let mut q = Sfq::new(SfqConfig::default());
        assert!(q.dequeue(Nanos::ZERO).is_none());
        assert_eq!(q.dequeued(), 0);
    }

    #[test]
    fn backlog_gauge_tracks_waterline() {
        let reg = Registry::new();
        let mut q = Sfq::new(SfqConfig::default());
        q.attach_telemetry(&reg);
        for i in 0..5 {
            q.enqueue(pkt(i, (i % 3) as u16 + 1), Nanos::ZERO).unwrap();
        }
        while q.dequeue(Nanos::ZERO).is_some() {}
        let g = reg.gauge("sfq.backlog_pkts");
        assert_eq!(g.get(), 0);
        assert_eq!(g.max(), 5);
    }

    #[test]
    fn conservation_over_random_flows() {
        let mut q = Sfq::new(SfqConfig::default());
        let mut accepted = 0u64;
        for i in 0..500u64 {
            if q.enqueue(pkt(i, (i % 37) as u16 + 1), Nanos::ZERO).is_ok() {
                accepted += 1;
            }
        }
        let mut got = 0u64;
        while q.dequeue(Nanos::ZERO).is_some() {
            got += 1;
        }
        assert_eq!(got, accepted);
        assert_eq!(q.backlog_pkts(), 0);
    }
}
