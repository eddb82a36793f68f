//! A DPDK QoS Scheduler model (`librte_sched`-style hierarchy).
//!
//! The paper's second baseline. The real block arranges
//! port → subport → pipe → traffic class (strict priority) → queue (WRR);
//! this model implements the port/subport/pipe/TC levels with exact token
//! accounting — DPDK *does* enforce policy accurately (paper §II-A); what
//! it costs is CPU, which [`crate::costmodel`] accounts separately.

use netstack::packet::Packet;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

use crate::fifo::{PacketFifo, QueueDrop};

/// Number of strict-priority traffic classes per pipe (as in `librte_sched`).
pub const NUM_TCS: usize = 4;

#[derive(Debug, Clone)]
struct TokenState {
    rate: BitRate,
    burst_bits: i64,
    tokens: i64,
    last: Nanos,
}

impl TokenState {
    fn new(rate: BitRate, burst_window: Nanos) -> Self {
        let burst_bits = (rate.bits_in(burst_window) as i64).max(4 * 1518 * 8);
        TokenState {
            rate,
            burst_bits,
            tokens: burst_bits,
            last: Nanos::ZERO,
        }
    }

    fn refill(&mut self, now: Nanos) {
        let dt = now.saturating_sub(self.last);
        if dt > Nanos::ZERO {
            self.last = now;
            self.tokens = (self.tokens + self.rate.bits_in(dt) as i64).min(self.burst_bits);
        }
    }

    fn covers(&self, bits: i64) -> bool {
        self.tokens >= bits
    }

    fn charge(&mut self, bits: i64) {
        self.tokens -= bits;
    }
}

/// Configuration of one pipe (tenant).
#[derive(Debug, Clone, PartialEq)]
pub struct PipeConfig {
    /// Pipe aggregate rate.
    pub rate: BitRate,
    /// Per-traffic-class rates (strict priority TC0 > TC1 > ...).
    pub tc_rates: [BitRate; NUM_TCS],
}

impl PipeConfig {
    /// A pipe whose TCs all share the full pipe rate.
    pub fn flat(rate: BitRate) -> Self {
        PipeConfig {
            rate,
            tc_rates: [rate; NUM_TCS],
        }
    }
}

/// Configuration of the scheduler block.
#[derive(Debug, Clone, PartialEq)]
pub struct DpdkQosConfig {
    /// Subport (aggregate) rate.
    pub subport_rate: BitRate,
    /// Pipes under the subport.
    pub pipes: Vec<PipeConfig>,
    /// Token-bucket burst window.
    pub burst_window: Nanos,
    /// Per-queue byte limit.
    pub queue_bytes: u64,
    /// Per-queue packet limit (64 in stock DPDK; larger here because the
    /// simulation has no mempool pressure).
    pub queue_pkts: usize,
}

impl DpdkQosConfig {
    /// A subport with `n` equal flat pipes.
    pub fn equal_pipes(subport_rate: BitRate, n: usize) -> Self {
        DpdkQosConfig {
            subport_rate,
            pipes: (0..n)
                .map(|_| PipeConfig::flat(subport_rate.scaled(1, n as u64)))
                .collect(),
            burst_window: Nanos::from_micros(500),
            queue_bytes: 1 << 20,
            queue_pkts: 512,
        }
    }
}

struct PipeState {
    tb: TokenState,
    tcs: [TokenState; NUM_TCS],
    queues: [PacketFifo; NUM_TCS],
}

/// The hierarchical scheduler.
///
/// # Example
///
/// ```
/// use netstack::flow::FlowKey;
/// use netstack::packet::{AppId, Packet, VfPort};
/// use qdisc::dpdk::{DpdkQos, DpdkQosConfig};
/// use sim_core::time::Nanos;
/// use sim_core::units::BitRate;
///
/// let mut sched = DpdkQos::new(DpdkQosConfig::equal_pipes(BitRate::from_gbps(10.0), 2));
/// let flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 0, 2], 2);
/// let pkt = Packet::new(0, flow, 1250, AppId(0), VfPort(0), Nanos::ZERO);
/// sched.enqueue(0, 0, pkt)?;
/// assert!(sched.dequeue(Nanos::ZERO).is_some());
/// # Ok::<(), qdisc::fifo::QueueDrop>(())
/// ```
pub struct DpdkQos {
    subport: TokenState,
    pipes: Vec<PipeState>,
    grinder: usize,
}

impl core::fmt::Debug for DpdkQos {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DpdkQos")
            .field("pipes", &self.pipes.len())
            .finish_non_exhaustive()
    }
}

impl DpdkQos {
    /// Builds the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no pipes.
    pub fn new(cfg: DpdkQosConfig) -> Self {
        assert!(!cfg.pipes.is_empty(), "need at least one pipe");
        DpdkQos {
            subport: TokenState::new(cfg.subport_rate, cfg.burst_window),
            pipes: cfg
                .pipes
                .iter()
                .map(|p| PipeState {
                    tb: TokenState::new(p.rate, cfg.burst_window),
                    tcs: core::array::from_fn(|i| TokenState::new(p.tc_rates[i], cfg.burst_window)),
                    queues: core::array::from_fn(|_| {
                        PacketFifo::new(cfg.queue_bytes, cfg.queue_pkts)
                    }),
                })
                .collect(),
            grinder: 0,
        }
    }

    /// Total backlog across all queues.
    pub fn backlog_pkts(&self) -> usize {
        self.pipes
            .iter()
            .flat_map(|p| p.queues.iter())
            .map(PacketFifo::len)
            .sum()
    }

    /// Enqueues into `(pipe, tc)`.
    ///
    /// # Errors
    ///
    /// [`QueueDrop::OverPkts`] / [`QueueDrop::OverBytes`] when the target queue is full.
    ///
    /// # Panics
    ///
    /// Panics if `pipe` or `tc` is out of range.
    pub fn enqueue(&mut self, pipe: usize, tc: usize, pkt: Packet) -> Result<(), QueueDrop> {
        self.pipes[pipe].queues[tc].push(pkt)
    }

    /// Dequeues the next conforming packet: the grinder rotates over pipes;
    /// within a pipe, traffic classes are strict priority.
    pub fn dequeue(&mut self, now: Nanos) -> Option<Packet> {
        self.subport.refill(now);
        let n = self.pipes.len();
        for k in 0..n {
            let pi = (self.grinder + k) % n;
            let pipe = &mut self.pipes[pi];
            pipe.tb.refill(now);
            for tc in 0..NUM_TCS {
                pipe.tcs[tc].refill(now);
                let Some(head) = pipe.queues[tc].peek() else {
                    continue;
                };
                let bits = head.frame_bits() as i64;
                if self.subport.covers(bits) && pipe.tb.covers(bits) && pipe.tcs[tc].covers(bits) {
                    self.subport.charge(bits);
                    pipe.tb.charge(bits);
                    pipe.tcs[tc].charge(bits);
                    let pkt = pipe.queues[tc].pop().expect("peeked head exists");
                    // Move the grinder past this pipe for round-robin fairness.
                    self.grinder = (pi + 1) % n;
                    return Some(pkt);
                }
            }
        }
        None
    }

    /// When to poll again after a throttled dequeue (`None` when idle).
    pub fn next_ready(&self, now: Nanos) -> Option<Nanos> {
        if self.backlog_pkts() == 0 {
            None
        } else {
            // librte_sched re-evaluates every tc_period; 20 us keeps the
            // model's conformance tight.
            Some(now + Nanos::from_micros(20))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::flow::FlowKey;
    use netstack::packet::{AppId, VfPort};
    use std::collections::HashMap;

    fn pkt(id: u64, app: u16) -> Packet {
        let flow = FlowKey::tcp([10, 0, 0, 1], 1000 + app, [10, 0, 0, 2], 5001);
        Packet::new(id, flow, 1518, AppId(app), VfPort(0), Nanos::ZERO)
    }

    /// Greedy drain with per-pipe feeders.
    fn drain(q: &mut DpdkQos, link: BitRate, horizon: Nanos, pipes: &[usize]) -> HashMap<u16, u64> {
        let mut out = HashMap::new();
        let mut t = Nanos::ZERO;
        let mut id = 0;
        while t < horizon {
            for &p in pipes {
                while q.pipes[p].queues[0].len() < 64 {
                    let _ = q.enqueue(p, 0, pkt(id, p as u16));
                    id += 1;
                }
            }
            match q.dequeue(t) {
                Some(p) => {
                    *out.entry(p.app.0).or_default() += p.frame_bits();
                    t += link.serialization_time(p.frame_bits());
                }
                None => match q.next_ready(t) {
                    Some(n) => t = n,
                    None => break,
                },
            }
        }
        out
    }

    #[test]
    fn subport_rate_enforced_exactly() {
        let mut q = DpdkQos::new(DpdkQosConfig::equal_pipes(BitRate::from_gbps(10.0), 2));
        let horizon = Nanos::from_millis(10);
        let out = drain(&mut q, BitRate::from_gbps(40.0), horizon, &[0, 1]);
        let total = out.values().sum::<u64>() as f64 / horizon.as_secs_f64() / 1e9;
        // DPDK conformance is accurate: ~10 Gbps, never 12.
        assert!((total - 10.0).abs() < 0.5, "total {total} Gbps");
    }

    #[test]
    fn pipes_share_fairly() {
        let mut q = DpdkQos::new(DpdkQosConfig::equal_pipes(BitRate::from_gbps(10.0), 4));
        let horizon = Nanos::from_millis(10);
        let out = drain(&mut q, BitRate::from_gbps(40.0), horizon, &[0, 1, 2, 3]);
        let total: u64 = out.values().sum();
        for (&app, &bits) in &out {
            let share = bits as f64 / total as f64;
            assert!((share - 0.25).abs() < 0.05, "pipe {app} share {share}");
        }
    }

    #[test]
    fn tc_priority_within_pipe() {
        let mut q = DpdkQos::new(DpdkQosConfig::equal_pipes(BitRate::from_mbps(100), 1));
        // Fill TC3 first, then TC0: TC0 dequeues first.
        q.enqueue(0, 3, pkt(0, 3)).unwrap();
        q.enqueue(0, 0, pkt(1, 0)).unwrap();
        let first = q.dequeue(Nanos::ZERO).unwrap();
        assert_eq!(first.app.0, 0);
    }

    #[test]
    fn unused_pipe_capacity_is_not_work_conserved() {
        // Classic librte_sched property: pipe rate limits are hard; with
        // one active pipe of two, the subport only carries that pipe's 5 Gbps.
        let mut q = DpdkQos::new(DpdkQosConfig::equal_pipes(BitRate::from_gbps(10.0), 2));
        let horizon = Nanos::from_millis(10);
        let out = drain(&mut q, BitRate::from_gbps(40.0), horizon, &[0]);
        let total = out.values().sum::<u64>() as f64 / horizon.as_secs_f64() / 1e9;
        assert!((total - 5.0).abs() < 0.4, "total {total} Gbps");
    }

    #[test]
    fn queue_limits_drop_and_stats_track() {
        let mut cfg = DpdkQosConfig::equal_pipes(BitRate::from_mbps(10), 1);
        cfg.queue_pkts = 1;
        let mut q = DpdkQos::new(cfg);
        q.enqueue(0, 0, pkt(0, 0)).unwrap();
        assert!(q.enqueue(0, 0, pkt(1, 0)).is_err());
        assert_eq!(q.backlog_pkts(), 1);
    }

    #[test]
    fn idle_scheduler_has_no_timer() {
        let q = DpdkQos::new(DpdkQosConfig::equal_pipes(BitRate::from_mbps(10), 1));
        assert_eq!(q.next_ready(Nanos::ZERO), None);
    }
}
