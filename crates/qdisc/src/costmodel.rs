//! CPU cost models for the software baselines.
//!
//! Figure 13's real message is CPU-cores-per-Mpps: DPDK QoS reaches its
//! targets by burning cores (one core ≈ 2.3 Mpps of scheduling work, with
//! mild multi-core penalties from lock primitives and cache-line sharing —
//! the paper's §V-B analysis), while kernel HTB serializes on the qdisc
//! lock and cannot scale past roughly one core of throughput at all.

use sim_core::time::{Freq, Nanos};

/// CPU cost model of the DPDK QoS Scheduler.
///
/// # Example
///
/// ```
/// use qdisc::costmodel::DpdkCpuModel;
///
/// let m = DpdkCpuModel::default();
/// // One 2.3 GHz core ≈ 2.4 Mpps at 950 cycles/packet.
/// assert!((m.max_pps(1) / 1e6 - 2.42).abs() < 0.1);
/// // ~Eight-nine cores for 19.7 Mpps (the paper reports "eight").
/// assert_eq!(m.cores_needed(19.69e6), 9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpdkCpuModel {
    /// Scheduler cycles per packet (enqueue + dequeue + grinder work).
    pub cycles_per_packet: u64,
    /// Worker core frequency.
    pub core_freq: Freq,
    /// Multi-core efficiency: each extra core contributes this fraction of
    /// a core (spinlocks + shared cache lines; paper §V-B).
    pub scaling_efficiency: f64,
}

impl Default for DpdkCpuModel {
    fn default() -> Self {
        DpdkCpuModel {
            cycles_per_packet: 950,
            core_freq: Freq::from_ghz(2.3),
            scaling_efficiency: 0.97,
        }
    }
}

impl DpdkCpuModel {
    /// Effective core count after the scaling penalty.
    fn effective_cores(&self, cores: usize) -> f64 {
        if cores == 0 {
            return 0.0;
        }
        1.0 + (cores as f64 - 1.0) * self.scaling_efficiency
    }

    /// Maximum packet rate achievable with `cores` scheduler cores.
    pub fn max_pps(&self, cores: usize) -> f64 {
        self.effective_cores(cores) * self.core_freq.as_hz() as f64 / self.cycles_per_packet as f64
    }

    /// Minimum cores needed to sustain `pps`.
    pub fn cores_needed(&self, pps: f64) -> usize {
        let mut cores = 0;
        while self.max_pps(cores) < pps {
            cores += 1;
            if cores > 1_024 {
                break;
            }
        }
        cores
    }
}

/// CPU cost model of the kernel qdisc path.
///
/// Every enqueue and dequeue serializes on the qdisc lock, so throughput
/// caps near one core's worth of work no matter how many senders contend —
/// the paper's §II-A observation (and its reference \[23\]). Sender cores still
/// burn cycles spinning; `contention_overhead` models the cache-line
/// bouncing that makes the *locked* work itself slower as senders add up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCpuModel {
    /// Locked work per packet with a single uncontended sender.
    pub base_cost: Nanos,
    /// Additional locked-work per packet per extra contending sender.
    pub contention_overhead: Nanos,
}

impl Default for KernelCpuModel {
    fn default() -> Self {
        KernelCpuModel {
            // ~550 ns of locked enqueue work per packet (plus half again
            // on dequeue): a saturated qdisc lock moves ~1 Mpps, i.e.
            // ~12 Gbps of MTU frames — the regime the paper measured.
            base_cost: Nanos::from_nanos(550),
            contention_overhead: Nanos::from_nanos(60),
        }
    }
}

impl KernelCpuModel {
    /// Effective locked time per packet with `senders` contending cores.
    pub fn per_packet(&self, senders: usize) -> Nanos {
        self.base_cost + self.contention_overhead * senders.saturating_sub(1) as u64
    }

    /// Maximum packet rate through the qdisc lock with `senders` senders.
    pub fn max_pps(&self, senders: usize) -> f64 {
        1e9 / self.per_packet(senders).as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpdk_single_core_rate() {
        let m = DpdkCpuModel::default();
        let pps = m.max_pps(1);
        assert!((pps / 1e6 - 2.42).abs() < 0.05, "pps {pps}");
        assert_eq!(m.max_pps(0), 0.0);
    }

    #[test]
    fn dpdk_scaling_is_sublinear() {
        let m = DpdkCpuModel::default();
        let one = m.max_pps(1);
        let four = m.max_pps(4);
        assert!(four < 4.0 * one);
        assert!(four > 3.5 * one);
    }

    #[test]
    fn dpdk_core_counts_match_paper_anchors() {
        // Paper: 1518 B at 2.25 Mpps on one core; 64 B at 9.06 Mpps on four.
        let m = DpdkCpuModel::default();
        assert_eq!(m.cores_needed(2.25e6), 1);
        assert_eq!(m.cores_needed(9.06e6), 4);
    }

    #[test]
    fn kernel_lock_does_not_scale() {
        let m = KernelCpuModel::default();
        // More senders makes the qdisc *slower*, not faster.
        assert!(m.max_pps(4) < m.max_pps(1));
        // A single sender tops out near 1.8 Mpps of *enqueue* work; the
        // full enqueue+dequeue path in hostsim lands near 1.2 Mpps.
        let pps = m.max_pps(1);
        assert!((1.4e6..2.2e6).contains(&pps), "pps {pps}");
    }
}
