//! SmartNIC configuration and the calibrated Agilio-like profile.

use sim_core::time::{Freq, Nanos};
use sim_core::units::{BitRate, ByteSize, WireFraming};

/// Static configuration of a simulated NP-based SmartNIC.
///
/// The default profile ([`NicConfig::agilio_cx_40g`]) is calibrated so the
/// reproduction lands in the same regime as the paper's Netronome Agilio CX
/// 40GbE prototype: line-rate-bound for MTU frames, compute-bound around
/// 20 Mpps for 64-byte frames (Figure 13). See EXPERIMENTS.md for the
/// calibration notes.
#[derive(Debug, Clone, PartialEq)]
pub struct NicConfig {
    /// Number of worker micro-engines (processing cores).
    pub num_mes: usize,
    /// Micro-engine clock frequency.
    pub freq: Freq,
    /// Maximum time a packet may wait for a free worker thread before the
    /// receive ring overflows and the packet is dropped at ingress.
    pub rx_max_wait: Nanos,
    /// Egress wire rate.
    pub line_rate: BitRate,
    /// Wire framing overhead model.
    pub framing: WireFraming,
    /// Byte capacity of the traffic-manager FIFO at the wire side.
    pub tm_queue_capacity: ByteSize,
    /// Fixed pipeline latency between host DMA and wire, independent of
    /// load (the paper measures 161 µs of unavoidable forwarding latency at
    /// 40 Gbps even with scheduling disabled).
    pub base_pipeline_latency: Nanos,
    /// Cycle costs of the processing stages.
    pub costs: CycleCosts,
}

/// Per-operation instruction-cycle costs charged to worker micro-engines.
///
/// The model splits work into *instruction cycles* (occupy the ME; divide
/// aggregate throughput) and treats memory-stall time as hidden by the 4-8
/// hardware threads per ME, which is exactly the property network processors
/// are built around. Stall time therefore shows up as latency
/// ([`NicConfig::base_pipeline_latency`]) rather than throughput loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleCosts {
    /// Header parse + packet metadata setup.
    pub parse: u64,
    /// Exact-match flow cache hit (dedicated lookup engines).
    pub classify_hit: u64,
    /// Flow cache miss: full filter-table walk + cache insert.
    pub classify_miss: u64,
    /// One atomic meter/counter operation on transactional memory.
    pub atomic_op: u64,
    /// Per-class token bucket refill + rate recomputation (the guarded
    /// update section of Algorithm 1).
    pub class_update: u64,
    /// Acquiring/releasing one CLS lock (uncontended cost; contention is
    /// modeled separately by the lock table).
    pub lock_op: u64,
    /// Egress DMA + traffic-manager enqueue descriptor work.
    pub tx_enqueue: u64,
    /// Baseline forwarding work outside FlowValve (buffer management,
    /// reorder bookkeeping, MAC egress prep).
    pub forward_base: u64,
    /// Flattening one admission-chain step when the scheduling program is
    /// (re)compiled: resolving the class, emitting the step and writing it
    /// to shared memory. Paid per reconfiguration, never per packet.
    pub program_compile: u64,
}

impl CycleCosts {
    /// Calibrated Agilio-like costs (see EXPERIMENTS.md §calibration).
    pub const fn agilio() -> Self {
        CycleCosts {
            parse: 260,
            classify_hit: 180,
            classify_miss: 1_900,
            atomic_op: 40,
            class_update: 260,
            lock_op: 60,
            tx_enqueue: 220,
            forward_base: 940,
            program_compile: 1_200,
        }
    }
}

impl Default for CycleCosts {
    fn default() -> Self {
        Self::agilio()
    }
}

impl NicConfig {
    /// The calibrated 40 GbE Agilio-like profile used throughout the
    /// reproduction: 50 worker MEs at 800 MHz, 40 Gbps wire.
    ///
    /// # Example
    ///
    /// ```
    /// use np_sim::config::NicConfig;
    ///
    /// let cfg = NicConfig::agilio_cx_40g();
    /// assert_eq!(cfg.line_rate.as_gbps(), 40.0);
    /// ```
    pub fn agilio_cx_40g() -> Self {
        NicConfig {
            num_mes: 50,
            freq: Freq::from_mhz(800),
            rx_max_wait: Nanos::from_micros(50),
            line_rate: BitRate::from_gbps(40.0),
            framing: WireFraming::ETHERNET,
            tm_queue_capacity: ByteSize::from_kib(256),
            base_pipeline_latency: Nanos::from_micros(160),
            costs: CycleCosts::agilio(),
        }
    }

    /// A 10 Gbps variant of the same silicon (for the motivation-example
    /// experiments that run on a 10 Gbps link).
    pub fn agilio_cx_10g() -> Self {
        NicConfig {
            line_rate: BitRate::from_gbps(10.0),
            // At 10 Gbps the pipeline is far from its internal bottleneck;
            // the paper measures the lowest delay of all schedulers here.
            base_pipeline_latency: Nanos::from_micros(35),
            ..Self::agilio_cx_40g()
        }
    }

    /// A hypothetical 100 GbE port of the same design (paper §VI "Higher
    /// Line rate"): more micro-engines at a higher clock, as on the
    /// NFP-6000 class parts. Saturating 100 Gbps with 1500 B frames needs
    /// only 8.33 Mpps — well inside the scheduling pipeline's compute
    /// bound — so FlowValve ports without algorithmic changes.
    pub fn agilio_100g() -> Self {
        NicConfig {
            num_mes: 96,
            freq: Freq::from_ghz(1.2),
            line_rate: BitRate::from_gbps(100.0),
            tm_queue_capacity: ByteSize::from_kib(640),
            base_pipeline_latency: Nanos::from_micros(110),
            ..Self::agilio_cx_40g()
        }
    }

    /// Aggregate instruction-cycle budget per second across all MEs.
    pub fn aggregate_cycle_rate(&self) -> u64 {
        self.num_mes as u64 * self.freq.as_hz()
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_mes == 0 {
            return Err("num_mes must be positive".into());
        }
        if self.line_rate == BitRate::ZERO {
            return Err("line_rate must be positive".into());
        }
        if self.tm_queue_capacity == ByteSize::ZERO {
            return Err("tm_queue_capacity must be positive".into());
        }
        Ok(())
    }
}

impl Default for NicConfig {
    fn default() -> Self {
        Self::agilio_cx_40g()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_validates() {
        assert_eq!(NicConfig::agilio_cx_40g().validate(), Ok(()));
        assert_eq!(NicConfig::agilio_cx_10g().validate(), Ok(()));
    }

    #[test]
    fn ten_gig_profile_differs_only_where_expected() {
        let a = NicConfig::agilio_cx_40g();
        let b = NicConfig::agilio_cx_10g();
        assert_eq!(a.num_mes, b.num_mes);
        assert_eq!(b.line_rate.as_gbps(), 10.0);
        assert!(b.base_pipeline_latency < a.base_pipeline_latency);
    }

    #[test]
    fn totals() {
        let cfg = NicConfig::agilio_cx_40g();
        assert_eq!(cfg.aggregate_cycle_rate(), 50 * 800_000_000);
    }

    #[test]
    fn compute_bound_regime_matches_calibration_target() {
        // The calibrated fair-queueing pipeline costs roughly 2000 instruction
        // cycles per packet; the profile must then be compute-bound near
        // 20 Mpps (the paper's 19.69 Mpps at 64 B) and line-rate-bound at MTU.
        let cfg = NicConfig::agilio_cx_40g();
        let pps = cfg.aggregate_cycle_rate() as f64 / 2_000.0;
        assert!((15e6..25e6).contains(&pps), "pps {pps}");
        // 1518 B line rate is ~3.25 Mpps << compute bound.
        let line = cfg.framing.line_rate_pps(cfg.line_rate, 1518);
        assert!(line < pps);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = NicConfig::agilio_cx_40g();
        cfg.num_mes = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = NicConfig::agilio_cx_40g();
        cfg.line_rate = BitRate::ZERO;
        assert!(cfg.validate().is_err());
    }
}
