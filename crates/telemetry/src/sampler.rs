//! The one per-packet sampling decision.
//!
//! Everything keyed by a packet id — stage spans, the verdict and drop
//! events of the trace ring, the span sink's classification feed, decision
//! provenance — is kept for the same packets and skipped for the same
//! packets: the ones [`Sampler::hit`] selects. The decision is a pure
//! function of the id, so it needs no field in the packet and no argument
//! in any signature: every recorder copies the [`Sampler`] of the
//! [`Registry`](crate::Registry) it was built from and asks it again.
//! Counters, gauges and per-packet histograms that are not spans
//! (`nic.latency_ns`) never ask: they stay exact.
//!
//! # Why not the low bits
//!
//! `pkt_id & (2^shift - 1) == 0` is the obvious 1-in-2^shift rule and it
//! aliases. A driver that merges `k` equal-rate flows hands out ids round
//! robin, so flow `i` owns the ids congruent to `i` modulo `k`; whenever
//! `k` divides `2^shift` every sampled id belongs to flow 0, and the other
//! flows are never traced, never attributed and never audited. Instead
//! each aligned block of `2^shift` ids holds exactly one sampled id, at an
//! offset hashed from the block number (Fibonacci hashing: the top `shift`
//! bits of `block × 2^64/φ`). Consecutive blocks walk the offsets as a
//! golden-ratio sequence, which is equidistributed modulo every small `k`.

/// 2^64 / φ, the multiplier of Fibonacci hashing.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// 1-in-2^shift packet sampler: a pure function of the packet id that
/// selects exactly one id in every aligned block of `2^shift`.
/// `shift == 0` selects every packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampler {
    shift: u32,
}

impl Default for Sampler {
    /// One packet in 64: what a [`Registry`](crate::Registry) samples at
    /// unless it was built with [`Registry::with_sampler`](crate::Registry::with_sampler).
    fn default() -> Self {
        Sampler::one_in_pow2(6)
    }
}

impl Sampler {
    /// Samples one packet in `2^shift` (`shift` clamped to 63).
    pub fn one_in_pow2(shift: u32) -> Self {
        Sampler {
            shift: shift.min(63),
        }
    }

    /// Whether `pkt_id` is selected.
    #[inline]
    pub fn hit(&self, pkt_id: u64) -> bool {
        let block = pkt_id >> self.shift;
        // The top `shift` bits of the product; shifting in two steps keeps
        // `shift == 0` (offset 0, every id its own block) in range.
        let offset = (block.wrapping_mul(GOLDEN) >> 1) >> (63 - self.shift);
        pkt_id & ((1u64 << self.shift) - 1) == offset
    }

    /// The sampling shift.
    pub fn shift(&self) -> u32 {
        self.shift
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule this module replaced.
    fn low_bits(shift: u32, pkt_id: u64) -> bool {
        pkt_id & ((1u64 << shift) - 1) == 0
    }

    /// Hits per flow when `k` equal-rate flows are merged round robin over
    /// `ids` sequential ids, or the flow whose share falls outside
    /// `[0.8/k, 1.2/k]` of all hits.
    fn shares_are_even(k: u64, ids: u64, hit: impl Fn(u64) -> bool) -> Result<(), String> {
        let mut per_flow = vec![0u64; k as usize];
        for id in (0..ids).filter(|&id| hit(id)) {
            per_flow[(id % k) as usize] += 1;
        }
        let total: u64 = per_flow.iter().sum();
        for (flow, &hits) in per_flow.iter().enumerate() {
            let share = hits as f64 * k as f64 / total as f64;
            if !(0.8..=1.2).contains(&share) {
                return Err(format!(
                    "k={k}: flow {flow} got {hits} of {total} hits ({share:.2}x its share)"
                ));
            }
        }
        Ok(())
    }

    #[test]
    fn round_robin_flows_are_sampled_evenly() {
        let s = Sampler::default();
        let ids = 1024u64 << s.shift();
        for k in [2, 3, 4, 7, 8, 64] {
            shares_are_even(k, ids, |id| s.hit(id)).unwrap();
        }
        // The low-bit rule gives every hit to flow 0 whenever k divides
        // the period.
        for k in [2, 4, 8, 64] {
            let err = shares_are_even(k, ids, |id| low_bits(s.shift(), id)).unwrap_err();
            assert!(err.contains("flow 0"), "{err}");
        }
    }

    #[test]
    fn exactly_one_id_per_aligned_block() {
        for shift in [0, 1, 3, 6, 10] {
            let s = Sampler::one_in_pow2(shift);
            for block in (0..1024u64).chain([u64::MAX >> shift]) {
                let first = block << shift;
                let hits = (0..1u64 << shift).filter(|i| s.hit(first + i)).count();
                assert_eq!(hits, 1, "shift {shift} block {block}");
            }
        }
    }

    #[test]
    fn shift_zero_hits_everything_and_large_shifts_clamp() {
        let all = Sampler::one_in_pow2(0);
        assert!([0, 1, 63, 64, 12_345, u64::MAX]
            .into_iter()
            .all(|id| all.hit(id)));
        let rare = Sampler::one_in_pow2(200);
        assert_eq!(rare.shift(), 63);
        assert_eq!((0..4096).filter(|&id| rare.hit(id)).count(), 1);
        assert_eq!(Sampler::default().shift(), 6);
    }
}
