//! Time-series recording and binning for figure regeneration.
//!
//! The paper's Figure 3 and Figure 11 plot per-application throughput over
//! time. Experiment drivers add delivered bits per series to a
//! [`SeriesRecorder`], which accumulates them into fixed-width time slots,
//! and then bin whole slots into fixed intervals with
//! [`SeriesRecorder::binned`], yielding Gbps-over-time rows ready to print
//! or serialize. Memory is one integer per series per slot of the run,
//! however many packets were delivered.

use crate::scale::Scale;
use crate::time::Nanos;
use crate::units::BitRate;

/// One binned series: average bit rate per fixed time bin.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedSeries {
    /// Series name (e.g. application name).
    pub name: String,
    /// Bin width.
    pub bin: Nanos,
    /// Average rate in each bin, starting at t = 0.
    pub rates: Vec<BitRate>,
}

impl BinnedSeries {
    /// The average rate over bins `[from, to)`, e.g. a steady-state window.
    ///
    /// Returns [`BitRate::ZERO`] for an empty window.
    pub fn mean_rate(&self, from: usize, to: usize) -> BitRate {
        let to = to.min(self.rates.len());
        if from >= to {
            return BitRate::ZERO;
        }
        let sum: u128 = self.rates[from..to]
            .iter()
            .map(|r| r.as_bps() as u128)
            .sum();
        BitRate::from_bps((sum / (to - from) as u128) as u64)
    }
}

/// Accumulates `(time, bits)` events for multiple named series into
/// fixed-width time slots.
///
/// Series are registered by name once ([`SeriesRecorder::series`]) and
/// recorded into by index, so the per-event path is one integer add. A
/// series that never recorded anything does not appear in any output.
///
/// # Example
///
/// ```
/// use sim_core::series::SeriesRecorder;
/// use sim_core::time::Nanos;
/// use sim_core::units::BitRate;
///
/// let mut rec = SeriesRecorder::new(Nanos::from_nanos(100));
/// let app0 = rec.series("app0");
/// // 1000 bits every 100 ns for 1 us => 10 Gbps.
/// for i in 0..10 {
///     rec.record(app0, Nanos::from_nanos(i * 100), 1_000);
/// }
/// let series = rec.binned("app0", Nanos::from_micros(1)).expect("series exists");
/// assert_eq!(series.rates[0], BitRate::from_gbps(10.0));
/// ```
#[derive(Debug, Clone)]
pub struct SeriesRecorder {
    slot: Nanos,
    /// `t ↦ ⌊t / slot⌋` without a division per record.
    slot_of: Scale,
    /// `(name, bits per slot)` in registration order; the slots reach as
    /// far as the latest event recorded.
    series: Vec<(String, Vec<u64>)>,
}

impl SeriesRecorder {
    /// Creates an empty recorder that accumulates into slots of width
    /// `slot`; every bin width asked of it later must be a multiple.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is zero.
    pub fn new(slot: Nanos) -> Self {
        assert!(slot > Nanos::ZERO, "slot width must be positive");
        SeriesRecorder {
            slot,
            slot_of: Scale::new(1, 0, slot.as_nanos()),
            series: Vec::new(),
        }
    }

    /// The index to record series `name` under, registering it on first
    /// use. Two callers asking for the same name share one series.
    pub fn series(&mut self, name: &str) -> usize {
        self.series
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| {
                self.series.push((name.to_owned(), Vec::new()));
                self.series.len() - 1
            })
    }

    /// Records that `bits` were delivered for `series` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `series` did not come from [`SeriesRecorder::series`].
    pub fn record(&mut self, series: usize, t: Nanos, bits: u64) {
        let slots = &mut self.series[series].1;
        let i = self.slot_of.apply(t.as_nanos()) as usize;
        if i >= slots.len() {
            slots.resize(i + 1, 0);
        }
        slots[i] += bits;
    }

    fn slots_of(&self, name: &str) -> Option<&[u64]> {
        let (_, slots) = self.series.iter().find(|s| s.0 == name)?;
        (!slots.is_empty()).then_some(slots)
    }

    /// Names of all series that recorded something, sorted.
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .series
            .iter()
            .filter(|s| !s.1.is_empty())
            .map(|s| s.0.as_str())
            .collect();
        names.sort_unstable();
        names
    }

    /// Bins one series into fixed intervals of width `bin`, producing the
    /// average rate per bin up to the latest event recorded. Returns `None`
    /// for a series that recorded nothing.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero or not a multiple of the slot width.
    pub fn binned(&self, name: &str, bin: Nanos) -> Option<BinnedSeries> {
        let per_bin = bin.as_nanos() / self.slot.as_nanos();
        assert!(
            per_bin > 0 && bin.as_nanos().is_multiple_of(self.slot.as_nanos()),
            "bin width {bin} is not a positive multiple of the {} slot",
            self.slot
        );
        let rates = self
            .slots_of(name)?
            .chunks(per_bin as usize)
            .map(|slots| {
                let bits: u64 = slots.iter().sum();
                BitRate::from_bps((bits as u128 * 1_000_000_000 / bin.as_nanos() as u128) as u64)
            })
            .collect();
        Some(BinnedSeries {
            name: name.to_owned(),
            bin,
            rates,
        })
    }

    /// Bins every series with the same width, padding all to equal length.
    pub fn binned_all(&self, bin: Nanos) -> Vec<BinnedSeries> {
        let mut all: Vec<BinnedSeries> = self
            .names()
            .into_iter()
            .filter_map(|name| self.binned(name, bin))
            .collect();
        let max_len = all.iter().map(|s| s.rates.len()).max().unwrap_or(0);
        for s in &mut all {
            s.rates.resize(max_len, BitRate::ZERO);
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder on 100 ns slots with the named series registered.
    fn recorder<const N: usize>(names: [&str; N]) -> (SeriesRecorder, [usize; N]) {
        let mut rec = SeriesRecorder::new(Nanos::from_nanos(100));
        let ids = names.map(|n| rec.series(n));
        (rec, ids)
    }

    #[test]
    fn binning_computes_average_rate() {
        let (mut rec, [a]) = recorder(["a"]);
        // 500 bits at t=0 and t=500ns -> 1000 bits over a 1 us bin = 1 Gbps.
        rec.record(a, Nanos::ZERO, 500);
        rec.record(a, Nanos::from_nanos(500), 500);
        let s = rec.binned("a", Nanos::from_micros(1)).unwrap();
        assert_eq!(s.rates.len(), 1);
        assert_eq!(s.rates[0], BitRate::from_gbps(1.0));
    }

    #[test]
    fn unknown_series_is_none() {
        let (rec, _) = recorder(["silent"]);
        assert!(rec.binned("missing", Nanos::from_micros(1)).is_none());
        // Registered but never recorded into: absent from every output.
        assert!(rec.binned("silent", Nanos::from_micros(1)).is_none());
        assert!(rec.names().is_empty());
        assert!(rec.binned_all(Nanos::from_micros(1)).is_empty());
    }

    #[test]
    fn samples_fall_in_correct_bins() {
        let (mut rec, [a]) = recorder(["a"]);
        rec.record(a, Nanos::from_micros(0), 100);
        rec.record(a, Nanos::from_micros(1), 200);
        rec.record(a, Nanos::from_micros(2), 400);
        let s = rec.binned("a", Nanos::from_micros(1)).unwrap();
        assert_eq!(s.rates.len(), 3);
        assert!(s.rates[0] < s.rates[1] && s.rates[1] < s.rates[2]);
    }

    #[test]
    fn bins_sum_whole_slots_whatever_the_multiple() {
        // One sample per 100 ns slot, 1..=25 bits: any multiple of the slot
        // bins to the sums a per-sample recorder would have produced, and
        // the series ends with the bin holding the last sample.
        let (mut rec, [a]) = recorder(["a"]);
        for i in 0..25u64 {
            rec.record(a, Nanos::from_nanos(i * 100 + 99), i + 1);
        }
        for per_bin in [1u64, 2, 5, 10, 25, 40] {
            let bin = Nanos::from_nanos(per_bin * 100);
            let s = rec.binned("a", bin).unwrap();
            assert_eq!(s.rates.len() as u64, 24 / per_bin + 1);
            for (b, rate) in s.rates.iter().enumerate() {
                let lo = b as u64 * per_bin;
                let bits: u64 = (lo..(lo + per_bin).min(25)).map(|i| i + 1).sum();
                let want = bits as u128 * 1_000_000_000 / bin.as_nanos() as u128;
                assert_eq!(rate.as_bps() as u128, want, "bin {b} of {per_bin} slots");
            }
        }
    }

    #[test]
    fn records_land_in_the_slot_a_division_picks() {
        let mut rng = crate::rng::SimRng::seed(45);
        for slot in [1, 7, 100, 1_000, 999_983, 1_000_000, u64::MAX / 3, u64::MAX] {
            let mut rec = SeriesRecorder::new(Nanos::from_nanos(slot));
            let a = rec.series("a");
            let mut want = vec![0u64; 65];
            let slots = 64.min(u64::MAX / slot);
            let edges = [
                0,
                1,
                slot - 1,
                slot,
                slot.saturating_add(1),
                u64::MAX / slot * slot,
            ];
            let seeded = (0..500).map(|_| rng.range(0, slots) * slot + rng.range(0, slot));
            for (t, bits) in edges
                .into_iter()
                .chain(seeded)
                .filter(|&t| t / slot <= 64)
                .zip(1..)
            {
                rec.record(a, Nanos::from_nanos(t), bits);
                want[(t / slot) as usize] += bits;
            }
            let got = rec.slots_of("a").expect("recorded");
            assert_eq!(got, &want[..got.len()], "slots of {slot} ns");
            assert!(
                want[got.len()..].iter().all(|&b| b == 0),
                "slots of {slot} ns"
            );
        }
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bin_must_be_a_multiple_of_the_slot() {
        let (mut rec, [a]) = recorder(["a"]);
        rec.record(a, Nanos::ZERO, 1);
        let _ = rec.binned("a", Nanos::from_nanos(250));
    }

    #[test]
    fn same_name_shares_one_series() {
        let (mut rec, [a, b]) = recorder(["a", "b"]);
        assert_eq!(rec.series("a"), a);
        assert_ne!(a, b);
    }

    #[test]
    fn binned_all_pads_to_equal_length() {
        let (mut rec, [short, long]) = recorder(["short", "long"]);
        rec.record(short, Nanos::ZERO, 1);
        rec.record(long, Nanos::from_micros(9), 1);
        let all = rec.binned_all(Nanos::from_micros(1));
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].rates.len(), all[1].rates.len());
    }

    #[test]
    fn mean_rate_window() {
        let s = BinnedSeries {
            name: "x".into(),
            bin: Nanos::from_millis(1_000),
            rates: vec![
                BitRate::from_gbps(2.0),
                BitRate::from_gbps(4.0),
                BitRate::from_gbps(6.0),
            ],
        };
        assert_eq!(s.mean_rate(0, 3), BitRate::from_gbps(4.0));
        assert_eq!(s.mean_rate(1, 2), BitRate::from_gbps(4.0));
        assert_eq!(s.mean_rate(2, 2), BitRate::ZERO);
        assert_eq!(s.mean_rate(0, 100), BitRate::from_gbps(4.0));
    }

    #[test]
    fn totals_and_names() {
        let (mut rec, [b, a]) = recorder(["b", "a"]);
        rec.record(b, Nanos::ZERO, 10);
        rec.record(a, Nanos::ZERO, 5);
        rec.record(a, Nanos::ZERO, 5);
        assert_eq!(rec.names(), vec!["a", "b"]);
        // 10 bits in one 100 ns slot, however many records they came in.
        let slot = Nanos::from_nanos(100);
        for name in ["a", "b"] {
            let rates = rec.binned(name, slot).expect("recorded").rates;
            assert_eq!(rates, [BitRate::from_bps(100_000_000)]);
        }
        assert!(rec.binned("zzz", slot).is_none());
    }
}
