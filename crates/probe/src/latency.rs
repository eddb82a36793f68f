//! Per-flow-class latency attribution and heavy-hitter tracking.
//!
//! The registry's per-stage span histograms (`span.*_ns`) answer "how long
//! does each pipeline stage take" — aggregated over *all* traffic. The
//! paper's SLOs are per class, so the profiler needs the same decomposition
//! *per flow class*: [`LatencyAttr`] implements
//! [`SpanSink`] and, fed classification verdicts by
//! the labeling function, demultiplexes every span into an HDR-style
//! log-bucket histogram keyed by `(class, stage)`.
//!
//! It also keeps a space-saving sketch of the heaviest flows by wire bits
//! (Metwally et al.'s algorithm: bounded memory, deterministic
//! overestimation bound), which backs `fv top`.

use std::sync::Mutex;

use fv_telemetry::metrics::{Histogram, HistogramSnapshot};
use fv_telemetry::span::{SpanSink, Stage, STAGES};
use sim_core::time::Nanos;

/// The class value spans fall into without a classification verdict for
/// their packet: unlabeled bypass traffic, or a span of any packet other
/// than the one last classified. Every span the workspace stamps carries a
/// real packet id; only a foreign [`SpanSink`] caller can still hand in an
/// id-less (`u64::MAX`) span, and it lands here too unless the caller
/// classified that id.
pub const UNATTRIBUTED: u64 = u64::MAX;

/// Entries tracked by the heavy-hitter sketch.
const SKETCH_ENTRIES: usize = 32;

/// One tracked heavy hitter: a flow (by stable hash) and its estimated
/// wire-bit volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowVolume {
    /// The flow's stable hash (`netstack::flow::FlowKey::stable_hash`-
    /// compatible; the caller maps hashes back to 5-tuples).
    pub flow_hash: u64,
    /// The class the flow last resolved to ([`UNATTRIBUTED`] if none).
    pub class: u64,
    /// Estimated wire bits attributed to the flow (upper bound).
    pub wire_bits: u64,
    /// Maximum overestimation of `wire_bits` (0 = exact).
    pub err_bits: u64,
    /// Packets attributed to the flow.
    pub packets: u64,
}

/// The per-stage latency decomposition of one flow class.
#[derive(Debug, Clone)]
pub struct ClassLatency {
    /// Leaf class minor number, or [`UNATTRIBUTED`].
    pub class: u64,
    /// One histogram summary per [`Stage`], indexed by discriminant;
    /// `None` where the class never hit the stage.
    pub stages: [Option<HistogramSnapshot>; STAGES.len()],
}

struct SpaceSaving {
    // (flow_hash, class, bits, err, packets); kept unsorted, scanned
    // linearly — SKETCH_ENTRIES is small and this is the slow path of a
    // simulated hot path.
    entries: Vec<(u64, u64, u64, u64, u64)>,
}

impl SpaceSaving {
    fn new() -> Self {
        SpaceSaving {
            entries: Vec::with_capacity(SKETCH_ENTRIES),
        }
    }

    fn offer(&mut self, flow_hash: u64, class: u64, wire_bits: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == flow_hash) {
            e.1 = class;
            e.2 += wire_bits;
            e.4 += 1;
            return;
        }
        if self.entries.len() < SKETCH_ENTRIES {
            self.entries.push((flow_hash, class, wire_bits, 0, 1));
            return;
        }
        // Evict the minimum-volume entry; the newcomer inherits its count
        // as the overestimation bound (the space-saving invariant).
        let min = self
            .entries
            .iter_mut()
            .min_by_key(|e| (e.2, e.0))
            .expect("sketch non-empty");
        *min = (flow_hash, class, min.2 + wire_bits, min.2, 1);
    }

    fn top(&self, k: usize) -> Vec<FlowVolume> {
        let mut all: Vec<FlowVolume> = self
            .entries
            .iter()
            .map(
                |&(flow_hash, class, wire_bits, err_bits, packets)| FlowVolume {
                    flow_hash,
                    class,
                    wire_bits,
                    err_bits,
                    packets,
                },
            )
            .collect();
        // Volume descending, hash ascending: a total, deterministic order.
        all.sort_by(|a, b| {
            b.wire_bits
                .cmp(&a.wire_bits)
                .then(a.flow_hash.cmp(&b.flow_hash))
        });
        all.truncate(k);
        all
    }
}

struct Inner {
    // The (pkt_id, class) the sink was last told. A packet's spans are all
    // stamped inside its one `SmartNic::rx` call, after `decide` fed its
    // class here, so no other packet's classification comes in between.
    last: (u64, u64),
    // (class, stage) histograms, discovered on first span.
    hists: Vec<(u64, [Option<Histogram>; STAGES.len()])>,
    sketch: SpaceSaving,
}

impl Inner {
    fn class_of(&self, pkt_id: u64) -> u64 {
        match self.last {
            (id, class) if id == pkt_id => class,
            _ => UNATTRIBUTED,
        }
    }

    fn hist_for(&mut self, class: u64, stage: Stage) -> &Histogram {
        let row = match self.hists.iter().position(|(c, _)| *c == class) {
            Some(i) => i,
            None => {
                self.hists.push((class, Default::default()));
                self.hists.len() - 1
            }
        };
        self.hists[row].1[stage as usize].get_or_insert_with(Histogram::new)
    }
}

/// A [`SpanSink`] that attributes every span it is handed — the spans of
/// the packets the registry samples — to its packet's flow class.
///
/// Install once per registry before the run:
///
/// ```
/// use std::sync::Arc;
/// use fv_probe::latency::LatencyAttr;
/// use fv_telemetry::Registry;
///
/// let reg = Registry::new();
/// let lat = Arc::new(LatencyAttr::new());
/// assert!(reg.install_span_sink(lat.clone()));
/// ```
///
/// The interior mutex is uncontended in the single-threaded discrete-event
/// simulation; the benchmark's `probe.ns_per_pkt` is what installing it
/// costs a packet, `telemetry.ns_per_pkt` what the stamps cost without it.
pub struct LatencyAttr {
    inner: Mutex<Inner>,
}

impl Default for LatencyAttr {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyAttr {
    /// Creates an empty attribution sink.
    pub fn new() -> Self {
        LatencyAttr {
            inner: Mutex::new(Inner {
                last: (u64::MAX, UNATTRIBUTED),
                hists: Vec::new(),
                sketch: SpaceSaving::new(),
            }),
        }
    }

    /// The per-stage breakdown of every class seen, sorted by class
    /// (unattributed traffic last).
    pub fn class_breakdown(&self) -> Vec<ClassLatency> {
        let inner = self.inner.lock().unwrap();
        let mut out: Vec<ClassLatency> = inner
            .hists
            .iter()
            .map(|(class, row)| ClassLatency {
                class: *class,
                stages: core::array::from_fn(|i| row[i].as_ref().map(|h| h.snapshot())),
            })
            .collect();
        out.sort_by_key(|c| c.class);
        out
    }

    /// The `k` heaviest flows by estimated wire bits.
    pub fn top_flows(&self, k: usize) -> Vec<FlowVolume> {
        self.inner.lock().unwrap().sketch.top(k)
    }
}

impl SpanSink for LatencyAttr {
    fn span(&self, stage: Stage, _start: Nanos, pkt_id: u64, dur: Nanos) {
        let mut inner = self.inner.lock().unwrap();
        let class = inner.class_of(pkt_id);
        inner.hist_for(class, stage).record(dur.as_nanos());
    }

    fn classify(&self, pkt_id: u64, class: u64, flow_hash: u64, wire_bits: u64) {
        let mut inner = self.inner.lock().unwrap();
        inner.last = (pkt_id, class);
        inner.sketch.offer(flow_hash, class, wire_bits);
    }
}

impl core::fmt::Debug for LatencyAttr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let spans: u64 = self
            .class_breakdown()
            .iter()
            .flat_map(|c| c.stages.iter().flatten())
            .map(|h| h.count)
            .sum();
        f.debug_struct("LatencyAttr")
            .field("spans", &spans)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Spans recorded for one class across all stages.
    fn spans(c: &ClassLatency) -> u64 {
        c.stages.iter().flatten().map(|h| h.count).sum()
    }

    #[test]
    fn spans_attribute_to_the_packets_class() {
        let lat = LatencyAttr::new();
        lat.classify(10, 7, 0xabc, 8_000);
        lat.span(Stage::Classify, Nanos::ZERO, 10, Nanos::from_nanos(50));
        lat.span(Stage::Sched, Nanos::ZERO, 10, Nanos::from_nanos(30));
        // Packet 11 was never classified: unattributed bucket.
        lat.span(Stage::Wire, Nanos::ZERO, 11, Nanos::from_nanos(900));

        let classes = lat.class_breakdown();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].class, 7);
        assert_eq!(spans(&classes[0]), 2);
        let sched = classes[0].stages[Stage::Sched as usize].unwrap();
        assert_eq!(sched.count, 1);
        assert_eq!(sched.max, 30);
        assert!(classes[0].stages[Stage::Wire as usize].is_none());
        assert_eq!(classes[1].class, UNATTRIBUTED);
        assert_eq!(spans(&classes[1]), 1);
        assert!(format!("{lat:?}").contains("spans: 3"));
    }

    #[test]
    fn a_span_of_a_packet_other_than_the_one_last_classified_is_unattributed() {
        let lat = LatencyAttr::new();
        lat.classify(5, 1, 0x1, 100);
        lat.classify(6, 2, 0x2, 100);
        lat.span(Stage::Sched, Nanos::ZERO, 5, Nanos::from_nanos(10));
        let classes = lat.class_breakdown();
        // Packet 6 was classified after packet 5, so 5's span is
        // unattributed — never misattributed to class 2.
        assert_eq!(
            classes.iter().map(|c| c.class).collect::<Vec<_>>(),
            vec![UNATTRIBUTED]
        );
    }

    #[test]
    fn a_span_without_a_packet_id_is_unattributed() {
        // Nothing in the workspace stamps one; a foreign caller might.
        let lat = LatencyAttr::new();
        lat.span(Stage::Wire, Nanos::ZERO, u64::MAX, Nanos::from_nanos(900));
        // Nor does packet 0 match before anything was classified.
        lat.span(Stage::Wire, Nanos::ZERO, 0, Nanos::from_nanos(900));
        let classes = lat.class_breakdown();
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].class, UNATTRIBUTED);
        assert_eq!(spans(&classes[0]), 2);
        // An id-less classification is still found again.
        lat.classify(u64::MAX, 7, 0xabc, 8_000);
        lat.span(Stage::Wire, Nanos::ZERO, u64::MAX, Nanos::from_nanos(900));
        assert_eq!(lat.class_breakdown()[0].class, 7);
    }

    #[test]
    fn sketch_tracks_heavy_hitters_with_bounded_error() {
        let lat = LatencyAttr::new();
        // One elephant and a long tail of mice, enough to force evictions.
        for i in 0..200u64 {
            lat.classify(i, 1, 100 + (i % 60), 1_000);
        }
        for i in 200..260u64 {
            lat.classify(i, 2, 999, 100_000);
        }
        let top = lat.top_flows(3);
        assert_eq!(top[0].flow_hash, 999);
        assert_eq!(top[0].class, 2);
        assert!(top[0].wire_bits >= 60 * 100_000);
        // Overestimation is bounded by the inherited minimum.
        assert!(top[0].err_bits <= top[0].wire_bits - 60 * 100_000 + 1_000 * 4);
        assert!(top.len() <= 3);
    }

    #[test]
    fn top_is_deterministic_under_ties() {
        let lat = LatencyAttr::new();
        for hash in [9u64, 3, 7] {
            lat.classify(hash, 0, hash, 500);
        }
        let top = lat.top_flows(10);
        assert_eq!(
            top.iter().map(|f| f.flow_hash).collect::<Vec<_>>(),
            vec![3, 7, 9]
        );
    }
}
