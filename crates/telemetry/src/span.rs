//! Per-packet span stamping at pipeline stage boundaries.
//!
//! A *span* is one packet's dwell in one stage of the pipeline — ingress
//! dispatch wait, classification, the scheduling verdict, the transmit-FIFO
//! wait or serialization onto the wire.
//! Spans are sampled: [`SpanRecorder::record`] asks the registry's
//! [`Sampler`] about the packet id and returns at once for a packet it
//! does not select (one packet in 64 is kept by default). For a selected
//! packet it publishes the span three ways from the single call:
//!
//! * as a [`TraceKind`] span event in the shared [`EventRing`], so a run
//!   can be exported to Chrome-trace/Perfetto JSON (the `fv-scope` crate's
//!   `chrome` module),
//! * into a per-stage log-linear [`Histogram`] (`span.<stage>_ns`), so the
//!   latency *decomposition* survives even when the bounded ring has
//!   wrapped, and
//! * to the registry's [`SpanSink`], when one is installed.
//!
//! The same recorder carries the other records keyed by a packet id — the
//! verdict and drop events ([`SpanRecorder::event`]) and the sink's
//! classification feed ([`SpanRecorder::sink_for`]) — so a packet has all
//! of its records or none, and no call site decides for itself. The
//! histograms therefore hold a 1-in-2^shift sample of the stage latencies;
//! `obs.sample_shift` in the same snapshot says which.
//!
//! All writes are wait-free (relaxed atomics, and the ring's one slot
//! `try_lock`); a recorder exists only where a caller attached a registry,
//! and the benchmark's `telemetry.ns_per_pkt` on `demo_observed` is the
//! measured price of doing so.

use std::sync::{Arc, OnceLock};

use sim_core::time::Nanos;

use crate::metrics::Histogram;
use crate::registry::Registry;
use crate::sampler::Sampler;
use crate::trace::{EventRing, TraceKind};

/// An observer of span stamps and classification verdicts, for attribution
/// profilers (the `fv-probe` crate) that need more context than the
/// per-stage histograms keep — e.g. per-flow-class latency decomposition.
///
/// A sink is installed at most once per registry
/// ([`Registry::install_span_sink`]), *before* the run starts; every
/// [`SpanRecorder`] bound to that registry forwards to it, for the packets
/// the registry's sampler selects. When no sink is installed a sampled
/// packet pays one atomic load and a branch.
pub trait SpanSink: Send + Sync {
    /// A packet spent `dur` in `stage` starting at `start`.
    fn span(&self, stage: Stage, start: Nanos, pkt_id: u64, dur: Nanos);

    /// The labeling function resolved `pkt_id` to a flow class. `class` is
    /// the leaf class minor number (or [`u64::MAX`] for unlabeled bypass
    /// traffic), `flow_hash` a stable per-flow hash, and `wire_bits` the
    /// packet's on-wire size — enough to attribute later spans of the same
    /// packet to its class and to feed heavy-hitter tracking.
    fn classify(&self, _pkt_id: u64, _class: u64, _flow_hash: u64, _wire_bits: u64) {}
}

/// The install-once cell a registry hands to its recorders.
pub(crate) type SinkCell = Arc<OnceLock<Arc<dyn SpanSink>>>;

/// Pipeline stages a packet is stamped at. The discriminants index
/// [`SpanRecorder`]'s histogram array and the Chrome-trace thread lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Arrival to worker start (ingress dispatch wait).
    Ingress = 0,
    /// The labeling function: flow classification.
    Classify = 1,
    /// The scheduling function: token grab and verdict.
    Sched = 2,
    /// Wait in the traffic-manager FIFO before serialization.
    TmQueue = 3,
    /// Serialization onto the wire.
    Wire = 4,
}

/// All stages, in discriminant order.
pub const STAGES: [Stage; 5] = [
    Stage::Ingress,
    Stage::Classify,
    Stage::Sched,
    Stage::TmQueue,
    Stage::Wire,
];

impl Stage {
    /// Stable lowercase name (the Chrome-trace category).
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Ingress => "ingress",
            Stage::Classify => "classify",
            Stage::Sched => "sched",
            Stage::TmQueue => "tm_queue",
            Stage::Wire => "wire",
        }
    }

    /// The registry histogram this stage records into.
    pub fn metric(&self) -> &'static str {
        match self {
            Stage::Ingress => "span.ingress_ns",
            Stage::Classify => "span.classify_ns",
            Stage::Sched => "span.sched_ns",
            Stage::TmQueue => "span.tm_queue_ns",
            Stage::Wire => "span.wire_ns",
        }
    }

    /// The trace-ring event kind carrying this stage's spans.
    pub fn kind(&self) -> TraceKind {
        match self {
            Stage::Ingress => TraceKind::SpanIngress,
            Stage::Classify => TraceKind::SpanClassify,
            Stage::Sched => TraceKind::SpanSched,
            Stage::TmQueue => TraceKind::SpanTmQueue,
            Stage::Wire => TraceKind::SpanWire,
        }
    }

    /// Inverse of [`Stage::kind`]: the stage a span event belongs to.
    pub fn from_kind(kind: TraceKind) -> Option<Stage> {
        Some(match kind {
            TraceKind::SpanIngress => Stage::Ingress,
            TraceKind::SpanClassify => Stage::Classify,
            TraceKind::SpanSched => Stage::Sched,
            TraceKind::SpanTmQueue => Stage::TmQueue,
            TraceKind::SpanWire => Stage::Wire,
            _ => return None,
        })
    }
}

impl core::fmt::Display for Stage {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Stamps the records keyed by a packet id — stage spans, verdict and drop
/// events — into a registry's event ring and per-stage histograms, for the
/// packets the registry's [`Sampler`] selects.
///
/// Cloning is cheap (`Arc` handles); all clones record into the same sinks.
///
/// # Example
///
/// ```
/// use fv_telemetry::span::{SpanRecorder, Stage};
/// use fv_telemetry::{Registry, Sampler};
/// use sim_core::time::Nanos;
///
/// let reg = Registry::new();
/// let spans = SpanRecorder::new(&reg);
/// // One id in every aligned block of 64 is kept; find the first block's.
/// let kept = (0..64).find(|&id| reg.sampler().hit(id)).unwrap();
/// // Packets waited 80 ns in the transmit FIFO starting at t=1 us.
/// for id in 0..64 {
///     spans.record(Stage::TmQueue, Nanos::from_micros(1), id, Nanos::from_nanos(80));
/// }
/// let snap = reg.snapshot(Nanos::from_micros(2));
/// assert_eq!(snap.histogram("span.tm_queue_ns").unwrap().count, 1);
/// assert_eq!(snap.events[0].a, kept);
/// assert_eq!(snap.sample_period(), 64);
///
/// // `Registry::with_sampler` is where a test asks for every packet.
/// let all = Registry::with_sampler(1024, Sampler::one_in_pow2(0));
/// SpanRecorder::new(&all).record(Stage::Wire, Nanos::ZERO, 7, Nanos::from_nanos(1_231));
/// assert_eq!(all.snapshot(Nanos::ZERO).histogram("span.wire_ns").unwrap().count, 1);
/// ```
#[derive(Clone)]
pub struct SpanRecorder {
    sampler: Sampler,
    ring: Arc<EventRing>,
    hists: [Arc<Histogram>; STAGES.len()],
    sink: SinkCell,
}

impl SpanRecorder {
    /// Registers the per-stage histograms in `registry`, binds to its
    /// event ring, copies its sampler and publishes the rate as the
    /// `obs.sample_shift` gauge, so a snapshot that holds sampled numbers
    /// says at what rate. Cold path; call once at wiring time.
    pub fn new(registry: &Registry) -> SpanRecorder {
        let sampler = registry.sampler();
        registry
            .gauge("obs.sample_shift")
            .set(u64::from(sampler.shift()));
        SpanRecorder {
            sampler,
            ring: registry.ring(),
            hists: STAGES.map(|s| registry.histogram(s.metric())),
            sink: registry.sink_cell(),
        }
    }

    /// Whether `pkt_id` is one of the packets this recorder keeps records
    /// for. Every recording method asks for itself; a caller asks only to
    /// skip work that would feed them (a cycles-to-nanoseconds conversion,
    /// a flow hash) for a packet that will leave no record.
    #[inline]
    pub fn sampled(&self, pkt_id: u64) -> bool {
        self.sampler.hit(pkt_id)
    }

    /// Records that a packet spent `dur` in `stage` starting at `start`,
    /// if the packet is sampled: histogram, ring event and sink call
    /// together or not at all. Wait-free; an unsampled packet pays the
    /// decision (a multiply and a compare) and nothing else.
    #[inline]
    pub fn record(&self, stage: Stage, start: Nanos, pkt_id: u64, dur: Nanos) {
        if !self.sampled(pkt_id) {
            return;
        }
        self.hists[stage as usize].record(dur.as_nanos());
        self.ring
            .record(start, stage.kind(), pkt_id, dur.as_nanos());
        if let Some(s) = self.sink.get() {
            s.span(stage, start, pkt_id, dur);
        }
    }

    /// Records a per-packet event that is not a span — a scheduling
    /// verdict, a drop — under the same decision: kept for the packets
    /// [`SpanRecorder::record`] keeps, skipped for the rest. Events that
    /// are not about one packet (refills, faults) go to the
    /// ring directly and are never sampled.
    #[inline]
    pub fn event(&self, at: Nanos, kind: TraceKind, pkt_id: u64, a: u64, b: u64) {
        if self.sampled(pkt_id) {
            self.ring.record(at, kind, a, b);
        }
    }

    /// The registry's installed [`SpanSink`], if there is one and `pkt_id`
    /// is sampled — components with sink-relevant context beyond spans
    /// (the labeling function's classification verdicts) feed it through
    /// here, so the sink hears of exactly the packets whose spans it gets.
    #[inline]
    pub fn sink_for(&self, pkt_id: u64) -> Option<&Arc<dyn SpanSink>> {
        if self.sampled(pkt_id) {
            self.sink.get()
        } else {
            None
        }
    }
}

impl core::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SpanRecorder").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_metrics_and_kinds_are_consistent() {
        for (i, s) in STAGES.iter().enumerate() {
            assert_eq!(*s as usize, i);
            assert_eq!(Stage::from_kind(s.kind()), Some(*s));
            assert!(s.kind().is_span());
            assert!(s.metric().starts_with("span."));
            assert!(s.metric().contains(s.name()));
            assert_eq!(format!("{s}"), s.name());
        }
        assert_eq!(Stage::from_kind(TraceKind::TailDrop), None);
    }

    /// A registry that keeps every packet, so small ids can be asserted on.
    fn every_packet() -> Registry {
        Registry::with_sampler(1024, Sampler::one_in_pow2(0))
    }

    #[test]
    fn record_feeds_both_histogram_and_ring() {
        let reg = every_packet();
        let spans = SpanRecorder::new(&reg);
        spans.record(
            Stage::Sched,
            Nanos::from_nanos(100),
            3,
            Nanos::from_nanos(40),
        );
        spans.record(
            Stage::Sched,
            Nanos::from_nanos(200),
            4,
            Nanos::from_nanos(60),
        );
        spans.record(
            Stage::Wire,
            Nanos::from_nanos(300),
            4,
            Nanos::from_nanos(1_231),
        );
        let snap = reg.snapshot(Nanos::from_micros(1));
        let sched = snap.histogram("span.sched_ns").expect("sched histogram");
        assert_eq!(sched.count, 2);
        assert_eq!(sched.min, 40);
        assert_eq!(sched.max, 60);
        assert_eq!(snap.histogram("span.wire_ns").unwrap().count, 1);
        // Empty stages still exist in the snapshot (count 0), so exporters
        // always see the full decomposition.
        assert_eq!(snap.histogram("span.ingress_ns").unwrap().count, 0);
        let spans_in_ring: Vec<_> = snap.events.iter().filter(|e| e.kind.is_span()).collect();
        assert_eq!(spans_in_ring.len(), 3);
        assert_eq!(spans_in_ring[0].b, 40);
    }

    #[test]
    fn installed_sink_observes_spans_even_from_earlier_recorders() {
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct CountSink {
            spans: AtomicU64,
            classified: AtomicU64,
        }
        impl SpanSink for CountSink {
            fn span(&self, _stage: Stage, _start: Nanos, _pkt_id: u64, _dur: Nanos) {
                self.spans.fetch_add(1, Ordering::Relaxed);
            }
            fn classify(&self, _pkt: u64, _class: u64, _hash: u64, _bits: u64) {
                self.classified.fetch_add(1, Ordering::Relaxed);
            }
        }

        let reg = every_packet();
        // Recorder wired *before* the sink exists — the install-once cell
        // still reaches it.
        let spans = SpanRecorder::new(&reg);
        spans.record(Stage::Sched, Nanos::ZERO, 1, Nanos::from_nanos(10));
        let sink = Arc::new(CountSink::default());
        assert!(reg.install_span_sink(sink.clone()));
        // Second install is refused; the first sink stays.
        assert!(!reg.install_span_sink(Arc::new(CountSink::default())));
        spans.record(Stage::Sched, Nanos::ZERO, 2, Nanos::from_nanos(10));
        spans.record(Stage::Wire, Nanos::ZERO, 2, Nanos::from_nanos(10));
        assert_eq!(sink.spans.load(Ordering::Relaxed), 2);
        spans
            .sink_for(2)
            .expect("sink visible")
            .classify(2, 7, 0xdead, 512);
        assert_eq!(sink.classified.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn clones_share_sinks() {
        let reg = every_packet();
        let a = SpanRecorder::new(&reg);
        let b = a.clone();
        a.record(Stage::Ingress, Nanos::ZERO, 1, Nanos::from_nanos(5));
        b.record(Stage::Ingress, Nanos::ZERO, 2, Nanos::from_nanos(7));
        assert_eq!(
            reg.snapshot(Nanos::ZERO)
                .histogram("span.ingress_ns")
                .unwrap()
                .count,
            2
        );
    }

    /// Histogram, span event, other per-packet events and sink calls follow
    /// one decision: all of them for a sampled id, none for the others.
    #[test]
    fn a_packet_has_all_of_its_records_or_none() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct Seen(Mutex<Vec<u64>>);
        impl SpanSink for Seen {
            fn span(&self, _stage: Stage, _start: Nanos, pkt_id: u64, _dur: Nanos) {
                self.0.lock().unwrap().push(pkt_id);
            }
            fn classify(&self, pkt_id: u64, _class: u64, _hash: u64, _bits: u64) {
                self.0.lock().unwrap().push(pkt_id);
            }
        }

        let reg = Registry::new();
        let sampler = reg.sampler();
        let spans = SpanRecorder::new(&reg);
        let sink = Arc::new(Seen::default());
        assert!(reg.install_span_sink(sink.clone()));
        for id in 0..640u64 {
            if let Some(s) = spans.sink_for(id) {
                s.classify(id, 7, 0xdead, 512);
            }
            spans.record(
                Stage::Sched,
                Nanos::from_nanos(id),
                id,
                Nanos::from_nanos(40),
            );
            spans.event(Nanos::from_nanos(id), TraceKind::SchedDrop, id, 7, id);
        }
        let kept: Vec<u64> = (0..640).filter(|&id| sampler.hit(id)).collect();
        assert_eq!(kept.len(), 10);
        let snap = reg.snapshot(Nanos::ZERO);
        assert_eq!(snap.histogram("span.sched_ns").unwrap().count, 10);
        assert_eq!(snap.sample_period(), 64);
        let events = reg.ring().recent(1024);
        let ids_of = |kind: TraceKind, id: fn(&crate::TraceEvent) -> u64| -> Vec<u64> {
            events.iter().filter(|e| e.kind == kind).map(id).collect()
        };
        assert_eq!(ids_of(TraceKind::SpanSched, |e| e.a), kept);
        assert_eq!(ids_of(TraceKind::SchedDrop, |e| e.b), kept);
        let doubled: Vec<u64> = kept.iter().flat_map(|&id| [id, id]).collect();
        assert_eq!(*sink.0.lock().unwrap(), doubled);
    }
}
