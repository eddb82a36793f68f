//! The metric registry and its snapshot/export model.
//!
//! Registration is the *cold* path: components ask the registry for named
//! handles once, at wiring time, behind a plain mutex. The handles are
//! `Arc`s to the wait-free primitives in [`crate::metrics`]; recording
//! through them never touches the registry again — the per-packet path is
//! relaxed atomics only, under both the virtual clock and the wall clock.
//!
//! A [`Snapshot`] is a point-in-time merge of every registered metric plus
//! the tail of the event ring. It renders as an aligned text table (the
//! `fv stats` view) or as a JSON document (`fv demo --json`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use sim_core::time::Nanos;

use crate::json::{JsonValue, ToJson};
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::sampler::Sampler;
use crate::span::{SinkCell, SpanSink};
use crate::trace::{EventRing, TraceEvent};

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    /// A counter whose total its owner keeps (see [`Registry::counter_view`]).
    CounterView(Arc<dyn Fn() -> u64 + Send + Sync>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A name is one metric of one kind for the life of the registry.
fn type_conflict(name: &str, requested: &str) -> ! {
    panic!("metric {name:?} already registered with another type (requested {requested})")
}

struct Inner {
    metrics: Mutex<BTreeMap<String, Metric>>,
    ring: Arc<EventRing>,
    /// The per-packet sampling decision every recorder built from this
    /// registry copies (see [`crate::sampler`]).
    sampler: Sampler,
    /// Install-once span-sink cell shared with every [`crate::span::SpanRecorder`]
    /// bound to this registry (see [`Registry::install_span_sink`]).
    span_sink: SinkCell,
}

/// A shared, clonable handle to a metric namespace.
///
/// Cloning is cheap; all clones observe the same metrics. Components take a
/// `&Registry` at construction/attach time and hold on to the `Arc` handles
/// they need.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates a registry with a 1024-entry event ring, keeping per-packet
    /// records for one packet in 64.
    pub fn new() -> Registry {
        Registry::with_ring_capacity(1024)
    }

    /// Creates a registry with a custom event-ring capacity.
    pub fn with_ring_capacity(capacity: usize) -> Registry {
        Registry::with_sampler(capacity, Sampler::default())
    }

    /// Creates a registry whose recorders keep per-packet records for the
    /// packets `sampler` selects. This is the one place a sampling rate is
    /// set; unit tests that want every span pass `Sampler::one_in_pow2(0)`.
    pub fn with_sampler(capacity: usize, sampler: Sampler) -> Registry {
        Registry {
            inner: Arc::new(Inner {
                metrics: Mutex::new(BTreeMap::new()),
                ring: Arc::new(EventRing::new(capacity)),
                sampler,
                span_sink: SinkCell::default(),
            }),
        }
    }

    /// The entry named `name`, built by `fresh` when there is none yet.
    fn get_or_create(&self, name: &str, fresh: fn() -> Metric) -> Metric {
        let mut metrics = self.inner.metrics.lock().unwrap();
        metrics.entry(name.to_owned()).or_insert_with(fresh).clone()
    }

    /// Gets or creates the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_create(name, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            _ => type_conflict(name, "counter"),
        }
    }

    /// Registers `name` as a counter whose total its owner keeps: the
    /// registry reports `read()` as a cell's value. Registered again, the
    /// name continues from its old total, so a new owner carries it on and
    /// the same owner counts nothing twice. `read` runs under the
    /// registry's lock, so it must not call into the registry, and its
    /// total must never fall.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn counter_view(&self, name: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        let mut metrics = self.inner.metrics.lock().unwrap();
        let base = match metrics.get(name) {
            None => 0,
            Some(Metric::CounterView(old)) => old().saturating_sub(read()),
            Some(_) => type_conflict(name, "counter view"),
        };
        let view = Arc::new(move || base + read());
        metrics.insert(name.to_owned(), Metric::CounterView(view));
    }

    /// Gets or creates the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_create(name, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            _ => type_conflict(name, "gauge"),
        }
    }

    /// Gets or creates the histogram named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_create(name, || Metric::Histogram(Arc::default())) {
            Metric::Histogram(h) => h,
            _ => type_conflict(name, "histogram"),
        }
    }

    /// The shared event-trace ring.
    pub fn ring(&self) -> Arc<EventRing> {
        Arc::clone(&self.inner.ring)
    }

    /// The per-packet sampling decision of this registry. Anything that
    /// writes a record keyed by a packet id copies it at wiring time and
    /// writes only for the ids it selects.
    pub fn sampler(&self) -> Sampler {
        self.inner.sampler
    }

    /// Installs the registry's one [`SpanSink`]: every
    /// [`crate::span::SpanRecorder`] bound to this registry — including
    /// ones constructed *before* the install — starts forwarding spans to
    /// it. Returns `false` (and keeps the existing sink) if one is already
    /// installed. Cold path; install before the run starts.
    pub fn install_span_sink(&self, sink: Arc<dyn SpanSink>) -> bool {
        self.inner.span_sink.set(sink).is_ok()
    }

    /// The install-once cell recorders poll on the hot path.
    pub(crate) fn sink_cell(&self) -> SinkCell {
        Arc::clone(&self.inner.span_sink)
    }

    /// Names and totals of every registered counter, views included,
    /// sorted by name.
    pub fn counter_totals(&self) -> Vec<(String, u64)> {
        let metrics = self.inner.metrics.lock().unwrap();
        metrics
            .iter()
            .filter_map(|(name, metric)| match metric {
                Metric::Counter(c) => Some((name.clone(), c.total())),
                Metric::CounterView(read) => Some((name.clone(), read())),
                _ => None,
            })
            .collect()
    }

    /// Merges every metric (and the event-ring tail) into a [`Snapshot`]
    /// taken "at" the supplied instant.
    pub fn snapshot(&self, at: Nanos) -> Snapshot {
        let metrics = self.inner.metrics.lock().unwrap();
        let entries = metrics
            .iter()
            .map(|(name, metric)| MetricEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.total()),
                    Metric::CounterView(read) => MetricValue::Counter(read()),
                    Metric::Gauge(g) => MetricValue::Gauge {
                        value: g.get(),
                        max: g.max(),
                    },
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        Snapshot {
            at,
            entries,
            events: self.inner.ring.recent(64),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.inner.metrics.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("Registry").field("metrics", &n).finish()
    }
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// The counter's total.
    Counter(u64),
    /// Last set value and high-water mark.
    Gauge {
        /// Most recent observation.
        value: u64,
        /// Largest observation.
        max: u64,
    },
    /// Histogram summary statistics.
    Histogram(HistogramSnapshot),
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Dotted metric name, e.g. `nic.tx_packets`.
    pub name: String,
    /// Merged value.
    pub value: MetricValue,
}

/// A point-in-time view of a whole registry.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// The instant the snapshot was taken.
    pub at: Nanos,
    /// All metrics, sorted by name.
    pub entries: Vec<MetricEntry>,
    /// Tail of the event-trace ring, oldest first.
    pub events: Vec<TraceEvent>,
}

impl Snapshot {
    /// Finds a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// The value of a counter, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The histogram summary under `name`, when present.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(*h),
            _ => None,
        }
    }

    /// How many packets stand behind each per-packet record (span sample,
    /// verdict event, heavy-hitter count, provenance record) of the run:
    /// 2^`obs.sample_shift`, which a [`crate::span::SpanRecorder`]
    /// publishes when it is wired. 1 without one — nothing was sampled.
    pub fn sample_period(&self) -> u64 {
        match self.get("obs.sample_shift") {
            Some(MetricValue::Gauge { value, .. }) => 1 << (*value).min(63),
            _ => 1,
        }
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("count", self.count.to_json()),
            ("mean_ns", self.mean().to_json()),
            ("min_ns", self.min.to_json()),
            ("p50_ns", self.p50.to_json()),
            ("p90_ns", self.p90.to_json()),
            ("p99_ns", self.p99.to_json()),
            ("p999_ns", self.p999.to_json()),
            ("max_ns", self.max.to_json()),
        ])
    }
}

impl ToJson for MetricValue {
    fn to_json(&self) -> JsonValue {
        match self {
            MetricValue::Counter(v) => v.to_json(),
            MetricValue::Gauge { value, max } => {
                JsonValue::obj([("value", value.to_json()), ("max", max.to_json())])
            }
            MetricValue::Histogram(h) => h.to_json(),
        }
    }
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("at_ns", self.at.as_nanos().to_json()),
            ("kind", self.kind.name().to_json()),
            ("a", self.a.to_json()),
            ("b", self.b.to_json()),
        ])
    }
}

impl ToJson for Snapshot {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("at_ns", self.at.as_nanos().to_json()),
            (
                "metrics",
                JsonValue::Obj(
                    self.entries
                        .iter()
                        .map(|e| (e.name.clone(), e.value.to_json()))
                        .collect(),
                ),
            ),
            ("events", self.events.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;

    #[test]
    fn counter_roundtrip_through_snapshot() {
        let reg = Registry::new();
        let c = reg.counter("nic.tx_packets");
        c.add(41);
        c.incr();
        let snap = reg.snapshot(Nanos::from_micros(5));
        assert_eq!(snap.counter("nic.tx_packets"), 42);
        assert_eq!(snap.at, Nanos::from_micros(5));
    }

    #[test]
    fn counter_totals_list_cells_and_views_sorted_by_name() {
        let reg = Registry::new();
        reg.counter("c").add(3);
        reg.counter("a");
        reg.counter("a"); // re-registration: same cell
        reg.counter_view("b", || 7);
        reg.gauge("g"); // other metric kinds are not counters
        reg.histogram("h");
        let totals = [("a".into(), 0), ("b".into(), 7), ("c".into(), 3)];
        assert_eq!(reg.counter_totals(), totals);
        // A snapshot cannot tell a view from a cell.
        assert_eq!(
            reg.snapshot(Nanos::ZERO).get("b"),
            Some(&MetricValue::Counter(7))
        );
    }

    #[test]
    fn a_view_registered_again_continues_its_total() {
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        static TALLIES: [AtomicU64; 2] = [AtomicU64::new(5), AtomicU64::new(2)];
        let owner = |i: usize| move || TALLIES[i].load(Relaxed);
        let reg = Registry::new();
        // The same owner again counts nothing twice.
        reg.counter_view("v", owner(0));
        reg.counter_view("v", owner(0));
        assert_eq!(reg.counter_totals(), [("v".into(), 5)]);
        // A new owner continues from where the old one stands, and the
        // old one no longer counts.
        reg.counter_view("v", owner(1));
        TALLIES[0].fetch_add(100, Relaxed);
        TALLIES[1].fetch_add(4, Relaxed);
        reg.counter_view("v", owner(1));
        assert_eq!(reg.snapshot(Nanos::ZERO).counter("v"), 9);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn a_cell_on_a_views_name_is_a_type_conflict() {
        let reg = Registry::new();
        reg.counter_view("x", || 0);
        reg.counter("x");
    }

    #[test]
    fn same_name_returns_same_counter() {
        let reg = Registry::new();
        reg.counter("x").add(1);
        reg.counter("x").add(1);
        assert_eq!(reg.snapshot(Nanos::ZERO).counter("x"), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflict_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_prefix_filterable() {
        let reg = Registry::new();
        reg.counter("b.two");
        reg.counter("a.one");
        reg.gauge("b.depth");
        let snap = reg.snapshot(Nanos::ZERO);
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["a.one", "b.depth", "b.two"]);
        let b = snap.entries.iter().filter(|e| e.name.starts_with("b."));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn snapshot_carries_ring_tail() {
        let reg = Registry::new();
        reg.ring()
            .record(Nanos::from_nanos(7), TraceKind::SchedDrop, 3, 0);
        let snap = reg.snapshot(Nanos::ZERO);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.events[0].kind, TraceKind::SchedDrop);
    }

    #[test]
    fn clones_share_state() {
        let reg = Registry::new();
        let other = reg.clone();
        other.counter("shared").add(5);
        assert_eq!(reg.snapshot(Nanos::ZERO).counter("shared"), 5);
    }

    #[test]
    fn json_export_shape() {
        let reg = Registry::new();
        reg.counter("tx").add(9);
        reg.histogram("lat").record(100);
        let doc = reg.snapshot(Nanos::from_nanos(3)).to_json();
        assert_eq!(doc.get("at_ns").and_then(JsonValue::as_u64), Some(3));
        let metrics = doc.get("metrics").expect("metrics object");
        assert_eq!(metrics.get("tx").and_then(JsonValue::as_u64), Some(9));
        let lat = metrics.get("lat").expect("histogram");
        assert_eq!(lat.get("count").and_then(JsonValue::as_u64), Some(1));
    }
}
