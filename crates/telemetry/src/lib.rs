//! `fv-telemetry`: dual-clock observability for the FlowValve workspace.
//!
//! The paper's entire evaluation (Figures 3, 7, 10–14) is built on
//! per-class rate / latency / drop telemetry. This crate gives every layer
//! of the reproduction one way to answer "what did the scheduler do and
//! why":
//!
//! * [`Registry`] — a named-metric registry handing out `Arc` handles to
//!   wait-free primitives. Registration is cold-path (mutex); recording is
//!   relaxed atomics only.
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — one-word counters (one
//!   cell per exact tally, written with a plain add by the component that
//!   owns it, or a [`Registry::counter_view`] over a count the owner
//!   keeps itself), occupancy gauges with high-water marks and log-linear
//!   latency histograms. Rates are read off counters by `fv-scope`'s
//!   `TimeSampler`; nothing here keeps a second series.
//! * [`Ring`] — the one overwrite-oldest ring (try-lock slots, a writer
//!   never blocks); [`EventRing`] is the registry's ring of individual
//!   scheduler decisions, token-bucket refills, tail drops and fault
//!   windows, and `fv_audit`'s provenance ring is the same structure.
//! * [`Sampler`] — the one per-packet sampling decision: spans, per-packet
//!   trace events and provenance are kept for the same one packet in 64;
//!   counters, gauges and `nic.latency_ns` stay exact.
//! * [`json`] — a small JSON emitter ([`ToJson`]/[`JsonValue`]) behind the
//!   `fv demo --json` exporter and the figure result files (this workspace
//!   builds with no crates.io access, so there is no `serde_json`).
//!
//! # The dual-clock contract
//!
//! Nothing in this crate reads a clock. Every recording API takes either a
//! plain `u64` or an explicit [`Nanos`](sim_core::time::Nanos) timestamp
//! supplied by the caller, so the *identical* instrumentation runs:
//!
//! * under **virtual time** inside the discrete-event simulator, where
//!   time advances only when events fire, and
//! * under **wall-clock time** on real OS threads, where
//!   `sim_core::clock::WallClock` reads the hardware clock.
//!
//! Because the hot path is wait-free (no lock is waited for, no CAS loops
//! on counters), attaching telemetry does not add contention of its own to
//! the run it observes.
//!
//! # Example
//!
//! ```
//! use fv_telemetry::{Registry, ToJson};
//! use sim_core::time::Nanos;
//!
//! let reg = Registry::new();
//! let tx = reg.counter("nic.tx_packets");        // cold path: once
//! let lat = reg.histogram("nic.latency_ns");
//!
//! // hot path: relaxed atomics only
//! tx.incr();
//! lat.record(1_230);
//!
//! let snap = reg.snapshot(Nanos::from_micros(10));
//! assert_eq!(snap.counter("nic.tx_packets"), 1);
//! println!("{}", snap.to_json().to_pretty());    // `fv demo --json`
//! ```

pub mod json;
pub mod metrics;
pub mod registry;
pub mod sampler;
pub mod span;
pub mod trace;

pub use json::{JsonValue, ToJson};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricEntry, MetricValue, Registry, Snapshot};
pub use sampler::Sampler;
pub use span::{SpanRecorder, SpanSink, Stage, STAGES};
pub use trace::{EventRing, Ring, TraceEvent, TraceKind};
