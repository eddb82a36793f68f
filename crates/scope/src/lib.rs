//! `fv-scope`: the observability layer over the FlowValve reproduction.
//!
//! fv-telemetry gives every component wait-free counters, histograms and
//! a trace ring; this crate turns those primitives into the three views
//! the paper's evaluation methodology needs:
//!
//! * [`sampler`] — a virtual-time [`TimeSampler`] driven from the event
//!   loop: every interval boundary it snapshots counter totals into a
//!   bounded ring of *delta* frames, exportable as CSV / JSONL / the
//!   Prometheus text format (`fv timeseries`).
//! * [`chrome`] — converts the per-packet stage spans the pipeline stamps
//!   (ingress → classify → sched → tm_queue → wire) into a Chrome-trace
//!   JSON document that `chrome://tracing` and Perfetto open directly
//!   (`fv trace`).
//! * [`check`] — declarative [`Slo`] assertions (windowed rate bands,
//!   zero-counters, p99 bounds) evaluated from sampler output, behind
//!   `fv check` and the rate-conformance tests.
//!
//! Everything here is cold-path: the hot path stays in fv-telemetry's
//! relaxed atomics; fv-scope only *reads* — at tick boundaries, or once
//! at the end of a run.

pub mod check;
pub mod chrome;
pub mod sampler;

pub use check::{evaluate, CheckReport, Slo, SloResult};
pub use chrome::{chrome_trace, latency_table};
pub use sampler::{prometheus_text, Frame, SamplerConfig, TimeSampler};
