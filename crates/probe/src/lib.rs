//! `fv-probe`: cycle / contention / latency attribution for FlowValve.
//!
//! The paper's core claim is that the whole scheduling pipeline fits an
//! NP's per-packet cycle budget. The telemetry stack (fv-telemetry,
//! fv-scope) says *how much* — counters, gauges, span durations —
//! but tuning needs *where*: which pipeline phase burns the cycles, which
//! lock serializes the scheduling function, which flow class eats the
//! tail latency, on which micro-engine. This crate aggregates the signals
//! the stack already emits into navigable profiles:
//!
//! * [`report::ProbeReport`] — the assembled profile, exported as
//!   flamegraph folded stacks (`fv profile --folded`), a summary table, or
//!   JSON. Cycle attribution comes from
//!   [`np_sim::cost::CycleAttr`] (stage × op ×
//!   worker cells folded by the cost meter), contention from the lock
//!   table's per-lock rows ranked by [`contention::rank_locks`], and
//!   waterlines from the registry's queue-depth gauges.
//! * [`latency::LatencyAttr`] — a
//!   [`SpanSink`](fv_telemetry::SpanSink) demultiplexing every stage span
//!   into per-flow-class HDR-style histograms (p50/p90/p99/p999 per stage
//!   per class) plus a space-saving heavy-hitter sketch (`fv top`).
//! * [`flight::flight_doc`] — a flight-recorder dump (profile + trace-ring
//!   tail) written on SLO violations in `fv check` and fault windows in
//!   `fv chaos`.
//!
//! Everything is deterministic: cells, ranks, classes and sketch tops are
//! totally ordered, so the same simulation seed yields byte-identical
//! exports — which `scripts/check.sh` asserts.

pub mod contention;
pub mod flight;
pub mod latency;
pub mod report;

pub use contention::{rank_locks, LockRank};
pub use flight::flight_doc;
pub use latency::{ClassLatency, FlowVolume, LatencyAttr, UNATTRIBUTED};
pub use report::{ProbeReport, Waterline};
