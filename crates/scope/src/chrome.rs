//! Chrome-trace (Trace Event Format) export of the span ring.
//!
//! [`chrome_trace`] converts the registry's [`TraceEvent`] tail into a
//! JSON document `chrome://tracing` and Perfetto open directly. Span
//! kinds (the `Span*` [`TraceKind`]s, whose `at`/`b` are start and
//! duration) become `"X"` complete events, one lane (`tid`) per pipeline
//! stage, so a packet's life renders as ingress → classify → sched →
//! tm_queue → wire stacked across lanes. Blocking lock waits get their
//! own lane, and everything else (drops, refills) becomes an `"i"`
//! instant event on lane 0.
//!
//! Timestamps in the Trace Event Format are **microseconds**; virtual
//! nanoseconds are emitted as fractional µs to keep full precision.
//!
//! The document opens with `"M"` metadata records — a `process_name` for
//! the NIC and one `thread_name` per lane — so viewers label the lanes
//! (`ingress`, `classify`, …, `lock_wait`) instead of showing bare tids.

use fv_telemetry::json::JsonValue;
use fv_telemetry::span::{Stage, STAGES};
use fv_telemetry::trace::{TraceEvent, TraceKind};
use fv_telemetry::Snapshot;

/// The lane (`tid`) lock-wait events render on: one past the last stage.
const LOCK_LANE: u64 = STAGES.len() as u64;

/// Leading `"M"` metadata records: one `process_name` plus a
/// `thread_name` per stage lane and the lock lane.
pub const METADATA_RECORDS: usize = 1 + STAGES.len() + 1;

fn us(nanos: u64) -> JsonValue {
    JsonValue::Num(nanos as f64 / 1_000.0)
}

/// Converts trace events into a Chrome-trace JSON document
/// (`{"traceEvents": […], "displayTimeUnit": "ns"}`).
///
/// # Example
///
/// ```
/// use fv_scope::chrome::chrome_trace;
/// use fv_telemetry::{Registry, Sampler};
/// use fv_telemetry::span::{SpanRecorder, Stage};
/// use sim_core::time::Nanos;
///
/// // Keep every packet (a registry keeps one in 64 by default).
/// let reg = Registry::with_sampler(1024, Sampler::one_in_pow2(0));
/// let spans = SpanRecorder::new(&reg);
/// spans.record(Stage::Wire, Nanos::from_nanos(100), 7, Nanos::from_nanos(1_230));
/// let doc = chrome_trace(&reg.ring().recent(16));
/// let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
/// let spans: Vec<_> = events
///     .iter()
///     .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
///     .collect();
/// assert_eq!(spans.len(), 1);
/// // Lane-naming metadata precedes the span records.
/// assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("M"));
/// ```
pub fn chrome_trace(events: &[TraceEvent]) -> JsonValue {
    let mut out = Vec::with_capacity(events.len() + METADATA_RECORDS);
    out.push(JsonValue::obj([
        ("name", JsonValue::Str("process_name".to_owned())),
        ("ph", JsonValue::Str("M".to_owned())),
        ("pid", JsonValue::UInt(0)),
        (
            "args",
            JsonValue::obj([("name", JsonValue::Str("flowvalve-nic".to_owned()))]),
        ),
    ]));
    let lane_name = |tid: u64, name: &str| {
        JsonValue::obj([
            ("name", JsonValue::Str("thread_name".to_owned())),
            ("ph", JsonValue::Str("M".to_owned())),
            ("pid", JsonValue::UInt(0)),
            ("tid", JsonValue::UInt(tid)),
            (
                "args",
                JsonValue::obj([("name", JsonValue::Str(name.to_owned()))]),
            ),
        ])
    };
    for stage in STAGES {
        out.push(lane_name(stage as u64, stage.name()));
    }
    out.push(lane_name(LOCK_LANE, "lock_wait"));
    for e in events {
        let json = match Stage::from_kind(e.kind) {
            Some(stage) => JsonValue::obj([
                ("name", JsonValue::Str(stage.name().to_owned())),
                ("cat", JsonValue::Str(stage.name().to_owned())),
                ("ph", JsonValue::Str("X".to_owned())),
                ("ts", us(e.at.as_nanos())),
                ("dur", us(e.b)),
                ("pid", JsonValue::UInt(0)),
                ("tid", JsonValue::UInt(stage as u64)),
                ("args", JsonValue::obj([("pkt", JsonValue::UInt(e.a))])),
            ]),
            None if e.kind == TraceKind::LockWait => JsonValue::obj([
                ("name", JsonValue::Str("lock_wait".to_owned())),
                ("cat", JsonValue::Str("lock_wait".to_owned())),
                ("ph", JsonValue::Str("X".to_owned())),
                ("ts", us(e.at.as_nanos())),
                ("dur", us(e.b)),
                ("pid", JsonValue::UInt(0)),
                ("tid", JsonValue::UInt(LOCK_LANE)),
                ("args", JsonValue::obj([("lock", JsonValue::UInt(e.a))])),
            ]),
            None => JsonValue::obj([
                ("name", JsonValue::Str(e.kind.name().to_owned())),
                ("cat", JsonValue::Str("event".to_owned())),
                ("ph", JsonValue::Str("i".to_owned())),
                ("ts", us(e.at.as_nanos())),
                ("pid", JsonValue::UInt(0)),
                ("tid", JsonValue::UInt(0)),
                ("s", JsonValue::Str("t".to_owned())),
                (
                    "args",
                    JsonValue::obj([("a", JsonValue::UInt(e.a)), ("b", JsonValue::UInt(e.b))]),
                ),
            ]),
        };
        out.push(json);
    }
    JsonValue::obj([
        ("traceEvents", JsonValue::Arr(out)),
        ("displayTimeUnit", JsonValue::Str("ns".to_owned())),
    ])
}

/// Renders the per-stage latency histograms of `snapshot` as an aligned
/// text table (`fv trace`'s on-terminal companion to the JSON file). The
/// histograms hold the spans of sampled packets; the first line says at
/// what rate.
pub fn latency_table(snapshot: &Snapshot) -> String {
    let mut out = format!(
        "stage latency over sampled packets (1 in {})\n\
         stage        count       mean_ns        p50_ns        p99_ns        max_ns\n",
        snapshot.sample_period()
    );
    for stage in STAGES {
        let Some(h) = snapshot.histogram(stage.metric()) else {
            continue;
        };
        out.push_str(&format!(
            "{:<10} {:>7} {:>13.0} {:>13} {:>13} {:>13}\n",
            stage.name(),
            h.count,
            h.mean(),
            h.p50,
            h.p99,
            h.max
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_telemetry::span::SpanRecorder;
    use fv_telemetry::{Registry, Sampler};
    use sim_core::time::Nanos;

    /// A registry that keeps every packet, so small ids can be asserted on.
    fn every_packet() -> Registry {
        Registry::with_sampler(1024, Sampler::one_in_pow2(0))
    }

    #[test]
    fn spans_become_complete_events_with_stage_lanes() {
        let reg = every_packet();
        let spans = SpanRecorder::new(&reg);
        spans.record(
            Stage::Ingress,
            Nanos::from_nanos(10),
            1,
            Nanos::from_nanos(5),
        );
        spans.record(
            Stage::Sched,
            Nanos::from_nanos(40),
            1,
            Nanos::from_nanos(120),
        );
        let doc = chrome_trace(&reg.ring().recent(16));
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), METADATA_RECORDS + 2);
        let sched = &events[METADATA_RECORDS + 1];
        assert_eq!(sched.get("name").and_then(|v| v.as_str()), Some("sched"));
        assert_eq!(sched.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(
            sched.get("tid").and_then(JsonValue::as_u64),
            Some(Stage::Sched as u64)
        );
        assert_eq!(sched.get("ts").and_then(|v| v.as_f64()), Some(0.04));
        assert_eq!(sched.get("dur").and_then(|v| v.as_f64()), Some(0.12));
        assert_eq!(
            sched
                .get("args")
                .and_then(|a| a.get("pkt"))
                .and_then(JsonValue::as_u64),
            Some(1)
        );
    }

    #[test]
    fn lock_waits_get_their_own_lane() {
        let reg = Registry::new();
        reg.ring()
            .record(Nanos::from_nanos(5), TraceKind::LockWait, 3, 250);
        let doc = chrome_trace(&reg.ring().recent(4));
        let e = &doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap()[METADATA_RECORDS];
        assert_eq!(e.get("name").and_then(|v| v.as_str()), Some("lock_wait"));
        assert_eq!(e.get("tid").and_then(JsonValue::as_u64), Some(LOCK_LANE));
        assert_eq!(e.get("dur").and_then(|v| v.as_f64()), Some(0.25));
    }

    #[test]
    fn non_span_events_become_instants() {
        let reg = Registry::new();
        reg.ring()
            .record(Nanos::from_nanos(9), TraceKind::TailDrop, 2, 64);
        let doc = chrome_trace(&reg.ring().recent(4));
        let e = &doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap()[METADATA_RECORDS];
        assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("i"));
        assert_eq!(e.get("name").and_then(|v| v.as_str()), Some("tail_drop"));
    }

    #[test]
    fn document_roundtrips_through_the_parser() {
        let reg = every_packet();
        let spans = SpanRecorder::new(&reg);
        for i in 0..10 {
            spans.record(
                Stage::Wire,
                Nanos::from_nanos(i * 100),
                i,
                Nanos::from_nanos(99),
            );
        }
        let doc = chrome_trace(&reg.ring().recent(32));
        let text = doc.to_pretty();
        let parsed = JsonValue::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("traceEvents")
                .and_then(|e| e.as_arr())
                .map(|a| a.len()),
            Some(METADATA_RECORDS + 10)
        );
        assert_eq!(
            parsed.get("displayTimeUnit").and_then(|v| v.as_str()),
            Some("ns")
        );
    }

    #[test]
    fn metadata_names_every_lane() {
        let doc = chrome_trace(&[]);
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), METADATA_RECORDS);
        assert_eq!(
            events[0].get("name").and_then(|v| v.as_str()),
            Some("process_name")
        );
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(|v| v.as_str()),
            Some("flowvalve-nic")
        );
        for (i, stage) in STAGES.iter().enumerate() {
            let e = &events[1 + i];
            assert_eq!(e.get("ph").and_then(|v| v.as_str()), Some("M"));
            assert_eq!(
                e.get("tid").and_then(JsonValue::as_u64),
                Some(*stage as u64)
            );
            assert_eq!(
                e.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(|v| v.as_str()),
                Some(stage.name())
            );
        }
        let lock = &events[METADATA_RECORDS - 1];
        assert_eq!(lock.get("tid").and_then(JsonValue::as_u64), Some(LOCK_LANE));
    }

    #[test]
    fn latency_table_lists_recorded_stages() {
        let reg = Registry::new();
        let spans = SpanRecorder::new(&reg);
        spans.record(
            Stage::Classify,
            Nanos::from_nanos(10),
            0,
            Nanos::from_nanos(50),
        );
        let table = latency_table(&reg.snapshot(Nanos::from_micros(1)));
        assert!(table.starts_with("stage latency over sampled packets (1 in 64)\n"));
        assert!(table.contains("classify"));
        assert!(table.lines().count() >= 3);
    }
}
