//! Flight recorder: the profile plus the trace ring's last words.
//!
//! When `fv check` sees an SLO violation or `fv chaos` runs fault windows,
//! the interesting state is *what the pipeline was doing right then* — the
//! attribution profile says where cycles/waits/latency went, and the
//! bounded trace ring still holds the most recent per-packet decisions.
//! [`flight_doc`] freezes both into one JSON document for post-mortem
//! analysis, the way aviation flight recorders pair instrument history
//! with the cockpit's last seconds.

use fv_telemetry::trace::TraceEvent;
use fv_telemetry::{JsonValue, ToJson};
use sim_core::time::Nanos;

use crate::report::ProbeReport;

/// Assembles a flight-recorder document: what triggered the dump, when,
/// the full attribution profile, and the trace-ring tail (oldest first).
pub fn flight_doc(
    trigger: &str,
    at: Nanos,
    report: &ProbeReport,
    events: &[TraceEvent],
) -> JsonValue {
    JsonValue::obj([
        ("trigger", JsonValue::Str(trigger.to_string())),
        ("at_ns", JsonValue::UInt(at.as_nanos())),
        ("profile", report.to_json()),
        ("trace", JsonValue::arr(events.iter().map(ToJson::to_json))),
    ])
}

#[cfg(test)]
mod tests {
    use fv_telemetry::span::Stage;
    use fv_telemetry::trace::TraceKind;
    use fv_telemetry::Registry;
    use np_sim::cost::CycleAttr;

    use super::*;
    use crate::latency::LatencyAttr;

    #[test]
    fn flight_doc_carries_profile_and_trace_tail() {
        let attr = CycleAttr::new(1);
        let lat = LatencyAttr::new();
        use fv_telemetry::span::SpanSink as _;
        lat.span(Stage::Wire, Nanos::ZERO, 1, Nanos::from_nanos(10));
        let reg = Registry::new();
        let report = ProbeReport::build(
            &attr,
            &[],
            &lat,
            &reg.snapshot(Nanos::ZERO),
            Nanos::from_micros(5),
        );
        let events = vec![TraceEvent {
            at: Nanos::from_nanos(42),
            kind: TraceKind::TailDrop,
            a: 9,
            b: 1,
        }];
        let doc = flight_doc("slo:conformance", Nanos::from_micros(5), &report, &events);
        assert_eq!(
            doc.get("trigger").unwrap().as_str(),
            Some("slo:conformance")
        );
        assert_eq!(
            doc.get("profile")
                .unwrap()
                .get("span_samples")
                .unwrap()
                .get("wire")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        let trace = doc.get("trace").unwrap().as_arr().unwrap();
        assert_eq!(trace[0].get("at_ns").unwrap().as_u64(), Some(42));
        assert_eq!(trace[0].get("kind").unwrap().as_str(), Some("tail_drop"));
        assert!(JsonValue::parse(&doc.to_compact()).is_ok());
    }
}
