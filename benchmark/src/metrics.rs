//! The metric dictionary: every name the benchmark reports, its unit and
//! which way is better. `BENCHMARK.json` lists the same names (a unit
//! test holds the two together); bounds live there, not here.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Simulated (or counted) and therefore bit-identical between two runs
    /// of one commit at one seed on the four simulated workloads.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported with `--trace 0` on every workload. All
/// are host-clock quantities and none is ever zero.
pub const END_TO_END: [MetricDef; 4] = [
    host("setup_s", "s", Lower),
    host("pkts_per_s", "1/s", Higher),
    host("ns_per_pkt_p50", "ns", Lower),
    host("peak_rss_mb", "MiB", Lower),
];

/// Per-layer metrics, reported with `--trace 1` on every workload; the
/// prefix is the module the number belongs to. A layer that is not on a
/// workload's path reports 0 there.
pub const PER_LAYER: [MetricDef; 42] = [
    host("netstack.gen_ns_per_pkt", "ns", Lower),
    host("netstack.tcp_ns_per_ack", "ns", Lower),
    host("np_sim.harness_self_ns_per_pkt", "ns", Lower),
    host("np_sim.rx_self_ns_per_pkt", "ns", Lower),
    exact("np_sim.rx_drop_share", "ratio", Lower),
    exact("np_sim.tail_drop_share", "ratio", Lower),
    exact("np_sim.worker_utilization", "ratio", Higher),
    exact("np_sim.lock_wait_ns_per_pkt", "ns", Lower),
    exact("np_sim.lock_try_fail_share", "ratio", Lower),
    exact("classifier.hit_ratio", "ratio", Higher),
    host("classifier.hit_ns_per_lookup", "ns", Lower),
    host("classifier.miss_ns_per_lookup", "ns", Lower),
    host("flowvalve.compile_s", "s", Lower),
    host("flowvalve.decide_self_ns_per_pkt", "ns", Lower),
    exact("flowvalve.sched_drop_share", "ratio", Lower),
    exact("flowvalve.borrowed_share", "ratio", Higher),
    exact("flowvalve.decision_cache_hit_ratio", "ratio", Higher),
    exact("flowvalve.epoch_rolls", "count", Lower),
    host("flowvalve.decisions_per_s_1t", "1/s", Higher),
    host("flowvalve.scaling_eff_2t", "ratio", Higher),
    host("flowvalve.admitted_rate_err_pct", "%", Lower),
    host("telemetry.ns_per_pkt", "ns", Lower),
    host("audit.ns_per_pkt", "ns", Lower),
    host("probe.ns_per_pkt", "ns", Lower),
    host("scope.sampler_ns_per_pkt", "ns", Lower),
    exact("audit.records", "count", Higher),
    exact("audit.violations", "count", Lower),
    host("sim_core.event_ns_per_op", "ns", Lower),
    host("hostsim.run_self_ns_per_pkt", "ns", Lower),
    exact("hostsim.loss_share", "ratio", Lower),
    exact("hostsim.jain_fairness", "ratio", Higher),
    exact("sim.err_pct", "%", Lower),
    exact("sim.delay_p99_us", "us", Lower),
    exact("sim.mpps", "Mpps", Higher),
    host("host.chunk_ns_per_pkt_p95", "ns", Lower),
    host("host.calib_ns", "ns", Lower),
    host("trace.overhead_pct", "%", Lower),
    host("trace.probe_scale", "ratio", Higher),
    host("budget.residual_pct", "%", Lower),
    host("budget.layers_ns_per_pkt", "ns", Lower),
    host("budget.classifier_miss_pct", "%", Lower),
    host("budget.decide_pct", "%", Lower),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fv_telemetry::JsonValue;

    /// `BENCHMARK.json` is what the outside world reads; this dictionary
    /// is what the program prints. They must name the same metrics with
    /// the same units and directions, in the same order.
    #[test]
    fn benchmark_json_matches_the_dictionary() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(JsonValue::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                let field = |f: &str| entry.get(f).and_then(JsonValue::as_str).unwrap_or("");
                assert_eq!(field("name"), def.name);
                assert_eq!(field("unit"), def.unit, "{}", def.name);
                assert_eq!(field("better"), def.better.as_str(), "{}", def.name);
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(JsonValue::as_str))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(find("setup_s").is_some() && find("nope").is_none());
    }
}
