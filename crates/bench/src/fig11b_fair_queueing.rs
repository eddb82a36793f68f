//! Figure 11(b): FlowValve fair queueing at 40 Gbps line rate.
//!
//! Four apps with four TCP connections each join at 0/10/20/30 s and App0
//! leaves at 40 s. FlowValve must split the 40 Gbps link equally among the
//! active apps at every stage while keeping the link full (work
//! conservation through shadow-bucket borrowing). The paper additionally
//! varies connection counts from 4 to 256 with unchanged results; this
//! figure replays the scenario at several connection counts.

use fv_telemetry::{JsonValue, ToJson};
use hostsim::engine::run;
use hostsim::policies;
use hostsim::scenario::Scenario;
use np_sim::config::NicConfig;

use crate::{flowvalve_path, throughput_charts, FigureText};

/// Runs the figure; see the module docs.
pub fn figure(out: &mut String) -> JsonValue {
    let mut results: Vec<(String, f64)> = Vec::new();
    for (conns_a, conns_b) in [(4usize, 4usize), (16, 64)] {
        let mut scenario = Scenario::fair_queueing_40g(conns_a);
        // "different processes maintain different numbers of connections":
        // alternate the per-app connection counts in the second variant.
        for (i, app) in scenario.apps.iter_mut().enumerate() {
            app.conns = if i % 2 == 0 { conns_a } else { conns_b };
        }
        let path = flowvalve_path(
            &policies::fair_queueing_fv(scenario.link, &scenario),
            NicConfig::agilio_cx_40g(),
        );
        let (report, _path) = run(&scenario, path);

        writeln!(out, "\n--- connections per app: {conns_a}/{conns_b} ---");
        throughput_charts(out, &scenario, &report, conns_a == 4 && conns_b == 4);

        // Stage expectations: equal split of 40 Gbps among active apps.
        let stages: &[(f64, f64, &[&str], f64)] = &[
            (2.0, 10.0, &["App0"], 40.0),
            (12.0, 20.0, &["App0", "App1"], 20.0),
            (22.0, 30.0, &["App0", "App1", "App2"], 13.3),
            (32.0, 40.0, &["App0", "App1", "App2", "App3"], 10.0),
            (42.0, 50.0, &["App1", "App2", "App3"], 13.3),
        ];
        writeln!(out, "\nstage summaries (expected equal split):");
        for &(from, to, apps, expect) in stages {
            let measured: Vec<f64> = apps
                .iter()
                .map(|a| report.mean_gbps(&scenario, a, from, to))
                .collect();
            let shown: Vec<String> = apps
                .iter()
                .zip(&measured)
                .map(|(a, m)| format!("{a}={m:.1}"))
                .collect();
            writeln!(
                out,
                "  [{from:>4.1}..{to:>4.1}s) expect ~{expect:>5.1} Gbps each: {}",
                shown.join("  ")
            );
            for (a, m) in apps.iter().zip(&measured) {
                results.push((format!("c{conns_a}_{conns_b}_{a}_{from}_{to}"), *m));
            }
        }
        writeln!(
            out,
            "delivered {} dropped {}",
            report.delivered, report.dropped
        );
    }
    // A blank line above the runner's `results -> ...` line.
    out.push('\n');
    results.to_json()
}
