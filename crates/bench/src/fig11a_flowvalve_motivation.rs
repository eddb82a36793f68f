//! Figure 11(a): FlowValve enforcing the motivation policy on 10 Gbps.
//!
//! Expected shape (paper §V-A): NC gets all available bandwidth while it
//! runs; from 15 s the active classes split per weight and priority (WS
//! 1/3 of S1, KVS prior to ML inside S2 with ML's 2 Gbps guarantee); the
//! ceiling holds at 10 Gbps.

use fv_telemetry::{JsonValue, ToJson};
use hostsim::engine::run;
use hostsim::policies;
use hostsim::scenario::Scenario;
use np_sim::config::NicConfig;

use crate::{flowvalve_path, motivation_windows, throughput_charts, FigureText};

/// Runs the figure; see the module docs.
pub fn figure(out: &mut String) -> JsonValue {
    let scenario = Scenario::motivation_example();
    // The policy divides 10 Gbps on the 40 GbE NIC, as in the paper.
    let path = flowvalve_path(
        &policies::motivation_fv(scenario.policy_rate),
        NicConfig::agilio_cx_40g(),
    );
    let (report, _path) = run(&scenario, path);

    throughput_charts(out, &scenario, &report, true);
    motivation_windows(out, &scenario, &report);

    let m = |a: &str, from, to| report.mean_gbps(&scenario, a, from, to);
    let nc = m("NC", 2.0, 15.0);
    let (kvs, ml, ws) = (
        m("KVS", 17.0, 30.0),
        m("ML", 17.0, 30.0),
        m("WS", 17.0, 30.0),
    );
    let total = kvs + ml + ws;
    writeln!(out, "\npaper-vs-measured checkpoints:");
    writeln!(
        out,
        "  NC alone (0-15s)    paper ~10 Gbps (all available)  measured {nc:.2}"
    );
    writeln!(
        out,
        "  ceiling (15-30s)    paper ≤10 Gbps                  measured {total:.2}"
    );
    writeln!(
        out,
        "  ML guarantee        paper ≥2 Gbps                   measured {ml:.2}"
    );
    writeln!(
        out,
        "  KVS > ML priority   paper KVS gets the S2 residual  measured KVS {kvs:.2} vs ML {ml:.2}"
    );
    writeln!(
        out,
        "  WS weight (1/3 S1)  paper ~3.3 Gbps                 measured {ws:.2}"
    );

    let rows = [
        ("nc_0_15", nc),
        ("kvs_15_30", kvs),
        ("ml_15_30", ml),
        ("ws_15_30", ws),
        ("total_15_30", total),
        ("kvs_30_45", m("KVS", 32.0, 45.0)),
        ("ws_30_45", m("WS", 32.0, 45.0)),
    ];
    rows.to_json()
}
