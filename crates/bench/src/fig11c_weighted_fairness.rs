//! Figure 11(c): FlowValve weighted fair queueing at 40 Gbps with the
//! Figure 12 policy (App0:S1 = 1:1, App1:S2 = 1:1, App2:App3 = 1:1).
//!
//! Key checkpoints from the paper:
//! * App2's join at 20 s does not disturb App0 (it only splits S2's share);
//! * after App0 stops at 30 s the remaining apps share the link roughly
//!   equally, because borrowing is not weighted.

use fv_telemetry::{JsonValue, ToJson};
use hostsim::engine::run;
use hostsim::policies;
use hostsim::scenario::Scenario;
use np_sim::config::NicConfig;

use crate::{flowvalve_path, throughput_charts, FigureText};

/// Runs the figure; see the module docs.
pub fn figure(out: &mut String) -> JsonValue {
    let scenario = Scenario::weighted_fairness_40g(4);
    let path = flowvalve_path(
        &policies::weighted_fairness_fv(scenario.link, &scenario),
        NicConfig::agilio_cx_40g(),
    );
    let (report, _path) = run(&scenario, path);

    throughput_charts(out, &scenario, &report, true);

    // Steady-state windows skip ~3 figure-seconds after each join: at the
    // 40x time compression a figure second is 25 ms, so a TCP slow-start
    // transient of tens of milliseconds, sub-pixel in the paper, spans
    // 2-3 figure seconds here.
    let m = |a: &str, f: f64, t: f64| report.mean_gbps(&scenario, a, f, t);
    writeln!(out, "\nstage summaries (steady-state windows):");
    writeln!(
        out,
        "  [ 2..10s)  App0 alone              expect ~40: App0={:.1}",
        m("App0", 2.0, 10.0)
    );
    writeln!(
        out,
        "  [14..20s)  App0:App1 = 1:1          expect 20/20: App0={:.1} App1={:.1}",
        m("App0", 14.0, 20.0),
        m("App1", 14.0, 20.0)
    );
    writeln!(
        out,
        "  [22..25s)  App2 splits S2           expect 20/10/10: App0={:.1} App1={:.1} App2={:.1}",
        m("App0", 22.0, 25.0),
        m("App1", 22.0, 25.0),
        m("App2", 22.0, 25.0)
    );
    writeln!(
        out,
        "  [28..30s)  App2+App3 split S2       expect 20/10/5/5: App0={:.1} App1={:.1} App2={:.1} App3={:.1}",
        m("App0", 28.0, 30.0),
        m("App1", 28.0, 30.0),
        m("App2", 28.0, 30.0),
        m("App3", 28.0, 30.0)
    );
    writeln!(
        out,
        "  [33..50s)  App0 gone               hierarchy gives 20/10/10: App1={:.1} App2={:.1} App3={:.1}",
        m("App1", 33.0, 50.0),
        m("App2", 33.0, 50.0),
        m("App3", 33.0, 50.0)
    );
    out.push_str(concat!(
        "             (paper's prototype measured a flat ~13.3 equal share here: its\n",
        "              work conservation is borrowing-only, while this reproduction's\n",
        "              Subprocedure-3 weight redistribution preserves the hierarchy)\n",
    ));

    writeln!(out, "\npaper checkpoints:");
    let app0_before = m("App0", 17.0, 20.0);
    let app0_after_app2 = m("App0", 22.0, 25.0);
    writeln!(
        out,
        "  App2's join leaves App0 untouched: {:.1} -> {:.1} Gbps (paper: unchanged)",
        app0_before, app0_after_app2
    );

    let rows = [
        ("app0_2_10", m("App0", 2.0, 10.0)),
        ("app0_14_20", m("App0", 14.0, 20.0)),
        ("app1_14_20", m("App1", 14.0, 20.0)),
        ("app0_22_25", app0_after_app2),
        ("app0_28_30", m("App0", 28.0, 30.0)),
        ("app1_28_30", m("App1", 28.0, 30.0)),
        ("app2_28_30", m("App2", 28.0, 30.0)),
        ("app3_28_30", m("App3", 28.0, 30.0)),
        ("app1_33_50", m("App1", 33.0, 50.0)),
        ("app2_33_50", m("App2", 33.0, 50.0)),
        ("app3_33_50", m("App3", 33.0, 50.0)),
    ];
    rows.to_json()
}
