//! Figure 3: the kernel HTB baseline mis-enforcing the motivation policy
//! on a 10 Gbps link.
//!
//! Reproduced observations (paper §II-A):
//! 1. NC is not fully prioritized despite its highest-priority class.
//! 2. The 10 Gbps root ceiling is overrun (~12 Gbps total).
//! 3. The KVS > ML priority is ignored: the two share equally.

use fv_telemetry::{JsonValue, ToJson};
use hostsim::engine::run;
use hostsim::path::EgressPath;
use hostsim::policies;
use hostsim::scenario::Scenario;
use qdisc::htb::{Htb, KernelModel};

use crate::{motivation_windows, throughput_charts, FigureText};

/// Runs the figure; see the module docs.
pub fn figure(out: &mut String) -> JsonValue {
    let scenario = Scenario::motivation_example();
    let (specs, map) = policies::motivation_htb(scenario.policy_rate);
    let htb = Htb::new(specs, KernelModel::centos7()).expect("experiment hierarchy builds");
    let (report, _path) = run(&scenario, EgressPath::kernel(htb, map, scenario.link));

    throughput_charts(out, &scenario, &report, true);
    motivation_windows(out, &scenario, &report);

    let m = |a: &str| report.mean_gbps(&scenario, a, 17.0, 30.0);
    let (kvs, ml, ws) = (m("KVS"), m("ML"), m("WS"));
    let total_15_30 = kvs + ml + ws;
    let nc = report.mean_gbps(&scenario, "NC", 2.0, 15.0);
    writeln!(out, "\npaper-vs-measured checkpoints:");
    writeln!(
        out,
        "  total 15-30s        paper ~12 Gbps   measured {total_15_30:.2} Gbps"
    );
    writeln!(
        out,
        "  KVS/ML ratio        paper ~1.0       measured {:.2}",
        kvs / ml.max(1e-9)
    );
    writeln!(
        out,
        "  NC alone (0-15s)    paper < 10 Gbps  measured {nc:.2} Gbps"
    );
    writeln!(
        out,
        "\ndelivered {} dropped {} (path {})",
        report.delivered, report.dropped, report.path_name
    );

    let rows = [
        ("nc_0_15", nc),
        ("kvs_15_30", kvs),
        ("ml_15_30", ml),
        ("ws_15_30", ws),
        ("total_15_30", total_15_30),
    ];
    rows.to_json()
}
