//! Multi-tenant isolation: the paper's motivation example, end to end.
//!
//! Replays the Figure 2 scenario (NC, KVS, ML, WS sharing a 10 Gbps
//! policy on a 40 GbE NIC) over closed-loop TCP twice — once through the
//! kernel HTB baseline with its measured CentOS 7 artifacts, once through
//! FlowValve on the NIC model — and prints both time series side by side.
//!
//! Run with: `cargo run --release --example multi_tenant_isolation`

use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use hostsim::engine::run;
use hostsim::path::EgressPath;
use hostsim::policies;
use hostsim::scenario::Scenario;
use np_sim::config::NicConfig;
use np_sim::nic::SmartNic;
use qdisc::htb::{Htb, KernelModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::motivation_example();

    // Kernel HTB path (CentOS 7 artifacts on).
    let (specs, map) = policies::motivation_htb(scenario.policy_rate);
    let htb = Htb::new(specs, KernelModel::centos7())?;
    let kernel = EgressPath::kernel(htb, map, scenario.link);
    let (kernel_report, _) = run(&scenario, kernel);

    // FlowValve path.
    let policy = policies::motivation_fv(scenario.policy_rate);
    let params = TreeParams {
        burst_window: sim_core::time::Nanos::from_millis(2),
        ..TreeParams::default()
    };
    let nic_cfg = NicConfig::agilio_cx_40g();
    let pipeline = FlowValvePipeline::compile(&policy, params, &nic_cfg)?;
    let fv = EgressPath::flowvalve(SmartNic::new(nic_cfg, Box::new(pipeline)));
    let (fv_report, _) = run(&scenario, fv);

    println!("window means in Gbps (figure-time axis):\n");
    println!(
        "{:<26} {:>10} {:>10}",
        "checkpoint", "kernel-htb", "flowvalve"
    );
    let rows: &[(&str, &str, f64, f64)] = &[
        ("NC while present", "NC", 2.0, 15.0),
        ("KVS (15-30s)", "KVS", 17.0, 30.0),
        ("ML (15-30s)", "ML", 17.0, 30.0),
        ("WS (15-30s)", "WS", 17.0, 30.0),
        ("KVS (30-45s)", "KVS", 32.0, 45.0),
        ("WS (30-45s)", "WS", 32.0, 45.0),
    ];
    for &(label, app, from, to) in rows {
        println!(
            "{label:<26} {:>10.2} {:>10.2}",
            kernel_report.mean_gbps(&scenario, app, from, to),
            fv_report.mean_gbps(&scenario, app, from, to)
        );
    }
    let total = |r: &hostsim::engine::RunReport| -> f64 {
        ["KVS", "ML", "WS"]
            .iter()
            .map(|a| r.mean_gbps(&scenario, a, 17.0, 30.0))
            .sum()
    };
    println!(
        "{:<26} {:>10.2} {:>10.2}   <- the 10 Gbps ceiling",
        "total (15-30s)",
        total(&kernel_report),
        total(&fv_report)
    );

    println!("\nwhat to look for:");
    println!(" - HTB lets the total overrun the 10 Gbps ceiling; FlowValve holds it");
    println!(" - HTB splits KVS/ML equally despite KVS's priority; FlowValve honors it");
    println!(" - HTB gives prioritized NC only an equal share; FlowValve gives it everything");
    Ok(())
}
