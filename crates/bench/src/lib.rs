//! Shared helpers for the figure-regeneration drivers.
//!
//! Every `src/bin/figNN_*.rs` driver regenerates one figure or table of
//! the paper. This library holds what they share: assembling the three
//! systems under test for a scenario, rendering throughput tables, and
//! writing machine-readable results under `results/`.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use hostsim::engine::RunReport;
use hostsim::path::EgressPath;
use hostsim::scenario::Scenario;
use np_sim::config::NicConfig;
use np_sim::nic::SmartNic;
use qdisc::dpdk::DpdkQos;
use qdisc::htb::{Htb, KernelModel};
use sim_core::time::Nanos;

/// Scheduling-tree parameters used by the closed-loop TCP experiments.
///
/// The figures compress ~600x in time, so a TCP sawtooth that spans
/// seconds on the testbed spans ~10 ms here; a 2 ms burst window lets the
/// token buckets absorb it (the hardware prototype's buckets do the same
/// relative to real sawtooths) while staying far below the 1-figure-second
/// reporting bins.
pub fn experiment_tree_params() -> TreeParams {
    TreeParams {
        burst_window: Nanos::from_millis(2),
        shadow_burst_window: Nanos::from_millis(1),
        ..TreeParams::default()
    }
}

/// Builds the FlowValve egress path for a policy on the given NIC profile.
///
/// # Panics
///
/// Panics if the policy fails to compile — experiment policies are static
/// and must be valid.
pub fn flowvalve_path(policy: &Policy, nic_cfg: NicConfig) -> EgressPath {
    let pipeline = FlowValvePipeline::compile(policy, experiment_tree_params(), &nic_cfg)
        .expect("experiment policy compiles");
    EgressPath::flowvalve(SmartNic::new(nic_cfg, Box::new(pipeline)))
}

/// Builds the kernel HTB egress path for a class hierarchy.
///
/// # Panics
///
/// Panics if the hierarchy is invalid.
pub fn kernel_path(
    specs: Vec<qdisc::htb::HtbClassSpec>,
    map: HashMap<netstack::packet::AppId, qdisc::htb::Handle>,
    scenario: &Scenario,
    model: KernelModel,
) -> EgressPath {
    let htb = Htb::new(specs, model).expect("experiment hierarchy builds");
    EgressPath::kernel(htb, map, scenario.link)
}

/// Builds the DPDK QoS egress path.
pub fn dpdk_path(
    cfg: qdisc::dpdk::DpdkQosConfig,
    map: HashMap<netstack::packet::AppId, (usize, usize)>,
    scenario: &Scenario,
    cores: usize,
) -> EgressPath {
    EgressPath::dpdk(DpdkQos::new(cfg), map, scenario.link, cores)
}

/// Renders a run's per-app throughput as a figure-axis table (one row per
/// figure second, labeled in figure seconds).
pub fn throughput_table(scenario: &Scenario, report: &RunReport) -> String {
    let all = report.recorder.binned_all(scenario.time_scale);
    let mut out = String::from("fig_s");
    for s in &all {
        out.push('\t');
        out.push_str(&s.name);
    }
    out.push('\n');
    let nbins = all.first().map(|s| s.rates.len()).unwrap_or(0);
    for i in 0..nbins {
        out.push_str(&format!("{i}"));
        for s in &all {
            out.push_str(&format!("\t{:.2}", s.rates[i].as_gbps()));
        }
        out.push('\n');
    }
    out
}

/// Renders the run's per-app series as shared-scale sparklines — the
/// eyeball-against-the-paper view the drivers print above their tables.
pub fn sparkline_chart(scenario: &Scenario, report: &RunReport) -> String {
    sim_core::chart::multi_sparkline(&report.recorder.binned_all(scenario.time_scale))
}

/// A summary row: app name and mean Gbps over a figure-time window.
pub fn window_summary(
    scenario: &Scenario,
    report: &RunReport,
    windows: &[(&str, f64, f64)],
) -> String {
    let mut out = String::new();
    for &(app, from, to) in windows {
        out.push_str(&format!(
            "{app:<6} [{from:>4.1}s..{to:>4.1}s) = {:>6.2} Gbps\n",
            report.mean_gbps(scenario, app, from, to)
        ));
    }
    out
}

/// Where experiment outputs are written.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("FV_RESULTS_DIR").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    let _ = std::fs::create_dir_all(&p);
    p
}

/// Writes a serializable result to `results/<name>.json` (best-effort) and
/// returns the path.
pub fn write_json<T: fv_telemetry::ToJson + ?Sized>(name: &str, value: &T) -> PathBuf {
    let path = results_dir().join(format!("{name}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = f.write_all(value.to_json().to_pretty().as_bytes());
    }
    path
}

/// Prints the standard experiment banner.
pub fn banner(id: &str, caption: &str) {
    println!("==============================================================");
    println!("{id}: {caption}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use hostsim::policies;
    use sim_core::units::BitRate;

    #[test]
    fn paths_assemble_for_the_motivation_experiment() {
        let scenario = Scenario::motivation_example();
        let fv = flowvalve_path(
            &policies::motivation_fv(scenario.link),
            NicConfig::agilio_cx_10g(),
        );
        assert_eq!(fv.name(), "flowvalve");
        let (specs, map) = policies::motivation_htb(scenario.policy_rate);
        let k = kernel_path(specs, map, &scenario, KernelModel::centos7());
        assert_eq!(k.name(), "kernel-htb");
        let (cfg, map) = policies::fair_queueing_dpdk(scenario.link, 4);
        let d = dpdk_path(cfg, map, &scenario, 2);
        assert_eq!(d.name(), "dpdk-qos");
    }

    #[test]
    fn json_written_to_results_dir() {
        std::env::set_var("FV_RESULTS_DIR", "/tmp/fv-test-results");
        let p = write_json("unit_test", &vec![1u32, 2, 3]);
        let data = std::fs::read_to_string(p).unwrap();
        assert!(data.contains('1'));
        let _ = BitRate::ZERO; // keep the import exercised
    }
}
