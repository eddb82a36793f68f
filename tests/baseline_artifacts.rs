//! Integration tests for the baseline models: the kernel HTB path must
//! exhibit the paper's Figure 3 artifacts end to end, and the DPDK QoS
//! path must enforce policy accurately — those two facts are the paper's
//! entire motivation, so they are pinned here.

use std::collections::HashMap;

use hostsim::engine::run;
use hostsim::path::EgressPath;
use hostsim::scenario::{AppSpec, Scenario};
use netstack::packet::AppId;
use qdisc::dpdk::DpdkQos;
use qdisc::htb::{Handle, Htb, HtbClassSpec, KernelModel};
use sim_core::time::Nanos;
use sim_core::units::BitRate;

/// Two greedy apps on a 2 Gbps policy over an 8 Gbps wire, one prio 0 and
/// one prio 1, equal assured rates — the KVS/ML configuration.
fn two_class_scenario() -> Scenario {
    let mut s = Scenario::new(BitRate::from_gbps(8.0), Nanos::from_millis(160));
    s.policy_rate = BitRate::from_gbps(2.0);
    s.time_scale = Nanos::from_millis(8);
    s.apps = vec![
        AppSpec::new("HI", 0, 0, 5001, 2, Nanos::ZERO, s.horizon),
        AppSpec::new("LO", 1, 1, 5002, 2, Nanos::ZERO, s.horizon),
    ];
    s
}

fn htb_specs(policy: BitRate) -> (Vec<HtbClassSpec>, HashMap<AppId, Handle>) {
    let specs = vec![
        HtbClassSpec::new(Handle(1), None, policy),
        HtbClassSpec::new(Handle(10), Some(Handle(1)), policy.scaled(1, 4))
            .ceil(policy)
            .prio(0),
        HtbClassSpec::new(Handle(20), Some(Handle(1)), policy.scaled(1, 4))
            .ceil(policy)
            .prio(1),
    ];
    let map = HashMap::from([(AppId(0), Handle(10)), (AppId(1), Handle(20))]);
    (specs, map)
}

fn run_htb(model: KernelModel) -> (Scenario, hostsim::engine::RunReport) {
    let s = two_class_scenario();
    let (specs, map) = htb_specs(s.policy_rate);
    let htb = Htb::new(specs, model).expect("hierarchy builds");
    let path = EgressPath::kernel(htb, map, s.link);
    let (report, _path) = run(&s, path);
    (s, report)
}

#[test]
fn centos7_htb_overruns_its_ceiling_under_tcp() {
    let (s, report) = run_htb(KernelModel::centos7());
    let total = report.mean_gbps(&s, "HI", 4.0, 20.0) + report.mean_gbps(&s, "LO", 4.0, 20.0);
    // charge_factor 0.85 sustains ~2.35 Gbps against a 2 Gbps ceiling.
    assert!(total > 2.15, "no overrun: {total} Gbps");
    assert!(total < 2.6, "overrun too large: {total} Gbps");
}

#[test]
fn ideal_htb_holds_its_ceiling() {
    let (s, report) = run_htb(KernelModel::ideal());
    let total = report.mean_gbps(&s, "HI", 4.0, 20.0) + report.mean_gbps(&s, "LO", 4.0, 20.0);
    assert!(total < 2.15, "ideal shaper overran: {total} Gbps");
}

#[test]
fn centos7_htb_ignores_priority_while_borrowing() {
    let (s, report) = run_htb(KernelModel::centos7());
    let hi = report.mean_gbps(&s, "HI", 4.0, 20.0);
    let lo = report.mean_gbps(&s, "LO", 4.0, 20.0);
    let ratio = hi / lo.max(1e-9);
    assert!(
        (0.7..1.4).contains(&ratio),
        "expected ~equal split, got HI {hi} vs LO {lo}"
    );
}

#[test]
fn dpdk_qos_enforces_policy_accurately() {
    let s = two_class_scenario();
    let cfg = qdisc::dpdk::DpdkQosConfig::equal_pipes(s.policy_rate, 2);
    let map: HashMap<AppId, (usize, usize)> =
        HashMap::from([(AppId(0), (0, 0)), (AppId(1), (1, 0))]);
    let path = EgressPath::dpdk(DpdkQos::new(cfg), map, s.link, 2);
    let (report, _path) = run(&s, path);
    let hi = report.mean_gbps(&s, "HI", 4.0, 20.0);
    let lo = report.mean_gbps(&s, "LO", 4.0, 20.0);
    let total = hi + lo;
    // Accurate conformance: never overruns, splits pipes equally.
    assert!(total < 2.1, "DPDK overran: {total} Gbps");
    assert!(total > 1.7, "DPDK underutilized: {total} Gbps");
    let ratio = hi / lo.max(1e-9);
    assert!((0.8..1.25).contains(&ratio), "unequal pipes: {hi} vs {lo}");
}

#[test]
fn kernel_lock_bounds_packet_rate_not_policy() {
    // Small packets: the qdisc lock, not the token buckets, becomes the
    // bottleneck — the §II-A observation that motivates offloading.
    let mut s = two_class_scenario();
    s.frame_len = 256;
    s.mss = 200;
    s.policy_rate = BitRate::from_gbps(8.0); // policy out of the way
    let (specs, map) = htb_specs(s.policy_rate);
    let htb = Htb::new(specs, KernelModel::ideal()).expect("hierarchy builds");
    let path = EgressPath::kernel(htb, map, s.link);
    let (report, _path) = run(&s, path);
    let total = report.mean_gbps(&s, "HI", 4.0, 20.0) + report.mean_gbps(&s, "LO", 4.0, 20.0);
    // ~1.5 Mpps of lock throughput x 2048 bits ≈ 3 Gbps << the 8 Gbps policy.
    assert!(total < 4.5, "lock did not bind: {total} Gbps");
    assert!(total > 1.0, "path collapsed: {total} Gbps");
}
