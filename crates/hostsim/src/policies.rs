//! Ready-made policies for the paper's experiments, in all three systems'
//! native configuration languages.
//!
//! Each experiment needs the *same* policy expressed three ways: an `fv`
//! script for FlowValve, an [`HtbClassSpec`] hierarchy + class map for the
//! kernel path, and a [`DpdkQosConfig`] + pipe map for the DPDK path.
//! Keeping the translations side by side here is what makes the
//! apples-to-apples comparisons of Figures 3/11/13/14 reproducible.

use std::collections::HashMap;

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::sched::LockDiscipline;
use flowvalve::tree::TreeParams;
use netstack::flow::FlowKey;
use netstack::gen::LineRateProcess;
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::harness::Source;
use np_sim::nic::SmartNic;
use qdisc::dpdk::DpdkQosConfig;
use qdisc::htb::{Handle, HtbClassSpec};
use sim_core::units::BitRate;

use crate::scenario::Scenario;

/// The motivation example (paper Figure 2) as an `fv` policy.
///
/// NC is strictly prior; WS and the vm1 subtree (S2) share the rest 1:2;
/// inside S2, KVS is prior to ML but ML holds a 2 Gbps guarantee. Borrow
/// labels implement the preferential interior sharing of §IV-C.
pub fn motivation_fv(link: BitRate) -> Policy {
    let gbit = link.as_gbps();
    Policy::parse(&format!(
        "fv qdisc add dev nic0 root handle 1: fv default 1:30\n\
         fv class add dev nic0 parent root classid 1:1 name s0 rate {gbit}gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name nc prio 0\n\
         fv class add dev nic0 parent 1:1 classid 1:2 name s1 prio 1\n\
         fv class add dev nic0 parent 1:2 classid 1:30 name ws weight 1\n\
         fv class add dev nic0 parent 1:2 classid 1:22 name s2 weight 2\n\
         fv class add dev nic0 parent 1:22 classid 1:40 name kvs prio 0\n\
         fv class add dev nic0 parent 1:22 classid 1:41 name ml prio 1 rate 2gbit\n\
         fv filter add dev nic0 prio 1 match vf 0 flowid 1:10\n\
         fv filter add dev nic0 prio 2 match vf 1 ip dport 5001 flowid 1:40 borrow 1:41,1:30\n\
         fv filter add dev nic0 prio 3 match vf 1 ip dport 5002 flowid 1:41 borrow 1:22,1:40\n\
         fv filter add dev nic0 prio 4 match vf 2 flowid 1:30 borrow 1:22\n"
    ))
    .expect("motivation policy parses")
}

/// The motivation example as a kernel HTB hierarchy, with the app → leaf
/// class map for the scenario produced by [`Scenario::motivation_example`].
///
/// Kernel HTB requires an assured rate per class (`tc` errors otherwise);
/// the conventional translation gives NC a small guarantee with priority 0
/// and lets everything borrow to the full link — which is precisely where
/// the kernel's quantum-based borrowing defeats the intended priorities.
pub fn motivation_htb(link: BitRate) -> (Vec<HtbClassSpec>, HashMap<AppId, Handle>) {
    let specs = vec![
        HtbClassSpec::new(Handle(1), None, link),
        // NC: highest priority, 1 Gbps assured.
        HtbClassSpec::new(Handle(10), Some(Handle(1)), link.scaled(1, 10))
            .ceil(link)
            .prio(0),
        // S1 subtree.
        HtbClassSpec::new(Handle(2), Some(Handle(1)), link.scaled(9, 10))
            .ceil(link)
            .prio(1),
        // WS : S2 = 1 : 2 via rates and quanta.
        HtbClassSpec::new(Handle(30), Some(Handle(2)), link.scaled(3, 10))
            .ceil(link)
            .quantum(1_518),
        HtbClassSpec::new(Handle(22), Some(Handle(2)), link.scaled(6, 10))
            .ceil(link)
            .quantum(2 * 1_518),
        // KVS prio 0 vs ML prio 1: the administrator encodes the priority
        // in `prio` and gives both the same 2 Gbps assured rate — which is
        // exactly the configuration whose priority the measured kernel
        // ignores once both classes borrow.
        HtbClassSpec::new(Handle(40), Some(Handle(22)), BitRate::from_gbps(2.0))
            .ceil(link)
            .prio(0),
        HtbClassSpec::new(Handle(41), Some(Handle(22)), BitRate::from_gbps(2.0))
            .ceil(link)
            .prio(1),
    ];
    let map = HashMap::from([
        (AppId(0), Handle(10)), // NC
        (AppId(1), Handle(40)), // KVS
        (AppId(2), Handle(41)), // ML
        (AppId(3), Handle(30)), // WS
    ]);
    (specs, map)
}

/// Fair queueing across `n` apps as an `fv` policy: equal-weight leaves,
/// every leaf allowed to borrow from every other (work conservation).
pub fn fair_queueing_fv(link: BitRate, scenario: &Scenario) -> Policy {
    let gbit = link.as_gbps();
    let n = scenario.apps.len();
    let mut script = format!(
        "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 name root rate {gbit}gbit\n"
    );
    for (i, app) in scenario.apps.iter().enumerate() {
        script.push_str(&format!(
            "fv class add dev nic0 parent 1:1 classid 1:{} name {} weight 1\n",
            10 + i,
            app.name.to_lowercase(),
        ));
    }
    for (i, app) in scenario.apps.iter().enumerate() {
        let lenders: Vec<String> = (0..n)
            .filter(|&j| j != i)
            .map(|j| format!("1:{}", 10 + j))
            .collect();
        script.push_str(&format!(
            "fv filter add dev nic0 prio {} match vf {} flowid 1:{} borrow {}\n",
            i + 1,
            app.vf.0,
            10 + i,
            lenders.join(",")
        ));
    }
    Policy::parse(&script).expect("fair queueing policy parses")
}

/// Fig. 13's saturation: a NIC on `cfg` enforcing [`fair_queueing_fv`]
/// under `discipline`, and four sources, one per app of
/// [`Scenario::fair_queueing_40g`], each offering a quarter of twice line
/// rate in `frame`-byte frames. Each caller runs it through
/// [`np_sim::harness::run_open_loop`] to its own horizon and seed.
pub fn fair_queueing_saturation(
    cfg: &NicConfig,
    frame: u32,
    discipline: LockDiscipline,
) -> (SmartNic, Vec<Source>) {
    let policy = fair_queueing_fv(cfg.line_rate, &Scenario::fair_queueing_40g(4));
    let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), cfg)
        .expect("fair queueing policy compiles")
        .with_lock_discipline(discipline);
    let sources = (0..4u16)
        .map(|i| Source {
            flow: FlowKey::tcp([10, 0, 1 + i as u8, 1], 40_000, [10, 0, 255, 1], 9000 + i),
            app: AppId(i),
            vf: VfPort(i as u8),
            process: Box::new(LineRateProcess::new(
                cfg.line_rate.scaled(2, 4),
                frame,
                cfg.framing,
            )),
        })
        .collect();
    (SmartNic::new(cfg.clone(), Box::new(pipeline)), sources)
}

/// The Figure 12 weighted policy as an `fv` script:
/// App0 : S1 = 1:1, App1 : S2 = 1:1, App2 : App3 = 1:1, with sibling
/// borrowing at each level.
pub fn weighted_fairness_fv(link: BitRate, scenario: &Scenario) -> Policy {
    let gbit = link.as_gbps();
    let script = format!(
        "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 name s0 rate {gbit}gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name app0 weight 1\n\
         fv class add dev nic0 parent 1:1 classid 1:2 name s1 weight 1\n\
         fv class add dev nic0 parent 1:2 classid 1:11 name app1 weight 1\n\
         fv class add dev nic0 parent 1:2 classid 1:3 name s2 weight 1\n\
         fv class add dev nic0 parent 1:3 classid 1:12 name app2 weight 1\n\
         fv class add dev nic0 parent 1:3 classid 1:13 name app3 weight 1\n\
         fv filter add dev nic0 prio 1 match vf {v0} flowid 1:10 borrow 1:2,1:11,1:12,1:13\n\
         fv filter add dev nic0 prio 2 match vf {v1} flowid 1:11 borrow 1:3,1:10,1:12,1:13\n\
         fv filter add dev nic0 prio 3 match vf {v2} flowid 1:12 borrow 1:13,1:11,1:10\n\
         fv filter add dev nic0 prio 4 match vf {v3} flowid 1:13 borrow 1:12,1:11,1:10\n",
        v0 = scenario.apps[0].vf.0,
        v1 = scenario.apps[1].vf.0,
        v2 = scenario.apps[2].vf.0,
        v3 = scenario.apps[3].vf.0,
    );
    Policy::parse(&script).expect("weighted policy parses")
}

/// Fair queueing for the DPDK path: one pipe per app, equal rates, and
/// stock `librte_sched` 64-packet queues (short queues are why DPDK's
/// delay sits between FlowValve's and the kernel's in Figure 14).
pub fn fair_queueing_dpdk(
    link: BitRate,
    n: usize,
) -> (DpdkQosConfig, HashMap<AppId, (usize, usize)>) {
    let mut cfg = DpdkQosConfig::equal_pipes(link, n);
    cfg.queue_pkts = 64;
    let map = (0..n).map(|i| (AppId(i as u16), (i, 0))).collect();
    (cfg, map)
}

/// Fair queueing for the kernel path: equal-rate leaves with full ceilings.
pub fn fair_queueing_htb(link: BitRate, n: usize) -> (Vec<HtbClassSpec>, HashMap<AppId, Handle>) {
    let mut specs = vec![HtbClassSpec::new(Handle(1), None, link)];
    let mut map = HashMap::new();
    for i in 0..n {
        let h = Handle(10 + i as u16);
        specs.push(HtbClassSpec::new(h, Some(Handle(1)), link.scaled(1, n as u64)).ceil(link));
        map.insert(AppId(i as u16), h);
    }
    (specs, map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motivation_fv_compiles() {
        let p = motivation_fv(BitRate::from_gbps(10.0));
        let (tree, rules, default) = p.compile(TreeParams::default()).unwrap();
        assert_eq!(tree.len(), 7);
        assert_eq!(rules.len(), 4);
        assert!(default.is_some());
    }

    #[test]
    fn motivation_htb_builds() {
        let (specs, map) = motivation_htb(BitRate::from_gbps(10.0));
        let is_leaf = |h| !specs.iter().any(|c| c.parent == Some(h));
        assert_eq!(specs.iter().filter(|s| is_leaf(s.id)).count(), 4);
        assert!(map.values().all(|&h| is_leaf(h)));
        assert_eq!(map.len(), 4);
        qdisc::htb::Htb::new(specs, qdisc::htb::KernelModel::centos7()).unwrap();
    }

    #[test]
    fn fair_queueing_fv_compiles_for_any_n() {
        for n in [2usize, 4, 8] {
            let mut s = Scenario::fair_queueing_40g(4);
            s.apps.truncate(n.min(s.apps.len()));
            while s.apps.len() < n {
                let i = s.apps.len();
                s.apps.push(crate::scenario::AppSpec::new(
                    format!("App{i}"),
                    i as u16,
                    i as u8,
                    9000 + i as u16,
                    1,
                    sim_core::time::Nanos::ZERO,
                    s.horizon,
                ));
            }
            let p = fair_queueing_fv(BitRate::from_gbps(40.0), &s);
            let (tree, rules, _) = p.compile(TreeParams::default()).unwrap();
            assert_eq!(tree.len(), n + 1);
            assert_eq!(rules.len(), n);
        }
    }

    #[test]
    fn weighted_fv_matches_figure12_structure() {
        let s = Scenario::weighted_fairness_40g(4);
        let p = weighted_fairness_fv(BitRate::from_gbps(40.0), &s);
        let (tree, _, _) = p.compile(TreeParams::default()).unwrap();
        // S0 + {App0, S1} + {App1, S2} + {App2, App3} = 7 classes.
        assert_eq!(tree.len(), 7);
        // App0's static share is half the link (weight 1 vs S1 weight 1).
        let app0 = tree.theta(flowvalve::label::ClassId(10)).unwrap();
        assert!((app0.as_gbps() - 20.0).abs() < 0.1);
    }

    #[test]
    fn dpdk_and_htb_fair_configs() {
        let (cfg, map) = fair_queueing_dpdk(BitRate::from_gbps(40.0), 4);
        assert_eq!(cfg.pipes.len(), 4);
        assert_eq!(map[&AppId(3)], (3, 0));
        let (specs, map) = fair_queueing_htb(BitRate::from_gbps(40.0), 4);
        assert_eq!(specs.len(), 5);
        assert_eq!(map.len(), 4);
    }
}
