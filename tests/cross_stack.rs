//! Cross-stack integration: flow keys → the classifier → QoS labels →
//! the scheduling function → the NIC model.

use classifier::{CacheResult, Classifier, FilterRule, FlowMatch};
use flowvalve::frontend::Policy;
use flowvalve::label::{ClassId, QosLabel};
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use netstack::flow::FlowKey;
use netstack::packet::{AppId, Packet, VfPort};
use np_sim::config::NicConfig;
use np_sim::nic::{RxOutcome, SmartNic};
use sim_core::time::Nanos;

#[test]
fn bytes_to_label_to_verdict() {
    let kvs_flow = FlowKey::tcp([10, 0, 1, 1], 41_000, [10, 0, 255, 1], 5001);
    let bulk_flow = FlowKey::tcp([10, 0, 1, 2], 41_001, [10, 0, 255, 1], 9999);

    // 1. Classify the flows into QoS labels.
    let policy = Policy::parse(
        "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name kvs prio 0\n\
         fv class add dev nic0 parent 1:1 classid 1:20 name bulk prio 1\n\
         fv filter add dev nic0 match ip dport 5001 flowid 1:10\n\
         fv filter add dev nic0 match any flowid 1:20\n",
    )
    .expect("policy parses");
    let (tree, rules, default) = policy.compile(TreeParams::default()).expect("compiles");
    let mut cls: Classifier<Option<QosLabel>> = Classifier::new(default, 1024);
    for r in rules {
        cls.add_rule(r);
    }

    let (label, result) = cls.classify(&kvs_flow, VfPort(0));
    assert_eq!(result, CacheResult::Miss);
    assert_eq!(label.expect("kvs matched").leaf(), ClassId(10));
    let (label, _) = cls.classify(&bulk_flow, VfPort(0));
    assert_eq!(label.expect("bulk matched").leaf(), ClassId(20));

    // 2. The second lookup of the same flow hits the cache.
    let (_, result) = cls.classify(&kvs_flow, VfPort(0));
    assert_eq!(result, CacheResult::Hit);
    let _ = tree;
}

#[test]
fn full_pipeline_on_the_nic_model() {
    let policy = Policy::parse(
        "fv qdisc add dev nic0 root handle 1: fv default 1:20\n\
         fv class add dev nic0 parent root classid 1:1 rate 1gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name rt prio 0\n\
         fv class add dev nic0 parent 1:1 classid 1:20 name bulk prio 1\n\
         fv filter add dev nic0 match ip dport 443 flowid 1:10\n",
    )
    .expect("policy parses");
    let mut cfg = NicConfig::agilio_cx_10g();
    cfg.line_rate = sim_core::units::BitRate::from_gbps(10.0);
    let pipeline =
        FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).expect("compiles");
    let tree = pipeline.tree().clone();
    let mut nic = SmartNic::new(cfg, Box::new(pipeline));

    // Offer 2 Gbps of bulk against the 1 Gbps policy: about half passes.
    let bulk = FlowKey::tcp([10, 0, 1, 2], 41_001, [10, 0, 255, 1], 9999);
    let mut transmitted = 0u64;
    let n = 20_000u64;
    for i in 0..n {
        let t = Nanos::from_nanos(i * 6_000); // 12 kbit / 6 us = 2 Gbps
        let pkt = Packet::new(i, bulk, 1_500, AppId(0), VfPort(0), t);
        if matches!(nic.rx(&pkt, t), RxOutcome::Transmit { .. }) {
            transmitted += 1;
        }
    }
    let ratio = transmitted as f64 / n as f64;
    assert!((0.40..0.65).contains(&ratio), "pass ratio {ratio}");

    // The class counters agree with the NIC's accounting.
    let c = tree.counters(ClassId(20)).expect("bulk class exists");
    assert_eq!(c.forwarded, transmitted);
    assert_eq!(c.forwarded + c.dropped, n);
    assert_eq!(nic.stats().sched_drops, c.dropped);
}

#[test]
fn vf_scoped_classification_separates_tenants() {
    // Same 5-tuple arriving on different VFs lands in different classes —
    // the SR-IOV multi-tenant pattern of the paper's Observation 3.
    let mut cls: Classifier<u32> = Classifier::new(0, 64);
    cls.add_rule(FilterRule::new(
        1,
        FlowMatch {
            vf: Some(VfPort(1)),
            ..FlowMatch::any()
        },
        100,
    ));
    cls.add_rule(FilterRule::new(
        1,
        FlowMatch {
            vf: Some(VfPort(2)),
            ..FlowMatch::any()
        },
        200,
    ));
    let flow = FlowKey::tcp([10, 0, 0, 1], 1000, [10, 0, 0, 2], 80);
    // NB: the cache key is the flow; per-VF classes need per-VF flows.
    // Tenants have distinct source addresses in practice:
    let flow_vm2 = FlowKey::tcp([10, 0, 0, 2], 1000, [10, 0, 0, 2], 80);
    assert_eq!(*cls.classify(&flow, VfPort(1)).0, 100);
    assert_eq!(*cls.classify(&flow_vm2, VfPort(2)).0, 200);
}
