//! What a wrapped provenance ring holds: the newest `CAPACITY` sampled
//! decisions of the run, in packet-id order, and nothing older — checked on
//! a seeded stream through a pipeline on an unobserved NIC, with the
//! registry's 1-in-64 sampler and a ring a few times smaller than the
//! number of sampled decisions. The records it keeps still balance in the
//! conservation ledger.

use std::sync::Arc;

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use fv_audit::{AuditReport, Ledger, ProvenanceRing, Sampler};
use netstack::flow::FlowKey;
use netstack::packet::{AppId, Packet, VfPort};
use np_sim::config::NicConfig;
use np_sim::nic::{RxOutcome, SmartNic};
use sim_core::rng::SimRng;
use sim_core::time::Nanos;

/// Every packet is labeled: a filter or the default class takes it.
const POLICY: &str = "\
fv qdisc add dev nic0 root handle 1: fv default 1:10
fv class add dev nic0 parent root classid 1:1 name link rate 10gbit
fv class add dev nic0 parent 1:1 classid 1:10 name bulk weight 3
fv class add dev nic0 parent 1:1 classid 1:20 name small weight 1
fv filter add dev nic0 match ip dport 5001 flowid 1:20 borrow 1:10
";

const PACKETS: u64 = 8_000;
const CAPACITY: usize = 16;

/// The sampled ids that reached `decide`, in arrival (= id) order, and the
/// ids the receive ring dropped.
struct Run {
    decided: Vec<u64>,
    rx_dropped: Vec<u64>,
    ring: Arc<ProvenanceRing>,
    report: AuditReport,
}

/// MTU frames at ~1.5x the 10 G root's rate; with `overflow`, the last
/// 1 500 packets are 64 B frames at ~5x the compute bound, so the receive
/// ring drops most of them — sampled ids among them.
fn run(overflow: bool) -> Run {
    let cfg = NicConfig::agilio_cx_40g();
    let policy = Policy::parse(POLICY).expect("policy parses");
    let mut pipeline =
        FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).expect("policy compiles");
    let sampler = Sampler::default();
    let ring = Arc::new(ProvenanceRing::new(CAPACITY));
    pipeline.attach_auditor(ring.clone(), sampler);
    let tree = pipeline.tree().clone();
    let mut nic = SmartNic::new(cfg, Box::new(pipeline));

    let mut rng = SimRng::seed(0x9e0_717d);
    let mut t = Nanos::ZERO;
    let (mut decided, mut rx_dropped) = (Vec::new(), Vec::new());
    for id in 0..PACKETS {
        let (len, gap) = match id {
            6_500.. if overflow => (64, rng.range(2, 18)),
            _ => (1518, rng.range(600, 1_000)),
        };
        t += Nanos::from_nanos(gap);
        let dport = if rng.range(0, 4) == 0 { 5001 } else { 5000 };
        let flow = FlowKey::tcp([10, 0, 0, 1], 4000, [10, 0, 0, 2], dport);
        let pkt = Packet::new(id, flow, len, AppId(0), VfPort(0), t);
        let outcome = nic.rx(&pkt, t);
        if !sampler.hit(id) {
            continue;
        }
        match outcome {
            RxOutcome::RxDrop => rx_dropped.push(id),
            _ => decided.push(id),
        }
    }
    let records = ring.records();
    let report = Ledger::audit(&records, &tree.slab_snapshot());
    Run {
        decided,
        rx_dropped,
        ring,
        report,
    }
}

/// The ring holds exactly the newest `CAPACITY` sampled decisions, in id
/// order, and the ledger finds nothing wrong with them.
fn assert_holds_the_newest(run: &Run) {
    assert!(
        run.decided.len() > 3 * CAPACITY,
        "only {} sampled decisions: the ring never wraps",
        run.decided.len()
    );
    let newest = &run.decided[run.decided.len() - CAPACITY..];
    let held: Vec<u64> = run.ring.records().iter().map(|r| r.pkt_id).collect();
    assert_eq!(held, newest);
    assert_eq!(run.report.records, CAPACITY as u64);
    assert!(run.report.ok(), "{:?}", run.report.violations);
}

#[test]
fn a_wrapped_ring_holds_the_newest_sampled_decisions() {
    let run = run(false);
    assert!(run.rx_dropped.is_empty(), "{:?}", run.rx_dropped);
    assert_holds_the_newest(&run);
}

#[test]
fn rx_drops_leave_no_stale_record_in_a_wrapped_ring() {
    let run = run(true);
    // Sampled ids were dropped at rx inside the window the ring keeps.
    let oldest_kept = run.decided[run.decided.len() - CAPACITY];
    assert!(
        run.rx_dropped.iter().any(|&id| id > oldest_kept),
        "no sampled id dropped after {oldest_kept}: {:?}",
        run.rx_dropped
    );
    assert_holds_the_newest(&run);
}
