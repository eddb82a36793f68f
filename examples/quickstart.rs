//! Quickstart: write an `fv` policy, put it on a simulated SmartNIC, and
//! watch it schedule traffic.
//!
//! Run with: `cargo run --release --example quickstart`

use flowvalve::frontend::Policy;
use flowvalve::label::ClassId;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use netstack::flow::FlowKey;
use netstack::gen::CbrProcess;
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::harness::{drive, Source};
use np_sim::nic::SmartNic;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An fv policy (the tc dialect of §III-E): a 10 Gbps link where
    //    "api" traffic is strictly prior and "batch" gets the rest, but
    //    batch may borrow api's unused share.
    let policy = Policy::parse(
        "fv qdisc add dev nic0 root handle 1: fv default 1:20\n\
         fv class add dev nic0 parent root classid 1:1 name link rate 10gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name api prio 0\n\
         fv class add dev nic0 parent 1:1 classid 1:20 name batch prio 1\n\
         fv filter add dev nic0 match ip dport 443 flowid 1:10\n\
         fv filter add dev nic0 match ip dport 9000 flowid 1:20 borrow 1:10\n",
    )?;

    // 2. Compile it onto the calibrated Agilio-like NIC model.
    let cfg = NicConfig::agilio_cx_10g();
    let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)?;
    let tree = pipeline.tree().clone();
    let mut nic = SmartNic::new(cfg, Box::new(pipeline));

    // 3. Offer traffic: api at 4 Gbps, batch at 9 Gbps (total 13 > 10).
    //    `drive` merges the two open-loop sources in time order.
    let cbr = |gbps| Box::new(CbrProcess::new(BitRate::from_gbps(gbps), 1_518));
    let sources = vec![
        Source {
            flow: FlowKey::tcp([10, 0, 0, 1], 40_001, [10, 0, 255, 1], 443),
            app: AppId(0),
            vf: VfPort(0),
            process: cbr(4.0),
        },
        Source {
            flow: FlowKey::tcp([10, 0, 0, 2], 40_002, [10, 0, 255, 1], 9000),
            app: AppId(1),
            vf: VfPort(1),
            process: cbr(9.0),
        },
    ];
    drive(sources, Nanos::from_millis(20), 1, |pkt| {
        let _ = nic.rx(pkt, pkt.created_at);
    });

    // 4. Inspect what the scheduler did.
    println!("class   theta        forwarded  borrowed  dropped");
    for id in [ClassId(10), ClassId(20)] {
        let c = tree.counters(id).expect("class exists");
        println!(
            "{:<7} {:<12} {:>9} {:>9} {:>8}",
            tree.spec(id).expect("class exists").name,
            tree.theta(id).expect("class exists").to_string(),
            c.forwarded,
            c.borrowed,
            c.dropped
        );
    }
    let s = nic.stats();
    println!(
        "\nnic: offered {} tx {} sched-drops {} ({:.1}% delivered)",
        s.offered,
        s.tx_packets,
        s.sched_drops,
        100.0 * s.tx_packets as f64 / s.offered as f64
    );
    println!(
        "\napi was offered 4 Gbps and keeps strict priority; batch was offered\n\
         9 Gbps, got ~6 Gbps (its residual plus api's unused share via\n\
         borrowing), and the excess was dropped early — FlowValve shapes by\n\
         dropping exactly what a real shaper would have dropped."
    );
    Ok(())
}
