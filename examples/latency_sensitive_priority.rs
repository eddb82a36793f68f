//! Latency-sensitive traffic next to bulk transfers.
//!
//! A small RPC-style flow shares the NIC with bulk traffic. Without
//! scheduling, the bulk traffic fills the transmit FIFO and every packet
//! — RPC included — queues behind ~200 µs of backlog. With a FlowValve
//! policy shaping just under line rate (the standard low-latency
//! deployment pattern), the FIFO stays drained: the RPC class keeps its
//! bandwidth and the delay collapses to the pipeline floor with almost no
//! jitter (the paper's "suitable for jitter-sensitive workloads"
//! observation).
//!
//! Run with: `cargo run --release --example latency_sensitive_priority`

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use netstack::flow::FlowKey;
use netstack::gen::{CbrProcess, LineRateProcess};
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::harness::{run_open_loop, Source};
use np_sim::nic::{EgressDecider, PassthroughDecider, SmartNic};
use sim_core::time::Nanos;
use sim_core::units::BitRate;

fn run_case(with_flowvalve: bool) -> (f64, f64, f64) {
    let cfg = NicConfig::agilio_cx_10g();
    let decider: Box<dyn EgressDecider> = if with_flowvalve {
        let policy = Policy::parse(
            "fv qdisc add dev nic0 root handle 1: fv default 1:20\n\
             fv class add dev nic0 parent root classid 1:1 name link rate 9.5gbit\n\
             fv class add dev nic0 parent 1:1 classid 1:10 name rpc prio 0\n\
             fv class add dev nic0 parent 1:1 classid 1:20 name bulk prio 1\n\
             fv filter add dev nic0 match ip dport 8443 flowid 1:10\n",
        )
        .expect("policy parses");
        Box::new(
            FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)
                .expect("policy compiles"),
        )
    } else {
        Box::new(PassthroughDecider)
    };
    let mut nic = SmartNic::new(cfg.clone(), decider);

    let sources = vec![
        // The RPC flow: 200 Mbps of 256 B requests.
        Source {
            flow: FlowKey::tcp([10, 0, 0, 1], 40_001, [10, 0, 255, 1], 8443),
            app: AppId(0),
            vf: VfPort(0),
            process: Box::new(CbrProcess::new(BitRate::from_mbps(200), 256)),
        },
        // Bulk: full-speed MTU frames from another tenant.
        Source {
            flow: FlowKey::tcp([10, 0, 0, 2], 40_002, [10, 0, 255, 1], 9000),
            app: AppId(1),
            vf: VfPort(1),
            process: Box::new(LineRateProcess::new(cfg.line_rate, 1_518, cfg.framing)),
        },
    ];
    let report = run_open_loop(&mut nic, sources, Nanos::from_millis(20), 5);
    let rpc_bits = report
        .per_app_bits
        .iter()
        .find(|(app, _)| *app == AppId(0))
        .map_or(0, |&(_, bits)| bits);
    let rpc_gbps = rpc_bits as f64 / Nanos::from_millis(20).as_secs_f64() / 1e9;
    (
        report.delay.mean() / 1e3,
        report.delay.std_dev() / 1e3,
        rpc_gbps,
    )
}

fn main() {
    println!("one-way delay with a bulk tenant saturating a 10 Gbps NIC:\n");
    println!(
        "{:<22} {:>12} {:>10} {:>12}",
        "configuration", "mean us", "sd us", "rpc Gbps"
    );
    let (mean, sd, rpc) = run_case(false);
    println!(
        "{:<22} {mean:>12.2} {sd:>10.2} {rpc:>12.3}",
        "no scheduling"
    );
    let (mean, sd, rpc) = run_case(true);
    println!(
        "{:<22} {mean:>12.2} {sd:>10.2} {rpc:>12.3}",
        "flowvalve priority"
    );
    println!(
        "\nwith FlowValve shaping at 9.5 of 10 Gbps, the transmit FIFO stays\n\
         drained: the RPC class keeps its full 200 Mbps and every packet's\n\
         delay collapses to the pipeline floor — bulk packets that would\n\
         have queued are dropped early instead."
    );
}
