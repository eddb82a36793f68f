//! Figure 14: one-way delay of the three schedulers enforcing fair
//! queueing under saturating TCP load (the paper saturates with iperf3 and
//! measures one-way latency with netperf; here the delay histogram covers
//! every delivered packet, which is what a probe flow sharing the same
//! queues would see).
//!
//! Paper shape:
//! * at 10 Gbps FlowValve has the lowest delay — it *drops* instead of
//!   buffering, so there is no standing queue;
//! * kernel HTB is the worst: TCP fills its deep class queues
//!   (bufferbloat), and the watchdog timer adds jitter;
//! * DPDK sits between them (64-packet `librte_sched` queues);
//! * at 40 Gbps FlowValve's delay rises ~4x to the NIC pipeline's own
//!   ~161 µs forwarding floor — with almost no variation — and the
//!   scheduling-disabled NIC shows the same floor;
//! * HTB is omitted above 10 Gbps (it cannot enforce policy there).

use fv_telemetry::{JsonValue, ToJson};
use hostsim::engine::run;
use hostsim::path::EgressPath;
use hostsim::policies;
use hostsim::scenario::{AppSpec, Scenario};
use netstack::flow::FlowKey;
use netstack::gen::CbrProcess;
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::harness::{run_open_loop, Source};
use np_sim::nic::{PassthroughDecider, SmartNic};
use qdisc::dpdk::DpdkQos;
use qdisc::htb::{Htb, KernelModel};
use sim_core::stats::Histogram;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

use crate::{flowvalve_path, FigureText};

/// A saturating, unstaged fair-queueing scenario on `link`.
fn saturating_scenario(link: BitRate) -> Scenario {
    let mut s = Scenario::new(link, Nanos::from_millis(25));
    for i in 0..4u16 {
        s.apps.push(AppSpec::new(
            format!("App{i}"),
            i,
            i as u8,
            9000 + i,
            4,
            Nanos::ZERO,
            s.horizon,
        ));
    }
    s
}

fn fv(link: BitRate, nic: NicConfig) -> Histogram {
    let s = saturating_scenario(link);
    let policy = policies::fair_queueing_fv(link, &s);
    let (report, _path) = run(&s, flowvalve_path(&policy, nic));
    report.delay
}

fn htb(link: BitRate) -> Histogram {
    let s = saturating_scenario(link);
    let (specs, map) = policies::fair_queueing_htb(link, 4);
    let htb = Htb::new(specs, KernelModel::centos7()).expect("experiment hierarchy builds");
    let (report, _path) = run(&s, EgressPath::kernel(htb, map, link));
    report.delay
}

fn dpdk(link: BitRate, cores: usize) -> Histogram {
    let s = saturating_scenario(link);
    let (cfg, map) = policies::fair_queueing_dpdk(link, 4);
    let path = EgressPath::dpdk(DpdkQos::new(cfg), map, link, cores);
    let (report, _path) = run(&s, path);
    report.delay
}

/// The scheduling-disabled forwarding floor, measured open-loop at 60%
/// load so no queueing contaminates it.
fn forward_only(nic: NicConfig) -> Histogram {
    let load = nic.line_rate.scaled(6, 10);
    let sources: Vec<Source> = (0..4u16)
        .map(|i| Source {
            flow: FlowKey::udp([10, 0, 1 + i as u8, 1], 40_000, [10, 0, 255, 1], 9000 + i),
            app: AppId(i),
            vf: VfPort(i as u8),
            process: Box::new(CbrProcess::new(load.scaled(1, 4), 1_024)),
        })
        .collect();
    let mut nic = SmartNic::new(nic, Box::new(PassthroughDecider));
    run_open_loop(&mut nic, sources, Nanos::from_millis(10), 11).delay
}

/// Runs the figure; see the module docs.
pub fn figure(out: &mut String) -> JsonValue {
    writeln!(
        out,
        "\n{:<26} {:>10} {:>10} {:>10}",
        "scheduler", "mean us", "sd us", "p99 us"
    );
    let g10 = BitRate::from_gbps(10.0);
    let g40 = BitRate::from_gbps(40.0);
    let table = [
        ("flowvalve@10G", fv(g10, NicConfig::agilio_cx_10g())),
        ("dpdk-qos@10G (2 cores)", dpdk(g10, 2)),
        ("kernel-htb@10G", htb(g10)),
        ("flowvalve@40G", fv(g40, NicConfig::agilio_cx_40g())),
        ("forward-only@40G", forward_only(NicConfig::agilio_cx_40g())),
        ("dpdk-qos@40G (8 cores)", dpdk(g40, 8)),
    ];
    let mut rows = Vec::new();
    for (name, h) in table {
        let (mean, sd) = (h.mean() / 1e3, h.std_dev() / 1e3);
        let p99 = h.quantile(0.99) as f64 / 1e3;
        writeln!(out, "{name:<26} {mean:>10.2} {sd:>10.2} {p99:>10.2}");
        rows.push((name, mean, sd, p99));
    }

    out.push_str(concat!(
        "\npaper checkpoints:\n",
        "  - FlowValve lowest at 10G (no standing queue: it drops instead of buffering)\n",
        "  - HTB worst at 10G (TCP bufferbloat in class queues + watchdog jitter)\n",
        "  - FlowValve @40G ~161 us with near-zero variation; same floor without scheduling\n",
    ));
    rows.to_json()
}
