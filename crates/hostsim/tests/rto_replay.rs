//! Replay pins for the closed-loop engine: what the figure-replay gate
//! cannot see.
//!
//! No figure driver ever fires a retransmission timeout, so
//! `results/*.json` says nothing about the RTO path. These runs do: three
//! small scenarios over each of the three egress paths, one of them with
//! a ~1 Mbit/s leaf (12 ms per frame against the 5.2 ms RTO) whose queued
//! segments starve until the watchdog fires, plus one host pause landing
//! on those starved connections. Every constant below was printed by the
//! engine that scheduled one watchdog event per segment; an engine change
//! must reproduce them exactly.

use std::collections::HashMap;
use std::sync::Arc;

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use fv_telemetry::Registry;
use hostsim::engine::{run_with_chaos, HostChaosHook};
use hostsim::path::EgressPath;
use hostsim::scenario::{AppSpec, Scenario};
use netstack::packet::AppId;
use np_sim::config::NicConfig;
use np_sim::nic::SmartNic;
use qdisc::dpdk::{DpdkQos, DpdkQosConfig, PipeConfig};
use qdisc::htb::{Handle, Htb, HtbClassSpec, KernelModel};
use sim_core::time::Nanos;
use sim_core::units::BitRate;

/// A scenario plus the ceiling each of its apps is held to on every path.
struct Case {
    name: &'static str,
    scenario: Scenario,
    ceilings: Vec<BitRate>,
}

/// `apps`: `(name, conns, start, stop)` in figure-seconds of 5 ms on a
/// 10 Gbps link; app `i` enters through VF `i`.
fn case(name: &'static str, apps: &[(&str, usize, f64, f64)], ceilings: &[BitRate]) -> Case {
    let mut s = Scenario::new(BitRate::from_gbps(10.0), Nanos::ZERO);
    s.time_scale = Nanos::from_millis(5);
    s.horizon = s.fig_secs(8.0);
    s.seed = 7;
    for (i, &(app, conns, from, to)) in apps.iter().enumerate() {
        let (id, window) = (i as u16, (s.fig_secs(from), s.fig_secs(to)));
        let spec = AppSpec::new(app, id, i as u8, 9000 + id, conns, window.0, window.1);
        s.apps.push(spec);
    }
    Case {
        name,
        scenario: s,
        ceilings: ceilings.to_vec(),
    }
}

fn cases() -> Vec<Case> {
    let g = BitRate::from_gbps;
    vec![
        // Two apps that overlap in the middle and oversubscribe the link.
        case(
            "staged",
            &[("A", 2, 0.0, 6.0), ("B", 2, 2.0, 8.0)],
            &[g(6.0), g(6.0)],
        ),
        // One app held far below what its four windows want.
        case("throttled", &[("A", 4, 0.0, 8.0)], &[g(2.0)]),
        // A bulk app beside one whose leaf drains a frame every 12 ms.
        case(
            "starved",
            &[("Bulk", 2, 0.0, 8.0), ("Slow", 2, 0.0, 8.0)],
            &[g(5.0), BitRate::from_mbps(1)],
        ),
    ]
}

/// Each builder hands its scheduler `observer`, when the caller holds one,
/// before the path takes it over.
fn flowvalve(c: &Case, observer: Option<&Registry>) -> EgressPath {
    let mut script = format!(
        "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 rate {}bit\n",
        c.scenario.link.as_bps()
    );
    for (i, ceil) in c.ceilings.iter().enumerate() {
        script.push_str(&format!(
            "fv class add dev nic0 parent 1:1 classid 1:{} ceil {}bit\n\
             fv filter add dev nic0 prio {} match vf {i} flowid 1:{}\n",
            10 + i,
            ceil.as_bps(),
            i + 1,
            10 + i,
        ));
    }
    let policy = Policy::parse(&script).expect("policy parses");
    let cfg = NicConfig::agilio_cx_10g();
    let mut pipe =
        FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).expect("policy compiles");
    EgressPath::flowvalve(match observer {
        Some(registry) => {
            pipe.attach_telemetry(registry);
            SmartNic::with_registry(cfg, Box::new(pipe), registry)
        }
        None => SmartNic::new(cfg, Box::new(pipe)),
    })
}

fn kernel(c: &Case) -> EgressPath {
    let mut specs = vec![HtbClassSpec::new(Handle(1), None, c.scenario.link)];
    let mut map = HashMap::new();
    for (i, &ceil) in c.ceilings.iter().enumerate() {
        let h = Handle(10 + i as u16);
        specs.push(HtbClassSpec::new(h, Some(Handle(1)), ceil));
        map.insert(AppId(i as u16), h);
    }
    let htb = Htb::new(specs, KernelModel::centos7()).expect("hierarchy builds");
    EgressPath::kernel(htb, map, c.scenario.link)
}

fn dpdk(c: &Case) -> EgressPath {
    let mut cfg = DpdkQosConfig::equal_pipes(c.scenario.link, c.ceilings.len());
    let mut map = HashMap::new();
    for (i, &ceil) in c.ceilings.iter().enumerate() {
        cfg.pipes[i] = PipeConfig::flat(ceil);
        map.insert(AppId(i as u16), (i, 0));
    }
    EgressPath::dpdk(DpdkQos::new(cfg), map, c.scenario.link, 2)
}

/// Everything the engine reports: a header line, then one line per app
/// with its delivered rate in each figure-second bin.
fn fingerprint(c: &Case, path: EgressPath, chaos: Option<Arc<dyn HostChaosHook>>) -> String {
    let label = if chaos.is_some() { "+pause" } else { "" };
    let (r, path) = run_with_chaos(&c.scenario, path, chaos);
    let mut line = format!(
        "{}{label}/{} delivered={} dropped={} timeouts={} delay=({}, {:#x}, {})",
        c.name,
        path.name(),
        r.delivered,
        r.dropped,
        r.timeouts,
        r.delay.count(),
        r.delay.mean().to_bits(),
        r.delay.quantile(0.99),
    );
    for series in r.recorder.binned_all(c.scenario.time_scale) {
        // 5 ms bins: bps is delivered bits x 200, exactly.
        let bps: Vec<String> = series
            .rates
            .iter()
            .map(|r| r.as_bps().to_string())
            .collect();
        line.push_str(&format!("\n  {}=[{}]", series.name, bps.join(",")));
    }
    line
}

/// The `Slow` app frozen over `[12 ms, 22 ms)`, while its segments sit in
/// the starved leaf and their RTOs come due.
#[derive(Debug)]
struct PauseSlow;

impl HostChaosHook for PauseSlow {
    fn app_paused_until(&self, app: AppId, now: Nanos) -> Option<Nanos> {
        let (from, to) = (Nanos::from_millis(12), Nanos::from_millis(22));
        (app == AppId(1) && now >= from && now < to).then_some(to)
    }
}

/// `timeouts=13` in the starved kernel and DPDK runs is the point: the RTO
/// path really runs, and the pause moves it (10).
const EXPECTED: &str = "\
staged/flowvalve delivered=25629 dropped=930 timeouts=0 delay=(25629, 0x40f8855d36e34866, 202083)
  A=[5416224000,6054998400,4852742400,4855171200,4864886400,5083478400,82579200,0,0]
  B=[0,0,4840598400,5008185600,5000899200,4782307200,5620243200,5712537600,72864000]
staged/kernel-htb delivered=26978 dropped=384 timeouts=0 delay=(26978, 0x4137db46a7773413, 2957618)
  A=[7857168000,6992515200,4420416000,4328121600,4354838400,4357267200,1697731200,0,0]
  B=[0,0,4017235200,4325692800,4354838400,4357267200,7113955200,7293686400,53433600]
staged/dpdk-qos delivered=26749 dropped=317 timeouts=0 delay=(26749, 0x412821103d9d5437, 1170429)
  A=[6278448000,5999136000,4991184000,4932892800,4932892800,4932892800,986092800,0,0]
  B=[0,0,4714300800,4932892800,4932892800,4932892800,6368313600,6003993600,29145600]
throttled/flowvalve delivered=6687 dropped=1391 timeouts=0 delay=(6687, 0x40e43f1d4829f573, 83969)
  A=[2411798400,1981900800,1964899200,1986758400,1957612800,1989187200,1962470400,1984329600,2428800]
throttled/kernel-htb delivered=7908 dropped=65 timeouts=0 delay=(7908, 0x41498f55912c6a33, 5311457)
  A=[2722684800,2348649600,2348649600,2348649600,2348649600,2348649600,2346220800,2348649600,46147200]
throttled/dpdk-qos delivered=6661 dropped=103 timeouts=0 delay=(6661, 0x41413cc03c25aa05, 3260774)
  A=[2171347200,1996473600,1996473600,2006188800,1996473600,1996473600,2003760000,2001331200,9715200]
starved/flowvalve delivered=16532 dropped=1916 timeouts=0 delay=(16532, 0x40e50dcfe6ba70ff, 143616)
  Bulk=[4869744000,5013043200,4908604800,4932892800,4942608000,5003328000,5066476800,4915891200]
  Slow=[493046400,0,2428800,0,2428800,0,2428800,0]
starved/kernel-htb delivered=19517 dropped=262 timeouts=13 delay=(19517, 0x4134980038f7548d, 1906507)
  Bulk=[6123004800,5833977600,5841264000,5860694400,5914128000,5911699200,5918985600,5909270400,51004800]
  Slow=[31574400,0,2428800,0,0,2428800,0,2428800,0]
starved/dpdk-qos delivered=16577 dropped=156 timeouts=13 delay=(16577, 0x412a2b11dd782198, 1290399)
  Bulk=[5229206400,5003328000,4991184000,4996041600,5013043200,4998470400,4986326400,5008185600,21859200]
  Slow=[9715200,0,2428800,0,0,2428800,0,0,0]
starved+pause/kernel-htb delivered=19521 dropped=262 timeouts=10 delay=(19521, 0x4134980367b4c720, 1906507)
  Bulk=[6123004800,5833977600,5836406400,5872838400,5914128000,5914128000,5918985600,5909270400,51004800]
  Slow=[31574400,0,2428800,0,0,2428800,0,2428800,0]";

#[test]
fn engine_replays_the_per_segment_watchdog_runs() {
    let cases = cases();
    let mut got = Vec::new();
    for c in &cases {
        for path in [flowvalve(c, None), kernel(c), dpdk(c)] {
            got.push(fingerprint(c, path, None));
        }
    }
    let starved = &cases[2];
    got.push(fingerprint(
        starved,
        kernel(starved),
        Some(Arc::new(PauseSlow)),
    ));
    let got = got.join("\n");
    assert!(
        got == EXPECTED,
        "engine output moved; it now prints:\n{got}"
    );
}

/// A run is the same run whether or not anyone watches it: the FlowValve
/// path as its constructor builds it against the same path with pipeline
/// and NIC recording into a registry held here (the software baselines
/// have no observer to attach). `starved` is the case whose RTOs fire.
#[test]
fn attaching_observers_does_not_change_a_run() {
    let c = &cases()[2];
    let registry = Registry::new();
    let bare = fingerprint(c, flowvalve(c, None), None);
    let observed = fingerprint(c, flowvalve(c, Some(&registry)), None);
    assert!(bare == observed, "bare:\n{bare}\nobserved:\n{observed}");
    let snap = registry.snapshot(c.scenario.horizon);
    for name in ["nic.offered", "fv.class.1:10.forwarded"] {
        assert!(snap.counter(name) > 0, "{name} saw nothing");
    }
}
