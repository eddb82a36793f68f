//! Resilience under injected faults (fv-chaos).
//!
//! Every fault kind the chaos subsystem can inject gets a recovery test:
//! the fault perturbs a saturated run mid-flight, and an fv-scope SLO
//! pins that the scheduler returns to its conformance band once the
//! window clears. Determinism (same plan + seed → byte-identical report)
//! and clean-path neutrality (empty plan → the unfaulted NIC numbers)
//! are pinned here too, plus recovery of the kernel baselines (HTB under
//! a host pause, PRIO/TBF under a wire stall) for comparison.

use std::sync::Arc;

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use fv_chaos::{run_chaos, saturate, Attachments, ChaosController, FaultPlan, SETTLE};
use fv_scope::{evaluate, Slo};
use fv_telemetry::{Registry, ToJson};
use hostsim::engine::{run, run_with_chaos};
use hostsim::path::EgressPath;
use hostsim::scenario::{AppSpec, Scenario};
use netstack::flow::FlowKey;
use netstack::packet::{AppId, Packet, PacketIdGen, VfPort};
use np_sim::config::NicConfig;
use np_sim::nic::SmartNic;
use qdisc::{Prio, Tbf};
use sim_core::time::Nanos;
use sim_core::units::BitRate;

/// Three-leaf policy shaping a 40G link down to a 10G root.
const POLICY: &str = "\
    fv qdisc add dev nic0 root handle 1: fv default 1:30\n\
    fv class add dev nic0 parent root classid 1:1 name root rate 10gbit\n\
    fv class add dev nic0 parent 1:1 classid 1:10 name kvs rate 4gbit prio 0\n\
    fv class add dev nic0 parent 1:1 classid 1:20 name web rate 3gbit prio 1\n\
    fv class add dev nic0 parent 1:1 classid 1:30 name bulk rate 3gbit prio 2\n\
    fv filter add dev nic0 match ip dport 5001 flowid 1:10\n\
    fv filter add dev nic0 match ip dport 5002 flowid 1:20\n\
    fv filter add dev nic0 match ip dport 5003 flowid 1:30\n";

fn policy() -> Policy {
    Policy::parse(POLICY).expect("policy parses")
}

fn chaos(plan: &str) -> fv_chaos::ChaosReport {
    let plan = FaultPlan::parse(plan).expect("plan parses");
    run_chaos(&policy(), &plan, Attachments::default()).expect("run succeeds")
}

/// The sampler recovery was judged on.
fn sampler(report: &fv_chaos::ChaosReport) -> &fv_scope::TimeSampler {
    let sampler = report.run.sampler.as_ref();
    sampler.expect("run_chaos always attaches a sampler")
}

#[test]
fn wire_flap_recovers_drains_backlog_and_restores_per_band_rates() {
    let report = chaos(
        "chaos seed 7\n\
         chaos fault wire_flap at 3ms for 2ms permille 200\n",
    );
    // The harness's own fv-scope verdict: aggregate rate back in band.
    assert!(report.passed(), "{}", report.render());
    assert_eq!(report.run.snapshot.counter("chaos.faults_injected"), 1);
    assert_eq!(report.run.snapshot.counter("chaos.faults_cleared"), 1);

    let clear = Nanos::from_millis(5);
    let horizon = report.run.horizon;
    // Per-band: each leaf's post-fault rate returns to its pre-fault
    // conformance window (satellite: RateBetween over the recovery tail).
    let pre = (Nanos::from_millis(1), Nanos::from_millis(3));
    let mut slos = Vec::new();
    for id in ["1:10", "1:20", "1:30"] {
        let series = format!("fv.class.{id}.tx_bits");
        let before = sampler(&report)
            .window_rate(&series, pre.0, pre.1)
            .unwrap_or_else(|| panic!("{series} has pre-fault samples"));
        assert!(before > 0.0, "{series} idle before the fault");
        slos.push(Slo::RateBetween {
            name: format!("{series} back to pre-fault band"),
            series,
            min: 0.80 * before,
            max: 1.20 * before,
        });
    }
    let verdict = evaluate(&slos, sampler(&report), (clear + SETTLE, horizon));
    assert!(verdict.passed(), "{}", verdict.render());
    // The flap really did build a queue, and it has drained back to
    // steady-state occupancy (a few frames in flight on a 10G stream):
    // peak occupancy during the run dwarfs what is left at the horizon.
    let (peak, final_bytes) = match (
        report.run.snapshot.get("tm.fifo.backlog_bytes"),
        report.run.snapshot.get("chaos.tm_backlog_bytes"),
    ) {
        (
            Some(fv_telemetry::MetricValue::Gauge { max, .. }),
            Some(fv_telemetry::MetricValue::Gauge { value, .. }),
        ) => (*max, *value),
        other => panic!("backlog gauges missing: {other:?}"),
    };
    assert!(
        final_bytes <= 16 * 1518,
        "backlog not drained: {final_bytes} B"
    );
    assert!(
        peak > 4 * final_bytes.max(1518),
        "flap built no backlog: peak {peak}, final {final_bytes}"
    );
}

#[test]
fn me_stall_recovers() {
    let report = chaos(
        "chaos seed 7\n\
         chaos fault me_stall at 4ms for 1ms engines 40\n",
    );
    assert!(report.passed(), "{}", report.render());
    assert_eq!(report.recovery.results.len(), 1);
    assert_eq!(report.run.snapshot.counter("chaos.faults_injected"), 1);
}

#[test]
fn tm_pause_and_corruption_burst_recover() {
    let report = chaos(
        "chaos seed 7\n\
         chaos fault tm_pause at 2ms for 500us\n\
         chaos fault tm_drop at 4ms for 1ms every 2\n",
    );
    assert!(report.passed(), "{}", report.render());
    assert_eq!(report.recovery.results.len(), 2);
    // The corruption burst visibly dropped frames, and both the TM and
    // the NIC counted them.
    assert!(
        report.run.snapshot.counter("tm.fifo.fault_drops") > 0,
        "corruption burst dropped nothing"
    );
    assert_eq!(
        report.run.snapshot.counter("tm.fifo.fault_drops"),
        report.run.snapshot.counter("nic.fault_drops"),
        "TM and NIC disagree on fault drops"
    );
}

#[test]
fn lock_latency_inflation_recovers() {
    let report = chaos(
        "chaos seed 7\n\
         chaos fault lock_slow at 3ms for 2ms permille 8000\n",
    );
    assert!(report.passed(), "{}", report.render());
    assert_eq!(report.run.snapshot.counter("chaos.faults_injected"), 1);
    assert_eq!(report.run.snapshot.counter("chaos.faults_cleared"), 1);
}

#[test]
fn host_pause_silences_one_band_then_recovers() {
    let report = chaos(
        "chaos seed 7\n\
         chaos fault host_pause at 3ms for 2ms app 0\n",
    );
    assert!(report.passed(), "{}", report.render());
    assert!(
        report.run.snapshot.counter("chaos.host_skipped") > 0,
        "pause silenced nothing"
    );
    // The paused app's band went quiet during the window...
    let during = sampler(&report)
        .window_rate(
            "fv.class.1:10.tx_bits",
            Nanos::from_millis(3) + Nanos::from_micros(200),
            Nanos::from_millis(5),
        )
        .unwrap_or(0.0);
    let before = sampler(&report)
        .window_rate(
            "fv.class.1:10.tx_bits",
            Nanos::from_millis(1),
            Nanos::from_millis(3),
        )
        .expect("band active before the pause");
    assert!(
        during < 0.3 * before,
        "pause did not bite: {during:.3e} vs {before:.3e} bits/s"
    );
}

#[test]
fn vf_reset_drops_at_the_edge_then_recovers() {
    let report = chaos(
        "chaos seed 7\n\
         chaos fault vf_reset at 3ms for 1ms vf 1\n",
    );
    assert!(report.passed(), "{}", report.render());
    assert!(report.run.snapshot.counter("chaos.host_skipped") > 0);
}

#[test]
fn clock_skew_and_cpu_burn_recover() {
    let report = chaos(
        "chaos seed 7\n\
         chaos fault clock_skew at 2ms for 1ms skew 300us\n\
         chaos fault cpu_burn at 5ms for 1ms cycles 400\n",
    );
    assert!(report.passed(), "{}", report.render());
    assert_eq!(report.run.snapshot.counter("chaos.faults_injected"), 2);
}

#[test]
fn reconfig_halves_throughput_then_restores_it() {
    let report = chaos(
        "chaos seed 7\n\
         chaos fault reconfig at 4ms for 2ms scale_permille 500\n",
    );
    assert!(report.passed(), "{}", report.render());
    let rate = |from_ms: u64, to_ms: u64| {
        sampler(&report)
            .window_rate(
                "nic.tx_bits",
                Nanos::from_millis(from_ms),
                Nanos::from_millis(to_ms),
            )
            .expect("nic.tx_bits sampled")
    };
    let before = rate(2, 4);
    let during = rate(4, 6);
    let after = rate(7, 10);
    assert!(
        during < 0.75 * before,
        "reconfig did not bite: {during:.3e} vs {before:.3e}"
    );
    assert!(
        after > 0.85 * before,
        "throughput not restored: {after:.3e} vs {before:.3e}"
    );
}

#[test]
fn same_plan_and_seed_replays_byte_identically() {
    let plan = "chaos seed 42\n\
                chaos fault wire_flap at 3ms for 2ms permille 250\n\
                chaos fault tm_drop at 6ms for 1ms every 3\n";
    let a = chaos(plan).to_json().to_pretty();
    let b = chaos(plan).to_json().to_pretty();
    assert_eq!(a, b, "chaos replay must be byte-identical");
}

/// An empty plan must be invisible: the NIC forwards exactly what the
/// clean run of the same workload forwards, with no fault injector and no
/// chaos hook installed at all.
#[test]
fn empty_plan_matches_a_run_with_no_injector_installed() {
    let report = chaos("chaos seed 1\n");
    let clean = saturate(&policy(), 1, Attachments::default()).expect("run succeeds");
    for c in [
        "nic.offered",
        "nic.tx_packets",
        "nic.tx_bits",
        "nic.sched_drops",
        "nic.tail_drops",
        "nic.rx_drops",
        "fv.class.1:10.tx_bits",
        "fv.class.1:20.tx_bits",
        "fv.class.1:30.tx_bits",
    ] {
        assert_eq!(
            report.run.snapshot.counter(c),
            clean.snapshot.counter(c),
            "empty plan perturbed {c}"
        );
    }
}

/// FlowValve vs kernel HTB through the full host stack: the same host
/// pause hits both egress paths, and both must return to their pre-fault
/// throughput once the application resumes.
#[test]
fn host_pause_recovery_flowvalve_vs_htb() {
    use qdisc::{Handle, Htb, HtbClassSpec, KernelModel};
    use std::collections::HashMap;

    fn scenario() -> Scenario {
        let mut s = Scenario::new(BitRate::from_gbps(8.0), Nanos::from_millis(160));
        s.policy_rate = BitRate::from_gbps(2.0);
        s.time_scale = Nanos::from_millis(8);
        s.apps = vec![
            AppSpec::new("HI", 0, 0, 5001, 2, Nanos::ZERO, s.horizon),
            AppSpec::new("LO", 1, 1, 5002, 2, Nanos::ZERO, s.horizon),
        ];
        s
    }
    // Pause app 0 (HI) for figure-seconds 5..10 (40 ms at 8 ms/s).
    let hook = |reg: &Registry| -> Arc<ChaosController> {
        Arc::new(ChaosController::new(
            FaultPlan::parse("chaos fault host_pause at 40ms for 40ms app 0\n").unwrap(),
            reg,
        ))
    };

    let fv_policy = Policy::parse(
        "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 name root rate 2gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name hi rate 1gbit ceil 2gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:20 name lo rate 1gbit ceil 2gbit\n\
         fv filter add dev nic0 match ip dport 5001 flowid 1:10\n\
         fv filter add dev nic0 match ip dport 5002 flowid 1:20\n",
    )
    .unwrap();

    let s = scenario();
    let mut cfg = NicConfig::agilio_cx_40g();
    cfg.line_rate = s.link;
    let pipeline =
        FlowValvePipeline::compile(&fv_policy, TreeParams::default(), &cfg).expect("compiles");
    let fv_reg = Registry::new();
    let fv_path = EgressPath::flowvalve(SmartNic::new(cfg, Box::new(pipeline)));
    let (fv_report, _) = run_with_chaos(&s, fv_path, Some(hook(&fv_reg)));

    let htb = Htb::new(
        vec![
            HtbClassSpec::new(Handle(1), None, s.policy_rate),
            HtbClassSpec::new(Handle(10), Some(Handle(1)), s.policy_rate.scaled(1, 2))
                .ceil(s.policy_rate),
            HtbClassSpec::new(Handle(20), Some(Handle(1)), s.policy_rate.scaled(1, 2))
                .ceil(s.policy_rate),
        ],
        KernelModel::ideal(),
    )
    .expect("hierarchy builds");
    let map = HashMap::from([(AppId(0), Handle(10)), (AppId(1), Handle(20))]);
    let htb_reg = Registry::new();
    let htb_path = EgressPath::kernel(htb, map, s.link);
    let (htb_report, _) = run_with_chaos(&s, htb_path, Some(hook(&htb_reg)));

    for (name, report) in [("flowvalve", &fv_report), ("htb", &htb_report)] {
        let before = report.mean_gbps(&s, "HI", 1.0, 5.0);
        let during = report.mean_gbps(&s, "HI", 6.0, 10.0);
        let after = report.mean_gbps(&s, "HI", 12.0, 19.0);
        assert!(before > 0.3, "{name}: HI idle before the pause: {before}");
        assert!(
            during < 0.3 * before,
            "{name}: pause did not bite: {during} vs {before}"
        );
        assert!(
            after > 0.7 * before,
            "{name}: HI did not recover: {after} vs {before}"
        );
    }
}

/// PRIO and TBF under a simulated wire stall: the backlog drains and the
/// dequeue rate returns to its pre-stall band, read from the qdiscs' own
/// counters (nothing observes a reference implementation).
#[test]
fn prio_and_tbf_baselines_recover_from_a_wire_stall() {
    let flow = FlowKey::tcp([10, 0, 0, 1], 41_000, [10, 0, 255, 1], 5001);
    let horizon = Nanos::from_millis(40);
    let stall = (Nanos::from_millis(15), Nanos::from_millis(20));
    let stalled = |t: Nanos| t >= stall.0 && t < stall.1;
    let step = Nanos::from_micros(15); // ~0.8 Gbit/s of 1518 B frames
    let recovered = stall.1 + Nanos::from_millis(2);
    let secs = (horizon - recovered).as_secs_f64();

    // --- TBF: rate 1 Gbit/s, so the offered load fits with headroom.
    let mut tbf = Tbf::new(BitRate::from_gbps(1.0), 30_000, 300_000, 256);
    let mut ids = PacketIdGen::new();
    let mut t = Nanos::ZERO;
    let (mut peak_backlog, mut bits_after) = (0, 0u64);
    while t < horizon {
        let pkt = Packet::new(ids.next_id(), flow, 1518, AppId(0), VfPort(0), t);
        let _ = tbf.enqueue(pkt);
        if !stalled(t) {
            while let Some(p) = tbf.dequeue(t) {
                if t >= recovered {
                    bits_after += p.frame_bits();
                }
            }
        }
        peak_backlog = peak_backlog.max(tbf.backlog_pkts());
        t += step;
    }
    assert!(peak_backlog > 100, "the stall never bit: {peak_backlog}");
    assert!(tbf.backlog_pkts() <= 4, "tbf backlog not drained");
    let bps = bits_after as f64 / secs;
    assert!((0.5e9..1.1e9).contains(&bps), "tbf dequeue rate {bps}");

    // --- PRIO: two bands, wire paced at one frame per step.
    let mut prio = Prio::new(2, 1 << 20, 512);
    let mut ids = PacketIdGen::new();
    let mut t = Nanos::ZERO;
    let (mut peak_backlog, mut dequeued_before) = (0, 0);
    while t < horizon {
        let id = ids.next_id();
        let pkt = Packet::new(id, flow, 1518, AppId(0), VfPort(0), t);
        let _ = prio.enqueue((id % 2) as usize, pkt);
        if !stalled(t) {
            // The wire takes at most two frames per step: it keeps up with
            // arrivals but needs time to burn down the stall backlog.
            for _ in 0..2 {
                if prio.dequeue().is_none() {
                    break;
                }
            }
        }
        peak_backlog = peak_backlog.max(prio.backlog_pkts());
        if t < recovered {
            dequeued_before = prio.dequeued();
        }
        t += step;
    }
    assert!(peak_backlog > 100, "the stall never bit: {peak_backlog}");
    assert!(prio.backlog_pkts() <= 4, "prio backlog not drained");
    let per_step = (prio.dequeued() - dequeued_before) as f64 / secs * step.as_secs_f64();
    assert!((0.9..2.1).contains(&per_step), "prio dequeues {per_step}");
}

/// The unfaulted hostsim engine (`run`) and `run_with_chaos(.., None)`
/// stay interchangeable — the chaos plumbing costs the clean path nothing.
#[test]
fn hostsim_clean_path_is_untouched_by_the_chaos_plumbing() {
    let mut s = Scenario::new(BitRate::from_gbps(4.0), Nanos::from_millis(40));
    s.policy_rate = BitRate::from_gbps(2.0);
    s.apps = vec![AppSpec::new("A", 0, 0, 9000, 2, Nanos::ZERO, s.horizon)];
    let mk = || {
        let cfg = {
            let mut c = NicConfig::agilio_cx_40g();
            c.line_rate = BitRate::from_gbps(4.0);
            c
        };
        let p = Policy::parse(
            "fv qdisc add dev nic0 root handle 1: fv default 1:10\n\
             fv class add dev nic0 parent root classid 1:1 name root rate 2gbit\n\
             fv class add dev nic0 parent 1:1 classid 1:10 name all rate 2gbit\n\
             fv filter add dev nic0 match any flowid 1:10\n",
        )
        .unwrap();
        let pipeline = FlowValvePipeline::compile(&p, TreeParams::default(), &cfg).unwrap();
        EgressPath::flowvalve(SmartNic::new(cfg, Box::new(pipeline)))
    };
    let (plain, _) = run(&s, mk());
    let (chaosless, _) = run_with_chaos(&s, mk(), None);
    assert_eq!(plain.delivered, chaosless.delivered);
    assert_eq!(plain.dropped, chaosless.dropped);
}
