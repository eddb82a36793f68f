//! Resilience under injected faults (fv-chaos).
//!
//! Every fault kind the chaos subsystem can inject gets a recovery test:
//! the fault perturbs a saturated run mid-flight, and an fv-scope SLO
//! pins that the scheduler returns to its conformance band once the
//! window clears. Host faults (an app pause, a VF reset) act at the host
//! boundary `run_chaos` models, before the NIC sees the frame. Determinism
//! (same plan + seed → byte-identical report), clean-path neutrality
//! (empty plan → the unfaulted NIC numbers) and token conservation across
//! hot reloads are pinned here too, plus recovery of the PRIO/TBF
//! baselines under a wire stall for comparison.

use flowvalve::frontend::Policy;
use fv_audit::Ledger;
use fv_chaos::{run_chaos, saturate, FaultPlan, SETTLE};
use fv_scope::{evaluate, SamplerConfig, Slo};
use fv_telemetry::ToJson;
use netstack::flow::FlowKey;
use netstack::packet::{AppId, Packet, PacketIdGen, VfPort};
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
    run_chaos(&policy(), &plan).expect("run succeeds")
}

/// The sampler recovery was judged on.
fn sampler(report: &fv_chaos::ChaosReport) -> &fv_scope::TimeSampler {
    &report.run.sampler
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
    // The corruption burst visibly dropped frames, and the NIC counted them.
    assert!(
        report.run.snapshot.counter("nic.fault_drops") > 0,
        "corruption burst dropped nothing"
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

/// Sum of the per-engine `nic.me<i>.busy_permille` gauges: how much of
/// the worker pool's cycle budget the run spent.
fn busy_permille(snap: &fv_telemetry::Snapshot) -> u64 {
    let busy = snap
        .entries
        .iter()
        .filter(|e| e.name.ends_with(".busy_permille"));
    busy.map(|e| match e.value {
        fv_telemetry::MetricValue::Gauge { value, .. } => value,
        _ => 0,
    })
    .sum()
}

#[test]
fn clock_skew_and_cpu_burn_recover() {
    const SKEW: &str = "chaos fault clock_skew at 2ms for 1ms skew 300us\n";
    const BURN: &str = "chaos fault cpu_burn at 5ms for 1ms cycles 400\n";
    let report = chaos(&format!("chaos seed 7\n{SKEW}{BURN}"));
    assert!(report.passed(), "{}", report.render());
    assert_eq!(report.run.snapshot.counter("chaos.faults_injected"), 2);
    // The plan alone counts two injections; each fault must also move
    // something only it reaches, against the same seed unfaulted.
    let clean = chaos("chaos seed 7\n").run.snapshot;
    let skewed = chaos(&format!("chaos seed 7\n{SKEW}")).run.snapshot;
    let burnt = chaos(&format!("chaos seed 7\n{BURN}")).run.snapshot;
    // The skew reaches only the scheduler's clock: per-class verdicts move.
    let forwarded = |snap: &fv_telemetry::Snapshot| {
        ["1:10", "1:20", "1:30"].map(|id| snap.counter(&format!("fv.class.{id}.forwarded")))
    };
    assert_ne!(
        forwarded(&skewed),
        forwarded(&clean),
        "the skew moved no verdict"
    );
    // The burn reaches only the worker pool: it spends more cycles and
    // leaves every verdict as it was.
    assert_eq!(forwarded(&burnt), forwarded(&clean));
    assert!(
        busy_permille(&burnt) > busy_permille(&clean),
        "the burn cost no cycles: {} vs {} permille",
        busy_permille(&burnt),
        busy_permille(&clean)
    );
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

/// `fv chaos scripts/motivation.fv --plan scripts/reconfig.chaos` reloads
/// the policy twice, at 4 ms and at 6 ms. The provenance ring holds sampled
/// decisions of all three trees (before, during and after the window: the
/// run samples about 760, the ring keeps 4096), and the conservation
/// ledger finds no break in any of them.
#[test]
fn tokens_are_conserved_across_both_hot_reloads() {
    let policy = Policy::parse(include_str!("../scripts/motivation.fv")).expect("policy parses");
    let plan = FaultPlan::parse(include_str!("../scripts/reconfig.chaos")).expect("plan parses");
    let run = run_chaos(&policy, &plan).expect("run succeeds").run;
    let records = run.audit.ring.records();
    assert!(records.len() < 4096, "the 4096-slot ring wrapped");
    for gen in 0..=2 {
        assert!(
            records.iter().any(|r| r.reload_gen == gen),
            "no sampled decision of reload generation {gen}"
        );
    }
    let report = Ledger::audit(&records, &run.audit.slab);
    assert!(report.ok(), "{}", report.render());
    assert!(report.steps_checked > 0);
    assert_eq!(run.snapshot.counter("audit.records"), records.len() as u64);
    assert_eq!(run.snapshot.counter("audit.violations"), 0);
}

/// A window that ends within the settle time of the horizon, or after it,
/// is noted as unchecked rather than judged, even one ending at the top of
/// the clock's range.
#[test]
fn a_window_at_the_top_of_the_clock_is_left_unchecked() {
    let report = chaos("chaos fault tm_pause at 18446744073709551000ns for 1ns\n");
    assert!(report.passed(), "{}", report.render());
    assert_eq!(report.unchecked.len(), 1, "{:?}", report.unchecked);
    assert_eq!(report.run.snapshot.counter("chaos.faults_injected"), 0);
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
/// clean run of the same workload forwards, with no fault injector
/// installed at all.
#[test]
fn empty_plan_matches_a_run_with_no_injector_installed() {
    let report = chaos("chaos seed 1\n");
    let clean = saturate(&policy(), 1, SamplerConfig::default()).expect("run succeeds");
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
