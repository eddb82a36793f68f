//! PRIO and TBF as differential references for FlowValve.
//!
//! Strict priority and token-bucket shaping are the two canonical
//! scheduling transactions (Programmable Packet Scheduling, PAPERS.md) and
//! the qdiscs the paper names as offloaded. No figure builds `qdisc::Prio`
//! or `qdisc::Tbf`; they earn their place here (DESIGN.md "Reachability"):
//! one seeded open-loop stream goes through a FlowValve policy on the NIC
//! model and, packet for packet, through the queueing reference drained at
//! the same rate. After convergence the per-class delivered bits agree.

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use netstack::flow::FlowKey;
use netstack::gen::PoissonProcess;
use netstack::packet::{AppId, VfPort};
use np_sim::config::NicConfig;
use np_sim::harness::{drive, Source};
use np_sim::nic::{RxOutcome, SmartNic};
use qdisc::prio::Prio;
use qdisc::tbf::Tbf;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

const HORIZON: Nanos = Nanos::from_millis(60);
/// Delivered bits count from here on: FlowValve's rate estimates and the
/// references' start-up bursts have settled.
const WARMUP: Nanos = Nanos::from_millis(10);
const SEED: u64 = 23;
/// Agreement bound, as a share of the policy rate over the counted window.
/// Early drop against a rate estimate is not a queue: over seeds 1, 7, 23,
/// 99 and 12345 FlowValve's low class sits 2.5-2.9 % of the root rate
/// under what the queue serves and the shaped leaf 1.3 % under the
/// ceiling; the high class agrees to the packet.
const TOLERANCE: f64 = 0.05;

/// App `i` enters through VF `i` as MTU-sized Poisson arrivals.
fn stream(offered: &[BitRate]) -> Vec<Source> {
    offered
        .iter()
        .enumerate()
        .map(|(i, &rate)| Source {
            flow: FlowKey::tcp([10, 0, 0, 1 + i as u8], 40_000, [10, 0, 255, 1], 9_000),
            app: AppId(i as u16),
            vf: VfPort(i as u8),
            process: Box::new(PoissonProcess::new(rate, 1518)),
        })
        .collect()
}

/// An unobserved 10 G NIC running `policy`; the wire is never the limit.
fn flowvalve(policy: &str) -> SmartNic {
    let policy = Policy::parse(policy).expect("policy parses");
    let cfg = NicConfig::agilio_cx_10g();
    let pipeline =
        FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).expect("policy compiles");
    SmartNic::new(cfg, Box::new(pipeline))
}

/// The counted window's worth of bits at `rate`.
fn window_bits(rate: BitRate) -> u64 {
    rate.bits_in(HORIZON - WARMUP)
}

fn assert_close(what: &str, got: u64, want: u64, policy_rate: BitRate) {
    let off = got.abs_diff(want) as f64 / window_bits(policy_rate) as f64;
    assert!(
        off <= TOLERANCE,
        "{what}: {got} bits against {want} ({:.1} % of the policy rate)",
        100.0 * off
    );
}

#[test]
fn strict_priority_policy_matches_a_prio_qdisc() {
    let root = BitRate::from_gbps(2.0);
    let offered = [root.scaled(3, 5), root.scaled(4, 5)];
    let mut nic = flowvalve(
        "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 rate 2gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name hi prio 0\n\
         fv class add dev nic0 parent 1:1 classid 1:20 name lo prio 1\n\
         fv filter add dev nic0 match vf 0 flowid 1:10\n\
         fv filter add dev nic0 match vf 1 flowid 1:20\n",
    );
    // Two bands in front of a wire at the root rate; 64 packets a band.
    let mut prio = Prio::new(2, 1 << 20, 64);
    let mut wire_free = Nanos::ZERO;
    let (mut fv, mut reference) = ([0u64; 2], [0u64; 2]);
    drive(stream(&offered), HORIZON, SEED, |pkt| {
        let (now, class) = (pkt.created_at, pkt.app.0 as usize);
        let sent = matches!(nic.rx(pkt, now), RxOutcome::Transmit { .. });
        if sent && now >= WARMUP {
            fv[class] += pkt.frame_bits();
        }
        // The wire serves what was queued before this arrival.
        while wire_free <= now {
            let Some(p) = prio.dequeue() else { break };
            let start = wire_free.max(p.created_at);
            wire_free = start + root.serialization_time(p.frame_bits());
            if start >= WARMUP {
                reference[p.app.0 as usize] += p.frame_bits();
            }
        }
        let _ = prio.enqueue(class, *pkt);
    });

    assert_close("hi", fv[0], reference[0], root);
    assert_close("lo", fv[1], reference[1], root);
    // The high class is served in full, the low one only the residual.
    for [hi, lo] in [fv, reference] {
        assert_close("hi against its offer", hi, window_bits(offered[0]), root);
        assert_close("lo against the residual", lo, window_bits(root) - hi, root);
        assert!(lo < window_bits(offered[1]) * 3 / 5, "lo was not held back");
    }
}

#[test]
fn ceiling_leaf_matches_a_token_bucket_filter() {
    let (root, ceil) = (BitRate::from_gbps(10.0), BitRate::from_gbps(2.0));
    let mut nic = flowvalve(
        "fv qdisc add dev nic0 root handle 1: fv default 1:10\n\
         fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 ceil 2gbit\n",
    );
    // Same rate and the burst the tree gives every bucket: its burst
    // window at the root rate.
    let burst_bytes = root.bits_in(TreeParams::default().burst_window) / 8;
    let mut tbf = Tbf::new(ceil, burst_bytes, 1 << 20, 256);
    let (mut fv, mut reference) = (0u64, 0u64);
    drive(stream(&[ceil.scaled(3, 2)]), HORIZON, SEED, |pkt| {
        let now = pkt.created_at;
        let sent = matches!(nic.rx(pkt, now), RxOutcome::Transmit { .. });
        if sent && now >= WARMUP {
            fv += pkt.frame_bits();
        }
        let _ = tbf.enqueue(*pkt);
        while let Some(p) = tbf.dequeue(now) {
            if now >= WARMUP {
                reference += p.frame_bits();
            }
        }
    });

    assert_close("shaped leaf", fv, reference, ceil);
    // Both hold the ceiling, and both are saturated by 1.5x the offer.
    for delivered in [fv, reference] {
        assert_close("against the ceiling", delivered, window_bits(ceil), ceil);
    }
}
