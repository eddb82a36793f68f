//! Ablation (paper §II-B): why the *inflexible* on-NIC traffic manager is
//! not enough.
//!
//! The fixed scheme (strict priority + WRR) can express static shares, but
//! the motivation example's conditional policy — "ML is lower priority
//! than KVS, *but* keeps 2 Gbps guaranteed when the subtree has more than
//! 4 Gbps" — needs runtime rate recomputation. This figure runs both the
//! hardware traffic manager and FlowValve on that policy fragment and
//! shows the TM starving ML while FlowValve holds the guarantee. The TM is
//! configured as its strict-priority half, a [`Prio`] qdisc draining into
//! the NIC's wire model ([`TxFifo`]): with KVS and ML on different levels,
//! WRR has nothing to split.

use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::TreeParams;
use fv_telemetry::{JsonValue, ToJson};
use netstack::flow::FlowKey;
use netstack::packet::{AppId, Packet, PacketIdGen, VfPort};
use np_sim::config::NicConfig;
use np_sim::nic::{RxOutcome, SmartNic};
use np_sim::tm::TxFifo;
use qdisc::prio::Prio;
use sim_core::time::Nanos;
use sim_core::units::{BitRate, ByteSize, WireFraming};

use crate::FigureText;

const HORIZON: Nanos = Nanos::from_millis(10);

/// Offers KVS and ML traffic (both greedy) against a 6 Gbps subtree.
/// Returns (kvs_gbps, ml_gbps).
fn run_hw_tm() -> (f64, f64) {
    // The best the fixed scheme can do: KVS strictly prior, ML below it,
    // a PRIO qdisc of two 256-packet bands in front of the NIC's wire.
    let mut prio = Prio::new(2, u64::MAX, 256);
    // The wire is only handed a frame once it is idle, so the backlog
    // bound never binds.
    let mut wire = TxFifo::new(
        BitRate::from_gbps(6.0),
        WireFraming::ETHERNET,
        ByteSize::from_kib(64),
    );
    let mut ids = PacketIdGen::new();
    let mut t = Nanos::ZERO;
    let mut bits = [0u64; 2];
    let gap = Nanos::from_nanos(1_600); // ~7.6 Gbps offered per class
    let kvs_flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 255, 1], 5001);
    let ml_flow = FlowKey::tcp([10, 0, 0, 2], 1, [10, 0, 255, 1], 5002);
    let mut drain_t = Nanos::ZERO;
    while t < HORIZON {
        // A full band tail-drops: that is the fixed scheme's only recourse.
        let _ = prio.enqueue(
            0,
            Packet::new(ids.next_id(), kvs_flow, 1_518, AppId(0), VfPort(0), t),
        );
        let _ = prio.enqueue(
            1,
            Packet::new(ids.next_id(), ml_flow, 1_518, AppId(1), VfPort(0), t),
        );
        // Drain everything the wire permits up to the next arrival.
        drain_t = drain_t.max(t);
        while drain_t <= t + gap {
            let Some(p) = prio.dequeue() else { break };
            let done = wire
                .enqueue_pkt(p.frame_len, drain_t, p.id)
                .expect("an idle wire takes the frame");
            if done <= HORIZON {
                bits[p.app.0 as usize] += p.frame_bits();
            }
            drain_t = done;
        }
        t += gap;
    }
    let g = |b: u64| b as f64 / HORIZON.as_nanos() as f64;
    (g(bits[0]), g(bits[1]))
}

/// The same policy on FlowValve: KVS prio 0, ML prio 1 with the
/// conditional 2 Gbps guarantee.
fn run_flowvalve() -> (f64, f64) {
    let policy = Policy::parse(
        "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 name s2 rate 6gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:40 name kvs prio 0\n\
         fv class add dev nic0 parent 1:1 classid 1:41 name ml prio 1 rate 2gbit\n\
         fv filter add dev nic0 match ip dport 5001 flowid 1:40\n\
         fv filter add dev nic0 match ip dport 5002 flowid 1:41\n",
    )
    .expect("policy parses");
    let cfg = NicConfig::agilio_cx_10g();
    let pipeline =
        FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).expect("compiles");
    let mut nic = SmartNic::new(cfg, Box::new(pipeline));
    let mut ids = PacketIdGen::new();
    let mut t = Nanos::ZERO;
    let mut bits = [0u64; 2];
    let gap = Nanos::from_nanos(1_600);
    let kvs_flow = FlowKey::tcp([10, 0, 0, 1], 1, [10, 0, 255, 1], 5001);
    let ml_flow = FlowKey::tcp([10, 0, 0, 2], 1, [10, 0, 255, 1], 5002);
    while t < HORIZON {
        for (i, f) in [(0u16, kvs_flow), (1, ml_flow)] {
            let pkt = Packet::new(ids.next_id(), f, 1_518, AppId(i), VfPort(i as u8), t);
            if let RxOutcome::Transmit { wire_done, .. } = nic.rx(&pkt, t) {
                if wire_done <= HORIZON {
                    bits[i as usize] += pkt.frame_bits();
                }
            }
        }
        t += gap;
    }
    let g = |b: u64| b as f64 / HORIZON.as_nanos() as f64;
    (g(bits[0]), g(bits[1]))
}

/// Runs the figure; see the module docs.
pub fn figure(out: &mut String) -> JsonValue {
    writeln!(
        out,
        "\npolicy: KVS prior to ML inside a 6 Gbps subtree, ML guaranteed 2 Gbps\n"
    );
    writeln!(
        out,
        "{:<26} {:>10} {:>10}",
        "scheduler", "KVS Gbps", "ML Gbps"
    );
    let (k_hw, m_hw) = run_hw_tm();
    writeln!(
        out,
        "{:<26} {k_hw:>10.2} {m_hw:>10.2}   <- ML starved",
        "hw strict-prio + wrr"
    );
    let (k_fv, m_fv) = run_flowvalve();
    writeln!(
        out,
        "{:<26} {k_fv:>10.2} {m_fv:>10.2}   <- guarantee held",
        "flowvalve"
    );

    out.push_str(concat!(
        "\nthe fixed scheme has no way to express \"prior *unless* the sibling\n",
        "falls below its guarantee\": strict priority starves ML entirely, while\n",
        "FlowValve's runtime rate recomputation reserves ML's floor (≥ ~2 Gbps).\n",
    ));

    let rows = [
        ("hw_kvs", k_hw),
        ("hw_ml", m_hw),
        ("fv_kvs", k_fv),
        ("fv_ml", m_fv),
    ];
    rows.to_json()
}
