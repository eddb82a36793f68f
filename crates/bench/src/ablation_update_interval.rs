//! Ablation: the update interval ΔT and the burst window.
//!
//! The guarded update epoch (Figure 8) trades precision for lock traffic:
//! a shorter ΔT tracks rate changes faster but enters the guarded section
//! more often; a larger burst window tolerates TCP sawtooths but loosens
//! short-term conformance. This figure sweeps both and reports rate
//! conformance error and the modeled lock contention.

use flowvalve::label::ClassId;
use flowvalve::sched::{LockDiscipline, SimExec};
use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
use fv_telemetry::{JsonValue, ToJson};
use np_sim::config::CycleCosts;
use np_sim::cost::CostMeter;
use np_sim::lock::LockTable;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

use crate::FigureText;

/// Drives a single 2 Gbps-capped class with 6 Gbps offered for 20 ms and
/// returns (achieved_gbps, try_lock_failure_ratio).
fn measure(min_update: Nanos, burst_window: Nanos) -> (f64, f64) {
    let params = TreeParams {
        min_update_interval: min_update,
        burst_window,
        shadow_burst_window: burst_window / 2,
        ..TreeParams::default()
    };
    let tree = SchedulingTree::build(
        vec![
            ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(2.0)),
            ClassSpec::new(ClassId(10), "only", Some(ClassId(1))),
        ],
        params,
    )
    .expect("tree builds");
    let label = tree.label(ClassId(10), &[]).expect("leaf exists");
    let mut meter = CostMeter::new(CycleCosts::agilio());
    let mut locks = LockTable::new(8);
    let horizon = Nanos::from_millis(20);
    let gap = Nanos::from_nanos(2_000); // 12 kbit / 2 us = 6 Gbps offered
    let hold = Nanos::from_nanos(325);
    let mut exec = SimExec::new(&mut meter, &mut locks, hold, LockDiscipline::PerClass);
    let mut now = Nanos::ZERO;
    let mut passed_bits = 0u64;
    while now < horizon {
        if tree.schedule(&label, 12_000, now, &mut exec).passes() {
            passed_bits += 12_000;
        }
        now += gap;
    }
    let achieved = passed_bits as f64 / horizon.as_nanos() as f64;
    let s = locks.stats();
    let fail_ratio = s.try_failed as f64 / (s.try_acquired + s.try_failed).max(1) as f64;
    (achieved, fail_ratio)
}

/// Runs the figure; see the module docs.
pub fn figure(out: &mut String) -> JsonValue {
    writeln!(
        out,
        "\ntarget 2.00 Gbps, offered 6 Gbps, single class:\n\n{:>10} {:>12} {:>14} {:>14} {:>12}",
        "ΔT (us)", "burst (us)", "achieved Gbps", "conform err", "lock fails"
    );
    let mut rows = Vec::new();
    for &dt_us in &[20u64, 50, 100, 500, 2_000] {
        for &burst_us in &[100u64, 250, 1_000] {
            let (achieved, fails) =
                measure(Nanos::from_micros(dt_us), Nanos::from_micros(burst_us));
            let err = (achieved - 2.0).abs() / 2.0;
            writeln!(
                out,
                "{dt_us:>10} {burst_us:>12} {achieved:>14.3} {:>13.1}% {:>11.1}%",
                err * 100.0,
                fails * 100.0
            );
            rows.push((dt_us, burst_us, achieved, err, fails));
        }
    }
    out.push_str(concat!(
        "\nreading the table:\n",
        "  - conformance holds within ~1-5% whenever burst ≥ ΔT x rate\n",
        "  - when the burst window is SMALLER than ΔT, each refill saturates at\n",
        "    the cap and the surplus tokens are lost: the class undershoots\n",
        "    catastrophically (e.g. ΔT=2ms/burst=100us achieves 5% of target) —\n",
        "    the concrete reason the paper replenishes on every packet-arrival\n",
        "    epoch instead of a slow timer\n",
        "  - larger bursts trade a small steady overshoot for sawtooth tolerance\n",
    ));
    rows.to_json()
}
