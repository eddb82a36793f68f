//! Integration tests for the borrowing subprocedure (paper §IV-C
//! Subprocedure 2 and Figure 9): shadow buckets, preferential interior
//! sharing, and ceilings that bound borrowed bandwidth.

use flowvalve::label::ClassId;
use flowvalve::sched::{LockDiscipline, SimExec};
use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
use np_sim::config::CycleCosts;
use np_sim::cost::CostMeter;
use np_sim::lock::LockTable;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

fn gbps(g: f64) -> BitRate {
    BitRate::from_gbps(g)
}

/// Drives interleaved traffic: each `(label, bits, every_n)` sends one
/// packet of `bits` whenever `i % every_n == 0`; returns per-entry passed
/// bit totals over the run.
fn drive(
    tree: &SchedulingTree,
    flows: &[(&flowvalve::label::QosLabel, u64, u64)],
    steps: u64,
    step: Nanos,
) -> Vec<u64> {
    let mut meter = CostMeter::new(CycleCosts::agilio());
    let mut locks = LockTable::new(4 * tree.len());
    let hold = Nanos::from_nanos(300);
    let mut exec = SimExec::new(&mut meter, &mut locks, hold, LockDiscipline::PerClass);
    let mut passed = vec![0u64; flows.len()];
    let mut now = Nanos::ZERO;
    for i in 0..steps {
        for (k, &(label, bits, every)) in flows.iter().enumerate() {
            if i % every == 0 && tree.schedule(label, bits, now, &mut exec).passes() {
                passed[k] += bits;
            }
        }
        now += step;
    }
    passed
}

fn rate_gbps(bits: u64, steps: u64, step: Nanos) -> f64 {
    bits as f64 / (steps as f64 * step.as_nanos() as f64)
}

/// The Figure 9 tree: S2 (2 Gbps measured subtree) hosting KVS and ML,
/// next to WS — all same priority, weights WS:S2 = 1:2.
fn fig9_tree() -> SchedulingTree {
    SchedulingTree::build(
        vec![
            ClassSpec::new(ClassId(1), "s1", None).rate(gbps(3.0)),
            ClassSpec::new(ClassId(30), "ws", Some(ClassId(1))).weight(1),
            ClassSpec::new(ClassId(22), "s2", Some(ClassId(1))).weight(2),
            ClassSpec::new(ClassId(40), "kvs", Some(ClassId(22))).weight(1),
            ClassSpec::new(ClassId(41), "ml", Some(ClassId(22))).weight(1),
        ],
        TreeParams::default(),
    )
    .expect("tree builds")
}

#[test]
fn interior_class_sharing_is_preferential() {
    // KVS idle; WS and ML both hungry. ML borrows through S2 *and* KVS
    // (interior first), WS only through S2. Because ML's consumption is
    // fully reflected in S2's Γ, S2's lendable rate already excludes what
    // ML took — "the more ML occupies, the less WS can borrow" (Fig. 9).
    let tree = fig9_tree();
    let ws = tree.label(ClassId(30), &[ClassId(22)]).unwrap();
    let ml = tree
        .label(ClassId(41), &[ClassId(22), ClassId(40)])
        .unwrap();
    let steps = 120_000;
    let step = Nanos::from_nanos(500);
    // Both offer ~3 Gbps (1500 bits every 500 ns each).
    let passed = drive(&tree, &[(&ws, 1_500, 1), (&ml, 1_500, 1)], steps, step);
    let ws_g = rate_gbps(passed[0], steps, step);
    let ml_g = rate_gbps(passed[1], steps, step);
    // ML ends up ahead: its own 1 Gbps share plus KVS's idle 1 Gbps
    // preferentially, while WS's borrowing is limited to S2's leftovers.
    assert!(
        ml_g > ws_g,
        "interior preference lost: ws {ws_g} vs ml {ml_g}"
    );
    let total = ws_g + ml_g;
    assert!(total < 3.4, "borrowing overran the root: {total} Gbps");
    assert!(total > 2.2, "work conservation failed: {total} Gbps");
}

#[test]
fn direct_lender_labels_equalize_access() {
    // If both WS's and ML's labels name KVS directly, the two compete for
    // KVS's shadow bucket on equal terms — the paper's alternative wiring.
    // KVS trickles (active but underusing) so its unused share is lent
    // rather than redistributed.
    let tree = fig9_tree();
    let kvs = tree.label(ClassId(40), &[]).unwrap();
    let ws = tree.label(ClassId(30), &[ClassId(40)]).unwrap();
    let ml = tree.label(ClassId(41), &[ClassId(40)]).unwrap();
    let steps = 120_000;
    let step = Nanos::from_nanos(500);
    let passed = drive(
        &tree,
        // KVS ~0.19 Gbps of its 1 Gbps share; WS and ML offer ~3 Gbps each.
        &[(&kvs, 1_500, 16), (&ws, 1_500, 1), (&ml, 1_500, 1)],
        steps,
        step,
    );
    let ws_g = rate_gbps(passed[1], steps, step);
    let ml_g = rate_gbps(passed[2], steps, step);
    let gap = (ml_g - ws_g).abs();
    // Both draw from the same shadow: the asymmetry shrinks markedly
    // versus the preferential wiring (where ML led by ~1 Gbps).
    assert!(
        gap < 0.6,
        "equal-access labels still skewed: ws {ws_g} ml {ml_g}"
    );
    let total = ws_g + ml_g;
    assert!(total > 2.0, "work conservation failed: {total} Gbps");
}

#[test]
fn ceiling_bounds_borrowed_bandwidth() {
    // A leaf with a ceil may not exceed it even with a willing lender.
    let tree = SchedulingTree::build(
        vec![
            ClassSpec::new(ClassId(1), "root", None).rate(gbps(4.0)),
            ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
            ClassSpec {
                ceil: Some(gbps(2.5)),
                ..ClassSpec::new(ClassId(20), "b", Some(ClassId(1)))
            },
        ],
        TreeParams::default(),
    )
    .unwrap();
    let a = tree.label(ClassId(10), &[]).unwrap();
    let b = tree.label(ClassId(20), &[ClassId(10)]).unwrap();
    let steps = 120_000;
    let step = Nanos::from_nanos(500);
    // a trickles (~0.35 Gbps), b offers ~6 Gbps.
    let passed = drive(&tree, &[(&a, 1_500, 8), (&b, 3_000, 1)], steps, step);
    let b_g = rate_gbps(passed[1], steps, step);
    // b's own θ is capped at 2.5; borrowing must not smuggle more in...
    // except for the bounded shadow-burst transient.
    assert!(b_g < 2.9, "ceiling evaded via borrowing: {b_g} Gbps");
    assert!(b_g > 2.0, "b failed to reach its ceiling: {b_g} Gbps");
}

#[test]
fn borrowed_traffic_counts_against_the_path() {
    // Borrowing still records consumption on the borrower's path, so the
    // parent's Γ reflects it (the Figure 9 accounting).
    let tree = fig9_tree();
    let ml = tree.label(ClassId(41), &[ClassId(40)]).unwrap();
    let steps = 60_000;
    let step = Nanos::from_nanos(500);
    let _ = drive(&tree, &[(&ml, 3_000, 1)], steps, step);
    let now = step * steps;
    let s2_gamma = tree.gamma(ClassId(22), now).unwrap().as_gbps();
    assert!(
        s2_gamma > 1.0,
        "interior Γ missed borrowed traffic: {s2_gamma}"
    );
}
