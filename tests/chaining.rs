//! Integration: qdisc chaining across crates.

use flowvalve::chain::{ChainLabel, QdiscChain};
use flowvalve::label::ClassId;
use flowvalve::sched::{NoObserver, RealExec};
use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
use sim_core::time::Nanos;
use sim_core::units::BitRate;
use std::sync::Arc;

#[test]
fn prio_tree_chained_with_rate_tree() {
    // Stage 1: a tenant's PRIO tree over its 2 Gbps allotment (hi starves
    // lo). Stage 2: a 3 Gbps port-level cap (non-binding for this tenant
    // but still enforced; the unit test `the_tightest_stage_governs`
    // covers the binding case). hi takes the whole allotment; lo gets
    // (almost) nothing. Note priority only binds where its *own* tree is
    // the bottleneck: two equal-rate stages would fight over burst phase.
    let prio = Arc::new(
        SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(2.0)),
                ClassSpec::new(ClassId(10), "hi", Some(ClassId(1))).prio(0),
                ClassSpec::new(ClassId(20), "lo", Some(ClassId(1))).prio(1),
            ],
            TreeParams::default(),
        )
        .expect("prio tree builds"),
    );
    let cap = Arc::new(
        SchedulingTree::build(
            vec![ClassSpec::new(ClassId(1), "cap", None).rate(BitRate::from_gbps(3.0))],
            TreeParams::default(),
        )
        .expect("cap tree builds"),
    );
    let chain = QdiscChain::new(vec![Arc::clone(&prio), Arc::clone(&cap)]);
    let hi = ChainLabel::new(vec![
        prio.label(ClassId(10), &[]).expect("hi exists"),
        cap.label(ClassId(1), &[]).expect("cap root exists"),
    ]);
    let lo = ChainLabel::new(vec![
        prio.label(ClassId(20), &[]).expect("lo exists"),
        cap.label(ClassId(1), &[]).expect("cap root exists"),
    ]);

    let mut exec = RealExec;
    let mut now = Nanos::ZERO;
    let mut passed = [0u64; 2];
    let n = 80_000;
    for _ in 0..n {
        // Each offers ~4 Gbps (12 kbit every 3 us).
        if chain
            .schedule(&hi, 12_000, now, &mut exec, &mut NoObserver)
            .passes()
        {
            passed[0] += 12_000;
        }
        if chain
            .schedule(&lo, 12_000, now, &mut exec, &mut NoObserver)
            .passes()
        {
            passed[1] += 12_000;
        }
        now += Nanos::from_micros(3);
    }
    let secs = now.as_secs_f64();
    let hi_g = passed[0] as f64 / secs / 1e9;
    let lo_g = passed[1] as f64 / secs / 1e9;
    assert!(
        (1.6..2.4).contains(&hi_g),
        "hi got {hi_g} Gbps of the 2 Gbps cap"
    );
    assert!(lo_g < 0.8, "lo was not starved: {lo_g} Gbps");
    assert!(hi_g + lo_g < 2.5, "cap exceeded: {}", hi_g + lo_g);
}
