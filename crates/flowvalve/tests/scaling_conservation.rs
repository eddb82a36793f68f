//! Multi-core conservation: striped hot state must never lose, mint, or
//! misplace anything under real threads.
//!
//! Two invariants are hammered here with 8 worker threads on one shared
//! tree:
//!
//! * **counter conservation** — the per-node verdict counters are striped
//!   per thread (`NodeHot` in `tree.rs`); their merged totals must equal
//!   the per-thread tallies exactly, whichever stripes the threads landed
//!   on;
//! * **token conservation** — with epoch rolls refilling buckets while
//!   every thread meters them, the fv-audit [`Ledger`] must report zero
//!   violations (no bucket above its burst) at the end.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use flowvalve::label::ClassId;
use flowvalve::sched::RealExec;
use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
use fv_audit::Ledger;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

const THREADS: usize = 8;
const PKTS_PER_THREAD: u64 = 30_000;
const WIRE_BITS: u64 = 12_000;

fn tree(leaves: usize) -> SchedulingTree {
    let mut specs = vec![ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(40.0))];
    for i in 0..leaves {
        specs.push(ClassSpec::new(
            ClassId(10 + i as u16),
            "leaf",
            Some(ClassId(1)),
        ));
    }
    SchedulingTree::build(specs, TreeParams::default()).unwrap()
}

/// A shared monotone virtual clock: every packet advances it, so guarded
/// updates keep coming due and the tree's epoch keeps rolling mid-run.
fn next_now(clock: &AtomicU64) -> Nanos {
    Nanos::from_nanos(clock.fetch_add(120, Ordering::Relaxed))
}

#[test]
fn striped_counters_conserve_verdicts_under_threads() {
    let tree = Arc::new(tree(4));
    let clock = Arc::new(AtomicU64::new(1));
    let per_thread: Vec<(u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|k| {
                let tree = Arc::clone(&tree);
                let clock = Arc::clone(&clock);
                s.spawn(move || {
                    let label = tree.label(ClassId(10 + (k % 4) as u16), &[]).unwrap();
                    let mut exec = RealExec;
                    let (mut fwd, mut bor, mut drop) = (0u64, 0u64, 0u64);
                    for _ in 0..PKTS_PER_THREAD {
                        let now = next_now(&clock);
                        match tree.schedule(&label, WIRE_BITS, now, &mut exec) {
                            flowvalve::SchedVerdict::Forward => fwd += 1,
                            flowvalve::SchedVerdict::Borrowed(_) => bor += 1,
                            flowvalve::SchedVerdict::Drop => drop += 1,
                        }
                    }
                    (fwd, bor, drop)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Two threads share each leaf; the merged striped counters must equal
    // the sum of both threads' tallies exactly.
    for leaf in 0..4u16 {
        let c = tree.counters(ClassId(10 + leaf)).unwrap();
        let (fwd, bor, drop) = per_thread
            .iter()
            .enumerate()
            .filter(|(k, _)| (k % 4) as u16 == leaf)
            .fold((0, 0, 0), |acc, (_, t)| {
                (acc.0 + t.0, acc.1 + t.1, acc.2 + t.2)
            });
        assert_eq!(
            (c.forwarded, c.borrowed, c.dropped),
            (fwd, bor, drop),
            "leaf {leaf}: striped merge diverged from per-thread tallies"
        );
        assert_eq!(
            c.forwarded + c.borrowed + c.dropped,
            2 * PKTS_PER_THREAD,
            "leaf {leaf}: verdicts lost or minted"
        );
    }

    // Epoch rolls actually happened (the clock swept many update
    // intervals), and no refill racing the meters left a bucket above its
    // burst.
    assert!(tree.epoch() > 10, "epoch barely moved: {}", tree.epoch());
    let report = Ledger::audit(&[], &tree.slab_snapshot());
    assert!(
        report.violations.is_empty(),
        "conservation violations after the threaded run: {:?}",
        report.violations
    );
}
