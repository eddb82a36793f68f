//! Randomized property tests over the core data structures and invariants.
//!
//! These used to be `proptest` strategies; the workspace now builds with no
//! crates.io access, so each property is exercised over a deterministic
//! [`SimRng`]-driven case sweep instead — same invariants, reproducible
//! inputs.

use flowvalve::label::ClassId;
use flowvalve::sched::RealExec;
use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
use sim_core::event::EventQueue;
use sim_core::fixed::{TokenRate, FRAC_BITS};
use sim_core::rng::SimRng;
use sim_core::time::Nanos;
use sim_core::units::{BitRate, WireFraming};

/// Fixed-point rate conversion roundtrips within 0.1% across nine decades
/// of bandwidth.
#[test]
fn token_rate_roundtrips() {
    let mut rng = SimRng::seed(0xF0A4);
    for _ in 0..500 {
        let bps = rng.range(1_000, 2_000_000_000_000);
        let r = BitRate::from_bps(bps);
        let back = TokenRate::from_bit_rate(r).to_bit_rate();
        let err = (back.as_bps() as f64 - bps as f64).abs() / bps as f64;
        assert!(err < 1e-3, "{bps} bps -> {} bps", back.as_bps());
    }
}

/// Accrual is monotonic in both rate and time.
#[test]
fn accrual_is_monotonic() {
    let mut rng = SimRng::seed(0xF0A5);
    for _ in 0..500 {
        let bps = rng.range(1_000_000, 100_000_000_000);
        let ns_a = rng.range(1, 10_000_000);
        let ns_b = rng.range(1, 10_000_000);
        let r = TokenRate::from_bit_rate(BitRate::from_bps(bps));
        let (lo, hi) = if ns_a <= ns_b {
            (ns_a, ns_b)
        } else {
            (ns_b, ns_a)
        };
        assert!(r.accrued(Nanos::from_nanos(lo)) <= r.accrued(Nanos::from_nanos(hi)));
    }
}

/// The event queue dequeues in nondecreasing time order with FIFO
/// tie-breaking, for any insertion order.
#[test]
fn event_queue_is_time_ordered() {
    let mut rng = SimRng::seed(0xF0A6);
    for _ in 0..50 {
        let n = rng.range(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.range(0, 1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Nanos::from_nanos(t), i);
        }
        let mut last_t = Nanos::ZERO;
        let mut seen_at_t: Vec<usize> = Vec::new();
        while let Some((t, i)) = q.pop() {
            assert!(t >= last_t);
            if t == last_t {
                if let Some(&prev) = seen_at_t.last() {
                    // FIFO among equal timestamps if they were inserted in
                    // index order with the same time.
                    if times[prev] == times[i] {
                        assert!(i > prev);
                    }
                }
            } else {
                seen_at_t.clear();
            }
            seen_at_t.push(i);
            last_t = t;
        }
    }
}

/// Wire framing never reports more packets than raw bits allow, and
/// padding makes tiny frames cost the 64-byte minimum.
#[test]
fn framing_bounds() {
    let mut rng = SimRng::seed(0xF0A7);
    for _ in 0..500 {
        let rate_mbps = rng.range(1, 100_000);
        let len = rng.range(1, 9_000);
        let w = WireFraming::ETHERNET;
        let r = BitRate::from_mbps(rate_mbps);
        let pps = w.line_rate_pps(r, len);
        assert!(pps <= r.as_bps() as f64 / (64.0 * 8.0));
        assert!(w.wire_bits(len) >= (len.max(64)) * 8);
    }
}

/// Any two-level tree with arbitrary positive weights builds, and the
/// children's initial rates sum to at most the root rate.
#[test]
fn tree_initial_rates_conserve_bandwidth() {
    let mut rng = SimRng::seed(0xF0A8);
    for _ in 0..100 {
        let n = rng.range(1, 10) as usize;
        let weights: Vec<u32> = (0..n).map(|_| rng.range(1, 100) as u32).collect();
        let root_mbps = rng.range(10, 100_000);
        let root_rate = BitRate::from_mbps(root_mbps);
        let mut specs = vec![ClassSpec::new(ClassId(1), "root", None).rate(root_rate)];
        for (i, &w) in weights.iter().enumerate() {
            specs.push(
                ClassSpec::new(ClassId(10 + i as u16), format!("c{i}"), Some(ClassId(1))).weight(w),
            );
        }
        let tree = SchedulingTree::build(specs, TreeParams::default()).unwrap();
        let sum: f64 = (0..weights.len())
            .map(|i| tree.theta(ClassId(10 + i as u16)).unwrap().as_gbps())
            .sum();
        assert!(sum <= root_rate.as_gbps() * 1.001, "sum {sum}");
    }
}

/// The scheduling function never panics and never forwards more bits than
/// the root rate plus burst allows, for arbitrary interleavings of two
/// flows.
#[test]
fn schedule_respects_the_root_budget() {
    let mut rng = SimRng::seed(0xF0A9);
    for _ in 0..20 {
        let pattern: Vec<usize> = {
            let n = rng.range(50, 400) as usize;
            (0..n).map(|_| rng.index(2)).collect()
        };
        let gap_ns = rng.range(100, 5_000);
        let root = BitRate::from_gbps(1.0);
        let tree = SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(root),
                ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
                ClassSpec::new(ClassId(20), "b", Some(ClassId(1))),
            ],
            TreeParams::default(),
        )
        .unwrap();
        let labels = [
            tree.label(ClassId(10), &[ClassId(20)]).unwrap(),
            tree.label(ClassId(20), &[ClassId(10)]).unwrap(),
        ];
        let mut exec = RealExec;
        let mut now = Nanos::ZERO;
        let mut passed_bits = 0u64;
        const BITS: u64 = 12_000;
        for &who in &pattern {
            if tree.schedule(&labels[who], BITS, now, &mut exec).passes() {
                passed_bits += BITS;
            }
            now += Nanos::from_nanos(gap_ns);
        }
        // Budget: root rate over the elapsed time, plus initial bucket and
        // shadow bursts (buckets start full).
        let elapsed = now;
        let budget = root.bits_in(elapsed)
            + 3 * (TokenRate::from_bit_rate(root)
                .accrued(TreeParams::default().burst_window)
                .raw()
                >> FRAC_BITS)
            + 2 * 1518 * 8 * 4; // minimum burst floors
        assert!(
            passed_bits <= budget + BITS,
            "passed {passed_bits} bits > budget {budget}"
        );
    }
}

#[test]
fn tree_rejects_random_garbage_cleanly() {
    // A smoke check that invalid specs error instead of panicking.
    let bad = vec![
        ClassSpec::new(ClassId(1), "root", None), // no rate
    ];
    assert!(SchedulingTree::build(bad, TreeParams::default()).is_err());
}
