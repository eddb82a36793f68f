//! Qdisc chaining (paper §IV, "it also supports chaining offloaded qdiscs
//! by performing runtime rate estimations").
//!
//! A [`QdiscChain`] evaluates a packet against a sequence of scheduling
//! trees; the packet is forwarded only if **every** stage admits it, and
//! the consumption it records in each stage keeps the stages' runtime rate
//! estimations (Γ) coherent — stage *k+1* automatically sees only the
//! traffic stage *k* let through, because Γ counts *forwarded* bits.
//!
//! The canonical use is layering orthogonal policies without merging them
//! into one tree: e.g. a per-tenant PRIO tree chained with an aggregate
//! HTB-style rate tree, mirroring `tc`'s qdisc-within-class stacking.
//!
//! A chained drop is charged back to every *earlier* stage that had
//! already admitted the packet — without the refund, upstream Γs would
//! count bits that never reached the wire and mis-steer their siblings'
//! residual rates.

use std::sync::Arc;

use fv_audit::StepObserver;

use crate::label::QosLabel;
use crate::sched::{Exec, SchedVerdict};
use crate::tree::SchedulingTree;
use sim_core::time::Nanos;

/// A per-chain packet label: one [`QosLabel`] per stage.
#[derive(Debug, Clone)]
pub struct ChainLabel {
    labels: Vec<QosLabel>,
}

impl ChainLabel {
    /// Creates a label from per-stage labels (stage order).
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty.
    pub fn new(labels: Vec<QosLabel>) -> Self {
        assert!(!labels.is_empty(), "chain label cannot be empty");
        ChainLabel { labels }
    }

    /// The per-stage labels.
    pub fn stages(&self) -> &[QosLabel] {
        &self.labels
    }
}

/// A chain of scheduling trees evaluated in sequence.
///
/// # Example
///
/// ```
/// use flowvalve::chain::{ChainLabel, QdiscChain};
/// use flowvalve::label::ClassId;
/// use flowvalve::sched::{NoObserver, RealExec};
/// use flowvalve::tree::{ClassSpec, SchedulingTree, TreeParams};
/// use sim_core::time::Nanos;
/// use sim_core::units::BitRate;
/// use std::sync::Arc;
///
/// // Stage 1: per-tenant split; Stage 2: an aggregate 1 Gbps cap.
/// let tenant = SchedulingTree::build(
///     vec![
///         ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(10.0)),
///         ClassSpec::new(ClassId(10), "tenant-a", Some(ClassId(1))),
///     ],
///     TreeParams::default(),
/// )?;
/// let aggregate = SchedulingTree::build(
///     vec![ClassSpec::new(ClassId(1), "cap", None).rate(BitRate::from_gbps(1.0))],
///     TreeParams::default(),
/// )?;
/// let chain = QdiscChain::new(vec![Arc::new(tenant), Arc::new(aggregate)]);
/// let label = ChainLabel::new(vec![
///     chain.stage(0).label(ClassId(10), &[])?,
///     chain.stage(1).label(ClassId(1), &[])?,
/// ]);
/// let mut exec = RealExec;
/// let at = Nanos::from_micros(100);
/// let verdict = chain.schedule(&label, 12_000, at, &mut exec, &mut NoObserver);
/// assert!(verdict.passes());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct QdiscChain {
    stages: Vec<Arc<SchedulingTree>>,
}

impl core::fmt::Debug for QdiscChain {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("QdiscChain")
            .field("stages", &self.stages.len())
            .finish_non_exhaustive()
    }
}

impl QdiscChain {
    /// Creates a chain.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<Arc<SchedulingTree>>) -> Self {
        assert!(!stages.is_empty(), "chain cannot be empty");
        QdiscChain { stages }
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The `i`-th stage's tree.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn stage(&self, i: usize) -> &Arc<SchedulingTree> {
        &self.stages[i]
    }

    /// Schedules one packet through every stage in order. Forwarded only
    /// if every stage admits it; a later-stage drop refunds the earlier
    /// stages' consumption accounting. `obs` is told which stage each step
    /// belongs to and sees every Γ-refund; pass
    /// [`NoObserver`](crate::sched::NoObserver) to capture nothing.
    ///
    /// # Panics
    ///
    /// Panics if the label's stage count differs from the chain's.
    pub fn schedule<E: Exec, O: StepObserver>(
        &self,
        label: &ChainLabel,
        bits: u64,
        now: Nanos,
        exec: &mut E,
        obs: &mut O,
    ) -> SchedVerdict {
        assert_eq!(
            label.stages().len(),
            self.stages.len(),
            "label/chain stage count mismatch"
        );
        for (i, (tree, l)) in self.stages.iter().zip(label.stages()).enumerate() {
            if O::ENABLED {
                obs.on_stage(i as u8);
            }
            let verdict = tree.schedule_with(l, bits, now, exec, obs);
            if !verdict.passes() {
                // Refund the stages that already admitted the packet.
                for (j, (tree, l)) in self.stages.iter().zip(label.stages()).take(i).enumerate() {
                    tree.uncount_path_at(l, bits, exec.stripe());
                    if O::ENABLED {
                        obs.on_refund(j as u8, l.leaf().0, bits);
                    }
                }
                return SchedVerdict::Drop;
            }
        }
        SchedVerdict::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::ClassId;
    use crate::sched::{NoObserver, RealExec};
    use crate::tree::{ClassSpec, TreeParams};
    use sim_core::units::BitRate;

    fn tree(root_gbps: f64, leaves: &[u16]) -> Arc<SchedulingTree> {
        let mut specs =
            vec![ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(root_gbps))];
        for &l in leaves {
            specs.push(ClassSpec::new(
                ClassId(l),
                format!("c{l}"),
                Some(ClassId(1)),
            ));
        }
        Arc::new(SchedulingTree::build(specs, TreeParams::default()).expect("tree builds"))
    }

    /// Drives `n` packets of `bits` at fixed `gap`; returns passed count.
    fn drive(chain: &QdiscChain, label: &ChainLabel, bits: u64, gap: Nanos, n: u64) -> u64 {
        let mut exec = RealExec;
        let mut now = Nanos::ZERO;
        let mut passed = 0;
        for _ in 0..n {
            if chain
                .schedule(label, bits, now, &mut exec, &mut NoObserver)
                .passes()
            {
                passed += 1;
            }
            now += gap;
        }
        passed
    }

    #[test]
    fn conforming_traffic_passes_all_stages() {
        let chain = QdiscChain::new(vec![tree(10.0, &[10]), tree(10.0, &[20])]);
        let label = ChainLabel::new(vec![
            chain.stage(0).label(ClassId(10), &[]).unwrap(),
            chain.stage(1).label(ClassId(20), &[]).unwrap(),
        ]);
        // 12 kbit every 2 us = 6 Gbps < both stages' 10 Gbps.
        let passed = drive(&chain, &label, 12_000, Nanos::from_micros(2), 20_000);
        assert_eq!(passed, 20_000);
    }

    #[test]
    fn the_tightest_stage_governs() {
        // Stage 1 allows 10 Gbps, stage 2 caps at 2 Gbps: ~2 Gbps passes.
        let chain = QdiscChain::new(vec![tree(10.0, &[10]), tree(2.0, &[20])]);
        let label = ChainLabel::new(vec![
            chain.stage(0).label(ClassId(10), &[]).unwrap(),
            chain.stage(1).label(ClassId(20), &[]).unwrap(),
        ]);
        let n = 60_000;
        let gap = Nanos::from_micros(2); // 6 Gbps offered
        let passed = drive(&chain, &label, 12_000, gap, n);
        let gbps = passed as f64 * 12_000.0 / (n as f64 * gap.as_nanos() as f64);
        assert!((1.7..2.4).contains(&gbps), "chained rate {gbps} Gbps");
    }

    #[test]
    fn later_stage_drop_refunds_earlier_gamma() {
        // Stage 1 has two classes; class A's traffic is then killed by a
        // tiny stage-2 cap. Without the refund, stage 1 would "see" A
        // consuming 6 Gbps and starve B's residual computation.
        let chain = QdiscChain::new(vec![tree(10.0, &[10, 20]), tree(0.1, &[30])]);
        let a = ChainLabel::new(vec![
            chain.stage(0).label(ClassId(10), &[]).unwrap(),
            chain.stage(1).label(ClassId(30), &[]).unwrap(),
        ]);
        let mut exec = RealExec;
        let mut now = Nanos::ZERO;
        for _ in 0..50_000 {
            let _ = chain.schedule(&a, 12_000, now, &mut exec, &mut NoObserver);
            now += Nanos::from_micros(2);
        }
        // A's Γ in stage 1 reflects only what stage 2 let through (~0.1),
        // not the offered 6 Gbps.
        let gamma_a = chain
            .stage(0)
            .gamma(ClassId(10), now)
            .expect("class exists")
            .as_gbps();
        assert!(gamma_a < 0.5, "refund missing: stage-1 Γ = {gamma_a} Gbps");
    }

    /// Counts the Γ-refunds a thread's packets were issued.
    struct Refunds(u64);

    impl StepObserver for Refunds {
        const ENABLED: bool = true;
        fn on_step(&mut self, _rec: fv_audit::StepRecord) {}
        fn on_refund(&mut self, _stage: u8, _class: u16, _bits: u64) {
            self.0 += 1;
        }
    }

    /// Real threads land on hot-state stripes other than 0, and a refund
    /// must reverse the count on the stripe that took it. Nothing drains
    /// the stripes here (the clock stands still, so no update comes due):
    /// what stage 1 holds at the end, merged and stripe by stripe, is
    /// exactly what the threads saw pass both stages.
    #[test]
    fn refunds_land_on_the_counting_threads_stripe() {
        const THREADS: usize = 4;
        const PKTS: u64 = 10_000;
        const BITS: u64 = 1_000;
        // Stage 1's burst covers every packet; stage 2's covers a handful.
        let chain = QdiscChain::new(vec![tree(400.0, &[10]), tree(0.1, &[30])]);
        let label = ChainLabel::new(vec![
            chain.stage(0).label(ClassId(10), &[]).unwrap(),
            chain.stage(1).label(ClassId(30), &[]).unwrap(),
        ]);
        let start = std::sync::Barrier::new(THREADS);
        // Per thread: (stripe, passed both stages, refunded).
        let tallies: Vec<(usize, u64, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let mut exec = RealExec;
                        let mut refunds = Refunds(0);
                        start.wait();
                        let passed = (0..PKTS)
                            .filter(|_| {
                                chain
                                    .schedule(&label, BITS, Nanos::ZERO, &mut exec, &mut refunds)
                                    .passes()
                            })
                            .count() as u64;
                        (exec.stripe(), passed, refunds.0)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let passed: u64 = tallies.iter().map(|t| t.1).sum();
        let refunded: u64 = tallies.iter().map(|t| t.2).sum();
        assert!(passed > 0, "stage 2 admits its burst");
        for &(stripe, _, refunded) in &tallies {
            assert!(refunded > 0, "the thread on stripe {stripe} saw no refund");
        }

        let stage1 = chain.stage(0).counters(ClassId(10)).unwrap();
        assert_eq!(stage1.forwarded, passed + refunded);
        assert_eq!(stage1.dropped, THREADS as u64 * PKTS - passed - refunded);
        let stage2 = chain.stage(1).counters(ClassId(30)).unwrap();
        assert_eq!((stage2.forwarded, stage2.dropped), (passed, refunded));

        for class in [ClassId(1), ClassId(10)] {
            let held = chain.stage(0).consumed_bits_by_stripe(class);
            let mut want = [0u64; crate::tree::HOT_STRIPES];
            for &(stripe, passed, _) in &tallies {
                want[stripe % want.len()] += passed * BITS;
            }
            assert_eq!(held, want, "class {class:?}: a refund missed its stripe");
            assert_eq!(held.iter().sum::<u64>(), passed * BITS);
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_label_panics() {
        let chain = QdiscChain::new(vec![tree(1.0, &[10])]);
        let label = ChainLabel::new(vec![
            chain.stage(0).label(ClassId(10), &[]).unwrap(),
            chain.stage(0).label(ClassId(10), &[]).unwrap(),
        ]);
        let mut exec = RealExec;
        let _ = chain.schedule(&label, 1, Nanos::ZERO, &mut exec, &mut NoObserver);
    }

    #[test]
    fn accessors() {
        let chain = QdiscChain::new(vec![tree(1.0, &[10])]);
        assert_eq!(chain.len(), 1);
        assert!(!chain.is_empty());
        assert_eq!(chain.stage(0).len(), 2);
    }
}
