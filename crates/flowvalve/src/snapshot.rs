//! Point-in-time snapshots of a scheduling tree's runtime state.
//!
//! A consistent read of every class's configured policy, published rate
//! θ, measured rate Γ, and data-path counters, gathered with plain atomic
//! loads — the same wait-free reads the data plane uses. Test-only: it is
//! the whole-tree equality probe of the scheduling engine's differential
//! test (`sched::tests::admit_matches_reference_on_random_trees`), which
//! compares two trees snapshot for snapshot (DESIGN.md §17).

use sim_core::time::Nanos;
use sim_core::units::BitRate;

use crate::label::ClassId;
use crate::tree::{ClassCounters, SchedulingTree};

/// One class's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSnapshot {
    /// Class id.
    pub id: ClassId,
    /// Display name.
    pub name: String,
    /// Parent class (`None` for the root).
    pub parent: Option<ClassId>,
    /// Configured priority.
    pub prio: u8,
    /// Configured weight.
    pub weight: u32,
    /// Configured guarantee, if any.
    pub rate: Option<BitRate>,
    /// Configured ceiling, if any.
    pub ceil: Option<BitRate>,
    /// Published token rate θ.
    pub theta: BitRate,
    /// Measured consumption rate Γ (expiry-adjusted at snapshot time).
    pub gamma: BitRate,
    /// Whether the class was active (non-expired) at snapshot time.
    pub active: bool,
    /// Data-path counters.
    pub counters: ClassCounters,
}

/// A whole-tree snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeSnapshot {
    /// Snapshot instant.
    pub at: Nanos,
    /// Per-class state, root first in depth order.
    pub classes: Vec<ClassSnapshot>,
}

impl TreeSnapshot {
    /// Captures the tree's state at `now`.
    pub fn capture(tree: &SchedulingTree, now: Nanos) -> Self {
        let classes = tree
            .class_ids()
            .into_iter()
            .map(|id| {
                let spec = tree.spec(id).expect("listed class exists");
                ClassSnapshot {
                    id,
                    name: spec.name.clone(),
                    parent: spec.parent,
                    prio: spec.prio,
                    weight: spec.weight,
                    rate: spec.rate,
                    ceil: spec.ceil,
                    theta: tree.theta(id).expect("listed class exists"),
                    gamma: tree.gamma(id, now).expect("listed class exists"),
                    active: tree.gamma(id, now).expect("exists") > BitRate::ZERO
                        || tree
                            .counters(id)
                            .map(|c| c.forwarded + c.borrowed > 0)
                            .unwrap_or(false),
                    counters: tree.counters(id).unwrap_or_default(),
                }
            })
            .collect();
        TreeSnapshot { at: now, classes }
    }

    /// Looks up one class by id.
    pub fn class(&self, id: ClassId) -> Option<&ClassSnapshot> {
        self.classes.iter().find(|c| c.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::RealExec;
    use crate::tree::{ClassSpec, TreeParams};

    fn tree() -> SchedulingTree {
        SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(2.0)),
                ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
                ClassSpec {
                    ceil: Some(BitRate::from_gbps(1.0)),
                    ..ClassSpec::new(ClassId(20), "b", Some(ClassId(1)))
                },
            ],
            TreeParams::default(),
        )
        .expect("tree builds")
    }

    #[test]
    fn capture_reflects_config_and_runtime() {
        let t = tree();
        let label = t.label(ClassId(10), &[]).expect("leaf exists");
        let mut exec = RealExec;
        let mut now = Nanos::ZERO;
        for _ in 0..2_000 {
            now += Nanos::from_micros(2);
            let _ = t.schedule(&label, 12_000, now, &mut exec);
        }
        let snap = TreeSnapshot::capture(&t, now);
        assert_eq!(snap.classes.len(), 3);
        let a = snap.class(ClassId(10)).expect("present");
        assert!(a.active);
        assert!(a.counters.forwarded > 0);
        assert!(a.gamma > BitRate::ZERO);
        let b = snap.class(ClassId(20)).expect("present");
        assert_eq!(b.ceil, Some(BitRate::from_gbps(1.0)));
        assert!(!b.active);
        assert_eq!(b.counters.forwarded + b.counters.dropped, 0);
    }
}
