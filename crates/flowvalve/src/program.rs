//! The compiled scheduling program: admission chains flattened out of the
//! tree at build/reload time.
//!
//! [`SchedulingTree::schedule`] resolves every class of a label through the
//! id → node hash index on every packet — seven-odd SipHash lookups per
//! verdict. A [`CompiledProgram`] pays that resolution once, at *compile*
//! time: each distinct [`QosLabel`] becomes one contiguous **admission
//! chain** — an array of [`ChainStep`]s (node index, bucket slab index,
//! condition template, parent link) in exact evaluation order. Steady
//! flows then execute only the chain's token test-and-add sequence with
//! zero tree traversal: the pipeline resolves each filter verdict's chain
//! when the policy is compiled and keeps the [`ChainId`] in the flow-cache
//! entry, so a packet's one classification probe also yields its chain.
//!
//! The interpreted walker stays as the differential oracle — the same
//! pattern as the calendar-vs-heap `QueueBackend` split: a property test
//! (`tests/compiled_oracle.rs`) drives both on identical traffic and
//! proves verdict-for-verdict identity across reconfigs, borrow
//! transitions and expired-status removal.
//!
//! Under a modeled execution environment ([`SimExec`](crate::sched::SimExec))
//! the chain reproduces the interpreted walker's charge sequence and lock
//! interactions instruction for instruction, so every virtual-time figure
//! is byte-identical whichever path produced it. The wall-clock win comes
//! from the software side: no hashing, and — where the environment permits
//! ([`Exec::elide_idle_updates`]) — no lock traffic for classes still
//! inside their minimum update interval.

use std::collections::HashMap;

use fv_audit::{NoObserver, StepKind, StepObserver, StepRecord};
use np_sim::cost::Op;
use sim_core::fixed::Tokens;
use sim_core::time::Nanos;

use crate::bucket::Color;
use crate::label::QosLabel;
use crate::sched::{Exec, LockKind, SchedVerdict};
use crate::tree::SchedulingTree;

/// Identifier of one compiled admission chain within a [`CompiledProgram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChainId(u32);

impl ChainId {
    /// The chain's index within its program (provenance records).
    pub fn index(&self) -> u32 {
        self.0
    }
}

/// Condition template of one [`ChainStep`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepOp {
    /// Guarded refresh of a path class's buckets (Subprocedure 1).
    Update,
    /// Wait-free meter on the leaf's own budget.
    MeterLeaf,
    /// Conformance check against the leaf's ceiling bucket.
    MeterCeil,
    /// Guarded shadow refresh + meter on one lender (Subprocedure 2).
    Borrow,
}

/// Marks a chain step with no parent (the root of the path).
pub(crate) const NO_PARENT: i32 = -1;

/// One instruction of an admission chain: which node, which bucket in the
/// tree's flat slab, which condition template, and the parent link (index
/// of the parent class's step within the same chain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChainStep {
    pub(crate) node: u32,
    pub(crate) bucket: u32,
    pub(crate) op: StepOp,
    pub(crate) parent: i32,
}

/// One chain's extent inside the shared step arena. Layout within
/// `start..`: `path_len` [`StepOp::Update`] steps root→leaf, one
/// [`StepOp::MeterLeaf`], an optional [`StepOp::MeterCeil`], then
/// `borrow_len` [`StepOp::Borrow`] steps in label order.
#[derive(Debug, Clone, Copy)]
struct Chain {
    start: u32,
    path_len: u8,
    has_ceil: bool,
    borrow_len: u8,
}

/// A scheduling tree flattened into admission chains.
///
/// Compiled against one tree build; [`SchedulingTree::schedule_compiled`]
/// panics (debug) or misbehaves if run against a different tree, which is
/// why the pipeline rebuilds program and classifier together on every
/// reload.
#[derive(Debug)]
pub struct CompiledProgram {
    steps: Vec<ChainStep>,
    chains: Vec<Chain>,
    lookup: HashMap<QosLabel, ChainId>,
    compile_ops: u64,
}

impl CompiledProgram {
    /// Flattens `tree` into admission chains, one per distinct label.
    /// Labels referencing classes absent from the tree are skipped (they
    /// resolve to `None` and the caller falls back to the interpreted
    /// walker).
    pub fn compile<'a>(
        tree: &SchedulingTree,
        labels: impl IntoIterator<Item = &'a QosLabel>,
    ) -> Self {
        let mut prog = CompiledProgram {
            steps: Vec::new(),
            chains: Vec::new(),
            lookup: HashMap::new(),
            compile_ops: 0,
        };
        for label in labels {
            prog.add_chain(tree, label);
        }
        prog
    }

    fn add_chain(&mut self, tree: &SchedulingTree, label: &QosLabel) -> Option<ChainId> {
        if let Some(&id) = self.lookup.get(label) {
            return Some(id);
        }
        // Resolve every class up front; an unresolvable label compiles to
        // nothing rather than a partial chain.
        let path: Vec<usize> = label
            .path()
            .iter()
            .map(|&cid| tree.node_index(cid))
            .collect::<Option<_>>()?;
        let lenders: Vec<usize> = label
            .borrow()
            .iter()
            .map(|&cid| tree.node_index(cid))
            .collect::<Option<_>>()?;

        let start = self.steps.len() as u32;
        let mut parent = NO_PARENT;
        for (i, &idx) in path.iter().enumerate() {
            self.steps.push(ChainStep {
                node: idx as u32,
                bucket: tree.node(idx).bucket,
                op: StepOp::Update,
                parent,
            });
            parent = i as i32;
        }
        let leaf = *path.last().expect("labels are never empty");
        let leaf_step = (path.len() - 1) as i32;
        self.steps.push(ChainStep {
            node: leaf as u32,
            bucket: tree.node(leaf).bucket,
            op: StepOp::MeterLeaf,
            parent: leaf_step,
        });
        let has_ceil = match tree.node(leaf).ceil_bucket {
            Some(ci) => {
                self.steps.push(ChainStep {
                    node: leaf as u32,
                    bucket: ci,
                    op: StepOp::MeterCeil,
                    parent: leaf_step,
                });
                true
            }
            None => false,
        };
        for &lidx in &lenders {
            self.steps.push(ChainStep {
                node: lidx as u32,
                bucket: tree.node(lidx).shadow,
                op: StepOp::Borrow,
                parent: leaf_step,
            });
        }

        let id = ChainId(self.chains.len() as u32);
        self.chains.push(Chain {
            start,
            path_len: path.len() as u8,
            has_ceil,
            borrow_len: lenders.len() as u8,
        });
        self.compile_ops += (self.steps.len() as u32 - start) as u64;
        self.lookup.insert(*label, id);
        Some(id)
    }

    /// The chain compiled for `label`, if any.
    pub fn resolve(&self, label: &QosLabel) -> Option<ChainId> {
        self.lookup.get(label).copied()
    }

    /// Number of compiled chains.
    pub fn chains(&self) -> usize {
        self.chains.len()
    }

    /// Total steps flattened — the unit count for the cost model's
    /// `Op::ProgramCompile` charge (compile work scales with chain steps,
    /// not packets).
    pub fn compile_ops(&self) -> u64 {
        self.compile_ops
    }

    fn parts(&self, id: ChainId) -> (&[ChainStep], Option<&ChainStep>, &[ChainStep]) {
        let c = self.chains[id.0 as usize];
        let start = c.start as usize;
        let path_len = c.path_len as usize;
        let updates = &self.steps[start..start + path_len];
        let mut cursor = start + path_len + 1; // skip MeterLeaf
        let ceil = if c.has_ceil {
            cursor += 1;
            Some(&self.steps[cursor - 1])
        } else {
            None
        };
        let borrows = &self.steps[cursor..cursor + c.borrow_len as usize];
        (updates, ceil, borrows)
    }
}

impl SchedulingTree {
    /// Runs the scheduling function for one packet through a compiled
    /// admission chain. Verdicts, counter effects and — under a modeled
    /// [`Exec`] — charge/lock sequences are identical to
    /// [`SchedulingTree::schedule`] with the chain's label; the chain just
    /// skips the per-packet id → node resolution (and, where
    /// [`Exec::elide_idle_updates`] allows, the lock traffic of classes
    /// inside their minimum update interval).
    ///
    /// # Panics
    ///
    /// Panics if `chain` indexes a program compiled against a different
    /// tree with more classes; a same-shaped foreign program silently
    /// corrupts verdicts — callers must recompile on reload.
    pub fn schedule_compiled<E: Exec>(
        &self,
        prog: &CompiledProgram,
        chain: ChainId,
        bits: u64,
        now: Nanos,
        exec: &mut E,
    ) -> SchedVerdict {
        self.schedule_compiled_observed(prog, chain, bits, now, exec, &mut NoObserver)
    }

    /// [`SchedulingTree::schedule_compiled`] with provenance capture: the
    /// same single walk, with `obs` told about every executed chain step
    /// (bucket tokens before/after, token test color) and the verdict's
    /// deciding step derivable from the step list. With
    /// [`NoObserver`] (`O::ENABLED == false`) every capture branch is
    /// erased at monomorphization, which is how the production
    /// `schedule_compiled` wrapper keeps its cost.
    pub fn schedule_compiled_observed<E: Exec, O: StepObserver>(
        &self,
        prog: &CompiledProgram,
        chain: ChainId,
        bits: u64,
        now: Nanos,
        exec: &mut E,
        obs: &mut O,
    ) -> SchedVerdict {
        let (updates, ceil, borrows) = prog.parts(chain);
        let need = Tokens::from_bits(bits);
        let need_raw = need.raw() as i64;
        let elide = exec.elide_idle_updates();
        let stripe = exec.stripe();

        // Lines 1-5: refresh token buckets root→leaf, then mark every
        // class on the path touched (drives expiry).
        for s in updates {
            let before = if O::ENABLED {
                self.slab_bucket(s.bucket).raw()
            } else {
                0
            };
            if !elide || self.update_due(s.node as usize, false, now) {
                exec.charge(Op::LockOp);
                exec.locked_update(self, s.node as usize, LockKind::Class, now);
            }
            exec.charge(Op::AtomicOp);
            if O::ENABLED {
                obs.on_step(StepRecord {
                    stage: 0,
                    kind: StepKind::Update,
                    class: self.node(s.node as usize).spec.id.0,
                    bucket: s.bucket,
                    need: 0,
                    before,
                    after: self.slab_bucket(s.bucket).raw(),
                    green: true,
                });
            }
        }
        for s in updates {
            self.node(s.node as usize).touch(stripe, now.as_nanos());
        }

        // Lines 6-8: the leaf meter throttles the flow.
        let leaf_step = updates.last().expect("chains have a path");
        let leaf = self.node(leaf_step.node as usize);
        exec.charge(Op::AtomicOp);
        let lb = self.slab_bucket(leaf_step.bucket);
        let leaf_before = if O::ENABLED { lb.raw() } else { 0 };
        let leaf_green = exec.meter_bucket(self, leaf_step.bucket, need) == Color::Green;
        if O::ENABLED {
            obs.on_step(StepRecord {
                stage: 0,
                kind: StepKind::MeterLeaf,
                class: leaf.spec.id.0,
                bucket: leaf_step.bucket,
                need: need_raw,
                before: leaf_before,
                after: lb.raw(),
                green: leaf_green,
            });
        }
        if leaf_green {
            if let Some(cs) = ceil {
                exec.charge(Op::AtomicOp);
                let cb = self.slab_bucket(cs.bucket);
                let before = if O::ENABLED { cb.raw() } else { 0 };
                let green = exec.meter_bucket(self, cs.bucket, need) == Color::Green;
                if O::ENABLED {
                    obs.on_step(StepRecord {
                        stage: 0,
                        kind: StepKind::MeterCeil,
                        class: leaf.spec.id.0,
                        bucket: cs.bucket,
                        need: need_raw,
                        before,
                        after: cb.raw(),
                        green,
                    });
                }
                if !green {
                    leaf.add_dropped(stripe, 1);
                    return SchedVerdict::Drop;
                }
            }
            self.count_steps(updates, bits, stripe, exec);
            leaf.add_forwarded(stripe, 1);
            return SchedVerdict::Forward;
        }

        // Lines 9-15: borrowing, still bounded by the leaf's own ceiling.
        if let Some(cs) = ceil {
            exec.charge(Op::AtomicOp);
            let cb = self.slab_bucket(cs.bucket);
            let before = if O::ENABLED { cb.raw() } else { 0 };
            let green = exec.meter_bucket(self, cs.bucket, need) == Color::Green;
            if O::ENABLED {
                obs.on_step(StepRecord {
                    stage: 0,
                    kind: StepKind::MeterCeil,
                    class: leaf.spec.id.0,
                    bucket: cs.bucket,
                    need: need_raw,
                    before,
                    after: cb.raw(),
                    green,
                });
            }
            if !green {
                leaf.add_dropped(stripe, 1);
                return SchedVerdict::Drop;
            }
        }
        for s in borrows {
            if !elide || self.update_due(s.node as usize, true, now) {
                exec.charge(Op::LockOp);
                exec.locked_update(self, s.node as usize, LockKind::Shadow, now);
            }
            exec.charge(Op::AtomicOp);
            let sb = self.slab_bucket(s.bucket);
            let before = if O::ENABLED { sb.raw() } else { 0 };
            let green = sb.meter(need) == Color::Green;
            if O::ENABLED {
                obs.on_step(StepRecord {
                    stage: 0,
                    kind: StepKind::Borrow,
                    class: self.node(s.node as usize).spec.id.0,
                    bucket: s.bucket,
                    need: need_raw,
                    before,
                    after: sb.raw(),
                    green,
                });
            }
            if green {
                let lnode = self.node(s.node as usize);
                self.count_steps(updates, bits, stripe, exec);
                lnode.add_lent(stripe, 1);
                leaf.add_borrowed(stripe, 1);
                return SchedVerdict::Borrowed(lnode.spec.id);
            }
        }

        // Line 16.
        leaf.add_dropped(stripe, 1);
        SchedVerdict::Drop
    }

    /// `count_path` + `charge_path` over precompiled path steps.
    fn count_steps<E: Exec>(&self, updates: &[ChainStep], bits: u64, stripe: usize, exec: &mut E) {
        for s in updates {
            self.node(s.node as usize).add_consumed(stripe, bits);
            exec.charge(Op::AtomicOp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::ClassId;
    use crate::sched::RealExec;
    use crate::tree::{ClassSpec, TreeParams};
    use sim_core::units::BitRate;

    fn tree() -> SchedulingTree {
        SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(10.0)),
                ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
                ClassSpec::new(ClassId(20), "b", Some(ClassId(1))).ceil(BitRate::from_gbps(4.0)),
            ],
            TreeParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn compile_flattens_paths_ceilings_and_lenders() {
        let t = tree();
        let la = t.label(ClassId(10), &[ClassId(20)]).unwrap();
        let lb = t.label(ClassId(20), &[]).unwrap();
        let prog = CompiledProgram::compile(&t, [&la, &lb]);
        assert_eq!(prog.chains(), 2);
        let (upd, ceil, bor) = prog.parts(prog.resolve(&la).unwrap());
        assert_eq!(upd.len(), 2);
        assert_eq!(upd[0].parent, NO_PARENT);
        assert_eq!(upd[1].parent, 0);
        assert!(ceil.is_none(), "a has no ceiling");
        assert_eq!(bor.len(), 1);
        assert_eq!(bor[0].op, StepOp::Borrow);
        let (_, ceil_b, bor_b) = prog.parts(prog.resolve(&lb).unwrap());
        assert!(ceil_b.is_some(), "b is ceiled");
        assert!(bor_b.is_empty());
        // Compile work is the flattened step total: (2+1+1) + (2+1+1).
        assert_eq!(prog.compile_ops(), 8);
    }

    #[test]
    fn duplicate_and_foreign_labels() {
        let t = tree();
        let la = t.label(ClassId(10), &[]).unwrap();
        let foreign = QosLabel::new(&[ClassId(7), ClassId(77)], &[]);
        let prog = CompiledProgram::compile(&t, [&la, &la, &foreign]);
        assert_eq!(prog.chains(), 1, "duplicates collapse, foreign skipped");
        assert!(prog.resolve(&foreign).is_none());
    }

    #[test]
    fn compiled_matches_interpreted_on_a_burst() {
        let a = tree();
        let b = tree();
        let label = a.label(ClassId(10), &[ClassId(20)]).unwrap();
        let prog = CompiledProgram::compile(&b, [&label]);
        let chain = prog.resolve(&label).unwrap();
        let mut now = Nanos::ZERO;
        for i in 0..50_000u64 {
            // ~12 Gbps offered against a 5 Gbps share: all verdict kinds.
            now += Nanos::from_nanos(1_000);
            let bits = 12_000 + (i % 3) * 1_500;
            let vi = a.schedule(&label, bits, now, &mut RealExec);
            let vc = b.schedule_compiled(&prog, chain, bits, now, &mut RealExec);
            assert_eq!(vi, vc, "packet {i} diverged");
        }
        assert_eq!(
            a.counters(ClassId(10)).unwrap(),
            b.counters(ClassId(10)).unwrap()
        );
        assert_eq!(
            a.counters(ClassId(20)).unwrap(),
            b.counters(ClassId(20)).unwrap()
        );
    }

    #[test]
    fn epoch_advances_on_update_and_shadow_rolls() {
        let t = tree();
        let idx = t.node_index(ClassId(10)).unwrap();
        let e0 = t.epoch();
        assert!(t.update_node(idx, Nanos::from_micros(100)));
        assert!(t.epoch() > e0, "update epoch must bump the counter");
        let e1 = t.epoch();
        // Within the interval floor: no epoch, no bump.
        assert!(!t.update_node(idx, Nanos::from_micros(120)));
        assert_eq!(t.epoch(), e1);
        assert!(t.update_shadow(idx, Nanos::from_micros(200)));
        assert!(t.epoch() > e1, "shadow epoch must bump the counter");
    }
}
