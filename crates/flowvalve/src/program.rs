//! The compiled scheduling program: admission chains flattened out of the
//! tree at build/reload time.
//!
//! [`SchedulingTree::schedule`] resolves every class of a label through the
//! tree's id → node table on every packet. A [`CompiledProgram`] pays that
//! resolution once, at *compile* time: each distinct [`QosLabel`] becomes
//! one contiguous **admission chain** — the node indices of its path root →
//! leaf, then of its lenders in label order. [`SchedulingTree::run`]
//! hands a chain to the same admission function `schedule` uses, so steady
//! flows do no per-packet resolution at all: the pipeline resolves each
//! filter verdict's chain when the policy is compiled and keeps the
//! [`ChainId`] in the flow-cache entry, so a packet's one classification
//! probe also yields its chain.
//!
//! There is one admission function, so verdicts, counters and — under a
//! modeled execution environment ([`SimExec`](crate::sched::SimExec)) —
//! charge and lock sequences cannot differ between a chain and its label;
//! `sched.rs`'s tests hold both against a small reference walker.

use std::collections::HashMap;

use crate::error::BuildTreeError;
use crate::label::QosLabel;
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

/// One chain's extent inside the shared node arena: `path_len` path nodes
/// root → leaf from `start`, then `borrow_len` lender nodes in label order.
#[derive(Debug, Clone, Copy)]
struct Chain {
    start: u32,
    path_len: u8,
    borrow_len: u8,
}

/// A scheduling tree flattened into admission chains.
///
/// Compiled against one tree build; [`SchedulingTree::run`] panics or
/// misbehaves if run against a different tree, which is why the pipeline
/// rebuilds program and classifier together on every reload.
#[derive(Debug, Default)]
pub struct CompiledProgram {
    nodes: Vec<u32>,
    chains: Vec<Chain>,
    lookup: HashMap<QosLabel, ChainId>,
    compile_ops: u64,
}

impl CompiledProgram {
    /// Flattens `tree` into admission chains, one per distinct label.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTreeError::UnknownBorrowClass`] for a label naming a
    /// class absent from the tree: running its chain would index a node
    /// that does not exist.
    pub fn compile<'a>(
        tree: &SchedulingTree,
        labels: impl IntoIterator<Item = &'a QosLabel>,
    ) -> Result<Self, BuildTreeError> {
        let mut prog = CompiledProgram::default();
        for label in labels {
            if prog.lookup.contains_key(label) {
                continue;
            }
            let start = prog.nodes.len() as u32;
            for &cid in label.path().iter().chain(label.borrow()) {
                let idx = tree
                    .node_index(cid)
                    .ok_or(BuildTreeError::UnknownBorrowClass(cid))?;
                prog.nodes.push(idx as u32);
            }
            let id = ChainId(prog.chains.len() as u32);
            prog.chains.push(Chain {
                start,
                path_len: label.path().len() as u8,
                borrow_len: label.borrow().len() as u8,
            });
            // Compile work scales with the steps a chain executes: one
            // refresh per path class, the leaf meter, the ceiling meter if
            // the leaf has one, one borrow per lender.
            let ceil = u64::from(tree.node(prog.leaf(id)).ceil_bucket.is_some());
            prog.compile_ops += (prog.nodes.len() as u32 - start) as u64 + 1 + ceil;
            prog.lookup.insert(*label, id);
        }
        Ok(prog)
    }

    /// The chain compiled for `label`, if any.
    pub fn resolve(&self, label: &QosLabel) -> Option<ChainId> {
        self.lookup.get(label).copied()
    }

    /// Total steps flattened — the unit count for the cost model's
    /// `Op::ProgramCompile` charge (compile work scales with chain steps,
    /// not packets).
    pub fn compile_ops(&self) -> u64 {
        self.compile_ops
    }

    /// The chain's path and lender node indices.
    pub(crate) fn parts(&self, id: ChainId) -> (&[u32], &[u32]) {
        let c = self.chains[id.0 as usize];
        let nodes = &self.nodes[c.start as usize..][..(c.path_len + c.borrow_len) as usize];
        nodes.split_at(c.path_len as usize)
    }

    /// Node index of the chain's leaf class, the last of its path.
    pub(crate) fn leaf(&self, id: ChainId) -> usize {
        let c = self.chains[id.0 as usize];
        self.nodes[c.start as usize + c.path_len as usize - 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::ClassId;
    use crate::tree::{ClassSpec, TreeParams};
    use sim_core::time::Nanos;
    use sim_core::units::BitRate;

    fn tree() -> SchedulingTree {
        SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(BitRate::from_gbps(10.0)),
                ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
                ClassSpec {
                    ceil: Some(BitRate::from_gbps(4.0)),
                    ..ClassSpec::new(ClassId(20), "b", Some(ClassId(1)))
                },
            ],
            TreeParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn compile_flattens_paths_and_lenders() {
        let t = tree();
        let idx = |c| t.node_index(ClassId(c)).unwrap() as u32;
        let la = t.label(ClassId(10), &[ClassId(20)]).unwrap();
        let lb = t.label(ClassId(20), &[]).unwrap();
        let prog = CompiledProgram::compile(&t, [&la, &lb]).unwrap();
        assert_eq!(prog.chains.len(), 2);
        let (path, lenders) = prog.parts(prog.resolve(&la).unwrap());
        assert_eq!(path, [idx(1), idx(10)]);
        assert_eq!(lenders, [idx(20)]);
        let (path, lenders) = prog.parts(prog.resolve(&lb).unwrap());
        assert_eq!(path, [idx(1), idx(20)]);
        assert!(lenders.is_empty());
        // Compile work is the executed-step total: a's two refreshes, leaf
        // meter and one borrow; b's two refreshes, leaf and ceiling meters.
        assert_eq!(prog.compile_ops(), (2 + 1 + 1) + (2 + 1 + 1));
    }

    #[test]
    fn duplicate_labels_collapse_and_foreign_labels_are_refused() {
        let t = tree();
        let la = t.label(ClassId(10), &[]).unwrap();
        let prog = CompiledProgram::compile(&t, [&la, &la]).unwrap();
        assert_eq!(prog.chains.len(), 1);
        for foreign in [
            QosLabel::new(&[ClassId(7), ClassId(77)], &[]),
            QosLabel::new(&[ClassId(1), ClassId(10)], &[ClassId(99)]),
        ] {
            assert!(prog.resolve(&foreign).is_none());
            assert!(matches!(
                CompiledProgram::compile(&t, [&la, &foreign]),
                Err(BuildTreeError::UnknownBorrowClass(ClassId(7 | 99)))
            ));
        }
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
