//! Cycle-cost metering for the run-to-completion processing path.
//!
//! Every stage that touches a packet charges instruction cycles to a
//! [`CostMeter`]; the worker-pool model turns the accumulated total into
//! service time. Keeping the meter explicit (rather than burying constants
//! in the pipeline) is what makes the Figure 13 ablations possible: the
//! same scheduling code can be re-costed under different hardware
//! assumptions.

use std::sync::Arc;

use fv_telemetry::Counter;
use sim_core::time::Cycles;

use crate::config::CycleCosts;

/// A processing operation with a configured cycle cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Header parsing and metadata setup.
    Parse,
    /// Flow-cache hit lookup.
    ClassifyHit,
    /// Flow-cache miss: filter walk + insert.
    ClassifyMiss,
    /// One atomic meter/counter operation.
    AtomicOp,
    /// One guarded class update (token refill + rate recomputation).
    ClassUpdate,
    /// One lock acquire/release pair (uncontended cost).
    LockOp,
    /// Traffic-manager enqueue descriptor work.
    TxEnqueue,
    /// Base forwarding work common to every packet.
    ForwardBase,
    /// Flattening one admission-chain step at policy (re)compile time —
    /// the control-plane work the compiled scheduling program pays so the
    /// per-packet path does not walk the tree.
    ProgramCompile,
}

impl Op {
    /// Every operation, in the order [`CycleAttr::cells`] lists them.
    pub const ALL: [Op; 9] = [
        Op::Parse,
        Op::ClassifyHit,
        Op::ClassifyMiss,
        Op::AtomicOp,
        Op::ClassUpdate,
        Op::LockOp,
        Op::TxEnqueue,
        Op::ForwardBase,
        Op::ProgramCompile,
    ];

    /// Stable lowercase name (the leaf frame in folded profile stacks).
    pub fn name(&self) -> &'static str {
        match self {
            Op::Parse => "parse",
            Op::ClassifyHit => "classify_hit",
            Op::ClassifyMiss => "classify_miss",
            Op::AtomicOp => "atomic_op",
            Op::ClassUpdate => "class_update",
            Op::LockOp => "lock_op",
            Op::TxEnqueue => "tx_enqueue",
            Op::ForwardBase => "forward_base",
            Op::ProgramCompile => "program_compile",
        }
    }

    /// The pipeline phase every charge of this operation belongs to.
    fn stage(self) -> AttrStage {
        match self {
            Op::Parse | Op::ForwardBase => AttrStage::Parse,
            Op::ClassifyHit | Op::ClassifyMiss => AttrStage::Classify,
            Op::AtomicOp | Op::ClassUpdate | Op::LockOp | Op::ProgramCompile => AttrStage::Sched,
            Op::TxEnqueue => AttrStage::TxEnqueue,
        }
    }

    fn index(self) -> usize {
        match self {
            Op::Parse => 0,
            Op::ClassifyHit => 1,
            Op::ClassifyMiss => 2,
            Op::AtomicOp => 3,
            Op::ClassUpdate => 4,
            Op::LockOp => 5,
            Op::TxEnqueue => 6,
            Op::ForwardBase => 7,
            Op::ProgramCompile => 8,
        }
    }
}

/// The pipeline phase a charge is attributed to — the middle frame of the
/// `nic;me<worker>;<phase>;<op>` profile stacks. An [`Op`] names its own;
/// a raw [`CostMeter::charge_cycles`] amount names it at the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrStage {
    /// Header parse + base forwarding work.
    Parse = 0,
    /// The labeling function (flow classification).
    Classify = 1,
    /// The scheduling function (token grabs, guarded updates, locks).
    Sched = 2,
    /// Traffic-manager enqueue descriptor work.
    TxEnqueue = 3,
    /// Extra cycles charged by an injected fault (cpu_burn windows).
    Fault = 4,
}

/// All attribution phases, in discriminant order.
pub const ATTR_STAGES: [AttrStage; 5] = [
    AttrStage::Parse,
    AttrStage::Classify,
    AttrStage::Sched,
    AttrStage::TxEnqueue,
    AttrStage::Fault,
];

impl AttrStage {
    /// Stable lowercase name (the phase frame in folded stacks).
    pub fn name(&self) -> &'static str {
        match self {
            AttrStage::Parse => "parse",
            AttrStage::Classify => "classify",
            AttrStage::Sched => "sched",
            AttrStage::TxEnqueue => "tx_enqueue",
            AttrStage::Fault => "fault",
        }
    }
}

/// Raw `charge_cycles` amounts have no [`Op`]; they get this extra slot.
const RAW_OP: usize = Op::ALL.len();
const OP_SLOTS: usize = RAW_OP + 1;

/// One non-zero cell of a [`CycleAttr`] profile: the cycles (and charge
/// count) one worker spent in one `(phase, op)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrCell {
    /// Micro-engine index.
    pub worker: usize,
    /// Pipeline phase.
    pub stage: AttrStage,
    /// The charged operation, or `None` for raw `charge_cycles` amounts.
    pub op: Option<Op>,
    /// Total cycles charged into this cell.
    pub cycles: u64,
    /// Number of charge operations folded into this cell.
    pub count: u64,
}

impl AttrCell {
    /// The leaf frame name: the op's name, or `"raw"` for untyped charges.
    pub fn op_name(&self) -> &'static str {
        self.op.map(|o| o.name()).unwrap_or("raw")
    }
}

/// A stage × op × worker cycle-attribution array: the weighted call tree
/// behind `fv profile`.
///
/// Attached to a [`CostMeter`] ([`CostMeter::attach_attr`]), every charge
/// folds into the cell addressed by its phase, its op and the meter's
/// worker. Cells are [`Counter`]s so the array can be shared (`Arc`)
/// between the one meter that writes it and the reporting side that reads
/// it; under the single-threaded discrete-event simulation the folding
/// order is deterministic, so the same seed yields a byte-identical
/// profile.
pub struct CycleAttr {
    workers: usize,
    cycles: Vec<Counter>,
    counts: Vec<Counter>,
}

impl CycleAttr {
    /// Creates an attribution array for `workers` micro-engines (plus one
    /// overflow row for charges with no worker context).
    pub fn new(workers: usize) -> Self {
        let slots = ATTR_STAGES.len() * OP_SLOTS * (workers + 1);
        CycleAttr {
            workers,
            cycles: (0..slots).map(|_| Counter::new()).collect(),
            counts: (0..slots).map(|_| Counter::new()).collect(),
        }
    }

    /// Number of worker rows (excluding the overflow row).
    pub fn workers(&self) -> usize {
        self.workers
    }

    #[inline]
    fn slot(&self, stage: usize, op: usize, worker: usize) -> usize {
        let w = worker.min(self.workers);
        (w * ATTR_STAGES.len() + stage) * OP_SLOTS + op
    }

    /// Single-writer adds: the one writer is the [`CostMeter`] the array
    /// is attached to, charging from behind its `&mut self`. Inline with
    /// `slot`, like the charge that calls it: a charge whose fast path is
    /// folded into its caller would otherwise pay an out-of-line call per
    /// charge as soon as an array is attached, and the attached run would
    /// pay for the call the unattached one saved.
    #[inline]
    fn record(&self, stage: usize, op: usize, worker: usize, cycles: u64, n: u64) {
        let i = self.slot(stage, op, worker);
        self.cycles[i].add_single_writer(cycles);
        self.counts[i].add_single_writer(n);
    }

    /// Total cycles attributed across all cells.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().map(Counter::total).sum()
    }

    /// Every non-zero cell, ordered by `(worker, stage, op)` — a
    /// deterministic order so exports are byte-stable.
    pub fn cells(&self) -> Vec<AttrCell> {
        let mut out = Vec::new();
        for worker in 0..=self.workers {
            for (si, stage) in ATTR_STAGES.iter().enumerate() {
                for op in 0..OP_SLOTS {
                    let i = (worker * ATTR_STAGES.len() + si) * OP_SLOTS + op;
                    let cycles = self.cycles[i].total();
                    let count = self.counts[i].total();
                    if cycles == 0 && count == 0 {
                        continue;
                    }
                    out.push(AttrCell {
                        worker,
                        stage: *stage,
                        op: Op::ALL.get(op).copied(),
                        cycles,
                        count,
                    });
                }
            }
        }
        out
    }
}

impl core::fmt::Debug for CycleAttr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CycleAttr")
            .field("workers", &self.workers)
            .field("total_cycles", &self.total_cycles())
            .finish_non_exhaustive()
    }
}

/// Accumulates instruction cycles charged while processing one packet.
///
/// # Example
///
/// ```
/// use np_sim::config::CycleCosts;
/// use np_sim::cost::{CostMeter, Op};
///
/// let mut m = CostMeter::new(CycleCosts::agilio());
/// m.charge(Op::Parse);
/// m.charge_n(Op::AtomicOp, 3);
/// assert_eq!(m.total().get(), 260 + 3 * 40);
/// ```
#[derive(Debug, Clone)]
pub struct CostMeter {
    costs: CycleCosts,
    total: Cycles,
    attr: Option<Arc<CycleAttr>>,
    /// [`NO_WORKER`] until [`CostMeter::set_worker`] names an engine.
    worker: usize,
}

/// The worker a meter charges to before any is set: past every real
/// engine of any NIC, so its charges take [`CycleAttr`]'s overflow row.
const NO_WORKER: usize = usize::MAX;

impl CostMeter {
    /// Creates a meter with the given cost table.
    pub fn new(costs: CycleCosts) -> Self {
        CostMeter {
            costs,
            total: Cycles::ZERO,
            attr: None,
            worker: NO_WORKER,
        }
    }

    /// Attaches a shared attribution array; subsequent charges fold into
    /// it under the meter's current worker. One meter per array: its cells
    /// take single-writer adds.
    pub fn attach_attr(&mut self, attr: Arc<CycleAttr>) {
        self.attr = Some(attr);
    }

    /// Sets the micro-engine subsequent charges are attributed to.
    #[inline]
    pub fn set_worker(&mut self, worker: usize) {
        self.worker = worker;
    }

    /// The micro-engine charges are currently attributed to (`usize::MAX`
    /// when no worker context was set). Doubles as the per-worker stripe
    /// hint for striped hot state — striped consumers mask it, so the
    /// no-context sentinel is safe there too.
    #[inline]
    pub fn worker(&self) -> usize {
        self.worker
    }

    #[inline(always)]
    fn cost_of(&self, op: Op) -> u64 {
        match op {
            Op::Parse => self.costs.parse,
            Op::ClassifyHit => self.costs.classify_hit,
            Op::ClassifyMiss => self.costs.classify_miss,
            Op::AtomicOp => self.costs.atomic_op,
            Op::ClassUpdate => self.costs.class_update,
            Op::LockOp => self.costs.lock_op,
            Op::TxEnqueue => self.costs.tx_enqueue,
            Op::ForwardBase => self.costs.forward_base,
            Op::ProgramCompile => self.costs.program_compile,
        }
    }

    /// Charges one operation.
    #[inline(always)]
    pub fn charge(&mut self, op: Op) {
        self.charge_n(op, 1);
    }

    /// Charges `n` repetitions of an operation. Always inlined, so a
    /// caller's run of constant-op charges folds into its own code (with
    /// plain `#[inline]` the compiler kept one local copy and called it
    /// per charge), the attached branch's [`CycleAttr`] fold included.
    #[inline(always)]
    pub fn charge_n(&mut self, op: Op, n: u64) {
        let cycles = self.cost_of(op) * n;
        self.total += Cycles::new(cycles);
        if let Some(attr) = &self.attr {
            attr.record(op.stage() as usize, op.index(), self.worker, cycles, n);
        }
    }

    /// Charges a raw cycle amount (for costs not in the table) to `stage`.
    pub fn charge_cycles(&mut self, stage: AttrStage, c: Cycles) {
        self.total += c;
        if c > Cycles::ZERO {
            if let Some(attr) = &self.attr {
                attr.record(stage as usize, RAW_OP, self.worker, c.get(), 1);
            }
        }
    }

    /// Total cycles charged so far.
    pub fn total(&self) -> Cycles {
        self.total
    }

    /// Resets the meter for the next packet, keeping the cost table.
    pub fn reset(&mut self) {
        self.total = Cycles::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let mut m = CostMeter::new(CycleCosts::agilio());
        m.charge(Op::Parse);
        m.charge(Op::ClassifyHit);
        m.charge(Op::ForwardBase);
        let c = CycleCosts::agilio();
        assert_eq!(m.total().get(), c.parse + c.classify_hit + c.forward_base);
    }

    #[test]
    fn charge_n_multiplies() {
        let mut m = CostMeter::new(CycleCosts::agilio());
        m.charge_n(Op::ClassUpdate, 4);
        assert_eq!(m.total().get(), 4 * 260);
    }

    #[test]
    fn raw_cycles_and_reset() {
        let mut m = CostMeter::new(CycleCosts::agilio());
        m.charge_cycles(AttrStage::Fault, Cycles::new(123));
        assert_eq!(m.total().get(), 123);
        m.reset();
        assert_eq!(m.total(), Cycles::ZERO);
    }

    #[test]
    fn attached_attr_folds_charges_by_stage_op_worker() {
        let attr = Arc::new(CycleAttr::new(4));
        let mut m = CostMeter::new(CycleCosts::agilio());
        m.attach_attr(Arc::clone(&attr));
        m.set_worker(2);
        m.charge(Op::Parse);
        m.charge_n(Op::AtomicOp, 3);
        m.charge_cycles(AttrStage::Sched, Cycles::new(50));

        let c = CycleCosts::agilio();
        assert_eq!(attr.total_cycles(), c.parse + 3 * c.atomic_op + 50);
        let cells = attr.cells();
        assert_eq!(cells.len(), 3);
        // Deterministic (worker, stage, op) order.
        assert_eq!(cells[0].stage, AttrStage::Parse);
        assert_eq!(cells[0].op, Some(Op::Parse));
        assert_eq!(cells[0].worker, 2);
        assert_eq!(cells[1].op, Some(Op::AtomicOp));
        assert_eq!(cells[1].stage, AttrStage::Sched);
        assert_eq!(cells[1].count, 3);
        assert_eq!(cells[2].op, None);
        assert_eq!(cells[2].stage, AttrStage::Sched);
        assert_eq!(cells[2].op_name(), "raw");
        assert_eq!(cells[2].cycles, 50);
    }

    #[test]
    fn charges_without_worker_context_land_in_overflow_row() {
        let attr = Arc::new(CycleAttr::new(2));
        let mut m = CostMeter::new(CycleCosts::agilio());
        m.attach_attr(Arc::clone(&attr));
        m.charge(Op::ForwardBase);
        let cells = attr.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].worker, 2); // overflow row index == workers()
        assert_eq!(cells[0].stage, AttrStage::Parse);
    }

    #[test]
    fn engines_past_255_keep_their_own_rows_apart_from_the_overflow() {
        let attr = Arc::new(CycleAttr::new(300));
        let mut m = CostMeter::new(CycleCosts::agilio());
        m.attach_attr(Arc::clone(&attr));
        m.charge(Op::TxEnqueue); // no worker context yet
        for engine in [255, 299] {
            m.set_worker(engine);
            assert_eq!(m.worker(), engine);
            m.charge(Op::Parse);
        }
        let rows: Vec<_> = attr.cells().iter().map(|c| (c.worker, c.op)).collect();
        assert_eq!(
            rows,
            [
                (255, Some(Op::Parse)),
                (299, Some(Op::Parse)),
                (300, Some(Op::TxEnqueue))
            ]
        );
    }

    #[test]
    fn miss_is_much_more_expensive_than_hit() {
        // The paper's Observation 2: the exact-match flow cache accelerates
        // lookups ~10x over the kernel path; our miss/hit ratio reflects it.
        let c = CycleCosts::agilio();
        assert!(c.classify_miss >= 10 * c.classify_hit);
    }
}
