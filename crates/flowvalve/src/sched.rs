//! The parallel scheduling function (paper Algorithm 1).
//!
//! For every packet, the function walks the hierarchy class label root to
//! leaf: at each class it *tries* to enter the guarded update section (one
//! core per class wins; the rest proceed — Figure 7(c)'s parallel scheme),
//! then meters the leaf bucket wait-free. A red verdict falls through to
//! the borrowing subprocedure, querying each lender's shadow bucket in
//! label order. Only if every bucket is red is the packet dropped — the
//! specialized early tail drop that emulates shaping.
//!
//! The function is written once, as `SchedulingTree::admit` over node
//! indices. [`SchedulingTree::schedule`] resolves a [`QosLabel`] to indices
//! on every call; [`SchedulingTree::run`] takes them from a
//! [`CompiledProgram`] chain that resolved them once, when the policy was
//! compiled — what the pipeline's flow-cache entry carries.
//!
//! It is generic over an execution environment ([`Exec`]) so the identical
//! logic runs in two worlds:
//!
//! * [`SimExec`] — inside the discrete-event NIC model: lock contention is
//!   *modeled* through [`np_sim::lock::LockTable`] under either
//!   [`LockDiscipline`] (per-class try-locks, or Figure 7's global lock)
//!   and every operation is charged to a [`np_sim::cost::CostMeter`]; one
//!   host thread runs every modeled worker, so the walk is the tree's only
//!   writer ([`Exec::EXCLUSIVE`]) and writes it with plain loads and stores;
//! * [`RealExec`] — on real OS threads (the `wallclock_2t` benchmark
//!   workload): locks are the nodes' actual `std::sync` mutexes, no costs
//!   are charged because the hardware is doing the timing, and each thread
//!   writes the hot-state stripe it leased, so only a green meter's
//!   test-and-add is a shared write.

use std::sync::atomic::{
    AtomicU64, AtomicUsize, Ordering::Acquire, Ordering::Relaxed, Ordering::Release,
};

pub use fv_audit::NoObserver;
use fv_audit::{StepKind, StepObserver, StepRecord};
use np_sim::cost::{CostMeter, Op};
use np_sim::lock::{LockId, LockTable};
use sim_core::fixed::Tokens;
use sim_core::time::Nanos;

use crate::bucket::Color;
use crate::label::{ClassId, QosLabel, MAX_DEPTH};
use crate::program::{ChainId, CompiledProgram};
use crate::tree::{Node, NodeHot, SchedulingTree, HOT_STRIPES};

/// Which guarded section a lock protects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// The class token-bucket update (Subprocedure 1).
    Class,
    /// The shadow-bucket update (Subprocedure 2).
    Shadow,
}

/// The verdict of the scheduling function for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedVerdict {
    /// Forwarded from the leaf class's own budget.
    Forward,
    /// Forwarded by borrowing from the shadow bucket of the given lender.
    Borrowed(ClassId),
    /// Dropped: no budget anywhere (inadequate bandwidth).
    Drop,
}

impl SchedVerdict {
    /// Whether the packet is transmitted (own budget or borrowed).
    pub fn passes(self) -> bool {
        !matches!(self, SchedVerdict::Drop)
    }
}

/// The execution environment of one scheduling-function invocation.
pub trait Exec {
    /// Whether this environment is the tree's only writer while it runs.
    /// The paper's workers share a tree and meter it with atomic
    /// test-and-add; an environment that answers `true` promises that no
    /// other thread writes the tree meanwhile, so a packet's walk writes
    /// hot state and meters buckets with plain loads and stores instead
    /// of read-modify-writes. Verdicts and tree state are the same either
    /// way; only the host instructions differ.
    ///
    /// The same bit decides the two other differences between the worlds.
    /// A shared tree's walk skips the guarded-update attempt of a class
    /// still inside its minimum update interval (a guaranteed no-op), where
    /// an exclusive one keeps it because its try-lock and charge *are* the
    /// modeled hardware cost. An exclusive walk writes hot-state stripe 0;
    /// a shared tree's thread writes the stripe it leased
    /// (`thread_stripe`), as that stripe's only writer, and so with plain
    /// loads and stores too, or, when every leasable stripe is taken, the
    /// shared stripe 0 with RMWs. Either way a shared walk meters with the
    /// atomic test-and-add: the buckets are what the paper's cores share.
    const EXCLUSIVE: bool = false;

    /// Charges one modeled operation (no-op under real execution).
    fn charge(&mut self, op: Op);

    /// Attempts the guarded update of `idx`'s class or shadow state at
    /// `now`; on winning the lock, performs the update inside it.
    /// Returns whether this core won the lock.
    fn locked_update(
        &mut self,
        tree: &SchedulingTree,
        idx: usize,
        kind: LockKind,
        now: Nanos,
    ) -> bool;
}

/// How scheduling-tree updates are serialized (the Figure 7 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LockDiscipline {
    /// FlowValve's design: one try-lock per class (Figure 7(c)).
    #[default]
    PerClass,
    /// The kernel-HTB discipline transplanted onto the NIC: one global
    /// blocking lock serializes every update (Figure 7(b)); spin time is
    /// charged to the worker, so throughput collapses as cores contend.
    Global,
}

/// Simulation execution: modeled locks + cycle accounting.
///
/// One modeled writer per tree at a time: the discrete-event model runs
/// every micro-engine on one host thread, so the contention between them
/// is the modeled lock table and the `Op::AtomicOp` charges, not the
/// host's atomics, and the walk is the tree's only writer
/// ([`Exec::EXCLUSIVE`]). A tree it drives must not be shared with
/// [`RealExec`] threads meanwhile.
#[derive(Debug)]
pub struct SimExec<'a> {
    meter: &'a mut CostMeter,
    locks: &'a mut LockTable,
    update_hold: Nanos,
    discipline: LockDiscipline,
    /// Blocking wait this packet suffered for the global lock (always
    /// zero under [`LockDiscipline::PerClass`]).
    pub(crate) wait: Nanos,
}

impl<'a> SimExec<'a> {
    /// The worker's cost meter, the NIC-wide modeled lock table (lock 0 is
    /// the global lock), how long the guarded update section holds its
    /// lock, and how the guarded updates are serialized: a try-lock per
    /// class and shadow bucket, or a blocking acquire of lock 0 for each.
    pub fn new(
        meter: &'a mut CostMeter,
        locks: &'a mut LockTable,
        update_hold: Nanos,
        discipline: LockDiscipline,
    ) -> Self {
        SimExec {
            meter,
            locks,
            update_hold,
            discipline,
            wait: Nanos::ZERO,
        }
    }

    fn lock_id(idx: usize, kind: LockKind) -> LockId {
        LockId(match kind {
            LockKind::Class => 2 * idx as u32,
            LockKind::Shadow => 2 * idx as u32 + 1,
        })
    }

    /// The global lock: blocks on lock 0 and returns when the update
    /// starts, adding the wait to the packet's.
    #[cold]
    fn acquire_global(&mut self, now: Nanos) -> Nanos {
        self.locks.ensure(1);
        let start = self.locks.acquire(LockId(0), now, self.update_hold);
        self.wait += start - now;
        start
    }
}

impl Exec for SimExec<'_> {
    const EXCLUSIVE: bool = true;

    #[inline]
    fn charge(&mut self, op: Op) {
        self.meter.charge(op);
    }

    fn locked_update(
        &mut self,
        tree: &SchedulingTree,
        idx: usize,
        kind: LockKind,
        now: Nanos,
    ) -> bool {
        let start = if self.discipline == LockDiscipline::Global {
            self.acquire_global(now)
        } else {
            self.locks.ensure(2 * tree.len());
            if !self
                .locks
                .try_acquire(Self::lock_id(idx, kind), now, self.update_hold)
            {
                return false;
            }
            now
        };
        self.meter.charge(Op::ClassUpdate);
        match kind {
            LockKind::Class => tree.update_node(idx, start),
            LockKind::Shadow => tree.update_shadow(idx, start),
        };
        true
    }
}

/// Real-thread execution: the tree's own `std::sync` mutexes, no cost
/// model. What OS threads sharing one tree on the wall clock run under.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealExec;

/// Bit `s` is set while a live thread leases hot-state stripe `s`; bit 0,
/// the shared stripe, never is.
static LEASED: AtomicUsize = AtomicUsize::new(0);

/// A thread's lease on one hot-state stripe, given back when the thread
/// exits; stripe 0 when there was none to take.
struct Lease(usize);

impl Lease {
    /// Takes the lowest free stripe among 1..`HOT_STRIPES`. The `Acquire`
    /// pairs with the `Release` of the thread that gave it back, so the
    /// new owner's plain loads read what the last one stored.
    fn claim() -> Lease {
        let leasable = (1 << HOT_STRIPES) - 2;
        let mut held = LEASED.load(Relaxed);
        loop {
            let free = leasable & !held;
            if free == 0 {
                return Lease(0);
            }
            let bit = free & free.wrapping_neg();
            match LEASED.compare_exchange_weak(held, held | bit, Acquire, Relaxed) {
                Ok(_) => return Lease(bit.trailing_zeros() as usize),
                Err(now) => held = now,
            }
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if self.0 != 0 {
            LEASED.fetch_and(!(1 << self.0), Release);
        }
    }
}

/// The calling thread's hot-state stripe, stable for the thread's
/// lifetime: the stripe it leased on first use, of which it is the only
/// writer while it runs, or the shared stripe 0 when all
/// `HOT_STRIPES - 1` leasable ones were taken (and from a thread-local
/// destructor that runs after the lease's). One TLS read on the hot path.
#[inline]
fn thread_stripe() -> usize {
    thread_local! {
        static LEASE: Lease = Lease::claim();
    }
    LEASE.try_with(|l| l.0).unwrap_or(0)
}

impl Exec for RealExec {
    fn charge(&mut self, _op: Op) {}

    fn locked_update(
        &mut self,
        tree: &SchedulingTree,
        idx: usize,
        kind: LockKind,
        now: Nanos,
    ) -> bool {
        let node = tree.node(idx);
        match kind {
            LockKind::Class => match node.update_mutex.try_lock() {
                Ok(_guard) => {
                    tree.update_node(idx, now);
                    true
                }
                Err(_) => false,
            },
            LockKind::Shadow => match node.shadow_mutex.try_lock() {
                Ok(_guard) => {
                    tree.update_shadow(idx, now);
                    true
                }
                Err(_) => false,
            },
        }
    }
}

impl SchedulingTree {
    /// Runs the scheduling function (Algorithm 1) for one packet of
    /// `bits` frame bits carrying `label`, processed at `now`: resolves the
    /// label's classes to node indices — the path on the stack, the
    /// lenders lazily, only when the leaf runs red — and admits the packet.
    ///
    /// # Panics
    ///
    /// Panics if the label references classes not present in this tree
    /// (labels must be built by [`SchedulingTree::label`]).
    pub fn schedule<E: Exec>(
        &self,
        label: &QosLabel,
        bits: u64,
        now: Nanos,
        exec: &mut E,
    ) -> SchedVerdict {
        self.schedule_with(label, bits, now, exec, &mut NoObserver)
    }

    /// [`SchedulingTree::schedule`] with the observer as a parameter.
    pub(crate) fn schedule_with<E: Exec, O: StepObserver>(
        &self,
        label: &QosLabel,
        bits: u64,
        now: Nanos,
        exec: &mut E,
        obs: &mut O,
    ) -> SchedVerdict {
        let resolve = |cid: &ClassId| self.node_index(*cid).expect("label class in tree") as u32;
        let mut path = [0u32; MAX_DEPTH];
        for (slot, cid) in path.iter_mut().zip(label.path()) {
            *slot = resolve(cid);
        }
        let path = &path[..label.path().len()];
        self.admit(
            path,
            label.borrow().iter().map(resolve),
            bits,
            now,
            exec,
            obs,
        )
    }

    /// Runs the scheduling function through a compiled admission chain:
    /// [`SchedulingTree::schedule`] with the chain's label, minus the
    /// per-packet id → node resolution. `obs` is told about every executed
    /// step (bucket tokens before/after, token test color); with
    /// [`NoObserver`] the capture code is erased at monomorphization.
    ///
    /// # Panics
    ///
    /// Panics if `chain` indexes a program compiled against a different
    /// tree with more classes; a same-shaped foreign program silently
    /// corrupts verdicts — callers must recompile on reload.
    pub fn run<E: Exec, O: StepObserver>(
        &self,
        prog: &CompiledProgram,
        chain: ChainId,
        bits: u64,
        now: Nanos,
        exec: &mut E,
        obs: &mut O,
    ) -> SchedVerdict {
        let (path, lenders) = prog.parts(chain);
        self.admit(path, lenders.iter().copied(), bits, now, exec, obs)
    }

    /// Algorithm 1, written once. `path` holds the node indices of the
    /// packet's classes root → leaf and `lenders` those of the classes it
    /// may borrow from, in query order; bucket slots are read off the
    /// nodes. Under a modeled [`Exec`] the charge and lock sequence below
    /// *is* the hardware cost model, so its order is part of the contract:
    /// every virtual-time figure replays it byte for byte. Under an
    /// [`Exec::EXCLUSIVE`] one the walk's writes are plain loads and stores;
    /// on a leased stripe (`stripe != 0`) so are its hot-state writes, and
    /// only a green meter issues an RMW.
    fn admit<E: Exec, O: StepObserver>(
        &self,
        path: &[u32],
        lenders: impl Iterator<Item = u32>,
        bits: u64,
        now: Nanos,
        exec: &mut E,
        obs: &mut O,
    ) -> SchedVerdict {
        let need = Tokens::from_bits(bits);
        let elide = !E::EXCLUSIVE;
        let stripe = if E::EXCLUSIVE { 0 } else { thread_stripe() };
        self.register_stripe(stripe);

        let level = |slot: u32| match O::ENABLED {
            true => self.slab_bucket(slot).raw(),
            false => 0,
        };
        let report = |obs: &mut O, kind, node: &Node, bucket, need, before, green| {
            if O::ENABLED {
                obs.on_step(StepRecord {
                    kind,
                    class: node.spec.id.0,
                    bucket,
                    need,
                    before,
                    after: self.slab_bucket(bucket).raw(),
                    green,
                });
            }
        };
        // The guarded refresh of a class bucket (Subprocedure 1) or of a
        // lender's shadow bucket (Subprocedure 2): one core per class wins
        // the try-lock, the rest proceed (Figure 7(c)).
        let refresh = |idx: u32, kind, exec: &mut E| {
            if !elide || self.update_due(idx as usize, kind == LockKind::Shadow, now) {
                exec.charge(Op::LockOp);
                exec.locked_update(self, idx as usize, kind, now);
            }
            exec.charge(Op::AtomicOp);
        };
        // The wait-free token test-and-add, or its only-writer form.
        let meter = |obs: &mut O, kind, node: &Node, slot: u32| {
            let before = level(slot);
            let green = self.meter(slot, need, E::EXCLUSIVE) == Color::Green;
            report(obs, kind, node, slot, need.raw() as i64, before, green);
            green
        };
        // Equation 3's numerator: Γ counts *forwarded* bits on every class
        // of the path — counting offered packets would let an overloaded
        // class's drops poison its siblings' residual rates.
        let count = |exec: &mut E| {
            for &idx in path {
                self.hot_add(
                    &self.node(idx as usize).hot(stripe).consumed_bits,
                    bits,
                    E::EXCLUSIVE || stripe != 0,
                );
                exec.charge(Op::AtomicOp);
            }
        };
        // One verdict counter of `node`'s stripe.
        let tally = |node: &Node, cell: fn(&NodeHot) -> &AtomicU64| {
            self.hot_add(cell(node.hot(stripe)), 1, E::EXCLUSIVE || stripe != 0);
        };

        // Lines 1-5: refresh token buckets root→leaf, then mark every
        // class on the path touched (drives expiry).
        for &idx in path {
            let node = self.node(idx as usize);
            let before = level(node.bucket);
            refresh(idx, LockKind::Class, exec);
            report(obs, StepKind::Update, node, node.bucket, 0, before, true);
        }
        for &idx in path {
            self.touch(
                self.node(idx as usize),
                stripe,
                now.as_nanos(),
                E::EXCLUSIVE || stripe != 0,
            );
        }

        // Lines 6-8: the leaf meter throttles the flow. A configured
        // ceiling bounds the class with borrowing included (HTB
        // semantics), so every packet is also charged against it, whether
        // its own budget or a lender's would have carried it.
        let leaf = self.node(*path.last().expect("paths are never empty") as usize);
        exec.charge(Op::AtomicOp);
        let leaf_green = meter(obs, StepKind::MeterLeaf, leaf, leaf.bucket);
        if let Some(ceil) = leaf.ceil_bucket {
            exec.charge(Op::AtomicOp);
            if !meter(obs, StepKind::MeterCeil, leaf, ceil) {
                tally(leaf, |h| &h.dropped);
                return SchedVerdict::Drop;
            }
        }
        if leaf_green {
            count(exec);
            tally(leaf, |h| &h.forwarded);
            return SchedVerdict::Forward;
        }

        // Lines 9-15: the borrowing subprocedure queries each lender's
        // shadow bucket in label order.
        for idx in lenders {
            let lender = self.node(idx as usize);
            refresh(idx, LockKind::Shadow, exec);
            if meter(obs, StepKind::Borrow, lender, lender.shadow) {
                count(exec);
                tally(lender, |h| &h.lent);
                tally(leaf, |h| &h.borrowed);
                return SchedVerdict::Borrowed(lender.spec.id);
            }
        }

        // Line 16: every bucket is red — the specialized early tail drop.
        tally(leaf, |h| &h.dropped);
        SchedVerdict::Drop
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::snapshot::TreeSnapshot;
    use crate::tree::{ClassSpec, TreeParams};
    use fv_audit::Recorder;
    use np_sim::config::CycleCosts;
    use sim_core::fixed::{TokenRate, RATE_FRAC_BITS};
    use sim_core::rng::SimRng;
    use sim_core::units::BitRate;

    fn gbps(g: f64) -> BitRate {
        BitRate::from_gbps(g)
    }

    fn tree_prio() -> SchedulingTree {
        SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(gbps(10.0)),
                ClassSpec::new(ClassId(10), "hi", Some(ClassId(1))).prio(0),
                ClassSpec::new(ClassId(20), "lo", Some(ClassId(1))).prio(1),
            ],
            TreeParams::default(),
        )
        .unwrap()
    }

    fn sim_parts() -> (CostMeter, LockTable) {
        (CostMeter::new(CycleCosts::agilio()), LockTable::new(8))
    }

    /// Runs `f` on a fresh thread, joined before it returns, while no other
    /// caller runs. Every test of this crate that walks under `RealExec`
    /// goes through here: stripe leases are process-wide and a thread keeps
    /// its lease until it exits, so this way no lease is out when `f`
    /// starts, and which stripe a thread of `f` leases, and whether one is
    /// free at all, is `f`'s doing alone, whatever libtest's thread count.
    pub(crate) fn leased<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        static LEASES: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _turn = LEASES
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        assert_eq!(LEASED.load(Acquire), 0, "a stripe lease outlived its test");
        std::thread::scope(|s| s.spawn(f).join())
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }

    /// Drives `pkts` packets of `bits` each through the tree at a constant
    /// gap, returning how many passed.
    fn drive(
        tree: &SchedulingTree,
        label: &QosLabel,
        bits: u64,
        gap: Nanos,
        pkts: usize,
        start: Nanos,
    ) -> usize {
        let (mut meter, mut locks) = sim_parts();
        let hold = Nanos::from_nanos(300);
        let mut exec = SimExec::new(&mut meter, &mut locks, hold, LockDiscipline::PerClass);
        let mut passed = 0;
        let mut now = start;
        for _ in 0..pkts {
            if tree.schedule(label, bits, now, &mut exec).passes() {
                passed += 1;
            }
            now += gap;
        }
        passed
    }

    #[test]
    fn conforming_traffic_all_passes() {
        let tree = tree_prio();
        let label = tree.label(ClassId(10), &[]).unwrap();
        // 12 kbit packets every 2 us = 6 Gbps < 10 Gbps: everything passes.
        let passed = drive(
            &tree,
            &label,
            12_000,
            Nanos::from_micros(2),
            5_000,
            Nanos::ZERO,
        );
        assert_eq!(passed, 5_000);
        let c = tree.counters(ClassId(10)).unwrap();
        assert_eq!(c.forwarded, 5_000);
        assert_eq!(c.dropped, 0);
    }

    #[test]
    fn non_conforming_traffic_is_throttled_to_theta() {
        let tree = tree_prio();
        let label = tree.label(ClassId(20), &[]).unwrap();
        // lo's θ starts at the full 10 Gbps (hi idle)... but offered 20 Gbps:
        // 12 kbit packets every 0.6 us ≈ 20 Gbps. Roughly half must drop.
        let pkts = 40_000;
        let passed = drive(
            &tree,
            &label,
            12_000,
            Nanos::from_nanos(600),
            pkts,
            Nanos::ZERO,
        );
        let ratio = passed as f64 / pkts as f64;
        assert!((0.40..0.62).contains(&ratio), "pass ratio {ratio}");
    }

    #[test]
    fn priority_starves_low_class() {
        let tree = tree_prio();
        let hi = tree.label(ClassId(10), &[]).unwrap();
        let lo = tree.label(ClassId(20), &[]).unwrap();
        let (mut meter, mut locks) = sim_parts();
        let hold = Nanos::from_nanos(300);
        let mut exec = SimExec::new(&mut meter, &mut locks, hold, LockDiscipline::PerClass);
        // Interleave: hi offers 9 Gbps, lo offers 9 Gbps; total 18 > 10.
        // Expect hi to pass ~everything, lo to get ~1 Gbps.
        let mut now = Nanos::ZERO;
        let mut hi_pass = 0u64;
        let mut lo_pass = 0u64;
        let n = 60_000;
        for i in 0..n {
            let label = if i % 2 == 0 { &hi } else { &lo };
            let v = tree.schedule(label, 12_000, now, &mut exec);
            if v.passes() {
                if i % 2 == 0 {
                    hi_pass += 1;
                } else {
                    lo_pass += 1;
                }
            }
            // Each source sends a 12 kbit packet every 1.333 us => 9 Gbps each.
            now += Nanos::from_nanos(667);
        }
        let horizon = (667 * n) as f64 / 1e9;
        let hi_gbps = hi_pass as f64 * 12_000.0 / horizon / 1e9;
        let lo_gbps = lo_pass as f64 * 12_000.0 / horizon / 1e9;
        assert!(hi_gbps > 8.0, "hi got {hi_gbps} Gbps");
        assert!(lo_gbps < 2.5, "lo got {lo_gbps} Gbps");
        let total = hi_gbps + lo_gbps;
        assert!(total < 11.0, "total {total} exceeds the ceiling");
    }

    #[test]
    fn borrowing_rescues_red_packets() {
        // Two same-priority weighted leaves (5 Gbps static share each);
        // `a` stays active but underuses, so `b` borrows a's unused share
        // through the shadow bucket on top of its own 5 Gbps.
        let tree = SchedulingTree::build(
            vec![
                ClassSpec::new(ClassId(1), "root", None).rate(gbps(10.0)),
                ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
                ClassSpec::new(ClassId(20), "b", Some(ClassId(1))),
            ],
            TreeParams::default(),
        )
        .unwrap();
        let a = tree.label(ClassId(10), &[]).unwrap();
        let b = tree.label(ClassId(20), &[ClassId(10)]).unwrap();
        let (mut meter, mut locks) = sim_parts();
        let hold = Nanos::from_nanos(300);
        let mut exec = SimExec::new(&mut meter, &mut locks, hold, LockDiscipline::PerClass);
        let mut now = Nanos::ZERO;
        let mut b_passed = 0u64;
        let n = 40_000;
        for i in 0..n {
            // a sends one packet for every eight of b: ~1 Gbps vs ~8 Gbps.
            if i % 8 == 0 {
                let _ = tree.schedule(&a, 12_000, now, &mut exec);
            }
            if tree.schedule(&b, 12_000, now, &mut exec).passes() {
                b_passed += 1;
            }
            now += Nanos::from_nanos(1_500); // b offers 8 Gbps
        }
        let b_gbps = b_passed as f64 * 12_000.0 / (1_500.0 * n as f64);
        // b's own share is 5 Gbps; with borrowing it must exceed that
        // meaningfully (a uses ~1 of its 5 Gbps).
        assert!(b_gbps > 6.0, "b got {b_gbps} Gbps");
        let c = tree.counters(ClassId(20)).unwrap();
        assert!(c.borrowed > 0, "no borrowing happened");
        let lender = tree.counters(ClassId(10)).unwrap();
        assert_eq!(lender.lent, c.borrowed);
    }

    #[test]
    fn verdict_passes_predicate() {
        assert!(SchedVerdict::Forward.passes());
        assert!(SchedVerdict::Borrowed(ClassId(1)).passes());
        assert!(!SchedVerdict::Drop.passes());
    }

    #[test]
    fn sim_exec_models_lock_contention() {
        let tree = tree_prio();
        let (mut meter, mut locks) = sim_parts();
        let idx = tree.node_index(ClassId(10)).unwrap();
        let hold = Nanos::from_micros(1);
        {
            let mut exec = SimExec::new(&mut meter, &mut locks, hold, LockDiscipline::PerClass);
            assert!(exec.locked_update(&tree, idx, LockKind::Class, Nanos::ZERO));
            // Second attempt at the same instant loses the try-lock.
            assert!(!exec.locked_update(&tree, idx, LockKind::Class, Nanos::ZERO));
            // Shadow lock is independent of the class lock.
            assert!(exec.locked_update(&tree, idx, LockKind::Shadow, Nanos::ZERO));
        }
        assert_eq!(locks.stats().try_failed, 1);
    }

    #[test]
    fn real_exec_runs_updates() {
        let tree = tree_prio();
        let mut exec = RealExec;
        let idx = tree.node_index(ClassId(20)).unwrap();
        assert!(exec.locked_update(&tree, idx, LockKind::Class, Nanos::from_micros(100)));
        assert!(exec.locked_update(&tree, idx, LockKind::Shadow, Nanos::from_micros(100)));
    }

    #[test]
    fn a_stripe_first_written_after_build_is_counted_and_drained() {
        let tree = tree_prio();
        let label = tree.label(ClassId(10), &[]).unwrap();
        // A fresh thread leases the first stripe off the shared one.
        let stripe = leased(|| {
            let v = tree.schedule(&label, 12_000, Nanos::from_micros(100), &mut RealExec);
            assert_eq!(v, SchedVerdict::Forward);
            thread_stripe()
        });
        assert_eq!(stripe, 1);
        assert_eq!(tree.counters(ClassId(10)).unwrap().forwarded, 1);
        for cid in [ClassId(1), ClassId(10)] {
            let mut held = [0; HOT_STRIPES];
            held[stripe] = 12_000;
            assert_eq!(tree.consumed_bits_by_stripe(cid), held, "{cid}");
            // The next epoch drains the late stripe into Γ, by difference:
            // the stripe keeps its count and its one writer.
            let idx = tree.node_index(cid).unwrap();
            assert!(tree.update_node(idx, Nanos::from_micros(200)));
            assert_eq!(tree.consumed_bits_by_stripe(cid), [0; HOT_STRIPES]);
            let kept = &tree.node(idx).hot(stripe).consumed_bits;
            assert_eq!(kept.load(Relaxed), 12_000, "{cid}");
            assert!(tree.gamma(cid, Nanos::from_micros(200)).unwrap() > BitRate::ZERO);
        }
        assert_eq!(tree.drained_bits.load(Relaxed), 2 * 12_000);
    }

    #[test]
    fn a_stripe_lease_is_stable_per_thread_and_comes_back_at_exit() {
        let tree = tree_prio();
        let label = tree.label(ClassId(20), &[]).unwrap();
        // 64 generations of two threads, each spawned and joined in turn,
        // the way a benchmark pass starts its workers: every generation
        // leases stripes 1 and 2 again.
        let verdicts = leased(|| {
            let mut verdicts = [0u64; 2];
            for generation in 0..64u64 {
                let both = std::sync::Barrier::new(2);
                let (label, tree, both) = (&label, &tree, &both);
                let mut run: Vec<_> = std::thread::scope(|s| {
                    let workers: Vec<_> = (0..2u64)
                        .map(|k| {
                            s.spawn(move || {
                                let stripe = thread_stripe();
                                both.wait();
                                let mut tally = [0u64; 2];
                                for i in 0..200u64 {
                                    let ns = generation * 1_000_000 + i * 1_000 + k;
                                    let now = Nanos::from_nanos(ns);
                                    let v = tree.schedule(label, 12_000, now, &mut RealExec);
                                    tally[usize::from(!v.passes())] += 1;
                                }
                                assert_eq!(thread_stripe(), stripe, "the stripe moved");
                                (stripe, tally)
                            })
                        })
                        .collect();
                    // A join returns after the thread gave its lease back.
                    workers.into_iter().map(|h| h.join().unwrap()).collect()
                });
                run.sort_unstable();
                let stripes: Vec<usize> = run.iter().map(|(s, _)| *s).collect();
                assert_eq!(stripes, [1, 2], "generation {generation}");
                for (_, tally) in run {
                    verdicts[0] += tally[0];
                    verdicts[1] += tally[1];
                }
            }
            verdicts
        });
        // The merge reads no further than the stripes written, and the 128
        // threads' verdicts all landed.
        assert_eq!(tree.live_stripes(), 3);
        let c = tree.counters(ClassId(20)).unwrap();
        assert_eq!([c.forwarded, c.dropped], verdicts);
        assert_eq!(c.forwarded + c.dropped, 64 * 2 * 200);
        assert!(verdicts.iter().all(|&n| n > 0), "{verdicts:?}");
    }

    #[test]
    fn the_eighth_concurrent_thread_writes_the_shared_stripe_with_rmws() {
        let hold = std::sync::Mutex::new(());
        let (holders, seen) = leased(|| {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::scope(|s| {
                // Taken in the scope, so a failing assertion releases the
                // holders before the scope waits for them.
                let release = hold.lock().unwrap();
                let mut holders = Vec::new();
                let seen = loop {
                    let (tx, hold) = (tx.clone(), &hold);
                    let thread = s.spawn(move || match thread_stripe() {
                        0 => tx.send((0, assert_walk_rmws_per_packet())).unwrap(),
                        stripe => {
                            tx.send((stripe, [0; 3])).unwrap();
                            drop(hold.lock());
                        }
                    });
                    match rx.recv().unwrap() {
                        (0, seen) => {
                            thread.join().unwrap();
                            break seen;
                        }
                        (stripe, _) => holders.push((stripe, thread)),
                    }
                };
                drop(release);
                let stripes: Vec<usize> = holders
                    .into_iter()
                    .map(|(stripe, thread)| {
                        thread.join().unwrap();
                        stripe
                    })
                    .collect();
                (stripes, seen)
            })
        });
        // Seven threads held the seven leasable stripes, one each.
        assert_eq!(holders, (1..HOT_STRIPES).collect::<Vec<_>>());
        assert!(seen.iter().all(|&n| n > 500), "vacuous traffic: {seen:?}");
    }

    #[test]
    fn gamma_by_difference_conserves_forwarded_bits_under_owners_and_a_drainer() {
        // Hammering, not exploring: two owners forward on one path while a
        // third thread forces update epochs on its classes for as long as
        // they run; no interleaving is enumerated. Every bit forwarded is
        // drained into Γ once or still pending, never both or neither.
        let tree = tree_prio();
        let label = tree.label(ClassId(10), &[]).unwrap();
        let clock = AtomicU64::new(1);
        let now = || Nanos::from_nanos(clock.fetch_add(40, Relaxed));
        let done = std::sync::atomic::AtomicBool::new(false);
        let (forwarded, epochs) = leased(|| {
            std::thread::scope(|s| {
                let owners: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            let mut bits_out = 0;
                            for i in 0..20_000u64 {
                                let bits = 4_000 + i % 9_000;
                                if tree.schedule(&label, bits, now(), &mut RealExec).passes() {
                                    bits_out += bits;
                                }
                            }
                            bits_out
                        })
                    })
                    .collect();
                let drainer = s.spawn(|| {
                    let mut epochs = 0u64;
                    while !done.load(Acquire) {
                        for cid in label.path() {
                            let idx = tree.node_index(*cid).unwrap();
                            let _lock = tree.node(idx).update_mutex.lock().unwrap();
                            // A whole update interval on: always due.
                            let due = Nanos::from_nanos(clock.fetch_add(50_000, Relaxed) + 50_000);
                            epochs += u64::from(tree.update_node(idx, due));
                        }
                        std::thread::yield_now();
                    }
                    epochs
                });
                let owned: Vec<_> = owners.into_iter().map(|h| h.join()).collect();
                done.store(true, Release);
                let forwarded: u64 = owned.into_iter().map(Result::unwrap).sum();
                (forwarded, drainer.join().unwrap())
            })
        });
        let pending: u64 = label
            .path()
            .iter()
            .flat_map(|cid| tree.consumed_bits_by_stripe(*cid))
            .sum();
        let drained = tree.drained_bits.load(Relaxed);
        assert_eq!(drained + pending, 2 * forwarded, "{drained} + {pending}");
        assert!(epochs > 0 && drained > 0, "{epochs} epochs, {drained} bits");
    }

    #[test]
    fn a_global_discipline_accumulates_the_packets_wait() {
        let tree = tree_prio();
        let (mut meter, mut locks) = sim_parts();
        let hold = Nanos::from_micros(1);
        let mut exec = SimExec::new(&mut meter, &mut locks, hold, LockDiscipline::Global);
        let idx = tree.node_index(ClassId(10)).unwrap();
        // Two updates at the same instant: the second waits a full hold.
        exec.locked_update(&tree, idx, LockKind::Class, Nanos::ZERO);
        exec.locked_update(&tree, idx, LockKind::Class, Nanos::ZERO);
        assert_eq!(exec.wait, Nanos::from_micros(1));
    }

    #[test]
    fn real_threads_schedule_concurrently() {
        use std::sync::Arc;
        // The same tree driven by 4 real threads under wall-clock-ish time:
        // exercises the atomics under true parallelism (no verdict checks
        // beyond sanity — timing is nondeterministic here by design).
        let tree = Arc::new(tree_prio());
        let label = tree.label(ClassId(10), &[]).unwrap();
        let total: u64 = leased(|| {
            std::thread::scope(|s| {
                (0..4)
                    .map(|t| {
                        let tree = Arc::clone(&tree);
                        s.spawn(move || {
                            let mut exec = RealExec;
                            let mut passed = 0u64;
                            for i in 0..10_000u64 {
                                let now = Nanos::from_nanos(t * 13 + i * 100);
                                if tree.schedule(&label, 12_000, now, &mut exec).passes() {
                                    passed += 1;
                                }
                            }
                            passed
                        })
                    })
                    .collect::<Vec<_>>()
                    .into_iter()
                    .map(|h| h.join().unwrap())
                    .sum()
            })
        });
        assert!(total > 0);
        let c = tree.counters(ClassId(10)).unwrap();
        assert_eq!(c.forwarded + c.dropped, 40_000);
    }

    /// Subprocedure 1 transcribed for the spec: one guarded update epoch of
    /// class `idx` at `now`. It merges every hot-state stripe, written or
    /// not, and scans every same-level sibling on every epoch, so
    /// `update_node` is held to the definition rather than to itself.
    fn reference_update(tree: &SchedulingTree, idx: usize, now: Nanos) {
        use std::sync::atomic::Ordering::{AcqRel, Acquire, Release};
        let params = tree.params();
        let n = tree.node(idx);
        let dt = now.saturating_sub(Nanos::from_nanos(n.last_update.load(Acquire)));
        if dt < params.min_update_interval {
            return;
        }
        n.last_update.store(now.as_nanos(), Release);
        let frac =
            |raw: u64, (num, den): (u64, u64)| (raw as u128 * num as u128 / den as u128) as u64;
        let last_packet = |i: usize| {
            let stripes = tree.node(i).all_stripes().iter();
            stripes
                .map(|h| h.last_packet.load(Acquire))
                .max()
                .unwrap_or(0)
        };
        // Subprocedure 3: a class idle past the expiry window is inactive.
        let active =
            |i: usize| now.saturating_sub(Nanos::from_nanos(last_packet(i))) <= params.expiry;
        let gamma = |i: usize| match active(i) {
            true => tree.node(i).gamma.load(),
            false => 0,
        };
        // Equation 3 over the epoch, at most one expiry window long.
        let consumed = n.all_stripes().iter().fold(0u64, |acc, h| {
            acc.wrapping_add(h.consumed_bits.swap(0, AcqRel))
        });
        let dt = dt.min(params.expiry);
        let rate = match dt.as_nanos() {
            0 => 0,
            ns => ((consumed as u128) << RATE_FRAC_BITS as u128).div_euclid(ns as u128) as u64,
        };
        n.gamma.fold(rate);
        if !active(idx) {
            n.gamma.store(0);
        }
        let theta_parent = match n.parent {
            None => TokenRate::from_bit_rate(n.spec.rate.expect("root rate")).raw(),
            Some(p) => tree.node(p).theta.load(Acquire),
        };
        // Equation 4: higher priorities take what they measure, lower ones
        // keep their active floors.
        let higher = n
            .subtract
            .iter()
            .map(|&s| gamma(s))
            .fold(0, u64::saturating_add);
        let reserved = n
            .lower
            .iter()
            .map(|&s| {
                let sib = tree.node(s);
                gamma(s).min(sib.guarantee_raw.min(frac(theta_parent, sib.fallback)))
            })
            .fold(0, u64::saturating_add);
        let base = theta_parent.saturating_sub(higher).saturating_sub(reserved);
        // Equation 5 over the active same-priority siblings.
        let level_total = n.share.0
            + n.same_level
                .iter()
                .filter(|&&s| active(s))
                .map(|&s| tree.node(s).spec.weight as u64)
                .sum::<u64>();
        let mut theta = frac(base, (n.share.0, level_total.max(1)));
        if n.guarantee_raw > 0 {
            theta = theta.max(n.guarantee_raw.min(frac(theta_parent, n.fallback)));
        }
        theta = theta.min(n.ceil_raw).min(theta_parent);
        n.theta.store(theta, Release);
        tree.slab_bucket(n.bucket)
            .refill(TokenRate::from_raw(theta).accrued(dt));
        if let Some(ci) = n.ceil_bucket {
            tree.slab_bucket(ci)
                .refill(TokenRate::from_raw(n.ceil_raw).accrued(dt));
        }
        tree.bump_epoch();
    }

    /// Algorithm 1 transcribed over a label, one paper line at a time: the
    /// spec `admit` is held against. One caller, so every guarded update
    /// is attempted and wins its lock; counters land on stripe 0.
    pub(crate) fn reference(
        tree: &SchedulingTree,
        label: &QosLabel,
        bits: u64,
        now: Nanos,
    ) -> SchedVerdict {
        let need = Tokens::from_bits(bits);
        let idx = |cid: ClassId| tree.node_index(cid).expect("class in tree");
        let green = |slot: u32| tree.meter(slot, need, false) == Color::Green;
        let tally = |node: &Node, cell: fn(&NodeHot) -> &AtomicU64| {
            tree.hot_add(cell(node.hot(0)), 1, false);
        };
        // Lines 1-5: update every class root→leaf.
        for &cid in label.path() {
            reference_update(tree, idx(cid), now);
        }
        tree.touch_path(label, now);
        // Lines 6-8: the leaf's own budget, within its ceiling.
        let leaf = tree.node(idx(label.leaf()));
        let under_ceil = || leaf.ceil_bucket.is_none_or(green);
        if green(leaf.bucket) {
            if !under_ceil() {
                tally(leaf, |h| &h.dropped);
                return SchedVerdict::Drop;
            }
            tree.count_path(label, bits);
            tally(leaf, |h| &h.forwarded);
            return SchedVerdict::Forward;
        }
        // Lines 9-15: borrow from each lender's shadow bucket in turn,
        // still within the leaf's ceiling.
        if !under_ceil() {
            tally(leaf, |h| &h.dropped);
            return SchedVerdict::Drop;
        }
        for &cid in label.borrow() {
            let lender = tree.node(idx(cid));
            tree.update_shadow(idx(cid), now);
            if green(lender.shadow) {
                tree.count_path(label, bits);
                tally(lender, |h| &h.lent);
                tally(leaf, |h| &h.borrowed);
                return SchedVerdict::Borrowed(cid);
            }
        }
        // Line 16.
        tally(leaf, |h| &h.dropped);
        SchedVerdict::Drop
    }

    /// A policy to hold both engines to: class specs, (leaf, lenders) label
    /// recipes in the order the traffic takes turns through them, and the
    /// packets in one turn.
    struct Case {
        specs: Vec<ClassSpec>,
        labels: Vec<(ClassId, Vec<ClassId>)>,
        turn: u64,
    }

    impl Case {
        fn build(&self) -> (SchedulingTree, Vec<QosLabel>) {
            let tree =
                SchedulingTree::build(self.specs.clone(), TreeParams::default()).expect("builds");
            let labels = self
                .labels
                .iter()
                .map(|(leaf, lenders)| tree.label(*leaf, lenders).expect("label builds"))
                .collect();
            (tree, labels)
        }
    }

    /// Two weighted leaves, one ceiled, each borrowing from the other.
    fn two_leaf_case() -> Case {
        Case {
            specs: vec![
                ClassSpec::new(ClassId(1), "root", None).rate(gbps(10.0)),
                ClassSpec::new(ClassId(10), "a", Some(ClassId(1))),
                ClassSpec {
                    ceil: Some(gbps(6.0)),
                    ..ClassSpec::new(ClassId(20), "b", Some(ClassId(1)))
                },
            ],
            labels: vec![
                (ClassId(10), vec![ClassId(20)]),
                (ClassId(20), vec![ClassId(10)]),
            ],
            turn: 256,
        }
    }

    /// 48 equal-weight leaves under one parent, each borrowing from the
    /// next. The turns run ten laps over all 48, a lap every ~0.3 ms, so
    /// every leaf stays active; then 400 turns over the first eight only,
    /// 6 400 packets or ~2.6 ms at the mean gap, so the other 40 idle past
    /// the 2 ms expiry while eight stay busy; then all 48 come back.
    fn wide_case() -> Case {
        let leaf = |i: u16| ClassId(100 + i % 48);
        let mut specs = vec![ClassSpec::new(ClassId(1), "root", None).rate(gbps(10.0))];
        specs.extend((0..48).map(|i| ClassSpec::new(leaf(i), "leaf", Some(ClassId(1)))));
        let all = (0..48).cycle().take(48 * 10);
        let busy = (0..8).cycle().take(400);
        Case {
            specs,
            labels: all
                .chain(busy)
                .map(|i| (leaf(i), vec![leaf(i + 1)]))
                .collect(),
            turn: 16,
        }
    }

    /// A seeded random policy: up to 24 classes at depth <= 8 with mixed
    /// priorities, weights, guarantees and ceilings, and a label for every
    /// leaf (capped at 6) with 0-8 distinct lenders. The first class chain
    /// runs to the full depth so MAX_DEPTH paths are always exercised.
    fn random_case(seed: u64) -> Case {
        let mut rng = SimRng::seed(seed);
        let root_gbps = 1 + rng.range(0, 40);
        let mut specs = vec![ClassSpec::new(ClassId(1), "root", None).rate(gbps(root_gbps as f64))];
        let mut depth = vec![1usize];
        let n = 3 + rng.range(0, 22) as usize;
        for i in 1..n {
            // The first MAX_DEPTH classes form one chain; the rest hang
            // anywhere there is depth left.
            let parent = match i < MAX_DEPTH {
                true => i - 1,
                false => loop {
                    let p = rng.range(0, specs.len() as u64) as usize;
                    if depth[p] < MAX_DEPTH {
                        break p;
                    }
                },
            };
            let mut spec = ClassSpec::new(ClassId(1 + i as u16), "c", Some(specs[parent].id))
                .prio(rng.range(0, 3) as u8)
                .weight(1 + rng.range(0, 8) as u32);
            let floor = BitRate::from_mbps(10 + rng.range(0, root_gbps * 250));
            if rng.range(0, 4) == 0 {
                spec = spec.rate(floor);
            }
            if rng.range(0, 3) == 0 {
                spec.ceil = Some(BitRate::from_bps(floor.as_bps() * (1 + rng.range(0, 4))));
            }
            depth.push(depth[parent] + 1);
            specs.push(spec);
        }
        let is_leaf = |s: &ClassSpec| !specs.iter().any(|c| c.parent == Some(s.id));
        let labels = specs
            .iter()
            .filter(|s| is_leaf(s))
            .take(6)
            .map(|leaf| {
                let mut lenders: Vec<ClassId> = Vec::new();
                for _ in 0..rng.range(0, 9) {
                    let cid = specs[1 + rng.range(0, specs.len() as u64 - 1) as usize].id;
                    if cid != leaf.id && !lenders.contains(&cid) {
                        lenders.push(cid);
                    }
                }
                (leaf.id, lenders)
            })
            .collect();
        Case {
            specs,
            labels,
            turn: 256,
        }
    }

    /// Which adapter over `admit` a differential run drives, in which
    /// execution world.
    #[derive(Clone, Copy)]
    enum Driver {
        /// `schedule(&label)` on real locks: idle updates elided, counters
        /// on the stripe the calling thread leased.
        ScheduleReal,
        /// `run(prog, chain)` under the modeled locks and cost meter, with
        /// a recorder attached to every packet.
        RunSim,
        /// `run(prog, chain)` under the modeled locks with the Figure 7
        /// global discipline and a zero hold: no update waits, so every
        /// epoch lands at `now`.
        RunGlobal,
    }

    /// Drives `packets` packets of seeded all-regime traffic through the
    /// reference on one build of `case` and through `admit` on another:
    /// every verdict must agree, and at the end so must every class's
    /// counters, the whole [`TreeSnapshot`] (θ, Γ, activity), every bucket
    /// level of the slab, and the epoch count. Returns the tree `admit` ran
    /// on and how many packets were forwarded, borrowed and dropped.
    fn assert_admit_matches_reference(
        case: &Case,
        seed: u64,
        packets: u64,
        driver: Driver,
    ) -> (SchedulingTree, [u64; 3]) {
        match driver {
            Driver::ScheduleReal => leased(|| {
                assert_eq!(thread_stripe(), 1);
                admit_against_reference(case, seed, packets, driver)
            }),
            Driver::RunSim | Driver::RunGlobal => {
                admit_against_reference(case, seed, packets, driver)
            }
        }
    }

    /// [`assert_admit_matches_reference`] on the calling thread.
    fn admit_against_reference(
        case: &Case,
        seed: u64,
        packets: u64,
        driver: Driver,
    ) -> (SchedulingTree, [u64; 3]) {
        let (spec_tree, labels) = case.build();
        let (tree, _) = case.build();
        let prog = CompiledProgram::compile(&tree, &labels).expect("labels of this tree");
        let (mut meter, mut locks) = sim_parts();
        let mut rng = SimRng::seed(seed);
        let mut now = Nanos::ZERO;
        let mut seen = [0u64; 3];
        // ~12 kbit packets at this mean gap offer three times the root rate.
        let root_bps = case.specs[0].rate.expect("root rate").as_bps();
        let gap = 4_000_000_000_000 / root_bps;
        let rmws = |t: &SchedulingTree| t.walk_rmws.load(Relaxed);
        for i in 0..packets {
            let r = rng.next_u64();
            // Overload in the main, broken up by gaps past the update
            // interval (50 us) and by idle gaps long enough for
            // expired-status removal (2 ms).
            now += Nanos::from_nanos(match r % 2_000 {
                0 => 2_000_000,
                1..=6 => 120_000,
                _ => gap / 2 + (r >> 16) % gap,
            });
            // Classes take turns being the busy one, so each in turn runs
            // dry while the others have tokens to lend.
            let turn = (i / case.turn) as usize + usize::from((r >> 40).is_multiple_of(8));
            let label = &labels[turn % labels.len()];
            let bits = 4_000 + (r % 16_000);
            let (spec_rmws, walk_rmws) = (rmws(&spec_tree), rmws(&tree));
            let want = reference(&spec_tree, label, bits, now);
            let got = match driver {
                Driver::ScheduleReal => tree.schedule(label, bits, now, &mut RealExec),
                Driver::RunSim => {
                    // The modeled hold is shorter than any gap, so every
                    // try-lock wins, as the reference assumes.
                    let mut exec = SimExec::new(
                        &mut meter,
                        &mut locks,
                        Nanos::from_nanos(20),
                        LockDiscipline::PerClass,
                    );
                    let chain = prog.resolve(label).expect("compiled");
                    let mut rec = Recorder::new();
                    let got = tree.run(&prog, chain, bits, now, &mut exec, &mut rec);
                    // The recorded walk explains the verdict, and every
                    // token test took exactly what it granted.
                    let mut tests = rec.steps.iter().filter(|s| s.kind != StepKind::Update);
                    let leaf = tests.next().expect("leaf meter recorded");
                    let last = tests.next_back().unwrap_or(leaf);
                    let lent = last.kind == StepKind::Borrow;
                    assert_eq!(got.passes(), last.green && (leaf.green || lent), "{rec:?}");
                    for s in rec.steps.iter().filter(|s| s.kind != StepKind::Update) {
                        assert_eq!(s.before - s.after, s.need * i64::from(s.green), "{s:?}");
                    }
                    got
                }
                Driver::RunGlobal => {
                    let global = LockDiscipline::Global;
                    let mut exec = SimExec::new(&mut meter, &mut locks, Nanos::ZERO, global);
                    let chain = prog.resolve(label).expect("compiled");
                    let got = tree.run(&prog, chain, bits, now, &mut exec, &mut NoObserver);
                    assert_eq!(exec.wait, Nanos::ZERO);
                    got
                }
            };
            assert_eq!(
                got, want,
                "packet {i} of seed {seed:#x} diverged at {now:?}"
            );
            // On a leased stripe, the walk issues the reference's meter RMWs,
            // one per green, and none of its touches, Γ adds and verdict
            // adds; as the tree's only writer, none at all.
            let shared = match driver {
                Driver::ScheduleReal => {
                    let path = label.path().len() as u64;
                    let verdict_adds = 1 + u64::from(matches!(got, SchedVerdict::Borrowed(_)));
                    rmws(&spec_tree)
                        - spec_rmws
                        - path * (1 + u64::from(got.passes()))
                        - verdict_adds
                }
                Driver::RunSim | Driver::RunGlobal => 0,
            };
            assert_eq!(rmws(&tree) - walk_rmws, shared, "packet {i}");
            seen[match got {
                SchedVerdict::Forward => 0,
                SchedVerdict::Borrowed(_) => 1,
                SchedVerdict::Drop => 2,
            }] += 1;
        }
        for cid in tree.class_ids() {
            assert_eq!(tree.counters(cid), spec_tree.counters(cid), "{cid}");
        }
        assert_eq!(
            TreeSnapshot::capture(&tree, now),
            TreeSnapshot::capture(&spec_tree, now)
        );
        assert_eq!(tree.slab_snapshot(), spec_tree.slab_snapshot());
        assert_eq!(tree.epoch(), spec_tree.epoch());
        (tree, seen)
    }

    #[test]
    fn admit_matches_reference_across_all_regimes() {
        // 100 k packets over the two-leaf borrowing tree: conforming,
        // overload, borrow flips, epoch rolls, expiry after idle gaps.
        let case = two_leaf_case();
        for driver in [Driver::ScheduleReal, Driver::RunSim, Driver::RunGlobal] {
            let (_, seen) = assert_admit_matches_reference(&case, 0x5eed_f10e, 100_000, driver);
            assert!(seen.iter().all(|&n| n > 1_000), "vacuous traffic: {seen:?}");
        }
    }

    #[test]
    fn admit_matches_reference_on_a_wide_level_whose_leaves_expire_and_return() {
        let case = wide_case();
        for driver in [Driver::ScheduleReal, Driver::RunSim, Driver::RunGlobal] {
            // Each leaf's share is a 48th, but the generator's 2 ms idle
            // gaps refill every bucket, so most packets pass.
            let (tree, seen) = assert_admit_matches_reference(&case, 0x5eed_0048, 60_000, driver);
            assert!(seen.iter().all(|&n| n > 100), "vacuous traffic: {seen:?}");
            // Both ways to Equation 5's denominator ran: epochs the level
            // floor vouched for, and rescans after leaves expired.
            let reads = tree.sibling_reads.load(Relaxed);
            let hits = tree.floor_hits.load(Relaxed);
            assert!(
                reads > 0 && hits > 0,
                "{reads} sibling reads, {hits} floor hits"
            );
        }
    }

    #[test]
    fn admit_matches_reference_on_random_trees() {
        let (mut deepest, mut most_lenders, mut ceiled) = (0, 0, 0);
        let mut seen = [0u64; 3];
        for seed in 1..=40u64 {
            let case = random_case(seed);
            let (tree, labels) = case.build();
            deepest = deepest.max(labels.iter().map(|l| l.path().len()).max().unwrap());
            most_lenders = most_lenders.max(labels.iter().map(|l| l.borrow().len()).max().unwrap());
            ceiled += labels
                .iter()
                .filter(|l| tree.spec(l.leaf()).unwrap().ceil.is_some())
                .count();
            for driver in [Driver::ScheduleReal, Driver::RunSim, Driver::RunGlobal] {
                let (_, run) = assert_admit_matches_reference(&case, seed, 4_000, driver);
                seen.iter_mut().zip(run).for_each(|(total, n)| *total += n);
            }
        }
        assert!(
            seen.iter().all(|&n| n > 10_000),
            "vacuous traffic: {seen:?}"
        );
        // The generator reached the shapes it promises.
        assert_eq!(deepest, MAX_DEPTH);
        assert!(most_lenders >= 6, "{most_lenders}");
        assert!(ceiled >= 10, "{ceiled}");
    }

    /// Drives seeded two-leaf traffic through `schedule` under `RealExec`
    /// on the calling thread and checks the RMWs of every walk against the
    /// thread's stripe. On a leased one, only a green meter writes shared
    /// state: one RMW per green token test, so 1 for a forward or a borrow
    /// and 0 for a drop on the uncapped leaf's two-class path. On the
    /// shared stripe 0, every write is an RMW: one touch per path class, a
    /// green meter, one Γ add per path class on a pass, and one verdict add
    /// (two on a borrow: the lender's and the leaf's). Returns how many
    /// packets were forwarded, borrowed and dropped.
    fn assert_walk_rmws_per_packet() -> [u64; 3] {
        let stripe = thread_stripe();
        let (tree, labels) = two_leaf_case().build();
        let mut rng = SimRng::seed(0x0a7c);
        let mut now = Nanos::ZERO;
        let mut seen = [0u64; 3];
        for i in 0..20_000u64 {
            let r = rng.next_u64();
            now += Nanos::from_nanos(200 + r % 1_000);
            // Each leaf in turn is the busy one and borrows from the other,
            // which stays active on one packet in eight.
            let turn = (i / 256) as usize + usize::from((r >> 40).is_multiple_of(8));
            let label = &labels[turn % labels.len()];
            let before = tree.walk_rmws.load(Relaxed);
            let mut rec = Recorder::new();
            let bits = 4_000 + r % 16_000;
            let v = tree.schedule_with(label, bits, now, &mut RealExec, &mut rec);
            let tests = rec.steps.iter().filter(|s| s.kind != StepKind::Update);
            let greens = tests.filter(|s| s.green).count() as u64;
            let path = label.path().len() as u64;
            let (kind, verdict_adds) = match v {
                SchedVerdict::Forward => (0, 1),
                SchedVerdict::Borrowed(_) => (1, 2),
                SchedVerdict::Drop => (2, 1),
            };
            seen[kind] += 1;
            let shared = match stripe {
                0 => path + path * u64::from(v.passes()) + verdict_adds,
                _ => 0,
            };
            let rmws = tree.walk_rmws.load(Relaxed) - before;
            assert_eq!(rmws, greens + shared, "packet {i}: {v:?} {rec:?}");
            if stripe != 0 && label.leaf() == ClassId(10) {
                assert_eq!(rmws, u64::from(v.passes()), "packet {i}: {v:?}");
            }
        }
        seen
    }

    #[test]
    fn an_owned_stripe_walk_issues_one_rmw_per_green_meter() {
        let seen = leased(|| {
            assert_eq!(thread_stripe(), 1);
            assert_walk_rmws_per_packet()
        });
        assert!(seen.iter().all(|&n| n > 500), "vacuous traffic: {seen:?}");
    }

    #[test]
    fn schedule_and_run_record_and_charge_alike() {
        // `schedule(&label)` and `run(prog, prog.resolve(&label))` are two
        // ways into one function: same steps with the same bucket levels,
        // same modeled cycles, same lock traffic.
        for case in [two_leaf_case(), random_case(7), random_case(23)] {
            let (ta, labels) = case.build();
            let (tb, _) = case.build();
            let prog = CompiledProgram::compile(&tb, &labels).expect("labels of this tree");
            let (mut ma, mut la) = sim_parts();
            let (mut mb, mut lb) = sim_parts();
            let mut rng = SimRng::seed(0xc0ffee);
            let mut now = Nanos::ZERO;
            for i in 0..20_000u64 {
                let r = rng.next_u64();
                // Gaps below the modeled hold too: lost try-locks included.
                now += Nanos::from_nanos(50 + r % 1_500);
                let label = &labels[(i / 64) as usize % labels.len()];
                let bits = 4_000 + (r % 16_000);
                let (mut ra, mut rb) = (Recorder::new(), Recorder::new());
                let hold = Nanos::from_nanos(300);
                let va = ta.schedule_with(
                    label,
                    bits,
                    now,
                    &mut SimExec::new(&mut ma, &mut la, hold, LockDiscipline::PerClass),
                    &mut ra,
                );
                let vb = tb.run(
                    &prog,
                    prog.resolve(label).expect("compiled"),
                    bits,
                    now,
                    &mut SimExec::new(&mut mb, &mut lb, hold, LockDiscipline::PerClass),
                    &mut rb,
                );
                assert_eq!(va, vb, "packet {i}");
                assert_eq!(ra.steps, rb.steps, "packet {i}");
                assert_eq!(ma.total(), mb.total(), "packet {i}");
            }
            assert_eq!(la.stats(), lb.stats());
            assert!(la.stats().try_failed > 0, "no lost try-lock exercised");
        }
    }
}
