//! The NIC back-end pipeline: labeling function + scheduling function,
//! plugged into the SmartNIC model as an egress decider (paper Figure 5).

use std::collections::HashMap;
use std::sync::Arc;

use classifier::{CacheResult, Classifier, FilterRule, FilterTable};
use fv_audit::{
    AuditVerdict, DropCause, ProvenanceRecord, ProvenanceRing, Recorder, Sampler, StepKind,
};
use fv_telemetry::metrics::Counter;
use fv_telemetry::span::{SpanRecorder, Stage};
use fv_telemetry::trace::{EventRing, TraceKind};
use fv_telemetry::Registry;
use netstack::packet::Packet;
use np_sim::config::NicConfig;
use np_sim::cost::{AttrStage, CostMeter, Op};
use np_sim::lock::LockTable;
use np_sim::nic::{Decision, EgressDecider};
use sim_core::time::{Cycles, Nanos};

use crate::error::ParseFvError;
use crate::frontend::Policy;
use crate::label::QosLabel;
use crate::program::{ChainId, CompiledProgram};
use crate::sched::{GlobalLockExec, SchedVerdict, SimExec};
use crate::tree::{SchedulingTree, TreeParams};

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

/// FlowValve's on-NIC processing pipeline.
///
/// Owns the compiled policy: the flow classifier (filter table + exact
/// match flow cache) whose verdicts are ready-made [`QosLabel`]s, and the
/// shared scheduling tree. Implements [`EgressDecider`] so it slots
/// directly into [`np_sim::nic::SmartNic`].
///
/// # Example
///
/// ```
/// use flowvalve::frontend::Policy;
/// use flowvalve::pipeline::FlowValvePipeline;
/// use flowvalve::tree::TreeParams;
/// use np_sim::config::NicConfig;
/// use np_sim::nic::SmartNic;
///
/// let policy = Policy::parse(
///     "fv qdisc add dev nic0 root handle 1: fv default 1:10\n\
///      fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
///      fv class add dev nic0 parent 1:1 classid 1:10\n",
/// )?;
/// let cfg = NicConfig::agilio_cx_10g();
/// let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg)?;
/// let nic = SmartNic::new(cfg, Box::new(pipeline));
/// assert!(format!("{nic:?}").contains("flowvalve"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
/// Scheduler-side chaos hook: lets fv-chaos skew the clock the scheduling
/// function sees relative to the NIC clock (the dual-clock-skew fault).
/// The pipeline clamps the skewed clock to be monotonic, so token-bucket
/// epochs never run backwards when a skew window clears.
pub trait SchedChaosHook: std::fmt::Debug + Send + Sync {
    /// How far *ahead* of the NIC clock the scheduler's clock runs at
    /// `now`. Zero (the default) means the clocks agree.
    fn sched_clock_skew(&self, _now: Nanos) -> Nanos {
        Nanos::ZERO
    }
}

/// Per-class verdict counters, one set per scheduling-tree class.
struct ClassChannels {
    forwarded: Arc<Counter>,
    borrowed: Arc<Counter>,
    dropped: Arc<Counter>,
    lent: Arc<Counter>,
    tx_bits: Arc<Counter>,
}

/// Registry handles for the pipeline's per-class verdict accounting and
/// scheduler trace events (`fv.class.<id>.*` namespace).
struct PipelineTelemetry {
    registry: Registry,
    /// Indexed by the tree's node index.
    per_class: Vec<ClassChannels>,
    ring: Arc<EventRing>,
    spans: SpanRecorder,
}

impl PipelineTelemetry {
    fn new(registry: &Registry, tree: &SchedulingTree) -> Self {
        let per_class = (0..tree.len())
            .map(|idx| {
                let base = format!("fv.class.{}", tree.node(idx).spec.id);
                ClassChannels {
                    forwarded: registry.counter(&format!("{base}.forwarded")),
                    borrowed: registry.counter(&format!("{base}.borrowed")),
                    dropped: registry.counter(&format!("{base}.dropped")),
                    lent: registry.counter(&format!("{base}.lent")),
                    tx_bits: registry.counter(&format!("{base}.tx_bits")),
                }
            })
            .collect();
        PipelineTelemetry {
            registry: registry.clone(),
            per_class,
            ring: registry.ring(),
            spans: SpanRecorder::new(registry),
        }
    }

    /// The leaf's channels are found through the node index compiled into
    /// the packet's label slot, a lender's through the tree's
    /// direct-indexed id table: no hashing either way.
    fn record(
        &self,
        now: Nanos,
        tree: &SchedulingTree,
        slot: &LabelSlot,
        wire_bits: u64,
        verdict: SchedVerdict,
    ) {
        let leaf = slot.label.leaf();
        let leaf_channels = self.per_class.get(slot.leaf_node);
        match verdict {
            SchedVerdict::Forward => {
                if let Some(c) = leaf_channels {
                    c.forwarded.incr(0);
                    c.tx_bits.add(0, wire_bits);
                }
                self.ring
                    .record(now, TraceKind::SchedForward, leaf.0 as u64, wire_bits);
            }
            SchedVerdict::Borrowed(lender) => {
                if let Some(c) = leaf_channels {
                    c.borrowed.incr(0);
                    c.tx_bits.add(0, wire_bits);
                }
                if let Some(c) = tree.node_index(lender).and_then(|i| self.per_class.get(i)) {
                    c.lent.incr(0);
                }
                self.ring
                    .record(now, TraceKind::SchedBorrow, leaf.0 as u64, lender.0 as u64);
            }
            SchedVerdict::Drop => {
                if let Some(c) = leaf_channels {
                    c.dropped.incr(0);
                }
                self.ring
                    .record(now, TraceKind::SchedDrop, leaf.0 as u64, wire_bits);
            }
        }
    }
}

/// The pipeline's provenance-capture attachment: where sampled records
/// go and which packets are sampled.
#[derive(Debug, Clone)]
struct AuditHook {
    ring: Arc<ProvenanceRing>,
    sampler: Sampler,
}

/// What the flow cache stores for a labeled flow: the policy's
/// [`QosLabel`] verdict compiled down to an index and its admission chain.
/// Twelve bytes, unlabeled `None` included, against the label's 36.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    /// Index into `Compiled::labels`.
    label: u32,
    /// The label's chain in the pipeline's current program, resolved when
    /// the verdict was compiled.
    chain: Option<ChainId>,
}

/// One distinct label of the installed policy.
#[derive(Debug)]
struct LabelSlot {
    label: QosLabel,
    /// Tree node index of the label's leaf class (per-class telemetry).
    leaf_node: usize,
}

pub struct FlowValvePipeline {
    tree: Arc<SchedulingTree>,
    compiled: Compiled,
    /// Bumped on every hot reload (provenance records carry it).
    reload_gen: u64,
    /// Compile work (chain steps) of the last hot reload, charged as
    /// `Op::ProgramCompile` on the next decision. The initial compile is
    /// configuration-time work (the NIC is not processing packets yet) and
    /// charges nothing.
    pending_compile_ops: u64,
    /// When false, the per-class arm runs the interpreted walker instead
    /// of the compiled fast path — the differential-testing oracle.
    use_program: bool,
    /// Decisions that ran a pre-resolved chain / the interpreted walker.
    chain_decisions: u64,
    walker_decisions: u64,
    update_hold: Nanos,
    discipline: LockDiscipline,
    freq: sim_core::time::Freq,
    framing: sim_core::units::WireFraming,
    telemetry: Option<PipelineTelemetry>,
    /// Provenance capture: sampled decisions re-run nothing — the single
    /// walk executes with a recorder threaded through it and the finished
    /// record lands in the ring. `None` (the default) costs one branch.
    audit: Option<AuditHook>,
    chaos: Option<Arc<dyn SchedChaosHook>>,
    /// High-water mark of the (possibly skewed) scheduler clock, keeping
    /// it monotonic across fault windows.
    sched_floor: Nanos,
}

impl core::fmt::Debug for FlowValvePipeline {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FlowValvePipeline")
            .field("classes", &self.tree.len())
            .finish_non_exhaustive()
    }
}

/// The policy-dependent half of the pipeline. Built in one pass and
/// replaced as one value on a reload, so a chain id read from the flow
/// cache always belongs to the program next to it.
struct Compiled {
    /// Filter table + flow cache over compiled verdicts.
    classifier: Classifier<Option<Verdict>>,
    /// The scheduling tree flattened into admission chains, one per
    /// distinct label of the policy.
    program: CompiledProgram,
    /// The policy's distinct labels, indexed by `Verdict::label`.
    labels: Vec<LabelSlot>,
}

impl Compiled {
    /// Flattens `tree` into admission chains for every label the table can
    /// emit — each filter verdict, then the default class — and rewrites
    /// the table's verdicts to point at them. The rule order and hash
    /// index of `table` carry over; the flow cache is allocated once, here.
    fn new(
        tree: &SchedulingTree,
        table: FilterTable<Option<QosLabel>>,
        cache_capacity: usize,
    ) -> Self {
        let program = CompiledProgram::compile(
            tree,
            table
                .iter()
                .filter_map(|r| r.verdict.as_ref())
                .chain(table.default_verdict().iter()),
        );
        let mut labels = Vec::new();
        let mut slot_of: HashMap<QosLabel, u32> = HashMap::new();
        let table = table.map(|verdict| {
            verdict.map(|label| Verdict {
                label: *slot_of.entry(label).or_insert_with(|| {
                    labels.push(LabelSlot {
                        label,
                        leaf_node: tree.node_index(label.leaf()).unwrap_or(usize::MAX),
                    });
                    labels.len() as u32 - 1
                }),
                chain: program.resolve(&label),
            })
        });
        Compiled {
            classifier: Classifier::from_table(table, cache_capacity),
            program,
            labels,
        }
    }
}

impl FlowValvePipeline {
    /// Default flow-cache capacity (the hardware EMFC holds hundreds of
    /// thousands of entries; this is plenty for the reproduced workloads).
    pub const DEFAULT_CACHE_CAPACITY: usize = 65_536;

    /// Compiles a parsed policy into a runnable pipeline.
    ///
    /// # Errors
    ///
    /// Propagates tree-construction and label errors as
    /// [`ParseFvError::Build`].
    pub fn compile(
        policy: &Policy,
        params: TreeParams,
        nic: &NicConfig,
    ) -> Result<Self, ParseFvError> {
        let (tree, rules, default) = policy.compile(params)?;
        Ok(Self::from_parts(Arc::new(tree), rules, default, nic))
    }

    /// Assembles a pipeline from an already-built tree and classifier
    /// (e.g. with a non-default flow-cache capacity, for the cache
    /// ablation experiments). The classifier's rule table and cache
    /// capacity are kept; its cached flows are not.
    pub fn from_classifier(
        tree: Arc<SchedulingTree>,
        classifier: Classifier<Option<QosLabel>>,
        nic: &NicConfig,
    ) -> Self {
        let (table, cache_capacity) = classifier.into_parts();
        Self::assemble(tree, table, cache_capacity, nic)
    }

    /// Assembles a pipeline from an already-built tree and compiled rules.
    pub fn from_parts(
        tree: Arc<SchedulingTree>,
        rules: Vec<FilterRule<Option<QosLabel>>>,
        default: Option<QosLabel>,
        nic: &NicConfig,
    ) -> Self {
        let table = FilterTable::from_rules(default, rules);
        Self::assemble(tree, table, Self::DEFAULT_CACHE_CAPACITY, nic)
    }

    fn assemble(
        tree: Arc<SchedulingTree>,
        table: FilterTable<Option<QosLabel>>,
        cache_capacity: usize,
        nic: &NicConfig,
    ) -> Self {
        FlowValvePipeline {
            compiled: Compiled::new(&tree, table, cache_capacity),
            tree,
            reload_gen: 0,
            pending_compile_ops: 0,
            use_program: true,
            chain_decisions: 0,
            walker_decisions: 0,
            // The guarded update section holds its lock for the
            // class_update cycle cost at the configured clock.
            update_hold: nic.freq.duration_of(Cycles::new(nic.costs.class_update)),
            discipline: LockDiscipline::PerClass,
            freq: nic.freq,
            framing: nic.framing,
            telemetry: None,
            audit: None,
            chaos: None,
            sched_floor: Nanos::ZERO,
        }
    }

    /// Installs a chaos hook consulted on every scheduling decision (the
    /// dual-clock-skew fault). The hook sees the NIC clock and answers how
    /// far ahead the scheduler's clock runs.
    pub fn install_chaos_hook(&mut self, hook: Arc<dyn SchedChaosHook>) {
        self.chaos = Some(hook);
    }

    /// Attaches sampled provenance capture. Decisions whose packet id the
    /// sampler selects run their one and only admission walk with a
    /// recorder threaded through it — nothing is re-executed — and the
    /// finished [`ProvenanceRecord`] lands in `ring`, resolvable by
    /// `fv why --pkt <id>`. Unsampled decisions pay a single predictable
    /// branch; without this call the capture code is erased entirely.
    pub fn attach_auditor(&mut self, ring: Arc<ProvenanceRing>, sampler: Sampler) {
        self.audit = Some(AuditHook { ring, sampler });
    }

    /// The attached provenance ring, if any.
    pub fn provenance_ring(&self) -> Option<&Arc<ProvenanceRing>> {
        self.audit.as_ref().map(|a| &a.ring)
    }

    /// Wires per-class verdict counters (`fv.class.<id>.*`), scheduler
    /// trace events, and the tree's refill telemetry into `registry`.
    /// Typically called with the same registry the owning
    /// [`np_sim::nic::SmartNic`] records into, so one snapshot covers the
    /// whole pipeline.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.tree.attach_telemetry(registry);
        self.telemetry = Some(PipelineTelemetry::new(registry, &self.tree));
    }

    /// Publishes point-in-time gauges — per-class θ/Γ in bits per second
    /// and flow-cache hit/miss totals — into the attached registry. A
    /// no-op without [`FlowValvePipeline::attach_telemetry`]; cold path,
    /// call right before taking a snapshot.
    pub fn sync_gauges(&self, now: Nanos) {
        let Some(t) = &self.telemetry else { return };
        for id in self.tree.class_ids() {
            if let Some(theta) = self.tree.theta(id) {
                t.registry
                    .gauge(&format!("fv.class.{id}.theta_bps"))
                    .set(theta.as_bps());
            }
            if let Some(gamma) = self.tree.gamma(id, now) {
                t.registry
                    .gauge(&format!("fv.class.{id}.gamma_bps"))
                    .set(gamma.as_bps());
            }
        }
        let cache = self.cache_stats();
        t.registry.gauge("fv.cache.hits").set(cache.hits);
        t.registry.gauge("fv.cache.misses").set(cache.misses);
    }

    /// Switches the update serialization discipline (builder-style); the
    /// Figure 7 ablation compares [`LockDiscipline::PerClass`] against
    /// [`LockDiscipline::Global`].
    pub fn with_lock_discipline(mut self, discipline: LockDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Disables the compiled fast path: every decision runs the
    /// interpreted tree walker (builder-style). This is the differential
    /// oracle for the compiled scheduling program — verdicts, counters and
    /// modeled charges must be identical either way, and
    /// `tests/compiled_oracle.rs` drives both configurations on the same
    /// traffic to prove it.
    pub fn with_interpreted_scheduler(mut self) -> Self {
        self.use_program = false;
        self
    }

    /// The shared scheduling tree (for experiment-side telemetry).
    pub fn tree(&self) -> &Arc<SchedulingTree> {
        &self.tree
    }

    /// Hot-reloads the policy: compiles `policy` with the same parameters
    /// and atomically replaces the scheduling tree and the classifier.
    /// In-flight classification state (the flow cache) is invalidated, so
    /// the next packet of every flow re-classifies against the new rules —
    /// the runtime reconfiguration that fixed-function NIC traffic
    /// managers lack (paper §II-B).
    ///
    /// # Errors
    ///
    /// Returns [`ParseFvError`] and leaves the running policy untouched if
    /// the new policy does not compile.
    pub fn reload(
        &mut self,
        policy: &Policy,
        params: TreeParams,
        nic: &NicConfig,
    ) -> Result<(), ParseFvError> {
        let (tree, rules, default) = policy.compile(params)?;
        // Classifier, program and labels are rebuilt against the new tree
        // and swapped in together: the fresh flow cache holds no entry, so
        // no chain id of the old program can be read again. The compile
        // work is charged (Op::ProgramCompile) on the next decision — paid
        // at reconfiguration time, not per packet.
        self.compiled = Compiled::new(
            &tree,
            FilterTable::from_rules(default, rules),
            Self::DEFAULT_CACHE_CAPACITY,
        );
        self.tree = Arc::new(tree);
        self.reload_gen = self.reload_gen.wrapping_add(1);
        self.pending_compile_ops += self.compiled.program.compile_ops();
        self.update_hold = nic.freq.duration_of(Cycles::new(nic.costs.class_update));
        self.freq = nic.freq;
        self.framing = nic.framing;
        // Re-wire telemetry against the new tree: classes may have changed,
        // and the fresh tree has no ring attached yet. Counters for classes
        // that survive the reload keep accumulating.
        if let Some(t) = &self.telemetry {
            let registry = t.registry.clone();
            self.tree.attach_telemetry(&registry);
            self.telemetry = Some(PipelineTelemetry::new(&registry, &self.tree));
        }
        Ok(())
    }

    /// Flow-cache statistics.
    pub fn cache_stats(&self) -> classifier::CacheStats {
        self.compiled.classifier.cache_stats()
    }

    /// The compiled scheduling program currently installed.
    pub fn program(&self) -> &CompiledProgram {
        &self.compiled.program
    }

    /// (decisions that ran the admission chain carried in their flow-cache
    /// entry, decisions that fell back to the interpreted walker). Chains
    /// are resolved when the policy is compiled, so the second count stays
    /// zero unless [`with_interpreted_scheduler`] or
    /// [`LockDiscipline::Global`] selects the walker.
    ///
    /// [`with_interpreted_scheduler`]: Self::with_interpreted_scheduler
    pub fn decision_cache_stats(&self) -> (u64, u64) {
        (self.chain_decisions, self.walker_decisions)
    }
}

impl EgressDecider for FlowValvePipeline {
    fn decide(
        &mut self,
        pkt: &Packet,
        now: Nanos,
        meter: &mut CostMeter,
        locks: &mut LockTable,
    ) -> Decision {
        // Deferred reconfiguration charge: the hot reload recompiled the
        // scheduling program, and the control-plane work lands on the first
        // decision after it (figure drivers never reload, so their cost
        // streams are untouched).
        if self.pending_compile_ops > 0 {
            meter.set_stage(AttrStage::Sched);
            meter.charge_n(Op::ProgramCompile, self.pending_compile_ops);
            self.pending_compile_ops = 0;
        }
        // Labeling function: exact-match cache with table-walk fill, on
        // this worker's cache shard (per-island EMFC model — no false
        // sharing between workers' hit paths). The entry carries the
        // flow's compiled verdict: label index and admission chain.
        let classify_t0 = meter.total();
        meter.set_stage(AttrStage::Classify);
        let Compiled {
            classifier,
            program,
            labels,
        } = &mut self.compiled;
        let (verdict, cache) = classifier.classify_at(meter.worker(), &pkt.flow, pkt.vf);
        let labeled = verdict.map(|v| (&labels[v.label as usize], v.chain));
        meter.charge(match cache {
            CacheResult::Hit => Op::ClassifyHit,
            CacheResult::Miss => Op::ClassifyMiss,
        });
        // Wire bits (frame + preamble/IFG): what the token buckets meter
        // and what an attribution sink weighs heavy hitters by.
        let wire_bits = self.framing.wire_bits(pkt.frame_len as u64);
        // Classify span: the cycles this packet's labeling charged to the
        // worker, converted at the NIC clock. Starts when the worker picked
        // the packet up (`now` here is the dispatch start).
        let classify_dur = self.freq.duration_of(meter.total() - classify_t0);
        if let Some(t) = &self.telemetry {
            if let Some(sink) = t.spans.sink() {
                // Tell the attribution sink this packet's class before any
                // of its spans land, so every span attributes cleanly.
                let class = labeled.map_or(u64::MAX, |(slot, _)| slot.label.leaf().0 as u64);
                sink.classify(pkt.id, class, pkt.flow.stable_hash(), wire_bits);
            }
            t.spans.record(Stage::Classify, now, pkt.id, classify_dur);
        }

        // Scheduling function (Algorithm 1); unlabeled traffic bypasses it.
        // Tokens are metered in *wire* bits: a tree whose root rate equals
        // the line rate must admit exactly what the wire can carry, or the
        // transmit FIFO builds a standing queue.
        meter.set_stage(AttrStage::Sched);
        let Some((slot, chain)) = labeled else {
            return Decision::Forward;
        };
        let label = &slot.label;
        // The scheduling function reads its own clock, which an injected
        // skew fault can run ahead of the NIC clock. Keep it monotonic so
        // epochs never rewind when the skew clears.
        let sched_now = match &self.chaos {
            Some(h) => {
                let skewed = now + h.sched_clock_skew(now);
                self.sched_floor = self.sched_floor.max(skewed);
                self.sched_floor
            }
            None => now,
        };
        let sched_t0 = meter.total();
        // The chain was resolved when the policy was compiled and came
        // with the flow-cache entry; a reload replaces classifier and
        // program together, so it is never stale. Under SimExec it charges
        // exactly what the interpreted walker would.
        let chain =
            chain.filter(|_| self.use_program && self.discipline == LockDiscipline::PerClass);
        match chain {
            Some(_) => self.chain_decisions += 1,
            None => self.walker_decisions += 1,
        }
        let verdict = match self.discipline {
            LockDiscipline::PerClass => {
                let mut exec = SimExec {
                    meter,
                    locks,
                    update_hold: self.update_hold,
                };
                let sampled = self.audit.as_ref().is_some_and(|a| a.sampler.hit(pkt.id));
                if sampled {
                    // Sampled: the same single walk runs with a recorder
                    // threaded through it; charges and verdict are
                    // identical to the unsampled path.
                    let mut rec = Recorder::new();
                    let verdict = match chain {
                        Some(c) => self.tree.schedule_compiled_observed(
                            program, c, wire_bits, sched_now, &mut exec, &mut rec,
                        ),
                        None => self
                            .tree
                            .schedule_observed(label, wire_bits, sched_now, &mut exec, &mut rec),
                    };
                    let cause = if verdict == SchedVerdict::Drop {
                        // The deciding step names the refusal: a red
                        // ceiling meter is an OverCeil, any other red meter
                        // is the leaf (and its lenders) out of tokens.
                        let deciding = rec.steps.iter().rev().find(|s| !s.green).map(|s| s.kind);
                        Some(match deciding {
                            Some(StepKind::MeterCeil) => DropCause::OverCeil,
                            _ => DropCause::NoTokens,
                        })
                    } else {
                        None
                    };
                    let audit = self.audit.as_ref().expect("sampled implies hook");
                    audit.ring.record(ProvenanceRecord {
                        pkt_id: pkt.id,
                        at: sched_now,
                        leaf: label.leaf().0,
                        wire_bits,
                        verdict: match verdict {
                            SchedVerdict::Forward => AuditVerdict::Forward,
                            SchedVerdict::Borrowed(l) => AuditVerdict::Borrowed(l.0),
                            SchedVerdict::Drop => AuditVerdict::Drop,
                        },
                        cause,
                        cache_hit: cache == CacheResult::Hit,
                        reload_gen: self.reload_gen,
                        epoch: self.tree.epoch(),
                        chain: chain.map(|c| c.index()).unwrap_or(u32::MAX),
                        steps: rec.steps,
                        refunds: rec.refunds,
                    });
                    verdict
                } else {
                    match chain {
                        Some(c) => self
                            .tree
                            .schedule_compiled(program, c, wire_bits, sched_now, &mut exec),
                        None => self.tree.schedule(label, wire_bits, sched_now, &mut exec),
                    }
                }
            }
            LockDiscipline::Global => {
                let mut exec = GlobalLockExec {
                    meter,
                    locks,
                    update_hold: self.update_hold,
                    wait: Nanos::ZERO,
                };
                let verdict = self.tree.schedule(label, wire_bits, sched_now, &mut exec);
                // The worker spins while waiting for the global lock:
                // charge the wait as busy cycles.
                let wait = exec.wait;
                meter.charge_cycles(self.freq.cycles_in(wait));
                verdict
            }
        };
        if let Some(t) = &self.telemetry {
            // Sched span: every cycle the scheduling function charged
            // (token grabs, lock waits, updates), placed right after the
            // classify span on the same worker.
            let sched_dur = self.freq.duration_of(meter.total() - sched_t0);
            t.spans
                .record(Stage::Sched, now + classify_dur, pkt.id, sched_dur);
            t.record(now, &self.tree, slot, wire_bits, verdict);
        }
        if verdict.passes() {
            Decision::Forward
        } else {
            Decision::Drop
        }
    }

    fn name(&self) -> &str {
        "flowvalve"
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::flow::FlowKey;
    use netstack::packet::{AppId, VfPort};
    use np_sim::config::CycleCosts;

    fn pipeline_10g() -> FlowValvePipeline {
        let policy = Policy::parse(
            "fv qdisc add dev nic0 root handle 1: fv\n\
             fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
             fv class add dev nic0 parent 1:1 classid 1:10 name hi prio 0\n\
             fv class add dev nic0 parent 1:1 classid 1:20 name lo prio 1\n\
             fv filter add dev nic0 match ip dport 5001 flowid 1:10\n\
             fv filter add dev nic0 match ip dport 5002 flowid 1:20\n",
        )
        .unwrap();
        FlowValvePipeline::compile(&policy, TreeParams::default(), &NicConfig::agilio_cx_10g())
            .unwrap()
    }

    fn pkt(id: u64, dport: u16) -> Packet {
        Packet::new(
            id,
            FlowKey::tcp([10, 0, 0, 1], 40_000, [10, 0, 0, 2], dport),
            1250,
            AppId(0),
            VfPort(0),
            Nanos::ZERO,
        )
    }

    #[test]
    fn compiled_verdict_is_a_third_of_the_label() {
        // Unlabeled `None` included: the flow-cache entry is sized by this.
        assert!(std::mem::size_of::<Option<Verdict>>() <= 12);
        assert!(std::mem::size_of::<Option<QosLabel>>() >= 36);
    }

    #[test]
    fn labeled_traffic_is_scheduled() {
        let mut p = pipeline_10g();
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        // Conforming packet passes.
        let d = p.decide(&pkt(0, 5001), Nanos::from_micros(1), &mut meter, &mut locks);
        assert_eq!(d, Decision::Forward);
        // Costs were charged: classify miss + at least one lock/atomic op.
        assert!(meter.total().get() > 0);
    }

    #[test]
    fn unmatched_traffic_bypasses_without_default() {
        let mut p = pipeline_10g();
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        let d = p.decide(&pkt(0, 9999), Nanos::from_micros(1), &mut meter, &mut locks);
        assert_eq!(d, Decision::Forward);
        // Only classification was charged — no scheduling ops.
        assert_eq!(meter.total().get(), CycleCosts::agilio().classify_miss);
    }

    #[test]
    fn second_packet_hits_the_cache() {
        let mut p = pipeline_10g();
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        let _ = p.decide(&pkt(0, 5001), Nanos::from_micros(1), &mut meter, &mut locks);
        let s = p.cache_stats();
        assert_eq!((s.hits, s.misses), (0, 1));
        let _ = p.decide(&pkt(1, 5001), Nanos::from_micros(2), &mut meter, &mut locks);
        let s = p.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn overload_is_dropped_by_the_scheduler() {
        let mut p = pipeline_10g();
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        // 10 kbit packets every 500 ns = 20 Gbps offered to a 10 Gbps tree.
        let mut drops = 0;
        for i in 0..20_000u64 {
            let now = Nanos::from_nanos(i * 500);
            if p.decide(&pkt(i, 5002), now, &mut meter, &mut locks) == Decision::Drop {
                drops += 1;
            }
        }
        let ratio = drops as f64 / 20_000.0;
        assert!((0.35..0.65).contains(&ratio), "drop ratio {ratio}");
    }

    #[test]
    fn tree_telemetry_is_reachable() {
        let p = pipeline_10g();
        assert_eq!(p.tree().len(), 3);
    }

    #[test]
    fn telemetry_mirrors_per_class_verdicts() {
        let mut p = pipeline_10g();
        let registry = Registry::new();
        p.attach_telemetry(&registry);
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        // Same overload as `overload_is_dropped_by_the_scheduler`: 20 Gbps
        // offered to a 10 Gbps tree, so class 1:20 both forwards and drops.
        let mut fwd = 0u64;
        let mut drops = 0u64;
        for i in 0..20_000u64 {
            let now = Nanos::from_nanos(i * 500);
            match p.decide(&pkt(i, 5002), now, &mut meter, &mut locks) {
                Decision::Forward => fwd += 1,
                Decision::Drop => drops += 1,
            }
        }
        let end = Nanos::from_nanos(20_000 * 500);
        p.sync_gauges(end);
        let snap = registry.snapshot(end);
        // Registry counters agree with the decisions the caller saw.
        assert_eq!(snap.counter("fv.class.1:20.forwarded"), fwd);
        assert_eq!(snap.counter("fv.class.1:20.dropped"), drops);
        assert!(drops > 0);
        // The idle sibling never produced a verdict.
        assert_eq!(snap.counter("fv.class.1:10.forwarded"), 0);
        // Refill epochs fired and were traced by the tree.
        assert!(snap.counter("fv.tree.updates") > 0);
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == TraceKind::SchedDrop && e.a == 20));
        // Refill events are sparse (one epoch per 50 us), so look past the
        // snapshot's 64-event tail into the full ring.
        let ring = registry.ring();
        assert!(ring
            .recent(ring.capacity())
            .iter()
            .any(|e| e.kind == TraceKind::TokenRefill));
        // sync_gauges published the configured rate for the leaf.
        match snap.get("fv.class.1:20.theta_bps") {
            Some(fv_telemetry::MetricValue::Gauge { value, .. }) => {
                assert!(*value > 0, "theta gauge should be non-zero");
            }
            other => panic!("expected theta gauge, got {other:?}"),
        }
    }

    #[test]
    fn clock_skew_hook_keeps_scheduler_time_monotonic() {
        /// Runs the scheduler clock 100 us ahead inside `[0, 10us)`.
        #[derive(Debug)]
        struct Skew;
        impl SchedChaosHook for Skew {
            fn sched_clock_skew(&self, now: Nanos) -> Nanos {
                if now < Nanos::from_micros(10) {
                    Nanos::from_micros(100)
                } else {
                    Nanos::ZERO
                }
            }
        }
        let mut p = pipeline_10g();
        p.install_chaos_hook(Arc::new(Skew));
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        // Inside the window the scheduler sees t ≈ 100 us; once the skew
        // clears, its clock must not rewind below the floor — the packets
        // at 20..100 us keep scheduling against a ≥ 100 us clock, so no
        // epoch rewind panics or double refills occur and packets at a
        // conforming rate still pass.
        let mut fwd = 0;
        for i in 0..50u64 {
            let now = Nanos::from_micros(i * 2);
            if p.decide(&pkt(i, 5001), now, &mut meter, &mut locks) == Decision::Forward {
                fwd += 1;
            }
        }
        // 1250 B every 2 us = 5 Gbps offered to a 10 Gbps class.
        assert_eq!(fwd, 50);
        assert!(p.sched_floor >= Nanos::from_micros(100));
    }

    #[test]
    fn decide_stamps_classify_and_sched_spans() {
        let mut p = pipeline_10g();
        let registry = Registry::new();
        p.attach_telemetry(&registry);
        let mut meter = CostMeter::new(CycleCosts::agilio());
        let mut locks = LockTable::new(16);
        let _ = p.decide(&pkt(3, 5001), Nanos::from_micros(1), &mut meter, &mut locks);
        let snap = registry.snapshot(Nanos::from_micros(2));
        for metric in ["span.classify_ns", "span.sched_ns"] {
            let h = snap.histogram(metric).unwrap_or_else(|| panic!("{metric}"));
            assert_eq!(h.count, 1, "{metric}");
            assert!(h.min > 0, "{metric} should have nonzero duration");
        }
        // Ring carries both spans with the packet id, sched after classify.
        let events = registry.ring().recent(16);
        let classify = events
            .iter()
            .find(|e| e.kind == TraceKind::SpanClassify)
            .expect("classify span");
        let sched = events
            .iter()
            .find(|e| e.kind == TraceKind::SpanSched)
            .expect("sched span");
        assert_eq!(classify.a, 3);
        assert_eq!(sched.a, 3);
        assert_eq!(sched.at.as_nanos(), classify.at.as_nanos() + classify.b);
    }
}
