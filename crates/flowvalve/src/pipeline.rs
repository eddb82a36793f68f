//! The NIC back-end pipeline: labeling function + scheduling function,
//! plugged into the SmartNIC model as an egress decider (paper Figure 5).

use std::sync::Arc;

use classifier::{CacheResult, Classifier, FilterRule, FilterTable};
use fv_audit::{AuditVerdict, NoObserver, ProvenanceRecord, ProvenanceRing, Recorder, Sampler};
use fv_telemetry::metrics::Counter;
use fv_telemetry::span::{SpanRecorder, Stage};
use fv_telemetry::trace::TraceKind;
use fv_telemetry::Registry;
use netstack::packet::Packet;
use np_sim::config::NicConfig;
use np_sim::cost::{AttrStage, CostMeter, Op};
use np_sim::fault::FaultInjector;
use np_sim::lock::LockTable;
use np_sim::nic::{Decision, EgressDecider};
use sim_core::time::{Cycles, Nanos};

use crate::error::{BuildTreeError, ParseFvError};
use crate::frontend::Policy;
use crate::label::{ClassId, QosLabel};
use crate::program::{ChainId, CompiledProgram};
use crate::sched::{LockDiscipline, SchedVerdict, SimExec};
use crate::tree::{ClassCounters, SchedulingTree, TreeParams};

type Tally = fn(ClassCounters) -> u64;

/// The verdict tallies the registry reads from the tree, by name.
const VERDICTS: [(&str, Tally); 4] = [
    ("forwarded", |c| c.forwarded),
    ("borrowed", |c| c.borrowed),
    ("dropped", |c| c.dropped),
    ("lent", |c| c.lent),
];

/// Registry wiring for the pipeline's per-class accounting
/// (`fv.class.<id>.*` namespace, exact) and its per-packet records:
/// classify/sched spans and verdict events, for sampled packets. The
/// verdicts are views over the tree's tallies; `tx_bits` is a cell.
struct PipelineTelemetry {
    registry: Registry,
    /// Wire bits passed per class, indexed by the tree's node index.
    tx_bits: Vec<Arc<Counter>>,
    spans: SpanRecorder,
}

impl PipelineTelemetry {
    fn new(registry: &Registry, tree: &Arc<SchedulingTree>) -> Self {
        let tx_bits = (0..tree.len())
            .map(|idx| {
                let id = tree.node(idx).spec.id;
                for (verdict, of) in VERDICTS {
                    let tree = Arc::clone(tree);
                    let read = move || tree.counters(id).map_or(0, of);
                    registry.counter_view(&format!("fv.class.{id}.{verdict}"), read);
                }
                registry.counter(&format!("fv.class.{id}.tx_bits"))
            })
            .collect();
        PipelineTelemetry {
            registry: registry.clone(),
            tx_bits,
            spans: SpanRecorder::new(registry),
        }
    }

    /// Counts a passing verdict's wire bits in its leaf's cell, found by
    /// node index (every packet), and traces the verdict (sampled packets).
    /// The add is single-writer: the one caller is `decide`, from behind
    /// the pipeline's `&mut self`.
    fn record(
        &self,
        now: Nanos,
        pkt_id: u64,
        (leaf_node, leaf): (usize, ClassId),
        wire_bits: u64,
        verdict: SchedVerdict,
    ) {
        let (kind, b) = match verdict {
            SchedVerdict::Forward => (TraceKind::SchedForward, wire_bits),
            SchedVerdict::Borrowed(lender) => (TraceKind::SchedBorrow, lender.0 as u64),
            SchedVerdict::Drop => (TraceKind::SchedDrop, wire_bits),
        };
        if verdict.passes() {
            self.tx_bits[leaf_node].add_single_writer(wire_bits);
        }
        self.spans.event(now, kind, pkt_id, leaf.0 as u64, b);
    }
}

/// The pipeline's provenance-capture attachment: where sampled records
/// go and which packets are sampled.
#[derive(Debug, Clone)]
struct AuditHook {
    ring: Arc<ProvenanceRing>,
    sampler: Sampler,
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
    /// Labeled packets decided (each ran the chain its flow-cache entry
    /// carried).
    decisions: u64,
    update_hold: Nanos,
    discipline: LockDiscipline,
    freq: sim_core::time::Freq,
    framing: sim_core::units::WireFraming,
    telemetry: Option<PipelineTelemetry>,
    /// Provenance capture: sampled decisions re-run nothing — the single
    /// walk executes with a recorder threaded through it and the finished
    /// record lands in the ring. `None` (the default) costs one branch.
    audit: Option<AuditHook>,
    /// Asked for the scheduling clock's skew on every decision.
    faults: Option<Arc<dyn FaultInjector>>,
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
    /// Filter table + flow cache over compiled verdicts: the admission
    /// chain of the flow's [`QosLabel`], `None` for unlabeled traffic.
    classifier: Classifier<Option<ChainId>>,
    /// The scheduling tree flattened into admission chains, one per
    /// distinct label of the policy.
    program: CompiledProgram,
    /// The flow-cache capacity the pipeline was built with; a reload
    /// allocates the new cache at the same size.
    cache_capacity: usize,
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
    ) -> Result<Self, BuildTreeError> {
        let program = CompiledProgram::compile(
            tree,
            table
                .iter()
                .filter_map(|r| r.verdict.as_ref())
                .chain(table.default_verdict().iter()),
        )?;
        let table = table.map(|verdict| {
            verdict.map(|label| program.resolve(&label).expect("compiled just above"))
        });
        Ok(Compiled {
            classifier: Classifier::from_table(table, cache_capacity),
            program,
            cache_capacity,
        })
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
        Ok(Self::from_parts(Arc::new(tree), rules, default, nic)?)
    }

    /// Assembles a pipeline from an already-built tree and classifier
    /// (e.g. with a non-default flow-cache capacity, for the cache
    /// ablation experiments). The classifier's rule table and cache
    /// capacity are kept; its cached flows are not.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTreeError::UnknownBorrowClass`] if a rule's label
    /// names a class absent from `tree`.
    pub fn from_classifier(
        tree: Arc<SchedulingTree>,
        classifier: Classifier<Option<QosLabel>>,
        nic: &NicConfig,
    ) -> Result<Self, BuildTreeError> {
        let (table, cache_capacity) = classifier.into_parts();
        Self::assemble(tree, table, cache_capacity, nic)
    }

    /// Assembles a pipeline from an already-built tree and compiled rules.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTreeError::UnknownBorrowClass`] if a label names a
    /// class absent from `tree`.
    pub fn from_parts(
        tree: Arc<SchedulingTree>,
        rules: Vec<FilterRule<Option<QosLabel>>>,
        default: Option<QosLabel>,
        nic: &NicConfig,
    ) -> Result<Self, BuildTreeError> {
        let table = FilterTable::from_rules(default, rules);
        Self::assemble(tree, table, Self::DEFAULT_CACHE_CAPACITY, nic)
    }

    fn assemble(
        tree: Arc<SchedulingTree>,
        table: FilterTable<Option<QosLabel>>,
        cache_capacity: usize,
        nic: &NicConfig,
    ) -> Result<Self, BuildTreeError> {
        Ok(FlowValvePipeline {
            compiled: Compiled::new(&tree, table, cache_capacity)?,
            tree,
            reload_gen: 0,
            pending_compile_ops: 0,
            decisions: 0,
            // The guarded update section holds its lock for the
            // class_update cycle cost at the configured clock.
            update_hold: nic.freq.duration_of(Cycles::new(nic.costs.class_update)),
            discipline: LockDiscipline::PerClass,
            freq: nic.freq,
            framing: nic.framing,
            telemetry: None,
            audit: None,
            faults: None,
            sched_floor: Nanos::ZERO,
        })
    }

    /// Installs the fault injector consulted on every scheduling decision
    /// (the dual-clock-skew fault): it sees the NIC clock and answers, via
    /// [`FaultInjector::sched_clock_skew`], how far ahead the scheduler's
    /// clock runs. Hand it the injector the NIC holds.
    pub fn install_fault_injector(&mut self, injector: Arc<dyn FaultInjector>) {
        self.faults = Some(injector);
    }

    /// Attaches sampled provenance capture. Decisions whose packet id the
    /// sampler selects run their one and only admission walk with a
    /// recorder threaded through it — nothing is re-executed — and the
    /// finished [`ProvenanceRecord`] lands in `ring`, resolvable by
    /// `fv why --pkt <id>`. Unsampled decisions pay a single predictable
    /// branch; without this call the capture code is erased entirely.
    ///
    /// Pass the sampler of the registry the pipeline's telemetry is
    /// attached to (`registry.sampler()`), so the packets with provenance
    /// are the packets with spans and trace events.
    pub fn attach_auditor(&mut self, ring: Arc<ProvenanceRing>, sampler: Sampler) {
        self.audit = Some(AuditHook { ring, sampler });
    }

    /// Wires per-class counters (`fv.class.<id>.*`, exact; verdicts read
    /// from [`SchedulingTree::counters`]), the classify/sched spans and
    /// verdict trace events of sampled packets, and the tree's refill
    /// telemetry into `registry`. Typically called with the same registry
    /// the owning [`np_sim::nic::SmartNic`] records into, so one snapshot
    /// covers the whole pipeline.
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

    /// The shared scheduling tree (for experiment-side telemetry).
    pub fn tree(&self) -> &Arc<SchedulingTree> {
        &self.tree
    }

    /// Hot-reloads the policy: compiles `policy` with the same parameters
    /// and atomically replaces the scheduling tree and the classifier.
    /// In-flight classification state (the flow cache) is invalidated, so
    /// the next packet of every flow re-classifies against the new rules —
    /// the runtime reconfiguration that fixed-function NIC traffic
    /// managers lack (paper §II-B). The new flow cache has the running
    /// one's capacity.
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
        // Classifier and program are rebuilt against the new tree and
        // swapped in together: the fresh flow cache holds no entry, so
        // no chain id of the old program can be read again. The compile
        // work is charged (Op::ProgramCompile) on the next decision — paid
        // at reconfiguration time, not per packet.
        self.compiled = Compiled::new(
            &tree,
            FilterTable::from_rules(default, rules),
            self.compiled.cache_capacity,
        )?;
        let old = std::mem::replace(&mut self.tree, Arc::new(tree));
        self.reload_gen = self.reload_gen.wrapping_add(1);
        self.pending_compile_ops += self.compiled.program.compile_ops();
        self.update_hold = nic.freq.duration_of(Cycles::new(nic.costs.class_update));
        self.freq = nic.freq;
        self.framing = nic.framing;
        // Re-wire telemetry against the new tree: classes may have changed,
        // and the fresh tree has no ring attached yet. The old tree's
        // verdict views freeze at their totals and let it go; the new
        // tree's continue those of the classes it keeps.
        if let Some(t) = &self.telemetry {
            let registry = t.registry.clone();
            for id in old.class_ids() {
                for (verdict, _) in VERDICTS {
                    registry.counter_view(&format!("fv.class.{id}.{verdict}"), || 0);
                }
            }
            self.tree.attach_telemetry(&registry);
            self.telemetry = Some(PipelineTelemetry::new(&registry, &self.tree));
        }
        Ok(())
    }

    /// Flow-cache statistics.
    pub fn cache_stats(&self) -> classifier::CacheStats {
        self.compiled.classifier.cache_stats()
    }

    /// (labeled packets decided, 0). Every decision runs the admission
    /// chain carried in its flow-cache entry; the second count was the
    /// interpreted walker's and stays in the signature for the whole-path
    /// benchmark, which reads both.
    pub fn decision_cache_stats(&self) -> (u64, u64) {
        (self.decisions, 0)
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
            meter.charge_n(Op::ProgramCompile, self.pending_compile_ops);
            self.pending_compile_ops = 0;
        }
        // Labeling function: exact-match cache with table-walk fill, on
        // this worker's cache shard (per-island EMFC model: a flow misses
        // once per island it is dispatched to). The entry carries the
        // flow's compiled verdict: its admission chain.
        let classify_t0 = meter.total();
        let Compiled {
            classifier,
            program,
            ..
        } = &mut self.compiled;
        let (&chain, cache) = classifier.classify_at(meter.worker(), &pkt.flow, pkt.vf);
        meter.charge(match cache {
            CacheResult::Hit => Op::ClassifyHit,
            CacheResult::Miss => Op::ClassifyMiss,
        });
        // The leaf class a chain admits for, as telemetry and provenance
        // name it: node index and class id.
        let leaf_of = |chain| {
            let node = program.leaf(chain);
            (node, self.tree.node(node).spec.id)
        };
        // Wire bits (frame + preamble/IFG): what the token buckets meter
        // and what an attribution sink weighs heavy hitters by.
        let wire_bits = self.framing.wire_bits(pkt.frame_len as u64);
        // The records keyed by this packet — classify and sched span, the
        // sink's classification feed — exist on an observed pipeline for
        // the packets its registry samples. Everyone else skips what would
        // only feed them, the cycles-to-nanoseconds conversions included.
        let traced = self
            .telemetry
            .as_ref()
            .filter(|t| t.spans.sampled(pkt.id))
            .map(|t| {
                if let Some(sink) = t.spans.sink_for(pkt.id) {
                    // Tell the attribution sink this packet's class before
                    // any of its spans land, so every span attributes
                    // cleanly.
                    let class = chain.map_or(u64::MAX, |c| {
                        let (_, leaf) = leaf_of(c);
                        leaf.0 as u64
                    });
                    sink.classify(pkt.id, class, pkt.flow.stable_hash(), wire_bits);
                }
                // Classify span: the cycles this packet's labeling charged
                // to the worker, converted at the NIC clock. Starts when
                // the worker picked the packet up (`now` here is the
                // dispatch start).
                let classify_dur = self.freq.duration_of(meter.total() - classify_t0);
                t.spans.record(Stage::Classify, now, pkt.id, classify_dur);
                (t, classify_dur)
            });

        // Scheduling function (Algorithm 1); unlabeled traffic bypasses it.
        // Tokens are metered in *wire* bits: a tree whose root rate equals
        // the line rate must admit exactly what the wire can carry, or the
        // transmit FIFO builds a standing queue.
        let Some(chain) = chain else {
            return Decision::Forward;
        };
        // The scheduling function reads its own clock, which an injected
        // skew fault can run ahead of the NIC clock. Keep it monotonic so
        // epochs never rewind when the skew clears.
        let sched_now = match &self.faults {
            Some(f) => {
                let skewed = now + f.sched_clock_skew(now);
                self.sched_floor = self.sched_floor.max(skewed);
                self.sched_floor
            }
            None => now,
        };
        let sched_t0 = meter.total();
        // The chain was resolved when the policy was compiled and came
        // with the flow-cache entry; a reload replaces classifier and
        // program together, so it is never stale.
        self.decisions += 1;
        let mut exec = SimExec::new(meter, locks, self.update_hold, self.discipline);
        let verdict = match self.audit.as_ref().filter(|a| a.sampler.hit(pkt.id)) {
            // Sampled: the same single walk runs with a recorder threaded
            // through it; charges and verdict are identical to the
            // unsampled path.
            Some(audit) => {
                let (_, leaf) = leaf_of(chain);
                let mut rec = Recorder::new();
                let verdict = self
                    .tree
                    .run(program, chain, wire_bits, sched_now, &mut exec, &mut rec);
                audit.ring.record(ProvenanceRecord {
                    pkt_id: pkt.id,
                    at: sched_now,
                    leaf: leaf.0,
                    wire_bits,
                    verdict: match verdict {
                        SchedVerdict::Forward => AuditVerdict::Forward,
                        SchedVerdict::Borrowed(l) => AuditVerdict::Borrowed(l.0),
                        SchedVerdict::Drop => AuditVerdict::Drop,
                    },
                    cache_hit: cache == CacheResult::Hit,
                    reload_gen: self.reload_gen,
                    epoch: self.tree.epoch(),
                    chain: chain.index(),
                    steps: rec.steps,
                });
                verdict
            }
            None => self.tree.run(
                program,
                chain,
                wire_bits,
                sched_now,
                &mut exec,
                &mut NoObserver,
            ),
        };
        // Under the global lock the worker spins while it waits: charge the
        // wait as busy cycles.
        let wait = exec.wait;
        if wait > Nanos::ZERO {
            meter.charge_cycles(AttrStage::Sched, self.freq.cycles_in(wait));
        }
        if let Some((t, classify_dur)) = traced {
            // Sched span: every cycle the scheduling function charged
            // (token grabs, lock waits, updates), placed right after the
            // classify span on the same worker.
            let sched_dur = self.freq.duration_of(meter.total() - sched_t0);
            t.spans
                .record(Stage::Sched, now + classify_dur, pkt.id, sched_dur);
        }
        if let Some(t) = &self.telemetry {
            t.record(now, pkt.id, leaf_of(chain), wire_bits, verdict);
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
    use crate::sched::tests::reference;
    use fv_audit::{DropCause, Ledger};
    use netstack::flow::FlowKey;
    use netstack::packet::{AppId, VfPort};
    use np_sim::config::CycleCosts;
    use sim_core::rng::SimRng;

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
    fn compiled_verdict_is_a_quarter_of_the_label() {
        // Unlabeled `None` included: the flow-cache entry is sized by this.
        assert!(std::mem::size_of::<Option<ChainId>>() <= 8);
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
    fn a_nic_past_255_engines_charges_and_shards_by_the_real_engine() {
        use np_sim::cost::CycleAttr;
        use np_sim::nic::SmartNic;
        let mut cfg = NicConfig::agilio_cx_10g();
        cfg.num_mes = 300;
        let policy = Policy::parse(
            "fv qdisc add dev nic0 root handle 1: fv\n\
             fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
             fv class add dev nic0 parent 1:1 classid 1:10 name hi\n\
             fv filter add dev nic0 match ip dport 5001 flowid 1:10\n",
        )
        .unwrap();
        let pipeline = FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).unwrap();
        let mut nic = SmartNic::new(cfg, Box::new(pipeline));
        let attr = Arc::new(CycleAttr::new(300));
        nic.attach_probe(Arc::clone(&attr));
        // A burst at t = 0 takes engine i for packet i. One flow visits
        // engines 0 and 256 only, which share flow-cache shard 0; every
        // other packet is a second flow.
        for i in 0..300u64 {
            let src_port = if i % 256 == 0 { 40_000 } else { 40_001 };
            let flow = FlowKey::tcp([10, 0, 0, 1], src_port, [10, 0, 0, 2], 5001);
            let p = Packet::new(i, flow, 64, AppId(0), VfPort(0), Nanos::ZERO);
            let _ = nic.rx(&p, Nanos::ZERO);
        }
        let cells = attr.cells();
        let cell = |worker, op| {
            cells
                .iter()
                .find(|c| (c.worker, c.op) == (worker, Some(op)))
                .map(|c| c.count)
        };
        // Each engine's charges land in its own row, none in the overflow.
        assert_eq!(cell(299, Op::Parse), Some(1));
        assert!(cells.iter().all(|c| c.worker < 300), "overflow row used");
        // Engine 256 found the flow engine 0 cached in shard 0.
        assert_eq!(cell(256, Op::ClassifyHit), Some(1));
        assert_eq!(cell(256, Op::ClassifyMiss), None);
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
        impl FaultInjector for Skew {
            fn sched_clock_skew(&self, now: Nanos) -> Nanos {
                if now < Nanos::from_micros(10) {
                    Nanos::from_micros(100)
                } else {
                    Nanos::ZERO
                }
            }
        }
        let mut p = pipeline_10g();
        p.install_fault_injector(Arc::new(Skew));
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
        let registry = Registry::with_sampler(1024, Sampler::one_in_pow2(0));
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

    const POLICY_V1: &str = "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name a weight 1\n\
         fv class add dev nic0 parent 1:1 classid 1:20 name b weight 1\n\
         fv filter add dev nic0 match ip dport 5001 flowid 1:10 borrow 1:20\n\
         fv filter add dev nic0 match ip dport 5002 flowid 1:20 borrow 1:10\n";

    /// V2 skews the weights, halves the root and ceils `b`: a real
    /// reconfiguration, not a no-op reload. It also lists the filters the
    /// other way round, so the two labels trade chain ids: a chain id that
    /// survived the reload would run the *other* class's admission.
    const POLICY_V2: &str = "fv qdisc add dev nic0 root handle 1: fv\n\
         fv class add dev nic0 parent root classid 1:1 rate 5gbit\n\
         fv class add dev nic0 parent 1:1 classid 1:10 name a weight 1\n\
         fv class add dev nic0 parent 1:1 classid 1:20 name b weight 3 ceil 3gbit\n\
         fv filter add dev nic0 match ip dport 5002 flowid 1:20 borrow 1:10\n\
         fv filter add dev nic0 match ip dport 5001 flowid 1:10 borrow 1:20\n";

    /// A pipeline with its own execution world.
    struct Side {
        pipe: FlowValvePipeline,
        meter: CostMeter,
        locks: LockTable,
    }

    impl Side {
        fn new(policy: &str) -> Self {
            let policy = Policy::parse(policy).unwrap();
            let nic = NicConfig::agilio_cx_10g();
            Side {
                pipe: FlowValvePipeline::compile(&policy, TreeParams::default(), &nic).unwrap(),
                meter: CostMeter::new(CycleCosts::agilio()),
                locks: LockTable::new(64),
            }
        }

        fn decide(&mut self, p: &Packet, now: Nanos) -> Decision {
            self.pipe.decide(p, now, &mut self.meter, &mut self.locks)
        }

        fn reload(&mut self, policy: &str) -> Result<(), ParseFvError> {
            let policy = Policy::parse(policy).expect("parses");
            let nic = NicConfig::agilio_cx_10g();
            self.pipe.reload(&policy, TreeParams::default(), &nic)
        }

        /// The chain the installed program runs for `leaf` borrowing from
        /// `lender`, as provenance records number it.
        fn chain_of(&self, leaf: u16, lender: u16) -> u32 {
            let label = self.pipe.tree.label(ClassId(leaf), &[ClassId(lender)]);
            let chain = self
                .pipe
                .compiled
                .program
                .resolve(&label.expect("label builds"));
            chain.expect("the policy emits this label").index()
        }
    }

    /// The reference walker over its own build of a policy's tree: what a
    /// pipeline running that policy must decide for dports 5001 and 5002.
    struct Spec {
        tree: SchedulingTree,
        labels: [QosLabel; 2],
        framing: sim_core::units::WireFraming,
    }

    impl Spec {
        fn new(policy: &str) -> Self {
            let policy = Policy::parse(policy).unwrap();
            let (tree, _, _) = policy.compile(TreeParams::default()).unwrap();
            let labels = [(10, 20), (20, 10)]
                .map(|(leaf, lender)| tree.label(ClassId(leaf), &[ClassId(lender)]).unwrap());
            Spec {
                tree,
                labels,
                framing: NicConfig::agilio_cx_10g().framing,
            }
        }

        fn verdict(&self, p: &Packet, now: Nanos) -> AuditVerdict {
            let label = &self.labels[usize::from(p.flow.dst_port - 5_001)];
            let bits = self.framing.wire_bits(p.frame_len as u64);
            match reference(&self.tree, label, bits, now) {
                SchedVerdict::Forward => AuditVerdict::Forward,
                SchedVerdict::Borrowed(l) => AuditVerdict::Borrowed(l.0),
                SchedVerdict::Drop => AuditVerdict::Drop,
            }
        }
    }

    fn sized_pkt(id: u64, dport: u16, frame_len: u32) -> Packet {
        Packet {
            frame_len,
            ..pkt(id, dport)
        }
    }

    #[test]
    fn a_label_naming_a_foreign_class_fails_assembly() {
        let nic = NicConfig::agilio_cx_10g();
        let policy = Policy::parse(POLICY_V1).unwrap();
        let (tree, rules, default) = policy.compile(TreeParams::default()).unwrap();
        let tree = Arc::new(tree);
        // A label this tree never built: the leaf exists, a lender does not.
        let foreign = QosLabel::new(&[ClassId(1), ClassId(10)], &[ClassId(99)]);
        let unknown = BuildTreeError::UnknownBorrowClass(ClassId(99));
        let as_default = FlowValvePipeline::from_parts(tree.clone(), rules, Some(foreign), &nic);
        assert_eq!(as_default.err(), Some(unknown.clone()));
        let mut classifier = Classifier::new(default, 16);
        classifier.add_rule(FilterRule::new(0, Default::default(), Some(foreign)));
        let as_rule = FlowValvePipeline::from_classifier(tree, classifier, &nic);
        assert_eq!(as_rule.err(), Some(unknown));
    }

    #[test]
    fn a_reload_naming_a_foreign_class_leaves_the_running_policy_untouched() {
        let mut side = Side::new(POLICY_V1);
        for id in 0..100 {
            side.decide(&pkt(id, 5001), Nanos::from_micros(id));
        }
        let (stats, chain, tree) = (
            side.pipe.cache_stats(),
            side.chain_of(10, 20),
            Arc::as_ptr(side.pipe.tree()),
        );
        // Parses; the class is only missed when the policy is compiled.
        let bad = POLICY_V2.replace("flowid 1:10 borrow 1:20", "flowid 1:10 borrow 1:99");
        let unknown = BuildTreeError::UnknownBorrowClass(ClassId(99));
        assert_eq!(side.reload(&bad), Err(ParseFvError::Build(unknown)));
        // Same tree, same program, same flow cache, no compile charge
        // pending: the flow's next packet still hits and runs its chain.
        let cycles = side.meter.total();
        side.decide(&pkt(100, 5001), Nanos::from_micros(100));
        assert!((side.meter.total() - cycles).get() < CycleCosts::agilio().program_compile);
        assert_eq!(side.pipe.cache_stats().hits, stats.hits + 1);
        assert_eq!(side.pipe.cache_stats().misses, stats.misses);
        assert_eq!(side.chain_of(10, 20), chain);
        assert_eq!(Arc::as_ptr(side.pipe.tree()), tree);
        assert_eq!(side.pipe.reload_gen, 0);
    }

    #[test]
    fn a_reload_keeps_a_custom_flow_cache_capacity() {
        let nic = NicConfig::agilio_cx_10g();
        let policy = Policy::parse(POLICY_V1).unwrap();
        let (tree, rules, default) = policy.compile(TreeParams::default()).unwrap();
        let classifier = Classifier::from_table(FilterTable::from_rules(default, rules), 64);
        let mut side = Side {
            pipe: FlowValvePipeline::from_classifier(Arc::new(tree), classifier, &nic).unwrap(),
            meter: CostMeter::new(CycleCosts::agilio()),
            locks: LockTable::new(64),
        };
        side.reload(POLICY_V2).unwrap();
        // 64 flows over 8 shards hold 8 per stripe, so 16 flows cycled
        // twice on one stripe miss again on the second lap; a cache
        // regrown to the 65 536-flow default would hit the whole of it.
        for id in 0..32u64 {
            let flow = FlowKey::tcp(
                [10, 0, 0, 1],
                40_000 + (id % 16) as u16,
                [10, 0, 0, 2],
                5001,
            );
            side.decide(
                &Packet {
                    flow,
                    ..pkt(id, 5001)
                },
                Nanos::from_micros(id),
            );
        }
        let s = side.pipe.cache_stats();
        assert!(s.misses > 16, "second lap hit: {s:?}");
    }

    #[test]
    fn the_registry_reads_verdict_counts_across_reloads() {
        // About 12 Gbps, seven packets in eight to the busy class, which
        // alternates every 256 packets: both leaves forward, borrow, lend
        // and drop.
        let offer = |side: &mut Side, ids: std::ops::Range<u64>| {
            for id in ids {
                let busy = 5_001 + (id / 256 % 2) as u16;
                let dport = if id % 8 == 0 { 10_003 - busy } else { busy };
                side.decide(&sized_pkt(id, dport, 1_000), Nanos::from_nanos(id * 700));
            }
        };
        let mut side = Side::new(POLICY_V1);
        let registry = Registry::new();
        side.pipe.attach_telemetry(&registry);
        offer(&mut side, 0..20_000);
        let old = Arc::clone(side.pipe.tree());
        side.reload(POLICY_V2).unwrap();
        offer(&mut side, 20_000..40_000);
        let totals = registry.counter_totals();
        // The same registry again moves no total.
        side.pipe.attach_telemetry(&registry);
        assert_eq!(registry.counter_totals(), totals);

        // Each class's counters are the old tree's counts at the reload
        // plus the new tree's, and the leaves' verdicts are the decisions.
        let snap = registry.snapshot(Nanos::ZERO);
        let read = |id, verdict| snap.counter(&format!("fv.class.{id}.{verdict}"));
        let (new, ids) = (side.pipe.tree(), old.class_ids());
        let sum = |verdict| ids.iter().map(|&id| read(id, verdict)).sum::<u64>();
        for &id in &ids {
            let (a, b) = (old.counters(id).unwrap(), new.counters(id).unwrap());
            for (verdict, of) in VERDICTS {
                assert_eq!(read(id, verdict), of(a) + of(b), "{id} {verdict}");
            }
        }
        assert!(old.counters(ClassId(10)).unwrap().borrowed > 0 && sum("dropped") > 0);
        assert_eq!(sum("lent"), sum("borrowed"));
        let decided = sum("forwarded") + sum("borrowed") + sum("dropped");
        assert_eq!(decided, side.pipe.decision_cache_stats().0);

        // A reload that removes 1:20 keeps every total where it stands and
        // lets both earlier trees go.
        let trees = [Arc::downgrade(&old), Arc::downgrade(new)];
        drop(old);
        side.reload(
            "fv qdisc add dev nic0 root handle 1: fv\n\
             fv class add dev nic0 parent root classid 1:1 rate 10gbit\n\
             fv class add dev nic0 parent 1:1 classid 1:10\n\
             fv filter add dev nic0 match ip dport 5001 flowid 1:10\n",
        )
        .unwrap();
        assert!(trees.iter().all(|t| t.upgrade().is_none()));
        assert_eq!(registry.counter_totals(), totals);
    }

    /// The traffic generator's state and what the traffic so far has put
    /// the pipeline through.
    struct Seen {
        rng: SimRng,
        now: Nanos,
        id: u64,
        labeled: u64,
        /// Packets decided under a later tree epoch than the labeled
        /// packet before them: the first packet after an epoch roll.
        after_epoch_roll: u64,
        /// Packets whose class went from its own tokens to a lender's or
        /// back: the first packet after a borrowing flip.
        after_borrow_flip: u64,
        over_ceil: u64,
        last_epoch: u64,
        last_borrowed: [Option<bool>; 2],
    }

    #[test]
    fn pipeline_decides_as_the_reference_across_reload_epoch_rolls_and_borrow_flips() {
        // The pipeline under test, every decision leaving a provenance
        // record; an unsampled twin (capture must not change a verdict or
        // a charge); and the reference walker on its own tree.
        let mut sampled = Side::new(POLICY_V1);
        let mut plain = Side::new(POLICY_V1);
        let mut spec = Spec::new(POLICY_V1);
        let ring = Arc::new(ProvenanceRing::new(256));
        sampled
            .pipe
            .attach_auditor(ring.clone(), Sampler::one_in_pow2(0));

        let mut seen = Seen {
            rng: SimRng::seed(0xabcdef0123456789),
            now: Nanos::ZERO,
            id: 0,
            labeled: 0,
            after_epoch_roll: 0,
            after_borrow_flip: 0,
            over_ceil: 0,
            last_epoch: 0,
            last_borrowed: [None; 2],
        };

        // Every packet: the reference's verdict, on both pipelines, and a
        // record that names the installed program's chain for the packet's
        // class under the current reload generation. Returns the labeled
        // packets' records.
        let drive = |sampled: &mut Side,
                     plain: &mut Side,
                     spec: &Spec,
                     seen: &mut Seen,
                     reload_gen: u64,
                     n: u64,
                     gap: Nanos| {
            let chains = [sampled.chain_of(10, 20), sampled.chain_of(20, 10)];
            let mut records = Vec::new();
            for _ in 0..n {
                seen.now += gap;
                seen.id += 1;
                let (now, id) = (seen.now, seen.id);
                let r = seen.rng.next_u64();
                // Mostly class traffic, a sprinkle of unmatched bypass. The
                // classes take turns being the busy one, 256 packets at a
                // time, so each in turn has tokens to lend and need to
                // borrow.
                let busy = 5_001 + (id / 256 % 2) as u16;
                let dport = match r % 10 {
                    0 => 9_999,
                    1..=8 => busy,
                    _ => 10_003 - busy,
                };
                let p = sized_pkt(id, dport, 200 + (r % 1_300) as u32);
                let decision = sampled.decide(&p, now);
                assert_eq!(decision, plain.decide(&p, now), "packet {id}");
                assert_eq!(sampled.meter.total(), plain.meter.total(), "packet {id}");
                let Some(rec) = ring.get(id) else {
                    assert_eq!(dport, 9_999, "labeled packet {id} left no record");
                    assert_eq!(decision, Decision::Forward, "bypass traffic is forwarded");
                    continue;
                };
                let class = usize::from(dport - 5_001);
                assert_eq!(rec.verdict, spec.verdict(&p, now), "packet {id} at {now:?}");
                assert_eq!(
                    decision == Decision::Drop,
                    rec.verdict == AuditVerdict::Drop
                );
                assert_eq!(rec.leaf, [10, 20][class], "packet {id}");
                assert_eq!(rec.chain, chains[class], "packet {id} ran a foreign chain");
                assert_eq!(rec.reload_gen, reload_gen, "packet {id}");
                seen.labeled += 1;
                seen.over_ceil += u64::from(rec.cause() == Some(DropCause::OverCeil));
                if rec.epoch > seen.last_epoch {
                    seen.after_epoch_roll += 1;
                }
                seen.last_epoch = rec.epoch;
                let borrowed = matches!(rec.verdict, AuditVerdict::Borrowed(_));
                if seen.last_borrowed[class].is_some_and(|was| was != borrowed) {
                    seen.after_borrow_flip += 1;
                }
                if rec.verdict != AuditVerdict::Drop {
                    seen.last_borrowed[class] = Some(borrowed);
                }
                records.push(rec);
            }
            records
        };

        // Phase 1 — overload: the 500 ns gap at ~850 B offers ~14 Gbps to a
        // 10 Gbps tree, most of it to the busy class, which runs dry,
        // borrows what the quiet one leaves and refills.
        let gap = Nanos::from_nanos(500);
        let warm = drive(&mut sampled, &mut plain, &spec, &mut seen, 0, 20_000, gap);
        for leaf in [10, 20] {
            let mut flow = warm.iter().filter(|r| r.leaf == leaf);
            let first = flow.next().expect("traffic");
            assert!(!first.cache_hit, "a flow's first packet walks the table");
            assert!(flow.all(|r| r.cache_hit), "a steady flow hits");
        }
        assert!(
            seen.after_borrow_flip > 10,
            "overload must flip borrowing: {}",
            seen.after_borrow_flip
        );
        assert!(seen.after_epoch_roll > 10, "{}", seen.after_epoch_roll);

        // Phase 2 — epoch rolls: every gap is past the update interval, so
        // every packet is the first one after a roll.
        let rolls_before = seen.after_epoch_roll;
        let gap = Nanos::from_micros(120);
        let rolled = drive(&mut sampled, &mut plain, &spec, &mut seen, 0, 200, gap);
        assert_eq!(seen.after_epoch_roll - rolls_before, rolled.len() as u64);

        // Phase 3 — hot reload: new tree, new program, the two labels'
        // chain ids traded. The first packet of either flow must already
        // run its class's chain in the new program (checked for every
        // packet inside `drive`), found by a table walk, not in the old
        // cache.
        let old_chains = [sampled.chain_of(10, 20), sampled.chain_of(20, 10)];
        sampled.reload(POLICY_V2).unwrap();
        plain.reload(POLICY_V2).unwrap();
        spec = Spec::new(POLICY_V2);
        assert_eq!(
            [sampled.chain_of(20, 10), sampled.chain_of(10, 20)],
            old_chains,
            "V2 must renumber the chains for this test to mean anything"
        );
        let gap = Nanos::from_nanos(500);
        let reloaded = drive(&mut sampled, &mut plain, &spec, &mut seen, 1, 20_000, gap);
        for leaf in [10, 20] {
            let first = reloaded.iter().find(|r| r.leaf == leaf).expect("traffic");
            assert!(!first.cache_hit, "the reload must empty the flow cache");
        }
        assert!(seen.over_ceil > 0, "V2's ceiling never refused a packet");

        // Phase 4 — a long idle gap (expired-status removal), then traffic.
        seen.now += Nanos::from_millis(5);
        let gap = Nanos::from_nanos(800);
        drive(&mut sampled, &mut plain, &spec, &mut seen, 1, 5_000, gap);

        // Every labeled packet was decided, through its chain.
        assert_eq!(sampled.pipe.decision_cache_stats(), (seen.labeled, 0));
        assert_eq!(plain.pipe.decision_cache_stats(), (seen.labeled, 0));
    }

    #[test]
    fn one_worker_decides_alike_under_either_lock_discipline() {
        // The discipline chooses the lock model around the guarded
        // updates, not the scheduling function. The global lock queues one
        // packet's own updates behind each other, so with a hold time they
        // run at later instants than under per-class try-locks; with a
        // guarded section that costs no time, one worker gets the same
        // verdicts either way, and records the same walks.
        let mut nic = NicConfig::agilio_cx_10g();
        nic.costs.class_update = 0;
        let policy = Policy::parse(POLICY_V2).unwrap();
        let mut sides = [LockDiscipline::PerClass, LockDiscipline::Global].map(|discipline| {
            let mut pipe = FlowValvePipeline::compile(&policy, TreeParams::default(), &nic)
                .unwrap()
                .with_lock_discipline(discipline);
            let ring = Arc::new(ProvenanceRing::new(1024));
            pipe.attach_auditor(ring.clone(), Sampler::default());
            let side = Side {
                pipe,
                meter: CostMeter::new(nic.costs),
                locks: LockTable::new(64),
            };
            (side, ring)
        });
        let mut rng = SimRng::seed(0x10c4_d15c);
        let mut drops = 0;
        for id in 0..40_000u64 {
            let r = rng.next_u64();
            let busy = 5_001 + (id / 256 % 2) as u16;
            let dport = if r.is_multiple_of(8) {
                10_003 - busy
            } else {
                busy
            };
            let p = sized_pkt(id, dport, 200 + (r % 1_300) as u32);
            let now = Nanos::from_nanos(id * 500);
            let [(per_class, _), (global, _)] = &mut sides;
            let decision = per_class.decide(&p, now);
            assert_eq!(decision, global.decide(&p, now), "packet {id}");
            drops += u64::from(decision == Decision::Drop);
        }
        assert!((4_000..36_000).contains(&drops), "{drops} drops");
        let [(per_class, per_class_ring), (global, global_ring)] = &sides;
        for cid in per_class.pipe.tree.class_ids() {
            assert_eq!(
                per_class.pipe.tree.counters(cid),
                global.pipe.tree.counters(cid)
            );
        }
        // Both disciplines are audited: the same sampled packets, the same
        // walks, and each ring conserves tokens against its own slab.
        let walks = |ring: &ProvenanceRing| {
            let records = ring.records();
            let walks = records.iter().map(|r| (r.pkt_id, r.canonical()));
            (walks.collect::<Vec<_>>(), records)
        };
        let (per_class_walks, per_class_records) = walks(per_class_ring);
        let (global_walks, global_records) = walks(global_ring);
        assert!(per_class_walks.len() > 500, "{}", per_class_walks.len());
        assert_eq!(per_class_walks, global_walks);
        for (side, records) in [(per_class, per_class_records), (global, global_records)] {
            let report = Ledger::audit(&records, &side.pipe.tree.slab_snapshot());
            assert!(report.ok(), "{}", report.render());
        }
    }
}
