//! The saturation run, written once: clean ([`saturate`]) or faulted
//! ([`run_chaos`]).
//!
//! Both drive the workload behind `fv demo`/`fv check` — one TCP flow per
//! filter, each offered an equal slice of 1.5x line rate for 10 ms on the
//! Agilio CX 40G model — through [`np_sim::harness::drive`], and both go
//! through the same private fixture: it builds the NIC, the registry and
//! whatever [`Attachments`] asks for, drives the sources, and tears the
//! run down into a [`Run`] (gauge sync, lock profile, bucket slab, ledger
//! fold, snapshot). The two entry points differ only in their per-packet
//! closure.
//!
//! [`run_chaos`] installs a [`ChaosController`] at every hook point: the
//! NIC's traffic manager, worker pool and lock table, the FlowValve
//! scheduler clock, and the host boundary. `reconfig` faults additionally
//! hot-reload the policy mid-run with every rate scaled, restoring the
//! original when the window closes. After the run, one
//! [`fv_scope::Slo::RateRecovers`] assertion per completed fault window
//! checks that aggregate NIC throughput returned to the root rate's
//! conformance band — the paper's pitch is that the offloaded scheduler
//! keeps shaping through disturbance, and this is where that claim is
//! pinned.

use std::sync::Arc;

use flowvalve::error::ParseFvError;
use flowvalve::frontend::Policy;
use flowvalve::pipeline::FlowValvePipeline;
use flowvalve::tree::{SchedulingTree, TreeParams};
use fv_audit::{BucketSnapshot, Ledger, ProvenanceRing};
use fv_scope::{evaluate, CheckReport, SamplerConfig, Slo, TimeSampler};
use fv_telemetry::json::{JsonValue, ToJson};
use fv_telemetry::{Registry, Snapshot, SpanSink};
use hostsim::HostChaosHook;
use netstack::flow::FlowKey;
use netstack::gen::LineRateProcess;
use netstack::packet::{AppId, Packet, VfPort};
use np_sim::config::NicConfig;
use np_sim::cost::CycleAttr;
use np_sim::harness::{drive, Source};
use np_sim::lock::PerLockStats;
use np_sim::nic::SmartNic;
use sim_core::time::Nanos;
use sim_core::units::BitRate;

use crate::inject::ChaosController;
use crate::plan::{FaultKind, FaultPlan};

/// Virtual time granted after a fault clears before recovery is judged.
pub const SETTLE: Nanos = Nanos::from_micros(500);

/// Simulated length of every saturation run.
const HORIZON: Nanos = Nanos::from_millis(10);

/// Source addresses run from 10.0.0.10 to 10.0.0.255, one per filter.
pub const MAX_FLOWS: usize = 246;

/// Provenance-ring slots: the newest 4096 sampled decisions. At the
/// registry's 1 packet in 64 that is more than a run makes, so `fv why` and
/// `fv audit` see every one.
const AUDIT_RING_CAPACITY: usize = 4096;

/// The observers a saturation run carries. Every one of them is an
/// observer only: the packet-level outcome of a run is the same whatever
/// is attached. None of them chooses a sampling rate: spans, per-packet
/// trace events, the probe's feed and provenance all follow the run
/// registry's one per-packet decision (`fv_telemetry::Sampler`).
#[derive(Clone)]
pub struct Attachments {
    /// Event-ring capacity (`fv trace` wants a deep ring).
    pub ring_capacity: usize,
    /// Attach a virtual-time sampler with this configuration.
    pub sampler: Option<SamplerConfig>,
    /// Attach the attribution probes: a [`CycleAttr`] sized for the NIC
    /// model on the cost meter (handed back as [`Run::cycles`]) and this
    /// sink on the registry's span path (fv-probe's `LatencyAttr`; the
    /// caller keeps its own handle).
    pub probe: Option<Arc<dyn SpanSink>>,
    /// Attach provenance capture for the packets the run's registry
    /// samples; after the run the records are folded through the
    /// conservation ledger into `audit.*` counters. Every sampled packet
    /// id of the run stays resident in the provenance ring.
    pub audit: bool,
}

impl Default for Attachments {
    /// What `fv demo` carries: a shallow event ring and provenance capture.
    fn default() -> Self {
        Attachments {
            ring_capacity: 1024,
            sampler: None,
            probe: None,
            audit: true,
        }
    }
}

/// Why a saturation run could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The policy has no filter, hence no flow to drive.
    NoFilters,
    /// The policy has more filters than there are source addresses.
    TooManyFilters(usize),
    /// The policy does not compile.
    Compile(ParseFvError),
    /// The policy scaled by a `reconfig` fault does not compile.
    Reconfig(ParseFvError),
}

impl core::fmt::Display for RunError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RunError::NoFilters => write!(f, "no filters to drive"),
            RunError::TooManyFilters(n) => write!(
                f,
                "{n} filters, but the saturation run drives one source per filter \
                 from 10.0.0.10 up and can address at most {MAX_FLOWS}"
            ),
            RunError::Compile(e) => write!(f, "{e}"),
            RunError::Reconfig(e) => write!(f, "reconfig fault failed to compile: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// The provenance capture of a run with [`Attachments::audit`] set; the
/// conservation ledger has already been folded into the run's `audit.*`
/// counters. The rate it was sampled at is the snapshot's
/// [`Snapshot::sample_period`].
#[derive(Debug)]
pub struct Audit {
    /// Every sampled decision.
    pub ring: Arc<ProvenanceRing>,
    /// End-of-run bucket-slab snapshot the ledger balanced against.
    pub slab: Vec<BucketSnapshot>,
}

/// Everything a saturation run leaves behind.
#[derive(Debug)]
pub struct Run {
    /// End-of-run registry snapshot.
    pub snapshot: Snapshot,
    /// The registry itself, for the full event ring.
    pub registry: Registry,
    /// The scheduling tree the policy compiled to.
    pub tree: Arc<SchedulingTree>,
    /// Simulated run length.
    pub horizon: Nanos,
    /// Rate offered by each flow.
    pub offered: BitRate,
    /// `stable_hash` → flow key of every driven flow, so profile output
    /// can name them.
    pub flow_names: Vec<(u64, FlowKey)>,
    /// Per-lock contention rows, collected on every run (cheap).
    pub lock_profile: Vec<PerLockStats>,
    /// The sampler that watched the run, when one was attached.
    pub sampler: Option<TimeSampler>,
    /// Cycle attribution, when the probes were attached.
    pub cycles: Option<Arc<CycleAttr>>,
    /// Provenance capture, when auditing was attached.
    pub audit: Option<Audit>,
}

/// What a chaos run adds to the [`Run`] underneath it.
#[derive(Debug)]
pub struct ChaosReport {
    /// The executed plan.
    pub plan: FaultPlan,
    /// The faulted run (its snapshot includes `chaos.*` and fault-drop
    /// counters).
    pub run: Run,
    /// Recovery assertions, one per completed fault window.
    pub recovery: CheckReport,
    /// Faults whose recovery could not be judged (window ends too late).
    pub unchecked: Vec<String>,
}

impl ChaosReport {
    /// Whether every recovery assertion held.
    pub fn passed(&self) -> bool {
        self.recovery.passed()
    }

    /// Renders a terminal summary: injections, fault drops, recovery.
    pub fn render(&self) -> String {
        let snap = &self.run.snapshot;
        let mut out = format!(
            "chaos: {} ms horizon, {} flows, {} faults planned (seed {})\n",
            self.run.horizon.as_nanos() / 1_000_000,
            self.run.flow_names.len(),
            self.plan.faults.len(),
            self.plan.seed,
        );
        for f in &self.plan.faults {
            out.push_str(&format!(
                "  fault {:<10} [{} us, {} us)\n",
                f.kind.name(),
                f.at.as_nanos() / 1_000,
                f.end().as_nanos() / 1_000,
            ));
        }
        out.push_str(&format!(
            "injected {} cleared {} | tm fault-drops {} host-skipped {}\n\n",
            snap.counter("chaos.faults_injected"),
            snap.counter("chaos.faults_cleared"),
            snap.counter("tm.fifo.fault_drops"),
            snap.counter("chaos.host_skipped"),
        ));
        for note in &self.unchecked {
            out.push_str(&format!("{note}\n"));
        }
        out.push_str(&self.recovery.render());
        out
    }
}

impl ToJson for ChaosReport {
    fn to_json(&self) -> JsonValue {
        let snap = &self.run.snapshot;
        JsonValue::obj([
            ("plan", self.plan.to_json()),
            ("horizon_ns", JsonValue::UInt(self.run.horizon.as_nanos())),
            ("flows", JsonValue::UInt(self.run.flow_names.len() as u64)),
            (
                "chaos",
                JsonValue::obj([
                    (
                        "faults_injected",
                        JsonValue::UInt(snap.counter("chaos.faults_injected")),
                    ),
                    (
                        "faults_cleared",
                        JsonValue::UInt(snap.counter("chaos.faults_cleared")),
                    ),
                    (
                        "tm_fault_drops",
                        JsonValue::UInt(snap.counter("tm.fifo.fault_drops")),
                    ),
                    (
                        "nic_fault_drops",
                        JsonValue::UInt(snap.counter("nic.fault_drops")),
                    ),
                    (
                        "host_skipped",
                        JsonValue::UInt(snap.counter("chaos.host_skipped")),
                    ),
                ]),
            ),
            ("recovery", self.recovery.to_json()),
            (
                "unchecked",
                JsonValue::arr(self.unchecked.iter().map(|s| JsonValue::Str(s.clone()))),
            ),
            ("passed", JsonValue::Bool(self.passed())),
            ("snapshot", self.run.snapshot.to_json()),
        ])
    }
}

/// Scales every class rate/ceil by `permille`/1000 (floor 1 bps).
fn scale_policy(policy: &Policy, permille: u64) -> Policy {
    let mut scaled = policy.clone();
    let scale = |r: BitRate| BitRate::from_bps((r.as_bps().saturating_mul(permille) / 1000).max(1));
    for c in &mut scaled.classes {
        c.rate = c.rate.map(scale);
        c.ceil = c.ceil.map(scale);
    }
    scaled
}

/// What each of `flows` flows offers: an equal slice of 1.5x line rate,
/// collectively oversubscribed so the policy has something to decide.
fn slice_of(cfg: &NicConfig, flows: usize) -> BitRate {
    cfg.line_rate.scaled(3, 2 * flows as u64)
}

/// The demo's sources: one TCP flow per filter, matched as precisely as
/// the filter allows, each a stream of 1518 B frames at [`slice_of`].
fn sources(policy: &Policy, cfg: &NicConfig) -> Result<Vec<Source>, RunError> {
    let n = policy.filters.len();
    if n == 0 {
        return Err(RunError::NoFilters);
    }
    let offered = slice_of(cfg, n);
    let numbered = policy.filters.iter().enumerate();
    numbered
        .map(|(i, f)| {
            // One range check covers the address, the ports and the VF id.
            let host = u8::try_from(10 + i).map_err(|_| RunError::TooManyFilters(n))?;
            let i = host - 10;
            let m = &f.matcher;
            Ok(Source {
                flow: FlowKey::tcp(
                    [10, 0, 0, host],
                    m.src_port.unwrap_or(41_000 + u16::from(i)),
                    [10, 0, 255, 1],
                    m.dst_port.unwrap_or(5_000 + u16::from(i)),
                ),
                app: AppId(u16::from(i)),
                vf: m.vf.unwrap_or(VfPort(i)),
                process: Box::new(LineRateProcess::new(offered, 1518, cfg.framing)),
            })
        })
        .collect()
}

/// The decider of a NIC that [`Fixture::build`] made.
fn pipeline_of(nic: &mut SmartNic) -> &mut FlowValvePipeline {
    nic.decider_as::<FlowValvePipeline>()
        .expect("build boxed a FlowValvePipeline into the NIC")
}

/// One saturation run between set-up and tear-down: `build`, then any
/// hooks the caller installs on `nic`/`registry`, then `drive`, then
/// `finish`.
struct Fixture {
    cfg: NicConfig,
    registry: Registry,
    nic: SmartNic,
    tree: Arc<SchedulingTree>,
    sources: Vec<Source>,
    sampler_cfg: Option<SamplerConfig>,
    sampler: Option<TimeSampler>,
    cycles: Option<Arc<CycleAttr>>,
    audit: Option<Arc<ProvenanceRing>>,
    flow_names: Vec<(u64, FlowKey)>,
}

impl Fixture {
    fn build(policy: &Policy, attach: Attachments) -> Result<Fixture, RunError> {
        let cfg = NicConfig::agilio_cx_40g();
        let sources = sources(policy, &cfg)?;
        let mut pipeline = FlowValvePipeline::compile(policy, TreeParams::default(), &cfg)
            .map_err(RunError::Compile)?;
        let registry = Registry::with_ring_capacity(attach.ring_capacity);
        pipeline.attach_telemetry(&registry);
        let audit = attach.audit.then(|| {
            let sampler = registry.sampler();
            let ring = Arc::new(ProvenanceRing::new(AUDIT_RING_CAPACITY));
            pipeline.attach_auditor(ring.clone(), sampler);
            ring
        });
        let tree = pipeline.tree().clone();
        let mut nic = SmartNic::with_registry(cfg.clone(), Box::new(pipeline), &registry);
        let cycles = attach.probe.map(|sink| {
            let attr = Arc::new(CycleAttr::new(cfg.num_mes));
            nic.attach_probe(attr.clone());
            registry.install_span_sink(sink);
            attr
        });
        Ok(Fixture {
            flow_names: sources
                .iter()
                .map(|s| (s.flow.stable_hash(), s.flow))
                .collect(),
            cfg,
            registry,
            nic,
            tree,
            sources,
            sampler_cfg: attach.sampler,
            sampler: None,
            cycles,
            audit,
        })
    }

    fn pipeline(&mut self) -> &mut FlowValvePipeline {
        pipeline_of(&mut self.nic)
    }

    /// Merges the sources and hands each packet to `on_packet`, after the
    /// sampler has been advanced to its arrival time.
    fn drive(&mut self, seed: u64, mut on_packet: impl FnMut(&mut SmartNic, &Packet)) {
        // Created here and not in `build`, so the counters the caller's
        // hooks registered are in its baseline.
        let mut sampler = self
            .sampler_cfg
            .take()
            .map(|cfg| TimeSampler::new(&self.registry, cfg));
        let nic = &mut self.nic;
        drive(std::mem::take(&mut self.sources), HORIZON, seed, |pkt| {
            if let Some(s) = sampler.as_mut() {
                s.advance_to(pkt.created_at);
            }
            on_packet(nic, pkt);
        });
        if let Some(s) = sampler.as_mut() {
            s.advance_to(HORIZON);
        }
        self.sampler = sampler;
    }

    fn finish(mut self) -> Run {
        // Publish cold-path gauges (per-engine utilization, θ/Γ) and capture.
        self.nic.sync_gauges(HORIZON);
        let live = self.pipeline();
        live.sync_gauges(HORIZON);
        let slab = live.tree().slab_snapshot();
        // Fold the sampled provenance through the conservation ledger before
        // the snapshot, so `audit.*` counters are part of it.
        let audit = self.audit.take().map(|ring| {
            Ledger::audit(&ring.records(), &slab).install_counters(&self.registry, 0);
            Audit { ring, slab }
        });
        Run {
            snapshot: self.registry.snapshot(HORIZON),
            registry: self.registry,
            tree: self.tree,
            horizon: HORIZON,
            offered: slice_of(&self.cfg, self.flow_names.len()),
            flow_names: self.flow_names,
            lock_profile: self.nic.per_lock_stats().to_vec(),
            sampler: self.sampler,
            cycles: self.cycles,
            audit,
        }
    }
}

/// Saturates every filtered class with an equal share of 1.5x line rate
/// for 10 ms of simulated time, full telemetry attached.
///
/// Deterministic: the same `(policy, seed)` yields the same [`Run`],
/// whatever `attach` carries.
///
/// # Errors
///
/// Returns a [`RunError`] when the policy has no filter, more than
/// [`MAX_FLOWS`], or does not compile.
pub fn saturate(policy: &Policy, seed: u64, attach: Attachments) -> Result<Run, RunError> {
    let mut fx = Fixture::build(policy, attach)?;
    fx.drive(seed, |nic, pkt| {
        let _ = nic.rx(pkt, pkt.created_at);
    });
    Ok(fx.finish())
}

/// Runs the saturation workload under `plan` and judges recovery.
///
/// Deterministic: the same `(policy, plan)` pair produces a byte-identical
/// [`ChaosReport::to_json`] document on every run. Recovery is judged on
/// the sampled `nic.tx_bits` series, so a run whose `attach` names no
/// sampler gets a 100 µs one.
///
/// # Errors
///
/// As [`saturate`] (the seed is the plan's), plus [`RunError::Reconfig`]
/// when a `reconfig` fault scales the policy into one that does not
/// compile — found before the first packet, not halfway through the run.
pub fn run_chaos(
    policy: &Policy,
    plan: &FaultPlan,
    mut attach: Attachments,
) -> Result<ChaosReport, RunError> {
    attach
        .sampler
        .get_or_insert_with(|| SamplerConfig::default().with_interval(Nanos::from_micros(100)));
    let mut fx = Fixture::build(policy, attach)?;
    let cfg = fx.cfg.clone();
    for f in &plan.faults {
        if let FaultKind::Reconfig { scale_permille } = f.kind {
            let scaled = scale_policy(policy, scale_permille);
            FlowValvePipeline::compile(&scaled, TreeParams::default(), &cfg)
                .map_err(RunError::Reconfig)?;
        }
    }
    let controller = Arc::new(ChaosController::new(plan.clone(), &fx.registry));
    let host_skipped = fx.registry.counter("chaos.host_skipped");
    fx.pipeline().install_chaos_hook(controller.clone());
    fx.nic.install_fault_injector(controller.clone());

    // `reconfig` faults hot-reload the policy; track the applied scale so
    // each window reloads exactly once on entry and once on exit.
    let mut applied_scale: Option<u64> = None;
    fx.drive(plan.seed, |nic, pkt| {
        let t = pkt.created_at;
        controller.note_transitions(t);
        let want_scale = plan.reconfig_scale_at(t);
        if want_scale != applied_scale {
            let target = match want_scale {
                Some(p) => scale_policy(policy, p),
                None => policy.clone(),
            };
            pipeline_of(nic)
                .reload(&target, TreeParams::default(), &cfg)
                .expect("the policy and every reconfig target compiled before the first packet");
            applied_scale = want_scale;
        }
        // Host-side faults act before the NIC ever sees the frame: a
        // paused app offers nothing, a reset VF's frames die at the edge.
        // The packet id is spent either way, so ids match the clean run's.
        if controller.app_paused_until(pkt.app, t).is_some() || controller.vf_down(pkt.vf, t) {
            host_skipped.incr();
        } else {
            let _ = nic.rx(pkt, t);
        }
    });
    controller.note_transitions(HORIZON);
    // How much is still queued on the wire when the run ends — after the
    // last fault clears this should have drained back to (near) zero.
    fx.registry
        .gauge("chaos.tm_backlog_bytes")
        .set(fx.nic.tm_backlog_bytes(HORIZON));
    let run = fx.finish();

    // One recovery assertion per fault window that ends early enough to
    // observe a post-settle window: aggregate throughput back in the root
    // rate's band.
    let root_rate = run
        .tree
        .class_ids()
        .into_iter()
        .filter_map(|id| run.tree.spec(id))
        .find(|s| s.parent.is_none())
        .and_then(|s| s.rate);
    let mut slos = Vec::new();
    let mut unchecked = Vec::new();
    for (i, f) in plan.faults.iter().enumerate() {
        let name = format!("fault {i} ({}) recovers by +{SETTLE}", f.kind.name());
        match root_rate {
            _ if f.end() + SETTLE >= HORIZON => unchecked.push(format!(
                "note: fault {i} ({}) unchecked (window ends at {} us, \
                 too close to the {} ms horizon)",
                f.kind.name(),
                f.end().as_nanos() / 1_000,
                HORIZON.as_nanos() / 1_000_000,
            )),
            Some(rate) => slos.push(Slo::RateRecovers {
                name,
                series: "nic.tx_bits".into(),
                min: 0.70 * rate.as_bps() as f64,
                max: 1.15 * rate.as_bps() as f64,
                clear: f.end(),
                within: SETTLE,
            }),
            None => unchecked.push(format!(
                "note: fault {i} ({}) unchecked (root class carries no rate)",
                f.kind.name(),
            )),
        }
    }

    let sampler = run.sampler.as_ref().expect("attached above");
    let recovery = evaluate(&slos, sampler, (Nanos::ZERO, HORIZON));
    Ok(ChaosReport {
        plan: plan.clone(),
        run,
        recovery,
        unchecked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: &str = "\
        fv qdisc add dev nic0 root handle 1: fv default 1:30\n\
        fv class add dev nic0 parent root classid 1:1 name root rate 40gbit\n\
        fv class add dev nic0 parent 1:1 classid 1:10 name kvs rate 15gbit prio 0\n\
        fv class add dev nic0 parent 1:1 classid 1:20 name web rate 15gbit prio 1\n\
        fv class add dev nic0 parent 1:1 classid 1:30 name bulk rate 10gbit prio 2\n\
        fv filter add dev nic0 match ip dport 5001 flowid 1:10\n\
        fv filter add dev nic0 match ip dport 5002 flowid 1:20\n\
        fv filter add dev nic0 match ip dport 5003 flowid 1:30\n";

    fn bare() -> Attachments {
        Attachments {
            audit: false,
            ..Attachments::default()
        }
    }

    fn chaos(plan: &str) -> ChaosReport {
        let policy = Policy::parse(POLICY).unwrap();
        run_chaos(&policy, &FaultPlan::parse(plan).unwrap(), bare()).unwrap()
    }

    #[test]
    fn empty_plan_runs_clean_and_passes() {
        let report = chaos("chaos seed 1\n");
        let snap = &report.run.snapshot;
        assert!(report.passed(), "{}", report.render());
        assert_eq!(snap.counter("chaos.faults_injected"), 0);
        assert_eq!(snap.counter("tm.fifo.fault_drops"), 0);
        assert_eq!(snap.counter("nic.fault_drops"), 0);
        assert_eq!(snap.counter("chaos.host_skipped"), 0);
        assert!(snap.counter("nic.tx_packets") > 0);
    }

    #[test]
    fn wire_flap_is_injected_counted_and_recovered_from() {
        let report = chaos(
            "chaos seed 1\n\
             chaos fault wire_flap at 3ms for 2ms permille 250\n",
        );
        assert_eq!(report.run.snapshot.counter("chaos.faults_injected"), 1);
        assert_eq!(report.run.snapshot.counter("chaos.faults_cleared"), 1);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.recovery.results.len(), 1);
    }

    #[test]
    fn late_fault_is_reported_unchecked_not_failed() {
        let report = chaos("chaos fault wire_flap at 9ms for 1ms permille 500\n");
        assert!(report.recovery.results.is_empty());
        assert_eq!(report.unchecked.len(), 1);
        assert!(report.passed(), "no judgeable window means a pass");
        assert!(report.render().contains("unchecked"));
    }

    /// The address plan holds 246 sources; one filter more is refused by
    /// name instead of wrapping onto 10.0.0.0 (and, ten later, onto VF 0).
    #[test]
    fn sources_are_refused_past_the_address_plan() {
        let with_filters = |n: usize| {
            let mut script = String::from(
                "fv qdisc add dev nic0 root handle 1: fv default 1:10\n\
                 fv class add dev nic0 parent root classid 1:1 name root rate 40gbit\n\
                 fv class add dev nic0 parent 1:1 classid 1:10 name all rate 40gbit\n",
            );
            for i in 0..n {
                script.push_str(&format!(
                    "fv filter add dev nic0 match ip dport {} flowid 1:10\n",
                    6000 + i
                ));
            }
            Policy::parse(&script).unwrap()
        };
        let cfg = NicConfig::agilio_cx_40g();
        let full = sources(&with_filters(MAX_FLOWS), &cfg).unwrap();
        let last = full.last().unwrap();
        assert_eq!(full.len(), 246);
        assert_eq!(last.flow.src_ip, std::net::Ipv4Addr::new(10, 0, 0, 255));
        assert_eq!((last.vf, last.app), (VfPort(245), AppId(245)));
        let err = sources(&with_filters(MAX_FLOWS + 1), &cfg).unwrap_err();
        assert_eq!(err, RunError::TooManyFilters(247));
        assert!(err.to_string().contains("at most 246"), "{err}");
        assert_eq!(
            saturate(&with_filters(0), 1, bare()).unwrap_err(),
            RunError::NoFilters
        );
    }

    /// Attachments are observers: switching every one of them on moves no
    /// NIC or per-class counter.
    #[test]
    fn attachments_do_not_change_the_run() {
        struct NullSink;
        impl SpanSink for NullSink {
            fn span(&self, _: fv_telemetry::Stage, _: Nanos, _: u64, _: Nanos) {}
        }
        let policy = Policy::parse(POLICY).unwrap();
        let all = Attachments {
            ring_capacity: 1 << 12,
            sampler: Some(SamplerConfig::default().with_interval(Nanos::from_micros(50))),
            probe: Some(Arc::new(NullSink)),
            audit: true,
        };
        let observed = saturate(&policy, 3, all).unwrap();
        let plain = saturate(&policy, 3, bare()).unwrap();
        assert!(observed.cycles.is_some() && observed.sampler.is_some());
        assert!(observed.snapshot.counter("audit.records") > 0);
        let kept = |e: &&fv_telemetry::MetricEntry| {
            matches!(e.value, fv_telemetry::MetricValue::Counter(_))
                && (e.name.starts_with("nic.") || e.name.starts_with("fv.class."))
        };
        let counters = |run: &Run| -> Vec<_> {
            let rows = run.snapshot.entries.iter().filter(kept);
            rows.map(|e| (e.name.clone(), run.snapshot.counter(&e.name)))
                .collect()
        };
        assert!(counters(&plain).len() > 10);
        assert_eq!(counters(&observed), counters(&plain));
    }

    /// The stage table a sampled run prints reads the distribution every
    /// packet would have given: `saturate` (the registry's 1 packet in 64)
    /// against the same stream through a registry that keeps every span,
    /// built by hand because no product path asks for one.
    #[test]
    fn sampled_stage_latencies_match_every_packets() {
        use fv_telemetry::{Sampler, Stage};

        let policy = Policy::parse(include_str!("../../../scripts/motivation.fv")).unwrap();
        let sampled = saturate(&policy, 1, bare()).unwrap().snapshot;

        let cfg = NicConfig::agilio_cx_40g();
        let registry = Registry::with_sampler(1024, Sampler::one_in_pow2(0));
        let mut pipeline =
            FlowValvePipeline::compile(&policy, TreeParams::default(), &cfg).unwrap();
        pipeline.attach_telemetry(&registry);
        let mut nic = SmartNic::with_registry(cfg.clone(), Box::new(pipeline), &registry);
        drive(sources(&policy, &cfg).unwrap(), HORIZON, 1, |pkt| {
            let _ = nic.rx(pkt, pkt.created_at);
        });
        let every = registry.snapshot(HORIZON);
        assert_eq!(
            every.counter("nic.tx_packets"),
            sampled.counter("nic.tx_packets")
        );
        assert_eq!((every.sample_period(), sampled.sample_period()), (1, 64));

        // Quantiles are bucket floors of a log-linear histogram with 16
        // sub-buckets per power of two: one bucket is 1/16 of the value.
        let one_bucket = |a: u64, b: u64| a.abs_diff(b) <= a.max(b) / 16 + 1;
        for stage in [
            Stage::Ingress,
            Stage::Classify,
            Stage::Sched,
            Stage::TmQueue,
            Stage::Wire,
        ] {
            let name = stage.metric();
            let (s, e) = (
                sampled.histogram(name).expect(name),
                every.histogram(name).expect(name),
            );
            assert!(
                s.count > 100 && e.count > 60 * s.count,
                "{name}: {s:?} {e:?}"
            );
            assert!(
                one_bucket(s.p50, e.p50),
                "{name} p50: {} vs {}",
                s.p50,
                e.p50
            );
            assert!(
                one_bucket(s.p99, e.p99),
                "{name} p99: {} vs {}",
                s.p99,
                e.p99
            );
            // The FIFO wait is 0 for 94 % of the forwarded packets and
            // ~50 us for the start-up burst: over the 132 sampled ones its
            // mean has a standard error near 30 % (2 740 against 3 148 ns
            // here), so only its quantiles are held to the full run's.
            if stage != Stage::TmQueue {
                assert!(
                    (s.mean() - e.mean()).abs() <= 0.02 * e.mean(),
                    "{name} mean: {:.1} vs {:.1}",
                    s.mean(),
                    e.mean()
                );
            }
        }
    }
}
